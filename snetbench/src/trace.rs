//! Benchmark-side spans. Each traced operation is one root span (its
//! client-observed latency) with one child span per layer call; all
//! spans of an operation share its id. Spans stay in memory and are
//! written out as JSONL when the run ends.
//!
//! A span's self time is its duration minus its children's. Spans
//! marked `residual` (the root, and the daemon's service span whose
//! inner layers are replayed in process) are not layers: their self
//! time is the part of the latency no layer call accounts for. So for
//! every operation, the sum of layer self times plus the residual
//! equals the client latency exactly.

use crate::common::{json_str, mean, median, quantile, Report};
use std::collections::BTreeMap;
use std::io::Write;

struct Span {
    op: u64,
    id: u64,
    parent: u64,
    name: String,
    dur_us: f64,
    residual: bool,
}

/// What an operation was: its kind label and the size of its network.
struct Op {
    kind: String,
    n: usize,
}

#[derive(Default)]
pub struct Tracer {
    spans: Vec<Span>,
    next: u64,
    ops: BTreeMap<u64, Op>,
}

/// Per-layer metrics: `(metric, layer span, also report .p99)`. Values
/// are self times per call, in µs.
const LAYER_METRICS: [(&str, &str, bool); 15] = [
    ("snetd.http.read_request_us", "snetd.http.read_request", true),
    ("snetd.http.write_response_us", "snetd.http.write_response", true),
    ("core.api.decode_us", "core.api.decode", true),
    ("core.ir.canon_hash_us", "core.ir.canon_hash", true),
    ("core.ir.compile_us", "core.ir.compile", true),
    ("core.ir.exec.check_us", "core.ir.exec.check", true),
    ("obs.manifest.capture_us", "obs.manifest.capture", true),
    ("core.verdict.to_json_us", "core.verdict.to_json", false),
    ("store.get_hit_us", "store.get_hit", false),
    ("store.get_miss_us", "store.get_miss", false),
    ("store.put_us", "store.put", false),
    ("adversary.to_ird_us", "adversary.to_ird", false),
    ("adversary.theorem41_us", "adversary.theorem41", false),
    ("adversary.refute_us", "adversary.refute", false),
    ("adversary.verify_us", "adversary.verify", false),
];

impl Tracer {
    /// Opens operation `op` (of `kind`, on an `n`-wire network) with its
    /// root span, whose duration is the client latency. Returns its id.
    pub fn root(&mut self, op: u64, kind: &str, n: usize, latency_us: f64) -> u64 {
        self.ops.insert(op, Op { kind: kind.to_string(), n });
        self.push(op, 0, "client", latency_us, true)
    }

    /// A layer span under `parent`.
    pub fn span(&mut self, op: u64, parent: u64, name: &str, dur_us: f64) -> u64 {
        self.push(op, parent, name, dur_us, false)
    }

    /// A span whose self time counts as residual, not as a layer.
    pub fn residual_span(&mut self, op: u64, parent: u64, name: &str, dur_us: f64) -> u64 {
        self.push(op, parent, name, dur_us, true)
    }

    fn push(&mut self, op: u64, parent: u64, name: &str, dur_us: f64, residual: bool) -> u64 {
        self.next += 1;
        let id = self.next;
        self.spans.push(Span { op, id, parent, name: name.to_string(), dur_us, residual });
        id
    }

    /// Self time of every span, in span order.
    fn self_times(&self) -> Vec<f64> {
        let mut children: BTreeMap<u64, f64> = BTreeMap::new();
        for s in &self.spans {
            *children.entry(s.parent).or_default() += s.dur_us;
        }
        self.spans.iter().map(|s| s.dur_us - children.get(&s.id).copied().unwrap_or(0.0)).collect()
    }

    /// Self times of every call of one layer (µs).
    fn layer_values(&self, name: &str) -> Vec<f64> {
        self.layer_values_where(name, |_| true)
    }

    /// Self times of the calls of one layer in operations whose kind
    /// passes `keep` (µs).
    fn layer_values_where(&self, name: &str, keep: impl Fn(&str) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.name == name && self.ops.get(&s.op).is_some_and(|o| keep(&o.kind)))
            .map(|x| x.1)
            .collect()
    }

    /// Durations of every span named `name` (µs).
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_us).collect()
    }

    /// Durations of spans named `name` in operations of `kind` (µs).
    pub fn durations_in(&self, name: &str, kind: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && self.ops.get(&s.op).is_some_and(|o| o.kind == kind))
            .map(|s| s.dur_us)
            .collect()
    }

    /// Puts every per-layer metric the spans support into `report`,
    /// prints one line per layer, and states the latency identity.
    pub fn summarize(&self, report: &mut Report) {
        for (metric, layer, p99) in LAYER_METRICS {
            let v = self.layer_values(layer);
            report.put(metric, median(&v), "us");
            if p99 {
                report.put(format!("{metric}.p99"), quantile(&v, 0.99), "us");
            }
        }
        // The job layer's own cost, from store hits only: on a miss the
        // job's duration includes a manifest capture (two process spawns),
        // and subtracting a separately timed capture would leave the
        // difference of two unrelated spawns.
        let v = self.layer_values_where("snetd.jobs", |kind| kind.ends_with("_hit"));
        report.put("snetd.jobs.self_us", median(&v), "us");
        report.put("snetd.jobs.self_us.p99", quantile(&v, 0.99), "us");
        // The engine per size band, and its throughput in inputs per µs.
        let checks: Vec<(usize, f64)> = self
            .spans
            .iter()
            .filter(|s| s.name == "core.ir.exec.check")
            .map(|s| (self.ops[&s.op].n, s.dur_us))
            .collect();
        for (band, lo, hi) in [("n10_15", 10, 15), ("n16_19", 16, 19), ("n20_22", 20, 22)] {
            let v: Vec<f64> =
                checks.iter().filter(|(n, _)| (lo..=hi).contains(n)).map(|x| x.1).collect();
            report.put(format!("core.ir.exec.check_us.{band}"), median(&v), "us");
        }
        let rates: Vec<f64> = checks
            .iter()
            .filter(|(_, us)| *us > 0.0)
            .map(|(n, us)| (1u64 << n) as f64 / us)
            .collect();
        report.put("core.ir.exec.inputs_per_us", median(&rates), "1/us");
        let ms =
            |name: &str| -> Vec<f64> { self.durations(name).iter().map(|u| u / 1e3).collect() };
        for (metric, span) in [
            ("snetd.server.pre_service_ms", "snetd.server.pre_service"),
            ("snetd.server.service_ms", "snetd.server.service"),
        ] {
            report.put(format!("{metric}.p50"), median(&ms(span)), "ms");
            report.put(format!("{metric}.p99"), quantile(&ms(span), 0.99), "ms");
        }

        // Per operation: latency, layer self times, residual.
        let mut lat: BTreeMap<u64, f64> = BTreeMap::new();
        let mut layers: BTreeMap<u64, f64> = BTreeMap::new();
        let mut residual: BTreeMap<u64, f64> = BTreeMap::new();
        let mut per_layer: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            if s.parent == 0 {
                lat.insert(s.op, s.dur_us / 1e3);
            }
            if s.residual {
                *residual.entry(s.op).or_default() += own / 1e3;
            } else {
                *layers.entry(s.op).or_default() += own / 1e3;
                per_layer.entry(&s.name).or_default().push(own);
            }
        }
        let ops = lat.len().max(1) as f64;
        for (name, vals) in &per_layer {
            report.note(format!(
                "layer {name:<26} self_us p50={:>10.1} p99={:>10.1} calls={:>5} mean_per_op_ms={:.4}",
                median(vals),
                quantile(vals, 0.99),
                vals.len(),
                vals.iter().sum::<f64>() / ops / 1e3
            ));
        }
        let lat: Vec<f64> = lat.into_values().collect();
        let sum: Vec<f64> = layers.into_values().collect();
        let res: Vec<f64> = residual.into_values().collect();
        report.note(format!(
            "identity: mean client latency {:.4} ms = layer self times {:.4} ms + residual {:.4} ms \
             over {} traced operations",
            mean(&lat),
            sum.iter().sum::<f64>() / ops,
            mean(&res),
            lat.len()
        ));
        report.put("trace.latency_ms.mean", mean(&lat), "ms");
        report.put("trace.layers_ms.mean", sum.iter().sum::<f64>() / ops, "ms");
        report.put("trace.residual_ms.mean", mean(&res), "ms");
        report.put("trace.residual_ms.p50", median(&res), "ms");
        report.put("trace.residual_ms.p99", quantile(&res, 0.99), "ms");
        report.put("trace.ops_replayed", lat.len() as f64, "count");
    }

    /// Writes every span as one JSONL line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                f,
                "{{\"op\":{},\"kind\":{},\"id\":{},\"parent\":{},\"name\":{},\"dur_us\":{:.3},\
                 \"self_us\":{:.3},\"residual\":{}}}",
                s.op,
                json_str(self.ops.get(&s.op).map_or("", |o| o.kind.as_str())),
                s.id,
                s.parent,
                json_str(&s.name),
                s.dur_us,
                own,
                s.residual
            )?;
        }
        f.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layers_plus_residual_equal_latency() {
        let mut t = Tracer::default();
        let root = t.root(1, "check_hit", 8, 1000.0);
        let pre = t.span(1, root, "snetd.server.pre_service", 300.0);
        t.span(1, pre, "snetd.http.read_request", 20.0);
        let service = t.residual_span(1, root, "snetd.server.service", 700.0);
        let jobs = t.span(1, service, "snetd.jobs", 400.0);
        t.span(1, jobs, "core.ir.canon_hash", 100.0);
        t.span(1, jobs, "store.get_hit", 50.0);
        let mut r = Report::default();
        t.summarize(&mut r);
        // Layers: 280 + 20 + 250 + 100 + 50 = 700 µs; residual 300 µs.
        let close = |name: &str, want: f64| {
            let got = r.get(name).expect("metric reported");
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        };
        close("trace.layers_ms.mean", 0.7);
        close("trace.residual_ms.mean", 0.3);
        close("trace.latency_ms.mean", 1.0);
        close("snetd.jobs.self_us", 250.0);
    }
}
