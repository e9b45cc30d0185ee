//! The traced replay: the inputs of a traced run are fed, in process,
//! through the public function of every layer they pass, and each call
//! becomes a child span of the operation whose client latency was
//! measured against the live daemon (or CLI).

use crate::common::{timed, us};
use crate::inputs::Form;
use crate::trace::Tracer;
use snet_core::api::{AdversaryRequest, CacheState, CheckRequest, SearchRequest};
use snet_core::ir::{CanonicalHash, Executor};
use snet_core::sortcheck::SortCheck;
use snet_core::verdict::Verdict;
use snet_obs::RunManifest;
use snet_search::{SearchConfig, SearchMode, SearchOutcome};
use snet_service::{JobManager, JobsConfig, RequestCtx};
use snet_store::ArtifactStore;
use std::path::Path;

/// One exchange of the traced run, as the client saw it.
pub struct Exchange<'a> {
    pub op: u64,
    /// Wires of the operation's network.
    pub n: usize,
    pub raw: &'a [u8],
    pub status: u16,
    pub headers: &'a [(String, String)],
    pub body: &'a [u8],
    pub latency_ms: f64,
    /// The daemon's own `dur_us` for this trace id (access log).
    pub service_us: f64,
}

/// The daemon-side skeleton shared by every HTTP operation: the root
/// (client latency), the pre-service span (latency minus the daemon's
/// own duration: connect, accept, queueing, request read, response
/// transfer) with the request parse under it, and the service span.
/// Returns the service span id.
fn http_skeleton(t: &mut Tracer, x: &Exchange, kind: &str) -> u64 {
    let lat = x.latency_ms * 1e3;
    let root = t.root(x.op, kind, x.n, lat);
    let pre = t.span(x.op, root, "snetd.server.pre_service", lat - x.service_us);
    let mut reader = std::io::BufReader::new(x.raw);
    let (parsed, d) =
        timed(|| snet_service::http::read_request(&mut reader, &snet_service::Limits::default()));
    assert!(parsed.is_ok(), "captured request bytes parse");
    t.span(x.op, pre, "snetd.http.read_request", us(d));
    t.residual_span(x.op, root, "snetd.server.service", x.service_us)
}

fn write_response(t: &mut Tracer, x: &Exchange, service: u64) {
    let ctype = x
        .headers
        .iter()
        .find(|(k, _)| k == "content-type")
        .map_or("application/json", |(_, v)| v.as_str());
    let extra: Vec<(&str, &str)> = x
        .headers
        .iter()
        .filter(|(k, _)| k != "content-type" && k != "content-length")
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let mut sink: Vec<u8> = Vec::with_capacity(x.body.len() + 256);
    let (_, d) =
        timed(|| snet_service::http::write_response(&mut sink, x.status, ctype, x.body, &extra));
    t.span(x.op, service, "snetd.http.write_response", us(d));
}

/// In-process replay state: a job manager over a store of its own, and
/// a side store the separately timed store calls write to.
pub struct Replayer {
    mgr: JobManager,
    side: ArtifactStore,
}

impl Replayer {
    pub fn new(store: &Path, side: &Path) -> Replayer {
        let store = ArtifactStore::open(store).expect("replay store opens");
        let side = ArtifactStore::open(side).expect("side store opens");
        let mgr = JobManager::new(JobsConfig {
            store: Some(store),
            max_jobs: 1,
            search_threads: 2,
            check_threads: 1,
        });
        Replayer { mgr, side }
    }

    fn store(&self) -> &ArtifactStore {
        self.mgr.store().expect("replay manager has a store")
    }

    /// A `/v1/check` exchange. Returns the job layer's cache state.
    pub fn check(&self, t: &mut Tracer, x: &Exchange, form: &Form) -> CacheState {
        let body = std::str::from_utf8(&x.raw[x.raw.len() - form.body.len()..]).expect("utf-8");
        let hit = self.store().contains(&form.hash);
        let kind = if hit { "check_hit" } else { "check_miss" };
        let service = http_skeleton(t, x, kind);
        let (req, d) = timed(|| serde_json::from_str::<CheckRequest>(body).expect("decodes"));
        t.span(x.op, service, "core.api.decode", us(d));
        let (answer, d) =
            timed(|| self.mgr.check(&req.network, &RequestCtx::default()).expect("check answers"));
        let jobs = t.span(x.op, service, "snetd.jobs", us(d));
        let (hash, d) = timed(|| CanonicalHash::of_network(&req.network));
        t.span(x.op, jobs, "core.ir.canon_hash", us(d));
        if hit {
            let (_, d) = timed(|| self.store().get_verdict(&hash));
            t.span(x.op, jobs, "store.get_hit", us(d));
        } else {
            let (_, d) = timed(|| self.side.get_verdict(&hash));
            t.span(x.op, jobs, "store.get_miss", us(d));
            let (exec, d) = timed(|| Executor::compile(&req.network));
            t.span(x.op, jobs, "core.ir.compile", us(d));
            let (check, d) = timed(|| exec.check_zero_one(1));
            t.span(x.op, jobs, "core.ir.exec.check", us(d));
            let verdict = verdict_of(hash, form.n(), check);
            let (_, d) = timed(|| verdict.to_json());
            t.span(x.op, jobs, "core.verdict.to_json", us(d));
            let (_, d) = timed(|| RunManifest::capture("snetd"));
            t.span(x.op, jobs, "obs.manifest.capture", us(d));
            let (_, d) = timed(|| self.side.put_verdict(&verdict).expect("side store writes"));
            t.span(x.op, jobs, "store.put", us(d));
        }
        write_response(t, x, service);
        answer.cache
    }

    /// A `/v1/adversary` exchange.
    pub fn adversary(&self, t: &mut Tracer, x: &Exchange, form: &Form) {
        let body = std::str::from_utf8(&x.raw[x.raw.len() - form.body.len()..]).expect("utf-8");
        let hit = self.store().contains(&form.hash);
        let service = http_skeleton(t, x, if hit { "adversary_hit" } else { "adversary_miss" });
        let (req, d) = timed(|| serde_json::from_str::<AdversaryRequest>(body).expect("decodes"));
        t.span(x.op, service, "core.api.decode", us(d));
        let (_, d) = timed(|| self.mgr.adversary(&req, &RequestCtx::default()).expect("refutes"));
        let jobs = t.span(x.op, service, "snetd.jobs", us(d));
        let n = req.n as usize;
        let ((ird, net), d) = timed(|| {
            let ird = snet_topology::ShuffleNetwork::new(n, req.stages.clone())
                .to_iterated_reverse_delta();
            let net = ird.to_network();
            (ird, net)
        });
        t.span(x.op, jobs, "adversary.to_ird", us(d));
        let (hash, d) = timed(|| CanonicalHash::of_network(&net));
        t.span(x.op, jobs, "core.ir.canon_hash", us(d));
        if hit {
            let (_, d) = timed(|| self.store().get_verdict(&hash));
            t.span(x.op, jobs, "store.get_hit", us(d));
        } else {
            let (_, d) = timed(|| self.side.get_verdict(&hash));
            t.span(x.op, jobs, "store.get_miss", us(d));
            self.refute_spans(t, x.op, jobs, &ird, &net, true);
        }
        write_response(t, x, service);
    }

    /// Theorem 4.1, the witness pair, its verification, the verdict
    /// document and its store write, as child spans of `parent`.
    pub fn refute_spans(
        &self,
        t: &mut Tracer,
        op: u64,
        parent: u64,
        ird: &snet_topology::IteratedReverseDelta,
        net: &snet_core::network::ComparatorNetwork,
        to_json: bool,
    ) {
        let l = net.wires().trailing_zeros() as usize;
        let (out, d) = timed(|| snet_adversary::theorem41(ird, l));
        t.span(op, parent, "adversary.theorem41", us(d));
        let (r, d) = timed(|| snet_adversary::refute(net, &out.input_pattern).expect("refutes"));
        t.span(op, parent, "adversary.refute", us(d));
        let (ok, d) = timed(|| r.verify(net));
        assert!(ok.is_ok(), "witness verifies");
        t.span(op, parent, "adversary.verify", us(d));
        let verdict = r.to_verdict(net);
        if to_json {
            let (_, d) = timed(|| verdict.to_json());
            t.span(op, parent, "core.verdict.to_json", us(d));
        }
        let (_, d) = timed(|| self.side.put_verdict(&verdict).expect("side store writes"));
        t.span(op, parent, "store.put", us(d));
    }

    /// A streamed `/v1/search` exchange: the search itself runs in
    /// process with the daemon's configuration for the request.
    pub fn search(&self, t: &mut Tracer, x: &Exchange, body: &str) -> SearchOutcome {
        let service = http_skeleton(t, x, "search");
        let (req, d) = timed(|| serde_json::from_str::<SearchRequest>(body).expect("decodes"));
        t.span(x.op, service, "core.api.decode", us(d));
        let mode = if req.mode == "shuffle-legal" {
            SearchMode::ShuffleLegal
        } else {
            SearchMode::Unrestricted
        };
        let mut cfg = SearchConfig::new(req.n as usize, mode);
        cfg.threads = req.threads.unwrap_or(1) as usize;
        let (out, d) = timed(|| snet_search::search(&cfg));
        t.span(x.op, service, "search.run", us(d));
        out
    }

    pub fn side(&self) -> &ArtifactStore {
        &self.side
    }

    pub fn finish(self) {
        self.mgr.shutdown();
    }
}

/// The verdict `verdict_zero_one` would build from `check`.
pub fn verdict_of(hash: CanonicalHash, n: usize, check: SortCheck) -> Verdict {
    match check {
        SortCheck::AllSorted { tested } => Verdict::certificate(hash, n as u32, tested),
        SortCheck::Counterexample { input, output } => {
            let index = input.iter().enumerate().fold(0u64, |a, (w, &b)| a | (u64::from(b) << w));
            Verdict::counterexample(hash, n as u32, index, input, output)
        }
    }
}
