//! A very short run of every workload, plain and traced: every metric
//! `BENCHMARK.json` names is reported, no answer fails on the default
//! seed, and the traced run's residual closes the latency identity.
//!
//! Run from anywhere with `cargo test --release --manifest-path
//! snetbench/Cargo.toml`; each run builds `snetctl` in the checkout
//! first, like the benchmark itself.

use serde_json::Value;
use std::path::PathBuf;
use std::process::Command;

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Metric names of one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let doc: Value = serde_json::from_str(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Value::as_array)
        .expect("section is a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("named metric").to_string())
        .collect()
}

fn run(workload: &str, trace: u8) -> Value {
    let out = Command::new(env!("CARGO_BIN_EXE_snetbench"))
        .args(["--workload", workload, "--seed", "1", "--seconds", "2"])
        .args(["--trace", &trace.to_string()])
        .current_dir(root())
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    serde_json::from_str(last).expect("the last line is the JSON result")
}

fn value(result: &Value, name: &str) -> f64 {
    result
        .get("metrics")
        .and_then(|m| m.get(name))
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} missing"))
}

fn smoke(workload: &str) {
    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let r = run(workload, trace);
        assert_eq!(r.get("failed").and_then(Value::as_u64), Some(0), "{workload}: {r:?}");
        assert_eq!(r.get("correct").and_then(Value::as_bool), Some(true));
        for name in listed(section) {
            value(&r, &name);
        }
        if trace == 0 {
            assert_eq!(value(&r, "ok_ratio"), 1.0, "error_rate is 0 on the default seed");
        } else {
            let (lat, layers, residual) = (
                value(&r, "trace.latency_ms.mean"),
                value(&r, "trace.layers_ms.mean"),
                value(&r, "trace.residual_ms.mean"),
            );
            assert!(value(&r, "trace.ops_replayed") >= 1.0, "{workload}: nothing replayed");
            assert!(lat > 0.0 && residual != 0.0, "{workload}: residual not computed");
            assert!((layers + residual - lat).abs() <= 1e-6 * lat, "{workload}: identity");
        }
    }
}

#[test]
fn misses() {
    smoke("misses");
}

#[test]
fn search() {
    smoke("search");
}

#[test]
fn cli() {
    smoke("cli");
}
