//! `snetctl bench`: the one baseline driver and the baseline comparator.
//!
//! `bench run NAME [--out DIR]` runs exactly one scenario of
//! [`SCENARIOS`] and writes `DIR/NAME.json` (schema
//! `snet-bench-baseline/1`; `DIR` defaults to `results/baselines`). Every
//! scenario runs its correctness checks before anything is written — a
//! baseline from a broken build is worse than none — so a failed check
//! writes no file and exits non-zero. One scenario per process keeps
//! first-in-process costs where the committed numbers have them: the
//! cold leg of `store_warm_n7` pays the manifest's one git/rustc probe.
//!
//! The only settings are the environment variables `snetctl` already
//! reads: `SNET_THREADS` sets the search worker count and
//! `SNET_FLIGHT=0` turns the flight recorder off.
//!
//! Metric names carry their diff direction (see
//! [`snet_obs::baseline::Direction::of`]): timings end in `_ms`, `_us` or
//! `_ns`; deterministic op, size and depth counts end in `_total`, so
//! they are reported and never gate.

use crate::exit::{self, exit_flushed};
use crate::{flag, parse, take_flag_value};
use snet_core::ir::{
    check_zero_one_sharded, default_engine_threads, CanonicalHash, Executor, PassManager, Program,
};
use snet_core::network::ComparatorNetwork;
use snet_core::sortcheck::check_zero_one_exhaustive;
use snet_core::verdict::verdict_zero_one;
use snet_obs::baseline::{self, Baseline};
use snet_runtime::CountingNetwork;
use snet_search::SearchMode;
use snet_sorters::{
    bitonic_shuffle, brick_wall, odd_even_mergesort, periodic_balanced, pratt_network,
};
use snet_store::ArtifactStore;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Where `bench run` writes and `bench diff` looks by default.
const BASELINE_DIR: &str = "results/baselines";

/// What one scenario runs.
enum Workload {
    /// Depth-optimal search on `n` wires.
    Search(usize, SearchMode),
    /// Cold verdict vs warm store hit on `brick_wall(STORE_WIRES)`.
    StoreWarm,
    /// One shared `AtomicU64`: the hot-cache-line counter baseline.
    CounterAtomic,
    /// A counting network of the given constructor and width.
    Counter(fn(usize) -> CountingNetwork, usize),
    /// Seed scalar vs compiled sharded exhaustive checks.
    Engine,
    /// Per-pass cost and effect of the optimizing IR pipeline.
    IrPasses,
}

/// Every scenario `bench run` knows, by baseline name.
const SCENARIOS: &[(&str, Workload)] = &[
    ("search_n5", Workload::Search(5, SearchMode::Unrestricted)),
    ("search_n6", Workload::Search(6, SearchMode::Unrestricted)),
    ("search_n7", Workload::Search(7, SearchMode::Unrestricted)),
    ("search_shuffle_n4", Workload::Search(4, SearchMode::ShuffleLegal)),
    // About two minutes in release: the depth-5 refutation at n = 8.
    ("search_n8", Workload::Search(8, SearchMode::Unrestricted)),
    ("store_warm_n7", Workload::StoreWarm),
    ("counter_atomic", Workload::CounterAtomic),
    ("counter_bitonic_w4", Workload::Counter(CountingNetwork::bitonic, 4)),
    ("counter_bitonic_w8", Workload::Counter(CountingNetwork::bitonic, 8)),
    ("counter_bitonic_w16", Workload::Counter(CountingNetwork::bitonic, 16)),
    ("counter_periodic_w8", Workload::Counter(CountingNetwork::periodic, 8)),
    ("engine", Workload::Engine),
    ("ir_passes", Workload::IrPasses),
];

/// Wires of the `store_warm` network, and how many warm hits it times.
const STORE_WIRES: usize = 7;
const STORE_HITS: usize = 32;
/// Counter scenarios: threads × increments per thread.
const COUNTER_THREADS: usize = 4;
const COUNTER_OPS: usize = 200_000;
const COUNTER_TOTAL: u64 = (COUNTER_THREADS * COUNTER_OPS) as u64;
/// Engine scenarios: timed repetitions (median reported); the
/// microsecond-scale single evaluations take more.
const ENGINE_REPS: usize = 5;
const SCALAR_REPS: usize = 200;

type Metrics = Vec<(String, f64)>;

/// `bench run NAME [--out DIR]` | `bench diff NEW.json [--against
/// OLD.json] [--fail-on-regress PCT]`.
pub fn cmd_bench(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("run") => cmd_bench_run(&args[1..]),
        Some("diff") => cmd_bench_diff(&args[1..]),
        Some(other) => Err(format!("unknown bench subcommand '{other}' (try 'run' or 'diff')")),
        None => Err("bench requires a subcommand (try 'run' or 'diff')".into()),
    }
}

fn cmd_bench_run(args: &[String]) -> Result<(), String> {
    let mut args = args.to_vec();
    let dir = take_flag_value(&mut args, "--out")?.unwrap_or_else(|| BASELINE_DIR.to_string());
    let known = || SCENARIOS.iter().map(|(name, _)| *name).collect::<Vec<_>>().join(", ");
    let [name] = args.as_slice() else {
        return Err(format!("usage: bench run NAME [--out DIR] (known: {})", known()));
    };
    let (name, workload) = SCENARIOS
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| format!("unknown scenario '{name}' (known: {})", known()))?;
    let metrics = match *workload {
        Workload::Search(n, mode) => search(n, mode)?,
        Workload::StoreWarm => store_warm()?,
        Workload::CounterAtomic => counter_atomic()?,
        Workload::Counter(build, width) => counter_network(build, width)?,
        Workload::Engine => engine()?,
        Workload::IrPasses => ir_passes(),
    };
    let manifest = snet_obs::RunManifest::capture("snetctl");
    let mut baseline = Baseline::new(name, &manifest);
    for (metric, value) in &metrics {
        baseline = baseline.metric(metric, *value);
    }
    let path = std::path::Path::new(&dir).join(format!("{name}.json"));
    baseline.save(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    for (metric, value) in &baseline.metrics {
        println!("{name}: {metric} = {value}");
    }
    println!("baseline written to {}", path.display());
    Ok(())
}

fn cmd_bench_diff(args: &[String]) -> Result<(), String> {
    let new_path = args.first().ok_or("bench diff requires NEW.json")?;
    let new = Baseline::load(std::path::Path::new(new_path))?;
    let against = match flag(args, "--against") {
        Some(p) => p.to_string(),
        // Default reference: the committed seed baseline for this scenario.
        None => format!("{BASELINE_DIR}/{}.json", new.name),
    };
    let old = Baseline::load(std::path::Path::new(&against))?;
    let fail_pct: f64 =
        parse(flag(args, "--fail-on-regress").unwrap_or("10"), "--fail-on-regress")?;
    if old.name != new.name {
        eprintln!("bench diff: comparing different scenarios ('{}' vs '{}')", old.name, new.name);
    }
    let d = baseline::diff(&old, &new, fail_pct);
    print!("{}", baseline::render_diff(&old, &new, &d));
    if !d.regressions().is_empty() {
        exit_flushed(exit::BENCH_REGRESS);
    }
    Ok(())
}

/// Search wall time (summed over budget rounds), work, and TT hit rate;
/// the witness must pass its sharded 0-1 check.
fn search(n: usize, mode: SearchMode) -> Result<Metrics, String> {
    let mut cfg = snet_search::SearchConfig::new(n, mode);
    cfg.threads = default_engine_threads();
    let outcome = snet_search::search(&cfg);
    if outcome.verified() != Some(true) {
        return Err(format!(
            "{} search at n = {n} found no verified witness ({:?})",
            mode.name(),
            outcome.verified()
        ));
    }
    let wall_ms: u64 = outcome.rounds.iter().map(|r| r.elapsed_ms).sum();
    let t = &outcome.totals;
    let mut m = vec![
        ("wall_ms".to_string(), wall_ms as f64),
        ("nodes_total".to_string(), t.nodes as f64),
        ("tt_hit_rate".to_string(), t.tt_hit_rate()),
    ];
    // A sub-millisecond run cannot resolve a rate.
    if wall_ms > 0 {
        m.push(("states_per_sec".to_string(), t.nodes as f64 * 1000.0 / wall_ms as f64));
    }
    Ok(m)
}

/// Cold verdict vs warm store hit, in a temporary store that is removed
/// whether the checks pass or not.
fn store_warm() -> Result<Metrics, String> {
    let dir = std::env::temp_dir().join(format!("snet-store-warm-{}", std::process::id()));
    let result = store_warm_in(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

/// The cold leg is what `snetctl check --exhaustive` pays on a miss:
/// compile, exhaustive 0-1 check, the verdict's manifest capture (the
/// process's first, so it probes git and rustc) and serialization. The
/// warm leg is a store hit: canonical hash, mmap, checksum, parse. The
/// hit must replay the cold bytes exactly.
fn store_warm_in(dir: &std::path::Path) -> Result<Metrics, String> {
    let net = brick_wall(STORE_WIRES);
    let store =
        ArtifactStore::open(dir).map_err(|e| format!("cannot open {}: {e}", dir.display()))?;

    let cold_start = Instant::now();
    let exec = Executor::compile(&net);
    let hash = CanonicalHash::of_program(exec.program());
    let verdict = verdict_zero_one(&exec, 1);
    let cold_bytes = verdict.to_json().into_bytes();
    let cold = cold_start.elapsed();
    if !verdict.is_sorting() || verdict.hash != hash {
        return Err(format!("brick_wall({STORE_WIRES}) must sort under hash {hash}"));
    }
    store.put_verdict(&verdict).map_err(|e| format!("cannot cache the verdict: {e}"))?;

    // Median of repeated hits, so one stray page fault cannot skew it.
    let mut samples = Vec::with_capacity(STORE_HITS);
    for _ in 0..STORE_HITS {
        let warm_start = Instant::now();
        let exec = Executor::compile(&net);
        let hash = CanonicalHash::of_program(exec.program());
        let hit = store.get_verdict(&hash);
        samples.push(warm_start.elapsed());
        match hit {
            Some((cached, bytes)) if cached.is_sorting() && bytes == cold_bytes => {}
            _ => return Err("the store hit must replay the byte-identical verdict".into()),
        }
    }
    samples.sort();
    let cold_us = cold.as_secs_f64() * 1e6;
    let warm_us = samples[samples.len() / 2].as_secs_f64() * 1e6;
    Ok(vec![
        ("cold_us".to_string(), cold_us),
        ("warm_us".to_string(), warm_us),
        ("speedup".to_string(), cold_us / warm_us.max(1e-3)),
    ])
}

/// Times `COUNTER_THREADS × COUNTER_OPS` calls of `op`.
fn hammer(op: impl Fn() + Sync) -> Duration {
    let start = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..COUNTER_THREADS {
            s.spawn(|| {
                for _ in 0..COUNTER_OPS {
                    op();
                }
            });
        }
    });
    start.elapsed()
}

/// Runs `once` untimed (settling thread spawn and page faults), then
/// again for the reported wall time and throughput.
fn counter_metrics(once: impl Fn() -> Result<Duration, String>) -> Result<Metrics, String> {
    once()?;
    let elapsed = once()?;
    Ok(vec![
        ("wall_ms".to_string(), elapsed.as_secs_f64() * 1e3),
        ("ops_per_sec".to_string(), COUNTER_TOTAL as f64 / elapsed.as_secs_f64().max(1e-9)),
    ])
}

fn counter_atomic() -> Result<Metrics, String> {
    counter_metrics(|| {
        let shared = AtomicU64::new(0);
        let elapsed = hammer(|| {
            shared.fetch_add(1, Ordering::Relaxed);
        });
        match shared.load(Ordering::Relaxed) {
            COUNTER_TOTAL => Ok(elapsed),
            n => Err(format!("atomic counter lost increments: {n}")),
        }
    })
}

/// A fresh network per run; no traversal may be lost and the quiescent
/// outputs must have the step property.
fn counter_network(build: fn(usize) -> CountingNetwork, width: usize) -> Result<Metrics, String> {
    counter_metrics(|| {
        let net = build(width);
        let elapsed = hammer(|| {
            net.traverse();
        });
        if net.total() != COUNTER_TOTAL {
            return Err(format!("lost traversals: {} counted", net.total()));
        }
        net.check_step().map_err(|e| format!("quiescent step property: {e}"))?;
        Ok(elapsed)
    })
}

/// Median wall time of `reps` runs of `f`, in milliseconds; `f` returns
/// false when its check failed.
fn median_ms(what: &str, reps: usize, mut f: impl FnMut() -> bool) -> Result<f64, String> {
    let mut samples = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        if !f() {
            return Err(format!("{what}: the sorter failed its check"));
        }
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    samples.sort_by(f64::total_cmp);
    Ok(samples[samples.len() / 2])
}

/// Interpreted vs compiled single evaluation of `bitonic_shuffle(1024)`,
/// then the seed scalar exhaustive 0-1 scan vs the compiled sharded
/// checker at 1/2/4/8 threads on `bitonic_shuffle(16)` (routes every
/// level) and `brick_wall(20)` (the 2²⁰-input space).
fn engine() -> Result<Metrics, String> {
    let mut m = Metrics::new();
    let net = bitonic_shuffle(1024).to_network();
    let compiled = Executor::compile(&net);
    let input: Vec<u32> = (0..1024).rev().collect();
    let interp_ms = median_ms("interpreter", SCALAR_REPS, || {
        std::hint::black_box(net.evaluate(&input));
        true
    })?;
    let mut values = input.clone();
    let mut scratch = Vec::new();
    let compiled_ms = median_ms("compiled", SCALAR_REPS, || {
        values.copy_from_slice(&input);
        compiled.run_scalar_in_place(&mut values, &mut scratch);
        std::hint::black_box(&values);
        true
    })?;
    m.push(("bitonic_shuffle_1024.interpreter_ms".to_string(), interp_ms));
    m.push(("bitonic_shuffle_1024.compiled_ms".to_string(), compiled_ms));

    let nets: [(&str, ComparatorNetwork); 2] = [
        ("bitonic_shuffle_16", bitonic_shuffle(16).to_network()),
        ("brick_wall_20", brick_wall(20)),
    ];
    for (name, net) in &nets {
        m.push((format!("{name}.comparators_total"), net.size() as f64));
        let seed = median_ms(name, ENGINE_REPS, || check_zero_one_exhaustive(net).is_sorting())?;
        m.push((format!("{name}.seed_scalar_ms"), seed));
        for threads in [1usize, 2, 4, 8] {
            let ms =
                median_ms(name, ENGINE_REPS, || check_zero_one_sharded(net, threads).is_sorting())?;
            m.push((format!("{name}.sharded_t{threads}_ms"), ms));
        }
    }
    Ok(m)
}

/// For every sorter in the zoo at 16 and 64 wires: the source size, then
/// per optimizing pass its compile cost and the ops/size/depth after it.
fn ir_passes() -> Metrics {
    let mut m = Metrics::new();
    for n in [16usize, 64] {
        let zoo = [
            ("bitonic_shuffle", bitonic_shuffle(n).to_network()),
            ("odd_even", odd_even_mergesort(n)),
            ("pratt", pratt_network(n)),
            ("periodic", periodic_balanced(n)),
            ("brick_wall", brick_wall(n)),
        ];
        for (kind, net) in &zoo {
            let name = format!("{kind}_{n}");
            let mut prog = Program::from_network(net);
            m.push((format!("{name}.source_ops_total"), prog.op_count() as f64));
            m.push((format!("{name}.source_size_total"), net.size() as f64));
            m.push((format!("{name}.source_depth_total"), net.depth() as f64));
            for r in PassManager::optimizing().run(&mut prog) {
                let pass = format!("{name}.{}", r.name);
                m.push((format!("{pass}_ns"), r.nanos as f64));
                m.push((format!("{pass}_ops_total"), r.ops_after as f64));
                m.push((format!("{pass}_size_total"), r.size_after as f64));
                m.push((format!("{pass}_depth_total"), r.depth_after as f64));
            }
        }
    }
    m
}
