//! The two closed-loop workloads: one client that waits for each answer
//! before sending the next.
//!
//! * `search`: streamed `/v1/search` jobs back to back against a daemon
//!   without a store, so every search is cold.
//! * `cli`: sequential `snetctl` processes on a prepared store: warm and
//!   cold `check --exhaustive --store`, and `refute` on shuffle networks.

use crate::client::{self, Conn};
use crate::common::{
    median, parse_json, put_latency, put_setup, quantile, timed, us, wait_with_usage, windows_of,
    Report, WINDOWS,
};
use crate::daemon::{time_setups, Daemon, DaemonOpts, Env, SETUPS_PER_GAP};
use crate::inputs::{Expect, Form, Gen};
use crate::layers::{Exchange, Replayer};
use crate::service::write_spans;
use crate::trace::Tracer;
use crate::verify;
use crate::Args;
use snet_core::api::SearchRequest;
use snet_core::ir::{CanonicalHash, Executor};
use snet_obs::RunManifest;
use snet_store::ArtifactStore;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// search
// ---------------------------------------------------------------------------

/// `rss_peak_mb` of `search` is the daemon's peak after this many jobs
/// (two blocks of the rotation).
const RSS_AFTER_JOBS: usize = 16;

/// One search job of the rotation: `(n, shuffle-legal)`.
type Job = (usize, bool);

/// Blocks of eight jobs in seeded order: five unrestricted n=7 (so the
/// median job is an n=7 search), one each of n=6 and n=5, and one
/// shuffle-legal n=4. Shuffle-legal n=8 is left out: it does not finish
/// in minutes.
fn rotation(gen: &mut Gen, count: usize) -> Vec<Job> {
    let mut out = Vec::new();
    while out.len() < count {
        let mut block = vec![(7, false); 5];
        block.extend([(6, false), (5, false), (4, true)]);
        gen.shuffle_vec(&mut block);
        out.extend(block);
    }
    out.truncate(count);
    out
}

fn search_body(job: Job) -> String {
    let req = SearchRequest {
        n: job.0 as u32,
        mode: if job.1 { "shuffle-legal" } else { "unrestricted" }.into(),
        max_depth: None,
        threads: Some(2),
    };
    serde_json::to_string(&req).expect("request serializes")
}

struct SearchRun {
    job: Job,
    lat_ms: f64,
    /// The daemon's peak RSS once this job is answered (read after the
    /// timing).
    rss_mb: f64,
    frames: usize,
    raw: Vec<u8>,
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

/// Runs jobs back to back until `secs` have passed (at least one job),
/// checking each result.
fn search_loop(
    rep: &mut Report,
    d: &Daemon,
    jobs: &[Job],
    secs: f64,
    trace: Option<u64>,
) -> Vec<SearchRun> {
    let mut runs = Vec::new();
    let Ok(mut conn) = Conn::open(d.addr) else {
        rep.fail("cannot connect to the daemon");
        return runs;
    };
    let t0 = Instant::now();
    for (i, &job) in jobs.iter().enumerate() {
        if i > 0 && t0.elapsed().as_secs_f64() >= secs {
            break;
        }
        rep.attempted += 1;
        let tid = trace.map(|seed| format!("{seed:016x}{:016x}-{:016x}", i + 1, 1u64));
        let body = search_body(job);
        let raw = client::request_bytes(
            "POST",
            "/v1/search",
            Some(body.as_bytes()),
            false,
            tid.as_deref(),
        );
        let mut frames = 0usize;
        let mut terminal = String::new();
        let t = Instant::now();
        let r = conn.exchange(
            &raw,
            Some(&mut |line: &[u8]| {
                frames += 1;
                terminal = String::from_utf8_lossy(line).into_owned();
            }),
        );
        let lat_ms = crate::common::ms(t.elapsed());
        let r = match r {
            Ok(r) if r.status == 200 => r,
            Ok(r) => {
                rep.fail(format!("search answered {}", r.status));
                continue;
            }
            Err(e) => {
                rep.fail(format!("search stream failed: {e}"));
                break;
            }
        };
        if !terminal.contains("\"done\"") {
            rep.fail(format!("search n={} ended with {terminal}", job.0));
        }
        let id = r.header("x-snet-job").unwrap_or("").to_string();
        let get = client::request_bytes("GET", &format!("/v1/jobs/{id}"), None, false, None);
        let result = conn
            .exchange(&get, None)
            .map_err(|e| e.to_string())
            .and_then(|s| parse_json(&s.body))
            .and_then(|v| v.get("result").cloned().ok_or_else(|| "job has no result".into()))
            .and_then(|res| verify::search_result(job.0, job.1, &res));
        if let Err(e) = result {
            rep.fail(e);
        }
        let rss_mb = d.rss_peak_mb();
        runs.push(SearchRun { job, lat_ms, rss_mb, frames, raw, headers: r.headers, body: r.body });
    }
    runs
}

pub fn search(a: &Args, env: &Env, rep: &mut Report) -> Result<(), String> {
    let mut gen = Gen::new(a.seed, 3);
    let jobs = rotation(&mut gen, 4096);
    let secs = a.seconds as f64;
    let t = Instant::now();
    let d = Daemon::start(env, &DaemonOpts::default())?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];
    rep.note("closed loop: 1 client, streamed /v1/search jobs back to back, 2 search threads");

    if !a.trace {
        // Windows of jobs alternate with throwaway set-ups, so `setup_s`
        // samples the whole run.
        let cpu0 = d.cpu_ms();
        let mut runs: Vec<SearchRun> = Vec::new();
        let mut windows: Vec<Vec<f64>> = Vec::new();
        for w in 0..WINDOWS {
            let window = search_loop(rep, &d, &jobs[runs.len()..], secs / WINDOWS as f64, None);
            windows.push(window.iter().map(|r| r.lat_ms).collect());
            runs.extend(window);
            if w + 1 < WINDOWS {
                setup_s.extend(time_setups(env, false, SETUPS_PER_GAP)?);
            }
        }
        let cpu = d.cpu_ms() - cpu0;
        put_latency(rep, &windows);
        put_setup(rep, &setup_s);
        rep.put("cpu_ms_per_op", cpu / runs.len().max(1) as f64, "ms");
        // The peak grows with the number of jobs served (allocator
        // fragmentation), and that number with the host's speed; after a
        // fixed count of jobs it does not.
        let first = &runs[..runs.len().min(RSS_AFTER_JOBS)];
        rep.put("rss_peak_mb", first.last().map_or(0.0, |r| r.rss_mb), "MB");
        d.stop();
        return Ok(());
    }
    put_setup(rep, &setup_s);
    let t0 = Instant::now();
    let runs = search_loop(rep, &d, &jobs, secs * 0.3, None);
    rep.put("capacity_rps", runs.len() as f64 / t0.elapsed().as_secs_f64(), "1/s");
    let lats: Vec<f64> = runs.iter().map(|r| r.lat_ms).collect();
    put_latency(rep, &windows_of(&lats));
    d.stop();

    // Traced: the next jobs of the rotation on a daemon with its access
    // log on, then each job's search replayed in process.
    let access = env.fresh_dir("access").join("access.jsonl");
    let d = Daemon::start(env, &DaemonOpts { store: None, access_log: Some(access.clone()) })?;
    let traced = search_loop(rep, &d, &jobs[runs.len()..], secs * 0.3, Some(a.seed));
    d.stop();
    let lat_t: Vec<f64> = traced.iter().map(|r| r.lat_ms).collect();
    rep.put("snetd.telemetry.overhead_pct", (median(&lat_t) / median(&lats) - 1.0) * 100.0, "%");
    let frames: Vec<f64> = traced.iter().map(|r| r.frames as f64).collect();
    rep.put("search.frames_per_job", crate::common::mean(&frames), "count");
    let dur = crate::daemon::access_log(&access)?;
    let mut tracer = Tracer::default();
    let rp = Replayer::new(&env.fresh_dir("replay"), &env.fresh_dir("side"));
    let mut outs = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.35);
    for (i, r) in traced.iter().enumerate() {
        let tid = format!("{:016x}{:016x}", a.seed, i + 1);
        let Some(&service_us) = dur.get(&tid) else { continue };
        if Instant::now() > deadline {
            break;
        }
        let x = Exchange {
            op: i as u64 + 1,
            n: r.job.0,
            raw: &r.raw,
            status: 200,
            headers: &r.headers,
            body: &r.body,
            latency_ms: r.lat_ms,
            service_us,
        };
        let out = rp.search(&mut tracer, &x, &search_body(r.job));
        outs.push((r.job, out));
    }
    rp.finish();
    let walls = tracer.durations("search.run");
    rep.put("search.wall_ms", quantile(&walls, 0.5) / 1e3, "ms");
    let n = outs.len().max(1) as f64;
    let sum = |f: &dyn Fn(&snet_search::SearchStats) -> u64| {
        outs.iter().map(|(_, o)| f(&o.totals) as f64).sum::<f64>()
    };
    let nodes = sum(&|s| s.nodes);
    rep.put("search.nodes", nodes / n, "count");
    rep.put("search.nodes_per_s", nodes / (walls.iter().sum::<f64>() / 1e6).max(1e-9), "1/s");
    let (hits, misses) = (sum(&|s| s.tt_hits), sum(&|s| s.tt_misses));
    rep.put("search.tt_hit_ratio", hits / (hits + misses).max(1.0), "ratio");
    rep.put("search.tt_evicts", sum(&|s| s.tt_evicts) / n, "count");
    rep.put("search.subsumed_per_node", sum(&|s| s.subsumed) / nodes.max(1.0), "ratio");
    rep.put("search.oracle_cuts", sum(&|s| s.oracle_cuts) / n, "count");
    rep.put("search.steals", sum(&|s| s.steals) / n, "count");
    rep.put("search.tasks_aborted", sum(&|s| s.tasks_aborted) / n, "count");
    for (job, o) in &outs {
        let depth = o.optimal_depth.map(|d| d as u64);
        if let Err(e) = verify::search_answer(job.0, job.1, depth, o.network.as_ref()) {
            rep.fail(format!("in-process search: {e}"));
        }
    }
    tracer.summarize(rep);
    write_spans(env, a, &tracer, rep);
    Ok(())
}

// ---------------------------------------------------------------------------
// cli
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum CliKind {
    Hit,
    Miss,
    Refute,
}

impl CliKind {
    fn name(self) -> &'static str {
        match self {
            CliKind::Hit => "check_hit",
            CliKind::Miss => "check_miss",
            CliKind::Refute => "refute",
        }
    }
}

struct CliRun {
    kind: CliKind,
    form: usize,
    wall_ms: f64,
    cpu_ms: f64,
    maxrss_kb: f64,
}

struct Cli<'e> {
    env: &'e Env,
    store: PathBuf,
    inputs: PathBuf,
    forms: Vec<Form>,
    gen: Gen,
    /// The forms each set-up stores.
    warm_forms: Vec<usize>,
    /// Verdict bytes of the warm forms, from the latest set-up.
    warm: Vec<(usize, Vec<u8>)>,
    next: usize,
}

impl Cli<'_> {
    fn file(&self, i: usize) -> PathBuf {
        self.inputs.join(format!("net-{i}.json"))
    }

    fn add(&mut self, form: Form) -> usize {
        self.forms.push(form);
        let i = self.forms.len() - 1;
        std::fs::write(self.file(i), self.forms[i].file_doc()).expect("input file writes");
        i
    }

    /// Runs one `snetctl` command on form `i` and checks its output.
    fn exec(
        &self,
        rep: &mut Report,
        kind: CliKind,
        i: usize,
        trace_out: Option<&Path>,
    ) -> Option<CliRun> {
        let out = self.inputs.join(format!("out-{i}.json"));
        let _ = std::fs::remove_file(&out);
        let mut cmd = Command::new(&self.env.snetctl);
        match kind {
            CliKind::Refute => cmd.arg("refute").arg(self.file(i)).arg("-o").arg(&out),
            _ => cmd
                .arg("check")
                .arg(self.file(i))
                .arg("--exhaustive")
                .arg("--threads")
                .arg("1")
                .arg("--verdict-out")
                .arg(&out),
        };
        cmd.arg("--store").arg(&self.store);
        if let Some(t) = trace_out {
            cmd.arg("--trace-out").arg(t);
        }
        cmd.current_dir(&self.env.wd)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        rep.attempted += 1;
        let t = Instant::now();
        let mut child = match cmd.spawn() {
            Ok(c) => c,
            Err(e) => {
                rep.fail(format!("cannot spawn snetctl: {e}"));
                return None;
            }
        };
        let mut stdout = String::new();
        if let Some(mut s) = child.stdout.take() {
            let _ = std::io::Read::read_to_string(&mut s, &mut stdout);
        }
        let usage = match wait_with_usage(child) {
            Ok(u) => u,
            Err(e) => {
                rep.fail(format!("wait for snetctl: {e}"));
                return None;
            }
        };
        let wall_ms = crate::common::ms(t.elapsed());
        let form = &self.forms[i];
        let want_code = if form.expect == Expect::Fails { 3 } else { 0 };
        let checked = (|| -> Result<(), String> {
            if usage.code != want_code {
                return Err(format!(
                    "snetctl {} exited {} (want {want_code})",
                    kind.name(),
                    usage.code
                ));
            }
            let bytes = std::fs::read(&out).map_err(|e| format!("no output file: {e}"))?;
            match kind {
                CliKind::Refute => {
                    let v = parse_json(&bytes)?;
                    let r = verify::refutation(&v, "wire_a", "wire_b")?;
                    r.verify(&form.net).map_err(|e| format!("witness rejected: {e}"))?;
                }
                CliKind::Hit => {
                    let warm = self.warm.iter().find(|(f, _)| *f == i).map(|w| &w.1);
                    if !stdout.contains("store: hit") || warm != Some(&bytes) {
                        return Err("warm check was not a byte-identical store hit".into());
                    }
                }
                CliKind::Miss => {
                    if !stdout.contains("store: miss") {
                        return Err("cold check did not miss the store".into());
                    }
                    verify::verdict(form, &bytes)?;
                }
            }
            Ok(())
        })();
        if let Err(e) = checked {
            rep.fail(e);
            return None;
        }
        Some(CliRun { kind, form: i, wall_ms, cpu_ms: usage.cpu_ms, maxrss_kb: usage.maxrss_kb })
    }

    /// The next operation of the rotation: blocks of ten in seeded
    /// order, five warm checks, two cold sorters, one cold non-sorter
    /// and two refutes; cold sizes cycle (n = 10..=16, shuffle networks
    /// n = 64..=256) so every run has the same mix.
    fn next_op(&mut self) -> (CliKind, usize) {
        let (block, slot) = (self.next / 10, self.next % 10);
        self.next += 1;
        match slot {
            0..=4 => {
                let w = self.gen.index(self.warm.len());
                (CliKind::Hit, self.warm[w].0)
            }
            5 | 6 => {
                let f = self.gen.sorter(10 + (2 * block + slot - 5) % 7);
                (CliKind::Miss, self.add(f))
            }
            7 => {
                let f = self.gen.non_sorter(10 + block % 7);
                (CliKind::Miss, self.add(f))
            }
            _ => {
                let f = self.gen.shuffle(64 << ((2 * block + slot - 8) % 3));
                (CliKind::Refute, self.add(f))
            }
        }
    }

    /// A fresh store filled by one cold check per warm form. Returns
    /// its time.
    fn set_up(&mut self, rep: &mut Report) -> Result<f64, String> {
        self.store = self.env.fresh_dir("store");
        self.warm.clear();
        let t = Instant::now();
        for i in self.warm_forms.clone() {
            if self.exec(rep, CliKind::Miss, i, None).is_some() {
                let out = self.inputs.join(format!("out-{i}.json"));
                self.warm.push((i, std::fs::read(out).unwrap_or_default()));
            }
        }
        let secs = t.elapsed().as_secs_f64();
        if self.warm.is_empty() {
            return Err("no warm form could be prepared".into());
        }
        Ok(secs)
    }

    fn run_loop(&mut self, rep: &mut Report, secs: f64, traced: bool) -> Vec<CliRun> {
        let mut runs = Vec::new();
        let t0 = Instant::now();
        let mut ops: Vec<(CliKind, usize)> = Vec::new();
        while runs.is_empty() || t0.elapsed().as_secs_f64() < secs {
            if ops.is_empty() {
                ops = (0..10).map(|_| self.next_op()).collect();
                self.gen.shuffle_vec(&mut ops);
            }
            let (kind, i) = ops.remove(0);
            let trace = traced.then(|| self.inputs.join(format!("trace-{i}-{}.jsonl", runs.len())));
            if let Some(r) = self.exec(rep, kind, i, trace.as_deref()) {
                runs.push(r);
            } else if runs.is_empty() && t0.elapsed().as_secs_f64() > secs {
                break;
            }
        }
        runs
    }
}

pub fn cli(a: &Args, env: &Env, rep: &mut Report) -> Result<(), String> {
    let secs = a.seconds as f64;
    let mut c = Cli {
        env,
        store: PathBuf::new(),
        inputs: env.fresh_dir("inputs"),
        forms: Vec::new(),
        gen: Gen::new(a.seed, 4),
        warm: Vec::new(),
        warm_forms: Vec::new(),
        next: 0,
    };
    c.warm_forms = (0..12)
        .map(|k| {
            let f = c.gen.sorter(8 + k % 6);
            c.add(f)
        })
        .collect();
    rep.note("closed loop: 1 client, sequential snetctl processes on a prepared store");

    // Each window sets up a fresh store of its own, then runs the
    // rotation on it.
    let mut setup_s = Vec::new();
    let mut runs: Vec<CliRun> = Vec::new();
    let mut windows: Vec<Vec<f64>> = Vec::new();
    let mut window_p50s = Vec::new();
    let mut busy_s = 0.0;
    for _ in 0..if a.trace { 1 } else { WINDOWS } {
        setup_s.push(c.set_up(rep)?);
        let t0 = Instant::now();
        let window = if a.trace {
            c.run_loop(rep, secs * 0.3, false)
        } else {
            c.run_loop(rep, secs / WINDOWS as f64, false)
        };
        busy_s += t0.elapsed().as_secs_f64();
        windows.push(window.iter().map(|r| r.wall_ms).collect());
        window_p50s.push(kind_median(&window));
        runs.extend(window);
    }
    put_setup(rep, &setup_s);
    let lats: Vec<f64> = runs.iter().map(|r| r.wall_ms).collect();
    put_latency(rep, &if a.trace { windows_of(&lats) } else { windows });
    rep.put("lat_p50_ms", median(&window_p50s), "ms");
    rep.note(
        "cli lat_p50_ms: per window, the median of the per-kind medians (check_hit, \
         check_miss, refute); then the median over the windows",
    );
    if !a.trace {
        let cpu: Vec<f64> = runs.iter().map(|r| r.cpu_ms).collect();
        rep.put("cpu_ms_per_op", crate::common::mean(&cpu), "ms");
        let rss = runs.iter().map(|r| r.maxrss_kb).fold(0.0, f64::max);
        rep.put("rss_peak_mb", rss / 1024.0, "MB");
        return Ok(());
    }
    rep.put("capacity_rps", runs.len() as f64 / busy_s, "1/s");
    for kind in [CliKind::Hit, CliKind::Miss, CliKind::Refute] {
        let v: Vec<f64> = runs.iter().filter(|r| r.kind == kind).map(|r| r.wall_ms).collect();
        rep.put(format!("cli.{}_ms", kind.name()), median(&v), "ms");
    }
    // The process floor: `snetctl info` on a small file.
    let mut floor = Vec::new();
    for _ in 0..15 {
        let t = Instant::now();
        let ok = Command::new(&env.snetctl)
            .arg("info")
            .arg(c.file(c.warm_forms[0]))
            .current_dir(&env.wd)
            .stdout(Stdio::null())
            .status()
            .is_ok_and(|s| s.success());
        if ok {
            floor.push(crate::common::ms(t.elapsed()));
        }
    }
    let floor_ms = median(&floor);
    rep.put("cli.process_floor_ms", floor_ms, "ms");

    // Traced: the same rotation with --trace-out, then each command's
    // layers replayed in process.
    let traced = c.run_loop(rep, secs * 0.3, true);
    let lat_t: Vec<f64> = traced.iter().map(|r| r.wall_ms).collect();
    rep.put("snetd.telemetry.overhead_pct", (median(&lat_t) / median(&lats) - 1.0) * 100.0, "%");
    let hits = traced.iter().filter(|r| r.kind == CliKind::Hit).count();
    let checks = traced.iter().filter(|r| r.kind != CliKind::Refute).count();
    rep.put("store.hit_ratio", hits as f64 / checks.max(1) as f64, "ratio");
    if let Ok(st) = ArtifactStore::open(&c.store).and_then(|s| s.stat()) {
        rep.put("store.bytes_per_entry", st.bytes as f64 / st.entries.max(1) as f64, "B");
    }
    let mut tracer = Tracer::default();
    let rp = Replayer::new(&env.fresh_dir("replay"), &env.fresh_dir("side"));
    let store = ArtifactStore::open(&c.store).map_err(|e| e.to_string())?;
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.3);
    for (k, r) in traced.iter().enumerate() {
        if Instant::now() > deadline {
            break;
        }
        replay_cli(&mut tracer, &rp, &store, k as u64 + 1, r, &c.forms[r.form], floor_ms);
    }
    rp.finish();
    tracer.summarize(rep);
    write_spans(env, a, &tracer, rep);
    Ok(())
}

/// The median of the per-kind medians of `runs`. The median of the mix
/// itself sits on the boundary between two kinds, where a small shift
/// of either moves it far.
fn kind_median(runs: &[CliRun]) -> f64 {
    let per_kind: Vec<f64> = [CliKind::Hit, CliKind::Miss, CliKind::Refute]
        .into_iter()
        .map(|k| runs.iter().filter(|r| r.kind == k).map(|r| r.wall_ms).collect::<Vec<_>>())
        .filter(|v| !v.is_empty())
        .map(|v| median(&v))
        .collect();
    median(&per_kind)
}

/// One CLI command's layers: the process floor, then the pipeline
/// `snetctl check --exhaustive --store` or `refute --store` runs.
fn replay_cli(
    t: &mut Tracer,
    rp: &Replayer,
    store: &ArtifactStore,
    op: u64,
    r: &CliRun,
    form: &Form,
    floor_ms: f64,
) {
    let root = t.root(op, r.kind.name(), form.n(), r.wall_ms * 1e3);
    t.span(op, root, "cli.process_floor", floor_ms * 1e3);
    match r.kind {
        CliKind::Hit | CliKind::Miss => {
            let (exec, d) = timed(|| Executor::compile(&form.net));
            t.span(op, root, "core.ir.compile", us(d));
            let (hash, d) = timed(|| CanonicalHash::of_program(exec.program()));
            t.span(op, root, "core.ir.canon_hash", us(d));
            if r.kind == CliKind::Hit {
                let (_, d) = timed(|| store.get_verdict(&hash));
                t.span(op, root, "store.get_hit", us(d));
            } else {
                let (_, d) = timed(|| rp.side().get_verdict(&hash));
                t.span(op, root, "store.get_miss", us(d));
                let (check, d) = timed(|| exec.check_zero_one(1));
                t.span(op, root, "core.ir.exec.check", us(d));
                // A fresh process stamps its first verdict with a
                // manifest capture of its own.
                let (_, d) = timed(|| RunManifest::capture("snetctl"));
                t.span(op, root, "obs.manifest.capture", us(d));
                let verdict = crate::layers::verdict_of(hash, form.n(), check);
                let (_, d) = timed(|| verdict.to_json());
                t.span(op, root, "core.verdict.to_json", us(d));
                let (_, d) = timed(|| rp.side().put_verdict(&verdict).expect("side store writes"));
                t.span(op, root, "store.put", us(d));
            }
            // With a store, the check emits a manifest of its own.
            let (_, d) = timed(|| RunManifest::capture("snetctl-check"));
            t.span(op, root, "obs.manifest.capture", us(d));
        }
        CliKind::Refute => {
            let stages = form.stages.as_ref().expect("refute forms are shuffle networks");
            let ((ird, net), d) = timed(|| {
                let ird = snet_topology::ShuffleNetwork::new(form.n(), stages.clone())
                    .to_iterated_reverse_delta();
                let net = ird.to_network();
                (ird, net)
            });
            t.span(op, root, "adversary.to_ird", us(d));
            let (hash, d) = timed(|| CanonicalHash::of_network(&net));
            t.span(op, root, "core.ir.canon_hash", us(d));
            let (_, d) = timed(|| rp.side().get_verdict(&hash));
            t.span(op, root, "store.get_miss", us(d));
            let (_, d) = timed(|| RunManifest::capture("snetctl"));
            t.span(op, root, "obs.manifest.capture", us(d));
            rp.refute_spans(t, op, root, &ird, &net, false);
        }
    }
}
