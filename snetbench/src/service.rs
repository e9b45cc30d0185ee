//! The open-loop `snetd` workload, `misses`: never-seen forms, each on
//! a fresh connection: brick-wall sorters with a redundant suffix
//! (n = 10..=22), non-sorters, shallow shuffle networks for the
//! adversary (n = 64..=1024), and duplicate pairs sent on both
//! connections at the same instant.

use crate::client::{self, Conn};
use crate::common::{median, parse_json, put_latency, put_setup, Report, WINDOWS};
use crate::daemon::{time_setups, Daemon, DaemonOpts, Env, SETUPS_PER_GAP};
use crate::inputs::{Expect, Form, Gen};
use crate::layers::{Exchange, Replayer};
use crate::openloop::{self, Ladder, Outcome, Planned};
use crate::trace::Tracer;
use crate::verify;
use crate::Args;
use rand::Rng;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Requests per second at which latency and CPU are reported. At most
/// two requests are in flight (one per sender), and a cold n = 22 check
/// takes about 100 ms; at 20 req/s the senders ran close enough to busy
/// that a slower host stretched the queue behind them and doubled the
/// median. At 10 req/s they are busy well under half the time.
const NOMINAL_RPS: f64 = 10.0;

/// The capacity ladder (recorded in `snetbench/README.md`).
const LADDER: Ladder = Ladder { base: 5.0, step: 1.1, rung_s: 1.5, limit_ms: 400.0 };

/// One request of a plan: which form, and whether it is the second of
/// a duplicate pair.
#[derive(Clone, Copy)]
struct Req {
    form: usize,
    dup: bool,
}

/// Builds the planned requests for `reqs` at `rate`; the second request
/// of a duplicate pair is due at the same instant as the first. Each
/// due time is put off by a seeded share of half a slot, so arrivals do
/// not keep one phase against the daemon's 25 ms accept poll: every
/// request, not every run, draws its own wait for the accept.
fn plan(
    forms: &[Form],
    reqs: &[Req],
    rate: f64,
    jitter: &mut Gen,
    trace: Option<&dyn Fn(usize) -> String>,
) -> Vec<Planned> {
    let step = Duration::from_secs_f64(1.0 / rate); // zero for an infinite rate
    let mut slot = Duration::ZERO;
    let mut due = Duration::ZERO;
    reqs.iter()
        .enumerate()
        .map(|(i, r)| {
            if !r.dup {
                if i > 0 {
                    slot += step;
                }
                due = slot + step.mul_f64(0.5 * jitter.rng.gen::<f64>());
            }
            let f = &forms[r.form];
            let t = trace.map(|t| t(i));
            Planned {
                due,
                raw: client::request_bytes("POST", f.path(), Some(&f.body), true, t.as_deref()),
            }
        })
        .collect()
}

/// The seeded request stream: every request a new canonical form.
/// Blocks of 19 requests hold fixed counts of each kind (11 sorters, 3
/// non-sorters, 3 shuffle networks, one duplicate pair) in seeded order,
/// and each kind cycles through its sizes (sorters and non-sorters
/// n = 10..=22, shuffle networks n = 64..=1024, pairs n = 12..=18), so
/// every run sends the same mix.
struct MissSource {
    gen: Gen,
    /// Draws so far of each kind.
    drawn: [usize; 4],
    pending: Vec<Req>,
}

impl MissSource {
    fn new(seed: u64) -> MissSource {
        MissSource { gen: Gen::new(seed, 2), drawn: [0; 4], pending: Vec::new() }
    }

    fn block(&mut self, forms: &mut Vec<Form>) {
        let mut kinds = vec![0usize; 11];
        kinds.extend([1, 1, 1, 2, 2, 2, 3]);
        self.gen.shuffle_vec(&mut kinds);
        for k in kinds {
            let i = self.drawn[k];
            self.drawn[k] += 1;
            let form = match k {
                0 => self.gen.sorter(10 + i % 13),
                1 => self.gen.non_sorter(10 + (i * 5) % 13),
                2 => self.gen.shuffle(64 << (i % 5)),
                _ => self.gen.sorter(12 + i % 7),
            };
            forms.push(form);
            self.pending.push(Req { form: forms.len() - 1, dup: false });
            if k == 3 {
                self.pending.push(Req { form: forms.len() - 1, dup: true });
            }
        }
    }

    /// The next `count` requests (new forms are appended to `forms`).
    fn draw(&mut self, forms: &mut Vec<Form>, count: usize) -> Vec<Req> {
        while self.pending.len() < count {
            self.block(forms);
        }
        // Never split a duplicate pair across two draws.
        let mut take = count;
        if self.pending.get(take).is_some_and(|r| r.dup) {
            take += 1;
        }
        self.pending.drain(..take).collect()
    }
}

/// Answer checks for one phase. `refs` holds the bytes first served
/// for each form; every later answer must repeat them exactly.
struct Checker {
    refs: HashMap<usize, Vec<u8>>,
    /// Job ids of leading check misses (for the compile-once check).
    miss_jobs: Vec<String>,
    pairs: usize,
    coalesced: usize,
}

impl Checker {
    fn new() -> Checker {
        Checker { refs: HashMap::new(), miss_jobs: Vec::new(), pairs: 0, coalesced: 0 }
    }

    fn check(&mut self, rep: &mut Report, forms: &[Form], reqs: &[Req], outs: &[Outcome]) {
        for (i, (r, o)) in reqs.iter().zip(outs).enumerate() {
            rep.attempted += 1;
            let form = &forms[r.form];
            if let Some(e) = &o.error {
                rep.fail(format!("request to {} failed: {e}", form.path()));
                continue;
            }
            if o.status != 200 {
                rep.fail(format!("{} answered {}", form.path(), o.status));
                continue;
            }
            if let Some(prev) = self.refs.get(&r.form) {
                if *prev != o.body {
                    rep.fail(format!("answers for one form differ (cache {})", o.cache));
                }
            } else {
                if let Err(e) = verify::verdict(form, &o.body) {
                    rep.fail(e);
                    continue;
                }
                self.refs.insert(r.form, o.body.clone());
            }
            let paired = r.dup || reqs.get(i + 1).is_some_and(|n| n.dup);
            if paired {
                if r.dup {
                    self.pairs += 1;
                    let first = &outs[i - 1].cache;
                    let caches = [first.as_str(), o.cache.as_str()];
                    if !caches.contains(&"miss") {
                        rep.fail(format!("duplicate pair answered {caches:?}, no miss"));
                    }
                    if caches.contains(&"coalesced") {
                        self.coalesced += 1;
                    }
                }
            } else if o.cache != "miss" {
                rep.fail(format!("{} answered cache={} (want miss)", form.path(), o.cache));
            }
            if o.cache == "miss" && form.stages.is_none() && !o.job.is_empty() {
                self.miss_jobs.push(o.job.clone());
            }
        }
    }
}

/// Fetches the result document of each job and checks that its form
/// compiled exactly once. Returns `(checked, total compile spans)`.
fn compiles_per_form(rep: &mut Report, d: &Daemon, jobs: &[String]) -> (usize, u64) {
    let mut conn = match Conn::open(d.addr) {
        Ok(c) => c,
        Err(e) => {
            rep.fail(format!("cannot reach daemon for job results: {e}"));
            return (0, 0);
        }
    };
    let mut total = 0;
    for id in jobs {
        let raw = client::request_bytes("GET", &format!("/v1/jobs/{id}"), None, false, None);
        let spans = conn
            .exchange(&raw, None)
            .ok()
            .and_then(|r| parse_json(&r.body).ok())
            .and_then(|v| v.get("result")?.get("compile_spans")?.as_u64());
        rep.attempted += 1;
        match spans {
            Some(1) => total += 1,
            other => rep.fail(format!("job {id} compiled {other:?} times, want exactly once")),
        }
    }
    (jobs.len(), total)
}

/// Re-sends a sample of already answered forms on a keep-alive
/// connection: each must now be a store hit with the same bytes.
fn replay_hits(rep: &mut Report, d: &Daemon, forms: &[Form], chk: &Checker) {
    let Ok(mut conn) = Conn::open(d.addr) else {
        rep.fail("cannot reconnect for the hit replay");
        return;
    };
    let mut keys: Vec<&usize> = chk.refs.keys().collect();
    keys.sort();
    for &i in keys.iter().step_by(8).take(16) {
        let f = &forms[*i];
        let raw = client::request_bytes("POST", f.path(), Some(&f.body), false, None);
        rep.attempted += 1;
        match conn.exchange(&raw, None) {
            Ok(r) if r.header("x-snet-cache") == Some("hit") && r.body == chk.refs[i] => {}
            Ok(r) => rep.fail(format!(
                "replayed form answered cache={:?}, bytes identical: {}",
                r.header("x-snet-cache"),
                r.body == chk.refs[i]
            )),
            Err(e) => rep.fail(format!("hit replay failed: {e}")),
        }
    }
}

pub fn run(a: &Args, env: &Env, rep: &mut Report) -> Result<(), String> {
    let mut forms: Vec<Form> = Vec::new();
    let mut source = MissSource::new(a.seed);
    let mut jitter = Gen::new(a.seed, 6);
    let mut chk = Checker::new();
    let secs = a.seconds as f64;

    // The measured daemon's own set-up is the first sample.
    let t = Instant::now();
    let opts = DaemonOpts { store: Some(env.fresh_dir("store")), access_log: None };
    let d = Daemon::start(env, &opts)?;
    let mut setup_s = vec![t.elapsed().as_secs_f64()];

    let lag_check = |rep: &mut Report, outs: &[Outcome]| {
        let (lag, valid) = openloop::lag_verdict(outs, NOMINAL_RPS);
        rep.note(format!(
            "open loop at {NOMINAL_RPS} req/s on fresh connections ({} senders); \
             gen.lag_p99_ms {lag:.3} ms; run {}",
            openloop::SENDERS,
            if valid { "valid" } else { "INVALID" }
        ));
        if !valid {
            rep.invalid = Some(format!(
                "the generator fell behind its schedule: lag p99 {lag:.3} ms is over half \
                 a slot at {NOMINAL_RPS} req/s"
            ));
        }
    };
    if !a.trace {
        // Windows at the nominal rate alternate with set-ups, so a burst
        // of noise from outside lands in a part of each, not in all of
        // one. The capacity search runs in the traced run: at saturation
        // it leaves the host busy (store writes to flush) for the windows
        // after it.
        let per_window = (NOMINAL_RPS * secs / WINDOWS as f64).round() as usize;
        let mut outcomes: Vec<Outcome> = Vec::new();
        let mut windows: Vec<Vec<f64>> = Vec::new();
        let mut cpu = 0.0;
        for w in 0..WINDOWS {
            let reqs = source.draw(&mut forms, per_window);
            let p = plan(&forms, &reqs, NOMINAL_RPS, &mut jitter, None);
            let cpu0 = d.cpu_ms();
            let outs = openloop::run(d.addr, &p);
            cpu += d.cpu_ms() - cpu0;
            chk.check(rep, &forms, &reqs, &outs);
            windows.push(outs.iter().map(|o| o.lat_ms).collect());
            outcomes.extend(outs);
            if w + 1 < WINDOWS {
                setup_s.extend(time_setups(env, true, SETUPS_PER_GAP)?);
            }
        }
        put_latency(rep, &windows);
        lag_check(rep, &outcomes);
        rep.put("cpu_ms_per_op", cpu / outcomes.len().max(1) as f64, "ms");
        rep.put("rss_peak_mb", d.rss_peak_mb(), "MB");
        put_setup(rep, &setup_s);
        compiles_per_form(rep, &d, &chk.miss_jobs);
        replay_hits(rep, &d, &forms, &chk);
        d.stop();
        return Ok(());
    }
    put_setup(rep, &setup_s);

    // Traced run: first the stream untraced, for the telemetry overhead,
    // then a capacity search. The traced requests are drawn before it,
    // since how many it draws depends on timing.
    let reqs = source.draw(&mut forms, (NOMINAL_RPS * secs * 0.3).round() as usize);
    let traced_reqs = source.draw(&mut forms, (NOMINAL_RPS * secs * 0.3).round() as usize);
    let p = plan(&forms, &reqs, NOMINAL_RPS, &mut jitter, None);
    let outs = openloop::run(d.addr, &p);
    chk.check(rep, &forms, &reqs, &outs);
    let p50_untraced = put_latency(rep, &[outs.iter().map(|o| o.lat_ms).collect()]);
    lag_check(rep, &outs);
    let mut cap_jitter = Gen::new(a.seed, 7);
    let (cap, saturation, rungs) = openloop::capacity(&LADDER, |rate, count| {
        let reqs = source.draw(&mut forms, count);
        let p = plan(&forms, &reqs, rate, &mut cap_jitter, None);
        let outs = openloop::run(d.addr, &p);
        chk.check(rep, &forms, &reqs, &outs);
        outs
    });
    let tried: Vec<String> = rungs
        .iter()
        .map(|r| {
            format!("{:.1}:{:.1}ms:{}", r.rate, r.p99_ms, if r.passed { "pass" } else { "fail" })
        })
        .collect();
    rep.note(format!(
        "capacity search: saturation {saturation:.1} req/s, rungs (req/s:p99:verdict) {}; \
         capacity_rps is the highest rung of {} x {}^k req/s with p99 <= {} ms and no backlog",
        tried.join(" "),
        LADDER.base,
        LADDER.step,
        LADDER.limit_ms
    ));
    rep.put("capacity_rps", cap, "1/s");

    // Then the next requests of the stream on a daemon with the access
    // log on and a trace id on every request.
    compiles_per_form(rep, &d, &chk.miss_jobs);
    d.stop();
    let access = env.fresh_dir("access").join("access.jsonl");
    let store_t = env.fresh_dir("store");
    let opts = DaemonOpts { store: Some(store_t.clone()), access_log: Some(access.clone()) };
    let d = Daemon::start(env, &opts)?;
    let mut chk = Checker::new();
    let reqs = traced_reqs;
    let seed = a.seed;
    let trace_id = move |i: usize| format!("{:016x}{:016x}-{:016x}", seed, i + 1, 1u64);
    let p = plan(&forms, &reqs, NOMINAL_RPS, &mut jitter, Some(&trace_id));
    const COUNTERS: [&str; 3] =
        ["snet_httpd_connections_total", "snet_store_hits_total", "snet_store_misses_total"];
    let before = d.metrics(&COUNTERS);
    let outs = openloop::run(d.addr, &p);
    let after = d.metrics(&COUNTERS);
    // The second scrape's own connection is counted too.
    let conns = after[0] - before[0] - 1.0;
    let (store_hits, store_misses) = (after[1] - before[1], after[2] - before[2]);
    chk.check(rep, &forms, &reqs, &outs);
    let (checked, compiles) = compiles_per_form(rep, &d, &chk.miss_jobs);
    d.stop();

    let ops = outs.len().max(1) as f64;
    let lats: Vec<f64> = outs.iter().map(|o| o.lat_ms).collect();
    let p50_traced = median(&lats);
    rep.put("snetd.telemetry.overhead_pct", (p50_traced / p50_untraced - 1.0) * 100.0, "%");
    rep.put("gen.lag_p99_ms", openloop::lag_verdict(&outs, NOMINAL_RPS).0, "ms");
    rep.put("snetd.server.connections_per_op", conns / ops, "count");
    rep.put("store.hit_ratio", store_hits / (store_hits + store_misses).max(1.0), "ratio");
    if chk.pairs > 0 {
        rep.put("snetd.jobs.coalesced_ratio", chk.coalesced as f64 / chk.pairs as f64, "ratio");
    }
    if checked > 0 {
        rep.put("snetd.jobs.compiles_per_form", compiles as f64 / checked as f64, "ratio");
    }
    if let Ok(st) = snet_store::ArtifactStore::open(&store_t).and_then(|s| s.stat()) {
        rep.put("store.bytes_per_entry", st.bytes as f64 / st.entries.max(1) as f64, "B");
    }

    let dur = crate::daemon::access_log(&access)?;

    // In-process replay of the traced stream, within the time left.
    let mut tracer = Tracer::default();
    let rp = Replayer::new(&env.fresh_dir("replay"), &env.fresh_dir("side"));
    let deadline = Instant::now() + Duration::from_secs_f64(secs * 0.4);
    for (i, (r, o)) in reqs.iter().zip(&outs).enumerate() {
        if Instant::now() > deadline {
            break;
        }
        let Some(&service_us) = dur.get(&trace_id(i)[..32]) else { continue };
        let headers = response_headers(o);
        let form = &forms[r.form];
        let x = Exchange {
            op: i as u64 + 1,
            n: form.n(),
            raw: &p[i].raw,
            status: o.status,
            headers: &headers,
            body: &o.body,
            latency_ms: o.lat_ms,
            service_us,
        };
        if form.expect == Expect::Witness {
            rp.adversary(&mut tracer, &x, form);
        } else {
            rp.check(&mut tracer, &x, form);
        }
    }
    rp.finish();
    rep.put(
        "snetd.jobs.check_hit_us",
        median(&tracer.durations_in("snetd.jobs", "check_hit")),
        "us",
    );
    rep.put(
        "snetd.jobs.check_miss_us",
        median(&tracer.durations_in("snetd.jobs", "check_miss")),
        "us",
    );
    tracer.summarize(rep);
    write_spans(env, a, &tracer, rep);
    Ok(())
}

/// The headers the daemon sent, as `write_response` takes them.
fn response_headers(o: &Outcome) -> Vec<(String, String)> {
    let mut h = vec![("content-type".to_string(), "application/json".to_string())];
    if !o.cache.is_empty() {
        h.push(("x-snet-cache".into(), o.cache.clone()));
    }
    if !o.job.is_empty() {
        h.push(("x-snet-job".into(), o.job.clone()));
    }
    h
}

pub fn write_spans(env: &Env, a: &Args, t: &Tracer, rep: &mut Report) {
    let dir = env.root.join(".bench_work/spans");
    let _ = std::fs::create_dir_all(&dir);
    let path = dir.join(format!("{}-seed{}.jsonl", a.workload, a.seed));
    match t.write_jsonl(&path) {
        Ok(()) => rep.note(format!("spans written to {}", path.display())),
        Err(e) => rep.note(format!("could not write spans: {e}")),
    }
}
