//! The open-loop generator: requests are due on a fixed schedule,
//! whether or not earlier ones have been answered, and are timed from
//! when they were due. Two sender threads take the next due request in
//! order; each request opens a connection of its own (`connection:
//! close`, as `snetctl query` sends them).

use crate::client;
use crate::common::{ms, quantile};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

pub const SENDERS: usize = 2;

/// One scheduled request.
pub struct Planned {
    /// Offset of its due time from the start of the run.
    pub due: Duration,
    /// The bytes to send.
    pub raw: Vec<u8>,
}

/// What happened to one request.
#[derive(Default, Clone)]
pub struct Outcome {
    /// Due time to last response byte.
    pub lat_ms: f64,
    /// How late the generator sent a request it was free to send on
    /// time (timer overshoot; backlog behind busy senders is latency,
    /// not lag).
    pub lag_ms: f64,
    /// Offset of the last response byte from the start of the run.
    pub done_s: f64,
    pub status: u16,
    pub cache: String,
    pub job: String,
    pub body: Vec<u8>,
    pub error: Option<String>,
}

/// Sends `plan` open loop and returns one outcome per request, in plan
/// order.
pub fn run(addr: SocketAddr, plan: &[Planned]) -> Vec<Outcome> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Outcome>> = Mutex::new(vec![Outcome::default(); plan.len()]);
    let start: OnceLock<Instant> = OnceLock::new();
    std::thread::scope(|s| {
        for _ in 0..SENDERS {
            s.spawn(|| {
                let start = *start.get_or_init(|| Instant::now() + Duration::from_millis(2));
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = plan.get(i) else { break };
                    let due = start + p.due;
                    let picked = Instant::now();
                    if picked < due {
                        std::thread::sleep(due - picked);
                    }
                    let sent = Instant::now();
                    let lag = if picked < due {
                        sent.saturating_duration_since(due)
                    } else {
                        Duration::ZERO
                    };
                    let result = client::one_shot(addr, &p.raw);
                    let done = Instant::now();
                    let mut o = Outcome {
                        lat_ms: ms(done.saturating_duration_since(due)),
                        lag_ms: ms(lag),
                        done_s: done.saturating_duration_since(start).as_secs_f64(),
                        ..Outcome::default()
                    };
                    match result {
                        Ok(r) => {
                            o.status = r.status;
                            o.cache = r.header("x-snet-cache").unwrap_or("").to_string();
                            o.job = r.header("x-snet-job").unwrap_or("").to_string();
                            o.body = r.body;
                        }
                        Err(e) => o.error = Some(e.to_string()),
                    }
                    out.lock().expect("outcome table")[i] = o;
                }
            });
        }
    });
    out.into_inner().expect("outcome table")
}

/// One rung of the capacity ladder.
pub struct Rung {
    pub rate: f64,
    pub p99_ms: f64,
    pub passed: bool,
}

/// A workload's fixed rate ladder, `base × step^k` requests per second,
/// and what a rung must meet.
pub struct Ladder {
    pub base: f64,
    pub step: f64,
    /// Duration of one rung.
    pub rung_s: f64,
    /// p99 limit; the backlog must also drain within it.
    pub limit_ms: f64,
}

/// One capacity search: the highest rung of `ladder` whose p99 stays
/// within the limit with no growing backlog. Saturation throughput is
/// measured first (both senders back to back for about two seconds); no
/// rate above it can be sustained, so the walk starts at the highest
/// rung not above it and steps down until a rung passes (the lowest
/// rung if none does). `send(rate, count)` sends `count` requests
/// evenly spaced at `rate` (all at once for an infinite rate) and
/// returns their outcomes. Returns the capacity, the saturation
/// throughput, and the rungs tried.
pub fn capacity(
    ladder: &Ladder,
    mut send: impl FnMut(f64, usize) -> Vec<Outcome>,
) -> (f64, f64, Vec<Rung>) {
    let throughput =
        |outs: &[Outcome]| outs.len() as f64 / outs.iter().map(|o| o.done_s).fold(1e-9, f64::max);
    let probe = throughput(&send(f64::INFINITY, 20));
    let saturation = throughput(&send(f64::INFINITY, (2.0 * probe).ceil().max(20.0) as usize));
    let mut k = ((saturation / ladder.base).ln() / ladder.step.ln()).floor().max(0.0) as i32;
    let mut rungs: Vec<Rung> = Vec::new();
    while k >= 0 {
        let rate = ladder.base * ladder.step.powi(k);
        let count = (rate * ladder.rung_s).round().max(1.0) as usize;
        let last_due_s = (count - 1) as f64 / rate;
        let outs = send(rate, count);
        let lats: Vec<f64> = outs.iter().map(|o| o.lat_ms).collect();
        let p99 = quantile(&lats, 0.99);
        let all_ok = outs.iter().all(|o| o.error.is_none() && o.status == 200);
        let finished = outs.iter().map(|o| o.done_s).fold(0.0, f64::max);
        // A growing backlog shows as work finishing well after the last
        // request was due.
        let drained = finished - last_due_s <= ladder.limit_ms / 1e3;
        let passed = all_ok && p99 <= ladder.limit_ms && drained;
        rungs.push(Rung { rate, p99_ms: p99, passed });
        if passed {
            return (rate, saturation, rungs);
        }
        k -= 1;
    }
    (ladder.base, saturation, rungs)
}

/// Run validity: at p99 the generator must have sent a request it was
/// free to send within half a slot of the schedule at `rate`; later
/// than that, it no longer offers the load the run claims. Returns the
/// lag p99 and whether the run is valid.
pub fn lag_verdict(outs: &[Outcome], rate: f64) -> (f64, bool) {
    let lags: Vec<f64> = outs.iter().map(|o| o.lag_ms).collect();
    let p99 = quantile(&lags, 0.99);
    (p99, p99 <= 500.0 / rate)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_beyond_half_a_slot_invalidates_the_run() {
        let at = |lag_ms: f64| Outcome { lag_ms, ..Outcome::default() };
        let mut outs: Vec<Outcome> = (0..200).map(|_| at(1.0)).collect();
        assert!(lag_verdict(&outs, 20.0).1);
        outs[190..].iter_mut().for_each(|o| o.lag_ms = 30.0);
        let (p99, valid) = lag_verdict(&outs, 20.0);
        assert!(p99 > 25.0 && !valid);
    }
}
