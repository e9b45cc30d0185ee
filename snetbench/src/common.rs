//! Shared plumbing: statistics, the metric report, `/proc` and rusage
//! readers, and the libc calls the harness needs.

use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Linear-interpolated quantile of an unsorted sample (`q` in 0..=1).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The tail: p90, which keeps at least ten samples beyond it from 100
/// samples on; below that, the percentile that leaves exactly ten
/// beyond (the maximum below 20 samples). Returns `(value, percentile
/// label)`. Higher percentiles are not steady on a shared virtual
/// machine: there the top 1% of sub-millisecond requests is host CPU
/// steal, not the service.
pub fn supported_tail(values: &[f64]) -> (f64, String) {
    let n = values.len() as f64;
    if n >= 100.0 {
        return (quantile(values, 0.9), "p90".into());
    }
    if n < 20.0 {
        return (quantile(values, 1.0), "max".into());
    }
    let q = 1.0 - 10.0 / n;
    (quantile(values, q), format!("p{:.1}", q * 100.0))
}

/// Number of windows a run's latency samples are split into.
pub const WINDOWS: usize = 5;

/// Latency of a run measured in consecutive windows: the median of the
/// windows' medians, and the median of the windows' tails when every
/// window holds 100 samples or more (else the tail of all samples
/// pooled). A burst of noise from outside the program moves one or two
/// windows, not the figure. Puts `lat_p50_ms` and `lat_tail_ms` and
/// returns the p50.
pub fn put_latency(rep: &mut Report, windows: &[Vec<f64>]) -> f64 {
    let all: Vec<f64> = windows.concat();
    let p50 = median(&windows.iter().map(|w| median(w)).collect::<Vec<_>>());
    let (tail, how) = if windows.iter().all(|w| w.len() >= 100) {
        let tails: Vec<f64> = windows.iter().map(|w| supported_tail(w).0).collect();
        (median(&tails), format!("median of {} window p90s", windows.len()))
    } else {
        let (t, label) = supported_tail(&all);
        (t, format!("{label} of the pooled samples"))
    };
    rep.put("lat_p50_ms", p50, "ms");
    rep.put("lat_tail_ms", tail, "ms");
    rep.note(format!(
        "latency over {} samples in {} windows; lat_tail_ms is the {how}",
        all.len(),
        windows.len()
    ));
    p50
}

/// `setup_s`: the lower quartile of the set-up samples, which are
/// listed. A set-up has a floor (process start, store open or fill);
/// what lies above it is noise from outside and, for a daemon, a race
/// with its 25 ms idle accept poll: a health probe that reaches the
/// listen backlog after the daemon's first accept waits for the next
/// poll. That race turns on host scheduling: on a shared 2-vCPU VM the
/// probe lost up to 5 of 13 set-ups of a run, which moved the median by
/// half. The lower quartile stays on the floor and still moves with any
/// work added to the set-up.
pub fn put_setup(rep: &mut Report, samples: &[f64]) {
    rep.put("setup_s", quantile(samples, 0.25), "s");
    let ms: Vec<String> = samples.iter().map(|s| format!("{:.2}", s * 1e3)).collect();
    rep.note(format!(
        "setup_s: lower quartile of {} set-up samples (ms: {})",
        samples.len(),
        ms.join(" ")
    ));
}

/// Splits a closed loop's samples into [`WINDOWS`] consecutive windows.
pub fn windows_of(samples: &[f64]) -> Vec<Vec<f64>> {
    let size = samples.len().div_ceil(WINDOWS).max(1);
    samples.chunks(size).map(<[f64]>::to_vec).collect()
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Times one call.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed())
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Named metrics in insertion order, plus the operation tallies.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
    /// Human-readable notes printed before the result line.
    pub notes: Vec<String>,
    /// Why the run's figures do not stand, if they do not (the
    /// generator fell behind its schedule). Reported as `correct: false`.
    pub invalid: Option<String>,
}

impl Report {
    pub fn put(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        let name = name.into();
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|(n, _, _)| *n == name) {
            Some(slot) => {
                slot.1 = value;
                slot.2 = unit;
            }
            None => self.metrics.push((name, value, unit)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|m| m.1)
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// A failed check: counted in `failed` and explained in the notes.
    pub fn fail(&mut self, why: impl Into<String>) {
        self.failed += 1;
        let why = why.into();
        if self.notes.iter().filter(|n| n.starts_with("FAIL")).count() < 20 {
            self.notes.push(format!("FAIL {why}"));
        }
    }

    /// The one-line JSON result (`correct`, `attempted`, `failed`,
    /// `metrics`). A run is correct when every answer checked out and
    /// the run is valid.
    pub fn result_line(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0 && self.invalid.is_none(),
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
        }
        out.push_str("}}");
        out
    }
}

// ---------------------------------------------------------------------------
// JSON helpers
// ---------------------------------------------------------------------------

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

pub fn parse_json(bytes: &[u8]) -> Result<serde_json::Value, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "response is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("response is not JSON: {e}"))
}

pub fn u32_array(v: Option<&serde_json::Value>) -> Option<Vec<u32>> {
    v?.as_array()?.iter().map(|x| x.as_u64().map(|x| x as u32)).collect()
}

// ---------------------------------------------------------------------------
// Processes: /proc, signals, rusage
// ---------------------------------------------------------------------------

#[repr(C)]
#[derive(Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn kill(pid: i32, sig: i32) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn sysconf(name: i32) -> i64;
}

pub const SIGTERM: i32 = 15;
pub const SIGKILL: i32 = 9;

pub fn signal(pid: u32, sig: i32) {
    // SAFETY: kill(2) takes plain integers; a stale pid fails with ESRCH.
    unsafe {
        kill(pid as i32, sig);
    }
}

/// Exit status and resource use of one reaped child.
pub struct ChildUsage {
    pub code: i32,
    pub cpu_ms: f64,
    pub maxrss_kb: f64,
}

/// Waits for `child` with wait4(2), which also reports the child's own
/// CPU time and peak RSS (including the descendants it reaped).
pub fn wait_with_usage(child: std::process::Child) -> std::io::Result<ChildUsage> {
    let pid = child.id() as i32;
    let mut status: i32 = 0;
    let mut ru = Rusage::default();
    // SAFETY: both out-pointers are valid for writes for the call; the
    // pid is our own unreaped child, so std never waits on it again.
    let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
    std::mem::forget(child);
    if r != pid {
        return Err(std::io::Error::last_os_error());
    }
    let code = if status & 0x7f == 0 { (status >> 8) & 0xff } else { 128 + (status & 0x7f) };
    let cpu = |t: &Timeval| t.sec as f64 * 1e3 + t.usec as f64 / 1e3;
    Ok(ChildUsage { code, cpu_ms: cpu(&ru.utime) + cpu(&ru.stime), maxrss_kb: ru.maxrss as f64 })
}

/// CPU milliseconds a process has used, its reaped children included
/// (`utime + stime + cutime + cstime` from `/proc/<pid>/stat`).
pub fn proc_cpu_ms(pid: u32) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // Fields after the parenthesised command name; utime is field 14.
    let rest = &text[text.rfind(')')? + 2..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    let ticks: f64 = f[11..15].iter().map(|x| x.parse::<f64>().unwrap_or(0.0)).sum();
    // SAFETY: sysconf takes and returns plain integers (_SC_CLK_TCK = 2).
    let hz = unsafe { sysconf(2) }.max(1) as f64;
    Some(ticks * 1e3 / hz)
}

/// A `/proc/<pid>/status` field in kB (e.g. `VmHWM`).
pub fn proc_status_kb(pid: u32, field: &str) -> Option<f64> {
    let text = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    text.lines()
        .find(|l| l.starts_with(field) && l[field.len()..].starts_with(':'))
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_at_least_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        assert_eq!(supported_tail(&v).1, "p90");
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        let (value, label) = supported_tail(&v);
        assert_eq!(label, "p75.0");
        assert!((value - 30.25).abs() < 1e-9);
        assert_eq!(supported_tail(&[1.0, 2.0, 3.0]), (3.0, "max".to_string()));
    }

    #[test]
    fn an_invalid_run_is_not_correct() {
        let mut r = Report { attempted: 3, ..Report::default() };
        assert!(r.result_line().starts_with("{\"correct\": true,"));
        r.invalid = Some("the generator fell behind".into());
        assert!(r.result_line().starts_with("{\"correct\": false,"));
    }
}
