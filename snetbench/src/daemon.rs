//! The fixed environment (checkout root, working directory, binaries)
//! and the `snetd` daemon under test: spawn, health wait, `/proc`
//! readings, `/metrics` scrapes, and SIGTERM drain.

use crate::client;
use crate::common::{proc_cpu_ms, proc_status_kb, signal, SIGKILL, SIGTERM};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Where everything lives. Every file the benchmark writes is under
/// `<root>/.bench_work`.
pub struct Env {
    pub root: PathBuf,
    pub snetctl: PathBuf,
    /// The fixed working directory of the daemon, the CLI and the
    /// in-process manifest captures.
    pub wd: PathBuf,
    /// This run's private directory (stores, access logs, inputs).
    pub run_dir: PathBuf,
    next_dir: std::cell::Cell<u32>,
}

impl Env {
    /// Checks that `root` is a checkout of the repository, builds
    /// `snetctl` there, and prepares the fixed working directory.
    pub fn prepare(root: &Path, tag: &str) -> Result<Env, String> {
        if !root.join("Cargo.toml").is_file() || !root.join("crates/cli/Cargo.toml").is_file() {
            return Err(format!("{} is not a checkout of the repository", root.display()));
        }
        let status = Command::new("cargo")
            .args(["build", "--release", "--quiet", "-p", "snet-cli", "--bin", "snetctl"])
            .current_dir(root)
            .stdout(Stdio::null())
            .status()
            .map_err(|e| format!("cannot run cargo: {e}"))?;
        if !status.success() {
            return Err("building snetctl failed".into());
        }
        let target = match std::env::var_os("CARGO_TARGET_DIR") {
            Some(t) => root.join(t),
            None => root.join("target"),
        };
        let snetctl = target.join("release/snetctl");
        if !snetctl.is_file() {
            return Err(format!("{} missing after build", snetctl.display()));
        }
        let work = root.join(".bench_work");
        let wd = work.join("wd");
        let run_dir = work.join(format!("run-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&run_dir);
        for d in [&wd, &run_dir] {
            std::fs::create_dir_all(d).map_err(|e| format!("{}: {e}", d.display()))?;
        }
        // Manifest capture shells out to `git` and `rustc`; fix what they
        // see: the same working directory on every run, no git repository
        // found above it whether or not the checkout is one, and the
        // toolchain's own `rustc` first on PATH, so `rustc -V` does not
        // go through a toolchain-manager proxy where one is installed.
        std::env::set_var("GIT_CEILING_DIRECTORIES", &work);
        if let Some(bin) = toolchain_bin() {
            let path = std::env::var_os("PATH").unwrap_or_default();
            let dirs = std::iter::once(bin).chain(std::env::split_paths(&path));
            std::env::set_var("PATH", std::env::join_paths(dirs).map_err(|e| e.to_string())?);
        }
        std::env::set_current_dir(&wd).map_err(|e| format!("{}: {e}", wd.display()))?;
        Ok(Env { root: root.to_path_buf(), snetctl, wd, run_dir, next_dir: 0.into() })
    }

    /// A fresh, empty directory under this run's directory.
    pub fn fresh_dir(&self, what: &str) -> PathBuf {
        let i = self.next_dir.get();
        self.next_dir.set(i + 1);
        let d = self.run_dir.join(format!("{what}-{i}"));
        let _ = std::fs::remove_dir_all(&d);
        std::fs::create_dir_all(&d).expect("run directory is writable");
        d
    }

    pub fn cleanup(&self) {
        let _ = std::fs::remove_dir_all(&self.run_dir);
    }
}

const PR_SET_PDEATHSIG: i32 = 1;

extern "C" {
    fn prctl(option: i32, ...) -> i32;
}

/// `<sysroot>/bin` of the `rustc` on PATH.
fn toolchain_bin() -> Option<PathBuf> {
    let out = Command::new("rustc").args(["--print", "sysroot"]).output().ok()?;
    let bin = PathBuf::from(String::from_utf8(out.stdout).ok()?.trim()).join("bin");
    (out.status.success() && bin.join("rustc").is_file()).then_some(bin)
}

/// How to start the daemon.
#[derive(Default, Clone)]
pub struct DaemonOpts {
    pub store: Option<PathBuf>,
    pub access_log: Option<PathBuf>,
}

pub struct Daemon {
    child: Option<Child>,
    pub addr: SocketAddr,
    pub pid: u32,
}

impl Daemon {
    /// Spawns `snetctl serve` on a free port and waits for `/healthz`
    /// to answer 200. The port is picked here so the first connection
    /// can be attempted as soon as the daemon binds, and attempts
    /// follow each other without pause for the first 100 ms: the probe
    /// then waits in the listen backlog for the daemon's first accept,
    /// not for a later turn of its 25 ms idle poll, which would make
    /// the set-up time depend on which side won that race.
    pub fn start(env: &Env, opts: &DaemonOpts) -> Result<Daemon, String> {
        let log = env.fresh_dir("daemon").join("stderr.log");
        let addr = std::net::TcpListener::bind("127.0.0.1:0")
            .and_then(|l| l.local_addr())
            .map_err(|e| format!("no free port: {e}"))?;
        let mut cmd = Command::new(&env.snetctl);
        cmd.arg("serve").arg("--addr").arg(addr.to_string());
        if let Some(s) = &opts.store {
            cmd.arg("--store").arg(s);
        }
        if let Some(a) = &opts.access_log {
            cmd.arg("--access-log").arg(a);
        }
        let err = std::fs::File::create(&log).map_err(|e| e.to_string())?;
        // SAFETY: prctl(2) is async-signal-safe and the closure touches no
        // memory of the parent; it asks the kernel to kill the daemon if
        // the benchmark dies first, so no daemon outlives its run.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL as u64);
                Ok(())
            });
        }
        let child = cmd
            .current_dir(&env.wd)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(err)
            .spawn()
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let pid = child.id();
        let mut d = Daemon { child: Some(child), addr, pid };
        let spawned = Instant::now();
        let deadline = spawned + Duration::from_secs(20);
        let health = client::request_bytes("GET", "/healthz", None, true, None);
        loop {
            if let Ok(r) = client::one_shot(addr, &health) {
                if r.status == 200 {
                    return Ok(d);
                }
            }
            let exited = d.child.as_mut().and_then(|c| c.try_wait().ok().flatten()).is_some();
            if exited || Instant::now() > deadline {
                let text = std::fs::read_to_string(&log).unwrap_or_default();
                return Err(format!("daemon did not come up on {addr}: {text}"));
            }
            if spawned.elapsed() > Duration::from_millis(100) {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }

    pub fn cpu_ms(&self) -> f64 {
        proc_cpu_ms(self.pid).unwrap_or(0.0)
    }

    pub fn rss_peak_mb(&self) -> f64 {
        proc_status_kb(self.pid, "VmHWM").unwrap_or(0.0) / 1024.0
    }

    /// Scrapes `/metrics` once (on a connection of its own) and returns,
    /// for each name, the sum of its samples over all label sets.
    pub fn metrics(&self, names: &[&str]) -> Vec<f64> {
        let raw = client::request_bytes("GET", "/metrics", None, true, None);
        let text = client::one_shot(self.addr, &raw)
            .map(|r| String::from_utf8_lossy(&r.body).into_owned())
            .unwrap_or_default();
        names
            .iter()
            .map(|name| {
                text.lines()
                    .filter(|l| !l.starts_with('#'))
                    .filter_map(|l| {
                        let (key, value) = l.rsplit_once(' ')?;
                        (key.split('{').next()? == *name).then(|| value.parse::<f64>().ok())?
                    })
                    .sum()
            })
            .collect()
    }

    /// SIGTERM, then wait for the drain (SIGKILL after 10 s).
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(mut child) = self.child.take() else { return };
        signal(self.pid, SIGTERM);
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match child.try_wait() {
                Ok(Some(_)) | Err(_) => return,
                Ok(None) if Instant::now() > deadline => {
                    signal(self.pid, SIGKILL);
                    let _ = child.wait();
                    return;
                }
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Throwaway set-ups a workload times between two of its windows, so
/// that `setup_s` samples the whole run, not only its start.
pub const SETUPS_PER_GAP: usize = 5;

/// Times `count` set-ups of throwaway daemons, each on a fresh store
/// when `store` is set: spawn to `/healthz` 200. Each drains after its
/// timing, outside it.
pub fn time_setups(env: &Env, store: bool, count: usize) -> Result<Vec<f64>, String> {
    (0..count)
        .map(|_| {
            let opts =
                DaemonOpts { store: store.then(|| env.fresh_dir("store")), access_log: None };
            let t = Instant::now();
            let d = Daemon::start(env, &opts)?;
            let secs = t.elapsed().as_secs_f64();
            d.stop();
            Ok(secs)
        })
        .collect()
}

/// The daemon's own duration (`dur_us`) of each request in an access
/// log, by trace id.
pub fn access_log(path: &Path) -> Result<HashMap<String, f64>, String> {
    let log = std::fs::read_to_string(path).map_err(|e| format!("access log: {e}"))?;
    let mut dur = HashMap::new();
    for line in log.lines() {
        if let Ok(v) = serde_json::from_str::<serde_json::Value>(line) {
            if let (Some(t), Some(d)) =
                (v.get("trace").and_then(|t| t.as_str()), v.get("dur_us").and_then(|d| d.as_f64()))
            {
                dur.insert(t.to_string(), d);
            }
        }
    }
    Ok(dur)
}
