//! What the run record says about where it ran: cores, compiler, build
//! profile, commit, load — plus the process's own peak memory and CPU.

use std::fs;
use std::path::Path;

use crate::json::Json;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn proc_status_kb(field: &str) -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process so far (`VmHWM`), MiB.
pub fn rss_peak_mb() -> f64 {
    proc_status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

/// User + system CPU seconds of the whole process (all threads).
pub fn cpu_seconds() -> f64 {
    // Fields 14/15 of /proc/self/stat, counted after the parenthesised
    // command name; Linux reports them in 1/100 s ticks.
    fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            let rest = s.rsplit_once(')')?.1.to_string();
            let mut f = rest.split_whitespace().skip(11);
            let utime: f64 = f.next()?.parse().ok()?;
            let stime: f64 = f.next()?.parse().ok()?;
            Some((utime + stime) / 100.0)
        })
        .unwrap_or(0.0)
}

/// A fixed dependent integer chain, ns per step: a reading of how fast
/// the host runs right now, recorded beside the results and applied to
/// none of them. About a millisecond.
pub fn ns_per_step() -> f64 {
    const STEPS: u32 = 400_000;
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..STEPS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e9 / f64::from(STEPS)
}

fn load_average() -> Json {
    let avg: Vec<Json> = fs::read_to_string("/proc/loadavg")
        .unwrap_or_default()
        .split_whitespace()
        .take(3)
        .filter_map(|s| s.parse().ok())
        .map(Json::Num)
        .collect();
    Json::Arr(avg)
}

/// The checked-out commit, read from `.git` without spawning git; the
/// driver's checkout is not a repository, so this is often `unknown`.
fn commit(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(hash) = fs::read_to_string(git.join(reference)) {
        return hash.trim().to_string();
    }
    fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The hygiene block every result record carries.
pub fn record(root: &Path, scheduling: &str) -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("rustc", Json::str(env!("BENCH_RUSTC"))),
        ("profile", Json::str(env!("BENCH_PROFILE"))),
        ("commit", Json::str(commit(root))),
        ("scheduling", Json::str(scheduling)),
        ("load_average", load_average()),
    ])
}
