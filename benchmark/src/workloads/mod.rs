//! The five workloads. Later issues refer to them by these names.

pub mod bigwindow;
pub mod building;
pub mod churn;
pub mod cluster;
pub mod dashboards;
pub mod engine_sys;

/// The run length the per-workload sizes were calibrated for: with
/// `--seconds 20` one run (three passes, set-up, open-loop waits and
/// checks included) takes 20–25 s on the seed commit on the 2-core
/// reference host.
pub const REFERENCE_SECONDS: u64 = 20;

/// `--seconds` selects *how much fixed work* a run does, never a
/// deadline: a count scales linearly with it from its calibrated value,
/// down to a floor that keeps every latency sample above 1 000.
pub fn scaled(base: usize, floor: usize, seconds: u64) -> usize {
    let n = (base as f64 * seconds as f64 / REFERENCE_SECONDS as f64).round() as usize;
    n.max(floor)
}

/// Distinct constants the cycle statements of one pass can draw from:
/// more than the cycles of the longest run (`--seconds 60`), so none
/// repeats and every registration is a new variant of a known template.
pub const CYCLE_CONSTANTS: usize = 50_000;

pub const NAMES: [&str; 5] = ["dashboards", "bigwindow", "churn", "cluster", "building"];
