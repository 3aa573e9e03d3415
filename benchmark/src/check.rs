//! `benchmark check A B`: compare two result sets row by row.
//!
//! A result set is a file of result records, one JSON object per line,
//! as `--append` writes them; each set needs at least five correct
//! untraced runs of every workload. A run that was not correct counts
//! towards the failed share and towards no median. For every workload × end-to-end metric
//! the report gives both medians and quartiles and a verdict against the
//! bound in `BENCHMARK.json`:
//!
//! * `unresolved` — either side's quartile spread is wider than the
//!   bound (unless every run of B beats every run of A);
//! * `worse` / `better` — B's median differs from A's by more than the
//!   bound (or every run of B beats every run of A);
//! * `same` — otherwise.
//!
//! What the runs measured beside their result — the timings demoted from
//! the end-to-end list — is printed in the same form with the change of
//! the median and no verdict.
//!
//! The exit status is non-zero on any `worse` row, when B's share of
//! failed operations is higher than A's, and when a set lacks a workload,
//! a metric or the five runs.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

use crate::json::Json;
use crate::metrics::{Better, Contract};
use crate::stats;
use crate::workloads::NAMES;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's sample of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
}

impl Side {
    pub fn of(values: &[f64]) -> Side {
        let (q1, q3) = stats::quartiles(values);
        Side {
            median: stats::median(values),
            q1,
            q3,
        }
    }

    fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs().max(f64::MIN_POSITIVE)
    }
}

/// The verdict for one row: `a` is the baseline, `b` the candidate.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    let (sa, sb) = (Side::of(a), Side::of(b));
    // Positive when B is worse, as a share of A's median.
    let direction = if better == Better::Lower { 1.0 } else { -1.0 };
    let worse_by = direction * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE);
    let beats = |x: f64, y: f64| {
        if better == Better::Lower {
            x < y
        } else {
            x > y
        }
    };
    let b_dominates = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    if b_dominates {
        Verdict::Better
    } else if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[derive(Debug, Default)]
struct WorkloadRuns {
    /// Values of the correct runs, by metric.
    metrics: BTreeMap<String, Vec<f64>>,
    /// What the runs measured beside the result (`also` in a record):
    /// compared for the reader, gating nothing.
    also: BTreeMap<String, Vec<f64>>,
    attempted: f64,
    failed: f64,
    correct_runs: usize,
}

type ResultSet = BTreeMap<String, WorkloadRuns>;

/// Read a result set. `origin` names it in error messages.
fn load(text: &str, origin: &str) -> Result<ResultSet, String> {
    let mut out = ResultSet::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let at = format!("{origin}:{}", i + 1);
        let rec = Json::parse(line).map_err(|e| format!("{at}: {e}"))?;
        if rec.get("trace").and_then(Json::as_f64) == Some(1.0) {
            continue;
        }
        let name = rec
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{at}: no workload"))?;
        let count = |field: &str| {
            rec.get(field)
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{at}: no {field} count"))
        };
        let w = out.entry(name.to_string()).or_default();
        w.attempted += count("attempted")?;
        w.failed += count("failed")?;
        if rec.get("correct") != Some(&Json::Bool(true)) {
            continue;
        }
        w.correct_runs += 1;
        for (section, into) in [("metrics", &mut w.metrics), ("also", &mut w.also)] {
            for (metric, v) in rec.get(section).map_or(&[][..], Json::fields) {
                let x = v
                    .get("value")
                    .and_then(Json::as_f64)
                    .filter(|x| x.is_finite())
                    .ok_or_else(|| format!("{at}: {metric} has no finite value"))?;
                into.entry(metric.clone()).or_default().push(x);
            }
        }
    }
    Ok(out)
}

/// Compare two result sets; returns whether B is acceptable.
pub fn check(a_path: &Path, b_path: &Path, benchmark_json: &Path) -> Result<bool, String> {
    let contract = Contract::load(benchmark_json)?;
    let read = |p: &Path| {
        let text = fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display()))?;
        load(&text, &p.display().to_string())
    };
    compare(&read(a_path)?, &read(b_path)?, &contract)
}

fn compare(a: &ResultSet, b: &ResultSet, contract: &Contract) -> Result<bool, String> {
    let mut counts = [0usize; 4];
    let mut failed_share_worse = false;
    println!(
        "{:<11} {:<16} {:>13} {:>21} {:>13} {:>21} {:>7}  verdict",
        "workload", "metric", "A median", "A q1..q3", "B median", "B q1..q3", "bound"
    );
    for name in NAMES {
        let (Some(wa), Some(wb)) = (a.get(name), b.get(name)) else {
            return Err(format!("{name}: missing from a result set"));
        };
        if wa.correct_runs < 5 || wb.correct_runs < 5 {
            return Err(format!(
                "{name}: {} and {} correct runs; each set needs at least 5",
                wa.correct_runs, wb.correct_runs
            ));
        }
        for m in &contract.end_to_end {
            let (metric, bound) = (&m.name, m.bound.unwrap_or(0.0));
            let values = |w: &WorkloadRuns, runs: usize| {
                w.metrics
                    .get(metric)
                    .filter(|v| v.len() == runs)
                    .cloned()
                    .ok_or_else(|| format!("{name}: {metric} missing from a run"))
            };
            let va = values(wa, wa.correct_runs)?;
            let vb = values(wb, wb.correct_runs)?;
            let v = verdict(&va, &vb, m.better, bound);
            counts[v as usize] += 1;
            let (sa, sb) = (Side::of(&va), Side::of(&vb));
            println!(
                "{name:<11} {metric:<16} {:>13.4} {:>10.4}..{:<10.4} {:>13.4} {:>10.4}..{:<10.4} {:>6.0}%  {}",
                sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, bound * 100.0, v.as_str()
            );
        }
        for (metric, va) in &wa.also {
            let Some(vb) = wb.also.get(metric) else {
                continue;
            };
            let (sa, sb) = (Side::of(va), Side::of(vb));
            println!(
                "{name:<11} {metric:<16} {:>13.4} {:>10.4}..{:<10.4} {:>13.4} {:>10.4}..{:<10.4} {:>7}  {:+.1}% (not gated)",
                sa.median, sa.q1, sa.q3, sb.median, sb.q1, sb.q3, "-",
                100.0 * (sb.median - sa.median) / sa.median.abs().max(f64::MIN_POSITIVE)
            );
        }
        let share = |w: &WorkloadRuns| w.failed / w.attempted.max(1.0);
        if share(wb) > share(wa) {
            failed_share_worse = true;
            println!(
                "{name:<11} failed share rose from {:.6} to {:.6}",
                share(wa),
                share(wb)
            );
        }
    }
    let summary = Json::obj([
        ("same", Json::Num(counts[Verdict::Same as usize] as f64)),
        ("worse", Json::Num(counts[Verdict::Worse as usize] as f64)),
        ("better", Json::Num(counts[Verdict::Better as usize] as f64)),
        (
            "unresolved",
            Json::Num(counts[Verdict::Unresolved as usize] as f64),
        ),
        ("failed_share_higher", Json::Bool(failed_share_worse)),
        ("claim", Json::Null),
    ]);
    println!("{}", summary.render());
    Ok(counts[Verdict::Worse as usize] == 0 && !failed_share_worse)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIGHT_A: [f64; 5] = [100.0, 101.0, 99.0, 100.5, 99.5];

    #[test]
    fn same_when_medians_agree_within_the_bound() {
        let b = [103.0, 102.0, 104.0, 103.5, 102.5];
        assert_eq!(verdict(&TIGHT_A, &b, Better::Lower, 0.10), Verdict::Same);
        assert_eq!(
            verdict(&TIGHT_A, &TIGHT_A, Better::Higher, 0.10),
            Verdict::Same
        );
    }

    #[test]
    fn worse_and_better_follow_the_direction() {
        let slow = [120.0, 121.0, 119.0, 120.5, 119.5];
        assert_eq!(
            verdict(&TIGHT_A, &slow, Better::Lower, 0.10),
            Verdict::Worse
        );
        // The same numbers are an improvement for a throughput.
        assert_eq!(
            verdict(&TIGHT_A, &slow, Better::Higher, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&slow, &TIGHT_A, Better::Lower, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&slow, &TIGHT_A, Better::Higher, 0.10),
            Verdict::Worse
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_same() {
        let noisy = [80.0, 125.0, 100.0, 70.0, 130.0];
        assert_eq!(
            verdict(&TIGHT_A, &noisy, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &TIGHT_A, Better::Lower, 0.10),
            Verdict::Unresolved
        );
        // Within a wider bound the same samples resolve.
        assert_eq!(
            verdict(&TIGHT_A, &noisy, Better::Lower, 0.60),
            Verdict::Same
        );
    }

    #[test]
    fn domination_resolves_even_a_noisy_sample() {
        // Every run of B beats every run of A: better, whatever the spread.
        let noisy_fast = [40.0, 70.0, 55.0, 45.0, 80.0];
        assert_eq!(
            verdict(&TIGHT_A, &noisy_fast, Better::Lower, 0.10),
            Verdict::Better
        );
        // Noisy and slower never resolves to worse by itself.
        let noisy_slow = [140.0, 270.0, 155.0, 145.0, 380.0];
        assert_eq!(
            verdict(&TIGHT_A, &noisy_slow, Better::Lower, 0.10),
            Verdict::Unresolved
        );
    }

    const CONTRACT: &str = r#"{"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.15},
        {"name": "ingest_tps", "unit": "1/s", "better": "higher", "bound": 0.1}], "per_layer": []}"#;

    /// Five runs of every workload; `slow` scales B-like sets.
    fn set(workloads: &[&str], tps: f64, correct: bool) -> String {
        let mut out = String::new();
        for w in workloads {
            for run in 0..5 {
                let jitter = 1.0 + 0.001 * f64::from(run);
                out.push_str(&format!(
                    r#"{{"workload": "{w}", "trace": 0, "correct": {correct}, "attempted": 100, "failed": {}, "metrics": {{"setup_s": {{"value": {}, "unit": "s"}}, "ingest_tps": {{"value": {}, "unit": "1/s"}}}}}}"#,
                    if correct { 0 } else { 1 },
                    0.5 * jitter,
                    tps * jitter,
                ));
                out.push('\n');
            }
        }
        out
    }

    fn compare_texts(a: &str, b: &str) -> Result<bool, String> {
        let contract = Contract::parse(CONTRACT).unwrap();
        compare(&load(a, "A")?, &load(b, "B")?, &contract)
    }

    #[test]
    fn whole_sets_compare_and_a_regression_fails() {
        let a = set(&NAMES, 1000.0, true);
        assert_eq!(compare_texts(&a, &a), Ok(true));
        assert_eq!(compare_texts(&a, &set(&NAMES, 800.0, true)), Ok(false));
        assert_eq!(compare_texts(&a, &set(&NAMES, 1200.0, true)), Ok(true));
    }

    #[test]
    fn a_missing_workload_or_an_empty_set_is_an_error() {
        let a = set(&NAMES, 1000.0, true);
        assert!(compare_texts(&a, "").is_err());
        assert!(compare_texts("", &a).is_err());
        assert!(compare_texts(&a, &set(&NAMES[..4], 1000.0, true)).is_err());
    }

    #[test]
    fn incorrect_runs_feed_no_median_and_a_null_metric_is_refused() {
        let a = set(&NAMES, 1000.0, true);
        // Five incorrect runs leave B without the five it needs.
        assert!(compare_texts(&a, &set(&NAMES, 1000.0, false)).is_err());
        // Beside five correct ones they only raise the failed share.
        let b = a.clone() + &set(&NAMES, 10.0, false);
        assert_eq!(compare_texts(&a, &b), Ok(false));
        let null = a.replacen("\"value\": 1000,", "\"value\": null,", 1);
        assert_ne!(null, a);
        assert!(compare_texts(&null, &a).is_err());
    }
}
