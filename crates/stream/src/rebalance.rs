//! Adaptive shard rebalancing: closing the loop from telemetry back
//! into placement.
//!
//! Hash placement spreads *query counts* evenly but knows nothing about
//! per-query cost — a uniform 50-query fan-out lands ~1.3× hot-shard
//! imbalance, and a deliberately skewed workload is worse.
//! The [`RebalanceController`] watches successive [`TelemetryReport`]s,
//! diffs per-query `ops_invoked` into a *windowed* load (so a query
//! that was hot an hour ago but is idle now carries no weight), blends
//! it with each shard's resident-state *bytes* gauge (weighted by
//! [`RebalanceConfig::bytes_weight`]), and when the blended balance
//! ratio stays above the threshold for `patience` consecutive
//! observations it plans greedy migrations: repeatedly move the
//! heaviest movable query from the hottest shard to the coolest one,
//! as long as the move shrinks the hot/cool gap. The bytes term means
//! a memory-fat shard drains even when operator counts are balanced —
//! state size is a first-class placement signal, not just CPU.
//!
//! The controller only *plans*; `ShardedEngine::migrate` executes. A
//! migration moves the live `QueryRuntime` — pipeline state, sink, push
//! subscription and all — between shards, so snapshots, push
//! accumulation, and the ops total are provably unchanged (the property
//! test in `tests/sharding.rs` interleaves forced migrations with
//! ingest and lifecycle churn to pin this down). Under the worker-pool
//! executor a migration quiesces only the donor and recipient shards'
//! task queues — the rest of the engine keeps draining while a query
//! moves. Windowed per-query
//! loads are keyed by `QueryId`, which makes the diff robust to the
//! migrations the controller itself caused.

use std::collections::HashMap;

use aspen_types::{QueryId, Result};

use crate::shard::QueryHandle;
use crate::telemetry::{LoadWindow, TelemetryReport};
use crate::trace::{now_us, Span, SpanKind};

/// Tuning knobs of the skew detector. The defaults favor stability:
/// act only on sustained, clearly-skewed load.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Windowed balance ratio (hottest shard over ideal even share)
    /// above which an observation counts as skewed.
    pub threshold: f64,
    /// Consecutive skewed observations required before migrating —
    /// one-batch spikes never trigger a move.
    pub patience: u32,
    /// Most queries migrated per rebalance round.
    pub max_moves: usize,
    /// When auto-rebalancing is enabled on the engine, observe every
    /// this many batch boundaries (0 reads as 1: every boundary).
    pub interval_boundaries: u64,
    /// Most submitted-but-unapplied boundaries any shard may carry
    /// before its meters are considered stale (barrier-free `Cut`
    /// telemetry reads shards at their applied watermarks — a deeply
    /// backlogged shard's meters lag reality, and trusting them would
    /// chase load that already moved). A stale shard's windowed load is
    /// *aged* — decayed halfway toward the report's mean shard load —
    /// rather than trusted verbatim or discarded, so a persistently
    /// lagging shard still participates in (and can still trigger)
    /// rebalancing instead of starving the controller forever.
    pub max_lag: u64,
    /// Weight of resident-state bytes in the blended per-shard score.
    /// Each shard (and each query) scores `ops_fraction + bytes_weight ×
    /// bytes_fraction`, both fractions of the engine-wide totals, so the
    /// weight is scale-free: 1.0 values a shard holding all the bytes
    /// exactly like one doing all the CPU work, and a memory-fat shard
    /// drains even when operator counts are perfectly balanced. 0.0
    /// restores pure CPU-based planning.
    pub bytes_weight: f64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            threshold: 1.15,
            patience: 2,
            max_moves: 4,
            interval_boundaries: 32,
            max_lag: 64,
            bytes_weight: 1.0,
        }
    }
}

/// One planned move: relocate `query` from shard `from` to shard `to`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Migration {
    pub query: QueryId,
    pub from: usize,
    pub to: usize,
}

/// Skew detector and migration planner over successive telemetry
/// reports.
#[derive(Debug, Default)]
pub struct RebalanceController {
    config: RebalanceConfig,
    /// Per-query ops marks from the previous observation — the baseline
    /// the next window diffs against (all `window_since_marks` needs,
    /// so whole reports are never retained).
    last: Option<HashMap<QueryId, u64>>,
    skewed_streak: u32,
    /// Total migrations planned over the controller's lifetime.
    pub migrations_planned: u64,
}

impl RebalanceController {
    pub fn new(config: RebalanceConfig) -> Self {
        RebalanceController {
            config,
            ..Default::default()
        }
    }

    pub fn config(&self) -> &RebalanceConfig {
        &self.config
    }

    /// Whether the owning engine's auto-rebalancer takes its periodic
    /// look at boundary number `boundaries` — the one statement of the
    /// [`RebalanceConfig::interval_boundaries`] rule, for node and
    /// cluster alike.
    pub(crate) fn due(&self, boundaries: u64) -> bool {
        boundaries.is_multiple_of(self.config.interval_boundaries.max(1))
    }

    /// One rebalance round: observe `report` and apply the planned moves
    /// through `migrate` — the owner's own migrate, between shards or
    /// between nodes. Plans are advisory: a move that fails (the query
    /// retired between observation and application) is skipped. Returns
    /// how many moves were applied and, when any were planned, the
    /// decision span for the owner's journal.
    pub(crate) fn round(
        &mut self,
        report: &TelemetryReport,
        node: u32,
        mut migrate: impl FnMut(QueryHandle, usize) -> Result<()>,
    ) -> (usize, Option<Span>) {
        let moves = self.observe(report);
        let applied = moves
            .iter()
            .filter(|m| migrate(QueryHandle(m.query), m.to).is_ok())
            .count();
        let span = (!moves.is_empty()).then(|| Span {
            at_us: now_us(),
            node,
            batch: 0,
            kind: SpanKind::Rebalance,
            detail: applied as u64,
        });
        (applied, span)
    }

    /// Feed one telemetry observation; returns the migrations to apply
    /// (empty while balanced, inside the patience window, or before the
    /// first diffable window exists).
    pub fn observe(&mut self, report: &TelemetryReport) -> Vec<Migration> {
        let prev = self.last.replace(report.ops_marks());
        let Some(prev) = prev else {
            // First observation: no window to judge yet.
            return Vec::new();
        };

        let n = report.shards.len();
        if n < 2 {
            return Vec::new();
        }
        // One windowing implementation for every skew judge: the shared
        // per-query diff (migration-aware, saturating on counter
        // resets). Stale shards' loads are aged before judging.
        let mut window = report.window_since_marks(&prev);
        self.age_stale_shards(report, &mut window);
        // Blended load: each shard (and query) scores its *fraction* of
        // the engine's windowed ops plus `bytes_weight` times its
        // fraction of the engine's resident-state bytes. Bytes are
        // gauges, not windowed counters, so they are read straight off
        // the report — a shard fat with retained window/join state
        // scores hot even when per-batch operator counts are perfectly
        // even, which is exactly the shard an OOM kills first. With
        // zero bytes everywhere the score degenerates to pure ops
        // fractions, i.e. the classic CPU-only planner.
        let total_ops = window.total_ops();
        let total_bytes: u64 = window.shard_bytes.iter().sum();
        if total_ops == 0 && total_bytes == 0 {
            self.skewed_streak = 0;
            return Vec::new();
        }
        let bytes_weight = self.config.bytes_weight.max(0.0);
        let score = |ops: u64, bytes: u64| -> f64 {
            let mut s = 0.0;
            if total_ops > 0 {
                s += ops as f64 / total_ops as f64;
            }
            if total_bytes > 0 {
                s += bytes_weight * (bytes as f64 / total_bytes as f64);
            }
            s
        };
        let mut loads: Vec<f64> = (0..n)
            .map(|i| score(window.shard_loads[i], window.shard_bytes[i]))
            .collect();
        let total_score: f64 = loads.iter().sum();
        let hottest = loads.iter().copied().fold(0.0_f64, f64::max);
        let ratio = if total_score > 0.0 {
            hottest / (total_score / n as f64)
        } else {
            1.0
        };
        if ratio <= self.config.threshold {
            self.skewed_streak = 0;
            return Vec::new();
        }
        self.skewed_streak += 1;
        if self.skewed_streak < self.config.patience {
            return Vec::new();
        }
        self.skewed_streak = 0;

        // Greedy planning: heaviest movable query off the hottest shard
        // onto the coolest, while each move strictly shrinks the
        // hot/cool gap. Paused queries carry no load and stay put.
        let mut movable: Vec<(QueryId, usize, f64)> = window
            .queries
            .iter()
            .filter(|q| !q.paused)
            .map(|q| (q.query, q.shard, score(q.ops, q.bytes)))
            .filter(|&(_, _, w)| w > 0.0)
            .collect();
        movable.sort_by(|a, b| b.2.total_cmp(&a.2).then(a.0 .0.cmp(&b.0 .0)));
        let mut moves = Vec::new();
        for _ in 0..self.config.max_moves {
            let hot = (0..n)
                .max_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .expect("n >= 2");
            let cool = (0..n)
                .min_by(|&a, &b| loads[a].total_cmp(&loads[b]))
                .expect("n >= 2");
            let gap = loads[hot] - loads[cool];
            // Only moves of at most half the gap are taken: the donor
            // stays at least as loaded as the recipient, so the gap
            // shrinks monotonically and the plan cannot ping-pong a
            // query between two shards.
            let Some(pick) = movable
                .iter_mut()
                .find(|(_, shard, w)| *shard == hot && *w * 2.0 <= gap)
            else {
                break;
            };
            loads[hot] -= pick.2;
            loads[cool] += pick.2;
            pick.1 = cool;
            moves.push(Migration {
                query: pick.0,
                from: hot,
                to: cool,
            });
        }
        self.migrations_planned += moves.len() as u64;
        moves
    }

    /// Age the windowed loads of shards whose applied watermark trails
    /// submissions by more than [`RebalanceConfig::max_lag`] boundaries.
    /// Such meters misattribute in-flight load, but discarding the whole
    /// observation starves a permanently backlogged engine of
    /// rebalancing — exactly the state that needs it most. Instead the
    /// stale shard's windowed load decays halfway toward the report's
    /// mean shard load: a persistently hot-and-lagging shard still
    /// crosses the threshold (the skew streak keeps counting), and a
    /// lagging *idle* shard — whose backlog hides unmetered work — is
    /// lifted off the "coolest recipient" slot. Resident queries are
    /// scaled proportionally so the per-query loads the greedy planner
    /// moves stay consistent with the shard totals it judges.
    fn age_stale_shards(&self, report: &TelemetryReport, window: &mut LoadWindow) {
        let n = window.shard_loads.len();
        if n == 0 {
            return;
        }
        let mean = window.total_ops() / n as u64;
        for s in &report.shards {
            if s.lag <= self.config.max_lag || s.shard >= n {
                continue;
            }
            let old = window.shard_loads[s.shard];
            let aged = (old + mean) / 2;
            if old == 0 {
                window.shard_loads[s.shard] = aged;
                continue;
            }
            let mut sum = 0u64;
            for q in window.queries.iter_mut().filter(|q| q.shard == s.shard) {
                q.ops = (q.ops as u128 * aged as u128 / old as u128) as u64;
                sum += q.ops;
            }
            window.shard_loads[s.shard] = sum;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::telemetry::report_from_rows as report;

    fn eager() -> RebalanceController {
        RebalanceController::new(RebalanceConfig {
            threshold: 1.05,
            patience: 1,
            max_moves: 4,
            interval_boundaries: 1,
            ..Default::default()
        })
    }

    #[test]
    fn interval_zero_observes_every_boundary() {
        let every = |interval_boundaries| {
            RebalanceController::new(RebalanceConfig {
                interval_boundaries,
                ..Default::default()
            })
        };
        assert!((1..=5).all(|b| every(0).due(b)), "0 reads as 1, not never");
        assert!((1..=5).all(|b| every(1).due(b)));
        let due: Vec<u64> = (1..=9).filter(|&b| every(3).due(b)).collect();
        assert_eq!(due, [3, 6, 9]);
    }

    #[test]
    fn first_observation_never_migrates() {
        let mut c = eager();
        assert!(c.observe(&report(&[(0, 0, 1000), (1, 1, 10)])).is_empty());
    }

    #[test]
    fn sustained_skew_plans_improving_moves() {
        let mut c = eager();
        c.observe(&report(&[(0, 0, 0), (1, 0, 0), (2, 1, 0)]));
        // Window: q0 = 600, q1 = 300 on shard 0; q2 = 100 on shard 1.
        let moves = c.observe(&report(&[(0, 0, 600), (1, 0, 300), (2, 1, 100)]));
        // Gap is 800; q0 (600) exceeds half of it, so the planner moves
        // q1 (300), landing at 600/400.
        assert_eq!(
            moves,
            vec![Migration {
                query: QueryId(1),
                from: 0,
                to: 1
            }]
        );
        assert_eq!(c.migrations_planned, 1);
    }

    #[test]
    fn balanced_load_resets_streak() {
        let mut c = RebalanceController::new(RebalanceConfig {
            threshold: 1.05,
            patience: 2,
            max_moves: 4,
            interval_boundaries: 1,
            ..Default::default()
        });
        c.observe(&report(&[(0, 0, 0), (1, 0, 0), (2, 0, 0), (3, 1, 0)]));
        // Skewed once (streak 1 of 2): no action yet.
        assert!(c
            .observe(&report(&[
                (0, 0, 200),
                (1, 0, 200),
                (2, 0, 200),
                (3, 1, 20)
            ]))
            .is_empty());
        // Balanced window resets the streak.
        assert!(c
            .observe(&report(&[
                (0, 0, 234),
                (1, 0, 233),
                (2, 0, 233),
                (3, 1, 120)
            ]))
            .is_empty());
        // Skewed again: still only streak 1.
        assert!(c
            .observe(&report(&[
                (0, 0, 434),
                (1, 0, 433),
                (2, 0, 433),
                (3, 1, 140)
            ]))
            .is_empty());
        // Second consecutive skewed window acts.
        assert!(!c
            .observe(&report(&[
                (0, 0, 634),
                (1, 0, 633),
                (2, 0, 633),
                (3, 1, 160)
            ]))
            .is_empty());
    }

    #[test]
    fn counter_reset_reads_as_zero_not_underflow() {
        // A pause/resume cycle rebuilds the pipeline, restarting its
        // cumulative counter below the controller's recorded mark. The
        // window must saturate to zero — not panic in debug or wrap to
        // a near-u64::MAX "infinitely hot" load in release.
        let mut c = eager();
        c.observe(&report(&[(0, 0, 5000), (1, 1, 100)]));
        let moves = c.observe(&report(&[(0, 0, 40), (1, 1, 5100)]));
        // q0's window is 0 (reset), q1's is 5000: the hot shard is 1,
        // but its only query carries the whole load — no move possible.
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn single_shard_never_migrates() {
        let mut c = eager();
        c.observe(&report(&[(0, 0, 0)]));
        assert!(c.observe(&report(&[(0, 0, 1000)])).is_empty());
    }

    #[test]
    fn stale_shard_loads_age_toward_the_mean() {
        let mut c = eager();
        c.observe(&report(&[(0, 0, 0), (1, 0, 0), (2, 1, 0)]));
        // Window: shard 0 carries 900 (q0 = 600, q1 = 300), shard 1
        // carries 100. Shard 0 is stale, so its load ages halfway to
        // the mean (500): 900 → 700, residents scaled to 466/233
        // (699 total). Still clearly skewed — the planner moves the
        // heaviest query fitting half the 599 gap: q1 at 233.
        let mut stale = report(&[(0, 0, 600), (1, 0, 300), (2, 1, 100)]);
        stale.shards[0].lag = c.config().max_lag + 1;
        let moves = c.observe(&stale);
        assert_eq!(
            moves,
            vec![Migration {
                query: QueryId(1),
                from: 0,
                to: 1
            }]
        );
    }

    #[test]
    fn persistently_lagging_shard_still_gets_rebalanced() {
        // A shard that never catches up (every report shows it over
        // max_lag) must not starve the controller forever: aged loads
        // still cross the threshold, the streak still counts, and the
        // planner still acts once patience is exhausted.
        let mut c = RebalanceController::new(RebalanceConfig {
            threshold: 1.05,
            patience: 2,
            max_moves: 4,
            interval_boundaries: 1,
            ..Default::default()
        });
        let lag = c.config().max_lag + 1;
        let mut first = report(&[(0, 0, 0), (1, 0, 0), (2, 1, 0)]);
        first.shards[0].lag = lag;
        c.observe(&first);
        // Skewed once (streak 1 of 2), shard 0 still lagging.
        let mut second = report(&[(0, 0, 600), (1, 0, 300), (2, 1, 100)]);
        second.shards[0].lag = lag;
        assert!(c.observe(&second).is_empty());
        // Skewed again, still lagging: patience exhausted, plan fires.
        let mut third = report(&[(0, 0, 1200), (1, 0, 600), (2, 1, 200)]);
        third.shards[0].lag = lag;
        let moves = c.observe(&third);
        assert_eq!(
            moves,
            vec![Migration {
                query: QueryId(1),
                from: 0,
                to: 1
            }]
        );
    }

    #[test]
    fn stale_idle_shard_is_not_picked_as_recipient() {
        let mut c = eager();
        c.observe(&report(&[(0, 0, 0), (1, 0, 0), (2, 1, 0), (3, 2, 0)]));
        // Shard 1 measured zero ops but is deeply backlogged — its
        // window hides unmetered work. Aging lifts it from 0 to half
        // the mean (1100 / 3 / 2 = 183), so the planner sends q1 to
        // the genuinely cool shard 2 instead.
        let mut stale = report(&[(0, 0, 600), (1, 0, 400), (2, 1, 0), (3, 2, 100)]);
        stale.shards[1].lag = c.config().max_lag + 1;
        let moves = c.observe(&stale);
        assert_eq!(
            moves,
            vec![Migration {
                query: QueryId(1),
                from: 0,
                to: 2
            }]
        );
    }

    #[test]
    fn memory_fat_shard_drains_despite_balanced_ops() {
        use crate::telemetry::report_from_rows_bytes as report_bytes;
        // Ops are perfectly even (300 per shard) — a CPU-only planner
        // sees ratio 1.0 and never acts. But shard 0 holds 6 MB of
        // resident state against 2 MB elsewhere, so the blended score
        // makes it hot: 300/900 + 6/10 ≈ 0.93 vs 0.53, ratio 1.4.
        let rows = [
            (0u32, 0usize, 50u64, 1_000_000u64),
            (1, 0, 50, 1_000_000),
            (2, 0, 50, 1_000_000),
            (3, 0, 50, 1_000_000),
            (4, 0, 50, 1_000_000),
            (5, 0, 50, 1_000_000),
            (6, 1, 300, 2_000_000),
            (7, 2, 300, 2_000_000),
        ];
        let zeros: Vec<_> = rows.iter().map(|&(q, s, _, b)| (q, s, 0, b)).collect();
        let mut c = eager();
        c.observe(&report_bytes(&zeros));
        let moves = c.observe(&report_bytes(&rows));
        // Each shard-0 query scores 50/900 + 1/10 ≈ 0.156; twice that
        // fits the 0.4 gap, so the planner drains one (lowest id wins
        // the tie) onto a cool shard — the memory-fat shard sheds both
        // ops and bytes.
        assert_eq!(
            moves,
            vec![Migration {
                query: QueryId(0),
                from: 0,
                to: 1
            }]
        );
    }

    #[test]
    fn zero_bytes_weight_restores_cpu_only_planning() {
        use crate::telemetry::report_from_rows_bytes as report_bytes;
        let mut c = RebalanceController::new(RebalanceConfig {
            threshold: 1.05,
            patience: 1,
            max_moves: 4,
            interval_boundaries: 1,
            bytes_weight: 0.0,
            ..Default::default()
        });
        // Same byte-skewed, ops-balanced fixture: with the bytes term
        // switched off the blended ratio collapses to the ops ratio
        // (1.0), so no move is planned.
        let rows = [
            (0u32, 0usize, 300u64, 6_000_000u64),
            (1, 1, 300, 2_000_000),
            (2, 2, 300, 2_000_000),
        ];
        let zeros: Vec<_> = rows.iter().map(|&(q, s, _, b)| (q, s, 0, b)).collect();
        c.observe(&report_bytes(&zeros));
        let moves = c.observe(&report_bytes(&rows));
        assert!(moves.is_empty(), "{moves:?}");
    }

    #[test]
    fn idle_engine_with_byte_skew_still_rebalances() {
        use crate::telemetry::report_from_rows_bytes as report_bytes;
        // No windowed ops at all — only retained state. Bytes are a
        // gauge, so pressure alone (4 MB + 1 MB vs 1 MB) justifies
        // draining the fat shard; the 1 MB query fits half the gap.
        let rows = [
            (0u32, 0usize, 0u64, 4_000_000u64),
            (1, 0, 0, 1_000_000),
            (2, 1, 0, 1_000_000),
        ];
        let mut c = eager();
        c.observe(&report_bytes(&rows));
        let moves = c.observe(&report_bytes(&rows));
        assert_eq!(
            moves,
            vec![Migration {
                query: QueryId(1),
                from: 0,
                to: 1
            }]
        );
    }

    #[test]
    fn an_unsplittable_hot_query_stays_put() {
        let mut c = eager();
        c.observe(&report(&[(0, 0, 0), (1, 1, 0)]));
        // One huge query is the whole hot load: moving it would just
        // swap the hot shard, so the planner must do nothing.
        let moves = c.observe(&report(&[(0, 0, 1000), (1, 1, 100)]));
        assert!(moves.is_empty(), "{moves:?}");
    }
}
