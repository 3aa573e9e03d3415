//! Runtime telemetry: the one metering surface of the sharded engine.
//!
//! SmartCIS's federated optimizer can only trade work between engines if
//! the stream engine's *live* load profile is visible — the catalog's
//! static `NetworkStats` say nothing about which standing queries are
//! actually hot. This module defines the counters the engine maintains,
//! the snapshot types everything above it consumes, and the metric table
//! both exports are generated from:
//!
//! * **Counters** are updated lock-locally by the owning shard at batch
//!   boundaries — a query's meters live in its [`crate::pipeline::Pipeline`]
//!   (`tuples_in`, `ops_invoked`) and [`crate::sink::Sink`]
//!   (`deltas_applied`, push-batch count), a shard's in its
//!   [`ShardMeters`] — so metering adds plain integer adds on paths the
//!   shard already owns exclusively, never extra synchronization.
//! * **Snapshots** ([`TelemetryReport`], built by
//!   `ShardedEngine::telemetry`) are taken by the coordinator walking
//!   the shards once. Consumers diff successive reports to get windowed
//!   rates: the [`crate::rebalance::RebalanceController`] watches
//!   per-shard skew, `auto_tune` turns per-query output rates into
//!   micro-batch knobs, and the app publishes observed source rates back
//!   into the catalog for the optimizer.
//! * **The metric table** — `ENGINE`, `SHARDS`, `QUERIES`, `OPS`: per
//!   report level a label reader and `(name, kind, read)` rows, the only
//!   thing both exports walk. A metric is its field, the line that fills
//!   it and one row; a shard row also needs its line in
//!   [`TelemetryReport::as_node_load`], which a test holds to its kind.
//!   A storage count is a row over a [`Footprint`] field: the shard's
//!   footprint merges whole, so such a row needs no merge line of its own.
//!
//! Cumulative counters travel with their query: a migrated query keeps
//! its `ops_invoked` history because the counter lives in the pipeline
//! that moves, which is what keeps the ops-total invariant trivially
//! true under rebalancing.

use std::collections::HashMap;
use std::time::Duration;

use aspen_types::QueryId;

use crate::executor::Scheduling;
use crate::state::{Census, Footprint};
use crate::trace::{LatencyHistogram, OpKind, OpMeter, OpProfile};

/// Lock-local counters one worker shard maintains about its own slice of
/// the work. Updated only while the shard mutex is held.
#[derive(Debug, Default, Clone)]
pub struct ShardMeters {
    /// Tuples / signed deltas that arrived at this shard's routing slice.
    pub tuples_in: u64,
    /// Boundary slices processed (ingest fan-outs, heartbeats, push
    /// flushes that touched this shard).
    pub batches: u64,
    /// Wall time spent inside this shard's slice of the work. `max` over
    /// shards is the critical path an N-core deployment pays.
    pub busy: Duration,
    /// Window batches this shard's source logs materialized (and
    /// consolidated): one per cursor class per log step. Exact per seed.
    pub window_batches: u64,
    /// Window batches handed to pipelines: one per cursor per step.
    /// `window_deliveries / window_batches` is how many windows shared
    /// each batch of window work.
    pub window_deliveries: u64,
    /// Deltas probed through this shard's logs' filter indexes: one per
    /// delta per group stepped, however many members the group holds.
    /// Set against the deltas the grouped filters charge to
    /// `ops_invoked`, it is how much filter work grouping shares. Exact
    /// per seed.
    pub filter_probes: u64,
    /// Rows migrated-in cursors needed below a log's floor, back-filled.
    pub backfilled_rows: u64,
    /// Ids join sides visited in the logs' key indexes: probes, inside
    /// and outside the probing side's interval, and retractions checking
    /// their row is the oldest of its bucket the side holds. Exact per
    /// seed.
    pub join_rows_walked: u64,
    /// Distribution of admission→execution queue wait per task, recorded
    /// by the executor as it takes the shard lock (empty with tracing
    /// off).
    pub queue_wait: LatencyHistogram,
}

/// Snapshot of one registered query's cumulative load.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryLoad {
    pub query: QueryId,
    /// Shard currently owning the query's runtime.
    pub shard: usize,
    pub paused: bool,
    /// Tuples / deltas that entered the query's window stages.
    pub tuples_in: u64,
    /// Operator invocations (one unit per delta per operator) — the
    /// CPU-cost proxy the optimizer is calibrated against.
    pub ops_invoked: u64,
    /// Output deltas applied to the result sink.
    pub output_deltas: u64,
    /// Batches delivered through the push subscription (0 when polling).
    pub push_batches: u64,
    /// Whether any of the query's scans is a cursor on a shared source
    /// log (true for every live query over a stream, migrated or not: a
    /// moved cursor rejoins its new shard's log). Attribution is
    /// unchanged by sharing: `tuples_in` still counts the source batches
    /// routed to the query and `ops_invoked` counts its operators
    /// downstream of the windows — so the rebalancer sees the same
    /// per-query load shared or private, never phantom work.
    pub shared: bool,
    /// Whether a source log's filter index runs one of the query's
    /// filters for it (a `col op constant` filter directly above a
    /// cursor-fed stream scan). The filter hop is still charged in
    /// `ops_invoked` and the op profile exactly as if it had run.
    pub grouped_filter: bool,
    /// Scans the pipeline windows itself, not a log: table and view scans.
    pub private_windows: usize,
    /// Distribution of ingest→sink-apply latency for batches that
    /// reached this query's sink (empty with tracing off). Lives in the
    /// sink, so it migrates with the query like the counters do.
    pub latency: LatencyHistogram,
    /// Resident bytes of this query's own operator state (window
    /// buffers, materialised join sides, aggregate groups) — a gauge, not
    /// a counter. The source logs a query's cursors read are accounted to
    /// the shard, not here, and so are their key indexes: an indexed join
    /// side charges nothing, its index and the rows it points at being
    /// counted once, where they live (the shard's log — shared with every
    /// side over it by the same key — or the query's own window).
    pub state_bytes: u64,
    /// Live aggregate groups summed over the query's pipeline — a gauge;
    /// with `state_bytes`, the answer to "why is this query fat".
    pub groups: u64,
}

/// Snapshot of one pool worker's cumulative load (empty outside the
/// pool scheduling mode — the inline modes have no workers to meter).
/// `steals` counts the times this worker picked up a shard another
/// worker ran last — how often boundary-yield scheduling actually moved
/// work between threads.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerLoad {
    pub worker: usize,
    /// Boundary tasks this worker executed.
    pub tasks: u64,
    /// Wall seconds spent executing tasks.
    pub busy_seconds: f64,
    /// Tasks picked up from a shard last served by a different worker.
    pub steals: u64,
}

/// Snapshot of one shard's cumulative load.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ShardLoad {
    pub shard: usize,
    /// Queries placed on this shard (live + paused).
    pub queries: usize,
    /// Tuples / deltas routed to this shard.
    pub tuples_in: u64,
    /// Sum of the owned pipelines' operator invocations.
    pub ops_invoked: u64,
    /// Boundary slices this shard processed.
    pub batches: u64,
    /// Wall seconds spent inside this shard's slice of the work.
    pub busy_seconds: f64,
    /// Source logs on this shard: one arrival log per stream source
    /// with a window attached. Log work (append/release) is metered
    /// once here — in `tuples_in` and `busy_seconds` — not once per
    /// window.
    pub source_logs: usize,
    /// Window cursors attached to this shard's logs — one per stream
    /// scan of each live query, migrated or not. Exported as `cursors`.
    pub log_cursors: usize,
    /// Cursor classes on this shard's logs right now: cursors in equal
    /// window state, which share one batch per log step (a gauge).
    pub cursor_classes: usize,
    /// Rows this shard's logs currently retain, each stored once
    /// however many cursors cover it — with `cursors`, the answer to
    /// "why is this shard fat".
    pub log_rows: usize,
    /// Resident bytes of those logs — the part of `state_bytes` no
    /// query owns — sealed segments other shards hold too at full size,
    /// so this does not depend on which shard sealed them first.
    pub log_bytes: u64,
    /// Cumulative [`ShardMeters::window_batches`].
    pub window_batches: u64,
    /// Cumulative [`ShardMeters::window_deliveries`].
    pub window_deliveries: u64,
    /// Cumulative [`ShardMeters::filter_probes`].
    pub filter_probes: u64,
    /// Cumulative [`ShardMeters::backfilled_rows`].
    pub backfilled_rows: u64,
    /// Summed [`QueryLoad::private_windows`].
    pub private_windows: usize,
    /// Key indexes this shard's logs keep for indexed join sides: one per
    /// `(source, key columns, filter chain)` some live side asks for.
    pub join_indexes: usize,
    /// Join sides that are members of those indexes; members beyond one
    /// an index are sides that share it.
    pub join_index_members: usize,
    /// Resident bytes of those indexes, each once — part of `log_bytes`.
    pub join_index_bytes: u64,
    /// Cumulative [`ShardMeters::join_rows_walked`].
    pub join_rows_walked: u64,
    /// Highest boundary sequence number this shard has fully applied —
    /// its watermark, published at batch boundaries. The cut a
    /// barrier-free (`Consistency::Cut`) observation read this shard at.
    pub watermark: u64,
    /// Boundaries submitted to this shard but not yet applied when the
    /// observation was taken — the shard's staleness. Always 0 under a
    /// `Fresh` (barrier) observation and under sequential scheduling;
    /// the rebalancer uses it to skip planning over stale meters.
    pub lag: u64,
    /// Distribution of admission→execution queue wait on this shard
    /// (empty with tracing off).
    pub queue_wait: LatencyHistogram,
    /// What the owned queries' state and the source logs hold (a log
    /// once, pooled segments at full size); exported as `state_bytes`,
    /// `spilled_bytes`, `sealed_bytes` and `spill_{read,write}_failures`.
    /// A read failure is lost state: rows that read as absent.
    pub footprint: Footprint,
}

/// One coherent observation of the whole engine, taken at a batch
/// boundary. Counters are cumulative; consumers diff successive reports
/// for windowed rates.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Per-shard loads, indexed by shard.
    pub shards: Vec<ShardLoad>,
    /// Per-query loads in registration order (live and paused).
    pub queries: Vec<QueryLoad>,
    /// Per-worker loads of the executor pool (empty in inline modes).
    pub workers: Vec<WorkerLoad>,
    /// Engine-level batch boundaries observed so far (ingest calls +
    /// heartbeats).
    pub boundaries: u64,
    /// Batch tuples admitted on stream-like sources stamped below their
    /// source's running maximum. Admission does not reorder or reject
    /// them; each expires from a `RANGE` window when its predecessor in
    /// arrival order does — late, never lost. (A cluster report sums
    /// its nodes' admissions.)
    pub out_of_order_tuples: u64,
    /// [`crate::ResidentState::log_shared_bytes`] (a cluster report sums
    /// its nodes').
    pub log_shared_bytes: u64,
    /// What the retained tables hold (a cluster report sums its nodes'
    /// copies); exported as the `table_*` rows.
    pub tables: Footprint,
    /// Engine clock at observation time, seconds.
    pub now_secs: f64,
    /// Per-operator-kind measured busy timings, merged over every live
    /// pipeline. [`OpProfile::ops_per_sec_observed`] is the measured
    /// operator rate, exported as the `ops_per_sec_observed` row.
    pub profile: OpProfile,
    /// The mode the executor resolved ([`crate::EngineConfig::scheduling`]);
    /// a cluster report carries its nodes'.
    pub scheduling: Scheduling,
}

impl TelemetryReport {
    /// The load snapshot of one query, if registered.
    pub fn query(&self, q: QueryId) -> Option<&QueryLoad> {
        self.queries.iter().find(|l| l.query == q)
    }

    /// Worst per-shard staleness in this observation: the most
    /// boundaries any shard still has submitted-but-unapplied. 0 under
    /// a `Fresh` (barrier) read and under sequential scheduling. The
    /// rebalance controller *ages* the loads of shards whose lag
    /// exceeds its configured bound — stale meters misattribute load,
    /// so they are decayed toward the mean rather than trusted.
    pub fn max_lag(&self) -> u64 {
        self.shards.iter().map(|s| s.lag).max().unwrap_or(0)
    }

    /// Engine-wide ingest→sink-apply latency: every query's histogram
    /// merged (merging answers the same percentiles as recording all
    /// samples into one histogram). Empty with tracing off.
    pub fn ingest_latency(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for q in &self.queries {
            out.merge(&q.latency);
        }
        out
    }

    /// Engine-wide admission→execution queue wait: every shard's
    /// histogram merged. Empty with tracing off.
    pub fn queue_wait(&self) -> LatencyHistogram {
        let mut out = LatencyHistogram::new();
        for s in &self.shards {
            out.merge(&s.queue_wait);
        }
        out
    }

    /// The measured operator rate, if enough busy time accumulated —
    /// shorthand for [`OpProfile::ops_per_sec_observed`] on
    /// [`TelemetryReport::profile`].
    pub fn ops_per_sec_observed(&self) -> Option<f64> {
        self.profile.ops_per_sec_observed()
    }

    /// Collapse this report's per-shard loads into one [`ShardLoad`]
    /// occupying `slot` — how the cluster layer presents each node
    /// engine to the cross-node rebalancer: a node is "one shard" of
    /// the cluster, its load the sum of its internal shards, its
    /// staleness their worst lag.
    pub fn as_node_load(&self, slot: usize) -> ShardLoad {
        let mut out = ShardLoad {
            shard: slot,
            ..ShardLoad::default()
        };
        for s in &self.shards {
            out.queries += s.queries;
            out.tuples_in += s.tuples_in;
            out.ops_invoked += s.ops_invoked;
            out.batches += s.batches;
            out.busy_seconds += s.busy_seconds;
            out.source_logs += s.source_logs;
            out.log_cursors += s.log_cursors;
            out.cursor_classes += s.cursor_classes;
            out.log_rows += s.log_rows;
            out.log_bytes += s.log_bytes;
            out.window_batches += s.window_batches;
            out.window_deliveries += s.window_deliveries;
            out.filter_probes += s.filter_probes;
            out.backfilled_rows += s.backfilled_rows;
            out.private_windows += s.private_windows;
            out.join_indexes += s.join_indexes;
            out.join_index_members += s.join_index_members;
            out.join_index_bytes += s.join_index_bytes;
            out.join_rows_walked += s.join_rows_walked;
            out.watermark = out.watermark.max(s.watermark);
            out.lag = out.lag.max(s.lag);
            out.queue_wait.merge(&s.queue_wait);
            out.footprint += s.footprint;
        }
        out
    }

    /// Diff this report against an earlier one into a [`LoadWindow`]:
    /// per-query ops since `prev`, grouped per shard by *current*
    /// residence. This is the one place windowing semantics live —
    /// the rebalance controller judges skew through it. Cumulative
    /// counters travel with migrating queries, so raw shard-level diffs
    /// would credit a mid-window arrival's whole history to its
    /// destination; the per-query diff does not.
    /// Saturating: a pause/resume cycle rebuilds the pipeline and
    /// restarts its counter below the mark — that window reads as
    /// zero, not wrap-around garbage.
    pub fn window_since(&self, prev: &TelemetryReport) -> LoadWindow {
        self.window_since_marks(&prev.ops_marks())
    }

    /// The per-query cumulative-ops marks of this report — all that a
    /// later [`TelemetryReport::window_since_marks`] needs, for
    /// consumers that observe repeatedly and should not retain whole
    /// reports.
    pub fn ops_marks(&self) -> HashMap<QueryId, u64> {
        self.queries
            .iter()
            .map(|q| (q.query, q.ops_invoked))
            .collect()
    }

    /// [`TelemetryReport::window_since`] against retained marks instead
    /// of a retained report.
    pub fn window_since_marks(&self, marks: &HashMap<QueryId, u64>) -> LoadWindow {
        let mut shard_loads = vec![0u64; self.shards.len()];
        let mut shard_bytes = vec![0u64; self.shards.len()];
        let queries = self
            .queries
            .iter()
            .map(|q| {
                let ops = q
                    .ops_invoked
                    .saturating_sub(marks.get(&q.query).copied().unwrap_or(0));
                shard_loads[q.shard] += ops;
                // Bytes are a gauge, not a counter: current residency is
                // what a rebalance decision would actually move, so it is
                // never diffed against the mark.
                shard_bytes[q.shard] += q.state_bytes;
                WindowedQueryLoad {
                    query: q.query,
                    shard: q.shard,
                    paused: q.paused,
                    ops,
                    bytes: q.state_bytes,
                }
            })
            .collect();
        LoadWindow {
            shard_loads,
            shard_bytes,
            queries,
        }
    }
}

/// One query's share of a [`LoadWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowedQueryLoad {
    pub query: QueryId,
    /// Current shard residence.
    pub shard: usize,
    pub paused: bool,
    /// Operator invocations inside the window.
    pub ops: u64,
    /// Resident state bytes at observation time (a gauge — the cost of
    /// moving or keeping this query, not a rate).
    pub bytes: u64,
}

/// Windowed load profile: one report diffed against an earlier one (see
/// [`TelemetryReport::window_since`]).
#[derive(Debug, Clone, Default)]
pub struct LoadWindow {
    /// Windowed ops per shard (queries grouped by current residence).
    pub shard_loads: Vec<u64>,
    /// Resident state bytes per shard at observation time (gauges,
    /// grouped by current residence like `shard_loads`).
    pub shard_bytes: Vec<u64>,
    /// Windowed ops per query.
    pub queries: Vec<WindowedQueryLoad>,
}

impl LoadWindow {
    /// Total operator invocations inside the window.
    pub fn total_ops(&self) -> u64 {
        self.shard_loads.iter().sum()
    }

    /// Busiest shard's windowed ops over the ideal even share (1.0 =
    /// perfectly balanced). Deterministic — judged on ops, not wall
    /// time — so neither tests nor the rebalancer can flake on
    /// scheduler noise. 1.0 when nothing ran in the window.
    pub fn balance_ratio(&self) -> f64 {
        let total = self.total_ops();
        if total == 0 || self.shard_loads.is_empty() {
            return 1.0;
        }
        let max = self.shard_loads.iter().copied().max().unwrap_or(0);
        max as f64 / (total as f64 / self.shard_loads.len() as f64)
    }
}

/// How a metric accumulates, and so how [`TelemetryReport::as_node_load`]
/// merges a shard row: counters (only grow) and gauges (a current level)
/// sum over shards; a max is a level a node reads at its worst shard.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Kind {
    Counter,
    Gauge,
    Max,
}

/// One metric's value on one item, as both exports print it.
pub(crate) enum Reading {
    Int(u64),
    /// A float and the decimals JSON prints it with.
    Float(f64, usize),
    Flag(bool),
    Name(&'static str),
    Histogram(Box<LatencyHistogram>),
    /// Bytes by encoding, one Prometheus sample per encoding.
    Census(Census),
    /// Not measured yet: JSON `null`, no Prometheus sample.
    Missing,
}

use Kind::{Counter, Gauge, Max};
use Reading::{Flag, Float, Int, Missing, Name};

fn hist(h: LatencyHistogram) -> Reading {
    Reading::Histogram(Box::new(h))
}

/// One exported metric: its JSON key (the Prometheus family's stem), its
/// kind, and how to read it off one item.
pub(crate) type Row<T> = (&'static str, Kind, fn(&T) -> Reading);

/// The metric table of one report shape.
pub(crate) struct Level<T: 'static> {
    /// Prometheus family prefix after `aspen_`.
    pub(crate) prefix: &'static str,
    /// The labels that tell one item of the level from another.
    pub(crate) labels: fn(&T) -> Vec<(&'static str, Reading)>,
    /// The metrics in JSON order; a new row goes last, so keys keep their
    /// neighbours.
    pub(crate) rows: &'static [Row<T>],
}

pub(crate) const ENGINE: Level<TelemetryReport> = Level {
    prefix: "",
    labels: |_| Vec::new(),
    rows: &[
        ("boundaries", Counter, |r| Int(r.boundaries)),
        ("out_of_order_tuples", Counter, |r| {
            Int(r.out_of_order_tuples)
        }),
        ("log_shared_bytes", Gauge, |r| Int(r.log_shared_bytes)),
        ("now_secs", Gauge, |r| Float(r.now_secs, 3)),
        ("ingest_latency", Counter, |r| hist(r.ingest_latency())),
        ("queue_wait", Counter, |r| hist(r.queue_wait())),
        ("ops_per_sec_observed", Gauge, |r| {
            r.ops_per_sec_observed().map_or(Missing, |v| Float(v, 1))
        }),
        ("scheduling", Gauge, |r| match r.scheduling {
            Scheduling::Sequential => Name("sequential"),
            Scheduling::Pool => Name("pool"),
            Scheduling::Deterministic(_) => Name("deterministic"),
        }),
        ("table_bytes", Gauge, |r| Int(r.tables.resident as u64)),
        ("table_spilled_bytes", Gauge, |r| {
            Int(r.tables.spilled as u64)
        }),
        ("table_spill_read_failures", Counter, |r| {
            Int(r.tables.read_failures)
        }),
        ("table_spill_write_failures", Counter, |r| {
            Int(r.tables.write_failures)
        }),
    ],
};

pub(crate) const SHARDS: Level<ShardLoad> = Level {
    prefix: "shard_",
    labels: |s| vec![("shard", Int(s.shard as u64))],
    rows: &[
        ("queries", Gauge, |s| Int(s.queries as u64)),
        ("tuples_in", Counter, |s| Int(s.tuples_in)),
        ("ops_invoked", Counter, |s| Int(s.ops_invoked)),
        ("batches", Counter, |s| Int(s.batches)),
        ("busy_seconds", Counter, |s| Float(s.busy_seconds, 6)),
        ("log_rows", Gauge, |s| Int(s.log_rows as u64)),
        ("log_bytes", Gauge, |s| Int(s.log_bytes)),
        ("spill_read_failures", Counter, |s| {
            Int(s.footprint.read_failures)
        }),
        ("cursors", Gauge, |s| Int(s.log_cursors as u64)),
        ("cursor_classes", Gauge, |s| Int(s.cursor_classes as u64)),
        ("window_batches", Counter, |s| Int(s.window_batches)),
        ("window_deliveries", Counter, |s| Int(s.window_deliveries)),
        ("filter_probes", Counter, |s| Int(s.filter_probes)),
        ("backfilled_rows", Counter, |s| Int(s.backfilled_rows)),
        ("private_windows", Gauge, |s| Int(s.private_windows as u64)),
        ("watermark", Max, |s| Int(s.watermark)),
        ("lag", Max, |s| Int(s.lag)),
        ("queue_wait", Counter, |s| hist(s.queue_wait.clone())),
        ("sealed_bytes", Gauge, |s| {
            Reading::Census(s.footprint.sealed)
        }),
        ("source_logs", Gauge, |s| Int(s.source_logs as u64)),
        ("state_bytes", Gauge, |s| Int(s.footprint.resident as u64)),
        ("spilled_bytes", Gauge, |s| Int(s.footprint.spilled as u64)),
        ("spill_write_failures", Counter, |s| {
            Int(s.footprint.write_failures)
        }),
        ("join_indexes", Gauge, |s| Int(s.join_indexes as u64)),
        ("join_index_members", Gauge, |s| {
            Int(s.join_index_members as u64)
        }),
        ("join_index_bytes", Gauge, |s| Int(s.join_index_bytes)),
        ("join_rows_walked", Counter, |s| Int(s.join_rows_walked)),
    ],
};

pub(crate) const QUERIES: Level<QueryLoad> = Level {
    prefix: "query_",
    labels: |q| {
        vec![
            ("query", Int(u64::from(q.query.0))),
            ("shard", Int(q.shard as u64)),
        ]
    },
    rows: &[
        ("paused", Gauge, |q| Flag(q.paused)),
        ("tuples_in", Counter, |q| Int(q.tuples_in)),
        ("ops_invoked", Counter, |q| Int(q.ops_invoked)),
        ("state_bytes", Gauge, |q| Int(q.state_bytes)),
        ("groups", Gauge, |q| Int(q.groups)),
        ("grouped_filter", Gauge, |q| Flag(q.grouped_filter)),
        ("private_windows", Gauge, |q| Int(q.private_windows as u64)),
        ("output_deltas", Counter, |q| Int(q.output_deltas)),
        ("latency", Counter, |q| hist(q.latency.clone())),
        ("push_batches", Counter, |q| Int(q.push_batches)),
        ("shared", Gauge, |q| Flag(q.shared)),
    ],
};

pub(crate) const OPS: Level<(OpKind, OpMeter)> = Level {
    prefix: "op_",
    labels: |(k, _)| vec![("op", Name(k.name()))],
    rows: &[
        ("invocations", Counter, |(_, m)| Int(m.invocations)),
        ("deltas", Counter, |(_, m)| Int(m.deltas)),
        ("busy_seconds", Counter, |(_, m)| {
            Float(m.busy.as_secs_f64(), 6)
        }),
    ],
};

/// Test-only report constructor from `(query id, shard, cumulative
/// ops)` rows — shared by this module's and the rebalance module's
/// tests so the fixture shape cannot drift between them.
#[cfg(test)]
pub(crate) fn report_from_rows(rows: &[(u32, usize, u64)]) -> TelemetryReport {
    let with_bytes: Vec<(u32, usize, u64, u64)> =
        rows.iter().map(|&(id, s, ops)| (id, s, ops, 0)).collect();
    report_from_rows_bytes(&with_bytes)
}

/// [`report_from_rows`] with per-query resident-state bytes — the
/// fixture for byte-aware rebalance tests.
#[cfg(test)]
pub(crate) fn report_from_rows_bytes(rows: &[(u32, usize, u64, u64)]) -> TelemetryReport {
    let n = rows.iter().map(|&(_, s, _, _)| s + 1).max().unwrap_or(1);
    let mut shards: Vec<ShardLoad> = (0..n)
        .map(|i| ShardLoad {
            shard: i,
            ..ShardLoad::default()
        })
        .collect();
    let queries = rows
        .iter()
        .map(|&(id, shard, ops, bytes)| {
            shards[shard].queries += 1;
            shards[shard].ops_invoked += ops;
            shards[shard].footprint.resident += bytes as usize;
            QueryLoad {
                query: QueryId(id),
                shard,
                paused: false,
                tuples_in: ops,
                ops_invoked: ops,
                output_deltas: 0,
                push_batches: 0,
                shared: false,
                grouped_filter: false,
                private_windows: 0,
                latency: LatencyHistogram::new(),
                state_bytes: bytes,
                groups: 0,
            }
        })
        .collect();
    TelemetryReport {
        shards,
        queries,
        workers: Vec::new(),
        boundaries: 0,
        out_of_order_tuples: 0,
        log_shared_bytes: 0,
        tables: Footprint::default(),
        now_secs: 0.0,
        profile: OpProfile::default(),
        scheduling: Scheduling::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use report_from_rows as report;

    #[test]
    fn window_diffs_per_query() {
        let prev = report(&[(0, 0, 100), (1, 1, 50)]);
        let cur = report(&[(0, 0, 400), (1, 1, 150)]);
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![300, 100]);
        assert_eq!(w.total_ops(), 400);
        // 300 / (400 / 2) = 1.5
        assert!((w.balance_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn window_follows_migrated_queries_not_shards() {
        // q0 did 100 ops on shard 0, migrated, then did 50 on shard 1:
        // the window credits only the 50 to shard 1, never the history.
        let prev = report(&[(0, 0, 100), (1, 1, 10)]);
        let cur = report(&[(0, 1, 150), (1, 1, 10)]);
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![0, 50]);
    }

    #[test]
    fn window_saturates_on_counter_reset() {
        // Pause/resume rebuilds the pipeline below the mark.
        let prev = report(&[(0, 0, 5000)]);
        let cur = report(&[(0, 0, 40)]);
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![0]);
        assert_eq!(w.queries[0].ops, 0);
    }

    #[test]
    fn window_counts_query_registered_mid_window_in_full() {
        // A query with no mark in `prev` (registered after the previous
        // observation) contributes its whole cumulative count — all of
        // it happened inside the window.
        let prev = report(&[(0, 0, 100)]);
        let cur = report(&[(0, 0, 160), (1, 1, 90)]);
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![60, 90]);
        assert_eq!(w.queries[1].ops, 90);
    }

    #[test]
    fn migration_landing_exactly_on_window_boundary_credits_nothing() {
        // q0 moved shards between observations but ran no ops since the
        // previous mark: the window credits zero to *either* shard — the
        // move itself is not load.
        let prev = report(&[(0, 0, 500), (1, 1, 100)]);
        let cur = report(&[(0, 1, 500), (1, 1, 140)]);
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![0, 40]);
        assert_eq!(w.queries[0].ops, 0);
        assert_eq!(w.queries[0].shard, 1, "residence still tracks the move");
    }

    #[test]
    fn counter_reset_combined_with_migration_saturates_at_destination() {
        // Pause/resume rebuilt the pipeline (counter restarted below the
        // mark) *and* the query moved: the window must read zero at the
        // new shard, never wrap-around garbage at either one.
        let prev = report(&[(0, 0, 9000), (1, 1, 50)]);
        let cur = report(&[(0, 1, 12), (1, 1, 80)]);
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![0, 30]);
        assert_eq!(w.queries[0].ops, 0);
        assert_eq!(w.queries[0].shard, 1);
    }

    #[test]
    fn empty_window_with_no_queries_is_balanced() {
        // An engine whose whole query set was deregistered mid-window:
        // the report still has shards but no queries. The window must be
        // empty and read as perfectly balanced, and diffing an empty
        // report against a populated one must not panic on the missing
        // shard slots.
        let prev = report(&[(0, 0, 100), (1, 1, 100)]);
        let mut cur = report(&[(0, 0, 100), (1, 1, 100)]);
        cur.queries.clear();
        let w = cur.window_since(&prev);
        assert_eq!(w.shard_loads, vec![0, 0]);
        assert!(w.queries.is_empty());
        assert_eq!(w.total_ops(), 0);
        assert!((w.balance_ratio() - 1.0).abs() < 1e-12);
        // The degenerate zero-shard report also stays total and balanced.
        let empty = TelemetryReport::default();
        let w = empty.window_since(&prev);
        assert!(w.shard_loads.is_empty());
        assert!((w.balance_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn report_merges_histograms() {
        let mut r = report(&[(0, 0, 10), (1, 1, 20)]);
        r.queries[0].latency.record_us(100);
        r.queries[1].latency.record_us(1000);
        r.shards[0].queue_wait.record_us(5);
        assert_eq!(r.ingest_latency().count(), 2);
        assert_eq!(r.queue_wait().count(), 1);
        // Collapsing to a node load carries the merged queue-wait along.
        assert_eq!(r.as_node_load(3).queue_wait.count(), 1);
    }

    /// [`TelemetryReport::as_node_load`] merges each shard row by its
    /// kind: counters and gauges sum, maxima take the worst shard,
    /// histograms and censuses merge.
    #[test]
    fn node_load_merges_every_shard_row_by_its_kind() {
        let shard = |i: usize, v: u64| {
            let mut store = columnar::TupleStore::new(1).segment_rows(4);
            for row in 0..8 * v {
                store.push(&[columnar::Cell::Int(row as i64)], row);
            }
            let mut queue_wait = LatencyHistogram::new();
            queue_wait.record_us(v);
            let n = v as usize;
            ShardLoad {
                shard: i,
                queries: n,
                tuples_in: v,
                ops_invoked: v,
                batches: v,
                busy_seconds: v as f64,
                source_logs: n,
                log_cursors: n,
                cursor_classes: n,
                log_rows: n,
                log_bytes: v,
                window_batches: v,
                window_deliveries: v,
                filter_probes: v,
                backfilled_rows: v,
                private_windows: n,
                join_indexes: n,
                join_index_members: n,
                join_index_bytes: v,
                join_rows_walked: v,
                watermark: v,
                lag: v,
                queue_wait,
                footprint: Footprint {
                    resident: n,
                    spilled: n,
                    read_failures: v,
                    write_failures: v,
                    ..Footprint::of(&store)
                },
            }
        };
        // The larger shard first, so taking the last shard is no maximum.
        let report = TelemetryReport {
            shards: vec![shard(0, 2), shard(1, 1)],
            ..TelemetryReport::default()
        };
        let node = report.as_node_load(5);
        for &(name, kind, read) in SHARDS.rows {
            let parts: Vec<Reading> = report.shards.iter().map(read).collect();
            match (kind, read(&node)) {
                (_, Int(got)) => {
                    let ints = parts.iter().map(|r| match r {
                        Int(v) if *v > 0 => *v,
                        _ => panic!("{name}: shards must read non-zero"),
                    });
                    let want = match kind {
                        Max => ints.max().unwrap(),
                        Counter | Gauge => ints.sum(),
                    };
                    assert_eq!(got, want, "{name}");
                }
                (Counter | Gauge, Float(got, _)) => {
                    let floats = parts.iter().map(|r| match r {
                        Float(v, _) => *v,
                        _ => unreachable!(),
                    });
                    assert_eq!(got, floats.sum::<f64>(), "{name}");
                }
                (_, Reading::Histogram(got)) => {
                    let mut want = LatencyHistogram::new();
                    for r in &parts {
                        let Reading::Histogram(h) = r else {
                            unreachable!()
                        };
                        want.merge(h);
                    }
                    assert!(want.count() == 2 && *got == want, "{name}");
                }
                (_, Reading::Census(got)) => {
                    let want: Census = parts
                        .iter()
                        .map(|r| match r {
                            Reading::Census(c) if *c != Census::default() => *c,
                            _ => panic!("{name}: shards must read non-zero"),
                        })
                        .sum();
                    assert_eq!(got, want, "{name}");
                }
                _ => panic!("{name}: no merge rule for a {kind:?} of this reading"),
            }
        }
    }

    #[test]
    fn idle_window_is_balanced() {
        let r = report(&[(0, 0, 100), (1, 1, 100)]);
        let w = r.window_since(&r.clone());
        assert_eq!(w.total_ops(), 0);
        assert!((w.balance_ratio() - 1.0).abs() < 1e-12);
        assert!((LoadWindow::default().balance_ratio() - 1.0).abs() < 1e-12);
    }
}
