//! Sharded pipeline execution: the engine core partitioned across
//! worker shards, with full query lifecycle and a source-sharded,
//! barrier-free ingest plane.
//!
//! [`ShardedEngine`] hash-partitions *whole pipelines*: every
//! registered continuous query is placed on exactly one of N worker
//! shards by hashing its [`QueryId`], and each shard owns the disjoint
//! set of `QueryRuntime`s placed on it, **routing by what it holds**:
//! its tasks deliver to the runtimes a boundary concerns that are not
//! paused.
//!
//! The coordinator's side of routing is one `RouteCounts` table, a
//! plain field (every verb and admission takes `&mut self`, so nothing
//! shares it): per shard, the live queries scanning each source, indexing
//! each stream's window, reacting to the clock, and holding a push
//! subscription. Beside it, `Ingest` keeps the retained Table contents
//! (replay for late-registered and resumed queries) and the per-source
//! ingest counters. Ingest (`on_batch` / `on_deltas`) admission fans the
//! batch out to the shards whose count for its source is positive; there
//! is no whole-table rebuild anywhere — registration, deregistration,
//! pause, and migration add or remove one count per key of the affected
//! query (the order-independence of the resulting fan-out sets is pinned
//! by a unit test below).
//!
//! Recursive views are **maintained at admission**: the coordinator owns
//! them (`ViewSet`), and the call that admits a boundary — `on_batch`,
//! `on_deltas`, `heartbeat` — submits the base boundary, maintains every
//! view, then submits each view's net output deltas (DRed-style
//! deletions included — the deltas carry signs) as an ordinary delta
//! boundary to the query shards subscribed to that view's output. Each
//! shard therefore sees base boundary, view deltas and push flush in
//! FIFO order, under every scheduling mode. A heartbeat advances each
//! view's windowed bases through the same [`crate::window::WindowOp`] a
//! pipeline would put above that scan — an O(1) head check when nothing
//! expired.
//!
//! Queries are *not* permanent, and every lifecycle verb is a
//! composition of three private primitives, each written once:
//!
//! * **build** — compile the plan, make the sink, start the pipeline and
//!   replay retained tables and view materializations into it. All of a
//!   verb's fallible work is here or in the drain that follows it.
//! * **route** — land a runtime on its shard and, unless it is paused,
//!   wire it in: its log cursors and the route counts of the keys it
//!   holds. Infallible.
//! * **unroute** — the inverse, a no-op for a paused runtime: cursors
//!   out — each leaves its position, which a travelling runtime carries
//!   to where it is routed next — and the route counts. Infallible; the
//!   caller drained the shard first.
//!
//! Register is build + route; [`ShardedEngine::pause`] is unroute + set
//! the runtime's pause flag (the sink stays readable, frozen);
//! [`ShardedEngine::resume`] is build (a new runtime starts unpaused) +
//! carry the push channel over + route, so the resumed snapshot is
//! exactly what a fresh registration would see and a subscription gets
//! one consolidated catch-up diff; [`ShardedEngine::deregister`] is
//! unroute + drop, so per-source ingest cost always tracks **live**
//! fan-out; [`ShardedEngine::migrate`] is unroute + move the runtime +
//! route at the cursors' positions, the recipient's logs back-filled with
//! the rows they lack; a cross-node migration runs those same two halves
//! in two of a cluster's nodes, which share the cluster's query ids and
//! stream numbering, so the runtime lands under its own id. Because
//! build and the drains come first and route/unroute cannot fail, a verb
//! that returns `Err` has changed nothing.
//!
//! Shards live behind the `parking_lot` shim ([`Mutex<EngineShard>`]):
//! shard state is `Send`, cross-shard work is disjoint by construction
//! (a query's pipeline, sink, and cursors live on one shard).
//! Execution goes through the persistent `crate::executor::Executor`:
//! each ingest/heartbeat boundary becomes one task per involved shard,
//! pushed onto that shard's bounded FIFO queue. In pool mode the worker
//! threads drain the queues with batch boundaries as yield points —
//! ingest admission returns as soon as the tasks are enqueued, so a
//! shard hosting a slow query drains its backlog without stalling its
//! siblings; reads quiesce exactly the shards they touch. Sequential
//! mode runs the same tasks inline with identical results (shard-count
//! and scheduling-mode invariance are property-tested in
//! `tests/sharding.rs`, including under register/deregister/pause/
//! migration churn and under the seeded `Deterministic` interleavings).
//!
//! Reads come in two consistency levels
//! ([`crate::session::Consistency`]): `Fresh` drains the involved shards
//! first (the barrier), while `Cut` reads each shard's state at its
//! published **applied watermark** — a boundary-consistent past state,
//! lock-only, taken without stalling ingest. [`ShardedEngine::telemetry`]
//! defaults to `Cut` and reports each shard's watermark and staleness
//! lag, which the rebalance controller uses to skip observations too
//! stale to judge.
//!
//! What stays on the coordinator: the catalog, the front end
//! ([`crate::session`]'s plan cache and session table, shared with the
//! cluster coordinator), the query metas in registration order, the
//! route counts, the retained tables, the recursive views, and the
//! engine clock. The per-shard `busy` accounting measures
//! the wall time each shard spends inside its slice of the work; the
//! busiest shard's total is the critical path an N-core deployment
//! would see.

use std::cell::Cell;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::Duration;

use aspen_catalog::{Catalog, SourceKind, SourceMeta, SourceStats};
use aspen_optimizer::PlanCacheStats;
use aspen_sql::binder::BoundView;
use aspen_sql::plan::LogicalPlan;
use aspen_types::{
    AspenError, Field, QueryId, Result, SimDuration, SimTime, SourceId, Tuple, Value, WindowSpec,
};
use columnar::SegmentPool;
use parking_lot::Mutex;

use crate::delta::{Delta, DeltaBatch};
use crate::executor::{Boundary, Executor, ExecutorStats};
use crate::grouped::FilterKey;
use crate::pipeline::{Logs, Pipeline};
use crate::rebalance::RebalanceController;
use crate::recursive::RecursiveView;
use crate::session::{
    BoundSpec, Consistency, EngineConfig, FrontEnd, QuerySpec, Registration, Resolved,
    ResultSubscription, SessionId, SharedQueue, SubscriptionQueue,
};
use crate::sink::Sink;
use crate::state::{BagState, Footprint, StateOptions};
use crate::telemetry::{QueryLoad, ShardLoad, ShardMeters, TelemetryReport};
use crate::trace::{now_us, OpProfile, Span, SpanJournal, SpanKind, TraceCtx};
use crate::window::{Fed, IndexKey, Position, SourceLog, Stepped};

/// Handle to a registered continuous query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryHandle(pub QueryId);

/// Resident operator-state census across the engine — what the
/// shared-vs-private tests compare. Its bytes and spill counts add the
/// pipelines', logs' and tables' [`Footprint`]s, a pooled segment once.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentState {
    /// Operator node instances across all registered pipelines.
    pub operators: usize,
    /// Tuples buffered for windows: the rows every source log retains
    /// (once per shard however many of its windows cover it, counted per
    /// shard) plus the private windows of table and view scans.
    pub window_tuples: usize,
    /// Source logs across all shards — one per `(shard, stream source)`
    /// with at least one window attached. A log stores a row once per
    /// shard; a sealed segment is stored once per engine.
    pub source_logs: usize,
    /// Window cursors attached to those logs — one per stream scan of
    /// every live query, migrated or not (a self-join counts two).
    pub log_cursors: usize,
    /// Cursor classes across those logs — cursors in equal window state
    /// `(spec, head, pane)`, which share one materialized batch per log
    /// step. `log_cursors / cursor_classes` is the window-work sharing.
    pub cursor_classes: usize,
    /// Resident operator-state bytes across the engine: pipeline state
    /// (private windows, join sides, aggregate groups), each source log
    /// once, and the retained table store — measured; the benchmark's
    /// `state_bytes`.
    pub state_bytes: usize,
    /// The source logs' share of `state_bytes`: what the shards' logs
    /// hold privately, plus `log_shared_bytes`. A log's key indexes are
    /// part of it, each charged once however many join sides share it —
    /// to the shard's log, not to a query.
    pub log_bytes: usize,
    /// The pooled part of `log_bytes`: sealed segments, each counted once
    /// however many shards hold it. `ShardLoad::log_bytes` counts them per
    /// shard; the shards' sum minus `log_bytes` is what sharing saves.
    pub log_shared_bytes: usize,
    /// The retained tables' share of `state_bytes` (the report's
    /// `tables`); the rest is the pipelines' ([`TelemetryReport::queries`]).
    pub table_bytes: usize,
    /// Bytes currently paged out to the spill tier (disjoint from
    /// `state_bytes`).
    pub spilled_bytes: usize,
    /// Reads of a spilled segment that found its file missing or
    /// damaged; the rows of such a segment read as absent.
    pub spill_read_failures: u64,
    /// Spill passes ended by a file that could not be written; the
    /// segment stayed resident.
    pub spill_write_failures: u64,
}

/// One placed continuous query: its operator pipeline plus result sink.
pub(crate) struct QueryRuntime {
    pub(crate) pipeline: Pipeline,
    pub(crate) sink: Sink,
    /// Set by pause; a paused runtime is never routed. Resume builds a
    /// new runtime, unpaused; a migration carries the flag along.
    paused: bool,
}

impl QueryRuntime {
    /// Whether `key` is one of [`QueryRuntime::counted`].
    fn counts(&self, key: Counted) -> bool {
        match key {
            Counted::Scans(src) => self.pipeline.scans(src),
            Counted::Indexes(src) => self.pipeline.indexed_sources().contains(&src),
            Counted::Clock => self.pipeline.needs_clock(),
            Counted::Push => self.sink.pushes(),
        }
    }

    /// The [`RouteCounts`] keys that count this runtime while it is routed.
    fn counted(&self) -> Vec<Counted> {
        let scans = self.pipeline.sources().into_iter().map(Counted::Scans);
        let indexes = self.pipeline.indexed_sources().iter();
        let clock = self.pipeline.needs_clock().then_some(Counted::Clock);
        let push = self.sink.pushes().then_some(Counted::Push);
        let indexes = indexes.map(|&src| Counted::Indexes(src));
        scans.chain(indexes).chain(clock).chain(push).collect()
    }

    /// The query's current result, ORDER BY / LIMIT applied, as every read
    /// takes it: off the aggregate when the pipeline reads through, else
    /// off the sink's multiset — and kept by the sink until a batch
    /// changes the result.
    fn snapshot(&mut self) -> Result<Vec<Tuple>> {
        self.sink.read(|| self.pipeline.shown())
    }
}

/// A shard's runtimes, by id: in registration order.
type Runtimes = BTreeMap<QueryId, QueryRuntime>;

/// The routed (unpaused) runtimes `key` counts, in id order.
fn members(
    queries: &mut Runtimes,
    key: Counted,
) -> impl Iterator<Item = (&QueryId, &mut QueryRuntime)> {
    queries
        .iter_mut()
        .filter(move |(_, q)| !q.paused && q.counts(key))
}

/// Enter a view's name and schema in the catalog: the source its output
/// is published under, one for every engine that installs the view.
pub(crate) fn view_source(catalog: &Catalog, bound: &BoundView) -> Result<SourceId> {
    let (schema, stats) = (bound.schema.clone(), SourceStats::default());
    catalog.register_source(&bound.name, schema, SourceKind::View, stats)
}

/// A query [`ShardedEngine::retire`] lifted out of its shard, in flight
/// to [`ShardedEngine::land`] — on another shard, or on another node of a
/// cluster. Holds the query's id, the running [`QueryRuntime`] (operator
/// state, sink ledger, push subscription, pause flag), its cursors'
/// [`Positions`] and its coordinator record.
pub(crate) struct DetachedQuery {
    id: QueryId,
    runtime: QueryRuntime,
    meta: QueryMeta,
    at: Positions,
}

/// Per source, `(source, first row id, rows)` a log lacks.
pub(crate) type Backfill = Vec<(SourceId, u64, Vec<Tuple>)>;

/// Per stream source, the first row a shard's log retains, if any.
pub(crate) type Floors = HashMap<SourceId, u64>;

/// Where each of a query's cursors stood, by source.
type Cursors = Vec<(SourceId, Position)>;

/// Where a travelling query's cursors stood, and the rows its recipient's
/// logs lack for them; empty for a new runtime's cursors, at the tails.
#[derive(Default)]
pub(crate) struct Positions {
    cursors: Cursors,
    backfill: Backfill,
}

/// What one row of [`RouteCounts`] counts per shard: the live queries
/// that scan a source, that index a stream's window in a join side, that
/// react to the clock, or that have a push subscription attached.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Counted {
    Scans(SourceId),
    Indexes(SourceId),
    Clock,
    Push,
}

/// The coordinator's route-count table: per [`Counted`] key, the live
/// count on each shard, absent at all zeros. A key's fan-out is its
/// shards above zero, read in ascending order — a pure function of the
/// live queries, independent of the order they came and went.
#[derive(Default)]
struct RouteCounts(HashMap<Counted, Vec<u32>>);

impl RouteCounts {
    fn add(&mut self, key: Counted, shard: usize, nshards: usize) {
        self.0.entry(key).or_insert_with(|| vec![0; nshards])[shard] += 1;
    }

    /// The inverse of [`RouteCounts::add`].
    fn remove(&mut self, key: Counted, shard: usize) {
        if let Some(counts) = self.0.get_mut(&key) {
            counts[shard] = counts[shard].saturating_sub(1);
            if counts.iter().all(|&c| c == 0) {
                self.0.remove(&key);
            }
        }
    }

    /// Shards where `key` counts a live query, ascending.
    fn fanout(&self, key: Counted) -> Vec<usize> {
        self.0.get(&key).map_or_else(Vec::new, |counts| {
            (0..counts.len()).filter(|&i| counts[i] > 0).collect()
        })
    }

    /// Live queries `key` counts across all shards.
    fn total(&self, key: Counted) -> usize {
        self.0
            .get(&key)
            .map_or(0, |c| c.iter().map(|&c| c as usize).sum())
    }
}

/// What the coordinator keeps per source as it admits: the retained
/// Table contents and the ingest counters.
#[derive(Default)]
struct Ingest {
    /// Retained contents of Table sources so late-registered (and
    /// resumed) queries and views can replay them (streams are not
    /// replayed — standard semantics).
    tables: HashMap<SourceId, BagState>,
    /// Cumulative tuples/deltas ingested per source.
    tuples_in: HashMap<SourceId, u64>,
    /// Latest stamp each stream-like source has delivered in a batch.
    latest: HashMap<SourceId, SimTime>,
    /// Next arrival number of each stream-like source: a batch's tuples
    /// are numbered here, and every shard's log uses them as row ids.
    arrivals: HashMap<SourceId, u64>,
    /// Batch tuples that arrived stamped below their source's `latest`:
    /// admitted as they come, expired in arrival order (the prefix rule
    /// of [`crate::window`]) — this count is how an operator sees it.
    out_of_order: u64,
}

impl Ingest {
    /// What the retained tables hold.
    fn footprint(&self) -> Footprint {
        self.tables.values().map(BagState::footprint).sum()
    }
}

/// A recursive view and the source its output is published under.
struct ViewRuntime {
    view: RecursiveView,
    out_source: SourceId,
}

/// Each view's non-empty net output of one maintenance step, under its
/// output source, in registration order.
type ViewOutput = Vec<(SourceId, DeltaBatch)>;

/// The recursive views of the engine, in registration order. The
/// coordinator owns them and maintains them inside the call that admits
/// a boundary; their net output deltas — DRed-style deletions included,
/// since the deltas carry signs — travel to the query shards as ordinary
/// delta boundaries. A view may read views: registration order puts
/// every view it reads before it, so one pass in that order feeds each
/// view the outputs of the views before it in the same step.
#[derive(Default)]
struct ViewSet {
    views: Vec<ViewRuntime>,
}

impl ViewSet {
    /// Whether some view reads `src` as a base relation.
    fn reads(&self, src: SourceId) -> bool {
        self.views.iter().any(|v| v.view.reads(src))
    }

    /// Run one maintenance step on every view, in registration order,
    /// each view then fed what the views before it output. A failing
    /// view keeps nothing from the views after it: the healthy views'
    /// output is returned with the first error.
    fn maintain(
        &mut self,
        mut step: impl FnMut(&mut RecursiveView) -> Result<DeltaBatch>,
    ) -> (ViewOutput, Result<()>) {
        let mut out: ViewOutput = Vec::new();
        let mut served = Ok(());
        for vr in &mut self.views {
            let fed = step(&mut vr.view).and_then(|mut got| {
                for (src, deltas) in &out {
                    got.extend(vr.view.on_base_deltas(*src, deltas)?);
                }
                Ok(got)
            });
            match fed {
                Ok(got) if got.is_empty() => {}
                Ok(got) => out.push((vr.out_source, got)),
                Err(e) => served = served.and(Err(e)),
            }
        }
        (out, served)
    }

    /// Current materialization of the view publishing `out_source`.
    fn snapshot_of(&self, out_source: SourceId) -> Option<Vec<Tuple>> {
        let vr = self.views.iter().find(|v| v.out_source == out_source)?;
        Some(vr.view.snapshot())
    }

    fn by_name(&self, name: &str) -> Option<&RecursiveView> {
        let mut views = self.views.iter().map(|v| &v.view);
        views.find(|v| v.name().eq_ignore_ascii_case(name))
    }
}

/// Coordinator-side record of one registered query: what its runtime
/// cannot say — where it lives, and what rebuilds and retunes it.
struct QueryMeta {
    shard: usize,
    /// The bound plan, kept for the resume replay path.
    plan: Arc<LogicalPlan>,
    max_batch: Option<usize>,
    max_delay: Option<SimDuration>,
    /// Knobs are optimizer-owned: `auto_tune` may overwrite them.
    auto: bool,
    /// Measurement mark of the last knob tune: (sink deltas applied,
    /// engine boundaries, engine clock) — the window the next
    /// output-rate and boundary-rate estimates span.
    tune_mark: (u64, u64, SimTime),
}

/// A stream scan to attach as a cursor: `(scan, source, spec, pool,
/// leading filter key, key index of the join side it feeds)`.
type CursorScan = (
    usize,
    SourceId,
    WindowSpec,
    SegmentPool,
    Option<FilterKey>,
    Option<IndexKey>,
);

/// One ingest call's payload: a source batch (windowed at each scan) or
/// signed deltas (window-bypassing). The cluster ships either across a
/// link and re-admits it as the same variant, so the remote admission
/// path always mirrors the home's.
#[derive(Clone, Copy)]
pub(crate) enum Admission<'a> {
    Batch(&'a [Tuple]),
    Deltas(&'a DeltaBatch),
}

impl<'a> Admission<'a> {
    pub(crate) fn len(&self) -> usize {
        match self {
            Admission::Batch(tuples) => tuples.len(),
            Admission::Deltas(deltas) => deltas.len(),
        }
    }

    /// The payload's rows: a batch's tuples, or each delta's.
    pub(crate) fn rows(self) -> impl Iterator<Item = &'a Tuple> {
        let (tuples, deltas): (&[Tuple], &[Delta]) = match self {
            Admission::Batch(tuples) => (tuples, &[]),
            Admission::Deltas(deltas) => (&[], deltas.as_slice()),
        };
        tuples.iter().chain(deltas.iter().map(|d| &d.tuple))
    }

    /// Refuse, as [`AspenError::InvalidArgument`], a payload holding a row
    /// whose arity is not the width of `source`'s schema or, for a Table,
    /// a cell neither NULL nor of a type its column accepts — before
    /// anything stores, numbers, counts or queues it. A Table's rows are
    /// retained and replayed into every later registration, so one
    /// mistyped cell would fail them all; stream rows are never replayed.
    pub(crate) fn check_rows(self, source: &SourceMeta) -> Result<()> {
        let (fields, width) = (source.schema.fields(), source.schema.len());
        let typed = if source.kind == SourceKind::Table {
            width
        } else {
            0
        };
        let mistyped =
            |(f, v): &(&Field, &Value)| v.data_type().is_some_and(|d| !f.data_type.accepts(d));
        let odd = |t: &Tuple| {
            if t.len() != width {
                return Some(format!("has {} columns; its schema has {width}", t.len()));
            }
            let (f, v) = fields.iter().zip(t.values()).take(typed).find(mistyped)?;
            Some(format!(
                "holds {v:?} in its {} column '{}'",
                f.data_type, f.name
            ))
        };
        match self
            .rows()
            .enumerate()
            .find_map(|(i, t)| Some((i, odd(t)?)))
        {
            None => Ok(()),
            Some((row, why)) => Err(AspenError::InvalidArgument(format!(
                "row {row} of the batch for '{}' {why}",
                source.name
            ))),
        }
    }
}

/// What one shard's source logs hold (see [`EngineShard::log_census`]).
#[derive(Default)]
struct LogCensus {
    logs: usize,
    cursors: usize,
    classes: usize,
    rows: usize,
    /// Their key indexes, the join sides that are members of them, and
    /// what the indexes hold.
    indexes: usize,
    members: usize,
    index_bytes: usize,
    /// Shared segments at full size, their share in `pooled`; the key
    /// indexes once each.
    footprint: Footprint,
}

/// A shard's logs as its pipelines read them, counting the ids join
/// sides walk.
struct ShardLogs<'a> {
    logs: &'a HashMap<SourceId, SourceLog>,
    walked: Cell<u64>,
}

impl<'a> ShardLogs<'a> {
    fn new(logs: &'a HashMap<SourceId, SourceLog>) -> Self {
        let walked = Cell::new(0);
        ShardLogs { logs, walked }
    }
}

impl Logs for ShardLogs<'_> {
    fn get(&self, src: SourceId, row: u64) -> Option<Tuple> {
        self.logs.get(&src)?.get(row)
    }

    fn walk(&self, src: SourceId, slot: u32, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
        if let Some(log) = self.logs.get(&src) {
            let walked = &self.walked;
            log.walk(slot, hash, &mut |row| {
                walked.set(walked.get() + 1);
                visit(row)
            });
        }
    }

    fn index_floor(&self, src: SourceId, slot: u32) -> u64 {
        self.logs.get(&src).map_or(0, |log| log.index_floor(slot))
    }
}

/// One worker shard: a disjoint set of query runtimes by id, and the
/// logs their stream scans are cursors on. Stream batches reach the
/// cursors; all else reaches the [`members`] of its key. Every member
/// runs, in id order, and the first error is returned. Tasks mutate
/// runtimes, logs and meters; pause flags, push channels and cursors
/// change only under quiescence, when the coordinator runs a verb.
#[derive(Default)]
pub(crate) struct EngineShard {
    queries: Runtimes,
    /// The arrival log of every stream source some local window covers;
    /// the last cursor out frees the log. Every stream scan of a live
    /// query is a cursor on these ([`Pipeline::stream_scans`]).
    logs: HashMap<SourceId, SourceLog>,
    /// Lock-local telemetry counters (tuples in, slices run, busy time).
    pub(crate) meters: ShardMeters,
}

impl EngineShard {
    pub(crate) fn push_batch(
        &mut self,
        src: SourceId,
        first: u64,
        tuples: &[Tuple],
        trace: Option<TraceCtx>,
    ) -> Result<()> {
        let EngineShard {
            queries,
            logs,
            meters,
        } = self;
        let mut served = Ok(());
        let Some(log) = logs.get_mut(&src) else {
            // A table's batch: each routed scan of it windows it itself.
            meters.tuples_in += tuples.len() as u64;
            let rows = ShardLogs::new(logs);
            for (_, q) in members(queries, Counted::Scans(src)) {
                let run = q.pipeline.push_source_over(src, tuples, &mut q.sink, &rows);
                if let Some(ctx) = &trace {
                    q.sink.latency.record_us(ctx.elapsed_us());
                }
                served = served.and(run);
            }
            meters.join_rows_walked += rows.walked.get();
            return served;
        };
        // Step a stream's log, whose cursors are all its routed scans: it
        // stores the batch once (metered once), windows it once per cursor
        // class and probes each class batch once per filter group.
        let step = log.insert_batch(src, first, tuples, meters)?;
        meters.tuples_in += tuples.len() as u64;
        let rows = ShardLogs::new(logs);
        // Deliver: each query borrows the deltas its own windows over
        // `src` would have emitted — or its grouped filter's output on
        // them — and reads rows off any log.
        for (qid, mut fed) in logs[&src].fed(&step) {
            let q = queries.get_mut(&qid).expect("a cursor's query is local");
            let run = q
                .pipeline
                .push_windowed(&mut fed, tuples.len() as u64, &mut q.sink, &rows);
            if let Some(ctx) = &trace {
                q.sink.latency.record_us(ctx.elapsed_us());
            }
            served = served.and(run);
        }
        meters.join_rows_walked += rows.walked.get();
        // Release, now that no pipeline can ask for an evicted row.
        logs.get_mut(&src)
            .expect("stepped above")
            .release(Some(&step));
        served
    }

    pub(crate) fn push_deltas(
        &mut self,
        src: SourceId,
        deltas: &DeltaBatch,
        trace: Option<TraceCtx>,
    ) -> Result<()> {
        let charge = deltas.len() as u64;
        self.meters.tuples_in += charge;
        // Consolidated once here, not once per routed scan.
        let deltas = &deltas.clone().consolidated();
        let rows = ShardLogs::new(&self.logs);
        let mut served = Ok(());
        for (_, q) in members(&mut self.queries, Counted::Scans(src)) {
            let run = q
                .pipeline
                .push_deltas_over(src, deltas, charge, &mut q.sink, &rows);
            if let Some(ctx) = &trace {
                q.sink.latency.record_us(ctx.elapsed_us());
            }
            served = served.and(run);
        }
        self.meters.join_rows_walked += rows.walked.get();
        served
    }

    pub(crate) fn advance_time(&mut self, now: SimTime) -> Result<()> {
        let EngineShard {
            queries,
            logs,
            meters,
        } = self;
        // Step every log: cursor expiry is computed once per class.
        let stepped: Vec<(SourceId, Stepped)> = logs
            .iter_mut()
            .map(|(&src, log)| (src, log.advance(now, meters)))
            .collect();
        // Deliver, regrouped per query so each pipeline expires its
        // scans in scan order whichever side windows them, with every
        // log readable: a retraction on one side of a join probes the
        // other side's rows, whether or not this step expires them too.
        let rows = ShardLogs::new(logs);
        let mut expired: HashMap<QueryId, Vec<(usize, Fed)>> = HashMap::new();
        for (src, step) in &stepped {
            for (qid, fed) in logs[src].fed(step) {
                for fired in fed.filter(|(_, fed)| !fed.window.is_empty()) {
                    expired.entry(qid).or_default().push(fired);
                }
            }
        }
        let mut served = Ok(());
        for (qid, q) in members(queries, Counted::Clock) {
            let fed = expired.get(qid).map_or(&[][..], Vec::as_slice);
            served = served.and(q.pipeline.advance_scans(now, fed, &mut q.sink, &rows));
        }
        meters.join_rows_walked += rows.walked.get();
        // Release only now (on an error too).
        for (src, step) in &stepped {
            let log = self.logs.get_mut(src).expect("stepped above");
            log.release(Some(step));
        }
        served
    }

    /// Deliver pending push batches for every routed subscribed sink.
    pub(crate) fn flush_push(&mut self, now: SimTime) {
        for (_, q) in members(&mut self.queries, Counted::Push) {
            q.sink.flush_push(now, false);
        }
    }

    /// Unroute a query here: detach its cursors (its runtime stays —
    /// pause keeps the sink readable), which release the rows only they
    /// pinned (the last one frees the log). Returns the route-count keys
    /// the runtime held and where each cursor stood; nothing for a paused
    /// runtime, which is out already.
    fn detach(&mut self, qid: QueryId) -> Option<(Vec<Counted>, Cursors)> {
        let rt = self.queries.get_mut(&qid).expect("a local query");
        if rt.paused {
            return None;
        }
        let keys = rt.counted();
        let mut cursors = Vec::new();
        for key in &keys {
            let Counted::Scans(src) = *key else { continue };
            if let Some(log) = self.logs.get_mut(&src) {
                cursors.extend(log.detach(qid).into_iter().map(|at| (src, at)));
                if log.cursors() == 0 {
                    self.logs.remove(&src);
                }
            }
        }
        for (_, at) in &cursors {
            rt.pipeline.set_member(at.scan, None);
        }
        Some((keys, cursors))
    }

    /// Attach a query's stream scans as cursors on their sources' logs,
    /// creating a log (sharing segments through its source's pool) for a
    /// source's first window — at the tails, O(1) however much a log holds
    /// (streams are never replayed), or at a travelling runtime's
    /// positions once its logs are back-filled. In scan order, so a
    /// query's cursors on one log are adjacent and ordered.
    fn attach_cursors(
        &mut self,
        qid: QueryId,
        scans: &[CursorScan],
        mut at: Positions,
        opts: &StateOptions,
    ) {
        let pipeline = &mut self.queries.get_mut(&qid).expect("routed").pipeline;
        for (scan, src, spec, pool, filter, index) in scans {
            let log = self
                .logs
                .entry(*src)
                .or_insert_with(|| SourceLog::new(opts, pool.clone()));
            if let Some(i) = at.backfill.iter().position(|b| b.0 == *src) {
                let (_, first, rows) = at.backfill.swap_remove(i);
                self.meters.backfilled_rows += log.backfill(first, &rows);
            }
            let moved = at.cursors.iter().find(|(_, p)| p.scan == *scan);
            let at = moved.map_or_else(|| Position::fresh(*scan, *spec), |c| c.1);
            let slot = log.attach(qid, at, filter.as_ref(), index.as_ref());
            pipeline.set_member(*scan, slot);
        }
    }

    /// Census of this shard's source logs. A log is shard residency,
    /// charged once — never once per cursor (mirrors the ops
    /// attribution rule).
    fn log_census(&self) -> LogCensus {
        let mut out = LogCensus {
            logs: self.logs.len(),
            ..LogCensus::default()
        };
        for log in self.logs.values() {
            out.cursors += log.cursors();
            out.classes += log.classes();
            out.rows += log.rows();
            for (members, bytes) in log.join_indexes() {
                out.indexes += 1;
                out.members += members;
                out.index_bytes += bytes;
            }
            out.footprint += log.footprint();
        }
        out
    }
}

/// PC-side query engine partitioned across N worker shards.
pub struct ShardedEngine {
    catalog: Arc<Catalog>,
    /// Boundary-task executor: owns the shard cells (and, in pool mode,
    /// the persistent worker threads draining their queues).
    exec: Executor,
    /// Every registered query (live and paused), by id — in registration
    /// order, since ids are issued in it and never reused.
    queries: BTreeMap<QueryId, QueryMeta>,
    next_query: u32,
    /// SQL resolution (plan-template cache) and the session table.
    front: FrontEnd,
    /// Shard count: one executor cell each.
    nshards: usize,
    /// Per shard, the live queries behind each fan-out: a source's
    /// scans, a stream's join indexes, the clock, the push flush.
    routes: RouteCounts,
    /// Retained tables and per-source ingest counters.
    ingest: Ingest,
    /// The recursive views, maintained inside the admitting call.
    views: ViewSet,
    now: SimTime,
    /// Batch boundaries processed so far (ingest calls + heartbeats).
    boundaries: u64,
    /// Adaptive rebalancing, when enabled by [`EngineConfig::rebalance`].
    rebalancer: Option<RebalanceController>,
    /// Queries live-migrated between shards so far.
    migrations: u64,
    /// This engine's node id in a cluster — stamped as the origin into
    /// every trace context created here; 0 standalone.
    node_id: u32,
    /// Admission sequence for trace contexts.
    next_batch: u64,
    /// Sampled span journal: admissions (1-in-16), migrations,
    /// rebalance decisions, knob retunes.
    journal: SpanJournal,
    /// Spill policy for every stateful operator
    /// ([`EngineConfig::spill`]).
    state_opts: StateOptions,
    /// The segment pool each stream source's logs share across shards;
    /// siblings, so one counter holds `log_shared_bytes`.
    log_pools: HashMap<SourceId, SegmentPool>,
}

/// The engine's older name. Kept, with [`ShardedEngine::sharded`], only
/// because the frozen `benchmark/` crate spells both.
pub type StreamEngine = ShardedEngine;

impl ShardedEngine {
    /// Identity — see [`StreamEngine`].
    pub fn sharded(&self) -> &Self {
        self
    }

    /// Engine with `shards` worker shards and default settings. Shard
    /// count 1 is exactly the unsharded engine: one shard owning every
    /// query and the whole routing index.
    pub fn new(catalog: Arc<Catalog>, shards: usize) -> Self {
        ShardedEngine::with_config(catalog, EngineConfig::new().shards(shards))
    }

    /// Engine built from an [`EngineConfig`] — shard count, scheduling
    /// mode, worker count, and queue depth are fixed for the engine's
    /// lifetime.
    pub fn with_config(catalog: Arc<Catalog>, config: EngineConfig) -> Self {
        let n = config.shard_count();
        let cores = std::thread::available_parallelism().map_or(1, |p| p.get());
        ShardedEngine {
            catalog,
            exec: Executor::new(
                n,
                config.resolve_scheduling(cores),
                config.resolve_workers(cores),
                config.resolve_queue_depth(),
            ),
            queries: BTreeMap::new(),
            next_query: 0,
            front: FrontEnd::default(),
            nshards: n,
            routes: RouteCounts::default(),
            ingest: Ingest::default(),
            views: ViewSet::default(),
            now: SimTime::ZERO,
            boundaries: 0,
            rebalancer: config.rebalance_config().map(RebalanceController::new),
            migrations: 0,
            node_id: 0,
            next_batch: 0,
            journal: SpanJournal::default(),
            state_opts: config.resolve_state_options(),
            log_pools: HashMap::new(),
        }
    }

    /// Set this engine's node id — the cluster constructor calls this so
    /// trace contexts created here carry the right origin.
    pub fn set_node_id(&mut self, node: u32) {
        self.node_id = node;
    }

    /// The engine's span journal (sampled admissions, migrations,
    /// rebalance decisions, knob retunes).
    pub fn journal(&self) -> &SpanJournal {
        &self.journal
    }

    /// Trace context for one admitted batch. Samples an admission span
    /// into the journal.
    fn make_ctx(&mut self) -> TraceCtx {
        let ctx = TraceCtx::new(self.node_id, self.next_batch);
        self.next_batch += 1;
        if SpanJournal::sample_admit(ctx.batch) {
            self.journal.record(Span {
                at_us: ctx.admit_us,
                node: self.node_id,
                batch: ctx.batch,
                kind: SpanKind::Admit,
                detail: 0,
            });
        }
        ctx
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Shard count.
    pub fn shard_count(&self) -> usize {
        self.nshards
    }

    /// One shard's state cell. Callers that must observe every
    /// submitted boundary quiesce first; callers reading only what
    /// changes under quiescence (the runtimes' pause flags and push
    /// channels, the cursors), may lock directly.
    fn shard(&self, i: usize) -> &Mutex<EngineShard> {
        self.exec.shard(i)
    }

    /// Drain every shard's pending boundary tasks (a global barrier;
    /// point reads quiesce only the shard they touch). Surfaces any
    /// deferred task error the drain uncovered.
    pub fn quiesce(&mut self) -> Result<()> {
        self.exec.quiesce_all()
    }

    /// Scheduling statistics of the executor (queue depths, admission
    /// stall, tasks executed) — the observability surface the isolation
    /// tests and the benchmark read.
    pub fn executor_stats(&self) -> ExecutorStats {
        self.exec.stats()
    }

    /// Inject an artificial per-batch processing drag into one query's
    /// pipeline (test/bench instrumentation for slow-consumer
    /// scenarios). `None` removes it. The drag travels with migrations
    /// (it lives in the pipeline) but, like all pipeline state, is
    /// rebuilt away by a pause/resume cycle.
    pub fn set_query_drag(&mut self, q: QueryHandle, drag: Option<Duration>) -> Result<()> {
        let shard_idx = self.meta(q)?.shard;
        self.exec.quiesce(shard_idx)?;
        let mut shard = self.shard(shard_idx).lock();
        let rt = shard
            .queries
            .get_mut(&q.0)
            .expect("registered query keeps a runtime");
        rt.pipeline.set_drag(drag);
        Ok(())
    }

    /// Registered queries (live + paused).
    pub fn query_count(&self) -> usize {
        self.queries.len()
    }

    /// One coherent load snapshot of the whole engine: per-shard meters
    /// (tuples in, operator invocations, slices run, busy wall time) and
    /// per-query meters (tuples in, ops, output deltas, push batches) in
    /// registration order. This is the single metering surface — the
    /// rebalancer, the knob auto-tuner, the benches, and the GUI all
    /// read it; the old `shard_busy_seconds` / `shard_ops_invoked` /
    /// `shard_query_counts` accessors folded into it.
    ///
    /// This is a [`Consistency::Cut`] read — `telemetry_at(Cut)` — and
    /// so **not** the same default as [`ShardedEngine::snapshot`], which
    /// is `Fresh`: under pool or deterministic scheduling a report taken
    /// right after an `on_batch` may predate that batch (each shard's
    /// `lag` says by how much). Code that must observe everything it
    /// admitted reads `telemetry_at(Consistency::Fresh)`.
    pub fn telemetry(&self) -> TelemetryReport {
        self.telemetry_at(Consistency::default())
    }

    /// [`ShardedEngine::telemetry`] at an explicit consistency level.
    /// `Fresh` drains every shard first (the old global barrier); `Cut`
    /// locks each shard as-is and reads the state at its published
    /// applied watermark — a boundary-consistent past cut, taken without
    /// stalling ingest. Each [`ShardLoad`] reports that watermark and
    /// its lag behind submissions.
    pub fn telemetry_at(&self, consistency: Consistency) -> TelemetryReport {
        if consistency == Consistency::Fresh {
            self.exec.settle_all();
        }
        let mut shards = Vec::with_capacity(self.shard_count());
        let mut queries = Vec::with_capacity(self.queries.len());
        let mut profile = OpProfile::default();
        for i in 0..self.shard_count() {
            // Read the watermark pair *before* locking: once the lock is
            // held the applied counter cannot move, so the state read is
            // at least as fresh as the published watermark.
            let (submitted, applied) = self.exec.watermark(i);
            let shard = self.shard(i).lock();
            let mut ops = 0u64;
            let mut footprint = Footprint::default();
            let mut private_windows = 0;
            for (qid, rt) in &shard.queries {
                private_windows += rt.pipeline.private_windows();
                ops += rt.pipeline.ops_invoked;
                let held = rt.pipeline.footprint();
                footprint += held;
                profile.merge(&rt.pipeline.profile);
                let paused = rt.paused;
                queries.push(QueryLoad {
                    query: *qid,
                    shard: i,
                    paused,
                    tuples_in: rt.pipeline.tuples_in,
                    ops_invoked: rt.pipeline.ops_invoked,
                    output_deltas: rt.sink.deltas_applied,
                    push_batches: rt.sink.push_batches_delivered(),
                    shared: !paused && rt.pipeline.stream_scans().next().is_some(),
                    grouped_filter: !paused && rt.pipeline.grouped_filter(),
                    private_windows: rt.pipeline.private_windows(),
                    latency: rt.sink.latency.clone(),
                    state_bytes: held.resident as u64,
                    groups: rt.pipeline.groups() as u64,
                });
            }
            let logs = shard.log_census();
            footprint += logs.footprint;
            shards.push(ShardLoad {
                shard: i,
                queries: shard.queries.len(),
                tuples_in: shard.meters.tuples_in,
                ops_invoked: ops,
                batches: shard.meters.batches,
                busy_seconds: shard.meters.busy.as_secs_f64(),
                source_logs: logs.logs,
                log_cursors: logs.cursors,
                cursor_classes: logs.classes,
                log_rows: logs.rows,
                log_bytes: logs.footprint.resident as u64,
                window_batches: shard.meters.window_batches,
                window_deliveries: shard.meters.window_deliveries,
                filter_probes: shard.meters.filter_probes,
                backfilled_rows: shard.meters.backfilled_rows,
                private_windows,
                join_indexes: logs.indexes,
                join_index_members: logs.members,
                join_index_bytes: logs.index_bytes as u64,
                join_rows_walked: shard.meters.join_rows_walked,
                watermark: applied,
                lag: submitted.saturating_sub(applied),
                queue_wait: shard.meters.queue_wait.clone(),
                footprint,
            });
        }
        // Ids are issued in registration order.
        queries.sort_unstable_by_key(|q| q.query);
        TelemetryReport {
            shards,
            queries,
            workers: self.exec.worker_loads(),
            boundaries: self.boundaries,
            out_of_order_tuples: self.ingest.out_of_order,
            log_shared_bytes: self.log_shared_bytes() as u64,
            tables: self.ingest.footprint(),
            now_secs: self.now.as_secs_f64(),
            profile,
            scheduling: self.exec.scheduling,
        }
    }

    /// Queries live-migrated between shards so far (forced + adaptive).
    pub fn migration_count(&self) -> u64 {
        self.migrations
    }

    /// Cumulative tuples/deltas ingested for a source — the measured
    /// counterpart of the catalog's declared `rate_hz`.
    pub fn source_tuples_in(&self, src: SourceId) -> u64 {
        self.ingest.tuples_in.get(&src).copied().unwrap_or(0)
    }

    /// Number of *live* queries subscribed to a source across all shards
    /// (its route counts; paused and deregistered queries do not count —
    /// exposed for tests and the fan-out benches).
    pub fn subscriber_count(&self, source: SourceId) -> usize {
        self.routes.total(Counted::Scans(source))
    }

    /// Which shard a query id hashes to.
    pub fn shard_of(&self, qid: QueryId) -> usize {
        let mut h = DefaultHasher::new();
        qid.0.hash(&mut h);
        (h.finish() % self.shard_count() as u64) as usize
    }

    // -----------------------------------------------------------------
    // Sessions and registration
    // -----------------------------------------------------------------

    /// Open a client session. Registrations made through it are retired
    /// together by [`ShardedEngine::close_session`].
    pub fn open_session(&mut self) -> SessionId {
        self.front.open_session()
    }

    /// Deregister every *query* still registered in `session` and forget
    /// the session. Returns how many queries were retired. Views created
    /// through the session are shared catalog objects (other clients'
    /// queries may scan them) and deliberately survive it.
    pub fn close_session(&mut self, session: SessionId) -> Result<usize> {
        let removed = self.front.close_session(session)?;
        for &qid in &removed {
            self.drop_query(qid);
        }
        Ok(removed.len())
    }

    /// Register a [`QuerySpec`] outside any session.
    pub fn register(&mut self, spec: QuerySpec) -> Result<Registration> {
        self.do_register(None, spec)
    }

    /// Register a [`QuerySpec`] in a client session.
    pub fn register_in(&mut self, session: SessionId, spec: QuerySpec) -> Result<Registration> {
        self.do_register(Some(session), spec)
    }

    /// Compile and register a SQL statement with default delivery.
    pub fn register_sql(&mut self, sql: &str) -> Result<Registration> {
        self.register(QuerySpec::sql(sql))
    }

    /// Register an already-planned continuous query with default
    /// delivery.
    pub fn register_plan(&mut self, plan: &LogicalPlan) -> Result<QueryHandle> {
        match self.register(QuerySpec::plan(plan.clone()))? {
            Registration::Query(h) => Ok(h),
            Registration::View(_) => unreachable!("plan specs register queries"),
        }
    }

    fn do_register(&mut self, session: Option<SessionId>, spec: QuerySpec) -> Result<Registration> {
        let bound = match self.front.resolve(session, spec, &self.catalog)? {
            Resolved::Query(bound) => bound,
            Resolved::View(view) => return self.register_view(&view).map(Registration::View),
        };
        let qid = QueryId(self.next_query);
        self.place(qid, bound)?;
        self.front.enroll(session, qid);
        self.next_query += 1;
        Ok(Registration::Query(QueryHandle(qid)))
    }

    /// Register a bound query under `qid`: build its runtime, place it on
    /// `hash(qid) % shards`, and route it. The cluster coordinator enters
    /// here with what its own front end resolved, under the id it issued;
    /// its placement hint means nothing inside one node. The caller
    /// enrolls the query in its session.
    pub(crate) fn place(&mut self, qid: QueryId, bound: BoundSpec) -> Result<()> {
        let BoundSpec {
            plan,
            push,
            max_batch,
            max_delay,
            auto,
            node: _,
        } = bound;
        let mut rt = self.build(&plan, push.then_some((max_batch, max_delay)))?;
        // Registration itself is a batch boundary: deliver the replayed
        // state now so a push subscription is immediately consistent
        // with a snapshot poll.
        rt.sink.flush_push(self.now, true);
        let shard = self.shard_of(qid);
        // Boundaries already queued for this shard predate the
        // registration and must not route to the freshly replayed
        // pipeline (they would double-deliver what the replay seeded).
        self.exec.quiesce(shard)?;
        self.queries.insert(
            qid,
            QueryMeta {
                shard,
                plan,
                max_batch,
                max_delay,
                auto,
                tune_mark: (rt.sink.deltas_applied, self.boundaries, self.now),
            },
        );
        self.route(qid, rt, Positions::default());
        Ok(())
    }

    // -----------------------------------------------------------------
    // Lifecycle primitives: build, route, unroute
    // -----------------------------------------------------------------

    /// **Build** a runtime for `plan`: compile, make the sink, start the
    /// pipeline, and replay retained table contents and current view
    /// materializations so the query starts consistent. `fresh_push`
    /// carries the micro-batch knobs of a channel to create (resume
    /// carries the old channel over instead); without one, an aggregate
    /// root is read through ([`Pipeline::read_through`]). Touches nothing:
    /// a failed build leaves the engine as it was.
    fn build(
        &self,
        plan: &LogicalPlan,
        fresh_push: Option<(Option<usize>, Option<SimDuration>)>,
    ) -> Result<QueryRuntime> {
        let mut pipeline = Pipeline::compile_with(plan, &self.state_opts)?;
        pipeline.timed = true;
        let mut sink = pipeline.make_sink();
        match fresh_push {
            Some((max_batch, max_delay)) => {
                Self::check_push_compatible(&pipeline)?;
                // Attach before the first delta can flow, so the
                // subscription sees everything from the initial aggregate
                // rows onward.
                let queue: SharedQueue = Arc::new(Mutex::new(SubscriptionQueue::default()));
                sink.attach_push(queue, HashMap::new(), max_batch, max_delay);
            }
            None => pipeline.read_through(),
        }
        pipeline.start(&mut sink)?;
        // `Pipeline::sources()` is deduplicated: a source scanned under
        // several aliases is replayed exactly once (push_source feeds
        // every scan bound to it), so rows are not multiplied by the
        // alias count.
        for src in pipeline.sources() {
            // A view is maintained at admission, so its materialization
            // already includes every admitted base boundary.
            if let Some(rows) = self.retained(src).or_else(|| self.views.snapshot_of(src)) {
                pipeline.push_source(src, &rows, &mut sink)?;
            }
        }
        Ok(QueryRuntime {
            pipeline,
            sink,
            paused: false,
        })
    }

    /// **Route**: land `rt` on the query's shard and — unless it is
    /// paused, in which case it only lands — wire it in: its stream scans
    /// as log cursors (at the tails, or at a travelling runtime's
    /// positions), and one route count per key of
    /// [`QueryRuntime::counted`] on its shard.
    /// O(this query's keys), never a whole-table walk, and
    /// commutative with [`Self::unroute`], so the resulting fan-out sets
    /// are independent of the order queries came and went (pinned by a
    /// unit test below). Infallible; the caller drained the shard, so
    /// no boundary queued before this point reaches the runtime.
    fn route(&mut self, qid: QueryId, rt: QueryRuntime, at: Positions) {
        let on = self.queries[&qid].shard;
        // Resume routes a paused runtime, on whatever shard it lives on then.
        let wiring = (!rt.paused).then(|| (self.cursor_scans(&rt.pipeline), rt.counted()));
        let mut shard = self.shard(on).lock();
        shard.queries.insert(qid, rt);
        let Some((scans, keys)) = wiring else { return };
        shard.attach_cursors(qid, &scans, at, &self.state_opts);
        drop(shard);
        for key in keys {
            self.routes.add(key, on, self.nshards);
        }
    }

    /// The segment pool of `src`'s logs: one per source per engine (cluster
    /// nodes stand for separate machines and never share one).
    fn log_pool(&mut self, src: SourceId) -> SegmentPool {
        if let Some(pool) = self.log_pools.get(&src) {
            return pool.clone();
        }
        let any = self.log_pools.values().next();
        let fresh = any.map_or_else(SegmentPool::default, SegmentPool::sibling);
        self.log_pools.entry(src).or_insert(fresh).clone()
    }

    /// Bytes of the sealed log segments shared across shards, once each.
    fn log_shared_bytes(&self) -> usize {
        self.log_pools.values().next().map_or(0, SegmentPool::bytes)
    }

    /// **Unroute** — the exact inverse of [`Self::route`]'s wiring: the
    /// query's cursors and its route counts (a count reaching zero drops
    /// the shard from that key's fan-out; the last one removes the key's
    /// row). The runtime stays on the shard; the cursors' positions are
    /// returned, for a travelling one to rejoin its logs at. Infallible,
    /// and a no-op for a paused runtime (already out). The caller drained
    /// the shard, so every admitted boundary has reached the runtime.
    fn unroute(&mut self, qid: QueryId) -> Cursors {
        let on = self.queries[&qid].shard;
        let Some((keys, cursors)) = self.shard(on).lock().detach(qid) else {
            return Vec::new();
        };
        for key in keys {
            self.routes.remove(key, on);
        }
        cursors
    }

    /// Deregister one query: it leaves its session and the engine. Pending
    /// boundaries still route to it; apply them before the runtime
    /// leaves the shard. The drain is the infallible one: a deferred
    /// task error stays for the next observer, and retirement completes.
    fn drop_query(&mut self, qid: QueryId) {
        self.exec.settle(self.queries[&qid].shard);
        self.retire(qid, Backfill::new());
        self.front.leave(qid);
    }

    /// Take a drained query out of the engine: unroute it, lift its
    /// runtime off the shard and drop its coordinator record, carrying
    /// `backfill` for its recipient. The whole of a retirement, and the
    /// donor half of every migration. Infallible.
    pub(crate) fn retire(&mut self, qid: QueryId, backfill: Backfill) -> DetachedQuery {
        let cursors = self.unroute(qid);
        let meta = self.queries.remove(&qid).expect("caller checked");
        DetachedQuery {
            id: qid,
            runtime: self.lift(meta.shard, qid),
            meta,
            at: Positions { cursors, backfill },
        }
    }

    /// Remove a registered query's runtime from `shard`.
    fn lift(&self, shard: usize, qid: QueryId) -> QueryRuntime {
        let rt = self.shard(shard).lock().queries.remove(&qid);
        rt.expect("registered query keeps a runtime")
    }

    /// The retained contents of a Table source, if it has any — what
    /// late registrations, resumes and new views replay.
    fn retained(&self, src: SourceId) -> Option<Vec<Tuple>> {
        self.ingest.tables.get(&src).map(BagState::snapshot)
    }

    /// Push delivery exposes the maintained result *multiset* — exactly
    /// what accumulating the delivered deltas reconstructs. LIMIT is a
    /// snapshot-time truncation with no incremental counterpart (top-k
    /// maintenance would need retraction-aware ranking), so subscribing
    /// to a LIMIT query would silently break the accumulate-equals-poll
    /// contract; refuse instead. ORDER BY alone is fine — it does not
    /// change the multiset.
    fn check_push_compatible(pipeline: &Pipeline) -> Result<()> {
        if pipeline.sink_spec().limit.is_some() {
            return Err(AspenError::InvalidArgument(
                "queries with LIMIT cannot use push delivery: the limit is applied \
                 per snapshot, so delivered deltas would not reconstruct the polled \
                 result; poll this query instead"
                    .into(),
            ));
        }
        Ok(())
    }

    /// A pipeline's [`Pipeline::stream_scans`], with pools and filters.
    fn cursor_scans(&mut self, pipeline: &Pipeline) -> Vec<CursorScan> {
        let scan = |(scan, src, spec)| {
            let filter = pipeline.leading_filter(scan).cloned();
            let index = pipeline.join_index(scan).cloned();
            (scan, src, spec, self.log_pool(src), filter, index)
        };
        pipeline.stream_scans().map(scan).collect()
    }

    /// Materialize a bound view in three steps — build it, enter its name
    /// in the catalog, install it — the same three a cluster takes across
    /// its nodes. The coordinator maintains it inside every admitting
    /// call, and its output deltas fan into the query shards like any
    /// other source's. A view the build refuses leaves no name behind.
    pub fn register_view(&mut self, bound: &BoundView) -> Result<SourceId> {
        let view = self.build_view(bound)?;
        let out_source = view_source(&self.catalog, bound)?;
        self.install_view(view, out_source);
        Ok(out_source)
    }

    /// Build this engine's copy of a bound view, seeded from its retained
    /// tables and the views it reads. What the seeding emits goes
    /// nowhere: no query can scan a view that is not installed yet.
    pub(crate) fn build_view(&self, bound: &BoundView) -> Result<RecursiveView> {
        let mut view = RecursiveView::new(bound)?;
        for src in view.base_sources() {
            if let Some(rows) = self.retained(src).or_else(|| self.views.snapshot_of(src)) {
                view.on_base_deltas(src, &DeltaBatch::inserts(rows))?;
            }
        }
        Ok(view)
    }

    /// Install a built view, publishing its output as `out_source`.
    pub(crate) fn install_view(&mut self, view: RecursiveView, out_source: SourceId) {
        self.views.views.push(ViewRuntime { view, out_source });
    }

    // -----------------------------------------------------------------
    // Lifecycle
    // -----------------------------------------------------------------

    fn meta(&self, q: QueryHandle) -> Result<&QueryMeta> {
        self.queries
            .get(&q.0)
            .ok_or_else(|| AspenError::InvalidArgument(format!("unknown query {}", q.0)))
    }

    /// Whether a registered query is currently paused.
    pub fn is_paused(&self, q: QueryHandle) -> Result<bool> {
        let shard = self.meta(q)?.shard;
        Ok(self.shard(shard).lock().queries[&q.0].paused)
    }

    /// Retire a query: it is unrouted, its runtime leaves its shard, and
    /// it leaves its session — per-source ingest cost
    /// drops back to the remaining live fan-out. Any push subscription
    /// stops receiving batches (already-delivered batches stay
    /// drainable). Never fails on a registered query.
    pub fn deregister(&mut self, q: QueryHandle) -> Result<()> {
        self.meta(q)?;
        self.drop_query(q.0);
        Ok(())
    }

    /// Detach a query from routing without retiring it: it receives no
    /// batches, deltas, or heartbeats while paused, but its sink stays
    /// readable (frozen at the pause-time state). Pending push deltas
    /// are delivered first, so a subscription is consistent with the
    /// frozen snapshot for the whole pause.
    pub fn pause(&mut self, q: QueryHandle) -> Result<()> {
        if self.is_paused(q)? {
            return Err(AspenError::InvalidArgument(format!(
                "query {} is already paused",
                q.0
            )));
        }
        let shard_idx = self.queries[&q.0].shard;
        // The frozen sink must reflect every boundary admitted before
        // the pause — view-forwarded deltas included.
        self.exec.quiesce(shard_idx)?;
        // The cursors go with the routing entry: resume attaches fresh
        // ones (stream windows restart empty on resume, which is exactly
        // where a new cursor starts).
        self.unroute(q.0);
        let mut shard = self.shard(shard_idx).lock();
        let rt = shard
            .queries
            .get_mut(&q.0)
            .expect("registered query keeps a runtime");
        rt.sink.flush_push(self.now, true);
        rt.paused = true;
        Ok(())
    }

    /// Reattach a paused query through the replay path: the runtime is
    /// rebuilt from the stored plan — exactly what a fresh registration
    /// of the same plan would see (stream windows restart empty; streams
    /// are not replayed). A push subscription carries over and receives
    /// one consolidated catch-up diff. A failed resume (compile/replay
    /// error) leaves the query paused and fully intact.
    pub fn resume(&mut self, q: QueryHandle) -> Result<()> {
        if !self.is_paused(q)? {
            return Err(AspenError::InvalidArgument(format!(
                "query {} is not paused",
                q.0
            )));
        }
        let meta = &self.queries[&q.0];
        let (shard_idx, plan) = (meta.shard, meta.plan.clone());
        let (max_batch, max_delay) = (meta.max_batch, meta.max_delay);
        let mut rt = self.build(&plan, None)?;
        // A paused runtime's channel cannot change before the lift below.
        if self.shard(shard_idx).lock().queries[&q.0].sink.pushes() {
            // The channel it is handed needs deltas.
            rt.pipeline.emit_into(&mut rt.sink)?;
        }
        self.exec.quiesce(shard_idx)?;
        let mut old = self.lift(shard_idx, q.0);
        if let Some((queue, delivered)) = old.sink.take_push() {
            // Transfer the channel: attaching against the replayed state
            // seeds the pending buffer with exactly the diff between
            // what was already delivered and the state after resume.
            rt.sink.attach_push(queue, delivered, max_batch, max_delay);
            rt.sink.flush_push(self.now, true);
        }
        // The rebuilt sink restarts its delta counter at the replayed
        // state; restart the knob-tuning measurement window with it.
        let meta = self.queries.get_mut(&q.0).expect("meta checked");
        meta.tune_mark = (rt.sink.deltas_applied, self.boundaries, self.now);
        self.route(q.0, rt, Positions::default());
        Ok(())
    }

    /// Attach (or re-fetch) the push subscription of a query. Queries
    /// registered with [`QuerySpec::push`] already have a channel — this
    /// returns another handle to it. For poll-registered queries a
    /// channel is attached now and seeded with the current snapshot as
    /// inserts, so accumulated deltas always reconstruct the polled
    /// state.
    pub fn subscribe(&mut self, q: QueryHandle) -> Result<ResultSubscription> {
        let meta = self.meta(q)?;
        let (shard_idx, max_batch, max_delay) = (meta.shard, meta.max_batch, meta.max_delay);
        // Late subscription seeds the channel from the current snapshot:
        // pending boundaries must land first (view-forwarded deltas
        // included) or the seeded state and the subsequent deltas would
        // overlap.
        self.exec.quiesce(shard_idx)?;
        let mut shard = self.shard(shard_idx).lock();
        let rt = shard
            .queries
            .get_mut(&q.0)
            .expect("registered query keeps a runtime");
        let (queue, counted) = match rt.sink.push_queue() {
            Some(queue) => (queue, false),
            None => {
                Self::check_push_compatible(&rt.pipeline)?;
                // A channel needs deltas: a read-through result starts
                // emitting, from the multiset it held.
                rt.pipeline.emit_into(&mut rt.sink)?;
                let queue: SharedQueue = Arc::new(Mutex::new(SubscriptionQueue::default()));
                rt.sink
                    .attach_push(Arc::clone(&queue), HashMap::new(), max_batch, max_delay);
                // Subscribing is a batch boundary: deliver the current
                // state immediately.
                rt.sink.flush_push(self.now, true);
                // A paused runtime is counted when it resumes, through route.
                (queue, !rt.paused)
            }
        };
        drop(shard);
        if counted {
            self.routes.add(Counted::Push, shard_idx, self.nshards);
        }
        Ok(ResultSubscription { queue, query: q.0 })
    }

    // -----------------------------------------------------------------
    // Migration, rebalancing, knob tuning
    // -----------------------------------------------------------------

    /// Live-migrate a query's runtime to another shard.
    ///
    /// Unroute, move the *running* runtime, route at its cursors'
    /// positions: the pipeline state (join/aggregate state), the sink, and
    /// any push subscription move intact, and each cursor rejoins the
    /// recipient shard's log of its source at its frame, which names the
    /// same rows there — only the rows below that log's floor are copied
    /// (back-filled), and full segments are shared through the source's
    /// pool. Snapshots, push accumulation, and the ops total are exactly
    /// what they would have been without the move — no replay, no
    /// divergence (property-tested in `tests/sharding.rs`) — and the
    /// moved cursors share window work like any other. Four calls, the
    /// same four a cluster makes across two nodes: `floors`, `lacking`,
    /// `retire`, `land`. Session
    /// membership is untouched; the knob-tuning window restarts.
    pub fn migrate(&mut self, q: QueryHandle, to: usize) -> Result<()> {
        let from = self.meta(q)?.shard;
        if to >= self.shard_count() {
            return Err(AspenError::InvalidArgument(format!(
                "shard {to} out of range (engine has {})",
                self.shard_count()
            )));
        }
        if from == to {
            return Ok(());
        }
        // Migration quiesces exactly the two affected shards' queues,
        // never the world: the recipient so queued boundaries there cannot
        // interleave with the attach, the donor so the runtime leaves with
        // every admitted boundary applied.
        let floors = self.floors(to)?;
        let backfill = self.lacking(q, &floors)?;
        let moved = self.retire(q.0, backfill);
        self.land(moved, to);
        self.migrations += 1;
        self.journal.record(Span {
            at_us: now_us(),
            node: self.node_id,
            batch: q.0 .0 as u64,
            kind: SpanKind::Migrate,
            detail: to as u64,
        });
        Ok(())
    }

    /// Drain shard `to`, surfacing any deferred task error, and say where
    /// its logs start (those that hold rows) — the recipient's one fallible
    /// step in a migration, run before the donor lifts anything.
    pub(crate) fn floors(&self, to: usize) -> Result<Floors> {
        self.exec.quiesce(to)?;
        let floor = |(src, log): (&SourceId, &SourceLog)| Some((*src, log.floor()?));
        Ok(self
            .shard(to)
            .lock()
            .logs
            .iter()
            .filter_map(floor)
            .collect())
    }

    /// Drain a query's shard — the donor's one fallible step in a
    /// migration — and read the rows logs starting at `floors` lack for
    /// its cursors.
    pub(crate) fn lacking(&self, q: QueryHandle, floors: &Floors) -> Result<Backfill> {
        let on = self.meta(q)?.shard;
        self.exec.quiesce(on)?;
        let shard = self.shard(on).lock();
        let of = |src: SourceId| {
            let (first, rows) = shard
                .logs
                .get(&src)?
                .missing(q.0, floors.get(&src).copied())?;
            Some((src, first, rows))
        };
        let sources = shard.queries[&q.0].pipeline.sources();
        Ok(sources.into_iter().filter_map(of).collect())
    }

    /// Land a query [`Self::retire`] lifted out — of this engine, or of
    /// another node of the cluster that issues both engines' ids — on
    /// shard `to` under its own id, routed intact (no replay): its cursors
    /// rejoin `to`'s logs at their positions once the back-fill is in, and
    /// its knob-tuning window restarts against this engine's clock and
    /// boundaries. Infallible: the caller drained `to` through
    /// [`Self::floors`].
    pub(crate) fn land(&mut self, d: DetachedQuery, to: usize) {
        let DetachedQuery {
            id,
            runtime,
            mut meta,
            at,
        } = d;
        meta.shard = to;
        meta.tune_mark = (runtime.sink.deltas_applied, self.boundaries, self.now);
        self.queries.insert(id, meta);
        self.route(id, runtime, at);
    }

    /// Take one telemetry observation, feed the rebalance controller,
    /// and apply the migrations it plans. Returns how many queries
    /// moved. No-op (0) when the engine was built without
    /// [`EngineConfig::rebalance`]. Runs automatically every
    /// `interval_boundaries` batch boundaries; exposed for benches and
    /// tests that want to force an observation.
    pub fn rebalance_now(&mut self) -> usize {
        let Some(mut ctrl) = self.rebalancer.take() else {
            return 0;
        };
        let report = self.telemetry();
        let (applied, span) = ctrl.round(&report, self.node_id, |q, to| self.migrate(q, to));
        self.rebalancer = Some(ctrl);
        if let Some(span) = span {
            self.journal.record(span);
        }
        applied
    }

    /// Every ingest and heartbeat ends here: count the boundary, flush
    /// push subscriptions, and give the rebalancer its periodic look.
    fn finish_boundary(&mut self) -> Result<()> {
        self.boundaries += 1;
        self.flush_push()?;
        if self
            .rebalancer
            .as_ref()
            .is_some_and(|ctrl| ctrl.due(self.boundaries))
        {
            self.rebalance_now();
        }
        Ok(())
    }

    /// Retune a query's micro-batch knobs at runtime. Applies to the
    /// live push state immediately and to the stored meta, so later
    /// subscribe / pause / resume cycles keep the new knobs.
    pub fn tune_query(
        &mut self,
        q: QueryHandle,
        max_batch: Option<usize>,
        max_delay: Option<SimDuration>,
    ) -> Result<()> {
        let shard_idx = self.meta(q)?.shard;
        // All fallible work first (a quiesce can surface a deferred
        // task error): pending boundaries flush under the old knobs,
        // and a failed tune leaves meta and the live sink untouched —
        // never half-applied.
        self.exec.quiesce(shard_idx)?;
        let meta = self.queries.get_mut(&q.0).expect("existence checked");
        meta.max_batch = max_batch.map(|n| n.max(1));
        meta.max_delay = max_delay;
        let (mb, md) = (meta.max_batch, meta.max_delay);
        let mut shard = self.shard(shard_idx).lock();
        if let Some(rt) = shard.queries.get_mut(&q.0) {
            rt.sink.set_push_knobs(mb, md);
        }
        Ok(())
    }

    /// Close the optimizer loop over the micro-batch knobs: for every
    /// live query registered with [`QuerySpec::auto_knobs`], measure its
    /// output-delta rate and the engine's batch-boundary rate since the
    /// query's last tune, resume or move (between shards or nodes alike),
    /// ask `chooser` (typically the optimizer's
    /// calibrated `choose_knobs`) for `(max_batch, max_delay)`, and
    /// apply them. Returns how many queries were retuned. Queries whose
    /// measurement window spans no simulated time are skipped. A deferred
    /// task error fails the call before any query is retuned.
    pub fn auto_tune<F>(&mut self, mut chooser: F) -> Result<usize>
    where
        F: FnMut(f64, f64) -> (Option<usize>, Option<SimDuration>),
    {
        let now = self.now;
        // One barrier up front: the measured output-delta counts must
        // include every admitted boundary.
        self.exec.quiesce_all()?;
        let mut tuned = 0;
        let qids: Vec<QueryId> = self.queries.keys().copied().collect();
        for qid in qids {
            let meta = &self.queries[&qid];
            if !meta.auto {
                continue;
            }
            let (shard, (mark_deltas, mark_bounds, mark_time)) = (meta.shard, meta.tune_mark);
            let dt = now.since(mark_time).as_secs_f64();
            let shard = self.shard(shard).lock();
            let rt = &shard.queries[&qid];
            if rt.paused || dt <= 0.0 {
                continue;
            }
            let deltas = rt.sink.deltas_applied;
            drop(shard);
            let out_rate = deltas.saturating_sub(mark_deltas) as f64 / dt;
            // Boundary rate over the same window — a lifetime average
            // would be poisoned by idle prefixes or large absolute
            // timestamp origins.
            let boundary_hz = self.boundaries.saturating_sub(mark_bounds) as f64 / dt;
            let (mb, md) = chooser(out_rate, boundary_hz);
            self.tune_query(QueryHandle(qid), mb, md)?;
            self.queries.get_mut(&qid).expect("meta checked").tune_mark =
                (deltas, self.boundaries, now);
            tuned += 1;
        }
        if tuned > 0 {
            self.journal.record(Span {
                at_us: now_us(),
                node: self.node_id,
                batch: 0,
                kind: SpanKind::Retune,
                detail: tuned as u64,
            });
        }
        Ok(tuned)
    }

    // -----------------------------------------------------------------
    // Ingest
    // -----------------------------------------------------------------

    /// Ingest a batch of tuples for a named source. A batch holding a row
    /// whose arity is not the source schema's is refused with
    /// [`AspenError::InvalidArgument`] before anything moves. Admission
    /// updates the source's meter and retained table contents, reads its
    /// fan-out off the route counts, then submits one boundary task per
    /// subscribing shard into the bounded per-shard queues. A boundary feeding a view then maintains the
    /// view right here, and submits its net deltas to the shards
    /// subscribed to the view's output. Finally, push subscriptions are
    /// flushed — every ingest is a batch boundary. Every step runs even
    /// when an earlier one fails; the first error is returned. Under
    /// pool scheduling this returns once every task is
    /// *admitted*, not processed: a shard hosting a slow query drains
    /// its backlog without gating its siblings or the next ingest.
    pub fn on_batch(&mut self, source_name: &str, tuples: &[Tuple]) -> Result<()> {
        self.ingest(source_name, Admission::Batch(tuples))
    }

    /// Ingest signed changes for a source (e.g. a table update/delete).
    /// Advances the clock exactly like `on_batch` — delta-only ingest
    /// must not leave the engine clock stale. Refused with
    /// [`AspenError::InvalidArgument`], before anything moves, for a
    /// stream whose window a live query indexes in a join side: signed
    /// deltas name no row of it.
    pub fn on_deltas(&mut self, source_name: &str, deltas: &DeltaBatch) -> Result<()> {
        self.ingest(source_name, Admission::Deltas(deltas))
    }

    /// [`ShardedEngine::admit`] a payload under a new trace context, once
    /// its rows fit the source's schema: a refused payload moves nothing.
    fn ingest(&mut self, source_name: &str, payload: Admission<'_>) -> Result<()> {
        payload.check_rows(&*self.catalog.source(source_name)?)?;
        let trace = self.make_ctx();
        self.admit(source_name, payload, Some(trace), None)
    }

    /// The one admission path behind [`ShardedEngine::on_batch`] and
    /// [`ShardedEngine::on_deltas`], with an explicit trace context —
    /// the cluster re-admits shipped payloads here, where the context
    /// was created on the origin node and already carries the wire hop —
    /// and, for a stream batch a cluster numbered in its source's
    /// cluster-wide sequence, the number `at` of its first tuple (`None`
    /// numbers it here). The source's arrival counter moves past the
    /// batch and never back.
    pub(crate) fn admit(
        &mut self,
        source_name: &str,
        payload: Admission<'_>,
        trace: Option<TraceCtx>,
        at: Option<u64>,
    ) -> Result<()> {
        let meta = self.catalog.source(source_name)?;
        let src = meta.id;
        // Refused before anything moved: no shard, counter or clock has
        // seen the batch.
        self.check_deltas(&meta, payload)?;
        let ingest = &mut self.ingest;
        *ingest.tuples_in.entry(src).or_insert(0) += payload.len() as u64;
        let mut first = 0;
        if let (Admission::Batch(tuples), true) = (payload, meta.kind.is_stream_like()) {
            let latest = ingest.latest.entry(src).or_insert(SimTime::ZERO);
            for t in tuples {
                ingest.out_of_order += u64::from(t.timestamp() < *latest);
                *latest = (*latest).max(t.timestamp());
            }
            let next = ingest.arrivals.entry(src).or_insert(0);
            first = at.unwrap_or(*next);
            *next = (*next).max(first + tuples.len() as u64);
        }
        // Retain table contents for replay at admission time, so a late
        // registration never races the shard queues.
        if matches!(meta.kind, SourceKind::Table) {
            let table = ingest
                .tables
                .entry(src)
                .or_insert_with(|| BagState::with_options(&self.state_opts));
            match payload {
                Admission::Batch(tuples) => table.insert_all(tuples),
                Admission::Deltas(deltas) => table.apply(deltas),
            }
        }
        let routes = self.routes.fanout(Counted::Scans(src));
        // Advance the engine clock to the latest observed event
        // timestamp, so batch-only, delta-only, and mixed workloads all
        // keep `now()` fresh.
        let latest = payload.rows().map(Tuple::timestamp).max();
        self.now = self.now.max(latest.unwrap_or(self.now));
        let mut served = Ok(());
        if !routes.is_empty() {
            let boundary = match payload {
                Admission::Batch(tuples) => Boundary::Batch {
                    src,
                    first,
                    tuples,
                    trace,
                },
                Admission::Deltas(deltas) => Boundary::Deltas { src, deltas, trace },
            };
            served = self.exec.submit(&routes, boundary);
        }
        // Views reading this source (skip building the delta batch when
        // no view reads it).
        if self.views.reads(src) {
            let deltas = match payload {
                Admission::Batch(tuples) => DeltaBatch::inserts(tuples.iter().cloned()),
                Admission::Deltas(deltas) => deltas.clone(),
            };
            let maintained = self
                .views
                .maintain(|view| view.on_base_deltas(src, &deltas));
            served = served.and(self.forward_views(maintained));
        }
        let finished = self.finish_boundary();
        served.and(finished)
    }

    /// Refuse, as [`AspenError::InvalidArgument`], signed deltas on a
    /// stream whose window a live query here indexes in a join side: they
    /// name no row of it. Admission asks first, and a cluster asks every
    /// node before it numbers, splits or ships anything.
    pub(crate) fn check_deltas(&self, source: &SourceMeta, payload: Admission<'_>) -> Result<()> {
        let indexed = self.routes.total(Counted::Indexes(source.id)) > 0;
        if indexed && matches!(payload, Admission::Deltas(_)) {
            return Err(AspenError::InvalidArgument(format!(
                "'{}' is a stream a live query's join side indexes by row, and signed \
                 deltas name no row of its window; ingest its tuples with on_batch",
                source.name
            )));
        }
        Ok(())
    }

    /// Submit each view's net output to the shards subscribed to its
    /// output source, as an ordinary delta boundary. Every batch is
    /// submitted; the first error — of the maintenance that produced
    /// them, then of the submissions — is returned.
    fn forward_views(&self, (out, maintained): (ViewOutput, Result<()>)) -> Result<()> {
        let mut served = maintained;
        for (src, deltas) in &out {
            let (src, trace) = (*src, None);
            let routes = self.routes.fanout(Counted::Scans(src));
            if !routes.is_empty() {
                let run = self
                    .exec
                    .submit(&routes, Boundary::Deltas { src, deltas, trace });
                served = served.and(run);
            }
        }
        served
    }

    /// Advance simulated time: expire windows in every clock-sensitive
    /// pipeline (pipelines over unbounded / row-count windows are never
    /// touched) and advance every recursive view, forwarding what
    /// expired, then flush push subscriptions — a heartbeat is a batch
    /// boundary, and the one that releases `max_delay` holds. As in
    /// admission, every step runs and the first error is returned.
    pub fn heartbeat(&mut self, now: SimTime) -> Result<()> {
        if now > self.now {
            self.now = now;
        }
        let clocked = self.routes.fanout(Counted::Clock);
        let served = self.exec.submit(&clocked, Boundary::AdvanceTime(now));
        // A view's windowed bases each pay their window's O(1) head
        // check; a view with none pays nothing.
        let maintained = self.views.maintain(|view| view.advance_time(now));
        let forwarded = self.forward_views(maintained);
        let finished = self.finish_boundary();
        served.and(forwarded).and(finished)
    }

    /// Deliver pending push batches on every shard with a live
    /// subscribed query (no-op when nothing is subscribed).
    fn flush_push(&mut self) -> Result<()> {
        let push_routes = self.routes.fanout(Counted::Push);
        if push_routes.is_empty() {
            return Ok(());
        }
        self.exec
            .submit(&push_routes, Boundary::FlushPush(self.now))
    }

    // -----------------------------------------------------------------
    // Introspection
    // -----------------------------------------------------------------

    /// Current results of a query (ORDER BY / LIMIT applied), `Fresh`.
    /// Works for paused queries too — the sink is frozen at the
    /// pause-time state. Quiesces only the owning shard: a snapshot
    /// waits for *this* query's pending boundaries, never for a slow
    /// sibling elsewhere.
    pub fn snapshot(&self, q: QueryHandle) -> Result<Vec<Tuple>> {
        self.snapshot_at(q, Consistency::Fresh)
    }

    /// [`ShardedEngine::snapshot`] at an explicit consistency level.
    /// `Cut` skips the drain and reads the sink at the shard's applied
    /// watermark — a boundary-consistent past state (every boundary is
    /// applied atomically under the shard lock, and one query's
    /// boundaries are FIFO on its one shard), taken without stalling
    /// ingest. After a drain the two levels return identical bytes —
    /// the churn property test pins that at every event.
    pub fn snapshot_at(&self, q: QueryHandle, consistency: Consistency) -> Result<Vec<Tuple>> {
        let meta = self.meta(q)?;
        if consistency == Consistency::Fresh {
            self.exec.quiesce(meta.shard)?;
        }
        let mut shard = self.shard(meta.shard).lock();
        shard.queries.get_mut(&q.0).expect("a runtime").snapshot()
    }

    /// Result-churn statistic of a query's sink.
    pub fn deltas_applied(&self, q: QueryHandle) -> Result<u64> {
        let meta = self.meta(q)?;
        self.exec.quiesce(meta.shard)?;
        Ok(self.shard(meta.shard).lock().queries[&q.0]
            .sink
            .deltas_applied)
    }

    /// Total operator invocations across all registered pipelines
    /// (CPU-cost proxy; deregistered queries' work leaves the total).
    pub fn total_ops_invoked(&self) -> u64 {
        self.exec.settle_all();
        (0..self.shard_count())
            .map(|i| {
                self.shard(i)
                    .lock()
                    .queries
                    .values()
                    .map(|q| q.pipeline.ops_invoked)
                    .sum::<u64>()
            })
            .sum()
    }

    /// What each shard's log of `source` retains, `(row id, tuple)` in
    /// arrival order, indexed by shard (`Fresh`). Ids are the source's
    /// arrival numbers: a tuple two shards hold has one id in both.
    pub fn log_contents(&self, source: SourceId) -> Vec<Vec<(u64, Tuple)>> {
        self.exec.settle_all();
        let of = |s: &EngineShard| s.logs.get(&source).map(SourceLog::numbered);
        let each = (0..self.shard_count()).map(|i| of(&self.shard(i).lock()));
        each.map(Option::unwrap_or_default).collect()
    }

    /// Census of resident operator state: per-pipeline node instances
    /// and buffered window tuples, with each source log counted exactly
    /// once — the shared-vs-private ratio of `window_tuples` is the
    /// state reduction log sharing buys.
    pub fn resident_state(&self) -> ResidentState {
        self.exec.settle_all();
        let mut out = ResidentState::default();
        let (mut queries, mut logs) = (Footprint::default(), Footprint::default());
        for i in 0..self.shard_count() {
            let shard = self.shard(i).lock();
            for rt in shard.queries.values() {
                out.operators += rt.pipeline.node_count();
                out.window_tuples += rt.pipeline.buffered_window_tuples();
                queries += rt.pipeline.footprint();
            }
            let census = shard.log_census();
            out.source_logs += census.logs;
            out.log_cursors += census.cursors;
            out.cursor_classes += census.classes;
            out.window_tuples += census.rows;
            logs += census.footprint;
        }
        let tables = self.ingest.footprint();
        out.log_shared_bytes = self.log_shared_bytes();
        out.log_bytes = logs.resident - logs.pooled + out.log_shared_bytes;
        out.table_bytes = tables.resident;
        out.state_bytes = queries.resident + out.log_bytes + out.table_bytes;
        let all = queries + logs + tables;
        out.spilled_bytes = all.spilled;
        out.spill_read_failures = all.read_failures;
        out.spill_write_failures = all.write_failures;
        out
    }

    /// Plan-cache effectiveness counters. Always `Some`: the cache can
    /// no longer be disabled, and the `Option` stays only because the
    /// frozen `benchmark/` reads this through `filter_map`.
    pub fn plan_cache_stats(&self) -> Option<PlanCacheStats> {
        Some(self.front.plan_cache_stats())
    }

    /// Current materialization of a named view. Views are maintained at
    /// admission, so every admitted base boundary is reflected.
    pub fn view_snapshot(&self, name: &str) -> Result<Vec<Tuple>> {
        self.read_view(name, RecursiveView::snapshot)
    }

    /// Maintenance statistics of a named view.
    pub fn view_stats(&self, name: &str) -> Result<crate::recursive::ViewStats> {
        self.read_view(name, |view| view.stats.clone())
    }

    fn read_view<T>(&self, name: &str, read: impl FnOnce(&RecursiveView) -> T) -> Result<T> {
        let found = self.views.by_name(name).map(read);
        found.ok_or_else(|| AspenError::Unresolved(format!("no materialized view '{name}'")))
    }

    /// Whether one of this engine's recursive views reads `src`.
    pub(crate) fn views_read(&self, src: SourceId) -> bool {
        self.views.reads(src)
    }

    /// Whether this engine holds query `qid`, live or paused.
    pub(crate) fn holds(&self, qid: QueryId) -> bool {
        self.queries.contains_key(&qid)
    }

    /// The sources a query's plan scans, read off its stored plan.
    pub(crate) fn scanned(&self, q: QueryHandle) -> Result<Vec<Arc<SourceMeta>>> {
        let scans = self.meta(q)?.plan.scans();
        Ok(scans.into_iter().map(|rel| Arc::clone(&rel.meta)).collect())
    }

    /// The arrival number the next batch of stream `src` admitted here
    /// takes.
    pub(crate) fn next_arrival(&self, src: SourceId) -> u64 {
        self.ingest.arrivals.get(&src).copied().unwrap_or(0)
    }

    /// Snapshots of every query routed to the named display, in
    /// registration order (placement does not reorder displays; paused
    /// queries keep their frozen snapshot on screen).
    pub fn display_snapshot(&self, display: &str) -> Result<Vec<Vec<Tuple>>> {
        self.exec.quiesce_all()?;
        let mut out = Vec::new();
        for (qid, meta) in &self.queries {
            let mut shard = self.shard(meta.shard).lock();
            let q = shard.queries.get_mut(qid).expect("a runtime");
            if q.sink.display() == Some(display) {
                out.push(q.snapshot()?);
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use crate::executor::Scheduling;
    use crate::state::Census;
    use aspen_catalog::{DeviceClass, SourceKind, SourceStats};
    use aspen_types::{DataType, Field, Schema, SimDuration, Value};

    fn catalog() -> Arc<Catalog> {
        let cat = Catalog::shared();
        let readings = Schema::new(vec![
            Field::new("sensor", DataType::Int),
            Field::new("value", DataType::Float),
        ])
        .into_ref();
        cat.register_source(
            "Readings",
            readings,
            SourceKind::Device(DeviceClass::new(&["value"], SimDuration::from_secs(10), 8)),
            SourceStats::stream(1.0).with_distinct("sensor", 8),
        )
        .unwrap();
        let edges = Schema::new(vec![
            Field::new("src", DataType::Text),
            Field::new("dst", DataType::Text),
        ])
        .into_ref();
        cat.register_source("Edge", edges, SourceKind::Table, SourceStats::table(10))
            .unwrap();
        cat
    }

    fn reading(sensor: i64, value: f64, sec: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(sensor), Value::Float(value)],
            SimTime::from_secs(sec),
        )
    }

    #[test]
    fn placement_is_disjoint_and_total() {
        let mut e = ShardedEngine::new(catalog(), 4);
        let mut handles = Vec::new();
        for i in 0..12 {
            let h = e
                .register_sql(&format!(
                    "select r.value from Readings r where r.sensor = {i}"
                ))
                .unwrap()
                .expect_query();
            handles.push(h);
        }
        let report = e.telemetry();
        assert_eq!(report.shards.iter().map(|s| s.queries).sum::<usize>(), 12);
        assert_eq!(report.queries.len(), 12);
        // Every handle resolves, and its placement matches the hash.
        for h in handles {
            assert_eq!(e.queries[&h.0].shard, e.shard_of(h.0));
            assert_eq!(report.query(h.0).unwrap().shard, e.shard_of(h.0));
            e.snapshot(h).unwrap();
        }
    }

    #[test]
    fn single_shard_is_the_unsharded_engine() {
        let e = ShardedEngine::new(catalog(), 1);
        assert_eq!(e.shard_count(), 1);
        let e0 = ShardedEngine::new(catalog(), 0);
        assert_eq!(e0.shard_count(), 1, "shard count clamps to >= 1");
    }

    #[test]
    fn fan_out_routes_only_to_subscribing_shards() {
        let mut e = ShardedEngine::new(catalog(), 4);
        let q = e
            .register_sql("select r.sensor from Readings r where r.value > 10")
            .unwrap()
            .expect_query();
        let src = e.catalog().source("Readings").unwrap().id;
        assert_eq!(e.subscriber_count(src), 1);
        e.on_batch("Readings", &[reading(1, 50.0, 1)]).unwrap();
        assert_eq!(e.snapshot(q).unwrap().len(), 1);
        // Only the owning shard accumulated busy time from the ingest.
        let report = e.telemetry();
        let owner = e.queries[&q.0].shard;
        for s in &report.shards {
            if s.shard != owner {
                assert_eq!(
                    s.busy_seconds, 0.0,
                    "shard {} should never have been touched",
                    s.shard
                );
                assert_eq!(s.tuples_in, 0);
            }
        }
        assert_eq!(report.shards[owner].tuples_in, 1);
    }

    #[test]
    fn on_deltas_advances_clock_and_feeds_shards() {
        let mut e = ShardedEngine::new(catalog(), 2);
        let q = e
            .register_sql("select e.src from Edge e")
            .unwrap()
            .expect_query();
        let edge = Tuple::new(
            vec![Value::Text("a".into()), Value::Text("b".into())],
            SimTime::from_secs(7),
        );
        e.on_deltas("Edge", &DeltaBatch::from(vec![Delta::insert(edge)]))
            .unwrap();
        assert_eq!(e.now(), SimTime::from_secs(7), "delta ingest moves clock");
        assert_eq!(e.snapshot(q).unwrap().len(), 1);
    }

    #[test]
    fn delta_batch_is_consolidated_once_and_charged_raw() {
        // One admitted batch, two subscribers (one a self-join: two
        // scans): the shard consolidates it once, every scan borrows
        // the net batch, and the meters read what a private
        // per-scan consolidation read — raw size in, net size through
        // the operators.
        let mut e = ShardedEngine::new(catalog(), 1);
        let filter = e
            .register_sql("select e.dst from Edge e where e.src = 'a'")
            .unwrap()
            .expect_query();
        let join = e
            .register_sql("select x.src, y.dst from Edge x, Edge y where x.dst = y.src")
            .unwrap()
            .expect_query();
        let edge = |s: &str, d: &str| {
            Tuple::new(
                vec![Value::Text(s.into()), Value::Text(d.into())],
                SimTime::from_secs(1),
            )
        };
        e.on_deltas(
            "Edge",
            &DeltaBatch::from(vec![
                Delta::insert(edge("a", "b")),
                Delta::insert(edge("b", "c")),
                Delta::insert(edge("x", "y")),
                Delta::retract(edge("x", "y")),
                Delta::insert(edge("a", "b")),
            ]),
        )
        .unwrap();
        assert_eq!(e.snapshot(filter).unwrap().len(), 2, "a→b twice");
        assert_eq!(e.snapshot(join).unwrap().len(), 2, "a→b→c twice");
        let report = e.telemetry();
        assert_eq!(report.shards[0].tuples_in, 5);
        assert_eq!(report.query(filter.0).unwrap().tuples_in, 5);
        assert_eq!(report.query(join.0).unwrap().tuples_in, 10, "per scan");
        // Net batch: (a,b)×2 and (b,c) — two deltas into the filter, one
        // out of it into the projection; the cancelled pair ran nowhere.
        assert_eq!(report.query(filter.0).unwrap().ops_invoked, 3);
    }

    #[test]
    fn deregister_unwinds_routing_and_placement() {
        let mut e = ShardedEngine::new(catalog(), 4);
        let src = e.catalog().source("Readings").unwrap().id;
        let keep = e
            .register_sql("select r.sensor from Readings r")
            .unwrap()
            .expect_query();
        let drop = e
            .register_sql("select r.value from Readings r where r.value > 50")
            .unwrap()
            .expect_query();
        assert_eq!(e.subscriber_count(src), 2);
        e.deregister(drop).unwrap();
        assert_eq!(e.subscriber_count(src), 1);
        assert_eq!(e.query_count(), 1);
        assert_eq!(
            e.telemetry()
                .shards
                .iter()
                .map(|s| s.queries)
                .sum::<usize>(),
            1
        );
        assert!(e.snapshot(drop).is_err(), "handle is dead");
        assert!(e.deregister(drop).is_err(), "double deregister errors");
        // The survivor still works, and re-registration gets a fresh id.
        e.on_batch("Readings", &[reading(1, 60.0, 1)]).unwrap();
        assert_eq!(e.snapshot(keep).unwrap().len(), 1);
        let again = e
            .register_sql("select r.value from Readings r where r.value > 50")
            .unwrap()
            .expect_query();
        assert_ne!(again, drop, "query ids are never reused");
        assert_eq!(e.subscriber_count(src), 2);
    }

    #[test]
    fn session_close_retires_all_of_its_queries() {
        let mut e = ShardedEngine::new(catalog(), 2);
        let src = e.catalog().source("Readings").unwrap().id;
        let sid = e.open_session();
        let q1 = e
            .register_in(sid, QuerySpec::sql("select r.sensor from Readings r"))
            .unwrap()
            .expect_query();
        e.register_in(sid, QuerySpec::sql("select count(*) from Readings r"))
            .unwrap()
            .expect_query();
        let outside = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        // One session query deregistered individually first.
        e.deregister(q1).unwrap();
        assert_eq!(e.close_session(sid).unwrap(), 1);
        assert!(e.close_session(sid).is_err(), "session is gone");
        assert_eq!(e.subscriber_count(src), 1, "only the outsider remains");
        assert!(e.snapshot(outside).is_ok());
        assert!(e
            .register_in(sid, QuerySpec::sql("select r.sensor from Readings r"))
            .is_err());
    }

    #[test]
    fn unknown_query_handle_errors() {
        let e = ShardedEngine::new(catalog(), 1);
        assert!(e.snapshot(QueryHandle(QueryId(42))).is_err());
    }

    #[test]
    fn migration_moves_runtime_and_preserves_results() {
        let mut e = ShardedEngine::new(catalog(), 4);
        let q = e
            .register_sql("select r.sensor, avg(r.value) from Readings r group by r.sensor")
            .unwrap()
            .expect_query();
        let sub = e.subscribe(q).unwrap();
        e.on_batch("Readings", &[reading(1, 40.0, 1), reading(2, 60.0, 1)])
            .unwrap();
        let before = e.snapshot(q).unwrap();
        let ops_before = e.total_ops_invoked();

        let from = e.queries[&q.0].shard;
        let to = (from + 1) % 4;
        e.migrate(q, to).unwrap();
        assert_eq!(e.migration_count(), 1);
        assert_eq!(e.queries[&q.0].shard, to);
        assert_eq!(e.telemetry().query(q.0).unwrap().shard, to);
        // No replay happened: snapshot and ops total are untouched, and
        // the window state survived (the next reading still averages
        // with the pre-migration one).
        assert_eq!(e.snapshot(q).unwrap(), before);
        assert_eq!(e.total_ops_invoked(), ops_before);
        e.on_batch("Readings", &[reading(1, 60.0, 2)]).unwrap();
        let snap = e.snapshot(q).unwrap();
        let avg1 = snap
            .iter()
            .find(|t| t.values()[0] == Value::Int(1))
            .unwrap();
        assert_eq!(avg1.values()[1], Value::Float(50.0), "window state moved");
        // The push subscription moved with the sink: accumulating every
        // delta delivered across the migration reconstructs the snapshot.
        let mut accum: std::collections::HashMap<Tuple, i64> = std::collections::HashMap::new();
        for b in sub.drain() {
            for d in &b {
                let c = accum.entry(d.tuple.clone()).or_insert(0);
                *c += d.sign;
                if *c == 0 {
                    accum.remove(&d.tuple);
                }
            }
        }
        let mut polled: std::collections::HashMap<Tuple, i64> = std::collections::HashMap::new();
        for t in snap {
            *polled.entry(t).or_insert(0) += 1;
        }
        assert_eq!(accum, polled, "push accumulation diverged across migration");
        // Migrating to the same shard or out of range behaves sanely.
        e.migrate(q, to).unwrap();
        assert_eq!(e.migration_count(), 1, "same-shard move is a no-op");
        assert!(e.migrate(q, 9).is_err());
    }

    #[test]
    fn paused_query_migrates_without_entering_routing() {
        let mut e = ShardedEngine::new(catalog(), 2);
        let src = e.catalog().source("Readings").unwrap().id;
        let q = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        e.on_batch("Readings", &[reading(1, 10.0, 1)]).unwrap();
        e.pause(q).unwrap();
        let frozen = e.snapshot(q).unwrap();
        let to = (e.queries[&q.0].shard + 1) % 2;
        e.migrate(q, to).unwrap();
        assert_eq!(e.subscriber_count(src), 0, "paused stays out of routing");
        assert_eq!(e.snapshot(q).unwrap(), frozen, "frozen sink moved intact");
        e.resume(q).unwrap();
        assert_eq!(e.subscriber_count(src), 1);
        e.on_batch("Readings", &[reading(1, 20.0, 2)]).unwrap();
        assert_eq!(e.snapshot(q).unwrap().len(), 1, "resumed on the new shard");
    }

    #[test]
    fn auto_rebalance_drains_a_hot_shard() {
        use crate::rebalance::RebalanceConfig;
        // The same forced-skew workload with and without an eager
        // controller (observe every boundary, act on the first skewed
        // window). Returns the engine, its handles, and the migration
        // count right after the forced pile-up.
        let run = |rebalance: bool| {
            let mut config = EngineConfig::new().shards(2);
            if rebalance {
                config = config.rebalance(RebalanceConfig {
                    threshold: 1.05,
                    patience: 1,
                    max_moves: 4,
                    interval_boundaries: 1,
                    ..Default::default()
                });
            }
            let mut e = ShardedEngine::with_config(catalog(), config);
            // Force skew: pile every query onto shard 0.
            let mut handles = Vec::new();
            for i in 0..6 {
                let h = e
                    .register_sql(&format!(
                        "select r.sensor, avg(r.value) from Readings r where r.sensor < {} \
                         group by r.sensor",
                        8 - i
                    ))
                    .unwrap()
                    .expect_query();
                e.migrate(h, 0).unwrap();
                handles.push(h);
            }
            let forced = e.migration_count();
            for i in 0..40u64 {
                e.on_batch("Readings", &[reading((i % 8) as i64, i as f64, i)])
                    .unwrap();
            }
            (e, handles, forced)
        };
        let (on, on_handles, forced) = run(true);
        assert!(
            on.migration_count() > forced,
            "controller never moved a query off the hot shard"
        );
        let report = on.telemetry();
        assert!(
            report.shards.iter().all(|s| s.queries > 0),
            "both shards should hold queries after rebalancing: {report:?}"
        );
        // Without a controller nothing ever moves, and rebalancing
        // changed no query's result.
        let (off, off_handles, forced) = run(false);
        assert_eq!(off.migration_count(), forced);
        for (&a, &b) in on_handles.iter().zip(&off_handles) {
            assert_eq!(on.snapshot(a).unwrap(), off.snapshot(b).unwrap());
        }
    }

    #[test]
    fn deferred_task_error_reaches_the_next_observer() {
        use crate::executor::Scheduling;
        // A boundary that fails inside a *deferred* task (here: a text
        // value the sum refuses) must surface to whoever observes the
        // engine next — the submitting ingest if the interleaving ran it
        // inline, otherwise the first quiescing read — never be
        // silently swallowed by a snapshot that drains the queue.
        for scheduling in [Scheduling::Deterministic(11), Scheduling::Pool] {
            let mut e = ShardedEngine::with_config(
                catalog(),
                EngineConfig::new().shards(2).scheduling(scheduling),
            );
            let q = e
                .register_sql("select sum(r.value) from Readings r")
                .unwrap()
                .expect_query();
            let bad = Tuple::new(
                vec![Value::Int(1), Value::Text("n/a".into())],
                SimTime::from_secs(1),
            );
            let observed = e
                .on_batch("Readings", std::slice::from_ref(&bad))
                .and_then(|()| e.quiesce())
                .and_then(|()| e.snapshot(q).map(drop));
            assert!(
                observed.is_err(),
                "deferred task error was swallowed ({scheduling:?})"
            );
            // The error was observed exactly once; the engine stays
            // usable afterwards.
            e.on_batch("Readings", &[reading(1, 5.0, 2)]).unwrap();
            assert_eq!(e.snapshot(q).unwrap()[0].values(), &[Value::Float(5.0)]);
        }
    }

    #[test]
    fn tune_query_updates_live_push_knobs() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let q = e
            .register(
                QuerySpec::sql("select r.value from Readings r")
                    .push()
                    .auto_knobs(),
            )
            .unwrap()
            .expect_query();
        let sub = e.subscribe(q).unwrap();
        // Hold deliveries for 1000 s of simulated time.
        e.tune_query(q, None, Some(SimDuration::from_secs(1000)))
            .unwrap();
        e.on_batch("Readings", &[reading(1, 10.0, 1)]).unwrap();
        assert_eq!(sub.pending_batches(), 0, "held by the retuned max_delay");
        // Retune back to eager: the held deltas release at the next
        // boundary.
        e.tune_query(q, None, None).unwrap();
        e.on_batch("Readings", &[reading(2, 20.0, 2)]).unwrap();
        assert!(sub.pending_batches() > 0);
        // Auto-tune calls the chooser with measured rates and applies.
        let mut seen = Vec::new();
        let tuned = e
            .auto_tune(|out_rate, boundary_hz| {
                seen.push((out_rate, boundary_hz));
                (Some(7), None)
            })
            .unwrap();
        assert_eq!(tuned, 1);
        assert!(seen[0].0 > 0.0, "measured a nonzero output rate");
        assert!(seen[0].1 > 0.0, "measured a nonzero boundary rate");
        assert_eq!(e.queries[&q.0].max_batch, Some(7));
        // Second pass with no elapsed sim time is skipped.
        assert_eq!(e.auto_tune(|_, _| (None, None)).unwrap(), 0);
    }

    /// `auto_tune` with a deferred task error pending returns it before
    /// any knob moves, and a retry tunes the query.
    #[test]
    fn auto_tune_surfaces_a_deferred_task_error() {
        use crate::executor::Scheduling;
        for scheduling in [Scheduling::Deterministic(11), Scheduling::Pool] {
            let mut e = ShardedEngine::with_config(
                catalog(),
                EngineConfig::new().shards(2).scheduling(scheduling),
            );
            let spec = QuerySpec::sql("select sum(r.value) from Readings r").auto_knobs();
            let q = e.register(spec).unwrap().expect_query();
            // A text value fails the sum in a deferred task, queued
            // behind a slow valid batch so no pool worker runs it before
            // the ingest returns.
            e.set_query_drag(q, Some(Duration::from_millis(2))).unwrap();
            e.on_batch("Readings", &[reading(1, 5.0, 1)]).unwrap();
            let text = vec![Value::Int(1), Value::Text("n/a".into())];
            let bad = Tuple::new(text, SimTime::from_secs(2));
            let queued =
                (0..64).any(|_| e.on_batch("Readings", std::slice::from_ref(&bad)).is_ok());
            assert!(queued, "{scheduling:?}: the failure never stayed deferred");
            let knobs = |e: &ShardedEngine| {
                let meta = &e.queries[&q.0];
                (meta.max_batch, meta.max_delay, meta.tune_mark)
            };
            let before = knobs(&e);
            let retune = |_, _| (Some(7), None);
            assert!(e.auto_tune(retune).is_err(), "{scheduling:?}");
            assert_eq!(knobs(&e), before, "{scheduling:?}: a knob moved");
            assert_eq!(e.auto_tune(retune).unwrap(), 1, "{scheduling:?}");
            assert_eq!(e.queries[&q.0].max_batch, Some(7));
        }
    }

    #[test]
    fn shared_chain_refcount_unwinds_tap_by_tap() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let src = e.catalog().source("Readings").unwrap().id;
        let q1 = e
            .register_sql("select r.value from Readings r where r.value > 5")
            .unwrap()
            .expect_query();
        let q2 = e
            .register_sql("select r.sensor from Readings r where r.value > 15")
            .unwrap()
            .expect_query();
        let q3 = e
            .register_sql("select count(*) from Readings r")
            .unwrap()
            .expect_query();
        // All three window the Readings stream: one log, three cursors,
        // and routing sees the queries on cursors as ordinary subscribers.
        let rs = e.resident_state();
        assert_eq!((rs.source_logs, rs.log_cursors), (1, 3));
        assert_eq!(rs.cursor_classes, 1, "one window, one class");
        assert_eq!(e.subscriber_count(src), 3);
        e.on_batch("Readings", &[reading(1, 10.0, 1), reading(2, 20.0, 1)])
            .unwrap();
        assert_eq!(e.snapshot(q1).unwrap().len(), 2);
        assert_eq!(e.snapshot(q2).unwrap().len(), 1);
        // Deregistering one cursor leaves the siblings' state undisturbed.
        e.deregister(q2).unwrap();
        let rs = e.resident_state();
        assert_eq!((rs.source_logs, rs.log_cursors), (1, 2));
        assert_eq!(e.subscriber_count(src), 2);
        assert_eq!(e.snapshot(q1).unwrap().len(), 2);
        e.on_batch("Readings", &[reading(3, 30.0, 2)]).unwrap();
        assert_eq!(e.snapshot(q1).unwrap().len(), 3, "survivors keep flowing");
        // Last cursor out frees the log and the rows it retained.
        e.deregister(q1).unwrap();
        e.deregister(q3).unwrap();
        let rs = e.resident_state();
        assert_eq!((rs.source_logs, rs.log_cursors), (0, 0));
        assert_eq!(rs.window_tuples, 0, "log rows were freed");
        assert_eq!(e.subscriber_count(src), 0);
    }

    #[test]
    fn late_cursor_hides_pre_attach_state() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let q1 = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        e.on_batch("Readings", &[reading(1, 10.0, 1), reading(2, 20.0, 2)])
            .unwrap();
        // A late cursor starts at the log's tail — an empty window,
        // exactly like a fresh private registration: streams are never
        // replayed.
        let q2 = e
            .register_sql("select r.value from Readings r where r.value > 0")
            .unwrap()
            .expect_query();
        let rs = e.resident_state();
        assert_eq!((rs.source_logs, rs.log_cursors), (1, 2));
        assert!(e.snapshot(q2).unwrap().is_empty());
        e.on_batch("Readings", &[reading(3, 30.0, 3)]).unwrap();
        assert_eq!(e.snapshot(q1).unwrap().len(), 3);
        assert_eq!(
            e.snapshot(q2).unwrap(),
            vec![Tuple::new(vec![Value::Float(30.0)], SimTime::from_secs(3))],
            "only post-attach data reaches the late cursor"
        );
        let rs = e.resident_state();
        assert_eq!(rs.window_tuples, 3, "each row stored once");
        assert_eq!(rs.cursor_classes, 2, "the late cursor's head is its own");
        // Expiring the pre-attach tuples (RANGE 10s, ts 1 and 2 fall out
        // at t=12) retracts them from q1 alone: they lie below q2's head.
        e.heartbeat(SimTime::from_secs(12)).unwrap();
        assert_eq!(e.snapshot(q1).unwrap().len(), 1);
        assert_eq!(e.snapshot(q2).unwrap().len(), 1, "pre-attach expiry leaked");
        // ...and brings q1's head up to q2's: from here they are one class.
        assert_eq!(e.resident_state().cursor_classes, 1);
        assert_eq!(e.resident_state().window_tuples, 1, "min-head release");
    }

    #[test]
    fn late_attach_on_a_warm_log_copies_nothing() {
        // Attaching is `head = tail`: a window over a stream that already
        // holds 20 000 rows costs no state and touches no row, whatever
        // its spec — a second window, a wider one, a join side.
        let mut e = ShardedEngine::new(catalog(), 1);
        let q1 = e
            .register_sql("select r.value from Readings r [rows 20000] where r.value < 0")
            .unwrap()
            .expect_query();
        let rows: Vec<Tuple> = (0..20_000i64)
            .map(|i| reading(i % 8, (i % 100) as f64, (i / 100) as u64))
            .collect();
        for chunk in rows.chunks(500) {
            e.on_batch("Readings", chunk).unwrap();
        }
        let warm = e.resident_state();
        assert_eq!(warm.window_tuples, 20_000);
        let mut late = Vec::new();
        for sql in [
            "select r.value from Readings r [rows 20000] where r.value < 0",
            "select r.sensor from Readings r [rows 30000] where r.value < 0",
            "select a.value from Readings a [range 5 seconds], Readings b [rows 9] \
             where a.sensor = b.sensor ^ a.value < 0",
        ] {
            late.push(e.register_sql(sql).unwrap().expect_query());
            let rs = e.resident_state();
            assert_eq!(rs.window_tuples, warm.window_tuples, "attach copied rows");
            assert_eq!(rs.state_bytes, warm.state_bytes, "attach grew state");
        }
        assert_eq!(e.resident_state().log_cursors, 5);
        // The log's rows are untouched: the next arrival evicts exactly
        // the oldest one from the ROWS 20000 windows, and the late
        // windows hold only what arrived after them.
        e.on_batch("Readings", &[reading(1, 50.0, 200)]).unwrap();
        let rs = e.resident_state();
        assert_eq!(
            rs.window_tuples, 20_000,
            "ROWS 30000 cursor pins only its own suffix"
        );
        for q in late {
            e.deregister(q).unwrap();
        }
        e.deregister(q1).unwrap();
        assert_eq!(e.resident_state().window_tuples, 0);
    }

    #[test]
    fn pause_resume_recycles_the_cursor() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let q1 = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        let q2 = e
            .register_sql("select r.sensor from Readings r")
            .unwrap()
            .expect_query();
        e.on_batch("Readings", &[reading(1, 10.0, 1)]).unwrap();
        e.pause(q2).unwrap();
        assert_eq!(e.resident_state().log_cursors, 1, "pause drops the cursor");
        let frozen = e.snapshot(q2).unwrap();
        e.on_batch("Readings", &[reading(2, 20.0, 2)]).unwrap();
        assert_eq!(e.snapshot(q2).unwrap(), frozen, "paused sink is frozen");
        assert_eq!(e.snapshot(q1).unwrap().len(), 2);
        // Resume attaches a fresh cursor at the tail: it behaves like a
        // new registration, seeing only post-resume data.
        e.resume(q2).unwrap();
        assert_eq!(e.resident_state().log_cursors, 2);
        e.on_batch("Readings", &[reading(3, 30.0, 3)]).unwrap();
        assert_eq!(e.snapshot(q2).unwrap().len(), 1);
        assert_eq!(e.snapshot(q1).unwrap().len(), 3);
    }

    #[test]
    fn migrate_rejoins_the_recipient_log() {
        let mut e = ShardedEngine::new(catalog(), 2);
        let early = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        let home = e.queries[&early.0].shard;
        e.on_batch("Readings", &[reading(1, 10.0, 1), reading(2, 20.0, 2)])
            .unwrap();
        // Land a late cursor on the same shard (placement is hash-driven,
        // so keep registering variants until one arrives on a warm log).
        let mut late = None;
        for i in 0..32 {
            let h = e
                .register_sql(&format!(
                    "select r.value from Readings r where r.value > {i}"
                ))
                .unwrap()
                .expect_query();
            if e.queries[&h.0].shard == home {
                late = Some(h);
                break;
            }
            e.deregister(h).unwrap();
        }
        let late = late.expect("some late variant lands on the early query's shard");
        e.on_batch("Readings", &[reading(1, 100.0, 3)]).unwrap();
        let before = e.snapshot(late).unwrap();
        assert_eq!(before.len(), 1, "late cursor saw only the post-attach row");
        let ops_before = e.total_ops_invoked();
        // Migration moves the cursor, not its rows: it rejoins the
        // recipient's log at its frame, and the one row of its window that
        // log lacks (it has none) is back-filled under its id.
        let taps_before = e.resident_state().log_cursors;
        let away = (home + 1) % 2;
        e.migrate(late, away).unwrap();
        assert_eq!(e.resident_state().log_cursors, taps_before);
        assert_eq!(e.snapshot(late).unwrap(), before, "no replay on migrate");
        assert_eq!(e.total_ops_invoked(), ops_before);
        let report = e.telemetry_at(Consistency::Fresh);
        let moved = report.query(late.0).unwrap();
        assert!(moved.shared && moved.private_windows == 0, "{moved:?}");
        assert_eq!(report.shards[away].backfilled_rows, 1);
        assert_eq!(
            e.log_contents(e.catalog().source("Readings").unwrap().id)[away].len(),
            1
        );
        // The moved window holds only post-attach tuples: the pre-attach
        // expiry retracts from `early` alone.
        e.heartbeat(SimTime::from_secs(12)).unwrap();
        assert_eq!(e.snapshot(late).unwrap(), before);
        assert_eq!(e.snapshot(early).unwrap().len(), 1);
        // Back home its frame equals `early`'s: it joins that class, and
        // the home log already holds its row, so nothing is copied.
        e.migrate(late, home).unwrap();
        let rs = e.resident_state();
        assert_eq!(
            (rs.source_logs, rs.log_cursors, rs.cursor_classes),
            (1, 2, 1)
        );
        let report = e.telemetry_at(Consistency::Fresh);
        assert_eq!(report.shards[home].backfilled_rows, 0);
        e.on_batch("Readings", &[reading(1, 200.0, 13)]).unwrap();
        assert_eq!(e.snapshot(late).unwrap().len(), 2);
        assert_eq!(e.snapshot(early).unwrap().len(), 2);
    }

    /// Join sides over one log share one key index per shard — one per
    /// key columns and filter chain — whatever windows they read, before
    /// and after migrating to a shard that holds their index and to one
    /// that does not; the shard exports the indexes in both renderings,
    /// charged once to its log; and the last member out frees them.
    #[test]
    fn join_sides_over_one_log_share_one_key_index() {
        let config = EngineConfig::new()
            .shards(2)
            .scheduling(Scheduling::Sequential);
        let mut e = ShardedEngine::with_config(catalog(), config);
        let sqls: Vec<String> = ["[rows 3]", "[rows 50]", "[range 9 seconds]", "[rows 50]"]
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let filter = if i == 3 { " and a.value > 50" } else { "" };
                format!(
                    "select a.value, b.value from Readings a {w}, Readings b [rows 2] \
                     where a.sensor = b.sensor{filter}"
                )
            })
            .collect();
        let handles: Vec<QueryHandle> = sqls
            .iter()
            .map(|sql| e.register_sql(sql).unwrap().expect_query())
            .collect();
        for &h in &handles {
            e.migrate(h, 0).unwrap();
        }
        let readings = e.catalog().source("Readings").unwrap().id;
        let mut private: Vec<(Pipeline, Sink)> = sqls
            .iter()
            .map(|sql| {
                let plan = match aspen_sql::compile(sql, e.catalog()).unwrap() {
                    aspen_sql::BoundQuery::Select(b) => b.plan,
                    _ => unreachable!("a select"),
                };
                let mut p = Pipeline::compile(&plan).unwrap();
                let mut sink = p.make_sink();
                p.start(&mut sink).unwrap();
                (p, sink)
            })
            .collect();
        let mut now = 0u64;
        let mut run = |e: &mut ShardedEngine, private: &mut Vec<(Pipeline, Sink)>, steps| {
            for step in 0..steps {
                if step % 4 == 3 {
                    now += 3;
                    let at = SimTime::from_secs(now);
                    e.heartbeat(at).unwrap();
                    for (p, sink) in private.iter_mut() {
                        p.advance_time(at, sink).unwrap();
                    }
                } else {
                    let batch: Vec<Tuple> = (0..20u64)
                        .map(|i| reading(((now + i * 7) % 5) as i64, (i * 13 % 100) as f64, now))
                        .collect();
                    now += 1;
                    e.on_batch("Readings", &batch).unwrap();
                    for (p, sink) in private.iter_mut() {
                        p.push_source(readings, &batch, sink).unwrap();
                    }
                }
                for (h, (_, sink)) in handles.iter().zip(private.iter()) {
                    let mut got = e.snapshot(*h).unwrap();
                    let mut want = sink.snapshot().unwrap();
                    got.sort_by_key(|t| format!("{t:?}"));
                    want.sort_by_key(|t| format!("{t:?}"));
                    assert_eq!(got, want, "query {} at {now} s", h.0 .0);
                }
            }
        };
        let shards = |e: &ShardedEngine| -> Vec<(usize, usize)> {
            let report = e.telemetry_at(Consistency::Fresh);
            let load = |s: &ShardLoad| (s.join_indexes, s.join_index_members);
            report.shards.iter().map(load).collect()
        };
        run(&mut e, &mut private, 12);
        // Every side keyed on `sensor` with no filter is a member of one
        // index (each query's `b`, and `a` but in the filtered one).
        assert_eq!(shards(&e), vec![(2, 8), (0, 0)]);
        let report = e.telemetry_at(Consistency::Fresh);
        let s = &report.shards[0];
        assert!(s.join_index_bytes > 0 && s.join_rows_walked > 0, "{s:?}");
        assert!(s.log_bytes > s.join_index_bytes);
        for q in &report.queries {
            assert_eq!(q.state_bytes, 0, "an indexed side holds nothing itself");
        }
        let prom = crate::render_prometheus(&report);
        let json = crate::render_json(&report);
        for (name, value) in [
            ("join_indexes", 2),
            ("join_index_members", 8),
            ("join_index_bytes", s.join_index_bytes),
            ("join_rows_walked_total", s.join_rows_walked),
        ] {
            let line = format!("aspen_shard_{name}{{shard=\"0\"}} {value}\n");
            assert!(prom.contains(&line), "{line} missing from:\n{prom}");
        }
        let row = format!(
            "\"join_indexes\":2,\"join_index_members\":8,\"join_index_bytes\":{},\
             \"join_rows_walked\":{}}}",
            s.join_index_bytes, s.join_rows_walked
        );
        assert!(json.contains(&row), "{row} missing from {json}");
        // To a shard that holds no index, then one that holds its index.
        e.migrate(handles[1], 1).unwrap();
        assert_eq!(shards(&e), vec![(2, 6), (1, 2)]);
        run(&mut e, &mut private, 8);
        e.migrate(handles[2], 1).unwrap();
        assert_eq!(shards(&e), vec![(2, 4), (1, 4)]);
        run(&mut e, &mut private, 8);
        for &h in &handles {
            e.deregister(h).unwrap();
        }
        let report = e.telemetry_at(Consistency::Fresh);
        for s in &report.shards {
            assert_eq!((s.join_indexes, s.join_index_bytes), (0, 0));
        }
    }

    /// A batch whose first number is not its log's tail is a typed error
    /// naming the source and both row ids, and nothing moved.
    #[test]
    fn a_misnumbered_batch_is_refused_by_the_log() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let q = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        e.on_batch("Readings", &[reading(1, 10.0, 1), reading(2, 20.0, 1)])
            .unwrap();
        let src = e.catalog().source("Readings").unwrap().id;
        let skipped = e
            .shard(0)
            .lock()
            .push_batch(src, 5, &[reading(3, 30.0, 2)], None);
        let Err(AspenError::Execution(msg)) = skipped else {
            panic!("a gap in the numbering was accepted: {skipped:?}");
        };
        assert!(
            msg.contains(&format!("{src:?}")) && msg.contains("from 5") && msg.contains("row is 2"),
            "{msg}"
        );
        assert_eq!(e.snapshot(q).unwrap().len(), 2);
        assert_eq!(e.log_contents(src)[0].len(), 2);
        e.on_batch("Readings", &[reading(4, 40.0, 2)]).unwrap();
        assert_eq!(e.snapshot(q).unwrap().len(), 3);
    }

    #[test]
    fn telemetry_attribution_matches_private_execution() {
        // The rebalancer must see each query's load as what the query
        // costs run privately — a standalone pipeline of its own — so
        // sharing saves real work without creating phantom or vanishing
        // attribution.
        let sqls: Vec<String> = (0..3)
            .map(|i| {
                format!(
                    "select r.sensor, avg(r.value) from Readings r \
                     where r.sensor < {} group by r.sensor",
                    8 - i
                )
            })
            .collect();
        let mut e = ShardedEngine::new(catalog(), 1);
        let handles: Vec<QueryHandle> = sqls
            .iter()
            .map(|sql| e.register_sql(sql).unwrap().expect_query())
            .collect();
        let readings = e.catalog().source("Readings").unwrap().id;
        let mut private: Vec<(Pipeline, Sink)> = sqls
            .iter()
            .map(|sql| {
                let plan = match aspen_sql::compile(sql, e.catalog()).unwrap() {
                    aspen_sql::BoundQuery::Select(b) => b.plan,
                    _ => unreachable!("a select"),
                };
                let mut p = Pipeline::compile(&plan).unwrap();
                let mut sink = p.make_sink();
                p.start(&mut sink).unwrap();
                (p, sink)
            })
            .collect();
        for i in 0..20u64 {
            let batch = [reading((i % 8) as i64, i as f64, i)];
            e.on_batch("Readings", &batch).unwrap();
            for (p, sink) in &mut private {
                p.push_source(readings, &batch, sink).unwrap();
            }
        }
        let at = SimTime::from_secs(40);
        e.heartbeat(at).unwrap();
        for (p, sink) in &mut private {
            p.advance_time(at, sink).unwrap();
        }
        assert_eq!(
            e.resident_state().log_cursors,
            3,
            "sharing actually engaged"
        );
        let report = e.telemetry();
        assert_eq!(report.shards[0].tuples_in, 20, "shard ingest metered once");
        for (h, (p, sink)) in handles.iter().zip(&private) {
            let q = report.query(h.0).unwrap();
            assert_eq!(
                (q.tuples_in, q.ops_invoked, q.output_deltas),
                (p.tuples_in, p.ops_invoked, sink.deltas_applied),
                "per-query attribution diverged"
            );
        }
    }

    #[test]
    fn telemetry_flags_shared_queries_and_chains() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let shared_q = e
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        let private_q = e
            .register_sql("select e.src from Edge e")
            .unwrap()
            .expect_query();
        let report = e.telemetry();
        assert!(report.query(shared_q.0).unwrap().shared);
        assert!(!report.query(private_q.0).unwrap().shared);
        assert_eq!(report.shards[0].source_logs, 1);
        assert_eq!(report.shards[0].log_cursors, 1);
        // Only the table scan windows privately, and the exports say so.
        let private = |q: QueryHandle| report.query(q.0).unwrap().private_windows;
        assert_eq!((private(shared_q), private(private_q)), (0, 1));
        assert_eq!(report.shards[0].private_windows, 1);
        let prom = crate::render_prometheus(&report);
        let line = format!(
            "aspen_query_private_windows{{query=\"{}\",shard=\"0\"}} 1\n",
            private_q.0 .0
        );
        assert!(prom.contains(&line), "{prom}");
        assert!(
            prom.contains("aspen_shard_private_windows{shard=\"0\"} 1\n"),
            "{prom}"
        );
        assert!(
            prom.contains("aspen_shard_backfilled_rows_total{shard=\"0\"} 0\n"),
            "{prom}"
        );
        let json = crate::render_json(&report);
        assert!(
            json.contains("\"backfilled_rows\":0,\"private_windows\":1,"),
            "{json}"
        );
        assert!(
            json.contains("\"grouped_filter\":false,\"private_windows\":1,"),
            "{json}"
        );
    }

    /// The engine states its own byte split: pipelines, logs and tables
    /// are disjoint and add up to the gated total, per shard and whole.
    /// A shard's logs count the sealed segments they share with the other
    /// shard's at full size; the engine counts them once.
    #[test]
    fn state_bytes_split_into_queries_logs_and_tables() {
        let mut e = ShardedEngine::new(catalog(), 2);
        for sql in [
            "select r.sensor, avg(r.value) from Readings r [range 30 seconds] group by r.sensor",
            "select a.sensor, b.value from Readings a [rows 40], Readings b [rows 9] \
             where a.sensor = b.sensor",
            "select r.value from Readings r [rows 25] where r.value > 3",
            "select e.src from Edge e",
        ] {
            e.register_sql(sql).unwrap().expect_query();
        }
        let edges: Vec<Tuple> = (0..50)
            .map(|i| {
                let end = |n: i32| Value::Text(format!("room-{n}"));
                Tuple::new(vec![end(i), end(i + 1)], SimTime::ZERO)
            })
            .collect();
        e.on_batch("Edge", &edges).unwrap();
        for i in 0..200u64 {
            e.on_batch("Readings", &[reading((i % 8) as i64, i as f64, i / 4)])
                .unwrap();
        }
        let rs = e.resident_state();
        let report = e.telemetry_at(Consistency::Fresh);
        let of_shard = |i: usize| -> u64 {
            let on = report.queries.iter().filter(|q| q.shard == i);
            on.map(|q| q.state_bytes).sum()
        };
        let queries = of_shard(0) + of_shard(1);
        assert!(
            queries > 0 && rs.log_bytes > 0 && rs.table_bytes > 0,
            "{rs:?}"
        );
        assert_eq!(
            rs.state_bytes,
            queries as usize + rs.log_bytes + rs.table_bytes
        );
        for s in &report.shards {
            assert_eq!(s.footprint.resident as u64, of_shard(s.shard) + s.log_bytes);
        }
        // Both shards log Readings; what they hold alike is stored once.
        assert!(report.shards.iter().all(|s| s.source_logs == 1));
        let logs: u64 = report.shards.iter().map(|s| s.log_bytes).sum();
        let saved = logs as usize - rs.log_bytes;
        let smaller = report.shards.iter().map(|s| s.log_bytes).min().unwrap();
        assert!(
            saved > 0 && saved <= smaller as usize,
            "saved {saved} of {logs}"
        );
        assert!(rs.log_shared_bytes > 0 && rs.log_shared_bytes < rs.log_bytes);
        assert_eq!(report.log_shared_bytes as usize, rs.log_shared_bytes);
        assert_eq!(rs.spill_read_failures, 0);
        let busiest = report.shards.iter().max_by_key(|s| s.log_bytes).unwrap();
        let prom = format!(
            "aspen_shard_log_bytes{{shard=\"{}\"}} {}\n",
            busiest.shard, busiest.log_bytes
        );
        let rendered = crate::render_prometheus(&report);
        assert!(rendered.contains(&prom), "{rendered}");
        assert!(rendered.contains("aspen_shard_spill_read_failures_total{"));
        let shared = format!("aspen_log_shared_bytes {}\n", rs.log_shared_bytes);
        assert!(rendered.contains(&shared), "{rendered}");
        let json = crate::render_json(&report);
        for field in [
            format!(
                "\"log_bytes\":{},\"spill_read_failures\":0,",
                busiest.log_bytes
            ),
            format!("\"log_shared_bytes\":{},", rs.log_shared_bytes),
        ] {
            assert!(json.contains(&field), "{field} missing from {json}");
        }
    }

    /// The census says which encoding the sealed bytes took: a value
    /// column on a decimal grid seals as `decimal`, one off every grid
    /// stays `float` at 8 B a row — and both are exported.
    #[test]
    fn sealed_bytes_by_encoding_are_exported() {
        let mut e = ShardedEngine::new(catalog(), 1);
        e.register_sql("select r.value from Readings r [rows 500]")
            .unwrap()
            .expect_query();
        let by = |c: Census, name: &str| c.iter().find(|&(e, _)| e == name).unwrap().1;
        let feed = |e: &mut ShardedEngine, rows: std::ops::Range<u64>, value: fn(u64) -> f64| {
            for i in rows {
                let r = reading((i % 8) as i64, value(i), i);
                e.on_batch("Readings", &[r]).unwrap();
            }
        };
        feed(&mut e, 0..200, |i| i as f64 * 0.5);
        let on_grid = e.telemetry_at(Consistency::Fresh).shards[0]
            .footprint
            .sealed;
        assert!(by(on_grid, "decimal") > 0, "{on_grid:?}");
        assert_eq!(by(on_grid, "float"), 0, "{on_grid:?}");
        // Thirds are on no grid: rows 192..384 seal as six plain segments.
        feed(&mut e, 200..400, |i| i as f64 / 3.0);
        let report = e.telemetry_at(Consistency::Fresh);
        let census = report.shards[0].footprint.sealed;
        assert_eq!(by(census, "float"), 6 * 32 * 8, "{census:?}");
        assert_eq!(by(census, "decimal"), by(on_grid, "decimal"));
        let prom = crate::render_prometheus(&report);
        let line = "aspen_shard_sealed_bytes{shard=\"0\",encoding=\"float\"} 1536\n";
        assert!(prom.contains(line), "{prom}");
        let json = crate::render_json(&report);
        let field = format!("\"sealed_bytes\":{{\"plain\":{},", by(census, "plain"));
        assert!(json.contains(&field), "{field} missing from {json}");
    }

    /// `n` `Edge` rows `room-i → room-(i+1)`; 200 of them fill six
    /// sealed segments of 32 and leave eight rows active.
    fn edges(n: i32) -> Vec<Tuple> {
        let end = |n: i32| Value::Text(format!("room-{n}"));
        let edge = |i| Tuple::new(vec![end(i), end(i + 1)], SimTime::ZERO);
        (0..n).map(edge).collect()
    }

    /// The retained tables' spill reads reach both exports: with their
    /// six spill files gone, a late query reads the eight active rows and
    /// the report says six reads failed, as `resident_state` does.
    #[test]
    fn table_spill_read_failures_are_exported() {
        let dir = std::env::temp_dir().join(format!("aspen-table-reads-{}", std::process::id()));
        let config = EngineConfig::new().shards(1).spill(64, &dir);
        let mut e = ShardedEngine::with_config(catalog(), config);
        e.on_batch("Edge", &edges(200)).unwrap();
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 6);
        for f in files {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
        let q = e.register_sql("select e.src from Edge e").unwrap();
        assert_eq!(e.snapshot(q.expect_query()).unwrap().len(), 8);
        assert_eq!(e.resident_state().spill_read_failures, 6);
        let report = e.telemetry_at(Consistency::Fresh);
        assert_eq!(report.tables.read_failures, 6);
        let prom = crate::render_prometheus(&report);
        let line = "aspen_table_spill_read_failures_total 6\n";
        assert!(prom.contains(line), "{line} missing from:\n{prom}");
        let json = crate::render_json(&report);
        let field = "\"table_spill_read_failures\":6,";
        assert!(json.contains(field), "{field} missing from {json}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A spill directory that cannot be made costs one counted write
    /// per seal past the threshold, in a table, a log and a window alike,
    /// and changes nothing else: every snapshot and byte equals an
    /// engine's without a spill tier.
    #[test]
    fn failed_spill_writes_are_counted_and_change_nothing() {
        let file = std::env::temp_dir().join(format!("aspen-unwritable-{}", std::process::id()));
        std::fs::write(&file, b"not a directory").unwrap();
        let config = |spill: bool| {
            let config = EngineConfig::new().shards(1);
            if spill {
                config.spill(64, file.join("spill"))
            } else {
                config
            }
        };
        let (mut e, mut plain) = (
            ShardedEngine::with_config(catalog(), config(true)),
            ShardedEngine::with_config(catalog(), config(false)),
        );
        let mut queries = Vec::new();
        for sql in [
            "select r.sensor, r.value from Readings r [rows 100]",
            "select e.src, r.value from Edge e [rows 150], Readings r [rows 3] \
             where e.src = 'room-1'",
        ] {
            let q = (e.register_sql(sql), plain.register_sql(sql));
            queries.push((q.0.unwrap().expect_query(), q.1.unwrap().expect_query()));
        }
        for engine in [&mut e, &mut plain] {
            engine.on_batch("Edge", &edges(200)).unwrap();
        }
        for i in 0..300u64 {
            let r = [reading((i % 8) as i64, i as f64 * 0.5, i)];
            e.on_batch("Readings", &r).unwrap();
            plain.on_batch("Readings", &r).unwrap();
            for &(q, p) in &queries {
                assert_eq!(
                    e.snapshot(q).unwrap(),
                    plain.snapshot(p).unwrap(),
                    "row {i}"
                );
            }
        }
        let rs = e.resident_state();
        assert_eq!((rs.spilled_bytes, rs.spill_read_failures), (0, 0));
        let alike = ResidentState {
            spill_write_failures: 0,
            ..rs
        };
        assert_eq!(alike, plain.resident_state());
        let report = e.telemetry_at(Consistency::Fresh);
        let (tables, shard) = (report.tables, report.shards[0].footprint);
        assert_eq!(tables.write_failures, 6, "one a seal of a 200-row table");
        assert!(shard.write_failures > 0 && shard.spilled == 0, "{shard:?}");
        assert_eq!(
            rs.spill_write_failures,
            tables.write_failures + shard.write_failures
        );
        let prom = crate::render_prometheus(&report);
        let json = crate::render_json(&report);
        for line in [
            format!(
                "aspen_table_spill_write_failures_total {}\n",
                tables.write_failures
            ),
            format!(
                "aspen_shard_spill_write_failures_total{{shard=\"0\"}} {}\n",
                shard.write_failures
            ),
        ] {
            assert!(prom.contains(&line), "{line} missing from:\n{prom}");
        }
        for field in [
            format!("\"table_spill_write_failures\":{}", tables.write_failures),
            format!(",\"spill_write_failures\":{},", shard.write_failures),
        ] {
            assert!(json.contains(&field), "{field} missing from {json}");
        }
        let _ = std::fs::remove_file(&file);
    }

    /// "Why is this query fat" from the exports alone: each query's live
    /// groups and state bytes, which with the logs and tables add up to
    /// the engine's total.
    #[test]
    fn query_groups_and_state_bytes_are_exported() {
        let mut e = ShardedEngine::new(catalog(), 1);
        let grouped = e
            .register_sql("select r.sensor, count(*) from Readings r group by r.sensor")
            .unwrap()
            .expect_query();
        let global = e
            .register_sql("select count(*) from Readings r [rows 5]")
            .unwrap()
            .expect_query();
        for i in 0..40u64 {
            e.on_batch("Readings", &[reading((i % 8) as i64, i as f64, i)])
                .unwrap();
        }
        let rs = e.resident_state();
        let report = e.telemetry_at(Consistency::Fresh);
        let load = |q: QueryHandle| report.query(q.0).unwrap();
        assert_eq!((load(grouped).groups, load(global).groups), (8, 1));
        let queries: u64 = report.queries.iter().map(|q| q.state_bytes).sum();
        assert!(load(grouped).state_bytes > load(global).state_bytes);
        assert_eq!(
            queries as usize + rs.log_bytes + rs.table_bytes,
            rs.state_bytes
        );
        let prom = crate::render_prometheus(&report);
        let json = crate::render_json(&report);
        for q in [grouped, global] {
            let (l, at) = (load(q), format!("{{query=\"{}\",shard=\"0\"}}", q.0 .0));
            for line in [
                format!("aspen_query_groups{at} {}\n", l.groups),
                format!("aspen_query_state_bytes{at} {}\n", l.state_bytes),
            ] {
                assert!(prom.contains(&line), "{line} missing from:\n{prom}");
            }
            let fields = format!(
                "\"ops_invoked\":{},\"state_bytes\":{},\"groups\":{},",
                l.ops_invoked, l.state_bytes, l.groups
            );
            assert!(json.contains(&fields), "{fields} missing from {json}");
        }
    }

    /// Every row of the metric table reaches both exports on a node with
    /// queries, logs and tables.
    #[test]
    fn every_metric_row_is_in_both_exports() {
        let mut e = ShardedEngine::with_config(catalog(), EngineConfig::new().shards(2));
        for sql in [
            "select r.sensor, avg(r.value) from Readings r [range 30 seconds] group by r.sensor",
            "select r.value from Readings r [rows 25] where r.value > 3",
            "select e.src from Edge e",
        ] {
            e.register_sql(sql).unwrap().expect_query();
        }
        for i in 0..100u64 {
            e.on_batch("Readings", &[reading((i % 8) as i64, i as f64, i)])
                .unwrap();
        }
        crate::trace::assert_exports_cover_the_table(&e.telemetry_at(Consistency::Fresh));
    }

    /// The report names the mode the executor resolved: a default
    /// 1-shard engine runs sequential, a pinned mode is what it says.
    #[test]
    fn telemetry_exports_the_resolved_scheduling_mode() {
        use crate::Scheduling::{Deterministic, Pool, Sequential};
        for (config, want, name) in [
            (EngineConfig::new(), Sequential, "sequential"),
            (EngineConfig::new().scheduling(Pool), Pool, "pool"),
            (
                EngineConfig::new().deterministic(3),
                Deterministic(3),
                "deterministic",
            ),
        ] {
            let report = ShardedEngine::with_config(catalog(), config).telemetry();
            assert_eq!(report.scheduling, want);
            let info = format!("aspen_scheduling{{scheduling=\"{name}\"}} 1\n");
            assert!(crate::render_prometheus(&report).contains(&info));
            let field = format!("\"scheduling\":\"{name}\"");
            assert!(crate::render_json(&report).contains(&field));
        }
    }

    #[test]
    fn plan_cache_serves_repeats_and_templates() {
        let mut e = ShardedEngine::new(catalog(), 1);
        e.register_sql("select r.value from Readings r where r.value > 10")
            .unwrap()
            .expect_query();
        // Identical SQL: the exact tier skips parse and bind.
        e.register_sql("select r.value from Readings r where r.value > 10")
            .unwrap()
            .expect_query();
        // A parameter variant of the same template: bind is skipped.
        e.register_sql("select r.value from Readings r where r.value > 99")
            .unwrap()
            .expect_query();
        let stats = e.plan_cache_stats().unwrap();
        assert_eq!(stats.exact_hits, 1);
        assert_eq!(stats.template_hits, 1);
        assert_eq!(stats.misses, 1);
        // All three are live, independent queries despite the shared plan.
        assert_eq!(e.query_count(), 3);
    }

    #[test]
    fn incremental_routes_are_order_independent() {
        // Routing is pure refcounting: the fan-out sets an engine ends
        // up with must depend only on which queries survive, never on
        // the order registrations, removals, pauses, and subscriptions
        // happened — there is no global rebuild whose iteration order
        // could leak into the result.
        let sqls = [
            "select r.value from Readings r",
            "select r.sensor, avg(r.value) from Readings r group by r.sensor",
            "select e.src from Edge e",
            "select count(*) from Readings r",
            "select e.dst from Edge e",
            "select r.value from Readings r where r.value > 50",
        ];
        let build = || {
            let mut e = ShardedEngine::new(catalog(), 4);
            let hs: Vec<QueryHandle> = sqls
                .iter()
                .map(|s| e.register_sql(s).unwrap().expect_query())
                .collect();
            (e, hs)
        };
        let routing_state = |e: &ShardedEngine| {
            let fan = |src: SourceId| e.routes.fanout(Counted::Scans(src));
            let readings = fan(e.catalog().source("Readings").unwrap().id);
            let edge = fan(e.catalog().source("Edge").unwrap().id);
            let counts = |key| e.routes.0.get(&key).cloned().unwrap_or(vec![0; 4]);
            (
                readings,
                edge,
                counts(Counted::Clock),
                counts(Counted::Push),
            )
        };
        let (mut a, ha) = build();
        let (mut b, hb) = build();
        // The same churn multiset applied in two different orders.
        a.subscribe(ha[1]).unwrap();
        a.deregister(ha[0]).unwrap();
        a.pause(ha[3]).unwrap();
        a.deregister(ha[4]).unwrap();
        a.resume(ha[3]).unwrap();
        b.pause(hb[3]).unwrap();
        b.deregister(hb[4]).unwrap();
        b.resume(hb[3]).unwrap();
        b.deregister(hb[0]).unwrap();
        b.subscribe(hb[1]).unwrap();
        assert_eq!(routing_state(&a), routing_state(&b));
        // Both agree with a recompute from the surviving runtimes — the
        // oracle the old whole-table rebuild produced.
        let readings = a.catalog().source("Readings").unwrap().id;
        let scans_readings = |(qid, m): (&QueryId, &QueryMeta)| {
            let shard = a.shard(m.shard).lock();
            let rt = &shard.queries[qid];
            (!rt.paused && rt.pipeline.scans(readings)).then_some(m.shard)
        };
        let mut expected: Vec<usize> = a.queries.iter().filter_map(scans_readings).collect();
        expected.sort_unstable();
        expected.dedup();
        assert_eq!(routing_state(&a).0, expected);
        // Both engines still route ingest correctly after the churn.
        a.on_batch("Readings", &[reading(1, 60.0, 1)]).unwrap();
        b.on_batch("Readings", &[reading(1, 60.0, 1)]).unwrap();
        assert_eq!(
            a.snapshot(ha[5]).unwrap(),
            b.snapshot(hb[5]).unwrap(),
            "surviving queries agree after order-reversed churn"
        );
    }

    /// One heartbeat expires matching rows on both sides of a
    /// `RANGE ⋈ RANGE` join. Whichever side comes first in scan order is
    /// delivered its retractions while the other side's index still
    /// names the rows this very step expires — so the logs must keep
    /// them until every pipeline ran (step → deliver → release).
    #[test]
    fn expiry_in_either_scan_order_retracts_each_pair_once() {
        let cat = catalog();
        let alarms = Schema::new(vec![
            Field::new("sensor", DataType::Int),
            Field::new("level", DataType::Int),
        ]);
        let stats = SourceStats::stream(0.5);
        cat.register_source("Alarms", alarms.into_ref(), SourceKind::Stream, stats)
            .unwrap();
        let mut e = ShardedEngine::new(cat, 1);
        let select = "select r.value, a.level from";
        let on = "where r.sensor = a.sensor";
        let (r, a) = (
            "Readings r [range 10 seconds]",
            "Alarms a [range 10 seconds]",
        );
        let orders = [
            format!("{select} {r}, {a} {on}"),
            format!("{select} {a}, {r} {on}"),
        ];
        let queries = orders.map(|sql| e.register_sql(&sql).unwrap().expect_query());

        e.on_batch("Readings", &[reading(1, 5.0, 1), reading(2, 6.0, 1)])
            .unwrap();
        let alarm = |sensor, level, sec| {
            Tuple::new(
                vec![Value::Int(sensor), Value::Int(level)],
                SimTime::from_secs(sec),
            )
        };
        e.on_batch("Alarms", &[alarm(1, 3, 1), alarm(1, 4, 2), alarm(2, 9, 2)])
            .unwrap();
        let pairs = |e: &ShardedEngine, q| {
            let mut rows: Vec<Vec<Value>> = e
                .snapshot(q)
                .unwrap()
                .iter()
                .map(|t| t.values().to_vec())
                .collect();
            rows.sort();
            rows
        };
        // The model: a nested loop over both windows.
        let model = vec![
            vec![Value::Float(5.0), Value::Int(3)],
            vec![Value::Float(5.0), Value::Int(4)],
            vec![Value::Float(6.0), Value::Int(9)],
        ];
        for q in queries {
            assert_eq!(pairs(&e, q), model);
        }
        e.heartbeat(SimTime::from_secs(20)).unwrap();
        for q in queries {
            assert_eq!(
                pairs(&e, q),
                Vec::<Vec<Value>>::new(),
                "both windows are empty"
            );
        }
        assert_eq!(e.resident_state().window_tuples, 0, "and so are the logs");
        // Nothing is left behind: a fresh pair joins exactly once.
        e.on_batch("Readings", &[reading(1, 7.0, 21)]).unwrap();
        e.on_batch("Alarms", &[alarm(1, 2, 21)]).unwrap();
        for q in queries {
            assert_eq!(pairs(&e, q), vec![vec![Value::Float(7.0), Value::Int(2)]]);
        }
    }

    /// A window on a table is legal SQL, but a table's signed deltas
    /// bypass it and carry no row ids — so the join side such a scan
    /// feeds must be a materialised one, as at every release before
    /// indexed sides. And whatever one subscriber makes of a delta
    /// batch, the subscribers after it still get theirs.
    #[test]
    fn windowed_table_scan_under_a_join_takes_signed_deltas() {
        let cat = catalog();
        let caps = Schema::new(vec![
            Field::new("sensor", DataType::Int),
            Field::new("cap", DataType::Int),
        ]);
        cat.register_source(
            "Caps",
            caps.into_ref(),
            SourceKind::Table,
            SourceStats::table(4),
        )
        .unwrap();
        let mut e = ShardedEngine::new(cat, 1);
        let join = e
            .register_sql(
                "select r.value, c.cap from Caps c [rows 4], Readings r [rows 3] \
                 where c.sensor = r.sensor",
            )
            .unwrap()
            .expect_query();
        let plain = e
            .register_sql("select c.cap from Caps c where c.sensor = 1")
            .unwrap()
            .expect_query();
        let cap =
            |sensor, cap| Tuple::new(vec![Value::Int(sensor), Value::Int(cap)], SimTime::ZERO);
        let rows = |e: &ShardedEngine, q| {
            let snap = e.snapshot(q).unwrap();
            let mut rows: Vec<Vec<Value>> = snap.iter().map(|t| t.values().to_vec()).collect();
            rows.sort();
            rows
        };
        e.on_deltas(
            "Caps",
            &DeltaBatch::from(vec![Delta::insert(cap(1, 10)), Delta::insert(cap(2, 20))]),
        )
        .unwrap();
        e.on_batch("Readings", &[reading(1, 5.0, 1), reading(2, 6.0, 1)])
            .unwrap();
        assert_eq!(
            rows(&e, join),
            vec![
                vec![Value::Float(5.0), Value::Int(10)],
                vec![Value::Float(6.0), Value::Int(20)],
            ]
        );
        assert_eq!(rows(&e, plain), vec![vec![Value::Int(10)]]);
        // An update: the old row is retracted by value, past the window.
        e.on_deltas(
            "Caps",
            &DeltaBatch::from(vec![Delta::retract(cap(1, 10)), Delta::insert(cap(1, 11))]),
        )
        .unwrap();
        e.quiesce().unwrap();
        assert_eq!(
            rows(&e, join),
            vec![
                vec![Value::Float(5.0), Value::Int(11)],
                vec![Value::Float(6.0), Value::Int(20)],
            ]
        );
        assert_eq!(rows(&e, plain), vec![vec![Value::Int(11)]]);
        // The stream side is still indexed: its rows live in the log only.
        let report = e.telemetry();
        let held = report.query(join.0).unwrap().state_bytes;
        assert!(held < 400, "two table rows and an index, not {held} B");
        // Signed deltas on the *stream* name no log row, and a live query
        // indexes its window: admission refuses them before any shard
        // runs, so no subscriber — nor the clock — sees them. With the
        // indexing query paused, the same batch is served.
        let tail = e
            .register_sql("select r.value from Readings r [rows 3]")
            .unwrap()
            .expect_query();
        let signed = DeltaBatch::from(vec![Delta::insert(reading(2, 7.0, 2))]);
        let refused = e.on_deltas("Readings", &signed).and_then(|()| e.quiesce());
        assert_eq!(refused.unwrap_err().kind(), "invalid_argument");
        assert_eq!(rows(&e, tail), Vec::<Vec<Value>>::new());
        assert_eq!(e.now(), SimTime::from_secs(1));
        e.pause(join).unwrap();
        e.on_deltas("Readings", &signed).unwrap();
        assert_eq!(rows(&e, tail), vec![vec![Value::Float(7.0)]]);
    }

    #[test]
    fn late_stamped_tuple_expires_with_its_predecessor_and_is_counted() {
        // Admission takes stamps as they come. A `RANGE` window expires
        // a prefix of the arrival order, so the tuple stamped 2 that
        // arrives behind 5 and 9 outlives its own stamp — it goes when
        // 9 does — and telemetry says one tuple arrived out of order.
        let mut e = ShardedEngine::new(catalog(), 2);
        let q = e
            .register_sql("select r.sensor from Readings r [range 10 seconds]")
            .unwrap()
            .expect_query();
        e.on_batch("Readings", &[reading(1, 0.0, 5), reading(2, 0.0, 9)])
            .unwrap();
        e.on_batch("Readings", &[reading(3, 0.0, 2)]).unwrap();
        // A table is not a stream: its stamps are not arrival times.
        let edge = |sec| Tuple::new(vec!["a".into(), "b".into()], SimTime::from_secs(sec));
        e.on_batch("Edge", &[edge(7), edge(1)]).unwrap();
        let mut sensors_at = |sec: u64| -> Vec<Value> {
            e.heartbeat(SimTime::from_secs(sec)).unwrap();
            let rows = e.snapshot(q).unwrap();
            rows.iter().map(|t| t.get(0).clone()).collect()
        };
        let ints = |v: &[i64]| v.iter().map(|&i| Value::Int(i)).collect::<Vec<_>>();
        // t=13: stamp 2 is outside (13 - 10, 13], but the head (5) is
        // live, so nothing expires.
        assert_eq!(sensors_at(13), ints(&[1, 2, 3]));
        // t=16: 5 goes; 9 is live and shields the late tuple behind it.
        assert_eq!(sensors_at(16), ints(&[2, 3]));
        // t=20: 9 goes, and the late tuple with it.
        assert_eq!(sensors_at(20), ints(&[]));
        assert_eq!(e.telemetry().out_of_order_tuples, 1);
    }

    #[test]
    fn views_sharing_a_windowed_base_advance_like_solo_views() {
        // Two recursive views over the same `Edge [range 10 seconds]`
        // base each window it themselves: their net deltas are exactly
        // what each view would emit alone.
        let view_sql = |name: &str| {
            format!(
                "create recursive view {name} as ( \
                   select e.src, e.dst from Edge e [range 10 seconds] \
                   union \
                   select v.src, e.dst from {name} v, Edge e [range 10 seconds] \
                   where v.dst = e.src )"
            )
        };
        let edge_at = |a: &str, b: &str, sec: u64| {
            Tuple::new(
                vec![Value::Text(a.into()), Value::Text(b.into())],
                SimTime::from_secs(sec),
            )
        };
        let mut e = ShardedEngine::new(catalog(), 2);
        e.register_sql(&view_sql("Reach")).unwrap();
        e.register_sql(&view_sql("Hops")).unwrap();
        let qr = e
            .register_sql("select v.src, v.dst from Reach v")
            .unwrap()
            .expect_query();
        let qh = e
            .register_sql("select v.src, v.dst from Hops v")
            .unwrap()
            .expect_query();
        // One oracle engine per view, registered alone: the per-view
        // ground truth a second view on the base must not disturb.
        let mut solo = ShardedEngine::new(catalog(), 2);
        solo.register_sql(&view_sql("Reach")).unwrap();
        let qs = solo
            .register_sql("select v.src, v.dst from Reach v")
            .unwrap()
            .expect_query();
        for eng in [&mut e, &mut solo] {
            eng.on_batch("Edge", &[edge_at("a", "b", 1), edge_at("b", "c", 8)])
                .unwrap();
        }
        assert_eq!(e.snapshot(qr).unwrap().len(), 3); // ab, bc, ac
        assert_eq!(e.snapshot(qh).unwrap().len(), 3);
        // t=5: inside the window — nothing fires.
        for eng in [&mut e, &mut solo] {
            eng.heartbeat(SimTime::from_secs(5)).unwrap();
        }
        assert_eq!(
            e.deltas_applied(qr).unwrap(),
            solo.deltas_applied(qs).unwrap()
        );
        // t=12: the ts-1 edge expires; a→b and the derived a→c retract
        // from BOTH views, each exactly once.
        for eng in [&mut e, &mut solo] {
            eng.heartbeat(SimTime::from_secs(12)).unwrap();
        }
        let expect = solo.snapshot(qs).unwrap();
        assert_eq!(expect.len(), 1, "only b→c survives");
        assert_eq!(e.snapshot(qr).unwrap(), expect);
        assert_eq!(e.snapshot(qh).unwrap(), expect);
        assert_eq!(
            e.deltas_applied(qr).unwrap(),
            solo.deltas_applied(qs).unwrap(),
            "same net deltas as a solo view"
        );
        assert_eq!(
            e.deltas_applied(qh).unwrap(),
            solo.deltas_applied(qs).unwrap()
        );
    }

    /// An `Edge` table plus a `Temps` device stream on one shard — the
    /// fixture of the replay / view / display tests below.
    fn engine() -> ShardedEngine {
        let cat = Catalog::shared();
        let edges = Schema::new(vec![
            Field::new("src", DataType::Text),
            Field::new("dst", DataType::Text),
        ])
        .into_ref();
        cat.register_source("Edge", edges, SourceKind::Table, SourceStats::table(10))
            .unwrap();
        let temps = Schema::new(vec![
            Field::new("desk", DataType::Int),
            Field::new("temp", DataType::Float),
        ])
        .into_ref();
        cat.register_source(
            "Temps",
            temps,
            SourceKind::Device(DeviceClass::new(&["temp"], SimDuration::from_secs(10), 4)),
            SourceStats::stream(0.4),
        )
        .unwrap();
        ShardedEngine::new(cat, 1)
    }

    fn edge(a: &str, b: &str) -> Tuple {
        Tuple::new(
            vec![Value::Text(a.into()), Value::Text(b.into())],
            SimTime::ZERO,
        )
    }

    #[test]
    fn sql_round_trip_with_heartbeat() {
        let mut e = engine();
        let q = e
            .register_sql("select t.desk from Temps t where t.temp > 90")
            .unwrap()
            .expect_query();
        e.on_batch(
            "Temps",
            &[Tuple::new(
                vec![Value::Int(1), Value::Float(99.0)],
                SimTime::from_secs(1),
            )],
        )
        .unwrap();
        assert_eq!(e.snapshot(q).unwrap().len(), 1);
        e.heartbeat(SimTime::from_secs(20)).unwrap();
        assert!(e.snapshot(q).unwrap().is_empty());
        assert_eq!(e.now(), SimTime::from_secs(20));
    }

    #[test]
    fn delta_ingest_advances_clock_like_batch_ingest() {
        // Regression: `on_deltas` used to leave `now()` stale while
        // `on_batch` advanced it — delta-only workloads then saw no time
        // pass at all. Both paths share the clock rule now.
        let mut e = engine();
        e.on_deltas(
            "Edge",
            &DeltaBatch::from(vec![Delta::insert(Tuple::new(
                vec![Value::Text("a".into()), Value::Text("b".into())],
                SimTime::from_secs(9),
            ))]),
        )
        .unwrap();
        assert_eq!(e.now(), SimTime::from_secs(9));
        // Older deltas never move the clock backwards.
        e.on_deltas(
            "Edge",
            &DeltaBatch::from(vec![Delta::retract(Tuple::new(
                vec![Value::Text("a".into()), Value::Text("b".into())],
                SimTime::from_secs(2),
            ))]),
        )
        .unwrap();
        assert_eq!(e.now(), SimTime::from_secs(9));
    }

    #[test]
    fn recursive_view_feeds_downstream_query() {
        let mut e = engine();
        e.register_sql(
            "create recursive view Reach as ( \
               select e.src, e.dst from Edge e \
               union \
               select r.src, e.dst from Reach r, Edge e where r.dst = e.src )",
        )
        .unwrap();
        let q = e
            .register_sql("select r.dst from Reach r where r.src = 'a'")
            .unwrap()
            .expect_query();
        e.on_batch("Edge", &[edge("a", "b"), edge("b", "c")])
            .unwrap();
        let snap = e.snapshot(q).unwrap();
        let dsts: Vec<_> = snap.iter().map(|t| t.get(0).clone()).collect();
        assert_eq!(dsts, vec![Value::Text("b".into()), Value::Text("c".into())]);
        // Delete the b→c edge: a→c must retract downstream too.
        e.on_deltas(
            "Edge",
            &DeltaBatch::from(vec![Delta::retract(edge("b", "c"))]),
        )
        .unwrap();
        let snap = e.snapshot(q).unwrap();
        assert_eq!(snap.len(), 1);
    }

    /// The plan and the push channel decide whether a query's result is
    /// read off its aggregate: an aggregate root alone or under one
    /// projection, below ORDER BY / LIMIT, without a channel, is — its
    /// sink holds no rows. A channel needs deltas: registered with one, or
    /// subscribed (paused or not), the result is emitted into the sink,
    /// which a resume keeps; resumed without one, it is read through again.
    #[test]
    fn aggregate_roots_without_a_channel_read_through() {
        let mut e = ShardedEngine::new(catalog(), 2);
        let by_sensor = "select r.sensor, count(*) from Readings r group by r.sensor";
        let shapes = [
            (by_sensor, true),
            (
                "select count(*), r.sensor from Readings r group by r.sensor",
                true,
            ),
            ("select max(r.value) * 2 from Readings r", true),
            (
                "select r.sensor, max(r.value) from Readings r group by r.sensor \
                 order by max(r.value) desc limit 2",
                true,
            ),
            (
                "select r.sensor, count(*) from Readings r group by r.sensor \
                 having count(*) > 1",
                false,
            ),
            ("select r.sensor from Readings r where r.value > 3", false),
        ];
        let mut queries = Vec::new();
        for (sql, through) in shapes {
            queries.push((e.register_sql(sql).unwrap().expect_query(), through));
        }
        let pushed = e.register(QuerySpec::sql(by_sensor).push()).unwrap();
        queries.push((pushed.expect_query(), false));
        let rows = (0..12).map(|i| reading(i % 5, i as f64, 1));
        e.on_batch("Readings", &rows.collect::<Vec<_>>()).unwrap();
        // Whether `q` reads through, and how many rows its sink holds.
        let state = |e: &ShardedEngine, q: QueryHandle| {
            let shard = e.shard(e.queries[&q.0].shard).lock();
            let rt = &shard.queries[&q.0];
            (rt.pipeline.reads_through(), rt.sink.len())
        };
        for &(q, through) in &queries {
            let shown = e.snapshot(q).unwrap().len();
            assert!(shown > 0, "{q:?}");
            assert_eq!(state(&e, q).0, through, "{q:?}");
            assert_eq!(state(&e, q).1 == 0, through, "{q:?}");
        }
        // Subscribed live: the sink takes the aggregate's rows over.
        let (live, paused, resumed) = (queries[0].0, queries[1].0, queries[2].0);
        let before = e.snapshot(live).unwrap();
        let sub = e.subscribe(live).unwrap();
        assert_eq!(state(&e, live), (false, before.len()));
        let pushed: usize = sub.drain().iter().map(DeltaBatch::len).sum();
        assert_eq!(
            (e.snapshot(live).unwrap(), pushed),
            (before.clone(), before.len())
        );
        // Subscribed while paused, then resumed: emitting both times.
        e.pause(paused).unwrap();
        e.subscribe(paused).unwrap();
        assert!(!state(&e, paused).0);
        e.resume(paused).unwrap();
        assert!(!state(&e, paused).0);
        // Resumed without a channel: read through again.
        e.pause(resumed).unwrap();
        e.resume(resumed).unwrap();
        assert!(state(&e, resumed).0);
    }

    /// A row whose arity is not its table's is refused at admission, so it
    /// never reaches the store later registrations replay: before, one
    /// 1-column `Edge` row made every later `select e.dst` fail in its
    /// replay with `column ordinal 1 out of range for arity 1`. Signed
    /// deltas and stream batches are refused alike, and nothing moves.
    #[test]
    fn a_row_of_the_wrong_arity_is_refused_at_admission() {
        let mut e = engine();
        let edge_id = e.catalog().source("Edge").unwrap().id;
        let temps = e.catalog().source("Temps").unwrap().id;
        e.on_batch("Edge", &[edge("a", "b")]).unwrap();
        let short = Tuple::new(vec![Value::Text("c".into())], SimTime::from_secs(3));
        let err = e.on_batch("Edge", &[edge("b", "c"), short]);
        let err = err.unwrap_err().to_string();
        assert!(err.contains("row 1 of the batch for 'Edge' has 1 columns; its schema has 2"));
        let wide = DeltaBatch::inserts([edge("c", "d").join(&edge("e", "f"))]);
        assert!(e.on_deltas("Edge", &wide).is_err());
        let reading = Tuple::new(vec![Value::Int(1)], SimTime::from_secs(5));
        assert!(e.on_batch("Temps", &[reading]).is_err());
        // Nothing moved: counters, clock, trace numbering, the store.
        assert_eq!(
            (e.source_tuples_in(edge_id), e.source_tuples_in(temps)),
            (1, 0)
        );
        assert_eq!((e.now(), e.next_batch), (SimTime::ZERO, 1));
        for _ in 0..3 {
            let q = e
                .register_sql("select e.dst from Edge e")
                .unwrap()
                .expect_query();
            let want = vec![Tuple::new(vec![Value::Text("b".into())], SimTime::ZERO)];
            assert_eq!(e.snapshot(q).unwrap(), want);
        }
    }

    /// A Table cell of a type its column does not accept is refused at
    /// admission, by batch and by signed delta: before, one text `floor`
    /// was retained and every later `sum(r.floor)` failed in its replay
    /// with `TypeMismatch`. NULL, and an INT in a FLOAT column, pass.
    #[test]
    fn a_table_cell_of_the_wrong_type_is_refused_at_admission() {
        let cat = Catalog::shared();
        let fields = [
            ("room", DataType::Int),
            ("floor", DataType::Int),
            ("area", DataType::Float),
        ];
        let rooms = Schema::new(fields.map(|(c, t)| Field::new(c, t)).to_vec()).into_ref();
        cat.register_source("Rooms", rooms, SourceKind::Table, SourceStats::table(8))
            .unwrap();
        let mut e = ShardedEngine::new(cat, 1);
        let row = |floor, area| Tuple::new(vec![Value::Int(1), floor, area], SimTime::ZERO);
        e.on_batch("Rooms", &[row(Value::Int(2), Value::Int(30))])
            .unwrap();
        e.on_batch("Rooms", &[row(Value::Null, Value::Float(2.5))])
            .unwrap();
        let text = row(Value::Text("n/a".into()), Value::Null);
        let err = e.on_batch("Rooms", &[row(Value::Int(3), Value::Null), text]);
        let err = err.unwrap_err().to_string();
        assert!(
            err.contains("row 1 of the batch for 'Rooms' holds"),
            "{err}"
        );
        let float = DeltaBatch::inserts([row(Value::Float(1.5), Value::Null)]);
        assert!(e.on_deltas("Rooms", &float).is_err());
        let rooms = e.catalog().source("Rooms").unwrap().id;
        assert_eq!(e.source_tuples_in(rooms), 2);
        for _ in 0..3 {
            let q = e
                .register_sql("select sum(r.floor) from Rooms r")
                .unwrap()
                .expect_query();
            assert_eq!(e.snapshot(q).unwrap()[0].values(), [Value::Int(2)]);
        }
    }

    /// A view the build refuses (one base under two windows) leaves no
    /// name behind: before, the name entered the catalog first, and the
    /// corrected view was refused as `source 'Reach' already registered`.
    #[test]
    fn a_refused_view_leaves_its_name_free() {
        let mut e = engine();
        let twice = "create recursive view Reach as ( \
                       select e.src, e.dst from Edge e [range 10 seconds] \
                       union \
                       select r.src, e.dst from Reach r, Edge e where r.dst = e.src )";
        let refused = e.register_sql(twice).unwrap_err();
        assert!(matches!(refused, AspenError::NotExecutable(_)), "{refused}");
        assert!(e.catalog().source("Reach").is_err());
        e.register_sql(
            "create recursive view Reach as ( \
               select e.src, e.dst from Edge e \
               union \
               select r.src, e.dst from Reach r, Edge e where r.dst = e.src )",
        )
        .unwrap();
        e.on_batch("Edge", &[edge("a", "b"), edge("b", "c")])
            .unwrap();
        assert_eq!(e.view_snapshot("Reach").unwrap().len(), 3);
    }

    #[test]
    fn late_query_replays_tables_and_views() {
        let mut e = engine();
        e.register_sql(
            "create recursive view Reach as ( \
               select e.src, e.dst from Edge e \
               union \
               select r.src, e.dst from Reach r, Edge e where r.dst = e.src )",
        )
        .unwrap();
        e.on_batch("Edge", &[edge("a", "b"), edge("b", "c")])
            .unwrap();
        // Register AFTER the data arrived.
        let q = e
            .register_sql("select r.src, r.dst from Reach r")
            .unwrap()
            .expect_query();
        assert_eq!(e.snapshot(q).unwrap().len(), 3);
        let q2 = e
            .register_sql("select e.src from Edge e")
            .unwrap()
            .expect_query();
        assert_eq!(e.snapshot(q2).unwrap().len(), 2);
    }

    #[test]
    fn late_self_join_query_replays_table_once() {
        // `Edge` is scanned under TWO aliases; the retained rows must be
        // replayed once per source, not once per alias — otherwise every
        // row appears squared.
        let mut e = engine();
        e.on_batch("Edge", &[edge("a", "b"), edge("b", "c")])
            .unwrap();
        let q = e
            .register_sql("select x.src, y.dst from Edge x, Edge y where x.dst = y.src")
            .unwrap()
            .expect_query();
        // Exactly one path a→b→c.
        let snap = e.snapshot(q).unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(
            snap[0].values(),
            &[Value::Text("a".into()), Value::Text("c".into())]
        );
    }

    #[test]
    fn late_rows_window_query_replays_in_arrival_order() {
        // A ROWS window is order-sensitive: a query registered after the
        // data arrived must retain the same (latest-arrived) rows as one
        // that was live during ingestion.
        let mut live = engine();
        let mut late = engine();
        let rows = [edge("x9", "a"), edge("x1", "b"), edge("x2", "c")];
        let sql = "select e.src from Edge e [rows 2]";
        let q_live = live.register_sql(sql).unwrap().expect_query();
        live.on_batch("Edge", &rows).unwrap();
        late.on_batch("Edge", &rows).unwrap();
        let q_late = late.register_sql(sql).unwrap().expect_query();
        let srcs =
            |snap: Vec<Tuple>| -> Vec<Value> { snap.iter().map(|t| t.get(0).clone()).collect() };
        assert_eq!(
            srcs(live.snapshot(q_live).unwrap()),
            srcs(late.snapshot(q_late).unwrap())
        );
        assert_eq!(
            srcs(late.snapshot(q_late).unwrap()),
            vec![Value::Text("x1".into()), Value::Text("x2".into())]
        );
    }

    #[test]
    fn view_registered_after_table_data_seeds_itself() {
        let mut e = engine();
        e.on_batch("Edge", &[edge("a", "b"), edge("b", "c")])
            .unwrap();
        e.register_sql(
            "create recursive view Reach as ( \
               select e.src, e.dst from Edge e \
               union \
               select r.src, e.dst from Reach r, Edge e where r.dst = e.src )",
        )
        .unwrap();
        assert_eq!(e.view_snapshot("Reach").unwrap().len(), 3);
    }

    #[test]
    fn display_snapshot_routes() {
        let mut e = engine();
        let _ = e
            .register_sql("select t.desk from Temps t output to display 'lobby'")
            .unwrap()
            .expect_query();
        e.on_batch(
            "Temps",
            &[Tuple::new(
                vec![Value::Int(7), Value::Float(50.0)],
                SimTime::from_secs(1),
            )],
        )
        .unwrap();
        let views = e.display_snapshot("lobby").unwrap();
        assert_eq!(views.len(), 1);
        assert_eq!(views[0].len(), 1);
        assert!(e.display_snapshot("nowhere").unwrap().is_empty());
    }

    #[test]
    fn routing_index_tracks_subscribers() {
        let mut e = engine();
        let temps_id = e.catalog().source("Temps").unwrap().id;
        let edge_id = e.catalog().source("Edge").unwrap().id;
        assert_eq!(e.subscriber_count(temps_id), 0);
        e.register_sql("select t.desk from Temps t").unwrap();
        e.register_sql("select t.temp from Temps t").unwrap();
        e.register_sql("select e.src from Edge e").unwrap();
        assert_eq!(e.subscriber_count(temps_id), 2);
        assert_eq!(e.subscriber_count(edge_id), 1);
        // Batches to Edge must not grow Temps queries' cost counters.
        let before = e.total_ops_invoked();
        e.on_batch("Edge", &[edge("a", "b")]).unwrap();
        let after = e.total_ops_invoked();
        // Only the Edge query (one Project node) ran.
        assert_eq!(after - before, 1);
    }

    /// Every route count a query adds comes back off when it leaves,
    /// whichever verb retires it. A leaked clock or push count costs only
    /// idle tasks, which no result shows, so count the tasks.
    #[test]
    fn route_counts_unwind_under_every_retiring_verb() {
        use crate::Scheduling::{Deterministic, Pool, Sequential};
        for scheduling in [Sequential, Pool, Deterministic(5)] {
            let config = EngineConfig::new().shards(2).scheduling(scheduling);
            let mut e = ShardedEngine::with_config(catalog(), config);
            let readings = e.catalog().source("Readings").unwrap().id;
            let query = |reg: Result<Registration>| reg.unwrap().expect_query();
            let clocked =
                query(e.register_sql("select r.sensor from Readings r [range 10 seconds]"));
            let pushed = QuerySpec::sql("select r.value from Readings r [rows 3]").push();
            let pushed = query(e.register(pushed));
            let join = query(e.register_sql(
                "select a.value, b.value from Readings a [rows 4], Readings b [rows 4] \
                 where a.sensor = b.sensor",
            ));
            let session = e.open_session();
            let plain = QuerySpec::sql("select r.value from Readings r [rows 2]");
            query(e.register_in(session, plain));
            assert_eq!(e.subscriber_count(readings), 4);
            let tasks = |e: &mut ShardedEngine, sec| {
                let before = e.executor_stats().tasks_executed;
                e.heartbeat(SimTime::from_secs(sec)).unwrap();
                e.on_batch("Readings", &[reading(1, 2.0, sec)]).unwrap();
                e.quiesce().unwrap();
                e.executor_stats().tasks_executed - before
            };
            assert!(tasks(&mut e, 1) > 0, "{scheduling:?}: the live queries run");

            e.deregister(clocked).unwrap();
            e.pause(pushed).unwrap();
            e.migrate(join, 1 - e.shard_of(join.0)).unwrap();
            e.deregister(join).unwrap();
            assert_eq!(e.close_session(session).unwrap(), 1);
            assert_eq!(tasks(&mut e, 2), 0, "{scheduling:?}: a count leaked");
            assert_eq!(e.subscriber_count(readings), 0);
            let signed = DeltaBatch::from(vec![Delta::insert(reading(1, 3.0, 3))]);
            e.on_deltas("Readings", &signed).unwrap();
        }
    }

    /// Telemetry and displays list queries in registration order, which
    /// no verb but deregistration changes: not a pause, not a move
    /// between shards.
    #[test]
    fn queries_stay_in_registration_order_under_churn() {
        let mut e = ShardedEngine::new(catalog(), 4);
        let session = e.open_session();
        let mut handles = Vec::new();
        for sensor in 0..6 {
            let sql = format!(
                "select r.value from Readings r [rows 10] where r.sensor = {sensor} \
                 output to display 'wall'"
            );
            let spec = QuerySpec::sql(sql);
            let reg = match sensor {
                2 => e.register_in(session, spec),
                _ => e.register(spec),
            };
            handles.push(reg.unwrap().expect_query());
        }
        e.deregister(handles[1]).unwrap();
        e.close_session(session).unwrap();
        e.pause(handles[3]).unwrap();
        e.resume(handles[3]).unwrap();
        let to = (e.shard_of(handles[4].0) + 1) % 4;
        e.migrate(handles[4], to).unwrap();
        let last = e
            .register_sql(
                "select r.value from Readings r [rows 10] where r.sensor = 6 \
                 output to display 'wall'",
            )
            .unwrap()
            .expect_query();
        let batch: Vec<Tuple> = (0..7).map(|s| reading(s, s as f64, 1)).collect();
        e.on_batch("Readings", &batch).unwrap();

        let want = [handles[0], handles[3], handles[4], handles[5], last];
        let listed: Vec<QueryId> = e
            .telemetry_at(Consistency::Fresh)
            .queries
            .iter()
            .map(|q| q.query)
            .collect();
        assert_eq!(listed, want.map(|h| h.0));
        let shown: Vec<Vec<Value>> = e
            .display_snapshot("wall")
            .unwrap()
            .iter()
            .map(|rows| rows.iter().map(|t| t.values()[0].clone()).collect())
            .collect();
        let sensors = [0, 3, 4, 5, 6].map(|s| vec![Value::Float(s as f64)]);
        assert_eq!(shown, sensors);
    }

    /// Route counts and routed runtimes stay in step: after every verb of
    /// a seeded churn — register, pause, resume, subscribe (a paused
    /// query's too), migrate, deregister, close a session — each key's
    /// fan-out is exactly the shards holding a routed runtime it counts.
    #[test]
    fn route_counts_match_routed_runtimes() {
        use crate::Scheduling::{Deterministic, Pool, Sequential};
        use aspen_types::rng::seeded;
        use rand::Rng;
        let sqls = [
            "select r.value from Readings r",
            "select r.sensor from Readings r [range 10 seconds]",
            "select a.value, b.value from Readings a [rows 4], Readings b [rows 4] \
             where a.sensor = b.sensor",
            "select e.src from Edge e",
            "select count(*) from Readings r [range 5 seconds], Edge e",
            "select r.sensor, avg(r.value) from Readings r group by r.sensor",
        ];
        // Weighted: registration keeps the engine populated.
        const VERBS: [&str; 12] = [
            "register",
            "register",
            "register",
            "pause",
            "pause",
            "resume",
            "subscribe",
            "subscribe",
            "migrate",
            "migrate",
            "deregister",
            "close_session",
        ];
        let in_step = |e: &ShardedEngine, verb: &str| {
            let sources = ["Readings", "Edge"].map(|name| e.catalog().source(name).unwrap().id);
            let keys = sources
                .iter()
                .flat_map(|&src| [Counted::Scans(src), Counted::Indexes(src)])
                .chain([Counted::Clock, Counted::Push]);
            for key in keys {
                let holds = |i: &usize| {
                    let shard = e.shard(*i).lock();
                    shard.queries.values().any(|q| !q.paused && q.counts(key))
                };
                let held: Vec<usize> = (0..e.shard_count()).filter(holds).collect();
                assert_eq!(e.routes.fanout(key), held, "{key:?} after {verb}");
            }
        };
        for seed in crate::test_seeds(3) {
            for scheduling in [Sequential, Pool, Deterministic(seed)] {
                let config = EngineConfig::new().shards(3).scheduling(scheduling);
                let mut e = ShardedEngine::with_config(catalog(), config);
                let mut rng = seeded(0x5EED ^ seed);
                let mut sessions = [e.open_session(), e.open_session()];
                for step in 0..80u64 {
                    let verb = VERBS[rng.gen_range(0..VERBS.len())];
                    // Resume, and half the subscriptions, go to a paused
                    // query when there is one.
                    let paused_only =
                        verb == "resume" || (verb == "subscribe" && rng.gen_bool(0.5));
                    let mut ids: Vec<QueryId> = e.queries.keys().copied().collect();
                    let paused = |q: &QueryId| e.is_paused(QueryHandle(*q)).unwrap();
                    if paused_only && ids.iter().any(paused) {
                        ids.retain(paused);
                    }
                    let q = match ids.len() {
                        0 => QueryHandle(QueryId(u32::MAX)),
                        n => QueryHandle(ids[rng.gen_range(0..n)]),
                    };
                    // A verb refused on this query (pausing a paused
                    // one, an unknown id) changes nothing either.
                    let _ = match verb {
                        "register" => {
                            let mut spec = QuerySpec::sql(sqls[rng.gen_range(0..sqls.len())]);
                            if rng.gen_bool(0.3) {
                                spec = spec.push();
                            }
                            match sessions.get(rng.gen_range(0..3usize)) {
                                Some(&session) => e.register_in(session, spec).map(|_| ()),
                                None => e.register(spec).map(|_| ()),
                            }
                        }
                        "pause" => e.pause(q),
                        "resume" => e.resume(q),
                        "subscribe" => e.subscribe(q).map(|_| ()),
                        "migrate" => e.migrate(q, rng.gen_range(0..3usize)),
                        "deregister" => e.deregister(q),
                        _ => {
                            let i = rng.gen_range(0..2usize);
                            let closed = e.close_session(sessions[i]).map(|_| ());
                            sessions[i] = e.open_session();
                            closed
                        }
                    };
                    in_step(&e, verb);
                    let sensor = (step % 8) as i64;
                    e.on_batch("Readings", &[reading(sensor, 1.0, step)])
                        .unwrap();
                    e.heartbeat(SimTime::from_secs(step)).unwrap();
                }
                e.quiesce().unwrap();
            }
        }
    }
}
