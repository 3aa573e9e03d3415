//! The client-facing query API: engine configuration, query specs,
//! registrations, sessions, and push subscriptions.
//!
//! SmartCIS is a *service*: clients come and go, each posing continuous
//! queries over the physical/digital space and consuming live results
//! until they retire them. This module is the vocabulary of that
//! contract:
//!
//! * [`EngineConfig`] — construction-time engine knobs (shard count,
//!   executor scheduling mode, worker count, per-shard queue depth,
//!   rebalancing, spill). There are no
//!   runtime-mutable engine toggles; everything is fixed when the
//!   engine is built.
//! * [`QuerySpec`] — a builder carrying what to run (SQL text or a bound
//!   [`LogicalPlan`]), how results leave the engine ([`Delivery`]), and
//!   per-query micro-batch knobs ([`QuerySpec::max_batch`] /
//!   [`QuerySpec::max_delay`]) that the delivery path honors by
//!   coalescing output deltas across batch boundaries.
//! * [`Registration`] — the typed result of registering a spec: a
//!   continuous `SELECT` yields a [`Registration::Query`] handle, a
//!   `CREATE VIEW` yields the view's output [`Registration::View`]
//!   source.
//! * [`SessionId`] — groups registrations so a departing client's whole
//!   query set can be retired with one `close_session` call.
//! * [`ResultSubscription`] — the consumer half of push delivery: the
//!   engine appends consolidated output [`DeltaBatch`]es at batch
//!   boundaries; the client drains them at its own pace.
//! * `FrontEnd` (crate-internal) — the one implementation of that
//!   contract's bookkeeping: spec → bound plan through the plan-template
//!   cache, and the session table. The node engine and the cluster
//!   coordinator each own one and call it; neither re-implements it.

use std::collections::HashMap;
use std::sync::Arc;

use aspen_catalog::Catalog;
use aspen_optimizer::{CachedQuery, PlanCache, PlanCacheStats};
use aspen_sql::binder::BoundView;
use aspen_sql::plan::LogicalPlan;
use aspen_sql::BoundQuery;
use aspen_types::{AspenError, QueryId, Result, SimDuration, SourceId};
use parking_lot::Mutex;

use crate::delta::DeltaBatch;
use crate::executor::Scheduling;
use crate::rebalance::RebalanceConfig;
use crate::shard::QueryHandle;
use crate::state::{SpillConfig, StateOptions};

/// Construction-time engine configuration: six settable fields, each
/// documented with its default on its setter, all fixed for the engine's
/// lifetime (there are no runtime toggles). The plan-template cache and
/// the trace plane are not configurable — both are always on.
#[derive(Debug, Clone, Default)]
pub struct EngineConfig {
    shards: usize,
    /// Executor scheduling mode (`None` = pool when shards > 1 and the
    /// host is multicore, sequential otherwise).
    scheduling: Option<Scheduling>,
    /// Worker threads serving the pool (`None` = min(shards, cores)).
    workers: Option<usize>,
    /// Bound on each shard's pending-task queue (`None` = 32). Ingest
    /// admission blocks when a shard's queue is full — backpressure
    /// keeps memory flat under sustained skew.
    queue_depth: Option<usize>,
    /// Adaptive shard rebalancing: when set, the engine observes its own
    /// telemetry every `interval_boundaries` batch boundaries and
    /// live-migrates queries off sustained hot shards.
    rebalance: Option<RebalanceConfig>,
    /// Spill tier for operator state — window buffers, join sides,
    /// retained tables (`None` = stay resident): cold sealed segments
    /// page to disk past the threshold.
    spill: Option<SpillConfig>,
}

impl EngineConfig {
    pub fn new() -> Self {
        EngineConfig::default()
    }

    /// Number of worker shards the pipeline set is hash-partitioned
    /// across (clamped to ≥ 1 at construction).
    pub fn shards(mut self, n: usize) -> Self {
        self.shards = n;
        self
    }

    /// Pin the executor scheduling mode: the inline sequential loop,
    /// the persistent worker pool, or the seeded deterministic replay
    /// used by the scheduling tests — results are identical in all
    /// three. Unset, the engine picks pool when it has more than one
    /// shard and the host more than one core, sequential otherwise — so a
    /// 1-shard engine or a 1-core host runs sequential unless pinned; see
    /// [`crate::TelemetryReport::scheduling`] for the resolved mode.
    pub fn scheduling(mut self, s: Scheduling) -> Self {
        self.scheduling = Some(s);
        self
    }

    /// Shorthand for [`Scheduling::Deterministic`]: pool semantics
    /// (deferred, out-of-order-across-shards execution) with a fixed
    /// seeded interleaving, replayable for tests.
    pub fn deterministic(self, seed: u64) -> Self {
        self.scheduling(Scheduling::Deterministic(seed))
    }

    /// Number of worker threads serving the pool (clamped to ≥ 1;
    /// ignored outside pool mode). Default: min(shards, cores).
    pub fn workers(mut self, n: usize) -> Self {
        self.workers = Some(n);
        self
    }

    /// Bound each shard's pending-task queue at `n` boundary tasks
    /// (clamped to ≥ 1). A producer hitting a full queue blocks until
    /// the shard makes progress — ingest admission never runs ahead of
    /// a slow shard by more than this many boundaries.
    pub fn queue_depth(mut self, n: usize) -> Self {
        self.queue_depth = Some(n);
        self
    }

    /// Enable adaptive rebalancing: the engine watches per-shard load
    /// through its telemetry meters and live-migrates queries between
    /// shards when skew is sustained. Results are unaffected — migration
    /// moves the running pipeline and sink intact — only placement (and
    /// therefore the critical path) changes.
    pub fn rebalance(mut self, config: RebalanceConfig) -> Self {
        self.rebalance = Some(config);
        self
    }

    /// Enable the spill tier: operator state pages cold sealed segments
    /// to files under `dir` whenever a store's resident bytes exceed
    /// `threshold_bytes`. Reads fault segments in transiently; results
    /// are unchanged.
    pub fn spill(mut self, threshold_bytes: usize, dir: impl Into<std::path::PathBuf>) -> Self {
        self.spill = Some(SpillConfig::new(threshold_bytes, dir));
        self
    }

    pub(crate) fn resolve_state_options(&self) -> StateOptions {
        StateOptions {
            spill: self.spill.clone(),
        }
    }

    pub(crate) fn shard_count(&self) -> usize {
        self.shards.max(1)
    }

    pub(crate) fn rebalance_config(&self) -> Option<RebalanceConfig> {
        self.rebalance.clone()
    }

    /// The executor mode this config resolves to on a `cores`-way host:
    /// an explicit `scheduling` wins; otherwise threads only when both
    /// shards and cores are plural.
    pub(crate) fn resolve_scheduling(&self, cores: usize) -> Scheduling {
        match self.scheduling {
            Some(s) => s,
            None if self.shard_count() > 1 && cores > 1 => Scheduling::Pool,
            None => Scheduling::Sequential,
        }
    }

    pub(crate) fn resolve_workers(&self, cores: usize) -> usize {
        self.workers
            .unwrap_or_else(|| cores.min(self.shard_count()))
            .max(1)
    }

    pub(crate) fn resolve_queue_depth(&self) -> usize {
        self.queue_depth.unwrap_or(32).max(1)
    }
}

/// Identifies a group of registrations made by one client. Closing the
/// session deregisters every query still live in it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SessionId(pub u32);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "sess{}", self.0)
    }
}

/// Consistency level of an engine read (`telemetry_at`, `snapshot_at`).
///
/// `Fresh` is the old quiesce-the-world behavior: drain every pending
/// boundary the read depends on before looking, so the observation
/// reflects everything ever submitted. `Cut` reads a watermark-
/// consistent cut instead: each shard is observed at its own applied
/// boundary watermark — a prefix of its submitted boundaries, published
/// at batch boundaries — without draining any queue, so a continuous
/// poller never stops admission. Under `Sequential` scheduling the two
/// are identical (nothing is ever deferred).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Consistency {
    /// Barrier read: settle the involved shards first (the pre-watermark
    /// behavior, kept for tests and coherent global accounting).
    Fresh,
    /// Barrier-free read at the per-shard applied watermarks (the
    /// default for telemetry). Staleness is visible as per-shard `lag`
    /// in the report, never as blocking.
    #[default]
    Cut,
}

/// How a query's results leave the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Delivery {
    /// Results are read by snapshot polling only (the default).
    #[default]
    Poll,
    /// A [`ResultSubscription`] is attached at registration: output
    /// deltas are pushed at batch boundaries (snapshot polling still
    /// works too).
    Push,
}

#[derive(Debug, Clone)]
pub(crate) enum QueryText {
    Sql(String),
    Plan(LogicalPlan),
}

/// Declarative spec for one registration: what to run, how results are
/// delivered, and how output deltas are micro-batched on the way out.
#[derive(Debug, Clone)]
pub struct QuerySpec {
    pub(crate) text: QueryText,
    pub(crate) delivery: Delivery,
    pub(crate) max_batch: Option<usize>,
    pub(crate) max_delay: Option<SimDuration>,
    /// Optimizer-driven knob mode: when set, the engine's `auto_tune`
    /// pass may overwrite `max_batch` / `max_delay` from measured rates.
    pub(crate) auto: bool,
    /// Cluster placement hint ([`QuerySpec::on_node`]); single-node
    /// engines ignore it.
    pub(crate) node: Option<usize>,
}

impl QuerySpec {
    fn new(text: QueryText) -> Self {
        QuerySpec {
            text,
            delivery: Delivery::Poll,
            max_batch: None,
            max_delay: None,
            auto: false,
            node: None,
        }
    }

    /// A spec from Stream SQL text (`SELECT` or `CREATE VIEW`).
    pub fn sql(sql: impl Into<String>) -> Self {
        QuerySpec::new(QueryText::Sql(sql.into()))
    }

    /// A spec from an already-bound continuous-query plan (e.g. the
    /// stream half of a federated plan).
    pub fn plan(plan: LogicalPlan) -> Self {
        QuerySpec::new(QueryText::Plan(plan))
    }

    /// Deliver results by push: a subscription channel is attached at
    /// registration time, so no output delta is ever missed.
    pub fn push(mut self) -> Self {
        self.delivery = Delivery::Push;
        self
    }

    /// Cap a delivered batch at `n` consolidated deltas. A pending
    /// buffer that reaches `n` is flushed even inside a `max_delay`
    /// hold; larger flushes are split into chunks of at most `n`.
    pub fn max_batch(mut self, n: usize) -> Self {
        self.max_batch = Some(n.max(1));
        self
    }

    /// Coalesce output deltas across batch boundaries for up to `d` of
    /// simulated time before delivering them (latency traded for fewer,
    /// denser batches). Without this knob every non-empty boundary
    /// flushes immediately.
    pub fn max_delay(mut self, d: SimDuration) -> Self {
        self.max_delay = Some(d);
        self
    }

    /// Let the optimizer pick the micro-batch knobs: the engine's
    /// `auto_tune` pass measures this query's output rate and the batch-
    /// boundary rate, and sets `max_batch` / `max_delay` from the cost
    /// model instead of leaving them to the client. Any knobs set
    /// explicitly on the spec serve as the initial values until the
    /// first measurement window closes.
    pub fn auto_knobs(mut self) -> Self {
        self.auto = true;
        self
    }

    /// Pin this query to cluster node `n` instead of the coordinator's
    /// default placement (the majority home of the plan's sources).
    /// Consumed by [`crate::cluster::Cluster::register`]; registering
    /// the spec on a plain single-node engine ignores the hint.
    pub fn on_node(mut self, n: usize) -> Self {
        self.node = Some(n);
        self
    }
}

/// The typed result of registering a [`QuerySpec`]: what kind of object
/// now lives in the engine. Replaces the old `Result<Option<QueryHandle>>`
/// contract where `None` silently meant "that was a view".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Registration {
    /// A continuous `SELECT`: poll it, subscribe to it, pause it,
    /// deregister it.
    Query(QueryHandle),
    /// A materialized `CREATE VIEW`: downstream queries scan its output
    /// source.
    View(SourceId),
}

impl Registration {
    /// The query handle, if this registration was a `SELECT`.
    pub fn query(self) -> Option<QueryHandle> {
        match self {
            Registration::Query(h) => Some(h),
            Registration::View(_) => None,
        }
    }

    /// The view output source, if this registration was a `CREATE VIEW`.
    pub fn view(self) -> Option<SourceId> {
        match self {
            Registration::Query(_) => None,
            Registration::View(s) => Some(s),
        }
    }

    /// The query handle; panics if the statement was a view. For callers
    /// that know their SQL is a `SELECT` (tests, examples).
    #[track_caller]
    pub fn expect_query(self) -> QueryHandle {
        match self {
            Registration::Query(h) => h,
            Registration::View(s) => {
                panic!("registration produced view source {s}, not a query handle")
            }
        }
    }
}

/// A continuous query bound against the catalog: the plan plus what the
/// spec asked for, ready to place on a shard (or, in a cluster, a node).
pub(crate) struct BoundSpec {
    pub(crate) plan: Arc<LogicalPlan>,
    pub(crate) push: bool,
    pub(crate) max_batch: Option<usize>,
    pub(crate) max_delay: Option<SimDuration>,
    pub(crate) auto: bool,
    /// [`QuerySpec::on_node`]; only the cluster coordinator reads it.
    pub(crate) node: Option<usize>,
}

/// What a [`QuerySpec`] resolved to.
pub(crate) enum Resolved {
    Query(BoundSpec),
    View(BoundView),
}

/// The front end shared by [`crate::shard::ShardedEngine`] and
/// [`crate::cluster::Cluster`]: SQL resolution through the
/// plan-template cache and the session table. Plain owned state — each
/// engine holds one and calls it, so a cluster registration binds
/// exactly as a node registration does.
#[derive(Default)]
pub(crate) struct FrontEnd {
    /// Canonicalized plan-template cache over SQL registrations.
    plan_cache: PlanCache,
    sessions: HashMap<SessionId, Vec<QueryId>>,
    next_session: u32,
}

impl FrontEnd {
    pub(crate) fn open_session(&mut self) -> SessionId {
        let sid = SessionId(self.next_session);
        self.next_session += 1;
        self.sessions.insert(sid, Vec::new());
        sid
    }

    /// Forget `session`, returning the queries still enrolled in it.
    pub(crate) fn close_session(&mut self, session: SessionId) -> Result<Vec<QueryId>> {
        self.sessions
            .remove(&session)
            .ok_or_else(|| unknown_session(session))
    }

    /// Record a placed query in the session it was registered through.
    pub(crate) fn enroll(&mut self, session: Option<SessionId>, qid: QueryId) {
        if let Some(sid) = session {
            self.sessions
                .get_mut(&sid)
                .expect("session validated by resolve")
                .push(qid);
        }
    }

    /// Drop a retired query from the session it was enrolled in, if any
    /// (a no-op once that session is closed).
    pub(crate) fn leave(&mut self, qid: QueryId) {
        for qids in self.sessions.values_mut() {
            qids.retain(|&q| q != qid);
        }
    }

    /// Resolve a spec to a bound plan or a bound view. SQL goes through
    /// the plan-template cache: a repeat of a known template (same
    /// canonical shape, any constants) skips parse/bind entirely or pays
    /// only parse + substitution. Fails — before anything is placed —
    /// on an unknown `session` and on a view spec asking for query-only
    /// features.
    pub(crate) fn resolve(
        &mut self,
        session: Option<SessionId>,
        spec: QuerySpec,
        catalog: &Catalog,
    ) -> Result<Resolved> {
        if let Some(sid) = session.filter(|sid| !self.sessions.contains_key(sid)) {
            return Err(unknown_session(sid));
        }
        let plan = match spec.text {
            QueryText::Plan(plan) => Arc::new(plan),
            QueryText::Sql(sql) => match self.plan_cache.resolve(&sql, catalog)? {
                CachedQuery::Select(plan) => plan,
                CachedQuery::Other(other) => match *other {
                    BoundQuery::Select(b) => Arc::new(b.plan),
                    // Views are shared, catalog-named infrastructure —
                    // they have no sink to subscribe to and are not
                    // retired with a client session, so a spec that asks
                    // for query-only features must fail loudly instead
                    // of dropping them.
                    BoundQuery::View(v)
                        if spec.delivery == Delivery::Push
                            || spec.max_batch.is_some()
                            || spec.max_delay.is_some()
                            || spec.auto =>
                    {
                        return Err(AspenError::InvalidArgument(format!(
                            "view '{}' cannot take push delivery or micro-batch knobs; \
                             they apply to continuous queries only",
                            v.name
                        )));
                    }
                    BoundQuery::View(v) => return Ok(Resolved::View(v)),
                },
            },
        };
        Ok(Resolved::Query(BoundSpec {
            plan,
            push: spec.delivery == Delivery::Push,
            max_batch: spec.max_batch,
            max_delay: spec.max_delay,
            auto: spec.auto,
            node: spec.node,
        }))
    }

    pub(crate) fn plan_cache_stats(&self) -> PlanCacheStats {
        self.plan_cache.stats()
    }
}

fn unknown_session(session: SessionId) -> AspenError {
    AspenError::InvalidArgument(format!("unknown session {session}"))
}

/// Producer/consumer state shared between a query's sink and its
/// [`ResultSubscription`] handles.
#[derive(Debug, Default)]
pub(crate) struct SubscriptionQueue {
    pub(crate) batches: Vec<DeltaBatch>,
    /// Total batches ever enqueued (monotone; survives draining).
    pub(crate) delivered: u64,
}

pub(crate) type SharedQueue = Arc<Mutex<SubscriptionQueue>>;

/// The consumer half of push delivery for one query.
///
/// The engine appends consolidated output delta batches at batch
/// boundaries (ingest and heartbeats); [`ResultSubscription::drain`]
/// removes and returns everything delivered so far. Accumulating every
/// drained delta yields exactly the multiset a snapshot poll would
/// return once all pending deltas have been flushed (subscribing late,
/// pausing, and resuming all deliver consolidated catch-up batches to
/// keep that invariant).
///
/// Clones share one queue: this is a single-consumer channel handed to
/// one client, not a broadcast.
#[derive(Debug, Clone)]
pub struct ResultSubscription {
    pub(crate) queue: SharedQueue,
    pub(crate) query: QueryId,
}

impl ResultSubscription {
    /// The query this subscription delivers for.
    pub fn query(&self) -> QueryHandle {
        QueryHandle(self.query)
    }

    /// Remove and return every batch delivered since the last drain.
    pub fn drain(&self) -> Vec<DeltaBatch> {
        std::mem::take(&mut self.queue.lock().batches)
    }

    /// Batches currently waiting to be drained.
    pub fn pending_batches(&self) -> usize {
        self.queue.lock().batches.len()
    }

    /// Total batches ever delivered through this subscription (monotone
    /// across drains).
    pub fn batches_delivered(&self) -> u64 {
        self.queue.lock().delivered
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::{SimTime, Tuple, Value};

    #[test]
    fn config_resolves_scheduling_workers_and_depth() {
        assert_eq!(EngineConfig::new().shard_count(), 1);
        assert_eq!(EngineConfig::new().shards(0).shard_count(), 1);
        // Auto: threads only when both shards and cores are plural.
        assert_eq!(
            EngineConfig::new().shards(4).resolve_scheduling(8),
            Scheduling::Pool
        );
        assert_eq!(
            EngineConfig::new().shards(4).resolve_scheduling(1),
            Scheduling::Sequential
        );
        assert_eq!(
            EngineConfig::new().resolve_scheduling(8),
            Scheduling::Sequential
        );
        // An explicit mode always wins.
        assert_eq!(
            EngineConfig::new()
                .shards(4)
                .scheduling(Scheduling::Sequential)
                .resolve_scheduling(8),
            Scheduling::Sequential
        );
        assert_eq!(
            EngineConfig::new()
                .shards(4)
                .deterministic(9)
                .resolve_scheduling(8),
            Scheduling::Deterministic(9)
        );
        assert_eq!(
            EngineConfig::new()
                .scheduling(Scheduling::Pool)
                .resolve_scheduling(1),
            Scheduling::Pool
        );
        // Worker count defaults to min(shards, cores), clamps to >= 1.
        assert_eq!(EngineConfig::new().shards(4).resolve_workers(8), 4);
        assert_eq!(EngineConfig::new().shards(4).resolve_workers(2), 2);
        assert_eq!(EngineConfig::new().shards(4).resolve_workers(0), 1);
        assert_eq!(
            EngineConfig::new().shards(4).workers(7).resolve_workers(1),
            7
        );
        assert_eq!(EngineConfig::new().workers(0).resolve_workers(8), 1);
        // Queue depth defaults to 32, clamps to >= 1.
        assert_eq!(EngineConfig::new().resolve_queue_depth(), 32);
        assert_eq!(EngineConfig::new().queue_depth(0).resolve_queue_depth(), 1);
        assert_eq!(EngineConfig::new().queue_depth(5).resolve_queue_depth(), 5);
    }

    #[test]
    fn spec_builder_carries_knobs() {
        let s = QuerySpec::sql("select r.x from R r")
            .push()
            .max_batch(0)
            .max_delay(SimDuration::from_secs(5));
        assert_eq!(s.delivery, Delivery::Push);
        assert_eq!(s.max_batch, Some(1), "max_batch clamps to >= 1");
        assert_eq!(s.max_delay, Some(SimDuration::from_secs(5)));
        assert!(!s.auto, "knobs stay client-owned unless requested");
        assert!(s.auto_knobs().auto);
    }

    #[test]
    fn registration_accessors() {
        let q = Registration::Query(QueryHandle(QueryId(3)));
        assert_eq!(q.query(), Some(QueryHandle(QueryId(3))));
        assert_eq!(q.view(), None);
        assert_eq!(q.expect_query(), QueryHandle(QueryId(3)));
        let v = Registration::View(SourceId(7));
        assert_eq!(v.query(), None);
        assert_eq!(v.view(), Some(SourceId(7)));
    }

    #[test]
    #[should_panic(expected = "not a query handle")]
    fn expect_query_panics_on_view() {
        Registration::View(SourceId(1)).expect_query();
    }

    #[test]
    fn subscription_drains_once() {
        let queue: SharedQueue = Arc::new(Mutex::new(SubscriptionQueue::default()));
        let sub = ResultSubscription {
            queue: Arc::clone(&queue),
            query: QueryId(0),
        };
        let batch = DeltaBatch::inserts([Tuple::new(vec![Value::Int(1)], SimTime::ZERO)]);
        {
            let mut q = queue.lock();
            q.batches.push(batch.clone());
            q.delivered += 1;
        }
        assert_eq!(sub.pending_batches(), 1);
        assert_eq!(sub.drain(), vec![batch]);
        assert!(sub.drain().is_empty());
        assert_eq!(sub.batches_delivered(), 1, "monotone across drains");
    }
}
