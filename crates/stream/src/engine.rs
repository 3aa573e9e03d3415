//! The stream-engine facade.
//!
//! A [`StreamEngine`] owns every continuous query and materialized
//! recursive view on the PC side of ASPEN. Since the sharding refactor
//! it is a thin facade over [`ShardedEngine`]: `StreamEngine::new` is a
//! one-shard engine (identical behavior and cost to the pre-shard
//! engine — one shard owns every query and the whole `SourceId` →
//! subscriber routing index), and [`StreamEngine::with_config`] takes an
//! [`EngineConfig`] that spreads the pipeline set across N worker shards
//! hashed by `QueryId`. Wrappers push source batches in; the routing
//! index sends each batch only to the query pipelines and recursive
//! views that actually scan that source — ingest cost scales with the
//! *live subscribers of the source*, not with the total number of
//! queries ever registered. Heartbeats likewise touch only the pipelines
//! (and time-windowed views) that react to time.
//!
//! Clients interact through the session API: [`QuerySpec`] describes
//! what to register (SQL or plan, delivery mode, micro-batch knobs),
//! registration returns a typed [`Registration`], results arrive by
//! snapshot polling or through a push [`ResultSubscription`], and the
//! full lifecycle — [`StreamEngine::deregister`], [`StreamEngine::pause`],
//! [`StreamEngine::resume`], per-client sessions — unwinds or suspends a
//! query's routing so ingest cost always tracks live fan-out.

use std::sync::Arc;

use aspen_catalog::Catalog;
use aspen_sql::binder::BoundView;
use aspen_sql::plan::LogicalPlan;
use aspen_types::{Result, SimDuration, SimTime, SourceId, Tuple};

use crate::delta::DeltaBatch;
use crate::executor::ExecutorStats;
use crate::session::{
    Consistency, EngineConfig, QuerySpec, Registration, ResultSubscription, SessionId,
};
use crate::shard::ShardedEngine;
use crate::telemetry::TelemetryReport;

pub use crate::shard::QueryHandle;

/// PC-side query engine: continuous queries + materialized views.
pub struct StreamEngine {
    inner: ShardedEngine,
}

impl StreamEngine {
    /// Single-shard engine — the default for interactive use and for
    /// every caller that predates the shard layer.
    pub fn new(catalog: Arc<Catalog>) -> Self {
        StreamEngine {
            inner: ShardedEngine::with_config(catalog, EngineConfig::new()),
        }
    }

    /// Engine built from an [`EngineConfig`]: shard count and fan-out
    /// mode are fixed at construction (there are no runtime-mutable
    /// engine toggles).
    pub fn with_config(catalog: Arc<Catalog>, config: EngineConfig) -> Self {
        StreamEngine {
            inner: ShardedEngine::with_config(catalog, config),
        }
    }

    /// The sharded core, for callers that need shard-level introspection
    /// (placement balance, per-shard busy time and ops counters).
    pub fn sharded(&self) -> &ShardedEngine {
        &self.inner
    }

    pub fn catalog(&self) -> &Arc<Catalog> {
        self.inner.catalog()
    }

    pub fn now(&self) -> SimTime {
        self.inner.now()
    }

    pub fn shard_count(&self) -> usize {
        self.inner.shard_count()
    }

    /// Registered queries (live + paused).
    pub fn query_count(&self) -> usize {
        self.inner.query_count()
    }

    /// Number of live queries subscribed to a source (routing-index
    /// fan-out; exposed for tests and the fan-out benches).
    pub fn subscriber_count(&self, source: SourceId) -> usize {
        self.inner.subscriber_count(source)
    }

    /// Open a client session; close it to retire all of its queries at
    /// once.
    pub fn open_session(&mut self) -> SessionId {
        self.inner.open_session()
    }

    /// Deregister every query still registered in `session`; returns how
    /// many were retired.
    pub fn close_session(&mut self, session: SessionId) -> Result<usize> {
        self.inner.close_session(session)
    }

    /// Register a [`QuerySpec`] (SQL or bound plan, delivery mode,
    /// micro-batch knobs) outside any session.
    pub fn register(&mut self, spec: QuerySpec) -> Result<Registration> {
        self.inner.register(spec)
    }

    /// Register a [`QuerySpec`] in a client session.
    pub fn register_in(&mut self, session: SessionId, spec: QuerySpec) -> Result<Registration> {
        self.inner.register_in(session, spec)
    }

    /// Compile and register a SQL statement with default (poll)
    /// delivery: `SELECT` yields [`Registration::Query`], `CREATE VIEW`
    /// yields [`Registration::View`].
    pub fn register_sql(&mut self, sql: &str) -> Result<Registration> {
        self.inner.register_sql(sql)
    }

    /// Register an already-planned continuous query.
    pub fn register_plan(&mut self, plan: &LogicalPlan) -> Result<QueryHandle> {
        self.inner.register_plan(plan)
    }

    /// Materialize a bound view. Registers the view's output as a catalog
    /// source (kind `View`) so downstream queries can scan it.
    pub fn register_view(&mut self, bound: &BoundView) -> Result<SourceId> {
        self.inner.register_view(bound)
    }

    /// Retire a query, unwinding its runtime, routing entries, and
    /// session membership.
    pub fn deregister(&mut self, q: QueryHandle) -> Result<()> {
        self.inner.deregister(q)
    }

    /// Detach a query from routing, freezing its sink; see
    /// [`ShardedEngine::pause`].
    pub fn pause(&mut self, q: QueryHandle) -> Result<()> {
        self.inner.pause(q)
    }

    /// Reattach a paused query through the replay path; see
    /// [`ShardedEngine::resume`].
    pub fn resume(&mut self, q: QueryHandle) -> Result<()> {
        self.inner.resume(q)
    }

    /// Whether a registered query is currently paused.
    pub fn is_paused(&self, q: QueryHandle) -> Result<bool> {
        self.inner.is_paused(q)
    }

    /// Attach (or re-fetch) the push subscription of a query.
    pub fn subscribe(&mut self, q: QueryHandle) -> Result<ResultSubscription> {
        self.inner.subscribe(q)
    }

    /// One coherent load snapshot of the engine (per-shard, per-query,
    /// and per-worker meters); see [`ShardedEngine::telemetry`].
    pub fn telemetry(&self) -> TelemetryReport {
        self.inner.telemetry()
    }

    /// Telemetry at an explicit consistency level: `Fresh` drains every
    /// shard first; `Cut` reads each shard at its published applied
    /// watermark without stalling ingest. See
    /// [`ShardedEngine::telemetry_at`].
    pub fn telemetry_at(&self, consistency: Consistency) -> TelemetryReport {
        self.inner.telemetry_at(consistency)
    }

    /// Drain every shard's pending boundary tasks (global barrier); see
    /// [`ShardedEngine::quiesce`].
    pub fn quiesce(&mut self) -> Result<()> {
        self.inner.quiesce()
    }

    /// Executor scheduling statistics (queue depths, admission stall);
    /// see [`ShardedEngine::executor_stats`].
    pub fn executor_stats(&self) -> ExecutorStats {
        self.inner.executor_stats()
    }

    /// Inject an artificial per-batch drag into one query's pipeline
    /// (slow-consumer instrumentation); see
    /// [`ShardedEngine::set_query_drag`].
    pub fn set_query_drag(
        &mut self,
        q: QueryHandle,
        drag: Option<std::time::Duration>,
    ) -> Result<()> {
        self.inner.set_query_drag(q, drag)
    }

    /// Live-migrate a query's runtime to another shard; see
    /// [`ShardedEngine::migrate`].
    pub fn migrate(&mut self, q: QueryHandle, to: usize) -> Result<()> {
        self.inner.migrate(q, to)
    }

    /// Observe telemetry and apply any migrations the rebalance
    /// controller plans; see [`ShardedEngine::rebalance_now`].
    pub fn rebalance_now(&mut self) -> usize {
        self.inner.rebalance_now()
    }

    /// Retune a query's micro-batch knobs at runtime.
    pub fn tune_query(
        &mut self,
        q: QueryHandle,
        max_batch: Option<usize>,
        max_delay: Option<SimDuration>,
    ) -> Result<()> {
        self.inner.tune_query(q, max_batch, max_delay)
    }

    /// Retune every `auto_knobs` query from measured rates; see
    /// [`ShardedEngine::auto_tune`].
    pub fn auto_tune<F>(&mut self, chooser: F) -> usize
    where
        F: FnMut(f64, f64) -> (Option<usize>, Option<SimDuration>),
    {
        self.inner.auto_tune(chooser)
    }

    /// Ingest a batch of tuples for a named source.
    pub fn on_batch(&mut self, source_name: &str, tuples: &[Tuple]) -> Result<()> {
        self.inner.on_batch(source_name, tuples)
    }

    /// Ingest signed changes for a source (e.g. a table update/delete).
    pub fn on_deltas(&mut self, source_name: &str, deltas: &DeltaBatch) -> Result<()> {
        self.inner.on_deltas(source_name, deltas)
    }

    /// Advance simulated time: expire windows in every clock-sensitive
    /// pipeline and time-windowed view.
    pub fn heartbeat(&mut self, now: SimTime) -> Result<()> {
        self.inner.heartbeat(now)
    }

    /// Current results of a query (ORDER BY / LIMIT applied).
    pub fn snapshot(&self, q: QueryHandle) -> Result<Vec<Tuple>> {
        self.inner.snapshot(q)
    }

    /// Query snapshot at an explicit consistency level; see
    /// [`ShardedEngine::snapshot_at`].
    pub fn snapshot_at(&self, q: QueryHandle, consistency: Consistency) -> Result<Vec<Tuple>> {
        self.inner.snapshot_at(q, consistency)
    }

    /// Result-churn statistic of a query's sink (deltas applied so far).
    pub fn deltas_applied(&self, q: QueryHandle) -> Result<u64> {
        self.inner.deltas_applied(q)
    }

    /// Total operator invocations across all pipelines (CPU-cost proxy).
    pub fn total_ops_invoked(&self) -> u64 {
        self.inner.total_ops_invoked()
    }

    /// Resident operator-state census (source logs counted once); see
    /// [`ShardedEngine::resident_state`].
    pub fn resident_state(&self) -> crate::shard::ResidentState {
        self.inner.resident_state()
    }

    /// Plan-cache effectiveness counters, `None` when disabled; see
    /// [`ShardedEngine::plan_cache_stats`].
    pub fn plan_cache_stats(&self) -> Option<aspen_optimizer::PlanCacheStats> {
        self.inner.plan_cache_stats()
    }

    /// Current materialization of a named view.
    pub fn view_snapshot(&self, name: &str) -> Result<Vec<Tuple>> {
        self.inner.view_snapshot(name)
    }

    /// Maintenance statistics of a named view.
    pub fn view_stats(&self, name: &str) -> Result<crate::recursive::ViewStats> {
        self.inner.view_stats(name)
    }

    /// Snapshots of every query routed to the named display.
    pub fn display_snapshot(&self, display: &str) -> Result<Vec<Vec<Tuple>>> {
        self.inner.display_snapshot(display)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use aspen_catalog::{DeviceClass, SourceKind, SourceStats};
    use aspen_types::{DataType, Field, QueryId, Schema, SimDuration, Value};

    fn engine() -> StreamEngine {
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
        StreamEngine::new(cat)
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

    #[test]
    fn unknown_query_handle_errors() {
        let e = engine();
        assert!(e.snapshot(QueryHandle(QueryId(42))).is_err());
    }
}
