//! Multi-node cluster execution: real engine instances over simulated
//! links.
//!
//! This module runs N independent [`ShardedEngine`] nodes — each with
//! its own executor, shards, route counts, and query runtimes — joined
//! by `aspen-netsim` simulated LAN links. Everything that crosses a
//! node boundary goes through the netsim codec as an encoded
//! [`WireFrame`]: data batches are serialized by the [`exchange`]
//! egress operator, charged against the
//! directed link's [`WireStats`] under the [`LanModel`], decoded on
//! the far side, and re-admitted through the remote node's *normal*
//! `on_deltas` ingest path. There is no cluster-private fast path —
//! remote deltas are indistinguishable from local ones once past the
//! link, so retained-table replay, push accumulation, watermarks, and
//! source-log cursors all behave identically on every node.
//!
//! ## Coordinator and placement
//!
//! [`Cluster`] is the coordinator: it owns the global catalog, the
//! source→home map and the hash-exchanged sources, and resolves every
//! registration through the same [`crate::session`] `FrontEnd` (plan
//! cache + session table) a node owns. It keeps no query table: it issues
//! each query id, and a query's node is the node that holds that id (a
//! hash group, held by every node, answers as node 0). A bound plan goes
//! to the node hinted by [`QuerySpec::on_node`], else to the node homing
//! the most of its scanned streams.
//!
//! ## Views
//!
//! A recursive view lives on every node, as a retained table does: each
//! node builds its copy, the name enters the catalog once, each node
//! installs its copy. A query over a view runs and moves on any node. A
//! view over a hash-exchanged source, and a hash split of a source a view
//! reads, are refused.
//!
//! ## Ingest routing
//!
//! A source batch enters at its home node. Table batches broadcast to
//! every node (replay and views stay complete everywhere); stream batches
//! ship to nodes with live subscribers and to nodes whose views read them
//! (every node, then). The home admits every batch of a stream, so its
//! arrival counter is the stream's one numbering, which every frame
//! carries: a log row has one id on every node.
//! [`Cluster::register_hash_partitioned`] installs the same plan on
//! every node, under one id, and marks its sources *exchanged*: their
//! batches are hash-scattered by key columns ([`exchange::partition`]), so equal
//! join keys always meet on one node and the merged member snapshots
//! equal the monolithic result; each node numbers its own shares.
//!
//! ## Cross-node live migration
//!
//! [`Cluster::migrate`] is [`ShardedEngine::migrate`]'s four calls run on
//! two nodes with the link in between: the recipient's `floors`, the
//! donor's `lacking` (the window rows below those floors, shipped as a
//! data frame, usually none), the donor's `retire` and the recipient's
//! `land` — no replay, no snapshot discontinuity. The handoff is a control
//! frame on the donor→recipient link. A cluster-level
//! [`RebalanceController`] can drive this from the per-node
//! [`TelemetryReport`] assembled by [`Cluster::cluster_report`].

pub mod exchange;
pub mod link;

use std::cmp::Reverse;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use aspen_catalog::{Catalog, SourceKind, SourceMeta};
use aspen_netsim::frames::{decode_frame, encode_frame, WireFrame};
use aspen_optimizer::PlanCacheStats;
use aspen_sql::binder::BoundView;
use aspen_types::{AspenError, QueryId, Result, SimDuration, SimTime, SourceId, Tuple};

use crate::delta::DeltaBatch;
use crate::rebalance::{RebalanceConfig, RebalanceController};
use crate::session::{
    BoundSpec, Consistency, EngineConfig, FrontEnd, QuerySpec, Registration, Resolved,
    ResultSubscription, SessionId,
};
use crate::shard::{view_source, Admission, QueryHandle, ShardedEngine};
use crate::telemetry::{QueryLoad, TelemetryReport};
use crate::trace::{now_us, LatencyHistogram, OpProfile, Span, SpanJournal, SpanKind, TraceCtx};
use exchange::Arrival;

pub use link::{LanModel, WireStats};

/// A frame carried over a link: the hop's latency, what it delivers, and
/// the trace context it carried.
type Carried = (SimDuration, Arrival, Option<TraceCtx>);

/// Control-frame opcode: a live query runtime moved between nodes.
const CTRL_MIGRATE: u8 = 1;

/// Construction-time shape of a [`Cluster`]: node count, the config
/// every node engine is built from, and (optionally) the cluster-level
/// rebalance policy. Every link runs [`LanModel::default`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    nodes: usize,
    node_config: EngineConfig,
    rebalance: Option<RebalanceConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            nodes: 1,
            node_config: EngineConfig::new(),
            rebalance: None,
        }
    }
}

impl ClusterConfig {
    pub fn new() -> Self {
        ClusterConfig::default()
    }

    /// Number of engine nodes (clamped to ≥ 1).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n.max(1);
        self
    }

    /// The [`EngineConfig`] every node is built from (shards per node,
    /// scheduling mode, per-node auto-rebalance, ...).
    pub fn node_config(mut self, config: EngineConfig) -> Self {
        self.node_config = config;
        self
    }

    /// Enable the cluster-level rebalancer: observe the merged
    /// per-node report every `interval_boundaries` cluster boundaries
    /// and migrate queries across *nodes* on sustained skew.
    pub fn rebalance(mut self, config: RebalanceConfig) -> Self {
        self.rebalance = Some(config);
        self
    }
}

/// N real [`ShardedEngine`] nodes behind one coordinator — global
/// catalog, placement, wire-framed exchange, and cross-node live
/// migration. See the module docs for the execution model.
pub struct Cluster {
    catalog: Arc<Catalog>,
    lan: LanModel,
    nodes: Vec<ShardedEngine>,
    /// Directed data links; `links[from][to]` meters encoded frames.
    links: Vec<Vec<WireStats>>,
    /// Source → home-node overrides; unmapped sources default to
    /// `id % nodes`.
    homes: HashMap<SourceId, usize>,
    /// The next query id: ids are issued in registration order and never
    /// reused.
    next_query: u32,
    /// SQL resolution (plan-template cache) and the session table — the
    /// same front end every node owns.
    front: FrontEnd,
    /// Sources whose ingest is hash-scattered, with the hash-partitioned
    /// query they feed — the same plan live on every node under one id,
    /// fed disjoint key ranges — and the key columns. Its members are
    /// pinned.
    exchanged: HashMap<SourceId, (QueryId, Vec<usize>)>,
    rebalancer: Option<RebalanceController>,
    boundaries: u64,
    migrations: u64,
    /// Tuples serialized onto links / decoded off links. Equal by
    /// construction (the codec is lossless); the churn property in
    /// `tests/cluster.rs` asserts the conservation.
    exchange_tuples_out: u64,
    exchange_tuples_in: u64,
    /// Admission sequence for trace contexts created at cluster ingest.
    next_batch: u64,
    /// Cluster-level span journal: ships, arrivals, cross-node
    /// migrations, rebalance decisions.
    journal: SpanJournal,
}

impl Cluster {
    pub fn new(catalog: Arc<Catalog>, config: ClusterConfig) -> Self {
        let n = config.nodes;
        let nodes: Vec<ShardedEngine> = (0..n)
            .map(|i| {
                let mut node =
                    ShardedEngine::with_config(Arc::clone(&catalog), config.node_config.clone());
                // Trace contexts created on this node carry its id as
                // the origin.
                node.set_node_id(i as u32);
                node
            })
            .collect();
        Cluster {
            nodes,
            links: (0..n).map(|_| vec![WireStats::default(); n]).collect(),
            catalog,
            lan: LanModel::default(),
            homes: HashMap::new(),
            next_query: 0,
            front: FrontEnd::default(),
            exchanged: HashMap::new(),
            rebalancer: config.rebalance.map(RebalanceController::new),
            boundaries: 0,
            migrations: 0,
            exchange_tuples_out: 0,
            exchange_tuples_in: 0,
            next_batch: 0,
            journal: SpanJournal::default(),
        }
    }

    /// The cluster-level span journal (ships, arrivals, cross-node
    /// migrations, rebalance decisions).
    pub fn journal(&self) -> &SpanJournal {
        &self.journal
    }

    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Node-level introspection (telemetry, resident state, ...).
    pub fn node(&self, i: usize) -> &ShardedEngine {
        &self.nodes[i]
    }

    /// Pin a source's wrapper to a node. Must happen before any query
    /// scans it and before any of its batches arrive — the home is
    /// where ingest enters and where link charges originate.
    pub fn home_source(&mut self, name: &str, node: usize) -> Result<()> {
        let meta = self.catalog.source(name)?;
        if node >= self.nodes.len() {
            return Err(AspenError::InvalidArgument(format!(
                "node {node} out of range (cluster has {})",
                self.nodes.len()
            )));
        }
        self.homes.insert(meta.id, node);
        Ok(())
    }

    fn home_of(&self, src: SourceId) -> usize {
        self.homes
            .get(&src)
            .copied()
            .unwrap_or(src.0 as usize % self.nodes.len())
    }

    // -----------------------------------------------------------------
    // Registration and lifecycle
    // -----------------------------------------------------------------

    pub fn open_session(&mut self) -> SessionId {
        self.front.open_session()
    }

    /// Retire every query the session still owns; returns how many.
    pub fn close_session(&mut self, session: SessionId) -> Result<usize> {
        let qids = self.front.close_session(session)?;
        for &qid in &qids {
            self.deregister(QueryHandle(qid))?;
        }
        Ok(qids.len())
    }

    pub fn register(&mut self, spec: QuerySpec) -> Result<Registration> {
        self.do_register(None, spec)
    }

    pub fn register_in(&mut self, session: SessionId, spec: QuerySpec) -> Result<Registration> {
        self.do_register(Some(session), spec)
    }

    pub fn register_sql(&mut self, sql: &str) -> Result<Registration> {
        self.register(QuerySpec::sql(sql))
    }

    /// Plan-cache effectiveness counters of the coordinator's front end
    /// (nodes receive bound plans, so their own caches stay cold).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.front.plan_cache_stats()
    }

    fn do_register(&mut self, session: Option<SessionId>, spec: QuerySpec) -> Result<Registration> {
        // Resolve at the coordinator: the catalog is global, so the plan
        // is the same wherever the runtime lands.
        let bound = match self.front.resolve(session, spec, &self.catalog)? {
            Resolved::Query(bound) => bound,
            Resolved::View(v) => return self.register_view(&v).map(Registration::View),
        };
        let (mut votes, mut voted) = (vec![0usize; self.nodes.len()], BTreeSet::new());
        for rel in bound.plan.scans() {
            self.refuse_split(&rel.meta)?;
            // Majority-home placement: the node where most of the scanned
            // stream data originates pays the fewest hops. Each stream
            // votes once; tables and views are on every node and don't.
            if rel.meta.kind.is_stream_like() && voted.insert(rel.meta.id) {
                votes[self.home_of(rel.meta.id)] += 1;
            }
        }
        let majority = votes
            .iter()
            .enumerate()
            .max_by_key(|&(i, v)| (*v, Reverse(i)));
        let target = bound.node.unwrap_or(majority.map_or(0, |(i, _)| i));
        if target >= self.nodes.len() {
            return Err(AspenError::InvalidArgument(format!(
                "placement hint node {target} out of range (cluster has {})",
                self.nodes.len()
            )));
        }
        let qid = QueryId(self.next_query);
        self.nodes[target].place(qid, bound)?;
        self.front.enroll(session, qid);
        self.next_query += 1;
        Ok(Registration::Query(QueryHandle(qid)))
    }

    /// `Err` when `source` is hash-exchanged: each node numbers and holds
    /// only its own share.
    fn refuse_split(&self, source: &SourceMeta) -> Result<()> {
        match self.exchanged.contains_key(&source.id) {
            true => Err(AspenError::InvalidArgument(format!(
                "source '{}' is hash-exchanged across the cluster; only its \
                 partitioned group may scan it",
                source.name
            ))),
            false => Ok(()),
        }
    }

    /// Register a view on every node: each builds its copy, the name
    /// enters the catalog once, and each installs its copy. A view over a
    /// hash-exchanged source is refused, and a refused view leaves no name
    /// and no copy behind.
    fn register_view(&mut self, bound: &BoundView) -> Result<SourceId> {
        for plan in bound.bases.iter().chain(&bound.steps) {
            plan.scans()
                .iter()
                .try_for_each(|rel| self.refuse_split(&rel.meta))?;
        }
        let mut copies = Vec::with_capacity(self.nodes.len());
        for node in &self.nodes {
            copies.push(node.build_view(bound)?);
        }
        let out_source = view_source(&self.catalog, bound)?;
        for (node, view) in self.nodes.iter_mut().zip(copies) {
            node.install_view(view, out_source);
        }
        Ok(out_source)
    }

    /// Register the same continuous plan on *every* node, fed by
    /// hash-exchange: each keyed source's batches are scattered by the
    /// given key columns, so equal keys meet on exactly one node and
    /// the union of member results equals the monolithic result.
    ///
    /// `keys` maps each scanned source name to the columns whose hash
    /// routes its tuples; every source the plan scans must be keyed, be
    /// stream-like, and have no other live subscriber anywhere (a late
    /// split would divide a history other queries already saw whole) and
    /// no view reading it (every node's copy would see only a share).
    /// Group members are pinned: no pause, migrate, or subscribe; the
    /// group snapshot is the canonically sorted merged multiset. When a
    /// node fails to place its member, the members placed before it are
    /// deregistered: no member outlives a failed call.
    pub fn register_hash_partitioned(
        &mut self,
        sql: &str,
        keys: &[(&str, Vec<usize>)],
    ) -> Result<QueryHandle> {
        let Resolved::Query(bound) =
            self.front
                .resolve(None, QuerySpec::sql(sql), &self.catalog)?
        else {
            return Err(AspenError::InvalidArgument(
                "hash-partitioned registration takes a continuous SELECT".into(),
            ));
        };
        let plan = bound.plan;
        let mut key_map: HashMap<SourceId, Vec<usize>> = HashMap::new();
        for (name, cols) in keys {
            let meta = self.catalog.source(name)?;
            if !meta.kind.is_stream_like() {
                return Err(AspenError::InvalidArgument(format!(
                    "source '{name}' is not a stream; only live streams can be hash-exchanged"
                )));
            }
            if cols.is_empty() {
                return Err(AspenError::InvalidArgument(format!(
                    "source '{name}' needs at least one exchange key column"
                )));
            }
            key_map.insert(meta.id, cols.clone());
        }
        for rel in plan.scans() {
            let sid = rel.meta.id;
            if !key_map.contains_key(&sid) {
                return Err(AspenError::InvalidArgument(format!(
                    "scanned source '{}' has no exchange keys; every input of a \
                     partitioned plan must be keyed",
                    rel.meta.name
                )));
            }
            self.refuse_split(&rel.meta)?;
            if self
                .nodes
                .iter()
                .any(|n| n.subscriber_count(sid) > 0 || n.views_read(sid))
            {
                return Err(AspenError::InvalidArgument(format!(
                    "source '{}' has live subscribers or a view reading it; it cannot be \
                     split mid-stream",
                    rel.meta.name
                )));
            }
        }

        let qid = QueryId(self.next_query);
        for i in 0..self.nodes.len() {
            let member = BoundSpec {
                plan: Arc::clone(&plan),
                ..bound
            };
            if let Err(e) = self.nodes[i].place(qid, member) {
                for node in &mut self.nodes[..i] {
                    node.deregister(QueryHandle(qid)).expect("placed above");
                }
                return Err(e);
            }
        }
        for rel in plan.scans() {
            let keys = key_map[&rel.meta.id].clone();
            self.exchanged.insert(rel.meta.id, (qid, keys));
        }
        self.next_query += 1;
        Ok(QueryHandle(qid))
    }

    /// The node holding query `q` — node 0 for a hash group, held by every
    /// node — and whether `q` is a hash group.
    fn node_of(&self, q: QueryHandle) -> Result<(usize, bool)> {
        let node = self.nodes.iter().position(|n| n.holds(q.0));
        let node =
            node.ok_or_else(|| AspenError::InvalidArgument(format!("unknown query {}", q.0)))?;
        Ok((node, self.exchanged.values().any(|(g, _)| *g == q.0)))
    }

    /// The node an unpinned query lives on.
    fn unpinned(&self, q: QueryHandle, op: &str) -> Result<usize> {
        match self.node_of(q)? {
            (_, true) => Err(AspenError::InvalidArgument(format!(
                "query {} is a hash-partitioned group member; {op} is not supported",
                q.0
            ))),
            (node, false) => Ok(node),
        }
    }

    /// Retire a query — on every node, for a hash group, whose sources are
    /// then no longer exchanged — and drop it from its session.
    pub fn deregister(&mut self, q: QueryHandle) -> Result<()> {
        let (node, group) = self.node_of(q)?;
        self.front.leave(q.0);
        if !group {
            return self.nodes[node].deregister(q);
        }
        for node in &mut self.nodes {
            node.deregister(q)?;
        }
        self.exchanged.retain(|_, (g, _)| *g != q.0);
        Ok(())
    }

    pub fn pause(&mut self, q: QueryHandle) -> Result<()> {
        let node = self.unpinned(q, "pause")?;
        self.nodes[node].pause(q)
    }

    /// Resume a paused query. One over a source a hash group split while
    /// it was paused is refused: its node now holds only a share.
    pub fn resume(&mut self, q: QueryHandle) -> Result<()> {
        let node = self.unpinned(q, "resume")?;
        self.refuse_exchanged(q, node)?;
        self.nodes[node].resume(q)
    }

    /// `Err` when `q`, on `node`, reads a hash-exchanged source.
    fn refuse_exchanged(&self, q: QueryHandle, node: usize) -> Result<()> {
        let scanned = self.nodes[node].scanned(q)?;
        scanned
            .iter()
            .try_for_each(|source| self.refuse_split(source))
    }

    /// Attach push delivery; the subscription rides the sink and so
    /// survives cross-node migration untouched.
    pub fn subscribe(&mut self, q: QueryHandle) -> Result<ResultSubscription> {
        let node = self.unpinned(q, "subscribe")?;
        self.nodes[node].subscribe(q)
    }

    /// Retune a query's micro-batch knobs on its node
    /// ([`ShardedEngine::tune_query`]); a hash group's are fixed.
    pub fn tune_query(
        &mut self,
        q: QueryHandle,
        max_batch: Option<usize>,
        max_delay: Option<SimDuration>,
    ) -> Result<()> {
        let node = self.unpinned(q, "tune_query")?;
        self.nodes[node].tune_query(q, max_batch, max_delay)
    }

    // -----------------------------------------------------------------
    // Reads
    // -----------------------------------------------------------------

    pub fn snapshot(&self, q: QueryHandle) -> Result<Vec<Tuple>> {
        self.snapshot_at(q, Consistency::Fresh)
    }

    /// Poll a query's maintained result. For a hash-partitioned group
    /// this merges every member's multiset, canonically sorted by
    /// (values, timestamp) — exchange partitioning makes the members
    /// disjoint, so the merge *is* the monolithic result (ORDER BY /
    /// LIMIT plans are not meaningful across members and should not be
    /// registered partitioned).
    pub fn snapshot_at(&self, q: QueryHandle, consistency: Consistency) -> Result<Vec<Tuple>> {
        let (node, group) = self.node_of(q)?;
        if !group {
            return self.nodes[node].snapshot_at(q, consistency);
        }
        let mut out = Vec::new();
        for node in &self.nodes {
            out.extend(node.snapshot_at(q, consistency)?);
        }
        out.sort_by(|a, b| {
            a.values()
                .cmp(b.values())
                .then(a.timestamp().cmp(&b.timestamp()))
        });
        Ok(out)
    }

    /// One merged observation of the whole cluster: each node's report
    /// collapsed to one [`ShardLoad`](crate::telemetry::ShardLoad) row
    /// (indexed by node), and every query each node reports, with `shard`
    /// = that node, in id (so registration) order. Hash-group members are
    /// omitted from the query list (they are pinned, so the rebalancer
    /// must not plan them), but their work still shows in node loads.
    /// Its scheduling mode is its nodes' (they share one node config).
    pub fn cluster_report(&self) -> TelemetryReport {
        let reports: Vec<TelemetryReport> = self.nodes.iter().map(|n| n.telemetry()).collect();
        let mut shards = Vec::with_capacity(reports.len());
        let mut now_secs = 0.0f64;
        let mut profile = OpProfile::default();
        let mut queries = Vec::new();
        let group = |q: QueryId| self.exchanged.values().any(|(g, _)| *g == q);
        for (i, r) in reports.iter().enumerate() {
            shards.push(r.as_node_load(i));
            now_secs = now_secs.max(r.now_secs);
            profile.merge(&r.profile);
            for load in r.queries.iter().filter(|l| !group(l.query)) {
                queries.push(QueryLoad {
                    shard: i,
                    ..load.clone()
                });
            }
        }
        queries.sort_unstable_by_key(|q| q.query);
        TelemetryReport {
            shards,
            queries,
            workers: Vec::new(),
            boundaries: self.boundaries,
            out_of_order_tuples: reports.iter().map(|r| r.out_of_order_tuples).sum(),
            log_shared_bytes: reports.iter().map(|r| r.log_shared_bytes).sum(),
            tables: reports.iter().map(|r| r.tables).sum(),
            now_secs,
            profile,
            scheduling: reports.first().map(|r| r.scheduling).unwrap_or_default(),
        }
    }

    /// Cluster-wide ingest→apply latency: every node's histogram is
    /// shipped to the coordinator as an encoded [`WireFrame::Histogram`]
    /// and merged — the mergeability the log-bucketed representation
    /// exists for. Exchange hops are already inside each node's
    /// histogram via hop back-dating.
    pub fn merged_latency(&self) -> Result<LatencyHistogram> {
        let mut out = LatencyHistogram::new();
        for i in 0..self.nodes.len() {
            let h = self.nodes[i].telemetry().ingest_latency();
            let frame = WireFrame::Histogram {
                node: i as u32,
                max_us: h.max_us(),
                sum_us: h.sum_us(),
                buckets: h.bucket_counts(),
            };
            let WireFrame::Histogram {
                max_us,
                sum_us,
                buckets,
                ..
            } = decode_frame(encode_frame(&frame))?
            else {
                return Err(AspenError::Execution(
                    "histogram frame decoded as a different variant".into(),
                ));
            };
            out.merge(&LatencyHistogram::from_parts(max_us, sum_us, &buckets));
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Cross-node migration
    // -----------------------------------------------------------------

    /// Move a live query between nodes with no replay, by log position:
    /// [`ShardedEngine::migrate`]'s four calls on two nodes, the rows its
    /// windows hold below the recipient's log floors crossing the link as
    /// data frames (counted in [`Cluster::exchange_tuples`]) and the
    /// handoff as a control frame. A query over an exchanged source (each
    /// node numbers its own share) is refused. Every fallible step runs
    /// before the donor lifts anything, so a migration that returns `Err`
    /// left the query registered, on the donor, untouched.
    pub fn migrate(&mut self, q: QueryHandle, to: usize) -> Result<()> {
        if to >= self.nodes.len() {
            return Err(AspenError::InvalidArgument(format!(
                "node {to} out of range (cluster has {})",
                self.nodes.len()
            )));
        }
        let from = self.unpinned(q, "cross-node migration")?;
        if from == to {
            return Ok(());
        }
        self.refuse_exchanged(q, from)?;
        let shard = self.nodes[to].shard_of(q.0);
        let floors = self.nodes[to].floors(shard)?;
        let mut backfill = self.nodes[from].lacking(q, &floors)?;
        for (src, first, rows) in &mut backfill {
            let frame = exchange::egress_numbered(*src, Some(*first), rows);
            let (_, arrival, _) = self.carry((from, to), frame, rows.len() as u64)?;
            if let Arrival::Batch { tuples, .. } = arrival {
                *rows = tuples;
            }
        }
        let moved = self.nodes[from].retire(q.0, backfill);
        self.nodes[to].land(moved, shard);
        let frame = WireFrame::Control {
            op: CTRL_MIGRATE,
            args: vec![u64::from(q.0 .0), from as u64, to as u64],
        };
        let bytes = encode_frame(&frame).len() as u64;
        self.links[from][to].charge(&self.lan, bytes, 0);
        self.migrations += 1;
        self.journal.record(Span {
            at_us: now_us(),
            node: from as u32,
            batch: u64::from(q.0 .0),
            kind: SpanKind::Migrate,
            detail: to as u64,
        });
        Ok(())
    }

    /// Feed the merged report to the cluster rebalancer and apply the
    /// planned cross-node moves now; returns how many were applied.
    pub fn rebalance_now(&mut self) -> usize {
        let Some(mut ctrl) = self.rebalancer.take() else {
            return 0;
        };
        let report = self.cluster_report();
        let (applied, span) = ctrl.round(&report, 0, |q, to| self.migrate(q, to));
        self.rebalancer = Some(ctrl);
        if let Some(span) = span {
            self.journal.record(span);
        }
        applied
    }

    // -----------------------------------------------------------------
    // Ingest
    // -----------------------------------------------------------------

    /// Admit one source batch at its home node and route it: local
    /// delivery at the home, wire-framed exchange to every other node
    /// that needs it (see the module docs for the routing policy). A
    /// batch holding a row that does not fit the source schema (its arity,
    /// or a Table cell's type) is refused with
    /// [`AspenError::InvalidArgument`] before it is numbered, partitioned
    /// or sent anywhere.
    pub fn on_batch(&mut self, source_name: &str, tuples: &[Tuple]) -> Result<()> {
        self.ingest(source_name, Admission::Batch(tuples))
    }

    /// Signed-delta ingest (the retraction-capable path), routed the
    /// same way as [`Cluster::on_batch`]. Refused as a whole, before any
    /// node sees it, on a stream whose window a live query on any node
    /// indexes in a join side.
    pub fn on_deltas(&mut self, source_name: &str, deltas: &DeltaBatch) -> Result<()> {
        self.ingest(source_name, Admission::Deltas(deltas))
    }

    /// The one routing function behind both ingest calls: the whole
    /// payload to each of [`Cluster::ingest_targets`], or — for an
    /// exchanged source — a hash-scattered share to each node whose
    /// share is non-empty; every one even if one fails, the first error last.
    fn ingest(&mut self, source_name: &str, payload: Admission<'_>) -> Result<()> {
        let meta = self.catalog.source(source_name)?;
        // Refused before any number, share, frame or node moves.
        payload.check_rows(&meta)?;
        for node in &self.nodes {
            node.check_deltas(&meta, payload)?;
        }
        let (src, n) = (meta.id, self.nodes.len());
        let home = self.home_of(src);
        // One trace context per admitted batch: it travels inside every
        // exchange frame of it, and the hop latency is charged into the
        // receiving node's histograms.
        let trace = TraceCtx::new(home as u32, self.next_batch);
        self.next_batch += 1;
        let mut served = Ok(());
        match (self.exchanged.get(&src).map(|g| g.1.clone()), payload) {
            (None, whole) => {
                // The home admits every batch of the stream: its counter
                // is the stream's one numbering.
                let streamed = matches!(whole, Admission::Batch(_)) && meta.kind.is_stream_like();
                let at = streamed.then(|| self.nodes[home].next_arrival(src));
                for to in self.ingest_targets(src, &meta.kind, home) {
                    let run = self.deliver(source_name, (src, home, to), whole, trace, at);
                    served = served.and(run);
                }
            }
            (Some(keys), Admission::Batch(tuples)) => {
                let shares = exchange::partition(tuples, &keys, n);
                for (to, share) in shares.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
                    let share = Admission::Batch(share);
                    let run = self.deliver(source_name, (src, home, to), share, trace, None);
                    served = served.and(run);
                }
            }
            (Some(keys), Admission::Deltas(deltas)) => {
                let mut shares = vec![DeltaBatch::new(); n];
                for d in deltas {
                    shares[exchange::node_of(&d.tuple, &keys, n)].push(d.clone());
                }
                for (to, share) in shares.iter().enumerate().filter(|(_, s)| !s.is_empty()) {
                    let share = Admission::Deltas(share);
                    let run = self.deliver(source_name, (src, home, to), share, trace, None);
                    served = served.and(run);
                }
            }
        }
        served.and(self.finish_boundary())
    }

    /// Hand node `to` its share of a batch of `src` from `home`, numbered
    /// `at` on: admitted in place at the home, shipped anywhere else.
    fn deliver(
        &mut self,
        source_name: &str,
        (src, home, to): (SourceId, usize, usize),
        share: Admission<'_>,
        trace: TraceCtx,
        at: Option<u64>,
    ) -> Result<()> {
        if to == home {
            self.nodes[home].admit(source_name, share, Some(trace), at)
        } else {
            self.ship(source_name, src, (home, to), share, trace, at)
        }
    }

    /// Advance every node's clock (a failing node stops none).
    pub fn heartbeat(&mut self, now: SimTime) -> Result<()> {
        let mut served = Ok(());
        for node in &mut self.nodes {
            served = served.and(node.heartbeat(now));
        }
        served.and(self.finish_boundary())
    }

    /// The nodes one non-exchanged batch must reach. Tables broadcast
    /// (every node's retained replay store and views must stay complete);
    /// streams go to the home, to nodes with live subscribers, and to the
    /// nodes whose views read them — every node, as every node keeps
    /// every view.
    fn ingest_targets(&self, src: SourceId, kind: &SourceKind, home: usize) -> BTreeSet<usize> {
        let mut targets = BTreeSet::new();
        targets.insert(home);
        if *kind == SourceKind::Table {
            targets.extend(0..self.nodes.len());
            return targets;
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.subscriber_count(src) > 0 || node.views_read(src) {
                targets.insert(i);
            }
        }
        targets
    }

    /// One cross-node hop, for real: serialize the payload into a frame
    /// through the netsim codec, charge the encoded length against the
    /// directed link, decode on the far side, and re-admit what the frame
    /// delivers through the recipient's normal ingest.
    ///
    /// Re-admission preserves the payload's kind, which the frame says: a
    /// shipped source batch re-enters as a batch at its cluster-wide
    /// number, so the remote log windows, numbers and later expires the
    /// tuples exactly as the home node's does, while signed deltas
    /// re-enter as deltas, which bypass windowing — the same semantics
    /// the local signed ingest had at the home. Without this split a
    /// shipped stream batch would never leave its remote windows, and a
    /// cluster snapshot would diverge from the single-node result as soon
    /// as a window rolled over.
    fn ship(
        &mut self,
        source_name: &str,
        src: SourceId,
        (from, to): (usize, usize),
        payload: Admission<'_>,
        trace: TraceCtx,
        at: Option<u64>,
    ) -> Result<()> {
        let frame = match payload {
            Admission::Batch(tuples) => exchange::egress_numbered(src, at, tuples),
            Admission::Deltas(deltas) => exchange::egress_deltas(src, deltas),
        };
        // A trace context travels *inside* the frame, so its bytes are
        // charged against the link like any other payload.
        let frame = exchange::with_trace(frame, &trace);
        let (hop, arrival, mut ctx) = self.carry((from, to), frame, payload.len() as u64)?;
        if let Some(ctx) = &mut ctx {
            // The simulated hop took no wall time; back-date the
            // admission so the receiving node's end-to-end histogram
            // still includes it.
            ctx.charge_hop(hop.as_micros());
            self.journal.record(Span {
                at_us: now_us(),
                node: from as u32,
                batch: ctx.batch,
                kind: SpanKind::Ship,
                detail: to as u64,
            });
            self.journal.record(Span {
                at_us: now_us(),
                node: to as u32,
                batch: ctx.batch,
                kind: SpanKind::Arrive,
                detail: from as u64,
            });
        }
        let (payload, at) = match &arrival {
            Arrival::Batch { first, tuples } => (Admission::Batch(tuples), *first),
            Arrival::Deltas(deltas) => (Admission::Deltas(deltas), None),
        };
        self.nodes[to].admit(source_name, payload, ctx, at)
    }

    /// Carry a data frame of `n` tuples over the `from → to` link: encode
    /// it, charge it, decode it, counting the tuples out and in. Returns
    /// the hop's simulated latency and what the frame delivers.
    fn carry(&mut self, (from, to): (usize, usize), frame: WireFrame, n: u64) -> Result<Carried> {
        let wire = encode_frame(&frame);
        let hop = self.links[from][to].charge(&self.lan, wire.len() as u64, n);
        self.exchange_tuples_out += n;
        let (_, arrival, ctx) = exchange::ingress(decode_frame(wire)?)?;
        self.exchange_tuples_in += arrival.len() as u64;
        Ok((hop, arrival, ctx))
    }

    fn finish_boundary(&mut self) -> Result<()> {
        self.boundaries += 1;
        if self
            .rebalancer
            .as_ref()
            .is_some_and(|ctrl| ctrl.due(self.boundaries))
        {
            self.rebalance_now();
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Accounting
    // -----------------------------------------------------------------

    /// Aggregate wire accounting across every directed data link.
    pub fn wire_stats(&self) -> WireStats {
        let mut total = WireStats::default();
        for row in &self.links {
            for link in row {
                total.absorb(link);
            }
        }
        total
    }

    /// One directed data link's accounting.
    pub fn link_stats(&self, from: usize, to: usize) -> &WireStats {
        &self.links[from][to]
    }

    /// Cross-node migrations executed (manual and rebalancer-driven).
    pub fn migration_count(&self) -> u64 {
        self.migrations
    }

    /// `(serialized onto links, decoded off links)` data tuples —
    /// equal by construction; asserted by the churn property.
    pub fn exchange_tuples(&self) -> (u64, u64) {
        (self.exchange_tuples_out, self.exchange_tuples_in)
    }

    /// Cluster-level batch boundaries (ingest calls + heartbeats).
    pub fn boundaries(&self) -> u64 {
        self.boundaries
    }

    /// Registered queries (live + paused), a hash group once.
    pub fn query_count(&self) -> usize {
        let held: usize = self.nodes.iter().map(ShardedEngine::query_count).sum();
        let groups: BTreeSet<QueryId> = self.exchanged.values().map(|g| g.0).collect();
        held - groups.len() * (self.nodes.len() - 1)
    }

    /// Node currently owning a query's runtime (node 0 for a hash group).
    pub fn node_of_query(&self, q: QueryHandle) -> Result<usize> {
        Ok(self.node_of(q)?.0)
    }

    /// Sum of operator invocations across every node — the cluster's
    /// total work, invariant under cross-node migration (the no-replay
    /// property: moving a runtime never re-runs its history).
    pub fn total_ops_invoked(&self) -> u64 {
        self.nodes.iter().map(|n| n.total_ops_invoked()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_catalog::{Catalog, SourceStats};
    use aspen_types::{DataType, Field, Schema, SchemaRef, Value};

    fn schema(cols: &[&str]) -> SchemaRef {
        Schema::new(cols.iter().map(|c| Field::new(*c, DataType::Int)).collect()).into_ref()
    }

    fn catalog() -> Arc<Catalog> {
        let cat = Catalog::shared();
        cat.register_source(
            "Readings",
            schema(&["room", "value"]),
            SourceKind::Stream,
            SourceStats::stream(1.0),
        )
        .unwrap();
        cat.register_source(
            "Extra",
            schema(&["room", "value"]),
            SourceKind::Stream,
            SourceStats::stream(1.0),
        )
        .unwrap();
        cat.register_source(
            "Rooms",
            schema(&["room", "floor"]),
            SourceKind::Table,
            SourceStats::table(8),
        )
        .unwrap();
        cat.register_source(
            "Spare",
            schema(&["room", "value"]),
            SourceKind::Stream,
            SourceStats::stream(1.0),
        )
        .unwrap();
        cat
    }

    fn t(vals: &[i64], us: u64) -> Tuple {
        Tuple::new(
            vals.iter().map(|&v| Value::Int(v)).collect(),
            SimTime::from_micros(us),
        )
    }

    fn two_nodes() -> Cluster {
        Cluster::new(
            catalog(),
            ClusterConfig::new()
                .nodes(2)
                .node_config(EngineConfig::new().shards(1)),
        )
    }

    /// Every row of the metric table reaches both exports of a cluster
    /// report, which carries its nodes' scheduling mode.
    #[test]
    fn cluster_report_exports_every_metric_row() {
        let mut c = two_nodes();
        c.home_source("Readings", 1).unwrap();
        for sql in [
            "select r.room, count(*) from Readings r group by r.room",
            "select r.value, o.floor from Readings r [rows 4], Rooms o where r.room = o.room",
        ] {
            c.register_sql(sql).unwrap().expect_query();
        }
        c.on_batch("Rooms", &[t(&[1, 2], 0)]).unwrap();
        for i in 0..40 {
            c.on_batch("Readings", &[t(&[i % 4, i], i as u64)]).unwrap();
        }
        let report = c.cluster_report();
        assert_eq!(report.scheduling, crate::Scheduling::Sequential);
        crate::trace::assert_exports_cover_the_table(&report);
    }

    #[test]
    fn placement_follows_source_home() {
        let mut c = two_nodes();
        c.home_source("Readings", 1).unwrap();
        let q = c
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        assert_eq!(c.node_of_query(q).unwrap(), 1);
        // Explicit hint wins over majority-home.
        let q0 = c
            .register(QuerySpec::sql("select r.value from Readings r").on_node(0))
            .unwrap()
            .expect_query();
        assert_eq!(c.node_of_query(q0).unwrap(), 0);
    }

    #[test]
    fn remote_ingest_crosses_the_wire_and_matches_local() {
        let mut c = two_nodes();
        c.home_source("Readings", 0).unwrap();
        // One subscriber on each node: node 0 reads locally, node 1
        // over the link.
        let q0 = c
            .register(QuerySpec::sql("select r.value from Readings r where r.room = 1").on_node(0))
            .unwrap()
            .expect_query();
        let q1 = c
            .register(QuerySpec::sql("select r.value from Readings r where r.room = 1").on_node(1))
            .unwrap()
            .expect_query();
        c.on_batch(
            "Readings",
            &[t(&[1, 10], 1), t(&[2, 20], 2), t(&[1, 30], 3)],
        )
        .unwrap();
        let s0 = c.snapshot(q0).unwrap();
        let s1 = c.snapshot(q1).unwrap();
        assert_eq!(s0.len(), 2);
        assert_eq!(s0, s1);
        let wire = c.wire_stats();
        assert_eq!(wire.frames, 1);
        assert_eq!(wire.tuples, 3);
        assert!(wire.bytes > 0);
        let (out, inn) = c.exchange_tuples();
        assert_eq!(out, inn);
        assert_eq!(out, 3);
    }

    #[test]
    fn tables_broadcast_so_late_remote_queries_replay() {
        let mut c = two_nodes();
        c.home_source("Rooms", 0).unwrap();
        c.on_batch("Rooms", &[t(&[1, 3], 0), t(&[2, 4], 0)])
            .unwrap();
        // Registered *after* the table batch, on the non-home node:
        // replay must come from node 1's own retained copy.
        let q = c
            .register(QuerySpec::sql("select r.floor from Rooms r").on_node(1))
            .unwrap()
            .expect_query();
        assert_eq!(c.snapshot(q).unwrap().len(), 2);
    }

    /// The cluster refuses a row of the wrong arity before it numbers,
    /// partitions or broadcasts anything: no node's store or log takes
    /// the row, the stream's arrival counter (its home's) stays put, and the late
    /// registrations that replay the table on either node succeed.
    #[test]
    fn a_row_of_the_wrong_arity_is_refused_before_any_node_sees_it() {
        let mut c = two_nodes();
        c.home_source("Readings", 1).unwrap();
        let readings = c.catalog.source("Readings").unwrap().id;
        let on = |node| QuerySpec::sql("select r.value from Readings r").on_node(node);
        let q = c.register(on(0)).unwrap().expect_query();
        c.on_batch("Readings", &[t(&[1, 10], 1)]).unwrap();
        let admitted = |c: &Cluster| (0..2).map(|i| c.node(i).source_tuples_in(readings)).sum();
        let arrived = |c: &Cluster| c.node(1).next_arrival(readings);
        let (before, tuples_in): (u64, u64) = (arrived(&c), admitted(&c));
        let err = c.on_batch("Readings", &[t(&[2, 20], 2), t(&[3], 2)]);
        assert_eq!(err.unwrap_err().kind(), "invalid_argument");
        assert_eq!(arrived(&c), before);
        assert_eq!(admitted(&c), tuples_in);
        let logs = (0..2).flat_map(|i| c.node(i).log_contents(readings));
        assert!(logs.flatten().all(|(_, row)| row.len() == 2));
        assert_eq!(c.snapshot(q).unwrap().len(), 1);

        assert!(c.on_batch("Rooms", &[t(&[1], 0)]).is_err());
        let wide = DeltaBatch::inserts([t(&[1, 2, 3], 0)]);
        assert!(c.on_deltas("Rooms", &wide).is_err());
        for node in [0, 1, 0] {
            let spec = QuerySpec::sql("select o.floor from Rooms o").on_node(node);
            let q = c.register(spec).unwrap().expect_query();
            assert!(c.snapshot(q).unwrap().is_empty());
        }
    }

    #[test]
    fn cross_node_migration_preserves_state_and_push() {
        let mut c = two_nodes();
        c.home_source("Readings", 0).unwrap();
        let q = c
            .register(QuerySpec::sql("select r.value from Readings r").on_node(0))
            .unwrap()
            .expect_query();
        let sub = c.subscribe(q).unwrap();
        c.on_batch("Readings", &[t(&[1, 10], 1), t(&[2, 20], 2)])
            .unwrap();
        let before = c.snapshot(q).unwrap();
        let ops_before = c.total_ops_invoked();

        c.migrate(q, 1).unwrap();
        assert_eq!(c.node_of_query(q).unwrap(), 1);
        assert_eq!(c.migration_count(), 1);
        // No replay: same snapshot, same total work.
        assert_eq!(c.snapshot(q).unwrap(), before);
        assert_eq!(c.total_ops_invoked(), ops_before);
        // The migration handoff crossed the donor→recipient link.
        assert!(c.link_stats(0, 1).frames > 0);

        // The push subscription moved with the sink: post-migration
        // deltas keep flowing to the same handle.
        c.on_batch("Readings", &[t(&[3, 30], 3)]).unwrap();
        let drained: usize = sub.drain().iter().map(DeltaBatch::len).sum();
        assert!(drained >= 3);
        assert_eq!(c.snapshot(q).unwrap().len(), 3);
    }

    #[test]
    fn hash_partitioned_join_matches_single_node() {
        let sql = "select l.value, r.value from Readings l, Extra r \
                   where l.room = r.room";
        // Oracle: one node, everything local.
        let shared = catalog();
        let mut oracle = ShardedEngine::with_config(Arc::clone(&shared), EngineConfig::new());
        let oq = oracle.register_sql(sql).unwrap().expect_query();

        let mut c = Cluster::new(
            Arc::clone(&shared),
            ClusterConfig::new()
                .nodes(4)
                .node_config(EngineConfig::new().shards(1)),
        );
        let q = c
            .register_hash_partitioned(sql, &[("Readings", vec![0]), ("Extra", vec![0])])
            .unwrap();

        for i in 0..40i64 {
            let left = [t(&[i % 5, i], i as u64)];
            let right = [t(&[i % 5, 100 + i], i as u64)];
            c.on_batch("Readings", &left).unwrap();
            c.on_batch("Extra", &right).unwrap();
            oracle.on_batch("Readings", &left).unwrap();
            oracle.on_batch("Extra", &right).unwrap();
        }
        let mut want = oracle.snapshot(oq).unwrap();
        want.sort_by(|a, b| {
            a.values()
                .cmp(b.values())
                .then(a.timestamp().cmp(&b.timestamp()))
        });
        assert_eq!(c.snapshot(q).unwrap(), want);
        assert!(!want.is_empty());
        // The exchange genuinely shipped shares.
        let (out, inn) = c.exchange_tuples();
        assert_eq!(out, inn);
        assert!(out > 0);
        // Members are pinned.
        assert!(c.migrate(q, 1).is_err());
        assert!(c.pause(q).is_err());
        // Exchanged sources reject outside subscribers.
        assert!(c.register_sql("select r.value from Readings r").is_err());
        // Deregistration frees the sources again.
        c.deregister(q).unwrap();
        assert!(c.register_sql("select r.value from Readings r").is_ok());
    }

    /// A paused query is unrouted, so a hash group may split its source;
    /// resuming it then would feed it one node's share, and is refused
    /// until the group leaves.
    #[test]
    fn a_paused_query_is_not_resumed_over_a_split_source() {
        let mut c = two_nodes();
        let q = c
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        c.pause(q).unwrap();
        let sql = "select l.value, r.value from Readings l, Extra r where l.room = r.room";
        let group = c
            .register_hash_partitioned(sql, &[("Readings", vec![0]), ("Extra", vec![0])])
            .unwrap();
        let refused = c.resume(q).unwrap_err();
        assert!(
            matches!(refused, AspenError::InvalidArgument(_)),
            "{refused}"
        );
        c.deregister(group).unwrap();
        c.resume(q).unwrap();
        c.on_batch("Readings", &[t(&[1, 10], 1)]).unwrap();
        assert_eq!(c.snapshot(q).unwrap().len(), 1);
    }

    /// A node that fails to place its member of a hash group (here, on a
    /// deferred task error) leaves no member on the nodes before it: none
    /// would be reachable by a cluster verb, and its subscription would
    /// refuse every retry as splitting a stream mid-way.
    #[test]
    fn a_failed_hash_registration_leaves_no_member_behind() {
        use crate::Scheduling::{Deterministic, Pool};
        let sql = "select l.value, r.value from Readings l, Extra r where l.room = r.room";
        let keys = [("Readings", vec![0]), ("Extra", vec![0])];
        for scheduling in [Pool, Deterministic(11)] {
            let config = EngineConfig::new().shards(1).scheduling(scheduling);
            let mut c = Cluster::new(catalog(), ClusterConfig::new().nodes(2).node_config(config));
            let spec = QuerySpec::sql("select sum(s.value) from Spare s").on_node(1);
            let spare = c.register(spec).unwrap().expect_query();
            // A text value fails node 1's sum in a deferred task, queued
            // behind a slow valid batch so no pool worker runs it before
            // the ingest returns.
            let drag = Some(std::time::Duration::from_millis(2));
            c.nodes[1].set_query_drag(spare, drag).unwrap();
            c.on_batch("Spare", &[t(&[1, 2], 0)]).unwrap();
            let text = vec![Value::Int(1), Value::Text("n/a".into())];
            let bad = Tuple::new(text, SimTime::ZERO);
            let queued = (0..64).any(|_| c.on_batch("Spare", std::slice::from_ref(&bad)).is_ok());
            assert!(queued, "{scheduling:?}: the failure never stayed deferred");

            assert!(c.register_hash_partitioned(sql, &keys).is_err());
            let readings = c.catalog.source("Readings").unwrap().id;
            assert_eq!(c.node(0).query_count(), 0, "{scheduling:?}");
            assert_eq!(c.node(0).subscriber_count(readings), 0, "{scheduling:?}");
            assert_eq!(c.query_count(), 1);

            let q = c.register_hash_partitioned(sql, &keys).unwrap();
            c.on_batch("Readings", &[t(&[1, 10], 1)]).unwrap();
            c.on_batch("Extra", &[t(&[1, 20], 1)]).unwrap();
            assert_eq!(c.snapshot(q).unwrap().len(), 1, "{scheduling:?}");
        }
    }

    const CHAIN: &str = "create recursive view Chain as ( \
                         select r.room, r.floor from Rooms r \
                         union \
                         select c.room, r.floor from Chain c, Rooms r where c.floor = r.room )";

    /// Every node keeps the view, so a query over it moves between nodes
    /// and stays fed on either.
    #[test]
    fn a_query_over_a_view_migrates_between_nodes() {
        let mut c = two_nodes();
        c.home_source("Rooms", 1).unwrap();
        c.register_sql(CHAIN).unwrap();
        let q = c
            .register_sql("select c.room, c.floor from Chain c")
            .unwrap()
            .expect_query();
        c.on_batch("Rooms", &[t(&[1, 2], 0)]).unwrap();
        c.migrate(q, 1).unwrap();
        assert_eq!(c.node_of_query(q).unwrap(), 1);
        assert_eq!(c.migration_count(), 1);
        // Still fed: 1→2 and 2→3 derive 1→3.
        c.on_batch("Rooms", &[t(&[2, 3], 0)]).unwrap();
        assert_eq!(c.snapshot(q).unwrap().len(), 3);
        c.migrate(q, 0).unwrap();
        c.on_batch("Rooms", &[t(&[3, 4], 0)]).unwrap();
        assert_eq!(c.snapshot(q).unwrap().len(), 6);
        assert_eq!(c.node(1).view_snapshot("Chain").unwrap().len(), 6);
    }

    /// A view over a hash-exchanged source, and a hash split of a source a
    /// view reads, are refused: no node holds the whole source.
    #[test]
    fn views_and_hash_splits_exclude_each_other() {
        let mut c = two_nodes();
        let sql = "select l.value, r.value from Readings l, Extra r where l.room = r.room";
        let keys = [("Readings", vec![0]), ("Extra", vec![0])];
        let over_readings = "create recursive view Hops as ( \
                             select r.room, r.value from Readings r \
                             union \
                             select h.room, r.value from Hops h, Readings r where h.value = r.room )";
        let group = c.register_hash_partitioned(sql, &keys).unwrap();
        assert!(c.register_sql(over_readings).is_err());
        c.deregister(group).unwrap();
        c.register_sql(over_readings).unwrap();
        assert!(c.register_hash_partitioned(sql, &keys).is_err());
        assert_eq!(c.query_count(), 0);
    }

    /// A view the build refuses (one base under two windows) leaves its
    /// name free for the corrected view, on every node.
    #[test]
    fn a_refused_view_leaves_its_name_free() {
        let mut c = two_nodes();
        let twice = "create recursive view Chain as ( \
                     select r.room, r.floor from Rooms r [range 10 seconds] \
                     union \
                     select c.room, r.floor from Chain c, Rooms r where c.floor = r.room )";
        let refused = c.register_sql(twice).unwrap_err();
        assert!(matches!(refused, AspenError::NotExecutable(_)), "{refused}");
        c.register_sql(CHAIN).unwrap();
        c.on_batch("Rooms", &[t(&[1, 2], 0), t(&[2, 3], 0)])
            .unwrap();
        for i in 0..2 {
            assert_eq!(c.node(i).view_snapshot("Chain").unwrap().len(), 3);
        }
    }

    /// Signed deltas on a stream a query on node 1 indexes in a join side
    /// are refused before any node admits them: node 0's query over the
    /// same stream holds nothing, as on a single engine.
    #[test]
    fn deltas_one_node_refuses_reach_no_node() {
        let plain = "select r.value from Readings r";
        let join = "select a.value, b.value from Readings a [rows 4], Readings b [rows 4] \
                    where a.room = b.room";
        let deltas = DeltaBatch::inserts([t(&[1, 10], 1)]);
        let mut single = ShardedEngine::new(catalog(), 1);
        let one = single.register_sql(plain).unwrap().expect_query();
        single.register_sql(join).unwrap();
        assert!(single.on_deltas("Readings", &deltas).is_err());
        assert!(single.snapshot(one).unwrap().is_empty());

        let mut c = two_nodes();
        let q = c
            .register(QuerySpec::sql(plain).on_node(0))
            .unwrap()
            .expect_query();
        c.register(QuerySpec::sql(join).on_node(1)).unwrap();
        let refused = c.on_deltas("Readings", &deltas).unwrap_err();
        assert!(
            matches!(refused, AspenError::InvalidArgument(_)),
            "{refused}"
        );
        assert!(c.snapshot(q).unwrap().is_empty());
        assert_eq!(c.wire_stats().frames, 0);
    }

    #[test]
    fn cluster_rebalancer_moves_load_between_nodes() {
        let mut c = Cluster::new(
            catalog(),
            ClusterConfig::new()
                .nodes(2)
                .node_config(EngineConfig::new().shards(1))
                .rebalance(RebalanceConfig {
                    threshold: 1.05,
                    patience: 1,
                    max_moves: 4,
                    interval_boundaries: 1,
                    max_lag: 64,
                    ..Default::default()
                }),
        );
        c.home_source("Readings", 0).unwrap();
        // Both queries land on node 0 (majority home) — all load on
        // one node, nothing on the other.
        let a = c
            .register_sql("select r.value from Readings r")
            .unwrap()
            .expect_query();
        let b = c
            .register_sql("select r.value from Readings r where r.room = 1")
            .unwrap()
            .expect_query();
        for i in 0..30i64 {
            c.on_batch("Readings", &[t(&[1, i], i as u64)]).unwrap();
        }
        assert!(c.migration_count() > 0, "rebalancer never moved a query");
        let nodes = [c.node_of_query(a).unwrap(), c.node_of_query(b).unwrap()];
        assert!(nodes.contains(&0) && nodes.contains(&1));
        // The moved query kept its full history.
        assert_eq!(c.snapshot(a).unwrap().len(), 30);
    }

    #[test]
    fn cluster_front_end_is_the_node_front_end() {
        // The three-registration template check of
        // `shard.rs::plan_cache_serves_repeats_and_templates`, driven
        // through the coordinator: it resolves through the same cache.
        let mut c = two_nodes();
        for sql in [
            "select r.value from Readings r where r.value > 10",
            "select r.value from Readings r where r.value > 10",
            "select r.value from Readings r where r.value > 99",
        ] {
            c.register_sql(sql).unwrap().expect_query();
        }
        let stats = c.plan_cache_stats();
        assert_eq!(
            (stats.misses, stats.exact_hits, stats.template_hits),
            (1, 1, 1)
        );
        assert_eq!(c.query_count(), 3);
        // Nodes were handed bound plans; their own caches saw no SQL.
        assert_eq!(c.node(0).plan_cache_stats().unwrap().misses, 0);

        // A view spec asking for query-only features is refused by that
        // same front end — one message, node or cluster.
        let view = "create recursive view Chain as ( \
                    select r.room, r.floor from Rooms r \
                    union \
                    select c.room, r.floor from Chain c, Rooms r where c.floor = r.room )";
        let refused = |r: Result<Registration>| r.unwrap_err().to_string();
        let on_cluster = refused(c.register(QuerySpec::sql(view).push()));
        let mut node = ShardedEngine::new(catalog(), 1);
        let on_node = refused(node.register(QuerySpec::sql(view).push()));
        assert!(on_cluster.contains("micro-batch knobs"), "{on_cluster}");
        assert_eq!(on_cluster, on_node);
        assert!(c.register(QuerySpec::sql(view)).unwrap().view().is_some());
    }

    #[test]
    fn sessions_retire_their_queries() {
        let mut c = two_nodes();
        let s = c.open_session();
        let q = c
            .register_in(s, QuerySpec::sql("select r.value from Readings r"))
            .unwrap()
            .expect_query();
        assert_eq!(c.query_count(), 1);
        assert_eq!(c.close_session(s).unwrap(), 1);
        assert_eq!(c.query_count(), 0);
        assert!(c.snapshot(q).is_err());
    }

    /// Every node keeps the views, but a stream none of them reads stays
    /// off the links to nodes with no query over it.
    #[test]
    fn a_stream_no_view_reads_is_not_shipped_to_node_0() {
        let mut c = two_nodes();
        c.home_source("Readings", 1).unwrap();
        c.register_sql(
            "create recursive view Chain as ( \
             select r.room, r.floor from Rooms r \
             union \
             select c.room, r.floor from Chain c, Rooms r where c.floor = r.room )",
        )
        .unwrap();
        let q = c
            .register(QuerySpec::sql("select r.value from Readings r").on_node(1))
            .unwrap()
            .expect_query();
        for i in 0..10i64 {
            c.on_batch("Readings", &[t(&[1, i], i as u64)]).unwrap();
        }
        assert_eq!(c.snapshot(q).unwrap().len(), 10);
        assert_eq!(c.link_stats(1, 0).frames, 0);
        let readings = c.catalog.source("Readings").unwrap().id;
        assert_eq!(c.node(0).source_tuples_in(readings), 0);
    }

    /// A view over a stream homed on node 1 is fed on node 0 too, and every
    /// node's copy holds a single engine's rows.
    #[test]
    fn a_view_over_a_remote_stream_matches_one_node() {
        let view = "create recursive view Chain as ( \
                    select r.room, r.value from Readings r \
                    union \
                    select c.room, r.value from Chain c, Readings r where c.value = r.room )";
        let over = "select c.room, c.value from Chain c";
        let mut single = ShardedEngine::new(catalog(), 1);
        single.register_sql(view).unwrap();
        let sq = single.register_sql(over).unwrap().expect_query();
        let mut c = two_nodes();
        c.home_source("Readings", 1).unwrap();
        c.register_sql(view).unwrap();
        let cq = c.register_sql(over).unwrap().expect_query();
        for i in 0..10i64 {
            let batch = [t(&[i % 3, (i + 1) % 3], i as u64)];
            c.on_batch("Readings", &batch).unwrap();
            single.on_batch("Readings", &batch).unwrap();
        }
        assert!(c.link_stats(1, 0).frames > 0);
        let sorted = |mut rows: Vec<Tuple>| {
            rows.sort_by(|a, b| a.values().cmp(b.values()));
            rows
        };
        let want = sorted(single.view_snapshot("Chain").unwrap());
        assert!(!want.is_empty());
        for i in 0..2 {
            assert_eq!(sorted(c.node(i).view_snapshot("Chain").unwrap()), want);
        }
        assert_eq!(
            sorted(c.snapshot(cq).unwrap()),
            sorted(single.snapshot(sq).unwrap())
        );
    }

    /// The cluster report lists queries in registration order through
    /// every verb; a query migrated in keeps its id, so its new node lists
    /// it among the others in that order too.
    #[test]
    fn queries_stay_in_registration_order_under_churn() {
        let mut c = two_nodes();
        c.home_source("Readings", 0).unwrap();
        let s = c.open_session();
        let mut handles = Vec::new();
        for room in 0..6 {
            let sql = format!("select r.value from Readings r where r.room = {room}");
            let spec = QuerySpec::sql(sql).on_node(room % 2);
            let reg = match room {
                2 => c.register_in(s, spec),
                _ => c.register(spec),
            };
            handles.push(reg.unwrap().expect_query());
        }
        c.deregister(handles[1]).unwrap();
        c.close_session(s).unwrap();
        c.pause(handles[3]).unwrap();
        c.resume(handles[3]).unwrap();
        c.migrate(handles[4], 1).unwrap();
        let on_node_1 = c.node(1).telemetry_at(Consistency::Fresh).queries;
        let on_node_1: Vec<QueryId> = on_node_1.iter().map(|q| q.query).collect();
        assert_eq!(on_node_1, [3, 4, 5].map(|i| handles[i].0));
        let last = c
            .register(QuerySpec::sql("select r.value from Readings r").on_node(0))
            .unwrap()
            .expect_query();
        let listed: Vec<QueryId> = c.cluster_report().queries.iter().map(|q| q.query).collect();
        let want = [handles[0], handles[3], handles[4], handles[5], last];
        assert_eq!(listed, want.map(|h| h.0));
    }
}
