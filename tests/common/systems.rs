//! The engines under test — `ShardedEngine` and `Cluster` — behind the
//! kit's [`System`] trait.

use std::collections::{BTreeMap, HashMap};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

use smartcis::stream::{
    render_json, Cluster, ClusterConfig, Consistency, EngineConfig, Footprint, QueryHandle,
    QuerySpec, ResultSubscription, Scheduling, ShardedEngine,
};
use smartcis::types::{AspenError, Result, SourceId, Tuple};

use super::{order, sorted, Config, Mode, Op, Sample, Seen, SlotSeen, SlotState};
use super::{System, Workload};

pub enum Engine {
    Node(Box<ShardedEngine>),
    Cluster(Box<Cluster>),
}

/// `$body` with `$e` bound to either engine: the two share their verbs.
macro_rules! each {
    ($engine:expr, $e:ident => $body:expr) => {
        match $engine {
            Engine::Node($e) => $body,
            Engine::Cluster($e) => $body,
        }
    };
}

struct Query {
    handle: QueryHandle,
    sub: Option<ResultSubscription>,
    /// The net multiset of every drained push delta, in [`order`].
    pushed: Vec<(Tuple, i64)>,
}

/// One engine configuration under a row.
pub struct EngineSystem {
    label: String,
    pub engine: Engine,
    /// Shards of the engine, or nodes of the cluster.
    width: usize,
    depth: usize,
    /// Inline scheduling: a `Cut` read never lags.
    inline: bool,
    views: &'static [(&'static str, &'static str)],
    registered: Vec<&'static str>,
    queries: BTreeMap<usize, Query>,
    spill: Option<PathBuf>,
    /// Every tuple admitted per stream: log row `i` holds the `i`-th,
    /// on every node of a cluster too.
    arrivals: HashMap<SourceId, Vec<Tuple>>,
    streams: Vec<&'static str>,
    step: usize,
}

impl EngineSystem {
    pub fn new(config: &Config, w: &Workload, seed: u64) -> EngineSystem {
        static SPILLS: AtomicUsize = AtomicUsize::new(0);
        let scheduling = match config.mode {
            Mode::Seq => Scheduling::Sequential,
            Mode::Pool => Scheduling::Pool,
            Mode::Det => Scheduling::Deterministic(seed),
        };
        let (depth, n) = (config.depth.unwrap_or(32), config.width);
        let shards = if config.cluster { 1 } else { n };
        let mut node = EngineConfig::new()
            .shards(shards)
            .scheduling(scheduling)
            .queue_depth(depth);
        let spill = config.spill.then(|| {
            let k = SPILLS.fetch_add(1, Ordering::Relaxed);
            std::env::temp_dir().join(format!("aspen-kit-{}-{k}", std::process::id()))
        });
        // 64 B: a store spills from its first sealed segment on, however
        // narrow its rows seal.
        if let Some(dir) = &spill {
            node = node.spill(64, dir);
        }
        let engine = if config.cluster {
            let mut c = Cluster::new(
                (w.catalog)(),
                ClusterConfig::new().nodes(n).node_config(node),
            );
            // Streams enter at opposite ends: subscribers elsewhere cross links.
            for (i, (s, _)) in w.streams.iter().enumerate() {
                c.home_source(s, i * (n - 1) % n).unwrap();
            }
            Engine::Cluster(Box::new(c))
        } else {
            Engine::Node(Box::new(ShardedEngine::with_config((w.catalog)(), node)))
        };
        EngineSystem {
            label: config.label(),
            engine,
            width: n,
            depth,
            inline: config.mode == Mode::Seq,
            views: w.views,
            registered: Vec::new(),
            queries: BTreeMap::new(),
            spill,
            arrivals: HashMap::new(),
            streams: w.streams.iter().map(|s| s.0).collect(),
            step: 0,
        }
    }

    fn nodes(&self) -> Vec<&ShardedEngine> {
        match &self.engine {
            Engine::Node(e) => vec![&**e],
            Engine::Cluster(c) => (0..c.node_count()).map(|i| c.node(i)).collect(),
        }
    }

    /// Every shard's log of a stream holds, at row `i`, the tuple that
    /// arrived `i`-th — on every node: a cluster numbers a stream once.
    fn check_row_ids(&self, e: &ShardedEngine) -> std::result::Result<(), String> {
        for name in &self.streams {
            let src = e.catalog().source(name).unwrap().id;
            let arrived = self.arrivals.get(&src).map_or(&[][..], Vec::as_slice);
            for (shard, log) in e.log_contents(src).into_iter().enumerate() {
                if let Some((row, t)) = log
                    .iter()
                    .find(|(row, t)| arrived.get(*row as usize) != Some(t))
                {
                    return Err(format!(
                        "shard {shard}'s {name} log holds {t:?} at row {row}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl Drop for EngineSystem {
    fn drop(&mut self) {
        if let Some(dir) = &self.spill {
            std::fs::remove_dir_all(dir).ok();
        }
    }
}

impl System for EngineSystem {
    fn label(&self) -> String {
        self.label.clone()
    }

    fn apply(&mut self, op: &Op) -> Result<()> {
        self.step += 1;
        let (width, engine) = (self.width, &mut self.engine);
        let h = |slot: &usize| self.queries[slot].handle;
        match op {
            Op::Ingest(source, tuples) => {
                if self.streams.contains(source) {
                    let catalog = match &*engine {
                        Engine::Node(e) => e.catalog(),
                        Engine::Cluster(c) => c.node(0).catalog(),
                    };
                    let src = catalog.source(source)?.id;
                    self.arrivals
                        .entry(src)
                        .or_default()
                        .extend_from_slice(tuples);
                }
                each!(engine, e => e.on_batch(source, tuples))
            }
            Op::Deltas(source, batch) => each!(engine, e => e.on_deltas(source, batch)),
            Op::Heartbeat(now) => each!(engine, e => e.heartbeat(*now)),
            Op::Register(slot, sql, push) => {
                let mut spec = QuerySpec::sql(sql.as_str());
                if *push {
                    spec = spec.push();
                }
                if let Engine::Cluster(_) = engine {
                    // Slots spread over the nodes from the start.
                    spec = spec.on_node(slot % width);
                }
                let handle = each!(&mut *engine, e => e.register(spec))?.expect_query();
                let sub = push
                    .then(|| each!(&mut *engine, e => e.subscribe(handle)))
                    .transpose()?;
                let query = Query {
                    handle,
                    sub,
                    pushed: Vec::new(),
                };
                self.queries.insert(*slot, query);
                Ok(())
            }
            Op::View(sql) => {
                each!(engine, e => e.register_sql(sql))?;
                self.registered
                    .push(self.views.iter().find(|v| v.1 == *sql).unwrap().0);
                Ok(())
            }
            Op::Deregister(slot) => {
                let q = self.queries.remove(slot).unwrap();
                each!(engine, e => e.deregister(q.handle))
            }
            Op::Pause(slot) => each!(engine, e => e.pause(h(slot))),
            Op::Resume(slot) => each!(engine, e => e.resume(h(slot))),
            Op::Migrate(slot, to) => each!(engine, e => e.migrate(h(slot), to % width)),
            Op::Subscribe(slot) => {
                let sub = each!(engine, e => e.subscribe(h(slot)))?;
                self.queries.get_mut(slot).unwrap().sub = Some(sub);
                Ok(())
            }
            Op::Tune(slot, max_batch, max_delay) => {
                each!(engine, e => e.tune_query(h(slot), *max_batch, *max_delay))
            }
            Op::Read(slot, at) => each!(engine, e => e.snapshot_at(h(slot), *at)).map(drop),
        }
    }

    fn observe(
        &mut self,
        slots: &BTreeMap<usize, SlotState>,
    ) -> std::result::Result<Seen, (&'static str, String)> {
        let error = |e: AspenError| ("error", e.to_string());
        let mut sample = Sample::default();
        // What admission left queued, before any read drains it.
        for node in self.nodes() {
            let stats = node.executor_stats();
            sample.high_water = sample
                .high_water
                .max(stats.high_water.iter().copied().max().unwrap_or(0));
            let over = stats
                .pending
                .iter()
                .chain(&stats.high_water)
                .any(|&n| n > self.depth);
            if stats.pending.len() != node.shard_count() || over {
                return Err(("executor", format!("{stats:?} at depth {}", self.depth)));
            }
            let lag = self
                .inline
                .then(|| node.telemetry_at(Consistency::Cut).max_lag());
            if lag.is_some_and(|lag| lag != 0) {
                return Err(("cut", format!("an inline engine lagged {lag:?} boundaries")));
            }
        }
        if self.step.is_multiple_of(3) {
            for node in self.nodes() {
                self.check_row_ids(node).map_err(|d| ("row ids", d))?;
            }
        }
        let mut seen = Seen::default();
        // One slot an event, in turn, reads `Cut` right after its drain.
        let cut_slot = slots.keys().nth(self.step % slots.len().max(1)).copied();
        for (&slot, state) in slots {
            let q = self.queries.get_mut(&slot).unwrap();
            let read = |at| each!(&self.engine, e => e.snapshot_at(q.handle, at)).map_err(error);
            let fresh = read(Consistency::Fresh)?;
            if Some(slot) == cut_slot && read(Consistency::Cut)? != fresh {
                return Err(("cut", format!("slot {slot}: the cut read is not {fresh:?}")));
            }
            let fresh = sorted(fresh);
            if let Some(sub) = &q.sub {
                for d in sub.drain().iter().flatten() {
                    match q.pushed.binary_search_by(|(t, _)| order(t, &d.tuple)) {
                        Ok(at) if q.pushed[at].1 + d.sign == 0 => drop(q.pushed.remove(at)),
                        Ok(at) => q.pushed[at].1 += d.sign,
                        Err(at) => q.pushed.insert(at, (d.tuple.clone(), d.sign)),
                    }
                }
                let copies = q
                    .pushed
                    .iter()
                    .flat_map(|(t, n)| std::iter::repeat_n(t, *n as usize));
                let whole = q.pushed.iter().all(|&(_, n)| n > 0);
                if !(state.held || whole && copies.eq(&fresh)) {
                    return Err((
                        "push",
                        format!("slot {slot}: pushed {:?}, polled {fresh:?}", q.pushed),
                    ));
                }
            }
            seen.slots.insert(
                slot,
                SlotSeen {
                    rows: fresh,
                    load: None,
                },
            );
        }
        let report = match &self.engine {
            Engine::Node(e) => e.telemetry_at(Consistency::Fresh),
            Engine::Cluster(c) => c.cluster_report(),
        };
        for (slot, s) in seen.slots.iter_mut() {
            let q = report.query(self.queries[slot].handle.0);
            let q = q.ok_or(("telemetry", format!("slot {slot} is not reported")))?;
            s.load = Some((
                (q.tuples_in, q.ops_invoked, q.output_deltas),
                q.state_bytes,
                q.shared,
            ));
        }
        seen.profile = Some(
            report
                .profile
                .iter()
                .map(|(_, m)| (m.invocations, m.deltas))
                .collect(),
        );
        // The report and `resident_state` walk the same state apart and
        // must agree on every node: the shards' footprints (a pooled
        // segment once, as the engine's shared bytes) plus the tables.
        for (i, node) in self.nodes().into_iter().enumerate() {
            let (r, rs) = (node.telemetry_at(Consistency::Fresh), node.resident_state());
            let shards: Footprint = r.shards.iter().map(|s| s.footprint).sum();
            let private = shards.resident - shards.pooled;
            let report = (
                private + r.log_shared_bytes as usize + r.tables.resident,
                shards.spilled + r.tables.spilled,
                shards.read_failures + r.tables.read_failures,
                shards.write_failures + r.tables.write_failures,
            );
            let resident = (
                rs.state_bytes,
                rs.spilled_bytes,
                rs.spill_read_failures,
                rs.spill_write_failures,
            );
            if resident != report {
                let detail = format!("node {i}: resident_state {resident:?}, report {report:?}");
                return Err(("census", detail));
            }
        }
        // Every node keeps every view: each copy is node 0's.
        let mut views: Vec<super::View> = Vec::new();
        for (i, node) in self.nodes().into_iter().enumerate() {
            for (k, name) in self.registered.iter().enumerate() {
                let rows = sorted(node.view_snapshot(name).map_err(error)?);
                let stats = format!("{:?}", node.view_stats(name).map_err(error)?);
                match views.get(k) {
                    None => views.push((name.to_string(), rows, stats)),
                    Some(v) if (&v.1, &v.2) == (&rows, &stats) => {}
                    Some(_) => return Err(("views", format!("node {i}'s {name} is not node 0's"))),
                }
            }
        }
        sample.view_rows = views.iter().map(|v| v.1.len()).collect();
        seen.views = Some(views);
        sample.filter_probes = report.shards.iter().map(|s| s.filter_probes).sum();
        let shared = |s: &aspen_stream::ShardLoad| s.join_index_members - s.join_indexes;
        sample.shared_sides = report.shards.iter().map(shared).sum();
        let index_bytes = |s: &aspen_stream::ShardLoad| s.join_index_bytes as usize;
        sample.join_index_bytes = report.shards.iter().map(index_bytes).sum();
        sample.backfilled = report.shards.iter().map(|s| s.backfilled_rows).sum();
        sample.latency_samples = report.ingest_latency().count();
        match &self.engine {
            Engine::Node(e) => {
                seen.now = Some(e.now());
                sample.resident = e.resident_state();
                sample.shard_log_bytes = report.shards.iter().map(|s| s.log_bytes as usize).sum();
            }
            Engine::Cluster(c) => {
                let ((out, inn), wire) = (c.exchange_tuples(), c.wire_stats());
                if out != inn || wire.tuples != out {
                    let detail = format!("out {out}, in {inn}, on the wire {}", wire.tuples);
                    return Err(("exchange", detail));
                }
                sample.wire = (wire.frames, wire.bytes);
                // One id per query: its node reports it under the handle the
                // cluster returned, and no other node reports that id.
                let listed: Vec<Vec<_>> = self
                    .nodes()
                    .iter()
                    .map(|n| n.telemetry_at(Consistency::Fresh).queries)
                    .map(|loads| loads.iter().map(|q| q.query).collect())
                    .collect();
                for slot in slots.keys() {
                    let id = self.queries[slot].handle;
                    let node = c.node_of_query(id).map_err(error)?;
                    let on: Vec<usize> = (0..listed.len())
                        .filter(|&i| listed[i].contains(&id.0))
                        .collect();
                    if on != [node] {
                        let detail =
                            format!("slot {slot} ({id:?}) on node {node}, listed on {on:?}");
                        return Err(("one id", detail));
                    }
                }
            }
        }
        seen.sample = sample;
        Ok(seen)
    }

    /// The telemetry JSON (`Fresh`), resident state, executed tasks and
    /// view statistics of every node, and a cluster's wire frames, tuples
    /// and bytes and exchange counts.
    fn finish(&mut self) -> (u64, String) {
        let mut out = String::new();
        for node in self.nodes() {
            out += &render_json(&node.telemetry_at(Consistency::Fresh));
            let tasks = node.executor_stats().tasks_executed;
            out += &format!("\n{:?}\ntasks {tasks}\n", node.resident_state());
            for name in &self.registered {
                out += &format!("{name} {:?}\n", node.view_stats(name));
            }
        }
        if let Engine::Cluster(c) = &self.engine {
            let wire = c.wire_stats();
            out += &format!(
                "frames {} tuples {} bytes {} {:?}\n",
                wire.frames,
                wire.tuples,
                wire.bytes,
                c.exchange_tuples()
            );
        }
        (each!(&self.engine, e => e.migration_count()), out)
    }
}
