//! The single-node system under test, shared by `dashboards`,
//! `bigwindow` and `churn`: a [`StreamEngine`] of `min(2, nproc)` shards
//! with every other knob at its default — on two cores or more that
//! resolves to the worker pool — driven through its public API only.

use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use aspen_catalog::Catalog;
use aspen_sql::{bind, parse, BoundQuery};
use aspen_stream::{
    render_json, Consistency, DeltaBatch, EngineConfig, LatencyHistogram, OpKind, OpProfile,
    QueryHandle, QuerySpec, ResultSubscription, ShardedEngine, StreamEngine,
};
use aspen_types::{SimTime, Tuple};

use crate::json::Json;
use crate::reference::{digest_rows, rows_of, same_bag, History, PushLedger, Row};
use crate::system::{ok, Batch, Checked, Extra, Res, System};
use crate::trace::Tracer;

/// What a standing query must show: the expected multiset given the
/// history and the number of source tuples that passed before the query
/// last attached.
pub type Expect = Box<dyn Fn(&History, usize) -> Vec<Row>>;

pub struct Standing {
    pub sql: String,
    /// Registered with push delivery; the driver drains it.
    pub push: bool,
    pub expect: Expect,
    /// For `order by … limit k` queries: compare only this result
    /// column (ties are the engine's to break).
    pub compare_col: Option<usize>,
    /// The stream this query windows (for the attach mark).
    pub source: Rc<str>,
}

/// The static part of an engine workload.
pub struct EngineSpec {
    pub catalog: Box<dyn Fn() -> Arc<Catalog>>,
    /// Retained tables loaded before the standing queries register.
    pub tables: Vec<(Rc<str>, Rc<[Tuple]>)>,
    pub standing: Vec<Standing>,
    /// Indices of the rotating small-result probes (one template).
    pub probes: Vec<usize>,
    /// Indices of the standing queries the `Cut` reads rotate over
    /// (one template).
    pub readers: Vec<usize>,
    /// A statement for the lifecycle probes of the traced run.
    pub lifecycle_sql: String,
}

/// What users run: never more shards than cores, nothing else set.
pub fn engine_config() -> EngineConfig {
    EngineConfig::new().shards(crate::host::nproc().min(2))
}

struct Push {
    standing: usize,
    sub: ResultSubscription,
    /// Drained inside timed sections, accumulated at phase ends.
    drained: Vec<DeltaBatch>,
    ledger: PushLedger,
}

pub struct EngineSys {
    pub engine: StreamEngine,
    spec: Rc<EngineSpec>,
    handles: Vec<QueryHandle>,
    /// Source tuples that had passed when each standing query attached.
    since: Vec<usize>,
    pushes: Vec<Push>,
    history: History,
    probe_rows: u64,
    probe_count: u64,
}

impl EngineSys {
    pub fn new(spec: Rc<EngineSpec>, tr: &mut Tracer) -> Res<EngineSys> {
        let config = engine_config();
        let mut engine = StreamEngine::with_config((spec.catalog)(), config);
        let mut history = History::default();
        for (name, rows) in &spec.tables {
            ok(tr.timed("on_batch", 0, || engine.on_batch(name, rows)))?;
            history.defer(name, rows);
        }
        let mut handles = Vec::with_capacity(spec.standing.len());
        let mut pushes = Vec::new();
        for (i, s) in spec.standing.iter().enumerate() {
            let mut q = QuerySpec::sql(s.sql.as_str());
            if s.push {
                q = q.push();
            }
            let reg = ok(tr.timed("register", i as u64, || engine.register(q)))?;
            let h = reg.query().ok_or("standing statement is a view")?;
            if s.push {
                pushes.push(Push {
                    standing: i,
                    sub: ok(engine.subscribe(h))?,
                    drained: Vec::new(),
                    ledger: PushLedger::default(),
                });
            }
            handles.push(h);
        }
        Ok(EngineSys {
            engine,
            since: vec![0; spec.standing.len()],
            spec,
            handles,
            pushes,
            history,
            probe_rows: 0,
            probe_count: 0,
        })
    }

    fn register_and_drop(&mut self, sql: &str, tr: &mut Tracer, op: u64) -> Res<()> {
        let reg = ok(tr.timed("register", op, || self.engine.register_sql(sql)))?;
        let q = reg.query().ok_or("statement is a view")?;
        ok(tr.timed("deregister", op, || self.engine.deregister(q)))
    }
}

impl System for EngineSys {
    fn ingest(&mut self, batch: &Batch, tr: &mut Tracer, op: u64) -> Res<u64> {
        let Batch::Tuples { source, tuples } = batch else {
            return Err("an engine workload has no ticks".into());
        };
        ok(tr.timed("admit", op, || self.engine.on_batch(source, tuples)))?;
        let now = tuples.last().map_or(SimTime::ZERO, Tuple::timestamp);
        ok(tr.timed("heartbeat", op, || self.engine.heartbeat(now)))?;
        self.history.defer(source, tuples);
        Ok(tuples.len() as u64)
    }

    fn quiesce(&mut self) -> Res<()> {
        ok(self.engine.quiesce())
    }

    fn probe(&mut self, k: usize, tr: &mut Tracer) -> Res<usize> {
        let q = self.handles[self.spec.probes[k % self.spec.probes.len()]];
        let rows = ok(tr.timed("snapshot_fresh", k as u64, || {
            self.engine.snapshot_at(q, Consistency::Fresh)
        }))?;
        self.probe_rows += rows.len() as u64;
        self.probe_count += 1;
        Ok(rows.len())
    }

    fn register(&mut self, sql: &str) -> Res<QueryHandle> {
        let reg = ok(self.engine.register_sql(sql))?;
        reg.query().ok_or_else(|| "statement is a view".to_string())
    }

    fn deregister(&mut self, q: QueryHandle) -> Res<()> {
        ok(self.engine.deregister(q))
    }

    fn snapshot(&mut self, q: QueryHandle, consistency: Consistency) -> Res<Vec<Tuple>> {
        ok(self.engine.snapshot_at(q, consistency))
    }

    fn reader(&self, k: usize) -> QueryHandle {
        self.handles[self.spec.readers[k % self.spec.readers.len()]]
    }

    fn extra(&mut self, extra: &Extra, tr: &mut Tracer, op: u64) -> Res<()> {
        match extra {
            Extra::PauseResume(i) => {
                let q = self.handles[*i];
                ok(tr.timed("pause", op, || self.engine.pause(q)))?;
                ok(tr.timed("resume", op, || self.engine.resume(q)))?;
                // A resumed query restarts from an empty window.
                self.since[*i] = self.history.admitted(&self.spec.standing[*i].source);
                Ok(())
            }
            Extra::Session(sqls) => {
                let session = tr.timed("open_session", op, || self.engine.open_session());
                for sql in sqls {
                    let spec = QuerySpec::sql(sql.as_str());
                    ok(tr.timed("register", op, || self.engine.register_in(session, spec)))?;
                }
                let closed =
                    ok(tr.timed("close_session", op, || self.engine.close_session(session)))?;
                if closed == sqls.len() {
                    Ok(())
                } else {
                    Err(format!("session closed {closed} of {} queries", sqls.len()))
                }
            }
            Extra::TableAttach(sql) | Extra::Novel(sql) => self.register_and_drop(sql, tr, op),
            Extra::Telemetry => {
                let report = tr.timed("telemetry", op, || self.engine.telemetry());
                std::hint::black_box(report);
                Ok(())
            }
            Extra::SetVisitor { .. } | Extra::CloseCorridor(..) => {
                Err("an engine workload has no building".into())
            }
        }
    }

    fn housekeeping(&mut self, tr: &mut Tracer, op: u64) {
        if self.pushes.is_empty() {
            return;
        }
        let span = tr.open("drain", op);
        for p in &mut self.pushes {
            p.drained.extend(p.sub.drain());
        }
        tr.close(span);
    }

    fn check(&mut self) -> Checked {
        let mut out = Checked::default();
        self.history.settle();
        for (i, s) in self.spec.standing.iter().enumerate() {
            match self.engine.snapshot(self.handles[i]) {
                Ok(snap) => {
                    let mut got = rows_of(&snap);
                    if let Some(c) = s.compare_col {
                        got = got.into_iter().map(|r| vec![r[c].clone()]).collect();
                    }
                    let want = (s.expect)(&self.history, self.since[i]);
                    let (g, w) = (got.len(), want.len());
                    out.expect(same_bag(got, want), || {
                        format!("{} shows {g} rows, reference {w}", s.sql)
                    });
                }
                Err(e) => out.expect(false, || format!("{}: {e}", s.sql)),
            }
        }
        for p in &mut self.pushes {
            p.drained.extend(p.sub.drain());
            p.ledger.absorb(&std::mem::take(&mut p.drained));
            let sql = &self.spec.standing[p.standing].sql;
            match self.engine.snapshot(self.handles[p.standing]) {
                Ok(snap) => out.expect(p.ledger.matches(&snap), || {
                    format!("push accumulation differs from the polled snapshot: {sql}")
                }),
                Err(e) => out.expect(false, || format!("{sql}: {e}")),
            }
        }
        out
    }

    fn digest(&mut self) -> Res<u64> {
        let mut digest = 0u64;
        for &h in &self.handles {
            digest_rows(&mut digest, &ok(self.engine.snapshot(h))?);
        }
        Ok(digest)
    }

    fn nodes(&self) -> Vec<&ShardedEngine> {
        vec![self.engine.sharded()]
    }

    fn ledger(&mut self, tr: &mut Tracer, tuples: u64) -> Vec<(&'static str, f64)> {
        let mut out = engine_ledger(&self.nodes(), tuples, &self.spec.standing[0].source);
        if self.probe_count > 0 {
            out.push((
                "stream.sink.rows_per_snapshot",
                self.probe_rows as f64 / self.probe_count as f64,
            ));
        }
        let reader = self.reader(0);
        out.extend(lifecycle_probes(
            &mut self.engine,
            &self.spec.lifecycle_sql,
            reader,
            tr,
        ));
        out
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("standing_queries", Json::Num(self.handles.len() as f64)),
            ("push_subscribed", Json::Num(self.pushes.len() as f64)),
            ("shards", Json::Num(self.engine.shard_count() as f64)),
        ])
    }
}

pub fn mean_us(n: usize, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..n {
        f();
    }
    t.elapsed().as_secs_f64() * 1e6 / n as f64
}

/// Per-layer counters read from the public statistics of one engine (or
/// of every node of a cluster, summed) — `TelemetryReport`, `OpProfile`,
/// `ExecutorStats`, `PlanCacheStats`, `ResidentState` — plus the cost of
/// reading them.
pub fn engine_ledger(
    nodes: &[&ShardedEngine],
    tuples: u64,
    main_source: &str,
) -> Vec<(&'static str, f64)> {
    let reports: Vec<_> = nodes
        .iter()
        .map(|n| n.telemetry_at(Consistency::Fresh))
        .collect();
    let mut out = Vec::new();
    let busy: Vec<f64> = reports
        .iter()
        .flat_map(|r| r.shards.iter().map(|s| s.busy_seconds))
        .collect();
    let mut latency = LatencyHistogram::new();
    let mut profile = OpProfile::default();
    for r in &reports {
        latency.merge(&r.ingest_latency());
        profile.merge(&r.profile);
    }
    out.push(("stream.shard.busy_s", busy.iter().sum()));
    let fanout: usize = nodes
        .iter()
        .filter_map(|n| {
            n.catalog()
                .source(main_source)
                .ok()
                .map(|m| n.subscriber_count(m.id))
        })
        .sum();
    out.push(("stream.shard.fanout", fanout as f64));
    out.push((
        "stream.pipeline.ops_per_tuple",
        nodes.iter().map(|n| n.total_ops_invoked()).sum::<u64>() as f64 / tuples.max(1) as f64,
    ));
    // Per kind: ns per delta (a listed metric) and busy seconds (for the
    // run's layer table only).
    for (per_delta, busy, kind) in [
        (
            "stream.operators.filter_ns",
            "engine:filter",
            OpKind::Filter,
        ),
        (
            "stream.operators.project_ns",
            "engine:project",
            OpKind::Project,
        ),
        (
            "stream.operators.aggregate_ns",
            "engine:aggregate",
            OpKind::Aggregate,
        ),
        ("stream.operators.join_ns", "engine:join", OpKind::Join),
    ] {
        let m = profile.meter(kind);
        out.push((
            per_delta,
            m.busy.as_secs_f64() * 1e9 / m.deltas.max(1) as f64,
        ));
        out.push((busy, m.busy.as_secs_f64()));
    }
    out.push((
        "stream.operators.busy_s",
        profile.total_busy().as_secs_f64(),
    ));
    let resident: Vec<_> = nodes.iter().map(|n| n.resident_state()).collect();
    let window_tuples: usize = resident.iter().map(|r| r.window_tuples).sum();
    let state_bytes: usize = resident.iter().map(|r| r.state_bytes).sum();
    out.push(("stream.window.live_tuples", window_tuples as f64));
    out.push(("stream.state.resident_bytes", state_bytes as f64));
    out.push((
        "stream.state.spilled_bytes",
        resident.iter().map(|r| r.spilled_bytes).sum::<usize>() as f64,
    ));
    out.push((
        "stream.state.bytes_per_tuple",
        state_bytes as f64 / window_tuples.max(1) as f64,
    ));
    out.push((
        "stream.sink.push_batches",
        reports
            .iter()
            .flat_map(|r| r.queries.iter().map(|q| q.push_batches))
            .sum::<u64>() as f64,
    ));
    let cache =
        nodes
            .iter()
            .filter_map(|n| n.plan_cache_stats())
            .fold((0u64, 0u64), |(hits, all), s| {
                let h = s.exact_hits + s.template_hits;
                (hits + h, all + h + s.misses)
            });
    out.push((
        "optimizer.plan_cache.hit_rate",
        cache.0 as f64 / cache.1.max(1) as f64,
    ));
    out.push(("stream.trace.ingest_apply_p50_us", latency.p50_us() as f64));
    let first = nodes[0];
    out.push((
        "stream.telemetry.cut_us",
        mean_us(20, || {
            std::hint::black_box(first.telemetry_at(Consistency::Cut));
        }),
    ));
    out.push((
        "stream.telemetry.fresh_us",
        mean_us(20, || {
            std::hint::black_box(first.telemetry_at(Consistency::Fresh));
        }),
    ));
    out.push((
        "stream.trace.render_us",
        mean_us(20, || {
            std::hint::black_box(render_json(&reports[0]));
        }),
    ));
    // The executor's own counters: queue wait, admission stalls, tasks,
    // shard balance.
    let mean_busy = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let mut wait = LatencyHistogram::new();
    for r in &reports {
        wait.merge(&r.queue_wait());
    }
    let exec: Vec<_> = nodes.iter().map(|n| n.executor_stats()).collect();
    out.push(("stream.executor.queue_wait_p50_us", wait.p50_us() as f64));
    out.push(("stream.executor.queue_wait_p99_us", wait.p99_us() as f64));
    out.push((
        "stream.executor.admission_stall_s",
        exec.iter().map(|e| e.admission_stall_seconds).sum(),
    ));
    out.push((
        "stream.executor.tasks",
        exec.iter().map(|e| e.tasks_executed).sum::<u64>() as f64,
    ));
    out.push((
        "stream.executor.busy_balance",
        if mean_busy > 0.0 {
            busy.iter().copied().fold(0.0, f64::max) / mean_busy
        } else {
            1.0
        },
    ));
    out
}

/// Lifecycle operations timed on the live system at the end of the
/// traced pass: attach a pre-bound plan, deregister it, pause/resume and
/// migrate a standing query.
pub fn lifecycle_probes(
    engine: &mut StreamEngine,
    sql: &str,
    standing: QueryHandle,
    tr: &mut Tracer,
) -> Vec<(&'static str, f64)> {
    const N: u64 = 24;
    let plan = match parse(sql).and_then(|stmt| bind(&stmt, engine.catalog())) {
        Ok(BoundQuery::Select(b)) => b.plan,
        _ => return Vec::new(),
    };
    let span = tr.open("phase.lifecycle", 0);
    let shards = engine.shard_count();
    for i in 0..N {
        if let Ok(q) = tr.timed("register_plan", i, || engine.register_plan(&plan)) {
            let _ = tr.timed("deregister_plan", i, || engine.deregister(q));
        }
        let paused = tr.open("pause_resume", i);
        let _ = engine.pause(standing);
        let _ = engine.resume(standing);
        tr.close(paused);
        if shards > 1 {
            let to = (i as usize + 1) % shards;
            let _ = tr.timed("migrate", i, || engine.migrate(standing, to));
        }
    }
    tr.close(span);
    vec![
        ("stream.shard.attach_us", tr.mean_us("register_plan")),
        ("stream.shard.deregister_us", tr.mean_us("deregister_plan")),
        ("stream.shard.pause_resume_us", tr.mean_us("pause_resume")),
        ("stream.shard.migrate_us", tr.mean_us("migrate")),
    ]
}
