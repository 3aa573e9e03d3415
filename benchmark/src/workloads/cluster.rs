//! `cluster` — a [`Cluster`] of 2 single-shard nodes over the default
//! `LanModel`: 64 queries over 8 sources homed alternately, placed so
//! that half of all deliveries cross a link, one hash-partitioned join,
//! and one forced cross-node migration per T round. Snapshots are
//! checked against a single-node engine fed the same input.
//!
//! Why: exchange egress/ingress, netsim frame encode/decode, double
//! admission and the coordinator's front end do the work — the
//! regression guard for the engine-collapse and failure-model items of
//! the roadmap.

use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_sql::{bind, parse, BoundQuery};
use aspen_stream::{
    Cluster, ClusterConfig, Consistency, EngineConfig, QueryHandle, QuerySpec, Scheduling,
    ShardedEngine,
};
use aspen_types::{DataType, Field, Schema, SimTime, Tuple, Value};
use rand::rngs::StdRng;
use rand::Rng;

use crate::json::Json;
use crate::probes::{self, ProbeInput};
use crate::reference::{digest_rows, rows_of, same_bag, Oracle};
use crate::system::{ok, Batch, Checked, Cycle, Extra, Res, System, Work, Workload};
use crate::trace::Tracer;
use crate::workloads::dashboards::sample_of;
use crate::workloads::engine_sys::engine_ledger;
use crate::workloads::{scaled, CYCLE_CONSTANTS};

const NODES: usize = 2;
const SOURCES: usize = 8;
const QUERIES: usize = 64;
/// Queries the forced migrations of phase T rotate over.
const MIGRANTS: usize = 16;
/// 512 tuples per simulated second over all sources: the default
/// 30-second stream window holds about 1 900 tuples per source.
const STEP_US: u64 = 1_953;
const JOIN_SQL: &str = "select l.sensor, l.value, r.value from jl l [range 5 seconds], \
                        jr r [range 5 seconds] where l.sensor = r.sensor";

// A batch of 32 and its probe take ~0.2 ms on the 2-core reference
// host, but every one crosses threads four times (two nodes' workers,
// the driver's read), and past ~1 500 batches/s the yielding driver and
// the two workers start to queue for the two cores.
const RATE_L: f64 = 1200.0;

/// One shard per node, run by a pool worker of the node's own. Left at
/// its default a one-shard engine runs inline on the caller, which here
/// would put both "machines" on the driver thread; with a worker each
/// they run side by side, as nodes do, and the run has the same three
/// threads as the single-engine workloads.
fn node_config() -> EngineConfig {
    EngineConfig::new().shards(1).scheduling(Scheduling::Pool)
}

fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let schema = Schema::new(vec![
        Field::new("sensor", DataType::Int),
        Field::new("value", DataType::Float),
    ])
    .into_ref();
    let names = (0..SOURCES)
        .map(|i| format!("c{i}"))
        .chain(["jl".into(), "jr".into()]);
    for name in names {
        cat.register_source(
            &name,
            schema.clone(),
            SourceKind::Stream,
            SourceStats::stream(64.0).with_distinct("sensor", 64),
        )
        .expect("fresh catalog");
    }
    cat
}

/// Query `i` scans source `i % 8`; four templates, distinct constants.
fn query_sql(i: usize) -> String {
    let (src, variant) = (i % SOURCES, i / SOURCES);
    match variant % 4 {
        // The small-result probes.
        0 => format!(
            "select r.value from c{src} r where r.sensor = {}",
            variant * 7 % 64
        ),
        // The readers.
        1 => format!(
            "select r.sensor, avg(r.value) from c{src} r where r.value >= {} group by r.sensor",
            variant - 1
        ),
        2 => format!(
            "select count(*) from c{src} r where r.value < {}",
            20 + variant * 8
        ),
        _ => format!(
            "select r.sensor, r.value from c{src} r where r.value > {}",
            80 + variant * 2
        ),
    }
}

/// Source `s` is homed on node `s % 2`; of the eight queries over it,
/// variants alternate nodes, so half of them read it across the link.
fn node_of_query(i: usize) -> usize {
    (i / SOURCES) % NODES
}

fn cycle_sql(k: usize) -> String {
    format!(
        "select r.sensor, r.value from c{} r where r.value > {:.4}",
        k % SOURCES,
        60.0001 + 0.0004 * (k % CYCLE_CONSTANTS) as f64
    )
}

struct Feed {
    rng: StdRng,
    next: u64,
    names: Vec<Rc<str>>,
}

impl Feed {
    fn batch(&mut self, source: usize, n: usize) -> Batch {
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                self.next += 1;
                Tuple::new(
                    vec![
                        Value::Int(self.rng.gen_range(0..64i64)),
                        Value::Float(self.rng.gen_range(0..200i64) as f64 * 0.5),
                    ],
                    SimTime::from_micros(self.next * STEP_US),
                )
            })
            .collect();
        Batch::Tuples {
            source: Rc::clone(&self.names[source]),
            tuples: tuples.into(),
        }
    }

    /// Batches round-robin over the eight sources; every `legs`-th one
    /// feeds a leg of the partitioned join instead, a quarter the size.
    fn mixed(&mut self, count: usize, n: usize, legs: usize) -> Vec<Batch> {
        (0..count)
            .map(|i| {
                if i % legs == legs - 1 {
                    self.batch(SOURCES + (i / legs) % 2, (n / 4).max(4))
                } else {
                    self.batch(i % SOURCES, n)
                }
            })
            .collect()
    }
}

pub struct ClusterLoad {
    work: Work,
    sqls: Rc<Vec<String>>,
    sample: Vec<Tuple>,
}

impl ClusterLoad {
    pub fn new(seed: u64, seconds: u64) -> Self {
        let mut feed = Feed {
            rng: aspen_types::rng::seeded(seed),
            next: 0,
            names: (0..SOURCES)
                .map(|i| Rc::from(format!("c{i}")))
                .chain([Rc::from("jl"), Rc::from("jr")])
                .collect(),
        };
        let warm = feed.mixed(64, 256, 8);
        let rounds: Vec<Vec<Batch>> = (0..scaled(128, 2, seconds))
            .map(|_| feed.mixed(8, 256, 8))
            .collect();
        let open = feed.mixed(scaled(3000, 1200, seconds), 32, 16);
        let cycle_batches = feed.mixed(scaled(2400, 1000, seconds), 8, 16);
        let cycles = (0..cycle_batches.len())
            .map(|k| Cycle {
                sql: cycle_sql(k),
                extras: Vec::new(),
            })
            .collect();
        let sample: Vec<Tuple> = sample_of(&warm).into_iter().take(4096).collect();
        ClusterLoad {
            work: Work {
                setups: 3,
                warm,
                rounds,
                open,
                rate_l: RATE_L,
                cycle_batches,
                cycles,
                ride_along: None,
            },
            sqls: Rc::new((0..QUERIES).map(query_sql).collect()),
            sample,
        }
    }
}

pub struct ClusterSys {
    cluster: Cluster,
    sqls: Rc<Vec<String>>,
    handles: Vec<QueryHandle>,
    join: QueryHandle,
    /// Indices of the point-filter queries: the small-result probes.
    small: Vec<usize>,
    /// Indices of the per-sensor averages, the queries the `Cut` reads
    /// poll: all 64 groups are always present, so a read costs the same
    /// whatever the seed.
    readers: Vec<usize>,
    /// The single-node reference, built at the first check so that it
    /// costs no set-up time.
    oracle: Option<Oracle>,
    /// Admitted but not yet replayed into the oracle.
    pending: Vec<Batch>,
    registered: usize,
    probe_rows: u64,
    probe_count: u64,
}

impl ClusterSys {
    fn new(sqls: Rc<Vec<String>>, tr: &mut Tracer) -> Res<ClusterSys> {
        let config = ClusterConfig::new().nodes(NODES).node_config(node_config());
        let mut cluster = Cluster::new(catalog(), config);
        for s in 0..SOURCES {
            ok(cluster.home_source(&format!("c{s}"), s % NODES))?;
        }
        ok(cluster.home_source("jl", 0))?;
        ok(cluster.home_source("jr", 1))?;
        let mut handles = Vec::with_capacity(sqls.len());
        for (i, sql) in sqls.iter().enumerate() {
            let spec = QuerySpec::sql(sql.as_str()).on_node(node_of_query(i));
            let reg = ok(tr.timed("register", i as u64, || cluster.register(spec)))?;
            handles.push(reg.query().ok_or("standing statement is a view")?);
        }
        let join = ok(tr.timed("register", QUERIES as u64, || {
            cluster.register_hash_partitioned(JOIN_SQL, &[("jl", vec![0]), ("jr", vec![0])])
        }))?;
        Ok(ClusterSys {
            cluster,
            small: (0..sqls.len())
                .filter(|i| (i / SOURCES).is_multiple_of(4))
                .collect(),
            readers: (0..sqls.len()).filter(|i| (i / SOURCES) % 4 == 1).collect(),
            sqls,
            handles,
            join,
            oracle: None,
            pending: Vec::new(),
            registered: 0,
            probe_rows: 0,
            probe_count: 0,
        })
    }
}

impl System for ClusterSys {
    fn ingest(&mut self, batch: &Batch, tr: &mut Tracer, op: u64) -> Res<u64> {
        let Batch::Tuples { source, tuples } = batch else {
            return Err("the cluster workload has no ticks".into());
        };
        ok(tr.timed("admit", op, || self.cluster.on_batch(source, tuples)))?;
        let now = tuples.last().map_or(SimTime::ZERO, Tuple::timestamp);
        ok(tr.timed("heartbeat", op, || self.cluster.heartbeat(now)))?;
        self.pending.push(batch.clone());
        Ok(tuples.len() as u64)
    }

    /// The cluster has no barrier of its own; a `Fresh` read of one
    /// query on each node drains that node's only shard. (Migrations
    /// move queries, so where each one lives is asked, not assumed.)
    fn quiesce(&mut self) -> Res<()> {
        let mut drained = [false; NODES];
        for &q in &self.handles {
            let node = ok(self.cluster.node_of_query(q))?;
            if !drained[node] {
                ok(self.cluster.snapshot_at(q, Consistency::Fresh))?;
                drained[node] = true;
                if drained == [true; NODES] {
                    break;
                }
            }
        }
        Ok(())
    }

    fn probe(&mut self, k: usize, tr: &mut Tracer) -> Res<usize> {
        let q = self.handles[self.small[k % self.small.len()]];
        let rows = ok(tr.timed("snapshot_fresh", k as u64, || {
            self.cluster.snapshot_at(q, Consistency::Fresh)
        }))?;
        self.probe_rows += rows.len() as u64;
        self.probe_count += 1;
        Ok(rows.len())
    }

    /// Cycle queries alternate nodes, so every other one reads its
    /// source across the link.
    fn register(&mut self, sql: &str) -> Res<QueryHandle> {
        let spec = QuerySpec::sql(sql).on_node(self.registered % NODES);
        self.registered += 1;
        ok(self.cluster.register(spec))?
            .query()
            .ok_or_else(|| "statement is a view".to_string())
    }

    fn deregister(&mut self, q: QueryHandle) -> Res<()> {
        ok(self.cluster.deregister(q))
    }

    fn snapshot(&mut self, q: QueryHandle, consistency: Consistency) -> Res<Vec<Tuple>> {
        ok(self.cluster.snapshot_at(q, consistency))
    }

    fn reader(&self, k: usize) -> QueryHandle {
        self.handles[self.readers[k % self.readers.len()]]
    }

    fn extra(&mut self, _extra: &Extra, _tr: &mut Tracer, _op: u64) -> Res<()> {
        Err("the cluster workload schedules no extras".into())
    }

    /// One forced cross-node migration per round: the next query in
    /// rotation moves to the other node.
    fn end_round(&mut self, round: usize, tr: &mut Tracer) -> Res<()> {
        // A migrated query leaves its shared chain for a private window;
        // the same few queries go back and forth, so the rest keep
        // sharing and a late registration still attaches to a live chain.
        let q = self.handles[round % MIGRANTS];
        let to = (ok(self.cluster.node_of_query(q))? + 1) % NODES;
        ok(tr.timed("migrate", round as u64, || self.cluster.migrate(q, to)))
    }

    fn check(&mut self) -> Checked {
        let mut out = Checked::default();
        if self.oracle.is_none() {
            let mut sqls: Vec<String> = self.sqls.to_vec();
            sqls.push(JOIN_SQL.into());
            match Oracle::new(catalog(), &sqls) {
                Ok(o) => self.oracle = Some(o),
                Err(e) => {
                    out.expect(false, || format!("oracle: {e}"));
                    return out;
                }
            }
        }
        let oracle = self.oracle.as_mut().expect("just built");
        for batch in std::mem::take(&mut self.pending) {
            if let Batch::Tuples { source, tuples } = &batch {
                let now = tuples.last().map_or(SimTime::ZERO, Tuple::timestamp);
                let fed = oracle
                    .engine
                    .on_batch(source, tuples)
                    .and_then(|()| oracle.engine.heartbeat(now));
                out.expect(fed.is_ok(), || format!("oracle ingest of {source} failed"));
            }
        }
        let all = self.handles.iter().copied().chain([self.join]);
        for (i, (q, &o)) in all.zip(&oracle.handles).enumerate() {
            let got = self.cluster.snapshot(q);
            let want = oracle.engine.snapshot(o);
            match (got, want) {
                (Ok(g), Ok(w)) => {
                    let (gl, wl) = (g.len(), w.len());
                    out.expect(same_bag(rows_of(&g), rows_of(&w)), || {
                        let sql = self.sqls.get(i).map_or(JOIN_SQL, String::as_str);
                        format!("{sql}: cluster shows {gl} rows, single node {wl}")
                    });
                }
                _ => out.expect(false, || format!("query {i}: snapshot failed")),
            }
        }
        let (sent, received) = self.cluster.exchange_tuples();
        out.expect(sent == received, || {
            format!("{sent} tuples serialized onto links, {received} decoded")
        });
        out
    }

    fn digest(&mut self) -> Res<u64> {
        let mut digest = 0u64;
        for q in self.handles.iter().copied().chain([self.join]) {
            digest_rows(&mut digest, &ok(self.cluster.snapshot(q))?);
        }
        Ok(digest)
    }

    fn nodes(&self) -> Vec<&ShardedEngine> {
        (0..NODES).map(|n| self.cluster.node(n)).collect()
    }

    fn ledger(&mut self, tr: &mut Tracer, tuples: u64) -> Vec<(&'static str, f64)> {
        let mut out = engine_ledger(&self.nodes(), tuples, "c0");
        let wire = self.cluster.wire_stats();
        out.push(("stream.cluster.wire_frames", wire.frames as f64));
        out.push((
            "stream.cluster.wire_bytes_per_tuple",
            wire.bytes as f64 / wire.tuples.max(1) as f64,
        ));
        out.push((
            "stream.cluster.exchange_tuples",
            self.cluster.exchange_tuples().0 as f64,
        ));
        out.push(("stream.cluster.migrate_us", tr.mean_us("migrate")));
        if self.probe_count > 0 {
            out.push((
                "stream.sink.rows_per_snapshot",
                self.probe_rows as f64 / self.probe_count as f64,
            ));
        }
        // Lifecycle on the live cluster: attach a pre-bound plan on
        // alternating nodes, drop it, pause and resume a standing query.
        if let Ok(BoundQuery::Select(b)) =
            parse(&cycle_sql(CYCLE_CONSTANTS - 1)).and_then(|s| bind(&s, &catalog()))
        {
            let span = tr.open("phase.lifecycle", 0);
            let standing = self.handles[0];
            for i in 0..24u64 {
                let spec = QuerySpec::plan(b.plan.clone()).on_node(i as usize % NODES);
                let reg = tr.timed("register_plan", i, || self.cluster.register(spec));
                if let Ok(Some(q)) = reg.map(|r| r.query()) {
                    let _ = tr.timed("deregister_plan", i, || self.cluster.deregister(q));
                }
                let paused = tr.open("pause_resume", i);
                let _ = self.cluster.pause(standing);
                let _ = self.cluster.resume(standing);
                tr.close(paused);
            }
            tr.close(span);
            out.push(("stream.shard.attach_us", tr.mean_us("register_plan")));
            out.push(("stream.shard.deregister_us", tr.mean_us("deregister_plan")));
            out.push(("stream.shard.pause_resume_us", tr.mean_us("pause_resume")));
            // Nodes are single-shard: the only migration is across nodes.
            out.push(("stream.shard.migrate_us", tr.mean_us("migrate")));
        }
        out
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("nodes", Json::Num(NODES as f64)),
            (
                "standing_queries",
                Json::Num((self.handles.len() + 1) as f64),
            ),
            ("sources", Json::Num((SOURCES + 2) as f64)),
            (
                "migrations",
                Json::Num(self.cluster.migration_count() as f64),
            ),
        ])
    }
}

impl Workload for ClusterLoad {
    type Sys = ClusterSys;

    fn work(&self) -> &Work {
        &self.work
    }

    fn setup(&self, tr: &mut Tracer) -> Res<ClusterSys> {
        ClusterSys::new(Rc::clone(&self.sqls), tr)
    }

    fn probes(&self, out_dir: &Path) -> probes::Metrics {
        let filters: Vec<String> = (0..16)
            .map(|i| {
                format!(
                    "select r.sensor, r.value from c0 r where r.value > {}",
                    80 + i
                )
            })
            .collect();
        probes::run(
            &ProbeInput {
                catalog: &catalog,
                source: "c0",
                tuples: &self.sample,
                sqls: &self.sqls,
                filters: &filters,
                window: aspen_types::WindowSpec::Range(aspen_types::SimDuration::from_secs(30)),
                app: (2, 4),
            },
            out_dir,
        )
    }
}
