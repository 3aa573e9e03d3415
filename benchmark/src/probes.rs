//! Direct probes of each layer's public functions, run in the traced
//! run only. Each probe times a layer in isolation on the workload's own
//! data — its SQL, a sample of its stream, its window — so a change to
//! that layer moves its probe whether or not the end-to-end run can
//! resolve it. Layers a workload does not touch are probed on a small
//! canonical input, so every metric is measured in every workload.
//!
//! Probes are single-threaded and run after the passes; none of their
//! time enters an end-to-end metric.

use std::cell::RefCell;
use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Instant;

use aspen_catalog::Catalog;
use aspen_netsim::frames::{decode_frame, encode_frame};
use aspen_optimizer::{optimize_named, PlanCache};
use aspen_sql::{bind, canonicalize_select, parse, BoundQuery, Statement};
use aspen_stream::cluster::exchange::egress_batch;
use aspen_stream::pipeline::Pipeline;
use aspen_stream::recursive::RecursiveView;
use aspen_stream::state::{BagState, KeyedState, StateOptions};
use aspen_stream::window::WindowOp;
use aspen_stream::{
    Cluster, ClusterConfig, DeltaBatch, EngineConfig, QueryHandle, QuerySpec, SpillConfig,
    StreamEngine,
};
use aspen_types::{SimDuration, SimTime, Tuple, Value, WindowSpec};
use aspen_wrappers::{MachineFleet, MachineStateWrapper, PduWrapper, WebSourceWrapper, Wrapper};
use columnar::{Cell, TupleStore};
use smartcis_app::queries::VISITOR_GUIDANCE;
use smartcis_app::routes::REACHABLE_VIEW_SQL;
use smartcis_app::SmartCis;

use crate::workloads::engine_sys::engine_config;

pub type Metrics = Vec<(&'static str, f64)>;

/// The workload's own data, as the probes see it.
pub struct ProbeInput<'a> {
    pub catalog: &'a dyn Fn() -> Arc<Catalog>,
    /// The main stream and a sample of it (a few thousand tuples).
    pub source: &'a str,
    pub tuples: &'a [Tuple],
    /// The workload's statements: variants of its templates.
    pub sqls: &'a [String],
    /// Single-stream filter statements over `source`, for the probes
    /// that need many cheap queries (push flush, cluster shipping).
    pub filters: &'a [String],
    /// The window most of its queries use.
    pub window: WindowSpec,
    /// Size of the application the app probe builds (labs, desks per lab).
    pub app: (usize, usize),
}

fn secs(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

fn sql_front_end(input: &ProbeInput, out: &mut Metrics) {
    const REPS: usize = 20;
    let catalog = (input.catalog)();
    let n = (input.sqls.len() * REPS) as f64;
    let parse_s = secs(|| {
        for _ in 0..REPS {
            for sql in input.sqls {
                std::hint::black_box(parse(sql).expect("workload SQL parses"));
            }
        }
    });
    let stmts: Vec<Statement> = input
        .sqls
        .iter()
        .map(|s| parse(s).expect("parses"))
        .collect();
    let canon_s = secs(|| {
        for _ in 0..REPS {
            for stmt in &stmts {
                if let Statement::Select(s) = stmt {
                    std::hint::black_box(canonicalize_select(s));
                }
            }
        }
    });
    let bind_s = secs(|| {
        for _ in 0..REPS {
            for stmt in &stmts {
                std::hint::black_box(bind(stmt, &catalog).expect("workload SQL binds"));
            }
        }
    });
    out.push(("sql.parse_us", parse_s * 1e6 / n));
    out.push(("sql.canon_us", canon_s * 1e6 / n));
    out.push(("sql.bind_us", bind_s * 1e6 / n));

    // Plan cache, one fresh cache per repetition: each statement resolves
    // as a miss or a template hit first, then as an exact hit.
    let mut tiers = [(0.0f64, 0u64); 3];
    for _ in 0..REPS {
        let mut cache = PlanCache::new(PlanCache::DEFAULT_CAPACITY);
        for _round in 0..2 {
            for sql in input.sqls {
                let before = cache.stats();
                let t = Instant::now();
                std::hint::black_box(cache.resolve(sql, &catalog).expect("resolves").is_select());
                let dt = t.elapsed().as_secs_f64();
                let after = cache.stats();
                let tier = if after.exact_hits > before.exact_hits {
                    0
                } else if after.template_hits > before.template_hits {
                    1
                } else {
                    2
                };
                tiers[tier].0 += dt;
                tiers[tier].1 += 1;
            }
        }
    }
    let per = |(s, n): (f64, u64)| s * 1e6 / n.max(1) as f64;
    out.push(("optimizer.plan_cache.exact_us", per(tiers[0])));
    out.push(("optimizer.plan_cache.template_us", per(tiers[1])));
    out.push(("optimizer.plan_cache.miss_us", per(tiers[2])));
}

trait IsSelect {
    fn is_select(&self) -> bool;
}

impl IsSelect for aspen_optimizer::CachedQuery {
    fn is_select(&self) -> bool {
        matches!(self, aspen_optimizer::CachedQuery::Select(_))
    }
}

/// Compile each distinct template and push the stream sample through
/// it: the per-tuple cost of window + operators + sink without routing,
/// queues or threads.
fn pipeline_push(input: &ProbeInput, out: &mut Metrics) {
    let catalog = (input.catalog)();
    let Ok(meta) = catalog.source(input.source) else {
        return;
    };
    let mut seen = std::collections::BTreeSet::new();
    let (mut total_s, mut pushed) = (0.0, 0u64);
    for sql in input.sqls {
        let Ok(Statement::Select(stmt)) = parse(sql) else {
            continue;
        };
        if !seen.insert(canonicalize_select(&stmt).key) {
            continue;
        }
        let Ok(BoundQuery::Select(b)) = bind(&Statement::Select(stmt), &catalog) else {
            continue;
        };
        total_s += secs(|| {
            let mut p = Pipeline::compile(&b.plan).expect("template compiles");
            let mut sink = p.make_sink();
            p.start(&mut sink).expect("starts");
            for chunk in input.tuples.chunks(256) {
                p.push_source(meta.id, chunk, &mut sink).expect("pushes");
            }
            std::hint::black_box(sink.len());
        });
        pushed += input.tuples.len() as u64;
    }
    out.push((
        "stream.pipeline.push_ns_per_tuple",
        total_s * 1e9 / pushed.max(1) as f64,
    ));
}

fn window_and_state(input: &ProbeInput, out: &mut Metrics) {
    let opts = StateOptions::columnar();
    let n = input.tuples.len() as f64;

    let mut w = WindowOp::with_options(input.window, &opts);
    let mut deltas = DeltaBatch::new();
    let insert_s = secs(|| {
        for chunk in input.tuples.chunks(256) {
            deltas.clear();
            w.insert_batch(chunk, &mut deltas);
        }
    });
    out.push(("stream.window.insert_ns_per_tuple", insert_s * 1e9 / n));

    // Expiry: fill a time window, then advance the clock past all of it.
    let span = SimDuration::from_secs(1 << 30);
    let mut w = WindowOp::with_options(WindowSpec::Range(span), &opts);
    for chunk in input.tuples.chunks(256) {
        deltas.clear();
        w.insert_batch(chunk, &mut deltas);
    }
    let end = input.tuples.last().map_or(SimTime::ZERO, Tuple::timestamp) + span + span;
    deltas.clear();
    let expire_s = secs(|| w.advance(end, &mut deltas));
    assert_eq!(w.live(), 0, "the window expired fully");
    out.push(("stream.window.expire_ns_per_tuple", expire_s * 1e9 / n));

    let mut keyed = KeyedState::with_options(&opts);
    let keyed_s = secs(|| {
        for sign in [1, -1] {
            for t in input.tuples {
                keyed.update(vec![t.get(0).clone()], t, sign);
            }
        }
    });
    out.push(("stream.state.keyed_update_ns", keyed_s * 1e9 / (2.0 * n)));

    let mut bag = BagState::with_options(&opts);
    let batches: Vec<DeltaBatch> = input
        .tuples
        .chunks(256)
        .map(|c| DeltaBatch::inserts(c.iter().cloned()))
        .collect();
    let bag_s = secs(|| {
        for b in &batches {
            bag.apply(b);
        }
        for b in &batches {
            bag.apply(&b.negated());
        }
    });
    out.push(("stream.state.bag_apply_ns", bag_s * 1e9 / (2.0 * n)));
}

fn cell_of(v: &Value) -> Cell {
    match v {
        Value::Null | Value::Param(..) => Cell::Null,
        Value::Bool(b) => Cell::Bool(*b),
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Float(*f),
        Value::Text(s) => Cell::Text(s.clone()),
        Value::Timestamp(t) => Cell::Ts(*t),
    }
}

/// `TupleStore` directly: append, point read, scan, sealed footprint,
/// and the cost of faulting spilled rows back in.
fn columnar_store(input: &ProbeInput, out_dir: &Path, out: &mut Metrics) {
    let rows: Vec<(Vec<Cell>, u64)> = input
        .tuples
        .iter()
        .map(|t| {
            (
                t.values().iter().map(cell_of).collect(),
                t.timestamp().as_micros(),
            )
        })
        .collect();
    let width = rows.first().map_or(0, |r| r.0.len());
    let n = rows.len() as f64;

    // The engine's own granularity: 32-row segments.
    let mut store = TupleStore::new(width).segment_rows(32);
    let push_s = secs(|| {
        for (cells, ts) in &rows {
            store.push(cells, *ts);
        }
    });
    let get_s = secs(|| {
        for row in 0..store.len() {
            std::hint::black_box(store.get(row));
        }
    });
    let mut scanned = 0u64;
    let scan_s = secs(|| store.for_each_live(|_, cells, _, _| scanned += cells.len() as u64));
    std::hint::black_box(scanned);
    out.push(("columnar.push_ns_per_row", push_s * 1e9 / n));
    out.push(("columnar.get_ns_per_row", get_s * 1e9 / n));
    out.push(("columnar.scan_ns_per_row", scan_s * 1e9 / n));
    out.push((
        "columnar.sealed_bytes_per_row",
        store.resident_bytes() as f64 / n,
    ));

    let dir = out_dir.join("spill");
    let mut spilled = TupleStore::new(width)
        .segment_rows(32)
        .with_spill(Some(SpillConfig::new(4096, &dir)));
    for (cells, ts) in &rows {
        spilled.push(cells, *ts);
    }
    // The oldest quarter is certainly on disk; read it back row by row.
    let cold = (spilled.len() / 4).max(1);
    let fault_s = secs(|| {
        for row in 0..cold {
            std::hint::black_box(spilled.get(row));
        }
    });
    out.push((
        "columnar.spill_fault_us_per_row",
        if spilled.spilled_bytes() > 0 {
            fault_s * 1e6 / cold as f64
        } else {
            0.0
        },
    ));
}

/// Sink apply and snapshot directly; push flush as the difference
/// between the same ingest with and without push subscriptions.
fn sink(input: &ProbeInput, out: &mut Metrics) {
    let catalog = (input.catalog)();
    let sql = &input.filters[0];
    if let Ok(BoundQuery::Select(b)) = parse(sql).and_then(|s| bind(&s, &catalog)) {
        let p = Pipeline::compile(&b.plan).expect("filter compiles");
        let mut sink = p.make_sink();
        let width = sink.schema().len();
        let cols: Vec<usize> = (0..width).collect();
        let batches: Vec<DeltaBatch> = input
            .tuples
            .chunks(256)
            .map(|c| DeltaBatch::inserts(c.iter().map(|t| t.project(&cols))))
            .collect();
        let apply_s = secs(|| {
            for b in &batches {
                sink.apply(b);
            }
        });
        out.push((
            "stream.sink.apply_ns_per_delta",
            apply_s * 1e9 / input.tuples.len() as f64,
        ));
        // Snapshot a result of dashboard size, not the whole sample.
        let mut small = p.make_sink();
        small.apply(&DeltaBatch::inserts(
            input.tuples.iter().take(64).map(|t| t.project(&cols)),
        ));
        const SNAPS: usize = 200;
        let snap_s = secs(|| {
            for _ in 0..SNAPS {
                std::hint::black_box(small.snapshot().expect("snapshots"));
            }
        });
        out.push(("stream.sink.snapshot_us", snap_s * 1e6 / SNAPS as f64));
    }

    let run = |push: bool| -> f64 {
        let mut engine = StreamEngine::with_config((input.catalog)(), EngineConfig::new());
        let mut subs = Vec::new();
        for sql in input.filters {
            let spec = QuerySpec::sql(sql.as_str());
            let spec = if push { spec.push() } else { spec };
            let q = engine.register(spec).expect("registers").expect_query();
            if push {
                subs.push(engine.subscribe(q).expect("subscribes"));
            }
        }
        secs(|| {
            for chunk in input.tuples.chunks(32) {
                engine.on_batch(input.source, chunk).expect("ingests");
                for s in &subs {
                    std::hint::black_box(s.drain());
                }
            }
        })
    };
    // Best of three interleaved pairs: the difference of two small
    // numbers needs the quietest run of each.
    let (mut polled, mut pushed) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        polled = polled.min(run(false));
        pushed = pushed.min(run(true));
    }
    let flushes = (input.tuples.len().div_ceil(32) * input.filters.len()) as f64;
    out.push((
        "stream.sink.push_flush_us",
        (pushed - polled) * 1e6 / flushes,
    ));
}

/// A two-node cluster over the workload's catalog: the same ingest with
/// every query local to the source's home, then with every query on the
/// other node; plus frame encode/decode on the same batches.
fn cluster_and_wire(input: &ProbeInput, out: &mut Metrics) {
    let run = |remote: bool| -> (f64, Cluster, QueryHandle) {
        let config = ClusterConfig::new()
            .nodes(2)
            .node_config(EngineConfig::new().shards(1));
        let mut cluster = Cluster::new((input.catalog)(), config);
        cluster.home_source(input.source, 0).expect("homes");
        let mut first = None;
        for sql in input.filters {
            let spec = QuerySpec::sql(sql.as_str()).on_node(usize::from(remote));
            let q = cluster.register(spec).expect("registers").expect_query();
            first.get_or_insert(q);
        }
        let s = secs(|| {
            for chunk in input.tuples.chunks(32) {
                cluster.on_batch(input.source, chunk).expect("ingests");
            }
        });
        (s, cluster, first.expect("the probe has filters"))
    };
    let (mut local, mut shipped) = (f64::INFINITY, f64::INFINITY);
    let mut last = None;
    for _ in 0..3 {
        local = local.min(run(false).0);
        let (s, cluster, q) = run(true);
        shipped = shipped.min(s);
        last = Some((cluster, q));
    }
    let (mut cluster, q) = last.expect("ran");
    let batches = input.tuples.len().div_ceil(32) as f64;
    let wire = cluster.wire_stats();
    out.push(("stream.cluster.ship_us", (shipped - local) * 1e6 / batches));
    out.push(("stream.cluster.wire_frames", wire.frames as f64));
    out.push((
        "stream.cluster.wire_bytes_per_tuple",
        wire.bytes as f64 / wire.tuples.max(1) as f64,
    ));
    out.push((
        "stream.cluster.exchange_tuples",
        cluster.exchange_tuples().0 as f64,
    ));
    const MOVES: usize = 20;
    let migrate_s = secs(|| {
        for i in 0..MOVES {
            cluster.migrate(q, i % 2).expect("migrates");
        }
    });
    out.push(("stream.cluster.migrate_us", migrate_s * 1e6 / MOVES as f64));

    let catalog = (input.catalog)();
    let src = catalog.source(input.source).expect("source").id;
    let frames: Vec<_> = input
        .tuples
        .chunks(32)
        .map(|c| egress_batch(src, c))
        .collect();
    const REPS: usize = 5;
    let mut wires = Vec::new();
    let encode_s = secs(|| {
        for _ in 0..REPS {
            wires.clear();
            wires.extend(frames.iter().map(encode_frame));
        }
    });
    let decode_s = secs(|| {
        for _ in 0..REPS {
            for w in &wires {
                std::hint::black_box(decode_frame(w.clone()).expect("decodes"));
            }
        }
    });
    let n = (input.tuples.len() * REPS) as f64;
    out.push(("netsim.frames.encode_ns_per_tuple", encode_s * 1e9 / n));
    out.push(("netsim.frames.decode_ns_per_tuple", decode_s * 1e9 / n));
}

/// Wrappers, the federated optimizer, the recursive view and the
/// application facade, on an application of the workload's size.
fn application(input: &ProbeInput, out: &mut Metrics) {
    let (labs, desks) = input.app;

    // Wrappers polled directly over a fleet of the same size.
    let catalog = Catalog::shared();
    let rooms: Vec<String> = (1..=labs).map(|l| format!("lab{l}")).collect();
    let room_refs: Vec<&str> = rooms.iter().map(String::as_str).collect();
    let fleet = Rc::new(RefCell::new(MachineFleet::new(labs * desks, &room_refs, 7)));
    let epoch = SimDuration::from_secs(10);
    let mut wrappers: Vec<Box<dyn Wrapper>> = vec![
        Box::new(PduWrapper::register(&catalog, Rc::clone(&fleet), epoch).expect("pdu")),
        Box::new(MachineStateWrapper::register(&catalog, Rc::clone(&fleet), epoch).expect("state")),
        Box::new(WebSourceWrapper::register(&catalog, SimDuration::from_secs(60), 8).expect("web")),
    ];
    const POLLS: u64 = 50;
    let poll_s = secs(|| {
        for i in 1..=POLLS {
            for w in &mut wrappers {
                std::hint::black_box(w.poll(SimTime::from_secs(10 * i)).expect("polls"));
            }
        }
    });
    out.push(("wrappers.poll_us", poll_s * 1e6 / POLLS as f64));

    let mut app = SmartCis::with_config(labs, desks, 11, engine_config()).expect("app builds");

    let BoundQuery::Select(guidance) =
        bind(&parse(VISITOR_GUIDANCE).expect("parses"), &app.catalog).expect("binds")
    else {
        unreachable!("guidance is a SELECT")
    };
    const PLANS: usize = 20;
    let optimize_s = secs(|| {
        for _ in 0..PLANS {
            std::hint::black_box(
                optimize_named(&guidance.graph, &app.catalog, "OpenMachineInfo").expect("plans"),
            );
        }
    });
    out.push((
        "optimizer.federated.optimize_us",
        optimize_s * 1e6 / PLANS as f64,
    ));

    // The Reachable view maintained directly over the building's graph.
    let BoundQuery::View(bound) =
        bind(&parse(REACHABLE_VIEW_SQL).expect("parses"), &app.catalog).expect("binds")
    else {
        unreachable!("Reachable is a view")
    };
    let points = app.catalog.source("RoutePoints").expect("RoutePoints").id;
    let edge = |a: &str, b: &str, d: f64| {
        Tuple::row(vec![
            Value::Text(a.into()),
            Value::Text(b.into()),
            Value::Float(d),
        ])
    };
    let edges: Vec<Tuple> = app
        .building
        .segments
        .iter()
        .flat_map(|s| [edge(&s.a, &s.b, s.dist_ft), edge(&s.b, &s.a, s.dist_ft)])
        .collect();
    let mut view = RecursiveView::new(&bound).expect("view builds");
    let insert_s = secs(|| {
        for pair in edges.chunks(2) {
            view.on_base_deltas(points, &DeltaBatch::inserts(pair.iter().cloned()))
                .expect("inserts");
        }
    });
    out.push((
        "stream.recursive.insert_us",
        insert_s * 1e6 / (edges.len() / 2) as f64,
    ));
    // Close and reopen the last few segments: DRed overdeletes, then
    // rederives what is still reachable.
    let tail = &edges[edges.len().saturating_sub(8)..];
    let delete_s = secs(|| {
        for pair in tail.chunks(2) {
            view.on_base_deltas(points, &DeltaBatch::inserts(pair.iter().cloned()).negated())
                .expect("deletes");
        }
    });
    out.push((
        "stream.recursive.delete_us",
        delete_s * 1e6 / (tail.len() / 2) as f64,
    ));
    out.push((
        "stream.recursive.overdeleted",
        view.stats.tuples_overdeleted as f64,
    ));
    out.push((
        "stream.recursive.rederived",
        view.stats.tuples_rederived as f64,
    ));

    // The facade itself.
    const TICKS: usize = 24;
    let tick_s = secs(|| {
        for _ in 0..TICKS {
            app.tick().expect("ticks");
        }
    });
    out.push(("smartcis.tick_us", tick_s * 1e6 / TICKS as f64));
    app.set_visitor(1, "entrance", "Fedora").expect("visitor");
    app.visitor_guidance()
        .expect("first guidance registers the plan");
    const READS: usize = 20;
    let guidance_s = secs(|| {
        for _ in 0..READS {
            std::hint::black_box(app.visitor_guidance().expect("guides"));
        }
    });
    let gui_s = secs(|| {
        for _ in 0..READS {
            std::hint::black_box(app.gui_state());
        }
    });
    let autotune_s = secs(|| {
        for _ in 0..READS {
            std::hint::black_box(app.autotune().expect("tunes"));
        }
    });
    let close_s = secs(|| {
        app.close_corridor("hall1", "door_office1").expect("closes");
    });
    out.push(("smartcis.guidance_us", guidance_s * 1e6 / READS as f64));
    out.push(("smartcis.gui_state_us", gui_s * 1e6 / READS as f64));
    out.push(("smartcis.autotune_us", autotune_s * 1e6 / READS as f64));
    out.push(("smartcis.close_corridor_us", close_s * 1e6));
}

/// Run every probe. `out_dir` takes the spill probe's files.
pub fn run(input: &ProbeInput, out_dir: &Path) -> Metrics {
    let mut out = Metrics::new();
    sql_front_end(input, &mut out);
    pipeline_push(input, &mut out);
    window_and_state(input, &mut out);
    columnar_store(input, out_dir, &mut out);
    sink(input, &mut out);
    cluster_and_wire(input, &mut out);
    application(input, &mut out);
    out
}
