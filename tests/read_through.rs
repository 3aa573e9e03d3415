//! Integration: a query whose result is its aggregate's rows — an
//! aggregate at the root, alone or under one projection, below ORDER BY /
//! LIMIT, without a push channel — is read off the aggregate: ingest
//! counts the deltas the aggregate settles instead of building them, and
//! a read builds the rows of the groups that changed. The standalone
//! pipeline and sink always emit; they are the reference.
//!
//! * The read-through row of the equivalence kit (`tests/common/`), at 1
//!   and 2 shards under `Sequential`, `Pool` and `Deterministic` and on a
//!   2-node cluster, against the private path after every event: grouped
//!   `INT` and `TEXT` keys and a global aggregate; `count`, `sum`, `avg`,
//!   `min`, `max`; a projection that reorders and one that computes;
//!   ORDER BY, and ORDER BY … LIMIT; ROWS, RANGE and tumbling windows
//!   that expire; a table's signed deltas; register / deregister / pause /
//!   resume / migrate, and `subscribe` in the middle of the stream, which
//!   turns the query over to emitting. Snapshots, `(tuples_in,
//!   ops_invoked, output_deltas)`, the op profile, push == poll and `Cut`
//!   == `Fresh` are checked.
//! * A failed batch moves an aggregate's cells and emits nothing: a read
//!   shows what the emitting path still shows (the failed-batch ledger),
//!   in every scheduling mode.

mod common;

use std::sync::Arc;

use common::{seeds, sorted, Cell, Config, Mode, Oracle, Row, Weights, Workload, F, I, T};
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::sql::{compile, BoundQuery};
use smartcis::stream::pipeline::Pipeline;
use smartcis::stream::{Consistency, EngineConfig, Scheduling, ShardedEngine, Sink};
use smartcis::types::rng::seeded;
use smartcis::types::DataType::{Float, Int, Text};
use smartcis::types::{Result, SimTime, Tuple, Value};

/// A stream of readings and a weighted link table, which one template
/// sums. (The kit's awkward rows repeat their own source's previous row,
/// so the two need not share a width.)
fn catalog() -> Arc<Catalog> {
    common::catalog(&[
        (
            "Readings",
            SourceStats::stream(2.0),
            &[("sensor", Int), ("room", Text), ("value", Float)],
        ),
        (
            "Links",
            SourceStats::table(8),
            &[("src", Int), ("dst", Int), ("w", Float)],
        ),
    ])
}

const ROOMS: [&str; 3] = ["lab", "hall", "office"];

fn cells(rng: &mut StdRng, source: &'static str, _: i64) -> Vec<Cell> {
    match source {
        "Readings" => vec![
            I(rng.gen_range(0..5i64)),
            T(ROOMS[rng.gen_range(0..ROOMS.len())]),
            F(rng.gen_range(0..40i64) as f64 / 2.0),
        ],
        _ => vec![
            I(rng.gen_range(0..4i64)),
            I(rng.gen_range(0..6i64)),
            F(rng.gen_range(0..8i64) as f64),
        ],
    }
}

/// `{rows}`, `{secs}` and `{c}` come of the template's constant, 0–3. The
/// last template, ORDER BY … LIMIT, takes no push channel, so only the
/// opening registers it, at a slot the seeded events never name.
const TEMPLATES: &[&str] = &[
    "select r.sensor, count(*), sum(r.value), avg(r.value), min(r.value), max(r.value) \
     from Readings r [rows {rows}] group by r.sensor",
    "select r.room, count(r.value), max(r.value) from Readings r [range {secs} seconds] \
     group by r.room",
    "select count(*), sum(r.value), min(r.value) from Readings r [range {secs} seconds]",
    "select count(*), r.sensor from Readings r [rows {rows}] group by r.sensor",
    "select r.room, avg(r.value) * 2 from Readings r [range 6 seconds] \
     where r.value > {c} group by r.room",
    "select r.room, sum(r.value) from Readings r [tumbling 6 seconds] group by r.room \
     order by sum(r.value) desc",
    "select l.src, count(*), sum(l.w) from Links l group by l.src",
    "select r.sensor, max(r.value) from Readings r [range 8 seconds] group by r.sensor \
     order by max(r.value) desc limit 2",
];

fn sql(t: usize, c: usize) -> String {
    TEMPLATES[t]
        .replace("{rows}", &(3 + c).to_string())
        .replace("{secs}", &(4 + 2 * c).to_string())
        .replace("{c}", &(4 * c).to_string())
}

/// The ORDER BY … LIMIT template, and the opening slot it is registered at.
const LIMITED: usize = 7;

fn read_through_row() -> Row {
    let mut w = Workload {
        streams: &[("Readings", 1)],
        tables: &["Links"],
        templates: (LIMITED, 4),
        keep: &[LIMITED],
        weights: Weights {
            ingest: 8,
            table: 1,
            table_deltas: 2,
            heartbeat: 4,
            register: 2,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 1,
            subscribe: 2,
            tune: 1,
            read: 3,
        },
        events: 80,
        batch: (1, 6),
        jump: (1, 9),
        leap: 5,
        awkward: 10,
        ..Workload::new(catalog, cells, sql)
    };
    w.opening = w.register_all((0..=LIMITED).map(|t| (t, t % 4)));
    let mut configs = Config::matrix(&[1, 2]);
    configs.push(Config::cluster(2, Mode::Seq));
    Row::new("read_through_row()", w, configs).oracle(Oracle::Private)
}

/// Property: a query read through equals the emitting private path after
/// every event, under every scheduling mode, shard count and on a
/// cluster.
#[test]
fn read_through_aggregates_equal_the_emitting_path() {
    let runs = read_through_row().check(seeds(3));
    // Non-vacuity: results were read off aggregates with rows, and
    // channels were attached mid-stream.
    let subscribed = runs
        .iter()
        .flat_map(|r| &r.events)
        .any(|e| matches!(e, common::Subscribe { .. }));
    assert!(subscribed, "no mid-stream subscription");
    let checked: usize = runs
        .iter()
        .flat_map(|r| r.engines())
        .map(|o| o.rows_checked)
        .sum();
    assert!(checked > 10_000, "{checked} rows checked");
}

/// A registered query on both sides: the engine's handle, and a
/// standalone pipeline and sink.
struct Pair {
    handle: smartcis::stream::QueryHandle,
    pipeline: Pipeline,
    sink: Sink,
}

/// Property: batches that fail half-way (a text value an aggregate's
/// `sum` or `avg` refuses) leave an engine's read-through queries showing
/// exactly what the emitting pipelines show, and counted alike — in every
/// scheduling mode, at 1 and 2 shards. Each ingest is drained, so a
/// deferred error surfaces at the event that caused it.
#[test]
fn failed_batches_read_as_the_emitting_path_shows_them() {
    let sqls = [
        "select r.sensor, sum(r.value), count(*) from Readings r [rows 4] group by r.sensor",
        "select avg(r.value) * 2, count(*) from Readings r [range 6 seconds]",
        "select r.room, count(*), sum(r.value) from Readings r [range 9 seconds] group by r.room",
    ];
    let (mut failed, mut shown_after_failure) = (0, 0);
    for seed in seeds(2) {
        for config in Config::matrix(&[1, 2]) {
            let scheduling = match config.mode {
                Mode::Seq => Scheduling::Sequential,
                Mode::Pool => Scheduling::Pool,
                Mode::Det => Scheduling::Deterministic(seed),
            };
            let node = EngineConfig::new()
                .shards(config.width)
                .scheduling(scheduling);
            let cat = catalog();
            let mut engine = ShardedEngine::with_config(Arc::clone(&cat), node);
            let source = cat.source("Readings").unwrap().id;
            let mut pairs: Vec<Pair> = sqls
                .iter()
                .map(|sql| {
                    let handle = engine.register_sql(sql).unwrap().expect_query();
                    let BoundQuery::Select(b) = compile(sql, &cat).unwrap() else {
                        panic!("{sql} is a select");
                    };
                    let mut pipeline = Pipeline::compile(&b.plan).unwrap();
                    let mut sink = pipeline.make_sink();
                    pipeline.start(&mut sink).unwrap();
                    Pair {
                        handle,
                        pipeline,
                        sink,
                    }
                })
                .collect();
            let mut rng = seeded(seed);
            let mut now = 0u64;
            let mut after_failure = false;
            for step in 0..60 {
                let ctx = format!("seed {seed}, {}, step {step}", config.label());
                let (got, want): (Result<()>, Result<()>) = if rng.gen_range(0..4u32) == 0 {
                    now += rng.gen_range(1..5u64);
                    let at = SimTime::from_secs(now);
                    let run = |p: &mut Pair| p.pipeline.advance_time(at, &mut p.sink);
                    let want = pairs.iter_mut().map(run).fold(Ok(()), Result::and);
                    (engine.heartbeat(at).and(engine.quiesce()), want)
                } else {
                    now += 1;
                    let poisoned = rng.gen_range(0..5u32) == 0;
                    let rows: Vec<Tuple> = (0..rng.gen_range(1..5))
                        .map(|i| {
                            let value = match poisoned && i == 0 {
                                true => Value::Text("n/a".into()),
                                false => Value::Float(rng.gen_range(0..20i64) as f64),
                            };
                            let room = Value::Text(ROOMS[rng.gen_range(0..3usize)].into());
                            let sensor = Value::Int(rng.gen_range(0..4i64));
                            Tuple::new(vec![sensor, room, value], SimTime::from_secs(now))
                        })
                        .collect();
                    let run = |p: &mut Pair| p.pipeline.push_source(source, &rows, &mut p.sink);
                    let want = pairs.iter_mut().map(run).fold(Ok(()), Result::and);
                    (
                        engine.on_batch("Readings", &rows).and(engine.quiesce()),
                        want,
                    )
                };
                assert_eq!(got.is_err(), want.is_err(), "{ctx}: {got:?} vs {want:?}");
                failed += usize::from(want.is_err());
                after_failure |= want.is_err();
                let report = engine.telemetry_at(Consistency::Fresh);
                for p in &pairs {
                    let rows = sorted(engine.snapshot(p.handle).unwrap());
                    assert_eq!(rows, sorted(p.sink.snapshot().unwrap()), "{ctx}");
                    shown_after_failure += usize::from(after_failure && !rows.is_empty());
                    let load = report.query(p.handle.0).unwrap();
                    assert_eq!(
                        (load.tuples_in, load.ops_invoked, load.output_deltas),
                        (
                            p.pipeline.tuples_in,
                            p.pipeline.ops_invoked,
                            p.sink.deltas_applied
                        ),
                        "{ctx}"
                    );
                }
            }
        }
    }
    assert!(
        failed > 0 && shown_after_failure > 0,
        "{failed} failed events"
    );
}
