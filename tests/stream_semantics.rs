//! Integration: stream-engine semantics across crates — tumbling and
//! row-count windows through full SQL pipelines, batch/per-tuple
//! equivalence of the delta dataflow, and display routing.

use std::sync::Arc;

use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::sql::{compile, BoundQuery};
use smartcis::stream::pipeline::Pipeline;
use smartcis::stream::ShardedEngine;
use smartcis::types::{DataType, Field, Schema, SimTime, Tuple, Value};

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
        SourceKind::Stream,
        SourceStats::stream(2.0).with_distinct("sensor", 4),
    )
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
fn tumbling_window_aggregate_resets_per_pane() {
    let cat = catalog();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    let q = engine
        .register_sql("select sum(r.value) from Readings r [tumbling 10 seconds]")
        .unwrap()
        .expect_query();
    // Pane 0: t in [0, 10).
    engine
        .on_batch("Readings", &[reading(1, 5.0, 2), reading(2, 7.0, 8)])
        .unwrap();
    assert_eq!(
        engine.snapshot(q).unwrap()[0].values()[0],
        Value::Float(12.0)
    );
    // Crossing into pane 1 retracts pane 0's contents.
    engine
        .on_batch("Readings", &[reading(1, 100.0, 12)])
        .unwrap();
    assert_eq!(
        engine.snapshot(q).unwrap()[0].values()[0],
        Value::Float(100.0)
    );
    // Advancing the clock past pane 1 empties the global aggregate
    // back to its NULL (empty-sum) state.
    engine.heartbeat(SimTime::from_secs(25)).unwrap();
    assert_eq!(engine.snapshot(q).unwrap()[0].values()[0], Value::Null);
}

#[test]
fn rows_window_keeps_exactly_n() {
    let cat = catalog();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    let q = engine
        .register_sql("select r.sensor, r.value from Readings r [rows 3]")
        .unwrap()
        .expect_query();
    for i in 0..10 {
        engine
            .on_batch("Readings", &[reading(i, i as f64, i as u64)])
            .unwrap();
    }
    let rows = engine.snapshot(q).unwrap();
    assert_eq!(rows.len(), 3);
    let sensors: Vec<i64> = rows.iter().map(|r| r.get(0).as_int().unwrap()).collect();
    assert_eq!(sensors, vec![7, 8, 9]);
    // Row-count windows never expire with time.
    engine.heartbeat(SimTime::from_secs(10_000)).unwrap();
    assert_eq!(engine.snapshot(q).unwrap().len(), 3);
}

/// Property: pushing a workload as whole batches produces exactly the
/// same consolidated result multiset as pushing it tuple-by-tuple, for
/// filter, join, aggregate, and window-expiry plans — and the batched
/// path never costs more operator invocations than the per-tuple path.
///
/// Result rows are compared by *values*: batch consolidation merges
/// duplicate deltas, so an aggregate output row's timestamp (taken from
/// the last delta touching its group) is a per-granularity presentation
/// detail, not part of the equivalence contract.
#[test]
fn batched_pipeline_equivalent_to_per_tuple() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    fn value_rows(rows: &[Tuple]) -> Vec<Vec<Value>> {
        rows.iter().map(|t| t.values().to_vec()).collect()
    }

    let plans = [
        "select r.sensor, r.value from Readings r where r.value > 40",
        "select r.sensor, avg(r.value) from Readings r group by r.sensor",
        "select count(*) from Readings r",
        "select a.value, b.value from Readings a, Readings b \
         where a.sensor = b.sensor ^ a.value < b.value",
        "select sum(r.value) from Readings r [tumbling 10 seconds]",
        "select r.sensor, r.value from Readings r [rows 5]",
    ];
    for seed in 0..5u64 {
        let mut rng = seeded(seed);
        // Random workload: tuple batches interleaved with heartbeats,
        // timestamps nondecreasing so windows expire mid-run.
        let mut now = 0u64;
        let mut events: Vec<(Vec<Tuple>, Option<u64>)> = Vec::new();
        for _ in 0..30 {
            let n = rng.gen_range(1..12usize);
            let batch: Vec<Tuple> = (0..n)
                .map(|_| {
                    reading(
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..100i64) as f64,
                        now + rng.gen_range(0..2u64),
                    )
                })
                .collect();
            let hb = if rng.gen_bool(0.3) {
                now += rng.gen_range(1..20u64);
                Some(now)
            } else {
                now += 1;
                None
            };
            events.push((batch, hb));
        }

        for sql in plans {
            let cat = catalog();
            let mut batched = ShardedEngine::new(Arc::clone(&cat), 1);
            let mut per_tuple = ShardedEngine::new(Arc::clone(&cat), 1);
            let qb = batched.register_sql(sql).unwrap().expect_query();
            let qp = per_tuple.register_sql(sql).unwrap().expect_query();

            let mut prev_batched_ops = 0;
            for (batch, hb) in &events {
                batched.on_batch("Readings", batch).unwrap();
                for t in batch {
                    per_tuple
                        .on_batch("Readings", std::slice::from_ref(t))
                        .unwrap();
                }
                if let Some(hb) = hb {
                    batched.heartbeat(SimTime::from_secs(*hb)).unwrap();
                    per_tuple.heartbeat(SimTime::from_secs(*hb)).unwrap();
                }
                // ops_invoked is monotone along the run...
                let ops = batched.total_ops_invoked();
                assert!(ops >= prev_batched_ops, "ops_invoked went backwards");
                prev_batched_ops = ops;
                // ...and the result multisets agree after every event.
                assert_eq!(
                    value_rows(&batched.snapshot(qb).unwrap()),
                    value_rows(&per_tuple.snapshot(qp).unwrap()),
                    "divergence for '{sql}' at seed {seed}"
                );
            }
            // Batching only ever consolidates work away.
            assert!(
                batched.total_ops_invoked() <= per_tuple.total_ops_invoked(),
                "batched path cost more CPU units for '{sql}'"
            );
        }
    }
}

/// Regression (PR 1 review): a query with an order-sensitive ROWS window
/// registered *after* duplicate rows arrived must retain exactly the
/// rows a live query retained — the retained-table replay has to put
/// every duplicate at its own arrival position (grouping duplicates at
/// their first position was the PR 1 bug: `[7, 1, 7, 2]` under `ROWS 2`
/// replayed as `[1, 2]` where a live query held `[7, 2]`).
#[test]
fn late_rows_replay_with_duplicate_rows() {
    let cat = Catalog::shared();
    let s = Schema::new(vec![Field::new("v", DataType::Int)]).into_ref();
    cat.register_source("T", s, SourceKind::Table, SourceStats::table(10))
        .unwrap();
    let row = |v: i64| Tuple::new(vec![Value::Int(v)], SimTime::from_secs(1));
    let rows = [row(7), row(1), row(7), row(2)];
    let sql = "select t.v from T t [rows 2]";

    let mut live = ShardedEngine::new(Arc::clone(&cat), 1);
    let q_live = live.register_sql(sql).unwrap().expect_query();
    live.on_batch("T", &rows).unwrap();

    let mut late = ShardedEngine::new(Arc::clone(&cat), 1);
    late.on_batch("T", &rows).unwrap();
    let q_late = late.register_sql(sql).unwrap().expect_query();

    let vals = |snap: Vec<Tuple>| -> Vec<Value> { snap.iter().map(|t| t.get(0).clone()).collect() };
    assert_eq!(
        vals(live.snapshot(q_live).unwrap()),
        vals(late.snapshot(q_late).unwrap())
    );
}

/// Regression: `on_deltas` used to skip the clock advancement `on_batch`
/// performed, so delta-only ingest left `now()` stale forever.
#[test]
fn delta_only_ingest_advances_engine_clock() {
    use smartcis::stream::{Delta, DeltaBatch};
    let cat = Catalog::shared();
    let s = Schema::new(vec![Field::new("v", DataType::Int)]).into_ref();
    cat.register_source("T", s, SourceKind::Table, SourceStats::table(10))
        .unwrap();
    let mut engine = ShardedEngine::new(cat, 1);
    assert_eq!(engine.now(), SimTime::ZERO);
    let row = Tuple::new(vec![Value::Int(1)], SimTime::from_secs(42));
    engine
        .on_deltas("T", &DeltaBatch::from(vec![Delta::insert(row)]))
        .unwrap();
    assert_eq!(
        engine.now(),
        SimTime::from_secs(42),
        "delta ingest must advance the engine clock exactly like on_batch"
    );
}

/// Regression: heartbeats used to fan out only to query pipelines, so a
/// view over a time-windowed stream scan accumulated state forever. Time
/// must now reach views, expire their windowed base facts, and retract
/// the derived rows downstream.
#[test]
fn heartbeat_expires_time_windowed_view_state() {
    let cat = catalog();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    // Stream scans default to a 30 s range window: the view is
    // clock-sensitive even without an explicit window clause.
    engine
        .register_sql(
            "create view Hot as (select r.sensor, r.value from Readings r where r.value > 50)",
        )
        .unwrap();
    let q = engine
        .register_sql("select h.sensor from Hot h")
        .unwrap()
        .expect_query();
    engine
        .on_batch("Readings", &[reading(1, 80.0, 5), reading(2, 40.0, 5)])
        .unwrap();
    assert_eq!(engine.view_snapshot("Hot").unwrap().len(), 1);
    assert_eq!(engine.snapshot(q).unwrap().len(), 1);
    // Within the window nothing expires...
    engine.heartbeat(SimTime::from_secs(20)).unwrap();
    assert_eq!(engine.snapshot(q).unwrap().len(), 1);
    // ...past it the view empties and the downstream query follows.
    engine.heartbeat(SimTime::from_secs(40)).unwrap();
    assert!(
        engine.view_snapshot("Hot").unwrap().is_empty(),
        "view state must expire with its base scan's window"
    );
    assert!(
        engine.snapshot(q).unwrap().is_empty(),
        "expired view rows must retract from downstream queries"
    );
}

#[test]
fn multiple_displays_receive_their_own_queries() {
    let cat = catalog();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    engine
        .register_sql("select r.value from Readings r where r.value > 50 output to display 'lobby'")
        .unwrap();
    engine
        .register_sql("select count(*) from Readings r output to display 'lab101'")
        .unwrap();
    engine
        .on_batch("Readings", &[reading(1, 75.0, 1), reading(2, 25.0, 1)])
        .unwrap();
    let lobby = engine.display_snapshot("lobby").unwrap();
    assert_eq!(lobby.len(), 1);
    assert_eq!(lobby[0].len(), 1); // only the 75.0 reading
    let lab = engine.display_snapshot("lab101").unwrap();
    assert_eq!(lab[0][0].values()[0], Value::Int(2));
}

#[test]
fn having_filters_groups_continuously() {
    let cat = catalog();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    let q = engine
        .register_sql(
            "select r.sensor, count(*) from Readings r \
             group by r.sensor having count(*) > 2",
        )
        .unwrap()
        .expect_query();
    // Sensor 1 gets 3 readings; sensor 2 gets 2.
    engine
        .on_batch(
            "Readings",
            &[
                reading(1, 1.0, 1),
                reading(1, 2.0, 2),
                reading(1, 3.0, 3),
                reading(2, 4.0, 4),
                reading(2, 5.0, 5),
            ],
        )
        .unwrap();
    let rows = engine.snapshot(q).unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].values()[0], Value::Int(1));
    assert_eq!(rows[0].values()[1], Value::Int(3));
    // Window expiry (default 30 s stream window) drops the group back
    // below the HAVING threshold.
    engine.heartbeat(SimTime::from_secs(33)).unwrap();
    assert!(engine.snapshot(q).unwrap().is_empty());
}

#[test]
fn arithmetic_and_scalar_functions_in_projection() {
    let cat = catalog();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    let q = engine
        .register_sql(
            "select r.sensor, abs(r.value - 70) as delta from Readings r \
             where abs(r.value - 70) > 10 order by abs(r.value - 70) desc",
        )
        .unwrap()
        .expect_query();
    engine
        .on_batch(
            "Readings",
            &[
                reading(1, 95.0, 1),
                reading(2, 72.0, 1),
                reading(3, 40.0, 1),
            ],
        )
        .unwrap();
    let rows = engine.snapshot(q).unwrap();
    assert_eq!(rows.len(), 2);
    // Sorted by delta desc: sensor 3 (|40-70| = 30) before sensor 1 (25).
    assert_eq!(rows[0].values()[0], Value::Int(3));
    assert_eq!(rows[0].values()[1], Value::Float(30.0));
    assert_eq!(rows[1].values()[0], Value::Int(1));
}

/// The SQL-level twin of `operators.rs::join_keys_follow_sql_equality`:
/// an equi-join key follows SQL `=` — a NULL key matches nothing (not
/// even another NULL) and an `int` key meets the equal `float` — which
/// is also what the same predicate answers when it runs as a filter
/// over the cross product. The windowed sides are indexed either way:
/// over the shard's logs in the engine, over private windows in a
/// standalone pipeline (the private path).
#[test]
fn equi_join_keys_follow_sql_equality() {
    let cat = Catalog::shared();
    for (name, key) in [("A", DataType::Int), ("B", DataType::Float)] {
        let fields = vec![Field::new("k", key), Field::new("v", DataType::Int)];
        let stats = SourceStats::stream(1.0);
        cat.register_source(
            name,
            Schema::new(fields).into_ref(),
            SourceKind::Stream,
            stats,
        )
        .unwrap();
    }
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    let from = "select x.v, y.v from A x [rows 10], B y [rows 10]";
    // `x.k - y.k = 0` is no equi-key: it runs as a filter (residual).
    let sqls = [
        format!("{from} where x.k = y.k"),
        format!("{from} where x.k - y.k = 0"),
    ];
    let mut queries: Vec<_> = sqls
        .iter()
        .map(|sql| {
            let q = engine.register_sql(sql).unwrap().expect_query();
            let BoundQuery::Select(bound) = compile(sql, &cat).unwrap() else {
                panic!("{sql} is a select");
            };
            let mut private = Pipeline::compile(&bound.plan).unwrap();
            let mut sink = private.make_sink();
            private.start(&mut sink).unwrap();
            (q, private, sink)
        })
        .collect();
    let row = |k: Value, v: i64| Tuple::new(vec![k, Value::Int(v)], SimTime::from_secs(1));
    for (name, batch) in [
        ("A", [row(Value::Null, 1), row(Value::Int(2), 2)]),
        ("B", [row(Value::Null, 10), row(Value::Float(2.0), 20)]),
    ] {
        engine.on_batch(name, &batch).unwrap();
        let src = cat.source(name).unwrap().id;
        for (_, private, sink) in &mut queries {
            private.push_source(src, &batch, sink).unwrap();
        }
    }
    for (q, _, sink) in &queries {
        for rows in [engine.snapshot(*q).unwrap(), sink.snapshot().unwrap()] {
            let rows: Vec<&[Value]> = rows.iter().map(Tuple::values).collect();
            assert_eq!(rows, [[Value::Int(2), Value::Int(20)]]);
        }
    }
}
