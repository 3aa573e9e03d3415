//! Integration: the session-based query lifecycle — registration
//! through `QuerySpec`, push subscriptions, pause/resume via the replay
//! path, deregistration unwinding the routing index, and per-client
//! sessions — at the engine and through the SmartCIS
//! app.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use smartcis::app::{queries, SmartCis};
use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::{
    Consistency, Delta, DeltaBatch, EngineConfig, QueryHandle, QuerySpec, Scheduling, ShardedEngine,
};
use smartcis::types::{DataType, Field, QueryId, Schema, SimDuration, SimTime, Tuple, Value};

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
    let facts = Schema::new(vec![
        Field::new("key", DataType::Text),
        Field::new("val", DataType::Int),
    ])
    .into_ref();
    cat.register_source("Facts", facts, SourceKind::Table, SourceStats::table(8))
        .unwrap();
    cat
}

fn reading(sensor: i64, value: f64, sec: u64) -> Tuple {
    Tuple::new(
        vec![Value::Int(sensor), Value::Float(value)],
        SimTime::from_secs(sec),
    )
}

fn fact(key: &str, val: i64, sec: u64) -> Tuple {
    Tuple::new(
        vec![Value::Text(key.into()), Value::Int(val)],
        SimTime::from_secs(sec),
    )
}

fn values(rows: &[Tuple]) -> Vec<Vec<Value>> {
    rows.iter().map(|t| t.values().to_vec()).collect()
}

/// ISSUE 3 satellite: after `deregister`, `subscriber_count` for the
/// query's sources returns to pre-registration values, and the source
/// can be re-subscribed by a fresh registration — on a sharded engine.
#[test]
fn deregister_restores_subscriber_counts_and_allows_reregistration() {
    let cat = catalog();
    let mut e = ShardedEngine::with_config(Arc::clone(&cat), EngineConfig::new().shards(4));
    let readings = cat.source("Readings").unwrap().id;
    let facts = cat.source("Facts").unwrap().id;

    let baseline_readings = e.subscriber_count(readings);
    let baseline_facts = e.subscriber_count(facts);
    let q1 = e
        .register_sql("select r.sensor from Readings r where r.value > 10")
        .unwrap()
        .expect_query();
    let q2 = e
        .register_sql("select r.value, f.val from Readings r, Facts f where r.sensor = f.val")
        .unwrap()
        .expect_query();
    assert_eq!(e.subscriber_count(readings), baseline_readings + 2);
    assert_eq!(e.subscriber_count(facts), baseline_facts + 1);

    e.deregister(q2).unwrap();
    assert_eq!(e.subscriber_count(readings), baseline_readings + 1);
    assert_eq!(e.subscriber_count(facts), baseline_facts);
    e.deregister(q1).unwrap();
    assert_eq!(e.subscriber_count(readings), baseline_readings);

    // Ingest with zero subscribers must be free at the pipeline level.
    let before = e.total_ops_invoked();
    e.on_batch("Readings", &[reading(1, 50.0, 1)]).unwrap();
    assert_eq!(e.total_ops_invoked(), before);

    // Re-registration works and sees fresh stream state.
    let q3 = e
        .register_sql("select r.sensor from Readings r where r.value > 10")
        .unwrap()
        .expect_query();
    assert_eq!(e.subscriber_count(readings), baseline_readings + 1);
    e.on_batch("Readings", &[reading(2, 60.0, 2)]).unwrap();
    assert_eq!(e.snapshot(q3).unwrap().len(), 1, "only the new reading");
}

/// ISSUE 3 satellite: a paused query receives no deltas (its snapshot
/// freezes) but resumes with a correct snapshot via the replay path —
/// table changes made during the pause are reflected after resume.
#[test]
fn paused_query_freezes_then_resumes_with_replayed_state() {
    let mut e = ShardedEngine::with_config(catalog(), EngineConfig::new().shards(2));
    let q = e
        .register_sql("select f.key, f.val from Facts f")
        .unwrap()
        .expect_query();
    e.on_batch("Facts", &[fact("a", 1, 1), fact("b", 2, 1)])
        .unwrap();
    assert_eq!(e.snapshot(q).unwrap().len(), 2);

    e.pause(q).unwrap();
    assert!(e.is_paused(q).unwrap());
    // Table churn during the pause: one insert, one delete.
    e.on_batch("Facts", &[fact("c", 3, 2)]).unwrap();
    e.on_deltas(
        "Facts",
        &DeltaBatch::from(vec![Delta::retract(fact("a", 1, 1))]),
    )
    .unwrap();
    let frozen = e.snapshot(q).unwrap();
    assert_eq!(values(&frozen).len(), 2, "paused sink is frozen");
    // Paused queries also ignore heartbeats.
    e.heartbeat(SimTime::from_secs(100)).unwrap();
    assert_eq!(e.snapshot(q).unwrap().len(), 2);

    e.resume(q).unwrap();
    assert!(!e.is_paused(q).unwrap());
    let resumed = e.snapshot(q).unwrap();
    let mut keys: Vec<String> = resumed
        .iter()
        .map(|t| t.get(0).as_text().unwrap().to_string())
        .collect();
    keys.sort();
    assert_eq!(keys, ["b", "c"], "resume replays the *current* table");

    // Double-resume and double-pause are errors; pause/resume of a
    // deregistered handle too.
    assert!(e.resume(q).is_err());
    e.pause(q).unwrap();
    assert!(e.pause(q).is_err());
    e.deregister(q).unwrap();
    assert!(e.pause(q).is_err());
    assert!(e.resume(q).is_err());
}

/// Push subscriptions survive pause/resume: the channel carries over
/// and delivers one consolidated catch-up diff, so accumulated deltas
/// always reconstruct the polled snapshot.
#[test]
fn push_subscription_survives_pause_resume_with_catchup_diff() {
    let mut e = ShardedEngine::new(catalog(), 1);
    let q = e
        .register(QuerySpec::sql("select f.key from Facts f").push())
        .unwrap()
        .expect_query();
    let sub = e.subscribe(q).unwrap();
    e.on_batch("Facts", &[fact("a", 1, 1), fact("b", 2, 1)])
        .unwrap();
    let mut accum: HashMap<Tuple, i64> = HashMap::new();
    let fold = |accum: &mut HashMap<Tuple, i64>, batches: Vec<DeltaBatch>| {
        for b in batches {
            for d in &b {
                let e = accum.entry(d.tuple.clone()).or_insert(0);
                *e += d.sign;
                if *e == 0 {
                    accum.remove(&d.tuple);
                }
            }
        }
    };
    fold(&mut accum, sub.drain());
    assert_eq!(accum.len(), 2);

    e.pause(q).unwrap();
    e.on_batch("Facts", &[fact("c", 3, 2)]).unwrap();
    assert!(sub.drain().is_empty(), "no pushes while paused");
    e.resume(q).unwrap();
    let catchup = sub.drain();
    assert_eq!(catchup.len(), 1, "one consolidated catch-up batch");
    fold(&mut accum, catchup);
    let snapshot: Vec<Tuple> = e.snapshot(q).unwrap();
    assert_eq!(accum.len(), snapshot.len());
    for t in &snapshot {
        assert_eq!(accum.get(t), Some(&1), "accumulation matches snapshot");
    }
}

/// The micro-batch knobs shape push delivery: `max_delay` coalesces
/// churn across boundaries (fewer delivered batches, cancelled deltas
/// never delivered), `max_batch` caps delivered batch size.
#[test]
fn micro_batch_knobs_coalesce_and_chunk_push_delivery() {
    let run = |spec: QuerySpec| -> (u64, usize, Vec<usize>) {
        let mut e = ShardedEngine::new(catalog(), 1);
        let q = e.register(spec).unwrap().expect_query();
        let sub = e.subscribe(q).unwrap();
        // Ten boundaries of churn inside one 10 s window: same fact
        // inserted and deleted repeatedly.
        for i in 0..10u64 {
            let mut churn = vec![Delta::insert(fact("hot", i as i64, i))];
            if i > 0 {
                churn.push(Delta::retract(fact("hot", i as i64 - 1, i - 1)));
            }
            e.on_deltas("Facts", &DeltaBatch::from(churn)).unwrap();
        }
        // Push time past any delay so held buffers release.
        e.heartbeat(SimTime::from_secs(60)).unwrap();
        let batches = sub.drain();
        let sizes: Vec<usize> = batches.iter().map(DeltaBatch::len).collect();
        let total: usize = sizes.iter().sum();
        (sub.batches_delivered(), total, sizes)
    };

    let sql = "select f.key, f.val from Facts f";
    let (eager_batches, eager_deltas, _) = run(QuerySpec::sql(sql).push());
    let (held_batches, held_deltas, _) = run(QuerySpec::sql(sql)
        .push()
        .max_delay(SimDuration::from_secs(60)));
    assert!(
        held_batches < eager_batches,
        "delay must coalesce: {held_batches} !< {eager_batches}"
    );
    assert!(
        held_deltas < eager_deltas,
        "cancelled churn must never be delivered: {held_deltas} !< {eager_deltas}"
    );
    // With the whole run coalesced, only the final net fact remains.
    assert_eq!(held_deltas, 1);

    let (_, _, sizes) = run(QuerySpec::sql(sql).push().max_batch(1));
    assert!(sizes.iter().all(|&n| n <= 1), "max_batch caps chunks");
}

/// A resume that fails (its drain surfaces a deferred task error: a
/// sibling query's arithmetic over a text reading) must leave the query
/// paused and fully intact — snapshot still answers, and nothing panics
/// afterwards. A Table cannot hold a mistyped row, so a stream poisons.
#[test]
fn failed_resume_leaves_query_paused_and_readable() {
    let config = EngineConfig::new().shards(1).scheduling(Scheduling::Pool);
    let mut e = ShardedEngine::with_config(catalog(), config);
    let q = e
        .register_sql("select f.key from Facts f where f.val * 1 > 0")
        .unwrap()
        .expect_query();
    e.on_batch("Facts", &[fact("a", 1, 1)]).unwrap();
    e.pause(q).unwrap();
    // A text reading is queued behind slow valid ones while the query is
    // detached; the sibling's arithmetic fails in a deferred task.
    let sibling = e
        .register_sql("select r.sensor from Readings r where r.value * 1 > 0")
        .unwrap()
        .expect_query();
    e.set_query_drag(sibling, Some(Duration::from_millis(2)))
        .unwrap();
    assert!(poison(&mut e), "the failure never stayed deferred");
    assert!(e.resume(q).is_err(), "the drain before routing must fail");
    assert!(
        e.is_paused(q).unwrap(),
        "query stays paused after the error"
    );
    assert_eq!(e.snapshot(q).unwrap().len(), 1, "frozen sink still reads");
    e.deregister(q).unwrap();
}

/// LIMIT is a snapshot-time truncation with no incremental counterpart:
/// push registration and late subscription must both refuse it rather
/// than silently break the accumulate-equals-poll contract.
#[test]
fn limit_queries_reject_push_delivery() {
    let mut e = ShardedEngine::new(catalog(), 1);
    let sql = "select f.key, f.val from Facts f order by f.val desc limit 2";
    assert!(e.register(QuerySpec::sql(sql).push()).is_err());
    // Poll registration is fine; subscribing to it later is not.
    let q = e.register_sql(sql).unwrap().expect_query();
    assert!(e.subscribe(q).is_err());
    e.on_batch(
        "Facts",
        &[fact("a", 1, 1), fact("b", 2, 1), fact("c", 3, 1)],
    )
    .unwrap();
    assert_eq!(e.snapshot(q).unwrap().len(), 2, "polling still works");
    // ORDER BY without LIMIT keeps the multiset intact and may push.
    let ordered = e
        .register(QuerySpec::sql("select f.key from Facts f order by f.key").push())
        .unwrap()
        .expect_query();
    let sub = e.subscribe(ordered).unwrap();
    assert_eq!(sub.drain().len(), 1, "snapshot seed delivered");
}

/// View specs reject query-only features instead of dropping them.
#[test]
fn view_spec_rejects_push_and_knobs() {
    let mut e = ShardedEngine::new(catalog(), 1);
    let view_sql = "create recursive view Chain as ( \
                    select f.key, f.val from Facts f \
                    union \
                    select c.key, f.val from Chain c, Facts f where c.val = f.val )";
    assert!(e.register(QuerySpec::sql(view_sql).push()).is_err());
    assert!(e
        .register(QuerySpec::sql(view_sql).max_delay(SimDuration::from_secs(1)))
        .is_err());
    // The plain spec still materializes the view.
    let reg = e.register(QuerySpec::sql(view_sql)).unwrap();
    assert!(reg.view().is_some());
}

/// Late subscription to a poll-registered query seeds the channel with
/// the current snapshot, keeping accumulate == poll from that point on.
#[test]
fn late_subscription_starts_from_snapshot() {
    let mut e = ShardedEngine::new(catalog(), 1);
    let q = e
        .register_sql("select f.key from Facts f")
        .unwrap()
        .expect_query();
    e.on_batch("Facts", &[fact("a", 1, 1), fact("b", 2, 1)])
        .unwrap();
    let sub = e.subscribe(q).unwrap();
    let seed = sub.drain();
    assert_eq!(seed.len(), 1);
    assert_eq!(seed[0].len(), 2, "snapshot arrives as inserts");
    // A second subscribe returns the same channel, not a reseed.
    let again = e.subscribe(q).unwrap();
    assert_eq!(again.pending_batches(), 0);
}

/// Sessions group queries at the app level: closing the dashboard's
/// session retires its whole query set and the per-source fan-out drops
/// back to the pre-registration cost.
#[test]
fn app_session_lifecycle_end_to_end() {
    let mut app = SmartCis::new(2, 4, 99).unwrap();
    let temp_src = app.catalog.source("TempSensors").unwrap().id;
    let before = app.engine.subscriber_count(temp_src);
    let before_queries = app.engine.query_count();

    let dash = app.open_session();
    let alarm = app
        .register_in(dash, QuerySpec::sql(queries::TEMP_ALARM).push())
        .unwrap()
        .expect_query();
    app.register_in(dash, QuerySpec::sql(queries::FREE_MACHINES))
        .unwrap()
        .expect_query();
    let sub = app.subscribe(alarm).unwrap();
    assert_eq!(app.engine.subscriber_count(temp_src), before + 1);

    for _ in 0..3 {
        app.tick().unwrap();
    }
    // Push accumulation equals the polled snapshot of the alarm query.
    let mut accum: HashMap<Tuple, i64> = HashMap::new();
    for b in sub.drain() {
        for d in &b {
            *accum.entry(d.tuple.clone()).or_insert(0) += d.sign;
        }
    }
    accum.retain(|_, c| *c != 0);
    let mut snap: HashMap<Tuple, i64> = HashMap::new();
    for t in app.engine.snapshot(alarm).unwrap() {
        *snap.entry(t).or_insert(0) += 1;
    }
    assert_eq!(accum, snap);

    assert_eq!(app.close_session(dash).unwrap(), 2);
    assert_eq!(app.engine.subscriber_count(temp_src), before);
    assert_eq!(app.engine.query_count(), before_queries);
    assert!(app.engine.snapshot(alarm).is_err(), "alarm is retired");
    // The rest of the app keeps running.
    app.tick().unwrap();
}

/// Everything a lifecycle verb may move: the registry; placement, the
/// pause flags and push deliveries as `telemetry_at(Fresh)` reports
/// them; the live fan-out of both sources; and the log-cursor census.
/// Reading it drains every queue without consuming a deferred task
/// error.
#[derive(Debug, PartialEq)]
struct Wiring {
    queries: usize,
    placement: Vec<(QueryId, usize, bool, u64)>,
    subscribers: [usize; 2],
    cursors: usize,
}

fn wiring(e: &ShardedEngine) -> Wiring {
    let sources = ["Readings", "Facts"].map(|name| e.catalog().source(name).unwrap().id);
    Wiring {
        queries: e.query_count(),
        placement: e
            .telemetry_at(Consistency::Fresh)
            .queries
            .iter()
            .map(|q| (q.query, q.shard, q.paused, q.push_batches))
            .collect(),
        subscribers: sources.map(|src| e.subscriber_count(src)),
        cursors: e.resident_state().log_cursors,
    }
}

/// Leave a failing boundary queued: a reading whose value is text errors
/// in the arithmetic of every subscribing shard's task. An ingest that returns `Ok`
/// did not run it yet — the failure is deferred to the next observer.
/// Sequential scheduling defers nothing, so there this returns `false`.
/// The malformed batch is queued behind a valid one: a pool worker woken
/// by an enqueue can run the task before the ingesting thread is
/// scheduled again (on a busy host, 64 times in a row), which surfaces
/// the error to that very call and leaves nothing pending — so the
/// caller makes the subscribers slow under `Pool`, and the worker is
/// still inside the valid batch when the malformed one is admitted.
fn poison(e: &mut ShardedEngine) -> bool {
    e.on_batch("Readings", &[reading(1, 20.0, 3)]).unwrap();
    let text = vec![Value::Int(1), Value::Text("n/a".into())];
    let bad = Tuple::new(text, SimTime::from_secs(3));
    (0..64).any(|_| e.on_batch("Readings", std::slice::from_ref(&bad)).is_ok())
}

/// Property: a lifecycle verb that fails changes nothing. With a
/// deferred task error pending, `pause`, `resume`, `migrate`,
/// `subscribe` and `tune_query` each return that error
/// and leave the registry, pause flags, placement, fan-out and cursors
/// exactly as they were — and, the error observed, succeed on retry.
/// `deregister` and `close_session` drain infallibly and complete,
/// leaving the error for the next observer. All three scheduling modes
/// (sequential defers nothing: every verb simply succeeds).
#[test]
fn failed_lifecycle_verb_changes_nothing() {
    type Verb = fn(&mut ShardedEngine, [QueryHandle; 3], usize) -> bool;
    let verbs: [(&str, Verb); 5] = [
        ("pause", |e, [live, ..], _| e.pause(live).is_ok()),
        ("resume", |e, [_, held, _], _| e.resume(held).is_ok()),
        ("migrate", |e, [live, ..], to| e.migrate(live, to).is_ok()),
        ("subscribe", |e, [live, ..], _| e.subscribe(live).is_ok()),
        ("tune_query", |e, [.., pushed], _| {
            e.tune_query(pushed, Some(4), None).is_ok()
        }),
    ];
    let base: u64 = std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    for seed in (0..3).map(|i| base.wrapping_mul(0x1000).wrapping_add(i)) {
        for mode in [
            Scheduling::Sequential,
            Scheduling::Pool,
            Scheduling::Deterministic(seed),
        ] {
            let engine = || {
                let mut e = ShardedEngine::with_config(
                    catalog(),
                    EngineConfig::new().shards(2).scheduling(mode),
                );
                let session = e.open_session();
                let mut register = |spec| e.register_in(session, spec).unwrap().expect_query();
                let live = register(QuerySpec::sql(
                    "select r.sensor from Readings r where r.value * 1 > 10",
                ));
                let held = register(QuerySpec::sql(
                    "select r.value, f.val from Readings r, Facts f where r.sensor = f.val",
                ));
                let pushed = register(QuerySpec::sql("select r.value * 1 from Readings r").push());
                e.on_batch("Facts", &[fact("a", 1, 1), fact("b", 2, 1)])
                    .unwrap();
                for i in 0..=seed % 4 {
                    e.on_batch("Readings", &[reading(1 + i as i64, 20.0, 1 + i)])
                        .unwrap();
                }
                e.pause(held).unwrap();
                if mode == Scheduling::Pool {
                    // Slow subscribers keep `poison`'s batch queued.
                    for q in [live, pushed] {
                        e.set_query_drag(q, Some(Duration::from_millis(2))).unwrap();
                    }
                }
                (e, session, [live, held, pushed])
            };
            let ctx = |verb: &str| format!("{verb} under {mode:?}, seed {seed}");

            for (name, verb) in verbs {
                let (mut e, _, handles) = engine();
                let away = (e.shard_of(handles[0].0) + 1) % 2;
                let deferred = poison(&mut e);
                assert_eq!(deferred, mode != Scheduling::Sequential, "{}", ctx(name));
                let before = wiring(&e);
                assert_eq!(verb(&mut e, handles, away), !deferred, "{}", ctx(name));
                if deferred {
                    assert_eq!(wiring(&e), before, "failed {} moved state", ctx(name));
                    assert!(verb(&mut e, handles, away), "retried {}", ctx(name));
                }
                // (Knobs are the one effect no read exposes.)
                if name != "tune_query" {
                    assert_ne!(wiring(&e), before, "{} had no effect", ctx(name));
                }
            }

            let (mut e, session, [live, ..]) = engine();
            let deferred = poison(&mut e);
            e.deregister(live).unwrap();
            assert_eq!(e.close_session(session).unwrap(), 2, "{}", ctx("close"));
            assert_eq!(e.query_count(), 0);
            assert_eq!(wiring(&e).subscribers, [0, 0], "{}", ctx("close"));
            assert_eq!(e.quiesce().is_err(), deferred, "{}", ctx("close"));
        }
    }
}

/// The same for an ingest admission refuses: signed deltas on a stream
/// whose window a live query indexes in a join side name no row of it,
/// so `on_deltas` returns a typed error before any shard runs and leaves
/// the wiring, every snapshot, the ops total, the source's ingest count
/// and the clock as they were — under all three scheduling modes. With
/// the indexing query paused, the same deltas are served.
#[test]
fn refused_signed_deltas_change_nothing() {
    let base: u64 = std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    for mode in [
        Scheduling::Sequential,
        Scheduling::Pool,
        Scheduling::Deterministic(base),
    ] {
        let config = EngineConfig::new().shards(2).scheduling(mode);
        let mut e = ShardedEngine::with_config(catalog(), config);
        let readings = e.catalog().source("Readings").unwrap().id;
        let join = e
            .register_sql(
                "select a.value, b.value from Readings a [rows 4], \
                 Readings b [range 10 seconds] where a.sensor = b.sensor",
            )
            .unwrap()
            .expect_query();
        let plain = e
            .register_sql("select r.value from Readings r where r.value > 10")
            .unwrap()
            .expect_query();
        e.on_batch("Readings", &[reading(1, 20.0, 1), reading(1, 30.0, 2)])
            .unwrap();
        let seen = |e: &ShardedEngine| {
            let snapshots = [join, plain].map(|q| e.snapshot(q).unwrap());
            let counts = (e.total_ops_invoked(), e.source_tuples_in(readings));
            (wiring(e), snapshots, counts, e.now())
        };
        let before = seen(&e);
        let signed = DeltaBatch::from(vec![Delta::insert(reading(2, 50.0, 9))]);
        let refused = e.on_deltas("Readings", &signed).unwrap_err();
        assert_eq!(refused.kind(), "invalid_argument", "{mode:?}");
        assert_eq!(
            seen(&e),
            before,
            "a refused admission moved state ({mode:?})"
        );
        e.pause(join).unwrap();
        e.on_deltas("Readings", &signed).unwrap();
        assert_eq!(e.snapshot(plain).unwrap().len(), 3, "{mode:?}");
    }
}

/// The three scheduling modes, the deterministic one seeded from
/// `ASPEN_TEST_SEED`.
fn modes() -> [Scheduling; 3] {
    let base: u64 = std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    [
        Scheduling::Sequential,
        Scheduling::Pool,
        Scheduling::Deterministic(base),
    ]
}

fn engine(mode: Scheduling) -> ShardedEngine {
    ShardedEngine::with_config(catalog(), EngineConfig::new().shards(2).scheduling(mode))
}

/// `SUM` over a text column: fails on every batch that reaches it.
const FAILING: &str = "select sum(f.key) from Facts f";
/// A value-generating recursion: fails after the round cap.
const GROW: &str = "create recursive view Grow as ( \
                    select f.val from Facts f \
                    union \
                    select g.val + 1 from Grow g )";
const SAME: &str = "create recursive view Same as ( \
                    select f.key, f.val from Facts f \
                    union \
                    select s.key, f.val from Same s, Facts f where s.val = f.val )";

/// Every scheduling mode runs a boundary on every shard it involves,
/// whichever of them fails: a query failing on shard 0 keeps nothing
/// from a query on shard 1, and both watermarks catch up.
#[test]
fn failing_shard_keeps_nothing_from_its_siblings() {
    let seen = modes().map(|mode| {
        let mut e = engine(mode);
        let failing = e.register_sql(FAILING).unwrap().expect_query();
        let count = e
            .register_sql("select count(*) from Facts f")
            .unwrap()
            .expect_query();
        e.migrate(failing, 0).unwrap();
        e.migrate(count, 1).unwrap();
        let admitted = e.on_batch("Facts", &[fact("a", 1, 1)]);
        assert!(admitted.and_then(|()| e.quiesce()).is_err(), "{mode:?}");
        let report = e.telemetry_at(Consistency::Fresh);
        let lags: Vec<u64> = report.shards.iter().map(|s| s.lag).collect();
        (values(&e.snapshot(count).unwrap()), lags)
    });
    assert_eq!(seen[0], (vec![vec![Value::Int(1)]], vec![0, 0]));
    assert!(seen.iter().all(|s| *s == seen[0]), "{seen:?}");
}

/// A clocked query that fails starves none of the clocked queries after
/// it on its shard: a heartbeat still retracts their expired rows, under
/// every scheduling mode.
#[test]
fn failing_clocked_query_keeps_no_expiry_from_its_siblings() {
    for mode in modes() {
        let cat = catalog();
        let schema = Schema::new(vec![
            Field::new("key", DataType::Text),
            Field::new("val", DataType::Int),
        ]);
        let stats = SourceStats::stream(1.0);
        cat.register_source("S", schema.into_ref(), SourceKind::Stream, stats)
            .unwrap();
        let config = EngineConfig::new().shards(1).scheduling(mode);
        let mut e = ShardedEngine::with_config(cat, config);
        e.register_sql("select sum(s.key) from S s [range 10 seconds]")
            .unwrap();
        let count = e
            .register_sql("select count(*) from S s [range 10 seconds]")
            .unwrap()
            .expect_query();
        let mut counts = Vec::new();
        for (row, beat) in [(1, 100), (101, 101)] {
            let at = SimTime::from_secs(row);
            let tuple = Tuple::new(vec![Value::Text("a".into()), Value::Int(1)], at);
            // The failing sum's errors, returned now or deferred.
            let _ = e.on_batch("S", &[tuple]);
            let _ = e.heartbeat(SimTime::from_secs(beat));
            let _ = e.quiesce();
            counts.push(values(&e.snapshot_at(count, Consistency::Cut).unwrap()));
        }
        let want = [0, 1].map(|n| vec![vec![Value::Int(n)]]);
        assert_eq!(counts, want, "{mode:?}");
    }
}

/// A query that fails on a table batch starves none of the queries after
/// it on its shard: each still applies the batch, under every scheduling
/// mode.
#[test]
fn failing_query_keeps_no_table_batch_from_its_siblings() {
    for mode in modes() {
        let config = EngineConfig::new().shards(1).scheduling(mode);
        let mut e = ShardedEngine::with_config(catalog(), config);
        e.register_sql(FAILING).unwrap();
        let count = e
            .register_sql("select count(*) from Facts f")
            .unwrap()
            .expect_query();
        let admitted = e.on_batch("Facts", &[fact("a", 1, 1)]);
        assert!(admitted.and_then(|()| e.quiesce()).is_err(), "{mode:?}");
        let rows = values(&e.snapshot(count).unwrap());
        assert_eq!(rows, vec![vec![Value::Int(1)]], "{mode:?}");
    }
}

/// A view that fails keeps no batch from the views registered after it,
/// nor from the queries reading them; the admitting call returns its
/// error, under every scheduling mode.
#[test]
fn failing_view_keeps_nothing_from_later_views() {
    for mode in modes() {
        let mut e = engine(mode);
        e.register_sql(GROW).unwrap();
        e.register_sql(SAME).unwrap();
        let same = e
            .register_sql("select s.key, s.val from Same s")
            .unwrap()
            .expect_query();
        let failed = e.on_batch("Facts", &[fact("a", 1, 1)]).unwrap_err();
        assert_eq!(failed.kind(), "execution", "{mode:?}");
        let want = vec![vec![Value::Text("a".into()), Value::Int(1)]];
        assert_eq!(values(&e.view_snapshot("Same").unwrap()), want, "{mode:?}");
        assert_eq!(values(&e.snapshot(same).unwrap()), want, "{mode:?}");
    }
}

/// A query that fails — its error returned by the admitting call or,
/// deferred, by the next one — keeps no batch from the views over the
/// same source, nor from the queries reading them.
#[test]
fn failing_query_keeps_nothing_from_views() {
    for mode in modes() {
        let mut e = engine(mode);
        e.register_sql(SAME).unwrap();
        e.register_sql(FAILING).unwrap();
        let same = e
            .register_sql("select s.key, s.val from Same s")
            .unwrap()
            .expect_query();
        let mut errors = 0;
        for row in [fact("a", 1, 1), fact("b", 2, 2)] {
            errors += usize::from(e.on_batch("Facts", &[row]).is_err());
            // Drain without observing: a deferred error stays for the
            // next admission to return.
            e.telemetry_at(Consistency::Fresh);
        }
        errors += usize::from(e.quiesce().is_err());
        assert!(errors >= 1, "{mode:?}");
        let mut rows = values(&e.view_snapshot("Same").unwrap());
        rows.sort();
        let want = vec![
            vec![Value::Text("a".into()), Value::Int(1)],
            vec![Value::Text("b".into()), Value::Int(2)],
        ];
        assert_eq!(rows, want, "{mode:?}");
        let mut rows = values(&e.snapshot(same).unwrap());
        rows.sort();
        assert_eq!(rows, want, "{mode:?}");
    }
}
