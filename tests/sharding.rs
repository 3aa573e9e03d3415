//! Integration: sharded pipeline execution. The shard layer is a pure
//! placement decision — N-shard engines must be observationally
//! identical to the unsharded engine on any workload, including one
//! that churns the query set through register / deregister / pause /
//! resume / migrate — and the scheduling modes must agree. The churn
//! properties are rows of the equivalence kit (`tests/common/`): every
//! configuration is checked after every event against the naive model
//! and the private path, with push == poll and `Cut` == `Fresh` riding
//! along.

mod common;

use std::sync::Arc;

use common::{seed_base, seeds, Cell, Config, Mode, Row, Weights, Workload, F, I};
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::stream::{
    render_json, render_prometheus, Consistency, EngineConfig, QueryHandle, QuerySpec, Scheduling,
    ShardedEngine,
};
use smartcis::types::DataType::{Float, Int};
use smartcis::types::{SimTime, Tuple, Value};

fn catalog() -> Arc<Catalog> {
    let stream = |rate| SourceStats::stream(rate).with_distinct("sensor", 4);
    // `Alarms` is scanned only by the log-sharing plans' stream ⋈ stream
    // join.
    common::catalog(&[
        (
            "Readings",
            stream(2.0),
            &[("sensor", Int), ("value", Float)],
        ),
        ("Alarms", stream(0.5), &[("sensor", Int), ("level", Int)]),
    ])
}

fn value_rows(rows: &[Tuple]) -> Vec<Vec<Value>> {
    rows.iter().map(|t| t.values().to_vec()).collect()
}

fn reading(sensor: i64, value: f64, sec: u64) -> Tuple {
    Tuple::new(
        vec![Value::Int(sensor), Value::Float(value)],
        SimTime::from_secs(sec),
    )
}

/// The mixed standing-query workload: filter, join (self-join on
/// sensor), grouped aggregate, global aggregate, tumbling window, and
/// ROWS window.
const PLANS: &[&str] = &[
    "select r.sensor, r.value from Readings r where r.value > 40",
    "select a.value, b.value from Readings a, Readings b \
     where a.sensor = b.sensor ^ a.value < b.value",
    "select r.sensor, avg(r.value) from Readings r group by r.sensor",
    "select count(*) from Readings r",
    "select sum(r.value) from Readings r [tumbling 10 seconds]",
    "select r.sensor, r.value from Readings r [rows 5]",
];

/// On top of [`PLANS`], what the source-log row registers: further
/// window specs over the same stream (so one log carries cursors of
/// five different specs), a stream ⋈ stream join, and a self-join whose
/// two scans window the one log differently.
const LOG_PLANS: &[&str] = &[
    "select r.sensor, r.value from Readings r [range 7 seconds] where r.value > 20",
    "select r.sensor, count(*) from Readings r [rows 9] group by r.sensor",
    "select r.value, a.level from Readings r [rows 6], Alarms a [range 12 seconds] \
     where r.sensor = a.sensor",
    "select a.value, b.value from Readings a [rows 4], Readings b [tumbling 6 seconds] \
     where a.sensor = b.sensor ^ a.value < b.value",
];

/// The big-state plan mix for the spill row: wide ROWS and RANGE
/// windows, an unbounded self-join (both KeyedState sides grow), and
/// aggregates — the structures that hold (and spill) operator state.
const BIG_STATE_PLANS: &[&str] = &[
    "select r.sensor, r.value from Readings r [rows 40]",
    "select r.sensor, avg(r.value) from Readings r [range 30 seconds] group by r.sensor",
    "select a.value, b.value from Readings a, Readings b \
     where a.sensor = b.sensor ^ a.value < b.value",
    "select sum(r.value) from Readings r [tumbling 20 seconds]",
    "select r.sensor, count(*) from Readings r group by r.sensor",
];

fn reading_cells(rng: &mut StdRng, source: &'static str, _: i64) -> Vec<Cell> {
    let sensor = I(rng.gen_range(0..4i64));
    match source {
        "Readings" => vec![sensor, F(rng.gen_range(0..100) as f64)],
        _ => vec![sensor, I(rng.gen_range(0..5i64))],
    }
}

/// [`PLANS`] then [`LOG_PLANS`] (the template index), every plan
/// registered once up front and then churned.
fn churn(templates: usize, weights: Weights) -> Workload {
    let mut w = Workload {
        streams: &[("Readings", 1)],
        templates: (templates, 1),
        push: true,
        weights,
        ..Workload::new(catalog, reading_cells, |t, _| {
            PLANS.iter().chain(LOG_PLANS).nth(t).unwrap().to_string()
        })
    };
    w.opening = w.every_template();
    w
}

/// Ingest, heartbeats and register / deregister / pause / resume /
/// migrate, in proportion `migrate` to the rest.
fn lifecycle(migrate: u32) -> Weights {
    Weights {
        ingest: 8,
        heartbeat: 4,
        register: 2,
        deregister: 2,
        pause: 1,
        resume: 1,
        migrate,
        ..Weights::default()
    }
}

/// One shard inline; two and four on the worker pool, the default of a
/// multi-shard engine.
fn widths() -> Vec<Config> {
    let pool = [2, 4].map(|n| Config::node(n, Mode::Pool));
    [Config::node(1, Mode::Seq)]
        .into_iter()
        .chain(pool)
        .collect()
}

/// Property: a `ShardedEngine` with N ∈ {1, 2, 4} shards equals the
/// model after every event of a randomized batch/heartbeat workload over
/// the mixed plan set.
#[test]
fn shard_count_invariance_property() {
    shard_count_row().check(seeds(4));
}

fn shard_count_row() -> Row {
    let weights = Weights {
        ingest: 7,
        heartbeat: 3,
        ..Weights::default()
    };
    let mut w = churn(PLANS.len(), weights);
    (w.push, w.events) = (false, 25);
    w.opening = w.every_template();
    Row::new("shard_count_row()", w, widths())
}

/// Property: shard-count invariance holds under interleaved register /
/// deregister / pause / resume (with knob retunes and `Cut` reads), and
/// every push subscription's accumulated deltas reconstruct the polled
/// snapshot at every boundary, for N ∈ {1, 2, 4}. An inline engine's
/// `Cut` telemetry never lags.
#[test]
fn lifecycle_churn_shard_invariance_with_push_subscriptions() {
    lifecycle_row().check(seeds(3));
}

fn lifecycle_row() -> Row {
    let weights = Weights {
        tune: 1,
        read: 1,
        ..lifecycle(0)
    };
    Row::new("lifecycle_row()", churn(PLANS.len(), weights), widths())
}

/// Property: live migration is invisible. Forced migrations across
/// N ∈ {1, 2, 4} shards leave every engine equal to the model and each
/// query's counters equal to its private run (a moved runtime carries
/// them; nothing is replayed); the multi-shard engines really migrate,
/// and the trace plane's latency samples — which ride the sink through
/// extract / install — number the same at every shard count.
#[test]
fn migration_churn_shard_invariance_with_push_subscriptions() {
    // Moves per multi-shard configuration and latency samples, over the
    // seeds: an unlucky seed can draw only the query's own shard, or
    // retire every query before a batch reaches a sink.
    let (mut moved, mut latencies) = ([0, 0], 0);
    for run in migration_row().check(seeds(3)) {
        let engines: Vec<_> = run.engines().collect();
        for (moves, o) in moved.iter_mut().zip(&engines[1..]) {
            *moves += o.migrations;
        }
        let latency = |o: &&common::Outcome| o.samples.last().map_or(0, |s| s.latency_samples);
        let counts: Vec<u64> = engines.iter().map(latency).collect();
        latencies += counts[0];
        assert!(
            counts.windows(2).all(|w| w[0] == w[1]),
            "latency samples diverged across shard counts: {counts:?} (seed {})",
            run.seed
        );
    }
    assert!(
        moved.iter().all(|&m| m > 0),
        "a multi-shard engine never migrated: {moved:?}"
    );
    assert!(latencies > 0, "no latencies recorded");
}

fn migration_row() -> Row {
    Row::new(
        "migration_row()",
        churn(PLANS.len(), lifecycle(4)),
        widths(),
    )
}

/// The back-fill row's plans: a resident `[rows 4]` scan of `Readings`
/// (kept in every opening slot, so the logs it pins hold only a short
/// suffix), migrating `[range]` scans beside it, one of them half of a
/// self-join whose sides index the log's rows, and the only windows over
/// `Alarms` — whose logs a move leaves behind entirely.
const BACKFILL_PLANS: &[&str] = &[
    "select r.sensor, r.value from Readings r [rows 4]",
    "select r.sensor, avg(r.value) from Readings r [range 30 seconds] group by r.sensor",
    "select a.sensor, a.level from Alarms a [range 20 seconds] where a.level > 1",
    "select a.value, b.value from Readings a [range 12 seconds], Readings b [rows 4] \
     where a.sensor = b.sensor ^ a.value < b.value",
];

/// Property: a moved cursor rejoins its recipient's log at its position,
/// and the rows that log lacks — all of them for a source with no log
/// there, the ones below the floor a resident `[rows 4]` scan pins
/// otherwise — are back-filled under their ids. Under forced migrations
/// at 2 / 4 shards × every scheduling mode and on 1 / 2 / 4-node
/// clusters, every query equals the model and its private run after
/// every event, every log holds each row at its arrival number, and rows
/// really were back-filled.
#[test]
fn migration_backfills_what_the_recipient_lacks() {
    let (mut backfilled, mut moves) = (0, 0);
    for run in backfill_row().check(seeds(3)) {
        for o in run.engines() {
            backfilled += o.samples.last().map_or(0, |s| s.backfilled);
            moves += o.migrations;
        }
    }
    assert!(
        backfilled > 0 && moves > 0,
        "{backfilled} rows back-filled in {moves} moves"
    );
}

fn backfill_row() -> Row {
    let mut w = Workload {
        streams: &[("Readings", 3), ("Alarms", 1)],
        templates: (BACKFILL_PLANS.len(), 1),
        push: true,
        weights: Weights {
            migrate: 6,
            ..lifecycle(0)
        },
        events: 70,
        jump: (1, 8),
        keep: &[0, 1, 2, 3],
        ..Workload::new(catalog, reading_cells, |t, _| BACKFILL_PLANS[t].into())
    };
    w.opening = w.register_all([(0, 0), (0, 0), (0, 0), (0, 0), (1, 0), (2, 0), (3, 0)]);
    let mut configs = Config::matrix(&[2, 4]);
    configs.extend([1, 2, 4].map(|n| Config::cluster(n, Mode::Seq)));
    Row::new("backfill_row()", w, configs)
}

/// Property: scheduling determinism. `Deterministic(seed)` defers
/// boundary tasks in the same bounded per-shard queues the pool uses
/// and replays a fixed seeded interleaving; under full churn it stays
/// event-for-event equal to the model, as does inline sequential
/// execution, at N ∈ {1, 2, 4} — across 8 seeds. The interleavings
/// really deferred work (some queue held two boundaries), and migrations
/// happened.
#[test]
fn deterministic_scheduling_matches_sequential_under_full_churn() {
    let runs = deterministic_row().check(seeds(8));
    let det = runs
        .iter()
        .flat_map(|r| r.engines().filter(|o| o.label.contains("Det")));
    let det: Vec<&common::Outcome> = det.collect();
    let deepest = det.iter().map(|o| o.peak(|s| s.high_water)).max();
    assert!(
        deepest >= Some(2),
        "deterministic scheduling never deferred more than one boundary"
    );
    let migrations: u64 = det.iter().map(|o| o.migrations).sum();
    assert!(migrations > 0, "forced migrations never happened");
}

fn deterministic_row() -> Row {
    let weights = Weights {
        migrate: 3,
        ..lifecycle(0)
    };
    let mut w = churn(PLANS.len(), weights);
    w.events = 50;
    let configs = [1, 2, 4]
        .into_iter()
        .flat_map(|n| {
            [
                Config::node(n, Mode::Det).depth(4),
                Config::node(n, Mode::Seq),
            ]
        })
        .collect();
    Row::new("deterministic_row()", w, configs)
}

/// Property: source-log execution is invisible. Every stream scan — any
/// window spec, joins and self-joins included — is a cursor on its
/// shard's one log of that source, and under full churn (late cursors,
/// pause / resume, forced migration) at N ∈ {1, 2, 4} shards under every
/// scheduling mode, each query equals the model and its private run
/// (counters included). Sharing really engaged — both streams had a log
/// and one log carried a cursor per plan — and a 1-shard engine's logs
/// never retain more rows than the private windows they replace.
#[test]
fn shared_subplan_churn_matches_private_execution() {
    let plans = PLANS.len() + LOG_PLANS.len();
    for run in shared_subplan_row().check(seeds(3)) {
        let private = &run.of("Private").samples;
        let mut engaged = (0, 0);
        for o in run.engines() {
            engaged.0 = engaged.0.max(o.peak(|s| s.resident.source_logs));
            engaged.1 = engaged.1.max(o.peak(|s| s.resident.log_cursors));
            if !o.label.starts_with("1 ") {
                continue;
            }
            for (s, p) in o.samples.iter().zip(private) {
                assert!(
                    s.resident.window_tuples <= p.resident.window_tuples,
                    "{}: logs retain more than private windows would (seed {}, event {})",
                    o.label,
                    run.seed,
                    s.step
                );
            }
        }
        assert!(
            engaged.0 >= 2 && engaged.1 >= plans,
            "sharing never engaged: {engaged:?} (seed {})",
            run.seed
        );
    }
}

fn shared_subplan_row() -> Row {
    let mut w = churn(PLANS.len() + LOG_PLANS.len(), lifecycle(2));
    (w.streams, w.events, w.batch) = (&[("Readings", 5), ("Alarms", 1)], 70, (1, 12));
    w.opening = w.every_template();
    Row::new("shared_subplan_row()", w, Config::matrix(&[1, 2, 4]))
}

/// Property: operator state under an aggressive spill tier is
/// observationally identical to resident state under full churn on a
/// big-state workload, and the spill tier really pages state out.
#[test]
fn spilled_state_matches_resident_state_under_churn() {
    for run in spill_row().check(seeds(2)) {
        let spilled = run
            .engines()
            .map(|o| o.peak(|s| s.resident.spilled_bytes))
            .max();
        assert!(
            spilled > Some(0),
            "spill tier never engaged (seed {})",
            run.seed
        );
    }
}

fn spill_row() -> Row {
    let mut w = churn(BIG_STATE_PLANS.len(), lifecycle(2));
    w.sql = |t, _| BIG_STATE_PLANS[t].into();
    (w.events, w.batch) = (50, (1, 30));
    w.opening = w.every_template();
    let configs = vec![
        Config::node(2, Mode::Pool),
        Config::node(2, Mode::Pool).spill(),
    ];
    Row::new("spill_row()", w, configs)
}

/// Regression (ISSUE 5 acceptance): a pathologically slow query must
/// not stall its siblings. Under pool scheduling, ingest admission
/// returns once the boundary is enqueued (blocking only on the bounded
/// queue, never on processing), sibling queries on other shards stay
/// fresh batch-for-batch while the slow shard's backlog drains, and the
/// backlog never exceeds the configured queue depth.
#[test]
fn slow_query_isolation_keeps_siblings_fresh_and_admission_bounded() {
    use std::time::Duration;

    let depth = 4usize;
    let mut e = ShardedEngine::with_config(
        catalog(),
        EngineConfig::new()
            .shards(2)
            .scheduling(Scheduling::Pool)
            .workers(2)
            .queue_depth(depth),
    );
    let slow = e
        .register(QuerySpec::sql(
            "select r.sensor, r.value from Readings r where r.value >= 0",
        ))
        .unwrap()
        .expect_query();
    let fast = e
        .register(QuerySpec::sql("select count(*) from Readings r"))
        .unwrap()
        .expect_query();
    // Pin the two queries to different shards and make one pathological:
    // every batch it processes drags 3 ms — far slower than ingest.
    e.migrate(slow, 0).unwrap();
    e.migrate(fast, 1).unwrap();
    e.set_query_drag(slow, Some(Duration::from_millis(3)))
        .unwrap();

    let mut slow_shard_lagged = false;
    for i in 0..30u64 {
        e.on_batch("Readings", &[reading((i % 4) as i64, i as f64, 1)])
            .unwrap();
        slow_shard_lagged |= e.executor_stats().pending[0] > 0;
        // Sibling freshness: the fast query's snapshot reflects every
        // admitted batch immediately, no matter how far the slow shard
        // is behind.
        let snap = e.snapshot(fast).unwrap();
        assert_eq!(
            snap[0].values(),
            &[Value::Int((i + 1) as i64)],
            "sibling went stale at batch {i}"
        );
    }
    assert!(
        slow_shard_lagged,
        "ingest admission was gated on the slow shard (its queue was \
         always empty after on_batch returned)"
    );
    let stats = e.executor_stats();
    assert!(
        stats.high_water.iter().all(|&h| h <= depth),
        "admission ran past the configured queue depth: {:?}",
        stats.high_water
    );
    assert!(
        stats.admission_stall_seconds > 0.0,
        "backpressure never engaged on a 30-batch burst against a 3 ms/batch consumer"
    );

    // Drain: the slow query catches up completely, nothing was lost.
    e.quiesce().unwrap();
    // One executor cell per shard.
    assert_eq!(e.executor_stats().pending, vec![0, 0]);
    assert_eq!(e.snapshot(slow).unwrap().len(), 30, "slow query lost rows");
}

/// Regression: `Cut` reads are lock-only. They must observe a
/// boundary-consistent past state without draining the deferred queues
/// a `Fresh` barrier would, and a continuous cut-telemetry poll must
/// report the backlog as per-shard watermark lag instead of stalling
/// ingest to clear it.
#[test]
fn watermark_cut_reads_observe_without_draining() {
    let mut e = ShardedEngine::with_config(
        catalog(),
        EngineConfig::new()
            .shards(2)
            .deterministic(0xCA7 ^ seed_base())
            .queue_depth(16),
    );
    let handles: Vec<QueryHandle> = PLANS
        .iter()
        .map(|sql| e.register_sql(sql).unwrap().expect_query())
        .collect();
    // Ingest until the deterministic interleaving has actually deferred
    // work — a drained engine would make the regression vacuous.
    let mut i = 0u64;
    while e.executor_stats().pending.iter().sum::<usize>() == 0 {
        assert!(
            i < 200,
            "deterministic scheduling never deferred a boundary"
        );
        e.on_batch("Readings", &[reading((i % 4) as i64, i as f64, i)])
            .unwrap();
        i += 1;
    }
    let before = e.executor_stats().pending;

    // A cut telemetry poll surfaces the backlog as watermark lag...
    let cut = e.telemetry_at(Consistency::Cut);
    assert!(
        cut.max_lag() > 0,
        "deferred boundaries must show up as watermark lag"
    );
    // ...and drains nothing: the queues are exactly as they were.
    assert_eq!(
        e.executor_stats().pending,
        before,
        "cut telemetry drained a queue"
    );

    // A cut snapshot is equally non-invasive.
    e.snapshot_at(handles[0], Consistency::Cut).unwrap();
    assert_eq!(
        e.executor_stats().pending,
        before,
        "cut snapshot drained a queue"
    );

    // The barrier drains; at the drained watermark the two consistency
    // levels are byte-identical, and the lag collapses to zero.
    let fresh = value_rows(&e.snapshot(handles[0]).unwrap());
    assert_eq!(
        value_rows(&e.snapshot_at(handles[0], Consistency::Cut).unwrap()),
        fresh
    );
    e.quiesce().unwrap();
    assert_eq!(e.telemetry_at(Consistency::Cut).max_lag(), 0);
}

/// Every scheduling mode — the inline sequential loop, the worker pool,
/// and a seeded deterministic interleaving — must produce the same
/// results: same shards, same slices, same snapshots. The mode is fixed
/// at construction via `EngineConfig`.
/// Window work is shared exactly: 100 queries behind one window are one
/// cursor class, so every admitted batch is windowed
/// twice (that class + the one query with a window of its own) and
/// delivered 101 times; a heartbeat that expires the shared window
/// materializes one retraction batch for its 100 members. The counters
/// are exact, so this holds under every scheduling mode — read `Fresh`,
/// since pool-scheduled admits may still be queued.
#[test]
fn window_sharing_counters_are_exact_under_every_scheduling_mode() {
    for scheduling in [
        Scheduling::Sequential,
        Scheduling::Pool,
        Scheduling::Deterministic(0x101 ^ seed_base()),
    ] {
        let mut e = ShardedEngine::with_config(
            catalog(),
            EngineConfig::new().shards(1).scheduling(scheduling),
        );
        let shared: Vec<QueryHandle> = (0..100)
            .map(|i| {
                let sql = format!(
                    "select r.sensor, r.value from Readings r [range 30 seconds] \
                     where r.value > {i}"
                );
                e.register_sql(&sql).unwrap().expect_query()
            })
            .collect();
        let own = e
            .register_sql("select r.sensor, r.value from Readings r [rows 5]")
            .unwrap()
            .expect_query();
        let work = |e: &ShardedEngine| {
            let s = &e.telemetry_at(Consistency::Fresh).shards[0];
            (s.window_batches, s.window_deliveries, s.cursor_classes)
        };
        assert_eq!(work(&e), (0, 0, 2), "{scheduling:?}");
        for b in 0..8u64 {
            let batch: Vec<Tuple> = (0..16)
                .map(|i| reading(i % 4, (b * 16 + i as u64) as f64, b))
                .collect();
            e.on_batch("Readings", &batch).unwrap();
            assert_eq!(
                work(&e),
                (2 * (b + 1), 101 * (b + 1), 2),
                "{scheduling:?}, batch {b}"
            );
        }
        let rs = e.resident_state();
        assert_eq!((rs.log_cursors, rs.cursor_classes), (101, 2));
        // Every member saw the whole feed through the one shared batch.
        assert_eq!(e.snapshot(shared[0]).unwrap().len(), 127, "{scheduling:?}");
        assert_eq!(e.snapshot(shared[99]).unwrap().len(), 28, "{scheduling:?}");
        assert_eq!(e.snapshot(own).unwrap().len(), 5, "{scheduling:?}");
        // RANGE expires on the clock, ROWS never does: one batch, 100
        // deliveries.
        e.heartbeat(SimTime::from_secs(60)).unwrap();
        assert_eq!(work(&e), (17, 908, 2), "{scheduling:?}");
        let report = e.telemetry_at(Consistency::Fresh);
        let prom = render_prometheus(&report);
        for line in [
            "aspen_shard_cursor_classes{shard=\"0\"} 2",
            "aspen_shard_window_batches_total{shard=\"0\"} 17",
            "aspen_shard_window_deliveries_total{shard=\"0\"} 908",
        ] {
            assert!(prom.contains(line), "{line} missing from:\n{prom}");
        }
        assert!(render_json(&report)
            .contains("\"cursor_classes\":2,\"window_batches\":17,\"window_deliveries\":908"));
        assert!(e.snapshot(shared[0]).unwrap().is_empty());
        assert_eq!(e.snapshot(own).unwrap().len(), 5);
    }
}

#[test]
fn parallel_fan_out_matches_sequential() {
    let run = |scheduling: Scheduling| -> Vec<Vec<Vec<Value>>> {
        let mut e = ShardedEngine::with_config(
            catalog(),
            EngineConfig::new().shards(4).scheduling(scheduling),
        );
        let handles: Vec<_> = PLANS
            .iter()
            .map(|sql| e.register_sql(sql).unwrap().expect_query())
            .collect();
        for i in 0..60u64 {
            e.on_batch(
                "Readings",
                &[reading((i % 4) as i64, (i * 7 % 100) as f64, i / 2)],
            )
            .unwrap();
            if i % 10 == 9 {
                e.heartbeat(SimTime::from_secs(i)).unwrap();
            }
        }
        handles
            .iter()
            .map(|&h| value_rows(&e.snapshot(h).unwrap()))
            .collect()
    };
    let sequential = run(Scheduling::Sequential);
    assert_eq!(sequential, run(Scheduling::Pool));
    assert_eq!(
        sequential,
        run(Scheduling::Deterministic(0x5EED ^ seed_base()))
    );
}

/// The plan cache has no off switch; its oracle is the path that never
/// touches it. For dashboard-style templates at several constants each,
/// `register_sql` (a miss, then template hits, then an exact hit) and
/// `register_plan` of the freshly parsed-and-bound statement must yield
/// equal snapshots after the same seeded ingest and heartbeats.
#[test]
fn cached_registration_matches_direct_bind() {
    use rand::Rng;
    use smartcis::sql::{compile, BoundQuery};
    use smartcis::types::rng::seeded;

    // `{c}` is the template's constant.
    let templates = [
        "select r.sensor, r.value from Readings r [range 20 seconds] where r.value > {c}",
        "select r.value from Readings r [range 20 seconds] where r.sensor = {c}",
        "select r.sensor, avg(r.value) from Readings r [range 20 seconds] \
         where r.value < {c} group by r.sensor",
        "select r.sensor, count(*) from Readings r [range 20 seconds] \
         where r.value > {c} group by r.sensor",
        "select count(*) from Readings r [range 20 seconds] where r.value < {c}",
        "select r.sensor, r.value from Readings r [range 20 seconds] \
         where r.value > {c} order by r.value desc limit 5",
    ];
    let constants = ["1", "3", "40", "75"];
    // Every template at every constant, then the first constant again
    // (the exact-tier repeat).
    let sqls: Vec<String> = templates
        .iter()
        .flat_map(|t| {
            constants
                .iter()
                .chain(&constants[..1])
                .map(move |c| t.replace("{c}", c))
        })
        .collect();

    for seed in seeds(3) {
        let mut cached = ShardedEngine::new(catalog(), 2);
        let direct_cat = catalog();
        let mut direct = ShardedEngine::new(Arc::clone(&direct_cat), 2);
        let handles: Vec<(QueryHandle, QueryHandle)> = sqls
            .iter()
            .map(|sql| {
                let BoundQuery::Select(bound) = compile(sql, &direct_cat).unwrap() else {
                    panic!("{sql} is a select");
                };
                (
                    cached.register_sql(sql).unwrap().expect_query(),
                    direct.register_plan(&bound.plan).unwrap(),
                )
            })
            .collect();
        let stats = cached.plan_cache_stats().unwrap();
        assert_eq!(stats.misses, templates.len() as u64);
        assert_eq!(
            stats.template_hits,
            (templates.len() * (constants.len() - 1)) as u64
        );
        assert_eq!(stats.exact_hits, templates.len() as u64);
        let untouched = direct.plan_cache_stats().unwrap();
        assert_eq!(
            (
                untouched.misses,
                untouched.template_hits,
                untouched.exact_hits
            ),
            (0, 0, 0),
            "register_plan must bypass the cache"
        );

        let mut rng = seeded(0xCAC4E ^ seed);
        let mut now = 0u64;
        for step in 0..40 {
            let batch: Vec<Tuple> = (0..rng.gen_range(1..8usize))
                .map(|_| {
                    reading(
                        rng.gen_range(0..4i64),
                        rng.gen_range(0..100i64) as f64,
                        now + rng.gen_range(0..2u64),
                    )
                })
                .collect();
            cached.on_batch("Readings", &batch).unwrap();
            direct.on_batch("Readings", &batch).unwrap();
            now += 1;
            if rng.gen_bool(0.3) {
                now += rng.gen_range(1..15u64);
                cached.heartbeat(SimTime::from_secs(now)).unwrap();
                direct.heartbeat(SimTime::from_secs(now)).unwrap();
            }
            for (sql, &(c, d)) in sqls.iter().zip(&handles) {
                assert_eq!(
                    value_rows(&cached.snapshot(c).unwrap()),
                    value_rows(&direct.snapshot(d).unwrap()),
                    "seed {seed}, step {step}: {sql}"
                );
            }
        }
    }
}

/// ISSUE 10 acceptance: `state_bytes` is conserved across migration.
/// The byte gauge follows the query to its new shard — per-query value
/// unchanged, donor shard's total drops, recipient's rises, engine
/// total invariant — and the snapshot is untouched.
#[test]
fn state_bytes_travel_with_migration() {
    let mut e = ShardedEngine::new(catalog(), 2);
    // Operator state: an unbounded `group by` over many keys, whose
    // window pins no log rows.
    let fat = e
        .register_sql("select r.value, count(*) from Readings r [unbounded] group by r.value")
        .unwrap()
        .expect_query();
    let _cheap = e
        .register_sql("select r.sensor, r.value from Readings r where r.value > 40")
        .unwrap()
        .expect_query();
    // 60 tuples, one group each.
    for i in 0..60u64 {
        e.on_batch(
            "Readings",
            &[reading((i % 4) as i64, (i * 7 % 100) as f64, i / 4)],
        )
        .unwrap();
    }
    let snap_before = value_rows(&e.snapshot(fat).unwrap());

    let tel = e.telemetry_at(Consistency::Fresh);
    let q = tel.queries.iter().find(|q| q.query == fat.0).unwrap();
    let (from, bytes) = (q.shard, q.state_bytes);
    assert!(bytes > 0, "window query reports no state bytes");
    let shard_bytes_before: Vec<u64> = tel
        .shards
        .iter()
        .map(|s| s.footprint.resident as u64)
        .collect();
    let engine_bytes_before = e.resident_state().state_bytes;

    let to = 1 - from;
    e.migrate(fat, to).unwrap();

    let tel = e.telemetry_at(Consistency::Fresh);
    let q = tel.queries.iter().find(|q| q.query == fat.0).unwrap();
    assert_eq!(q.shard, to, "query did not move");
    assert_eq!(q.state_bytes, bytes, "state_bytes changed in flight");
    let shard_bytes_after: Vec<u64> = tel
        .shards
        .iter()
        .map(|s| s.footprint.resident as u64)
        .collect();
    assert_eq!(
        shard_bytes_before[from] - bytes,
        shard_bytes_after[from],
        "donor shard kept the moved bytes"
    );
    assert_eq!(
        shard_bytes_before[to] + bytes,
        shard_bytes_after[to],
        "recipient shard did not gain the moved bytes"
    );
    assert_eq!(
        engine_bytes_before,
        e.resident_state().state_bytes,
        "engine-wide bytes not conserved"
    );
    assert_eq!(
        snap_before,
        value_rows(&e.snapshot(fat).unwrap()),
        "snapshot changed across migration"
    );
}

/// ISSUE 10 acceptance (non-vacuity): the byte term really plans moves.
/// Three memory-fat window queries sit on shard 0 and two tiny-window
/// queries on shard 1. Every query does the same per-tuple work, so a
/// CPU-only planner sees five equal-weight queries split 3–2 — no move
/// shrinks that gap, and it holds still. The byte gauges are wildly
/// uneven (64-row windows vs 2-row), so the blended score finds an
/// improving move and drains the memory-hot shard.
#[test]
fn byte_aware_rebalancer_drains_memory_fat_shard() {
    use smartcis::stream::RebalanceConfig;

    let mut e = ShardedEngine::with_config(
        catalog(),
        EngineConfig::new().shards(2).rebalance(RebalanceConfig {
            threshold: 1.05,
            patience: 1,
            max_moves: 1,
            interval_boundaries: 1,
            bytes_weight: 1000.0,
            ..Default::default()
        }),
    );
    let register = |e: &mut ShardedEngine, sql: String| -> QueryHandle {
        e.register_sql(&sql).unwrap().expect_query()
    };
    // The fat ones hold their bytes in operator state: an unbounded
    // `group by` over a key that never repeats. The cheap ones window
    // the shared log and hold almost nothing of their own.
    let fats: Vec<QueryHandle> = ["count(*)", "sum(r.sensor)", "max(r.sensor)"]
        .iter()
        .map(|agg| {
            let sql = format!("select r.value, {agg} from Readings r [unbounded] group by r.value");
            register(&mut e, sql)
        })
        .collect();
    let cheaps: Vec<QueryHandle> = ["[rows 2]", "[rows 3]"]
        .iter()
        .map(|w| {
            register(
                &mut e,
                format!("select r.sensor, r.value from Readings r {w}"),
            )
        })
        .collect();
    // Deliberate imbalance: all the retained state on shard 0.
    for h in &fats {
        e.migrate(*h, 0).unwrap();
    }
    for h in &cheaps {
        e.migrate(*h, 1).unwrap();
    }
    let manual_moves = e.migration_count();

    // Each batch boundary is a rebalance observation (interval 1,
    // patience 1): the first sets marks, a later one plans the drain
    // once the fat windows have outgrown the tiny ones (whose dead
    // segments are reclaimed as they seal every 32 rows).
    for i in 0..60u64 {
        let batch: Vec<Tuple> = (0..4)
            .map(|j| reading(j as i64, (i * 4 + j) as f64, i))
            .collect();
        e.on_batch("Readings", &batch).unwrap();
    }

    let tel = e.telemetry_at(Consistency::Fresh);
    let fat_shards: Vec<usize> = fats
        .iter()
        .map(|h| {
            tel.queries
                .iter()
                .find(|q| q.query == h.0)
                .expect("fat query in telemetry")
                .shard
        })
        .collect();
    assert!(
        e.migration_count() > manual_moves,
        "byte-aware controller never planned a move"
    );
    assert!(
        fat_shards.iter().any(|&s| s != 0),
        "memory-fat shard never drained: fat queries still at {fat_shards:?}"
    );
    let shard_bytes: Vec<u64> = tel
        .shards
        .iter()
        .map(|s| s.footprint.resident as u64)
        .collect();
    assert!(
        shard_bytes.iter().all(|&b| b > 0),
        "bytes did not spread across shards: {shard_bytes:?}"
    );
}

// ---------------------------------------------------------------------------
// Indexed join sides ≡ materialised ≡ model

/// The join row's sources: two streams whose keys meet across numeric
/// types and sometimes hold NULL, and a retained table.
fn join_catalog() -> Arc<Catalog> {
    let stream = SourceStats::stream(1.0);
    common::catalog(&[
        ("A", stream.clone(), &[("k", Int), ("v", Int)]),
        ("B", stream, &[("k", Float), ("v", Int)]),
        ("T", SourceStats::table(8), &[("k", Int), ("v", Int)]),
    ])
}

/// `rows 1` stands in for an empty window (SQL has no `rows 0`).
const SPECS: [&str; 6] = [
    "[rows 1]",
    "[rows 3]",
    "[rows 64]",
    "[range 7 seconds]",
    "[tumbling 5 seconds]",
    "[unbounded]",
];

/// The opening hand pins the shapes a random draw may miss: the
/// self-join windows one log two ways (template 19), a table join (38),
/// and one join has both sides on the clock (69), so a heartbeat expires
/// matching rows left and right at once.
const PINNED: [(usize, usize); 6] = [(19, 0), (38, 20), (69, 0), (48, 35), (16, 0), (77, 10)];

/// Template `t`: `A x` under spec `t % 6` joined with — by `t / 6` — `A`
/// (the self-join on one log), the table `T`, or `B`, each under a spec;
/// constant `c > 0` adds `x.v > c - 1` below the join.
fn join_sql(t: usize, c: usize) -> String {
    let right = match t / 6 {
        r @ 0..=5 => format!("A y {}", SPECS[r]),
        6 => "T y [unbounded]".into(),
        r => format!("B y {}", SPECS[r - 7]),
    };
    let filter = match c {
        0 => String::new(),
        c => format!(" and x.v > {}", c - 1),
    };
    let left = SPECS[t % 6];
    format!("select x.v, y.v from A x {left}, {right} where x.k = y.k{filter}")
}

/// A key that is NULL, or an `Int`, or on `B` a `Float` that sometimes
/// equals no `Int`.
fn join_cells(rng: &mut StdRng, source: &'static str, _: i64) -> Vec<Cell> {
    let key = rng.gen_range(0..4i64);
    let key = match (rng.gen_range(0..8u32), source) {
        (0, _) => common::N,
        (1, "B") => F(key as f64 + 0.5),
        (_, "B") => F(key as f64),
        _ => I(key),
    };
    vec![key, I(rng.gen_range(0..100i64))]
}

/// Property: a join side fed by a window keeps row ids, and nothing
/// observable changes. Joins whose sides are drawn from every window spec
/// over two streams — one of them a self-join on one log — or a retained
/// table, with and without a filter below the join, are fed batches
/// larger than the row windows, pane changes inside a batch, duplicate
/// and late-stamped tuples, NULL and cross-type keys, and heartbeats,
/// under migrate / pause / resume / deregister / register. After every
/// event each query equals the nested loop over the model's windows and
/// its private run — on shared logs under every scheduling mode and on a
/// spilling engine (ids resolve through paged-out segments). A query on
/// cursors holds no more bytes than its private twin, and until the
/// first lifecycle event — every window attached at row 0, so a log is
/// byte for byte its longest private window — neither does the engine.
fn indexed_join_row() -> Row {
    let mut w = Workload {
        streams: &[("A", 2), ("B", 1)],
        tables: &["T"],
        templates: (78, 61),
        weights: Weights {
            ingest: 12,
            table: 4,
            heartbeat: 5,
            register: 1,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 1,
            subscribe: 1,
            ..Weights::default()
        },
        events: 130,
        batch: (0, 10),
        jump: (0, 6),
        awkward: 40,
        ..Workload::new(join_catalog, join_cells, join_sql)
    };
    w.opening = w.register_all(PINNED);
    let mut configs = Config::matrix(&[2]);
    configs.push(Config::node(2, Mode::Seq).spill());
    Row::new("indexed_join_row()", w, configs)
}

#[test]
fn indexed_join_sides_match_materialised_sides_and_the_model() {
    let (mut pairs, mut on_cursors, mut spilled, mut shared) = (0, 0, 0, 0);
    for run in indexed_join_row().check(seeds(2)) {
        pairs += run.of("Private").rows_checked;
        let lifecycle =
            |e: &&common::Event| !matches!(e, common::Ingest { .. } | common::Heartbeat { .. });
        let churned = run
            .events
            .iter()
            .skip(PINNED.len())
            .position(|e| lifecycle(&e));
        let churned = churned.map_or(usize::MAX, |at| at + PINNED.len());
        let private = &run.of("Private").samples;
        for o in run.engines() {
            on_cursors += o.on_cursors;
            spilled = spilled.max(o.peak(|s| s.resident.spilled_bytes));
            shared = shared.max(o.peak(|s| s.shared_sides));
            for (s, p) in o.samples.iter().zip(private) {
                let (shared, alone) = (s.resident.state_bytes, p.resident.state_bytes);
                assert!(
                    s.step >= churned || o.label.contains("spill") || shared <= alone,
                    "{}: shared logs hold {shared} bytes, private windows {alone} (seed {}, event {})",
                    o.label,
                    run.seed,
                    s.step
                );
            }
        }
    }
    assert!(
        pairs > 10_000 && on_cursors > 1_000 && spilled > 0 && shared > 0,
        "the run exercised too little: {pairs} joined pairs, {on_cursors} byte \
         comparisons on cursors, {spilled} bytes spilled, {shared} sides sharing \
         a key index at most"
    );
    println!("at most {shared} join sides shared a key index");
}
