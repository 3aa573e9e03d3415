//! Integration: sharded pipeline execution. The shard layer is a pure
//! placement decision — N-shard engines must be observationally
//! identical to the unsharded engine on any workload, including one
//! that churns the query set through register / deregister / pause /
//! resume — and the scoped worker-thread fan-out must agree with the
//! sequential fan-out. Push subscriptions ride along: at every batch
//! boundary the deltas accumulated through a subscription must
//! reconstruct exactly the polled snapshot.

use std::collections::HashMap;
use std::sync::Arc;

use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::{
    render_json, render_prometheus, Consistency, EngineConfig, QueryHandle, QuerySpec, Scheduling,
    ShardedEngine,
};
use smartcis::types::{DataType, Field, Schema, SimTime, Tuple, Value, WindowSpec};

/// Base seed offset for the property tests, taken from `ASPEN_TEST_SEED`
/// so CI can sweep a seed matrix over the same test binary (each value
/// explores a disjoint block of workloads and interleavings).
fn seed_base() -> u64 {
    std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// `n` workload seeds starting at this run's `ASPEN_TEST_SEED` block.
fn seeds(n: u64) -> impl Iterator<Item = u64> {
    let base = seed_base().wrapping_mul(0x1000);
    (0..n).map(move |i| base.wrapping_add(i))
}

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
    // A second stream, scanned only by the log-sharing property's
    // stream ⋈ stream join.
    let alarms = Schema::new(vec![
        Field::new("sensor", DataType::Int),
        Field::new("level", DataType::Int),
    ])
    .into_ref();
    cat.register_source(
        "Alarms",
        alarms,
        SourceKind::Stream,
        SourceStats::stream(0.5).with_distinct("sensor", 4),
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

/// The mixed standing-query workload every engine under test registers:
/// filter, join (self-join on sensor), grouped aggregate, global
/// aggregate, tumbling window, and ROWS window.
const PLANS: &[&str] = &[
    "select r.sensor, r.value from Readings r where r.value > 40",
    "select a.value, b.value from Readings a, Readings b \
     where a.sensor = b.sensor ^ a.value < b.value",
    "select r.sensor, avg(r.value) from Readings r group by r.sensor",
    "select count(*) from Readings r",
    "select sum(r.value) from Readings r [tumbling 10 seconds]",
    "select r.sensor, r.value from Readings r [rows 5]",
];

fn value_rows(rows: &[Tuple]) -> Vec<Vec<Value>> {
    rows.iter().map(|t| t.values().to_vec()).collect()
}

/// Property: a `ShardedEngine` with N ∈ {1, 2, 4} shards produces
/// identical snapshots to the unsharded engine after every event of a
/// randomized batch/heartbeat workload over the mixed plan set.
#[test]
fn shard_count_invariance_property() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    for seed in seeds(4) {
        let mut rng = seeded(seed);
        // Random workload: tuple batches interleaved with heartbeats,
        // timestamps nondecreasing so windows expire mid-run.
        let mut now = 0u64;
        let mut events: Vec<(Vec<Tuple>, Option<u64>)> = Vec::new();
        for _ in 0..25 {
            let n = rng.gen_range(1..10usize);
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

        let cat = catalog();
        let mut baseline = ShardedEngine::new(Arc::clone(&cat), 1);
        let mut sharded: Vec<ShardedEngine> = [1usize, 2, 4]
            .into_iter()
            .map(|n| ShardedEngine::new(Arc::clone(&cat), n))
            .collect();
        let mut base_handles = Vec::new();
        let mut shard_handles: Vec<Vec<_>> = vec![Vec::new(); sharded.len()];
        for sql in PLANS {
            base_handles.push(baseline.register_sql(sql).unwrap().expect_query());
            for (e, handles) in sharded.iter_mut().zip(&mut shard_handles) {
                handles.push(e.register_sql(sql).unwrap().expect_query());
            }
        }

        for (step, (batch, hb)) in events.iter().enumerate() {
            baseline.on_batch("Readings", batch).unwrap();
            for e in &mut sharded {
                e.on_batch("Readings", batch).unwrap();
            }
            if let Some(hb) = hb {
                baseline.heartbeat(SimTime::from_secs(*hb)).unwrap();
                for e in &mut sharded {
                    e.heartbeat(SimTime::from_secs(*hb)).unwrap();
                }
            }
            for (e, handles) in sharded.iter().zip(&shard_handles) {
                assert_eq!(e.now(), baseline.now(), "clock diverged");
                for (sql, (&hq, &bq)) in PLANS.iter().zip(handles.iter().zip(&base_handles)) {
                    assert_eq!(
                        value_rows(&e.snapshot(hq).unwrap()),
                        value_rows(&baseline.snapshot(bq).unwrap()),
                        "'{sql}' diverged at {} shards, seed {seed}, step {step}",
                        e.shard_count(),
                    );
                }
            }
        }
        // Sharding relocates work but never changes its total.
        for e in &sharded {
            assert_eq!(e.total_ops_invoked(), baseline.total_ops_invoked());
        }
    }
}

/// One engine under the lifecycle property: the engine itself plus the
/// per-query client state (handle, push subscription, accumulated
/// delta multiset).
struct Client {
    engine: ShardedEngine,
    /// Slot-indexed: `queries[i]` is this engine's instance of logical
    /// query slot i (all engines register/retire the same slots in the
    /// same order).
    queries: Vec<Option<ClientQuery>>,
}

struct ClientQuery {
    handle: QueryHandle,
    sub: smartcis::stream::ResultSubscription,
    /// Net multiset accumulated from every drained push delta.
    accum: HashMap<Tuple, i64>,
}

impl Client {
    fn new(shards: usize) -> Client {
        Client::with_engine(ShardedEngine::new(catalog(), shards))
    }

    fn with_engine(engine: ShardedEngine) -> Client {
        Client {
            engine,
            queries: Vec::new(),
        }
    }

    fn register(&mut self, sql: &str) {
        let handle = self
            .engine
            .register(QuerySpec::sql(sql).push())
            .unwrap()
            .expect_query();
        let sub = self.engine.subscribe(handle).unwrap();
        self.queries.push(Some(ClientQuery {
            handle,
            sub,
            accum: HashMap::new(),
        }));
    }

    /// One query's accumulated push multiset must equal its polled
    /// snapshot multiset. The snapshot is taken *first*: polling
    /// quiesces the owning shard, so every pending boundary's push
    /// batches are delivered before the drain below folds them in — the
    /// order that is sound under deferred (pool / deterministic)
    /// scheduling as well as inline execution.
    fn check_slot_push_matches_poll(&mut self, slot: usize, ctx: &str) {
        let Some(handle) = self.queries[slot].as_ref().map(|q| q.handle) else {
            return;
        };
        let mut snap: HashMap<Tuple, i64> = HashMap::new();
        for t in self.engine.snapshot(handle).unwrap() {
            *snap.entry(t).or_insert(0) += 1;
        }
        let q = self.queries[slot].as_mut().unwrap();
        for batch in q.sub.drain() {
            for d in &batch {
                let e = q.accum.entry(d.tuple.clone()).or_insert(0);
                *e += d.sign;
                if *e == 0 {
                    q.accum.remove(&d.tuple);
                }
            }
        }
        assert_eq!(
            q.accum,
            snap,
            "push accumulation != polled snapshot (slot {slot}, {} shards, {ctx})",
            self.engine.shard_count()
        );
    }

    /// Every live/paused query's accumulated push multiset must equal
    /// its polled snapshot multiset.
    fn check_push_matches_poll(&mut self, ctx: &str) {
        for slot in 0..self.queries.len() {
            self.check_slot_push_matches_poll(slot, ctx);
        }
    }
}

/// Property (ISSUE 3 acceptance): shard-count invariance holds on a
/// workload with interleaved register / deregister / pause / resume,
/// and every push subscription's accumulated deltas reconstruct the
/// polled snapshot multiset at every batch boundary, for N ∈ {1, 2, 4}.
/// Watermark consistency rides the same churn: at every event, every
/// live query's `Cut` snapshot (read at the shard's applied watermark,
/// no barrier) must equal its `Fresh` (barrier) snapshot byte-for-byte,
/// and a continuous `Cut` telemetry poll must stay internally coherent.
#[test]
fn lifecycle_churn_shard_invariance_with_push_subscriptions() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    for seed in seeds(3) {
        let mut rng = seeded(0xC1A0 ^ seed);
        let mut clients: Vec<Client> = [1usize, 2, 4].into_iter().map(Client::new).collect();
        // Start with the full mixed plan set live everywhere.
        for sql in PLANS {
            for c in &mut clients {
                c.register(sql);
            }
        }

        let mut now = 0u64;
        for step in 0..60 {
            let ctx = format!("seed {seed}, step {step}");
            // Pick one action; every engine performs the same one.
            let slots: Vec<usize> = clients[0]
                .queries
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.as_ref().map(|_| i))
                .collect();
            match rng.gen_range(0..10u32) {
                // Ingest (most common).
                0..=4 => {
                    let n = rng.gen_range(1..8usize);
                    let batch: Vec<Tuple> = (0..n)
                        .map(|_| {
                            reading(
                                rng.gen_range(0..4i64),
                                rng.gen_range(0..100i64) as f64,
                                now + rng.gen_range(0..2u64),
                            )
                        })
                        .collect();
                    now += 1;
                    for c in &mut clients {
                        c.engine.on_batch("Readings", &batch).unwrap();
                    }
                }
                // Heartbeat.
                5 | 6 => {
                    now += rng.gen_range(1..15u64);
                    for c in &mut clients {
                        c.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                    }
                }
                // Register a fresh query from the plan set.
                7 => {
                    let sql = PLANS[rng.gen_range(0..PLANS.len())];
                    for c in &mut clients {
                        c.register(sql);
                    }
                }
                // Deregister a random live slot.
                8 => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        for c in &mut clients {
                            let q = c.queries[slot].take().unwrap();
                            c.engine.deregister(q.handle).unwrap();
                        }
                    }
                }
                // Toggle pause/resume on a random slot.
                _ => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        for c in &mut clients {
                            let h = c.queries[slot].as_ref().unwrap().handle;
                            if c.engine.is_paused(h).unwrap() {
                                c.engine.resume(h).unwrap();
                            } else {
                                c.engine.pause(h).unwrap();
                            }
                        }
                    }
                }
            }

            // Invariants after every event: engines agree snapshot-for-
            // snapshot, and push accumulation equals polling.
            for c in &mut clients {
                c.check_push_matches_poll(&ctx);
            }
            let (base, rest) = clients.split_first().expect("three clients");
            for c in rest {
                assert_eq!(c.engine.now(), base.engine.now(), "clock diverged ({ctx})");
                assert_eq!(
                    c.engine.query_count(),
                    base.engine.query_count(),
                    "query set diverged ({ctx})"
                );
                for (slot, (bq, cq)) in base.queries.iter().zip(&c.queries).enumerate() {
                    let (Some(bq), Some(cq)) = (bq, cq) else {
                        continue;
                    };
                    let fresh = value_rows(&c.engine.snapshot(cq.handle).unwrap());
                    assert_eq!(
                        fresh,
                        value_rows(&base.engine.snapshot(bq.handle).unwrap()),
                        "slot {slot} diverged at {} shards ({ctx})",
                        c.engine.shard_count(),
                    );
                    // The barrier snapshot drained this query's shard,
                    // so a watermark-cut read must now see the same
                    // boundary — any divergence means a cut can observe
                    // a torn (mid-boundary) state.
                    assert_eq!(
                        value_rows(&c.engine.snapshot_at(cq.handle, Consistency::Cut).unwrap()),
                        fresh,
                        "cut snapshot diverged from barrier snapshot \
                         at slot {slot}, {} shards ({ctx})",
                        c.engine.shard_count(),
                    );
                    assert_eq!(
                        c.engine.is_paused(cq.handle).unwrap(),
                        base.engine.is_paused(bq.handle).unwrap()
                    );
                }
                // Continuous barrier-free monitoring rides along: these
                // engines run inline (sequential scheduling), so every
                // published watermark must already match its submission
                // count — a nonzero lag here means a boundary was
                // applied without publishing its watermark.
                let cut = c.engine.telemetry_at(Consistency::Cut);
                assert_eq!(cut.shards.len(), c.engine.shard_count(), "({ctx})");
                assert_eq!(cut.max_lag(), 0, "inline engine lagged ({ctx})");
            }
        }
        // Lifecycle churn relocates work but never changes its total.
        let totals: Vec<u64> = clients
            .iter()
            .map(|c| c.engine.total_ops_invoked())
            .collect();
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "ops diverged across shard counts: {totals:?} (seed {seed})"
        );
    }
}

/// Property (ISSUE 4 acceptance): live migration is invisible. A
/// workload interleaving ingest, register/deregister, and *forced
/// migrations* must leave engines at N ∈ {1, 2, 4} observationally
/// identical — per-event snapshots agree across shard counts, every
/// push subscription's accumulated deltas reconstruct the polled
/// snapshot at every boundary, and the ops total is invariant (a moved
/// runtime carries its counters; nothing is ever replayed).
#[test]
fn migration_churn_shard_invariance_with_push_subscriptions() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    for seed in seeds(3) {
        let mut rng = seeded(0x51A7 ^ seed);
        let mut clients: Vec<Client> = [1usize, 2, 4].into_iter().map(Client::new).collect();
        for sql in PLANS {
            for c in &mut clients {
                c.register(sql);
            }
        }

        let mut now = 0u64;
        for step in 0..60 {
            let ctx = format!("seed {seed}, step {step}");
            let slots: Vec<usize> = clients[0]
                .queries
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.as_ref().map(|_| i))
                .collect();
            match rng.gen_range(0..10u32) {
                // Ingest (most common).
                0..=3 => {
                    let n = rng.gen_range(1..8usize);
                    let batch: Vec<Tuple> = (0..n)
                        .map(|_| {
                            reading(
                                rng.gen_range(0..4i64),
                                rng.gen_range(0..100i64) as f64,
                                now + rng.gen_range(0..2u64),
                            )
                        })
                        .collect();
                    now += 1;
                    for c in &mut clients {
                        c.engine.on_batch("Readings", &batch).unwrap();
                    }
                }
                // Heartbeat.
                4 | 5 => {
                    now += rng.gen_range(1..15u64);
                    for c in &mut clients {
                        c.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                    }
                }
                // Register a fresh query from the plan set.
                6 => {
                    let sql = PLANS[rng.gen_range(0..PLANS.len())];
                    for c in &mut clients {
                        c.register(sql);
                    }
                }
                // Deregister a random live slot.
                7 => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        for c in &mut clients {
                            let q = c.queries[slot].take().unwrap();
                            c.engine.deregister(q.handle).unwrap();
                        }
                    }
                }
                // Forced migration: every engine moves the same slot to
                // (the same target) modulo its own shard count — a
                // no-op at N = 1, which is exactly the point: migration
                // must be invisible.
                _ => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        let target = rng.gen_range(0..4usize);
                        for c in &mut clients {
                            let h = c.queries[slot].as_ref().unwrap().handle;
                            c.engine
                                .migrate(h, target % c.engine.shard_count())
                                .unwrap();
                        }
                    }
                }
            }

            // Invariants after every event: push accumulation equals
            // polling on every engine, and engines agree slot-for-slot.
            for c in &mut clients {
                c.check_push_matches_poll(&ctx);
            }
            let (base, rest) = clients.split_first().expect("three clients");
            for c in rest {
                assert_eq!(c.engine.now(), base.engine.now(), "clock diverged ({ctx})");
                for (slot, (bq, cq)) in base.queries.iter().zip(&c.queries).enumerate() {
                    let (Some(bq), Some(cq)) = (bq, cq) else {
                        continue;
                    };
                    assert_eq!(
                        value_rows(&c.engine.snapshot(cq.handle).unwrap()),
                        value_rows(&base.engine.snapshot(bq.handle).unwrap()),
                        "slot {slot} diverged at {} shards ({ctx})",
                        c.engine.shard_count(),
                    );
                }
            }
        }
        // Migration relocates work but never repeats or loses it.
        let totals: Vec<u64> = clients
            .iter()
            .map(|c| c.engine.total_ops_invoked())
            .collect();
        assert!(
            totals.windows(2).all(|w| w[0] == w[1]),
            "ops diverged across shard counts: {totals:?} (seed {seed})"
        );
        // The multi-shard engines really did migrate (the action fires
        // ~12 times over 60 steps; a no-op run would prove nothing).
        for c in &clients[1..] {
            assert!(
                c.engine.migration_count() > 0,
                "no migration ever happened at {} shards (seed {seed})",
                c.engine.shard_count()
            );
        }
        // Deterministic coda: an unlucky churn can deregister every
        // query before any batch reaches a sink, leaving zero latency
        // samples to compare. A fresh probe query plus one batch
        // guarantees at least one ingest→apply sample on every engine
        // without disturbing cross-engine equality.
        for c in &mut clients {
            c.register(PLANS[0]);
        }
        let probe: Vec<Tuple> = (0..4i64).map(|j| reading(j, j as f64, now)).collect();
        for c in &mut clients {
            c.engine.on_batch("Readings", &probe).unwrap();
        }
        // The trace plane's state travels with migration: each query's
        // latency histogram rides its sink and each pipeline's op
        // profile rides its nodes through extract/install, so the
        // merged ingest→apply sample count and the profiled delta count
        // are nonzero and identical across shard counts — a migration
        // that dropped or re-recorded either would break equality here.
        let latency_counts: Vec<u64> = clients
            .iter()
            .map(|c| {
                c.engine
                    .telemetry_at(Consistency::Fresh)
                    .ingest_latency()
                    .count()
            })
            .collect();
        assert!(latency_counts[0] > 0, "no latencies recorded (seed {seed})");
        assert!(
            latency_counts.windows(2).all(|w| w[0] == w[1]),
            "latency samples diverged across shard counts: {latency_counts:?} (seed {seed})"
        );
        let profiled: Vec<u64> = clients
            .iter()
            .map(|c| {
                c.engine
                    .telemetry_at(Consistency::Fresh)
                    .profile
                    .total_deltas()
            })
            .collect();
        assert!(
            profiled.windows(2).all(|w| w[0] == w[1]),
            "op-profile deltas diverged across shard counts: {profiled:?} (seed {seed})"
        );
    }
}

/// Property (ISSUE 5 acceptance): scheduling determinism. Under
/// `Deterministic(seed)` the executor defers boundary tasks in the same
/// bounded per-shard queues the pool uses and replays a fixed seeded
/// interleaving — work is applied out of order *across* shards and late
/// relative to coordinator actions, exactly like the pool, but
/// reproducibly. A workload interleaving ingest, heartbeats, register /
/// deregister / pause / resume, and forced migrations across N ∈
/// {1, 2, 4} shards must leave the deterministic engine event-for-event
/// equivalent to inline sequential execution: every event's snapshot
/// agrees, push accumulation reconstructs every poll, the ops total is
/// invariant — across ≥ 8 seeds (offset by `ASPEN_TEST_SEED`, which CI
/// sweeps), with zero snapshot divergence.
#[test]
fn deterministic_scheduling_matches_sequential_under_full_churn() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    // Deepest any deterministic queue ever got, across the whole sweep:
    // proof that interleavings really deferred work (the property would
    // be vacuous if every task ran inline).
    let mut deepest = 0usize;
    let mut migrations = 0u64;
    for seed in seeds(8) {
        for shards in [1usize, 2, 4] {
            let depth = 4usize;
            let mut det = Client::with_engine(ShardedEngine::with_config(
                catalog(),
                EngineConfig::new()
                    .shards(shards)
                    .deterministic(seed)
                    .queue_depth(depth),
            ));
            let mut seq = Client::with_engine(ShardedEngine::with_config(
                catalog(),
                EngineConfig::new()
                    .shards(shards)
                    .scheduling(Scheduling::Sequential),
            ));
            for sql in PLANS {
                det.register(sql);
                seq.register(sql);
            }

            let mut rng = seeded(0xD37E ^ seed);
            let mut now = 0u64;
            for step in 0..50 {
                let ctx = format!("seed {seed}, {shards} shards, step {step}");
                let slots: Vec<usize> = det
                    .queries
                    .iter()
                    .enumerate()
                    .filter_map(|(i, q)| q.as_ref().map(|_| i))
                    .collect();
                match rng.gen_range(0..12u32) {
                    // Ingest (most common).
                    0..=4 => {
                        let n = rng.gen_range(1..8usize);
                        let batch: Vec<Tuple> = (0..n)
                            .map(|_| {
                                reading(
                                    rng.gen_range(0..4i64),
                                    rng.gen_range(0..100i64) as f64,
                                    now + rng.gen_range(0..2u64),
                                )
                            })
                            .collect();
                        now += 1;
                        det.engine.on_batch("Readings", &batch).unwrap();
                        seq.engine.on_batch("Readings", &batch).unwrap();
                    }
                    // Heartbeat.
                    5 | 6 => {
                        now += rng.gen_range(1..15u64);
                        det.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                        seq.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                    }
                    // Register a fresh query from the plan set.
                    7 => {
                        let sql = PLANS[rng.gen_range(0..PLANS.len())];
                        det.register(sql);
                        seq.register(sql);
                    }
                    // Deregister a random live slot.
                    8 => {
                        if !slots.is_empty() {
                            let slot = slots[rng.gen_range(0..slots.len())];
                            for c in [&mut det, &mut seq] {
                                let q = c.queries[slot].take().unwrap();
                                c.engine.deregister(q.handle).unwrap();
                            }
                        }
                    }
                    // Toggle pause/resume on a random slot.
                    9 => {
                        if !slots.is_empty() {
                            let slot = slots[rng.gen_range(0..slots.len())];
                            for c in [&mut det, &mut seq] {
                                let h = c.queries[slot].as_ref().unwrap().handle;
                                if c.engine.is_paused(h).unwrap() {
                                    c.engine.resume(h).unwrap();
                                } else {
                                    c.engine.pause(h).unwrap();
                                }
                            }
                        }
                    }
                    // Forced migration (a no-op at N = 1 — migration and
                    // its shard quiescing must be invisible).
                    _ => {
                        if !slots.is_empty() {
                            let slot = slots[rng.gen_range(0..slots.len())];
                            let target = rng.gen_range(0..4usize);
                            for c in [&mut det, &mut seq] {
                                let h = c.queries[slot].as_ref().unwrap().handle;
                                c.engine
                                    .migrate(h, target % c.engine.shard_count())
                                    .unwrap();
                            }
                        }
                    }
                }

                // Observe queue build-up *before* the checks drain it,
                // and hold the admission bound: deferral never runs
                // ahead of a shard by more than the configured depth.
                let stats = det.engine.executor_stats();
                deepest = deepest.max(stats.high_water.iter().copied().max().unwrap_or(0));
                assert!(
                    stats.high_water.iter().all(|&h| h <= depth),
                    "queue depth bound violated: {:?} ({ctx})",
                    stats.high_water
                );

                // Per-event: one randomly chosen live slot is fully
                // checked (its snapshot quiesces only its own shard, so
                // the other shards' queues stay deferred across events —
                // the deep interleavings the property is about)...
                let live: Vec<usize> = det
                    .queries
                    .iter()
                    .enumerate()
                    .filter_map(|(i, q)| q.as_ref().map(|_| i))
                    .collect();
                if !live.is_empty() {
                    let slot = live[rng.gen_range(0..live.len())];
                    let (dh, sh) = (
                        det.queries[slot].as_ref().unwrap().handle,
                        seq.queries[slot].as_ref().unwrap().handle,
                    );
                    // A cut read taken *before* the barrier must be a
                    // boundary-consistent past state: some prefix of the
                    // deferred interleaving, never a torn boundary. The
                    // cheapest assertable form: it must match what the
                    // deterministic replay of exactly those applied
                    // boundaries produces — which the full-equivalence
                    // property below certifies transitively once the
                    // barrier lands. Here we pin the endpoint identity:
                    // after the Fresh read drains the slot's shard, Cut
                    // and Fresh agree byte-for-byte.
                    let fresh = value_rows(&det.engine.snapshot(dh).unwrap());
                    assert_eq!(
                        fresh,
                        value_rows(&seq.engine.snapshot(sh).unwrap()),
                        "slot {slot} diverged ({ctx})"
                    );
                    assert_eq!(
                        value_rows(&det.engine.snapshot_at(dh, Consistency::Cut).unwrap()),
                        fresh,
                        "cut snapshot diverged from barrier snapshot ({ctx})"
                    );
                    assert_eq!(
                        det.engine.is_paused(dh).unwrap(),
                        seq.engine.is_paused(sh).unwrap()
                    );
                    det.check_slot_push_matches_poll(slot, &ctx);
                    seq.check_slot_push_matches_poll(slot, &ctx);
                }
                assert_eq!(det.engine.now(), seq.engine.now(), "clock diverged ({ctx})");

                // ...and every 8th event everything is checked.
                if step % 8 == 7 {
                    det.check_push_matches_poll(&ctx);
                    seq.check_push_matches_poll(&ctx);
                    for (slot, (dq, sq)) in det.queries.iter().zip(&seq.queries).enumerate() {
                        let (Some(dq), Some(sq)) = (dq, sq) else {
                            continue;
                        };
                        assert_eq!(
                            value_rows(&det.engine.snapshot(dq.handle).unwrap()),
                            value_rows(&seq.engine.snapshot(sq.handle).unwrap()),
                            "slot {slot} diverged at full check ({ctx})"
                        );
                    }
                }
            }

            // Drain everything and hold the global invariants.
            det.check_push_matches_poll("final");
            seq.check_push_matches_poll("final");
            assert_eq!(
                det.engine.total_ops_invoked(),
                seq.engine.total_ops_invoked(),
                "ops total diverged (seed {seed}, {shards} shards)"
            );
            migrations += det.engine.migration_count();
        }
    }
    assert!(
        deepest >= 2,
        "deterministic scheduling never deferred more than one boundary — \
         the property ran against inline execution only"
    );
    assert!(migrations > 0, "forced migrations never happened");
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

/// On top of [`PLANS`], what the source-log property registers: further
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

/// Property (ISSUE 6 / ISSUE 16 acceptance): source-log execution is
/// invisible. Every stream scan — any window spec, joins and self-joins
/// included — is a cursor on its shard's one log of that source, yet
/// every engine must stay observationally identical to private windows
/// under full lifecycle churn — register (a *late cursor*) / deregister
/// / pause / resume / *forced migration* (which demotes cursors back to
/// private windows) — for N ∈ {1, 2, 4} shards under sequential, pool,
/// and seeded deterministic scheduling: per-event snapshots agree
/// slot-for-slot with the sharing-off baseline, every push
/// subscription's accumulated deltas reconstruct the polled snapshot,
/// and the ops total is invariant (each cursor feeds its query exactly
/// the deltas a private window would have). The run also proves sharing
/// *actually engaged* — a vacuously-private run passing the equivalence
/// would prove nothing.
#[test]
fn shared_subplan_churn_matches_private_execution() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    let plans: Vec<&str> = PLANS.iter().chain(LOG_PLANS).copied().collect();
    for seed in seeds(3) {
        for scheduling in [
            Scheduling::Sequential,
            Scheduling::Pool,
            Scheduling::Deterministic(seed),
        ] {
            let mut rng = seeded(0x5A7E ^ seed);
            // Baseline: sharing off, one shard. Under test: sharing on
            // at N ∈ {1, 2, 4}. (The plan cache stays on everywhere —
            // cached plans must not change results either.)
            let mut baseline = Client::with_engine(ShardedEngine::with_config(
                catalog(),
                EngineConfig::new().shards(1).shared_subplans(false),
            ));
            let mut clients: Vec<Client> = [1usize, 2, 4]
                .into_iter()
                .map(|n| {
                    Client::with_engine(ShardedEngine::with_config(
                        catalog(),
                        EngineConfig::new()
                            .shards(n)
                            .shared_subplans(true)
                            .scheduling(scheduling),
                    ))
                })
                .collect();
            for sql in &plans {
                baseline.register(sql);
                for c in &mut clients {
                    c.register(sql);
                }
            }

            let (mut max_logs, mut max_cursors) = (0usize, 0usize);
            let mut now = 0u64;
            for step in 0..70 {
                let ctx = format!("seed {seed}, {scheduling:?}, step {step}");
                let slots: Vec<usize> = baseline
                    .queries
                    .iter()
                    .enumerate()
                    .filter_map(|(i, q)| q.as_ref().map(|_| i))
                    .collect();
                match rng.gen_range(0..13u32) {
                    // Ingest (most common): one batch of either stream.
                    // Some batches outgrow the ROWS windows, so rows
                    // arrive and are evicted inside one append.
                    action @ 0..=5 => {
                        let n = rng.gen_range(1..12usize);
                        let alarms = action == 5;
                        let batch: Vec<Tuple> = (0..n)
                            .map(|_| {
                                let sensor = rng.gen_range(0..4i64);
                                let v = rng.gen_range(0..100i64);
                                let ts = SimTime::from_secs(now + rng.gen_range(0..2u64));
                                let v = if alarms {
                                    Value::Int(v % 5)
                                } else {
                                    Value::Float(v as f64)
                                };
                                Tuple::new(vec![Value::Int(sensor), v], ts)
                            })
                            .collect();
                        now += 1;
                        let source = if alarms { "Alarms" } else { "Readings" };
                        baseline.engine.on_batch(source, &batch).unwrap();
                        for c in &mut clients {
                            c.engine.on_batch(source, &batch).unwrap();
                        }
                    }
                    // Heartbeat: each cursor expires its own suffix of
                    // the log; rows below every head are released.
                    6 | 7 => {
                        now += rng.gen_range(1..15u64);
                        baseline.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                        for c in &mut clients {
                            c.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                        }
                    }
                    // Register a fresh query — *late cursors* on warm
                    // logs: it must see none of the pre-attach state.
                    8 => {
                        let sql = plans[rng.gen_range(0..plans.len())];
                        baseline.register(sql);
                        for c in &mut clients {
                            c.register(sql);
                        }
                    }
                    // Deregister: drops that query's cursors; the last
                    // cursor out frees the log.
                    9 => {
                        if !slots.is_empty() {
                            let slot = slots[rng.gen_range(0..slots.len())];
                            for c in std::iter::once(&mut baseline).chain(&mut clients) {
                                let q = c.queries[slot].take().unwrap();
                                c.engine.deregister(q.handle).unwrap();
                            }
                        }
                    }
                    // Toggle pause/resume: pause detaches the cursors,
                    // resume attaches fresh ones at the tail.
                    10 => {
                        if !slots.is_empty() {
                            let slot = slots[rng.gen_range(0..slots.len())];
                            for c in std::iter::once(&mut baseline).chain(&mut clients) {
                                let h = c.queries[slot].as_ref().unwrap().handle;
                                if c.engine.is_paused(h).unwrap() {
                                    c.engine.resume(h).unwrap();
                                } else {
                                    c.engine.pause(h).unwrap();
                                }
                            }
                        }
                    }
                    // Forced migration: demotes the cursors to private
                    // windows holding their live suffixes (a no-op at
                    // N = 1).
                    _ => {
                        if !slots.is_empty() {
                            let slot = slots[rng.gen_range(0..slots.len())];
                            let target = rng.gen_range(0..4usize);
                            for c in std::iter::once(&mut baseline).chain(&mut clients) {
                                let h = c.queries[slot].as_ref().unwrap().handle;
                                c.engine
                                    .migrate(h, target % c.engine.shard_count())
                                    .unwrap();
                            }
                        }
                    }
                }

                // Invariants after every event.
                baseline.check_push_matches_poll(&ctx);
                for c in &mut clients {
                    c.check_push_matches_poll(&ctx);
                }
                for c in &clients {
                    let rs = c.engine.resident_state();
                    max_logs = max_logs.max(rs.source_logs);
                    max_cursors = max_cursors.max(rs.log_cursors);
                    assert_eq!(
                        c.engine.now(),
                        baseline.engine.now(),
                        "clock diverged ({ctx})"
                    );
                    for (slot, (bq, cq)) in baseline.queries.iter().zip(&c.queries).enumerate() {
                        let (Some(bq), Some(cq)) = (bq, cq) else {
                            continue;
                        };
                        assert_eq!(
                            value_rows(&c.engine.snapshot(cq.handle).unwrap()),
                            value_rows(&baseline.engine.snapshot(bq.handle).unwrap()),
                            "slot {slot} diverged from private execution at {} shards ({ctx})",
                            c.engine.shard_count(),
                        );
                    }
                }
                let private = baseline.engine.resident_state();
                assert_eq!(
                    (private.source_logs, private.log_cursors),
                    (0, 0),
                    "sharing-off engine grew a log ({ctx})"
                );
                // One shard, nothing migrated yet: the logs hold each row
                // once, so they can never retain more than the private
                // windows they replace.
                let one = &clients[0].engine;
                assert!(
                    one.resident_state().window_tuples <= private.window_tuples,
                    "logs retain more than private windows would ({ctx})"
                );
            }
            // Sharing saves state, never work: ops totals match private
            // execution exactly.
            let base_ops = baseline.engine.total_ops_invoked();
            for c in &clients {
                assert_eq!(
                    c.engine.total_ops_invoked(),
                    base_ops,
                    "ops diverged from private execution at {} shards ({ctx})",
                    c.engine.shard_count(),
                    ctx = format_args!("seed {seed}, {scheduling:?}")
                );
            }
            // The equivalence is non-vacuous: both streams had a log,
            // and one log carried many windows at once.
            assert!(
                max_logs >= 2 && max_cursors >= plans.len(),
                "sharing never engaged over the whole run \
                 ({max_logs} logs, {max_cursors} cursors, seed {seed})"
            );
        }
    }
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

/// The big-state plan mix for the state properties: wide ROWS and RANGE
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

/// Property (ISSUE 10 acceptance): operator state under an aggressive
/// spill tier is observationally identical to resident state on a
/// big-state workload under full lifecycle churn (ingest, heartbeats,
/// register / deregister, forced migrations). Snapshots agree per event
/// per slot, push accumulation reconstructs every poll, and the spill
/// engine really pages state out (a run with zero spilled bytes would
/// prove nothing).
#[test]
fn spilled_state_matches_resident_state_under_churn() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    for seed in seeds(2) {
        let spill_dir = std::env::temp_dir().join(format!(
            "aspen-sharding-spill-{}-{seed}",
            std::process::id()
        ));
        // Operator stores seal a segment every 32 rows; a 256-byte
        // threshold then forces cold segments to page out.
        let configs = [
            EngineConfig::new().shards(2),
            EngineConfig::new().shards(2).spill(256, &spill_dir),
        ];
        let mut clients: Vec<Client> = configs
            .into_iter()
            .map(|cfg| Client::with_engine(ShardedEngine::with_config(catalog(), cfg)))
            .collect();
        for sql in BIG_STATE_PLANS {
            for c in &mut clients {
                c.register(sql);
            }
        }

        let mut rng = seeded(0xC07 ^ seed);
        let mut now = 0u64;
        let mut max_spilled = 0usize;
        for step in 0..50 {
            let ctx = format!("seed {seed}, step {step}");
            let slots: Vec<usize> = clients[0]
                .queries
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.as_ref().map(|_| i))
                .collect();
            match rng.gen_range(0..10u32) {
                0..=4 => {
                    let n = rng.gen_range(1..8usize);
                    let batch: Vec<Tuple> = (0..n)
                        .map(|_| {
                            reading(
                                rng.gen_range(0..4i64),
                                rng.gen_range(0..100i64) as f64,
                                now + rng.gen_range(0..2u64),
                            )
                        })
                        .collect();
                    now += 1;
                    for c in &mut clients {
                        c.engine.on_batch("Readings", &batch).unwrap();
                    }
                }
                5 | 6 => {
                    now += rng.gen_range(1..15u64);
                    for c in &mut clients {
                        c.engine.heartbeat(SimTime::from_secs(now)).unwrap();
                    }
                }
                7 => {
                    let sql = BIG_STATE_PLANS[rng.gen_range(0..BIG_STATE_PLANS.len())];
                    for c in &mut clients {
                        c.register(sql);
                    }
                }
                8 => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        for c in &mut clients {
                            let q = c.queries[slot].take().unwrap();
                            c.engine.deregister(q.handle).unwrap();
                        }
                    }
                }
                _ => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        let target = rng.gen_range(0..2usize);
                        for c in &mut clients {
                            let h = c.queries[slot].as_ref().unwrap().handle;
                            c.engine.migrate(h, target).unwrap();
                        }
                    }
                }
            }

            for c in &mut clients {
                c.check_push_matches_poll(&ctx);
            }
            let (resident, spilled) = (&clients[0], &clients[1]);
            max_spilled = max_spilled.max(spilled.engine.resident_state().spilled_bytes);
            for (slot, (rq, sq)) in resident.queries.iter().zip(&spilled.queries).enumerate() {
                let (Some(rq), Some(sq)) = (rq, sq) else {
                    continue;
                };
                assert_eq!(
                    value_rows(&spilled.engine.snapshot(sq.handle).unwrap()),
                    value_rows(&resident.engine.snapshot(rq.handle).unwrap()),
                    "slot {slot} diverged from resident state ({ctx})",
                );
            }
        }
        // Spilling moves bytes, never work: ops totals agree.
        assert_eq!(
            clients[0].engine.total_ops_invoked(),
            clients[1].engine.total_ops_invoked(),
            "ops diverged under spill (seed {seed})"
        );
        // Deterministic spill-engagement coda: churn at an unlucky seed
        // can deregister state before any 32-row segment seals, so force
        // the condition — a fresh wide window plus a 3-segment burst
        // seals cold segments past the 256-byte threshold regardless of
        // what the churn left behind. Snapshots must still agree.
        for c in &mut clients {
            c.register(BIG_STATE_PLANS[0]);
        }
        for b in 0..4u64 {
            let burst: Vec<Tuple> = (0..24i64)
                .map(|j| reading(j % 4, (b as i64 * 24 + j) as f64, now))
                .collect();
            now += 1;
            for c in &mut clients {
                c.engine.on_batch("Readings", &burst).unwrap();
            }
            max_spilled = max_spilled.max(clients[1].engine.resident_state().spilled_bytes);
        }
        let (resident, spilled) = (&clients[0], &clients[1]);
        for (rq, sq) in resident.queries.iter().zip(&spilled.queries) {
            let (Some(rq), Some(sq)) = (rq, sq) else {
                continue;
            };
            assert_eq!(
                value_rows(&spilled.engine.snapshot(sq.handle).unwrap()),
                value_rows(&resident.engine.snapshot(rq.handle).unwrap()),
                "post-burst snapshot diverged from resident state (seed {seed})",
            );
        }
        assert!(
            max_spilled > 0,
            "spill tier never engaged over the whole run (seed {seed})"
        );
        std::fs::remove_dir_all(&spill_dir).ok();
    }
}

/// ISSUE 10 acceptance: `state_bytes` is conserved across migration.
/// The byte gauge follows the query to its new shard — per-query value
/// unchanged, donor shard's total drops, recipient's rises, engine
/// total invariant — and the snapshot is untouched.
#[test]
fn state_bytes_travel_with_migration() {
    let mut e = ShardedEngine::with_config(
        catalog(),
        EngineConfig::new().shards(2).shared_subplans(false),
    );
    let fat = e
        .register_sql("select r.sensor, r.value from Readings r [rows 100]")
        .unwrap()
        .expect_query();
    let _cheap = e
        .register_sql("select r.sensor, r.value from Readings r where r.value > 40")
        .unwrap()
        .expect_query();
    // 60 tuples — inside the ROWS capacity, so every row stays live.
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
    let shard_bytes_before: Vec<u64> = tel.shards.iter().map(|s| s.state_bytes).collect();
    let engine_bytes_before = e.resident_state().state_bytes;

    let to = 1 - from;
    e.migrate(fat, to).unwrap();

    let tel = e.telemetry_at(Consistency::Fresh);
    let q = tel.queries.iter().find(|q| q.query == fat.0).unwrap();
    assert_eq!(q.shard, to, "query did not move");
    assert_eq!(q.state_bytes, bytes, "state_bytes changed in flight");
    let shard_bytes_after: Vec<u64> = tel.shards.iter().map(|s| s.state_bytes).collect();
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
        EngineConfig::new()
            .shards(2)
            .shared_subplans(false)
            .rebalance(RebalanceConfig {
                threshold: 1.05,
                patience: 1,
                max_moves: 1,
                interval_boundaries: 1,
                bytes_weight: 1000.0,
                ..Default::default()
            }),
    );
    let register_window = |e: &mut ShardedEngine, w: &str| -> QueryHandle {
        e.register_sql(&format!("select r.sensor, r.value from Readings r {w}"))
            .unwrap()
            .expect_query()
    };
    let fats: Vec<QueryHandle> = ["[rows 64]", "[rows 65]", "[rows 66]"]
        .iter()
        .map(|w| register_window(&mut e, w))
        .collect();
    let cheaps: Vec<QueryHandle> = ["[rows 2]", "[rows 3]"]
        .iter()
        .map(|w| register_window(&mut e, w))
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
    let shard_bytes: Vec<u64> = tel.shards.iter().map(|s| s.state_bytes).collect();
    assert!(
        shard_bytes.iter().all(|&b| b > 0),
        "bytes did not spread across shards: {shard_bytes:?}"
    );
}

// ---------------------------------------------------------------------------
// Indexed join sides ≡ materialised ≡ model

/// The join property's sources: two streams whose keys meet across
/// numeric types and sometimes hold NULL, and a retained table.
fn join_catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let schema = |key: DataType| {
        Schema::new(vec![Field::new("k", key), Field::new("v", DataType::Int)]).into_ref()
    };
    let stream = || (SourceKind::Stream, SourceStats::stream(1.0));
    for (name, key, (kind, stats)) in [
        ("A", DataType::Int, stream()),
        ("B", DataType::Float, stream()),
        (
            "T",
            DataType::Int,
            (SourceKind::Table, SourceStats::table(8)),
        ),
    ] {
        cat.register_source(name, schema(key), kind, stats).unwrap();
    }
    cat
}

/// One scan's window by its spec's definition: the last `n` arrivals;
/// the arrivals left once the out-of-range *prefix* is dropped at each
/// heartbeat; the arrivals since the last pane change.
struct ModelWindow {
    spec: WindowSpec,
    live: Vec<Tuple>,
    pane: Option<u64>,
}

impl ModelWindow {
    fn insert(&mut self, batch: &[Tuple]) {
        for t in batch {
            if let WindowSpec::Tumbling(w) = self.spec {
                let pane = t.timestamp().as_micros() / w.as_micros();
                if self.pane.is_some_and(|current| current != pane) {
                    self.live.clear();
                }
                self.pane = Some(pane);
            }
            self.live.push(t.clone());
            if let WindowSpec::Rows(n) = self.spec {
                let excess = self.live.len().saturating_sub(n as usize);
                self.live.drain(..excess);
            }
        }
    }

    fn advance(&mut self, now: SimTime) {
        match self.spec {
            WindowSpec::Range(_) => {
                let spec = self.spec;
                let expired = |t: &Tuple| !spec.contains(t.timestamp(), now);
                let keep = self.live.iter().position(|t| !expired(t));
                self.live.drain(..keep.unwrap_or(self.live.len()));
            }
            WindowSpec::Tumbling(w) => {
                let now_pane = now.as_micros() / w.as_micros();
                if self.pane.is_some_and(|current| now_pane > current) {
                    self.live.clear();
                    self.pane = Some(now_pane);
                }
            }
            _ => {}
        }
    }
}

/// `select x.v, y.v from A x [left], <right source> y [right]
///  where x.k = y.k [and x.v > above]`.
#[derive(Clone)]
struct JoinCase {
    left: WindowSpec,
    right_source: &'static str,
    right: WindowSpec,
    above: Option<i64>,
}

impl JoinCase {
    fn sql(&self) -> String {
        let clause = |w: WindowSpec| match w {
            WindowSpec::Rows(n) => format!("[rows {n}]"),
            WindowSpec::Range(d) => format!("[range {} seconds]", d.as_micros() / 1_000_000),
            WindowSpec::Tumbling(d) => format!("[tumbling {} seconds]", d.as_micros() / 1_000_000),
            WindowSpec::Unbounded => "[unbounded]".into(),
        };
        let filter = self
            .above
            .map_or(String::new(), |c| format!(" and x.v > {c}"));
        format!(
            "select x.v, y.v from A x {}, {} y {} where x.k = y.k{filter}",
            clause(self.left),
            self.right_source,
            clause(self.right),
        )
    }
}

/// A registered [`JoinCase`] as the model sees it: the two windows as
/// they stand since the query was (re)built.
struct ModelJoin {
    case: JoinCase,
    sides: [ModelWindow; 2],
}

impl ModelJoin {
    /// A fresh runtime: stream windows start empty, a table scan
    /// replays what the table retains.
    fn new(case: JoinCase, table: &[Tuple]) -> Self {
        let window = |spec| ModelWindow {
            spec,
            live: Vec::new(),
            pane: None,
        };
        let mut sides = [window(case.left), window(case.right)];
        if case.right_source == "T" {
            sides[1].insert(table);
        }
        ModelJoin { case, sides }
    }

    fn insert(&mut self, source: &str, batch: &[Tuple]) {
        for (side, on) in [(0, "A"), (1, self.case.right_source)] {
            if on == source {
                self.sides[side].insert(batch);
            }
        }
    }

    /// The nested loop over both windows.
    fn rows(&self) -> Vec<Vec<Value>> {
        let mut out = Vec::new();
        for x in &self.sides[0].live {
            if self
                .case
                .above
                .is_some_and(|c| x.get(1).as_int().unwrap() <= c)
            {
                continue;
            }
            for y in &self.sides[1].live {
                if x.get(0).sql_eq(y.get(0)) == Some(true) {
                    out.push(vec![x.get(1).clone(), y.get(1).clone()]);
                }
            }
        }
        out.sort();
        out
    }
}

/// Property (ISSUE 23): a join side fed by a window keeps row ids, and
/// nothing observable changes. Joins whose sides are drawn from
/// {`rows 1` (SQL has no `rows 0`; `window.rs` steps that spec), `rows
/// 3`, `rows 64`, `range 7 seconds`, `tumbling 5 seconds`,
/// `unbounded`} over two streams — one of them a self-join on
/// one log — or a retained table, with and without a filter below the
/// join, are fed batches larger than the row windows, pane changes
/// inside a batch, duplicate tuples (equal values *and* stamp),
/// late-stamped tuples, NULL and cross-type keys, and heartbeats, with
/// a migrate / pause+resume / deregister+register every tenth event.
/// After every event each query's snapshot equals the nested loop over
/// the model's windows — on the engine under test (shared logs, 2
/// shards, every scheduling mode), on private windows
/// (`shared_subplans(false)`: the same indexed sides over the
/// pipelines' own windows) and on a spilling engine (ids resolve
/// through paged-out segments). An indexed side's rows are counted
/// once, where they live: a query still on cursors holds no more bytes
/// than its private twin, and until the first lifecycle event — while
/// every window was attached at row 0, so a log is byte for byte its
/// longest private window — neither does the whole engine.
#[test]
fn indexed_join_sides_match_materialised_sides_and_the_model() {
    use rand::Rng;
    use smartcis::types::rng::seeded;
    use smartcis::types::{SimDuration, WindowSpec};

    let secs = SimDuration::from_secs;
    let specs = [
        WindowSpec::Rows(1),
        WindowSpec::Rows(3),
        WindowSpec::Rows(64),
        WindowSpec::Range(secs(7)),
        WindowSpec::Tumbling(secs(5)),
        WindowSpec::Unbounded,
    ];
    // What the run must have exercised for passing to mean anything:
    // joined pairs seen, per-query byte comparisons made on cursors,
    // bytes the spilling engine paged out.
    let (mut pairs, mut on_cursors, mut max_spilled) = (0usize, 0usize, 0usize);
    for seed in seeds(2) {
        for scheduling in [
            Scheduling::Sequential,
            Scheduling::Pool,
            Scheduling::Deterministic(seed),
        ] {
            let mut rng = seeded(0x1D5 ^ seed);
            let spill_dir = std::env::temp_dir().join(format!(
                "aspen-indexed-join-{}-{seed}-{scheduling:?}",
                std::process::id()
            ));
            let shared = EngineConfig::new().shards(2).scheduling(scheduling);
            let configs = [
                shared.clone(),
                EngineConfig::new().shards(2).shared_subplans(false),
                shared.spill(256, &spill_dir),
            ];
            let mut engines = configs.map(|cfg| ShardedEngine::with_config(join_catalog(), cfg));
            // Slot i of every engine holds the same query as `model[i]`.
            let mut handles: Vec<Vec<QueryHandle>> = vec![Vec::new(); engines.len()];
            let mut model: Vec<ModelJoin> = Vec::new();
            let mut table: Vec<Tuple> = Vec::new();
            let random_case = |rng: &mut rand::rngs::StdRng, slot: usize| JoinCase {
                left: specs[rng.gen_range(0..specs.len())],
                // Slot 0 is always the self-join, slot 1 the table join.
                right_source: ["A", "T", "B"][slot.min(2)],
                right: match slot {
                    1 => WindowSpec::Unbounded,
                    _ => specs[rng.gen_range(0..specs.len())],
                },
                above: (rng.gen_range(0..2u32) == 0).then(|| rng.gen_range(0..60i64)),
            };
            // The opening hand pins the shapes a random draw may miss: the
            // self-join windows one log two ways, and one join has both
            // sides on the clock, so a heartbeat expires matching rows
            // left and right at once.
            let pinned = [
                (specs[1], specs[3]),
                (specs[2], specs[5]),
                (specs[3], specs[4]),
            ];
            for slot in 0..6 {
                let mut case = random_case(&mut rng, slot);
                if let Some(&(left, right)) = pinned.get(slot) {
                    (case.left, case.right) = (left, right);
                }
                for (e, hs) in engines.iter_mut().zip(&mut handles) {
                    hs.push(e.register_sql(&case.sql()).unwrap().expect_query());
                }
                model.push(ModelJoin::new(case, &table));
            }

            let (mut now, mut churned, mut last) = (0u64, false, None::<Tuple>);
            for step in 0..120 {
                let ctx = format!("seed {seed}, {scheduling:?}, step {step}");
                if step % 10 == 9 {
                    churned = true;
                    let slot = rng.gen_range(0..model.len());
                    match rng.gen_range(0..3u32) {
                        // Migrate: cursors demote to private windows
                        // under the log's row ids; nothing else changes.
                        0 => {
                            let to = rng.gen_range(0..2usize);
                            for (e, hs) in engines.iter_mut().zip(&handles) {
                                e.migrate(hs[slot], to).unwrap();
                            }
                        }
                        // Pause + resume, deregister + register: a new
                        // runtime either way — empty stream windows, the
                        // table replayed.
                        kind => {
                            let case = match kind {
                                1 => model[slot].case.clone(),
                                _ => random_case(&mut rng, slot),
                            };
                            for (e, hs) in engines.iter_mut().zip(&mut handles) {
                                if kind == 1 {
                                    e.pause(hs[slot]).unwrap();
                                    e.resume(hs[slot]).unwrap();
                                } else {
                                    e.deregister(hs[slot]).unwrap();
                                    hs[slot] = e.register_sql(&case.sql()).unwrap().expect_query();
                                }
                            }
                            model[slot] = ModelJoin::new(case, &table);
                        }
                    }
                } else if rng.gen_range(0..4u32) == 0 {
                    now += rng.gen_range(0..6u64);
                    let at = SimTime::from_secs(now);
                    for e in &mut engines {
                        e.heartbeat(at).unwrap();
                    }
                    for side in model.iter_mut().flat_map(|m| &mut m.sides) {
                        side.advance(at);
                    }
                } else {
                    let source = ["A", "A", "B", "T"][rng.gen_range(0..4usize)];
                    let batch: Vec<Tuple> = (0..rng.gen_range(0..10usize))
                        .map(|_| {
                            // A duplicate of the previous tuple, stamp
                            // and all; or a fresh one, sometimes late.
                            if let (Some(dup), 0) = (&last, rng.gen_range(0..5u32)) {
                                return dup.clone();
                            }
                            now += rng.gen_range(0..3u64);
                            let late = [0, 0, 0, rng.gen_range(1..9u64)][rng.gen_range(0..4usize)];
                            let key = rng.gen_range(0..4i64);
                            let key = match (rng.gen_range(0..8u32), source) {
                                (0, _) => Value::Null,
                                (1, "B") => Value::Float(key as f64 + 0.5),
                                (_, "B") => Value::Float(key as f64),
                                _ => Value::Int(key),
                            };
                            let row = vec![key, Value::Int(rng.gen_range(0..100i64))];
                            let t = Tuple::new(row, SimTime::from_secs(now.saturating_sub(late)));
                            last = Some(t.clone());
                            t
                        })
                        .collect();
                    last = last.filter(|_| source != "T");
                    for e in &mut engines {
                        e.on_batch(source, &batch).unwrap();
                    }
                    for m in &mut model {
                        m.insert(source, &batch);
                    }
                    if source == "T" {
                        table.extend(batch);
                    }
                }

                // Invariants after every event.
                for (slot, m) in model.iter().enumerate() {
                    let want = m.rows();
                    pairs += want.len();
                    for (e, hs) in engines.iter().zip(&handles) {
                        let mut got = value_rows(&e.snapshot(hs[slot]).unwrap());
                        got.sort();
                        let (sql, shards) = (m.case.sql(), e.shard_count());
                        assert_eq!(got, want, "slot {slot} `{sql}`, {shards} shards ({ctx})");
                    }
                }
                let loads = engines
                    .each_ref()
                    .map(|e| e.telemetry_at(Consistency::Fresh));
                for (slot, (sh, ph)) in handles[0].iter().zip(&handles[1]).enumerate() {
                    let (on_log, private) = (loads[0].query(sh.0), loads[1].query(ph.0));
                    let (on_log, private) = (on_log.unwrap(), private.unwrap());
                    on_cursors += usize::from(on_log.shared);
                    assert!(
                        !on_log.shared || on_log.state_bytes <= private.state_bytes,
                        "slot {slot} holds {} bytes on cursors, {} on private windows ({ctx})",
                        on_log.state_bytes,
                        private.state_bytes,
                    );
                }
                max_spilled = max_spilled.max(engines[2].resident_state().spilled_bytes);
                let bytes = engines.each_ref().map(|e| e.resident_state().state_bytes);
                assert!(
                    churned || bytes[0] <= bytes[1],
                    "shared logs hold {} bytes, private windows {} ({ctx})",
                    bytes[0],
                    bytes[1],
                );
            }
            std::fs::remove_dir_all(&spill_dir).ok();
        }
    }
    assert!(
        pairs > 10_000 && on_cursors > 1_000 && max_spilled > 0,
        "the run exercised too little: {pairs} joined pairs, {on_cursors} byte \
         comparisons on cursors, {max_spilled} bytes spilled"
    );
}
