//! Integration: multi-node cluster execution. A cluster of N real
//! `ShardedEngine` nodes joined by simulated links is a placement
//! decision, not a semantics change — under interleaved ingest /
//! register / deregister / pause / resume / *cross-node migration*
//! churn, every query's snapshot must match a single-node oracle after
//! every event, every push subscription's accumulated deltas must
//! reconstruct the polled snapshot, the ops total must be invariant
//! (migration never replays), and the exchange paths must conserve
//! tuples exactly (every delta serialized onto a link is decoded off
//! it).

use std::collections::HashMap;
use std::sync::Arc;

use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::{
    Cluster, ClusterConfig, Consistency, EngineConfig, QueryHandle, QuerySpec, Registration,
    ResultSubscription, Scheduling, ShardedEngine,
};
use smartcis::types::{DataType, Field, Schema, SimTime, Tuple, Value};

/// Every node (and the single-node oracle) runs one shard, inline.
fn inline_node() -> EngineConfig {
    EngineConfig::new()
        .shards(1)
        .scheduling(Scheduling::Sequential)
}

/// Base seed offset, from `ASPEN_TEST_SEED` (CI sweeps a seed matrix
/// over the same binary; each value explores disjoint workloads).
fn seed_base() -> u64 {
    std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

fn seeds(n: u64) -> impl Iterator<Item = u64> {
    let base = seed_base().wrapping_mul(0x1000);
    (0..n).map(move |i| base.wrapping_add(i))
}

fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let power = || {
        Schema::new(vec![
            Field::new("sensor", DataType::Int),
            Field::new("value", DataType::Float),
        ])
        .into_ref()
    };
    cat.register_source(
        "PowerA",
        power(),
        SourceKind::Stream,
        SourceStats::stream(2.0).with_distinct("sensor", 4),
    )
    .unwrap();
    cat.register_source(
        "PowerB",
        power(),
        SourceKind::Stream,
        SourceStats::stream(2.0).with_distinct("sensor", 4),
    )
    .unwrap();
    let rooms = Schema::new(vec![
        Field::new("sensor", DataType::Int),
        Field::new("room", DataType::Int),
    ])
    .into_ref();
    cat.register_source("Rooms", rooms, SourceKind::Table, SourceStats::table(4))
        .unwrap();
    cat
}

fn power(sensor: i64, value: f64, sec: u64) -> Tuple {
    Tuple::new(
        vec![Value::Int(sensor), Value::Float(value)],
        SimTime::from_secs(sec),
    )
}

fn room(sensor: i64, room: i64) -> Tuple {
    Tuple::new(vec![Value::Int(sensor), Value::Int(room)], SimTime::ZERO)
}

/// The mixed standing-query workload: filters, grouped/global
/// aggregates, windows, a cross-stream join, and a stream×table join
/// (the table leg exercises broadcast replay on every node).
const PLANS: &[&str] = &[
    "select a.sensor, a.value from PowerA a where a.value > 40",
    "select a.sensor, avg(a.value) from PowerA a group by a.sensor",
    "select count(*) from PowerB b",
    "select sum(b.value) from PowerB b [tumbling 10 seconds]",
    "select a.value, b.value from PowerA a, PowerB b \
     where a.sensor = b.sensor ^ a.value < b.value",
    "select a.value, r.room from PowerA a, Rooms r where a.sensor = r.sensor",
    "select a.sensor, a.value from PowerA a [rows 5]",
];

fn value_rows(rows: &[Tuple]) -> Vec<Vec<Value>> {
    rows.iter().map(|t| t.values().to_vec()).collect()
}

/// One engine under test: either the single-node oracle or a cluster.
/// The same lifecycle verbs drive both, so the churn loop below stays
/// engine-shape-agnostic.
enum AnyEngine {
    Single(ShardedEngine),
    Multi(Cluster),
}

impl AnyEngine {
    fn nodes(&self) -> usize {
        match self {
            AnyEngine::Single(_) => 1,
            AnyEngine::Multi(c) => c.node_count(),
        }
    }

    fn register(&mut self, spec: QuerySpec) -> Registration {
        match self {
            AnyEngine::Single(e) => e.register(spec).unwrap(),
            AnyEngine::Multi(c) => c.register(spec).unwrap(),
        }
    }

    fn subscribe(&mut self, q: QueryHandle) -> ResultSubscription {
        match self {
            AnyEngine::Single(e) => e.subscribe(q).unwrap(),
            AnyEngine::Multi(c) => c.subscribe(q).unwrap(),
        }
    }

    fn deregister(&mut self, q: QueryHandle) {
        match self {
            AnyEngine::Single(e) => e.deregister(q).unwrap(),
            AnyEngine::Multi(c) => c.deregister(q).unwrap(),
        }
    }

    fn pause(&mut self, q: QueryHandle) {
        match self {
            AnyEngine::Single(e) => e.pause(q).unwrap(),
            AnyEngine::Multi(c) => c.pause(q).unwrap(),
        }
    }

    fn resume(&mut self, q: QueryHandle) {
        match self {
            AnyEngine::Single(e) => e.resume(q).unwrap(),
            AnyEngine::Multi(c) => c.resume(q).unwrap(),
        }
    }

    /// Forced migration, modulo this engine's own node/shard count —
    /// a no-op on the oracle, which is exactly the point: a cross-node
    /// move must be invisible.
    fn migrate(&mut self, q: QueryHandle, target: usize) {
        match self {
            AnyEngine::Single(e) => {
                let shards = e.shard_count();
                e.migrate(q, target % shards).unwrap();
            }
            AnyEngine::Multi(c) => {
                let nodes = c.node_count();
                c.migrate(q, target % nodes).unwrap();
            }
        }
    }

    fn on_batch(&mut self, source: &str, tuples: &[Tuple]) {
        match self {
            AnyEngine::Single(e) => e.on_batch(source, tuples).unwrap(),
            AnyEngine::Multi(c) => c.on_batch(source, tuples).unwrap(),
        }
    }

    fn heartbeat(&mut self, now: SimTime) {
        match self {
            AnyEngine::Single(e) => e.heartbeat(now).unwrap(),
            AnyEngine::Multi(c) => c.heartbeat(now).unwrap(),
        }
    }

    fn snapshot(&self, q: QueryHandle) -> Vec<Tuple> {
        match self {
            AnyEngine::Single(e) => e.snapshot(q).unwrap(),
            AnyEngine::Multi(c) => c.snapshot(q).unwrap(),
        }
    }

    fn total_ops_invoked(&self) -> u64 {
        match self {
            AnyEngine::Single(e) => e.total_ops_invoked(),
            AnyEngine::Multi(c) => c.total_ops_invoked(),
        }
    }
}

struct ClientQuery {
    handle: QueryHandle,
    sub: ResultSubscription,
    paused: bool,
    /// Net multiset accumulated from every drained push delta.
    accum: HashMap<Tuple, i64>,
}

/// One engine plus its per-query client state, slot-indexed: every
/// client registers and retires the same logical slots in the same
/// order.
struct Client {
    engine: AnyEngine,
    queries: Vec<Option<ClientQuery>>,
}

impl Client {
    fn oracle() -> Client {
        Client {
            engine: AnyEngine::Single(ShardedEngine::with_config(catalog(), inline_node())),
            queries: Vec::new(),
        }
    }

    fn cluster(nodes: usize) -> Client {
        let mut c = Cluster::new(
            catalog(),
            ClusterConfig::new().nodes(nodes).node_config(inline_node()),
        );
        // Pin the wrappers apart so remote subscriptions really cross
        // links (PowerB enters at the far end of the cluster).
        c.home_source("PowerA", 0).unwrap();
        c.home_source("PowerB", nodes - 1).unwrap();
        Client {
            engine: AnyEngine::Multi(c),
            queries: Vec::new(),
        }
    }

    /// Register the next slot. The placement hint spreads slots round-
    /// robin over this client's own node count, so multi-node clusters
    /// host subscribers away from the sources' homes from the start.
    fn register(&mut self, sql: &str) {
        let slot = self.queries.len();
        let spec = QuerySpec::sql(sql)
            .push()
            .on_node(slot % self.engine.nodes());
        let handle = self.engine.register(spec).expect_query();
        let sub = self.engine.subscribe(handle);
        self.queries.push(Some(ClientQuery {
            handle,
            sub,
            paused: false,
            accum: HashMap::new(),
        }));
    }

    /// One slot's accumulated push multiset must equal its polled
    /// snapshot multiset. Snapshot first: polling quiesces the owning
    /// shard, so every pending boundary's push batches are delivered
    /// before the drain folds them in.
    fn check_slot_push_matches_poll(&mut self, slot: usize, ctx: &str) {
        let Some(handle) = self.queries[slot].as_ref().map(|q| q.handle) else {
            return;
        };
        let mut snap: HashMap<Tuple, i64> = HashMap::new();
        for t in self.engine.snapshot(handle) {
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
            "push accumulation != polled snapshot (slot {slot}, {} nodes, {ctx})",
            self.engine.nodes()
        );
    }

    fn check_push_matches_poll(&mut self, ctx: &str) {
        for slot in 0..self.queries.len() {
            self.check_slot_push_matches_poll(slot, ctx);
        }
    }
}

/// Property (tentpole acceptance): cluster execution is invisible.
/// Clusters at N ∈ {1, 2, 4} nodes driven through interleaved ingest
/// (two streams homed on different nodes, plus table upserts that
/// broadcast), heartbeats, register / deregister / pause / resume, and
/// forced cross-node migrations must stay observationally identical to
/// a single-node oracle after every event: snapshots agree slot for
/// slot, push accumulation reconstructs every poll, the ops total is
/// invariant (no replay anywhere — a moved runtime carries its
/// counters), and every exchange conserves tuples (serialized onto a
/// link == decoded off it, with real wire traffic and real migrations
/// observed, so the equivalence is non-vacuous).
#[test]
fn cluster_churn_matches_single_node_oracle() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    let mut total_migrations = 0u64;
    for seed in seeds(3) {
        let mut rng = seeded(0xC105 ^ seed);
        let mut oracle = Client::oracle();
        let mut clusters: Vec<Client> = [1usize, 2, 4].into_iter().map(Client::cluster).collect();
        for sql in PLANS {
            oracle.register(sql);
            for c in &mut clusters {
                c.register(sql);
            }
        }

        let mut now = 0u64;
        let mut next_room = 0i64;
        for step in 0..60 {
            let ctx = format!("seed {seed}, step {step}");
            let slots: Vec<usize> = oracle
                .queries
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.as_ref().map(|_| i))
                .collect();
            match rng.gen_range(0..12u32) {
                // Stream ingest (most common): one of the two streams,
                // which enter the clusters at different home nodes.
                0..=4 => {
                    let source = if rng.gen_bool(0.5) {
                        "PowerA"
                    } else {
                        "PowerB"
                    };
                    let n = rng.gen_range(1..8usize);
                    let batch: Vec<Tuple> = (0..n)
                        .map(|_| {
                            power(
                                rng.gen_range(0..4i64),
                                rng.gen_range(0..100i64) as f64,
                                now + rng.gen_range(0..2u64),
                            )
                        })
                        .collect();
                    now += 1;
                    oracle.engine.on_batch(source, &batch);
                    for c in &mut clusters {
                        c.engine.on_batch(source, &batch);
                    }
                }
                // Table upsert: broadcasts to every node, so late
                // registrations replay the same retained rows anywhere.
                5 => {
                    let batch = [room(next_room % 4, 100 + next_room)];
                    next_room += 1;
                    oracle.engine.on_batch("Rooms", &batch);
                    for c in &mut clusters {
                        c.engine.on_batch("Rooms", &batch);
                    }
                }
                // Heartbeat: windows expire on every node at once.
                6 => {
                    now += rng.gen_range(1..15u64);
                    oracle.engine.heartbeat(SimTime::from_secs(now));
                    for c in &mut clusters {
                        c.engine.heartbeat(SimTime::from_secs(now));
                    }
                }
                // Register a fresh slot from the plan set.
                7 => {
                    let sql = PLANS[rng.gen_range(0..PLANS.len())];
                    oracle.register(sql);
                    for c in &mut clusters {
                        c.register(sql);
                    }
                }
                // Deregister a random live slot.
                8 => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        for c in std::iter::once(&mut oracle).chain(&mut clusters) {
                            let q = c.queries[slot].take().unwrap();
                            c.engine.deregister(q.handle);
                        }
                    }
                }
                // Toggle pause/resume on a random slot.
                9 => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        for c in std::iter::once(&mut oracle).chain(&mut clusters) {
                            let q = c.queries[slot].as_mut().unwrap();
                            if q.paused {
                                let h = q.handle;
                                q.paused = false;
                                c.engine.resume(h);
                            } else {
                                let h = q.handle;
                                q.paused = true;
                                c.engine.pause(h);
                            }
                        }
                    }
                }
                // Forced cross-node migration: every engine moves the
                // same slot toward the same target modulo its own node
                // count (a no-op on the oracle and the 1-node cluster).
                _ => {
                    if !slots.is_empty() {
                        let slot = slots[rng.gen_range(0..slots.len())];
                        let target = rng.gen_range(0..4usize);
                        for c in std::iter::once(&mut oracle).chain(&mut clusters) {
                            let h = c.queries[slot].as_ref().unwrap().handle;
                            c.engine.migrate(h, target);
                        }
                    }
                }
            }

            // Invariants after every event.
            oracle.check_push_matches_poll(&ctx);
            for c in &mut clusters {
                c.check_push_matches_poll(&ctx);
            }
            for c in &clusters {
                for (slot, (oq, cq)) in oracle.queries.iter().zip(&c.queries).enumerate() {
                    let (Some(oq), Some(cq)) = (oq, cq) else {
                        continue;
                    };
                    assert_eq!(
                        value_rows(&c.engine.snapshot(cq.handle)),
                        value_rows(&oracle.engine.snapshot(oq.handle)),
                        "slot {slot} diverged at {} nodes ({ctx})",
                        c.engine.nodes(),
                    );
                }
            }
        }

        // Cluster execution relocates work but never changes its total.
        let base_ops = oracle.engine.total_ops_invoked();
        for c in &clusters {
            assert_eq!(
                c.engine.total_ops_invoked(),
                base_ops,
                "ops diverged at {} nodes (seed {seed})",
                c.engine.nodes()
            );
        }
        // Conservation across the exchange paths, and non-vacuity:
        // multi-node runs really shipped bytes over links.
        for c in &clusters {
            let AnyEngine::Multi(cluster) = &c.engine else {
                unreachable!()
            };
            let (out, inn) = cluster.exchange_tuples();
            assert_eq!(out, inn, "exchange lost or invented tuples (seed {seed})");
            let wire = cluster.wire_stats();
            assert_eq!(
                wire.tuples, out,
                "link meters disagree with exchange counters"
            );
            if cluster.node_count() > 1 {
                assert!(
                    wire.frames > 0,
                    "no wire traffic at {} nodes",
                    cluster.node_count()
                );
                assert!(wire.bytes > 0, "frames shipped without bytes");
                total_migrations += cluster.migration_count();
            } else {
                assert_eq!(wire.frames, 0, "a 1-node cluster crossed a link");
            }
        }
    }
    assert!(
        total_migrations > 0,
        "forced cross-node migrations never happened across the sweep"
    );
}

/// A hash-partitioned join spread over 2 and 4 nodes must equal the
/// monolithic join on one engine, batch for batch, while genuinely
/// exchanging shares over the wire — and an unrelated query migrating
/// across nodes mid-run must not perturb it.
#[test]
fn hash_partitioned_join_tracks_oracle_under_interleaved_ingest() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    let sql = "select a.value, b.value from PowerA a, PowerB b where a.sensor = b.sensor";
    for seed in seeds(2) {
        for nodes in [2usize, 4] {
            let mut rng = seeded(0x9A54 ^ seed);
            let mut oracle = ShardedEngine::with_config(catalog(), inline_node());
            let oq = oracle.register_sql(sql).unwrap().expect_query();

            let mut c = Cluster::new(
                catalog(),
                ClusterConfig::new().nodes(nodes).node_config(inline_node()),
            );
            let q = c
                .register_hash_partitioned(sql, &[("PowerA", vec![0]), ("PowerB", vec![0])])
                .unwrap();
            // A bystander query on an un-exchanged source, migrated
            // around mid-run.
            let bystander = c
                .register_sql("select r.room from Rooms r")
                .unwrap()
                .expect_query();

            let canon = |mut rows: Vec<Tuple>| {
                rows.sort_by(|a, b| {
                    a.values()
                        .cmp(b.values())
                        .then(a.timestamp().cmp(&b.timestamp()))
                });
                rows
            };
            let mut now = 0u64;
            for step in 0..40 {
                match rng.gen_range(0..8u32) {
                    0..=5 => {
                        let source = if rng.gen_bool(0.5) {
                            "PowerA"
                        } else {
                            "PowerB"
                        };
                        let batch: Vec<Tuple> = (0..rng.gen_range(1..6usize))
                            .map(|_| {
                                power(rng.gen_range(0..5i64), rng.gen_range(0..100i64) as f64, now)
                            })
                            .collect();
                        now += 1;
                        oracle.on_batch(source, &batch).unwrap();
                        c.on_batch(source, &batch).unwrap();
                    }
                    6 => {
                        now += rng.gen_range(1..5u64);
                        oracle.heartbeat(SimTime::from_secs(now)).unwrap();
                        c.heartbeat(SimTime::from_secs(now)).unwrap();
                    }
                    _ => {
                        c.migrate(bystander, rng.gen_range(0..nodes)).unwrap();
                        c.on_batch("Rooms", &[room(step as i64 % 3, step as i64)])
                            .unwrap();
                        oracle
                            .on_batch("Rooms", &[room(step as i64 % 3, step as i64)])
                            .unwrap();
                    }
                }
                assert_eq!(
                    c.snapshot(q).unwrap(),
                    canon(oracle.snapshot(oq).unwrap()),
                    "partitioned join diverged ({nodes} nodes, seed {seed}, step {step})"
                );
            }
            let (out, inn) = c.exchange_tuples();
            assert_eq!(out, inn);
            assert!(out > 0, "the exchange never shipped a share");
            assert!(c.wire_stats().bytes > 0);
            assert!(!c.snapshot(q).unwrap().is_empty(), "join stayed empty");
        }
    }
}

/// The trace plane across the wire (PR 9): a batch admitted on a
/// source's home node and shipped to a migrated query carries its trace
/// context inside the encoded frame. Conservation: every Ship span in
/// the cluster journal has a matching Arrive span; every forced
/// cross-node migration left a Migrate span; the nodes a query migrated
/// *to* record non-empty ingest→apply histograms whose samples include
/// the simulated wire hop (≥ the 200 µs default LAN latency); and the
/// cluster-merged histogram — itself shipped node-by-node over the
/// control link as encoded `Histogram` frames — accounts for exactly
/// the per-node sample totals.
#[test]
fn cross_node_traces_conserve_spans_and_charge_remote_histograms() {
    use smartcis::stream::SpanKind;

    let nodes = 3usize;
    let mut c = Cluster::new(
        catalog(),
        ClusterConfig::new().nodes(nodes).node_config(inline_node()),
    );
    // Two PowerA queries (home node 0) and two PowerB queries (home
    // node 1): registration order over the catalog fixes the homes.
    let qs: Vec<QueryHandle> = PLANS[..4]
        .iter()
        .map(|sql| c.register_sql(sql).unwrap().expect_query())
        .collect();
    let feed = |c: &mut Cluster, base: i64, sec: u64| {
        let batch: Vec<Tuple> = (0..4)
            .map(|i| power(base + i, 50.0 + i as f64, sec))
            .collect();
        c.on_batch("PowerA", &batch).unwrap();
        c.on_batch("PowerB", &batch).unwrap();
    };
    // Baseline: home-local applies only — nothing ships, nothing
    // arrives, and the trace stays on the home nodes.
    feed(&mut c, 0, 1);
    assert_eq!(c.journal().count_kind(SpanKind::Ship), 0);
    assert_eq!(c.journal().count_kind(SpanKind::Arrive), 0);
    // Force every query off its home: PowerA's to node 1, PowerB's to
    // node 2. From here each ingest must ship home → host, traced.
    c.migrate(qs[0], 1).unwrap();
    c.migrate(qs[1], 1).unwrap();
    c.migrate(qs[2], 2).unwrap();
    c.migrate(qs[3], 2).unwrap();
    for step in 0..8u64 {
        feed(&mut c, step as i64, 2 + step);
    }
    c.heartbeat(SimTime::from_secs(20)).unwrap();

    // Span conservation: ship == arrive (> 0), one Migrate span per
    // forced move.
    let ships = c.journal().count_kind(SpanKind::Ship);
    assert!(ships > 0, "forced off-home queries but nothing shipped");
    assert_eq!(ships, c.journal().count_kind(SpanKind::Arrive));
    assert_eq!(c.journal().count_kind(SpanKind::Migrate), 4);
    assert_eq!(c.migration_count(), 4);

    // The receiving nodes' histograms are non-empty, and their maxima
    // carry the simulated wire hop the shipped batches were charged.
    for host in [1usize, 2] {
        let h = c
            .node(host)
            .telemetry_at(Consistency::Fresh)
            .ingest_latency();
        assert!(
            !h.is_empty(),
            "node {host} hosts migrated queries but recorded nothing"
        );
        assert!(
            h.max_us() >= 200,
            "node {host} max {} us lacks the wire hop",
            h.max_us()
        );
    }
    // The merged histogram (shipped over the control link as encoded
    // frames) conserves every per-node sample.
    let per_node: u64 = (0..nodes)
        .map(|i| {
            c.node(i)
                .telemetry_at(Consistency::Fresh)
                .ingest_latency()
                .count()
        })
        .sum();
    let merged = c.merged_latency().unwrap();
    assert_eq!(merged.count(), per_node);
    assert!(merged.p99_us() >= 200, "merged p99 lost the shipped tail");
    assert!(c.wire_stats().bytes > 0);
}

/// A cross-node migration whose recipient cannot drain (a deferred task
/// error is pending there) must fail *before* the donor lifts anything:
/// the query stays registered, on the donor, with its state untouched,
/// and — the error having been observed once — a later migrate succeeds.
#[test]
fn failed_cross_node_migrate_leaves_the_query_on_the_donor() {
    for seed in seeds(4) {
        let mut c = Cluster::new(
            catalog(),
            ClusterConfig::new()
                .nodes(2)
                .node_config(EngineConfig::new().shards(1).deterministic(seed)),
        );
        c.home_source("PowerA", 0).unwrap();
        c.home_source("PowerB", 1).unwrap();
        let q = c
            .register(QuerySpec::sql("select a.sensor, a.value from PowerA a [rows 5]").on_node(0))
            .unwrap()
            .expect_query();
        c.register(QuerySpec::sql("select b.value from PowerB b").on_node(1))
            .unwrap();
        let good: Vec<Tuple> = (0..8)
            .map(|i| power(i % 4, 10.0 * i as f64, i as u64))
            .collect();
        c.on_batch("PowerA", &good).unwrap();
        let before = c.snapshot(q).unwrap();
        assert_eq!(before.len(), 5);

        // Poison the recipient: a malformed 1-column tuple against the
        // 2-column scan fails inside node 1's deferred task. An ingest
        // that returns `Ok` left that failure queued, not yet observed.
        let bad = Tuple::new(vec![Value::Int(1)], SimTime::from_secs(9));
        let queued = (0..64).any(|_| c.on_batch("PowerB", std::slice::from_ref(&bad)).is_ok());
        assert!(queued, "seed {seed}: the failure never stayed deferred");

        assert!(
            c.migrate(q, 1).is_err(),
            "seed {seed}: the recipient's pending error must fail the migration"
        );
        assert_eq!(c.query_count(), 2, "seed {seed}: the query was dropped");
        assert_eq!(
            c.node_of_query(q).unwrap(),
            0,
            "seed {seed}: left the donor"
        );
        assert_eq!(c.migration_count(), 0);
        assert_eq!(c.snapshot(q).unwrap(), before, "seed {seed}: state changed");
        c.on_batch("PowerA", &[power(1, 99.0, 10)]).unwrap();
        let after = c.snapshot(q).unwrap();
        assert_ne!(after, before, "seed {seed}: the donor stopped feeding it");

        // The failed attempt observed the error; the retry goes through.
        c.migrate(q, 1).unwrap();
        assert_eq!(c.node_of_query(q).unwrap(), 1);
        assert_eq!(
            c.snapshot(q).unwrap(),
            after,
            "seed {seed}: replayed or lost rows"
        );
    }
}
