//! Integration: multi-node cluster execution. A cluster of N real
//! `ShardedEngine` nodes joined by simulated links is a placement
//! decision, not a semantics change — under interleaved ingest /
//! register / deregister / pause / resume / *cross-node migration*
//! churn every query equals the naive model and its private run after
//! every event (a row of the equivalence kit, `tests/common/`), and the
//! exchange paths conserve tuples exactly (every delta serialized onto a
//! link is decoded off it).

mod common;

use std::sync::Arc;

use common::{seeds, Cell, Config, Mode, Row, Weights, Workload, F, I};
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::stream::{
    Cluster, ClusterConfig, Consistency, EngineConfig, QueryHandle, QuerySpec, Scheduling,
    ShardedEngine,
};
use smartcis::types::DataType::{Float, Int, Text};
use smartcis::types::{SimTime, Tuple, Value};

/// Every node (and the single-node oracle) runs one shard, inline.
fn inline_node() -> EngineConfig {
    EngineConfig::new()
        .shards(1)
        .scheduling(Scheduling::Sequential)
}

fn catalog() -> Arc<Catalog> {
    let power: &[_] = &[("sensor", Int), ("value", Float)];
    let stream = || SourceStats::stream(2.0).with_distinct("sensor", 4);
    common::catalog(&[
        ("PowerA", stream(), power),
        ("PowerB", stream(), power),
        (
            "Rooms",
            SourceStats::table(4),
            &[("sensor", Int), ("room", Int)],
        ),
        ("PowerF", stream(), &[("sensor", Float), ("value", Float)]),
    ])
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

fn cells(rng: &mut StdRng, source: &'static str, serial: i64) -> Vec<Cell> {
    match source {
        "Rooms" => vec![I(serial % 4), I(100 + serial)],
        _ => vec![
            I(rng.gen_range(0..4i64)),
            F(rng.gen_range(0..100i64) as f64),
        ],
    }
}

/// Property (tentpole acceptance): cluster execution is invisible.
/// Clusters at N ∈ {1, 2, 4} nodes driven through interleaved ingest
/// (two streams homed on different nodes, plus table upserts that
/// broadcast), heartbeats, register / deregister / pause / resume, and
/// forced cross-node migrations equal the model after every event, with
/// push == poll and per-query counters equal to the private run (no
/// replay anywhere — a moved runtime carries its counters), and every
/// exchange conserves tuples. Multi-node runs shipped real wire traffic
/// and really migrated; a 1-node cluster never crossed a link.
fn cluster_row() -> Row {
    let mut w = Workload {
        streams: &[("PowerA", 1), ("PowerB", 1)],
        tables: &["Rooms"],
        templates: (PLANS.len(), 1),
        push: true,
        weights: Weights {
            ingest: 5,
            table: 1,
            heartbeat: 1,
            register: 1,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 2,
            ..Weights::default()
        },
        ..Workload::new(catalog, cells, |t, _| PLANS[t].into())
    };
    w.opening = w.every_template();
    let configs = [1, 2, 4].map(|n| Config::cluster(n, Mode::Seq)).to_vec();
    Row::new("cluster_row()", w, configs)
}

#[test]
fn cluster_churn_matches_single_node_oracle() {
    let mut migrations = 0;
    for run in cluster_row().check(seeds(3)) {
        for o in run.engines() {
            let (frames, bytes) = o.samples.last().unwrap().wire;
            match o.label.starts_with("1 ") {
                true => assert_eq!(frames, 0, "a 1-node cluster crossed a link"),
                false => assert!(frames > 0 && bytes > 0, "no wire traffic at {}", o.label),
            }
            migrations += o.migrations;
        }
    }
    assert!(
        migrations > 0,
        "forced cross-node migrations never happened"
    );
}

/// A node whose query fails does not starve the nodes after it: a
/// broadcast table batch still reaches every node and a heartbeat
/// advances every node, the boundary finishes, and the error is
/// returned — whichever node is the table's home, in every mode.
#[test]
fn a_failing_node_does_not_starve_the_nodes_after_it() {
    let seed = seeds(1).next().unwrap();
    for scheduling in [
        Scheduling::Sequential,
        Scheduling::Pool,
        Scheduling::Deterministic(seed),
    ] {
        for home in 0..2 {
            let cat =
                common::catalog(&[("Facts", SourceStats::table(4), &[("key", Text), ("n", Int)])]);
            let config = EngineConfig::new().shards(1).scheduling(scheduling);
            let mut c = Cluster::new(cat, ClusterConfig::new().nodes(2).node_config(config));
            c.home_source("Facts", home).unwrap();
            // Summing a text column fails on node 0, at every batch.
            let sum = QuerySpec::sql("select sum(f.key) from Facts f").on_node(0);
            let sum = c.register(sum).unwrap().expect_query();
            let count = QuerySpec::sql("select count(*) from Facts f").on_node(1);
            let count = c.register(count).unwrap().expect_query();
            let mut served = Vec::new();
            for n in 0..2 {
                let fact = Tuple::new(vec![Value::Text("k".into()), Value::Int(n)], SimTime::ZERO);
                served.push(c.on_batch("Facts", &[fact]).is_err());
            }
            served.push(c.heartbeat(SimTime::from_secs(5)).is_err());
            let at = format!("{scheduling:?}, Facts homed on node {home}");
            // Inline, each batch returns node 0's error (the heartbeat
            // steps no failing operator); a deferring mode returns it from
            // a later call or from the read that drains node 0.
            if let Scheduling::Sequential = scheduling {
                assert_eq!(served, [true, true, false], "{at}");
            }
            let drained = c.snapshot(sum).is_err();
            assert!(served.contains(&true) || drained, "{at}: no error returned");
            assert_eq!(
                c.snapshot(count).unwrap()[0].values(),
                &[Value::Int(2)],
                "{at}"
            );
            assert_eq!(c.node(1).now(), SimTime::from_secs(5), "{at}");
        }
    }
}

/// Benchmark-shaped: 2 nodes, two streams homed on opposite nodes, and
/// on every (node, source) pair a resident query over the 30 s window
/// the migrants use. A query moved by log position rejoins a log that
/// already holds its rows, so the moves put no data tuple on a link;
/// after one window width of quiet the migrated cluster holds exactly
/// what a twin that never moved anything holds — state bytes, cursors,
/// cursor classes, and window batches per admitted batch — and every
/// query shows the same rows.
#[test]
fn migrated_cluster_state_equals_an_unmigrated_twin() {
    let twin = || {
        let config = ClusterConfig::new().nodes(2).node_config(inline_node());
        let mut c = Cluster::new(catalog(), config);
        c.home_source("PowerA", 0).unwrap();
        c.home_source("PowerB", 1).unwrap();
        let mut register = |sql: String, node| {
            let spec = QuerySpec::sql(sql.as_str()).on_node(node);
            c.register(spec).unwrap().expect_query()
        };
        let window = "[range 30 seconds]";
        let mut handles = Vec::new();
        for node in 0..2 {
            for src in ["PowerA", "PowerB"] {
                let sql =
                    format!("select x.sensor, x.value from {src} x {window} where x.value > 50");
                handles.push(register(sql, node));
            }
        }
        let mut migrants = Vec::new();
        for i in 0..4 {
            let src = ["PowerA", "PowerB"][i % 2];
            let sql = match i / 2 {
                0 => {
                    format!("select x.sensor, avg(x.value) from {src} x {window} group by x.sensor")
                }
                _ => format!("select x.value from {src} x {window} where x.sensor = {i}"),
            };
            migrants.push(register(sql, i % 2));
        }
        handles.extend(&migrants);
        (c, handles, migrants)
    };
    let feed = |c: &mut Cluster, sec: u64| {
        for (k, src) in ["PowerA", "PowerB"].into_iter().enumerate() {
            let batch: Vec<Tuple> = (0..4)
                .map(|i| {
                    let n = sec * 8 + k as u64 * 4 + i;
                    power((n % 4) as i64, (n * 37 % 100) as f64, sec)
                })
                .collect();
            c.on_batch(src, &batch).unwrap();
        }
        c.heartbeat(SimTime::from_secs(sec)).unwrap();
    };
    let (mut moved, handles, migrants) = twin();
    let (mut still, _, _) = twin();
    for sec in 0..12 {
        feed(&mut moved, sec);
        feed(&mut still, sec);
        let q = migrants[sec as usize % migrants.len()];
        let to = 1 - moved.node_of_query(q).unwrap();
        let wire = moved.wire_stats();
        moved.migrate(q, to).unwrap();
        let after = moved.wire_stats();
        assert_eq!(after.tuples, wire.tuples, "a move put data on a link");
        assert_eq!(after.frames, wire.frames + 1, "the handoff is one frame");
    }
    assert_eq!(moved.migration_count(), 12);
    // One window width of quiet.
    for sec in 12..43 {
        feed(&mut moved, sec);
        feed(&mut still, sec);
    }
    let census = |c: &Cluster| {
        let nodes = (0..2).map(|n| c.node(n));
        let state = nodes.clone().map(|n| n.resident_state());
        let reports = nodes.map(|n| n.telemetry_at(Consistency::Fresh));
        let batches: u64 = reports
            .flat_map(|r| r.shards)
            .map(|s| s.window_batches)
            .sum();
        let mut sum = (0, 0, 0);
        for rs in state {
            sum = (
                sum.0 + rs.state_bytes,
                sum.1 + rs.log_cursors,
                sum.2 + rs.cursor_classes,
            );
        }
        (sum, batches)
    };
    let (before_moved, before_still) = (census(&moved), census(&still));
    assert_eq!(
        before_moved.0, before_still.0,
        "(state bytes, cursors, classes)"
    );
    assert_eq!(before_moved.0 .1, 8, "every scan a cursor");
    assert_eq!(before_moved.0 .2, 4, "one class per (node, source)");
    for sec in 43..53 {
        feed(&mut moved, sec);
        feed(&mut still, sec);
    }
    let (after_moved, after_still) = (census(&moved), census(&still));
    assert_eq!(
        after_moved.1 - before_moved.1,
        after_still.1 - before_still.1,
        "window batches over the last 20 admitted batches"
    );
    assert_eq!(after_moved.0, after_still.0);
    assert_eq!(moved.exchange_tuples(), still.exchange_tuples());
    assert_eq!(moved.wire_stats().tuples, still.wire_stats().tuples);
    for &q in &handles {
        let rows = |c: &Cluster| common::sorted(c.snapshot(q).unwrap());
        assert_eq!(rows(&moved), rows(&still), "query {q:?}");
    }
}

/// A query over a source that is hash-exchanged — registered, and paused,
/// before the exchange split it — cannot move: each node numbers its own
/// share of that source, so no position names the same rows elsewhere.
#[test]
fn a_query_over_an_exchanged_source_is_not_migrated() {
    let config = ClusterConfig::new().nodes(2).node_config(inline_node());
    let mut c = Cluster::new(catalog(), config);
    let q = c
        .register(QuerySpec::sql("select a.value from PowerA a").on_node(0))
        .unwrap()
        .expect_query();
    c.on_batch("PowerA", &[power(1, 10.0, 1)]).unwrap();
    c.pause(q).unwrap();
    let sql = "select a.value, b.value from PowerA a, PowerB b where a.sensor = b.sensor";
    c.register_hash_partitioned(sql, &[("PowerA", vec![0]), ("PowerB", vec![0])])
        .unwrap();
    let refused = c.migrate(q, 1).unwrap_err();
    assert_eq!(refused.kind(), "invalid_argument", "{refused}");
    assert_eq!((c.node_of_query(q).unwrap(), c.migration_count()), (0, 0));
    assert_eq!(
        c.snapshot(q).unwrap().len(),
        1,
        "the paused query is intact"
    );
}

/// A hash-partitioned join spread over 2 and 4 nodes must equal the
/// monolithic join on one engine, batch for batch, while genuinely
/// exchanging shares over the wire — and an unrelated query migrating
/// across nodes mid-run must not perturb it. The join runs twice: with
/// `PowerB` (`INT` keys on both sides) and with `PowerF`, whose `FLOAT`
/// keys meet `PowerA`'s `INT` keys under `=` and so on one node.
#[test]
fn hash_partitioned_join_tracks_oracle_under_interleaved_ingest() {
    use rand::Rng;
    use smartcis::types::rng::seeded;

    for right in ["PowerB", "PowerF"] {
        let sql =
            &format!("select a.value, b.value from PowerA a, {right} b where a.sensor = b.sensor");
        for (seed, nodes) in seeds(2).flat_map(|seed| [(seed, 2usize), (seed, 4)]) {
            let mut rng = seeded(0x9A54 ^ seed);
            let mut oracle = ShardedEngine::with_config(catalog(), inline_node());
            let oq = oracle.register_sql(sql).unwrap().expect_query();

            let mut c = Cluster::new(
                catalog(),
                ClusterConfig::new().nodes(nodes).node_config(inline_node()),
            );
            let q = c
                .register_hash_partitioned(sql, &[("PowerA", vec![0]), (right, vec![0])])
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
                        let source = if rng.gen_bool(0.5) { "PowerA" } else { right };
                        let batch: Vec<Tuple> = (0..rng.gen_range(1..6usize))
                            .map(|_| {
                                let sensor = rng.gen_range(0..5i64);
                                let key = match source {
                                    "PowerF" => Value::Float(sensor as f64),
                                    _ => Value::Int(sensor),
                                };
                                let value = Value::Float(rng.gen_range(0..100i64) as f64);
                                Tuple::new(vec![key, value], SimTime::from_secs(now))
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
                    "partitioned join diverged ({right}, {nodes} nodes, seed {seed}, step {step})"
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
        c.register(QuerySpec::sql("select b.value * 1 from PowerB b").on_node(1))
            .unwrap();
        let good: Vec<Tuple> = (0..8)
            .map(|i| power(i % 4, 10.0 * i as f64, i as u64))
            .collect();
        c.on_batch("PowerA", &good).unwrap();
        let before = c.snapshot(q).unwrap();
        assert_eq!(before.len(), 5);

        // Poison the recipient: a text value fails the arithmetic inside
        // node 1's deferred task. An ingest that returns `Ok` left that
        // failure queued, not yet observed.
        let text = vec![Value::Int(1), Value::Text("n/a".into())];
        let bad = Tuple::new(text, SimTime::from_secs(9));
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

/// The donor-side twin: with a deferred task error pending on the
/// *donor* node, the migration fails at the donor's drain, before it
/// lifts anything — the query stays registered there, state untouched
/// and still fed — and, the error observed once, a retry succeeds.
#[test]
fn failed_cross_node_migrate_on_a_failing_donor_leaves_the_query_there() {
    for seed in seeds(4) {
        let mut c = Cluster::new(
            catalog(),
            ClusterConfig::new()
                .nodes(2)
                .node_config(EngineConfig::new().shards(1).deterministic(seed)),
        );
        c.home_source("PowerA", 0).unwrap();
        c.home_source("PowerB", 0).unwrap();
        let q = c
            .register(QuerySpec::sql("select a.sensor, a.value from PowerA a [rows 5]").on_node(0))
            .unwrap()
            .expect_query();
        c.register(QuerySpec::sql("select b.value * 1 from PowerB b").on_node(0))
            .unwrap();
        let good: Vec<Tuple> = (0..8)
            .map(|i| power(i % 4, 10.0 * i as f64, i as u64))
            .collect();
        c.on_batch("PowerA", &good).unwrap();
        let before = c.snapshot(q).unwrap();
        assert_eq!(before.len(), 5);

        // Poison the donor through its other query's source.
        let text = vec![Value::Int(1), Value::Text("n/a".into())];
        let bad = Tuple::new(text, SimTime::from_secs(9));
        let queued = (0..64).any(|_| c.on_batch("PowerB", std::slice::from_ref(&bad)).is_ok());
        assert!(queued, "seed {seed}: the failure never stayed deferred");

        assert!(
            c.migrate(q, 1).is_err(),
            "seed {seed}: the donor's pending error must fail the migration"
        );
        assert_eq!(c.query_count(), 2, "seed {seed}: the query was dropped");
        assert_eq!(
            c.node_of_query(q).unwrap(),
            0,
            "seed {seed}: left the donor"
        );
        assert_eq!(c.node(1).query_count(), 0, "seed {seed}: landed anyway");
        assert_eq!(c.migration_count(), 0);
        assert_eq!(c.snapshot(q).unwrap(), before, "seed {seed}: state changed");
        c.on_batch("PowerA", &[power(1, 99.0, 10)]).unwrap();
        let after = c.snapshot(q).unwrap();
        assert_ne!(after, before, "seed {seed}: the donor stopped feeding it");

        c.migrate(q, 1).unwrap();
        assert_eq!(c.node_of_query(q).unwrap(), 1);
        assert_eq!(
            c.snapshot(q).unwrap(),
            after,
            "seed {seed}: replayed or lost rows"
        );
    }
}
