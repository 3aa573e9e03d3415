//! Integration: recursive views under every scheduling mode and on a
//! cluster. Views are maintained inside the call that admits a boundary,
//! and their output reaches the query shards as ordinary delta boundaries
//! — so at 1 and 2 shards under `Sequential`, `Pool` and
//! `Deterministic(seed)`, and on 2- and 3-node clusters, where every node
//! keeps every view and queries over views move between nodes, after
//! every event of a seeded churn (stream ingest, table inserts and
//! retractions, heartbeats that jump past the window, register /
//! deregister / pause / resume / migrate of the downstream queries, a
//! second view registered mid-run), against the private path — standalone
//! views and pipelines; the model covers no view (a row of the
//! equivalence kit, `tests/common/`):
//!
//! * every downstream query's snapshot is equal, and each push
//!   subscription's accumulated deltas equal its snapshot;
//! * every view's materialization is equal, and so are its maintenance
//!   statistics — on every node of a cluster;
//! * each system agrees with itself: a live filter or count over a view
//!   equals that view's own rows (the kit's `agree` check), so a view
//!   whose emitted deltas drift from its materialization fails even
//!   where the private path drifts alike;
//! * each query's counters and the op profile are equal;
//! * the executor has one cell per shard, none queued past its depth.

mod common;

use std::sync::Arc;

use common::{seeds, Cell, Config, Mode, Oracle, Row, SlotState, View, Weights, Workload, I, T};
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::stream::{Cluster, ClusterConfig, EngineConfig, ShardedEngine};
use smartcis::types::DataType::{Int, Text};
use smartcis::types::{Tuple, Value};

/// The queue depth every engine runs at: small, so `Pool` backpressure
/// and `Deterministic` inline draining both engage.
const DEPTH: usize = 2;

fn catalog() -> Arc<Catalog> {
    let edges: &[_] = &[("src", Text), ("dst", Text)];
    let stream = || SourceStats::stream(4.0);
    common::catalog(&[
        ("Moves", stream(), edges),
        ("Links", SourceStats::table(16), edges),
        ("Pings", stream(), &[("node", Text), ("level", Int)]),
    ])
}

/// The views, in registration order: `Recent` over a windowed stream
/// from the start, `Reach` over a table registered mid-run.
const VIEWS: &[(&str, &str)] = &[
    (
        "Recent",
        "create recursive view Recent as ( \
           select m.src, m.dst from Moves m [range 10 seconds] \
           union \
           select r.src, m.dst from Recent r, Moves m [range 10 seconds] where r.dst = m.src )",
    ),
    (
        "Reach",
        "create recursive view Reach as ( \
           select l.src, l.dst from Links l \
           union \
           select r.src, l.dst from Reach r, Links l where r.dst = l.src )",
    ),
];

const NODES: [&str; 5] = ["a", "b", "c", "d", "e"];

/// Template `t` computes shape `t / 2` over view `t % 2`: the view's rows
/// leaving node `c`, the view joined with a stream, or how many rows the
/// view holds.
fn sql(t: usize, c: usize) -> String {
    let (view, node) = (VIEWS[t % 2].0, NODES[c]);
    match t / 2 {
        0 => format!("select x.src, x.dst from {view} x where x.src = '{node}'"),
        1 => format!(
            "select x.src, p.level from {view} x, Pings p [range 10 seconds] \
             where x.dst = p.node"
        ),
        _ => format!("select count(*) from {view} x"),
    }
}

/// A filter over a view holds the view's rows leaving its node; a count
/// holds how many rows the view has.
fn agree(slot: &SlotState, rows: &[Tuple], views: &[View]) -> Result<(), String> {
    let name = VIEWS[slot.template % 2].0;
    let held = &views
        .iter()
        .find(|v| v.0 == name)
        .expect("registered first")
        .1;
    let node = Value::Text(NODES[slot.constant].into());
    let want: Vec<Vec<Value>> = match slot.template / 2 {
        0 => held
            .iter()
            .filter(|t| *t.get(0) == node)
            .map(|t| t.values().to_vec())
            .collect(),
        2 => vec![vec![Value::Int(held.len() as i64)]],
        _ => return Ok(()),
    };
    let got: Vec<Vec<Value>> = rows.iter().map(|t| t.values().to_vec()).collect();
    match got == want {
        true => Ok(()),
        false => Err(format!("`{}` shows {got:?}, its view {want:?}", slot.sql)),
    }
}

fn cells(rng: &mut StdRng, source: &'static str, _: i64) -> Vec<Cell> {
    let node = |rng: &mut StdRng| T(NODES[rng.gen_range(0..5usize)]);
    match source {
        "Pings" => vec![node(rng), I(rng.gen_range(0..4i64))],
        _ => vec![node(rng), node(rng)],
    }
}

fn views_row() -> Row {
    let mut w = Workload {
        streams: &[("Moves", 5), ("Pings", 2)],
        tables: &["Links"],
        templates: (6, NODES.len()),
        views: VIEWS,
        opening: vec![common::RegisterView { view: 0 }],
        push: true,
        weights: Weights {
            ingest: 7,
            table_deltas: 3,
            heartbeat: 2,
            register: 3,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 2,
            ..Weights::default()
        },
        events: 90,
        batch: (1, 5),
        // Up to two and a half window widths at once.
        jump: (1, 26),
        // Repeated rows: a fact of several copies outlives a retraction.
        awkward: 10,
        ..Workload::new(catalog, cells, sql)
    };
    w.opening.extend(w.register_all([(0, 1), (2, 3), (4, 0)]));
    let mut configs = Config::matrix(&[1, 2]);
    configs.extend([2, 3].map(|n| Config::cluster(n, Mode::Seq)));
    let configs = configs.into_iter().map(|c| c.depth(DEPTH));
    let row = Row::new("views_row()", w, configs.collect());
    row.oracle(Oracle::Private).agree(agree)
}

#[test]
fn views_agree_under_every_scheduling_mode_and_shard_count() {
    let (mut shrank, mut moved) = (false, false);
    for run in views_row().check(seeds(2)) {
        moved |= run
            .engines()
            .any(|o| o.label.contains("nodes") && o.migrations > 0);
        let held: Vec<usize> = run
            .of("Private")
            .samples
            .iter()
            .map(|s| s.view_rows[0])
            .collect();
        shrank |= held.windows(2).any(|w| w[1] < w[0]);
    }
    assert!(shrank, "the windowed view never shrank");
    assert!(moved, "no query over a view moved between nodes");
}

/// A view over a view is seeded with the first view's rows and fed its
/// every later change, on one engine of 1 and 2 shards and on every node
/// of a 2-node cluster: `Reach2`, the closure of `Reach`, is `Reach`, and
/// a count over it says so.
#[test]
fn a_view_over_a_view_is_fed() {
    let over = "create recursive view Reach2 as ( \
                select r.src, r.dst from Reach r \
                union \
                select a.src, b.dst from Reach2 a, Reach b where a.dst = b.src )";
    let edge = |a: &str, b: &str| Tuple::row(vec![Value::Text(a.into()), Value::Text(b.into())]);
    let rows = |mut rows: Vec<Tuple>| {
        rows.sort_by(|a, b| a.values().cmp(b.values()));
        rows
    };
    let count = |n: i64| vec![Tuple::row(vec![Value::Int(n)])];
    for shards in [1, 2] {
        let mut e = ShardedEngine::with_config(catalog(), EngineConfig::new().shards(shards));
        e.register_sql(VIEWS[1].1).unwrap();
        e.on_batch("Links", &[edge("a", "b")]).unwrap();
        e.register_sql(over).unwrap();
        let q = e.register_sql("select count(*) from Reach2 x").unwrap();
        let q = q.expect_query();
        assert_eq!(e.view_snapshot("Reach2").unwrap(), [edge("a", "b")]);
        e.on_batch("Links", &[edge("b", "c")]).unwrap();
        let reach = rows(e.view_snapshot("Reach").unwrap());
        assert_eq!(reach.len(), 3, "{shards} shards");
        assert_eq!(
            rows(e.view_snapshot("Reach2").unwrap()),
            reach,
            "{shards} shards"
        );
        assert_eq!(e.snapshot(q).unwrap(), count(3), "{shards} shards");
    }
    let config = ClusterConfig::new()
        .nodes(2)
        .node_config(EngineConfig::new().shards(1));
    let mut c = Cluster::new(catalog(), config);
    c.register_sql(VIEWS[1].1).unwrap();
    c.on_batch("Links", &[edge("a", "b")]).unwrap();
    c.register_sql(over).unwrap();
    let q = c.register_sql("select count(*) from Reach2 x").unwrap();
    let q = q.expect_query();
    c.on_batch("Links", &[edge("b", "c")]).unwrap();
    for i in 0..2 {
        let node = c.node(i);
        let reach = rows(node.view_snapshot("Reach").unwrap());
        assert_eq!(reach.len(), 3, "node {i}");
        assert_eq!(
            rows(node.view_snapshot("Reach2").unwrap()),
            reach,
            "node {i}"
        );
    }
    assert_eq!(c.snapshot(q).unwrap(), count(3));
}
