//! Integration: grouped filters. A `col op constant` filter directly
//! above a cursor-fed stream scan is run by its source log's filter
//! index — once per group per class batch — instead of by its query.
//! Each member must still get exactly what its own `FilterOp` would have
//! produced. So at 1 and 2 shards under every scheduling mode, after
//! every event of a seeded churn — ingest of NULL, NaN, ±0 and
//! ±(2⁵³ + 1) values, heartbeats, register / deregister / pause /
//! resume / migrate — each query equals the model, and (a row of the
//! equivalence kit, `tests/common/`) its private run:
//!
//! * snapshots are equal, and each push subscription's accumulated
//!   deltas equal its snapshot;
//! * per query, `ops_invoked`, `tuples_in` and `output_deltas` are equal,
//!   and so is the per-kind op profile's count of invocations and deltas
//!   — the filter hop is charged the whole class batch, as if it ran;
//! * a registration reports `grouped_filter` exactly when its template
//!   groups.
//!
//! The templates cover the five grouped operators, `Lit op Col`, `Int`
//! and `Float` constants on an `Int` and on a `Float` column, text `=`
//! and `<`, and three controls that must stay private: `<>`, an `AND`,
//! and a filter feeding an indexed join side.

mod common;

use std::sync::Arc;

use common::{seeds, Cell, Config, Row, Weights, Workload, F, I, N, T};
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::stream::{
    render_json, render_prometheus, Consistency, EngineConfig, OpKind, Scheduling, ShardedEngine,
};
use smartcis::types::rng::seeded;
use smartcis::types::DataType::{Float, Int, Text};
use smartcis::types::{SimTime, Tuple};

fn catalog() -> Arc<Catalog> {
    let stats = SourceStats::stream(8.0).with_distinct("i", 8);
    common::catalog(&[("S", stats, &[("i", Int), ("f", Float), ("t", Text)])])
}

/// 2⁵³ + 1: the first integer `f64` cannot hold.
const BIG: i64 = (1 << 53) + 1;

/// Whether a template's filter groups.
#[derive(Clone, Copy, PartialEq)]
enum Groups {
    Yes,
    /// A numeric range: unless its constant is an `Int` past 2⁵³.
    Range,
    No,
}

/// `{n}` takes a number of [`NUMBERS`], `{t}` a string of [`TEXTS`].
const TEMPLATES: &[(&str, Groups)] = &[
    ("select s.i, s.f from S s where s.f > {n}", Groups::Range),
    (
        "select s.f from S s [rows 6] where s.f >= {n}",
        Groups::Range,
    ),
    (
        "select s.i, count(*) from S s where s.f < {n} group by s.i",
        Groups::Range,
    ),
    (
        "select count(*) from S s [range 5 seconds] where s.i <= {n}",
        Groups::Range,
    ),
    ("select s.f, s.t from S s where s.i = {n}", Groups::Yes),
    (
        "select s.i from S s [tumbling 4 seconds] where s.f = {n}",
        Groups::Yes,
    ),
    ("select s.i, s.f from S s where {n} < s.f", Groups::Range),
    ("select s.t from S s where {n} = s.i", Groups::Yes),
    ("select s.i, s.t from S s where s.t = {t}", Groups::Yes),
    (
        "select s.t, count(*) from S s where s.t < {t} group by s.t",
        Groups::Yes,
    ),
    ("select s.i, s.f from S s where s.f <> {n}", Groups::No),
    (
        "select s.i, s.f from S s where s.f > {n} ^ s.i < 2",
        Groups::No,
    ),
    (
        "select a.f, b.f from S a [range 10 seconds], S b [rows 4] \
         where a.i = b.i ^ a.f > {n}",
        Groups::No,
    ),
];

/// `Int` and `Float` constants, both zeros, and ±(2⁵³ + 1) — the last
/// two, which a range cannot group (it stays private) and an equality
/// can.
const NUMBERS: &[&str] = &[
    "0",
    "3",
    "-3",
    "1.5",
    "-0.0",
    "3.0",
    "9007199254740993",
    "-9007199254740993",
];

const TEXTS: &[&str] = &["''", "'a'", "'m'"];

fn sql(template: usize, constant: usize) -> String {
    let t = TEMPLATES[template].0;
    t.replace("{n}", NUMBERS[constant % NUMBERS.len()])
        .replace("{t}", TEXTS[constant % TEXTS.len()])
}

/// Whether template `template` at constant `constant` groups.
fn groups(template: usize, constant: usize) -> bool {
    match TEMPLATES[template].1 {
        Groups::Yes => true,
        Groups::Range => constant % NUMBERS.len() < NUMBERS.len() - 2,
        Groups::No => false,
    }
}

/// A reading whose columns take the awkward values often.
fn cells(rng: &mut StdRng, _: &'static str, _: i64) -> Vec<Cell> {
    let i = match rng.gen_range(0..10u32) {
        0 => N,
        1 => I(BIG),
        2 => I(-BIG),
        _ => I(rng.gen_range(-4..5i64)),
    };
    let f = match rng.gen_range(0..12u32) {
        0 => N,
        1 => F(f64::NAN),
        2 => F(-0.0),
        3 => F(BIG as f64),
        4 => F(-(BIG as f64)),
        _ => F(rng.gen_range(-8..9i64) as f64 * 0.5),
    };
    let t = match rng.gen_range(0..7u32) {
        0 => N,
        k => T(["", "a", "b", "m", "z", "a"][k as usize - 1]),
    };
    vec![i, f, t]
}

fn tuple(rng: &mut StdRng, now: u64) -> Tuple {
    let values = cells(rng, "S", 0).into_iter().map(Cell::value).collect();
    Tuple::new(values, SimTime::from_secs(now + rng.gen_range(0..2u64)))
}

fn grouped_filters_row() -> Row {
    let mut w = Workload {
        streams: &[("S", 1)],
        templates: (TEMPLATES.len(), 24),
        push: true,
        weights: Weights {
            ingest: 11,
            heartbeat: 2,
            register: 3,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 1,
            ..Weights::default()
        },
        events: 70,
        batch: (1, 24),
        jump: (1, 8),
        ..Workload::new(catalog, cells, sql)
    };
    // Two registrations of every template.
    let n = TEMPLATES.len();
    w.opening = w.register_all((0..2 * n).map(|k| (k % n, 7 * k % 24)));
    Row::new("grouped_filters_row()", w, Config::matrix(&[1, 2]))
}

#[test]
fn grouped_filters_equal_private_filters_event_for_event() {
    let mut probed = 0;
    for run in grouped_filters_row().check(seeds(2)) {
        probed += run
            .engines()
            .map(|o| o.peak(|s| s.filter_probes as usize))
            .min()
            .unwrap();
    }
    assert!(probed > 0, "no grouped filter ever ran");
    // Every template at every constant reports whether it groups.
    let mut e = ShardedEngine::new(catalog(), 1);
    let pairs: Vec<(usize, usize)> = (0..TEMPLATES.len())
        .flat_map(|t| (0..24).map(move |c| (t, c)))
        .collect();
    let handles: Vec<_> = pairs
        .iter()
        .map(|&(t, c)| e.register_sql(&sql(t, c)).unwrap().expect_query())
        .collect();
    let report = e.telemetry_at(Consistency::Fresh);
    for (&(t, c), h) in pairs.iter().zip(handles) {
        let grouped = report.query(h.0).unwrap().grouped_filter;
        assert_eq!(grouped, groups(t, c), "'{}'", sql(t, c));
    }
}

/// `threshold`-style and `point`-style dashboards: 16 constants each of
/// `value > c`, `sensor = c` and `value < c` over one window, one shard.
fn dashboards(scheduling: Scheduling) -> ShardedEngine {
    let config = EngineConfig::new().shards(1).scheduling(scheduling);
    let mut e = ShardedEngine::with_config(catalog(), config);
    for k in 0..16 {
        for sql in [
            format!("select s.i, s.f from S s where s.f > {}", k as f64 * 0.25),
            format!("select s.f from S s where s.i = {}", k - 8),
            format!(
                "select count(*) from S s where s.f < {}",
                k as f64 * 0.5 - 3.5
            ),
        ] {
            e.register_sql(&sql).unwrap().expect_query();
        }
    }
    let mut rng = seeded(0xDA5 ^ seeds(1).next().unwrap());
    for now in 0..40 {
        let batch: Vec<Tuple> = (0..16).map(|_| tuple(&mut rng, now)).collect();
        e.on_batch("S", &batch).unwrap();
        if now % 8 == 7 {
            e.heartbeat(SimTime::from_secs(now + 30)).unwrap();
        }
    }
    e
}

/// `filter_probes` is exact: identical over five same-seed runs under
/// each scheduling mode and across the modes, one probe per delta per
/// group stepped — here a tenth of the filter-hop deltas the 48 members
/// are charged, or less — and exported.
#[test]
fn filter_probes_are_exact_under_every_scheduling_mode() {
    let mut seen = Vec::new();
    for scheduling in [
        Scheduling::Sequential,
        Scheduling::Pool,
        Scheduling::Deterministic(0x9F ^ seeds(1).next().unwrap()),
    ] {
        for _ in 0..5 {
            let report = dashboards(scheduling).telemetry_at(Consistency::Fresh);
            let probes = report.shards[0].filter_probes;
            let filtered = report.profile.meter(OpKind::Filter).deltas;
            assert!(
                probes > 0 && probes * 10 <= filtered,
                "{probes} probes for {filtered} filter-hop deltas ({scheduling:?})"
            );
            assert!(report.queries.iter().all(|q| q.grouped_filter));
            let prom = format!("aspen_shard_filter_probes_total{{shard=\"0\"}} {probes}\n");
            assert!(render_prometheus(&report).contains(&prom));
            let json = render_json(&report);
            assert!(
                json.contains(&format!("\"filter_probes\":{probes},")),
                "{json}"
            );
            assert!(json.contains("\"grouped_filter\":true,"));
            seen.push(probes);
        }
    }
    assert!(seen.iter().all(|&p| p == seen[0]), "{seen:?}");
}
