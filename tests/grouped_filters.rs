//! Integration: grouped filters. A `col op constant` filter directly
//! above a cursor-fed stream scan is run by its source log's filter
//! index — once per group per class batch — instead of by its query.
//! Each member must still get exactly what its own `FilterOp` would have
//! produced, so against an engine whose every filter is private
//! (`shared_subplans(false)`), at 1 and 2 shards under every scheduling
//! mode, after every event of a seeded churn — ingest of NULL, NaN, ±0
//! and ±(2⁵³ + 1) values, heartbeats, register / deregister / pause /
//! resume / migrate:
//!
//! * snapshots are equal, and each push subscription's accumulated
//!   deltas equal its snapshot;
//! * per query, `ops_invoked`, `tuples_in` and `output_deltas` are equal,
//!   and so is the per-kind op profile's count of invocations and deltas
//!   — the filter hop is charged the whole class batch, as if it ran;
//! * a fresh registration reports `grouped_filter` exactly when its
//!   template groups and its engine shares logs.
//!
//! The templates cover the five grouped operators, `Lit op Col`, `Int`
//! and `Float` constants on an `Int` and on a `Float` column, text `=`
//! and `<`, and three controls that must stay private: `<>`, an `AND`,
//! and a filter feeding an indexed join side.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::{
    render_json, render_prometheus, Consistency, EngineConfig, OpKind, QueryHandle, QuerySpec,
    ResultSubscription, Scheduling, ShardedEngine, TelemetryReport,
};
use smartcis::types::rng::seeded;
use smartcis::types::{DataType, Field, Schema, SimTime, Tuple, Value};

/// `n` seeds in this run's `ASPEN_TEST_SEED` block.
fn seeds(n: u64) -> impl Iterator<Item = u64> {
    let base: u64 = std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    (0..n).map(move |i| base.wrapping_mul(0x1000).wrapping_add(i))
}

fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("t", DataType::Text),
    ]);
    let stats = SourceStats::stream(8.0).with_distinct("i", 8);
    cat.register_source("S", schema.into_ref(), SourceKind::Stream, stats)
        .unwrap();
    cat
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

/// One step of the churn. Slot picks are resolved against the live
/// slots when the event runs, identically in every engine.
#[derive(Clone, Debug)]
enum Event {
    Ingest(Vec<Tuple>),
    Heartbeat(u64),
    Register(usize, usize),
    Deregister(u32),
    PauseOrResume(u32),
    Migrate(u32, usize),
}

/// A reading whose columns take the awkward values often.
fn tuple(rng: &mut impl Rng, now: u64) -> Tuple {
    let i = match rng.gen_range(0..10u32) {
        0 => Value::Null,
        1 => Value::Int(BIG),
        2 => Value::Int(-BIG),
        _ => Value::Int(rng.gen_range(-4..5i64)),
    };
    let f = match rng.gen_range(0..12u32) {
        0 => Value::Null,
        1 => Value::Float(f64::NAN),
        2 => Value::Float(-0.0),
        3 => Value::Float(BIG as f64),
        4 => Value::Float(-(BIG as f64)),
        _ => Value::Float(rng.gen_range(-8..9i64) as f64 * 0.5),
    };
    let t = match rng.gen_range(0..7u32) {
        0 => Value::Null,
        k => Value::Text(["", "a", "b", "m", "z", "a"][k as usize - 1].into()),
    };
    Tuple::new(
        vec![i, f, t],
        SimTime::from_secs(now + rng.gen_range(0..2u64)),
    )
}

/// Two registrations of every template, then a seeded churn.
fn events(seed: u64) -> Vec<Event> {
    let mut rng = seeded(0x6_F11_7E5 ^ seed);
    let mut out: Vec<Event> = (0..2 * TEMPLATES.len())
        .map(|k| Event::Register(k % TEMPLATES.len(), rng.gen_range(0..24usize)))
        .collect();
    let mut now = 0u64;
    for _ in 0..70 {
        out.push(match rng.gen_range(0..20u32) {
            0..=10 => {
                let batch = (0..rng.gen_range(1..24usize))
                    .map(|_| tuple(&mut rng, now))
                    .collect();
                now += 1;
                Event::Ingest(batch)
            }
            11 | 12 => {
                now += rng.gen_range(1..8u64);
                Event::Heartbeat(now)
            }
            13..=15 => {
                Event::Register(rng.gen_range(0..TEMPLATES.len()), rng.gen_range(0..24usize))
            }
            16 => Event::Deregister(rng.gen()),
            17 | 18 => Event::PauseOrResume(rng.gen()),
            _ => Event::Migrate(rng.gen(), rng.gen_range(0..2usize)),
        });
    }
    out
}

/// A live query: its handle, push subscription and the net multiset its
/// drained deltas add up to.
type Slot = (QueryHandle, ResultSubscription, HashMap<Tuple, i64>);

/// One engine under test, with its queries by slot.
struct Client {
    engine: ShardedEngine,
    shared: bool,
    slots: Vec<Option<Slot>>,
    ctx: String,
}

/// What a slot shows after an event: its snapshot and its
/// `(tuples_in, ops_invoked, output_deltas)`.
type Shown = Vec<Option<(Vec<Tuple>, (u64, u64, u64))>>;

/// Invocations and deltas per operator kind.
fn profile(report: &TelemetryReport) -> Vec<(u64, u64)> {
    let kinds = report.profile.iter();
    kinds.map(|(_, m)| (m.invocations, m.deltas)).collect()
}

impl Client {
    fn new(shards: usize, scheduling: Scheduling, shared: bool) -> Client {
        let config = EngineConfig::new()
            .shards(shards)
            .scheduling(scheduling)
            .shared_subplans(shared);
        Client {
            engine: ShardedEngine::with_config(catalog(), config),
            shared,
            slots: Vec::new(),
            ctx: format!("{shards} shards, {scheduling:?}, shared {shared}"),
        }
    }

    fn apply(&mut self, event: &Event) {
        let live: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect();
        let pick = |r: u32| (!live.is_empty()).then(|| live[r as usize % live.len()]);
        let e = &mut self.engine;
        let handle = |slot: Option<usize>| slot.and_then(|s| self.slots[s].as_ref().map(|q| q.0));
        match event {
            Event::Ingest(batch) => e.on_batch("S", batch).unwrap(),
            Event::Heartbeat(secs) => e.heartbeat(SimTime::from_secs(*secs)).unwrap(),
            Event::Register(template, constant) => {
                let spec = QuerySpec::sql(sql(*template, *constant)).push();
                let h = e.register(spec).unwrap().expect_query();
                let sub = e.subscribe(h).unwrap();
                let report = e.telemetry_at(Consistency::Fresh);
                assert_eq!(
                    report.query(h.0).unwrap().grouped_filter,
                    self.shared && groups(*template, *constant),
                    "'{}' ({})",
                    sql(*template, *constant),
                    self.ctx
                );
                self.slots.push(Some((h, sub, HashMap::new())));
            }
            Event::Deregister(r) => {
                if let Some(slot) = pick(*r) {
                    let (h, ..) = self.slots[slot].take().unwrap();
                    e.deregister(h).unwrap();
                }
            }
            Event::PauseOrResume(r) => {
                if let Some(h) = handle(pick(*r)) {
                    match e.is_paused(h).unwrap() {
                        true => e.resume(h).unwrap(),
                        false => e.pause(h).unwrap(),
                    }
                }
            }
            Event::Migrate(r, to) => {
                if let Some(h) = handle(pick(*r)) {
                    e.migrate(h, to % e.shard_count()).unwrap();
                }
            }
        }
    }

    /// Every slot's snapshot and counters; checks push == poll on the way.
    fn shown(&mut self, at: &str) -> (Shown, Vec<(u64, u64)>) {
        let report = self.engine.telemetry_at(Consistency::Fresh);
        let mut out = Vec::new();
        for (slot, q) in self.slots.iter_mut().enumerate() {
            let Some((h, sub, accum)) = q else {
                out.push(None);
                continue;
            };
            let snapshot = self.engine.snapshot(*h).unwrap();
            for batch in sub.drain() {
                for d in &batch {
                    *accum.entry(d.tuple.clone()).or_insert(0) += d.sign;
                }
            }
            accum.retain(|_, n| *n != 0);
            let mut polled: HashMap<Tuple, i64> = HashMap::new();
            for t in &snapshot {
                *polled.entry(t.clone()).or_insert(0) += 1;
            }
            assert_eq!(
                *accum, polled,
                "push != poll, slot {slot} ({}, {at})",
                self.ctx
            );
            let l = report.query(h.0).unwrap();
            out.push(Some((
                snapshot,
                (l.tuples_in, l.ops_invoked, l.output_deltas),
            )));
        }
        (out, profile(&report))
    }
}

#[test]
fn grouped_filters_equal_private_filters_event_for_event() {
    let mut probed = 0;
    for seed in seeds(2) {
        let events = events(seed);
        let mut oracle = Client::new(1, Scheduling::Sequential, false);
        let mut clients: Vec<Client> = [1, 2]
            .into_iter()
            .flat_map(|shards| {
                [
                    Scheduling::Sequential,
                    Scheduling::Pool,
                    Scheduling::Deterministic(seed),
                ]
                .map(|mode| Client::new(shards, mode, true))
            })
            .collect();
        for (step, event) in events.iter().enumerate() {
            let at = format!("seed {seed}, step {step}, {event:?}");
            oracle.apply(event);
            let want = oracle.shown(&at);
            for c in &mut clients {
                c.apply(event);
                let got = c.shown(&at);
                for (slot, (g, w)) in got.0.iter().zip(&want.0).enumerate() {
                    assert_eq!(g, w, "slot {slot} ({}, {at})", c.ctx);
                }
                assert_eq!(got.1, want.1, "op profile ({}, {at})", c.ctx);
            }
        }
        let total = |c: &Client| -> u64 {
            let report = c.engine.telemetry_at(Consistency::Fresh);
            report.shards.iter().map(|s| s.filter_probes).sum()
        };
        assert_eq!(total(&oracle), 0, "private filters probe no index");
        probed += clients.iter().map(total).min().unwrap();
    }
    assert!(probed > 0, "no grouped filter ever ran");
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
            let prom = format!("aspen_shard_filter_probes{{shard=\"0\"}} {probes}\n");
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
