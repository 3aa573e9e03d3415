//! Integration: one copy of a stream per engine. The ingest slice
//! numbers every stream batch once, every shard's log of the source uses
//! those numbers as row ids, and a sealed segment of a source's log is
//! stored once per engine whichever shards' cursors read it. So, at any
//! shard count and under every scheduling mode, through register /
//! deregister / pause / resume / forced migration (logs are created and
//! emptied mid-stream):
//!
//! * (a) snapshots equal the 1-shard engine's after every event;
//! * (b) every log holding a tuple gives it the same row id — the
//!   tuple's arrival number at its source;
//! * (c) after a drain, the engine's log bytes exceed the 1-shard
//!   engine's by at most one active segment and one liveness word per
//!   segment per shard;
//! * (d) engine `state_bytes` is identical over five same-seed runs and
//!   across the three modes.

use std::collections::HashMap;
use std::sync::Arc;

use rand::Rng;
use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::state::ColumnarDeque;
use smartcis::stream::{Consistency, EngineConfig, QueryHandle, Scheduling, ShardedEngine};
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

const SOURCES: [&str; 2] = ["Readings", "Alarms"];

fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let field = Field::new;
    let readings = vec![
        field("sensor", DataType::Int),
        field("site", DataType::Text),
        field("value", DataType::Int),
    ];
    let alarms = vec![
        field("sensor", DataType::Int),
        field("level", DataType::Int),
    ];
    for (name, fields) in SOURCES.into_iter().zip([readings, alarms]) {
        let stats = SourceStats::stream(4.0).with_distinct("sensor", 6);
        let schema = Schema::new(fields).into_ref();
        cat.register_source(name, schema, SourceKind::Stream, stats)
            .unwrap();
    }
    cat
}

/// Windows of every spec over both streams, plus a join and a
/// self-join. The four long windows (150 s, 800 rows, 100 s, 120 s) are
/// registered first, where hash placement puts them on different shards
/// at 2 and at 4 shards, so several shards' logs hold the same rows.
const PLANS: &[&str] = &[
    "select r.sensor, count(*), sum(r.value) from Readings r [range 150 seconds] \
     group by r.sensor",
    "select count(*) from Readings r [tumbling 90 seconds]",
    "select r.site, count(*) from Readings r [rows 800] group by r.site",
    "select r.sensor, max(r.value) from Readings r [range 100 seconds] group by r.sensor",
    "select r.sensor, r.value from Readings r [rows 40] where r.value > 20",
    "select r.site, sum(r.value) from Readings r [range 120 seconds] group by r.site",
    "select r.value, a.level from Readings r [rows 30], Alarms a [range 100 seconds] \
     where r.sensor = a.sensor",
    "select a.value, b.value from Readings a [rows 9], Readings b [range 6 seconds] \
     where a.sensor = b.sensor",
    "select r.sensor, r.site from Readings r where r.sensor = 2 ^ r.value < 300",
];

/// One step of the churn. Slot picks are resolved against the live
/// slots when the event runs, identically in every engine.
#[derive(Clone, Debug)]
enum Event {
    Ingest(usize, Vec<Tuple>),
    Heartbeat(u64),
    Register(usize),
    Deregister(u32),
    PauseOrResume(u32),
    Migrate(u32, usize),
}

/// The one plan over `Alarms`: registered only once `Alarms` has
/// delivered, so its logs start mid-stream.
const JOIN: usize = 6;

/// A seeded event list. Every tuple carries a value no other tuple has
/// (its last column), which names it in the logs. Now and then the clock
/// jumps past every `RANGE` window, emptying logs mid-stream.
fn events(seed: u64) -> Vec<Event> {
    let mut rng = seeded(0x105_5AE ^ seed);
    let (mut now, mut next) = (0u64, 0i64);
    let mut out: Vec<Event> = (0..PLANS.len())
        .filter(|&p| p != JOIN)
        .map(Event::Register)
        .collect();
    for i in 0..70 {
        if i % 25 == 20 {
            out.push(Event::Register(JOIN));
        }
        out.push(match rng.gen_range(0..24u32) {
            0..=15 => {
                let src = usize::from(rng.gen_range(0..5u32) == 0);
                let batch = (0..rng.gen_range(1..70usize))
                    .map(|_| {
                        next += 1;
                        let sensor = Value::Int(rng.gen_range(0..6i64));
                        let ts = SimTime::from_secs(now + rng.gen_range(0..2u64));
                        let site = Value::Text(format!("site-{}", rng.gen_range(0..9u32)));
                        let row = match src {
                            0 => vec![sensor, site, Value::Int(next)],
                            _ => vec![sensor, Value::Int(next)],
                        };
                        Tuple::new(row, ts)
                    })
                    .collect();
                now += 1;
                Event::Ingest(src, batch)
            }
            16 | 17 => {
                now += [rng.gen_range(1..12u64), 200][usize::from(rng.gen_range(0..5u32) == 0)];
                Event::Heartbeat(now)
            }
            18..=20 => Event::Register(rng.gen_range(0..PLANS.len())),
            21 => Event::Deregister(rng.gen()),
            22 => Event::PauseOrResume(rng.gen()),
            _ => Event::Migrate(rng.gen(), rng.gen_range(0..4usize)),
        });
    }
    out
}

/// What one engine shows after one event.
struct Seen {
    /// Per registration slot: the snapshot, `None` once retired.
    snapshots: Vec<Option<Vec<Tuple>>>,
    state_bytes: usize,
    log_bytes: usize,
    window_tuples: usize,
    /// The shards' log bytes beyond the engine's: what sharing saved.
    saved: usize,
}

/// Run the events on one engine, checking (b) after each; what it showed
/// after each event.
fn run(events: &[Event], shards: usize, scheduling: Scheduling, ctx: &str) -> Vec<Seen> {
    let config = EngineConfig::new().shards(shards).scheduling(scheduling);
    let mut e = ShardedEngine::with_config(catalog(), config);
    let ids: Vec<_> = SOURCES.map(|s| e.catalog().source(s).unwrap().id).into();
    let mut slots: Vec<Option<QueryHandle>> = Vec::new();
    // Each tuple's arrival number at its source, by its unique value.
    let mut numbers: HashMap<Value, u64> = HashMap::new();
    let mut admitted = [0u64; 2];
    let mut out = Vec::new();
    for (step, event) in events.iter().enumerate() {
        let at = format!("{ctx}, {shards} shards, {scheduling:?}, step {step}");
        let live: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].is_some()).collect();
        let pick = |r: u32| (!live.is_empty()).then(|| live[r as usize % live.len()]);
        match event {
            Event::Ingest(src, batch) => {
                for t in batch {
                    let name = t.values().last().unwrap().clone();
                    numbers.insert(name, admitted[*src]);
                    admitted[*src] += 1;
                }
                e.on_batch(SOURCES[*src], batch).unwrap();
            }
            Event::Heartbeat(secs) => e.heartbeat(SimTime::from_secs(*secs)).unwrap(),
            Event::Register(plan) => {
                slots.push(Some(e.register_sql(PLANS[*plan]).unwrap().expect_query()));
            }
            Event::Deregister(r) => {
                if let Some(slot) = pick(*r) {
                    e.deregister(slots[slot].take().unwrap()).unwrap();
                }
            }
            Event::PauseOrResume(r) => {
                if let Some(h) = pick(*r).and_then(|slot| slots[slot]) {
                    match e.is_paused(h).unwrap() {
                        true => e.resume(h).unwrap(),
                        false => e.pause(h).unwrap(),
                    }
                }
            }
            Event::Migrate(r, to) => {
                if let Some(h) = pick(*r).and_then(|slot| slots[slot]) {
                    e.migrate(h, to % shards).unwrap();
                }
            }
        }
        // (b): a row's id is its tuple's arrival number, on every shard
        // (every third event: reading whole logs is the slow part).
        let logs = ids
            .iter()
            .filter(|_| step % 3 == 2)
            .map(|&src| e.log_contents(src));
        for (shard, log) in logs.flat_map(|shards| shards.into_iter().enumerate()) {
            for (row, t) in log {
                let want = numbers[t.values().last().unwrap()];
                assert_eq!(row, want, "shard {shard} numbers {t:?} {row} ({at})");
            }
        }
        let snapshot = |h: QueryHandle| e.snapshot(h).unwrap();
        let rs = e.resident_state();
        let shard_logs: u64 = e
            .telemetry_at(Consistency::Fresh)
            .shards
            .iter()
            .map(|s| s.log_bytes)
            .sum();
        out.push(Seen {
            snapshots: slots.iter().map(|h| h.map(snapshot)).collect(),
            state_bytes: rs.state_bytes,
            log_bytes: rs.log_bytes,
            window_tuples: rs.window_tuples,
            saved: shard_logs as usize - rs.log_bytes,
        });
    }
    out
}

/// Bytes of one full active (append-form) segment of each source's logs,
/// summed: 32 rows as wide as the workload draws them, every site in.
fn active_segment_bytes() -> usize {
    let mut bytes = 0;
    for src in 0..SOURCES.len() {
        let mut deque = ColumnarDeque::new(None);
        for i in 0..32i64 {
            let site = Value::Text(format!("site-{}", i % 9));
            let row = match src {
                0 => vec![Value::Int(i % 6), site, Value::Int(i)],
                _ => vec![Value::Int(i % 6), Value::Int(i)],
            };
            deque.push_back(&Tuple::new(row, SimTime::from_secs(i as u64)));
        }
        bytes += deque.state_bytes();
    }
    bytes
}

#[test]
fn one_stream_is_one_copy_at_any_shard_count() {
    let active = active_segment_bytes();
    // The most sharing saved beyond the slack (c) allows: a run whose
    // shards each kept their own copy would have failed (c) there.
    let mut margin = i64::MIN;
    for seed in seeds(1) {
        let (events, ctx) = (events(seed), format!("seed {seed}"));
        let bytes = |seen: &[Seen]| -> Vec<usize> { seen.iter().map(|s| s.state_bytes).collect() };
        let mut bytes_at: HashMap<usize, Vec<usize>> = HashMap::new();
        for scheduling in [
            Scheduling::Sequential,
            Scheduling::Pool,
            Scheduling::Deterministic(seed),
        ] {
            let runs = [1, 2, 4].map(|shards| (shards, run(&events, shards, scheduling, &ctx)));
            let one = &runs[0].1;
            for (shards, many) in &runs[1..] {
                for (step, (a, b)) in one.iter().zip(many).enumerate() {
                    let at = format!("{ctx}, {shards} shards, {scheduling:?}, step {step}");
                    // (a)
                    assert_eq!(b.snapshots, a.snapshots, "{at}");
                    // (c): per shard, one more open segment per source and
                    // one more liveness word per segment.
                    let segments = a.window_tuples / 32 + 2 * SOURCES.len();
                    let slack = shards * (active + 8 * segments);
                    assert!(
                        b.log_bytes <= a.log_bytes + slack,
                        "logs hold {} bytes, one shard's {} + {slack} ({at})",
                        b.log_bytes,
                        a.log_bytes
                    );
                    margin = margin.max(b.saved as i64 - slack as i64);
                }
            }
            // (d): each shard count's bytes, whatever the mode.
            for (shards, seen) in &runs {
                let want = bytes_at.entry(*shards).or_insert_with(|| bytes(seen));
                assert_eq!(&bytes(seen), want, "{ctx}, {shards} shards, {scheduling:?}");
            }
        }
        // (d): four more same-seed runs of the racy mode.
        for _ in 0..4 {
            let again = bytes(&run(&events, 4, Scheduling::Pool, &ctx));
            assert_eq!(again, bytes_at[&4], "{ctx}: a pool run's bytes moved");
        }
    }
    assert!(margin > 0, "sharing never outgrew the slack ({margin} B)");
}
