//! Integration: one copy of a stream per engine. Admission numbers
//! every stream batch once, every shard's log of the source uses
//! those numbers as row ids, and a sealed segment of a source's log is
//! stored once per engine whichever shards' cursors read it. So, at any
//! shard count and under every scheduling mode, through register /
//! deregister / pause / resume / forced migration (logs are created and
//! emptied mid-stream) — a row of the equivalence kit, `tests/common/`:
//!
//! * (a) snapshots equal the model's after every event;
//! * (b) every log holding a tuple gives it the same row id — the
//!   tuple's arrival number at its source (the kit's row-id check);
//! * (c) after a drain, the engine's log bytes exceed the 1-shard
//!   engine's by at most one active segment and one liveness word per
//!   segment per shard;
//! * (d) engine `state_bytes` is identical over five same-seed runs and
//!   across the three modes.

mod common;

use std::collections::HashMap;
use std::sync::Arc;

use common::{seeds, Cell, Config, Mode, Row, Weights, Workload, I, T};
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::stream::state::ColumnarDeque;
use smartcis::types::DataType::{Int, Text};
use smartcis::types::{SimTime, Tuple, Value};

const SOURCES: [&str; 2] = ["Readings", "Alarms"];

fn catalog() -> Arc<Catalog> {
    let stream = || SourceStats::stream(4.0).with_distinct("sensor", 6);
    common::catalog(&[
        (
            "Readings",
            stream(),
            &[
                ("sensor", Int),
                ("site", Text),
                ("value", Int),
                ("payload", Int),
            ],
        ),
        ("Alarms", stream(), &[("sensor", Int), ("level", Int)]),
    ])
}

/// Windows of every spec over both streams, plus a join and a
/// self-join. The four long windows (150 s, 800 rows, 100 s, 120 s) are
/// registered first, where hash placement puts them on different shards
/// at 2 and at 4 shards, so several shards' logs hold the same rows; the
/// churn leaves them there ([`LONG`]).
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

/// The long windows' templates, registered at the same slots.
const LONG: &[usize] = &[0, 2, 3, 5];

/// The one plan over `Alarms`: registered only by the churn, so its logs
/// start mid-stream.
const JOIN: usize = 6;

const SITES: [&str; 9] = [
    "site-0", "site-1", "site-2", "site-3", "site-4", "site-5", "site-6", "site-7", "site-8",
];

/// A `Readings` row's payload: unique, and on no stride and within no
/// 32-bit range, so it seals at 8 B a row — duplicated sealed segments
/// then cost more than (c)'s slack, and (c) can tell one copy from many.
fn payload(serial: i64) -> i64 {
    serial.wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64)
}

/// Every tuple carries a value no other tuple has (its last column).
fn cells(rng: &mut StdRng, source: &'static str, serial: i64) -> Vec<Cell> {
    let sensor = I(rng.gen_range(0..6i64));
    match source {
        "Readings" => vec![
            sensor,
            T(SITES[rng.gen_range(0..9usize)]),
            I(serial),
            I(payload(serial)),
        ],
        _ => vec![sensor, I(serial)],
    }
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
                0 => vec![
                    Value::Int(i % 6),
                    site,
                    Value::Int(i),
                    Value::Int(payload(i)),
                ],
                _ => vec![Value::Int(i % 6), Value::Int(i)],
            };
            deque.push_back(&Tuple::new(row, SimTime::from_secs(i as u64)));
        }
        bytes += deque.footprint().resident;
    }
    bytes
}

fn log_sharing_row() -> Row {
    let mut w = Workload {
        streams: &[("Readings", 4), ("Alarms", 1)],
        templates: (PLANS.len(), 1),
        keep: LONG,
        weights: Weights {
            ingest: 20,
            heartbeat: 2,
            register: 3,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 1,
            ..Weights::default()
        },
        events: 70,
        batch: (1, 70),
        jump: (1, 12),
        leap: 20,
        ..Workload::new(catalog, cells, |t, _| PLANS[t].into())
    };
    w.opening = w.every_template();
    w.opening
        .retain(|e| !matches!(e, common::Register { template: JOIN, .. }));
    // Four more copies of the racy mode, for (d).
    let mut configs = Config::matrix(&[1, 2, 4]);
    configs.extend(std::iter::repeat_n(Config::node(4, Mode::Pool), 4));
    Row::new("log_sharing_row()", w, configs)
}

#[test]
fn one_stream_is_one_copy_at_any_shard_count() {
    let racy = Config::node(4, Mode::Pool).label();
    let active = active_segment_bytes();
    // The most sharing saved beyond the slack (c) allows: a run whose
    // shards each kept their own copy would have failed (c) there.
    let mut margin = i64::MIN;
    for run in log_sharing_row().check(seeds(1)) {
        let state_bytes = |o: &common::Outcome| -> Vec<usize> {
            o.samples.iter().map(|s| s.resident.state_bytes).collect()
        };
        let mut bytes_at: HashMap<usize, Vec<usize>> = HashMap::new();
        for mode in common::MODES {
            let of = |shards: usize| run.of(&Config::node(shards, mode).label());
            let one = of(1);
            for shards in [2, 4] {
                for (a, b) in one.samples.iter().zip(&of(shards).samples) {
                    let at = format!(
                        "seed {}, {shards} shards, {mode:?}, event {}",
                        run.seed, a.step
                    );
                    // (c): per shard, one more open segment per source
                    // and one more liveness word per segment.
                    let segments = a.resident.window_tuples / 32 + 2 * SOURCES.len();
                    let slack = shards * (active + 8 * segments);
                    let (many, single) = (b.resident.log_bytes, a.resident.log_bytes);
                    assert!(
                        many <= single + slack,
                        "logs hold {many} bytes, one shard's {single} + {slack} ({at})"
                    );
                    let saved = b.shard_log_bytes - many;
                    margin = margin.max(saved as i64 - slack as i64);
                }
            }
            // (d): each shard count's bytes, whatever the mode.
            for shards in [1, 2, 4] {
                let want = bytes_at
                    .entry(shards)
                    .or_insert_with(|| state_bytes(of(shards)));
                assert_eq!(&state_bytes(of(shards)), want, "{shards} shards, {mode:?}");
            }
        }
        // (d): the four more same-seed runs of the racy mode.
        for again in run.outcomes.iter().filter(|o| o.label == racy) {
            assert_eq!(state_bytes(again), bytes_at[&4], "a pool run's bytes moved");
        }
    }
    assert!(margin > 0, "sharing never outgrew the slack ({margin} B)");
}
