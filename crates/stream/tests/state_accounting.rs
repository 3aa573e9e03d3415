//! State accounting checked against the allocator.
//!
//! A counting `#[global_allocator]` measures the live heap a structure
//! holds, and its byte accounting must agree within 0.8–1.25×:
//! `AggregateOp`'s footprint for eight group shapes (`Int`, `Float`, text
//! and converted key columns among them), and the key index of a join
//! side (a `KeyedState`, 4 096 keys × 20 000 rows, where it must also hold
//! at most 0.75× the 517 136 B its `HashMap<u64, Vec<u64>>` predecessor
//! held) and of a retained table (a `BagState`, 1 024 rows, one a key);
//! and a source log's key index two join sides share (4 096 rows) must
//! read 1.000, and cost what it costs one member.
//! `KeyedState`, `TupleStore` and the source logs are printed, not
//! asserted — the next accounting targets. Also printed: allocator
//! calls per `dashboards`-shaped batch. And the logs' sharing is real
//! heap: a 2-shard engine holds at most 10 % more than a 1-shard one
//! running the same windows. One `#[test]`, so no other test of this
//! binary allocates while a count is taken.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicUsize, Ordering::Relaxed};

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_sql::expr::{AggFunc, BoundAgg, BoundExpr};
use aspen_stream::operators::{AggregateOp, DeltaOp};
use aspen_stream::state::{BagState, KeyedState};
use aspen_stream::{DeltaBatch, EngineConfig, Scheduling, ShardedEngine};
use aspen_types::{DataType, Field, Schema, SimTime, Tuple, Value};
use columnar::{Cell, TupleStore};

struct Counting;

/// Bytes allocated and not yet freed.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocation calls (`alloc` and `realloc`).
static CALLS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, size: usize) -> *mut u8 {
        LIVE.fetch_add(size as isize - layout.size() as isize, Relaxed);
        CALLS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The heap `feed` leaves allocated — what the structure it fed holds.
fn held(feed: impl FnOnce()) -> usize {
    let before = LIVE.load(Relaxed);
    feed();
    (LIVE.load(Relaxed) - before) as usize
}

fn t(vals: Vec<Value>, us: u64) -> Tuple {
    Tuple::new(vals, SimTime::from_micros(us))
}

fn call(func: AggFunc, arg: Option<BoundExpr>) -> BoundAgg {
    BoundAgg {
        func,
        arg,
        name: String::new(),
    }
}

/// Feed `rows` to a fresh aggregate in batches of 500 (after `initial`)
/// and return `(state_bytes, heap held)`.
fn aggregate(group: Vec<BoundExpr>, aggs: Vec<BoundAgg>, rows: Vec<Tuple>) -> (usize, usize) {
    let batches: Vec<DeltaBatch> = rows
        .chunks(500)
        .map(|c| DeltaBatch::inserts(c.iter().cloned()))
        .collect();
    let mut op = AggregateOp::new(group, aggs);
    let heap = held(|| {
        drop(op.initial());
        for b in &batches {
            drop(op.process_batch(0, b).unwrap());
        }
    });
    (op.footprint().resident, heap)
}

fn ratio(what: &str, charged: usize, heap: usize) -> f64 {
    let r = charged as f64 / heap as f64;
    println!("{what}: charged {charged} B, heap {heap} B, ratio {r:.3}");
    r
}

fn events(n: i64, keys: i64) -> Vec<Tuple> {
    (0..n)
        .map(|i| t(vec![Value::Int(i % keys), Value::Float(i as f64)], i as u64))
        .collect()
}

/// A group shape to measure: its name, keys, calls and input rows.
type Shape = (&'static str, Vec<BoundExpr>, Vec<BoundAgg>, Vec<Tuple>);

/// 10 000 distinct values of one group, the `i`-th arriving as `order(i)`.
fn min_values(order: impl Fn(i64) -> i64) -> Vec<Tuple> {
    let row = |i| t(vec![Value::Int(7), Value::Float(order(i) as f64)], 1);
    (0..10_000).map(row).collect()
}

#[test]
fn state_bytes_agree_with_the_allocator() {
    let key = || vec![BoundExpr::col(0, DataType::Int)];
    let v = || Some(BoundExpr::col(1, DataType::Float));
    let star = || call(AggFunc::Count, None);
    let shapes: Vec<Shape> = vec![
        (
            "4 096 Int groups, count(*) + avg",
            key(),
            vec![star(), call(AggFunc::Avg, v())],
            events(20_000, 4_096),
        ),
        (
            "4 096 Int groups, count(*)",
            key(),
            vec![star()],
            events(20_000, 4_096),
        ),
        (
            "64 text groups, count(*) + avg",
            vec![BoundExpr::col(0, DataType::Text)],
            vec![star(), call(AggFunc::Avg, v())],
            (0..5_000)
                .map(|i| {
                    let site = Value::Text(format!("building-7/site-{}", i % 64));
                    t(vec![site, Value::Float(i as f64)], i as u64)
                })
                .collect(),
        ),
        (
            "4 096 Float groups, count(*)",
            vec![BoundExpr::col(0, DataType::Float)],
            vec![star()],
            (0..20_000)
                .map(|i| t(vec![Value::Float((i % 4_096) as f64 / 4.0)], i as u64))
                .collect(),
        ),
        (
            "4 096 Int groups, one NULL key",
            key(),
            vec![star()],
            events(20_000, 4_096)
                .into_iter()
                .enumerate()
                .map(|(i, row)| match i {
                    10_000 => t(vec![Value::Null, Value::Float(1.0)], i as u64),
                    _ => row,
                })
                .collect(),
        ),
        ("global count(*)", vec![], vec![star()], events(5_000, 1)),
        (
            "one group, 10 000 MIN values",
            key(),
            vec![call(AggFunc::Min, v())],
            min_values(|i| i * 7_919 % 10_000),
        ),
        (
            "one group, 10 000 MIN values in order",
            key(),
            vec![call(AggFunc::Min, v())],
            min_values(|i| i),
        ),
    ];
    let mut off = Vec::new();
    for (what, group, aggs, rows) in shapes {
        let (charged, heap) = aggregate(group, aggs, rows);
        let r = ratio(&format!("AggregateOp, {what}"), charged, heap);
        if !(0.8..=1.25).contains(&r) {
            off.push(format!("{what}: {r:.3}"));
        }
    }

    let rows = events(20_000, 4_096);
    let cells = |tup: &Tuple| -> Vec<Cell> {
        let cell = |v: &Value| match v {
            Value::Int(i) => Cell::Int(*i),
            Value::Float(f) => Cell::Float(*f),
            _ => Cell::Null,
        };
        tup.values().iter().map(cell).collect()
    };
    let mut store = TupleStore::new(0).segment_rows(32);
    let store_heap = held(|| {
        for r in &rows {
            store.push(&cells(r), r.timestamp().as_micros());
        }
    });
    // Printed only: the structures accounting should reach next.
    ratio("TupleStore", store.resident_bytes(), store_heap);
    // A `KeyedState` is a weighted store of key ++ tuple cells plus a
    // key index; the index is the difference to that store's twin.
    let mut keyed = KeyedState::new();
    let keyed_heap = held(|| {
        for r in &rows {
            keyed.update(vec![r.get(0).clone()], r, 1);
        }
    });
    ratio("KeyedState", keyed.footprint().resident, keyed_heap);
    let mut twin = TupleStore::weighted(0).segment_rows(32);
    let twin_heap = held(|| {
        for r in &rows {
            let mut row = cells(r);
            row.insert(0, row[0].clone());
            twin.push_weighted(&row, r.timestamp().as_micros(), 1);
        }
    });
    let index_heap = keyed_heap - twin_heap;
    let r = ratio(
        "key index, 4 096 keys x 20 000 rows (KeyedState minus its store)",
        keyed.footprint().resident - twin.resident_bytes(),
        index_heap,
    );
    if !(0.8..=1.25).contains(&r) {
        off.push(format!("join-side key index: {r:.3}"));
    }
    // The `HashMap<u64, Vec<u64>>` this index replaced held 517 136 B.
    assert!(
        index_heap * 4 <= 517_136 * 3,
        "key index holds {index_heap} B"
    );
    // A `BagState` is a store of tuple cells plus a key index by tuple.
    let table = events(1_024, 1_024);
    let mut bag = BagState::new();
    let bag_heap = held(|| bag.insert_all(&table));
    let mut twin = TupleStore::new(0).segment_rows(32);
    let twin_heap = held(|| {
        for r in &table {
            twin.push(&cells(r), r.timestamp().as_micros());
        }
    });
    let r = ratio(
        "key index, 1 024 table rows (BagState minus its store)",
        bag.footprint().resident - twin.resident_bytes(),
        bag_heap - twin_heap,
    );
    if !(0.8..=1.25).contains(&r) {
        off.push(format!("retained-table key index: {r:.3}"));
    }

    // A source log's key index, shared by two join sides: the heap two
    // joins add to an engine that keeps the same log rows without them.
    let (with, charged) = join_index_heap(2);
    let (without, none) = join_index_heap(0);
    assert_eq!(none, 0);
    let r = ratio(
        "log key index, 2 members x 4 096 rows",
        charged,
        with - without,
    );
    // Charged by capacity, the index is its heap to the byte.
    if format!("{r:.3}") != "1.000" {
        off.push(format!("log key index: {r:.3}"));
    }
    assert_eq!(join_index_heap(1).1, charged, "two members, one index");

    // The logs hold nearly all of these engines' heap growth, so its
    // ratio to their charged bytes is the logs'.
    let (one, one_logs) = windowed_engine_heap(1);
    let (two, two_logs) = windowed_engine_heap(2);
    ratio("source logs (1 shard)", one_logs, one);
    ratio("source logs (2 shards)", two_logs, two);

    println!(
        "allocator calls per dashboards-shaped batch: {:.1}",
        dashboards_allocs()
    );
    assert!(off.is_empty(), "state_bytes off the heap: {off:?}");
    // One copy of the stream per engine, not per shard: a second shard
    // adds its own open segment and liveness bits, not a second log.
    println!("heap growth: 1 shard {one} B, 2 shards {two} B");
    assert!(
        two * 10 <= one * 11,
        "2 shards hold {two} B, 1 shard {one} B"
    );
}

/// A `Readings` catalog: sensor, room, value; and `Other`, alike.
fn readings() -> std::sync::Arc<Catalog> {
    let cat = Catalog::shared();
    let schema = Schema::new(vec![
        Field::new("sensor", DataType::Int),
        Field::new("room", DataType::Int),
        Field::new("value", DataType::Float),
    ])
    .into_ref();
    for name in ["Readings", "Other"] {
        let stats = SourceStats::stream(64.0);
        cat.register_source(name, schema.clone(), SourceKind::Stream, stats)
            .unwrap();
    }
    cat
}

/// The heap a 1-shard engine holds after 4 096 rows reach a
/// `[rows 4096]` window of `Readings` counted by one query, with `joins`
/// more queries joining that window with an `Other` that stays empty —
/// the `Readings` sides all members of the log's one key index — and the
/// bytes the shard charges its key indexes.
fn join_index_heap(joins: usize) -> (usize, usize) {
    let config = EngineConfig::new()
        .shards(1)
        .scheduling(Scheduling::Sequential);
    let mut e = ShardedEngine::with_config(readings(), config);
    e.register_sql("select count(*) from Readings r [rows 4096]")
        .unwrap();
    for i in 0..joins {
        let sql = format!(
            "select a.value, b.value from Readings a [rows 4096], Other b [rows {}] \
             where a.sensor = b.sensor",
            i + 1
        );
        e.register_sql(&sql).unwrap();
    }
    let mut seq = 0;
    let batches: Vec<Vec<Tuple>> = (0..512).map(|_| readings_batch(&mut seq)).collect();
    let heap = held(|| {
        for b in &batches {
            e.on_batch("Readings", b).unwrap();
        }
    });
    let report = e.telemetry_at(aspen_stream::Consistency::Fresh);
    (heap, report.shards[0].join_index_bytes as usize)
}

/// 8 readings a batch, 64 a second.
fn readings_batch(seq: &mut u64) -> Vec<Tuple> {
    (0..8)
        .map(|_| {
            *seq += 1;
            let sensor = (*seq * 7_919 % 320) as i64;
            let value = (*seq * 104_729 % 200) as f64 * 0.5;
            let vals = vec![
                Value::Int(sensor),
                Value::Int(sensor / 8),
                Value::Float(value),
            ];
            t(vals, *seq * 15_625)
        })
        .collect()
}

/// The heap a sequential engine of `shards` shards holds after 4 096
/// rows reach four 10-minute windows over one source (each keeping one
/// group, so the window is nearly all of it), and its charged log bytes.
fn windowed_engine_heap(shards: usize) -> (usize, usize) {
    let config = EngineConfig::new()
        .shards(shards)
        .scheduling(Scheduling::Sequential);
    let mut e = ShardedEngine::with_config(readings(), config);
    for agg in ["count(*)", "sum(r.value)", "max(r.value)", "avg(r.value)"] {
        let sql = format!("select {agg} from Readings r [range 600 seconds]");
        e.register_sql(&sql).unwrap();
    }
    let mut seq = 0;
    let batches: Vec<Vec<Tuple>> = (0..512).map(|_| readings_batch(&mut seq)).collect();
    let heap = held(|| {
        for b in &batches {
            e.on_batch("Readings", b).unwrap();
        }
    });
    (heap, e.resident_state().log_bytes)
}

/// Allocator calls per 8-tuple batch (and its heartbeat) on a 1-shard
/// engine running one query of each `dashboards` template over a warm
/// 30-second window.
fn dashboards_allocs() -> f64 {
    let mut e = ShardedEngine::new(readings(), 1);
    for sql in [
        "select r.sensor, r.value from Readings r where r.value > 90",
        "select r.value from Readings r where r.sensor = 17",
        "select r.sensor, avg(r.value) from Readings r where r.room = 3 group by r.sensor",
        "select r.room, count(*) from Readings r where r.value > 70 group by r.room",
        "select count(*) from Readings r where r.value < 40",
        "select r.sensor, r.value from Readings r where r.room = 5 \
         order by r.value desc limit 5",
    ] {
        e.register_sql(sql).unwrap();
    }
    let mut seq = 0u64;
    let mut batch = || readings_batch(&mut seq);
    let step = |e: &mut ShardedEngine, tuples: Vec<Tuple>| {
        let last = tuples.last().unwrap().timestamp();
        e.on_batch("Readings", &tuples).unwrap();
        e.heartbeat(last).unwrap();
    };
    for _ in 0..300 {
        step(&mut e, batch());
    }
    let batches: Vec<Vec<Tuple>> = (0..400).map(|_| batch()).collect();
    let before = CALLS.load(Relaxed);
    for tuples in batches {
        step(&mut e, tuples);
    }
    (CALLS.load(Relaxed) - before) as f64 / 400.0
}
