//! Integration: recursive views under every scheduling mode. Views are
//! maintained inside the call that admits a boundary, and their output
//! reaches the query shards as ordinary delta boundaries — so against a
//! 1-shard `Sequential` engine, at 1 and 2 shards under `Sequential`,
//! `Pool` and `Deterministic(seed)`, after every event of a seeded churn
//! (stream ingest, table inserts and retractions, heartbeats that jump
//! past the window, register / deregister / pause / resume / migrate of
//! the downstream queries, a second view registered mid-run):
//!
//! * every downstream query's snapshot is equal, and each push
//!   subscription's accumulated deltas equal its snapshot;
//! * every view's materialization is equal as a set, and so are its
//!   maintenance statistics;
//! * `total_ops_invoked` is equal;
//! * the executor has one cell per shard, none queued past its depth.
//!
//! Each engine also checks itself: a live filtered scan or count over a
//! view shows exactly what that view holds.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use rand::Rng;
use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::recursive::ViewStats;
use smartcis::stream::{
    Delta, DeltaBatch, EngineConfig, QueryHandle, QuerySpec, ResultSubscription, Scheduling,
    ShardedEngine,
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

/// The queue depth every engine runs at: small, so `Pool` backpressure
/// and `Deterministic` inline draining both engage.
const DEPTH: usize = 2;

fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let edges = || {
        let fields = vec![
            Field::new("src", DataType::Text),
            Field::new("dst", DataType::Text),
        ];
        Schema::new(fields).into_ref()
    };
    let stream = SourceStats::stream(4.0);
    cat.register_source("Moves", edges(), SourceKind::Stream, stream.clone())
        .unwrap();
    cat.register_source("Links", edges(), SourceKind::Table, SourceStats::table(16))
        .unwrap();
    let pings = Schema::new(vec![
        Field::new("node", DataType::Text),
        Field::new("level", DataType::Int),
    ]);
    cat.register_source("Pings", pings.into_ref(), SourceKind::Stream, stream)
        .unwrap();
    cat
}

/// The views, in registration order: `Recent` over a windowed stream
/// from the start, `Reach` over a table registered mid-run.
const VIEWS: [(&str, &str); 2] = [
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

/// What a downstream query computes over its view.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Shape {
    /// The view's rows leaving one node.
    Filter,
    /// The view joined with a stream.
    Join,
    /// How many rows the view holds.
    Count,
}

const SHAPES: [Shape; 3] = [Shape::Filter, Shape::Join, Shape::Count];

fn sql(shape: Shape, view: &str, node: &str) -> String {
    match shape {
        Shape::Filter => format!("select x.src, x.dst from {view} x where x.src = '{node}'"),
        Shape::Join => format!(
            "select x.src, p.level from {view} x, Pings p [range 10 seconds] \
             where x.dst = p.node"
        ),
        Shape::Count => format!("select count(*) from {view} x"),
    }
}

/// One step of the churn. Slot picks are resolved against the live
/// slots when the event runs, identically in every engine.
#[derive(Clone, Debug)]
enum Event {
    Moves(Vec<Tuple>),
    Pings(Vec<Tuple>),
    Links(DeltaBatch),
    Heartbeat(u64),
    Register(Shape, usize, usize),
    RegisterView,
    Deregister(u32),
    PauseOrResume(u32),
    Migrate(u32, usize),
}

fn edge(rng: &mut impl Rng, sec: u64) -> Tuple {
    let (a, b) = (rng.gen_range(0..5usize), rng.gen_range(0..5usize));
    let cells = vec![Value::Text(NODES[a].into()), Value::Text(NODES[b].into())];
    Tuple::new(cells, SimTime::from_secs(sec))
}

fn events(seed: u64) -> Vec<Event> {
    let mut rng = seeded(0x71E_5EED ^ seed);
    let mut now = 0u64;
    let mut links: Vec<Tuple> = Vec::new();
    let second_view_at = rng.gen_range(6..24usize);
    let mut views = 1usize;
    let mut out: Vec<Event> = SHAPES
        .iter()
        .map(|&shape| Event::Register(shape, 0, rng.gen_range(0..5usize)))
        .collect();
    for step in 0..90 {
        if step == second_view_at {
            out.push(Event::RegisterView);
            views = 2;
        }
        out.push(match rng.gen_range(0..20u32) {
            0..=4 => {
                let batch = (0..rng.gen_range(1..5usize))
                    .map(|_| {
                        let sec = now + rng.gen_range(0..2u64);
                        edge(&mut rng, sec)
                    })
                    .collect();
                now += 1;
                Event::Moves(batch)
            }
            5 | 6 => {
                let batch = (0..rng.gen_range(1..4usize))
                    .map(|_| {
                        let node = Value::Text(NODES[rng.gen_range(0..5usize)].into());
                        let level = Value::Int(rng.gen_range(0..4i64));
                        Tuple::new(vec![node, level], SimTime::from_secs(now))
                    })
                    .collect();
                Event::Pings(batch)
            }
            7..=9 => {
                let mut deltas = DeltaBatch::new();
                for _ in 0..rng.gen_range(1..4usize) {
                    if !links.is_empty() && rng.gen_bool(0.4) {
                        let gone = links.swap_remove(rng.gen_range(0..links.len()));
                        deltas.push(Delta::retract(gone));
                    } else {
                        let link = edge(&mut rng, now);
                        links.push(link.clone());
                        deltas.push(Delta::insert(link));
                    }
                }
                Event::Links(deltas)
            }
            10 | 11 => {
                // Up to two and a half window widths at once.
                now += rng.gen_range(1..26u64);
                Event::Heartbeat(now)
            }
            12..=14 => Event::Register(
                SHAPES[rng.gen_range(0..3usize)],
                rng.gen_range(0..views),
                rng.gen_range(0..5usize),
            ),
            15 => Event::Deregister(rng.gen()),
            16 | 17 => Event::PauseOrResume(rng.gen()),
            _ => Event::Migrate(rng.gen(), rng.gen_range(0..2usize)),
        });
    }
    out
}

/// A downstream query: its handle, what it computes over which view (and
/// node), its push subscription and the net multiset its drained deltas
/// add up to.
struct Slot {
    handle: QueryHandle,
    shape: Shape,
    view: usize,
    node: usize,
    sub: ResultSubscription,
    accum: HashMap<Tuple, i64>,
}

/// One engine under test, with its queries by slot.
struct Client {
    engine: ShardedEngine,
    views: usize,
    slots: Vec<Option<Slot>>,
    ctx: String,
}

/// What an engine shows after an event: each slot's snapshot, each
/// view's rows and statistics, and the engine's ops total.
#[derive(Debug, PartialEq)]
struct Shown {
    slots: Vec<Option<Vec<Tuple>>>,
    views: Vec<(HashSet<Tuple>, ViewStats)>,
    ops: u64,
}

fn values(rows: &[Tuple]) -> Vec<Vec<Value>> {
    let mut rows: Vec<Vec<Value>> = rows.iter().map(|t| t.values().to_vec()).collect();
    rows.sort();
    rows
}

impl Client {
    fn new(shards: usize, scheduling: Scheduling) -> Client {
        let config = EngineConfig::new()
            .shards(shards)
            .scheduling(scheduling)
            .queue_depth(DEPTH);
        let mut engine = ShardedEngine::with_config(catalog(), config);
        engine.register_sql(VIEWS[0].1).unwrap().view().unwrap();
        Client {
            engine,
            views: 1,
            slots: Vec::new(),
            ctx: format!("{shards} shards, {scheduling:?}"),
        }
    }

    fn apply(&mut self, event: &Event) {
        let live: Vec<usize> = (0..self.slots.len())
            .filter(|&i| self.slots[i].is_some())
            .collect();
        let pick = |r: u32| (!live.is_empty()).then(|| live[r as usize % live.len()]);
        let e = &mut self.engine;
        let handle =
            |slot: Option<usize>| slot.and_then(|s| self.slots[s].as_ref().map(|q| q.handle));
        match event {
            Event::Moves(batch) => e.on_batch("Moves", batch).unwrap(),
            Event::Pings(batch) => e.on_batch("Pings", batch).unwrap(),
            Event::Links(deltas) => e.on_deltas("Links", deltas).unwrap(),
            Event::Heartbeat(secs) => e.heartbeat(SimTime::from_secs(*secs)).unwrap(),
            Event::Register(shape, view, node) => {
                let spec = QuerySpec::sql(sql(*shape, VIEWS[*view].0, NODES[*node])).push();
                let handle = e.register(spec).unwrap().expect_query();
                let sub = e.subscribe(handle).unwrap();
                self.slots.push(Some(Slot {
                    handle,
                    shape: *shape,
                    view: *view,
                    node: *node,
                    sub,
                    accum: HashMap::new(),
                }));
            }
            Event::RegisterView => {
                e.register_sql(VIEWS[1].1).unwrap().view().unwrap();
                self.views = 2;
            }
            Event::Deregister(r) => {
                if let Some(slot) = pick(*r) {
                    let q = self.slots[slot].take().unwrap();
                    e.deregister(q.handle).unwrap();
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
        // Read before any drain: what admission left queued.
        let stats = e.executor_stats();
        assert_eq!(
            stats.pending.len(),
            e.shard_count(),
            "one cell a shard ({})",
            self.ctx
        );
        assert!(
            stats
                .pending
                .iter()
                .chain(&stats.high_water)
                .all(|&n| n <= DEPTH),
            "queued past the depth: {stats:?} ({})",
            self.ctx
        );
    }

    /// Everything the engine shows; checks push == poll, and that every
    /// live filter or count over a view agrees with that view.
    fn shown(&mut self, at: &str) -> Shown {
        let e = &self.engine;
        let views: Vec<(HashSet<Tuple>, ViewStats)> = VIEWS[..self.views]
            .iter()
            .map(|(name, _)| {
                let rows = e.view_snapshot(name).unwrap();
                (rows.into_iter().collect(), e.view_stats(name).unwrap())
            })
            .collect();
        let mut slots = Vec::new();
        for (slot, q) in self.slots.iter_mut().enumerate() {
            let Some(q) = q else {
                slots.push(None);
                continue;
            };
            let snapshot = e.snapshot(q.handle).unwrap();
            for batch in q.sub.drain() {
                for d in &batch {
                    *q.accum.entry(d.tuple.clone()).or_insert(0) += d.sign;
                }
            }
            q.accum.retain(|_, n| *n != 0);
            let mut polled: HashMap<Tuple, i64> = HashMap::new();
            for t in &snapshot {
                *polled.entry(t.clone()).or_insert(0) += 1;
            }
            let ctx = format!(
                "slot {slot}, {:?} over {} ({}, {at})",
                q.shape, VIEWS[q.view].0, self.ctx
            );
            assert_eq!(q.accum, polled, "push != poll, {ctx}");
            if !e.is_paused(q.handle).unwrap() {
                let held = &views[q.view].0;
                match q.shape {
                    Shape::Filter => {
                        let src = Value::Text(NODES[q.node].into());
                        let want: Vec<Tuple> =
                            held.iter().filter(|t| *t.get(0) == src).cloned().collect();
                        assert_eq!(values(&snapshot), values(&want), "{ctx}");
                    }
                    Shape::Count => {
                        let want = Value::Int(held.len() as i64);
                        assert_eq!(snapshot[0].values(), &[want], "{ctx}");
                    }
                    Shape::Join => {}
                }
            }
            slots.push(Some(snapshot));
        }
        Shown {
            slots,
            views,
            ops: self.engine.total_ops_invoked(),
        }
    }
}

#[test]
fn views_agree_under_every_scheduling_mode_and_shard_count() {
    let mut expired = false;
    for seed in seeds(2) {
        let events = events(seed);
        let mut oracle = Client::new(1, Scheduling::Sequential);
        let mut clients: Vec<Client> = [1, 2]
            .into_iter()
            .flat_map(|shards| {
                [
                    Scheduling::Sequential,
                    Scheduling::Pool,
                    Scheduling::Deterministic(seed),
                ]
                .map(|mode| Client::new(shards, mode))
            })
            .collect();
        let mut peak = 0;
        for (step, event) in events.iter().enumerate() {
            let at = format!("seed {seed}, step {step}, {event:?}");
            oracle.apply(event);
            let want = oracle.shown(&at);
            let held = want.views[0].0.len();
            expired |= held < peak;
            peak = peak.max(held);
            for c in &mut clients {
                c.apply(event);
                let got = c.shown(&at);
                assert_eq!(got, want, "{} vs 1 shard, Sequential ({at})", c.ctx);
            }
        }
    }
    assert!(expired, "the windowed view never shrank");
}
