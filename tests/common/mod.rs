//! The equivalence kit: every engine equivalence is a row of one seeded
//! event matrix.
//!
//! A [`Workload`] (catalog, query templates × constants, event weights)
//! generates a seeded list of [`Event`]s. A [`Row`] runs it on engine
//! configurations ([`Config`]: `ShardedEngine` × shards × scheduling ×
//! spill, or `Cluster` × nodes) beside two oracles — the naive multiset
//! [`oracles::Model`] and the engine-free [`oracles::Private`] path — and
//! checks after every event: each slot's snapshot against the model
//! where it covers the plan, else against the private path; each slot's
//! `(tuples_in, ops_invoked, output_deltas)` and the op profile against
//! the private path; and, per engine, push == poll, `Cut` == `Fresh`
//! after the drain, executor bounds, exchange conservation, log row ids
//! and equal clocks.
//!
//! Events name slots, not handles: an event on an absent slot (or a
//! retraction of a row the table does not hold) is a no-op on every
//! system, so any subsequence replays. A failure is shrunk by delta
//! debugging (ddmin; Zeller & Hildebrandt, TSE 2002) and printed as a
//! `replay(&[...])` literal.
#![allow(dead_code)]

pub mod oracles;
pub mod systems;

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::stream::{Consistency, Delta, DeltaBatch, ResidentState};
use smartcis::types::rng::seeded;
use smartcis::types::{DataType, Field, Schema, SimDuration, SimTime, Tuple, Value};

pub use smartcis::stream::Consistency::{Cut, Fresh};
pub use Cell::{F, I, N, T};
pub use Event::*;

/// `n` workload seeds in this run's `ASPEN_TEST_SEED` block.
pub fn seeds(n: u64) -> impl Iterator<Item = u64> {
    let base = seed_base().wrapping_mul(0x1000);
    (0..n).map(move |i| base.wrapping_add(i))
}

pub fn seed_base() -> u64 {
    let var = std::env::var("ASPEN_TEST_SEED").ok();
    var.and_then(|s| s.parse().ok()).unwrap_or(0)
}

/// A source's name, statistics and columns.
pub type Source<'a> = (&'a str, SourceStats, &'a [(&'a str, DataType)]);

/// A catalog of these sources: a table where `stats` counts rows, else a
/// stream.
pub fn catalog(sources: &[Source]) -> Arc<Catalog> {
    let cat = Catalog::shared();
    for (name, stats, columns) in sources {
        let kind = match stats.row_count {
            Some(_) => SourceKind::Table,
            None => SourceKind::Stream,
        };
        let fields = columns.iter().map(|&(c, t)| Field::new(c, t)).collect();
        let schema = Schema::new(fields).into_ref();
        cat.register_source(name, schema, kind, stats.clone())
            .unwrap();
    }
    cat
}

// ---------------------------------------------------------------------------
// Events: plain data whose `{:?}` is the Rust that builds them.

#[derive(Clone, Copy, PartialEq)]
pub enum Cell {
    I(i64),
    F(f64),
    T(&'static str),
    N,
}

impl Cell {
    pub fn value(self) -> Value {
        match self {
            I(v) => Value::Int(v),
            F(v) => Value::Float(v),
            T(s) => Value::Text(s.into()),
            N => Value::Null,
        }
    }
}

impl fmt::Debug for Cell {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            I(v) => write!(f, "I({v})"),
            F(v) if v.is_nan() => write!(f, "F(f64::NAN)"),
            F(v) if v.is_infinite() => {
                write!(f, "F({}f64::INFINITY)", ["", "-"][usize::from(v < 0.0)])
            }
            F(v) => write!(f, "F({v:?})"),
            T(s) => write!(f, "T({s:?})"),
            N => write!(f, "N"),
        }
    }
}

/// A row's cells at a stamp, in seconds.
#[derive(Clone, PartialEq)]
pub struct At(pub u64, pub Vec<Cell>);

impl fmt::Debug for At {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "At({}, vec!{:?})", self.0, self.1)
    }
}

#[derive(Clone, Default, PartialEq)]
pub struct Rows(pub Vec<At>);

impl Rows {
    fn tuples(&self) -> Vec<Tuple> {
        let tuple = |At(secs, cells): &At| {
            let values = cells.iter().map(|c| c.value()).collect();
            Tuple::new(values, SimTime::from_secs(*secs))
        };
        self.0.iter().map(tuple).collect()
    }
}

impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Rows(vec!{:?})", self.0)
    }
}

#[derive(Clone, Debug)]
pub enum Event {
    /// `on_batch`.
    Ingest {
        source: &'static str,
        rows: Rows,
    },
    Heartbeat {
        secs: u64,
    },
    /// `on_deltas` on a table.
    TableDeltas {
        source: &'static str,
        inserts: Rows,
        retracts: Rows,
    },
    Register {
        slot: usize,
        template: usize,
        constant: usize,
    },
    Deregister {
        slot: usize,
    },
    Pause {
        slot: usize,
    },
    Resume {
        slot: usize,
    },
    Migrate {
        slot: usize,
        to: usize,
    },
    Subscribe {
        slot: usize,
    },
    Tune {
        slot: usize,
        max_batch: Option<usize>,
        max_delay: Option<u64>,
    },
    Read {
        slot: usize,
        at: Consistency,
    },
    RegisterView {
        view: usize,
    },
}

/// An event made valid, as every system applies it.
pub enum Op {
    Ingest(&'static str, Vec<Tuple>),
    Deltas(&'static str, DeltaBatch),
    Heartbeat(SimTime),
    /// A slot, its SQL, and whether it asks for push delivery.
    Register(usize, String, bool),
    View(&'static str),
    Deregister(usize),
    Pause(usize),
    Resume(usize),
    Migrate(usize, usize),
    Subscribe(usize),
    Tune(usize, Option<usize>, Option<SimDuration>),
    Read(usize, Consistency),
}

// ---------------------------------------------------------------------------
// Workloads.

/// Relative weights of the generated events.
#[derive(Clone, Copy, Default)]
pub struct Weights {
    pub ingest: u32,
    pub table: u32,
    pub table_deltas: u32,
    pub heartbeat: u32,
    pub register: u32,
    pub deregister: u32,
    pub pause: u32,
    pub resume: u32,
    pub migrate: u32,
    pub subscribe: u32,
    pub tune: u32,
    pub read: u32,
}

pub struct Workload {
    pub catalog: fn() -> Arc<Catalog>,
    /// Stream sources, with their shares of stream ingest.
    pub streams: &'static [(&'static str, u32)],
    pub tables: &'static [&'static str],
    /// A row's cells for a source; the `i64` counts generated rows.
    pub cells: fn(&mut StdRng, &'static str, i64) -> Vec<Cell>,
    /// `(templates, constants)`, and the SQL of one pair.
    pub templates: (usize, usize),
    pub sql: fn(usize, usize) -> String,
    /// Recursive views, `(name, sql)`, registered by `RegisterView`.
    pub views: &'static [(&'static str, &'static str)],
    /// Events before the seeded ones.
    pub opening: Vec<Event>,
    /// Opening slots the seeded events never name.
    pub keep: &'static [usize],
    /// Every registration asks for push delivery.
    pub push: bool,
    pub weights: Weights,
    pub events: usize,
    /// Rows per batch, and seconds a heartbeat advances, `lo..hi`.
    pub batch: (usize, usize),
    pub jump: (u64, u64),
    /// Percent of heartbeats that leap 200 s instead, past every window.
    pub leap: u32,
    /// Percent of rows, split evenly, that repeat their source's previous
    /// row or arrive up to 8 seconds late.
    pub awkward: u32,
}

/// An index drawn in proportion to `weights`.
fn pick(rng: &mut StdRng, weights: &[u32]) -> usize {
    let mut at = rng.gen_range(0..weights.iter().sum::<u32>());
    for (i, &w) in weights.iter().enumerate() {
        if at < w {
            return i;
        }
        at -= w;
    }
    unreachable!("the draw is below the sum")
}

impl Workload {
    /// A workload with no streams, tables or views, one template and one
    /// constant, no events weighed, and 60 events of 1–7 rows and 1–14 s
    /// heartbeats; rows arrive in order.
    pub fn new(
        catalog: fn() -> Arc<Catalog>,
        cells: fn(&mut StdRng, &'static str, i64) -> Vec<Cell>,
        sql: fn(usize, usize) -> String,
    ) -> Workload {
        Workload {
            catalog,
            streams: &[],
            tables: &[],
            cells,
            templates: (1, 1),
            sql,
            views: &[],
            opening: Vec::new(),
            keep: &[],
            push: false,
            weights: Weights::default(),
            events: 60,
            batch: (1, 8),
            jump: (1, 15),
            leap: 0,
            awkward: 0,
        }
    }

    /// Registrations of `(template, constant)` pairs at slots 0, 1, ….
    pub fn register_all(&self, pairs: impl IntoIterator<Item = (usize, usize)>) -> Vec<Event> {
        let each = pairs.into_iter().enumerate();
        let register = |(slot, (template, constant))| Register {
            slot,
            template,
            constant,
        };
        each.map(register).collect()
    }

    /// Every template once, at constant 0.
    pub fn every_template(&self) -> Vec<Event> {
        self.register_all((0..self.templates.0).map(|t| (t, 0)))
    }

    /// The opening, then `events` seeded ones.
    pub fn generate(&self, seed: u64) -> Vec<Event> {
        let mut rng = seeded(seed);
        let mut events = self.opening.clone();
        // Each registered slot, and whether it is paused.
        let mut slots: Vec<(usize, bool)> = Vec::new();
        let (mut views, mut next) = (0, 0);
        for e in &events {
            match *e {
                Register { slot, .. } => {
                    next = next.max(slot + 1);
                    if !self.keep.contains(&slot) {
                        slots.push((slot, false));
                    }
                }
                RegisterView { view } => views = views.max(view + 1),
                _ => {}
            }
        }
        let (mut now, mut serial) = (0u64, 0i64);
        // Each source's previous row, which an awkward row repeats.
        let mut last: HashMap<&str, At> = HashMap::new();
        let mut held: HashMap<&str, Vec<At>> = HashMap::new();
        let mut rows = |rng: &mut StdRng, source: &'static str, now: u64| {
            let mut row = |rng: &mut StdRng| {
                let mut awkward = || rng.gen_range(0..200u32) < self.awkward;
                if let (Some(dup), true) = (last.get(source), awkward()) {
                    return dup.clone();
                }
                let late = if awkward() { rng.gen_range(1..9u64) } else { 0 };
                serial += 1;
                let stamp = (now + rng.gen_range(0..2u64)).saturating_sub(late);
                let row = At(stamp, (self.cells)(rng, source, serial));
                last.insert(source, row.clone());
                row
            };
            Rows(
                (0..rng.gen_range(self.batch.0..self.batch.1))
                    .map(|_| row(rng))
                    .collect(),
            )
        };
        let w = self.weights;
        let kinds = [
            w.ingest,
            w.table,
            w.table_deltas,
            w.heartbeat,
            w.register,
            w.deregister,
            w.pause,
            w.resume,
            w.migrate,
            w.subscribe,
            w.tune,
            w.read,
        ];
        let streams: Vec<u32> = self.streams.iter().map(|s| s.1).collect();
        for _ in 0..self.events {
            let of = |paused: bool| {
                slots
                    .iter()
                    .filter(|s| s.1 == paused)
                    .map(|s| s.0)
                    .collect()
            };
            let (live, paused): (Vec<usize>, Vec<usize>) = (of(false), of(true));
            let any =
                |rng: &mut StdRng, of: &[usize]| of.get(rng.gen_range(0..of.len().max(1))).copied();
            let event = match pick(&mut rng, &kinds) {
                0 => {
                    let source = self.streams[pick(&mut rng, &streams)].0;
                    now += 1;
                    Some(Ingest {
                        source,
                        rows: rows(&mut rng, source, now - 1),
                    })
                }
                kind @ (1 | 2) => {
                    let source = self.tables[rng.gen_range(0..self.tables.len())];
                    let inserts = rows(&mut rng, source, now);
                    let table = held.entry(source).or_default();
                    let n = if kind == 2 {
                        rng.gen_range(0..3usize).min(table.len())
                    } else {
                        0
                    };
                    let gone = (0..n).map(|_| table.swap_remove(rng.gen_range(0..table.len())));
                    let retracts = Rows(gone.collect());
                    table.extend(inserts.0.iter().cloned());
                    Some(match kind {
                        1 => Ingest {
                            source,
                            rows: inserts,
                        },
                        _ => TableDeltas {
                            source,
                            inserts,
                            retracts,
                        },
                    })
                }
                3 => {
                    let leap = rng.gen_range(0..100u32) < self.leap;
                    now += if leap {
                        200
                    } else {
                        rng.gen_range(self.jump.0..self.jump.1)
                    };
                    Some(Heartbeat { secs: now })
                }
                4 => {
                    slots.push((next, false));
                    next += 1;
                    let template = rng.gen_range(0..self.templates.0);
                    let constant = rng.gen_range(0..self.templates.1);
                    Some(Register {
                        slot: next - 1,
                        template,
                        constant,
                    })
                }
                5 => any(&mut rng, &live)
                    .inspect(|&slot| slots.retain(|s| s.0 != slot))
                    .map(|slot| Deregister { slot }),
                k @ (6 | 7) => any(&mut rng, if k == 6 { &live } else { &paused }).map(|slot| {
                    slots
                        .iter_mut()
                        .filter(|s| s.0 == slot)
                        .for_each(|s| s.1 = k == 6);
                    if k == 6 {
                        Pause { slot }
                    } else {
                        Resume { slot }
                    }
                }),
                8 => any(&mut rng, &live).map(|slot| Migrate {
                    slot,
                    to: rng.gen_range(0..4usize),
                }),
                9 => any(&mut rng, &live).map(|slot| Subscribe { slot }),
                10 => any(&mut rng, &live).map(|slot| Tune {
                    slot,
                    max_batch: [None, Some(1), Some(3)][rng.gen_range(0..3usize)],
                    max_delay: [None, None, Some(2)][rng.gen_range(0..3usize)],
                }),
                _ => any(&mut rng, &live).map(|slot| Read {
                    slot,
                    at: [Cut, Fresh][rng.gen_range(0..2usize)],
                }),
            };
            events.extend(event);
            if views < self.views.len() && rng.gen_range(0..40u32) == 0 {
                events.push(RegisterView { view: views });
                views += 1;
            }
        }
        events
    }
}

// ---------------------------------------------------------------------------
// Systems and what they show.

/// A system under a row: an engine configuration or an oracle.
pub trait System {
    fn label(&self) -> String;
    fn apply(&mut self, op: &Op) -> smartcis::types::Result<()>;
    /// What the system shows after an event, having passed its own
    /// checks; `Err` names the check that failed.
    fn observe(
        &mut self,
        slots: &BTreeMap<usize, SlotState>,
    ) -> Result<Seen, (&'static str, String)>;
    /// Migrations made, and every exact counter exported, rendered.
    fn finish(&mut self) -> (u64, String) {
        (0, String::new())
    }
}

#[derive(Default)]
pub struct Seen {
    pub slots: BTreeMap<usize, SlotSeen>,
    /// Invocations and deltas per operator kind.
    pub profile: Option<Vec<(u64, u64)>>,
    /// Per registered view: its name, rows ([`sorted`]) and statistics.
    pub views: Option<Vec<View>>,
    pub now: Option<SimTime>,
    pub sample: Sample,
}

pub type View = (String, Vec<Tuple>, String);

pub struct SlotSeen {
    /// The snapshot, [`sorted`].
    pub rows: Vec<Tuple>,
    /// `(tuples_in, ops_invoked, output_deltas)`, state bytes, and
    /// whether the scans are log cursors — where the system meters them.
    pub load: Option<((u64, u64, u64), u64, bool)>,
}

/// A census after an event, for the rows' non-vacuity checks.
#[derive(Clone, Debug, Default)]
pub struct Sample {
    /// The event this census follows.
    pub step: usize,
    pub resident: ResidentState,
    /// The shards' `log_bytes`, summed (sealed segments once per shard).
    pub shard_log_bytes: usize,
    /// The deepest any executor queue has been.
    pub high_water: usize,
    pub filter_probes: u64,
    /// Join sides sharing a log's key index with another side: the
    /// shards' index members beyond one an index.
    pub shared_sides: usize,
    /// The shards' key indexes' bytes, summed: each shard's own, and part
    /// of `shard_log_bytes` and of `resident.log_bytes`.
    pub join_index_bytes: usize,
    /// Rows the logs took in by back-fill so far.
    pub backfilled: u64,
    pub view_rows: Vec<usize>,
    /// Ingest→apply latency samples across the queries.
    pub latency_samples: u64,
    /// A cluster's data links: `(frames, bytes)`.
    pub wire: (u64, u64),
}

/// What the kit knows of a slot.
#[derive(Clone, Debug)]
pub struct SlotState {
    pub sql: String,
    pub template: usize,
    pub constant: usize,
    pub paused: bool,
    pub subscribed: bool,
    /// Tuned with a `max_delay`: its pushes may lag its snapshot.
    pub held: bool,
}

#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Mode {
    #[default]
    Seq,
    Pool,
    Det,
}

pub const MODES: [Mode; 3] = [Mode::Seq, Mode::Pool, Mode::Det];

pub type Wrap = fn(Box<dyn System>) -> Box<dyn System>;

#[derive(Clone, Default)]
pub struct Config {
    /// Shards of one engine, or nodes of a cluster.
    pub width: usize,
    pub mode: Mode,
    pub cluster: bool,
    pub depth: Option<usize>,
    /// Cold segments page out past 256 bytes a store.
    pub spill: bool,
    pub wrap: Option<Wrap>,
}

impl Config {
    pub fn node(width: usize, mode: Mode) -> Config {
        let config = Config::default();
        Config {
            width,
            mode,
            ..config
        }
    }

    /// A cluster of one-shard nodes.
    pub fn cluster(nodes: usize, mode: Mode) -> Config {
        Config {
            cluster: true,
            ..Config::node(nodes, mode)
        }
    }

    /// Every width under every scheduling mode.
    pub fn matrix(widths: &[usize]) -> Vec<Config> {
        widths
            .iter()
            .flat_map(|&w| MODES.map(|m| Config::node(w, m)))
            .collect()
    }

    pub fn depth(self, n: usize) -> Config {
        Config {
            depth: Some(n),
            ..self
        }
    }

    pub fn spill(self) -> Config {
        Config {
            spill: true,
            ..self
        }
    }

    pub fn wrap(self, f: Wrap) -> Config {
        Config {
            wrap: Some(f),
            ..self
        }
    }

    pub fn label(&self) -> String {
        let unit = ["shards", "nodes"][usize::from(self.cluster)];
        let depth = self.depth.map_or(String::new(), |d| format!(" depth {d}"));
        let spill = ["", " spill"][usize::from(self.spill)];
        let wrap = ["", " wrapped"][usize::from(self.wrap.is_some())];
        format!("{} {unit} {:?}{depth}{spill}{wrap}", self.width, self.mode)
    }
}

/// A check of one system against itself: a live slot's snapshot
/// ([`sorted`]) against the views it shows; `Err` says how they differ.
pub type Agree = fn(&SlotState, &[Tuple], &[View]) -> Result<(), String>;

/// What snapshots are checked against.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Oracle {
    /// The naive model, which must cover every plan the row registers.
    Model,
    /// The private path alone (views, unions, LIMIT).
    Private,
}

/// One system's record of a run.
#[derive(Default)]
pub struct Outcome {
    pub label: String,
    pub samples: Vec<Sample>,
    pub migrations: u64,
    pub fingerprint: String,
    /// Snapshot rows compared against an oracle, and per-query byte
    /// comparisons made on log cursors.
    pub rows_checked: usize,
    pub on_cursors: usize,
}

impl Outcome {
    pub fn peak(&self, f: impl Fn(&Sample) -> usize) -> usize {
        self.samples.iter().map(f).max().unwrap_or(0)
    }
}

/// A seed's events and every system's outcome, oracles first.
pub struct Run {
    pub seed: u64,
    pub events: Vec<Event>,
    pub outcomes: Vec<Outcome>,
}

impl Run {
    pub fn of(&self, label: &str) -> &Outcome {
        let found = self.outcomes.iter().find(|o| o.label == label);
        found.unwrap_or_else(|| panic!("no system {label}"))
    }

    pub fn engines(&self) -> impl Iterator<Item = &Outcome> {
        let oracle = |o: &&Outcome| ["Model", "Private"].contains(&o.label.as_str());
        self.outcomes.iter().filter(move |o| !oracle(o))
    }
}

/// A failed check.
#[derive(Clone, Debug, PartialEq)]
pub struct Failure {
    pub system: String,
    pub check: &'static str,
    pub step: usize,
    pub detail: String,
}

// ---------------------------------------------------------------------------
// Rows.

/// Configs × workload × checks.
pub struct Row {
    /// The expression that builds this row, for the printed replay.
    pub name: &'static str,
    pub workload: Workload,
    pub configs: Vec<Config>,
    pub oracle: Oracle,
    /// The seed `Det` configurations replay under.
    pub seed: u64,
    pub agree: Option<Agree>,
}

impl Row {
    pub fn new(name: &'static str, workload: Workload, configs: Vec<Config>) -> Row {
        let (oracle, seed, agree) = (Oracle::Model, 0, None);
        Row {
            name,
            workload,
            configs,
            oracle,
            seed,
            agree,
        }
    }

    pub fn oracle(self, oracle: Oracle) -> Row {
        Row { oracle, ..self }
    }

    pub fn seed(self, seed: u64) -> Row {
        Row { seed, ..self }
    }

    /// Check every system that shows views with `agree`, after every event.
    pub fn agree(self, agree: Agree) -> Row {
        let agree = Some(agree);
        Row { agree, ..self }
    }

    /// Run every seed's events; on a failure, shrink them and panic with
    /// the smallest failing case as a replayable literal.
    pub fn check(&self, seeds: impl Iterator<Item = u64>) -> Vec<Run> {
        let mut runs = Vec::new();
        for seed in seeds {
            let events = self.workload.generate(seed);
            match self.run(seed, &events, None) {
                Ok(outcomes) => runs.push(Run {
                    seed,
                    events,
                    outcomes,
                }),
                Err(f) => {
                    let shrunk = self.shrink(seed, &events, &f);
                    panic!(
                        "row {} failed on {}: {} check at event {}\n{}\nworkload seed {seed}, \
                         ASPEN_TEST_SEED={}; shrunk from {} to {} events. Replay with:\n\n{}\n",
                        self.name,
                        f.system,
                        f.check,
                        f.step,
                        f.detail,
                        seed_base(),
                        events.len(),
                        shrunk.len(),
                        self.replay_literal(seed, &shrunk),
                    );
                }
            }
        }
        runs
    }

    /// Run a printed case under this row's seed; panic on a failure.
    pub fn replay(&self, events: &[Event]) -> Vec<Outcome> {
        self.run(self.seed, events, None)
            .unwrap_or_else(|f| panic!("{f:?}"))
    }

    pub fn replay_literal(&self, seed: u64, events: &[Event]) -> String {
        let events: String = events.iter().map(|e| format!("    {e:?},\n")).collect();
        format!("{}.seed({seed}).replay(&[\n{events}]);", self.name)
    }

    /// The smallest subsequence of `events` (1-minimal, by ddmin) that
    /// fails the same check on the same system.
    pub fn shrink(&self, seed: u64, events: &[Event], failure: &Failure) -> Vec<Event> {
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let fails = |events: &[Event]| {
            let got = self.run(seed, events, Some(&failure.system)).err();
            got.is_some_and(|f| (&f.system, f.check) == (&failure.system, failure.check))
        };
        let shrunk = ddmin(events.to_vec(), fails);
        std::panic::set_hook(hook);
        shrunk
    }

    /// Every system's outcome, or the first failed check (a panic is
    /// one). `only` keeps one engine configuration, by label, beside the
    /// oracles.
    pub fn run(
        &self,
        seed: u64,
        events: &[Event],
        only: Option<&str>,
    ) -> Result<Vec<Outcome>, Failure> {
        let current = RefCell::new(String::new());
        let run = catch_unwind(AssertUnwindSafe(|| {
            self.run_inner(seed, events, only, &current)
        }));
        run.unwrap_or_else(|panic| {
            let text = panic.downcast_ref::<&str>().map(|s| s.to_string());
            let detail = panic
                .downcast_ref::<String>()
                .cloned()
                .or(text)
                .unwrap_or_default();
            let (system, check, step) = (current.into_inner(), "panic", usize::MAX);
            Err(Failure {
                system,
                check,
                step,
                detail,
            })
        })
    }

    fn run_inner(
        &self,
        seed: u64,
        events: &[Event],
        only: Option<&str>,
        current: &RefCell<String>,
    ) -> Result<Vec<Outcome>, Failure> {
        let w = &self.workload;
        let mut systems: Vec<Box<dyn System>> = Vec::new();
        if self.oracle == Oracle::Model {
            systems.push(Box::new(oracles::Model::new((w.catalog)())));
        }
        systems.push(Box::new(oracles::Private::new((w.catalog)())));
        let n = systems.len();
        for config in self
            .configs
            .iter()
            .filter(|c| only.is_none_or(|l| l == c.label()))
        {
            let system = Box::new(systems::EngineSystem::new(config, w, seed));
            systems.push(match config.wrap {
                Some(wrap) => wrap(system),
                None => system,
            });
        }
        let labels: Vec<String> = systems.iter().map(|s| s.label()).collect();
        let outcome = |label: &String| Outcome {
            label: label.clone(),
            ..Outcome::default()
        };
        let mut outcomes: Vec<Outcome> = labels.iter().map(outcome).collect();
        let mut ledger = Ledger::default();
        for (step, event) in events.iter().enumerate() {
            let Some(op) = ledger.admit(event, w) else {
                continue;
            };
            let fail = |i: usize, check, detail| Failure {
                system: labels[i].clone(),
                check,
                step,
                detail,
            };
            for (i, s) in systems.iter_mut().enumerate() {
                *current.borrow_mut() = labels[i].clone();
                s.apply(&op)
                    .map_err(|e| fail(i, "error", format!("{event:?}: {e}")))?;
            }
            let mut seen = Vec::new();
            for (i, s) in systems.iter_mut().enumerate() {
                *current.borrow_mut() = labels[i].clone();
                let mut got = s
                    .observe(&ledger.slots)
                    .map_err(|(check, d)| fail(i, check, d))?;
                if let (Some(agree), Some(views)) = (self.agree, &got.views) {
                    for (slot, st) in ledger.slots.iter().filter(|s| !s.1.paused) {
                        agree(st, &got.slots[slot].rows, views)
                            .map_err(|d| fail(i, "agree", format!("slot {slot}: {d}")))?;
                    }
                }
                outcomes[i].samples.push(Sample {
                    step,
                    ..std::mem::take(&mut got.sample)
                });
                seen.push(got);
            }
            let model = (self.oracle == Oracle::Model).then(|| &seen[0]);
            let private = &seen[n - 1];
            // The private path against the model; every engine against
            // the model where it covers the plan, else the private path.
            for (i, got) in seen.iter().enumerate().skip(n - 1) {
                for (slot, st) in &ledger.slots {
                    let g = &got.slots[slot];
                    let want = match model {
                        Some(m) => &m.slots[slot],
                        None if i >= n => &private.slots[slot],
                        None => continue,
                    };
                    if !same_bag(&g.rows, &want.rows) {
                        let values = |rows: &[Tuple]| {
                            rows.iter().map(|t| t.values().to_vec()).collect::<Vec<_>>()
                        };
                        let (got, want) = (values(&g.rows), values(&want.rows));
                        let detail =
                            format!("slot {slot} `{}`:\n  got  {got:?}\n  want {want:?}", st.sql);
                        return Err(fail(i, "snapshot", detail));
                    }
                    outcomes[i].rows_checked += g.rows.len();
                    let (Some((load, bytes, cursors)), Some((want, alone, _)), true) =
                        (g.load, private.slots[slot].load, i >= n)
                    else {
                        continue;
                    };
                    if load != want {
                        let what = "(tuples_in, ops_invoked, output_deltas)";
                        let detail = format!(
                            "slot {slot} `{}`: {what} {load:?}, private {want:?}",
                            st.sql
                        );
                        return Err(fail(i, "counters", detail));
                    }
                    outcomes[i].on_cursors += usize::from(cursors);
                    if cursors && bytes > alone {
                        let detail =
                            format!("slot {slot} holds {bytes} bytes on cursors, {alone} private");
                        return Err(fail(i, "bytes", detail));
                    }
                }
                if i < n {
                    continue;
                }
                // Where the engine shows them: its clock against the first
                // engine's, its views and op profile against the private path.
                let shown = |s: &Seen| [dbg(&s.now), dbg(&s.views), dbg(&s.profile)];
                let (g, first, p) = (shown(got), shown(&seen[n]), shown(private));
                let checks = ["clock", "views", "profile"].into_iter().zip(g);
                for ((check, a), b) in checks.zip([&first[0], &p[1], &p[2]]) {
                    if let Some(a) = a.filter(|a| Some(a) != b.as_ref()) {
                        let b = b.as_deref().unwrap_or("nothing");
                        return Err(fail(i, check, format!("{a}\n  vs {b}")));
                    }
                }
            }
        }
        for (o, s) in outcomes.iter_mut().zip(&mut systems) {
            (o.migrations, o.fingerprint) = s.finish();
        }
        Ok(outcomes)
    }
}

/// An optional value, shown.
fn dbg<T: fmt::Debug>(v: &Option<T>) -> Option<String> {
    v.as_ref().map(|v| format!("{v:?}"))
}

/// Delta debugging: drop chunks of `events` while `fails` holds, down to
/// a 1-minimal failing list.
pub fn ddmin(mut events: Vec<Event>, fails: impl Fn(&[Event]) -> bool) -> Vec<Event> {
    let mut n = 2usize;
    while events.len() >= 2 {
        let chunk = events.len().div_ceil(n);
        let bounds = |lo: usize| (lo, (lo + chunk).min(events.len()));
        let parts: Vec<(usize, usize)> = (0..events.len()).step_by(chunk).map(bounds).collect();
        if let Some(&(lo, hi)) = parts.iter().find(|&&(lo, hi)| fails(&events[lo..hi])) {
            (events, n) = (events[lo..hi].to_vec(), 2);
            continue;
        }
        let without = |&(lo, hi): &(usize, usize)| [&events[..lo], &events[hi..]].concat();
        if let Some(rest) = parts.iter().map(without).find(|rest| fails(rest)) {
            (events, n) = (rest, (n - 1).max(2));
            continue;
        }
        if n >= events.len() {
            break;
        }
        n = (2 * n).min(events.len());
    }
    events
}

/// What makes an event valid: the slots, views and table rows so far.
#[derive(Default)]
struct Ledger {
    slots: BTreeMap<usize, SlotState>,
    views: Vec<usize>,
    tables: HashMap<&'static str, Vec<Tuple>>,
}

impl Ledger {
    /// The op `event` is, or `None` when it is a no-op on every system.
    fn admit(&mut self, event: &Event, w: &Workload) -> Option<Op> {
        let slots = &mut self.slots;
        Some(match *event {
            Ingest { source, ref rows } => {
                let tuples = rows.tuples();
                if w.tables.contains(&source) {
                    self.tables
                        .entry(source)
                        .or_default()
                        .extend(tuples.iter().cloned());
                }
                Op::Ingest(source, tuples)
            }
            Heartbeat { secs } => Op::Heartbeat(SimTime::from_secs(secs)),
            TableDeltas {
                source,
                ref inserts,
                ref retracts,
            } => {
                let table = self.tables.entry(source).or_default();
                let mut batch = DeltaBatch::new();
                for t in retracts.tuples() {
                    if let Some(at) = table.iter().position(|held| *held == t) {
                        batch.push(Delta::retract(table.swap_remove(at)));
                    }
                }
                for t in inserts.tuples() {
                    table.push(t.clone());
                    batch.push(Delta::insert(t));
                }
                Op::Deltas(source, batch)
            }
            Register {
                slot,
                template,
                constant,
            } => {
                let sql = (w.sql)(template, constant);
                let mut views = w.views.iter().enumerate();
                let missing = views.any(|(i, v)| !self.views.contains(&i) && mentions(&sql, v.0));
                if slots.contains_key(&slot) || missing {
                    return None;
                }
                let (paused, subscribed, held) = (false, w.push, false);
                slots.insert(
                    slot,
                    SlotState {
                        sql: sql.clone(),
                        template,
                        constant,
                        paused,
                        subscribed,
                        held,
                    },
                );
                Op::Register(slot, sql, w.push)
            }
            RegisterView { view } => {
                if self.views.contains(&view) || view >= w.views.len() {
                    return None;
                }
                self.views.push(view);
                Op::View(w.views[view].1)
            }
            Deregister { slot } => slots.remove(&slot).map(|_| Op::Deregister(slot))?,
            Pause { slot } => {
                slots.get_mut(&slot).filter(|s| !s.paused)?.paused = true;
                Op::Pause(slot)
            }
            Resume { slot } => {
                slots.get_mut(&slot).filter(|s| s.paused)?.paused = false;
                Op::Resume(slot)
            }
            Migrate { slot, to } => slots.get(&slot).map(|_| Op::Migrate(slot, to))?,
            Subscribe { slot } => {
                slots.get_mut(&slot).filter(|s| !s.subscribed)?.subscribed = true;
                Op::Subscribe(slot)
            }
            Tune {
                slot,
                max_batch,
                max_delay,
            } => {
                slots.get_mut(&slot)?.held |= max_delay.is_some();
                Op::Tune(slot, max_batch, max_delay.map(SimDuration::from_secs))
            }
            Read { slot, at } => slots.get(&slot).map(|_| Op::Read(slot, at))?,
        })
    }
}

/// Whether `sql` scans the relation `name`.
pub fn mentions(sql: &str, name: &str) -> bool {
    sql.split(|c: char| !c.is_alphanumeric() && c != '_')
        .any(|w| w == name)
}

/// Floats equal within 1e-9 relative (1e-9 absolute near zero), any
/// other value exactly — the rule of the benchmark's reference checks.
pub fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if a != b => {
            (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0)
        }
        _ => a == b,
    }
}

/// Whether two [`sorted`] row lists hold equal values, under
/// [`values_close`].
pub fn same_bag(got: &[Tuple], want: &[Tuple]) -> bool {
    let same = |(g, w): (&Tuple, &Tuple)| {
        let (g, w) = (g.values(), w.values());
        g.len() == w.len() && g.iter().zip(w).all(|(a, b)| values_close(a, b))
    };
    got.len() == want.len() && got.iter().zip(want).all(same)
}

/// `rows` by values, then stamp: a snapshot's own order.
pub fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort_by(order);
    rows
}

pub fn order(a: &Tuple, b: &Tuple) -> std::cmp::Ordering {
    a.values()
        .cmp(b.values())
        .then(a.timestamp().cmp(&b.timestamp()))
}
