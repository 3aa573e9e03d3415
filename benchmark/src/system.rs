//! What a workload hands the phase driver: the fixed work of one run
//! ([`Work`], generated up-front from the seed) and the live system of
//! one pass ([`System`], built fresh per pass over public APIs only).

use std::rc::Rc;

use aspen_stream::{Consistency, QueryHandle, ShardedEngine};
use aspen_types::Tuple;

use crate::json::Json;
use crate::trace::Tracer;

pub type Res<T> = Result<T, String>;

/// Convert an engine result, keeping only the error text.
pub fn ok<T>(r: aspen_types::Result<T>) -> Res<T> {
    r.map_err(|e| e.to_string())
}

/// One unit of ingest: a source batch followed by a heartbeat at its
/// last timestamp, or (in `building`) one application `tick()`.
#[derive(Debug, Clone)]
pub enum Batch {
    Tuples {
        source: Rc<str>,
        tuples: Rc<[Tuple]>,
    },
    Tick,
}

/// A client operation riding on a cycle besides the plain
/// register → first result → read → deregister sequence. Extras run in
/// every pass (the work is identical traced or not) but are timed only
/// as per-layer metrics.
#[derive(Debug, Clone)]
pub enum Extra {
    /// Pause, then resume, the standing query with this index.
    PauseResume(usize),
    /// Open a session, register these statements in it, close it.
    Session(Vec<String>),
    /// Register and deregister a join against a retained table (the
    /// attach replays the table).
    TableAttach(String),
    /// Register and deregister a statement whose template was never
    /// seen (a plan-cache miss).
    Novel(String),
    /// One `telemetry()` poll at the default (`Cut`) consistency.
    Telemetry,
    SetVisitor {
        point: String,
        needed: String,
    },
    CloseCorridor(String, String),
}

/// One client cycle: the statement to register (a not-yet-seen constant
/// of a known template) and any extras.
#[derive(Debug, Clone)]
pub struct Cycle {
    pub sql: String,
    pub extras: Vec<Extra>,
}

/// The fixed work of one pass. Every pass of a run replays exactly this.
#[derive(Debug, Default)]
pub struct Work {
    /// Times a pass sets the system up (all but the last are dropped at
    /// once): every one is a sample of `setup_s`.
    pub setups: usize,
    /// S: admitted after registration to bring windows to steady state.
    pub warm: Vec<Batch>,
    /// T: closed-loop rounds, each ended by `quiesce()`.
    pub rounds: Vec<Vec<Batch>>,
    /// L: open-loop batches, batch `k` due at `k / rate_l` seconds.
    pub open: Vec<Batch>,
    /// Open-loop rate, batches per second: a per-workload constant,
    /// never derived at run time.
    pub rate_l: f64,
    /// C: one batch admitted per cycle.
    pub cycle_batches: Vec<Batch>,
    /// Cycle scripts, handed out in order: the ride-along cycles of T
    /// and L first (when `ride_along` is set), then one per C batch.
    pub cycles: Vec<Cycle>,
    /// `churn`: every T batch, and every n-th L batch, also runs one
    /// cycle.
    pub ride_along: Option<usize>,
}

impl Work {
    /// How many cycle scripts T and L consume before C starts.
    pub fn ride_along_cycles(&self) -> usize {
        match self.ride_along {
            Some(stride) => {
                self.rounds.iter().map(Vec::len).sum::<usize>() + self.open.len().div_ceil(stride)
            }
            None => 0,
        }
    }
}

/// Outcome of the reference checks at one phase end.
#[derive(Debug, Default)]
pub struct Checked {
    pub attempted: u64,
    pub failed: u64,
    /// First few mismatches, for the report.
    pub notes: Vec<String>,
}

impl Checked {
    pub fn expect(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 4 {
                self.notes.push(what());
            }
        }
    }
}

/// The live system of one pass.
pub trait System {
    /// Admit one batch (`on_batch` + `heartbeat`, or `tick()`); returns
    /// the tuples admitted.
    fn ingest(&mut self, batch: &Batch, tr: &mut Tracer, op: u64) -> Res<u64>;

    /// Drain everything admitted so far.
    fn quiesce(&mut self) -> Res<()>;

    /// The open-loop probe: a `Fresh` read of the `k`-th rotating
    /// small-result probe; returns the rows read.
    fn probe(&mut self, k: usize, tr: &mut Tracer) -> Res<usize>;

    fn register(&mut self, sql: &str) -> Res<QueryHandle>;

    fn deregister(&mut self, q: QueryHandle) -> Res<()>;

    fn snapshot(&mut self, q: QueryHandle, consistency: Consistency) -> Res<Vec<Tuple>>;

    /// The standing query the `k`-th `Cut` read polls (a rotation).
    fn reader(&self, k: usize) -> QueryHandle;

    fn extra(&mut self, extra: &Extra, tr: &mut Tracer, op: u64) -> Res<()>;

    /// Work a T round ends with, inside its timing (`cluster`: the
    /// forced cross-node migration).
    fn end_round(&mut self, _round: usize, _tr: &mut Tracer) -> Res<()> {
        Ok(())
    }

    /// The client's periodic chores (draining push subscriptions).
    fn housekeeping(&mut self, _tr: &mut Tracer, _op: u64) {}

    /// `resident_state().state_bytes`, summed over nodes.
    fn state_bytes(&self) -> u64 {
        self.nodes()
            .iter()
            .map(|n| n.resident_state().state_bytes as u64)
            .sum()
    }

    /// Reference checks against everything admitted so far; called at
    /// phase ends on a quiesced system.
    fn check(&mut self) -> Checked;

    /// Digest of every standing query's result.
    fn digest(&mut self) -> Res<u64>;

    /// The engines behind the system: one, or one per cluster node.
    fn nodes(&self) -> Vec<&ShardedEngine>;

    /// The resolved scheduling mode, for the run record.
    fn scheduling(&self) -> &'static str {
        match self.nodes().first() {
            Some(node) if node.executor_stats().workers > 0 => "Pool",
            Some(_) => "Sequential",
            None => "none",
        }
    }

    /// Per-layer counters read from the system's public statistics at
    /// the end of the traced pass (plus lifecycle probes on the live
    /// system); `tuples` is what the pass admitted.
    fn ledger(&mut self, tr: &mut Tracer, tuples: u64) -> Vec<(&'static str, f64)>;

    /// Free-form details for the result file.
    fn describe(&self) -> Json {
        Json::Null
    }
}

/// A workload: its name, the fixed work, and how to build a fresh
/// system (catalog, system, standing queries — phase S before warm-up).
pub trait Workload {
    type Sys: System;

    fn work(&self) -> &Work;

    fn setup(&self, tr: &mut Tracer) -> Res<Self::Sys>;

    /// Direct probes of each layer's public functions on this
    /// workload's own data (traced run only).
    fn probes(&self, out_dir: &std::path::Path) -> Vec<(&'static str, f64)>;
}
