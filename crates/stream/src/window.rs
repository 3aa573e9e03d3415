//! Window maintenance: turning the clock into retraction deltas.
//!
//! A window sits immediately above each stream scan. Insertions pass
//! through; as simulated time advances, expired tuples are emitted as
//! retractions, so every downstream operator sees a coherent multiset
//! view of "the window as of now". `ROWS n` windows retract eagerly on
//! overflow instead. Ingest is batch-oriented: a whole source batch is
//! folded into one output [`DeltaBatch`] before anything propagates.
//!
//! There is one window state machine, `Frame`. A window sits directly
//! above its scan, so its live set is always the contiguous suffix
//! `[head, tail)` of the scan's arrival order; a frame is that `head`
//! plus the tumbling pane, and only the owner of the log differs:
//!
//! * A shard keeps one `SourceLog` per stream source, appended once
//!   per arrival, and every window over the source is a *cursor* into
//!   it. Cursors in equal state are one *class*: the log steps each
//!   class once, and every member borrows that batch.
//! * A [`WindowOp`] — table and view-base scans, a pipeline run off a
//!   shard — is a private log with exactly one cursor: append, step the
//!   frame, release below the head. N cursors on one log and N private
//!   windows fed the same arrivals emit the same deltas by construction.
//!
//! **A step is net by row.** A step moves `head` and `tail`, so what it
//! emits is read off the row ids: rows `[old head, new head)` that
//! predate the step are retracted, rows `[old tail, new tail)` at or
//! above the new head are inserted, and a row both appended and evicted
//! by the step (`ROWS n` under a batch longer than `n`, a `TUMBLING`
//! rollover inside a batch) appears as neither — nothing downstream
//! consolidates a window's output. Each delta carries its row id (an
//! *addressed* batch; `WindowOp::get` / `SourceLog::get` resolve
//! it), and `k` rows holding equal tuples arrive as `k` unit deltas.
//! `Unbounded` buffers nothing, so its insertions carry no id.
//!
//! **A moved cursor is a position.** Every log of a source numbers its
//! rows alike, so a frame names the same rows on every log: a migrating
//! query's cursors leave as `Position`s and rejoin another log at the
//! same frames, which it back-fills with the rows below its floor they
//! need (`SourceLog::missing`); a frame equal to a class's joins it.
//!
//! **The prefix rule.** Admission accepts any stamp, and every spec
//! expires a *prefix* of the arrival order: `RANGE` advances `head`
//! while the row *at* `head` is out of the window, so a tuple stamped
//! below its predecessor in arrival order expires when the predecessor
//! does — late, never lost, never early. The engine's telemetry counts
//! such arrivals as `out_of_order_tuples`.
//!
//! The log is a [`ColumnarDeque`] (per-column storage, measured bytes,
//! optional spill of cold segments). Expiry checks only touch the
//! always-resident timestamp column, so a spilled window never faults
//! segments in just to discover nothing expired.

use aspen_types::{AspenError, QueryId, Result, SimTime, SourceId, Tuple, WindowSpec};
use columnar::SegmentPool;

use crate::delta::{Delta, DeltaBatch};
use crate::grouped::{FilterIndex, FilterKey, Filtered};
use crate::state::{ColumnarDeque, Footprint, StateOptions};
use crate::telemetry::ShardMeters;

/// Stateful window maintenance for one scan: a log with one cursor.
#[derive(Debug)]
pub struct WindowOp {
    /// The arrivals the window still holds — exactly `[at.head, tail)`.
    rows: ColumnarDeque,
    at: Frame,
}

impl WindowOp {
    /// Resident window ([`StateOptions::default`]).
    pub fn new(spec: WindowSpec) -> Self {
        WindowOp::with_options(spec, &StateOptions::default())
    }

    pub fn with_options(spec: WindowSpec, opts: &StateOptions) -> Self {
        WindowOp {
            rows: ColumnarDeque::new(opts.spill.clone()),
            at: Frame::new(spec),
        }
    }

    pub fn spec(&self) -> WindowSpec {
        self.at.spec
    }

    /// Number of live (buffered) tuples.
    pub fn live(&self) -> usize {
        self.rows.len()
    }

    /// What the buffer holds (measured).
    pub fn footprint(&self) -> Footprint {
        self.rows.footprint()
    }

    /// The live tuples in arrival order.
    pub fn buffered(&self) -> Vec<Tuple> {
        self.rows.snapshot()
    }

    /// The live tuple at row id `row` (an id this window's steps emitted).
    pub(crate) fn get(&self, row: u64) -> Option<Tuple> {
        self.rows.get(row)
    }

    /// Whether this window reacts to the passage of time (i.e. whether
    /// `advance` can ever emit retractions). The engine uses this to
    /// route heartbeats only to clock-sensitive pipelines.
    pub fn needs_clock(&self) -> bool {
        matches!(self.at.spec, WindowSpec::Range(_) | WindowSpec::Tumbling(_))
    }

    /// Ingest a whole source batch; appends the step's net deltas (the
    /// surviving insertions plus any eager retractions) to `out`.
    pub fn insert_batch(&mut self, tuples: &[Tuple], out: &mut DeltaBatch) {
        let tail = self.rows.next_row();
        if self.at.pins() {
            for t in tuples {
                self.rows.push_back(t);
            }
        }
        self.at.insert_batch(&self.rows, tail, tuples, out);
        self.rows.release_below(self.at.head);
    }

    /// Ingest one inserted tuple; appends the deltas to propagate to
    /// `out`.
    pub fn insert(&mut self, tuple: Tuple, out: &mut DeltaBatch) {
        self.insert_batch(std::slice::from_ref(&tuple), out);
    }

    /// Advance the clock; appends retractions for tuples that fell out of
    /// a RANGE window (and pane rollovers for TUMBLING).
    pub fn advance(&mut self, now: SimTime, out: &mut DeltaBatch) {
        self.at.advance(&self.rows, now, out);
        self.rows.release_below(self.at.head);
    }
}

/// The state of one window over an arrival log: its live set is the
/// log suffix `[head, tail)`. Windows in equal state emit equal deltas
/// on the next log step, so a frame is also the key of a cursor *class*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Frame {
    spec: WindowSpec,
    /// Row id of the oldest live tuple. Always 0 for `Unbounded`, which
    /// buffers nothing and therefore pins nothing.
    head: u64,
    /// Current pane index for tumbling windows.
    pane: Option<u64>,
}

/// One window over a [`SourceLog`]: the scan `scan` of query `query`.
#[derive(Debug)]
struct Cursor {
    query: QueryId,
    scan: usize,
    at: Frame,
    /// The class this cursor stepped with: an index into the batches of
    /// the log step in progress, meaningless between steps.
    class: usize,
}

/// Where a detached cursor stood: scan `scan` at frame `at`, which names
/// the same rows on every log of its source — or, a window that held no
/// row (not `live`), at the tail of whatever log it rejoins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Position {
    pub(crate) scan: usize,
    at: Frame,
    live: bool,
}

impl Position {
    /// A new window of scan `scan`, at the tail: streams are never replayed.
    pub(crate) fn fresh(scan: usize, spec: WindowSpec) -> Self {
        let (at, live) = (Frame::new(spec), false);
        Position { scan, at, live }
    }
}

/// One log step's output: a batch per cursor class, and per cursor what
/// the log's filter index made of its class's batch.
#[derive(Debug)]
pub(crate) struct Stepped {
    batches: Vec<DeltaBatch>,
    /// By cursor position; empty when the log groups no filter.
    filtered: Vec<Option<Filtered>>,
}

/// What a log step feeds one cursor's scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fed<'a> {
    /// The class batch: the deltas the scan's window emitted.
    pub(crate) window: &'a DeltaBatch,
    /// When the log groups the scan's leading filter and `window` is not
    /// empty: that filter's output on it.
    pub(crate) filtered: Option<&'a Filtered>,
}

/// The tuples of log rows `[lo, hi)`, in arrival order (empty, and no
/// segment touched, when `lo >= hi`).
fn range(rows: &ColumnarDeque, lo: u64, hi: u64) -> Vec<Tuple> {
    let mut out = Vec::new();
    if lo < hi {
        rows.extend_range(lo, hi, &mut out);
    }
    out
}

impl Frame {
    fn new(spec: WindowSpec) -> Self {
        Frame {
            spec,
            head: 0,
            pane: None,
        }
    }

    /// Whether this window buffers tuples, i.e. needs the log to retain
    /// rows from `head` on.
    fn pins(&self) -> bool {
        !self.spec.is_append_only()
    }

    /// Step over the arrivals `tuples`, which the log appended as rows
    /// `[tail, tail + tuples.len())`: the insertions plus the eager
    /// retractions (`ROWS` overflow, `TUMBLING` pane change — *any*
    /// change, so a stray older-pane arrival rolls too), net by row and
    /// in arrival order.
    fn insert_batch(
        &mut self,
        rows: &ColumnarDeque,
        tail: u64,
        tuples: &[Tuple],
        out: &mut DeltaBatch,
    ) {
        let arrivals = (tail..).zip(tuples);
        match self.spec {
            WindowSpec::Unbounded => {
                for t in tuples {
                    out.push_insert(t.clone());
                }
            }
            WindowSpec::Range(_) => {
                for (row, t) in arrivals {
                    out.push_row(Delta::insert(t.clone()), row);
                }
            }
            WindowSpec::Rows(n) => {
                // Where the head ends up: arrivals below it never show.
                let head = (tail + tuples.len() as u64).saturating_sub(n);
                let mut evicted = range(rows, self.head, head.min(tail)).into_iter();
                for (row, t) in arrivals {
                    if row >= head {
                        out.push_row(Delta::insert(t.clone()), row);
                    }
                    while row + 1 - self.head > n {
                        if self.head < tail {
                            let old = evicted.next().expect("eviction run is sized");
                            out.push_row(Delta::retract(old), self.head);
                        }
                        self.head += 1;
                    }
                }
            }
            WindowSpec::Tumbling(w) => {
                // The last pane change of the batch retracts everything
                // before it, the batch's own earlier arrivals included.
                let mut head = self.head;
                for (row, t) in arrivals.clone() {
                    let stamp = t.timestamp().as_micros();
                    let pane = stamp.checked_div(w.as_micros()).unwrap_or(0);
                    if self.pane.is_some_and(|current| current != pane) {
                        head = row;
                    }
                    self.pane = Some(pane);
                }
                for (row, old) in (self.head..).zip(range(rows, self.head, head.min(tail))) {
                    out.push_row(Delta::retract(old), row);
                }
                for (row, t) in arrivals.filter(|(row, _)| *row >= head) {
                    out.push_row(Delta::insert(t.clone()), row);
                }
                self.head = head;
            }
        }
    }

    /// Advance the clock against the log's retained rows: `RANGE`
    /// retracts the expired prefix, `TUMBLING` rolls only *forward* (a
    /// lagging clock never touches live rows).
    fn advance(&mut self, rows: &ColumnarDeque, now: SimTime, out: &mut DeltaBatch) {
        let tail = rows.next_row();
        let expired_to = match self.spec {
            WindowSpec::Range(_) => {
                let ts = |row| rows.ts_at(row).expect("rows from a head on are live");
                let mut h = self.head;
                while h < tail && !self.spec.contains(ts(h), now) {
                    h += 1;
                }
                h
            }
            WindowSpec::Tumbling(w) if w.as_micros() > 0 => {
                let now_pane = now.as_micros() / w.as_micros();
                match self.pane {
                    Some(current) if now_pane > current => {
                        self.pane = Some(now_pane);
                        tail
                    }
                    _ => self.head,
                }
            }
            _ => self.head,
        };
        for (row, old) in (self.head..).zip(range(rows, self.head, expired_to)) {
            out.push_row(Delta::retract(old), row);
        }
        self.head = expired_to;
    }
}

/// The arrival log of one stream source on one shard: every tuple the
/// source delivered that some window still holds, stored once, with
/// every window over the source attached as a [`Cursor`].
///
/// Invariants: the store holds exactly `[floor, tail)` live, `tail`
/// being its next row id; every pinning cursor has `floor <= head <=
/// tail`; after a [`SourceLog::release`] `floor` is the minimum pinning
/// head (or `tail` when nothing pins), so the log never retains a row no
/// window can still retract. A new cursor starts at `head = tail` —
/// streams are never replayed — which makes attaching O(1) whatever the
/// log holds. Cursors of one query are adjacent and in scan order, which
/// is the order their batches are delivered in.
///
/// **Numbering.** A row's id is its source's arrival number, stamped
/// once per engine at admission, so a tuple has one id on every shard. A
/// log holding no rows — new, or emptied — jumps its tail and pinning
/// heads (equal to it) to the next batch's first number; a log holding
/// rows was fed every batch since its first. Segments are cut at
/// multiples of the segment size in that numbering, so every log of a
/// source shares full segments through one engine-wide [`SegmentPool`],
/// which is charged for them once ([`SourceLog::state_bytes`] counts
/// them at full size); a log's short first segment stays its own.
///
/// **Grouped filters.** A cursor attached with its scan's leading
/// `col op constant` filter is a member of the log's [`FilterIndex`],
/// kept up to date at attach and detach. Each step probes every
/// class batch once per group with members in that class and delivers
/// each member its filter's output beside the class batch
/// ([`crate::grouped`]).
///
/// The log steps cursor **classes**, not cursors: cursors whose
/// [`Frame`]s are equal emit the same deltas, so each step materializes
/// one batch per distinct frame and every member borrows it. Classes
/// have no registry — the key is recomputed per
/// step — so a late cursor falls into the senior class of its spec by
/// itself once its head catches up (first expiry past its attach row
/// for `RANGE`, `n` arrivals for `ROWS n`, the next rollover for
/// `TUMBLING`), and detaching a member takes nothing from the others.
///
/// One log step is three calls: **step** ([`SourceLog::insert_batch`] /
/// [`SourceLog::advance`]: every cursor moves, one batch per class comes
/// back), **deliver** ([`SourceLog::fed`], [`SourceLog::get`]) and
/// **release** — last, once every pipeline of the step ran: delivered one
/// cursor's retraction, a pipeline may look up a row another cursor
/// retracts in the same step. (A [`WindowOp`] has one consumer, which
/// reads retracted tuples off the deltas: it releases within its step.)
#[derive(Debug)]
pub(crate) struct SourceLog {
    rows: ColumnarDeque,
    cursors: Vec<Cursor>,
    /// The grouped leading filters of the cursors, by cursor position.
    filters: FilterIndex,
}

impl SourceLog {
    /// A log sharing sealed segments through its source's engine `pool`.
    pub(crate) fn new(opts: &StateOptions, pool: SegmentPool) -> Self {
        SourceLog {
            rows: ColumnarDeque::new(opts.spill.clone()).with_pool(pool),
            cursors: Vec::new(),
            filters: FilterIndex::default(),
        }
    }

    /// Attach a cursor of `query` at `at` (a live window's rows must be
    /// here), with `filter` — its scan's leading filter, if it groups — in
    /// the log's index. A query attaches its scans of a source back to
    /// back, in scan order.
    pub(crate) fn attach(&mut self, query: QueryId, at: Position, filter: Option<&FilterKey>) {
        let Position { scan, mut at, live } = at;
        if at.pins() && !live {
            at.head = self.rows.next_row();
        }
        let held = !at.pins() || self.floor().is_none_or(|f| f <= at.head);
        assert!(held, "a cursor rejoins a log at a row it holds");
        if let Some(key) = filter {
            self.filters.insert(key, self.cursors.len() as u32);
        }
        self.cursors.push(Cursor {
            query,
            scan,
            at,
            class: 0,
        });
    }

    /// Drop the cursors of `query` and their filters from the index, and
    /// return where they stood; rows only they pinned are released.
    pub(crate) fn detach(&mut self, query: QueryId) -> Vec<Position> {
        let tail = self.rows.next_row();
        let gone = self.cursors.iter().filter(|c| c.query == query);
        let position = |c: &Cursor| Position {
            scan: c.scan,
            at: c.at,
            live: c.at.pins() && c.at.head < tail,
        };
        let gone = gone.map(position).collect();
        let mut kept = 0;
        let to: Vec<Option<u32>> = self
            .cursors
            .iter()
            .map(|c| {
                (c.query != query).then(|| {
                    kept += 1;
                    kept - 1
                })
            })
            .collect();
        self.filters.renumber(&to);
        self.cursors.retain(|c| c.query != query);
        self.release();
        gone
    }

    /// The first row this log retains, if it retains any.
    pub(crate) fn floor(&self) -> Option<u64> {
        let (tail, held) = (self.rows.next_row(), self.rows.len() as u64);
        (held > 0).then(|| tail - held)
    }

    /// What a log of this source whose rows start at `floor` (`None`: it
    /// holds none) lacks for `query`'s cursors to rejoin it: the rows from
    /// their lowest head up to that floor, with the first one's id.
    pub(crate) fn missing(&self, query: QueryId, floor: Option<u64>) -> Option<(u64, Vec<Tuple>)> {
        let tail = self.rows.next_row();
        let mine = |c: &&Cursor| c.query == query && c.at.pins();
        let heads = self.cursors.iter().filter(mine).map(|c| c.at.head);
        let (lo, hi) = (heads.min()?, floor.unwrap_or(tail).min(tail));
        (lo < hi).then(|| (lo, range(&self.rows, lo, hi)))
    }

    /// Take in, and count, the rows numbered from `first` below those this
    /// log holds; it is rebuilt once, so full segments re-seal against the
    /// source's pool, which hands back the parts another log sealed.
    pub(crate) fn backfill(&mut self, first: u64, rows: &[Tuple]) -> u64 {
        let (tail, floor) = (self.rows.next_row(), self.floor());
        let below = floor.map_or(rows.len(), |f| f.saturating_sub(first) as usize);
        let below = &rows[..below.min(rows.len())];
        if below.is_empty() {
            return 0;
        }
        let end = first + below.len() as u64;
        // An empty log's pinning heads sit at its (maybe stale) tail: their
        // windows stay empty.
        for c in self.cursors.iter_mut().filter(|c| c.at.pins()) {
            c.at.head = c.at.head.max(end);
        }
        let held = range(&self.rows, end, tail);
        self.rows.release_below(tail);
        self.rows.resume_at(first);
        for t in below.iter().chain(&held) {
            self.rows.push_back(t);
        }
        below.len() as u64
    }

    /// The one place a log step becomes deltas. `step` runs once per
    /// class — on the first cursor found in each distinct frame — and
    /// every member moves to the frame it produced, so all cursors have
    /// stepped before anything is delivered. Returns each class's
    /// batch; `Cursor::class` indexes them.
    fn step_classes(
        cursors: &mut [Cursor],
        mut step: impl FnMut(&mut Frame, &mut DeltaBatch),
    ) -> Vec<DeltaBatch> {
        let mut frames: Vec<(Frame, Frame)> = Vec::new();
        let mut batches = Vec::new();
        for c in cursors {
            c.class = frames
                .iter()
                .position(|(from, _)| *from == c.at)
                .unwrap_or_else(|| {
                    let (mut to, mut batch) = (c.at, DeltaBatch::new());
                    step(&mut to, &mut batch);
                    batches.push(batch);
                    frames.push((c.at, to));
                    frames.len() - 1
                });
            c.at = frames[c.class].1;
        }
        batches
    }

    /// Probe the step's class `batches` through the filter index.
    fn probe(&self, batches: Vec<DeltaBatch>, meters: &mut ShardMeters) -> Stepped {
        let class_of = |m: u32| self.cursors[m as usize].class;
        let probes = &mut meters.filter_probes;
        let filtered = self
            .filters
            .run(self.cursors.len(), class_of, &batches, probes);
        Stepped { batches, filtered }
    }

    /// **Step** over one batch of source `src`, numbered from `first`:
    /// append it and move every cursor. Returns one batch per class
    /// (counted into `meters`, with one delivery per cursor), probed
    /// through the filter index, for [`SourceLog::fed`] to hand out. Every
    /// cursor has stepped when this returns, so a query whose delivery
    /// fails cannot desynchronize its class (a cursor left behind would
    /// later retract tuples it never inserted). Rows imply a pinning
    /// cursor, routed here since: a batch not at their tail is refused.
    pub(crate) fn insert_batch(
        &mut self,
        src: SourceId,
        first: u64,
        tuples: &[Tuple],
        meters: &mut ShardMeters,
    ) -> Result<Stepped> {
        let tail = self.rows.next_row();
        if self.rows.is_empty() {
            // Nothing held: the tail and the pinning heads (equal to it)
            // jump to this batch's number.
            self.rows.resume_at(first);
            for c in self.cursors.iter_mut().filter(|c| c.at.pins()) {
                c.at.head = first;
            }
        } else if tail != first {
            return Err(AspenError::Execution(format!(
                "{src:?}: a batch numbered from {first} reached a log whose next row is {tail}"
            )));
        }
        if self.cursors.iter().any(|c| c.at.pins()) {
            for t in tuples {
                self.rows.push_back(t);
            }
        }
        let rows = &self.rows;
        let batches = Self::step_classes(&mut self.cursors, |at, out| {
            at.insert_batch(rows, first, tuples, out)
        });
        meters.window_batches += batches.len() as u64;
        meters.window_deliveries += self.cursors.len() as u64;
        Ok(self.probe(batches, meters))
    }

    /// **Step** the clock of every cursor. Returns one batch of
    /// retractions per class, empty where nothing expired (only the
    /// others count into `meters`), probed through the filter index.
    pub(crate) fn advance(&mut self, now: SimTime, meters: &mut ShardMeters) -> Stepped {
        let rows = &self.rows;
        let batches = Self::step_classes(&mut self.cursors, |at, out| at.advance(rows, now, out));
        let fired = |batch: &&DeltaBatch| !batch.is_empty();
        meters.window_batches += batches.iter().filter(fired).count() as u64;
        let fed = self.cursors.iter().map(|c| &batches[c.class]);
        meters.window_deliveries += fed.filter(fired).count() as u64;
        self.probe(batches, meters)
    }

    /// **Deliver**: whose batch is whose. Each query with cursors here,
    /// in attach order, with what each of its cursors is [`Fed`] — by
    /// scan, in scan order — out of the `step`; classmates borrow the
    /// same class batch.
    pub(crate) fn fed<'a>(
        &'a self,
        step: &'a Stepped,
    ) -> impl Iterator<Item = (QueryId, impl Iterator<Item = (usize, Fed<'a>)> + 'a)> + 'a {
        let mut at = 0;
        let taps = self.cursors.chunk_by(|a, b| a.query == b.query);
        taps.map(move |tap| {
            let first = at;
            at += tap.len();
            let fed = tap.iter().enumerate().map(move |(i, c)| {
                let filtered = step.filtered.get(first + i).and_then(Option::as_ref);
                let window = &step.batches[c.class];
                (c.scan, Fed { window, filtered })
            });
            (tap[0].query, fed)
        })
    }

    /// The tuple at row id `row`: live from its arrival until the
    /// release after the step in which its last cursor retracted it.
    pub(crate) fn get(&self, row: u64) -> Option<Tuple> {
        self.rows.get(row)
    }

    /// The retained rows, `(row id, tuple)` in arrival order.
    pub(crate) fn numbered(&self) -> Vec<(u64, Tuple)> {
        self.rows.numbered()
    }

    /// **Release** the rows below the minimum pinning head — once every
    /// pipeline fed by the step has run.
    pub(crate) fn release(&mut self) {
        let keep = self
            .cursors
            .iter()
            .filter(|c| c.at.pins())
            .map(|c| c.at.head)
            .min()
            .unwrap_or_else(|| self.rows.next_row());
        self.rows.release_below(keep);
    }

    pub(crate) fn cursors(&self) -> usize {
        self.cursors.len()
    }

    /// Cursor classes right now: distinct frames, i.e. the batches the
    /// next step will materialize.
    pub(crate) fn classes(&self) -> usize {
        let mut frames: Vec<Frame> = Vec::new();
        for c in &self.cursors {
            if !frames.contains(&c.at) {
                frames.push(c.at);
            }
        }
        frames.len()
    }

    /// Rows currently retained (`tail - floor`).
    pub(crate) fn rows(&self) -> usize {
        self.rows.len()
    }

    /// What this log references: shared segments at full size, and
    /// their share in `pooled` (charged to the source's pool).
    pub(crate) fn footprint(&self) -> Footprint {
        self.rows.footprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use aspen_types::{SimDuration, Value};

    fn t(v: i64, secs: u64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], SimTime::from_secs(secs))
    }

    fn signs(ds: &DeltaBatch) -> Vec<i64> {
        ds.iter().map(|d| d.sign).collect()
    }

    /// The multiset a batch denotes, in a canonical order.
    fn net(batch: &DeltaBatch) -> Vec<(Tuple, i64)> {
        let mut net = batch.consolidate();
        net.sort_by_key(|(t, _)| (t.values().to_vec(), t.timestamp()));
        net
    }

    /// What each cursor was fed, as the multiset it denotes.
    type Got = Vec<(QueryId, usize, Vec<(Tuple, i64)>)>;

    /// One whole log step the way a shard runs it — step, deliver,
    /// release — returning every cursor's share of the `step`: its class
    /// batch, or its grouped filter's output.
    fn deliver(log: &mut SourceLog, step: Stepped) -> Got {
        let mut got = Vec::new();
        for (q, fed) in log.fed(&step) {
            got.extend(fed.map(|(scan, fed)| {
                let batch = fed.filtered.map_or(fed.window, |f| f.out.as_ref().unwrap());
                (q, scan, net(batch))
            }));
        }
        log.release();
        got
    }

    /// A log of its own pool, the one shard of its source.
    fn new_log(opts: &StateOptions) -> SourceLog {
        SourceLog::new(opts, SegmentPool::default())
    }

    /// Step `log` over the next batch of a source that feeds only it.
    fn step(log: &mut SourceLog, tuples: &[Tuple], meters: &mut ShardMeters) -> Stepped {
        let first = log.rows.next_row();
        log.insert_batch(SourceId(0), first, tuples, meters)
            .unwrap()
    }

    fn feed(log: &mut SourceLog, tuples: &[Tuple], meters: &mut ShardMeters) -> Got {
        let batches = step(log, tuples, meters);
        deliver(log, batches)
    }

    /// A heartbeat: the cursors that expired something.
    fn tick(log: &mut SourceLog, secs: u64, meters: &mut ShardMeters) -> Got {
        let batches = log.advance(SimTime::from_secs(secs), meters);
        let mut got = deliver(log, batches);
        got.retain(|(.., net)| !net.is_empty());
        got
    }

    #[test]
    fn range_window_expires_on_advance() {
        let mut w = WindowOp::new(WindowSpec::Range(SimDuration::from_secs(10)));
        let mut out = DeltaBatch::new();
        w.insert_batch(&[t(1, 0), t(2, 5)], &mut out);
        assert_eq!(signs(&out), vec![1, 1]);
        out.clear();
        w.advance(SimTime::from_secs(11), &mut out);
        // t=0 expired (11 - 10 = 1 > 0), t=5 still live.
        assert_eq!(out.len(), 1);
        assert_eq!(out.as_slice()[0], Delta::retract(t(1, 0)));
        assert_eq!(w.live(), 1);
        out.clear();
        w.advance(SimTime::from_secs(16), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(w.live(), 0);
    }

    #[test]
    fn rows_window_evicts_eagerly() {
        let mut w = WindowOp::new(WindowSpec::Rows(2));
        let mut out = DeltaBatch::new();
        w.insert(t(1, 0), &mut out);
        w.insert(t(2, 1), &mut out);
        w.insert(t(3, 2), &mut out);
        // inserts: +1 +2 +3, eviction: -1
        assert_eq!(signs(&out), vec![1, 1, 1, -1]);
        assert_eq!(out.as_slice()[3].tuple, t(1, 0));
        assert_eq!(w.live(), 2);
        // advance never expires ROWS windows
        out.clear();
        w.advance(SimTime::from_secs(100), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn tumbling_window_rolls_over_on_insert_and_advance() {
        let mut w = WindowOp::new(WindowSpec::Tumbling(SimDuration::from_secs(10)));
        let mut out = DeltaBatch::new();
        w.insert(t(1, 1), &mut out);
        w.insert(t(2, 9), &mut out);
        out.clear();
        // Crossing into pane 1 by insert retracts pane 0 first.
        w.insert(t(3, 12), &mut out);
        assert_eq!(signs(&out), vec![-1, -1, 1]);
        out.clear();
        // Advancing to pane 2 drains pane 1.
        w.advance(SimTime::from_secs(25), &mut out);
        assert_eq!(signs(&out), vec![-1]);
        assert_eq!(out.as_slice()[0].tuple, t(3, 12));
        assert_eq!(w.live(), 0);
        assert_eq!(w.footprint().resident, 0, "an emptied window holds nothing");
    }

    #[test]
    fn unbounded_never_retracts() {
        let mut w = WindowOp::new(WindowSpec::Unbounded);
        let mut out = DeltaBatch::new();
        w.insert(t(1, 0), &mut out);
        w.advance(SimTime::from_secs(10_000), &mut out);
        assert_eq!(signs(&out), vec![1]);
        assert!(!w.needs_clock());
    }

    #[test]
    fn clock_sensitivity_by_spec() {
        assert!(WindowOp::new(WindowSpec::Range(SimDuration::from_secs(1))).needs_clock());
        assert!(WindowOp::new(WindowSpec::Tumbling(SimDuration::from_secs(1))).needs_clock());
        assert!(!WindowOp::new(WindowSpec::Rows(3)).needs_clock());
        assert!(!WindowOp::new(WindowSpec::Unbounded).needs_clock());
    }

    /// Move `query`'s cursors from `from` to `to`, a log of the same
    /// source: the rows `to` lacks, then detach, back-fill, attach at the
    /// positions — what a migration does. Returns the rows back-filled.
    fn move_cursors(from: &mut SourceLog, to: Option<&mut SourceLog>, query: QueryId) -> u64 {
        let floor = to.as_deref().and_then(SourceLog::floor);
        let missing = from.missing(query, floor);
        let at = from.detach(query);
        let to = to.unwrap_or(from);
        let filled = missing.map_or(0, |(first, rows)| to.backfill(first, &rows));
        for at in at {
            to.attach(query, at, None);
        }
        filled
    }

    /// A tumbling cursor that rejoins another log mid-pane keeps its pane:
    /// the next arrival in the pane rolls nothing, and the rollover
    /// retracts exactly the rows a private window fed the same arrivals
    /// retracts — the ones it left with included.
    #[test]
    fn a_rejoined_cursor_expires_exactly_what_it_left_with() {
        let spec = WindowSpec::Tumbling(SimDuration::from_secs(10));
        let (opts, pool) = (StateOptions::columnar(), SegmentPool::default());
        let mut a = SourceLog::new(&opts, pool.clone());
        let mut private = WindowOp::new(spec);
        a.attach(QueryId(0), Position::fresh(0, spec), None);
        let mut out = DeltaBatch::new();
        let arrivals = [t(1, 3), t(1, 3), t(2, 4)];
        private.insert_batch(&arrivals, &mut out);
        feed(&mut a, &arrivals, &mut ShardMeters::default());
        let mut b = SourceLog::new(&opts, pool);
        assert_eq!(move_cursors(&mut a, Some(&mut b), QueryId(0)), 3);
        assert_eq!((a.cursors(), a.rows(), b.rows()), (0, 0, 3));
        assert_eq!(b.numbered(), a_numbered(&arrivals, 0));
        let step = |b: &mut SourceLog, private: &mut WindowOp, batch: &[Tuple]| {
            let mut out = DeltaBatch::new();
            private.insert_batch(batch, &mut out);
            let first = b.rows.next_row();
            let stepped = b.insert_batch(SourceId(0), first, batch, &mut ShardMeters::default());
            (deliver(b, stepped.unwrap()), out)
        };
        // Still pane 0: the pane index travelled, nothing rolls.
        let (got, want) = step(&mut b, &mut private, &[t(3, 9)]);
        assert_eq!(signs(&want), vec![1]);
        assert_eq!(got, vec![(QueryId(0), 0, net(&want))]);
        let mut want = DeltaBatch::new();
        private.advance(SimTime::from_secs(10), &mut want);
        let got = tick(&mut b, 10, &mut ShardMeters::default());
        assert_eq!(signs(&want), vec![-1, -1, -1, -1]);
        assert_eq!(got, vec![(QueryId(0), 0, net(&want))]);
        assert_eq!(b.rows(), 0);
    }

    fn a_numbered(tuples: &[Tuple], first: u64) -> Vec<(u64, Tuple)> {
        (first..).zip(tuples.iter().cloned()).collect()
    }

    /// A cursor moved to a log of the same source that already holds a
    /// suffix of its window gets only the rows below that log's floor, and
    /// keeps the ids the first log gave them — so whatever holds those ids
    /// (an indexed join side) needs no rebase — and emits what a private
    /// window fed the same arrivals emits.
    #[test]
    fn a_moved_cursor_keeps_the_logs_numbering() {
        let (opts, pool) = (StateOptions::columnar(), SegmentPool::default());
        let (mut a, mut b) = (
            SourceLog::new(&opts, pool.clone()),
            SourceLog::new(&opts, pool),
        );
        let mut meters = ShardMeters::default();
        let range = WindowSpec::Range(SimDuration::from_secs(60));
        a.attach(QueryId(0), Position::fresh(0, range), None);
        feed(&mut a, &[t(0, 0), t(1, 1)], &mut meters);
        a.attach(QueryId(1), Position::fresh(0, WindowSpec::Rows(3)), None);
        b.attach(QueryId(2), Position::fresh(0, WindowSpec::Rows(2)), None);
        let mut private = WindowOp::new(WindowSpec::Rows(3));
        let arrivals: Vec<Tuple> = (2..7).map(|i| t(i, i as u64)).collect();
        private.insert_batch(&arrivals, &mut DeltaBatch::new());
        for log in [&mut a, &mut b] {
            let stepped = log.insert_batch(SourceId(0), 2, &arrivals, &mut meters);
            deliver(log, stepped.unwrap());
        }
        assert_eq!((a.floor(), b.floor()), (Some(0), Some(5)));

        // Row 4 is the one row of the cursor's window below b's floor.
        assert_eq!(move_cursors(&mut a, Some(&mut b), QueryId(1)), 1);
        assert_eq!(b.numbered(), a_numbered(&arrivals[2..], 4));
        assert_eq!((b.cursors(), b.classes()), (2, 2));
        // The next arrival is row 7 and evicts row 4 — by its log id.
        let next = [t(7, 7)];
        let mut want = DeltaBatch::new();
        private.insert_batch(&next, &mut want);
        let stepped = b.insert_batch(SourceId(0), 7, &next, &mut meters).unwrap();
        let fed: Vec<(QueryId, DeltaBatch)> = b
            .fed(&stepped)
            .map(|(q, mut fed)| (q, fed.next().unwrap().1.window.clone()))
            .collect();
        b.release();
        let moved = &fed.iter().find(|f| f.0 == QueryId(1)).unwrap().1;
        assert_eq!(moved.row_ids(), Some(&[7, 4][..]));
        assert_eq!(moved.as_slice()[1], Delta::retract(t(4, 4)));
        assert_eq!(net(moved), net(&want));
        // The senior cursor is undisturbed: a still holds its rows.
        assert_eq!((a.cursors(), a.rows()), (1, 7));
        assert_eq!(b.floor(), Some(5), "b keeps what its cursors pin");
    }

    /// A log back-filled within one engine re-seals its full segments
    /// against the source's pool, which hands back the parts the donor's
    /// log sealed: the move copies only the open segment.
    #[test]
    fn a_backfilled_log_shares_the_donors_sealed_segments() {
        let (opts, pool) = (StateOptions::columnar(), SegmentPool::default());
        let (mut a, mut b) = (
            SourceLog::new(&opts, pool.clone()),
            SourceLog::new(&opts, pool.clone()),
        );
        for q in 0..2 {
            a.attach(QueryId(q), Position::fresh(0, WindowSpec::Rows(100)), None);
        }
        let rows: Vec<Tuple> = (0..80).map(|i| t(i, i as u64)).collect();
        feed(&mut a, &rows, &mut ShardMeters::default());
        let shared = pool.bytes();
        assert!(
            shared > 0 && shared == a.footprint().pooled,
            "[0, 64) sealed in a"
        );
        assert_eq!(move_cursors(&mut a, Some(&mut b), QueryId(1)), 80);
        assert_eq!(b.numbered(), a_numbered(&rows, 0));
        assert_eq!(
            b.footprint().pooled,
            a.footprint().pooled,
            "b holds a's sealed parts"
        );
        assert_eq!(pool.bytes(), shared, "charged once");
    }

    /// Two shards' logs of one source, fed its numbered batches — the
    /// second only from the batch after a query there attached, through
    /// an unbounded-only stretch that stores nothing — give a tuple one
    /// id, and hold each full segment as one copy charged to the pool.
    #[test]
    fn logs_number_rows_by_the_source_sequence_and_share_segments() {
        /// Admit the source's next `n` tuples to `logs`: tuple `i` is
        /// number `i`, stamped `i` seconds.
        fn admit(next: &mut u64, logs: &mut [&mut SourceLog], n: u64) {
            let first = *next;
            let tuples: Vec<Tuple> = (first..first + n).map(|i| t(i as i64, i)).collect();
            *next += n;
            for log in logs {
                let meters = &mut ShardMeters::default();
                let batches = log
                    .insert_batch(SourceId(0), first, &tuples, meters)
                    .unwrap();
                deliver(log, batches);
            }
        }
        let (opts, pool) = (StateOptions::columnar(), SegmentPool::default());
        let mut a = SourceLog::new(&opts, pool.clone());
        let mut b = SourceLog::new(&opts, pool.clone());
        let mut next = 0u64;
        a.attach(QueryId(0), Position::fresh(0, WindowSpec::Rows(200)), None);
        admit(&mut next, &mut [&mut a], 45);
        b.attach(QueryId(1), Position::fresh(0, WindowSpec::Unbounded), None);
        admit(&mut next, &mut [&mut a, &mut b], 7);
        assert_eq!(
            (b.rows(), b.rows.next_row()),
            (0, 45),
            "unbounded stores nothing"
        );
        b.attach(QueryId(2), Position::fresh(0, WindowSpec::Rows(200)), None);
        for _ in 0..6 {
            admit(&mut next, &mut [&mut a, &mut b], 13);
        }
        assert_eq!((a.rows(), b.rows(), next), (130, 78, 130));
        for row in 0..next {
            let held = (row >= 52).then(|| t(row as i64, row));
            assert_eq!(b.get(row), held, "row {row}");
            assert_eq!(a.get(row), Some(t(row as i64, row)), "row {row}");
        }
        // [64, 96) and [96, 128) are sealed in both, charged once; b's
        // [52, 64) started mid-segment and is its own.
        assert_eq!(pool.bytes(), a.footprint().pooled);
        assert!(b.footprint().pooled > 0 && b.footprint().pooled < a.footprint().pooled);
        // A range window that expires everything at every heartbeat
        // empties its log each time; the log resumes at the next batch's
        // number.
        let mut c = SourceLog::new(&opts, pool.clone());
        c.attach(
            QueryId(3),
            Position::fresh(0, WindowSpec::Range(SimDuration::from_secs(5))),
            None,
        );
        for _ in 0..3 {
            admit(&mut next, &mut [&mut a, &mut c], 2);
            let first = next - 2;
            assert_eq!(c.get(first), Some(t(first as i64, first)));
            let batches = c.advance(SimTime::from_secs(next + 10), &mut ShardMeters::default());
            deliver(&mut c, batches);
            assert_eq!(c.rows(), 0, "everything expired");
        }
        drop((a, b, c));
        assert_eq!(pool.bytes(), 0, "the last holder frees a segment");
    }

    /// The oracle's class key of a private window: all cursors of a log
    /// share its tail, so equal live counts are equal heads.
    fn frame_of(w: &WindowOp) -> (WindowSpec, usize, Option<u64>) {
        (w.at.spec, w.live(), w.at.pane)
    }

    fn distinct<T: PartialEq>(keys: impl Iterator<Item = T>) -> u64 {
        let mut seen = Vec::new();
        for k in keys {
            if !seen.contains(&k) {
                seen.push(k);
            }
        }
        seen.len() as u64
    }

    /// Property: cursors attached in groups (same specs, same attach
    /// point) at random points of one log receive, per batch and per
    /// heartbeat, exactly the multiset of deltas private `WindowOp`s
    /// fed the same suffixes emit (row ids differ: a private window
    /// numbers from its own first arrival) — for all four
    /// specs (degenerate `ROWS 0` and zero-width tumbling included),
    /// with batches larger than the row windows (in-batch insert/evict
    /// interleaving), several tumbling rollovers per batch, stamps that
    /// run backwards inside a batch, self-join (two-scan) taps, and
    /// detach or leave-and-rejoin (a move back onto the same log: detach,
    /// back-fill, attach at the positions) of single members at random
    /// points (the moved ones and their classmates keep matching their
    /// oracles). The log materializes one
    /// batch per distinct oracle frame per step — so a late cursor is in
    /// the senior class exactly from the step its private window's state
    /// coincides with the senior's — retains exactly the longest live
    /// suffix, and delivers in attach order.
    #[test]
    fn cursors_replay_private_windows_delta_for_delta() {
        use aspen_types::rng::seeded;
        use rand::Rng;

        let specs = [
            WindowSpec::Unbounded,
            WindowSpec::Range(SimDuration::from_secs(5)),
            WindowSpec::Range(SimDuration::from_secs(9)),
            WindowSpec::Rows(0),
            WindowSpec::Rows(1),
            WindowSpec::Rows(3),
            WindowSpec::Rows(7),
            WindowSpec::Tumbling(SimDuration::from_secs(4)),
            WindowSpec::Tumbling(SimDuration::from_secs(0)),
        ];
        let mut shared_steps = 0u64;
        let opts = StateOptions::columnar();
        for seed in crate::test_seeds(6) {
            let mut rng = seeded(0xC0_45 ^ seed);
            let mut log = new_log(&opts);
            // The oracle: one private window per cursor, attach order.
            let mut private: Vec<(QueryId, usize, WindowOp)> = Vec::new();
            let mut next_query = 0u32;
            let mut now = 0u64;
            for step in 0..160 {
                let ctx = format!("seed {seed}, step {step}");
                let mut meters = ShardMeters::default();
                let classes = distinct(private.iter().map(|p| frame_of(&p.2)));
                assert_eq!(log.classes() as u64, classes, "{ctx}");
                match rng.gen_range(0..10u32) {
                    0 | 1 => {
                        // A group of queries over the same windows,
                        // attached at the same point: one class.
                        let scans: Vec<WindowSpec> = (0..rng.gen_range(1..3usize))
                            .map(|_| specs[rng.gen_range(0..specs.len())])
                            .collect();
                        for _ in 0..rng.gen_range(1..4usize) {
                            let query = QueryId(next_query);
                            next_query += 1;
                            for (scan, &spec) in scans.iter().enumerate() {
                                log.attach(query, Position::fresh(scan, spec), None);
                                private.push((query, scan, WindowOp::with_options(spec, &opts)));
                            }
                        }
                    }
                    2 if !private.is_empty() => {
                        let query = private[rng.gen_range(0..private.len())].0;
                        if rng.gen_range(0..2u32) == 0 {
                            log.detach(query);
                            private.retain(|p| p.0 != query);
                        } else {
                            // Leave and rejoin at the same positions: the
                            // query's windows go on as if never moved, its
                            // cursors now last in attach order.
                            move_cursors(&mut log, None, query);
                            let (moved, stay) = private.drain(..).partition(|p| p.0 == query);
                            private = stay;
                            private.extend::<Vec<_>>(moved);
                        }
                    }
                    3 | 4 => {
                        now += rng.gen_range(0..6u64);
                        let got = tick(&mut log, now, &mut meters);
                        let mut want = Vec::new();
                        let mut fired = Vec::new();
                        for (q, scan, w) in &mut private {
                            let from = frame_of(w);
                            let mut out = DeltaBatch::new();
                            w.advance(SimTime::from_secs(now), &mut out);
                            if !out.is_empty() {
                                want.push((*q, *scan, net(&out)));
                                fired.push(from);
                            }
                        }
                        assert_eq!(got, want, "heartbeat {now}, {ctx}");
                        assert_eq!(
                            (meters.window_batches, meters.window_deliveries),
                            (distinct(fired.into_iter()), want.len() as u64),
                            "one expiry batch per class that expired, {ctx}"
                        );
                    }
                    _ => {
                        let batch: Vec<Tuple> = (0..rng.gen_range(0..12usize))
                            .map(|_| t(rng.gen_range(0..4i64), now + rng.gen_range(0..3u64)))
                            .collect();
                        now += rng.gen_range(0..3u64);
                        let got = feed(&mut log, &batch, &mut meters);
                        let want: Vec<_> = private
                            .iter_mut()
                            .map(|(q, scan, w)| {
                                let mut out = DeltaBatch::new();
                                w.insert_batch(&batch, &mut out);
                                (*q, *scan, net(&out))
                            })
                            .collect();
                        assert_eq!(got, want, "batch of {}, {ctx}", batch.len());
                        assert_eq!(
                            (meters.window_batches, meters.window_deliveries),
                            (classes, private.len() as u64),
                            "one batch per class, one delivery per cursor, {ctx}"
                        );
                        shared_steps += u64::from(classes < private.len() as u64);
                    }
                }
                assert_eq!(log.cursors(), private.len(), "{ctx}");
                assert_eq!(
                    log.rows(),
                    private.iter().map(|p| p.2.live()).max().unwrap_or(0),
                    "the log retains exactly the longest live suffix, {ctx}"
                );
            }
        }
        assert!(
            shared_steps > 200,
            "the run shares classes ({shared_steps})"
        );
    }

    /// A cursor attached to a warm log starts in a class of its own and
    /// falls into the senior class of its spec at a predictable step:
    /// when expiry reaches its attach row (`RANGE`), after `n` arrivals
    /// (`ROWS n`), at the next rollover (`TUMBLING`) — and from then on
    /// the log materializes one batch for both.
    #[test]
    fn late_cursors_merge_into_the_senior_class() {
        // Per step: (classes before, batches materialized, deliveries).
        fn feed(log: &mut SourceLog, tuples: &[Tuple]) -> (usize, u64, u64) {
            let (before, mut m) = (log.classes(), ShardMeters::default());
            self::feed(log, tuples, &mut m);
            (before, m.window_batches, m.window_deliveries)
        }
        let opts = StateOptions::columnar();
        // RANGE 5 s: rows at t = 0, 1, 2, then the junior attaches
        // at row 3.
        let spec = WindowSpec::Range(SimDuration::from_secs(5));
        let mut log = new_log(&opts);
        log.attach(QueryId(0), Position::fresh(0, spec), None);
        feed(&mut log, &[t(0, 0), t(1, 1), t(2, 2)]);
        log.attach(QueryId(1), Position::fresh(0, spec), None);
        assert_eq!(feed(&mut log, &[t(3, 3), t(4, 4)]), (2, 2, 2));
        let expire = |log: &mut SourceLog, secs| {
            let mut m = ShardMeters::default();
            let got = tick(log, secs, &mut m);
            let got: Vec<_> = got.into_iter().map(|(q, _, net)| (q, net.len())).collect();
            (got, m.window_batches, log.classes())
        };
        // Expiry short of the attach row: only the senior retracts.
        assert_eq!(expire(&mut log, 6), (vec![(QueryId(0), 2)], 1, 2));
        // Expiry reaches the attach row: the heads meet.
        assert_eq!(expire(&mut log, 7), (vec![(QueryId(0), 1)], 1, 1));
        // From here on one batch serves both.
        assert_eq!(
            expire(&mut log, 8),
            (vec![(QueryId(0), 1), (QueryId(1), 1)], 1, 1)
        );
        assert_eq!(feed(&mut log, &[t(5, 9)]), (1, 1, 2));

        // ROWS 3: the junior attaches to a full senior and merges
        // after exactly three arrivals — before its first eviction.
        let mut log = new_log(&opts);
        log.attach(QueryId(0), Position::fresh(0, WindowSpec::Rows(3)), None);
        feed(&mut log, &[t(0, 0), t(1, 0), t(2, 0), t(3, 0)]);
        log.attach(QueryId(1), Position::fresh(0, WindowSpec::Rows(3)), None);
        assert_eq!(feed(&mut log, &[t(4, 1), t(5, 1)]), (2, 2, 2));
        assert_eq!(feed(&mut log, &[t(6, 1)]), (2, 2, 2));
        assert_eq!(feed(&mut log, &[t(7, 1)]), (1, 1, 2));

        // TUMBLING 4 s: same pane, different heads, until the pane
        // rolls over.
        let spec = WindowSpec::Tumbling(SimDuration::from_secs(4));
        let mut log = new_log(&opts);
        log.attach(QueryId(0), Position::fresh(0, spec), None);
        feed(&mut log, &[t(0, 0), t(1, 1)]);
        log.attach(QueryId(1), Position::fresh(0, spec), None);
        assert_eq!(feed(&mut log, &[t(2, 2)]), (2, 2, 2));
        assert_eq!(feed(&mut log, &[t(3, 3), t(4, 4)]), (2, 2, 2));
        assert_eq!(feed(&mut log, &[t(5, 5)]), (1, 1, 2));
    }

    #[test]
    fn failed_delivery_still_steps_every_cursor() {
        // Three queries in one class; the middle one's delivery fails —
        // its consumer errors out before reading its share of the step.
        let mut log = new_log(&StateOptions::columnar());
        let spec = WindowSpec::Range(SimDuration::from_secs(5));
        for q in 0..3 {
            log.attach(QueryId(q), Position::fresh(0, WindowSpec::Rows(1)), None);
            log.attach(QueryId(q), Position::fresh(1, spec), None);
        }
        let mut meters = ShardMeters::default();
        let batches = step(&mut log, &[t(1, 0), t(2, 0)], &mut meters);
        let mut served = Vec::new();
        for (q, fed) in log.fed(&batches) {
            served.push(q);
            if q != QueryId(1) {
                fed.for_each(drop);
            }
        }
        log.release();
        assert_eq!(
            served,
            vec![QueryId(0), QueryId(1), QueryId(2)],
            "one failure stops no one"
        );
        // The failing consumer never drained its feed, yet its cursors
        // stepped with their classes: still two classes, two batches a
        // step, and the ROWS cursors hold one row each.
        assert_eq!((log.classes(), log.rows()), (2, 2));
        let got = feed(&mut log, &[t(3, 1)], &mut meters);
        assert_eq!((meters.window_batches, meters.window_deliveries), (4, 12));
        let rows = net(&vec![Delta::insert(t(3, 1)), Delta::retract(t(2, 0))].into());
        let range = net(&vec![Delta::insert(t(3, 1))].into());
        let want: Vec<_> = (0..3)
            .flat_map(|q| {
                [
                    (QueryId(q), 0, rows.clone()),
                    (QueryId(q), 1, range.clone()),
                ]
            })
            .collect();
        assert_eq!(got, want, "every member evicts only what it inserted");
        // Then a heartbeat: each member retracts exactly the three rows
        // it was fed — the failed one included, nothing it never saw.
        let expired = tick(&mut log, 10, &mut meters);
        let all = net(&[t(1, 0), t(2, 0), t(3, 1)]
            .map(Delta::retract)
            .into_iter()
            .collect());
        let want: Vec<_> = (0..3).map(|q| (QueryId(q), 1, all.clone())).collect();
        assert_eq!(expired, want);
        assert_eq!((meters.window_batches, meters.window_deliveries), (5, 15));
    }

    /// A window's live set by its spec's definition, recomputed from the
    /// whole arrival history: the last `n` arrivals; the arrivals the
    /// spec still `contains` at the last clock the window was advanced
    /// to; the arrivals in the pane of the latest time it has seen.
    fn live_by_definition(
        spec: WindowSpec,
        arrivals: &[Tuple],
        advanced: SimTime,
        latest: SimTime,
    ) -> Vec<Tuple> {
        let keep = |alive: &dyn Fn(&Tuple) -> bool| -> Vec<Tuple> {
            arrivals.iter().filter(|t| alive(t)).cloned().collect()
        };
        match spec {
            WindowSpec::Unbounded => arrivals.to_vec(),
            WindowSpec::Rows(n) => arrivals[arrivals.len().saturating_sub(n as usize)..].to_vec(),
            WindowSpec::Range(_) => keep(&|t| spec.contains(t.timestamp(), advanced)),
            // Zero width never rolls: one pane holds everything.
            WindowSpec::Tumbling(w) => {
                keep(&|t| w.as_micros() == 0 || spec.contains(t.timestamp(), latest))
            }
        }
    }

    /// Property: a private `WindowOp` fed random batches and heartbeats
    /// (nondecreasing stamps, repeated tuples, batches larger than the
    /// row bound, several panes per step) emits, per step, exactly the
    /// multiset difference between the declared live set after and
    /// before it, and buffers exactly the declared live set in arrival
    /// order.
    #[test]
    fn private_window_tracks_declarative_model() {
        use aspen_types::rng::seeded;
        use rand::Rng;

        let specs = [
            WindowSpec::Unbounded,
            WindowSpec::Rows(0),
            WindowSpec::Rows(3),
            WindowSpec::Range(SimDuration::from_secs(7)),
            WindowSpec::Tumbling(SimDuration::from_secs(5)),
            WindowSpec::Tumbling(SimDuration::from_secs(0)),
        ];
        for seed in crate::test_seeds(4) {
            for spec in specs {
                let mut rng = seeded(0xDEC1 ^ seed);
                let mut w = WindowOp::new(spec);
                let mut arrivals: Vec<Tuple> = Vec::new();
                let (mut now, mut advanced) = (0u64, SimTime::ZERO);
                let mut live = Vec::new();
                for step in 0..120 {
                    let ctx = format!("{spec:?}, seed {seed}, step {step}");
                    let mut out = DeltaBatch::new();
                    if rng.gen_range(0..3u32) == 0 {
                        now += rng.gen_range(0..6u64);
                        advanced = SimTime::from_secs(now);
                        w.advance(advanced, &mut out);
                    } else {
                        let batch: Vec<Tuple> = (0..rng.gen_range(0..6usize))
                            .map(|_| {
                                now += rng.gen_range(0..3u64);
                                t(rng.gen_range(0..3i64), now)
                            })
                            .collect();
                        w.insert_batch(&batch, &mut out);
                        arrivals.extend(batch);
                    }
                    let before = std::mem::replace(
                        &mut live,
                        live_by_definition(spec, &arrivals, advanced, SimTime::from_secs(now)),
                    );
                    let mut change = DeltaBatch::inserts(live.iter().cloned());
                    change.extend(before.into_iter().map(Delta::retract));
                    assert_eq!(net(&out), net(&change), "deltas, {ctx}");
                    if spec == WindowSpec::Unbounded {
                        assert_eq!(w.live(), 0, "unbounded buffers nothing, {ctx}");
                    } else {
                        assert_eq!(w.buffered(), live, "buffer, {ctx}");
                    }
                }
            }
        }
    }

    #[test]
    fn advance_is_idempotent() {
        let mut w = WindowOp::new(WindowSpec::Range(SimDuration::from_secs(5)));
        let mut out = DeltaBatch::new();
        w.insert(t(1, 0), &mut out);
        out.clear();
        w.advance(SimTime::from_secs(6), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        w.advance(SimTime::from_secs(6), &mut out);
        w.advance(SimTime::from_secs(7), &mut out);
        assert!(out.is_empty());
    }
}
