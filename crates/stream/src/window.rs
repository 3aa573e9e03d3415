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
//! **The log owns the key indexes.** An indexed join side
//! (`operators::JoinOp`) asks the log under its scan for a key index by
//! its key columns and the filters between the scan and the join (an
//! `IndexKey`); a log keeps one `state::KeyIndex` per key some side asks
//! for, and every such side is a *member* of it — a `WindowOp` keeps the
//! one its single cursor's side asks for. A step takes in the arrivals
//! from the members' lowest head on (what no member can hold is never
//! indexed), and the release drops the rows below that head, keyed off
//! the step's retractions by the member that stood lowest (a detach, and
//! a `WindowOp`, read them back off the log); a drop clears every row of
//! the bucket below that head, so none a failed read left behind stays.
//! By the prefix rule a member's live rows are exactly the index's rows
//! in `[its head, its delivered tail)`, so the side keeps only that
//! interval, and a probe walks the key's bucket oldest first, skips ids
//! below the head and stops at the tail. Between a step and its release
//! the index still holds the rows the step retracted: in a self-join the
//! left side, delivered first, probes the right's interval before the
//! step, and the right probes the left's after it. The index's *floor*
//! is one past the newest row it dropped: a side that still counts live
//! rows from below it missed a retraction, and its probe fails rather
//! than miss the match. Membership attaches and detaches with the
//! cursor; a member rejoining below the index's rows (a migrated one,
//! whose rows the back-fill brought) has the index laid out afresh over
//! the log's rows from its head. The last member out frees the index. An
//! index is charged once, to the log, however many members it serves.
//!
//! The log is a [`ColumnarDeque`] (per-column storage, measured bytes,
//! optional spill of cold segments). Expiry checks only touch the
//! always-resident timestamp column, so a spilled window never faults
//! segments in just to discover nothing expired.

use aspen_sql::expr::BoundExpr;
use aspen_types::{AspenError, QueryId, Result, SimTime, SourceId, Tuple, WindowSpec};
use columnar::{Dict, SegmentPool};

use crate::delta::{Delta, DeltaBatch};
use crate::grouped::{FilterIndex, FilterKey, Filtered};
use crate::operators::join_key;
use crate::state::{hash_of, Coded, ColumnarDeque, Footprint, KeyIndex, Lost, StateOptions};
use crate::telemetry::ShardMeters;

/// Stateful window maintenance for one scan: a log with one cursor.
#[derive(Debug)]
pub struct WindowOp {
    /// The arrivals the window still holds — exactly `[at.head, tail)`.
    rows: ColumnarDeque,
    at: Frame,
    /// The key index of the join side the scan feeds, if it feeds one.
    index: Option<LogIndex>,
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
            index: None,
        }
    }

    /// Keep the key index `key` names over the window's rows, for the one
    /// join side the scan feeds (before the first arrival).
    pub(crate) fn index_by(&mut self, key: IndexKey) {
        self.index = Some(LogIndex::new(key, self.rows.next_row()));
    }

    /// The key the window's index is by, if it keeps one.
    pub(crate) fn index_key(&self) -> Option<&IndexKey> {
        self.index.as_ref().map(|ix| &ix.key)
    }

    /// Visit the rows of bucket `hash` of the window's key index.
    pub(crate) fn walk(&self, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
        if let Some(ix) = &self.index {
            ix.walk(hash, visit);
        }
    }

    /// The floor of the window's key index (0 without one).
    pub(crate) fn index_floor(&self) -> u64 {
        self.index.as_ref().map_or(0, |ix| ix.floor)
    }

    pub fn spec(&self) -> WindowSpec {
        self.at.spec
    }

    /// Number of live (buffered) tuples.
    pub fn live(&self) -> usize {
        self.rows.len()
    }

    /// What the buffer and its key index hold (measured).
    pub fn footprint(&self) -> Footprint {
        let index = self.index.as_ref().map_or(0, |ix| ix.rows.heap_bytes());
        self.rows.footprint() + Footprint::heap(index)
    }

    /// The live tuples in arrival order.
    pub fn buffered(&self) -> Vec<Tuple> {
        self.rows.snapshot()
    }

    /// The live tuple at row id `row` (an id this window's steps
    /// emitted); a row it holds but cannot read back is [`Lost`].
    pub(crate) fn get(&self, row: u64) -> std::result::Result<Option<Tuple>, Lost> {
        self.rows.get(row)
    }

    /// Whether this window reacts to the passage of time (i.e. whether
    /// `advance` can ever emit retractions). The engine uses this to
    /// route heartbeats only to clock-sensitive pipelines.
    pub fn needs_clock(&self) -> bool {
        matches!(self.at.spec, WindowSpec::Range(_) | WindowSpec::Tumbling(_))
    }

    /// Ingest a whole source batch; appends the step's net deltas (the
    /// surviving insertions plus any eager retractions) to `out`. A row
    /// the window cannot read back (its spill file lost) has no
    /// retraction, and the loss shows only in the footprint's read
    /// failures; the engine steps with `WindowOp::try_insert_batch`.
    pub fn insert_batch(&mut self, tuples: &[Tuple], out: &mut DeltaBatch) {
        let _lost = self.step_batch(tuples, out);
    }

    /// [`WindowOp::insert_batch`] over a batch of source `src`: an
    /// `execution` error names the rows it could not read back (the step
    /// is taken all the same).
    pub(crate) fn try_insert_batch(
        &mut self,
        src: SourceId,
        tuples: &[Tuple],
        out: &mut DeltaBatch,
    ) -> Result<()> {
        self.step_batch(tuples, out).map_err(|lost| lost.error(src))
    }

    fn step_batch(&mut self, tuples: &[Tuple], out: &mut DeltaBatch) -> Step {
        let tail = self.rows.next_row();
        if self.at.pins() {
            for t in tuples {
                self.rows.push_back(t);
            }
        }
        let stepped = self.at.insert_batch(&self.rows, tail, tuples, out);
        if let Some(ix) = &mut self.index {
            ix.append(tail, tuples, self.at.head);
        }
        step_of(Lost::and(stepped.err(), self.release()))
    }

    /// Drop the rows below the head, from the index first (their keys
    /// read off the buffer, which still holds them): the one side the
    /// index serves reads its own retractions off the deltas. The rows
    /// whose keys could not be read back, if any.
    fn release(&mut self) -> Option<Lost> {
        let lost = self
            .index
            .as_mut()
            .and_then(|ix| ix.prune(&self.rows, None, self.at.head));
        self.rows.release_below(self.at.head);
        lost
    }

    /// Ingest one inserted tuple; appends the deltas to propagate to
    /// `out`.
    pub fn insert(&mut self, tuple: Tuple, out: &mut DeltaBatch) {
        self.insert_batch(std::slice::from_ref(&tuple), out);
    }

    /// Advance the clock; appends retractions for tuples that fell out of
    /// a RANGE window (and pane rollovers for TUMBLING). Rows it cannot
    /// read back go as in [`WindowOp::insert_batch`].
    pub fn advance(&mut self, now: SimTime, out: &mut DeltaBatch) {
        let _lost = self.step_clock(now, out);
    }

    /// [`WindowOp::advance`] over source `src`'s rows, as
    /// [`WindowOp::try_insert_batch`].
    pub(crate) fn try_advance(
        &mut self,
        src: SourceId,
        now: SimTime,
        out: &mut DeltaBatch,
    ) -> Result<()> {
        self.step_clock(now, out).map_err(|lost| lost.error(src))
    }

    fn step_clock(&mut self, now: SimTime, out: &mut DeltaBatch) -> Step {
        let stepped = self.at.advance(&self.rows, now, out);
        step_of(Lost::and(stepped.err(), self.release()))
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
    /// The slot of the key index the join side the scan feeds is a
    /// member of.
    index: Option<u32>,
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

/// What an indexed join side asks the log under its scan to index: the
/// rows its filter chain (the filters between the scan and the join)
/// passes, under their join key over `cols` — normalised, and left out
/// when it holds a `NULL`, by [`crate::operators::join_key`]'s rule.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct IndexKey {
    pub(crate) cols: Vec<usize>,
    pub(crate) filters: Vec<BoundExpr>,
}

impl IndexKey {
    /// The bucket of `t`, or `None` when the side never sees it: a filter
    /// drops it (or fails on it), or its key holds a `NULL`.
    fn bucket(&self, t: &Tuple) -> Option<u64> {
        let passes = |p: &BoundExpr| p.eval_bool(t).unwrap_or(false);
        if !self.filters.iter().all(passes) {
            return None;
        }
        join_key(t, self.cols.iter().copied()).map(|key| hash_of(&key))
    }
}

/// A key index over a log's rows, one for every join side whose
/// [`IndexKey`] it is (its *members*). By the prefix rule a member's live
/// rows are the index's rows from the member's head up to its delivered
/// tail, so the index holds the rows from the members' lowest head on,
/// and a member keeps only its interval (`operators::JoinOp`).
#[derive(Debug)]
struct LogIndex {
    key: IndexKey,
    rows: KeyIndex,
    /// Every row from `lo` to the log's tail that `key` buckets is held,
    /// and none below it — except arrivals no member could hold, which
    /// are never taken in.
    lo: u64,
    /// One past the newest row dropped (0 when none is, or may be, out
    /// of the index again): no member in step with its window counts a
    /// live row below it.
    floor: u64,
}

impl LogIndex {
    fn new(key: IndexKey, lo: u64) -> Self {
        let rows = KeyIndex::default();
        LogIndex {
            key,
            rows,
            lo,
            floor: 0,
        }
    }

    /// Index the arrivals `tuples`, numbered from `first`, that a member
    /// can hold: those from row `from`, the members' lowest head, on.
    fn append(&mut self, first: u64, tuples: &[Tuple], from: u64) {
        let skip = from.saturating_sub(first) as usize;
        for (row, t) in (first..).zip(tuples).skip(skip) {
            if let Some(h) = self.key.bucket(t) {
                self.rows.insert(h, row);
            }
        }
    }

    /// Unindex the rows below `to`. `retracted` is a step's batch and the
    /// head `from` its member stood at: the batch retracts every row from
    /// there up to `to` and carries their keys. The rows below `from` (all
    /// of them, without a batch) are read back off `log`, which still
    /// holds them; the span of those it could not read back is returned
    /// (they stay indexed until a later drop from their bucket's front
    /// passes them, [`KeyIndex::pop_below`]).
    fn prune(
        &mut self,
        log: &ColumnarDeque,
        retracted: Option<(&DeltaBatch, u64)>,
        to: u64,
    ) -> Option<Lost> {
        let mut lost = None;
        if self.rows.len() > 0 && self.lo < to {
            let read_to = retracted.map_or(to, |(_, from)| from.clamp(self.lo, to));
            lost = log.for_each_in(self.lo, read_to, |_, t| self.unindex(&t, to));
            if let Some((batch, _)) = retracted {
                let ids = batch.row_ids().unwrap_or_default();
                for (d, &row) in batch.iter().zip(ids) {
                    if d.sign < 0 && (read_to..to).contains(&row) {
                        self.unindex(&d.tuple, to);
                    }
                }
            }
        }
        self.lo = self.lo.max(to);
        lost
    }

    /// Drop the rows below `to` off the front of `t`'s bucket.
    fn unindex(&mut self, t: &Tuple, to: u64) {
        if let Some(row) = self.key.bucket(t).and_then(|h| self.rows.pop_below(h, to)) {
            self.floor = self.floor.max(row + 1);
        }
    }

    /// Visit the rows of bucket `hash`, oldest first, until `visit`
    /// returns `false`.
    fn walk(&self, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
        for row in self.rows.rows(hash) {
            if !visit(row) {
                return;
            }
        }
    }

    /// Lay the index out afresh over `log`'s rows from `head`, below the
    /// rows held, on — for a member rejoining there. Dropped rows from
    /// `head` on are back, and which below it were dropped is not known:
    /// a floor above `head` falls to 0. (A side's head may sit below its
    /// cursor's — past rows it never saw, which no index takes in — so the
    /// cursor's head is no floor.) The span of the rows it could not read
    /// back, which it could not take in.
    fn rebuild(&mut self, log: &ColumnarDeque, head: u64) -> Option<Lost> {
        let (key, mut rows) = (&self.key, KeyIndex::default());
        let lost = log.for_each_in(head, log.next_row(), |row, t| {
            if let Some(h) = key.bucket(&t) {
                rows.insert(h, row);
            }
        });
        self.rows = rows;
        self.lo = head;
        if self.floor > head {
            self.floor = 0;
        }
        lost
    }
}

/// One log step's output: a batch per cursor class, per cursor what the
/// log's filter index made of its class's batch, per key index whose
/// batch keys its release, and the rows the step could not read back.
#[derive(Debug)]
pub(crate) struct Stepped {
    batches: Vec<DeltaBatch>,
    /// By cursor position; empty when the log groups no filter.
    filtered: Vec<Option<Filtered>>,
    lowest: Lowest,
    lost: Option<Lost>,
}

impl Stepped {
    /// An `execution` error naming the rows of source `src` the step
    /// could not read back (their retractions are missing), if any.
    pub(crate) fn read(&self, src: SourceId) -> Result<()> {
        self.lost.map_or(Ok(()), |lost| Err(lost.error(src)))
    }
}

/// By key index slot: the class of the member that stood lowest before a
/// step (before it, its position among the cursors), and its head then —
/// its batch retracts every row the index drops from there.
type Lowest = Vec<Option<(usize, u64)>>;

/// What a log step feeds one cursor's scan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Fed<'a> {
    /// The class batch: the deltas the scan's window emitted.
    pub(crate) window: &'a DeltaBatch,
    /// When the log groups the scan's leading filter and `window` is not
    /// empty: that filter's output on it.
    pub(crate) filtered: Option<&'a Filtered>,
}

impl Lost {
    /// The error of a window step over source `src` that could not read
    /// these rows back.
    fn error(self, src: SourceId) -> AspenError {
        self.unread(
            format_args!("{src:?}: window"),
            "their retractions are missing",
        )
    }

    /// The error of a join probe that could not read these rows of
    /// source `src`'s log (or of a scan's window over it) back.
    pub(crate) fn probe_error(self, src: SourceId) -> AspenError {
        self.unread(format_args!("{src:?}: log"), "a join probe cannot see them")
    }
}

/// The live rows `[lo, hi)` of a log, `(row id, tuple)` in arrival order
/// (empty, and no segment touched, when `lo >= hi`), and the span of
/// those it could not read back.
fn range(rows: &ColumnarDeque, lo: u64, hi: u64) -> (Vec<(u64, Tuple)>, Option<Lost>) {
    let mut out = Vec::new();
    let lost = (lo < hi)
        .then(|| rows.for_each_in(lo, hi, |row, t| out.push((row, t))))
        .flatten();
    (out, lost)
}

/// A step over rows it could not all read: `Err` with their span.
type Step = std::result::Result<(), Lost>;

fn step_of(lost: Option<Lost>) -> Step {
    lost.map_or(Ok(()), Err)
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
    /// in arrival order. A row to retract that cannot be read back is
    /// passed over and reported; the frame moves all the same.
    fn insert_batch(
        &mut self,
        rows: &ColumnarDeque,
        tail: u64,
        tuples: &[Tuple],
        out: &mut DeltaBatch,
    ) -> Step {
        let arrivals = (tail..).zip(tuples);
        match self.spec {
            WindowSpec::Unbounded => {
                for t in tuples {
                    out.push_insert(t.clone());
                }
                Ok(())
            }
            WindowSpec::Range(_) => {
                for (row, t) in arrivals {
                    out.push_row(Delta::insert(t.clone()), row);
                }
                Ok(())
            }
            WindowSpec::Rows(n) => {
                // Where the head ends up: arrivals below it never show.
                let head = (tail + tuples.len() as u64).saturating_sub(n);
                let (evicted, lost) = range(rows, self.head, head.min(tail));
                let mut evicted = evicted.into_iter().peekable();
                for (row, t) in arrivals {
                    if row >= head {
                        out.push_row(Delta::insert(t.clone()), row);
                    }
                    while row + 1 - self.head > n {
                        if let Some((at, old)) = evicted.next_if(|(at, _)| *at == self.head) {
                            out.push_row(Delta::retract(old), at);
                        }
                        self.head += 1;
                    }
                }
                step_of(lost)
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
                let (rolled, lost) = range(rows, self.head, head.min(tail));
                for (row, old) in rolled {
                    out.push_row(Delta::retract(old), row);
                }
                for (row, t) in arrivals.filter(|(row, _)| *row >= head) {
                    out.push_row(Delta::insert(t.clone()), row);
                }
                self.head = head;
                step_of(lost)
            }
        }
    }

    /// Advance the clock against the log's retained rows: `RANGE`
    /// retracts the expired prefix, `TUMBLING` rolls only *forward* (a
    /// lagging clock never touches live rows). Rows that cannot be read
    /// back go as in [`Frame::insert_batch`].
    fn advance(&mut self, rows: &ColumnarDeque, now: SimTime, out: &mut DeltaBatch) -> Step {
        let tail = rows.next_row();
        let expired_to = match self.spec {
            WindowSpec::Range(_) => {
                // Stamps stay resident: a lost segment still expires.
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
        let (expired, lost) = range(rows, self.head, expired_to);
        for (row, old) in expired {
            out.push_row(Delta::retract(old), row);
        }
        self.head = expired_to;
        step_of(lost)
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
    /// The key indexes of the join sides over the log, by slot; the last
    /// member out empties its slot.
    indexes: Vec<Option<LogIndex>>,
    /// Rows a key index could not read back after a step or outside one
    /// (a member attaching or detaching), for the next step to report.
    unread: Option<Lost>,
}

impl SourceLog {
    /// A log sharing sealed segments through its source's engine `pool`.
    pub(crate) fn new(opts: &StateOptions, pool: SegmentPool) -> Self {
        SourceLog {
            rows: ColumnarDeque::new(opts.spill.clone()).with_pool(pool),
            cursors: Vec::new(),
            filters: FilterIndex::default(),
            indexes: Vec::new(),
            unread: None,
        }
    }

    /// Attach a cursor of `query` at `at` (a live window's rows must be
    /// here), with `filter` — its scan's leading filter, if it groups — in
    /// the log's filter index, and with `index` — the key of the join
    /// side its scan feeds, if it feeds one — a member of that key's
    /// index, which takes in the ids the position carries. Returns the
    /// index's slot. A query attaches its scans of a source back to back,
    /// in scan order.
    pub(crate) fn attach(
        &mut self,
        query: QueryId,
        at: Position,
        filter: Option<&FilterKey>,
        index: Option<&IndexKey>,
    ) -> Option<u32> {
        let Position { scan, mut at, live } = at;
        if at.pins() && !live {
            at.head = self.rows.next_row();
        }
        let held = !at.pins() || self.floor().is_none_or(|f| f <= at.head);
        assert!(held, "a cursor rejoins a log at a row it holds");
        if let Some(key) = filter {
            self.filters.insert(key, self.cursors.len() as u32);
        }
        let slot = index.map(|key| self.join(key, at));
        self.cursors.push(Cursor {
            query,
            scan,
            at,
            class: 0,
            index: slot,
        });
        slot
    }

    /// Make a member of `key`'s index (a new one, if no side asks for it
    /// yet) that joins at `at`, whose rows the log holds; returns its slot.
    fn join(&mut self, key: &IndexKey, at: Frame) -> u32 {
        let same = |ix: &Option<LogIndex>| ix.as_ref().is_some_and(|ix| ix.key == *key);
        let slot = match self.indexes.iter().position(same) {
            Some(slot) => slot,
            None => {
                let fresh = Some(LogIndex::new(key.clone(), self.rows.next_row()));
                match self.indexes.iter().position(Option::is_none) {
                    Some(free) => {
                        self.indexes[free] = fresh;
                        free
                    }
                    None => {
                        self.indexes.push(fresh);
                        self.indexes.len() - 1
                    }
                }
            }
        };
        let ix = self.indexes[slot].as_mut().expect("filled above");
        if at.pins() && at.head < ix.lo {
            let lost = ix.rebuild(&self.rows, at.head);
            self.unread = Lost::and(self.unread, lost);
        }
        slot as u32
    }

    /// Drop the cursors of `query`, their filters from the filter index
    /// and their memberships from the key indexes, and return where they
    /// stood; rows only they pinned are released, and the last member of
    /// a key index frees it.
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
        for slot in 0..self.indexes.len() {
            if self.members(slot as u32) == 0 {
                self.indexes[slot] = None;
            }
        }
        self.release(None);
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
        let tuples = || range(&self.rows, lo, hi).0.into_iter().map(|(_, t)| t);
        (lo < hi).then(|| (lo, tuples().collect()))
    }

    /// Take in, and count, the rows numbered from `first` below those this
    /// log holds; it is rebuilt once, so full segments re-seal against the
    /// source's pool, which hands back the parts another log sealed. The
    /// rows' text is coded again in `dict`, the source's dictionary.
    pub(crate) fn backfill(&mut self, first: u64, rows: &[Tuple], dict: &mut Dict) -> u64 {
        let (tail, floor) = (self.rows.next_row(), self.floor());
        let below = floor.map_or(rows.len(), |f| f.saturating_sub(first) as usize);
        let below = &rows[..below.min(rows.len())];
        if below.is_empty() {
            return 0;
        }
        let end = first + below.len() as u64;
        // An empty log's pinning heads sit at its (maybe stale) tail: their
        // windows stay empty, and so do its key indexes, from `end` on.
        for c in self.cursors.iter_mut().filter(|c| c.at.pins()) {
            c.at.head = c.at.head.max(end);
        }
        for ix in self.indexes.iter_mut().flatten() {
            ix.lo = ix.lo.max(end);
        }
        let held: Vec<Tuple> = range(&self.rows, end, tail)
            .0
            .into_iter()
            .map(|(_, t)| t)
            .collect();
        self.rows.release_below(tail);
        self.rows.resume_at(first);
        for (first, rows) in [(first, below), (end, &held)] {
            let text = Coded::intern(dict, first, rows, false);
            self.rows.push_coded(first, rows, text.as_ref());
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
        mut step: impl FnMut(&mut Frame, &mut DeltaBatch) -> Step,
    ) -> (Vec<DeltaBatch>, Option<Lost>) {
        let mut frames: Vec<(Frame, Frame)> = Vec::new();
        let (mut batches, mut lost) = (Vec::new(), None);
        for c in cursors {
            c.class = frames
                .iter()
                .position(|(from, _)| *from == c.at)
                .unwrap_or_else(|| {
                    let (mut to, mut batch) = (c.at, DeltaBatch::new());
                    lost = Lost::and(lost, step(&mut to, &mut batch).err());
                    batches.push(batch);
                    frames.push((c.at, to));
                    frames.len() - 1
                });
            c.at = frames[c.class].1;
        }
        (batches, lost)
    }

    /// Per key index slot, the member standing lowest: its position and
    /// head.
    fn lowest_members(&self) -> Lowest {
        let slots = 0..self.indexes.len() as u32;
        let lowest = |slot| {
            let members = self.cursors.iter().enumerate();
            let members = members.filter(|(_, c)| c.index == Some(slot));
            members
                .map(|(i, c)| (i, c.at.head))
                .min_by_key(|&(_, head)| head)
        };
        slots.map(lowest).collect()
    }

    /// Step every cursor with `step` (see [`SourceLog::step_classes`]);
    /// the batches, per key index the class of the member that stood
    /// lowest with its head before the step, and the rows a step could
    /// not read back.
    fn step_all(
        &mut self,
        mut step: impl FnMut(&ColumnarDeque, &mut Frame, &mut DeltaBatch) -> Step,
    ) -> (Vec<DeltaBatch>, Lowest, Option<Lost>) {
        let lowest = self.lowest_members();
        let rows = &self.rows;
        let (batches, lost) = Self::step_classes(&mut self.cursors, |at, out| step(rows, at, out));
        let class = |(i, head): (usize, u64)| (self.cursors[i].class, head);
        let lowest = lowest.into_iter().map(|m| m.map(class)).collect();
        (batches, lowest, Lost::and(lost, self.unread.take()))
    }

    /// Probe the step's class `batches` through the filter index.
    fn probe(
        &self,
        (batches, lowest, lost): (Vec<DeltaBatch>, Lowest, Option<Lost>),
        meters: &mut ShardMeters,
    ) -> Stepped {
        let class_of = |m: u32| self.cursors[m as usize].class;
        let probes = &mut meters.filter_probes;
        let filtered = self
            .filters
            .run(self.cursors.len(), class_of, &batches, probes);
        Stepped {
            batches,
            filtered,
            lowest,
            lost,
        }
    }

    /// **Step** over one batch of source `src`, numbered from `first`,
    /// its text coded at admission as `text`: append it and move every
    /// cursor. Returns one batch per class (counted into `meters`, with
    /// one delivery per cursor), probed through the filter index, for
    /// [`SourceLog::fed`] to hand out. Every cursor has stepped when this
    /// returns, so a query whose delivery fails cannot desynchronize its
    /// class (a cursor left behind would later retract tuples it never
    /// inserted) — also when a step cannot read back rows it retracts:
    /// it passes them over, and [`Stepped::read`] names them. Rows imply
    /// a pinning cursor, routed here since: a batch not at their tail is
    /// refused.
    pub(crate) fn insert_batch(
        &mut self,
        src: SourceId,
        first: u64,
        tuples: &[Tuple],
        text: Option<&Coded>,
        meters: &mut ShardMeters,
    ) -> Result<Stepped> {
        let tail = self.rows.next_row();
        if self.rows.is_empty() {
            // Nothing held: the tail, the pinning heads (equal to it) and
            // the key indexes' floors jump to this batch's number.
            self.rows.resume_at(first);
            for c in self.cursors.iter_mut().filter(|c| c.at.pins()) {
                c.at.head = first;
            }
            for ix in self.indexes.iter_mut().flatten() {
                ix.lo = first;
            }
        } else if tail != first {
            return Err(AspenError::Execution(format!(
                "{src:?}: a batch numbered from {first} reached a log whose next row is {tail}"
            )));
        }
        if self.cursors.iter().any(|c| c.at.pins()) {
            self.rows.push_coded(first, tuples, text);
        }
        let step = self.step_all(|rows, at, out| at.insert_batch(rows, first, tuples, out));
        // Every member has stepped: the arrivals below their lowest head
        // were appended and evicted at once.
        for slot in 0..self.indexes.len() {
            let from = self.lowest_head(slot as u32);
            if let Some(ix) = &mut self.indexes[slot] {
                ix.append(first, tuples, from);
            }
        }
        meters.window_batches += step.0.len() as u64;
        meters.window_deliveries += self.cursors.len() as u64;
        Ok(self.probe(step, meters))
    }

    /// **Step** the clock of every cursor. Returns one batch of
    /// retractions per class, empty where nothing expired (only the
    /// others count into `meters`), probed through the filter index; rows
    /// it could not read back go as in [`SourceLog::insert_batch`].
    pub(crate) fn advance(&mut self, now: SimTime, meters: &mut ShardMeters) -> Stepped {
        let step = self.step_all(|rows, at, out| at.advance(rows, now, out));
        let fired = |batch: &&DeltaBatch| !batch.is_empty();
        meters.window_batches += step.0.iter().filter(fired).count() as u64;
        let fed = self.cursors.iter().map(|c| &step.0[c.class]);
        meters.window_deliveries += fed.filter(fired).count() as u64;
        self.probe(step, meters)
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
    /// release after the step in which its last cursor retracted it. A
    /// row it holds but cannot read back is [`Lost`].
    pub(crate) fn get(&self, row: u64) -> std::result::Result<Option<Tuple>, Lost> {
        self.rows.get(row)
    }

    /// Visit the rows of bucket `hash` of the key index in `slot`, oldest
    /// first, until `visit` returns `false`. Between a step and its
    /// release the index still holds the rows the step retracted, so a
    /// member that has not yet been delivered its share reads its
    /// interval before the step.
    pub(crate) fn walk(&self, slot: u32, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
        if let Some(ix) = self.indexes.get(slot as usize).and_then(Option::as_ref) {
            ix.walk(hash, visit);
        }
    }

    /// The floor of the key index in `slot`: one past the newest row it
    /// dropped.
    pub(crate) fn index_floor(&self, slot: u32) -> u64 {
        let ix = self.indexes.get(slot as usize).and_then(Option::as_ref);
        ix.map_or(0, |ix| ix.floor)
    }

    /// The cursors whose scans feed members of the key index in `slot`.
    fn member_cursors(&self, slot: u32) -> impl Iterator<Item = &Cursor> + '_ {
        self.cursors.iter().filter(move |c| c.index == Some(slot))
    }

    fn members(&self, slot: u32) -> usize {
        self.member_cursors(slot).count()
    }

    /// The lowest head of the members of the key index in `slot` (the
    /// tail, when it has none).
    fn lowest_head(&self, slot: u32) -> u64 {
        let heads = self.member_cursors(slot).map(|c| c.at.head);
        heads.min().unwrap_or_else(|| self.rows.next_row())
    }

    /// The retained rows, `(row id, tuple)` in arrival order.
    pub(crate) fn numbered(&self) -> Vec<(u64, Tuple)> {
        self.rows.numbered()
    }

    /// **Release** the rows below the minimum pinning head — once every
    /// pipeline fed by the `step` has run — and from each key index those
    /// below its members' lowest head, keyed off the step's batches (what
    /// they do not retract, and everything after a detach, off the log).
    /// Rows whose keys could not be read back go to the next step's
    /// report.
    pub(crate) fn release(&mut self, step: Option<&Stepped>) {
        for slot in 0..self.indexes.len() {
            let to = self.lowest_head(slot as u32);
            let lowest = step.and_then(|s| Some((s, s.lowest.get(slot).copied()??)));
            let retracted = lowest.map(|(s, (class, from))| (&s.batches[class], from));
            if let Some(ix) = &mut self.indexes[slot] {
                let lost = ix.prune(&self.rows, retracted, to);
                self.unread = Lost::and(self.unread, lost);
            }
        }
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

    /// The key indexes right now: `(members, bytes)` each.
    pub(crate) fn join_indexes(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        let slots = self.indexes.iter().enumerate();
        let held = slots.filter_map(|(slot, ix)| Some((slot as u32, ix.as_ref()?)));
        held.map(|(slot, ix)| (self.members(slot), ix.rows.heap_bytes()))
    }

    /// What this log references: shared segments at full size, and
    /// their share in `pooled` (charged to the source's pool), and its
    /// key indexes, each once however many members it serves.
    pub(crate) fn footprint(&self) -> Footprint {
        let indexes = self.join_indexes().map(|(_, bytes)| bytes).sum();
        self.rows.footprint() + Footprint::heap(indexes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use aspen_types::{SimDuration, Value};
    use columnar::SpillConfig;

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
        log.release(Some(&step));
        got
    }

    /// A log of its own pool, the one shard of its source.
    fn new_log(opts: &StateOptions) -> SourceLog {
        SourceLog::new(opts, SegmentPool::default())
    }

    /// Step `log` over the next batch of a source that feeds only it.
    fn step(log: &mut SourceLog, tuples: &[Tuple], meters: &mut ShardMeters) -> Stepped {
        let first = log.rows.next_row();
        log.insert_batch(SourceId(0), first, tuples, None, meters)
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
        move_members(from, to, query, None)
    }

    /// [`move_cursors`] for cursors whose scans feed join sides indexed
    /// by `index`.
    fn move_members(
        from: &mut SourceLog,
        to: Option<&mut SourceLog>,
        query: QueryId,
        index: Option<&IndexKey>,
    ) -> u64 {
        let floor = to.as_deref().and_then(SourceLog::floor);
        let missing = from.missing(query, floor);
        let at = from.detach(query);
        let to = to.unwrap_or(from);
        let filled = missing.map_or(0, |(first, rows)| {
            to.backfill(first, &rows, &mut Dict::new())
        });
        for at in at {
            to.attach(query, at, None, index);
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
        a.attach(QueryId(0), Position::fresh(0, spec), None, None);
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
            let stepped =
                b.insert_batch(SourceId(0), first, batch, None, &mut ShardMeters::default());
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
        a.attach(QueryId(0), Position::fresh(0, range), None, None);
        feed(&mut a, &[t(0, 0), t(1, 1)], &mut meters);
        a.attach(
            QueryId(1),
            Position::fresh(0, WindowSpec::Rows(3)),
            None,
            None,
        );
        b.attach(
            QueryId(2),
            Position::fresh(0, WindowSpec::Rows(2)),
            None,
            None,
        );
        let mut private = WindowOp::new(WindowSpec::Rows(3));
        let arrivals: Vec<Tuple> = (2..7).map(|i| t(i, i as u64)).collect();
        private.insert_batch(&arrivals, &mut DeltaBatch::new());
        for log in [&mut a, &mut b] {
            let stepped = log.insert_batch(SourceId(0), 2, &arrivals, None, &mut meters);
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
        let stepped = b
            .insert_batch(SourceId(0), 7, &next, None, &mut meters)
            .unwrap();
        let fed: Vec<(QueryId, DeltaBatch)> = b
            .fed(&stepped)
            .map(|(q, mut fed)| (q, fed.next().unwrap().1.window.clone()))
            .collect();
        b.release(Some(&stepped));
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
            a.attach(
                QueryId(q),
                Position::fresh(0, WindowSpec::Rows(100)),
                None,
                None,
            );
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
                    .insert_batch(SourceId(0), first, &tuples, None, meters)
                    .unwrap();
                deliver(log, batches);
            }
        }
        let (opts, pool) = (StateOptions::columnar(), SegmentPool::default());
        let mut a = SourceLog::new(&opts, pool.clone());
        let mut b = SourceLog::new(&opts, pool.clone());
        let mut next = 0u64;
        a.attach(
            QueryId(0),
            Position::fresh(0, WindowSpec::Rows(200)),
            None,
            None,
        );
        admit(&mut next, &mut [&mut a], 45);
        b.attach(
            QueryId(1),
            Position::fresh(0, WindowSpec::Unbounded),
            None,
            None,
        );
        admit(&mut next, &mut [&mut a, &mut b], 7);
        assert_eq!(
            (b.rows(), b.rows.next_row()),
            (0, 45),
            "unbounded stores nothing"
        );
        b.attach(
            QueryId(2),
            Position::fresh(0, WindowSpec::Rows(200)),
            None,
            None,
        );
        for _ in 0..6 {
            admit(&mut next, &mut [&mut a, &mut b], 13);
        }
        assert_eq!((a.rows(), b.rows(), next), (130, 78, 130));
        for row in 0..next {
            let held = (row >= 52).then(|| t(row as i64, row));
            assert_eq!(b.get(row).unwrap(), held, "row {row}");
            assert_eq!(a.get(row).unwrap(), Some(t(row as i64, row)), "row {row}");
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
            None,
        );
        for _ in 0..3 {
            admit(&mut next, &mut [&mut a, &mut c], 2);
            let first = next - 2;
            assert_eq!(c.get(first).unwrap(), Some(t(first as i64, first)));
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
                                log.attach(query, Position::fresh(scan, spec), None, None);
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
        log.attach(QueryId(0), Position::fresh(0, spec), None, None);
        feed(&mut log, &[t(0, 0), t(1, 1), t(2, 2)]);
        log.attach(QueryId(1), Position::fresh(0, spec), None, None);
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
        log.attach(
            QueryId(0),
            Position::fresh(0, WindowSpec::Rows(3)),
            None,
            None,
        );
        feed(&mut log, &[t(0, 0), t(1, 0), t(2, 0), t(3, 0)]);
        log.attach(
            QueryId(1),
            Position::fresh(0, WindowSpec::Rows(3)),
            None,
            None,
        );
        assert_eq!(feed(&mut log, &[t(4, 1), t(5, 1)]), (2, 2, 2));
        assert_eq!(feed(&mut log, &[t(6, 1)]), (2, 2, 2));
        assert_eq!(feed(&mut log, &[t(7, 1)]), (1, 1, 2));

        // TUMBLING 4 s: same pane, different heads, until the pane
        // rolls over.
        let spec = WindowSpec::Tumbling(SimDuration::from_secs(4));
        let mut log = new_log(&opts);
        log.attach(QueryId(0), Position::fresh(0, spec), None, None);
        feed(&mut log, &[t(0, 0), t(1, 1)]);
        log.attach(QueryId(1), Position::fresh(0, spec), None, None);
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
            log.attach(
                QueryId(q),
                Position::fresh(0, WindowSpec::Rows(1)),
                None,
                None,
            );
            log.attach(QueryId(q), Position::fresh(1, spec), None, None);
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
        log.release(Some(&batches));
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

    /// A key index on column 0 — of the rows above 1, when `filtered`.
    fn key(filtered: bool) -> IndexKey {
        use aspen_sql::ast::CmpOp;
        use aspen_types::DataType;
        let above_one = BoundExpr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(BoundExpr::col(0, DataType::Int)),
            right: Box::new(BoundExpr::Lit(Value::Int(1))),
        };
        IndexKey {
            cols: vec![0],
            filters: if filtered { vec![above_one] } else { vec![] },
        }
    }

    /// What `log`'s key index in `slot` holds from row `head` on in the
    /// buckets of the rows the log holds: `(hash, row)` in arrival order.
    fn held(log: &SourceLog, slot: u32, head: u64) -> Vec<(u64, u64)> {
        let Some(ix) = log.indexes[slot as usize].as_ref() else {
            return Vec::new();
        };
        let numbered = log.numbered();
        let mut hashes: Vec<u64> = numbered
            .iter()
            .filter_map(|(_, t)| ix.key.bucket(t))
            .collect();
        hashes.sort_unstable();
        hashes.dedup();
        let rows = |h| ix.rows.rows(h).map(move |row| (h, row));
        let mut held: Vec<(u64, u64)> = hashes.into_iter().flat_map(rows).collect();
        held.retain(|&(_, row)| row >= head);
        held.sort_unstable_by_key(|&(_, row)| row);
        held
    }

    /// What an index by `key` over the `numbered` rows holds from `head`.
    fn bucketed(key: &IndexKey, numbered: Vec<(u64, Tuple)>, head: u64) -> Vec<(u64, u64)> {
        let from = numbered.into_iter().filter(|(row, _)| *row >= head);
        from.filter_map(|(row, t)| Some((key.bucket(&t)?, row)))
            .collect()
    }

    /// After a release, each key index holds exactly the rows its key
    /// buckets from its members' lowest head on; and each member reads
    /// exactly its private twin's live rows — the index's rows from its
    /// cursor's head.
    fn check_members(log: &SourceLog, twins: &[(QueryId, IndexKey, &WindowOp)], ctx: &str) {
        for (query, key, twin) in twins {
            let c = log.cursors.iter().find(|c| c.query == *query).unwrap();
            let slot = c.index.expect("a member");
            let mine = held(log, slot, c.at.head);
            assert_eq!(
                mine,
                bucketed(key, twin.rows.numbered(), 0),
                "{query:?}, {ctx}"
            );
            let lowest = log.lowest_head(slot);
            let all = bucketed(key, log.numbered(), lowest);
            assert_eq!(held(log, slot, 0), all, "index {slot}, {ctx}");
            let ix = log.indexes[slot as usize].as_ref().unwrap();
            assert_eq!(ix.rows.len(), all.len(), "nothing else, {ctx}");
        }
    }

    /// Members over one source and key — `ROWS 3`, `ROWS 50`, `RANGE` —
    /// fed 20-row batches (so `ROWS 3` appends and evicts inside a step)
    /// and heartbeats, beside a filtered member kept in an index of its
    /// own: one slot per key, every member reads its own window.
    #[test]
    fn members_over_one_key_read_their_own_windows() {
        use aspen_types::rng::seeded;
        use rand::Rng;

        let specs = [
            WindowSpec::Rows(3),
            WindowSpec::Rows(50),
            WindowSpec::Range(SimDuration::from_secs(9)),
            WindowSpec::Rows(50),
        ];
        for seed in crate::test_seeds(3) {
            let mut rng = seeded(0x1D_E5 ^ seed);
            let mut log = new_log(&StateOptions::columnar());
            let mut twins = Vec::new();
            let mut slots = Vec::new();
            for (q, spec) in specs.into_iter().enumerate() {
                let k = key(q == 3);
                let at = Position::fresh(0, spec);
                slots.push(log.attach(QueryId(q as u32), at, None, Some(&k)).unwrap());
                twins.push((QueryId(q as u32), k, WindowOp::new(spec)));
            }
            assert_eq!(slots, vec![0, 0, 0, 1], "one index per key");
            let members: Vec<usize> = log.join_indexes().map(|(m, _)| m).collect();
            assert_eq!(members, vec![3, 1]);
            let mut now = 0;
            for step in 0..60 {
                let ctx = format!("seed {seed}, step {step}");
                if rng.gen_range(0..4u32) == 0 {
                    now += rng.gen_range(0..8u64);
                    tick(&mut log, now, &mut ShardMeters::default());
                    for (_, _, w) in &mut twins {
                        w.advance(SimTime::from_secs(now), &mut DeltaBatch::new());
                    }
                } else {
                    let batch: Vec<Tuple> = (0..20)
                        .map(|_| t(rng.gen_range(0..5i64), now + rng.gen_range(0..2u64)))
                        .collect();
                    now += 1;
                    feed(&mut log, &batch, &mut ShardMeters::default());
                    for (_, _, w) in &mut twins {
                        w.insert_batch(&batch, &mut DeltaBatch::new());
                    }
                }
                let view: Vec<_> = twins.iter().map(|(q, k, w)| (*q, k.clone(), w)).collect();
                check_members(&log, &view, &ctx);
            }
        }
    }

    /// The rows of one log, as a join whose two sides are members of
    /// the log's index in `slot` reads them.
    struct Members<'a>(&'a SourceLog, u32);

    impl crate::operators::Rows for Members<'_> {
        fn get(&self, _: usize, row: u64) -> Result<Option<Tuple>> {
            Ok(self.0.get(row).expect("the log is resident"))
        }

        fn walk(&self, _: usize, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
            self.0.walk(self.1, hash, visit)
        }

        fn index_floor(&self, _: usize) -> u64 {
            self.0.index_floor(self.1)
        }
    }

    /// A self-join on one log, both sides members of one index: each
    /// step delivers the left scan's batch first, which probes the right
    /// side's interval as it was before the step — the rows the right
    /// retracts in this step included — and then the right's, which
    /// probes the left's after it. The accumulated output is the join of
    /// the two private windows after every step.
    #[test]
    fn a_self_join_probes_each_side_at_its_turn() {
        use crate::operators::{DeltaOp, JoinOp};
        use aspen_types::rng::seeded;
        use rand::Rng;

        let specs = [
            WindowSpec::Range(SimDuration::from_secs(4)),
            WindowSpec::Rows(7),
        ];
        for seed in crate::test_seeds(3) {
            let mut rng = seeded(0x5E_1F ^ seed);
            let mut log = new_log(&StateOptions::columnar());
            let k = key(false);
            let slot = log.attach(QueryId(0), Position::fresh(0, specs[0]), None, Some(&k));
            let right = log.attach(QueryId(0), Position::fresh(1, specs[1]), None, Some(&k));
            assert_eq!((slot, right), (Some(0), Some(0)));
            let mut join = JoinOp::over_scans(
                vec![(0, 0)],
                None,
                &StateOptions::default(),
                [Some(0), Some(1)],
            );
            let mut twins = specs.map(WindowOp::new);
            let mut out = DeltaBatch::new();
            let mut now = 0;
            for at in 0..80 {
                let stepped = if rng.gen_range(0..3u32) == 0 {
                    now += rng.gen_range(0..4u64);
                    for w in &mut twins {
                        w.advance(SimTime::from_secs(now), &mut DeltaBatch::new());
                    }
                    log.advance(SimTime::from_secs(now), &mut ShardMeters::default())
                } else {
                    let batch: Vec<Tuple> = (0..rng.gen_range(1..20usize))
                        .map(|_| t(rng.gen_range(0..4i64), now))
                        .collect();
                    now += rng.gen_range(0..2u64);
                    for w in &mut twins {
                        w.insert_batch(&batch, &mut DeltaBatch::new());
                    }
                    step(&mut log, &batch, &mut ShardMeters::default())
                };
                let rows = Members(&log, 0);
                for (_, fed) in log.fed(&stepped) {
                    for (scan, fed) in fed {
                        out.extend(join.process_rows(scan, fed.window, &rows).unwrap());
                    }
                }
                log.release(Some(&stepped));
                let (l, r) = (twins[0].buffered(), twins[1].buffered());
                let meet = |a: &Tuple, b: &Tuple| a.get(0) == b.get(0);
                let pairs = l.iter().flat_map(|a| {
                    let r = r.iter().filter(move |b| meet(a, b));
                    r.map(move |b| a.join(b))
                });
                let want = net(&DeltaBatch::inserts(pairs));
                assert_eq!(net(&out), want, "seed {seed}, step {at}");
            }
        }
    }

    /// However many members an index serves, it costs one index's
    /// bytes; a member leaving keeps the index for the rest, and the last
    /// one out frees it.
    #[test]
    fn members_share_one_index_and_the_last_frees_it() {
        let opts = StateOptions::columnar();
        let (mut one, mut three) = (new_log(&opts), new_log(&opts));
        let k = key(false);
        let spec = WindowSpec::Rows(50);
        one.attach(QueryId(0), Position::fresh(0, spec), None, Some(&k));
        for q in 0..3 {
            three.attach(QueryId(q), Position::fresh(0, spec), None, Some(&k));
        }
        // A cursor that is no member keeps the log itself alive.
        three.attach(QueryId(9), Position::fresh(0, spec), None, None);
        let rows: Vec<Tuple> = (0..120).map(|i| t(i % 13, i as u64)).collect();
        for batch in rows.chunks(20) {
            feed(&mut one, batch, &mut ShardMeters::default());
            feed(&mut three, batch, &mut ShardMeters::default());
        }
        let bytes = |log: &SourceLog| log.join_indexes().map(|(_, b)| b).sum::<usize>();
        assert!(bytes(&one) > 0);
        assert_eq!(bytes(&three), bytes(&one), "three members, one index");
        assert_eq!(three.join_indexes().next(), Some((3, bytes(&one))));
        three.detach(QueryId(1));
        assert_eq!(three.join_indexes().next(), Some((2, bytes(&one))));
        three.detach(QueryId(0));
        three.detach(QueryId(2));
        assert_eq!(three.join_indexes().count(), 0);
        assert_eq!(
            three.footprint(),
            three.rows.footprint(),
            "the index holds 0 B"
        );
        // A new member starts a new index in the freed slot, at the tail.
        assert_eq!(
            three.attach(QueryId(4), Position::fresh(0, spec), None, Some(&k)),
            Some(0)
        );
        assert_eq!(three.join_indexes().next(), Some((1, 0)));
    }

    /// A member leaves and rejoins a log of its source on another shard:
    /// one whose index by its key starts above the member's head (it is
    /// laid out afresh from there, over the rows the back-fill brought),
    /// then one that keeps no such index (it starts one there). Either
    /// way it reads its private twin's rows, and so do the members
    /// already there.
    #[test]
    fn a_moved_member_brings_its_rows_to_the_index() {
        let (opts, pool) = (StateOptions::columnar(), SegmentPool::default());
        let mut logs = [0, 1, 2].map(|_| SourceLog::new(&opts, pool.clone()));
        let k = key(false);
        let (mover, short, plain) = (QueryId(0), QueryId(1), QueryId(2));
        let mut twins = [
            WindowOp::new(WindowSpec::Rows(40)),
            WindowOp::new(WindowSpec::Rows(3)),
        ];
        logs[0].attach(
            mover,
            Position::fresh(0, WindowSpec::Rows(40)),
            None,
            Some(&k),
        );
        logs[1].attach(
            short,
            Position::fresh(0, WindowSpec::Rows(3)),
            None,
            Some(&k),
        );
        logs[2].attach(plain, Position::fresh(0, WindowSpec::Rows(5)), None, None);
        let mut next = 0u64;
        let mut admit = |logs: &mut [SourceLog; 3], twins: &mut [WindowOp; 2], n: u64| {
            let tuples: Vec<Tuple> = (next..next + n).map(|i| t(i as i64 % 7, i)).collect();
            for log in logs.iter_mut() {
                let stepped = log.insert_batch(
                    SourceId(0),
                    next,
                    &tuples,
                    None,
                    &mut ShardMeters::default(),
                );
                deliver(log, stepped.unwrap());
            }
            for w in twins.iter_mut() {
                w.insert_batch(&tuples, &mut DeltaBatch::new());
            }
            next += n;
        };
        admit(&mut logs, &mut twins, 30);
        let [a, b, _] = &mut logs;
        assert!(b.join_indexes().next().unwrap().1 > 0);
        assert!(move_members(a, Some(b), mover, Some(&k)) > 0);
        assert_eq!(b.join_indexes().next().map(|(m, _)| m), Some(2));
        fn view<'a>(
            k: &IndexKey,
            twins: &'a [WindowOp; 2],
        ) -> Vec<(QueryId, IndexKey, &'a WindowOp)> {
            vec![
                (QueryId(0), k.clone(), &twins[0]),
                (QueryId(1), k.clone(), &twins[1]),
            ]
        }
        check_members(b, &view(&k, &twins)[..], "merged into b");
        admit(&mut logs, &mut twins, 25);
        let [_, b, c] = &mut logs;
        check_members(b, &view(&k, &twins)[..], "b, stepped");
        move_members(b, Some(c), mover, Some(&k));
        assert_eq!(b.join_indexes().next().map(|(m, _)| m), Some(1));
        check_members(c, &view(&k, &twins)[..1], "started on c");
        admit(&mut logs, &mut twins, 12);
        check_members(&logs[2], &view(&k, &twins)[..1], "c, stepped");
        check_members(&logs[1], &view(&k, &twins)[1..], "b, without the mover");
    }

    /// Step `log` over `tuples` and deliver only `scans`' batches to the
    /// join over scans 0 and 1, both members of the index in slot 0; the
    /// deltas it emitted.
    fn join_step(
        log: &mut SourceLog,
        join: &mut crate::operators::JoinOp,
        tuples: &[Tuple],
        scans: &[usize],
    ) -> Result<DeltaBatch> {
        use crate::operators::DeltaOp;
        let stepped = step(log, tuples, &mut ShardMeters::default());
        let mut ran = Ok(DeltaBatch::new());
        let rows = Members(log, 0);
        for (_, fed) in log.fed(&stepped) {
            for (scan, fed) in fed.filter(|(scan, _)| scans.contains(scan)) {
                let out = join.process_rows(scan, fed.window, &rows);
                ran = ran.and_then(|mut all| {
                    all.extend(out?);
                    Ok(all)
                });
            }
        }
        log.release(Some(&stepped));
        ran
    }

    /// A side that misses a step of its window still counts the rows the
    /// step evicted, which the shared index drops at the release (no
    /// member holds them any more): the next probe of that side fails
    /// instead of missing the match.
    #[test]
    fn a_member_that_missed_a_step_fails_the_next_probe() {
        let mut log = new_log(&StateOptions::columnar());
        let k = key(false);
        for scan in 0..2 {
            let at = Position::fresh(scan, WindowSpec::Rows(2));
            log.attach(QueryId(0), at, None, Some(&k));
        }
        let opts = StateOptions::default();
        let both = [Some(0), Some(1)];
        let mut join = crate::operators::JoinOp::over_scans(vec![(0, 0)], None, &opts, both);
        join_step(&mut log, &mut join, &[t(1, 0), t(2, 0)], &[0, 1]).unwrap();
        // The left window evicts row 0 (key 1); its side never hears.
        join_step(&mut log, &mut join, &[t(3, 1)], &[1]).unwrap();
        assert_eq!(log.index_floor(0), 1);
        let err = join_step(&mut log, &mut join, &[t(1, 2)], &[1]).unwrap_err();
        assert_eq!(err.kind(), "execution", "{err}");
    }

    /// A side's head may sit below its cursor's, past rows with a `NULL`
    /// key that it never saw and no index holds. Moved to a log whose index
    /// is laid out afresh from the cursor's head, it probes and is probed
    /// as before, and the join goes on matching its private twins.
    #[test]
    fn a_moved_side_behind_its_cursor_still_probes() {
        let opts = StateOptions::columnar();
        let (mut a, mut b) = (new_log(&opts), new_log(&opts));
        let k = key(false);
        let specs = [WindowSpec::Rows(2), WindowSpec::Rows(3)];
        for (scan, spec) in specs.into_iter().enumerate() {
            a.attach(QueryId(0), Position::fresh(scan, spec), None, Some(&k));
        }
        let both = [Some(0), Some(1)];
        let join_opts = StateOptions::default();
        let mut join = crate::operators::JoinOp::over_scans(vec![(0, 0)], None, &join_opts, both);
        let mut twins = specs.map(WindowOp::new);
        let key_of =
            |v: Option<i64>| Tuple::new(vec![v.map_or(Value::Null, Value::Int)], SimTime::ZERO);
        let mut out = DeltaBatch::new();
        let mut run = |log: &mut SourceLog, twins: &mut [WindowOp; 2], keys: &[Option<i64>]| {
            let batch: Vec<Tuple> = keys.iter().map(|&v| key_of(v)).collect();
            out.extend(join_step(log, &mut join, &batch, &[0, 1]).unwrap());
            for w in twins.iter_mut() {
                w.insert_batch(&batch, &mut DeltaBatch::new());
            }
            let (l, r) = (twins[0].buffered(), twins[1].buffered());
            let meet = |x: &Tuple, y: &Tuple| x.get(0).sql_eq(y.get(0)) == Some(true);
            let pairs = l.iter().flat_map(|x| {
                let r = r.iter().filter(move |y| meet(x, y));
                r.map(move |y| x.join(y))
            });
            assert_eq!(net(&out), net(&DeltaBatch::inserts(pairs)));
        };
        for keys in [
            &[Some(1), Some(2), None][..],
            &[Some(3)],
            &[Some(4)],
            &[Some(5)],
        ] {
            run(&mut a, &mut twins, keys);
        }
        // The right side last retracted row 1, its cursor evicted row 2;
        // the left side, delivered first, probes it before it retracts.
        let heads: Vec<u64> = a.cursors.iter().map(|c| c.at.head).collect();
        assert_eq!(heads, vec![4, 3]);
        move_members(&mut a, Some(&mut b), QueryId(0), Some(&k));
        for keys in [&[Some(3)][..], &[Some(4), Some(6)], &[None, Some(5)]] {
            run(&mut b, &mut twins, keys);
        }
    }

    /// Spill files that cannot be read hide the keys a detach drops rows
    /// by, off the log: the rows it leaves behind go with the next drop in
    /// their buckets, and the shared index ends holding exactly its
    /// members' rows.
    #[test]
    fn rows_a_failed_spill_read_leaves_in_the_index_go_later() {
        let dir = std::env::temp_dir().join(format!("aspen-log-index-{}", std::process::id()));
        let opts = StateOptions {
            spill: Some(SpillConfig::new(0, &dir)),
        };
        let mut log = new_log(&opts);
        let k = key(false);
        let (long, short, plain) = (QueryId(0), QueryId(1), QueryId(2));
        let rows = |n| WindowSpec::Rows(n);
        log.attach(long, Position::fresh(0, rows(40)), None, Some(&k));
        log.attach(short, Position::fresh(0, rows(8)), None, Some(&k));
        log.attach(plain, Position::fresh(0, rows(40)), None, None);
        let mut twin = WindowOp::new(rows(8));
        let mut next = 0i64;
        let mut admit = |log: &mut SourceLog, twin: &mut WindowOp, n: i64| {
            let batch: Vec<Tuple> = (next..next + n).map(|i| t(i % 5, i as u64)).collect();
            next += n;
            feed(log, &batch, &mut ShardMeters::default());
            twin.insert_batch(&batch, &mut DeltaBatch::new());
        };
        // Rows 32..64, the long windows' oldest, seal into a spilled
        // segment; the short window's rows sit in the resident next one.
        admit(&mut log, &mut twin, 72);
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(files.len(), 1, "a sealed segment spills");
        for f in files {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
        // The long member leaves: the keys of rows 32..64 do not read, so
        // they stay indexed until the plain cursor's leaving drops the
        // segments and the short member's retractions drop their keys.
        log.detach(long);
        assert!(log.footprint().read_failures > 0);
        let stuck = log.indexes[0].as_ref().unwrap().rows.len();
        assert!(
            stuck > 8,
            "{stuck} rows held for the 8 the short window holds"
        );
        log.detach(plain);
        for _ in 0..4 {
            admit(&mut log, &mut twin, 3);
        }
        check_members(&log, &[(short, k.clone(), &twin)], "after failed reads");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A log of one cursor under `spec` whose sealed segments all spill:
    /// 72 rows a second apart, the files of rows 0..64 then deleted.
    fn lost_log(spec: WindowSpec, dir: &std::path::Path) -> SourceLog {
        let opts = StateOptions {
            spill: Some(SpillConfig::new(0, dir)),
        };
        let mut log = new_log(&opts);
        log.attach(QueryId(0), Position::fresh(0, spec), None, None);
        let rows: Vec<Tuple> = (0..72).map(|i| t(i, i as u64)).collect();
        deliver_all(&mut log, &rows);
        for f in std::fs::read_dir(dir).unwrap() {
            std::fs::remove_file(f.unwrap().path()).unwrap();
        }
        log
    }

    fn deliver_all(log: &mut SourceLog, rows: &[Tuple]) {
        let first = log.rows.next_row();
        let step = log.insert_batch(SourceId(7), first, rows, None, &mut ShardMeters::default());
        deliver(log, step.unwrap());
    }

    /// The step names the source and the rows it could not read back in
    /// an `execution` error, counts the failed read, and delivers what it
    /// read: `want`, as a multiset.
    fn lost_rows(log: &mut SourceLog, step: Stepped, (lo, hi): (u64, u64), want: &[(Tuple, i64)]) {
        match step.read(SourceId(7)) {
            Err(AspenError::Execution(msg)) => {
                let rows = format!("SourceId(7): window rows {lo}..{hi} could not be read back");
                assert!(msg.starts_with(&rows), "{msg}");
            }
            other => panic!("expected an execution error, got {other:?}"),
        }
        assert!(log.footprint().read_failures > 0);
        let mut want = want.to_vec();
        want.sort_by_key(|(t, _)| (t.values().to_vec(), t.timestamp()));
        assert_eq!(deliver(log, step), vec![(QueryId(0), 0, want)]);
    }

    #[test]
    fn a_rows_window_evicting_a_lost_segment_is_an_error() {
        let dir = std::env::temp_dir().join(format!("aspen-lost-rows-{}", std::process::id()));
        let mut log = lost_log(WindowSpec::Rows(40), &dir);
        // Three arrivals evict rows 32, 33 and 34, whose file is gone: the
        // step inserts them all the same, and the log goes on from there.
        let arrivals: Vec<Tuple> = (72..75).map(|i| t(i, i as u64)).collect();
        let step = log.insert_batch(
            SourceId(7),
            72,
            &arrivals,
            None,
            &mut ShardMeters::default(),
        );
        let inserted: Vec<(Tuple, i64)> = arrivals.into_iter().map(|t| (t, 1)).collect();
        lost_rows(&mut log, step.unwrap(), (32, 35), &inserted);
        assert_eq!(log.floor(), Some(35));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_range_window_expiring_a_lost_segment_is_an_error() {
        let dir = std::env::temp_dir().join(format!("aspen-lost-range-{}", std::process::id()));
        let mut log = lost_log(WindowSpec::Range(SimDuration::from_secs(30)), &dir);
        // At 80 s the rows stamped up to 50 s expire, all of them lost.
        let step = log.advance(SimTime::from_secs(80), &mut ShardMeters::default());
        lost_rows(&mut log, step, (0, 51), &[]);
        assert_eq!(log.floor(), Some(51));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_tumbling_roll_over_a_lost_segment_is_an_error() {
        let dir = std::env::temp_dir().join(format!("aspen-lost-pane-{}", std::process::id()));
        let mut log = lost_log(WindowSpec::Tumbling(SimDuration::from_secs(100)), &dir);
        // An arrival in the next pane rolls all 72: 0..64 are lost, and
        // the resident 64..72 are retracted.
        let step = log.insert_batch(
            SourceId(7),
            72,
            &[t(0, 150)],
            None,
            &mut ShardMeters::default(),
        );
        let mut want: Vec<(Tuple, i64)> = (64..72).map(|i| (t(i, i as u64), -1)).collect();
        want.push((t(0, 150), 1));
        lost_rows(&mut log, step.unwrap(), (0, 64), &want);
        assert_eq!(log.floor(), Some(72));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
