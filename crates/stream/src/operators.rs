//! Incremental relational operators — batch-first.
//!
//! Every operator is a pure processor of signed delta *batches* over
//! private multiset state. Retractions follow exactly the same code path
//! as insertions with the sign flipped — that symmetry is what makes
//! window expiry and recursive-view deletion compose for free. Batch
//! processing amortizes per-invocation overhead (virtual dispatch, output
//! allocation, group lookups): an aggregate touched by a thousand-delta
//! batch emits one retract/insert pair per *group*, not per delta.

use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use aspen_sql::expr::{value_heap_bytes, AggColumn, BoundAgg, BoundExpr};
use aspen_types::{AspenError, DataType, Result, SimTime, Tuple, Value};
use columnar::Packed;

use crate::delta::{Delta, DeltaBatch};
use crate::state::{cap, hash_of, Footprint, KeyedState, ProbeTable, StateOptions};

/// What the pipeline's scan `scan` windows — its own window's rows, or,
/// on a shard, its source log's — as an indexed join side reads it.
pub trait Rows {
    /// The tuple at row `row`, `None` when the row is gone; an
    /// `execution` error naming the source and the row when the row is
    /// held but cannot be read back (its spill file lost or damaged).
    fn get(&self, scan: usize, row: u64) -> Result<Option<Tuple>>;

    /// Hand `visit` the rows of bucket `hash` of the key index the join
    /// side over the scan is a member of, oldest first, until it returns
    /// `false`.
    fn walk(&self, scan: usize, hash: u64, visit: &mut dyn FnMut(u64) -> bool);

    /// The floor of that key index: one past the newest row it dropped.
    fn index_floor(&self, scan: usize) -> u64;
}

/// Where the row ids of addressed batches resolve.
pub type RowSource<'a> = &'a dyn Rows;

/// No rows at all: outside a pipeline there is nothing to resolve.
struct NoRows;

impl Rows for NoRows {
    fn get(&self, _: usize, _: u64) -> Result<Option<Tuple>> {
        Ok(None)
    }

    fn walk(&self, _: usize, _: u64, _: &mut dyn FnMut(u64) -> bool) {}

    fn index_floor(&self, _: usize) -> u64 {
        0
    }
}

/// A delta-batch processor. `port` distinguishes the inputs of binary
/// operators (0 = left, 1 = right).
pub trait DeltaOp: std::fmt::Debug {
    /// Process one batch arriving on `port`; returns the output batch.
    /// Deltas must be applied in batch order (stateful operators see
    /// earlier deltas of the same batch in their state).
    fn process_batch(&mut self, port: usize, batch: &DeltaBatch) -> Result<DeltaBatch>;

    /// [`DeltaOp::process_batch`] inside a pipeline, which can resolve
    /// row ids. Only an operator that keeps ids overrides it.
    fn process_rows(
        &mut self,
        port: usize,
        batch: &DeltaBatch,
        _rows: RowSource,
    ) -> Result<DeltaBatch> {
        self.process_batch(port, batch)
    }

    /// Deltas to emit when the pipeline starts (global aggregates emit
    /// their empty-input row here).
    fn initial(&mut self) -> DeltaBatch {
        DeltaBatch::new()
    }

    /// What this operator's state occupies (nothing for a stateless
    /// operator).
    fn footprint(&self) -> Footprint {
        Footprint::default()
    }

    /// Live aggregate groups this operator keeps (0 for any other).
    fn groups(&self) -> usize {
        0
    }

    /// This operator as an aggregate, for a pipeline that reads its
    /// result off it (`None` for any other operator).
    fn aggregate(&mut self) -> Option<&mut AggregateOp> {
        None
    }

    /// This operator as a projection, for a pipeline that maps an
    /// aggregate's rows through it at read time.
    fn projection(&self) -> Option<&ProjectOp> {
        None
    }

    /// Single-delta convenience over [`DeltaOp::process_batch`], for
    /// tests and callers that genuinely have one delta in hand.
    fn process(&mut self, port: usize, delta: &Delta) -> Result<Vec<Delta>>
    where
        Self: Sized,
    {
        let batch = DeltaBatch::from(vec![delta.clone()]);
        Ok(self.process_batch(port, &batch)?.into_vec())
    }
}

// ---------------------------------------------------------------------------

/// Filter: passes deltas whose tuple satisfies the predicate. A
/// selection: with `keep_ids` — set by `Pipeline::build` when the output
/// feeds an indexed join side — survivors keep their row ids.
///
/// Every private path runs it. A `col op constant` filter directly above
/// a cursor-fed stream scan (and keeping no ids) is not run by its query,
/// though: the scan's source log evaluates it for every member of its
/// group at once ([`crate::grouped`]) and hands the query exactly this
/// operator's output, charged as if it had run.
#[derive(Debug)]
pub struct FilterOp {
    pub predicate: BoundExpr,
    pub keep_ids: bool,
}

impl DeltaOp for FilterOp {
    fn process_batch(&mut self, _port: usize, batch: &DeltaBatch) -> Result<DeltaBatch> {
        let mut out = DeltaBatch::with_capacity(batch.len());
        let ids = batch.row_ids().filter(|_| self.keep_ids);
        for (i, d) in batch.iter().enumerate() {
            if self.predicate.eval_bool(&d.tuple)? {
                match ids {
                    Some(ids) => out.push_row(d.clone(), ids[i]),
                    None => out.push(d.clone()),
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------

/// Project: maps each tuple through the expression list. An identity
/// projection — `Col { index: i }` at position `i` over an input as wide,
/// decided once at construction — forwards each delta as it came, its
/// value row shared rather than rebuilt.
#[derive(Debug)]
pub struct ProjectOp {
    pub exprs: Vec<BoundExpr>,
    identity: bool,
}

impl ProjectOp {
    /// A projection of `exprs` over an input `width` columns wide.
    pub fn new(exprs: Vec<BoundExpr>, width: usize) -> Self {
        let at =
            |(i, e): (usize, &BoundExpr)| matches!(*e, BoundExpr::Col { index, .. } if index == i);
        let identity = exprs.len() == width && exprs.iter().enumerate().all(at);
        ProjectOp { exprs, identity }
    }

    /// `tuple` mapped through the expressions, at its stamp.
    pub fn map(&self, tuple: Tuple) -> Result<Tuple> {
        if self.identity {
            return Ok(tuple);
        }
        let mut vals = Vec::with_capacity(self.exprs.len());
        for e in &self.exprs {
            vals.push(e.eval(&tuple)?);
        }
        Ok(Tuple::new(vals, tuple.timestamp()))
    }
}

impl DeltaOp for ProjectOp {
    fn process_batch(&mut self, _port: usize, batch: &DeltaBatch) -> Result<DeltaBatch> {
        if self.identity {
            return Ok(batch.iter().cloned().collect());
        }
        let mut out = DeltaBatch::with_capacity(batch.len());
        for d in batch {
            out.push(Delta {
                tuple: self.map(d.tuple.clone())?,
                sign: d.sign,
            });
        }
        Ok(out)
    }

    fn projection(&self) -> Option<&ProjectOp> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------

/// Symmetric hash join on equi-keys with an optional residual predicate
/// over the concatenated tuple. With no keys this degenerates to a
/// (windowed) cross product — both sides land in one bucket.
///
/// **Side kinds**, fixed when the operator is built. A *materialised*
/// side copies its input's live rows into a [`KeyedState`] and accepts
/// any input. An *indexed* side is fed by one stream scan's window with
/// only filters in between, so its input is addressed and its rows already
/// sit in that window or its source log — and so does their key index:
/// the log keeps one `state::KeyIndex` (`key hash → row ids`, each bucket
/// oldest first) per key columns and filter chain that some side over it
/// asks for, shared by every such side (`window::IndexKey`). By the
/// window prefix rule a side's live rows are that index's rows in
/// `[head, tail)`, so the side keeps only that interval and its live
/// count: an insertion moves `tail` past its id, a retraction moves
/// `head` past its id, and a batch that retracts every row live before
/// it moves `head` to its first insertion, past the ids its window
/// appended and evicted at once. A probe walks the key's bucket
/// through the pipeline's [`RowSource`], skips ids below `head`, stops
/// at `tail` and resolves only the ids between. The side holds no bytes:
/// its index is charged where the rows live (the log, or the query's
/// own window). A side that missed a retraction is an
/// [`AspenError::Execution`], never a missing match: a probe of a side
/// counting live rows from below its index's floor (it dropped a row the
/// side still counts), an id in the interval whose row is gone, a
/// retraction of an id outside the interval or — while the index still
/// holds it — of one that is not the oldest of its bucket from `head`,
/// and a delta without an id.
///
/// **Keys follow SQL `=`**, by the rule of `join_key` and
/// `keys_meet`: a delta whose key holds a `NULL` enters neither side
/// and matches nothing, and `Int(2)` meets `Float(2.0)`.
#[derive(Debug)]
pub struct JoinOp {
    pub keys: Vec<(usize, usize)>,
    pub residual: Option<BoundExpr>,
    sides: [Side; 2],
}

#[derive(Debug)]
enum Side {
    Materialised(Box<KeyedState>),
    /// A member of the key index over scan `scan`'s window: its live rows
    /// are the index's rows in `[head, tail)`, `live` of them. `fresh`:
    /// the first row the batch in progress inserted, and how many it did.
    Indexed {
        scan: usize,
        head: u64,
        tail: u64,
        live: usize,
        fresh: Option<(u64, usize)>,
    },
}

/// A key value's stand-in for lookup: values that are [`Value::sql_eq`]
/// normalise to equal (and equally hashed) values. A float holding an
/// integer becomes that integer — except from 2^53, where `f64` stops
/// telling integers apart and integers become floats instead. Any other
/// value stands for itself, borrowed.
pub(crate) fn norm(v: &Value) -> Cow<'_, Value> {
    const EXACT: f64 = (1u64 << 53) as f64;
    match *v {
        Value::Float(f) if f.fract() == 0.0 && f.abs() < EXACT => Cow::Owned(Value::Int(f as i64)),
        Value::Int(i) if (i as f64).abs() >= EXACT => Cow::Owned(Value::Float(i as f64)),
        _ => Cow::Borrowed(v),
    }
}

/// A tuple's join key over `cols`: each value [`norm`]alised, or `None`
/// when any is `NULL`, which `=` meets with nothing. Equal keys find a
/// pair's candidates; [`keys_meet`] decides. A pipeline's join and a
/// view branch's key this way, and the hash exchange hashes these values.
pub(crate) fn join_key(tuple: &Tuple, cols: impl IntoIterator<Item = usize>) -> Option<Vec<Value>> {
    let key = |c| Some(norm(tuple.get(c)).into_owned()).filter(|v| !v.is_null());
    cols.into_iter().map(key).collect()
}

/// Whether `l` and `r` meet under [`Value::sql_eq`] on every key pair:
/// the check after a lookup by [`join_key`], whose normalised values a
/// few unequal values share (integers from 2^53).
pub(crate) fn keys_meet(keys: &[(usize, usize)], l: &Tuple, r: &Tuple) -> bool {
    keys.iter()
        .all(|&(lc, rc)| l.get(lc).sql_eq(r.get(rc)) == Some(true))
}

impl Side {
    fn len(&self) -> usize {
        match self {
            Side::Materialised(state) => state.len(),
            Side::Indexed { live, .. } => *live,
        }
    }

    /// Apply one delta of this side's input under its join key.
    fn update(
        &mut self,
        key: &[Value],
        delta: &Delta,
        row: Option<u64>,
        rows: RowSource,
    ) -> Result<()> {
        match self {
            Side::Materialised(state) => {
                state.update(key.to_vec(), &delta.tuple, delta.sign);
            }
            Side::Indexed {
                scan,
                head,
                tail,
                live,
                fresh,
            } => {
                // Signed changes fed past a window that pins rows have
                // no row to address.
                let row = row.ok_or_else(|| dangling(*scan, "an unaddressed delta"))?;
                debug_assert_eq!(delta.sign.abs(), 1, "window steps emit unit deltas");
                if delta.sign > 0 {
                    if row < *tail {
                        let what = format_args!("an insertion of row {row} below its tail");
                        return Err(dangling(*scan, what));
                    }
                    let (first, n) = fresh.unwrap_or((row, 0));
                    *fresh = Some((first, n + 1));
                    (*tail, *live) = (row + 1, *live + 1);
                } else if *live > 0 && (*head..*tail).contains(&row) {
                    // While the index holds the row (a log drops it at
                    // its release, after the step), it is the oldest of
                    // its bucket the side holds: not one it never held,
                    // nor one whose older keymate's retraction was lost.
                    let held = row < rows.index_floor(*scan)
                        || oldest(rows, *scan, key, *head) == Some(row);
                    if !held {
                        return Err(dangling(*scan, format_args!("a retraction of row {row}")));
                    }
                    (*head, *live) = (row + 1, *live - 1);
                } else {
                    return Err(dangling(*scan, format_args!("a retraction of row {row}")));
                }
            }
        }
        Ok(())
    }

    /// End a batch. When it retracted every row live before it, the
    /// index rows between the last of those and its first insertion were
    /// appended and evicted at once (`ROWS n` under a longer batch, a
    /// `TUMBLING` rollover): the interval starts at that insertion.
    fn settle(&mut self) {
        if let Side::Indexed {
            head, live, fresh, ..
        } = self
        {
            if let Some((first, n)) = fresh.take() {
                if *live == n {
                    *head = first;
                }
            }
        }
    }

    /// The live rows under `key` with their multiplicities.
    fn get(&self, key: &[Value], rows: RowSource) -> Result<Vec<(Tuple, i64)>> {
        let (scan, head, tail, live) = match *self {
            Side::Materialised(ref state) => return Ok(state.get(key)),
            Side::Indexed {
                scan,
                head,
                tail,
                live,
                ..
            } => (scan, head, tail, live),
        };
        // The index dropped rows the side still counts as live: it
        // missed their retraction.
        let floor = rows.index_floor(scan);
        if live > 0 && head < floor {
            let what =
                format_args!("a probe of rows from {head} (its index dropped those below {floor})");
            return Err(dangling(scan, what));
        }
        let (mut found, mut failed) = (Vec::new(), None);
        rows.walk(scan, hash_of(key), &mut |row| {
            if row >= tail {
                return false;
            }
            if row >= head {
                match rows.get(scan, row) {
                    Ok(Some(t)) => found.push((t, 1)),
                    Ok(None) => {
                        failed = Some(dangling(scan, format_args!("a probe for row {row}")))
                    }
                    Err(e) => failed = Some(e),
                }
            }
            failed.is_none()
        });
        failed.map_or(Ok(found), Err)
    }
}

/// The oldest row of `key`'s bucket at or above `head` in the key index
/// the join side over scan `scan` is a member of.
fn oldest(rows: RowSource, scan: usize, key: &[Value], head: u64) -> Option<u64> {
    let mut found = None;
    rows.walk(scan, hash_of(key), &mut |row| {
        found = (row >= head).then_some(row);
        found.is_none()
    });
    found
}

/// An indexed side and its scan's window disagree about what is live.
fn dangling(scan: usize, what: impl std::fmt::Display) -> AspenError {
    AspenError::Execution(format!(
        "{what} reached the join side over scan {scan}, whose window holds no such row"
    ))
}

impl JoinOp {
    /// Resident join state (the engine default).
    pub fn new(keys: Vec<(usize, usize)>, residual: Option<BoundExpr>) -> Self {
        JoinOp::with_options(keys, residual, &StateOptions::default())
    }

    /// A join with two materialised sides.
    pub fn with_options(
        keys: Vec<(usize, usize)>,
        residual: Option<BoundExpr>,
        opts: &StateOptions,
    ) -> Self {
        JoinOp::over_scans(keys, residual, opts, [None, None])
    }

    /// A join inside a pipeline: `scans[port]` names the scan whose
    /// window feeds that port directly and addressed — an indexed side —
    /// or is `None` for any other input, a materialised side.
    pub(crate) fn over_scans(
        keys: Vec<(usize, usize)>,
        residual: Option<BoundExpr>,
        opts: &StateOptions,
        scans: [Option<usize>; 2],
    ) -> Self {
        let sides = scans.map(|scan| match scan {
            Some(scan) => Side::Indexed {
                scan,
                head: 0,
                tail: 0,
                live: 0,
                fresh: None,
            },
            None => Side::Materialised(Box::new(KeyedState::with_options(opts))),
        });
        JoinOp {
            keys,
            residual,
            sides,
        }
    }

    /// Gross state size, for memory accounting in the cost model.
    pub fn state_size(&self) -> usize {
        self.sides.iter().map(Side::len).sum()
    }
}

impl DeltaOp for JoinOp {
    fn process_batch(&mut self, port: usize, batch: &DeltaBatch) -> Result<DeltaBatch> {
        // Outside a pipeline there are no rows to resolve ids against.
        self.process_rows(port, batch, &NoRows)
    }

    fn process_rows(
        &mut self,
        port: usize,
        batch: &DeltaBatch,
        rows: RowSource,
    ) -> Result<DeltaBatch> {
        let is_left = port == 0;
        let JoinOp {
            keys,
            residual,
            sides: [left, right],
        } = self;
        let (own, other) = if is_left {
            (left, &*right)
        } else {
            (right, &*left)
        };
        let ids = batch.row_ids();
        let mut out = DeltaBatch::with_capacity(batch.len());
        let mut run = || {
            for (i, delta) in batch.iter().enumerate() {
                let cols = keys.iter().map(|&(l, r)| if is_left { l } else { r });
                let Some(key) = join_key(&delta.tuple, cols) else {
                    continue;
                };
                // Update own side's state first so self-joins on the same
                // batch behave like set-at-a-time semantics.
                own.update(&key, delta, ids.map(|ids| ids[i]), rows)?;
                for (match_tuple, mult) in other.get(&key, rows)? {
                    let (l, r) = if is_left {
                        (&delta.tuple, &match_tuple)
                    } else {
                        (&match_tuple, &delta.tuple)
                    };
                    if !keys_meet(keys, l, r) {
                        continue;
                    }
                    let joined = l.join(r);
                    if let Some(residual) = residual {
                        if !residual.eval_bool(&joined)? {
                            continue;
                        }
                    }
                    out.push(Delta {
                        tuple: joined,
                        sign: delta.sign * mult,
                    });
                }
            }
            Ok(())
        };
        let ran = run();
        own.settle();
        ran.map(|()| out)
    }

    fn footprint(&self) -> Footprint {
        let side = |side: &Side| match side {
            Side::Materialised(state) => state.footprint(),
            Side::Indexed { .. } => Footprint::default(),
        };
        self.sides.iter().map(side).sum()
    }
}

// ---------------------------------------------------------------------------

/// Grouped aggregation with full retraction support. Per batch, every
/// touched group retracts its previous output row and inserts the new
/// one — intermediate states that only existed mid-batch are never
/// emitted, which is the batch path's consolidation win.
///
/// **Emitted or read through.** [`DeltaOp::process_batch`] emits those
/// pairs. [`AggregateOp::count_batch`] settles the same groups and only
/// counts the pairs: a pipeline whose result *is* this operator's rows
/// (the aggregate at the root, alone or under one projection) reads them
/// off the slots with [`AggregateOp::shown_rows`] instead of keeping a
/// copy downstream. A read builds a slot's shown row once and keeps it
/// until a batch changes the group or frees its slot.
///
/// **Groups are slots in typed columns**: a group's key cells (one
/// `KeyColumn` a group expression), weight (gross live rows), shown
/// stamp (of the row it shows downstream, recomputed from the cells, not
/// kept) and one [`AggColumn`] cell per aggregate sit at one slot.
/// `COUNT(*)` moves by the sign exactly as the weight does, so it reads
/// the weight. `index` maps a key to its slot: a `state::ProbeTable` of
/// slot ids (the crate's one linear-probing table, load ≤ 7/8,
/// backward-shift deletion) under `key_hash`, `Value` `==` on the key
/// cells, no stored hashes (growth and deletion rehash the cells in
/// place). A global aggregate is slot 0 at capacity 1.
///
/// **Cells at the width their values need.** A key bound as `INT`,
/// `FLOAT`, `TIMESTAMP` or `BOOL` is a 64-bit word — the `i64` with its
/// sign bit flipped, `f64::to_bits`, the stamp, 0/1 — kept in a based
/// `columnar::Packed` column, which stores it at 1, 2, 4 or 8 bytes
/// against a base it moves as the keys need. Within one type `Value`
/// `==` is bit equality, so `-0.0` and `+0.0` are two groups and so are
/// two NaN payloads. The first key that is not of the bound type — a
/// `NULL`, or `Float(2.0)` under `INT` — converts that column to `Value`
/// cells, once and for good; any other key is a `Value` cell from the
/// start. The weight (zig-zagged), the free list and the index's slot
/// ids are packed columns too, each widening itself only when a value
/// needs it; the shown stamp stays 8 B, as it holds a touch position in
/// the middle of a batch. At 4 096 groups an `INT`-keyed `COUNT(*)` slot
/// costs 2 B of key, 1 of weight (below 128 rows) and 8 of stamp, and
/// 2 B an index position at load 7/16–7/8: 15 B. A `Value` key cell
/// costs 24 B plus its text.
///
/// **Death and reuse.** A group whose weight drops to zero or below
/// mid-batch is reset to fresh in place — as single-delta delivery would
/// drop it and a later delta rebuild it, so out-of-order retractions
/// leak no state. At batch end a dead group's slot goes to the free list
/// for the next new key. Bytes are measured from capacities.
#[derive(Debug)]
pub struct AggregateOp {
    pub group: Vec<BoundExpr>,
    pub aggs: Vec<BoundAgg>,
    cols: Vec<AggColumn>,
    keys: Vec<KeyColumn>,
    /// Signed, zig-zagged ([`Packed::push_i64`]).
    weight: Packed,
    /// `NONE` for no row. In a batch, a touched slot's cell is its touch
    /// position (the touch names the slot back: no stamp passes for one).
    shown: Vec<u64>,
    index: ProbeTable,
    free: Packed,
    /// What downstream still shows for the slots a failed batch touched
    /// (cells moved, nothing emitted). An entry overrides its slot's
    /// `shown` cell; the slot is not freed before the entry is spent.
    stale: HashMap<u32, (u64, Vec<Value>)>,
    /// Per slot, the shown row the last read built (mapped as that read
    /// asked), until a batch changes the group; empty unless read.
    rows: Vec<Option<Tuple>>,
    /// Output rows built, for the tests that pin when rows are built.
    #[cfg(test)]
    built: std::cell::Cell<usize>,
}

/// One group expression's key cells, a cell a slot (type docs of
/// [`AggregateOp`]). A freed slot's cell is stale and never read.
#[derive(Debug)]
enum KeyColumn {
    /// Keys of this word type, as 64-bit words packed against a base.
    Words(DataType, Packed<u64>),
    Values(Vec<Value>),
}

impl KeyColumn {
    fn of(expr: &BoundExpr) -> Self {
        use DataType::*;
        match expr.data_type() {
            Some(ty @ (Int | Float | Timestamp | Bool)) => KeyColumn::Words(ty, Packed::based()),
            _ => KeyColumn::Values(Vec::new()),
        }
    }

    /// `v`'s word in a column of type `ty`; `None` if `v` is not of it.
    /// An `INT`'s sign bit is flipped, so words order as the keys do and
    /// keys clustered around 0 pack against one base.
    fn word(ty: DataType, v: &Value) -> Option<u64> {
        match (ty, v) {
            (DataType::Int, Value::Int(i)) => Some(*i as u64 ^ SIGN),
            (DataType::Float, Value::Float(f)) => Some(f.to_bits()),
            (DataType::Timestamp, Value::Timestamp(t)) => Some(*t),
            (DataType::Bool, Value::Bool(b)) => Some(*b as u64),
            _ => None,
        }
    }

    fn value(ty: DataType, w: u64) -> Value {
        match ty {
            DataType::Int => Value::Int((w ^ SIGN) as i64),
            DataType::Float => Value::Float(f64::from_bits(w)),
            DataType::Timestamp => Value::Timestamp(w),
            _ => Value::Bool(w != 0),
        }
    }

    /// The key `slot` holds here (a word cell's `Value` is built on the
    /// stack, never the heap).
    fn cell(&self, slot: usize) -> Cow<'_, Value> {
        match self {
            KeyColumn::Words(ty, cells) => Cow::Owned(Self::value(*ty, cells.get(slot))),
            KeyColumn::Values(cells) => Cow::Borrowed(&cells[slot]),
        }
    }

    /// `cell(slot) == v`, without building the cell.
    fn holds(&self, slot: usize, v: &Value) -> bool {
        match self {
            KeyColumn::Words(ty, cells) => Self::word(*ty, v) == Some(cells.get(slot)),
            KeyColumn::Values(cells) => cells[slot] == *v,
        }
    }

    /// Store `v` at `slot`, one past the end appending it. A value not
    /// of a word column's type converts the column to `Value` cells.
    fn put(&mut self, slot: usize, v: &Value) {
        if let KeyColumn::Words(ty, cells) = self {
            if let Some(w) = Self::word(*ty, v) {
                return match slot < cells.len() {
                    true => cells.set(slot, w),
                    false => cells.push(w),
                };
            }
            let mut values = Vec::with_capacity(cells.capacity());
            values.extend(cells.iter().map(|w| Self::value(*ty, w)));
            *self = KeyColumn::Values(values);
        }
        if let KeyColumn::Values(cells) = self {
            match cells.get_mut(slot) {
                Some(cell) => *cell = v.clone(),
                None => cells.push(v.clone()),
            }
        }
    }

    /// Drop a freed slot's text.
    fn clear(&mut self, slot: usize) {
        if let KeyColumn::Values(cells) = self {
            cells[slot] = Value::Null;
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            KeyColumn::Words(_, cells) => cells.heap_bytes(),
            KeyColumn::Values(cells) => {
                cap(cells) + cells.iter().map(value_heap_bytes).sum::<usize>()
            }
        }
    }
}

/// The index hash of a key's `Value`s, cell by cell: a probe's values and
/// a slot's cells hash alike whatever column holds them.
fn key_hash(cells: impl Iterator<Item = impl Hash>) -> u64 {
    let mut h = DefaultHasher::new();
    cells.for_each(|v| v.hash(&mut h));
    h.finish()
}

/// [`key_hash`] of the key `slot` holds in `keys`.
fn slot_hash(keys: &[KeyColumn], slot: u32) -> u64 {
    key_hash(keys.iter().map(|c| c.cell(slot as usize)))
}

/// The `shown` stamp of a group that shows no row.
const NONE: u64 = u64::MAX;

/// An `i64`'s sign bit: flipped, `i64` order is `u64` order.
const SIGN: u64 = 1 << 63;

/// A touched group: the stamp it showed before the batch (the values
/// are `aggs.len()` of the batch's list at its position) and the stamp
/// of the last delta that hit it, for its new row.
struct Touch {
    slot: u32,
    shown: u64,
    last_ts: SimTime,
}

impl AggregateOp {
    pub fn new(group: Vec<BoundExpr>, aggs: Vec<BoundAgg>) -> Self {
        AggregateOp {
            cols: aggs.iter().map(AggColumn::of).collect(),
            keys: group.iter().map(KeyColumn::of).collect(),
            group,
            aggs,
            weight: Packed::new(),
            shown: Vec::new(),
            index: ProbeTable::default(),
            free: Packed::new(),
            stale: HashMap::new(),
            rows: Vec::new(),
            #[cfg(test)]
            built: std::cell::Cell::new(0),
        }
    }

    /// Groups holding rows (a global aggregate's one always, once made).
    pub fn group_count(&self) -> usize {
        let global = self.group.is_empty();
        let slots = 0..self.weight.len();
        slots
            .filter(|&s| global || self.weight.get_i64(s) > 0)
            .count()
    }

    /// The slot of `key`'s group; a new key gets a fresh one.
    fn slot(&mut self, key: &[Cow<Value>]) -> u32 {
        if self.group.is_empty() {
            if self.weight.is_empty() {
                self.weight.reserve_exact(1);
                self.shown.reserve_exact(1);
                self.cols.iter_mut().for_each(|c| c.reserve_exact(1));
                self.alloc(key);
            }
            return 0;
        }
        let h = key_hash(key.iter());
        let same = |s: u32| {
            self.keys
                .iter()
                .zip(key)
                .all(|(c, v)| c.holds(s as usize, v))
        };
        if let Some(slot) = self.index.find(h, same) {
            return slot;
        }
        let slot = self.alloc(key);
        let keys = &self.keys;
        self.index.insert(h, slot, |s| slot_hash(keys, s));
        slot
    }

    /// A slot holding `key`, every other cell fresh: a freed one if any.
    fn alloc(&mut self, key: &[Cow<Value>]) -> u32 {
        let slot = self.free.pop().map_or_else(
            || {
                self.weight.push(0);
                self.shown.push(NONE);
                self.cols.iter_mut().for_each(AggColumn::push);
                (self.weight.len() - 1) as u32
            },
            |s| s as u32,
        );
        for (col, v) in self.keys.iter_mut().zip(key) {
            col.put(slot as usize, v);
        }
        slot
    }

    /// Unindex a dead group's slot (its other cells already fresh) and
    /// free it.
    fn release(&mut self, slot: u32) {
        let keys = &self.keys;
        self.index
            .remove(slot_hash(keys, slot), slot, |s| slot_hash(keys, s));
        self.keys.iter_mut().for_each(|c| c.clear(slot as usize));
        self.shown[slot as usize] = NONE;
        self.free.push(slot as u64);
    }

    /// The aggregate values `slot` holds now.
    fn values(&self, slot: u32) -> impl Iterator<Item = Value> + '_ {
        let (s, rows) = (slot as usize, self.weight.get_i64(slot as usize));
        self.cols.iter().map(move |c| c.value(s, rows))
    }

    /// The output row of `slot` with aggregate values `aggs`, at `stamp`.
    fn row(&self, slot: u32, aggs: impl Iterator<Item = Value>, stamp: u64) -> Tuple {
        #[cfg(test)]
        self.built.set(self.built.get() + 1);
        let mut vals = Vec::with_capacity(self.group.len() + self.aggs.len());
        vals.extend(self.keys.iter().map(|c| c.cell(slot as usize).into_owned()));
        vals.extend(aggs);
        Tuple::new(vals, SimTime::from_micros(stamp))
    }

    /// Pass 1: apply every delta to its group's cells, recording touched
    /// groups in first-touch order with the values they showed in
    /// `before`, and resetting a non-global group that dies (type docs).
    fn apply(
        &mut self,
        batch: &DeltaBatch,
        touched: &mut Vec<Touch>,
        before: &mut Vec<Value>,
    ) -> Result<()> {
        // `COUNT(*)`'s input, which its column ignores.
        let one = Value::Int(1);
        let mut key = Vec::with_capacity(self.group.len());
        for delta in batch {
            key.clear();
            for g in &self.group {
                key.push(g.eval_ref(&delta.tuple)?);
            }
            let slot = self.slot(&key);
            let s = slot as usize;
            let at = self.shown[s] as usize;
            if touched.get(at).is_none_or(|t| t.slot != slot) {
                // First touch, before the delta lands: the cells still
                // say what the group shows.
                let stale = (!self.stale.is_empty()).then(|| self.stale.remove(&slot));
                let shown = match stale.flatten() {
                    Some((stamp, row)) => {
                        before.extend(row);
                        stamp
                    }
                    None => {
                        before.extend(self.values(slot));
                        self.shown[s]
                    }
                };
                self.shown[s] = touched.len() as u64;
                touched.push(Touch {
                    slot,
                    shown,
                    last_ts: SimTime::ZERO,
                });
            }
            touched[self.shown[s] as usize].last_ts = delta.tuple.timestamp();
            for _ in 0..delta.sign.unsigned_abs() {
                for (col, spec) in self.cols.iter_mut().zip(&self.aggs) {
                    let arg = spec.arg.as_ref().map(|e| e.eval_ref(&delta.tuple));
                    let v = arg.unwrap_or(Ok(Cow::Borrowed(&one)))?;
                    match delta.sign > 0 {
                        true => col.insert(s, &v)?,
                        false => col.retract(s, &v)?,
                    }
                }
            }
            let mut weight = self.weight.get_i64(s) + delta.sign;
            if weight <= 0 && !self.group.is_empty() {
                weight = 0;
                self.cols.iter_mut().for_each(|c| c.reset(s));
            }
            self.weight.set_i64(s, weight);
        }
        Ok(())
    }

    /// [`DeltaOp::process_batch`], counting the deltas it would emit
    /// instead of building them: the step of an aggregate read through.
    pub fn count_batch(&mut self, batch: &DeltaBatch) -> Result<u64> {
        Ok(self.step(batch, false)?.1)
    }

    /// [`DeltaOp::initial`], counted: open a global aggregate's group,
    /// shown at time zero.
    pub fn count_initial(&mut self) -> u64 {
        self.open().is_some() as u64
    }

    /// The row each group shows, through `map`, in slot order: a slot's
    /// row as the last read built it, or — for a group that changed since
    /// — built now from its cells at its shown stamp (from the failed-batch
    /// ledger's values, for a slot that ledger holds).
    pub fn shown_rows(&mut self, map: impl Fn(Tuple) -> Result<Tuple>) -> Result<Vec<Tuple>> {
        self.rows.resize(self.weight.len(), None);
        let mut out = Vec::with_capacity(self.weight.len() - self.free.len());
        for slot in 0..self.weight.len() {
            if self.rows[slot].is_none() {
                let Some(row) = self.shown_row(slot as u32) else {
                    continue;
                };
                self.rows[slot] = Some(map(row)?);
            }
            out.extend(self.rows[slot].clone());
        }
        Ok(out)
    }

    /// Drop the rows reads built: the result goes downstream as deltas
    /// from now on.
    pub fn forget_rows(&mut self) {
        self.rows = Vec::new();
    }

    /// The row `slot` shows downstream, if any.
    fn shown_row(&self, slot: u32) -> Option<Tuple> {
        match self.stale.get(&slot) {
            Some(&(NONE, _)) => None,
            Some((stamp, aggs)) => Some(self.row(slot, aggs.iter().cloned(), *stamp)),
            None => {
                let stamp = self.shown[slot as usize];
                (stamp != NONE).then(|| self.row(slot, self.values(slot), stamp))
            }
        }
    }

    /// A global aggregate's one group, opened: over an empty stream it
    /// still has a row (COUNT = 0, SUM = NULL, ...), shown at time zero.
    fn open(&mut self) -> Option<u32> {
        if !self.group.is_empty() {
            return None;
        }
        let slot = self.slot(&[]);
        self.shown[0] = 0;
        Some(slot)
    }

    /// Apply `batch` (pass 1), then settle every touched group (pass 2):
    /// one retract/insert pair per group whose row changed — a group that
    /// died (and stayed dead) only retracts. The pairs are built into the
    /// batch returned when `emit`, and counted either way.
    fn step(&mut self, batch: &DeltaBatch, emit: bool) -> Result<(DeltaBatch, u64)> {
        let (mut touched, mut before) = (Vec::new(), Vec::new());
        let n = self.aggs.len();
        if let Err(e) = self.apply(batch, &mut touched, &mut before) {
            for (i, t) in touched.iter().enumerate() {
                let row = before[i * n..(i + 1) * n].to_vec();
                self.stale.insert(t.slot, (t.shown, row));
            }
            return Err(e);
        }
        if self.stale.is_empty() {
            self.stale.shrink_to_fit(); // a failed batch's ledger, spent
        }

        let mut out = DeltaBatch::with_capacity(if emit { touched.len() * 2 } else { 0 });
        let mut count = 0;
        for (i, t) in touched.iter().enumerate() {
            let s = t.slot as usize;
            let alive = self.group.is_empty() || self.weight.get_i64(s) > 0;
            let now = t.last_ts.as_micros();
            let prev = &mut before[i * n..(i + 1) * n];
            let same = t.shown == now && self.values(t.slot).zip(&*prev).all(|(v, p)| v == *p);
            if !(alive && same) {
                let retract = t.shown != NONE;
                count += retract as u64 + alive as u64;
                if emit && retract {
                    let prev = prev.iter_mut().map(|v| std::mem::replace(v, Value::Null));
                    out.push_retract(self.row(t.slot, prev, t.shown));
                }
                if emit && alive {
                    out.push_insert(self.row(t.slot, self.values(t.slot), now));
                }
                if let Some(row) = self.rows.get_mut(s) {
                    *row = None;
                }
            }
            self.shown[s] = now;
            if !alive {
                self.release(t.slot);
            }
        }
        Ok((out, count))
    }
}

impl DeltaOp for AggregateOp {
    fn process_batch(&mut self, _port: usize, batch: &DeltaBatch) -> Result<DeltaBatch> {
        Ok(self.step(batch, true)?.0)
    }

    fn initial(&mut self) -> DeltaBatch {
        match self.open() {
            Some(slot) => {
                DeltaBatch::from(vec![Delta::insert(self.row(slot, self.values(slot), 0))])
            }
            None => DeltaBatch::new(),
        }
    }

    fn footprint(&self) -> Footprint {
        let text = |vs: &[Value]| vs.iter().map(value_heap_bytes).sum::<usize>();
        let keys: usize = self.keys.iter().map(KeyColumn::heap_bytes).sum();
        let slots = keys + self.weight.heap_bytes() + cap(&self.shown);
        let cols: usize = self.cols.iter().map(AggColumn::heap_bytes).sum();
        // The failed-batch ledger: an entry and a control byte a bucket.
        let bucket = std::mem::size_of::<(u32, (u64, Vec<Value>))>() + 1;
        let stale = self.stale.values().map(|(_, row)| cap(row) + text(row));
        let stale = self.stale.capacity() * bucket + stale.sum::<usize>();
        let free = self.free.heap_bytes();
        Footprint::heap(slots + self.index.heap_bytes() + free + cols + stale)
    }

    fn groups(&self) -> usize {
        self.group_count()
    }

    fn aggregate(&mut self) -> Option<&mut AggregateOp> {
        Some(self)
    }
}

// ---------------------------------------------------------------------------

/// Bag union: deltas from every port pass through unchanged — and
/// unaddressed, since ids of different scans would meet in the output.
#[derive(Debug, Default)]
pub struct UnionOp;

impl DeltaOp for UnionOp {
    fn process_batch(&mut self, _port: usize, batch: &DeltaBatch) -> Result<DeltaBatch> {
        Ok(batch.iter().cloned().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::window::{IndexKey, WindowOp};
    use aspen_sql::expr::AggFunc;
    use aspen_types::{DataType, WindowSpec};
    use rand::rngs::StdRng;
    use rand::Rng;

    fn t(vals: Vec<Value>, us: u64) -> Tuple {
        Tuple::new(vals, SimTime::from_micros(us))
    }

    #[test]
    fn filter_passes_inserts_and_retractions_symmetrically() {
        let mut f = FilterOp {
            predicate: BoundExpr::Cmp {
                op: aspen_sql::ast::CmpOp::Gt,
                left: Box::new(BoundExpr::col(0, DataType::Int)),
                right: Box::new(BoundExpr::Lit(Value::Int(5))),
            },
            keep_ids: false,
        };
        let keep = Delta::insert(t(vec![Value::Int(7)], 0));
        let drop_ = Delta::insert(t(vec![Value::Int(3)], 0));
        assert_eq!(f.process(0, &keep).unwrap().len(), 1);
        assert_eq!(f.process(0, &drop_).unwrap().len(), 0);
        let retract = keep.negate();
        let out = f.process(0, &retract).unwrap();
        assert_eq!(out[0].sign, -1);
    }

    #[test]
    fn filter_batch_keeps_only_matches() {
        let mut f = FilterOp {
            predicate: BoundExpr::Cmp {
                op: aspen_sql::ast::CmpOp::Gt,
                left: Box::new(BoundExpr::col(0, DataType::Int)),
                right: Box::new(BoundExpr::Lit(Value::Int(5))),
            },
            keep_ids: false,
        };
        let batch: DeltaBatch = (0..10i64)
            .map(|v| Delta::insert(t(vec![Value::Int(v)], 0)))
            .collect();
        let out = f.process_batch(0, &batch).unwrap();
        assert_eq!(out.len(), 4); // 6, 7, 8, 9
    }

    #[test]
    fn project_maps_values() {
        let mut p = ProjectOp::new(
            vec![
                BoundExpr::col(1, DataType::Int),
                BoundExpr::Lit(Value::Text("x".into())),
            ],
            2,
        );
        let d = Delta::insert(t(vec![Value::Int(1), Value::Int(2)], 9));
        let out = p.process(0, &d).unwrap();
        assert_eq!(
            out[0].tuple.values(),
            &[Value::Int(2), Value::Text("x".into())]
        );
        assert_eq!(out[0].tuple.timestamp(), SimTime::from_micros(9));
    }

    #[test]
    fn join_matches_and_retracts() {
        let mut j = JoinOp::new(vec![(0, 0)], None);
        // left: (1, "a")
        let l = Delta::insert(t(vec![Value::Int(1), Value::Text("a".into())], 1));
        assert!(j.process(0, &l).unwrap().is_empty());
        // right: (1, "b") → join output
        let r = Delta::insert(t(vec![Value::Int(1), Value::Text("b".into())], 2));
        let out = j.process(1, &r).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].tuple.values(),
            &[
                Value::Int(1),
                Value::Text("a".into()),
                Value::Int(1),
                Value::Text("b".into())
            ]
        );
        // retract left → retraction of the join output
        let out = j.process(0, &l.negate()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, -1);
        assert_eq!(j.state_size(), 1); // only right side remains
    }

    #[test]
    fn join_respects_multiplicities() {
        let mut j = JoinOp::new(vec![(0, 0)], None);
        let l = Delta::insert(t(vec![Value::Int(1)], 0));
        j.process(0, &l).unwrap();
        j.process(0, &l).unwrap(); // same tuple twice
        let r = Delta::insert(t(vec![Value::Int(1)], 1));
        let out = j.process(1, &r).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, 2); // joins against multiplicity-2 state
    }

    #[test]
    fn join_batch_sees_own_batch_prefix() {
        // Both sides of a self-joinable batch arrive as one batch per
        // port; the left deltas must already be in state when the right
        // side of the same push probes.
        let mut j = JoinOp::new(vec![(0, 0)], None);
        let left: DeltaBatch = DeltaBatch::inserts([
            t(vec![Value::Int(1), Value::Int(10)], 0),
            t(vec![Value::Int(1), Value::Int(11)], 0),
        ]);
        assert!(j.process_batch(0, &left).unwrap().is_empty());
        let right = DeltaBatch::inserts([t(vec![Value::Int(1), Value::Int(20)], 1)]);
        let out = j.process_batch(1, &right).unwrap();
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn join_residual_prunes() {
        // join on key, but require left col1 < right col1
        let residual = BoundExpr::Cmp {
            op: aspen_sql::ast::CmpOp::Lt,
            left: Box::new(BoundExpr::col(1, DataType::Int)),
            right: Box::new(BoundExpr::col(3, DataType::Int)),
        };
        let mut j = JoinOp::new(vec![(0, 0)], Some(residual));
        j.process(0, &Delta::insert(t(vec![Value::Int(1), Value::Int(10)], 0)))
            .unwrap();
        let pass = j
            .process(1, &Delta::insert(t(vec![Value::Int(1), Value::Int(20)], 1)))
            .unwrap();
        assert_eq!(pass.len(), 1);
        let fail = j
            .process(1, &Delta::insert(t(vec![Value::Int(1), Value::Int(5)], 2)))
            .unwrap();
        assert!(fail.is_empty());
    }

    #[test]
    fn cross_join_without_keys() {
        let mut j = JoinOp::new(vec![], None);
        j.process(0, &Delta::insert(t(vec![Value::Int(1)], 0)))
            .unwrap();
        j.process(0, &Delta::insert(t(vec![Value::Int(2)], 0)))
            .unwrap();
        let out = j
            .process(1, &Delta::insert(t(vec![Value::Int(9)], 1)))
            .unwrap();
        assert_eq!(out.len(), 2);
    }

    /// A join as a pipeline builds it over `from L [rows n], R [rows n]`:
    /// both sides indexed, each fed by its scan's window, which keeps the
    /// side's key index.
    struct Windowed {
        join: JoinOp,
        windows: [WindowOp; 2],
    }

    /// A key index over column 0, no filter.
    fn by_first_column() -> IndexKey {
        IndexKey {
            cols: vec![0],
            filters: Vec::new(),
        }
    }

    impl Rows for [WindowOp; 2] {
        fn get(&self, scan: usize, row: u64) -> Result<Option<Tuple>> {
            Ok(self[scan].get(row).expect("the windows are resident"))
        }

        fn walk(&self, scan: usize, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
            self[scan].walk(hash, visit)
        }

        fn index_floor(&self, scan: usize) -> u64 {
            self[scan].index_floor()
        }
    }

    impl Windowed {
        fn new(rows: u64) -> Self {
            let opts = StateOptions::default();
            let window = |_| {
                let mut w = WindowOp::new(WindowSpec::Rows(rows));
                w.index_by(by_first_column());
                w
            };
            Windowed {
                join: JoinOp::over_scans(vec![(0, 0)], None, &opts, [Some(0), Some(1)]),
                windows: [0, 1].map(window),
            }
        }

        /// Step `port`'s window over `tuples` and run the join on the
        /// batch; with `tell` off the join never hears of the step.
        fn push(&mut self, port: usize, tuples: &[Tuple], tell: bool) -> Result<DeltaBatch> {
            let mut batch = DeltaBatch::new();
            self.windows[port].insert_batch(tuples, &mut batch);
            if !tell {
                return Ok(batch);
            }
            self.join.process_rows(port, &batch, &self.windows)
        }
    }

    fn net_values(batch: &DeltaBatch) -> Vec<(Vec<Value>, i64)> {
        let net = batch.consolidate().into_iter();
        net.map(|(t, n)| (t.values().to_vec(), n)).collect()
    }

    /// `A(k int, v) ⋈ B(k float, w)` on `k`: SQL `=` never matches a
    /// NULL and widens numerics — under both side kinds.
    #[test]
    fn join_keys_follow_sql_equality() {
        let a = [
            t(vec![Value::Null, Value::Int(1)], 0),
            t(vec![Value::Int(2), Value::Int(2)], 0),
        ];
        let b = [
            t(vec![Value::Null, Value::Int(10)], 1),
            t(vec![Value::Float(2.0), Value::Int(20)], 1),
        ];
        let want = vec![(
            vec![
                Value::Int(2),
                Value::Int(2),
                Value::Float(2.0),
                Value::Int(20),
            ],
            1,
        )];

        let mut j = JoinOp::new(vec![(0, 0)], None);
        let mut out = j.process_batch(0, &DeltaBatch::inserts(a.clone())).unwrap();
        out.extend(j.process_batch(1, &DeltaBatch::inserts(b.clone())).unwrap());
        assert_eq!(net_values(&out), want, "materialised sides");
        assert_eq!(j.state_size(), 2, "a NULL key enters neither side");
        // The same predicate as a filter over the pairs agrees.
        let eq = |l: &Tuple, r: &Tuple| l.get(0).sql_eq(r.get(0)) == Some(true);
        let pairs = a.iter().flat_map(|l| b.iter().map(move |r| (l, r)));
        assert_eq!(pairs.filter(|(l, r)| eq(l, r)).count(), 1);

        let mut w = Windowed::new(10);
        let mut out = w.push(0, &a, true).unwrap();
        out.extend(w.push(1, &b, true).unwrap());
        assert_eq!(net_values(&out), want, "indexed sides");
        assert_eq!(w.join.state_size(), 2);
        // Retracting the matched row retracts the pair, whichever side
        // kind holds it; integers `f64` cannot tell apart stay apart.
        let gone = j.process(1, &Delta::retract(b[1].clone())).unwrap();
        assert_eq!((gone.len(), gone[0].sign), (1, -1));
        let big = |i: i64| t(vec![Value::Int(i), Value::Int(0)], 2);
        j.process(0, &Delta::insert(big(1 << 53))).unwrap();
        let near = j.process(1, &Delta::insert(big((1 << 53) + 1))).unwrap();
        assert!(
            near.is_empty(),
            "2^53 and 2^53 + 1 share a bucket, not a match"
        );
    }

    /// An indexed side and the window it reads must agree on what is
    /// live; when they do not, the join fails loudly instead of dropping
    /// the match.
    #[test]
    fn dangling_row_id_is_an_error_not_a_missing_match() {
        let row = |k: i64, secs: u64| t(vec![Value::Int(k)], secs);
        let mut w = Windowed::new(2);
        w.push(0, &[row(1, 0), row(2, 0)], true).unwrap();
        assert_eq!(w.push(1, &[row(1, 1)], true).unwrap().len(), 1);
        // Release early by hand: the left window evicts row 0 (key 1)
        // and the join is never delivered the retraction.
        let lost = w.push(0, &[row(3, 2)], false).unwrap();
        assert_eq!(lost.len(), 2, "one insertion, one eviction");
        let err = w.push(1, &[row(1, 3)], true).unwrap_err();
        assert_eq!(err.kind(), "execution", "{err}");
        // So is retracting a row the side never held under its key ...
        let mut w = Windowed::new(2);
        w.push(0, &[row(1, 0), row(2, 0)], true).unwrap();
        let mut stray = DeltaBatch::new();
        stray.push_row(Delta::retract(row(1, 0)), 1);
        let err = w.join.process_rows(0, &stray, &w.windows).unwrap_err();
        assert_eq!(err.kind(), "execution", "{err}");
        // ... an id outside the side's interval ...
        let mut stray = DeltaBatch::new();
        stray.push_row(Delta::retract(row(7, 0)), 99);
        let err = w.join.process_rows(0, &stray, &w.windows).unwrap_err();
        assert_eq!(err.kind(), "execution", "{err}");
        // ... inserting one below its tail ...
        let mut back = DeltaBatch::new();
        back.push_row(Delta::insert(row(7, 0)), 0);
        let err = w.join.process_batch(0, &back).unwrap_err();
        assert_eq!(err.kind(), "execution", "{err}");
        // ... and a delta that names no row at all.
        let err = w.join.process(0, &Delta::insert(row(7, 0))).unwrap_err();
        assert_eq!(err.kind(), "execution", "{err}");
    }

    /// The tripwire under the benchmark's gated `state_bytes`: a join
    /// side fed by a window holds nothing itself, and its key index an
    /// entry per row, not the row.
    #[test]
    fn indexed_side_costs_an_index_entry_not_a_copy() {
        let mut w = Windowed::new(2_000);
        let left: Vec<Tuple> = (0..2_000i64)
            .map(|i| {
                let site = Value::Text(format!("site-{}", i % 64));
                t(
                    vec![Value::Int(i % 256), site, Value::Float(i as f64)],
                    i as u64,
                )
            })
            .collect();
        w.push(0, &left, true).unwrap();
        assert_eq!(w.join.state_size(), 2_000);
        assert_eq!(w.join.footprint().resident, 0);
        let mut plain = WindowOp::new(WindowSpec::Rows(2_000));
        plain.insert_batch(&left, &mut DeltaBatch::new());
        let bytes = w.windows[0].footprint().resident - plain.footprint().resident;
        // 12 556 B measured, + 5 %.
        assert!(bytes > 0 && bytes <= 13_184, "{bytes} bytes for 2 000 rows");
        // The copy this replaces costs the same index and the rows again
        // (sealed at ~25 B a row since the encodings went per segment).
        let mut copy = JoinOp::new(vec![(0, 0)], None);
        copy.process_batch(0, &DeltaBatch::inserts(left)).unwrap();
        assert!(
            copy.footprint().resident > 2 * bytes,
            "{}",
            copy.footprint().resident
        );
    }

    fn avg_agg() -> AggregateOp {
        AggregateOp::new(
            vec![BoundExpr::col(0, DataType::Text)],
            vec![BoundAgg {
                func: AggFunc::Avg,
                arg: Some(BoundExpr::col(1, DataType::Float)),
                name: "AVG(v)".into(),
            }],
        )
    }

    #[test]
    fn aggregate_updates_groups_incrementally() {
        let mut a = avg_agg();
        let d1 = Delta::insert(t(vec![Value::Text("lab1".into()), Value::Float(10.0)], 1));
        let out = a.process(0, &d1).unwrap();
        // First row of group: just an insert of (lab1, 10.0).
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].tuple.values()[1], Value::Float(10.0));

        let d2 = Delta::insert(t(vec![Value::Text("lab1".into()), Value::Float(20.0)], 2));
        let out = a.process(0, &d2).unwrap();
        // retract old avg 10.0, insert new avg 15.0
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].sign, -1);
        assert_eq!(out[1].tuple.values()[1], Value::Float(15.0));

        // Expire the first reading → avg returns to 20.0
        let out = a.process(0, &d1.negate()).unwrap();
        assert_eq!(out[1].tuple.values()[1], Value::Float(20.0));

        // Expire the second → group disappears (retraction only).
        let out = a.process(0, &d2.negate()).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].sign, -1);
        assert_eq!(a.group_count(), 0);
    }

    /// A batch that fails half-way leaves the accumulators moved and
    /// nothing emitted. The group's row is recomputed, not retained, so
    /// the next batch must retract the row downstream really shows —
    /// not the one the moved accumulators would describe.
    #[test]
    fn aggregate_failed_batch_retracts_only_rows_it_emitted() {
        let mut a = avg_agg();
        let reading = |v: Value, us| Delta::insert(t(vec![Value::Text("lab1".into()), v], us));
        let mut shown = a.process(0, &reading(Value::Float(10.0), 1)).unwrap();
        let poisoned: DeltaBatch = [
            reading(Value::Float(30.0), 2),
            reading(Value::Text("n/a".into()), 3),
        ]
        .into_iter()
        .collect();
        assert!(a.process_batch(0, &poisoned).is_err());
        shown.extend(a.process(0, &reading(Value::Float(50.0), 4)).unwrap());
        // Downstream saw (lab1, 10), then its retraction and the average
        // of the three readings that were applied.
        assert_eq!(
            crate::delta::consolidate(&shown),
            vec![(
                t(vec![Value::Text("lab1".into()), Value::Float(30.0)], 4),
                1
            )]
        );
        assert_eq!(shown[1], Delta::retract(shown[0].tuple.clone()));
    }

    #[test]
    fn aggregate_batch_emits_one_pair_per_group() {
        let mut a = avg_agg();
        // 100 readings across two rooms arrive as ONE batch: output is
        // one insert per group, not 100 retract/insert pairs.
        let batch: DeltaBatch = (0..100i64)
            .map(|i| {
                let room = if i % 2 == 0 { "lab1" } else { "lab2" };
                Delta::insert(t(
                    vec![Value::Text(room.into()), Value::Float(i as f64)],
                    i as u64,
                ))
            })
            .collect();
        let out = a.process_batch(0, &batch).unwrap();
        assert_eq!(out.len(), 2);
        assert!(out.iter().all(Delta::is_insert));
        assert_eq!(a.group_count(), 2);

        // A follow-up batch touching one group: retract + insert for it only.
        let out = a
            .process_batch(
                0,
                &DeltaBatch::inserts([t(
                    vec![Value::Text("lab1".into()), Value::Float(1000.0)],
                    200,
                )]),
            )
            .unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.as_slice()[0].sign, -1);
        assert_eq!(out.as_slice()[1].sign, 1);
    }

    #[test]
    fn aggregate_batch_cancelling_deltas_emit_nothing() {
        let mut a = avg_agg();
        let row = t(vec![Value::Text("lab1".into()), Value::Float(10.0)], 1);
        a.process(0, &Delta::insert(row.clone())).unwrap();
        // Insert + retract of the same reading inside one batch leaves
        // the group's aggregate untouched → no output deltas at all.
        // (Same timestamp as the live reading: the output row's timestamp
        // tracks the last delta touching the group, and tuple equality
        // includes it.)
        let batch: DeltaBatch = vec![
            Delta::insert(t(vec![Value::Text("lab1".into()), Value::Float(30.0)], 1)),
            Delta::retract(t(vec![Value::Text("lab1".into()), Value::Float(30.0)], 1)),
        ]
        .into();
        let out = a.process_batch(0, &batch).unwrap();
        assert!(out.is_empty(), "got {out:?}");
    }

    #[test]
    fn aggregate_batch_negative_weight_group_resets_like_per_tuple() {
        // An out-of-order retraction drives a group's weight negative;
        // per-tuple delivery drops the group (poisoned accumulators and
        // all) and the following inserts rebuild it fresh. The batch path
        // must do the same, not keep accumulating on the poisoned state.
        fn sum_agg() -> AggregateOp {
            AggregateOp::new(
                vec![BoundExpr::col(0, DataType::Text)],
                vec![BoundAgg {
                    func: AggFunc::Sum,
                    arg: Some(BoundExpr::col(1, DataType::Float)),
                    name: "SUM(v)".into(),
                }],
            )
        }
        let row = |v: f64| t(vec![Value::Text("g".into()), Value::Float(v)], 1);
        let deltas = vec![
            Delta::retract(row(10.0)),
            Delta::insert(row(1.0)),
            Delta::insert(row(2.0)),
        ];

        let mut per_tuple = sum_agg();
        let mut per_tuple_out = Vec::new();
        for d in &deltas {
            per_tuple_out.extend(per_tuple.process(0, d).unwrap());
        }
        let mut batched = sum_agg();
        let batched_out = batched.process_batch(0, &DeltaBatch::from(deltas)).unwrap();

        let net = |ds: &[Delta]| crate::delta::consolidate(ds);
        assert_eq!(net(&per_tuple_out), net(batched_out.as_slice()));
        let final_rows = net(batched_out.as_slice());
        assert_eq!(final_rows.len(), 1);
        assert_eq!(final_rows[0].0.values()[1], Value::Float(3.0));
    }

    #[test]
    fn global_aggregate_emits_empty_row_initially() {
        let mut a = AggregateOp::new(
            vec![],
            vec![BoundAgg {
                func: AggFunc::Count,
                arg: None,
                name: "COUNT(*)".into(),
            }],
        );
        let init = a.initial();
        assert_eq!(init.len(), 1);
        assert_eq!(init.as_slice()[0].tuple.values(), &[Value::Int(0)]);
        let out = a
            .process(0, &Delta::insert(t(vec![Value::Int(5)], 1)))
            .unwrap();
        assert_eq!(out.len(), 2); // retract 0, insert 1
        assert_eq!(out[1].tuple.values(), &[Value::Int(1)]);
        // Retracting back to empty keeps the zero row (global semantics).
        let out = a
            .process(0, &Delta::retract(t(vec![Value::Int(5)], 2)))
            .unwrap();
        assert_eq!(out[1].tuple.values(), &[Value::Int(0)]);
    }

    #[test]
    fn union_passes_every_port() {
        let mut u = UnionOp;
        let d = Delta::insert(t(vec![Value::Int(1)], 0));
        assert_eq!(u.process(0, &d).unwrap().len(), 1);
        assert_eq!(u.process(1, &d).unwrap().len(), 1);
    }

    /// The aggregate operator as it stood before the slot table (PR 24):
    /// a `HashMap` from key to a group object, its accumulators one-slot
    /// [`AggColumn`]s (which fold `COUNT(*)` into the weight) — the
    /// oracle the slot table must match batch for batch.
    mod model {
        use super::*;

        pub(super) struct MapAggregate {
            group: Vec<BoundExpr>,
            aggs: Vec<BoundAgg>,
            groups: HashMap<Vec<Value>, GroupState>,
            stale: HashMap<Vec<Value>, Option<Tuple>>,
        }

        struct GroupState {
            accs: Vec<AggColumn>,
            weight: i64,
            shown: Option<SimTime>,
        }

        struct Touch {
            key: Vec<Value>,
            prev_output: Option<Tuple>,
            last_ts: SimTime,
        }

        impl MapAggregate {
            pub(super) fn new(group: Vec<BoundExpr>, aggs: Vec<BoundAgg>) -> Self {
                MapAggregate {
                    group,
                    aggs,
                    groups: HashMap::new(),
                    stale: HashMap::new(),
                }
            }

            /// Groups holding rows (a global aggregate's one always): a
            /// group a failed delta created before it landed holds none.
            pub(super) fn group_count(&self) -> usize {
                let global = self.group.is_empty();
                let live = |g: &&GroupState| global || g.weight > 0;
                self.groups.values().filter(live).count()
            }

            fn fresh(&self) -> GroupState {
                let accs = self.aggs.iter().map(|a| {
                    let mut col = AggColumn::of(a);
                    col.push();
                    col
                });
                GroupState {
                    accs: accs.collect(),
                    weight: 0,
                    shown: None,
                }
            }

            fn output(key: &[Value], state: &GroupState, ts: SimTime) -> Tuple {
                let mut vals = key.to_vec();
                vals.extend(state.accs.iter().map(|a| a.value(0, state.weight)));
                Tuple::new(vals, ts)
            }

            fn apply(&mut self, batch: &DeltaBatch, touched: &mut Vec<Touch>) -> Result<()> {
                let is_global = self.group.is_empty();
                let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
                for delta in batch {
                    let mut key = Vec::new();
                    for g in &self.group {
                        key.push(g.eval(&delta.tuple)?);
                    }
                    if !self.groups.contains_key(&key) {
                        let fresh = self.fresh();
                        self.groups.insert(key.clone(), fresh);
                    }
                    let state = self.groups.get_mut(&key).unwrap();
                    let slot = match index.get(&key) {
                        Some(&slot) => slot,
                        None => {
                            let shown = |ts| Self::output(&key, state, ts);
                            touched.push(Touch {
                                prev_output: match self.stale.remove(&key) {
                                    Some(row) => row,
                                    None => state.shown.map(shown),
                                },
                                key: key.clone(),
                                last_ts: SimTime::ZERO,
                            });
                            index.insert(key, touched.len() - 1);
                            touched.len() - 1
                        }
                    };
                    touched[slot].last_ts = delta.tuple.timestamp();
                    for _ in 0..delta.sign.unsigned_abs() {
                        for (acc, spec) in state.accs.iter_mut().zip(&self.aggs) {
                            let v = match &spec.arg {
                                Some(e) => e.eval(&delta.tuple)?,
                                None => Value::Int(1),
                            };
                            if delta.sign > 0 {
                                acc.insert(0, &v)?;
                            } else {
                                acc.retract(0, &v)?;
                            }
                        }
                    }
                    state.weight += delta.sign;
                    if !is_global && state.weight <= 0 {
                        self.groups.remove(&touched[slot].key);
                    }
                }
                Ok(())
            }

            pub(super) fn process_batch(&mut self, batch: &DeltaBatch) -> Result<DeltaBatch> {
                let is_global = self.group.is_empty();
                let mut touched = Vec::new();
                if let Err(e) = self.apply(batch, &mut touched) {
                    let shown = touched.into_iter().map(|t| (t.key, t.prev_output));
                    self.stale.extend(shown);
                    return Err(e);
                }
                let mut out = DeltaBatch::new();
                for touch in touched {
                    match self.groups.get_mut(&touch.key) {
                        Some(state) if state.weight > 0 || is_global => {
                            let tuple = Self::output(&touch.key, state, touch.last_ts);
                            if touch.prev_output.as_ref() != Some(&tuple) {
                                if let Some(prev) = touch.prev_output {
                                    out.push_retract(prev);
                                }
                                out.push_insert(tuple);
                            }
                            state.shown = Some(touch.last_ts);
                        }
                        _ => {
                            if let Some(prev) = touch.prev_output {
                                out.push_retract(prev);
                            }
                        }
                    }
                }
                Ok(out)
            }

            pub(super) fn initial(&mut self) -> DeltaBatch {
                if !self.group.is_empty() {
                    return DeltaBatch::new();
                }
                let mut state = self.fresh();
                state.shown = Some(SimTime::ZERO);
                let tuple = Self::output(&[], &state, SimTime::ZERO);
                self.groups.insert(vec![], state);
                DeltaBatch::from(vec![Delta::insert(tuple)])
            }
        }
    }

    /// `(k0, k1, v, i, f, s, b)` rows: keys over `Int` / `Float` / text /
    /// `NULL` (`Int(2)` and `Float(2.0)` among them), a float argument that
    /// is sometimes `NULL`, an int one, and now and then a poisoned
    /// argument no sum accepts. Then keys for columns bound `FLOAT`
    /// (`-0.0` and `+0.0`, two NaN payloads), `TIMESTAMP` and `BOOL`: once
    /// in 60 rows each is a key not of its type (`NULL`, `Int(2)` under
    /// `FLOAT`), which converts its word column mid-stream.
    fn agg_row(rng: &mut StdRng) -> Tuple {
        let pick = |rng: &mut StdRng, vs: &[Value]| vs[rng.gen_range(0..vs.len())].clone();
        let k0 = [
            Value::Int(1),
            Value::Int(2),
            Value::Float(2.0),
            Value::Float(0.5),
            Value::Text("a".into()),
            Value::Text("bb".into()),
            Value::Null,
        ];
        let k1 = [Value::Int(0), Value::Text("x".into()), Value::Null];
        let mut v = vec![
            Value::Float(1.5),
            Value::Float(-2.0),
            Value::Int(3),
            Value::Float(10.25),
            Value::Null,
        ];
        if rng.gen_range(0..40u32) == 0 {
            v = vec![Value::Text("n/a".into())];
        }
        let i = [Value::Int(-1), Value::Int(4), Value::Null];
        let mut vals = vec![pick(rng, &k0), pick(rng, &k1), pick(rng, &v), pick(rng, &i)];
        let word =
            |rng: &mut StdRng, typed: &[Value], other: &[Value]| match rng.gen_range(0..60u32) {
                0 => pick(rng, other),
                _ => pick(rng, typed),
            };
        let nan = |payload: u64| Value::Float(f64::from_bits(0x7ff8_0000_0000_0000 | payload));
        let f = [
            Value::Float(-0.0),
            Value::Float(0.0),
            nan(1),
            nan(2),
            Value::Float(2.0),
        ];
        let s = [
            Value::Timestamp(1),
            Value::Timestamp(2),
            Value::Timestamp(3),
        ];
        let b = [Value::Bool(false), Value::Bool(true)];
        vals.extend([
            word(rng, &f, &[Value::Null, Value::Int(2)]),
            word(rng, &s, &[Value::Null, Value::Int(1)]),
            word(rng, &b, &[Value::Null]),
        ]);
        t(vals, rng.gen_range(0..5u64))
    }

    /// A random aggregate shape over [`agg_row`]s: global, or keys among
    /// every column type (a `Value` column, a word column or both), and up
    /// to four calls among every function.
    fn agg_shape(rng: &mut StdRng) -> (Vec<BoundExpr>, Vec<BoundAgg>) {
        let group = match rng.gen_range(0..7u32) {
            0 => vec![],
            1 => vec![BoundExpr::col(0, DataType::Int)],
            2 => vec![BoundExpr::col(1, DataType::Text)],
            3 => vec![
                BoundExpr::col(0, DataType::Int),
                BoundExpr::col(1, DataType::Text),
            ],
            4 => vec![BoundExpr::col(4, DataType::Float)],
            5 => vec![
                BoundExpr::col(5, DataType::Timestamp),
                BoundExpr::col(6, DataType::Bool),
            ],
            _ => vec![
                BoundExpr::col(4, DataType::Float),
                BoundExpr::col(1, DataType::Text),
                BoundExpr::col(6, DataType::Bool),
            ],
        };
        let call = |func, arg: Option<BoundExpr>| BoundAgg {
            func,
            arg,
            name: String::new(),
        };
        let v = || Some(BoundExpr::col(2, DataType::Float));
        let menu = [
            call(AggFunc::Count, None),
            call(AggFunc::Count, v()),
            call(AggFunc::Sum, v()),
            call(AggFunc::Avg, v()),
            call(AggFunc::Min, v()),
            call(AggFunc::Max, v()),
            call(AggFunc::Sum, Some(BoundExpr::col(3, DataType::Int))),
        ];
        let aggs = (0..rng.gen_range(0..5usize))
            .map(|_| menu[rng.gen_range(0..menu.len())].clone())
            .collect();
        (group, aggs)
    }

    /// The slot table against the map operator it replaced: identical
    /// output per batch — or the same error — and the same live groups,
    /// through inserts, in- and out-of-order retractions (weights below
    /// zero), deaths and rebirths inside a batch, `NULL` arguments and
    /// keys, failed batches and the batches after them, and word key
    /// columns converting to `Value` cells with freed slots in them. A
    /// twin read through counts what the slot table emits, and two reads
    /// in three show the net of everything emitted so far.
    #[test]
    fn slot_table_matches_map_operator() {
        use aspen_types::rng::seeded;
        // What the draws reached: failed batches, groups that died, word
        // columns converted after a freed slot was reused.
        let (mut failed, mut died, mut converted) = (0, 0, 0);
        let words = |a: &AggregateOp| {
            let words = a.keys.iter().filter(|c| matches!(c, KeyColumn::Words(..)));
            words.count()
        };
        for seed in crate::test_seeds(84) {
            let mut rng = seeded(0xA66 ^ seed);
            let (group, aggs) = agg_shape(&mut rng);
            let shape = format!("{} keys, {:?}", group.len(), aggs);
            let mut slots = AggregateOp::new(group.clone(), aggs.clone());
            let mut read = AggregateOp::new(group.clone(), aggs.clone());
            let mut map = model::MapAggregate::new(group, aggs);
            let ctx = |step| format!("seed {seed}, batch {step}, {shape}");
            let initial = slots.initial();
            assert_eq!(initial, map.initial(), "{}", ctx(0));
            assert_eq!(read.count_initial(), initial.len() as u64);
            let mut held = initial;
            let mut live: Vec<Tuple> = Vec::new();
            let mut reused = false;
            for step in 1..=120 {
                let mut batch = DeltaBatch::new();
                for _ in 0..rng.gen_range(0..8usize) {
                    match rng.gen_range(0..10u32) {
                        // A live row leaves; half the time one with the
                        // same key arrives right after it.
                        0..=3 if !live.is_empty() => {
                            let row = live.swap_remove(rng.gen_range(0..live.len()));
                            batch.push(Delta::retract(row.clone()));
                            if rng.gen_bool(0.5) {
                                let mut vals = agg_row(&mut rng).values().to_vec();
                                vals[..2].clone_from_slice(&row.values()[..2]);
                                vals[4..].clone_from_slice(&row.values()[4..]);
                                let reborn = t(vals, rng.gen_range(0..5u64));
                                live.push(reborn.clone());
                                batch.push(Delta::insert(reborn));
                            }
                        }
                        // A retraction ahead of its insertion.
                        4 => batch.push(Delta::retract(agg_row(&mut rng))),
                        // A double insertion.
                        5 => {
                            let row = agg_row(&mut rng);
                            live.extend([row.clone(), row.clone()]);
                            batch.push(Delta {
                                tuple: row,
                                sign: 2,
                            });
                        }
                        _ => {
                            let row = agg_row(&mut rng);
                            live.push(row.clone());
                            batch.push(Delta::insert(row));
                        }
                    }
                }
                let groups = slots.group_count();
                let (typed, free) = (words(&slots), slots.free.len());
                let counted = read.count_batch(&batch).ok();
                match (slots.process_batch(0, &batch), map.process_batch(&batch)) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got, want, "{}", ctx(step));
                        assert_eq!(counted, Some(got.len() as u64), "{}", ctx(step));
                        held.extend(got);
                        held = held.consolidated();
                    }
                    (Err(got), Err(want)) => {
                        assert_eq!(got.to_string(), want.to_string(), "{}", ctx(step));
                        assert_eq!(counted, None, "{}", ctx(step));
                        failed += 1;
                    }
                    (got, want) => panic!("{}: {got:?} vs {want:?}", ctx(step)),
                }
                if step % 3 != 0 {
                    let order = |a: &Tuple, b: &Tuple| {
                        let values = a.values().cmp(b.values());
                        values.then(a.timestamp().cmp(&b.timestamp()))
                    };
                    let mut shown = read.shown_rows(Ok).unwrap();
                    shown.sort_by(order);
                    let copies =
                        |d: &Delta| vec![d.tuple.clone(); usize::try_from(d.sign).unwrap()];
                    let mut net: Vec<Tuple> = held.iter().flat_map(copies).collect();
                    net.sort_by(order);
                    assert_eq!(shown, net, "{}", ctx(step));
                }
                assert_eq!(slots.group_count(), map.group_count(), "{}", ctx(step));
                died += (slots.group_count() < groups) as usize;
                converted += (reused && free > 0 && words(&slots) < typed) as usize;
                reused |= slots.free.len() < free;
            }
        }
        assert!(
            failed > 0 && died > 0 && converted > 0,
            "{failed} failed batches, {died} deaths, {converted} conversions"
        );
    }

    /// Keys negative, past 2^16 and at the `i64` extremes, and a group
    /// whose weight passes 255 inside one batch and falls back, against a
    /// map model: the packed key, weight and count columns widen as their
    /// values need, and the emitted rows stay the model's.
    #[test]
    fn packed_slots_hold_any_key_and_weight() {
        use aspen_types::rng::seeded;
        let v = |func, name: &str| BoundAgg {
            func,
            arg: Some(BoundExpr::col(1, DataType::Int)),
            name: name.into(),
        };
        let star = BoundAgg {
            func: AggFunc::Count,
            arg: None,
            name: "COUNT(*)".into(),
        };
        let aggs = vec![
            star,
            v(AggFunc::Count, "COUNT(v)"),
            v(AggFunc::Sum, "SUM(v)"),
            v(AggFunc::Avg, "AVG(v)"),
        ];
        let mut a = AggregateOp::new(vec![BoundExpr::col(0, DataType::Int)], aggs);
        let keys = [
            -3i64,
            0,
            7,
            -70_000,
            70_000,
            5_000_000_000,
            i64::MIN,
            i64::MAX,
        ];
        let row = |k: i64, x: i64, us: u64| t(vec![Value::Int(k), Value::Int(x)], us);
        let (mut rng, mut live, mut shown) = (seeded(52), Vec::new(), HashMap::new());
        for round in 0..=keys.len() {
            let mut batch = DeltaBatch::new();
            let us = round as u64;
            if let Some(&hot) = keys.get(round) {
                (0..300).for_each(|x| batch.push_insert(row(hot, x, us)));
                (0..290).for_each(|x| batch.push_retract(row(hot, x, us)));
                live.extend((290..300).map(|x| (hot, x)));
                for _ in 0..40 {
                    let (k, x) = (keys[rng.gen_range(0..keys.len())], rng.gen_range(-9..9i64));
                    batch.push_insert(row(k, x, us));
                    live.push((k, x));
                }
            }
            // Half the live rows leave; in the last round all of them.
            let keep = if round == keys.len() {
                0
            } else {
                live.len() / 2
            };
            while live.len() > keep {
                let (k, x) = live.swap_remove(rng.gen_range(0..live.len()));
                batch.push_retract(row(k, x, us));
            }
            for d in &a.process_batch(0, &batch).unwrap() {
                *shown.entry(d.tuple.values().to_vec()).or_insert(0) += d.sign;
            }
            shown.retain(|_, n| *n != 0);
            let mut model: HashMap<i64, (i64, i64)> = HashMap::new();
            for &(k, x) in &live {
                let (n, sum) = model.entry(k).or_default();
                (*n, *sum) = (*n + 1, *sum + x);
            }
            let want: HashMap<Vec<Value>, i64> = model
                .into_iter()
                .map(|(k, (n, sum))| {
                    let avg = Value::Float(sum as f64 / n as f64);
                    let counts = [k, n, n, sum].map(Value::Int);
                    (counts.into_iter().chain([avg]).collect(), 1)
                })
                .collect();
            assert_eq!(shown, want, "round {round}");
            assert_eq!(a.group_count(), shown.len(), "round {round}");
        }
        let KeyColumn::Words(_, cells) = &a.keys[0] else {
            panic!("an INT key stays words");
        };
        assert_eq!((cells.width(), a.weight.width()), (8, 2));
    }

    fn count_by_key() -> AggregateOp {
        AggregateOp::new(
            vec![BoundExpr::col(0, DataType::Int)],
            vec![BoundAgg {
                func: AggFunc::Count,
                arg: None,
                name: "COUNT(*)".into(),
            }],
        )
    }

    /// Read through, an aggregate builds no row before a read, and a read
    /// rebuilds only the rows of the groups a batch changed since the last
    /// one: every other row is the very row that read built.
    #[test]
    fn a_read_through_aggregate_builds_rows_only_for_changed_groups() {
        let mut a = count_by_key();
        let row = |k: i64, us: u64| t(vec![Value::Int(k)], us);
        let mut counted = 0;
        for us in 0..8 {
            counted += a
                .count_batch(&DeltaBatch::inserts((0..100).map(|k| row(k, us))))
                .unwrap();
        }
        assert_eq!(
            counted,
            100 + 7 * 2 * 100,
            "a pair a group a batch, after the first"
        );
        assert_eq!(a.built.get(), 0, "no row before the first read");
        let first = a.shown_rows(Ok).unwrap();
        assert_eq!((first.len(), a.built.get()), (100, 100));
        assert_eq!(first[7].values(), &[Value::Int(7), Value::Int(8)]);
        let again = a.shown_rows(Ok).unwrap();
        assert_eq!((again, a.built.get()), (first.clone(), 100));
        // One batch changes groups 3 and 5; one that cancels changes none.
        let cancelled = [Delta::insert(row(9, 7)), Delta::retract(row(9, 7))];
        let batch: DeltaBatch = [Delta::insert(row(3, 9)), Delta::insert(row(5, 9))]
            .into_iter()
            .chain(cancelled)
            .collect();
        assert_eq!(a.count_batch(&batch).unwrap(), 4);
        let second = a.shown_rows(Ok).unwrap();
        assert_eq!(a.built.get(), 102);
        for (k, (was, now)) in first.iter().zip(&second).enumerate() {
            let rebuilt = k == 3 || k == 5;
            let shared = was.values().as_ptr() == now.values().as_ptr();
            assert_eq!(shared, !rebuilt, "group {k}");
        }
        assert_eq!(second[3].values(), &[Value::Int(3), Value::Int(9)]);
    }

    /// An identity projection forwards its input: the same deltas, each
    /// sharing its value row; a list that reorders, narrows or reads a
    /// wider input rebuilds every row.
    #[test]
    fn identity_projection_forwards_its_input() {
        let cols = |ix: &[usize]| {
            ix.iter()
                .map(|&i| BoundExpr::col(i, DataType::Int))
                .collect()
        };
        let batch = DeltaBatch::from(vec![
            Delta::insert(t(vec![Value::Int(1), Value::Int(2)], 3)),
            Delta::retract(t(vec![Value::Int(4), Value::Int(5)], 6)),
        ]);
        let shares = |out: &DeltaBatch| {
            let rows = out.iter().zip(&batch);
            rows.map(|(o, i)| o.tuple.values().as_ptr() == i.tuple.values().as_ptr())
                .collect::<Vec<_>>()
        };
        let out = ProjectOp::new(cols(&[0, 1]), 2)
            .process_batch(0, &batch)
            .unwrap();
        assert_eq!(out, batch);
        assert_eq!(shares(&out), [true, true]);
        for (ix, width) in [(&[1, 0][..], 2), (&[0][..], 2), (&[0, 1][..], 3)] {
            let out = ProjectOp::new(cols(ix), width)
                .process_batch(0, &batch)
                .unwrap();
            assert_eq!(shares(&out), [false, false], "{ix:?} over {width}");
        }
    }

    /// A dead group's slot goes back on the free list at batch end and
    /// the next new key takes it: a churning key domain costs its live
    /// groups, not every key it ever saw.
    #[test]
    fn group_slots_are_reused_under_key_churn() {
        let mut a = count_by_key();
        let row = |k: i64| t(vec![Value::Int(k)], k as u64);
        for k in 0..100_000i64 {
            let mut batch = DeltaBatch::inserts([row(k)]);
            if k >= 64 {
                batch.push(Delta::retract(row(k - 64)));
            }
            a.process_batch(0, &batch).unwrap();
            assert!(a.group_count() <= 64);
        }
        assert_eq!(a.group_count(), 64);
        let capacity = a.weight.capacity();
        assert!(capacity <= 128, "{capacity} slots");
        assert!(a.index.slots() <= 128, "{}", a.index.slots());
        // An 8 B stamp a slot, and key, weight and index cells of a
        // byte or two.
        assert!(
            a.footprint().resident <= 128 * 48,
            "{}",
            a.footprint().resident
        );
    }

    /// An `INT` key is one packed word: a 4 096-group `COUNT(*)` slot
    /// table charges at most 16 B a slot (2 key + 1 weight + 8 stamp + 4
    /// index), which a 24 B `Value` key cell would overrun.
    #[test]
    fn int_keys_cost_a_word_a_slot() {
        let mut a = count_by_key();
        let rows = (0..4_096i64).map(|k| t(vec![Value::Int(k)], 1));
        a.process_batch(0, &DeltaBatch::inserts(rows)).unwrap();
        assert_eq!(a.group_count(), 4_096);
        assert!(
            a.footprint().resident <= 4_096 * 16,
            "{}",
            a.footprint().resident
        );
    }

    /// Growth rehashes every key from its cells and deletion shifts the
    /// probe runs back: each live group is still found — and retracted to
    /// nothing — after many of both.
    #[test]
    fn index_growth_keeps_every_group() {
        let mut a = count_by_key();
        let row = |k: i64| t(vec![Value::Int(k)], 0);
        let count = |k: i64, n: i64| t(vec![Value::Int(k), Value::Int(n)], 0);
        for chunk in (0..5_000i64).collect::<Vec<_>>().chunks(97) {
            a.process_batch(0, &DeltaBatch::inserts(chunk.iter().map(|&k| row(k))))
                .unwrap();
        }
        assert_eq!(a.index.slots(), 8_192, "grown from 8, load ≤ 7/8");
        // Every third group dies: backward shifts all over the table.
        let dying = (0..5_000i64).filter(|k| k % 3 == 0);
        let out = a
            .process_batch(0, &dying.clone().map(|k| Delta::retract(row(k))).collect())
            .unwrap();
        assert_eq!(out, dying.map(|k| Delta::retract(count(k, 1))).collect());
        assert_eq!(a.group_count(), 3_333);
        // A second row for every key: the survivors count 2, the dead
        // come back (onto freed slots) at 1.
        let out = a
            .process_batch(0, &DeltaBatch::inserts((0..5_000i64).map(row)))
            .unwrap();
        let mut want = DeltaBatch::new();
        for k in 0..5_000i64 {
            if k % 3 != 0 {
                want.push_retract(count(k, 1));
            }
            want.push_insert(count(k, 1 + (k % 3 != 0) as i64));
        }
        assert_eq!(out, want);
        assert_eq!(a.weight.len(), 5_000, "the dead's slots were reused");
    }

    /// A global aggregate is one slot allocated at capacity 1, no index:
    /// `COUNT(*)` costs its weight and stamp cells — 2 B of zig-zagged
    /// weight at 1 000 rows and 8 B of stamp.
    #[test]
    fn global_aggregate_costs_one_slot() {
        let mut a = AggregateOp::new(
            vec![],
            vec![BoundAgg {
                func: AggFunc::Count,
                arg: None,
                name: "COUNT(*)".into(),
            }],
        );
        a.initial();
        let batch = DeltaBatch::inserts((0..1_000).map(|i| t(vec![Value::Int(i)], 1)));
        let out = a.process_batch(0, &batch).unwrap();
        assert_eq!(out.as_slice()[1].tuple.values(), &[Value::Int(1_000)]);
        assert_eq!(a.footprint().resident, 10);
        assert!(a.footprint().resident <= 96, "PR 24 charged 96");
    }

    /// A `MIN` group's multiset is charged per entry: one group holding
    /// 10 000 distinct values reads at least their pairs' bytes.
    #[test]
    fn min_max_state_grows_with_distinct_values() {
        let mut a = AggregateOp::new(
            vec![BoundExpr::col(0, DataType::Int)],
            vec![BoundAgg {
                func: AggFunc::Min,
                arg: Some(BoundExpr::col(1, DataType::Float)),
                name: "MIN(v)".into(),
            }],
        );
        let rows = (0..10_000).map(|i| t(vec![Value::Int(7), Value::Float(i as f64)], 1));
        a.process_batch(0, &DeltaBatch::inserts(rows)).unwrap();
        assert_eq!(a.group_count(), 1);
        assert!(
            a.footprint().resident >= 10_000 * 32,
            "{}",
            a.footprint().resident
        );
    }

    /// A failed batch leaves a ledger of what downstream still shows,
    /// and the ledger is charged until a later batch spends it.
    #[test]
    fn failed_batch_ledger_is_charged_until_spent() {
        let mut a = avg_agg();
        let reading = |room: String, v: Value| Delta::insert(t(vec![Value::Text(room), v], 1));
        let rooms: DeltaBatch = (0..100)
            .map(|i| reading(format!("room-{i}"), Value::Float(1.0)))
            .collect();
        a.process_batch(0, &rooms).unwrap();
        let settled = a.footprint().resident;
        let mut poisoned = rooms.clone();
        poisoned.push(reading("room-0".into(), Value::Text("n/a".into())));
        assert!(a.process_batch(0, &poisoned).is_err());
        assert_eq!(a.stale.len(), 100);
        assert!(
            a.footprint().resident >= settled + 100 * 40,
            "{}",
            a.footprint().resident
        );
        a.process_batch(0, &rooms).unwrap();
        assert!(a.stale.is_empty());
        assert_eq!(a.footprint().resident, settled);
    }
}
