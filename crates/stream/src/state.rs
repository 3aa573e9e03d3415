//! Operator state: keyed/unkeyed tuple multisets in a row or columnar
//! layout, with byte accounting and an optional spill tier.
//!
//! A [`KeyedState`] maps a join/group key (a `Vec<Value>`) to the multiset
//! of live tuples carrying that key. Multiplicity bookkeeping is what
//! makes retraction exact: a tuple inserted twice must be retracted twice
//! before it disappears.
//!
//! Both [`KeyedState`] and [`BagState`] (and the window buffers built on
//! [`ColumnarDeque`]) come in two layouts, chosen at construction via
//! [`StateOptions`]:
//!
//! * **Row** — the classic `HashMap`-of-`Tuple` layout. Cheap for small
//!   state, and the reference the layout-equivalence tests compare
//!   against.
//! * **Columnar** (the default) — tuples are decomposed into per-column
//!   primitive vectors in a `columnar::TupleStore` (dictionary-coded
//!   text, RLE'd sealed segments), indexed by tuple/key hash. Hot-path
//!   probes compare cells against a converted probe row — no `Value`
//!   materialization — and resident bytes are *measured*, not estimated.
//!   With a [`SpillConfig`], cold sealed segments page to disk and are
//!   decoded transiently on access, so retained tables and large join
//!   states outgrow RAM gracefully.
//!
//! Retraction multiplicities and per-occurrence arrival order are layout
//! invariants: row ids in the columnar stores are assigned in arrival
//! order and never reused, which is exactly the `next_seq` discipline of
//! the row layout.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, VecDeque};
use std::hash::{Hash, Hasher};

use aspen_types::{DataType, SimTime, Tuple, Value};
use columnar::{Cell, TupleStore};

use crate::delta::{Delta, DeltaBatch};

pub use columnar::SpillConfig;

/// Physical layout of operator state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StateLayout {
    /// Row-of-`Tuple` hash maps (the pre-columnar layout).
    Row,
    /// Per-column vectors with dictionary/RLE compression.
    #[default]
    Columnar,
}

/// Layout + spill policy, threaded from `EngineConfig` down to every
/// stateful operator at pipeline build time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateOptions {
    pub layout: StateLayout,
    /// Spill tier for columnar stores (ignored by the row layout).
    pub spill: Option<SpillConfig>,
}

impl StateOptions {
    pub fn row() -> Self {
        StateOptions {
            layout: StateLayout::Row,
            spill: None,
        }
    }

    pub fn columnar() -> Self {
        StateOptions::default()
    }
}

// ---------------------------------------------------------------------------
// Value <-> Cell conversion

fn datatype_code(dt: DataType) -> u8 {
    match dt {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Text => 3,
        DataType::Timestamp => 4,
    }
}

fn code_datatype(c: u8) -> DataType {
    match c {
        0 => DataType::Bool,
        1 => DataType::Int,
        2 => DataType::Float,
        3 => DataType::Text,
        _ => DataType::Timestamp,
    }
}

fn value_to_cell(v: &Value) -> Cell {
    match v {
        Value::Null => Cell::Null,
        Value::Bool(b) => Cell::Bool(*b),
        Value::Int(i) => Cell::Int(*i),
        Value::Float(f) => Cell::Float(*f),
        Value::Text(s) => Cell::Text(s.clone()),
        Value::Timestamp(t) => Cell::Ts(*t),
        Value::Param(slot, dt) => Cell::Pair(*slot, datatype_code(*dt)),
    }
}

fn cell_to_value(c: Cell) -> Value {
    match c {
        Cell::Null => Value::Null,
        Cell::Bool(b) => Value::Bool(b),
        Cell::Int(i) => Value::Int(i),
        Cell::Float(f) => Value::Float(f),
        Cell::Text(s) => Value::Text(s),
        Cell::Ts(t) => Value::Timestamp(t),
        Cell::Pair(slot, dt) => Value::Param(slot, code_datatype(dt)),
    }
}

fn tuple_cells(t: &Tuple) -> Vec<Cell> {
    t.values().iter().map(value_to_cell).collect()
}

fn cells_tuple(cells: Vec<Cell>, ts: u64) -> Tuple {
    Tuple::new(
        cells.into_iter().map(cell_to_value).collect(),
        SimTime::from_micros(ts),
    )
}

fn hash_of(h: &impl Hash) -> u64 {
    let mut hasher = DefaultHasher::new();
    h.hash(&mut hasher);
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Byte estimates for the row layout (the columnar layout measures)

/// Estimated hash-map entry overhead (bucket slot + control byte +
/// allocator slack), used by the row layout's byte accounting.
const MAP_ENTRY: usize = 48;

/// Rows per columnar segment for operator state. Operator stores are
/// FIFO-heavy (window eviction and oldest-first bag retraction kill rows
/// in arrival order), and a fully-dead *sealed* segment is physically
/// dropped — so small segments keep a store's resident footprint
/// tracking its live window instead of everything ever pushed, and give
/// the spill tier fine-grained pages. 32 keeps the dead-tail overhead
/// below one segment per live structure at typical window sizes.
const SEGMENT_ROWS: u32 = 32;

/// Estimated resident heap bytes of one privately-held tuple.
pub(crate) fn tuple_heap_bytes(t: &Tuple) -> usize {
    let mut b = std::mem::size_of::<Tuple>()
        + 16 // Arc header
        + std::mem::size_of_val(t.values());
    for v in t.values() {
        if let Value::Text(s) = v {
            b += s.len();
        }
    }
    b
}

fn key_heap_bytes(k: &[Value]) -> usize {
    let mut b = 24 + std::mem::size_of_val(k);
    for v in k {
        if let Value::Text(s) = v {
            b += s.len();
        }
    }
    b
}

// ---------------------------------------------------------------------------
// KeyedState

/// Multiset of tuples, keyed. Layout-dual; see the module docs.
#[derive(Debug, Clone)]
pub struct KeyedState {
    inner: KeyedInner,
}

#[derive(Debug, Clone)]
enum KeyedInner {
    Row {
        map: HashMap<Vec<Value>, HashMap<Tuple, i64>>,
        /// Gross live count: Σ max(multiplicity, 0).
        live: usize,
        bytes: usize,
    },
    Col(ColumnarKeyedState),
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState::new()
    }
}

impl KeyedState {
    /// State in the default layout ([`StateOptions::default`]).
    pub fn new() -> Self {
        KeyedState::with_options(&StateOptions::default())
    }

    pub fn with_options(opts: &StateOptions) -> Self {
        let inner = match opts.layout {
            StateLayout::Row => KeyedInner::Row {
                map: HashMap::new(),
                live: 0,
                bytes: 0,
            },
            StateLayout::Columnar => KeyedInner::Col(ColumnarKeyedState::new(opts.spill.clone())),
        };
        KeyedState { inner }
    }

    /// Apply a signed update; returns the tuple's new multiplicity.
    pub fn update(&mut self, key: Vec<Value>, tuple: &Tuple, sign: i64) -> i64 {
        match &mut self.inner {
            KeyedInner::Row { map, live, bytes } => {
                let new_bucket = !map.contains_key(&key);
                if new_bucket {
                    *bytes += key_heap_bytes(&key) + MAP_ENTRY;
                }
                let bucket = map.entry(key).or_default();
                let new_entry = !bucket.contains_key(tuple);
                if new_entry {
                    *bytes += tuple_heap_bytes(tuple) + MAP_ENTRY;
                }
                let entry = bucket.entry(tuple.clone()).or_insert(0);
                let old = *entry;
                *entry += sign;
                let now = *entry;
                if now == 0 {
                    bucket.remove(tuple);
                    *bytes = bytes.saturating_sub(tuple_heap_bytes(tuple) + MAP_ENTRY);
                }
                // Gross count from the actual multiplicity transition, so
                // a retract-before-insert pair nets to zero instead of
                // drifting (the saturating version over-counted forever).
                *live = (*live as i64 + now.max(0) - old.max(0)) as usize;
                now
            }
            KeyedInner::Col(c) => c.update(&key, tuple, sign),
        }
    }

    /// The live tuples under a key with their multiplicities.
    pub fn get(&self, key: &[Value]) -> Vec<(Tuple, i64)> {
        match &self.inner {
            KeyedInner::Row { map, .. } => map
                .get(key)
                .into_iter()
                .flat_map(|b| b.iter().map(|(t, c)| (t.clone(), *c)))
                .collect(),
            KeyedInner::Col(c) => c.matches(key),
        }
    }

    /// Every `(key, tuple, multiplicity)` triple.
    pub fn iter_all(&self) -> Vec<(Vec<Value>, Tuple, i64)> {
        match &self.inner {
            KeyedInner::Row { map, .. } => map
                .iter()
                .flat_map(|(k, b)| b.iter().map(move |(t, c)| (k.clone(), t.clone(), *c)))
                .collect(),
            KeyedInner::Col(c) => c.iter_all(),
        }
    }

    /// Gross number of live tuples (counting positive multiplicity).
    pub fn len(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { live, .. } => *live,
            KeyedInner::Col(c) => c.live,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of distinct keys ever populated.
    pub fn key_count(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { map, .. } => map.len(),
            KeyedInner::Col(c) => c.index.len(),
        }
    }

    /// Resident state bytes: measured for the columnar layout, estimated
    /// for the row layout.
    pub fn state_bytes(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { bytes, .. } => *bytes,
            KeyedInner::Col(c) => c.state_bytes(),
        }
    }

    /// Bytes currently paged out to the spill tier.
    pub fn spilled_bytes(&self) -> usize {
        match &self.inner {
            KeyedInner::Row { .. } => 0,
            KeyedInner::Col(c) => c.store.spilled_bytes(),
        }
    }
}

/// Columnar keyed multiset: each live `(key, tuple, multiplicity)` entry
/// is one weighted row (key cells ++ tuple cells) in a [`TupleStore`],
/// reached through a key-hash index. Probes convert the key once and
/// compare cells — no per-candidate `Value` materialization.
#[derive(Debug, Clone)]
pub struct ColumnarKeyedState {
    store: TupleStore,
    /// key hash → live row ids (insertion order). Buckets are kept when
    /// emptied so `key_count` matches the row layout's "keys ever seen".
    index: HashMap<u64, Vec<u64>>,
    key_width: Option<usize>,
    /// Gross live count: Σ max(weight, 0).
    live: usize,
}

impl ColumnarKeyedState {
    fn new(spill: Option<SpillConfig>) -> Self {
        ColumnarKeyedState {
            store: TupleStore::weighted(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(spill),
            index: HashMap::new(),
            key_width: None,
            live: 0,
        }
    }

    fn update(&mut self, key: &[Value], tuple: &Tuple, sign: i64) -> i64 {
        let kw = *self.key_width.get_or_insert(key.len());
        debug_assert_eq!(kw, key.len(), "key arity is fixed per state");
        let mut probe: Vec<Cell> = key.iter().map(value_to_cell).collect();
        probe.extend(tuple.values().iter().map(value_to_cell));
        let ts = tuple.timestamp().as_micros();
        let bucket = self.index.entry(hash_of(&key)).or_default();
        for (i, &row) in bucket.iter().enumerate() {
            let Some((cells, rts)) = self.store.get(row) else {
                continue;
            };
            if rts != ts || cells != probe {
                continue;
            }
            let old = self.store.weight(row).unwrap_or(0);
            let now = old + sign;
            self.live = (self.live as i64 + now.max(0) - old.max(0)) as usize;
            if now == 0 {
                self.store.mark_dead(row);
                bucket.remove(i);
            } else {
                self.store.set_weight(row, now);
            }
            return now;
        }
        if sign == 0 {
            return 0;
        }
        let row = self.store.push_weighted(&probe, ts, sign);
        bucket.push(row);
        self.live = (self.live as i64 + sign.max(0)) as usize;
        sign
    }

    fn matches(&self, key: &[Value]) -> Vec<(Tuple, i64)> {
        let Some(kw) = self.key_width else {
            return Vec::new();
        };
        let key_cells: Vec<Cell> = key.iter().map(value_to_cell).collect();
        let mut out = Vec::new();
        if let Some(bucket) = self.index.get(&hash_of(&key)) {
            for &row in bucket {
                let Some((mut cells, ts)) = self.store.get(row) else {
                    continue;
                };
                if cells.len() < kw || cells[..kw] != key_cells[..] {
                    continue;
                }
                let w = self.store.weight(row).unwrap_or(0);
                let tuple_part = cells.split_off(kw);
                out.push((cells_tuple(tuple_part, ts), w));
            }
        }
        out
    }

    fn iter_all(&self) -> Vec<(Vec<Value>, Tuple, i64)> {
        let kw = self.key_width.unwrap_or(0);
        let mut out = Vec::new();
        self.store.for_each_live(|_, mut cells, ts, w| {
            let tuple_part = cells.split_off(kw.min(cells.len()));
            let key: Vec<Value> = cells.into_iter().map(cell_to_value).collect();
            out.push((key, cells_tuple(tuple_part, ts), w));
        });
        out
    }

    fn state_bytes(&self) -> usize {
        let index_bytes: usize = self.index.values().map(|b| MAP_ENTRY + b.len() * 8).sum();
        self.store.resident_bytes() + index_bytes
    }
}

// ---------------------------------------------------------------------------
// BagState

/// Unkeyed tuple multiset maintained by delta batches — the engine's
/// retained-table state. `apply` is O(batch), and `snapshot` replays
/// tuples in *per-occurrence arrival order*, because late-registered
/// queries with order-sensitive `ROWS n` windows must retain the same
/// rows a query that was live during ingestion retained. Every
/// insertion gets its own sequence number — a duplicate row replays at
/// the position it actually arrived at, not grouped with its first
/// occurrence (a regression test drives this: `[7, 1, 7, 2]` under
/// `ROWS 2` must retain `[7, 2]`, not `[1, 2]`). A retraction removes
/// the *oldest* live occurrence of its tuple; a retraction arriving
/// before its insertion is held as debt the next insertion cancels.
///
/// Layout-dual: the columnar arm stores occurrences as live rows in a
/// [`TupleStore`] whose monotone row ids double as arrival sequence
/// numbers, so both layouts replay identically.
#[derive(Debug, Clone)]
pub struct BagState {
    inner: BagInner,
}

#[derive(Debug, Clone)]
enum BagInner {
    Row {
        /// Tuple → arrival sequence of each live occurrence (ascending).
        /// Keys with no live occurrences are removed.
        occurrences: HashMap<Tuple, VecDeque<u64>>,
        /// Transient over-retractions (out-of-order deltas), per tuple.
        debts: HashMap<Tuple, u64>,
        next_seq: u64,
        bytes: usize,
    },
    Col(ColumnarBag),
}

impl Default for BagState {
    fn default() -> Self {
        BagState::new()
    }
}

impl BagState {
    /// Bag in the default layout ([`StateOptions::default`]).
    pub fn new() -> Self {
        BagState::with_options(&StateOptions::default())
    }

    pub fn with_options(opts: &StateOptions) -> Self {
        let inner = match opts.layout {
            StateLayout::Row => BagInner::Row {
                occurrences: HashMap::new(),
                debts: HashMap::new(),
                next_seq: 0,
                bytes: 0,
            },
            StateLayout::Columnar => BagInner::Col(ColumnarBag::new(opts.spill.clone())),
        };
        BagState { inner }
    }

    /// Apply a whole batch of signed changes.
    pub fn apply(&mut self, batch: &DeltaBatch) {
        for d in batch {
            self.apply_delta(d);
        }
    }

    pub fn apply_delta(&mut self, delta: &Delta) {
        if delta.sign > 0 {
            for _ in 0..delta.sign {
                self.insert_one(&delta.tuple);
            }
        } else {
            for _ in 0..-delta.sign {
                self.retract_one(&delta.tuple);
            }
        }
    }

    fn insert_one(&mut self, tuple: &Tuple) {
        match &mut self.inner {
            BagInner::Row {
                occurrences,
                debts,
                next_seq,
                bytes,
            } => {
                // An insertion first heals any over-retraction instead of
                // becoming a live occurrence.
                if let Some(debt) = debts.get_mut(tuple) {
                    *debt -= 1;
                    if *debt == 0 {
                        debts.remove(tuple);
                        *bytes = bytes.saturating_sub(tuple_heap_bytes(tuple) + MAP_ENTRY);
                    }
                    return;
                }
                let seq = *next_seq;
                *next_seq += 1;
                if !occurrences.contains_key(tuple) {
                    *bytes += tuple_heap_bytes(tuple) + MAP_ENTRY;
                }
                *bytes += 8;
                occurrences.entry(tuple.clone()).or_default().push_back(seq);
            }
            BagInner::Col(c) => c.insert_one(tuple),
        }
    }

    fn retract_one(&mut self, tuple: &Tuple) {
        match &mut self.inner {
            BagInner::Row {
                occurrences,
                debts,
                bytes,
                ..
            } => match occurrences.get_mut(tuple) {
                Some(seqs) if !seqs.is_empty() => {
                    seqs.pop_front(); // oldest occurrence leaves first
                    *bytes = bytes.saturating_sub(8);
                    if seqs.is_empty() {
                        occurrences.remove(tuple);
                        *bytes = bytes.saturating_sub(tuple_heap_bytes(tuple) + MAP_ENTRY);
                    }
                }
                _ => {
                    if !debts.contains_key(tuple) {
                        *bytes += tuple_heap_bytes(tuple) + MAP_ENTRY;
                    }
                    *debts.entry(tuple.clone()).or_insert(0) += 1;
                }
            },
            BagInner::Col(c) => c.retract_one(tuple),
        }
    }

    pub fn insert_all(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.insert_one(t);
        }
    }

    /// Distinct live tuples.
    pub fn distinct(&self) -> usize {
        match &self.inner {
            BagInner::Row { occurrences, .. } => occurrences.len(),
            BagInner::Col(c) => c.distinct,
        }
    }

    pub fn is_empty(&self) -> bool {
        match &self.inner {
            BagInner::Row { occurrences, .. } => occurrences.is_empty(),
            BagInner::Col(c) => c.store.is_empty(),
        }
    }

    /// Live occurrences in arrival order.
    pub fn snapshot(&self) -> Vec<Tuple> {
        match &self.inner {
            BagInner::Row { occurrences, .. } => {
                let mut live: Vec<(u64, &Tuple)> = occurrences
                    .iter()
                    .flat_map(|(t, seqs)| seqs.iter().map(move |&s| (s, t)))
                    .collect();
                live.sort_unstable_by_key(|&(seq, _)| seq);
                live.into_iter().map(|(_, t)| t.clone()).collect()
            }
            BagInner::Col(c) => c.snapshot(),
        }
    }

    /// Resident state bytes: measured (columnar) or estimated (row).
    pub fn state_bytes(&self) -> usize {
        match &self.inner {
            BagInner::Row { bytes, .. } => *bytes,
            BagInner::Col(c) => c.state_bytes(),
        }
    }

    pub fn spilled_bytes(&self) -> usize {
        match &self.inner {
            BagInner::Row { .. } => 0,
            BagInner::Col(c) => c.store.spilled_bytes(),
        }
    }
}

/// Columnar bag: occurrences are live rows in a [`TupleStore`]; the row
/// id *is* the arrival sequence. A tuple-hash index finds the oldest
/// live occurrence for retraction without storing tuples twice.
#[derive(Debug, Clone)]
pub struct ColumnarBag {
    store: TupleStore,
    /// tuple hash → live row ids, ascending (arrival order).
    index: HashMap<u64, Vec<u64>>,
    debts: HashMap<Tuple, u64>,
    distinct: usize,
}

impl ColumnarBag {
    fn new(spill: Option<SpillConfig>) -> Self {
        ColumnarBag {
            store: TupleStore::new(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(spill),
            index: HashMap::new(),
            debts: HashMap::new(),
            distinct: 0,
        }
    }

    fn row_equals(&self, row: u64, cells: &[Cell], ts: u64) -> bool {
        match self.store.get(row) {
            Some((rc, rts)) => rts == ts && rc == cells,
            None => false,
        }
    }

    fn insert_one(&mut self, tuple: &Tuple) {
        if let Some(debt) = self.debts.get_mut(tuple) {
            *debt -= 1;
            if *debt == 0 {
                self.debts.remove(tuple);
            }
            return;
        }
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let h = hash_of(tuple);
        let already = self
            .index
            .get(&h)
            .map(|b| b.iter().any(|&r| self.row_equals(r, &cells, ts)))
            .unwrap_or(false);
        let row = self.store.push(&cells, ts);
        self.index.entry(h).or_default().push(row);
        if !already {
            self.distinct += 1;
        }
    }

    fn retract_one(&mut self, tuple: &Tuple) {
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let h = hash_of(tuple);
        let oldest = self
            .index
            .get(&h)
            .and_then(|bucket| bucket.iter().position(|&r| self.row_equals(r, &cells, ts)));
        match oldest {
            Some(pos) => {
                let bucket = self.index.get_mut(&h).expect("bucket exists");
                let row = bucket.remove(pos);
                self.store.mark_dead(row);
                let bucket = self.index.get(&h).expect("bucket exists");
                let still = bucket.iter().any(|&r| self.row_equals(r, &cells, ts));
                if !still {
                    self.distinct -= 1;
                }
                if self.index.get(&h).map(|b| b.is_empty()).unwrap_or(false) {
                    self.index.remove(&h);
                }
            }
            None => {
                *self.debts.entry(tuple.clone()).or_insert(0) += 1;
            }
        }
    }

    fn snapshot(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.store.live_rows() as usize);
        self.store.for_each_live(|_, cells, ts, _| {
            out.push(cells_tuple(cells, ts));
        });
        out
    }

    fn state_bytes(&self) -> usize {
        let index_bytes: usize = self.index.values().map(|b| MAP_ENTRY + b.len() * 8).sum();
        let debt_bytes: usize = self
            .debts
            .keys()
            .map(|t| tuple_heap_bytes(t) + MAP_ENTRY)
            .sum();
        self.store.resident_bytes() + index_bytes + debt_bytes
    }
}

// ---------------------------------------------------------------------------
// ColumnarDeque — the window buffer

/// Arrival-ordered tuple deque over a [`TupleStore`]: `push_back`
/// appends a row, `pop_front` kills the oldest live row. The timestamp
/// column stays resident even when a segment spills, so window-expiry
/// checks never fault cold segments in just to peek at the front.
#[derive(Debug, Clone)]
pub struct ColumnarDeque {
    store: TupleStore,
}

impl ColumnarDeque {
    pub fn new(spill: Option<SpillConfig>) -> Self {
        ColumnarDeque {
            store: TupleStore::new(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(spill),
        }
    }

    pub fn len(&self) -> usize {
        self.store.live_rows() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    pub fn push_back(&mut self, tuple: &Tuple) {
        self.store
            .push(&tuple_cells(tuple), tuple.timestamp().as_micros());
    }

    /// Timestamp of the oldest live tuple — O(1), never faults a
    /// spilled segment in.
    pub fn front_ts(&self) -> Option<SimTime> {
        self.store
            .first_live()
            .map(|(_, ts)| SimTime::from_micros(ts))
    }

    pub fn pop_front(&mut self) -> Option<Tuple> {
        let (row, _) = self.store.first_live()?;
        let (cells, ts) = self.store.get(row)?;
        self.store.mark_dead(row);
        Some(cells_tuple(cells, ts))
    }

    /// Live tuples in arrival order.
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.len());
        self.extend_range(0, u64::MAX, &mut out);
        out
    }

    /// Row id the next `push_back` gets. Ids count arrivals and are
    /// never reused, so a source log addresses its rows by them.
    pub fn next_row(&self) -> u64 {
        self.store.len()
    }

    /// Timestamp of a live row — O(log segments), never faults a
    /// spilled segment in.
    pub fn ts_at(&self, row: u64) -> Option<SimTime> {
        self.store.ts(row).map(SimTime::from_micros)
    }

    /// Append the live tuples with row ids in `[lo, hi)` to `out`, in
    /// arrival order; each touched segment is decoded once.
    pub fn extend_range(&self, lo: u64, hi: u64, out: &mut Vec<Tuple>) {
        self.store.for_each_live_in(lo, hi, |_, cells, ts, _| {
            out.push(cells_tuple(cells, ts));
        });
    }

    /// Kill every row with id below `row` (whole dead segments drop
    /// without being decoded).
    pub fn release_below(&mut self, row: u64) {
        self.store.mark_dead_below(row);
    }

    /// Materialize and drop every live tuple (tumbling pane rollover).
    pub fn drain(&mut self) -> Vec<Tuple> {
        let out = self.snapshot();
        self.store.clear();
        out
    }

    pub fn state_bytes(&self) -> usize {
        self.store.resident_bytes()
    }

    pub fn spilled_bytes(&self) -> usize {
        self.store.spilled_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::SimTime;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], SimTime::ZERO)
    }

    fn both_keyed(test: impl Fn(KeyedState)) {
        test(KeyedState::with_options(&StateOptions::row()));
        test(KeyedState::with_options(&StateOptions::columnar()));
    }

    fn both_bags(test: impl Fn(BagState)) {
        test(BagState::with_options(&StateOptions::row()));
        test(BagState::with_options(&StateOptions::columnar()));
    }

    #[test]
    fn multiplicity_tracking() {
        both_keyed(|mut s| {
            let k = vec![Value::Int(1)];
            assert_eq!(s.update(k.clone(), &t(10), 1), 1);
            assert_eq!(s.update(k.clone(), &t(10), 1), 2);
            assert_eq!(s.update(k.clone(), &t(10), -1), 1);
            assert_eq!(s.len(), 1);
            assert_eq!(s.update(k.clone(), &t(10), -1), 0);
            assert!(s.is_empty());
            assert_eq!(s.get(&k).len(), 0);
        });
    }

    #[test]
    fn separate_keys_are_independent() {
        both_keyed(|mut s| {
            s.update(vec![Value::Int(1)], &t(10), 1);
            s.update(vec![Value::Int(2)], &t(20), 1);
            assert_eq!(s.key_count(), 2);
            assert_eq!(s.get(&[Value::Int(1)]).len(), 1);
            assert_eq!(s.get(&[Value::Int(3)]).len(), 0);
            assert_eq!(s.iter_all().len(), 2);
        });
    }

    #[test]
    fn bag_state_batch_apply_and_snapshot() {
        both_bags(|mut b| {
            b.insert_all(&[t(1), t(2), t(2)]);
            assert_eq!(b.distinct(), 2);
            assert_eq!(b.snapshot().len(), 3);
            let batch: DeltaBatch = vec![Delta::retract(t(2)), Delta::insert(t(3))].into();
            b.apply(&batch);
            let snap = b.snapshot();
            assert_eq!(snap.len(), 3);
            // Arrival order: the surviving tuples keep their positions.
            assert_eq!(snap[0], t(1));
            assert_eq!(snap[2], t(3));
            b.apply(&DeltaBatch::from(vec![
                Delta::retract(t(1)),
                Delta::retract(t(2)),
                Delta::retract(t(3)),
            ]));
            assert!(b.is_empty());
        });
    }

    #[test]
    fn bag_state_replays_duplicates_at_their_own_positions() {
        // Regression: grouping duplicates at their first arrival position
        // made a late-registered `ROWS 2` query over [7, 1, 7, 2] retain
        // [1, 2] where a live one retained [7, 2].
        both_bags(|mut b| {
            b.insert_all(&[t(7), t(1), t(7), t(2)]);
            assert_eq!(b.snapshot(), vec![t(7), t(1), t(7), t(2)]);
            assert_eq!(b.distinct(), 3);
            // A retraction removes the OLDEST occurrence: the later 7
            // stays at its own (third) position.
            b.apply(&DeltaBatch::from(vec![Delta::retract(t(7))]));
            assert_eq!(b.snapshot(), vec![t(1), t(7), t(2)]);
            assert_eq!(b.distinct(), 3);
        });
    }

    #[test]
    fn bag_state_over_retraction_heals() {
        both_bags(|mut b| {
            b.apply(&DeltaBatch::from(vec![Delta::retract(t(5))]));
            assert!(b.is_empty());
            // The first insertion cancels the debt instead of going live...
            b.apply(&DeltaBatch::from(vec![Delta::insert(t(5))]));
            assert!(b.snapshot().is_empty());
            // ...and the next one is a genuinely new arrival.
            b.apply(&DeltaBatch::from(vec![Delta::insert(t(5))]));
            assert_eq!(b.snapshot(), vec![t(5)]);
        });
    }

    #[test]
    fn negative_multiplicity_is_representable() {
        // Retraction arriving before its insertion (out-of-order deltas)
        // must not panic; the multiset goes negative and heals later.
        both_keyed(|mut s| {
            let k = vec![Value::Int(1)];
            assert_eq!(s.update(k.clone(), &t(5), -1), -1);
            assert_eq!(s.update(k.clone(), &t(5), 1), 0);
            assert_eq!(s.get(&k).len(), 0);
        });
    }

    #[test]
    fn retract_before_insert_does_not_drift_live_count() {
        // Regression: the old saturating `live` accounting subtracted
        // nothing on the early retract, then counted the healing insert
        // as a net new tuple — `len()` over-reported forever after.
        both_keyed(|mut s| {
            let k = vec![Value::Int(1)];
            s.update(k.clone(), &t(5), -1);
            assert_eq!(s.len(), 0, "negative entries are not live");
            s.update(k.clone(), &t(5), 1);
            assert_eq!(s.len(), 0, "healing insert must not inflate len");
            assert!(s.is_empty());
            // The state still works normally afterwards.
            s.update(k.clone(), &t(5), 1);
            assert_eq!(s.len(), 1);
            s.update(k.clone(), &t(5), -1);
            assert_eq!(s.len(), 0);
        });
    }

    #[test]
    fn columnar_keyed_matches_preserve_exact_values() {
        let mut s = KeyedState::with_options(&StateOptions::columnar());
        let key = vec![Value::Int(1)];
        let nan = Tuple::new(vec![Value::Float(f64::NAN)], SimTime::from_secs(3));
        let int3 = Tuple::new(vec![Value::Int(3)], SimTime::from_secs(3));
        let float3 = Tuple::new(vec![Value::Float(3.0)], SimTime::from_secs(3));
        s.update(key.clone(), &nan, 1);
        s.update(key.clone(), &int3, 1);
        s.update(key.clone(), &float3, 1);
        let got = s.get(&key);
        assert_eq!(got.len(), 3, "Int(3) and Float(3.0) stay distinct");
        // NaN round-trips and matches itself on retraction.
        assert_eq!(s.update(key.clone(), &nan, -1), 0);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn columnar_state_measures_fewer_bytes_than_row_estimate() {
        let mut row = KeyedState::with_options(&StateOptions::row());
        let mut col = KeyedState::with_options(&StateOptions::columnar());
        for i in 0..2000i64 {
            let tuple = Tuple::new(
                vec![
                    Value::Int(i),
                    Value::Float(i as f64),
                    Value::Text(format!("z{}", i % 5)),
                ],
                SimTime::from_secs(i as u64),
            );
            row.update(vec![Value::Int(i % 16)], &tuple, 1);
            col.update(vec![Value::Int(i % 16)], &tuple, 1);
        }
        assert_eq!(row.len(), col.len());
        assert!(
            col.state_bytes() * 2 <= row.state_bytes(),
            "columnar {} vs row {}",
            col.state_bytes(),
            row.state_bytes()
        );
    }

    #[test]
    fn columnar_bag_spills_and_snapshots_identically() {
        let dir = std::env::temp_dir().join(format!("aspen-bag-spill-{}", std::process::id()));
        let mut plain = BagState::with_options(&StateOptions::columnar());
        let mut spilly = BagState::with_options(&StateOptions {
            layout: StateLayout::Columnar,
            spill: Some(SpillConfig::new(0, &dir)),
        });
        for i in 0..3000i64 {
            plain.insert_all(&[t(i % 100)]);
            spilly.insert_all(&[t(i % 100)]);
        }
        assert!(spilly.spilled_bytes() > 0, "cold segments must spill");
        assert_eq!(plain.snapshot(), spilly.snapshot());
        assert_eq!(plain.distinct(), spilly.distinct());
        // Retraction still removes the oldest occurrence through the
        // spill tier.
        spilly.apply(&DeltaBatch::from(vec![Delta::retract(t(0))]));
        plain.apply(&DeltaBatch::from(vec![Delta::retract(t(0))]));
        assert_eq!(plain.snapshot(), spilly.snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
