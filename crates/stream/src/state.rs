//! Operator state: keyed/unkeyed tuple multisets in a columnar layout,
//! with measured byte accounting and an optional spill tier.
//!
//! A [`KeyedState`] maps a join/group key (a `Vec<Value>`) to the multiset
//! of live tuples carrying that key. Multiplicity bookkeeping is what
//! makes retraction exact: a tuple inserted twice must be retracted twice
//! before it disappears.
//!
//! [`KeyedState`], [`BagState`] and the window buffer [`ColumnarDeque`]
//! share one layout: tuples are decomposed into per-column primitive
//! vectors in a `columnar::TupleStore` (each sealed segment re-encoded
//! at the width its values need: strided frame-of-reference ints and
//! stamps, decimal-scaled floats, packed text, a liveness bit a row),
//! indexed by tuple/key hash.
//! Hot-path probes compare a converted probe row against the encoded
//! columns in place (`TupleStore::row_matches`) — no row, no `Value`
//! materialization — and resident bytes are *measured*, not
//! estimated. With a
//! [`SpillConfig`] (carried by [`StateOptions`]), cold sealed segments
//! page to disk and are decoded transiently on access, so retained
//! tables and large join states outgrow RAM gracefully.
//!
//! Retraction multiplicities and per-occurrence arrival order are the
//! invariants every structure keeps: row ids in the stores are assigned
//! in arrival order and never reused, so a row id *is* an arrival
//! sequence number.
//!
//! Every state holder says what it occupies in one [`Footprint`] (its
//! stores' measured bytes and spill counts, plus heap kept outside them),
//! and every census adds footprints: a new count is one field of it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{HashMap, HashSet};
use std::hash::{Hash, Hasher};

use aspen_types::{DataType, SimTime, Tuple, Value};
use columnar::{Cell, SegmentPool, TupleStore};

use crate::delta::{Delta, DeltaBatch};

pub use columnar::{Census, SpillConfig};

/// Spill policy, threaded from `EngineConfig` down to every stateful
/// operator at pipeline build time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateOptions {
    /// Spill tier for the stores (`None` = stay resident).
    pub spill: Option<SpillConfig>,
}

impl StateOptions {
    /// Resident columnar state — the default.
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

pub(crate) fn hash_of(h: &(impl Hash + ?Sized)) -> u64 {
    let mut hasher = DefaultHasher::new();
    h.hash(&mut hasher);
    hasher.finish()
}

// ---------------------------------------------------------------------------
// Footprints; byte accounting outside the stores (they measure themselves)

/// What a state holder occupies: its stores' measured bytes and spill
/// counts, plus the heap it keeps outside them. Holders add up.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Footprint {
    /// Resident bytes; segments shared through a pool at full size.
    pub resident: usize,
    /// The share of `resident` charged to a segment pool.
    pub pooled: usize,
    /// Bytes paged out to the spill tier (disjoint from `resident`).
    pub spilled: usize,
    /// Failed reads of spilled segments, whose rows read as absent.
    pub read_failures: u64,
    /// Spill passes ended by an unwritable file (the segment stays resident).
    pub write_failures: u64,
    /// Sealed bytes by encoding.
    pub sealed: Census,
}

impl Footprint {
    /// A store's footprint — the one place its gauges are read.
    pub(crate) fn of(store: &TupleStore) -> Footprint {
        Footprint {
            resident: store.resident_bytes(),
            pooled: store.pooled_bytes(),
            spilled: store.spilled_bytes(),
            read_failures: store.spill_read_failures(),
            write_failures: store.spill_write_failures(),
            sealed: store.census(),
        }
    }

    /// Resident bytes held outside a store.
    pub(crate) fn heap(bytes: usize) -> Footprint {
        Footprint {
            resident: bytes,
            ..Footprint::default()
        }
    }
}

impl std::ops::AddAssign for Footprint {
    fn add_assign(&mut self, o: Footprint) {
        self.resident += o.resident;
        self.pooled += o.pooled;
        self.spilled += o.spilled;
        self.read_failures += o.read_failures;
        self.write_failures += o.write_failures;
        self.sealed += o.sealed;
    }
}

impl std::ops::Add for Footprint {
    type Output = Footprint;
    fn add(mut self, o: Footprint) -> Footprint {
        self += o;
        self
    }
}

impl std::iter::Sum for Footprint {
    fn sum<I: Iterator<Item = Footprint>>(iter: I) -> Footprint {
        iter.fold(Footprint::default(), std::ops::Add::add)
    }
}

/// Estimated hash-map entry overhead (bucket slot + control byte +
/// allocator slack), charged per index bucket and per debt entry.
const MAP_ENTRY: usize = 48;

/// Rows per columnar segment for operator state. Operator stores are
/// FIFO-heavy (window eviction and oldest-first bag retraction kill rows
/// in arrival order), and a fully-dead *sealed* segment is physically
/// dropped — so small segments keep a store's resident footprint
/// tracking its live window instead of everything ever pushed, and give
/// the spill tier fine-grained pages. 32 keeps the dead-tail overhead
/// below one segment per live structure at typical window sizes, and
/// costs no compression: the store encodes each sealed column from its
/// own segment's values — ints and stamps from their range and common
/// stride, floats as decimals when they round-trip, text from its
/// strings — so 32 rows already seal at about their information width
/// (only a local text dictionary would amortize over more).
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

/// `hash → live row ids`, each bucket in arrival order. [`KeyedState`]
/// and [`BagState`] point it at rows of their own store; an indexed join
/// side (`operators::JoinOp`) keeps nothing else and points it at rows
/// its scan's window or source log holds. A bucket goes when its last
/// row does, so the index tracks the live key domain.
#[derive(Debug, Clone, Default)]
pub(crate) struct RowIndex {
    buckets: HashMap<u64, Vec<u64>>,
    rows: usize,
}

impl RowIndex {
    /// The bucket of the keys (or tuples) that hash to `h` ([`hash_of`]).
    pub(crate) fn get(&self, h: u64) -> &[u64] {
        self.buckets.get(&h).map_or(&[], Vec::as_slice)
    }

    pub(crate) fn insert(&mut self, h: u64, row: u64) {
        self.buckets.entry(h).or_default().push(row);
        self.rows += 1;
    }

    /// Drop `row` from bucket `h`; whether it was there.
    pub(crate) fn remove(&mut self, h: u64, row: u64) -> bool {
        let Some(bucket) = self.buckets.get_mut(&h) else {
            return false;
        };
        let Some(pos) = bucket.iter().position(|&r| r == row) else {
            return false;
        };
        bucket.remove(pos);
        if bucket.is_empty() {
            self.buckets.remove(&h);
        }
        self.rows -= 1;
        true
    }

    /// Rows indexed.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Resident bytes: a map entry per bucket, eight bytes per row.
    pub(crate) fn state_bytes(&self) -> usize {
        self.buckets.len() * MAP_ENTRY + self.rows * 8
    }
}

// ---------------------------------------------------------------------------
// KeyedState

/// Multiset of tuples, keyed: each live `(key, tuple, multiplicity)`
/// entry is one weighted row (key cells ++ tuple cells) in a
/// [`TupleStore`], reached through a key-hash index. Probes convert the
/// key once and compare cells — no per-candidate `Value`
/// materialization.
#[derive(Debug, Clone)]
pub struct KeyedState {
    store: TupleStore,
    /// By key hash.
    index: RowIndex,
    key_width: Option<usize>,
    /// Gross live count: Σ max(weight, 0).
    live: usize,
}

impl Default for KeyedState {
    fn default() -> Self {
        KeyedState::new()
    }
}

impl KeyedState {
    /// Resident state ([`StateOptions::default`]).
    pub fn new() -> Self {
        KeyedState::with_options(&StateOptions::default())
    }

    pub fn with_options(opts: &StateOptions) -> Self {
        KeyedState {
            store: TupleStore::weighted(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(opts.spill.clone()),
            index: RowIndex::default(),
            key_width: None,
            live: 0,
        }
    }

    /// Apply a signed update; returns the tuple's new multiplicity.
    pub fn update(&mut self, key: Vec<Value>, tuple: &Tuple, sign: i64) -> i64 {
        let kw = *self.key_width.get_or_insert(key.len());
        debug_assert_eq!(kw, key.len(), "key arity is fixed per state");
        let mut probe: Vec<Cell> = key.iter().map(value_to_cell).collect();
        probe.extend(tuple.values().iter().map(value_to_cell));
        let ts = tuple.timestamp().as_micros();
        let h = hash_of(&key);
        let mut bucket = self.index.get(h).iter().copied();
        let found = bucket.find(|&row| self.store.row_matches(row, &probe, ts));
        match found {
            Some(row) => {
                let old = self.store.weight(row).unwrap_or(0);
                let now = old + sign;
                // Gross count from the actual multiplicity transition, so
                // a retract-before-insert pair nets to zero instead of
                // drifting.
                self.live = (self.live as i64 + now.max(0) - old.max(0)) as usize;
                if now == 0 {
                    self.store.mark_dead(row);
                    self.index.remove(h, row);
                } else {
                    self.store.set_weight(row, now);
                }
                now
            }
            None => {
                if sign != 0 {
                    let row = self.store.push_weighted(&probe, ts, sign);
                    self.index.insert(h, row);
                    self.live += sign.max(0) as usize;
                }
                sign
            }
        }
    }

    /// The live tuples under a key with their multiplicities.
    pub fn get(&self, key: &[Value]) -> Vec<(Tuple, i64)> {
        let Some(kw) = self.key_width else {
            return Vec::new();
        };
        let key_cells: Vec<Cell> = key.iter().map(value_to_cell).collect();
        let mut out = Vec::new();
        for &row in self.index.get(hash_of(key)) {
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
        out
    }

    /// Every `(key, tuple, multiplicity)` triple.
    pub fn iter_all(&self) -> Vec<(Vec<Value>, Tuple, i64)> {
        let kw = self.key_width.unwrap_or(0);
        let mut out = Vec::new();
        self.store.for_each_live(|_, mut cells, ts, w| {
            let tuple_part = cells.split_off(kw.min(cells.len()));
            let key: Vec<Value> = cells.into_iter().map(cell_to_value).collect();
            out.push((key, cells_tuple(tuple_part, ts), w));
        });
        out
    }

    /// Gross number of live tuples (counting positive multiplicity).
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The store plus the index.
    pub fn footprint(&self) -> Footprint {
        Footprint::of(&self.store) + Footprint::heap(self.index.state_bytes())
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
/// Occurrences are live rows in a [`TupleStore`] whose monotone row ids
/// double as arrival sequence numbers; a tuple-hash index finds the
/// oldest live occurrence for retraction without storing tuples twice.
#[derive(Debug, Clone)]
pub struct BagState {
    store: TupleStore,
    /// By tuple hash.
    index: RowIndex,
    /// Transient over-retractions (out-of-order deltas), per tuple.
    debts: HashMap<Tuple, u64>,
}

impl Default for BagState {
    fn default() -> Self {
        BagState::new()
    }
}

impl BagState {
    /// Resident bag ([`StateOptions::default`]).
    pub fn new() -> Self {
        BagState::with_options(&StateOptions::default())
    }

    pub fn with_options(opts: &StateOptions) -> Self {
        BagState {
            store: TupleStore::new(0)
                .segment_rows(SEGMENT_ROWS)
                .with_spill(opts.spill.clone()),
            index: RowIndex::default(),
            debts: HashMap::new(),
        }
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

    pub fn insert_all(&mut self, tuples: &[Tuple]) {
        for t in tuples {
            self.insert_one(t);
        }
    }

    fn insert_one(&mut self, tuple: &Tuple) {
        // An insertion first heals any over-retraction instead of
        // becoming a live occurrence.
        if let Some(debt) = self.debts.get_mut(tuple) {
            *debt -= 1;
            if *debt == 0 {
                self.debts.remove(tuple);
            }
            return;
        }
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let row = self.store.push(&cells, ts);
        self.index.insert(hash_of(tuple), row);
    }

    /// The oldest live occurrence of the tuple hashing to `h`.
    fn holds(&self, h: u64, cells: &[Cell], ts: u64) -> Option<u64> {
        let mut rows = self.index.get(h).iter().copied();
        rows.find(|&r| self.store.row_matches(r, cells, ts))
    }

    fn retract_one(&mut self, tuple: &Tuple) {
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let h = hash_of(tuple);
        match self.holds(h, &cells, ts) {
            Some(row) => {
                // The oldest occurrence leaves first.
                self.index.remove(h, row);
                self.store.mark_dead(row);
            }
            None => {
                *self.debts.entry(tuple.clone()).or_insert(0) += 1;
            }
        }
    }

    /// Distinct live tuples, counted when asked.
    pub fn distinct(&self) -> usize {
        self.snapshot().into_iter().collect::<HashSet<_>>().len()
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    /// Live occurrences in arrival order.
    pub fn snapshot(&self) -> Vec<Tuple> {
        let mut out = Vec::with_capacity(self.store.live_rows() as usize);
        self.store.for_each_live(|_, cells, ts, _| {
            out.push(cells_tuple(cells, ts));
        });
        out
    }

    /// The store plus the index and any outstanding debts.
    pub fn footprint(&self) -> Footprint {
        let debts = self.debts.keys().map(|t| tuple_heap_bytes(t) + MAP_ENTRY);
        let heap = self.index.state_bytes() + debts.sum::<usize>();
        Footprint::of(&self.store) + Footprint::heap(heap)
    }
}

// ---------------------------------------------------------------------------
// ColumnarDeque — the window buffer

/// Arrival-ordered tuple deque over a [`TupleStore`]: `push_back`
/// appends a row, `release_below` kills the oldest live rows. The
/// timestamp column stays resident even when a segment spills, so
/// window-expiry checks never fault cold segments in just to peek at a
/// stamp.
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

    /// Share sealed segments with the other deques of `pool`, which give
    /// a row id the same tuple (`TupleStore::with_pool`).
    pub fn with_pool(mut self, pool: SegmentPool) -> Self {
        self.store = self.store.with_pool(pool);
        self
    }

    pub fn len(&self) -> usize {
        self.store.live_rows() as usize
    }

    pub fn is_empty(&self) -> bool {
        self.store.is_empty()
    }

    pub fn push_back(&mut self, tuple: &Tuple) {
        let cells = tuple.values().iter().map(value_to_cell);
        self.store
            .push_cells(cells, tuple.timestamp().as_micros(), 1);
    }

    /// Live tuples in arrival order.
    pub fn snapshot(&self) -> Vec<Tuple> {
        self.numbered().into_iter().map(|(_, t)| t).collect()
    }

    /// Row id the next `push_back` gets. Ids number arrivals and are
    /// never reused, so a source log addresses its rows by them.
    pub fn next_row(&self) -> u64 {
        self.store.len()
    }

    /// Continue a numbering (a log's source's, or a back-filled log's): the
    /// next `push_back` gets id `row`. Only for a deque holding no rows.
    pub fn resume_at(&mut self, row: u64) {
        self.store.resume_at(row);
    }

    /// The live tuple at `row`, if the deque still holds it.
    pub fn get(&self, row: u64) -> Option<Tuple> {
        let (cells, ts) = self.store.get(row)?;
        Some(cells_tuple(cells, ts))
    }

    /// Timestamp of a live row — O(log segments), never faults a
    /// spilled segment in.
    pub fn ts_at(&self, row: u64) -> Option<SimTime> {
        self.store.ts(row).map(SimTime::from_micros)
    }

    /// Every live tuple with its row id, in arrival order.
    pub fn numbered(&self) -> Vec<(u64, Tuple)> {
        let mut out = Vec::with_capacity(self.len());
        self.store
            .for_each_live(|row, cells, ts, _| out.push((row, cells_tuple(cells, ts))));
        out
    }

    /// Append the live tuples with row ids in `[lo, hi)` to `out`, in
    /// arrival order; each touched segment is decoded once.
    pub fn extend_range(&self, lo: u64, hi: u64, out: &mut Vec<Tuple>) {
        self.store.for_each_live_in(lo, hi, |_, cells, ts, _| {
            out.push(cells_tuple(cells, ts));
        });
    }

    /// Kill every row with id below `row` (whole dead segments drop
    /// without being decoded). A deque that emptied holds nothing, not
    /// even the dead tail of its last segment; row ids keep counting.
    pub fn release_below(&mut self, row: u64) {
        self.store.mark_dead_below(row);
        if self.store.is_empty() {
            self.store.clear();
        }
    }

    /// The store; segments shared through a pool at full size, and
    /// their share in `pooled`.
    pub fn footprint(&self) -> Footprint {
        Footprint::of(&self.store)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::rng::seeded;
    use aspen_types::SimTime;
    use rand::Rng;

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], SimTime::ZERO)
    }

    /// Each property runs resident and with everything sealed spilling.
    fn resident_and_spilled(tag: &str, run: impl Fn(&StateOptions) -> usize) {
        assert_eq!(run(&StateOptions::columnar()), 0, "resident state spilled");
        let dir = std::env::temp_dir().join(format!("aspen-{tag}-{}", std::process::id()));
        let spill = Some(SpillConfig::new(0, &dir));
        assert!(run(&StateOptions { spill }) > 0, "cold segments must spill");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A small tuple domain over every cell kind, with repeated cells
    /// at different stamps.
    fn random_tuple(rng: &mut impl Rng) -> Tuple {
        let other = match rng.gen_range(0..4u32) {
            0 => Value::Text("x".into()),
            1 => Value::Float(0.5),
            2 => Value::Null,
            _ => Value::Text("y".into()),
        };
        Tuple::new(
            vec![Value::Int(rng.gen_range(0..3i64)), other],
            SimTime::from_secs(rng.gen_range(0..2u64)),
        )
    }

    fn sort_key(t: &Tuple) -> (Vec<Value>, SimTime) {
        (t.values().to_vec(), t.timestamp())
    }

    /// The [`KeyedState`] contract by linear scan: one `(key, tuple,
    /// weight)` entry per pair whose weight is not zero.
    #[derive(Default)]
    struct KeyedModel(Vec<(Vec<Value>, Tuple, i64)>);

    impl KeyedModel {
        fn update(&mut self, key: &[Value], tuple: &Tuple, sign: i64) -> i64 {
            let found = self.0.iter().position(|(k, t, _)| k == key && t == tuple);
            let pos = found.unwrap_or_else(|| {
                self.0.push((key.to_vec(), tuple.clone(), 0));
                self.0.len() - 1
            });
            self.0[pos].2 += sign;
            let now = self.0[pos].2;
            if now == 0 {
                self.0.remove(pos);
            }
            now
        }

        fn sorted(&self) -> Vec<(Vec<Value>, Tuple, i64)> {
            let mut all = self.0.clone();
            all.sort_by_key(|(k, t, w)| (k.clone(), sort_key(t), *w));
            all
        }
    }

    #[test]
    fn keyed_state_tracks_linear_scan_model() {
        let keys = [
            Value::Int(1),
            Value::Float(1.0),
            Value::Text("1".into()),
            Value::Text("k".into()),
            Value::Null,
        ];
        resident_and_spilled("keyed-model", |opts| {
            let mut max_spilled = 0;
            for seed in crate::test_seeds(4) {
                let mut rng = seeded(0x5EED ^ seed);
                let mut state = KeyedState::with_options(opts);
                let mut model = KeyedModel::default();
                for step in 0..500 {
                    let ctx = format!("seed {seed}, step {step}");
                    let key = vec![keys[rng.gen_range(0..keys.len())].clone()];
                    let tuple = random_tuple(&mut rng);
                    // Signs -2..=2: retractions before insertions, debts
                    // of two, and the no-op.
                    let sign = rng.gen_range(-2..3i64);
                    assert_eq!(
                        state.update(key.clone(), &tuple, sign),
                        model.update(&key, &tuple, sign),
                        "multiplicity, {ctx}"
                    );
                    let mut all = state.iter_all();
                    all.sort_by_key(|(k, t, w)| (k.clone(), sort_key(t), *w));
                    let want = model.sorted();
                    assert_eq!(all, want, "iter_all, {ctx}");
                    for k in &keys {
                        let mut got = state.get(std::slice::from_ref(k));
                        got.sort_by_key(|(t, w)| (sort_key(t), *w));
                        let under: Vec<(Tuple, i64)> = want
                            .iter()
                            .filter(|(key, ..)| key[0] == *k)
                            .map(|(_, t, w)| (t.clone(), *w))
                            .collect();
                        assert_eq!(got, under, "get {k:?}, {ctx}");
                    }
                    let live: i64 = want.iter().map(|(.., w)| (*w).max(0)).sum();
                    assert_eq!(state.len(), live as usize, "len, {ctx}");
                    assert_eq!(state.is_empty(), live == 0, "is_empty, {ctx}");
                    max_spilled = max_spilled.max(state.footprint().spilled);
                }
            }
            max_spilled
        });
    }

    /// The [`BagState`] contract: live occurrences in arrival order, and
    /// the retractions that arrived before their insertions.
    #[derive(Default)]
    struct BagModel {
        live: Vec<Tuple>,
        debts: HashMap<Tuple, u64>,
    }

    impl BagModel {
        fn apply(&mut self, batch: &DeltaBatch) {
            for d in batch {
                for _ in 0..d.sign.abs() {
                    if d.sign < 0 {
                        match self.live.iter().position(|t| *t == d.tuple) {
                            Some(oldest) => drop(self.live.remove(oldest)),
                            None => *self.debts.entry(d.tuple.clone()).or_insert(0) += 1,
                        }
                    } else if let Some(debt) = self.debts.get_mut(&d.tuple) {
                        *debt -= 1;
                        if *debt == 0 {
                            self.debts.remove(&d.tuple);
                        }
                    } else {
                        self.live.push(d.tuple.clone());
                    }
                }
            }
        }

        fn distinct(&self) -> usize {
            let mut seen: Vec<&Tuple> = Vec::new();
            for t in &self.live {
                if !seen.contains(&t) {
                    seen.push(t);
                }
            }
            seen.len()
        }
    }

    #[test]
    fn bag_state_tracks_arrival_list_model() {
        resident_and_spilled("bag-model", |opts| {
            let mut max_spilled = 0;
            for seed in crate::test_seeds(4) {
                let mut rng = seeded(0xBA6 ^ seed);
                let mut bag = BagState::with_options(opts);
                let mut model = BagModel::default();
                for step in 0..300 {
                    let ctx = format!("seed {seed}, step {step}");
                    // Insert-heavy batches with in-batch duplicates;
                    // retractions of up to two run ahead into debt.
                    let batch: DeltaBatch = (0..rng.gen_range(0..6usize))
                        .map(|_| Delta {
                            tuple: random_tuple(&mut rng),
                            sign: [2, 1, 1, -1, -2][rng.gen_range(0..5usize)],
                        })
                        .collect();
                    bag.apply(&batch);
                    model.apply(&batch);
                    assert_eq!(bag.snapshot(), model.live, "snapshot, {ctx}");
                    assert_eq!(bag.distinct(), model.distinct(), "distinct, {ctx}");
                    assert_eq!(bag.is_empty(), model.live.is_empty(), "is_empty, {ctx}");
                    max_spilled = max_spilled.max(bag.footprint().spilled);
                }
            }
            max_spilled
        });
    }

    #[test]
    fn multiplicity_tracking() {
        let mut s = KeyedState::new();
        let k = vec![Value::Int(1)];
        assert_eq!(s.update(k.clone(), &t(10), 1), 1);
        assert_eq!(s.update(k.clone(), &t(10), 1), 2);
        assert_eq!(s.update(k.clone(), &t(10), -1), 1);
        assert_eq!(s.len(), 1);
        assert_eq!(s.update(k.clone(), &t(10), -1), 0);
        assert!(s.is_empty());
        assert_eq!(s.get(&k).len(), 0);
    }

    #[test]
    fn separate_keys_are_independent() {
        let mut s = KeyedState::new();
        s.update(vec![Value::Int(1)], &t(10), 1);
        s.update(vec![Value::Int(2)], &t(20), 1);
        assert_eq!(s.get(&[Value::Int(1)]).len(), 1);
        assert_eq!(s.get(&[Value::Int(3)]).len(), 0);
        assert_eq!(s.iter_all().len(), 2);
    }

    #[test]
    fn bag_state_batch_apply_and_snapshot() {
        let mut b = BagState::new();
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
    }

    #[test]
    fn bag_state_replays_duplicates_at_their_own_positions() {
        // Regression: grouping duplicates at their first arrival position
        // made a late-registered `ROWS 2` query over [7, 1, 7, 2] retain
        // [1, 2] where a live one retained [7, 2].
        let mut b = BagState::new();
        b.insert_all(&[t(7), t(1), t(7), t(2)]);
        assert_eq!(b.snapshot(), vec![t(7), t(1), t(7), t(2)]);
        assert_eq!(b.distinct(), 3);
        // A retraction removes the OLDEST occurrence: the later 7
        // stays at its own (third) position.
        b.apply(&DeltaBatch::from(vec![Delta::retract(t(7))]));
        assert_eq!(b.snapshot(), vec![t(1), t(7), t(2)]);
        assert_eq!(b.distinct(), 3);
    }

    #[test]
    fn bag_state_over_retraction_heals() {
        let mut b = BagState::new();
        b.apply(&DeltaBatch::from(vec![Delta::retract(t(5))]));
        assert!(b.is_empty());
        // The first insertion cancels the debt instead of going live...
        b.apply(&DeltaBatch::from(vec![Delta::insert(t(5))]));
        assert!(b.snapshot().is_empty());
        // ...and the next one is a genuinely new arrival.
        b.apply(&DeltaBatch::from(vec![Delta::insert(t(5))]));
        assert_eq!(b.snapshot(), vec![t(5)]);
    }

    #[test]
    fn negative_multiplicity_is_representable() {
        // Retraction arriving before its insertion (out-of-order deltas)
        // must not panic; the multiset goes negative and heals later.
        let mut s = KeyedState::new();
        let k = vec![Value::Int(1)];
        assert_eq!(s.update(k.clone(), &t(5), -1), -1);
        assert_eq!(s.update(k.clone(), &t(5), 1), 0);
        assert_eq!(s.get(&k).len(), 0);
    }

    #[test]
    fn retract_before_insert_does_not_drift_live_count() {
        // Regression: the old saturating `live` accounting subtracted
        // nothing on the early retract, then counted the healing insert
        // as a net new tuple — `len()` over-reported forever after.
        let mut s = KeyedState::new();
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

    /// The 2 000-tuple / 16-key join-side fixture.
    fn fixture_tuple(i: i64) -> (Vec<Value>, Tuple) {
        let tuple = Tuple::new(
            vec![
                Value::Int(i),
                Value::Float(i as f64),
                Value::Text(format!("z{}", i % 5)),
            ],
            SimTime::from_secs(i as u64),
        );
        (vec![Value::Int(i % 16)], tuple)
    }

    #[test]
    fn keyed_state_bytes_stay_under_pinned_ceiling() {
        let mut s = KeyedState::new();
        for i in 0..2000 {
            let (key, tuple) = fixture_tuple(i);
            s.update(key, &tuple, 1);
        }
        assert_eq!(s.len(), 2000);
        // What this fixture measured when the ceiling was pinned (less
        // than half of what a `HashMap`-of-`Tuple` layout would hold):
        // the tripwire under the benchmark's gated `state_bytes`.
        assert!(
            s.footprint().resident <= 64_902,
            "{} bytes",
            s.footprint().resident
        );
    }

    #[test]
    fn churned_keys_leave_no_index_entries_behind() {
        // Regression: a bucket outlived its last row, so a join over a
        // churning key domain (a sequence id, a timestamp) grew the
        // index — and the bytes charged for it — without bound.
        let mut s = KeyedState::new();
        for k in 0..10_000 {
            s.update(vec![Value::Int(k)], &t(k), 1);
        }
        let full = s.footprint().resident;
        for k in 0..10_000 {
            assert_eq!(s.update(vec![Value::Int(k)], &t(k), -1), 0);
        }
        assert!(s.is_empty() && s.index.buckets.is_empty());
        // All that is left is the store's active segment (kept when
        // dead, under one segment of rows) — nothing per key.
        assert_eq!(s.footprint().resident, s.store.resident_bytes());
        assert!(
            s.footprint().resident * 100 < full,
            "{} of {full}",
            s.footprint().resident
        );
    }

    #[test]
    fn columnar_bag_spills_and_snapshots_identically() {
        let dir = std::env::temp_dir().join(format!("aspen-bag-spill-{}", std::process::id()));
        let mut plain = BagState::with_options(&StateOptions::columnar());
        let mut spilly = BagState::with_options(&StateOptions {
            spill: Some(SpillConfig::new(0, &dir)),
        });
        for i in 0..3000i64 {
            plain.insert_all(&[t(i % 100)]);
            spilly.insert_all(&[t(i % 100)]);
        }
        assert!(spilly.footprint().spilled > 0, "cold segments must spill");
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
