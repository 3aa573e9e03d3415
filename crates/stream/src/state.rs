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
//! indexed by tuple/key hash in one compact key index (`KeyIndex`, also
//! an indexed join side's whole state): about 24 B a key and 8 B a row,
//! each key's rows in arrival order, the oldest unlinked in O(1).
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

/// Bytes a vector's capacity holds.
pub(crate) fn cap<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}

// ---------------------------------------------------------------------------
// Key index

/// An index position holding no id.
const VACANT: u32 = u32::MAX;

/// A power-of-two table of `u32` ids under linear probing at load ≤ 7/8,
/// grown by doubling from 8, with backward-shift deletion — the one probe
/// code in this crate: a [`KeyIndex`] finds its entries through one and
/// `operators::AggregateOp` its group slots. The table keeps no hashes;
/// every call that moves ids takes `hash`, which rehashes an id from
/// where its owner keeps the key.
#[derive(Debug, Clone, Default)]
pub(crate) struct ProbeTable {
    slots: Vec<u32>,
    /// Ids indexed.
    len: usize,
}

impl ProbeTable {
    /// Probe from hash `h` for an id `hit` accepts: `Ok` at its position,
    /// else `Err` at the first vacancy. Only for a non-empty table.
    fn probe(&self, h: u64, hit: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut pos = h as usize & mask;
        loop {
            match self.slots[pos] {
                VACANT => return Err(pos),
                id if hit(id) => return Ok(pos),
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    /// The id probed from `h` that `hit` accepts.
    pub(crate) fn find(&self, h: u64, hit: impl Fn(u32) -> bool) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(h, hit).ok().map(|pos| self.slots[pos])
    }

    /// Index `id` (not yet indexed) under `h`, first doubling the table if
    /// it would load past 7/8.
    pub(crate) fn insert(&mut self, h: u64, id: u32, hash: impl Fn(u32) -> u64) {
        self.len += 1;
        if self.len * 8 > self.slots.len() * 7 {
            self.rebuild((self.slots.len() * 2).max(8), hash);
        }
        let pos = self.probe(h, |_| false).unwrap_err();
        self.slots[pos] = id;
    }

    /// Unindex `id`, indexed under `h`. Each id further along the probe
    /// run moves back into the hole unless its home lies cyclically in
    /// (hole, its position].
    pub(crate) fn remove(&mut self, h: u64, id: u32, hash: impl Fn(u32) -> u64) {
        let mask = self.slots.len() - 1;
        let mut hole = self.probe(h, |s| s == id).expect("an indexed id");
        let mut pos = (hole + 1) & mask;
        while self.slots[pos] != VACANT {
            let home = hash(self.slots[pos]) as usize & mask;
            if pos.wrapping_sub(home) & mask >= pos.wrapping_sub(hole) & mask {
                self.slots[hole] = self.slots[pos];
                hole = pos;
            }
            pos = (pos + 1) & mask;
        }
        self.slots[hole] = VACANT;
        self.len -= 1;
    }

    /// Index as `new` the id `old`, indexed under `h`, in its place.
    pub(crate) fn rename(&mut self, h: u64, old: u32, new: u32) {
        let pos = self.probe(h, |s| s == old).expect("an indexed id");
        self.slots[pos] = new;
    }

    /// Shrink to the smallest table that holds its ids at load ≤ 7/8.
    pub(crate) fn fit(&mut self, hash: impl Fn(u32) -> u64) {
        let mut len = 8;
        while self.len * 8 > len * 7 {
            len *= 2;
        }
        if len < self.slots.len() {
            self.rebuild(len, hash);
        }
    }

    fn rebuild(&mut self, len: usize, hash: impl Fn(u32) -> u64) {
        for id in std::mem::replace(&mut self.slots, vec![VACANT; len]) {
            if id != VACANT {
                let pos = self.probe(hash(id), |_| false).unwrap_err();
                self.slots[pos] = id;
            }
        }
    }

    /// Positions, vacant ones included.
    #[cfg(test)]
    pub(crate) fn slots(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn heap_bytes(&self) -> usize {
        cap(&self.slots)
    }
}

/// No link: the end of a chain.
const NIL: u32 = u32::MAX;

/// A key: its hash and the first and last links of its bucket.
#[derive(Debug, Clone, Copy)]
struct Entry {
    hash: u64,
    head: u32,
    tail: u32,
}

/// A row of a bucket, as its offset from the index's base, and the link
/// after it (a free link's is the next free one).
#[derive(Debug, Clone, Copy)]
struct Link {
    offset: u32,
    next: u32,
}

/// `hash → live row ids`, each bucket in arrival order. [`KeyedState`]
/// and [`BagState`] point it at rows of their own store; an indexed join
/// side (`operators::JoinOp`) keeps nothing else and points it at rows
/// its scan's window or source log holds.
///
/// **Layout.** A [`ProbeTable`] of entry ids; one `{hash, head, tail}`
/// entry a key, 16 B, swap-removed when its bucket empties; and one arena
/// of 8 B `{offset, next}` links chaining each bucket oldest first, freed
/// links reused through a free list. About 24 B a key (the table at load
/// 7/16–7/8 plus the entry) and 8 B a row. Appending to a bucket and
/// unlinking its head — every window retraction — are O(1); a row in the
/// middle is unlinked during the walk that finds it ([`KeyIndex::find`]).
///
/// **Rows as offsets.** A link holds a row as a 32-bit offset from a
/// base the index keeps. A row the offsets cannot reach re-bases the
/// index on its oldest live row as it lays the links out afresh, in
/// O(rows); a live span of 2³¹ or more from there gives every link its
/// offset's high half (`high`), once and for good. So rows arriving in
/// order re-base at most once per 2³¹ arrivals, and any span works.
///
/// **Bytes by capacity.** Vectors grow by an eighth, and shrink to fit
/// when a removal leaves them half empty, so the index charges what it
/// holds and tracks the live key domain; an emptied index holds nothing.
#[derive(Debug, Clone)]
pub(crate) struct KeyIndex {
    table: ProbeTable,
    entries: Vec<Entry>,
    links: Vec<Link>,
    /// The offsets' high halves, a link each; empty until a live span
    /// reaches 2³².
    high: Vec<u32>,
    /// The first free link.
    free: u32,
    base: u64,
    rows: usize,
}

/// A row [`KeyIndex::find`] found, for [`KeyIndex::unlink`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Found {
    pub(crate) row: u64,
    entry: u32,
    /// The link before it in its bucket.
    prev: u32,
    link: u32,
}

impl Default for KeyIndex {
    fn default() -> Self {
        KeyIndex {
            table: ProbeTable::default(),
            entries: Vec::new(),
            links: Vec::new(),
            high: Vec::new(),
            free: NIL,
            base: 0,
            rows: 0,
        }
    }
}

/// Room for one more element: an eighth more (at least one), so the
/// slack stays within an eighth of what a vector holds.
fn grow<T>(v: &mut Vec<T>) {
    if v.len() == v.capacity() {
        v.reserve_exact((v.len() / 8).max(1));
    }
}

impl KeyIndex {
    /// The entry of the keys (or tuples) that hash to `h` ([`hash_of`]).
    fn entry(&self, h: u64) -> Option<u32> {
        self.table.find(h, |e| self.entries[e as usize].hash == h)
    }

    fn row_at(&self, link: u32) -> u64 {
        let high = self
            .high
            .get(link as usize)
            .map_or(0, |&h| (h as u64) << 32);
        self.base + (high | self.links[link as usize].offset as u64)
    }

    /// The links of the chain from `link`, in order.
    fn chain(&self, mut link: u32) -> impl Iterator<Item = u32> + '_ {
        std::iter::from_fn(move || {
            let l = (link != NIL).then_some(link)?;
            link = self.links[l as usize].next;
            Some(l)
        })
    }

    /// The rows of bucket `h`, oldest first.
    pub(crate) fn rows(&self, h: u64) -> impl Iterator<Item = u64> + '_ {
        let head = self.entry(h).map_or(NIL, |e| self.entries[e as usize].head);
        self.chain(head).map(|l| self.row_at(l))
    }

    /// The oldest row of bucket `h` that `hit` accepts.
    pub(crate) fn find(&self, h: u64, mut hit: impl FnMut(u64) -> bool) -> Option<Found> {
        let entry = self.entry(h)?;
        let (mut prev, mut link) = (NIL, self.entries[entry as usize].head);
        while link != NIL {
            let row = self.row_at(link);
            if hit(row) {
                return Some(Found {
                    row,
                    entry,
                    prev,
                    link,
                });
            }
            prev = link;
            link = self.links[link as usize].next;
        }
        None
    }

    /// Append `row` to bucket `h`.
    pub(crate) fn insert(&mut self, h: u64, row: u64) {
        let link = self.link(row);
        match self.entry(h) {
            Some(e) => {
                let entry = &mut self.entries[e as usize];
                self.links[entry.tail as usize].next = link;
                entry.tail = link;
            }
            None => {
                let e = self.entries.len() as u32;
                grow(&mut self.entries);
                self.entries.push(Entry {
                    hash: h,
                    head: link,
                    tail: link,
                });
                let entries = &self.entries;
                self.table.insert(h, e, |id| entries[id as usize].hash);
            }
        }
        self.rows += 1;
    }

    /// Drop `row` from bucket `h`; whether it was there.
    #[cfg(test)]
    pub(crate) fn remove(&mut self, h: u64, row: u64) -> bool {
        let found = self.find(h, |r| r == row);
        found.map(|f| self.unlink(f)).is_some()
    }

    /// Drop every row below `to` off the front of bucket `h`, each in
    /// O(1), rows an earlier drop left behind included; the newest one
    /// dropped.
    pub(crate) fn pop_below(&mut self, h: u64, to: u64) -> Option<u64> {
        let mut dropped = None;
        while let Some(f) = self.find(h, |_| true).filter(|f| f.row < to) {
            dropped = Some(f.row);
            self.unlink(f);
        }
        dropped
    }

    /// Drop the row `find` found (nothing else changed since).
    pub(crate) fn unlink(&mut self, found: Found) {
        let Found {
            entry, prev, link, ..
        } = found;
        let next = self.links[link as usize].next;
        let e = &mut self.entries[entry as usize];
        if prev == NIL {
            e.head = next;
        } else {
            self.links[prev as usize].next = next;
        }
        if e.tail == link {
            e.tail = prev;
        }
        let empty = e.head == NIL;
        self.links[link as usize].next = self.free;
        self.free = link;
        self.rows -= 1;
        if empty {
            self.drop_entry(entry);
        }
        self.fit();
    }

    /// Unindex an emptied bucket's entry; the last entry takes its place.
    fn drop_entry(&mut self, e: u32) {
        let entries = &self.entries;
        let h = entries[e as usize].hash;
        self.table.remove(h, e, |id| entries[id as usize].hash);
        let last = self.entries.len() as u32 - 1;
        self.entries.swap_remove(e as usize);
        if e != last {
            self.table.rename(self.entries[e as usize].hash, last, e);
        }
    }

    /// A link holding `row`, ending a chain: a free one if any.
    fn link(&mut self, row: u64) -> u32 {
        if self.rows == 0 {
            self.base = row;
        }
        let reach = match self.high.is_empty() {
            true => u32::MAX as u64,
            false => u64::MAX,
        };
        if row
            .checked_sub(self.base)
            .is_none_or(|offset| offset > reach)
        {
            self.compact(Some(row));
        }
        let offset = row - self.base;
        let link = Link {
            offset: offset as u32,
            next: NIL,
        };
        let id = match self.free {
            NIL => {
                grow(&mut self.links);
                self.links.push(link);
                if !self.high.is_empty() {
                    grow(&mut self.high);
                    self.high.push(0);
                }
                self.links.len() as u32 - 1
            }
            id => {
                self.free = self.links[id as usize].next;
                self.links[id as usize] = link;
                id
            }
        };
        if let Some(high) = self.high.get_mut(id as usize) {
            *high = (offset >> 32) as u32;
        }
        id
    }

    /// After a removal: free everything once empty, and shrink a vector
    /// that is half empty to fit.
    fn fit(&mut self) {
        if self.rows == 0 {
            *self = KeyIndex::default();
            return;
        }
        if self.entries.len() * 2 <= self.entries.capacity() {
            self.entries.shrink_to_fit();
            let entries = &self.entries;
            self.table.fit(|id| entries[id as usize].hash);
        }
        if self.rows * 2 <= self.links.capacity() {
            self.compact(None);
        }
    }

    /// Lay the live links out afresh, bucket by bucket, in an arena of
    /// exactly the rows, re-based on the oldest of them and `row`; the
    /// offsets widen if the span from there reaches 2³¹.
    fn compact(&mut self, row: Option<u64>) {
        let live = self.entries.iter().flat_map(|e| self.chain(e.head));
        let rows = live.map(|l| self.row_at(l)).chain(row);
        let (lo, hi) = rows.fold((u64::MAX, 0), |(lo, hi), r| (lo.min(r), hi.max(r)));
        let wide = !self.high.is_empty() || hi - lo > (u32::MAX / 2) as u64;
        let mut links = Vec::with_capacity(self.rows);
        let mut high = Vec::with_capacity(if wide { self.rows } else { 0 });
        for e in 0..self.entries.len() {
            let mut old = self.entries[e].head;
            self.entries[e].head = links.len() as u32;
            while old != NIL {
                let offset = self.row_at(old) - lo;
                if wide {
                    high.push((offset >> 32) as u32);
                }
                links.push(Link {
                    offset: offset as u32,
                    next: links.len() as u32 + 1,
                });
                old = self.links[old as usize].next;
            }
            let tail = links.len() - 1;
            links[tail].next = NIL;
            self.entries[e].tail = tail as u32;
        }
        self.links = links;
        self.high = high;
        self.free = NIL;
        self.base = lo;
    }

    /// Rows indexed.
    pub(crate) fn len(&self) -> usize {
        self.rows
    }

    /// Resident bytes, by capacity: the table, the entries and the links.
    pub(crate) fn heap_bytes(&self) -> usize {
        self.table.heap_bytes() + cap(&self.entries) + cap(&self.links) + cap(&self.high)
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
    index: KeyIndex,
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
            index: KeyIndex::default(),
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
        let store = &self.store;
        match self.index.find(h, |row| store.row_matches(row, &probe, ts)) {
            Some(found) => {
                let row = found.row;
                let old = self.store.weight(row).unwrap_or(0);
                let now = old + sign;
                // Gross count from the actual multiplicity transition, so
                // a retract-before-insert pair nets to zero instead of
                // drifting.
                self.live = (self.live as i64 + now.max(0) - old.max(0)) as usize;
                if now == 0 {
                    self.store.mark_dead(row);
                    self.index.unlink(found);
                    if self.store.is_empty() {
                        // No live row: the active segment goes too.
                        self.store.clear();
                    }
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
        for row in self.index.rows(hash_of(key)) {
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
        Footprint::of(&self.store) + Footprint::heap(self.index.heap_bytes())
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
    index: KeyIndex,
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
            index: KeyIndex::default(),
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

    fn retract_one(&mut self, tuple: &Tuple) {
        let cells = tuple_cells(tuple);
        let ts = tuple.timestamp().as_micros();
        let store = &self.store;
        // The oldest occurrence leaves first.
        match self
            .index
            .find(hash_of(tuple), |r| store.row_matches(r, &cells, ts))
        {
            Some(found) => {
                self.store.mark_dead(found.row);
                self.index.unlink(found);
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
        let heap = self.index.heap_bytes() + debts.sum::<usize>();
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
        self.for_each_in(lo, hi, |_, t| out.push(t));
    }

    /// Visit the live rows with ids in `[lo, hi)` with their ids, in
    /// arrival order; each touched segment is decoded once.
    pub(crate) fn for_each_in(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, Tuple)) {
        self.store.for_each_live_in(lo, hi, |row, cells, ts, _| {
            f(row, cells_tuple(cells, ts));
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
        assert!(s.is_empty() && s.index.entries.is_empty());
        // Nothing is left — nothing per key, and no segment.
        assert_eq!(s.footprint().resident, 0, "of {full}");
    }

    /// A state whose last live row is retracted holds what a fresh one
    /// holds — nothing, its store's active segment included — and takes
    /// rows again, a retract-before-insert debt among them.
    #[test]
    fn an_emptied_keyed_state_charges_nothing() {
        let mut s = KeyedState::new();
        assert_eq!(s.footprint().resident, 0);
        for round in 0..2 {
            for k in 0..40 {
                s.update(vec![Value::Int(k % 7)], &t(k), 1);
            }
            assert!(s.footprint().resident > 0);
            for k in 0..40 {
                s.update(vec![Value::Int(k % 7)], &t(k), -1);
            }
            assert!(s.is_empty(), "round {round}");
            assert_eq!(s.footprint().resident, 0, "round {round}");
        }
        // A debt is a live row of negative weight: the store keeps it.
        s.update(vec![Value::Int(1)], &t(1), -1);
        assert!(s.footprint().resident > 0);
        assert_eq!(s.update(vec![Value::Int(1)], &t(1), 1), 0);
        assert_eq!(s.footprint().resident, 0);
        s.update(vec![Value::Int(2)], &t(2), 1);
        assert_eq!(s.get(&[Value::Int(2)]), vec![(t(2), 1)]);
    }

    /// `index` holds exactly `model`'s buckets (bucket `k` under
    /// `hash_of(&k)`), in arrival order.
    fn buckets_match(index: &KeyIndex, model: &[Vec<u64>], ctx: &str) {
        let keys = model.iter().filter(|b| !b.is_empty()).count();
        let rows: usize = model.iter().map(Vec::len).sum();
        assert_eq!(index.len(), rows, "rows, {ctx}");
        assert_eq!(index.entries.len(), keys, "keys, {ctx}");
        for (k, bucket) in model.iter().enumerate() {
            let got: Vec<u64> = index.rows(hash_of(&k)).collect();
            assert_eq!(got, *bucket, "bucket {k}, {ctx}");
        }
    }

    /// [`buckets_match`], charging no more than the `HashMap<u64,
    /// Vec<u64>>` the index replaced was charged: 48 B a key and 8 B a row.
    fn index_matches(index: &KeyIndex, model: &[Vec<u64>], ctx: &str) {
        buckets_match(index, model, ctx);
        let keys = model.iter().filter(|b| !b.is_empty()).count();
        let rows: usize = model.iter().map(Vec::len).sum();
        let charged = index.heap_bytes();
        assert!(
            charged <= keys * MAP_ENTRY + rows * 8,
            "{charged} B for {keys} keys and {rows} rows, {ctx}"
        );
    }

    #[test]
    fn key_index_keeps_arrival_order_within_the_old_charge() {
        use rand::seq::SliceRandom;
        for seed in crate::test_seeds(2) {
            for keys in [1, 2, 8, 64, 512, 4_096] {
                for per_key in [1, 2, 4, 8] {
                    let ctx = format!("{keys} keys x {per_key}, seed {seed}");
                    let mut rng = seeded(seed ^ (keys * 8 + per_key) as u64);
                    let mut index = KeyIndex::default();
                    let mut model = vec![Vec::new(); keys];
                    // Rows arrive round-robin over the keys, as a stream's do.
                    let n = (keys * per_key) as u64;
                    for row in 0..n {
                        let k = row as usize % keys;
                        index.insert(hash_of(&k), row);
                        model[k].push(row);
                    }
                    index_matches(&index, &model, &format!("built, {ctx}"));
                    // Half leave in a random order: heads, middles, tails
                    // and whole buckets.
                    let mut order: Vec<u64> = (0..n).collect();
                    order.shuffle(&mut rng);
                    let (gone, kept) = order.split_at(n as usize / 2);
                    for &row in gone {
                        let k = row as usize % keys;
                        assert!(index.remove(hash_of(&k), row), "{row}, {ctx}");
                        model[k].retain(|&r| r != row);
                    }
                    index_matches(&index, &model, &format!("half retracted, {ctx}"));
                    assert!(!index.remove(hash_of(&0usize), n), "never held, {ctx}");
                    for &row in kept {
                        assert!(index.remove(hash_of(&(row as usize % keys)), row));
                    }
                    assert_eq!(index.heap_bytes(), 0, "emptied, {ctx}");
                    assert_eq!(index.table.slots(), 0, "emptied, {ctx}");
                }
            }
        }
    }

    /// Rows far apart: a live span under 2^31 re-bases and keeps a link
    /// 32-bit, and a row kept across 2^32 later arrivals widens the links.
    #[test]
    fn key_index_rows_span_two_to_the_32() {
        for seed in crate::test_seeds(4) {
            let mut rng = seeded(0x5BA4 ^ seed);
            let mut index = KeyIndex::default();
            let mut model = vec![Vec::new(); 3];
            let mut live: Vec<(usize, u64)> = Vec::new();
            let mut row = rng.gen_range(0..1u64 << 32);
            for phase in ["narrow", "pinned"] {
                if phase == "pinned" {
                    // Never retracted: the span grows past 2^32.
                    row += 1;
                    index.insert(hash_of(&0usize), row);
                    model[0].push(row);
                }
                for step in 0..200 {
                    let ctx = format!("{phase} step {step}, seed {seed}");
                    row += rng.gen_range(1..1u64 << 30);
                    let k = rng.gen_range(0..3usize);
                    index.insert(hash_of(&k), row);
                    model[k].push(row);
                    live.push((k, row));
                    // Now and then any row leaves, and rows 2^30 old do.
                    let mut gone = Vec::new();
                    if rng.gen_bool(0.5) {
                        gone.push(live.remove(rng.gen_range(0..live.len())));
                    }
                    while let Some(pos) = live.iter().position(|&(_, r)| r + (1 << 30) < row) {
                        gone.push(live.remove(pos));
                    }
                    for (k, r) in gone {
                        assert!(index.remove(hash_of(&k), r), "{ctx}");
                        model[k].retain(|&m| m != r);
                    }
                    buckets_match(&index, &model, &ctx);
                }
                let wide = !index.high.is_empty();
                assert_eq!(wide, phase == "pinned", "{phase}, seed {seed}");
            }
        }
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
