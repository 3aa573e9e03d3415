//! Offline stand-in for a columnar storage library (Kuzu-style column
//! groups, in the spirit of the `ruzu` port). Implements exactly the
//! surface the stream engine's state layer needs:
//!
//! * [`Cell`] — a self-describing scalar (the exchange type; the engine
//!   converts its own `Value` enum to and from cells at the boundary).
//!   Equality and hashing are *bit-exact* for floats, matching a
//!   total-order comparison: `NaN == NaN`, `0.0 != -0.0`.
//! * `Column` — one attribute of a segment. A column starts typed from
//!   its first cell (`i64`, `f64` bits, `bool`, `u64`, or text) and
//!   promotes itself to a row-of-cells `Mixed` fallback the moment a
//!   non-conforming cell arrives, so the store never rejects data. Only
//!   the one *active* segment of a store holds the append form (plain
//!   8-byte words; text as 4-byte codes of a [`Dict`]).
//!   Sealing re-encodes each column at the width its values need and
//!   keeps, per segment and per column, whichever encoding measures the
//!   fewest bytes — nothing but the data selects it:
//!   * integers and stamps: plain words, run-length runs, or strided
//!     frame-of-reference (`min + step · d`, `d` a [`Packed`] cell of
//!     1, 2 or 4 bytes, `step` the GCD of the values' distances from
//!     `min`) — stamps on a fixed clock pack as tick counts;
//!   * floats: decimals (`int / 10^exp`, `exp` ≤ 4, the integers sealed
//!     as above) when every value decodes back bit for bit from its
//!     integer, else plain 8-byte bits — `-0.0`, NaN, ±inf, off-grid
//!     values and magnitudes from 2^53 keep a segment plain;
//!   * text: codes sealed like an integer column, plus an `Arc` to the
//!     immutable dictionary generation ([`Gen`]) they resolve against —
//!     or plain per-row strings (one blob, narrow offsets) when those
//!     measure fewer bytes.
//! * [`Packed`] — the one narrow-integer column: `u8`, `u16`, `u32` or
//!   `u64` cells, optionally against a base, widening itself in place
//!   when a value does not fit. Sealed columns use it at the width their
//!   values need (frame-of-reference deltas, string offsets); the
//!   engine's mutable operator state (aggregate slots, key indexes) uses
//!   it for ids, counts and keys that stay small.
//! * [`Dict`] — the text dictionary. A store owns one and interns its
//!   own text ([`TupleStore::push_cells`]), or stores that number the
//!   same rows share one that a single writer interns in row order, and
//!   are handed the codes ([`TupleStore::push_coded`]): a stream source's,
//!   coded once at admission for every log of it. Interning a string the
//!   dictionary holds allocates nothing. A string lives as long as a
//!   generation holding it, so as long as a segment — resident or spilled
//!   — holds codes of it; an *epoch* of codes whose strings stopped
//!   recurring ends at a segment boundary, and its strings go with the
//!   last segment coded in it (see [`Dict`]).
//! * [`TupleStore`] — an append-only row store laid out column-wise in
//!   fixed-capacity *segments*. Every row gets a monotonically increasing
//!   row id (never reused, stable across compaction), a timestamp, a
//!   liveness bit, and optionally a signed weight. Segments are aligned
//!   in row-id space: each starts on a multiple of the segment size (or
//!   where the store's numbering starts), so two stores that number the
//!   same rows identically cut them into the same segments. Timestamps
//!   (sealed like an integer column), liveness (a bit a row) and weights
//!   stay resident always; the value columns of a sealed segment may be
//!   *spilled* to disk ([`SpillConfig`]) and are decoded transiently on
//!   access. A spill file carries an FNV-1a checksum of its payload; one
//!   that cannot be read back, fails its checksum or does not decode makes
//!   its segment's rows read as absent and is counted
//!   ([`TupleStore::spill_read_failures`]), as is a file that cannot be
//!   written ([`TupleStore::spill_write_failures`]). Fully-dead sealed
//!   segments are dropped (and their spill files deleted) automatically.
//! * [`SegmentPool`] — a sealed segment's stamps and value columns are
//!   two immutable, shared parts; stores of one pool that seal a full,
//!   aligned segment another already sealed take its parts. Liveness,
//!   weights and spilling stay per store.
//!
//! Byte accounting is first-class: [`TupleStore::resident_bytes`] /
//! [`TupleStore::spilled_bytes`] measure the actual heap/disk footprint
//! (the byte length of every vector held), which is what the engine
//! surfaces through its telemetry. A pooled part is charged once, to
//! [`SegmentPool::bytes`], until its last holder drops it.
//! [`TupleStore::census`] splits the sealed bytes by encoding, and
//! reports the store's own dictionary as `dictionary`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::Write;
use std::ops::Deref;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};

mod packed;
pub use packed::Packed;

/// Rows per segment. Small enough that transiently decoding one spilled
/// segment is cheap, large enough that per-segment overhead amortizes.
const SEG_CAP: u32 = 1024;

/// A self-describing scalar cell. `Pair` carries a `(u16, u8)` opaque
/// payload (the engine uses it for typed parameter slots).
#[derive(Debug, Clone)]
pub enum Cell {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(String),
    Ts(u64),
    Pair(u16, u8),
}

impl PartialEq for Cell {
    fn eq(&self, other: &Self) -> bool {
        CellRef::from(self) == CellRef::from(other)
    }
}

impl Eq for Cell {}

impl Hash for Cell {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Cell::Null => 0u8.hash(state),
            Cell::Bool(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Cell::Int(i) => {
                2u8.hash(state);
                i.hash(state);
            }
            Cell::Float(f) => {
                3u8.hash(state);
                f.to_bits().hash(state);
            }
            Cell::Text(s) => {
                4u8.hash(state);
                s.hash(state);
            }
            Cell::Ts(t) => {
                5u8.hash(state);
                t.hash(state);
            }
            Cell::Pair(a, b) => {
                6u8.hash(state);
                a.hash(state);
                b.hash(state);
            }
        }
    }
}

/// A cell as a store takes it in or compares it: text borrowed, so a
/// string the store's dictionary already holds is pushed without a copy.
#[derive(Debug, Clone, Copy)]
pub enum CellRef<'a> {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Text(&'a str),
    Ts(u64),
    Pair(u16, u8),
}

impl<'a> From<&'a Cell> for CellRef<'a> {
    fn from(c: &'a Cell) -> Self {
        match c {
            Cell::Null => CellRef::Null,
            Cell::Bool(b) => CellRef::Bool(*b),
            Cell::Int(i) => CellRef::Int(*i),
            Cell::Float(f) => CellRef::Float(*f),
            Cell::Text(s) => CellRef::Text(s),
            Cell::Ts(t) => CellRef::Ts(*t),
            Cell::Pair(a, b) => CellRef::Pair(*a, *b),
        }
    }
}

impl PartialEq for CellRef<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (CellRef::Null, CellRef::Null) => true,
            (CellRef::Bool(a), CellRef::Bool(b)) => a == b,
            (CellRef::Int(a), CellRef::Int(b)) => a == b,
            // Bit equality: NaN == NaN, 0.0 != -0.0 — the same equivalence
            // a total-order float comparison induces.
            (CellRef::Float(a), CellRef::Float(b)) => a.to_bits() == b.to_bits(),
            (CellRef::Text(a), CellRef::Text(b)) => a == b,
            (CellRef::Ts(a), CellRef::Ts(b)) => a == b,
            (CellRef::Pair(a, x), CellRef::Pair(b, y)) => a == b && x == y,
            _ => false,
        }
    }
}

impl CellRef<'_> {
    fn to_cell(self) -> Cell {
        match self {
            CellRef::Null => Cell::Null,
            CellRef::Bool(b) => Cell::Bool(b),
            CellRef::Int(i) => Cell::Int(i),
            CellRef::Float(f) => Cell::Float(f),
            CellRef::Text(s) => Cell::Text(s.to_owned()),
            CellRef::Ts(t) => Cell::Ts(t),
            CellRef::Pair(a, b) => Cell::Pair(a, b),
        }
    }
}

/// Sealed bytes by encoding: a store's sealed segments' stamps and
/// resident value columns, counted as they seal, spill and drop, and its
/// own text dictionary. A float column that fails the decimal check
/// shows here as `float`, 8 B a row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Census([usize; 9]);

impl Census {
    /// What each count is, in order.
    const ENCODINGS: [&'static str; 9] = [
        "plain",
        "rle",
        "for",
        "decimal",
        "float",
        "coded_text",
        "plain_text",
        "mixed",
        "dictionary",
    ];

    /// `(encoding, bytes)` for plain, RLE and FOR words, decimal and
    /// plain floats, coded and plain text, mixed cells, and the store's
    /// dictionary (a store coded against a shared one shows 0 there).
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, usize)> {
        Census::ENCODINGS.into_iter().zip(self.0)
    }

    fn of(encoding: usize, bytes: usize) -> Census {
        let mut out = Census::default();
        out.0[encoding] = bytes;
        out
    }
}

impl std::ops::AddAssign for Census {
    fn add_assign(&mut self, other: Census) {
        self.0.iter_mut().zip(other.0).for_each(|(a, b)| *a += b);
    }
}

impl std::ops::SubAssign for Census {
    fn sub_assign(&mut self, other: Census) {
        self.0.iter_mut().zip(other.0).for_each(|(a, b)| *a -= b);
    }
}

impl std::iter::Sum for Census {
    fn sum<I: Iterator<Item = Census>>(iter: I) -> Census {
        iter.fold(Census::default(), |mut a, b| {
            a += b;
            a
        })
    }
}

// ---------------------------------------------------------------------------
// Word columns

/// A column of 64-bit words — `i64` bit patterns or stamps. Plain while
/// it takes appends; sealed to whichever of plain, run-length and
/// frame-of-reference measures the fewest bytes.
#[derive(Debug, Clone)]
enum Words {
    Plain(Vec<u64>),
    /// `ends[i]` is the exclusive prefix row count of run `i`.
    Rle {
        values: Vec<u64>,
        ends: Vec<u32>,
    },
    /// Row `i` is `base + step · deltas[i]`; `base` is the column's
    /// minimum and `step` the GCD of every `x − base` (1 when all equal),
    /// so stamps on a fixed clock pack as tick counts.
    For {
        base: u64,
        step: u64,
        deltas: Packed,
    },
}

impl Words {
    fn len(&self) -> usize {
        match self {
            Words::Plain(v) => v.len(),
            Words::Rle { ends, .. } => ends.last().copied().unwrap_or(0) as usize,
            Words::For { deltas, .. } => deltas.len(),
        }
    }

    fn heap_bytes(&self) -> usize {
        match self {
            Words::Plain(v) => v.len() * 8,
            Words::Rle { values, ends } => values.len() * 8 + ends.len() * 4,
            Words::For { deltas, .. } => deltas.heap_bytes(),
        }
    }

    /// Its [`Census`] index: plain, RLE or FOR.
    fn encoding(&self) -> usize {
        match self {
            Words::Plain(_) => 0,
            Words::Rle { .. } => 1,
            Words::For { .. } => 2,
        }
    }

    fn push(&mut self, x: u64) {
        match self {
            Words::Plain(v) => v.push(x),
            _ => unreachable!("a sealed column takes no appends"),
        }
    }

    #[inline]
    fn get(&self, i: usize) -> u64 {
        match self {
            Words::Plain(v) => v[i],
            Words::Rle { values, ends } => values[ends.partition_point(|&e| e as usize <= i)],
            Words::For { base, step, deltas } => {
                base.wrapping_add(step.wrapping_mul(deltas.get(i)))
            }
        }
    }

    /// Re-encode at the fewest bytes; `signed` orders the words as `i64`.
    /// Plain stays unless another form actually shrinks it.
    fn seal(&mut self, signed: bool) {
        let Words::Plain(v) = self else { return };
        if v.is_empty() {
            return;
        }
        // Flipping the sign bit maps `i64` order onto `u64` order, so one
        // min/max serves both and `hi - lo` cannot overflow.
        let flip = (signed as u64) << 63;
        let (lo, hi) = v.iter().fold((u64::MAX, 0), |(lo, hi), &x| {
            (lo.min(x ^ flip), hi.max(x ^ flip))
        });
        // The stride, the GCD of every distance from `lo` (given up at 1),
        // can only narrow a column wider than a byte.
        let stride = || {
            let gcd = v.iter().try_fold(0, |g, &x| match gcd(g, (x ^ flip) - lo) {
                1 => None,
                g => Some(g),
            });
            gcd.unwrap_or(1).max(1)
        };
        let step = if hi - lo > 0xFF { stride() } else { 1 };
        let plain = v.len() * 8;
        let rle = 12 * (1 + v.windows(2).filter(|w| w[0] != w[1]).count());
        let range = (hi - lo) / step;
        let packed = v.len() * Packed::width_of(range);
        if packed < plain && packed <= rle {
            let base = lo ^ flip;
            let delta = |&x: &u64| x.wrapping_sub(base) / step;
            let deltas = Packed::pack(range, v.iter().map(delta));
            *self = Words::For { base, step, deltas };
        } else if rle < plain {
            let (values, ends) = rle_encode(v);
            *self = Words::Rle { values, ends };
        }
    }
}

/// Stein's binary GCD: shifts and subtractions, no division.
fn gcd(a: u64, b: u64) -> u64 {
    if a == 0 || b == 0 {
        return a | b;
    }
    let shift = (a | b).trailing_zeros();
    let (mut a, mut b) = (a >> a.trailing_zeros(), b >> b.trailing_zeros());
    while a != b {
        (a, b) = (a.min(b), a.max(b) - a.min(b));
        b >>= b.trailing_zeros();
    }
    a << shift
}

/// The runs of a non-empty `v`.
fn rle_encode(v: &[u64]) -> (Vec<u64>, Vec<u32>) {
    let mut values = Vec::new();
    let mut ends = Vec::new();
    for (i, w) in v.windows(2).enumerate() {
        if w[0] != w[1] {
            values.push(w[0]);
            ends.push(i as u32 + 1);
        }
    }
    values.extend(v.last());
    ends.push(v.len() as u32);
    (values, ends)
}

// ---------------------------------------------------------------------------
// Text dictionaries

/// Bytes charged to a gauge while the value holding this lives.
#[derive(Debug)]
struct Charge(Arc<AtomicUsize>, usize);

impl Charge {
    fn new(gauge: &Arc<AtomicUsize>, bytes: usize) -> Charge {
        gauge.fetch_add(bytes, Ordering::Relaxed);
        Charge(Arc::clone(gauge), bytes)
    }
}

impl Drop for Charge {
    fn drop(&mut self) {
        self.0.fetch_sub(self.1, Ordering::Relaxed);
    }
}

/// An `Arc`'s counts, ahead of the value in its allocation.
const ARC_HEADER: usize = 16;

/// The strings one publish added to an epoch: codes
/// `first..first + ends.len()`, back to back in `blob`, string `i` ending
/// at `ends[i]` (offsets as wide as the blob needs). Immutable; `prev` is
/// the run published before it in its epoch, and `jump` one further back
/// (Myers' skew-binary jump pointers), so finding a code's run takes
/// O(log runs) steps.
#[derive(Debug)]
struct Run {
    first: u32,
    blob: Box<str>,
    ends: Packed,
    /// Runs before it in its epoch.
    depth: u32,
    prev: Option<Arc<Run>>,
    jump: Option<Arc<Run>>,
    _charge: Charge,
}

impl Run {
    fn new(
        first: u32,
        blob: String,
        ends: &[u32],
        prev: Option<Arc<Run>>,
        gauge: &Arc<AtomicUsize>,
    ) -> Arc<Run> {
        let blob = blob.into_boxed_str();
        let ends = Packed::pack(blob.len() as u64, ends.iter().map(|&e| e as u64));
        let heap = ARC_HEADER + std::mem::size_of::<Run>() + blob.len() + ends.heap_bytes();
        let jump =
            prev.as_ref().map(
                |p| match (&p.jump, p.jump.as_ref().and_then(|j| j.jump.as_ref())) {
                    (Some(j), Some(jj)) if p.depth - j.depth == j.depth - jj.depth => {
                        Arc::clone(jj)
                    }
                    _ => Arc::clone(p),
                },
            );
        Arc::new(Run {
            first,
            blob,
            ends,
            depth: prev.as_ref().map_or(0, |p| p.depth + 1),
            prev,
            jump,
            _charge: Charge::new(gauge, heap),
        })
    }
}

impl Drop for Run {
    /// Unlinks the runs only this one held one at a time, so a long
    /// epoch does not drop recursively. (A jump's target is an older run
    /// `prev` still reaches.)
    fn drop(&mut self) {
        self.jump = None;
        let mut next = self.prev.take();
        while let Some(run) = next.and_then(|r| Arc::try_unwrap(r).ok()) {
            let mut run = run;
            run.jump = None;
            next = run.prev.take();
        }
    }
}

/// A published generation of a [`Dict`]: every string its epoch held
/// then, immutable — its newest run, which reaches the rest. A segment
/// holding codes holds the generation they resolve against, so the
/// strings live as long as a row may read them, and generations of one
/// epoch share every run they have in common.
#[derive(Debug, Clone)]
pub struct Gen(Arc<Run>);

impl Gen {
    fn get(&self, code: u32) -> &str {
        let mut run = &*self.0;
        while run.first > code {
            run = match &run.jump {
                Some(j) if j.first > code => j,
                _ => run
                    .prev
                    .as_deref()
                    .expect("a code of the generation's epoch"),
            };
        }
        plain_str(&run.blob, &run.ends, (code - run.first) as usize)
    }

    /// One past the last code it resolves.
    fn codes(&self) -> u32 {
        self.0.first + self.0.ends.len() as u32
    }

    fn same(a: &Option<Gen>, b: &Gen) -> bool {
        a.as_ref().is_some_and(|a| Arc::ptr_eq(&a.0, &b.0))
    }
}

/// An epoch whose interned bytes (and 16 B a string) pass this is checked
/// for strings gone stale at each segment boundary; see [`Dict::boundary`].
const EPOCH_CHECK: usize = 2_048;

/// Bits of a [`Dict`]'s memory of strings interned in earlier epochs,
/// cleared once a quarter are set.
const SEEN_BITS: usize = 8_192;

/// A text dictionary: strings interned to dense `u32` codes, one *epoch*
/// at a time, published as immutable [`Gen`]erations.
///
/// A store owns one and interns its own text, or is handed codes and the
/// generation of a dictionary shared by the stores that number the same
/// rows (a stream source's, interned at admission in arrival order, so
/// the codes of a row are the same in every store). Interning a string
/// the epoch holds allocates nothing.
///
/// **Epochs.** Codes restart at 0 in a new epoch, and an epoch changes
/// only at a segment boundary, so every segment's codes are of one epoch
/// and resolve against one generation. Each time an epoch's interned
/// bytes (16 B a string over its length) double from 2 KB, the next
/// boundary checks it. It is stale when fewer than half the bytes of the
/// strings it held at the previous check were interned again since, and
/// fewer than half its bytes are strings an earlier epoch held (so a
/// label set recurring over more rows than one epoch spans, up to about
/// 2 048 strings, grows an epoch until it holds the whole set). A stale
/// epoch ends: its strings go once no segment holds a generation of it.
/// A steady label set never turns over; a stream of distinct strings
/// keeps about its live rows' text plus one epoch. The decision depends
/// on what was interned alone, so every store of a shared dictionary sees
/// the same codes however its shards are scheduled.
///
/// **Bytes.** The writer's tables by capacity, plus a gauge of the
/// published runs still alive anywhere: O(1).
#[derive(Debug, Clone, Default)]
pub struct Dict {
    /// Bytes of the published runs still alive, wherever held (made by
    /// the first publish).
    gauge: Option<Arc<AtomicUsize>>,
    /// Codes by string hash under linear probing at load ≤ 7/8.
    slots: Vec<u32>,
    /// The last generation published.
    published: Option<Gen>,
    /// Strings interned since, as a run lays them out.
    open: String,
    open_ends: Vec<u32>,
    /// Codes interned this epoch.
    codes: u32,
    /// A bit a code: interned again since the last check (empty until
    /// the epoch's first).
    reused: Vec<u64>,
    /// Interned bytes (16 B a string over its length) this epoch, the
    /// codes and bytes held at the previous check, and the bytes of the
    /// next (at least [`EPOCH_CHECK`]).
    bytes: usize,
    old: (u32, usize),
    check_at: usize,
    /// From the first turnover on: a bit per string hash interned since
    /// the bits were last cleared, and how many are set.
    seen: Vec<u64>,
    seen_bits: usize,
    /// Bytes of this epoch's strings `seen` had seen (false positives
    /// under a quarter).
    returned: usize,
}

fn str_hash(s: &str) -> u64 {
    checksum(s.as_bytes())
}

impl Dict {
    pub fn new() -> Self {
        Dict::default()
    }

    /// Codes interned this epoch.
    fn len(&self) -> u32 {
        self.codes
    }

    /// The code of `s`, interned in the current epoch if it is new.
    pub fn intern(&mut self, s: &str) -> u32 {
        let h = str_hash(s);
        let code = match self.find(h, s) {
            Some(code) => code,
            None => {
                // A run's offsets are 32-bit.
                if self.open.len() + s.len() > u32::MAX as usize {
                    self.publish();
                }
                let code = self.len();
                if (code as usize + 1) * 8 > self.slots.len() * 7 {
                    self.rehash((self.slots.len() * 2).max(8));
                }
                self.open.push_str(s);
                self.open_ends.push(self.open.len() as u32);
                self.codes += 1;
                if !self.reused.is_empty() && self.reused.len() * 64 < self.codes as usize {
                    self.reused.push(0);
                }
                self.bytes += s.len() + 16;
                if self.see(h) {
                    self.returned += s.len() + 16;
                }
                let pos = self.probe(h, |_| false).unwrap_err();
                self.slots[pos] = code;
                code
            }
        };
        if let Some(word) = self.reused.get_mut(code as usize / 64) {
            *word |= 1 << (code % 64);
        }
        code
    }

    /// Whether `seen` holds hash `h`'s bit; it does from now on.
    fn see(&mut self, h: u64) -> bool {
        if self.seen.is_empty() {
            return false;
        }
        let bit = (h.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 51) as usize % SEEN_BITS;
        let (word, mask) = (bit / 64, 1 << (bit % 64));
        if self.seen[word] & mask != 0 {
            return true;
        }
        if self.seen_bits * 4 >= SEEN_BITS {
            self.seen.fill(0);
            self.seen_bits = 0;
        }
        self.seen[word] |= mask;
        self.seen_bits += 1;
        false
    }

    fn find(&self, h: u64, s: &str) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(h, |c| self.get(c) == s)
            .ok()
            .map(|p| self.slots[p])
    }

    /// From `h`'s home: `Ok` at the code `hit` accepts, else `Err` at the
    /// first vacancy.
    fn probe(&self, h: u64, hit: impl Fn(u32) -> bool) -> Result<usize, usize> {
        let mask = self.slots.len() - 1;
        let mut pos = h as usize & mask;
        loop {
            match self.slots[pos] {
                u32::MAX => return Err(pos),
                c if hit(c) => return Ok(pos),
                _ => pos = (pos + 1) & mask,
            }
        }
    }

    fn rehash(&mut self, len: usize) {
        self.slots = vec![u32::MAX; len];
        for code in 0..self.len() {
            let pos = self.probe(str_hash(self.get(code)), |_| false).unwrap_err();
            self.slots[pos] = code;
        }
    }

    /// The string of a code of the current epoch.
    fn get(&self, code: u32) -> &str {
        let open_first = self.len() - self.open_ends.len() as u32;
        match code.checked_sub(open_first) {
            Some(i) => {
                let i = i as usize;
                let start = if i == 0 { 0 } else { self.open_ends[i - 1] };
                &self.open[start as usize..self.open_ends[i] as usize]
            }
            None => self.published.as_ref().expect("published codes").get(code),
        }
    }

    /// A generation resolving every code interned this epoch so far: the
    /// strings interned since the last one become a run on top of it.
    pub fn publish(&mut self) -> Gen {
        if let (Some(gen), true) = (&self.published, self.open_ends.is_empty()) {
            return gen.clone();
        }
        let gauge = self.gauge.get_or_insert_with(Arc::default);
        let first = self.codes - self.open_ends.len() as u32;
        let (blob, ends) = (
            std::mem::take(&mut self.open),
            std::mem::take(&mut self.open_ends),
        );
        let prev = self.published.take().map(|g| g.0);
        let gen = Gen(Run::new(first, blob, &ends, prev, gauge));
        self.published = Some(gen.clone());
        gen
    }

    /// A segment boundary: the caller is about to intern the first row of
    /// a segment. If the epoch is due for its check and found stale, it
    /// ends here, and its last generation is returned — the one the rows
    /// before the boundary resolve against.
    pub fn boundary(&mut self) -> Option<Gen> {
        if self.bytes < self.check_at.max(EPOCH_CHECK) {
            return None;
        }
        let (old, old_bytes) = self.old;
        let again = |c: u32| self.reused[c as usize / 64] >> (c % 64) & 1 == 1;
        let reused: usize = (0..old)
            .filter(|&c| again(c))
            .map(|c| self.get(c).len() + 16)
            .sum();
        if reused * 2 < old_bytes && self.returned * 2 < self.bytes {
            let last = self.publish();
            if self.seen.is_empty() {
                self.seen = vec![0; SEEN_BITS / 64];
                for code in 0..self.len() {
                    self.see(str_hash(self.get(code)));
                }
            }
            let (gauge, seen, seen_bits) = (
                self.gauge.take(),
                std::mem::take(&mut self.seen),
                self.seen_bits,
            );
            *self = Dict {
                gauge,
                seen,
                seen_bits,
                ..Dict::new()
            };
            return Some(last);
        }
        // Reuse is tracked from an epoch's first check on: until then
        // there is nothing it could find stale.
        self.reused.clear();
        self.reused.resize(self.len().div_ceil(64) as usize, 0);
        (self.old, self.check_at) = ((self.len(), self.bytes), self.bytes * 2);
        None
    }

    /// Forget every string: for a store holding no segment, so nothing
    /// of what was published is charged here any more.
    pub fn clear(&mut self) {
        *self = Dict::new();
    }

    /// Heap bytes: the writer's vectors by capacity, and every published
    /// run still held anywhere (O(1)).
    pub fn bytes(&self) -> usize {
        let writer = self.slots.capacity() * 4
            + self.open.capacity()
            + self.open_ends.capacity() * 4
            + self.reused.capacity() * 8
            + self.seen.capacity() * 8;
        writer + self.gauge.as_ref().map_or(0, |g| g.load(Ordering::Relaxed))
    }

    /// [`Dict::bytes`], as the census row `dictionary`.
    pub fn census(&self) -> Census {
        Census::of(8, self.bytes())
    }
}

/// Where a segment's codes resolve: its generation, or — the active
/// segment of a store interning its own text — the store's dictionary;
/// `None` while a segment coded by its caller has no text yet.
#[derive(Clone, Copy)]
enum Strings<'a> {
    Gen(&'a Gen),
    Dict(&'a Dict),
    None,
}

impl Strings<'_> {
    fn get(&self, code: u32) -> &str {
        match self {
            Strings::Gen(g) => g.get(code),
            Strings::Dict(d) => d.get(code),
            Strings::None => unreachable!("a code pushed without its generation"),
        }
    }
}

/// How the active segment's text takes codes: interned in the store's
/// own dictionary, or handed in by the caller, coded against `gen`.
enum Coder<'a> {
    Own(&'a mut Dict),
    Shared {
        gen: Option<&'a Gen>,
        codes: &'a mut dyn Iterator<Item = u32>,
    },
}

impl Coder<'_> {
    fn code(&mut self, s: &str) -> u32 {
        match self {
            Coder::Own(dict) => dict.intern(s),
            Coder::Shared { codes, .. } => codes.next().expect("a code for every text cell"),
        }
    }

    /// A text cell stored as a cell: a shared code is passed over.
    fn skip(&mut self, cell: CellRef) {
        if let (CellRef::Text(_), Coder::Shared { codes, .. }) = (cell, self) {
            codes.next();
        }
    }

    fn strings(&self) -> Strings<'_> {
        match self {
            Coder::Own(dict) => Strings::Dict(dict),
            Coder::Shared { gen, .. } => gen.map_or(Strings::None, Strings::Gen),
        }
    }
}

// ---------------------------------------------------------------------------
// Columns

/// One attribute of a segment, stored as a primitive vector where the
/// data allows it.
#[derive(Debug, Clone)]
enum Column {
    /// Untyped: no cell pushed yet.
    Empty,
    /// `i64` bit patterns.
    Int(Words),
    /// `f64` bit patterns — exact round-trip, NaN payloads included.
    Float(Vec<u64>),
    /// Sealed `f64`s that are all decimals of `exp` places: row `i` is
    /// `ints[i] as i64 as f64 / 10^exp`, bit for bit.
    Decimal {
        exp: u8,
        ints: Words,
    },
    Bool(Vec<bool>),
    Ts(Words),
    /// Text while it takes appends (the active segment only): a code a
    /// row, of the store's dictionary or of the one it is handed codes of.
    Text(Vec<u32>),
    /// Sealed text as codes of the segment's generation, sealed like an
    /// integer column (a constant label is one run, a stream of distinct
    /// strings a narrow frame of reference).
    Coded(Words),
    /// Sealed text that measured fewer bytes as strings than as codes:
    /// back to back in `blob`, row `i` ending at `ends[i]`.
    Plain {
        blob: String,
        ends: Packed,
    },
    /// Row-of-cells fallback for heterogeneous or null-bearing columns.
    Mixed(Vec<Cell>, usize),
}

fn cell_heap(c: &Cell) -> usize {
    match c {
        Cell::Text(s) => s.len(),
        _ => 0,
    }
}

/// The powers of ten a [`Column::Decimal`] divides by.
const POW10: [f64; 5] = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];

#[inline]
fn decimal(int: u64, exp: u8) -> f64 {
    int as i64 as f64 / POW10[exp as usize]
}

/// The integer `x` (`f64` bits) is at `exp` places, if decoding that
/// integer gives `x` back bit for bit — which NaN, ±inf, `-0.0`, values
/// off the grid and magnitudes of 2^53 and up never do.
fn scaled(x: u64, exp: u8) -> Option<u64> {
    let y = f64::from_bits(x) * POW10[exp as usize];
    // The integer nearest `y` (NaN gives 0, ±inf saturates); only the
    // decode check makes it exact.
    let int = (y + 0.5f64.copysign(y)) as i64;
    let exact = int.unsigned_abs() < 1 << 53 && decimal(int as u64, exp).to_bits() == x;
    exact.then_some(int as u64)
}

/// Seal a float column as decimals at the fewest places every value
/// round-trips at, if that measures fewer bytes than plain.
fn pack_floats(v: &[u64]) -> Option<Column> {
    let mut ints = Vec::with_capacity(v.len());
    let exp = (0..POW10.len() as u8).find(|&e| {
        ints.clear();
        ints.extend(v.iter().map_while(|&x| scaled(x, e)));
        ints.len() == v.len()
    })?;
    let mut ints = Words::Plain(ints);
    ints.seal(true);
    (ints.heap_bytes() < v.len() * 8).then_some(Column::Decimal { exp, ints })
}

/// Row `i` of a [`Column::Plain`].
fn plain_str<'a>(blob: &'a str, ends: &Packed, i: usize) -> &'a str {
    let start = if i == 0 { 0 } else { ends.get(i - 1) };
    &blob[start as usize..ends.get(i) as usize]
}

/// Seal appended codes: as codes at their width, or as plain strings
/// when those measure fewer bytes.
fn pack_text(codes: &[u32], strings: Strings) -> Column {
    let mut words = Words::Plain(codes.iter().map(|&c| c as u64).collect());
    words.seal(false);
    let rows = || codes.iter().map(|&c| strings.get(c));
    let total = rows().map(str::len).sum::<usize>() as u64;
    let ends = codes.len() * Packed::width_of(total);
    if total as usize + ends >= words.heap_bytes() {
        return Column::Coded(words);
    }
    let mut end = 0;
    let ends = Packed::pack(
        total,
        rows().map(|s| {
            end += s.len() as u64;
            end
        }),
    );
    let blob = rows().collect();
    Column::Plain { blob, ends }
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Empty => 0,
            Column::Int(w) | Column::Ts(w) | Column::Coded(w) => w.len(),
            Column::Float(v) => v.len(),
            Column::Decimal { ints, .. } => ints.len(),
            Column::Bool(v) => v.len(),
            Column::Text(v) => v.len(),
            Column::Plain { ends, .. } => ends.len(),
            Column::Mixed(v, _) => v.len(),
        }
    }

    /// Heap bytes of this column's payload: the byte length of the
    /// vectors it holds (O(1)). Codes are charged here, their strings to
    /// the dictionary.
    fn heap_bytes(&self) -> usize {
        match self {
            Column::Empty => 0,
            Column::Int(w) | Column::Ts(w) | Column::Coded(w) => w.heap_bytes(),
            Column::Float(v) => v.len() * 8,
            Column::Decimal { ints, .. } => ints.heap_bytes(),
            Column::Bool(v) => v.len(),
            Column::Text(v) => v.len() * 4,
            Column::Plain { blob, ends } => blob.len() + ends.heap_bytes(),
            Column::Mixed(v, text) => v.len() * std::mem::size_of::<Cell>() + *text,
        }
    }

    /// Its [`Census`] index.
    fn encoding(&self) -> usize {
        match self {
            Column::Empty | Column::Bool(_) => 0,
            Column::Int(w) | Column::Ts(w) => w.encoding(),
            Column::Decimal { .. } => 3,
            Column::Float(_) => 4,
            Column::Text(_) | Column::Coded(_) => 5,
            Column::Plain { .. } => 6,
            Column::Mixed(..) => 7,
        }
    }

    /// Whether its rows are codes, resolved against a generation.
    fn coded(&self) -> bool {
        matches!(self, Column::Text(_) | Column::Coded(_))
    }

    /// Rebuild self as `Mixed`, then push the non-conforming cell.
    fn promote_and_push(&mut self, cell: CellRef, coder: &mut Coder) {
        let strings = coder.strings();
        let cells: Vec<Cell> = (0..self.len()).map(|i| self.get(i, strings)).collect();
        let text: usize = cells.iter().map(cell_heap).sum();
        *self = Column::Mixed(cells, text);
        self.push(cell, coder);
    }

    fn push(&mut self, cell: CellRef, coder: &mut Coder) {
        match (&mut *self, cell) {
            (Column::Empty, c) => {
                *self = match c {
                    CellRef::Int(i) => Column::Int(Words::Plain(vec![i as u64])),
                    CellRef::Float(f) => Column::Float(vec![f.to_bits()]),
                    CellRef::Bool(b) => Column::Bool(vec![b]),
                    CellRef::Ts(t) => Column::Ts(Words::Plain(vec![t])),
                    CellRef::Text(s) => Column::Text(vec![coder.code(s)]),
                    other => Column::Mixed(vec![other.to_cell()], 0),
                };
            }
            (Column::Int(w), CellRef::Int(i)) => w.push(i as u64),
            (Column::Float(v), CellRef::Float(f)) => v.push(f.to_bits()),
            (Column::Bool(v), CellRef::Bool(b)) => v.push(b),
            (Column::Ts(w), CellRef::Ts(t)) => w.push(t),
            (Column::Text(v), CellRef::Text(s)) => v.push(coder.code(s)),
            (Column::Mixed(v, text), c) => {
                coder.skip(c);
                let c = c.to_cell();
                *text += cell_heap(&c);
                v.push(c);
            }
            (_, c) => self.promote_and_push(c, coder),
        }
    }

    #[inline]
    fn get(&self, i: usize, strings: Strings) -> Cell {
        match self {
            Column::Empty => Cell::Null,
            Column::Int(w) => Cell::Int(w.get(i) as i64),
            Column::Float(v) => Cell::Float(f64::from_bits(v[i])),
            Column::Decimal { exp, ints } => Cell::Float(decimal(ints.get(i), *exp)),
            Column::Bool(v) => Cell::Bool(v[i]),
            Column::Ts(w) => Cell::Ts(w.get(i)),
            Column::Text(v) => Cell::Text(strings.get(v[i]).to_owned()),
            Column::Coded(w) => Cell::Text(strings.get(w.get(i) as u32).to_owned()),
            Column::Plain { blob, ends } => Cell::Text(plain_str(blob, ends, i).to_owned()),
            Column::Mixed(v, _) => v[i].clone(),
        }
    }

    /// Whether row `i` is `cell` — `self.get(i) == cell`, compared
    /// against the encoded value without materialising one.
    fn holds(&self, i: usize, cell: CellRef, strings: Strings) -> bool {
        match (self, cell) {
            (Column::Empty, CellRef::Null) => true,
            (Column::Int(w), CellRef::Int(x)) => w.get(i) == x as u64,
            (Column::Float(v), CellRef::Float(x)) => v[i] == x.to_bits(),
            (Column::Decimal { exp, ints }, CellRef::Float(x)) => {
                decimal(ints.get(i), *exp).to_bits() == x.to_bits()
            }
            (Column::Bool(v), CellRef::Bool(x)) => v[i] == x,
            (Column::Ts(w), CellRef::Ts(x)) => w.get(i) == x,
            (Column::Text(v), CellRef::Text(s)) => strings.get(v[i]) == s,
            (Column::Coded(w), CellRef::Text(s)) => strings.get(w.get(i) as u32) == s,
            (Column::Plain { blob, ends }, CellRef::Text(s)) => plain_str(blob, ends, i) == s,
            (Column::Mixed(v, _), c) => CellRef::from(&v[i]) == c,
            _ => false,
        }
    }

    /// Seal-time re-encoding.
    fn seal(&mut self, strings: Strings) {
        match self {
            Column::Text(codes) => *self = pack_text(codes, strings),
            Column::Int(w) => w.seal(true),
            Column::Ts(w) => w.seal(false),
            Column::Float(v) => {
                if let Some(decimal) = pack_floats(v) {
                    *self = decimal;
                }
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Spill encoding. Decoding is total: a short, damaged or foreign file
// yields `None`, never a panic and never a column that reads out of
// bounds.

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64s(buf: &mut Vec<u8>, v: &[u64]) {
    put_u32(buf, v.len() as u32);
    v.iter().for_each(|&x| put_u64(buf, x));
}
fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Option<&'a [u8]> {
    if buf.len() < n {
        return None;
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Some(head)
}
fn take_u8(buf: &mut &[u8]) -> Option<u8> {
    Some(take(buf, 1)?[0])
}
fn take_u32(buf: &mut &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(take(buf, 4)?.try_into().ok()?))
}
fn take_u64(buf: &mut &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(take(buf, 8)?.try_into().ok()?))
}
/// `n` fixed-width values; the bytes are claimed before anything is
/// allocated for them.
fn take_vec<T, const W: usize>(
    buf: &mut &[u8],
    n: usize,
    from: fn([u8; W]) -> T,
) -> Option<Vec<T>> {
    let raw = take(buf, n.checked_mul(W)?)?;
    let words = raw.chunks_exact(W);
    Some(
        words
            .map(|c| from(c.try_into().expect("W bytes")))
            .collect(),
    )
}
fn take_u64s(buf: &mut &[u8]) -> Option<Vec<u64>> {
    let n = take_u32(buf)? as usize;
    take_vec(buf, n, u64::from_le_bytes)
}
fn take_str(buf: &mut &[u8]) -> Option<String> {
    let n = take_u32(buf)? as usize;
    String::from_utf8(take(buf, n)?.to_vec()).ok()
}

fn encode_cell(buf: &mut Vec<u8>, c: &Cell) {
    match c {
        Cell::Null => buf.push(0),
        Cell::Bool(b) => {
            buf.push(1);
            buf.push(*b as u8);
        }
        Cell::Int(i) => {
            buf.push(2);
            put_u64(buf, *i as u64);
        }
        Cell::Float(f) => {
            buf.push(3);
            put_u64(buf, f.to_bits());
        }
        Cell::Text(s) => {
            buf.push(4);
            put_str(buf, s);
        }
        Cell::Ts(t) => {
            buf.push(5);
            put_u64(buf, *t);
        }
        Cell::Pair(a, b) => {
            buf.push(6);
            buf.extend_from_slice(&a.to_le_bytes());
            buf.push(*b);
        }
    }
}

fn decode_cell(buf: &mut &[u8]) -> Option<Cell> {
    Some(match take_u8(buf)? {
        0 => Cell::Null,
        1 => Cell::Bool(take_u8(buf)? != 0),
        2 => Cell::Int(take_u64(buf)? as i64),
        3 => Cell::Float(f64::from_bits(take_u64(buf)?)),
        4 => Cell::Text(take_str(buf)?),
        5 => Cell::Ts(take_u64(buf)?),
        6 => {
            let a = u16::from_le_bytes(take(buf, 2)?.try_into().ok()?);
            Cell::Pair(a, take_u8(buf)?)
        }
        _ => return None,
    })
}

fn encode_words(buf: &mut Vec<u8>, w: &Words) {
    match w {
        Words::Plain(v) => {
            buf.push(0);
            put_u64s(buf, v);
        }
        Words::Rle { values, ends } => {
            buf.push(1);
            put_u64s(buf, values);
            ends.iter().for_each(|&e| put_u32(buf, e));
        }
        Words::For { base, step, deltas } => {
            buf.push(2);
            put_u64(buf, *base);
            put_u64(buf, *step);
            deltas.encode(buf);
        }
    }
}

fn decode_words(buf: &mut &[u8]) -> Option<Words> {
    Some(match take_u8(buf)? {
        0 => Words::Plain(take_u64s(buf)?),
        1 => {
            let values = take_u64s(buf)?;
            let ends = take_vec(buf, values.len(), u32::from_le_bytes)?;
            // `get` searches the ends: they must ascend.
            if !ends.windows(2).all(|w| w[0] < w[1]) {
                return None;
            }
            Words::Rle { values, ends }
        }
        2 => Words::For {
            base: take_u64(buf)?,
            step: take_u64(buf)?,
            deltas: Packed::decode(buf)?,
        },
        _ => return None,
    })
}

fn encode_column(buf: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Empty => buf.push(0),
        Column::Int(w) => {
            buf.push(1);
            encode_words(buf, w);
        }
        Column::Float(v) => {
            buf.push(2);
            put_u64s(buf, v);
        }
        Column::Decimal { exp, ints } => {
            buf.push(7);
            buf.push(*exp);
            encode_words(buf, ints);
        }
        Column::Bool(v) => {
            buf.push(3);
            put_u32(buf, v.len() as u32);
            buf.extend(v.iter().map(|&x| x as u8));
        }
        Column::Ts(w) => {
            buf.push(4);
            encode_words(buf, w);
        }
        Column::Text(codes) => {
            buf.push(8);
            encode_words(
                buf,
                &Words::Plain(codes.iter().map(|&c| c as u64).collect()),
            );
        }
        Column::Coded(w) => {
            buf.push(8);
            encode_words(buf, w);
        }
        Column::Plain { blob, ends } => {
            buf.push(5);
            put_str(buf, blob);
            ends.encode(buf);
        }
        Column::Mixed(v, _) => {
            buf.push(6);
            put_u32(buf, v.len() as u32);
            for c in v {
                encode_cell(buf, c);
            }
        }
    }
}

/// One column of a spill file whose codes are below `codes`.
fn decode_column(buf: &mut &[u8], codes: u32) -> Option<Column> {
    Some(match take_u8(buf)? {
        0 => Column::Empty,
        1 => Column::Int(decode_words(buf)?),
        2 => Column::Float(take_u64s(buf)?),
        3 => {
            let n = take_u32(buf)? as usize;
            Column::Bool(take(buf, n)?.iter().map(|&b| b != 0).collect())
        }
        4 => Column::Ts(decode_words(buf)?),
        5 => {
            let blob = take_str(buf)?;
            let ends = Packed::decode(buf)?;
            // `get` slices the blob between ends: they must ascend on
            // character boundaries inside it.
            let mut prev = 0;
            for e in (0..ends.len()).map(|i| ends.get(i) as usize) {
                if e < prev || !blob.is_char_boundary(e) {
                    return None;
                }
                prev = e;
            }
            Column::Plain { blob, ends }
        }
        8 => {
            let w = decode_words(buf)?;
            // Every code must name a string of the segment's generation.
            (0..w.len())
                .all(|i| w.get(i) < codes as u64)
                .then_some(Column::Coded(w))?
        }
        6 => {
            let n = take_u32(buf)? as usize;
            let v: Vec<Cell> = (0..n).map(|_| decode_cell(buf)).collect::<Option<_>>()?;
            let text = v.iter().map(cell_heap).sum();
            Column::Mixed(v, text)
        }
        7 => Column::Decimal {
            exp: take_u8(buf).filter(|&e| (e as usize) < POW10.len())?,
            ints: decode_words(buf)?,
        },
        _ => return None,
    })
}

/// FNV-1a over `bytes`: a spill file's trailer.
fn checksum(bytes: &[u8]) -> u64 {
    let step = |h: u64, &b: &u8| (h ^ b as u64).wrapping_mul(0x100_0000_01b3);
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, step)
}

/// A spill file: `columns` encoded, then their checksum.
fn encode_segment(columns: &[Column]) -> Vec<u8> {
    let mut buf = Vec::new();
    put_u32(&mut buf, columns.len() as u32);
    for c in columns {
        encode_column(&mut buf, c);
    }
    let sum = checksum(&buf);
    put_u64(&mut buf, sum);
    buf
}

/// A spill file's columns: its checksum must match, and all of the
/// payload decode, into columns of `rows` rows each, coded below `codes`.
fn decode_segment(raw: &[u8], rows: usize, codes: u32) -> Option<Vec<Column>> {
    let (payload, sum) = raw.split_at(raw.len().checked_sub(8)?);
    (checksum(payload).to_le_bytes() == sum).then(|| decode_columns(payload, rows, codes))?
}

fn decode_columns(mut raw: &[u8], rows: usize, codes: u32) -> Option<Vec<Column>> {
    let n = take_u32(&mut raw)? as usize;
    let cols: Vec<Column> = (0..n)
        .map(|_| decode_column(&mut raw, codes))
        .collect::<Option<_>>()?;
    (raw.is_empty() && cols.iter().all(|c| c.len() == rows)).then_some(cols)
}

// ---------------------------------------------------------------------------
// Shared parts and the segment pool

/// A segment's stamps or its value columns: appended to while the
/// segment is active, immutable (and shareable) once sealed.
#[derive(Debug)]
struct Part<T> {
    value: T,
    /// The bytes charged to the pool, once published.
    charged: Option<Charge>,
}

/// A segment's value columns, with the generation their codes resolve
/// against (`None` while the active segment of a store interning its own
/// text codes against the store's dictionary, and once sealed without
/// codes).
#[derive(Debug, Clone, Default)]
struct Cols {
    columns: Vec<Column>,
    gen: Option<Gen>,
}

type Stamps = Arc<Part<Words>>;
type Columns = Arc<Part<Cols>>;
type Shared = (Weak<Part<Words>>, Weak<Part<Cols>>);
type Entries = BTreeMap<u64, Shared>;

fn part<T>(value: T) -> Arc<Part<T>> {
    let charged = None;
    Arc::new(Part { value, charged })
}

impl<T: Clone> Clone for Part<T> {
    /// An unpublished copy (the active segment of a cloned store).
    fn clone(&self) -> Self {
        let (value, charged) = (self.value.clone(), None);
        Part { value, charged }
    }
}

impl<T> Deref for Part<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.value
    }
}

/// Sealed segments shared by stores that number the same rows alike:
/// per full, aligned segment, by first row id, its parts held weakly —
/// the stores own them. Sealing takes the lock briefly; reads take none.
#[derive(Debug, Clone, Default)]
pub struct SegmentPool(Arc<(Arc<AtomicUsize>, Mutex<Entries>)>);

impl SegmentPool {
    /// An empty pool, for another numbering of rows, on the same counter.
    pub fn sibling(&self) -> Self {
        SegmentPool(Arc::new((Arc::clone(&self.0 .0), Mutex::default())))
    }

    /// Bytes of the live parts published here and in siblings (O(1)).
    pub fn bytes(&self) -> usize {
        self.0 .0.load(Ordering::Relaxed)
    }

    /// The live parts of the segment at `base`, if another store sealed it.
    fn find(&self, base: u64) -> (Option<Stamps>, Option<Columns>) {
        let map = self.0 .1.lock().expect("pool lock");
        map.get(&base)
            .map_or((None, None), |(ts, c)| (ts.upgrade(), c.upgrade()))
    }

    /// Swap in a live part published meanwhile, or publish our own.
    /// Stores release prefixes, so dead entries are dropped from the front.
    fn publish(&self, base: u64, ts: &mut Stamps, cols: &mut Columns) {
        let mut map = self.0 .1.lock().expect("pool lock");
        let dead = |(ts, cols): &Shared| ts.strong_count() + cols.strong_count() == 0;
        while let Some(oldest) = map.first_entry().filter(|e| dead(e.get())) {
            oldest.remove();
        }
        let (ts_slot, cols_slot) = map.entry(base).or_default();
        self.share(ts_slot, ts, Words::heap_bytes);
        self.share(cols_slot, cols, |c| {
            c.columns.iter().map(Column::heap_bytes).sum()
        });
    }

    fn share<T>(&self, slot: &mut Weak<Part<T>>, own: &mut Arc<Part<T>>, bytes: fn(&T) -> usize) {
        if let Some(live) = slot.upgrade() {
            *own = live;
        } else if let Some(p) = Arc::get_mut(own).filter(|p| p.charged.is_none()) {
            p.charged = Some(Charge::new(&self.0 .0, bytes(&p.value)));
            *slot = Arc::downgrade(own);
        }
    }
}

// ---------------------------------------------------------------------------
// Segments

#[derive(Debug)]
enum SegState {
    Resident(Columns),
    /// The columns are in a file.
    Spilled(Box<File>),
}

/// A spilled segment's file: its path and length, and the generation its
/// codes resolve against, which stays resident.
#[derive(Debug)]
struct File {
    path: PathBuf,
    len: usize,
    gen: Option<Gen>,
}

/// Per-row metadata most segments lack, out of line: a store holds a
/// `Segment` for every segment, shared or not, so that stays small.
#[derive(Debug, Clone, Default)]
struct Extras {
    /// Signed weights (weighted stores only).
    weight: Vec<i64>,
    /// True arity per row, only once a row's differs from the columns'.
    arity: Option<Vec<u16>>,
    /// Dead bits of the rows from 64 on, 64 rows a word.
    dead: Vec<u64>,
}

#[derive(Debug)]
struct Segment {
    /// Row id of this segment's first row.
    base: u64,
    rows: u32,
    live: u32,
    sealed: bool,
    /// Always-resident per-row metadata. Stamps seal like a column.
    ts: Stamps,
    /// A dead bit per row of the first 64 (the rest in `extras`).
    dead: u64,
    extras: Option<Box<Extras>>,
    /// Offset of the first possibly-live row (monotone hint).
    first: u32,
    state: SegState,
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

impl Segment {
    fn new(base: u64) -> Self {
        Segment {
            base,
            rows: 0,
            live: 0,
            sealed: false,
            ts: part(Words::Plain(Vec::new())),
            dead: 0,
            extras: None,
            first: 0,
            state: SegState::Resident(part(Cols::default())),
        }
    }

    /// The word holding row `off`'s dead bit.
    fn dead_word(&self, off: usize) -> u64 {
        match off.checked_sub(64) {
            None => self.dead,
            Some(o) => self.extras.as_deref().expect("rows past 64").dead[o / 64],
        }
    }

    fn is_dead(&self, off: usize) -> bool {
        self.dead_word(off) >> (off % 64) & 1 == 1
    }

    /// Set row `off`'s dead bit; whether it was live.
    fn kill(&mut self, off: usize) -> bool {
        let was_live = !self.is_dead(off);
        let bit = 1 << (off % 64);
        match off.checked_sub(64) {
            None => self.dead |= bit,
            Some(o) => self.extras.as_deref_mut().expect("rows past 64").dead[o / 64] |= bit,
        }
        was_live
    }

    /// The first live offset at or after `off` (`rows` if none).
    fn next_live(&self, mut off: usize) -> usize {
        while off < self.rows as usize && self.is_dead(off) {
            off += 1;
        }
        off
    }

    fn meta_bytes(&self) -> usize {
        let extras = self.extras.as_deref().map_or(0, |x| {
            x.weight.len() * 8 + x.arity.as_ref().map_or(0, |a| a.len() * 2)
        });
        self.ts.heap_bytes() + (self.rows as usize).div_ceil(64) * 8 + extras
    }

    fn weight(&self, off: usize) -> Option<i64> {
        self.extras.as_deref()?.weight.get(off).copied()
    }

    fn resident_bytes(&self) -> usize {
        let cols = match &self.state {
            SegState::Resident(cols) => cols.columns.iter().map(Column::heap_bytes).sum(),
            SegState::Spilled(_) => 0,
        };
        cols + self.meta_bytes()
    }

    /// The share of `resident_bytes` charged to a pool.
    fn pooled_bytes(&self) -> usize {
        let cols = match &self.state {
            SegState::Resident(cols) => &cols.charged,
            SegState::Spilled(_) => &None,
        };
        self.ts.charged.as_ref().map_or(0, |c| c.1) + cols.as_ref().map_or(0, |c| c.1)
    }

    fn spilled_bytes(&self) -> usize {
        match &self.state {
            SegState::Spilled(file) => file.len,
            SegState::Resident(_) => 0,
        }
    }

    /// What a store caches of this segment while it is sealed.
    fn cached(&self) -> Cached {
        let cols = match &self.state {
            SegState::Resident(cols) => cols.columns.as_slice(),
            SegState::Spilled(_) => &[],
        };
        let ts = Census::of(self.ts.encoding(), self.ts.heap_bytes());
        let census = cols
            .iter()
            .map(|c| Census::of(c.encoding(), c.heap_bytes()));
        Cached {
            resident: self.resident_bytes(),
            pooled: self.pooled_bytes(),
            spilled: self.spilled_bytes(),
            census: census.chain([ts]).sum(),
        }
    }

    /// The generation its codes resolve against, resident or spilled.
    fn gen(&self) -> Option<&Gen> {
        match &self.state {
            SegState::Resident(cols) => cols.gen.as_ref(),
            SegState::Spilled(file) => file.gen.as_ref(),
        }
    }

    /// Where its codes resolve, its store's dictionary being `dict`.
    fn strings<'a>(&'a self, dict: &'a Dict) -> Strings<'a> {
        self.gen().map_or(Strings::Dict(dict), Strings::Gen)
    }

    /// The segment's value columns, decoding a spilled segment
    /// transiently (the cache stays cold; reads do not fault pages in).
    /// `None`, and one more in `failures`, when its file cannot be read
    /// back whole.
    #[inline] // the resident arm is every read's first step
    fn columns(&self, failures: &AtomicU64) -> Option<Cow<'_, [Column]>> {
        match &self.state {
            SegState::Resident(cols) => Some(Cow::Borrowed(cols.columns.as_slice())),
            SegState::Spilled(file) => self.read_back(file, failures).map(Cow::Owned),
        }
    }

    fn read_back(&self, file: &File, failures: &AtomicU64) -> Option<Vec<Column>> {
        let raw = fs::read(&file.path).ok();
        let codes = file.gen.as_ref().map_or(0, Gen::codes);
        let cols = raw.and_then(|raw| decode_segment(&raw, self.rows as usize, codes));
        if cols.is_none() {
            failures.fetch_add(1, Ordering::Relaxed);
        }
        cols
    }

    fn row_arity(&self, off: usize, n_cols: usize) -> usize {
        let arity = self.extras.as_deref().and_then(|x| x.arity.as_ref());
        arity.map_or(n_cols, |a| a[off] as usize).min(n_cols)
    }

    /// Seal the active segment; its codes resolve against its generation,
    /// or `dict`, the store's own, which publishes one for them. With a
    /// pool, parts another store already sealed are taken instead of
    /// sealed again (the columns with the generation they resolve
    /// against), and the rest published.
    fn seal(&mut self, pool: Option<&SegmentPool>, dict: &mut Dict) {
        let SegState::Resident(cols) = &mut self.state else {
            unreachable!("the active segment is resident");
        };
        let (found_ts, found_cols) = pool.map_or((None, None), |p| p.find(self.base));
        match found_ts {
            Some(ts) => self.ts = ts,
            None => Arc::make_mut(&mut self.ts).value.seal(false),
        }
        match found_cols {
            Some(found) => *cols = found,
            None => {
                let Cols { columns, gen } = &mut Arc::make_mut(cols).value;
                let strings = gen.as_ref().map_or(Strings::Dict(dict), Strings::Gen);
                columns.iter_mut().for_each(|c| c.seal(strings));
                *gen = match columns.iter().any(Column::coded) {
                    true => Some(gen.take().unwrap_or_else(|| dict.publish())),
                    false => None,
                };
            }
        }
        if let Some(pool) = pool {
            pool.publish(self.base, &mut self.ts, cols);
        }
        self.sealed = true;
    }

    /// Page the value columns out to a file under `dir`; whether the
    /// file was written (a failed write leaves the segment resident).
    fn spill(&mut self, dir: &PathBuf) -> bool {
        let cols = match &self.state {
            SegState::Resident(cols) => cols,
            SegState::Spilled(_) => return true,
        };
        if fs::create_dir_all(dir).is_err() {
            return false;
        }
        let buf = encode_segment(&cols.columns);
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("colspill-{}-{}.seg", std::process::id(), seq));
        let ok = fs::File::create(&path)
            .and_then(|mut f| f.write_all(&buf))
            .is_ok();
        if ok {
            let (len, gen) = (buf.len(), cols.gen.clone());
            self.state = SegState::Spilled(Box::new(File { path, len, gen }));
        } else {
            let _ = fs::remove_file(&path);
        }
        ok
    }

    /// A fully resident copy sharing the resident parts — a spilled
    /// segment is decoded from its file so two stores never share a spill
    /// file. `None` when that file cannot be read.
    fn rehydrated(&self, failures: &AtomicU64) -> Option<Segment> {
        let cols = match &self.state {
            SegState::Resident(cols) => Arc::clone(cols),
            SegState::Spilled(file) => {
                let columns = self.read_back(file, failures)?;
                part(Cols {
                    columns,
                    gen: file.gen.clone(),
                })
            }
        };
        Some(Segment {
            base: self.base,
            rows: self.rows,
            live: self.live,
            sealed: self.sealed,
            ts: Arc::clone(&self.ts),
            dead: self.dead,
            extras: self.extras.clone(),
            first: self.first,
            state: SegState::Resident(cols),
        })
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        if let SegState::Spilled(file) = &self.state {
            let _ = fs::remove_file(&file.path);
        }
    }
}

/// Byte gauges over a store's sealed segments, which are byte-immutable
/// until spilled or dropped: kept as they seal, spill and drop.
#[derive(Debug, Clone, Copy, Default)]
struct Cached {
    resident: usize,
    /// The pooled share of `resident`.
    pooled: usize,
    spilled: usize,
    census: Census,
}

impl std::ops::AddAssign for Cached {
    fn add_assign(&mut self, o: Cached) {
        self.resident += o.resident;
        self.pooled += o.pooled;
        self.spilled += o.spilled;
        self.census += o.census;
    }
}

impl std::ops::SubAssign for Cached {
    fn sub_assign(&mut self, o: Cached) {
        self.resident -= o.resident;
        self.pooled -= o.pooled;
        self.spilled -= o.spilled;
        self.census -= o.census;
    }
}

// ---------------------------------------------------------------------------
// Spill policy

/// When a store's resident bytes exceed `threshold_bytes`, sealed cold
/// segments are encoded into files under `dir` (oldest first) until the
/// store fits again.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpillConfig {
    pub threshold_bytes: usize,
    pub dir: PathBuf,
}

impl SpillConfig {
    pub fn new(threshold_bytes: usize, dir: impl Into<PathBuf>) -> Self {
        SpillConfig {
            threshold_bytes,
            dir: dir.into(),
        }
    }
}

// ---------------------------------------------------------------------------
// TupleStore

/// Append-only columnar row store with stable row ids, liveness marks,
/// optional signed weights, and a cold-segment spill tier.
#[derive(Debug)]
pub struct TupleStore {
    width: usize,
    weighted: bool,
    segs: Vec<Segment>,
    next_row: u64,
    live: u64,
    spill: Option<SpillConfig>,
    /// Rows per segment. Smaller segments seal sooner, which makes
    /// FIFO-style workloads reclaim dead prefixes (a fully-dead sealed
    /// segment is dropped) and gives the spill tier finer pages, at the
    /// cost of more per-segment overhead.
    seg_rows: u32,
    /// The byte gauges of the *sealed* segments, so the hot
    /// `resident_bytes` gauge only has to measure the active segment —
    /// telemetry polls it per structure per report.
    sealed: Cached,
    /// Where full, aligned segments are shared once sealed.
    pool: Option<SegmentPool>,
    /// The store's own text dictionary (empty when it is handed codes).
    dict: Dict,
    /// Reads of a spilled segment that found its file missing, short or
    /// undecodable (a statistic: reads take `&self`).
    read_failures: AtomicU64,
    /// See [`TupleStore::spill_write_failures`].
    write_failures: u64,
}

impl Clone for TupleStore {
    /// Segment copies rehydrate spilled pages (the two stores must not
    /// share spill files), so the byte caches are rebuilt for the clone;
    /// a segment whose file cannot be read is left out of it.
    fn clone(&self) -> Self {
        let segs: Vec<Segment> = self
            .segs
            .iter()
            .filter_map(|s| s.rehydrated(&self.read_failures))
            .collect();
        let mut sealed = Cached::default();
        segs.iter()
            .filter(|s| s.sealed)
            .for_each(|s| sealed += s.cached());
        TupleStore {
            width: self.width,
            weighted: self.weighted,
            live: segs.iter().map(|s| s.live as u64).sum(),
            sealed,
            segs,
            next_row: self.next_row,
            spill: self.spill.clone(),
            seg_rows: self.seg_rows,
            pool: self.pool.clone(),
            dict: self.dict.clone(),
            read_failures: AtomicU64::new(self.spill_read_failures()),
            write_failures: self.write_failures,
        }
    }
}

impl TupleStore {
    pub fn new(width: usize) -> Self {
        TupleStore {
            width,
            weighted: false,
            segs: Vec::new(),
            next_row: 0,
            live: 0,
            spill: None,
            seg_rows: SEG_CAP,
            sealed: Cached::default(),
            pool: None,
            dict: Dict::new(),
            read_failures: AtomicU64::new(0),
            write_failures: 0,
        }
    }

    /// A store whose rows carry a signed weight (multiplicity).
    pub fn weighted(width: usize) -> Self {
        TupleStore {
            weighted: true,
            ..TupleStore::new(width)
        }
    }

    pub fn with_spill(mut self, spill: Option<SpillConfig>) -> Self {
        self.spill = spill;
        self
    }

    /// Override the rows-per-segment granularity (min 1). Only affects
    /// segments opened after the call.
    pub fn segment_rows(mut self, rows: u32) -> Self {
        self.seg_rows = rows.max(1);
        self
    }

    /// Share full, aligned sealed segments through `pool`, whose stores
    /// must give a row id the same row and use one segment size. (A
    /// shared segment keeps the generation its codes resolve against, so
    /// stores sharing a pool should also share a dictionary —
    /// [`TupleStore::push_coded`] — or its text is stored once per store.)
    pub fn with_pool(mut self, pool: SegmentPool) -> Self {
        self.pool = Some(pool);
        self
    }

    pub fn width(&self) -> usize {
        self.width
    }

    /// Total rows ever appended (row ids are `0..len()`).
    pub fn len(&self) -> u64 {
        self.next_row
    }

    /// Continue another store's numbering: the next row appended gets
    /// id `row`. Only an empty store can be renumbered.
    pub fn resume_at(&mut self, row: u64) {
        assert!(self.segs.is_empty(), "resume_at on a store holding rows");
        self.next_row = row;
    }

    pub fn live_rows(&self) -> u64 {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// O(columns of the active segment): sealed segments are served
    /// from the cache, so telemetry can poll this every report. The
    /// store's own dictionary is included.
    pub fn resident_bytes(&self) -> usize {
        let active = match self.segs.last() {
            Some(s) if !s.sealed => s.resident_bytes(),
            _ => 0,
        };
        self.sealed.resident + active + self.dict.bytes()
    }

    /// The share of [`TupleStore::resident_bytes`] charged to the pool.
    pub fn pooled_bytes(&self) -> usize {
        self.sealed.pooled
    }

    pub fn spilled_bytes(&self) -> usize {
        self.sealed.spilled
    }

    /// Sealed bytes by encoding, and the store's dictionary (O(1)).
    pub fn census(&self) -> Census {
        let mut census = self.sealed.census;
        census += self.dict.census();
        census
    }

    /// Segment reads that found a spill file missing, truncated or
    /// undecodable since this store was made. The rows of such a segment
    /// read as absent ([`TupleStore::get`] answers `None`, scans skip
    /// them) until the file reads again.
    pub fn spill_read_failures(&self) -> u64 {
        self.read_failures.load(Ordering::Relaxed)
    }

    /// Spill passes ended by a file that could not be written; the
    /// segment stays resident, and the next seal tries again.
    pub fn spill_write_failures(&self) -> u64 {
        self.write_failures
    }

    /// Append a row; returns its (stable) row id.
    pub fn push(&mut self, cells: &[Cell], ts: u64) -> u64 {
        self.push_weighted(cells, ts, 1)
    }

    /// Append a weighted row; returns its (stable) row id.
    pub fn push_weighted(&mut self, cells: &[Cell], ts: u64, w: i64) -> u64 {
        self.push_cells(cells.iter().map(CellRef::from), ts, w)
    }

    /// Append a weighted row, its text interned in the store's own
    /// dictionary (a string it holds is not copied); returns its (stable)
    /// row id.
    pub fn push_cells<'a>(
        &mut self,
        cells: impl ExactSizeIterator<Item = CellRef<'a>>,
        ts: u64,
        w: i64,
    ) -> u64 {
        self.push_row(cells, None, ts, w)
    }

    /// Append a weighted row whose text cells are coded already: each
    /// takes the next of `codes`, which `gen` resolves — a generation of
    /// a dictionary every store numbering these rows is coded against
    /// (one epoch a segment: see [`Dict::boundary`]). Returns the row id.
    pub fn push_coded<'a>(
        &mut self,
        cells: impl ExactSizeIterator<Item = CellRef<'a>>,
        codes: &mut dyn Iterator<Item = u32>,
        gen: Option<&Gen>,
        ts: u64,
        w: i64,
    ) -> u64 {
        self.push_row(cells, Some((gen, codes)), ts, w)
    }

    fn push_row<'a>(
        &mut self,
        mut cells: impl ExactSizeIterator<Item = CellRef<'a>>,
        coded: Option<(Option<&Gen>, &mut dyn Iterator<Item = u32>)>,
        ts: u64,
        w: i64,
    ) -> u64 {
        let arity = cells.len();
        self.width = self.width.max(arity);
        // A segment ends at the next multiple of the segment size, so
        // stores numbering the same rows cut the same segments.
        let need_new = match self.segs.last() {
            Some(s) => s.sealed || self.next_row.is_multiple_of(self.seg_rows as u64),
            None => true,
        };
        if need_new {
            if let Some(last) = self.segs.last_mut().filter(|s| !s.sealed) {
                let full = last.rows == self.seg_rows && last.base % self.seg_rows as u64 == 0;
                last.seal(self.pool.as_ref().filter(|_| full), &mut self.dict);
                self.sealed += last.cached();
            }
            self.maybe_spill();
            if coded.is_none() {
                self.dict.boundary();
            }
            self.segs.push(Segment::new(self.next_row));
        }
        let weighted = self.weighted;
        let seg = self.segs.last_mut().expect("active segment");
        let off = seg.rows as usize;
        if let SegState::Resident(cols) = &mut seg.state {
            let Cols {
                columns: cols,
                gen: seg_gen,
            } = &mut Arc::make_mut(cols).value;
            let mut coder = match coded {
                Some((gen, codes)) => {
                    if let Some(gen) = gen.filter(|g| !Gen::same(seg_gen, g)) {
                        *seg_gen = Some(gen.clone());
                    }
                    let gen = seg_gen.as_ref();
                    Coder::Shared { gen, codes }
                }
                None => Coder::Own(&mut self.dict),
            };
            // As many columns as the segment's widest row (a sealed segment
            // depends on its rows alone); narrower rows go in `arity`.
            let width = cols.len();
            let ragged = seg.extras.as_deref().is_some_and(|x| x.arity.is_some());
            if off > 0 && arity != width || ragged {
                let extras = seg.extras.get_or_insert_default();
                let arities = extras.arity.get_or_insert_with(|| vec![width as u16; off]);
                arities.push(arity as u16);
            }
            while cols.len() < arity {
                let mut col = Column::Empty;
                // Backfill rows appended before this column existed.
                for _ in 0..off {
                    col.push(CellRef::Null, &mut coder);
                }
                cols.push(col);
            }
            for col in cols.iter_mut() {
                col.push(cells.next().unwrap_or(CellRef::Null), &mut coder);
            }
        }
        Arc::make_mut(&mut seg.ts).value.push(ts);
        if off > 0 && off.is_multiple_of(64) {
            seg.extras.get_or_insert_default().dead.push(0);
        }
        if weighted {
            seg.extras.get_or_insert_default().weight.push(w);
        }
        seg.rows += 1;
        seg.live += 1;
        self.live += 1;
        let row = self.next_row;
        self.next_row += 1;
        row
    }

    fn seg_index(&self, row: u64) -> Option<usize> {
        let i = self.segs.partition_point(|s| s.base + s.rows as u64 <= row);
        let seg = self.segs.get(i)?;
        if row < seg.base {
            return None; // segment was compacted away
        }
        Some(i)
    }

    /// The segment and offset of a live row.
    fn live_at(&self, row: u64) -> Option<(&Segment, usize)> {
        let s = &self.segs[self.seg_index(row)?];
        let off = (row - s.base) as usize;
        (!s.is_dead(off)).then_some((s, off))
    }

    /// Materialize a live row as `(cells, ts)`; `None` if dead, gone, or
    /// in a spilled segment that cannot be read back.
    pub fn get(&self, row: u64) -> Option<(Vec<Cell>, u64)> {
        let (s, off) = self.live_at(row)?;
        let cols = s.columns(&self.read_failures)?;
        let (arity, strings) = (s.row_arity(off, cols.len()), s.strings(&self.dict));
        let cells = cols[..arity].iter().map(|c| c.get(off, strings)).collect();
        Some((cells, s.ts.get(off)))
    }

    /// Whether `get(row)` would answer exactly `(cells, ts)` — each cell
    /// compared in place against its encoded column, no row built. (A
    /// spilled segment is still decoded, once per call.)
    pub fn row_matches(&self, row: u64, cells: &[CellRef], ts: u64) -> bool {
        let Some((s, off)) = self.live_at(row) else {
            return false;
        };
        if s.ts.get(off) != ts {
            return false;
        }
        let Some(cols) = s.columns(&self.read_failures) else {
            return false;
        };
        let strings = s.strings(&self.dict);
        s.row_arity(off, cols.len()) == cells.len()
            && cols
                .iter()
                .zip(cells)
                .all(|(col, &c)| col.holds(off, c, strings))
    }

    /// Timestamp of a live row.
    pub fn ts(&self, row: u64) -> Option<u64> {
        let (s, off) = self.live_at(row)?;
        Some(s.ts.get(off))
    }

    pub fn weight(&self, row: u64) -> Option<i64> {
        let (s, off) = self.live_at(row)?;
        s.weight(off)
    }

    pub fn set_weight(&mut self, row: u64, w: i64) -> bool {
        let Some(i) = self.seg_index(row) else {
            return false;
        };
        let s = &mut self.segs[i];
        let off = (row - s.base) as usize;
        let live = !s.is_dead(off);
        let slot = s.extras.as_deref_mut().and_then(|x| x.weight.get_mut(off));
        slot.filter(|_| live).map(|slot| *slot = w).is_some()
    }

    /// Mark a row dead. Returns whether it was live. A sealed segment
    /// whose last live row dies is dropped entirely (with its spill
    /// file); row ids of later rows are unaffected.
    pub fn mark_dead(&mut self, row: u64) -> bool {
        let Some(i) = self.seg_index(row) else {
            return false;
        };
        let s = &mut self.segs[i];
        let off = (row - s.base) as usize;
        if !s.kill(off) {
            return false;
        }
        s.live -= 1;
        self.live -= 1;
        if off as u32 == s.first {
            s.first = s.next_live(off) as u32;
        }
        if s.live == 0 && s.sealed {
            self.sealed -= self.segs.remove(i).cached();
        }
        true
    }

    /// `(row id, ts)` of the oldest live row.
    pub fn first_live(&self) -> Option<(u64, u64)> {
        let s = self.segs.iter().find(|s| s.live > 0)?;
        let off = s.next_live(s.first as usize);
        Some((s.base + off as u64, s.ts.get(off)))
    }

    /// Visit every live row in row-id (= arrival) order. Each spilled
    /// segment is decoded once for the whole scan; one that cannot be
    /// read back is skipped (and counted), as
    /// [`TupleStore::for_each_live_in`] reports.
    pub fn for_each_live(&self, f: impl FnMut(u64, Vec<Cell>, u64, i64)) {
        self.for_each_live_in(0, u64::MAX, f);
    }

    /// [`TupleStore::for_each_live`] restricted to row ids in
    /// `[lo, hi)`: segments outside the range are never touched, and a
    /// spilled segment that cannot be read back is skipped — the span
    /// `(first, end)` of the rows skipped so is returned, `None` when
    /// every row was read.
    pub fn for_each_live_in(
        &self,
        lo: u64,
        hi: u64,
        mut f: impl FnMut(u64, Vec<Cell>, u64, i64),
    ) -> Option<(u64, u64)> {
        let start = self.segs.partition_point(|s| s.base + s.rows as u64 <= lo);
        let mut lost: Option<(u64, u64)> = None;
        for s in &self.segs[start..] {
            if s.base >= hi {
                break;
            }
            if s.live == 0 {
                continue;
            }
            let Some(cols) = s.columns(&self.read_failures) else {
                let first = lo.max(s.base + s.first as u64);
                let end = hi.min(s.base + s.rows as u64);
                lost = Some(lost.map_or((first, end), |(a, b)| (a.min(first), b.max(end))));
                continue;
            };
            let from = (lo.saturating_sub(s.base) as usize).max(s.first as usize);
            let to = (hi - s.base).min(s.rows as u64) as usize;
            let strings = s.strings(&self.dict);
            for off in from..to {
                if s.is_dead(off) {
                    continue;
                }
                let arity = s.row_arity(off, cols.len());
                let cells: Vec<Cell> = cols[..arity].iter().map(|c| c.get(off, strings)).collect();
                let w = s.weight(off).unwrap_or(1);
                f(s.base + off as u64, cells, s.ts.get(off), w);
            }
        }
        lost
    }

    /// Mark every live row with id below `row` dead — the release of a
    /// FIFO prefix. Sealed segments wholly below the bound are dropped
    /// outright (with their spill files) without visiting their rows.
    pub fn mark_dead_below(&mut self, row: u64) {
        let whole = self
            .segs
            .iter()
            .take_while(|s| s.sealed && s.base + s.rows as u64 <= row)
            .count();
        for seg in self.segs.drain(..whole) {
            self.live -= seg.live as u64;
            self.sealed -= seg.cached();
        }
        // At most one segment straddles the bound (or is the unsealed
        // active one, which is kept even when fully dead).
        let Some(s) = self.segs.first_mut() else {
            return;
        };
        let upto = (row.saturating_sub(s.base).min(s.rows as u64)) as usize;
        let killed = ((s.first as usize).min(upto)..upto)
            .filter(|&off| s.kill(off))
            .count() as u32;
        s.live -= killed;
        s.first = s.first.max(upto as u32);
        self.live -= killed as u64;
    }

    /// Drop every row (spill files included) and start the store's own
    /// dictionary afresh. Row ids keep increasing monotonically — ids are
    /// never reused.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.live = 0;
        self.sealed = Cached::default();
        self.dict.clear();
    }

    fn maybe_spill(&mut self) {
        let Some(cfg) = self.spill.clone() else {
            return;
        };
        let mut resident = self.resident_bytes();
        if resident <= cfg.threshold_bytes {
            return;
        }
        for s in &mut self.segs {
            if !s.sealed || matches!(s.state, SegState::Spilled(_)) {
                continue;
            }
            let before = s.cached();
            if !s.spill(&cfg.dir) {
                self.write_failures += 1;
                break;
            }
            let after = s.cached();
            resident -= before.resident - after.resident;
            self.sealed -= before;
            self.sealed += after;
            if resident <= cfg.threshold_bytes {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::{HashMap, HashSet};

    fn refs(cells: &[Cell]) -> Vec<CellRef<'_>> {
        cells.iter().map(CellRef::from).collect()
    }

    fn row(i: i64) -> Vec<Cell> {
        vec![
            Cell::Int(i),
            Cell::Float(i as f64 * 0.5),
            Cell::Text(format!("r{}", i % 4)),
        ]
    }

    #[test]
    fn push_get_round_trip_preserves_cells() {
        let mut s = TupleStore::new(3);
        for i in 0..10 {
            let id = s.push(&row(i), i as u64);
            assert_eq!(id, i as u64);
        }
        let (cells, ts) = s.get(7).unwrap();
        assert_eq!(cells, row(7));
        assert_eq!(ts, 7);
        assert_eq!(s.live_rows(), 10);
    }

    #[test]
    fn float_cells_are_bit_exact() {
        let mut s = TupleStore::new(1);
        s.push(&[Cell::Float(f64::NAN)], 0);
        s.push(&[Cell::Float(-0.0)], 1);
        let (a, _) = s.get(0).unwrap();
        let (b, _) = s.get(1).unwrap();
        assert_eq!(a[0], Cell::Float(f64::NAN));
        assert_eq!(b[0], Cell::Float(-0.0));
        assert_ne!(b[0], Cell::Float(0.0));
    }

    #[test]
    fn mixed_promotion_keeps_earlier_values() {
        let mut s = TupleStore::new(1);
        s.push(&[Cell::Int(1)], 0);
        s.push(&[Cell::Text("x".into())], 1); // promotes the Int column
        assert_eq!(s.get(0).unwrap().0, vec![Cell::Int(1)]);
        assert_eq!(s.get(1).unwrap().0, vec![Cell::Text("x".into())]);
    }

    #[test]
    fn dead_rows_disappear_and_first_live_advances() {
        let mut s = TupleStore::new(1);
        for i in 0..5 {
            s.push(&[Cell::Int(i)], i as u64);
        }
        assert!(s.mark_dead(0));
        assert!(!s.mark_dead(0), "double-kill is a no-op");
        assert!(s.mark_dead(1));
        assert_eq!(s.first_live(), Some((2, 2)));
        assert_eq!(s.live_rows(), 3);
        assert!(s.get(1).is_none());
    }

    #[test]
    fn row_ids_survive_segment_compaction() {
        let mut s = TupleStore::new(1);
        let n = SEG_CAP as u64 + 10;
        for i in 0..n {
            s.push(&[Cell::Int(i as i64)], i);
        }
        // Kill the whole first (sealed) segment: it is dropped, but later
        // row ids still resolve.
        for i in 0..SEG_CAP as u64 {
            assert!(s.mark_dead(i));
        }
        assert_eq!(s.live_rows(), 10);
        assert_eq!(
            s.get(SEG_CAP as u64).unwrap().0,
            vec![Cell::Int(SEG_CAP as i64)]
        );
        assert_eq!(s.first_live().unwrap().0, SEG_CAP as u64);
    }

    #[test]
    fn small_segments_reclaim_fifo_dead_prefix() {
        // A sliding-window (FIFO) workload: push 400 rows, keep 4 live.
        // With 8-row segments the dead prefix is reclaimed as segments
        // seal; with the default capacity nothing seals and the store
        // retains every row ever pushed.
        let mut small = TupleStore::new(1).segment_rows(8);
        let mut big = TupleStore::new(1);
        for i in 0..400u64 {
            small.push(&[Cell::Int(i as i64)], i);
            big.push(&[Cell::Int(i as i64)], i);
            if i >= 4 {
                small.mark_dead(i - 4);
                big.mark_dead(i - 4);
            }
        }
        assert_eq!(small.live_rows(), 4);
        assert_eq!(big.live_rows(), 4);
        assert!(
            small.resident_bytes() * 4 < big.resident_bytes(),
            "fifo churn should reclaim sealed dead segments: {} vs {}",
            small.resident_bytes(),
            big.resident_bytes()
        );
        // Reads are unaffected: dead rows gone, live tail intact.
        assert!(small.get(0).is_none());
        assert_eq!(small.get(399).unwrap().0, vec![Cell::Int(399)]);
        assert_eq!(small.first_live(), Some((396, 396)));
    }

    #[test]
    fn rle_compresses_constant_columns() {
        let mut constant = TupleStore::new(1);
        let mut varying = TupleStore::new(1);
        for i in 0..(SEG_CAP as i64 + 1) {
            constant.push(&[Cell::Int(42)], i as u64);
            // Spread past 32 bits and on no stride (a multiplicative
            // hash), so no narrower encoding applies.
            let spread = (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            varying.push(&[Cell::Int(spread as i64)], i as u64);
        }
        // Same rows, same always-resident metadata — the RLE'd constant
        // column should save nearly the whole 8-bytes/row payload.
        let (c, v) = (constant.resident_bytes(), varying.resident_bytes());
        assert!(
            c + SEG_CAP as usize * 7 < v,
            "rle should shrink a constant column: {c} vs {v}"
        );
        assert_eq!(constant.get(100).unwrap().0, vec![Cell::Int(42)]);
    }

    #[test]
    fn dictionary_codes_repeated_text() {
        let mut s = TupleStore::new(1);
        for i in 0..1000 {
            s.push(&[Cell::Text(format!("name-{}", i % 3))], i);
        }
        // 3 dict entries + 4-byte codes, far below storing 1000 strings.
        assert!(s.resident_bytes() < 1000 * 16);
        assert_eq!(s.get(5).unwrap().0, vec![Cell::Text("name-2".into())]);
    }

    #[test]
    fn spill_and_transparent_read_back() {
        let dir = std::env::temp_dir().join(format!("colshim-test-{}", std::process::id()));
        let mut s = TupleStore::new(3).with_spill(Some(SpillConfig::new(0, &dir)));
        let n = SEG_CAP as i64 * 2 + 5;
        for i in 0..n {
            s.push(&row(i), i as u64);
        }
        assert!(s.spilled_bytes() > 0, "sealed segments must spill");
        // Reads decode transiently and agree with the unspilled layout.
        let (cells, ts) = s.get(3).unwrap();
        assert_eq!(cells, row(3));
        assert_eq!(ts, 3);
        let mut seen = 0u64;
        s.for_each_live(|id, cells, _, w| {
            assert_eq!(cells, row(id as i64));
            assert_eq!(w, 1);
            seen += 1;
        });
        assert_eq!(seen, n as u64);
        // Killing a spilled segment's rows deletes its file.
        let spilled_before = s.spilled_bytes();
        for i in 0..SEG_CAP as u64 {
            s.mark_dead(i);
        }
        assert!(s.spilled_bytes() < spilled_before);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clone_materializes_spilled_segments() {
        let dir = std::env::temp_dir().join(format!("colshim-clone-{}", std::process::id()));
        let mut s = TupleStore::new(3).with_spill(Some(SpillConfig::new(0, &dir)));
        for i in 0..(SEG_CAP as i64 + 1) {
            s.push(&row(i), i as u64);
        }
        assert!(s.spilled_bytes() > 0);
        let c = s.clone();
        assert_eq!(c.spilled_bytes(), 0, "clone is fully resident");
        assert_eq!(c.get(2).unwrap().0, row(2));
        // Dropping the original deletes its file; the clone still reads.
        drop(s);
        assert_eq!(c.get(2).unwrap().0, row(2));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn weighted_rows_update_in_place() {
        let mut s = TupleStore::weighted(1);
        let r = s.push_weighted(&[Cell::Int(1)], 0, 3);
        assert_eq!(s.weight(r), Some(3));
        assert!(s.set_weight(r, -2));
        assert_eq!(s.weight(r), Some(-2));
        s.mark_dead(r);
        assert_eq!(s.weight(r), None);
    }

    #[test]
    fn prefix_release_and_range_scan_agree_with_per_row_marks() {
        let mut bulk = TupleStore::new(3).segment_rows(4);
        let mut single = TupleStore::new(3).segment_rows(4);
        for i in 0..23 {
            bulk.push(&row(i), i as u64);
            single.push(&row(i), i as u64);
        }
        for bound in [0u64, 3, 4, 9, 9, 17, 23, 40] {
            bulk.mark_dead_below(bound);
            for r in 0..bound.min(23) {
                single.mark_dead(r);
            }
            assert_eq!(bulk.live_rows(), single.live_rows(), "bound {bound}");
            assert_eq!(bulk.first_live(), single.first_live(), "bound {bound}");
            assert_eq!(bulk.resident_bytes(), single.resident_bytes());
        }
        // Ids stay monotone and a range scan sees exactly its rows.
        let mut s = TupleStore::new(3).segment_rows(4);
        for i in 0..10 {
            s.push(&row(i), i as u64);
        }
        s.mark_dead_below(3);
        let mut seen = Vec::new();
        s.for_each_live_in(1, 7, |id, cells, ts, _| {
            assert_eq!(cells, row(id as i64));
            assert_eq!(ts, id);
            seen.push(id);
        });
        assert_eq!(seen, vec![3, 4, 5, 6]);
    }

    #[test]
    fn clear_keeps_row_ids_monotone() {
        let mut s = TupleStore::new(1);
        s.push(&[Cell::Int(1)], 0);
        s.push(&[Cell::Int(2)], 0);
        s.clear();
        assert!(s.is_empty());
        let r = s.push(&[Cell::Int(3)], 0);
        assert_eq!(r, 2, "ids are never reused");
    }

    #[test]
    fn resume_at_continues_a_numbering() {
        let mut s = TupleStore::new(1);
        s.resume_at(40);
        assert_eq!(s.push(&[Cell::Int(7)], 9), 40);
        assert_eq!(s.get(40), Some((vec![Cell::Int(7)], 9)));
        assert_eq!((s.get(0), s.len()), (None, 41));
    }

    #[test]
    fn byte_caches_match_full_recompute_through_churn() {
        let dir = std::env::temp_dir().join(format!("columnar-cache-{}", std::process::id()));
        let mut s = TupleStore::weighted(3)
            .segment_rows(8)
            .with_spill(Some(SpillConfig::new(128, &dir)));
        for i in 0..200u64 {
            s.push_weighted(&row(i as i64), i, 1);
            if i >= 16 {
                s.mark_dead(i - 16);
            }
            assert_caches_exact(&s, &format!("at {i}"));
        }
        assert!(s.spilled_bytes() > 0, "spill tier never engaged");
        // Clones rehydrate spilled segments; their caches are rebuilt.
        let c = s.clone();
        let c_full: usize = c.segs.iter().map(Segment::resident_bytes).sum();
        assert_eq!(c.resident_bytes(), c_full + c.dict.bytes());
        assert_eq!(c.spilled_bytes(), 0);
        s.clear();
        assert_eq!(s.resident_bytes(), 0);
        assert_eq!(s.spilled_bytes(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn variable_arity_rows_round_trip() {
        let mut s = TupleStore::new(1);
        s.push(&[Cell::Int(1)], 0);
        s.push(&[Cell::Int(2), Cell::Int(3)], 1); // wider than the store
        s.push(&[], 2); // narrower
        assert_eq!(s.get(0).unwrap().0, vec![Cell::Int(1)]);
        assert_eq!(s.get(1).unwrap().0, vec![Cell::Int(2), Cell::Int(3)]);
        assert_eq!(s.get(2).unwrap().0, Vec::<Cell>::new());
    }

    /// The byte gauges are caches; a full recompute must agree.
    fn assert_caches_exact(s: &TupleStore, at: &str) {
        let dict = s.dict.bytes();
        let resident = dict + s.segs.iter().map(Segment::resident_bytes).sum::<usize>();
        let pooled: usize = s.segs.iter().map(Segment::pooled_bytes).sum();
        let spilled: usize = s.segs.iter().map(Segment::spilled_bytes).sum();
        let sealed = s.segs.iter().filter(|g| g.sealed);
        let census = sealed
            .map(|g| g.cached().census)
            .chain([Census::of(8, dict)]);
        let census: Census = census.sum();
        assert_eq!(s.census(), census, "census drifted {at}");
        assert_eq!(s.resident_bytes(), resident, "resident cache drifted {at}");
        assert_eq!(s.pooled_bytes(), pooled, "pooled cache drifted {at}");
        assert_eq!(s.spilled_bytes(), spilled, "spill cache drifted {at}");
    }

    // -- sealed ≡ appended ≡ spilled ≡ cloned ---------------------------------

    /// This run's property seeds: `n` of them, in a block of their own
    /// per `ASPEN_TEST_SEED` (CI sweeps a seed matrix).
    fn test_seeds(n: u64) -> impl Iterator<Item = u64> {
        let base: u64 = std::env::var("ASPEN_TEST_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(0);
        (0..n).map(move |i| base.wrapping_mul(0x1000).wrapping_add(i))
    }

    /// How one column of the property's rows is drawn.
    #[derive(Clone, Copy)]
    enum Draw {
        /// `base + 0..=span`; span 0 is a constant column.
        Int {
            base: i64,
            span: u64,
        },
        IntFull,
        /// Stamps walking `step` a row: 0 constant, negative backwards.
        Ts {
            step: i64,
        },
        /// One of `pool` strings (`u32::MAX`: a new one every row) of
        /// `pad` bytes and up. String 0 is empty, the rest multi-byte.
        Text {
            pool: u32,
            pad: usize,
        },
        /// Small ints with a `Null` now and then: a `Mixed` column.
        Nullable,
        Float,
    }

    fn stamp(i: u64, step: i64) -> u64 {
        (1u64 << 41).wrapping_add((i as i64).wrapping_mul(step) as u64)
    }

    fn draw(d: Draw, i: u64, rng: &mut StdRng) -> Cell {
        match d {
            Draw::Int { base, span } => Cell::Int(base + rng.gen_range(0..=span) as i64),
            Draw::IntFull => Cell::Int(rng.gen()),
            Draw::Ts { step } => Cell::Ts(stamp(i, step)),
            Draw::Text { pool, pad } => {
                let id = match pool {
                    u32::MAX => i,
                    _ => rng.gen_range(0..pool) as u64,
                };
                Cell::Text(match id {
                    0 => String::new(),
                    _ => format!("é{id}✓{}", "x".repeat(pad)),
                })
            }
            Draw::Nullable if rng.gen_bool(0.1) => Cell::Null,
            Draw::Nullable => Cell::Int(rng.gen_range(0..50i64)),
            Draw::Float => Cell::Float(rng.gen()),
        }
    }

    type Row = (u64, Vec<Cell>, u64, i64);

    fn live_rows_of(s: &TupleStore) -> Vec<Row> {
        let mut out = Vec::new();
        s.for_each_live(|id, cells, ts, w| out.push((id, cells, ts, w)));
        out
    }

    /// Row `r` reads alike everywhere, by `get` and by `row_matches`.
    fn assert_row_alike(twin: &TupleStore, others: &[&TupleStore], r: u64, at: &str) {
        let want = twin.get(r);
        for (k, s) in others.iter().enumerate() {
            assert_eq!(s.get(r), want, "store {k} row {r} {at}");
            assert_eq!(s.weight(r), twin.weight(r), "store {k} row {r} {at}");
            assert_eq!(s.ts(r), twin.ts(r), "store {k} row {r} {at}");
            let (cells, ts) = want.clone().unwrap_or_default();
            let cells = refs(&cells);
            assert_eq!(s.row_matches(r, &cells, ts), want.is_some(), "{k} {r} {at}");
            assert!(!s.row_matches(r, &cells, ts ^ 1), "store {k} row {r} {at}");
            if !cells.is_empty() {
                let other = [&cells[..cells.len() - 1], &[CellRef::Pair(9, 9)]].concat();
                assert!(!s.row_matches(r, &other, ts), "store {k} row {r} {at}");
                assert!(!s.row_matches(r, &cells[1..], ts), "store {k} row {r} {at}");
            }
        }
    }

    /// No sealed column, and no sealed stamp vector, measures more than
    /// the form it was appended in; no sealed text keeps that form.
    fn assert_sealing_never_grows(s: &TupleStore, at: &str) {
        for seg in s.segs.iter().filter(|g| g.sealed) {
            assert!(seg.ts.heap_bytes() <= seg.rows as usize * 8, "stamps {at}");
            let SegState::Resident(cols) = &seg.state else {
                continue;
            };
            let strings = seg.strings(&s.dict);
            for col in cols.columns.iter() {
                assert!(!matches!(col, Column::Text(_)), "append form {at}");
                let (mut appended, mut dict) = (Column::Empty, Dict::new());
                for i in 0..col.len() {
                    let cell = col.get(i, strings);
                    appended.push(CellRef::from(&cell), &mut Coder::Own(&mut dict));
                }
                let (sealed, open) = (col.heap_bytes(), appended.heap_bytes());
                assert!(sealed <= open, "{sealed} > {open} for {col:?} {at}");
            }
        }
    }

    #[test]
    fn sealed_appended_spilled_and_cloned_stores_read_alike() {
        let columns = |rng: &mut StdRng| {
            let mut int = |span: u64| Draw::Int {
                base: rng.gen::<i64>().min(i64::MAX - span as i64),
                span,
            };
            vec![
                int(0),
                int(1),
                int(200),
                int(70_000),
                int(1 << 33),
                Draw::IntFull,
                Draw::Ts { step: 1 },
                Draw::Ts { step: -180_000 },
                Draw::Ts { step: 0 },
                Draw::Ts { step: 1 << 40 },
                Draw::Text { pool: 1, pad: 3 },
                Draw::Text { pool: 4, pad: 3 },
                Draw::Text {
                    pool: 300,
                    pad: 250,
                },
                Draw::Text {
                    pool: u32::MAX,
                    pad: 0,
                },
                Draw::Text {
                    pool: u32::MAX,
                    pad: 80,
                },
                Draw::Nullable,
                Draw::Float,
            ]
        };
        let cases = [(1u32, 40u64), (4, 90), (32, 300), (1024, 2_200)];
        let steps = [180_000i64, 1, 0, -7, 1 << 36];
        for seed in test_seeds(2) {
            for (case, &(seg_rows, n)) in cases.iter().enumerate() {
                let mut rng = StdRng::seed_from_u64(seed);
                let columns = columns(&mut rng);
                let step = steps[(seed as usize + case) % steps.len()];
                let dir = std::env::temp_dir().join(format!(
                    "colshim-prop-{}-{seed}-{seg_rows}",
                    std::process::id()
                ));
                let new = |rows: u32| TupleStore::weighted(columns.len()).segment_rows(rows);
                let mut twin = new(u32::MAX);
                let mut sealing = new(seg_rows);
                let mut spilling = new(seg_rows).with_spill(Some(SpillConfig::new(0, &dir)));
                // Short and long rows put a `Null` in most columns of a big
                // segment, so every other seed keeps its rows whole.
                let ragged = seed % 2 == 1;
                let (mut max_spilled, mut saw_coded) = (0, false);
                for i in 0..n {
                    let at = format!("(seed {seed}, {seg_rows}-row segments, step {i})");
                    let mut cells: Vec<Cell> =
                        columns.iter().map(|&d| draw(d, i, &mut rng)).collect();
                    if ragged && rng.gen_bool(0.05) {
                        cells.truncate(rng.gen_range(0..cells.len()));
                    } else if ragged && rng.gen_bool(0.01) {
                        cells.push(Cell::Bool(i % 2 == 0));
                    }
                    let (ts, w) = (stamp(i, step), rng.gen_range(-3..=3i64));
                    let victim = rng.gen_range(0..=i);
                    let below = rng.gen_range(0..=i / 2);
                    let (kill, release, reweigh) =
                        (rng.gen_bool(0.2), rng.gen_bool(0.02), rng.gen_bool(0.1));
                    for s in [&mut twin, &mut sealing, &mut spilling] {
                        assert_eq!(s.push_weighted(&cells, ts, w), i, "{at}");
                        if kill {
                            s.mark_dead(victim);
                        }
                        if release {
                            s.mark_dead_below(below);
                        }
                        if reweigh {
                            s.set_weight(victim, w - 1);
                        }
                    }
                    max_spilled = max_spilled.max(spilling.spilled_bytes());
                    let others = [&sealing, &spilling];
                    assert_row_alike(&twin, &others, i, &at);
                    if rng.gen_range(0..seg_rows) < 32 {
                        assert_row_alike(&twin, &others, rng.gen_range(0..=i), &at);
                    }
                    if (i + 1) % (n / 5) != 0 {
                        continue;
                    }
                    // The whole store, its clones included.
                    let clones = [sealing.clone(), spilling.clone()];
                    let want = live_rows_of(&twin);
                    for s in [&sealing, &spilling, &clones[0], &clones[1]] {
                        assert_eq!(live_rows_of(s), want, "{at}");
                        assert_eq!(s.live_rows(), twin.live_rows(), "{at}");
                        assert_eq!(s.first_live(), twin.first_live(), "{at}");
                        assert_caches_exact(s, &at);
                        assert_sealing_never_grows(s, &at);
                    }
                    let all = [&sealing, &spilling, &clones[0], &clones[1]];
                    for _ in 0..48 {
                        assert_row_alike(&twin, &all, rng.gen_range(0..=i), &at);
                    }
                    saw_coded |= sealing.segs.iter().any(|g| match &g.state {
                        SegState::Resident(cols) => {
                            g.gen().is_some()
                                && cols.columns.iter().any(|c| matches!(c, Column::Coded(_)))
                        }
                        SegState::Spilled(_) => false,
                    });
                }
                assert!(max_spilled > 0, "nothing spilled");
                assert_eq!(spilling.spill_read_failures(), 0);
                assert!(saw_coded || ragged, "no sealed codes");
                drop(spilling);
                let _ = fs::remove_dir_all(&dir);
            }
        }
    }

    // -- pooled ≡ private -----------------------------------------------------

    /// Full recompute of what a pool should charge: every distinct live
    /// part that holders of `stores` reference and that was published.
    fn distinct_pooled_bytes(stores: &[&TupleStore]) -> usize {
        let mut seen = HashMap::new();
        for g in stores.iter().flat_map(|s| &s.segs) {
            if g.ts.charged.is_some() {
                seen.insert(Arc::as_ptr(&g.ts) as usize, g.ts.heap_bytes());
            }
            if let SegState::Resident(cols) = &g.state {
                if cols.charged.is_some() {
                    let bytes = cols.columns.iter().map(Column::heap_bytes).sum();
                    seen.insert(Arc::as_ptr(cols) as usize, bytes);
                }
            }
        }
        seen.values().sum()
    }

    fn spill_files(dir: &PathBuf) -> usize {
        let Ok(entries) = fs::read_dir(dir) else {
            return 0;
        };
        let names = entries.filter_map(|e| e.ok()?.file_name().into_string().ok());
        names.filter(|n| n.starts_with("colspill-")).count()
    }

    /// Property: two and three stores of one pool take the same rows —
    /// the last from a row in mid-segment, via `resume_at` — coded against
    /// one dictionary whose epochs turn over, each with its own releases,
    /// kills and spill policy, and each reads exactly like an unpooled
    /// twin fed the same calls. The pool charges every live published part
    /// once; a spilled holder outlives the others; once everything is
    /// released the pool is empty, no file is left and the dictionary's
    /// generations are gone.
    #[test]
    fn pooled_stores_read_like_private_twins_and_charge_each_part_once() {
        let mut shared_segments = 0;
        for seed in test_seeds(3) {
            for holders in [2usize, 3] {
                let mut rng = StdRng::seed_from_u64(seed ^ (holders as u64) << 40);
                let dir = std::env::temp_dir().join(format!(
                    "colshim-pool-{}-{seed}-{holders}",
                    std::process::id()
                ));
                let pool = SegmentPool::default();
                // Holder 1 spills everything it seals; holder 2 starts late.
                let spill = |h: usize| (h == 1).then(|| SpillConfig::new(0, &dir));
                let start = [0, 0, rng.gen_range(1..40u64)];
                let new = |h: usize| {
                    let mut s = TupleStore::new(4).segment_rows(8).with_spill(spill(h));
                    s.resume_at(start[h]);
                    s
                };
                let mut stores: Vec<TupleStore> = (0..holders)
                    .map(|h| new(h).with_pool(pool.clone()))
                    .collect();
                let mut twins: Vec<TupleStore> = (0..holders).map(new).collect();
                let (n, mut dict, mut first_run) = (300u64, Dict::new(), None);
                for i in 0..n {
                    let at = format!("(seed {seed}, {holders} holders, row {i})");
                    let cells = [
                        Cell::Int(rng.gen_range(0..50i64)),
                        Cell::Text(format!("site-{}", rng.gen_range(0..5))),
                        Cell::Float(i as f64 * 0.25),
                        Cell::Text(format!("{i}-{}", "x".repeat(40))),
                    ];
                    // Coded once for every holder, as a source's rows are
                    // at admission; the distinct strings turn epochs over.
                    if i % 8 == 0 {
                        dict.boundary();
                    }
                    let codes = [&cells[1], &cells[3]].map(|c| match c {
                        Cell::Text(t) => dict.intern(t),
                        _ => unreachable!(),
                    });
                    let gen = dict.publish();
                    first_run.get_or_insert_with(|| Arc::downgrade(&gen.0));
                    for h in (0..holders).filter(|&h| i >= start[h]) {
                        let (victim, below) = (rng.gen_range(start[h]..=i), rng.gen_range(0..=i));
                        let (kill, release) = (rng.gen_bool(0.2), rng.gen_bool(0.05));
                        for s in [&mut stores[h], &mut twins[h]] {
                            let row = refs(&cells).into_iter();
                            let pushed =
                                s.push_coded(row, &mut codes.into_iter(), Some(&gen), i * 3, 1);
                            assert_eq!(pushed, i, "{at}");
                            if kill {
                                s.mark_dead(victim);
                            }
                            if release {
                                s.mark_dead_below(below);
                            }
                        }
                        let (s, twin) = (&stores[h], &twins[h]);
                        assert_row_alike(twin, &[s], rng.gen_range(0..=i), &at);
                        let (lo, hi) = (rng.gen_range(0..=i), rng.gen_range(0..=i + 1));
                        let mut got = Vec::new();
                        s.for_each_live_in(lo, hi, |id, c, ts, w| got.push((id, c, ts, w)));
                        let mut want = Vec::new();
                        twin.for_each_live_in(lo, hi, |id, c, ts, w| want.push((id, c, ts, w)));
                        assert_eq!(got, want, "holder {h} [{lo}, {hi}) {at}");
                        assert_eq!(s.first_live(), twin.first_live(), "holder {h} {at}");
                        assert_caches_exact(s, &at);
                        assert_eq!(s.resident_bytes(), twin.resident_bytes(), "{at}");
                    }
                    let all: Vec<&TupleStore> = stores.iter().collect();
                    assert_eq!(pool.bytes(), distinct_pooled_bytes(&all), "{at}");
                }
                // Sharing engaged: some part is held by two stores.
                let ptrs: Vec<usize> = stores
                    .iter()
                    .flat_map(|s| s.segs.iter().map(|g| Arc::as_ptr(&g.ts) as usize))
                    .collect();
                shared_segments += ptrs.len() - ptrs.iter().collect::<HashSet<_>>().len();
                // The spilled holder outlives the others, on its own file.
                assert!(stores[1].spilled_bytes() > 0, "nothing spilled");
                let spilled = stores.swap_remove(1);
                drop(stores);
                for r in 0..n {
                    assert_row_alike(&twins[1], &[&spilled], r, "after the others left");
                }
                assert_eq!(pool.bytes(), distinct_pooled_bytes(&[&spilled]));
                drop(twins);
                let mut spilled = spilled;
                spilled.mark_dead_below(n);
                assert_eq!((pool.bytes(), spilled.pooled_bytes()), (0, 0));
                assert_eq!(spill_files(&dir), 0, "a spill file outlived its rows");
                drop(spilled);
                let first_run = first_run.unwrap();
                assert!(first_run.upgrade().is_none(), "an epoch outlived its rows");
                let _ = fs::remove_dir_all(&dir);
            }
        }
        assert!(shared_segments > 50, "{shared_segments} shared segments");
    }

    // -- numbers at their width ------------------------------------------------

    /// Floats no decimal form may take: `-0.0`, NaN payloads, ±inf,
    /// subnormals, sums off every grid, and the edge of exact integers.
    fn float_edges() -> Vec<f64> {
        let exact = 2f64.powi(53);
        vec![
            -0.0,
            f64::NAN,
            f64::from_bits(0x7ff8_0000_0000_0001),
            f64::from_bits(0xfff0_0000_0000_0007),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            0.1 + 0.2,
            exact,
            -exact,
            exact + 2.0,
            exact - 1.0,
            -(exact - 1.0),
            1.0 / 3.0,
            0.001 * 3.0,
        ]
    }

    /// How one column of [`numbers`] is drawn.
    #[derive(Clone, Copy)]
    enum Number {
        /// `base + step · k`, `k` cycling 0, `max`, then random, so each
        /// sealed segment spans exactly `max` steps.
        Stride {
            base: i64,
            step: u64,
            max: u64,
            ts: bool,
        },
        /// `i64::MIN`, `i64::MAX`, -1 or 0 (`u64::MAX` or 0 as stamps).
        Extreme { ts: bool },
        /// A decimal of `exp` places around zero, made by division as the
        /// sealed form decodes it — or by multiplication, which leaves
        /// some off the grid.
        Decimal { exp: i32, span: i64, divided: bool },
        /// Half-grid values, an edge float (`-0.0`, NaN, …) now and then.
        Edgy,
    }

    fn number(d: Number, i: u64, rng: &mut StdRng, edges: &[f64]) -> Cell {
        match d {
            Number::Stride {
                base,
                step,
                max,
                ts,
            } => {
                let k = match i % 3 {
                    0 => 0,
                    1 => max,
                    _ => rng.gen_range(0..=max),
                };
                let x = (base as u64).wrapping_add(step * k);
                if ts {
                    Cell::Ts(x)
                } else {
                    Cell::Int(x as i64)
                }
            }
            Number::Extreme { ts: false } => Cell::Int([i64::MIN, i64::MAX, -1, 0][i as usize % 4]),
            Number::Extreme { ts: true } => Cell::Ts([u64::MAX, 0][rng.gen_range(0..2usize)]),
            Number::Decimal { exp, span, divided } => {
                let n = rng.gen_range(-span..=span) as f64;
                Cell::Float(match divided {
                    true => n / 10f64.powi(exp),
                    false => n * 10f64.powi(-exp),
                })
            }
            Number::Edgy if rng.gen_bool(0.02) => Cell::Float(edges[rng.gen_range(0..edges.len())]),
            Number::Edgy => Cell::Float(rng.gen_range(-400..400i64) as f64 * 0.5),
        }
    }

    /// The property's number columns: strides on every side of each
    /// `Packed` width, extremes, and floats on and off a decimal grid.
    fn numbers(rng: &mut StdRng) -> Vec<Number> {
        let mut columns = Vec::new();
        let maxes = [0, 0xFF, 0x100, 0xFFFF, 0x1_0000, 0xFFFF_FFFF, 0x1_0000_0000];
        for (k, max) in maxes.into_iter().enumerate() {
            let steps = [[(1, false), (1_953, true)], [(180_000, false), (7, true)]];
            for (step, ts) in steps[k % 2] {
                let base = rng.gen::<i64>().min(i64::MAX - (step * max) as i64);
                columns.push(Number::Stride {
                    base,
                    step,
                    max,
                    ts,
                });
            }
        }
        columns.extend([Number::Extreme { ts: false }, Number::Extreme { ts: true }]);
        for exp in 0..=5 {
            for divided in [true, false] {
                let span = rng.gen_range(1..100_000i64);
                columns.push(Number::Decimal { exp, span, divided });
            }
        }
        columns.push(Number::Edgy);
        columns
    }

    /// What sealing chose across a store's resident sealed segments.
    fn encodings(s: &TupleStore) -> HashSet<String> {
        let words = |w: &Words| match w {
            Words::For { step, deltas, .. } => {
                let width = deltas.width();
                format!("for{width}{}", if *step > 1 { "/strided" } else { "" })
            }
            other => format!("words{}", other.encoding()),
        };
        let mut out = HashSet::new();
        for g in s.segs.iter().filter(|g| g.sealed) {
            out.insert(format!("stamps {}", words(&g.ts)));
            let SegState::Resident(cols) = &g.state else {
                continue;
            };
            for c in cols.columns.iter() {
                out.insert(match c {
                    Column::Int(w) | Column::Ts(w) => words(w),
                    Column::Decimal { exp, ints } => format!("decimal{exp} {}", words(ints)),
                    other => format!("column{}", other.encoding()),
                });
            }
        }
        out
    }

    /// Property: numbers sealed at their width — strided FOR, decimals —
    /// read back bit for bit. Sealed, spilled and pooled stores answer
    /// `get`, `ts`, `row_matches` and scans exactly like an unsealed
    /// twin fed the same rows, kills and releases.
    #[test]
    fn numbers_sealed_at_their_width_read_back_bit_exact() {
        let edges = float_edges();
        let mut seen = HashSet::new();
        for seed in test_seeds(2) {
            for (seg_rows, n) in [(4u32, 120u64), (32, 700), (1024, 1_100)] {
                let mut rng = StdRng::seed_from_u64(seed ^ (seg_rows as u64) << 32);
                let columns = numbers(&mut rng);
                let dir = std::env::temp_dir().join(format!(
                    "colshim-numbers-{}-{seed}-{seg_rows}",
                    std::process::id()
                ));
                let pool = SegmentPool::default();
                let new = |rows: u32| TupleStore::new(columns.len()).segment_rows(rows);
                let mut twin = new(u32::MAX);
                let mut stores = [
                    new(seg_rows),
                    new(seg_rows).with_spill(Some(SpillConfig::new(0, &dir))),
                    new(seg_rows).with_pool(pool.clone()),
                    new(seg_rows).with_pool(pool.clone()),
                ];
                for i in 0..n {
                    let at = format!("(seed {seed}, {seg_rows}-row segments, row {i})");
                    let cells: Vec<Cell> = columns
                        .iter()
                        .map(|&d| number(d, i, &mut rng, &edges))
                        .collect();
                    let ts = stamp(i / 3, 1_953);
                    let victim = rng.gen_range(0..=i);
                    let (kill, release) = (rng.gen_bool(0.1), rng.gen_bool(0.01));
                    for s in std::iter::once(&mut twin).chain(&mut stores) {
                        assert_eq!(s.push(&cells, ts), i, "{at}");
                        if kill {
                            s.mark_dead(victim);
                        }
                        if release {
                            s.mark_dead_below(i / 4);
                        }
                    }
                    let all: Vec<&TupleStore> = stores.iter().collect();
                    assert_row_alike(&twin, &all, rng.gen_range(0..=i), &at);
                    if (i + 1) % (n / 4) == 0 {
                        let want = live_rows_of(&twin);
                        for s in &stores {
                            assert_eq!(live_rows_of(s), want, "{at}");
                            assert_caches_exact(s, &at);
                            assert_sealing_never_grows(s, &at);
                        }
                        for _ in 0..48 {
                            assert_row_alike(&twin, &all, rng.gen_range(0..=i), &at);
                        }
                        seen.extend(encodings(&stores[0]));
                    }
                }
                let [_, spilled, a, b] = &stores;
                assert!(spilled.spilled_bytes() > 0 && spilled.spill_read_failures() == 0);
                let shared = a
                    .segs
                    .iter()
                    .zip(&b.segs)
                    .filter(|(x, y)| Arc::ptr_eq(&x.ts, &y.ts));
                assert!(shared.count() > 0, "the pool shared nothing");
                drop(stores);
                let _ = fs::remove_dir_all(&dir);
            }
        }
        // Every form the property means to reach, reached.
        for form in [
            "stamps for1/strided",
            "for1/strided",
            "for2/strided",
            "for4/strided",
            "for1",
            "for2",
            "for4",
            "words0",
            "words1",
            "decimal0 for4",
            "decimal3 for4",
            "decimal1 for2",
            "column4",
        ] {
            assert!(seen.contains(form), "{form} never sealed: {seen:?}");
        }
    }

    /// Segments are cut in row-id space: a store resumed at row 45 seals
    /// `[45, 64)` first, then whole segments — the same `[64, 96)` a
    /// store numbering from 0 seals, which the pool then holds once.
    #[test]
    fn segments_align_in_row_id_space_after_resume_at() {
        let pool = SegmentPool::default();
        let mut from_zero = TupleStore::new(3).segment_rows(32).with_pool(pool.clone());
        let mut late = TupleStore::new(3).segment_rows(32).with_pool(pool.clone());
        late.resume_at(45);
        for i in 0..100 {
            from_zero.push(&row(i), i as u64);
            if i >= 45 {
                late.push(&row(i), i as u64);
            }
        }
        let cuts = |s: &TupleStore| -> Vec<(u64, u32)> {
            s.segs.iter().map(|g| (g.base, g.rows)).collect()
        };
        assert_eq!(cuts(&late), vec![(45, 19), (64, 32), (96, 4)]);
        assert_eq!(cuts(&from_zero), vec![(0, 32), (32, 32), (64, 32), (96, 4)]);
        // The short first segment is private; [64, 96) is one copy.
        assert_eq!(late.segs[0].pooled_bytes(), 0);
        assert!(Arc::ptr_eq(&late.segs[1].ts, &from_zero.segs[2].ts));
        let (SegState::Resident(a), SegState::Resident(b)) =
            (&late.segs[1].state, &from_zero.segs[2].state)
        else {
            panic!("nothing spills here");
        };
        assert!(Arc::ptr_eq(a, b));
        let pooled = from_zero.pooled_bytes();
        assert_eq!(pool.bytes(), pooled);
        assert_eq!(late.pooled_bytes(), late.segs[1].resident_bytes() - 8);
        assert_eq!(late.get(50).unwrap().0, row(50));
        drop(from_zero);
        assert_eq!(pool.bytes(), late.pooled_bytes());
        assert_eq!(late.get(70).unwrap().0, row(70));
    }

    // -- pins -----------------------------------------------------------------

    /// The benchmark's `bigwindow` row: a key below 4 096, one of 64
    /// seven-byte sites, one of four kinds, a float, 180 ms a row.
    fn events_store(spill: Option<SpillConfig>) -> TupleStore {
        let mut s = TupleStore::new(4).segment_rows(32).with_spill(spill);
        let mut rng = StdRng::seed_from_u64(1);
        for i in 0..3_200u64 {
            let key = rng.gen_range(0..4096i64);
            let kind = ["temp", "power", "door", "motion"][rng.gen_range(0..4usize)];
            let cells = [
                Cell::Int(key),
                Cell::Text(format!("site-{:02}", key % 64)),
                Cell::Text(kind.into()),
                Cell::Float(rng.gen_range(0..200i64) as f64 * 0.5),
            ];
            s.push(&cells, (i + 1) * 180_000);
        }
        s
    }

    #[test]
    fn sealed_events_row_costs_under_30_bytes() {
        let s = events_store(None);
        let per_row = s.resident_bytes() as f64 / 3_200.0;
        assert!(per_row <= 30.0, "{per_row} B a row (61 before)");
    }

    #[test]
    fn fully_spilled_store_keeps_under_6_bytes_a_row_resident() {
        let dir = std::env::temp_dir().join(format!("colshim-cold-{}", std::process::id()));
        let s = events_store(Some(SpillConfig::new(0, &dir)));
        let sealed = s.segs.iter().filter(|g| g.sealed);
        assert!(sealed.clone().all(|g| g.spilled_bytes() > 0));
        // Stamps and liveness are all that stays: 4 + 1/4 bytes a row.
        let resident: usize = sealed.map(Segment::resident_bytes).sum();
        let per_row = resident as f64 / 3_168.0;
        assert!(per_row <= 6.0, "{per_row} B a row resident");
        drop(s);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Text is coded once per store: the active segment appends codes of
    /// the store's dictionary, and every sealed segment holds narrow codes
    /// and one generation, shared by all of them — no segment holds a
    /// string.
    #[test]
    fn sealed_text_holds_no_append_map() {
        let s = events_store(None);
        let text_forms = |g: &Segment| {
            let SegState::Resident(cols) = &g.state else {
                panic!("resident store spilled");
            };
            let count = |f: fn(&Column) -> bool| cols.columns.iter().filter(|c| f(c)).count();
            (
                count(|c| matches!(c, Column::Text(_))),
                count(
                    |c| matches!(c, Column::Coded(Words::For { deltas, .. }) if deltas.width() == 1),
                ),
            )
        };
        let (active, sealed) = s.segs.split_last().unwrap();
        assert_eq!(text_forms(active), (2, 0), "the active segment appends");
        assert!(active.gen().is_none());
        assert!(sealed.iter().all(|g| text_forms(g) == (0, 2)));
        // 68 labels: the last generation resolves every sealed segment.
        let last = sealed.last().unwrap().gen().unwrap();
        assert_eq!(last.codes(), 68);
        let gens: HashSet<usize> = sealed
            .iter()
            .map(|g| Arc::as_ptr(&g.gen().unwrap().0) as usize)
            .collect();
        assert!(gens.len() < 20, "{} generations", gens.len());
    }

    /// Data no encoding helps measures no more than it did when sealing
    /// only ran RLE (the numbers are that version's, on these rows).
    #[test]
    fn incompressible_columns_measure_no_more_than_before() {
        let mut distinct = TupleStore::new(1).segment_rows(32);
        let mut full = TupleStore::new(1).segment_rows(32);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..3_200u64 {
            distinct.push(&[Cell::Text(format!("name-{i:06}"))], i);
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            full.push(&[Cell::Int(x as i64)], x);
        }
        assert!(distinct.resident_bytes() <= 154_976);
        assert!(full.resident_bytes() <= 54_400, "{}", full.resident_bytes());
    }

    /// A quarter-grid float column seals as two-place decimals on a
    /// stride of 25, and its spill encoding decodes totally: every cut
    /// short of the whole, and an exponent past 4, give `None`.
    #[test]
    fn decimal_columns_seal_strided_and_decode_totally() {
        let (mut col, mut dict) = (Column::Empty, Dict::new());
        (0..40).for_each(|i| col.push(CellRef::Float(i as f64 * 0.25), &mut Coder::Own(&mut dict)));
        col.seal(Strings::Dict(&dict));
        let strided =
            |w: &Words| matches!(w, Words::For { step: 25, deltas, .. } if deltas.width() == 1);
        assert!(
            matches!(&col, Column::Decimal { exp: 2, ints } if strided(ints)),
            "{col:?}"
        );
        assert_eq!(col.heap_bytes(), 40);
        let raw = encode_segment(std::slice::from_ref(&col));
        let back = decode_segment(&raw, 40, 0).unwrap();
        let get = |i| back[0].get(i, Strings::Dict(&dict));
        assert!((0..40).all(|i| get(i) == Cell::Float(i as f64 * 0.25)));
        let payload = &raw[..raw.len() - 8];
        assert!((0..payload.len()).all(|cut| decode_columns(&payload[..cut], 40, 0).is_none()));
        let mut bad = payload.to_vec();
        bad[5] = 5; // the exponent, after the count and the column's tag
        assert!(decode_columns(&bad, 40, 0).is_none());
    }

    /// The dictionary `census` reports.
    fn dictionary_bytes(s: &TupleStore) -> usize {
        s.census().iter().find(|e| e.0 == "dictionary").unwrap().1
    }

    /// A one-segment store charges no more for a text column — its codes
    /// and its own dictionary — than the per-segment dictionary it
    /// replaced did: 4 B a code, and for each distinct string 24 B in the
    /// dictionary, 32 B in the append map and its bytes in both.
    #[test]
    fn a_one_segment_text_store_charges_no_more_than_a_segment_dictionary() {
        for (rows, labels, len) in [
            (1, 1, 1),
            (32, 1, 4),
            (32, 4, 8),
            (32, 32, 12),
            (20, 20, 40),
        ] {
            let label = |i: usize| Cell::Text(format!("{:0len$}", i % labels));
            let mut text = TupleStore::new(2).segment_rows(32);
            let mut bare = TupleStore::new(1).segment_rows(32);
            for i in 0..rows {
                text.push(&[Cell::Int(i as i64), label(i)], i as u64);
                bare.push(&[Cell::Int(i as i64)], i as u64);
            }
            let charged = text.resident_bytes() - bare.resident_bytes();
            let before = 4 * rows + labels * (56 + 2 * len);
            let at = format!("{rows} rows of {labels} strings of {len} B");
            assert!(charged <= before, "{charged} B > {before} B for {at}");
            assert!(dictionary_bytes(&text) > 0, "{at}");
        }
    }

    /// A store without text holds no dictionary, and charges what it did
    /// before text was coded once per store.
    #[test]
    fn a_store_without_text_holds_no_dictionary() {
        let mut s = TupleStore::new(3).segment_rows(32);
        for i in 0..100i64 {
            let cells = [
                Cell::Int(i % 7),
                Cell::Float(i as f64 * 0.25),
                Cell::Ts(i as u64),
            ];
            s.push(&cells, i as u64 * 1_000);
        }
        assert_eq!((dictionary_bytes(&s), s.dict.bytes()), (0, 0));
        assert_eq!(s.resident_bytes(), 544);
    }

    /// A spilled segment keeps the generation its codes resolve against,
    /// and reads back the cells it was pushed — coded by its own store or
    /// handed codes of a shared dictionary — as does a rehydrated clone.
    #[test]
    fn spilled_coded_segments_read_back_their_cells() {
        let dir = std::env::temp_dir().join(format!("columnar-coded-{}", std::process::id()));
        let spill = || Some(SpillConfig::new(0, &dir));
        let mut own = TupleStore::new(3).segment_rows(8).with_spill(spill());
        let mut handed = TupleStore::new(3).segment_rows(8).with_spill(spill());
        let mut dict = Dict::new();
        let rows: Vec<Vec<Cell>> = (0..44i64)
            .map(|i| {
                let site = Cell::Text(format!("site-{}", i % 5));
                vec![Cell::Int(i), site, Cell::Text(format!("{i}"))]
            })
            .collect();
        for (i, cells) in rows.iter().enumerate() {
            own.push(cells, i as u64);
            if i % 8 == 0 {
                dict.boundary();
            }
            let mut codes = cells[1..].iter().map(|c| match c {
                Cell::Text(t) => dict.intern(t),
                _ => unreachable!(),
            });
            let codes: Vec<u32> = codes.by_ref().collect();
            let gen = dict.publish();
            handed.push_coded(
                refs(cells).into_iter(),
                &mut codes.into_iter(),
                Some(&gen),
                i as u64,
                1,
            );
        }
        for s in [&own, &handed] {
            let spilled = s
                .segs
                .iter()
                .filter(|g| matches!(g.state, SegState::Spilled(_)));
            assert_eq!(spilled.clone().count(), 5, "every sealed segment spilled");
            assert!(
                spilled.clone().all(|g| g.gen().is_some()),
                "a spilled segment kept its codes' strings"
            );
            for s in [s, &s.clone()] {
                for (i, cells) in rows.iter().enumerate() {
                    assert_eq!(s.get(i as u64), Some((cells.clone(), i as u64)), "row {i}");
                    assert!(s.row_matches(i as u64, &refs(cells), i as u64), "row {i}");
                }
                assert_eq!(s.spill_read_failures(), 0);
            }
        }
        drop((own, handed));
        let _ = fs::remove_dir_all(&dir);
    }

    // -- damaged spill files ----------------------------------------------------

    #[test]
    fn damaged_spill_file_reads_as_absent_rows_and_is_counted() {
        let truncate = |p: &PathBuf, len: fn(usize) -> usize| {
            let raw = fs::read(p).unwrap();
            fs::write(p, &raw[..len(raw.len())]).unwrap();
        };
        type Damage<'a> = &'a dyn Fn(&PathBuf);
        let damages: [(&str, Damage); 5] = [
            ("deleted", &|p| fs::remove_file(p).unwrap()),
            ("cut to 3 bytes", &|p| truncate(p, |_| 3)),
            ("cut to half", &|p| truncate(p, |n| n / 2)),
            ("tag byte flipped", &|p| {
                let mut raw = fs::read(p).unwrap();
                raw[4] ^= 0xFF; // the first column's tag, after the count
                fs::write(p, raw).unwrap();
            }),
            ("value byte flipped", &|p| {
                let mut raw = fs::read(p).unwrap();
                let payload = raw.len() - 8; // the checksum trails it
                let before = decode_columns(&raw[..payload], 8, 4).unwrap();
                // The text column's last code: unchecked, the segment
                // would still decode — to a row with another value.
                raw[payload - 1] ^= 1;
                let after = decode_columns(&raw[..payload], 8, 4).unwrap();
                assert_ne!(format!("{:?}", after[2]), format!("{:?}", before[2]));
                fs::write(p, raw).unwrap();
            }),
        ];
        for (k, (what, damage)) in damages.iter().enumerate() {
            let dir = std::env::temp_dir().join(format!("colshim-bad-{}-{k}", std::process::id()));
            let mut s = TupleStore::new(3)
                .segment_rows(8)
                .with_spill(Some(SpillConfig::new(0, &dir)));
            for i in 0..20 {
                s.push(&row(i), i as u64);
            }
            let SegState::Spilled(file) = &s.segs[0].state else {
                panic!("the first segment did not spill");
            };
            damage(&file.path);
            // Every read of the segment fails once, without a panic.
            assert_eq!(s.get(3), None, "{what}");
            assert_eq!(s.spill_read_failures(), 1, "{what}");
            assert!(!s.row_matches(3, &refs(&row(3)), 3), "{what}");
            assert_eq!(s.spill_read_failures(), 2, "{what}");
            let seen: Vec<u64> = live_rows_of(&s).iter().map(|r| r.0).collect();
            assert_eq!(seen, (8..20).collect::<Vec<u64>>(), "{what}");
            assert_eq!(s.spill_read_failures(), 3, "{what}");
            // Stamps stay resident; the other segments still read.
            assert_eq!((s.ts(3), s.get(9).unwrap().0), (Some(3), row(9)), "{what}");
            // A clone cannot hold what it could not read.
            let c = s.clone();
            assert_eq!((s.spill_read_failures(), c.spill_read_failures()), (4, 4));
            assert_eq!((c.get(3), c.live_rows(), c.len()), (None, 12, 20), "{what}");
            assert_eq!(c.get(9).unwrap().0, row(9), "{what}");
            // A ranged read reports the span it skipped.
            let skipped = |lo, hi| s.for_each_live_in(lo, hi, |_, _, _, _| {});
            assert_eq!(
                (skipped(2, 30), skipped(8, 30)),
                (Some((2, 8)), None),
                "{what}"
            );
            drop(s);
            let _ = fs::remove_dir_all(&dir);
        }
    }

    /// A spill directory that cannot be made (a path under a regular
    /// file) costs one failed write per seal past the threshold, and
    /// the store holds what a store without a spill tier holds.
    #[test]
    fn failed_spill_writes_are_counted_once_per_seal() {
        let file = std::env::temp_dir().join(format!("colshim-unwritable-{}", std::process::id()));
        fs::write(&file, b"not a directory").unwrap();
        let mut s = TupleStore::new(3)
            .segment_rows(8)
            .with_spill(Some(SpillConfig::new(0, file.join("spill"))));
        let mut plain = TupleStore::new(3).segment_rows(8);
        for i in 0..40 {
            s.push(&row(i), i as u64);
            plain.push(&row(i), i as u64);
            assert_eq!(s.spill_write_failures(), i as u64 / 8, "after row {i}");
        }
        assert_eq!((s.spilled_bytes(), s.spill_read_failures()), (0, 0));
        assert_eq!(s.resident_bytes(), plain.resident_bytes());
        assert_eq!(live_rows_of(&s), live_rows_of(&plain));
        assert_eq!(s.clone().spill_write_failures(), 4);
        let _ = fs::remove_file(&file);
    }
}
