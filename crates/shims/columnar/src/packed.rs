//! [`Packed`] — integer cells at the width their values need.

use std::fmt::Debug;

/// A column of `u64` values stored at one, two, four or eight bytes a
/// cell, optionally against a base (a cell holds `value − base`). The
/// data alone picks the width: a value that does not fit widens the
/// column in place (O(len), at most once per width), and a *based*
/// column moves its base as well.
///
/// * **Unbased** (`Packed`, i.e. `Packed<()>`: 32 B, no base kept): the
///   cells are the values; a value past the width's maximum widens the
///   column to the narrowest width holding it. Ids, counts, offsets, and
///   signed values zig-zagged (`*_i64`: 0, −1, 1, −2, … as 0, 1, 2, 3, …)
///   keep it narrow while they stay small.
/// * **Based** (`Packed<u64>`, [`Packed::based`]): for values that
///   cluster far from 0 (group keys, stamps). A value outside
///   `[base, base + max]` re-lays the cells out centred on the span of
///   every value held: at the current width while that span is at most
///   half of it, else at the narrowest width it is at most half of — so
///   a re-layout leaves a quarter of the width's range free on either
///   side, and values that drift re-base after moving that far. At eight
///   bytes the base is 0 and every value fits.
///
/// Bytes are counted by capacity ([`Packed::heap_bytes`]); a widening
/// keeps the capacity in cells.
#[derive(Debug, Clone, Default)]
pub struct Packed<B: Base = ()> {
    cells: Cells,
    /// Added to every cell.
    base: B,
}

/// What a [`Packed`] column adds to its cells: nothing (`()`), or a
/// `u64` base the column moves itself.
pub trait Base: Copy + Default + Debug {
    /// Whether the column moves its base.
    const MOVES: bool;
    fn value(self) -> u64;
    fn set(&mut self, base: u64);
}

impl Base for () {
    const MOVES: bool = false;
    #[inline]
    fn value(self) -> u64 {
        0
    }
    fn set(&mut self, _: u64) {}
}

impl Base for u64 {
    const MOVES: bool = true;
    #[inline]
    fn value(self) -> u64 {
        self
    }
    fn set(&mut self, base: u64) {
        *self = base;
    }
}

#[derive(Debug, Clone)]
enum Cells {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
    U64(Vec<u64>),
}

impl Default for Cells {
    fn default() -> Self {
        Cells::U8(Vec::new())
    }
}

/// `$body` with `$v` bound to the cell vector, whatever its width.
macro_rules! each {
    ($cells:expr, $v:ident => $body:expr) => {
        match $cells {
            Cells::U8($v) => $body,
            Cells::U16($v) => $body,
            Cells::U32($v) => $body,
            Cells::U64($v) => $body,
        }
    };
}

/// The largest value a cell of `width` bytes holds.
fn max_of(width: usize) -> u64 {
    match width {
        1 => u8::MAX as u64,
        2 => u16::MAX as u64,
        4 => u32::MAX as u64,
        _ => u64::MAX,
    }
}

/// `x` zig-zagged: small magnitudes of either sign are small.
#[inline]
fn zigzag(x: i64) -> u64 {
    ((x << 1) ^ (x >> 63)) as u64
}

#[inline]
fn unzigzag(u: u64) -> i64 {
    (u >> 1) as i64 ^ -((u & 1) as i64)
}

impl Cells {
    fn with_capacity(width: usize, capacity: usize) -> Cells {
        match width {
            1 => Cells::U8(Vec::with_capacity(capacity)),
            2 => Cells::U16(Vec::with_capacity(capacity)),
            4 => Cells::U32(Vec::with_capacity(capacity)),
            _ => Cells::U64(Vec::with_capacity(capacity)),
        }
    }

    fn width(&self) -> usize {
        match self {
            Cells::U8(_) => 1,
            Cells::U16(_) => 2,
            Cells::U32(_) => 4,
            Cells::U64(_) => 8,
        }
    }

    /// Append a cell that fits.
    #[inline]
    fn push(&mut self, c: u64) {
        each!(self, v => v.push(c as _))
    }

    #[inline]
    #[allow(clippy::unnecessary_cast)] // the `u64` cells
    fn get(&self, i: usize) -> u64 {
        each!(self, v => v[i] as u64)
    }
}

impl Packed {
    /// An empty unbased column, one byte a cell until a value needs more.
    pub fn new() -> Packed {
        Packed::default()
    }

    /// An empty unbased column of `capacity` cells, at the width that
    /// holds `max`.
    pub fn with_capacity(capacity: usize, max: u64) -> Packed {
        Packed {
            cells: Cells::with_capacity(Packed::width_of(max), capacity),
            base: (),
        }
    }

    /// `len` zero cells, unbased, at the width that holds `max`.
    pub fn zeros(len: usize, max: u64) -> Packed {
        let cells = match Packed::width_of(max) {
            1 => Cells::U8(vec![0; len]),
            2 => Cells::U16(vec![0; len]),
            4 => Cells::U32(vec![0; len]),
            _ => Cells::U64(vec![0; len]),
        };
        Packed { cells, base: () }
    }

    /// `values`, none above `max`, unbased at the width that holds `max`,
    /// capacity as exact as the iterator's length is.
    pub fn pack(max: u64, values: impl IntoIterator<Item = u64>) -> Packed {
        let values = values.into_iter();
        let mut p = Packed::with_capacity(values.size_hint().0, max);
        values.for_each(|x| p.cells.push(x));
        p.shrink_to_fit();
        p
    }

    /// Bytes a cell takes when the largest value is `max`.
    pub fn width_of(max: u64) -> usize {
        match max {
            0..=0xFF => 1,
            0x100..=0xFFFF => 2,
            0x1_0000..=0xFFFF_FFFF => 4,
            _ => 8,
        }
    }

    /// Append the spill form: the width byte, the length, the cells
    /// little-endian.
    pub(crate) fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(self.width() as u8);
        buf.extend_from_slice(&(self.len() as u32).to_le_bytes());
        match &self.cells {
            Cells::U8(v) => buf.extend_from_slice(v),
            Cells::U16(v) => v.iter().for_each(|x| buf.extend(x.to_le_bytes())),
            Cells::U32(v) => v.iter().for_each(|x| buf.extend(x.to_le_bytes())),
            Cells::U64(v) => v.iter().for_each(|x| buf.extend(x.to_le_bytes())),
        }
    }

    /// The column [`Packed::encode`] wrote at the front of `buf`, which
    /// is advanced past it; `None` if it is cut short or malformed.
    pub(crate) fn decode(buf: &mut &[u8]) -> Option<Packed> {
        let (&width, rest) = buf.split_first()?;
        let len = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?) as usize;
        let width = width as usize;
        if !matches!(width, 1 | 2 | 4 | 8) {
            return None;
        }
        let raw = rest.get(4..4 + len.checked_mul(width)?)?;
        *buf = &rest[4 + raw.len()..];
        let chunks = raw.chunks_exact(width);
        let cells = match width {
            1 => Cells::U8(raw.to_vec()),
            2 => Cells::U16(chunks.map(|c| u16::from_le_bytes([c[0], c[1]])).collect()),
            4 => Cells::U32(
                chunks
                    .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
            _ => Cells::U64(
                chunks
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ),
        };
        Some(Packed { cells, base: () })
    }
}

impl Packed<u64> {
    /// An empty based column (type docs).
    pub fn based() -> Packed<u64> {
        Packed::default()
    }
}

impl<B: Base> Packed<B> {
    /// Bytes a cell takes now.
    pub fn width(&self) -> usize {
        self.cells.width()
    }

    /// The largest cell the width holds: for an unbased column, the
    /// largest value it holds without widening.
    pub fn max(&self) -> u64 {
        max_of(self.width())
    }

    pub fn len(&self) -> usize {
        each!(&self.cells, v => v.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Cells allocated.
    pub fn capacity(&self) -> usize {
        each!(&self.cells, v => v.capacity())
    }

    /// Heap bytes: the capacity at the width.
    pub fn heap_bytes(&self) -> usize {
        self.capacity() * self.width()
    }

    #[inline]
    pub fn get(&self, i: usize) -> u64 {
        self.base.value().wrapping_add(self.cells.get(i))
    }

    /// The values, in order.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// The cell `x` takes, making room for it first.
    #[inline]
    fn cell(&mut self, x: u64) -> u64 {
        let c = x.wrapping_sub(self.base.value());
        if c <= self.max() {
            return c;
        }
        self.make_room(x);
        x - self.base.value()
    }

    #[inline]
    pub fn set(&mut self, i: usize, x: u64) {
        let c = self.cell(x);
        each!(&mut self.cells, v => v[i] = c as _)
    }

    #[inline]
    pub fn push(&mut self, x: u64) {
        let c = self.cell(x);
        self.cells.push(c)
    }

    #[allow(clippy::unnecessary_cast)] // the `u64` cells
    pub fn pop(&mut self) -> Option<u64> {
        let c = each!(&mut self.cells, v => v.pop().map(|c| c as u64));
        c.map(|c| self.base.value().wrapping_add(c))
    }

    /// Remove cell `i`, the last taking its place.
    #[allow(clippy::unnecessary_cast)] // the `u64` cells
    pub fn swap_remove(&mut self, i: usize) -> u64 {
        let c = each!(&mut self.cells, v => v.swap_remove(i) as u64);
        self.base.value().wrapping_add(c)
    }

    pub fn truncate(&mut self, len: usize) {
        each!(&mut self.cells, v => v.truncate(len))
    }

    /// Room for `additional` more cells, allocated exactly.
    pub fn reserve_exact(&mut self, additional: usize) {
        each!(&mut self.cells, v => v.reserve_exact(additional))
    }

    pub fn shrink_to_fit(&mut self) {
        each!(&mut self.cells, v => v.shrink_to_fit())
    }

    /// Cell `i` of a column of signed values (zig-zagged, type docs).
    #[inline]
    pub fn get_i64(&self, i: usize) -> i64 {
        unzigzag(self.get(i))
    }

    #[inline]
    pub fn set_i64(&mut self, i: usize, x: i64) {
        self.set(i, zigzag(x))
    }

    #[inline]
    pub fn push_i64(&mut self, x: i64) {
        self.push(zigzag(x))
    }

    /// Widen (and, if based, re-base) so that `x` fits (type docs).
    #[cold]
    fn make_room(&mut self, x: u64) {
        if !B::MOVES {
            return self.relayout(Packed::width_of(x), 0);
        }
        let (lo, hi) = self
            .iter()
            .fold((x, x), |(lo, hi), v| (lo.min(v), hi.max(v)));
        let span = hi - lo;
        let width = self.width().max(Packed::width_of(span.saturating_mul(2)));
        let max = max_of(width);
        let base = lo.saturating_sub((max - span) / 2).min(u64::MAX - max);
        self.relayout(width, base);
    }

    /// The same values at `width` bytes a cell against `base` (0 for an
    /// unbased column), the capacity kept.
    fn relayout(&mut self, width: usize, base: u64) {
        let mut cells = Cells::with_capacity(width, self.capacity());
        (0..self.len()).for_each(|i| cells.push(self.get(i) - base));
        self.cells = cells;
        self.base.set(base);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Values on both sides of every width's edge, of the base, and the
    /// extremes.
    fn edgy(rng: &mut StdRng, around: u64) -> u64 {
        const EDGES: [u64; 10] = [
            0,
            0xFF,
            0x100,
            0xFFFF,
            0x1_0000,
            0xFFFF_FFFF,
            0x1_0000_0000,
            i64::MAX as u64,
            i64::MIN as u64,
            u64::MAX,
        ];
        match rng.gen_range(0..4) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => EDGES[rng.gen_range(0..EDGES.len())].wrapping_add(rng.gen_range(0..3u64)),
            _ => around
                .wrapping_add(rng.gen_range(0..600u64))
                .wrapping_sub(300),
        }
    }

    /// Push, set, pop, swap-remove and truncate against a `Vec` model,
    /// unbased, based and signed, with values crossing every width, the
    /// base and the extremes; the width never narrows, and a column of
    /// small values stays narrow.
    #[test]
    fn packed_columns_match_a_vec_model() {
        fn check<B: Base>(col: &Packed<B>, model: &[u64], width: &mut usize, ctx: &str) {
            assert!(col.width() >= *width, "{ctx}: narrowed");
            *width = col.width();
            assert!(col.iter().eq(model.iter().copied()), "{ctx}");
            assert_eq!(col.heap_bytes(), col.capacity() * col.width(), "{ctx}");
        }
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let around = [0, 1 << 20, u64::MAX - 500, i64::MIN as u64][seed as usize % 4];
            let (mut model, mut signed): (Vec<u64>, Vec<i64>) = (Vec::new(), Vec::new());
            let (mut based, mut plain, mut zig) = (Packed::based(), Packed::new(), Packed::new());
            let mut widths = [1; 2];
            for step in 0..600 {
                // Mostly near `around`, now and then anywhere.
                let x = match step < 300 && rng.gen_bool(0.9) {
                    true => around.wrapping_add(rng.gen_range(0..200u64)),
                    false => edgy(&mut rng, around),
                };
                let s = x as i64 >> rng.gen_range(0..64);
                match rng.gen_range(0..10) {
                    0..=4 => {
                        based.push(x);
                        plain.push(x);
                        model.push(x);
                        zig.push_i64(s);
                        signed.push(s);
                    }
                    5..=6 if !model.is_empty() => {
                        let i = rng.gen_range(0..model.len());
                        based.set(i, x);
                        plain.set(i, x);
                        model[i] = x;
                        zig.set_i64(i, s);
                        signed[i] = s;
                    }
                    7 => {
                        let popped = model.pop();
                        assert_eq!((based.pop(), plain.pop()), (popped, popped));
                    }
                    8 if !model.is_empty() => {
                        let i = rng.gen_range(0..model.len());
                        let removed = model.swap_remove(i);
                        assert_eq!(
                            (based.swap_remove(i), plain.swap_remove(i)),
                            (removed, removed)
                        );
                        zig.swap_remove(i);
                        signed.swap_remove(i);
                    }
                    _ => {
                        let len = rng.gen_range(0..=model.len());
                        based.truncate(len);
                        plain.truncate(len);
                        model.truncate(len);
                    }
                }
                zig.truncate(model.len());
                signed.truncate(model.len());
                let ctx = format!("seed {seed} step {step}");
                check(&based, &model, &mut widths[0], &format!("based, {ctx}"));
                check(&plain, &model, &mut widths[1], &format!("unbased, {ctx}"));
                assert!((0..signed.len())
                    .map(|i| zig.get_i64(i))
                    .eq(signed.iter().copied()));
            }
        }
        // Small values, wherever they sit, stay narrow.
        let mut ids = Packed::new();
        (0..200).for_each(|x| ids.push(x));
        assert_eq!(ids.width(), 1);
        ids.push(256);
        assert_eq!((ids.width(), ids.get(200), ids.get(199)), (2, 256, 199));
        let mut keys = Packed::based();
        (0..4_000).for_each(|k| keys.push(u64::MAX - 10_000 + (k * 7_919) % 4_000));
        assert_eq!(keys.width(), 2);
        let mut weights = Packed::new();
        [3, -5, 0, 60, -64]
            .into_iter()
            .for_each(|w| weights.push_i64(w));
        assert_eq!(weights.width(), 1);
        weights.push_i64(i64::MIN);
        assert_eq!((weights.width(), weights.get_i64(5)), (8, i64::MIN));
        // An unbased column keeps no base: it is the size of its cells.
        assert_eq!(std::mem::size_of::<Packed>(), 32);
    }

    /// A based column of values drifting up or down, their span fixed (a
    /// ring of the last `n`), stays at the narrowest width twice the span
    /// fits and re-bases at most once per quarter of that width's range.
    #[test]
    fn drifting_values_rebase_rarely() {
        let cases = [(100, 1, 64), (1_000, 2, 0x4000)];
        for ((n, width, quarter), up) in cases.into_iter().flat_map(|c| [(c, true), (c, false)]) {
            let mut col = Packed::based();
            let (mut relayouts, mut base) = (0, col.base);
            for x in 0..100_000u64 {
                let v = if up { (1 << 40) + x } else { (1 << 40) - x };
                match col.len() < n {
                    true => col.push(v),
                    false => col.set(x as usize % n, v),
                }
                relayouts += (col.base != base) as u64;
                base = col.base;
            }
            assert_eq!(col.width(), width);
            assert!(
                relayouts <= 100_000 / quarter + 2,
                "{n}, up {up}: {relayouts}"
            );
        }
    }

    #[test]
    fn spill_form_round_trips_and_refuses_damage() {
        for max in [0xFF, 0xFFFF, 0xFFFF_FFFF, u64::MAX] {
            let col = Packed::pack(max, (0..50).map(|i| max - i));
            let mut buf = Vec::new();
            col.encode(&mut buf);
            buf.push(7);
            let mut read = &buf[..];
            let back = Packed::decode(&mut read).unwrap();
            assert!(back.iter().eq(col.iter()));
            assert_eq!((back.width(), read), (col.width(), &[7][..]));
            for cut in 0..buf.len() - 1 {
                assert!(Packed::decode(&mut &buf[..cut]).is_none());
            }
        }
        assert!(Packed::decode(&mut &[3, 0, 0, 0, 0][..]).is_none());
    }
}
