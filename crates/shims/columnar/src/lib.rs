//! Offline stand-in for a columnar storage library (Kuzu-style column
//! groups, in the spirit of the `ruzu` port). Implements exactly the
//! surface the stream engine's state layer needs:
//!
//! * [`Cell`] — a self-describing scalar (the exchange type; the engine
//!   converts its own `Value` enum to and from cells at the boundary).
//!   Equality and hashing are *bit-exact* for floats, matching a
//!   total-order comparison: `NaN == NaN`, `0.0 != -0.0`.
//! * [`Column`] — one attribute laid out as a primitive vector. A column
//!   starts typed from its first cell (`i64`, `f64` bits, `bool`, `u64`,
//!   or dictionary-coded text) and promotes itself to a row-of-cells
//!   `Mixed` fallback the moment a non-conforming cell arrives, so the
//!   store never rejects data. Sealed integer columns are additionally
//!   run-length encoded when that shrinks them.
//! * [`TupleStore`] — an append-only row store laid out column-wise in
//!   fixed-capacity *segments*. Every row gets a monotonically increasing
//!   row id (never reused, stable across compaction), a timestamp, a
//!   liveness bit, and optionally a signed weight. Timestamps, liveness,
//!   and weights stay resident always; the value columns of a sealed
//!   segment may be *spilled* to disk ([`SpillConfig`]) and are decoded
//!   transiently on access. Fully-dead sealed segments are dropped (and
//!   their spill files deleted) automatically.
//!
//! Byte accounting is first-class: [`TupleStore::resident_bytes`] /
//! [`TupleStore::spilled_bytes`] measure the actual heap/disk footprint,
//! which is what the engine surfaces through its telemetry.

use std::collections::HashMap;
use std::fs;
use std::hash::{Hash, Hasher};
use std::io::{Read, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

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
        match (self, other) {
            (Cell::Null, Cell::Null) => true,
            (Cell::Bool(a), Cell::Bool(b)) => a == b,
            (Cell::Int(a), Cell::Int(b)) => a == b,
            // Bit equality: NaN == NaN, 0.0 != -0.0 — the same equivalence
            // a total-order float comparison induces.
            (Cell::Float(a), Cell::Float(b)) => a.to_bits() == b.to_bits(),
            (Cell::Text(a), Cell::Text(b)) => a == b,
            (Cell::Ts(a), Cell::Ts(b)) => a == b,
            (Cell::Pair(a, x), Cell::Pair(b, y)) => a == b && x == y,
            _ => false,
        }
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

// ---------------------------------------------------------------------------
// Columns

/// One attribute of a segment, stored as a primitive vector where the
/// data allows it.
#[derive(Debug, Clone)]
pub enum Column {
    /// Untyped: no cell pushed yet.
    Empty,
    Int(Vec<i64>),
    /// `f64` bit patterns — exact round-trip, NaN payloads included.
    Float(Vec<u64>),
    Bool(Vec<bool>),
    Ts(Vec<u64>),
    /// Dictionary-coded text. `map` accelerates appends and is dropped
    /// at seal time (`codes` + `dict` suffice for reads).
    Text {
        dict: Vec<String>,
        map: HashMap<String, u32>,
        codes: Vec<u32>,
        /// Σ string lengths in `dict` (O(1) byte accounting).
        str_bytes: usize,
    },
    /// Row-of-cells fallback for heterogeneous or null-bearing columns.
    Mixed(Vec<Cell>, usize),
    /// Run-length-encoded i64 (sealed segments only). `ends[i]` is the
    /// exclusive prefix row count of run `i`.
    RleInt {
        values: Vec<i64>,
        ends: Vec<u32>,
    },
    /// Run-length-encoded u64 timestamps (sealed segments only).
    RleTs {
        values: Vec<u64>,
        ends: Vec<u32>,
    },
}

fn cell_heap(c: &Cell) -> usize {
    match c {
        Cell::Text(s) => s.len(),
        _ => 0,
    }
}

impl Column {
    fn len(&self) -> usize {
        match self {
            Column::Empty => 0,
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Bool(v) => v.len(),
            Column::Ts(v) => v.len(),
            Column::Text { codes, .. } => codes.len(),
            Column::Mixed(v, _) => v.len(),
            Column::RleInt { ends, .. } | Column::RleTs { ends, .. } => {
                ends.last().copied().unwrap_or(0) as usize
            }
        }
    }

    /// Approximate heap bytes of this column's payload (O(1)).
    pub fn heap_bytes(&self) -> usize {
        match self {
            Column::Empty => 0,
            Column::Int(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Bool(v) => v.len(),
            Column::Ts(v) => v.len() * 8,
            Column::Text {
                dict,
                map,
                codes,
                str_bytes,
            } => {
                // Dict strings + codes; the append map doubles the string
                // payload while it is alive (cleared at seal).
                let map_cost = if map.is_empty() {
                    0
                } else {
                    *str_bytes + map.len() * 32
                };
                codes.len() * 4 + dict.len() * 24 + *str_bytes + map_cost
            }
            Column::Mixed(v, text) => v.len() * std::mem::size_of::<Cell>() + *text,
            Column::RleInt { values, ends } => values.len() * 8 + ends.len() * 4,
            Column::RleTs { values, ends } => values.len() * 8 + ends.len() * 4,
        }
    }

    /// Rebuild self as `Mixed`, then push the non-conforming cell.
    fn promote_and_push(&mut self, cell: Cell) {
        let cells: Vec<Cell> = (0..self.len()).map(|i| self.get(i)).collect();
        let text: usize = cells.iter().map(cell_heap).sum();
        let mut mixed = Column::Mixed(cells, text);
        std::mem::swap(self, &mut mixed);
        self.push(cell);
    }

    pub fn push(&mut self, cell: Cell) {
        match (&mut *self, cell) {
            (Column::Empty, c) => {
                *self = match c {
                    Cell::Int(i) => Column::Int(vec![i]),
                    Cell::Float(f) => Column::Float(vec![f.to_bits()]),
                    Cell::Bool(b) => Column::Bool(vec![b]),
                    Cell::Ts(t) => Column::Ts(vec![t]),
                    Cell::Text(s) => {
                        let str_bytes = s.len();
                        let mut map = HashMap::new();
                        map.insert(s.clone(), 0u32);
                        Column::Text {
                            dict: vec![s],
                            map,
                            codes: vec![0],
                            str_bytes,
                        }
                    }
                    other => Column::Mixed(vec![other], 0),
                };
            }
            (Column::Int(v), Cell::Int(i)) => v.push(i),
            (Column::Float(v), Cell::Float(f)) => v.push(f.to_bits()),
            (Column::Bool(v), Cell::Bool(b)) => v.push(b),
            (Column::Ts(v), Cell::Ts(t)) => v.push(t),
            (
                Column::Text {
                    dict,
                    map,
                    codes,
                    str_bytes,
                },
                Cell::Text(s),
            ) => {
                // A sealed column drops its map; re-seed it on resume.
                if map.is_empty() && !dict.is_empty() {
                    for (i, d) in dict.iter().enumerate() {
                        map.insert(d.clone(), i as u32);
                    }
                }
                let code = match map.get(&s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        *str_bytes += s.len();
                        dict.push(s.clone());
                        map.insert(s, c);
                        c
                    }
                };
                codes.push(code);
            }
            (Column::Mixed(v, text), c) => {
                *text += cell_heap(&c);
                v.push(c);
            }
            (_, c) => self.promote_and_push(c),
        }
    }

    pub fn get(&self, i: usize) -> Cell {
        match self {
            Column::Empty => Cell::Null,
            Column::Int(v) => Cell::Int(v[i]),
            Column::Float(v) => Cell::Float(f64::from_bits(v[i])),
            Column::Bool(v) => Cell::Bool(v[i]),
            Column::Ts(v) => Cell::Ts(v[i]),
            Column::Text { dict, codes, .. } => Cell::Text(dict[codes[i] as usize].clone()),
            Column::Mixed(v, _) => v[i].clone(),
            Column::RleInt { values, ends } => {
                let run = ends.partition_point(|&e| e as usize <= i);
                Cell::Int(values[run])
            }
            Column::RleTs { values, ends } => {
                let run = ends.partition_point(|&e| e as usize <= i);
                Cell::Ts(values[run])
            }
        }
    }

    /// Seal-time compression: drop append-only structures and apply RLE
    /// where it shrinks the column.
    fn seal(&mut self) {
        match self {
            Column::Text { map, .. } => map.clear(),
            Column::Int(v) => {
                if let Some((values, ends)) = rle_encode(v) {
                    *self = Column::RleInt { values, ends };
                }
            }
            Column::Ts(v) => {
                if let Some((values, ends)) = rle_encode(v) {
                    *self = Column::RleTs { values, ends };
                }
            }
            _ => {}
        }
    }
}

/// Run-length encode, returning `None` unless it actually shrinks the
/// 8-byte-per-row plain layout.
fn rle_encode<T: Copy + PartialEq>(v: &[T]) -> Option<(Vec<T>, Vec<u32>)> {
    if v.is_empty() {
        return None;
    }
    let mut values = Vec::new();
    let mut ends = Vec::new();
    let mut run_val = v[0];
    for (i, &x) in v.iter().enumerate().skip(1) {
        if x != run_val {
            values.push(run_val);
            ends.push(i as u32);
            run_val = x;
        }
    }
    values.push(run_val);
    ends.push(v.len() as u32);
    if values.len() * 12 < v.len() * 8 {
        Some((values, ends))
    } else {
        None
    }
}

// ---------------------------------------------------------------------------
// Spill encoding

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}
fn take_u32(buf: &mut &[u8]) -> u32 {
    let (head, rest) = buf.split_at(4);
    *buf = rest;
    u32::from_le_bytes(head.try_into().unwrap())
}
fn take_u64(buf: &mut &[u8]) -> u64 {
    let (head, rest) = buf.split_at(8);
    *buf = rest;
    u64::from_le_bytes(head.try_into().unwrap())
}
fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}
fn take_str(buf: &mut &[u8]) -> String {
    let n = take_u32(buf) as usize;
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    String::from_utf8_lossy(head).into_owned()
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

fn decode_cell(buf: &mut &[u8]) -> Cell {
    let tag = buf[0];
    *buf = &buf[1..];
    match tag {
        0 => Cell::Null,
        1 => {
            let b = buf[0] != 0;
            *buf = &buf[1..];
            Cell::Bool(b)
        }
        2 => Cell::Int(take_u64(buf) as i64),
        3 => Cell::Float(f64::from_bits(take_u64(buf))),
        4 => Cell::Text(take_str(buf)),
        5 => Cell::Ts(take_u64(buf)),
        _ => {
            let (head, rest) = buf.split_at(2);
            let a = u16::from_le_bytes(head.try_into().unwrap());
            let b = rest[0];
            *buf = &rest[1..];
            Cell::Pair(a, b)
        }
    }
}

fn encode_column(buf: &mut Vec<u8>, col: &Column) {
    match col {
        Column::Empty => buf.push(0),
        Column::Int(v) => {
            buf.push(1);
            put_u32(buf, v.len() as u32);
            for &x in v {
                put_u64(buf, x as u64);
            }
        }
        Column::Float(v) => {
            buf.push(2);
            put_u32(buf, v.len() as u32);
            for &x in v {
                put_u64(buf, x);
            }
        }
        Column::Bool(v) => {
            buf.push(3);
            put_u32(buf, v.len() as u32);
            for &x in v {
                buf.push(x as u8);
            }
        }
        Column::Ts(v) => {
            buf.push(4);
            put_u32(buf, v.len() as u32);
            for &x in v {
                put_u64(buf, x);
            }
        }
        Column::Text {
            dict,
            codes,
            str_bytes,
            ..
        } => {
            buf.push(5);
            put_u32(buf, dict.len() as u32);
            for s in dict {
                put_str(buf, s);
            }
            put_u32(buf, codes.len() as u32);
            for &c in codes {
                put_u32(buf, c);
            }
            put_u64(buf, *str_bytes as u64);
        }
        Column::Mixed(v, _) => {
            buf.push(6);
            put_u32(buf, v.len() as u32);
            for c in v {
                encode_cell(buf, c);
            }
        }
        Column::RleInt { values, ends } => {
            buf.push(7);
            put_u32(buf, values.len() as u32);
            for &x in values {
                put_u64(buf, x as u64);
            }
            for &e in ends {
                put_u32(buf, e);
            }
        }
        Column::RleTs { values, ends } => {
            buf.push(8);
            put_u32(buf, values.len() as u32);
            for &x in values {
                put_u64(buf, x);
            }
            for &e in ends {
                put_u32(buf, e);
            }
        }
    }
}

fn decode_column(buf: &mut &[u8]) -> Column {
    let tag = buf[0];
    *buf = &buf[1..];
    match tag {
        0 => Column::Empty,
        1 => {
            let n = take_u32(buf) as usize;
            Column::Int((0..n).map(|_| take_u64(buf) as i64).collect())
        }
        2 => {
            let n = take_u32(buf) as usize;
            Column::Float((0..n).map(|_| take_u64(buf)).collect())
        }
        3 => {
            let n = take_u32(buf) as usize;
            let v = (0..n)
                .map(|_| {
                    let b = buf[0] != 0;
                    *buf = &buf[1..];
                    b
                })
                .collect();
            Column::Bool(v)
        }
        4 => {
            let n = take_u32(buf) as usize;
            Column::Ts((0..n).map(|_| take_u64(buf)).collect())
        }
        5 => {
            let nd = take_u32(buf) as usize;
            let dict: Vec<String> = (0..nd).map(|_| take_str(buf)).collect();
            let nc = take_u32(buf) as usize;
            let codes = (0..nc).map(|_| take_u32(buf)).collect();
            let str_bytes = take_u64(buf) as usize;
            Column::Text {
                dict,
                map: HashMap::new(),
                codes,
                str_bytes,
            }
        }
        6 => {
            let n = take_u32(buf) as usize;
            let v: Vec<Cell> = (0..n).map(|_| decode_cell(buf)).collect();
            let text = v.iter().map(cell_heap).sum();
            Column::Mixed(v, text)
        }
        7 => {
            let n = take_u32(buf) as usize;
            let values = (0..n).map(|_| take_u64(buf) as i64).collect();
            let ends = (0..n).map(|_| take_u32(buf)).collect();
            Column::RleInt { values, ends }
        }
        _ => {
            let n = take_u32(buf) as usize;
            let values = (0..n).map(|_| take_u64(buf)).collect();
            let ends = (0..n).map(|_| take_u32(buf)).collect();
            Column::RleTs { values, ends }
        }
    }
}

// ---------------------------------------------------------------------------
// Segments

#[derive(Debug)]
enum SegState {
    Resident(Vec<Column>),
    Spilled { path: PathBuf, bytes: usize },
}

#[derive(Debug)]
struct Segment {
    /// Row id of this segment's first row.
    base: u64,
    rows: u32,
    live: u32,
    sealed: bool,
    /// Always-resident per-row metadata.
    ts: Vec<u64>,
    dead: Vec<bool>,
    /// Signed weights (weighted stores only; empty otherwise).
    weight: Vec<i64>,
    /// True arity per row, allocated only if a row's arity ever differs
    /// from the segment's column count.
    arity: Option<Vec<u16>>,
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
            ts: Vec::new(),
            dead: Vec::new(),
            weight: Vec::new(),
            arity: None,
            first: 0,
            state: SegState::Resident(Vec::new()),
        }
    }

    fn meta_bytes(&self) -> usize {
        self.ts.len() * 8
            + self.dead.len()
            + self.weight.len() * 8
            + self.arity.as_ref().map_or(0, |a| a.len() * 2)
    }

    fn resident_bytes(&self) -> usize {
        let cols = match &self.state {
            SegState::Resident(cols) => cols.iter().map(Column::heap_bytes).sum(),
            SegState::Spilled { .. } => 0,
        };
        cols + self.meta_bytes()
    }

    fn spilled_bytes(&self) -> usize {
        match &self.state {
            SegState::Spilled { bytes, .. } => *bytes,
            SegState::Resident(_) => 0,
        }
    }

    /// The segment's value columns, decoding a spilled segment
    /// transiently (the cache stays cold; reads do not fault pages in).
    fn columns(&self) -> std::borrow::Cow<'_, [Column]> {
        match &self.state {
            SegState::Resident(cols) => std::borrow::Cow::Borrowed(cols),
            SegState::Spilled { path, .. } => {
                let mut raw = Vec::new();
                if let Ok(mut f) = fs::File::open(path) {
                    let _ = f.read_to_end(&mut raw);
                }
                let mut slice = raw.as_slice();
                let n = if slice.len() >= 4 {
                    take_u32(&mut slice) as usize
                } else {
                    0
                };
                std::borrow::Cow::Owned((0..n).map(|_| decode_column(&mut slice)).collect())
            }
        }
    }

    fn row_arity(&self, off: usize, n_cols: usize) -> usize {
        self.arity
            .as_ref()
            .map_or(n_cols, |a| a[off] as usize)
            .min(n_cols)
    }

    /// Materialize one row's cells (live or dead).
    fn row(&self, off: usize) -> Vec<Cell> {
        let cols = self.columns();
        let arity = self.row_arity(off, cols.len());
        (0..arity).map(|c| cols[c].get(off)).collect()
    }

    fn seal(&mut self) {
        if let SegState::Resident(cols) = &mut self.state {
            for c in cols.iter_mut() {
                c.seal();
            }
        }
        self.sealed = true;
    }

    fn spill(&mut self, dir: &PathBuf) {
        let cols = match &self.state {
            SegState::Resident(cols) => cols,
            SegState::Spilled { .. } => return,
        };
        if fs::create_dir_all(dir).is_err() {
            return;
        }
        let mut buf = Vec::new();
        put_u32(&mut buf, cols.len() as u32);
        for c in cols {
            encode_column(&mut buf, c);
        }
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = dir.join(format!("colspill-{}-{}.seg", std::process::id(), seq));
        let ok = fs::File::create(&path)
            .and_then(|mut f| f.write_all(&buf))
            .is_ok();
        if ok {
            self.state = SegState::Spilled {
                path,
                bytes: buf.len(),
            };
        } else {
            let _ = fs::remove_file(&path);
        }
    }
}

impl Drop for Segment {
    fn drop(&mut self) {
        if let SegState::Spilled { path, .. } = &self.state {
            let _ = fs::remove_file(path);
        }
    }
}

impl Clone for Segment {
    /// A clone is always fully resident — a spilled segment is decoded
    /// from its file so the two stores never share a spill file.
    fn clone(&self) -> Self {
        Segment {
            base: self.base,
            rows: self.rows,
            live: self.live,
            sealed: self.sealed,
            ts: self.ts.clone(),
            dead: self.dead.clone(),
            weight: self.weight.clone(),
            arity: self.arity.clone(),
            first: self.first,
            state: SegState::Resident(self.columns().into_owned()),
        }
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
    /// cost of more per-segment overhead and coarser dictionaries.
    seg_rows: u32,
    /// Cached resident bytes of *sealed* segments. Sealed segments are
    /// byte-immutable until spilled or dropped, so the hot
    /// `resident_bytes` gauge only has to measure the active segment —
    /// telemetry polls it per structure per report.
    sealed_resident: usize,
    /// Cached total of spilled segment files.
    spilled: usize,
}

impl Clone for TupleStore {
    /// Segment clones rehydrate spilled pages (the two stores must not
    /// share spill files), so the byte caches are rebuilt for the clone.
    fn clone(&self) -> Self {
        let segs: Vec<Segment> = self.segs.clone();
        let sealed_resident = segs
            .iter()
            .filter(|s| s.sealed)
            .map(Segment::resident_bytes)
            .sum();
        TupleStore {
            width: self.width,
            weighted: self.weighted,
            segs,
            next_row: self.next_row,
            live: self.live,
            spill: self.spill.clone(),
            seg_rows: self.seg_rows,
            sealed_resident,
            spilled: 0,
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
            sealed_resident: 0,
            spilled: 0,
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

    pub fn spill_config(&self) -> Option<&SpillConfig> {
        self.spill.as_ref()
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
    /// from the cache, so telemetry can poll this every report.
    pub fn resident_bytes(&self) -> usize {
        let active = match self.segs.last() {
            Some(s) if !s.sealed => s.resident_bytes(),
            _ => 0,
        };
        self.sealed_resident + active
    }

    pub fn spilled_bytes(&self) -> usize {
        self.spilled
    }

    /// Append a row; returns its (stable) row id.
    pub fn push(&mut self, cells: &[Cell], ts: u64) -> u64 {
        self.push_weighted(cells, ts, 1)
    }

    /// Append a weighted row; returns its (stable) row id.
    pub fn push_weighted(&mut self, cells: &[Cell], ts: u64, w: i64) -> u64 {
        let old_width = self.width;
        if cells.len() > self.width {
            self.width = cells.len();
        }
        let need_new = match self.segs.last() {
            Some(s) => s.sealed || s.rows >= self.seg_rows,
            None => true,
        };
        if need_new {
            let mut just_sealed = 0;
            if let Some(last) = self.segs.last_mut() {
                if !last.sealed {
                    last.seal();
                    just_sealed = last.resident_bytes();
                }
            }
            self.sealed_resident += just_sealed;
            self.maybe_spill();
            self.segs.push(Segment::new(self.next_row));
        }
        let weighted = self.weighted;
        let width = self.width;
        let seg = self.segs.last_mut().expect("active segment");
        let off = seg.rows as usize;
        if let SegState::Resident(cols) = &mut seg.state {
            while cols.len() < width {
                let mut col = Column::Empty;
                // Backfill rows appended before this column existed.
                for _ in 0..off {
                    col.push(Cell::Null);
                }
                cols.push(col);
            }
            for (c, col) in cols.iter_mut().enumerate() {
                col.push(cells.get(c).cloned().unwrap_or(Cell::Null));
            }
        }
        // Rows pushed while no arity vec existed all had `old_width`
        // cells; record that before the first divergent row.
        if cells.len() != old_width || seg.arity.is_some() {
            seg.arity
                .get_or_insert_with(|| vec![old_width as u16; off])
                .push(cells.len() as u16);
        }
        seg.ts.push(ts);
        seg.dead.push(false);
        if weighted {
            seg.weight.push(w);
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

    /// Whether a row id refers to a live row.
    pub fn is_live(&self, row: u64) -> bool {
        self.seg_index(row)
            .map(|i| {
                let s = &self.segs[i];
                !s.dead[(row - s.base) as usize]
            })
            .unwrap_or(false)
    }

    /// Materialize a live row as `(cells, ts)`; `None` if dead or gone.
    pub fn get(&self, row: u64) -> Option<(Vec<Cell>, u64)> {
        let i = self.seg_index(row)?;
        let s = &self.segs[i];
        let off = (row - s.base) as usize;
        if s.dead[off] {
            return None;
        }
        Some((s.row(off), s.ts[off]))
    }

    /// Timestamp of a live row.
    pub fn ts(&self, row: u64) -> Option<u64> {
        let i = self.seg_index(row)?;
        let s = &self.segs[i];
        let off = (row - s.base) as usize;
        if s.dead[off] {
            return None;
        }
        Some(s.ts[off])
    }

    pub fn weight(&self, row: u64) -> Option<i64> {
        let i = self.seg_index(row)?;
        let s = &self.segs[i];
        let off = (row - s.base) as usize;
        if s.dead[off] {
            return None;
        }
        s.weight.get(off).copied()
    }

    pub fn set_weight(&mut self, row: u64, w: i64) -> bool {
        let Some(i) = self.seg_index(row) else {
            return false;
        };
        let s = &mut self.segs[i];
        let off = (row - s.base) as usize;
        if s.dead[off] || off >= s.weight.len() {
            return false;
        }
        s.weight[off] = w;
        true
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
        if s.dead[off] {
            return false;
        }
        s.dead[off] = true;
        s.live -= 1;
        self.live -= 1;
        if off as u32 == s.first {
            let mut f = s.first as usize;
            while f < s.dead.len() && s.dead[f] {
                f += 1;
            }
            s.first = f as u32;
        }
        if s.live == 0 && s.sealed {
            let seg = self.segs.remove(i);
            self.sealed_resident -= seg.resident_bytes();
            self.spilled -= seg.spilled_bytes();
        }
        true
    }

    /// `(row id, ts)` of the oldest live row.
    pub fn first_live(&self) -> Option<(u64, u64)> {
        for s in &self.segs {
            if s.live == 0 {
                continue;
            }
            let mut off = s.first as usize;
            while off < s.dead.len() && s.dead[off] {
                off += 1;
            }
            if off < s.dead.len() {
                return Some((s.base + off as u64, s.ts[off]));
            }
        }
        None
    }

    /// Visit every live row in row-id (= arrival) order. Each spilled
    /// segment is decoded once for the whole scan.
    pub fn for_each_live(&self, f: impl FnMut(u64, Vec<Cell>, u64, i64)) {
        self.for_each_live_in(0, u64::MAX, f);
    }

    /// [`TupleStore::for_each_live`] restricted to row ids in
    /// `[lo, hi)`: segments outside the range are never touched.
    pub fn for_each_live_in(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, Vec<Cell>, u64, i64)) {
        let start = self.segs.partition_point(|s| s.base + s.rows as u64 <= lo);
        for s in &self.segs[start..] {
            if s.base >= hi {
                break;
            }
            if s.live == 0 {
                continue;
            }
            let cols = s.columns();
            let from = (lo.saturating_sub(s.base) as usize).max(s.first as usize);
            let to = (hi - s.base).min(s.rows as u64) as usize;
            for off in from..to {
                if s.dead[off] {
                    continue;
                }
                let arity = s.row_arity(off, cols.len());
                let cells: Vec<Cell> = (0..arity).map(|c| cols[c].get(off)).collect();
                let w = s.weight.get(off).copied().unwrap_or(1);
                f(s.base + off as u64, cells, s.ts[off], w);
            }
        }
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
            self.sealed_resident -= seg.resident_bytes();
            self.spilled -= seg.spilled_bytes();
        }
        // At most one segment straddles the bound (or is the unsealed
        // active one, which is kept even when fully dead).
        let Some(s) = self.segs.first_mut() else {
            return;
        };
        let upto = (row.saturating_sub(s.base).min(s.rows as u64)) as usize;
        let mut killed = 0u32;
        for dead in &mut s.dead[(s.first as usize).min(upto)..upto] {
            if !*dead {
                *dead = true;
                killed += 1;
            }
        }
        s.live -= killed;
        s.first = s.first.max(upto as u32);
        self.live -= killed as u64;
    }

    /// Drop every row (spill files included). Row ids keep increasing
    /// monotonically — ids are never reused.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.live = 0;
        self.sealed_resident = 0;
        self.spilled = 0;
    }

    fn maybe_spill(&mut self) {
        let Some(cfg) = self.spill.clone() else {
            return;
        };
        let mut resident = self.resident_bytes();
        if resident <= cfg.threshold_bytes {
            return;
        }
        let mut freed = 0;
        let mut spilled_add = 0;
        for s in &mut self.segs {
            if !s.sealed || matches!(s.state, SegState::Spilled { .. }) {
                continue;
            }
            let before = s.resident_bytes();
            s.spill(&cfg.dir);
            freed += before - s.resident_bytes();
            spilled_add += s.spilled_bytes();
            resident -= before - s.resident_bytes();
            if resident <= cfg.threshold_bytes {
                break;
            }
        }
        self.sealed_resident -= freed;
        self.spilled += spilled_add;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            varying.push(&[Cell::Int(i * 7919)], i as u64);
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
            .with_spill(Some(SpillConfig::new(512, &dir)));
        for i in 0..200u64 {
            s.push_weighted(&row(i as i64), i, 1);
            if i >= 16 {
                s.mark_dead(i - 16);
            }
            let full_resident: usize = s.segs.iter().map(Segment::resident_bytes).sum();
            let full_spilled: usize = s.segs.iter().map(Segment::spilled_bytes).sum();
            assert_eq!(
                s.resident_bytes(),
                full_resident,
                "resident cache drifted at {i}"
            );
            assert_eq!(
                s.spilled_bytes(),
                full_spilled,
                "spill cache drifted at {i}"
            );
        }
        assert!(s.spilled_bytes() > 0, "spill tier never engaged");
        // Clones rehydrate spilled segments; their caches are rebuilt.
        let c = s.clone();
        let c_full: usize = c.segs.iter().map(Segment::resident_bytes).sum();
        assert_eq!(c.resident_bytes(), c_full);
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
}
