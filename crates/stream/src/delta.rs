//! Signed tuple updates — the unit of incremental dataflow — and the
//! batches of them that move through the operator DAG.
//!
//! The engine is *batch-first*: wrappers hand the engine whole source
//! batches, every operator processes a [`DeltaBatch`] per invocation, and
//! retraction/insertion pairs that cancel inside a batch are consolidated
//! away before they are propagated downstream. Tuples inside a batch are
//! cheap to share: a [`Tuple`]'s value row is `Arc`-backed, so cloning a
//! delta copies a pointer, not the row.
//!
//! A batch a window step emits is *addressed* — beside each delta, the id
//! of the log row it inserts or retracts (crate docs, *Addressed batches*).

use aspen_types::Tuple;

/// An insertion (`sign > 0`) or retraction (`sign < 0`) of one tuple.
/// `|sign| > 1` encodes multiplicity — a consolidated batch carries one
/// delta per distinct tuple with the net count in `sign`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    pub tuple: Tuple,
    pub sign: i64,
}

impl Delta {
    pub fn insert(tuple: Tuple) -> Self {
        Delta { tuple, sign: 1 }
    }

    pub fn retract(tuple: Tuple) -> Self {
        Delta { tuple, sign: -1 }
    }

    pub fn is_insert(&self) -> bool {
        self.sign > 0
    }

    /// The same delta with flipped sign.
    pub fn negate(&self) -> Delta {
        Delta {
            tuple: self.tuple.clone(),
            sign: -self.sign,
        }
    }
}

/// An ordered batch of signed deltas — what operators exchange.
///
/// Order inside a batch is meaningful to stateful operators (a self-join
/// sees earlier deltas of the same batch in its state), but any two
/// batches with the same [consolidation](DeltaBatch::consolidate) are
/// interchangeable one hop downstream: every operator is a multiset
/// homomorphism.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DeltaBatch {
    deltas: Vec<Delta>,
    /// The log row of each delta, in an addressed batch. Only
    /// [`DeltaBatch::push_row`] keeps a batch addressed; every other way
    /// of adding deltas forgets the ids. Boxed: the batches anything
    /// retains (pending push deliveries) are unaddressed, and pay one
    /// pointer for the field, not a second `Vec` header.
    #[allow(clippy::box_collection)]
    rows: Option<Box<Vec<u64>>>,
}

impl DeltaBatch {
    pub fn new() -> Self {
        DeltaBatch::default()
    }

    pub fn with_capacity(n: usize) -> Self {
        Vec::with_capacity(n).into()
    }

    /// A batch inserting every tuple of a source batch, in order.
    pub fn inserts<I: IntoIterator<Item = Tuple>>(tuples: I) -> Self {
        tuples.into_iter().map(Delta::insert).collect()
    }

    pub fn len(&self) -> usize {
        self.deltas.len()
    }

    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    pub fn push(&mut self, delta: Delta) {
        self.rows = None;
        self.deltas.push(delta);
    }

    pub fn push_insert(&mut self, tuple: Tuple) {
        self.push(Delta::insert(tuple));
    }

    pub fn push_retract(&mut self, tuple: Tuple) {
        self.push(Delta::retract(tuple));
    }

    /// Append a unit delta that inserts or retracts log row `row`. The
    /// batch stays addressed as long as every delta came in this way.
    pub(crate) fn push_row(&mut self, delta: Delta, row: u64) {
        if self.deltas.is_empty() {
            self.rows = Some(Box::new(Vec::with_capacity(self.deltas.capacity())));
        }
        if let Some(rows) = &mut self.rows {
            rows.push(row);
        }
        self.deltas.push(delta);
    }

    /// The log row of each delta, when the batch is addressed.
    pub(crate) fn row_ids(&self) -> Option<&[u64]> {
        self.rows.as_ref().map(|rows| rows.as_slice())
    }

    pub fn iter(&self) -> std::slice::Iter<'_, Delta> {
        self.deltas.iter()
    }

    pub fn as_slice(&self) -> &[Delta] {
        &self.deltas
    }

    pub fn into_vec(self) -> Vec<Delta> {
        self.deltas
    }

    pub fn clear(&mut self) {
        self.deltas.clear();
        self.rows = None;
    }

    /// Every delta with its sign flipped (order preserved).
    pub fn negated(&self) -> DeltaBatch {
        self.deltas.iter().map(Delta::negate).collect()
    }

    /// Net effect on a multiset: `(tuple, net_count)` with zero-net
    /// entries removed, sorted by tuple values for determinism.
    pub fn consolidate(&self) -> Vec<(Tuple, i64)> {
        consolidate(&self.deltas)
    }

    /// The batch reduced to one delta per distinct tuple carrying the net
    /// sign (at its first-occurrence position), with cancelled pairs
    /// removed — what a shard does once to a table or view delta batch
    /// before its subscribers run it: downstream operators then pay one
    /// invocation per net change instead of one per raw delta. (Window
    /// steps need none: they are net by row.) The result is unaddressed.
    ///
    /// Consolidation preserves the multiset a batch denotes, but not the
    /// per-delta arrival order of duplicates — so an aggregate's output
    /// *timestamps* (taken from the last delta touching a group) may
    /// differ between batch granularities. Result **values** are always
    /// identical; see the batch/per-tuple equivalence property test.
    pub fn consolidated(self) -> DeltaBatch {
        if self.deltas.len() <= 1 {
            return self;
        }
        let mut index: std::collections::HashMap<Tuple, usize> =
            std::collections::HashMap::with_capacity(self.deltas.len());
        let mut out: Vec<Delta> = Vec::with_capacity(self.deltas.len());
        for d in self.deltas {
            match index.entry(d.tuple.clone()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    out[*e.get()].sign += d.sign;
                }
                std::collections::hash_map::Entry::Vacant(v) => {
                    v.insert(out.len());
                    out.push(d);
                }
            }
        }
        out.retain(|d| d.sign != 0);
        out.into()
    }
}

impl From<Vec<Delta>> for DeltaBatch {
    fn from(deltas: Vec<Delta>) -> Self {
        DeltaBatch { deltas, rows: None }
    }
}

impl FromIterator<Delta> for DeltaBatch {
    fn from_iter<I: IntoIterator<Item = Delta>>(iter: I) -> Self {
        iter.into_iter().collect::<Vec<Delta>>().into()
    }
}

impl Extend<Delta> for DeltaBatch {
    fn extend<I: IntoIterator<Item = Delta>>(&mut self, iter: I) {
        self.rows = None;
        self.deltas.extend(iter);
    }
}

impl IntoIterator for DeltaBatch {
    type Item = Delta;
    type IntoIter = std::vec::IntoIter<Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.into_iter()
    }
}

impl<'a> IntoIterator for &'a DeltaBatch {
    type Item = &'a Delta;
    type IntoIter = std::slice::Iter<'a, Delta>;
    fn into_iter(self) -> Self::IntoIter {
        self.deltas.iter()
    }
}

/// Net effect of a delta sequence on a multiset, as `(tuple, net_count)`
/// pairs with zero-net entries removed. Used by tests and by the sink's
/// consolidation pass.
pub fn consolidate(deltas: &[Delta]) -> Vec<(Tuple, i64)> {
    let mut counts: std::collections::HashMap<Tuple, i64> = std::collections::HashMap::new();
    for d in deltas {
        *counts.entry(d.tuple.clone()).or_insert(0) += d.sign;
    }
    let mut out: Vec<(Tuple, i64)> = counts.into_iter().filter(|(_, c)| *c != 0).collect();
    out.sort_by(|a, b| a.0.values().cmp(b.0.values()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::{SimTime, Value};

    fn t(v: i64) -> Tuple {
        Tuple::new(vec![Value::Int(v)], SimTime::ZERO)
    }

    #[test]
    fn insert_retract_roundtrip() {
        let d = Delta::insert(t(1));
        assert!(d.is_insert());
        let n = d.negate();
        assert!(!n.is_insert());
        assert_eq!(n.tuple, d.tuple);
    }

    #[test]
    fn consolidate_cancels() {
        let ds = vec![
            Delta::insert(t(1)),
            Delta::insert(t(2)),
            Delta::retract(t(1)),
            Delta::insert(t(2)),
        ];
        let c = consolidate(&ds);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].1, 2);
        assert_eq!(c[0].0, t(2));
    }

    #[test]
    fn consolidate_empty() {
        assert!(consolidate(&[]).is_empty());
        let ds = vec![Delta::insert(t(1)), Delta::retract(t(1))];
        assert!(consolidate(&ds).is_empty());
    }

    #[test]
    fn batch_consolidated_merges_signs() {
        let b: DeltaBatch = vec![
            Delta::insert(t(3)),
            Delta::insert(t(3)),
            Delta::insert(t(1)),
            Delta::retract(t(1)),
        ]
        .into();
        let c = b.consolidated();
        assert_eq!(c.len(), 1);
        assert_eq!(
            c.as_slice()[0],
            Delta {
                tuple: t(3),
                sign: 2
            }
        );
    }

    #[test]
    fn batch_inserts_and_negated() {
        let b = DeltaBatch::inserts([t(1), t(2)]);
        assert_eq!(b.len(), 2);
        assert!(b.iter().all(Delta::is_insert));
        let n = b.negated();
        assert!(n.iter().all(|d| !d.is_insert()));
        assert!(b
            .consolidated()
            .negated()
            .consolidate()
            .iter()
            .all(|(_, c)| *c == -1));
    }

    #[test]
    fn batch_collects_and_extends() {
        let mut b: DeltaBatch = [Delta::insert(t(1))].into_iter().collect();
        b.extend([Delta::retract(t(1))]);
        b.push_insert(t(5));
        b.push_retract(t(6));
        assert_eq!(b.len(), 4);
        assert_eq!(b.clone().consolidated().len(), 2);
        b.clear();
        assert!(b.is_empty());
    }
}
