//! Grouped filters: one predicate index per source log.
//!
//! SmartCIS's standing queries are a few templates at many constants —
//! forty displays each watching `r.value > c` for its own `c`, over one
//! window. A filter directly above a cursor-fed stream scan whose
//! predicate is `column op constant` (a `FilterKey`) is therefore not
//! run by its query: the scan's source log indexes it. Per (column,
//! operator) there is one group — an equality group hashes the constant
//! to its members, a range group (`<`, `<=`, `>`, `>=`) keeps them
//! sorted by constant — and each class batch is probed once per group
//! with members in that class, so a delta costs O(log n + matches)
//! instead of n predicate calls (a class holding a single member of the
//! group — a window of its own, a late cursor — compares its constant
//! directly). This is NiagaraCQ's grouped constant filter (Chen et al.,
//! SIGMOD 2000), applied per cursor class.
//!
//! **Exactly the filter's output.** A member receives the deltas its own
//! `FilterOp` would have passed, in batch order and unaddressed, or the
//! error that filter would have raised. Comparisons are
//! [`Value::sql_cmp`], as in `BoundExpr::eval`: a NULL, NaN or
//! incomparable value matches nothing (a NULL predicate filters as
//! false), `Int(2)` meets `Float(2.0)`, and `-0.0` meets `0`.
//!
//! **What groups** (`FilterKey::of`): `=` with any constant but NULL or
//! NaN, hashed under the join's key normalisation and confirmed by
//! `sql_cmp`; a range over one comparability class — numbers (an `Int`
//! below 2⁵³ in magnitude, or a `Float`), text, or stamps. Over such
//! constants `sql_cmp` is a total order that cuts once at any probe of
//! the class, whatever its magnitude, so a binary search finds the
//! members a delta passes. `<>`, a compound predicate or a function
//! stays the query's own `FilterOp`, as does a filter keeping row ids
//! for an indexed join side (the pipeline never offers that one).

use std::cmp::Ordering;
use std::collections::HashMap;
use std::ops::Range;
use std::time::{Duration, Instant};

use aspen_sql::ast::CmpOp;
use aspen_sql::expr::BoundExpr;
use aspen_types::{AspenError, Result, Value};

use crate::delta::{Delta, DeltaBatch};
use crate::operators::norm;

/// Integers from this magnitude on are not all exact as `f64`.
const EXACT: u64 = 1 << 53;

/// A filter predicate that groups: `column op constant`.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct FilterKey {
    col: usize,
    /// Never `Neq`.
    op: CmpOp,
    constant: Value,
}

impl FilterKey {
    /// The key of a filter's `predicate`, when it groups: exactly
    /// `Col op Lit`, or `Lit op Col` with the operator flipped, under the
    /// constants the module docs list.
    pub(crate) fn of(predicate: &BoundExpr) -> Option<FilterKey> {
        let BoundExpr::Cmp { op, left, right } = predicate else {
            return None;
        };
        let (col, constant, op) = match (&**left, &**right) {
            (BoundExpr::Col { index, .. }, BoundExpr::Lit(v)) => (*index, v, *op),
            (BoundExpr::Lit(v), BoundExpr::Col { index, .. }) => (*index, v, op.flip()),
            _ => return None,
        };
        let groups = match (op, constant) {
            (CmpOp::Neq, _) | (_, Value::Null | Value::Param(..)) => false,
            (_, Value::Float(f)) => !f.is_nan(),
            (CmpOp::Eq, _) => true,
            (_, Value::Int(i)) => i.unsigned_abs() < EXACT,
            (_, Value::Text(_) | Value::Timestamp(_)) => true,
            (_, Value::Bool(_)) => false,
        };
        groups.then(|| FilterKey {
            col,
            op,
            constant: constant.clone(),
        })
    }
}

/// What one cursor's grouped filter made of its class's batch: exactly
/// what its `FilterOp` would have emitted — or the error it would have
/// raised — plus the cursor's even share of the probe's busy time.
#[derive(Debug)]
pub(crate) struct Filtered {
    pub(crate) out: Result<DeltaBatch>,
    pub(crate) busy: Duration,
}

/// The grouped filters of one source log's cursors, which it names by
/// their position among the log's cursors.
#[derive(Debug, Default)]
pub(crate) struct FilterIndex {
    /// In creation order, so no hash order reaches a probe's results.
    groups: Vec<Group>,
}

/// Every member filtering one column with one operator (and, for a
/// range, over one comparability class).
#[derive(Debug)]
struct Group {
    col: usize,
    op: CmpOp,
    members: Members,
}

/// A group's members — cursor ids — under their constants; never empty.
#[derive(Debug)]
enum Members {
    /// `=`: the normalised constant → the members holding it, each with
    /// its own constant (`sql_cmp` confirms a hash hit).
    Eq(HashMap<Value, Vec<(Value, u32)>>),
    /// A range, sorted by constant under `sql_cmp`.
    Range(Vec<(Value, u32)>),
}

impl FilterIndex {
    /// Add cursor `cursor`'s filter to the group of its column and
    /// operator (and class), creating that group on its first member.
    pub(crate) fn insert(&mut self, key: &FilterKey, cursor: u32) {
        let same = |g: &&mut Group| (g.col, g.op) == (key.col, key.op);
        if !self
            .groups
            .iter_mut()
            .filter(same)
            .any(|g| g.insert(&key.constant, cursor))
        {
            let members = match key.op {
                CmpOp::Eq => Members::Eq(HashMap::new()),
                _ => Members::Range(Vec::new()),
            };
            let (col, op) = (key.col, key.op);
            let mut group = Group { col, op, members };
            group.insert(&key.constant, cursor);
            self.groups.push(group);
        }
    }

    /// Renumber the members after cursors left the log: `to[id]` is the
    /// cursor's new id, `None` when it left — and its membership with it.
    /// A group left without members goes too.
    pub(crate) fn renumber(&mut self, to: &[Option<u32>]) {
        let keep = |(_, m): &mut (Value, u32)| to[*m as usize].map(|new| *m = new).is_some();
        for g in &mut self.groups {
            match &mut g.members {
                Members::Eq(map) => map.retain(|_, ms| {
                    ms.retain_mut(keep);
                    !ms.is_empty()
                }),
                Members::Range(ms) => ms.retain_mut(keep),
            }
        }
        self.groups.retain(|g| match &g.members {
            Members::Eq(map) => !map.is_empty(),
            Members::Range(ms) => !ms.is_empty(),
        });
    }

    /// Probe one log step: per group, each class batch with members of
    /// that class once (`class_of` names a cursor's class, an index into
    /// `batches`). Returns, per cursor of the `cursors`, its [`Filtered`]
    /// — `None` for a cursor no group holds or whose batch is empty — and
    /// counts one probe per delta per group stepped into `probes`.
    pub(crate) fn run(
        &self,
        cursors: usize,
        class_of: impl Fn(u32) -> usize,
        batches: &[DeltaBatch],
        probes: &mut u64,
    ) -> Vec<Option<Filtered>> {
        let mut out: Vec<Option<Filtered>> = Vec::new();
        if self.groups.is_empty() {
            return out;
        }
        out.resize_with(cursors, || None);
        let fresh = || Filtered {
            out: Ok(DeltaBatch::new()),
            busy: Duration::ZERO,
        };
        let mut served = vec![0u32; batches.len()];
        for g in &self.groups {
            served.fill(0);
            g.each(|_, m| served[class_of(m)] += 1);
            for (class, batch) in batches.iter().enumerate() {
                if served[class] == 0 || batch.is_empty() {
                    continue;
                }
                *probes += batch.len() as u64;
                let in_class = |m: u32| class_of(m) == class;
                // A class holding one member of the group (a window of its
                // own, a late cursor) compares it directly: a search would
                // walk the other classes' members too.
                let mut only = None;
                if served[class] == 1 {
                    g.each(|c, m| {
                        if in_class(m) {
                            only = Some((c, m));
                        }
                    });
                }
                let t0 = Instant::now();
                let probed = g.probe(batch, in_class, only, |m, d| {
                    if let Ok(b) = &mut out[m as usize].get_or_insert_with(fresh).out {
                        b.push(d.clone());
                    }
                });
                let busy = t0.elapsed() / served[class];
                g.each(|_, m| {
                    if in_class(m) {
                        let f = out[m as usize].get_or_insert_with(fresh);
                        f.busy = busy;
                        if let Err(e) = &probed {
                            f.out = Err(e.clone());
                        }
                    }
                });
            }
        }
        out
    }
}

impl Group {
    /// File `cursor` under `constant`; `false` when this is a range group
    /// whose constants `constant` does not compare with.
    fn insert(&mut self, constant: &Value, cursor: u32) -> bool {
        match &mut self.members {
            Members::Eq(map) => {
                let held = map.entry(norm(constant).into_owned()).or_default();
                held.push((constant.clone(), cursor));
            }
            Members::Range(ms) => {
                if ms
                    .first()
                    .is_some_and(|(c, _)| c.sql_cmp(constant).is_none())
                {
                    return false;
                }
                let after = |(c, _): &(Value, u32)| c.sql_cmp(constant) != Some(Ordering::Greater);
                ms.insert(ms.partition_point(after), (constant.clone(), cursor));
            }
        }
        true
    }

    /// Every member's constant and cursor id. (An equality group walks
    /// its map in hash order: callers only count, mark or pick out one
    /// member, which no order shows.)
    fn each<'a>(&'a self, mut f: impl FnMut(&'a Value, u32)) {
        match &self.members {
            Members::Eq(map) => map.values().flatten().for_each(|(c, m)| f(c, *m)),
            Members::Range(ms) => ms.iter().for_each(|(c, m)| f(c, *m)),
        }
    }

    /// Hand each member `live` admits the deltas of `batch` its filter
    /// passes, in batch order — comparing against `only`'s constant when
    /// the caller names the one member `live` admits, else searching the
    /// group. A tuple without the column fails the batch, as evaluating
    /// the filter on it would.
    fn probe(
        &self,
        batch: &DeltaBatch,
        live: impl Fn(u32) -> bool,
        only: Option<(&Value, u32)>,
        mut emit: impl FnMut(u32, &Delta),
    ) -> Result<()> {
        for d in batch {
            let Some(v) = d.tuple.values().get(self.col) else {
                return Err(AspenError::Execution(format!(
                    "column ordinal {} out of range for arity {}",
                    self.col,
                    d.tuple.len()
                )));
            };
            if let Some((c, m)) = only {
                if v.sql_cmp(c).is_some_and(|o| holds(self.op, o)) {
                    emit(m, d);
                }
                continue;
            }
            let mut hit = |m: u32| {
                if live(m) {
                    emit(m, d);
                }
            };
            match &self.members {
                Members::Eq(map) => {
                    let found = map.get(&*norm(v)).map_or(&[][..], Vec::as_slice);
                    for (c, m) in found {
                        if v.sql_cmp(c).is_some_and(Ordering::is_eq) {
                            hit(*m);
                        }
                    }
                }
                Members::Range(ms) => {
                    // NULL, NaN or another class: no constant compares.
                    if ms.first().and_then(|(c, _)| c.sql_cmp(v)).is_some() {
                        ms[span(ms, self.op, v)].iter().for_each(|&(_, m)| hit(m));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Whether `v op c` holds, given `v.sql_cmp(c)`.
fn holds(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord.is_eq(),
        CmpOp::Neq => ord.is_ne(),
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Lte => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Gte => ord.is_ge(),
    }
}

/// The members of a range sorted by constant `c` for which `v op c`
/// holds.
fn span(ms: &[(Value, u32)], op: CmpOp, v: &Value) -> Range<usize> {
    let below = || ms.partition_point(|(c, _)| c.sql_cmp(v) == Some(Ordering::Less));
    let at_most = || ms.partition_point(|(c, _)| c.sql_cmp(v).is_some_and(Ordering::is_le));
    match op {
        CmpOp::Gt => 0..below(),
        CmpOp::Gte => 0..at_most(),
        CmpOp::Lt => at_most()..ms.len(),
        CmpOp::Lte => below()..ms.len(),
        CmpOp::Eq | CmpOp::Neq => unreachable!("range groups hold ranges"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::{DataType, SimTime, Tuple};

    const OPS: [CmpOp; 6] = [
        CmpOp::Eq,
        CmpOp::Neq,
        CmpOp::Lt,
        CmpOp::Lte,
        CmpOp::Gt,
        CmpOp::Gte,
    ];

    fn cmp(op: CmpOp, left: BoundExpr, right: BoundExpr) -> BoundExpr {
        BoundExpr::Cmp {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    fn col() -> BoundExpr {
        BoundExpr::col(0, DataType::Float)
    }

    /// A one-column delta holding `v`.
    fn delta(v: &Value) -> Delta {
        Delta::insert(Tuple::new(vec![v.clone()], SimTime::ZERO))
    }

    /// Every value class the filters meet: NULL, NaN, both zeros, the
    /// integers `f64` cannot hold on either side of ±2⁵³, the floats
    /// there, text, stamps and a bool.
    fn values() -> Vec<Value> {
        let big = EXACT as i64;
        vec![
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-0.0),
            Value::Float(0.0),
            Value::Int(0),
            Value::Int(3),
            Value::Float(3.0),
            Value::Float(2.5),
            Value::Int(-7),
            Value::Int(big - 1),
            Value::Int(big + 1),
            Value::Int(-(big + 1)),
            Value::Float(EXACT as f64),
            Value::Float(-(EXACT as f64)),
            Value::Int(i64::MAX),
            Value::Int(i64::MIN),
            Value::Float(f64::INFINITY),
            Value::Float(f64::NEG_INFINITY),
            Value::Text(String::new()),
            Value::Text("a".into()),
            Value::Text("b".into()),
            Value::Timestamp(0),
            Value::Timestamp(5),
            Value::Bool(true),
        ]
    }

    /// Property: for every operator, both operand orders and every
    /// constant of [`values`] — each registered twice, so groups hold
    /// mixed `Int` / `Float` members and repeated constants — the index
    /// hands each grouped member exactly the deltas its predicate passes
    /// under `BoundExpr::eval_bool`, in batch order; it groups exactly
    /// the predicates the module docs list.
    #[test]
    fn probes_match_eval_bool_for_every_operator_and_value_class() {
        let vals = values();
        let batch: DeltaBatch = vals.iter().map(delta).collect();
        let mut index = FilterIndex::default();
        let mut members: Vec<BoundExpr> = Vec::new();
        let mut ungrouped = Vec::new();
        for op in OPS {
            for c in &vals {
                for flipped in [false, true] {
                    let lit = BoundExpr::Lit(c.clone());
                    let p = match flipped {
                        false => cmp(op, col(), lit),
                        true => cmp(op, lit, col()),
                    };
                    let key = FilterKey::of(&p);
                    let range_int =
                        op != CmpOp::Eq && matches!(c, Value::Int(i) if i.unsigned_abs() >= EXACT);
                    let nan = matches!(c, Value::Float(f) if f.is_nan());
                    let bool_range = op != CmpOp::Eq && matches!(c, Value::Bool(_));
                    let expect =
                        !(op == CmpOp::Neq || c.is_null() || nan || range_int || bool_range);
                    assert_eq!(key.is_some(), expect, "{p:?}");
                    let Some(key) = key else {
                        ungrouped.push(p);
                        continue;
                    };
                    for _ in 0..2 {
                        index.insert(&key, members.len() as u32);
                        members.push(p.clone());
                    }
                }
            }
        }
        assert!(ungrouped.len() > 20, "the ungrouped controls ran");
        // Eq, then per range operator numbers, text and stamps.
        assert_eq!(index.groups.len(), 1 + 4 * 3);
        // All members in one class (the group is searched), then each in
        // a class of its own (its constant is compared directly).
        let n = members.len();
        for classes in [1, n] {
            let batches = vec![batch.clone(); classes];
            let mut probes = 0;
            let got = index.run(n, |m| m as usize % classes, &batches, &mut probes);
            let stepped = if classes == 1 { 13 } else { n };
            assert_eq!(
                probes,
                (stepped * batch.len()) as u64,
                "a delta a group stepped"
            );
            for (m, p) in members.iter().enumerate() {
                let want: Vec<&Delta> = batch
                    .iter()
                    .filter(|d| p.eval_bool(&d.tuple).unwrap())
                    .collect();
                let f = got[m].as_ref().expect("every member was served");
                let out = f.out.as_ref().unwrap();
                let at = format!("member {m} of {classes} classes: {p:?}");
                assert_eq!(out.iter().collect::<Vec<_>>(), want, "{at}");
                assert!(out.row_ids().is_none(), "grouped output is unaddressed");
            }
        }
    }

    /// Only the class a cursor stepped in is probed for it; a tuple
    /// lacking the column fails every member in that class — the error
    /// its own filter raises — and no one else.
    #[test]
    fn probes_stay_in_class_and_fail_like_the_filter() {
        let key = |c: f64| FilterKey::of(&cmp(CmpOp::Gt, col(), BoundExpr::Lit(Value::Float(c))));
        let mut index = FilterIndex::default();
        for (cursor, c) in [(0, 1.0), (1, 5.0), (2, 1.0), (3, 0.0)] {
            index.insert(&key(c).unwrap(), cursor);
        }
        let class_of = |m: u32| [0, 0, 1, 1][m as usize];
        let good: DeltaBatch = [2.0, 6.0, -1.0]
            .map(|v| delta(&Value::Float(v)))
            .into_iter()
            .collect();
        let bad: DeltaBatch = vec![
            delta(&Value::Float(9.0)),
            Delta::insert(Tuple::new(vec![], SimTime::ZERO)),
        ]
        .into();
        let mut probes = 0;
        let got = index.run(5, class_of, &[good.clone(), bad.clone()], &mut probes);
        assert_eq!(probes, 5);
        let pass = |m: usize| got[m].as_ref().unwrap().out.as_ref().map(DeltaBatch::len);
        assert_eq!((pass(0), pass(1)), (Ok(2), Ok(1)));
        let filter = |c: f64| cmp(CmpOp::Gt, col(), BoundExpr::Lit(Value::Float(c)));
        for (m, c) in [(2, 1.0), (3, 0.0)] {
            let own = bad
                .iter()
                .try_for_each(|d| filter(c).eval_bool(&d.tuple).map(drop));
            assert_eq!(
                got[m].as_ref().unwrap().out.as_ref().unwrap_err(),
                &own.unwrap_err()
            );
        }
        assert!(got[4].is_none(), "a cursor no group holds");
        // An empty class batch is not probed at all.
        let mut probes = 0;
        let got = index.run(5, class_of, &[good, DeltaBatch::new()], &mut probes);
        assert_eq!(probes, 3);
        assert!(got[2].is_none() && got[3].is_none());
    }

    /// Cursors leaving the log take their memberships along and shift
    /// the ids of the ones after them; an emptied group goes.
    #[test]
    fn renumbering_drops_and_shifts_members() {
        let eq = |c: i64| FilterKey::of(&cmp(CmpOp::Eq, col(), BoundExpr::Lit(Value::Int(c))));
        let lt = |c: &str| {
            let lit = BoundExpr::Lit(Value::Text(c.into()));
            FilterKey::of(&cmp(CmpOp::Lt, col(), lit))
        };
        let mut index = FilterIndex::default();
        index.insert(&eq(1).unwrap(), 0);
        index.insert(&lt("m").unwrap(), 1);
        index.insert(&eq(2).unwrap(), 2);
        index.insert(&eq(1).unwrap(), 3);
        // Cursors 0 and 1 leave: 2 → 0, 3 → 1.
        index.renumber(&[None, None, Some(0), Some(1)]);
        assert_eq!(index.groups.len(), 1, "the text group emptied");
        let batch: DeltaBatch = [1, 2].map(|v| delta(&Value::Int(v))).into_iter().collect();
        let got = index.run(2, |_| 0, std::slice::from_ref(&batch), &mut 0);
        let only = |m: usize| {
            let out = got[m].as_ref().unwrap().out.as_ref().unwrap();
            out.iter()
                .map(|d| d.tuple.get(0).clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            (only(0), only(1)),
            (vec![Value::Int(2)], vec![Value::Int(1)])
        );
    }
}
