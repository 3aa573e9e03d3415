//! Bound, executable expressions and aggregate functions.
//!
//! [`BoundExpr`] is the post-binding form of [`crate::ast::Expr`]: column
//! references are resolved to ordinals, types are checked, and the tree
//! can be evaluated directly against a [`Tuple`].
//!
//! Aggregates come in two execution styles, matching the two engines:
//!
//! * [`PartialAgg`] — the small, **mergeable** `(count, sum, min, max)`
//!   record used by TAG-style in-network aggregation on motes (partials
//!   combine up the routing tree; ref \[12\] of the paper);
//! * [`AggColumn`] — the stream engine's windowed accumulators with full
//!   **retraction** support (expired tuples are subtracted; MIN/MAX keep
//!   a multiset so deletions are exact), one typed column per aggregate
//!   call holding a *slot* for every group of the operator.
//!
//! ## The accumulator column
//!
//! A stream aggregate keeps its groups as slots of a table; each
//! aggregate call owns one [`AggColumn`] and a group's accumulator is
//! the column's cells at the group's slot — no per-group object:
//!
//! | call | cells a slot |
//! |---|---|
//! | `COUNT(*)` | none: the group's weight, which the operator keeps |
//! | `COUNT(expr)` | `i64` non-`NULL` inputs |
//! | `SUM` / `AVG` | `f64` sum, `i64` non-`NULL` inputs (`int_input` once per column) |
//! | `MIN` / `MAX` | a `BTreeMap<Value, usize>` multiset of live values |
//!
//! `COUNT(*)` moves by the delta's sign exactly as the weight does, so
//! it has no cells and reads the weight the operator passes to
//! [`AggColumn::value`]. [`AggColumn::heap_bytes`] measures the column
//! from its capacities; only a `BTreeMap` entry's share of its node is a
//! constant.

use std::borrow::Cow;
use std::collections::BTreeMap;

use aspen_types::{ArithOp, AspenError, DataType, Result, Tuple, Value};

use crate::ast::CmpOp;

/// Scalar functions available to queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarFunc {
    Abs,
    Floor,
    Ceil,
    Round,
    Lower,
    Upper,
}

impl ScalarFunc {
    pub fn by_name(name: &str) -> Option<ScalarFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "abs" => ScalarFunc::Abs,
            "floor" => ScalarFunc::Floor,
            "ceil" => ScalarFunc::Ceil,
            "round" => ScalarFunc::Round,
            "lower" => ScalarFunc::Lower,
            "upper" => ScalarFunc::Upper,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            ScalarFunc::Abs => "abs",
            ScalarFunc::Floor => "floor",
            ScalarFunc::Ceil => "ceil",
            ScalarFunc::Round => "round",
            ScalarFunc::Lower => "lower",
            ScalarFunc::Upper => "upper",
        }
    }

    fn apply(self, args: &[Value]) -> Result<Value> {
        let arity_err = || AspenError::TypeMismatch(format!("{} expects 1 argument", self.name()));
        let a = args.first().ok_or_else(arity_err)?;
        if args.len() != 1 {
            return Err(arity_err());
        }
        if a.is_null() {
            return Ok(Value::Null);
        }
        Ok(match self {
            ScalarFunc::Abs => match a {
                Value::Int(i) => Value::Int(i.wrapping_abs()),
                _ => Value::Float(a.as_f64()?.abs()),
            },
            ScalarFunc::Floor => Value::Float(a.as_f64()?.floor()),
            ScalarFunc::Ceil => Value::Float(a.as_f64()?.ceil()),
            ScalarFunc::Round => Value::Float(a.as_f64()?.round()),
            ScalarFunc::Lower => Value::Text(a.as_text()?.to_lowercase()),
            ScalarFunc::Upper => Value::Text(a.as_text()?.to_uppercase()),
        })
    }

    fn return_type(self, arg: Option<DataType>) -> Option<DataType> {
        match self {
            ScalarFunc::Abs => arg,
            ScalarFunc::Floor | ScalarFunc::Ceil | ScalarFunc::Round => Some(DataType::Float),
            ScalarFunc::Lower | ScalarFunc::Upper => Some(DataType::Text),
        }
    }
}

/// A bound, type-checked expression.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    /// Column ordinal in the input tuple, with its static type.
    Col {
        index: usize,
        data_type: DataType,
    },
    Lit(Value),
    Cmp {
        op: CmpOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Like {
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    Arith {
        op: ArithOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    And(Box<BoundExpr>, Box<BoundExpr>),
    Or(Box<BoundExpr>, Box<BoundExpr>),
    Not(Box<BoundExpr>),
    Func {
        func: ScalarFunc,
        args: Vec<BoundExpr>,
    },
}

impl BoundExpr {
    pub fn col(index: usize, data_type: DataType) -> BoundExpr {
        BoundExpr::Col { index, data_type }
    }

    /// Evaluate against a tuple.
    pub fn eval(&self, tuple: &Tuple) -> Result<Value> {
        match self {
            BoundExpr::Col { index, .. } => tuple.values().get(*index).cloned().ok_or_else(|| {
                AspenError::Execution(format!(
                    "column ordinal {index} out of range for arity {}",
                    tuple.len()
                ))
            }),
            BoundExpr::Lit(v) => Ok(v.clone()),
            BoundExpr::Cmp { op, left, right } => {
                let l = left.eval(tuple)?;
                let r = right.eval(tuple)?;
                Ok(match l.sql_cmp(&r) {
                    None => Value::Null,
                    Some(ord) => Value::Bool(match op {
                        CmpOp::Eq => ord.is_eq(),
                        CmpOp::Neq => ord.is_ne(),
                        CmpOp::Lt => ord.is_lt(),
                        CmpOp::Lte => ord.is_le(),
                        CmpOp::Gt => ord.is_gt(),
                        CmpOp::Gte => ord.is_ge(),
                    }),
                })
            }
            BoundExpr::Like { left, right } => {
                let l = left.eval(tuple)?;
                let r = right.eval(tuple)?;
                Ok(match l.sql_like(&r) {
                    None => Value::Null,
                    Some(b) => Value::Bool(b),
                })
            }
            BoundExpr::Arith { op, left, right } => {
                left.eval(tuple)?.arith(*op, &right.eval(tuple)?)
            }
            BoundExpr::And(l, r) => {
                // SQL 3VL: false AND x = false even if x is NULL.
                let lv = l.eval(tuple)?;
                if lv == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                let rv = r.eval(tuple)?;
                if rv == Value::Bool(false) {
                    return Ok(Value::Bool(false));
                }
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(lv.as_bool()? && rv.as_bool()?))
            }
            BoundExpr::Or(l, r) => {
                let lv = l.eval(tuple)?;
                if lv == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                let rv = r.eval(tuple)?;
                if rv == Value::Bool(true) {
                    return Ok(Value::Bool(true));
                }
                if lv.is_null() || rv.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(lv.as_bool()? || rv.as_bool()?))
            }
            BoundExpr::Not(e) => {
                let v = e.eval(tuple)?;
                if v.is_null() {
                    return Ok(Value::Null);
                }
                Ok(Value::Bool(!v.as_bool()?))
            }
            BoundExpr::Func { func, args } => {
                let mut vals = Vec::with_capacity(args.len());
                for a in args {
                    vals.push(a.eval(tuple)?);
                }
                func.apply(&vals)
            }
        }
    }

    /// [`BoundExpr::eval`], borrowing the value when the expression is a
    /// plain column.
    pub fn eval_ref<'t>(&self, tuple: &'t Tuple) -> Result<Cow<'t, Value>> {
        match *self {
            BoundExpr::Col { index, .. } if index < tuple.len() => {
                Ok(Cow::Borrowed(tuple.get(index)))
            }
            _ => self.eval(tuple).map(Cow::Owned),
        }
    }

    /// Evaluate in filter position: NULL (unknown) counts as `false`.
    pub fn eval_bool(&self, tuple: &Tuple) -> Result<bool> {
        match self.eval(tuple)? {
            Value::Bool(b) => Ok(b),
            Value::Null => Ok(false),
            other => Err(AspenError::TypeMismatch(format!(
                "predicate evaluated to non-boolean {other:?}"
            ))),
        }
    }

    /// Static result type, when derivable (`None` ⇒ NULL literal).
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            BoundExpr::Col { data_type, .. } => Some(*data_type),
            BoundExpr::Lit(v) => v.data_type(),
            BoundExpr::Cmp { .. }
            | BoundExpr::Like { .. }
            | BoundExpr::And(..)
            | BoundExpr::Or(..)
            | BoundExpr::Not(_) => Some(DataType::Bool),
            BoundExpr::Arith { left, right, .. } => match (left.data_type(), right.data_type()) {
                (Some(a), Some(b)) => DataType::unify(a, b),
                _ => None,
            },
            BoundExpr::Func { func, args } => {
                func.return_type(args.first().and_then(BoundExpr::data_type))
            }
        }
    }

    /// Ordinals of all referenced columns (sorted, deduplicated).
    pub fn columns(&self) -> Vec<usize> {
        fn go(e: &BoundExpr, out: &mut Vec<usize>) {
            match e {
                BoundExpr::Col { index, .. } => out.push(*index),
                BoundExpr::Lit(_) => {}
                BoundExpr::Cmp { left, right, .. }
                | BoundExpr::Like { left, right }
                | BoundExpr::Arith { left, right, .. } => {
                    go(left, out);
                    go(right, out);
                }
                BoundExpr::And(l, r) | BoundExpr::Or(l, r) => {
                    go(l, out);
                    go(r, out);
                }
                BoundExpr::Not(e) => go(e, out),
                BoundExpr::Func { args, .. } => {
                    for a in args {
                        go(a, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        go(self, &mut out);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Rewrite every column ordinal through `map` (used when an
    /// expression moves across a projection or join reordering).
    pub fn remap(&self, map: &dyn Fn(usize) -> usize) -> BoundExpr {
        match self {
            BoundExpr::Col { index, data_type } => BoundExpr::Col {
                index: map(*index),
                data_type: *data_type,
            },
            BoundExpr::Lit(v) => BoundExpr::Lit(v.clone()),
            BoundExpr::Cmp { op, left, right } => BoundExpr::Cmp {
                op: *op,
                left: Box::new(left.remap(map)),
                right: Box::new(right.remap(map)),
            },
            BoundExpr::Like { left, right } => BoundExpr::Like {
                left: Box::new(left.remap(map)),
                right: Box::new(right.remap(map)),
            },
            BoundExpr::Arith { op, left, right } => BoundExpr::Arith {
                op: *op,
                left: Box::new(left.remap(map)),
                right: Box::new(right.remap(map)),
            },
            BoundExpr::And(l, r) => BoundExpr::And(Box::new(l.remap(map)), Box::new(r.remap(map))),
            BoundExpr::Or(l, r) => BoundExpr::Or(Box::new(l.remap(map)), Box::new(r.remap(map))),
            BoundExpr::Not(e) => BoundExpr::Not(Box::new(e.remap(map))),
            BoundExpr::Func { func, args } => BoundExpr::Func {
                func: *func,
                args: args.iter().map(|a| a.remap(map)).collect(),
            },
        }
    }
}

/// Aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    Count,
    Sum,
    Avg,
    Min,
    Max,
}

impl AggFunc {
    pub fn by_name(name: &str) -> Option<AggFunc> {
        Some(match name.to_ascii_lowercase().as_str() {
            "count" => AggFunc::Count,
            "sum" => AggFunc::Sum,
            "avg" => AggFunc::Avg,
            "min" => AggFunc::Min,
            "max" => AggFunc::Max,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }

    /// Output type given the argument type.
    pub fn return_type(self, arg: Option<DataType>) -> DataType {
        match self {
            AggFunc::Count => DataType::Int,
            AggFunc::Avg => DataType::Float,
            AggFunc::Sum => match arg {
                Some(DataType::Int) => DataType::Int,
                _ => DataType::Float,
            },
            AggFunc::Min | AggFunc::Max => arg.unwrap_or(DataType::Float),
        }
    }
}

/// A bound aggregate call: `func(arg)` or `COUNT(*)` when `arg` is `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundAgg {
    pub func: AggFunc,
    pub arg: Option<BoundExpr>,
    /// Output column name (for the result schema).
    pub name: String,
}

// ---------------------------------------------------------------------------
// TAG-style partial aggregates (sensor engine)
// ---------------------------------------------------------------------------

/// The mergeable partial-aggregate record shipped up the routing tree by
/// the sensor engine. All five SQL aggregates decompose over it:
/// `COUNT = count`, `SUM = sum`, `AVG = sum/count`, `MIN = min`,
/// `MAX = max` — the classic TAG decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAgg {
    pub count: i64,
    pub sum: f64,
    pub min: Option<f64>,
    pub max: Option<f64>,
}

impl Default for PartialAgg {
    fn default() -> Self {
        PartialAgg {
            count: 0,
            sum: 0.0,
            min: None,
            max: None,
        }
    }
}

impl PartialAgg {
    /// A partial over a single reading.
    pub fn of(v: f64) -> Self {
        PartialAgg {
            count: 1,
            sum: v,
            min: Some(v),
            max: Some(v),
        }
    }

    /// Merge another partial into this one (associative, commutative).
    pub fn merge(&mut self, other: &PartialAgg) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Final answer for a given aggregate function.
    pub fn finalize(&self, func: AggFunc) -> Value {
        match func {
            AggFunc::Count => Value::Int(self.count),
            AggFunc::Sum => Value::Float(self.sum),
            AggFunc::Avg => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Float(self.sum / self.count as f64)
                }
            }
            AggFunc::Min => self.min.map(Value::Float).unwrap_or(Value::Null),
            AggFunc::Max => self.max.map(Value::Float).unwrap_or(Value::Null),
        }
    }
}

// ---------------------------------------------------------------------------
// Stream-engine accumulator columns with retraction
// ---------------------------------------------------------------------------

/// What a `BTreeMap<Value, usize>` entry costs beyond its text: the
/// `(value, count)` pair and three quarters as much again for its share
/// of the node it sits in. A node holds up to 11 pairs behind a parent
/// link (an internal one 12 child links besides) and runs between half
/// full — in-order inserts split a full node 6 | 5 and never refill the
/// left half: 64 B an entry, measured — and two thirds full for
/// scattered inserts (50 B). The one per-entry constant in the aggregate
/// accounting; `crates/stream/tests/state_accounting.rs` checks it
/// against the allocator for both orders.
const BTREE_ENTRY_BYTES: usize = std::mem::size_of::<(Value, usize)>() * 7 / 4;

/// Heap bytes a value owns.
pub fn value_heap_bytes(v: &Value) -> usize {
    match v {
        Value::Text(s) => s.capacity(),
        _ => 0,
    }
}

/// One aggregate call's accumulators for every group of a stream
/// aggregate — a typed column with one *slot* a group, supporting insert
/// *and* retract, because sliding windows expire tuples (module docs).
/// Slots are appended by [`AggColumn::push`] and addressed by index;
/// [`AggColumn::reset`] returns one to fresh in place.
#[derive(Debug, Clone)]
pub struct AggColumn {
    func: AggFunc,
    cells: Cells,
}

#[derive(Debug, Clone)]
enum Cells {
    /// `COUNT(*)`: the group's weight, kept by the operator.
    Rows,
    /// `COUNT(expr)`: non-`NULL` inputs.
    Count(Vec<i64>),
    /// `SUM` / `AVG`: the sum and the non-`NULL` inputs behind it.
    Sum {
        sum: Vec<f64>,
        n: Vec<i64>,
        int_input: bool,
    },
    /// `MIN` / `MAX`: the exact multiset of live values.
    Extreme(Vec<BTreeMap<Value, usize>>),
}

impl AggColumn {
    /// The column of `func(expr)` over an argument of type `arg_type`
    /// (`None`: a `NULL` literal).
    pub fn new(func: AggFunc, arg_type: Option<DataType>) -> Self {
        let cells = match func {
            AggFunc::Count => Cells::Count(Vec::new()),
            AggFunc::Sum | AggFunc::Avg => Cells::Sum {
                sum: Vec::new(),
                n: Vec::new(),
                int_input: arg_type == Some(DataType::Int),
            },
            AggFunc::Min | AggFunc::Max => Cells::Extreme(Vec::new()),
        };
        AggColumn { func, cells }
    }

    /// The column of a bound call: `COUNT(*)` keeps no cells.
    pub fn of(agg: &BoundAgg) -> Self {
        match &agg.arg {
            None if agg.func == AggFunc::Count => AggColumn {
                func: AggFunc::Count,
                cells: Cells::Rows,
            },
            arg => AggColumn::new(agg.func, arg.as_ref().and_then(BoundExpr::data_type)),
        }
    }

    /// Append a fresh slot.
    pub fn push(&mut self) {
        match &mut self.cells {
            Cells::Rows => {}
            Cells::Count(c) => c.push(0),
            Cells::Sum { sum, n, .. } => {
                sum.push(0.0);
                n.push(0);
            }
            Cells::Extreme(sets) => sets.push(BTreeMap::new()),
        }
    }

    /// Room for `slots` more slots, allocated exactly.
    pub fn reserve_exact(&mut self, slots: usize) {
        match &mut self.cells {
            Cells::Rows => {}
            Cells::Count(c) => c.reserve_exact(slots),
            Cells::Sum { sum, n, .. } => {
                sum.reserve_exact(slots);
                n.reserve_exact(slots);
            }
            Cells::Extreme(sets) => sets.reserve_exact(slots),
        }
    }

    /// Make `slot` fresh, as if just pushed.
    pub fn reset(&mut self, slot: usize) {
        match &mut self.cells {
            Cells::Rows => {}
            Cells::Count(c) => c[slot] = 0,
            Cells::Sum { sum, n, .. } => {
                sum[slot] = 0.0;
                n[slot] = 0;
            }
            Cells::Extreme(sets) => sets[slot] = BTreeMap::new(),
        }
    }

    /// Add a value to `slot` (`NULL`s are skipped, per SQL; `COUNT(*)`
    /// counts through the weight instead).
    pub fn insert(&mut self, slot: usize, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match &mut self.cells {
            Cells::Rows => {}
            Cells::Count(c) => c[slot] += 1,
            Cells::Sum { sum, n, .. } => {
                sum[slot] += v.as_f64()?;
                n[slot] += 1;
            }
            Cells::Extreme(sets) => *sets[slot].entry(v.clone()).or_insert(0) += 1,
        }
        Ok(())
    }

    /// Retract a previously inserted value from `slot` (window expiry or
    /// a recursive-view deletion).
    pub fn retract(&mut self, slot: usize, v: &Value) -> Result<()> {
        if v.is_null() {
            return Ok(());
        }
        match &mut self.cells {
            Cells::Rows => {}
            Cells::Count(c) => c[slot] -= 1,
            Cells::Sum { sum, n, .. } => {
                sum[slot] -= v.as_f64()?;
                n[slot] -= 1;
            }
            Cells::Extreme(sets) => match sets[slot].get_mut(v) {
                Some(n) if *n > 1 => *n -= 1,
                Some(_) => {
                    sets[slot].remove(v);
                }
                None => {
                    return Err(AspenError::Execution(format!(
                        "retracting value {v:?} never inserted"
                    )))
                }
            },
        }
        Ok(())
    }

    /// The aggregate's current value at `slot`, whose group holds `rows`
    /// rows (its weight — what `COUNT(*)` reads).
    pub fn value(&self, slot: usize, rows: i64) -> Value {
        match &self.cells {
            Cells::Rows => Value::Int(rows),
            Cells::Count(c) => Value::Int(c[slot]),
            Cells::Sum { n, .. } if n[slot] == 0 => Value::Null,
            Cells::Sum { sum, n, int_input } => match self.func {
                AggFunc::Avg => Value::Float(sum[slot] / n[slot] as f64),
                _ if *int_input => Value::Int(sum[slot] as i64),
                _ => Value::Float(sum[slot]),
            },
            Cells::Extreme(sets) => {
                let pick = match self.func {
                    AggFunc::Min => sets[slot].first_key_value(),
                    _ => sets[slot].last_key_value(),
                };
                pick.map_or(Value::Null, |(v, _)| v.clone())
            }
        }
    }

    /// Heap bytes: every cell vector at its capacity, and for `MIN` /
    /// `MAX` each multiset's entries and their text.
    pub fn heap_bytes(&self) -> usize {
        fn cap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        match &self.cells {
            Cells::Rows => 0,
            Cells::Count(c) => cap(c),
            Cells::Sum { sum, n, .. } => cap(sum) + cap(n),
            Cells::Extreme(sets) => {
                let entries = sets.iter().flat_map(BTreeMap::keys);
                let bytes = entries.map(|v| BTREE_ENTRY_BYTES + value_heap_bytes(v));
                cap(sets) + bytes.sum::<usize>()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::SimTime;

    fn tup(vals: Vec<Value>) -> Tuple {
        Tuple::new(vals, SimTime::ZERO)
    }

    #[test]
    fn eval_comparison_and_like() {
        let e = BoundExpr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(BoundExpr::col(0, DataType::Float)),
            right: Box::new(BoundExpr::Lit(Value::Float(90.0))),
        };
        assert_eq!(
            e.eval(&tup(vec![Value::Float(95.0)])).unwrap(),
            Value::Bool(true)
        );
        assert!(!e.eval_bool(&tup(vec![Value::Float(85.0)])).unwrap());
        // NULL input → unknown → false in filter position
        assert!(!e.eval_bool(&tup(vec![Value::Null])).unwrap());

        let like = BoundExpr::Like {
            left: Box::new(BoundExpr::col(0, DataType::Text)),
            right: Box::new(BoundExpr::Lit(Value::Text("%Fedora%".into()))),
        };
        assert!(like
            .eval_bool(&tup(vec![Value::Text("Fedora, Word".into())]))
            .unwrap());
    }

    #[test]
    fn three_valued_and_or() {
        let null = BoundExpr::Lit(Value::Null);
        let t = BoundExpr::Lit(Value::Bool(true));
        let f = BoundExpr::Lit(Value::Bool(false));
        let empty = tup(vec![]);
        // false AND NULL = false
        let e = BoundExpr::And(Box::new(f.clone()), Box::new(null.clone()));
        assert_eq!(e.eval(&empty).unwrap(), Value::Bool(false));
        // true AND NULL = NULL
        let e = BoundExpr::And(Box::new(t.clone()), Box::new(null.clone()));
        assert_eq!(e.eval(&empty).unwrap(), Value::Null);
        // true OR NULL = true
        let e = BoundExpr::Or(Box::new(null.clone()), Box::new(t));
        assert_eq!(e.eval(&empty).unwrap(), Value::Bool(true));
        // NOT NULL = NULL
        let e = BoundExpr::Not(Box::new(null));
        assert_eq!(e.eval(&empty).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_and_types() {
        let e = BoundExpr::Arith {
            op: ArithOp::Add,
            left: Box::new(BoundExpr::col(0, DataType::Int)),
            right: Box::new(BoundExpr::col(1, DataType::Float)),
        };
        assert_eq!(e.data_type(), Some(DataType::Float));
        assert_eq!(
            e.eval(&tup(vec![Value::Int(2), Value::Float(0.5)]))
                .unwrap(),
            Value::Float(2.5)
        );
    }

    #[test]
    fn scalar_functions() {
        let e = BoundExpr::Func {
            func: ScalarFunc::Abs,
            args: vec![BoundExpr::col(0, DataType::Int)],
        };
        assert_eq!(e.eval(&tup(vec![Value::Int(-7)])).unwrap(), Value::Int(7));
        let u = BoundExpr::Func {
            func: ScalarFunc::Upper,
            args: vec![BoundExpr::Lit(Value::Text("fedora".into()))],
        };
        assert_eq!(u.eval(&tup(vec![])).unwrap(), Value::Text("FEDORA".into()));
        assert_eq!(u.data_type(), Some(DataType::Text));
    }

    #[test]
    fn scalar_function_arity_checked() {
        let e = BoundExpr::Func {
            func: ScalarFunc::Abs,
            args: vec![],
        };
        assert!(e.eval(&tup(vec![])).is_err());
    }

    #[test]
    fn columns_and_remap() {
        let e = BoundExpr::Cmp {
            op: CmpOp::Eq,
            left: Box::new(BoundExpr::col(3, DataType::Int)),
            right: Box::new(BoundExpr::col(1, DataType::Int)),
        };
        assert_eq!(e.columns(), vec![1, 3]);
        let shifted = e.remap(&|i| i + 10);
        assert_eq!(shifted.columns(), vec![11, 13]);
    }

    #[test]
    fn out_of_range_column_errors() {
        let e = BoundExpr::col(5, DataType::Int);
        assert!(e.eval(&tup(vec![Value::Int(1)])).is_err());
    }

    #[test]
    fn partial_agg_tag_decomposition() {
        let mut a = PartialAgg::of(10.0);
        a.merge(&PartialAgg::of(20.0));
        a.merge(&PartialAgg::of(0.0));
        assert_eq!(a.finalize(AggFunc::Count), Value::Int(3));
        assert_eq!(a.finalize(AggFunc::Sum), Value::Float(30.0));
        assert_eq!(a.finalize(AggFunc::Avg), Value::Float(10.0));
        assert_eq!(a.finalize(AggFunc::Min), Value::Float(0.0));
        assert_eq!(a.finalize(AggFunc::Max), Value::Float(20.0));
    }

    #[test]
    fn partial_agg_merge_is_commutative() {
        let mut a = PartialAgg::of(1.0);
        a.merge(&PartialAgg::of(5.0));
        let mut b = PartialAgg::of(5.0);
        b.merge(&PartialAgg::of(1.0));
        assert_eq!(a, b);
        // Empty partials are identity.
        let mut c = PartialAgg::default();
        c.merge(&a);
        assert_eq!(c, a);
        assert_eq!(PartialAgg::default().finalize(AggFunc::Avg), Value::Null);
    }

    /// A column with one slot.
    fn one_slot(func: AggFunc, arg_type: Option<DataType>) -> AggColumn {
        let mut col = AggColumn::new(func, arg_type);
        col.push();
        col
    }

    #[test]
    fn accumulator_insert_retract_minmax() {
        let mut acc = one_slot(AggFunc::Min, Some(DataType::Float));
        for v in [3.0, 1.0, 2.0, 1.0] {
            acc.insert(0, &Value::Float(v)).unwrap();
        }
        assert_eq!(acc.value(0, 4), Value::Float(1.0));
        acc.retract(0, &Value::Float(1.0)).unwrap();
        assert_eq!(acc.value(0, 3), Value::Float(1.0)); // duplicate survives
        acc.retract(0, &Value::Float(1.0)).unwrap();
        assert_eq!(acc.value(0, 2), Value::Float(2.0));
        assert!(acc.retract(0, &Value::Float(9.0)).is_err());
    }

    #[test]
    fn accumulator_sum_avg_int() {
        let mut sum = one_slot(AggFunc::Sum, Some(DataType::Int));
        let mut avg = one_slot(AggFunc::Avg, Some(DataType::Int));
        // A second slot stays fresh while the first moves.
        sum.push();
        for v in [Value::Int(4), Value::Int(6), Value::Null] {
            sum.insert(0, &v).unwrap();
            avg.insert(0, &v).unwrap(); // NULL skipped
        }
        assert_eq!(sum.value(0, 3), Value::Int(10));
        assert_eq!(avg.value(0, 3), Value::Float(5.0));
        assert_eq!(sum.value(1, 0), Value::Null);
        sum.retract(0, &Value::Int(4)).unwrap();
        assert_eq!(sum.value(0, 2), Value::Int(6));
        sum.retract(0, &Value::Int(6)).unwrap();
        assert_eq!(sum.value(0, 1), Value::Null);
        avg.reset(0);
        assert_eq!(avg.value(0, 0), Value::Null);
        let Cells::Sum { sum: cells, .. } = &sum.cells else {
            panic!("SUM keeps sum cells");
        };
        assert_eq!(sum.heap_bytes(), 2 * 8 * cells.capacity());
    }

    #[test]
    fn count_star_and_count_expr() {
        let star = BoundAgg {
            func: AggFunc::Count,
            arg: None,
            name: "COUNT(*)".into(),
        };
        let mut rows = AggColumn::of(&star);
        rows.push();
        rows.insert(0, &Value::Int(1)).unwrap();
        assert_eq!(rows.value(0, 7), Value::Int(7), "COUNT(*) is the weight");
        assert_eq!(rows.heap_bytes(), 0);
        let mut acc = one_slot(AggFunc::Count, None);
        acc.insert(0, &Value::Int(1)).unwrap();
        acc.insert(0, &Value::Null).unwrap(); // COUNT(expr) skips NULL
        assert_eq!(acc.value(0, 2), Value::Int(1));
    }

    #[test]
    fn agg_return_types() {
        assert_eq!(AggFunc::Count.return_type(None), DataType::Int);
        assert_eq!(AggFunc::Sum.return_type(Some(DataType::Int)), DataType::Int);
        assert_eq!(
            AggFunc::Sum.return_type(Some(DataType::Float)),
            DataType::Float
        );
        assert_eq!(
            AggFunc::Avg.return_type(Some(DataType::Int)),
            DataType::Float
        );
        assert_eq!(
            AggFunc::Min.return_type(Some(DataType::Text)),
            DataType::Text
        );
    }

    #[test]
    fn func_lookup_by_name() {
        assert_eq!(AggFunc::by_name("AVG"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::by_name("median"), None);
        assert_eq!(ScalarFunc::by_name("ABS"), Some(ScalarFunc::Abs));
        assert_eq!(ScalarFunc::by_name("nope"), None);
    }
}
