//! Property-style tests over the core invariants.
//!
//! The build environment has no crates.io access, so instead of proptest
//! these properties are exercised with a seeded generator: every case is
//! deterministic per seed, and each property runs across many seeds. The
//! invariants checked are the same as the original proptest suite.

use rand::seq::SliceRandom;
use rand::Rng;

use smartcis::netsim::codec;
use smartcis::sql::expr::{AggColumn, AggFunc, PartialAgg};
use smartcis::stream::delta::{consolidate, Delta, DeltaBatch};
use smartcis::stream::operators::{DeltaOp, JoinOp};
use smartcis::types::rng::seeded;
use smartcis::types::{DataType, SimDuration, SimTime, Tuple, Value, WindowSpec};

/// Draw an arbitrary `Value` covering every variant, including NaN floats
/// and empty / pattern-charactered strings.
fn arb_value(rng: &mut rand::rngs::StdRng) -> Value {
    match rng.gen_range(0..7u32) {
        0 => Value::Null,
        1 => Value::Bool(rng.gen::<bool>()),
        2 => Value::Int(rng.gen::<i64>()),
        3 => {
            let f = match rng.gen_range(0..4u32) {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => -0.0,
                _ => (rng.gen::<f64>() - 0.5) * 1e9,
            };
            Value::Float(f)
        }
        4 => {
            let alphabet: &[u8] = b"abcXYZ019 _%-";
            let len = rng.gen_range(0..24usize);
            let s: String = (0..len)
                .map(|_| alphabet[rng.gen_range(0..alphabet.len())] as char)
                .collect();
            Value::Text(s)
        }
        5 => Value::Timestamp(rng.gen::<u64>()),
        _ => Value::Int(rng.gen_range(-100..100i64)),
    }
}

/// The wire codec round-trips every representable row.
#[test]
fn codec_round_trips() {
    for seed in 0..200u64 {
        let mut rng = seeded(seed);
        let n = rng.gen_range(0..12usize);
        let values: Vec<Value> = (0..n).map(|_| arb_value(&mut rng)).collect();
        let encoded = codec::encode_row(&values);
        let decoded = codec::decode_row(encoded).unwrap();
        // NaN-aware equality comes from Value's total ordering.
        assert_eq!(decoded.len(), values.len(), "arity mismatch at seed {seed}");
        for (d, v) in decoded.iter().zip(&values) {
            assert_eq!(
                d.total_cmp(v),
                std::cmp::Ordering::Equal,
                "seed {seed}: {d:?} != {v:?}"
            );
        }
    }
}

/// Value's total order is consistent: sorting never produces an
/// out-of-order adjacent pair.
#[test]
fn value_total_order_is_total() {
    for seed in 0..200u64 {
        let mut rng = seeded(seed);
        let n = rng.gen_range(2..20usize);
        let mut vs: Vec<Value> = (0..n).map(|_| arb_value(&mut rng)).collect();
        vs.sort_by(|a, b| a.total_cmp(b));
        for w in vs.windows(2) {
            assert_ne!(
                w[0].total_cmp(&w[1]),
                std::cmp::Ordering::Greater,
                "seed {seed}"
            );
        }
    }
}

/// LIKE never panics and respects NULL-propagation.
#[test]
fn like_is_null_safe() {
    for seed in 0..300u64 {
        let mut rng = seeded(seed);
        let s = arb_value(&mut rng);
        let p = arb_value(&mut rng);
        let r = s.sql_like(&p);
        if s.is_null() || p.is_null() {
            assert_eq!(r, None, "seed {seed}");
        }
    }
}

/// TAG partial aggregation is order-insensitive: merging readings in any
/// order gives the same COUNT/SUM/MIN/MAX as a direct fold.
#[test]
fn partial_agg_merge_order_invariant() {
    for seed in 0..100u64 {
        let mut rng = seeded(seed);
        let n = rng.gen_range(1..24usize);
        let mut readings: Vec<f64> = (0..n).map(|_| (rng.gen::<f64>() - 0.5) * 2e6).collect();

        let mut forward = PartialAgg::default();
        for r in &readings {
            forward.merge(&PartialAgg::of(*r));
        }
        // Shuffle deterministically and merge as a tree.
        readings.shuffle(&mut rng);
        let mut parts: Vec<PartialAgg> = readings.iter().map(|r| PartialAgg::of(*r)).collect();
        while parts.len() > 1 {
            let b = parts.pop().unwrap();
            parts.last_mut().unwrap().merge(&b);
        }
        let tree = parts.pop().unwrap();
        assert_eq!(
            forward.finalize(AggFunc::Count),
            tree.finalize(AggFunc::Count)
        );
        assert_eq!(forward.finalize(AggFunc::Min), tree.finalize(AggFunc::Min));
        assert_eq!(forward.finalize(AggFunc::Max), tree.finalize(AggFunc::Max));
        let (Value::Float(a), Value::Float(b)) =
            (forward.finalize(AggFunc::Sum), tree.finalize(AggFunc::Sum))
        else {
            panic!("sum not float");
        };
        assert!(
            (a - b).abs() <= 1e-6 * a.abs().max(1.0),
            "seed {seed}: {a} vs {b}"
        );
    }
}

/// Accumulator insert/retract is exact: inserting a multiset then
/// retracting a sub-multiset leaves the aggregate of the difference.
#[test]
fn accumulator_retraction_is_exact() {
    for seed in 0..100u64 {
        let mut rng = seeded(seed);
        let keep: Vec<i64> = (0..rng.gen_range(1..16usize))
            .map(|_| rng.gen_range(-1000..1000i64))
            .collect();
        let gone: Vec<i64> = (0..rng.gen_range(0..16usize))
            .map(|_| rng.gen_range(-1000..1000i64))
            .collect();
        for func in [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max] {
            // One-slot columns: a group's accumulator is its slot.
            let one_slot = || {
                let mut col = AggColumn::new(func, Some(DataType::Int));
                col.push();
                col
            };
            let mut acc = one_slot();
            for v in keep.iter().chain(&gone) {
                acc.insert(0, &Value::Int(*v)).unwrap();
            }
            for v in &gone {
                acc.retract(0, &Value::Int(*v)).unwrap();
            }
            // Oracle: aggregate of `keep` alone.
            let mut oracle = one_slot();
            for v in &keep {
                oracle.insert(0, &Value::Int(*v)).unwrap();
            }
            let rows = keep.len() as i64;
            assert_eq!(
                acc.value(0, rows),
                oracle.value(0, rows),
                "seed {seed} {func:?}"
            );
        }
    }
}

/// Delta streams consolidate to the same multiset regardless of
/// interleaving.
#[test]
fn delta_consolidation_is_order_invariant() {
    for seed in 0..100u64 {
        let mut rng = seeded(seed);
        let n = rng.gen_range(0..40usize);
        let deltas: Vec<Delta> = (0..n)
            .map(|_| {
                let t = Tuple::new(vec![Value::Int(rng.gen_range(0..20i64))], SimTime::ZERO);
                if rng.gen_bool(0.5) {
                    Delta::insert(t)
                } else {
                    Delta::retract(t)
                }
            })
            .collect();
        let a = consolidate(&deltas);
        let mut shuffled = deltas.clone();
        shuffled.shuffle(&mut rng);
        assert_eq!(a, consolidate(&shuffled), "seed {seed}");
    }
}

/// The symmetric hash join over arbitrary insert streams equals the
/// nested-loop oracle.
#[test]
fn hash_join_matches_nested_loop() {
    for seed in 0..60u64 {
        let mut rng = seeded(seed);
        let side = |rng: &mut rand::rngs::StdRng| -> Vec<(i64, i64)> {
            (0..rng.gen_range(0..24usize))
                .map(|_| (rng.gen_range(0..8i64), rng.gen_range(-50..50i64)))
                .collect()
        };
        let left = side(&mut rng);
        let right = side(&mut rng);

        let mut join = JoinOp::new(vec![(0, 0)], None);
        let mut outputs = 0usize;
        for (k, v) in &left {
            let t = Tuple::new(vec![Value::Int(*k), Value::Int(*v)], SimTime::ZERO);
            outputs += join
                .process(0, &Delta::insert(t))
                .unwrap()
                .iter()
                .map(|d| d.sign.unsigned_abs() as usize)
                .sum::<usize>();
        }
        for (k, v) in &right {
            let t = Tuple::new(vec![Value::Int(*k), Value::Int(*v)], SimTime::ZERO);
            outputs += join
                .process(1, &Delta::insert(t))
                .unwrap()
                .iter()
                .map(|d| d.sign.unsigned_abs() as usize)
                .sum::<usize>();
        }
        let oracle: usize = left
            .iter()
            .map(|(lk, _)| right.iter().filter(|(rk, _)| rk == lk).count())
            .sum();
        assert_eq!(outputs, oracle, "seed {seed}");
    }
}

/// RANGE windows: once a tuple has expired it can never become live again
/// as `now` advances.
#[test]
fn range_window_liveness_monotone() {
    for seed in 0..300u64 {
        let mut rng = seeded(seed);
        let ts = rng.gen_range(0..10_000u64);
        let width = rng.gen_range(1..5_000u64);
        let now1 = rng.gen_range(0..20_000u64);
        let extra = rng.gen_range(0..5_000u64);
        let w = WindowSpec::Range(SimDuration::from_micros(width));
        let now2 = now1 + extra;
        let t = SimTime::from_micros(ts);
        let live1 = w.contains(t, SimTime::from_micros(now1));
        let live2 = w.contains(t, SimTime::from_micros(now2));
        if ts <= now1 && !live1 {
            assert!(!live2 || ts > now2, "seed {seed}");
        }
    }
}

/// Incremental transitive closure equals from-scratch recomputation
/// under random insert/delete churn (the E6 oracle as a property).
#[test]
fn recursive_view_matches_recompute_under_churn() {
    use smartcis::catalog::{Catalog, SourceKind, SourceStats};
    use smartcis::sql::{bind, parse, BoundQuery};
    use smartcis::stream::RecursiveView;
    use smartcis::types::{Field, Schema};

    let cat = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("src", DataType::Text),
        Field::new("dst", DataType::Text),
    ])
    .into_ref();
    cat.register_source("Edge", schema, SourceKind::Table, SourceStats::table(20))
        .unwrap();
    let sql = "create recursive view R as ( \
               select e.src, e.dst from Edge e \
               union \
               select r.src, e.dst from R r, Edge e where r.dst = e.src )";
    let BoundQuery::View(v) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
        panic!()
    };
    let src = cat.source("Edge").unwrap().id;
    let nodes = ["a", "b", "c", "d", "e"];
    let edge = |i: usize, j: usize| {
        Tuple::new(
            vec![Value::Text(nodes[i].into()), Value::Text(nodes[j].into())],
            SimTime::ZERO,
        )
    };

    for seed in 0..15u64 {
        let mut view = RecursiveView::new(&v).unwrap();
        let mut rng = seeded(seed);
        let mut live: Vec<(usize, usize)> = Vec::new();
        for _ in 0..40 {
            let i = rng.gen_range(0..nodes.len());
            let j = rng.gen_range(0..nodes.len());
            let d = if live.contains(&(i, j)) && rng.gen_bool(0.5) {
                live.retain(|&p| p != (i, j));
                Delta::retract(edge(i, j))
            } else if !live.contains(&(i, j)) {
                live.push((i, j));
                Delta::insert(edge(i, j))
            } else {
                continue;
            };
            view.on_base_deltas(src, &DeltaBatch::from(vec![d]))
                .unwrap();
        }
        // Oracle: recompute from the same base facts.
        let incremental: std::collections::BTreeSet<Vec<Value>> = view
            .snapshot()
            .into_iter()
            .map(|t| t.values().to_vec())
            .collect();
        view.recompute().unwrap();
        let recomputed: std::collections::BTreeSet<Vec<Value>> = view
            .snapshot()
            .into_iter()
            .map(|t| t.values().to_vec())
            .collect();
        assert_eq!(incremental, recomputed, "divergence at seed {seed}");
    }
}
