//! Micro/meso benchmarks, one group per experiment family (`cargo bench`).
//!
//! These time the code paths the harness tables measure by counting:
//! sensor-network join strategies (E3), TAG aggregation (E4), the
//! federated optimizer (E5/E9), recursive-view maintenance (E6), the
//! end-to-end app tick (E7), localization (E8), and stream-operator
//! throughput (calibration for the stream cost model).
//!
//! The offline build environment has no criterion, so this is a plain
//! `harness = false` bench: each workload runs a fixed number of
//! iterations around `std::time::Instant` and reports the mean. Numbers
//! are indicative, not statistically rigorous — the point is a stable
//! relative baseline from one PR to the next.

use std::time::Instant;

use aspen_bench::fixtures::{fig1_graph, smartcis_catalog};
use aspen_netsim::RadioModel;
use aspen_optimizer::optimize;
use aspen_sensor::config::LIGHT_THRESHOLD;
use aspen_sensor::{Deployment, JoinStrategy, QuerySpec, SensorEngine};
use aspen_sql::expr::AggFunc;
use aspen_stream::delta::{Delta, DeltaBatch};
use aspen_stream::operators::{DeltaOp, JoinOp};
use aspen_types::{SimTime, Tuple, Value};
use smartcis_app::SmartCis;

/// Run `iters` timed repetitions of `body`, reporting the mean per-iter
/// time. The closure's output is folded into a sink value printed with
/// the result so the optimizer cannot elide the work.
fn bench<T: std::fmt::Debug>(name: &str, iters: u32, mut body: impl FnMut() -> T) {
    // One warmup iteration to populate caches / lazy state.
    let _ = body();
    let start = Instant::now();
    let mut last = None;
    for _ in 0..iters {
        last = Some(body());
    }
    let total = start.elapsed();
    let per_iter = total / iters;
    println!("{name:<44} {per_iter:>12.2?}/iter  (x{iters}, last={last:?})");
}

fn bench_innet_join() {
    for (name, strategy) in [
        ("at_base", JoinStrategy::AtBase),
        ("at_temp", JoinStrategy::AtTemp),
    ] {
        let deployment = Deployment::lab_wing(3, 16, 80.0);
        let engine = SensorEngine::new(deployment, RadioModel::lossless(), 1);
        let desks = engine.deployment.desk_ids();
        bench(&format!("e3_innet_join/{name}"), 10, || {
            let spec = QuerySpec::uniform_join(LIGHT_THRESHOLD, strategy, &desks);
            engine.run(spec, 5).unwrap().stats.msgs_sent
        });
    }
}

fn bench_innet_agg() {
    for (name, spec) in [
        (
            "collect",
            QuerySpec::Collect {
                attr: aspen_sensor::DeviceAttr::Temp,
                selection: None,
            },
        ),
        (
            "tag_avg",
            QuerySpec::Aggregate {
                func: AggFunc::Avg,
                attr: aspen_sensor::DeviceAttr::Temp,
            },
        ),
    ] {
        let deployment = Deployment::lab_wing(3, 24, 80.0);
        let engine = SensorEngine::new(deployment, RadioModel::lossless(), 2);
        bench(&format!("e4_innet_agg/{name}"), 10, || {
            engine.run(spec.clone(), 5).unwrap().stats.msgs_sent
        });
    }
}

fn bench_federated_opt() {
    let cat = smartcis_catalog(4, 60, 6, 0.05);
    let graph = fig1_graph(&cat);
    bench("e5_federated_optimizer/fig1_5way", 50, || {
        optimize(&graph, &cat).unwrap().total_cost.units
    });
}

fn bench_recursive_view() {
    bench("e6_recursive_view/incremental_churn", 10, || {
        aspen_bench::e6_run(6, 4, 3).incremental_ms
    });
    bench("e6_recursive_view/recompute_churn", 10, || {
        aspen_bench::e6_run(6, 4, 3).recompute_ms
    });
}

fn bench_end_to_end() {
    let mut app = SmartCis::new(3, 6, 7).unwrap();
    app.set_visitor(1, "entrance", "Fedora").unwrap();
    bench("e7_end_to_end/tick_plus_guidance", 10, || {
        app.tick().unwrap();
        app.visitor_guidance().unwrap().1.len()
    });
}

fn bench_stream_join_throughput() {
    bench("stream_operator/symmetric_hash_join_10k", 20, || {
        let mut join = JoinOp::new(vec![(0, 0)], None);
        let mut out = 0usize;
        for i in 0..10_000i64 {
            let t = Tuple::new(
                vec![Value::Int(i % 512), Value::Int(i)],
                SimTime::from_micros(i as u64),
            );
            out += join
                .process((i % 2) as usize, &Delta::insert(t))
                .unwrap()
                .len();
        }
        out
    });
    // Identical delta stream to the per-delta variant, just split into
    // one batch per port, so the two timings are directly comparable.
    bench("stream_operator/hash_join_batched_10k", 20, || {
        let mut join = JoinOp::new(vec![(0, 0)], None);
        let mut out = 0usize;
        for port in 0..2usize {
            let batch: DeltaBatch = (0..10_000i64)
                .filter(|i| (i % 2) as usize == port)
                .map(|i| {
                    Delta::insert(Tuple::new(
                        vec![Value::Int(i % 512), Value::Int(i)],
                        SimTime::from_micros(i as u64),
                    ))
                })
                .collect();
            out += join.process_batch(port, &batch).unwrap().len();
        }
        out
    });
}

fn bench_localization() {
    use aspen_types::Point;
    use smartcis_app::{Building, Localizer};
    let building = Building::moore_wing(4, 2, 100.0);
    bench("e8_localization/walk_450ft", 10, || {
        let mut loc = Localizer::new(&building, RadioModel::default(), 5);
        let mut total_err = 0.0;
        for step in 0..40 {
            let truth = Point::new(step as f64 * 10.0, 0.0);
            if let Some((_, e)) = loc.localize(truth, SimTime::from_secs(step)) {
                total_err += e;
            }
        }
        total_err
    });
}

fn main() {
    println!("== aspen bench suite (plain timing, release profile) ==");
    bench_innet_join();
    bench_innet_agg();
    bench_federated_opt();
    bench_recursive_view();
    bench_end_to_end();
    bench_stream_join_throughput();
    bench_localization();
}
