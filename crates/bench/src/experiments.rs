//! The experiment suite: the paper's F1/F2 figures and E3–E10 tables.
//! Each function runs one experiment deterministically (fixed seeds)
//! and renders its table.

use std::time::Instant;

use aspen_netsim::RadioModel;
use aspen_optimizer::optimize;
use aspen_sensor::config::LIGHT_THRESHOLD;
use aspen_sensor::placement::placement_table;
use aspen_sensor::{Deployment, JoinStrategy, QuerySpec, SensorEngine};
use aspen_sql::expr::AggFunc;
use aspen_sql::{bind, parse, printer, BoundQuery};
use aspen_stream::delta::{Delta, DeltaBatch};
use aspen_stream::RecursiveView;
use aspen_types::rng::seeded;
use aspen_types::{Point, SimTime, Tuple, Value};
use rand::Rng;
use smartcis_app::gui;
use smartcis_app::{Building, Localizer, SmartCis};

use crate::fixtures::{fig1_graph, smartcis_catalog, FIG1_QUERY};
use crate::table::{f, TableBuilder};

// ---------------------------------------------------------------------------
// F1 — Figure 1: federated decomposition of the demo query
// ---------------------------------------------------------------------------

/// Reproduce Figure 1: parse the paper's query, run the federated
/// optimizer, print the partitioned plan (view SQL + rewritten query +
/// candidate costs + the executable stream plan tree).
pub fn f1() -> String {
    let cat = smartcis_catalog(4, 60, 6, 0.05);
    let graph = fig1_graph(&cat);
    let plan = optimize(&graph, &cat).expect("fig1 optimizes");
    let mut out = String::new();
    out.push_str("F1 — Figure 1 reproduction: federated plan partitioning\n");
    out.push_str("original query:\n");
    out.push_str(FIG1_QUERY.trim());
    out.push_str("\n\n");
    out.push_str(&plan.explain());
    out.push_str("\nexecutable stream plan:\n");
    out.push_str(&printer::explain(&plan.stream_plan));
    out
}

// ---------------------------------------------------------------------------
// F2 — Figure 2: GUI screenshot
// ---------------------------------------------------------------------------

/// Reproduce Figure 2: run the live SmartCIS app, place a visitor asking
/// for Fedora, and render the GUI (layout, open/closed labs, free/busy
/// machines, route to the nearest matching machine).
pub fn f2() -> String {
    let mut app = SmartCis::new(3, 6, 20260611).expect("app builds");
    for _ in 0..4 {
        app.tick().expect("tick");
    }
    app.set_visitor(1, "entrance", "Fedora").expect("visitor");
    let (explain, rows) = app.visitor_guidance().expect("guidance");
    let mut state = app.gui_state();
    if let Some(best) = rows.first() {
        state.details.push(format!(
            "nearest machine with Fedora: room {} desk {} — path: {}",
            best.get(1).render(),
            best.get(2).render(),
            best.get(3).render()
        ));
    }
    state.details.push(format!("guidance rows: {}", rows.len()));
    let mut out = String::new();
    out.push_str("F2 — Figure 2 reproduction: SmartCIS GUI\n");
    out.push_str(&gui::render(&app.building, &state));
    out.push_str("\nfederated plan used:\n");
    out.push_str(&explain);
    out
}

// ---------------------------------------------------------------------------
// E3 — in-network join placement
// ---------------------------------------------------------------------------

/// One strategy's measured radio traffic on a shared deployment.
pub struct JoinRun {
    pub strategy: String,
    pub msgs: u64,
    pub joules: f64,
    pub outputs: usize,
}

/// Run the four join strategies on one deployment (identical readings).
pub fn e3_runs(desks: usize, occupancy: f64, epochs: u32, seed: u64) -> Vec<JoinRun> {
    let mut deployment = Deployment::lab_wing(4, desks, 80.0);
    // Heterogeneous desks: alternating light/temp sampling rates; the
    // rate asymmetry is what per-sensor placement exploits.
    for (i, desk) in deployment.desk_ids().into_iter().enumerate() {
        let (lp, tp) = match i % 3 {
            0 => (1, 3),
            1 => (3, 1),
            _ => (1, 1),
        };
        deployment.set_desk_model(desk, occupancy, lp, tp);
    }
    let engine = SensorEngine::new(deployment, RadioModel::lossless(), seed);
    let desk_ids = engine.deployment.desk_ids();

    let mut runs = Vec::new();
    for (name, strategy) in [
        ("ship-to-base", JoinStrategy::AtBase),
        ("in-net @temp", JoinStrategy::AtTemp),
        ("in-net @light", JoinStrategy::AtLight),
    ] {
        let spec = QuerySpec::uniform_join(LIGHT_THRESHOLD, strategy, &desk_ids);
        let r = engine.run(spec, epochs).expect("join run");
        runs.push(JoinRun {
            strategy: name.to_string(),
            msgs: r.stats.msgs_sent,
            joules: r.stats.total_energy_j(),
            outputs: r.tuples.len(),
        });
    }
    // Per-sensor adaptive placement (the paper's novelty): observe, then
    // choose per desk.
    let stats = engine.measure_desk_stats(10).expect("observe");
    let placement = placement_table(&stats);
    let spec = QuerySpec::Join {
        threshold: LIGHT_THRESHOLD,
        placement,
    };
    let r = engine.run(spec, epochs).expect("adaptive run");
    runs.push(JoinRun {
        strategy: "per-sensor".to_string(),
        msgs: r.stats.msgs_sent,
        joules: r.stats.total_energy_j(),
        outputs: r.tuples.len(),
    });
    runs
}

/// E3 table: strategies × occupancy levels.
pub fn e3() -> String {
    let mut out = String::from(
        "E3 — in-network join vs. base join, per-sensor placement\n\
         (48 desks, 20 epochs, lossless radio, mixed sampling rates)\n",
    );
    let mut t = TableBuilder::new(&[
        "occupancy",
        "strategy",
        "radio msgs",
        "joules",
        "join outputs",
    ]);
    for occupancy in [0.05, 0.2, 0.5, 0.9] {
        for run in e3_runs(48, occupancy, 20, 42) {
            t.row(&[
                f(occupancy, 2),
                run.strategy,
                run.msgs.to_string(),
                f(run.joules, 3),
                run.outputs.to_string(),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E4 — in-network aggregation
// ---------------------------------------------------------------------------

pub struct AggRun {
    pub desks: usize,
    pub collect_msgs: u64,
    pub tag_msgs: u64,
}

pub fn e4_run(desks: usize, epochs: u32, seed: u64) -> AggRun {
    let deployment = Deployment::lab_wing(4, desks, 80.0);
    let engine = SensorEngine::new(deployment, RadioModel::lossless(), seed);
    let collect = engine
        .run(
            QuerySpec::Collect {
                attr: aspen_sensor::DeviceAttr::Temp,
                selection: None,
            },
            epochs,
        )
        .expect("collect");
    let tag = engine
        .run(
            QuerySpec::Aggregate {
                func: AggFunc::Avg,
                attr: aspen_sensor::DeviceAttr::Temp,
            },
            epochs,
        )
        .expect("tag");
    AggRun {
        desks,
        collect_msgs: collect.stats.msgs_sent,
        tag_msgs: tag.stats.msgs_sent,
    }
}

pub fn e4() -> String {
    let mut out =
        String::from("E4 — TAG in-network aggregation vs. raw collection (AVG temp, 20 epochs)\n");
    let mut t = TableBuilder::new(&["desks", "collect msgs", "TAG msgs", "savings"]);
    for desks in [8, 16, 32, 64] {
        let r = e4_run(desks, 20, 7);
        t.row(&[
            r.desks.to_string(),
            r.collect_msgs.to_string(),
            r.tag_msgs.to_string(),
            format!("{:.1}x", r.collect_msgs as f64 / r.tag_msgs.max(1) as f64),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E5 — federated optimizer sweep
// ---------------------------------------------------------------------------

pub fn e5() -> String {
    let mut out =
        String::from("E5 — federated optimizer: partitioning decision vs. network shape\n");
    let mut t = TableBuilder::new(&[
        "desks",
        "diameter",
        "loss",
        "chosen fragment",
        "sensor msgs",
        "stream ms",
        "total units",
        "no-push units",
    ]);
    for desks in [16u32, 60, 120] {
        for diameter in [2u32, 6, 12] {
            for loss in [0.0, 0.2] {
                let cat = smartcis_catalog(4, desks, diameter, loss);
                let g = fig1_graph(&cat);
                let plan = optimize(&g, &cat).expect("optimizes");
                let chosen = plan
                    .candidates
                    .iter()
                    .find(|c| c.chosen)
                    .expect("one chosen");
                let no_push = plan
                    .candidates
                    .iter()
                    .find(|c| c.fragment.is_empty())
                    .expect("no-push candidate");
                t.row(&[
                    desks.to_string(),
                    diameter.to_string(),
                    f(loss, 1),
                    format!("{:?}", chosen.fragment),
                    f(chosen.sensor_msgs, 1),
                    f(chosen.stream_latency_sec * 1e3, 3),
                    f(chosen.total_units, 2),
                    f(no_push.total_units, 2),
                ]);
            }
        }
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E6 — recursive view maintenance vs recomputation
// ---------------------------------------------------------------------------

pub struct E6Run {
    pub points: usize,
    pub churn_ops: usize,
    pub incremental_ms: f64,
    pub recompute_ms: f64,
    pub overdeleted: u64,
    pub rederived: u64,
}

fn edge_tuple(a: &str, b: &str) -> Tuple {
    Tuple::new(
        vec![Value::Text(a.into()), Value::Text(b.into())],
        SimTime::ZERO,
    )
}

pub fn e6_run(labs: usize, churn_ops: usize, seed: u64) -> E6Run {
    use aspen_catalog::{Catalog, SourceKind, SourceStats};
    use aspen_types::{DataType, Field, Schema};
    let building = Building::moore_wing(labs, 2, 100.0);
    let cat = Catalog::new();
    let schema = Schema::new(vec![
        Field::new("src", DataType::Text),
        Field::new("dst", DataType::Text),
    ])
    .into_ref();
    cat.register_source(
        "RoutePoints",
        schema,
        SourceKind::Table,
        SourceStats::table((building.segments.len() * 2) as u64),
    )
    .unwrap();
    let sql = "create recursive view Reachable as ( \
               select e.src, e.dst from RoutePoints e \
               union \
               select r.src, e.dst from Reachable r, RoutePoints e where r.dst = e.src )";
    let BoundQuery::View(v) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
        panic!()
    };
    let mut view = RecursiveView::new(&v).unwrap();
    let src_id = cat.source("RoutePoints").unwrap().id;

    // Seed the full graph (both directions).
    let mut inserts = DeltaBatch::new();
    for s in &building.segments {
        inserts.push(Delta::insert(edge_tuple(&s.a, &s.b)));
        inserts.push(Delta::insert(edge_tuple(&s.b, &s.a)));
    }
    view.on_base_deltas(src_id, &inserts).unwrap();

    // Churn: delete + re-insert random segments, timing the incremental
    // path and a full recompute per operation.
    let mut rng = seeded(seed);
    let mut incremental = 0.0;
    let mut recompute = 0.0;
    for _ in 0..churn_ops {
        let s = &building.segments[rng.gen_range(0..building.segments.len())];
        let del = DeltaBatch::from(vec![
            Delta::retract(edge_tuple(&s.a, &s.b)),
            Delta::retract(edge_tuple(&s.b, &s.a)),
        ]);
        let start = Instant::now();
        view.on_base_deltas(src_id, &del).unwrap();
        incremental += start.elapsed().as_secs_f64() * 1e3;
        let ins = DeltaBatch::from(vec![
            Delta::insert(edge_tuple(&s.a, &s.b)),
            Delta::insert(edge_tuple(&s.b, &s.a)),
        ]);
        let start = Instant::now();
        view.on_base_deltas(src_id, &ins).unwrap();
        incremental += start.elapsed().as_secs_f64() * 1e3;

        let start = Instant::now();
        view.recompute().unwrap();
        recompute += start.elapsed().as_secs_f64() * 1e3;
    }
    E6Run {
        points: building.points.len(),
        churn_ops: churn_ops * 2,
        incremental_ms: incremental,
        recompute_ms: recompute * 2.0, // recompute must run per change too
        overdeleted: view.stats.tuples_overdeleted,
        rederived: view.stats.tuples_rederived,
    }
}

pub fn e6() -> String {
    let mut out = String::from(
        "E6 — recursive route view: incremental (provenance DRed) vs full recompute\n",
    );
    let mut t = TableBuilder::new(&[
        "routing pts",
        "changes",
        "incr total ms",
        "recompute total ms",
        "speedup",
        "overdeleted",
        "rederived",
    ]);
    for labs in [3usize, 6, 12] {
        let r = e6_run(labs, 12, 5);
        t.row(&[
            r.points.to_string(),
            r.churn_ops.to_string(),
            f(r.incremental_ms, 2),
            f(r.recompute_ms, 2),
            format!("{:.1}x", r.recompute_ms / r.incremental_ms.max(1e-9)),
            r.overdeleted.to_string(),
            r.rederived.to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E7 — end-to-end SmartCIS
// ---------------------------------------------------------------------------

pub fn e7() -> String {
    let mut out =
        String::from("E7 — end-to-end SmartCIS: visitor guidance refreshed every epoch\n");
    let mut t = TableBuilder::new(&[
        "labs",
        "desks",
        "ticks",
        "mean tick ms",
        "mean guidance ms",
        "mean rows",
        "ops invoked",
    ]);
    for (labs, desks_per_lab) in [(3usize, 6usize), (6, 8), (8, 12)] {
        let mut app = SmartCis::new(labs, desks_per_lab, 99).expect("app");
        app.set_visitor(1, "entrance", "Fedora").expect("visitor");
        let ticks = 20;
        let mut tick_ms = 0.0;
        let mut guide_ms = 0.0;
        let mut rows_total = 0usize;
        for _ in 0..ticks {
            let s = Instant::now();
            app.tick().expect("tick");
            tick_ms += s.elapsed().as_secs_f64() * 1e3;
            let s = Instant::now();
            let (_, rows) = app.visitor_guidance().expect("guidance");
            guide_ms += s.elapsed().as_secs_f64() * 1e3;
            rows_total += rows.len();
        }
        t.row(&[
            labs.to_string(),
            (labs * desks_per_lab).to_string(),
            ticks.to_string(),
            f(tick_ms / ticks as f64, 3),
            f(guide_ms / ticks as f64, 3),
            f(rows_total as f64 / ticks as f64, 1),
            app.engine.total_ops_invoked().to_string(),
        ]);
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E8 — localization accuracy
// ---------------------------------------------------------------------------

pub fn e8() -> String {
    let mut out = String::from(
        "E8 — RFID localization error vs detector spacing and link loss\n\
         (450 ft hallway walk, beacon every 5 s)\n",
    );
    let mut t = TableBuilder::new(&[
        "spacing ft",
        "loss",
        "beacons heard",
        "missed",
        "mean err ft",
        "p95 err ft",
    ]);
    for spacing in [50.0, 100.0, 150.0] {
        for loss in [0.0, 0.15, 0.4] {
            let labs = (450.0 / spacing) as usize;
            let building = Building::moore_wing(labs.max(2), 2, spacing);
            let radio = RadioModel {
                range_ft: 160.0,
                base_loss: loss,
                edge_loss: 0.0,
                ..RadioModel::default()
            };
            let mut loc = Localizer::new(&building, radio, 31);
            let mut errs = Vec::new();
            let mut missed = 0u32;
            // Walk the hallway at 4 ft/s, beacon every 5 s.
            let total_s = (building.hallway_len / 4.0) as u64;
            for sec in (0..total_s).step_by(5) {
                let truth = Point::new(4.0 * sec as f64, 0.0);
                match loc.localize(truth, SimTime::from_secs(sec)) {
                    Some((_, e)) => errs.push(e),
                    None => missed += 1,
                }
            }
            errs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mean = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
            let p95 = errs
                .get((errs.len() as f64 * 0.95) as usize)
                .copied()
                .unwrap_or(0.0);
            t.row(&[
                f(spacing, 0),
                f(loss, 2),
                errs.len().to_string(),
                missed.to_string(),
                f(mean, 1),
                f(p95, 1),
            ]);
        }
    }
    out.push_str(&t.render());
    out
}

// ---------------------------------------------------------------------------
// E9 — cost-normalization ablation
// ---------------------------------------------------------------------------

pub fn e9() -> String {
    let mut out = String::from(
        "E9 — ablation: federated cost normalization on vs off\n\
         Part A: candidate-margin distortion on the Figure-1 workload.\n\
         (Here in-network join wins by >10x in every cell, so the *choice*\n\
         is robust; what the ablation corrupts is the cost scale any\n\
         closer call would be decided on.)\n",
    );
    let mut t = TableBuilder::new(&[
        "desks",
        "diameter",
        "choice",
        "norm margin",
        "ablated margin",
        "distortion",
    ]);
    for desks in [16u32, 60, 120] {
        for diameter in [2u32, 6, 12] {
            let cat = smartcis_catalog(4, desks, diameter, 0.05);
            let g = fig1_graph(&cat);
            let normal = optimize(&g, &cat).expect("normal");
            let mut params = cat.cost_params();
            params.normalization_enabled = false;
            cat.set_cost_params(params);
            let ablated = optimize(&g, &cat).expect("ablated");
            let margin = |p: &aspen_optimizer::FederatedPlan| -> f64 {
                let chosen = p.candidates.iter().find(|c| c.chosen).expect("chosen");
                let runner_up = p
                    .candidates
                    .iter()
                    .filter(|c| !c.chosen && c.total_units.is_finite())
                    .map(|c| c.total_units)
                    .fold(f64::INFINITY, f64::min);
                runner_up / chosen.total_units.max(1e-9)
            };
            let nm = margin(&normal);
            let am = margin(&ablated);
            let chosen = normal
                .candidates
                .iter()
                .find(|c| c.chosen)
                .map(|c| format!("{:?}", c.fragment))
                .unwrap_or_default();
            t.row(&[
                desks.to_string(),
                diameter.to_string(),
                chosen,
                format!("{nm:.1}x"),
                format!("{am:.1}x"),
                format!("{:.1}x", (nm / am).max(am / nm)),
            ]);
        }
    }
    out.push_str(&t.render());

    // Part B: a direct inversion. Two subplans — one message-heavy
    // (sensor-side) and one latency-heavy (stream-side) — whose correct
    // order the raw-unit sum gets backwards.
    out.push_str("\nPart B: cost-order inversion on a candidate pair\n");
    let normalized = aspen_catalog::CostModelParams::default();
    let ablated = aspen_catalog::CostModelParams {
        normalization_enabled: false,
        ..Default::default()
    };
    // Candidate X: 200 radio msgs/epoch, 1 ms latency.
    // Candidate Y: 20 radio msgs/epoch, 50 ms latency.
    // At 1 unit/msg and 100 units/s, X = 200.1 vs Y = 25 → Y is correct
    // (an interactive display tolerates 50 ms; motes die of 200 msgs).
    let x_n = normalized.from_messages(200.0) + normalized.from_stream_cost(0.001, 0.0, 0.0);
    let y_n = normalized.from_messages(20.0) + normalized.from_stream_cost(0.050, 0.0, 0.0);
    let x_a = ablated.from_messages(200.0) + ablated.from_stream_cost(0.001, 0.0, 0.0);
    let y_a = ablated.from_messages(20.0) + ablated.from_stream_cost(0.050, 0.0, 0.0);
    let mut t2 = TableBuilder::new(&["model", "X (200msg,1ms)", "Y (20msg,50ms)", "picks"]);
    t2.row(&[
        "normalized".into(),
        f(x_n.units, 1),
        f(y_n.units, 1),
        if y_n.units < x_n.units {
            "Y (correct)"
        } else {
            "X"
        }
        .into(),
    ]);
    t2.row(&[
        "ablated".into(),
        f(x_a.units, 1),
        f(y_a.units, 1),
        if y_a.units < x_a.units {
            "Y"
        } else {
            "X (INVERTED)"
        }
        .into(),
    ]);
    out.push_str(&t2.render());
    out
}

// ---------------------------------------------------------------------------
// E10 — robustness under loss and node failure
// ---------------------------------------------------------------------------

pub fn e10() -> String {
    let mut out = String::from(
        "E10 — result completeness under link loss and mote failure\n\
         (32 desks, in-network join @temp, 20 epochs; baseline = lossless outputs)\n",
    );
    let mut t = TableBuilder::new(&[
        "link loss",
        "killed motes",
        "msgs sent",
        "dropped",
        "drop rate",
        "outputs",
        "completeness",
    ]);
    // Lossless baseline output count.
    let baseline = e10_run(0.0, 0, 21);
    for loss in [0.0, 0.1, 0.2, 0.35, 0.5] {
        let r = e10_run(loss, 0, 21);
        t.row(&e10_row(loss, 0, &r, baseline.3));
    }
    for killed in [2usize, 6] {
        let r = e10_run(0.05, killed, 21);
        t.row(&e10_row(0.05, killed, &r, baseline.3));
    }
    out.push_str(&t.render());
    out
}

fn e10_run(loss: f64, kill: usize, seed: u64) -> (u64, u64, f64, usize) {
    let deployment = Deployment::lab_wing(4, 32, 80.0);
    let desk_ids = deployment.desk_ids();
    let radio = RadioModel {
        base_loss: loss,
        edge_loss: 0.0,
        ..RadioModel::default()
    };
    let mut engine = SensorEngine::new(deployment, radio, seed);
    // Uniform occupancy so outputs are comparable.
    for d in engine.deployment.desk_ids() {
        engine.deployment.set_desk_model(d, 0.5, 1, 1);
    }
    let spec = QuerySpec::uniform_join(LIGHT_THRESHOLD, JoinStrategy::AtTemp, &desk_ids);
    // Kill motes mid-run by shrinking batteries on a few devices: we
    // emulate failure by removing desks from the placement instead —
    // the run API has no kill hook, so kill = drop the first `kill`
    // desks' temp motes from sampling via occupancy 0 and light period
    // huge (they go silent).
    for d in engine.deployment.desk_ids().into_iter().take(kill) {
        engine
            .deployment
            .set_desk_model(d, 0.0, 1_000_000, 1_000_000);
    }
    let r = engine.run(spec, 20).expect("run");
    (
        r.stats.msgs_sent,
        r.stats.msgs_dropped,
        r.stats.msgs_dropped as f64 / r.stats.msgs_sent.max(1) as f64,
        r.tuples.len(),
    )
}

fn e10_row(
    loss: f64,
    killed: usize,
    r: &(u64, u64, f64, usize),
    baseline_outputs: usize,
) -> Vec<String> {
    vec![
        f(loss, 2),
        killed.to_string(),
        r.0.to_string(),
        r.1.to_string(),
        f(r.2, 3),
        r.3.to_string(),
        f(r.3 as f64 / baseline_outputs.max(1) as f64, 3),
    ]
}

// ---------------------------------------------------------------------------

/// Run every experiment, concatenated (the full harness output).
pub fn run_all() -> String {
    let sections = [f1(), f2(), e3(), e4(), e5(), e6(), e7(), e8(), e9(), e10()];
    let mut out = String::new();
    for s in sections {
        out.push_str(&s);
        out.push_str("\n----------------------------------------------------------------\n\n");
    }
    out
}

/// Map experiment names to runners (harness CLI).
pub fn by_name(name: &str) -> Option<String> {
    Some(match name.to_ascii_lowercase().as_str() {
        "f1" => f1(),
        "f2" => f2(),
        "e3" => e3(),
        "e4" => e4(),
        "e5" => e5(),
        "e6" => e6(),
        "e7" => e7(),
        "e8" => e8(),
        "e9" => e9(),
        "e10" => e10(),
        "all" => run_all(),
        _ => return None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_in_network_beats_base_at_low_occupancy() {
        let runs = e3_runs(16, 0.05, 10, 3);
        let base = runs.iter().find(|r| r.strategy == "ship-to-base").unwrap();
        let adaptive = runs.iter().find(|r| r.strategy == "per-sensor").unwrap();
        assert!(
            adaptive.msgs < base.msgs,
            "adaptive {} !< base {}",
            adaptive.msgs,
            base.msgs
        );
    }

    #[test]
    fn e3_per_sensor_at_least_matches_best_uniform() {
        let runs = e3_runs(24, 0.3, 15, 11);
        let best_uniform = runs
            .iter()
            .filter(|r| r.strategy != "per-sensor")
            .map(|r| r.msgs)
            .min()
            .unwrap();
        let adaptive = runs.iter().find(|r| r.strategy == "per-sensor").unwrap();
        // Allow a small tolerance: the adaptive run pays probe traffic on
        // mixed placements.
        assert!(
            (adaptive.msgs as f64) < best_uniform as f64 * 1.15,
            "adaptive {} vs best uniform {}",
            adaptive.msgs,
            best_uniform
        );
    }

    #[test]
    fn e4_tag_savings_grow_with_fleet() {
        let small = e4_run(8, 10, 1);
        let big = e4_run(64, 10, 1);
        let s_small = small.collect_msgs as f64 / small.tag_msgs.max(1) as f64;
        let s_big = big.collect_msgs as f64 / big.tag_msgs.max(1) as f64;
        assert!(s_big >= s_small, "savings {s_small} -> {s_big}");
        assert!(small.tag_msgs < small.collect_msgs);
    }

    #[test]
    fn e6_incremental_beats_recompute() {
        let r = e6_run(6, 6, 2);
        assert!(
            r.incremental_ms < r.recompute_ms,
            "incr {} !< recompute {}",
            r.incremental_ms,
            r.recompute_ms
        );
    }

    #[test]
    fn e10_loss_degrades_completeness() {
        let clean = e10_run(0.0, 0, 5);
        let lossy = e10_run(0.5, 0, 5);
        assert!(lossy.3 < clean.3, "outputs {} !< {}", lossy.3, clean.3);
        assert!(lossy.2 > clean.2, "drop rate {} !> {}", lossy.2, clean.2);
    }

    #[test]
    fn harness_sections_render() {
        // Cheap smoke tests for the report generators that are fast.
        assert!(f1().contains("OpenMachineInfo"));
        assert!(e4().contains("TAG"));
        assert!(by_name("nope").is_none());
        assert!(by_name("E4").is_some());
    }
}
