//! The stream engine's sub-optimizer: cardinality estimation and an
//! analytic cost model in the engine's native currency — **latency to
//! answers** (plus CPU work and LAN bytes, which the federated layer
//! folds into the normalized unit).
//!
//! Since the telemetry subsystem landed, two runtime feedback paths end
//! here: cardinality estimation prefers the catalog's telemetry-observed
//! source rates over declared ones
//! ([`aspen_catalog::SourceStats::effective_rate_hz`]), and the
//! **output-batch-overhead term** ([`delivery_overhead_ops`]) prices
//! what it costs to move results out of the engine under the per-query
//! `max_batch` / `max_delay` micro-batch knobs — which lets
//! [`choose_knobs`] pick those knobs from measured rates instead of
//! leaving them to clients (the engine's `auto_tune` loop calls it with
//! per-query telemetry).

use aspen_catalog::SourceKind;
use aspen_sql::ast::CmpOp;
use aspen_sql::expr::BoundExpr;
use aspen_sql::plan::LogicalPlan;
use aspen_types::WindowSpec;

/// A stream-side subplan cost in native units.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StreamCost {
    /// Estimated operator work per epoch (tuples touched).
    pub cpu_ops: f64,
    /// Bytes shipped over the LAN from remote wrappers per epoch.
    pub lan_bytes: f64,
    /// Expected latency from source tuple to answer, seconds.
    pub latency_sec: f64,
    /// Estimated output cardinality (tuples live in the result).
    pub out_card: f64,
    /// Output-batch overhead, CPU ops per second: the cost of moving
    /// results out of the engine under the query's delivery mode and
    /// micro-batch knobs. Zero unless costed through
    /// [`estimate_plan_with_delivery`].
    pub delivery_ops_per_sec: f64,
}

/// Per-tuple processing cost assumptions (calibrated against the local
/// pipeline executor).
pub(crate) const CPU_OPS_PER_SEC: f64 = 50_000_000.0;
const LAN_HOP_SEC: f64 = 200e-6;
pub(crate) const BYTES_PER_TUPLE: f64 = 48.0;

/// Delivery-side cost constants, in the same CPU-op currency as
/// `cpu_ops` (one op ≈ one delta through one operator ≈ 20 ns at
/// `CPU_OPS_PER_SEC`). Calibrated on a measured 50-query fan-out
/// (20 000 tuples, 79 boundaries): polling every query at every
/// boundary cost ~1.2 s of wall time for ~6.6 M polled rows (~8 ops per
/// row), while eager push delivery cost ~75 ms for ~4 k batches /
/// ~229 k deltas (~5 µs per batch + ~0.16 µs per delta). With these
/// rates the model reproduces the measured ~16× poll-vs-push overhead
/// gap — unit tests in this module pin the knob extremes against those
/// ratios.
pub const POLL_OPS_PER_ROW: f64 = 8.0;
pub const PUSH_OPS_PER_BATCH: f64 = 250.0;
pub const PUSH_OPS_PER_DELTA: f64 = 8.0;

/// How a query's results leave the engine, for delivery costing.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeliverySpec {
    /// Push subscription (false = the client snapshot-polls at every
    /// batch boundary).
    pub push: bool,
    /// Cap on deltas per delivered batch (chunking floor).
    pub max_batch: Option<usize>,
    /// Coalescing hold across batch boundaries, seconds.
    pub max_delay_sec: Option<f64>,
}

/// The output-batch-overhead term: CPU ops per second spent delivering
/// one query's results, as a function of its output-delta rate, its
/// live result cardinality, the engine's batch-boundary rate, and the
/// micro-batch knobs.
///
/// Poll mode re-reads the whole snapshot every boundary. Push mode pays
/// a fixed cost per delivered batch plus a per-delta cost; the knobs
/// move the batch rate — `max_delay` coalesces it down toward `1/delay`,
/// `max_batch` chunks it up to at least `rate/max_batch` (a `max_batch`
/// of 1 degenerates to one batch per delta, which is why it prices like
/// per-boundary polling).
pub fn delivery_overhead_ops(
    out_rate_hz: f64,
    out_card: f64,
    boundary_hz: f64,
    spec: &DeliverySpec,
) -> f64 {
    if !spec.push {
        return boundary_hz * out_card * POLL_OPS_PER_ROW;
    }
    // Eager push: one batch per non-empty boundary.
    let mut batches_hz = boundary_hz.min(out_rate_hz);
    if let Some(d) = spec.max_delay_sec {
        if d > 0.0 {
            batches_hz = batches_hz.min(1.0 / d);
        }
    }
    if let Some(m) = spec.max_batch {
        batches_hz = batches_hz.max(out_rate_hz / m.max(1) as f64);
    }
    batches_hz * PUSH_OPS_PER_BATCH + out_rate_hz * PUSH_OPS_PER_DELTA
}

/// Pick `(max_batch, max_delay_sec)` for a push query from measured
/// rates: coalesce for the full latency budget (fewer, denser batches —
/// the cost model above is monotone in the batch rate), with `max_batch`
/// sized to one budget's worth of output so bursts release the hold
/// early instead of growing without bound. Returns `(None, None)` —
/// eager delivery — when the budget buys nothing because boundaries
/// already arrive more slowly than the budget.
pub fn choose_knobs(
    out_rate_hz: f64,
    boundary_hz: f64,
    latency_budget_sec: f64,
) -> (Option<usize>, Option<f64>) {
    if latency_budget_sec <= 0.0 {
        return (None, None);
    }
    if boundary_hz > 0.0 && latency_budget_sec <= 1.0 / boundary_hz {
        // Boundaries are already sparser than the budget: a hold would
        // never span more than one boundary, so coalescing cannot help.
        return (None, None);
    }
    // A cap below 2 would release the hold on every delta — the pessimal
    // per-delta delivery the knob-extreme tests price out. Queries too
    // cold to fill a 2-delta batch within the budget coalesce purely by
    // delay.
    let batch = (out_rate_hz * latency_budget_sec).ceil() as usize;
    let max_batch = (batch >= 2).then_some(batch.min(4096));
    (max_batch, Some(latency_budget_sec))
}

/// Estimate the live cardinality of a plan node (tuples in window for
/// streams, rows for tables).
pub fn estimate_cardinality(plan: &LogicalPlan) -> f64 {
    let inputs: Vec<f64> = plan
        .children()
        .into_iter()
        .map(estimate_cardinality)
        .collect();
    node_cardinality(plan, &inputs)
}

/// One operator's live cardinality, given its inputs' (in
/// [`LogicalPlan::children`] order).
pub(crate) fn node_cardinality(plan: &LogicalPlan, inputs: &[f64]) -> f64 {
    match plan {
        LogicalPlan::Scan { rel } => scan_cardinality(rel),
        LogicalPlan::Filter { predicate, .. } => inputs[0] * predicate_selectivity(predicate),
        LogicalPlan::Project { .. } | LogicalPlan::Sort { .. } | LogicalPlan::Output { .. } => {
            inputs[0]
        }
        LogicalPlan::Limit { n, .. } => inputs[0].min(*n as f64),
        LogicalPlan::Join { keys, residual, .. } => {
            join_cardinality(inputs[0], inputs[1], keys.len(), residual.is_some())
        }
        LogicalPlan::Aggregate { group, .. } => {
            if group.is_empty() {
                1.0
            } else {
                // A fifth of the input, but at least one group (also over
                // an input estimated below one row).
                (inputs[0] / 5.0).max(1.0)
            }
        }
        LogicalPlan::Union { .. } => inputs.iter().sum(),
        LogicalPlan::RecursiveRef { .. } => 500.0,
    }
}

/// A join's live cardinality: the cross product, divided by 20 per hash
/// key (the classic equi-join selectivity 1/max(d1, d2); distinct counts
/// are buried in source stats we no longer see here, so a domain-size
/// default), halved once if any residual remains, and never below one
/// tuple. A join without keys is a cross product at full cardinality.
pub(crate) fn join_cardinality(left: f64, right: f64, keys: usize, residual: bool) -> f64 {
    let mut card = left * right;
    for _ in 0..keys {
        card /= 20.0;
    }
    if residual {
        card *= 0.5;
    }
    card.max(1.0)
}

/// The operator work one node adds per epoch, given its inputs'
/// cardinalities and its own.
pub(crate) fn node_ops(plan: &LogicalPlan, inputs: &[f64], card: f64) -> f64 {
    match plan {
        LogicalPlan::Scan { .. } => card,
        LogicalPlan::Filter { .. } | LogicalPlan::Project { .. } => inputs[0],
        // Symmetric hash join: each input tuple probes + inserts, plus
        // output materialization.
        LogicalPlan::Join { .. } => inputs[0] + inputs[1] + card,
        LogicalPlan::Aggregate { .. } => inputs[0] * 2.0,
        LogicalPlan::Sort { .. } => {
            let n = inputs[0].max(2.0);
            n * n.log2()
        }
        LogicalPlan::Union { .. }
        | LogicalPlan::Limit { .. }
        | LogicalPlan::Output { .. }
        | LogicalPlan::RecursiveRef { .. } => 0.0,
    }
}

/// Live cardinality of one scanned relation (tuples in window for
/// streams, rows for tables).
pub(crate) fn scan_cardinality(rel: &aspen_sql::plan::Relation) -> f64 {
    let stats = &rel.meta.stats;
    match &rel.meta.kind {
        SourceKind::Table => stats.row_count.unwrap_or(1000) as f64,
        SourceKind::View => stats.row_count.unwrap_or(500) as f64,
        SourceKind::Stream | SourceKind::Device(_) => {
            // Telemetry-observed rates, when the running engine has
            // published them, beat registration-time guesses.
            let rate = stats.effective_rate_hz().unwrap_or(1.0);
            match rel.window {
                WindowSpec::Range(d) | WindowSpec::Tumbling(d) => (rate * d.as_secs_f64()).max(1.0),
                WindowSpec::Rows(n) => n as f64,
                WindowSpec::Unbounded => rate * 3600.0, // an hour of history
            }
        }
    }
}

pub(crate) fn predicate_selectivity(p: &BoundExpr) -> f64 {
    match p {
        BoundExpr::Cmp { op, .. } => match op {
            CmpOp::Eq => 0.1,
            CmpOp::Neq => 0.9,
            _ => 1.0 / 3.0,
        },
        BoundExpr::Like { .. } => 0.25,
        BoundExpr::And(l, r) => predicate_selectivity(l) * predicate_selectivity(r),
        BoundExpr::Or(l, r) => {
            let a = predicate_selectivity(l);
            let b = predicate_selectivity(r);
            (a + b - a * b).min(1.0)
        }
        BoundExpr::Not(e) => 1.0 - predicate_selectivity(e),
        _ => 0.5,
    }
}

/// Cost a stream-side plan: work per epoch, LAN traffic, latency.
/// Uses the static `CPU_OPS_PER_SEC` calibration; see
/// [`estimate_plan_with_rate`] for the measured-rate variant.
pub fn estimate_plan(plan: &LogicalPlan) -> StreamCost {
    estimate_plan_with_rate(plan, CPU_OPS_PER_SEC)
}

/// [`estimate_plan`] with an explicit CPU throughput, in operator
/// invocations per second. The trace plane's measured-cost profiling
/// (`TelemetryReport::ops_per_sec_observed`, published to the catalog
/// via `Catalog::record_observed_op_rate`) feeds this: a host slower or
/// faster than the static 50 M ops/s calibration shifts the CPU share
/// of `latency_sec` proportionally, so plan choices that trade LAN hops
/// against local work re-rank on the machine actually running them.
pub fn estimate_plan_with_rate(plan: &LogicalPlan, cpu_ops_per_sec: f64) -> StreamCost {
    let rate = if cpu_ops_per_sec.is_finite() && cpu_ops_per_sec > 0.0 {
        cpu_ops_per_sec
    } else {
        CPU_OPS_PER_SEC
    };
    let mut cost = StreamCost::default();
    cost.out_card = accumulate(plan, &mut cost);
    cost.latency_sec = latency_sec(plan.scans().len(), cost.cpu_ops, rate);
    cost
}

/// Latency: the critical path is one LAN hop per remote scan (they ship
/// in parallel, so we charge the max — approximated by one hop) plus CPU
/// time for the per-epoch work.
pub(crate) fn latency_sec(scans: usize, cpu_ops: f64, cpu_ops_per_sec: f64) -> f64 {
    LAN_HOP_SEC * (scans.max(1) as f64).log2().max(1.0) + cpu_ops / cpu_ops_per_sec
}

/// [`estimate_plan`] calibrated by the catalog: when a measured
/// operator rate has been published (`Catalog::record_observed_op_rate`
/// from the trace plane's `OpProfile` timings), it replaces the static
/// `CPU_OPS_PER_SEC` constant; otherwise the static calibration
/// applies unchanged.
pub fn estimate_plan_calibrated(
    plan: &LogicalPlan,
    catalog: &aspen_catalog::Catalog,
) -> StreamCost {
    estimate_plan_with_rate(plan, catalog.observed_op_rate().unwrap_or(CPU_OPS_PER_SEC))
}

/// Estimated output-delta rate of a plan: the total stream-scan arrival
/// rate scaled by the plan's steady-state output/input cardinality
/// ratio. In steady state each arriving tuple (and its later expiry)
/// churns its proportional share of the maintained result, so the ratio
/// both thins (filters, aggregates, < 1) and *amplifies* (joins — one
/// arrival can match many window partners, > 1). Tables contribute no
/// churn.
pub fn estimate_output_rate(plan: &LogicalPlan) -> f64 {
    let mut in_rate = 0.0;
    let mut in_card = 0.0;
    for rel in plan.scans() {
        in_card += scan_cardinality(rel);
        if rel.meta.kind.is_stream_like() {
            in_rate += rel.meta.stats.effective_rate_hz().unwrap_or(1.0);
        }
    }
    if in_rate == 0.0 || in_card <= 0.0 {
        return 0.0;
    }
    in_rate * (estimate_cardinality(plan) / in_card)
}

/// [`estimate_plan`] plus the output-batch-overhead term: the delivery
/// cost joins `cpu_ops` (so the federated normalization prices it) and
/// the expected coalescing hold joins the latency.
pub fn estimate_plan_with_delivery(
    plan: &LogicalPlan,
    boundary_hz: f64,
    spec: &DeliverySpec,
) -> StreamCost {
    let mut cost = estimate_plan(plan);
    let out_rate = estimate_output_rate(plan);
    cost.delivery_ops_per_sec = delivery_overhead_ops(out_rate, cost.out_card, boundary_hz, spec);
    // Charge one epoch's worth of delivery work alongside the per-epoch
    // operator work (epoch ≈ one boundary interval).
    if boundary_hz > 0.0 {
        cost.cpu_ops += cost.delivery_ops_per_sec / boundary_hz;
    }
    // Expected added latency: half the coalescing hold, or half a
    // boundary interval when delivering eagerly.
    let hold = match (spec.push, spec.max_delay_sec) {
        (true, Some(d)) => d / 2.0,
        _ if boundary_hz > 0.0 => 0.5 / boundary_hz,
        _ => 0.0,
    };
    cost.latency_sec += hold;
    cost
}

/// Add each operator's work, and each stream scan's LAN bytes, to `cost`
/// in post-order; return the plan's cardinality.
fn accumulate(plan: &LogicalPlan, cost: &mut StreamCost) -> f64 {
    let inputs: Vec<f64> = plan
        .children()
        .into_iter()
        .map(|c| accumulate(c, cost))
        .collect();
    let card = node_cardinality(plan, &inputs);
    cost.cpu_ops += node_ops(plan, &inputs, card);
    // Stream/device wrappers are remote; tables live with the engine.
    if let LogicalPlan::Scan { rel } = plan {
        if rel.meta.kind.is_stream_like() {
            cost.lan_bytes += card * BYTES_PER_TUPLE;
        }
    }
    card
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_catalog::{Catalog, DeviceClass, SourceStats};
    use aspen_sql::{bind, parse, BoundQuery};
    use aspen_types::{DataType, Field, Schema, SimDuration};

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let t = Schema::new(vec![
            Field::new("desk", DataType::Int),
            Field::new("temp", DataType::Float),
        ])
        .into_ref();
        cat.register_source(
            "Temps",
            t,
            SourceKind::Device(DeviceClass::new(&["temp"], SimDuration::from_secs(10), 50)),
            SourceStats::stream(5.0),
        )
        .unwrap();
        let m = Schema::new(vec![
            Field::new("desk", DataType::Int),
            Field::new("software", DataType::Text),
        ])
        .into_ref();
        cat.register_source("Machines", m, SourceKind::Table, SourceStats::table(200))
            .unwrap();
        cat
    }

    fn plan_on(cat: &Catalog, sql: &str) -> LogicalPlan {
        let BoundQuery::Select(b) = bind(&parse(sql).unwrap(), cat).unwrap() else {
            panic!()
        };
        b.plan
    }

    fn plan(sql: &str) -> LogicalPlan {
        plan_on(&catalog(), sql)
    }

    #[test]
    fn scan_cardinalities() {
        // Device stream: 5 Hz × 10 s window = 50 live tuples.
        let p = plan("select t.temp from Temps t");
        let scan_card = estimate_cardinality(match &p {
            LogicalPlan::Project { input, .. } => input,
            _ => panic!(),
        });
        assert!((scan_card - 50.0).abs() < 1e-9);
        // Table: row count.
        let p = plan("select m.desk from Machines m");
        let LogicalPlan::Project { input, .. } = &p else {
            panic!()
        };
        assert!((estimate_cardinality(input) - 200.0).abs() < 1e-9);
    }

    #[test]
    fn filters_reduce_cardinality() {
        let all = estimate_cardinality(&plan("select t.temp from Temps t"));
        let hot = estimate_cardinality(&plan("select t.temp from Temps t where t.temp > 90"));
        let eq = estimate_cardinality(&plan("select t.temp from Temps t where t.desk = 3"));
        assert!(hot < all);
        assert!(eq < hot); // equality tighter than range
    }

    #[test]
    fn join_cost_includes_both_sides() {
        let single = estimate_plan(&plan("select t.temp from Temps t"));
        let joined = estimate_plan(&plan(
            "select m.software from Temps t, Machines m where t.desk = m.desk",
        ));
        assert!(joined.cpu_ops > single.cpu_ops);
        assert!(joined.latency_sec > 0.0);
        assert!(joined.lan_bytes >= single.lan_bytes);
    }

    #[test]
    fn measured_op_rate_shifts_cpu_latency_share() {
        let cat = catalog();
        let p = plan_on(
            &cat,
            "select m.software from Temps t, Machines m where t.desk = m.desk",
        );
        // No measured rate published yet: calibrated == static.
        let fixed = estimate_plan(&p);
        assert_eq!(estimate_plan_calibrated(&p, &cat), fixed);
        // A host measured 10× slower than the 50 M ops/s calibration
        // grows the CPU share of latency by exactly 10× (the LAN-hop
        // share is rate-independent) and leaves work/traffic unchanged.
        cat.record_observed_op_rate(5_000_000.0);
        let slow = estimate_plan_calibrated(&p, &cat);
        assert_eq!(slow.cpu_ops, fixed.cpu_ops);
        assert_eq!(slow.lan_bytes, fixed.lan_bytes);
        assert!(slow.latency_sec > fixed.latency_sec);
        let scans = p.scans().len().max(1) as f64;
        let hop = LAN_HOP_SEC * scans.log2().max(1.0);
        let fixed_cpu = fixed.latency_sec - hop;
        let slow_cpu = slow.latency_sec - hop;
        assert!((slow_cpu - 10.0 * fixed_cpu).abs() < 1e-12);
        // Degenerate published rates fall back to the static constant.
        assert_eq!(estimate_plan_with_rate(&p, 0.0), fixed);
        assert_eq!(estimate_plan_with_rate(&p, f64::NAN), fixed);
    }

    #[test]
    fn tables_ship_no_lan_bytes() {
        let t = estimate_plan(&plan("select m.desk from Machines m"));
        assert_eq!(t.lan_bytes, 0.0);
        let s = estimate_plan(&plan("select t.temp from Temps t"));
        assert!(s.lan_bytes > 0.0);
    }

    #[test]
    fn aggregate_collapses_cardinality() {
        let agg = estimate_plan(&plan("select count(*) from Temps t"));
        assert!((agg.out_card - 1.0).abs() < 1e-9);
        let grouped = estimate_plan(&plan(
            "select t.desk, avg(t.temp) from Temps t group by t.desk",
        ));
        assert!(grouped.out_card >= 1.0);
    }

    #[test]
    fn grouped_aggregate_over_less_than_a_row_is_one_group() {
        // 200 rows × 0.1 × 0.1 × 0.1: the aggregate's input is estimated
        // at 0.2 rows, and it still keeps one group.
        let p = plan(
            "select m.desk, count(*) from Machines m \
             where m.desk = 1 ^ m.software = 'x' ^ m.desk = 2 group by m.desk",
        );
        assert_eq!(estimate_plan(&p).out_card, 1.0);
    }

    #[test]
    fn sort_costs_superlinear() {
        let unsorted = estimate_plan(&plan("select t.temp from Temps t"));
        let sorted = estimate_plan(&plan("select t.temp from Temps t order by t.temp"));
        assert!(sorted.cpu_ops > unsorted.cpu_ops);
    }

    /// The per-query shape of the calibration measurement (50-query
    /// fan-out, 20 000 tuples in 79 boundaries over ~2 000 s of
    /// simulated time): boundary rate, live result rows per poll, and
    /// output-delta rate.
    const FANOUT_BOUNDARY_HZ: f64 = 79.0 / 2000.0;
    const FANOUT_OUT_CARD: f64 = 1108.0;
    const FANOUT_OUT_RATE: f64 = 1.53;

    fn push_spec(max_batch: Option<usize>, max_delay_sec: Option<f64>) -> DeliverySpec {
        DeliverySpec {
            push: true,
            max_batch,
            max_delay_sec,
        }
    }

    #[test]
    fn delivery_term_reproduces_measured_poll_push_gap() {
        // Measured: ~1.2 s of poll overhead vs ~75 ms of eager-push
        // overhead on the same workload: a ~16x gap. The model must land
        // in that order of magnitude.
        let poll = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &DeliverySpec::default(),
        );
        let eager = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(None, None),
        );
        let ratio = poll / eager;
        assert!((8.0..32.0).contains(&ratio), "poll/push gap {ratio:.1}x");
    }

    #[test]
    fn max_batch_one_prices_like_per_boundary_poll() {
        // Knob extreme: max_batch = 1 delivers every delta as its own
        // batch — push's advantage is gone, and the cost must be on par
        // with polling the snapshot at every boundary.
        let poll = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &DeliverySpec::default(),
        );
        let single = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(Some(1), None),
        );
        let ratio = single / poll;
        assert!(
            (0.5..2.0).contains(&ratio),
            "max_batch=1 vs poll {ratio:.2}x"
        );
    }

    #[test]
    fn large_max_delay_approaches_coalesced_floor() {
        let eager = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(None, None),
        );
        let mild = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(None, Some(50.0)),
        );
        let huge = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(None, Some(1e6)),
        );
        assert!(mild < eager, "coalescing must cut batch cost");
        assert!(huge < mild);
        // The floor is pure per-delta work.
        let floor = FANOUT_OUT_RATE * PUSH_OPS_PER_DELTA;
        assert!(
            (huge - floor) / floor < 0.05,
            "huge {huge} vs floor {floor}"
        );
    }

    #[test]
    fn choose_knobs_spends_the_latency_budget() {
        // No budget (or a budget below the boundary spacing): eager.
        assert_eq!(
            choose_knobs(FANOUT_OUT_RATE, FANOUT_BOUNDARY_HZ, 0.0),
            (None, None)
        );
        assert_eq!(
            choose_knobs(FANOUT_OUT_RATE, FANOUT_BOUNDARY_HZ, 10.0),
            (None, None),
            "boundaries arrive every ~25 s; a 10 s hold never spans two"
        );
        // A real budget coalesces for the whole budget, with max_batch
        // sized to one budget's worth of output.
        let (batch, delay) = choose_knobs(FANOUT_OUT_RATE, FANOUT_BOUNDARY_HZ, 100.0);
        assert_eq!(delay, Some(100.0));
        assert_eq!(batch, Some(153));
        // Hotter queries get proportionally bigger batches; queries too
        // cold to fill a 2-delta batch (including fully idle ones, which
        // an auto_tune window can legitimately measure at rate 0) must
        // NOT get the degenerate max_batch = 1 — they coalesce by delay
        // alone.
        let (hot, _) = choose_knobs(100.0, 10.0, 1.0);
        assert_eq!(hot, Some(100));
        assert_eq!(choose_knobs(1.0, 10.0, 1.0), (None, Some(1.0)));
        assert_eq!(choose_knobs(0.0, 10.0, 1.0), (None, Some(1.0)));
        // The chosen knobs never cost more than eager delivery.
        let chosen = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(batch, delay),
        );
        let eager = delivery_overhead_ops(
            FANOUT_OUT_RATE,
            FANOUT_OUT_CARD,
            FANOUT_BOUNDARY_HZ,
            &push_spec(None, None),
        );
        assert!(chosen <= eager);
    }

    #[test]
    fn plan_costing_includes_delivery_term() {
        let p = plan("select t.temp from Temps t");
        let base = estimate_plan(&p);
        assert_eq!(base.delivery_ops_per_sec, 0.0);
        // One boundary per second: polling re-reads the 50-row window
        // snapshot every second while churn is only ~5 deltas/s.
        let polled = estimate_plan_with_delivery(&p, 1.0, &DeliverySpec::default());
        let pushed = estimate_plan_with_delivery(&p, 1.0, &push_spec(None, Some(20.0)));
        assert!(polled.delivery_ops_per_sec > 0.0);
        assert!(polled.cpu_ops > base.cpu_ops);
        assert!(
            pushed.cpu_ops < polled.cpu_ops,
            "coalesced push must out-price per-boundary polling"
        );
        // The coalescing hold shows up as latency.
        assert!(pushed.latency_sec > polled.latency_sec);
    }

    #[test]
    fn output_rate_tracks_scan_rates_and_selectivity() {
        // Temps: 5 Hz declared. A pass-through projection churns at the
        // full scan rate; a filter thins it.
        let all = estimate_output_rate(&plan("select t.temp from Temps t"));
        assert!((all - 5.0).abs() < 1e-9);
        let filtered = estimate_output_rate(&plan("select t.temp from Temps t where t.desk = 3"));
        assert!(filtered < all);
        // Joins amplify: one arrival can match many window partners, so
        // the output churns faster than the combined scan rate.
        let joined = estimate_output_rate(&plan(
            "select a.temp, b.temp from Temps a, Temps b where a.desk = b.desk",
        ));
        assert!(joined > 10.0, "join rate {joined} !> combined scan rate");
        // Tables produce no churn.
        assert_eq!(
            estimate_output_rate(&plan("select m.desk from Machines m")),
            0.0
        );
    }

    #[test]
    fn observed_rate_feeds_cardinality() {
        let cat = catalog();
        let before = estimate_cardinality(&plan_on(&cat, "select t.temp from Temps t"));
        let id = cat.source("Temps").unwrap().id;
        cat.record_observed_rate(id, 50.0).unwrap();
        let after = estimate_cardinality(&plan_on(&cat, "select t.temp from Temps t"));
        // 10x the observed rate => 10x the windowed cardinality.
        assert!((after / before - 10.0).abs() < 1e-9);
    }

    #[test]
    fn or_selectivity_bounded() {
        let p = plan("select t.temp from Temps t where t.temp > 90 or t.desk = 1");
        let card = estimate_cardinality(&p);
        let all = estimate_cardinality(&plan("select t.temp from Temps t"));
        assert!(card <= all);
        assert!(card > 0.0);
    }
}
