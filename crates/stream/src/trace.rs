//! The engine's observability plane: latency histograms, cross-node
//! trace contexts, the span journal, per-operator-kind profiling, and
//! the metrics export surface.
//!
//! Everything here is dependency-free and lock-local by design:
//!
//! * [`LatencyHistogram`] — a fixed-size log₂-bucketed histogram of
//!   microsecond latencies. Recording is two integer adds and a
//!   leading-zeros; merging is element-wise addition, which makes the
//!   histogram **mergeable** (shard → node → cluster) and **diffable**
//!   ([`LatencyHistogram::since`]) exactly like the engine's cumulative
//!   counters. Percentiles are answered from bucket upper edges, so
//!   `p50/p90/p99` are conservative (never under-report) and the merge
//!   of two histograms answers the same quantiles as recording every
//!   sample into one.
//! * [`TraceCtx`] — the per-batch trace context: origin node, batch id,
//!   and the admission tick on the process-wide monotone clock
//!   ([`now_us`]). It rides `Executor` tasks and, across an exchange
//!   hop, the wire frame itself; [`TraceCtx::charge_hop`] back-dates the
//!   admission tick by the simulated wire latency so the remote node's
//!   end-to-end histogram includes the hop.
//! * [`SpanJournal`] — a bounded ring of lifecycle and control-plane
//!   events (sampled admissions, ships/arrivals, migrations, rebalance
//!   decisions, knob retunes) for post-hoc "where did this batch spend
//!   its time" debugging. Bounded, so it can stay on forever.
//! * [`OpProfile`] — measured busy time per operator *kind*; its
//!   [`OpProfile::ops_per_sec_observed`] rate is what the catalog
//!   publishes back to the optimizer's cost model, closing the loop the
//!   same way observed source rates already feed cardinality.
//! * [`render_prometheus`] / [`render_json`] — one report, two text
//!   formats, no serialization dependencies.

use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::telemetry::TelemetryReport;

/// Number of log₂ buckets. Bucket 0 holds 0 µs; bucket `b` holds
/// latencies in `[2^(b-1), 2^b)` µs; the last bucket absorbs everything
/// from ~146 hours up.
pub const BUCKETS: usize = 40;

fn bucket_of(us: u64) -> usize {
    if us == 0 {
        return 0;
    }
    ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
}

/// Inclusive upper edge of bucket `b`, in µs (used as the conservative
/// quantile answer).
pub fn bucket_upper_us(b: usize) -> u64 {
    if b == 0 {
        0
    } else if b >= BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << b) - 1
    }
}

/// A mergeable log-bucketed latency histogram (microseconds).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LatencyHistogram {
    counts: [u64; BUCKETS],
    count: u64,
    sum_us: u64,
    max_us: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: [0; BUCKETS],
            count: 0,
            sum_us: 0,
            max_us: 0,
        }
    }
}

impl LatencyHistogram {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one latency sample.
    pub fn record_us(&mut self, us: u64) {
        self.counts[bucket_of(us)] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.max_us = self.max_us.max(us);
    }

    /// Fold another histogram in. Element-wise, so merging is
    /// commutative and associative — shard histograms merge into node
    /// histograms merge into the cluster's.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// The samples recorded since `mark` was taken — per-bucket
    /// saturating subtraction, diffable across successive telemetry
    /// reports exactly like the cumulative counters. (`max_us` cannot be
    /// windowed and is carried from `self`.)
    pub fn since(&self, mark: &LatencyHistogram) -> LatencyHistogram {
        let mut out = LatencyHistogram::default();
        for (i, (a, b)) in self.counts.iter().zip(mark.counts.iter()).enumerate() {
            out.counts[i] = a.saturating_sub(*b);
        }
        out.count = self.count.saturating_sub(mark.count);
        out.sum_us = self.sum_us.saturating_sub(mark.sum_us);
        out.max_us = self.max_us;
        out
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The latency at quantile `q` (0.0..=1.0), answered as the upper
    /// edge of the bucket containing the q-th sample — conservative,
    /// clamped to the observed maximum. 0 on an empty histogram.
    pub fn quantile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_us(b).min(self.max_us);
            }
        }
        self.max_us
    }

    pub fn p50_us(&self) -> u64 {
        self.quantile_us(0.50)
    }

    pub fn p90_us(&self) -> u64 {
        self.quantile_us(0.90)
    }

    pub fn p99_us(&self) -> u64 {
        self.quantile_us(0.99)
    }

    /// The non-empty buckets as `(bucket index, count)` pairs — the
    /// sparse form shipped in wire frames and export formats.
    pub fn bucket_counts(&self) -> Vec<(u32, u64)> {
        self.counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(b, &c)| (b as u32, c))
            .collect()
    }

    /// Rebuild from the sparse wire form. Out-of-range bucket indices
    /// fold into the last bucket (a peer with more buckets still merges
    /// losslessly in count).
    pub fn from_parts(max_us: u64, sum_us: u64, buckets: &[(u32, u64)]) -> Self {
        let mut out = LatencyHistogram::default();
        for &(b, c) in buckets {
            out.counts[(b as usize).min(BUCKETS - 1)] += c;
            out.count += c;
        }
        out.sum_us = sum_us;
        out.max_us = max_us;
        out
    }
}

/// Process-wide monotone clock, microseconds since the first call.
/// Shared by every engine in the process so a trace context stamped on
/// one cluster node resolves meaningfully on another.
pub fn now_us() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
}

/// The trace context carried by one admitted batch: where it entered the
/// system, which admission it was, and when. Copied onto every per-shard
/// task of the boundary and — across an exchange hop — into the wire
/// frame itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceCtx {
    /// Node that admitted the batch (0 on a single-node engine).
    pub origin: u32,
    /// Admission sequence number on the origin node.
    pub batch: u64,
    /// [`now_us`] tick at admission, back-dated by any wire hops.
    pub admit_us: u64,
}

impl TraceCtx {
    pub fn new(origin: u32, batch: u64) -> Self {
        TraceCtx {
            origin,
            batch,
            admit_us: now_us(),
        }
    }

    /// Charge a simulated wire hop into this context by back-dating the
    /// admission tick: the receiving node's end-to-end latency then
    /// includes the hop even though the simulation didn't spend the
    /// wall time.
    pub fn charge_hop(&mut self, hop_us: u64) {
        self.admit_us = self.admit_us.saturating_sub(hop_us);
    }

    /// Microseconds since (back-dated) admission.
    pub fn elapsed_us(&self) -> u64 {
        now_us().saturating_sub(self.admit_us)
    }
}

/// What one journal entry records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A batch admission (sampled — see [`SpanJournal::sample_admit`]).
    Admit,
    /// A frame left this node over an exchange link.
    Ship,
    /// A shipped frame was re-admitted on this node.
    Arrive,
    /// A query migrated (detail = destination shard / node).
    Migrate,
    /// The rebalancer planned migrations (detail = how many).
    Rebalance,
    /// `auto_tune` retuned a query's micro-batch knobs.
    Retune,
}

/// One recorded lifecycle / control-plane event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub at_us: u64,
    /// Node the event happened on.
    pub node: u32,
    /// Batch id (admissions, ships, arrivals) or 0 for control events.
    pub batch: u64,
    pub kind: SpanKind,
    /// Kind-specific detail (destination, count, query id).
    pub detail: u64,
}

/// A bounded ring buffer of [`Span`]s. Old entries fall off the front;
/// `recorded` counts everything ever recorded, so "spans out == spans
/// in" conservation is checkable even after eviction.
#[derive(Debug, Clone)]
pub struct SpanJournal {
    spans: VecDeque<Span>,
    cap: usize,
    recorded: u64,
}

impl Default for SpanJournal {
    fn default() -> Self {
        SpanJournal::new(1024)
    }
}

impl SpanJournal {
    pub fn new(cap: usize) -> Self {
        SpanJournal {
            spans: VecDeque::new(),
            cap: cap.max(1),
            recorded: 0,
        }
    }

    pub fn record(&mut self, span: Span) {
        if self.spans.len() == self.cap {
            self.spans.pop_front();
        }
        self.spans.push_back(span);
        self.recorded += 1;
    }

    /// Whether an admission with this batch id should be journaled —
    /// 1-in-16 sampling keeps the hot path and the ring quiet while
    /// control-plane events (migrations, retunes) are always recorded.
    pub fn sample_admit(batch: u64) -> bool {
        batch & 0xF == 0
    }

    /// Total spans ever recorded (monotone; survives ring eviction).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Retained spans of one kind.
    pub fn count_kind(&self, kind: SpanKind) -> usize {
        self.spans.iter().filter(|s| s.kind == kind).count()
    }
}

/// Operator kinds the profiler distinguishes — one per pipeline operator
/// the planner can emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    Filter,
    Project,
    Join,
    Aggregate,
    Union,
}

impl OpKind {
    pub const COUNT: usize = 5;

    pub const ALL: [OpKind; OpKind::COUNT] = [
        OpKind::Filter,
        OpKind::Project,
        OpKind::Join,
        OpKind::Aggregate,
        OpKind::Union,
    ];

    pub fn name(self) -> &'static str {
        match self {
            OpKind::Filter => "filter",
            OpKind::Project => "project",
            OpKind::Join => "join",
            OpKind::Aggregate => "aggregate",
            OpKind::Union => "union",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::Filter => 0,
            OpKind::Project => 1,
            OpKind::Join => 2,
            OpKind::Aggregate => 3,
            OpKind::Union => 4,
        }
    }
}

/// Measured load of one operator kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OpMeter {
    /// `process_batch` invocations.
    pub invocations: u64,
    /// Deltas pushed through (the same unit `ops_invoked` counts).
    pub deltas: u64,
    /// Busy wall time (zero when the pipeline runs untimed).
    pub busy: Duration,
}

/// Per-operator-kind measured busy timings. Lives in each pipeline (so
/// it migrates with the query) and merges up into the telemetry report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpProfile {
    meters: [OpMeter; OpKind::COUNT],
}

impl OpProfile {
    pub fn record(&mut self, kind: OpKind, deltas: u64, busy: Duration) {
        let m = &mut self.meters[kind.index()];
        m.invocations += 1;
        m.deltas += deltas;
        m.busy += busy;
    }

    pub fn merge(&mut self, other: &OpProfile) {
        for (a, b) in self.meters.iter_mut().zip(other.meters.iter()) {
            a.invocations += b.invocations;
            a.deltas += b.deltas;
            a.busy += b.busy;
        }
    }

    pub fn meter(&self, kind: OpKind) -> OpMeter {
        self.meters[kind.index()]
    }

    pub fn iter(&self) -> impl Iterator<Item = (OpKind, OpMeter)> + '_ {
        OpKind::ALL.iter().map(|&k| (k, self.meters[k.index()]))
    }

    pub fn total_deltas(&self) -> u64 {
        self.meters.iter().map(|m| m.deltas).sum()
    }

    pub fn total_busy(&self) -> Duration {
        self.meters.iter().map(|m| m.busy).sum()
    }

    /// The measured end-to-end operator rate, deltas per second of
    /// operator busy time — the observed counterpart of the optimizer's
    /// static `CPU_OPS_PER_SEC` constant. `None` until enough busy time
    /// has accumulated (10 µs) for the quotient to mean anything.
    pub fn ops_per_sec_observed(&self) -> Option<f64> {
        let busy = self.total_busy().as_secs_f64();
        let deltas = self.total_deltas();
        if busy < 10e-6 || deltas == 0 {
            return None;
        }
        Some(deltas as f64 / busy)
    }
}

fn prom_line(out: &mut String, name: &str, labels: &str, value: impl std::fmt::Display) {
    out.push_str(name);
    if !labels.is_empty() {
        out.push('{');
        out.push_str(labels);
        out.push('}');
    }
    out.push(' ');
    out.push_str(&value.to_string());
    out.push('\n');
}

/// Render a telemetry report as Prometheus text exposition format.
pub fn render_prometheus(report: &TelemetryReport) -> String {
    let mut out = String::new();
    out.push_str("# TYPE aspen_boundaries_total counter\n");
    prom_line(&mut out, "aspen_boundaries_total", "", report.boundaries);
    out.push_str("# TYPE aspen_out_of_order_tuples_total counter\n");
    let late = report.out_of_order_tuples;
    prom_line(&mut out, "aspen_out_of_order_tuples_total", "", late);
    out.push_str("# TYPE aspen_log_shared_bytes gauge\n");
    let shared = report.log_shared_bytes;
    prom_line(&mut out, "aspen_log_shared_bytes", "", shared);
    out.push_str("# TYPE aspen_shard_tuples_in_total counter\n");
    out.push_str("# TYPE aspen_shard_busy_seconds_total counter\n");
    out.push_str("# TYPE aspen_shard_lag gauge\n");
    out.push_str("# TYPE aspen_shard_log_rows gauge\n");
    out.push_str("# TYPE aspen_shard_log_bytes gauge\n");
    out.push_str("# TYPE aspen_shard_spill_read_failures counter\n");
    out.push_str("# TYPE aspen_shard_cursors gauge\n");
    out.push_str("# TYPE aspen_shard_cursor_classes gauge\n");
    out.push_str("# TYPE aspen_shard_window_batches_total counter\n");
    out.push_str("# TYPE aspen_shard_window_deliveries_total counter\n");
    out.push_str("# TYPE aspen_shard_filter_probes counter\n");
    out.push_str("# TYPE aspen_shard_backfilled_rows_total counter\n");
    out.push_str("# TYPE aspen_shard_private_windows gauge\n");
    out.push_str("# TYPE aspen_shard_sealed_bytes gauge\n");
    for s in &report.shards {
        let l = format!("shard=\"{}\"", s.shard);
        prom_line(&mut out, "aspen_shard_tuples_in_total", &l, s.tuples_in);
        prom_line(
            &mut out,
            "aspen_shard_busy_seconds_total",
            &l,
            s.busy_seconds,
        );
        prom_line(&mut out, "aspen_shard_lag", &l, s.lag);
        prom_line(&mut out, "aspen_shard_log_rows", &l, s.log_rows);
        prom_line(&mut out, "aspen_shard_log_bytes", &l, s.log_bytes);
        let failures = s.spill_read_failures;
        prom_line(&mut out, "aspen_shard_spill_read_failures", &l, failures);
        prom_line(&mut out, "aspen_shard_cursors", &l, s.log_cursors);
        prom_line(&mut out, "aspen_shard_cursor_classes", &l, s.cursor_classes);
        prom_line(
            &mut out,
            "aspen_shard_window_batches_total",
            &l,
            s.window_batches,
        );
        prom_line(
            &mut out,
            "aspen_shard_window_deliveries_total",
            &l,
            s.window_deliveries,
        );
        prom_line(&mut out, "aspen_shard_filter_probes", &l, s.filter_probes);
        let (filled, private) = (s.backfilled_rows, s.private_windows);
        prom_line(&mut out, "aspen_shard_backfilled_rows_total", &l, filled);
        prom_line(&mut out, "aspen_shard_private_windows", &l, private);
        for (encoding, bytes) in s.sealed_bytes.iter() {
            let l = format!("{l},encoding=\"{encoding}\"");
            prom_line(&mut out, "aspen_shard_sealed_bytes", &l, bytes);
        }
    }
    out.push_str("# TYPE aspen_query_ops_invoked_total counter\n");
    out.push_str("# TYPE aspen_query_state_bytes gauge\n");
    out.push_str("# TYPE aspen_query_groups gauge\n");
    out.push_str("# TYPE aspen_query_grouped_filter gauge\n");
    out.push_str("# TYPE aspen_query_private_windows gauge\n");
    for q in &report.queries {
        let l = format!("query=\"{}\",shard=\"{}\"", q.query.0, q.shard);
        prom_line(&mut out, "aspen_query_ops_invoked_total", &l, q.ops_invoked);
        prom_line(&mut out, "aspen_query_state_bytes", &l, q.state_bytes);
        prom_line(&mut out, "aspen_query_groups", &l, q.groups);
        let grouped = u8::from(q.grouped_filter);
        prom_line(&mut out, "aspen_query_grouped_filter", &l, grouped);
        let private = q.private_windows;
        prom_line(&mut out, "aspen_query_private_windows", &l, private);
    }
    let latency = report.ingest_latency();
    let queue = report.queue_wait();
    for (name, h) in [
        ("aspen_ingest_latency_us", &latency),
        ("aspen_queue_wait_us", &queue),
    ] {
        out.push_str(&format!("# TYPE {name} histogram\n"));
        let mut cum = 0u64;
        for (b, c) in h.bucket_counts() {
            cum += c;
            let le = bucket_upper_us(b as usize);
            let le = if le == u64::MAX {
                "+Inf".to_string()
            } else {
                le.to_string()
            };
            prom_line(
                &mut out,
                &format!("{name}_bucket"),
                &format!("le=\"{le}\""),
                cum,
            );
        }
        prom_line(
            &mut out,
            &format!("{name}_bucket"),
            "le=\"+Inf\"",
            h.count(),
        );
        prom_line(&mut out, &format!("{name}_sum"), "", h.sum_us());
        prom_line(&mut out, &format!("{name}_count"), "", h.count());
        for (q, v) in [
            ("0.5", h.p50_us()),
            ("0.9", h.p90_us()),
            ("0.99", h.p99_us()),
        ] {
            prom_line(&mut out, name, &format!("quantile=\"{q}\""), v);
        }
    }
    out.push_str("# TYPE aspen_op_busy_seconds_total counter\n");
    out.push_str("# TYPE aspen_op_deltas_total counter\n");
    for (kind, m) in report.profile.iter() {
        let l = format!("op=\"{}\"", kind.name());
        prom_line(
            &mut out,
            "aspen_op_busy_seconds_total",
            &l,
            m.busy.as_secs_f64(),
        );
        prom_line(&mut out, "aspen_op_deltas_total", &l, m.deltas);
    }
    if let Some(rate) = report.profile.ops_per_sec_observed() {
        out.push_str("# TYPE aspen_ops_per_sec_observed gauge\n");
        prom_line(&mut out, "aspen_ops_per_sec_observed", "", rate);
    }
    out
}

fn json_hist(h: &LatencyHistogram) -> String {
    let buckets: Vec<String> = h
        .bucket_counts()
        .iter()
        .map(|(b, c)| format!("[{b},{c}]"))
        .collect();
    format!(
        "{{\"count\":{},\"sum_us\":{},\"max_us\":{},\"p50_us\":{},\"p90_us\":{},\"p99_us\":{},\"buckets\":[{}]}}",
        h.count(),
        h.sum_us(),
        h.max_us(),
        h.p50_us(),
        h.p90_us(),
        h.p99_us(),
        buckets.join(",")
    )
}

/// Render a telemetry report as one JSON object (hand-rolled — the
/// repo's no-external-deps constraint rules out serde).
pub fn render_json(report: &TelemetryReport) -> String {
    let shards: Vec<String> = report
        .shards
        .iter()
        .map(|s| {
            format!(
                "{{\"shard\":{},\"queries\":{},\"tuples_in\":{},\"ops_invoked\":{},\"batches\":{},\"busy_seconds\":{:.6},\"log_rows\":{},\"log_bytes\":{},\"spill_read_failures\":{},\"cursors\":{},\"cursor_classes\":{},\"window_batches\":{},\"window_deliveries\":{},\"filter_probes\":{},\"backfilled_rows\":{},\"private_windows\":{},\"watermark\":{},\"lag\":{},\"queue_wait\":{},\"sealed_bytes\":{{{}}}}}",
                s.shard,
                s.queries,
                s.tuples_in,
                s.ops_invoked,
                s.batches,
                s.busy_seconds,
                s.log_rows,
                s.log_bytes,
                s.spill_read_failures,
                s.log_cursors,
                s.cursor_classes,
                s.window_batches,
                s.window_deliveries,
                s.filter_probes,
                s.backfilled_rows,
                s.private_windows,
                s.watermark,
                s.lag,
                json_hist(&s.queue_wait),
                s.sealed_bytes
                    .iter()
                    .map(|(encoding, bytes)| format!("\"{encoding}\":{bytes}"))
                    .collect::<Vec<_>>()
                    .join(",")
            )
        })
        .collect();
    let queries: Vec<String> = report
        .queries
        .iter()
        .map(|q| {
            format!(
                "{{\"query\":{},\"shard\":{},\"paused\":{},\"tuples_in\":{},\"ops_invoked\":{},\"state_bytes\":{},\"groups\":{},\"grouped_filter\":{},\"private_windows\":{},\"output_deltas\":{},\"latency\":{}}}",
                q.query.0, q.shard, q.paused, q.tuples_in, q.ops_invoked, q.state_bytes,
                q.groups, q.grouped_filter, q.private_windows, q.output_deltas,
                json_hist(&q.latency)
            )
        })
        .collect();
    let ops: Vec<String> = report
        .profile
        .iter()
        .map(|(k, m)| {
            format!(
                "{{\"op\":\"{}\",\"invocations\":{},\"deltas\":{},\"busy_seconds\":{:.6}}}",
                k.name(),
                m.invocations,
                m.deltas,
                m.busy.as_secs_f64()
            )
        })
        .collect();
    format!(
        "{{\"boundaries\":{},\"out_of_order_tuples\":{},\"log_shared_bytes\":{},\"now_secs\":{:.3},\"ingest_latency\":{},\"queue_wait\":{},\"ops_per_sec_observed\":{},\"shards\":[{}],\"queries\":[{}],\"ops\":[{}]}}",
        report.boundaries,
        report.out_of_order_tuples,
        report.log_shared_bytes,
        report.now_secs,
        json_hist(&report.ingest_latency()),
        json_hist(&report.queue_wait()),
        report
            .profile
            .ops_per_sec_observed()
            .map_or("null".to_string(), |r| format!("{r:.1}")),
        shards.join(","),
        queries.join(","),
        ops.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_types::rng::seeded;
    use rand::Rng;

    #[test]
    fn bucket_edges_are_monotone_and_cover() {
        let mut prev = None;
        for us in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 20, u64::MAX] {
            let b = bucket_of(us);
            assert!(b < BUCKETS);
            if let Some(p) = prev {
                assert!(b >= p, "bucket_of must be monotone");
            }
            prev = Some(b);
            // Every value is <= its bucket's upper edge.
            assert!(us <= bucket_upper_us(b));
        }
        // Edges strictly increase until the absorbing last bucket.
        for b in 1..BUCKETS - 1 {
            assert!(bucket_upper_us(b) > bucket_upper_us(b - 1));
        }
    }

    #[test]
    fn quantiles_are_monotone_and_bounded_by_max() {
        let mut h = LatencyHistogram::new();
        let mut rng = seeded(0x51AB);
        for _ in 0..1000 {
            h.record_us(rng.gen_range(0..500_000u64));
        }
        let qs: Vec<u64> = (0..=10).map(|i| h.quantile_us(i as f64 / 10.0)).collect();
        for w in qs.windows(2) {
            assert!(w[0] <= w[1], "quantiles must be monotone: {qs:?}");
        }
        assert!(h.p50_us() <= h.p90_us());
        assert!(h.p90_us() <= h.p99_us());
        assert!(h.p99_us() <= h.max_us());
        assert_eq!(h.quantile_us(1.0), h.max_us());
    }

    #[test]
    fn merge_is_commutative_and_order_independent() {
        // Property: merging a set of histograms in any order equals
        // recording every sample into one histogram directly.
        let mut rng = seeded(0xA11CE);
        let samples: Vec<Vec<u64>> = (0..8)
            .map(|_| {
                (0..rng.gen_range(0..200usize))
                    .map(|_| rng.gen_range(0..10_000_000u64))
                    .collect()
            })
            .collect();
        let mut direct = LatencyHistogram::new();
        for s in samples.iter().flatten() {
            direct.record_us(*s);
        }
        let parts: Vec<LatencyHistogram> = samples
            .iter()
            .map(|ss| {
                let mut h = LatencyHistogram::new();
                for &s in ss {
                    h.record_us(s);
                }
                h
            })
            .collect();
        let mut forward = LatencyHistogram::new();
        for p in &parts {
            forward.merge(p);
        }
        let mut backward = LatencyHistogram::new();
        for p in parts.iter().rev() {
            backward.merge(p);
        }
        assert_eq!(forward, direct);
        assert_eq!(backward, direct);
        // a.merge(b) == b.merge(a)
        let mut ab = parts[0].clone();
        ab.merge(&parts[1]);
        let mut ba = parts[1].clone();
        ba.merge(&parts[0]);
        assert_eq!(ab, ba);
    }

    #[test]
    fn since_diffs_like_counters() {
        let mut h = LatencyHistogram::new();
        h.record_us(10);
        h.record_us(1000);
        let mark = h.clone();
        h.record_us(100_000);
        let window = h.since(&mark);
        assert_eq!(window.count(), 1);
        assert_eq!(window.quantile_us(1.0), window.max_us().min(131_071));
        // Diffing against a later mark saturates to empty, never wraps.
        let empty = mark.since(&h);
        assert_eq!(empty.count(), 0);
        assert!(empty.bucket_counts().is_empty());
    }

    #[test]
    fn sparse_round_trip_preserves_histogram() {
        let mut h = LatencyHistogram::new();
        let mut rng = seeded(7);
        for _ in 0..500 {
            h.record_us(rng.gen_range(0..1_000_000u64));
        }
        let back = LatencyHistogram::from_parts(h.max_us(), h.sum_us(), &h.bucket_counts());
        assert_eq!(back, h);
    }

    #[test]
    fn trace_ctx_charges_hops_backward() {
        let mut ctx = TraceCtx::new(2, 77);
        let before = ctx.elapsed_us();
        ctx.charge_hop(5_000);
        assert!(ctx.elapsed_us() >= before + 5_000);
        // Saturates rather than underflowing.
        ctx.charge_hop(u64::MAX);
        assert_eq!(ctx.admit_us, 0);
    }

    #[test]
    fn journal_ring_bounds_and_counts() {
        let mut j = SpanJournal::new(4);
        for i in 0..10u64 {
            j.record(Span {
                at_us: i,
                node: 0,
                batch: i,
                kind: if i % 2 == 0 {
                    SpanKind::Admit
                } else {
                    SpanKind::Ship
                },
                detail: 0,
            });
        }
        assert_eq!(j.len(), 4);
        assert_eq!(j.recorded(), 10);
        assert_eq!(
            j.count_kind(SpanKind::Admit) + j.count_kind(SpanKind::Ship),
            4
        );
        // The ring keeps the newest entries.
        assert_eq!(j.iter().next().unwrap().at_us, 6);
        // Sampling accepts 1 in 16.
        assert_eq!(
            (0..160).filter(|&b| SpanJournal::sample_admit(b)).count(),
            10
        );
    }

    #[test]
    fn op_profile_rates_and_merge() {
        let mut p = OpProfile::default();
        assert_eq!(p.ops_per_sec_observed(), None);
        p.record(OpKind::Filter, 1000, Duration::from_micros(100));
        p.record(OpKind::Join, 500, Duration::from_micros(400));
        let rate = p.ops_per_sec_observed().unwrap();
        assert!((rate - 3_000_000.0).abs() < 1.0, "rate {rate}");
        let mut q = OpProfile::default();
        q.record(OpKind::Filter, 1000, Duration::from_micros(100));
        q.merge(&p);
        assert_eq!(q.meter(OpKind::Filter).deltas, 2000);
        assert_eq!(q.meter(OpKind::Filter).invocations, 2);
        assert_eq!(q.meter(OpKind::Join).busy, Duration::from_micros(400));
    }

    #[test]
    fn renders_are_nonempty_and_structured() {
        let mut report = TelemetryReport {
            boundaries: 3,
            out_of_order_tuples: 2,
            ..Default::default()
        };
        report
            .profile
            .record(OpKind::Filter, 100, Duration::from_micros(50));
        let prom = render_prometheus(&report);
        assert!(prom.contains("aspen_boundaries_total 3"));
        assert!(prom.contains("aspen_out_of_order_tuples_total 2"));
        assert!(prom.contains("# TYPE aspen_ingest_latency_us histogram"));
        assert!(prom.contains("aspen_op_deltas_total{op=\"filter\"} 100"));
        let json = render_json(&report);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"boundaries\":3,\"out_of_order_tuples\":2"));
        assert!(json.contains("\"op\":\"filter\""));
        // Balanced braces/brackets — a cheap structural parse.
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "unbalanced braces"
        );
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }
}
