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
//!   [`OpProfile::ops_per_sec_observed`] rate is exported as the
//!   `ops_per_sec_observed` metric row. It is not yet fed to the
//!   optimizer's cost model.
//! * [`render_prometheus`] / [`render_json`] — one report, two text
//!   formats, no serialization dependencies. Both are generated from the
//!   metric table in [`crate::telemetry`] (one row per metric, one table
//!   per report level): a row's JSON key is its name, and its Prometheus
//!   family is `aspen_<level prefix><name>`, plus `_us` on a histogram
//!   and `_total` on any other counter.

use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use crate::telemetry::{Kind, Level, Reading, TelemetryReport, ENGINE, OPS, QUERIES, SHARDS};

/// Number of log₂ buckets. Bucket 0 holds 0 µs; bucket `b` holds
/// latencies in `[2^(b-1), 2^b)` µs; the last bucket absorbs everything
/// from ~146 hours up.
pub const BUCKETS: usize = 40;
/// The last bucket, whose upper edge is open (`+Inf` in Prometheus).
const TOP: u32 = BUCKETS as u32 - 1;

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
        self as usize
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
    let _ = match labels {
        "" => writeln!(out, "{name} {value}"),
        _ => writeln!(out, "{name}{{{labels}}} {value}"),
    };
}

/// A scalar reading as a Prometheus sample or label value.
fn prom_text(reading: &Reading) -> String {
    match reading {
        Reading::Int(v) => v.to_string(),
        Reading::Float(v, _) => v.to_string(),
        Reading::Flag(b) => u8::from(*b).to_string(),
        Reading::Name(s) => s.to_string(),
        _ => String::new(),
    }
}

/// One item's samples of one family: a name as an info gauge (value 1,
/// the name in a label called after the row), a census per encoding, a
/// histogram as cumulative finite `_bucket`s, one `+Inf`, `_sum`, `_count`.
fn prom_samples(out: &mut String, family: &str, name: &str, labels: &str, reading: &Reading) {
    let with = |extra: String| match labels {
        "" => extra,
        _ => format!("{labels},{extra}"),
    };
    match reading {
        Reading::Name(v) => prom_line(out, family, &with(format!("{name}=\"{v}\"")), 1),
        Reading::Census(census) => {
            for (encoding, bytes) in census.iter() {
                let l = with(format!("encoding=\"{encoding}\""));
                prom_line(out, family, &l, bytes);
            }
        }
        Reading::Histogram(h) => {
            let bucket = format!("{family}_bucket");
            let mut cum = 0u64;
            // The top bucket's edge is open: its rows count under `+Inf`.
            for (b, c) in h.bucket_counts().into_iter().filter(|&(b, _)| b < TOP) {
                cum += c;
                let le = with(format!("le=\"{}\"", bucket_upper_us(b as usize)));
                prom_line(out, &bucket, &le, cum);
            }
            prom_line(out, &bucket, &with("le=\"+Inf\"".into()), h.count());
            prom_line(out, &format!("{family}_sum"), labels, h.sum_us());
            prom_line(out, &format!("{family}_count"), labels, h.count());
        }
        Reading::Missing => {}
        scalar => prom_line(out, family, labels, prom_text(scalar)),
    }
}

fn prom_labels<T>(level: &Level<T>, item: &T) -> String {
    let pairs = (level.labels)(item).into_iter();
    let pairs = pairs.map(|(k, v)| format!("{k}=\"{}\"", prom_text(&v)));
    pairs.collect::<Vec<_>>().join(",")
}

/// Each row of `level` as one Prometheus family: one `# TYPE` line, then
/// every item's samples. The family is `aspen_<level prefix><name>`,
/// plus `_us` on a histogram and `_total` on any other counter.
fn prom_level<T>(out: &mut String, level: &Level<T>, items: &[T]) {
    let labels: Vec<String> = items.iter().map(|item| prom_labels(level, item)).collect();
    for &(name, kind, read) in level.rows {
        let mut family = String::new();
        for (item, labels) in items.iter().zip(&labels) {
            let reading = read(item);
            if family.is_empty() {
                let (suffix, ty) = match (&reading, kind) {
                    (Reading::Histogram(_), _) => ("_us", "histogram"),
                    (_, Kind::Counter) => ("_total", "counter"),
                    _ => ("", "gauge"),
                };
                family = format!("aspen_{}{name}{suffix}", level.prefix);
                let _ = writeln!(out, "# TYPE {family} {ty}");
            }
            prom_samples(out, &family, name, labels, &reading);
        }
    }
}

/// Render a telemetry report as Prometheus text exposition format, one
/// family per row of the metric table (see [`crate::telemetry`]).
pub fn render_prometheus(report: &TelemetryReport) -> String {
    let mut out = String::new();
    prom_level(&mut out, &ENGINE, std::slice::from_ref(report));
    prom_level(&mut out, &SHARDS, &report.shards);
    prom_level(&mut out, &QUERIES, &report.queries);
    prom_level(&mut out, &OPS, &report.profile.iter().collect::<Vec<_>>());
    out
}

fn json_hist(out: &mut String, h: &LatencyHistogram) -> std::fmt::Result {
    let (count, sum, max) = (h.count(), h.sum_us(), h.max_us());
    let (p50, p90, p99) = (h.p50_us(), h.p90_us(), h.p99_us());
    write!(
        out,
        "{{\"count\":{count},\"sum_us\":{sum},\"max_us\":{max},\"p50_us\":{p50},\"p90_us\":{p90},\"p99_us\":{p99},\"buckets\":["
    )?;
    for (i, (b, c)) in h.bucket_counts().into_iter().enumerate() {
        write!(out, "{}[{b},{c}]", if i > 0 { "," } else { "" })?;
    }
    out.write_str("]}")
}

fn json_value(out: &mut String, reading: &Reading) {
    let _ = match reading {
        Reading::Int(v) => write!(out, "{v}"),
        Reading::Float(v, digits) => write!(out, "{v:.digits$}"),
        Reading::Flag(b) => write!(out, "{b}"),
        Reading::Name(s) => write!(out, "\"{s}\""),
        Reading::Histogram(h) => json_hist(out, h),
        Reading::Census(census) => {
            let pairs = census.iter().map(|(e, bytes)| format!("\"{e}\":{bytes}"));
            write!(out, "{{{}}}", pairs.collect::<Vec<_>>().join(","))
        }
        Reading::Missing => write!(out, "null"),
    };
}

/// One item's labels, then its metrics in table order, as `"key":value`
/// pairs.
fn json_fields<T>(out: &mut String, level: &Level<T>, item: &T) {
    let rows = level.rows.iter().map(|&(name, _, read)| (name, read(item)));
    for (i, (key, reading)) in (level.labels)(item).into_iter().chain(rows).enumerate() {
        let _ = write!(out, "{}\"{key}\":", if i > 0 { "," } else { "" });
        json_value(out, &reading);
    }
}

/// `,"key":[{..},..]`: one object per item of a nested level.
fn json_array<T>(out: &mut String, key: &str, level: &Level<T>, items: &[T]) {
    let _ = write!(out, ",\"{key}\":[");
    for (i, item) in items.iter().enumerate() {
        out.push_str(if i > 0 { ",{" } else { "{" });
        json_fields(out, level, item);
        out.push('}');
    }
    out.push(']');
}

/// Render a telemetry report as one JSON object (hand-rolled — the
/// repo's no-external-deps constraint rules out serde): the engine's
/// rows, then the `shards`, `queries` and `ops` arrays.
pub fn render_json(report: &TelemetryReport) -> String {
    let mut out = String::from("{");
    json_fields(&mut out, &ENGINE, report);
    json_array(&mut out, "shards", &SHARDS, &report.shards);
    json_array(&mut out, "queries", &QUERIES, &report.queries);
    let ops: Vec<_> = report.profile.iter().collect();
    json_array(&mut out, "ops", &OPS, &ops);
    out.push('}');
    out
}

/// Both exports of `report` carry every row of every level, for every
/// item: a JSON key per object, and a Prometheus family named by the
/// rule with a sample. Every family has exactly one `# TYPE` line, every
/// counter family ends in `_total` or is a histogram, and the JSON's
/// braces and brackets balance.
#[cfg(test)]
pub(crate) fn assert_exports_cover_the_table(report: &TelemetryReport) {
    use std::collections::HashMap;
    let (prom, json) = (render_prometheus(report), render_json(report));
    for (open, close) in [('{', '}'), ('[', ']')] {
        assert_eq!(json.matches(open).count(), json.matches(close).count());
    }
    let mut types = HashMap::new();
    for line in prom.lines().filter_map(|l| l.strip_prefix("# TYPE ")) {
        let (family, ty) = line.split_once(' ').unwrap();
        assert!(types.insert(family, ty).is_none(), "two TYPEs: {family}");
        assert!(ty != "counter" || family.ends_with("_total"), "{family}");
    }
    for line in prom.lines().filter(|l| !l.starts_with('#')) {
        let name = line.split(['{', ' ']).next().unwrap();
        let typed = types.contains_key(name)
            || ["_bucket", "_sum", "_count"].iter().any(|end| {
                let family = name.strip_suffix(end).unwrap_or_default();
                types.get(family) == Some(&"histogram")
            });
        assert!(typed, "no TYPE line for {line}");
    }
    fn covers<T>(level: &Level<T>, items: &[T], json: &str, types: &HashMap<&str, &str>) {
        assert!(!items.is_empty(), "no {} items to check", level.prefix);
        for &(name, kind, read) in level.rows {
            let keys = json.matches(&format!("\"{name}\":")).count();
            assert_eq!(keys, items.len(), "JSON key {name} of {}", level.prefix);
            let (suffix, ty) = match (read(&items[0]), kind) {
                (Reading::Histogram(_), _) => ("_us", "histogram"),
                (_, Kind::Counter) => ("_total", "counter"),
                _ => ("", "gauge"),
            };
            let family = format!("aspen_{}{name}{suffix}", level.prefix);
            assert_eq!(types.get(family.as_str()), Some(&ty), "{family}");
        }
    }
    let split = |from: &str, to: &str| {
        let start = json.find(from).unwrap() + from.len();
        &json[start..start + json[start..].find(to).unwrap()]
    };
    let engine = split("", "\"shards\":[");
    covers(&ENGINE, std::slice::from_ref(report), engine, &types);
    let shards = split("\"shards\":[", "],\"queries\":[");
    covers(&SHARDS, &report.shards, shards, &types);
    let queries = split("],\"queries\":[", "],\"ops\":[");
    covers(&QUERIES, &report.queries, queries, &types);
    let ops: Vec<_> = report.profile.iter().collect();
    covers(&OPS, &ops, split("],\"ops\":[", "]}"), &types);
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
        // The first `now_us` call of the process reads about 0: wait until
        // the admission tick can be back-dated by the whole hop.
        while now_us() < 5_000 {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
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

    /// Histogram families are in exposition format: cumulative finite
    /// buckets below the open top bucket, exactly one `+Inf` (the
    /// count), and no summary-style quantile samples.
    #[test]
    fn prometheus_histograms_have_one_inf_bucket_and_no_quantiles() {
        let mut report = crate::telemetry::report_from_rows(&[(4, 0, 1)]);
        report.queries[0].latency.record_us(3);
        report.queries[0].latency.record_us(u64::MAX);
        let prom = render_prometheus(&report);
        assert!(!prom.contains("quantile="), "{prom}");
        let buckets: Vec<&str> = prom
            .lines()
            .filter(|l| l.starts_with("aspen_ingest_latency_us_bucket"))
            .collect();
        assert_eq!(
            buckets,
            [
                "aspen_ingest_latency_us_bucket{le=\"3\"} 1",
                "aspen_ingest_latency_us_bucket{le=\"+Inf\"} 2",
            ]
        );
        let query = "aspen_query_latency_us_bucket{query=\"4\",shard=\"0\",le=\"+Inf\"} 2\n";
        assert_eq!(prom.matches(query).count(), 1, "{prom}");
        assert!(prom.contains("aspen_query_latency_us_count{query=\"4\",shard=\"0\"} 2\n"));
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
