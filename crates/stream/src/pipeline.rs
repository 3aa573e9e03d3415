//! Plan compilation: [`LogicalPlan`] → executable operator pipeline.
//!
//! A [`Pipeline`] owns the operator instances of one continuous query,
//! the window operators above each scan, and knows which catalog source
//! feeds each scan. The presentation layers (Sort / Limit / Output) are
//! peeled off the top of the plan into a [`SinkSpec`]; they re-apply per
//! snapshot rather than per delta.
//!
//! Below them, a pipeline whose core is an aggregate — alone or under one
//! projection — can be *read through*, which the engine sets on every
//! such query without a push channel: the aggregate counts the deltas it
//! settles instead of emitting them ([`AggregateOp::count_batch`]), the
//! counts are charged as the emitted deltas would have been, and a read
//! takes the result off the aggregate's slots
//! ([`AggregateOp::shown_rows`]). A standalone pipeline always emits.

use aspen_sql::expr::BoundExpr;
use aspen_sql::plan::LogicalPlan;
use aspen_types::{AspenError, Result, SchemaRef, SimTime, SourceId, Tuple, WindowSpec};

use crate::delta::DeltaBatch;
use crate::grouped::FilterKey;
use crate::operators::{AggregateOp, DeltaOp, FilterOp, JoinOp, ProjectOp, Rows, UnionOp};
use crate::sink::Sink;
use crate::state::{Footprint, StateOptions};
use crate::trace::{OpKind, OpProfile};
use crate::window::{Fed, IndexKey, WindowOp};

/// Where an operator sends its output: another operator's input port, or
/// the sink.
type Attach = Option<(usize, usize)>;

struct NodeEntry {
    op: Box<dyn DeltaOp + Send>,
    parent: Attach,
    /// Operator kind, for the per-kind profile.
    kind: OpKind,
}

impl std::fmt::Debug for NodeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NodeEntry({:?}, parent={:?})", self.kind, self.parent)
    }
}

/// A scan's window stage and where its output flows.
#[derive(Debug)]
struct ScanEntry {
    source: SourceId,
    /// Over a live stream: on a shard, a cursor on the source's log.
    stream: bool,
    window: WindowOp,
    attach: Attach,
    /// The key of the filter `attach` names, when the scan is over a
    /// stream and that filter groups: what the scan's cursor hands its
    /// source log's filter index.
    filter: Option<FilterKey>,
    /// While the scan is a cursor feeding an indexed join side: the slot
    /// of the side's key index on the source's log. Otherwise the
    /// scan's own window keeps the index.
    member: Option<u32>,
}

/// The source logs behind a pipeline's cursor-fed scans: a shard passes
/// its own; off a shard there are none to ask ([`NoLogs`]).
pub(crate) trait Logs {
    /// The tuple at row `row` of `src`'s log.
    fn get(&self, src: SourceId, row: u64) -> Option<Tuple>;

    /// Visit the rows of bucket `hash` of the key index in `slot` of
    /// `src`'s log ([`crate::window::SourceLog::walk`]).
    fn walk(&self, src: SourceId, slot: u32, hash: u64, visit: &mut dyn FnMut(u64) -> bool);

    /// The floor of that key index
    /// ([`crate::window::SourceLog::index_floor`]).
    fn index_floor(&self, src: SourceId, slot: u32) -> u64;
}

/// Where a cursor-fed scan's row ids and key index resolve.
pub(crate) type LogRows<'a> = &'a dyn Logs;

/// No logs: a pipeline off a shard, whose scans window themselves.
pub(crate) struct NoLogs;

impl Logs for NoLogs {
    fn get(&self, _: SourceId, _: u64) -> Option<Tuple> {
        None
    }

    fn walk(&self, _: SourceId, _: u32, _: u64, _: &mut dyn FnMut(u64) -> bool) {}

    fn index_floor(&self, _: SourceId, _: u32) -> u64 {
        0
    }
}

/// What a pipeline's scans window, as its join sides read it: a cursor's
/// rows and key index on its source's log, else the scan's own window's.
struct ScanRows<'a> {
    scans: &'a [ScanEntry],
    logs: LogRows<'a>,
}

impl Rows for ScanRows<'_> {
    fn get(&self, scan: usize, row: u64) -> Option<Tuple> {
        let scan = &self.scans[scan];
        self.logs
            .get(scan.source, row)
            .or_else(|| scan.window.get(row))
    }

    fn walk(&self, scan: usize, hash: u64, visit: &mut dyn FnMut(u64) -> bool) {
        let scan = &self.scans[scan];
        match scan.member {
            Some(slot) => self.logs.walk(scan.source, slot, hash, visit),
            None => scan.window.walk(hash, visit),
        }
    }

    fn index_floor(&self, scan: usize) -> u64 {
        let scan = &self.scans[scan];
        match scan.member {
            Some(slot) => self.logs.index_floor(scan.source, slot),
            None => scan.window.index_floor(),
        }
    }
}

/// The filters of `plan`, a `Filter* → Scan` chain, from the top down.
fn filter_chain(plan: &LogicalPlan) -> Vec<BoundExpr> {
    let mut filters = Vec::new();
    let mut at = plan;
    while let LogicalPlan::Filter { input, predicate } = at {
        filters.push(predicate.clone());
        at = input;
    }
    filters
}

/// Whether `plan` is `Filter* → Scan` of a stream under a window that
/// pins rows: every row reaches the scan through its window (a table's
/// or a view's signed deltas bypass theirs), so the output is addressed
/// and a join side it feeds can keep row ids.
fn is_addressed(plan: &LogicalPlan) -> bool {
    match plan {
        LogicalPlan::Filter { input, .. } => is_addressed(input),
        LogicalPlan::Scan { rel } => rel.meta.kind.is_stream_like() && !rel.window.is_append_only(),
        _ => false,
    }
}

/// Presentation spec extracted from the plan top.
#[derive(Debug, Clone)]
pub struct SinkSpec {
    pub schema: SchemaRef,
    pub sort_keys: Vec<(BoundExpr, bool)>,
    pub limit: Option<u64>,
    pub display: Option<String>,
}

/// One compiled continuous query.
#[derive(Debug)]
pub struct Pipeline {
    nodes: Vec<NodeEntry>,
    scans: Vec<ScanEntry>,
    sink_spec: SinkSpec,
    /// Operator invocations — the CPU-cost proxy used by the stream
    /// optimizer's calibration (E5).
    pub ops_invoked: u64,
    /// Tuples / signed deltas that entered this pipeline's window stages
    /// (telemetry: the query's share of ingest volume). Lives here so a
    /// migrated query carries its history with it.
    pub tuples_in: u64,
    /// Measured per-operator-kind busy timings (and delta counts).
    /// Lives here like the counters, so a migrated query keeps its
    /// profile; busy time only accumulates while `timed` is set.
    pub profile: OpProfile,
    /// Whether `propagate` wall-clocks each operator invocation into
    /// `profile` — the engine sets it on every pipeline it places; off
    /// (standalone `Pipeline::compile`), the profile still counts
    /// invocations/deltas (integer adds) but never reads the clock.
    pub timed: bool,
    /// Artificial per-batch processing drag (slow-consumer injection for
    /// the scheduling tests): each data push sleeps
    /// this long first. Never set in production paths; travels with
    /// migrations like any pipeline state, and is rebuilt away (cleared)
    /// by a pause/resume cycle.
    drag: Option<std::time::Duration>,
    /// The sources of the scans whose windows feed an indexed join side:
    /// signed deltas on one of them name no row.
    indexed: Vec<SourceId>,
    /// The node of the aggregate the result is read off, while the
    /// pipeline reads through (module docs).
    through: Option<usize>,
}

impl Pipeline {
    /// Compile a plan with default (resident) state options.
    pub fn compile(plan: &LogicalPlan) -> Result<Pipeline> {
        Pipeline::compile_with(plan, &StateOptions::default())
    }

    /// Compile a plan. Sort/Limit/Output must appear only at the top
    /// (which is how the binder builds plans); RecursiveRef is rejected —
    /// recursive views compile through `recursive::RecursiveView` instead.
    /// `opts` carries the spill policy of every stateful operator —
    /// window buffers and join state.
    pub fn compile_with(plan: &LogicalPlan, opts: &StateOptions) -> Result<Pipeline> {
        // Peel presentation operators off the top.
        let mut sort_keys = Vec::new();
        let mut limit = None;
        let mut display = None;
        let mut core = plan;
        loop {
            match core {
                LogicalPlan::Output { input, display: d } => {
                    display = Some(d.clone());
                    core = input;
                }
                LogicalPlan::Limit { input, n } => {
                    limit = Some(*n);
                    core = input;
                }
                LogicalPlan::Sort { input, keys } => {
                    sort_keys = keys.clone();
                    core = input;
                }
                _ => break,
            }
        }
        let mut pipeline = Pipeline {
            nodes: Vec::new(),
            scans: Vec::new(),
            sink_spec: SinkSpec {
                schema: core.schema(),
                sort_keys,
                limit,
                display,
            },
            ops_invoked: 0,
            tuples_in: 0,
            profile: OpProfile::default(),
            timed: false,
            drag: None,
            indexed: Vec::new(),
            through: None,
        };
        pipeline.build(core, None, opts, false)?;
        pipeline.indexed.sort_unstable();
        pipeline.indexed.dedup();
        Ok(pipeline)
    }

    /// Inject (or clear) an artificial per-batch processing drag — the
    /// slow-operator stand-in used to prove slow-query isolation.
    pub fn set_drag(&mut self, drag: Option<std::time::Duration>) {
        self.drag = drag;
    }

    fn pay_drag(&self) {
        if let Some(d) = self.drag {
            std::thread::sleep(d);
        }
    }

    pub fn sink_spec(&self) -> &SinkSpec {
        &self.sink_spec
    }

    /// Fresh sink matching this pipeline's presentation spec.
    pub fn make_sink(&self) -> Sink {
        Sink::new(
            self.sink_spec.schema.clone(),
            self.sink_spec.sort_keys.clone(),
            self.sink_spec.limit,
            self.sink_spec.display.clone(),
        )
    }

    /// Distinct source ids scanned by this pipeline. A source scanned
    /// under several aliases appears once: `push_source` already feeds
    /// every scan bound to it, so callers replaying retained data must
    /// push per *source*, not per scan.
    pub fn sources(&self) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = self.scans.iter().map(|s| s.source).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Whether some scan reads `src`.
    pub(crate) fn scans(&self, src: SourceId) -> bool {
        self.scans.iter().any(|s| s.source == src)
    }

    /// Whether any scan's window reacts to the passage of time. The
    /// engine skips heartbeats for pipelines that don't.
    pub fn needs_clock(&self) -> bool {
        self.scans.iter().any(|s| s.window.needs_clock())
    }

    /// Build `plan` under `parent`; `indexed`: its output feeds an
    /// indexed join side, the only reader of a filter's row ids.
    fn build(
        &mut self,
        plan: &LogicalPlan,
        parent: Attach,
        opts: &StateOptions,
        indexed: bool,
    ) -> Result<()> {
        match plan {
            LogicalPlan::Scan { rel } => {
                self.scans.push(ScanEntry {
                    source: rel.meta.id,
                    stream: rel.meta.kind.is_stream_like(),
                    window: WindowOp::with_options(rel.window, opts),
                    attach: parent,
                    filter: None,
                    member: None,
                });
                Ok(())
            }
            LogicalPlan::Filter { input, predicate } => {
                let idx = self.push_node(
                    Box::new(FilterOp {
                        predicate: predicate.clone(),
                        keep_ids: indexed,
                    }),
                    parent,
                    OpKind::Filter,
                );
                self.build(input, Some((idx, 0)), opts, indexed)?;
                // Directly above a stream scan, and keeping no ids for a
                // join side: the scan's log may run this filter instead.
                if let LogicalPlan::Scan { rel } = &**input {
                    if rel.meta.kind.is_stream_like() && !indexed {
                        let scan = self.scans.last_mut().expect("built just now");
                        scan.filter = FilterKey::of(predicate);
                    }
                }
                Ok(())
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let idx = self.push_node(
                    Box::new(ProjectOp::new(exprs.clone(), input.schema().len())),
                    parent,
                    OpKind::Project,
                );
                self.build(input, Some((idx, 0)), opts, false)
            }
            LogicalPlan::Join {
                left,
                right,
                keys,
                residual,
                ..
            } => {
                // The scans below are numbered as they are built: the
                // left subtree's first, then the right's.
                let next = self.scans.len();
                let scans = [
                    is_addressed(left).then_some(next),
                    is_addressed(right).then_some(next + left.scans().len()),
                ];
                let join = JoinOp::over_scans(keys.clone(), residual.clone(), opts, scans);
                let idx = self.push_node(Box::new(join), parent, OpKind::Join);
                self.build(left, Some((idx, 0)), opts, scans[0].is_some())?;
                self.build(right, Some((idx, 1)), opts, scans[1].is_some())?;
                // Each indexed side asks the window under its scan for the
                // key index of its key columns and filter chain.
                for (port, (side, scan)) in [left, right].into_iter().zip(scans).enumerate() {
                    let Some(scan) = scan else { continue };
                    let cols = keys.iter().map(|&(l, r)| if port == 0 { l } else { r });
                    let key = IndexKey {
                        cols: cols.collect(),
                        filters: filter_chain(side),
                    };
                    self.scans[scan].window.index_by(key);
                    self.indexed.push(self.scans[scan].source);
                }
                Ok(())
            }
            LogicalPlan::Aggregate {
                input, group, aggs, ..
            } => {
                let idx = self.push_node(
                    Box::new(AggregateOp::new(group.clone(), aggs.clone())),
                    parent,
                    OpKind::Aggregate,
                );
                self.build(input, Some((idx, 0)), opts, false)
            }
            LogicalPlan::Union { inputs, .. } => {
                let idx = self.push_node(Box::new(UnionOp), parent, OpKind::Union);
                for (port, i) in inputs.iter().enumerate() {
                    self.build(i, Some((idx, port)), opts, false)?;
                }
                Ok(())
            }
            LogicalPlan::RecursiveRef { name, .. } => Err(AspenError::NotExecutable(format!(
                "recursive reference '{name}' cannot run in a flat pipeline; \
                 register the view with the engine instead"
            ))),
            LogicalPlan::Sort { .. } | LogicalPlan::Limit { .. } | LogicalPlan::Output { .. } => {
                Err(AspenError::NotExecutable(
                    "Sort/Limit/Output are only supported at the plan root".into(),
                ))
            }
        }
    }

    fn push_node(&mut self, op: Box<dyn DeltaOp + Send>, parent: Attach, kind: OpKind) -> usize {
        self.nodes.push(NodeEntry { op, parent, kind });
        self.nodes.len() - 1
    }

    /// Read the result off the core aggregate from now on, when the core
    /// (the plan below ORDER BY / LIMIT / OUTPUT) is a grouped or global
    /// aggregate, alone or under one projection; any other shape keeps
    /// emitting. Before [`Pipeline::start`].
    pub(crate) fn read_through(&mut self) {
        let node = |i: usize| self.nodes.get(i).map(|n| (n.kind, n.parent));
        self.through = match (node(0), node(1)) {
            (Some((OpKind::Aggregate, None)), _) => Some(0),
            (Some((OpKind::Project, None)), Some((OpKind::Aggregate, Some((0, 0))))) => Some(1),
            _ => None,
        };
    }

    /// Whether the result is read off the aggregate.
    #[cfg(test)]
    pub(crate) fn reads_through(&self) -> bool {
        self.through.is_some()
    }

    /// The rows a read-through result holds — the multiset an emitting
    /// sink would, once each — or `None` when the pipeline emits.
    pub(crate) fn shown(&mut self) -> Result<Option<Vec<Tuple>>> {
        let Some(at) = self.through else {
            return Ok(None);
        };
        let (above, below) = self.nodes.split_at_mut(at);
        let project = above.first().and_then(|n| n.op.projection());
        let agg = below[0].op.aggregate().expect("read through an aggregate");
        let rows = agg.shown_rows(|row| match project {
            Some(p) => p.map(row),
            None => Ok(row),
        })?;
        Ok(Some(rows))
    }

    /// Stop reading through, for a push channel, which needs deltas: fill
    /// `sink`'s multiset with the rows the result holds, and emit from
    /// now on. One way; a no-op on a pipeline that emits.
    pub(crate) fn emit_into(&mut self, sink: &mut Sink) -> Result<()> {
        let Some(rows) = self.shown()? else {
            return Ok(());
        };
        sink.fill(rows);
        let at = self.through.take().expect("read through above");
        self.aggregate_at(at).forget_rows();
        Ok(())
    }

    /// The aggregate at node `at`, which the result is read off.
    fn aggregate_at(&mut self, at: usize) -> &mut AggregateOp {
        let op = self.nodes[at].op.aggregate();
        op.expect("a read-through node is an aggregate")
    }

    /// Emit operators' initial deltas (global aggregates) into the sink —
    /// or, reading through, count them.
    pub fn start(&mut self, sink: &mut Sink) -> Result<()> {
        for i in 0..self.nodes.len() {
            if Some(i) == self.through {
                let n = self.aggregate_at(i).count_initial();
                self.charge(self.nodes[i].parent, n, sink);
                continue;
            }
            let init = self.nodes[i].op.initial().consolidated();
            self.run(self.nodes[i].parent, &init, sink, &NoLogs)?;
        }
        Ok(())
    }

    /// Feed newly arrived tuples from `source` through every scan bound
    /// to it, as one batch per scan.
    pub fn push_source(
        &mut self,
        source: SourceId,
        tuples: &[Tuple],
        sink: &mut Sink,
    ) -> Result<()> {
        self.push_source_over(source, tuples, sink, &NoLogs)
    }

    /// [`Pipeline::push_source`] on a shard, where the pipeline's other
    /// scans may be cursors on the logs behind `logs`.
    pub(crate) fn push_source_over(
        &mut self,
        source: SourceId,
        tuples: &[Tuple],
        sink: &mut Sink,
        logs: LogRows,
    ) -> Result<()> {
        self.pay_drag();
        for i in 0..self.scans.len() {
            if self.scans[i].source != source {
                continue;
            }
            self.tuples_in += tuples.len() as u64;
            let mut batch = DeltaBatch::with_capacity(tuples.len());
            self.scans[i].window.insert_batch(tuples, &mut batch);
            self.run(self.scans[i].attach, &batch, sink, logs)?;
        }
        Ok(())
    }

    /// The `(scan index, source, window spec)` of every scan over a live
    /// stream — whatever its window spec, joins and self-joins included:
    /// the scans a shard attaches as cursors on their sources' logs.
    /// Tables and views replay retained state into each new registration,
    /// state a shared log must not absorb, so their scans keep private
    /// windows.
    pub(crate) fn stream_scans(&self) -> impl Iterator<Item = (usize, SourceId, WindowSpec)> + '_ {
        let scans = self.scans.iter().enumerate().filter(|(_, s)| s.stream);
        scans.map(|(i, s)| (i, s.source, s.window.spec()))
    }

    /// Scans whose rows this pipeline's own window stages hold: on a
    /// shard, its table and view scans (its stream scans are cursors).
    pub(crate) fn private_windows(&self) -> usize {
        self.scans.iter().filter(|s| !s.stream).count()
    }

    /// The grouping key of scan `scan`'s leading filter: a filter directly
    /// above a stream scan, keeping no row ids, whose predicate is `col
    /// op constant` ([`FilterKey::of`]).
    pub(crate) fn leading_filter(&self, scan: usize) -> Option<&FilterKey> {
        self.scans[scan].filter.as_ref()
    }

    /// Whether a log's filter index runs one of this pipeline's filters
    /// while it is routed on a shard.
    pub(crate) fn grouped_filter(&self) -> bool {
        self.scans.iter().any(|s| s.filter.is_some())
    }

    /// The sources whose windows this pipeline indexes in a join side,
    /// ascending: signed deltas on them are refused at admission.
    pub(crate) fn indexed_sources(&self) -> &[SourceId] {
        &self.indexed
    }

    /// The key index the join side scan `scan` feeds asks for, if it
    /// feeds an indexed side: what the scan's cursor joins on its log.
    pub(crate) fn join_index(&self, scan: usize) -> Option<&IndexKey> {
        self.scans[scan].window.index_key()
    }

    /// Read scan `scan`'s key index off its source log's `slot` from now
    /// on (`None`: off the scan's own window) — set as its cursor joins
    /// or leaves the log.
    pub(crate) fn set_member(&mut self, scan: usize, slot: Option<u32>) {
        self.scans[scan].member = slot;
    }

    /// Feed what the log steps of one source batch fed this pipeline's
    /// cursor-fed scans — one `(scan index, fed)` each, in scan order —
    /// past its own window stages (which stay empty while the scans are
    /// cursors on a source log). Everything is borrowed: the log stepped
    /// each class batch once for all its members, and probed each grouped
    /// filter once for its group, so this query's cost starts at its
    /// first operator, or past its grouped filter. `charge` is the raw
    /// source-batch size to account to `tuples_in` per scan, the same
    /// number `push_source` would have charged.
    pub(crate) fn push_windowed(
        &mut self,
        fed: &mut dyn Iterator<Item = (usize, Fed<'_>)>,
        charge: u64,
        sink: &mut Sink,
        logs: LogRows,
    ) -> Result<()> {
        self.pay_drag();
        for (scan, fed) in fed {
            self.tuples_in += charge;
            self.feed(scan, fed, sink, logs)?;
        }
        Ok(())
    }

    /// Run scan `scan`'s share of a log step: the class batch from the
    /// scan's first operator or — when the log grouped the scan's leading
    /// filter — the filter's output from the filter's parent, the filter
    /// hop charged exactly as running it would have been (the whole class
    /// batch in `ops_invoked` and the profile, the error it would have
    /// raised) with its share of the probe's busy time.
    fn feed(&mut self, scan: usize, fed: Fed, sink: &mut Sink, logs: LogRows) -> Result<()> {
        let attach = self.scans[scan].attach;
        let (Some(filtered), Some((filter, _))) = (fed.filtered, attach) else {
            return self.run(attach, fed.window, sink, logs);
        };
        debug_assert_eq!(self.nodes[filter].kind, OpKind::Filter);
        let deltas = fed.window.len() as u64;
        self.ops_invoked += deltas;
        let out = filtered.out.as_ref().map_err(AspenError::clone)?;
        let busy = if self.timed {
            filtered.busy
        } else {
            std::time::Duration::ZERO
        };
        self.profile.record(OpKind::Filter, deltas, busy);
        self.run(self.nodes[filter].parent, out, sink, logs)
    }

    /// Operator node instances owned by this pipeline (resident-state
    /// accounting; scans/windows are counted separately).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Tuples buffered across this pipeline's own window stages. A
    /// cursor-fed scan contributes zero — its tuples live on the source
    /// log.
    pub fn buffered_window_tuples(&self) -> usize {
        self.scans.iter().map(|s| s.window.live()).sum()
    }

    /// What this pipeline's stateful stages hold: window buffers plus
    /// every operator's private state (join sides, aggregate groups).
    pub fn footprint(&self) -> Footprint {
        let windows = self.scans.iter().map(|s| s.window.footprint());
        let ops = self.nodes.iter().map(|n| n.op.footprint());
        windows.chain(ops).sum()
    }

    /// Live aggregate groups across this pipeline's operators.
    pub fn groups(&self) -> usize {
        self.nodes.iter().map(|n| n.op.groups()).sum()
    }

    /// Feed a signed batch (view output, table updates) from `source` into
    /// every scan bound to it, consolidated once and its raw length charged
    /// to `tuples_in` per scan, as a shard does. Retractions bypass windows.
    pub fn push_deltas(
        &mut self,
        source: SourceId,
        deltas: &DeltaBatch,
        sink: &mut Sink,
    ) -> Result<()> {
        let charge = deltas.len() as u64;
        let deltas = deltas.clone().consolidated();
        self.push_deltas_over(source, &deltas, charge, sink, &NoLogs)
    }

    /// [`Pipeline::push_deltas`] on a shard, which consolidated `deltas`
    /// once for all its subscribers and charges `charge` per scan.
    pub(crate) fn push_deltas_over(
        &mut self,
        source: SourceId,
        deltas: &DeltaBatch,
        charge: u64,
        sink: &mut Sink,
        logs: LogRows,
    ) -> Result<()> {
        self.pay_drag();
        for i in 0..self.scans.len() {
            if self.scans[i].source != source {
                continue;
            }
            self.tuples_in += charge;
            self.run(self.scans[i].attach, deltas, sink, logs)?;
        }
        Ok(())
    }

    /// Advance the clock: expire windows and propagate retractions.
    pub fn advance_time(&mut self, now: SimTime, sink: &mut Sink) -> Result<()> {
        self.advance_scans(now, &[], sink, &NoLogs)
    }

    /// [`Pipeline::advance_time`] for a pipeline with cursor-fed scans:
    /// `expired` holds what their source logs' steps for this clock fed
    /// the scans whose classes expired something, by scan index. Each
    /// scan propagates in scan order whichever side windowed it — a
    /// cursor-fed scan's own window is empty, so the two never both
    /// fire.
    pub(crate) fn advance_scans(
        &mut self,
        now: SimTime,
        expired: &[(usize, Fed)],
        sink: &mut Sink,
        logs: LogRows,
    ) -> Result<()> {
        for i in 0..self.scans.len() {
            let attach = self.scans[i].attach;
            if let Some(&(_, fed)) = expired.iter().find(|(scan, _)| *scan == i) {
                self.feed(i, fed, sink, logs)?;
            }
            let mut batch = DeltaBatch::new();
            self.scans[i].window.advance(now, &mut batch);
            self.run(attach, &batch, sink, logs)?;
        }
        Ok(())
    }

    /// Run a batch from `start` to the sink: a window step's (net by
    /// row, so nothing that cancels within a push touches an operator)
    /// or one the shard consolidated once (a table's, a view's). The
    /// first hop only borrows it, so one batch serves every subscriber.
    /// `ops_invoked` counts one unit per *delta* per operator, so the
    /// optimizer's CPU-cost calibration is unchanged by batching. `logs`
    /// is where the ids of cursor-fed scans resolve. Reading through, the
    /// run ends at the aggregate, which counts what it settles, and
    /// [`Pipeline::charge`] charges the rest of the way.
    fn run(
        &mut self,
        start: Attach,
        first: &DeltaBatch,
        sink: &mut Sink,
        logs: LogRows,
    ) -> Result<()> {
        let mut attach = start;
        let mut produced: Option<DeltaBatch> = None;
        loop {
            let batch = produced.as_ref().unwrap_or(first);
            if batch.is_empty() {
                return Ok(());
            }
            let Some((idx, port)) = attach else {
                sink.apply(batch);
                return Ok(());
            };
            let deltas = batch.len() as u64;
            self.ops_invoked += deltas;
            let t0 = self.timed.then(std::time::Instant::now);
            if Some(idx) == self.through {
                let counted = self.aggregate_at(idx).count_batch(batch)?;
                let busy = t0.map_or(std::time::Duration::ZERO, |t0| t0.elapsed());
                self.profile.record(OpKind::Aggregate, deltas, busy);
                self.charge(self.nodes[idx].parent, counted, sink);
                return Ok(());
            }
            // The rows behind addressed batches (stream scans' only): on a
            // shard, where the scans are cursors, their sources' logs; off
            // one, the scans' own windows.
            let rows = ScanRows {
                scans: &self.scans,
                logs,
            };
            let out = self.nodes[idx].op.process_rows(port, batch, &rows)?;
            let busy = t0.map_or(std::time::Duration::ZERO, |t0| t0.elapsed());
            self.profile.record(self.nodes[idx].kind, deltas, busy);
            produced = Some(out);
            attach = self.nodes[idx].parent;
        }
    }

    /// Charge `n` deltas a read-through aggregate counted, from `attach`
    /// to the sink, as running them would have been: to `ops_invoked`
    /// and one profile invocation of the projection above (with no busy
    /// time: logical cost is counted, nothing ran), and to the sink's
    /// `deltas_applied`.
    fn charge(&mut self, attach: Attach, n: u64, sink: &mut Sink) {
        if n == 0 {
            return;
        }
        if let Some((idx, _)) = attach {
            self.ops_invoked += n;
            let zero = std::time::Duration::ZERO;
            self.profile.record(self.nodes[idx].kind, n, zero);
        }
        sink.count(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_catalog::Catalog;
    use aspen_sql::{compile, BoundQuery};
    use aspen_types::{SimDuration, Value};

    fn catalog() -> Catalog {
        // Reuse the SmartCIS-shaped catalog from the sql crate's tests by
        // rebuilding the minimum needed here.
        use aspen_catalog::{DeviceClass, SourceKind, SourceStats};
        use aspen_types::{DataType, Field, Schema};
        let cat = Catalog::new();
        let temp = Schema::new(vec![
            Field::new("room", DataType::Text),
            Field::new("desk", DataType::Int),
            Field::new("temp", DataType::Float),
        ])
        .into_ref();
        cat.register_source(
            "TempSensors",
            temp,
            SourceKind::Device(DeviceClass::new(&["temp"], SimDuration::from_secs(10), 4)),
            SourceStats::stream(0.4),
        )
        .unwrap();
        let machines = Schema::new(vec![
            Field::new("room", DataType::Text),
            Field::new("desk", DataType::Int),
            Field::new("software", DataType::Text),
        ])
        .into_ref();
        cat.register_source(
            "Machines",
            machines,
            SourceKind::Table,
            SourceStats::table(4),
        )
        .unwrap();
        cat
    }

    fn row(room: &str, desk: i64, temp: f64, secs: u64) -> Tuple {
        Tuple::new(
            vec![
                Value::Text(room.into()),
                Value::Int(desk),
                Value::Float(temp),
            ],
            SimTime::from_secs(secs),
        )
    }

    #[test]
    fn filter_project_pipeline_end_to_end() {
        let cat = catalog();
        let BoundQuery::Select(b) =
            compile("select t.desk from TempSensors t where t.temp > 90", &cat).unwrap()
        else {
            panic!()
        };
        let mut p = Pipeline::compile(&b.plan).unwrap();
        let mut sink = p.make_sink();
        p.start(&mut sink).unwrap();
        let src = cat.source("TempSensors").unwrap().id;
        p.push_source(
            src,
            &[row("a", 1, 95.0, 1), row("a", 2, 60.0, 1)],
            &mut sink,
        )
        .unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].values(), &[Value::Int(1)]);
    }

    #[test]
    fn window_expiry_flows_through_aggregate() {
        let cat = catalog();
        let BoundQuery::Select(b) = compile(
            "select t.room, avg(t.temp) from TempSensors t group by t.room",
            &cat,
        )
        .unwrap() else {
            panic!()
        };
        let mut p = Pipeline::compile(&b.plan).unwrap();
        let mut sink = p.make_sink();
        p.start(&mut sink).unwrap();
        let src = cat.source("TempSensors").unwrap().id;
        // Device window defaults to 10 s (one epoch).
        p.push_source(src, &[row("lab", 1, 80.0, 1)], &mut sink)
            .unwrap();
        p.push_source(src, &[row("lab", 2, 100.0, 5)], &mut sink)
            .unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].values()[1], Value::Float(90.0));
        // Advance past the first reading's expiry: avg becomes 100.
        p.advance_time(SimTime::from_secs(12), &mut sink).unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap[0].values()[1], Value::Float(100.0));
        // Advance past everything: group disappears.
        p.advance_time(SimTime::from_secs(30), &mut sink).unwrap();
        assert!(sink.snapshot().unwrap().is_empty());
    }

    #[test]
    fn stream_table_join() {
        let cat = catalog();
        let BoundQuery::Select(b) = compile(
            "select m.software from TempSensors t, Machines m \
             where t.desk = m.desk ^ t.temp > 90",
            &cat,
        )
        .unwrap() else {
            panic!()
        };
        let mut p = Pipeline::compile(&b.plan).unwrap();
        let mut sink = p.make_sink();
        p.start(&mut sink).unwrap();
        let temp_id = cat.source("TempSensors").unwrap().id;
        let mach_id = cat.source("Machines").unwrap().id;
        // Load the table side.
        let m = Tuple::new(
            vec![
                Value::Text("lab".into()),
                Value::Int(1),
                Value::Text("Fedora".into()),
            ],
            SimTime::ZERO,
        );
        p.push_source(mach_id, &[m], &mut sink).unwrap();
        assert!(sink.snapshot().unwrap().is_empty());
        // Hot reading on desk 1 joins.
        p.push_source(temp_id, &[row("lab", 1, 99.0, 2)], &mut sink)
            .unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].values(), &[Value::Text("Fedora".into())]);
        // Expiring the reading retracts the join result.
        p.advance_time(SimTime::from_secs(13), &mut sink).unwrap();
        assert!(sink.snapshot().unwrap().is_empty());
    }

    #[test]
    fn global_count_starts_at_zero() {
        let cat = catalog();
        let BoundQuery::Select(b) = compile("select count(*) from TempSensors t", &cat).unwrap()
        else {
            panic!()
        };
        let mut p = Pipeline::compile(&b.plan).unwrap();
        let mut sink = p.make_sink();
        p.start(&mut sink).unwrap();
        let snap = sink.snapshot().unwrap();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].values(), &[Value::Int(0)]);
        let src = cat.source("TempSensors").unwrap().id;
        p.push_source(src, &[row("a", 1, 50.0, 1)], &mut sink)
            .unwrap();
        assert_eq!(sink.snapshot().unwrap()[0].values(), &[Value::Int(1)]);
    }

    /// Run every filter of `sql`'s pipeline on an addressed window step
    /// and report, per filter, the kind of its parent and whether its
    /// output kept the row ids.
    fn filter_outputs(sql: &str) -> Vec<(Option<OpKind>, bool)> {
        let cat = catalog();
        let BoundQuery::Select(b) = compile(sql, &cat).unwrap() else {
            panic!()
        };
        let mut p = Pipeline::compile(&b.plan).unwrap();
        let mut step = DeltaBatch::new();
        let mut window = WindowOp::new(WindowSpec::Rows(10));
        window.insert_batch(&[row("a", 1, 95.0, 1), row("b", 2, 99.0, 1)], &mut step);
        assert!(step.row_ids().is_some(), "window steps are addressed");
        let parents: Vec<Option<OpKind>> = p
            .nodes
            .iter()
            .map(|n| n.parent.map(|(i, _)| p.nodes[i].kind))
            .collect();
        let nodes = p.nodes.iter_mut().zip(parents);
        let filters = nodes.filter(|(n, _)| n.kind == OpKind::Filter);
        let run = |(n, parent): (&mut NodeEntry, _)| {
            let out = n.op.process_batch(0, &step).unwrap();
            assert_eq!(out.len(), 2);
            (parent, out.row_ids().is_some())
        };
        filters.map(run).collect()
    }

    /// Only a filter feeding an indexed join side carries row ids on; an
    /// aggregate (or anything else) never reads them.
    #[test]
    fn filters_keep_row_ids_only_for_indexed_join_sides() {
        let agg = filter_outputs(
            "select t.room, count(*) from TempSensors t [rows 10] \
             where t.temp > 90 group by t.room",
        );
        assert_eq!(agg, vec![(Some(OpKind::Aggregate), false)]);
        let join = filter_outputs(
            "select a.room, b.room from TempSensors a [rows 10], TempSensors b [rows 10] \
             where a.desk = b.desk ^ a.temp > 90",
        );
        assert_eq!(join, vec![(Some(OpKind::Join), true)]);
    }

    #[test]
    fn recursive_ref_rejected() {
        use aspen_sql::plan::LogicalPlan as LP;
        use aspen_types::Schema;
        let plan = LP::RecursiveRef {
            name: "v".into(),
            schema: Schema::empty().into_ref(),
        };
        assert!(Pipeline::compile(&plan).is_err());
    }
}
