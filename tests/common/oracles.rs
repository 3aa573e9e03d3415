//! The two oracles every engine configuration is checked against.
//!
//! * [`Model`] evaluates each query naively: a window per scan by its
//!   spec's definition, then a nested-loop interpreter over the bound
//!   [`LogicalPlan`] — no engine code below the binder's expressions.
//! * [`Private`] runs the private path outside any engine: one
//!   standalone [`Pipeline`] and [`Sink`] per query, tables replayed from
//!   a [`BagState`], views from standalone [`RecursiveView`]s. After every
//!   event each view over unwindowed tables alone must equal one built
//!   fresh from those tables (*cut = fresh* for views).

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use smartcis::catalog::{Catalog, SourceKind, SourceStats};
use smartcis::sql::binder::BoundView;
use smartcis::sql::expr::{AggFunc, BoundAgg};
use smartcis::sql::plan::LogicalPlan;
use smartcis::sql::{compile, BoundQuery};
use smartcis::stream::pipeline::Pipeline;
use smartcis::stream::state::BagState;
use smartcis::stream::{DeltaBatch, OpProfile, RecursiveView, ResidentState, Sink};
use smartcis::types::{AspenError, DataType, Result, SimTime, SourceId, Tuple, Value, WindowSpec};

use super::{sorted, Op, Seen, SlotSeen, SlotState, System};

type Observed = std::result::Result<Seen, (&'static str, String)>;

fn select(sql: &str, catalog: &Catalog) -> Result<LogicalPlan> {
    match compile(sql, catalog)? {
        BoundQuery::Select(b) => Ok(b.plan),
        _ => Err(AspenError::InvalidArgument(format!(
            "`{sql}` is not a select"
        ))),
    }
}

// ---------------------------------------------------------------------------
// The model.

/// One scan's window by its spec's definition: the last `n` arrivals;
/// the arrivals left once the out-of-range *prefix* is dropped at each
/// heartbeat (a late row behind a live one stays); the arrivals since
/// the last pane change; everything. Signed deltas (a table's) bypass it.
struct Window {
    source: SourceId,
    spec: WindowSpec,
    live: Vec<Tuple>,
    pane: Option<u64>,
}

impl Window {
    fn insert(&mut self, batch: &[Tuple]) {
        for t in batch {
            if let WindowSpec::Tumbling(w) = self.spec {
                let pane = t.timestamp().as_micros() / w.as_micros();
                if self.pane.is_some_and(|current| current != pane) {
                    self.live.clear();
                }
                self.pane = Some(pane);
            }
            self.live.push(t.clone());
            if let WindowSpec::Rows(n) = self.spec {
                self.live
                    .drain(..self.live.len().saturating_sub(n as usize));
            }
        }
    }

    fn apply(&mut self, deltas: &DeltaBatch) {
        for d in deltas {
            for _ in 0..d.sign.unsigned_abs() {
                if d.sign > 0 {
                    self.live.push(d.tuple.clone());
                } else if let Some(at) = self.live.iter().position(|t| *t == d.tuple) {
                    self.live.remove(at);
                }
            }
        }
    }

    fn advance(&mut self, now: SimTime) {
        match self.spec {
            WindowSpec::Range(_) => {
                let keep = self
                    .live
                    .iter()
                    .position(|t| self.spec.contains(t.timestamp(), now));
                self.live.drain(..keep.unwrap_or(self.live.len()));
            }
            WindowSpec::Tumbling(w)
                if self
                    .pane
                    .is_some_and(|p| now.as_micros() / w.as_micros() > p) =>
            {
                self.live.clear();
                self.pane = Some(now.as_micros() / w.as_micros());
            }
            _ => {}
        }
    }
}

struct ModelQuery {
    plan: LogicalPlan,
    sql: String,
    windows: Vec<Window>,
    paused: bool,
}

/// Naive multiset evaluation of Scan / Filter / Project / Join /
/// Aggregate plans over stream scans and unbounded table scans.
pub struct Model {
    catalog: Arc<Catalog>,
    tables: HashMap<SourceId, Vec<Tuple>>,
    slots: BTreeMap<usize, ModelQuery>,
}

impl Model {
    pub fn new(catalog: Arc<Catalog>) -> Model {
        Model {
            catalog,
            tables: HashMap::new(),
            slots: BTreeMap::new(),
        }
    }

    /// Fresh windows for `plan`'s scans, in scan order: streams start
    /// empty, a table scan holds what the table holds.
    fn windows(&self, plan: &LogicalPlan) -> Vec<Window> {
        let window = |rel: &&smartcis::sql::plan::Relation| {
            let (source, spec) = (rel.meta.id, rel.window);
            let mut w = Window {
                source,
                spec,
                live: Vec::new(),
                pane: None,
            };
            w.insert(self.tables.get(&source).map_or(&[], Vec::as_slice));
            w
        };
        plan.scans().iter().map(window).collect()
    }

    /// The windows of the live queries over `source`.
    fn live(&mut self, source: SourceId) -> impl Iterator<Item = &mut Window> {
        let live = self.slots.values_mut().filter(|q| !q.paused);
        live.flat_map(|q| &mut q.windows)
            .filter(move |w| w.source == source)
    }
}

impl System for Model {
    fn label(&self) -> String {
        "Model".into()
    }

    fn apply(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::Ingest(source, tuples) => {
                let meta = self.catalog.source(source)?;
                if meta.kind == SourceKind::Table {
                    self.tables
                        .entry(meta.id)
                        .or_default()
                        .extend_from_slice(tuples);
                }
                self.live(meta.id).for_each(|w| w.insert(tuples));
            }
            Op::Deltas(source, deltas) => {
                let source = self.catalog.source(source)?.id;
                let live = self.tables.remove(&source).unwrap_or_default();
                let mut table = Window {
                    source,
                    spec: WindowSpec::Unbounded,
                    live,
                    pane: None,
                };
                table.apply(deltas);
                self.tables.insert(source, table.live);
                self.live(source).for_each(|w| w.apply(deltas));
            }
            Op::Heartbeat(now) => {
                let live = self.slots.values_mut().filter(|q| !q.paused);
                live.flat_map(|q| &mut q.windows)
                    .for_each(|w| w.advance(*now));
            }
            Op::Register(slot, sql, _) => {
                let plan = select(sql, &self.catalog)?;
                let (windows, sql) = (self.windows(&plan), sql.clone());
                self.slots.insert(
                    *slot,
                    ModelQuery {
                        plan,
                        sql,
                        windows,
                        paused: false,
                    },
                );
            }
            Op::Deregister(slot) => drop(self.slots.remove(slot)),
            Op::Pause(slot) => self.slots.get_mut(slot).unwrap().paused = true,
            Op::Resume(slot) => {
                let windows = self.windows(&self.slots[slot].plan);
                let q = self.slots.get_mut(slot).unwrap();
                (q.windows, q.paused) = (windows, false);
            }
            Op::View(_) | Op::Migrate(..) | Op::Subscribe(_) | Op::Tune(..) | Op::Read(..) => {}
        }
        Ok(())
    }

    fn observe(&mut self, _: &BTreeMap<usize, SlotState>) -> Observed {
        let mut seen = Seen::default();
        for (&slot, q) in &self.slots {
            if let Some(why) = uncovered(&q.plan) {
                return Err(("model", format!("`{}` is outside the model: {why}", q.sql)));
            }
            let rows = eval(&q.plan, &q.windows, &mut 0).map_err(|e| ("model", e.to_string()))?;
            let rows = sorted(rows.into_iter().map(Cow::into_owned).collect());
            seen.slots.insert(slot, SlotSeen { rows, load: None });
        }
        Ok(seen)
    }
}

/// What of `plan` the model does not evaluate, if anything.
fn uncovered(plan: &LogicalPlan) -> Option<&'static str> {
    match plan {
        LogicalPlan::Scan { rel } => match rel.meta.kind {
            SourceKind::View => Some("a view scan"),
            SourceKind::Table if !rel.window.is_append_only() => Some("a windowed table scan"),
            _ => None,
        },
        LogicalPlan::Filter { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Output { input, .. } => uncovered(input),
        LogicalPlan::Join { left, right, .. } => uncovered(left).or_else(|| uncovered(right)),
        LogicalPlan::Limit { .. } => Some("LIMIT"),
        LogicalPlan::Union { .. } => Some("UNION"),
        LogicalPlan::RecursiveRef { .. } => Some("a recursive reference"),
    }
}

/// The multiset `plan` holds over `windows`, its scans taken in order
/// from `next`; a scan's rows are borrowed from its window.
fn eval<'w>(
    plan: &LogicalPlan,
    windows: &'w [Window],
    next: &mut usize,
) -> Result<Vec<Cow<'w, Tuple>>> {
    let mut out = Vec::new();
    match plan {
        LogicalPlan::Scan { .. } => {
            *next += 1;
            out.extend(windows[*next - 1].live.iter().map(Cow::Borrowed));
        }
        LogicalPlan::Filter { input, predicate } => {
            for t in eval(input, windows, next)? {
                if predicate.eval_bool(&t)? {
                    out.push(t);
                }
            }
        }
        LogicalPlan::Project { input, exprs, .. } => {
            for t in eval(input, windows, next)? {
                let values = exprs.iter().map(|e| e.eval(&t)).collect::<Result<_>>()?;
                out.push(Cow::Owned(Tuple::new(values, t.timestamp())));
            }
        }
        LogicalPlan::Join {
            left,
            right,
            keys,
            residual,
            ..
        } => {
            let (l, r) = (eval(left, windows, next)?, eval(right, windows, next)?);
            for (x, y) in l.iter().flat_map(|x| r.iter().map(move |y| (x, y))) {
                if keys
                    .iter()
                    .all(|&(a, b)| x.get(a).sql_eq(y.get(b)) == Some(true))
                {
                    let values = x.values().iter().chain(y.values()).cloned().collect();
                    let t = Tuple::new(values, x.timestamp().max(y.timestamp()));
                    if residual.as_ref().map_or(Ok(true), |p| p.eval_bool(&t))? {
                        out.push(Cow::Owned(t));
                    }
                }
            }
        }
        LogicalPlan::Aggregate {
            input, group, aggs, ..
        } => {
            // A global aggregate shows one row however empty its input.
            let mut groups: BTreeMap<Vec<Value>, Vec<Cow<Tuple>>> = BTreeMap::new();
            if group.is_empty() {
                groups.insert(Vec::new(), Vec::new());
            }
            for t in eval(input, windows, next)? {
                let key = group.iter().map(|g| g.eval(&t)).collect::<Result<_>>()?;
                groups.entry(key).or_default().push(t);
            }
            for (mut row, members) in groups {
                for agg in aggs {
                    row.push(aggregate(agg, &members)?);
                }
                out.push(Cow::Owned(Tuple::new(row, SimTime::ZERO)));
            }
        }
        LogicalPlan::Sort { input, .. } | LogicalPlan::Output { input, .. } => {
            return eval(input, windows, next);
        }
        other => {
            let why = uncovered(other).unwrap_or("?");
            return Err(AspenError::NotExecutable(format!("the model has no {why}")));
        }
    }
    Ok(out)
}

/// `agg` over a group's rows: `NULL` arguments skipped; `SUM` / `AVG` /
/// `MIN` / `MAX` of nothing are `NULL`; `SUM` of `Int`s is an `Int`.
fn aggregate(agg: &BoundAgg, rows: &[Cow<Tuple>]) -> Result<Value> {
    let Some(arg) = &agg.arg else {
        return Ok(Value::Int(rows.len() as i64));
    };
    let args: Vec<Value> = rows.iter().map(|t| arg.eval(t)).collect::<Result<_>>()?;
    let mut args: Vec<Value> = args.into_iter().filter(|v| !v.is_null()).collect();
    if agg.func == AggFunc::Count || args.is_empty() {
        let count = agg.func == AggFunc::Count;
        return Ok(if count {
            Value::Int(args.len() as i64)
        } else {
            Value::Null
        });
    }
    let sum = args.iter().map(Value::as_f64).sum::<Result<f64>>();
    args.sort();
    Ok(match agg.func {
        AggFunc::Sum if arg.data_type() == Some(DataType::Int) => Value::Int(sum? as i64),
        AggFunc::Sum => Value::Float(sum?),
        AggFunc::Avg => Value::Float(sum? / args.len() as f64),
        AggFunc::Min => args.swap_remove(0),
        _ => args.pop().unwrap(),
    })
}

// ---------------------------------------------------------------------------
// The private path.

struct PrivateQuery {
    plan: LogicalPlan,
    pipeline: Pipeline,
    sink: Sink,
    paused: bool,
}

/// The private path outside any engine: per query one standalone
/// pipeline and sink. Resume rebuilds the pipeline and replays the
/// tables and views; migration is nothing.
pub struct Private {
    catalog: Arc<Catalog>,
    tables: HashMap<SourceId, BagState>,
    /// Each registered view, its output source and its definition.
    views: Vec<(RecursiveView, SourceId, BoundView)>,
    slots: BTreeMap<usize, PrivateQuery>,
}

impl Private {
    pub fn new(catalog: Arc<Catalog>) -> Private {
        let (tables, views, slots) = (HashMap::new(), Vec::new(), BTreeMap::new());
        Private {
            catalog,
            tables,
            views,
            slots,
        }
    }

    /// Compile, start, and replay what the plan's tables and views hold.
    fn build(&self, plan: &LogicalPlan) -> Result<(Pipeline, Sink)> {
        let mut pipeline = Pipeline::compile(plan)?;
        let mut sink = pipeline.make_sink();
        pipeline.start(&mut sink)?;
        for src in pipeline.sources() {
            let view = self
                .views
                .iter()
                .find(|v| v.1 == src)
                .map(|v| v.0.snapshot());
            if let Some(rows) = self.tables.get(&src).map(BagState::snapshot).or(view) {
                pipeline.push_source(src, &rows, &mut sink)?;
            }
        }
        Ok((pipeline, sink))
    }

    /// Feed `src`'s batch (tuples) or signed deltas to the live queries
    /// scanning it; the first error is returned.
    fn feed(&mut self, src: SourceId, tuples: Option<&[Tuple]>, deltas: &DeltaBatch) -> Result<()> {
        let mut served = Ok(());
        for q in self
            .slots
            .values_mut()
            .filter(|q| !q.paused && q.pipeline.sources().contains(&src))
        {
            served = served.and(match tuples {
                Some(tuples) => q.pipeline.push_source(src, tuples, &mut q.sink),
                None => q.pipeline.push_deltas(src, deltas, &mut q.sink),
            });
        }
        served
    }

    /// One maintenance step on every view, in registration order, each
    /// view then fed what the views before it output, and every view's
    /// output fed on to the queries.
    fn maintain(
        &mut self,
        mut step: impl FnMut(&mut RecursiveView) -> Result<DeltaBatch>,
    ) -> Result<()> {
        let mut served = Ok(());
        let mut out: Vec<(SourceId, DeltaBatch)> = Vec::new();
        for (view, src, _) in &mut self.views {
            let fed = step(view).and_then(|mut got| {
                for (from, deltas) in &out {
                    got.extend(view.on_base_deltas(*from, deltas)?);
                }
                Ok(got)
            });
            match fed {
                Ok(got) if !got.is_empty() => out.push((*src, got)),
                got => served = served.and(got.map(drop)),
            }
        }
        for (src, deltas) in out {
            served = served.and(self.feed(src, None, &deltas));
        }
        served
    }

    /// Each view that scans only tables, unwindowed, holds the rows (with
    /// their stamps) of a view built fresh from those tables' bags.
    fn fresh_views(&self) -> std::result::Result<(), (&'static str, String)> {
        for (view, _, bound) in &self.views {
            let mut scans = bound
                .bases
                .iter()
                .chain(&bound.steps)
                .flat_map(|p| p.scans());
            if !scans.all(|rel| rel.meta.kind == SourceKind::Table && rel.window.is_append_only()) {
                continue;
            }
            let error = |e: AspenError| ("fresh view", e.to_string());
            let mut fresh = RecursiveView::new(bound).map_err(error)?;
            for src in fresh.base_sources() {
                let rows = self
                    .tables
                    .get(&src)
                    .map(BagState::snapshot)
                    .unwrap_or_default();
                fresh
                    .on_base_deltas(src, &DeltaBatch::inserts(rows))
                    .map_err(error)?;
            }
            let (live, want) = (sorted(view.snapshot()), sorted(fresh.snapshot()));
            if live != want {
                let only = |a: &[Tuple], b: &[Tuple]| -> Vec<Tuple> {
                    a.iter().filter(|t| !b.contains(t)).cloned().collect()
                };
                let (extra, lacking) = (only(&live, &want), only(&want, &live));
                let name = view.name();
                let detail =
                    format!("{name} holds {extra:?} beyond a fresh {name}, lacks {lacking:?}");
                return Err(("fresh view", detail));
            }
        }
        Ok(())
    }
}

impl System for Private {
    fn label(&self) -> String {
        "Private".into()
    }

    fn apply(&mut self, op: &Op) -> Result<()> {
        match op {
            Op::Ingest(source, _) | Op::Deltas(source, _) => {
                let meta = self.catalog.source(source)?;
                let src = meta.id;
                let inserts;
                let (tuples, deltas) = match op {
                    Op::Ingest(_, tuples) => {
                        inserts = DeltaBatch::inserts(tuples.iter().cloned());
                        (Some(&tuples[..]), &inserts)
                    }
                    Op::Deltas(_, deltas) => (None, deltas),
                    _ => unreachable!("matched above"),
                };
                if meta.kind == SourceKind::Table {
                    let table = self.tables.entry(src).or_default();
                    match tuples {
                        Some(tuples) => table.insert_all(tuples),
                        None => table.apply(deltas),
                    }
                }
                let served = self.feed(src, tuples, deltas);
                match self.views.iter().any(|v| v.0.reads(src)) {
                    true => served.and(self.maintain(|v| v.on_base_deltas(src, deltas))),
                    false => served,
                }
            }
            Op::Heartbeat(now) => {
                let mut served = Ok(());
                for q in self
                    .slots
                    .values_mut()
                    .filter(|q| !q.paused && q.pipeline.needs_clock())
                {
                    served = served.and(q.pipeline.advance_time(*now, &mut q.sink));
                }
                served.and(self.maintain(|v| v.advance_time(*now)))
            }
            Op::Register(slot, sql, _) => {
                let plan = select(sql, &self.catalog)?;
                let (pipeline, sink) = self.build(&plan)?;
                self.slots.insert(
                    *slot,
                    PrivateQuery {
                        plan,
                        pipeline,
                        sink,
                        paused: false,
                    },
                );
                Ok(())
            }
            Op::View(sql) => {
                let BoundQuery::View(bound) = compile(sql, &self.catalog)? else {
                    return Err(AspenError::InvalidArgument(format!(
                        "`{sql}` is not a view"
                    )));
                };
                let (kind, stats) = (SourceKind::View, SourceStats::default());
                let out =
                    self.catalog
                        .register_source(&bound.name, bound.schema.clone(), kind, stats)?;
                let mut view = RecursiveView::new(&bound)?;
                for src in view.base_sources() {
                    let read = self
                        .views
                        .iter()
                        .find(|v| v.1 == src)
                        .map(|v| v.0.snapshot());
                    if let Some(rows) = self.tables.get(&src).map(BagState::snapshot).or(read) {
                        view.on_base_deltas(src, &DeltaBatch::inserts(rows))?;
                    }
                }
                self.views.push((view, out, bound));
                Ok(())
            }
            Op::Deregister(slot) => {
                self.slots.remove(slot);
                Ok(())
            }
            Op::Pause(slot) => {
                self.slots.get_mut(slot).unwrap().paused = true;
                Ok(())
            }
            Op::Resume(slot) => {
                let (pipeline, sink) = self.build(&self.slots[slot].plan)?;
                let q = self.slots.get_mut(slot).unwrap();
                (q.pipeline, q.sink, q.paused) = (pipeline, sink, false);
                Ok(())
            }
            Op::Migrate(..) | Op::Subscribe(_) | Op::Tune(..) | Op::Read(..) => Ok(()),
        }
    }

    fn observe(&mut self, _: &BTreeMap<usize, SlotState>) -> Observed {
        let mut seen = Seen::default();
        let mut profile = OpProfile::default();
        for (&slot, q) in &self.slots {
            let (p, sink) = (&q.pipeline, &q.sink);
            let rows = sorted(sink.snapshot().map_err(|e| ("error", e.to_string()))?);
            let counters = (p.tuples_in, p.ops_invoked, sink.deltas_applied);
            let load = Some((counters, p.footprint().resident as u64, false));
            seen.slots.insert(slot, SlotSeen { rows, load });
            profile.merge(&p.profile);
        }
        seen.profile = Some(
            profile
                .iter()
                .map(|(_, m)| (m.invocations, m.deltas))
                .collect(),
        );
        self.fresh_views()?;
        let view = |(view, ..): &(RecursiveView, SourceId, BoundView)| {
            let rows = sorted(view.snapshot());
            (view.name().to_string(), rows, format!("{:?}", view.stats))
        };
        seen.views = Some(self.views.iter().map(view).collect());
        let pipelines = self.slots.values().map(|q| &q.pipeline);
        let tables: usize = self.tables.values().map(|t| t.footprint().resident).sum();
        seen.sample.resident = ResidentState {
            window_tuples: pipelines
                .clone()
                .map(Pipeline::buffered_window_tuples)
                .sum(),
            state_bytes: tables + pipelines.map(|p| p.footprint().resident).sum::<usize>(),
            ..ResidentState::default()
        };
        seen.sample.view_rows = self.views.iter().map(|v| v.0.len()).collect();
        Ok(seen)
    }
}
