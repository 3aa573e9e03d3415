//! Recursive stream views with provenance (the paper's ref \[11\],
//! "Maintaining recursive stream views with provenance", ICDE 2009).
//!
//! A [`RecursiveView`] materializes a `CREATE RECURSIVE VIEW` definition
//! — in SmartCIS, the transitive closure of the building's routing-point
//! graph — and maintains it incrementally:
//!
//! * **Base facts count their copies**, as a query's [`BagState`] does:
//!   every window step and every signed delta adds its sign, a fact is
//!   born (with a fresh id) when its count rises above 0 and dies when it
//!   falls to 0 or below. A count below 0 is a retraction that came
//!   before its insert — a debt, as in a `BagState`.
//! * **Insertions** run semi-naïve, deriving from what is new and never
//!   from the whole view alone. Round one evaluates every branch once per
//!   base scan, that scan reading only the facts the batch bore and every
//!   recursive reference the whole view. Each later round evaluates each
//!   step branch once per recursive reference, that reference reading
//!   the last round's new tuples and every other reference the whole
//!   view — so a *non-linear* branch, one reading the view twice
//!   (`Reach a, Reach b where a.dst = b.src`), closes as a linear one
//!   does. Only never-before-seen tuples carry into the next round.
//! * **Deletions** run provenance-guided DRed: every materialized tuple
//!   records the set of *base fact ids* in its first derivation tree.
//!   When base facts die, exactly the tuples whose recorded derivation
//!   touched them are over-deleted, then a re-derivation pass reinstates
//!   those still reachable and closes over them by the same delta rule.
//!
//! Both paths run one fixpoint loop, `close`, each admitting its own
//! tuples, under one cap of [`MAX_ROUNDS`] rounds. A branch joins by the
//! pipeline's key rule (`operators::join_key`): a `NULL` key meets
//! nothing, and `INT` 2 meets `FLOAT` 2.0. Both paths emit net [`Delta`]s
//! so downstream queries that join against the view stay consistent.
//! `recompute()` is the from-scratch baseline the E6 experiment compares
//! against, and doubles as the test oracle.
//!
//! [`BagState`]: crate::state::BagState

use std::collections::hash_map::{DefaultHasher, Entry};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::BuildHasherDefault;

use aspen_sql::binder::BoundView;
use aspen_sql::expr::BoundExpr;
use aspen_sql::plan::LogicalPlan;
use aspen_types::{AspenError, Result, SimTime, SourceId, Tuple, Value, WindowSpec};

use crate::delta::{Delta, DeltaBatch};
use crate::operators::{join_key, keys_meet};
use crate::window::WindowOp;

/// Iteration cap: a fixpoint that runs longer than this aborts (guards
/// against non-terminating value-generating recursion, e.g. unbounded
/// `dist + e.dist` without cycle suppression).
pub const MAX_ROUNDS: u64 = 1_000;

/// Sorted set of base-fact ids supporting one derivation.
pub type Prov = Vec<u64>;

/// One fixed hasher for every map and set a view iterates: which
/// derivation a tuple records, the order deltas are emitted in and
/// [`ViewStats`] then follow from the input alone, never from the
/// process's hash seed.
type Fixed = BuildHasherDefault<DefaultHasher>;
type Map<K, V> = HashMap<K, V, Fixed>;
type Set<T> = HashSet<T, Fixed>;

/// What the leaves of a branch read in one evaluation: each recursive
/// reference the whole view and each scan its live facts, except that
/// reference `delta.0` reads only `delta.1` and scan `born.0` only the
/// facts numbered from `born.1`. Leaves are numbered in evaluation
/// order, scans and references apart ([`Leaves`]).
#[derive(Clone, Copy, Default)]
struct Bind<'a> {
    delta: Option<(usize, &'a [(Tuple, Prov)])>,
    born: Option<(usize, u64)>,
}

/// Scan and recursive-reference leaves, counted.
#[derive(Default)]
struct Leaves {
    scans: usize,
    refs: usize,
}

/// The leaves under `plan`.
fn leaves(plan: &LogicalPlan) -> Leaves {
    match plan {
        LogicalPlan::Scan { .. } => Leaves { scans: 1, refs: 0 },
        LogicalPlan::RecursiveRef { .. } => Leaves { scans: 0, refs: 1 },
        _ => plan
            .children()
            .into_iter()
            .map(leaves)
            .fold(Leaves::default(), |a, b| Leaves {
                scans: a.scans + b.scans,
                refs: a.refs + b.refs,
            }),
    }
}

fn prov_union(a: &Prov, b: &Prov) -> Prov {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// A base relation's facts, each with its id and its count of copies;
/// a fact is live while its count is above 0.
#[derive(Debug, Default)]
struct BaseState {
    facts: Map<Tuple, (u64, i64)>,
}

/// Maintenance statistics for the E6 experiment.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewStats {
    pub seminaive_rounds: u64,
    pub derivations_computed: u64,
    pub tuples_overdeleted: u64,
    pub tuples_rederived: u64,
    pub full_recomputes: u64,
}

/// A materialized recursive (or plain multi-branch) view.
pub struct RecursiveView {
    name: String,
    bases: Vec<LogicalPlan>,
    steps: Vec<LogicalPlan>,
    /// Materialization: tuple → provenance of its recorded derivation.
    state: Map<Tuple, Prov>,
    base_states: Map<SourceId, BaseState>,
    /// The window in front of each base relation scanned under a bounded
    /// spec — the same [`WindowOp`] a pipeline puts above the same scan,
    /// so a view's base facts arrive and expire exactly like a query's
    /// (arrival-order prefix rule included: a late-stamped fact expires
    /// with its predecessor in arrival order, not by a scan over
    /// stamps). Unbounded bases have no entry. Ordered by source so a
    /// heartbeat's expiry deltas come out in one sequence on every
    /// instance, whatever the process's hash seed.
    windows: BTreeMap<SourceId, WindowOp>,
    next_fact_id: u64,
    pub stats: ViewStats,
}

impl std::fmt::Debug for RecursiveView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "RecursiveView({}, {} tuples, {} base rels)",
            self.name,
            self.state.len(),
            self.base_states.len()
        )
    }
}

impl RecursiveView {
    pub fn new(bound: &BoundView) -> Result<Self> {
        let mut specs: Map<SourceId, WindowSpec> = Map::default();
        for plan in bound.bases.iter().chain(&bound.steps) {
            for rel in plan.scans() {
                // One base relation must be scanned under ONE window:
                // branches declaring different windows over the same
                // source (unbounded vs range, range 10 vs range 60, …)
                // would silently expire with whichever spec won, so
                // reject outright instead of guessing.
                let w = specs.entry(rel.meta.id).or_insert(rel.window);
                if *w != rel.window {
                    return Err(AspenError::NotExecutable(format!(
                        "view '{}' scans {} under both {} and {}; a base \
                         relation must use one window across all branches",
                        bound.name,
                        rel.meta.name,
                        w.render(),
                        rel.window.render()
                    )));
                }
            }
        }
        Ok(RecursiveView {
            name: bound.name.clone(),
            bases: bound.bases.clone(),
            steps: bound.steps.clone(),
            state: Map::default(),
            base_states: specs.keys().map(|&s| (s, BaseState::default())).collect(),
            windows: specs
                .into_iter()
                .filter(|(_, spec)| !spec.is_append_only())
                .map(|(src, spec)| (src, WindowOp::new(spec)))
                .collect(),
            next_fact_id: 0,
            stats: ViewStats::default(),
        })
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    /// Source ids of the base relations this view reads.
    pub fn base_sources(&self) -> Vec<SourceId> {
        self.base_states.keys().copied().collect()
    }

    /// Current materialization (unordered).
    pub fn snapshot(&self) -> Vec<Tuple> {
        self.state.keys().cloned().collect()
    }

    pub fn len(&self) -> usize {
        self.state.len()
    }

    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    /// Whether the view depends on the given source.
    pub fn reads(&self, source: SourceId) -> bool {
        self.base_states.contains_key(&source)
    }

    /// Advance the clock: [`WindowOp::advance`] on each windowed base,
    /// in source order, then the ordinary deletion pass (DRed) over what
    /// expired, so derived tuples whose support expired disappear too.
    /// A base with nothing to expire costs its window's O(1) head check.
    /// Returns the net view deltas to forward downstream.
    pub fn advance_time(&mut self, now: SimTime) -> Result<DeltaBatch> {
        let mut expired = Vec::new();
        for (&src, window) in &mut self.windows {
            let mut stepped = DeltaBatch::new();
            window.advance(now, &mut stepped);
            expired.push((src, stepped.consolidated()));
        }
        let mut out = DeltaBatch::new();
        for (src, facts) in expired {
            out.extend(self.apply_facts(src, &facts)?);
        }
        Ok(out)
    }

    /// Apply a batch of base-fact changes from one source; returns the
    /// net view deltas as one batch.
    ///
    /// A windowed base sends the batch's insertions through its window
    /// and maintains the view over the consolidated result — the
    /// arrivals plus whatever they evicted (`ROWS` overflow, `TUMBLING`
    /// pane changes inside the batch included), so a fact that arrives
    /// and is evicted in one batch never reaches the fixpoint. Upstream
    /// retractions pass straight through, as they do in a pipeline. An
    /// unbounded base has no window and applies the batch as it came.
    /// Either way each delta counts against its fact's copies.
    pub fn on_base_deltas(&mut self, source: SourceId, deltas: &DeltaBatch) -> Result<DeltaBatch> {
        if !self.base_states.contains_key(&source) {
            return Ok(DeltaBatch::new());
        }
        let Some(window) = self.windows.get_mut(&source) else {
            return self.apply_facts(source, deltas);
        };
        let (arrivals, retractions): (Vec<Delta>, Vec<Delta>) =
            deltas.iter().cloned().partition(Delta::is_insert);
        let arrivals: Vec<Tuple> = arrivals.into_iter().map(|d| d.tuple).collect();
        let mut stepped = DeltaBatch::new();
        window.insert_batch(&arrivals, &mut stepped);
        let mut facts = stepped.consolidated();
        facts.extend(retractions);
        self.apply_facts(source, &facts)
    }

    /// Count each delta against its fact's copies, then run DRed over
    /// the facts that died and the insertion pass if any was born.
    fn apply_facts(&mut self, source: SourceId, deltas: &DeltaBatch) -> Result<DeltaBatch> {
        let (mut born, mut dead) = (false, Set::default());
        let first = self.next_fact_id;
        let facts = &mut self.base_states.get_mut(&source).expect("checked").facts;
        for d in deltas {
            let (id, copies) = facts.entry(d.tuple.clone()).or_default();
            let was_live = *copies > 0;
            *copies += d.sign;
            if !was_live && *copies > 0 {
                *id = self.next_fact_id;
                self.next_fact_id += 1;
                born = true;
            } else if was_live && *copies <= 0 {
                dead.insert(*id);
            }
            if *copies == 0 {
                facts.remove(&d.tuple);
            }
        }
        let mut out = DeltaBatch::new();
        if !dead.is_empty() {
            out.extend(self.delete_pass(&dead)?);
        }
        if born {
            out.extend(self.insert_pass(first)?);
        }
        Ok(out)
    }

    /// Semi-naïve insertion of the facts born in this batch (ids from
    /// `first`). Round one evaluates every branch once per scan, that
    /// scan reading only the born facts and every reference the whole
    /// view: each derivation that uses a born fact and no new view tuple.
    /// `close` derives the rest from the tuples round one kept.
    fn insert_pass(&mut self, first: u64) -> Result<DeltaBatch> {
        let mut seed = Vec::new();
        for (plans, steps) in [(&self.bases, false), (&self.steps, true)] {
            for plan in plans {
                for scan in 0..leaves(plan).scans {
                    let bind = Bind {
                        born: Some((scan, first)),
                        ..Bind::default()
                    };
                    for (t, p) in self.eval(plan, bind)? {
                        self.stats.derivations_computed += steps as u64;
                        if !self.state.contains_key(&t) {
                            self.state.insert(t.clone(), p.clone());
                            seed.push((t, p));
                        }
                    }
                }
            }
        }
        let mut fresh: Vec<Tuple> = seed.iter().map(|(t, _)| t.clone()).collect();
        fresh.extend(self.close(seed, |state, t| !state.contains_key(t))?);
        Ok(DeltaBatch::inserts(fresh))
    }

    /// Provenance-guided DRed.
    fn delete_pass(&mut self, dead: &Set<u64>) -> Result<DeltaBatch> {
        // 1. Over-delete: every tuple whose recorded derivation used a
        //    dead base fact.
        let overdeleted: Vec<Tuple> = self
            .state
            .iter()
            .filter(|(_, prov)| prov.iter().any(|id| dead.contains(id)))
            .map(|(t, _)| t.clone())
            .collect();
        for t in &overdeleted {
            self.state.remove(t);
        }
        self.stats.tuples_overdeleted += overdeleted.len() as u64;

        // 2. Re-derive: base branches plus steps over the surviving view
        //    may re-establish some over-deleted tuples. Only those are
        //    candidates: anything else the branches derive now comes from
        //    facts the same batch inserted, and is the insert pass's to
        //    derive *and announce*.
        let mut pending: Set<Tuple> = overdeleted.into_iter().collect();
        let mut rescued: Vec<(Tuple, Prov)> = Vec::new();
        for plans in [&self.bases, &self.steps] {
            for plan in plans {
                for (t, p) in self.eval(plan, Bind::default())? {
                    if pending.remove(&t) {
                        rescued.push((t, p));
                    }
                }
            }
        }
        self.stats.tuples_rederived += rescued.len() as u64;
        for (t, p) in &rescued {
            self.state.insert(t.clone(), p.clone());
        }

        // 3. Close over the rescued tuples: re-derive what is still
        //    pending. Net deltas: over-deleted tuples that did not come
        //    back.
        self.close(rescued, |_, t| pending.remove(t))?;
        Ok(pending.into_iter().map(Delta::retract).collect())
    }

    /// The one semi-naïve fixpoint. Each round evaluates each step branch
    /// once per recursive reference, that reference reading the last
    /// round's tuples (`delta`, materialized already) and every other
    /// the whole view, keeps the first derivation of each tuple `admit`
    /// accepts, materializes it and carries it into the next round.
    /// Returns the kept tuples in derivation order.
    fn close(
        &mut self,
        mut delta: Vec<(Tuple, Prov)>,
        mut admit: impl FnMut(&Map<Tuple, Prov>, &Tuple) -> bool,
    ) -> Result<Vec<Tuple>> {
        let mut kept = Vec::new();
        for round in 1.. {
            if delta.is_empty() {
                break;
            }
            if round > MAX_ROUNDS {
                return Err(AspenError::Execution(format!(
                    "recursive view '{}' exceeded {MAX_ROUNDS} semi-naive rounds; \
                     is the recursion value-generating over a cycle?",
                    self.name
                )));
            }
            self.stats.seminaive_rounds += 1;
            let mut next = Vec::new();
            for s in &self.steps {
                for r in 0..leaves(s).refs {
                    let bind = Bind {
                        delta: Some((r, &delta)),
                        ..Bind::default()
                    };
                    for (t, p) in self.eval(s, bind)? {
                        self.stats.derivations_computed += 1;
                        if admit(&self.state, &t) {
                            self.state.insert(t.clone(), p.clone());
                            kept.push(t.clone());
                            next.push((t, p));
                        }
                    }
                }
            }
            delta = next;
        }
        Ok(kept)
    }

    /// From-scratch naive fixpoint — the E6 baseline and the test oracle.
    /// Returns the number of fixpoint rounds taken.
    pub fn recompute(&mut self) -> Result<u64> {
        self.stats.full_recomputes += 1;
        self.state.clear();
        for b in &self.bases {
            for (t, p) in self.eval(b, Bind::default())? {
                self.state.entry(t).or_insert(p);
            }
        }
        let mut rounds = 0u64;
        loop {
            rounds += 1;
            if rounds > MAX_ROUNDS {
                return Err(AspenError::Execution(format!(
                    "recursive view '{}' recompute diverged",
                    self.name
                )));
            }
            let mut changed = false;
            for s in &self.steps {
                for (t, p) in self.eval(s, Bind::default())? {
                    if let Entry::Vacant(e) = self.state.entry(t) {
                        e.insert(p);
                        changed = true;
                    }
                }
            }
            if !changed {
                return Ok(rounds);
            }
        }
    }

    // -----------------------------------------------------------------
    // Provenance-threaded batch evaluation of view-branch plans
    // -----------------------------------------------------------------

    /// Evaluate a branch plan, its leaves reading what `bind` says.
    fn eval(&self, plan: &LogicalPlan, bind: Bind) -> Result<Vec<(Tuple, Prov)>> {
        self.eval_at(plan, bind, &mut Leaves::default())
    }

    /// [`RecursiveView::eval`] below the leaves `seen` counts.
    fn eval_at(
        &self,
        plan: &LogicalPlan,
        bind: Bind,
        seen: &mut Leaves,
    ) -> Result<Vec<(Tuple, Prov)>> {
        match plan {
            LogicalPlan::Scan { rel } => {
                let bs = self.base_states.get(&rel.meta.id).ok_or_else(|| {
                    AspenError::Execution(format!(
                        "view '{}' scans unknown source {}",
                        self.name, rel.meta.name
                    ))
                })?;
                let from = match bind.born {
                    Some((scan, first)) if scan == seen.scans => first,
                    _ => 0,
                };
                seen.scans += 1;
                let live = bs
                    .facts
                    .iter()
                    .filter(|(_, &(id, copies))| copies > 0 && id >= from);
                Ok(live.map(|(t, (id, _))| (t.clone(), vec![*id])).collect())
            }
            LogicalPlan::RecursiveRef { .. } => {
                let rows = match bind.delta {
                    Some((r, delta)) if r == seen.refs => delta.to_vec(),
                    _ => self
                        .state
                        .iter()
                        .map(|(t, p)| (t.clone(), p.clone()))
                        .collect(),
                };
                seen.refs += 1;
                Ok(rows)
            }
            LogicalPlan::Filter { input, predicate } => {
                let rows = self.eval_at(input, bind, seen)?;
                let mut out = Vec::new();
                for (t, p) in rows {
                    if predicate.eval_bool(&t)? {
                        out.push((t, p));
                    }
                }
                Ok(out)
            }
            LogicalPlan::Project { input, exprs, .. } => {
                let rows = self.eval_at(input, bind, seen)?;
                let mut out = Vec::with_capacity(rows.len());
                for (t, p) in rows {
                    let mut vals = Vec::with_capacity(exprs.len());
                    for e in exprs {
                        vals.push(e.eval(&t)?);
                    }
                    out.push((Tuple::new(vals, t.timestamp()), p));
                }
                Ok(out)
            }
            LogicalPlan::Join {
                left,
                right,
                keys,
                residual,
                ..
            } => {
                let lrows = self.eval_at(left, bind, seen)?;
                let rrows = self.eval_at(right, bind, seen)?;
                self.hash_join(&lrows, &rrows, keys, residual.as_ref())
            }
            LogicalPlan::Union { inputs, .. } => {
                let mut out = Vec::new();
                for i in inputs {
                    out.extend(self.eval_at(i, bind, seen)?);
                }
                Ok(out)
            }
            other => Err(AspenError::NotExecutable(format!(
                "operator {:?} not supported inside a view branch",
                std::mem::discriminant(other)
            ))),
        }
    }

    fn hash_join(
        &self,
        left: &[(Tuple, Prov)],
        right: &[(Tuple, Prov)],
        keys: &[(usize, usize)],
        residual: Option<&BoundExpr>,
    ) -> Result<Vec<(Tuple, Prov)>> {
        let mut table: Map<Vec<Value>, Vec<usize>> = Map::default();
        for (i, (t, _)) in right.iter().enumerate() {
            if let Some(key) = join_key(t, keys.iter().map(|k| k.1)) {
                table.entry(key).or_default().push(i);
            }
        }
        let mut out = Vec::new();
        for (lt, lp) in left {
            let key = join_key(lt, keys.iter().map(|k| k.0));
            if let Some(matches) = key.and_then(|key| table.get(&key)) {
                for &ri in matches {
                    let (rt, rp) = &right[ri];
                    if !keys_meet(keys, lt, rt) {
                        continue;
                    }
                    let joined = lt.join(rt);
                    if let Some(res) = residual {
                        if !res.eval_bool(&joined)? {
                            continue;
                        }
                    }
                    out.push((joined, prov_union(lp, rp)));
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::Delta;
    use crate::pipeline::Pipeline;
    use crate::sink::Sink;
    use aspen_catalog::{Catalog, SourceKind, SourceStats};
    use aspen_sql::{bind, compile, parse, BoundQuery};
    use aspen_types::{DataType, Field, Schema, SimDuration, SimTime};

    fn edge_catalog() -> Catalog {
        let cat = Catalog::new();
        let schema = Schema::new(vec![
            Field::new("src", DataType::Text),
            Field::new("dst", DataType::Text),
        ])
        .into_ref();
        cat.register_source("Edge", schema, SourceKind::Table, SourceStats::table(16))
            .unwrap();
        cat
    }

    fn tc_view(cat: &Catalog) -> RecursiveView {
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e
                union
                select r.src, e.dst from Reach r, Edge e where r.dst = e.src
            )
        "#;
        let BoundQuery::View(v) = bind(&parse(sql).unwrap(), cat).unwrap() else {
            panic!()
        };
        RecursiveView::new(&v).unwrap()
    }

    fn edge(a: &str, b: &str) -> Tuple {
        Tuple::new(
            vec![Value::Text(a.into()), Value::Text(b.into())],
            SimTime::ZERO,
        )
    }

    fn pairs(view: &RecursiveView) -> HashSet<(String, String)> {
        view.snapshot()
            .into_iter()
            .map(|t| {
                (
                    t.get(0).as_text().unwrap().to_string(),
                    t.get(1).as_text().unwrap().to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn transitive_closure_of_a_chain() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        let deltas: DeltaBatch = [("a", "b"), ("b", "c"), ("c", "d")]
            .iter()
            .map(|(a, b)| Delta::insert(edge(a, b)))
            .collect();
        let out = v.on_base_deltas(src, &deltas).unwrap();
        // closure of a→b→c→d: 3 + 2 + 1 = 6 pairs
        assert_eq!(v.len(), 6);
        assert_eq!(out.len(), 6);
        assert!(pairs(&v).contains(&("a".into(), "d".into())));
    }

    #[test]
    fn incremental_insert_extends_closure() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        v.on_base_deltas(src, &DeltaBatch::from(vec![Delta::insert(edge("a", "b"))]))
            .unwrap();
        assert_eq!(v.len(), 1);
        // Adding b→c must also derive a→c.
        let out = v
            .on_base_deltas(src, &DeltaBatch::from(vec![Delta::insert(edge("b", "c"))]))
            .unwrap();
        let inserted: HashSet<_> = out
            .iter()
            .filter(|d| d.is_insert())
            .map(|d| d.tuple.clone())
            .collect();
        assert!(inserted.contains(&edge("b", "c")));
        assert!(inserted.contains(&edge("a", "c")));
        assert_eq!(v.len(), 3);
    }

    #[test]
    fn deletion_dred_removes_unreachable() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(edge("a", "b")),
                Delta::insert(edge("b", "c")),
                Delta::insert(edge("c", "d")),
            ]),
        )
        .unwrap();
        assert_eq!(v.len(), 6);
        // Remove b→c: closure should shrink to {ab, cd}.
        let out = v
            .on_base_deltas(src, &DeltaBatch::from(vec![Delta::retract(edge("b", "c"))]))
            .unwrap();
        let retracted: HashSet<_> = out
            .iter()
            .filter(|d| !d.is_insert())
            .map(|d| d.tuple.clone())
            .collect();
        assert_eq!(v.len(), 2);
        assert!(retracted.contains(&edge("a", "c")));
        assert!(retracted.contains(&edge("a", "d")));
        assert!(retracted.contains(&edge("b", "d")));
        assert!(retracted.contains(&edge("b", "c")));
        assert!(pairs(&v).contains(&("a".into(), "b".into())));
        assert!(pairs(&v).contains(&("c".into(), "d".into())));
    }

    #[test]
    fn deletion_with_alternative_path_rederives() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        // Two routes a→c: direct and via b.
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(edge("a", "b")),
                Delta::insert(edge("b", "c")),
                Delta::insert(edge("a", "c")),
            ]),
        )
        .unwrap();
        assert_eq!(v.len(), 3);
        // Deleting a→b: a→c must SURVIVE via the direct edge.
        let out = v
            .on_base_deltas(src, &DeltaBatch::from(vec![Delta::retract(edge("a", "b"))]))
            .unwrap();
        assert_eq!(v.len(), 2);
        let retracted: Vec<_> = out.iter().filter(|d| !d.is_insert()).collect();
        assert_eq!(retracted.len(), 1);
        assert_eq!(retracted[0].tuple, edge("a", "b"));
        assert!(pairs(&v).contains(&("a".into(), "c".into())));
        assert!(v.stats.tuples_rederived > 0 || v.stats.tuples_overdeleted >= 1);
    }

    #[test]
    fn mixed_batch_announces_what_its_inserts_derive() {
        // One batch that deletes a→b and inserts a→c (a table update):
        // the deletion pass must not quietly materialize what the new
        // fact derives — a downstream query joins the *deltas*.
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(edge("a", "b")),
                Delta::insert(edge("c", "d")),
            ]),
        )
        .unwrap();
        let out = v
            .on_base_deltas(
                src,
                &DeltaBatch::from(vec![
                    Delta::retract(edge("a", "b")),
                    Delta::insert(edge("a", "c")),
                ]),
            )
            .unwrap();
        assert_eq!(pairs(&v).len(), 3); // ac, cd, ad
        let mut net = out.consolidate();
        net.sort_by_key(|(t, n)| (*n, t.values().to_vec()));
        assert_eq!(
            net,
            vec![
                (edge("a", "b"), -1),
                (edge("a", "c"), 1),
                (edge("a", "d"), 1)
            ]
        );
    }

    #[test]
    fn cycles_terminate() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(edge("a", "b")),
                Delta::insert(edge("b", "a")),
            ]),
        )
        .unwrap();
        // Closure of a 2-cycle: aa, ab, ba, bb.
        assert_eq!(v.len(), 4);
        // Deleting one edge of the cycle leaves just the other edge.
        v.on_base_deltas(src, &DeltaBatch::from(vec![Delta::retract(edge("a", "b"))]))
            .unwrap();
        assert_eq!(v.len(), 1);
        assert!(pairs(&v).contains(&("b".into(), "a".into())));
    }

    /// The closure by squaring: a step branch reading the view twice.
    fn nonlinear_view(cat: &Catalog) -> RecursiveView {
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e
                union
                select a.src, b.dst from Reach a, Reach b where a.dst = b.src
            )
        "#;
        let BoundQuery::View(v) = bind(&parse(sql).unwrap(), cat).unwrap() else {
            panic!()
        };
        RecursiveView::new(&v).unwrap()
    }

    /// A view over [`edge_catalog`].
    type MakeView = fn(&Catalog) -> RecursiveView;

    /// The closure of `edges` by [`RecursiveView::recompute`].
    fn recomputed(view: MakeView, edges: &[Tuple]) -> HashSet<(String, String)> {
        let cat = edge_catalog();
        let mut oracle = view(&cat);
        let src = cat.source("Edge").unwrap().id;
        oracle
            .on_base_deltas(src, &DeltaBatch::inserts(edges.iter().cloned()))
            .unwrap();
        oracle.recompute().unwrap();
        pairs(&oracle)
    }

    #[test]
    fn incremental_matches_recompute_oracle() {
        use aspen_types::rng::seeded;
        use rand::Rng;
        let views: [(&str, MakeView); 2] = [("linear", tc_view), ("non-linear", nonlinear_view)];
        for (name, view) in views {
            let cat = edge_catalog();
            let mut v = view(&cat);
            let src = cat.source("Edge").unwrap().id;
            let mut rng = seeded(99);
            let nodes = ["a", "b", "c", "d", "e", "f"];
            // A multiset: an edge may be inserted again while live, and a
            // retraction takes one copy, so the fact outlives it.
            let mut live: Vec<(usize, usize)> = Vec::new();
            for step in 0..60 {
                let i = rng.gen_range(0..nodes.len());
                let j = rng.gen_range(0..nodes.len());
                let e = edge(nodes[i], nodes[j]);
                let insert = live.is_empty() || rng.gen_bool(0.6);
                let d = if insert {
                    live.push((i, j));
                    Delta::insert(e)
                } else if let Some(pos) = live
                    .iter()
                    .position(|&(a, b)| edge(nodes[a], nodes[b]) == e)
                {
                    live.remove(pos);
                    Delta::retract(e)
                } else if !live.is_empty() {
                    let pos = rng.gen_range(0..live.len());
                    let (a, b) = live.remove(pos);
                    Delta::retract(edge(nodes[a], nodes[b]))
                } else {
                    continue;
                };
                v.on_base_deltas(src, &DeltaBatch::from(vec![d])).unwrap();

                // Compare against a from-scratch fixpoint on the same bases.
                let edges: Vec<Tuple> = live
                    .iter()
                    .map(|&(a, b)| edge(nodes[a], nodes[b]))
                    .collect();
                let want = recomputed(view, &edges);
                assert_eq!(pairs(&v), want, "{name} view diverged at step {step}");
            }
        }
    }

    /// A branch reading the view twice binds each reference in turn to a
    /// round's delta, the other to the whole view: Δ⋈Δ alone misses a→d
    /// and b→e when the chain comes in one batch.
    #[test]
    fn nonlinear_branch_closes_like_recompute() {
        let chain: Vec<Tuple> = ["a", "b", "c", "d", "e"]
            .windows(2)
            .map(|w| edge(w[0], w[1]))
            .collect();
        let want = recomputed(nonlinear_view, &chain);
        assert_eq!(want.len(), 10, "4 + 3 + 2 + 1 pairs");
        // One batch.
        let cat = edge_catalog();
        let src = cat.source("Edge").unwrap().id;
        let mut v = nonlinear_view(&cat);
        v.on_base_deltas(src, &DeltaBatch::inserts(chain.iter().cloned()))
            .unwrap();
        assert_eq!(pairs(&v), want, "one batch");
        // One edge a batch: round one joins the new edge with the view.
        let mut v = nonlinear_view(&cat);
        for e in &chain {
            v.on_base_deltas(src, &DeltaBatch::inserts([e.clone()]))
                .unwrap();
        }
        assert_eq!(pairs(&v), want, "one edge a batch");
    }

    /// Insertion derives from the new facts, not the whole view: an
    /// isolated edge beside a 40-edge chain's 820 pairs costs no step
    /// derivation, and the chain's 40th edge one per new pair.
    #[test]
    fn insertion_derives_only_from_new_facts() {
        let cat = edge_catalog();
        let src = cat.source("Edge").unwrap().id;
        let node = |i: usize| format!("n{i}");
        let mut v = tc_view(&cat);
        let chain = (0..39).map(|i| edge(&node(i), &node(i + 1)));
        v.on_base_deltas(src, &DeltaBatch::inserts(chain)).unwrap();
        assert_eq!(v.len(), 780);
        let before = v.stats.derivations_computed;
        v.on_base_deltas(src, &DeltaBatch::inserts([edge("n39", "n40")]))
            .unwrap();
        assert_eq!(v.len(), 820);
        let chain_edge = v.stats.derivations_computed - before;
        assert!(
            chain_edge <= 80,
            "{chain_edge} derivations for the 40th edge"
        );
        let before = v.stats.derivations_computed;
        v.on_base_deltas(src, &DeltaBatch::inserts([edge("x", "y")]))
            .unwrap();
        assert_eq!(v.len(), 821);
        let isolated = v.stats.derivations_computed - before;
        assert!(isolated <= 1, "{isolated} derivations for an isolated edge");
    }

    /// A view branch joins under the pipeline's key rule: a `NULL` key
    /// meets nothing, and `INT` 2 meets `FLOAT` 2.0. Each closure below
    /// has no path longer than one join, so it holds its base rows and
    /// the distinct rows of that join run as a query.
    #[test]
    fn view_joins_follow_the_pipelines_key_rule() {
        use Value::{Float, Int, Null};
        let cat = Catalog::new();
        for (name, ty) in [("E", DataType::Int), ("F", DataType::Float)] {
            let schema = Schema::new(vec![Field::new("src", ty), Field::new("dst", ty)]);
            let stats = SourceStats::table(4);
            cat.register_source(name, schema.into_ref(), SourceKind::Table, stats)
                .unwrap();
        }
        let row = |a, b| Tuple::new(vec![a, b], SimTime::ZERO);
        let cases = [
            (
                "create recursive view R as ( select e.src, e.dst from E e \
                 union select r.src, e.dst from R r, E e where r.dst = e.src )",
                "select a.src, b.dst from E a, E b where a.dst = b.src",
                vec![row(Int(1), Null), row(Null, Int(3))],
                vec![],
            ),
            (
                "create recursive view R as ( select e.src, e.dst from E e \
                 union select r.src, f.dst from R r, F f where r.dst = f.src )",
                "select e.src, f.dst from E e, F f where e.dst = f.src",
                vec![row(Int(1), Int(2))],
                vec![row(Float(2.0), Float(5.0))],
            ),
        ];
        for (view, join, e_rows, f_rows) in cases {
            let mut v = bound_view(view, &cat);
            let BoundQuery::Select(b) = compile(join, &cat).unwrap() else {
                panic!()
            };
            let mut p = Pipeline::compile(&b.plan).unwrap();
            let mut sink = p.make_sink();
            p.start(&mut sink).unwrap();
            for (name, rows) in [("E", &e_rows), ("F", &f_rows)] {
                let src = cat.source(name).unwrap().id;
                v.on_base_deltas(src, &DeltaBatch::inserts(rows.iter().cloned()))
                    .unwrap();
                if p.sources().contains(&src) {
                    p.push_source(src, rows, &mut sink).unwrap();
                }
            }
            let mut want: HashSet<Tuple> = e_rows.into_iter().collect();
            want.extend(sink.snapshot().unwrap());
            let got: HashSet<Tuple> = v.snapshot().into_iter().collect();
            assert_eq!(got, want, "`{view}` against `{join}`");
        }
    }

    #[test]
    fn recompute_baseline_agrees() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(edge("a", "b")),
                Delta::insert(edge("b", "c")),
            ]),
        )
        .unwrap();
        let before = pairs(&v);
        let rounds = v.recompute().unwrap();
        assert!(rounds >= 1);
        assert_eq!(pairs(&v), before);
        assert_eq!(v.stats.full_recomputes, 1);
    }

    #[test]
    fn table_scans_are_clock_insensitive() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let src = cat.source("Edge").unwrap().id;
        v.on_base_deltas(src, &DeltaBatch::from(vec![Delta::insert(edge("a", "b"))]))
            .unwrap();
        let out = v.advance_time(SimTime::from_secs(1_000_000)).unwrap();
        assert!(out.is_empty(), "unbounded base facts never expire");
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn time_windowed_base_facts_expire_on_advance() {
        // Same closure view, but the base relation is scanned under a
        // 10-second range window: facts age out and their derived tuples
        // must die with them.
        let cat = edge_catalog();
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e [range 10 seconds]
                union
                select r.src, e.dst from Reach r, Edge e [range 10 seconds] where r.dst = e.src
            )
        "#;
        let BoundQuery::View(bv) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
            panic!()
        };
        let mut v = RecursiveView::new(&bv).unwrap();
        let src = cat.source("Edge").unwrap().id;
        let stamped = |a: &str, b: &str, sec: u64| {
            Tuple::new(
                vec![Value::Text(a.into()), Value::Text(b.into())],
                SimTime::from_secs(sec),
            )
        };
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(stamped("a", "b", 1)),
                Delta::insert(stamped("b", "c", 8)),
            ]),
        )
        .unwrap();
        assert_eq!(v.len(), 3); // ab, bc, ac

        // t=12: the a→b fact (stamped 1) left the 10 s window; a→c loses
        // its support and must be retracted too. b→c (stamped 8) lives.
        let out = v.advance_time(SimTime::from_secs(12)).unwrap();
        let retracted: HashSet<_> = out
            .iter()
            .filter(|d| !d.is_insert())
            .map(|d| d.tuple.values().to_vec())
            .collect();
        assert_eq!(v.len(), 1);
        assert!(retracted.contains(stamped("a", "b", 1).values()));
        assert!(retracted.contains(stamped("a", "c", 8).values()));
        assert!(pairs(&v).contains(&("b".into(), "c".into())));
        // Idempotent: a second advance at the same clock emits nothing.
        assert!(v.advance_time(SimTime::from_secs(12)).unwrap().is_empty());
    }

    #[test]
    fn tumbling_view_base_rolls_panes_eagerly_on_insert() {
        // The pipeline WindowOp retracts the previous pane the moment a
        // newer-pane tuple arrives — a tumbling-windowed view base must
        // do the same, without waiting for a heartbeat.
        let cat = edge_catalog();
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e [tumbling 10 seconds]
                union
                select r.src, e.dst from Reach r, Edge e [tumbling 10 seconds] where r.dst = e.src
            )
        "#;
        let BoundQuery::View(bv) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
            panic!()
        };
        let mut v = RecursiveView::new(&bv).unwrap();
        let src = cat.source("Edge").unwrap().id;
        let stamped = |a: &str, b: &str, sec: u64| {
            Tuple::new(
                vec![Value::Text(a.into()), Value::Text(b.into())],
                SimTime::from_secs(sec),
            )
        };
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![Delta::insert(stamped("a", "b", 5))]),
        )
        .unwrap();
        assert_eq!(v.len(), 1);
        // t=15 lands in the next pane: the t=5 fact must be retracted in
        // the same call, exactly like WindowOp's insert-time rollover.
        let out = v
            .on_base_deltas(
                src,
                &DeltaBatch::from(vec![Delta::insert(stamped("b", "c", 15))]),
            )
            .unwrap();
        assert_eq!(v.len(), 1, "old pane must be gone: {:?}", v.snapshot());
        assert!(pairs(&v).contains(&("b".into(), "c".into())));
        assert!(
            out.iter().any(|d| !d.is_insert()),
            "rollover emits retractions"
        );
        // Heartbeat-driven rollover still works for the remaining pane.
        let out = v.advance_time(SimTime::from_secs(25)).unwrap();
        assert!(v.is_empty());
        assert_eq!(out.iter().filter(|d| !d.is_insert()).count(), 1);

        // A single batch spanning a pane boundary must also roll: only
        // the newest pane's facts survive, exactly like WindowOp's
        // per-tuple rollover.
        let out = v
            .on_base_deltas(
                src,
                &DeltaBatch::from(vec![
                    Delta::insert(stamped("a", "b", 31)),
                    Delta::insert(stamped("c", "d", 45)),
                ]),
            )
            .unwrap();
        assert_eq!(
            v.len(),
            1,
            "old pane in same batch must roll: {:?}",
            v.snapshot()
        );
        assert!(pairs(&v).contains(&("c".into(), "d".into())));
        // The emitted batch nets out to just the surviving insert.
        let net = out.consolidate();
        assert_eq!(net.len(), 1);
        assert_eq!(net[0].0.values(), stamped("c", "d", 45).values());

        // A heartbeat lagging behind ingested timestamps must not touch
        // future-pane facts (WindowOp only ever rolls forward).
        assert!(v.advance_time(SimTime::from_secs(12)).unwrap().is_empty());
        assert_eq!(v.len(), 1, "lagging heartbeat must not expire live facts");

        // An out-of-order OLDER-pane insert rolls too: WindowOp drains
        // its buffer on ANY pane change, so the late pane-4 fact (c,d,45)
        // must die when a stray pane-0 tuple arrives — the current pane
        // is the pane of the last insertion, wherever it lands.
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![Delta::insert(stamped("x", "y", 3))]),
        )
        .unwrap();
        assert_eq!(
            v.len(),
            1,
            "backward pane change must roll: {:?}",
            v.snapshot()
        );
        assert!(pairs(&v).contains(&("x".into(), "y".into())));
    }

    #[test]
    fn mixed_time_windows_over_one_base_are_rejected() {
        let cat = edge_catalog();
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e [range 10 seconds]
                union
                select r.src, e.dst from Reach r, Edge e [range 60 seconds] where r.dst = e.src
            )
        "#;
        let BoundQuery::View(bv) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
            panic!()
        };
        let err = RecursiveView::new(&bv).unwrap_err();
        assert!(
            err.to_string().contains("one window"),
            "unexpected error: {err}"
        );
    }

    #[test]
    fn unbounded_and_windowed_scans_of_one_base_are_rejected() {
        // The unbounded branch's facts must not silently inherit the
        // other branch's expiry.
        let cat = edge_catalog();
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e
                union
                select r.src, e.dst from Reach r, Edge e [range 10 seconds] where r.dst = e.src
            )
        "#;
        let BoundQuery::View(bv) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
            panic!()
        };
        assert!(RecursiveView::new(&bv).is_err());
    }

    #[test]
    fn intra_batch_pane_transitions_match_windowop_replay() {
        // Insert panes 1, 2, 1 in ONE batch: WindowOp's per-tuple
        // rollover drains the buffer at each transition, so only the
        // final t=18 tuple survives — not the earlier same-pane t=15.
        let cat = edge_catalog();
        let sql = r#"
            create recursive view Reach as (
                select e.src, e.dst from Edge e [tumbling 10 seconds]
                union
                select r.src, e.dst from Reach r, Edge e [tumbling 10 seconds] where r.dst = e.src
            )
        "#;
        let BoundQuery::View(bv) = bind(&parse(sql).unwrap(), &cat).unwrap() else {
            panic!()
        };
        let mut v = RecursiveView::new(&bv).unwrap();
        let src = cat.source("Edge").unwrap().id;
        let stamped = |a: &str, b: &str, sec: u64| {
            Tuple::new(
                vec![Value::Text(a.into()), Value::Text(b.into())],
                SimTime::from_secs(sec),
            )
        };
        v.on_base_deltas(
            src,
            &DeltaBatch::from(vec![
                Delta::insert(stamped("a", "b", 15)),
                Delta::insert(stamped("c", "d", 25)),
                Delta::insert(stamped("e", "f", 18)),
            ]),
        )
        .unwrap();
        assert_eq!(
            v.len(),
            1,
            "only the last transition's suffix lives: {:?}",
            v.snapshot()
        );
        assert!(pairs(&v).contains(&("e".into(), "f".into())));
    }

    fn bound_view(sql: &str, cat: &Catalog) -> RecursiveView {
        let BoundQuery::View(bv) = bind(&parse(sql).unwrap(), cat).unwrap() else {
            panic!()
        };
        RecursiveView::new(&bv).unwrap()
    }

    /// Put the one scan of a filter/project plan under `spec` — the
    /// parser rejects the degenerate `rows 0` and zero-width tumbling
    /// the windows themselves define.
    fn rewindow(plan: &mut LogicalPlan, spec: WindowSpec) {
        match plan {
            LogicalPlan::Scan { rel } => rel.window = spec,
            LogicalPlan::Project { input, .. } | LogicalPlan::Filter { input, .. } => {
                rewindow(input, spec)
            }
            other => panic!("not a single-scan plan: {other:?}"),
        }
    }

    /// `select e.src, e.dst from Edge e [spec]` twice over: as the one
    /// branch of a non-recursive view, and as a pipeline with its sink.
    fn scan_as_view_and_pipeline(
        cat: &Catalog,
        spec: WindowSpec,
    ) -> (RecursiveView, Pipeline, Sink) {
        let BoundQuery::View(mut bv) = bind(
            &parse("create view Scan as ( select e.src, e.dst from Edge e )").unwrap(),
            cat,
        )
        .unwrap() else {
            panic!()
        };
        rewindow(&mut bv.bases[0], spec);
        let BoundQuery::Select(mut b) = compile("select e.src, e.dst from Edge e", cat).unwrap()
        else {
            panic!()
        };
        rewindow(&mut b.plan, spec);
        let mut p = Pipeline::compile(&b.plan).unwrap();
        let mut sink = p.make_sink();
        p.start(&mut sink).unwrap();
        (RecursiveView::new(&bv).unwrap(), p, sink)
    }

    fn stamped(a: &str, b: &str, sec: u64) -> Tuple {
        Tuple::new(
            vec![Value::Text(a.into()), Value::Text(b.into())],
            SimTime::from_secs(sec),
        )
    }

    #[test]
    fn rows_windowed_base_evicts_like_a_pipeline() {
        // `[rows 3]` on a view base is the same window as on a query
        // scan: the fourth edge evicts the first, and the closure loses
        // everything that hung on it.
        let cat = edge_catalog();
        let src = cat.source("Edge").unwrap().id;
        let mut v = bound_view(
            "create recursive view Reach as (
                select e.src, e.dst from Edge e [rows 3]
                union
                select r.src, e.dst from Reach r, Edge e [rows 3] where r.dst = e.src
            )",
            &cat,
        );
        let (_, mut p, mut sink) = scan_as_view_and_pipeline(&cat, WindowSpec::Rows(3));
        for (i, (a, b)) in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")]
            .into_iter()
            .enumerate()
        {
            let batch = [stamped(a, b, i as u64)];
            v.on_base_deltas(src, &DeltaBatch::inserts(batch.iter().cloned()))
                .unwrap();
            p.push_source(src, &batch, &mut sink).unwrap();
        }
        let scanned = sink.snapshot().unwrap();
        assert_eq!(scanned.len(), 3, "the query scan holds three edges");
        // The view is the closure of exactly those three edges.
        let mut oracle = tc_view(&cat);
        oracle
            .on_base_deltas(src, &DeltaBatch::inserts(scanned))
            .unwrap();
        assert_eq!(pairs(&v), pairs(&oracle));
        assert_eq!(v.len(), 6, "b→c→d→e; nothing from a: {:?}", v.snapshot());
    }

    /// Property: a non-recursive view over `Edge e [w]` and the pipeline
    /// of `select e.src, e.dst from Edge e [w]`, fed identical batches
    /// and heartbeats (repeated tuples, stamps running backwards inside
    /// a batch, batches larger than the row bound, several panes per
    /// batch), agree at every step: the view's snapshot is the distinct
    /// tuples of the pipeline's, and the deltas the view emitted sum to
    /// its snapshot.
    #[test]
    fn windowed_view_base_tracks_the_pipeline_over_the_same_scan() {
        use aspen_types::rng::seeded;
        use rand::Rng;

        let cat = edge_catalog();
        let src = cat.source("Edge").unwrap().id;
        let nodes = ["a", "b", "c"];
        for spec in [
            WindowSpec::Unbounded,
            WindowSpec::Rows(0),
            WindowSpec::Rows(3),
            WindowSpec::Range(SimDuration::from_secs(7)),
            WindowSpec::Tumbling(SimDuration::from_secs(5)),
            WindowSpec::Tumbling(SimDuration::from_secs(0)),
        ] {
            for seed in crate::test_seeds(4) {
                let mut rng = seeded(0x71E3 ^ seed);
                let (mut v, mut p, mut sink) = scan_as_view_and_pipeline(&cat, spec);
                let mut emitted: HashMap<Tuple, i64> = HashMap::new();
                let mut now = 0u64;
                for step in 0..100 {
                    let ctx = format!("{spec:?}, seed {seed}, step {step}");
                    let out = if rng.gen_range(0..3u32) == 0 {
                        now += rng.gen_range(0..6u64);
                        let t = SimTime::from_secs(now);
                        p.advance_time(t, &mut sink).unwrap();
                        v.advance_time(t).unwrap()
                    } else {
                        let batch: Vec<Tuple> = (0..rng.gen_range(0..8usize))
                            .map(|_| {
                                now += rng.gen_range(0..3u64);
                                let (a, b) = (rng.gen_range(0..3usize), rng.gen_range(0..3usize));
                                stamped(
                                    nodes[a],
                                    nodes[b],
                                    now.saturating_sub(rng.gen_range(0..3u64)),
                                )
                            })
                            .collect();
                        p.push_source(src, &batch, &mut sink).unwrap();
                        v.on_base_deltas(src, &DeltaBatch::inserts(batch)).unwrap()
                    };
                    for d in &out {
                        *emitted.entry(d.tuple.clone()).or_insert(0) += d.sign;
                    }
                    emitted.retain(|_, n| *n != 0);
                    let view: HashSet<Tuple> = v.snapshot().into_iter().collect();
                    let scan: HashSet<Tuple> = sink.snapshot().unwrap().into_iter().collect();
                    assert_eq!(view, scan, "{ctx}");
                    assert!(emitted.values().all(|&n| n == 1), "{ctx}");
                    assert_eq!(emitted.len(), view.len(), "emitted deltas, {ctx}");
                }
            }
        }
    }

    #[test]
    fn advance_order_is_independent_of_hash_seed() {
        // Two windowed bases expire on one heartbeat. Every freshly
        // built view must emit the expiry deltas in the same sequence:
        // source order.
        let cat = edge_catalog();
        let schema = cat.source("Edge").unwrap().schema.clone();
        cat.register_source("Door", schema, SourceKind::Table, SourceStats::table(16))
            .unwrap();
        let (edge, door) = (
            cat.source("Edge").unwrap().id,
            cat.source("Door").unwrap().id,
        );
        let run = || {
            let mut v = bound_view(
                "create view Links as (
                    select e.src, e.dst from Edge e [range 10 seconds]
                    union
                    select d.src, d.dst from Door d [tumbling 10 seconds]
                )",
                &cat,
            );
            let mut seen = Vec::new();
            for sec in [1, 12, 23, 34] {
                for (src, name) in [(door, "door"), (edge, "edge")] {
                    let fact = stamped(name, "x", sec);
                    seen.extend(v.on_base_deltas(src, &DeltaBatch::inserts([fact])).unwrap());
                }
                // Expires this round's fact of each base, one apiece.
                seen.extend(v.advance_time(SimTime::from_secs(sec + 10)).unwrap());
            }
            assert!(v.is_empty());
            seen
        };
        let first = run();
        assert_eq!(first.len(), 16);
        for _ in 1..8 {
            assert_eq!(run(), first);
        }
    }

    /// Two instances of one view fed the same seeded churn emit the same
    /// delta sequence and count the same work: what a view records,
    /// emits and counts follows from its input, never from a hash seed.
    #[test]
    fn maintenance_is_a_function_of_the_input() {
        use aspen_types::rng::seeded;
        use rand::Rng;
        let cat = edge_catalog();
        let src = cat.source("Edge").unwrap().id;
        let nodes = ["a", "b", "c", "d", "e", "f", "g"];
        for seed in crate::test_seeds(2) {
            let run = || {
                let mut rng = seeded(0xD2ED ^ seed);
                let mut v = tc_view(&cat);
                let mut live: Vec<Tuple> = Vec::new();
                let mut emitted = Vec::new();
                for _ in 0..60 {
                    let mut batch = DeltaBatch::new();
                    for _ in 0..rng.gen_range(1..4usize) {
                        let (a, b) = (rng.gen_range(0..7usize), rng.gen_range(0..7usize));
                        let e = edge(nodes[a], nodes[b]);
                        if !live.is_empty() && rng.gen_bool(0.4) {
                            let gone = live.swap_remove(rng.gen_range(0..live.len()));
                            batch.push(Delta::retract(gone));
                        } else if !live.contains(&e) {
                            live.push(e.clone());
                            batch.push(Delta::insert(e));
                        }
                    }
                    emitted.push(v.on_base_deltas(src, &batch).unwrap());
                }
                (v.stats.clone(), emitted)
            };
            let first = run();
            let stats = &first.0;
            assert!(stats.tuples_overdeleted > 0 && stats.tuples_rederived > 0);
            assert_eq!(run(), first, "seed {seed}");
        }
    }

    #[test]
    fn unrelated_source_is_ignored() {
        let cat = edge_catalog();
        let mut v = tc_view(&cat);
        let out = v
            .on_base_deltas(
                SourceId(999),
                &DeltaBatch::from(vec![Delta::insert(edge("x", "y"))]),
            )
            .unwrap();
        assert!(out.is_empty());
        assert!(v.is_empty());
    }
}
