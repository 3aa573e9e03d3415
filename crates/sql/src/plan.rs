//! Query graphs and logical plans.
//!
//! The binder produces a [`QueryGraph`] — relations plus conjunctive
//! predicates, the representation the **federated optimizer** enumerates
//! join orders and engine partitions over — and a default [`LogicalPlan`]
//! (left-deep, in `FROM` order, with predicates placed as early as
//! possible). [`build_plan`] lowers *any* relation ordering of a graph to
//! an executable plan; [`QueryGraph::placements`] says where it places
//! each predicate, which is how the optimizer prices candidate orders
//! without building them.

use std::sync::Arc;

use aspen_catalog::SourceMeta;
use aspen_types::{
    AspenError, DataType, Field, Result, Schema, SchemaRef, SimDuration, WindowSpec,
};

use crate::ast::{CmpOp, Expr};
use crate::expr::{AggFunc, BoundAgg, BoundExpr, ScalarFunc};

/// One relation participating in a query.
#[derive(Debug, Clone)]
pub struct Relation {
    pub meta: Arc<SourceMeta>,
    /// Binding name in the query scope (alias, or source name).
    pub alias: String,
    /// Resolved window (defaults applied by the binder).
    pub window: WindowSpec,
    /// Source schema re-qualified under `alias`.
    pub schema: SchemaRef,
}

/// The optimizer-facing query representation: relations + conjunctive
/// predicates + the post-join clauses.
#[derive(Debug, Clone)]
pub struct QueryGraph {
    pub relations: Vec<Relation>,
    /// WHERE conjuncts, in AST form (qualifier-based column references).
    pub predicates: Vec<Expr>,
    /// Projection expressions with output names (wildcards expanded).
    pub projections: Vec<(Expr, String)>,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<(Expr, bool)>,
    pub limit: Option<u64>,
    pub output_display: Option<String>,
    pub sample_every: Option<SimDuration>,
}

impl QueryGraph {
    /// Bitmask of relations referenced by `expr` (bit *i* = relation *i*).
    /// Unqualified names resolve against all relation schemas; ambiguity
    /// is an error.
    pub fn relation_mask(&self, expr: &Expr) -> Result<u64> {
        let mut mask = 0u64;
        for (qualifier, name) in expr.columns() {
            let mut hit = None;
            for (i, rel) in self.relations.iter().enumerate() {
                let matches = match qualifier {
                    Some(q) => rel.alias.eq_ignore_ascii_case(q),
                    None => resolve(&rel.schema, None, name).is_some(),
                };
                if matches {
                    // For qualified refs also confirm the column exists.
                    if qualifier.is_some() && resolve(&rel.schema, qualifier, name).is_none() {
                        return Err(AspenError::Unresolved(format!(
                            "column '{name}' not found in relation '{}'",
                            rel.alias
                        )));
                    }
                    if let Some(prev) = hit {
                        let prev_alias: &str = &self.relations[prev as usize].alias;
                        return Err(AspenError::Unresolved(format!(
                            "ambiguous column '{name}': in both '{prev_alias}' and '{}'",
                            rel.alias
                        )));
                    }
                    hit = Some(i as u64);
                }
            }
            match hit {
                Some(i) => mask |= 1 << i,
                None => {
                    return Err(AspenError::Unresolved(format!(
                        "column '{}{}{}' matches no relation",
                        qualifier.unwrap_or(""),
                        if qualifier.is_some() { "." } else { "" },
                        name
                    )))
                }
            }
        }
        Ok(mask)
    }

    /// Indices of predicates that touch only relation `i` (pushdown-able
    /// selections).
    pub fn local_predicates(&self, rel_idx: usize) -> Result<Vec<usize>> {
        let mut out = Vec::new();
        for (pi, p) in self.predicates.iter().enumerate() {
            if self.relation_mask(p)? == 1 << rel_idx {
                out.push(pi);
            }
        }
        Ok(out)
    }

    /// Join predicates between exactly the two given relations.
    pub fn join_predicates(&self, a: usize, b: usize) -> Result<Vec<usize>> {
        let want = (1u64 << a) | (1 << b);
        let mut out = Vec::new();
        for (pi, p) in self.predicates.iter().enumerate() {
            if self.relation_mask(p)? == want {
                out.push(pi);
            }
        }
        Ok(out)
    }

    /// Where [`build_plan`] places each predicate in any relation order,
    /// or `None` when that depends on more than which relations are
    /// joined.
    ///
    /// A conjunct is placed at the first point of a left-deep order where
    /// it binds. When every column it names is one field of the graph, it
    /// binds over a set of relations iff the set covers its `mask` and it
    /// type-checks (the same over every such set). So it lands in the
    /// leading relation's filter if `mask` is empty or that relation, in
    /// a later relation's filter if `mask` is that relation alone, and
    /// otherwise at the join that completes `mask`: as a hash key if
    /// `hash_key`, else in the join's residual. A conjunct naming a
    /// column no field answers to never binds. It is `None` when some
    /// conjunct names a column that several fields answer to, or the
    /// graph has more than 64 relations.
    pub fn placements(&self) -> Option<Vec<Placement>> {
        if self.relations.len() > 64 {
            return None;
        }
        let mut out = Vec::with_capacity(self.predicates.len());
        for p in &self.predicates {
            let mut mask = 0u64;
            for (qualifier, name) in p.columns() {
                let mut owner = 0;
                let mut fields = 0;
                for (i, rel) in self.relations.iter().enumerate() {
                    let hits = rel
                        .schema
                        .fields()
                        .iter()
                        .filter(|f| f.matches(qualifier, name))
                        .count();
                    if hits > 0 {
                        owner = i;
                        fields += hits;
                    }
                }
                match fields {
                    0 => {}
                    1 => mask |= 1 << owner,
                    _ => return None,
                }
            }
            let hash_key = matches!(p, Expr::Cmp { op: CmpOp::Eq, left, right }
                if matches!(**left, Expr::Column { .. }) && matches!(**right, Expr::Column { .. }));
            out.push(Placement { mask, hash_key });
        }
        Some(out)
    }
}

/// Where one conjunct lands in a left-deep plan ([`QueryGraph::placements`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Bit *i* = relation *i*: the relations whose columns it names.
    pub mask: u64,
    /// `a = b` over two plain columns: a hash key where a join places it.
    pub hash_key: bool,
}

/// An executable logical plan with bound expressions.
#[derive(Debug, Clone)]
pub enum LogicalPlan {
    /// Leaf: scan one relation (its window applies to engine state).
    Scan {
        rel: Relation,
    },
    Filter {
        input: Box<LogicalPlan>,
        predicate: BoundExpr,
    },
    Project {
        input: Box<LogicalPlan>,
        exprs: Vec<BoundExpr>,
        schema: SchemaRef,
    },
    /// Windowed equi-join (+ optional residual predicate over the
    /// concatenated schema). `keys` are `(left_ordinal, right_ordinal)`.
    Join {
        left: Box<LogicalPlan>,
        right: Box<LogicalPlan>,
        keys: Vec<(usize, usize)>,
        residual: Option<BoundExpr>,
        schema: SchemaRef,
    },
    /// Grouped windowed aggregation.
    Aggregate {
        input: Box<LogicalPlan>,
        group: Vec<BoundExpr>,
        aggs: Vec<BoundAgg>,
        schema: SchemaRef,
    },
    Sort {
        input: Box<LogicalPlan>,
        keys: Vec<(BoundExpr, bool)>,
    },
    Limit {
        input: Box<LogicalPlan>,
        n: u64,
    },
    /// Bag union of same-schema inputs (view bodies).
    Union {
        inputs: Vec<LogicalPlan>,
        schema: SchemaRef,
    },
    /// Reference to the recursive view currently being defined (appears
    /// only inside a recursive view's step branches).
    RecursiveRef {
        name: String,
        schema: SchemaRef,
    },
    /// Route results to a registered display.
    Output {
        input: Box<LogicalPlan>,
        display: String,
    },
}

impl LogicalPlan {
    pub fn schema(&self) -> SchemaRef {
        match self {
            LogicalPlan::Scan { rel } => Arc::clone(&rel.schema),
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Output { input, .. } => input.schema(),
            LogicalPlan::Project { schema, .. }
            | LogicalPlan::Join { schema, .. }
            | LogicalPlan::Aggregate { schema, .. }
            | LogicalPlan::Union { schema, .. }
            | LogicalPlan::RecursiveRef { schema, .. } => Arc::clone(schema),
        }
    }

    /// Child plans, for generic traversals.
    pub fn children(&self) -> Vec<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::RecursiveRef { .. } => vec![],
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::Output { input, .. } => vec![input],
            LogicalPlan::Join { left, right, .. } => vec![left, right],
            LogicalPlan::Union { inputs, .. } => inputs.iter().collect(),
        }
    }

    /// All scan leaves under this plan.
    pub fn scans(&self) -> Vec<&Relation> {
        let mut out = Vec::new();
        fn go<'a>(p: &'a LogicalPlan, out: &mut Vec<&'a Relation>) {
            if let LogicalPlan::Scan { rel } = p {
                out.push(rel);
            }
            for c in p.children() {
                go(c, out);
            }
        }
        go(self, &mut out);
        out
    }

    /// Number of operators in the plan (for tests / stats).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// Expression binding against a schema
// ---------------------------------------------------------------------------

/// Bind an AST expression against a schema, resolving column names to
/// ordinals and checking types. Aggregates are rejected here — they are
/// lowered separately by the aggregate layer.
pub fn bind_expr(expr: &Expr, schema: &Schema) -> Result<BoundExpr> {
    match expr {
        Expr::Column { qualifier, name } => {
            let idx = schema.index_of(qualifier.as_deref(), name)?;
            Ok(BoundExpr::col(idx, schema.field(idx).data_type))
        }
        Expr::Literal(v) => Ok(BoundExpr::Lit(v.clone())),
        Expr::Cmp { op, left, right } => {
            let l = bind_expr(left, schema)?;
            let r = bind_expr(right, schema)?;
            check_comparable(&l, &r, op.render())?;
            Ok(BoundExpr::Cmp {
                op: *op,
                left: Box::new(l),
                right: Box::new(r),
            })
        }
        Expr::Like { left, right } => {
            let l = bind_expr(left, schema)?;
            let r = bind_expr(right, schema)?;
            for (side, e) in [("left", &l), ("right", &r)] {
                if let Some(t) = e.data_type() {
                    if t != DataType::Text {
                        return Err(AspenError::TypeMismatch(format!(
                            "LIKE {side} operand must be TEXT, got {t}"
                        )));
                    }
                }
            }
            Ok(BoundExpr::Like {
                left: Box::new(l),
                right: Box::new(r),
            })
        }
        Expr::Arith { op, left, right } => {
            let l = bind_expr(left, schema)?;
            let r = bind_expr(right, schema)?;
            if let (Some(a), Some(b)) = (l.data_type(), r.data_type()) {
                if DataType::unify(a, b).is_none() {
                    return Err(AspenError::TypeMismatch(format!(
                        "cannot apply '{op}' to {a} and {b}"
                    )));
                }
            }
            Ok(BoundExpr::Arith {
                op: *op,
                left: Box::new(l),
                right: Box::new(r),
            })
        }
        Expr::And(l, r) => Ok(BoundExpr::And(
            Box::new(bind_expr(l, schema)?),
            Box::new(bind_expr(r, schema)?),
        )),
        Expr::Or(l, r) => Ok(BoundExpr::Or(
            Box::new(bind_expr(l, schema)?),
            Box::new(bind_expr(r, schema)?),
        )),
        Expr::Not(e) => Ok(BoundExpr::Not(Box::new(bind_expr(e, schema)?))),
        Expr::Agg { func, .. } => Err(AspenError::InvalidArgument(format!(
            "aggregate {func}() not allowed in this clause"
        ))),
        Expr::Func { name, args } => {
            let func = ScalarFunc::by_name(name)
                .ok_or_else(|| AspenError::Unresolved(format!("unknown function '{name}'")))?;
            let mut bound = Vec::with_capacity(args.len());
            for a in args {
                bound.push(bind_expr(a, schema)?);
            }
            Ok(BoundExpr::Func { func, args: bound })
        }
    }
}

fn check_comparable(l: &BoundExpr, r: &BoundExpr, op: &str) -> Result<()> {
    if let (Some(a), Some(b)) = (l.data_type(), r.data_type()) {
        if DataType::unify(a, b).is_none() {
            return Err(AspenError::TypeMismatch(format!(
                "cannot compare {a} {op} {b}"
            )));
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Left-deep plan assembly
// ---------------------------------------------------------------------------

/// A join-tree leaf: an already-built subplan bound under an alias.
pub struct Leaf {
    pub plan: LogicalPlan,
    pub alias: String,
}

/// Assemble a left-deep join tree over `leaves` (in the given order),
/// placing each conjunct at the earliest point where all its columns are
/// in scope. Equality conjuncts linking the accumulated prefix to the new
/// leaf become hash-join keys; everything else becomes a filter/residual.
/// Conjuncts referencing columns that never come into scope are an error.
pub fn assemble_left_deep(leaves: Vec<Leaf>, conjuncts: &[Expr]) -> Result<LogicalPlan> {
    assert!(!leaves.is_empty(), "assemble_left_deep needs >= 1 leaf");
    let mut remaining: Vec<&Expr> = conjuncts.iter().collect();
    let mut iter = leaves.into_iter();
    let first = iter.next().expect("nonempty");
    let mut plan = first.plan;

    // Apply conjuncts already evaluable over the first leaf.
    plan = apply_local(plan, &mut remaining);

    for leaf in iter {
        let right = apply_local(leaf.plan, &mut remaining);
        let left_schema = plan.schema();
        let right_schema = right.schema();
        let joint = left_schema.join(&right_schema);

        // Partition the remaining conjuncts: those now evaluable.
        let mut keys: Vec<(usize, usize)> = Vec::new();
        let mut residuals: Vec<BoundExpr> = Vec::new();
        let mut still: Vec<&Expr> = Vec::new();
        for c in remaining {
            let Some(bound) = bind_if_in_scope(c, &joint) else {
                still.push(c);
                continue;
            };
            match hash_key(c, &left_schema, &right_schema) {
                Some(key) => keys.push(key),
                None => residuals.push(bound),
            }
        }
        remaining = still;

        // A join with no keys is a (windowed) cross product — legal but
        // flagged by the optimizer's cost model, not here.
        let residual = combine_and(residuals);
        // If the "join" keys are empty and a residual exists, keep it as
        // the join residual so the executor can still prune.
        plan = LogicalPlan::Join {
            left: Box::new(plan),
            right: Box::new(right),
            keys,
            residual,
            schema: joint.into_ref(),
        };
    }

    if let Some(c) = remaining.first() {
        return Err(AspenError::Unresolved(format!(
            "predicate '{}' references columns outside the query scope",
            c.render()
        )));
    }
    Ok(plan)
}

/// Pull out and apply every conjunct that is fully evaluable over `plan`.
fn apply_local(plan: LogicalPlan, remaining: &mut Vec<&Expr>) -> LogicalPlan {
    let schema = plan.schema();
    let mut local: Vec<BoundExpr> = Vec::new();
    let mut keep: Vec<&Expr> = Vec::new();
    for c in remaining.drain(..) {
        match bind_if_in_scope(c, &schema) {
            Some(b) => local.push(b),
            None => keep.push(c),
        }
    }
    *remaining = keep;
    match combine_and(local) {
        Some(pred) => LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        },
        None => plan,
    }
}

/// The index of the one field `[qualifier.]name` names in `schema`, or
/// `None` when it names no field or several: [`Schema::index_of`]'s
/// answer without building its error.
fn resolve(schema: &Schema, qualifier: Option<&str>, name: &str) -> Option<usize> {
    let mut matches = schema
        .fields()
        .iter()
        .enumerate()
        .filter(|(_, f)| f.matches(qualifier, name));
    match (matches.next(), matches.next()) {
        (Some((i, _)), None) => Some(i),
        _ => None,
    }
}

/// Bind `expr` over `schema` if it can be placed there: every column it
/// names resolves, and it binds (a conjunct that fails to type-check is
/// never placed, and ends as an out-of-scope error). The scope check runs
/// first so that a conjunct not yet in scope costs no error string.
fn bind_if_in_scope(expr: &Expr, schema: &Schema) -> Option<BoundExpr> {
    let mut in_scope = true;
    expr.walk(&mut |e| {
        if let Expr::Column { qualifier, name } = e {
            in_scope &= resolve(schema, qualifier.as_deref(), name).is_some();
        }
    });
    if in_scope {
        bind_expr(expr, schema).ok()
    } else {
        None
    }
}

/// The hash-join key `(left ordinal, right ordinal)` of an evaluable
/// conjunct, if it is `a = b` over two plain columns, one only in the
/// left schema and the other only in the right. Computed equalities stay
/// residual.
fn hash_key(c: &Expr, left: &Schema, right: &Schema) -> Option<(usize, usize)> {
    let Expr::Cmp {
        op: CmpOp::Eq,
        left: cl,
        right: cr,
    } = c
    else {
        return None;
    };
    let (
        Expr::Column {
            qualifier: lq,
            name: ln,
        },
        Expr::Column {
            qualifier: rq,
            name: rn,
        },
    ) = (cl.as_ref(), cr.as_ref())
    else {
        return None;
    };
    let sides = |q: &Option<String>, n: &str| {
        (
            resolve(left, q.as_deref(), n),
            resolve(right, q.as_deref(), n),
        )
    };
    match (sides(lq, ln), sides(rq, rn)) {
        ((Some(li), None), (None, Some(ri))) => Some((li, ri)),
        ((None, Some(ri)), (Some(li), None)) => Some((li, ri)),
        _ => None,
    }
}

fn combine_and(mut exprs: Vec<BoundExpr>) -> Option<BoundExpr> {
    match exprs.len() {
        0 => None,
        1 => Some(exprs.pop().expect("len 1")),
        _ => {
            let mut it = exprs.into_iter();
            let first = it.next().expect("nonempty");
            Some(it.fold(first, |acc, e| BoundExpr::And(Box::new(acc), Box::new(e))))
        }
    }
}

// ---------------------------------------------------------------------------
// Full lowering: graph + order -> plan
// ---------------------------------------------------------------------------

/// Lower a query graph to an executable left-deep plan using the given
/// relation order (`order` is a permutation of `0..relations.len()`).
pub fn build_plan(graph: &QueryGraph, order: &[usize]) -> Result<LogicalPlan> {
    if order.len() != graph.relations.len() {
        return Err(AspenError::InvalidArgument(format!(
            "order has {} entries for {} relations",
            order.len(),
            graph.relations.len()
        )));
    }
    let leaves: Vec<Leaf> = order
        .iter()
        .map(|&i| {
            let rel = graph.relations[i].clone();
            Leaf {
                alias: rel.alias.clone(),
                plan: LogicalPlan::Scan { rel },
            }
        })
        .collect();
    let mut plan = assemble_left_deep(leaves, &graph.predicates)?;

    // Aggregation layer.
    let has_aggs = graph.projections.iter().any(|(e, _)| e.has_aggregate())
        || graph.having.is_some()
        || !graph.group_by.is_empty();
    if has_aggs {
        plan = lower_aggregate(graph, plan)?;
    }

    // Bind ORDER BY keys against the pre-projection schema (input
    // columns or aggregate outputs).
    let mut sort_keys: Vec<(BoundExpr, bool)> = Vec::with_capacity(graph.order_by.len());
    {
        let schema = plan.schema();
        for (e, asc) in &graph.order_by {
            let bound = if has_aggs {
                bind_after_agg(e, &schema)?
            } else {
                bind_expr(e, &schema)?
            };
            sort_keys.push((bound, *asc));
        }
    }

    // Final projection.
    let schema = plan.schema();
    let mut exprs = Vec::with_capacity(graph.projections.len());
    let mut fields = Vec::with_capacity(graph.projections.len());
    for (e, name) in &graph.projections {
        let bound = if has_aggs {
            bind_after_agg(e, &schema)?
        } else {
            bind_expr(e, &schema)?
        };
        let dt = bound.data_type().unwrap_or(DataType::Text);
        fields.push(Field::new(name.clone(), dt));
        exprs.push(bound);
    }

    // Hoist Sort above Project when every sort key is itself projected
    // (remapped to the output ordinal) — this keeps presentation
    // operators at the plan root, where the stream engine's sink applies
    // them. Keys not present in the projection leave the Sort below the
    // Project (such plans run as one-shot queries but are rejected by
    // the continuous-pipeline compiler).
    let remapped: Option<Vec<(BoundExpr, bool)>> = sort_keys
        .iter()
        .map(|(k, asc)| {
            exprs
                .iter()
                .position(|p| p == k)
                .map(|i| (BoundExpr::col(i, fields[i].data_type), *asc))
        })
        .collect();
    let sort_below = if remapped.is_none() && !sort_keys.is_empty() {
        plan = LogicalPlan::Sort {
            input: Box::new(plan),
            keys: sort_keys.clone(),
        };
        true
    } else {
        false
    };

    plan = LogicalPlan::Project {
        input: Box::new(plan),
        exprs,
        schema: Schema::new(fields).into_ref(),
    };

    if let Some(keys) = remapped {
        if !keys.is_empty() && !sort_below {
            plan = LogicalPlan::Sort {
                input: Box::new(plan),
                keys,
            };
        }
    }

    if let Some(n) = graph.limit {
        plan = LogicalPlan::Limit {
            input: Box::new(plan),
            n,
        };
    }
    if let Some(display) = &graph.output_display {
        plan = LogicalPlan::Output {
            input: Box::new(plan),
            display: display.clone(),
        };
    }
    Ok(plan)
}

/// Collect the distinct aggregate calls appearing in projections + HAVING
/// + ORDER BY, in first-appearance order.
pub fn collect_aggregates(graph: &QueryGraph) -> Vec<Expr> {
    let mut seen: Vec<Expr> = Vec::new();
    let mut visit = |e: &Expr| {
        e.walk(&mut |sub| {
            if matches!(sub, Expr::Agg { .. }) && !seen.iter().any(|s| s == sub) {
                seen.push(sub.clone());
            }
        });
    };
    for (e, _) in &graph.projections {
        visit(e);
    }
    if let Some(h) = &graph.having {
        visit(h);
    }
    for (e, _) in &graph.order_by {
        visit(e);
    }
    seen
}

fn lower_aggregate(graph: &QueryGraph, input: LogicalPlan) -> Result<LogicalPlan> {
    let in_schema = input.schema();

    // Group keys.
    let mut group = Vec::with_capacity(graph.group_by.len());
    let mut fields = Vec::new();
    for g in &graph.group_by {
        let b = bind_expr(g, &in_schema)?;
        let name = match g {
            Expr::Column { name, .. } => name.clone(),
            other => other.render(),
        };
        let dt = b.data_type().unwrap_or(DataType::Text);
        // Preserve the qualifier so post-agg binding can resolve
        // qualified references like `m.room`.
        let field = match g {
            Expr::Column {
                qualifier: Some(q), ..
            } => Field::qualified(q.clone(), name, dt),
            _ => Field::new(name, dt),
        };
        fields.push(field);
        group.push(b);
    }

    // Aggregate calls.
    let agg_exprs = collect_aggregates(graph);
    if agg_exprs.is_empty() && graph.group_by.is_empty() {
        return Err(AspenError::InvalidArgument(
            "HAVING without aggregates or GROUP BY".into(),
        ));
    }
    let mut aggs = Vec::with_capacity(agg_exprs.len());
    for a in &agg_exprs {
        let Expr::Agg { func, arg } = a else {
            unreachable!("collect_aggregates returns Agg nodes");
        };
        let f = AggFunc::by_name(func)
            .ok_or_else(|| AspenError::Unresolved(format!("unknown aggregate '{func}'")))?;
        let bound_arg = match arg {
            Some(e) => Some(bind_expr(e, &in_schema)?),
            None => None,
        };
        let name = a.render();
        let dt = f.return_type(bound_arg.as_ref().and_then(BoundExpr::data_type));
        fields.push(Field::new(name.clone(), dt));
        aggs.push(BoundAgg {
            func: f,
            arg: bound_arg,
            name,
        });
    }

    let schema = Schema::new(fields).into_ref();
    let mut plan = LogicalPlan::Aggregate {
        input: Box::new(input),
        group,
        aggs,
        schema: Arc::clone(&schema),
    };

    if let Some(h) = &graph.having {
        let pred = bind_after_agg(h, &schema)?;
        plan = LogicalPlan::Filter {
            input: Box::new(plan),
            predicate: pred,
        };
    }
    Ok(plan)
}

/// Bind an expression against the *output* of the aggregate operator:
/// aggregate calls resolve to their output columns (by rendered name);
/// plain columns must be group keys.
fn bind_after_agg(expr: &Expr, agg_schema: &Schema) -> Result<BoundExpr> {
    match expr {
        Expr::Agg { .. } => {
            let name = expr.render();
            let idx = agg_schema.index_of(None, &name).map_err(|_| {
                AspenError::Unresolved(format!("aggregate '{name}' not computed by this query"))
            })?;
            Ok(BoundExpr::col(idx, agg_schema.field(idx).data_type))
        }
        Expr::Column { qualifier, name } => {
            let idx = agg_schema
                .index_of(qualifier.as_deref(), name)
                .map_err(|_| {
                    AspenError::InvalidArgument(format!(
                        "column '{}' must appear in GROUP BY to be used here",
                        expr.render()
                    ))
                })?;
            Ok(BoundExpr::col(idx, agg_schema.field(idx).data_type))
        }
        Expr::Literal(v) => Ok(BoundExpr::Lit(v.clone())),
        Expr::Cmp { op, left, right } => Ok(BoundExpr::Cmp {
            op: *op,
            left: Box::new(bind_after_agg(left, agg_schema)?),
            right: Box::new(bind_after_agg(right, agg_schema)?),
        }),
        Expr::Like { left, right } => Ok(BoundExpr::Like {
            left: Box::new(bind_after_agg(left, agg_schema)?),
            right: Box::new(bind_after_agg(right, agg_schema)?),
        }),
        Expr::Arith { op, left, right } => Ok(BoundExpr::Arith {
            op: *op,
            left: Box::new(bind_after_agg(left, agg_schema)?),
            right: Box::new(bind_after_agg(right, agg_schema)?),
        }),
        Expr::And(l, r) => Ok(BoundExpr::And(
            Box::new(bind_after_agg(l, agg_schema)?),
            Box::new(bind_after_agg(r, agg_schema)?),
        )),
        Expr::Or(l, r) => Ok(BoundExpr::Or(
            Box::new(bind_after_agg(l, agg_schema)?),
            Box::new(bind_after_agg(r, agg_schema)?),
        )),
        Expr::Not(e) => Ok(BoundExpr::Not(Box::new(bind_after_agg(e, agg_schema)?))),
        Expr::Func { name, args } => {
            let func = ScalarFunc::by_name(name)
                .ok_or_else(|| AspenError::Unresolved(format!("unknown function '{name}'")))?;
            let mut bound = Vec::with_capacity(args.len());
            for a in args {
                bound.push(bind_after_agg(a, agg_schema)?);
            }
            Ok(BoundExpr::Func { func, args: bound })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_catalog::{SourceKind, SourceMeta, SourceStats};
    use aspen_types::SourceId;

    fn rel(alias: &str, cols: &[(&str, DataType)]) -> Relation {
        let schema = Schema::new(
            cols.iter()
                .map(|(n, t)| Field::new(*n, *t))
                .collect::<Vec<_>>(),
        );
        let qualified = schema.with_qualifier(alias).into_ref();
        Relation {
            meta: SourceMeta::new(
                SourceId(0),
                alias.to_string(),
                schema.into_ref(),
                SourceKind::Table,
                SourceStats::table(100),
            ),
            alias: alias.to_string(),
            window: WindowSpec::Unbounded,
            schema: qualified,
        }
    }

    fn graph2() -> QueryGraph {
        QueryGraph {
            relations: vec![
                rel("a", &[("x", DataType::Int), ("y", DataType::Text)]),
                rel("b", &[("x", DataType::Int), ("z", DataType::Float)]),
            ],
            predicates: vec![
                Expr::eq(Expr::col("a", "x"), Expr::col("b", "x")),
                Expr::Cmp {
                    op: CmpOp::Gt,
                    left: Box::new(Expr::col("b", "z")),
                    right: Box::new(Expr::lit(1.5)),
                },
            ],
            projections: vec![
                (Expr::col("a", "y"), "y".into()),
                (Expr::col("b", "z"), "z".into()),
            ],
            group_by: vec![],
            having: None,
            order_by: vec![],
            limit: None,
            output_display: None,
            sample_every: None,
        }
    }

    #[test]
    fn relation_masks() {
        let g = graph2();
        assert_eq!(g.relation_mask(&g.predicates[0]).unwrap(), 0b11);
        assert_eq!(g.relation_mask(&g.predicates[1]).unwrap(), 0b10);
        // unqualified unique column resolves
        assert_eq!(g.relation_mask(&Expr::bare("y")).unwrap(), 0b01);
        // unqualified ambiguous errors
        assert!(g.relation_mask(&Expr::bare("x")).is_err());
        // unknown column errors
        assert!(g.relation_mask(&Expr::bare("nope")).is_err());
        // qualified but wrong column errors
        assert!(g.relation_mask(&Expr::col("a", "z")).is_err());
    }

    #[test]
    fn placements_follow_relation_masks() {
        let mut g = graph2();
        g.predicates
            .push(Expr::eq(Expr::lit(1i64), Expr::lit(1i64)));
        g.predicates
            .push(Expr::eq(Expr::bare("nope"), Expr::lit(1i64)));
        let at = |mask, hash_key| Placement { mask, hash_key };
        assert_eq!(
            g.placements(),
            Some(vec![
                at(0b11, true),
                at(0b10, false),
                at(0, false),
                at(0, false)
            ])
        );
        // `x` is a field of both relations: placed wherever it first
        // binds alone, which depends on the order.
        g.predicates
            .push(Expr::eq(Expr::bare("x"), Expr::lit(1i64)));
        assert_eq!(g.placements(), None);
    }

    #[test]
    fn local_and_join_predicates() {
        let g = graph2();
        assert_eq!(g.local_predicates(1).unwrap(), vec![1]);
        assert_eq!(g.local_predicates(0).unwrap(), Vec::<usize>::new());
        assert_eq!(g.join_predicates(0, 1).unwrap(), vec![0]);
    }

    #[test]
    fn build_plan_produces_equi_join_with_pushed_filter() {
        let g = graph2();
        let plan = build_plan(&g, &[0, 1]).unwrap();
        // Expect Project(Join(Scan a, Filter(Scan b))).
        let LogicalPlan::Project { input, schema, .. } = &plan else {
            panic!("top should be Project, got {plan:?}")
        };
        assert_eq!(schema.len(), 2);
        let LogicalPlan::Join {
            left,
            right,
            keys,
            residual,
            ..
        } = input.as_ref()
        else {
            panic!("expected join")
        };
        assert_eq!(keys, &vec![(0usize, 0usize)]);
        assert!(residual.is_none());
        assert!(matches!(left.as_ref(), LogicalPlan::Scan { .. }));
        assert!(matches!(right.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn build_plan_reversed_order_flips_key_sides() {
        let g = graph2();
        let plan = build_plan(&g, &[1, 0]).unwrap();
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!()
        };
        let LogicalPlan::Join { keys, left, .. } = input.as_ref() else {
            panic!()
        };
        // b is now on the left; key ordinal 0 on left refers to b.x.
        assert_eq!(keys, &vec![(0usize, 0usize)]);
        assert!(matches!(left.as_ref(), LogicalPlan::Filter { .. }));
    }

    #[test]
    fn unplaceable_predicate_errors() {
        let mut g = graph2();
        g.predicates
            .push(Expr::eq(Expr::col("c", "w"), Expr::lit(1i64)));
        assert!(build_plan(&g, &[0, 1]).is_err());
    }

    #[test]
    fn aggregation_lowering() {
        let mut g = graph2();
        g.projections = vec![
            (Expr::col("a", "y"), "y".into()),
            (
                Expr::Agg {
                    func: "avg".into(),
                    arg: Some(Box::new(Expr::col("b", "z"))),
                },
                "avg_z".into(),
            ),
        ];
        g.group_by = vec![Expr::col("a", "y")];
        g.having = Some(Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::Agg {
                func: "count".into(),
                arg: None,
            }),
            right: Box::new(Expr::lit(2i64)),
        });
        let plan = build_plan(&g, &[0, 1]).unwrap();
        // Project(Filter(Aggregate(Join(..))))
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!()
        };
        let LogicalPlan::Filter { input: agg, .. } = input.as_ref() else {
            panic!("expected HAVING filter, got {input:?}")
        };
        let LogicalPlan::Aggregate {
            group,
            aggs,
            schema,
            ..
        } = agg.as_ref()
        else {
            panic!()
        };
        assert_eq!(group.len(), 1);
        // avg from projection + count(*) from having
        assert_eq!(aggs.len(), 2);
        assert_eq!(schema.len(), 3);
    }

    #[test]
    fn having_on_ungrouped_column_errors() {
        let mut g = graph2();
        g.group_by = vec![Expr::col("a", "y")];
        g.having = Some(Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::col("b", "z")), // not grouped
            right: Box::new(Expr::lit(0.0)),
        });
        assert!(build_plan(&g, &[0, 1]).is_err());
    }

    #[test]
    fn order_and_limit_layering() {
        let mut g = graph2();
        g.order_by = vec![(Expr::col("b", "z"), false)];
        g.limit = Some(3);
        g.output_display = Some("lobby".into());
        let plan = build_plan(&g, &[0, 1]).unwrap();
        let LogicalPlan::Output { input, display } = &plan else {
            panic!()
        };
        assert_eq!(display, "lobby");
        let LogicalPlan::Limit { input, n } = input.as_ref() else {
            panic!()
        };
        assert_eq!(*n, 3);
        // b.z is projected, so the Sort is hoisted above the Project and
        // keyed on the output ordinal.
        let LogicalPlan::Sort { input, keys } = input.as_ref() else {
            panic!("expected Sort above Project, got {input:?}")
        };
        assert!(matches!(keys[0].0, BoundExpr::Col { index: 1, .. }));
        assert!(matches!(input.as_ref(), LogicalPlan::Project { .. }));
    }

    #[test]
    fn scans_and_node_count() {
        let g = graph2();
        let plan = build_plan(&g, &[0, 1]).unwrap();
        assert_eq!(plan.scans().len(), 2);
        assert!(plan.node_count() >= 4);
    }

    #[test]
    fn cross_join_allowed_without_keys() {
        let mut g = graph2();
        g.predicates.clear();
        let plan = build_plan(&g, &[0, 1]).unwrap();
        let LogicalPlan::Project { input, .. } = &plan else {
            panic!()
        };
        let LogicalPlan::Join { keys, residual, .. } = input.as_ref() else {
            panic!()
        };
        assert!(keys.is_empty());
        assert!(residual.is_none());
    }

    #[test]
    fn type_mismatch_in_predicate_rejected() {
        let mut g = graph2();
        // a.y TEXT > 5 INT
        g.predicates = vec![Expr::Cmp {
            op: CmpOp::Gt,
            left: Box::new(Expr::col("a", "y")),
            right: Box::new(Expr::lit(5i64)),
        }];
        let err = build_plan(&g, &[0, 1]).unwrap_err();
        assert_eq!(err.kind(), "unresolved"); // unplaceable because binding fails
    }
}
