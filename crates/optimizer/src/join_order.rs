//! The stream engine's join-order search.
//!
//! The federated optimizer asks, for each candidate's residual graph,
//! which left-deep order of its relations the stream engine should run.
//! It enumerates every order (n ≤ [`MAX_ENUMERATED`]) and keeps the one
//! with the lowest latency, CPU work breaking ties. Enumeration stays
//! exhaustive: the cost model cannot be split by subsets of relations (a
//! join halves its cardinality once for *any* residual and clamps at one
//! tuple, so a prefix's cardinality depends on the order of its
//! relations, not only on the set), so a dynamic program over subsets
//! could pick a different order.
//!
//! What makes enumeration cheap is [`OrderPrices`]: one table per graph,
//! from which an order's [`StreamCost`] is a walk over the order. It
//! equals `estimate_plan(&build_plan(graph, order)?)` bit for bit, and is
//! `None` exactly when that plan fails to build — without building it.
//! Only the winner's plan is built.

use aspen_sql::plan::{bind_expr, build_plan, LogicalPlan, Placement, QueryGraph};

use crate::stream_cost::{
    estimate_plan, join_cardinality, latency_sec, node_cardinality, node_ops,
    predicate_selectivity, scan_cardinality, StreamCost, BYTES_PER_TUPLE, CPU_OPS_PER_SEC,
};

/// The most relations whose orders are enumerated; a larger graph runs
/// its relations as written.
pub const MAX_ENUMERATED: usize = 7;

/// The cheapest left-deep order of `graph`'s relations and its cost, or
/// `None` when no order's plan builds. Orders are tried in `permute`
/// order and a later one wins only if strictly cheaper, so ties go to the
/// first.
pub(crate) fn best_stream_order(graph: &QueryGraph) -> Option<(Vec<usize>, StreamCost)> {
    let prices = OrderPrices::new(graph);
    let n = graph.relations.len();
    let mut best: Option<(f64, Vec<usize>, StreamCost)> = None;
    let mut consider = |order: &[usize]| {
        let Some(cost) = prices.price(order) else {
            return;
        };
        // The stream engine minimizes latency, with CPU work as the
        // tiebreaker.
        let metric = cost.latency_sec * 1e6 + cost.cpu_ops * 1e-3;
        if best.as_ref().is_none_or(|(b, ..)| metric < *b) {
            best = Some((metric, order.to_vec(), cost));
        }
    };
    let mut order: Vec<usize> = (0..n).collect();
    if n <= MAX_ENUMERATED {
        permute(&mut order, 0, &mut consider);
    } else {
        consider(&order);
    }
    best.map(|(_, order, cost)| (order, cost))
}

fn permute(arr: &mut Vec<usize>, k: usize, f: &mut impl FnMut(&[usize])) {
    if k == arr.len() {
        f(arr);
        return;
    }
    for i in k..arr.len() {
        arr.swap(k, i);
        permute(arr, k + 1, f);
        arr.swap(k, i);
    }
}

/// Prices the left-deep orders of one query graph.
pub struct OrderPrices<'g> {
    graph: &'g QueryGraph,
    pricing: Pricing,
}

enum Pricing {
    /// No order's plan builds: some conjunct never binds (a column no
    /// relation has, a type mismatch), or a clause above the joins fails.
    Unbuildable,
    Table(Table),
    /// Build each order's plan: where some conjunct can be placed
    /// depends on more than which relations are joined.
    Build,
}

/// A prefix's price follows from the order, the relations' scans and
/// filters, and where each conjunct is placed
/// ([`QueryGraph::placements`]).
struct Table {
    leaves: Vec<Leaf>,
    placements: Vec<Placement>,
    /// The identity order's plan. The operators it stacks above its join
    /// tree (the aggregate, HAVING, sort, projection, limit and output
    /// layers) are the same over every order's join tree.
    plan: LogicalPlan,
}

struct Leaf {
    card: f64,
    /// Stream-like scans ship their tuples over the LAN.
    stream: bool,
    /// Selectivity of the filter over this relation when it leads the
    /// order (its own conjuncts and the constant-only ones), `None` when
    /// there is no filter.
    sel_first: Option<f64>,
    /// The same when it joins later (its own conjuncts only).
    sel_later: Option<f64>,
}

impl<'g> OrderPrices<'g> {
    pub fn new(graph: &'g QueryGraph) -> Self {
        OrderPrices {
            graph,
            pricing: pricing(graph),
        }
    }

    /// The cost of the plan `build_plan(graph, order)` would build, or
    /// `None` if it would fail. `order` is a permutation of the graph's
    /// relation indices.
    pub fn price(&self, order: &[usize]) -> Option<StreamCost> {
        match &self.pricing {
            Pricing::Unbuildable => None,
            Pricing::Table(table) => {
                (order.len() == self.graph.relations.len()).then(|| table.price(order))
            }
            Pricing::Build => build_plan(self.graph, order)
                .ok()
                .map(|plan| estimate_plan(&plan)),
        }
    }
}

fn pricing(graph: &QueryGraph) -> Pricing {
    let Some(placements) = graph.placements() else {
        return Pricing::Build;
    };
    // Every conjunct binds in one order iff it binds in all of them,
    // and the layers above the joins see the same columns in every
    // order: one build decides for all.
    let identity: Vec<usize> = (0..graph.relations.len()).collect();
    let Ok(plan) = build_plan(graph, &identity) else {
        return Pricing::Unbuildable;
    };
    let mut joins = &plan;
    while let Some(input) = below_top(joins) {
        joins = input;
    }
    let joint = joins.schema();
    let mut sels = Vec::with_capacity(placements.len());
    for p in &graph.predicates {
        let Ok(bound) = bind_expr(p, &joint) else {
            return Pricing::Build;
        };
        sels.push(predicate_selectivity(&bound));
    }
    // A filter's predicate is its conjuncts and-ed left to right, so
    // its selectivity is their product in that order.
    let product = |placed: &dyn Fn(u64) -> bool| {
        sels.iter()
            .zip(&placements)
            .filter(|(_, p)| placed(p.mask))
            .map(|(&s, _)| s)
            .reduce(|a, b| a * b)
    };
    let leaves = graph
        .relations
        .iter()
        .enumerate()
        .map(|(i, rel)| {
            let bit = 1u64 << i;
            Leaf {
                card: scan_cardinality(rel),
                stream: rel.meta.kind.is_stream_like(),
                sel_first: product(&|m| m & !bit == 0),
                sel_later: product(&|m| m == bit),
            }
        })
        .collect();
    Pricing::Table(Table {
        leaves,
        placements,
        plan,
    })
}

impl Table {
    /// `estimate_plan`'s post-order additions over the order's left-deep
    /// tree: each scan, its filter, then the join that adds it, then the
    /// layers above the joins.
    fn price(&self, order: &[usize]) -> StreamCost {
        let mut cost = StreamCost::default();
        let mut joined = 0u64;
        let mut card = 0.0;
        for (pos, &r) in order.iter().enumerate() {
            let leaf = &self.leaves[r];
            let bit = 1u64 << r;
            let mut right = leaf.card;
            cost.cpu_ops += right;
            if leaf.stream {
                cost.lan_bytes += right * BYTES_PER_TUPLE;
            }
            let sel = if pos == 0 {
                leaf.sel_first
            } else {
                leaf.sel_later
            };
            if let Some(sel) = sel {
                cost.cpu_ops += right;
                right *= sel;
            }
            if pos == 0 {
                card = right;
                joined = bit;
                continue;
            }
            // The join places each conjunct that this relation completes
            // and that is over neither side alone.
            let mut keys = 0;
            let mut residual = false;
            for p in &self.placements {
                if p.mask & !(joined | bit) == 0 && p.mask & !joined != 0 && p.mask != bit {
                    if p.hash_key {
                        keys += 1;
                    } else {
                        residual = true;
                    }
                }
            }
            let out = join_cardinality(card, right, keys, residual);
            cost.cpu_ops += card + right + out;
            card = out;
            joined |= bit;
        }
        cost.out_card = price_top(&self.plan, card, &mut cost);
        cost.latency_sec = latency_sec(order.len(), cost.cpu_ops, CPU_OPS_PER_SEC);
        cost
    }
}

/// The input of an operator `build_plan` stacks above the join tree, or
/// `None` at the join tree's root (a join, or a first relation's scan or
/// filter).
fn below_top(plan: &LogicalPlan) -> Option<&LogicalPlan> {
    match plan {
        LogicalPlan::Output { input, .. }
        | LogicalPlan::Limit { input, .. }
        | LogicalPlan::Sort { input, .. }
        | LogicalPlan::Project { input, .. }
        | LogicalPlan::Aggregate { input, .. } => Some(input),
        // HAVING; a filter over a scan belongs to the join tree.
        LogicalPlan::Filter { input, .. } if matches!(**input, LogicalPlan::Aggregate { .. }) => {
            Some(input)
        }
        _ => None,
    }
}

/// Price the operators `plan` stacks above its join tree, in post-order
/// as `estimate_plan` does, over a join tree of cardinality `joins`;
/// return the plan's cardinality.
fn price_top(plan: &LogicalPlan, joins: f64, cost: &mut StreamCost) -> f64 {
    let Some(input) = below_top(plan) else {
        return joins;
    };
    let inputs = [price_top(input, joins, cost)];
    let card = node_cardinality(plan, &inputs);
    cost.cpu_ops += node_ops(plan, &inputs, card);
    card
}
