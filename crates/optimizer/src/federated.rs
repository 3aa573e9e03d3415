//! The federated optimizer proper.
//!
//! For a bound query graph it enumerates candidate *partitionings*:
//! which connected fragment of device relations (none, one, or a
//! proximity-joined pair) to push into the sensor network. Each
//! candidate is priced by the two engine sub-optimizers in their native
//! units — the sensor engine in radio messages/epoch
//! ([`aspen_sensor::subquery::estimate_messages`]), the stream engine in
//! latency/CPU/LAN ([`crate::stream_cost`]) over the **best join order**
//! ([`crate::join_order`]: every left-deep order, each priced from one
//! table per residual graph rather than by building its plan) — then
//! normalized through the catalog's [`aspen_catalog::CostModelParams`]
//! and summed. The winner becomes a [`FederatedPlan`]; its stream plan
//! and SQL are the only ones built.
//!
//! The pushed fragment is also rendered as SQL — a `CREATE VIEW` plus the
//! rewritten residual query — reproducing the decomposition shown in the
//! paper's Figure 1 (`OpenMachineInfo`).

use std::collections::HashMap;
use std::sync::Arc;

use aspen_catalog::{Catalog, NormalizedCost, SourceKind, SourceMeta, SourceStats};
use aspen_sensor::subquery::{admit, estimate_messages, SensorSubquery};
use aspen_sql::ast::{CmpOp, Expr};
use aspen_sql::plan::{build_plan, LogicalPlan, QueryGraph, Relation};
use aspen_types::{AspenError, DataType, Field, Result, Schema, SimDuration, SourceId, WindowSpec};

use crate::join_order::{best_stream_order, MAX_ENUMERATED};
use crate::stream_cost::StreamCost;

/// The sensor-side half of a chosen partitioning.
#[derive(Debug, Clone)]
pub struct SensorPart {
    pub subquery: SensorSubquery,
    /// Indices (into the *original* graph) of the pushed relations.
    pub relations: Vec<usize>,
    pub view_name: String,
    /// Exported columns: `(rel_idx, column, output_name)`.
    pub view_columns: Vec<(usize, String, String)>,
}

/// One candidate partitioning considered during optimization.
#[derive(Debug, Clone)]
pub struct CandidateSummary {
    /// Aliases of the pushed relations (empty = everything on the
    /// stream engine).
    pub fragment: Vec<String>,
    /// Did the sensor engine's Garlic interface accept the fragment?
    pub admitted: bool,
    pub sensor_msgs: f64,
    pub stream_latency_sec: f64,
    /// Total cost in normalized units (`f64::INFINITY` if not viable).
    pub total_units: f64,
    pub chosen: bool,
}

/// The optimizer's output: a two-engine execution plan.
#[derive(Debug, Clone)]
pub struct FederatedPlan {
    pub sensor: Option<SensorPart>,
    /// The residual query over stream-side relations (+ the synthetic
    /// sensor-output relation when a fragment was pushed).
    pub stream_graph: QueryGraph,
    pub stream_order: Vec<usize>,
    pub stream_plan: LogicalPlan,
    pub sensor_cost_msgs: f64,
    pub stream_cost: StreamCost,
    pub total_cost: NormalizedCost,
    pub candidates: Vec<CandidateSummary>,
    /// Figure-1-style rendering of the pushed fragment.
    pub view_sql: Option<String>,
    /// Figure-1-style rendering of the rewritten residual query.
    pub rewritten_sql: Option<String>,
}

/// Optimize with the default view name for pushed fragments.
pub fn optimize(graph: &QueryGraph, catalog: &Catalog) -> Result<FederatedPlan> {
    optimize_named(graph, catalog, "OpenMachineInfo")
}

/// Optimize, naming any pushed fragment's view `view_name`.
pub fn optimize_named(
    graph: &QueryGraph,
    catalog: &Catalog,
    view_name: &str,
) -> Result<FederatedPlan> {
    let params = catalog.cost_params();
    let net = catalog.network_stats();

    // Candidate fragments: none, every single device relation, every
    // device pair.
    let device_rels: Vec<usize> = graph
        .relations
        .iter()
        .enumerate()
        .filter(|(_, r)| matches!(r.meta.kind, SourceKind::Device(_)))
        .map(|(i, _)| i)
        .collect();
    let mut fragments: Vec<Vec<usize>> = vec![vec![]];
    for &a in &device_rels {
        fragments.push(vec![a]);
    }
    for (i, &a) in device_rels.iter().enumerate() {
        for &b in &device_rels[i + 1..] {
            fragments.push(vec![a, b]);
        }
    }

    let mut candidates = Vec::new();
    // The cheapest candidate so far; only the winner's plan is built and
    // rendered.
    let mut best: Option<Winner> = None;

    for fragment in fragments {
        let aliases: Vec<String> = fragment
            .iter()
            .map(|&i| graph.relations[i].alias.clone())
            .collect();

        // Garlic step 1: admission.
        let subq = if fragment.is_empty() {
            None
        } else {
            match admit(graph, &fragment)? {
                Some(s) => Some(s),
                None => {
                    candidates.push(CandidateSummary {
                        fragment: aliases,
                        admitted: false,
                        sensor_msgs: 0.0,
                        stream_latency_sec: 0.0,
                        total_units: f64::INFINITY,
                        chosen: false,
                    });
                    continue;
                }
            }
        };

        // Garlic step 2: sensor-side native cost. Device relations left
        // OUT of the fragment still have to reach the PC side: every raw
        // reading crosses the radio network to the base station. That
        // collection traffic is what in-network processing saves.
        let fragment_msgs = subq
            .as_ref()
            .map(|s| estimate_messages(graph, s, &net))
            .unwrap_or(0.0);
        let residual_msgs: f64 = device_rels
            .iter()
            .filter(|i| !fragment.contains(i))
            .map(|&i| collect_all_msgs(graph, i, &net))
            .sum();
        let sensor_msgs = fragment_msgs + residual_msgs;

        // Build the residual stream graph.
        let (stream_graph, sensor_part) = match &subq {
            Some(s) => {
                let (g, part) = make_stream_graph(graph, &fragment, s, view_name)?;
                (g, Some(part))
            }
            None => (graph.clone(), None),
        };

        // Stream engine sub-optimizer: best join order (exhaustive).
        let Some((order, scost)) = best_stream_order(&stream_graph) else {
            candidates.push(CandidateSummary {
                fragment: aliases,
                admitted: true,
                sensor_msgs,
                stream_latency_sec: 0.0,
                total_units: f64::INFINITY,
                chosen: false,
            });
            continue;
        };

        // Normalize and sum.
        let total = params.from_messages(sensor_msgs)
            + params.from_stream_cost(scost.latency_sec, scost.cpu_ops, scost.lan_bytes);

        candidates.push(CandidateSummary {
            fragment: aliases,
            admitted: true,
            sensor_msgs,
            stream_latency_sec: scost.latency_sec,
            total_units: total.units,
            chosen: false,
        });

        if best.as_ref().is_none_or(|b| total.units < b.total.units) {
            best = Some(Winner {
                sensor: sensor_part,
                stream_graph,
                stream_order: order,
                sensor_cost_msgs: sensor_msgs,
                stream_cost: scost,
                total,
            });
        }
    }

    let w =
        best.ok_or_else(|| AspenError::NotExecutable("no executable partitioning found".into()))?;
    let fragment: Vec<String> = w
        .sensor
        .as_ref()
        .map(|s| {
            s.relations
                .iter()
                .map(|&i| graph.relations[i].alias.clone())
                .collect()
        })
        .unwrap_or_default();
    for c in &mut candidates {
        c.chosen = (c.total_units - w.total.units).abs() < 1e-12 && c.fragment == fragment;
    }
    let (view_sql, rewritten_sql) = match &w.sensor {
        Some(part) => (
            Some(render_view_sql(graph, part)),
            Some(render_rewritten_sql(&w.stream_graph)),
        ),
        None => (None, None),
    };
    Ok(FederatedPlan {
        stream_plan: build_plan(&w.stream_graph, &w.stream_order)?,
        sensor: w.sensor,
        stream_graph: w.stream_graph,
        stream_order: w.stream_order,
        sensor_cost_msgs: w.sensor_cost_msgs,
        stream_cost: w.stream_cost,
        total_cost: w.total,
        candidates,
        view_sql,
        rewritten_sql,
    })
}

/// The cheapest candidate partitioning found so far.
struct Winner {
    sensor: Option<SensorPart>,
    stream_graph: QueryGraph,
    stream_order: Vec<usize>,
    sensor_cost_msgs: f64,
    stream_cost: StreamCost,
    total: NormalizedCost,
}

/// Messages per epoch to ship every raw reading of a device relation to
/// the base station (the cost of *not* pushing computation in-network).
fn collect_all_msgs(graph: &QueryGraph, rel: usize, net: &aspen_catalog::NetworkStats) -> f64 {
    let fleet = match &graph.relations[rel].meta.kind {
        SourceKind::Device(d) => d.fleet_size as f64,
        _ => return 0.0,
    };
    let avg_hops = (net.diameter_hops as f64 / 2.0).max(1.0) * net.expected_tx_per_hop();
    fleet * avg_hops
}

// ---------------------------------------------------------------------------
// Residual-graph construction (the Figure-1 rewrite)
// ---------------------------------------------------------------------------

type ColRef = (usize, String); // (relation index, lowercase column)

/// Resolve which fragment relation (if any) owns a column reference.
fn owner_of(
    graph: &QueryGraph,
    fragment: &[usize],
    qualifier: Option<&str>,
    name: &str,
) -> Option<usize> {
    match qualifier {
        Some(q) => fragment
            .iter()
            .copied()
            .find(|&i| graph.relations[i].alias.eq_ignore_ascii_case(q)),
        None => {
            let hits: Vec<usize> = fragment
                .iter()
                .copied()
                .filter(|&i| graph.relations[i].schema.index_of(None, name).is_ok())
                .collect();
            if hits.len() == 1 {
                Some(hits[0])
            } else {
                None
            }
        }
    }
}

/// Union-find over fragment columns linked by intra-fragment equality.
struct EquivClasses {
    items: Vec<ColRef>,
    parent: Vec<usize>,
}

impl EquivClasses {
    fn new() -> Self {
        EquivClasses {
            items: vec![],
            parent: vec![],
        }
    }
    fn idx(&mut self, c: ColRef) -> usize {
        if let Some(i) = self.items.iter().position(|x| *x == c) {
            i
        } else {
            self.items.push(c);
            self.parent.push(self.items.len() - 1);
            self.items.len() - 1
        }
    }
    fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }
    fn union(&mut self, a: ColRef, b: ColRef) {
        let (ia, ib) = (self.idx(a), self.idx(b));
        let (ra, rb) = (self.find(ia), self.find(ib));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
    fn class_of(&mut self, c: ColRef) -> Vec<ColRef> {
        if let Some(i) = self.items.iter().position(|x| *x == c) {
            let root = self.find(i);
            let mut out = Vec::new();
            for j in 0..self.items.len() {
                if self.find(j) == root {
                    out.push(self.items[j].clone());
                }
            }
            out
        } else {
            vec![c]
        }
    }
}

fn make_stream_graph(
    graph: &QueryGraph,
    fragment: &[usize],
    subq: &SensorSubquery,
    view_name: &str,
) -> Result<(QueryGraph, SensorPart)> {
    let in_fragment = |mask: u64| -> bool {
        let frag: u64 = fragment.iter().map(|&i| 1u64 << i).sum();
        mask != 0 && mask & !frag == 0
    };

    // Equivalence classes from intra-fragment equalities (so `sa.room =
    // ss.room` lets the view export a single `room` column).
    let mut classes = EquivClasses::new();
    for p in &graph.predicates {
        if !in_fragment(graph.relation_mask(p)?) {
            continue;
        }
        if let Expr::Cmp {
            op: CmpOp::Eq,
            left,
            right,
        } = p
        {
            if let (
                Expr::Column {
                    qualifier: lq,
                    name: ln,
                },
                Expr::Column {
                    qualifier: rq,
                    name: rn,
                },
            ) = (left.as_ref(), right.as_ref())
            {
                let lo = owner_of(graph, fragment, lq.as_deref(), ln);
                let ro = owner_of(graph, fragment, rq.as_deref(), rn);
                if let (Some(a), Some(b)) = (lo, ro) {
                    classes.union((a, ln.to_ascii_lowercase()), (b, rn.to_ascii_lowercase()));
                }
            }
        }
    }

    // Collect the fragment columns referenced outside the fragment.
    let mut needed: Vec<ColRef> = Vec::new();
    let note = |graph: &QueryGraph, e: &Expr, needed: &mut Vec<ColRef>| {
        for (q, n) in e.columns() {
            if let Some(owner) = owner_of(graph, fragment, q, n) {
                let cr = (owner, n.to_ascii_lowercase());
                if !needed.contains(&cr) {
                    needed.push(cr);
                }
            }
        }
    };
    for (e, _) in &graph.projections {
        note(graph, e, &mut needed);
    }
    for p in &graph.predicates {
        if !in_fragment(graph.relation_mask(p)?) {
            note(graph, p, &mut needed);
        }
    }
    for e in &graph.group_by {
        note(graph, e, &mut needed);
    }
    if let Some(h) = &graph.having {
        note(graph, h, &mut needed);
    }
    for (e, _) in &graph.order_by {
        note(graph, e, &mut needed);
    }

    // Reduce by equivalence class; pick one representative per class.
    // Heuristic: prefer the member whose relation exports the most other
    // needed columns (keeps the view's FROM list tight, matching the
    // paper's choice of `ss.room` over `sa.room`).
    let mut rel_need_count: HashMap<usize, usize> = HashMap::new();
    for (r, _) in &needed {
        *rel_need_count.entry(*r).or_insert(0) += 1;
    }
    let mut representative: HashMap<ColRef, ColRef> = HashMap::new();
    let mut exports: Vec<ColRef> = Vec::new();
    for cr in &needed {
        let mut class = classes.class_of(cr.clone());
        class.sort_by(|a, b| {
            let ca = rel_need_count.get(&a.0).copied().unwrap_or(0);
            let cb = rel_need_count.get(&b.0).copied().unwrap_or(0);
            cb.cmp(&ca).then(a.0.cmp(&b.0)).then(a.1.cmp(&b.1))
        });
        let rep = class[0].clone();
        representative.insert(cr.clone(), rep.clone());
        if !exports.contains(&rep) {
            exports.push(rep);
        }
    }

    // Output names: bare column name when unique, else alias_column.
    let mut out_names: HashMap<ColRef, String> = HashMap::new();
    for (r, c) in &exports {
        let collision = exports.iter().any(|(r2, c2)| c2 == c && r2 != r);
        let name = if collision {
            format!("{}_{}", graph.relations[*r].alias, c)
        } else {
            c.clone()
        };
        out_names.insert((*r, c.clone()), name);
    }

    // Build the synthetic relation.
    let mut fields = Vec::new();
    let mut view_columns = Vec::new();
    for (r, c) in &exports {
        let rel = &graph.relations[*r];
        let idx = rel.schema.index_of(None, c)?;
        let dt = rel.schema.field(idx).data_type;
        let out = out_names[&(*r, c.clone())].clone();
        fields.push(Field::new(out.clone(), dt));
        view_columns.push((*r, c.clone(), out));
    }
    // An aggregate push exports the single aggregate value instead.
    if let SensorSubquery::Aggregate { func, .. } = subq {
        let aggs = aspen_sql::plan::collect_aggregates(graph);
        if let Some(Expr::Agg { .. }) = aggs.first() {
            fields = vec![Field::new(
                "agg_value",
                func.return_type(Some(DataType::Float)),
            )];
            view_columns.clear();
        }
    }
    let schema = Schema::new(fields).into_ref();

    // Estimated arrival rate of sensor output at the base station.
    let fleet_rate = |i: usize| match &graph.relations[i].meta.kind {
        SourceKind::Device(d) => d.fleet_rate_hz(),
        _ => 1.0,
    };
    let epoch = fragment
        .iter()
        .filter_map(|&i| match &graph.relations[i].meta.kind {
            SourceKind::Device(d) => Some(d.sample_period),
            _ => None,
        })
        .max()
        .unwrap_or(SimDuration::from_secs(10));
    let rate = match subq {
        SensorSubquery::CollectSelect {
            relation,
            selectivity,
        } => fleet_rate(*relation) * selectivity,
        SensorSubquery::Aggregate { .. } => 1.0 / epoch.as_secs_f64().max(1e-9),
        SensorSubquery::PairJoin {
            left,
            right,
            selectivity,
        } => fleet_rate(*left).min(fleet_rate(*right)) * selectivity,
    };

    let meta = SourceMeta::new(
        SourceId(u32::MAX), // placeholder until registered
        view_name,
        Arc::clone(&schema),
        SourceKind::Stream,
        SourceStats::stream(rate.max(1e-6)),
    );
    let view_alias = view_name.to_string();
    let synthetic = Relation {
        meta,
        alias: view_alias.clone(),
        window: WindowSpec::Range(epoch),
        schema: Arc::new(schema.with_qualifier(&view_alias)),
    };

    // Rewrite an expression's fragment references to the view alias.
    let rewrite = |e: &Expr| -> Expr {
        rewrite_expr(
            e,
            graph,
            fragment,
            &classes_lookup(&representative),
            &out_names,
            &view_alias,
        )
    };

    let mut relations: Vec<Relation> = Vec::new();
    for (i, r) in graph.relations.iter().enumerate() {
        if !fragment.contains(&i) {
            relations.push(r.clone());
        }
    }
    relations.push(synthetic);

    let mut predicates = Vec::new();
    for p in &graph.predicates {
        if in_fragment(graph.relation_mask(p)?) {
            continue; // evaluated in-network
        }
        predicates.push(rewrite(p));
    }
    let projections = graph
        .projections
        .iter()
        .map(|(e, n)| (rewrite(e), n.clone()))
        .collect();
    let group_by = graph.group_by.iter().map(&rewrite).collect();
    let having = graph.having.as_ref().map(&rewrite);
    let order_by = graph
        .order_by
        .iter()
        .map(|(e, a)| (rewrite(e), *a))
        .collect();

    let stream_graph = QueryGraph {
        relations,
        predicates,
        projections,
        group_by,
        having,
        order_by,
        limit: graph.limit,
        output_display: graph.output_display.clone(),
        sample_every: graph.sample_every,
    };

    Ok((
        stream_graph,
        SensorPart {
            subquery: subq.clone(),
            relations: fragment.to_vec(),
            view_name: view_name.to_string(),
            view_columns,
        },
    ))
}

fn classes_lookup(rep: &HashMap<ColRef, ColRef>) -> impl Fn(&ColRef) -> ColRef + '_ {
    move |c: &ColRef| rep.get(c).cloned().unwrap_or_else(|| c.clone())
}

fn rewrite_expr(
    e: &Expr,
    graph: &QueryGraph,
    fragment: &[usize],
    rep: &impl Fn(&ColRef) -> ColRef,
    out_names: &HashMap<ColRef, String>,
    view_alias: &str,
) -> Expr {
    match e {
        Expr::Column { qualifier, name } => {
            if let Some(owner) = owner_of(graph, fragment, qualifier.as_deref(), name) {
                let cr = rep(&(owner, name.to_ascii_lowercase()));
                let out = out_names.get(&cr).cloned().unwrap_or_else(|| cr.1.clone());
                return Expr::Column {
                    qualifier: Some(view_alias.to_string()),
                    name: out,
                };
            }
            e.clone()
        }
        Expr::Literal(_) => e.clone(),
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(rewrite_expr(
                left, graph, fragment, rep, out_names, view_alias,
            )),
            right: Box::new(rewrite_expr(
                right, graph, fragment, rep, out_names, view_alias,
            )),
        },
        Expr::Like { left, right } => Expr::Like {
            left: Box::new(rewrite_expr(
                left, graph, fragment, rep, out_names, view_alias,
            )),
            right: Box::new(rewrite_expr(
                right, graph, fragment, rep, out_names, view_alias,
            )),
        },
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(rewrite_expr(
                left, graph, fragment, rep, out_names, view_alias,
            )),
            right: Box::new(rewrite_expr(
                right, graph, fragment, rep, out_names, view_alias,
            )),
        },
        Expr::And(l, r) => Expr::And(
            Box::new(rewrite_expr(l, graph, fragment, rep, out_names, view_alias)),
            Box::new(rewrite_expr(r, graph, fragment, rep, out_names, view_alias)),
        ),
        Expr::Or(l, r) => Expr::Or(
            Box::new(rewrite_expr(l, graph, fragment, rep, out_names, view_alias)),
            Box::new(rewrite_expr(r, graph, fragment, rep, out_names, view_alias)),
        ),
        Expr::Not(inner) => Expr::Not(Box::new(rewrite_expr(
            inner, graph, fragment, rep, out_names, view_alias,
        ))),
        Expr::Agg { func, arg } => {
            // An aggregate fully pushed to the sensors becomes a plain
            // column of the synthetic relation.
            if let Some(a) = arg {
                let all_inside = a
                    .columns()
                    .iter()
                    .all(|(q, n)| owner_of(graph, fragment, *q, n).is_some());
                if all_inside && !fragment.is_empty() {
                    return Expr::Column {
                        qualifier: Some(view_alias.to_string()),
                        name: "agg_value".into(),
                    };
                }
            }
            Expr::Agg {
                func: func.clone(),
                arg: arg.as_ref().map(|a| {
                    Box::new(rewrite_expr(a, graph, fragment, rep, out_names, view_alias))
                }),
            }
        }
        Expr::Func { name, args } => Expr::Func {
            name: name.clone(),
            args: args
                .iter()
                .map(|a| rewrite_expr(a, graph, fragment, rep, out_names, view_alias))
                .collect(),
        },
    }
}

// ---------------------------------------------------------------------------
// SQL rendering (Figure 1 output)
// ---------------------------------------------------------------------------

fn render_view_sql(graph: &QueryGraph, part: &SensorPart) -> String {
    let cols: Vec<String> = part
        .view_columns
        .iter()
        .map(|(r, c, out)| {
            let alias = &graph.relations[*r].alias;
            if c == out {
                format!("{alias}.{c}")
            } else {
                format!("{alias}.{c} AS {out}")
            }
        })
        .collect();
    let rels: Vec<String> = part
        .relations
        .iter()
        .map(|&i| {
            let r = &graph.relations[i];
            if r.meta.name.eq_ignore_ascii_case(&r.alias) {
                r.meta.name.clone()
            } else {
                format!("{} {}", r.meta.name, r.alias)
            }
        })
        .collect();
    let frag: u64 = part.relations.iter().map(|&i| 1u64 << i).sum();
    let preds: Vec<String> = graph
        .predicates
        .iter()
        .filter(|p| {
            graph
                .relation_mask(p)
                .map(|m| m != 0 && m & !frag == 0)
                .unwrap_or(false)
        })
        .map(Expr::render)
        .collect();
    let mut sql = format!(
        "create view {} as (\n  select {}\n  from {}",
        part.view_name,
        cols.join(", "),
        rels.join(", ")
    );
    if !preds.is_empty() {
        sql.push_str(&format!("\n  where {}", preds.join(" ^ ")));
    }
    sql.push_str("\n)");
    sql
}

fn render_rewritten_sql(stream_graph: &QueryGraph) -> String {
    let cols: Vec<String> = stream_graph
        .projections
        .iter()
        .map(|(e, name)| {
            let rendered = e.render();
            if rendered.ends_with(&format!(".{name}")) || rendered == *name {
                rendered
            } else {
                format!("{rendered} AS {name}")
            }
        })
        .collect();
    let rels: Vec<String> = stream_graph
        .relations
        .iter()
        .map(|r| {
            if r.meta.name.eq_ignore_ascii_case(&r.alias) {
                r.meta.name.clone()
            } else {
                format!("{} {}", r.meta.name, r.alias)
            }
        })
        .collect();
    let mut sql = format!("select {}\nfrom {}", cols.join(", "), rels.join(", "));
    if !stream_graph.predicates.is_empty() {
        let preds: Vec<String> = stream_graph.predicates.iter().map(Expr::render).collect();
        sql.push_str(&format!("\nwhere {}", preds.join(" ^ ")));
    }
    if !stream_graph.order_by.is_empty() {
        let keys: Vec<String> = stream_graph
            .order_by
            .iter()
            .map(|(e, asc)| {
                if *asc {
                    e.render()
                } else {
                    format!("{} desc", e.render())
                }
            })
            .collect();
        sql.push_str(&format!("\norder by {}", keys.join(", ")));
    }
    sql
}

impl FederatedPlan {
    /// Register the pushed fragment's output as a real catalog source and
    /// return the executable stream plan bound to it. The application
    /// then feeds sensor-engine results into that source name.
    pub fn register(&self, catalog: &Catalog) -> Result<LogicalPlan> {
        let Some(part) = &self.sensor else {
            return Ok(self.stream_plan.clone());
        };
        let synthetic = self
            .stream_graph
            .relations
            .iter()
            .find(|r| r.alias == part.view_name)
            .ok_or_else(|| AspenError::Execution("missing synthetic relation".into()))?;
        let id = match catalog.source(&part.view_name) {
            Ok(existing) => existing.id,
            Err(_) => catalog.register_source(
                &part.view_name,
                synthetic.meta.schema.clone(),
                SourceKind::Stream,
                synthetic.meta.stats.clone(),
            )?,
        };
        // Rebind the graph with the real source id.
        let mut graph = self.stream_graph.clone();
        for r in &mut graph.relations {
            if r.alias == part.view_name {
                let mut m = (*r.meta).clone();
                m.id = id;
                r.meta = Arc::new(m);
            }
        }
        build_plan(&graph, &self.stream_order)
    }

    /// Human-readable partitioning report (what the demo GUI displayed).
    pub fn explain(&self) -> String {
        let mut out = String::new();
        match &self.sensor {
            Some(part) => {
                out.push_str(&format!(
                    "== federated plan: fragment {:?} -> SENSOR ENGINE ({:.1} msgs/epoch) ==\n",
                    part.relations, self.sensor_cost_msgs
                ));
                if let Some(v) = &self.view_sql {
                    out.push_str(v);
                    out.push('\n');
                }
                out.push_str("-- residual (STREAM ENGINE):\n");
                if let Some(r) = &self.rewritten_sql {
                    out.push_str(r);
                    out.push('\n');
                }
            }
            None => out.push_str("== federated plan: everything on the STREAM ENGINE ==\n"),
        }
        out.push_str(&format!(
            "stream cost: latency={:.3}ms cpu={:.0} lan={:.0}B | total={:.2} units\n",
            self.stream_cost.latency_sec * 1e3,
            self.stream_cost.cpu_ops,
            self.stream_cost.lan_bytes,
            self.total_cost.units
        ));
        let n = self.stream_graph.relations.len();
        if n > MAX_ENUMERATED {
            out.push_str(&format!(
                "join order: as written ({n} relations, not enumerated)\n"
            ));
        }
        out.push_str("candidates:\n");
        for c in &self.candidates {
            out.push_str(&format!(
                "  {} push={:?} sensor={:.1}msg stream={:.3}ms total={:.2}{}\n",
                if c.admitted { "ok " } else { "REJ" },
                c.fragment,
                c.sensor_msgs,
                c.stream_latency_sec * 1e3,
                c.total_units,
                if c.chosen { "  <== chosen" } else { "" }
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_catalog::{DeviceClass, NetworkStats};
    use aspen_sql::{bind, parse, BoundQuery};

    /// Full SmartCIS catalog (same shape as the paper's Figure 1).
    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let text = DataType::Text;
        let int = DataType::Int;
        let float = DataType::Float;
        let table = |name: &str, cols: &[(&str, DataType)], rows: u64| {
            let schema = Schema::new(
                cols.iter()
                    .map(|(n, t)| Field::new(*n, *t))
                    .collect::<Vec<_>>(),
            )
            .into_ref();
            cat.register_source(name, schema, SourceKind::Table, SourceStats::table(rows))
                .unwrap();
        };
        table(
            "Person",
            &[("id", int), ("room", text), ("needed", text)],
            8,
        );
        table(
            "Route",
            &[
                ("start", text),
                ("end", text),
                ("path", text),
                ("dist", float),
            ],
            300,
        );
        table(
            "Machines",
            &[("room", text), ("desk", int), ("software", text)],
            60,
        );
        let area = Schema::new(vec![
            Field::new("room", text),
            Field::new("status", text),
            Field::new("light", float),
        ])
        .into_ref();
        cat.register_source(
            "AreaSensors",
            area,
            SourceKind::Device(DeviceClass::new(
                &["light", "status"],
                SimDuration::from_secs(10),
                12,
            )),
            SourceStats::stream(1.2).with_distinct("status", 2),
        )
        .unwrap();
        let seat = Schema::new(vec![
            Field::new("room", text),
            Field::new("desk", int),
            Field::new("status", text),
            Field::new("light", float),
        ])
        .into_ref();
        cat.register_source(
            "SeatSensors",
            seat,
            SourceKind::Device(DeviceClass::new(
                &["light", "status"],
                SimDuration::from_secs(10),
                60,
            )),
            SourceStats::stream(6.0).with_distinct("status", 2),
        )
        .unwrap();
        cat.set_network_stats(NetworkStats {
            node_count: 80,
            diameter_hops: 6,
            avg_link_loss: 0.05,
            ..Default::default()
        });
        cat
    }

    const FIG1: &str = r#"
        select p.id, ss.room, ss.desk, r.path
        from Person p, Route r, AreaSensors sa, SeatSensors ss, Machines m
        where r.start = p.room ^ r.end = sa.room ^ p.needed like m.software ^
              sa.room = ss.room ^ m.desk = ss.desk ^ sa.status = "open" ^
              ss.status = "free"
        order by p.id
    "#;

    fn fig1_graph(cat: &Catalog) -> QueryGraph {
        let BoundQuery::Select(b) = bind(&parse(FIG1).unwrap(), cat).unwrap() else {
            panic!()
        };
        b.graph
    }

    #[test]
    fn fig1_pushes_the_device_pair() {
        let cat = catalog();
        let g = fig1_graph(&cat);
        let plan = optimize(&g, &cat).unwrap();
        let part = plan.sensor.as_ref().expect("fragment should be pushed");
        assert!(matches!(part.subquery, SensorSubquery::PairJoin { .. }));
        // The pushed relations are sa (2) and ss (3).
        assert_eq!(part.relations, vec![2, 3]);
        assert!(plan.sensor_cost_msgs > 0.0);
        // Stream side: Person, Route, Machines + the view = 4 relations.
        assert_eq!(plan.stream_graph.relations.len(), 4);
    }

    #[test]
    fn fig1_view_sql_matches_paper_shape() {
        let cat = catalog();
        let g = fig1_graph(&cat);
        let plan = optimize(&g, &cat).unwrap();
        let view = plan.view_sql.as_ref().unwrap();
        // The paper's OpenMachineInfo: select ss.room, ss.desk from
        // AreaSensors sa, SeatSensors ss where sa.room = ss.room ^
        // sa.status = 'open' ^ ss.status = 'free'.
        assert!(view.contains("create view OpenMachineInfo"), "{view}");
        assert!(view.contains("ss.room"), "{view}");
        assert!(view.contains("ss.desk"), "{view}");
        assert!(view.contains("AreaSensors sa"), "{view}");
        assert!(view.contains("sa.status = 'open'"), "{view}");
        assert!(view.contains("ss.status = 'free'"), "{view}");
        // Equivalence classes: sa.room must NOT be exported separately.
        assert!(!view.contains("sa.room AS"), "{view}");

        let rewritten = plan.rewritten_sql.as_ref().unwrap();
        // Paper: O.room = m.room ^ O.desk = m.desk ^ r.end = O.room ...
        assert!(rewritten.contains("OpenMachineInfo"), "{rewritten}");
        assert!(rewritten.contains("OpenMachineInfo.room"), "{rewritten}");
        assert!(rewritten.contains("OpenMachineInfo.desk"), "{rewritten}");
        assert!(rewritten.contains("order by p.id"), "{rewritten}");
        // The in-network predicates are gone from the residual.
        assert!(!rewritten.contains("'open'"), "{rewritten}");
        assert!(!rewritten.contains("'free'"), "{rewritten}");
    }

    #[test]
    fn no_device_relations_means_all_stream() {
        let cat = catalog();
        let BoundQuery::Select(b) = bind(
            &parse("select p.id from Person p, Machines m where p.room = m.room").unwrap(),
            &cat,
        )
        .unwrap() else {
            panic!()
        };
        let plan = optimize(&b.graph, &cat).unwrap();
        assert!(plan.sensor.is_none());
        assert!(plan.view_sql.is_none());
        assert_eq!(plan.sensor_cost_msgs, 0.0);
    }

    #[test]
    fn candidates_include_rejections_and_chosen() {
        let cat = catalog();
        let g = fig1_graph(&cat);
        let plan = optimize(&g, &cat).unwrap();
        // Candidates: none, {sa}, {ss}, {sa,ss} = 4.
        assert_eq!(plan.candidates.len(), 4);
        assert_eq!(plan.candidates.iter().filter(|c| c.chosen).count(), 1);
        // The no-push candidate must be admitted and costed.
        let none = &plan.candidates[0];
        assert!(none.fragment.is_empty());
        assert!(none.total_units.is_finite());
        // The chosen fragment must be the cheapest.
        let min = plan
            .candidates
            .iter()
            .map(|c| c.total_units)
            .fold(f64::INFINITY, f64::min);
        let chosen = plan.candidates.iter().find(|c| c.chosen).unwrap();
        assert!((chosen.total_units - min).abs() < 1e-9);
    }

    #[test]
    fn high_latency_weight_forces_push() {
        // When latency is priced sky-high, pushing (which shrinks the
        // stream side) must win over no-push.
        let cat = catalog();
        let mut params = cat.cost_params();
        params.units_per_latency_sec = 1e9;
        cat.set_cost_params(params);
        let g = fig1_graph(&cat);
        let plan = optimize(&g, &cat).unwrap();
        assert!(plan.sensor.is_some());
    }

    #[test]
    fn ablation_changes_decisions_somewhere() {
        // E9: with normalization off, raw latency (µs-scale numbers)
        // swamps message counts, so relative choices shift. At minimum
        // the total cost values must differ by orders of magnitude.
        let cat = catalog();
        let g = fig1_graph(&cat);
        let normal = optimize(&g, &cat).unwrap();
        let mut params = cat.cost_params();
        params.normalization_enabled = false;
        cat.set_cost_params(params);
        let ablated = optimize(&g, &cat).unwrap();
        assert!(
            (ablated.total_cost.units / normal.total_cost.units.max(1e-9)) > 10.0
                || (normal.total_cost.units / ablated.total_cost.units.max(1e-9)) > 10.0
        );
    }

    #[test]
    fn register_produces_executable_plan() {
        let cat = catalog();
        let g = fig1_graph(&cat);
        let plan = optimize(&g, &cat).unwrap();
        let exec = plan.register(&cat).unwrap();
        // The registered plan scans 4 relations, one of which is the
        // now-real OpenMachineInfo source.
        assert_eq!(exec.scans().len(), 4);
        assert!(cat.source("OpenMachineInfo").is_ok());
        // Registering twice is idempotent.
        let exec2 = plan.register(&cat).unwrap();
        assert_eq!(exec2.scans().len(), 4);
    }

    #[test]
    fn explain_mentions_partitioning() {
        let cat = catalog();
        let g = fig1_graph(&cat);
        let plan = optimize(&g, &cat).unwrap();
        let text = plan.explain();
        assert!(text.contains("SENSOR ENGINE"));
        assert!(text.contains("STREAM ENGINE"));
        assert!(text.contains("<== chosen"));
    }

    #[test]
    fn explain_says_when_join_orders_are_not_enumerated() {
        let cat = Catalog::new();
        let schema = Schema::new(vec![Field::new("k", DataType::Int)]).into_ref();
        for i in 0..8 {
            cat.register_source(
                &format!("T{i}"),
                Arc::clone(&schema),
                SourceKind::Table,
                SourceStats::table(10 + i),
            )
            .unwrap();
        }
        let plan_over = |n: usize| {
            let from: Vec<String> = (0..n).map(|i| format!("T{i} t{i}")).collect();
            let chain: Vec<String> = (1..n).map(|i| format!("t{}.k = t{i}.k", i - 1)).collect();
            let sql = format!(
                "select t0.k from {} where {}",
                from.join(", "),
                chain.join(" ^ ")
            );
            let BoundQuery::Select(b) = bind(&parse(&sql).unwrap(), &cat).unwrap() else {
                panic!()
            };
            optimize(&b.graph, &cat).unwrap()
        };
        // Eight relations run as written.
        let plan = plan_over(8);
        assert_eq!(plan.stream_order, (0..8).collect::<Vec<_>>());
        assert!(
            plan.explain()
                .contains("join order: as written (8 relations, not enumerated)\n"),
            "{}",
            plan.explain()
        );
        // Seven are enumerated, and the report says nothing of it.
        assert!(!plan_over(7).explain().contains("join order"));
    }

    #[test]
    fn aggregate_push_rewrites_to_column() {
        let cat = catalog();
        let BoundQuery::Select(b) = bind(
            &parse("select avg(ss.light) from SeatSensors ss").unwrap(),
            &cat,
        )
        .unwrap() else {
            panic!()
        };
        let plan = optimize(&b.graph, &cat).unwrap();
        let part = plan.sensor.as_ref().unwrap();
        assert!(matches!(part.subquery, SensorSubquery::Aggregate { .. }));
        // Residual projection references the synthetic agg column.
        let (e, _) = &plan.stream_graph.projections[0];
        assert!(matches!(e, Expr::Column { name, .. } if name == "agg_value"));
    }
}
