//! Pricing a join order from `OrderPrices` equals building its plan and
//! costing it: the same `StreamCost`, bit for bit, with the same orders
//! failing to build. Checked on seeded random query graphs (their block
//! of seeds moves with `ASPEN_TEST_SEED`), on every SmartCIS query, and
//! on the Figure 1 graph under every E5 catalog cell.

use aspen_bench::fixtures::{fig1_graph, smartcis_catalog};
use aspen_catalog::{DeviceClass, SourceKind, SourceMeta, SourceStats};
use aspen_optimizer::{estimate_plan, optimize, OrderPrices, StreamCost};
use aspen_sql::ast::{CmpOp, Expr};
use aspen_sql::plan::{build_plan, QueryGraph, Relation};
use aspen_sql::{bind, parse, BoundQuery};
use aspen_types::{ArithOp, DataType, Field, Schema, SimDuration, SourceId, WindowSpec};
use smartcis_app::{queries, SmartCis};

fn bits(c: &StreamCost) -> [u64; 5] {
    [
        c.cpu_ops.to_bits(),
        c.lan_bytes.to_bits(),
        c.latency_sec.to_bits(),
        c.out_card.to_bits(),
        c.delivery_ops_per_sec.to_bits(),
    ]
}

fn permutations(n: usize) -> Vec<Vec<usize>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for rest in permutations(n - 1) {
        for at in 0..=rest.len() {
            let mut order = rest.clone();
            order.insert(at, n - 1);
            out.push(order);
        }
    }
    out
}

/// Compare every order of `graph`; return how many of them build.
fn assert_exact(graph: &QueryGraph, label: &str) -> usize {
    let prices = OrderPrices::new(graph);
    let mut built = 0;
    for order in permutations(graph.relations.len()) {
        let want = build_plan(graph, &order).ok().map(|p| estimate_plan(&p));
        let got = prices.price(&order);
        assert_eq!(
            got.as_ref().map(bits),
            want.as_ref().map(bits),
            "{label}, order {order:?}: priced {got:?}, built {want:?}"
        );
        built += usize::from(want.is_some());
    }
    built
}

/// splitmix64: a small seeded generator, so the graphs depend on nothing
/// but the seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Relation `r{i}`: columns `k INT`, `t TEXT`, `f FLOAT` (shared by every
/// relation), `u{i} INT` (its own) and, for about half of them, `p INT`.
fn relation(g: &mut Gen, i: usize) -> Relation {
    let alias = format!("r{i}");
    let mut fields = vec![
        Field::new("k", DataType::Int),
        Field::new("t", DataType::Text),
        Field::new("f", DataType::Float),
        Field::new(format!("u{i}"), DataType::Int),
    ];
    if g.chance(50) {
        fields.push(Field::new("p", DataType::Int));
    }
    let rate = g.pick(&[0.0, 0.1, 1.2, 6.0, 50.0]);
    let (kind, stats) = match g.below(4) {
        0 => (
            SourceKind::Table,
            SourceStats::table(g.pick(&[0, 1, 8, 60, 300, 5000])),
        ),
        1 => (SourceKind::Stream, SourceStats::stream(rate)),
        2 => (
            SourceKind::Device(DeviceClass::new(
                &["f"],
                SimDuration::from_secs(10),
                g.pick(&[1, 12, 60]),
            )),
            SourceStats::stream(rate),
        ),
        _ => (
            SourceKind::View,
            if g.chance(50) {
                SourceStats::default()
            } else {
                SourceStats::table(40)
            },
        ),
    };
    let secs = SimDuration::from_secs(g.pick(&[1, 10, 30]));
    let window = match g.below(4) {
        0 => WindowSpec::Range(secs),
        1 => WindowSpec::Tumbling(secs),
        2 => WindowSpec::Rows(g.pick(&[1, 100])),
        _ => WindowSpec::Unbounded,
    };
    let schema = Schema::new(fields);
    Relation {
        meta: SourceMeta::new(
            SourceId(i as u32),
            alias.clone(),
            schema.clone().into_ref(),
            kind,
            stats,
        ),
        window,
        schema: schema.with_qualifier(&alias).into_ref(),
        alias,
    }
}

fn cmp(op: CmpOp, left: Expr, right: Expr) -> Expr {
    Expr::Cmp {
        op,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn add(left: Expr, right: Expr) -> Expr {
    Expr::Arith {
        op: ArithOp::Add,
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn like(left: Expr, right: Expr) -> Expr {
    Expr::Like {
        left: Box::new(left),
        right: Box::new(right),
    }
}

fn agg(func: &str, arg: Option<Expr>) -> Expr {
    Expr::Agg {
        func: func.into(),
        arg: arg.map(Box::new),
    }
}

/// One WHERE conjunct over relations `r0..r{n-1}`.
fn conjunct(g: &mut Gen, n: usize) -> Expr {
    let col = |g: &mut Gen, name: &str| Expr::col(&format!("r{}", g.below(n)), name);
    let arm = if g.chance(90) {
        g.below(35)
    } else {
        35 + g.below(5)
    };
    match arm {
        // Plain-column equalities: a hash key across two relations, a
        // filter within one.
        0..=9 => Expr::eq(col(g, "k"), col(g, "k")),
        10 => {
            let i = g.below(n);
            Expr::eq(Expr::bare(&format!("u{i}")), col(g, "k"))
        }
        // Computed equalities stay residual.
        11..=13 => Expr::eq(add(col(g, "k"), Expr::lit(1i64)), col(g, "k")),
        14 => Expr::eq(add(col(g, "k"), col(g, "k")), col(g, "k")),
        15..=16 => like(col(g, "t"), col(g, "t")),
        17 => like(col(g, "t"), Expr::lit("%a%")),
        18..=19 => cmp(CmpOp::Gt, col(g, "f"), Expr::lit(2.5)),
        20..=21 => cmp(CmpOp::Lt, col(g, "k"), col(g, "k")),
        22 => cmp(CmpOp::Neq, col(g, "t"), Expr::lit("x")),
        23 => cmp(CmpOp::Gte, col(g, "f"), col(g, "f")),
        // Constant-only: placed over whichever relation leads.
        24..=25 => Expr::eq(Expr::lit(1i64), Expr::lit(1i64)),
        26 => cmp(CmpOp::Lt, Expr::lit(2i64), Expr::lit(3i64)),
        27..=28 => Expr::Or(
            Box::new(Expr::eq(col(g, "k"), Expr::lit(1i64))),
            Box::new(cmp(CmpOp::Lt, col(g, "f"), Expr::lit(2.0))),
        ),
        29 => Expr::Not(Box::new(Expr::eq(col(g, "k"), Expr::lit(3i64)))),
        30 => Expr::eq(Expr::bare(&format!("u{}", g.below(n))), Expr::lit(3i64)),
        // `p` names one field of the graph, several, or none.
        31..=33 => Expr::eq(Expr::bare("p"), col(g, "k")),
        34 => Expr::eq(Expr::bare("p"), add(col(g, "k"), col(g, "k"))),
        // Now and then a conjunct that never binds: an unknown column, a
        // type mismatch, a name every relation has.
        35 => Expr::eq(Expr::col("zz", "k"), Expr::lit(1i64)),
        36 => cmp(CmpOp::Gt, col(g, "t"), Expr::lit(5i64)),
        37 => Expr::eq(Expr::bare("k"), add(col(g, "k"), col(g, "k"))),
        38 => Expr::eq(Expr::bare("k"), Expr::lit(1i64)),
        _ => Expr::eq(Expr::bare("nope"), Expr::lit(1i64)),
    }
}

fn random_graph(seed: u64) -> QueryGraph {
    let mut g = Gen(seed);
    let n = 1 + g.below(6);
    let relations: Vec<Relation> = (0..n).map(|i| relation(&mut g, i)).collect();
    let predicates = (0..g.below(9)).map(|_| conjunct(&mut g, n)).collect();
    let col = |g: &mut Gen, name: &str| Expr::col(&format!("r{}", g.below(n)), name);
    let mut graph = QueryGraph {
        relations,
        predicates,
        projections: vec![],
        group_by: vec![],
        having: None,
        order_by: vec![],
        limit: None,
        output_display: None,
        sample_every: None,
    };
    match g.below(10) {
        0..=2 => {
            let key = col(&mut g, "t");
            let total = agg("sum", Some(col(&mut g, "k")));
            graph.group_by = vec![key.clone()];
            graph.projections = vec![
                (key.clone(), "t".into()),
                (agg("count", None), "n".into()),
                (total.clone(), "s".into()),
            ];
            if g.chance(50) {
                graph.having = Some(cmp(CmpOp::Gt, agg("count", None), Expr::lit(1i64)));
            }
            if g.chance(50) {
                graph.order_by = vec![(if g.chance(50) { key } else { total }, false)];
            }
        }
        3 => graph.projections = vec![(agg("count", None), "n".into())],
        _ => {
            for j in 0..1 + g.below(3) {
                let name = g.pick(&["k", "t", "f"]);
                graph.projections.push((col(&mut g, name), format!("c{j}")));
            }
            if g.chance(5) {
                graph.projections.push((Expr::bare("nope"), "bad".into()));
            }
            if g.chance(40) {
                // A projected key sorts above the projection, another
                // below it.
                let key = if g.chance(50) {
                    graph.projections[0].0.clone()
                } else {
                    col(&mut g, "f")
                };
                graph.order_by = vec![(key, true)];
            }
        }
    }
    if g.chance(30) {
        graph.limit = Some(1 + g.below(10) as u64);
    }
    if g.chance(20) {
        graph.output_display = Some("lobby".into());
    }
    graph
}

#[test]
fn random_graphs_price_as_built() {
    let base: u64 = std::env::var("ASPEN_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let (mut every, mut none, mut some) = (0, 0, 0);
    for i in 0..64 {
        let seed = base.wrapping_mul(0x1000).wrapping_add(i);
        let graph = random_graph(seed);
        let orders = permutations(graph.relations.len()).len();
        match assert_exact(&graph, &format!("graph seed {seed}")) {
            0 => none += 1,
            b if b == orders => every += 1,
            _ => some += 1,
        }
    }
    println!("graphs: every order builds {every}, none {none}, some {some}");
    assert!(
        every > 0 && none > 0,
        "the graphs should both build and fail"
    );
}

#[test]
fn smartcis_queries_price_as_built() {
    let app = SmartCis::new(3, 8, 1).expect("app builds");
    for (name, sql) in [
        ("visitor_guidance", queries::VISITOR_GUIDANCE),
        ("temp_alarm", queries::TEMP_ALARM),
        ("load_alarm", queries::LOAD_ALARM),
        ("room_resources", queries::ROOM_RESOURCES),
        ("free_machines", queries::FREE_MACHINES),
        ("visitor_location", queries::VISITOR_LOCATION),
        ("total_power", queries::TOTAL_POWER),
    ] {
        let BoundQuery::Select(b) = bind(&parse(sql).unwrap(), &app.catalog).unwrap() else {
            panic!("{name} is a SELECT")
        };
        assert!(assert_exact(&b.graph, name) > 0, "{name} builds");
        // The residual graph the optimizer chose, with its sensor view.
        let plan = optimize(&b.graph, &app.catalog).unwrap();
        assert_exact(&plan.stream_graph, &format!("{name} residual"));
    }
}

#[test]
fn figure1_prices_as_built_in_every_e5_cell() {
    for desks in [16u32, 60, 120] {
        for diameter in [2u32, 6, 12] {
            for loss in [0.0, 0.2] {
                let cat = smartcis_catalog(4, desks, diameter, loss);
                let graph = fig1_graph(&cat);
                let label = format!("figure 1, {desks} desks, diameter {diameter}, loss {loss}");
                assert_eq!(assert_exact(&graph, &label), 120);
                let plan = optimize(&graph, &cat).unwrap();
                assert_exact(&plan.stream_graph, &format!("{label}, residual"));
            }
        }
    }
}
