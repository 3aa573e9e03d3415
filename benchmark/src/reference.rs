//! Reference results and determinism checks. Everything here runs at
//! phase ends, outside timed sections.
//!
//! * [`History`] keeps what was admitted and answers "what does this
//!   window hold now"; the naive evaluators below turn window contents
//!   into the expected multiset of a query — the six dashboard templates
//!   and the two join shapes.
//! * [`route_is_shortest`] checks a guidance route against a plain
//!   Dijkstra over the open corridor segments.
//! * [`Oracle`] is the single-node engine a cluster is compared with.
//! * [`PushLedger`] accumulates drained push deltas; the accumulation
//!   must equal the polled snapshot.
//! * [`digest_rows`] folds snapshots into the per-pass result digest.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BinaryHeap, HashMap};
use std::hash::{Hash, Hasher};
use std::rc::Rc;
use std::sync::Arc;

use aspen_catalog::Catalog;
use aspen_stream::{DeltaBatch, EngineConfig, QueryHandle, StreamEngine};
use aspen_types::{SimTime, Tuple, Value, WindowSpec};

pub type Row = Vec<Value>;

/// Everything admitted so far, per source, in admission order.
#[derive(Debug, Default)]
pub struct History {
    streams: HashMap<String, Vec<Tuple>>,
    /// Batches logged by [`History::defer`] and not yet folded in.
    pending: Vec<(Rc<str>, Rc<[Tuple]>)>,
    admitted: HashMap<Rc<str>, usize>,
    /// The engine clock: the latest timestamp admitted or heartbeat.
    pub now: SimTime,
}

impl History {
    pub fn admit(&mut self, source: &str, tuples: &[Tuple]) {
        if let Some(max) = tuples.iter().map(Tuple::timestamp).max() {
            self.now = self.now.max(max);
        }
        self.streams
            .entry(source.to_string())
            .or_default()
            .extend_from_slice(tuples);
    }

    /// Log a batch from inside a timed section: two reference-count
    /// bumps now, the copy later in [`History::settle`].
    pub fn defer(&mut self, source: &Rc<str>, tuples: &Rc<[Tuple]>) {
        *self.admitted.entry(Rc::clone(source)).or_insert(0) += tuples.len();
        self.pending.push((Rc::clone(source), Rc::clone(tuples)));
    }

    /// Tuples of `source` logged so far, settled or not.
    pub fn admitted(&self, source: &str) -> usize {
        self.admitted.get(source).copied().unwrap_or(0)
    }

    /// Fold the deferred batches in (outside timed sections).
    pub fn settle(&mut self) {
        for (source, tuples) in std::mem::take(&mut self.pending) {
            self.admit(&source, &tuples);
        }
    }

    /// The live contents of a window over `source` at the current clock
    /// (after a heartbeat at `now`): the last `n` rows, the rows younger
    /// than the range, or everything.
    pub fn window(&self, source: &str, spec: WindowSpec) -> &[Tuple] {
        self.window_since(source, spec, 0)
    }

    /// [`History::window`] as a query sees it that attached to the live
    /// stream after `since` tuples had passed: streams are never
    /// replayed, so it holds only what arrived afterwards.
    pub fn window_since(&self, source: &str, spec: WindowSpec, since: usize) -> &[Tuple] {
        debug_assert!(self.pending.is_empty(), "settle() before reading windows");
        let all = self.streams.get(source).map_or(&[][..], Vec::as_slice);
        let first_live = match spec {
            WindowSpec::Unbounded => 0,
            WindowSpec::Rows(n) => all.len().saturating_sub(n as usize),
            WindowSpec::Range(_) => {
                all.partition_point(|t| !spec.contains(t.timestamp(), self.now))
            }
            WindowSpec::Tumbling(_) => panic!("no workload uses tumbling windows"),
        };
        &all[first_live.max(since).min(all.len())..]
    }
}

// ---------------------------------------------------------------------------
// Naive evaluators: window contents → expected multiset.

/// `select <cols> from W where pred`.
pub fn filter_project(win: &[Tuple], pred: impl Fn(&Tuple) -> bool, cols: &[usize]) -> Vec<Row> {
    win.iter()
        .filter(|t| pred(t))
        .map(|t| cols.iter().map(|&c| t.get(c).clone()).collect())
        .collect()
}

/// What a grouped aggregate computes per group.
#[derive(Debug, Clone, Copy)]
pub enum Agg {
    Count,
    Avg(usize),
}

/// `select <keys>, <aggs> from W where pred group by <keys>`.
pub fn group_by(
    win: &[Tuple],
    pred: impl Fn(&Tuple) -> bool,
    keys: &[usize],
    aggs: &[Agg],
) -> Vec<Row> {
    let mut groups: BTreeMap<Row, Vec<&Tuple>> = BTreeMap::new();
    for t in win.iter().filter(|t| pred(t)) {
        groups.entry(t.key(keys)).or_default().push(t);
    }
    groups
        .into_iter()
        .map(|(mut row, members)| {
            for agg in aggs {
                row.push(match *agg {
                    Agg::Count => Value::Int(members.len() as i64),
                    Agg::Avg(col) => {
                        let sum: f64 = members.iter().map(|t| as_f64(t.get(col))).sum();
                        Value::Float(sum / members.len() as f64)
                    }
                });
            }
            row
        })
        .collect()
}

/// `select count(*) from W where pred` — one row even when empty.
pub fn global_count(win: &[Tuple], pred: impl Fn(&Tuple) -> bool) -> Vec<Row> {
    vec![vec![Value::Int(
        win.iter().filter(|t| pred(t)).count() as i64
    )]]
}

/// The `k` largest values of `col` among rows passing `pred` — what
/// `order by col desc limit k` shows, ties left to the engine.
pub fn top_k(win: &[Tuple], pred: impl Fn(&Tuple) -> bool, col: usize, k: usize) -> Vec<Row> {
    let mut vals: Vec<Value> = win
        .iter()
        .filter(|t| pred(t))
        .map(|t| t.get(col).clone())
        .collect();
    vals.sort_by(|a, b| b.cmp(a));
    vals.truncate(k);
    vals.into_iter().map(|v| vec![v]).collect()
}

/// `select <cols of left ++ right> from L, R where L.lkey = R.rkey and
/// pred(L)` — the stream ⋈ stream and stream ⋈ table shape. `cols`
/// index into the concatenated row.
pub fn equi_join(
    left: &[Tuple],
    right: &[Tuple],
    lkey: usize,
    rkey: usize,
    pred: impl Fn(&Tuple) -> bool,
    cols: &[usize],
) -> Vec<Row> {
    let mut by_key: HashMap<&Value, Vec<&Tuple>> = HashMap::new();
    for r in right {
        by_key.entry(r.get(rkey)).or_default().push(r);
    }
    let mut out = Vec::new();
    for l in left.iter().filter(|t| pred(t)) {
        for r in by_key.get(l.get(lkey)).map_or(&[][..], Vec::as_slice) {
            let joined = l.join(r);
            out.push(cols.iter().map(|&c| joined.get(c).clone()).collect());
        }
    }
    out
}

pub fn as_f64(v: &Value) -> f64 {
    match v {
        Value::Float(f) => *f,
        Value::Int(i) => *i as f64,
        other => panic!("numeric column holds {other:?}"),
    }
}

fn values_close(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()).max(1.0),
        _ => a == b,
    }
}

/// Whether two row multisets are equal (floats within 1e-9 relative).
pub fn same_bag(mut got: Vec<Row>, mut want: Vec<Row>) -> bool {
    got.sort();
    want.sort();
    got.len() == want.len()
        && got
            .iter()
            .zip(&want)
            .all(|(g, w)| g.len() == w.len() && g.iter().zip(w).all(|(a, b)| values_close(a, b)))
}

pub fn rows_of(tuples: &[Tuple]) -> Vec<Row> {
    tuples.iter().map(|t| t.values().to_vec()).collect()
}

// ---------------------------------------------------------------------------
// Guidance route check.

/// Dijkstra over undirected `(a, b, dist)` segments.
pub fn shortest_dist(segments: &[(String, String, f64)], from: &str, to: &str) -> Option<f64> {
    #[derive(PartialEq)]
    struct Entry(f64, usize);
    impl Eq for Entry {}
    impl Ord for Entry {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other.0.total_cmp(&self.0)
        }
    }
    impl PartialOrd for Entry {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    let mut ids: HashMap<String, usize> = HashMap::new();
    let mut id = |name: &str| {
        let next = ids.len();
        *ids.entry(name.to_ascii_lowercase()).or_insert(next)
    };
    let edges: Vec<(usize, usize, f64)> = segments
        .iter()
        .map(|(a, b, d)| (id(a), id(b), *d))
        .collect();
    let (s, e) = (id(from), id(to));
    let mut adj = vec![Vec::new(); ids.len()];
    for (a, b, d) in edges {
        adj[a].push((b, d));
        adj[b].push((a, d));
    }
    let mut dist = vec![f64::INFINITY; adj.len()];
    dist[s] = 0.0;
    let mut heap = BinaryHeap::from([Entry(0.0, s)]);
    while let Some(Entry(d, u)) = heap.pop() {
        if d > dist[u] {
            continue;
        }
        for &(v, w) in &adj[u] {
            if d + w < dist[v] {
                dist[v] = d + w;
                heap.push(Entry(d + w, v));
            }
        }
    }
    dist[e].is_finite().then_some(dist[e])
}

/// Whether `path` (`a -> b -> c`) walks open segments from `from` to
/// `to` and is as short as the shortest route.
pub fn route_is_shortest(
    segments: &[(String, String, f64)],
    path: &str,
    from: &str,
    to: &str,
) -> bool {
    let hops: Vec<&str> = path.split(" -> ").collect();
    let ends_match = hops.first().is_some_and(|h| h.eq_ignore_ascii_case(from))
        && hops.last().is_some_and(|h| h.eq_ignore_ascii_case(to));
    if !ends_match {
        return false;
    }
    let mut walked = 0.0;
    for pair in hops.windows(2) {
        let seg = segments.iter().find(|(a, b, _)| {
            (a.eq_ignore_ascii_case(pair[0]) && b.eq_ignore_ascii_case(pair[1]))
                || (a.eq_ignore_ascii_case(pair[1]) && b.eq_ignore_ascii_case(pair[0]))
        });
        match seg {
            Some((_, _, d)) => walked += d,
            None => return false,
        }
    }
    shortest_dist(segments, from, to).is_some_and(|best| (walked - best).abs() < 1e-6)
}

// ---------------------------------------------------------------------------
// Single-node oracle, push ledger, digests.

/// One unsharded engine fed the same input as the system under test.
pub struct Oracle {
    pub engine: StreamEngine,
    pub handles: Vec<QueryHandle>,
}

impl Oracle {
    pub fn new(catalog: Arc<Catalog>, sqls: &[String]) -> Result<Oracle, String> {
        let mut engine = StreamEngine::with_config(catalog, EngineConfig::new());
        let mut handles = Vec::with_capacity(sqls.len());
        for sql in sqls {
            let reg = engine.register_sql(sql).map_err(|e| e.to_string())?;
            handles.push(reg.query().ok_or("oracle query is a view")?);
        }
        Ok(Oracle { engine, handles })
    }
}

/// Net multiset of everything a push subscription delivered.
#[derive(Debug, Default)]
pub struct PushLedger {
    net: HashMap<Row, i64>,
}

impl PushLedger {
    pub fn absorb(&mut self, batches: &[DeltaBatch]) {
        for d in batches.iter().flatten() {
            let e = self.net.entry(d.tuple.values().to_vec()).or_insert(0);
            *e += d.sign;
            if *e == 0 {
                self.net.remove(d.tuple.values());
            }
        }
    }

    /// Whether the accumulated deliveries equal a polled snapshot.
    pub fn matches(&self, snapshot: &[Tuple]) -> bool {
        let mut polled: HashMap<&[Value], i64> = HashMap::new();
        for t in snapshot {
            *polled.entry(t.values()).or_insert(0) += 1;
        }
        polled.len() == self.net.len()
            && polled
                .iter()
                .all(|(row, n)| self.net.get(*row).is_some_and(|m| m == n))
    }
}

/// Fold one snapshot into a running digest, order-independently within
/// the snapshot (rows are sorted first) and order-dependently across
/// snapshots.
pub fn digest_rows(digest: &mut u64, rows: &[Tuple]) {
    let mut sorted = rows_of(rows);
    sorted.sort();
    let mut h = DefaultHasher::new();
    digest.hash(&mut h);
    sorted.hash(&mut h);
    *digest = h.finish();
}

#[cfg(test)]
mod tests {
    use super::*;
    use aspen_catalog::{SourceKind, SourceStats};
    use aspen_types::{DataType, Field, Schema, SimDuration};

    fn reading(sensor: i64, room: i64, value: f64, ms: u64) -> Tuple {
        Tuple::new(
            vec![Value::Int(sensor), Value::Int(room), Value::Float(value)],
            SimTime::from_millis(ms),
        )
    }

    fn catalog() -> Arc<Catalog> {
        let cat = Catalog::shared();
        let schema = Schema::new(vec![
            Field::new("sensor", DataType::Int),
            Field::new("room", DataType::Int),
            Field::new("value", DataType::Float),
        ])
        .into_ref();
        cat.register_source(
            "Readings",
            schema.clone(),
            SourceKind::Stream,
            SourceStats::stream(8.0),
        )
        .unwrap();
        cat.register_source(
            "Other",
            schema.clone(),
            SourceKind::Stream,
            SourceStats::stream(8.0),
        )
        .unwrap();
        cat.register_source("Rooms", schema, SourceKind::Table, SourceStats::table(4))
            .unwrap();
        cat
    }

    /// Oracle vs engine on a 100-tuple input: every template the
    /// workloads check, windows rolling over on the way.
    #[test]
    fn naive_evaluators_agree_with_the_engine_on_100_tuples() {
        let range = WindowSpec::Range(SimDuration::from_secs(2));
        let rows = WindowSpec::Rows(16);
        type Expect = Box<dyn Fn(&History) -> Vec<Row>>;
        let cases: Vec<(&str, Expect, bool)> = vec![
            (
                "select r.sensor, r.value from Readings r [range 2 seconds] where r.value > 60",
                Box::new(move |h| {
                    filter_project(h.window("Readings", range), |t| as_f64(t.get(2)) > 60.0, &[0, 2])
                }),
                false,
            ),
            (
                "select r.value from Readings r [range 2 seconds] where r.sensor = 3",
                Box::new(move |h| {
                    filter_project(h.window("Readings", range), |t| t.get(0) == &Value::Int(3), &[2])
                }),
                false,
            ),
            (
                "select r.sensor, avg(r.value) from Readings r [range 2 seconds] where r.room = 1 group by r.sensor",
                Box::new(move |h| {
                    group_by(h.window("Readings", range), |t| t.get(1) == &Value::Int(1), &[0], &[Agg::Avg(2)])
                }),
                false,
            ),
            (
                "select r.room, count(*) from Readings r [rows 16] where r.value > 20 group by r.room",
                Box::new(move |h| {
                    group_by(h.window("Readings", rows), |t| as_f64(t.get(2)) > 20.0, &[1], &[Agg::Count])
                }),
                false,
            ),
            (
                "select count(*) from Readings r [rows 16] where r.value < 50",
                Box::new(move |h| global_count(h.window("Readings", rows), |t| as_f64(t.get(2)) < 50.0)),
                false,
            ),
            (
                "select r.sensor, r.value from Readings r [range 2 seconds] where r.room = 2 order by r.value desc limit 3",
                Box::new(move |h| top_k(h.window("Readings", range), |t| t.get(1) == &Value::Int(2), 2, 3)),
                true,
            ),
            (
                "select r.sensor, o.value from Readings r [rows 16], Other o [rows 8] where r.sensor = o.sensor",
                Box::new(move |h| {
                    equi_join(h.window("Readings", rows), h.window("Other", WindowSpec::Rows(8)), 0, 0, |_| true, &[0, 5])
                }),
                false,
            ),
            (
                "select r.sensor, m.value from Readings r [range 2 seconds], Rooms m where r.room = m.room and r.value > 30",
                Box::new(move |h| {
                    equi_join(
                        h.window("Readings", range),
                        h.window("Rooms", WindowSpec::Unbounded),
                        1,
                        1,
                        |t| as_f64(t.get(2)) > 30.0,
                        &[0, 5],
                    )
                }),
                false,
            ),
        ];
        let sqls: Vec<String> = cases.iter().map(|c| c.0.to_string()).collect();
        let mut oracle = Oracle::new(catalog(), &sqls).unwrap();
        let mut history = History::default();
        let table: Vec<Tuple> = (0..4).map(|r| reading(0, r, 100.0 + r as f64, 0)).collect();
        oracle.engine.on_batch("Rooms", &table).unwrap();
        history.admit("Rooms", &table);
        let mut rng = aspen_types::rng::seeded(7);
        use rand::Rng;
        for b in 0..10u64 {
            let mk = |rng: &mut rand::rngs::StdRng, i: u64| {
                reading(
                    rng.gen_range(0..6i64),
                    rng.gen_range(0..4i64),
                    rng.gen_range(0..200) as f64 * 0.5,
                    (b * 10 + i) * 100,
                )
            };
            let batch: Vec<Tuple> = (0..10).map(|i| mk(&mut rng, i)).collect();
            let other: Vec<Tuple> = (0..3).map(|i| mk(&mut rng, i)).collect();
            for (src, tuples) in [("Readings", &batch), ("Other", &other)] {
                oracle.engine.on_batch(src, tuples).unwrap();
                history.admit(src, tuples);
            }
            oracle.engine.heartbeat(history.now).unwrap();
            for ((sql, expect, top), &h) in cases.iter().zip(&oracle.handles) {
                let mut got = rows_of(&oracle.engine.snapshot(h).unwrap());
                if *top {
                    // Ties are the engine's to break: compare the values.
                    got = got.into_iter().map(|r| vec![r[1].clone()]).collect();
                }
                assert!(
                    same_bag(got.clone(), expect(&history)),
                    "batch {b}: {sql}\n got {got:?}\nwant {:?}",
                    expect(&history)
                );
            }
        }
        assert_eq!(history.window("Readings", WindowSpec::Unbounded).len(), 100);
    }

    #[test]
    fn push_ledger_equals_polled_snapshot() {
        let mut oracle = Oracle::new(catalog(), &[]).unwrap();
        let q = oracle
            .engine
            .register(
                aspen_stream::QuerySpec::sql("select r.sensor from Readings r [rows 4]").push(),
            )
            .unwrap()
            .expect_query();
        let sub = oracle.engine.subscribe(q).unwrap();
        let mut ledger = PushLedger::default();
        for b in 0..5u64 {
            let batch: Vec<Tuple> = (0..3)
                .map(|i| reading((b * 3 + i) as i64 % 5, 0, 1.0, b))
                .collect();
            oracle.engine.on_batch("Readings", &batch).unwrap();
            ledger.absorb(&sub.drain());
        }
        let snap = oracle.engine.snapshot(q).unwrap();
        assert_eq!(snap.len(), 4);
        assert!(ledger.matches(&snap));
        assert!(!ledger.matches(&snap[1..]));
    }

    #[test]
    fn route_check_accepts_only_the_shortest_open_path() {
        let seg = |a: &str, b: &str, d: f64| (a.to_string(), b.to_string(), d);
        let mut segments = vec![
            seg("entrance", "hall1", 100.0),
            seg("hall1", "hall2", 100.0),
            seg("hall2", "door_lab2", 15.0),
            seg("entrance", "door_lab2", 500.0),
        ];
        assert_eq!(
            shortest_dist(&segments, "entrance", "door_lab2"),
            Some(215.0)
        );
        let good = "entrance -> hall1 -> hall2 -> door_lab2";
        assert!(route_is_shortest(&segments, good, "entrance", "door_lab2"));
        assert!(!route_is_shortest(
            &segments,
            "entrance -> door_lab2",
            "entrance",
            "door_lab2"
        ));
        assert!(!route_is_shortest(
            &segments,
            "entrance -> hall2 -> door_lab2",
            "entrance",
            "door_lab2"
        ));
        segments.remove(1);
        assert!(!route_is_shortest(&segments, good, "entrance", "door_lab2"));
        assert_eq!(shortest_dist(&segments, "hall1", "hall2"), Some(615.0));
        segments.remove(2);
        assert_eq!(shortest_dist(&segments, "entrance", "door_lab2"), None);
    }

    #[test]
    fn digest_ignores_row_order_within_a_snapshot() {
        let a = [reading(1, 0, 1.0, 0), reading(2, 0, 2.0, 0)];
        let b = [a[1].clone(), a[0].clone()];
        let (mut da, mut db, mut dc) = (0u64, 0u64, 0u64);
        digest_rows(&mut da, &a);
        digest_rows(&mut db, &b);
        digest_rows(&mut dc, &a[..1]);
        assert_eq!(da, db);
        assert_ne!(da, dc);
    }
}
