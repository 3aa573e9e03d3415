//! `bigwindow` — 16 queries with pairwise-distinct large windows
//! (`rows 20 000` … `range 1 hour`, so no chain is shared): grouped
//! aggregates over 4 096 keys, selective filters carrying text columns,
//! a stream ⋈ stream join and a stream ⋈ retained-table join. About
//! 315 000 live window tuples; every insert evicts.
//!
//! Why: the window, state and columnar layers do most of the work here,
//! and fan-out, the SQL front end and chain sharing almost none — the
//! mirror image of `dashboards`.

use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_types::{DataType, Field, Schema, SimDuration, SimTime, Tuple, Value, WindowSpec};
use rand::rngs::StdRng;
use rand::Rng;

use crate::probes::{self, ProbeInput};
use crate::reference::{as_f64, equi_join, filter_project, group_by, Agg};
use crate::system::{Batch, Cycle, Res, Work, Workload};
use crate::trace::Tracer;
use crate::workloads::dashboards::sample_of;
use crate::workloads::engine_sys::{EngineSpec, EngineSys, Expect, Standing};
use crate::workloads::{scaled, CYCLE_CONSTANTS};

const EVENTS: &str = "Events";
const ALERTS: &str = "Alerts";
const ASSETS: &str = "Assets";
const KEYS: i64 = 4096;
/// Rows of the retained `Assets` table: the first quarter of the keys
/// own an asset, and every attach of a query joining it replays them.
const ASSET_ROWS: i64 = 1024;
/// Event-time spacing: 0.18 s per event, so `range 1 hour` holds 20 000.
const STEP_US: u64 = 180_000;
const KINDS: [&str; 4] = ["temp", "power", "door", "motion"];

// About 40 % of the seed commit's closed-loop rate for 8-tuple batches
// on the 2-core reference host.
const RATE_L: f64 = 480.0;

fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let schema = |cols: &[(&str, DataType)]| {
        Schema::new(cols.iter().map(|(n, t)| Field::new(*n, *t)).collect()).into_ref()
    };
    let (int, text, float) = (DataType::Int, DataType::Text, DataType::Float);
    cat.register_source(
        EVENTS,
        schema(&[
            ("key", int),
            ("site", text),
            ("kind", text),
            ("value", float),
        ]),
        SourceKind::Stream,
        SourceStats::stream(5.5).with_distinct("key", KEYS as u64),
    )
    .expect("fresh catalog");
    cat.register_source(
        ALERTS,
        schema(&[("key", int), ("level", int)]),
        SourceKind::Stream,
        SourceStats::stream(0.2).with_distinct("key", KEYS as u64),
    )
    .expect("fresh catalog");
    cat.register_source(
        ASSETS,
        schema(&[("key", int), ("owner", text), ("model", text)]),
        SourceKind::Table,
        SourceStats::table(ASSET_ROWS as u64).with_distinct("key", ASSET_ROWS as u64),
    )
    .expect("fresh catalog");
    cat
}

/// Both streams on one event clock: every tuple, of either stream,
/// advances it one step.
struct Feed {
    rng: StdRng,
    next: u64,
    events: Rc<str>,
    alerts: Rc<str>,
}

impl Feed {
    fn stamp(&mut self) -> SimTime {
        self.next += 1;
        SimTime::from_micros(self.next * STEP_US)
    }

    fn events(&mut self, n: usize) -> Batch {
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                let key = self.rng.gen_range(0..KEYS);
                let kind = KINDS[self.rng.gen_range(0..KINDS.len())];
                let value = self.rng.gen_range(0..200i64) as f64 * 0.5;
                Tuple::new(
                    vec![
                        Value::Int(key),
                        Value::Text(format!("site-{:02}", key % 64)),
                        Value::Text(kind.into()),
                        Value::Float(value),
                    ],
                    self.stamp(),
                )
            })
            .collect();
        Batch::Tuples {
            source: Rc::clone(&self.events),
            tuples: tuples.into(),
        }
    }

    fn alerts(&mut self, n: usize) -> Batch {
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                let row = vec![
                    Value::Int(self.rng.gen_range(0..KEYS)),
                    Value::Int(self.rng.gen_range(1..5i64)),
                ];
                Tuple::new(row, self.stamp())
            })
            .collect();
        Batch::Tuples {
            source: Rc::clone(&self.alerts),
            tuples: tuples.into(),
        }
    }

    /// `count` batches of `n` events, every `alert_every`-th followed by
    /// a batch of alerts a quarter its size.
    fn mixed(&mut self, count: usize, n: usize, alert_every: usize) -> Vec<Batch> {
        (0..count)
            .map(|i| {
                if i % alert_every == alert_every - 1 {
                    self.alerts((n / 4).max(2))
                } else {
                    self.events(n)
                }
            })
            .collect()
    }
}

fn rows(n: u64) -> WindowSpec {
    WindowSpec::Rows(n)
}

fn minutes(m: u64) -> WindowSpec {
    WindowSpec::Range(SimDuration::from_secs(60 * m))
}

fn clause(w: WindowSpec) -> String {
    match w {
        WindowSpec::Rows(n) => format!("[rows {n}]"),
        WindowSpec::Range(d) => format!("[range {} minutes]", d.as_micros() / 60_000_000),
        _ => unreachable!("bigwindow uses rows and range windows"),
    }
}

fn standing(sql: String, expect: Expect) -> Standing {
    Standing {
        sql,
        push: false,
        expect,
        compare_col: None,
        source: Rc::from(EVENTS),
    }
}

fn value(t: &Tuple) -> f64 {
    as_f64(t.get(3))
}

/// Count and average per key over 4 096 keys.
fn key_stats(w: WindowSpec) -> Standing {
    standing(
        format!(
            "select e.key, count(*), avg(e.value) from Events e {} group by e.key",
            clause(w)
        ),
        Box::new(move |h, _| {
            group_by(
                h.window(EVENTS, w),
                |_| true,
                &[0],
                &[Agg::Count, Agg::Avg(3)],
            )
        }),
    )
}

/// Count and average per (site, kind): text group keys.
fn site_stats(w: WindowSpec) -> Standing {
    standing(
        format!(
            "select e.site, e.kind, count(*), avg(e.value) from Events e {} group by e.site, e.kind",
            clause(w)
        ),
        Box::new(move |h, _| {
            group_by(h.window(EVENTS, w), |_| true, &[1, 2], &[Agg::Count, Agg::Avg(3)])
        }),
    )
}

fn hot_keys(w: WindowSpec) -> Standing {
    standing(
        format!(
            "select e.key, count(*) from Events e {} where e.value > 50 group by e.key",
            clause(w)
        ),
        Box::new(move |h, _| {
            group_by(
                h.window(EVENTS, w),
                |t| value(t) > 50.0,
                &[0],
                &[Agg::Count],
            )
        }),
    )
}

/// A selective filter that keeps the text columns: the small-result
/// probes.
fn extremes(w: WindowSpec) -> Standing {
    standing(
        format!(
            "select e.key, e.site, e.kind, e.value from Events e {} where e.value > 99",
            clause(w)
        ),
        Box::new(move |h, _| {
            filter_project(h.window(EVENTS, w), |t| value(t) > 99.0, &[0, 1, 2, 3])
        }),
    )
}

fn alerted(events: WindowSpec, alerts: WindowSpec) -> Standing {
    standing(
        format!(
            "select e.key, e.value, a.level from Events e {}, Alerts a {} where e.key = a.key",
            clause(events),
            clause(alerts)
        ),
        Box::new(move |h, _| {
            equi_join(
                h.window(EVENTS, events),
                h.window(ALERTS, alerts),
                0,
                0,
                |_| true,
                &[0, 3, 5],
            )
        }),
    )
}

fn owned(w: WindowSpec) -> Standing {
    standing(
        format!(
            "select e.key, s.owner, e.value from Events e {}, Assets s \
             where e.key = s.key and e.value > 98",
            clause(w)
        ),
        Box::new(move |h, _| {
            equi_join(
                h.window(EVENTS, w),
                h.window(ASSETS, WindowSpec::Unbounded),
                0,
                0,
                |t| value(t) > 98.0,
                &[0, 5, 3],
            )
        }),
    )
}

/// The cycle statement: a join against the retained table, so every
/// attach replays its 1 024 rows.
fn cycle_sql(k: usize) -> String {
    format!(
        "select e.key, s.owner from Events e [rows 64], Assets s \
         where e.key = s.key and e.value > {:.4}",
        50.0001 + 0.0004 * (k % CYCLE_CONSTANTS) as f64
    )
}

pub struct BigWindow {
    spec: Rc<EngineSpec>,
    work: Work,
    sample: Vec<Tuple>,
}

impl BigWindow {
    pub fn new(seed: u64, seconds: u64) -> Self {
        let standing = vec![
            key_stats(rows(20_000)),
            key_stats(minutes(60)),
            site_stats(rows(20_500)),
            site_stats(minutes(58)),
            hot_keys(rows(21_000)),
            hot_keys(minutes(56)),
            extremes(rows(21_500)),
            extremes(minutes(54)),
            extremes(rows(22_000)),
            extremes(minutes(52)),
            extremes(rows(22_500)),
            extremes(minutes(50)),
            alerted(rows(23_000), rows(512)),
            alerted(minutes(48), rows(640)),
            owned(rows(23_500)),
            owned(minutes(46)),
        ];
        let assets: Vec<Tuple> = (0..ASSET_ROWS)
            .map(|k| {
                Tuple::row(vec![
                    Value::Int(k),
                    Value::Text(format!("owner-{}", k % 97)),
                    Value::Text(format!("model-{}", k % 13)),
                ])
            })
            .collect();
        let mut feed = Feed {
            rng: aspen_types::rng::seeded(seed),
            next: 0,
            events: Rc::from(EVENTS),
            alerts: Rc::from(ALERTS),
        };
        // 24 064 events fill the largest window (rows 23 500).
        let warm = feed.mixed(104, 256, 10);
        let rounds: Vec<Vec<Batch>> = (0..scaled(16, 2, seconds))
            .map(|_| feed.mixed(8, 256, 8))
            .collect();
        let open = feed.mixed(scaled(1200, 1200, seconds), 8, 16);
        let cycle_batches = feed.mixed(scaled(1000, 1000, seconds), 8, 16);
        let cycles = (0..cycle_batches.len())
            .map(|k| Cycle {
                sql: cycle_sql(k),
                extras: Vec::new(),
            })
            .collect();
        let sample: Vec<Tuple> = sample_of(&warm[..20])
            .into_iter()
            .filter(|t| t.len() == 4)
            .collect();
        BigWindow {
            spec: Rc::new(EngineSpec {
                catalog: Box::new(catalog),
                tables: vec![(Rc::from(ASSETS), assets.into())],
                standing,
                probes: (6..12).collect(),
                // The (site, kind) statistics: all 256 groups are always
                // present, so a read costs the same whatever the seed.
                readers: vec![2, 3],
                lifecycle_sql: cycle_sql(CYCLE_CONSTANTS - 1),
            }),
            work: Work {
                setups: 1,
                warm,
                rounds,
                open,
                rate_l: RATE_L,
                cycle_batches,
                cycles,
                ride_along: None,
            },
            sample,
        }
    }
}

impl Workload for BigWindow {
    type Sys = EngineSys;

    fn work(&self) -> &Work {
        &self.work
    }

    fn setup(&self, tr: &mut Tracer) -> Res<EngineSys> {
        EngineSys::new(Rc::clone(&self.spec), tr)
    }

    fn probes(&self, out_dir: &Path) -> probes::Metrics {
        let sqls: Vec<String> = self.spec.standing.iter().map(|s| s.sql.clone()).collect();
        let filters: Vec<String> = (0..16)
            .map(|i| {
                format!(
                    "select e.key, e.site, e.value from Events e [rows 20000] where e.value > {}",
                    90.0 + i as f64 * 0.5
                )
            })
            .collect();
        probes::run(
            &ProbeInput {
                catalog: &catalog,
                source: EVENTS,
                tuples: &self.sample,
                sqls: &sqls,
                filters: &filters,
                window: rows(2_000),
                app: (2, 4),
            },
            out_dir,
        )
    }
}
