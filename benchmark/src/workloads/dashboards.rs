//! `dashboards` — 240 standing queries (6 templates × 40 constants) over
//! one hot `Readings` stream with one common window, a quarter of them
//! push-subscribed and drained by the driver.
//!
//! Why: the paper's many displays over one building-wide feed. The work
//! is routing, tap fan-out, filter/aggregate operators, sink apply and
//! push flush; shared chains leave the state layer one window per shard,
//! so the state layer does little here.
//!
//! The templates and the `Readings` generator are shared with `churn`.

use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_types::{DataType, Field, Schema, SimDuration, SimTime, Tuple, Value, WindowSpec};
use rand::rngs::StdRng;
use rand::Rng;

use crate::probes::{self, ProbeInput};
use crate::reference::{as_f64, filter_project, global_count, group_by, top_k, Agg};
use crate::system::{Batch, Cycle, Res, Work, Workload};
use crate::trace::Tracer;
use crate::workloads::engine_sys::{EngineSpec, EngineSys, Standing};
use crate::workloads::{scaled, CYCLE_CONSTANTS};

pub const SOURCE: &str = "Readings";
pub const SENSORS: i64 = 320;
pub const ROOMS: i64 = 40;
/// Every query uses the stream default, so one chain per shard serves
/// them all.
pub const WINDOW: WindowSpec = WindowSpec::Range(SimDuration(30_000_000));
/// Event-time spacing: 64 readings per simulated second, so the window
/// holds 1 920 tuples at steady state and every batch evicts.
const STEP_US: u64 = 15_625;

// Open-loop rate: about 40 % of the seed commit's closed-loop batch
// rate for 8-tuple batches on the 2-core reference host.
const RATE_L: f64 = 420.0;

pub fn catalog() -> Arc<Catalog> {
    let cat = Catalog::shared();
    let schema = Schema::new(vec![
        Field::new("sensor", DataType::Int),
        Field::new("room", DataType::Int),
        Field::new("value", DataType::Float),
    ])
    .into_ref();
    cat.register_source(
        SOURCE,
        schema,
        SourceKind::Stream,
        SourceStats::stream(64.0)
            .with_distinct("sensor", SENSORS as u64)
            .with_distinct("room", ROOMS as u64),
    )
    .expect("fresh catalog");
    cat
}

/// The seeded `Readings` stream: uniform sensors (eight per room),
/// values on a half-unit grid in [0, 100) so sums are exact in `f64`.
pub struct Readings {
    rng: StdRng,
    next: u64,
    source: Rc<str>,
}

impl Readings {
    pub fn new(seed: u64) -> Self {
        Readings {
            rng: aspen_types::rng::seeded(seed),
            next: 0,
            source: Rc::from(SOURCE),
        }
    }

    pub fn batch(&mut self, n: usize) -> Batch {
        let tuples: Vec<Tuple> = (0..n)
            .map(|_| {
                let sensor = self.rng.gen_range(0..SENSORS);
                let value = self.rng.gen_range(0..200i64) as f64 * 0.5;
                self.next += 1;
                Tuple::new(
                    vec![
                        Value::Int(sensor),
                        Value::Int(sensor / (SENSORS / ROOMS)),
                        Value::Float(value),
                    ],
                    SimTime::from_micros(self.next * STEP_US),
                )
            })
            .collect();
        Batch::Tuples {
            source: Rc::clone(&self.source),
            tuples: tuples.into(),
        }
    }

    pub fn batches(&mut self, count: usize, n: usize) -> Vec<Batch> {
        (0..count).map(|_| self.batch(n)).collect()
    }
}

fn standing(sql: String, expect: crate::workloads::engine_sys::Expect) -> Standing {
    Standing {
        sql,
        push: false,
        expect,
        compare_col: None,
        source: Rc::from(SOURCE),
    }
}

fn value(t: &Tuple) -> f64 {
    as_f64(t.get(2))
}

/// The six dashboard templates. Column 0 is `sensor`, 1 `room`, 2 `value`.
pub fn threshold(c: f64) -> Standing {
    standing(
        format!("select r.sensor, r.value from Readings r where r.value > {c:.4}"),
        Box::new(move |h, since| {
            filter_project(
                h.window_since(SOURCE, WINDOW, since),
                |t| value(t) > c,
                &[0, 2],
            )
        }),
    )
}

pub fn point(sensor: i64) -> Standing {
    standing(
        format!("select r.value from Readings r where r.sensor = {sensor}"),
        Box::new(move |h, since| {
            filter_project(
                h.window_since(SOURCE, WINDOW, since),
                |t| t.get(0) == &Value::Int(sensor),
                &[2],
            )
        }),
    )
}

pub fn sensor_avg(room: i64) -> Standing {
    standing(
        format!(
            "select r.sensor, avg(r.value) from Readings r where r.room = {room} group by r.sensor"
        ),
        Box::new(move |h, since| {
            group_by(
                h.window_since(SOURCE, WINDOW, since),
                |t| t.get(1) == &Value::Int(room),
                &[0],
                &[Agg::Avg(2)],
            )
        }),
    )
}

pub fn room_count(c: f64) -> Standing {
    standing(
        format!("select r.room, count(*) from Readings r where r.value > {c:.4} group by r.room"),
        Box::new(move |h, since| {
            group_by(
                h.window_since(SOURCE, WINDOW, since),
                |t| value(t) > c,
                &[1],
                &[Agg::Count],
            )
        }),
    )
}

pub fn global(c: f64) -> Standing {
    standing(
        format!("select count(*) from Readings r where r.value < {c:.4}"),
        Box::new(move |h, since| {
            global_count(h.window_since(SOURCE, WINDOW, since), |t| value(t) < c)
        }),
    )
}

pub fn top(room: i64) -> Standing {
    Standing {
        compare_col: Some(1),
        ..standing(
            format!(
                "select r.sensor, r.value from Readings r where r.room = {room} \
                 order by r.value desc limit 5"
            ),
            Box::new(move |h, since| {
                top_k(
                    h.window_since(SOURCE, WINDOW, since),
                    |t| t.get(1) == &Value::Int(room),
                    2,
                    5,
                )
            }),
        )
    }
}

/// `per_template` constants of each of the six templates, a quarter
/// push-subscribed. Returns the queries plus the index ranges of the
/// point filters (the probes) and the per-sensor averages (the readers).
pub fn standing_set(per_template: usize) -> (Vec<Standing>, Vec<usize>, Vec<usize>) {
    let n = per_template as i64;
    let spread = |i: i64, lo: f64, hi: f64| lo + (hi - lo) * i as f64 / n as f64;
    let mut all = Vec::new();
    all.extend((0..n).map(|i| threshold(spread(i, 80.0, 100.0))));
    all.extend((0..n).map(|i| point(i * (SENSORS / n))));
    all.extend((0..n).map(|i| sensor_avg(i * (ROOMS / n))));
    all.extend((0..n).map(|i| room_count(spread(i, 50.0, 90.0))));
    all.extend((0..n).map(|i| global(spread(i, 10.0, 90.0))));
    all.extend((0..n).map(|i| top(i * (ROOMS / n))));
    // A quarter of the set: three in ten of the five pushable templates
    // (`limit` results cannot be delivered as deltas).
    for (i, s) in all.iter_mut().enumerate() {
        s.push = s.compare_col.is_none() && matches!(i % 10, 0 | 3 | 6);
    }
    let probes = (per_template..2 * per_template).collect();
    let readers = (2 * per_template..3 * per_template).collect();
    (all, probes, readers)
}

/// The `k`-th cycle statement: a threshold constant no standing query
/// and no earlier cycle used.
pub fn cycle_sql(k: usize) -> String {
    threshold(80.0001 + 0.0004 * (k % CYCLE_CONSTANTS) as f64).sql
}

pub struct Dashboards {
    spec: Rc<EngineSpec>,
    work: Work,
    sample: Vec<Tuple>,
}

impl Dashboards {
    pub fn new(seed: u64, seconds: u64) -> Self {
        let (standing, probes, readers) = standing_set(40);
        let mut gen = Readings::new(seed);
        let warm = gen.batches(10, 256);
        let rounds: Vec<Vec<Batch>> = (0..scaled(16, 2, seconds))
            .map(|_| gen.batches(8, 256))
            .collect();
        let open = gen.batches(scaled(1200, 1200, seconds), 8);
        let cycle_batches = gen.batches(scaled(1000, 1000, seconds), 8);
        let cycles = (0..cycle_batches.len())
            .map(|k| Cycle {
                sql: cycle_sql(k),
                extras: Vec::new(),
            })
            .collect();
        let sample = sample_of(&warm);
        Dashboards {
            spec: Rc::new(EngineSpec {
                catalog: Box::new(catalog),
                tables: Vec::new(),
                standing,
                probes,
                readers,
                lifecycle_sql: cycle_sql(CYCLE_CONSTANTS - 1),
            }),
            work: Work {
                setups: 2,
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

/// The tuples of a batch list, flattened: the stream sample the direct
/// probes run on.
pub fn sample_of(batches: &[Batch]) -> Vec<Tuple> {
    batches
        .iter()
        .flat_map(|b| match b {
            Batch::Tuples { tuples, .. } => tuples.to_vec(),
            Batch::Tick => Vec::new(),
        })
        .collect()
}

/// Probe input over the `Readings` catalog (shared with `churn`).
pub fn run_probes(spec: &EngineSpec, sample: &[Tuple], out_dir: &Path) -> probes::Metrics {
    let sqls: Vec<String> = spec.standing.iter().map(|s| s.sql.clone()).collect();
    let filters: Vec<String> = (0..16)
        .map(|i| threshold(90.0 + i as f64 * 0.5).sql)
        .collect();
    probes::run(
        &ProbeInput {
            catalog: &catalog,
            source: SOURCE,
            tuples: sample,
            sqls: &sqls,
            filters: &filters,
            window: WINDOW,
            app: (2, 4),
        },
        out_dir,
    )
}

impl Workload for Dashboards {
    type Sys = EngineSys;

    fn work(&self) -> &Work {
        &self.work
    }

    fn setup(&self, tr: &mut Tracer) -> Res<EngineSys> {
        EngineSys::new(Rc::clone(&self.spec), tr)
    }

    fn probes(&self, out_dir: &Path) -> probes::Metrics {
        run_probes(&self.spec, &self.sample, out_dir)
    }
}
