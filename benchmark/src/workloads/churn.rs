//! `churn` — 120 standing queries (the six dashboard templates × 20
//! constants) under the same `Readings` ingest, with the control plane
//! and the read path running beside the writes: every T batch and every
//! eighth L batch also runs a client cycle, and the cycles carry
//! pause/resume, session open/close, attaches that replay a retained
//! table, statements of never-seen templates (one cycle in twenty), push
//! drains and `telemetry()` polls.
//!
//! Why: the same shard, chain and sink structures as `dashboards`, used
//! through registration, lifecycle and reads. A data-plane gain that
//! taxes lifecycle or reads shows here, and the SQL front end and the
//! plan cache do most of their work only here.
//!
//! `register_p50_us` and `read_p50_us` still sample only the plain
//! cycle of phase C; the extra operations are timed as per-layer spans.

use std::path::Path;
use std::rc::Rc;
use std::sync::Arc;

use aspen_catalog::{Catalog, SourceKind, SourceStats};
use aspen_types::{DataType, Field, Schema, Tuple, Value};

use crate::probes;
use crate::system::{Batch, Cycle, Extra, Res, Work, Workload};
use crate::trace::Tracer;
use crate::workloads::dashboards::{
    self, cycle_sql, global, point, room_count, run_probes, sample_of, standing_set, Readings,
    ROOMS, SENSORS,
};
use crate::workloads::engine_sys::{EngineSpec, EngineSys};
use crate::workloads::{scaled, CYCLE_CONSTANTS};

const TABLE: &str = "Rooms";

// About 40 % of the seed commit's sustainable rate for an 8-tuple batch
// plus an eighth of a client cycle, on the 2-core reference host.
const RATE_L: f64 = 420.0;

/// The `Readings` catalog plus a retained `Rooms` table.
fn catalog() -> Arc<Catalog> {
    let cat = dashboards::catalog();
    let schema = Schema::new(vec![
        Field::new("room", DataType::Int),
        Field::new("name", DataType::Text),
        Field::new("floor", DataType::Int),
    ])
    .into_ref();
    cat.register_source(
        TABLE,
        schema,
        SourceKind::Table,
        SourceStats::table(ROOMS as u64),
    )
    .expect("fresh catalog");
    cat
}

/// What cycle `k` does besides the plain sequence.
fn extras(k: usize, standing: usize) -> Vec<Extra> {
    let c = 0.002 * (k % 20_000) as f64 + 0.0005;
    let mut out = Vec::new();
    match k % 10 {
        1 => out.push(Extra::PauseResume((k / 10) % standing)),
        3 => out.push(Extra::Session(vec![
            point(k as i64 % SENSORS).sql,
            room_count(40.0 + c).sql,
            global(40.0 + c).sql,
        ])),
        5 => out.push(Extra::TableAttach(format!(
            "select r.sensor, m.name from Readings r, Rooms m \
             where r.room = m.room and r.value > {:.4}",
            55.0 + c
        ))),
        8 => out.push(Extra::Telemetry),
        _ => {}
    }
    if k % 20 == 7 {
        // The projected constant is not parameterized, so each of these
        // is a template the plan cache has never seen.
        out.push(Extra::Novel(format!(
            "select r.sensor, r.value + {k} from Readings r where r.value > 99"
        )));
    }
    out
}

pub struct Churn {
    spec: Rc<EngineSpec>,
    work: Work,
    sample: Vec<Tuple>,
}

impl Churn {
    pub fn new(seed: u64, seconds: u64) -> Self {
        let (standing, probes, readers) = standing_set(20);
        let rooms: Vec<Tuple> = (0..ROOMS)
            .map(|r| {
                Tuple::row(vec![
                    Value::Int(r),
                    Value::Text(format!("room-{r:02}")),
                    Value::Int(r / 10),
                ])
            })
            .collect();
        let mut gen = Readings::new(seed);
        let warm = gen.batches(10, 256);
        let rounds: Vec<Vec<Batch>> = (0..scaled(16, 2, seconds))
            .map(|_| gen.batches(8, 256))
            .collect();
        let open = gen.batches(scaled(1200, 1200, seconds), 8);
        let cycle_batches = gen.batches(scaled(1000, 1000, seconds), 8);
        let mut work = Work {
            setups: 3,
            warm,
            rounds,
            open,
            rate_l: RATE_L,
            cycle_batches,
            cycles: Vec::new(),
            ride_along: Some(8),
        };
        let total = work.ride_along_cycles() + work.cycle_batches.len();
        work.cycles = (0..total)
            .map(|k| Cycle {
                sql: cycle_sql(k),
                extras: extras(k, standing.len()),
            })
            .collect();
        let sample = sample_of(&work.warm);
        Churn {
            spec: Rc::new(EngineSpec {
                catalog: Box::new(catalog),
                tables: vec![(Rc::from(TABLE), rooms.into())],
                standing,
                probes,
                readers,
                lifecycle_sql: cycle_sql(CYCLE_CONSTANTS - 1),
            }),
            work,
            sample,
        }
    }
}

impl Workload for Churn {
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
