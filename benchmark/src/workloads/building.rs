//! `building` — the full [`SmartCis`] application (3 labs × 8 desks,
//! seeded): all seven paper queries plus 40 dashboard variants, and a
//! visitor walking a fixed path. A batch is one `tick()` — wrappers
//! poll, the occupancy simulation steps, the Area/Seat/Temp batches
//! arrive, a heartbeat expires the epoch, autotune runs every sixth
//! tick. The probe is `visitor_guidance()` + `gui_state()`; phase-C
//! cycles add `set_visitor` and a fixed schedule of `close_corridor`
//! calls that keeps every lab reachable (recursive-view DRed).
//!
//! Why: the paper's demo loop end to end — wrappers, federated
//! optimizer, recursive `Reachable` view, joins against retained tables,
//! heartbeat expiry — which the other four workloads take apart layer by
//! layer.

use std::path::Path;

use aspen_stream::{Consistency, QueryHandle, ShardedEngine};
use aspen_types::{SimDuration, SimTime, Tuple, Value, WindowSpec};
use rand::Rng;
use smartcis_app::{queries, SmartCis};

use crate::json::Json;
use crate::probes::{self, ProbeInput};
use crate::reference::{digest_rows, route_is_shortest};
use crate::system::{ok, Batch, Checked, Cycle, Extra, Res, System, Work, Workload};
use crate::trace::Tracer;
use crate::workloads::engine_sys::{engine_config, engine_ledger, lifecycle_probes, mean_us};
use crate::workloads::{scaled, CYCLE_CONSTANTS};

/// The application's own seed (occupancy, localisation, wrappers) is
/// fixed: 24 desks flipping at random move the join state by ±4 % from
/// one seed to the next, which would be `state_bytes`' whole bound four
/// times over. `--seed` moves the visitor instead (where the walk
/// starts, which software is asked for when).
const APP_SEED: u64 = 11;
const LABS: usize = 3;
const DESKS: usize = 8;
/// Device and wrapper readings one tick admits: one area sensor per lab
/// and, per desk, a seat sensor, a temperature sensor, a PDU row and a
/// machine-state row.
const TUPLES_PER_TICK: u64 = (LABS + 4 * LABS * DESKS) as u64;

// About 40 % of the seed commit's closed-loop tick rate on the 2-core
// reference host.
const RATE_L: f64 = 280.0;

/// The visitor's round trip down the hallway.
fn walk() -> Vec<String> {
    let out: Vec<String> = std::iter::once("entrance".to_string())
        .chain((1..=LABS).map(|i| format!("hall{i}")))
        .collect();
    let back: Vec<String> = out[1..LABS].iter().rev().cloned().collect();
    out.into_iter().chain(back).collect()
}

/// 40 dashboard variants over the device and wrapper streams.
fn dashboard_sqls() -> Vec<String> {
    let mut out = Vec::new();
    for i in 0..10 {
        out.push(format!(
            "select t.room, t.desk, t.temp from TempSensors t where t.temp > {}",
            74 + 2 * i
        ));
        out.push(format!(
            "select t.room, avg(t.temp) from TempSensors t where t.temp > {} group by t.room",
            40 + i
        ));
        out.push(format!(
            "select s.room, count(*) from SeatSensors s where s.status = 'free' and s.light > {} group by s.room",
            100 + 10 * i
        ));
        out.push(format!(
            "select m.room, count(*) from MachineState m where m.cpu_pct > {} group by m.room",
            20 + 6 * i
        ));
    }
    out
}

fn cycle_sql(k: usize) -> String {
    format!(
        "select t.room, t.desk, t.temp from TempSensors t where t.temp > {:.4}",
        70.0001 + 0.0004 * (k % CYCLE_CONSTANTS) as f64
    )
}

pub struct BuildingLoop {
    work: Work,
    sample: Vec<Tuple>,
}

impl BuildingLoop {
    pub fn new(seed: u64, seconds: u64) -> Self {
        let path = walk();
        let mut rng = aspen_types::rng::seeded(seed);
        let (start, phase) = (rng.gen_range(0..path.len()), rng.gen_range(0..64usize));
        let cycle_batches = vec![Batch::Tick; scaled(1000, 1000, seconds)];
        let cycles = (0..cycle_batches.len())
            .map(|k| {
                let mut extras = vec![Extra::SetVisitor {
                    point: path[(k / 4 + start) % path.len()].clone(),
                    needed: if ((k + phase) / 64) % 2 == 0 {
                        "Fedora"
                    } else {
                        "Word"
                    }
                    .into(),
                }];
                // Each closure cuts off one office; every lab stays
                // reachable, so guidance keeps answering.
                match k {
                    250 => extras.push(Extra::CloseCorridor("hall1".into(), "door_office1".into())),
                    750 => extras.push(Extra::CloseCorridor("hall2".into(), "door_office2".into())),
                    _ => {}
                }
                Cycle {
                    sql: cycle_sql(k),
                    extras,
                }
            })
            .collect();
        // A `TempSensors`-shaped sample for the direct probes.
        let sample = (0..4096u64)
            .map(|i| {
                let desk = i % (LABS * DESKS) as u64;
                Tuple::new(
                    vec![
                        Value::Text(format!("lab{}", desk / DESKS as u64 + 1)),
                        Value::Int(desk as i64 + 1),
                        Value::Float(68.0 + rng.gen_range(0..60i64) as f64 * 0.5),
                    ],
                    SimTime::from_secs(10 * (1 + i / (LABS * DESKS) as u64)),
                )
            })
            .collect();
        BuildingLoop {
            work: Work {
                setups: 3,
                warm: vec![Batch::Tick; 12],
                rounds: (0..scaled(80, 2, seconds))
                    .map(|_| vec![Batch::Tick; 8])
                    .collect(),
                open: vec![Batch::Tick; scaled(1200, 1200, seconds)],
                rate_l: RATE_L,
                cycle_batches,
                cycles,
                ride_along: None,
            },
            sample,
        }
    }
}

pub struct BuildingSys {
    app: SmartCis,
    standing: Vec<QueryHandle>,
    visitor_at: String,
    closed: Vec<(String, String)>,
    probe_rows: u64,
    probe_count: u64,
}

impl BuildingSys {
    fn new(tr: &mut Tracer) -> Res<BuildingSys> {
        let config = engine_config();
        let mut app = ok(SmartCis::with_config(LABS, DESKS, APP_SEED, config))?;
        let mut standing = Vec::new();
        let paper = [
            queries::TEMP_ALARM,
            queries::LOAD_ALARM,
            queries::ROOM_RESOURCES,
            queries::FREE_MACHINES,
            queries::VISITOR_LOCATION,
            queries::TOTAL_POWER,
        ];
        let dashboards = dashboard_sqls();
        for (i, sql) in paper
            .iter()
            .copied()
            .chain(dashboards.iter().map(String::as_str))
            .enumerate()
        {
            let reg = ok(tr.timed("register", i as u64, || app.register_query(sql)))?;
            let q = reg.query().ok_or("standing statement is a view")?;
            standing.push(q);
        }
        // The seventh paper query registers through the federated path
        // on the first guidance call.
        ok(tr.timed("set_visitor", 0, || {
            app.set_visitor(1, "entrance", "Fedora")
        }))?;
        ok(tr.timed("visitor_guidance", 0, || app.visitor_guidance()))?;
        Ok(BuildingSys {
            app,
            standing,
            visitor_at: "entrance".into(),
            closed: Vec::new(),
            probe_rows: 0,
            probe_count: 0,
        })
    }

    fn open_segments(&self) -> Vec<(String, String, f64)> {
        self.app
            .building
            .segments
            .iter()
            .filter(|s| {
                !self.closed.iter().any(|(a, b)| {
                    (s.a.eq_ignore_ascii_case(a) && s.b.eq_ignore_ascii_case(b))
                        || (s.a.eq_ignore_ascii_case(b) && s.b.eq_ignore_ascii_case(a))
                })
            })
            .map(|s| (s.a.clone(), s.b.clone(), s.dist_ft))
            .collect()
    }
}

impl System for BuildingSys {
    fn ingest(&mut self, batch: &Batch, tr: &mut Tracer, op: u64) -> Res<u64> {
        let Batch::Tick = batch else {
            return Err("the building is driven by ticks".into());
        };
        ok(tr.timed("admit", op, || self.app.tick()))?;
        Ok(TUPLES_PER_TICK)
    }

    fn quiesce(&mut self) -> Res<()> {
        ok(self.app.engine.quiesce())
    }

    fn probe(&mut self, k: usize, tr: &mut Tracer) -> Res<usize> {
        let (_, rows) = ok(tr.timed("visitor_guidance", k as u64, || self.app.visitor_guidance()))?;
        let gui = tr.timed("gui_state", k as u64, || self.app.gui_state());
        std::hint::black_box(gui);
        self.probe_rows += rows.len() as u64;
        self.probe_count += 1;
        Ok(rows.len())
    }

    fn register(&mut self, sql: &str) -> Res<QueryHandle> {
        ok(self.app.register_query(sql))?
            .query()
            .ok_or_else(|| "statement is a view".to_string())
    }

    fn deregister(&mut self, q: QueryHandle) -> Res<()> {
        ok(self.app.deregister(q))
    }

    fn snapshot(&mut self, q: QueryHandle, consistency: Consistency) -> Res<Vec<Tuple>> {
        ok(self.app.engine.snapshot_at(q, consistency))
    }

    /// The per-room average temperatures among the dashboard variants
    /// (the second of every four, behind the six paper queries): every
    /// desk reads above their thresholds, so each shows all rooms and a
    /// read costs the same whatever the seed.
    fn reader(&self, k: usize) -> QueryHandle {
        self.standing[6 + 4 * (k % 10) + 1]
    }

    fn extra(&mut self, extra: &Extra, tr: &mut Tracer, op: u64) -> Res<()> {
        match extra {
            Extra::SetVisitor { point, needed } => {
                ok(tr.timed("set_visitor", op, || self.app.set_visitor(1, point, needed)))?;
                self.visitor_at = point.clone();
                Ok(())
            }
            Extra::CloseCorridor(a, b) => {
                let closed = ok(tr.timed("close_corridor", op, || self.app.close_corridor(a, b)))?;
                if !closed {
                    return Err(format!("corridor {a}–{b} was not open"));
                }
                self.closed.push((a.clone(), b.clone()));
                Ok(())
            }
            other => Err(format!("the building workload schedules no {other:?}")),
        }
    }

    /// Guidance must name open labs and free desks, by a shortest open
    /// route from where the visitor stands; every paper query must
    /// answer.
    fn check(&mut self) -> Checked {
        let mut out = Checked::default();
        let segments = self.open_segments();
        match self.app.visitor_guidance() {
            Ok((_, rows)) => {
                for row in &rows {
                    let (Value::Text(room), Value::Int(desk), Value::Text(path)) =
                        (row.get(1), row.get(2), row.get(3))
                    else {
                        out.expect(false, || format!("malformed guidance row {}", row.render()));
                        continue;
                    };
                    let door = format!("door_{room}");
                    out.expect(
                        route_is_shortest(&segments, path, &self.visitor_at, &door),
                        || format!("route '{path}' is not a shortest open route to {door}"),
                    );
                    out.expect(
                        self.app.lab_is_open(room) && !self.app.desk_is_occupied(*desk as u32),
                        || {
                            format!(
                                "guidance offers desk {desk} in {room}, which is closed or taken"
                            )
                        },
                    );
                }
            }
            Err(e) => out.expect(false, || format!("visitor_guidance: {e}")),
        }
        for &q in &self.standing {
            let snap = self.app.engine.snapshot(q);
            out.expect(snap.is_ok(), || format!("standing query {q:?} failed"));
        }
        out
    }

    fn digest(&mut self) -> Res<u64> {
        let mut digest = 0u64;
        for &q in &self.standing {
            digest_rows(&mut digest, &ok(self.app.engine.snapshot(q))?);
        }
        digest_rows(&mut digest, &ok(self.app.visitor_guidance())?.1);
        digest_rows(
            &mut digest,
            &ok(self.app.engine.view_snapshot("Reachable"))?,
        );
        Ok(digest)
    }

    fn nodes(&self) -> Vec<&ShardedEngine> {
        vec![self.app.engine.sharded()]
    }

    fn ledger(&mut self, tr: &mut Tracer, tuples: u64) -> Vec<(&'static str, f64)> {
        let mut out = engine_ledger(&self.nodes(), tuples, "TempSensors");
        out.push(("smartcis.tick_us", tr.mean_us("admit")));
        out.push(("smartcis.guidance_us", tr.mean_us("visitor_guidance")));
        out.push(("smartcis.gui_state_us", tr.mean_us("gui_state")));
        out.push(("smartcis.close_corridor_us", tr.mean_us("close_corridor")));
        out.push((
            "smartcis.autotune_us",
            mean_us(20, || {
                std::hint::black_box(self.app.autotune().ok());
            }),
        ));
        if let Ok(stats) = self.app.engine.view_stats("Reachable") {
            out.push((
                "stream.recursive.overdeleted",
                stats.tuples_overdeleted as f64,
            ));
            out.push(("stream.recursive.rederived", stats.tuples_rederived as f64));
        }
        if self.probe_count > 0 {
            out.push((
                "stream.sink.rows_per_snapshot",
                self.probe_rows as f64 / self.probe_count as f64,
            ));
        }
        let reader = self.standing[0];
        out.extend(lifecycle_probes(
            &mut self.app.engine,
            &cycle_sql(CYCLE_CONSTANTS - 1),
            reader,
            tr,
        ));
        out
    }

    fn describe(&self) -> Json {
        Json::obj([
            ("labs", Json::Num(LABS as f64)),
            ("desks_per_lab", Json::Num(DESKS as f64)),
            (
                "standing_queries",
                Json::Num(self.app.engine.query_count() as f64),
            ),
            ("shards", Json::Num(self.app.engine.shard_count() as f64)),
        ])
    }
}

impl Workload for BuildingLoop {
    type Sys = BuildingSys;

    fn work(&self) -> &Work {
        &self.work
    }

    fn setup(&self, tr: &mut Tracer) -> Res<BuildingSys> {
        BuildingSys::new(tr)
    }

    fn probes(&self, out_dir: &Path) -> probes::Metrics {
        // The building's own catalog, from an application of its size.
        let catalog = || {
            SmartCis::new(LABS, DESKS, 1)
                .expect("the application builds")
                .catalog
        };
        let mut sqls = dashboard_sqls();
        sqls.extend(
            [
                queries::TEMP_ALARM,
                queries::FREE_MACHINES,
                queries::ROOM_RESOURCES,
            ]
            .map(String::from),
        );
        let filters: Vec<String> = (0..16).map(cycle_sql).collect();
        probes::run(
            &ProbeInput {
                catalog: &catalog,
                source: "TempSensors",
                tuples: &self.sample,
                sqls: &sqls,
                filters: &filters,
                window: WindowSpec::Range(SimDuration::from_secs(10)),
                app: (LABS, DESKS),
            },
            out_dir,
        )
    }
}
