//! The SmartCIS application facade.
//!
//! [`SmartCis`] wires the whole paper stack together: the building model
//! and its database tables, the wrappers (PDU, machine soft sensors, Web
//! feeds), the device streams (area / seat / temperature sensors), the
//! stream engine with its recursive reachability view, the federated
//! optimizer, and the GUI state. Time advances in 10-second ticks —
//! one wrapper poll / device epoch per tick, as in §2.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::Arc;

use aspen_catalog::{Catalog, DeviceClass, NetworkStats, SourceKind, SourceStats};
use aspen_optimizer::{optimize_named, FederatedPlan};
use aspen_sql::{bind, parse, BoundQuery};
use aspen_stream::delta::{Delta, DeltaBatch};
use aspen_stream::{
    EngineConfig, QueryHandle, QuerySpec, Registration, ResultSubscription, SessionId,
    ShardedEngine,
};
use aspen_types::rng::{chance, seeded};
use aspen_types::{
    AspenError, DataType, Field, Point, Result, Schema, SimDuration, SimTime, SourceId, Tuple,
    Value,
};
use aspen_wrappers::{
    MachineFleet, MachineStateWrapper, PduWrapper, StaticTableLoader, WebSourceWrapper, Wrapper,
};
use rand::rngs::StdRng;
use rand::Rng;

use crate::building::Building;
use crate::gui::GuiState;
use crate::localize::Localizer;
use crate::queries;
use crate::routes::{RoutePlanner, REACHABLE_VIEW_SQL};

/// Ground-truth occupancy / lab-status simulator feeding the device
/// streams (the "logical mapping" of the paper's demo setup).
struct OccupancySim {
    rng: StdRng,
    /// Desk → currently occupied? (BTreeMap: iteration order feeds the
    /// RNG, so it must be deterministic.)
    occupied: BTreeMap<u32, bool>,
    /// Lab → open?
    lab_open: BTreeMap<String, bool>,
    tick: u64,
}

impl OccupancySim {
    fn new(building: &Building, seed: u64) -> Self {
        let occupied = building.desks.iter().map(|d| (d.desk, false)).collect();
        let lab_open = building
            .rooms
            .iter()
            .filter(|r| r.is_lab)
            .map(|r| (r.name.clone(), true))
            .collect();
        OccupancySim {
            rng: seeded(seed),
            occupied,
            lab_open,
            tick: 0,
        }
    }

    fn step(&mut self, building: &Building) {
        self.tick += 1;
        // Labs close on a slow rotating schedule (one lab at a time).
        let labs: Vec<String> = building
            .rooms
            .iter()
            .filter(|r| r.is_lab)
            .map(|r| r.name.clone())
            .collect();
        for (i, lab) in labs.iter().enumerate() {
            let closed = (self.tick / 30) as usize % (labs.len() + 1) == i;
            self.lab_open.insert(lab.clone(), !closed);
        }
        // Seats flip with some stickiness.
        for v in self.occupied.values_mut() {
            let p = if *v { 0.15 } else { 0.10 };
            if chance(&mut self.rng, p) {
                *v = !*v;
            }
        }
    }
}

/// The assembled SmartCIS system.
pub struct SmartCis {
    pub catalog: Arc<Catalog>,
    pub engine: ShardedEngine,
    pub building: Building,
    pub planner: RoutePlanner,
    pub localizer: Localizer,
    fleet: Rc<RefCell<MachineFleet>>,
    pdu: PduWrapper,
    machine_state: MachineStateWrapper,
    web: WebSourceWrapper,
    sim: OccupancySim,
    pub now: SimTime,
    pub epoch: SimDuration,
    rng: StdRng,
    /// Current visitor row in the Person table, if any.
    visitor_row: Option<Tuple>,
    /// Last computed guidance route waypoints (for the GUI).
    pub last_route: Vec<String>,
    /// Visitor's believed position (for the GUI).
    pub visitor_pos: Option<Point>,
    /// Cached handle for the registered guidance query.
    guidance_query: Option<(FederatedPlan, QueryHandle)>,
    /// Current Route-table rows (diffed on corridor changes).
    route_rows: Vec<Tuple>,
    /// Per-source ingest-counter marks from the previous autotune pass,
    /// so published observed rates are windowed, not lifetime averages.
    rate_marks: BTreeMap<SourceId, (u64, SimTime)>,
}

impl SmartCis {
    /// Build the full system: `labs` labs with `desks_per_lab` desks.
    /// The stream engine runs unsharded (shard count 1); use
    /// [`SmartCis::with_config`] to spread the standing-query set across
    /// worker shards.
    pub fn new(labs: usize, desks_per_lab: usize, seed: u64) -> Result<SmartCis> {
        SmartCis::with_config(labs, desks_per_lab, seed, EngineConfig::new())
    }

    /// Build the full system with the stream engine constructed from
    /// `config` (shard count, fan-out mode — fixed for the engine's
    /// lifetime).
    pub fn with_config(
        labs: usize,
        desks_per_lab: usize,
        seed: u64,
        config: EngineConfig,
    ) -> Result<SmartCis> {
        let building = Building::moore_wing(labs, desks_per_lab, 100.0);
        let planner = RoutePlanner::new(&building);
        let catalog = Catalog::shared();
        let epoch = SimDuration::from_secs(10);

        // --- database tables (§2 "Databases and Web sources") ---
        let route_batch =
            StaticTableLoader::register(&catalog, "Route", &planner.route_table_text(&building))?;
        let points_batch =
            StaticTableLoader::register(&catalog, "RoutePoints", &building.routing_table_text())?;
        let machines_batch =
            StaticTableLoader::register(&catalog, "Machines", &building.machines_table_text())?;
        let detectors_batch =
            StaticTableLoader::register(&catalog, "Detectors", &building.detectors_table_text())?;
        // Person table, initially empty.
        let person_schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("room", DataType::Text),
            Field::new("needed", DataType::Text),
        ])
        .into_ref();
        catalog.register_source(
            "Person",
            person_schema,
            SourceKind::Table,
            SourceStats::table(1),
        )?;

        // --- device streams (sensor-network resident) ---
        let n_desks = building.desks.len() as u32;
        let n_labs = labs as u32;
        let area_schema = Schema::new(vec![
            Field::new("room", DataType::Text),
            Field::new("status", DataType::Text),
            Field::new("light", DataType::Float),
        ])
        .into_ref();
        catalog.register_source(
            "AreaSensors",
            area_schema,
            SourceKind::Device(DeviceClass::new(&["light", "status"], epoch, n_labs)),
            SourceStats::stream(n_labs as f64 / epoch.as_secs_f64())
                .with_distinct("room", n_labs as u64)
                .with_distinct("status", 2),
        )?;
        let seat_schema = Schema::new(vec![
            Field::new("room", DataType::Text),
            Field::new("desk", DataType::Int),
            Field::new("status", DataType::Text),
            Field::new("light", DataType::Float),
        ])
        .into_ref();
        catalog.register_source(
            "SeatSensors",
            seat_schema,
            SourceKind::Device(DeviceClass::new(&["light", "status"], epoch, n_desks)),
            SourceStats::stream(n_desks as f64 / epoch.as_secs_f64())
                .with_distinct("desk", n_desks as u64)
                .with_distinct("status", 2),
        )?;
        let temp_schema = Schema::new(vec![
            Field::new("room", DataType::Text),
            Field::new("desk", DataType::Int),
            Field::new("temp", DataType::Float),
        ])
        .into_ref();
        catalog.register_source(
            "TempSensors",
            temp_schema,
            SourceKind::Device(DeviceClass::new(&["temp"], epoch, n_desks)),
            SourceStats::stream(n_desks as f64 / epoch.as_secs_f64())
                .with_distinct("desk", n_desks as u64),
        )?;
        // Sightings stream (RFID detections).
        let sight_schema = Schema::new(vec![
            Field::new("person", DataType::Int),
            Field::new("detector", DataType::Text),
            Field::new("rssi", DataType::Float),
        ])
        .into_ref();
        catalog.register_source(
            "Sightings",
            sight_schema,
            SourceKind::Stream,
            SourceStats::stream(1.0),
        )?;

        // Network statistics for the federated optimizer.
        catalog.set_network_stats(NetworkStats {
            node_count: n_labs + 2 * n_desks,
            diameter_hops: ((building.hallway_len / 100.0).ceil() as u32 + 2).max(2),
            avg_link_loss: 0.05,
            ..Default::default()
        });

        // --- wrappers over the machine fleet ---
        let rooms: Vec<String> = building
            .rooms
            .iter()
            .filter(|r| r.is_lab)
            .map(|r| r.name.clone())
            .collect();
        let room_refs: Vec<&str> = rooms.iter().map(String::as_str).collect();
        let fleet = Rc::new(RefCell::new(MachineFleet::new(
            building.desks.len(),
            &room_refs,
            seed,
        )));
        let pdu = PduWrapper::register(&catalog, Rc::clone(&fleet), epoch)?;
        let machine_state = MachineStateWrapper::register(&catalog, Rc::clone(&fleet), epoch)?;
        let web = WebSourceWrapper::register(&catalog, SimDuration::from_secs(60), seed ^ 1)?;

        // --- engines ---
        let mut engine = ShardedEngine::with_config(Arc::clone(&catalog), config);
        engine.on_batch("Route", &route_batch.tuples)?;
        engine.on_batch("RoutePoints", &points_batch.tuples)?;
        engine.on_batch("Machines", &machines_batch.tuples)?;
        engine.on_batch("Detectors", &detectors_batch.tuples)?;
        // Recursive reachability view over the routing points.
        engine.register_sql(REACHABLE_VIEW_SQL)?;

        let localizer = Localizer::new(&building, aspen_netsim::RadioModel::default(), seed ^ 2);
        let sim = OccupancySim::new(&building, seed ^ 3);

        Ok(SmartCis {
            catalog,
            engine,
            building,
            planner,
            localizer,
            fleet,
            pdu,
            machine_state,
            web,
            sim,
            now: SimTime::ZERO,
            epoch,
            rng: seeded(seed ^ 4),
            visitor_row: None,
            last_route: vec![],
            visitor_pos: None,
            guidance_query: None,
            route_rows: route_batch.tuples,
            rate_marks: BTreeMap::new(),
        })
    }

    /// Register any standing query (SQL) with the stream engine.
    pub fn register_query(&mut self, sql: &str) -> Result<Registration> {
        self.engine.register_sql(sql)
    }

    /// Register a full [`QuerySpec`] (delivery mode, micro-batch knobs).
    pub fn register(&mut self, spec: QuerySpec) -> Result<Registration> {
        self.engine.register(spec)
    }

    /// Open a client session on the stream engine; closing it retires
    /// every query the client registered through it.
    pub fn open_session(&mut self) -> SessionId {
        self.engine.open_session()
    }

    /// Register a spec inside a client session.
    pub fn register_in(&mut self, session: SessionId, spec: QuerySpec) -> Result<Registration> {
        self.engine.register_in(session, spec)
    }

    /// Retire every query still registered in `session`.
    pub fn close_session(&mut self, session: SessionId) -> Result<usize> {
        self.engine.close_session(session)
    }

    /// Attach (or re-fetch) the push subscription of a standing query.
    pub fn subscribe(&mut self, q: QueryHandle) -> Result<ResultSubscription> {
        self.engine.subscribe(q)
    }

    /// Retire a standing query.
    pub fn deregister(&mut self, q: QueryHandle) -> Result<()> {
        self.engine.deregister(q)
    }

    /// Advance one epoch: poll wrappers, emit device readings, expire
    /// windows.
    pub fn tick(&mut self) -> Result<()> {
        self.now += self.epoch;
        let now = self.now;

        for batch in self.pdu.poll(now)? {
            self.engine.on_batch(PduWrapper::SOURCE, &batch.tuples)?;
        }
        for batch in self.machine_state.poll(now)? {
            self.engine
                .on_batch(MachineStateWrapper::SOURCE, &batch.tuples)?;
        }
        for batch in self.web.poll(now)? {
            self.engine
                .on_batch(WebSourceWrapper::SOURCE, &batch.tuples)?;
        }

        // Device streams from the ground-truth simulator.
        self.sim.step(&self.building);
        let mut area = Vec::new();
        for room in self.building.rooms.iter().filter(|r| r.is_lab) {
            let open = self.sim.lab_open[&room.name];
            area.push(Tuple::new(
                vec![
                    Value::Text(room.name.clone()),
                    Value::Text(if open { "open" } else { "closed" }.into()),
                    Value::Float(if open { 500.0 } else { 10.0 }),
                ],
                now,
            ));
        }
        self.engine.on_batch("AreaSensors", &area)?;

        let mut seats = Vec::new();
        let mut temps = Vec::new();
        for (i, d) in self.building.desks.iter().enumerate() {
            let occupied = self.sim.occupied[&d.desk];
            seats.push(Tuple::new(
                vec![
                    Value::Text(d.room.clone()),
                    Value::Int(d.desk as i64),
                    Value::Text(if occupied { "busy" } else { "free" }.into()),
                    Value::Float(if occupied { 40.0 } else { 600.0 }),
                ],
                now,
            ));
            // Machine temperature tracks its CPU load.
            let cpu = self.fleet.borrow().state(i).cpu_pct;
            let temp = 68.0 + cpu * 0.25 + (self.rng.gen::<f64>() - 0.5) * 2.0;
            temps.push(Tuple::new(
                vec![
                    Value::Text(d.room.clone()),
                    Value::Int(d.desk as i64),
                    Value::Float(temp),
                ],
                now,
            ));
        }
        self.engine.on_batch("SeatSensors", &seats)?;
        self.engine.on_batch("TempSensors", &temps)?;

        self.engine.heartbeat(now)?;
        // Once a simulated minute, fold the engine's own telemetry back
        // into the planning layer: observed source rates into the
        // catalog, measured output rates into the micro-batch knobs.
        if (now.as_micros() / self.epoch.as_micros()).is_multiple_of(6) {
            self.autotune()?;
        }
        Ok(())
    }

    /// Close the telemetry → optimizer loop.
    ///
    /// Publishes the engine's measured per-source ingest rates into the
    /// catalog (so the federated optimizer's cardinality estimates track
    /// observed reality instead of registration-time guesses), then lets
    /// the calibrated cost model pick `max_batch` / `max_delay` for
    /// every query registered with [`QuerySpec::auto_knobs`], using one
    /// epoch as the latency budget — interactive displays tolerate about
    /// one refresh of staleness. Returns how many queries were retuned.
    /// Runs automatically every sixth [`SmartCis::tick`].
    ///
    /// Rates are *windowed*: each call measures tuples since the
    /// previous call, so a workload shift converges within one autotune
    /// interval instead of being diluted by the lifetime average.
    pub fn autotune(&mut self) -> Result<usize> {
        let now = self.now;
        if now <= SimTime::ZERO {
            return Ok(0);
        }
        for name in self.catalog.source_names() {
            let meta = self.catalog.source(&name)?;
            if !meta.kind.is_stream_like() {
                continue;
            }
            let seen = self.engine.source_tuples_in(meta.id);
            let (mark_seen, mark_time) = self
                .rate_marks
                .get(&meta.id)
                .copied()
                .unwrap_or((0, SimTime::ZERO));
            let dt = now.since(mark_time).as_secs_f64();
            if dt <= 0.0 {
                continue;
            }
            self.rate_marks.insert(meta.id, (seen, now));
            let window = seen.saturating_sub(mark_seen);
            if window == 0 && mark_seen == 0 {
                // Never seen traffic: leave the declared rate in charge.
                continue;
            }
            // Exponentially smoothed: a bursty source's rate decays
            // geometrically across idle windows instead of snapping to
            // a hard zero (which would collapse its window-cardinality
            // estimates right before the next burst).
            let measured = window as f64 / dt;
            let rate = match meta.stats.observed_rate_hz {
                Some(prev) => 0.5 * measured + 0.5 * prev,
                None => measured,
            };
            self.catalog.record_observed_rate(meta.id, rate)?;
        }
        let budget = self.epoch.as_secs_f64();
        self.engine.auto_tune(|out_rate, boundary_hz| {
            let (max_batch, max_delay) =
                aspen_optimizer::choose_knobs(out_rate, boundary_hz, budget);
            (
                max_batch,
                max_delay.map(|s| SimDuration::from_micros((s * 1e6) as u64)),
            )
        })
    }

    /// Place (or move) the visitor: updates the Person table and the
    /// believed position.
    pub fn set_visitor(&mut self, id: i64, at_point: &str, needed: &str) -> Result<()> {
        let p = self
            .building
            .point(at_point)
            .ok_or_else(|| AspenError::Unresolved(format!("unknown point '{at_point}'")))?;
        self.visitor_pos = Some(p.pos);
        let new_row = Tuple::new(
            vec![
                Value::Int(id),
                Value::Text(p.name.clone()),
                Value::Text(format!("%{needed}%")),
            ],
            self.now,
        );
        let mut deltas = DeltaBatch::new();
        if let Some(old) = self.visitor_row.take() {
            deltas.push(Delta::retract(old));
        }
        deltas.push(Delta::insert(new_row.clone()));
        self.visitor_row = Some(new_row);
        self.engine.on_deltas("Person", &deltas)
    }

    /// Run the Figure-1 federated guidance query: optimize, partition,
    /// execute both halves, and return the result rows.
    pub fn visitor_guidance(&mut self) -> Result<(String, Vec<Tuple>)> {
        if self.visitor_row.is_none() {
            return Err(AspenError::InvalidArgument(
                "no visitor registered; call set_visitor first".into(),
            ));
        }
        if self.guidance_query.is_none() {
            let BoundQuery::Select(b) = bind(&parse(queries::VISITOR_GUIDANCE)?, &self.catalog)?
            else {
                unreachable!("guidance is a SELECT")
            };
            let plan = optimize_named(&b.graph, &self.catalog, "OpenMachineInfo")?;
            let exec = plan.register(&self.catalog)?;
            let handle = self.engine.register_plan(&exec)?;
            self.guidance_query = Some((plan, handle));
        }
        let (plan, handle) = self.guidance_query.as_ref().expect("just set");
        let explain = plan.explain();

        // Sensor half: the in-network join's output for the current
        // epoch (open labs ⋈ free seats). In the full benches this comes
        // from the mote simulator; the interactive app uses the logical
        // mapping, exactly like the paper's conference demo.
        if plan.sensor.is_some() {
            let mut rows = Vec::new();
            for room in self.building.rooms.iter().filter(|r| r.is_lab) {
                if !self.sim.lab_open[&room.name] {
                    continue;
                }
                for d in self.building.desks.iter().filter(|d| d.room == room.name) {
                    if !self.sim.occupied[&d.desk] {
                        rows.push(Tuple::new(
                            vec![Value::Text(room.name.clone()), Value::Int(d.desk as i64)],
                            self.now,
                        ));
                    }
                }
            }
            self.engine.on_batch("OpenMachineInfo", &rows)?;
        }

        let rows = self.engine.snapshot(*handle)?;
        // Remember the best route for the GUI.
        if let Some(first) = rows.first() {
            let path = first.get(3).as_text()?;
            self.last_route = path.split(" -> ").map(str::to_string).collect();
        } else {
            self.last_route.clear();
        }
        Ok((explain, rows))
    }

    /// Close a corridor segment: updates the planner, the `RoutePoints`
    /// table (driving the recursive Reachable view), and diffs the
    /// precomputed `Route` table.
    pub fn close_corridor(&mut self, a: &str, b: &str) -> Result<bool> {
        if !self.planner.close_segment(a, b) {
            return Ok(false);
        }
        // Retract both directed RoutePoints rows.
        let mut deltas = DeltaBatch::new();
        let dist = self
            .building
            .segments
            .iter()
            .find(|s| {
                (s.a.eq_ignore_ascii_case(a) && s.b.eq_ignore_ascii_case(b))
                    || (s.a.eq_ignore_ascii_case(b) && s.b.eq_ignore_ascii_case(a))
            })
            .map(|s| s.dist_ft)
            .unwrap_or(0.0);
        for (x, y) in [(a, b), (b, a)] {
            deltas.push(Delta::retract(Tuple::row(vec![
                Value::Text(x.to_string()),
                Value::Text(y.to_string()),
                Value::Float(dist),
            ])));
        }
        self.engine.on_deltas("RoutePoints", &deltas)?;

        // Diff the Route table against the replanned shortest paths.
        let new_rows: Vec<Tuple> = self
            .planner
            .room_routes(&self.building)
            .into_iter()
            .map(|r| {
                Tuple::row(vec![
                    Value::Text(r.start),
                    Value::Text(r.end),
                    Value::Text(r.path),
                    Value::Float((r.dist_ft * 10.0).round() / 10.0),
                ])
            })
            .collect();
        let mut diff = DeltaBatch::new();
        for old in &self.route_rows {
            if !new_rows.contains(old) {
                diff.push(Delta::retract(old.clone()));
            }
        }
        for new in &new_rows {
            if !self.route_rows.contains(new) {
                diff.push(Delta::insert(new.clone()));
            }
        }
        self.route_rows = new_rows;
        self.engine.on_deltas("Route", &diff)?;
        Ok(true)
    }

    /// Current GUI state (Figure 2's ingredients).
    pub fn gui_state(&self) -> GuiState {
        let mut s = GuiState {
            lab_open: self
                .sim
                .lab_open
                .iter()
                .map(|(k, v)| (k.clone(), *v))
                .collect(),
            visitor: self.visitor_pos,
            route: self.last_route.clone(),
            ..Default::default()
        };
        for d in &self.building.desks {
            s.desk_free.insert(d.desk, !self.sim.occupied[&d.desk]);
        }
        // The service view: how many standing queries the engine is
        // currently maintaining for its clients, and how the load is
        // spread across worker shards (the telemetry the rebalancer
        // watches).
        s.details
            .push(format!("standing queries: {}", self.engine.query_count()));
        // Cumulative totals, labeled as such — a windowed balance figure
        // would need two reports to diff (that is the rebalancer's job).
        let report = self.engine.telemetry();
        for shard in &report.shards {
            s.details.push(format!(
                "shard {}: {} queries, {} tuples in, {} ops, wm {} (lag {}), queue p99 {} us",
                shard.shard,
                shard.queries,
                shard.tuples_in,
                shard.ops_invoked,
                shard.watermark,
                shard.lag,
                shard.queue_wait.p99_us()
            ));
        }
        // The trace plane's end-to-end view: ingest→sink-apply latency
        // percentiles merged over every query, and the measured
        // operator rate the cost model calibrates against.
        let latency = report.ingest_latency();
        if !latency.is_empty() {
            s.details.push(format!(
                "latency p50/p99/max: {}/{}/{} us over {} batches",
                latency.p50_us(),
                latency.p99_us(),
                latency.max_us(),
                latency.count()
            ));
        }
        if let Some(rate) = report.ops_per_sec_observed() {
            s.details.push(format!("measured op rate: {rate:.0} ops/s"));
        }
        s
    }

    /// Ground-truth accessors used by tests and experiments.
    pub fn lab_is_open(&self, lab: &str) -> bool {
        self.sim.lab_open.get(lab).copied().unwrap_or(false)
    }

    pub fn desk_is_occupied(&self, desk: u32) -> bool {
        self.sim.occupied.get(&desk).copied().unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn app() -> SmartCis {
        SmartCis::new(3, 6, 1234).unwrap()
    }

    #[test]
    fn construction_registers_everything() {
        let a = app();
        for src in [
            "Route",
            "RoutePoints",
            "Machines",
            "Detectors",
            "Person",
            "AreaSensors",
            "SeatSensors",
            "TempSensors",
            "PduPower",
            "MachineState",
            "WebFeeds",
            "Reachable",
        ] {
            assert!(a.catalog.source(src).is_ok(), "missing {src}");
        }
        // Reachability view materialized over the initial graph.
        assert!(!a.engine.view_snapshot("Reachable").unwrap().is_empty());
    }

    #[test]
    fn ticks_feed_standing_queries() {
        let mut a = app();
        let q = a
            .register_query("select t.room, t.desk, t.temp from TempSensors t where t.temp > 60")
            .unwrap()
            .expect_query();
        for _ in 0..3 {
            a.tick().unwrap();
        }
        // Temps around 68-95: everything passes the >60 filter.
        let rows = a.engine.snapshot(q).unwrap();
        assert_eq!(rows.len(), 18, "one per desk in the current epoch");
    }

    #[test]
    fn visitor_guidance_end_to_end() {
        let mut a = app();
        for _ in 0..2 {
            a.tick().unwrap();
        }
        a.set_visitor(1, "entrance", "Fedora").unwrap();
        let (explain, rows) = a.visitor_guidance().unwrap();
        // The optimizer pushed the device pair.
        assert!(explain.contains("SENSOR ENGINE"), "{explain}");
        // Guidance rows: (id, room, desk, path) to free Fedora machines
        // in open labs. With 18 desks and stochastic occupancy there is
        // essentially always at least one.
        assert!(!rows.is_empty(), "no guidance rows\n{explain}");
        let first = &rows[0];
        assert_eq!(first.get(0), &Value::Int(1));
        let path = first.get(3).as_text().unwrap();
        assert!(path.starts_with("entrance ->"), "path={path}");
        assert!(!a.last_route.is_empty());
    }

    #[test]
    fn guidance_requires_visitor() {
        let mut a = app();
        a.tick().unwrap();
        assert!(a.visitor_guidance().is_err());
    }

    #[test]
    fn corridor_closure_updates_reachability_and_routes() {
        let mut a = app();
        a.tick().unwrap();
        let before = a.engine.view_snapshot("Reachable").unwrap().len();
        assert!(a.close_corridor("hall2", "hall3").unwrap());
        let after = a.engine.view_snapshot("Reachable").unwrap().len();
        assert!(
            after < before,
            "reachability must shrink: {before} -> {after}"
        );
        // Closing again is a no-op.
        assert!(!a.close_corridor("hall2", "hall3").unwrap());
        // Route to lab3 should now fail in the planner.
        assert!(a.planner.route("entrance", "door_lab3").is_err());
    }

    #[test]
    fn gui_state_reflects_simulation() {
        let mut a = app();
        // A standing query gives the trace plane something to measure.
        a.register_query("select t.room, t.desk, t.temp from TempSensors t where t.temp > 60")
            .unwrap()
            .expect_query();
        for _ in 0..2 {
            a.tick().unwrap();
        }
        a.set_visitor(1, "hall1", "Fedora").unwrap();
        let s = a.gui_state();
        assert_eq!(s.lab_open.len(), 3);
        assert_eq!(s.desk_free.len(), 18);
        assert!(s.visitor.is_some());
        // The details panel shows the engine's per-shard load meters,
        // including each shard's applied watermark...
        assert!(
            s.details
                .iter()
                .any(|l| l.starts_with("shard 0:") && l.contains("wm ")),
            "{:?}",
            s.details
        );
        // ...and the trace plane's end-to-end latency percentiles
        // (tracing defaults on).
        assert!(
            s.details.iter().any(|l| l.starts_with("latency p50/p99/")),
            "{:?}",
            s.details
        );
        let text = crate::gui::render(&a.building, &s);
        assert!(text.contains('@'));
    }

    #[test]
    fn sharded_app_matches_unsharded() {
        // The whole demo stack on a 3-shard engine: every standing query
        // and the guidance pipeline must behave exactly as at shard
        // count 1.
        let mut flat = SmartCis::new(3, 6, 77).unwrap();
        let mut sharded = SmartCis::with_config(3, 6, 77, EngineConfig::new().shards(3)).unwrap();
        assert_eq!(sharded.engine.shard_count(), 3);
        let sql = "select t.room, t.desk from TempSensors t where t.temp > 60";
        let qf = flat.register_query(sql).unwrap().expect_query();
        let qs = sharded.register_query(sql).unwrap().expect_query();
        for _ in 0..3 {
            flat.tick().unwrap();
            sharded.tick().unwrap();
        }
        let vals = |rows: Vec<Tuple>| -> Vec<Vec<Value>> {
            rows.into_iter().map(|t| t.values().to_vec()).collect()
        };
        assert_eq!(
            vals(flat.engine.snapshot(qf).unwrap()),
            vals(sharded.engine.snapshot(qs).unwrap())
        );
        flat.set_visitor(1, "entrance", "Fedora").unwrap();
        sharded.set_visitor(1, "entrance", "Fedora").unwrap();
        let (_, rf) = flat.visitor_guidance().unwrap();
        let (_, rs) = sharded.visitor_guidance().unwrap();
        assert_eq!(vals(rf), vals(rs));
        assert_eq!(
            flat.engine.view_snapshot("Reachable").unwrap().len(),
            sharded.engine.view_snapshot("Reachable").unwrap().len()
        );
    }

    #[test]
    fn autotune_publishes_rates_and_retunes_auto_queries() {
        let mut a = app();
        let q = a
            .register(
                QuerySpec::sql("select t.desk from TempSensors t")
                    .push()
                    .auto_knobs(),
            )
            .unwrap()
            .expect_query();
        let sub = a.subscribe(q).unwrap();
        for _ in 0..7 {
            a.tick().unwrap();
        }
        // The 6th tick ran autotune: measured source rates reached the
        // catalog and now drive cardinality estimation.
        let temps = a.catalog.source("TempSensors").unwrap();
        let observed = temps.stats.observed_rate_hz.expect("rate published");
        assert!(observed > 0.0);
        assert_eq!(temps.stats.effective_rate_hz(), Some(observed));
        // The auto query is optimizer-owned: a manual pass retunes it
        // from the last measurement window (one tick of new data).
        assert_eq!(a.autotune().unwrap(), 1);
        // Deliveries kept flowing throughout.
        assert!(sub.batches_delivered() > 0);
    }

    #[test]
    fn moving_visitor_replaces_person_row() {
        let mut a = app();
        a.tick().unwrap();
        a.set_visitor(1, "entrance", "Fedora").unwrap();
        a.set_visitor(1, "hall2", "MATLAB").unwrap();
        let q = a
            .register_query("select p.room from Person p")
            .unwrap()
            .expect_query();
        let rows = a.engine.snapshot(q).unwrap();
        assert_eq!(rows.len(), 1, "old visitor row must be retracted");
        assert_eq!(rows[0].get(0), &Value::Text("hall2".into()));
    }
}
