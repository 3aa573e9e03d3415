//! Integration: the full federated path on the paper's §3 example —
//! "return machine temperature data for workstations that are in use.
//! We detect that a workstation is being used by checking for a low
//! light-level at the adjacent chair."
//!
//! The federated optimizer pushes the temperature ⋈ seat-light fragment
//! to the sensor engine; the **actual mote simulator** executes the
//! in-network join; its base-station output feeds the stream engine's
//! residual query (join with the Machines table), end to end.

use std::sync::Arc;

use smartcis::catalog::{Catalog, DeviceClass, NetworkStats, SourceKind, SourceStats};
use smartcis::netsim::RadioModel;
use smartcis::optimizer::optimize;
use smartcis::sensor::config::LIGHT_THRESHOLD;
use smartcis::sensor::{Deployment, JoinStrategy, QuerySpec, SensorEngine};
use smartcis::sql::{bind, parse, BoundQuery};
use smartcis::stream::ShardedEngine;
use smartcis::types::{DataType, Field, Schema, SimDuration, Tuple, Value};

/// Machine temperatures for in-use desks, annotated with the machine's
/// software image.
const QUERY: &str = "\
select t.room, t.desk, t.temp, m.software \
from TempSensors t, SeatSensors ss, Machines m \
where t.room = ss.room ^ t.desk = ss.desk ^ ss.status = 'busy' ^ \
      m.desk = t.desk \
order by t.desk";

fn catalog(desks: u32) -> Arc<Catalog> {
    let cat = Catalog::shared();
    let epoch = SimDuration::from_secs(10);
    let temp = Schema::new(vec![
        Field::new("room", DataType::Text),
        Field::new("desk", DataType::Int),
        Field::new("temp", DataType::Float),
    ])
    .into_ref();
    cat.register_source(
        "TempSensors",
        temp,
        SourceKind::Device(DeviceClass::new(&["temp"], epoch, desks)),
        SourceStats::stream(desks as f64 / 10.0).with_distinct("desk", desks as u64),
    )
    .unwrap();
    let seat = Schema::new(vec![
        Field::new("room", DataType::Text),
        Field::new("desk", DataType::Int),
        Field::new("status", DataType::Text),
    ])
    .into_ref();
    cat.register_source(
        "SeatSensors",
        seat,
        SourceKind::Device(DeviceClass::new(&["status"], epoch, desks)),
        SourceStats::stream(desks as f64 / 10.0).with_distinct("status", 2),
    )
    .unwrap();
    let machines = Schema::new(vec![
        Field::new("desk", DataType::Int),
        Field::new("software", DataType::Text),
    ])
    .into_ref();
    cat.register_source(
        "Machines",
        machines,
        SourceKind::Table,
        SourceStats::table(desks as u64),
    )
    .unwrap();
    cat.set_network_stats(NetworkStats {
        node_count: desks * 2,
        diameter_hops: 4,
        avg_link_loss: 0.0,
        ..Default::default()
    });
    cat
}

#[test]
fn mote_join_feeds_stream_residual_end_to_end() {
    let n_desks = 8u32;
    let cat = catalog(n_desks);
    let BoundQuery::Select(b) = bind(&parse(QUERY).unwrap(), &cat).unwrap() else {
        panic!("SELECT expected")
    };

    // 1. Federated optimization: the device pair must be pushed.
    let plan = optimize(&b.graph, &cat).unwrap();
    let part = plan.sensor.clone().expect("device pair pushed in-network");
    assert_eq!(part.relations.len(), 2);
    let view_sql = plan.view_sql.clone().unwrap();
    assert!(view_sql.contains("TempSensors"), "{view_sql}");
    assert!(view_sql.contains("SeatSensors"), "{view_sql}");

    // 2. Stream engine runs the residual.
    let exec = plan.register(&cat).unwrap();
    let mut engine = ShardedEngine::new(Arc::clone(&cat), 1);
    let q = engine.register_plan(&exec).unwrap();
    let machines: Vec<Tuple> = (1..=n_desks as i64)
        .map(|d| {
            Tuple::row(vec![
                Value::Int(d),
                Value::Text(if d % 2 == 0 { "Fedora" } else { "Windows" }.into()),
            ])
        })
        .collect();
    engine.on_batch("Machines", &machines).unwrap();

    // 3. The actual mote network executes the pushed fragment: every
    //    seat occupied (σ = 1) so every desk joins every epoch.
    let mut deployment = Deployment::lab_wing(2, n_desks as usize, 80.0);
    for desk in deployment.desk_ids() {
        deployment.set_desk_model(desk, 1.0, 1, 1);
    }
    let sensor = SensorEngine::new(deployment, RadioModel::lossless(), 5);
    let desks = sensor.deployment.desk_ids();
    let run = sensor
        .run(
            QuerySpec::uniform_join(LIGHT_THRESHOLD, JoinStrategy::AtTemp, &desks),
            3,
        )
        .unwrap();
    assert!(run.stats.msgs_sent > 0, "the mote network must transmit");
    assert!(!run.tuples.is_empty(), "occupied desks must produce joins");

    // 4. Base-station output → the view's schema. The sensor tuples are
    //    (room, desk, temp, light); the view exports the columns listed
    //    in `part.view_columns` — project accordingly.
    let view_meta = cat.source(&part.view_name).unwrap();
    let project: Vec<usize> = view_meta
        .schema
        .fields()
        .iter()
        .map(|f| match f.name.as_str() {
            "room" => 0,
            "desk" => 1,
            "temp" => 2,
            other => panic!("unexpected view column {other}"),
        })
        .collect();
    let view_rows: Vec<Tuple> = run.tuples.iter().map(|t| t.project(&project)).collect();
    engine.on_batch(&part.view_name, &view_rows).unwrap();

    // 5. The residual join annotates each hot desk with its software.
    let rows = engine.snapshot(q).unwrap();
    assert!(!rows.is_empty(), "end-to-end rows expected");
    for r in &rows {
        let desk = r.get(1).as_int().unwrap();
        let sw = r.get(3).as_text().unwrap();
        assert_eq!(
            sw,
            if desk % 2 == 0 { "Fedora" } else { "Windows" },
            "machine annotation wrong for desk {desk}"
        );
        let temp = r.get(2).as_f64().unwrap();
        assert!((60.0..=90.0).contains(&temp), "temp out of range: {temp}");
    }
    // Sorted by desk (ORDER BY).
    let desks_out: Vec<i64> = rows.iter().map(|r| r.get(1).as_int().unwrap()).collect();
    let mut sorted = desks_out.clone();
    sorted.sort_unstable();
    assert_eq!(desks_out, sorted);
}

#[test]
fn optimizer_against_real_network_stats() {
    // Publish stats measured from an actual deployment, then check the
    // optimizer's sensor estimate is the right order of magnitude
    // relative to the measured in-network join traffic.
    let cat = catalog(16);
    let deployment = Deployment::lab_wing(3, 16, 80.0);
    let sensor = SensorEngine::new(deployment, RadioModel::lossless(), 9);
    cat.set_network_stats(sensor.network_stats());

    let BoundQuery::Select(b) = bind(&parse(QUERY).unwrap(), &cat).unwrap() else {
        panic!()
    };
    let plan = optimize(&b.graph, &cat).unwrap();
    let est = plan.sensor_cost_msgs;

    let desks = sensor.deployment.desk_ids();
    let epochs = 10u32;
    let run = sensor
        .run(
            QuerySpec::uniform_join(LIGHT_THRESHOLD, JoinStrategy::AtTemp, &desks),
            epochs,
        )
        .unwrap();
    let measured_per_epoch = run.stats.msgs_sent as f64 / epochs as f64;
    // Estimates are planning-quality, not oracle-quality: within 8x.
    let ratio = measured_per_epoch / est.max(1e-9);
    assert!(
        (0.125..=8.0).contains(&ratio),
        "estimate {est:.1} vs measured {measured_per_epoch:.1} (ratio {ratio:.2})"
    );
}
