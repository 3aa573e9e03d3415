//! Quickstart: register sources, run Stream SQL, read results.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use smartcis::catalog::{Catalog, DeviceClass, SourceKind, SourceStats};
use smartcis::stream::ShardedEngine;
use smartcis::types::{DataType, Field, Schema, SimDuration, SimTime, Tuple, Value};

fn main() -> smartcis::types::Result<()> {
    // 1. A catalog with one device stream (temperature motes) and one
    //    static table (machines).
    let catalog = Catalog::shared();
    let temp_schema = Schema::new(vec![
        Field::new("desk", DataType::Int),
        Field::new("temp", DataType::Float),
    ])
    .into_ref();
    catalog.register_source(
        "TempSensors",
        temp_schema,
        SourceKind::Device(DeviceClass::new(&["temp"], SimDuration::from_secs(10), 3)),
        SourceStats::stream(0.3),
    )?;
    let machine_schema = Schema::new(vec![
        Field::new("desk", DataType::Int),
        Field::new("owner", DataType::Text),
    ])
    .into_ref();
    catalog.register_source(
        "Machines",
        machine_schema,
        SourceKind::Table,
        SourceStats::table(3),
    )?;

    // 2. A stream engine and a continuous query: who owns the machines
    //    that are running hot right now?
    let mut engine = ShardedEngine::new(catalog, 1);
    engine.on_batch(
        "Machines",
        &[
            Tuple::row(vec![Value::Int(1), Value::Text("ada".into())]),
            Tuple::row(vec![Value::Int(2), Value::Text("grace".into())]),
            Tuple::row(vec![Value::Int(3), Value::Text("edsger".into())]),
        ],
    )?;
    let query = engine
        .register_sql(
            "select m.owner, t.temp from TempSensors t, Machines m \
             where t.desk = m.desk ^ t.temp > 90 order by t.temp desc",
        )?
        .expect_query();

    // 3. Feed sensor readings and watch the result evolve.
    let reading = |desk: i64, temp: f64, sec: u64| {
        Tuple::new(
            vec![Value::Int(desk), Value::Float(temp)],
            SimTime::from_secs(sec),
        )
    };
    engine.on_batch(
        "TempSensors",
        &[
            reading(1, 97.5, 1),
            reading(2, 72.0, 1),
            reading(3, 93.0, 1),
        ],
    )?;
    println!("t = 1s — machines running hot:");
    for row in engine.snapshot(query)? {
        println!("  {}", row.render());
    }

    // 4. Windows expire: ten seconds later the readings age out.
    engine.heartbeat(SimTime::from_secs(12))?;
    println!(
        "t = 12s — after window expiry: {} rows",
        engine.snapshot(query)?.len()
    );
    Ok(())
}
