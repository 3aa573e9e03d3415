//! Plan goldens: the paper tables that print the federated optimizer's
//! decisions (`harness f1 e5`) render byte for byte as committed in
//! `golden/f1_e5.txt`, and every SmartCIS query keeps its join order,
//! pushed fragment and candidate costs (as f64 bits). A change to the
//! optimizer or its cost model that moves a plan fails here, not silently.

use aspen_optimizer::optimize_named;
use aspen_sql::{bind, parse, BoundQuery};
use smartcis_app::{queries, SmartCis};

#[test]
fn f1_and_e5_render_as_committed() {
    // `harness f1 e5` prints each report followed by a newline.
    let rendered = format!("{}\n{}\n", aspen_bench::f1(), aspen_bench::e5());
    let golden = include_str!("golden/f1_e5.txt");
    if rendered != golden {
        let line = rendered
            .lines()
            .zip(golden.lines())
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rendered.lines().count().min(golden.lines().count()));
        panic!(
            "harness f1 e5 differs from golden/f1_e5.txt from line {}:\n{rendered}",
            line + 1
        );
    }
}

/// A `CandidateSummary`: `(fragment, admitted, sensor_msgs,
/// stream_latency_sec, total_units, chosen)`, the costs as f64 bits.
type Candidate = (&'static [&'static str], bool, u64, u64, u64, bool);

/// One query's optimized plan; `stream_cost` is `[cpu_ops, lan_bytes,
/// latency_sec, out_card]` as f64 bits.
struct Pin {
    sql: &'static str,
    stream_order: &'static [usize],
    fragment: Option<&'static [usize]>,
    candidates: &'static [Candidate],
    stream_cost: [u64; 4],
    total_units: u64,
}

const PINS: &[Pin] = &[
    Pin {
        sql: queries::VISITOR_GUIDANCE,
        stream_order: &[0, 3, 2, 1],
        fragment: Some(&[2, 3]),
        candidates: &[
            (
                &[],
                true,
                0x4051c35e50d79435,
                0x3f3eb1197294d3cd,
                0x4051c73245024f2a,
                false,
            ),
            (
                &["sa"],
                true,
                0x4050c6bca1af286b,
                0x3f3eaffdfad05d4d,
                0x4050ca84ace2be7b,
                false,
            ),
            (
                &["ss"],
                true,
                0x4043bca1af286bc9,
                0x3f3ea83db4711fc7,
                0x4043c38b080b9362,
                false,
            ),
            (
                &["sa", "ss"],
                true,
                0x4012f286bca1af28,
                0x3f3a65dcd3ab0d60,
                0x40131c476573cae9,
                true,
            ),
        ],
        stream_cost: [
            0x4061800000000000,
            0x4048000000000000,
            0x3f3a65dcd3ab0d60,
            0x3ff0000000000000,
        ],
        total_units: 0x40131c476573cae9,
    },
    Pin {
        sql: queries::TEMP_ALARM,
        stream_order: &[0],
        fragment: Some(&[0]),
        candidates: &[
            (
                &[],
                true,
                0x404f9435e50d7942,
                0x3f2a5c77a5281822,
                0x404f9842987a22b9,
                false,
            ),
            (
                &["t"],
                true,
                0x40350d79435e50d7,
                0x3f2a419fb28d5b73,
                0x40351395d7e98db7,
                true,
            ),
        ],
        stream_cost: [
            0x402fffffffffffff,
            0x4077ffffffffffff,
            0x3f2a419fb28d5b73,
            0x401fffffffffffff,
        ],
        total_units: 0x40351395d7e98db7,
    },
    Pin {
        sql: queries::LOAD_ALARM,
        stream_order: &[0],
        fragment: None,
        candidates: &[(
            &[],
            true,
            0x0000000000000000,
            0x3f2aa7a1193fc20d,
            0x3fac1d87d04379d2,
            true,
        )],
        stream_cost: [
            0x4065000000000000,
            0x40ab000000000000,
            0x3f2aa7a1193fc20d,
            0x4038000000000000,
        ],
        total_units: 0x3fac1d87d04379d2,
    },
    Pin {
        sql: queries::ROOM_RESOURCES,
        stream_order: &[0, 1],
        fragment: None,
        candidates: &[(
            &[],
            true,
            0x0000000000000000,
            0x3f2ab5288f6cfa3d,
            0x3fa63d21513c105b,
            true,
        )],
        stream_cost: [
            0x4067851eb851eb85,
            0x40a2000000000000,
            0x3f2ab5288f6cfa3d,
            0x40170a3d70a3d70a,
        ],
        total_units: 0x3fa63d21513c105b,
    },
    Pin {
        sql: queries::FREE_MACHINES,
        stream_order: &[0, 1],
        fragment: Some(&[0, 1]),
        candidates: &[
            (
                &[],
                true,
                0x4051c35e50d79435,
                0x3f34eab9ae1aeb49,
                0x4051c63dc0bf31ae,
                false,
            ),
            (
                &["sa"],
                true,
                0x4050c6bca1af286b,
                0x3f34e99e365674c8,
                0x4050c990289fa0ff,
                false,
            ),
            (
                &["ss"],
                true,
                0x4043bca1af286bc9,
                0x3f34e1ddeff73742,
                0x4043c1a1ff855869,
                false,
            ),
            (
                &["sa", "ss"],
                true,
                0x4012f286bca1af28,
                0x3f2a59c8734bd211,
                0x4013079c12744994,
                true,
            ),
        ],
        stream_cost: [
            0x404a000000000000,
            0x4048000000000000,
            0x3f2a59c8734bd211,
            0x3ff0000000000000,
        ],
        total_units: 0x4013079c12744994,
    },
    Pin {
        sql: queries::VISITOR_LOCATION,
        stream_order: &[0],
        fragment: None,
        candidates: &[(
            &[],
            true,
            0x0000000000000000,
            0x3f2a39921cf8893f,
            0x3f94fae93fca1a6c,
            true,
        )],
        stream_cost: [
            0x4010000000000000,
            0x4048000000000000,
            0x3f2a39921cf8893f,
            0x3ff0000000000000,
        ],
        total_units: 0x3f94fae93fca1a6c,
    },
    Pin {
        sql: queries::TOTAL_POWER,
        stream_order: &[0],
        fragment: None,
        candidates: &[(
            &[],
            true,
            0x0000000000000000,
            0x3f2a67e0391041ed,
            0x3fa0377b9750133e,
            true,
        )],
        stream_cost: [
            0x4052400000000000,
            0x4092000000000000,
            0x3f2a67e0391041ed,
            0x3ff0000000000000,
        ],
        total_units: 0x3fa0377b9750133e,
    },
];

#[test]
fn smartcis_queries_keep_their_plans() {
    let app = SmartCis::new(3, 8, 1).expect("app builds");
    for pin in PINS {
        let BoundQuery::Select(b) = bind(&parse(pin.sql).unwrap(), &app.catalog).unwrap() else {
            panic!("a SELECT")
        };
        let plan = optimize_named(&b.graph, &app.catalog, "OpenMachineInfo").unwrap();
        let sql = pin.sql.trim();
        assert_eq!(plan.stream_order, pin.stream_order, "{sql}");
        assert_eq!(
            plan.sensor.as_ref().map(|s| s.relations.as_slice()),
            pin.fragment,
            "{sql}"
        );
        let candidates: Vec<_> = plan
            .candidates
            .iter()
            .map(|c| {
                (
                    c.fragment.clone(),
                    c.admitted,
                    c.sensor_msgs.to_bits(),
                    c.stream_latency_sec.to_bits(),
                    c.total_units.to_bits(),
                    c.chosen,
                )
            })
            .collect();
        let want: Vec<_> = pin
            .candidates
            .iter()
            .map(|&(f, a, m, l, t, c)| (f.iter().map(|s| s.to_string()).collect(), a, m, l, t, c))
            .collect();
        assert_eq!(candidates, want, "{sql}");
        let c = &plan.stream_cost;
        assert_eq!(
            [
                c.cpu_ops.to_bits(),
                c.lan_bytes.to_bits(),
                c.latency_sec.to_bits(),
                c.out_card.to_bits()
            ],
            pin.stream_cost,
            "{sql}"
        );
        assert_eq!(plan.total_cost.units.to_bits(), pin.total_units, "{sql}");
    }
}
