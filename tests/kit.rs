//! The equivalence kit's own tests: a planted failure shrinks to a
//! handful of events whose printed literal replays it, and every exact
//! counter an engine exports repeats over same-seed runs in every
//! scheduling mode.

mod common;

use std::collections::BTreeMap;
use std::sync::Arc;

use common::*;
use rand::rngs::StdRng;
use rand::Rng;
use smartcis::catalog::{Catalog, SourceStats};
use smartcis::types::DataType::{Float, Int};

fn catalog() -> Arc<Catalog> {
    common::catalog(&[
        (
            "Readings",
            SourceStats::stream(2.0),
            &[("sensor", Int), ("value", Float)],
        ),
        (
            "Links",
            SourceStats::table(8),
            &[("src", Int), ("dst", Int)],
        ),
    ])
}

const TEMPLATES: &[&str] = &[
    "select r.sensor, r.value from Readings r [range 5 seconds] where r.value > {c}",
    "select r.sensor, count(*) from Readings r [rows 4] group by r.sensor",
    "select r.value, l.dst from Readings r [range 8 seconds], Links l where r.sensor = l.src",
    "select sum(r.value) from Readings r [tumbling 6 seconds]",
    "select x.src, x.dst from Reach x where x.src = {c}",
];

const VIEWS: &[(&str, &str)] = &[(
    "Reach",
    "create recursive view Reach as ( \
       select l.src, l.dst from Links l \
       union \
       select r.src, l.dst from Reach r, Links l where r.dst = l.src )",
)];

fn cells(rng: &mut StdRng, source: &'static str, _: i64) -> Vec<Cell> {
    match source {
        "Readings" => vec![I(rng.gen_range(0..4i64)), F(rng.gen_range(0..50i64) as f64)],
        _ => vec![I(rng.gen_range(0..4i64)), I(rng.gen_range(0..4i64))],
    }
}

/// `templates` of [`TEMPLATES`] under full churn, with table upserts and
/// retractions.
fn workload(templates: usize) -> Workload {
    let mut w = Workload {
        streams: &[("Readings", 1)],
        tables: &["Links"],
        templates: (templates, 4),
        views: VIEWS,
        opening: vec![RegisterView { view: 0 }],
        push: true,
        weights: Weights {
            ingest: 8,
            table: 1,
            table_deltas: 2,
            heartbeat: 4,
            register: 2,
            deregister: 1,
            pause: 1,
            resume: 1,
            migrate: 2,
            tune: 1,
            read: 1,
            ..Weights::default()
        },
        batch: (1, 6),
        jump: (1, 8),
        awkward: 10,
        ..Workload::new(catalog, cells, |t, c| {
            TEMPLATES[t].replace("{c}", &(10 * c).to_string())
        })
    };
    w.opening
        .extend(w.register_all((0..templates).map(|t| (t, t % 4))));
    w
}

/// Forwards everything to the engine it wraps, except the first
/// heartbeat, which it swallows.
struct SwallowHeartbeat {
    inner: Box<dyn System>,
    swallowed: bool,
}

impl System for SwallowHeartbeat {
    fn label(&self) -> String {
        self.inner.label()
    }

    fn apply(&mut self, op: &Op) -> smartcis::types::Result<()> {
        if let (Op::Heartbeat(_), false) = (op, self.swallowed) {
            self.swallowed = true;
            return Ok(());
        }
        self.inner.apply(op)
    }

    fn observe(
        &mut self,
        slots: &BTreeMap<usize, SlotState>,
    ) -> Result<Seen, (&'static str, String)> {
        self.inner.observe(slots)
    }
}

/// The model-covered templates on one shard that swallows a heartbeat.
fn swallow_row() -> Row {
    let swallow = |inner| -> Box<dyn System> {
        Box::new(SwallowHeartbeat {
            inner,
            swallowed: false,
        })
    };
    let config = Config::node(1, Mode::Seq).wrap(swallow);
    let mut w = workload(4);
    w.opening = w.register_all((0..4).map(|t| (t, t % 4)));
    Row::new("swallow_row()", w, vec![config])
}

#[test]
fn a_swallowed_heartbeat_shrinks_to_a_replayable_handful() {
    let row = swallow_row();
    // The first seed whose swallowed heartbeat expires something.
    let seen = seeds(16).find_map(|seed| {
        let events = row.workload.generate(seed);
        let failure = row.run(seed, &events, None).err()?;
        Some((seed, events, failure))
    });
    let (seed, events, failure) = seen.expect("the swallow is seen");
    let shrunk = row.shrink(seed, &events, &failure);
    assert!(shrunk.len() <= 10, "shrunk only to {} events", shrunk.len());
    let again = row
        .run(seed, &shrunk, None)
        .err()
        .expect("the shrunk case fails");
    assert_eq!(
        (&again.system, again.check),
        (&failure.system, failure.check)
    );
    let literal = row.replay_literal(seed, &shrunk);
    println!("{literal}");
    assert!(literal.starts_with(&format!("swallow_row().seed({seed}).replay(&[\n")));
    for e in &shrunk {
        assert!(literal.contains(&format!("    {e:?},\n")), "{literal}");
    }
}

/// A literal as the kit printed it for a swallowed heartbeat.
#[test]
#[should_panic(expected = "check: \"snapshot\"")]
fn a_printed_literal_replays_its_failure() {
    swallow_row().seed(0).replay(&[
        Register {
            slot: 0,
            template: 0,
            constant: 0,
        },
        Ingest {
            source: "Readings",
            rows: Rows(vec![At(1, vec![I(1), F(12.0)])]),
        },
        Heartbeat { secs: 12 },
    ]);
}

/// `json` without its wall-clock fields: busy seconds, latency and
/// queue-wait histograms, and the observed operator rate.
fn without_clocks(json: &str) -> String {
    let mut out = json.to_string();
    for key in [
        "busy_seconds",
        "queue_wait",
        "ingest_latency",
        "latency",
        "ops_per_sec_observed",
    ] {
        let key = format!("\"{key}\":");
        while let Some(at) = out.find(&key) {
            let rest = &out[at + key.len()..];
            let mut depth = 0;
            let end = rest.char_indices().find(|&(_, c)| {
                depth += i32::from(c == '{') - i32::from(c == '}');
                depth < 0 || (depth == 0 && (c == ',' || c == '}'))
            });
            let len = end.map_or(rest.len(), |(i, c)| i + usize::from(c == '}' && depth == 0));
            out.replace_range(at..at + key.len() + len, "");
        }
    }
    out
}

/// Every exact counter is identical over five same-seed runs, per
/// scheduling mode and on a cluster: the telemetry JSON without its
/// wall-clock fields, resident state, executor tasks, view statistics,
/// and the cluster's wire frames, tuples and bytes and exchange counts.
#[test]
fn counters_repeat_over_same_seed_runs_in_every_mode() {
    let mut configs = Config::matrix(&[2]);
    configs.push(Config::cluster(2, Mode::Seq));
    let row = Row::new("determinism_row()", workload(TEMPLATES.len()), configs);
    let row = row.oracle(Oracle::Private);
    let seed = seeds(1).next().unwrap();
    let events = row.workload.generate(seed);
    let fingerprints = || -> Vec<(String, String)> {
        let outcomes = row
            .run(seed, &events, None)
            .unwrap_or_else(|f| panic!("{f:?}"));
        let engines = outcomes.into_iter().filter(|o| o.label != "Private");
        engines
            .map(|o| (o.label, without_clocks(&o.fingerprint)))
            .collect()
    };
    let first = fingerprints();
    assert!(first.iter().all(|(_, f)| f.contains("\"ops_invoked\"")));
    for run in 1..5 {
        for ((label, want), (_, got)) in first.iter().zip(fingerprints()) {
            assert_eq!(&got, want, "{label}, run {run}");
        }
    }
}
