//! One run of one workload: identical passes on fresh systems, combined
//! per operation index, reported metric by metric.
//!
//! * `--trace 0`: [`PASSES`] untraced passes → the end-to-end metrics.
//! * `--trace 1`: the same passes with the second one traced, then the
//!   direct probes → the per-layer ledger. The spans go to
//!   `benchmark/out/<workload>.trace.json`.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use crate::host;
use crate::json::Json;
use crate::metrics::Contract;
use crate::phases::{overloaded, run_pass, PassResult};
use crate::stats;
use crate::system::{Checked, Res, System, Workload};
use crate::trace::Tracer;

#[derive(Debug, Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Append the full result record as one JSON line (a result set for
    /// `check` is such a file).
    pub append: Option<PathBuf>,
}

/// Identical passes of one run: every operation index is sampled this
/// many times, seconds apart.
pub const PASSES: usize = 3;

/// `benchmark/out/`: all scratch lives here.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

/// Remove what an earlier run of this workload left behind.
fn clean(out: &Path, workload: &str) -> Res<()> {
    fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    for suffix in ["result.json", "trace.json"] {
        let _ = fs::remove_file(out.join(format!("{workload}.{suffix}")));
    }
    let _ = fs::remove_dir_all(out.join(format!("{workload}.scratch")));
    Ok(())
}

struct Combined {
    /// Per-index minimum across passes.
    round_s: Vec<f64>,
    visible_us: Vec<f64>,
    late_us: Vec<f64>,
    register_us: Vec<f64>,
    read_us: Vec<f64>,
    round_tuples: u64,
    setup_s: f64,
}

fn combine(passes: &[&PassResult]) -> Combined {
    let pick = |f: fn(&PassResult) -> &Vec<f64>| {
        stats::min_across(&passes.iter().map(|p| f(p).as_slice()).collect::<Vec<_>>())
    };
    Combined {
        round_s: pick(|p| &p.round_s),
        visible_us: pick(|p| &p.visible_us),
        late_us: pick(|p| &p.late_us),
        register_us: pick(|p| &p.register_us),
        read_us: pick(|p| &p.read_us),
        round_tuples: passes[0].round_tuples.iter().sum(),
        setup_s: stats::median(
            &passes
                .iter()
                .flat_map(|p| p.setup_s.iter().copied())
                .collect::<Vec<_>>(),
        ),
    }
}

fn finite_sorted(v: &[f64]) -> Vec<f64> {
    stats::sorted(
        &v.iter()
            .copied()
            .filter(|x| x.is_finite())
            .collect::<Vec<_>>(),
    )
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// A pass's own percentile, `null` when every operation failed.
fn quantile(sample: &[f64], q: f64) -> Json {
    let sorted = finite_sorted(sample);
    if sorted.is_empty() {
        Json::Null
    } else {
        Json::Num(stats::percentile(&sorted, q))
    }
}

fn pass_json(p: &PassResult) -> Json {
    Json::obj([
        ("host_ns_per_step", Json::Num(p.host_ns_per_step)),
        (
            "setup_s",
            Json::Arr(p.setup_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("setup_wall_s", Json::Num(p.phase_s[0])),
        ("closed_wall_s", Json::Num(p.phase_s[1])),
        ("open_wall_s", Json::Num(p.phase_s[2])),
        ("cycles_wall_s", Json::Num(p.phase_s[3])),
        ("ingest_tps", Json::Num(p.ingest_tps())),
        (
            "round_s",
            Json::Arr(p.round_s.iter().map(|s| Json::Num(*s)).collect()),
        ),
        ("visible_p50_us", quantile(&p.visible_us, 0.5)),
        ("visible_p99_us", quantile(&p.visible_us, 0.99)),
        ("register_p50_us", quantile(&p.register_us, 0.5)),
        ("read_p50_us", quantile(&p.read_us, 0.5)),
        ("tuples", Json::Num(p.tuples as f64)),
        ("state_bytes", Json::Num(p.state_bytes as f64)),
        ("digest", Json::str(format!("{:016x}", p.digest))),
        ("attempted", Json::Num(p.attempted as f64)),
        ("failed", Json::Num(p.failed as f64)),
        ("notes", Json::Arr(p.notes.iter().map(Json::str).collect())),
    ])
}

/// Spans that cover no call into the system: the phases' own time
/// (open-loop waits, bookkeeping).
fn is_driver_time(span: &str) -> bool {
    span.starts_with("phase.")
}

/// The traced pass by layer: the driver's spans by call (self time; `wait:`
/// where the call only waits for the workers), with the data-plane time
/// the engine reports for itself set beside them —
/// operator busy time by kind, and the rest of the shards' busy time
/// (routing, windows, state, sinks).
fn layer_shares(tr: &Tracer, ledger: &[(&'static str, f64)]) -> Vec<(String, f64)> {
    let get = |name: &str| ledger.iter().find(|m| m.0 == name).map_or(0.0, |m| m.1);
    let mut rows: Vec<(String, f64)> = tr
        .self_times()
        .into_iter()
        .filter(|(name, _)| !is_driver_time(name))
        .map(|(name, (_, s))| {
            // These two return when the workers have drained: under the
            // pool they are time the caller waits beside the `engine:`
            // rows, not work of its own.
            let kind = if matches!(name, "quiesce" | "snapshot_fresh") {
                "wait"
            } else {
                "call"
            };
            (format!("{kind}:{name}"), s)
        })
        .collect();
    for m in ledger.iter().filter(|m| m.0.starts_with("engine:")) {
        rows.push((m.0.to_string(), m.1));
    }
    rows.push((
        "engine:route+window+state+sink".into(),
        (get("stream.shard.busy_s") - get("stream.operators.busy_s")).max(0.0),
    ));
    rows.sort_by(|a, b| b.1.total_cmp(&a.1));
    rows
}

/// Everything the passes of one run produced.
struct Passes {
    results: Vec<PassResult>,
    /// Index of the traced pass, if any, with its spans and the ledger
    /// its system reported.
    traced_at: Option<usize>,
    tracer: Tracer,
    ledger: Vec<(&'static str, f64)>,
    scheduling: &'static str,
    describe: Json,
}

impl Passes {
    fn untraced(&self) -> Vec<&PassResult> {
        self.results
            .iter()
            .enumerate()
            .filter(|(i, _)| self.traced_at != Some(*i))
            .map(|(_, p)| p)
            .collect()
    }
}

fn print_pass(label: &str, p: &PassResult) {
    println!(
        "pass {label}: host {:.3} ns/step, setup {:.3} s, T {:.3} s ({:.0} tuples/s), L {:.3} s, \
         C {:.3} s, state {} bytes, digest {:016x}, attempted {}, failed {}",
        p.host_ns_per_step,
        p.phase_s[0],
        p.phase_s[1],
        p.ingest_tps(),
        p.phase_s[2],
        p.phase_s[3],
        p.state_bytes,
        p.digest,
        p.attempted,
        p.failed,
    );
    for n in &p.notes {
        println!("  note: {n}");
    }
}

/// Run the passes; with `trace`, the second one carries the spans and
/// the others stay untraced.
fn run_passes<W: Workload>(workload: &W, trace: bool) -> Res<Passes> {
    let mut out = Passes {
        results: Vec::new(),
        traced_at: trace.then_some(1),
        tracer: Tracer::new(trace),
        ledger: Vec::new(),
        scheduling: "unknown",
        describe: Json::Null,
    };
    let mut off = Tracer::new(false);
    for i in 0..PASSES {
        let traced = out.traced_at == Some(i);
        let tr = if traced { &mut out.tracer } else { &mut off };
        let (result, mut sys) = run_pass(workload, tr)?;
        if traced {
            out.ledger = sys.ledger(tr, result.tuples);
        }
        if i == 0 {
            out.scheduling = sys.scheduling();
            out.describe = sys.describe();
        }
        let label = format!("{}{}", i + 1, if traced { " (traced)" } else { "" });
        print_pass(&label, &result);
        out.results.push(result);
    }
    Ok(out)
}

/// The per-layer values of a traced run: probes, then what the traced
/// system said about itself (which outranks a probe's stand-in), then
/// what the spans say. Also prints and returns the layer table and writes the
/// trace file.
fn per_layer<W: Workload>(
    workload: &W,
    name: &str,
    passes: &Passes,
    pass_tps: &[f64],
    out: &Path,
) -> Res<(Vec<(&'static str, f64)>, Json)> {
    let scratch = out.join(format!("{name}.scratch"));
    fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut values = workload.probes(&scratch);
    let _ = fs::remove_dir_all(&scratch);
    values.extend(passes.ledger.iter().copied());

    let tracer = &passes.tracer;
    for (metric, span) in [
        ("stream.shard.admit_us", "admit"),
        ("stream.shard.heartbeat_us", "heartbeat"),
        ("stream.shard.drain_us", "quiesce"),
    ] {
        values.push((metric, tracer.mean_us(span)));
    }
    let traced_tps = passes
        .traced_at
        .map_or(f64::NAN, |i| passes.results[i].ingest_tps());
    values.push((
        "bench.trace_overhead_share",
        1.0 - traced_tps / stats::mean(pass_tps),
    ));
    let self_times = tracer.self_times();
    let wall: f64 = self_times.values().map(|v| v.1).sum();
    let residual: f64 = self_times
        .iter()
        .filter(|(name, _)| is_driver_time(name))
        .map(|(_, v)| v.1)
        .sum();
    values.push(("bench.span_residual_share", residual / wall.max(1e-9)));

    let shares = layer_shares(tracer, &passes.ledger);
    println!("layers of the traced pass by self time ({wall:.3} s of spans):");
    for (layer, s) in shares.iter().take(8) {
        println!("  {layer:<40} {s:>9.4} s");
    }
    let layers = Json::Arr(
        shares
            .iter()
            .map(|(n, s)| Json::obj([("layer", Json::str(n.as_str())), ("self_s", Json::Num(*s))]))
            .collect(),
    );
    let trace_path = out.join(format!("{name}.trace.json"));
    fs::write(&trace_path, tracer.to_json().render()).map_err(|e| e.to_string())?;
    println!("spans: {} → {}", tracer.spans().len(), trace_path.display());
    Ok((values, layers))
}

/// Run `workload` as `args` says; prints the report and returns whether
/// the run was correct.
pub fn run<W: Workload>(workload: &W, args: &RunArgs) -> Res<bool> {
    let contract = Contract::load(&repo_root().join("BENCHMARK.json"))?;
    let out = out_dir();
    clean(&out, &args.workload)?;
    let cpu0 = host::cpu_seconds();
    let passes = run_passes(workload, args.trace)?;
    let host = host::record(&repo_root(), passes.scheduling);
    println!("host {}", host.render());

    let c = combine(&passes.untraced());
    // Checks over the whole run are counted like operations.
    let mut tally = Checked {
        attempted: passes.results.iter().map(|p| p.attempted).sum(),
        failed: passes.results.iter().map(|p| p.failed).sum(),
        notes: Vec::new(),
    };
    // Identical passes must end in identical results and state.
    let (state_bytes, digest) = (passes.results[0].state_bytes, passes.results[0].digest);
    let repeatable = passes
        .results
        .iter()
        .all(|p| p.state_bytes == state_bytes && p.digest == digest);
    tally.expect(repeatable, || {
        "result digest or state size differs between passes".into()
    });
    let overload = overloaded(&c.late_us, workload.work().rate_l);
    tally.expect(overload.is_none(), || overload.clone().unwrap_or_default());
    let visible = finite_sorted(&c.visible_us);
    let late = finite_sorted(&c.late_us);
    let register = finite_sorted(&c.register_us);
    let read = finite_sorted(&c.read_us);
    // A thousand samples put ten beyond the 99th percentile.
    for (what, n) in [
        ("visible", visible.len()),
        ("register", register.len()),
        ("read", read.len()),
    ] {
        tally.expect(n >= 1000, || format!("only {n} {what} samples"));
    }
    if visible.is_empty() || register.is_empty() || read.is_empty() || c.round_s.is_empty() {
        return Err("a phase produced no samples".into());
    }
    let pass_tps: Vec<f64> = passes.untraced().iter().map(|p| p.ingest_tps()).collect();
    let total_tuples: u64 = passes.results.iter().map(|p| p.tuples).sum();
    let host_speed: Vec<f64> = passes.results.iter().map(|p| p.host_ns_per_step).collect();

    let mut values: Vec<(&str, f64)> = vec![
        ("setup_s", c.setup_s),
        (
            "ingest_tps",
            c.round_tuples as f64 / c.round_s.iter().sum::<f64>(),
        ),
        ("visible_p50_us", stats::percentile(&visible, 0.5)),
        ("visible_p99_us", stats::percentile(&visible, 0.99)),
        ("register_p50_us", stats::percentile(&register, 0.5)),
        ("read_p50_us", stats::percentile(&read, 0.5)),
        ("state_bytes", state_bytes as f64),
        (
            "bench.generator_late_p99_us",
            stats::percentile(&late, 0.99),
        ),
        ("bench.visible_max_us", *visible.last().expect("nonempty")),
        (
            "bench.pass_spread",
            pass_tps.iter().copied().fold(0.0, f64::max)
                / pass_tps.iter().copied().fold(f64::INFINITY, f64::min),
        ),
        ("bench.host_ns_per_step", stats::median(&host_speed)),
    ];
    let mut layers = Json::Null;
    if args.trace {
        let (more, table) = per_layer(workload, &args.workload, &passes, &pass_tps, &out)?;
        values.extend(more);
        layers = table;
    }
    values.push((
        "bench.cpu_s_per_mtuple",
        (host::cpu_seconds() - cpu0) * 1e6 / total_tuples.max(1) as f64,
    ));
    // Read last: everything above is in the high-water mark.
    values.push(("rss_peak_mb", host::rss_peak_mb()));
    // Later entries override earlier ones of the same name.
    let lookup = |name: &str| values.iter().rev().find(|v| v.0 == name).map(|v| v.1);

    let listed = if args.trace {
        &contract.per_layer
    } else {
        &contract.end_to_end
    };
    let mut reported: Vec<(String, Json)> = Vec::new();
    for m in listed {
        let v = lookup(&m.name)
            .filter(|v| v.is_finite())
            .ok_or_else(|| format!("{} was not measured", m.name))?;
        println!("metric {} {v} {}", m.name, m.unit);
        reported.push((m.name.clone(), metric(v, &m.unit)));
    }
    // An untraced run also measures part of the per-layer list — the
    // timings demoted from the end-to-end list, the health of the
    // measurement. They are printed and recorded beside the result, and
    // are no part of it.
    let mut also: Vec<(String, Json)> = Vec::new();
    if !args.trace {
        for m in &contract.per_layer {
            if let Some(v) = lookup(&m.name).filter(|v| v.is_finite()) {
                println!("also {} {v} {}", m.name, m.unit);
                also.push((m.name.clone(), metric(v, &m.unit)));
            }
        }
    }
    println!(
        "samples: visible {} register {} read {} rounds {}",
        visible.len(),
        register.len(),
        read.len(),
        c.round_s.len()
    );
    for n in &tally.notes {
        println!("  note: {n}");
    }
    println!("attempted {} failed {}", tally.attempted, tally.failed);

    let last = Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::Num(tally.attempted as f64)),
        ("failed", Json::Num(tally.failed as f64)),
        ("metrics", Json::Obj(reported)),
    ]);
    let mut record = vec![
        ("workload".to_string(), Json::str(args.workload.as_str())),
        ("seed".to_string(), Json::Num(args.seed as f64)),
        ("seconds".to_string(), Json::Num(args.seconds as f64)),
        (
            "trace".to_string(),
            Json::Num(f64::from(u8::from(args.trace))),
        ),
        ("host".to_string(), host),
        ("system".to_string(), passes.describe.clone()),
        (
            "passes".to_string(),
            Json::Arr(passes.results.iter().map(pass_json).collect()),
        ),
    ];
    record.extend(last.fields().iter().cloned());
    if args.trace {
        record.push(("layers".to_string(), layers));
    } else {
        record.push(("also".to_string(), Json::Obj(also)));
    }
    // This benchmark measures; it claims nothing.
    record.push(("claim".to_string(), Json::Null));
    let record = Json::Obj(record).render();
    fs::write(out.join(format!("{}.result.json", args.workload)), &record)
        .map_err(|e| e.to_string())?;
    if let Some(path) = &args.append {
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(f, "{record}").map_err(|e| e.to_string())?;
    }
    println!("{}", last.render());
    Ok(tally.failed == 0)
}
