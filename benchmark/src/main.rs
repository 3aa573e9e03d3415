//! The repo's benchmark. One command per workload:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--append <file>]
//! benchmark check <set A> <set B>
//! ```
//!
//! See `README.md` beside this crate for every metric and workload.

mod check;
mod host;
mod json;
mod metrics;
mod phases;
mod probes;
mod reference;
mod run;
mod stats;
mod system;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::RunArgs;
use workloads::{
    bigwindow::BigWindow, building::BuildingLoop, churn::Churn, cluster::ClusterLoad,
    dashboards::Dashboards, NAMES, REFERENCE_SECONDS,
};

const USAGE: &str = "usage: benchmark --workload <dashboards|bigwindow|churn|cluster|building> \
--seed <n> [--seconds <1..60>] [--trace <0|1>] [--append <file>]\n       \
benchmark check <result set A> <result set B>";

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut out = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        append: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} {value}: not a number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = value.clone(),
            "--seed" => out.seed = number()?,
            "--seconds" => out.seconds = number()?,
            "--trace" => out.trace = number()? != 0,
            "--append" => out.append = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !NAMES.contains(&out.workload.as_str()) {
        return Err(format!("unknown workload '{}'", out.workload));
    }
    if !(1..=60).contains(&out.seconds) {
        return Err(format!("--seconds {} is outside 1..60", out.seconds));
    }
    Ok(out)
}

fn run(args: &RunArgs) -> Result<bool, String> {
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "dashboards" => run::run(&Dashboards::new(seed, seconds), args),
        "bigwindow" => run::run(&BigWindow::new(seed, seconds), args),
        "churn" => run::run(&Churn::new(seed, seconds), args),
        "cluster" => run::run(&ClusterLoad::new(seed, seconds), args),
        "building" => run::run(&BuildingLoop::new(seed, seconds), args),
        other => Err(format!("unknown workload '{other}'")),
    }
}

fn main() -> ExitCode {
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with --release");
        return ExitCode::from(2);
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("check") if args.len() == 3 => check::check(
            Path::new(&args[1]),
            Path::new(&args[2]),
            &run::repo_root().join("BENCHMARK.json"),
        ),
        Some("check") | None => Err(USAGE.to_string()),
        // A run exits 0 once its result line is printed, correct or not:
        // the line itself says which.
        Some(_) => parse_run(&args).and_then(|a| run(&a)).map(|_| true),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
