//! Experiment harness: regenerates the paper's figures and tables
//! (F1, F2, E3–E10). Engine performance is measured by the standalone
//! `benchmark/` crate, not here.
//!
//! ```text
//! cargo run -p aspen-bench --bin harness --release            # everything
//! cargo run -p aspen-bench --bin harness --release f1 e3 e6   # selected
//! ```

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let selected: Vec<String> = if args.is_empty() {
        vec!["all".to_string()]
    } else {
        args
    };
    for name in selected {
        match aspen_bench::by_name(&name) {
            Some(report) => {
                println!("{report}");
            }
            None => {
                eprintln!(
                    "unknown experiment '{name}' — expected one of: \
                     f1 f2 e3 e4 e5 e6 e7 e8 e9 e10 all"
                );
                std::process::exit(2);
            }
        }
    }
}
