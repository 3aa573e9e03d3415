//! # aspen-bench
//!
//! The paper's figures and tables: F1/F2 (the federated plan and the
//! GUI) and experiments E3–E10. Each `e*`/`f*` function runs one
//! experiment and returns printable rows; the `harness` binary renders
//! them as tables, and the plain-timing benches in `benches/` reuse the
//! same code paths. Engine performance lives in the standalone
//! `benchmark/` crate at the repo root.

pub mod experiments;
pub mod fixtures;
pub mod table;

pub use experiments::*;
pub use table::TableBuilder;
