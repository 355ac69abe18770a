//! # h2priv-perfbench — the h2priv benchmark
//!
//! One command runs one of three workloads and prints every end-to-end
//! metric by name, unit and sample count, checks the outputs, and ends
//! with a one-line JSON result:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper_attack --seed 1 --seconds 10 --trace 0
//! ```
//!
//! * `paper_attack` — single-pair §V page loads under the paper's attack;
//! * `fleet_stream` — one cohort-streamed population, victim attacked,
//!   every other pair a benign bystander;
//! * `slow_dos` — the four slow-rate DoS attacks, unguarded and guarded,
//!   interleaved with benign page loads that have the guard armed.
//!
//! `--trace 1` runs traced rounds beside untraced ones and reports the
//! per-layer breakdown instead (see [`run`]), writing its spans to
//! `.perfbench_trace/`. `perfbench/metrics.json` records, for every
//! metric, its layer and which end-to-end metric and workload it should
//! move.

pub mod ops;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workload;
