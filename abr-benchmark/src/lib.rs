//! The block-async-relax benchmark: four workloads, end-to-end metrics
//! from untraced runs, per-layer metrics from traced runs, and a
//! comparison of result files against `BENCHMARK.json`'s bounds. See
//! `README.md` for the workloads, the metrics and how to run them.

pub mod api;
pub mod cli;
pub mod compare;
pub mod gate;
pub mod host;
pub mod metrics;
pub mod stats;
pub mod trace;
pub mod workloads;
