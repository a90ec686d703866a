#![warn(missing_docs)]

//! # abr-exp
//!
//! The experiment harness: one module per table and figure of the paper,
//! each regenerating the corresponding rows/series from this workspace's
//! implementation. The `repro` binary drives them
//! (`cargo run -p abr-exp --release -- <experiment>`); EXPERIMENTS.md
//! records paper-vs-measured for every artifact.
//!
//! Experiments accept a [`Scale`]: `Full` builds the paper-sized matrices
//! and iteration counts, `Small` shrinks everything so the whole suite
//! runs in seconds (used by integration tests).

pub mod experiments;
pub mod json;
pub mod matrices;
pub mod metrics;
pub mod report;
pub mod statistics;
pub mod svg;

pub use metrics::{JsonlFileSink, MemorySink, MetricsSink, NullSink, RunMetrics};
pub use report::{Series, Table};
pub use statistics::RunStatistics;

/// Experiment sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-sized matrices and iteration counts.
    Full,
    /// Reduced sizes for fast smoke runs and integration tests.
    Small,
}

impl Scale {
    /// Parses `"full"` / `"small"`.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "small" => Some(Scale::Small),
            _ => None,
        }
    }
}

/// Common options threaded through every experiment.
#[derive(Debug, Clone)]
pub struct ExpOptions {
    /// Experiment sizing.
    pub scale: Scale,
    /// Number of repeated solver runs for the statistics experiments.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions { scale: Scale::Full, runs: 100, seed: 42 }
    }
}
