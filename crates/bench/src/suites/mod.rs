//! The benchmark suites, as library functions over `&mut Criterion`.
//!
//! Each `benches/*.rs` harness is a thin wrapper around the matching
//! module here, so the same bodies run two ways: under `cargo bench` for
//! real measurements, and under `cargo test` through `tests/bench_smoke.rs`
//! (with `CRITERION_SAMPLES=1`) so bench code cannot silently rot.

pub mod async_overhead;
pub mod block_plan;
pub mod executors;
pub mod experiments;
pub mod extensions;
pub mod ingest;
pub mod krylov;
pub mod scale;
pub mod spmv;
pub mod sweeps;
