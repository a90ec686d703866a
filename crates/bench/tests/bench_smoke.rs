//! Runs every bench suite for a single minimal sample under `cargo test`,
//! so bench code cannot silently rot between `cargo bench` runs.
//!
//! The criterion shim honours `CRITERION_SAMPLES`/`CRITERION_SAMPLE_MS`
//! to shrink each benchmark to one ~1 ms sample; `CRITERION_JSON` is
//! cleared so a smoke run never pollutes a committed baseline.

use abr_bench::suites;
use criterion::Criterion;

fn smoke_criterion() -> Criterion {
    // One sample, ~1 ms budget per bench: exercise every code path, don't
    // measure anything. Env setup is process-global, hence the single
    // #[test] running all suites sequentially.
    std::env::set_var("CRITERION_SAMPLES", "1");
    std::env::set_var("CRITERION_SAMPLE_MS", "1");
    // The scale suite defaults to a million-row grid; smoke it tiny.
    std::env::set_var("ABR_SCALE_GRID", "48");
    std::env::remove_var("CRITERION_JSON");
    Criterion::default()
}

#[test]
fn every_bench_suite_runs_one_iteration() {
    let mut c = smoke_criterion();
    suites::spmv::all(&mut c);
    suites::block_plan::all(&mut c);
    suites::sweeps::all(&mut c);
    suites::async_overhead::all(&mut c);
    suites::executors::all(&mut c);
    suites::extensions::all(&mut c);
    suites::krylov::all(&mut c);
    suites::scale::all(&mut c);
    suites::experiments::all(&mut c);
    suites::ingest::all(&mut c);
}
