//! `table1_mtx`: one op is a pass that ingests and solves six
//! MatrixMarket files — `read_matrix_market_path`, then
//! `AsyncBlockSolver::solve`, block 448, 2 workers, to 1e-8, resumed once
//! from its iterate after a late stop (`solve_resuming`).
//!
//! The files are five Table 1 substitutes, written at set-up, and the
//! checked-in `lap8.mtx`. These small systems run on the CSR and ELL
//! tiers, where ingest, worker start and monitor reaction weigh most; the
//! stencil tier and the service are not called. Two substitutes are left
//! out. On `s1rmt3m1` async-(5) diverges without τ-scaling. `fv3`
//! (ρ = 0.9993) needs ~2,200 rounds: it would take 70% of a pass, leave
//! too few passes in a run for a p75 with ten samples beyond it, and in
//! about 1.5% of its solves the final iterate lands just above the
//! tolerance after the monitor stopped on a snapshot below it.

use super::{set_up, solve_resuming, timed_loop, Cfg, SplitMix};
use crate::api::{self, CsrMatrix, LibSolve, TestMatrix};
use crate::gate::{self, Tally};
use crate::metrics::{LayerAcc, Outcome};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const SYSTEMS: [TestMatrix; 5] = [
    TestMatrix::Chem97ZtZ,
    TestMatrix::Fv1,
    TestMatrix::Fv2,
    TestMatrix::Trefethen2000,
    TestMatrix::Trefethen20000,
];
const LAP8: &str = include_str!("../../../crates/exp/data/lap8.mtx");
const TOL: f64 = 1e-8;

/// One file of the pass.
struct Item {
    name: String,
    path: PathBuf,
    bytes: u64,
    b: Vec<f64>,
}

fn write_items(cfg: &Cfg) -> Result<Vec<Item>, String> {
    let mut files: Vec<(String, PathBuf)> = Vec::new();
    for which in SYSTEMS {
        let a = api::table1_matrix(which, cfg.smoke)?;
        let path = cfg.work_dir.join(format!("{}.mtx", which.name()));
        api::write_mtx(&a, &path)?;
        files.push((which.name().to_string(), path));
    }
    let lap8 = cfg.work_dir.join("lap8.mtx");
    std::fs::write(&lap8, LAP8).map_err(|e| format!("{}: {e}", lap8.display()))?;
    files.push(("lap8".into(), lap8));
    files
        .into_iter()
        .enumerate()
        .map(|(i, (name, path))| {
            let a = api::ingest(&path)?;
            let x_true = SplitMix::new(cfg.seed, i as u64).vec(a.n_rows(), 0.5, 1.5);
            let b = api::mul_vec(&a, &x_true)?;
            let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
            Ok(Item {
                name,
                path,
                bytes,
                b,
            })
        })
        .collect()
}

pub fn run(cfg: &Cfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    let solve = LibSolve {
        local_iters: 5,
        workers: 2,
        tol: TOL,
        max_iters: 50_000,
        seed: cfg.seed,
    };
    let block = if cfg.smoke { 32 } else { 448 };
    let solve_file = |item: &Item, a: &CsrMatrix| -> Result<_, String> {
        let p = api::partition(a.n_rows(), block)?;
        solve.solve(a, &item.b, &vec![0.0; a.n_rows()], &p, None)
    };
    let (items, setup_s) = set_up(cfg, || {
        let items = write_items(cfg)?;
        for item in &items {
            solve_file(item, &api::ingest(&item.path)?)?;
        }
        Ok(items)
    })?;

    let mut tally = Tally::default();
    let mut layers = LayerAcc::default();
    let mut buf = Vec::new();
    let mut failures = Vec::new();
    let mut resumed = Vec::new();
    let (latencies_ms, timed_s) = timed_loop(cfg, 2, |op| {
        let mut pass_ms = 0.0;
        for item in &items {
            let t0 = Instant::now();
            tracer.open("bench.op", op);
            let a = tracer.time("sparse.io.ingest", op, || api::ingest(&item.path))?;
            let p = api::partition(a.n_rows(), block)?;
            let (result, late) = solve_resuming(a.n_rows(), solve.max_iters, |x0| {
                if tracer.enabled() {
                    let (result, run) =
                        solve.solve_traced(&a, &item.b, x0, &p, None, tracer, op)?;
                    layers.runs.push(run);
                    layers.compiled_nnz += a.nnz() as f64;
                    Ok(result)
                } else {
                    solve.solve(&a, &item.b, x0, &p, None)
                }
            })?;
            tracer.close();
            pass_ms += t0.elapsed().as_secs_f64() * 1e3;
            if tracer.enabled() {
                layers.ingest_bytes += item.bytes as f64;
                layers
                    .rounds
                    .push((item.name.clone(), result.iterations as f64));
            }
            if let Some((residual, rounds)) = late {
                resumed.push(format!(
                    "{} pass {op}: residual {residual:.3e} after {rounds} rounds",
                    item.name
                ));
            }
            let failed_before = tally.failed;
            tracer.time("bench.recheck", op, || {
                gate::check_answer(
                    &mut tally,
                    &mut buf,
                    &a,
                    &item.b,
                    &result.x,
                    TOL,
                    result.converged,
                )
            });
            if tally.failed > failed_before {
                failures.push(format!(
                    "{} pass {op}: converged={} residual {:.3e} after {} rounds",
                    item.name, result.converged, result.final_residual, result.iterations
                ));
            }
        }
        Ok(pass_ms)
    })?;

    let mut notes = vec![format!(
        "resumed after a late stop: {} of {} solves",
        resumed.len(),
        latencies_ms.len() * items.len()
    )];
    notes.extend(resumed.into_iter().map(|r| format!("resumed: {r}")));
    notes.extend(failures.into_iter().map(|f| format!("failed: {f}")));
    if tracer.enabled() {
        let budget = Duration::from_millis(if cfg.smoke { 2 } else { 40 });
        for item in &items {
            let a = api::ingest(&item.path)?;
            let p = api::partition(a.n_rows(), block)?;
            layers.kernel.push(api::probe_kernel(
                &a,
                &item.b,
                &p,
                solve.local_iters,
                None,
                budget,
            )?);
            layers
                .fused_reduce_ns
                .push(api::probe_fused_reduce(p.len()));
            let rounds: Vec<f64> = layers
                .rounds
                .iter()
                .filter(|r| r.0 == item.name)
                .map(|r| r.1)
                .collect();
            notes.push(format!(
                "rounds {}: p50 {} p75 {} over {} solves (n = {}, nnz = {})",
                item.name,
                median(&rounds),
                percentile(&rounds, 0.75),
                rounds.len(),
                a.n_rows(),
                a.nnz()
            ));
        }
    }
    Ok(Outcome {
        setup_s,
        latencies_ms,
        timed_s,
        tail_q: 0.75,
        tally,
        layers,
        notes,
    })
}
