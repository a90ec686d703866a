//! `solve_fv1m`: one op is `AsyncBlockSolver::solve_with_stencil` — plan
//! compile plus solve — on the screened 9-point finite-volume operator,
//! async-(5) on 2 persistent workers, 256 blocks, to 1e-8, one caller,
//! resumed once from its iterate after a late stop (`solve_resuming`).
//!
//! The stencil sweep tier, the plan compile and the fused monitor do
//! nearly all the work; `sparse.io` and the service are not called.

use super::{set_up, solve_resuming, timed_loop, Cfg, SplitMix};
use crate::api::{self, LibSolve};
use crate::gate::{self, Tally};
use crate::metrics::{LayerAcc, Outcome};
use crate::trace::Tracer;
use std::time::{Duration, Instant};

/// Grid edge: n = 512² = 262,144 rows, 2.36M nonzeros. A 25-second run
/// then completes about 200 ops, so p75 has ten samples beyond it.
const GRID: usize = 512;
const SMOKE_GRID: usize = 64;
const BLOCKS: usize = 256;
const TOL: f64 = 1e-8;

pub fn run(cfg: &Cfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    let m = if cfg.smoke { SMOKE_GRID } else { GRID };
    let solve = LibSolve {
        local_iters: 5,
        workers: 2,
        tol: TOL,
        max_iters: 10_000,
        seed: cfg.seed,
    };
    let ((a, d, b, p), setup_s) = set_up(cfg, || {
        let (a, d) = api::fv_system(m)?;
        let n = a.n_rows();
        let x_true = SplitMix::new(cfg.seed, 0).vec(n, 0.5, 1.5);
        let b = api::mul_vec(&a, &x_true)?;
        let p = api::partition(n, n / BLOCKS)?;
        solve.solve(&a, &b, &vec![0.0; n], &p, Some(&d))?;
        Ok((a, d, b, p))
    })?;

    let mut tally = Tally::default();
    let mut layers = LayerAcc::default();
    let mut buf = Vec::new();
    let mut resumed = 0;
    let (latencies_ms, timed_s) = timed_loop(cfg, 3, |op| {
        let t0 = Instant::now();
        tracer.open("bench.op", op);
        let (result, late) = solve_resuming(a.n_rows(), solve.max_iters, |x0| {
            if tracer.enabled() {
                let (result, run) = solve.solve_traced(&a, &b, x0, &p, Some(&d), tracer, op)?;
                layers.runs.push(run);
                layers.compiled_nnz += a.nnz() as f64;
                Ok(result)
            } else {
                solve.solve(&a, &b, x0, &p, Some(&d))
            }
        })?;
        tracer.close();
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        resumed += usize::from(late.is_some());
        if tracer.enabled() {
            layers.rounds.push(("fv".into(), result.iterations as f64));
        }
        tracer.time("bench.recheck", op, || {
            gate::check_answer(
                &mut tally,
                &mut buf,
                &a,
                &b,
                &result.x,
                TOL,
                result.converged,
            )
        });
        Ok(ms)
    })?;

    if tracer.enabled() {
        let budget = Duration::from_millis(if cfg.smoke { 5 } else { 300 });
        layers.kernel.push(api::probe_kernel(
            &a,
            &b,
            &p,
            solve.local_iters,
            Some(&d),
            budget,
        )?);
        layers
            .fused_reduce_ns
            .push(api::probe_fused_reduce(p.len()));
    }
    let notes = vec![
        format!(
            "system: fv_stencil({m}, 1.0), n = {}, nnz = {}, {} blocks",
            a.n_rows(),
            a.nnz(),
            p.len()
        ),
        format!(
            "resumed after a late stop: {resumed} of {} solves",
            latencies_ms.len()
        ),
    ];
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
