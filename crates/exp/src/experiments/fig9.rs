//! **Figure 9** — relative residual versus solver runtime, including the
//! CG baseline (§4.4).
//!
//! The numerics (residual histories) are computed by the real solvers;
//! iteration indices are mapped to seconds with the calibrated timing
//! model (CPU sweep cost for Gauss-Seidel; warmup + marginal
//! per-iteration cost for the GPU methods — like the paper's figures,
//! the one-time context/allocation setup is subtracted). Shape targets
//! from the paper:
//!
//! * `fv1`: async-(5) ≈ 2x Jacobi, far ahead of CPU GS; CG ~1/3 faster
//!   than async-(5);
//! * `fv3`: CG wins big (high condition number);
//! * `Chem97ZtZ`: async-(5) ≈ Jacobi ≈ CG (diagonal local blocks), CG
//!   handicapped by its synchronising dot products;
//! * `Trefethen_2000`: async-(5) beats CG and Jacobi at every accuracy.

use crate::matrices::TestSystem;
use crate::report::{Figure, Series};
use crate::ExpOptions;
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::pcg::{pcg, JacobiPreconditioner};
use abr_core::{gauss_seidel, jacobi, AsyncBlockSolver, SolveOptions};
use abr_gpu::TimingModel;
use abr_sparse::gen::TestMatrix;
use abr_sparse::Result;

/// The four matrices the paper plots (fv2 ~ fv1, s1rmt3m1 diverges).
pub const FIG9_MATRICES: [TestMatrix; 4] = [
    TestMatrix::Chem97ZtZ,
    TestMatrix::Fv1,
    TestMatrix::Fv3,
    TestMatrix::Trefethen2000,
];

/// Converts a residual history to a `(seconds, residual)` series.
fn timed_series(label: &str, history: &[f64], setup: f64, t_iter: f64) -> Series {
    Series::new(
        label,
        history
            .iter()
            .enumerate()
            .map(|(k, &r)| (setup + t_iter * (k + 1) as f64, r))
            .collect(),
    )
}

/// Regenerates Figure 9 (one sub-figure per matrix).
pub fn run(opts: &ExpOptions) -> Result<Vec<Figure>> {
    let model = TimingModel::calibrated();
    let mut figures = Vec::new();
    for which in FIG9_MATRICES {
        let sys = TestSystem::build(which, opts.scale)?;
        let iters = sys.figure_iterations(opts.scale);
        let solve_opts = SolveOptions::fixed_iterations(iters);
        let partition = sys.partition(opts.scale)?;
        let (n, nnz) = (sys.a.n_rows(), sys.a.nnz());
        let local =
            AsyncJacobiKernel::new(&sys.a, &sys.rhs, &partition, 1, 1.0)?.nnz_local();

        let gs = gauss_seidel(&sys.a, &sys.rhs, &sys.x0, &solve_opts)?;
        let jac = jacobi(&sys.a, &sys.rhs, &sys.x0, &solve_opts)?;
        let a5 =
            AsyncBlockSolver::async_k(5).solve(&sys.a, &sys.rhs, &sys.x0, &partition, &solve_opts)?;
        // The paper's "highly tuned" CG: its Figure 9 iteration counts
        // track cond(D^{-1}A), i.e. it is diagonally preconditioned.
        let prec = JacobiPreconditioner::new(&sys.a)?;
        let cg = pcg(
            &sys.a,
            &sys.rhs,
            &sys.x0,
            &prec,
            &SolveOptions { max_iters: iters, tol: 1e-16, record_history: true, check_every: 1 },
        )?;

        let mut fig = Figure::new(
            format!("Figure 9 ({})", which.name()),
            "time [s]",
            "relative residual",
        );
        fig.push(timed_series(
            "Gauss-Seidel",
            &gs.history,
            0.0,
            model.cpu_gauss_seidel_iteration(n, nnz),
        ));
        fig.push(timed_series(
            "Jacobi",
            &jac.history,
            model.kernel_warmup,
            model.gpu_jacobi_iteration(n, nnz),
        ));
        fig.push(timed_series(
            "async-(5)",
            &a5.history,
            model.kernel_warmup,
            model.gpu_async_iteration(n, nnz, local, 5),
        ));
        fig.push(timed_series(
            "CG",
            &cg.history,
            model.kernel_warmup,
            model.gpu_cg_iteration(n, nnz),
        ));
        figures.push(fig);
    }
    Ok(figures)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn small() -> ExpOptions {
        ExpOptions { scale: Scale::Small, runs: 2, seed: 0 }
    }

    #[test]
    fn four_figures_with_four_series() {
        let figs = run(&small()).unwrap();
        assert_eq!(figs.len(), 4);
        for f in &figs {
            assert_eq!(f.series.len(), 4);
            for s in &f.series {
                assert!(!s.points.is_empty(), "{} empty", s.label);
            }
        }
    }

    #[test]
    fn times_are_increasing_and_residuals_fall_on_fv1() {
        // The "async-(5) beats CPU GS in wall time" claim needs the full
        // problem sizes (at small n the fixed GPU setup dominates, just
        // as it would in reality) — `verify`'s full-scale checklist
        // judges it. Structural checks here.
        let figs = run(&small()).unwrap();
        let f = figs.iter().find(|f| f.title.contains("(fv1)")).unwrap();
        for s in &f.series {
            for w in s.points.windows(2) {
                assert!(w[1].0 > w[0].0, "{}: time must increase", s.label);
            }
            let first = s.points.first().unwrap().1;
            let last = s.points.last().unwrap().1;
            assert!(last < first, "{}: residual must fall on fv1", s.label);
        }
    }
}
