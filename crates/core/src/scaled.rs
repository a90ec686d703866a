//! Damped (tau-scaled) relaxation for SPD systems with `rho(B) > 1`.
//!
//! §4.2 of the paper: `s1rmt3m1` is SPD yet Jacobi-divergent
//! (`rho(B) ≈ 2.65`); "Jacobi-based methods still can be used after a
//! proper scaling is added, e.g., taking `B = I - tau D^{-1}A` with
//! `tau = 2/(lambda_1 + lambda_n)`". The damped update is
//! `x <- x + tau D^{-1}(b - A x)`; the same damping drops into the local
//! sweeps of async-(k) via [`crate::AsyncBlockSolver::damping`].

use crate::async_block::AsyncBlockSolver;
use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_sparse::scaling::optimal_tau;
use abr_sparse::{CsrMatrix, Result, SparseError};

/// Synchronous damped Jacobi: `x <- x + tau D^{-1}(b - A x)`.
pub fn damped_jacobi(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    tau: f64,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    if tau <= 0.0 || !tau.is_finite() {
        return Err(SparseError::Generator(format!("damping must be positive, got {tau}")));
    }
    let inv_diag: Vec<f64> = a.nonzero_diagonal()?.iter().map(|&d| 1.0 / d).collect();
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = vec![0.0; n];
    let mut run = Progress::new(a, b, opts);

    while run.running() {
        a.spmv(&x, &mut r)?;
        for i in 0..n {
            x[i] += tau * inv_diag[i] * (b[i] - r[i]);
        }
        run.step(&x);
    }
    Ok(run.finish(x))
}

/// An async-(k) solver with the optimal damping for this SPD matrix —
/// the block-asynchronous counterpart of §4.2's remedy.
pub fn damped_async_solver(a: &CsrMatrix, local_iters: usize) -> Result<AsyncBlockSolver> {
    let tau = optimal_tau(a)?;
    Ok(AsyncBlockSolver { damping: tau, ..AsyncBlockSolver::async_k(local_iters) })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi;
    use abr_sparse::gen::structural_biharmonic_sq;
    use abr_sparse::RowPartition;

    fn divergent_system() -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = structural_biharmonic_sq(8, 2.65).unwrap();
        let n = a.n_rows();
        let x_true = vec![1.0; n];
        let b = a.mul_vec(&x_true).unwrap();
        (a, b, x_true)
    }

    #[test]
    fn plain_jacobi_diverges_damped_converges() {
        let (a, b, _) = divergent_system();
        let n = a.n_rows();
        let plain =
            jacobi(&a, &b, &vec![0.0; n], &SolveOptions::fixed_iterations(50)).unwrap();
        assert!(plain.history[40] > plain.history[5], "plain Jacobi must diverge");

        let tau = optimal_tau(&a).unwrap();
        assert!(tau > 0.0 && tau < 1.0, "tau = {tau}");
        let damped =
            damped_jacobi(&a, &b, &vec![0.0; n], tau, &SolveOptions::to_tolerance(1e-8, 200000))
                .unwrap();
        assert!(damped.converged, "residual {}", damped.final_residual);
    }

    #[test]
    fn damped_async_converges_on_divergent_system() {
        let (a, b, _) = divergent_system();
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let solver = damped_async_solver(&a, 5).unwrap();
        let r = solver
            .solve(&a, &b, &vec![0.0; n], &p, &SolveOptions::to_tolerance(1e-6, 200000))
            .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
    }

    #[test]
    fn invalid_tau_rejected() {
        let (a, b, _) = divergent_system();
        let n = a.n_rows();
        assert!(damped_jacobi(&a, &b, &vec![0.0; n], 0.0, &SolveOptions::default()).is_err());
        assert!(damped_jacobi(&a, &b, &vec![0.0; n], -1.0, &SolveOptions::default()).is_err());
    }

    #[test]
    fn tau_one_equals_plain_jacobi() {
        let a = abr_sparse::gen::laplacian_1d(10);
        let b = a.mul_vec(&[1.0; 10]).unwrap();
        let opts = SolveOptions::fixed_iterations(8);
        let d = damped_jacobi(&a, &b, &[0.0; 10], 1.0, &opts).unwrap();
        let j = jacobi(&a, &b, &[0.0; 10], &opts).unwrap();
        for (x1, x2) in d.x.iter().zip(&j.x) {
            assert!((x1 - x2).abs() < 1e-14);
        }
    }
}
