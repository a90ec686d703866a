//! The Gauss-Seidel method: like Jacobi but each component update
//! immediately uses the freshly computed values of earlier components —
//! the synchronous CPU reference the paper compares against.

use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_sparse::{CsrMatrix, Result};

/// Solves `A x = b` with forward Gauss-Seidel sweeps.
pub fn gauss_seidel(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let inv_diag: Vec<f64> = a.nonzero_diagonal()?.iter().map(|&d| 1.0 / d).collect();
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut run = Progress::new(a, b, opts);

    while run.running() {
        for i in 0..n {
            let mut acc = b[i];
            for (j, v) in a.row_iter(i) {
                if j != i {
                    acc -= v * x[j];
                }
            }
            x[i] = acc * inv_diag[i];
        }
        run.step(&x);
    }
    Ok(run.finish(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi;
    use abr_sparse::gen::{laplacian_1d, laplacian_2d_5pt};

    #[test]
    fn solves_laplacian() {
        let a = laplacian_1d(30);
        let x_true: Vec<f64> = (0..30).map(|i| (i as f64 * 0.3).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r =
            gauss_seidel(&a, &b, &vec![0.0; 30], &SolveOptions::to_tolerance(1e-12, 5000)).unwrap();
        assert!(r.converged);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-9);
        }
    }

    #[test]
    fn converges_about_twice_as_fast_as_jacobi() {
        // The classical result the paper invokes in §4.3: for consistently
        // ordered matrices rho(GS) = rho(Jacobi)^2.
        let a = laplacian_2d_5pt(10);
        let b = a.mul_vec(&vec![1.0; 100]).unwrap();
        let opts = SolveOptions::fixed_iterations(120);
        let j = jacobi(&a, &b, &vec![0.0; 100], &opts).unwrap();
        let g = gauss_seidel(&a, &b, &vec![0.0; 100], &opts).unwrap();
        let rate_j = (j.history[119] / j.history[79]).powf(1.0 / 40.0);
        let rate_g = (g.history[119] / g.history[79]).powf(1.0 / 40.0);
        assert!(
            (rate_g - rate_j * rate_j).abs() < 0.02,
            "GS rate {rate_g} vs Jacobi^2 {}",
            rate_j * rate_j
        );
    }

    #[test]
    fn tolerance_stop_before_max() {
        let a = laplacian_1d(10);
        let b = a.mul_vec(&[1.0; 10]).unwrap();
        let r = gauss_seidel(&a, &b, &[0.0; 10], &SolveOptions::to_tolerance(1e-6, 100000))
            .unwrap();
        assert!(r.converged);
        assert!(r.iterations < 100000);
    }
}
