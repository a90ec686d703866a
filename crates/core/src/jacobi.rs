//! The synchronous Jacobi method (paper §2.1, Eq. 2):
//! `x_i^{k+1} = (b_i - sum_{j != i} a_ij x_j^k) / a_ii`.

use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_sparse::{CsrMatrix, Result};

/// Solves `A x = b` with Jacobi iterations starting from `x0`.
///
/// Converges iff `rho(I - D^{-1}A) < 1`. Fails fast on a zero diagonal.
pub fn jacobi(a: &CsrMatrix, b: &[f64], x0: &[f64], opts: &SolveOptions) -> Result<SolveResult> {
    check_system(a, b, x0);
    let inv_diag: Vec<f64> = a.nonzero_diagonal()?.iter().map(|&d| 1.0 / d).collect();
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut x_new = vec![0.0; n];
    let mut run = Progress::new(a, b, opts);

    while run.running() {
        for i in 0..n {
            let mut acc = b[i];
            for (j, v) in a.row_iter(i) {
                if j != i {
                    acc -= v * x[j];
                }
            }
            x_new[i] = acc * inv_diag[i];
        }
        std::mem::swap(&mut x, &mut x_new);
        run.step(&x);
    }
    Ok(run.finish(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::gen::{laplacian_1d, laplacian_2d_5pt};
    use abr_sparse::{CsrMatrix, IterationMatrix};

    #[test]
    fn solves_laplacian() {
        let a = laplacian_1d(20);
        let x_true = vec![1.0; 20];
        let b = a.mul_vec(&x_true).unwrap();
        let r = jacobi(&a, &b, &[0.0; 20], &SolveOptions::to_tolerance(1e-10, 5000)).unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn convergence_rate_matches_spectral_radius() {
        // Asymptotically the residual shrinks by rho(B) per iteration.
        let a = laplacian_2d_5pt(8);
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        let b = a.mul_vec(&vec![1.0; 64]).unwrap();
        let r = jacobi(&a, &b, &vec![0.0; 64], &SolveOptions::fixed_iterations(200)).unwrap();
        let observed = (r.history[199] / r.history[150]).powf(1.0 / 49.0);
        assert!((observed - rho).abs() < 0.01, "observed {observed} vs rho {rho}");
    }

    #[test]
    fn diverges_when_rho_above_one() {
        // Not diagonally dominant: 2x2 with rho(B) = 2.
        let mut coo = abr_sparse::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push_sym(0, 1, 2.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        let a = coo.to_csr();
        let b = vec![1.0, 1.0];
        let r = jacobi(&a, &b, &[0.0, 0.0], &SolveOptions::fixed_iterations(40)).unwrap();
        assert!(!r.converged);
        assert!(r.history[30] > r.history[1], "residual must grow");
    }

    #[test]
    fn zero_diagonal_is_error() {
        let a = CsrMatrix::from_diagonal(&[1.0, 0.0]);
        assert!(jacobi(&a, &[1.0, 1.0], &[0.0, 0.0], &SolveOptions::default()).is_err());
    }

    #[test]
    fn history_length_matches_iterations() {
        let a = laplacian_1d(10);
        let b = a.mul_vec(&[1.0; 10]).unwrap();
        let r = jacobi(&a, &b, &[0.0; 10], &SolveOptions::fixed_iterations(25)).unwrap();
        assert_eq!(r.iterations, 25);
        assert_eq!(r.history.len(), 25);
        // monotone decreasing for this SPD diagonally dominant system
        for w in r.history.windows(2) {
            assert!(w[1] <= w[0] * (1.0 + 1e-12));
        }
    }

    #[test]
    fn check_every_zero_checks_every_iteration() {
        let a = laplacian_1d(10);
        let b = a.mul_vec(&[1.0; 10]).unwrap();
        let opts =
            |check_every| SolveOptions { check_every, ..SolveOptions::to_tolerance(1e-6, 5000) };
        let zero = jacobi(&a, &b, &[0.0; 10], &opts(0)).unwrap();
        let one = jacobi(&a, &b, &[0.0; 10], &opts(1)).unwrap();
        assert!(one.converged);
        assert_eq!(zero.iterations, one.iterations);
        assert_eq!(zero.x, one.x);
        assert_eq!(zero.final_residual.to_bits(), one.final_residual.to_bits());
    }

    #[test]
    fn starts_from_given_guess() {
        let a = laplacian_1d(5);
        let x_true = vec![3.0; 5];
        let b = a.mul_vec(&x_true).unwrap();
        // starting at the solution: zero iterations of work needed
        let r = jacobi(&a, &b, &x_true, &SolveOptions::to_tolerance(1e-14, 10)).unwrap();
        assert!(r.converged);
        assert!(r.final_residual < 1e-14);
    }
}
