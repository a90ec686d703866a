//! Chebyshev semi-iteration: polynomial acceleration of the damped Jacobi
//! method, needing only eigenvalue *bounds* of `D^{-1}A` (no inner
//! products — unlike CG it has **no synchronising reductions**, which is
//! exactly the property the paper's asynchronous programme prizes; it is
//! the classic middle ground between stationary relaxation and Krylov
//! methods).

use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_sparse::scaling::jacobi_operator_extremes;
use abr_sparse::{CsrMatrix, Result, SparseError};

/// Solves the SPD system `A x = b` with Chebyshev acceleration over the
/// Jacobi-preconditioned operator, given bounds
/// `0 < lambda_min <= lambda(D^{-1}A) <= lambda_max`.
pub fn chebyshev(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    lambda_min: f64,
    lambda_max: f64,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    if !(lambda_min > 0.0 && lambda_max >= lambda_min) {
        return Err(SparseError::Generator(format!(
            "need 0 < lambda_min <= lambda_max, got [{lambda_min}, {lambda_max}]"
        )));
    }
    let inv_diag: Vec<f64> = a.nonzero_diagonal()?.iter().map(|&d| 1.0 / d).collect();
    let theta = 0.5 * (lambda_max + lambda_min);
    let delta = 0.5 * (lambda_max - lambda_min);

    let mut x = x0.to_vec();
    let mut r = a.residual(b, &x)?;
    let mut z: Vec<f64> = r.iter().zip(&inv_diag).map(|(&ri, &di)| ri * di).collect();
    // Saad, Iterative Methods for Sparse Linear Systems, alg. 12.1,
    // applied to the Jacobi-preconditioned operator (z = D^{-1} r):
    //   sigma1 = theta/delta, rho_0 = 1/sigma1, d_0 = z_0/theta
    //   x   <- x + d
    //   rho <- 1/(2 sigma1 - rho)
    //   d   <- rho_new * rho_old * d + (2 rho_new / delta) * z
    // Degenerate delta ~ 0 (a single eigenvalue): one damped step
    // x <- x + z/theta solves the system; the loop below keeps working
    // because d collapses to z/theta-like updates with rho -> 1/(2 sigma1).
    let delta = delta.max(1e-12 * theta);
    let sigma1 = theta / delta;
    let mut rho = 1.0 / sigma1;
    let mut d: Vec<f64> = z.iter().map(|&zi| zi / theta).collect();
    let nb = abr_sparse::blas1::norm2(b).max(f64::MIN_POSITIVE);
    let mut run = Progress::new(a, b, opts);

    while run.running() {
        abr_sparse::blas1::axpy(1.0, &d, &mut x);
        r = a.residual(b, &x)?;
        for ((zi, &ri), &di) in z.iter_mut().zip(&r).zip(&inv_diag) {
            *zi = ri * di;
        }
        let rho_new = 1.0 / (2.0 * sigma1 - rho);
        for (di_, &zi) in d.iter_mut().zip(&z) {
            *di_ = rho_new * rho * *di_ + (2.0 * rho_new / delta) * zi;
        }
        rho = rho_new;
        // `||r|| / max(||b||, MIN_POSITIVE)`: not `relative_residual`, so
        // it is reported as computed and the final residual is measured.
        run.step_with(abr_sparse::blas1::norm2(&r) / nb);
    }
    Ok(run.finish(x))
}

/// Chebyshev with Lanczos-estimated eigenvalue bounds (slightly widened
/// for safety). Returns the bounds actually used.
pub fn auto_chebyshev(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
) -> Result<(SolveResult, (f64, f64))> {
    let (lo, hi) = jacobi_operator_extremes(a)?;
    let lo = (lo * 0.95).max(f64::MIN_POSITIVE);
    let hi = hi * 1.05;
    Ok((chebyshev(a, b, x0, lo, hi, opts)?, (lo, hi)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi;
    use abr_sparse::gen::{laplacian_2d_5pt, trefethen};

    #[test]
    fn converges_on_poisson_much_faster_than_jacobi() {
        let a = laplacian_2d_5pt(12);
        let n = 144;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 100_000);
        let (cheb, bounds) = auto_chebyshev(&a, &b, &vec![0.0; n], &opts).unwrap();
        let jac = jacobi(&a, &b, &vec![0.0; n], &opts).unwrap();
        assert!(cheb.converged, "residual {}", cheb.final_residual);
        assert!(bounds.0 > 0.0 && bounds.1 > bounds.0);
        assert!(
            cheb.iterations * 5 < jac.iterations,
            "Chebyshev {} vs Jacobi {}",
            cheb.iterations,
            jac.iterations
        );
    }

    #[test]
    fn converges_on_trefethen() {
        let a = trefethen(300).unwrap();
        let b = a.mul_vec(&vec![1.0; 300]).unwrap();
        let (r, _) =
            auto_chebyshev(&a, &b, &vec![0.0; 300], &SolveOptions::to_tolerance(1e-10, 2_000))
                .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        assert!(r.iterations < 60, "{}", r.iterations);
    }

    #[test]
    fn wrong_bounds_rejected() {
        let a = laplacian_2d_5pt(4);
        let b = vec![1.0; 16];
        assert!(chebyshev(&a, &b, &[0.0; 16], 0.0, 2.0, &SolveOptions::default()).is_err());
        assert!(chebyshev(&a, &b, &[0.0; 16], 1.0, 0.5, &SolveOptions::default()).is_err());
    }

    #[test]
    fn reaches_exact_solution() {
        let a = laplacian_2d_5pt(8);
        let n = 64;
        let x_true: Vec<f64> = (0..n).map(|i| ((i * 7) % 11) as f64).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let (r, _) =
            auto_chebyshev(&a, &b, &vec![0.0; n], &SolveOptions::to_tolerance(1e-11, 5_000))
                .unwrap();
        assert!(r.converged);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }
}
