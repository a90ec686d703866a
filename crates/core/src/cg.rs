//! The conjugate-gradient baseline (Saad, *Iterative Methods for Sparse
//! Linear Systems*, alg. 6.18) — the "highly tuned GPU CG" the paper's
//! §4.4 compares the block-asynchronous method against.

use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_sparse::{blas1, CsrMatrix, Result};

/// Solves the SPD system `A x = b` with plain (unpreconditioned) CG.
pub fn conjugate_gradient(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = a.residual(b, &x)?;
    let mut p = r.clone();
    let mut ap = vec![0.0; n];
    let nb = blas1::norm2(b).max(f64::MIN_POSITIVE);
    let mut rs = blas1::dot(&r, &r);

    let mut run = Progress::new(a, b, opts);
    run.judge(rs.sqrt() / nb);

    while run.running() {
        a.spmv(&p, &mut ap)?;
        let pap = blas1::dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            // A not SPD along p (or breakdown): report what we have.
            break;
        }
        let alpha = rs / pap;
        blas1::axpy(alpha, &p, &mut x);
        blas1::axpy(-alpha, &ap, &mut r);
        let rs_new = blas1::dot(&r, &r);
        let beta = rs_new / rs;
        blas1::xpay(&r, beta, &mut p);
        rs = rs_new;
        run.step_with(rs.sqrt() / nb);
    }
    Ok(run.finish(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::gen::{laplacian_2d_5pt, trefethen};

    #[test]
    fn exact_in_n_steps_small() {
        // CG is a direct method in exact arithmetic: n steps suffice.
        let a = laplacian_2d_5pt(3);
        let x_true: Vec<f64> = (0..9).map(|i| i as f64 - 4.0).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let r =
            conjugate_gradient(&a, &b, &[0.0; 9], &SolveOptions::to_tolerance(1e-12, 9))
                .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
    }

    #[test]
    fn much_faster_than_stationary_methods() {
        let a = laplacian_2d_5pt(15);
        let n = 225;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let r = conjugate_gradient(&a, &b, &vec![0.0; n], &SolveOptions::to_tolerance(1e-10, 500))
            .unwrap();
        assert!(r.converged);
        assert!(r.iterations < 60, "CG took {} iterations", r.iterations);
    }

    #[test]
    fn trefethen_converges_quickly() {
        // cond(D^{-1}A) is small but cond(A) is big; plain CG still does
        // fine on the well-separated prime diagonal.
        let a = trefethen(200).unwrap();
        let b = a.mul_vec(&vec![1.0; 200]).unwrap();
        let r = conjugate_gradient(&a, &b, &vec![0.0; 200], &SolveOptions::to_tolerance(1e-12, 400))
            .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
    }

    #[test]
    fn breakdown_on_indefinite_reported_not_panicked() {
        // indefinite diagonal: p'Ap goes negative immediately
        let a = abr_sparse::CsrMatrix::from_diagonal(&[1.0, -1.0]);
        let r = conjugate_gradient(&a, &[1.0, 1.0], &[0.0, 0.0], &SolveOptions::default())
            .unwrap();
        assert!(!r.converged || r.final_residual <= 1e-12);
    }

    #[test]
    fn history_recorded() {
        let a = laplacian_2d_5pt(6);
        let b = a.mul_vec(&vec![1.0; 36]).unwrap();
        let r = conjugate_gradient(&a, &b, &vec![0.0; 36], &SolveOptions::fixed_iterations(30))
            .unwrap();
        assert_eq!(r.history.len(), r.iterations);
        assert!(r.history.last().unwrap() < &1e-8);
    }
}
