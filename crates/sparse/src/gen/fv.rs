//! The `fv1`/`fv2`/`fv3` substitute family.
//!
//! The UFMC `fv*` matrices are 2D finite-element discretisations with ~9
//! entries per row whose Jacobi iteration matrices have spectral radii
//! 0.8541 (fv1, fv2) and 0.9993 (fv3), while `cond(A)` is several orders
//! of magnitude larger than `cond(D^{-1}A)` — the signature of a strongly
//! graded mesh.
//!
//! We reproduce all three signatures from the 9-point FEM Laplacian `K`:
//!
//! 1. a diagonal shift `A0 = K + sigma I` places `rho(B)` exactly at the
//!    target (closed form via one Lanczos run on `K`, since
//!    `rho(B) = max(d0 - lam_min, lam_max - d0) / (d0 + sigma)` for the
//!    constant stencil diagonal `d0 = 8/3`);
//! 2. a symmetric diagonal grading `A = S A0 S` with smoothly varying
//!    `s_i` spanning `grading_decades` orders of magnitude inflates
//!    `cond(A)` like a graded mesh would — and leaves the Jacobi iteration
//!    matrix *similar* (hence `rho(B)` and `cond(D^{-1}A)` unchanged),
//!    because `D'^{-1}A' = S^{-1} (D^{-1}A) S`.

use super::poisson::laplacian_2d_9pt;
use crate::spectra::lanczos_extreme;
use crate::stencil::StencilDescriptor;
use crate::{CsrMatrix, Result, SparseError};

/// The 9-point FEM Laplacian with diagonal shift `sigma` and symmetric
/// grading over `grading_decades` decades on an `m x m` grid: the
/// [`StencilDescriptor::fv_9pt`] stencil, assembled and graded in place.
/// A shift that cancels the diagonal (`sigma = -8/3`) is an error.
pub fn fv(m: usize, sigma: f64, grading_decades: f64) -> Result<CsrMatrix> {
    let mut a = StencilDescriptor::fv_9pt(m, sigma)?.assemble();
    super::grade_radial(&mut a, m, grading_decades);
    Ok(a)
}

/// The *ungraded* `fv` matrix (`grading_decades = 0`) paired with its
/// [`StencilDescriptor`]: centre `8/3 + sigma`, eight `-1/3` neighbours.
/// Graded variants are not constant-coefficient and have no stencil form.
/// The matrix is assembled from the descriptor, and the descriptor is
/// still verified against it here (an `Err` would mean generator and
/// descriptor drifted apart), so callers can hand the pair straight to
/// the matrix-free sweep tier. A shift that cancels the centre is an
/// error.
pub fn fv_stencil(m: usize, sigma: f64) -> Result<(CsrMatrix, StencilDescriptor)> {
    let a = fv(m, sigma, 0.0)?;
    let d = StencilDescriptor::fv_9pt(m, sigma)?;
    d.verify(&a)?;
    Ok((a, d))
}

/// Builds an `fv` matrix whose measured `rho(B)` equals `target_rho`.
///
/// Any `target_rho` in `(0, 1)` is attainable: both branches of
/// `rho(B) = max(d0 - lam_min, lam_max - d0) / (d0 + sigma)` shrink as the
/// shift grows. Targets at or above 1 would require a shift that destroys
/// positive definiteness and are rejected.
pub fn fv_with_target_rho(m: usize, target_rho: f64, grading_decades: f64) -> Result<CsrMatrix> {
    let mut k = laplacian_2d_9pt(m);
    let d0 = 8.0 / 3.0;
    let est = lanczos_extreme(&k, 200.min(m * m))?;
    let numerator = (d0 - est.lambda_min).max(est.lambda_max - d0);
    // rho(B) = numerator / (d0 + sigma)  =>  sigma in closed form.
    let sigma = numerator / target_rho - d0;
    // Keep A positive definite: need sigma > -lambda_min(K).
    if sigma <= -0.9 * est.lambda_min {
        return Err(SparseError::Generator(format!(
            "target rho {target_rho} needs shift {sigma:.4} which would \
             destroy positive definiteness (lambda_min(K) = {:.2e})",
            est.lambda_min
        )));
    }
    // Verify the other branch of the max did not take over.
    let lam_max_shift = (est.lambda_max + sigma) / (d0 + sigma);
    if lam_max_shift - 1.0 > target_rho + 1e-9 {
        return Err(SparseError::Generator(
            "upper spectrum violates the requested rho; decrease target".into(),
        ));
    }
    // K becomes `fv(m, sigma, grading_decades)` in place: its diagonal
    // takes the shifted stencil's centre, whose bits are `d0 + sigma`.
    let centre = StencilDescriptor::fv_9pt(m, sigma)?.center();
    k.map_values(|r, c, v| if r == c { centre } else { v });
    super::grade_radial(&mut k, m, grading_decades);
    Ok(k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spectra::cond_symmetric;
    use crate::IterationMatrix;

    #[test]
    fn fv_is_symmetric_spd_shaped() {
        let a = fv(10, 0.3, 1.0).unwrap();
        assert_eq!(a.n_rows(), 100);
        assert!(a.is_symmetric_within(1e-12));
        assert!(a.diagonal().iter().all(|&d| d > 0.0));
    }

    #[test]
    fn target_rho_hit_small() {
        let target = 0.8541;
        let a = fv_with_target_rho(16, target, 0.0).unwrap();
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        assert!((rho - target).abs() < 2e-3, "rho = {rho}");
    }

    #[test]
    fn grading_preserves_rho() {
        let target = 0.9;
        let plain = fv_with_target_rho(12, target, 0.0).unwrap();
        let graded = fv_with_target_rho(12, target, 2.0).unwrap();
        let r1 = IterationMatrix::new(&plain).unwrap().spectral_radius().unwrap();
        let r2 = IterationMatrix::new(&graded).unwrap().spectral_radius().unwrap();
        assert!((r1 - r2).abs() < 1e-4, "{r1} vs {r2}");
    }

    #[test]
    fn grading_inflates_cond() {
        let plain = fv_with_target_rho(12, 0.9, 0.0).unwrap();
        let graded = fv_with_target_rho(12, 0.9, 2.0).unwrap();
        let c1 = cond_symmetric(&plain, 144).unwrap();
        let c2 = cond_symmetric(&graded, 144).unwrap();
        assert!(c2 > 10.0 * c1, "cond {c1} -> {c2}");
    }

    #[test]
    fn impossible_target_rejected() {
        // rho >= 1 requires a shift past the positive-definiteness limit.
        assert!(fv_with_target_rho(10, 1.0, 0.0).is_err());
        assert!(fv_with_target_rho(10, 1.3, 0.0).is_err());
    }

    #[test]
    fn small_targets_attainable_with_large_shift() {
        let a = fv_with_target_rho(10, 0.2, 0.0).unwrap();
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        assert!((rho - 0.2).abs() < 2e-3, "rho = {rho}");
    }

    #[test]
    fn fv_stencil_pair_survives_its_bitwise_cross_check() {
        // the matrix is assembled from the descriptor and skips the
        // zero-decade grading, so the cross-check sees the descriptor's
        // constant coefficients bit-exact
        let (a, d) = fv_stencil(8, 0.37).unwrap();
        assert_eq!(d.n(), a.n_rows());
        assert_eq!(d.center(), 8.0 / 3.0 + 0.37);
    }

    #[test]
    fn a_shift_that_cancels_the_centre_is_a_typed_error() {
        let sigma = -8.0 / 3.0;
        assert!(matches!(fv_stencil(4, sigma), Err(SparseError::Stencil(_))));
        assert!(matches!(fv(4, sigma, 0.0), Err(SparseError::Stencil(_))));
    }

    #[test]
    fn nnz_about_nine_per_row() {
        let a = fv(20, 0.4, 1.0).unwrap();
        let per_row = a.nnz() as f64 / a.n_rows() as f64;
        assert!(per_row > 8.0 && per_row <= 9.0, "{per_row}");
    }
}
