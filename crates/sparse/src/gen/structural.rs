//! The `s1rmt3m1` substitute: an SPD "structural problem" on which plain
//! Jacobi (and hence all the relaxation schemes) **diverges**.
//!
//! UFMC `s1rmt3m1` is a shell/structural FEM matrix with
//! `rho(I - D^{-1}A) ≈ 2.65 > 1` despite being SPD (Table 1). The role it
//! plays in the paper is exactly "SPD but Jacobi-divergent" (Figures 6e,
//! 7e; §4.2 suggests tau-scaling as the remedy).
//!
//! Our substitute is the fourth power of the shifted 2D Laplacian,
//! `A = (L + w I)^4`, computed by repeated SpGEMM — a plate-bending-squared
//! operator, also structural in character, dense-ish at ~41 entries per
//! row. Powers of an SPD matrix are SPD, while the diagonal grows much
//! slower than the extreme eigenvalue, so `lambda_max(D^{-1}A)` exceeds 2
//! and Jacobi diverges. The shift `w` is the tuning knob: `rho(B)`
//! decreases continuously in `w`, and a bisection on the measured radius
//! places it at the paper's 2.65.

use super::poisson::laplacian_2d_5pt;
use crate::scaling::jacobi_operator_extremes;
use crate::{CsrMatrix, Result, SparseError};

/// Builds the structural substitute on an `m x m` grid (n = m^2) with
/// measured `rho(B)` ≈ `target_rho` (> 1).
pub fn structural_biharmonic_sq(m: usize, target_rho: f64) -> Result<CsrMatrix> {
    if target_rho <= 1.0 {
        return Err(SparseError::Generator(format!(
            "structural generator targets a divergent radius (> 1), got {target_rho}"
        )));
    }
    let l = laplacian_2d_5pt(m);
    let n = m * m;
    let eye = CsrMatrix::identity(n);

    let rho_of = |w: f64| -> Result<f64> {
        let a = l.add_scaled(1.0, &eye, w)?.pow(4)?;
        jacobi_radius_spd(&a)
    };

    // rho(w) is continuous and decreasing; bracket the target.
    let mut lo = 0.0;
    let mut hi = 8.0;
    let rho_lo = rho_of(lo)?;
    let rho_hi = rho_of(hi)?;
    if !(rho_hi <= target_rho && target_rho <= rho_lo) {
        return Err(SparseError::Generator(format!(
            "target rho {target_rho} outside attainable range [{rho_hi:.3}, {rho_lo:.3}]"
        )));
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let rho = rho_of(mid)?;
        if rho > target_rho {
            lo = mid;
        } else {
            hi = mid;
        }
        if (hi - lo) < 1e-4 {
            break;
        }
    }
    let w = 0.5 * (lo + hi);
    let mut a = l.add_scaled(1.0, &eye, w)?.pow(4)?;
    // Symmetric diagonal grading (graded shell thickness): inflates
    // cond(A) toward the UFMC original's ~1e6 while leaving rho(B)
    // untouched (similarity; see grade_radial).
    super::grade_radial(&mut a, m, 2.0);
    Ok(a)
}

/// `rho(I - D^{-1}A)` for SPD `A`, from the extreme eigenvalues of
/// `D^{-1}A` (see [`jacobi_operator_extremes`]).
fn jacobi_radius_spd(a: &CsrMatrix) -> Result<f64> {
    let (lo, hi) = jacobi_operator_extremes(a)?;
    Ok((1.0 - lo).abs().max((hi - 1.0).abs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterationMatrix;

    #[test]
    fn rho_hits_target() {
        let a = structural_biharmonic_sq(18, 2.65).unwrap();
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        assert!((rho - 2.65).abs() < 0.05, "rho = {rho}");
    }

    #[test]
    fn matrix_is_spd() {
        let a = structural_biharmonic_sq(10, 2.65).unwrap();
        assert!(a.is_symmetric_within(1e-8));
        let eigs = a.to_dense().symmetric_eigenvalues();
        assert!(eigs[0] > 0.0, "lambda_min = {}", eigs[0]);
    }

    #[test]
    fn row_density_matches_structural_character() {
        let a = structural_biharmonic_sq(18, 2.65).unwrap();
        let per_row = a.nnz() as f64 / a.n_rows() as f64;
        // 41-point interior stencil, minus boundary truncation.
        assert!(per_row > 25.0 && per_row <= 41.0, "{per_row}");
    }

    #[test]
    fn convergent_target_rejected() {
        assert!(structural_biharmonic_sq(10, 0.9).is_err());
    }
}
