//! Deterministic generators for the paper's test matrices and for
//! property-test inputs.
//!
//! The University of Florida collection is not reachable from this
//! environment, so each UFMC matrix used in the paper is replaced by a
//! generated matrix matching its *role*: size, sparsity structure,
//! diagonal-block mass, and — most importantly for the relaxation methods —
//! the spectral radius `rho(B)` of the Jacobi iteration matrix (Table 1).
//! See DESIGN.md §2 for the substitution table and the rationale.

mod chem;
mod fv;
mod poisson;
mod primes;
mod random;
mod structural;
mod trefethen;

pub use chem::chem_ztz;
pub use fv::{fv, fv_stencil, fv_with_target_rho};
pub use poisson::{
    convection_diffusion_2d, laplacian_1d, laplacian_2d_5pt, laplacian_2d_5pt_stencil,
    laplacian_2d_9pt, laplacian_3d_7pt, laplacian_3d_7pt_stencil,
};
pub use primes::{first_primes, sieve_upto};
pub use random::{random_diag_dominant, random_spd_tridiag_perturbed};
pub use structural::structural_biharmonic_sq;
pub use trefethen::trefethen;

use crate::{CsrMatrix, Result};

/// The seven test systems of the paper's Table 1, by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TestMatrix {
    /// `Chem97ZtZ` — statistical problem, n = 2541, rho(B) ≈ 0.7889.
    Chem97ZtZ,
    /// `fv1` — 2D FEM problem, n = 9604, rho(B) ≈ 0.8541.
    Fv1,
    /// `fv2` — 2D FEM problem, n = 9801, rho(B) ≈ 0.8541.
    Fv2,
    /// `fv3` — 2D FEM problem, n = 9801, rho(B) ≈ 0.9993.
    Fv3,
    /// `s1rmt3m1` — structural problem, n ≈ 5489, rho(B) ≈ 2.65 (Jacobi
    /// diverges; SPD, so tau-scaling applies).
    S1rmt3m1,
    /// `Trefethen_2000` — combinatorial problem, n = 2000, rho(B) ≈ 0.86.
    Trefethen2000,
    /// `Trefethen_20000` — combinatorial problem, n = 20000.
    Trefethen20000,
}

impl TestMatrix {
    /// All seven matrices in Table 1 order.
    pub const ALL: [TestMatrix; 7] = [
        TestMatrix::Chem97ZtZ,
        TestMatrix::Fv1,
        TestMatrix::Fv2,
        TestMatrix::Fv3,
        TestMatrix::S1rmt3m1,
        TestMatrix::Trefethen2000,
        TestMatrix::Trefethen20000,
    ];

    /// The UFMC name this matrix substitutes.
    pub fn name(&self) -> &'static str {
        match self {
            TestMatrix::Chem97ZtZ => "Chem97ZtZ",
            TestMatrix::Fv1 => "fv1",
            TestMatrix::Fv2 => "fv2",
            TestMatrix::Fv3 => "fv3",
            TestMatrix::S1rmt3m1 => "s1rmt3m1",
            TestMatrix::Trefethen2000 => "Trefethen_2000",
            TestMatrix::Trefethen20000 => "Trefethen_20000",
        }
    }

    /// Problem-kind description (Table 1 column).
    pub fn description(&self) -> &'static str {
        match self {
            TestMatrix::Chem97ZtZ => "statistical problem",
            TestMatrix::Fv1 | TestMatrix::Fv2 | TestMatrix::Fv3 => "2D/3D problem",
            TestMatrix::S1rmt3m1 => "structural problem",
            TestMatrix::Trefethen2000 | TestMatrix::Trefethen20000 => "combinatorial problem",
        }
    }

    /// The paper's reported `rho(M)` (Table 1), used as the generator's
    /// tuning target.
    pub fn paper_rho(&self) -> f64 {
        match self {
            TestMatrix::Chem97ZtZ => 0.7889,
            TestMatrix::Fv1 | TestMatrix::Fv2 => 0.8541,
            TestMatrix::Fv3 => 0.9993,
            TestMatrix::S1rmt3m1 => 2.65,
            TestMatrix::Trefethen2000 | TestMatrix::Trefethen20000 => 0.8601,
        }
    }

    /// The paper's reported dimension (Table 1). Generated dimensions match
    /// exactly except `s1rmt3m1` (5476 = 74^2 instead of 5489; the operator
    /// is grid-based).
    pub fn paper_n(&self) -> usize {
        match self {
            TestMatrix::Chem97ZtZ => 2541,
            TestMatrix::Fv1 => 9604,
            TestMatrix::Fv2 | TestMatrix::Fv3 => 9801,
            TestMatrix::S1rmt3m1 => 5489,
            TestMatrix::Trefethen2000 => 2000,
            TestMatrix::Trefethen20000 => 20000,
        }
    }

    /// Builds the substitute matrix. Deterministic: same output every call.
    pub fn build(&self) -> Result<CsrMatrix> {
        match self {
            TestMatrix::Chem97ZtZ => chem_ztz(2541, 0.7889),
            TestMatrix::Fv1 => fv_with_target_rho(98, 0.8541, 2.2),
            TestMatrix::Fv2 => fv_with_target_rho(99, 0.8541, 2.2),
            TestMatrix::Fv3 => fv_with_target_rho(99, 0.9993, 3.5),
            TestMatrix::S1rmt3m1 => structural_biharmonic_sq(74, 2.65),
            TestMatrix::Trefethen2000 => trefethen(2000),
            TestMatrix::Trefethen20000 => trefethen(20000),
        }
    }

    /// Builds a smaller variant with the same structure, for fast tests.
    pub fn build_small(&self) -> Result<CsrMatrix> {
        match self {
            TestMatrix::Chem97ZtZ => chem_ztz(301, 0.7889),
            TestMatrix::Fv1 => fv_with_target_rho(20, 0.8541, 1.5),
            TestMatrix::Fv2 => fv_with_target_rho(21, 0.8541, 1.5),
            TestMatrix::Fv3 => fv_with_target_rho(21, 0.995, 2.5),
            TestMatrix::S1rmt3m1 => structural_biharmonic_sq(18, 2.65),
            TestMatrix::Trefethen2000 => trefethen(200),
            TestMatrix::Trefethen20000 => trefethen(400),
        }
    }
}

/// Applies the smooth radial mesh grading `A -> S A S` in place, with
/// `s(x, y) = 10^(decades * (r - 1/2))`, `r = (x² + y²)/2` over the unit
/// square of an `m x m` grid: each entry becomes `(a_ij · s_i) · s_j`, in
/// that order. With 0 decades every `s_i` is exactly 1, and `a` is left as
/// it is. The grading inflates `cond(A)` like a graded mesh while leaving
/// the Jacobi iteration matrix *similar* (`D'⁻¹A' = S⁻¹(D⁻¹A)S`), so
/// `rho(B)` and `cond(D⁻¹A)` are untouched — the mechanism both the `fv`
/// family and the structural substitute use.
pub(crate) fn grade_radial(a: &mut CsrMatrix, m: usize, decades: f64) {
    debug_assert_eq!(a.n_rows(), m * m);
    if decades == 0.0 {
        return;
    }
    let mut s = vec![0.0f64; m * m];
    for i in 0..m {
        for j in 0..m {
            let x = (i as f64 + 1.0) / (m as f64 + 1.0);
            let y = (j as f64 + 1.0) / (m as f64 + 1.0);
            let r = 0.5 * (x * x + y * y);
            s[i * m + j] = 10f64.powf(decades * (r - 0.5));
        }
    }
    a.map_values(|i, j, v| v * s[i] * s[j]);
}

/// The right-hand side used throughout the experiments: `b = A * ones`,
/// so the exact solution is the all-ones vector and the error is directly
/// observable. (The paper does not state its RHS; a known solution lets
/// EXPERIMENTS.md report true errors alongside residuals.)
pub fn unit_solution_rhs(a: &CsrMatrix) -> Vec<f64> {
    let ones = vec![1.0; a.n_cols()];
    a.mul_vec(&ones).expect("square matrix with matching vector")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterationMatrix;

    #[test]
    fn all_small_variants_build_and_are_spd_shaped() {
        for tm in TestMatrix::ALL {
            let a = tm.build_small().unwrap_or_else(|e| panic!("{}: {e}", tm.name()));
            assert!(a.is_square(), "{}", tm.name());
            assert!(a.is_symmetric_within(1e-10), "{} not symmetric", tm.name());
            assert!(a.nonzero_diagonal().is_ok(), "{}", tm.name());
            assert!(a.validate().is_ok(), "{}", tm.name());
        }
    }

    #[test]
    fn small_variants_have_expected_convergence_class() {
        for tm in TestMatrix::ALL {
            let a = tm.build_small().unwrap();
            let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
            if tm == TestMatrix::S1rmt3m1 {
                assert!(rho > 1.0, "{} should be Jacobi-divergent, rho = {rho}", tm.name());
            } else {
                assert!(rho < 1.0, "{} should be Jacobi-convergent, rho = {rho}", tm.name());
            }
        }
    }

    #[test]
    fn unit_solution_rhs_gives_ones_solution() {
        let a = laplacian_1d(10);
        let b = unit_solution_rhs(&a);
        // residual of x = ones must vanish
        let r = a.residual(&b, &[1.0; 10]).unwrap();
        assert!(r.iter().all(|&v| v.abs() < 1e-14));
    }
}
