//! Poisson-equation stencil matrices: the standard model problems of
//! iterative-solver analysis, used as building blocks by the `fv` and
//! `structural` generators and directly in tests/benches. The
//! constant-coefficient ones are assembled from their
//! [`StencilDescriptor`] in one pass.

use crate::stencil::StencilDescriptor;
use crate::{CooMatrix, CsrMatrix};

/// 1D Laplacian `tridiag(-1, 2, -1)` with Dirichlet boundaries.
pub fn laplacian_1d(n: usize) -> CsrMatrix {
    let mut coo = CooMatrix::with_capacity(n, n, 3 * n);
    for i in 0..n {
        coo.push(i, i, 2.0).expect("in bounds");
        if i + 1 < n {
            coo.push_sym(i, i + 1, -1.0).expect("in bounds");
        }
    }
    coo.to_csr()
}

/// 2D 5-point Laplacian on an `m x m` grid (n = m^2), Dirichlet boundaries:
/// [`StencilDescriptor::poisson_2d_5pt`], assembled.
pub fn laplacian_2d_5pt(m: usize) -> CsrMatrix {
    StencilDescriptor::poisson_2d_5pt(m).assemble()
}

/// [`laplacian_2d_5pt`] paired with its [`StencilDescriptor`] — the input
/// the matrix-free sweep tier wants. The matrix is assembled from the
/// descriptor, so it verifies by construction; hand-loaded matrices go
/// through [`StencilDescriptor::verify`] themselves.
pub fn laplacian_2d_5pt_stencil(m: usize) -> (CsrMatrix, StencilDescriptor) {
    let d = StencilDescriptor::poisson_2d_5pt(m);
    (d.assemble(), d)
}

/// [`laplacian_3d_7pt`] paired with its [`StencilDescriptor`] (see
/// [`laplacian_2d_5pt_stencil`]).
pub fn laplacian_3d_7pt_stencil(m: usize) -> (CsrMatrix, StencilDescriptor) {
    let d = StencilDescriptor::poisson_3d_7pt(m);
    (d.assemble(), d)
}

/// 2D 9-point (bilinear Q1 FEM) Laplacian on an `m x m` grid:
/// center `8/3`, all eight neighbours `-1/3`, assembled from
/// [`StencilDescriptor::fv_9pt`] with no shift. This is the stencil the
/// `fv` generator perturbs; its nnz count (~9 per row) matches the UFMC
/// `fv*` family.
pub fn laplacian_2d_9pt(m: usize) -> CsrMatrix {
    StencilDescriptor::fv_9pt(m, 0.0).expect("the centre 8/3 is nonzero").assemble()
}

/// 2D convection-diffusion operator on an `m x m` grid:
/// `-eps * Laplacian + (wx, wy) . grad` with first-order upwinding —
/// the standard *nonsymmetric* model problem. Diagonally dominant for
/// every `eps > 0` and wind `(wx, wy)`, so the asynchronous convergence
/// condition `rho(|B|) < 1` holds and the chaotic solvers apply.
pub fn convection_diffusion_2d(m: usize, eps: f64, wx: f64, wy: f64) -> CsrMatrix {
    assert!(eps > 0.0, "diffusion must be positive");
    let n = m * m;
    let h = 1.0 / (m as f64 + 1.0);
    let idx = |i: usize, j: usize| i * m + j;
    let mut coo = CooMatrix::with_capacity(n, n, 5 * n);
    // upwind fluxes: wind +x takes from the left neighbour, etc.
    let (wxp, wxm) = (wx.max(0.0), (-wx).max(0.0));
    let (wyp, wym) = (wy.max(0.0), (-wy).max(0.0));
    let d = eps / (h * h);
    for i in 0..m {
        for j in 0..m {
            let c = idx(i, j);
            coo.push(c, c, 4.0 * d + (wxp + wxm + wyp + wym) / h).expect("in bounds");
            if i > 0 {
                coo.push(c, idx(i - 1, j), -d - wxp / h).expect("in bounds");
            }
            if i + 1 < m {
                coo.push(c, idx(i + 1, j), -d - wxm / h).expect("in bounds");
            }
            if j > 0 {
                coo.push(c, idx(i, j - 1), -d - wyp / h).expect("in bounds");
            }
            if j + 1 < m {
                coo.push(c, idx(i, j + 1), -d - wym / h).expect("in bounds");
            }
        }
    }
    coo.to_csr()
}

/// 3D 7-point Laplacian on an `m x m x m` grid (n = m^3):
/// [`StencilDescriptor::poisson_3d_7pt`], assembled.
pub fn laplacian_3d_7pt(m: usize) -> CsrMatrix {
    StencilDescriptor::poisson_3d_7pt(m).assemble()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::IterationMatrix;

    #[test]
    fn laplacian_1d_shape() {
        let a = laplacian_1d(5);
        assert_eq!(a.nnz(), 5 + 2 * 4);
        assert!(a.is_symmetric());
        assert!(a.is_diagonally_dominant());
    }

    #[test]
    fn laplacian_2d_5pt_shape() {
        let m = 6;
        let a = laplacian_2d_5pt(m);
        assert_eq!(a.n_rows(), 36);
        // nnz = 5*interior + boundary adjustments = m^2 + 2*2*m*(m-1)
        assert_eq!(a.nnz(), m * m + 4 * m * (m - 1));
        assert!(a.is_symmetric());
    }

    #[test]
    fn laplacian_2d_5pt_rho_formula() {
        // rho(B) = cos(pi h), h = 1/(m+1) for the 5-point stencil.
        let m = 12;
        let a = laplacian_2d_5pt(m);
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        let exact = (std::f64::consts::PI / (m as f64 + 1.0)).cos();
        assert!((rho - exact).abs() < 1e-6, "{rho} vs {exact}");
    }

    #[test]
    fn laplacian_2d_9pt_row_sums() {
        // Interior rows sum to zero (constant in the null space of the
        // stencil before boundary truncation).
        let m = 5;
        let a = laplacian_2d_9pt(m);
        assert!(a.is_symmetric());
        let center = 2 * m + 2; // node (2,2), fully interior
        let sum: f64 = a.row(center).1.iter().sum();
        assert!(sum.abs() < 1e-14, "{sum}");
        assert_eq!(a.row(center).0.len(), 9);
    }

    #[test]
    fn convection_diffusion_is_nonsymmetric_diag_dominant() {
        let a = convection_diffusion_2d(8, 0.01, 1.0, 0.5);
        assert!(!a.is_symmetric(), "wind breaks symmetry");
        assert!(a.is_diagonally_dominant(), "upwinding preserves dominance");
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius_abs().unwrap();
        assert!(rho < 1.0, "rho(|B|) = {rho}");
    }

    #[test]
    fn convection_diffusion_zero_wind_is_scaled_laplacian() {
        let a = convection_diffusion_2d(6, 1.0, 0.0, 0.0);
        assert!(a.is_symmetric());
        let h = 1.0 / 7.0;
        assert!((a.get(0, 0) - 4.0 / (h * h)).abs() < 1e-9);
    }

    #[test]
    fn laplacian_3d_shape() {
        let a = laplacian_3d_7pt(4);
        assert_eq!(a.n_rows(), 64);
        assert!(a.is_symmetric());
        assert!(a.is_diagonally_dominant());
        let rho = IterationMatrix::new(&a).unwrap().spectral_radius().unwrap();
        let exact = (std::f64::consts::PI / 5.0).cos();
        assert!((rho - exact).abs() < 1e-6);
    }
}
