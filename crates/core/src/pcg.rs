//! Preconditioned conjugate gradients, with the relaxation methods of
//! this crate as preconditioners — §5 of the paper names preconditioning
//! as the other natural deployment of component-wise relaxation.
//!
//! The paper's "highly tuned GPU implementation of the CG solver" behaves
//! like a Jacobi-preconditioned CG (its iteration counts track
//! `cond(D^{-1}A)`, not `cond(A)`: on `Trefethen_2000`, with
//! `cond(A) ≈ 5e4` but `cond(D^{-1}A) ≈ 6`, its Figure 9d curve drops
//! like a rock). [`JacobiPreconditioner`] is therefore the baseline the
//! `fig9` experiment uses.

use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_sparse::{blas1, CsrMatrix, DenseMatrix, Result, RowPartition, SparseError};

/// A symmetric positive-definite preconditioner: `z = M^{-1} r`.
pub trait Preconditioner {
    /// Applies the preconditioner.
    fn apply(&self, r: &[f64], z: &mut [f64]);
}

/// No preconditioning (plain CG).
#[derive(Debug, Clone, Copy, Default)]
pub struct IdentityPreconditioner;

impl Preconditioner for IdentityPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        z.copy_from_slice(r);
    }
}

/// Diagonal (Jacobi) preconditioning: `z_i = r_i / a_ii`.
#[derive(Debug, Clone)]
pub struct JacobiPreconditioner {
    inv_diag: Vec<f64>,
}

impl JacobiPreconditioner {
    /// Builds from the matrix diagonal; requires positive entries (SPD).
    pub fn new(a: &CsrMatrix) -> Result<Self> {
        let d = a.nonzero_diagonal()?;
        if d.iter().any(|&v| v <= 0.0) {
            return Err(SparseError::Generator(
                "Jacobi preconditioning needs a positive diagonal".into(),
            ));
        }
        Ok(JacobiPreconditioner { inv_diag: d.iter().map(|&v| 1.0 / v).collect() })
    }
}

impl Preconditioner for JacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for ((zi, &ri), &di) in z.iter_mut().zip(r).zip(&self.inv_diag) {
            *zi = ri * di;
        }
    }
}

/// Block-Jacobi preconditioning: exact dense solves with the diagonal
/// blocks of a row partition — the natural preconditioner counterpart of
/// the async-(k) subdomains.
pub struct BlockJacobiPreconditioner {
    /// `(start, LU-factorised dense block)` per partition block.
    blocks: Vec<(usize, DenseMatrix)>,
}

impl BlockJacobiPreconditioner {
    /// Extracts and stores the diagonal blocks.
    ///
    /// Block solves use dense Gaussian elimination, so keep blocks to a
    /// few hundred rows (the paper's 448 is fine).
    pub fn new(a: &CsrMatrix, partition: &RowPartition) -> Result<Self> {
        if partition.n() != a.n_rows() {
            return Err(SparseError::DimensionMismatch {
                op: "block preconditioner partition",
                expected: a.n_rows(),
                found: partition.n(),
            });
        }
        let mut blocks = Vec::with_capacity(partition.len());
        for b in partition.blocks() {
            let local = a.diagonal_block(b.start, b.end).to_dense();
            blocks.push((b.start, local));
        }
        Ok(BlockJacobiPreconditioner { blocks })
    }
}

impl Preconditioner for BlockJacobiPreconditioner {
    fn apply(&self, r: &[f64], z: &mut [f64]) {
        for (start, block) in &self.blocks {
            let nb = block.n_rows();
            let rhs = &r[*start..start + nb];
            match block.solve(rhs) {
                Some(sol) => z[*start..start + nb].copy_from_slice(&sol),
                // Singular local block (can't happen for SPD A, but stay
                // total): fall back to diagonal scaling.
                None => {
                    for k in 0..nb {
                        let d = block[(k, k)];
                        z[start + k] = if d != 0.0 { rhs[k] / d } else { rhs[k] };
                    }
                }
            }
        }
    }
}

/// Solves the SPD system `A x = b` with preconditioned CG.
pub fn pcg<P: Preconditioner>(
    a: &CsrMatrix,
    b: &[f64],
    x0: &[f64],
    prec: &P,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, b, x0);
    let n = a.n_rows();
    let mut x = x0.to_vec();
    let mut r = a.residual(b, &x)?;
    let mut z = vec![0.0; n];
    prec.apply(&r, &mut z);
    let mut p = z.clone();
    let mut ap = vec![0.0; n];
    let nb = blas1::norm2(b).max(f64::MIN_POSITIVE);
    let mut rz = blas1::dot(&r, &z);

    let mut run = Progress::new(a, b, opts);
    run.judge(blas1::norm2(&r) / nb);

    while run.running() {
        a.spmv(&p, &mut ap)?;
        let pap = blas1::dot(&p, &ap);
        if pap <= 0.0 || !pap.is_finite() {
            break; // A (or M) not SPD along p
        }
        let alpha = rz / pap;
        blas1::axpy(alpha, &p, &mut x);
        blas1::axpy(-alpha, &ap, &mut r);
        prec.apply(&r, &mut z);
        let rz_new = blas1::dot(&r, &z);
        let beta = rz_new / rz;
        blas1::xpay(&z, beta, &mut p);
        rz = rz_new;
        run.step_with(blas1::norm2(&r) / nb);
    }
    Ok(run.finish(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cg::conjugate_gradient;
    use abr_sparse::gen::{laplacian_2d_5pt, trefethen};

    #[test]
    fn identity_pcg_equals_plain_cg() {
        let a = laplacian_2d_5pt(8);
        let b = a.mul_vec(&vec![1.0; 64]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 200);
        let plain = conjugate_gradient(&a, &b, &vec![0.0; 64], &opts).unwrap();
        let ident = pcg(&a, &b, &vec![0.0; 64], &IdentityPreconditioner, &opts).unwrap();
        assert_eq!(plain.iterations, ident.iterations);
        for (x1, x2) in plain.x.iter().zip(&ident.x) {
            assert!((x1 - x2).abs() < 1e-12);
        }
    }

    #[test]
    fn jacobi_pcg_slashes_iterations_on_trefethen() {
        // Trefethen: cond(A) ~ 1e4 but cond(D^{-1}A) ~ 4.5 — diagonal
        // preconditioning is transformative, which is why the paper's
        // "highly tuned" CG converges so fast on it.
        let a = trefethen(500).unwrap();
        let n = 500;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 2_000);
        let plain = conjugate_gradient(&a, &b, &vec![0.0; n], &opts).unwrap();
        let prec = JacobiPreconditioner::new(&a).unwrap();
        let jac = pcg(&a, &b, &vec![0.0; n], &prec, &opts).unwrap();
        assert!(jac.converged);
        assert!(
            jac.iterations * 3 < plain.iterations.max(1),
            "PCG {} vs CG {}",
            jac.iterations,
            plain.iterations
        );
    }

    #[test]
    fn block_jacobi_pcg_beats_diagonal_on_banded_system() {
        let a = laplacian_2d_5pt(14);
        let n = 196;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 1_000);
        let pj = JacobiPreconditioner::new(&a).unwrap();
        let jac = pcg(&a, &b, &vec![0.0; n], &pj, &opts).unwrap();
        let partition = RowPartition::uniform(n, 28).unwrap();
        let pb = BlockJacobiPreconditioner::new(&a, &partition).unwrap();
        let blk = pcg(&a, &b, &vec![0.0; n], &pb, &opts).unwrap();
        assert!(jac.converged && blk.converged);
        assert!(
            blk.iterations < jac.iterations,
            "block {} vs diagonal {}",
            blk.iterations,
            jac.iterations
        );
    }

    #[test]
    fn negative_diagonal_rejected() {
        let a = CsrMatrix::from_diagonal(&[1.0, -1.0]);
        assert!(JacobiPreconditioner::new(&a).is_err());
    }

    #[test]
    fn all_preconditioners_agree_on_solution() {
        let a = laplacian_2d_5pt(10);
        let n = 100;
        let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).cos()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let opts = SolveOptions::to_tolerance(1e-11, 2_000);
        let partition = RowPartition::uniform(n, 20).unwrap();
        let solutions = [
            pcg(&a, &b, &vec![0.0; n], &IdentityPreconditioner, &opts).unwrap().x,
            pcg(&a, &b, &vec![0.0; n], &JacobiPreconditioner::new(&a).unwrap(), &opts)
                .unwrap()
                .x,
            pcg(
                &a,
                &b,
                &vec![0.0; n],
                &BlockJacobiPreconditioner::new(&a, &partition).unwrap(),
                &opts,
            )
            .unwrap()
            .x,
        ];
        for x in &solutions {
            let err =
                x.iter().zip(&x_true).map(|(p, q)| (p - q).abs()).fold(0.0f64, f64::max);
            assert!(err < 1e-8, "max error {err}");
        }
    }
}
