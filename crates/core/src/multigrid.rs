//! Aggregation-based algebraic multigrid with pluggable smoothers —
//! the §5 future-work extension: block-asynchronous relaxation as a
//! multigrid smoother.
//!
//! Coarsening is greedy pairwise aggregation along the strongest
//! off-diagonal connection; prolongation is piecewise constant and the
//! coarse operator is the Galerkin product `P^T A P` (computed with the
//! sparse SpGEMM substrate). This is deliberately the simplest AMG that
//! exhibits mesh-independent-ish convergence on the Poisson family — the
//! point here is the *smoother comparison*, not state-of-the-art AMG.

use crate::convergence::{Progress, SolveOptions, SolveResult};
use crate::smoother::Smoother;
use abr_sparse::{CsrMatrix, Result, SparseError};

/// One level of the multigrid hierarchy.
struct Level {
    a: CsrMatrix,
    /// Prolongation from the next-coarser level to this one (absent on
    /// the coarsest level).
    p: Option<CsrMatrix>,
    /// Estimate of `lambda_max(D^{-1} A)` on this level, used to pick a
    /// spectrally safe damping for the coarse-level smoother.
    lambda_max: f64,
}

/// A multigrid hierarchy ready to run V-cycles.
pub struct Multigrid<S: Smoother> {
    levels: Vec<Level>,
    smoother: S,
    /// Pre-smoothing sweeps per level.
    pub pre_sweeps: usize,
    /// Post-smoothing sweeps per level.
    pub post_sweeps: usize,
}

impl<S: Smoother> Multigrid<S> {
    /// Builds the hierarchy by repeated pairwise aggregation until the
    /// coarsest level has at most `coarsest` rows (or coarsening stalls).
    pub fn new(a: &CsrMatrix, smoother: S, coarsest: usize) -> Result<Self> {
        if !a.is_square() {
            return Err(SparseError::DimensionMismatch {
                op: "multigrid matrix",
                expected: a.n_rows(),
                found: a.n_cols(),
            });
        }
        let lam0 = jacobi_lambda_max(a)?;
        let mut levels = vec![Level { a: a.clone(), p: None, lambda_max: lam0 }];
        while levels.last().expect("non-empty").a.n_rows() > coarsest.max(2) {
            let last_level = levels.last().expect("non-empty");
            let fine = &last_level.a;
            let agg = pairwise_aggregate(fine);
            let nc = agg.iter().copied().max().map_or(0, |m| m + 1);
            if nc == 0 || nc >= fine.n_rows() {
                break; // coarsening stalled
            }
            let p_agg = aggregation_prolongation(&agg, nc);
            // Smoothed aggregation: P = (I - omega D^{-1} A) P_agg with
            // the spectrally safe omega = (4/3) / lambda_max(D^{-1}A).
            // One Jacobi smoothing of the tentative prolongation
            // dramatically improves the two-grid rate over
            // piecewise-constant interpolation.
            let p = smooth_prolongation(fine, &p_agg, last_level.lambda_max)?;
            let ac = p.transpose().spgemm(fine)?.spgemm(&p)?;
            let lam = jacobi_lambda_max(&ac)?;
            let last = levels.last_mut().expect("non-empty");
            last.p = Some(p);
            levels.push(Level { a: ac, p: None, lambda_max: lam });
        }
        Ok(Multigrid { levels, smoother, pre_sweeps: 2, post_sweeps: 2 })
    }

    /// Number of levels in the hierarchy.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Runs V-cycles until the relative residual drops below `opts.tol`
    /// (or `opts.max_iters` cycles). The exact residual is checked after
    /// every cycle, whatever `opts.check_every` says; each history entry
    /// is one V-cycle.
    pub fn solve(&self, b: &[f64], x0: &[f64], opts: &SolveOptions) -> Result<SolveResult> {
        let a = &self.levels[0].a;
        assert_eq!(b.len(), a.n_rows());
        assert_eq!(x0.len(), a.n_rows());
        let mut x = x0.to_vec();
        let mut run = Progress::new(a, b, opts);
        while run.running() {
            self.v_cycle(0, b, &mut x)?;
            run.step_checked(&x);
        }
        Ok(run.finish(x))
    }

    fn v_cycle(&self, level: usize, b: &[f64], x: &mut Vec<f64>) -> Result<()> {
        let lvl = &self.levels[level];
        if level + 1 == self.levels.len() {
            // Coarsest: direct dense solve (fall back to smoothing if the
            // coarse matrix is singular, e.g. a pure Neumann complement).
            match lvl.a.to_dense().solve(b) {
                Some(sol) => *x = sol,
                None => self.smoother.smooth(&lvl.a, b, x, 20)?,
            }
            return Ok(());
        }
        self.smooth_level(level, b, x, self.pre_sweeps)?;
        let r = lvl.a.residual(b, x)?;
        let p = lvl.p.as_ref().expect("non-coarsest levels have prolongation");
        let rc = p.transpose().mul_vec(&r)?;
        let mut ec = vec![0.0; rc.len()];
        self.v_cycle(level + 1, &rc, &mut ec)?;
        let e = p.mul_vec(&ec)?;
        for (xi, ei) in x.iter_mut().zip(&e) {
            *xi += ei;
        }
        self.smooth_level(level, b, x, self.post_sweeps)?;
        Ok(())
    }

    /// The user's smoother runs on the finest level, where almost all the
    /// work is; coarse Galerkin operators can have
    /// `lambda_max(D^{-1}A) > 2`, where a fixed-weight smoother diverges,
    /// so coarse levels use damped Jacobi with the spectrally safe weight
    /// `1 / lambda_max` instead.
    fn smooth_level(&self, level: usize, b: &[f64], x: &mut Vec<f64>, sweeps: usize) -> Result<()> {
        if level == 0 {
            return self.smoother.smooth(&self.levels[0].a, b, x, sweeps);
        }
        let lvl = &self.levels[level];
        let tau = 1.0 / lvl.lambda_max.max(1e-12);
        crate::smoother::DampedJacobiSmoother { tau }.smooth(&lvl.a, b, x, sweeps)
    }
}

/// Estimate of `lambda_max(D^{-1}A)` for symmetric positive-diagonal `A`
/// (upper-bounded by the max row ratio when the Lanczos path is not
/// applicable).
fn jacobi_lambda_max(a: &CsrMatrix) -> Result<f64> {
    match abr_sparse::scaling::jacobi_operator_extremes(a) {
        Ok((_, hi)) => Ok(hi),
        Err(_) => {
            // fall back to the row-sum bound lambda_max <= max_i
            // sum_j |a_ij| / a_ii
            let d = a.nonzero_diagonal()?;
            let mut bound = 0.0f64;
            for (r, dr) in d.iter().enumerate() {
                let s: f64 = a.row(r).1.iter().map(|v| v.abs()).sum();
                bound = bound.max(s / dr.abs());
            }
            Ok(bound)
        }
    }
}

/// Greedy pairwise aggregation: each unaggregated node joins its
/// strongest unaggregated neighbour; isolated leftovers become singleton
/// aggregates. Returns the aggregate index per node.
fn pairwise_aggregate(a: &CsrMatrix) -> Vec<usize> {
    let n = a.n_rows();
    let mut agg = vec![usize::MAX; n];
    let mut next = 0usize;
    for i in 0..n {
        if agg[i] != usize::MAX {
            continue;
        }
        // strongest off-diagonal neighbour not yet aggregated
        let mut best: Option<(usize, f64)> = None;
        for (j, v) in a.row_iter(i) {
            if j != i && agg[j] == usize::MAX {
                let w = v.abs();
                if best.is_none_or(|(_, bw)| w > bw) {
                    best = Some((j, w));
                }
            }
        }
        agg[i] = next;
        if let Some((j, _)) = best {
            agg[j] = next;
        }
        next += 1;
    }
    agg
}

/// Jacobi-smooths a tentative prolongation:
/// `P = (I - omega D^{-1} A) P_agg`, `omega = (4/3) / lambda_max`.
fn smooth_prolongation(a: &CsrMatrix, p_agg: &CsrMatrix, lambda_max: f64) -> Result<CsrMatrix> {
    let omega = (4.0 / 3.0) / lambda_max.max(1e-12);
    let d = a.nonzero_diagonal()?;
    let mut da = a.clone();
    let scale: Vec<f64> = d.iter().map(|&v| omega / v).collect();
    da.scale_rows(&scale)?; // da = omega D^{-1} A
    let smoother = CsrMatrix::identity(a.n_rows()).add_scaled(1.0, &da, -1.0)?;
    smoother.spgemm(p_agg)
}

/// Piecewise-constant prolongation for an aggregation.
fn aggregation_prolongation(agg: &[usize], nc: usize) -> CsrMatrix {
    let n = agg.len();
    let row_ptr: Vec<usize> = (0..=n).collect();
    let col_idx: Vec<usize> = agg.to_vec();
    let values = vec![1.0; n];
    CsrMatrix::from_raw(n, nc, row_ptr, col_idx, values)
        .expect("aggregation indices are dense and in bounds")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoother::{AsyncSmoother, DampedJacobiSmoother, GaussSeidelSmoother};
    use abr_sparse::gen::{laplacian_2d_5pt, laplacian_1d};

    #[test]
    fn hierarchy_coarsens() {
        let a = laplacian_2d_5pt(16); // 256 unknowns
        let mg = Multigrid::new(&a, DampedJacobiSmoother::default(), 16).unwrap();
        assert!(mg.n_levels() >= 3, "{} levels", mg.n_levels());
    }

    #[test]
    fn vcycles_converge_fast_on_poisson() {
        let a = laplacian_2d_5pt(16);
        let n = 256;
        let x_true: Vec<f64> = (0..n).map(|i| ((i % 17) as f64).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        let mg = Multigrid::new(&a, GaussSeidelSmoother, 16).unwrap();
        let r = mg.solve(&b, &vec![0.0; n], &SolveOptions::to_tolerance(1e-10, 60)).unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        assert!(
            r.iterations < 40,
            "V-cycles should converge quickly: {} cycles",
            r.iterations
        );
    }

    #[test]
    fn multigrid_beats_plain_smoothing_iterations() {
        let a = laplacian_1d(128);
        let b = a.mul_vec(&vec![1.0; 128]).unwrap();
        let mg = Multigrid::new(&a, DampedJacobiSmoother::default(), 8).unwrap();
        let r = mg.solve(&b, &vec![0.0; 128], &SolveOptions::to_tolerance(1e-8, 200)).unwrap();
        assert!(r.converged);
        // plain Jacobi would need O(n^2) ~ 16k iterations for this tol;
        // multigrid needs a few dozen cycles.
        assert!(r.iterations < 100, "{} cycles", r.iterations);
    }

    #[test]
    fn async_smoother_works_inside_multigrid() {
        let a = laplacian_2d_5pt(12);
        let n = 144;
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let sm = AsyncSmoother { block_size: 16, ..Default::default() };
        let mg = Multigrid::new(&a, sm, 12).unwrap();
        let r = mg.solve(&b, &vec![0.0; n], &SolveOptions::to_tolerance(1e-9, 80)).unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        assert!(r.iterations < 60, "{} cycles", r.iterations);
    }

    #[test]
    fn aggregates_cover_all_nodes() {
        let a = laplacian_2d_5pt(7);
        let agg = pairwise_aggregate(&a);
        let nc = agg.iter().copied().max().unwrap() + 1;
        assert!(nc < 49);
        assert!(nc >= 49 / 2);
        // every aggregate non-empty and every node assigned
        let mut sizes = vec![0usize; nc];
        for &g in &agg {
            sizes[g] += 1;
        }
        assert!(sizes.iter().all(|&s| (1..=2).contains(&s)));
    }
}
