//! Synchronous block-Jacobi: the barrier-synchronised counterpart of
//! async-(k).
//!
//! Every global iteration, **all** blocks compute their update from the
//! *same* snapshot of the iterate (k local Jacobi sweeps with frozen
//! off-block values, exactly like one async-(k) block update), then a
//! barrier commits all of them at once. Comparing this method against
//! async-(k) at equal iteration counts isolates what the *asynchrony
//! itself* contributes to convergence: asynchronous blocks see some
//! already-updated neighbours (a Gauss-Seidel-like gain, cf. the paper's
//! remark that the scheme has "a block Gauss-Seidel flavor"), while the
//! synchronous variant never does. The `repro ablation` experiment
//! reports the measured gap.

use crate::async_block::AsyncJacobiKernel;
use crate::convergence::{check_system, Progress, SolveOptions, SolveResult};
use abr_gpu::{BlockKernel, BlockScratch, XView};
use abr_sparse::{CsrMatrix, Result, RowPartition};

/// Solves `A x = b` with synchronous block-Jacobi over the partition,
/// running `local_iters` Jacobi sweeps within each block per global
/// iteration.
pub fn block_jacobi(
    a: &CsrMatrix,
    rhs: &[f64],
    x0: &[f64],
    partition: &RowPartition,
    local_iters: usize,
    opts: &SolveOptions,
) -> Result<SolveResult> {
    check_system(a, rhs, x0);
    assert_eq!(partition.n(), a.n_rows(), "partition must cover the system");
    assert!(local_iters >= 1, "need at least one local sweep");
    let kernel = AsyncJacobiKernel::new(a, rhs, partition, local_iters, 1.0)?;

    let mut x = x0.to_vec();
    let mut x_new = x0.to_vec();
    let mut scratch = BlockScratch::new();
    let mut run = Progress::new(a, rhs, opts);

    while run.running() {
        // All blocks read the same snapshot `x`, results go to `x_new`.
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            kernel.update_block_with(b, &XView::Plain(&x), &mut x_new[s..e], &mut scratch);
        }
        std::mem::swap(&mut x, &mut x_new);
        run.step(&x);
    }
    Ok(run.finish(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jacobi::jacobi;
    use crate::{AsyncBlockSolver, ExecutorKind};
    use abr_gpu::SimOptions;
    use abr_sparse::gen::laplacian_2d_5pt;

    fn setup(m: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplacian_2d_5pt(m);
        let n = a.n_rows();
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        (a, b, vec![0.0; n])
    }

    #[test]
    fn scalar_blocks_single_sweep_is_exactly_jacobi() {
        let (a, b, x0) = setup(6);
        let p = RowPartition::uniform(36, 1).unwrap();
        let opts = SolveOptions::fixed_iterations(12);
        let bj = block_jacobi(&a, &b, &x0, &p, 1, &opts).unwrap();
        let j = jacobi(&a, &b, &x0, &opts).unwrap();
        for (x1, x2) in bj.x.iter().zip(&j.x) {
            assert!((x1 - x2).abs() < 1e-14);
        }
    }

    #[test]
    fn single_block_is_k_jacobi_sweeps() {
        let (a, b, x0) = setup(5);
        let p = RowPartition::uniform(25, 25).unwrap();
        let k3 = block_jacobi(&a, &b, &x0, &p, 3, &SolveOptions::fixed_iterations(4)).unwrap();
        let j12 = jacobi(&a, &b, &x0, &SolveOptions::fixed_iterations(12)).unwrap();
        for (x1, x2) in k3.x.iter().zip(&j12.x) {
            assert!((x1 - x2).abs() < 1e-13);
        }
    }

    #[test]
    fn converges_and_beats_point_jacobi() {
        let (a, b, x0) = setup(10);
        let p = RowPartition::uniform(100, 10).unwrap();
        let opts = SolveOptions::to_tolerance(1e-9, 100_000);
        let bj = block_jacobi(&a, &b, &x0, &p, 5, &opts).unwrap();
        let j = jacobi(&a, &b, &x0, &opts).unwrap();
        assert!(bj.converged && j.converged);
        assert!(
            bj.iterations < j.iterations,
            "block-Jacobi {} vs Jacobi {}",
            bj.iterations,
            j.iterations
        );
    }

    #[test]
    fn asynchrony_accelerates_over_synchronous_blocks() {
        // The design claim isolated: same kernel, same partition, same
        // local sweeps — the only difference is the barrier. The chaotic
        // version reads fresher values and converges faster.
        let (a, b, x0) = setup(12);
        let n = 144;
        let p = RowPartition::uniform(n, 12).unwrap();
        let iters = 120;
        let sync = block_jacobi(&a, &b, &x0, &p, 5, &SolveOptions::fixed_iterations(iters))
            .unwrap();
        let solver = AsyncBlockSolver {
            executor: ExecutorKind::Sim(SimOptions { n_workers: 4, jitter: 0.4, seed: 3 }),
            ..AsyncBlockSolver::async_k(5)
        };
        let async_r = solver
            .solve(&a, &b, &x0, &p, &SolveOptions::fixed_iterations(iters))
            .unwrap();
        assert!(
            async_r.final_residual < sync.final_residual,
            "async {} vs sync {}",
            async_r.final_residual,
            sync.final_residual
        );
    }

    #[test]
    fn divergent_when_rho_above_one() {
        let a = abr_sparse::gen::structural_biharmonic_sq(10, 2.65).unwrap();
        let n = a.n_rows();
        let b = a.mul_vec(&vec![1.0; n]).unwrap();
        let p = RowPartition::uniform(n, 10).unwrap();
        let r = block_jacobi(&a, &b, &vec![0.0; n], &p, 5, &SolveOptions::fixed_iterations(30))
            .unwrap();
        assert!(r.final_residual > 1.0, "{}", r.final_residual);
    }
}
