#![warn(missing_docs)]

//! # block-async-relax
//!
//! A Rust reproduction of
//! *A Block-Asynchronous Relaxation Method for Graphics Processing Units*
//! (Anzt, Tomov, Dongarra, Heuveline; IPDPS Workshops 2012).
//!
//! This crate is the facade over the workspace:
//!
//! * [`sparse`] — sparse linear algebra, test-matrix generators, spectra;
//! * [`gpu`] — the GPU execution substrate (discrete-event simulator,
//!   real-threads executor, calibrated timing model, multi-GPU topology);
//! * [`core`] — the solvers: Jacobi, Gauss-Seidel, CG, PCG, the abstract
//!   Chazan–Miranker chaotic iteration, and the paper's **async-(k)**
//!   block-asynchronous method, plus multigrid-smoother extensions;
//! * [`multigpu`] — the AMC/DC/DK multi-device communication schemes;
//! * [`fault`] — failure injection, recovery-(t_r), checkpoint economics;
//! * [`exp`] — the experiment harness regenerating every table and figure
//!   of the paper (see the `repro` binary);
//! * [`sync`] — the audited atomics facade every executor's shared-memory
//!   protocol goes through: a zero-cost `std::sync::atomic` passthrough
//!   normally, an instrumented weak-memory model checker under the
//!   `model` cargo feature (`cargo test --features model` runs the
//!   schedule-explorer suites).
//!
//! ## Quickstart
//!
//! ```
//! use block_async_relax::prelude::*;
//!
//! // A diagonally dominant SPD system with a known solution.
//! let a = block_async_relax::sparse::gen::laplacian_2d_5pt(16);
//! let x_true = vec![1.0; a.n_rows()];
//! let b = a.mul_vec(&x_true).unwrap();
//!
//! // Solve with the paper's async-(5): 5 local Jacobi sweeps per
//! // asynchronously scheduled block update.
//! let partition = RowPartition::uniform(a.n_rows(), 32).unwrap();
//! let solver = AsyncBlockSolver::async_k(5);
//! let result = solver
//!     .solve(&a, &b, &vec![0.0; a.n_rows()], &partition,
//!            &SolveOptions::to_tolerance(1e-10, 10_000))
//!     .unwrap();
//! assert!(result.converged);
//! ```

pub use abr_core as core;
pub use abr_exp as exp;
pub use abr_fault as fault;
pub use abr_gpu as gpu;
pub use abr_multigpu as multigpu;
pub use abr_sparse as sparse;
pub use abr_sync as sync;

/// The most common imports in one place.
pub mod prelude {
    pub use abr_core::{
        block_jacobi, conjugate_gradient, gauss_seidel, jacobi, pcg, AsyncBlockSolver,
        ExecutorKind, LocalSweep, ScheduleKind, SolveOptions, SolveResult,
    };
    pub use abr_gpu::{SimOptions, ThreadedOptions, TimingModel, Topology};
    pub use abr_multigpu::{CommStrategy, MultiGpuSolver};
    pub use abr_sparse::{CooMatrix, CsrMatrix, IterationMatrix, RowPartition};
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reexports_work() {
        let a = CsrMatrix::identity(4);
        let r = jacobi(&a, &[1.0; 4], &[0.0; 4], &SolveOptions::to_tolerance(1e-14, 5)).unwrap();
        assert!(r.converged);
        assert_eq!(r.x, vec![1.0; 4]);
    }
}
