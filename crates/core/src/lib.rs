#![warn(missing_docs)]

//! # abr-core
//!
//! The paper's contribution: relaxation solvers for sparse linear systems
//! `A x = b`, synchronous and (block-)asynchronous.
//!
//! * Synchronous baselines: [`jacobi()`], forward [`gauss_seidel()`],
//!   barrier-synchronised [`block_jacobi()`], and the Krylov baselines
//!   [`cg`], [`pcg()`] and [`chebyshev`].
//! * The abstract chaotic iteration of Chazan–Miranker with pluggable
//!   update and shift functions: [`chazan`] — used to property-test the
//!   `rho(|B|) < 1` convergence theorem the paper relies on.
//! * **async-(k)** — the block-asynchronous method of the paper
//!   (Algorithm 1 / Eq. 4): [`async_block`], running on either of the
//!   `abr-gpu` executors.
//! * The tau-damped variants for SPD systems with `rho(B) > 1`:
//!   [`scaled`] (paper §4.2's remedy for `s1rmt3m1`).
//! * Extensions the paper lists as future work (§5): relaxation methods
//!   as [`smoother`]s inside an aggregation-based [`multigrid`].
//!
//! Every solver loop here except the threaded async-(k) path stops,
//! records its history and reports its final residual through one rule
//! in [`convergence`].

pub mod async_block;
pub mod block_jacobi;
pub mod cg;
pub mod chazan;
pub mod chebyshev;
pub mod convergence;
pub mod fingerprint;
pub mod gauss_seidel;
pub mod jacobi;
pub mod multigrid;
pub mod pcg;
pub mod scaled;
pub mod smoother;

pub use async_block::{
    AsyncBlockSolver, ExecutorKind, FaultedSolve, LeasedRun, LocalSweep, ResidualMonitor,
    ScheduleKind, FUSED_FORCE_EXACT_EVERY, FUSED_GUARD_BAND, URGENT_BAND,
};
pub use fingerprint::{fingerprint_matrix, fingerprint_vec, Fnv1a};
pub use block_jacobi::block_jacobi;
pub use cg::conjugate_gradient;
pub use pcg::pcg;
pub use convergence::{SolveOptions, SolveResult};
pub use gauss_seidel::gauss_seidel;
pub use jacobi::jacobi;
