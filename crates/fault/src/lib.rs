#![warn(missing_docs)]

//! # abr-fault
//!
//! Fault injection and recovery for the block-asynchronous relaxation
//! method — the §4.5 experiments of the paper.
//!
//! The failure scenario modelled is the paper's: on a many-core system a
//! set of cores dies at global iteration `t0`, so the components they own
//! stop being updated. Either the runtime detects the failure and
//! reassigns those components after a recovery time `t_r`
//! (*recovery-(t_r)*), or it never does (*no recovery*). Because the
//! asynchronous iteration tolerates arbitrary update delays, the
//! recovering runs re-converge to the true solution with a bounded delay
//! (Figure 10 / Table 6), while the non-recovering runs stagnate at a
//! residual plateau determined by the frozen components.
//!
//! [`checkpoint`] prices the exascale argument: a checkpointed
//! synchronous solver against the checkpoint-free asynchronous one under
//! the same failure process.
//!
//! Two realisations of the same scenario live in the workspace. The
//! [`inject`] types here are the *analytic* model: an
//! [`UpdateFilter`](abr_gpu::UpdateFilter) silently skips the doomed
//! components of a chunked run, so outage and recovery are simulated by
//! filtering updates — nothing actually dies. The *realised* model is
//! `abr_gpu::FaultPlan`, which kills, hangs, or poisons live persistent
//! workers mid-solve and lets the executor's heartbeat detector and
//! adoption protocol perform the recovery.
//! [`FailureScenario::lower`](inject::FailureScenario::lower) bridges
//! them: it maps one scenario onto a concrete worker count so the two
//! layers reproduce the same §4.5 sweep (see the `recovery` experiment
//! and DESIGN.md §8).

pub mod checkpoint;
pub mod inject;

pub use checkpoint::{checkpoint_free_async, checkpointed_jacobi, CheckpointPolicy};
pub use inject::{ComponentFailure, FailureScenario};
