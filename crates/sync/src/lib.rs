#![warn(missing_docs)]

//! # abr-sync
//!
//! The workspace's **audited atomics facade**. Every shared-memory
//! atomic the solvers use goes through the three types here —
//! [`SyncBool`], [`SyncU64`], [`SyncUsize`] — instead of
//! `std::sync::atomic` directly (a lint, `tests/lint_sync.rs` at the
//! workspace root, enforces this). The point is to make the memory-model
//! assumptions of the block-asynchronous method *machine-checkable*:
//!
//! * In **normal builds** the facade is a zero-cost `#[inline]`
//!   passthrough to the std atomics — the release binary is bit-for-bit
//!   the code you would have written by hand.
//! * Under the **`model` cargo feature** every load/store/CAS/fetch-op is
//!   routed through an instrumented runtime that records
//!   `(site, thread, ordering, value-epoch)` events and — inside a
//!   `model::explore_seeded`/`model::explore_exhaustive` run — drives
//!   *virtual threads* with a deterministic scheduler over a weak-memory
//!   model: per-cell value histories, per-thread visibility views,
//!   `Release`/`Acquire` happens-before edges, and adversarially stale
//!   `Relaxed` reads. The paper's entire claim is that the iteration
//!   tolerates stale reads (the bounded shift function of Eq. 3); the
//!   model runtime is what lets tests distinguish "`Relaxed` because the
//!   algorithm tolerates staleness" from "`Relaxed` by accident".
//! * Under the **`sanitize` cargo feature** the passthrough stays in
//!   place, but every operation additionally drives the `hb`
//!   happens-before shadow state (per-thread vector clocks, per-cell
//!   release clocks) — the runtime half of the data-plane race
//!   sanitizer. The `model` build drives the same shadow from the
//!   explorer's virtual threads with *exact* synchronizes-with
//!   information. See the `hb` module for the full story.
//!
//! ## The weak-memory model (model builds)
//!
//! Inside an exploration, each cell keeps its full modification order as
//! a history of `(value, optional release-view)` entries, and each
//! virtual thread keeps a *view*: for every cell, the oldest history
//! index it may still legally read. The rules:
//!
//! * A `Relaxed` load may return **any** entry from the thread's view
//!   floor up to the latest — the scheduler picks, adversarially. Reading
//!   an entry raises the floor to it (per-thread coherence: a thread
//!   never travels back in time on one cell).
//! * A `Release` store snapshots the writer's view into the entry; an
//!   `Acquire` load that reads such an entry merges that snapshot into
//!   the reader's view (synchronizes-with). RMWs always read the
//!   **latest** entry (modification-order tail) and carry the release
//!   view of the entry they displace, so release sequences headed by a
//!   release store survive intervening RMWs.
//! * Liveness: after a bounded streak of stale reads of one cell the
//!   scheduler forces the latest value, modelling the "writes become
//!   visible in finite time" guarantee real coherent hardware gives —
//!   spin-wait loops terminate instead of reading a stale flag forever.
//! * Fences are recorded as events but add no edges (no protocol in this
//!   workspace relies on a fence; the model is *more* adversarial than
//!   the hardware here, never less).
//! * `compare_exchange_weak` never fails spuriously in the model (the
//!   spurious failure is a strict subset of the CAS-failure behaviour
//!   already explored).
//!
//! Outside an exploration (ordinary tests compiled with `--features
//! model`), the facade behaves exactly like the passthrough build.

pub use std::sync::atomic::Ordering;

#[cfg(any(feature = "model", feature = "sanitize"))]
pub mod hb;

#[cfg(not(feature = "model"))]
mod real;
#[cfg(not(feature = "model"))]
pub use real::{fence, SyncBool, SyncU64, SyncUsize};

#[cfg(feature = "model")]
mod model_impl;
#[cfg(feature = "model")]
pub use model_impl::{fence, SyncBool, SyncU64, SyncUsize};

/// The deterministic schedule explorer (model builds only): seeded and
/// bounded-preemption-exhaustive exploration of virtual-thread
/// interleavings over the facade's weak-memory model.
#[cfg(feature = "model")]
pub mod model {
    pub use crate::model_impl::rt::{
        explore_exhaustive, explore_seeded, spawn, Event, ExploreOptions, JoinHandle, OpKind,
        Outcome, Violation,
    };
}
