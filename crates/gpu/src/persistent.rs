//! The persistent-worker executor: the one real-thread fabric. Worker
//! threads run **once per solve**, convergence is checked
//! **concurrently** by the calling thread.
//!
//! The paper's method has no barrier between block updates — its CUDA
//! kernels stream continuously while the host reads the (racy) iterate
//! on the side and decides when to stop. This executor is that shape:
//!
//! * **Workers persist.** `n_workers` pool threads take one job each and
//!   run it until the round budget is exhausted or the stop flag flips.
//!   No respawn, no iterate copies, no allocation inside the solve loop.
//!   A run either leases its workers from a long-lived [`WorkerPool`]
//!   ([`RunSession::pool`]) or builds a transient pool of `n_workers`
//!   that is drained when the run returns; both go through the same
//!   dispatch.
//! * **Sharded tickets with work-stealing.** The blocks are split into
//!   per-worker shards (contiguous ranges — the paper's SM-owns-its-blocks
//!   locality), each with its own atomic round counter. A worker drains
//!   its home shard first and steals from the others only when its own is
//!   exhausted, so no single contended counter sits on the hot path.
//! * **The host is the monitor.** The calling thread plays the paper's
//!   host: it snapshots the live [`AtomicF64Vec`] into the caller's
//!   iterate buffer (free once the run has copied it in), runs an
//!   arbitrary [`ConvergenceMonitor`] check against it *while the
//!   workers keep iterating*, and raises an atomic stop flag when the
//!   check fires — a Release store paired with the workers' Acquire
//!   loads, so the global-iteration watermark recorded at the stop is
//!   coherent with what the stopping workers observe. A stopped run
//!   returns the snapshot that check measured, which is already in place.
//!
//! Results are non-deterministic run to run; the discrete-event
//! simulator remains the reproducible oracle.

use crate::halo::HaloExchange;
use crate::kernel::{BlockKernel, BlockScratch, UpdateFilter};
use crate::pool::{CancelCause, CancelToken, Lease, WorkerPool};
use crate::residual::ResidualSlots;
use crate::schedule::BlockSchedule;
use crate::trace::{SkewTracker, StalenessHistogram, UpdateTrace};
use crate::xview::{AtomicF64Vec, XView};
use abr_sync::{Ordering, SyncBool, SyncUsize};
use parking_lot::Mutex;
use std::time::{Duration, Instant};

/// How many failed acquisition attempts to spin before falling back to
/// yielding the OS scheduler. Spinning briefly wins when the holder is
/// mid-update on another core; yielding wins when the holder has been
/// descheduled (on a single-core host, spinning alone would burn the
/// whole timeslice the holder needs to finish).
const SPIN_LIMIT: u32 = 64;

/// How many rounds of the block schedule a run materialises into the
/// per-shard ticket lists. Budgets beyond this cycle reuse the
/// materialised pattern (with correct absolute round indices), so an
/// unbounded solve does not need unbounded ticket storage. Within the
/// first `SCHEDULE_CYCLE` rounds the dispatch order is exactly the
/// schedule's.
const SCHEDULE_CYCLE: usize = 256;

/// A worker's home shard. Workers map onto shards round-robin, so more
/// workers than shards team up on each shard.
#[inline]
fn home_shard(w: usize, n_shards: usize) -> usize {
    w % n_shards
}

/// Acquires a per-block in-flight flag with bounded spinning: up to
/// [`SPIN_LIMIT`] `spin_loop` hints, then `yield_now` between attempts.
/// Every update of one block is serialised through this protocol.
#[inline]
fn acquire_block_flag(flag: &SyncBool) {
    let mut attempts = 0u32;
    // sync: Acquire on success pairs with the releasing store that frees
    // the flag — winning the flag makes the previous holder's block
    // writes and count bump visible. Relaxed on failure: a losing
    // attempt publishes nothing and acts on nothing.
    while flag
        .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
        .is_err()
    {
        if attempts < SPIN_LIMIT {
            attempts += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
}

/// An explicit contiguous shard partition of the block set: shard `s`
/// owns blocks `offsets[s] .. offsets[s + 1]`. This is how a multi-device
/// run hands the executor its *device slices* — the shards then are the
/// per-device block ranges, not an arbitrary `n_workers`-way split — so
/// the execution topology matches what the timing model prices and what
/// the halo layer stages. Workers map onto shards round-robin
/// (`worker % n_shards`), so more workers than shards simply team up on
/// each device.
#[derive(Debug, Clone)]
pub struct ShardPlan {
    offsets: Vec<usize>,
}

impl ShardPlan {
    /// A plan from block-index offsets: `offsets[0] == 0`, strictly
    /// increasing, last entry = total block count (checked against the
    /// kernel at run time).
    pub fn from_offsets(offsets: &[usize]) -> ShardPlan {
        assert!(offsets.len() >= 2, "a shard plan needs at least one shard");
        assert_eq!(offsets[0], 0, "shard offsets must start at 0");
        assert!(offsets.windows(2).all(|w| w[0] < w[1]), "shards must be non-empty");
        ShardPlan { offsets: offsets.to_vec() }
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The block-index offsets.
    pub fn offsets(&self) -> &[usize] {
        &self.offsets
    }

    /// The block range of shard `s`.
    pub fn shard_range(&self, s: usize) -> (usize, usize) {
        (self.offsets[s], self.offsets[s + 1])
    }
}

/// How a planned worker fault manifests at its trigger round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The worker thread exits immediately: it stops drawing tickets,
    /// orphans its home shard (if it was the last live worker homed
    /// there), and is never heard from again. Detection is the monitor's
    /// job — a dead core does not announce itself.
    Kill,
    /// The worker parks without exiting: same orphaning as [`Kill`](Self::Kill),
    /// but the thread stays resident until the stop flag flips (a livelocked
    /// or preempted-forever core). Exercises the stall supervision path.
    Hang,
    /// The worker keeps drawing tickets but every block sweep it runs
    /// panics from the trigger round on. The executor isolates each panic
    /// with `catch_unwind`: the block's commit is dropped, the run is
    /// degraded but never aborted, and the [`FaultReport`] counts every
    /// catch.
    Panic,
}

/// One worker's planned fault: `kind` fires when the committed-progress
/// floor first reaches `at_round` (the paper's §4.5 "cores die at
/// iteration `t0`" expressed against the realised floor, so the trigger
/// is meaningful under asynchronous skew).
#[derive(Debug, Clone)]
pub struct WorkerFault {
    /// Worker index in `0..n_workers`.
    pub worker: usize,
    /// What happens.
    pub kind: FaultKind,
    /// Committed-progress floor at which it happens.
    pub at_round: usize,
}

/// A realised fault plan for one persistent run: which workers die, hang,
/// or go panicky, and whether orphaned shards are recovered. This is the
/// *live* counterpart of `abr_fault`'s analytic [`UpdateFilter`] fault
/// model — workers actually stop, the monitor actually detects them, and
/// recovery actually reassigns their blocks (lowered from
/// `abr_fault::FailureScenario::lower`).
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Planned faults (at most one fires per worker: the first entry for
    /// a given worker index wins).
    pub faults: Vec<WorkerFault>,
    /// The paper's recovery-(t_r): once a death is detected, its orphaned
    /// shard is released for adoption after the floor advances another
    /// `t_r` rounds. `None` is the no-recovery regime — orphaned blocks
    /// stay frozen and the run ends [`RunOutcome::Stalled`].
    pub recovery_rounds: Option<usize>,
}

impl FaultPlan {
    /// An empty plan (no faults, no recovery).
    pub fn new() -> FaultPlan {
        FaultPlan::default()
    }

    /// Plans a [`FaultKind::Kill`] of `worker` at floor round `at_round`.
    pub fn kill(mut self, worker: usize, at_round: usize) -> FaultPlan {
        self.faults.push(WorkerFault { worker, kind: FaultKind::Kill, at_round });
        self
    }

    /// Plans a [`FaultKind::Hang`] of `worker` at floor round `at_round`.
    pub fn hang(mut self, worker: usize, at_round: usize) -> FaultPlan {
        self.faults.push(WorkerFault { worker, kind: FaultKind::Hang, at_round });
        self
    }

    /// Plans a [`FaultKind::Panic`] poisoning of `worker` from floor
    /// round `at_round` on.
    pub fn poison(mut self, worker: usize, at_round: usize) -> FaultPlan {
        self.faults.push(WorkerFault { worker, kind: FaultKind::Panic, at_round });
        self
    }

    /// Enables recovery-(t_r).
    pub fn with_recovery(mut self, t_r: usize) -> FaultPlan {
        self.recovery_rounds = Some(t_r);
        self
    }

    /// True when no fault is planned.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    fn fault_for(&self, worker: usize) -> Option<&WorkerFault> {
        self.faults.iter().find(|f| f.worker == worker)
    }
}

/// How a persistent run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RunOutcome {
    /// The round budget drained normally.
    #[default]
    Completed,
    /// The monitor's check fired and raised the stop flag.
    Stopped,
    /// Progress ceased with tickets still outstanding: every worker died,
    /// or the survivors' only remaining work sits in an orphaned shard
    /// that no recovery will ever release. The run terminates within the
    /// stall supervision budget instead of polling forever.
    Stalled,
    /// A request-scoped [`CancelToken`] was cancelled mid-run: the
    /// monitor translated it into the stop flag and the workers drained
    /// within one poll. The iterate holds the partial result.
    Cancelled,
    /// The [`CancelToken`]'s deadline passed mid-run; otherwise exactly
    /// like [`Cancelled`](Self::Cancelled).
    DeadlineExceeded,
}

impl From<CancelCause> for RunOutcome {
    /// The outcome of a run its [`CancelToken`] ended.
    fn from(cause: CancelCause) -> RunOutcome {
        match cause {
            CancelCause::Cancelled => RunOutcome::Cancelled,
            CancelCause::DeadlineExceeded => RunOutcome::DeadlineExceeded,
        }
    }
}

/// One detected worker death.
#[derive(Debug, Clone)]
pub struct DeathRecord {
    /// The worker declared dead.
    pub worker: usize,
    /// Committed-progress floor when the monitor declared it.
    pub declared_at: usize,
    /// Floor rounds between the worker's last observed heartbeat and the
    /// declaration — the realised detection latency.
    pub detection_lag: usize,
}

/// One recovery handoff: an orphaned shard adopted into a survivor's
/// work-stealing ring.
#[derive(Debug, Clone)]
pub struct Reassignment {
    /// The orphaned shard.
    pub shard: usize,
    /// The surviving worker whose adoption CAS won.
    pub new_owner: usize,
    /// Committed-progress floor at adoption.
    pub at_floor: usize,
}

/// One block's outage: the window during which its owning worker was dead
/// and nobody was allowed to update it.
#[derive(Debug, Clone)]
pub struct FrozenSpan {
    /// The frozen block.
    pub block: usize,
    /// The block's progress count when it was frozen.
    pub frozen_at: usize,
    /// How many rounds the live floor ran ahead of it before the thaw —
    /// the realised outage length, and exactly the amount by which this
    /// span widens the staleness bound.
    pub outage_rounds: usize,
    /// Whether a recovery handoff thawed the block (`false`: it was still
    /// frozen when the run ended — the no-recovery regime).
    pub thawed: bool,
}

/// What the fault runtime did during a run. Empty (all zero/empty fields)
/// for a fault-free run.
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Detected deaths, in detection order.
    pub deaths: Vec<DeathRecord>,
    /// Recovery handoffs, in adoption order.
    pub reassignments: Vec<Reassignment>,
    /// Per-block outage spans, in freeze order.
    pub frozen_spans: Vec<FrozenSpan>,
    /// Block sweeps that panicked and were isolated by `catch_unwind`.
    pub caught_panics: usize,
    /// Largest realised outage over all frozen spans, in floor rounds.
    /// The asserted staleness contract of a faulted run is
    /// `max_skew <= max_round_lag + 1 + max_outage_rounds`.
    pub max_outage_rounds: usize,
}

impl FaultReport {
    /// True when the run saw no fault activity at all.
    pub fn is_empty(&self) -> bool {
        self.deaths.is_empty()
            && self.reassignments.is_empty()
            && self.frozen_spans.is_empty()
            && self.caught_panics == 0
            && self.max_outage_rounds == 0
    }
}

/// A shard's phase under the fault runtime, as seen by a probing worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardPhase {
    /// In the normal work-stealing pool, never orphaned. When the fault
    /// plan dooms the shard's whole home-worker set, its dispatch fence
    /// still applies in this phase.
    Open,
    /// Its last home worker died; no ticket may be drawn from it.
    Orphaned,
    /// Released for adoption by the monitor after recovery-(t_r): the
    /// next prober to win the adoption CAS owns it.
    Released,
    /// Adopted by a survivor — back in the pool, fence lifted.
    Adopted,
}

const SHARD_POOLED: usize = 0;
const SHARD_ORPHANED: usize = 1;
const SHARD_RELEASED: usize = 2;
const SHARD_ADOPTED_BASE: usize = 3;

/// The shard-ownership state machine of the recovery handoff:
/// `Pooled → Orphaned → Released → Adopted(worker)`, each step a single
/// atomic transition. The adoption step is an election — many survivors
/// may probe a released shard concurrently, and CAS atomicity guarantees
/// exactly one winner (a load-then-store shape would let two survivors
/// both observe `Released` and both claim the shard; the model test
/// `tests/model_reassignment.rs` demonstrates the explorer catching
/// precisely that variant).
#[derive(Debug)]
pub struct ShardState {
    state: SyncUsize,
}

impl Default for ShardState {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardState {
    /// A pooled (normally owned) shard.
    pub fn new() -> ShardState {
        ShardState { state: SyncUsize::new(SHARD_POOLED) }
    }

    /// Exclusive reset for workspace reuse.
    fn reset(&mut self) {
        self.state.set_exclusive(SHARD_POOLED);
    }

    /// Marks the shard orphaned. Called by its dying last home worker —
    /// the realised outage begins here.
    pub fn orphan(&self) {
        // sync: Release publishes the dying worker's freeze bookkeeping
        // (SkewTracker::freeze of every shard block) to the survivors'
        // Acquire probes, so nobody draws against half-frozen accounting.
        self.state.store(SHARD_ORPHANED, Ordering::Release);
    }

    /// Opens an orphaned shard for adoption (the monitor, once the
    /// recovery-(t_r) delay has elapsed). Returns `false` when the shard
    /// was never orphaned — a spurious death declaration must not leak a
    /// pooled shard into the adoption protocol.
    pub fn release(&self) -> bool {
        // sync: AcqRel CAS — success orders the monitor's recovery
        // decision before any survivor's Acquire probe observes
        // `Released`; failure (not orphaned) needs only the Acquire read.
        self.state
            .compare_exchange(
                SHARD_ORPHANED,
                SHARD_RELEASED,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The adoption election: `true` for exactly one calling worker per
    /// release. The winner must thaw the shard's blocks before treating
    /// the shard as its own.
    pub fn try_adopt(&self, worker: usize) -> bool {
        // sync: AcqRel CAS — RMW atomicity elects a single winner among
        // racing survivors (the invariant the schedule explorer checks),
        // and success orders the release it observed before the winner's
        // thaw writes.
        self.state
            .compare_exchange(
                SHARD_RELEASED,
                SHARD_ADOPTED_BASE + worker,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok()
    }

    /// The phase as a probing worker must treat it.
    pub fn probe(&self) -> ShardPhase {
        // sync: Acquire pairs with `orphan`'s / `release`'s publishing
        // stores — a prober that sees a phase also sees the bookkeeping
        // that justified it. A stale (older) phase read only delays the
        // reaction by one probe pass.
        match self.state.load(Ordering::Acquire) {
            SHARD_ORPHANED => ShardPhase::Orphaned,
            SHARD_RELEASED => ShardPhase::Released,
            s if s >= SHARD_ADOPTED_BASE => ShardPhase::Adopted,
            _ => ShardPhase::Open,
        }
    }

    /// The adopting worker, if adoption happened.
    pub fn adopter(&self) -> Option<usize> {
        // sync: read for post-join reporting; the join edges (or the
        // caller's own synchronisation) make it exact there.
        let s = self.state.load(Ordering::Relaxed);
        (s >= SHARD_ADOPTED_BASE).then(|| s - SHARD_ADOPTED_BASE)
    }
}

/// Options for [`PersistentExecutor`].
#[derive(Debug, Clone)]
pub struct PersistentOptions {
    /// Number of persistent OS worker threads (also the shard count,
    /// capped at the number of blocks). Defaults like
    /// [`crate::ThreadedOptions`]: available parallelism, capped at 8.
    /// Ignored by a pooled run, whose worker count is its lease size.
    pub n_workers: usize,
    /// Base (minimum) pause between the monitor's watermark polls. The
    /// monitor paces itself from the observed watermark rate — sleeping
    /// roughly until the next check period is due, clamped to
    /// `[monitor_pause, 64 * monitor_pause]` — so it reacts within about
    /// half a check period yet stays nearly silent in between. It shares
    /// cores with the workers (as the paper's host shares the PCIe bus),
    /// and on a single-core host every needless wakeup preempts a worker.
    pub monitor_pause: Duration,
    /// How many rounds a shard's dispatch may run ahead of the
    /// committed-progress floor (the minimum per-block processed-dispatch
    /// count). Workers skip shards beyond this window and steal from the
    /// lagging ones instead, bounding the realised staleness — the
    /// admissibility condition (paper Eq. 2) requires the shift to be
    /// bounded, and an OS scheduler (unlike the GPU's hardware dispatcher)
    /// will happily let one worker drain its whole budget in a single
    /// timeslice if nothing stops it. The reported `UpdateTrace::max_skew`
    /// stays within `max_round_lag + 1`.
    pub max_round_lag: usize,
    /// Death-detection budget, in floor rounds: a worker whose heartbeat
    /// has not moved while the committed-progress floor advanced this
    /// many rounds is declared dead. Small values detect fast but may
    /// record spurious deaths for briefly-starved workers (harmless — a
    /// spurious declaration never releases a shard that was not actually
    /// orphaned); large values delay recovery.
    pub detect_after_rounds: usize,
    /// Stall supervision budget: when no worker heartbeat (and no exit)
    /// has been observed for this long, the monitor raises the stop flag
    /// and the run ends [`RunOutcome::Stalled`] instead of polling a
    /// frozen watermark forever — the all-workers-dead termination
    /// guarantee.
    pub stall_timeout: Duration,
    /// Whether workers publish fused per-block residual sub-norms (via
    /// [`BlockKernel::update_block_estimating`]) into the workspace's
    /// [`ResidualSlots`], letting the monitor answer most polls with an
    /// O(n_blocks) slot reduce instead of an O(n) snapshot + O(nnz)
    /// exact check ([`ConvergenceMonitor::fused_check`]). The estimate is
    /// advisory only — stopping always goes through the exact check —
    /// so disabling this (the bench baseline does, to price the fusion)
    /// changes cost, never the stopping decision.
    pub fuse_residuals: bool,
}

impl Default for PersistentOptions {
    fn default() -> Self {
        let par = std::thread::available_parallelism().map(|p| p.get()).unwrap_or(4);
        PersistentOptions {
            n_workers: par.min(8),
            monitor_pause: Duration::from_micros(50),
            max_round_lag: 1,
            detect_after_rounds: 8,
            stall_timeout: Duration::from_millis(500),
            fuse_residuals: true,
        }
    }
}

/// The host-side convergence check run concurrently with the workers.
///
/// The executor polls the global-iteration watermark (the minimum
/// per-block update count, relaxed loads — racy by design); every
/// [`period`](Self::period) watermark steps it snapshots the live iterate
/// into its reused buffer and calls [`check`](Self::check). Returning
/// `true` raises the stop flag.
pub trait ConvergenceMonitor {
    /// Global iterations between checks; `0` disables checking entirely
    /// (the run then always consumes its full round budget).
    fn period(&self) -> usize {
        0
    }

    /// One concurrent check: `global_iteration` is the watermark at which
    /// the check fired, `x` the snapshot taken for it (possibly mixing
    /// epochs — an asynchronous observer's view). Return `true` to stop
    /// the workers; the run then returns this snapshot as its iterate.
    fn check(&mut self, global_iteration: usize, x: &[f64]) -> bool;

    /// The fused fast path, consulted **before** [`check`](Self::check)
    /// when every block has published a residual sub-norm estimate
    /// (`estimate_sq ≈ ‖b − A x‖²`, reduced from the workers'
    /// [`crate::ResidualSlots`] in O(n_blocks)). Return `true` to
    /// *escalate* — take the snapshot and run the exact check — or
    /// `false` to skip this poll entirely, on the estimate's word that
    /// convergence is still far. The estimate can never stop the run:
    /// only the exact [`check`](Self::check) can, so a lying estimator
    /// costs extra polls (`false` near convergence) or extra exact
    /// checks (`true` early), never a wrong answer. The default always
    /// escalates, which reproduces the pre-fusion behaviour exactly.
    fn fused_check(&mut self, global_iteration: usize, estimate_sq: f64) -> bool {
        let _ = (global_iteration, estimate_sq);
        true
    }

    /// Whether the last exact [`check`](Self::check) found the run so
    /// close to stopping that the executor should keep polling at full
    /// pace instead of applying its expensive-poll pacing floor.
    /// Consulted right after an escalated check that did not stop the
    /// run: on a saturated host the wall-clock of an exact check
    /// includes CPU lost to the workers, and a floor proportional to it
    /// can sleep the monitor many rounds past the crossing — the one
    /// moment detection latency is the whole point. A converging run
    /// spends only its last handful of polls urgent, so waiving the
    /// floor there costs a bounded number of extra exact checks. The
    /// default (`false`) keeps cost-proportional pacing unconditionally.
    fn urgent(&self) -> bool {
        false
    }
}

/// The trivial monitor: never checks, never stops.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoMonitor;

impl ConvergenceMonitor for NoMonitor {
    fn check(&mut self, _global_iteration: usize, _x: &[f64]) -> bool {
        false
    }
}

/// Reusable storage for [`PersistentExecutor::run_session`]: the shared atomic
/// iterate, the per-shard ticket lists and counters, and the per-block
/// bookkeeping. The monitor needs no buffer of its own: it snapshots into
/// the caller's iterate. Reusing one workspace across solves of the same
/// system performs **zero** heap allocation after the first run's
/// capacities stabilise (asserted by `tests/persistent_executor.rs`).
#[derive(Debug, Default)]
pub struct PersistentWorkspace {
    x: AtomicF64Vec,
    /// One materialised schedule cycle per shard: `cycle * shard_len[s]`
    /// block ids, in dispatch order.
    shard_tickets: Vec<Vec<u32>>,
    /// The sharded round counters: ticket `t` of shard `s` is round
    /// `t / shard_len[s]`, block `shard_tickets[s][t % cycle_len]`.
    shard_next: Vec<SyncUsize>,
    shard_len: Vec<usize>,
    shard_total: Vec<usize>,
    counts: Vec<SyncUsize>,
    in_flight: Vec<SyncBool>,
    order_buf: Vec<usize>,
    block_shard: Vec<u32>,
    /// Prefix block offsets of the shards (`n_shards + 1` entries) — the
    /// fault runtime freezes/thaws whole shards by this range.
    shard_off: Vec<usize>,
    cycle_rounds: usize,
    /// Per-worker liveness beacons: bumped once per processed ticket.
    heartbeats: Vec<SyncUsize>,
    /// Per-worker normal-exit flags: a retired worker's frozen heartbeat
    /// is an exit, not a death.
    retired: Vec<SyncBool>,
    /// Per-shard ownership state for the recovery handoff.
    shard_state: Vec<ShardState>,
    /// Per-shard count of live workers homed on the shard; the last one
    /// to die orphans it.
    home_alive: Vec<SyncUsize>,
    /// One epoch-stamped residual sub-norm slot per block, published by
    /// workers on commit and reduced by the monitor's fused fast path.
    residuals: ResidualSlots,
}

impl PersistentWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fingerprint (pointer, capacity) of the shared iterate the monitor
    /// snapshots from — the observable the zero-copy acceptance test
    /// watches across repeated solves: a same-length run reuses it.
    pub fn snapshot_fingerprint(&self) -> (usize, usize) {
        self.x.storage_fingerprint()
    }

    /// Total ticket capacity currently materialised (across shards).
    pub fn materialised_tickets(&self) -> usize {
        self.shard_tickets.iter().map(|t| t.len()).sum()
    }

    /// (Re)builds every buffer for a run. Reuses capacity wherever the
    /// shapes match the previous run. With `shard_offsets` the split is
    /// the caller's (device slices); otherwise it is the even
    /// `n_shards`-way default.
    #[allow(clippy::too_many_arguments)]
    fn prepare(
        &mut self,
        kernel: &dyn BlockKernel,
        x0: &[f64],
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
        n_shards: usize,
        n_workers: usize,
        shard_offsets: Option<&[usize]>,
    ) {
        let nb = kernel.n_blocks();
        self.x.reset_from(x0);

        self.shard_len.clear();
        match shard_offsets {
            Some(off) => {
                debug_assert_eq!(off.len() - 1, n_shards);
                assert_eq!(*off.last().unwrap(), nb, "shard plan must cover every block");
                self.shard_len.extend(off.windows(2).map(|w| w[1] - w[0]));
            }
            None => {
                // Contiguous shard split: shard s owns q blocks, the
                // first r shards one extra.
                let q = nb / n_shards;
                let r = nb % n_shards;
                self.shard_len.extend((0..n_shards).map(|s| q + usize::from(s < r)));
            }
        }
        self.shard_off.clear();
        self.shard_off.push(0);
        for &len in &self.shard_len {
            self.shard_off.push(self.shard_off.last().unwrap() + len);
        }
        if self.heartbeats.len() != n_workers {
            self.heartbeats.resize_with(n_workers, || SyncUsize::new(0));
        }
        for h in &mut self.heartbeats {
            h.set_exclusive(0);
        }
        if self.retired.len() != n_workers {
            self.retired.resize_with(n_workers, || SyncBool::new(false));
        }
        for r in &mut self.retired {
            r.set_exclusive(false);
        }
        if self.shard_state.len() != n_shards {
            self.shard_state.resize_with(n_shards, ShardState::new);
        }
        for st in &mut self.shard_state {
            st.reset();
        }
        if self.home_alive.len() != n_shards {
            self.home_alive.resize_with(n_shards, || SyncUsize::new(0));
        }
        for (s, c) in self.home_alive.iter_mut().enumerate() {
            c.set_exclusive((0..n_workers).filter(|&w| home_shard(w, n_shards) == s).count());
        }
        self.block_shard.clear();
        for (s, &len) in self.shard_len.iter().enumerate() {
            self.block_shard.extend(std::iter::repeat_n(s as u32, len));
        }
        self.shard_total.clear();
        self.shard_total.extend(self.shard_len.iter().map(|&len| len.saturating_mul(rounds)));

        self.cycle_rounds = rounds.clamp(1, SCHEDULE_CYCLE);
        if self.shard_tickets.len() != n_shards {
            self.shard_tickets.resize_with(n_shards, Vec::new);
        }
        for t in &mut self.shard_tickets {
            t.clear();
        }
        for round in 0..self.cycle_rounds {
            schedule.order(round, nb, &mut self.order_buf);
            debug_assert_eq!(self.order_buf.len(), nb);
            for &b in &self.order_buf {
                self.shard_tickets[self.block_shard[b] as usize].push(b as u32);
            }
        }

        if self.shard_next.len() != n_shards {
            self.shard_next.resize_with(n_shards, || SyncUsize::new(0));
        }
        for c in &mut self.shard_next {
            c.set_exclusive(0);
        }
        if self.counts.len() != nb {
            self.counts.resize_with(nb, || SyncUsize::new(0));
        }
        for c in &mut self.counts {
            c.set_exclusive(0);
        }
        if self.in_flight.len() != nb {
            self.in_flight.resize_with(nb, || SyncBool::new(false));
        }
        for f in &mut self.in_flight {
            f.set_exclusive(false);
        }
        self.residuals.reset(nb);
    }
}

/// What a persistent run did, beyond the [`UpdateTrace`].
#[derive(Debug, Clone, Default)]
pub struct PersistentReport {
    /// The global-iteration watermark when the run ended (minimum
    /// completed rounds over all blocks).
    pub global_iterations: usize,
    /// The watermark at which the monitor raised the stop flag, if it
    /// did — this is what a solver should report as its iteration count.
    pub stopped_at: Option<usize>,
    /// Monitor polls that took a snapshot and ran the exact
    /// [`ConvergenceMonitor::check`].
    pub checks: usize,
    /// Monitor polls answered by the fused residual estimate alone — an
    /// O(n_blocks) slot reduce, no snapshot, no exact check. Total polls
    /// are `checks + fused_checks`.
    pub fused_checks: usize,
    /// Updates a worker executed from a shard other than its home shard.
    pub stolen_updates: usize,
    /// Worker threads engaged — the lease size of a pooled run, the
    /// `n_workers` option otherwise.
    pub workers_spawned: usize,
    /// Halo stage refreshes performed (0 when the run had no
    /// [`HaloExchange`] — single-device or DK).
    pub halo_refreshes: usize,
    /// How the run ended.
    pub outcome: RunOutcome,
    /// What the fault runtime saw (empty for a fault-free run).
    pub fault: FaultReport,
}

/// The execution context of [`PersistentExecutor::run_session`]:
/// everything beyond the core (kernel, iterate, schedule, filter,
/// monitor, workspace) arguments. `RunSession::default()` is a plain
/// fault-free run on a transient pool of `n_workers` threads.
#[derive(Default)]
pub struct RunSession<'a> {
    /// Explicit shard partition (device slices); `None` for the even
    /// `n_workers`-way split.
    pub shards: Option<&'a ShardPlan>,
    /// Staged halo for off-shard reads; `None` for live reads.
    pub halo: Option<&'a HaloExchange>,
    /// Live fault plan; `None` for a fault-free run.
    pub faults: Option<&'a FaultPlan>,
    /// Request-scoped cancellation/deadline token, polled by the monitor.
    pub cancel: Option<&'a CancelToken>,
    /// Run on leased threads of a long-lived pool; the lease size becomes
    /// the worker count. `None` builds a transient pool of `n_workers`.
    pub pool: Option<(&'a WorkerPool, Lease<'a>)>,
}

/// Raises the stop flag when dropped — the unwind backstop that keeps a
/// panicking monitor from leaving workers to run their full budget
/// before the pool wait can complete. On the normal path the workers are
/// already done and the store is inert.
struct RaiseStopOnExit<'a>(&'a SyncBool);

impl Drop for RaiseStopOnExit<'_> {
    fn drop(&mut self) {
        // sync: Release mirrors the monitor's stop-store discipline.
        self.0.store(true, Ordering::Release);
    }
}

/// The persistent-worker executor.
#[derive(Debug, Clone, Default)]
pub struct PersistentExecutor {
    /// Execution options.
    pub opts: PersistentOptions,
}

impl PersistentExecutor {
    /// Creates an executor with the given options.
    pub fn new(opts: PersistentOptions) -> Self {
        PersistentExecutor { opts }
    }

    /// [`run_session`](Self::run_session) with only a shard plan and a
    /// staged halo. Kept because `abr-benchmark` calls it; prefer
    /// `run_session`, this wrapper goes with the next benchmark change.
    #[allow(clippy::too_many_arguments)]
    pub fn run_sharded(
        &self,
        kernel: &dyn BlockKernel,
        x: &mut [f64],
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
        filter: &dyn UpdateFilter,
        monitor: &mut dyn ConvergenceMonitor,
        ws: &mut PersistentWorkspace,
        shards: Option<&ShardPlan>,
        halo: Option<&HaloExchange>,
    ) -> (UpdateTrace, PersistentReport) {
        let session = RunSession { shards, halo, ..RunSession::default() };
        self.run_session(kernel, x, rounds, schedule, filter, monitor, ws, session)
    }

    /// Runs up to `rounds` asynchronous global rounds of the kernel over
    /// `x` (in place: read as the initial iterate, overwritten with the
    /// final one), dispatching per `schedule`, committing per `filter`,
    /// with `monitor` checked concurrently on the calling thread. Stops
    /// early when the monitor fires: a [`RunOutcome::Stopped`] run
    /// returns the snapshot that stopping check measured, not the live
    /// iterate the workers kept writing until they saw the stop. Every
    /// other outcome returns the live iterate. The workspace is reused
    /// storage — pass the same one across runs to avoid reallocation.
    ///
    /// The [`RunSession`] carries the rest:
    ///
    /// * **Shards and halo.** With [`RunSession::shards`], the per-shard
    ///   ticket pools are the plan's block ranges (a multi-GPU solver
    ///   passes its device slices) instead of the even `n_workers`-way
    ///   split. With [`RunSession::halo`], workers of shard `s` read the
    ///   iterate through the halo's staged view for device `s` —
    ///   off-shard components then arrive on the exchange's epoch cadence
    ///   rather than live — and the halo's device count must equal the
    ///   shard count.
    /// * **Live faults** ([`RunSession::faults`]): planned workers really
    ///   die, hang, or go panicky mid-solve; the monitor detects deaths
    ///   from stalled heartbeats; and — when the plan enables
    ///   recovery-(t_r) — orphaned shards are reassigned into the
    ///   survivors' work-stealing ring after `t_r` further floor rounds.
    /// * **Cancellation/deadline** ([`RunSession::cancel`]): the monitor
    ///   polls the token once per poll and translates a fired token into
    ///   the ordinary Release stop store, so the run ends (and its
    ///   workers free up) within one monitor poll. The outcome is
    ///   [`RunOutcome::Cancelled`] / [`RunOutcome::DeadlineExceeded`] and
    ///   the iterate holds the partial result;
    ///   [`PersistentReport::global_iterations`] is the partial count.
    /// * **Workers** ([`RunSession::pool`]): the run consumes a [`Lease`]
    ///   from a long-lived [`WorkerPool`] and the worker count is the
    ///   lease size (the `n_workers` option is ignored). Without one, the
    ///   run builds a transient pool of `n_workers`, leases all of it,
    ///   and drains it on every exit, unwinding included. Either way the
    ///   worker body goes through the same dispatch, the monitor runs on
    ///   the calling thread, and the run does not return until every
    ///   worker has finished — the pool's completion edge is the join
    ///   edge that makes all post-run reads exact.
    ///
    /// The run is assembled from named pieces: `RunState` (the shared
    /// environment), `run_worker` (the worker body: `fire_fault`,
    /// `draw_ticket`, `sweep_and_commit`, the heartbeat), `Host` (the
    /// monitor: `Pacer`, `watermark`, the cancel check, the convergence
    /// poll, and the `FaultDetector`), and `finish_run` (the post-join
    /// report).
    ///
    /// # Panics
    ///
    /// A sweep that panics is caught inside the worker and counted in
    /// [`FaultReport::caught_panics`]. A worker body that unwinds
    /// *outside* that catch (an executor bug or a violated contract,
    /// never a planned fault) makes `run_session` panic after the join,
    /// on pooled and transient runs alike, so no caller can mistake the
    /// run for a finished one. A panicking monitor propagates the same
    /// way, after the stop flag is raised and the workers are joined.
    ///
    /// ## The staleness contract under an outage
    ///
    /// The fault-free invariant is `max_skew <= max_round_lag + 1`: the
    /// lag gate admits a dispatch only while its round is within
    /// `max_round_lag` of the committed-progress floor, plus one for the
    /// in-flight update. An outage widens it as follows. When a worker
    /// dies, its orphaned blocks are *frozen out* of the floor (the
    /// paper's surviving components keep iterating), so the floor the
    /// gate sees keeps advancing while the frozen blocks sit at their
    /// pre-outage count `c`. At the thaw, the floor has reached some
    /// `F >= c`, and the realised outage is `F - c` rounds. The monotone
    /// floor mirror does **not** drop back to `c`: survivors remain gated
    /// at `F + max_round_lag`, so no live block can pass
    /// `F + max_round_lag + 1` until the thawed block itself catches up
    /// past `F` — at which point the normal invariant is restored. The
    /// widest spread is therefore at the thaw instant:
    /// `(F + max_round_lag + 1) - c = max_round_lag + 1 + (F - c)`, i.e.
    ///
    /// ```text
    /// max_skew <= max_round_lag + 1 + max_outage_rounds
    /// ```
    ///
    /// with `max_outage_rounds` the largest realised `F - c` over all
    /// frozen spans ([`FaultReport::max_outage_rounds`], measured by the
    /// [`SkewTracker`] at each thaw and at end-of-run reconciliation for
    /// never-thawed blocks). This bound is **asserted** after every run —
    /// fault-free runs assert the original bound, since their
    /// `max_outage_rounds` is 0.
    #[allow(clippy::too_many_arguments)]
    pub fn run_session(
        &self,
        kernel: &dyn BlockKernel,
        x: &mut [f64],
        rounds: usize,
        schedule: &mut dyn BlockSchedule,
        filter: &dyn UpdateFilter,
        monitor: &mut dyn ConvergenceMonitor,
        ws: &mut PersistentWorkspace,
        session: RunSession<'_>,
    ) -> (UpdateTrace, PersistentReport) {
        let RunSession { shards, halo, faults, cancel, pool } = session;
        let nb = kernel.n_blocks();
        assert_eq!(x.len(), kernel.n(), "iterate length must match kernel");
        if nb == 0 || rounds == 0 {
            return (UpdateTrace::new(nb), PersistentReport::default());
        }

        // One dispatch path for every run. A run without a lease builds a
        // transient pool of `n_workers` and leases all of it; the pool is
        // declared before everything its workers borrow, so it is dropped
        // (drained and joined) last, on return and on unwind alike.
        let transient;
        let (pool, lease) = match pool {
            Some(leased) => leased,
            None => {
                transient = WorkerPool::new(self.opts.n_workers.max(1));
                let lease = transient
                    .try_lease(transient.n_workers())
                    .expect("a fresh pool is idle");
                (&transient, lease)
            }
        };
        // A run's parallelism is its lease (never empty): the pool
        // arbitrates how many workers each concurrent solve gets.
        let n_workers = lease.n();
        let n_shards = match shards {
            Some(plan) => plan.n_shards(),
            None => n_workers.min(nb),
        };
        if let Some(h) = halo {
            assert_eq!(
                h.n_devices(),
                n_shards,
                "halo device count must match the shard count"
            );
        }
        let offsets = shards.map(|p| p.offsets());
        ws.prepare(kernel, x, rounds, schedule, n_shards, n_workers, offsets);
        let st = RunState::new(ws, kernel, filter, halo, faults, &self.opts);
        let started = Instant::now();

        let worker = |w: usize| run_worker(&st, w);
        let pending = pool.dispatch(lease, &worker);
        let host = {
            // Unwind backstop: a panicking monitor (e.g. a violated
            // contract assert) raises stop on the way out so the wait
            // below does not run the workers' full round budget.
            let _raise = RaiseStopOnExit(&st.stop);
            // The shared iterate now holds `x`, so the monitor snapshots
            // into it.
            let mut host = Host::new(monitor, x, cancel, &self.opts, &st);
            host.run(&st);
            host
        };
        // The wait is the run's join edge — every worker's writes are
        // visible to the post-run reads below.
        let escaped = pending.wait();
        assert!(
            escaped == 0,
            "{escaped} worker bodies unwound outside the per-sweep catch_unwind"
        );

        let xa = st.xa;
        let (trace, report) = finish_run(st, host, started.elapsed());
        let lag = self.opts.max_round_lag;
        // The staleness contract, re-derived for the outage window (see
        // the method docs): the fault-free `max_round_lag + 1` widens by
        // exactly the largest realised outage. Asserted, not hand-waved.
        assert!(
            trace.max_skew <= lag + 1 + report.fault.max_outage_rounds,
            "staleness contract violated: max_skew {} > max_round_lag {} + 1 + max_outage {}",
            trace.max_skew,
            lag,
            report.fault.max_outage_rounds
        );
        // No poll runs after the stop, so a stopped run's `x` still holds
        // the snapshot its stopping check measured.
        if report.outcome != RunOutcome::Stopped {
            xa.copy_into(x);
        }
        (trace, report)
    }
}

/// The solve-local environment of one run, borrowed by the workers and
/// the monitor alike: the run's inputs, the prepared workspace's shared
/// views, and the counters, flags and trackers the two sides meet in.
/// Per-worker mutable state lives in [`WorkerLocal`], monitor-side state
/// in [`Host`].
struct RunState<'r> {
    kernel: &'r dyn BlockKernel,
    filter: &'r dyn UpdateFilter,
    halo: Option<&'r HaloExchange>,
    faults: Option<&'r FaultPlan>,
    xa: &'r AtomicF64Vec,
    tickets: &'r [Vec<u32>],
    next: &'r [SyncUsize],
    shard_len: &'r [usize],
    shard_total: &'r [usize],
    shard_off: &'r [usize],
    counts: &'r [SyncUsize],
    in_flight: &'r [SyncBool],
    block_shard: &'r [u32],
    heartbeats: &'r [SyncUsize],
    retired: &'r [SyncBool],
    shard_state: &'r [ShardState],
    home_alive: &'r [SyncUsize],
    residuals: &'r ResidualSlots,
    cycle_rounds: usize,
    n_workers: usize,
    n_shards: usize,
    lag: usize,
    fuse: bool,
    has_faults: bool,
    stop: SyncBool,
    /// Workers still running; the monitor loop ends when it reaches 0.
    active: SyncUsize,
    skipped: SyncUsize,
    stolen: SyncUsize,
    panics: SyncUsize,
    /// The concurrent count-of-counts watermark (allocated here, at
    /// solve start). Its floor — the minimum per-block *progress*
    /// (commits plus filter-skips) — is what the lag gate compares
    /// dispatch rounds against: gating on committed progress rather
    /// than dispatched tickets is what makes the reported
    /// `max_skew <= max_round_lag + 1` airtight (an in-flight dispatch
    /// no longer lets other blocks run an extra window ahead), and
    /// counting skips keeps a filter-frozen block from pinning the floor
    /// forever.
    skew: SkewTracker,
    /// Each worker records read staleness into a private histogram and
    /// merges it here at exit (one lock per worker per run).
    stale_sink: Mutex<StalenessHistogram>,
    /// Adoption log: one lock per recovery handoff, not per update.
    reassign_log: Mutex<Vec<Reassignment>>,
    /// Per-shard read views: live atomic everywhere, unless a halo
    /// stages the off-shard components.
    shard_views: Vec<XView<'r>>,
    /// Per-shard dispatch fence round (`usize::MAX`: unfenced); see
    /// [`shard_fences`].
    shard_fence: Vec<usize>,
}

impl<'r> RunState<'r> {
    /// The shared state of one run over a prepared workspace: workers and
    /// monitor share its immutable parts.
    fn new(
        ws: &'r PersistentWorkspace,
        kernel: &'r dyn BlockKernel,
        filter: &'r dyn UpdateFilter,
        halo: Option<&'r HaloExchange>,
        faults: Option<&'r FaultPlan>,
        opts: &PersistentOptions,
    ) -> RunState<'r> {
        // `prepare` sized these: one heartbeat per worker, one length per
        // shard.
        let n_workers = ws.heartbeats.len();
        let n_shards = ws.shard_len.len();
        let x = &ws.x;
        let st = RunState {
            kernel,
            filter,
            halo,
            faults,
            xa: x,
            tickets: &ws.shard_tickets,
            next: &ws.shard_next,
            shard_len: &ws.shard_len,
            shard_total: &ws.shard_total,
            shard_off: &ws.shard_off,
            counts: &ws.counts,
            in_flight: &ws.in_flight,
            block_shard: &ws.block_shard,
            heartbeats: &ws.heartbeats,
            retired: &ws.retired,
            shard_state: &ws.shard_state,
            home_alive: &ws.home_alive,
            residuals: &ws.residuals,
            cycle_rounds: ws.cycle_rounds,
            n_workers,
            n_shards,
            lag: opts.max_round_lag,
            fuse: opts.fuse_residuals,
            has_faults: faults.is_some_and(|p| !p.is_empty()),
            stop: SyncBool::new(false),
            active: SyncUsize::new(n_workers),
            skipped: SyncUsize::new(0),
            stolen: SyncUsize::new(0),
            panics: SyncUsize::new(0),
            skew: SkewTracker::new(kernel.n_blocks()),
            stale_sink: Mutex::new(StalenessHistogram::default()),
            reassign_log: Mutex::new(Vec::new()),
            shard_views: (0..n_shards)
                .map(|s| match halo {
                    Some(h) => XView::Staged(h.view(s, x)),
                    None => XView::Atomic(x),
                })
                .collect(),
            shard_fence: shard_fences(faults, n_workers, n_shards),
        };
        st
    }
}

/// The dispatch fence — the deterministic half of the outage boundary. A
/// shard whose *entire* home-worker set is planned to die (Kill/Hang)
/// dispatches no ticket at or beyond the outage round until the shard is
/// adopted: the §4.5 semantics "the dead core's blocks receive no update
/// after t0" must not depend on how quickly the OS schedules the dying
/// thread. Without the fence, a descheduled victim lets survivors steal
/// the doomed shard's entire remaining budget before the fault ever
/// fires — no outage would be realised at all. The dying worker still
/// performs the freeze/orphan bookkeeping when it fires (and detection
/// still goes through the heartbeat protocol); the fence only pins the
/// ticket counter, so between the fence round and the realised orphaning
/// the system idles at the lag gate rather than running ahead.
fn shard_fences(faults: Option<&FaultPlan>, n_workers: usize, n_shards: usize) -> Vec<usize> {
    (0..n_shards)
        .map(|s| {
            let Some(plan) = faults else { return usize::MAX };
            let mut fence = 0usize;
            let mut homes = 0usize;
            for w in (0..n_workers).filter(|&w| home_shard(w, n_shards) == s) {
                homes += 1;
                match plan.fault_for(w) {
                    Some(f) if matches!(f.kind, FaultKind::Kill | FaultKind::Hang) => {
                        fence = fence.max(f.at_round)
                    }
                    _ => return usize::MAX,
                }
            }
            if homes == 0 {
                usize::MAX
            } else {
                fence
            }
        })
        .collect()
}

/// One worker's private state for a run: its sweep buffers and staleness
/// histogram — allocated at spawn (= solve start), allocation-free once
/// capacities settle — and its planned fault.
struct WorkerLocal {
    w: usize,
    home: usize,
    out: Vec<f64>,
    scratch: BlockScratch,
    stale: StalenessHistogram,
    /// The planned fault `(kind, at_round)`, until it fires.
    fault: Option<(FaultKind, usize)>,
    /// A fired [`FaultKind::Panic`]: every later sweep panics.
    poisoned: bool,
}

/// What a worker's [`draw_ticket`] came back with.
enum Draw {
    /// Every shard has dispatched its whole budget.
    Exhausted,
    /// Every eligible shard raced away (or only in-flight commits can
    /// advance the floor).
    Blocked,
    /// `block` at absolute `round`, drawn from `shard`.
    Ticket { shard: usize, round: usize, block: usize },
}

/// The worker body, dispatched onto each leased pool thread: fire the
/// planned fault, draw a ticket, refresh the halo, sweep and commit,
/// beat — until the budget drains, the stop flag flips, or the worker
/// dies.
fn run_worker(st: &RunState<'_>, w: usize) {
    let mut me = WorkerLocal {
        w,
        home: home_shard(w, st.n_shards),
        out: Vec::new(),
        scratch: BlockScratch::new(),
        stale: StalenessHistogram::default(),
        fault: st.faults.and_then(|p| p.fault_for(w)).map(|f| (f.kind, f.at_round)),
        poisoned: false,
    };
    let mut died = false;
    // sync: Acquire pairs with the monitor's Release store — a worker
    // that observes stop=true also observes everything the monitor did
    // before raising it (in particular its recorded stop watermark), so
    // `stopped_at` is coherent with worker-visible stop.
    while !st.stop.load(Ordering::Acquire) {
        // The fault trigger, checked *before* drawing a ticket so a dying
        // worker never consumes (and thereby loses) a dispatch it will
        // not perform.
        if fire_fault(st, &mut me) {
            died = true;
            break;
        }
        let (shard, round, block) = match draw_ticket(st, &me) {
            Draw::Exhausted => break,
            Draw::Blocked => {
                // Let the holders make progress and retry.
                std::thread::yield_now();
                continue;
            }
            Draw::Ticket { shard, round, block } => (shard, round, block),
        };
        if let Some(h) = st.halo {
            h.maybe_refresh(shard, round, st.xa, st.skew.floor());
        }
        sweep_and_commit(st, &mut me, shard, round, block);
        st.skew.on_progress(block);
        // sync: Relaxed — a monotone liveness beacon; the monitor only
        // compares successive samples for equality, so no ordering is
        // needed.
        st.heartbeats[w].fetch_add(1, Ordering::Relaxed);
    }
    if me.stale.total() > 0 {
        st.stale_sink.lock().merge(&me.stale);
    }
    if !died {
        // sync: Release pairs with the monitor's Acquire read — a retired
        // worker's frozen heartbeat is a normal exit, never a death to
        // detect. (A killed or hung worker deliberately does *not*
        // retire.)
        st.retired[w].store(true, Ordering::Release);
    }
    // sync: Release pairs with the monitor's Acquire load — "active == 0"
    // proves every worker's final writes are visible before the monitor
    // loop exits.
    st.active.fetch_sub(1, Ordering::Release);
}

/// Fires the worker's planned fault once the committed-progress floor
/// reaches its trigger round. A `Panic` poisons every later sweep. A
/// `Kill` or `Hang` realises the outage and returns `true`: the worker
/// is dead and draws no more tickets.
#[inline]
fn fire_fault(st: &RunState<'_>, me: &mut WorkerLocal) -> bool {
    let Some((kind, at_round)) = me.fault else { return false };
    if st.skew.floor() < at_round {
        return false;
    }
    me.fault = None;
    if kind == FaultKind::Panic {
        me.poisoned = true;
        return false;
    }
    // The dying worker realises the outage: if it was the last live
    // worker homed on its shard, the shard's blocks freeze out of the
    // progress floor and the shard leaves the stealing pool. (A real dead
    // core does not announce itself — *detection* still goes through the
    // heartbeat protocol.)
    //
    // sync: AcqRel — the decrement both publishes this worker's last
    // commits and, for the final decrementer, orders the freeze + orphan
    // sequence after every sibling's death.
    if st.home_alive[me.home].fetch_sub(1, Ordering::AcqRel) == 1 {
        for b in st.shard_off[me.home]..st.shard_off[me.home + 1] {
            st.skew.freeze(b);
        }
        st.shard_state[me.home].orphan();
    }
    if kind == FaultKind::Hang {
        // Parked, not exited: the thread stays resident until the stop
        // flag flips (stall supervision guarantees it eventually does).
        //
        // sync: Acquire pairs with the monitor's Release stop store.
        while !st.stop.load(Ordering::Acquire) {
            std::thread::sleep(Duration::from_micros(200));
        }
    }
    true
}

/// Draws the worker's next ticket: the exhaustion probe, the lag gate,
/// the fault runtime's fence and adoption handoff, and the gate-validated
/// CAS — home shard first, then the others in ring order.
fn draw_ticket(st: &RunState<'_>, me: &WorkerLocal) -> Draw {
    let mut exhausted = true;
    for s in 0..st.n_shards {
        // sync: advisory emptiness probe; the draw below revalidates with
        // a CAS, so a stale read only costs one extra pass.
        if st.next[s].load(Ordering::Relaxed) < st.shard_total[s] {
            exhausted = false;
            break;
        }
    }
    if exhausted {
        return Draw::Exhausted;
    }
    // The lag gate: a shard whose next dispatch round is more than
    // `max_round_lag` ahead of the committed-progress floor is skipped —
    // its would-be worker steals from the laggards instead, which both
    // bounds the realised staleness (Eq. 2) and actively rebalances the
    // load.
    let floor = st.skew.floor();
    // Draw a ticket: home shard first, then steal in ring order from the
    // eligible others. The draw is a gate-validated CAS, not a fetch_add:
    // the ticket taken is exactly the one the bounds check inspected. (A
    // fetch_add after a separate gate check can overshoot — racing
    // workers each validate the same `seen` and then draw *different*
    // tickets, some past the lag window, which is precisely the
    // `max_skew` bound leak the model explorer catches.)
    for probe in 0..st.n_shards {
        let s = (me.home + probe) % st.n_shards;
        let m = st.shard_len[s];
        let mut cap = st.shard_total[s];
        if st.has_faults {
            match st.shard_state[s].probe() {
                // The outage: no ticket leaves an orphaned shard, no
                // matter how far the stealing ring would reach.
                ShardPhase::Orphaned => continue,
                ShardPhase::Released => {
                    // The recovery handoff: one survivor wins the
                    // adoption CAS, thaws the blocks (ending their frozen
                    // spans), and logs the reassignment; losers fall
                    // through and treat the shard as pooled again.
                    if st.shard_state[s].try_adopt(me.w) {
                        for b in st.shard_off[s]..st.shard_off[s + 1] {
                            st.skew.thaw(b);
                        }
                        st.reassign_log.lock().push(Reassignment {
                            shard: s,
                            new_owner: me.w,
                            at_floor: st.skew.floor(),
                        });
                    }
                }
                // Adoption lifts the fence: the new owner (and the
                // stealing ring) works the backlog from the outage round
                // on.
                ShardPhase::Adopted => {}
                ShardPhase::Open => {
                    // Not yet orphaned, but doomed by plan: the fence
                    // caps dispatch at the outage round (see
                    // `shard_fences`).
                    if st.shard_fence[s] != usize::MAX {
                        cap = cap.min(st.shard_fence[s].saturating_mul(m));
                    }
                }
            }
        }
        // sync: Relaxed snapshot to seed the CAS loop — staleness only
        // costs a CAS retry.
        let mut seen = st.next[s].load(Ordering::Relaxed);
        while seen < cap && seen / m <= floor + st.lag {
            // sync: Relaxed CAS — the counter is a pure ticket dispenser;
            // the gate bound is sound against a stale progress floor
            // because the floor is monotone and read conservatively low.
            match st.next[s].compare_exchange_weak(
                seen,
                seen + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    if probe != 0 {
                        // sync: statistics counter, read after join.
                        st.stolen.fetch_add(1, Ordering::Relaxed);
                    }
                    let block = st.tickets[s][seen % (st.cycle_rounds * m)] as usize;
                    return Draw::Ticket { shard: s, round: seen / m, block };
                }
                Err(cur) => seen = cur,
            }
        }
    }
    Draw::Blocked
}

/// Runs one drawn ticket. A filter-disabled ticket only counts as
/// skipped. Otherwise, under the block's in-flight flag: sample the read
/// staleness, sweep inside `catch_unwind`, commit the filtered
/// components, bump the count, publish the fused residual, and release
/// the flag.
fn sweep_and_commit(
    st: &RunState<'_>,
    me: &mut WorkerLocal,
    s: usize,
    round: usize,
    block: usize,
) {
    if !st.filter.block_enabled(block, round) {
        // sync: statistics counter, read after join.
        st.skipped.fetch_add(1, Ordering::Relaxed);
        return;
    }
    acquire_block_flag(&st.in_flight[block]);
    // hb shadow: with the in-flight flag held, this worker claims the
    // block region and its scratch exclusively — both claims must
    // happen-after the previous holder's (the flag's Release/Acquire
    // hand-off provides the edge; a downgrade would be reported).
    #[cfg(any(feature = "model", feature = "sanitize"))]
    {
        abr_sync::hb::on_data_write(
            abr_sync::hb::id_of(&st.in_flight[block]),
            abr_sync::hb::Access::WriteExcl,
        );
        me.scratch.hb_claim();
    }
    // Realised shift of every neighbour read (Eq. 3 measured, mirroring
    // the DES): own committed rounds minus what the read actually
    // delivers — the neighbour's count when read live, the stage's
    // freshness stamp when it comes through the halo.
    if let Some(nbrs) = st.kernel.neighbor_blocks(block) {
        // sync: own count is only ever advanced under this block's
        // in-flight flag, which we hold — the Relaxed read is exact.
        let own = st.counts[block].load(Ordering::Relaxed) as i64;
        for &j in nbrs {
            let read = match st.halo {
                Some(h) if st.block_shard[j] as usize != s => h.stage_stamp(s) as i64,
                // sync: deliberately racy neighbour progress sample —
                // staleness here is the quantity being *measured* (Eq.
                // 3), not a bug to order away.
                _ => st.counts[j].load(Ordering::Relaxed) as i64,
            };
            me.stale.record(own - read);
        }
    }
    let (bs, be) = st.kernel.block_range(block);
    // Grow-only: the kernel writes every row of `out` before it returns.
    if me.out.len() < be - bs {
        me.out.resize(be - bs, 0.0);
    }
    let out = &mut me.out[..be - bs];
    let scratch = &mut me.scratch;
    // A panicking sweep (a planned Panic fault or a genuinely buggy
    // kernel) is isolated here: the commit is dropped, the flag still
    // released, the run degraded but never aborted. `AssertUnwindSafe` is
    // sound because nothing an unwound sweep leaves behind is read again:
    // `out` is committed only when the sweep returns, and a later update
    // overwrites every row of it before committing; the kernel contract
    // re-initialises every scratch region it reads, so a torn state from
    // an unwound sweep cannot leak into a later one.
    let view = &st.shard_views[s];
    let poisoned = me.poisoned;
    let w = me.w;
    let swept = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if poisoned {
            panic!(
                "injected fault: worker {w} poisoned, \
                 sweep of block {block} round {round} panics"
            );
        }
        if st.fuse {
            st.kernel.update_block_estimating(block, view, out, scratch)
        } else {
            st.kernel.update_block_with(block, view, out, scratch);
            None
        }
    }));
    if let Ok(estimate) = swept {
        // one filter query per block when it filters no component here
        if st.filter.all_components_enabled(bs, be, round) {
            st.xa.store_range(bs, out);
        } else {
            for (k, &v) in out.iter().enumerate() {
                if st.filter.component_enabled(bs + k, round) {
                    st.xa.set(bs + k, v);
                }
            }
        }
        // sync: Relaxed is safe under the held in-flight flag; cross-thread
        // readers only use the count as a staleness sample.
        st.counts[block].fetch_add(1, Ordering::Relaxed);
        // Publish the fused residual sub-norm while still holding the
        // block's in-flight flag (one publisher per slot at a time). The
        // estimate is advisory — a poll it answers can only skip an exact
        // check, never stop the run — so component drops by the fault
        // filter merely make it optimistic, which the confirmation gate
        // absorbs.
        if let Some(sub_norm_sq) = estimate {
            st.residuals.publish(block, sub_norm_sq);
        }
    } else {
        // sync: statistics counter, read after join.
        st.panics.fetch_add(1, Ordering::Relaxed);
    }
    // sync: Release publishes this block's component writes and count
    // bump to the next worker that Acquire-wins the flag.
    st.in_flight[block].store(false, Ordering::Release);
}

/// The fault runtime's monitor half, written once: it declares deaths
/// from stalled heartbeats, schedules the recovery-(t_r) release of every
/// orphaned, fully detected shard, and fires due releases. The monitor
/// polls it every iteration; the stall rescue polls it forced.
struct FaultDetector {
    /// Workers declared dead or seen retired (sticky).
    dead: Vec<bool>,
    /// Per worker: the last heartbeat sampled, and the floor when it was
    /// first seen. Sampled for declared workers too: a spurious early
    /// declaration must not freeze the baseline that a later real death's
    /// release is measured from.
    hb_seen: Vec<usize>,
    hb_floor: Vec<usize>,
    /// Per shard: the floor at which its scheduled release fires.
    reassign_due: Vec<Option<usize>>,
    detect_after: usize,
    recovery: Option<usize>,
    /// Declared deaths, in detection order.
    deaths: Vec<DeathRecord>,
}

impl FaultDetector {
    fn new(
        n_workers: usize,
        n_shards: usize,
        detect_after: usize,
        recovery: Option<usize>,
    ) -> FaultDetector {
        FaultDetector {
            dead: vec![false; n_workers],
            hb_seen: vec![usize::MAX; n_workers],
            hb_floor: vec![0; n_workers],
            reassign_due: vec![None; n_shards],
            detect_after,
            recovery,
            deaths: Vec::new(),
        }
    }

    /// One detector poll; returns whether a release fired. Unforced, a
    /// worker whose heartbeat sat still while the floor ran
    /// `detect_after` rounds is declared dead, and a scheduled release
    /// fires once the floor reaches it. Forced (the stall rescue, whose
    /// frozen progress signature already proves no non-retired worker is
    /// beating), every non-retired worker is declared dead and every
    /// scheduled release fires now.
    fn poll(&mut self, st: &RunState<'_>, force: bool) -> bool {
        let floor = st.skew.floor();
        for dw in 0..st.n_workers {
            // sync: Acquire pairs with the worker's retirement Release
            // store — an exit observed here is never misread as a death.
            if !self.dead[dw] && st.retired[dw].load(Ordering::Acquire) {
                self.dead[dw] = true;
                continue;
            }
            // sync: Relaxed beacon sample (see the worker's beat site).
            let hb = st.heartbeats[dw].load(Ordering::Relaxed);
            if hb != self.hb_seen[dw] {
                self.hb_seen[dw] = hb;
                self.hb_floor[dw] = floor;
            }
            if self.dead[dw] {
                continue;
            }
            if !force
                && (floor <= self.hb_floor[dw] || floor - self.hb_floor[dw] < self.detect_after)
            {
                continue;
            }
            // The heartbeat sat still while the floor ran `detect_after`
            // rounds past it (forced: while no worker beat for the whole
            // stall timeout): declared dead. (Spurious for a
            // merely-starved worker, which is harmless — `release`
            // refuses shards that were never orphaned.)
            self.dead[dw] = true;
            self.deaths.push(DeathRecord {
                worker: dw,
                declared_at: floor,
                detection_lag: floor.saturating_sub(self.hb_floor[dw]),
            });
        }
        // Recovery-(t_r) scheduling is decoupled from the declaration
        // event: a shard is scheduled by the first poll that observes it
        // both orphaned and fully detected (every home worker declared
        // dead). Tying it to the declaration itself loses recovery
        // permanently when a spurious early declaration (a starved worker
        // during spawn ramp-up) lands while the doomed shard is still
        // Open — the sticky `dead` flag would then skip the real death.
        //
        // The release is due `t_r` rounds after the floor at which a
        // detector polling every round would have declared the last home
        // worker: its last observed beat plus `detect_after`. Counting
        // from the floor of the poll instead would add the monitor's poll
        // gap twice (once to the declaration, once to the release), and
        // on a saturated host, where the monitor wakes tens of rounds
        // apart, push the release to the end of the budget.
        if let Some(t_r) = self.recovery {
            for s in 0..st.n_shards {
                let homes = || (0..st.n_workers).filter(|&w| home_shard(w, st.n_shards) == s);
                if self.reassign_due[s].is_none()
                    && st.shard_state[s].probe() == ShardPhase::Orphaned
                    && homes().all(|w| self.dead[w])
                {
                    let detected = homes().map(|w| self.hb_floor[w]).max().unwrap_or(floor);
                    let due = detected.saturating_add(self.detect_after).saturating_add(t_r);
                    self.reassign_due[s] = Some(due);
                }
            }
        }
        // A pending release fires when the floor has run `t_r` rounds
        // past the detection — or as soon as every live (pooled/adopted)
        // shard has drained its budget: once the floor can no longer
        // advance, the remaining delay has no rounds left to be measured
        // in, and holding the shard would wedge a fixed-budget run into a
        // stall that recovery was asked to prevent.
        let fire_all = force
            || (self.reassign_due.iter().any(|d| d.is_some())
                && (0..st.n_shards).all(|s| {
                    matches!(
                        st.shard_state[s].probe(),
                        ShardPhase::Orphaned | ShardPhase::Released
                    )
                        // sync: advisory drain probe; a stale low
                        // read only delays the early release by
                        // one poll.
                        || st.next[s].load(Ordering::Relaxed) >= st.shard_total[s]
                }));
        let mut fired = false;
        for (s, due) in self.reassign_due.iter_mut().enumerate() {
            if let Some(d) = *due {
                if (fire_all || floor >= d) && st.shard_state[s].release() {
                    *due = None;
                    fired = true;
                }
            }
        }
        fired
    }
}

/// The monitor's self-pacing. Rate-paced polling: track how fast the
/// watermark advances and sleep roughly until the next check is due.
/// Blind exponential backoff alone would let fast, tiny rounds run
/// hundreds of iterations past the stop point before the monitor wakes;
/// pure fixed-rate polling would preempt the workers thousands of times
/// per solve on a saturated host.
///
/// Smoothed poll costs are tracked *per poll kind*: a fused O(n_blocks)
/// reduce and an escalated snapshot + exact check differ by five orders
/// of magnitude (~200 ns vs ~25 ms of CPU at a million rows), and the
/// elapsed wall-clock of an exact check on a saturated host additionally
/// includes the CPU it lost to the workers. One shared estimate would let
/// a single escalation throttle the cheap fused polls into the same
/// sparse cadence as the expensive ones — observed as the monitor
/// sleeping 15+ rounds past the crossing. The pacing floor is set from
/// the cost of whichever poll kind just ran, so each kind's duty cycle is
/// bounded at ~1/4 independently.
struct Pacer {
    base_pause: Duration,
    max_pause: Duration,
    last_wm: usize,
    last_t: Instant,
    per_round: Duration,
    idle_pause: Duration,
    fused_cost: Duration,
    exact_cost: Duration,
    poll_floor: Duration,
}

impl Pacer {
    fn new(monitor_pause: Duration) -> Pacer {
        let base_pause = monitor_pause.max(Duration::from_micros(1));
        Pacer {
            base_pause,
            max_pause: base_pause * 64,
            last_wm: 0,
            last_t: Instant::now(),
            per_round: base_pause,
            idle_pause: base_pause,
            fused_cost: Duration::ZERO,
            exact_cost: Duration::ZERO,
            poll_floor: Duration::ZERO,
        }
    }

    /// Folds a fresh watermark sample into the per-round time estimate.
    fn observe(&mut self, watermark: usize) {
        if watermark > self.last_wm {
            let step = self.last_t.elapsed() / (watermark - self.last_wm) as u32;
            // Smooth towards the observed per-round time so a single slow
            // poll doesn't swing the pacing.
            self.per_round = (self.per_round + step) / 2;
            self.last_wm = watermark;
            self.last_t = Instant::now();
            self.idle_pause = self.base_pause;
        }
    }

    /// Records what a poll answered by the fused estimate cost.
    fn fused_polled(&mut self, cost: Duration) {
        self.fused_cost = (self.fused_cost + cost) / 2;
        self.poll_floor = self.fused_cost.saturating_mul(3);
    }

    /// Records what an escalated snapshot + exact check cost; `urgent`
    /// is the monitor's word that the crossing is imminent.
    fn exact_polled(&mut self, cost: Duration, urgent: bool) {
        // Smooth towards the observed cost, like the per-round estimate:
        // one slow outlier (a page fault mid-SpMV) should not triple the
        // pacing floor for the rest of the run.
        self.exact_cost = (self.exact_cost + cost) / 2;
        // Endgame override: when the check itself says the crossing is
        // imminent, pace like a fused poll — sleeping 3x an exact check's
        // (possibly contention-inflated) wall cost here is how a run
        // overshoots the tolerance by many rounds.
        self.poll_floor = if urgent {
            self.fused_cost.saturating_mul(3)
        } else {
            self.exact_cost.saturating_mul(3)
        };
    }

    /// The sleep before the next poll: wake around halfway to the
    /// expected due time so the check lands within ~period/2 of the true
    /// crossing. The distance is clamped before widening to `u32` and the
    /// multiply saturates: a monitor with a huge `period` (e.g.
    /// `usize::MAX` to mean "never") must degrade into the max pause, not
    /// overflow.
    fn pause(&self, watermark: usize, next_check: usize) -> Duration {
        let remaining = next_check.saturating_sub(watermark).min(1 << 16) as u32;
        (self.per_round.saturating_mul(remaining) / 2)
            .clamp(self.base_pause, self.max_pause)
            // The cost-aware floor: sleep at least 3x what the last poll
            // of this kind cost, so polling can consume at most ~1/4 of
            // the monitor thread's wall-clock no matter how expensive the
            // check is. Deliberately applied after the clamp — a
            // multi-millisecond exact check must be allowed to push the
            // pause past `64 * monitor_pause` — and reset per poll kind,
            // so one escalation does not throttle the nanosecond fused
            // polls that follow it.
            .max(self.poll_floor)
    }

    /// The backoff when there is nothing to check: doubles up to the max
    /// pause, reset by the next watermark advance.
    fn idle(&mut self) -> Duration {
        let pause = self.idle_pause;
        self.idle_pause = (pause * 2).min(self.max_pause);
        pause
    }
}

/// The dispatch watermark. Watermark = dispatched rounds, not committed
/// updates: O(n_shards) per poll, and it keeps advancing past blocks an
/// [`UpdateFilter`] has frozen (fault injection), so convergence checks
/// never stall behind a dead block. For the same reason an orphaned (or
/// released-but-unadopted) shard is excluded: its dispatch counter is
/// fenced for the whole outage, and pinning the watermark to it would
/// silence every residual check of a no-recovery run right when the
/// plateau is the thing being measured. An adopted shard rejoins the
/// minimum — its backlog is live work again.
fn watermark(st: &RunState<'_>) -> usize {
    (0..st.n_shards)
        .filter(|&s| {
            !st.has_faults
                || !matches!(
                    st.shard_state[s].probe(),
                    ShardPhase::Orphaned | ShardPhase::Released
                )
        })
        .map(|s| {
            // sync: racy progress sample; the counter is monotone so a
            // stale read only under-reports the watermark (checks fire
            // late, never on future state).
            st.next[s].load(Ordering::Relaxed).min(st.shard_total[s]) / st.shard_len[s]
        })
        .min()
        .unwrap_or(0)
}

/// The monitor side of a run, on the calling thread. This is the paper's
/// host: it reads the racy iterate on the side while the workers stream
/// updates, and raises the stop flag the moment its check is satisfied.
/// It also runs the fault detector and the stall supervision.
struct Host<'h> {
    monitor: &'h mut dyn ConvergenceMonitor,
    snap: &'h mut [f64],
    cancel: Option<&'h CancelToken>,
    period: usize,
    next_check: usize,
    pacer: Pacer,
    detector: FaultDetector,
    /// Stall supervision. The progress signature folds every heartbeat
    /// and the live-worker count; while it does not change, nothing in
    /// the system can ever change it again except a worker action — so a
    /// signature frozen past `stall_timeout` proves the run is wedged
    /// (all workers dead/hung, or the survivors' only remaining tickets
    /// sit in a shard no recovery will release).
    stall_timeout: Duration,
    last_sig: usize,
    last_beat: Instant,
    checks: usize,
    fused_checks: usize,
    stopped_at: Option<usize>,
    cancel_cause: Option<CancelCause>,
}

impl<'h> Host<'h> {
    fn new(
        monitor: &'h mut dyn ConvergenceMonitor,
        snap: &'h mut [f64],
        cancel: Option<&'h CancelToken>,
        opts: &PersistentOptions,
        st: &RunState<'_>,
    ) -> Host<'h> {
        let period = monitor.period();
        let recovery = st.faults.and_then(|p| p.recovery_rounds);
        let detect_after = opts.detect_after_rounds.max(1);
        Host {
            monitor,
            snap,
            cancel,
            period,
            next_check: period.max(1),
            pacer: Pacer::new(opts.monitor_pause),
            detector: FaultDetector::new(st.n_workers, st.n_shards, detect_after, recovery),
            stall_timeout: opts.stall_timeout.max(Duration::from_millis(1)),
            last_sig: usize::MAX,
            last_beat: Instant::now(),
            checks: 0,
            fused_checks: 0,
            stopped_at: None,
            cancel_cause: None,
        }
    }

    /// The monitor loop: runs until every worker has exited.
    fn run(&mut self, st: &RunState<'_>) {
        loop {
            // sync: Acquire pairs with each worker's Release decrement;
            // zero means all worker writes are visible.
            let live = st.active.load(Ordering::Acquire);
            if live == 0 {
                break;
            }
            self.check_cancel(st);
            if self.stalled(st, live) {
                // Last-resort recovery sweep before declaring the run
                // wedged. The round-based detector needs floor headroom
                // *after* the victim's last observed beat; if the
                // survivors drained their whole budget between two
                // monitor polls, that headroom never materialises and the
                // orphaned shard would wedge the run even though recovery
                // was requested. A frozen progress signature is a
                // stronger death certificate than any watermark
                // comparison — every non-retired worker is provably not
                // beating — so the detector's forced poll declares them,
                // releases what was orphaned, and grants the system one
                // more stall window. Only if nothing could be released is
                // the run truly wedged.
                let recovers = st.has_faults && self.detector.recovery.is_some();
                if recovers && self.detector.poll(st, true) {
                    self.last_beat = Instant::now();
                } else {
                    // sync: Release pairs with the workers' (and hung
                    // threads') Acquire stop loads — the Stalled verdict
                    // and everything before it are visible to whoever
                    // acts on the flag.
                    st.stop.store(true, Ordering::Release);
                    // The pool wait still waits for the threads; hung
                    // workers wake on the flag and exit.
                    break;
                }
            }
            if st.has_faults {
                self.detector.poll(st, false);
            }
            // sync: Acquire matches the flag's Release store (it is this
            // thread's own store, but the facade audit keeps the flag's
            // declared discipline uniform at every site).
            if self.period > 0 && !st.stop.load(Ordering::Acquire) {
                let watermark = watermark(st);
                self.pacer.observe(watermark);
                if watermark >= self.next_check {
                    self.poll(st, watermark);
                    // Fall through to the pacing sleep instead of
                    // re-polling immediately: when the workers outran
                    // `next_check` during an expensive poll, an
                    // unconditional catch-up would chain polls
                    // back-to-back and pin the monitor at 100% duty —
                    // exactly what the pacer's cost floor exists to
                    // prevent.
                }
                std::thread::sleep(self.pacer.pause(watermark, self.next_check));
            } else {
                // Nothing to check (fixed budget or stop already raised):
                // back off until the workers drain.
                std::thread::sleep(self.pacer.idle());
            }
        }
    }

    /// The request-scoped stop: an explicit cancellation or an expired
    /// deadline becomes the run's ordinary Release stop store on the very
    /// next poll — the workers drain within one monitor poll, the latency
    /// bound the service layer advertises.
    fn check_cancel(&mut self, st: &RunState<'_>) {
        if self.cancel_cause.is_some() {
            return;
        }
        if let Some(why) = self.cancel.and_then(|tok| tok.should_stop()) {
            self.cancel_cause = Some(why);
            // sync: Release pairs with the workers' Acquire stop loads, as
            // at every stop site.
            st.stop.store(true, Ordering::Release);
        }
    }

    /// Whether the progress signature has sat still for the whole stall
    /// timeout.
    fn stalled(&mut self, st: &RunState<'_>, live: usize) -> bool {
        let mut sig = live;
        for hb in st.heartbeats {
            // sync: Relaxed — monotone beacon, sampled only for equality
            // against the previous sample.
            sig = sig.wrapping_add(hb.load(Ordering::Relaxed));
        }
        if sig != self.last_sig {
            self.last_sig = sig;
            self.last_beat = Instant::now();
            return false;
        }
        self.last_beat.elapsed() >= self.stall_timeout
    }

    /// One convergence poll at a due watermark. The fused fast path:
    /// when every block has published a residual sub-norm, an
    /// O(n_blocks) reduce prices this poll. `fused_check` may *skip* the
    /// snapshot + exact check (the estimate says convergence is far) but
    /// can never stop the run — stopping strictly requires the exact
    /// check, so a stale or lying estimate costs polls, not correctness.
    fn poll(&mut self, st: &RunState<'_>, watermark: usize) {
        let poll_started = Instant::now();
        let escalate = match st.residuals.reduce() {
            Some(estimate_sq) => self.monitor.fused_check(watermark, estimate_sq),
            None => true,
        };
        if !escalate {
            self.fused_checks += 1;
            self.next_check = watermark.saturating_add(self.period);
            self.pacer.fused_polled(poll_started.elapsed());
            return;
        }
        st.xa.copy_into(self.snap);
        self.checks += 1;
        if self.monitor.check(watermark, self.snap) {
            self.stopped_at = Some(watermark);
            // sync: Release publishes the recorded stop watermark (the
            // line above) to any worker that Acquire-observes the flag —
            // the stop-watermark coherence invariant checked by
            // tests/model_stop_watermark.rs.
            st.stop.store(true, Ordering::Release);
        } else {
            self.next_check = watermark.saturating_add(self.period);
        }
        let cost = poll_started.elapsed();
        self.pacer.exact_polled(cost, self.monitor.urgent());
    }
}

/// Builds the trace and report of a joined run.
fn finish_run(
    st: RunState<'_>,
    host: Host<'_>,
    elapsed: Duration,
) -> (UpdateTrace, PersistentReport) {
    let mut trace = UpdateTrace::new(st.counts.len());
    trace.elapsed = elapsed.as_secs_f64();
    // Fold still-frozen outages (the no-recovery regime) into the skew
    // accounting before reading it: an outage nobody thawed is still
    // realised skew.
    st.skew.reconcile();
    // sync: the pool wait has joined every worker — these Relaxed reads
    // are ordered by the join edges and therefore exact.
    trace.updates_per_block = st.counts.iter().map(|c| c.load(Ordering::Relaxed)).collect();
    // sync: post-join read (see above).
    trace.skipped_updates = st.skipped.load(Ordering::Relaxed);
    trace.max_skew = st.skew.max_skew();
    trace.staleness = st.stale_sink.into_inner();
    let outcome = if host.stopped_at.is_some() {
        RunOutcome::Stopped
    } else if (0..st.n_shards)
        // sync: post-join read (see above).
        .all(|s| st.next[s].load(Ordering::Relaxed) >= st.shard_total[s])
    {
        RunOutcome::Completed
    } else if let Some(why) = host.cancel_cause {
        // Undrained because the request-scoped token fired: the caller
        // asked for the stop, so this is neither convergence nor a wedge.
        why.into()
    } else {
        // Undrained and never stopped by a check: the workers exited on
        // kills or on the stall-supervision stop — either way the run
        // wedged with tickets outstanding.
        RunOutcome::Stalled
    };
    let fault = FaultReport {
        deaths: host.detector.deaths,
        reassignments: st.reassign_log.into_inner(),
        frozen_spans: st
            .skew
            .frozen_spans()
            .into_iter()
            .map(|(block, frozen_at, outage_rounds, thawed)| FrozenSpan {
                block,
                frozen_at,
                outage_rounds,
                thawed,
            })
            .collect(),
        // sync: post-join read (see above).
        caught_panics: st.panics.load(Ordering::Relaxed),
        max_outage_rounds: st.skew.max_outage(),
    };
    let report = PersistentReport {
        global_iterations: trace.updates_per_block.iter().copied().min().unwrap_or(0),
        stopped_at: host.stopped_at,
        checks: host.checks,
        fused_checks: host.fused_checks,
        // sync: post-join read (see above).
        stolen_updates: st.stolen.load(Ordering::Relaxed),
        workers_spawned: st.n_workers,
        halo_refreshes: st.halo.map_or(0, |h| h.refreshes()),
        outcome,
        fault,
    };
    (trace, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::test_kernels::ConsensusKernel;
    use crate::kernel::AllowAll;
    use crate::schedule::{RandomPermutation, RoundRobin};

    fn run_consensus(
        n_workers: usize,
        rounds: usize,
        monitor: &mut dyn ConvergenceMonitor,
    ) -> (Vec<f64>, UpdateTrace, PersistentReport) {
        let kernel = ConsensusKernel { n: 48, block_size: 5 };
        let mut x: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers,
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let mut sched = RandomPermutation::new(11);
        let (trace, report) = exec.run_session(
            &kernel,
            &mut x,
            rounds,
            &mut sched,
            &AllowAll,
            monitor,
            &mut ws,
            RunSession::default(),
        );
        (x, trace, report)
    }

    #[test]
    fn consensus_converges_with_persistent_workers() {
        let (x, trace, report) = run_consensus(3, 80, &mut NoMonitor);
        let mean = x.iter().sum::<f64>() / 48.0;
        for &v in &x {
            assert!((v - mean).abs() < 1e-5, "not converged: {v} vs {mean}");
        }
        assert_eq!(trace.total_updates(), 80 * 10);
        assert_eq!(report.global_iterations, 80);
        assert_eq!(report.workers_spawned, 3);
        assert_eq!(report.stopped_at, None);
    }

    /// Checks every round and stops at the first watermark past its own.
    struct StopAt(usize);

    impl ConvergenceMonitor for StopAt {
        fn period(&self) -> usize {
            1
        }
        fn check(&mut self, gi: usize, _x: &[f64]) -> bool {
            gi >= self.0
        }
    }

    #[test]
    fn monitor_stop_flag_halts_workers_early() {
        let mut monitor = StopAt(5);
        let (_, trace, report) = run_consensus(2, 10_000, &mut monitor);
        let at = report.stopped_at.expect("monitor must fire");
        assert!(at >= 5, "stopped at watermark {at}");
        assert!(
            trace.total_updates() < 10_000 * 10,
            "stop flag must halt the run early: {} updates",
            trace.total_updates()
        );
        assert!(report.checks >= 1);
    }

    /// A kernel with no fixed point: every update adds one to each of its
    /// block's components, so every commit changes the iterate. It counts
    /// the updates it computed.
    struct Drift<'a> {
        updates: &'a std::sync::Mutex<usize>,
    }

    impl BlockKernel for Drift<'_> {
        fn n(&self) -> usize {
            48
        }
        fn n_blocks(&self) -> usize {
            12
        }
        fn block_range(&self, b: usize) -> (usize, usize) {
            (4 * b, 4 * b + 4)
        }
        fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
            for (o, i) in out.iter_mut().zip(4 * b..) {
                *o = x.get(i) + 1.0;
            }
            *self.updates.lock().unwrap() += 1;
        }
    }

    /// The workers keep committing after the stopping check's snapshot;
    /// the run must return that snapshot, not the live iterate.
    #[test]
    fn a_stopped_run_returns_the_snapshot_its_check_measured() {
        const WORKERS: usize = 2;
        /// Stops at its first check, keeps the snapshot it was given, and
        /// returns only after the workers provably committed past it:
        /// more updates than workers computed since, so some worker
        /// committed one and started the next.
        struct StopAndWait<'a> {
            updates: &'a std::sync::Mutex<usize>,
            snapshot: Vec<f64>,
        }
        impl ConvergenceMonitor for StopAndWait<'_> {
            fn period(&self) -> usize {
                5
            }
            fn check(&mut self, _gi: usize, x: &[f64]) -> bool {
                self.snapshot = x.to_vec();
                let seen = *self.updates.lock().unwrap();
                let deadline = Instant::now() + Duration::from_secs(10);
                while *self.updates.lock().unwrap() <= seen + WORKERS {
                    assert!(Instant::now() < deadline, "the workers stopped updating");
                    std::thread::sleep(Duration::from_millis(1));
                }
                true
            }
        }
        let updates = std::sync::Mutex::new(0);
        let mut monitor = StopAndWait { updates: &updates, snapshot: Vec::new() };
        let mut x = vec![0.0; 48];
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: WORKERS,
            ..PersistentOptions::default()
        });
        let (_, report) = exec.run_session(
            &Drift { updates: &updates },
            &mut x,
            1_000_000,
            &mut RandomPermutation::new(11),
            &AllowAll,
            &mut monitor,
            &mut PersistentWorkspace::new(),
            RunSession::default(),
        );
        assert_eq!(report.outcome, RunOutcome::Stopped);
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&x), bits(&monitor.snapshot));
    }

    /// A `usize::MAX` budget (a pooled request may carry up to 2^53)
    /// neither overflows the per-shard ticket totals nor keeps the
    /// monitor from stopping the run.
    #[test]
    fn an_unbounded_round_budget_still_stops() {
        let (_, _, report) = run_consensus(2, usize::MAX, &mut StopAt(5));
        assert_eq!(report.outcome, RunOutcome::Stopped);
    }

    #[test]
    fn filter_respected_with_absolute_rounds() {
        // Blocks frozen from round 3 onward: each block commits exactly 3
        // updates, and the skip counter absorbs the rest.
        struct FreezeFrom(usize);
        impl UpdateFilter for FreezeFrom {
            fn block_enabled(&self, _b: usize, round: usize) -> bool {
                round < self.0
            }
        }
        let kernel = ConsensusKernel { n: 20, block_size: 4 };
        let mut x = vec![1.0; 20];
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 2,
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let (trace, _) = exec.run_session(
            &kernel,
            &mut x,
            8,
            &mut RoundRobin,
            &FreezeFrom(3),
            &mut NoMonitor,
            &mut ws,
            RunSession::default(),
        );
        assert_eq!(trace.updates_per_block, vec![3; 5]);
        assert_eq!(trace.skipped_updates, 5 * 5);
    }

    #[test]
    fn budget_beyond_schedule_cycle_still_counts_rounds_exactly() {
        let kernel = ConsensusKernel { n: 12, block_size: 3 };
        let mut x = vec![2.0; 12];
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 2,
            ..PersistentOptions::default()
        });
        // A budget past two materialised cycles: the ticket lists wrap.
        let rounds = 600;
        assert!(rounds > 2 * SCHEDULE_CYCLE);
        let mut ws = PersistentWorkspace::new();
        let (trace, report) = exec.run_session(
            &kernel,
            &mut x,
            rounds,
            &mut RandomPermutation::new(3),
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession::default(),
        );
        assert_eq!(ws.cycle_rounds, SCHEDULE_CYCLE);
        assert_eq!(trace.updates_per_block, vec![rounds; 4]);
        assert_eq!(report.global_iterations, rounds);
    }

    #[test]
    fn workspace_reuse_keeps_buffers_stable() {
        let kernel = ConsensusKernel { n: 30, block_size: 5 };
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 2,
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let run = |ws: &mut PersistentWorkspace| {
            let mut x = vec![1.0; 30];
            exec.run_session(
                &kernel,
                &mut x,
                20,
                &mut RoundRobin,
                &AllowAll,
                &mut NoMonitor,
                ws,
                RunSession::default(),
            );
        };
        run(&mut ws);
        let fp = ws.snapshot_fingerprint();
        let tickets = ws.materialised_tickets();
        for _ in 0..3 {
            run(&mut ws);
            assert_eq!(ws.snapshot_fingerprint(), fp, "snapshot buffer must be reused");
            assert_eq!(ws.materialised_tickets(), tickets);
        }
    }

    #[test]
    fn more_workers_than_blocks_degrades_gracefully() {
        let kernel = ConsensusKernel { n: 8, block_size: 4 }; // 2 blocks
        let mut x: Vec<f64> = (0..8).map(|i| i as f64).collect();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 6,
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let (trace, _) = exec.run_session(
            &kernel,
            &mut x,
            40,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession::default(),
        );
        assert_eq!(trace.total_updates(), 40 * 2);
        let mean = x.iter().sum::<f64>() / 8.0;
        for &v in &x {
            assert!((v - mean).abs() < 1e-6);
        }
    }

    /// Satellite regression: a multi-worker persistent run must actually
    /// measure skew (today's bug was a dead `max_skew == 0`), and the
    /// progress-floor lag gate must keep it within `max_round_lag + 1`.
    #[test]
    fn max_skew_is_nonzero_and_bounded_by_the_lag_gate() {
        for lag in [1usize, 3] {
            let kernel = ConsensusKernel { n: 48, block_size: 4 };
            let mut x: Vec<f64> = (0..48).map(|i| i as f64).collect();
            let exec = PersistentExecutor::new(PersistentOptions {
                n_workers: 4,
                max_round_lag: lag,
                ..PersistentOptions::default()
            });
            let mut ws = PersistentWorkspace::new();
            let (trace, _) = exec.run_session(
                &kernel,
                &mut x,
                60,
                &mut RandomPermutation::new(7),
                &AllowAll,
                &mut NoMonitor,
                &mut ws,
                RunSession::default(),
            );
            assert_eq!(trace.updates_per_block, vec![60; 12]);
            assert!(trace.max_skew > 0, "a concurrent run cannot be perfectly synchronous");
            assert!(
                trace.max_skew <= lag + 1,
                "skew {} exceeds the lag bound {}",
                trace.max_skew,
                lag + 1
            );
        }
    }

    /// Satellite regression: a monitor with a huge period (e.g.
    /// `usize::MAX` to mean "never due") must neither overflow the pacing
    /// arithmetic nor ever fire.
    #[test]
    fn huge_monitor_period_does_not_overflow_the_pacing() {
        struct NeverDue;
        impl ConvergenceMonitor for NeverDue {
            fn period(&self) -> usize {
                usize::MAX
            }
            fn check(&mut self, _gi: usize, _x: &[f64]) -> bool {
                panic!("a usize::MAX period must never come due");
            }
        }
        let (_, trace, report) = run_consensus(2, 40, &mut NeverDue);
        assert_eq!(trace.total_updates(), 40 * 10);
        assert_eq!(report.checks, 0);
        assert_eq!(report.stopped_at, None);
    }

    #[test]
    fn explicit_shard_plan_drives_the_split() {
        let kernel = ConsensusKernel { n: 20, block_size: 4 }; // 5 blocks
        let mut x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 4, // more workers than shards: they team up
            ..PersistentOptions::default()
        });
        let plan = ShardPlan::from_offsets(&[0, 2, 5]);
        assert_eq!(plan.n_shards(), 2);
        assert_eq!(plan.shard_range(1), (2, 5));
        let mut ws = PersistentWorkspace::new();
        let (trace, report) = exec.run_sharded(
            &kernel,
            &mut x,
            30,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            Some(&plan),
            None,
        );
        assert_eq!(trace.updates_per_block, vec![30; 5]);
        assert_eq!(report.global_iterations, 30);
        assert_eq!(report.workers_spawned, 4);
        // The workspace took the plan's lengths, not the even split.
        assert_eq!(ws.shard_len, vec![2, 3]);
        let mean = x.iter().sum::<f64>() / 20.0;
        for &v in &x {
            assert!((v - mean).abs() < 1e-6);
        }
    }

    #[test]
    fn pooled_run_matches_transient_semantics_and_reuses_the_pool() {
        let pool = crate::pool::WorkerPool::new(4);
        let kernel = ConsensusKernel { n: 48, block_size: 4 }; // 12 blocks
        let exec = PersistentExecutor::default();
        let mut ws = PersistentWorkspace::new();
        // Several consecutive solves on the same leased pool: the fabric
        // outlives every run (the daemon lifecycle in miniature).
        for round in 0..3 {
            let mut x: Vec<f64> = (0..48).map(|i| (i + round) as f64).collect();
            let lease = pool.try_lease(3).expect("pool is idle between runs");
            let (trace, report) = exec.run_session(
                &kernel,
                &mut x,
                50,
                &mut RandomPermutation::new(round as u64),
                &AllowAll,
                &mut NoMonitor,
                &mut ws,
                RunSession { pool: Some((&pool, lease)), ..RunSession::default() },
            );
            assert_eq!(trace.updates_per_block, vec![50; 12]);
            assert_eq!(report.global_iterations, 50);
            assert_eq!(report.outcome, RunOutcome::Completed);
            assert_eq!(report.workers_spawned, 3, "worker count is the lease size");
            assert!(trace.max_skew <= exec.opts.max_round_lag + 1);
            let mean = x.iter().sum::<f64>() / 48.0;
            for &v in &x {
                assert!((v - mean).abs() < 1e-5, "not converged: {v} vs {mean}");
            }
            assert_eq!(pool.idle(), 4, "lease returned after the run");
        }
        assert_eq!(pool.shutdown(), 4);
    }

    #[test]
    fn cancel_token_stops_a_run_and_reports_cancelled() {
        let kernel = ConsensusKernel { n: 48, block_size: 4 };
        let mut x: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 2,
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let token = CancelToken::new();
        token.cancel(); // fired before the first poll: stops immediately
        let (trace, report) = exec.run_session(
            &kernel,
            &mut x,
            200_000,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession { cancel: Some(&token), ..RunSession::default() },
        );
        assert_eq!(report.outcome, RunOutcome::Cancelled);
        assert!(
            trace.total_updates() < 200_000 * 12,
            "cancellation must stop the run early: {} updates",
            trace.total_updates()
        );
    }

    #[test]
    fn expired_deadline_reports_partial_progress_on_a_pooled_run() {
        let pool = crate::pool::WorkerPool::new(2);
        let kernel = ConsensusKernel { n: 48, block_size: 4 };
        let exec = PersistentExecutor::default();
        let mut ws = PersistentWorkspace::new();
        let lease = pool.try_lease(2).unwrap();
        let token =
            CancelToken::with_deadline(Instant::now() + Duration::from_millis(5));
        let mut x: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let (_, report) = exec.run_session(
            &kernel,
            &mut x,
            usize::MAX / (12 * 4), // far more rounds than 5 ms allows
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession {
                cancel: Some(&token),
                pool: Some((&pool, lease)),
                ..RunSession::default()
            },
        );
        assert_eq!(report.outcome, RunOutcome::DeadlineExceeded);
        // The shards came back: the next request on the same pool leases
        // the full width and completes fault-free.
        let lease = pool.try_lease(2).expect("deadline-out run released its lease");
        let mut y: Vec<f64> = (0..48).map(|i| i as f64).collect();
        let (_, report2) = exec.run_session(
            &kernel,
            &mut y,
            50,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession { pool: Some((&pool, lease)), ..RunSession::default() },
        );
        assert_eq!(report2.outcome, RunOutcome::Completed);
        let mean = y.iter().sum::<f64>() / 48.0;
        for &v in &y {
            assert!((v - mean).abs() < 1e-5);
        }
        assert_eq!(pool.shutdown(), 2);
    }

    #[test]
    #[should_panic(expected = "cover every block")]
    fn shard_plan_must_cover_every_block() {
        let kernel = ConsensusKernel { n: 20, block_size: 4 }; // 5 blocks
        let mut x = vec![0.0; 20];
        let exec = PersistentExecutor::default();
        let plan = ShardPlan::from_offsets(&[0, 2, 4]); // only 4 of 5
        let mut ws = PersistentWorkspace::new();
        exec.run_sharded(
            &kernel,
            &mut x,
            2,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            Some(&plan),
            None,
        );
    }

    #[test]
    fn staged_halo_refreshes_and_still_converges() {
        use crate::halo::HaloExchange;
        use crate::timing::CommStrategy;
        let kernel = ConsensusKernel { n: 20, block_size: 4 }; // 5 blocks
        let mut x: Vec<f64> = (0..20).map(|i| i as f64).collect();
        let x0 = x.clone();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 2,
            ..PersistentOptions::default()
        });
        let plan = ShardPlan::from_offsets(&[0, 2, 5]);
        // Device rows mirror the shard plan's block ranges (blocks of 4).
        let halo = HaloExchange::for_strategy(CommStrategy::Dc, &[0, 8, 20], &x0, 2).unwrap();
        let mut ws = PersistentWorkspace::new();
        let (trace, report) = exec.run_sharded(
            &kernel,
            &mut x,
            400,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            Some(&plan),
            Some(&halo),
        );
        assert_eq!(trace.updates_per_block, vec![400; 5]);
        assert!(report.halo_refreshes > 0, "the exchange must actually run");
        // Stale halos slow consensus but must not break it: with a
        // 2-round epoch over 400 rounds the devices still agree.
        let mean = x.iter().sum::<f64>() / 20.0;
        for &v in &x {
            assert!((v - mean).abs() < 1e-5, "not converged: {v} vs {mean}");
        }
    }

    /// A component filter that drops every write: the iterate must come
    /// back unchanged, yet every dispatch still counts as an executed
    /// update (the cores ran, their writes were dropped).
    #[test]
    fn component_filter_drops_writes_but_counts_updates() {
        struct FreezeAll;
        impl UpdateFilter for FreezeAll {
            fn component_enabled(&self, _i: usize, _round: usize) -> bool {
                false
            }
        }
        let kernel = ConsensusKernel { n: 10, block_size: 2 };
        let x0: Vec<f64> = (0..10).map(|i| i as f64 * 2.0).collect();
        let mut x = x0.clone();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 3,
            ..PersistentOptions::default()
        });
        let (trace, _) = exec.run_session(
            &kernel,
            &mut x,
            5,
            &mut RoundRobin,
            &FreezeAll,
            &mut NoMonitor,
            &mut PersistentWorkspace::new(),
            RunSession::default(),
        );
        assert_eq!(x, x0, "all writes filtered: iterate unchanged");
        assert_eq!(trace.total_updates(), 5 * 5);
    }

    /// Fault-path harness: a consensus run under a plan, small pauses and
    /// aggressive detection so the tests stay fast.
    #[allow(clippy::too_many_arguments)]
    fn faulted_consensus(
        n_workers: usize,
        nb_times_bs: (usize, usize),
        rounds: usize,
        plan: &FaultPlan,
        detect_after: usize,
        stall_ms: u64,
    ) -> (Vec<f64>, UpdateTrace, PersistentReport) {
        let (n, block_size) = nb_times_bs;
        let kernel = ConsensusKernel { n, block_size };
        let mut x: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers,
            detect_after_rounds: detect_after,
            stall_timeout: Duration::from_millis(stall_ms),
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let mut sched = RoundRobin;
        let (trace, report) = exec.run_session(
            &kernel,
            &mut x,
            rounds,
            &mut sched,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession { faults: Some(plan), ..RunSession::default() },
        );
        (x, trace, report)
    }

    /// The Stalled regression: every worker killed at round 0 must end
    /// the run with an explicit `Stalled` outcome in bounded time (here
    /// the kill path — the monitor breaks on `active == 0` immediately,
    /// no stall timeout even needed).
    #[test]
    fn all_workers_killed_returns_stalled_in_bounded_time() {
        let mut plan = FaultPlan::new();
        for w in 0..3 {
            plan = plan.kill(w, 0);
        }
        let started = Instant::now();
        let (_, trace, report) =
            faulted_consensus(3, (24, 4), 10_000, &plan, 3, 200);
        assert_eq!(report.outcome, RunOutcome::Stalled);
        assert_eq!(trace.total_updates(), 0, "nobody should have worked");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "an all-dead run must terminate promptly"
        );
    }

    /// Same guarantee on the hang path: the threads stay resident, so
    /// termination relies on the stall supervision raising the stop flag.
    #[test]
    fn all_workers_hung_returns_stalled_within_the_pacing_budget() {
        let mut plan = FaultPlan::new();
        for w in 0..2 {
            plan = plan.hang(w, 0);
        }
        let started = Instant::now();
        let (_, _, report) = faulted_consensus(2, (12, 3), 10_000, &plan, 3, 100);
        assert_eq!(report.outcome, RunOutcome::Stalled);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "stall supervision must terminate a hung run"
        );
    }

    /// A kill with recovery: the death is detected from the stalled
    /// heartbeat, the orphaned shard is released after t_r floor rounds,
    /// exactly one survivor adopts it, and the run then drains its full
    /// budget — every block ends at the full commit count, with the
    /// outage recorded as frozen spans and a widened (asserted) skew
    /// bound.
    ///
    /// The dispatch fence is what pins the outage: worker 1 stops at
    /// round 5, so every frozen span is one of shard 1's blocks (3..6)
    /// and starts at round 5. Declaration rounds are not pinned: with
    /// `detect_after = 3` a worker starved since spawn (a survivor, or
    /// worker 1 before its kill) may be declared dead at floor 3 or 4,
    /// the spurious declaration `detect_after_rounds` allows.
    #[test]
    fn kill_with_recovery_reassigns_the_orphaned_shard() {
        let plan = FaultPlan::new().kill(1, 5).with_recovery(6);
        let (x, trace, report) =
            faulted_consensus(4, (48, 4), 120, &plan, 3, 2_000);
        let fault = &report.fault;
        assert_eq!(report.outcome, RunOutcome::Completed, "{fault:?}");
        assert_eq!(trace.updates_per_block, vec![120; 12], "{fault:?}");
        assert!(
            fault.deaths.iter().any(|d| d.worker == 1),
            "worker 1's death must be detected: {fault:?}"
        );
        assert!(!fault.frozen_spans.is_empty(), "the outage must freeze blocks: {fault:?}");
        for s in &fault.frozen_spans {
            assert!(
                (3..6).contains(&s.block) && s.frozen_at == 5,
                "a frozen span outside shard 1's fenced outage: {s:?} in {fault:?}"
            );
        }
        let r = fault
            .reassignments
            .iter()
            .find(|r| r.shard == 1)
            .unwrap_or_else(|| panic!("shard 1 must be reassigned: {fault:?}"));
        assert_ne!(r.new_owner, 1, "a dead worker cannot adopt: {fault:?}");
        assert!(fault.frozen_spans.iter().all(|s| s.thawed), "{fault:?}");
        assert!(fault.max_outage_rounds > 0, "the outage must be realised: {fault:?}");
        let mean = x.iter().sum::<f64>() / 48.0;
        for &v in &x {
            // Loose tolerance: a worst-case-late recovery leaves fewer
            // effective mixing rounds after the backlog replay.
            assert!((v - mean).abs() < 1e-3, "not converged: {v} vs {mean}; {fault:?}");
        }
    }

    /// The stall rescue on its own: with the round detector switched off
    /// (`detect_after = usize::MAX`), the only way worker 1's death is
    /// declared and its orphaned shard released is the detector's forced
    /// poll after the progress signature freezes past the stall timeout.
    #[test]
    fn stall_rescue_alone_recovers_an_orphaned_shard() {
        let plan = FaultPlan::new().kill(1, 5).with_recovery(6);
        let (_, trace, report) =
            faulted_consensus(4, (48, 4), 60, &plan, usize::MAX, 100);
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(trace.updates_per_block, vec![60; 12]);
        assert!(
            report.fault.deaths.iter().any(|d| d.worker == 1),
            "worker 1's death must be declared: {:?}",
            report.fault.deaths
        );
        let r = report
            .fault
            .reassignments
            .iter()
            .find(|r| r.shard == 1)
            .expect("shard 1 must be reassigned");
        assert_ne!(r.new_owner, 1, "a dead worker cannot adopt");
    }

    /// No recovery: the orphaned shard's tickets are never drained, the
    /// survivors finish their own work and the run ends `Stalled`, with
    /// the orphan blocks' commit counts frozen at the outage point.
    #[test]
    fn kill_without_recovery_stalls_with_frozen_blocks() {
        let plan = FaultPlan::new().kill(1, 5);
        let (_, trace, report) = faulted_consensus(4, (48, 4), 40, &plan, 3, 300);
        assert_eq!(report.outcome, RunOutcome::Stalled);
        // Shard 1 owns blocks 3..6; they froze around round 5 while every
        // other block drained the full 40-round budget.
        for b in 0..12 {
            let c = trace.updates_per_block[b];
            if (3..6).contains(&b) {
                assert!(c < 40, "orphan block {b} should be frozen, got {c}");
            } else {
                assert_eq!(c, 40, "live block {b} must drain its budget");
            }
        }
        assert!(report.fault.frozen_spans.iter().any(|s| !s.thawed));
        assert!(report.fault.max_outage_rounds > 0);
    }

    /// Panic isolation: a poisoned worker's sweeps all panic, yet the run
    /// completes its budget without aborting the process; the lost
    /// commits are visible in the per-block counts and the catches in the
    /// FaultReport.
    #[test]
    fn poisoned_worker_degrades_the_solve_without_aborting() {
        // Silence the default panic hook for the injected panics (races
        // with other tests' hooks are cosmetic only).
        let hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        // Poison *every* worker: once the floor passes round 3 each
        // worker's next observation arms the panic, so the catches are
        // guaranteed regardless of how the OS schedules the threads
        // (poisoning a single worker of many is racy under a loaded test
        // host — the survivors can drain the whole budget while the
        // victim never gets a slot).
        let plan = FaultPlan::new().poison(0, 3).poison(1, 3);
        let (_, trace, report) = faulted_consensus(2, (48, 4), 60, &plan, 4, 2_000);
        std::panic::set_hook(hook);
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert!(report.fault.caught_panics > 0, "panics must be caught and counted");
        assert!(
            trace.total_updates() + report.fault.caught_panics == 60 * 12,
            "every dispatch must be either committed or a counted catch: {} + {}",
            trace.total_updates(),
            report.fault.caught_panics
        );
        // A starved worker may be *declared* dead spuriously (documented
        // as harmless), but a panicking worker never orphans its shard:
        // nothing may be frozen or reassigned.
        assert!(report.fault.frozen_spans.is_empty(), "a panic must not freeze blocks");
        assert!(report.fault.reassignments.is_empty(), "a panic must not reassign");
        assert_eq!(report.fault.max_outage_rounds, 0);
    }

    #[test]
    fn fault_free_run_reports_an_empty_fault_report() {
        let (_, _, report) = run_consensus(3, 30, &mut NoMonitor);
        assert!(report.fault.is_empty());
        assert_eq!(report.outcome, RunOutcome::Completed);
        assert_eq!(report.fault.max_outage_rounds, 0);
    }

    #[test]
    fn zero_rounds_noop() {
        let kernel = ConsensusKernel { n: 4, block_size: 2 };
        let mut x = vec![9.0; 4];
        let exec = PersistentExecutor::default();
        let mut ws = PersistentWorkspace::new();
        let (trace, report) = exec.run_session(
            &kernel,
            &mut x,
            0,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession::default(),
        );
        assert_eq!(x, vec![9.0; 4]);
        assert_eq!(trace.total_updates(), 0);
        assert_eq!(report.workers_spawned, 0);
    }
}
