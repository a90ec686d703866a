//! **async-(k)** — the paper's block-asynchronous iteration
//! (§3.3, Algorithm 1, Eq. 4).
//!
//! The system's rows are partitioned into blocks ("subdomains", one per
//! GPU thread block). Each block update:
//!
//! 1. reads the shared iterate (possibly mid-flight values written by
//!    other blocks — the asynchronous outer loop),
//! 2. freezes the off-block contribution
//!    `s_i = b_i - sum_{j outside block} a_ij x_j`,
//! 3. performs `k` synchronous Jacobi sweeps *within* the block using the
//!    frozen off-block part,
//! 4. publishes the block's new values.
//!
//! With `k = 1` this is the paper's `async-(1)` basic asynchronous
//! iteration; `k = 5` is the `async-(5)` used throughout its evaluation.
//! The executor (from `abr-gpu`) decides the interleaving: the seeded
//! discrete-event simulator for reproducible experiments, or real threads
//! for genuine hardware chaos.

use crate::convergence::{
    check_system, stop_rule, ExactCheck, Progress, SolveOptions, SolveResult,
};
use abr_gpu::kernel::AllowAll;
use abr_gpu::schedule::BlockSchedule;
use abr_gpu::{
    BlockKernel, BlockScratch, CancelToken, ConvergenceMonitor, FaultPlan, Lease,
    PersistentExecutor, PersistentOptions, PersistentReport, PersistentWorkspace,
    RandomPermutation, RecurringPattern, RoundRobin, RunOutcome, RunSession, SimExecutor,
    SimOptions, ThreadedOptions, UpdateFilter, UpdateTrace, WorkerPool, XView,
};
use abr_sparse::block_plan::BlockEll;
use abr_sparse::simd::{f64x4, Isa, LANES};
use abr_sparse::stencil::{StencilBlock, StencilDescriptor};
use abr_sparse::{BlockPlan, CsrMatrix, Result, RowPartition, SweepTier};

/// Which block-dispatch schedule the solver uses (see
/// [`abr_gpu::schedule`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduleKind {
    /// Blocks in index order every round.
    RoundRobin,
    /// Fresh seeded shuffle every round.
    Random {
        /// RNG seed.
        seed: u64,
    },
    /// One seeded shuffle reused every round (the paper's inferred GPU
    /// behaviour).
    Recurring {
        /// RNG seed.
        seed: u64,
    },
}

impl ScheduleKind {
    fn build(&self) -> Box<dyn BlockSchedule> {
        match *self {
            ScheduleKind::RoundRobin => Box::new(RoundRobin),
            ScheduleKind::Random { seed } => Box::new(RandomPermutation::new(seed)),
            ScheduleKind::Recurring { seed } => Box::new(RecurringPattern::new(seed)),
        }
    }
}

/// The inner (subdomain) sweep type. Algorithm 1 of the paper uses
/// Jacobi sweeps; its reference for the idea — Bai, Migallón, Penadés,
/// Szyld, *Block and asynchronous two-stage methods* — allows any inner
/// solver, and Gauss-Seidel is the natural stronger choice (free on a
/// single SM where the block is processed by cooperating threads anyway).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LocalSweep {
    /// Jacobi sweeps on the subdomain (the paper's Algorithm 1).
    #[default]
    Jacobi,
    /// Gauss-Seidel sweeps on the subdomain (two-stage variant).
    GaussSeidel,
}

/// Which execution fabric runs the blocks.
#[derive(Debug, Clone)]
pub enum ExecutorKind {
    /// Seeded discrete-event simulation (reproducible).
    Sim(SimOptions),
    /// Real OS threads over an atomic shared vector (non-deterministic),
    /// through the persistent-worker executor ([`abr_gpu::persistent`]):
    /// workers start once per solve, convergence is checked concurrently
    /// by the calling thread. A run that check stopped returns the
    /// snapshot the check measured and reports the check's residual.
    /// Records no per-round history ([`SolveOptions::record_history`] is
    /// a sim-executor feature).
    Threaded(ThreadedOptions),
}

impl Default for ExecutorKind {
    fn default() -> Self {
        ExecutorKind::Sim(SimOptions::default())
    }
}

/// The block-asynchronous solver configuration.
///
/// # Examples
///
/// ```
/// use abr_core::{AsyncBlockSolver, SolveOptions};
/// use abr_sparse::{gen, RowPartition};
///
/// let a = gen::laplacian_2d_5pt(10);
/// let b = a.mul_vec(&vec![1.0; 100]).unwrap();
/// let partition = RowPartition::uniform(100, 20).unwrap();
/// let result = AsyncBlockSolver::async_k(5)
///     .solve(&a, &b, &vec![0.0; 100], &partition,
///            &SolveOptions::to_tolerance(1e-9, 10_000))
///     .unwrap();
/// assert!(result.converged);
/// ```
#[derive(Debug, Clone)]
pub struct AsyncBlockSolver {
    /// Number of local Jacobi sweeps per block update (the `k` in
    /// async-(k)). The paper settles on 5 (§4.3).
    pub local_iters: usize,
    /// Block dispatch order.
    pub schedule: ScheduleKind,
    /// Execution fabric.
    pub executor: ExecutorKind,
    /// Relaxation damping `tau` applied to every component update
    /// (`1.0` = plain Jacobi update; §4.2's remedy for `rho(B) > 1`
    /// systems uses `tau = 2/(lambda_1 + lambda_n)`).
    pub damping: f64,
    /// Inner sweep type on the subdomains.
    pub local_sweep: LocalSweep,
}

impl Default for AsyncBlockSolver {
    /// The paper's tuned configuration. The executor runs 4 concurrent
    /// block groups rather than one per SM: the paper launches its
    /// kernels through a tuned number of CUDA *streams*, and successive
    /// launches within a stream serialise — so the effective concurrency
    /// of block updates is the stream count, not the SM count. Lower
    /// concurrency means more updates read freshly written neighbours
    /// (the "block Gauss-Seidel flavor" the paper notes), which is what
    /// buys async-(5) its ~2x-over-Gauss-Seidel convergence on the fv
    /// family. Raise `n_workers` to explore the fully concurrent end.
    fn default() -> Self {
        AsyncBlockSolver {
            local_iters: 5,
            schedule: ScheduleKind::Random { seed: 0 },
            executor: ExecutorKind::Sim(SimOptions { n_workers: 4, jitter: 0.3, seed: 0 }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        }
    }
}

impl AsyncBlockSolver {
    /// async-(k) with the given local iteration count, defaults otherwise.
    pub fn async_k(local_iters: usize) -> Self {
        AsyncBlockSolver { local_iters, ..Default::default() }
    }

    /// Solves `A x = b` from `x0` over the row partition.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        partition: &RowPartition,
        opts: &SolveOptions,
    ) -> Result<SolveResult> {
        self.solve_filtered(a, rhs, x0, partition, opts, &AllowAll)
    }

    /// Solves with an [`UpdateFilter`] deciding which updates commit —
    /// the fault-injection entry point used by `abr-fault`. Filter rounds
    /// are global-iteration indices from the start of the solve. Compiles
    /// the kernel and runs [`solve_session`](Self::solve_session) with a
    /// default session.
    pub fn solve_filtered(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        partition: &RowPartition,
        opts: &SolveOptions,
        filter: &dyn UpdateFilter,
    ) -> Result<SolveResult> {
        let kernel = self.kernel(a, rhs, partition, None)?;
        self.solve_session(a, rhs, x0, &kernel, opts, filter, None, RunSession::default())
            .map(|solved| solved.result)
    }

    /// Solves with a verified [`StencilDescriptor`] enabling the
    /// matrix-free sweep tier — the entry point for constant-coefficient
    /// stencil operators (the `gen::*_stencil` generators return the
    /// `(matrix, descriptor)` pair). Numerically identical to
    /// [`solve`](Self::solve): the stencil tier is bit-compatible with
    /// the stored-matrix tiers, only faster. Compiles the kernel with the
    /// stencil tier and runs [`solve_session`](Self::solve_session) with a
    /// default session; its only caller outside tests is the repo
    /// benchmark, and it goes with the benchmark's next change.
    pub fn solve_with_stencil(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        partition: &RowPartition,
        descriptor: &StencilDescriptor,
        opts: &SolveOptions,
    ) -> Result<SolveResult> {
        let kernel = self.kernel(a, rhs, partition, Some(descriptor))?;
        self.solve_session(a, rhs, x0, &kernel, opts, &AllowAll, None, RunSession::default())
            .map(|solved| solved.result)
    }

    /// Compiles this solver's kernel (its `k`, damping and sweep type)
    /// for `a` over the partition, with the matrix-free stencil tier when
    /// a descriptor is given.
    fn kernel<'a>(
        &self,
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
        stencil: Option<&StencilDescriptor>,
    ) -> Result<AsyncJacobiKernel<'a>> {
        assert_eq!(partition.n(), a.n_rows(), "partition must cover the system");
        AsyncJacobiKernel::with_sweep_and_stencil(
            a,
            rhs,
            partition,
            self.local_iters,
            self.damping,
            self.local_sweep,
            stencil,
        )
    }

    /// The one async-(k) solve driver: every solve runs here, on the arm
    /// [`executor`](Self::executor) names. The kernel is compiled by the
    /// caller, so one that needs it for other purposes (`abr-multigpu`
    /// feeds [`AsyncJacobiKernel::nnz_local`] to the timing model)
    /// compiles the block plan once. The kernel's numerics (`k`, damping,
    /// sweep type) are its own; `self` contributes the schedule and the
    /// executor.
    ///
    /// * **Sim arm.** The seeded simulator runs chunks of `check_every`
    ///   rounds (the whole budget when `tol` is 0) on the calling thread,
    ///   with a host-side residual check after each chunk. Before each
    ///   chunk it polls `session.cancel`. The trace folds every chunk's
    ///   trace, `checks` holds the chunk checks, the report fills
    ///   `outcome`, `stopped_at`, `global_iterations` and `checks`, and
    ///   [`SolveResult::fault`] stays `None`.
    /// * **Threaded arm.** The persistent-worker executor runs against
    ///   the whole `max_iters` budget while a [`ResidualMonitor`] checks
    ///   the racy iterate *concurrently* every `check_every` global
    ///   iterations. `session` carries a device shard plan and staged
    ///   halo (the multi-GPU solver), a live [`FaultPlan`] (§4.5 realised:
    ///   workers really die, hang or go panicky, and recovery-(t_r)
    ///   reassigns orphaned shards), a request-scoped [`CancelToken`], and
    ///   a pool lease (else the run gets a transient pool, and a leased
    ///   run's worker count is the lease size). `tuning` overrides the
    ///   executor options; `None` takes the threaded worker count with
    ///   default pacing. [`SolveResult::fault`] holds the fault report and
    ///   the history stays empty.
    ///
    /// Every exact check, and the final residual, goes through the
    /// kernel's stencil runs on one thread when its plan is a stencil plan
    /// (bit-identical to the stored-matrix check; see
    /// [`ResidualMonitor::with_plan`]).
    ///
    /// Both arms end through the stopping rule every solve shares. A run a
    /// check stopped reports that check as its final residual and its
    /// watermark as its iterations (the threaded arm returns the snapshot
    /// the check measured). Any other run reports `max_iters` when it
    /// drained its budget, else (cancelled, deadline, stalled) the partial
    /// watermark it reached, and its final residual is measured on the
    /// iterate it returns.
    ///
    /// # Panics
    ///
    /// When `self.local_iters` is 0. On the sim arm, when `tuning` or any
    /// session field other than `cancel` is given: shards, halos, live
    /// faults and leases need real threads. On the threaded arm, as
    /// [`PersistentExecutor::run_session`]: when a worker body unwinds
    /// outside the per-sweep `catch_unwind`, or the monitor panics.
    #[allow(clippy::too_many_arguments)] // the solve's inputs plus executor context
    pub fn solve_session(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        kernel: &AsyncJacobiKernel<'_>,
        opts: &SolveOptions,
        filter: &dyn UpdateFilter,
        tuning: Option<&PersistentOptions>,
        session: RunSession<'_>,
    ) -> Result<FaultedSolve> {
        check_system(a, rhs, x0);
        assert!(self.local_iters >= 1, "async-(k) needs k >= 1");
        let mut schedule = self.schedule.build();
        let mut x = x0.to_vec();
        let mut run = Progress::new(a, rhs, opts).with_plan(kernel.plan());
        match &self.executor {
            ExecutorKind::Sim(sim_opts) => {
                let RunSession { shards, halo, faults, cancel, pool } = session;
                assert!(
                    tuning.is_none()
                        && shards.is_none()
                        && halo.is_none()
                        && faults.is_none()
                        && pool.is_none(),
                    "a sim solve takes only a cancel token: executor tuning, shards, halos, \
                     live faults and leases need real threads"
                );
                let mut trace = UpdateTrace::new(kernel.n_blocks());
                let mut report = PersistentReport::default();
                let mut checks = Vec::new();

                // Chunked driving: the executor runs a chunk of asynchronous
                // global rounds at a time; between chunks the host checks
                // convergence, exactly like the paper's host-side residual tests.
                while run.running() {
                    if let Some(cause) = cancel.and_then(CancelToken::should_stop) {
                        report.outcome = cause.into();
                        break;
                    }
                    let offset = run.iterations();
                    let rounds = run.chunk_len();
                    let offset_filter = OffsetFilter { inner: filter, offset };
                    let mut offset_schedule = OffsetSchedule { inner: schedule.as_mut(), offset };
                    let exec = SimExecutor::new(SimOptions {
                        // decorrelate chunk seeds while staying reproducible
                        seed: sim_opts.seed.wrapping_add(offset as u64),
                        ..sim_opts.clone()
                    });
                    let chunk = exec.run(
                        kernel,
                        &mut x,
                        rounds,
                        &mut offset_schedule,
                        &offset_filter,
                        |_k, xk| run.observe(xk),
                    );
                    trace.absorb(&chunk);
                    if let Some(rr) = run.chunk_done(rounds, &x) {
                        checks.push((run.iterations(), rr));
                    }
                }
                if run.stopped() {
                    report.outcome = RunOutcome::Stopped;
                    report.stopped_at = Some(run.iterations());
                }
                report.global_iterations = run.iterations();
                report.checks = checks.len();
                Ok(FaultedSolve { result: run.finish(x), trace, report, checks })
            }
            ExecutorKind::Threaded(threads) => {
                let exec = PersistentExecutor::new(tuning.cloned().unwrap_or_else(|| {
                    PersistentOptions { n_workers: threads.n_workers, ..Default::default() }
                }));
                let period = if opts.tol > 0.0 { opts.check_every.max(1) } else { 0 };
                let mut monitor = ResidualMonitor::from_check(run.exact_check(), opts.tol, period);
                let mut ws = PersistentWorkspace::new();
                let (trace, report) = exec.run_session(
                    kernel,
                    &mut x,
                    opts.max_iters,
                    schedule.as_mut(),
                    filter,
                    &mut monitor,
                    &mut ws,
                    session,
                );
                let checks = monitor.checks;
                match report.stopped_at.and(checks.last()) {
                    Some(&(at, rr)) => run.stopped_by(at, rr),
                    None if report.outcome == RunOutcome::Completed => run.advance(opts.max_iters),
                    None => run.advance(report.global_iterations),
                }
                let mut result = run.finish(x);
                result.fault = Some(report.fault.clone());
                Ok(FaultedSolve { result, trace, report, checks })
            }
        }
    }

    /// The multi-tenant solve on threads **leased from a shared
    /// [`WorkerPool`]**: the shards are the even split over the lease, so
    /// a request's parallelism is what admission control granted it. It
    /// compiles the kernel and runs the threaded arm of
    /// [`solve_session`](Self::solve_session) whatever `self.executor`
    /// says, with `run.exec_opts` as the tuning and the lease, `run.cancel`
    /// and `run.faults` as the session. Only the repo benchmark calls it;
    /// it goes with the benchmark's next change, as
    /// [`PersistentExecutor::run_sharded`] does.
    pub fn solve_leased(
        &self,
        a: &CsrMatrix,
        rhs: &[f64],
        x0: &[f64],
        partition: &RowPartition,
        opts: &SolveOptions,
        run: LeasedRun<'_>,
    ) -> Result<FaultedSolve> {
        let kernel = self.kernel(a, rhs, partition, None)?;
        let threads =
            ThreadedOptions { n_workers: run.exec_opts.n_workers, snapshot_rounds: false };
        let solver = AsyncBlockSolver { executor: ExecutorKind::Threaded(threads), ..self.clone() };
        let session = RunSession {
            faults: run.faults,
            cancel: run.cancel,
            pool: Some((run.pool, run.lease)),
            ..RunSession::default()
        };
        solver.solve_session(a, rhs, x0, &kernel, opts, &AllowAll, Some(&run.exec_opts), session)
    }
}

/// The pool half of a [`AsyncBlockSolver::solve_leased`] call: which
/// shared [`WorkerPool`] runs the solve, the admission-granted [`Lease`],
/// and the optional request-scoped cancellation and chaos plumbing.
pub struct LeasedRun<'a> {
    /// The shared worker pool the lease came from.
    pub pool: &'a WorkerPool,
    /// The admission-granted thread reservation; its size is the solve's
    /// worker count and shard count.
    pub lease: Lease<'a>,
    /// Request-scoped cancel/deadline token, polled by the monitor loop.
    pub cancel: Option<&'a CancelToken>,
    /// Chaos fault plan for this request (`--chaos` mode); `None` runs
    /// fault-free.
    pub faults: Option<&'a FaultPlan>,
    /// Executor tuning (lag gate, stall pacing, recovery knobs). The
    /// worker count is taken from the lease, not from here.
    pub exec_opts: PersistentOptions,
}

/// Everything a [`AsyncBlockSolver::solve_session`] run produces.
#[derive(Debug)]
pub struct FaultedSolve {
    /// The solve outcome; [`SolveResult::fault`] holds the
    /// [`abr_gpu::FaultReport`].
    pub result: SolveResult,
    /// The executor's update trace (staleness histogram, per-block
    /// counts, realised `max_skew` — bounded by
    /// `max_round_lag + 1 + max_outage_rounds`).
    pub trace: UpdateTrace,
    /// The raw executor report ([`RunOutcome`],
    /// stop watermark, steal/check counters, the fault report again).
    pub report: abr_gpu::PersistentReport,
    /// The concurrent monitor's `(global_iteration, relative_residual)`
    /// trajectory — the §4.5 / Figure 10 re-convergence curve.
    pub checks: Vec<(usize, f64)>,
}

/// Runs `rounds` asynchronous rounds purely to *measure* the realised
/// shift distribution of Eq. (3) — which neighbour versions each block
/// update actually read — without solving anything to tolerance. Returns
/// the execution trace with its staleness histogram filled in.
pub fn measure_staleness(
    a: &CsrMatrix,
    rhs: &[f64],
    partition: &RowPartition,
    local_iters: usize,
    sim_opts: SimOptions,
    schedule: ScheduleKind,
    rounds: usize,
) -> Result<abr_gpu::UpdateTrace> {
    let kernel = AsyncJacobiKernel::new(a, rhs, partition, local_iters, 1.0)?;
    let mut x = vec![0.0; a.n_rows()];
    let exec = SimExecutor::new(sim_opts);
    let mut sched = schedule.build();
    Ok(exec.run(&kernel, &mut x, rounds, sched.as_mut(), &AllowAll, |_, _| {}))
}

/// Round-offset adapters so chunked driving presents absolute global
/// iteration indices to the schedule and the fault filter.
struct OffsetFilter<'a> {
    inner: &'a dyn UpdateFilter,
    offset: usize,
}

impl UpdateFilter for OffsetFilter<'_> {
    fn block_enabled(&self, block: usize, round: usize) -> bool {
        self.inner.block_enabled(block, round + self.offset)
    }
    fn component_enabled(&self, i: usize, round: usize) -> bool {
        self.inner.component_enabled(i, round + self.offset)
    }
    fn all_components_enabled(&self, start: usize, end: usize, round: usize) -> bool {
        self.inner.all_components_enabled(start, end, round + self.offset)
    }
}

struct OffsetSchedule<'a> {
    inner: &'a mut dyn BlockSchedule,
    offset: usize,
}

impl BlockSchedule for OffsetSchedule<'_> {
    fn order(&mut self, round: usize, n_blocks: usize, out: &mut Vec<usize>) {
        self.inner.order(round + self.offset, n_blocks, out);
    }
}

/// The host-side concurrent convergence check of the threaded arm of
/// [`AsyncBlockSolver::solve_session`]: every `period` global iterations it computes the relative
/// residual of the monitor's snapshot (through the reused scratch buffer
/// of [`relative_residual_with`](crate::convergence::relative_residual_with),
/// or of [`stencil_relative_residual_with`](crate::convergence::stencil_relative_residual_with)
/// after [`with_plan`](Self::with_plan) with a stencil plan) and stops the
/// workers once it meets a `tol > 0` — or once the iterate turns
/// non-finite, the divergent regime the sim chunk loop also bails out of.
/// Every solver loop of this crate stops by the same rule.
pub struct ResidualMonitor<'a> {
    /// The matrix or stencil plan the checks multiply, and `‖b‖₂`, summed
    /// once at construction: every exact check divides by it, and the
    /// fused fast path normalises the workers' `‖b − A x‖²` estimate by
    /// it without touching the matrix.
    exact_check: ExactCheck<'a>,
    tol: f64,
    period: usize,
    scratch: Vec<f64>,
    /// Fused polls since the last exact check (forced-escalation clock).
    fused_streak: usize,
    /// Last exact check landed within [`URGENT_BAND`] of the tolerance:
    /// the executor's pacing floor is waived so the confirming poll is
    /// not delayed by the cost of the check that almost stopped.
    urgent: bool,
    /// Every check the monitor performed, in order — the concurrent
    /// residual trajectory of a persistent solve (what the `recovery`
    /// experiment's re-convergence curves are plotted from). One small
    /// push per `check_every` iterations, nothing per update.
    pub checks: Vec<(usize, f64)>,
}

/// Safety margin of [`ResidualMonitor`]'s fused fast path: escalate to
/// the exact check once the fused estimate is within this factor of the
/// tolerance. The estimate mixes per-block sub-norms published at
/// slightly different moments of the asynchronous iterate, so near the
/// stopping point it can sit a little above or below the exact residual
/// of any one snapshot; the band makes "skip the exact check" a decision
/// taken only far from convergence, where even a crude estimate cannot
/// be wrong about the *order of magnitude*.
pub const FUSED_GUARD_BAND: f64 = 8.0;

/// At most this many consecutive polls may be answered by the fused
/// estimate before [`ResidualMonitor`] forces an exact check anyway.
/// Polls are gated on watermark advance (at most one per `period`
/// global rounds), so this bounds detection lateness to about
/// `FUSED_FORCE_EXACT_EVERY × period` rounds even when the estimate is
/// stuck high — the sum is dominated by the *most-lagging* block's
/// last published sub-norm, which under heavy scheduling skew can sit
/// orders of magnitude above the live residual. It also keeps the
/// recorded trajectory coarsely sampled, and means a systematically
/// over-estimating kernel cannot starve the stopping test. Still an
/// 8× cut over the pre-fusion exact-check-per-period cost.
pub const FUSED_FORCE_EXACT_EVERY: usize = 8;

/// Endgame window of [`ResidualMonitor`]: an exact check whose relative
/// residual lands within this factor above the tolerance marks the run
/// [`urgent`](abr_gpu::ConvergenceMonitor::urgent) — a couple of rounds of
/// typical contraction away from stopping — and the executor then polls
/// at full pace instead of sleeping a multiple of the check's cost. A
/// converging run spends only its last few polls inside the window, so
/// the waiver buys prompt stop detection for a bounded number of extra
/// exact checks; a run that *stagnates* inside the window pays full
/// monitor cost, which is the regime where a tight watch is wanted
/// anyway.
pub const URGENT_BAND: f64 = 64.0;

impl<'a> ResidualMonitor<'a> {
    /// A monitor stopping at relative residual `tol`, checking every
    /// `period` global iterations (`0` never checks).
    pub fn new(a: &'a CsrMatrix, rhs: &'a [f64], tol: f64, period: usize) -> Self {
        Self::from_check(ExactCheck::new(a, rhs), tol, period)
    }

    /// A monitor whose exact checks are `exact_check`'s: a solve hands its
    /// own, so `‖b‖₂` is summed once per solve.
    pub(crate) fn from_check(exact_check: ExactCheck<'a>, tol: f64, period: usize) -> Self {
        ResidualMonitor {
            exact_check,
            tol,
            period,
            scratch: Vec::new(),
            fused_streak: 0,
            urgent: false,
            checks: Vec::new(),
        }
    }

    /// Routes every exact check through `plan`'s stencil runs when `plan`
    /// is a stencil plan of the monitor's matrix: `b − A x` on the calling
    /// thread, with no stored matrix read, bit-identical to the
    /// stored-matrix check (so the exact residual stays the only stopping
    /// authority). A packed plan changes nothing.
    pub fn with_plan(mut self, plan: &'a BlockPlan) -> Self {
        self.exact_check = self.exact_check.with_plan(plan);
        self
    }

    /// Consumes the monitor, handing back its residual scratch buffer so
    /// the caller's final residual computation reuses it too.
    pub fn into_scratch(self) -> Vec<f64> {
        self.scratch
    }
}

impl ConvergenceMonitor for ResidualMonitor<'_> {
    fn period(&self) -> usize {
        self.period
    }

    fn check(&mut self, global_iteration: usize, x: &[f64]) -> bool {
        self.fused_streak = 0;
        let rr = self.exact_check.residual(&mut self.scratch, x);
        self.urgent = rr.is_finite() && rr <= self.tol * URGENT_BAND;
        self.checks.push((global_iteration, rr));
        stop_rule(self.tol, rr).0
    }

    fn fused_check(&mut self, _global_iteration: usize, estimate_sq: f64) -> bool {
        let rhs_norm = self.exact_check.b_norm();
        if rhs_norm == 0.0 {
            return true;
        }
        if self.fused_streak + 1 >= FUSED_FORCE_EXACT_EVERY {
            return true;
        }
        let estimate = estimate_sq.sqrt() / rhs_norm;
        // Escalate on anything suspicious (non-finite estimate: the
        // divergent regime must reach the exact check, which stops on
        // it) or anywhere near the tolerance; skip only when the
        // estimate is comfortably far from converged.
        if !estimate.is_finite() || estimate <= self.tol * FUSED_GUARD_BAND {
            return true;
        }
        self.fused_streak += 1;
        false
    }

    fn urgent(&self) -> bool {
        self.urgent
    }
}

/// The block kernel realising Algorithm 1 (one thread block's work).
///
/// At construction the `(matrix, partition)` pair is compiled into a
/// [`BlockPlan`]: per block, a packed local operator with the diagonal
/// pre-extracted and pre-inverted (plus a branch-free ELL variant for
/// short-row blocks) and a packed halo segment; with a stencil
/// descriptor, also matrix-free stencil runs. An update then is
///
/// 1. one linear gather over the halo to freeze the off-block part (a
///    stencil block computes it from its runs' off-block taps instead),
/// 2. `k` sweeps over the packed local operator or the stencil runs,
///
/// and with [`BlockKernel::update_block_with`] it performs **zero heap
/// allocations** in steady state — the executors pass each worker's
/// reusable [`BlockScratch`]. The plan path is bit-identical to the
/// span-sliced reference kept in
/// [`update_block_reference`](Self::update_block_reference): entry order
/// within every row is preserved, so every floating-point accumulation
/// happens in the same order (the workspace proptests assert
/// bit-equality).
pub struct AsyncJacobiKernel<'a> {
    a: &'a CsrMatrix,
    rhs: &'a [f64],
    plan: BlockPlan,
    local_iters: usize,
    damping: f64,
    local_sweep: LocalSweep,
    /// Testing/benchmarking hook: pin every block to one sweep tier
    /// instead of the plan's per-block selection (see
    /// [`force_tier`](Self::force_tier)).
    tier_override: Option<SweepTier>,
    /// The instruction set every block update runs under, chosen once at
    /// construction: the detected one for a stencil plan, the baseline for
    /// a packed plan (see [`with_sweep_and_stencil`](Self::with_sweep_and_stencil)).
    isa: Isa,
}

impl<'a> AsyncJacobiKernel<'a> {
    /// Builds the kernel with Jacobi local sweeps; fails on zero diagonal
    /// entries.
    pub fn new(
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
        local_iters: usize,
        damping: f64,
    ) -> Result<Self> {
        Self::with_sweep(a, rhs, partition, local_iters, damping, LocalSweep::Jacobi)
    }

    /// Builds the kernel with an explicit inner sweep type.
    pub fn with_sweep(
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
        local_iters: usize,
        damping: f64,
        local_sweep: LocalSweep,
    ) -> Result<Self> {
        Self::with_sweep_and_stencil(a, rhs, partition, local_iters, damping, local_sweep, None)
    }

    /// Builds the kernel with an optional [`StencilDescriptor`] enabling
    /// the matrix-free sweep tier. The descriptor is verified against `a`
    /// (during plan compilation, or before it); a mismatch is an error,
    /// never a silent fallback.
    ///
    /// The plan becomes a stencil plan, which stores no packed operator,
    /// only when the stencil tier will run: Jacobi sweeps with nonzero
    /// damping. Gauss-Seidel sweeps and the `damping == 0` residual pass
    /// walk the packed local rows, so those kernels compile the packed
    /// plan after verifying the descriptor.
    ///
    /// Every block update enters its loops through one [`Isa::run`]
    /// entry. A stencil plan takes the widest instruction set the host
    /// detects (AVX2 on x86-64): its sweeps load contiguous windows, and
    /// 256-bit lanes run them in about 0.8× the time. A packed plan keeps
    /// the baseline: its sweeps are bound by per-lane gathers, which AVX2
    /// does not speed up, and on the daemon's 8-row ELL-SIMD blocks the
    /// AVX2 entry measured 2–8 % slower. Both entries give the same bits.
    pub fn with_sweep_and_stencil(
        a: &'a CsrMatrix,
        rhs: &'a [f64],
        partition: &RowPartition,
        local_iters: usize,
        damping: f64,
        local_sweep: LocalSweep,
        descriptor: Option<&StencilDescriptor>,
    ) -> Result<Self> {
        let stencil_tier = local_sweep == LocalSweep::Jacobi && damping != 0.0;
        let plan = match descriptor {
            Some(d) if !stencil_tier => {
                d.verify(a)?;
                BlockPlan::compile(a, partition)?
            }
            _ => BlockPlan::compile_with_stencil(a, partition, descriptor)?,
        };
        let isa = if plan.descriptor().is_some() { Isa::detect() } else { Isa::BASELINE };
        Ok(AsyncJacobiKernel {
            a,
            rhs,
            plan,
            local_iters,
            damping,
            local_sweep,
            tier_override: None,
            isa,
        })
    }

    /// The compiled block plan.
    pub fn plan(&self) -> &BlockPlan {
        &self.plan
    }

    /// Pins every Jacobi block update to `tier` instead of the plan's
    /// per-block selection — the hook the equivalence proptests and the
    /// bench variants use to compare tiers on identical inputs. A tier a
    /// block has no compiled data for falls back to that block's compiled
    /// tier: ELL on a wide block, stencil without a descriptor, and
    /// `Csr`, `Ell` or `EllSimd` on a stencil plan (which stores no packed
    /// rows, so it stays on `Stencil`). Comparing the stencil tier with
    /// the others takes a second kernel built without a descriptor.
    /// `None` restores normal dispatch. Gauss-Seidel sweeps ignore this
    /// (GS is row-sequential and always walks the packed CSR).
    pub fn force_tier(&mut self, tier: Option<SweepTier>) {
        self.tier_override = tier;
    }

    /// Testing hook: runs every block update under `isa` instead of the
    /// one chosen at construction, so the dispatch proptest can run every
    /// tier through both entries on an AVX2 host. Both entries give the
    /// same bits; this selects code, never numerics.
    #[doc(hidden)]
    pub fn force_isa(&mut self, isa: Isa) {
        self.isa = isa;
    }

    /// The tier block `b`'s Jacobi update will actually dispatch to,
    /// after applying any [`force_tier`](Self::force_tier) override.
    #[inline(always)]
    pub fn resolved_tier(&self, b: usize) -> SweepTier {
        let compiled = self.plan.tier(b);
        match self.tier_override {
            None => compiled,
            Some(t) => {
                let supported = match t {
                    SweepTier::Csr => self.plan.descriptor().is_none(),
                    SweepTier::Ell | SweepTier::EllSimd => self.plan.ell(b).is_some(),
                    SweepTier::Stencil => self.plan.stencil_block(b).is_some(),
                };
                if supported {
                    t
                } else {
                    compiled
                }
            }
        }
    }

    /// Number of nonzeros lying inside the partition's diagonal blocks —
    /// the `nnz_local` input of the timing model.
    pub fn nnz_local(&self) -> usize {
        self.plan.nnz_local()
    }

    /// Steps 1 and 2 of a block update, reading the iterate through
    /// `view`: snapshot the block's values into `scratch.cur` with one
    /// range read (zeroing the pad slots so ELL padding entries stay
    /// numerically inert) and freeze the off-block part into
    /// `scratch.frozen`, reading each off-block component through `x`. A
    /// stencil block freezes over its runs' halo taps, `b_r − Σ
    /// c·x[r + d]`, and reads no stored halo; any other block makes one
    /// linear gather per row over the packed halo. Both visit the
    /// off-block entries in source CSR order, so both are bit-identical to
    /// the reference's two-span subtraction.
    #[inline(always)]
    fn load_block(
        &self,
        b: usize,
        view: &XView<'_>,
        x: impl Fn(usize) -> f64,
        scratch: &mut BlockScratch,
    ) {
        let (start, end) = self.plan.block_rows(b);
        let nb = end - start;
        let BlockScratch { cur, next, frozen } = scratch;
        view.load_range(start, &mut cur[..nb]);
        cur[nb] = 0.0;
        next[nb] = 0.0;
        let rhs = &self.rhs[start..end];
        match self.plan.stencil_block(b) {
            Some(sb) => {
                for run in sb.runs() {
                    let rows = (run.lo as usize, run.hi as usize);
                    for (c, taps) in tap_chunks(&run.halo).enumerate() {
                        let from_rhs = c == 0;
                        by_arity!(
                            taps.len(),
                            halo_pass::<_>(taps, rows, start, rhs, from_rhs, &x, frozen)
                        );
                    }
                }
            }
            None => {
                for (li, f) in frozen[..nb].iter_mut().enumerate() {
                    let (hc, hv) = self.plan.halo_row(start + li);
                    let mut acc = rhs[li];
                    for (&c, &v) in hc.iter().zip(hv) {
                        acc -= v * x(c);
                    }
                    *f = acc;
                }
            }
        }
    }

    /// The original span-sliced implementation of one block update,
    /// kept as the reference the plan path is tested (bit-for-bit) and
    /// benchmarked against. Allocates its working buffers per call.
    pub fn update_block_reference(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        let (start, end) = self.plan.block_rows(b);
        let nb = end - start;
        debug_assert_eq!(out.len(), nb);
        let inv_diag = self.plan.inv_diag();
        // Per row: the sub-range of its CSR entries whose columns fall
        // inside the block (columns are sorted, so it is one span).
        let local_span: Vec<(usize, usize)> = (start..end)
            .map(|r| {
                let cols = self.a.row(r).0;
                (cols.partition_point(|&c| c < start), cols.partition_point(|&c| c < end))
            })
            .collect();

        // Step 1+2: snapshot local values, freeze the off-block part.
        let mut cur: Vec<f64> = (start..end).map(|i| x.get(i)).collect();
        let mut frozen = vec![0.0f64; nb];
        for (li, r) in (start..end).enumerate() {
            let (cols, vals) = self.a.row(r);
            let (lo, hi) = local_span[li];
            let mut acc = self.rhs[r];
            for k in 0..lo {
                acc -= vals[k] * x.get(cols[k]);
            }
            for k in hi..cols.len() {
                acc -= vals[k] * x.get(cols[k]);
            }
            frozen[li] = acc;
        }

        // Step 3: `local_iters` sweeps on the subdomain.
        match self.local_sweep {
            LocalSweep::Jacobi => {
                let mut next = vec![0.0f64; nb];
                for _ in 0..self.local_iters {
                    for (li, r) in (start..end).enumerate() {
                        let (cols, vals) = self.a.row(r);
                        let (lo, hi) = local_span[li];
                        let mut acc = frozen[li];
                        for k in lo..hi {
                            let c = cols[k];
                            if c != r {
                                acc -= vals[k] * cur[c - start];
                            }
                        }
                        let sweep = acc * inv_diag[r];
                        next[li] = if self.damping == 1.0 {
                            sweep
                        } else {
                            cur[li] + self.damping * (sweep - cur[li])
                        };
                    }
                    std::mem::swap(&mut cur, &mut next);
                }
            }
            LocalSweep::GaussSeidel => {
                for _ in 0..self.local_iters {
                    for (li, r) in (start..end).enumerate() {
                        let (cols, vals) = self.a.row(r);
                        let (lo, hi) = local_span[li];
                        let mut acc = frozen[li];
                        for k in lo..hi {
                            let c = cols[k];
                            if c != r {
                                acc -= vals[k] * cur[c - start];
                            }
                        }
                        let sweep = acc * inv_diag[r];
                        cur[li] = if self.damping == 1.0 {
                            sweep
                        } else {
                            cur[li] + self.damping * (sweep - cur[li])
                        };
                    }
                }
            }
        }
        out.copy_from_slice(&cur);
    }

    /// `k` Jacobi sweeps over the ELL-packed local operator. Branch-free
    /// inner loop: padding entries multiply the guaranteed-zero pad slot
    /// `cur[nb]`, contributing an exact `- 0.0` to the accumulator.
    /// Damping is monomorphised out of the loop via `DAMPED`.
    #[inline(always)]
    fn sweeps_jacobi_ell<const DAMPED: bool>(
        &self,
        ell: &BlockEll,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        let nb = ell.rows();
        let width = ell.width();
        let cols = ell.cols();
        let vals = ell.vals();
        for _ in 0..self.local_iters {
            for li in 0..nb {
                let mut acc = frozen[li];
                // column-major walk: k-th entry of row li at k*nb + li,
                // ascending k = source CSR order within the row
                for k in 0..width {
                    let idx = k * nb + li;
                    acc -= vals[idx] * cur[cols[idx] as usize];
                }
                let sweep = acc * inv_diag[li];
                next[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
            std::mem::swap(cur, next);
        }
    }

    /// `k` Jacobi sweeps over the ELL-packed local operator, four rows
    /// per [`f64x4`] iteration — one row per lane, so every lane runs the
    /// scalar tier's op sequence (`acc -= v * cur[c]`, two roundings; no
    /// FMA contraction) and the result is **bit-identical** to
    /// [`sweeps_jacobi_ell`](Self::sweeps_jacobi_ell). The ELL pad-slot
    /// invariant is what makes the k-loop branch-free: padding lanes
    /// multiply `0.0` by the guaranteed-zero `cur[nb]`, for every input
    /// including non-finite iterates. Rows `nb % 4` run the scalar
    /// epilogue verbatim.
    #[inline(always)]
    fn sweeps_jacobi_ell_simd<const DAMPED: bool>(
        &self,
        ell: &BlockEll,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        let nb = ell.rows();
        let width = ell.width();
        let cols = ell.cols();
        let vals = ell.vals();
        let quads = nb - nb % LANES;
        let tau = f64x4::splat(self.damping);
        for _ in 0..self.local_iters {
            for li in (0..quads).step_by(LANES) {
                let mut acc = f64x4::load(&frozen[li..]);
                for k in 0..width {
                    let idx = k * nb + li;
                    // product then subtract: the scalar `acc -= v * cur[c]`
                    acc = acc - f64x4::load(&vals[idx..]) * f64x4::gather_u32(cur, &cols[idx..]);
                }
                let sweep = acc * f64x4::load(&inv_diag[li..]);
                let new = if DAMPED {
                    let cv = f64x4::load(&cur[li..]);
                    cv + tau * (sweep - cv)
                } else {
                    sweep
                };
                new.store(&mut next[li..]);
            }
            for li in quads..nb {
                let mut acc = frozen[li];
                for k in 0..width {
                    let idx = k * nb + li;
                    acc -= vals[idx] * cur[cols[idx] as usize];
                }
                let sweep = acc * inv_diag[li];
                next[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
            std::mem::swap(cur, next);
        }
    }

    /// `k` Jacobi sweeps over the matrix-free stencil runs: **zero index
    /// loads** — within a run, the neighbour of row `li` at tap offset
    /// `d` is `cur[li + d]`, a contiguous vector load. Taps are in
    /// ascending offset order (= source CSR column order) with
    /// coefficients bit-equal to the stored values (enforced by
    /// [`StencilDescriptor::verify`]), and each tap contributes the same
    /// product-then-subtract as the other tiers, so this path too is
    /// bit-identical to the packed-CSR sweep. Off-block taps are not in
    /// the runs' `taps` — they were frozen in step 2.
    ///
    /// A run's taps go to [`stencil_pass`] in chunks of at most
    /// [`MAX_ARITY`], each chunk a fixed-arity loop with its coefficients
    /// and offsets in registers. A run wider than one chunk parks its
    /// partial sums in `next` between chunks (a store and reload is
    /// exact), so the accumulation order never changes.
    #[inline(always)]
    fn sweeps_jacobi_stencil<const DAMPED: bool>(
        &self,
        sb: &StencilBlock,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        for _ in 0..self.local_iters {
            for run in sb.runs() {
                let rows = (run.lo as usize, run.hi as usize);
                let chunks = tap_chunks(&run.taps);
                let last = chunks.len() - 1;
                for (c, taps) in chunks.enumerate() {
                    let pass = StencilPass { taps, rows, tau: self.damping, frozen, inv_diag };
                    match (c == 0, c == last) {
                        (true, true) => {
                            by_arity!(taps.len(), stencil_pass::<false, true, DAMPED>(&pass, cur, next))
                        }
                        (false, true) => {
                            by_arity!(taps.len(), stencil_pass::<true, true, DAMPED>(&pass, cur, next))
                        }
                        (true, false) => {
                            stencil_pass::<MAX_ARITY, false, false, false>(&pass, cur, next)
                        }
                        (false, false) => {
                            stencil_pass::<MAX_ARITY, true, false, false>(&pass, cur, next)
                        }
                    }
                }
            }
            std::mem::swap(cur, next);
        }
    }

    /// `k` Jacobi sweeps over the packed local CSR (wide-row blocks).
    #[inline(always)]
    fn sweeps_jacobi_csr<const DAMPED: bool>(
        &self,
        start: usize,
        nb: usize,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut Vec<f64>,
        next: &mut Vec<f64>,
    ) {
        for _ in 0..self.local_iters {
            for li in 0..nb {
                let (lc, lv) = self.plan.local_row(start + li);
                let mut acc = frozen[li];
                for (&c, &v) in lc.iter().zip(lv) {
                    acc -= v * cur[c as usize];
                }
                let sweep = acc * inv_diag[li];
                next[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
            std::mem::swap(cur, next);
        }
    }

    /// Exact residual sub-norm `Σ_i r_i²` of block `b`'s rows at the local
    /// iterate `cur`, with the off-block contribution frozen in `frozen` —
    /// one extra pass over the packed local operator, with no division.
    /// Used by the fused estimator when the sweep retains no previous
    /// iterate (Gauss-Seidel updates in place, and `damping == 0` makes the
    /// Jacobi delta degenerate).
    #[inline(always)]
    fn local_residual_sq_at(&self, b: usize, cur: &[f64], frozen: &[f64]) -> f64 {
        let (start, end) = self.plan.block_rows(b);
        let diag = &self.plan.diag()[start..end];
        let mut sum = 0.0;
        for (li, &d) in diag.iter().enumerate() {
            let (lc, lv) = self.plan.local_row(start + li);
            let mut acc = frozen[li];
            for (&c, &v) in lc.iter().zip(lv) {
                acc -= v * cur[c as usize];
            }
            // acc still carries the diagonal term: r_i = acc - a_ii * cur_i
            let r = acc - d * cur[li];
            sum += r * r;
        }
        sum
    }

    /// `k` Gauss-Seidel sweeps over the packed local CSR. GS is
    /// row-sequential by definition (each row reads the rows above it
    /// from *this* sweep), so it always takes the CSR path.
    #[inline(always)]
    fn sweeps_gs_csr<const DAMPED: bool>(
        &self,
        start: usize,
        nb: usize,
        inv_diag: &[f64],
        frozen: &[f64],
        cur: &mut [f64],
    ) {
        for _ in 0..self.local_iters {
            for li in 0..nb {
                let (lc, lv) = self.plan.local_row(start + li);
                let mut acc = frozen[li];
                for (&c, &v) in lc.iter().zip(lv) {
                    acc -= v * cur[c as usize];
                }
                let sweep = acc * inv_diag[li];
                cur[li] =
                    if DAMPED { cur[li] + self.damping * (sweep - cur[li]) } else { sweep };
            }
        }
    }
}

/// Most taps one fixed-arity pass ([`stencil_pass`], [`halo_pass`])
/// holds in registers; a run with more taps is swept in chunks of this
/// many. Eight covers every row of the 9-point FV stencil in one pass.
const MAX_ARITY: usize = 8;

/// A stencil run's tap list in chunks of at most [`MAX_ARITY`]; a run
/// without taps is one empty chunk, since its rows still need updating.
#[inline(always)]
fn tap_chunks(taps: &[(isize, f64)]) -> impl ExactSizeIterator<Item = &[(isize, f64)]> {
    let n = taps.len().div_ceil(MAX_ARITY).max(1);
    (0..n).map(move |c| &taps[c * MAX_ARITY..taps.len().min((c + 1) * MAX_ARITY)])
}

/// Calls a fixed-arity pass with a chunk's tap count (at most
/// [`MAX_ARITY`]) as its leading const generic: `by_arity!(n, f::<A,
/// B>(args))` runs `f::<n, A, B>(args)`.
macro_rules! by_arity {
    ($n:expr, $pass:ident::<$($g:tt),*>($($arg:expr),*)) => {
        match $n {
            0 => $pass::<0, $($g),*>($($arg),*),
            1 => $pass::<1, $($g),*>($($arg),*),
            2 => $pass::<2, $($g),*>($($arg),*),
            3 => $pass::<3, $($g),*>($($arg),*),
            4 => $pass::<4, $($g),*>($($arg),*),
            5 => $pass::<5, $($g),*>($($arg),*),
            6 => $pass::<6, $($g),*>($($arg),*),
            7 => $pass::<7, $($g),*>($($arg),*),
            _ => $pass::<MAX_ARITY, $($g),*>($($arg),*),
        }
    };
}
use by_arity;

/// One chunk of a stencil run's in-block taps, to be swept over the
/// run's rows.
struct StencilPass<'s> {
    taps: &'s [(isize, f64)],
    /// Block-local rows `[lo, hi)` of the run.
    rows: (usize, usize),
    tau: f64,
    frozen: &'s [f64],
    inv_diag: &'s [f64],
}

/// `N` off-block taps of one stencil run over its rows `[lo, hi)`:
/// `frozen[li] = seed − Σ c·x(start + li + d)`, the seed being `rhs[li]`
/// for a run's first chunk and the partial sum in `frozen` after it.
/// The taps' offsets and coefficients are fixed-size arrays taken once
/// per pass, so the row loop holds them in registers.
#[inline(always)]
fn halo_pass<const N: usize, X: Fn(usize) -> f64>(
    taps: &[(isize, f64)],
    (lo, hi): (usize, usize),
    start: usize,
    rhs: &[f64],
    from_rhs: bool,
    x: &X,
    frozen: &mut [f64],
) {
    let taps: &[(isize, f64); N] = taps.try_into().expect("chunk holds N taps");
    let off: [isize; N] = std::array::from_fn(|t| taps[t].0);
    let coef: [f64; N] = std::array::from_fn(|t| taps[t].1);
    for li in lo..hi {
        let r = start + li;
        let mut acc = if from_rhs { rhs[li] } else { frozen[li] };
        for t in 0..N {
            acc -= coef[t] * x(r.wrapping_add_signed(off[t]));
        }
        frozen[li] = acc;
    }
}

/// `y = A x` for a stencil plan's operator, run by run under `isa`: each
/// row's off-block taps, in-block taps and centre merged into ascending
/// offset order (the source-CSR column order) and summed from `0.0`, as
/// `CsrMatrix::spmv` sums a row, so every `y[r]` is bit-identical to the
/// stored-matrix product, under either instruction set. `y` holds
/// `plan.n()` rows. Public for the dispatch proptest; the exact checks
/// form the same rows one block at a time ([`stencil_residual_norm`]).
#[doc(hidden)]
pub fn stencil_mul(isa: Isa, plan: &BlockPlan, x: &[f64], y: &mut [f64]) {
    isa.run(
        #[inline(always)]
        || {
            let mut row = Vec::new();
            for b in 0..plan.n_blocks() {
                let (start, end) = plan.block_rows(b);
                block_product(plan, b, x, &mut y[start..end], &mut row);
            }
        },
    )
}

/// `‖b − A x‖₂` for a stencil plan's operator, under `isa`, one block at
/// a time: `rows` (sized to the widest block) takes one block's product,
/// bit for bit [`stencil_mul`]'s, and the squared residuals `(b_r − y_r)²`
/// are added to one sequential sum in row order, as `blas1::norm2` sums
/// the full `b − A x`; so the result has its bits, with no `n`-long
/// buffer written and read back.
pub(crate) fn stencil_residual_norm(
    isa: Isa,
    plan: &BlockPlan,
    b: &[f64],
    x: &[f64],
    rows: &mut Vec<f64>,
) -> f64 {
    rows.resize(plan.widest_block(), 0.0);
    isa.run(
        #[inline(always)]
        || {
            let mut row = Vec::new();
            let mut sum_sq = 0.0;
            for blk in 0..plan.n_blocks() {
                let (start, end) = plan.block_rows(blk);
                let y = &mut rows[..end - start];
                block_product(plan, blk, x, y, &mut row);
                for (&yr, &br) in y.iter().zip(&b[start..end]) {
                    let r = br - yr;
                    sum_sq += r * r;
                }
            }
            sum_sq.sqrt()
        },
    )
}

/// Block `b`'s rows of `y = A x` for a stencil plan, run by run, into
/// `y` (the block's rows); `row` is a reused tap list.
#[inline(always)]
fn block_product(
    plan: &BlockPlan,
    b: usize,
    x: &[f64],
    y: &mut [f64],
    row: &mut Vec<(isize, f64)>,
) {
    let center = plan.descriptor().expect("a stencil plan").center();
    let (start, _) = plan.block_rows(b);
    for run in plan.stencil_block(b).expect("a stencil plan").runs() {
        row.clear();
        row.extend(run.halo.iter().chain(&run.taps).copied());
        row.push((0, center));
        row.sort_unstable_by_key(|&(off, _)| off);
        let rows = (run.lo as usize, run.hi as usize);
        for (c, taps) in tap_chunks(row).enumerate() {
            if c == 0 {
                by_arity!(taps.len(), product_pass::<true>(taps, rows, start, x, y));
            } else {
                by_arity!(taps.len(), product_pass::<false>(taps, rows, start, x, y));
            }
        }
    }
}

/// `N` taps of a stencil row set over block-local rows `[lo, hi)`:
/// `y[li] = seed + Σ c·x[start + li + d]`, the seed `0.0` for a row's
/// first chunk (`FIRST`) and the partial sum in `y` after it. The taps'
/// coefficients and `x` windows are fixed-size arrays taken once per
/// pass, as in [`stencil_pass`].
#[inline(always)]
fn product_pass<const N: usize, const FIRST: bool>(
    taps: &[(isize, f64)],
    (lo, hi): (usize, usize),
    start: usize,
    x: &[f64],
    y: &mut [f64],
) {
    let len = hi - lo;
    let taps: &[(isize, f64); N] = taps.try_into().expect("chunk holds N taps");
    let win: [&[f64]; N] = std::array::from_fn(|t| {
        let j = (start + lo).wrapping_add_signed(taps[t].0);
        &x[j..j + len]
    });
    let coef: [f64; N] = std::array::from_fn(|t| taps[t].1);
    let out = &mut y[lo..hi];
    for q in 0..len {
        let mut acc = if FIRST { 0.0 } else { out[q] };
        for t in 0..N {
            acc += coef[t] * win[t][q];
        }
        out[q] = acc;
    }
}

/// `N` taps of one stencil run over its rows. Each row's sum starts
/// from `frozen`, or from the partial sum an earlier chunk left in `next`
/// (`IN_PLACE`). With `FINISH` the row's update (`· inv_diag`, then
/// damping) is applied and written to `next`; without it the partial sum
/// is.
///
/// The taps' coefficients and `cur` windows are fixed-size arrays taken
/// once per pass, each window exactly as long as the run, so the row loop
/// holds them in registers and needs no bounds check. The loop is written
/// one row at a time and the compiler vectorizes it across rows: each
/// lane runs one row's product-then-subtract chain in tap order, so the
/// bits are those of the scalar loop.
#[inline(always)]
fn stencil_pass<const N: usize, const IN_PLACE: bool, const FINISH: bool, const DAMPED: bool>(
    pass: &StencilPass<'_>,
    cur: &[f64],
    next: &mut [f64],
) {
    let (lo, hi) = pass.rows;
    let len = hi - lo;
    let taps: &[(isize, f64); N] = pass.taps.try_into().expect("chunk holds N taps");
    // in-block taps: every window lies inside the block
    let win: [&[f64]; N] = std::array::from_fn(|t| {
        let j = lo.wrapping_add_signed(taps[t].0);
        &cur[j..j + len]
    });
    let coef: [f64; N] = std::array::from_fn(|t| taps[t].1);
    let frozen = &pass.frozen[lo..hi];
    let inv_diag = &pass.inv_diag[lo..hi];
    let own = &cur[lo..hi];
    let out = &mut next[lo..hi];
    for q in 0..len {
        let mut acc = if IN_PLACE { out[q] } else { frozen[q] };
        for t in 0..N {
            acc -= coef[t] * win[t][q];
        }
        out[q] = if !FINISH {
            acc
        } else if DAMPED {
            own[q] + pass.tau * (acc * inv_diag[q] - own[q])
        } else {
            acc * inv_diag[q]
        };
    }
}

/// `Σ (new_i − old_i)²`, eight rows at a time in two four-lane sums (so
/// consecutive adds do not wait on each other), reduced once: the
/// estimate sum of a stencil block.
#[inline(always)]
fn delta_sq(new: &[f64], old: &[f64]) -> f64 {
    let new = new.chunks_exact(2 * LANES);
    let old = old.chunks_exact(2 * LANES);
    let mut tail = 0.0;
    for (n, o) in new.remainder().iter().zip(old.remainder()) {
        tail += (n - o) * (n - o);
    }
    let (mut lo, mut hi) = (f64x4::splat(0.0), f64x4::splat(0.0));
    for (n, o) in new.zip(old) {
        let d = f64x4::load(n) - f64x4::load(o);
        lo = lo + d * d;
        let d = f64x4::load(&n[LANES..]) - f64x4::load(&o[LANES..]);
        hi = hi + d * d;
    }
    (lo + hi).reduce_sum() + tail
}

/// `Σ ((new_i − old_i) · diag_i)²`, summed as [`delta_sq`] sums: the
/// estimate sum of a packed block.
#[inline(always)]
fn scaled_delta_sq(new: &[f64], old: &[f64], diag: &[f64]) -> f64 {
    let new = new.chunks_exact(2 * LANES);
    let old = old.chunks_exact(2 * LANES);
    let diag = diag.chunks_exact(2 * LANES);
    let mut tail = 0.0;
    for ((n, o), a) in new.remainder().iter().zip(old.remainder()).zip(diag.remainder()) {
        tail += ((n - o) * a) * ((n - o) * a);
    }
    let (mut lo, mut hi) = (f64x4::splat(0.0), f64x4::splat(0.0));
    for ((n, o), a) in new.zip(old).zip(diag) {
        let r = (f64x4::load(n) - f64x4::load(o)) * f64x4::load(a);
        lo = lo + r * r;
        let r = (f64x4::load(&n[LANES..]) - f64x4::load(&o[LANES..])) * f64x4::load(&a[LANES..]);
        hi = hi + r * r;
    }
    (lo + hi).reduce_sum() + tail
}

impl BlockKernel for AsyncJacobiKernel<'_> {
    fn n(&self) -> usize {
        self.plan.n()
    }

    fn n_blocks(&self) -> usize {
        self.plan.n_blocks()
    }

    fn block_range(&self, b: usize) -> (usize, usize) {
        self.plan.block_rows(b)
    }

    fn block_cost(&self, b: usize) -> f64 {
        self.plan.block_nnz(b).max(1.0)
    }

    fn neighbor_blocks(&self, b: usize) -> Option<&[usize]> {
        Some(self.plan.neighbors(b))
    }

    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        // Compatibility entry point for callers without a scratch; the
        // executors call `update_block_with` with a per-worker scratch.
        let mut scratch = BlockScratch::new();
        self.update_block_with(b, x, out, &mut scratch);
    }

    fn update_block_with(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        self.isa.run(#[inline(always)] || self.update::<false>(b, x, out, scratch));
    }

    fn update_block_estimating(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) -> Option<f64> {
        self.isa.run(#[inline(always)] || self.update::<true>(b, x, out, scratch))
    }
}

impl AsyncJacobiKernel<'_> {
    /// One block update — freeze, sweeps, and with `ESTIMATE` the fused
    /// residual sub-norm — inlined whole into each [`Isa::run`] entry, so
    /// the AVX2 entry compiles every loop of it for AVX2.
    ///
    /// The estimate of a Jacobi update (`damping != 0`) comes from the
    /// update law rather than a matrix pass. After the sweeps `cur` holds
    /// the committed local iterate and `next` the previous inner iterate
    /// (the final double-buffer swap), and new_i = prev_i + τ(sweep_i −
    /// prev_i) with r_i(prev) = a_ii (sweep_i − prev_i), so r_i = (new_i −
    /// prev_i) · a_ii / τ. For k = 1 this is exactly the residual of the
    /// snapshot the update read; for k > 1 it trails the committed iterate
    /// by one inner sweep (the monitor's guard band covers that, and
    /// convergence is only ever declared on the exact check). The sum
    /// takes one lane-parallel pass over the block while it is still in
    /// cache, with no division: a stencil plan has one diagonal, the
    /// descriptor's centre, so it sums the squared changes and scales the
    /// sum once; a packed plan weights each change by its stored diagonal.
    /// Gauss-Seidel and `damping == 0` keep no previous iterate and price
    /// the local residual at the committed iterate instead.
    #[inline(always)]
    fn update<const ESTIMATE: bool>(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) -> Option<f64> {
        let (start, end) = self.plan.block_rows(b);
        let nb = end - start;
        debug_assert_eq!(out.len(), nb);
        scratch.ensure(nb);
        // Steps 1 and 2 read the iterate: the view is matched once here,
        // and each arm runs a loop monomorphised over its read.
        match *x {
            XView::Plain(s) => self.load_block(b, x, |i| s[i], scratch),
            XView::Atomic(a) => self.load_block(b, x, |i| a.get(i), scratch),
            XView::Staged(h) => self.load_block(b, x, |i| h.get(i), scratch),
        }
        let BlockScratch { cur, next, frozen } = scratch;

        // Step 3: `local_iters` sweeps on the packed local operator,
        // monomorphised over damping and layout.
        let inv_diag = &self.plan.inv_diag()[start..end];
        let damped = self.damping != 1.0;
        match self.local_sweep {
            LocalSweep::Jacobi => {
                // all four tiers share the freeze above and the op order
                // inside, so the dispatch is a pure speed choice — every
                // arm produces the same bits (asserted by the workspace
                // equivalence proptests)
                let ell = || self.plan.ell(b).expect("tier resolved against plan");
                let sten = || self.plan.stencil_block(b).expect("tier resolved against plan");
                match (self.resolved_tier(b), damped) {
                    (SweepTier::Stencil, false) => {
                        self.sweeps_jacobi_stencil::<false>(sten(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Stencil, true) => {
                        self.sweeps_jacobi_stencil::<true>(sten(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::EllSimd, false) => {
                        self.sweeps_jacobi_ell_simd::<false>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::EllSimd, true) => {
                        self.sweeps_jacobi_ell_simd::<true>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Ell, false) => {
                        self.sweeps_jacobi_ell::<false>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Ell, true) => {
                        self.sweeps_jacobi_ell::<true>(ell(), inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Csr, false) => {
                        self.sweeps_jacobi_csr::<false>(start, nb, inv_diag, frozen, cur, next)
                    }
                    (SweepTier::Csr, true) => {
                        self.sweeps_jacobi_csr::<true>(start, nb, inv_diag, frozen, cur, next)
                    }
                }
            }
            LocalSweep::GaussSeidel => {
                if damped {
                    self.sweeps_gs_csr::<true>(start, nb, inv_diag, frozen, cur);
                } else {
                    self.sweeps_gs_csr::<false>(start, nb, inv_diag, frozen, cur);
                }
            }
        }
        out.copy_from_slice(&cur[..nb]);
        if !ESTIMATE || self.local_iters == 0 {
            return None;
        }
        let (new, prev) = (&cur[..nb], &next[..nb]);
        Some(match self.local_sweep {
            LocalSweep::Jacobi if self.damping != 0.0 => match self.plan.descriptor() {
                Some(d) => {
                    let scale = d.center() / self.damping;
                    delta_sq(new, prev) * (scale * scale)
                }
                None => {
                    let inv_tau = 1.0 / self.damping;
                    scaled_delta_sq(new, prev, &self.plan.diag()[start..end]) * (inv_tau * inv_tau)
                }
            },
            _ => self.local_residual_sq_at(b, new, &frozen[..nb]),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::convergence::SolveOptions;
    use crate::{gauss_seidel, jacobi};
    use abr_sparse::gen::{laplacian_2d_5pt, random_diag_dominant};

    fn solve_setup(n_side: usize) -> (CsrMatrix, Vec<f64>, Vec<f64>) {
        let a = laplacian_2d_5pt(n_side);
        let n = n_side * n_side;
        let x_true = vec![1.0; n];
        let rhs = a.mul_vec(&x_true).unwrap();
        (a, rhs, x_true)
    }

    #[test]
    fn single_block_async_1_is_exactly_jacobi() {
        let (a, rhs, _) = solve_setup(6);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, n).unwrap();
        let solver = AsyncBlockSolver {
            local_iters: 1,
            schedule: ScheduleKind::RoundRobin,
            executor: ExecutorKind::Sim(SimOptions { n_workers: 1, jitter: 0.0, seed: 0 }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        };
        let opts = SolveOptions::fixed_iterations(15);
        let r_async = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let r_jacobi = jacobi(&a, &rhs, &vec![0.0; n], &opts).unwrap();
        for (x1, x2) in r_async.x.iter().zip(&r_jacobi.x) {
            assert!((x1 - x2).abs() < 1e-14, "{x1} vs {x2}");
        }
    }

    #[test]
    fn scalar_blocks_sequential_is_exactly_gauss_seidel() {
        // block size 1, one worker, no jitter, in-order dispatch: every
        // update immediately sees all earlier ones — Gauss-Seidel.
        let (a, rhs, _) = solve_setup(5);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 1).unwrap();
        let solver = AsyncBlockSolver {
            local_iters: 1,
            schedule: ScheduleKind::RoundRobin,
            executor: ExecutorKind::Sim(SimOptions { n_workers: 1, jitter: 0.0, seed: 0 }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        };
        let opts = SolveOptions::fixed_iterations(10);
        let r_async = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let r_gs = gauss_seidel(&a, &rhs, &vec![0.0; n], &opts).unwrap();
        for (x1, x2) in r_async.x.iter().zip(&r_gs.x) {
            assert!((x1 - x2).abs() < 1e-13, "{x1} vs {x2}");
        }
    }

    #[test]
    fn async_5_converges_on_poisson() {
        let (a, rhs, x_true) = solve_setup(12);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let r = solver
            .solve(&a, &rhs, &vec![0.0; n], &p, &SolveOptions::to_tolerance(1e-11, 4000))
            .unwrap();
        assert!(r.converged, "residual {}", r.final_residual);
        for (xi, ti) in r.x.iter().zip(&x_true) {
            assert!((xi - ti).abs() < 1e-8);
        }
    }

    #[test]
    fn async_5_converges_faster_than_async_1_per_global_iteration() {
        // The paper's headline §4.3 result on diagonally-heavy systems.
        let (a, rhs, _) = solve_setup(14);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 28).unwrap();
        let opts = SolveOptions::fixed_iterations(200);
        let r1 = AsyncBlockSolver::async_k(1)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let r5 = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        assert!(
            r5.final_residual < r1.final_residual * 0.1,
            "async-5 {} vs async-1 {}",
            r5.final_residual,
            r1.final_residual
        );
    }

    #[test]
    fn local_iterations_are_useless_when_diagonal_blocks_are_diagonal() {
        // Paper §4.3 on Chem97ZtZ: "the local matrices for Chem97ZtZ are
        // diagonal and therefore it does not matter how many local
        // iterations would be performed." With a truly diagonal local
        // block, the first local sweep is a fixed point of the remaining
        // ones, so async-(5) produces *identical* iterates to async-(1).
        let a = abr_sparse::gen::chem_ztz(301, 0.7889).unwrap();
        let n = a.n_rows();
        let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
        let p = RowPartition::uniform(n, 16).unwrap(); // 16 < coupling stride
        let opts = SolveOptions::fixed_iterations(30);
        let r1 = AsyncBlockSolver::async_k(1)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let r5 = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        assert!(
            (r5.final_residual - r1.final_residual).abs()
                <= 1e-12 * r1.final_residual.max(1e-300),
            "async-5 {} vs async-1 {}",
            r5.final_residual,
            r1.final_residual
        );
    }

    #[test]
    fn threaded_executor_reaches_same_accuracy() {
        let (a, rhs, _) = solve_setup(10);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 10).unwrap();
        let sim = AsyncBlockSolver::async_k(5);
        let thr = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions::default()),
            ..AsyncBlockSolver::async_k(5)
        };
        let opts = SolveOptions::fixed_iterations(150);
        let r_sim = sim.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let r_thr = thr.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        // Non-deterministic, but both must be deep in the convergent
        // regime after 150 global iterations.
        assert!(r_sim.final_residual < 1e-2, "sim residual {}", r_sim.final_residual);
        // The threaded run is at least as accurate in practice: real
        // threads on a tiny system serialise on memory and see fresher
        // values than the DES's deliberately pessimistic staleness, so we
        // only bound it from above.
        assert!(r_thr.final_residual < 1e-2, "threaded residual {}", r_thr.final_residual);
    }

    #[test]
    fn history_records_every_global_iteration() {
        let (a, rhs, _) = solve_setup(8);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let r = AsyncBlockSolver::async_k(2)
            .solve(&a, &rhs, &vec![0.0; n], &p, &SolveOptions::fixed_iterations(25))
            .unwrap();
        assert_eq!(r.history.len(), 25);
        assert!(r.history[24] < r.history[0]);
    }

    #[test]
    fn tolerance_early_stop() {
        let (a, rhs, _) = solve_setup(8);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let r = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &SolveOptions::to_tolerance(1e-8, 100000))
            .unwrap();
        assert!(r.converged);
        assert!(r.iterations < 100000);
        assert!(r.iterations.is_multiple_of(10), "chunked driving stops on a chunk boundary");
    }

    #[test]
    fn random_diag_dominant_systems_converge_for_any_seedled_schedule() {
        for seed in 0..3 {
            let a = random_diag_dominant(80, 5, 1.3, seed);
            let rhs = a.mul_vec(&vec![1.0; 80]).unwrap();
            let p = RowPartition::uniform(80, 9).unwrap();
            let solver = AsyncBlockSolver {
                schedule: ScheduleKind::Random { seed: seed * 13 },
                ..AsyncBlockSolver::async_k(2)
            };
            let r = solver
                .solve(&a, &rhs, &vec![0.0; 80], &p, &SolveOptions::to_tolerance(1e-9, 2000))
                .unwrap();
            assert!(r.converged, "seed {seed}: {}", r.final_residual);
        }
    }

    #[test]
    fn local_gauss_seidel_sweeps_converge_faster_per_global_iteration() {
        let (a, rhs, _) = solve_setup(12);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 36).unwrap();
        let opts = SolveOptions::fixed_iterations(80);
        let jac = AsyncBlockSolver::async_k(5)
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let gs = AsyncBlockSolver {
            local_sweep: LocalSweep::GaussSeidel,
            ..AsyncBlockSolver::async_k(5)
        }
        .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
        .unwrap();
        assert!(
            gs.final_residual < jac.final_residual,
            "local GS {} vs local Jacobi {}",
            gs.final_residual,
            jac.final_residual
        );
    }

    #[test]
    fn local_gs_with_scalar_blocks_equals_local_jacobi() {
        // one row per block: the inner sweep degenerates either way
        let (a, rhs, _) = solve_setup(5);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 1).unwrap();
        let opts = SolveOptions::fixed_iterations(10);
        let jac = AsyncBlockSolver { local_iters: 1, ..Default::default() }
            .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
            .unwrap();
        let gs = AsyncBlockSolver {
            local_iters: 1,
            local_sweep: LocalSweep::GaussSeidel,
            ..Default::default()
        }
        .solve(&a, &rhs, &vec![0.0; n], &p, &opts)
        .unwrap();
        for (x1, x2) in jac.x.iter().zip(&gs.x) {
            assert!((x1 - x2).abs() < 1e-14);
        }
    }

    #[test]
    fn staleness_is_bounded_and_mixed() {
        let (a, rhs, _) = solve_setup(12);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 12).unwrap();
        let trace = measure_staleness(
            &a,
            &rhs,
            &p,
            2,
            SimOptions { n_workers: 4, jitter: 0.3, seed: 5 },
            ScheduleKind::Random { seed: 2 },
            40,
        )
        .unwrap();
        let h = &trace.staleness;
        assert!(h.total() > 0, "neighbour reads must be recorded");
        // Admissibility: shifts bounded (the serialised per-block updates
        // keep the skew to a few rounds).
        assert!(h.max_shift().unwrap() <= 6, "max shift {:?}", h.max_shift());
        // Asynchrony: a real mix of fresh and stale reads.
        assert!(h.fraction_fresh() > 0.05, "fresh fraction {}", h.fraction_fresh());
        assert!(h.fraction_fresh() < 0.95, "fresh fraction {}", h.fraction_fresh());
    }

    #[test]
    fn kernel_neighbors_are_the_coupled_blocks() {
        // 4x4 grid, blocks = grid rows: each block couples only to the
        // adjacent grid rows.
        let a = laplacian_2d_5pt(4);
        let p = RowPartition::uniform(16, 4).unwrap();
        let rhs = vec![0.0; 16];
        let k = AsyncJacobiKernel::new(&a, &rhs, &p, 1, 1.0).unwrap();
        assert_eq!(k.neighbor_blocks(0).unwrap(), &[1]);
        assert_eq!(k.neighbor_blocks(1).unwrap(), &[0, 2]);
        assert_eq!(k.neighbor_blocks(3).unwrap(), &[2]);
    }

    #[test]
    fn plan_path_is_bit_identical_to_reference() {
        // both layouts (ELL for the short-row Laplacian blocks, CSR for
        // the single wide block), both sweeps, damped and undamped
        let a = random_diag_dominant(60, 5, 1.4, 7);
        let rhs = a.mul_vec(&vec![1.0; 60]).unwrap();
        let x: Vec<f64> = (0..60).map(|i| (i as f64 * 0.37).sin()).collect();
        for (block_size, sweep, damping) in [
            (7, LocalSweep::Jacobi, 1.0),
            (7, LocalSweep::Jacobi, 0.8),
            (60, LocalSweep::Jacobi, 1.0),
            (7, LocalSweep::GaussSeidel, 1.0),
            (7, LocalSweep::GaussSeidel, 0.9),
        ] {
            let p = RowPartition::uniform(60, block_size).unwrap();
            let k = AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 3, damping, sweep).unwrap();
            let mut scratch = abr_gpu::BlockScratch::new();
            for b in 0..k.n_blocks() {
                let (s, e) = k.block_range(b);
                let mut plan_out = vec![0.0; e - s];
                let mut ref_out = vec![0.0; e - s];
                k.update_block_with(b, &XView::Plain(&x), &mut plan_out, &mut scratch);
                k.update_block_reference(b, &XView::Plain(&x), &mut ref_out);
                for (pv, rv) in plan_out.iter().zip(&ref_out) {
                    assert_eq!(pv.to_bits(), rv.to_bits(), "block {b} ({sweep:?}, tau={damping})");
                }
            }
        }
    }

    #[test]
    fn ell_pad_slot_is_inert_for_nonfinite_iterates() {
        // divergent-regime values (inf) must flow through the ELL path
        // exactly as through the reference path
        let a = laplacian_2d_5pt(4);
        let rhs = vec![1.0; 16];
        let p = RowPartition::uniform(16, 4).unwrap();
        let k = AsyncJacobiKernel::new(&a, &rhs, &p, 2, 1.0).unwrap();
        let mut x = vec![1.0e308; 16];
        x[3] = f64::INFINITY;
        x[7] = -0.0;
        let mut scratch = abr_gpu::BlockScratch::new();
        for b in 0..k.n_blocks() {
            assert!(k.plan().ell(b).is_some());
            let mut plan_out = vec![0.0; 4];
            let mut ref_out = vec![0.0; 4];
            k.update_block_with(b, &XView::Plain(&x), &mut plan_out, &mut scratch);
            k.update_block_reference(b, &XView::Plain(&x), &mut ref_out);
            for (pv, rv) in plan_out.iter().zip(&ref_out) {
                assert_eq!(pv.to_bits(), rv.to_bits(), "block {b}");
            }
        }
    }

    #[test]
    fn solve_session_reuses_a_compiled_kernel() {
        let (a, rhs, _) = solve_setup(8);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 16).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let kernel =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 5, 1.0, LocalSweep::Jacobi).unwrap();
        let opts = SolveOptions::fixed_iterations(40);
        let session = RunSession::default();
        let via_kernel = solver
            .solve_session(&a, &rhs, &vec![0.0; n], &kernel, &opts, &AllowAll, None, session)
            .unwrap();
        let direct = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        assert_eq!(via_kernel.result.x, direct.x);
        assert_eq!(via_kernel.report.outcome, RunOutcome::Completed);
        assert_eq!(via_kernel.trace.total_updates(), 40 * kernel.n_blocks());
        assert!(via_kernel.checks.is_empty(), "a fixed-budget solve checks nothing");
    }

    /// Runs the sim arm of `solve_session` on a 10x10 Laplacian in blocks
    /// of 10 rows under `session`.
    fn sim_session(opts: &SolveOptions, session: RunSession<'_>) -> (FaultedSolve, usize) {
        let (a, rhs, _) = solve_setup(10);
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 10).unwrap();
        let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let x0 = vec![0.25; n];
        let solved =
            solver.solve_session(&a, &rhs, &x0, &kernel, opts, &AllowAll, None, session).unwrap();
        (solved, kernel.n_blocks())
    }

    #[test]
    fn sim_session_honours_a_fired_token_before_the_first_chunk() {
        let token = CancelToken::new();
        token.cancel();
        let opts = SolveOptions::to_tolerance(1e-30, 100_000);
        let session = RunSession { cancel: Some(&token), ..RunSession::default() };
        let (solved, _) = sim_session(&opts, session);
        assert_eq!(solved.report.outcome, RunOutcome::Cancelled);
        assert_eq!(solved.result.iterations, 0);
        assert_eq!(solved.report.global_iterations, 0);
        assert_eq!(solved.result.x, vec![0.25; 100]);
        assert_eq!(solved.trace.total_updates(), 0);
        assert!(solved.checks.is_empty());
        assert!(solved.result.fault.is_none());
    }

    #[test]
    fn sim_session_reports_its_stop_checks_and_trace() {
        let opts = SolveOptions::to_tolerance(1e-8, 100_000);
        let (solved, n_blocks) = sim_session(&opts, RunSession::default());
        let (r, report) = (&solved.result, &solved.report);
        assert!(r.converged, "residual {}", r.final_residual);
        assert_eq!(report.outcome, RunOutcome::Stopped);
        assert_eq!(report.stopped_at, Some(r.iterations));
        assert_eq!(report.global_iterations, r.iterations);
        assert_eq!(report.checks, solved.checks.len());
        assert_eq!(solved.checks.len(), r.iterations / 10, "one check per chunk");
        assert_eq!(solved.checks.last(), Some(&(r.iterations, r.final_residual)));
        assert_eq!(solved.trace.total_updates(), r.iterations * n_blocks);
        assert_eq!(solved.trace.global_iterations(), r.iterations);
        assert!(r.fault.is_none(), "a sim solve has no fault report");
    }

    #[test]
    #[should_panic(expected = "a sim solve takes only a cancel token")]
    fn sim_session_rejects_live_faults() {
        let plan = FaultPlan::new().kill(1, 5);
        let session = RunSession { faults: Some(&plan), ..RunSession::default() };
        sim_session(&SolveOptions::fixed_iterations(20), session);
    }

    #[test]
    fn nnz_local_counts_block_entries() {
        let a = laplacian_2d_5pt(4); // 16 rows
        let p = RowPartition::uniform(16, 4).unwrap();
        let rhs = vec![0.0; 16];
        let k = AsyncJacobiKernel::new(&a, &rhs, &p, 1, 1.0).unwrap();
        // Row-major 4x4 grid, blocks = grid rows: inside a block are the
        // diagonal and the left/right couplings: 16 + 2*3*4 = 40.
        assert_eq!(k.nnz_local(), 40);
        assert!(k.nnz_local() < a.nnz());
    }

    #[test]
    fn forced_tiers_agree_bitwise_per_block() {
        // every Jacobi tier — CSR, scalar ELL, f64x4 ELL, matrix-free
        // stencil — on identical inputs, compared bit for bit; blocks of
        // 14 rows start mid-grid-row so the stencil runs get clipped taps.
        // A stencil plan stores no packed rows, so the stored-matrix tiers
        // run on a second kernel compiled without the descriptor.
        let a = laplacian_2d_5pt(9);
        let n = 81;
        let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
        let p = RowPartition::uniform(n, 14).unwrap();
        let d = StencilDescriptor::poisson_2d_5pt(9);
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() * 3.0 - 0.5).collect();
        for damping in [1.0, 0.85] {
            let mut sten = AsyncJacobiKernel::with_sweep_and_stencil(
                &a, &rhs, &p, 4, damping, LocalSweep::Jacobi, Some(&d),
            )
            .unwrap();
            let mut plain =
                AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 4, damping, LocalSweep::Jacobi)
                    .unwrap();
            let mut base: Vec<Vec<f64>> = Vec::new();
            for tier in [
                None,
                Some(SweepTier::Csr),
                Some(SweepTier::Ell),
                Some(SweepTier::EllSimd),
                Some(SweepTier::Stencil),
            ] {
                let k = match tier {
                    None | Some(SweepTier::Stencil) => &mut sten,
                    Some(_) => &mut plain,
                };
                k.force_tier(tier);
                let mut scratch = BlockScratch::new();
                let mut outs = Vec::new();
                for b in 0..k.n_blocks() {
                    if let Some(t) = tier {
                        assert_eq!(k.resolved_tier(b), t, "every tier has data on this system");
                    }
                    let (s, e) = k.block_range(b);
                    let mut out = vec![0.0; e - s];
                    k.update_block_with(b, &XView::Plain(&x), &mut out, &mut scratch);
                    outs.push(out);
                }
                if base.is_empty() {
                    base = outs;
                } else {
                    for (b, (o, r)) in outs.iter().zip(&base).enumerate() {
                        for (li, (v1, v2)) in o.iter().zip(r).enumerate() {
                            assert_eq!(
                                v1.to_bits(),
                                v2.to_bits(),
                                "tier {tier:?} block {b} row {li} tau {damping}: {v1} vs {v2}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn incompatible_tier_override_falls_back_to_compiled() {
        // no descriptor compiled: a Stencil override must quietly resolve
        // to each block's own tier instead of panicking
        let a = random_diag_dominant(40, 5, 1.4, 2);
        let rhs = vec![1.0; 40];
        let p = RowPartition::uniform(40, 8).unwrap();
        let mut k = AsyncJacobiKernel::new(&a, &rhs, &p, 2, 1.0).unwrap();
        k.force_tier(Some(SweepTier::Stencil));
        let x = vec![0.5; 40];
        let mut scratch = BlockScratch::new();
        let mut out = vec![0.0; 8];
        for b in 0..k.n_blocks() {
            assert_ne!(k.resolved_tier(b), SweepTier::Stencil);
            k.update_block_with(b, &XView::Plain(&x), &mut out, &mut scratch);
        }
    }

    #[test]
    fn packed_tier_pins_on_a_stencil_plan_stay_on_stencil() {
        let (a, d) = abr_sparse::gen::fv_stencil(8, 1.0).unwrap();
        let rhs = vec![1.0; 64];
        let p = RowPartition::uniform(64, 10).unwrap();
        let mut k = AsyncJacobiKernel::with_sweep_and_stencil(
            &a, &rhs, &p, 2, 1.0, LocalSweep::Jacobi, Some(&d),
        )
        .unwrap();
        let x = vec![0.5; 64];
        let mut scratch = BlockScratch::new();
        for tier in [SweepTier::Csr, SweepTier::Ell, SweepTier::EllSimd] {
            k.force_tier(Some(tier));
            for b in 0..k.n_blocks() {
                assert_eq!(k.resolved_tier(b), SweepTier::Stencil, "{tier:?} pin, block {b}");
                let (s, e) = k.block_range(b);
                k.update_block_with(b, &XView::Plain(&x), &mut vec![0.0; e - s], &mut scratch);
            }
        }
    }

    #[test]
    fn only_damped_jacobi_kernels_compile_a_stencil_plan() {
        // Gauss-Seidel sweeps and the damping-0 residual pass walk the
        // packed rows: those kernels get the packed plan, and still
        // reject a descriptor that does not describe the matrix
        let (a, d) = abr_sparse::gen::fv_stencil(8, 1.0).unwrap();
        let rhs = vec![1.0; 64];
        let p = RowPartition::uniform(64, 10).unwrap();
        let kernel = |sweep, damping, d: &StencilDescriptor| {
            AsyncJacobiKernel::with_sweep_and_stencil(&a, &rhs, &p, 2, damping, sweep, Some(d))
        };
        let packed = BlockPlan::compile(&a, &p).unwrap();
        for (sweep, damping) in [
            (LocalSweep::GaussSeidel, 1.0),
            (LocalSweep::GaussSeidel, 0.0),
            (LocalSweep::Jacobi, 0.0),
        ] {
            let k = kernel(sweep, damping, &d).unwrap();
            assert_eq!(k.plan(), &packed, "{sweep:?} tau {damping}");
            let wrong = StencilDescriptor::poisson_2d_5pt(8);
            assert_eq!(kernel(sweep, damping, &wrong).err(), wrong.verify(&a).err());
        }
        for damping in [1.0, 0.8, -0.5] {
            let k = kernel(LocalSweep::Jacobi, damping, &d).unwrap();
            assert_eq!(k.plan().descriptor(), Some(&d), "tau {damping}");
        }
    }

    #[test]
    fn solves_off_the_stencil_tier_ignore_the_descriptor_bitwise() {
        // sim arm to tolerance: Gauss-Seidel (packed plan either way) and
        // damped Jacobi (stencil plan and stencil checks with the
        // descriptor) give the bits of the plain solve
        let (a, d) = abr_sparse::gen::fv_stencil(12, 1.0).unwrap();
        let n = a.n_rows();
        let rhs = a.mul_vec(&vec![1.0; n]).unwrap();
        let p = RowPartition::uniform(n, 17).unwrap();
        let opts = SolveOptions::to_tolerance(1e-10, 4000);
        for (sweep, damping) in [(LocalSweep::GaussSeidel, 1.0), (LocalSweep::Jacobi, 0.8)] {
            let solver =
                AsyncBlockSolver { local_sweep: sweep, damping, ..AsyncBlockSolver::async_k(3) };
            let plain = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
            let sten = solver.solve_with_stencil(&a, &rhs, &vec![0.0; n], &p, &d, &opts).unwrap();
            assert!(sten.converged, "{sweep:?}: residual {}", sten.final_residual);
            assert_eq!(plain.iterations, sten.iterations, "{sweep:?}");
            assert_eq!(plain.final_residual.to_bits(), sten.final_residual.to_bits(), "{sweep:?}");
            let same = plain.x.iter().zip(&sten.x).all(|(x1, x2)| x1.to_bits() == x2.to_bits());
            assert!(same, "{sweep:?}: iterates differ");
        }
    }

    #[test]
    fn stencil_solve_matches_plain_solve_bitwise() {
        // the deterministic Sim executor end to end: enabling the
        // matrix-free tier must not change one bit of any iterate
        let (a, rhs, x_true) = solve_setup(10);
        let n = a.n_rows();
        let d = StencilDescriptor::poisson_2d_5pt(10);
        let p = RowPartition::uniform(n, 20).unwrap();
        let solver = AsyncBlockSolver::async_k(5);
        let opts = SolveOptions::to_tolerance(1e-11, 4000);
        let plain = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).unwrap();
        let sten = solver.solve_with_stencil(&a, &rhs, &vec![0.0; n], &p, &d, &opts).unwrap();
        assert!(sten.converged, "residual {}", sten.final_residual);
        assert_eq!(plain.iterations, sten.iterations);
        for ((x1, x2), t) in plain.x.iter().zip(&sten.x).zip(&x_true) {
            assert_eq!(x1.to_bits(), x2.to_bits(), "{x1} vs {x2}");
            assert!((x2 - t).abs() < 1e-8);
        }
    }

    /// The stencil tier against the CSR tier, bit for bit, on the paths
    /// the fixed-arity passes and the matrix-free halo freeze take.
    mod stencil_bits {
        use super::*;
        use abr_gpu::{AtomicF64Vec, HaloView};
        use abr_sparse::gen::{fv_stencil, laplacian_2d_5pt_stencil};
        use abr_sparse::{CooMatrix, GridShape, StencilTap};
        use proptest::prelude::*;

        /// The matrix a descriptor describes: every on-grid tap and the
        /// centre, row by row.
        fn assemble(d: &StencilDescriptor) -> CsrMatrix {
            let (m, dims) = match d.shape() {
                GridShape::Square2d { m } => (m, 2),
                GridShape::Cube3d { m } => (m, 3),
            };
            let n = d.n();
            let mut coo = CooMatrix::new(n, n);
            for r in 0..n {
                let pos = if dims == 2 {
                    [r / m, r % m, 0]
                } else {
                    [r / (m * m), r / m % m, r % m]
                };
                for t in d.taps() {
                    let to = [pos[0] as i64 + t.di as i64, pos[1] as i64 + t.dj as i64, pos[2] as i64 + t.dk as i64];
                    if to[..dims].iter().all(|&c| 0 <= c && c < m as i64) {
                        let c = if dims == 2 {
                            to[0] as usize * m + to[1] as usize
                        } else {
                            (to[0] as usize * m + to[1] as usize) * m + to[2] as usize
                        };
                        coo.push(r, c, t.coef).unwrap();
                    }
                }
                coo.push(r, r, d.center()).unwrap();
            }
            coo.to_csr()
        }

        /// Distinct coefficient bits per tap, so a tap swapped for
        /// another cannot go unnoticed.
        fn coef(t: usize) -> f64 {
            -(1.0 + 0.37 * t as f64) / 29.0
        }

        /// A 5x5 2D stencil: 24 taps, three chunks of the fixed arity.
        fn wide_2d(m: usize) -> StencilDescriptor {
            let mut taps = Vec::new();
            for di in -2i32..=2 {
                for dj in -2i32..=2 {
                    if di != 0 || dj != 0 {
                        taps.push(StencilTap { di, dj, dk: 0, coef: coef(taps.len()) });
                    }
                }
            }
            StencilDescriptor::new(GridShape::Square2d { m }, 4.5, taps).unwrap()
        }

        /// The 27-point 3D stencil: 26 taps, a partial last chunk.
        fn point27_3d(m: usize) -> StencilDescriptor {
            let mut taps = Vec::new();
            for di in -1i32..=1 {
                for dj in -1i32..=1 {
                    for dk in -1i32..=1 {
                        if (di, dj, dk) != (0, 0, 0) {
                            taps.push(StencilTap { di, dj, dk, coef: coef(taps.len()) });
                        }
                    }
                }
            }
            StencilDescriptor::new(GridShape::Cube3d { m }, 5.0, taps).unwrap()
        }

        /// Block boundaries from a seed: sizes 1..=`widest`, so 1-row
        /// blocks and blocks that start mid grid row both occur.
        fn ragged_partition(n: usize, widest: usize, seed: u64) -> RowPartition {
            let mut offsets = vec![0];
            let mut h = seed;
            while *offsets.last().unwrap() < n {
                h = h.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
                let len = 1 + (h >> 33) as usize % widest;
                offsets.push((offsets.last().unwrap() + len).min(n));
            }
            RowPartition::from_offsets(&offsets).unwrap()
        }

        fn iterate(n: usize, seed: u64, poisoned: bool) -> Vec<f64> {
            let mut x: Vec<f64> = (0..n)
                .map(|i| ((i as u64 * 2654435761 + seed) % 997) as f64 / 97.0 - 5.0)
                .collect();
            if poisoned {
                let at = |j: u64| (seed.wrapping_mul(31).wrapping_add(j * 101) % n as u64) as usize;
                x[at(0)] = f64::INFINITY;
                x[at(1)] = f64::NEG_INFINITY;
                x[at(2)] = f64::NAN;
            }
            x
        }

        /// Bitwise, with any two NaNs equal (payload propagation is the
        /// one place IEEE 754 lets hardware differ).
        fn bits_eq(a: f64, b: f64) -> bool {
            a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(40))]

            #[test]
            fn stencil_tier_matches_csr_tier_bitwise(
                system in 0usize..4,
                widest in 1usize..40,
                k in 1usize..5,
                damped in 0usize..2,
                view in 0usize..3,
                poisoned in 0usize..2,
                seed in 0u64..1000,
            ) {
                let (a, d) = match system {
                    0 => fv_stencil(9, 0.45).unwrap(),
                    1 => laplacian_2d_5pt_stencil(8),
                    2 => {
                        let d = wide_2d(8);
                        (assemble(&d), d)
                    }
                    _ => {
                        let d = point27_3d(4);
                        (assemble(&d), d)
                    }
                };
                let n = a.n_rows();
                let rhs = iterate(n, seed ^ 0x5eed, false);
                let p = ragged_partition(n, widest, seed);
                let tau = if damped == 1 { 0.8 } else { 1.0 };
                let sten = AsyncJacobiKernel::with_sweep_and_stencil(
                    &a, &rhs, &p, k, tau, LocalSweep::Jacobi, Some(&d),
                )
                .unwrap();
                let mut csr = AsyncJacobiKernel::new(&a, &rhs, &p, k, tau).unwrap();
                csr.force_tier(Some(SweepTier::Csr));
                let x = iterate(n, seed, poisoned == 1);
                let live = AtomicF64Vec::from_slice(&x);
                // the stage lags the live iterate: remote rows differ
                let stage = AtomicF64Vec::from_slice(&iterate(n, seed + 7, poisoned == 1));
                let xv = match view {
                    0 => XView::Plain(&x),
                    1 => XView::Atomic(&live),
                    _ => XView::Staged(HaloView::new(&live, &stage, n / 3, 2 * n / 3)),
                };
                let (mut s1, mut s2) = (BlockScratch::new(), BlockScratch::new());
                for b in 0..sten.n_blocks() {
                    prop_assert_eq!(sten.resolved_tier(b), SweepTier::Stencil);
                    let (s, e) = sten.block_range(b);
                    let mut o1 = vec![0.0; e - s];
                    let mut o2 = vec![0.0; e - s];
                    sten.update_block_with(b, &xv, &mut o1, &mut s1);
                    csr.update_block_with(b, &xv, &mut o2, &mut s2);
                    for (li, (v1, v2)) in o1.iter().zip(&o2).enumerate() {
                        prop_assert!(
                            bits_eq(*v1, *v2),
                            "system {} block {} [{}, {}) row {}: {} vs {}",
                            system, b, s, e, li, v1, v2
                        );
                    }
                }
            }
        }

        #[test]
        fn descriptor_assembly_is_the_tap_by_tap_matrix_on_any_grid() {
            // from one node a side up, so grids narrower than the stencil,
            // where taps collide in row offset, are covered: the
            // descriptor's own assembly is the matrix its taps describe,
            // and the stencil tier sweeps it as the CSR tier does
            let grids = (1..=9).map(wide_2d).chain((1..=5).map(point27_3d)).chain([
                StencilDescriptor::fv_9pt(2, 0.45).unwrap(),
                StencilDescriptor::poisson_2d_5pt(1),
                StencilDescriptor::poisson_3d_7pt(1),
            ]);
            for d in grids {
                let a = d.assemble();
                let oracle = assemble(&d);
                let at = format!("{:?}", d.shape());
                assert_eq!(a.row_ptr(), oracle.row_ptr(), "{at}");
                assert_eq!(a.col_idx(), oracle.col_idx(), "{at}");
                assert_eq!(bits_of(a.values()), bits_of(oracle.values()), "{at}");
                let n = a.n_rows();
                let rhs = iterate(n, 3, false);
                let x = iterate(n, 4, false);
                for widest in [1, 3, 8] {
                    let p = ragged_partition(n, widest, widest as u64);
                    let sten = AsyncJacobiKernel::with_sweep_and_stencil(
                        &a, &rhs, &p, 2, 1.0, LocalSweep::Jacobi, Some(&d),
                    )
                    .unwrap();
                    let mut csr = AsyncJacobiKernel::new(&a, &rhs, &p, 2, 1.0).unwrap();
                    csr.force_tier(Some(SweepTier::Csr));
                    let (mut s1, mut s2) = (BlockScratch::new(), BlockScratch::new());
                    for b in 0..sten.n_blocks() {
                        let (s, e) = sten.block_range(b);
                        let (mut o1, mut o2) = (vec![0.0; e - s], vec![0.0; e - s]);
                        sten.update_block_with(b, &XView::Plain(&x), &mut o1, &mut s1);
                        csr.update_block_with(b, &XView::Plain(&x), &mut o2, &mut s2);
                        assert_eq!(bits_of(&o1), bits_of(&o2), "{at}, widest {widest}, block {b}");
                    }
                }
            }
        }

        fn bits_of(v: &[f64]) -> Vec<u64> {
            v.iter().map(|x| x.to_bits()).collect()
        }

        /// The five stencil families: 2D 5-point, 3D 7-point, fv 9-point,
        /// a 5x5 2D and the 27-point 3D stencil.
        fn family(which: usize) -> (CsrMatrix, StencilDescriptor) {
            let assembled = |d: StencilDescriptor| (assemble(&d), d);
            match which {
                0 => laplacian_2d_5pt_stencil(8),
                1 => abr_sparse::gen::laplacian_3d_7pt_stencil(4),
                2 => fv_stencil(9, 0.45).unwrap(),
                3 => assembled(wide_2d(8)),
                _ => assembled(point27_3d(4)),
            }
        }

        #[test]
        fn stencil_plan_costs_and_topology_match_the_packed_plan() {
            // what every tier reads besides the operator: the runs-only
            // plan must report the packed plan's counts, neighbours,
            // costs and inverted diagonal, on ragged partitions with
            // 1-row blocks
            for which in 0..5 {
                let (a, d) = family(which);
                for (widest, seed) in [(1, 0), (3, 1), (9, 2), (17, 3), (40, 4)] {
                    let p = ragged_partition(a.n_rows(), widest, seed);
                    let sten = BlockPlan::compile_with_stencil(&a, &p, Some(&d)).unwrap();
                    let packed = BlockPlan::compile(&a, &p).unwrap();
                    let at = format!("family {which}, widest {widest}");
                    assert_eq!(sten.nnz_local(), packed.nnz_local(), "{at}");
                    assert_eq!(sten.nnz_halo(), packed.nnz_halo(), "{at}");
                    assert_eq!(sten.widest_block(), packed.widest_block(), "{at}");
                    for b in 0..p.len() {
                        assert_eq!(sten.neighbors(b), packed.neighbors(b), "{at}, block {b}");
                        assert_eq!(sten.block_nnz(b), packed.block_nnz(b), "{at}, block {b}");
                    }
                    let bits = |plan: &BlockPlan| -> Vec<u64> {
                        plan.inv_diag().iter().map(|v| v.to_bits()).collect()
                    };
                    assert_eq!(bits(&sten), bits(&packed), "{at}");
                }
            }
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(500))]

            #[test]
            fn stencil_exact_check_matches_the_stored_matrix_check(
                which in 0usize..5,
                widest in 1usize..40,
                iterate_kind in 0usize..3,
                zero_rhs in 0usize..2,
                seed in 0u64..1000,
            ) {
                use crate::convergence::{relative_residual_with, stencil_relative_residual_with};
                let (a, d) = family(which);
                let n = a.n_rows();
                let p = ragged_partition(n, widest, seed);
                let plan = BlockPlan::compile_with_stencil(&a, &p, Some(&d)).unwrap();
                // a zero rhs stored as -0.0 keeps the sign of a zero row
                // sum visible in `b - A x`; an iterate of signed zeros
                // makes such sums
                let rhs =
                    if zero_rhs == 1 { vec![-0.0; n] } else { iterate(n, seed ^ 0x5eed, false) };
                let x = match iterate_kind {
                    0 => iterate(n, seed, false),
                    1 => iterate(n, seed, true),
                    _ => iterate(n, seed, false).iter().map(|v| 0.0f64.copysign(*v)).collect(),
                };
                let (mut r1, mut r2) = (Vec::new(), Vec::new());
                let sten = stencil_relative_residual_with(&mut r1, &plan, &rhs, &x);
                let csr = relative_residual_with(&mut r2, &a, &rhs, &x);
                prop_assert!(bits_eq(sten, csr), "family {} residual: {} vs {}", which, sten, csr);
                let mut y = vec![0.0; n];
                stencil_mul(Isa::detect(), &plan, &x, &mut y);
                for (r, (yr, v2)) in y.iter().zip(&r2).enumerate() {
                    let v1 = rhs[r] - yr;
                    prop_assert!(bits_eq(v1, *v2), "family {} row {}: {} vs {}", which, r, v1, v2);
                }
            }
        }

        #[test]
        fn wide_descriptors_verify_and_split_into_chunks() {
            // the assembled wide systems take the stencil tier, and their
            // interior runs hold more taps than one fixed-arity pass
            for d in [wide_2d(8), point27_3d(4)] {
                let a = assemble(&d);
                d.verify(&a).unwrap();
                let p = RowPartition::uniform(a.n_rows(), a.n_rows()).unwrap();
                let plan = BlockPlan::compile_with_stencil(&a, &p, Some(&d)).unwrap();
                let widest = plan.stencil_block(0).unwrap().runs().iter().map(|r| r.taps.len());
                assert!(widest.max().unwrap() > MAX_ARITY);
            }
        }
    }
}
