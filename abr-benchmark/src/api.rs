//! The adapter: the only file of the benchmark that calls into the
//! workspace crates (`abr_core`, `abr_gpu`, `abr_sparse`, `abr_service`).
//!
//! Every other module reaches the program through the names defined
//! here, so when the program's solve entry points change, this file is
//! the one that changes with them. The untraced paths call the public
//! entry point a user calls; the traced paths call the same work through
//! the public functions of each layer, so the benchmark can time each
//! call from its own code.

use crate::trace::Tracer;
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::convergence::relative_residual_with;
use abr_core::{
    AsyncBlockSolver, ExecutorKind, LeasedRun, LocalSweep, ResidualMonitor, ScheduleKind,
    SolveOptions,
};
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    BlockKernel, BlockScratch, ConvergenceMonitor, PersistentExecutor, PersistentOptions,
    PersistentReport, PersistentWorkspace, RandomPermutation, ResidualSlots, SimOptions,
    ThreadedOptions, UpdateTrace, WorkerPool, XView,
};
use abr_service::wire::{read_frame, write_frame};
use abr_service::Request;
use abr_sparse::BlockPlan;
use std::hint::black_box;
use std::io;
use std::net::TcpStream;
use std::path::Path;
use std::time::{Duration, Instant};

pub use abr_core::SolveResult;
pub use abr_service::json::{obj, Value as Json};
pub use abr_service::{Daemon, MatrixSpec, Mode, Response, SolveSpec};
pub use abr_sparse::gen::TestMatrix;
pub use abr_sparse::{CsrMatrix, RowPartition, StencilDescriptor, SweepTier};

// ---- generators and ingest ------------------------------------------------

/// The screened 9-point finite-volume operator on an `m x m` grid and its
/// verified stencil descriptor.
pub fn fv_system(m: usize) -> Result<(CsrMatrix, StencilDescriptor), String> {
    abr_sparse::gen::fv_stencil(m, 1.0).map_err(|e| e.to_string())
}

/// One Table 1 substitute, at full or reduced size.
pub fn table1_matrix(which: TestMatrix, small: bool) -> Result<CsrMatrix, String> {
    let built = if small {
        which.build_small()
    } else {
        which.build()
    };
    built.map_err(|e| format!("{}: {e}", which.name()))
}

/// The 2D 5-point Laplacian the daemon builds for a `lap2d` request.
pub fn lap2d(g: usize) -> CsrMatrix {
    abr_sparse::gen::laplacian_2d_5pt(g)
}

/// A seeded, strictly diagonally dominant random system.
pub fn random_system(n: usize, off_per_row: usize, seed: u64) -> CsrMatrix {
    abr_sparse::gen::random_diag_dominant(n, off_per_row, 1.5, seed)
}

/// `A x`.
pub fn mul_vec(a: &CsrMatrix, x: &[f64]) -> Result<Vec<f64>, String> {
    a.mul_vec(x).map_err(|e| e.to_string())
}

/// An even row partition (`block` clamped to the system).
pub fn partition(n: usize, block: usize) -> Result<RowPartition, String> {
    RowPartition::uniform(n, block.clamp(1, n.max(1))).map_err(|e| e.to_string())
}

/// Writes `a` as a MatrixMarket file.
pub fn write_mtx(a: &CsrMatrix, path: &Path) -> Result<(), String> {
    let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut w = io::BufWriter::new(file);
    abr_sparse::io::write_matrix_market(a, &mut w).map_err(|e| e.to_string())?;
    io::Write::flush(&mut w).map_err(|e| e.to_string())
}

/// Reads a MatrixMarket file: the `sparse.io` layer's entry point.
pub fn ingest(path: &Path) -> Result<CsrMatrix, String> {
    abr_sparse::io::read_matrix_market_path(path).map_err(|e| e.to_string())
}

/// `‖b − A x‖ / ‖b‖`, the exact residual the solvers stop on.
pub fn relative_residual(buf: &mut Vec<f64>, a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    relative_residual_with(buf, a, b, x)
}

// ---- library solves ---------------------------------------------------------

/// async-(k) on `workers` persistent real-thread workers to `tol`: the
/// configuration of both library workloads.
#[derive(Debug, Clone)]
pub struct LibSolve {
    /// Local sweeps per block update.
    pub local_iters: usize,
    /// Persistent worker threads.
    pub workers: usize,
    /// Relative-residual tolerance.
    pub tol: f64,
    /// Global-iteration budget.
    pub max_iters: usize,
    /// Block-schedule seed.
    pub seed: u64,
}

/// What a persistent run did, from its `PersistentReport` and
/// `UpdateTrace`.
#[derive(Debug, Clone, Default)]
pub struct RunStats {
    /// Global-iteration watermark at the end of the run.
    pub global_iterations: usize,
    /// Wall seconds of the executor run.
    pub elapsed_s: f64,
    /// Committed block updates.
    pub updates: usize,
    /// Updates a worker ran from another worker's shard.
    pub stolen: usize,
    /// Largest realised progress skew between blocks, in rounds.
    pub max_skew: usize,
    /// The skew the executor promises: `max_round_lag + 1`.
    pub skew_bound: usize,
    /// Monitor polls that ran the exact residual check.
    pub exact_checks: usize,
    /// Monitor polls answered by the fused estimate alone.
    pub fused_polls: usize,
}

impl RunStats {
    fn new(trace: &UpdateTrace, report: &PersistentReport, opts: &PersistentOptions) -> RunStats {
        RunStats {
            global_iterations: report.global_iterations,
            elapsed_s: trace.elapsed,
            updates: trace.total_updates(),
            stolen: report.stolen_updates,
            max_skew: trace.max_skew,
            skew_bound: opts.max_round_lag + 1,
            exact_checks: report.checks,
            fused_polls: report.fused_checks,
        }
    }
}

/// Times every exact check the executor asks the library's monitor for.
struct TimedMonitor<'a, 't> {
    inner: ResidualMonitor<'a>,
    tracer: &'t mut Tracer,
    op: u64,
}

impl ConvergenceMonitor for TimedMonitor<'_, '_> {
    fn period(&self) -> usize {
        self.inner.period()
    }

    fn check(&mut self, global_iteration: usize, x: &[f64]) -> bool {
        self.tracer.open("core.convergence.exact_check", self.op);
        let stop = self.inner.check(global_iteration, x);
        self.tracer.close();
        stop
    }

    fn fused_check(&mut self, global_iteration: usize, estimate_sq: f64) -> bool {
        self.inner.fused_check(global_iteration, estimate_sq)
    }

    fn urgent(&self) -> bool {
        self.inner.urgent()
    }
}

impl LibSolve {
    fn solver(&self) -> AsyncBlockSolver {
        AsyncBlockSolver {
            local_iters: self.local_iters,
            schedule: ScheduleKind::Random { seed: self.seed },
            executor: ExecutorKind::Threaded(ThreadedOptions {
                n_workers: self.workers,
                snapshot_rounds: false,
            }),
            damping: 1.0,
            local_sweep: LocalSweep::Jacobi,
        }
    }

    fn options(&self) -> SolveOptions {
        SolveOptions::to_tolerance(self.tol, self.max_iters)
    }

    /// The untraced solve from `x0` through the library's public entry
    /// point: `solve_with_stencil` with a descriptor, `solve` without.
    pub fn solve(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x0: &[f64],
        p: &RowPartition,
        stencil: Option<&StencilDescriptor>,
    ) -> Result<SolveResult, String> {
        let solver = self.solver();
        let opts = self.options();
        match stencil {
            Some(d) => solver.solve_with_stencil(a, b, x0, p, d, &opts),
            None => solver.solve(a, b, x0, p, &opts),
        }
        .map_err(|e| e.to_string())
    }

    /// The same solve as [`solve`](Self::solve), made of the calls that
    /// entry point makes — plan compile, persistent run, final residual —
    /// each under its own span, with every exact monitor check timed.
    #[allow(clippy::too_many_arguments)] // the solve's arguments plus the tracer
    pub fn solve_traced(
        &self,
        a: &CsrMatrix,
        b: &[f64],
        x0: &[f64],
        p: &RowPartition,
        stencil: Option<&StencilDescriptor>,
        tracer: &mut Tracer,
        op: u64,
    ) -> Result<(SolveResult, RunStats), String> {
        tracer.open("sparse.block_plan.compile", op);
        let kernel = AsyncJacobiKernel::with_sweep_and_stencil(
            a,
            b,
            p,
            self.local_iters,
            1.0,
            LocalSweep::Jacobi,
            stencil,
        );
        tracer.close();
        let kernel = kernel.map_err(|e| e.to_string())?;

        let opts = PersistentOptions {
            n_workers: self.workers,
            ..PersistentOptions::default()
        };
        let exec = PersistentExecutor::new(opts.clone());
        let mut schedule = RandomPermutation::new(self.seed);
        let mut ws = PersistentWorkspace::new();
        let mut x = x0.to_vec();
        tracer.open("gpu.persistent.run", op);
        let mut monitor = TimedMonitor {
            inner: ResidualMonitor::new(a, b, self.tol, self.options().check_every),
            tracer: &mut *tracer,
            op,
        };
        let (trace, report) = exec.run_sharded(
            &kernel,
            &mut x,
            self.max_iters,
            &mut schedule,
            &AllowAll,
            &mut monitor,
            &mut ws,
            None,
            None,
        );
        let mut rbuf = monitor.inner.into_scratch();
        tracer.close();

        tracer.open("core.convergence.exact_check", op);
        let final_residual = relative_residual_with(&mut rbuf, a, b, &x);
        tracer.close();
        let result = SolveResult {
            x,
            iterations: report.stopped_at.unwrap_or(self.max_iters),
            converged: final_residual <= self.tol,
            final_residual,
            history: Vec::new(),
            fault: None,
        };
        Ok((result, RunStats::new(&trace, &report, &opts)))
    }
}

// ---- layer probes -------------------------------------------------------------

/// One single-thread round of `update_block_with` over every block, and
/// the memory traffic that round is computed to move.
#[derive(Debug, Clone, Default)]
pub struct KernelProbe {
    /// Median wall time of one round, nanoseconds.
    pub round_ns: f64,
    /// Row sweeps in one round: `n * k`.
    pub row_sweeps: f64,
    /// Bytes one round is computed to move (not measured).
    pub round_bytes: f64,
    /// Rows per sweep tier: csr, ell, ell_simd, stencil.
    pub tier_rows: [f64; 4],
}

/// Index of a tier in [`KernelProbe::tier_rows`].
fn tier_index(t: SweepTier) -> usize {
    match t {
        SweepTier::Csr => 0,
        SweepTier::Ell => 1,
        SweepTier::EllSimd => 2,
        SweepTier::Stencil => 3,
    }
}

/// Times rounds of the async-(k) kernel against a fixed iterate on one
/// thread, for at least `budget`, and returns the median round.
pub fn probe_kernel(
    a: &CsrMatrix,
    b: &[f64],
    p: &RowPartition,
    k: usize,
    stencil: Option<&StencilDescriptor>,
    budget: Duration,
) -> Result<KernelProbe, String> {
    let kernel =
        AsyncJacobiKernel::with_sweep_and_stencil(a, b, p, k, 1.0, LocalSweep::Jacobi, stencil)
            .map_err(|e| e.to_string())?;
    let n = a.n_rows();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin() + 0.1).collect();
    let widest = kernel.plan().widest_block();
    let mut out = vec![0.0; widest];
    let mut scratch = BlockScratch::new();
    let mut round = || {
        let t0 = Instant::now();
        for blk in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(blk);
            kernel.update_block_with(
                blk,
                &XView::Plain(black_box(&x)),
                &mut out[..e - s],
                &mut scratch,
            );
        }
        black_box(&out);
        t0.elapsed().as_nanos() as f64
    };
    round();
    let started = Instant::now();
    let mut rounds = Vec::new();
    while rounds.len() < 3 || started.elapsed() < budget {
        rounds.push(round());
    }
    let mut probe = KernelProbe {
        round_ns: crate::stats::median(&rounds),
        row_sweeps: (n * k) as f64,
        ..KernelProbe::default()
    };
    probe.round_bytes = round_bytes(&kernel, k, &mut probe.tier_rows);
    Ok(probe)
}

/// The roofline traffic model of the block-plan bench, per block at its
/// resolved tier. Per round every tier pays the iterate snapshot
/// (16 B/row), the halo freeze (24 B per halo entry, plus 16 B/row for
/// the rhs read and frozen write) and the copy-out (16 B/row); each of
/// the `k` sweeps adds 24 B/row (frozen, inverted diagonal, next write)
/// plus the tier's entries: 20 B per stored local entry for CSR and ELL
/// (ELL padding included), 8 B per stencil tap.
fn round_bytes(kernel: &AsyncJacobiKernel<'_>, k: usize, tier_rows: &mut [f64; 4]) -> f64 {
    let plan = kernel.plan();
    let n = plan.n() as f64;
    let fixed = n * 48.0 + plan.nnz_halo() as f64 * 24.0;
    let mut entries = 0.0;
    for blk in 0..plan.n_blocks() {
        let (s, e) = plan.block_rows(blk);
        let tier = kernel.resolved_tier(blk);
        tier_rows[tier_index(tier)] += (e - s) as f64;
        entries += match tier {
            SweepTier::Csr => {
                (s..e).map(|r| plan.local_row(r).0.len()).sum::<usize>() as f64 * 20.0
            }
            SweepTier::Ell | SweepTier::EllSimd => plan
                .ell(blk)
                .map_or(0.0, |ell| (ell.rows() * ell.width()) as f64 * 20.0),
            SweepTier::Stencil => plan
                .stencil_block(blk)
                .map_or(0.0, |sb| sb.nnz_local_offdiag() as f64 * 8.0),
        };
    }
    fixed + k as f64 * (entries + n * 24.0)
}

/// Median nanoseconds of one fused-residual reduce over `n_blocks`
/// published slots: the monitor's O(n_blocks) poll.
pub fn probe_fused_reduce(n_blocks: usize) -> f64 {
    let mut slots = ResidualSlots::new();
    slots.reset(n_blocks);
    for blk in 0..n_blocks {
        slots.publish(blk, 1e-4 * (blk + 1) as f64);
    }
    let samples: Vec<f64> = (0..201)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..64 {
                black_box(slots.reduce());
            }
            t0.elapsed().as_nanos() as f64 / 64.0
        })
        .collect();
    crate::stats::median(&samples)
}

// ---- the service --------------------------------------------------------------

/// Starts an in-process daemon on an ephemeral localhost port.
pub fn start_daemon(workers: usize, max_inflight: usize) -> io::Result<Daemon> {
    Daemon::start(abr_service::DaemonConfig {
        addr: "127.0.0.1:0".into(),
        workers,
        max_inflight,
        ..abr_service::DaemonConfig::default()
    })
}

/// Drains the daemon and joins every thread it started.
pub fn stop_daemon(daemon: Daemon) {
    daemon.shutdown(Duration::from_secs(5));
}

/// Renders one solve request frame.
pub fn render_request(spec: &SolveSpec) -> String {
    Request::Solve(spec.clone()).render()
}

/// Parses a reply frame.
pub fn parse_response(payload: &str) -> Result<Response, String> {
    Response::parse(payload)
}

/// One request/reply exchange on an open connection.
pub fn roundtrip(stream: &mut TcpStream, payload: &str) -> io::Result<String> {
    write_frame(stream, payload)?;
    read_frame(stream)?.ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "daemon closed"))
}

/// Sizes of one replayed request, for the per-layer rate bases.
#[derive(Debug, Clone, Default)]
pub struct Replayed {
    /// Request frame bytes parsed.
    pub frame_bytes: usize,
    /// Matrix nonzeros fingerprinted and compiled.
    pub nnz: usize,
    /// Vector elements fingerprinted (rhs and initial guess).
    pub vec_elems: usize,
    /// The pooled solve's executor statistics; `None` for a `sim` request.
    pub run: Option<RunStats>,
    /// Global iterations the solve reported.
    pub iterations: usize,
}

/// A long-lived pool for [`replay_request`], like the daemon's.
pub fn worker_pool(workers: usize) -> WorkerPool {
    WorkerPool::new(workers)
}

/// Joins the pool's threads.
pub fn stop_pool(pool: WorkerPool) {
    pool.shutdown();
}

/// Replays one request frame through the public calls the daemon makes
/// for a cache miss — `Request::parse`, `CsrMatrix::from_raw`, the
/// fingerprints, the solve (`solve_leased` on a pooled lease, or the
/// simulated `solve` for a `sim` request), `Response::render` — each
/// under its own span. The plan compile the solve does internally is
/// timed once more on its own, so compile cost has a span.
pub fn replay_request(
    payload: &str,
    pool: &WorkerPool,
    tracer: &mut Tracer,
    op: u64,
) -> Result<Replayed, String> {
    tracer.open("service.wire.request_parse", op);
    let parsed = Request::parse(payload);
    tracer.close();
    let Request::Solve(spec) = parsed? else {
        return Err("not a solve request".into());
    };

    tracer.open("sparse.csr.from_raw", op);
    let a = match &spec.matrix {
        MatrixSpec::Lap2d { g } => Ok(lap2d(*g)),
        MatrixSpec::Csr {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
        } => CsrMatrix::from_raw(
            *n_rows,
            *n_cols,
            row_ptr.clone(),
            col_idx.clone(),
            values.clone(),
        )
        .map_err(|e| e.to_string()),
    };
    tracer.close();
    let a = a?;
    let n = a.n_rows();
    let rhs = match &spec.rhs {
        Some(r) => r.clone(),
        None => mul_vec(&a, &vec![1.0; n])?,
    };
    let x0 = vec![0.0; n];

    tracer.open("core.fingerprint.matrix", op);
    black_box(abr_core::fingerprint_matrix(&a));
    tracer.close();
    tracer.open("core.fingerprint.vec", op);
    black_box(abr_core::fingerprint_vec(&rhs) ^ abr_core::fingerprint_vec(&x0));
    tracer.close();

    let p = partition(n, spec.block)?;
    tracer.open("sparse.block_plan.compile", op);
    let plan = BlockPlan::compile(&a, &p);
    tracer.close();
    black_box(plan.map_err(|e| e.to_string())?);

    // The solver the daemon builds for every request.
    let solver = AsyncBlockSolver {
        local_iters: spec.local_iters.max(1),
        schedule: ScheduleKind::Recurring { seed: spec.seed },
        executor: ExecutorKind::Sim(SimOptions {
            seed: spec.seed ^ 0x9e37_79b9_7f4a_7c15,
            ..SimOptions::default()
        }),
        damping: 1.0,
        local_sweep: LocalSweep::Jacobi,
    };
    let opts = SolveOptions::to_tolerance(spec.tol, spec.max_iters.max(1));
    let (result, run) = match spec.mode {
        Mode::Sim => {
            tracer.open("core.async_block.solve", op);
            let solved = solver.solve(&a, &rhs, &x0, &p, &opts);
            tracer.close();
            (solved.map_err(|e| e.to_string())?, None)
        }
        Mode::Pooled => {
            let workers = spec.workers.clamp(1, pool.n_workers());
            let lease = loop {
                if let Some(l) = pool.lease_timeout(workers, Duration::from_millis(100)) {
                    break l;
                }
            };
            let exec_opts = PersistentOptions {
                n_workers: workers,
                ..PersistentOptions::default()
            };
            tracer.open("core.async_block.solve_leased", op);
            let solved = solver.solve_leased(
                &a,
                &rhs,
                &x0,
                &p,
                &opts,
                LeasedRun {
                    pool,
                    lease,
                    cancel: None,
                    faults: None,
                    exec_opts: exec_opts.clone(),
                },
            );
            tracer.close();
            let solved = solved.map_err(|e| e.to_string())?;
            let run = RunStats::new(&solved.trace, &solved.report, &exec_opts);
            (solved.result, Some(run))
        }
    };
    let iterations = result.iterations;
    // The monitor inside the solve is not reachable from here; price one
    // exact check on the same system instead.
    let mut rbuf = Vec::new();
    tracer.open("core.convergence.exact_check", op);
    black_box(relative_residual_with(&mut rbuf, &a, &rhs, &result.x));
    tracer.close();

    tracer.open("service.wire.response_render", op);
    let reply = Response::Done {
        id: spec.id,
        x: result.x,
        iterations,
        converged: result.converged,
        final_residual: result.final_residual,
        cached: false,
        coalesced: false,
        chaos: false,
    }
    .render();
    tracer.close();
    black_box(reply);

    tracer.open("service.wire.request_render", op);
    black_box(render_request(&spec));
    tracer.close();

    Ok(Replayed {
        frame_bytes: payload.len(),
        nnz: a.nnz(),
        vec_elems: 2 * n,
        run,
        iterations,
    })
}
