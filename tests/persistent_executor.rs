//! Acceptance tests for the persistent-worker executor: the threaded
//! solver path must reach the same tolerance as the discrete-event
//! simulator on the paper's model problems, and a run its monitor stopped
//! must report the check that stopped it; the asynchronous convergence
//! monitor must halt the workers strictly before the round budget when
//! the tolerance is loose; and a solve must spawn each worker exactly
//! once and perform no full-vector copies after start beyond the
//! monitor's reused snapshot buffer (watched through the workspace
//! fingerprint, in the style of `tests/block_plan_equivalence.rs`); and
//! a worker body or monitor that unwinds must fail the run, on transient
//! and leased pools alike, without hanging it.

use block_async_relax::core::async_block::AsyncJacobiKernel;
use block_async_relax::core::convergence::{relative_residual, relative_residual_with};
use block_async_relax::core::{
    AsyncBlockSolver, ExecutorKind, LocalSweep, ResidualMonitor, SolveOptions,
};
use block_async_relax::gpu::kernel::AllowAll;
use block_async_relax::gpu::schedule::RoundRobin;
use block_async_relax::gpu::{
    BlockKernel, ConvergenceMonitor, NoMonitor, PersistentExecutor, PersistentOptions,
    PersistentWorkspace, RunOutcome, RunSession, SimOptions, ThreadedOptions, WorkerPool, XView,
};
use std::time::{Duration, Instant};
use block_async_relax::sparse::gen::{fv_stencil, laplacian_2d_5pt, trefethen};
use block_async_relax::sparse::{CsrMatrix, RowPartition};

/// Independent residual check: `||b - Ax||_2 / ||b||_2` computed directly,
/// so the assertion does not trust the solver's own bookkeeping.
fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.mul_vec(x).expect("square");
    let num: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
    let den: f64 = b.iter().map(|bi| bi * bi).sum();
    (num / den).sqrt()
}

/// What a "did not converge" failure needs to name its cause: a stall,
/// a spent budget (`iterations == max_iters`) or the monitor.
fn run_summary(r: &block_async_relax::core::SolveResult) -> String {
    format!(
        "iterations {}, final_residual {:e}, fault report {:?}",
        r.iterations, r.final_residual, r.fault
    )
}

fn solve_both_ways(
    a: &CsrMatrix,
    block: usize,
    tol: f64,
) -> (block_async_relax::core::SolveResult, block_async_relax::core::SolveResult, Vec<f64>) {
    let n = a.n_rows();
    let b = a.mul_vec(&vec![1.0; n]).expect("square");
    let x0 = vec![0.0; n];
    let p = RowPartition::uniform(n, block).expect("partition");
    let opts = SolveOptions {
        max_iters: 20_000,
        tol,
        record_history: false,
        check_every: 10,
    };
    let sim = AsyncBlockSolver {
        executor: ExecutorKind::Sim(SimOptions::default()),
        ..AsyncBlockSolver::async_k(5)
    };
    let thr = AsyncBlockSolver {
        executor: ExecutorKind::Threaded(ThreadedOptions { n_workers: 4, snapshot_rounds: false }),
        ..AsyncBlockSolver::async_k(5)
    };
    let rs = sim.solve(a, &b, &x0, &p, &opts).expect("sim solve");
    let rt = thr.solve(a, &b, &x0, &p, &opts).expect("threaded solve");
    (rs, rt, b)
}

/// The persistent threaded path reaches the same tolerance as the
/// discrete-event oracle on the 100x100 2D Laplacian.
#[test]
fn threaded_matches_sim_tolerance_on_laplacian_100() {
    let a = laplacian_2d_5pt(10); // the 100x100 five-point matrix
    let tol = 1e-8;
    let (rs, rt, b) = solve_both_ways(&a, 10, tol);
    assert!(rs.converged, "sim did not converge: {}", run_summary(&rs));
    assert!(rt.converged, "threaded did not converge: {}", run_summary(&rt));
    assert!(rs.iterations > 0 && rs.iterations < 20_000);
    assert!(rt.iterations > 0 && rt.iterations < 20_000);
    // Both iterates independently satisfy the same tolerance.
    assert!(rel_residual(&a, &b, &rs.x) <= tol, "sim residual above tol");
    assert!(rel_residual(&a, &b, &rt.x) <= tol, "threaded residual above tol");
}

/// Same equivalence on the strongly diagonally dominant `trefethen(400)`
/// matrix, where convergence takes only tens of global iterations — the
/// regime where a sluggish monitor would blow straight past the stop.
#[test]
fn threaded_matches_sim_tolerance_on_trefethen_400() {
    let a = trefethen(400).expect("trefethen");
    let tol = 1e-10;
    let (rs, rt, b) = solve_both_ways(&a, 25, tol);
    assert!(rs.converged, "sim did not converge: {}", run_summary(&rs));
    assert!(rt.converged, "threaded did not converge: {}", run_summary(&rt));
    assert!(rel_residual(&a, &b, &rs.x) <= tol, "sim residual above tol");
    assert!(rel_residual(&a, &b, &rt.x) <= tol, "threaded residual above tol");
}

/// A threaded run its monitor stopped returns the snapshot that check
/// measured: it is converged, and its final residual, its stopping check
/// and the residual of the returned iterate agree bit for bit. A run that
/// drains its budget reports the residual of the iterate it returns.
#[test]
fn a_stopped_threaded_solve_reports_the_check_that_stopped_it() {
    let systems =
        [(laplacian_2d_5pt(10), 10, 1e-8), (trefethen(400).expect("trefethen"), 25, 1e-10)];
    for (a, block, tol) in &systems {
        let n = a.n_rows();
        let b = a.mul_vec(&vec![1.0; n]).expect("square");
        let x0 = vec![0.0; n];
        let p = RowPartition::uniform(n, *block).expect("partition");
        let kernel = AsyncJacobiKernel::new(a, &b, &p, 5, 1.0).expect("diag dominant");
        let solve = |workers: usize, opts: &SolveOptions| {
            let solver = AsyncBlockSolver {
                executor: ExecutorKind::Threaded(ThreadedOptions {
                    n_workers: workers,
                    snapshot_rounds: false,
                }),
                ..AsyncBlockSolver::async_k(5)
            };
            solver
                .solve_session(a, &b, &x0, &kernel, opts, &AllowAll, None, RunSession::default())
                .expect("solve")
        };
        let to_tol =
            SolveOptions { max_iters: 20_000, tol: *tol, record_history: false, check_every: 10 };
        for workers in [1, 2, 4] {
            let mut stopped = 0;
            for _ in 0..7 {
                let fs = solve(workers, &to_tol);
                let r = &fs.result;
                let exact = relative_residual(a, &b, &r.x).to_bits();
                assert_eq!(r.final_residual.to_bits(), exact, "{}", run_summary(r));
                if fs.report.outcome == RunOutcome::Stopped {
                    stopped += 1;
                    let check = fs.checks.last().expect("a stop is a check").1;
                    assert!(r.converged, "{workers} workers: {}", run_summary(r));
                    assert_eq!(check.to_bits(), exact, "{workers} workers: {}", run_summary(r));
                }
            }
            assert!(stopped > 0, "n = {n}, {workers} workers: no run stopped");
        }
        let unreachable = SolveOptions { tol: 1e-30, max_iters: 200, ..to_tol };
        let fs = solve(2, &unreachable);
        assert_eq!(fs.report.outcome, RunOutcome::Completed);
        assert!(!fs.result.converged);
        assert_eq!(
            fs.result.final_residual.to_bits(),
            relative_residual(a, &b, &fs.result.x).to_bits()
        );
    }
}

/// The same for a stencil solve, whose monitor and final measure compute
/// `b − A x` from the stencil runs instead of the stored matrix: a stopped
/// run's final residual and stopping check equal the stored-matrix
/// residual of the returned iterate bit for bit, with 1 and 2 workers and
/// an uneven last block.
#[test]
fn a_stopped_threaded_stencil_solve_reports_the_stored_matrix_residual() {
    let (a, d) = fv_stencil(40, 1.0).expect("constant-coefficient fv");
    let n = a.n_rows();
    let b = a.mul_vec(&(0..n).map(|i| (i % 7) as f64 - 2.5).collect::<Vec<_>>()).expect("square");
    let x0 = vec![0.0; n];
    let p = RowPartition::uniform(n, 96).expect("partition");
    let kernel =
        AsyncJacobiKernel::with_sweep_and_stencil(&a, &b, &p, 5, 1.0, LocalSweep::Jacobi, Some(&d))
            .expect("verified stencil");
    assert!(kernel.plan().descriptor().is_some());
    let opts =
        SolveOptions { max_iters: 20_000, tol: 1e-9, record_history: false, check_every: 10 };
    let mut buf = Vec::new();
    for workers in [1, 2] {
        let solver = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions {
                n_workers: workers,
                snapshot_rounds: false,
            }),
            ..AsyncBlockSolver::async_k(5)
        };
        let mut stopped = 0;
        for _ in 0..5 {
            let fs = solver
                .solve_session(&a, &b, &x0, &kernel, &opts, &AllowAll, None, RunSession::default())
                .expect("solve");
            let r = &fs.result;
            let exact = relative_residual_with(&mut buf, &a, &b, &r.x).to_bits();
            assert_eq!(r.final_residual.to_bits(), exact, "{}", run_summary(r));
            if fs.report.outcome == RunOutcome::Stopped {
                stopped += 1;
                assert!(r.converged, "{workers} workers: {}", run_summary(r));
                let check = fs.checks.last().expect("a stop is a check").1;
                assert_eq!(check.to_bits(), exact, "{workers} workers: {}", run_summary(r));
            }
        }
        assert!(stopped > 0, "{workers} workers: no run stopped");
    }
}

/// With a loose tolerance and a huge round budget, the monitor's stop
/// flag must halt the workers long before the budget: total committed
/// updates stay strictly below `rounds * n_blocks`.
#[test]
fn stop_flag_halts_workers_before_the_round_budget() {
    let a = laplacian_2d_5pt(8); // n = 64
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let p = RowPartition::uniform(n, 8).expect("partition");
    let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).expect("diag dominant");
    let rounds = 5_000;
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: 4,
        ..PersistentOptions::default()
    });
    let mut monitor = ResidualMonitor::new(&a, &rhs, 1e-2, 10);
    let mut ws = PersistentWorkspace::new();
    let mut x = vec![0.0; n];
    let (trace, report) = exec.run_session(
        &kernel,
        &mut x,
        rounds,
        &mut RoundRobin,
        &AllowAll,
        &mut monitor,
        &mut ws,
        RunSession::default(),
    );
    assert!(report.stopped_at.is_some(), "monitor never fired");
    assert!(report.checks >= 1);
    let budget = rounds * kernel.n_blocks();
    assert!(
        trace.total_updates() < budget,
        "stop flag did not halt early: {} updates of a {} budget",
        trace.total_updates(),
        budget
    );
    assert!(rel_residual(&a, &rhs, &x) <= 1e-2, "stopped before the tolerance was met");
}

/// Satellite regression for the dead-`max_skew` bug: the persistent path
/// must measure real skew (more than one block and worker guarantees a
/// non-zero spread), and its progress-floor lag gate must keep it within
/// `max_round_lag + 1`.
#[test]
fn persistent_run_reports_bounded_nonzero_skew() {
    let a = laplacian_2d_5pt(8); // n = 64
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let p = RowPartition::uniform(n, 8).expect("partition");
    let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).expect("diag dominant");
    for lag in [1usize, 2] {
        let exec = PersistentExecutor::new(PersistentOptions {
            n_workers: 4,
            max_round_lag: lag,
            ..PersistentOptions::default()
        });
        let mut ws = PersistentWorkspace::new();
        let mut x = vec![0.0; n];
        let (trace, _) = exec.run_session(
            &kernel,
            &mut x,
            50,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession::default(),
        );
        assert!(trace.max_skew > 0, "a multi-worker run cannot report zero skew");
        assert!(
            trace.max_skew <= lag + 1,
            "skew {} exceeds max_round_lag bound {}",
            trace.max_skew,
            lag + 1
        );
    }
}

/// A kernel that records which OS thread ran each block update, to prove
/// the executor spawns each worker exactly once (no per-chunk respawn).
struct ThreadProbe {
    n: usize,
    block_size: usize,
    seen_threads: parking_lot::Mutex<std::collections::HashSet<std::thread::ThreadId>>,
}

impl BlockKernel for ThreadProbe {
    fn n(&self) -> usize {
        self.n
    }
    fn n_blocks(&self) -> usize {
        self.n.div_ceil(self.block_size)
    }
    fn block_range(&self, b: usize) -> (usize, usize) {
        let s = b * self.block_size;
        (s, (s + self.block_size).min(self.n))
    }
    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        self.seen_threads.lock().insert(std::thread::current().id());
        let (s, e) = self.block_range(b);
        for (o, i) in out.iter_mut().zip(s..e) {
            *o = 0.5 * x.get(i);
        }
    }
}

/// The spawn-count and zero-copy acceptance test: across repeated solves
/// on one workspace, every update runs on one of `n_workers` threads
/// started once per run (never the calling thread, never a respawn), and
/// the monitor's snapshot buffer keeps the same pointer and capacity —
/// the only full-vector staging the run is allowed.
#[test]
fn workers_spawn_once_and_the_snapshot_buffer_is_reused() {
    let probe = ThreadProbe {
        n: 96,
        block_size: 8,
        seen_threads: parking_lot::Mutex::new(std::collections::HashSet::new()),
    };
    let workers = 3;
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: workers,
        ..PersistentOptions::default()
    });
    let mut ws = PersistentWorkspace::new();
    let mut x = vec![1.0; 96];
    let (trace, report) = exec.run_session(
        &probe,
        &mut x,
        30,
        &mut RoundRobin,
        &AllowAll,
        &mut NoMonitor,
        &mut ws,
        RunSession::default(),
    );
    assert_eq!(trace.total_updates(), 30 * probe.n_blocks());
    assert_eq!(report.workers_spawned, workers, "spawn count must equal the worker count");
    {
        let seen = probe.seen_threads.lock();
        assert!(
            seen.len() <= workers,
            "updates ran on {} distinct threads with only {} workers",
            seen.len(),
            workers
        );
        assert!(
            !seen.contains(&std::thread::current().id()),
            "the monitor thread must never execute block updates"
        );
    }

    // Zero copies / zero spawns in steady state: repeated runs on the
    // same workspace keep the snapshot buffer's pointer and capacity and
    // never re-materialise the ticket lists.
    let fp = ws.snapshot_fingerprint();
    let tickets = ws.materialised_tickets();
    for _ in 0..3 {
        probe.seen_threads.lock().clear();
        let (_, report) = exec.run_session(
            &probe,
            &mut x,
            30,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession::default(),
        );
        assert_eq!(report.workers_spawned, workers);
        assert!(probe.seen_threads.lock().len() <= workers);
        assert_eq!(ws.snapshot_fingerprint(), fp, "snapshot buffer was reallocated");
        assert_eq!(ws.materialised_tickets(), tickets, "ticket lists were rebuilt");
    }
}

/// A threaded fixed-budget solve runs exactly its budget and records no
/// history: per-round history is a sim-executor feature, and the
/// persistent executor never stops a fixed-budget run early.
#[test]
fn threaded_fixed_iterations_run_exactly_and_record_no_history() {
    let a = laplacian_2d_5pt(8); // n = 64
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let p = RowPartition::uniform(n, 8).expect("partition");
    let solver = AsyncBlockSolver {
        executor: ExecutorKind::Threaded(ThreadedOptions { n_workers: 3, snapshot_rounds: false }),
        ..AsyncBlockSolver::async_k(3)
    };
    let opts = SolveOptions::fixed_iterations(37);
    assert!(opts.record_history, "the fixed-budget preset asks for history");

    let r = solver.solve(&a, &rhs, &vec![0.0; n], &p, &opts).expect("solve");
    assert_eq!(r.iterations, 37);
    assert!(r.history.is_empty(), "a threaded solve records no history");

    let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 3, 1.0).expect("diag dominant");
    let fs = solver
        .solve_session(
            &a,
            &rhs,
            &vec![0.0; n],
            &kernel,
            &opts,
            &AllowAll,
            None,
            RunSession::default(),
        )
        .expect("solve");
    assert_eq!(fs.report.outcome, RunOutcome::Completed);
    assert_eq!(fs.trace.updates_per_block, vec![37; kernel.n_blocks()]);
    assert_eq!(fs.result.iterations, 37);
    assert!(fs.result.history.is_empty());
}

/// A kernel whose `block_range` panics: every worker unwinds on its first
/// ticket, outside the per-sweep `catch_unwind` (an executor contract
/// violation, not a planned fault). Each worker's first ticket comes from
/// its own shard, so no worker is left waiting on another's block flag.
struct PanicsOutsideSweep;

impl BlockKernel for PanicsOutsideSweep {
    fn n(&self) -> usize {
        16
    }
    fn n_blocks(&self) -> usize {
        4
    }
    fn block_range(&self, _b: usize) -> (usize, usize) {
        panic!("test kernel: block_range unwinds the worker body")
    }
    fn update_block(&self, _b: usize, _x: &XView<'_>, _out: &mut [f64]) {}
}

fn probe(n: usize) -> ThreadProbe {
    ThreadProbe {
        n,
        block_size: 4,
        seen_threads: parking_lot::Mutex::new(std::collections::HashSet::new()),
    }
}

/// Two workers with a short stall budget: a run whose workers all unwound
/// ends on the stall supervision instead of the default half second.
fn two_workers() -> PersistentExecutor {
    PersistentExecutor::new(PersistentOptions {
        n_workers: 2,
        stall_timeout: Duration::from_millis(50),
        ..PersistentOptions::default()
    })
}

/// Runs `f`, which must panic, with the default hook silenced (races
/// with other tests' hooks are cosmetic only); returns the message.
fn panic_message(f: impl FnOnce()) -> String {
    let hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    std::panic::set_hook(hook);
    let payload = caught.expect_err("the run must panic");
    match payload.downcast_ref::<String>() {
        Some(s) => s.clone(),
        None => payload.downcast_ref::<&str>().map(|s| s.to_string()).unwrap_or_default(),
    }
}

const ESCAPED: &str = "outside the per-sweep catch_unwind";

#[test]
fn escaped_worker_panic_fails_a_transient_run() {
    let mut x = vec![1.0; 16];
    let msg = panic_message(|| {
        two_workers().run_session(
            &PanicsOutsideSweep,
            &mut x,
            100,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut PersistentWorkspace::new(),
            RunSession::default(),
        );
    });
    assert!(msg.contains(ESCAPED), "panic message: {msg}");
}

#[test]
fn escaped_worker_panic_fails_a_leased_run_and_the_pool_recovers() {
    let pool = WorkerPool::new(2);
    let mut ws = PersistentWorkspace::new();
    let mut x = vec![1.0; 16];
    let msg = panic_message(|| {
        let lease = pool.try_lease(2).expect("idle pool");
        two_workers().run_session(
            &PanicsOutsideSweep,
            &mut x,
            100,
            &mut RoundRobin,
            &AllowAll,
            &mut NoMonitor,
            &mut ws,
            RunSession { pool: Some((&pool, lease)), ..RunSession::default() },
        );
    });
    assert!(msg.contains(ESCAPED), "panic message: {msg}");
    // The pool survived: a full-width lease runs a healthy solve to
    // completion on the same threads and workspace.
    let lease = pool.try_lease(2).expect("both workers back after the failed run");
    let healthy = probe(16);
    let (trace, report) = two_workers().run_session(
        &healthy,
        &mut x,
        60,
        &mut RoundRobin,
        &AllowAll,
        &mut NoMonitor,
        &mut ws,
        RunSession { pool: Some((&pool, lease)), ..RunSession::default() },
    );
    assert_eq!(report.outcome, RunOutcome::Completed);
    assert_eq!(trace.updates_per_block, vec![60; 4]);
    assert_eq!(pool.shutdown(), 2);
}

#[test]
fn monitor_panic_propagates_without_hanging() {
    struct Explodes;
    impl ConvergenceMonitor for Explodes {
        fn period(&self) -> usize {
            1
        }
        fn check(&mut self, _gi: usize, _x: &[f64]) -> bool {
            panic!("test monitor: check unwinds the calling thread")
        }
    }
    let kernel = probe(48);
    let mut x = vec![1.0; 48];
    let started = Instant::now();
    let msg = panic_message(|| {
        two_workers().run_session(
            &kernel,
            &mut x,
            usize::MAX / (12 * 4), // never drains on its own
            &mut RoundRobin,
            &AllowAll,
            &mut Explodes,
            &mut PersistentWorkspace::new(),
            RunSession::default(),
        );
    });
    assert!(msg.contains("check unwinds"), "panic message: {msg}");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "the stop backstop must free the workers for the join"
    );
}
