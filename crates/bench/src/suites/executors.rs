//! Executor throughput: the persistent-worker fabric, and the
//! discrete-event simulator against the block updates it replays.
//!
//! The headline case is **solve-to-tolerance** with the default
//! `check_every = 10` on a deliberately small system (n = 256, 16
//! blocks), so dispatch overhead dominates per-round compute — the regime
//! the paper targets, where kernel-launch/host-sync cost is what
//! block-asynchronous execution amortises away. The persistent fabric
//! starts its workers once per solve and checks convergence concurrently;
//! it may run extra global iterations past the crossing point before the
//! monitor lands its check — the paper's async tradeoff: more iterations,
//! less wall time.
//!
//! The `executors_serve_repeat` group prices the simulator's own
//! overhead on the `abr-serve` daemon's default `sim` request: one seeded
//! sim solve to tolerance, against the kernel-only loop that runs the
//! same block updates for the same rounds in the schedule's block order
//! with nothing simulated around them. The two arms take their samples in
//! turn, so a drift in the host's speed reaches both.
//!
//! The `executors_fv_stencil` group prices the persistent executor's own
//! overhead the same way, on the `solve_fv1m` shape (the 512² FV stencil,
//! 256 blocks, async-(5) to 1e-8): a 1-worker `solve_session` of a
//! compiled kernel, against the kernel-only loop that runs its block
//! updates for the same rounds over a plain vector, in the schedule's
//! order, on the calling thread.
//!
//! Set `CRITERION_JSON=BENCH_executors.json` to record the numbers.

use crate::{bench_partition, bench_system};
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::{AsyncBlockSolver, ExecutorKind, LocalSweep, ScheduleKind, SolveOptions};
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    BlockKernel, BlockSchedule, BlockScratch, RandomPermutation, RecurringPattern, RunSession,
    SimOptions, ThreadedOptions, XView,
};
use abr_sparse::RowPartition;
use criterion::{black_box, BenchmarkId, Criterion};

/// Solve-to-tolerance on the persistent fabric at two worker counts.
pub fn bench_solve_to_tolerance(c: &mut Criterion) {
    let (a, b, x0) = bench_system(16); // n = 256
    let p = bench_partition(a.n_rows(), 16);
    let opts = SolveOptions {
        max_iters: 20_000,
        tol: 1e-8,
        record_history: false,
        check_every: 10,
    };
    let mut group = c.benchmark_group("executors_solve_1e-8");
    group.sample_size(10);
    for workers in [8usize, 16] {
        let persistent = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions {
                n_workers: workers,
                snapshot_rounds: false,
            }),
            ..AsyncBlockSolver::async_k(5)
        };
        group.bench_with_input(
            BenchmarkId::new("persistent", workers),
            &workers,
            |bch, _| {
                bch.iter(|| black_box(persistent.solve(&a, &b, &x0, &p, &opts).expect("solve")))
            },
        );
    }
    group.finish();
}

/// Fixed global-iteration budget, simulator and threads (the original
/// throughput comparison, kept for continuity).
pub fn bench_fixed_budget(c: &mut Criterion) {
    let (a, b, x0) = bench_system(60);
    let p = bench_partition(a.n_rows(), 120);
    let opts = SolveOptions::fixed_iterations(10);
    let mut group = c.benchmark_group("executors_10_globals");
    group.sample_size(20);

    let sim = AsyncBlockSolver {
        executor: ExecutorKind::Sim(SimOptions::default()),
        ..AsyncBlockSolver::async_k(5)
    };
    group.bench_function("discrete_event", |bch| {
        bch.iter(|| black_box(sim.solve(&a, &b, &x0, &p, &opts).expect("solve")))
    });

    for workers in [2usize, 4, 8] {
        let thr = AsyncBlockSolver {
            executor: ExecutorKind::Threaded(ThreadedOptions {
                n_workers: workers,
                snapshot_rounds: false,
            }),
            ..AsyncBlockSolver::async_k(5)
        };
        group.bench_with_input(
            BenchmarkId::new("threads", workers),
            &workers,
            |bch, _| bch.iter(|| black_box(thr.solve(&a, &b, &x0, &p, &opts).expect("solve"))),
        );
    }
    group.finish();
}

/// The daemon's `sim` request on Lap2d g = 40 with 8-row blocks: async-(5)
/// to tol 1e-6 on 14 workers at jitter 0.3, a recurring schedule, request
/// seed 1 (the daemon salts the simulator's seed with a constant).
pub fn bench_serve_repeat(c: &mut Criterion) {
    let (a, b, x0) = bench_system(40);
    let p = bench_partition(a.n_rows(), 8);
    let kernel = AsyncJacobiKernel::new(&a, &b, &p, 5, 1.0).expect("kernel");
    let seed = 1u64;
    let solver = AsyncBlockSolver {
        local_iters: 5,
        schedule: ScheduleKind::Recurring { seed },
        executor: ExecutorKind::Sim(SimOptions {
            seed: seed ^ 0x9e37_79b9_7f4a_7c15,
            ..SimOptions::default()
        }),
        ..AsyncBlockSolver::default()
    };
    let opts = SolveOptions::to_tolerance(1e-6, 20_000);
    let sim_solve = || {
        solver
            .solve_session(&a, &b, &x0, &kernel, &opts, &AllowAll, None, RunSession::default())
            .expect("solve")
    };
    let rounds = sim_solve().result.iterations;
    let nb = kernel.n_blocks();
    let mut x = x0.clone();
    let mut out = Vec::new();
    let mut scratch = BlockScratch::new();
    let mut order = Vec::with_capacity(nb);
    let mut kernel_only = || {
        x.copy_from_slice(&x0);
        let mut schedule = RecurringPattern::new(seed);
        for round in 0..rounds {
            schedule.order(round, nb, &mut order);
            for &blk in &order {
                let (s, e) = kernel.block_range(blk);
                out.resize(e - s, 0.0);
                kernel.update_block_with(blk, &XView::Plain(&x), &mut out, &mut scratch);
                x[s..e].copy_from_slice(&out);
            }
        }
        x[0]
    };
    let mut group = c.benchmark_group("executors_serve_repeat");
    group.sample_size(25);
    group.meta(&[("rounds", rounds as f64), ("blocks", nb as f64)]);
    group.bench_interleaved(&mut [
        ("sim_solve", &mut || {
            black_box(sim_solve());
        }),
        ("kernel_only", &mut || {
            black_box(kernel_only());
        }),
    ]);
    group.finish();
}

/// The `solve_fv1m` shape: `fv_stencil(512)` with its descriptor, 256
/// blocks, async-(5) to 1e-8 from zero, random schedule seed 1 — on one
/// worker, so the run's overhead over its sweeps is not mixed with the
/// second worker's contention for the host.
pub fn bench_fv_stencil(c: &mut Criterion) {
    let (a, d) = abr_sparse::gen::fv_stencil(512, 1.0).expect("fv stencil");
    let n = a.n_rows();
    let x_true: Vec<f64> = (0..n).map(|i| 0.5 + (i % 97) as f64 / 97.0).collect();
    let b = a.mul_vec(&x_true).expect("square");
    let x0 = vec![0.0; n];
    let p = RowPartition::uniform(n, n / 256).expect("partition");
    let kernel =
        AsyncJacobiKernel::with_sweep_and_stencil(&a, &b, &p, 5, 1.0, LocalSweep::Jacobi, Some(&d))
            .expect("kernel");
    let seed = 1u64;
    let solver = AsyncBlockSolver {
        local_iters: 5,
        schedule: ScheduleKind::Random { seed },
        executor: ExecutorKind::Threaded(ThreadedOptions { n_workers: 1, snapshot_rounds: false }),
        ..AsyncBlockSolver::default()
    };
    let opts = SolveOptions::to_tolerance(1e-8, 10_000);
    let solve = || {
        solver
            .solve_session(&a, &b, &x0, &kernel, &opts, &AllowAll, None, RunSession::default())
            .expect("solve")
    };
    let rounds = solve().result.iterations;
    let nb = kernel.n_blocks();
    let mut x = x0.clone();
    let mut out = Vec::new();
    let mut scratch = BlockScratch::new();
    let mut order = Vec::with_capacity(nb);
    let mut kernel_only = || {
        x.copy_from_slice(&x0);
        let mut schedule = RandomPermutation::new(seed);
        for round in 0..rounds {
            schedule.order(round, nb, &mut order);
            for &blk in &order {
                let (s, e) = kernel.block_range(blk);
                out.resize(e - s, 0.0);
                kernel.update_block_with(blk, &XView::Plain(&x), &mut out, &mut scratch);
                x[s..e].copy_from_slice(&out);
            }
        }
        x[0]
    };
    let mut group = c.benchmark_group("executors_fv_stencil");
    group.sample_size(15);
    group.meta(&[("rounds", rounds as f64), ("blocks", nb as f64)]);
    group.bench_interleaved(&mut [
        ("solve_1_worker", &mut || {
            black_box(solve());
        }),
        ("kernel_only", &mut || {
            black_box(kernel_only());
        }),
    ]);
    group.finish();
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_solve_to_tolerance(c);
    bench_fixed_budget(c);
    bench_serve_repeat(c);
    bench_fv_stencil(c);
}
