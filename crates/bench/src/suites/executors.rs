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
//! Set `CRITERION_JSON=BENCH_executors.json` to record the numbers.

use crate::{bench_partition, bench_system};
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::{AsyncBlockSolver, ExecutorKind, ScheduleKind, SolveOptions};
use abr_gpu::kernel::AllowAll;
use abr_gpu::{
    BlockKernel, BlockSchedule, BlockScratch, RecurringPattern, RunSession, SimOptions,
    ThreadedOptions, XView,
};
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

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_solve_to_tolerance(c);
    bench_fixed_budget(c);
    bench_serve_repeat(c);
}
