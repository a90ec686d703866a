//! Golden values of the discrete-event executor.
//!
//! The simulator is the reproducible fabric behind the paper's 1000-run
//! statistics and the daemon's default `sim` mode, so its output is part
//! of the contract: a change to its bookkeeping (event ordering, result
//! buffers, staleness counting) must leave every update bit-identical.
//! These tests pin, for three configurations, the FNV-1a hash of the
//! solution, the iteration count and final residual bits of a solve to
//! tolerance, and the full `UpdateTrace` of a direct executor run
//! together with a digest of the iterate seen at every global-iteration
//! callback.
//!
//! The constants were recorded from the sort-based replay the merge-based
//! one replaced; they must never be regenerated to make a change pass.

use block_async_relax::core::async_block::AsyncJacobiKernel;
use block_async_relax::core::{fingerprint_vec, Fnv1a};
use block_async_relax::gpu::kernel::AllowAll;
use block_async_relax::gpu::schedule::BlockSchedule;
use block_async_relax::gpu::{
    RandomPermutation, RecurringPattern, SimExecutor, SimOptions, UpdateFilter, UpdateTrace,
};
use block_async_relax::prelude::*;
use block_async_relax::sparse::{gen, CsrMatrix};

/// The seed mixing the daemon applies to a request's scheduling seed.
const DAEMON_SIM_SALT: u64 = 0x9e37_79b9_7f4a_7c15;

/// What a solve to tolerance produced.
#[derive(Debug, PartialEq, Eq)]
struct SolveGolden {
    x_hash: u64,
    iterations: usize,
    final_residual_bits: u64,
}

/// What a direct executor run produced.
#[derive(Debug, PartialEq, Eq)]
struct TraceGolden {
    x_hash: u64,
    /// Digest of `(k, fingerprint(x_k))` over every global-iteration
    /// callback, in order.
    callbacks_hash: u64,
    updates_hash: u64,
    total_updates: usize,
    max_skew: usize,
    elapsed_bits: u64,
    skipped_updates: usize,
    staleness: Vec<(i64, u64)>,
}

fn solve_golden(
    solver: &AsyncBlockSolver,
    a: &CsrMatrix,
    b: &[f64],
    block: usize,
    tol: f64,
    filter: &dyn UpdateFilter,
) -> SolveGolden {
    let n = a.n_rows();
    let p = RowPartition::uniform(n, block).unwrap();
    let opts = SolveOptions::to_tolerance(tol, 20_000);
    let r = solver.solve_filtered(a, b, &vec![0.0; n], &p, &opts, filter).unwrap();
    SolveGolden {
        x_hash: fingerprint_vec(&r.x),
        iterations: r.iterations,
        final_residual_bits: r.final_residual.to_bits(),
    }
}

#[allow(clippy::too_many_arguments)] // one executor run's full setup
fn trace_golden(
    a: &CsrMatrix,
    b: &[f64],
    block: usize,
    opts: SimOptions,
    schedule: &mut dyn BlockSchedule,
    filter: &dyn UpdateFilter,
    rounds: usize,
) -> TraceGolden {
    let n = a.n_rows();
    let p = RowPartition::uniform(n, block).unwrap();
    let kernel = AsyncJacobiKernel::new(a, b, &p, 5, 1.0).unwrap();
    let mut x = vec![0.0; n];
    let mut callbacks = Fnv1a::new();
    let trace: UpdateTrace =
        SimExecutor::new(opts).run(&kernel, &mut x, rounds, schedule, filter, |k, xk| {
            callbacks.write_usize(k).write_u64(fingerprint_vec(xk));
        });
    let mut updates = Fnv1a::new();
    for &u in &trace.updates_per_block {
        updates.write_usize(u);
    }
    TraceGolden {
        x_hash: fingerprint_vec(&x),
        callbacks_hash: callbacks.finish(),
        updates_hash: updates.finish(),
        total_updates: trace.total_updates(),
        max_skew: trace.max_skew,
        elapsed_bits: trace.elapsed.to_bits(),
        skipped_updates: trace.skipped_updates,
        staleness: trace.staleness.entries().collect(),
    }
}

/// Drops block `b` at its round `r` whenever `(b + r) % 7 == 0`, and
/// discards component 0's value on even rounds.
struct DropSome;

impl UpdateFilter for DropSome {
    fn block_enabled(&self, block: usize, round: usize) -> bool {
        !(block + round).is_multiple_of(7)
    }
    fn component_enabled(&self, i: usize, round: usize) -> bool {
        i != 0 || round % 2 == 1
    }
}

/// The daemon's `sim` request on Lap2d g = 40, block 8: 14 workers,
/// jitter 0.3, a recurring schedule, request seed 1.
fn daemon_lap2d() -> (CsrMatrix, Vec<f64>, AsyncBlockSolver, SimOptions) {
    let a = gen::laplacian_2d_5pt(40);
    let b = a.mul_vec(&vec![1.0; a.n_rows()]).unwrap();
    let sim = SimOptions { seed: 1 ^ DAEMON_SIM_SALT, ..SimOptions::default() };
    let solver = AsyncBlockSolver {
        local_iters: 5,
        schedule: ScheduleKind::Recurring { seed: 1 },
        executor: ExecutorKind::Sim(sim.clone()),
        damping: 1.0,
        local_sweep: LocalSweep::Jacobi,
    };
    (a, b, solver, sim)
}

/// trefethen(400), 16 blocks of 25 rows, a fresh random permutation every
/// round, 6 workers at jitter 0.5.
fn trefethen_random() -> (CsrMatrix, Vec<f64>, AsyncBlockSolver, SimOptions) {
    let a = gen::trefethen(400).unwrap();
    let b = a.mul_vec(&vec![1.0; a.n_rows()]).unwrap();
    let sim = SimOptions { n_workers: 6, jitter: 0.5, seed: 3 };
    let solver = AsyncBlockSolver {
        local_iters: 5,
        schedule: ScheduleKind::Random { seed: 11 },
        executor: ExecutorKind::Sim(sim.clone()),
        damping: 1.0,
        local_sweep: LocalSweep::Jacobi,
    };
    (a, b, solver, sim)
}

/// Lap2d g = 20, 25 blocks of 16 rows, under the [`DropSome`] filter.
fn filtered_lap2d() -> (CsrMatrix, Vec<f64>, AsyncBlockSolver, SimOptions) {
    let a = gen::laplacian_2d_5pt(20);
    let b: Vec<f64> = (0..a.n_rows()).map(|i| (i as f64 * 0.3).sin()).collect();
    let sim = SimOptions { n_workers: 4, jitter: 0.3, seed: 7 };
    let solver = AsyncBlockSolver {
        local_iters: 5,
        schedule: ScheduleKind::Random { seed: 5 },
        executor: ExecutorKind::Sim(sim.clone()),
        damping: 1.0,
        local_sweep: LocalSweep::Jacobi,
    };
    (a, b, solver, sim)
}

#[test]
fn daemon_lap2d_solve_is_pinned() {
    let (a, b, solver, _) = daemon_lap2d();
    let got = solve_golden(&solver, &a, &b, 8, 1e-6, &AllowAll);
    assert_eq!(
        got,
        SolveGolden {
            x_hash: 3069228856032000499,
            iterations: 1160,
            final_residual_bits: 4516737061607266017,
        },
        "daemon lap2d solve"
    );
}

#[test]
fn daemon_lap2d_trace_is_pinned() {
    let (a, b, _, sim) = daemon_lap2d();
    let mut sched = RecurringPattern::new(1);
    let got = trace_golden(&a, &b, 8, sim, &mut sched, &AllowAll, 40);
    assert_eq!(got.total_updates, 40 * 200);
    assert_eq!(
        got,
        TraceGolden {
            x_hash: 8005088223787929485,
            callbacks_hash: 9883855014757645434,
            updates_hash: 6073127542550100773,
            total_updates: 8000,
            max_skew: 2,
            elapsed_bits: 4671898968048793052,
            skipped_updates: 0,
            staleness: vec![(-1, 12675), (0, 15592), (1, 133)],
        },
        "daemon lap2d trace"
    );
}

#[test]
fn trefethen_random_solve_is_pinned() {
    let (a, b, solver, _) = trefethen_random();
    let got = solve_golden(&solver, &a, &b, 25, 1e-10, &AllowAll);
    assert_eq!(
        got,
        SolveGolden {
            x_hash: 16990741798079393182,
            iterations: 30,
            final_residual_bits: 4417677214094473654,
        },
        "trefethen random solve"
    );
}

#[test]
fn trefethen_random_trace_is_pinned() {
    let (a, b, _, sim) = trefethen_random();
    let mut sched = RandomPermutation::new(11);
    let got = trace_golden(&a, &b, 25, sim, &mut sched, &AllowAll, 30);
    assert_eq!(
        got,
        TraceGolden {
            x_hash: 10205903608282115529,
            callbacks_hash: 12106664279075357586,
            updates_hash: 2168418620492866341,
            total_updates: 480,
            max_skew: 2,
            elapsed_bits: 4674932488192346064,
            skipped_updates: 0,
            staleness: vec![(-1, 1019), (0, 3164), (1, 257)],
        },
        "trefethen random trace"
    );
}

#[test]
fn filtered_lap2d_solve_is_pinned() {
    let (a, b, solver, _) = filtered_lap2d();
    let got = solve_golden(&solver, &a, &b, 16, 1e-8, &DropSome);
    assert_eq!(
        got,
        SolveGolden {
            x_hash: 923586823410092425,
            iterations: 640,
            final_residual_bits: 4487051587825231136,
        },
        "filtered lap2d solve"
    );
}

#[test]
fn filtered_lap2d_trace_is_pinned() {
    let (a, b, _, sim) = filtered_lap2d();
    let mut sched = RandomPermutation::new(5);
    let got = trace_golden(&a, &b, 16, sim, &mut sched, &DropSome, 50);
    assert!(got.skipped_updates > 0, "the filter must drop updates");
    assert_eq!(
        got,
        TraceGolden {
            x_hash: 14379762537648434202,
            callbacks_hash: 12263099280488096222,
            updates_hash: 15124695497614107022,
            total_updates: 1071,
            max_skew: 3,
            elapsed_bits: 4671431440408570421,
            skipped_updates: 179,
            staleness: vec![(-2, 193), (-1, 1478), (0, 2015), (1, 337), (2, 5)],
        },
        "filtered lap2d trace"
    );
}
