//! Per-iteration wall cost of each relaxation method in this library
//! (the real-hardware analog of the paper's Table 5 comparison).

use crate::{bench_partition, bench_system};
use abr_core::{gauss_seidel, jacobi, AsyncBlockSolver, SolveOptions};
use criterion::{black_box, BenchmarkId, Criterion};

fn one_iteration_opts() -> SolveOptions {
    SolveOptions { max_iters: 1, tol: 0.0, record_history: false, check_every: 1 }
}

/// One global iteration of every relaxation method.
pub fn bench_methods(c: &mut Criterion) {
    let (a, b, x0) = bench_system(60); // n = 3600
    let opts = one_iteration_opts();
    let mut group = c.benchmark_group("one_iteration");

    group.bench_function("jacobi", |bch| {
        bch.iter(|| black_box(jacobi(&a, &b, &x0, &opts).expect("solve")))
    });
    group.bench_function("gauss_seidel", |bch| {
        bch.iter(|| black_box(gauss_seidel(&a, &b, &x0, &opts).expect("solve")))
    });
    for k in [1usize, 5] {
        let p = bench_partition(a.n_rows(), 120);
        let solver = AsyncBlockSolver::async_k(k);
        group.bench_with_input(BenchmarkId::new("async", k), &k, |bch, _| {
            bch.iter(|| black_box(solver.solve(&a, &b, &x0, &p, &opts).expect("solve")))
        });
    }
    group.finish();
}

/// Ten CG iterations on the same system.
pub fn bench_cg(c: &mut Criterion) {
    let (a, b, x0) = bench_system(60);
    c.bench_function("cg_10_iterations", |bch| {
        let opts = SolveOptions { max_iters: 10, tol: 0.0, record_history: false, check_every: 1 };
        bch.iter(|| {
            black_box(abr_core::conjugate_gradient(&a, &b, &x0, &opts).expect("solve"))
        })
    });
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_methods(c);
    bench_cg(c);
}
