//! Krylov baselines: wall cost of a fixed-tolerance PCG or Chebyshev
//! solve on the Poisson model problem, by preconditioner.

use crate::bench_system;
use abr_core::chebyshev::auto_chebyshev;
use abr_core::pcg::{pcg, BlockJacobiPreconditioner, IdentityPreconditioner, JacobiPreconditioner};
use abr_core::SolveOptions;
use abr_sparse::RowPartition;
use criterion::{black_box, Criterion};

/// PCG by preconditioner.
pub fn bench_pcg_preconditioners(c: &mut Criterion) {
    let (a, b, x0) = bench_system(40); // n = 1600
    let opts = SolveOptions::to_tolerance(1e-8, 5_000);
    let mut group = c.benchmark_group("pcg_to_1e-8");
    group.sample_size(20);
    group.bench_function("identity", |bch| {
        bch.iter(|| black_box(pcg(&a, &b, &x0, &IdentityPreconditioner, &opts).expect("solve")))
    });
    group.bench_function("jacobi", |bch| {
        let p = JacobiPreconditioner::new(&a).expect("SPD");
        bch.iter(|| black_box(pcg(&a, &b, &x0, &p, &opts).expect("solve")))
    });
    group.bench_function("block_jacobi_64", |bch| {
        let part = RowPartition::uniform(a.n_rows(), 64).expect("partition");
        let p = BlockJacobiPreconditioner::new(&a, &part).expect("blocks");
        bch.iter(|| black_box(pcg(&a, &b, &x0, &p, &opts).expect("solve")))
    });
    group.finish();
}

/// Chebyshev semi-iteration with automatic spectral bounds.
pub fn bench_chebyshev(c: &mut Criterion) {
    let (a, b, x0) = bench_system(40);
    let opts = SolveOptions::to_tolerance(1e-8, 20_000);
    c.bench_function("chebyshev_to_1e-8", |bch| {
        bch.iter(|| black_box(auto_chebyshev(&a, &b, &x0, &opts).expect("solve")))
    });
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_pcg_preconditioners(c);
    bench_chebyshev(c);
}
