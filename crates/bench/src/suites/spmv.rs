//! Sparse matrix–vector product throughput across the paper's matrix
//! structures.

use abr_sparse::gen::{chem_ztz, laplacian_2d_9pt, trefethen};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

/// CSR SpMV over the fv-like 9-point, Trefethen, and Chem97ZtZ structures.
pub fn bench_spmv(c: &mut Criterion) {
    let mut group = c.benchmark_group("spmv");
    let cases = vec![
        ("fv-like-9pt", laplacian_2d_9pt(60)),
        ("trefethen", trefethen(2000).expect("generator")),
        ("chem-ztz", chem_ztz(2541, 0.7889).expect("generator")),
    ];
    for (name, a) in cases {
        let x: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i as f64 * 0.01).sin()).collect();
        let mut y = vec![0.0; a.n_rows()];
        group.throughput(Throughput::Elements(a.nnz() as u64));
        group.bench_with_input(BenchmarkId::from_parameter(name), &a, |b, a| {
            b.iter(|| {
                a.spmv(black_box(&x), &mut y).expect("dims");
                black_box(&y);
            })
        });
    }
    group.finish();
}

/// Thread scaling of the chunked parallel SpMV.
pub fn bench_par_spmv(c: &mut Criterion) {
    let a = trefethen(20000).expect("generator");
    let x: Vec<f64> = (0..a.n_cols()).map(|i| 1.0 + (i as f64 * 0.001).sin()).collect();
    let mut y = vec![0.0; a.n_rows()];
    let mut group = c.benchmark_group("spmv_threads_trefethen_20000");
    group.sample_size(20);
    for threads in [1usize, 2, 4] {
        let ctx = abr_sparse::par::ParContext::new(threads);
        group.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
            b.iter(|| {
                ctx.spmv(&a, black_box(&x), &mut y).expect("dims");
                black_box(&y);
            })
        });
    }
    group.finish();
}

/// Sparse matrix–matrix product (Laplacian squared).
pub fn bench_spgemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("spgemm");
    for m in [20usize, 40] {
        let l = abr_sparse::gen::laplacian_2d_5pt(m);
        group.bench_with_input(BenchmarkId::new("laplacian_squared", m), &l, |b, l| {
            b.iter(|| black_box(l.spgemm(l).expect("square")))
        });
    }
    group.finish();
}

/// The whole suite.
pub fn all(c: &mut Criterion) {
    bench_spmv(c);
    bench_par_spmv(c);
    bench_spgemm(c);
}
