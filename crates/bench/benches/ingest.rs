//! Thin harness over [`abr_bench::suites::ingest`].

use criterion::{criterion_group, criterion_main, Criterion};

fn run(c: &mut Criterion) {
    abr_bench::suites::ingest::all(c);
}

criterion_group!(benches, run);
criterion_main!(benches);
