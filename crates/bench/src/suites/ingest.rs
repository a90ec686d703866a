//! Text ingest and the wire codec, the two text layers in front of a
//! solve.
//!
//! * `ingest_mtx/<system>` — `read_matrix_market` (one parse thread per
//!   core, capped at 8) on each of the five Table 1 substitutes the
//!   `table1_mtx` workload ingests, as `write_matrix_market` writes them,
//!   read from memory so the timing holds no file-system cost.
//! * `ingest_wire/{request_parse, request_render}` — `Request::parse` and
//!   `Request::render` on a `serve_ingest`-shaped solve frame: an
//!   explicit random diagonally dominant CSR system with n = 20,000 and
//!   about 180k nonzeros (a ~5 MB frame), no right-hand side.
//!
//! Every JSON line (set `CRITERION_JSON=BENCH_ingest.json`) carries the
//! input's size: `bytes` and `nnz`, plus `threads` for the `.mtx` rows.
//! The committed rows also name the host and code they were measured on
//! (`cores`, `target_cpu`, `commit`, and `side`: `before` rows run this
//! suite against the library of the commit before the shared number
//! scanner).

use abr_service::{MatrixSpec, Mode, Request, SolveSpec};
use abr_sparse::gen::{random_diag_dominant, TestMatrix};
use abr_sparse::io::{read_matrix_market, write_matrix_market};
use criterion::{black_box, BenchmarkId, Criterion, Throughput};

/// The Table 1 substitutes `table1_mtx` ingests.
const SYSTEMS: [TestMatrix; 5] = [
    TestMatrix::Chem97ZtZ,
    TestMatrix::Fv1,
    TestMatrix::Fv2,
    TestMatrix::Trefethen2000,
    TestMatrix::Trefethen20000,
];

/// Runs both groups.
pub fn all(c: &mut Criterion) {
    bench_mtx(c);
    bench_wire(c);
}

/// `read_matrix_market` on each Table 1 substitute.
pub fn bench_mtx(c: &mut Criterion) {
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(8);
    let mut group = c.benchmark_group("ingest_mtx");
    for which in SYSTEMS {
        let a = which.build().expect("generator");
        let mut text = Vec::new();
        write_matrix_market(&a, &mut text).expect("write to memory");
        group.throughput(Throughput::Bytes(text.len() as u64));
        group.meta(&[
            ("bytes", text.len() as f64),
            ("nnz", a.nnz() as f64),
            ("threads", threads as f64),
        ]);
        group.bench_function(BenchmarkId::from_parameter(which.name()), |b| {
            b.iter(|| black_box(read_matrix_market(black_box(&text[..])).expect("valid file")))
        });
    }
    group.finish();
}

/// `Request::parse` and `Request::render` on a `serve_ingest`-shaped frame.
pub fn bench_wire(c: &mut Criterion) {
    let n = 20_000;
    let a = random_diag_dominant(n, 8, 1.5, 1);
    let request = Request::Solve(SolveSpec {
        id: 1_000_000_000,
        matrix: MatrixSpec::Csr {
            n_rows: n,
            n_cols: n,
            row_ptr: a.row_ptr().to_vec(),
            col_idx: a.col_idx().to_vec(),
            values: a.values().to_vec(),
        },
        tol: 1e-8,
        block: 448,
        mode: Mode::Pooled,
        workers: 1,
        seed: 1,
        ..SolveSpec::lap2d(0, 1)
    });
    let frame = request.render();
    assert_eq!(
        Request::parse(&frame).as_ref(),
        Ok(&request),
        "frame must round-trip"
    );
    let mut group = c.benchmark_group("ingest_wire");
    group.throughput(Throughput::Bytes(frame.len() as u64));
    group.meta(&[("bytes", frame.len() as f64), ("nnz", a.nnz() as f64)]);
    group.bench_function("request_parse", |b| {
        b.iter(|| black_box(Request::parse(black_box(&frame)).expect("valid frame")))
    });
    group.bench_function("request_render", |b| {
        b.iter(|| black_box(black_box(&request).render()))
    });
    group.finish();
}
