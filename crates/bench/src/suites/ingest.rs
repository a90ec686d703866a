//! Text ingest, the wire codec and the matrix generators: the stages in
//! front of a solve that make its matrix.
//!
//! * `ingest_mtx/<system>` — `read_matrix_market` (one parse thread per
//!   core, capped at 8) on each of the five Table 1 substitutes the
//!   `table1_mtx` workload ingests, as `write_matrix_market` writes them,
//!   read from memory so the timing holds no file-system cost.
//! * `ingest_mtx_uf/<system>` — the same read of each system's lower
//!   triangle, written column by column under a `symmetric` header: the
//!   layout of the University of Florida collection the paper's systems
//!   come from, which the reader expands to the full matrix.
//! * `ingest_wire/{request_parse, request_render}` — `Request::parse` and
//!   `Request::render` on a `serve_ingest`-shaped solve frame: an
//!   explicit random diagonally dominant CSR system with n = 20,000 and
//!   about 180k nonzeros (a ~5 MB frame), no right-hand side.
//! * `gen/{fv_stencil_512, laplacian_2d_5pt_1024, fv1}` — the generators
//!   behind the benchmark's set-ups: `gen::fv_stencil(512, 1.0)` (the
//!   `solve_fv1m` system), `gen::laplacian_2d_5pt(1024)` (the largest
//!   `lap2d` system a default daemon admits) and the Table 1 fv1
//!   substitute, whose build is mostly its Lanczos run.
//!
//! Every JSON line (set `CRITERION_JSON=BENCH_ingest.json`) carries the
//! input's size: `bytes` and `nnz` (only `nnz` and `rows` for the `gen`
//! rows), plus `threads` for the `.mtx` rows.
//! The committed rows also name the host and code they were measured on
//! (`cores`, `target_cpu`, `commit`, and `side`): a `before` row runs
//! this suite against the library at `commit`, the parent of the change
//! it prices, and an `after` row against the change itself.

use abr_service::{MatrixSpec, Mode, Request, SolveSpec};
use abr_sparse::gen::{self, random_diag_dominant, TestMatrix};
use abr_sparse::io::{read_matrix_market, write_matrix_market};
use abr_sparse::CsrMatrix;
use criterion::{black_box, BenchmarkId, Criterion, Throughput};
use std::fmt::Write as _;

/// The Table 1 substitutes `table1_mtx` ingests.
const SYSTEMS: [TestMatrix; 5] = [
    TestMatrix::Chem97ZtZ,
    TestMatrix::Fv1,
    TestMatrix::Fv2,
    TestMatrix::Trefethen2000,
    TestMatrix::Trefethen20000,
];

/// Runs every group.
pub fn all(c: &mut Criterion) {
    bench_mtx(c);
    bench_mtx_uf(c);
    bench_wire(c);
    bench_gen(c);
}

/// `read_matrix_market` on each Table 1 substitute.
pub fn bench_mtx(c: &mut Criterion) {
    bench_reads(c, "ingest_mtx", |a| {
        let mut text = Vec::new();
        write_matrix_market(a, &mut text).expect("write to memory");
        text
    });
}

/// `read_matrix_market` on each Table 1 substitute in the UF layout.
fn bench_mtx_uf(c: &mut Criterion) {
    bench_reads(c, "ingest_mtx_uf", uf_layout);
}

/// `a`'s lower triangle, column by column, under a `symmetric` header.
fn uf_layout(a: &CsrMatrix) -> Vec<u8> {
    let at = a.transpose();
    let mut body = String::new();
    let mut count = 0;
    for c in 0..at.n_rows() {
        for (r, v) in at.row_iter(c).filter(|&(r, _)| r >= c) {
            writeln!(body, "{} {} {v:.17e}", r + 1, c + 1).expect("write to a String");
            count += 1;
        }
    }
    let (n, m) = (a.n_rows(), a.n_cols());
    format!("%%MatrixMarket matrix coordinate real symmetric\n{n} {m} {count}\n{body}").into_bytes()
}

/// One group reading each system as `write_text` lays it out.
fn bench_reads(c: &mut Criterion, name: &str, write_text: impl Fn(&CsrMatrix) -> Vec<u8>) {
    let threads = std::thread::available_parallelism()
        .map(|v| v.get())
        .unwrap_or(1)
        .min(8);
    let mut group = c.benchmark_group(name);
    for which in SYSTEMS {
        let a = which.build().expect("generator");
        let text = write_text(&a);
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

/// The generators behind the benchmark's set-ups, each building its
/// matrix from nothing.
pub fn bench_gen(c: &mut Criterion) {
    type Build = fn() -> CsrMatrix;
    let builds: [(&str, Build); 3] = [
        ("fv_stencil_512", || gen::fv_stencil(512, 1.0).expect("well-formed stencil").0),
        ("laplacian_2d_5pt_1024", || gen::laplacian_2d_5pt(1024)),
        ("fv1", || TestMatrix::Fv1.build().expect("generator")),
    ];
    let mut group = c.benchmark_group("gen");
    for (name, build) in builds {
        let a = build();
        group.meta(&[("rows", a.n_rows() as f64), ("nnz", a.nnz() as f64)]);
        group.bench_function(name, |b| b.iter(|| black_box(build())));
    }
    group.finish();
}
