//! The metrics the benchmark reports, and how each is computed from a
//! workload's outcome. The names and units here are the ones
//! `BENCHMARK.json` lists; the smoke test holds the two in step.

use crate::api::{KernelProbe, RunStats};
use crate::gate::Tally;
use crate::stats::{median, percentile};
use crate::trace::Tracer;

/// End-to-end metrics: name and unit. The tail latency is reported
/// beside them ([`tail_line`]) but not gated: on a shared host it moves
/// with other tenants' load far more than the bounds allow.
pub const END_TO_END: [(&str, &str); 5] = [
    ("ops_per_s", "ops/s"),
    ("latency_p50_ms", "ms"),
    ("success_share", "ratio"),
    ("setup_s", "s"),
    ("peak_heap_mb", "MiB"),
];

/// Per-layer metrics (traced runs): name and unit. A layer a workload
/// does not call reads 0 on that workload.
pub const PER_LAYER: [(&str, &str); 30] = [
    ("sparse.io.ingest_ms", "ms"),
    ("sparse.io.ingest_mb_per_s", "MB/s"),
    ("sparse.block_plan.compile_ms", "ms"),
    ("sparse.block_plan.compile_ns_per_nnz", "ns/nnz"),
    ("gpu.kernel.ns_per_row_update", "ns"),
    ("gpu.kernel.bytes_per_update_computed", "B/update"),
    ("gpu.kernel.tier_share.csr", "ratio"),
    ("gpu.kernel.tier_share.ell", "ratio"),
    ("gpu.kernel.tier_share.ell_simd", "ratio"),
    ("gpu.kernel.tier_share.stencil", "ratio"),
    ("gpu.persistent.rounds_per_s", "rounds/s"),
    ("gpu.persistent.stolen_share", "ratio"),
    ("gpu.persistent.max_skew", "rounds"),
    ("core.convergence.exact_checks_per_solve", "count"),
    ("core.convergence.fused_polls_per_solve", "count"),
    ("core.convergence.exact_check_ms", "ms"),
    ("core.async_block.rounds_p50", "rounds"),
    ("core.async_block.rounds_p75", "rounds"),
    ("gpu.residual.fused_reduce_ns", "ns"),
    ("core.fingerprint.matrix_ns_per_nnz", "ns/nnz"),
    ("core.fingerprint.vec_ns_per_elem", "ns/elem"),
    ("service.wire.request_parse_ms", "ms"),
    ("service.wire.request_render_ms", "ms"),
    ("service.wire.response_render_ms", "ms"),
    ("service.wire.response_parse_ms", "ms"),
    ("service.json.parse_mb_per_s", "MB/s"),
    ("service.cache.hit_share", "ratio"),
    ("service.cache.hit_latency_p50_ms", "ms"),
    ("service.cache.miss_latency_p50_ms", "ms"),
    ("service.daemon.shed_share", "ratio"),
];

/// One reported value: name, value, unit, and the sample or base it
/// was computed over.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Sample count or ratio base, for the human-readable report.
    pub base: String,
}

fn metric(table: &[(&'static str, &'static str)], name: &str, value: f64, base: String) -> Metric {
    let &(name, unit) = table
        .iter()
        .find(|(n, _)| *n == name)
        .expect("metric is in its table");
    Metric {
        name,
        value,
        unit,
        base,
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Seconds of each set-up: inputs built, daemon started, one warm-up op.
    pub setup_s: Vec<f64>,
    /// Latency of every timed op, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Wall seconds of the timed phase.
    pub timed_s: f64,
    /// The tail percentile this workload reports (0.75 or 0.9).
    pub tail_q: f64,
    /// Attempts and failures.
    pub tally: Tally,
    /// Per-layer counts (traced runs only).
    pub layers: LayerAcc,
    /// Extra report lines.
    pub notes: Vec<String>,
}

/// Counts gathered at the layer boundaries during a traced run; the
/// times come from the spans.
#[derive(Debug, Default)]
pub struct LayerAcc {
    /// MatrixMarket bytes ingested.
    pub ingest_bytes: f64,
    /// Nonzeros compiled into block plans.
    pub compiled_nnz: f64,
    /// Nonzeros fingerprinted.
    pub fingerprinted_nnz: f64,
    /// Vector elements fingerprinted.
    pub fingerprinted_elems: f64,
    /// Request-frame bytes parsed.
    pub parsed_bytes: f64,
    /// Executor statistics of every traced solve.
    pub runs: Vec<RunStats>,
    /// Global iterations of every traced solve, by system.
    pub rounds: Vec<(String, f64)>,
    /// Single-thread kernel probes, one per distinct system.
    pub kernel: Vec<KernelProbe>,
    /// Fused-reduce probes, nanoseconds, one per distinct system.
    pub fused_reduce_ns: Vec<f64>,
    /// Client latency of replies served from the result cache.
    pub hit_latency_ms: Vec<f64>,
    /// Client latency of replies that were solved.
    pub miss_latency_ms: Vec<f64>,
    /// Daemon cache hits during the timed phase.
    pub cache_hits: f64,
    /// Daemon `done` replies during the timed phase.
    pub completed: f64,
    /// Daemon shed decisions during the timed phase.
    pub shed: f64,
    /// Requests the clients sent during the timed phase.
    pub sent: f64,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The tail latency of one run, with its sample count: the report line
/// that stands beside the end-to-end metrics.
pub fn tail_line(o: &Outcome) -> String {
    let n = o.latencies_ms.len();
    let beyond = ((1.0 - o.tail_q) * n as f64).floor();
    format!(
        "latency_tail_ms = {} ms  (p{:.0} of {n} ops, {beyond} beyond it; not gated)",
        percentile(&o.latencies_ms, o.tail_q),
        o.tail_q * 100.0
    )
}

/// The end-to-end metrics of one run.
pub fn end_to_end(o: &Outcome, peak_heap_mb: f64) -> Vec<Metric> {
    let n = o.latencies_ms.len();
    let m = |name, value, base| metric(&END_TO_END, name, value, base);
    vec![
        m(
            "ops_per_s",
            ratio(n as f64, o.timed_s),
            format!("{n} ops in {:.3} s", o.timed_s),
        ),
        m(
            "latency_p50_ms",
            median(&o.latencies_ms),
            format!("p50 of {n} ops"),
        ),
        m("success_share", o.tally.success_share(), o.tally.summary()),
        m(
            "setup_s",
            median(&o.setup_s),
            format!("median of {} set-ups", o.setup_s.len()),
        ),
        m(
            "peak_heap_mb",
            peak_heap_mb,
            "most live heap bytes since process start".into(),
        ),
    ]
}

/// The per-layer metrics of one traced run.
pub fn per_layer(acc: &LayerAcc, t: &Tracer) -> Vec<Metric> {
    let total_s = |name: &str| t.durations_ms(name).iter().sum::<f64>() / 1e3;
    let med = |name: &str| median(&t.durations_ms(name));
    let count = |name: &str| t.durations_ms(name).len();
    let solves = acc.runs.len() as f64;
    let sum = |f: fn(&RunStats) -> f64| acc.runs.iter().map(f).sum::<f64>();
    let probes = |f: fn(&KernelProbe) -> f64| acc.kernel.iter().map(f).sum::<f64>();
    let row_sweeps = probes(|p| p.row_sweeps);
    let tier_rows: f64 = acc.kernel.iter().flat_map(|p| p.tier_rows).sum();
    let tier = |i: usize| ratio(acc.kernel.iter().map(|p| p.tier_rows[i]).sum(), tier_rows);
    let rounds: Vec<f64> = acc.rounds.iter().map(|r| r.1).collect();
    let ingest_per_op = t.per_op_ms("sparse.io.ingest");
    let compile_per_op = t.per_op_ms("sparse.block_plan.compile");
    let m = |name, value, base| metric(&PER_LAYER, name, value, base);
    vec![
        m(
            "sparse.io.ingest_ms",
            median(&ingest_per_op),
            format!("per op, {} ops", ingest_per_op.len()),
        ),
        m(
            "sparse.io.ingest_mb_per_s",
            ratio(acc.ingest_bytes / 1e6, total_s("sparse.io.ingest")),
            format!(
                "{:.1} MB over {} reads",
                acc.ingest_bytes / 1e6,
                count("sparse.io.ingest")
            ),
        ),
        m(
            "sparse.block_plan.compile_ms",
            median(&compile_per_op),
            format!("per op, {} ops", compile_per_op.len()),
        ),
        m(
            "sparse.block_plan.compile_ns_per_nnz",
            ratio(total_s("sparse.block_plan.compile") * 1e9, acc.compiled_nnz),
            format!("{} nnz compiled", acc.compiled_nnz),
        ),
        m(
            "gpu.kernel.ns_per_row_update",
            ratio(probes(|p| p.round_ns), row_sweeps),
            format!(
                "{row_sweeps} row sweeps, one thread, {} systems",
                acc.kernel.len()
            ),
        ),
        m(
            "gpu.kernel.bytes_per_update_computed",
            ratio(probes(|p| p.round_bytes), row_sweeps),
            format!("computed from array sizes over {row_sweeps} row sweeps"),
        ),
        m(
            "gpu.kernel.tier_share.csr",
            tier(0),
            format!("share of {tier_rows} rows"),
        ),
        m(
            "gpu.kernel.tier_share.ell",
            tier(1),
            format!("share of {tier_rows} rows"),
        ),
        m(
            "gpu.kernel.tier_share.ell_simd",
            tier(2),
            format!("share of {tier_rows} rows"),
        ),
        m(
            "gpu.kernel.tier_share.stencil",
            tier(3),
            format!("share of {tier_rows} rows"),
        ),
        m(
            "gpu.persistent.rounds_per_s",
            ratio(sum(|r| r.global_iterations as f64), sum(|r| r.elapsed_s)),
            format!("{solves} solves"),
        ),
        m(
            "gpu.persistent.stolen_share",
            ratio(sum(|r| r.stolen as f64), sum(|r| r.updates as f64)),
            format!("of {} committed updates", sum(|r| r.updates as f64)),
        ),
        m(
            "gpu.persistent.max_skew",
            acc.runs
                .iter()
                .map(|r| r.max_skew as f64)
                .fold(0.0, f64::max),
            format!(
                "max over {solves} solves, bound {}",
                acc.runs.first().map_or(0, |r| r.skew_bound)
            ),
        ),
        m(
            "core.convergence.exact_checks_per_solve",
            ratio(sum(|r| r.exact_checks as f64), solves),
            format!("mean over {solves} solves"),
        ),
        m(
            "core.convergence.fused_polls_per_solve",
            ratio(sum(|r| r.fused_polls as f64), solves),
            format!("mean over {solves} solves"),
        ),
        m(
            "core.convergence.exact_check_ms",
            med("core.convergence.exact_check"),
            format!("p50 of {} checks", count("core.convergence.exact_check")),
        ),
        m(
            "core.async_block.rounds_p50",
            median(&rounds),
            format!("p50 of {} solves", rounds.len()),
        ),
        m(
            "core.async_block.rounds_p75",
            percentile(&rounds, 0.75),
            format!("p75 of {} solves", rounds.len()),
        ),
        m(
            "gpu.residual.fused_reduce_ns",
            ratio(
                acc.fused_reduce_ns.iter().sum(),
                acc.fused_reduce_ns.len() as f64,
            ),
            format!("mean of {} probes", acc.fused_reduce_ns.len()),
        ),
        m(
            "core.fingerprint.matrix_ns_per_nnz",
            ratio(
                total_s("core.fingerprint.matrix") * 1e9,
                acc.fingerprinted_nnz,
            ),
            format!("{} nnz", acc.fingerprinted_nnz),
        ),
        m(
            "core.fingerprint.vec_ns_per_elem",
            ratio(
                total_s("core.fingerprint.vec") * 1e9,
                acc.fingerprinted_elems,
            ),
            format!("{} elements", acc.fingerprinted_elems),
        ),
        m(
            "service.wire.request_parse_ms",
            med("service.wire.request_parse"),
            format!("p50 of {}", count("service.wire.request_parse")),
        ),
        m(
            "service.wire.request_render_ms",
            med("service.wire.request_render"),
            format!("p50 of {}", count("service.wire.request_render")),
        ),
        m(
            "service.wire.response_render_ms",
            med("service.wire.response_render"),
            format!("p50 of {}", count("service.wire.response_render")),
        ),
        m(
            "service.wire.response_parse_ms",
            med("service.wire.response_parse"),
            format!("p50 of {}", count("service.wire.response_parse")),
        ),
        m(
            "service.json.parse_mb_per_s",
            ratio(
                acc.parsed_bytes / 1e6,
                total_s("service.wire.request_parse"),
            ),
            format!("{:.1} MB of request frames", acc.parsed_bytes / 1e6),
        ),
        m(
            "service.cache.hit_share",
            ratio(acc.cache_hits, acc.completed),
            format!(
                "{} hits of {} completed requests",
                acc.cache_hits, acc.completed
            ),
        ),
        m(
            "service.cache.hit_latency_p50_ms",
            median(&acc.hit_latency_ms),
            format!("p50 of {} hits", acc.hit_latency_ms.len()),
        ),
        m(
            "service.cache.miss_latency_p50_ms",
            median(&acc.miss_latency_ms),
            format!("p50 of {} solved requests", acc.miss_latency_ms.len()),
        ),
        m(
            "service.daemon.shed_share",
            ratio(acc.shed, acc.sent),
            format!("{} shed of {} sent", acc.shed, acc.sent),
        ),
    ]
}
