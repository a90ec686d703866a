//! Offline stand-in for the `criterion` crate.
//!
//! Implements the macro/API subset the workspace's benches use —
//! [`criterion_group!`]/[`criterion_main!`], [`Criterion::bench_function`],
//! benchmark groups with `sample_size`/`throughput`, [`BenchmarkId`], and
//! [`Bencher::iter`] — over a plain wall-clock measurement loop:
//! per benchmark, a warm-up phase followed by `sample_size` timed samples,
//! reporting the per-iteration mean of the fastest third (a robust
//! location estimate against OS scheduling noise).
//! [`BenchmarkGroup::bench_interleaved`] (an extension) times several
//! benchmarks with their samples taken in turn, so a drift in the host's
//! speed reaches each of them alike.
//!
//! Results are printed as aligned text and, when `CRITERION_JSON` names a
//! file, appended there as JSON lines for machine consumption. A JSON
//! line carries that fastest-third mean as `mean_ns` and, over all of
//! the benchmark's samples, `median_ns`, `p25_ns` and `p75_ns`, so a
//! reader can see how widely one run's samples spread.
//!
//! Environment knobs: `CRITERION_SAMPLE_MS` (per-sample budget in
//! milliseconds, default 20), `CRITERION_SAMPLES` (overrides every
//! benchmark's sample count — the smoke-test hook that drives each bench
//! for a single sample), `CRITERION_JSON` (JSON-lines output path).

pub use std::hint::black_box;
use std::fmt::Display;
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Throughput annotation (recorded; reported as elements/second).
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name and/or parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier `function/parameter`.
    pub fn new(function: impl Into<String>, parameter: impl Display) -> Self {
        BenchmarkId { id: format!("{}/{}", function.into(), parameter) }
    }

    /// Identifier from the parameter alone.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId { id: parameter.to_string() }
    }
}

/// Anything usable as a benchmark name.
pub trait IntoBenchmarkId {
    /// The rendered name.
    fn into_id(self) -> String;
}

impl IntoBenchmarkId for BenchmarkId {
    fn into_id(self) -> String {
        self.id
    }
}

impl IntoBenchmarkId for &str {
    fn into_id(self) -> String {
        self.to_string()
    }
}

impl IntoBenchmarkId for String {
    fn into_id(self) -> String {
        self
    }
}

/// The timing loop handle passed to benchmark closures.
pub struct Bencher {
    sample_budget: Duration,
    samples: usize,
    /// Mean ns/iter of the fastest-third samples, filled by `iter`.
    result_ns: f64,
    /// First quartile, median and third quartile of the samples' ns/iter,
    /// filled by `iter`.
    quartiles_ns: [f64; 3],
    total_iters: u64,
}

impl Bencher {
    /// A bencher taking `samples` samples of `sample_budget` each.
    fn new(samples: usize) -> Self {
        Bencher {
            sample_budget: sample_budget(),
            samples,
            result_ns: f64::NAN,
            quartiles_ns: [f64::NAN; 3],
            total_iters: 0,
        }
    }

    /// Measures `f` and records the per-iteration time.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        let mut call = || {
            black_box(f());
        };
        let batch = self.calibrate(&mut call);
        let mut per_iter: Vec<f64> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            per_iter.push(time_batch(batch, &mut call));
        }
        // warm-up iterations count as work done
        self.summarise(per_iter, batch * (self.samples as u64 + 1));
    }

    /// Warm-up: runs `f` for one sample's budget and returns how many
    /// calls fit in it, the batch size of every sample.
    fn calibrate<F: FnMut() + ?Sized>(&self, f: &mut F) -> u64 {
        let warm_start = Instant::now();
        let mut batch: u64 = 0;
        while warm_start.elapsed() < self.sample_budget {
            f();
            batch += 1;
        }
        batch.max(1)
    }

    /// Records the samples' per-iteration times: the fastest-third mean
    /// and the quartiles.
    fn summarise(&mut self, mut per_iter: Vec<f64>, total_iters: u64) {
        per_iter.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
        let third = (per_iter.len() / 3).max(1);
        self.result_ns = per_iter[..third].iter().sum::<f64>() / third as f64;
        self.quartiles_ns = [0.25, 0.5, 0.75].map(|p| quantile(&per_iter, p));
        self.total_iters = total_iters;
    }
}

/// Nanoseconds per call of one timed batch of `batch` calls of `f`.
fn time_batch<F: FnMut() + ?Sized>(batch: u64, f: &mut F) -> f64 {
    let t0 = Instant::now();
    for _ in 0..batch {
        f();
    }
    t0.elapsed().as_nanos() as f64 / batch as f64
}

/// The `p`-quantile of ascending `sorted` (non-empty), interpolated
/// linearly between the two samples around rank `p * (len - 1)`.
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let rank = p * (sorted.len() - 1) as f64;
    let (lo, frac) = (rank.floor() as usize, rank.fract());
    match sorted.get(lo + 1) {
        Some(&hi) if frac > 0.0 => sorted[lo] + frac * (hi - sorted[lo]),
        _ => sorted[lo],
    }
}

fn sample_budget() -> Duration {
    let ms = std::env::var("CRITERION_SAMPLE_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .unwrap_or(20);
    Duration::from_millis(ms.max(1))
}

fn format_time(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.2} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.3} µs", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.3} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// The sample count of a benchmark asking for `samples`.
fn sample_count(samples: usize) -> usize {
    // CRITERION_SAMPLES overrides every bench's own sample count and may
    // go below the usual floor of 3 — the bench smoke test runs each
    // harness for one sample under `cargo test`.
    std::env::var("CRITERION_SAMPLES")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .map(|v| v.max(1))
        .unwrap_or_else(|| samples.max(3))
}

fn run_one(
    full_name: &str,
    samples: usize,
    throughput: Option<Throughput>,
    meta: &[(String, f64)],
    f: &mut dyn FnMut(&mut Bencher),
) {
    let mut bencher = Bencher::new(sample_count(samples));
    f(&mut bencher);
    report(full_name, throughput, meta, &bencher);
}

/// Prints a measured benchmark and appends it to `CRITERION_JSON`.
fn report(
    full_name: &str,
    throughput: Option<Throughput>,
    meta: &[(String, f64)],
    bencher: &Bencher,
) {
    let ns = bencher.result_ns;
    let mut line = format!("{full_name:<48} time: {:>12}/iter", format_time(ns));
    if let Some(Throughput::Elements(e)) = throughput {
        let rate = e as f64 / (ns * 1e-9);
        line.push_str(&format!("   thrpt: {:.3} Melem/s", rate / 1e6));
    }
    if let Some(Throughput::Bytes(b)) = throughput {
        let rate = b as f64 / (ns * 1e-9);
        line.push_str(&format!("   thrpt: {:.3} MiB/s", rate / (1024.0 * 1024.0)));
    }
    println!("{line}");
    if let Ok(path) = std::env::var("CRITERION_JSON") {
        if let Ok(mut file) =
            std::fs::OpenOptions::new().create(true).append(true).open(path)
        {
            let [p25, p50, p75] = bencher.quartiles_ns;
            let mut extra = String::new();
            for (key, value) in meta {
                extra.push_str(&format!(", \"{}\": {}", key.replace('"', "'"), value));
            }
            let _ = writeln!(
                file,
                "{{\"bench\": \"{}\", \"mean_ns\": {}, \"median_ns\": {}, \"p25_ns\": {}, \
                 \"p75_ns\": {}, \"samples\": {}, \"iters\": {}{}}}",
                full_name.replace('"', "'"),
                ns,
                p50,
                p25,
                p75,
                bencher.samples,
                bencher.total_iters,
                extra,
            );
        }
    }
}

/// The benchmark manager handed to `criterion_group!` targets.
pub struct Criterion {
    default_samples: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { default_samples: 12 }
    }
}

impl Criterion {
    /// Runs one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        run_one(&id.into_id(), self.default_samples, None, &[], &mut f);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let samples = self.default_samples;
        BenchmarkGroup {
            _parent: self,
            name: name.into(),
            samples,
            throughput: None,
            meta: Vec::new(),
        }
    }
}

/// A group of related benchmarks sharing a name prefix and settings.
pub struct BenchmarkGroup<'a> {
    _parent: &'a mut Criterion,
    name: String,
    samples: usize,
    throughput: Option<Throughput>,
    meta: Vec<(String, f64)>,
}

impl BenchmarkGroup<'_> {
    /// Sets the per-benchmark sample count.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n;
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Attaches numeric metadata (problem size, nnz, modelled
    /// bytes-per-update, …) recorded as extra fields on every subsequent
    /// benchmark's JSON line. Sticky until the next call replaces it.
    /// Extension over the real criterion API: auditable roofline claims
    /// need the workload parameters next to the timing.
    pub fn meta(&mut self, entries: &[(&str, f64)]) -> &mut Self {
        self.meta = entries.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        self
    }

    /// Runs one benchmark in the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl IntoBenchmarkId,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_id());
        run_one(&full, self.samples, self.throughput, &self.meta, &mut f);
        self
    }

    /// Runs several benchmarks with their samples interleaved: each is
    /// calibrated on its own, then every round of sampling times one
    /// batch of each in turn, so a drift in the host's speed reaches them
    /// alike. Each reports as its own benchmark of the group. Extension
    /// over the real criterion API: an A/B comparison on a shared host
    /// needs its arms measured side by side.
    pub fn bench_interleaved(&mut self, arms: &mut [(&str, &mut dyn FnMut())]) -> &mut Self {
        let samples = sample_count(self.samples);
        let mut benchers: Vec<Bencher> = arms.iter().map(|_| Bencher::new(samples)).collect();
        let batches: Vec<u64> =
            arms.iter_mut().zip(&benchers).map(|((_, f), b)| b.calibrate(*f)).collect();
        let mut per_iter = vec![Vec::with_capacity(samples); arms.len()];
        for _ in 0..samples {
            for (k, (_, f)) in arms.iter_mut().enumerate() {
                per_iter[k].push(time_batch(batches[k], *f));
            }
        }
        for (k, times) in per_iter.into_iter().enumerate() {
            benchers[k].summarise(times, batches[k] * (samples as u64 + 1));
            let name = format!("{}/{}", self.name, arms[k].0);
            report(&name, self.throughput, &self.meta, &benchers[k]);
        }
        self
    }

    /// Runs one benchmark that borrows an input value.
    pub fn bench_with_input<I: ?Sized, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let full = format!("{}/{}", self.name, id.into_id());
        run_one(&full, self.samples, self.throughput, &self.meta, &mut |b| f(b, input));
        self
    }

    /// Ends the group (report flushing is immediate; this is for API
    /// compatibility).
    pub fn finish(&mut self) {}
}

/// Declares a bench group function calling each target with a fresh
/// [`Criterion`].
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_measures_something() {
        let mut b = Bencher { sample_budget: Duration::from_millis(1), ..Bencher::new(3) };
        b.iter(|| black_box((0..100u64).sum::<u64>()));
        assert!(b.result_ns.is_finite() && b.result_ns > 0.0);
        let [p25, p50, p75] = b.quartiles_ns;
        assert!(0.0 < p25 && p25 <= p50 && p50 <= p75, "{:?}", b.quartiles_ns);
        assert!(b.total_iters > 0);
    }

    #[test]
    fn interleaved_arms_take_their_samples_in_turn() {
        let order = std::cell::RefCell::new(Vec::new());
        let mut a = || order.borrow_mut().push('a');
        let mut b = || order.borrow_mut().push('b');
        let mut c = Criterion::default();
        let mut group = c.benchmark_group("interleaved");
        group.sample_size(4);
        group.bench_interleaved(&mut [("a", &mut a), ("b", &mut b)]);
        let order = order.into_inner();
        // After each arm's warm-up, the timed batches alternate.
        let a_calls = order.iter().filter(|&&c| c == 'a').count();
        let b_calls = order.len() - a_calls;
        assert!(a_calls > 4 && b_calls > 4, "{a_calls} {b_calls}");
        let timed: Vec<char> = order.iter().copied().skip_while(|&c| c == 'a').collect();
        assert_eq!(timed.first(), Some(&'b'), "b warms up after a");
        assert!(timed.windows(2).filter(|w| w[0] != w[1]).count() >= 2 * 4 - 1);
    }

    #[test]
    fn benchmark_ids_render() {
        assert_eq!(BenchmarkId::new("f", 5).into_id(), "f/5");
        assert_eq!(BenchmarkId::from_parameter("x").into_id(), "x");
        assert_eq!("plain".into_id(), "plain");
    }

    #[test]
    fn quantiles_interpolate_between_samples() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(quantile(&s, 0.5), 3.0);
        assert_eq!(quantile(&s, 0.25), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.25);
        assert_eq!(quantile(&[7.0], 0.25), 7.0);
    }

    #[test]
    fn format_time_units() {
        assert!(format_time(12.0).ends_with("ns"));
        assert!(format_time(12_000.0).ends_with("µs"));
        assert!(format_time(12_000_000.0).ends_with("ms"));
        assert!(format_time(12_000_000_000.0).ends_with(" s"));
    }
}
