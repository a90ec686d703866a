//! The four workloads and what they share: configuration, repeated
//! set-up, the closed timed loop, and the seeded input generator.

mod fv;
mod serve;
mod table1;

use crate::api::SolveResult;
use crate::metrics::Outcome;
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Workload names, in the order the all-workloads run uses.
pub const WORKLOADS: [&str; 4] = ["solve_fv1m", "table1_mtx", "serve_repeat", "serve_ingest"];

/// Set-ups per run; `setup_s` reports their median.
const SETUP_REPS: usize = 5;

/// How one run is configured.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Input seed: the same seed gives the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: f64,
    /// Toy sizes and fixed op counts, for the smoke test.
    pub smoke: bool,
    /// A scratch directory inside the checkout for generated files.
    pub work_dir: PathBuf,
}

/// Runs workload `name`.
pub fn run(name: &str, cfg: &Cfg, tracer: &mut Tracer) -> Result<Outcome, String> {
    match name {
        "solve_fv1m" => fv::run(cfg, tracer),
        "table1_mtx" => table1::run(cfg, tracer),
        "serve_repeat" => serve::run(serve::Kind::Repeat, cfg, tracer),
        "serve_ingest" => serve::run(serve::Kind::Ingest, cfg, tracer),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {WORKLOADS:?})"
        )),
    }
}

/// Builds the workload's state `SETUP_REPS` times (once when smoke
/// testing), timing each build, and keeps the last. Earlier states are
/// dropped before the next build starts, so peak memory holds one.
fn set_up<S>(
    cfg: &Cfg,
    mut build: impl FnMut() -> Result<S, String>,
) -> Result<(S, Vec<f64>), String> {
    let reps = if cfg.smoke { 1 } else { SETUP_REPS };
    let mut times = Vec::with_capacity(reps);
    let mut state = None;
    for _ in 0..reps {
        drop(state.take());
        let t0 = Instant::now();
        state = Some(build()?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((state.expect("at least one set-up"), times))
}

/// Whether a closed loop that has done `done` ops since `start` stops:
/// after `smoke_ops` ops in a smoke run, otherwise once `seconds` have
/// passed (and at least one op ran).
fn loop_done(cfg: &Cfg, smoke_ops: u64, done: u64, start: Instant) -> bool {
    if cfg.smoke {
        done >= smoke_ops
    } else {
        done > 0 && start.elapsed().as_secs_f64() >= cfg.seconds
    }
}

/// The single-caller closed loop: `op(i)` runs op `i` and returns its
/// latency in milliseconds. Returns the latencies and the loop's wall
/// seconds.
fn timed_loop(
    cfg: &Cfg,
    smoke_ops: u64,
    mut op: impl FnMut(u64) -> Result<f64, String>,
) -> Result<(Vec<f64>, f64), String> {
    let start = Instant::now();
    let mut latencies = Vec::new();
    while !loop_done(cfg, smoke_ops, latencies.len() as u64, start) {
        latencies.push(op(latencies.len() as u64)?);
    }
    Ok((latencies, start.elapsed().as_secs_f64()))
}

/// A library solve from `x = 0` as a caller holding the returned iterate
/// runs it: `solve(x0)` runs the solve from `x0`, and when the first
/// solve stopped within its `max_iters` budget yet returned an iterate
/// above tol (`converged == false`), the solve is run once more from that
/// iterate. That happens when the concurrent monitor stops on a snapshot
/// below tol and the updates still in flight lift the iterate just above
/// it; in about one Chem97ZtZ solve in 2,000 it would otherwise fail an
/// op, and runs of the same inputs would not fail alike. Returns the
/// answer (its `iterations` summed over both solves) and, when resumed,
/// the first solve's final residual and iterations.
fn solve_resuming(
    n: usize,
    max_iters: usize,
    mut solve: impl FnMut(&[f64]) -> Result<SolveResult, String>,
) -> Result<(SolveResult, Option<(f64, usize)>), String> {
    let first = solve(&vec![0.0; n])?;
    if first.converged || first.iterations >= max_iters {
        return Ok((first, None));
    }
    let mut resumed = solve(&first.x)?;
    resumed.iterations += first.iterations;
    Ok((resumed, Some((first.final_residual, first.iterations))))
}

/// SplitMix64: a small, seedable generator for the workloads' inputs.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for stream `stream` of seed `seed`.
    pub fn new(seed: u64, stream: u64) -> SplitMix {
        let mut g = SplitMix(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03));
        g.next_u64();
        g
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `n` values uniform in `[lo, hi)`.
    pub fn vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| lo + (hi - lo) * self.unit()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(x: f64, iterations: usize, converged: bool) -> SolveResult {
        SolveResult {
            x: vec![x; 2],
            iterations,
            converged,
            final_residual: if converged { 1e-9 } else { 2e-8 },
            history: Vec::new(),
            fault: None,
        }
    }

    #[test]
    fn only_a_late_stop_is_resumed_and_from_the_returned_iterate() {
        let mut starts = Vec::new();
        let mut late = |x0: &[f64]| {
            starts.push(x0[0]);
            Ok(answer(x0[0] + 1.0, 30, x0[0] > 0.0))
        };
        let (r, resumed) = solve_resuming(2, 100, &mut late).unwrap();
        assert_eq!(starts, [0.0, 1.0], "second solve starts from the first's x");
        assert!(r.converged);
        assert_eq!(r.iterations, 60);
        assert_eq!(resumed, Some((2e-8, 30)));

        let (r, resumed) = solve_resuming(2, 100, |_| Ok(answer(1.0, 20, true))).unwrap();
        assert_eq!((r.iterations, resumed), (20, None));
        let (r, resumed) = solve_resuming(2, 100, |_| Ok(answer(1.0, 100, false))).unwrap();
        assert_eq!(
            (r.converged, resumed),
            (false, None),
            "a spent budget is a failure, not a late stop"
        );
    }

    #[test]
    fn the_same_seed_and_stream_give_the_same_inputs() {
        let a = SplitMix::new(7, 3).vec(5, -1.0, 1.0);
        assert_eq!(a, SplitMix::new(7, 3).vec(5, -1.0, 1.0));
        assert_ne!(a, SplitMix::new(7, 4).vec(5, -1.0, 1.0));
        assert_ne!(a, SplitMix::new(8, 3).vec(5, -1.0, 1.0));
        assert!(a.iter().all(|v| (-1.0..1.0).contains(v)));
    }
}
