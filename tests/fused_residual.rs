//! Acceptance tests for the fused residual estimation pipeline: the
//! worker-side sub-norm estimates must agree with the exact residual
//! (bit-tight at `k = 1`, where the Jacobi delta identity makes the
//! estimate the exact residual of the read snapshot), the monitor's
//! fused fast path must never be able to stop a run the exact check
//! would reject (the confirmation gate, probed with deliberately lying
//! estimators in both directions), and the poll-cost pacing floor must
//! keep the monitor's poll count bounded when each check is expensive —
//! the property that makes the concurrent monitor affordable at
//! multi-million-row sizes.

use block_async_relax::core::async_block::AsyncJacobiKernel;
use block_async_relax::core::{LocalSweep, ResidualMonitor, FUSED_GUARD_BAND, URGENT_BAND};
use block_async_relax::gpu::kernel::AllowAll;
use block_async_relax::gpu::schedule::RoundRobin;
use block_async_relax::gpu::{
    BlockKernel, BlockScratch, ConvergenceMonitor, PersistentExecutor, PersistentOptions,
    PersistentWorkspace, RunSession, XView,
};
use block_async_relax::sparse::gen::{laplacian_2d_5pt, random_diag_dominant};
use block_async_relax::sparse::{BlockPlan, CsrMatrix, ParContext, RowPartition};
use proptest::prelude::*;
use std::time::{Duration, Instant};

/// Independent residual check: `||b - Ax||_2 / ||b||_2` computed directly,
/// so no assertion trusts the solver's own bookkeeping.
fn rel_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let ax = a.mul_vec(x).expect("square");
    let num: f64 = b.iter().zip(&ax).map(|(bi, ai)| (bi - ai) * (bi - ai)).sum();
    let den: f64 = b.iter().map(|bi| bi * bi).sum();
    (num / den).sqrt()
}

/// A deterministic pseudo-random iterate, varied by seed.
fn probe_iterate(n: usize, seed: u64) -> Vec<f64> {
    (0..n).map(|i| (seed as f64 * 0.61 + i as f64 * 0.73).sin() * 2.0).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// At `k = 1` the Jacobi update law makes the fused estimate the
    /// *exact* residual of the snapshot the update read:
    /// `r_i = a_ii (sweep_i - x_i) = (new_i - x_i) / (tau * inv_diag_i)`.
    /// Summed over all blocks against one fixed iterate, the estimates
    /// must reproduce `||b - A x||^2` to rounding.
    #[test]
    fn fused_estimate_is_exact_at_k1(
        seed in 0u64..300,
        block in 2usize..17,
        damp_idx in 0usize..2,
    ) {
        let n = 48;
        let a = random_diag_dominant(n, 4, 1.4, seed);
        let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
        let p = RowPartition::uniform(n, block).expect("partition");
        let damping = [1.0, 0.8][damp_idx];
        let kernel =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 1, damping, LocalSweep::Jacobi)
                .expect("diag dominant");
        let x = probe_iterate(n, seed);
        let view = XView::Plain(&x);
        let mut scratch = BlockScratch::new();
        let mut fused = 0.0;
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            let mut out = vec![0.0; e - s];
            let est = kernel
                .update_block_estimating(b, &view, &mut out, &mut scratch)
                .expect("the async-(k) kernel must estimate");
            prop_assert!(est.is_finite() && est >= 0.0);
            fused += est;
        }
        let ax = a.mul_vec(&x).expect("square");
        let exact: f64 = rhs.iter().zip(&ax).map(|(b, v)| (b - v) * (b - v)).sum();
        let rel = (fused - exact).abs() / exact.max(1e-30);
        prop_assert!(rel < 1e-8, "fused {fused} vs exact {exact}, rel {rel}");
    }

    /// At `k > 1` the Jacobi estimate is the residual of the *previous*
    /// inner iterate (with the off-block part frozen at the snapshot) —
    /// checked against a from-scratch recomputation: run `k - 1` sweeps
    /// separately to reconstruct that iterate, splice it into the
    /// snapshot, and evaluate the true residual restricted to the block.
    #[test]
    fn fused_estimate_matches_reference_recomputation_at_k3(
        seed in 0u64..150,
        block in 3usize..13,
    ) {
        let n = 42;
        let k = 3;
        let a = random_diag_dominant(n, 4, 1.4, seed);
        let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
        let p = RowPartition::uniform(n, block).expect("partition");
        let kernel = AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k, 1.0, LocalSweep::Jacobi)
            .expect("diag dominant");
        let prev_kernel =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, k - 1, 1.0, LocalSweep::Jacobi)
                .expect("diag dominant");
        let x = probe_iterate(n, seed ^ 0x5a5a);
        let view = XView::Plain(&x);
        let mut scratch = BlockScratch::new();
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            let mut out = vec![0.0; e - s];
            let est = kernel
                .update_block_estimating(b, &view, &mut out, &mut scratch)
                .expect("estimate");
            let mut prev = vec![0.0; e - s];
            prev_kernel.update_block_with(b, &view, &mut prev, &mut scratch);
            // The reference: residual rows of the block against the
            // snapshot with the block's rows replaced by the (k-1)-th
            // inner iterate — exactly what the estimator claims to price.
            let mut spliced = x.clone();
            spliced[s..e].copy_from_slice(&prev);
            let ax = a.mul_vec(&spliced).expect("square");
            let reference: f64 =
                (s..e).map(|i| (rhs[i] - ax[i]) * (rhs[i] - ax[i])).sum();
            // The floor absorbs blocks that have already converged to
            // rounding level, where both sides are pure noise (~1e-31).
            let rel = (est - reference).abs() / reference.max(1e-20);
            prop_assert!(rel < 1e-8, "block {b}: est {est} vs reference {reference}");
        }
    }

    /// The Gauss-Seidel path cannot use the delta identity (the sweep is
    /// in place), so it prices an explicit local residual pass — which
    /// must always produce a finite, non-negative sub-norm.
    #[test]
    fn gs_estimate_is_finite_and_nonnegative(seed in 0u64..100) {
        let n = 40;
        let a = random_diag_dominant(n, 4, 1.5, seed);
        let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
        let p = RowPartition::uniform(n, 8).expect("partition");
        let kernel =
            AsyncJacobiKernel::with_sweep(&a, &rhs, &p, 2, 1.0, LocalSweep::GaussSeidel)
                .expect("diag dominant");
        let x = probe_iterate(n, seed);
        let view = XView::Plain(&x);
        let mut scratch = BlockScratch::new();
        for b in 0..kernel.n_blocks() {
            let (s, e) = kernel.block_range(b);
            let mut out = vec![0.0; e - s];
            let est = kernel
                .update_block_estimating(b, &view, &mut out, &mut scratch)
                .expect("estimate");
            prop_assert!(est.is_finite() && est >= 0.0, "block {b}: {est}");
        }
    }

    /// Satellite: the parallel plan compile is bit-identical to the
    /// sequential one on random systems, for every thread count
    /// (`BlockPlan` derives `PartialEq` over every packed array).
    #[test]
    fn parallel_compile_is_bit_identical_on_random_systems(
        seed in 0u64..200,
        block in 3usize..20,
    ) {
        let n = 72;
        let a = random_diag_dominant(n, 5, 1.3, seed);
        let p = RowPartition::uniform(n, block).expect("partition");
        let seq = BlockPlan::compile_with_ctx(&a, &p, None, ParContext::new(1))
            .expect("compile");
        for threads in [2usize, 5, 16] {
            let par = BlockPlan::compile_with_ctx(&a, &p, None, ParContext::new(threads))
                .expect("compile");
            prop_assert_eq!(&seq, &par, "threads {}", threads);
        }
    }
}

/// A kernel that updates honestly but lies about its residual estimate —
/// the adversarial probe for the confirmation gate.
struct LyingKernel<'a> {
    inner: AsyncJacobiKernel<'a>,
    claim: f64,
}

impl BlockKernel for LyingKernel<'_> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn n_blocks(&self) -> usize {
        self.inner.n_blocks()
    }
    fn block_range(&self, b: usize) -> (usize, usize) {
        self.inner.block_range(b)
    }
    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
        self.inner.update_block(b, x, out);
    }
    fn update_block_with(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        self.inner.update_block_with(b, x, out, scratch);
    }
    fn update_block_estimating(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) -> Option<f64> {
        self.inner.update_block_with(b, x, out, scratch);
        Some(self.claim)
    }
}

fn run_lying_solve(
    claim: f64,
    fuse_residuals: bool,
) -> (Vec<f64>, CsrMatrix, Vec<f64>, block_async_relax::gpu::PersistentReport) {
    let a = laplacian_2d_5pt(8); // n = 64
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let p = RowPartition::uniform(n, 8).expect("partition");
    let inner = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).expect("diag dominant");
    let kernel = LyingKernel { inner, claim };
    let tol = 1e-8;
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: 4,
        fuse_residuals,
        ..PersistentOptions::default()
    });
    let mut monitor = ResidualMonitor::new(&a, &rhs, tol, 1);
    let mut ws = PersistentWorkspace::new();
    let mut x = vec![0.0; n];
    let (_, report) = exec.run_session(
        &kernel,
        &mut x,
        20_000,
        &mut RoundRobin,
        &AllowAll,
        &mut monitor,
        &mut ws,
        RunSession::default(),
    );
    (x, a, rhs, report)
}

/// The confirmation gate, attacked from below: a kernel that claims a
/// zero residual on every update. If the fused estimate could declare
/// convergence, the run would stop after the first poll with a residual
/// near 1; instead every poll must escalate to the exact check, and the
/// run stops only once the true residual crosses the tolerance.
#[test]
fn lying_zero_estimate_cannot_stop_before_the_exact_tolerance() {
    let (x, a, rhs, report) = run_lying_solve(0.0, true);
    assert!(report.stopped_at.is_some(), "solve must still converge");
    assert!(report.checks >= 1, "exact checks must have run");
    assert_eq!(
        report.fused_checks, 0,
        "an estimate at the tolerance must always escalate, never skip"
    );
    let rr = rel_residual(&a, &rhs, &x);
    assert!(rr <= 1e-8, "stopped with residual {rr} above the tolerance");
}

/// The gate attacked from above: a kernel that claims an enormous
/// residual forever. The fused path then skips polls, but the forced
/// exact check every `FUSED_FORCE_EXACT_EVERY` fused polls still finds
/// convergence — a lying estimator can delay the stop, never prevent it
/// (and never fake it).
#[test]
fn lying_huge_estimate_cannot_starve_the_exact_check() {
    let (x, a, rhs, report) = run_lying_solve(1e30, true);
    assert!(report.stopped_at.is_some(), "forced exact checks must still stop the run");
    assert!(report.fused_checks > 0, "the huge estimate should have skipped some polls");
    assert!(report.checks >= 1);
    let rr = rel_residual(&a, &rhs, &x);
    assert!(rr <= 1e-8, "stopped with residual {rr} above the tolerance");
}

/// Fusion off is the exact-only monitor: no slot is ever published, so
/// even an estimate that would skip polls is never consulted and every
/// poll is an exact check.
#[test]
fn unfused_runs_answer_every_poll_with_the_exact_check() {
    let (x, a, rhs, report) = run_lying_solve(1e30, false);
    assert!(report.stopped_at.is_some(), "solve must still converge");
    assert!(report.checks >= 1);
    assert_eq!(report.fused_checks, 0, "no poll may be answered by an estimate");
    let rr = rel_residual(&a, &rhs, &x);
    assert!(rr <= 1e-8, "stopped with residual {rr} above the tolerance");
}

/// The endgame waiver is armed by the exact check, never the estimate:
/// `urgent()` stays false while checks land far from the tolerance (the
/// executor keeps its expensive-poll pacing floor), arms once a check
/// lands within `URGENT_BAND` of it, and disarms again if the residual
/// moves back out of the window. Deterministic — iterates with known
/// relative residuals are fed to the monitor directly.
#[test]
fn urgency_follows_the_exact_residual_into_the_endgame() {
    let a = laplacian_2d_5pt(8); // n = 64
    let n = a.n_rows();
    let x_true = vec![1.0; n];
    let rhs = a.mul_vec(&x_true).expect("square");
    let tol = 1e-8;
    let mut monitor = ResidualMonitor::new(&a, &rhs, tol, 1);
    assert!(!monitor.urgent(), "a fresh monitor has no evidence of nearness");

    // rr scales linearly in the perturbation: measure it at delta = 1,
    // then place iterates at chosen multiples of the tolerance.
    let mut probe = x_true.clone();
    probe[0] += 1.0;
    let base = rel_residual(&a, &rhs, &probe);
    let at = |rr_target: f64| {
        let mut x = x_true.clone();
        x[0] += rr_target / base;
        x
    };

    assert!(!monitor.check(1, &at(tol * URGENT_BAND * 100.0)), "far from converged");
    assert!(!monitor.urgent(), "a check far above the band must not arm the waiver");

    assert!(!monitor.check(2, &at(tol * URGENT_BAND / 2.0)), "inside the band, above tol");
    assert!(monitor.urgent(), "a near-miss check must arm the waiver");

    assert!(!monitor.check(3, &at(tol * URGENT_BAND * 100.0)));
    assert!(!monitor.urgent(), "moving back out of the window must disarm it");

    assert!(monitor.check(4, &at(tol / 2.0)), "below tol stops the run");
}

/// A monitor that records the fused estimate offered for each poll,
/// always escalates, and compares the estimate against the exact
/// residual computed from the same poll's snapshot.
struct AuditMonitor<'a> {
    inner: ResidualMonitor<'a>,
    rhs_norm: f64,
    pending: Option<f64>,
    worst_ratio: f64,
    audited: usize,
}

impl ConvergenceMonitor for AuditMonitor<'_> {
    fn period(&self) -> usize {
        1
    }
    fn check(&mut self, gi: usize, x: &[f64]) -> bool {
        let stop = self.inner.check(gi, x);
        let exact = self.inner.checks.last().expect("just checked").1;
        if let Some(est) = self.pending.take() {
            if exact > 0.0 && est > 0.0 {
                self.worst_ratio = self.worst_ratio.max((est / exact).max(exact / est));
                self.audited += 1;
            }
        }
        stop
    }
    fn fused_check(&mut self, _gi: usize, estimate_sq: f64) -> bool {
        self.pending = Some(estimate_sq.sqrt() / self.rhs_norm);
        true
    }
}

/// The guard band is honest: at `k = 1` with one worker (so estimates
/// lag the snapshot by at most a round), the fused relative-residual
/// estimate agrees with the exact residual at every poll to well within
/// `FUSED_GUARD_BAND` — the margin inside which the monitor refuses to
/// skip exact checks. How many polls land inside any one solve depends
/// on build flavour and scheduling (a release-mode solve of this size
/// can outrun the monitor entirely), so the audit accumulates across
/// repeated solves until enough polls were scored.
#[test]
fn fused_estimate_tracks_exact_residual_within_the_guard_band() {
    let a = laplacian_2d_5pt(16); // n = 256
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let p = RowPartition::uniform(n, 16).expect("partition");
    let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 1, 1.0).expect("diag dominant");
    let rhs_norm = rhs.iter().map(|b| b * b).sum::<f64>().sqrt();
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: 1,
        monitor_pause: Duration::from_micros(1),
        ..PersistentOptions::default()
    });
    let mut worst_ratio = 1.0f64;
    let mut audited = 0usize;
    for _ in 0..200 {
        let mut monitor = AuditMonitor {
            inner: ResidualMonitor::new(&a, &rhs, 1e-8, 1),
            rhs_norm,
            pending: None,
            worst_ratio: 1.0,
            audited: 0,
        };
        let mut ws = PersistentWorkspace::new();
        let mut x = vec![0.0; n];
        let (_, report) = exec.run_session(
            &kernel,
            &mut x,
            50_000,
            &mut RoundRobin,
            &AllowAll,
            &mut monitor,
            &mut ws,
            RunSession::default(),
        );
        assert!(report.stopped_at.is_some(), "solve must converge");
        worst_ratio = worst_ratio.max(monitor.worst_ratio);
        audited += monitor.audited;
        if audited >= 10 {
            break;
        }
    }
    assert!(audited >= 10, "too few audited polls across 200 solves: {audited}");
    assert!(
        worst_ratio < FUSED_GUARD_BAND,
        "estimate strayed {worst_ratio}x from the exact residual — outside the guard band"
    );
}

/// A monitor whose every exact check costs a fixed wall-clock amount and
/// never stops — the probe for the poll-cost pacing floor.
struct SlowMonitor {
    cost: Duration,
}

impl ConvergenceMonitor for SlowMonitor {
    fn period(&self) -> usize {
        1
    }
    fn check(&mut self, _gi: usize, _x: &[f64]) -> bool {
        std::thread::sleep(self.cost);
        false
    }
}

/// Satellite regression: the monitor paces itself by the measured poll
/// cost, so an expensive check cannot fire back-to-back no matter how
/// fast the watermark advances. With the 3x-cost sleep floor, poll count
/// is bounded by roughly elapsed / (4 * cost); without it (period 1,
/// fast rounds) polls chain continuously and the count approaches
/// elapsed / cost.
#[test]
fn poll_count_stays_bounded_when_checks_are_expensive() {
    let a = laplacian_2d_5pt(32); // n = 1024
    let n = a.n_rows();
    let rhs = a.mul_vec(&vec![1.0; n]).expect("square");
    let p = RowPartition::uniform(n, 16).expect("partition");
    let kernel = AsyncJacobiKernel::new(&a, &rhs, &p, 5, 1.0).expect("diag dominant");
    let cost = Duration::from_millis(4);
    let exec = PersistentExecutor::new(PersistentOptions {
        n_workers: 2,
        ..PersistentOptions::default()
    });
    let mut monitor = SlowMonitor { cost };
    let mut ws = PersistentWorkspace::new();
    let mut x = vec![0.0; n];
    let started = Instant::now();
    let (_, report) = exec.run_session(
        &kernel,
        &mut x,
        2_000,
        &mut RoundRobin,
        &AllowAll,
        &mut monitor,
        &mut ws,
        RunSession::default(),
    );
    let elapsed = started.elapsed();
    let polls = report.checks + report.fused_checks;
    assert!(polls >= 1, "the monitor never polled at all");
    // Generous bound (floor gives ~elapsed / (4 * cost)): regression to
    // unpaced polling lands near elapsed / cost and fails it clearly.
    let bound = (elapsed.as_secs_f64() / (2.0 * cost.as_secs_f64())).ceil() as usize + 5;
    assert!(
        polls <= bound,
        "{polls} polls of cost {cost:?} in {elapsed:?} — pacing floor is not applied"
    );
}
