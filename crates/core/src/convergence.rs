//! Solver options, results, and residual bookkeeping shared by every
//! method in this crate.

use abr_sparse::block_plan::PAR_COMPILE_MIN_NNZ;
use abr_sparse::par::ParContext;
use abr_sparse::simd::Isa;
use abr_sparse::{blas1, BlockPlan, CsrMatrix};

/// Options common to all iterative solvers.
#[derive(Debug, Clone)]
pub struct SolveOptions {
    /// Hard iteration limit (global iterations for block methods).
    pub max_iters: usize,
    /// Relative-residual stopping tolerance `||b - Ax|| / ||b||`.
    /// Set to `0.0` to always run `max_iters` iterations (the convention
    /// of the paper's convergence plots).
    pub tol: f64,
    /// Record the relative residual after every (global) iteration.
    /// Honoured by the sequential solvers and by async-(k) on the sim
    /// executor; a threaded async-(k) solve ignores it and returns an
    /// empty history.
    pub record_history: bool,
    /// How many (global) iterations to run between exact residual checks
    /// when `tol > 0`; `0` reads as `1`. Honoured by Jacobi, Gauss-Seidel,
    /// damped Jacobi, block-Jacobi and async-(k) on either executor (for
    /// async-(k) each check is a synchronisation point of the host loop,
    /// not of the iteration itself). CG, PCG and Chebyshev check their own
    /// residual every iteration, and multigrid checks the exact residual
    /// after every V-cycle, whatever this says.
    pub check_every: usize,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions { max_iters: 1000, tol: 1e-12, record_history: false, check_every: 10 }
    }
}

impl SolveOptions {
    /// Convenience: run exactly `iters` iterations, recording the history
    /// (the configuration used by the paper's convergence figures).
    pub fn fixed_iterations(iters: usize) -> Self {
        SolveOptions { max_iters: iters, tol: 0.0, record_history: true, check_every: 10 }
    }

    /// Convenience: iterate to relative residual `tol` (at most
    /// `max_iters`).
    pub fn to_tolerance(tol: f64, max_iters: usize) -> Self {
        SolveOptions { max_iters, tol, record_history: false, check_every: 10 }
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct SolveResult {
    /// Final solution approximation.
    pub x: Vec<f64>,
    /// Iterations performed (global iterations for block methods).
    pub iterations: usize,
    /// Whether the tolerance was reached within `max_iters`.
    pub converged: bool,
    /// Final relative residual `||b - Ax||_2 / ||b||_2` of [`x`](Self::x).
    /// When a check stopped the run, it is that check's residual.
    pub final_residual: f64,
    /// Relative residual after each iteration (empty unless
    /// `record_history`, and always empty for a threaded async-(k) solve).
    /// `history[k]` is the residual after iteration `k + 1`.
    pub history: Vec<f64>,
    /// What the persistent executor's fault runtime did: detected worker
    /// deaths, recovery reassignments, per-block frozen spans, isolated
    /// panics (empty when no fault fired). `Some` for every threaded
    /// async-(k) solve, `None` for the sim executor and every other
    /// solver. See [`abr_gpu::FaultReport`] and
    /// [`solve_session`](crate::AsyncBlockSolver::solve_session).
    pub fault: Option<abr_gpu::FaultReport>,
}

/// Relative residual `||b - Ax||_2 / ||b||_2` (`||r||` itself when
/// `b = 0`).
///
/// Systems with at least [`PAR_COMPILE_MIN_NNZ`] nonzeros run the SpMV
/// through [`ParContext::paper_cpu`] — the paper's 4-core host-side
/// configuration (§3.2), which parallelises row chunks. Smaller ones run
/// the sequential kernel: there, spawning the chunk threads costs more
/// than the multiply (a 7,840-nonzero check is microseconds of work).
/// The per-row accumulation order is identical either way, so the
/// residual is bit-identical to the sequential computation at every
/// size. The norms stay sequential: a chunked reduction would change
/// the summation order and with it the convergence histories.
pub fn relative_residual(a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut r = vec![0.0; a.n_rows()];
    relative_residual_with(&mut r, a, b, x)
}

/// [`relative_residual`] with a caller-provided scratch buffer for the
/// residual vector, so repeated checks inside a solve loop (or a
/// concurrent convergence monitor) allocate nothing. `buf` is resized to
/// `a.n_rows()` on first use and reused afterwards; its contents on entry
/// are irrelevant, on exit it holds `b - Ax`. Bit-identical to
/// [`relative_residual`].
pub fn relative_residual_with(buf: &mut Vec<f64>, a: &CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    matrix_residual(buf, a, b, blas1::norm2(b), x)
}

/// [`relative_residual_with`] with `‖b‖₂` given. The product writes
/// every row of `buf`, so the buffer is only sized, never cleared.
fn matrix_residual(buf: &mut Vec<f64>, a: &CsrMatrix, b: &[f64], b_norm: f64, x: &[f64]) -> f64 {
    buf.resize(a.n_rows(), 0.0);
    if a.nnz() >= PAR_COMPILE_MIN_NNZ {
        ParContext::paper_cpu().spmv(a, x, buf)
    } else {
        a.spmv(x, buf)
    }
    .expect("dimensions checked by solver entry");
    residual_norm(buf, b, b_norm)
}

/// [`relative_residual_with`] for the operator of a stencil plan (one
/// compiled with a [`abr_sparse::StencilDescriptor`], which verified that
/// it describes the matrix exactly): `A x` is computed from the plan's
/// stencil runs on one thread, with no stored matrix read, and the result
/// is bit-identical to [`relative_residual_with`] of that matrix. Each
/// row accumulates its taps and centre from `0.0` in ascending column
/// order, as the stored-matrix product does, and the norms are the same
/// sequential sums. The product is formed one block at a time, so `buf`
/// is scratch for one block's rows (it does not hold `b − A x` on exit).
///
/// # Panics
///
/// When `plan` is not a stencil plan.
pub fn stencil_relative_residual_with(
    buf: &mut Vec<f64>,
    plan: &BlockPlan,
    b: &[f64],
    x: &[f64],
) -> f64 {
    relative(
        crate::async_block::stencil_residual_norm(Isa::detect(), plan, b, x, buf),
        blas1::norm2(b),
    )
}

/// Turns `buf = A x` into `b - A x` and returns its norm relative to
/// `b_norm = ‖b‖₂` (absolute when `b = 0`).
fn residual_norm(buf: &mut [f64], b: &[f64], b_norm: f64) -> f64 {
    for (ri, &bi) in buf.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    relative(blas1::norm2(buf), b_norm)
}

/// A residual norm relative to `b_norm = ‖b‖₂` (absolute when `b = 0`).
fn relative(norm: f64, b_norm: f64) -> f64 {
    if b_norm == 0.0 {
        norm
    } else {
        norm / b_norm
    }
}

/// What the exact checks of one solve share: the right-hand side and its
/// norm `‖b‖₂`, summed once (with [`blas1::norm2`]'s sequential sum, so
/// every check's bits are those of [`relative_residual_with`]), and, for
/// a stencil plan, the plan and the instruction set its product runs
/// under, detected once.
#[derive(Clone, Copy)]
pub(crate) struct ExactCheck<'a> {
    a: &'a CsrMatrix,
    stencil: Option<(&'a BlockPlan, Isa)>,
    b: &'a [f64],
    b_norm: f64,
}

impl<'a> ExactCheck<'a> {
    pub(crate) fn new(a: &'a CsrMatrix, b: &'a [f64]) -> Self {
        ExactCheck { a, stencil: None, b, b_norm: blas1::norm2(b) }
    }

    /// Routes the checks through `plan`'s stencil runs when `plan` is a
    /// stencil plan of the matrix; a packed plan changes nothing.
    pub(crate) fn with_plan(mut self, plan: &'a BlockPlan) -> Self {
        self.stencil = plan.descriptor().is_some().then(|| (plan, Isa::detect()));
        self
    }

    /// `‖b‖₂`.
    pub(crate) fn b_norm(&self) -> f64 {
        self.b_norm
    }

    /// The relative residual of `x`, through the stencil runs when a
    /// stencil plan is set, else through the stored matrix; bit-identical
    /// either way. `buf` is scratch: the stored-matrix check writes all of
    /// `b − A x` there, the stencil check one block's product at a time
    /// (see [`stencil_relative_residual_with`]).
    pub(crate) fn residual(&self, buf: &mut Vec<f64>, x: &[f64]) -> f64 {
        match self.stencil {
            Some((plan, isa)) => relative(
                crate::async_block::stencil_residual_norm(isa, plan, self.b, x, buf),
                self.b_norm,
            ),
            None => matrix_residual(buf, self.a, self.b, self.b_norm, x),
        }
    }
}

/// The stop rule of every check in this crate: a residual `rr` stops the
/// run when it meets a tolerance `tol > 0` or is not finite (diverged).
/// Returns `(stop, converged)`.
pub(crate) fn stop_rule(tol: f64, rr: f64) -> (bool, bool) {
    let converged = tol > 0.0 && rr <= tol;
    (converged || !rr.is_finite(), converged)
}

/// The stopping rule every solver loop in this crate shares. It owns the
/// iteration budget, when a check is due, the tolerance stop and the stop
/// on a non-finite residual (through [`stop_rule`]), the history, and the
/// final residual and verdict of the [`SolveResult`]. A solver runs
/// `while run.running() { <update>; run.step…(…) }` and ends with
/// [`finish`](Self::finish). The threaded async-(k) path, whose
/// concurrent monitor runs the checks, reports its run through
/// [`stopped_by`](Self::stopped_by) or [`advance`](Self::advance) instead.
pub(crate) struct Progress<'a> {
    exact_check: ExactCheck<'a>,
    opts: &'a SolveOptions,
    iterations: usize,
    converged: bool,
    stopped: bool,
    history: Vec<f64>,
    buf: Vec<f64>,
    /// The exact residual of the current iterate, when a check measured it.
    exact: Option<f64>,
}

impl<'a> Progress<'a> {
    pub(crate) fn new(a: &'a CsrMatrix, b: &'a [f64], opts: &'a SolveOptions) -> Self {
        Progress {
            exact_check: ExactCheck::new(a, b),
            opts,
            iterations: 0,
            converged: false,
            stopped: false,
            history: Vec::new(),
            buf: Vec::new(),
            exact: None,
        }
    }

    /// Measures every residual through `plan`'s stencil runs when `plan`
    /// is a stencil plan of the matrix (bit-identical, see
    /// [`stencil_relative_residual_with`]); a packed plan changes nothing.
    pub(crate) fn with_plan(mut self, plan: &'a BlockPlan) -> Self {
        self.exact_check = self.exact_check.with_plan(plan);
        self
    }

    /// The exact check this run measures with (a concurrent monitor
    /// shares it).
    pub(crate) fn exact_check(&self) -> ExactCheck<'a> {
        self.exact_check
    }

    /// Whether another iteration is due: no stop yet and budget left.
    pub(crate) fn running(&self) -> bool {
        !self.stopped && self.iterations < self.opts.max_iters
    }

    /// Iterations counted so far.
    pub(crate) fn iterations(&self) -> usize {
        self.iterations
    }

    /// Ends one relaxation iteration. Measures the exact residual of `x`
    /// only when the history is on, or when `tol > 0` and the iteration
    /// count is a multiple of `check_every`.
    pub(crate) fn step(&mut self, x: &[f64]) {
        self.advance(1);
        let due =
            self.opts.tol > 0.0 && self.iterations.is_multiple_of(self.opts.check_every.max(1));
        if self.opts.record_history || due {
            let rr = self.check(x);
            self.record(rr);
        }
    }

    /// Ends one iteration with an exact check of `x`, due or not.
    pub(crate) fn step_checked(&mut self, x: &[f64]) {
        self.advance(1);
        let rr = self.check(x);
        self.record(rr);
    }

    /// Ends one iteration whose residual `rr` the method computed itself.
    /// The run stops on it, but the final residual is still measured.
    pub(crate) fn step_with(&mut self, rr: f64) {
        self.advance(1);
        self.record(rr);
        self.judge(rr);
    }

    /// Rounds the next chunk of an executor run should take: the check
    /// period when `tol > 0`, else the whole budget; never past it.
    pub(crate) fn chunk_len(&self) -> usize {
        let left = self.opts.max_iters - self.iterations;
        if self.opts.tol > 0.0 {
            self.opts.check_every.max(1).min(left)
        } else {
            left
        }
    }

    /// Records the exact residual of a mid-chunk iterate in the history
    /// (when it is on); counts nothing and stops nothing.
    pub(crate) fn observe(&mut self, x: &[f64]) {
        if self.opts.record_history {
            let rr = self.measure(x);
            self.history.push(rr);
        }
    }

    /// Ends a chunk of `rounds` iterations that left `x`: checks it when
    /// `tol > 0` and returns the check, adding nothing to the history.
    pub(crate) fn chunk_done(&mut self, rounds: usize, x: &[f64]) -> Option<f64> {
        self.advance(rounds);
        (self.opts.tol > 0.0).then(|| self.check(x))
    }

    /// Whether a check stopped the run (tolerance met or residual not
    /// finite), as opposed to the budget running out.
    pub(crate) fn stopped(&self) -> bool {
        self.stopped
    }

    /// The result for the final iterate `x`. Its residual is the last
    /// exact check when that check measured `x`, else measured now; a run
    /// stays converged once a check met `tol`.
    pub(crate) fn finish(mut self, x: Vec<f64>) -> SolveResult {
        let final_residual = match self.exact {
            Some(rr) => rr,
            None => self.measure(&x),
        };
        let converged = self.converged || stop_rule(self.opts.tol, final_residual).1;
        SolveResult {
            x,
            iterations: self.iterations,
            converged,
            final_residual,
            history: self.history,
            fault: None,
        }
    }

    /// Counts `n` iterations; the iterate changed, so no check measured it.
    pub(crate) fn advance(&mut self, n: usize) {
        self.iterations += n;
        self.exact = None;
    }

    /// Records a run its concurrent monitor stopped at iteration `at` on a
    /// check measuring `rr`, of the iterate the run returns; [`finish`](Self::finish)
    /// judges it.
    pub(crate) fn stopped_by(&mut self, at: usize, rr: f64) {
        self.iterations = at;
        self.exact = Some(rr);
    }

    /// Measures the exact residual of the current iterate `x` and stops on it.
    fn check(&mut self, x: &[f64]) -> f64 {
        let rr = self.measure(x);
        self.exact = Some(rr);
        self.judge(rr);
        rr
    }

    fn record(&mut self, rr: f64) {
        if self.opts.record_history {
            self.history.push(rr);
        }
    }

    /// The tolerance stop, and the stop on a diverged (inf/NaN) residual.
    /// A Krylov method also calls it on its own residual at `x0`: a start
    /// that already meets `tol` runs no iteration.
    pub(crate) fn judge(&mut self, rr: f64) {
        let (stop, converged) = stop_rule(self.opts.tol, rr);
        self.stopped |= stop;
        self.converged |= converged;
    }

    fn measure(&mut self, x: &[f64]) -> f64 {
        self.exact_check.residual(&mut self.buf, x)
    }
}

/// Shared driver plumbing: checks inputs once at solver entry.
pub(crate) fn check_system(a: &CsrMatrix, b: &[f64], x0: &[f64]) {
    assert!(a.is_square(), "iterative solvers need a square matrix");
    assert_eq!(b.len(), a.n_rows(), "rhs length mismatch");
    assert_eq!(x0.len(), a.n_rows(), "initial guess length mismatch");
}

#[cfg(test)]
mod tests {
    use super::*;
    use abr_sparse::gen::laplacian_1d;

    #[test]
    fn relative_residual_zero_at_solution() {
        let a = laplacian_1d(6);
        let x = vec![2.0; 6];
        let b = a.mul_vec(&x).unwrap();
        assert!(relative_residual(&a, &b, &x) < 1e-15);
    }

    #[test]
    fn relative_residual_one_at_zero_guess() {
        let a = laplacian_1d(6);
        let b = a.mul_vec(&[1.0; 6]).unwrap();
        let rr = relative_residual(&a, &b, &[0.0; 6]);
        assert!((rr - 1.0).abs() < 1e-14);
    }

    #[test]
    fn zero_rhs_uses_absolute_norm() {
        let a = laplacian_1d(4);
        let rr = relative_residual(&a, &[0.0; 4], &[0.0; 4]);
        assert_eq!(rr, 0.0);
    }

    #[test]
    fn parallel_residual_is_bit_identical_to_sequential() {
        // g = 20: 1,920 nonzeros, the sequential SpMV. g = 201: 201,201
        // nonzeros, at the threshold, so the chunked SpMV actually runs
        // and must not perturb a single bit.
        for g in [20, 201] {
            let a = abr_sparse::gen::laplacian_2d_5pt(g);
            assert_eq!(a.nnz() >= PAR_COMPILE_MIN_NNZ, g == 201);
            let n = a.n_rows();
            let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.013).cos()).collect();
            let b = a.mul_vec(&vec![1.0; n]).unwrap();
            let rr = relative_residual(&a, &b, &x);
            let r = a.residual(&b, &x).unwrap();
            let expect = blas1::norm2(&r) / blas1::norm2(&b);
            assert_eq!(rr.to_bits(), expect.to_bits(), "g = {g}");
        }
    }

    #[test]
    fn scratch_variant_matches_and_reuses_buffer() {
        let a = abr_sparse::gen::laplacian_2d_5pt(20);
        let x: Vec<f64> = (0..400).map(|i| (i as f64 * 0.013).cos()).collect();
        let b = a.mul_vec(&vec![1.0; 400]).unwrap();
        let mut buf = Vec::new();
        let rr = relative_residual_with(&mut buf, &a, &b, &x);
        assert_eq!(rr.to_bits(), relative_residual(&a, &b, &x).to_bits());
        let ptr = buf.as_ptr();
        let cap = buf.capacity();
        for _ in 0..3 {
            relative_residual_with(&mut buf, &a, &b, &x);
            assert_eq!(buf.as_ptr(), ptr, "scratch buffer must be reused");
            assert_eq!(buf.capacity(), cap);
        }
    }

    #[test]
    fn options_constructors() {
        let o = SolveOptions::fixed_iterations(50);
        assert_eq!(o.max_iters, 50);
        assert_eq!(o.tol, 0.0);
        assert!(o.record_history);
        let o = SolveOptions::to_tolerance(1e-9, 200);
        assert_eq!(o.tol, 1e-9);
        assert!(!o.record_history);
    }

    #[test]
    fn a_run_ending_on_a_check_reports_that_check() {
        let a = laplacian_1d(6);
        let b = a.mul_vec(&[1.0; 6]).unwrap();
        let opts =
            SolveOptions { max_iters: 2, tol: 1e-300, record_history: false, check_every: 2 };
        let (x1, x2) = (vec![0.5; 6], vec![0.75; 6]);
        let mut run = Progress::new(&a, &b, &opts);
        run.step(&x1);
        assert_eq!(run.exact, None, "iteration 1 is not due");
        run.step(&x2);
        let check = run.exact.expect("iteration 2 is due");
        assert!(!run.running(), "budget spent");
        let r = run.finish(x2.clone());
        assert_eq!(r.final_residual.to_bits(), check.to_bits());
        assert_eq!(check.to_bits(), relative_residual(&a, &b, &x2).to_bits());
        assert!(!r.converged);
    }

    #[test]
    fn cg_started_at_the_solution_runs_no_iteration() {
        let a = laplacian_1d(6);
        let x = vec![2.0; 6];
        let b = a.mul_vec(&x).unwrap();
        let r =
            crate::conjugate_gradient(&a, &b, &x, &SolveOptions::to_tolerance(1e-10, 50)).unwrap();
        assert_eq!(r.iterations, 0);
        assert!(r.converged);
        assert_eq!(r.x, x);
        assert_eq!(r.final_residual, 0.0);
    }
}
