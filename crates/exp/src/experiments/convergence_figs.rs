//! **Figures 6 & 7** — residual versus global iterations.
//!
//! Figure 6 compares CPU Gauss-Seidel, GPU Jacobi, and async-(1) on every
//! test matrix; Figure 7 compares Gauss-Seidel against async-(5). The
//! paper's headline observations, judged by `verify`'s checklist:
//!
//! * Gauss-Seidel converges in roughly half the iterations of Jacobi;
//! * async-(1) tracks Jacobi's rate (slightly worse, schedule-dependent);
//! * async-(5) roughly doubles the Gauss-Seidel rate on the `fv*` family
//!   (local sweeps see most of the matrix), matches Jacobi on `Chem97ZtZ`
//!   (diagonal local blocks), and lands in between on `Trefethen`;
//! * the Jacobi-type methods diverge on `s1rmt3m1` (`rho(B) = 2.65`).
//!   Gauss-Seidel, being convergent for every SPD matrix, merely crawls —
//!   the paper's Figure 6e shows it making no visible progress in 200
//!   iterations.

use crate::matrices::TestSystem;
use crate::report::{Figure, Series};
use crate::ExpOptions;
use abr_core::{gauss_seidel, jacobi, AsyncBlockSolver, SolveOptions};
use abr_sparse::gen::TestMatrix;
use abr_sparse::Result;

/// Both convergence figures.
pub struct ConvergenceFigures {
    /// Figure 6: GS vs Jacobi vs async-(1), one sub-figure per matrix.
    pub fig6: Vec<Figure>,
    /// Figure 7: GS vs async-(5).
    pub fig7: Vec<Figure>,
}

/// The matrices the figures cover (all seven systems, like the paper's
/// six panels plus Trefethen_20000 omitted there for space).
const FIGURE_MATRICES: [TestMatrix; 6] = [
    TestMatrix::Chem97ZtZ,
    TestMatrix::Fv1,
    TestMatrix::Fv2,
    TestMatrix::Fv3,
    TestMatrix::S1rmt3m1,
    TestMatrix::Trefethen2000,
];

/// Runs one matrix's convergence histories and returns
/// `(gs, jacobi, async1, async5)` residual series.
fn histories(
    sys: &TestSystem,
    opts: &ExpOptions,
) -> Result<(Series, Series, Series, Series)> {
    let iters = sys.figure_iterations(opts.scale).min(match sys.which {
        // the divergent system blows up past f64 range quickly; 60
        // iterations of growth are plenty to show the trend
        TestMatrix::S1rmt3m1 => 60,
        _ => usize::MAX,
    });
    let solve_opts = SolveOptions::fixed_iterations(iters);
    let partition = sys.partition(opts.scale)?;

    let to_series = |label: &str, h: &[f64]| {
        Series::new(
            label,
            h.iter().enumerate().map(|(k, &r)| ((k + 1) as f64, r)).collect(),
        )
    };

    let gs = gauss_seidel(&sys.a, &sys.rhs, &sys.x0, &solve_opts)?;
    let jac = jacobi(&sys.a, &sys.rhs, &sys.x0, &solve_opts)?;
    let a1 = AsyncBlockSolver { local_iters: 1, ..Default::default() }.solve(
        &sys.a,
        &sys.rhs,
        &sys.x0,
        &partition,
        &solve_opts,
    )?;
    let a5 = AsyncBlockSolver::async_k(5).solve(&sys.a, &sys.rhs, &sys.x0, &partition, &solve_opts)?;
    Ok((
        to_series("Gauss-Seidel (CPU)", &gs.history),
        to_series("Jacobi (GPU)", &jac.history),
        to_series("async-(1) (GPU)", &a1.history),
        to_series("async-(5) (GPU)", &a5.history),
    ))
}

/// Regenerates Figures 6 and 7.
pub fn run(opts: &ExpOptions) -> Result<ConvergenceFigures> {
    let mut fig6 = Vec::new();
    let mut fig7 = Vec::new();
    for which in FIGURE_MATRICES {
        let sys = TestSystem::build(which, opts.scale)?;
        let (gs, jac, a1, a5) = histories(&sys, opts)?;
        let mut f6 = Figure::new(
            format!("Figure 6 ({})", which.name()),
            "iterations",
            "relative residual",
        );
        f6.push(gs.clone());
        f6.push(jac);
        f6.push(a1);
        fig6.push(f6);

        let mut f7 = Figure::new(
            format!("Figure 7 ({})", which.name()),
            "iterations",
            "relative residual",
        );
        f7.push(gs);
        f7.push(a5);
        fig7.push(f7);
    }
    Ok(ConvergenceFigures { fig6, fig7 })
}

/// Asymptotic contraction rate of a residual series, from its last
/// quarter (geometric mean of the per-iteration ratios).
pub fn tail_rate(series: &Series) -> f64 {
    let n = series.points.len();
    assert!(n >= 8, "need a reasonable history");
    let (a, b) = (3 * n / 4, n - 1);
    let (ya, yb) = (series.points[a].1.max(1e-300), series.points[b].1.max(1e-300));
    if ya <= 1e-14 {
        // converged to the floor already: rate indistinguishable from 0
        return 0.0;
    }
    (yb / ya).powf(1.0 / (b - a) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn small() -> ExpOptions {
        ExpOptions { scale: Scale::Small, runs: 2, seed: 0 }
    }

    #[test]
    fn figures_have_expected_series() {
        let figs = run(&small()).unwrap();
        assert_eq!(figs.fig6.len(), 6);
        assert_eq!(figs.fig7.len(), 6);
        assert_eq!(figs.fig6[0].series.len(), 3);
        assert_eq!(figs.fig7[0].series.len(), 2);
    }

    #[test]
    fn gauss_seidel_beats_jacobi_on_fv1() {
        let figs = run(&small()).unwrap();
        let f = figs.fig6.iter().find(|f| f.title.contains("(fv1)")).unwrap();
        let gs = tail_rate(&f.series[0]);
        let jac = tail_rate(&f.series[1]);
        assert!(gs < jac, "GS rate {gs} vs Jacobi {jac}");
    }

    #[test]
    fn async5_improves_clearly_over_async1_on_fv1() {
        // The full-scale "async-(5) ≈ 2x Gauss-Seidel" claim needs the
        // paper's 448-row blocks on the 9604-row matrix (`verify`'s
        // full-scale checklist judges it); at unit-test scale we assert the
        // scale-independent part: local sweeps buy a large factor on the
        // diagonally-heavy fv matrices.
        let figs = run(&small()).unwrap();
        let f7 = figs.fig7.iter().find(|f| f.title.contains("(fv1)")).unwrap();
        let f6 = figs.fig6.iter().find(|f| f.title.contains("(fv1)")).unwrap();
        let a5 = f7.series[1].points.last().unwrap().1;
        let a1 = f6.series[2].points.last().unwrap().1;
        assert!(a5 < 0.1 * a1, "async-5 {a5} vs async-1 {a1}");
    }
}
