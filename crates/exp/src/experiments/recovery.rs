//! **Recovery-(t_r) on the live fault runtime** (§4.5 / Figure 10,
//! realised): where [`fault_exp`](crate::experiments::fault_exp) models a
//! core failure analytically (an `UpdateFilter` freezing components of a
//! chunked run), this experiment *kills real persistent workers* mid-solve
//! via [`FailureScenario::lower`] and lets the executor's heartbeat
//! detector and work-stealing adoption path do the recovery.
//!
//! Regimes, per the paper: a fault-free baseline; no-recovery (orphaned
//! blocks stay frozen — the residual plateaus and the run ends
//! [`Stalled`](abr_gpu::RunOutcome::Stalled) once the survivors drain
//! their budget); and recovery-(t_r) for growing reassignment delays,
//! which re-converge with a delay monotone in `t_r`.

use crate::metrics::{MetricsSink, NullSink, RunMetrics};
use crate::report::{Figure, Series, Table};
use crate::{ExpOptions, Scale};
use abr_core::async_block::AsyncJacobiKernel;
use abr_core::{AsyncBlockSolver, ExecutorKind, SolveOptions};
use abr_fault::FailureScenario;
use abr_gpu::kernel::AllowAll;
use abr_gpu::{FaultPlan, PersistentOptions, RunSession, ThreadedOptions};
use abr_sparse::gen::laplacian_2d_5pt;
use abr_sparse::{Result, RowPartition};
use std::time::Duration;

/// Reassignment delays swept, in floor rounds.
pub const RECOVERY_ROUNDS: [usize; 3] = [5, 15, 30];

/// The regenerated artifacts: a summary table plus the Figure-10-style
/// re-convergence curves (one series per regime, from the concurrent
/// monitor's residual checks).
#[derive(Debug, Clone)]
pub struct RecoveryRun {
    /// Per-regime outcome summary.
    pub table: Table,
    /// Residual trajectories (`global iteration` vs `relative residual`).
    pub figure: Figure,
}

/// Runs the sweep, discarding per-run metrics.
pub fn run(opts: &ExpOptions) -> Result<RecoveryRun> {
    run_with_sink(opts, &mut NullSink)
}

/// Runs the sweep, recording one [`RunMetrics`] line per regime.
pub fn run_with_sink(opts: &ExpOptions, sink: &mut dyn MetricsSink) -> Result<RecoveryRun> {
    // Small keeps the whole sweep (5 solves, each with a 4-worker
    // persistent executor) around a second of wall time. The budget is
    // sized with a large margin over the fault-free iteration count:
    // rounds take microseconds, only the non-converging regimes drain
    // it, and monitor scheduling jitter on an oversubscribed box can
    // push detection (hence release, hence re-convergence) hundreds of
    // floor rounds past t0 + t_r.
    let (side, block_rows, budget) = match opts.scale {
        Scale::Full => (16, 16, 12_000),
        Scale::Small => (10, 10, 3_000),
    };
    let a = laplacian_2d_5pt(side);
    let n = a.n_rows();
    let rhs = vec![1.0; n];
    let x0 = vec![0.0; n];
    let partition = RowPartition::uniform(n, block_rows)?;
    let solve_opts =
        SolveOptions { max_iters: budget, tol: 1e-8, record_history: false, check_every: 10 };
    let tuning = PersistentOptions {
        n_workers: 4,
        detect_after_rounds: 4,
        // Long enough that scheduler starvation on an oversubscribed
        // box never reads as a wedge; the no-recovery regime pays
        // roughly two of these windows to reach its Stalled verdict.
        stall_timeout: Duration::from_millis(750),
        ..PersistentOptions::default()
    };
    let solver = AsyncBlockSolver {
        executor: ExecutorKind::Threaded(ThreadedOptions {
            n_workers: tuning.n_workers,
            snapshot_rounds: false,
        }),
        ..AsyncBlockSolver::async_k(5)
    };
    let kernel = AsyncJacobiKernel::new(&a, &rhs, &partition, solver.local_iters, 1.0)?;

    // `None` = fault-free; `Some(recovery)` kills 25% of the workers at
    // t0 = 10 (the paper's scenario), with the given recovery-(t_r).
    let mut regimes: Vec<(String, Option<Option<usize>>)> = vec![
        ("fault-free".into(), None),
        ("no-recovery".into(), Some(None)),
    ];
    for t_r in RECOVERY_ROUNDS {
        regimes.push((format!("recovery-({t_r})"), Some(Some(t_r))));
    }

    let mut table = Table::new(
        format!("Recovery-(t_r) on the live runtime (Laplace 2D n={n}, async-(5), 4 workers)"),
        &[
            "regime",
            "outcome",
            "iterations",
            "converged",
            "final residual",
            "deaths",
            "reassigned",
            "released at",
            "max outage",
        ],
    );
    let mut figure = Figure::new(
        format!("Figure 10 (realised): core failure at t0=10, Laplace 2D n={n}"),
        "global iteration",
        "relative residual",
    );

    for (label, scenario) in &regimes {
        let plan = match scenario {
            None => FaultPlan::new(),
            Some(recovery) => {
                FailureScenario { t0: 10, fraction: 0.25, recovery: *recovery, seed: opts.seed }
                    .lower(tuning.n_workers)
            }
        };
        let session = RunSession { faults: Some(&plan), ..RunSession::default() };
        let fs = solver.solve_session(
            &a,
            &rhs,
            &x0,
            &kernel,
            &solve_opts,
            &AllowAll,
            Some(&tuning),
            session,
        )?;
        let fault = fs.report.fault.clone();
        figure.push(Series::new(
            label.clone(),
            fs.checks.iter().map(|&(it, rr)| (it as f64, rr)).collect(),
        ));
        sink.record(
            &RunMetrics {
                experiment: "recovery".into(),
                matrix: format!("laplace2d-{n}"),
                method: label.clone(),
                iterations: fs.result.iterations,
                converged: fs.result.converged,
                final_residual: fs.result.final_residual,
                residuals: fs.checks.clone(),
                fault: fs.result.fault.clone().filter(|f| !f.is_empty()),
                ..RunMetrics::default()
            }
            .with_trace(&fs.trace),
        );
        table.push_row(vec![
            label.clone(),
            format!("{:?}", fs.report.outcome),
            fs.result.iterations.to_string(),
            fs.result.converged.to_string(),
            format!("{:.2e}", fs.result.final_residual),
            fault.deaths.len().to_string(),
            fault.reassignments.len().to_string(),
            fault
                .reassignments
                .first()
                .map_or_else(|| "-".into(), |r| r.at_floor.to_string()),
            fault.max_outage_rounds.to_string(),
        ]);
    }
    sink.flush();
    Ok(RecoveryRun { table, figure })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MemorySink;

    fn small() -> ExpOptions {
        ExpOptions { scale: Scale::Small, runs: 1, seed: 42 }
    }

    /// One regime's cells, and the whole row as `header: cell` text so a
    /// failed assertion names its cause.
    fn row<'t>(t: &'t Table, regime: &str) -> (&'t [String], String) {
        let cells = t
            .rows
            .iter()
            .find(|r| r[0] == regime)
            .unwrap_or_else(|| panic!("missing regime {regime}"));
        let text = t
            .headers
            .iter()
            .zip(cells)
            .map(|(h, c)| format!("{h}: {c}"))
            .collect::<Vec<_>>()
            .join(", ");
        (cells, text)
    }

    #[test]
    fn no_recovery_plateaus_while_recovery_reconverges() {
        let out = run(&small()).unwrap();
        let t = &out.table;
        assert_eq!(t.rows.len(), 2 + RECOVERY_ROUNDS.len());

        let (cells, text) = row(t, "fault-free");
        assert_eq!(cells[3], "true", "fault-free must converge: {text}");
        // No-recovery: frozen blocks pin the residual above tolerance and
        // the run ends Stalled, not Converged.
        let (cells, text) = row(t, "no-recovery");
        assert_eq!(cells[3], "false", "{text}");
        assert_eq!(cells[1], "Stalled", "{text}");
        let plateau: f64 = cells[4].parse().unwrap();
        assert!(plateau > 1e-6, "no-recovery must plateau above tolerance: {text}");
        let wedged_outage: usize = cells[8].parse().unwrap();

        for t_r in RECOVERY_ROUNDS {
            let (cells, text) = row(t, &format!("recovery-({t_r})"));
            assert_eq!(cells[3], "true", "must re-converge: {text}");
            assert_eq!(cells[6], "1", "must reassign the orphaned shard: {text}");
            // The monotone-delay contract, on the quantity the runtime
            // controls: the shard is held back until at least `t_r`
            // floor rounds past the outage at t0 = 10, so the realised
            // release floor grows with t_r. (Raw iteration counts also
            // grow on average, but monitor poll granularity makes a
            // single sample too noisy to assert on.)
            let released: usize = cells[7].parse().unwrap();
            assert!(released >= 10 + t_r, "released before t0 + t_r: {text}");
            let outage: usize = cells[8].parse().unwrap();
            assert!(outage >= t_r, "outage shorter than t_r: {text}");
            assert!(
                outage < wedged_outage,
                "outage should end before the no-recovery wedge ({wedged_outage}): {text}"
            );
        }
    }

    #[test]
    fn sink_receives_one_line_per_regime() {
        let mut sink = MemorySink::default();
        let out = run_with_sink(&small(), &mut sink).unwrap();
        assert_eq!(sink.lines.len(), out.table.rows.len());
        assert!(sink.lines[0].contains("\"fault\":null"), "baseline is faultless");
        assert!(
            sink.lines[1].contains("\"deaths\":[{"),
            "faulted lines carry the fault report: {}",
            sink.lines[1]
        );
        // Every regime contributes a residual trajectory to the figure.
        assert_eq!(out.figure.series.len(), out.table.rows.len());
        for s in &out.figure.series {
            assert!(!s.points.is_empty(), "empty trajectory for {}", s.label);
        }
    }
}
