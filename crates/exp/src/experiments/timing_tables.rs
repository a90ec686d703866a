//! **Table 4, Table 5, Figure 8** — the timing artifacts, produced by the
//! calibrated cost model of `abr-gpu` plus the actual per-matrix local
//! nonzero counts.
//!
//! * Table 4: total computation time of async-(1..9) for 100..500 global
//!   iterations on `fv3` — the "local sweeps are almost free" claim.
//! * Figure 8: average time per iteration versus total iteration count on
//!   `fv3` (setup amortisation makes the GPU curves decay).
//! * Table 5: average per-global-iteration seconds for Gauss-Seidel
//!   (CPU), Jacobi (GPU) and async-(5) (GPU) on every matrix, following
//!   the paper's 10..200-iteration averaging convention.

use crate::matrices::{full_suite, TestSystem};
use crate::report::{Figure, Series, Table};
use crate::ExpOptions;
use abr_core::async_block::AsyncJacobiKernel;
use abr_gpu::TimingModel;
use abr_sparse::gen::TestMatrix;
use abr_sparse::Result;

/// `nnz_local` of a system under its standard partition.
fn nnz_local(sys: &TestSystem, opts: &ExpOptions) -> Result<usize> {
    let p = sys.partition(opts.scale)?;
    let kernel = AsyncJacobiKernel::new(&sys.a, &sys.rhs, &p, 1, 1.0)?;
    Ok(kernel.nnz_local())
}

/// Regenerates Table 4.
pub fn table4(opts: &ExpOptions) -> Result<Table> {
    let model = TimingModel::calibrated();
    let sys = TestSystem::build(TestMatrix::Fv3, opts.scale)?;
    let (n, nnz) = (sys.a.n_rows(), sys.a.nnz());
    let local = nnz_local(&sys, opts)?;
    let iters = [100usize, 200, 300, 400, 500];
    let mut headers: Vec<String> = vec!["method".into()];
    headers.extend(iters.iter().map(|k| k.to_string()));
    let mut table = Table::new(
        "Table 4: total time [s] vs global iterations, fv3, varying local sweeps",
        &headers.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
    );
    for k in 1..=9usize {
        let t_iter = model.gpu_async_iteration(n, nnz, local, k);
        let mut row = vec![format!("async-({k})")];
        row.extend(iters.iter().map(|&it| format!("{:.6}", model.gpu_total(t_iter, it))));
        table.push_row(row);
    }
    Ok(table)
}

/// Regenerates Table 5.
///
/// Reports the *marginal* per-global-iteration cost. (The paper describes
/// an averaging convention over 10..200-iteration runs, but its own
/// Table 5 numbers are inconsistent with amortising the setup cost its
/// Figure 8 exhibits — the fv3 row would exceed 0.05 s. The marginal
/// costs match the paper's Table 5 magnitudes within ~20 % on every
/// entry, so that is evidently what the table reports; `table5_average`
/// in `abr-gpu` implements the amortised convention for Figure 8.)
pub fn table5(opts: &ExpOptions) -> Result<Table> {
    let model = TimingModel::calibrated();
    let mut table = Table::new(
        "Table 5: average seconds per global iteration",
        &["Matrix", "G.-S. (CPU)", "Jacobi (GPU)", "async-(5) (GPU)"],
    );
    for sys in full_suite(opts.scale)? {
        if sys.which == TestMatrix::Trefethen20000 {
            continue; // the paper's Table 5 omits it too
        }
        let (n, nnz) = (sys.a.n_rows(), sys.a.nnz());
        let local = nnz_local(&sys, opts)?;
        let gs = model.cpu_gauss_seidel_iteration(n, nnz);
        let jac = model.gpu_jacobi_iteration(n, nnz);
        let a5 = model.gpu_async_iteration(n, nnz, local, 5);
        table.push_row(vec![
            sys.which.name().to_string(),
            format!("{gs:.6}"),
            format!("{jac:.6}"),
            format!("{a5:.6}"),
        ]);
    }
    Ok(table)
}

/// Regenerates Figure 8.
pub fn fig8(opts: &ExpOptions) -> Result<Figure> {
    let model = TimingModel::calibrated();
    let sys = TestSystem::build(TestMatrix::Fv3, opts.scale)?;
    let (n, nnz) = (sys.a.n_rows(), sys.a.nnz());
    let local = nnz_local(&sys, opts)?;
    let totals: Vec<usize> = (1..=20).map(|j| 10 * j).collect();

    let mut fig = Figure::new(
        "Figure 8: average time per iteration vs total iterations (fv3)",
        "total number of iterations",
        "average time per iteration [s]",
    );
    let gs = model.cpu_gauss_seidel_iteration(n, nnz);
    fig.push(Series::new(
        "Gauss-Seidel on CPU",
        totals.iter().map(|&k| (k as f64, gs)).collect(),
    ));
    let t_jac = model.gpu_jacobi_iteration(n, nnz);
    fig.push(Series::new(
        "Jacobi on GPU",
        totals
            .iter()
            .map(|&k| (k as f64, model.gpu_average_per_iteration(t_jac, k)))
            .collect(),
    ));
    let t_a1 = model.gpu_async_iteration(n, nnz, local, 1);
    fig.push(Series::new(
        "async-(1) on GPU",
        totals
            .iter()
            .map(|&k| (k as f64, model.gpu_average_per_iteration(t_a1, k)))
            .collect(),
    ));
    Ok(fig)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Scale;

    fn small() -> ExpOptions {
        ExpOptions { scale: Scale::Small, runs: 2, seed: 0 }
    }

    #[test]
    fn table4_and_table5_have_a_row_per_configuration() {
        // The paper's bounds on both tables are `verify`'s checklist rows.
        assert_eq!(table4(&small()).unwrap().rows.len(), 9);
        assert_eq!(table5(&small()).unwrap().rows.len(), 6);
    }

    #[test]
    fn fig8_gpu_curves_decay_cpu_flat() {
        let f = fig8(&small()).unwrap();
        let gs = &f.series[0];
        assert_eq!(gs.points.first().unwrap().1, gs.points.last().unwrap().1);
        for s in &f.series[1..] {
            assert!(
                s.points.first().unwrap().1 > 2.0 * s.points.last().unwrap().1,
                "{} must decay",
                s.label
            );
        }
    }
}
