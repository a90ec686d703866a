//! Fault tolerance demo (paper §4.5): a quarter of the "cores" die
//! mid-solve. A checkpoint-free synchronous method would be lost; the
//! asynchronous iteration keeps converging once the components are
//! reassigned.
//!
//! ```text
//! cargo run --release --example fault_tolerance
//! ```

use block_async_relax::fault::{
    checkpoint_free_async, checkpointed_jacobi, CheckpointPolicy, FailureScenario,
};
use block_async_relax::prelude::*;
use block_async_relax::sparse::gen::TestMatrix;

fn main() {
    let a = TestMatrix::Fv1.build().expect("generator");
    let n = a.n_rows();
    let b = a.mul_vec(&vec![1.0; n]).expect("square");
    let x0 = vec![0.0; n];
    let partition = RowPartition::uniform(n, 448).expect("valid block size");
    let solver = AsyncBlockSolver::async_k(5);
    let opts = SolveOptions::fixed_iterations(150);

    println!("fv1 (n = {n}), async-(5), 25% of cores fail at iteration 10\n");

    let healthy = solver.solve(&a, &b, &x0, &partition, &opts).expect("solve");
    println!("no failure   : residual {:.2e} after {} iterations", healthy.final_residual, 150);

    for (label, recovery) in [
        ("recovery-(10)", Some(10)),
        ("recovery-(20)", Some(20)),
        ("recovery-(30)", Some(30)),
        ("no recovery  ", None),
    ] {
        let scenario = FailureScenario::paper_default(recovery, 7).build(n);
        let r = solver
            .solve_filtered(&a, &b, &x0, &partition, &opts, &scenario)
            .expect("solve");
        println!("{label}: residual {:.2e}", r.final_residual);
    }

    // The exascale economics (paper §4.5): a synchronous solver must
    // checkpoint, and once failures land faster than a checkpoint cycle
    // it never finishes — the async method needs no checkpoints at all.
    println!("\ncheckpoint economics under shrinking MTBF (work in iteration units):");
    let tol = 1e-9;
    for mtbf in [64usize, 16, 8] {
        let sync = checkpointed_jacobi(
            &a,
            &b,
            &x0,
            tol,
            mtbf,
            CheckpointPolicy::default(),
            3_000.0,
        )
        .expect("run");
        let asyn = checkpoint_free_async(
            &a,
            &b,
            &x0,
            &partition,
            tol,
            mtbf,
            (mtbf / 2).clamp(1, 20),
            7,
            3_000.0,
        )
        .expect("run");
        println!(
            "  MTBF {mtbf:>3}: sync+checkpoint {:>7.0} ({}) | async {:>6.0} ({})",
            sync.work,
            if sync.converged { "converged" } else { "LIVELOCKED" },
            asyn.work,
            if asyn.converged { "converged" } else { "failed" },
        );
        assert!(asyn.converged, "async must converge at every failure rate");
    }
}
