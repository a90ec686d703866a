//! The §5 preconditioning outlook, live: CG with the relaxation-derived
//! preconditioners this workspace provides on an SPD Poisson system, and
//! async-(5) on a nonsymmetric convection-diffusion system.
//!
//! ```text
//! cargo run --release --example preconditioners
//! ```

use block_async_relax::core::chebyshev::auto_chebyshev;
use block_async_relax::core::pcg::{
    pcg, BlockJacobiPreconditioner, IdentityPreconditioner, JacobiPreconditioner,
};
use block_async_relax::prelude::*;
use block_async_relax::sparse::gen;

fn main() {
    // --- SPD: 2D Poisson, n = 4096 ---
    let a = gen::laplacian_2d_5pt(64);
    let n = a.n_rows();
    let b = a.mul_vec(&vec![1.0; n]).expect("square");
    let x0 = vec![0.0; n];
    let opts = SolveOptions::to_tolerance(1e-10, 10_000);

    println!("2D Poisson (n = {n}), CG iterations to 1e-10 by preconditioner:");
    let plain = pcg(&a, &b, &x0, &IdentityPreconditioner, &opts).expect("solve");
    println!("  none          : {:>4}", plain.iterations);
    let jac = pcg(&a, &b, &x0, &JacobiPreconditioner::new(&a).expect("SPD"), &opts)
        .expect("solve");
    println!("  Jacobi        : {:>4}", jac.iterations);
    let partition = RowPartition::uniform(n, 64).expect("partition");
    let blk = pcg(
        &a,
        &b,
        &x0,
        &BlockJacobiPreconditioner::new(&a, &partition).expect("blocks"),
        &opts,
    )
    .expect("solve");
    println!("  block-Jacobi  : {:>4}   (the async-(k) subdomains, reused)", blk.iterations);
    let (cheb, bounds) = auto_chebyshev(&a, &b, &x0, &opts).expect("solve");
    println!(
        "  (Chebyshev)   : {:>4}   reduction-free, bounds [{:.4}, {:.4}]",
        cheb.iterations, bounds.0, bounds.1
    );
    assert!(blk.iterations <= jac.iterations);

    // --- Nonsymmetric: convection-diffusion with a strong wind ---
    let a = gen::convection_diffusion_2d(48, 0.02, 1.0, 0.4);
    let n = a.n_rows();
    let b = a.mul_vec(&vec![1.0; n]).expect("square");
    let x0 = vec![0.0; n];
    println!("\nconvection-diffusion (n = {n}, nonsymmetric):");
    // The asynchronous method converges here (rho(|B|) < 1 by diagonal
    // dominance), no Krylov machinery required:
    let p = RowPartition::uniform(n, 96).expect("partition");
    let r = AsyncBlockSolver::async_k(5).solve(&a, &b, &x0, &p, &opts).expect("solve");
    println!(
        "  async-(5)     : {:>4} global iterations (chaotic, reduction-free)",
        r.iterations
    );
    assert!(r.converged);
}
