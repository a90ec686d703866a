//! Golden values of every synchronous solver and of async-(k) on the sim
//! executor.
//!
//! Each solver's stopping rule decides when a residual is measured, what
//! goes into the history, when the run stops and what it reports as its
//! final residual. A refactor of that bookkeeping must leave every solve
//! bit-identical. These tests pin, for each solver on three systems and
//! six option sets, the FNV-1a hash of the solution and of the history
//! bits, the iteration count, the `converged` verdict and the bits of the
//! final residual.
//!
//! Systems: a 2D Laplacian, a random diagonally dominant SPD matrix and a
//! Jacobi-divergent SPD structural matrix (`rho(B) = 2.65`), on which the
//! relaxation methods run into a non-finite residual.
//!
//! The constants were recorded before the solvers shared one stopping
//! rule; they must never be regenerated to make a change pass.

use block_async_relax::core::chebyshev::auto_chebyshev;
use block_async_relax::core::multigrid::Multigrid;
use block_async_relax::core::pcg::{BlockJacobiPreconditioner, JacobiPreconditioner};
use block_async_relax::core::scaled::damped_jacobi;
use block_async_relax::core::smoother::{
    AsyncSmoother, DampedJacobiSmoother, GaussSeidelSmoother, Smoother,
};
use block_async_relax::core::{fingerprint_vec, Fnv1a};
use block_async_relax::gpu::UpdateFilter;
use block_async_relax::prelude::*;
use block_async_relax::sparse::gen;

/// What one solve produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Golden {
    x_hash: u64,
    history_hash: u64,
    iterations: usize,
    converged: bool,
    final_residual_bits: u64,
}

fn golden(r: &SolveResult) -> Golden {
    let mut history = Fnv1a::new();
    history.write_usize(r.history.len());
    for &h in &r.history {
        history.write_f64(h);
    }
    Golden {
        x_hash: fingerprint_vec(&r.x),
        history_hash: history.finish(),
        iterations: r.iterations,
        converged: r.converged,
        final_residual_bits: r.final_residual.to_bits(),
    }
}

/// One test system: its name, matrix and right-hand side.
struct System {
    name: &'static str,
    a: CsrMatrix,
    b: Vec<f64>,
}

fn systems() -> Vec<System> {
    let with_rhs = |name, a: CsrMatrix| {
        let x_true: Vec<f64> = (0..a.n_rows()).map(|i| 1.0 + (i as f64 * 0.37).sin()).collect();
        let b = a.mul_vec(&x_true).unwrap();
        System { name, a, b }
    };
    vec![
        with_rhs("lap2d", gen::laplacian_2d_5pt(12)),
        with_rhs("random_dd", gen::random_diag_dominant(150, 4, 1.2, 17)),
        with_rhs("divergent", gen::structural_biharmonic_sq(8, 2.65).unwrap()),
    ]
}

/// The six option sets every solver runs under.
fn option_sets() -> [(&'static str, SolveOptions); 6] {
    let opts = |max_iters, tol, record_history, check_every| SolveOptions {
        max_iters,
        tol,
        record_history,
        check_every,
    };
    [
        ("to_tolerance", SolveOptions::to_tolerance(1e-8, 3_000)),
        ("fixed_history", SolveOptions::fixed_iterations(40)),
        ("every3_history", opts(60, 1e-6, true, 3)),
        ("no_budget", opts(0, 1e-8, false, 10)),
        ("tol0_quiet", opts(30, 0.0, false, 10)),
        ("ends_between_checks", opts(25, 1e-30, false, 10)),
    ]
}

/// Runs `solve` on every system under every option set and compares each
/// result with the pinned row of the same index.
fn check(solver: &str, expected: &[Golden], solve: impl Fn(&System, &SolveOptions) -> SolveResult) {
    let mut got = Vec::new();
    for sys in systems() {
        for (label, opts) in option_sets() {
            got.push((format!("{}/{label}", sys.name), golden(&solve(&sys, &opts))));
        }
    }
    assert_eq!(got.len(), expected.len(), "{solver}: case count");
    for ((case, g), want) in got.iter().zip(expected) {
        assert_eq!(g, want, "{solver} {case}");
    }
}

fn zeros(sys: &System) -> Vec<f64> {
    vec![0.0; sys.a.n_rows()]
}

fn partition(sys: &System) -> RowPartition {
    RowPartition::uniform(sys.a.n_rows(), 16).unwrap()
}

fn multigrid<S: Smoother>(
    smoother: impl Fn() -> S,
    sys: &System,
    opts: &SolveOptions,
) -> SolveResult {
    let mg = Multigrid::new(&sys.a, smoother(), 16).unwrap();
    mg.solve(&sys.b, &zeros(sys), opts).unwrap()
}

/// Drops block `b` at its round `r` whenever `(b + r) % 5 == 0`.
struct DropSome;

impl UpdateFilter for DropSome {
    fn block_enabled(&self, block: usize, round: usize) -> bool {
        !(block + round).is_multiple_of(5)
    }
}

fn async_solver() -> AsyncBlockSolver {
    AsyncBlockSolver {
        executor: ExecutorKind::Sim(SimOptions { n_workers: 3, jitter: 0.4, seed: 9 }),
        schedule: ScheduleKind::Random { seed: 4 },
        ..AsyncBlockSolver::async_k(3)
    }
}

/// One pinned row: solution hash, history hash, iterations, verdict and
/// final-residual bits.
const fn g(
    x_hash: u64,
    history_hash: u64,
    iterations: usize,
    converged: bool,
    final_residual_bits: u64,
) -> Golden {
    Golden { x_hash, history_hash, iterations, converged, final_residual_bits }
}

// Rows run system by system (lap2d, random_dd, divergent), and within a
// system through `option_sets` in order.

const JACOBI: [Golden; 18] = [
    g(0x383ee0a4cb980cf5, 0xa8c7f832281a39c5, 530, true, 0x3e40b943dc209410),
    g(0xda0bd20879a38a50, 0x1fe6f401e1b8e934, 40, false, 0x3f8e11f0f893203b),
    g(0xaf9b91cfd4869804, 0x90985ca2be490041, 60, false, 0x3f80ab6dfafb5f3b),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xefaa5d688693d253, 0xa8c7f832281a39c5, 30, false, 0x3f943999e6692942),
    g(0x1ce5920856c11411, 0xa8c7f832281a39c5, 25, false, 0x3f9789782bf68029),
    g(0x1b3eb729ad3317f0, 0xa8c7f832281a39c5, 30, true, 0x3e176ab5cb533d48),
    g(0xc298d87d02d4ee70, 0xb222836ac4fb6e7a, 40, false, 0x3d862a136ca76925),
    g(0xa325edbe0856e714, 0xe4cde6f6658cd902, 20, true, 0x3eac5d13078b5800),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x1b3eb729ad3317f0, 0xa8c7f832281a39c5, 30, false, 0x3e176ab5cb533d48),
    g(0xc9a263b660102451, 0xa8c7f832281a39c5, 25, false, 0x3e61e4b804c87fc0),
    g(0xe84609abcaafde9c, 0xa8c7f832281a39c5, 360, false, 0x7ff0000000000000),
    g(0xf40264b94d858498, 0x9b36e604349a260b, 40, false, 0x432c1b786cac9260),
    g(0xc8221ccfcfa57213, 0xd9c149c34f94059f, 60, false, 0x44ee760581d9e0b2),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x9692a9e728861739, 0xa8c7f832281a39c5, 30, false, 0x424b431e68525bd1),
    g(0xb771e69938098b70, 0xa8c7f832281a39c5, 25, false, 0x41db29ee286d1c9b),
];

const GAUSS_SEIDEL: [Golden; 18] = [
    g(0xe65cd6f708cc1cf4, 0xa8c7f832281a39c5, 270, true, 0x3e3ab185e392be4b),
    g(0x4cdcbc57ba1c79ea, 0x764dedd48207f3a3, 40, false, 0x3f73a847289f4799),
    g(0x34bbc9d7dce418ff, 0xe61b8caf28af677f, 60, false, 0x3f585459bb128dea),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xc29a3a744e3c3d63, 0xa8c7f832281a39c5, 30, false, 0x3f818cd17c5f3f92),
    g(0x158e14615b175eab, 0xa8c7f832281a39c5, 25, false, 0x3f876195318aa42c),
    g(0x8fde05e972993714, 0xa8c7f832281a39c5, 20, true, 0x3d63923df3a14984),
    g(0xa8c56d00d93ad683, 0x3089fc44256c0e22, 40, false, 0x3ca1058facedc432),
    g(0xb2d6fbd36acc1773, 0x4180a6a1a0476a06, 10, true, 0x3e9d29dd2070ae47),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xa8c56d00d93ad683, 0xa8c7f832281a39c5, 30, false, 0x3ca1058facedc432),
    g(0xd5b003151e0adfe3, 0xa8c7f832281a39c5, 25, false, 0x3cc4ae523d0861cb),
    g(0x7fa90681efc111e9, 0xa8c7f832281a39c5, 170, true, 0x3e415b0f38747d26),
    g(0x5300bf2d5115d7d4, 0x008265666ae5db4f, 40, false, 0x3f37889a2fe6bf15),
    g(0xa90d6ad1ddae5f03, 0xbc4c54df0494905b, 60, false, 0x3f10e8167f1c3dc4),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x45921b7fe7081667, 0xa8c7f832281a39c5, 30, false, 0x3f4de927d81ddf5e),
    g(0x351ae129207c4886, 0xa8c7f832281a39c5, 25, false, 0x3f58b6d9621da4f2),
];

const DAMPED_JACOBI: [Golden; 18] = [
    g(0x3573d718594e9263, 0xa8c7f832281a39c5, 880, true, 0x3e43726ef02fd306),
    g(0xb282973d454800a4, 0x789a8cfef729961a, 40, false, 0x3f986b106aaa0247),
    g(0xf36ddfcdc1c9cba6, 0x299d3a77c11b0d6d, 60, false, 0x3f91074de4837636),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xe6d596654b4fdd50, 0xa8c7f832281a39c5, 30, false, 0x3f9dec3c5de8566e),
    g(0x52f280bd64db730d, 0xa8c7f832281a39c5, 25, false, 0x3fa0eb18ee73ccb3),
    g(0x76a5f0799748a56f, 0xa8c7f832281a39c5, 50, true, 0x3e0bdb901e7091d9),
    g(0x43bb768268f57c1c, 0xb9ad15adcf781ce5, 40, false, 0x3e62de4ca7af7a29),
    g(0x8e6bb3c0ca522440, 0x7eb856a355f38d54, 32, true, 0x3ea9185dac569cbf),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xf45bb846307cface, 0xa8c7f832281a39c5, 30, false, 0x3ebb19e5816a2f00),
    g(0x6f76a3488d8ed7c1, 0xa8c7f832281a39c5, 25, false, 0x3ee77924caea03bc),
    g(0x479bf61d6f7386e9, 0xa8c7f832281a39c5, 2000, false, 0x7ff0000000000000),
    g(0x7d5ca17bd96bd172, 0x99e12763d186557f, 40, false, 0x4048630b7738a6bb),
    g(0xec70b82ec7b3df99, 0x9b5d77ef1f6ff63d, 60, false, 0x4098b4b804444838),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x7884a89010830f78, 0xa8c7f832281a39c5, 30, false, 0x402129e4d42c9e73),
    g(0x033cb4165754944b, 0xa8c7f832281a39c5, 25, false, 0x400ce699bae7f898),
];

const BLOCK_JACOBI: [Golden; 18] = [
    g(0xe3d445e87694fd94, 0xa8c7f832281a39c5, 280, true, 0x3e3c5aa119e6e0e8),
    g(0x2f9cea12f165e3eb, 0x0c411944f5271087, 40, false, 0x3f74e54a17b1dead),
    g(0x9e201d9a9e77f879, 0x9ac6fd5d6f409d81, 60, false, 0x3f5b0151bf8ace5d),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xccecf2c3db3d5dfb, 0xa8c7f832281a39c5, 30, false, 0x3f8261653696f9ff),
    g(0xce52106fbd7a25c3, 0xa8c7f832281a39c5, 25, false, 0x3f886112c5f0e39a),
    g(0xd1902805f053ee55, 0xa8c7f832281a39c5, 30, true, 0x3df882f8a6f56cee),
    g(0x60e314b1d43bb1bb, 0x4dc32339e1bd6ba2, 40, false, 0x3d5e6724779e8b60),
    g(0x5edefc728568f315, 0xcf97d0c44c8c4b27, 19, true, 0x3ea438ee1d27b62d),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xd1902805f053ee55, 0xa8c7f832281a39c5, 30, false, 0x3df882f8a6f56cee),
    g(0xc91c5c601ba6ba3e, 0xa8c7f832281a39c5, 25, false, 0x3e464886efbea781),
    g(0x9e53cbc1e2d67ff2, 0xa8c7f832281a39c5, 180, false, 0x7ff0000000000000),
    g(0x4ba881f52ea0aeed, 0xf8a6ef61e3601d78, 40, false, 0x46e7c50495f31bee),
    g(0x9a059fda44e5456d, 0xc758e836fd44ed15, 60, false, 0x4a86d12432d91d70),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x72a08ca0716e4511, 0xa8c7f832281a39c5, 30, false, 0x451867a82936d135),
    g(0xeac226932299f132, 0xa8c7f832281a39c5, 25, false, 0x4431968f13ed6ab4),
];

const CG: [Golden; 18] = [
    g(0x9830e8ce6a1a8719, 0xa8c7f832281a39c5, 38, true, 0x3e3bbbb037d0c290),
    g(0x253c18eb8ed41550, 0x527faccb7b18964f, 40, false, 0x3e00d564fb0f0231),
    g(0x63a0cd6ac6f43a1a, 0x10bb58dbc1c8b7ea, 32, true, 0x3ea2c02b9f246edf),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x4c8749f66a5eb3d0, 0xa8c7f832281a39c5, 30, false, 0x3ec215a7cc01d983),
    g(0xc93b6d269e122d7e, 0xa8c7f832281a39c5, 25, false, 0x3ef8302e72bb5389),
    g(0xd288bdc5cc3636fc, 0xa8c7f832281a39c5, 24, true, 0x3e39a929c8253a7e),
    g(0xb65091b60974d115, 0x9c26753602437b51, 40, false, 0x3ce963ca7ff64576),
    g(0x9ac770747e7e66a5, 0x6ebbc6b1dcb4cb92, 18, true, 0x3eb0b90dad589781),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xfba43d4d99dc274f, 0xa8c7f832281a39c5, 30, false, 0x3dc1e04e3823cbc9),
    g(0xbd7698c3e8ec9c8e, 0xa8c7f832281a39c5, 25, false, 0x3e26874d08cbb36e),
    g(0x00687745e9d21694, 0xa8c7f832281a39c5, 116, true, 0x3e32206a3891a7ed),
    g(0x511d67a16bdc5cf8, 0xba20cb261754a9a8, 40, false, 0x3f620c511ec3c085),
    g(0x5f8f4325107f1628, 0x47dd40d65aa28c3e, 60, false, 0x3f3af9568042d27e),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xbf91c6d3e70154cd, 0xa8c7f832281a39c5, 30, false, 0x3f65237c633666bc),
    g(0x0ee0db9bfd698b05, 0xa8c7f832281a39c5, 25, false, 0x3f7b068b2fadf4e2),
];

const PCG_JACOBI: [Golden; 18] = [
    g(0x9830e8ce6a1a8719, 0xa8c7f832281a39c5, 38, true, 0x3e3bbbb037d0c290),
    g(0x253c18eb8ed41550, 0x527faccb7b18964f, 40, false, 0x3e00d564fb0f0231),
    g(0x63a0cd6ac6f43a1a, 0x10bb58dbc1c8b7ea, 32, true, 0x3ea2c02b9f246edf),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x4c8749f66a5eb3d0, 0xa8c7f832281a39c5, 30, false, 0x3ec215a7cc01d983),
    g(0xc93b6d269e122d7e, 0xa8c7f832281a39c5, 25, false, 0x3ef8302e72bb5389),
    g(0xe3b42ae30b74914e, 0xa8c7f832281a39c5, 15, true, 0x3e30657b499cdeb2),
    g(0x1f3a852e37d4c602, 0xe28b43fb531bce03, 40, false, 0x3cb34402eccdae5b),
    g(0x37226d5d14d2fc44, 0xa2dd53620c7d93fd, 11, true, 0x3ea5f89ea3db9634),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xf4e4576d787791f9, 0xa8c7f832281a39c5, 30, false, 0x3cb34046b26d36d7),
    g(0x500c00e3717f4010, 0xa8c7f832281a39c5, 25, false, 0x3d0c79b2c3b68923),
    g(0xd2fb0b053f0b54d5, 0xa8c7f832281a39c5, 42, true, 0x3e1e1acb32456629),
    g(0x1ff101ed8ca58038, 0x4d3f8580b0886bb6, 40, false, 0x3e865463dc81ab5e),
    g(0xdfe871a2cd2e8092, 0x59b93465b0382b45, 37, true, 0x3ea1172690d4a336),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x86f274ccbef478c9, 0xa8c7f832281a39c5, 30, false, 0x3eff0e92d2d83561),
    g(0x398ca4864562e2d0, 0xa8c7f832281a39c5, 25, false, 0x3f31e581899d072e),
];

const PCG_BLOCK_JACOBI: [Golden; 18] = [
    g(0x9a71efb6d629fd8f, 0xa8c7f832281a39c5, 29, true, 0x3e45787e99e6784f),
    g(0x3a231432babddb4c, 0x5880260ec0b07075, 40, false, 0x3d4bf9c97ec817a8),
    g(0xce4161ec85e9f060, 0x94b528221c9032e5, 23, true, 0x3ea40ae0aa83f234),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x4b04613481e8f948, 0xa8c7f832281a39c5, 30, false, 0x3e2e32637d08e931),
    g(0x850690d2f3b17de6, 0xa8c7f832281a39c5, 25, false, 0x3e84e1ff9fb58204),
    g(0x31300d27ac832c86, 0xa8c7f832281a39c5, 14, true, 0x3e4196550914278d),
    g(0x15d0f527b7067327, 0xc2188f32e18d6fe6, 40, false, 0x3cb0754ad62382b6),
    g(0x431e9d328f9339c4, 0xd1b01308a89cf5dc, 11, true, 0x3ea040636bcba4ea),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x369d0136bef2c106, 0xa8c7f832281a39c5, 30, false, 0x3cb072f4492a60e0),
    g(0x7272359d12b4f72e, 0xa8c7f832281a39c5, 25, false, 0x3cf25362e460abb8),
    g(0x0d72f464231e3423, 0xa8c7f832281a39c5, 17, true, 0x3e3aa253c697f265),
    g(0x94842d15120a1fdc, 0x8eb6b19bbc99f7d8, 40, false, 0x3cc95c74306922b2),
    g(0x5b09bfdebe13783a, 0xa93c3243e9a33851, 13, true, 0x3eacdffc0302d6ff),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x7668a222b75d02e8, 0xa8c7f832281a39c5, 30, false, 0x3cde83370fd63904),
    g(0x730b41741c01962b, 0xa8c7f832281a39c5, 25, false, 0x3d78add3ae45bdc6),
];

const CHEBYSHEV: [Golden; 18] = [
    g(0x018578208b5eb5ae, 0xa8c7f832281a39c5, 81, true, 0x3e422f4f2b90c3ed),
    g(0x9138c7eeee1c51e4, 0xa7e2ec40cd92ca5f, 40, false, 0x3f25f4eae4aafcc3),
    g(0x3aa1beba0d5eef58, 0xde8c8cccf00cd2ed, 60, false, 0x3ebadcf8a1f3c795),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x3464e1938a94e23a, 0xa8c7f832281a39c5, 30, false, 0x3f57b1652517f892),
    g(0x3582bf567b46f617, 0xa8c7f832281a39c5, 25, false, 0x3f74122645adacd0),
    g(0x4f97238487f10904, 0xa8c7f832281a39c5, 16, true, 0x3e432baf1c0fce65),
    g(0x36cc2a47d074f3f7, 0xea37c7a6eede1865, 40, false, 0x3c983c957eb521d3),
    g(0x139d94215a952bcf, 0x65727ca01f96b845, 12, true, 0x3eae45ac8f7ac510),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x6df2f1cfa048cb62, 0xa8c7f832281a39c5, 30, false, 0x3cc4caee7c534db4),
    g(0x9e6c5fad9bbfc711, 0xa8c7f832281a39c5, 25, false, 0x3d5099964be07fa9),
    g(0xda4d14d70d9cfd47, 0xa8c7f832281a39c5, 91, true, 0x3e3fcfca31cbfa0a),
    g(0x068d7c2bfa146807, 0x10ed7658da4aa9dc, 40, false, 0x3f335a8195a7cc9d),
    g(0x5e4c485a5c047374, 0x204140671e177744, 60, false, 0x3ed537257c4d534f),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x3ce800697a6cc048, 0xa8c7f832281a39c5, 30, false, 0x3f570f3c89b6d8f5),
    g(0xe004c7b533c25a17, 0xa8c7f832281a39c5, 25, false, 0x3f6afe7b04952b7e),
];

const MULTIGRID_DAMPED_JACOBI: [Golden; 18] = [
    g(0xe5d29c20369d6751, 0xa8c7f832281a39c5, 9, true, 0x3e335b9a7cf4e4fa),
    g(0x775759a32cb445cc, 0xd50afa15c2c94842, 40, false, 0x3ca3ccbd6a024e0d),
    g(0x98dd6df99828357a, 0xe63def97beecfec2, 6, true, 0x3eab02fd56888883),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x225809185c4ccba4, 0xa8c7f832281a39c5, 30, false, 0x3ca50096ae15ed94),
    g(0x57192f7069935942, 0xa8c7f832281a39c5, 25, false, 0x3ca0c9c11fee584f),
    g(0x20d09e197c3d32f6, 0xa8c7f832281a39c5, 8, true, 0x3e166ed4023aefa6),
    g(0xa0f2f36ccf1f6af5, 0x272617e0c70d693f, 40, false, 0x3c8b185afee8625d),
    g(0x2bc67551d2312e26, 0xeb958c4dd7d998bb, 5, true, 0x3eb010bd10e2c417),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x89504806f420fd7e, 0xa8c7f832281a39c5, 30, false, 0x3c850a4a0283f698),
    g(0x6075378c19dcea01, 0xa8c7f832281a39c5, 25, false, 0x3c8ce42a2defdf93),
    g(0xfea0ffdc5330c03e, 0xa8c7f832281a39c5, 255, false, 0x7ff0000000000000),
    g(0xc0b0fd3340055eb7, 0x32d202055ea51080, 40, false, 0x44946ffbebba41d5),
    g(0xc7626c242d134410, 0x0423f59f79b06a17, 60, false, 0x470bb79974aa829b),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xd35cf90c87ff4074, 0xa8c7f832281a39c5, 30, false, 0x4358d19a5b1f0c6c),
    g(0x7bce3965c4944cfc, 0xa8c7f832281a39c5, 25, false, 0x42bb5997fa51caac),
];

const MULTIGRID_GAUSS_SEIDEL: [Golden; 18] = [
    g(0x6f64483102a2542c, 0xa8c7f832281a39c5, 6, true, 0x3e1acdf2c050b995),
    g(0x2fb3cefb9c847811, 0xb50a8d9fe2906124, 40, false, 0x3ca75cf820a9deb8),
    g(0x91aedab521448272, 0x9630800d0174f393, 4, true, 0x3ea3b3b0b5bf472c),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xd248ee04a89620b9, 0xa8c7f832281a39c5, 30, false, 0x3ca7aaaf68e0e49a),
    g(0xcf8949f5e8608e1f, 0xa8c7f832281a39c5, 25, false, 0x3ca700bbfca55439),
    g(0x1bdd70956a60900d, 0xa8c7f832281a39c5, 3, true, 0x3e0b425eab3c924d),
    g(0x173f1b15b5860215, 0x9550696d7bf5c429, 40, false, 0x3ca08a7dccaffaff),
    g(0x69e924ea8b0ffd20, 0x22edf122d3f60c5f, 2, true, 0x3eac0bdc612bf1f8),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x173f1b15b5860215, 0xa8c7f832281a39c5, 30, false, 0x3ca08a7dccaffaff),
    g(0x173f1b15b5860215, 0xa8c7f832281a39c5, 25, false, 0x3ca08a7dccaffaff),
    g(0x3f765a178b53a2de, 0xa8c7f832281a39c5, 9, true, 0x3e336823345302bb),
    g(0x12422d018bbe71b0, 0xcab2ea7eda58652d, 40, false, 0x3cb713f26e5e2db9),
    g(0x17ca05cb977cddc5, 0xe0cb25c65bdad29f, 6, true, 0x3eafd421d55e7de2),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xa4d21345e8180c55, 0xa8c7f832281a39c5, 30, false, 0x3caa11382298e7fd),
    g(0x9414d40e66fd66ed, 0xa8c7f832281a39c5, 25, false, 0x3cb718fdc54b54fc),
];

const MULTIGRID_ASYNC: [Golden; 18] = [
    g(0xb9836ff202f47cb6, 0xa8c7f832281a39c5, 7, true, 0x3e22f57b20557288),
    g(0xfe7df3b3c723a1e8, 0x560d98bb829f5630, 40, false, 0x3caa7aee4a06ba7b),
    g(0x3cd3ba9c1a773ee5, 0xe9badd8cea06e18a, 5, true, 0x3e95063b35f74e5b),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x5cd7d6675206efeb, 0xa8c7f832281a39c5, 30, false, 0x3caada03fb41df85),
    g(0xf5a160211367555f, 0xa8c7f832281a39c5, 25, false, 0x3ca7eed1ca0f1dbd),
    g(0xc61b006be13442c1, 0xa8c7f832281a39c5, 6, true, 0x3e091bbdaca15af3),
    g(0x2a41e7f140564ded, 0x74e9f0fe785d94fb, 40, false, 0x3ca0608e52d7da49),
    g(0x714936d9d8a6b813, 0x59a5c9cbd8bd009d, 4, true, 0x3e9bafb14e6f09ad),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x2a41e7f140564ded, 0xa8c7f832281a39c5, 30, false, 0x3ca0608e52d7da49),
    g(0xced09eb55252ea13, 0xa8c7f832281a39c5, 25, false, 0x3ca135aebe63104a),
    g(0x47efb9921198820a, 0xa8c7f832281a39c5, 15, true, 0x3e3b729c2e5b2423),
    g(0x1ece1879a7593108, 0x0ef7d2e5adf7fd80, 40, false, 0x3caa98e9ad26c66f),
    g(0x1f33ce47f25b47ec, 0x71d22af337d4ca95, 10, true, 0x3ea20e0376cd8a57),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xec7dc6cd8d4d521e, 0xa8c7f832281a39c5, 30, false, 0x3d190ffaf678c31e),
    g(0x2276c263fadd4a9e, 0xa8c7f832281a39c5, 25, false, 0x3d79647be8aee712),
];

const ASYNC_SIM: [Golden; 18] = [
    g(0xf7f67ab288a7c824, 0xa8c7f832281a39c5, 240, true, 0x3e40a251bc71c702),
    g(0xea4fbcd036a94f00, 0x33493d57f1aa8a41, 40, false, 0x3f725d680d6def0c),
    g(0x2e4bfc94838477c5, 0xc9fc6cfffd9d2aec, 60, false, 0x3f514c91274c6216),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x152a382c8347e1c3, 0xa8c7f832281a39c5, 30, false, 0x3f814a56d79c725a),
    g(0x92cad9edf3ff5eaa, 0xa8c7f832281a39c5, 25, false, 0x3f85a9080e7c6eae),
    g(0x3e420f00df67acb2, 0xa8c7f832281a39c5, 30, true, 0x3d911125d2011629),
    g(0xad8acdd31a574cc5, 0x43296877c6da55d9, 40, false, 0x3ce0ecb080e017e1),
    g(0x2a69b518a084658c, 0x2be842505161b109, 15, true, 0x3ea3501014e25e81),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x96136db54669bc54, 0xa8c7f832281a39c5, 30, false, 0x3d92c664aedc1fbf),
    g(0xc770c33a269b684b, 0xa8c7f832281a39c5, 25, false, 0x3debdf6fac730d67),
    g(0x61bd15ee87e18d17, 0xa8c7f832281a39c5, 200, false, 0x7ff0000000000000),
    g(0x7777b4b370a8a714, 0x0fc45b63d528317e, 40, false, 0x460259797858d0d0),
    g(0xbf6fd3b5eb2465b0, 0x2b310ba562bb08d2, 60, false, 0x495dcac82e35b4ad),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0x9cfa998d6631e230, 0xa8c7f832281a39c5, 30, false, 0x4489ae8c5effe056),
    g(0xaf9a49f250116392, 0xa8c7f832281a39c5, 25, false, 0x43984ce12dbc6766),
];

const ASYNC_SIM_FILTERED: [Golden; 18] = [
    g(0xbcb94289f754b437, 0xa8c7f832281a39c5, 300, true, 0x3e42c06ffd19f2d9),
    g(0x8e8f2a347fdf6b29, 0xfcbebe6b269f2299, 40, false, 0x3f7f2bde18a5ca60),
    g(0x617c6bf84a58222e, 0x1154255a4a79ed10, 60, false, 0x3f63eb07e380882d),
    g(0x948ec05e75126655, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xa33f201cc72cf866, 0xa8c7f832281a39c5, 30, false, 0x3f8a3223d05f6b55),
    g(0x181b882c6d740846, 0xa8c7f832281a39c5, 25, false, 0x3f90ad77b2df53dc),
    g(0x345475d9f124b6e4, 0xa8c7f832281a39c5, 30, true, 0x3e199c3fd9e92074),
    g(0xf6f30789f7495fc0, 0xf04c1769146a8925, 40, false, 0x3d9770c0f56b3a50),
    g(0xbaaa9e9d057c89b3, 0x763a5cc5a1a1429f, 21, true, 0x3e95c9df9a8bf448),
    g(0xcdd0c2c49acaa453, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xff6be6606a5da9a5, 0xa8c7f832281a39c5, 30, false, 0x3e2129be501de03a),
    g(0x7d2ee62c5ea58bb7, 0xa8c7f832281a39c5, 25, false, 0x3e6225879d7520bb),
    g(0x5502591617d9d60c, 0xa8c7f832281a39c5, 250, false, 0x7ff0000000000000),
    g(0x83fb7e827e7df0cd, 0xdd1bf18433fd9a96, 40, false, 0x4513ddf5c6c205d3),
    g(0xa22930b831c47334, 0xe7cb680187256b56, 60, false, 0x473063c6aed3b68e),
    g(0x1d4d63e57f86ea05, 0xa8c7f832281a39c5, 0, false, 0x3ff0000000000000),
    g(0xa6bc7f7ca76a875f, 0xa8c7f832281a39c5, 30, false, 0x43bc3475661522ca),
    g(0x0af516b634eb8542, 0xa8c7f832281a39c5, 25, false, 0x43037780c6782a7f),
];

#[test]
fn jacobi_is_pinned() {
    check("jacobi", &JACOBI, |s, o| jacobi(&s.a, &s.b, &zeros(s), o).unwrap());
}

#[test]
fn gauss_seidel_is_pinned() {
    check("gauss_seidel", &GAUSS_SEIDEL, |s, o| gauss_seidel(&s.a, &s.b, &zeros(s), o).unwrap());
}

#[test]
fn damped_jacobi_is_pinned() {
    check("damped_jacobi", &DAMPED_JACOBI, |s, o| {
        damped_jacobi(&s.a, &s.b, &zeros(s), 0.6, o).unwrap()
    });
}

#[test]
fn block_jacobi_is_pinned() {
    check("block_jacobi", &BLOCK_JACOBI, |s, o| {
        block_jacobi(&s.a, &s.b, &zeros(s), &partition(s), 3, o).unwrap()
    });
}

#[test]
fn cg_is_pinned() {
    check("cg", &CG, |s, o| conjugate_gradient(&s.a, &s.b, &zeros(s), o).unwrap());
}

#[test]
fn pcg_jacobi_is_pinned() {
    check("pcg_jacobi", &PCG_JACOBI, |s, o| {
        pcg(&s.a, &s.b, &zeros(s), &JacobiPreconditioner::new(&s.a).unwrap(), o).unwrap()
    });
}

#[test]
fn pcg_block_jacobi_is_pinned() {
    check("pcg_block_jacobi", &PCG_BLOCK_JACOBI, |s, o| {
        let prec = BlockJacobiPreconditioner::new(&s.a, &partition(s)).unwrap();
        pcg(&s.a, &s.b, &zeros(s), &prec, o).unwrap()
    });
}

#[test]
fn auto_chebyshev_is_pinned() {
    check("auto_chebyshev", &CHEBYSHEV, |s, o| auto_chebyshev(&s.a, &s.b, &zeros(s), o).unwrap().0);
}

#[test]
fn multigrid_damped_jacobi_is_pinned() {
    check("multigrid_damped_jacobi", &MULTIGRID_DAMPED_JACOBI, |s, o| {
        multigrid(DampedJacobiSmoother::default, s, o)
    });
}

#[test]
fn multigrid_gauss_seidel_is_pinned() {
    check("multigrid_gauss_seidel", &MULTIGRID_GAUSS_SEIDEL, |s, o| {
        multigrid(|| GaussSeidelSmoother, s, o)
    });
}

#[test]
fn multigrid_async_is_pinned() {
    check("multigrid_async", &MULTIGRID_ASYNC, |s, o| {
        multigrid(|| AsyncSmoother { block_size: 16, ..Default::default() }, s, o)
    });
}

#[test]
fn async_sim_is_pinned() {
    check("async_sim", &ASYNC_SIM, |s, o| {
        async_solver().solve(&s.a, &s.b, &zeros(s), &partition(s), o).unwrap()
    });
}

#[test]
fn async_sim_filtered_is_pinned() {
    check("async_sim_filtered", &ASYNC_SIM_FILTERED, |s, o| {
        async_solver().solve_filtered(&s.a, &s.b, &zeros(s), &partition(s), o, &DropSome).unwrap()
    });
}
