//! Explicit four-lane `f64` vectors for the sweep and SpMV kernels, and
//! the instruction-set dispatch the kernels built on them run through.
//!
//! Stable-Rust data parallelism: [`f64x4`] is a `#[repr(transparent)]`
//! newtype over `[f64; 4]` whose fixed-length lane expressions LLVM's
//! autovectorizer reliably lowers to packed SSE2 instructions, and to
//! 256-bit AVX2 ones inside an [`Isa::run`] on a host that has AVX2 (or
//! everywhere under `-C target-cpu=native`) — no nightly `portable_simd`
//! required. The CI `bench-smoke` matrix runs the kernels built on this
//! module under both flag sets, and runs the dispatch proptest in both,
//! so a lowering regression fails loudly.
//!
//! # The accumulation-order contract
//!
//! The vectorized sweep tiers built on this type are required to be
//! **bit-identical** to their scalar counterparts: each lane is one row,
//! and a lane performs exactly the scalar op sequence in the scalar
//! order. That is why the hot loops use [`f64x4::mul`] followed by
//! [`f64x4::sub`] — two roundings, the same as the scalar
//! `acc -= v * x` — and *not* [`f64x4::mul_add`]: a fused multiply-add
//! rounds once, which changes the bits, and on targets without FMA
//! hardware it lowers to a libm soft-float call, which is also far
//! slower. `mul_add` is still provided for estimator-style callers that
//! tolerate contraction and compile with FMA enabled.
//!
//! The contract covers the AVX2 entry too. Wider registers change how
//! many rows run at once, never the op sequence of one row, so both
//! entries produce the same bits (the dispatch proptest in
//! `tests/block_plan_equivalence.rs` runs every sweep tier through
//! both). [`Isa::run`] enables `avx2` and leaves `fma` off. Rust never
//! fuses a product and a sum on its own, whatever the target features,
//! so the two-rounding `acc -= v * x` would survive `fma` too; but the
//! entry exists to widen the registers, and with `fma` on, an explicit
//! [`f64x4::mul_add`] would compile to one instruction inside the entry
//! and to a libm call outside it, two code paths for one kernel.

use std::ops::{Add, Mul, Sub};

/// Number of lanes in a [`f64x4`].
pub const LANES: usize = 4;

/// A four-lane `f64` vector. Named after the `std::simd` convention the
/// stable channel does not yet expose.
#[allow(non_camel_case_types)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(transparent)]
pub struct f64x4(pub [f64; 4]);

impl f64x4 {
    /// All lanes set to `v`.
    #[inline(always)]
    pub fn splat(v: f64) -> Self {
        f64x4([v; 4])
    }

    /// Loads the first four elements of `s` (panics when `s.len() < 4`).
    #[inline(always)]
    pub fn load(s: &[f64]) -> Self {
        let a: &[f64; 4] = s[..4].try_into().expect("f64x4::load needs 4 lanes");
        f64x4(*a)
    }

    /// Stores the lanes into the first four elements of `out`.
    #[inline(always)]
    pub fn store(self, out: &mut [f64]) {
        out[..4].copy_from_slice(&self.0);
    }

    /// Gathers `src[idx[j]]` per lane from the first four indices of
    /// `idx` (the ELL column layout keeps indices as `u32`).
    #[inline(always)]
    pub fn gather_u32(src: &[f64], idx: &[u32]) -> Self {
        f64x4([
            src[idx[0] as usize],
            src[idx[1] as usize],
            src[idx[2] as usize],
            src[idx[3] as usize],
        ])
    }

    /// Lane-wise fused multiply-add `self * b + c` (one rounding per
    /// lane). **Not** used by the bit-exact sweep tiers — see the module
    /// docs — and only fast on targets compiled with FMA support.
    #[inline(always)]
    pub fn mul_add(self, b: Self, c: Self) -> Self {
        f64x4([
            self.0[0].mul_add(b.0[0], c.0[0]),
            self.0[1].mul_add(b.0[1], c.0[1]),
            self.0[2].mul_add(b.0[2], c.0[2]),
            self.0[3].mul_add(b.0[3], c.0[3]),
        ])
    }

    /// Horizontal sum, left to right (lane 0 first — the order a scalar
    /// loop over the lanes would use).
    #[inline(always)]
    pub fn reduce_sum(self) -> f64 {
        ((self.0[0] + self.0[1]) + self.0[2]) + self.0[3]
    }
}

impl Add for f64x4 {
    type Output = f64x4;
    #[inline(always)]
    fn add(self, o: f64x4) -> f64x4 {
        f64x4([
            self.0[0] + o.0[0],
            self.0[1] + o.0[1],
            self.0[2] + o.0[2],
            self.0[3] + o.0[3],
        ])
    }
}

impl Sub for f64x4 {
    type Output = f64x4;
    #[inline(always)]
    fn sub(self, o: f64x4) -> f64x4 {
        f64x4([
            self.0[0] - o.0[0],
            self.0[1] - o.0[1],
            self.0[2] - o.0[2],
            self.0[3] - o.0[3],
        ])
    }
}

impl Mul for f64x4 {
    type Output = f64x4;
    #[inline(always)]
    fn mul(self, o: f64x4) -> f64x4 {
        f64x4([
            self.0[0] * o.0[0],
            self.0[1] * o.0[1],
            self.0[2] * o.0[2],
            self.0[3] * o.0[3],
        ])
    }
}

/// The instruction set a kernel's hot loops run under: AVX2 on an
/// x86-64 host that has it, else the target's baseline (SSE2 on x86-64).
/// A kernel picks it once, at construction; every block update then
/// enters its loops through [`Isa::run`].
///
/// The AVX2 value can only come from [`Isa::detect`], after the CPU has
/// reported the feature, which is what makes [`Isa::run`] safe to call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Isa {
    avx2: bool,
}

impl Isa {
    /// The target's baseline instruction set: no runtime-detected feature.
    pub const BASELINE: Isa = Isa { avx2: false };

    /// The widest set this module dispatches to that the running CPU
    /// supports.
    pub fn detect() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            Isa { avx2: std::arch::is_x86_feature_detected!("avx2") }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            Isa::BASELINE
        }
    }

    /// Whether [`run`](Self::run) enters the AVX2 entry.
    pub fn is_avx2(self) -> bool {
        self.avx2
    }

    /// Runs `f` compiled for this instruction set. The AVX2 entry is one
    /// `#[target_feature(enable = "avx2")]` function, instantiated per
    /// closure type; code reaches its registers only if it is inlined into
    /// it, so `f` and every function down to the hot loops must be
    /// `#[inline(always)]` (a plain `#[inline]` function that LLVM keeps
    /// out of line is compiled for the baseline, and nothing moves).
    #[inline(always)]
    pub fn run<R>(self, f: impl FnOnce() -> R) -> R {
        #[cfg(target_arch = "x86_64")]
        if self.avx2 {
            // SAFETY: `avx2` is only ever true in a value `detect` built
            // after the CPU reported AVX2 support.
            return unsafe { run_avx2(f) };
        }
        f()
    }
}

/// The AVX2 entry of [`Isa::run`]; `fma` stays off (see the module
/// docs).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_avx2<R>(f: impl FnOnce() -> R) -> R {
    f()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_arithmetic_matches_scalar_bitwise() {
        let a = f64x4([1.5, -2.25, 1.0e-300, f64::INFINITY]);
        let b = f64x4([3.0, 0.1, 7.0e299, 2.0]);
        let c = f64x4([0.5, -0.5, 1.0, -1.0]);
        let fused = a.mul_add(b, c);
        let two_step = a * b + c;
        for j in 0..LANES {
            assert_eq!((a + b).0[j].to_bits(), (a.0[j] + b.0[j]).to_bits());
            assert_eq!((a - b).0[j].to_bits(), (a.0[j] - b.0[j]).to_bits());
            assert_eq!((a * b).0[j].to_bits(), (a.0[j] * b.0[j]).to_bits());
            assert_eq!(fused.0[j].to_bits(), a.0[j].mul_add(b.0[j], c.0[j]).to_bits());
            assert_eq!(two_step.0[j].to_bits(), (a.0[j] * b.0[j] + c.0[j]).to_bits());
        }
    }

    #[test]
    fn load_store_gather_roundtrip() {
        let src = [10.0, 20.0, 30.0, 40.0, 50.0];
        let v = f64x4::load(&src[1..]);
        assert_eq!(v.0, [20.0, 30.0, 40.0, 50.0]);
        let mut out = [0.0; 6];
        v.store(&mut out[2..]);
        assert_eq!(out, [0.0, 0.0, 20.0, 30.0, 40.0, 50.0]);
        let idx: [u32; 4] = [4, 0, 2, 2];
        let g = f64x4::gather_u32(&src, &idx);
        assert_eq!(g.0, [50.0, 10.0, 30.0, 30.0]);
    }

    #[test]
    fn isa_runs_the_closure_on_either_entry() {
        let detected = Isa::detect();
        assert!(!Isa::BASELINE.is_avx2());
        let v = f64x4([1.5, -2.0, 0.25, 3.0]);
        let want = (v * v - v).0;
        for isa in [Isa::BASELINE, detected] {
            assert_eq!(isa.run(|| (v * v - v).0), want);
        }
    }

    #[test]
    fn splat_and_reduce() {
        assert_eq!(f64x4::splat(2.5).0, [2.5; 4]);
        // reduce order is ((l0 + l1) + l2) + l3, asserted bitwise
        let v = f64x4([1.0e16, 1.0, -1.0e16, 3.0]);
        assert_eq!(v.reduce_sum().to_bits(), (((1.0e16_f64 + 1.0) + -1.0e16) + 3.0).to_bits());
    }

    #[test]
    #[should_panic(expected = "range end index 4")]
    fn short_load_panics() {
        let _ = f64x4::load(&[1.0, 2.0, 3.0]);
    }
}
