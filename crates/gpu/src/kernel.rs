//! The kernel and filter traits connecting the numerics (abr-core) to the
//! execution fabric (this crate).
//!
//! A [`BlockKernel`] is what a CUDA kernel is to the paper: given the
//! current iterate, it computes replacement values for one thread block's
//! rows. The executors decide *when* each block runs and *which* iterate
//! state it observes; an [`UpdateFilter`] decides whether an update is
//! committed at all (the fault-injection hook used by `abr-fault`).

use crate::xview::XView;

/// Reusable per-worker workspace for [`BlockKernel::update_block_with`].
///
/// Executors own one scratch per worker (the DES executor models one
/// in-flight update at a time per replayed event, so it keeps a single
/// scratch; the threaded executor keeps one per OS thread) and hand it to
/// every update that worker performs. Kernels size the buffers on first
/// use with [`BlockScratch::ensure`]; after the first update of the
/// largest block, no further allocation happens — the capacity has
/// stabilised and every subsequent update is allocation-free.
///
/// The buffers carry no values across calls: kernels must treat their
/// contents as garbage on entry (except that `ensure` guarantees the
/// lengths). Two workers must never share one scratch concurrently —
/// `&mut` enforces this within safe code.
#[derive(Debug, Default)]
pub struct BlockScratch {
    /// Current local iterate (plus one guaranteed-zero pad slot for
    /// ELL-packed sweeps).
    pub cur: Vec<f64>,
    /// Next local iterate for Jacobi-style double buffering.
    pub next: Vec<f64>,
    /// Frozen off-block contribution `s_i = b_i - sum_{j not in block} a_ij x_j`.
    pub frozen: Vec<f64>,
}

impl BlockScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Resizes all three buffers to hold a block of `nb` rows: `frozen`
    /// to `nb`, `cur`/`next` to `nb + 1` (the extra slot is the ELL pad
    /// target). Only grows capacity; never shrinks it.
    #[inline]
    pub fn ensure(&mut self, nb: usize) {
        self.cur.resize(nb + 1, 0.0);
        self.next.resize(nb + 1, 0.0);
        self.frozen.resize(nb, 0.0);
    }

    /// Records an exclusive claim of this scratch in the happens-before
    /// shadow (sanitizer builds only). `&mut` rules out concurrent
    /// sharing in safe code, but executors hand scratches around by
    /// index — a claim by a worker that does not happen-after the
    /// previous worker's claim is reported as a conflicting write.
    #[cfg(any(feature = "model", feature = "sanitize"))]
    #[inline]
    pub fn hb_claim(&self) {
        abr_sync::hb::on_data_write(abr_sync::hb::id_of(self), abr_sync::hb::Access::WriteExcl);
    }
}

/// One block-update computation.
///
/// Implementations live in `abr-core` (the async-(k) local sweep) and in
/// tests. They must be `Sync`: the threaded executor calls `update_block`
/// from many threads at once.
pub trait BlockKernel: Sync {
    /// Length of the iterate vector.
    fn n(&self) -> usize;

    /// Number of row blocks.
    fn n_blocks(&self) -> usize;

    /// Half-open row range `[start, end)` of block `b`.
    fn block_range(&self, b: usize) -> (usize, usize);

    /// Computes new values for the rows of block `b`, reading the shared
    /// iterate through `x`. `out` has length `end - start`.
    fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]);

    /// Like [`update_block`](Self::update_block), but with a reusable
    /// [`BlockScratch`] so kernels that need working buffers can run
    /// allocation-free in steady state. Executors call this form, passing
    /// one scratch per worker. The default delegates to `update_block`
    /// (correct for kernels that need no workspace).
    fn update_block_with(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) {
        let _ = scratch;
        self.update_block(b, x, out);
    }

    /// Like [`update_block_with`](Self::update_block_with), but also
    /// returns the block's **fused residual sub-norm estimate**:
    /// `Σ_{i ∈ block} r_i²` where `r_i ≈ (b − A x)_i` is evaluated from
    /// values the sweep already holds in registers (the off-block halo
    /// frozen at the snapshot the update read). The estimate prices a
    /// cheap convergence poll — the persistent executor's monitor reduces
    /// one slot per block instead of running an O(nnz) SpMV — and is
    /// **never** the basis for declaring convergence: the executor always
    /// confirms with the exact residual before stopping.
    ///
    /// `None` (the default) means this kernel cannot estimate; the
    /// executor then leaves the fused slots cold and the monitor keeps
    /// polling exactly.
    fn update_block_estimating(
        &self,
        b: usize,
        x: &XView<'_>,
        out: &mut [f64],
        scratch: &mut BlockScratch,
    ) -> Option<f64> {
        self.update_block_with(b, x, out, scratch);
        None
    }

    /// Relative virtual duration of one update of block `b`, in arbitrary
    /// units (the DES executor multiplies by a seeded jitter). The default
    /// is proportional to the block's row count.
    fn block_cost(&self, b: usize) -> f64 {
        let (s, e) = self.block_range(b);
        (e - s) as f64
    }

    /// The other blocks whose components block `b` reads (its coupling
    /// neighbourhood). When provided, the DES executor records the
    /// realised staleness of every such read — the measured shift
    /// function `s(k, j)` of the paper's Eq. (3). `None` (the default)
    /// disables the measurement.
    fn neighbor_blocks(&self, b: usize) -> Option<&[usize]> {
        let _ = b;
        None
    }
}

/// Decides whether updates are committed — the fault-injection hook.
///
/// `round` is the per-block update count (the block's own global-iteration
/// index) at the time of the update.
pub trait UpdateFilter: Sync {
    /// If `false`, the executor skips computing block `b` entirely at its
    /// `round`-th opportunity (e.g. the core owning it is down).
    fn block_enabled(&self, block: usize, round: usize) -> bool {
        let _ = (block, round);
        true
    }

    /// If `false`, the computed value for component `i` is discarded at
    /// this `round` (the component's core is down); the old value stays.
    fn component_enabled(&self, i: usize, round: usize) -> bool {
        let _ = (i, round);
        true
    }

    /// `true` promises that [`component_enabled`](Self::component_enabled)
    /// holds for every component in `[start, end)` at this `round`, so the
    /// executors commit the block's values without asking per component.
    /// `false` (the default) promises nothing: the executor asks each
    /// component.
    fn all_components_enabled(&self, start: usize, end: usize, round: usize) -> bool {
        let _ = (start, end, round);
        false
    }
}

/// The trivial filter: everything runs.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl UpdateFilter for AllowAll {
    fn all_components_enabled(&self, _start: usize, _end: usize, _round: usize) -> bool {
        true
    }
}

#[cfg(test)]
pub(crate) mod test_kernels {
    use super::*;

    /// A toy kernel for executor tests: each block's components move
    /// halfway toward the mean of the whole vector, i.e.
    /// `x_i <- (x_i + mean(x)) / 2`. The fixed point is the consensus
    /// vector; convergence is robust to any update order, making it a good
    /// probe for executor correctness.
    pub struct ConsensusKernel {
        pub n: usize,
        pub block_size: usize,
    }

    impl BlockKernel for ConsensusKernel {
        fn n(&self) -> usize {
            self.n
        }
        fn n_blocks(&self) -> usize {
            self.n.div_ceil(self.block_size)
        }
        fn block_range(&self, b: usize) -> (usize, usize) {
            let s = b * self.block_size;
            (s, (s + self.block_size).min(self.n))
        }
        fn update_block(&self, b: usize, x: &XView<'_>, out: &mut [f64]) {
            // The O(n) mean is recomputed on every update on purpose: the
            // point of this kernel is to observe the *shared iterate as
            // this update sees it*, including concurrent writes from other
            // blocks. Hoisting or caching the mean would decouple the probe
            // from the asynchronous schedule under test.
            let mean: f64 = (0..self.n).map(|i| x.get(i)).sum::<f64>() / self.n as f64;
            let (s, e) = self.block_range(b);
            for (o, i) in out.iter_mut().zip(s..e) {
                *o = 0.5 * (x.get(i) + mean);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_kernels::ConsensusKernel;
    use super::*;

    #[test]
    fn default_cost_is_block_length() {
        let k = ConsensusKernel { n: 10, block_size: 4 };
        assert_eq!(k.n_blocks(), 3);
        assert_eq!(k.block_cost(0), 4.0);
        assert_eq!(k.block_cost(2), 2.0); // last block has 2 rows
    }

    #[test]
    fn allow_all_allows() {
        let f = AllowAll;
        assert!(f.block_enabled(3, 100));
        assert!(f.component_enabled(7, 0));
        assert!(f.all_components_enabled(0, 100, 3));
    }

    #[test]
    fn consensus_kernel_moves_toward_mean() {
        let k = ConsensusKernel { n: 4, block_size: 4 };
        let x = [0.0, 0.0, 4.0, 4.0];
        let mut out = [0.0; 4];
        k.update_block(0, &XView::Plain(&x), &mut out);
        assert_eq!(out, [1.0, 1.0, 3.0, 3.0]);
    }
}
