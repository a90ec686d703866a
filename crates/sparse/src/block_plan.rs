//! Precompiled block-local kernel plans.
//!
//! The paper's core performance claim (§3.3, Algorithm 1) is that the `k`
//! local Jacobi sweeps of async-(k) are nearly free because the subdomain
//! lives in the multiprocessor's cache. Realising that on any hardware
//! requires the *data layout* to cooperate: the sweep loop must touch a
//! packed local operator, not re-slice the global matrix on every pass.
//!
//! A [`BlockPlan`] compiles a `(matrix, partition)` pair once, at kernel
//! construction, into per-block structures sized for exactly that:
//!
//! * a **packed local submatrix** per block — CSR over block-rebased
//!   column indices with the diagonal extracted and pre-inverted, so the
//!   inner sweep has no `col != row` branch and no division;
//! * an **ELL-packed variant** for short-row blocks — fixed-width,
//!   column-major, zero-padded — giving the Jacobi sweep a branch-free,
//!   SIMD-friendly inner loop (padding entries point at a dedicated
//!   always-zero slot so they are numerically inert for *every* input,
//!   including non-finite iterates of divergent runs);
//! * a **packed halo segment** per block — the off-block `(column, value)`
//!   pairs of its rows, contiguous in memory — so freezing the off-block
//!   contribution `s_i = b_i − Σ_{j∉block} a_ij x_j` is a single linear
//!   gather instead of two span-sliced passes over the global CSR.
//!
//! Entry order within each row is preserved from the source CSR, so a
//! sweep over the plan is **bit-identical** to the same sweep over the
//! global matrix (floating-point accumulation order is unchanged). The
//! equivalence proptests in the workspace root assert exactly this.

use crate::par::ParContext;
use crate::partition::{RowBlock, RowPartition};
use crate::stencil::{RowCursor, RunBuilder, StencilBlock, StencilDescriptor};
use crate::{CsrMatrix, Result, SparseError};

/// Local-row widths up to this many off-diagonal entries get an
/// ELL-packed variant of their block (beyond it, padding waste and cache
/// pressure outweigh the branch-free loop). Raised from 8 when the
/// four-lane vectorized sweep landed: with four rows per iteration the
/// padding slots ride along in lanes that were already paid for, so wider
/// rows amortize — e.g. the 9-point FV stencil (width 8, previously right
/// at the edge) and moderately filled random rows now stay on the packed
/// path.
pub const ELL_MAX_WIDTH: usize = 12;

/// Below this many source nonzeros [`BlockPlan::compile`] stays on one
/// thread — scoped-thread spawn overhead would dominate the compile.
pub const PAR_COMPILE_MIN_NNZ: usize = 200_000;

/// Which sweep implementation a block's local operator dispatches to.
/// Selected per block at [`BlockPlan`] compile time; the kernels match on
/// it once per block update, outside the hot loops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SweepTier {
    /// Packed local CSR rows — the fallback every block supports.
    Csr,
    /// Scalar loop over the ELL layout (blocks too narrow to fill
    /// four-lane groups).
    Ell,
    /// Four-row [`crate::simd::f64x4`] lanes over the ELL layout.
    EllSimd,
    /// Matrix-free constant-coefficient stencil runs — no index loads.
    Stencil,
}

/// A fixed-width, column-major, zero-padded copy of one block's local
/// operator (diagonal excluded), for branch-free Jacobi sweeps.
///
/// Layout: `cols[k * rows + r]` / `vals[k * rows + r]` hold row `r`'s
/// `k`-th local off-diagonal entry, in source CSR order. Padding slots
/// have value `0.0` and column index `rows` — one past the local range —
/// which the sweep kernel maps to a scratch slot it keeps at `0.0`, so a
/// padded entry contributes exactly `acc -= 0.0 * 0.0` and never perturbs
/// the accumulation, even when the iterate holds `inf`/`NaN`.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockEll {
    rows: usize,
    width: usize,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl BlockEll {
    /// Rows in the block.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Padded entries per row.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Column-major, block-rebased column indices (padding = `rows`).
    #[inline]
    pub fn cols(&self) -> &[u32] {
        &self.cols
    }

    /// Column-major values (padding = `0.0`).
    #[inline]
    pub fn vals(&self) -> &[f64] {
        &self.vals
    }
}

/// A compiled `(matrix, partition)` pair: packed local operators, packed
/// halos, pre-inverted diagonal, coupling topology, per-block costs.
///
/// # Examples
///
/// ```
/// use abr_sparse::{gen, BlockPlan, RowPartition};
///
/// let a = gen::laplacian_2d_5pt(4);
/// let p = RowPartition::uniform(16, 4).unwrap();
/// let plan = BlockPlan::compile(&a, &p).unwrap();
/// assert_eq!(plan.n_blocks(), 4);
/// // 16 diagonal + 2*3*4 in-block couplings
/// assert_eq!(plan.nnz_local(), 40);
/// assert_eq!(plan.nnz_local() + plan.nnz_halo(), a.nnz());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockPlan {
    n: usize,
    /// Row range starts per block, length `n_blocks + 1`.
    block_offsets: Vec<usize>,
    /// Pre-inverted diagonal, `1 / a_rr` per row.
    inv_diag: Vec<f64>,
    /// Packed local operator (diagonal excluded), block-rebased `u32`
    /// columns, rows concatenated in global row order.
    local_row_ptr: Vec<usize>,
    local_cols: Vec<u32>,
    local_vals: Vec<f64>,
    /// Packed halo: off-block entries with global columns, rows
    /// concatenated in global row order.
    halo_row_ptr: Vec<usize>,
    halo_cols: Vec<usize>,
    halo_vals: Vec<f64>,
    /// Per block: ELL-packed local operator for short-row blocks.
    ell: Vec<Option<BlockEll>>,
    /// Per block: matrix-free stencil runs, when compiled against a
    /// verified [`StencilDescriptor`].
    stencil: Vec<Option<StencilBlock>>,
    /// Per block: the sweep implementation selected at compile time.
    tier: Vec<SweepTier>,
    /// Per block: total source nonzeros of its rows (virtual cost).
    block_nnz: Vec<f64>,
    /// Per block: sorted indices of the other blocks it reads.
    neighbors: Vec<Vec<usize>>,
    /// Offsets into the flattened `neighbors` — kept as `Vec<Vec>` for
    /// simple borrowing; blocks are few compared to rows.
    widest_block: usize,
}

/// One block's share of the plan's flat arrays: disjoint `&mut` slices
/// at the block's offsets, which its compile fills in place.
struct BlockSlices<'p> {
    inv_diag: &'p mut [f64],
    /// The end pointers of the block's rows (entries `start + 1 ..= end`
    /// of the flat row pointer).
    local_ptr: &'p mut [usize],
    local_cols: &'p mut [u32],
    local_vals: &'p mut [f64],
    halo_ptr: &'p mut [usize],
    halo_cols: &'p mut [usize],
    halo_vals: &'p mut [f64],
    /// Offsets of the block's first local and halo entries.
    local_base: usize,
    halo_base: usize,
}

/// The per-block structures a block's compile returns besides what it
/// writes into its [`BlockSlices`].
struct CompiledBlock {
    ell: Option<BlockEll>,
    stencil: Option<StencilBlock>,
    tier: SweepTier,
    neighbors: Vec<usize>,
}

/// Cuts the first `len` elements off `rest`.
fn carve<'p, T>(rest: &mut &'p mut [T], len: usize) -> &'p mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

impl BlockPlan {
    /// Compiles the plan. Fails with [`SparseError::ZeroDiagonal`] when a
    /// row has no (or a zero) diagonal entry, like the kernels it feeds.
    pub fn compile(a: &CsrMatrix, partition: &RowPartition) -> Result<BlockPlan> {
        Self::compile_with_stencil(a, partition, None)
    }

    /// Compiles the plan with an optional matrix-free stencil tier. The
    /// descriptor is [`StencilDescriptor::verify`]-ed against `a` as part
    /// of the compile — an `Err` (rather than a silent fallback) when it
    /// does not describe the matrix exactly, so a caller opting a
    /// hand-loaded matrix in learns immediately that the fast path would
    /// have been wrong. The error is the one `verify` returns.
    ///
    /// Large matrices (≥ [`PAR_COMPILE_MIN_NNZ`] nonzeros) compile their
    /// blocks concurrently on one thread per available core; the result is
    /// bit-identical to the sequential compile (see
    /// [`BlockPlan::compile_with_ctx`] for the argument).
    pub fn compile_with_stencil(
        a: &CsrMatrix,
        partition: &RowPartition,
        descriptor: Option<&StencilDescriptor>,
    ) -> Result<BlockPlan> {
        let threads = if a.nnz() >= PAR_COMPILE_MIN_NNZ {
            std::thread::available_parallelism().map(|v| v.get()).unwrap_or(1).min(8)
        } else {
            1
        };
        Self::compile_with_ctx(a, partition, descriptor, ParContext::new(threads))
    }

    /// Compiles the plan with an explicit [`ParContext`] for the per-block
    /// compile fan-out.
    ///
    /// Each block's packed structures depend only on `(a, partition,
    /// descriptor)` restricted to that block's rows, so blocks compile
    /// independently (in parallel). A first pass counts each block's
    /// local and halo entries; their prefix sums give every block its own
    /// slices of the flat arrays, which the second pass fills in place.
    /// Every array in the result is therefore byte-for-byte identical for
    /// every thread count.
    ///
    /// The descriptor's shape is checked up front; its rows are checked
    /// inside the second pass, each row before it is split, with the same
    /// row check [`StencilDescriptor::verify`] runs. Each block stops at
    /// its lowest failing row and the first failing block's error is
    /// returned, so the error is the sequential compile's first error.
    /// With a descriptor that error is the one `verify` reports: the
    /// stencil centre is nonzero, so a row without a usable diagonal
    /// fails the stencil check before the diagonal check sees it.
    pub fn compile_with_ctx(
        a: &CsrMatrix,
        partition: &RowPartition,
        descriptor: Option<&StencilDescriptor>,
        ctx: ParContext,
    ) -> Result<BlockPlan> {
        if let Some(d) = descriptor {
            d.check_shape(a)?;
        }
        assert!(a.is_square(), "block plans need a square matrix");
        assert_eq!(partition.n(), a.n_rows(), "partition must cover the matrix");
        let n = a.n_rows();
        let blocks = partition.blocks();
        let n_blocks = partition.len();

        let mut block_offsets = Vec::with_capacity(n_blocks + 1);
        block_offsets.extend(blocks.iter().map(|b| b.start));
        block_offsets.push(n);

        let counts = ctx.map_indexed(n_blocks, |b| Self::count_block(a, &blocks[b]));
        let total_local = counts.iter().map(|c| c.0).sum();
        let total_halo = counts.iter().map(|c| c.1).sum();
        let mut inv_diag = vec![0.0f64; n];
        let mut local_row_ptr = vec![0usize; n + 1];
        let mut local_cols = vec![0u32; total_local];
        let mut local_vals = vec![0.0f64; total_local];
        let mut halo_row_ptr = vec![0usize; n + 1];
        let mut halo_cols = vec![0usize; total_halo];
        let mut halo_vals = vec![0.0f64; total_halo];

        // Running sums of the counts place each block's disjoint slices.
        let mut slices = Vec::with_capacity(n_blocks);
        {
            let mut inv_diag = &mut inv_diag[..];
            let mut local_ptr = &mut local_row_ptr[1..];
            let mut local_cols = &mut local_cols[..];
            let mut local_vals = &mut local_vals[..];
            let mut halo_ptr = &mut halo_row_ptr[1..];
            let mut halo_cols = &mut halo_cols[..];
            let mut halo_vals = &mut halo_vals[..];
            let (mut local_base, mut halo_base) = (0, 0);
            for (blk, &(nl, nh)) in blocks.iter().zip(&counts) {
                let nb = blk.len();
                slices.push(BlockSlices {
                    inv_diag: carve(&mut inv_diag, nb),
                    local_ptr: carve(&mut local_ptr, nb),
                    local_cols: carve(&mut local_cols, nl),
                    local_vals: carve(&mut local_vals, nl),
                    halo_ptr: carve(&mut halo_ptr, nb),
                    halo_cols: carve(&mut halo_cols, nh),
                    halo_vals: carve(&mut halo_vals, nh),
                    local_base,
                    halo_base,
                });
                local_base += nl;
                halo_base += nh;
            }
        }
        let compiled = ctx.map_each(slices, |b, out| {
            Self::compile_block(a, partition, &blocks[b], descriptor, out)
        });

        let mut ell = Vec::with_capacity(n_blocks);
        let mut stencil = Vec::with_capacity(n_blocks);
        let mut tier = Vec::with_capacity(n_blocks);
        let mut neighbors = Vec::with_capacity(n_blocks);
        for part in compiled {
            let part = part?;
            ell.push(part.ell);
            stencil.push(part.stencil);
            tier.push(part.tier);
            neighbors.push(part.neighbors);
        }
        let row_ptr = a.row_ptr();
        let block_nnz = blocks.iter().map(|b| (row_ptr[b.end] - row_ptr[b.start]) as f64).collect();
        let widest_block = blocks.iter().map(RowBlock::len).max().unwrap_or(0);

        Ok(BlockPlan {
            n,
            block_offsets,
            inv_diag,
            local_row_ptr,
            local_cols,
            local_vals,
            halo_row_ptr,
            halo_cols,
            halo_vals,
            ell,
            stencil,
            tier,
            block_nnz,
            neighbors,
            widest_block,
        })
    }

    /// The `(local, halo)` entry counts [`compile_block`](Self::compile_block)
    /// writes for `blk`: off-diagonal entries inside the block, and
    /// entries outside it.
    fn count_block(a: &CsrMatrix, blk: &RowBlock) -> (usize, usize) {
        let (mut local, mut halo) = (0usize, 0usize);
        for r in blk.start..blk.end {
            for &c in a.row(r).0 {
                let inside = blk.contains(c);
                local += (inside && c != r) as usize;
                halo += !inside as usize;
            }
        }
        (local, halo)
    }

    /// Compiles one block into its slices of the flat arrays, each row
    /// exactly as the sequential loop over all rows would, and returns
    /// its per-block structures. With a descriptor each row is verified
    /// before it is split and feeds the block's stencil runs.
    fn compile_block(
        a: &CsrMatrix,
        partition: &RowPartition,
        blk: &RowBlock,
        descriptor: Option<&StencilDescriptor>,
        out: BlockSlices<'_>,
    ) -> Result<CompiledBlock> {
        let nb = blk.len();
        let (mut nl, mut nh) = (0usize, 0usize);
        let mut max_local_width = 0usize;
        let mut stencil = descriptor.map(|d| {
            (RowCursor::new(d, blk.start), RunBuilder::new(blk.start, blk.end, d.taps().len()))
        });
        // Halo columns come in runs inside one neighbour block, so the
        // owner lookup is skipped while a column stays in the last one
        // found; `seen` dedupes the short neighbour list.
        let mut last = RowBlock { start: 0, end: 0 };
        let mut seen = vec![false; partition.len()];
        let mut neighbors = Vec::new();

        for (li, r) in (blk.start..blk.end).enumerate() {
            let (cols, vals) = a.row(r);
            if let Some((rows, runs)) = &mut stencil {
                rows.verify_row(cols, vals)?;
                runs.push(rows);
                rows.advance();
            }
            let mut found_diag = false;
            let local_start = nl;
            for (&c, &v) in cols.iter().zip(vals) {
                if c == r {
                    if v != 0.0 {
                        out.inv_diag[li] = 1.0 / v;
                        found_diag = true;
                    }
                } else if blk.contains(c) {
                    out.local_cols[nl] = (c - blk.start) as u32;
                    out.local_vals[nl] = v;
                    nl += 1;
                } else {
                    out.halo_cols[nh] = c;
                    out.halo_vals[nh] = v;
                    nh += 1;
                    if !last.contains(c) {
                        let owner = partition.block_of(c);
                        last = partition.block(owner);
                        if !seen[owner] {
                            seen[owner] = true;
                            neighbors.push(owner);
                        }
                    }
                }
            }
            if !found_diag {
                return Err(SparseError::ZeroDiagonal { row: r });
            }
            max_local_width = max_local_width.max(nl - local_start);
            out.local_ptr[li] = out.local_base + nl;
            out.halo_ptr[li] = out.halo_base + nh;
        }
        neighbors.sort_unstable();

        let ell = if max_local_width <= ELL_MAX_WIDTH && nb > 0 {
            Some(Self::pack_ell(&out, max_local_width))
        } else {
            None
        };
        let stencil = stencil.map(|(_, runs)| runs.finish());
        let tier = match (&stencil, &ell) {
            (Some(_), _) => SweepTier::Stencil,
            (None, Some(_)) if nb >= crate::simd::LANES => SweepTier::EllSimd,
            (None, Some(_)) => SweepTier::Ell,
            (None, None) => SweepTier::Csr,
        };
        Ok(CompiledBlock { ell, stencil, tier, neighbors })
    }

    /// The ELL layout of a block whose local rows are already written.
    fn pack_ell(block: &BlockSlices<'_>, width: usize) -> BlockEll {
        let rows = block.local_ptr.len();
        // Padding: value 0.0, column `rows` (the sweep scratch keeps an
        // always-zero slot there, see module docs).
        let mut cols = vec![rows as u32; rows * width];
        let mut vals = vec![0.0f64; rows * width];
        let mut lo = 0;
        for (r, &end) in block.local_ptr.iter().enumerate() {
            let hi = end - block.local_base;
            for (k, j) in (lo..hi).enumerate() {
                cols[k * rows + r] = block.local_cols[j];
                vals[k * rows + r] = block.local_vals[j];
            }
            lo = hi;
        }
        BlockEll { rows, width, cols, vals }
    }

    /// Number of rows covered.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of blocks.
    #[inline]
    pub fn n_blocks(&self) -> usize {
        self.block_offsets.len() - 1
    }

    /// Half-open row range of block `b`.
    #[inline]
    pub fn block_rows(&self, b: usize) -> (usize, usize) {
        (self.block_offsets[b], self.block_offsets[b + 1])
    }

    /// Rows of the widest block (sizes every per-update scratch buffer).
    #[inline]
    pub fn widest_block(&self) -> usize {
        self.widest_block
    }

    /// Pre-inverted diagonal, indexed by global row.
    #[inline]
    pub fn inv_diag(&self) -> &[f64] {
        &self.inv_diag
    }

    /// Packed local entries of global row `r` (diagonal excluded):
    /// block-rebased columns and values, in source CSR order.
    #[inline]
    pub fn local_row(&self, r: usize) -> (&[u32], &[f64]) {
        let (lo, hi) = (self.local_row_ptr[r], self.local_row_ptr[r + 1]);
        (&self.local_cols[lo..hi], &self.local_vals[lo..hi])
    }

    /// Packed halo entries of global row `r`: global columns and values,
    /// in source CSR order.
    #[inline]
    pub fn halo_row(&self, r: usize) -> (&[usize], &[f64]) {
        let (lo, hi) = (self.halo_row_ptr[r], self.halo_row_ptr[r + 1]);
        (&self.halo_cols[lo..hi], &self.halo_vals[lo..hi])
    }

    /// ELL-packed local operator of block `b`, when the block qualifies
    /// (all local rows at most [`ELL_MAX_WIDTH`] off-diagonal entries).
    #[inline]
    pub fn ell(&self, b: usize) -> Option<&BlockEll> {
        self.ell[b].as_ref()
    }

    /// Matrix-free stencil runs of block `b`, when the plan was compiled
    /// with a verified [`StencilDescriptor`].
    #[inline]
    pub fn stencil_block(&self, b: usize) -> Option<&StencilBlock> {
        self.stencil[b].as_ref()
    }

    /// The sweep tier selected for block `b` at compile time.
    #[inline]
    pub fn tier(&self, b: usize) -> SweepTier {
        self.tier[b]
    }

    /// Total source nonzeros of block `b`'s rows (virtual update cost).
    #[inline]
    pub fn block_nnz(&self, b: usize) -> f64 {
        self.block_nnz[b]
    }

    /// Sorted indices of the blocks whose components block `b` reads.
    #[inline]
    pub fn neighbors(&self, b: usize) -> &[usize] {
        &self.neighbors[b]
    }

    /// Nonzeros inside the partition's diagonal blocks (the `nnz_local`
    /// input of the timing model); counts the diagonal.
    pub fn nnz_local(&self) -> usize {
        self.local_cols.len() + self.n
    }

    /// Off-block nonzeros (the gathered halo entries).
    pub fn nnz_halo(&self) -> usize {
        self.halo_cols.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{
        fv_stencil, laplacian_2d_5pt, laplacian_2d_5pt_stencil, laplacian_3d_7pt_stencil,
        random_diag_dominant,
    };

    #[test]
    fn splits_every_entry_exactly_once() {
        let a = laplacian_2d_5pt(6);
        let p = RowPartition::uniform(36, 7).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert_eq!(plan.nnz_local() + plan.nnz_halo(), a.nnz());
        // reassemble each row from diag + local + halo and compare
        for r in 0..36 {
            let (cols, vals) = a.row(r);
            let blk = p.block(p.block_of(r));
            let (lc, lv) = plan.local_row(r);
            let (hc, hv) = plan.halo_row(r);
            let mut rebuilt: Vec<(usize, f64)> = Vec::new();
            rebuilt.push((r, 1.0 / plan.inv_diag()[r]));
            rebuilt.extend(lc.iter().zip(lv).map(|(&c, &v)| (blk.start + c as usize, v)));
            rebuilt.extend(hc.iter().zip(hv).map(|(&c, &v)| (c, v)));
            rebuilt.sort_by_key(|&(c, _)| c);
            let original: Vec<(usize, f64)> = cols.iter().copied().zip(vals.iter().copied()).collect();
            assert_eq!(rebuilt.len(), original.len(), "row {r}");
            for ((c1, v1), &(c2, v2)) in rebuilt.into_iter().zip(&original) {
                assert_eq!(c1, c2, "row {r}");
                assert!((v1 - v2).abs() < 1e-15, "row {r}: {v1} vs {v2}");
            }
        }
    }

    #[test]
    fn halo_preserves_source_order() {
        // halo of a row = its global CSR entries outside the block, in
        // the same order (this is what makes the frozen-part gather
        // bit-identical to the span-sliced original)
        let a = random_diag_dominant(50, 6, 1.5, 3);
        let p = RowPartition::uniform(50, 11).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for r in 0..50 {
            let blk = p.block(p.block_of(r));
            let (cols, vals) = a.row(r);
            let expect: Vec<(usize, f64)> = cols
                .iter()
                .zip(vals)
                .filter(|&(&c, _)| !blk.contains(c))
                .map(|(&c, &v)| (c, v))
                .collect();
            let (hc, hv) = plan.halo_row(r);
            let got: Vec<(usize, f64)> = hc.iter().copied().zip(hv.iter().copied()).collect();
            assert_eq!(got, expect, "row {r}");
        }
    }

    #[test]
    fn ell_packs_short_blocks_and_matches_csr() {
        let a = laplacian_2d_5pt(5); // local widths <= 2 within grid-row blocks
        let p = RowPartition::uniform(25, 5).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            let ell = plan.ell(b).expect("5-pt stencil rows are short");
            let (s, e) = plan.block_rows(b);
            let nb = e - s;
            assert_eq!(ell.rows(), nb);
            // every CSR entry appears at its (row, k) slot
            for (li, r) in (s..e).enumerate() {
                let (lc, lv) = plan.local_row(r);
                for (k, (&c, &v)) in lc.iter().zip(lv).enumerate() {
                    assert_eq!(ell.cols()[k * nb + li], c);
                    assert_eq!(ell.vals()[k * nb + li], v);
                }
                // the rest of the row is inert padding
                for k in lc.len()..ell.width() {
                    assert_eq!(ell.cols()[k * nb + li], nb as u32);
                    assert_eq!(ell.vals()[k * nb + li], 0.0);
                }
            }
        }
    }

    #[test]
    fn wide_blocks_skip_ell() {
        // one big block: local width = full row population of a dense-ish
        // random matrix exceeds ELL_MAX_WIDTH somewhere
        let a = random_diag_dominant(64, 16, 1.5, 1);
        let p = RowPartition::uniform(64, 64).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert!(plan.ell(0).is_none(), "wide rows must not ELL-pack");
        assert_eq!(plan.tier(0), SweepTier::Csr);
    }

    #[test]
    fn tier_selection_fires_in_order() {
        // ELL-packable block of >= 4 rows: the vectorized tier
        let a = laplacian_2d_5pt(5);
        let p = RowPartition::uniform(25, 5).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        for b in 0..plan.n_blocks() {
            assert_eq!(plan.tier(b), SweepTier::EllSimd);
            assert!(plan.stencil_block(b).is_none());
        }
        // blocks too narrow for a four-lane group: the scalar ELL tier
        let p = RowPartition::uniform(25, 3).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert!((0..plan.n_blocks())
            .any(|b| plan.tier(b) == SweepTier::Ell && plan.block_rows(b).1 - plan.block_rows(b).0 < 4));
        // a verified descriptor beats both
        let d = crate::stencil::StencilDescriptor::poisson_2d_5pt(5);
        let p = RowPartition::uniform(25, 5).unwrap();
        let plan = BlockPlan::compile_with_stencil(&a, &p, Some(&d)).unwrap();
        for b in 0..plan.n_blocks() {
            assert_eq!(plan.tier(b), SweepTier::Stencil);
            assert!(plan.stencil_block(b).is_some(), "stencil runs must be compiled");
        }
    }

    #[test]
    fn stencil_compile_rejects_mismatched_descriptor() {
        let a = laplacian_2d_5pt(5);
        let p = RowPartition::uniform(25, 5).unwrap();
        let d = crate::stencil::StencilDescriptor::fv_9pt(5, 0.0); // wrong stencil
        assert!(matches!(
            BlockPlan::compile_with_stencil(&a, &p, Some(&d)).unwrap_err(),
            SparseError::Stencil(_)
        ));
    }

    #[test]
    fn neighbors_match_coupling() {
        let a = laplacian_2d_5pt(4);
        let p = RowPartition::uniform(16, 4).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert_eq!(plan.neighbors(0), &[1]);
        assert_eq!(plan.neighbors(1), &[0, 2]);
        assert_eq!(plan.neighbors(3), &[2]);
    }

    #[test]
    fn zero_diagonal_rejected() {
        let mut coo = crate::CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 2.0).unwrap();
        coo.push(1, 0, 3.0).unwrap(); // no (1,1) entry
        let a = coo.to_csr();
        let p = RowPartition::uniform(2, 1).unwrap();
        assert_eq!(
            BlockPlan::compile(&a, &p).unwrap_err(),
            SparseError::ZeroDiagonal { row: 1 }
        );
    }

    #[test]
    fn parallel_compile_is_bit_identical_to_sequential() {
        // 2D 5-point, 3D 7-point and 2D 9-point stencils; block sizes that
        // start blocks mid grid row and mid plane exercise the stepped
        // grid coordinates and the bitmask-keyed stencil runs
        let systems = [
            laplacian_2d_5pt_stencil(12),
            laplacian_3d_7pt_stencil(6),
            fv_stencil(12, 1.0).unwrap(),
        ];
        for (a, d) in &systems {
            let n = a.n_rows();
            for block in [5usize, 12, 31, 50, n] {
                let p = RowPartition::uniform(n, block).unwrap();
                for desc in [None, Some(d)] {
                    let seq = BlockPlan::compile_with_ctx(a, &p, desc, ParContext::new(1)).unwrap();
                    for threads in [2usize, 3, 7, 16] {
                        let par =
                            BlockPlan::compile_with_ctx(a, &p, desc, ParContext::new(threads))
                                .unwrap();
                        assert_eq!(seq, par, "n {n} block {block} threads {threads}");
                    }
                }
            }
        }
    }

    /// `a` with row `r`'s entries edited by `edit` (which sees the row's
    /// `(column, value)` pairs and may drop, add or change them).
    fn with_row(a: &CsrMatrix, r: usize, edit: impl Fn(&mut Vec<(usize, f64)>)) -> CsrMatrix {
        let n = a.n_rows();
        let mut coo = crate::CooMatrix::new(n, n);
        for row in 0..n {
            let mut entries: Vec<(usize, f64)> = a.row_iter(row).collect();
            if row == r {
                edit(&mut entries);
            }
            for (c, v) in entries {
                coo.push(row, c, v).unwrap();
            }
        }
        coo.to_csr()
    }

    /// `a` with row `r`'s diagonal entry set to an explicitly stored zero
    /// (COO assembly would drop it).
    fn zero_diagonal(a: &CsrMatrix, r: usize) -> CsrMatrix {
        let mut z = a.clone();
        let k = z.row_ptr()[r] + z.row(r).0.iter().position(|&c| c == r).unwrap();
        z.values_mut()[k] = 0.0;
        z
    }

    #[test]
    fn fused_stencil_check_reports_exactly_what_verify_reports() {
        let (a, d) = fv_stencil(12, 1.0).unwrap();
        let n = a.n_rows();
        let p = RowPartition::uniform(n, 31).unwrap();
        // a row in the first, a middle and the last block
        for r in [3usize, n / 2 + 5, n - 2] {
            let bump = |e: &mut Vec<(usize, f64)>| {
                let v = &mut e.last_mut().unwrap().1;
                *v = f64::from_bits(v.to_bits() + 1);
            };
            let drop_first = |e: &mut Vec<(usize, f64)>| {
                e.remove(0);
            };
            let far = if r < n / 2 { n - 1 } else { 0 };
            let extra = move |e: &mut Vec<(usize, f64)>| e.push((far, 0.5));
            let bad: [(&str, CsrMatrix); 4] = [
                ("one-ulp coefficient", with_row(&a, r, bump)),
                ("missing entry", with_row(&a, r, drop_first)),
                ("extra entry", with_row(&a, r, extra)),
                ("zeroed centre", zero_diagonal(&a, r)),
            ];
            for (what, b) in &bad {
                let want = d.verify(b).unwrap_err();
                assert!(
                    matches!(want, SparseError::Stencil(ref m) if m.starts_with(&format!("row {r}:"))),
                    "{what} at row {r}: {want}"
                );
                for threads in [1usize, 2, 3, 7] {
                    let got =
                        BlockPlan::compile_with_ctx(b, &p, Some(&d), ParContext::new(threads))
                            .unwrap_err();
                    assert_eq!(got, want, "{what} at row {r}, threads {threads}");
                }
            }
        }
        // a zeroed centre at r1 and a wrong coefficient at r2 > r1: the
        // error is the stencil error at r1, never ZeroDiagonal
        let (r1, r2) = (40usize, n - 3);
        let mut b = zero_diagonal(&a, r1);
        let k2 = b.row_ptr()[r2];
        b.values_mut()[k2] *= 2.0;
        let want = d.verify(&b).unwrap_err();
        assert!(matches!(want, SparseError::Stencil(ref m) if m.starts_with("row 40:")), "{want}");
        for threads in [1usize, 2, 3, 7] {
            assert_eq!(
                BlockPlan::compile_with_ctx(&b, &p, Some(&d), ParContext::new(threads))
                    .unwrap_err(),
                want,
                "threads {threads}"
            );
        }
    }

    #[test]
    fn parallel_compile_reports_the_sequential_first_error() {
        // rows 5 and 9 both lack a diagonal; every thread count must
        // report row 5 (the sequential first failure)
        let mut coo = crate::CooMatrix::new(12, 12);
        for r in 0..12 {
            if r != 5 && r != 9 {
                coo.push(r, r, 2.0).unwrap();
            }
            if r + 1 < 12 {
                coo.push(r, r + 1, -1.0).unwrap();
            }
        }
        let a = coo.to_csr();
        let p = RowPartition::uniform(12, 2).unwrap();
        for threads in [1usize, 2, 4, 8] {
            assert_eq!(
                BlockPlan::compile_with_ctx(&a, &p, None, ParContext::new(threads))
                    .unwrap_err(),
                SparseError::ZeroDiagonal { row: 5 },
                "threads {threads}"
            );
        }
    }

    #[test]
    fn widest_block_and_costs() {
        let a = laplacian_2d_5pt(4);
        let p = RowPartition::uniform(16, 5).unwrap();
        let plan = BlockPlan::compile(&a, &p).unwrap();
        assert_eq!(plan.widest_block(), 5);
        let total: f64 = (0..plan.n_blocks()).map(|b| plan.block_nnz(b)).sum();
        assert_eq!(total, a.nnz() as f64);
    }
}
