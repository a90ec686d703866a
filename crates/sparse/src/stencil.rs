//! Constant-coefficient stencil descriptors and the matrix-free sweep
//! plans compiled from them.
//!
//! Following *Block-Relaxation Methods for 3D Constant-Coefficient
//! Stencils on GPUs and Multicore CPUs* (arXiv:1208.1975), a relaxation
//! sweep over a constant-coefficient stencil operator needs **no stored
//! matrix at all**: every row's entries are the same few coefficients at
//! arithmetically computable neighbour positions. A [`StencilDescriptor`]
//! states that structure — the grid shape, the constant centre, and the
//! off-centre taps — and [`StencilDescriptor::verify`] cross-checks it
//! entry-by-entry against an assembled [`CsrMatrix`], so generator-built
//! *and* hand-loaded matrices can opt into the matrix-free tier without
//! trusting anyone's word for the structure. The descriptor also defines
//! that matrix: [`StencilDescriptor::assemble`] builds it row by row, and
//! the stencil generators of [`crate::gen`] make their matrices with it.
//!
//! [`StencilDescriptor::compile_block`] lowers the descriptor to a
//! [`StencilBlock`]: maximal runs of consecutive block rows that share
//! the same valid-tap set *and* the same in-block tap set. Inside a run
//! the sweep loop is branch-free with **zero index loads** — the
//! neighbour of local row `li` at tap offset `d` is `cur[li + d]`, a
//! contiguous vectorizable load — and the kernel holds the run's
//! coefficients and offsets in registers. Each run also carries its
//! off-block taps as global row offsets, so the kernel freezes the
//! off-block part `b_r − Σ c·x[r + d]` without reading the stored halo
//! either. Both tap lists are in ascending offset order, which is the
//! source-CSR column order, so every floating-point accumulation visits
//! entries exactly as the stored-matrix tiers do. Rows whose
//! neighbourhood is clipped by a grid edge or the block boundary simply
//! form their own (shorter-tap) runs.

use crate::{CsrMatrix, Result, SparseError};

/// Most off-centre taps a descriptor may hold: each row's tap set is a
/// `u64` bitmask.
pub const MAX_TAPS: usize = 64;

/// The regular grid a constant-coefficient stencil matrix discretises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GridShape {
    /// Row-major `m x m` 2D grid (`n = m²`; node `(i, j)` is row `i*m + j`).
    Square2d {
        /// Grid side length.
        m: usize,
    },
    /// Row-major `m x m x m` 3D grid (`n = m³`; node `(i, j, k)` is row
    /// `(i*m + j)*m + k`).
    Cube3d {
        /// Grid side length.
        m: usize,
    },
}

impl GridShape {
    /// Total number of grid nodes (= matrix rows).
    pub fn n(&self) -> usize {
        match *self {
            GridShape::Square2d { m } => m * m,
            GridShape::Cube3d { m } => m * m * m,
        }
    }
}

/// One off-centre stencil tap: a grid-coordinate offset and its constant
/// coefficient. `dk` is ignored (must be 0) on 2D grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StencilTap {
    /// Offset along the slowest (row-major outermost) grid axis.
    pub di: i32,
    /// Offset along the middle axis (the column axis on 2D grids).
    pub dj: i32,
    /// Offset along the fastest axis (3D grids only).
    pub dk: i32,
    /// The constant coefficient at this offset.
    pub coef: f64,
}

/// A verified-able description of a constant-coefficient stencil matrix.
///
/// # Examples
///
/// ```
/// use abr_sparse::gen::laplacian_2d_5pt;
/// use abr_sparse::stencil::StencilDescriptor;
///
/// let a = laplacian_2d_5pt(8);
/// let d = StencilDescriptor::poisson_2d_5pt(8);
/// assert!(d.verify(&a).is_ok());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StencilDescriptor {
    shape: GridShape,
    center: f64,
    /// Sorted by signed row offset, ascending — the order sorted-column
    /// CSR assembly produces, which the sweeps must reproduce.
    taps: Vec<StencilTap>,
}

impl StencilDescriptor {
    /// Builds a descriptor from a grid shape, centre coefficient, and
    /// off-centre taps. Taps are sorted by their signed row offset;
    /// duplicate or zero grid offsets, a zero centre and more than
    /// [`MAX_TAPS`] taps are rejected.
    ///
    /// On a grid narrower than the stencil, two taps can share a row
    /// offset (on a 2-wide grid, one step up and right is one step left),
    /// and a tap can have row offset 0. Such taps never stay on the grid
    /// at the same row, since their targets would be one node, so every
    /// row's valid taps still have distinct columns.
    pub fn new(shape: GridShape, center: f64, mut taps: Vec<StencilTap>) -> Result<Self> {
        if center == 0.0 {
            return Err(SparseError::Stencil("stencil centre must be nonzero".into()));
        }
        if taps.len() > MAX_TAPS {
            return Err(SparseError::Stencil(format!("at most {MAX_TAPS} stencil taps")));
        }
        if let GridShape::Square2d { .. } = shape {
            if taps.iter().any(|t| t.dk != 0) {
                return Err(SparseError::Stencil("2D stencil taps must have dk = 0".into()));
            }
        }
        let d = StencilDescriptor { shape, center, taps: Vec::new() };
        taps.sort_by_key(|t| (d.row_offset(t), t.di, t.dj, t.dk));
        let grid = |t: &StencilTap| (t.di, t.dj, t.dk);
        if taps.windows(2).any(|w| grid(&w[0]) == grid(&w[1])) {
            return Err(SparseError::Stencil("duplicate stencil tap offset".into()));
        }
        if taps.iter().any(|t| grid(t) == (0, 0, 0)) {
            return Err(SparseError::Stencil("tap at offset 0 duplicates the centre".into()));
        }
        Ok(StencilDescriptor { taps, ..d })
    }

    /// The 2D 5-point Poisson stencil (`gen::laplacian_2d_5pt`): centre
    /// `4`, the four axis neighbours `-1`.
    pub fn poisson_2d_5pt(m: usize) -> Self {
        let t = |di, dj| StencilTap { di, dj, dk: 0, coef: -1.0 };
        StencilDescriptor::new(
            GridShape::Square2d { m },
            4.0,
            vec![t(-1, 0), t(0, -1), t(0, 1), t(1, 0)],
        )
        .expect("static stencil is well-formed")
    }

    /// The 3D 7-point Poisson stencil (`gen::laplacian_3d_7pt`): centre
    /// `6`, the six axis neighbours `-1`.
    pub fn poisson_3d_7pt(m: usize) -> Self {
        let t = |di, dj, dk| StencilTap { di, dj, dk, coef: -1.0 };
        StencilDescriptor::new(
            GridShape::Cube3d { m },
            6.0,
            vec![t(-1, 0, 0), t(0, -1, 0), t(0, 0, -1), t(0, 0, 1), t(0, 1, 0), t(1, 0, 0)],
        )
        .expect("static stencil is well-formed")
    }

    /// The ungraded FV stencil (`gen::fv(m, sigma, 0.0)`): the 9-point
    /// Q1-FEM Laplacian with a diagonal shift — centre `8/3 + sigma`,
    /// all eight neighbours `-1/3`. (Graded FV matrices are *not*
    /// constant-coefficient; their verification fails, as it must.) A
    /// shift that cancels the centre, `sigma = -8/3`, is an error.
    pub fn fv_9pt(m: usize, sigma: f64) -> Result<Self> {
        let mut taps = Vec::with_capacity(8);
        for di in -1i32..=1 {
            for dj in -1i32..=1 {
                if di != 0 || dj != 0 {
                    taps.push(StencilTap { di, dj, dk: 0, coef: -1.0 / 3.0 });
                }
            }
        }
        StencilDescriptor::new(GridShape::Square2d { m }, 8.0 / 3.0 + sigma, taps)
    }

    /// The grid shape.
    pub fn shape(&self) -> GridShape {
        self.shape
    }

    /// Matrix rows the descriptor covers.
    pub fn n(&self) -> usize {
        self.shape.n()
    }

    /// The constant centre (diagonal) coefficient.
    pub fn center(&self) -> f64 {
        self.center
    }

    /// The off-centre taps, sorted by signed row offset.
    pub fn taps(&self) -> &[StencilTap] {
        &self.taps
    }

    /// Signed row-index offset of a tap under row-major ordering.
    fn row_offset(&self, t: &StencilTap) -> i64 {
        match self.shape {
            GridShape::Square2d { m } => t.di as i64 * m as i64 + t.dj as i64,
            GridShape::Cube3d { m } => {
                (t.di as i64 * m as i64 + t.dj as i64) * m as i64 + t.dk as i64
            }
        }
    }

    /// Assembles the matrix the descriptor defines: each row holds its
    /// valid taps and the centre, in column order, with the coefficients'
    /// bits. It is the one matrix [`verify`](Self::verify) accepts. One
    /// walk over the rows counts their entries, and a second writes them
    /// into arrays of exactly that length, so nothing else is allocated:
    /// no triplets and no intermediate matrix.
    pub fn assemble(&self) -> CsrMatrix {
        let n = self.n();
        let mut row_ptr = Vec::with_capacity(n + 1);
        row_ptr.push(0);
        let mut rows = RowCursor::new(self, 0);
        for r in 0..n {
            row_ptr.push(row_ptr[r] + rows.valid().count_ones() as usize + 1);
            rows.advance();
        }
        let nnz = row_ptr[n];
        let mut col_idx = Vec::with_capacity(nnz);
        let mut values = Vec::with_capacity(nnz);
        let mut rows = RowCursor::new(self, 0);
        for r in 0..n {
            let entries = rows.entries();
            col_idx.extend(entries.iter().map(|&(off, _)| r.wrapping_add_signed(off)));
            values.extend(entries.iter().map(|&(_, coef)| f64::from_bits(coef)));
            rows.advance();
        }
        CsrMatrix::from_raw_unchecked(n, n, row_ptr, col_idx, values)
    }

    /// Cross-checks the descriptor against an assembled matrix, entry by
    /// entry: every row must hold exactly the valid taps plus the centre,
    /// in sorted column order, with **bit-equal** coefficient values
    /// (bit-equality is what makes the matrix-free sweep's arithmetic
    /// reproduce the stored-matrix sweep; a hand-loaded matrix that
    /// merely *approximates* the stencil must not opt in). The error names
    /// the lowest failing row.
    pub fn verify(&self, a: &CsrMatrix) -> Result<()> {
        self.check_shape(a)?;
        let mut rows = RowCursor::new(self, 0);
        for r in 0..self.n() {
            let (cols, vals) = a.row(r);
            rows.verify_row(cols, vals)?;
            rows.advance();
        }
        Ok(())
    }

    /// The part of [`verify`](Self::verify) that looks at no entry: `a`
    /// must be square with one row per grid node.
    pub(crate) fn check_shape(&self, a: &CsrMatrix) -> Result<()> {
        let n = self.n();
        if !a.is_square() || a.n_rows() != n {
            return Err(SparseError::Stencil(format!(
                "shape mismatch: descriptor covers {n} rows, matrix is {}x{}",
                a.n_rows(),
                a.n_cols()
            )));
        }
        Ok(())
    }

    /// Lowers the descriptor to the matrix-free sweep plan of one block
    /// (rows `[start, end)`): maximal runs of consecutive rows sharing a
    /// valid-tap set and an in-block tap set. Each run lists its in-block
    /// taps (which the sweeps read) apart from its off-block taps (which
    /// the kernel freezes before sweeping).
    pub fn compile_block(&self, start: usize, end: usize) -> StencilBlock {
        let mut rows = RowCursor::new(self, start);
        let mut runs = RunBuilder::new(start, end, self.taps.len());
        for _ in start..end {
            runs.push(&rows);
            rows.advance();
        }
        runs.finish()
    }
}

/// Why one row failed [`StencilDescriptor::verify`] — built without
/// formatting, so a passing row costs no allocation; only a failing row
/// renders it into the error message.
#[derive(Debug)]
enum RowFault {
    Missing { col: usize },
    Value { col: usize, found: f64, coef: f64 },
    Extra { count: usize },
}

impl std::fmt::Display for RowFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            RowFault::Missing { col } => write!(f, "expected an entry at column {col}"),
            RowFault::Value { col, found, coef } => {
                write!(f, "column {col} holds {found} instead of {coef}")
            }
            RowFault::Extra { count } => write!(f, "{count} extra stored entries"),
        }
    }
}

/// Walks consecutive rows of a descriptor's grid. The grid coordinates
/// are derived by division once, where the walk starts, and then stepped
/// with carries. A row's valid taps are a bitmask (bit `t` = tap `t` of
/// [`StencilDescriptor::taps`] stays on the grid at this row): the AND of
/// one cached mask per axis, of which a step recomputes only the axes
/// that moved, and only near a grid edge: a position out of every tap's
/// reach of both edges has all taps valid along that axis.
pub(crate) struct RowCursor<'d> {
    d: &'d StencilDescriptor,
    /// Per tap, in tap order (ascending): signed row offset and the
    /// coefficient's bits.
    taps: Vec<(isize, u64)>,
    /// The taps with a negative offset: the centre sits between them and
    /// the rest in column order.
    before_centre: u64,
    m: usize,
    /// The axis that moves fastest with the row index: 1 on 2D grids,
    /// 2 on 3D grids (on 2D grids axis 2 stays 0, as every `dk` does).
    fast: usize,
    /// Grid coordinates `[i, j, k]` of row `r`.
    pos: [usize; 3],
    /// Per axis: the taps that stay on the grid along it at `pos`.
    on_axis: [u64; 3],
    /// Per axis: the largest tap step towards the low and the high edge.
    reach: [(usize, usize); 3],
    r: usize,
    /// The entries a row with valid-tap mask `expected_for` holds:
    /// `(row offset, coefficient bits)` of its valid taps and the
    /// centre, in column order. Rebuilt only when the mask changes, which
    /// happens at grid edges.
    expected: Vec<(isize, u64)>,
    expected_for: Option<u64>,
}

/// The indices of the set bits of `mask`, ascending.
fn bits(mut mask: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let t = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            t
        })
    })
}

/// A mask of the `n` lowest bits.
fn low_bits(n: usize) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1 << n) - 1
    }
}

impl<'d> RowCursor<'d> {
    /// A cursor at row `r`.
    pub(crate) fn new(d: &'d StencilDescriptor, r: usize) -> Self {
        let taps: Vec<(isize, u64)> =
            d.taps.iter().map(|t| (d.row_offset(t) as isize, t.coef.to_bits())).collect();
        let before_centre = low_bits(taps.partition_point(|&(off, _)| off < 0));
        let (m, fast, pos) = match d.shape {
            GridShape::Square2d { m } => (m, 1, [r / m.max(1), r % m.max(1), 0]),
            GridShape::Cube3d { m } => {
                let plane = (m * m).max(1);
                let rem = r % plane;
                (m, 2, [r / plane, rem / m.max(1), rem % m.max(1)])
            }
        };
        let mut reach = [(0, 0); 3];
        for t in &d.taps {
            for (axis, step) in [t.di, t.dj, t.dk].into_iter().enumerate() {
                let (down, up) = &mut reach[axis];
                *down = (*down).max((-step).max(0) as usize);
                *up = (*up).max(step.max(0) as usize);
            }
        }
        let mut cursor = RowCursor {
            d,
            taps,
            before_centre,
            m,
            fast,
            pos,
            on_axis: [0; 3],
            reach,
            r,
            expected: Vec::new(),
            expected_for: None,
        };
        for axis in 0..3 {
            cursor.on_axis[axis] = cursor.axis_mask(axis);
        }
        cursor
    }

    /// The taps that stay on the grid along `axis` at the current
    /// position. `p + d` below zero wraps to a huge `usize`, so one
    /// unsigned compare covers both grid edges.
    fn axis_mask(&self, axis: usize) -> u64 {
        let p = self.pos[axis];
        let (down, up) = self.reach[axis];
        if p >= down && p + up < self.m {
            return low_bits(self.taps.len());
        }
        let mut mask = 0u64;
        for (t, tap) in self.d.taps.iter().enumerate() {
            let d = [tap.di, tap.dj, tap.dk][axis];
            if p.wrapping_add(d as isize as usize) < self.m {
                mask |= 1 << t;
            }
        }
        mask
    }

    /// The current row's valid taps.
    fn valid(&self) -> u64 {
        self.on_axis[0] & self.on_axis[1] & self.on_axis[2]
    }

    /// Moves to the next row.
    pub(crate) fn advance(&mut self) {
        self.r += 1;
        let mut axis = self.fast;
        self.pos[axis] += 1;
        while axis > 0 && self.pos[axis] == self.m {
            self.pos[axis] = 0;
            self.on_axis[axis] = self.axis_mask(axis);
            axis -= 1;
            self.pos[axis] += 1;
        }
        self.on_axis[axis] = self.axis_mask(axis);
    }

    /// The current row's entries as the stencil defines them: `(row
    /// offset, coefficient bits)` of the valid taps and the centre, in
    /// column order. What [`StencilDescriptor::assemble`] writes and
    /// [`verify_row`](Self::verify_row) checks.
    fn entries(&mut self) -> &[(isize, u64)] {
        let valid = self.valid();
        if self.expected_for != Some(valid) {
            let tap = |t: usize| self.taps[t];
            let before = bits(valid & self.before_centre).map(tap);
            let after = bits(valid & !self.before_centre).map(tap);
            let centre = std::iter::once((0, self.d.center.to_bits()));
            self.expected = before.chain(centre).chain(after).collect();
            self.expected_for = Some(valid);
        }
        &self.expected
    }

    /// Checks the current row's stored entries against the stencil: the
    /// valid taps and the centre, in column order, bit-equal. The one row
    /// check behind both [`StencilDescriptor::verify`] and the fused
    /// verification of [`crate::BlockPlan`]'s compile.
    pub(crate) fn verify_row(&mut self, cols: &[usize], vals: &[f64]) -> Result<()> {
        let r = self.r;
        row_fault(r, self.entries(), cols, vals)
            .map_err(|why| SparseError::Stencil(format!("row {r}: {why}")))
    }
}

/// The first disagreement between row `r`'s stored entries and its
/// expected ones, walked in column order.
fn row_fault(
    r: usize,
    expected: &[(isize, u64)],
    cols: &[usize],
    vals: &[f64],
) -> std::result::Result<(), RowFault> {
    for (k, &(off, coef)) in expected.iter().enumerate() {
        let col = r.wrapping_add_signed(off);
        if k >= cols.len() || cols[k] != col {
            return Err(RowFault::Missing { col });
        }
        if vals[k].to_bits() != coef {
            return Err(RowFault::Value { col, found: vals[k], coef: f64::from_bits(coef) });
        }
    }
    match cols.len() - expected.len() {
        0 => Ok(()),
        count => Err(RowFault::Extra { count }),
    }
}

/// Accumulates one block's [`StencilRun`]s row by row. Runs are keyed on
/// the row's valid-tap mask and its in-block tap mask; a run's tap lists
/// are built only when it starts.
pub(crate) struct RunBuilder {
    start: usize,
    end: usize,
    /// At the last pushed row, taps `first..last` land inside the block.
    /// Taps are sorted by offset, so they are one range of tap indices,
    /// and both ends only move down as the row index grows.
    first: usize,
    last: usize,
    runs: Vec<StencilRun>,
    /// `(valid, in-block)` tap masks of the last run.
    key: (u64, u64),
}

impl RunBuilder {
    /// A builder for block `[start, end)` of a descriptor with `n_taps`
    /// taps.
    pub(crate) fn new(start: usize, end: usize, n_taps: usize) -> Self {
        RunBuilder { start, end, first: n_taps, last: n_taps, runs: Vec::new(), key: (0, 0) }
    }

    /// Appends the cursor's current row, which must follow the last
    /// pushed one (or be `start`).
    pub(crate) fn push(&mut self, rows: &RowCursor<'_>) {
        let lands_at_or_past =
            |t: usize, bound: usize| rows.r as isize + rows.taps[t].0 >= bound as isize;
        while self.first > 0 && lands_at_or_past(self.first - 1, self.start) {
            self.first -= 1;
        }
        while self.last > 0 && lands_at_or_past(self.last - 1, self.end) {
            self.last -= 1;
        }
        let valid = rows.valid();
        let inside = valid & low_bits(self.last) & !low_bits(self.first);
        let li = (rows.r - self.start) as u32;
        match self.runs.last_mut() {
            Some(run) if self.key == (valid, inside) => run.hi = li + 1,
            _ => {
                let taps = |mask| bits(mask).map(|t| (rows.taps[t].0, rows.d.taps[t].coef));
                self.runs.push(StencilRun {
                    lo: li,
                    hi: li + 1,
                    taps: taps(inside).collect(),
                    halo: taps(valid & !inside).collect(),
                });
                self.key = (valid, inside);
            }
        }
    }

    pub(crate) fn finish(self) -> StencilBlock {
        StencilBlock { runs: self.runs }
    }
}

/// One maximal run of consecutive block-local rows sharing a valid-tap
/// set and an in-block tap set. For every row `li` in `[lo, hi)` and
/// in-block tap `(d, c)`, the local operator entry is `c` at local
/// column `li + d`; for every off-block tap `(d, c)`, the row's halo
/// entry is `c` at global column `start + li + d`. Both are computed,
/// never loaded.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilRun {
    /// First block-local row of the run.
    pub lo: u32,
    /// One past the last block-local row of the run.
    pub hi: u32,
    /// In-block `(row offset, coefficient)` pairs in ascending offset
    /// order (= the source-CSR accumulation order of the local entries).
    pub taps: Vec<(isize, f64)>,
    /// Off-block `(row offset, coefficient)` pairs in ascending offset
    /// order (= the source-CSR order of the row's halo entries).
    pub halo: Vec<(isize, f64)>,
}

/// The compiled matrix-free sweep plan of one block: its rows partitioned
/// into [`StencilRun`]s. Every block row belongs to exactly one run.
#[derive(Debug, Clone, PartialEq)]
pub struct StencilBlock {
    runs: Vec<StencilRun>,
}

impl StencilBlock {
    /// The runs, in ascending row order, covering every block row once.
    pub fn runs(&self) -> &[StencilRun] {
        &self.runs
    }

    /// Total in-block taps across all rows (the per-sweep multiply count,
    /// which is also the roofline read traffic: one `cur` load per tap).
    pub fn nnz_local_offdiag(&self) -> usize {
        self.runs.iter().map(|r| (r.hi - r.lo) as usize * r.taps.len()).sum()
    }

    /// Total off-block taps across all rows (the freeze's multiply count:
    /// one iterate load per tap, and equal to the block's stored halo
    /// entries).
    pub fn nnz_halo(&self) -> usize {
        self.runs.iter().map(|r| (r.hi - r.lo) as usize * r.halo.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{laplacian_2d_5pt, laplacian_3d_7pt};

    #[test]
    fn poisson_2d_descriptor_verifies() {
        let a = laplacian_2d_5pt(7);
        StencilDescriptor::poisson_2d_5pt(7).verify(&a).unwrap();
    }

    #[test]
    fn poisson_3d_descriptor_verifies() {
        let a = laplacian_3d_7pt(5);
        StencilDescriptor::poisson_3d_7pt(5).verify(&a).unwrap();
    }

    #[test]
    fn wrong_size_rejected() {
        let a = laplacian_2d_5pt(6);
        assert!(StencilDescriptor::poisson_2d_5pt(7).verify(&a).is_err());
    }

    #[test]
    fn perturbed_matrix_rejected() {
        // a single flipped value must fail the cross-check: a matrix that
        // is *almost* the stencil cannot take the matrix-free tier
        let mut coo = crate::CooMatrix::new(16, 16);
        let a = laplacian_2d_5pt(4);
        for r in 0..16 {
            for (c, v) in a.row_iter(r) {
                let v = if r == 9 && c == 10 { v + 1e-12 } else { v };
                coo.push(r, c, v).unwrap();
            }
        }
        let b = coo.to_csr();
        let err = StencilDescriptor::poisson_2d_5pt(4).verify(&b).unwrap_err();
        assert!(matches!(err, SparseError::Stencil(ref s) if s.contains("row 9")), "{err}");
    }

    #[test]
    fn extra_entry_rejected() {
        let mut coo = crate::CooMatrix::new(16, 16);
        let a = laplacian_2d_5pt(4);
        for r in 0..16 {
            for (c, v) in a.row_iter(r) {
                coo.push(r, c, v).unwrap();
            }
        }
        coo.push(0, 7, 1e-30).unwrap(); // spurious coupling
        let b = coo.to_csr();
        assert!(StencilDescriptor::poisson_2d_5pt(4).verify(&b).is_err());
    }

    #[test]
    fn runs_cover_every_row_once_with_sorted_taps() {
        let d = StencilDescriptor::poisson_2d_5pt(6);
        // a block spanning 2.5 grid rows, starting mid-row
        let (start, end) = (9, 24);
        let sb = d.compile_block(start, end);
        let mut covered = 0usize;
        for run in sb.runs() {
            assert!(run.lo < run.hi);
            assert_eq!(run.lo as usize, covered, "runs must tile the block in order");
            covered = run.hi as usize;
            for w in run.taps.windows(2) {
                assert!(w[0].0 < w[1].0, "taps must stay in CSR column order");
            }
            for li in run.lo..run.hi {
                for &(off, _) in &run.taps {
                    let c = li as isize + off;
                    assert!(c >= 0 && (c as usize) < end - start, "tap escapes the block");
                }
            }
        }
        assert_eq!(covered, end - start);
    }

    #[test]
    fn in_block_taps_match_the_local_operator() {
        // cross-check run taps against the BlockPlan's packed local rows,
        // on 2D 5-point, 3D 7-point and 2D 9-point stencils, with blocks
        // that start mid grid row and mid plane
        let systems = [
            crate::gen::laplacian_2d_5pt_stencil(6),
            crate::gen::laplacian_3d_7pt_stencil(6),
            crate::gen::fv_stencil(12, 1.0).unwrap(),
        ];
        for (a, d) in &systems {
            d.verify(a).unwrap();
            let n = a.n_rows();
            for block in [5usize, 10, 31, 50] {
                let p = crate::RowPartition::uniform(n, block).unwrap();
                let plan = crate::BlockPlan::compile(a, &p).unwrap();
                for b in 0..plan.n_blocks() {
                    let (s, e) = plan.block_rows(b);
                    let sb = d.compile_block(s, e);
                    for run in sb.runs() {
                        for li in run.lo..run.hi {
                            let r = s + li as usize;
                            let (lc, lv) = plan.local_row(r);
                            assert_eq!(lc.len(), run.taps.len(), "n {n} block {block} row {r}");
                            for (k, &(off, coef)) in run.taps.iter().enumerate() {
                                assert_eq!(lc[k] as isize, li as isize + off, "row {r}");
                                assert_eq!(lv[k].to_bits(), coef.to_bits(), "row {r}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn halo_taps_match_the_packed_halo() {
        // every row's off-block taps, as global offsets, must be its
        // packed halo entries (from a second plan compiled without the
        // descriptor, since a stencil plan stores none) in source-CSR
        // order with bit-equal values; blocks start mid grid row and mid
        // plane, and 1-row blocks put every tap but none off-grid into
        // the halo
        let systems = [
            crate::gen::laplacian_2d_5pt_stencil(6),
            crate::gen::laplacian_3d_7pt_stencil(5),
            crate::gen::fv_stencil(12, 1.0).unwrap(),
        ];
        for (a, d) in &systems {
            let n = a.n_rows();
            for block in [1usize, 5, 13, 31] {
                let p = crate::RowPartition::uniform(n, block).unwrap();
                let plan = crate::BlockPlan::compile_with_stencil(a, &p, Some(d)).unwrap();
                let packed = crate::BlockPlan::compile(a, &p).unwrap();
                for b in 0..plan.n_blocks() {
                    let (s, _) = plan.block_rows(b);
                    let sb = plan.stencil_block(b).unwrap();
                    let mut halo = 0;
                    for run in sb.runs() {
                        for w in run.halo.windows(2) {
                            assert!(w[0].0 < w[1].0, "halo taps must stay in CSR order");
                        }
                        for li in run.lo..run.hi {
                            let r = s + li as usize;
                            let (hc, hv) = packed.halo_row(r);
                            assert_eq!(hc.len(), run.halo.len(), "n {n} block {block} row {r}");
                            for (k, &(off, coef)) in run.halo.iter().enumerate() {
                                assert_eq!(hc[k], r.wrapping_add_signed(off), "row {r}");
                                assert_eq!(hv[k].to_bits(), coef.to_bits(), "row {r}");
                            }
                            halo += hc.len();
                        }
                    }
                    assert_eq!(sb.nnz_halo(), halo);
                }
            }
        }
    }

    #[test]
    fn malformed_descriptors_rejected() {
        let t = |di, dj, coef| StencilTap { di, dj, dk: 0, coef };
        let shape = GridShape::Square2d { m: 4 };
        assert!(StencilDescriptor::new(shape, 0.0, vec![t(0, 1, -1.0)]).is_err());
        assert!(StencilDescriptor::new(shape, 1.0, vec![t(0, 0, -1.0)]).is_err());
        assert!(StencilDescriptor::new(shape, 1.0, vec![t(0, 1, -1.0), t(0, 1, -2.0)]).is_err());
        assert!(StencilDescriptor::new(
            shape,
            1.0,
            vec![StencilTap { di: 0, dj: 1, dk: 1, coef: -1.0 }]
        )
        .is_err());
    }
}
