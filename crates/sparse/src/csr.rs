//! Compressed-sparse-row matrices: the workhorse format of the library.
//!
//! All solvers operate on [`CsrMatrix`]. Rows are stored contiguously with
//! sorted, duplicate-free column indices — [`CsrMatrix::validate`] checks
//! this invariant and every constructor that accepts raw parts enforces it
//! (except `from_raw_unchecked`, used by trusted internal builders).

use crate::{DenseMatrix, Result, SparseError};

/// A sparse matrix in compressed-sparse-row format.
///
/// # Examples
///
/// ```
/// use abr_sparse::CooMatrix;
///
/// // assemble [2 -1; -1 2] and multiply by [1, 1]
/// let mut coo = CooMatrix::new(2, 2);
/// coo.push(0, 0, 2.0).unwrap();
/// coo.push(1, 1, 2.0).unwrap();
/// coo.push_sym(0, 1, -1.0).unwrap();
/// let a = coo.to_csr();
/// assert_eq!(a.mul_vec(&[1.0, 1.0]).unwrap(), vec![1.0, 1.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CsrMatrix {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<usize>,
    values: Vec<f64>,
}

impl CsrMatrix {
    /// Builds a CSR matrix from raw parts, validating the invariants:
    /// monotone `row_ptr` of length `n_rows + 1`, in-bounds sorted
    /// duplicate-free column indices, matching array lengths.
    pub fn from_raw(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Result<Self> {
        let m = CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values };
        m.validate()?;
        Ok(m)
    }

    /// Builds a CSR matrix from raw parts without validation.
    ///
    /// Callers must guarantee the CSR invariants; internal builders
    /// (COO conversion, SpGEMM, transpose) do so by construction. Debug
    /// builds still validate.
    pub(crate) fn from_raw_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<usize>,
        values: Vec<f64>,
    ) -> Self {
        let m = CsrMatrix { n_rows, n_cols, row_ptr, col_idx, values };
        debug_assert!(m.validate().is_ok());
        m
    }

    /// The `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: vec![1.0; n],
        }
    }

    /// A square matrix with `diag` on the diagonal.
    pub fn from_diagonal(diag: &[f64]) -> Self {
        let n = diag.len();
        CsrMatrix {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n).collect(),
            values: diag.to_vec(),
        }
    }

    /// Checks the CSR structural invariants.
    pub fn validate(&self) -> Result<()> {
        if self.row_ptr.len() != self.n_rows + 1 {
            return Err(SparseError::DimensionMismatch {
                op: "csr row_ptr length",
                expected: self.n_rows + 1,
                found: self.row_ptr.len(),
            });
        }
        if self.col_idx.len() != self.values.len() {
            return Err(SparseError::DimensionMismatch {
                op: "csr col_idx/values length",
                expected: self.values.len(),
                found: self.col_idx.len(),
            });
        }
        if *self.row_ptr.first().unwrap_or(&0) != 0
            || *self.row_ptr.last().unwrap_or(&0) != self.col_idx.len()
        {
            return Err(SparseError::Parse("row_ptr must start at 0 and end at nnz".into()));
        }
        for r in 0..self.n_rows {
            let (lo, hi) = (self.row_ptr[r], self.row_ptr[r + 1]);
            if lo > hi {
                return Err(SparseError::Parse(format!("row_ptr not monotone at row {r}")));
            }
            let cols = &self.col_idx[lo..hi];
            for w in cols.windows(2) {
                if w[0] >= w[1] {
                    return Err(SparseError::Parse(format!(
                        "columns not strictly increasing in row {r}"
                    )));
                }
            }
            if let Some(&c) = cols.last() {
                if c >= self.n_cols {
                    return Err(SparseError::IndexOutOfBounds {
                        row: r,
                        col: c,
                        n_rows: self.n_rows,
                        n_cols: self.n_cols,
                    });
                }
            }
        }
        Ok(())
    }

    /// Number of rows.
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored entries.
    #[inline]
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// `true` if the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.n_rows == self.n_cols
    }

    /// Raw row pointer array (length `n_rows + 1`).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// Raw column index array.
    #[inline]
    pub fn col_idx(&self) -> &[usize] {
        &self.col_idx
    }

    /// Raw value array.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Mutable access to the values (structure is fixed).
    #[inline]
    pub fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }

    /// The entries of row `row` as `(columns, values)` slices.
    #[inline]
    pub fn row(&self, row: usize) -> (&[usize], &[f64]) {
        let lo = self.row_ptr[row];
        let hi = self.row_ptr[row + 1];
        (&self.col_idx[lo..hi], &self.values[lo..hi])
    }

    /// Iterates over `(col, value)` pairs of one row.
    pub fn row_iter(&self, row: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        let (cols, vals) = self.row(row);
        cols.iter().zip(vals).map(|(&c, &v)| (c, v))
    }

    /// Value at `(row, col)`, zero if not stored. Binary search per call.
    pub fn get(&self, row: usize, col: usize) -> f64 {
        let (cols, vals) = self.row(row);
        match cols.binary_search(&col) {
            Ok(k) => vals[k],
            Err(_) => 0.0,
        }
    }

    /// Extracts the diagonal. Missing entries are returned as `0.0`.
    pub fn diagonal(&self) -> Vec<f64> {
        let n = self.n_rows.min(self.n_cols);
        (0..n).map(|i| self.get(i, i)).collect()
    }

    /// Extracts the diagonal, failing on any zero/missing diagonal entry.
    pub fn nonzero_diagonal(&self) -> Result<Vec<f64>> {
        let d = self.diagonal();
        for (i, &v) in d.iter().enumerate() {
            if v == 0.0 {
                return Err(SparseError::ZeroDiagonal { row: i });
            }
        }
        Ok(d)
    }

    /// Sparse matrix–vector product `y = A x`.
    pub fn spmv(&self, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch {
                op: "spmv x",
                expected: self.n_cols,
                found: x.len(),
            });
        }
        if y.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch {
                op: "spmv y",
                expected: self.n_rows,
                found: y.len(),
            });
        }
        self.spmv_range(0, x, y);
        Ok(())
    }

    /// SpMV over the row range `[start, start + y.len())`, four rows per
    /// [`crate::simd::f64x4`] iteration — one row per lane, so each row
    /// still accumulates its entries in source order from `0.0` and the
    /// result is **bit-identical** to the sequential per-row loop, however
    /// the rows are grouped into lanes or chunks. This is the kernel both
    /// [`CsrMatrix::spmv`] and the chunked [`crate::par::ParContext::spmv`]
    /// bottom out in, which keeps residual monitoring off the scalar tail
    /// without perturbing a single reported residual bit.
    ///
    /// Bounds are the caller's job (`spmv` checks them; the parallel
    /// driver derives them from chunking), hence no `Result` here.
    pub fn spmv_range(&self, start: usize, x: &[f64], y: &mut [f64]) {
        use crate::simd::{f64x4, LANES};
        let rows = y.len();
        let quads = rows - rows % LANES;
        for q in (0..quads).step_by(LANES) {
            let ptr = &self.row_ptr[start + q..start + q + LANES + 1];
            let kmin =
                (ptr[1] - ptr[0]).min(ptr[2] - ptr[1]).min(ptr[3] - ptr[2]).min(ptr[4] - ptr[3]);
            let (p0, p1, p2, p3) = (ptr[0], ptr[1], ptr[2], ptr[3]);
            let mut acc = f64x4::splat(0.0);
            for k in 0..kmin {
                // product then add: the scalar `acc += v * x[c]`, per lane
                acc = acc
                    + f64x4([
                        self.values[p0 + k] * x[self.col_idx[p0 + k]],
                        self.values[p1 + k] * x[self.col_idx[p1 + k]],
                        self.values[p2 + k] * x[self.col_idx[p2 + k]],
                        self.values[p3 + k] * x[self.col_idx[p3 + k]],
                    ]);
            }
            let mut out = acc.0;
            for (j, o) in out.iter_mut().enumerate() {
                for k in ptr[j] + kmin..ptr[j + 1] {
                    *o += self.values[k] * x[self.col_idx[k]];
                }
            }
            y[q..q + LANES].copy_from_slice(&out);
        }
        for (q, yi) in y.iter_mut().enumerate().skip(quads) {
            let mut acc = 0.0;
            for k in self.row_ptr[start + q]..self.row_ptr[start + q + 1] {
                acc += self.values[k] * x[self.col_idx[k]];
            }
            *yi = acc;
        }
    }

    /// Allocating variant of [`CsrMatrix::spmv`].
    pub fn mul_vec(&self, x: &[f64]) -> Result<Vec<f64>> {
        let mut y = vec![0.0; self.n_rows];
        self.spmv(x, &mut y)?;
        Ok(y)
    }

    /// Residual `r = b - A x`.
    pub fn residual(&self, b: &[f64], x: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch {
                op: "residual b",
                expected: self.n_rows,
                found: b.len(),
            });
        }
        let ax = self.mul_vec(x)?;
        Ok(b.iter().zip(&ax).map(|(&bi, &axi)| bi - axi).collect())
    }

    /// Transpose (sorted-column CSR out).
    pub fn transpose(&self) -> CsrMatrix {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            counts[c + 1] += 1;
        }
        for i in 0..self.n_cols {
            counts[i + 1] += counts[i];
        }
        let mut col_idx = vec![0usize; self.nnz()];
        let mut values = vec![0.0; self.nnz()];
        let mut next = counts.clone();
        for r in 0..self.n_rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                let c = self.col_idx[k];
                col_idx[next[c]] = r;
                values[next[c]] = self.values[k];
                next[c] += 1;
            }
        }
        CsrMatrix::from_raw_unchecked(self.n_cols, self.n_rows, counts, col_idx, values)
    }

    /// Returns `true` if `self` equals its transpose exactly.
    pub fn is_symmetric(&self) -> bool {
        self.is_square() && *self == self.transpose()
    }

    /// Returns `true` if `self` is symmetric within absolute tolerance `tol`.
    pub fn is_symmetric_within(&self, tol: f64) -> bool {
        if !self.is_square() {
            return false;
        }
        let t = self.transpose();
        if t.row_ptr != self.row_ptr || t.col_idx != self.col_idx {
            // Structure can differ while values still match within tol only
            // if near-zero entries exist on one side; fall back to gets.
            for r in 0..self.n_rows {
                for (c, v) in self.row_iter(r) {
                    if (v - self.get(c, r)).abs() > tol {
                        return false;
                    }
                }
            }
            return true;
        }
        self.values
            .iter()
            .zip(&t.values)
            .all(|(&a, &b)| (a - b).abs() <= tol)
    }

    /// Sparse general matrix–matrix product `C = A B` (Gustavson's algorithm).
    pub fn spgemm(&self, other: &CsrMatrix) -> Result<CsrMatrix> {
        if self.n_cols != other.n_rows {
            return Err(SparseError::DimensionMismatch {
                op: "spgemm inner dimension",
                expected: self.n_cols,
                found: other.n_rows,
            });
        }
        let n = self.n_rows;
        let m = other.n_cols;
        let mut row_ptr = Vec::with_capacity(n + 1);
        let mut col_idx: Vec<usize> = Vec::new();
        let mut values: Vec<f64> = Vec::new();
        row_ptr.push(0);

        // Dense accumulator with a "touched" marker list.
        let mut acc = vec![0.0f64; m];
        let mut marker = vec![usize::MAX; m];
        let mut touched: Vec<usize> = Vec::new();

        for i in 0..n {
            touched.clear();
            for ka in self.row_ptr[i]..self.row_ptr[i + 1] {
                let k = self.col_idx[ka];
                let av = self.values[ka];
                for kb in other.row_ptr[k]..other.row_ptr[k + 1] {
                    let j = other.col_idx[kb];
                    if marker[j] != i {
                        marker[j] = i;
                        acc[j] = 0.0;
                        touched.push(j);
                    }
                    acc[j] += av * other.values[kb];
                }
            }
            touched.sort_unstable();
            for &j in &touched {
                if acc[j] != 0.0 {
                    col_idx.push(j);
                    values.push(acc[j]);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix::from_raw_unchecked(n, m, row_ptr, col_idx, values))
    }

    /// `A^p` for a square matrix, by repeated SpGEMM (p >= 1).
    pub fn pow(&self, p: u32) -> Result<CsrMatrix> {
        if !self.is_square() {
            return Err(SparseError::DimensionMismatch {
                op: "pow requires square",
                expected: self.n_rows,
                found: self.n_cols,
            });
        }
        if p == 0 {
            return Ok(CsrMatrix::identity(self.n_rows));
        }
        let mut out = self.clone();
        for _ in 1..p {
            out = out.spgemm(self)?;
        }
        Ok(out)
    }

    /// Linear combination `alpha * self + beta * other` (same shape).
    pub fn add_scaled(&self, alpha: f64, other: &CsrMatrix, beta: f64) -> Result<CsrMatrix> {
        if self.n_rows != other.n_rows || self.n_cols != other.n_cols {
            return Err(SparseError::DimensionMismatch {
                op: "add_scaled shape",
                expected: self.n_rows,
                found: other.n_rows,
            });
        }
        let mut row_ptr = Vec::with_capacity(self.n_rows + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in 0..self.n_rows {
            let (ca, va) = self.row(r);
            let (cb, vb) = other.row(r);
            let (mut i, mut j) = (0, 0);
            while i < ca.len() || j < cb.len() {
                let (c, v) = if j >= cb.len() || (i < ca.len() && ca[i] < cb[j]) {
                    let out = (ca[i], alpha * va[i]);
                    i += 1;
                    out
                } else if i >= ca.len() || cb[j] < ca[i] {
                    let out = (cb[j], beta * vb[j]);
                    j += 1;
                    out
                } else {
                    let out = (ca[i], alpha * va[i] + beta * vb[j]);
                    i += 1;
                    j += 1;
                    out
                };
                if v != 0.0 {
                    col_idx.push(c);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        Ok(CsrMatrix::from_raw_unchecked(self.n_rows, self.n_cols, row_ptr, col_idx, values))
    }

    /// Scales row `i` by `s[i]` in place (i.e. computes `diag(s) * A`).
    #[allow(clippy::needless_range_loop)] // row index drives ptr and s together
    pub fn scale_rows(&mut self, s: &[f64]) -> Result<()> {
        if s.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch {
                op: "scale_rows",
                expected: self.n_rows,
                found: s.len(),
            });
        }
        for r in 0..self.n_rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                self.values[k] *= s[r];
            }
        }
        Ok(())
    }

    /// Rewrites every stored value in place as `f(row, col, value)`; the
    /// sparsity pattern is kept, zeros included.
    pub(crate) fn map_values(&mut self, mut f: impl FnMut(usize, usize, f64) -> f64) {
        for r in 0..self.n_rows {
            for k in self.row_ptr[r]..self.row_ptr[r + 1] {
                self.values[k] = f(r, self.col_idx[k], self.values[k]);
            }
        }
    }

    /// Entry-wise absolute value `|A|`.
    pub fn abs(&self) -> CsrMatrix {
        let mut out = self.clone();
        for v in &mut out.values {
            *v = v.abs();
        }
        out
    }

    /// Extracts the square diagonal block `A[rows, rows]` for a contiguous
    /// row range, re-indexed to local indices. Used by the block-asynchronous
    /// solver for the per-subdomain local systems.
    pub fn diagonal_block(&self, start: usize, end: usize) -> CsrMatrix {
        let nb = end - start;
        let mut row_ptr = Vec::with_capacity(nb + 1);
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        row_ptr.push(0);
        for r in start..end {
            for (c, v) in self.row_iter(r) {
                if c >= start && c < end {
                    col_idx.push(c - start);
                    values.push(v);
                }
            }
            row_ptr.push(col_idx.len());
        }
        CsrMatrix::from_raw_unchecked(nb, nb, row_ptr, col_idx, values)
    }

    /// Applies a symmetric permutation `B = P A P^T`, where row/col `i` of
    /// `B` is row/col `perm[i]` of `A` (i.e. `perm` is the new-to-old map).
    pub fn permute_sym(&self, perm: &[usize]) -> Result<CsrMatrix> {
        if !self.is_square() || perm.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch {
                op: "permute_sym",
                expected: self.n_rows,
                found: perm.len(),
            });
        }
        let n = self.n_rows;
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n || inv[old] != usize::MAX {
                return Err(SparseError::Generator("invalid permutation".into()));
            }
            inv[old] = new;
        }
        let mut coo = crate::CooMatrix::with_capacity(n, n, self.nnz());
        for r in 0..n {
            for (c, v) in self.row_iter(r) {
                coo.push(inv[r], inv[c], v)?;
            }
        }
        Ok(coo.to_csr())
    }

    /// Converts to a dense matrix (small matrices / tests only).
    pub fn to_dense(&self) -> DenseMatrix {
        let mut d = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for r in 0..self.n_rows {
            for (c, v) in self.row_iter(r) {
                d[(r, c)] = v;
            }
        }
        d
    }

    /// Maximum row sum of absolute values (infinity norm).
    pub fn norm_inf(&self) -> f64 {
        (0..self.n_rows)
            .map(|r| self.row(r).1.iter().map(|v| v.abs()).sum::<f64>())
            .fold(0.0, f64::max)
    }

    /// `true` if every row satisfies weak diagonal dominance
    /// `|a_ii| >= sum_{j != i} |a_ij|`, with at least one strict row.
    pub fn is_diagonally_dominant(&self) -> bool {
        if !self.is_square() {
            return false;
        }
        let mut any_strict = false;
        for r in 0..self.n_rows {
            let mut diag = 0.0;
            let mut off = 0.0;
            for (c, v) in self.row_iter(r) {
                if c == r {
                    diag = v.abs();
                } else {
                    off += v.abs();
                }
            }
            if diag < off {
                return false;
            }
            if diag > off {
                any_strict = true;
            }
        }
        any_strict
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CooMatrix;

    #[test]
    fn spmv_range_is_bit_identical_to_per_row_loop() {
        // ragged rows (0..=6 entries) exercise the lane tails; bits must
        // match the naive loop for every start offset mod 4
        let a = crate::gen::random_diag_dominant(53, 6, 1.2, 9);
        let x: Vec<f64> = (0..53).map(|i| ((i * 29) % 17) as f64 * 0.37 - 2.0).collect();
        let naive: Vec<f64> = (0..53)
            .map(|r| a.row_iter(r).fold(0.0, |acc, (c, v)| acc + v * x[c]))
            .collect();
        let mut y = vec![0.0; 53];
        a.spmv(&x, &mut y).unwrap();
        for r in 0..53 {
            assert_eq!(y[r].to_bits(), naive[r].to_bits(), "row {r}");
        }
        for start in [0usize, 1, 2, 3, 7, 50] {
            let mut part = vec![0.0; 53 - start];
            a.spmv_range(start, &x, &mut part);
            for (k, v) in part.iter().enumerate() {
                assert_eq!(v.to_bits(), naive[start + k].to_bits(), "start {start} row {k}");
            }
        }
    }

    fn sample() -> CsrMatrix {
        // [ 4 -1  0]
        // [-1  4 -1]
        // [ 0 -1  4]
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, 4.0).unwrap();
        }
        coo.push_sym(0, 1, -1.0).unwrap();
        coo.push_sym(1, 2, -1.0).unwrap();
        coo.to_csr()
    }

    #[test]
    fn spmv_matches_hand_computation() {
        let a = sample();
        let y = a.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![2.0, 4.0, 10.0]);
    }

    #[test]
    fn spmv_dimension_checked() {
        let a = sample();
        assert!(a.mul_vec(&[1.0, 2.0]).is_err());
        let mut y = vec![0.0; 2];
        assert!(a.spmv(&[1.0, 2.0, 3.0], &mut y).is_err());
    }

    #[test]
    fn identity_is_identity() {
        let i = CsrMatrix::identity(4);
        let x = vec![1.0, -2.0, 3.5, 0.0];
        assert_eq!(i.mul_vec(&x).unwrap(), x);
        assert!(i.validate().is_ok());
    }

    #[test]
    fn diagonal_extraction() {
        let a = sample();
        assert_eq!(a.diagonal(), vec![4.0, 4.0, 4.0]);
        assert!(a.nonzero_diagonal().is_ok());
        let z = CsrMatrix::from_diagonal(&[1.0, 0.0]);
        assert!(matches!(z.nonzero_diagonal(), Err(SparseError::ZeroDiagonal { row: 1 })));
    }

    #[test]
    fn transpose_of_symmetric_is_identical() {
        let a = sample();
        assert_eq!(a.transpose(), a);
        assert!(a.is_symmetric());
    }

    #[test]
    fn transpose_nonsquare() {
        let mut coo = CooMatrix::new(2, 3);
        coo.push(0, 2, 1.0).unwrap();
        coo.push(1, 0, 2.0).unwrap();
        let a = coo.to_csr();
        let t = a.transpose();
        assert_eq!(t.n_rows(), 3);
        assert_eq!(t.n_cols(), 2);
        assert_eq!(t.get(2, 0), 1.0);
        assert_eq!(t.get(0, 1), 2.0);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn spgemm_matches_dense() {
        let a = sample();
        let b = sample();
        let c = a.spgemm(&b).unwrap();
        let dense = a.to_dense().matmul(&b.to_dense());
        for r in 0..3 {
            for cc in 0..3 {
                assert!((c.get(r, cc) - dense[(r, cc)]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn pow_squares() {
        let a = sample();
        let a2 = a.pow(2).unwrap();
        let ref2 = a.spgemm(&a).unwrap();
        assert_eq!(a2, ref2);
        assert_eq!(a.pow(0).unwrap(), CsrMatrix::identity(3));
        assert_eq!(a.pow(1).unwrap(), a);
    }

    #[test]
    fn add_scaled_cancels() {
        let a = sample();
        let z = a.add_scaled(1.0, &a, -1.0).unwrap();
        assert_eq!(z.nnz(), 0);
        let two_a = a.add_scaled(1.0, &a, 1.0).unwrap();
        assert_eq!(two_a.get(0, 0), 8.0);
    }

    #[test]
    fn abs_takes_magnitudes() {
        let a = sample().abs();
        assert_eq!(a.get(0, 1), 1.0);
        assert_eq!(a.get(0, 0), 4.0);
    }

    #[test]
    fn diagonal_block_reindexes() {
        let a = sample();
        let b = a.diagonal_block(1, 3);
        assert_eq!(b.n_rows(), 2);
        assert_eq!(b.get(0, 0), 4.0);
        assert_eq!(b.get(0, 1), -1.0);
        assert_eq!(b.get(1, 0), -1.0);
    }

    #[test]
    fn permute_sym_reverse() {
        let a = sample();
        let p = a.permute_sym(&[2, 1, 0]).unwrap();
        // Tridiagonal symmetric with constant bands is invariant under
        // reversal.
        assert_eq!(p, a);
        // An invalid permutation is rejected.
        assert!(a.permute_sym(&[0, 0, 1]).is_err());
    }

    #[test]
    fn diagonal_dominance() {
        assert!(sample().is_diagonally_dominant());
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(0, 1, 5.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        assert!(!coo.to_csr().is_diagonally_dominant());
    }

    #[test]
    fn norms() {
        let a = sample();
        assert_eq!(a.norm_inf(), 6.0);
    }

    #[test]
    fn residual_zero_at_solution() {
        let a = CsrMatrix::from_diagonal(&[2.0, 4.0]);
        let r = a.residual(&[2.0, 8.0], &[1.0, 2.0]).unwrap();
        assert_eq!(r, vec![0.0, 0.0]);
    }

    #[test]
    fn from_raw_validates() {
        // bad: column out of bounds
        assert!(CsrMatrix::from_raw(1, 1, vec![0, 1], vec![3], vec![1.0]).is_err());
        // bad: unsorted columns
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![2, 0], vec![1.0, 2.0]).is_err());
        // good
        assert!(CsrMatrix::from_raw(1, 3, vec![0, 2], vec![0, 2], vec![1.0, 2.0]).is_ok());
    }
}
