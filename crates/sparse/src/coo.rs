//! Coordinate-format sparse matrices, used for assembly.
//!
//! [`CooMatrix`] is the mutable "builder" format: entries can be pushed in
//! any order and duplicates are summed in push order on conversion to
//! CSR, matching the usual finite-element assembly workflow. The
//! conversion is the one triplets-to-CSR build; the MatrixMarket reader
//! ([`crate::io`]) uses it too.

use crate::{CsrMatrix, Result, SparseError};

/// A sparse matrix in coordinate (triplet) format.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CooMatrix {
    n_rows: usize,
    n_cols: usize,
    rows: Vec<usize>,
    cols: Vec<usize>,
    vals: Vec<f64>,
}

impl CooMatrix {
    /// Creates an empty `n_rows x n_cols` matrix.
    pub fn new(n_rows: usize, n_cols: usize) -> Self {
        CooMatrix { n_rows, n_cols, rows: Vec::new(), cols: Vec::new(), vals: Vec::new() }
    }

    /// Creates an empty matrix with room for `cap` entries.
    pub fn with_capacity(n_rows: usize, n_cols: usize, cap: usize) -> Self {
        CooMatrix {
            n_rows,
            n_cols,
            rows: Vec::with_capacity(cap),
            cols: Vec::with_capacity(cap),
            vals: Vec::with_capacity(cap),
        }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored triplets (duplicates counted separately).
    pub fn nnz(&self) -> usize {
        self.vals.len()
    }

    /// Adds `value` at `(row, col)`. Duplicate positions accumulate.
    ///
    /// Zero values are kept; they are dropped when converting to CSR.
    pub fn push(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        if row >= self.n_rows || col >= self.n_cols {
            return Err(SparseError::IndexOutOfBounds {
                row,
                col,
                n_rows: self.n_rows,
                n_cols: self.n_cols,
            });
        }
        self.rows.push(row);
        self.cols.push(col);
        self.vals.push(value);
        Ok(())
    }

    /// Adds `value` at `(row, col)` and, if off-diagonal, also at `(col, row)`.
    pub fn push_sym(&mut self, row: usize, col: usize, value: f64) -> Result<()> {
        self.push(row, col, value)?;
        if row != col {
            self.push(col, row, value)?;
        }
        Ok(())
    }

    /// Iterates over the stored triplets.
    pub fn triplets(&self) -> impl Iterator<Item = (usize, usize, f64)> + '_ {
        self.rows
            .iter()
            .zip(&self.cols)
            .zip(&self.vals)
            .map(|((&r, &c), &v)| (r, c, v))
    }

    /// Converts to CSR, summing duplicates in push order and dropping
    /// explicit zeros, whether pushed directly or produced by
    /// cancellation.
    pub fn to_csr(&self) -> CsrMatrix {
        build_csr(self.n_rows, self.n_cols, &[(&self.rows, &self.cols, &self.vals)])
            .expect("pushed entries are in bounds")
    }
}

/// One run of triplets as parallel `(rows, cols, vals)` slices, every
/// index in bounds.
pub(crate) type Run<'a> = (&'a [usize], &'a [usize], &'a [f64]);

/// Builds the `n_rows x n_cols` CSR of the triplets of `runs`, taken run
/// after run (the push order): count each row's entries, scatter them
/// into their rows, then finish each row (see [`finish_row`]) and end in
/// the validating [`CsrMatrix::from_raw`]. A row count whose row pointers
/// cannot be allocated is an error, not a panic.
pub(crate) fn build_csr(n_rows: usize, n_cols: usize, runs: &[Run<'_>]) -> Result<CsrMatrix> {
    let refused =
        || SparseError::Parse(format!("{n_rows} rows: the row pointers cannot be allocated"));
    let len = n_rows.checked_add(1).ok_or_else(refused)?;
    let mut row_ptr = Vec::new();
    row_ptr.try_reserve_exact(len).map_err(|_| refused())?;
    row_ptr.resize(len, 0);
    for (rows, _, _) in runs {
        for &r in *rows {
            row_ptr[r + 1] += 1;
        }
    }
    for r in 0..n_rows {
        row_ptr[r + 1] += row_ptr[r];
    }
    // Scatter: `row_ptr[r]` is row r's next free slot, so each row's
    // entries land in push order and `row_ptr[r]` ends at row r's end.
    let stored = row_ptr[n_rows];
    let mut col_idx = vec![0usize; stored];
    let mut values = vec![0.0f64; stored];
    for (rows, cols, vals) in runs {
        // The current row's slot stays in a register while its row repeats.
        let (mut row, mut slot) = (0, row_ptr[0]);
        for ((&r, &c), &v) in rows.iter().zip(*cols).zip(*vals) {
            if r != row {
                row_ptr[row] = slot;
                (row, slot) = (r, row_ptr[r]);
            }
            col_idx[slot] = c;
            values[slot] = v;
            slot += 1;
        }
        row_ptr[row] = slot;
    }
    // Finish each row in place, moving it down over what earlier rows
    // dropped, and point `row_ptr` at the kept entries.
    let (mut start, mut kept) = (0, 0);
    let mut scratch = Vec::new();
    for ptr in &mut row_ptr[..n_rows] {
        let end = std::mem::replace(ptr, kept);
        kept = finish_row(&mut col_idx, &mut values, start..end, kept, &mut scratch);
        start = end;
    }
    row_ptr[n_rows] = kept;
    col_idx.truncate(kept);
    values.truncate(kept);
    CsrMatrix::from_raw(n_rows, n_cols, row_ptr, col_idx, values)
}

/// Writes the finished entries of the scattered row `span` from `at` on
/// (`at <= span.start`) and returns where they end. A row whose columns
/// already strictly increase only loses its explicit zeros; any other is
/// stably sorted by column, its duplicates summed in push order and zero
/// sums dropped.
fn finish_row(
    cols: &mut [usize],
    vals: &mut [f64],
    span: std::ops::Range<usize>,
    mut at: usize,
    scratch: &mut Vec<(usize, f64)>,
) -> usize {
    if cols[span.clone()].windows(2).all(|w| w[0] < w[1]) {
        if at == span.start && !vals[span.clone()].contains(&0.0) {
            return span.end;
        }
        for k in span {
            if vals[k] != 0.0 {
                cols[at] = cols[k];
                vals[at] = vals[k];
                at += 1;
            }
        }
        return at;
    }
    scratch.clear();
    scratch.extend(cols[span.clone()].iter().copied().zip(vals[span].iter().copied()));
    // Stable: the entries of one column stay in push order.
    scratch.sort_by_key(|&(c, _)| c);
    for dups in scratch.chunk_by(|a, b| a.0 == b.0) {
        let sum = dups.iter().fold(0.0, |s, &(_, v)| s + v);
        if sum != 0.0 {
            cols[at] = dups[0].0;
            vals[at] = sum;
            at += 1;
        }
    }
    at
}

impl From<&CsrMatrix> for CooMatrix {
    fn from(csr: &CsrMatrix) -> Self {
        let mut coo = CooMatrix::with_capacity(csr.n_rows(), csr.n_cols(), csr.nnz());
        for row in 0..csr.n_rows() {
            for (col, val) in csr.row_iter(row) {
                coo.push(row, col, val).expect("CSR indices are in bounds");
            }
        }
        coo
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeMap;

    /// The CSR of `triplets` by the definition: each position's values
    /// summed from `0.0` in push order, zero sums dropped.
    pub(crate) fn oracle(
        n_rows: usize,
        n_cols: usize,
        triplets: impl IntoIterator<Item = (usize, usize, f64)>,
    ) -> CsrMatrix {
        let mut sums = BTreeMap::new();
        for (r, c, v) in triplets {
            *sums.entry((r, c)).or_insert(0.0) += v;
        }
        let mut row_ptr = vec![0; n_rows + 1];
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for ((r, c), v) in sums.into_iter().filter(|&(_, v)| v != 0.0) {
            row_ptr[r + 1] += 1;
            col_idx.push(c);
            values.push(v);
        }
        for r in 0..n_rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        CsrMatrix::from_raw(n_rows, n_cols, row_ptr, col_idx, values).unwrap()
    }

    /// Asserts `a` and `b` hold the same arrays, values compared by bits.
    pub(crate) fn assert_bits_eq(a: &CsrMatrix, b: &CsrMatrix, what: &str) {
        let bits = |m: &CsrMatrix| m.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!((a.n_rows(), a.n_cols()), (b.n_rows(), b.n_cols()), "{what}");
        assert_eq!(a.row_ptr(), b.row_ptr(), "{what}");
        assert_eq!(a.col_idx(), b.col_idx(), "{what}");
        assert_eq!(bits(a), bits(b), "{what}");
    }

    /// Random triplets: explicit zeros of both signs, repeated positions,
    /// cancelling pairs, and now and then a few long rows crowded with
    /// duplicates.
    fn gen_triplets(rng: &mut StdRng) -> (usize, usize, Vec<(usize, usize, f64)>) {
        let long_rows = rng.gen_range(0usize..4) == 0;
        let (n_rows, n_cols, len) = if long_rows {
            (rng.gen_range(1usize..=3), rng.gen_range(1usize..=64), rng.gen_range(0usize..=400))
        } else {
            (rng.gen_range(1usize..=12), rng.gen_range(1usize..=12), rng.gen_range(0usize..=60))
        };
        let mut triplets = Vec::with_capacity(len + 8);
        while triplets.len() < len {
            let (r, c) = (rng.gen_range(0..n_rows), rng.gen_range(0..n_cols));
            let v = match rng.gen_range(0usize..8) {
                0 => 0.0,
                1 => -0.0,
                2 => 1e-300,
                3 => [0.1, 0.2, 0.3][rng.gen_range(0usize..3)],
                _ => rng.gen_range(-4.0..4.0),
            };
            triplets.push((r, c, v));
            if rng.gen_range(0usize..6) == 0 {
                // The cancelling partner, right after or later.
                let at = rng.gen_range(triplets.len()..=triplets.len() + 4).min(triplets.len());
                triplets.insert(at, (r, c, -v));
            }
        }
        (n_rows, n_cols, triplets)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1000))]

        /// The one build, fed the triplets as runs split at random
        /// points, and `to_csr`, fed them as one run, both give the
        /// oracle's matrix bit for bit.
        #[test]
        fn build_matches_the_oracle_for_any_split_into_runs(seed in 0u64..u64::MAX) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (n_rows, n_cols, triplets) = gen_triplets(&mut rng);
            let expected = oracle(n_rows, n_cols, triplets.iter().copied());
            let mut coo = CooMatrix::new(n_rows, n_cols);
            for &(r, c, v) in &triplets {
                coo.push(r, c, v).unwrap();
            }
            assert_bits_eq(&coo.to_csr(), &expected, "to_csr");

            let rows: Vec<usize> = triplets.iter().map(|t| t.0).collect();
            let cols: Vec<usize> = triplets.iter().map(|t| t.1).collect();
            let vals: Vec<f64> = triplets.iter().map(|t| t.2).collect();
            let mut cuts: Vec<usize> =
                (0..rng.gen_range(0usize..5)).map(|_| rng.gen_range(0..=triplets.len())).collect();
            cuts.push(0);
            cuts.push(triplets.len());
            cuts.sort_unstable();
            let runs: Vec<Run<'_>> = cuts
                .windows(2)
                .map(|w| (&rows[w[0]..w[1]], &cols[w[0]..w[1]], &vals[w[0]..w[1]]))
                .collect();
            let built = build_csr(n_rows, n_cols, &runs).unwrap();
            assert_bits_eq(&built, &expected, &format!("runs cut at {cuts:?}"));
        }
    }

    #[test]
    fn push_and_convert() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push(0, 0, 2.0).unwrap();
        coo.push(1, 1, 3.0).unwrap();
        coo.push(2, 2, 4.0).unwrap();
        coo.push(0, 2, 1.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 4);
        assert_eq!(csr.get(0, 0), 2.0);
        assert_eq!(csr.get(0, 2), 1.0);
        assert_eq!(csr.get(2, 2), 4.0);
        assert_eq!(csr.get(1, 0), 0.0);
    }

    #[test]
    fn duplicates_are_summed() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(0, 1, 1.5).unwrap();
        coo.push(0, 1, 2.5).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(0, 1), 4.0);
    }

    #[test]
    fn cancelling_duplicates_are_dropped() {
        let mut coo = CooMatrix::new(2, 2);
        coo.push(1, 0, 1.0).unwrap();
        coo.push(1, 0, -1.0).unwrap();
        coo.push(1, 1, 5.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.nnz(), 1);
        assert_eq!(csr.get(1, 0), 0.0);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let mut coo = CooMatrix::new(2, 2);
        assert!(matches!(coo.push(2, 0, 1.0), Err(SparseError::IndexOutOfBounds { .. })));
        assert!(matches!(coo.push(0, 5, 1.0), Err(SparseError::IndexOutOfBounds { .. })));
    }

    #[test]
    fn push_sym_mirrors_offdiagonal() {
        let mut coo = CooMatrix::new(3, 3);
        coo.push_sym(0, 1, 7.0).unwrap();
        coo.push_sym(2, 2, 3.0).unwrap();
        let csr = coo.to_csr();
        assert_eq!(csr.get(0, 1), 7.0);
        assert_eq!(csr.get(1, 0), 7.0);
        assert_eq!(csr.get(2, 2), 3.0);
        assert_eq!(csr.nnz(), 3);
    }

    #[test]
    fn unsorted_input_sorted_on_conversion() {
        let mut coo = CooMatrix::new(2, 4);
        coo.push(1, 3, 1.0).unwrap();
        coo.push(0, 2, 2.0).unwrap();
        coo.push(1, 0, 3.0).unwrap();
        coo.push(0, 0, 4.0).unwrap();
        let csr = coo.to_csr();
        assert!(csr.validate().is_ok());
        assert_eq!(csr.get(1, 0), 3.0);
        assert_eq!(csr.get(0, 0), 4.0);
    }

    #[test]
    fn roundtrip_csr_coo_csr() {
        let mut coo = CooMatrix::new(3, 3);
        for i in 0..3 {
            coo.push(i, i, (i + 1) as f64).unwrap();
        }
        coo.push(0, 2, -1.0).unwrap();
        let csr = coo.to_csr();
        let back = CooMatrix::from(&csr).to_csr();
        assert_eq!(csr, back);
    }
}
