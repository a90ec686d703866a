//! Small dense matrices, used as reference implementations in tests and for
//! the dense eigen-solves inside the generators' parameter tuning.

use std::ops::{Index, IndexMut};

/// A row-major dense matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseMatrix {
    n_rows: usize,
    n_cols: usize,
    data: Vec<f64>,
}

impl DenseMatrix {
    /// Zero matrix of the given shape.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        DenseMatrix { n_rows, n_cols, data: vec![0.0; n_rows * n_cols] }
    }

    /// Identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = DenseMatrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds from a row-major data vector.
    pub fn from_rows(n_rows: usize, n_cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), n_rows * n_cols, "data length must be n_rows * n_cols");
        DenseMatrix { n_rows, n_cols, data }
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Dense mat-vec `y = A x`.
    #[allow(clippy::needless_range_loop)] // row index drives data stride and y together
    pub fn mul_vec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n_cols);
        let mut y = vec![0.0; self.n_rows];
        for r in 0..self.n_rows {
            let row = &self.data[r * self.n_cols..(r + 1) * self.n_cols];
            y[r] = row.iter().zip(x).map(|(&a, &b)| a * b).sum();
        }
        y
    }

    /// Dense mat-mat product.
    pub fn matmul(&self, other: &DenseMatrix) -> DenseMatrix {
        assert_eq!(self.n_cols, other.n_rows);
        let mut out = DenseMatrix::zeros(self.n_rows, other.n_cols);
        for i in 0..self.n_rows {
            for k in 0..self.n_cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.n_cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Solves `A x = b` by Gaussian elimination with partial pivoting.
    /// Returns `None` if the matrix is numerically singular.
    pub fn solve(&self, b: &[f64]) -> Option<Vec<f64>> {
        assert_eq!(self.n_rows, self.n_cols);
        assert_eq!(b.len(), self.n_rows);
        let n = self.n_rows;
        let mut a = self.data.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // pivot
            let mut p = col;
            let mut best = a[col * n + col].abs();
            for r in (col + 1)..n {
                let v = a[r * n + col].abs();
                if v > best {
                    best = v;
                    p = r;
                }
            }
            if best < 1e-300 {
                return None;
            }
            if p != col {
                for j in 0..n {
                    a.swap(col * n + j, p * n + j);
                }
                x.swap(col, p);
            }
            let piv = a[col * n + col];
            for r in (col + 1)..n {
                let f = a[r * n + col] / piv;
                if f == 0.0 {
                    continue;
                }
                for j in col..n {
                    a[r * n + j] -= f * a[col * n + j];
                }
                x[r] -= f * x[col];
            }
        }
        for col in (0..n).rev() {
            let mut acc = x[col];
            for j in (col + 1)..n {
                acc -= a[col * n + j] * x[j];
            }
            x[col] = acc / a[col * n + col];
        }
        Some(x)
    }

    /// All eigenvalues of a **symmetric** matrix via the cyclic Jacobi
    /// rotation method. Only intended for the small systems used in tests
    /// and generator tuning (O(n^3) per sweep).
    pub fn symmetric_eigenvalues(&self) -> Vec<f64> {
        assert_eq!(self.n_rows, self.n_cols);
        let n = self.n_rows;
        let mut a = self.data.clone();
        let off = |a: &[f64]| -> f64 {
            let mut s = 0.0;
            for i in 0..n {
                for j in 0..n {
                    if i != j {
                        s += a[i * n + j] * a[i * n + j];
                    }
                }
            }
            s
        };
        let scale: f64 = self.data.iter().map(|v| v * v).sum::<f64>().max(1e-300);
        let mut sweeps = 0;
        while off(&a) > 1e-24 * scale && sweeps < 100 {
            sweeps += 1;
            for p in 0..n {
                for q in (p + 1)..n {
                    let apq = a[p * n + q];
                    if apq.abs() < 1e-300 {
                        continue;
                    }
                    let app = a[p * n + p];
                    let aqq = a[q * n + q];
                    let theta = (aqq - app) / (2.0 * apq);
                    let t = if theta >= 0.0 {
                        1.0 / (theta + (1.0 + theta * theta).sqrt())
                    } else {
                        1.0 / (theta - (1.0 + theta * theta).sqrt())
                    };
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = t * c;
                    for k in 0..n {
                        let akp = a[k * n + p];
                        let akq = a[k * n + q];
                        a[k * n + p] = c * akp - s * akq;
                        a[k * n + q] = s * akp + c * akq;
                    }
                    for k in 0..n {
                        let apk = a[p * n + k];
                        let aqk = a[q * n + k];
                        a[p * n + k] = c * apk - s * aqk;
                        a[q * n + k] = s * apk + c * aqk;
                    }
                }
            }
        }
        let mut eig: Vec<f64> = (0..n).map(|i| a[i * n + i]).collect();
        eig.sort_by(|x, y| x.partial_cmp(y).unwrap());
        eig
    }
}

impl Index<(usize, usize)> for DenseMatrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.n_cols + c]
    }
}

impl IndexMut<(usize, usize)> for DenseMatrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.n_cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mul_vec_identity() {
        let i = DenseMatrix::identity(3);
        assert_eq!(i.mul_vec(&[1.0, 2.0, 3.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn solve_small_system() {
        let a = DenseMatrix::from_rows(2, 2, vec![2.0, 1.0, 1.0, 3.0]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert!((x[0] - 1.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn solve_singular_returns_none() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 2.0, 4.0]);
        assert!(a.solve(&[1.0, 2.0]).is_none());
    }

    #[test]
    fn solve_with_pivoting_needed() {
        // leading zero pivot forces a row swap
        let a = DenseMatrix::from_rows(2, 2, vec![0.0, 1.0, 1.0, 0.0]);
        let x = a.solve(&[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn symmetric_eigenvalues_of_diag() {
        let mut a = DenseMatrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = -1.0;
        a[(2, 2)] = 2.0;
        let e = a.symmetric_eigenvalues();
        assert!((e[0] + 1.0).abs() < 1e-10);
        assert!((e[1] - 2.0).abs() < 1e-10);
        assert!((e[2] - 3.0).abs() < 1e-10);
    }

    #[test]
    fn symmetric_eigenvalues_tridiag() {
        // 1D Laplacian tridiag(-1, 2, -1), n = 4: eigenvalues
        // 2 - 2cos(k pi / 5), k = 1..4.
        let n = 4;
        let mut a = DenseMatrix::zeros(n, n);
        for i in 0..n {
            a[(i, i)] = 2.0;
            if i + 1 < n {
                a[(i, i + 1)] = -1.0;
                a[(i + 1, i)] = -1.0;
            }
        }
        let e = a.symmetric_eigenvalues();
        for (k, ev) in (1..=n).zip(&e) {
            let exact = 2.0 - 2.0 * (k as f64 * std::f64::consts::PI / 5.0).cos();
            assert!((ev - exact).abs() < 1e-9, "k={k}: {ev} vs {exact}");
        }
    }

    #[test]
    fn matmul_identity() {
        let a = DenseMatrix::from_rows(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = DenseMatrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }
}
