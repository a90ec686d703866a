//! Threaded CPU kernels: row-chunked SpMV and reduction-based dot
//! products over `std::thread::scope`.
//!
//! The paper's CPU Gauss-Seidel reference uses "4 cores … for the
//! matrix-vector operations that can be parallelized" (§3.2); this module
//! is that capability for our CPU-side baselines and for large-matrix
//! utility work (spectra estimation on the 20 000-row Trefethen system).
//! The solvers themselves stay sequential by default — determinism of the
//! numerics is worth more to the experiments than CPU speed — so these
//! kernels are opt-in.

use crate::{CsrMatrix, Result, SparseError};

/// A fixed thread-count context for the parallel kernels.
#[derive(Debug, Clone, Copy)]
pub struct ParContext {
    /// Worker threads used per operation.
    pub n_threads: usize,
}

impl ParContext {
    /// Context with the given thread count (at least 1).
    pub fn new(n_threads: usize) -> ParContext {
        ParContext { n_threads: n_threads.max(1) }
    }

    /// The paper's CPU configuration: 4 cores.
    pub fn paper_cpu() -> ParContext {
        ParContext { n_threads: 4 }
    }

    /// Parallel SpMV `y = A x`, rows split into contiguous chunks.
    pub fn spmv(&self, a: &CsrMatrix, x: &[f64], y: &mut [f64]) -> Result<()> {
        if x.len() != a.n_cols() {
            return Err(SparseError::DimensionMismatch {
                op: "par spmv x",
                expected: a.n_cols(),
                found: x.len(),
            });
        }
        if y.len() != a.n_rows() {
            return Err(SparseError::DimensionMismatch {
                op: "par spmv y",
                expected: a.n_rows(),
                found: y.len(),
            });
        }
        let n = a.n_rows();
        let threads = self.n_threads.min(n.max(1));
        if threads <= 1 || n < 256 {
            return a.spmv(x, y);
        }
        let chunk = n.div_ceil(threads);
        std::thread::scope(|scope| {
            for (t, y_chunk) in y.chunks_mut(chunk).enumerate() {
                let start = t * chunk;
                // the same four-row-lane kernel as sequential spmv, so the
                // chunked result is bit-identical to it for any chunking
                scope.spawn(move || a.spmv_range(start, x, y_chunk));
            }
        });
        Ok(())
    }

    /// Parallel dot product with per-chunk partial sums.
    pub fn dot(&self, x: &[f64], y: &[f64]) -> f64 {
        assert_eq!(x.len(), y.len(), "dot: length mismatch");
        let n = x.len();
        let threads = self.n_threads.min(n.max(1));
        if threads <= 1 || n < 4096 {
            return crate::blas1::dot(x, y);
        }
        let chunk = n.div_ceil(threads);
        let mut partials = vec![0.0f64; threads];
        std::thread::scope(|scope| {
            for ((xc, yc), p) in
                x.chunks(chunk).zip(y.chunks(chunk)).zip(partials.iter_mut())
            {
                scope.spawn(move || {
                    *p = xc.iter().zip(yc).map(|(&a, &b)| a * b).sum();
                });
            }
        });
        partials.iter().sum()
    }

    /// Parallel Euclidean norm.
    pub fn norm2(&self, x: &[f64]) -> f64 {
        self.dot(x, x).sqrt()
    }

    /// Applies `f` to every index in `0..len` across `n_threads` scoped
    /// threads and returns the results **in index order**.
    ///
    /// Each index is computed exactly once and lands in its own slot, so
    /// the output is identical for every thread count — this is the
    /// primitive behind the deterministic parallel plan compile and the
    /// chunk-parallel MatrixMarket parse. `f` must be pure with respect to
    /// the order of invocation (indices within a chunk run in order, but
    /// chunks run concurrently).
    pub fn map_indexed<T, F>(&self, len: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize) -> T + Sync,
    {
        self.map_each(vec![(); len], |i, ()| f(i))
    }

    /// [`map_indexed`](Self::map_indexed) over owned inputs: `f(i,
    /// items[i])` for every `i`, results in index order. The inputs can
    /// be disjoint `&mut` slices of one output array, which is how each
    /// block of the plan compile writes its part in place. No thread is
    /// spawned when `n_threads` is 1.
    pub fn map_each<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send,
        T: Send,
        F: Fn(usize, I) -> T + Sync,
    {
        let len = items.len();
        let threads = self.n_threads.min(len);
        if threads <= 1 {
            return items.into_iter().enumerate().map(|(i, item)| f(i, item)).collect();
        }
        let mut inputs: Vec<Option<I>> = items.into_iter().map(Some).collect();
        let mut out: Vec<Option<T>> = Vec::new();
        out.resize_with(len, || None);
        let chunk = len.div_ceil(threads);
        let f = &f;
        std::thread::scope(|scope| {
            for (t, (ins, slots)) in
                inputs.chunks_mut(chunk).zip(out.chunks_mut(chunk)).enumerate()
            {
                let start = t * chunk;
                scope.spawn(move || {
                    for (i, (item, slot)) in ins.iter_mut().zip(slots).enumerate() {
                        let item = item.take().expect("every input taken once");
                        *slot = Some(f(start + i, item));
                    }
                });
            }
        });
        out.into_iter().map(|s| s.expect("every index filled")).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{laplacian_2d_5pt, trefethen};

    #[test]
    fn spmv_matches_sequential() {
        let a = trefethen(1000).unwrap();
        let x: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.01).sin() + 1.0).collect();
        let seq = a.mul_vec(&x).unwrap();
        for threads in [1usize, 2, 3, 8] {
            let ctx = ParContext::new(threads);
            let mut y = vec![0.0; 1000];
            ctx.spmv(&a, &x, &mut y).unwrap();
            for (p, q) in y.iter().zip(&seq) {
                assert!((p - q).abs() < 1e-14, "threads {threads}");
            }
        }
    }

    #[test]
    fn spmv_small_matrix_falls_back() {
        let a = laplacian_2d_5pt(4);
        let mut y = vec![0.0; 16];
        ParContext::new(8).spmv(&a, &[1.0; 16], &mut y).unwrap();
        let seq = a.mul_vec(&[1.0; 16]).unwrap();
        assert_eq!(y, seq);
    }

    #[test]
    fn spmv_dimension_checked() {
        let a = laplacian_2d_5pt(4);
        let mut y = vec![0.0; 16];
        assert!(ParContext::new(2).spmv(&a, &[1.0; 3], &mut y).is_err());
        let mut bad = vec![0.0; 3];
        assert!(ParContext::new(2).spmv(&a, &[1.0; 16], &mut bad).is_err());
    }

    #[test]
    fn dot_matches_sequential_and_is_deterministic() {
        let x: Vec<f64> = (0..10_000).map(|i| ((i * 37) % 101) as f64 * 0.01).collect();
        let y: Vec<f64> = (0..10_000).map(|i| ((i * 17) % 97) as f64 * 0.02 - 1.0).collect();
        let seq = crate::blas1::dot(&x, &y);
        let ctx = ParContext::new(4);
        let a = ctx.dot(&x, &y);
        let b = ctx.dot(&x, &y);
        assert_eq!(a, b, "chunked reduction must be deterministic");
        assert!((a - seq).abs() < 1e-9 * seq.abs().max(1.0));
        assert!((ctx.norm2(&x) - crate::blas1::norm2(&x)).abs() < 1e-9);
    }

    #[test]
    fn zero_threads_clamped() {
        let ctx = ParContext::new(0);
        assert_eq!(ctx.n_threads, 1);
    }

    #[test]
    fn map_indexed_preserves_index_order() {
        for threads in [1usize, 2, 3, 7, 16] {
            let got = ParContext::new(threads).map_indexed(37, |i| i * i);
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads {threads}");
        }
        assert!(ParContext::new(4).map_indexed(0, |i| i).is_empty());
    }

    #[test]
    fn map_each_hands_every_item_to_its_index() {
        for threads in [1usize, 2, 3, 7, 16] {
            let mut out = vec![0usize; 37];
            let slots: Vec<&mut usize> = out.iter_mut().collect();
            let got = ParContext::new(threads).map_each(slots, |i, slot| {
                *slot = i + 1;
                i * i
            });
            let want: Vec<usize> = (0..37).map(|i| i * i).collect();
            assert_eq!(got, want, "threads {threads}");
            assert_eq!(out, (1..=37).collect::<Vec<_>>(), "threads {threads}");
        }
    }
}
