//! Level-1 vector kernels used throughout the solvers.
//!
//! These are deliberately plain sequential loops: the matrices in the paper
//! are small enough (n <= 20000) that threading level-1 ops would only add
//! noise, and keeping them scalar makes the virtual-timing accounting of the
//! GPU simulator unambiguous.

/// Dot product `x . y`.
///
/// # Panics
/// Panics if the slices differ in length (programming error, not data error).
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len(), "dot: length mismatch");
    x.iter().zip(y).map(|(&a, &b)| a * b).sum()
}

/// Euclidean norm `||x||_2`.
#[inline]
pub fn norm2(x: &[f64]) -> f64 {
    dot(x, x).sqrt()
}

/// Infinity norm `||x||_inf`.
#[inline]
pub fn norm_inf(x: &[f64]) -> f64 {
    x.iter().fold(0.0, |m, &v| m.max(v.abs()))
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y = x + beta * y` (the BLAS `xpay` used by CG).
#[inline]
pub fn xpay(x: &[f64], beta: f64, y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "xpay: length mismatch");
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi = xi + beta * *yi;
    }
}

/// `x *= alpha`.
#[inline]
pub fn scale(alpha: f64, x: &mut [f64]) {
    for v in x {
        *v *= alpha;
    }
}

/// `z = x - y`.
#[inline]
pub fn sub(x: &[f64], y: &[f64], z: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "sub: length mismatch");
    assert_eq!(x.len(), z.len(), "sub: output length mismatch");
    for ((zi, &xi), &yi) in z.iter_mut().zip(x).zip(y) {
        *zi = xi - yi;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_orthogonal() {
        assert_eq!(dot(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
    }

    #[test]
    fn norms() {
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(norm_inf(&[-7.0, 3.0]), 7.0);
        assert_eq!(norm2(&[]), 0.0);
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, 4.0], &mut y);
        assert_eq!(y, vec![7.0, 9.0]);
    }

    #[test]
    fn xpay_formula() {
        let mut y = vec![10.0, 20.0];
        xpay(&[1.0, 2.0], 0.5, &mut y);
        assert_eq!(y, vec![6.0, 12.0]);
    }

    #[test]
    fn scale_in_place() {
        let mut x = vec![2.0, -4.0];
        scale(-0.5, &mut x);
        assert_eq!(x, vec![-1.0, 2.0]);
    }

    #[test]
    fn sub_componentwise() {
        let mut z = vec![0.0; 2];
        sub(&[5.0, 3.0], &[2.0, 4.0], &mut z);
        assert_eq!(z, vec![3.0, -1.0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn dot_length_mismatch_panics() {
        dot(&[1.0], &[1.0, 2.0]);
    }
}
