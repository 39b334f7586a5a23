//! Tolerance-based matrix comparison with diagnostic reporting.
//!
//! f32 training in a different summation order (3D-parallel partial sums vs
//! serial) matches the reference only up to rounding, so the equivalence
//! tests throughout the workspace compare with mixed absolute/relative
//! tolerance and report *where* and *by how much* a comparison failed.

use crate::matrix::Matrix;

/// Result of comparing two matrices.
#[derive(Debug, Clone, Copy)]
pub struct MatComparison {
    /// Largest absolute elementwise difference.
    pub max_abs: f32,
    /// Largest relative difference (|a-b| / max(|a|,|b|,1e-12)).
    pub max_rel: f32,
    /// Flat index of the worst element.
    pub argmax: usize,
}

/// Compare elementwise; panics on shape mismatch.
pub fn compare(a: &Matrix, b: &Matrix) -> MatComparison {
    assert_eq!(a.shape(), b.shape(), "compare: shape mismatch {:?} vs {:?}", a.shape(), b.shape());
    let mut worst = MatComparison { max_abs: 0.0, max_rel: 0.0, argmax: 0 };
    for (idx, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        let abs = (x - y).abs();
        let rel = abs / x.abs().max(y.abs()).max(1e-12);
        if abs > worst.max_abs {
            worst.max_abs = abs;
            worst.argmax = idx;
        }
        if rel > worst.max_rel {
            worst.max_rel = rel;
        }
    }
    worst
}

/// Largest absolute elementwise difference.
pub fn max_abs_diff(a: &Matrix, b: &Matrix) -> f32 {
    compare(a, b).max_abs
}

/// Assert matrices are close: passes if for every element either the
/// absolute or the relative difference is within `tol`.
pub fn assert_close(a: &Matrix, b: &Matrix, tol: f32, context: &str) {
    assert_eq!(
        a.shape(),
        b.shape(),
        "assert_close[{}]: shape mismatch {:?} vs {:?}",
        context,
        a.shape(),
        b.shape()
    );
    for (idx, (&x, &y)) in a.as_slice().iter().zip(b.as_slice()).enumerate() {
        let abs = (x - y).abs();
        let rel = abs / x.abs().max(y.abs()).max(1e-12);
        if abs > tol && rel > tol {
            let (r, c) = (idx / a.cols(), idx % a.cols());
            panic!(
                "assert_close[{}]: mismatch at ({}, {}): {} vs {} (abs {:.3e}, rel {:.3e}, tol {:.1e})",
                context, r, c, x, y, abs, rel, tol
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_matrices_compare_as_zero() {
        let a = Matrix::full(3, 3, 1.5);
        let c = compare(&a, &a);
        assert_eq!(c.max_abs, 0.0);
        assert_eq!(c.max_rel, 0.0);
    }

    #[test]
    fn worst_element_located() {
        let a = Matrix::zeros(2, 2);
        let mut b = Matrix::zeros(2, 2);
        b[(1, 0)] = 0.5;
        let c = compare(&a, &b);
        assert_eq!(c.argmax, 2);
        assert_eq!(c.max_abs, 0.5);
    }

    #[test]
    fn relative_tolerance_accepts_large_magnitudes() {
        let a = Matrix::full(1, 1, 1.0e6);
        let b = Matrix::full(1, 1, 1.0e6 + 1.0);
        // abs diff 1.0 >> 1e-4 but rel diff 1e-6 passes.
        assert_close(&a, &b, 1e-4, "relative");
    }

    #[test]
    #[should_panic(expected = "mismatch at (0, 1)")]
    fn assert_close_reports_position() {
        let a = Matrix::zeros(1, 3);
        let mut b = Matrix::zeros(1, 3);
        b[(0, 1)] = 1.0;
        assert_close(&a, &b, 1e-6, "position");
    }
}
