//! Elementwise operations, activations and row-wise reductions used by the
//! GCN forward/backward passes (paper eqs. 2.3 and 2.4) and by the loss.

use crate::matrix::Matrix;

/// `y = relu(x)` into a new matrix (paper eq. 2.3 with σ = ReLU).
pub fn relu(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for v in out.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
    out
}

/// `out = relu(x)` into a preallocated matrix (the workspace path: no
/// allocation when `out` comes from a kernel pool).
pub fn relu_into(x: &Matrix, out: &mut Matrix) {
    assert_eq!(x.shape(), out.shape(), "relu_into: shape mismatch");
    for (o, &v) in out.as_mut_slice().iter_mut().zip(x.as_slice()) {
        *o = if v < 0.0 { 0.0 } else { v };
    }
}

/// In-place `grad ⊙ σ'(pre)` for σ = ReLU (paper eq. 2.4): zero gradient
/// wherever the pre-activation was non-positive.
pub fn relu_backward_inplace(grad: &mut Matrix, pre_activation: &Matrix) {
    assert_eq!(grad.shape(), pre_activation.shape(), "relu_backward: shape mismatch");
    for (g, &p) in grad.as_mut_slice().iter_mut().zip(pre_activation.as_slice()) {
        if p <= 0.0 {
            *g = 0.0;
        }
    }
}

/// `a *= s`.
pub fn scale(a: &mut Matrix, s: f32) {
    for x in a.as_mut_slice() {
        *x *= s;
    }
}

/// Numerically-stable row-wise softmax.
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    for i in 0..out.rows() {
        let row = out.row_mut(i);
        let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let mut denom = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            denom += *v;
        }
        let inv = 1.0 / denom;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
    out
}

/// Row-wise log-sum-exp (used by the distributed cross-entropy).
pub fn logsumexp_rows(x: &Matrix) -> Vec<f32> {
    (0..x.rows())
        .map(|i| {
            let row = x.row(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let s: f32 = row.iter().map(|&v| (v - max).exp()).sum();
            max + s.ln()
        })
        .collect()
}

/// argmax per row (prediction extraction for accuracy metrics).
pub fn argmax_rows(x: &Matrix) -> Vec<usize> {
    (0..x.rows())
        .map(|i| {
            let row = x.row(i);
            let mut best = 0;
            for j in 1..row.len() {
                if row[j] > row[best] {
                    best = j;
                }
            }
            best
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_clamps_negatives() {
        let x = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, -0.5]);
        assert_eq!(relu(&x).as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn relu_backward_masks_by_preactivation() {
        let pre = Matrix::from_vec(1, 4, vec![-1.0, 0.0, 2.0, 3.0]);
        let mut g = Matrix::from_vec(1, 4, vec![1.0, 1.0, 1.0, 1.0]);
        relu_backward_inplace(&mut g, &pre);
        assert_eq!(g.as_slice(), &[0.0, 0.0, 1.0, 1.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 1000.0, 1001.0, 999.0]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {} sums to {}", i, sum);
        }
        // Large magnitudes must not overflow (stability check).
        assert!(s.row(1).iter().all(|v| v.is_finite()));
        assert!(s[(0, 2)] > s[(0, 1)] && s[(0, 1)] > s[(0, 0)]);
    }

    #[test]
    fn logsumexp_matches_direct_computation() {
        let x = Matrix::from_vec(1, 3, vec![0.1, 0.2, 0.3]);
        let direct = (0.1f32.exp() + 0.2f32.exp() + 0.3f32.exp()).ln();
        assert!((logsumexp_rows(&x)[0] - direct).abs() < 1e-6);
    }

    #[test]
    fn argmax_rows_picks_first_max_index() {
        let x = Matrix::from_vec(2, 3, vec![0.0, 5.0, 1.0, 9.0, 2.0, 3.0]);
        assert_eq!(argmax_rows(&x), vec![1, 0]);
    }

    #[test]
    fn scale_multiplies_every_entry() {
        let mut a = Matrix::from_vec(2, 2, vec![1.0, -2.0, 0.5, 0.0]);
        scale(&mut a, 2.0);
        assert_eq!(a.as_slice(), &[2.0, -4.0, 1.0, 0.0]);
    }
}
