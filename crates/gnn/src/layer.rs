//! A single GCN layer: forward (paper eqs. 2.1–2.3) and backward
//! (eqs. 2.4–2.7).
//!
//! The `_ws` variants thread a [`KernelWorkspace`] through every kernel
//! call, so a long-lived owner (the serial trainer) runs its epoch loop
//! without per-call allocations for kernel outputs; the plain functions
//! are convenience wrappers over a throwaway workspace.

use plexus_sparse::{spmm_into, Csr};
use plexus_tensor::ops::{relu_backward_inplace, relu_into};
use plexus_tensor::{gemm_ws, KernelWorkspace, Matrix, Trans};

/// Intermediates cached by the forward pass for use in the backward pass.
#[derive(Debug)]
pub struct LayerCache {
    /// Aggregation output `H = A · F` (needed by eq. 2.5).
    pub h: Matrix,
    /// Pre-activation `Q = H · W` (needed by eq. 2.4).
    pub q: Matrix,
    /// Whether σ was applied (the final layer emits raw logits).
    pub activated: bool,
}

/// Gradients produced by a layer's backward pass.
#[derive(Debug)]
pub struct LayerGrads {
    /// `∂L/∂W` (eq. 2.5).
    pub dw: Matrix,
    /// `∂L/∂F` (eq. 2.7) — the gradient flowing to the previous layer (or
    /// to the trainable input features).
    pub df: Matrix,
}

/// Forward pass of one GCN layer. Returns the layer output and the cache.
///
/// `activated == false` skips σ (used for the last layer, whose output
/// feeds softmax cross-entropy directly).
pub fn gcn_layer_forward(a: &Csr, f: &Matrix, w: &Matrix, activated: bool) -> (Matrix, LayerCache) {
    gcn_layer_forward_ws(&mut KernelWorkspace::new(), a, f, w, activated)
}

/// [`gcn_layer_forward`] with caller-owned kernel buffers: `h`, `q` and
/// the output all come from (and can be recycled back into) `ws`.
pub fn gcn_layer_forward_ws(
    ws: &mut KernelWorkspace,
    a: &Csr,
    f: &Matrix,
    w: &Matrix,
    activated: bool,
) -> (Matrix, LayerCache) {
    // (1) Aggregation: H = SpMM(A, F)                            [eq. 2.1]
    let mut h = ws.take_scratch(a.rows(), f.cols());
    spmm_into(a, f, &mut h);
    // (2) Combination: Q = SGEMM(H, W)                           [eq. 2.2]
    let mut q = ws.take_scratch(h.rows(), w.cols());
    gemm_ws(ws, &mut q, &h, Trans::N, w, Trans::N, 1.0, 0.0);
    // (3) Activation: F' = σ(Q)                                  [eq. 2.3]
    let mut out = ws.take_scratch(q.rows(), q.cols());
    if activated {
        relu_into(&q, &mut out);
    } else {
        out.as_mut_slice().copy_from_slice(q.as_slice());
    }
    (out, LayerCache { h, q, activated })
}

/// Backward pass of one GCN layer given `∂L/∂F'` (the gradient of the
/// layer's output). `a_t` is `Aᵀ` — passed in pre-transposed because the
/// trainers build it once, not per step.
pub fn gcn_layer_backward(a_t: &Csr, w: &Matrix, cache: &LayerCache, dout: Matrix) -> LayerGrads {
    gcn_layer_backward_ws(&mut KernelWorkspace::new(), a_t, w, cache, dout)
}

/// [`gcn_layer_backward`] with caller-owned kernel buffers. `dout` is
/// consumed and recycled; the cache is borrowed (the model recycles it
/// after the full backward sweep).
pub fn gcn_layer_backward_ws(
    ws: &mut KernelWorkspace,
    a_t: &Csr,
    w: &Matrix,
    cache: &LayerCache,
    mut dout: Matrix,
) -> LayerGrads {
    // (1) ∂L/∂Q = ∂L/∂F' ⊙ σ'(Q)                                 [eq. 2.4]
    if cache.activated {
        relu_backward_inplace(&mut dout, &cache.q);
    }
    let dq = dout;
    // (2) ∂L/∂W = SGEMM(Hᵀ, ∂L/∂Q)  [eq. 2.5] — the packed kernel routes
    // the transposed operand through panel packing; the distributed
    // engine's `GemmTuning::Reordered` arm is this same call.
    let mut dw = ws.take_scratch(w.rows(), w.cols());
    gemm_ws(ws, &mut dw, &cache.h, Trans::T, &dq, Trans::N, 1.0, 0.0);
    // (3) ∂L/∂H = SGEMM(∂L/∂Q, Wᵀ)                               [eq. 2.6]
    let mut dh = ws.take_scratch(cache.h.rows(), cache.h.cols());
    gemm_ws(ws, &mut dh, &dq, Trans::N, w, Trans::T, 1.0, 0.0);
    ws.recycle(dq);
    // (4) ∂L/∂F = SpMM(Aᵀ, ∂L/∂H)                                [eq. 2.7]
    let mut df = ws.take_scratch(a_t.rows(), dh.cols());
    spmm_into(a_t, &dh, &mut df);
    ws.recycle(dh);
    LayerGrads { dw, df }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sparse::normalized_adjacency;
    use plexus_tensor::{assert_close, uniform_matrix};

    fn tiny_setup() -> (Csr, Csr, Matrix, Matrix) {
        let a = normalized_adjacency(4, &[(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)]);
        let a_t = a.transposed();
        let f = uniform_matrix(4, 3, -1.0, 1.0, 1);
        let w = uniform_matrix(3, 2, -1.0, 1.0, 2);
        (a, a_t, f, w)
    }

    #[test]
    fn forward_shapes() {
        let (a, _, f, w) = tiny_setup();
        let (out, cache) = gcn_layer_forward(&a, &f, &w, true);
        assert_eq!(out.shape(), (4, 2));
        assert_eq!(cache.h.shape(), (4, 3));
        assert_eq!(cache.q.shape(), (4, 2));
    }

    #[test]
    fn unactivated_output_equals_preactivation() {
        let (a, _, f, w) = tiny_setup();
        let (out, cache) = gcn_layer_forward(&a, &f, &w, false);
        assert_close(&out, &cache.q, 0.0, "logits == Q");
    }

    #[test]
    fn activated_output_is_nonnegative() {
        let (a, _, f, w) = tiny_setup();
        let (out, _) = gcn_layer_forward(&a, &f, &w, true);
        assert!(out.as_slice().iter().all(|&x| x >= 0.0));
    }

    /// Finite-difference check of dW and dF through a single layer with a
    /// quadratic loss L = 0.5 * ||out||².
    #[test]
    fn gradients_match_finite_differences() {
        let (a, a_t, f, w) = tiny_setup();
        let loss_of = |f_: &Matrix, w_: &Matrix| -> f64 {
            let (out, _) = gcn_layer_forward(&a, f_, w_, true);
            0.5 * out.as_slice().iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>()
        };
        let (out, cache) = gcn_layer_forward(&a, &f, &w, true);
        // dL/dout = out for the quadratic loss.
        let grads = gcn_layer_backward(&a_t, &w, &cache, out.clone());

        let eps = 1e-3f32;
        // Check a sample of W entries.
        for &(i, j) in &[(0usize, 0usize), (1, 1), (2, 0)] {
            let mut wp = w.clone();
            wp[(i, j)] += eps;
            let mut wm = w.clone();
            wm[(i, j)] -= eps;
            let num = (loss_of(&f, &wp) - loss_of(&f, &wm)) / (2.0 * eps as f64);
            let ana = grads.dw[(i, j)] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * num.abs().max(1.0),
                "dW[{},{}] numeric {:.5} vs analytic {:.5}",
                i,
                j,
                num,
                ana
            );
        }
        // Check a sample of F entries.
        for &(i, j) in &[(0usize, 0usize), (3, 2), (2, 1)] {
            let mut fp = f.clone();
            fp[(i, j)] += eps;
            let mut fm = f.clone();
            fm[(i, j)] -= eps;
            let num = (loss_of(&fp, &w) - loss_of(&fm, &w)) / (2.0 * eps as f64);
            let ana = grads.df[(i, j)] as f64;
            assert!(
                (num - ana).abs() < 1e-2 * num.abs().max(1.0),
                "dF[{},{}] numeric {:.5} vs analytic {:.5}",
                i,
                j,
                num,
                ana
            );
        }
    }
}
