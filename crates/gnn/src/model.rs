//! The multi-layer GCN used throughout the evaluation: "a GNN with three
//! GCN layers and a hidden dimension of 128" (paper §6.2). The layer count
//! and dimensions are configurable; the last layer emits raw logits.

use crate::layer::{gcn_layer_backward_ws, gcn_layer_forward_ws, LayerCache};
use plexus_sparse::{spmm_into, Csr};
use plexus_tensor::{gemm_nn_cached_b, glorot_uniform, KernelWorkspace, Matrix};

/// Model hyperparameters.
#[derive(Clone, Debug)]
pub struct GcnConfig {
    pub input_dim: usize,
    pub hidden_dim: usize,
    pub num_classes: usize,
    pub num_layers: usize,
    pub seed: u64,
}

impl GcnConfig {
    /// Per-layer (in, out) dimensions.
    pub fn layer_dims(&self) -> Vec<(usize, usize)> {
        assert!(self.num_layers >= 1, "GcnConfig: need at least one layer");
        (0..self.num_layers)
            .map(|l| {
                let din = if l == 0 { self.input_dim } else { self.hidden_dim };
                let dout =
                    if l + 1 == self.num_layers { self.num_classes } else { self.hidden_dim };
                (din, dout)
            })
            .collect()
    }
}

/// A GCN: weight matrices plus the forward/backward orchestration.
pub struct Gcn {
    pub config: GcnConfig,
    pub weights: Vec<Matrix>,
}

/// Caches from a full forward pass (one per layer).
pub struct ForwardCaches {
    pub caches: Vec<LayerCache>,
    pub logits: Matrix,
}

/// All gradients from a full backward pass.
pub struct Gradients {
    pub dweights: Vec<Matrix>,
    /// Gradient of the trainable input features.
    pub dfeatures: Matrix,
}

impl Gcn {
    /// Glorot-initialized model; layer `l` uses seed `config.seed + l` so
    /// serial and distributed trainers initialize bit-identically.
    pub fn new(config: GcnConfig) -> Self {
        let weights = config
            .layer_dims()
            .iter()
            .enumerate()
            .map(|(l, &(din, dout))| glorot_uniform(din, dout, config.seed + l as u64))
            .collect();
        Self { config, weights }
    }

    /// Wrap externally provided (frozen) weights — e.g. decoded from a
    /// serving artifact — without touching an RNG. Shapes are validated
    /// against `config.layer_dims()`.
    pub fn from_parts(config: GcnConfig, weights: Vec<Matrix>) -> Self {
        let dims = config.layer_dims();
        assert_eq!(dims.len(), weights.len(), "Gcn::from_parts: layer count mismatch");
        for (l, (w, &(din, dout))) in weights.iter().zip(&dims).enumerate() {
            assert_eq!(w.shape(), (din, dout), "Gcn::from_parts: layer {l} weight shape mismatch");
        }
        Self { config, weights }
    }

    /// Full forward pass over the (normalized) adjacency.
    pub fn forward(&self, a: &Csr, features: &Matrix) -> ForwardCaches {
        self.forward_ws(&mut KernelWorkspace::new(), a, features)
    }

    /// The last layer alone, for serving: `Â_sub · X · W_{L-1}`, no
    /// activation. `a` is a sub-adjacency (rows = the queried nodes, cols =
    /// their 1-hop support) and `x` holds the support's rows of the last
    /// layer's full-graph input `H^(L-1)`. Returns the logits, one row per
    /// row of `a`, from `ws`'s pool.
    ///
    /// The packed weight panels stay cached in `ws` under
    /// `weights_version`, so at steady state a call allocates nothing and
    /// repacks nothing. Every row of the result is bitwise identical to the
    /// same node's row under [`Gcn::forward`]: SpMM accumulates each row in
    /// ascending-entry order (which a monotone column remap preserves), and
    /// the GEMM's per-row operation sequence depends only on `(k, n)`.
    pub fn last_layer_forward_ws(
        &self,
        ws: &mut KernelWorkspace,
        a: &Csr,
        x: &Matrix,
        weights_version: u64,
    ) -> Matrix {
        let w = self.weights.last().expect("a GCN has at least one layer");
        assert_eq!(a.cols(), x.rows(), "last_layer_forward_ws: support row mismatch");
        let mut h = ws.take_scratch(a.rows(), x.cols());
        spmm_into(a, x, &mut h);
        let mut q = ws.take_scratch(h.rows(), w.cols());
        gemm_nn_cached_b(ws, &mut q, &h, w, weights_version, 1.0, 0.0);
        ws.recycle(h);
        q
    }

    /// [`Gcn::forward`] with caller-owned kernel buffers: every layer's
    /// `H`, `Q` and activation come from `ws`, and each consumed
    /// intermediate activation is recycled immediately.
    pub fn forward_ws(
        &self,
        ws: &mut KernelWorkspace,
        a: &Csr,
        features: &Matrix,
    ) -> ForwardCaches {
        let num_layers = self.weights.len();
        let mut caches = Vec::with_capacity(num_layers);
        let mut x = ws.take_scratch(features.rows(), features.cols());
        x.as_mut_slice().copy_from_slice(features.as_slice());
        for (l, w) in self.weights.iter().enumerate() {
            let activated = l + 1 < num_layers;
            let (out, cache) = gcn_layer_forward_ws(ws, a, &x, w, activated);
            caches.push(cache);
            ws.recycle(std::mem::replace(&mut x, out));
        }
        ForwardCaches { caches, logits: x }
    }

    /// Full backward pass given `∂L/∂logits`.
    pub fn backward(&self, a_t: &Csr, caches: &ForwardCaches, dlogits: Matrix) -> Gradients {
        self.backward_ws(&mut KernelWorkspace::new(), a_t, caches, dlogits)
    }

    /// [`Gcn::backward`] with caller-owned kernel buffers. Borrows the
    /// caches (the trainer recycles the whole [`ForwardCaches`] afterwards
    /// via [`ForwardCaches::recycle_into`]).
    pub fn backward_ws(
        &self,
        ws: &mut KernelWorkspace,
        a_t: &Csr,
        caches: &ForwardCaches,
        dlogits: Matrix,
    ) -> Gradients {
        let mut dweights = vec![Matrix::zeros(1, 1); self.weights.len()];
        let mut dout = dlogits;
        for l in (0..self.weights.len()).rev() {
            let grads = gcn_layer_backward_ws(ws, a_t, &self.weights[l], &caches.caches[l], dout);
            dweights[l] = grads.dw;
            dout = grads.df;
        }
        Gradients { dweights, dfeatures: dout }
    }
}

impl ForwardCaches {
    /// Return every cached buffer (per-layer `H`/`Q` and the logits) to a
    /// workspace pool once the backward pass is done with them.
    pub fn recycle_into(self, ws: &mut KernelWorkspace) {
        for cache in self.caches {
            ws.recycle(cache.h);
            ws.recycle(cache.q);
        }
        ws.recycle(self.logits);
    }
}

impl Gradients {
    /// Return every gradient buffer to a workspace pool after the
    /// optimizer step has consumed the values.
    pub fn recycle_into(self, ws: &mut KernelWorkspace) {
        for dw in self.dweights {
            ws.recycle(dw);
        }
        ws.recycle(self.dfeatures);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sparse::normalized_adjacency;
    use plexus_tensor::uniform_matrix;

    fn setup() -> (Csr, Csr, Matrix, Gcn) {
        let a = normalized_adjacency(
            6,
            &[(0, 1), (1, 0), (1, 2), (2, 1), (3, 4), (4, 3), (4, 5), (5, 4)],
        );
        let a_t = a.transposed();
        let f = uniform_matrix(6, 5, -1.0, 1.0, 10);
        let gcn = Gcn::new(GcnConfig {
            input_dim: 5,
            hidden_dim: 7,
            num_classes: 3,
            num_layers: 3,
            seed: 42,
        });
        (a, a_t, f, gcn)
    }

    #[test]
    fn layer_dims_chain_correctly() {
        let cfg =
            GcnConfig { input_dim: 10, hidden_dim: 8, num_classes: 4, num_layers: 3, seed: 0 };
        assert_eq!(cfg.layer_dims(), vec![(10, 8), (8, 8), (8, 4)]);
        let one = GcnConfig { num_layers: 1, ..cfg };
        assert_eq!(one.layer_dims(), vec![(10, 4)]);
    }

    #[test]
    fn forward_produces_logit_shape() {
        let (a, _, f, gcn) = setup();
        let fwd = gcn.forward(&a, &f);
        assert_eq!(fwd.logits.shape(), (6, 3));
        assert_eq!(fwd.caches.len(), 3);
        // Last layer unactivated, inner layers activated.
        assert!(!fwd.caches[2].activated);
        assert!(fwd.caches[0].activated && fwd.caches[1].activated);
    }

    #[test]
    fn backward_produces_all_gradients() {
        let (a, a_t, f, gcn) = setup();
        let fwd = gcn.forward(&a, &f);
        let dlogits = Matrix::full(6, 3, 0.1);
        let grads = gcn.backward(&a_t, &fwd, dlogits);
        assert_eq!(grads.dweights.len(), 3);
        for (l, (dw, w)) in grads.dweights.iter().zip(&gcn.weights).enumerate() {
            assert_eq!(dw.shape(), w.shape(), "layer {} dW shape", l);
        }
        assert_eq!(grads.dfeatures.shape(), f.shape());
    }

    #[test]
    fn end_to_end_gradcheck_through_three_layers() {
        let (a, a_t, f, gcn) = setup();
        let loss_of = |f_: &Matrix, gcn_: &Gcn| -> f64 {
            let fwd = gcn_.forward(&a, f_);
            0.5 * fwd.logits.as_slice().iter().map(|&x| (x as f64).powi(2)).sum::<f64>()
        };
        let fwd = gcn.forward(&a, &f);
        let grads = gcn.backward(&a_t, &fwd, fwd.logits.clone());
        let eps = 1e-2f32;
        // Feature gradient through all three layers.
        for &(i, j) in &[(0usize, 0usize), (5, 4), (3, 2)] {
            let mut fp = f.clone();
            fp[(i, j)] += eps;
            let mut fm = f.clone();
            fm[(i, j)] -= eps;
            let num = (loss_of(&fp, &gcn) - loss_of(&fm, &gcn)) / (2.0 * eps as f64);
            let ana = grads.dfeatures[(i, j)] as f64;
            assert!(
                (num - ana).abs() < 0.05 * num.abs().max(0.5),
                "dF[{},{}] numeric {:.4} vs analytic {:.4}",
                i,
                j,
                num,
                ana
            );
        }
        // First-layer weight gradient (flows through layers 1 and 2).
        let mut gcn2 = Gcn::new(gcn.config.clone());
        for &(i, j) in &[(0usize, 0usize), (4, 6)] {
            let orig = gcn2.weights[0][(i, j)];
            gcn2.weights[0][(i, j)] = orig + eps;
            let fp = loss_of(&f, &gcn2);
            gcn2.weights[0][(i, j)] = orig - eps;
            let fm = loss_of(&f, &gcn2);
            gcn2.weights[0][(i, j)] = orig;
            let num = (fp - fm) / (2.0 * eps as f64);
            let ana = grads.dweights[0][(i, j)] as f64;
            assert!(
                (num - ana).abs() < 0.05 * num.abs().max(0.5),
                "dW0[{},{}] numeric {:.4} vs analytic {:.4}",
                i,
                j,
                num,
                ana
            );
        }
    }

    #[test]
    fn same_seed_same_weights() {
        let (_, _, _, gcn) = setup();
        let gcn2 = Gcn::new(gcn.config.clone());
        for (w1, w2) in gcn.weights.iter().zip(&gcn2.weights) {
            assert_eq!(w1, w2);
        }
    }
}
