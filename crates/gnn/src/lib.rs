//! GCN model and serial full-graph training — the reference implementation
//! every parallel engine in this workspace is validated against.
//!
//! The math follows §2.1 of the paper exactly:
//!
//! * forward per layer: `H = SpMM(A, F)` (eq. 2.1), `Q = SGEMM(H, W)`
//!   (eq. 2.2), `F' = σ(Q)` (eq. 2.3);
//! * backward per layer: eqs. 2.4–2.7, including `∂L/∂F = SpMM(Aᵀ, ∂L/∂H)`;
//! * the input features are **trainable** ("the gradient ∂L/∂F_L0 at the
//!   first layer is then used to update the input features and learn
//!   meaningful node embeddings") — so the optimizer carries state for
//!   features as well as weights, which is why the 3D engine shards them
//!   over the Z dimension;
//! * loss: masked softmax cross-entropy over training nodes (node
//!   classification, §2.1).
//!
//! The serial trainer here plays the role PyTorch Geometric plays in the
//! paper's Fig. 7 validation.

pub mod adam;
pub mod layer;
pub mod loss;
pub mod model;
pub mod trainer;

pub use adam::{Adam, AdamConfig};
pub use layer::{
    gcn_layer_backward, gcn_layer_backward_ws, gcn_layer_forward, gcn_layer_forward_ws, LayerCache,
    LayerGrads,
};
pub use loss::{accuracy, masked_cross_entropy, LossOutput};
pub use model::{Gcn, GcnConfig};
pub use trainer::{EpochStats, SerialTrainer, TrainConfig};
