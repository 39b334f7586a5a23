//! The serial full-graph trainer — this workspace's equivalent of the
//! PyTorch Geometric baseline the paper validates against (Fig. 7).
//!
//! Every epoch: forward over the whole graph, masked cross-entropy,
//! backward, Adam step on all weights *and* on the trainable input
//! features. No sampling, no mini-batching, no approximations.

use crate::adam::{Adam, AdamConfig};
use crate::loss::{accuracy, masked_cross_entropy};
use crate::model::{Gcn, GcnConfig};
use plexus_graph::LoadedDataset;
use plexus_sparse::Csr;
use plexus_tensor::{KernelWorkspace, Matrix};
use std::time::Instant;

/// Trainer hyperparameters.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    pub adam: AdamConfig,
    pub hidden_dim: usize,
    pub num_layers: usize,
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        Self { adam: AdamConfig::default(), hidden_dim: 128, num_layers: 3, seed: 0 }
    }
}

/// Per-epoch measurements.
#[derive(Clone, Copy, Debug)]
pub struct EpochStats {
    pub loss: f64,
    pub train_accuracy: f64,
    /// Wall time of the epoch in seconds.
    pub seconds: f64,
}

/// Serial full-graph GCN trainer.
pub struct SerialTrainer {
    pub model: Gcn,
    pub features: Matrix,
    adjacency: Csr,
    adjacency_t: Csr,
    labels: Vec<u32>,
    train_mask: Vec<bool>,
    weight_opts: Vec<Adam>,
    feature_opt: Adam,
    /// Reusable kernel buffers for the epoch loop; sized by the first
    /// epoch, allocation-free after.
    ws: KernelWorkspace,
}

impl SerialTrainer {
    /// Build from a loaded dataset. Model weights use `cfg.seed`; the
    /// dataset's features become the trainable input embedding.
    pub fn new(ds: &LoadedDataset, cfg: &TrainConfig) -> Self {
        let model = Gcn::new(GcnConfig {
            input_dim: ds.feature_dim(),
            hidden_dim: cfg.hidden_dim,
            num_classes: ds.num_classes,
            num_layers: cfg.num_layers,
            seed: cfg.seed,
        });
        Self::from_parts(
            model,
            ds.features.clone(),
            ds.adjacency.clone(),
            ds.labels.clone(),
            ds.split.train.clone(),
            cfg.adam,
        )
    }

    /// Assemble from explicit parts (used by equivalence tests that need
    /// full control over every input).
    pub fn from_parts(
        model: Gcn,
        features: Matrix,
        adjacency: Csr,
        labels: Vec<u32>,
        train_mask: Vec<bool>,
        adam: AdamConfig,
    ) -> Self {
        assert_eq!(adjacency.rows(), features.rows(), "trainer: A and F row mismatch");
        assert_eq!(labels.len(), features.rows(), "trainer: labels length mismatch");
        let adjacency_t = adjacency.transposed();
        let weight_opts =
            model.weights.iter().map(|w| Adam::new(w.rows(), w.cols(), adam)).collect();
        let feature_opt = Adam::new(features.rows(), features.cols(), adam);
        Self {
            model,
            features,
            adjacency,
            adjacency_t,
            labels,
            train_mask,
            weight_opts,
            feature_opt,
            ws: KernelWorkspace::new(),
        }
    }

    /// One full-graph training epoch. Returns loss/accuracy *before* the
    /// parameter update (the loss of the forward pass just computed).
    pub fn train_epoch(&mut self) -> EpochStats {
        let start = Instant::now();
        let fwd = self.model.forward_ws(&mut self.ws, &self.adjacency, &self.features);
        let loss_out = masked_cross_entropy(&fwd.logits, &self.labels, &self.train_mask);
        let train_accuracy = accuracy(&fwd.logits, &self.labels, &self.train_mask);
        let grads = self.model.backward_ws(&mut self.ws, &self.adjacency_t, &fwd, loss_out.dlogits);
        fwd.recycle_into(&mut self.ws);
        for ((w, opt), dw) in
            self.model.weights.iter_mut().zip(&mut self.weight_opts).zip(&grads.dweights)
        {
            opt.step(w, dw);
        }
        self.feature_opt.step(&mut self.features, &grads.dfeatures);
        grads.recycle_into(&mut self.ws);
        EpochStats { loss: loss_out.loss, train_accuracy, seconds: start.elapsed().as_secs_f64() }
    }

    /// Train for `epochs`, returning per-epoch stats.
    pub fn train(&mut self, epochs: usize) -> Vec<EpochStats> {
        (0..epochs).map(|_| self.train_epoch()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_graph::{DatasetKind, DatasetSpec, LoadedDataset};

    fn tiny_dataset() -> LoadedDataset {
        let spec = DatasetSpec {
            kind: DatasetKind::OgbnProducts,
            name: "tiny",
            nodes: 256,
            edges: 2048,
            nonzeros: 4352,
            features: 16,
            classes: 8,
        };
        LoadedDataset::generate(spec, 256, Some(16), 77)
    }

    #[test]
    fn loss_decreases_over_training() {
        let ds = tiny_dataset();
        let cfg = TrainConfig { hidden_dim: 16, ..Default::default() };
        let mut trainer = SerialTrainer::new(&ds, &cfg);
        let stats = trainer.train(30);
        let first = stats[0].loss;
        let last = stats.last().unwrap().loss;
        assert!(
            last < first * 0.7,
            "training did not converge: first {:.4}, last {:.4}",
            first,
            last
        );
    }

    #[test]
    fn accuracy_improves_over_training() {
        let ds = tiny_dataset();
        let cfg = TrainConfig { hidden_dim: 16, ..Default::default() };
        let mut trainer = SerialTrainer::new(&ds, &cfg);
        let stats = trainer.train(40);
        let final_acc = stats.last().unwrap().train_accuracy;
        assert!(final_acc > 0.4, "final train accuracy only {:.3}", final_acc);
    }

    #[test]
    fn training_is_deterministic() {
        let ds = tiny_dataset();
        let cfg = TrainConfig { hidden_dim: 8, ..Default::default() };
        let losses = |_: ()| {
            let mut t = SerialTrainer::new(&ds, &cfg);
            t.train(5).iter().map(|s| s.loss).collect::<Vec<_>>()
        };
        assert_eq!(losses(()), losses(()));
    }

    #[test]
    fn first_epoch_loss_is_near_log_c() {
        // With random init the initial loss should be ~ln(num_classes).
        let ds = tiny_dataset();
        let cfg = TrainConfig { hidden_dim: 16, ..Default::default() };
        let mut trainer = SerialTrainer::new(&ds, &cfg);
        let s = trainer.train_epoch();
        let lnc = (ds.num_classes as f64).ln();
        assert!(
            (s.loss - lnc).abs() < 1.0,
            "initial loss {:.3} far from ln(C) = {:.3}",
            s.loss,
            lnc
        );
    }
}
