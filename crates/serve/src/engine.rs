//! The query engine: answer node-classification requests in one hop from
//! the snapshot's full-graph hidden layer `H^(L-1)`.
//!
//! The graph and the model a snapshot serves are frozen, so the first
//! `L - 1` layers are the same for every query; [`Artifact`] computes them
//! once per model version at load. A batch then runs only the last layer:
//! the sorted-unique queries' 1-hop support, one sub-CSR (rows = the
//! queries, cols = their support) extracted straight from the mapped
//! adjacency, the support's rows of `H^(L-1)` gathered, one SpMM and one
//! cached-B GEMM ([`Gcn::last_layer_forward_ws`](plexus_gnn::Gcn::last_layer_forward_ws)).
//!
//! Bitwise parity with training is the core contract. The packed GEMM and
//! the CSR SpMM both produce output row `i` through an operation sequence
//! that depends only on the operand *row contents* — SpMM accumulates
//! per-row in ascending-entry order, the GEMM has one kernel whose
//! per-row order is a function of `(k, n)` alone, never of the row count.
//! The support set is sorted ascending, so the column remap in
//! [`KhopWorkspace::extract_sub_csr`] is monotone and preserves entry
//! order; every extracted row is therefore elementwise identical to the
//! corresponding full-graph row, `H^(L-1)` is the trainer's own, and the
//! served logits come out bitwise equal to the trainer's forward on the
//! same nodes.
//!
//! The engine holds no per-model state: it runs the last layer of
//! whatever snapshot it is handed, so a hot reload may change the model's
//! depth under a running engine.

use crate::artifact::{Artifact, ModelSnapshot};
use plexus_graph::KhopWorkspace;
use plexus_tensor::KernelWorkspace;

/// One answered query.
#[derive(Clone, Debug)]
pub struct Prediction {
    pub node: u32,
    /// Argmax class (ties break to the lowest class id).
    pub class: u32,
    /// The model version that produced this answer.
    pub model_version: u64,
    /// Raw output-layer logits for the node.
    pub logits: Vec<f32>,
}

/// Per-worker inference state: one [`KernelWorkspace`] for the last layer
/// (the only one a query runs) plus a pooled [`KhopWorkspace`], so
/// packed-B panels, scratch matrices and the extraction tables are all
/// reused across batches — after a warmup batch of each shape class,
/// steady-state serving does no kernel allocations and no weight
/// repacking. Queried rows are decoded in place from the artifact's
/// mapped shards.
pub struct QueryEngine {
    ws: KernelWorkspace,
    khop: KhopWorkspace,
}

impl QueryEngine {
    /// A fresh engine. `_num_layers` is ignored: the engine serves a model
    /// of any depth.
    pub fn new(_num_layers: usize) -> Self {
        QueryEngine { ws: KernelWorkspace::new(), khop: KhopWorkspace::new() }
    }

    /// Alias of [`QueryEngine::new`]; the repo benchmark still calls it.
    /// Stays until the next benchmark-scoped change.
    pub fn without_cache(num_layers: usize) -> Self {
        Self::new(num_layers)
    }

    /// Workspace allocation events so far — flat between two calls means
    /// the batch ran zero-alloc.
    pub fn alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    /// Answer a batch of node-classification queries. Returns one
    /// [`Prediction`] per entry of `nodes`, in request order (duplicates
    /// allowed). Panics if a node id is out of range — the server front
    /// end validates ids before they reach the engine.
    pub fn predict_batch(
        &mut self,
        artifact: &Artifact,
        snap: &ModelSnapshot,
        nodes: &[u32],
    ) -> Vec<Prediction> {
        let mut top: Vec<u32> = nodes.to_vec();
        top.sort_unstable();
        top.dedup();
        let support = self.khop.khop_node_sets(artifact, &top, 1).swap_remove(0);
        let a = self.khop.extract_sub_csr(artifact, &top, &support);
        let hidden = &snap.hidden;
        let mut x = self.ws.take_scratch(support.len(), hidden.cols());
        for (i, &v) in support.iter().enumerate() {
            x.row_mut(i).copy_from_slice(hidden.row(v as usize));
        }
        let logits = snap.gcn.last_layer_forward_ws(&mut self.ws, &a, &x, snap.version);
        self.ws.recycle(x);
        let out = nodes
            .iter()
            .map(|&v| {
                let row = top.binary_search(&v).expect("query node present in its own batch");
                let lrow = logits.row(row);
                Prediction {
                    node: v,
                    class: argmax(lrow),
                    model_version: snap.version,
                    logits: lrow.to_vec(),
                }
            })
            .collect();
        self.ws.recycle(logits);
        out
    }
}

/// Index of the largest logit; ties break to the lowest index, matching
/// the trainer's accuracy accounting.
pub fn argmax(row: &[f32]) -> u32 {
    let mut best = 0;
    for (i, &x) in row.iter().enumerate() {
        if x > row[best] {
            best = i;
        }
    }
    best as u32
}
