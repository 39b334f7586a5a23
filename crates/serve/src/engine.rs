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
//! Queried rows are fetched through the shared [`ExtractionCache`], which
//! keeps each queried node's decoded 1-hop slice, so a hot node's row
//! skips the mmap decode.

use crate::artifact::{Artifact, ModelSnapshot};
use crate::cache::{CachedRows, ExtractionCache, DEFAULT_EXTRACTION_CACHE_BYTES};
use plexus_graph::KhopWorkspace;
use plexus_tensor::KernelWorkspace;
use std::sync::Arc;

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
/// repacking. Engines may additionally share an [`ExtractionCache`];
/// [`QueryEngine::new`] gives each engine a private one so caching is on
/// by default.
pub struct QueryEngine {
    num_layers: usize,
    ws: KernelWorkspace,
    khop: KhopWorkspace,
    cache: Option<Arc<ExtractionCache>>,
}

impl QueryEngine {
    /// A fresh engine for a `num_layers`-deep model, with a private
    /// extraction cache at the default byte budget.
    pub fn new(num_layers: usize) -> Self {
        Self::with_cache(num_layers, Arc::new(ExtractionCache::new(DEFAULT_EXTRACTION_CACHE_BYTES)))
    }

    /// An engine using `cache` — the server passes one cache to every
    /// worker so hot nodes' slices warm across the whole pool.
    pub fn with_cache(num_layers: usize, cache: Arc<ExtractionCache>) -> Self {
        let cache = if cache.budget() == 0 { None } else { Some(cache) };
        QueryEngine { num_layers, ws: KernelWorkspace::new(), khop: KhopWorkspace::new(), cache }
    }

    /// An engine with the slice cache disabled — every queried row is
    /// decoded from the mapped shards.
    pub fn without_cache(num_layers: usize) -> Self {
        Self::with_cache(num_layers, Arc::new(ExtractionCache::new(0)))
    }

    /// The shared extraction cache, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<ExtractionCache>> {
        self.cache.as_ref()
    }

    /// Workspace allocation events so far — flat between two calls means
    /// the batch ran zero-alloc.
    pub fn alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    /// Answer a batch of node-classification queries. Returns one
    /// [`Prediction`] per entry of `nodes`, in request order (duplicates
    /// allowed). Panics if a node id is out of range — the server front
    /// end validates ids before they reach the engine — or if the model's
    /// depth is not the engine's.
    pub fn predict_batch(
        &mut self,
        artifact: &Artifact,
        snap: &ModelSnapshot,
        nodes: &[u32],
    ) -> Vec<Prediction> {
        assert_eq!(
            self.num_layers, snap.gcn.config.num_layers,
            "QueryEngine depth does not match the model"
        );
        let mut top: Vec<u32> = nodes.to_vec();
        top.sort_unstable();
        top.dedup();
        let rows = CachedRows {
            src: artifact,
            cache: self.cache.as_deref(),
            version: snap.version,
            candidates: &top,
        };
        let support = self.khop.khop_node_sets(&rows, &top, 1).swap_remove(0);
        let a = self.khop.extract_sub_csr(&rows, &top, &support);
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
