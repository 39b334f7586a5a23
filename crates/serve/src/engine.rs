//! The query engine: answer node-classification requests by extracting
//! the k-hop receptive field of the batch straight from the mapped
//! adjacency and running it through the trainer's own kernel path.
//!
//! Bitwise parity with training is the core contract. The packed GEMM and
//! the CSR SpMM both produce output row `i` through an operation sequence
//! that depends only on the operand *row contents* — SpMM accumulates
//! per-row in ascending-entry order, the GEMM has one kernel whose
//! per-row order is a function of `(k, n)` alone, never of the row count.
//! K-hop node sets are kept sorted ascending, so the column remap in
//! [`KhopWorkspace::extract_sub_csr`] is monotone and
//! preserves entry order; every extracted row is therefore elementwise
//! identical to the corresponding full-graph row, and the served logits
//! come out bitwise equal to the trainer's forward on the same nodes.
//!
//! The extraction itself runs through two reuse layers:
//!
//! * a per-worker [`KhopWorkspace`] (merge-union + scatter-remap kernels
//!   with pooled, epoch-stamped tables), so a cold extraction allocates
//!   only the sets and blocks it returns;
//! * a shared [`ExtractionCache`] (enabled by default) holding whole
//!   [`Extraction`] blocks — node sets, sub-CSRs, and the layer-0
//!   aggregated feature block — plus per-node 1-hop slices. A warm batch
//!   skips the k-hop walk, the sub-CSR builds, the feature gather, *and*
//!   the layer-0 SpMM, entering the forward at
//!   [`forward_from_aggregated_ws`](plexus_gnn::Gcn::forward_from_aggregated_ws).
//!   Cached inputs are the same bits the cold path computes, and the
//!   remaining kernel calls are the same calls, so warm answers stay
//!   bitwise identical (asserted by `tests/serving.rs`).

use crate::artifact::{Artifact, ModelSnapshot};
use crate::cache::{CachedRows, Extraction, ExtractionCache, DEFAULT_EXTRACTION_CACHE_BYTES};
use plexus_graph::KhopWorkspace;
use plexus_sparse::{spmm_into, Csr};
use plexus_tensor::{KernelWorkspace, Matrix};
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

/// Per-worker inference state: one [`KernelWorkspace`] per layer plus a
/// pooled [`KhopWorkspace`], so packed-B panels, scratch matrices and the
/// extraction tables are all reused across batches — after a warmup batch
/// of each shape class, steady-state serving does no kernel allocations
/// and no weight repacking. Engines may additionally share an
/// [`ExtractionCache`]; [`QueryEngine::new`] gives each engine a private
/// one so caching is on by default.
pub struct QueryEngine {
    layer_ws: Vec<KernelWorkspace>,
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
    /// worker so hot query sets warm across the whole pool.
    pub fn with_cache(num_layers: usize, cache: Arc<ExtractionCache>) -> Self {
        assert!(num_layers > 0, "QueryEngine: need at least one layer");
        let cache = if cache.budget() == 0 { None } else { Some(cache) };
        QueryEngine {
            layer_ws: (0..num_layers).map(|_| KernelWorkspace::new()).collect(),
            khop: KhopWorkspace::new(),
            cache,
        }
    }

    /// An engine with extraction caching disabled — every batch runs the
    /// full cold path (benchmarks use this as the before side).
    pub fn without_cache(num_layers: usize) -> Self {
        Self::with_cache(num_layers, Arc::new(ExtractionCache::new(0)))
    }

    /// The shared extraction cache, if caching is enabled.
    pub fn cache(&self) -> Option<&Arc<ExtractionCache>> {
        self.cache.as_ref()
    }

    /// Total workspace allocation events across all layers — flat between
    /// two calls means the batch ran zero-alloc.
    pub fn alloc_events(&self) -> u64 {
        self.layer_ws.iter().map(|ws| ws.alloc_events()).sum()
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
        assert_eq!(
            self.layer_ws.len(),
            snap.gcn.config.num_layers,
            "QueryEngine depth does not match the model"
        );
        let layers = snap.gcn.config.num_layers;
        let mut top: Vec<u32> = nodes.to_vec();
        top.sort_unstable();
        top.dedup();
        let ext = match self.cache.as_ref().and_then(|c| c.lookup_block(snap.version, layers, &top))
        {
            Some(ext) => ext,
            None => {
                let ext = Arc::new(self.build_extraction(artifact, snap, top, layers));
                if let Some(cache) = &self.cache {
                    cache.insert_block(snap.version, layers, Arc::clone(&ext));
                }
                ext
            }
        };
        let logits = snap.gcn.forward_from_aggregated_ws(
            &mut self.layer_ws,
            &ext.subs,
            &ext.h0,
            snap.version,
        );
        let top = &ext.queries;
        let out = nodes
            .iter()
            .map(|&v| {
                let row = top.binary_search(&v).expect("query node present in its own k-hop set");
                let lrow = logits.row(row);
                Prediction {
                    node: v,
                    class: argmax(lrow),
                    model_version: snap.version,
                    logits: lrow.to_vec(),
                }
            })
            .collect();
        self.layer_ws[layers - 1].recycle(logits);
        out
    }

    /// The cold path: walk the receptive field, build the per-layer
    /// blocks, gather the innermost features and aggregate them through
    /// layer 0's sub-adjacency. Row fetches go through [`CachedRows`], so
    /// hot per-node 1-hop slices skip the mmap decode; queried nodes'
    /// slices are admitted for the next overlapping batch.
    fn build_extraction(
        &mut self,
        artifact: &Artifact,
        snap: &ModelSnapshot,
        top: Vec<u32>,
        layers: usize,
    ) -> Extraction {
        if let Some(cache) = &self.cache {
            // Admit the query nodes' own rows (their 1-hop slices): the
            // LRU stays scoped to *queried* nodes rather than flooding
            // with every expansion row of a hub's receptive field.
            let (mut cols, mut vals) = (Vec::new(), Vec::new());
            for &v in &top {
                if !cache.has_support(snap.version, v) {
                    cols.clear();
                    vals.clear();
                    plexus_graph::RowSource::row_entries(artifact, v, &mut cols, &mut vals);
                    cache.insert_support(snap.version, v, cols.clone(), vals.clone());
                }
            }
        }
        let rows = CachedRows {
            src: artifact,
            cache: self.cache.as_deref(),
            version: snap.version,
            candidates: &top,
        };
        let sets = self.khop.khop_node_sets(&rows, &top, layers);
        let subs: Vec<Csr> =
            (0..layers).map(|l| self.khop.extract_sub_csr(&rows, &sets[l + 1], &sets[l])).collect();
        // Gather the innermost hop's feature rows into pooled scratch and
        // aggregate through layer 0's block; the cache keeps `h0` (an
        // owned matrix) rather than the gathered features — it is smaller
        // whenever hidden ≤ input width and saves the widest SpMM too.
        let feat = &snap.features;
        let mut x0 = self.layer_ws[0].take_scratch(sets[0].len(), feat.cols());
        for (i, &v) in sets[0].iter().enumerate() {
            x0.row_mut(i).copy_from_slice(feat.row(v as usize));
        }
        let mut h0 = Matrix::zeros(subs[0].rows(), feat.cols());
        spmm_into(&subs[0], &x0, &mut h0);
        self.layer_ws[0].recycle(x0);
        Extraction { queries: top, sets, subs, h0 }
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
