//! Problem preprocessing: padding, the §5.1 permutation schemes, and
//! per-rank shard extraction — from RAM or from a §5.4 [`ShardStore`].
//!
//! All preprocessing is deterministic and happens once per (dataset, grid)
//! pair. The in-memory path materializes a [`GlobalProblem`] and every
//! rank slices it; the out-of-core path opens a preprocessed store and
//! each rank decodes only the shard files its window intersects
//! ([`RankData::load_from_store`]), with a [`MemoryLedger`] recording the
//! resulting footprint. Both paths produce bitwise-identical [`RankData`].
//!
//! Both paths hold one adjacency operand, the even layers' `P_r Â P_cᵀ`:
//! Â is symmetric (both entry points assert it), so the odd layers'
//! `P_c Â P_rᵀ` is its transpose, read through mirrored windows.

use crate::grid::{roles_for_layer, GridConfig, GridCoords};
use crate::loader::{LoaderError, LoaderResult, MemoryLedger, ShardStore};
use plexus_gnn::{Gcn, GcnConfig};
use plexus_graph::LoadedDataset;
use plexus_sparse::permute::{inverse_permutation, permuted_row_band, random_permutation};
use plexus_sparse::Csr;
use plexus_tensor::Matrix;
use rayon::prelude::*;

/// Which §5.1 scheme to apply.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PermutationMode {
    /// Original node order (the "Original" row of Table 3).
    None,
    /// One shared permutation applied to rows and columns (`P A Pᵀ`).
    Single,
    /// Distinct row/column permutations (`P_r A P_cᵀ` / `P_c A P_rᵀ`),
    /// alternating every layer — the paper's contribution.
    Double,
}

/// The §5.1 row/column permutations for `mode` over `n` real nodes. Both
/// the in-memory builder and the offline store writer derive them from
/// here, which is what makes the two ingest paths bitwise comparable.
pub fn build_permutations(mode: PermutationMode, perm_seed: u64, n: usize) -> (Vec<u32>, Vec<u32>) {
    match mode {
        PermutationMode::None => {
            let id: Vec<u32> = (0..n as u32).collect();
            (id.clone(), id)
        }
        PermutationMode::Single => {
            let p = random_permutation(n, perm_seed);
            (p.clone(), p)
        }
        PermutationMode::Double => (
            random_permutation(n, perm_seed),
            random_permutation(n, perm_seed.wrapping_add(0x9e3779b97f4a7c15)),
        ),
    }
}

/// Labels and train mask in the final layer's output order, padded to
/// `meta.n_pad` rows (padding rows masked out): node `i` lands on row
/// `P_r[i]` after an even last layer and `P_c[i]` after an odd one.
fn final_order_labels(
    meta: &ProblemMeta,
    (pr, pc): &(Vec<u32>, Vec<u32>),
    labels: &[u32],
    mask: &[bool],
) -> (Vec<u32>, Vec<bool>) {
    let final_perm = if (meta.num_layers - 1).is_multiple_of(2) { pr } else { pc };
    let mut labels_final = vec![0u32; meta.n_pad];
    let mut mask_final = vec![false; meta.n_pad];
    for i in 0..meta.n_real {
        let dst = final_perm[i] as usize;
        labels_final[dst] = labels[i];
        mask_final[dst] = mask[i];
    }
    (labels_final, mask_final)
}

/// Round `n` up to a multiple of `m`.
pub fn pad_to_multiple(n: usize, m: usize) -> usize {
    n.div_ceil(m) * m
}

/// Shape-and-size metadata shared by every ingest path: everything a rank
/// needs to know about the problem that is *not* bulk data.
#[derive(Clone, Debug)]
pub struct ProblemMeta {
    pub grid: GridConfig,
    pub num_layers: usize,
    pub hidden_dim: usize,
    /// Real node count and padded node count (multiple of Gx·Gy·Gz).
    pub n_real: usize,
    pub n_pad: usize,
    /// Per-boundary feature dims, real and padded: `dims[0]` is the input
    /// dim, `dims[L]` the class count.
    pub dims_real: Vec<usize>,
    pub dims_pad: Vec<usize>,
    pub num_classes_real: usize,
    pub total_train: usize,
}

impl ProblemMeta {
    /// Derive all padded shapes from the raw problem dimensions.
    pub fn derive(
        n_real: usize,
        input_dim: usize,
        num_classes: usize,
        total_train: usize,
        grid: GridConfig,
        hidden_dim: usize,
        num_layers: usize,
    ) -> Self {
        let n_pad = pad_to_multiple(n_real, lcm3(grid));
        let cfg = GcnConfig { input_dim, hidden_dim, num_classes, num_layers, seed: 0 };
        let mut dims_real = vec![cfg.input_dim];
        for (_, dout) in cfg.layer_dims() {
            dims_real.push(dout);
        }
        let pad_unit = lcm3(grid);
        let dims_pad: Vec<usize> =
            dims_real.iter().map(|&d| pad_to_multiple(d, pad_unit)).collect();
        Self {
            grid,
            num_layers,
            hidden_dim,
            n_real,
            n_pad,
            dims_real,
            dims_pad,
            num_classes_real: num_classes,
            total_train,
        }
    }

    /// Metadata for training out of a preprocessed store.
    pub fn from_store(
        store: &ShardStore,
        grid: GridConfig,
        hidden_dim: usize,
        num_layers: usize,
    ) -> Self {
        Self::derive(
            store.rows,
            store.feat_dim,
            store.num_classes,
            store.total_train,
            grid,
            hidden_dim,
            num_layers,
        )
    }

    /// Per-layer `(rows-axis size, contract-axis size)` of the adjacency
    /// shard grid — the splits behind the §5.4 per-rank memory estimate.
    pub fn layer_splits(&self) -> Vec<(usize, usize)> {
        (0..self.num_layers)
            .map(|l| {
                let roles = roles_for_layer(l);
                (self.grid.dim(roles.rows), self.grid.dim(roles.contract))
            })
            .collect()
    }

    /// Per-layer `(rows, contract, feat)` axis sizes — the full role
    /// assignment behind the per-rank *activation* estimate
    /// ([`plexus_simnet::estimate_rank_activation_bytes`]).
    pub fn layer_axis_splits(&self) -> Vec<(usize, usize, usize)> {
        (0..self.num_layers)
            .map(|l| {
                let roles = roles_for_layer(l);
                (
                    self.grid.dim(roles.rows),
                    self.grid.dim(roles.contract),
                    self.grid.dim(roles.feat),
                )
            })
            .collect()
    }

    /// The model's full padded weight matrices, identical to the serial
    /// model's weights (seed `model_seed`) up to zero padding.
    pub fn full_padded_weights(&self, model_seed: u64) -> Vec<Matrix> {
        let cfg = GcnConfig {
            input_dim: self.dims_real[0],
            hidden_dim: self.hidden_dim,
            num_classes: self.num_classes_real,
            num_layers: self.num_layers,
            seed: model_seed,
        };
        Gcn::new(cfg)
            .weights
            .iter()
            .enumerate()
            .map(|(l, w)| w.zero_padded(self.dims_pad[l], self.dims_pad[l + 1]))
            .collect()
    }
}

/// The fully preprocessed problem, shared read-only across rank threads
/// (the in-memory ingest path).
pub struct GlobalProblem {
    pub meta: ProblemMeta,
    /// Adjacency used by even layers (`P_r Â P_cᵀ`, zero-padded). Odd
    /// layers read its mirrored windows.
    pub a_even: Csr,
    /// Input features in even-layer input order (`P_c` applied), padded.
    pub features_perm: Matrix,
    /// Labels/mask in the *final layer output* order, padded (padding rows
    /// masked out).
    pub labels_final: Vec<u32>,
    pub train_mask_final: Vec<bool>,
    /// Full (padded) weight matrices, identical to the serial model's
    /// weights up to zero padding.
    pub weights_full: Vec<Matrix>,
}

impl GlobalProblem {
    /// Preprocess `ds` for `grid`. `model_seed` must match the serial
    /// baseline's seed for bit-compatible initialization; `perm_seed` seeds
    /// the permutations.
    pub fn build(
        ds: &LoadedDataset,
        grid: GridConfig,
        hidden_dim: usize,
        num_layers: usize,
        model_seed: u64,
        mode: PermutationMode,
        perm_seed: u64,
    ) -> Self {
        assert!(ds.adjacency.transposed() == ds.adjacency, "GlobalProblem: Â must be symmetric");
        let n_real = ds.num_nodes();
        let total_train = ds.split.num_train();
        let meta = ProblemMeta::derive(
            n_real,
            ds.feature_dim(),
            ds.num_classes,
            total_train,
            grid,
            hidden_dim,
            num_layers,
        );
        let n_pad = meta.n_pad;

        // Permutations over the real nodes; padding rows stay at the end.
        let perms = build_permutations(mode, perm_seed, n_real);
        let (pr, pc) = &perms;

        // The even-layer operand, padded; odd layers read it mirrored. Both
        // ingest paths permute Â with the store writer's band routine.
        let inv_pr = inverse_permutation(pr);
        let a_even =
            permuted_row_band(&ds.adjacency, &inv_pr, pc, 0, n_real).zero_padded(n_pad, n_pad);

        // Weights: identical to the serial model, zero-padded.
        let weights_full = meta.full_padded_weights(model_seed);

        // Input features: row-permute by P_c (even-layer input order), pad.
        let inv_pc = inverse_permutation(pc);
        let perm_rows: Vec<usize> = inv_pc.iter().map(|&i| i as usize).collect();
        let features_perm =
            ds.features.gather_rows(&perm_rows).zero_padded(n_pad, meta.dims_pad[0]);

        let (labels_final, train_mask_final) =
            final_order_labels(&meta, &perms, &ds.labels, &ds.split.train);
        assert!(total_train > 0, "GlobalProblem: no training nodes");

        Self { meta, a_even, features_perm, labels_final, train_mask_final, weights_full }
    }
}

/// Padding unit: every axis split and every two-axis sub-split must be
/// integral, which `Gx·Gy·Gz` guarantees.
fn lcm3(grid: GridConfig) -> usize {
    grid.gx * grid.gy * grid.gz
}

/// The adjacency window (padded coordinates) rank `c` owns at layer `l`.
fn layer_window(meta: &ProblemMeta, c: GridCoords, l: usize) -> (usize, usize, usize, usize) {
    let roles = roles_for_layer(l);
    let grid = meta.grid;
    let np = meta.n_pad;
    let wr = np / grid.dim(roles.rows);
    let wc = np / grid.dim(roles.contract);
    let r0 = c.along(roles.rows) * wr;
    let c0 = c.along(roles.contract) * wc;
    (r0, wr, c0, wc)
}

/// The window of the even operand that layer `l` reads on rank `c`. An odd
/// layer's window `[r0, r0+wr) × [c0, c0+wc)` of `P_c Â P_rᵀ` is the
/// transpose of the even operand's `[c0, c0+wc) × [r0, r0+wr)`.
fn even_window(meta: &ProblemMeta, c: GridCoords, l: usize) -> (usize, usize, usize, usize) {
    let (r0, wr, c0, wc) = layer_window(meta, c, l);
    if l.is_multiple_of(2) {
        (r0, wr, c0, wc)
    } else {
        (c0, wc, r0, wr)
    }
}

/// Layer `l`'s `(shard, transpose)` from its [`even_window`] block: the
/// shard on an even layer, the transpose on an odd one.
fn orient(l: usize, block: Csr) -> (Csr, Csr) {
    let transposed = block.transposed();
    if l.is_multiple_of(2) {
        (block, transposed)
    } else {
        (transposed, block)
    }
}

/// The stored-feature block (padded coordinates) rank `c` owns.
fn feature_window(meta: &ProblemMeta, c: GridCoords) -> (usize, usize, usize, usize) {
    let roles0 = roles_for_layer(0);
    let grid = meta.grid;
    let crows = meta.n_pad / grid.dim(roles0.contract);
    let subrows = crows / grid.dim(roles0.rows);
    let fr0 = c.along(roles0.contract) * crows + c.along(roles0.rows) * subrows;
    let fcols = meta.dims_pad[0] / grid.dim(roles0.feat);
    let fc0 = c.along(roles0.feat) * fcols;
    (fr0, subrows, fc0, fcols)
}

/// The final-logits label rows rank `c` owns.
fn label_window(meta: &ProblemMeta, c: GridCoords) -> (usize, usize) {
    let roles_last = roles_for_layer(meta.num_layers - 1);
    let lrows = meta.n_pad / meta.grid.dim(roles_last.rows);
    (c.along(roles_last.rows) * lrows, lrows)
}

/// Slice rank `c`'s stored weight shards out of the full padded matrices.
fn weight_shards(meta: &ProblemMeta, weights_full: &[Matrix], c: GridCoords) -> Vec<Matrix> {
    let grid = meta.grid;
    (0..meta.num_layers)
        .map(|l| {
            let roles = roles_for_layer(l);
            let din = meta.dims_pad[l];
            let dout = meta.dims_pad[l + 1];
            let krows = din / grid.dim(roles.feat);
            let sub = krows / grid.dim(roles.rows);
            let wr0 = c.along(roles.feat) * krows + c.along(roles.rows) * sub;
            let wcols = dout / grid.dim(roles.contract);
            let wc0 = c.along(roles.contract) * wcols;
            weights_full[l].block(wr0, wr0 + sub, wc0, wc0 + wcols)
        })
        .collect()
}

/// The shards one rank owns.
pub struct RankData {
    /// Per-layer adjacency shard and its transpose (for eq. 2.7).
    pub a_shards: Vec<Csr>,
    pub a_shards_t: Vec<Csr>,
    /// Stored input-feature shard (rows over C₀ then sub-sharded over R₀,
    /// cols over K₀).
    pub f_stored: Matrix,
    /// Per-layer stored weight shard (rows over K_l sub-sharded over R_l,
    /// cols over C_l).
    pub w_stored: Vec<Matrix>,
    /// This rank's slice of labels/mask (rows of the final logits block).
    pub labels_local: Vec<u32>,
    pub mask_local: Vec<bool>,
}

impl RankData {
    /// Extract everything rank `rank` owns from the global problem.
    pub fn extract(gp: &GlobalProblem, rank: usize) -> Self {
        let meta = &gp.meta;
        let c = meta.grid.coords(rank);

        let mut a_shards = Vec::with_capacity(meta.num_layers);
        let mut a_shards_t = Vec::with_capacity(meta.num_layers);
        for l in 0..meta.num_layers {
            let (r0, wr, c0, wc) = even_window(meta, c, l);
            let (shard, shard_t) = orient(l, gp.a_even.block(r0, r0 + wr, c0, c0 + wc));
            a_shards.push(shard);
            a_shards_t.push(shard_t);
        }

        // F₀ stored shard.
        let (fr0, subrows, fc0, fcols) = feature_window(meta, c);
        let f_stored = gp.features_perm.block(fr0, fr0 + subrows, fc0, fc0 + fcols);

        // W_l stored shards.
        let w_stored = weight_shards(meta, &gp.weights_full, c);

        // Labels/mask slice: final logits rows are split over the last
        // layer's rows axis.
        let (l0, lrows) = label_window(meta, c);
        let labels_local = gp.labels_final[l0..l0 + lrows].to_vec();
        let mask_local = gp.train_mask_final[l0..l0 + lrows].to_vec();

        Self { a_shards, a_shards_t, f_stored, w_stored, labels_local, mask_local }
    }

    /// Load everything rank `rank` owns straight from a preprocessed
    /// [`ShardStore`], decoding only the shard files its windows intersect
    /// (the §5.4 parallel loader). Layer windows are loaded in parallel
    /// on the persistent worker pool (a per-layer task costs a deque push,
    /// not a thread spawn). Returns the rank data — bitwise identical to
    /// [`RankData::extract`] on the equivalent [`GlobalProblem`] — plus a
    /// [`MemoryLedger`] of the bytes touched and resident.
    pub fn load_from_store(
        store: &ShardStore,
        meta: &ProblemMeta,
        rank: usize,
        model_seed: u64,
    ) -> LoaderResult<(Self, MemoryLedger)> {
        let c = meta.grid.coords(rank);
        let n = meta.n_real;
        let mut ledger = MemoryLedger::default();

        // Adjacency windows, one per layer, extracted in parallel.
        type LayerLoad = LoaderResult<(Csr, Csr, crate::loader::LoadStats)>;
        let mut slots: Vec<Option<LayerLoad>> = (0..meta.num_layers).map(|_| None).collect();
        slots.as_mut_slice().par_chunks_mut(1).enumerate().for_each(|(l, slot)| {
            slot[0] = Some(load_layer_shard(store, meta, c, l));
        });
        let mut a_shards = Vec::with_capacity(meta.num_layers);
        let mut a_shards_t = Vec::with_capacity(meta.num_layers);
        for slot in slots {
            let (shard, shard_t, stats) = slot.expect("parallel load filled every slot")?;
            ledger.absorb(&stats);
            ledger.note_adjacency_resident(shard.mem_bytes() + shard_t.mem_bytes());
            a_shards.push(shard);
            a_shards_t.push(shard_t);
        }

        // F₀ stored shard: clamp the padded window to stored (real) rows
        // and columns, then zero-pad back to the padded shape.
        let (fr0, subrows, fc0, fcols) = feature_window(meta, c);
        let d0 = meta.dims_real[0];
        let (band, fstats) = if fr0 < n {
            store.load_feature_rows(fr0, (fr0 + subrows).min(n))?
        } else {
            (Matrix::zeros(0, d0), crate::loader::LoadStats::default())
        };
        ledger.absorb(&fstats);
        ledger.note_feature_transient(band.mem_bytes());
        let f_stored = if fc0 < d0 {
            band.block(0, band.rows(), fc0, (fc0 + fcols).min(d0)).zero_padded(subrows, fcols)
        } else {
            Matrix::zeros(subrows, fcols)
        };
        ledger.note_feature_resident(f_stored.mem_bytes());

        // Weights are generated, not loaded: same seed, same bits.
        let weights_full = meta.full_padded_weights(model_seed);
        let w_stored = weight_shards(meta, &weights_full, c);

        // Labels/mask: stored in node order, put in the final layer's
        // output order with the store's own permutations, then sliced.
        let Some(mode) = store.perm_mode else {
            return Err(LoaderError::Missing { what: "labels (raw store)" });
        };
        let (labels_all, mask_all, lstats) = store.load_labels()?;
        if labels_all.len() != n {
            return Err(LoaderError::BadManifest {
                reason: format!("label file has {} rows, store has {}", labels_all.len(), n),
            });
        }
        ledger.absorb(&lstats);
        let perms = build_permutations(mode, store.perm_seed, n);
        let (labels_final, mask_final) = final_order_labels(meta, &perms, &labels_all, &mask_all);
        let (l0, lrows) = label_window(meta, c);
        let labels_local = labels_final[l0..l0 + lrows].to_vec();
        let mask_local = mask_final[l0..l0 + lrows].to_vec();

        Ok((Self { a_shards, a_shards_t, f_stored, w_stored, labels_local, mask_local }, ledger))
    }
}

/// Load one layer's adjacency shard (and transpose) from the store: its
/// [`even_window`], clamped to stored coordinates and padded back, then
/// [`orient`]ed.
fn load_layer_shard(
    store: &ShardStore,
    meta: &ProblemMeta,
    c: GridCoords,
    l: usize,
) -> LoaderResult<(Csr, Csr, crate::loader::LoadStats)> {
    let n = meta.n_real;
    let (r0, wr, c0, wc) = even_window(meta, c, l);
    let (raw, stats) = if r0 < n && c0 < n {
        store.load_adjacency_window(r0, (r0 + wr).min(n), c0, (c0 + wc).min(n))?
    } else {
        (Csr::empty(0, 0), crate::loader::LoadStats::default())
    };
    let (shard, shard_t) = orient(l, raw.zero_padded(wr, wc));
    Ok((shard, shard_t, stats))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::preprocess_to_store;
    use plexus_graph::{DatasetKind, DatasetSpec, Graph, LoadedDataset};
    use plexus_sparse::shard::split_range;

    fn tiny_ds() -> LoadedDataset {
        let spec = DatasetSpec {
            kind: DatasetKind::OgbnProducts,
            name: "tiny",
            nodes: 100,
            edges: 600,
            nonzeros: 1300,
            features: 10,
            classes: 5,
        };
        LoadedDataset::generate(spec, 128, Some(10), 3)
    }

    #[test]
    fn padding_is_minimal_multiple() {
        assert_eq!(pad_to_multiple(100, 8), 104);
        assert_eq!(pad_to_multiple(104, 8), 104);
        assert_eq!(pad_to_multiple(1, 8), 8);
    }

    #[test]
    fn build_pads_everything_consistently() {
        let ds = tiny_ds();
        let grid = GridConfig::new(2, 2, 2);
        let gp = GlobalProblem::build(&ds, grid, 16, 3, 7, PermutationMode::Double, 11);
        assert_eq!(gp.meta.n_pad % 8, 0);
        assert_eq!(gp.a_even.shape(), (gp.meta.n_pad, gp.meta.n_pad));
        assert_eq!(gp.features_perm.shape(), (gp.meta.n_pad, gp.meta.dims_pad[0]));
        assert_eq!(gp.meta.dims_pad.len(), 4);
        for d in &gp.meta.dims_pad {
            assert_eq!(d % 8, 0);
        }
        // nnz preserved by permutation + padding.
        assert_eq!(gp.a_even.nnz(), ds.adjacency.nnz());
        // The band routine builds exactly the global COO permutation.
        let (pr, pc) = build_permutations(PermutationMode::Double, 11, ds.num_nodes());
        let reference = plexus_sparse::permute::apply_permutation(&ds.adjacency, &pr, &pc);
        assert_eq!(gp.a_even, reference.zero_padded(gp.meta.n_pad, gp.meta.n_pad));
    }

    #[test]
    fn identity_mode_keeps_adjacency() {
        let ds = tiny_ds();
        let grid = GridConfig::new(1, 1, 1);
        let gp = GlobalProblem::build(&ds, grid, 8, 3, 7, PermutationMode::None, 1);
        assert_eq!(gp.a_even, ds.adjacency.zero_padded(gp.meta.n_pad, gp.meta.n_pad));
    }

    /// `tiny_ds` on a graph of one one-way edge: odd layers would train Âᵀ.
    fn directed_ds() -> LoadedDataset {
        let mut ds = tiny_ds();
        ds.graph = Graph::new(ds.num_nodes(), vec![(0, 1)]);
        ds.adjacency = ds.graph.normalized_adjacency();
        ds
    }

    #[test]
    #[should_panic(expected = "Â must be symmetric")]
    fn directed_adjacency_is_refused_in_memory() {
        let grid = GridConfig::new(2, 1, 1);
        GlobalProblem::build(&directed_ds(), grid, 8, 3, 7, PermutationMode::None, 5);
    }

    #[test]
    #[should_panic(expected = "Â must be symmetric")]
    fn directed_adjacency_is_refused_by_the_store_writer() {
        let dir = std::env::temp_dir().join(format!("plexus_setup_dir_{}", std::process::id()));
        let _ = preprocess_to_store(&directed_ds(), &dir, PermutationMode::None, 5, 2, 2);
    }

    #[test]
    fn rank_shards_tile_the_matrices() {
        let ds = tiny_ds();
        let grid = GridConfig::new(2, 2, 2);
        let gp = GlobalProblem::build(&ds, grid, 16, 3, 7, PermutationMode::Double, 11);
        // Sum of shard nnz over the (rows x contract) plane == total nnz;
        // shards are replicated over the feat axis, so count each (R, C)
        // block once.
        for l in 0..3 {
            let roles = roles_for_layer(l);
            let mut total = 0usize;
            let mut seen = std::collections::HashSet::new();
            for rank in 0..grid.total() {
                let c = grid.coords(rank);
                let key = (c.along(roles.rows), c.along(roles.contract));
                if seen.insert(key) {
                    let rd = RankData::extract(&gp, rank);
                    total += rd.a_shards[l].nnz();
                    assert_eq!(rd.a_shards[l].nnz(), rd.a_shards_t[l].nnz());
                }
            }
            assert_eq!(total, gp.a_even.nnz(), "layer {} shards don't tile", l);
        }
    }

    #[test]
    fn label_slices_cover_all_training_nodes() {
        let ds = tiny_ds();
        let grid = GridConfig::new(2, 2, 1);
        let gp = GlobalProblem::build(&ds, grid, 8, 3, 7, PermutationMode::Double, 11);
        let roles_last = roles_for_layer(2);
        let mut covered = 0usize;
        let mut seen = std::collections::HashSet::new();
        for rank in 0..grid.total() {
            let c = grid.coords(rank);
            if seen.insert(c.along(roles_last.rows)) {
                let rd = RankData::extract(&gp, rank);
                covered += rd.mask_local.iter().filter(|&&b| b).count();
            }
        }
        assert_eq!(covered, gp.meta.total_train);
        assert_eq!(gp.meta.total_train, ds.split.num_train());
    }

    #[test]
    fn split_range_consistency_with_padding() {
        // The shard layout assumes exact division after padding; verify
        // via split_range equivalence.
        let np = 24;
        for parts in [2usize, 3, 4] {
            if np % parts != 0 {
                continue;
            }
            for i in 0..parts {
                let (s, e) = split_range(np, parts, i);
                assert_eq!(s, i * np / parts);
                assert_eq!(e, (i + 1) * np / parts);
            }
        }
    }

    #[test]
    fn store_loaded_rank_data_is_bitwise_identical_to_extracted() {
        let ds = tiny_ds();
        let dir = std::env::temp_dir().join(format!("plexus_setup_equiv_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = preprocess_to_store(&ds, &dir, PermutationMode::Double, 11, 4, 4).unwrap();
        let (pr, pc) = build_permutations(PermutationMode::Double, 11, ds.num_nodes());
        for grid in [GridConfig::new(2, 2, 2), GridConfig::new(4, 1, 1), GridConfig::new(1, 2, 2)] {
            let gp = GlobalProblem::build(&ds, grid, 16, 3, 7, PermutationMode::Double, 11);
            let meta = ProblemMeta::from_store(&store, grid, 16, 3);
            assert_eq!(meta.n_pad, gp.meta.n_pad);
            assert_eq!(meta.dims_pad, gp.meta.dims_pad);
            // Odd layers consume `P_c Â P_rᵀ`, built here the direct way.
            let odd = plexus_sparse::permute::apply_permutation(&ds.adjacency, &pc, &pr)
                .zero_padded(meta.n_pad, meta.n_pad);
            for rank in 0..grid.total() {
                let a = RankData::extract(&gp, rank);
                let (b, ledger) = RankData::load_from_store(&store, &meta, rank, 7).unwrap();
                for l in (1..meta.num_layers).step_by(2) {
                    let (r0, wr, c0, wc) = layer_window(&meta, meta.grid.coords(rank), l);
                    let window = odd.block(r0, r0 + wr, c0, c0 + wc);
                    assert_eq!(a.a_shards[l], window, "rank {} layer {} in-memory", rank, l);
                    assert_eq!(b.a_shards[l], window, "rank {} layer {} store", rank, l);
                }
                assert_eq!(a.a_shards, b.a_shards, "rank {} shards", rank);
                assert_eq!(a.a_shards_t, b.a_shards_t, "rank {} transposes", rank);
                assert_eq!(a.f_stored, b.f_stored, "rank {} features", rank);
                assert_eq!(a.w_stored, b.w_stored, "rank {} weights", rank);
                assert_eq!(a.labels_local, b.labels_local, "rank {} labels", rank);
                assert_eq!(a.mask_local, b.mask_local, "rank {} mask", rank);
                assert!(ledger.bytes_read > 0);
                assert!(
                    ledger.peak_adjacency_bytes >= ledger.adjacency_resident_bytes,
                    "peak below resident"
                );
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_load_skips_most_files_on_big_grids() {
        let ds = tiny_ds();
        let dir = std::env::temp_dir().join(format!("plexus_setup_skip_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = preprocess_to_store(&ds, &dir, PermutationMode::Double, 3, 8, 8).unwrap();
        let grid = GridConfig::new(2, 2, 2);
        let meta = ProblemMeta::from_store(&store, grid, 8, 3);
        let (_, ledger) = RankData::load_from_store(&store, &meta, 0, 1).unwrap();
        assert!(
            ledger.files_skipped > ledger.files_read,
            "a 1/4-area window should skip more files than it reads ({} read, {} skipped)",
            ledger.files_read,
            ledger.files_skipped
        );
        assert!(ledger.bytes_skipped > 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
