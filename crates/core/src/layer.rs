//! The distributed GCN layer: Algorithm 1 (forward) and Algorithm 2
//! (backward) from the paper, generalized over the per-layer axis roles of
//! §3.2.
//!
//! For layer 0 the roles are (R=Z, C=X, K=Y) and the code below reads
//! exactly like the paper's pseudocode: all-gather F across Z, SpMM,
//! all-reduce H across X, all-gather W across Z, SGEMM, all-reduce Q across
//! Y; backward mirrors it with the reduce-scatters across Z.
//!
//! Each recipe runs one code path: aggregation all-reduces one row block
//! of the shard at a time (§5.2; `Unblocked` is one block), the
//! combination GEMM one row tile at a time, and backward launches the
//! reduce-scatter of `∂L/∂W` nonblocking. [`CommOverlap`] decides only
//! *when* each collective is waited on — right away, or after the next
//! block's SpMM, tile's GEMM or (for `∂L/∂W`) the `∂L/∂H` GEMM and `∂L/∂F`
//! SpMM — and a one-member group always waits right away. Both rules live
//! in the private tile reducer. So overlapped results are **bitwise
//! identical** to blocking, and the traffic ledgers match event for event.
//!
//! # Workspace discipline
//!
//! Every kernel output in both passes (`H`, `Q`, the activation, `∂L/∂W`,
//! `∂L/∂H`, `∂L/∂F` and GEMM tiles) is
//! taken from the layer's [`KernelWorkspace`] and recycled as soon as its
//! last reader is done — [`DistLayer::backward`] consumes the forward
//! cache by value for exactly that reason. Collective results are no
//! exception: the gathered input and weights, each landed tile and both
//! reduce-scattered gradients are written by the communicator into
//! buffers taken from the same workspace, so the pool only ever receives
//! buffers a workspace handed out. After the first epoch has sized the
//! pool, forward+backward run with **zero** per-call heap allocations for
//! kernel outputs and collective results, and the pooled bytes stay flat
//! (both asserted by the engine's warmup test).

use crate::dist::DistContext;
use crate::grid::LayerRoles;
use plexus_comm::{Communicator, PendingCollective, ReduceOp};
use plexus_graph::RowRequestPlan;
use plexus_sparse::shard::split_range;
use plexus_sparse::{spmm_into, spmm_rows_into, Csr};
use plexus_tensor::ops::{relu_backward_inplace, relu_into};
use plexus_tensor::{
    gemm_nn_cached_b, gemm_nt_cached_b, gemm_reference_tn, gemm_ws, KernelWorkspace, Matrix, Trans,
};
use std::ops::Range;
use std::time::Instant;

/// How `∂L/∂W = SGEMM(Hᵀ, ∂L/∂Q)` is computed (§5.3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum GemmTuning {
    /// The straightforward strided TN kernel ([`gemm_reference_tn`] — the
    /// behaviour the paper observed on Frontier at ≥512 GCDs). Since the
    /// production [`gemm`](plexus_tensor::gemm::gemm) routes TN through
    /// operand packing, the reference kernel is what keeps this arm an
    /// honest reproduction of the §5.3 effect.
    Default,
    /// The packed kernel's TN: packing *is* the reorder. Each strip of
    /// `Hᵀ` is read once into a contiguous panel and the same microkernel
    /// as NN does the O(N·D²) work — bitwise what materializing `Hᵀ` and
    /// calling NN computes, without the O(N·D) copy. This is this
    /// codebase's equivalent of the paper's
    /// `∂L/∂W = (SGEMM(∂L/∂Qᵀ, H))ᵀ` trick — both replace a
    /// transposed-operand kernel with a fast-path one.
    Reordered,
}

/// Aggregation strategy (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Aggregation {
    /// One SpMM over the whole shard, one all-reduce of the whole H: the
    /// single-block case of `Blocked`.
    Unblocked,
    /// Run the SpMM over `n` row ranges of the one shard, each written
    /// straight into its rows of H and all-reduced right after. Bitwise
    /// identical results, smoother per-op sizes — and under
    /// [`CommOverlap::Overlapped`] each block's all-reduce hides behind the
    /// next block's SpMM.
    Blocked(usize),
}

/// When a layer waits on its collectives (§5.2). Both modes issue the
/// same collectives; only the wait moves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommOverlap {
    /// Every collective completes before the next kernel starts.
    Blocking,
    /// Each reduction is waited on after the next tile's compute (on
    /// groups of more than one rank). Bitwise identical to `Blocking`.
    Overlapped,
}

/// How the layer-0 feature gather moves rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CommPlan {
    /// Dense all-gather of every owner's full feature block — the paper's
    /// Algorithm 1 line 3 as written.
    #[default]
    Dense,
    /// Row-indexed sparse gather driven by a cached [`RowRequestPlan`]:
    /// only the rows in the adjacency shard's column support travel; all
    /// other rows of the gathered input are zero-filled and — because the
    /// SpMM reads exactly the support columns — never touched. Bitwise
    /// identical losses to `Dense`.
    SparseRows,
}

/// Row-tile count for the combination GEMM when its K group has more than
/// one rank: enough tiles to pipeline, few enough that per-tile
/// collectives stay large.
const Q_TILES: usize = 4;

/// Wall-time split of an operation sequence, used for the Fig. 9-style
/// communication/computation breakdowns.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeSplit {
    pub compute_s: f64,
    pub comm_s: f64,
}

impl TimeSplit {
    pub fn add(&mut self, other: TimeSplit) {
        self.compute_s += other.compute_s;
        self.comm_s += other.comm_s;
    }

    pub fn total(&self) -> f64 {
        self.compute_s + self.comm_s
    }
}

/// Sum-reduces full-width row tiles of one output across a group with at
/// most one tile in flight — the one place the [`CommOverlap`] mode and
/// the one-member rule are read. A tile is waited on right away, unless
/// the reducer *lags* (`Overlapped` on a group of more than one rank):
/// then it stays in flight until the next tile is handed over or
/// [`finish`](Self::finish) lands it, so the caller's next compute runs
/// behind it.
struct TileReducer<'c, C: Communicator> {
    group: &'c C,
    lag: bool,
    /// The tile in flight and the output row it lands at.
    pending: Option<(PendingCollective<'c, f32>, usize)>,
}

impl<'c, C: Communicator> TileReducer<'c, C> {
    fn new(group: &'c C, overlap: CommOverlap) -> Self {
        Self { group, lag: overlap == CommOverlap::Overlapped && group.size() > 1, pending: None }
    }

    /// All-reduce rows `rows` of `out` in place.
    fn all_reduce(&mut self, out: &mut Matrix, rows: Range<usize>) {
        self.finish(out);
        let n = out.cols();
        let tile = &mut out.as_mut_slice()[rows.start * n..rows.end * n];
        if self.lag {
            self.pending = Some((self.group.start_all_reduce(tile, ReduceOp::Sum), rows.start));
        } else {
            // The in-place form: on a one-member group it moves no data.
            self.group.all_reduce(tile, ReduceOp::Sum);
        }
    }

    /// Reduce-scatter the whole rows of `src` onto `out`, this rank's
    /// `1/size` share of them.
    fn reduce_scatter(&mut self, src: &Matrix, out: &mut Matrix) {
        // Whole rows must land on each rank for the shard reassembly; the
        // raw collective only checks flat-length divisibility.
        assert_eq!(src.rows(), out.rows() * self.group.size(), "reduce-scatter of whole rows");
        self.pending = Some((self.group.start_reduce_scatter(src.as_slice(), ReduceOp::Sum), 0));
        if !self.lag {
            self.finish(out);
        }
    }

    /// Land the tile in flight, if any, at its rows of `out`.
    fn finish(&mut self, out: &mut Matrix) {
        if let Some((pending, r0)) = self.pending.take() {
            let start = r0 * out.cols();
            let len = pending.result_len();
            pending.wait_into(&mut out.as_mut_slice()[start..start + len]);
        }
    }
}

/// One rank's share of one GCN layer.
pub struct DistLayer {
    layer_idx: usize,
    roles: LayerRoles,
    pub a_shard: Csr,
    a_shard_t: Csr,
    /// Aggregation row-block count: ranges of `a_shard` from
    /// [`split_range`], one for [`Aggregation::Unblocked`].
    blocks: usize,
    tuning: GemmTuning,
    overlap: CommOverlap,
    /// Reusable kernel buffers; sized by the first epoch, stable after.
    ws: KernelWorkspace,
    /// Version key of this layer's stored weights for the combination
    /// GEMM's packed-operand cache: the gathered `W_full` is packed once
    /// per version and every further combination under the same version —
    /// later row tiles, recompute-mode rebuilds — reuses the panels. The
    /// trainer bumps it after each optimizer step.
    weights_version: u64,
}

/// Forward-pass cache, split into the individually managed segments the
/// [`ActivationStore`](crate::activation::ActivationStore) governs:
///
/// | segment  | contents                  | rebuild recipe                 |
/// |----------|---------------------------|--------------------------------|
/// | `h`      | post-all-reduce SpMM out  | [`DistLayer::aggregate`]       |
/// | `q`      | post-all-reduce GEMM out  | [`DistLayer::combine`]         |
/// | `w_full` | R-axis-gathered weights   | [`DistLayer::gather_weights`]  |
///
/// Under `Resident`/`Spill` residency the whole cache is retained (in RAM
/// or on disk); under `Recompute` all three segments are dropped after
/// forward and re-derived by [`DistLayer::rebuild_cache`], which replays
/// the same recipes on the retained layer input. Consumed by
/// [`DistLayer::backward`], which recycles the buffers.
pub struct DistLayerCache {
    pub h: Matrix,
    pub q: Matrix,
    pub w_full: Matrix,
    pub activated: bool,
}

/// Backward outputs: the gradient flowing to the previous layer and the
/// weight gradient already reduce-scattered onto this rank's stored shard.
pub struct DistLayerGrads {
    pub df: Matrix,
    pub dw_stored: Matrix,
}

impl DistLayer {
    pub fn new(
        layer_idx: usize,
        roles: LayerRoles,
        a_shard: Csr,
        a_shard_t: Csr,
        aggregation: Aggregation,
        tuning: GemmTuning,
        overlap: CommOverlap,
    ) -> Self {
        let blocks = match aggregation {
            Aggregation::Unblocked => 1,
            Aggregation::Blocked(n) => {
                assert!(n >= 1, "Aggregation::Blocked needs >= 1 block");
                n.min(a_shard.rows().max(1))
            }
        };
        Self {
            layer_idx,
            roles,
            a_shard,
            a_shard_t,
            blocks,
            tuning,
            overlap,
            ws: KernelWorkspace::new(),
            weights_version: 0,
        }
    }

    /// Allocator interactions of this layer's workspace so far. Flat
    /// across epochs once warmed up.
    pub fn workspace_alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    /// Hand a no-longer-needed matrix (e.g. a consumed activation) back to
    /// this layer's buffer pool.
    pub fn recycle(&mut self, m: Matrix) {
        self.ws.recycle(m);
    }

    /// Mutable access to this layer's kernel-buffer pool; the trainer
    /// routes the activation store's policy-driven recycling through it.
    pub fn workspace_mut(&mut self) -> &mut KernelWorkspace {
        &mut self.ws
    }

    /// Invalidate the combination GEMM's packed-weight cache. The trainer
    /// calls this after every optimizer step on this layer's weights.
    pub fn bump_weights_version(&mut self) {
        self.weights_version += 1;
    }

    /// Layer-0 input gather (Algorithm 1 line 3) under the configured
    /// [`CommPlan`]. `f_stored` is this rank's stored span of the trainable
    /// features; the result is the full `rows_total x fcols` input block
    /// shared by the rank's whole (x, y) plane.
    ///
    /// * `plan == None` (dense): all-gather every owner's block across the
    ///   feature-owner group.
    /// * `plan == Some(..)` (sparse): `start_all_gather_rows` fetches only
    ///   the plan's support rows; while they are in flight the scatter
    ///   target is taken from the workspace and zero-filled (that fill is
    ///   the compute hidden behind the collective under
    ///   [`CommOverlap::Overlapped`]), then each returned row lands at its
    ///   global position. Rows outside the support stay zero and are never
    ///   read by the SpMM, so downstream results are bitwise identical to
    ///   the dense path.
    pub fn gather_input<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        f_stored: &Matrix,
        plan: Option<&RowRequestPlan>,
        t: &mut TimeSplit,
    ) -> Matrix {
        let group = ctx.feature_owner_group();
        let width = f_stored.cols();
        let Some(plan) = plan else {
            let t1 = Instant::now();
            let mut x = self.ws.take_scratch(f_stored.rows() * group.size(), width);
            group.all_gather_into(f_stored.as_slice(), x.as_mut_slice());
            t.comm_s += t1.elapsed().as_secs_f64();
            return x;
        };
        assert_eq!(
            plan.rows_per_owner,
            f_stored.rows(),
            "gather_input: plan block size {} != stored feature rows {}",
            plan.rows_per_owner,
            f_stored.rows()
        );
        assert_eq!(
            plan.owners,
            group.size(),
            "gather_input: plan built for {} owners, group has {}",
            plan.owners,
            group.size()
        );
        let t1 = Instant::now();
        let pending = group.start_all_gather_rows(f_stored.as_slice(), &plan.row_ids, width);
        t.comm_s += t1.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let mut x = self.ws.take_scratch(plan.rows_total(), width);
        x.as_mut_slice().fill(0.0);
        let mut rows = self.ws.take_scratch(plan.row_ids.len(), width);
        t.compute_s += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        pending.wait_into(rows.as_mut_slice());
        t.comm_s += t1.elapsed().as_secs_f64();

        let t0 = Instant::now();
        for (i, &g) in plan.row_ids.iter().enumerate() {
            x.row_mut(g as usize).copy_from_slice(rows.row(i));
        }
        self.ws.recycle(rows);
        t.compute_s += t0.elapsed().as_secs_f64();
        x
    }

    /// Algorithm 1, lines 2–12, for this layer's roles. `f_full` is the
    /// layer input after any required all-gather (the trainer performs the
    /// layer-0 gather of the Z-sharded trainable features). `w_stored` is
    /// the R-axis shard of W. Returns (output, cache, timing).
    ///
    /// The body is [`Self::rebuild_cache`] — the composition of the public
    /// recipe methods ([`Self::aggregate`], [`Self::gather_weights`],
    /// [`Self::combine`]) that recompute-mode residency replays — plus the
    /// activation: one code path, so forward and rebuild are bitwise
    /// identical by construction.
    pub fn forward<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        f_full: &Matrix,
        w_stored: &Matrix,
        activated: bool,
    ) -> (Matrix, DistLayerCache, TimeSplit) {
        // Fault-injection hook: a `LayerPanic` armed for this rank/layer
        // fires on entry. A single `None` branch when injection is off.
        if let Some(plan) = &ctx.faults {
            plan.layer_tick(ctx.world.rank(), self.layer_idx);
        }
        let (cache, mut t) = self.rebuild_cache(ctx, f_full, w_stored, activated);

        // Activation: F' = σ(Q) (the final layer emits raw logits).
        let t0 = Instant::now();
        let q = &cache.q;
        let mut out = self.ws.take_scratch(q.rows(), q.cols());
        if activated {
            relu_into(q, &mut out);
        } else {
            out.as_mut_slice().copy_from_slice(q.as_slice());
        }
        t.compute_s += t0.elapsed().as_secs_f64();
        (out, cache, t)
    }

    /// Re-derive a dropped forward cache from the retained layer `input` —
    /// the `Recompute` residency recipe, and the first half of
    /// [`Self::forward`] (same kernels, same deterministic collective
    /// order), so the rebuilt segments are bitwise identical to the
    /// originals. The activation output itself is never rebuilt: backward
    /// does not read it.
    pub fn rebuild_cache<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        input: &Matrix,
        w_stored: &Matrix,
        activated: bool,
    ) -> (DistLayerCache, TimeSplit) {
        let mut t = TimeSplit::default();
        let h = self.aggregate(ctx, input, &mut t);
        let w_full = self.gather_weights(ctx, w_stored, &mut t);
        let q = self.combine(ctx, &h, &w_full, &mut t);
        (DistLayerCache { h, q, w_full, activated }, t)
    }

    /// Aggregation recipe (Algorithm 1 step 1): `H = SpMM(A, F)`,
    /// all-reduced across the contract axis one row block at a time — each
    /// block's SpMM writes straight into its rows of `H`, and under
    /// [`CommOverlap::Overlapped`] its all-reduce is in flight while the
    /// next block's SpMM runs (§5.2).
    pub fn aggregate<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        f_full: &Matrix,
        t: &mut TimeSplit,
    ) -> Matrix {
        let n = f_full.cols();
        let mut h = self.ws.take_scratch(self.a_shard.rows(), n);
        let mut reducer = TileReducer::new(ctx.group(self.roles.contract), self.overlap);
        for i in 0..self.blocks {
            let (r0, r1) = split_range(self.a_shard.rows(), self.blocks, i);
            let t0 = Instant::now();
            spmm_rows_into(&self.a_shard, r0..r1, f_full, &mut h.as_mut_slice()[r0 * n..r1 * n]);
            t.compute_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            reducer.all_reduce(&mut h, r0..r1);
            t.comm_s += t1.elapsed().as_secs_f64();
        }
        let t1 = Instant::now();
        reducer.finish(&mut h);
        t.comm_s += t1.elapsed().as_secs_f64();
        h
    }

    /// Weight-gather recipe (Algorithm 1 step 2a): all-gather the R-axis
    /// shard of `W` into the full per-plane weight matrix.
    pub fn gather_weights<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        w_stored: &Matrix,
        t: &mut TimeSplit,
    ) -> Matrix {
        let t1 = Instant::now();
        let w_full = ctx.all_gather_rows(w_stored, self.roles.rows, &mut self.ws);
        t.comm_s += t1.elapsed().as_secs_f64();
        w_full
    }

    /// Combination recipe (Algorithm 1 step 2b): `Q = SGEMM(H, W_full)`,
    /// all-reduced across the feat axis one row tile at a time — `Q_TILES`
    /// tiles when that group has more than one rank (and `H` that many
    /// rows), otherwise one GEMM over all of `H`. Under
    /// [`CommOverlap::Overlapped`] each tile's all-reduce is in flight
    /// while the next tile's GEMM runs (§5.2). The GEMM runs through the
    /// version-keyed packed-weight cache ([`gemm_nn_cached_b`]), so an
    /// unchanged `W_full` is packed once per optimizer step no matter how
    /// many tiles or rebuilds consume it.
    pub fn combine<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        h: &Matrix,
        w_full: &Matrix,
        t: &mut TimeSplit,
    ) -> Matrix {
        let Self { ws, roles, overlap, weights_version, .. } = self;
        let wv = *weights_version;
        let group = ctx.group(roles.feat);
        let (m, k, n) = (h.rows(), h.cols(), w_full.cols());
        let tiles = if group.size() > 1 && m >= Q_TILES { Q_TILES } else { 1 };
        let mut q = ws.take_scratch(m, n);
        let mut reducer = TileReducer::new(group, *overlap);
        for i in 0..tiles {
            let (r0, r1) = split_range(m, tiles, i);
            let t0 = Instant::now();
            if tiles == 1 {
                // The one tile is all of H: no tile copies.
                gemm_nn_cached_b(ws, &mut q, h, w_full, wv, 1.0, 0.0);
            } else {
                // Same contributions, same per-element order as one GEMM
                // over all of H: bitwise identical.
                let mut h_tile = ws.take_scratch(r1 - r0, k);
                h_tile.as_mut_slice().copy_from_slice(&h.as_slice()[r0 * k..r1 * k]);
                let mut q_tile = ws.take_scratch(r1 - r0, n);
                gemm_nn_cached_b(ws, &mut q_tile, &h_tile, w_full, wv, 1.0, 0.0);
                q.as_mut_slice()[r0 * n..r1 * n].copy_from_slice(q_tile.as_slice());
                ws.recycle(h_tile);
                ws.recycle(q_tile);
            }
            t.compute_s += t0.elapsed().as_secs_f64();
            let t1 = Instant::now();
            reducer.all_reduce(&mut q, r0..r1);
            t.comm_s += t1.elapsed().as_secs_f64();
        }
        let t1 = Instant::now();
        reducer.finish(&mut q);
        t.comm_s += t1.elapsed().as_secs_f64();
        q
    }

    /// Algorithm 2 for this layer's roles. `dout` is `∂L/∂(layer output)`
    /// in this rank's block layout; both it and the forward `cache` are
    /// consumed (their buffers are recycled into the workspace).
    /// `df_scatter` selects the final step for `∂L/∂F`: `true` =
    /// reduce-scatter across R (layer 0, where F is stored Z-sharded),
    /// `false` = all-reduce across R (all other layers).
    pub fn backward<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        cache: DistLayerCache,
        mut dout: Matrix,
        df_scatter: bool,
    ) -> (DistLayerGrads, TimeSplit) {
        let Self { ws, a_shard_t, roles, overlap, tuning, weights_version, .. } = self;
        let wv = *weights_version;
        let (roles, tuning) = (*roles, *tuning);
        let DistLayerCache { h, q, w_full, activated } = cache;
        let mut t = TimeSplit::default();
        let r_group = ctx.group(roles.rows);

        // ∂L/∂Q = ∂L/∂F' ⊙ σ'(Q).
        let t0 = Instant::now();
        if activated {
            relu_backward_inplace(&mut dout, &q);
        }
        let dq = dout;
        ws.recycle(q);

        // ∂L/∂W = SGEMM(Hᵀ, ∂L/∂Q), tuned or not (§5.3).
        let (h_rows, h_cols) = h.shape();
        let mut dw_full = ws.take_scratch(w_full.rows(), w_full.cols());
        match tuning {
            GemmTuning::Default => {
                gemm_reference_tn(&mut dw_full, &h, &dq, 1.0, 0.0);
            }
            GemmTuning::Reordered => {
                gemm_ws(ws, &mut dw_full, &h, Trans::T, &dq, Trans::N, 1.0, 0.0);
            }
        }
        ws.recycle(h);
        t.compute_s += t0.elapsed().as_secs_f64();

        // Reduce-scatter ∂L/∂W across R onto the stored shard. Under
        // overlap it stays in flight through the ∂L/∂H GEMM, its C-axis
        // all-reduce and the ∂L/∂F SpMM; it must be waited before the
        // ∂L/∂F collective because that runs on the same R group.
        let t1 = Instant::now();
        let mut dw_stored = ws.take_scratch(dw_full.rows() / r_group.size(), dw_full.cols());
        let mut dw_reducer = TileReducer::new(r_group, *overlap);
        dw_reducer.reduce_scatter(&dw_full, &mut dw_stored);
        ws.recycle(dw_full);
        t.comm_s += t1.elapsed().as_secs_f64();

        // ∂L/∂H = SGEMM(∂L/∂Q, Wᵀ); all-reduce across C. The transposed
        // weight pack is cached under the same per-layer version the
        // forward pack uses, so steady-state backward never repacks.
        let t0 = Instant::now();
        let mut dh = ws.take_scratch(h_rows, h_cols);
        gemm_nt_cached_b(ws, &mut dh, &dq, &w_full, wv, 1.0, 0.0);
        ws.recycle(dq);
        t.compute_s += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        ctx.all_reduce_sum(&mut dh, roles.contract);
        t.comm_s += t1.elapsed().as_secs_f64();

        // ∂L/∂F = SpMM(Aᵀ, ∂L/∂H); reduce over R (scatter at layer 0).
        let t0 = Instant::now();
        let mut df_partial = ws.take_scratch(a_shard_t.rows(), dh.cols());
        spmm_into(a_shard_t, &dh, &mut df_partial);
        ws.recycle(dh);
        ws.recycle(w_full);
        t.compute_s += t0.elapsed().as_secs_f64();

        let t1 = Instant::now();
        dw_reducer.finish(&mut dw_stored);
        let df = if df_scatter {
            // Layer 0: land the feature gradient on the stored span. Under
            // replication this completes the R-axis sum in two stages
            // (scatter across owners, all-reduce across replicas); with
            // c = 1 it is exactly the reduce-scatter across R.
            let df = ctx.reduce_scatter_feature_rows(&df_partial, ws);
            ws.recycle(df_partial);
            df
        } else {
            let mut d = df_partial;
            ctx.all_reduce_sum(&mut d, roles.rows);
            d
        };
        t.comm_s += t1.elapsed().as_secs_f64();

        (DistLayerGrads { df, dw_stored }, t)
    }
}
