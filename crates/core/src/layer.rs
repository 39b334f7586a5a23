//! The distributed GCN layer: Algorithm 1 (forward) and Algorithm 2
//! (backward) from the paper, generalized over the per-layer axis roles of
//! §3.2.
//!
//! For layer 0 the roles are (R=Z, C=X, K=Y) and the code below reads
//! exactly like the paper's pseudocode: all-gather F across Z, SpMM,
//! all-reduce H across X, all-gather W across Z, SGEMM, all-reduce Q across
//! Y; backward mirrors it with the reduce-scatters across Z.
//!
//! With [`CommOverlap::Overlapped`] the layer uses the nonblocking
//! collectives ([`Communicator::start_all_reduce`] /
//! [`PendingCollective`]) to hide communication behind compute:
//!
//! * blocked aggregation pipelines each row block's C-axis all-reduce
//!   behind the next block's SpMM (§5.2);
//! * the combination GEMM is row-tiled and each tile's K-axis all-reduce
//!   is launched before the next tile's GEMM finishes;
//! * backward launches the R-axis reduce-scatter of `∂L/∂W` and overlaps
//!   it with the `∂L/∂H` GEMM and the `∂L/∂F` SpMM.
//!
//! Overlapped results are **bitwise identical** to blocking: every element
//! is reduced over the same contributions in the same ascending-rank
//! order. The collective *granularity* can differ — the tiled combination
//! path records `Q_TILES` per-tile all-reduce events where blocking
//! records one — so ledger event counts (not byte totals) depend on the
//! mode.
//!
//! # Workspace discipline
//!
//! Every kernel output in both passes (`H`, `Q`, the activation, `∂L/∂W`,
//! `∂L/∂H`, `∂L/∂F`, SpMM partials and GEMM tiles) is
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
use plexus_sparse::blocked::RowBlocks;
use plexus_sparse::{spmm_into, Csr};
use plexus_tensor::ops::{relu_backward_inplace, relu_into};
use plexus_tensor::{
    gemm_nn_cached_b, gemm_nt_cached_b, gemm_reference_tn, gemm_ws, KernelWorkspace, Matrix, Trans,
};
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
    /// One SpMM over the whole shard, one all-reduce of the whole H.
    Unblocked,
    /// Split the shard into `n` row blocks; all-reduce each block right
    /// after its SpMM. Bitwise identical results, smoother per-op sizes —
    /// and under [`CommOverlap::Overlapped`] each block's all-reduce hides
    /// behind the next block's SpMM.
    Blocked(usize),
}

/// Whether collectives block inline or overlap with compute (§5.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CommOverlap {
    /// Every collective completes before the next kernel starts.
    Blocking,
    /// Reductions are launched nonblocking and waited as late as the data
    /// dependences allow. Bitwise identical to `Blocking`.
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

/// Row-tile count for the overlapped combination GEMM: enough tiles to
/// pipeline, few enough that per-tile collectives stay large.
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

/// An in-flight all-reduce of one full-width row tile: the pending handle
/// plus the destination row offset to land it at on completion.
struct PendingTile<'c> {
    pending: PendingCollective<'c, f32>,
    r0: usize,
}

impl<'c> PendingTile<'c> {
    fn start<C: Communicator>(group: &'c C, tile: &Matrix, r0: usize, op: ReduceOp) -> Self {
        Self { pending: group.start_all_reduce(tile.as_slice(), op), r0 }
    }

    /// Wait with the reduced tile landing straight in rows `r0..` of `dst`
    /// (tiles span every column, so those rows are one contiguous run).
    fn land(self, dst: &mut Matrix) {
        let start = self.r0 * dst.cols();
        let len = self.pending.result_len();
        self.pending.wait_into(&mut dst.as_mut_slice()[start..start + len]);
    }
}

/// One rank's share of one GCN layer.
pub struct DistLayer {
    pub layer_idx: usize,
    pub roles: LayerRoles,
    pub a_shard: Csr,
    pub a_shard_t: Csr,
    /// Row-blocked view of `a_shard` when blocked aggregation is on.
    blocks: Option<RowBlocks>,
    pub tuning: GemmTuning,
    pub overlap: CommOverlap,
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
            Aggregation::Unblocked => None,
            Aggregation::Blocked(n) => {
                assert!(n >= 1, "Aggregation::Blocked needs >= 1 block");
                Some(RowBlocks::split(&a_shard, n.min(a_shard.rows().max(1))))
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
    /// The body is a composition of the public recipe methods
    /// ([`Self::aggregate`], [`Self::gather_weights`], [`Self::combine`])
    /// that [`Self::rebuild_cache`] replays for recompute-mode residency —
    /// one code path, so forward and rebuild are bitwise identical by
    /// construction.
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
        let mut t = TimeSplit::default();
        let h = self.aggregate(ctx, f_full, &mut t);
        let w_full = self.gather_weights(ctx, w_stored, &mut t);
        let q = self.combine(ctx, &h, &w_full, &mut t);

        // Activation: F' = σ(Q) (the final layer emits raw logits).
        let t0 = Instant::now();
        let mut out = self.ws.take_scratch(q.rows(), q.cols());
        if activated {
            relu_into(&q, &mut out);
        } else {
            out.as_mut_slice().copy_from_slice(q.as_slice());
        }
        t.compute_s += t0.elapsed().as_secs_f64();

        (out, DistLayerCache { h, q, w_full, activated }, t)
    }

    /// Re-derive a dropped forward cache from the retained layer `input` —
    /// the `Recompute` residency recipe. Replays the exact aggregation /
    /// gather / combination steps of [`Self::forward`] (same kernels, same
    /// deterministic collective order), so the rebuilt segments are
    /// bitwise identical to the originals. The activation output itself is
    /// never rebuilt: backward does not read it.
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
    /// all-reduced across the contract axis — unblocked or per-block, with
    /// the block all-reduces optionally overlapped behind the next block's
    /// SpMM (§5.2).
    pub fn aggregate<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        f_full: &Matrix,
        t: &mut TimeSplit,
    ) -> Matrix {
        let Self { ws, blocks, a_shard, roles, overlap, .. } = self;
        let (roles, overlap) = (*roles, *overlap);
        let n = f_full.cols();
        match blocks {
            None => {
                let t0 = Instant::now();
                let mut h = ws.take_scratch(a_shard.rows(), n);
                spmm_into(a_shard, f_full, &mut h);
                t.compute_s += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                ctx.all_reduce_sum(&mut h, roles.contract);
                t.comm_s += t1.elapsed().as_secs_f64();
                h
            }
            Some(blocks) => {
                // §5.2: per-block SpMM + all-reduce of the block. With
                // overlap on, block i's all-reduce is in flight while
                // block i+1's SpMM runs.
                let group = ctx.group(roles.contract);
                // A size-1 group has nothing to hide the reduce behind.
                let overlapped = overlap == CommOverlap::Overlapped && group.size() > 1;
                let mut h = ws.take_scratch(blocks.total_rows(), n);
                let mut pending: Option<PendingTile<'_>> = None;
                for (blk, (r0, _)) in blocks.iter() {
                    let t0 = Instant::now();
                    let mut partial = ws.take_scratch(blk.rows(), n);
                    spmm_into(blk, f_full, &mut partial);
                    t.compute_s += t0.elapsed().as_secs_f64();
                    let t1 = Instant::now();
                    if overlapped {
                        if let Some(p) = pending.take() {
                            p.land(&mut h);
                        }
                        pending = Some(PendingTile::start(group, &partial, r0, ReduceOp::Sum));
                        ws.recycle(partial);
                    } else {
                        ctx.all_reduce_sum(&mut partial, roles.contract);
                        h.set_block(r0, 0, &partial);
                        ws.recycle(partial);
                    }
                    t.comm_s += t1.elapsed().as_secs_f64();
                }
                let t1 = Instant::now();
                if let Some(p) = pending.take() {
                    p.land(&mut h);
                }
                t.comm_s += t1.elapsed().as_secs_f64();
                h
            }
        }
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
    /// all-reduced across the feat axis — row-tiled with overlapped
    /// per-tile reductions under [`CommOverlap::Overlapped`] (§5.2). The
    /// GEMM runs through the version-keyed packed-weight cache
    /// ([`gemm_nn_cached_b`]), so an unchanged `W_full` is packed once per
    /// optimizer step no matter how many tiles or rebuilds consume it.
    pub fn combine<C: Communicator>(
        &mut self,
        ctx: &DistContext<C>,
        h: &Matrix,
        w_full: &Matrix,
        t: &mut TimeSplit,
    ) -> Matrix {
        let Self { ws, roles, overlap, weights_version, .. } = self;
        let (roles, overlap, wv) = (*roles, *overlap, *weights_version);
        // Tiling only pays when there is a K-axis reduction to hide; on a
        // size-1 feat group fall through to the single in-place GEMM.
        if overlap == CommOverlap::Overlapped
            && h.rows() >= Q_TILES
            && ctx.group(roles.feat).size() > 1
        {
            // Row-tile the GEMM; each tile's K-axis all-reduce is launched
            // before the next tile's GEMM finishes. Same contributions,
            // same reduction order per element: bitwise identical.
            let group = ctx.group(roles.feat);
            let bounds = tile_bounds(h.rows(), Q_TILES);
            let mut q = ws.take_scratch(h.rows(), w_full.cols());
            let mut pending: Option<PendingTile<'_>> = None;
            for &(r0, r1) in &bounds {
                let t0 = Instant::now();
                let mut h_tile = ws.take_scratch(r1 - r0, h.cols());
                h_tile.as_mut_slice().copy_from_slice(&h.as_slice()[r0 * h.cols()..r1 * h.cols()]);
                let mut q_tile = ws.take_scratch(r1 - r0, w_full.cols());
                gemm_nn_cached_b(ws, &mut q_tile, &h_tile, w_full, wv, 1.0, 0.0);
                ws.recycle(h_tile);
                t.compute_s += t0.elapsed().as_secs_f64();
                let t1 = Instant::now();
                if let Some(p) = pending.take() {
                    p.land(&mut q);
                }
                pending = Some(PendingTile::start(group, &q_tile, r0, ReduceOp::Sum));
                ws.recycle(q_tile);
                t.comm_s += t1.elapsed().as_secs_f64();
            }
            let t1 = Instant::now();
            pending.take().expect("at least one tile").land(&mut q);
            t.comm_s += t1.elapsed().as_secs_f64();
            q
        } else {
            let t0 = Instant::now();
            let mut q = ws.take_scratch(h.rows(), w_full.cols());
            gemm_nn_cached_b(ws, &mut q, h, w_full, wv, 1.0, 0.0);
            t.compute_s += t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            ctx.all_reduce_sum(&mut q, roles.feat);
            t.comm_s += t1.elapsed().as_secs_f64();
            q
        }
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
        let (roles, overlap, tuning) = (*roles, *overlap, *tuning);
        let DistLayerCache { h, q, w_full, activated } = cache;
        let mut t = TimeSplit::default();
        let r_group = ctx.group(roles.rows);
        // A size-1 R group reduces to a copy; nothing to overlap.
        let overlapped = overlap == CommOverlap::Overlapped && r_group.size() > 1;

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

        // Reduce-scatter ∂L/∂W across R onto the stored shard. With
        // overlap on, it stays in flight through the ∂L/∂H GEMM, its
        // C-axis all-reduce and the ∂L/∂F SpMM; it must be waited before
        // the ∂L/∂F collective because that runs on the same R group.
        let t1 = Instant::now();
        let mut dw_pending: Option<PendingCollective<'_, f32>> = None;
        let mut dw_stored = if overlapped {
            // The raw collective only checks flat-length divisibility;
            // whole rows must land on each rank for the shard reassembly.
            let dw_rows = dw_full.rows();
            assert_eq!(
                dw_rows % r_group.size(),
                0,
                "backward: {} dW rows not divisible by R group size {}",
                dw_rows,
                r_group.size()
            );
            dw_pending = Some(r_group.start_reduce_scatter(dw_full.as_slice(), ReduceOp::Sum));
            ws.take_scratch(dw_rows / r_group.size(), dw_full.cols())
        } else {
            ctx.reduce_scatter_rows(&dw_full, roles.rows, ws)
        };
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
        if let Some(p) = dw_pending.take() {
            p.wait_into(dw_stored.as_mut_slice());
        }
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

/// Split `rows` into `n` contiguous tiles (first tiles one row larger when
/// `rows % n != 0`). Identical on every rank of a group, as the SPMD
/// contract requires.
fn tile_bounds(rows: usize, n: usize) -> Vec<(usize, usize)> {
    let base = rows / n;
    let extra = rows % n;
    let mut bounds = Vec::with_capacity(n);
    let mut r0 = 0;
    for i in 0..n {
        let r1 = r0 + base + usize::from(i < extra);
        bounds.push((r0, r1));
        r0 = r1;
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_bounds_cover_exactly() {
        assert_eq!(tile_bounds(8, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(tile_bounds(10, 4), vec![(0, 3), (3, 6), (6, 8), (8, 10)]);
        let b = tile_bounds(7, 4);
        assert_eq!(b.first().unwrap().0, 0);
        assert_eq!(b.last().unwrap().1, 7);
        for w in b.windows(2) {
            assert_eq!(w[0].1, w[1].0);
        }
    }
}
