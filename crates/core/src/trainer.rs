//! The distributed trainer: per-rank state, the epoch loop, and the
//! orchestration entry points — [`train_distributed`] executes for real on
//! the thread world, [`simulate_epochs`] runs the same per-rank program on
//! the cost-only [`SimComm`] backend at grid sizes no machine can run.

use crate::activation::{ActivationStore, Fetched, ResidencyPolicy};
use crate::checkpoint::{self, Checkpoint, CheckpointPolicy, ParamState, RankState};
use crate::dist::DistContext;
use crate::grid::{roles_for_layer, GridConfig, GridSpec};
use crate::layer::{Aggregation, CommOverlap, CommPlan, DistLayer, GemmTuning, TimeSplit};
use crate::loader::{digest, LoaderError, LoaderResult, MemoryLedger, ShardStore};
use crate::loss::dist_masked_cross_entropy;
use crate::setup::{GlobalProblem, PermutationMode, ProblemMeta, RankData};
use plexus_comm::{run_world_faulted, CommEvent, Communicator, FaultPlan, ThreadComm};
use plexus_gnn::{Adam, AdamConfig};
use plexus_graph::{LoadedDataset, RowRequestPlan};
use plexus_simnet::{SimComm, SimCostModel};
use plexus_tensor::Matrix;
use std::fmt;
use std::fs;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Arc;

/// Engine options (model hyperparameters plus the §5 optimizations).
#[derive(Clone, Debug)]
pub struct DistTrainOptions {
    pub hidden_dim: usize,
    pub num_layers: usize,
    pub adam: AdamConfig,
    /// Model-weight seed; must equal the serial baseline's seed for the
    /// Fig. 7 equivalence checks.
    pub model_seed: u64,
    pub permutation: PermutationMode,
    pub perm_seed: u64,
    pub aggregation: Aggregation,
    pub tuning: GemmTuning,
    /// §5.2 comm/compute overlap: when each layer waits on its
    /// collectives. Both modes issue the same collectives (the ledgers
    /// match event for event) and are bitwise identical; only the waiting
    /// moves.
    pub overlap: CommOverlap,
    /// How inter-layer activation caches are kept between forward and
    /// backward (resident / spilled under a byte budget / recomputed).
    /// All three settings are bitwise identical; only residency moves.
    pub residency: ResidencyPolicy,
    /// How the layer-0 feature gather moves rows: dense all-gather or the
    /// row-indexed sparse exchange driven by a cached [`RowRequestPlan`].
    /// Bitwise identical losses; only the bytes on the wire change.
    pub comm_plan: CommPlan,
    /// 1.5D-style replication factor `c` for the layer-0 features (must
    /// divide `Gz`): each rank stores its whole cluster's `c x` feature
    /// span so the epoch gather runs over `Gz / c` owners. `1` is the
    /// plain engine; `c > 1` reassociates the feature-gradient sum, so it
    /// matches to tolerance rather than bitwise.
    pub replication: usize,
    /// Periodic checkpointing and crash recovery. When set,
    /// [`train_from_source`] snapshots every rank's state at the policy's
    /// epoch cadence, catches a poisoned world at the world boundary,
    /// rebuilds it, and resumes from the last published checkpoint —
    /// bitwise-identically to an uninterrupted run. `None` (the default)
    /// runs the engine exactly as before: no snapshot I/O, no panic
    /// catching.
    pub checkpoint: Option<CheckpointPolicy>,
    /// Deterministic fault injection for robustness tests: epoch/layer
    /// panics, collective aborts, and shard-read corruption, threaded
    /// through the loader, the communicator, and the layers. `None`
    /// disables every hook (a single branch each).
    pub faults: Option<Arc<FaultPlan>>,
}

impl Default for DistTrainOptions {
    fn default() -> Self {
        Self {
            hidden_dim: 128,
            num_layers: 3,
            adam: AdamConfig::default(),
            model_seed: 0,
            permutation: PermutationMode::Double,
            perm_seed: 0x5eed,
            aggregation: Aggregation::Unblocked,
            tuning: GemmTuning::Reordered,
            overlap: CommOverlap::Overlapped,
            residency: ResidencyPolicy::Resident,
            comm_plan: CommPlan::Dense,
            replication: 1,
            checkpoint: None,
            faults: None,
        }
    }
}

impl DistTrainOptions {
    /// The [`GridSpec`] this configuration induces for `grid`.
    pub fn grid_spec(&self, grid: GridConfig) -> GridSpec {
        GridSpec::new(grid).with_replication(self.replication)
    }
}

/// Per-epoch results (identical on every rank by construction).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DistEpochStats {
    pub loss: f64,
    pub train_accuracy: f64,
    pub timing: TimeSplit,
}

/// One rank's training state, generic over the communication backend (the
/// thread world by default; `RankTrainer<SimComm>` for cost-only runs).
pub struct RankTrainer<C: Communicator = ThreadComm> {
    ctx: DistContext<C>,
    layers: Vec<DistLayer>,
    /// Owns all inter-layer state between forward and backward, under the
    /// configured residency policy.
    acts: ActivationStore,
    /// Per-rank memory accounting: ingest I/O and residency from the load
    /// path plus activation counters synced after every epoch.
    ledger: MemoryLedger,
    w_stored: Vec<Matrix>,
    w_opts: Vec<Adam>,
    /// Stored feature rows: this rank's Z-shard, or — under replication —
    /// its whole cluster's span (gathered once at construction).
    f_stored: Matrix,
    f_opt: Adam,
    /// Cached once-per-epoch row-request sets for the sparse layer-0
    /// gather; `None` under [`CommPlan::Dense`]. The adjacency is static
    /// across epochs, so "recomputed each epoch" degenerates to
    /// construction time.
    row_plan: Option<RowRequestPlan>,
    labels_local: Vec<u32>,
    mask_local: Vec<bool>,
    num_classes_real: usize,
    total_train: usize,
    num_layers: usize,
}

impl<C: Communicator> RankTrainer<C> {
    /// Assemble this rank's trainer from the shared preprocessed problem.
    pub fn new(gp: &GlobalProblem, ctx: DistContext<C>, opts: &DistTrainOptions) -> Self {
        let rd = RankData::extract(gp, ctx.world.rank());
        Self::from_parts(&gp.meta, ctx, rd, opts)
    }

    /// Assemble this rank's trainer straight from a preprocessed
    /// [`ShardStore`], loading only the shard files this rank's windows
    /// intersect (the out-of-core ingest path). The load's I/O accounting
    /// seeds the trainer's [`MemoryLedger`] (see [`Self::ledger`]).
    pub fn from_store(
        store: &ShardStore,
        meta: &ProblemMeta,
        ctx: DistContext<C>,
        opts: &DistTrainOptions,
    ) -> LoaderResult<Self> {
        let (rd, ledger) =
            RankData::load_from_store(store, meta, ctx.world.rank(), opts.model_seed)?;
        let mut rt = Self::from_parts(meta, ctx, rd, opts);
        rt.ledger = ledger;
        Ok(rt)
    }

    pub fn from_parts(
        meta: &ProblemMeta,
        ctx: DistContext<C>,
        rd: RankData,
        opts: &DistTrainOptions,
    ) -> Self {
        let RankData { a_shards, a_shards_t, f_stored, w_stored, labels_local, mask_local } = rd;
        let layers: Vec<DistLayer> = a_shards
            .into_iter()
            .zip(a_shards_t)
            .enumerate()
            .map(|(l, (a, at))| {
                DistLayer::new(
                    l,
                    roles_for_layer(l),
                    a,
                    at,
                    opts.aggregation,
                    opts.tuning,
                    opts.overlap,
                )
            })
            .collect();
        let w_opts = w_stored.iter().map(|w| Adam::new(w.rows(), w.cols(), opts.adam)).collect();
        // Under replication every rank widens its stored features to the
        // cluster's span once, at construction: an all-gather across the
        // replica group (its ranks hold consecutive Z-shards of the span).
        // The optimizer is sized for the span; the replicas apply bitwise
        // identical updates every epoch, so they never diverge.
        let f_stored = match ctx.replica_group() {
            Some(replicas) => {
                let data = replicas.all_gather(f_stored.as_slice());
                Matrix::from_vec(f_stored.rows() * replicas.size(), f_stored.cols(), data)
            }
            None => f_stored,
        };
        let f_opt = Adam::new(f_stored.rows(), f_stored.cols(), opts.adam);
        let row_plan = match opts.comm_plan {
            CommPlan::Dense => None,
            CommPlan::SparseRows => Some(RowRequestPlan::from_column_support(
                &layers[0].a_shard,
                ctx.feature_owner_group().size(),
            )),
        };
        Self {
            ctx,
            layers,
            acts: ActivationStore::new(opts.residency),
            ledger: MemoryLedger::default(),
            w_stored,
            w_opts,
            f_stored,
            f_opt,
            row_plan,
            labels_local,
            mask_local,
            num_classes_real: meta.num_classes_real,
            total_train: meta.total_train,
            num_layers: meta.num_layers,
        }
    }

    /// One full-graph epoch: forward, loss, backward, Adam on the weight
    /// shards and the feature shard.
    ///
    /// All inter-layer state flows through the [`ActivationStore`]: each
    /// layer's forward cache (and, under `Recompute`, its consumed input)
    /// is handed over after the layer runs, and backward fetches it back —
    /// resident, reloaded from a checksummed spill file, or re-derived via
    /// [`DistLayer::rebuild_cache`]. Every policy is bitwise identical.
    ///
    /// Consumed activations and gradients are recycled into the layers'
    /// kernel workspaces, so after the first (warmup) epoch the whole
    /// loop performs no per-call heap allocations for kernel outputs or
    /// collective results (see [`Self::kernel_alloc_events`]), and every
    /// buffer recycled is one a workspace handed out, so the pools stay
    /// the size the warmup gave them.
    pub fn train_epoch(&mut self) -> DistEpochStats {
        let mut timing = TimeSplit::default();
        let rank = self.ctx.world.rank();

        // Layer-0 input: gather the stored trainable features (Algorithm 1
        // line 3) — dense all-gather across the feature owners, or the
        // row-indexed sparse exchange over the cached RowRequestPlan.
        let mut x = self.layers[0].gather_input(
            &self.ctx,
            &self.f_stored,
            self.row_plan.as_ref(),
            &mut timing,
        );

        // Forward through all layers; the activation store takes custody
        // of each cache and the consumed input under the residency policy.
        for l in 0..self.num_layers {
            let activated = l + 1 < self.num_layers;
            let (out, cache, t) =
                self.layers[l].forward(&self.ctx, &x, &self.w_stored[l], activated);
            timing.add(t);
            let input = std::mem::replace(&mut x, out);
            self.acts
                .insert(l, cache, input, self.layers[l].workspace_mut())
                .unwrap_or_else(|e| panic!("rank {}: activation spill failed: {}", rank, e));
        }

        // Distributed loss.
        let t1 = std::time::Instant::now();
        let roles_last = roles_for_layer(self.num_layers - 1);
        let loss_out = dist_masked_cross_entropy(
            &self.ctx,
            roles_last,
            &x,
            &self.labels_local,
            &self.mask_local,
            self.num_classes_real,
            self.total_train,
        );
        timing.comm_s += t1.elapsed().as_secs_f64();

        // Backward through all layers (states fetched back in reverse). The
        // logit gradient is carried in the logits' own buffer, which the
        // last layer's workspace handed out: recycling the loss's freshly
        // allocated one instead would grow that pool by one logits block
        // every epoch.
        x.as_mut_slice().copy_from_slice(loss_out.dlogits_local.as_slice());
        let mut carried = x;
        let mut df_stored: Option<Matrix> = None;
        for l in (0..self.num_layers).rev() {
            let df_scatter = l == 0;
            let dout = std::mem::replace(&mut carried, Matrix::zeros(0, 0));
            let fetched = self
                .acts
                .fetch(l)
                .unwrap_or_else(|e| panic!("rank {}: activation reload failed: {}", rank, e));
            let cache = match fetched {
                Fetched::Cache(cache) => cache,
                Fetched::Rebuild { input, activated } => {
                    let (cache, t) = self.layers[l].rebuild_cache(
                        &self.ctx,
                        &input,
                        &self.w_stored[l],
                        activated,
                    );
                    timing.add(t);
                    self.layers[l].recycle(input);
                    cache
                }
            };
            let (grads, t) = self.layers[l].backward(&self.ctx, cache, dout, df_scatter);
            timing.add(t);
            self.w_opts[l].step(&mut self.w_stored[l], &grads.dw_stored);
            self.layers[l].bump_weights_version();
            self.layers[l].recycle(grads.dw_stored);
            if l == 0 {
                df_stored = Some(grads.df);
            } else {
                carried = grads.df;
            }
        }
        let df_stored = df_stored.expect("layer 0 must produce a feature grad");
        self.f_opt.step(&mut self.f_stored, &df_stored);
        self.layers[0].recycle(df_stored);

        self.acts.assert_drained();
        self.ledger.sync_activation_stats(&self.acts.stats());

        DistEpochStats { loss: loss_out.loss, train_accuracy: loss_out.train_accuracy, timing }
    }

    /// Total allocator interactions across the layers' kernel workspaces
    /// and the activation store's reload pool. Stable across epochs once
    /// the first epoch has sized the pools.
    pub fn kernel_alloc_events(&self) -> u64 {
        self.layers.iter().map(|l| l.workspace_alloc_events()).sum::<u64>()
            + self.acts.alloc_events()
    }

    /// This rank's memory ledger: ingest I/O + residency counters, with
    /// activation stats synced after every epoch.
    pub fn ledger(&self) -> &MemoryLedger {
        &self.ledger
    }

    pub fn ledger_mut(&mut self) -> &mut MemoryLedger {
        &mut self.ledger
    }

    pub fn ctx(&self) -> &DistContext<C> {
        &self.ctx
    }

    /// Install the fault plan's spill-read hooks on the activation store
    /// (the shard-read hooks ride in via [`ShardStore::with_faults`], the
    /// layer/collective hooks via the context and the communicator).
    pub(crate) fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.acts.set_faults(plan);
    }

    /// Snapshot everything that determines this rank's continuation: the
    /// stored weight/feature shards with their Adam moments, the epoch
    /// history, and the ledger counters.
    pub(crate) fn export_state(
        &self,
        config_fp: u64,
        epochs_done: usize,
        history: Vec<DistEpochStats>,
    ) -> RankState {
        let param = |value: &Matrix, opt: &Adam| {
            let (m, v, t) = opt.state();
            ParamState { value: value.clone(), m: m.clone(), v: v.clone(), t }
        };
        RankState {
            config_fp,
            epochs_done,
            history,
            layers: self.w_stored.iter().zip(&self.w_opts).map(|(w, o)| param(w, o)).collect(),
            features: param(&self.f_stored, &self.f_opt),
            ledger: self.ledger.clone(),
        }
    }

    /// Restore a state captured by [`export_state`](Self::export_state).
    /// Training continues bitwise-identically to the run that produced the
    /// snapshot. The ledger is replaced wholesale, so a recovery attempt's
    /// re-ingest I/O is not double-counted against the original run's.
    pub(crate) fn restore_state(&mut self, st: RankState) {
        assert_eq!(st.layers.len(), self.w_stored.len(), "checkpoint layer count mismatch");
        for (l, p) in st.layers.into_iter().enumerate() {
            assert_eq!(
                p.value.shape(),
                self.w_stored[l].shape(),
                "checkpoint weight shape mismatch at layer {}",
                l
            );
            self.w_stored[l] = p.value;
            self.w_opts[l].restore(p.m, p.v, p.t);
            // Restored weights invalidate any packed-B kernel caches.
            self.layers[l].bump_weights_version();
        }
        assert_eq!(
            st.features.value.shape(),
            self.f_stored.shape(),
            "checkpoint feature shape mismatch"
        );
        self.f_stored = st.features.value;
        self.f_opt.restore(st.features.m, st.features.v, st.features.t);
        self.ledger = st.ledger;
    }
}

/// Result of a distributed run: rank-0 epoch stats (all ranks agree
/// bitwise) plus each rank's collective-traffic ledger and memory ledger.
#[derive(Debug)]
pub struct DistRunResult {
    pub grid: GridConfig,
    pub epochs: Vec<DistEpochStats>,
    pub traffic: Vec<Vec<CommEvent>>,
    /// Per-rank ingest memory accounting. The in-memory path charges every
    /// rank the shared global problem plus its shards; the sharded path
    /// charges only the shards each rank keeps from the store (a window
    /// decodes straight into its shard, so no merge buffer is charged).
    pub memory: Vec<MemoryLedger>,
    /// World rebuilds performed by checkpoint-based crash recovery. `0`
    /// for an uninterrupted run (and always `0` without a checkpoint
    /// policy, where a rank failure propagates as a panic instead).
    pub recoveries: usize,
}

impl DistRunResult {
    pub fn losses(&self) -> Vec<f64> {
        self.epochs.iter().map(|e| e.loss).collect()
    }

    /// Worst per-rank peak resident adjacency bytes during ingest.
    pub fn peak_adjacency_bytes(&self) -> u64 {
        self.memory.iter().map(|m| m.peak_adjacency_bytes).max().unwrap_or(0)
    }

    /// Worst per-rank peak store-held activation bytes across the run.
    pub fn peak_activation_bytes(&self) -> u64 {
        self.memory.iter().map(|m| m.peak_activation_bytes).max().unwrap_or(0)
    }
}

/// Where the per-rank training data comes from — the switch between the
/// materialize-then-slice path and the §5.4 out-of-core path.
#[derive(Clone, Copy)]
pub enum ProblemSource<'a> {
    /// Build the [`GlobalProblem`] in RAM and let every rank slice it.
    InMemory(&'a LoadedDataset),
    /// Each rank opens the preprocessed store and decodes only the shard
    /// files its windows intersect. The store's baked-in permutation
    /// is used; `DistTrainOptions::permutation`/`perm_seed` are ignored.
    Sharded(&'a ShardStore),
}

/// Typed failure of a distributed training run.
#[derive(Debug)]
pub enum TrainError {
    /// A structural or ingest problem surfaced outside the rank threads:
    /// store validation, or a checkpoint that is corrupt/incompatible with
    /// this run's configuration.
    Loader(LoaderError),
    /// Checkpoint-based recovery exhausted its retry budget: the initial
    /// attempt and every retry died. `last_panic` is the final attempt's
    /// originating panic message.
    Unrecoverable { attempts: usize, last_panic: String },
}

impl fmt::Display for TrainError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrainError::Loader(e) => write!(f, "training ingest failed: {}", e),
            TrainError::Unrecoverable { attempts, last_panic } => write!(
                f,
                "training unrecoverable after {} attempt(s); last failure: {}",
                attempts, last_panic
            ),
        }
    }
}

impl std::error::Error for TrainError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TrainError::Loader(e) => Some(e),
            TrainError::Unrecoverable { .. } => None,
        }
    }
}

impl From<LoaderError> for TrainError {
    fn from(e: LoaderError) -> Self {
        TrainError::Loader(e)
    }
}

/// The ingest work that survives across recovery attempts: built once,
/// before the first world, so a retry re-fans rank threads without
/// re-preprocessing.
enum Prepared<'a> {
    InMemory(Arc<GlobalProblem>),
    Sharded { store: &'a ShardStore, meta: ProblemMeta },
}

/// Stable tag for the permutation configuration (including "raw store").
fn perm_tag(mode: Option<PermutationMode>) -> u64 {
    match mode {
        None => 0,
        Some(PermutationMode::None) => 1,
        Some(PermutationMode::Single) => 2,
        Some(PermutationMode::Double) => 3,
    }
}

/// Fingerprint of everything that pins a run's trajectory: grid shape,
/// replication, model hyperparameters, the weight/permutation seeds, and
/// the ingest source. Stored in every checkpoint rank file; resuming under
/// a different fingerprint is refused. This is also what makes seeds the
/// only "RNG state" a checkpoint needs — every random quantity in the
/// engine is derived from them.
fn config_fingerprint(
    grid: GridConfig,
    opts: &DistTrainOptions,
    perm_tag: u64,
    perm_seed: u64,
    source_fp: u64,
) -> u64 {
    let mut buf = Vec::with_capacity(14 * 8);
    for v in [
        grid.gx as u64,
        grid.gy as u64,
        grid.gz as u64,
        opts.replication as u64,
        opts.hidden_dim as u64,
        opts.num_layers as u64,
        opts.model_seed,
        perm_tag,
        perm_seed,
        source_fp,
        opts.adam.lr.to_bits() as u64,
        opts.adam.beta1.to_bits() as u64,
        opts.adam.beta2.to_bits() as u64,
        opts.adam.eps.to_bits() as u64,
    ] {
        buf.extend_from_slice(&v.to_le_bytes());
    }
    digest(&buf)
}

/// Extract the originating panic message from a `catch_unwind` payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Resolve the checkpoint to resume from, validating it against this
/// run's world size and config fingerprint before any rank thread starts.
fn preflight_resume(
    opts: &DistTrainOptions,
    grid: GridConfig,
    config_fp: u64,
) -> Result<Option<Arc<Checkpoint>>, TrainError> {
    let Some(policy) = &opts.checkpoint else { return Ok(None) };
    let Some(ck) = Checkpoint::latest(&policy.dir)? else { return Ok(None) };
    if ck.world_size() != grid.total() {
        return Err(LoaderError::BadManifest {
            reason: format!(
                "checkpoint {} was taken on a {}-rank world; this run needs {}",
                ck.dir().display(),
                ck.world_size(),
                grid.total()
            ),
        }
        .into());
    }
    // Probe one rank file: its fingerprint stands for all of them (every
    // rank writes the same fp), and corruption surfaces as a typed error
    // here rather than as a mid-world panic.
    let probe = ck.load_rank(0)?;
    if probe.config_fp != config_fp {
        return Err(LoaderError::BadManifest {
            reason: format!(
                "checkpoint {} fingerprint {:016x} does not match this run's {:016x} \
                 (different grid, hyperparameters, seeds, or ingest source)",
                ck.dir().display(),
                probe.config_fp,
                config_fp
            ),
        }
        .into());
    }
    Ok(Some(Arc::new(ck)))
}

/// Snapshot the run after `epochs_done` completed epochs. Collective:
/// every rank writes its own file atomically, the world gathers the
/// `(checksum, length)` entries, and rank 0 publishes the manifest — all
/// behind tmp + rename, so a crash at any point leaves the previous
/// checkpoint intact.
fn save_checkpoint<C: Communicator>(
    policy: &CheckpointPolicy,
    config_fp: u64,
    rt: &RankTrainer<C>,
    rank: usize,
    world: usize,
    epochs_done: usize,
    history: &[DistEpochStats],
) -> LoaderResult<()> {
    let epoch_dir = policy.dir.join(checkpoint::epoch_dir_name(epochs_done));
    fs::create_dir_all(&epoch_dir)?;
    let state = rt.export_state(config_fp, epochs_done, history.to_vec());
    let entry = checkpoint::write_rank_state(&epoch_dir, rank, world, &state)?;
    // The gather doubles as a barrier: no rank reaches the manifest until
    // every rank's file is renamed into place.
    let entries = rt.ctx().world.all_gather(&[entry.0, entry.1]);
    if rank == 0 {
        let pairs: Vec<(u64, u64)> = entries.chunks_exact(2).map(|c| (c[0], c[1])).collect();
        checkpoint::publish_manifest(&epoch_dir, epochs_done, &pairs)?;
    }
    // Hold every rank until the manifest is published, so a fault in the
    // next epoch can only ever see a complete checkpoint.
    rt.ctx().world.barrier();
    Ok(())
}

/// Per-rank `(epoch stats, ledger)` pairs plus each rank's comm trace —
/// what one world attempt hands back to the recovery loop.
type AttemptOutput = (Vec<(Vec<DistEpochStats>, MemoryLedger)>, Vec<Vec<CommEvent>>);

/// One world attempt: fan out the rank threads, optionally resume from a
/// validated checkpoint, and run the epoch loop with the fault hooks and
/// the checkpoint cadence installed. Panics if any rank fails (the world
/// is poisoned); [`train_from_source`] decides whether that is caught.
fn run_attempt(
    prepared: &Prepared<'_>,
    grid: GridConfig,
    opts: &DistTrainOptions,
    epochs: usize,
    config_fp: u64,
    resume: Option<Arc<Checkpoint>>,
) -> AttemptOutput {
    run_world_faulted(grid.total(), opts.faults.clone(), |comm| {
        let rank = comm.rank();
        // Duplicate the world communicator so the context can own it.
        let world = comm.split(0, rank as u64, "world");
        let mut ctx = DistContext::with_spec(world, opts.grid_spec(grid));
        ctx.faults = opts.faults.clone();
        let mut rt = match prepared {
            Prepared::InMemory(gp) => {
                let rd = RankData::extract(gp, ctx.world.rank());
                let rank_adj: u64 =
                    rd.a_shards.iter().chain(&rd.a_shards_t).map(|a| a.mem_bytes()).sum();
                // Replication widens the stored span (and optimizer) c-fold.
                let rank_feat = rd.f_stored.mem_bytes() * opts.replication as u64;
                let mut rt = RankTrainer::from_parts(&gp.meta, ctx, rd, opts);
                // The Arc'd global problem stays resident on every rank for
                // the whole run — the global copy of Â that §5.4 attacks.
                rt.ledger_mut().note_adjacency_resident(gp.a_even.mem_bytes() + rank_adj);
                rt.ledger_mut().note_feature_resident(gp.features_perm.mem_bytes() + rank_feat);
                rt
            }
            Prepared::Sharded { store, meta } => {
                // Content checksums are verified during the loads; a fault
                // plan rides in on a cloned store handle.
                match &opts.faults {
                    Some(plan) => {
                        RankTrainer::from_store(&store.with_faults(plan.clone()), meta, ctx, opts)
                    }
                    None => RankTrainer::from_store(store, meta, ctx, opts),
                }
                .unwrap_or_else(|e| panic!("rank {}: shard load failed: {}", rank, e))
            }
        };
        rt.set_faults(opts.faults.clone());
        let mut history: Vec<DistEpochStats> = Vec::new();
        let mut start = 0usize;
        if let Some(ck) = &resume {
            let mut st = ck
                .load_rank(rank)
                .unwrap_or_else(|e| panic!("rank {}: checkpoint load failed: {}", rank, e));
            start = st.epochs_done.min(epochs);
            history = std::mem::take(&mut st.history);
            history.truncate(start);
            rt.restore_state(st);
        }
        for e in start..epochs {
            // Fault-injection hook: a `RankPanic` armed for (rank, e)
            // fires at the top of the epoch.
            if let Some(plan) = &opts.faults {
                plan.epoch_tick(rank, e);
            }
            history.push(rt.train_epoch());
            if let Some(policy) = &opts.checkpoint {
                if (e + 1) % policy.every == 0 {
                    save_checkpoint(policy, config_fp, &rt, rank, grid.total(), e + 1, &history)
                        .unwrap_or_else(|err| {
                            panic!("rank {}: checkpoint write failed: {}", rank, err)
                        });
                }
            }
        }
        (history, rt.ledger().clone())
    })
}

/// Train `epochs` on a `grid.total()`-rank world from either ingest path.
/// With the same permutation options the two paths produce bitwise
/// identical losses; only the memory ledgers differ.
///
/// Structural store problems — a raw store, a store without `labels.plx`
/// (written before labels were stored in node order), or files
/// missing/mis-sized against the manifest — surface as
/// [`TrainError::Loader`] before any rank thread starts, as do corrupt or
/// configuration-incompatible checkpoints.
///
/// **Without** `opts.checkpoint`: corruption discovered *during* the
/// per-rank window loads (checksum/version failures on an individual
/// shard) panics the failing rank, which poisons the world: ranks cannot
/// return early individually without deadlocking their peers' collectives.
/// The poison propagates out of this call as a panic, exactly as before.
///
/// **With** `opts.checkpoint`: the poisoned world is caught at this
/// boundary, the world is rebuilt, and the run resumes from the last
/// published checkpoint (or from scratch if none exists yet) — up to the
/// policy's `max_retries` times, after which the typed
/// [`TrainError::Unrecoverable`] carries the final panic message. A
/// recovered run is bitwise-identical to an uninterrupted one:
/// checkpoints capture the weights, both Adam states, the epoch counter
/// and history, and the ledger counters, while every random quantity is
/// seed-derived and pinned by the checkpoint's config fingerprint.
pub fn train_from_source(
    source: ProblemSource<'_>,
    grid: GridConfig,
    opts: &DistTrainOptions,
    epochs: usize,
) -> Result<DistRunResult, TrainError> {
    let prepared = match source {
        ProblemSource::InMemory(ds) => Prepared::InMemory(Arc::new(GlobalProblem::build(
            ds,
            grid,
            opts.hidden_dim,
            opts.num_layers,
            opts.model_seed,
            opts.permutation,
            opts.perm_seed,
        ))),
        ProblemSource::Sharded(store) => {
            // Catch structural problems before fanning out rank threads.
            if !store.has_labels() {
                return Err(LoaderError::Missing {
                    what: "labels.plx (raw stores lack it; a store preprocessed with \
                           per-parity label files gains it when preprocessed again)",
                }
                .into());
            }
            store.validate_files()?;
            let meta = ProblemMeta::from_store(store, grid, opts.hidden_dim, opts.num_layers);
            Prepared::Sharded { store, meta }
        }
    };
    // The sharded fingerprint pins the *store's* permutation and source
    // (opts.permutation is ignored on that path), so a checkpoint can
    // never be resumed against a different store.
    let config_fp = match &prepared {
        Prepared::InMemory(_) => {
            config_fingerprint(grid, opts, perm_tag(Some(opts.permutation)), opts.perm_seed, 0)
        }
        Prepared::Sharded { store, .. } => config_fingerprint(
            grid,
            opts,
            perm_tag(store.perm_mode),
            store.perm_seed,
            store.source_fp,
        ),
    };

    let attempts = 1 + opts.checkpoint.as_ref().map_or(0, |p| p.max_retries);
    let mut last_panic = String::new();
    for attempt in 0..attempts {
        let resume = preflight_resume(opts, grid, config_fp)?;
        let outcome = if opts.checkpoint.is_some() {
            // Only the checkpoint-enabled path catches rank panics;
            // without a policy a crash propagates exactly as it always
            // has (the `else` arm never unwinds into a catch).
            panic::catch_unwind(AssertUnwindSafe(|| {
                run_attempt(&prepared, grid, opts, epochs, config_fp, resume)
            }))
        } else {
            Ok(run_attempt(&prepared, grid, opts, epochs, config_fp, resume))
        };
        let (per_rank, traffic) = match outcome {
            Ok(r) => r,
            Err(payload) => {
                last_panic = panic_message(payload);
                continue;
            }
        };
        let (per_rank, memory): (Vec<Vec<DistEpochStats>>, Vec<MemoryLedger>) =
            per_rank.into_iter().unzip();
        // Every rank must report identical losses (deterministic
        // collectives).
        let reference: Vec<f64> = per_rank[0].iter().map(|e| e.loss).collect();
        for (rank, stats) in per_rank.iter().enumerate().skip(1) {
            for (e, (s, &r)) in stats.iter().zip(&reference).enumerate() {
                assert!(
                    (s.loss - r).abs() < 1e-12,
                    "rank {} epoch {} loss {} differs from rank 0's {}",
                    rank,
                    e,
                    s.loss,
                    r
                );
            }
        }
        return Ok(DistRunResult {
            grid,
            epochs: per_rank.into_iter().next().unwrap(),
            traffic,
            memory,
            recoveries: attempt,
        });
    }
    Err(TrainError::Unrecoverable { attempts, last_panic })
}

/// Resume an interrupted run: [`train_from_source`] with the additional
/// requirement that `opts.checkpoint` is set **and** a published
/// checkpoint already exists under its root — a missing checkpoint is a
/// typed error instead of a silent from-scratch restart. The continued
/// run is bitwise-identical to one that was never interrupted.
pub fn resume_from_checkpoint(
    source: ProblemSource<'_>,
    grid: GridConfig,
    opts: &DistTrainOptions,
    epochs: usize,
) -> Result<DistRunResult, TrainError> {
    let policy = opts.checkpoint.as_ref().ok_or(LoaderError::Missing {
        what: "checkpoint policy (set DistTrainOptions::checkpoint to resume)",
    })?;
    if Checkpoint::latest(&policy.dir)?.is_none() {
        return Err(LoaderError::Missing {
            what: "checkpoint (no published epoch under the checkpoint root)",
        }
        .into());
    }
    train_from_source(source, grid, opts, epochs)
}

/// Preprocess `ds` in RAM and train it for `epochs` on a
/// `grid.total()`-rank world. This is the main entry point of the engine;
/// [`train_from_source`] is the generalization that can also stream from a
/// [`ShardStore`].
pub fn train_distributed(
    ds: &LoadedDataset,
    grid: GridConfig,
    opts: &DistTrainOptions,
    epochs: usize,
) -> DistRunResult {
    train_from_source(ProblemSource::InMemory(ds), grid, opts, epochs)
        .expect("in-memory ingest cannot fail")
}

/// Result of a cost-only simulated run (see [`simulate_epochs`]).
pub struct SimRunReport {
    pub grid: GridConfig,
    /// Wall-clock stats of the simulated rank's local compute. Loss and
    /// accuracy values are **not meaningful** under SimComm's mirror
    /// semantics; the shapes and the schedule are.
    pub epochs: Vec<DistEpochStats>,
    /// Simulated communication seconds charged by the §4 ring equations.
    pub sim_comm_s: f64,
    /// The simulated rank's collective-traffic events.
    pub traffic: Vec<CommEvent>,
}

/// Run `epochs` of the per-rank training program on the cost-only
/// [`SimComm`] backend: one representative rank (rank 0) executes with its
/// true shard shapes while every collective charges the §4 ring-cost
/// equations at `cost`'s bandwidths. This makes grids far beyond one
/// machine — `GridConfig::new(16, 8, 8)`, 1024 "GPUs" — runnable as
/// perf-model studies in milliseconds.
///
/// The returned losses are not meaningful (peers don't execute; see the
/// `plexus_simnet::simcomm` docs); `sim_comm_s` and `traffic` are the
/// outputs that matter.
pub fn simulate_epochs(
    ds: &LoadedDataset,
    grid: GridConfig,
    opts: &DistTrainOptions,
    epochs: usize,
    cost: SimCostModel,
) -> SimRunReport {
    let gp = GlobalProblem::build(
        ds,
        grid,
        opts.hidden_dim,
        opts.num_layers,
        opts.model_seed,
        opts.permutation,
        opts.perm_seed,
    );
    let world = SimComm::world(grid.total(), cost);
    let clock = world.clock();
    let ctx = DistContext::with_spec(world, opts.grid_spec(grid));
    let mut rt = RankTrainer::new(&gp, ctx, opts);
    let stats: Vec<DistEpochStats> = (0..epochs).map(|_| rt.train_epoch()).collect();
    let traffic = rt.ctx().world.ledger().snapshot();
    SimRunReport { grid, epochs: stats, sim_comm_s: clock.elapsed(), traffic }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_comm::CollOp;
    use plexus_gnn::{SerialTrainer, TrainConfig};
    use plexus_graph::{DatasetKind, DatasetSpec, LoadedDataset};

    fn tiny_ds(nodes: usize, seed: u64) -> LoadedDataset {
        let spec = DatasetSpec {
            kind: DatasetKind::OgbnProducts,
            name: "tiny",
            nodes,
            edges: nodes * 8,
            nonzeros: nodes * 17,
            features: 12,
            classes: 6,
        };
        LoadedDataset::generate(spec, nodes, Some(12), seed)
    }

    fn serial_losses(ds: &LoadedDataset, hidden: usize, epochs: usize, seed: u64) -> Vec<f64> {
        let cfg = TrainConfig { hidden_dim: hidden, num_layers: 3, seed, ..Default::default() };
        let mut t = SerialTrainer::new(ds, &cfg);
        t.train(epochs).iter().map(|s| s.loss).collect()
    }

    fn assert_losses_close(a: &[f64], b: &[f64], tol: f64, what: &str) {
        assert_eq!(a.len(), b.len());
        for (e, (x, y)) in a.iter().zip(b).enumerate() {
            let denom = x.abs().max(y.abs()).max(1e-9);
            assert!(
                ((x - y) / denom).abs() < tol,
                "{}: epoch {} loss {} vs {} (rel {:.2e})",
                what,
                e,
                x,
                y,
                ((x - y) / denom).abs()
            );
        }
    }

    #[test]
    fn single_rank_grid_matches_serial_exactly() {
        let ds = tiny_ds(96, 5);
        let serial = serial_losses(&ds, 8, 4, 7);
        // The serial reference pins every engine residency policy at 1x1x1.
        for residency in [
            ResidencyPolicy::Resident,
            ResidencyPolicy::Spill { budget_bytes: 0 },
            ResidencyPolicy::Recompute,
        ] {
            let opts = DistTrainOptions {
                hidden_dim: 8,
                model_seed: 7,
                permutation: PermutationMode::None,
                residency,
                ..Default::default()
            };
            let dist = train_distributed(&ds, GridConfig::new(1, 1, 1), &opts, 4);
            let what = format!("1x1x1 {:?} vs serial", residency);
            assert_losses_close(&dist.losses(), &serial, 1e-6, &what);
        }
    }

    #[test]
    fn full_3d_grid_matches_serial() {
        // The Fig. 7 check: a 2x2x2 grid with double permutation must
        // produce the serial loss trajectory (up to f32 reassociation).
        let ds = tiny_ds(128, 9);
        let serial = serial_losses(&ds, 8, 5, 3);
        let opts = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 3,
            permutation: PermutationMode::Double,
            ..Default::default()
        };
        let dist = train_distributed(&ds, GridConfig::new(2, 2, 2), &opts, 5);
        assert_losses_close(&dist.losses(), &serial, 5e-3, "2x2x2 vs serial");
    }

    #[test]
    fn anisotropic_grids_match_serial() {
        let ds = tiny_ds(96, 11);
        let serial = serial_losses(&ds, 8, 3, 1);
        for (gx, gy, gz) in [(4, 1, 1), (1, 4, 1), (1, 1, 4), (2, 2, 1), (1, 2, 2)] {
            let opts = DistTrainOptions {
                hidden_dim: 8,
                model_seed: 1,
                permutation: PermutationMode::Double,
                ..Default::default()
            };
            let dist = train_distributed(&ds, GridConfig::new(gx, gy, gz), &opts, 3);
            assert_losses_close(
                &dist.losses(),
                &serial,
                5e-3,
                &format!("{}x{}x{} vs serial", gx, gy, gz),
            );
        }
    }

    #[test]
    fn blocked_aggregation_is_bitwise_identical() {
        let ds = tiny_ds(96, 13);
        let base = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 5,
            permutation: PermutationMode::Double,
            ..Default::default()
        };
        let unblocked = train_distributed(&ds, GridConfig::new(2, 1, 2), &base, 3);
        let blocked_opts =
            DistTrainOptions { aggregation: Aggregation::Blocked(4), ..base.clone() };
        let blocked = train_distributed(&ds, GridConfig::new(2, 1, 2), &blocked_opts, 3);
        for (a, b) in unblocked.losses().iter().zip(blocked.losses()) {
            assert_eq!(*a, b, "blocked aggregation changed the result");
        }
    }

    #[test]
    fn gemm_tuning_reassociates_nothing() {
        let ds = tiny_ds(96, 17);
        let base = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 5,
            permutation: PermutationMode::Single,
            tuning: GemmTuning::Default,
            ..Default::default()
        };
        let plain = train_distributed(&ds, GridConfig::new(2, 2, 1), &base, 3);
        let tuned_opts = DistTrainOptions { tuning: GemmTuning::Reordered, ..base.clone() };
        let tuned = train_distributed(&ds, GridConfig::new(2, 2, 1), &tuned_opts, 3);
        // Both arms sum each dW element in ascending-k order. The strided
        // reference kernel is never fused, so against the packed scalar
        // microkernel that is bitwise; against the FMA one it is the same
        // sum with one rounding per step instead of two.
        if plexus_tensor::fma_available() {
            assert_losses_close(&plain.losses(), &tuned.losses(), 1e-5, "GEMM tuning");
        } else {
            assert_eq!(plain.losses(), tuned.losses(), "GEMM tuning changed the result");
        }
    }

    #[test]
    fn overlapped_collectives_are_bitwise_identical() {
        // The §5.2 overlap moves waiting, not data: Blocking and
        // Overlapped must agree bitwise and issue the same collectives —
        // every rank's ledger equal event for event — with and without
        // blocked aggregation, on a full grid and on one whose Y and Z
        // groups have a single member.
        let ds = tiny_ds(96, 29);
        for grid in [GridConfig::new(2, 2, 2), GridConfig::new(2, 1, 1)] {
            for aggregation in [Aggregation::Unblocked, Aggregation::Blocked(3)] {
                let base = DistTrainOptions {
                    hidden_dim: 8,
                    model_seed: 5,
                    permutation: PermutationMode::Double,
                    aggregation,
                    overlap: CommOverlap::Blocking,
                    ..Default::default()
                };
                let blocking = train_distributed(&ds, grid, &base, 3);
                let overlapped_opts =
                    DistTrainOptions { overlap: CommOverlap::Overlapped, ..base.clone() };
                let overlapped = train_distributed(&ds, grid, &overlapped_opts, 3);
                let what = format!("{} {:?}", grid.label(), aggregation);
                assert_eq!(blocking.losses(), overlapped.losses(), "overlap changed {}", what);
                for (rank, (b, o)) in blocking.traffic.iter().zip(&overlapped.traffic).enumerate() {
                    assert_eq!(b, o, "overlap changed rank {}'s ledger under {}", rank, what);
                }
            }
        }
    }

    #[test]
    fn residency_policies_are_bitwise_identical() {
        // The activation-residency contract: Resident, Spill and
        // Recompute produce the same losses bit for bit — across
        // aggregation and overlap modes — while the ledger proves the
        // policies actually moved or dropped state.
        use crate::activation::ResidencyPolicy;
        let ds = tiny_ds(96, 53);
        for (aggregation, overlap) in [
            (Aggregation::Unblocked, CommOverlap::Blocking),
            (Aggregation::Unblocked, CommOverlap::Overlapped),
            (Aggregation::Blocked(3), CommOverlap::Overlapped),
        ] {
            let base = DistTrainOptions {
                hidden_dim: 8,
                model_seed: 5,
                permutation: PermutationMode::Double,
                aggregation,
                overlap,
                ..Default::default()
            };
            let grid = GridConfig::new(2, 1, 2);
            let resident = train_distributed(&ds, grid, &base, 3);
            let baseline_peak = resident.peak_activation_bytes();
            assert!(baseline_peak > 0, "resident runs must account activation bytes");

            let budget = baseline_peak / 2;
            let spill_opts = DistTrainOptions {
                residency: ResidencyPolicy::Spill { budget_bytes: budget },
                ..base.clone()
            };
            let spill = train_distributed(&ds, grid, &spill_opts, 3);
            assert_eq!(
                resident.losses(),
                spill.losses(),
                "spill diverged under {:?}/{:?}",
                aggregation,
                overlap
            );
            for (rank, m) in spill.memory.iter().enumerate() {
                assert!(m.activation_spill_events > 0, "rank {} never spilled", rank);
                assert_eq!(m.activation_spilled_bytes, m.activation_reloaded_bytes);
                assert!(
                    m.peak_activation_bytes <= budget,
                    "rank {} peak {} above budget {}",
                    rank,
                    m.peak_activation_bytes,
                    budget
                );
            }

            let recompute_opts =
                DistTrainOptions { residency: ResidencyPolicy::Recompute, ..base.clone() };
            let recompute = train_distributed(&ds, grid, &recompute_opts, 3);
            assert_eq!(
                resident.losses(),
                recompute.losses(),
                "recompute diverged under {:?}/{:?}",
                aggregation,
                overlap
            );
            for (rank, m) in recompute.memory.iter().enumerate() {
                assert!(m.activation_recompute_events > 0, "rank {} never recomputed", rank);
            }
            assert!(
                recompute.peak_activation_bytes() < baseline_peak,
                "recompute peak {} not below resident baseline {}",
                recompute.peak_activation_bytes(),
                baseline_peak
            );
        }
    }

    #[test]
    fn sparse_comm_plan_is_bitwise_identical() {
        // The sparse gather ships only the column support; rows outside it
        // are zero-filled and never read, so the loss trajectory must
        // match the dense plan bit for bit.
        let ds = tiny_ds(96, 59);
        let base = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 5,
            permutation: PermutationMode::Double,
            ..Default::default()
        };
        let grid = GridConfig::new(2, 1, 2);
        let dense = train_distributed(&ds, grid, &base, 3);
        let sparse_opts = DistTrainOptions { comm_plan: CommPlan::SparseRows, ..base.clone() };
        let sparse = train_distributed(&ds, grid, &sparse_opts, 3);
        assert_eq!(dense.losses(), sparse.losses(), "sparse gather changed the result");
        // The ledger must show the plan actually ran: sparse-gather events
        // replace the layer-0 dense all-gathers.
        let ops: Vec<_> = sparse.traffic[0].iter().map(|e| format!("{:?}", e.op)).collect();
        assert!(ops.iter().any(|o| o == "AllGatherRows"), "no sparse gather recorded: {:?}", ops);
    }

    #[test]
    fn replicated_features_match_serial() {
        // The 1.5D knob: c = 2 on a Gz = 4 grid stores each cluster's span
        // twice and gathers over 2 owners instead of 4. The feature-grad
        // sum completes in two stages (a different association), so the
        // comparison is to-tolerance like the other grid-vs-serial checks.
        let ds = tiny_ds(96, 61);
        let serial = serial_losses(&ds, 8, 3, 1);
        for comm_plan in [CommPlan::Dense, CommPlan::SparseRows] {
            let opts = DistTrainOptions {
                hidden_dim: 8,
                model_seed: 1,
                permutation: PermutationMode::Double,
                replication: 2,
                comm_plan,
                ..Default::default()
            };
            let dist = train_distributed(&ds, GridConfig::new(2, 1, 4), &opts, 3);
            assert_losses_close(
                &dist.losses(),
                &serial,
                5e-3,
                &format!("2x1x4 c=2 {:?} vs serial", comm_plan),
            );
        }
    }

    #[test]
    fn replicated_sparse_and_dense_plans_agree_bitwise() {
        // Sparse vs dense is a pure transport change at any fixed
        // replication factor: same contributions, same order.
        let ds = tiny_ds(96, 67);
        let base = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 5,
            permutation: PermutationMode::Double,
            replication: 2,
            ..Default::default()
        };
        let grid = GridConfig::new(1, 2, 4);
        let dense = train_distributed(&ds, grid, &base, 3);
        let sparse_opts = DistTrainOptions { comm_plan: CommPlan::SparseRows, ..base.clone() };
        let sparse = train_distributed(&ds, grid, &sparse_opts, 3);
        assert_eq!(dense.losses(), sparse.losses(), "plans diverged under replication");
    }

    #[test]
    fn simulated_512_rank_grid_runs_fast() {
        // The cost-only backend's headline: an 8x8x8 grid (512 simulated
        // GPUs) runs the full per-rank epoch program in one thread. The
        // test budget itself enforces "under a few seconds".
        let ds = tiny_ds(256, 31);
        let opts = DistTrainOptions { hidden_dim: 8, ..Default::default() };
        let report =
            simulate_epochs(&ds, GridConfig::new(8, 8, 8), &opts, 1, SimCostModel::new(25e9, 1e-6));
        assert!(report.sim_comm_s > 0.0, "ring equations must charge time");
        let groups: std::collections::HashSet<&str> =
            report.traffic.iter().map(|e| e.group).collect();
        assert!(groups.contains("x") && groups.contains("y") && groups.contains("z"));
        // Every recorded group size must be a grid axis (8) or the world.
        for e in &report.traffic {
            assert!(e.group_size == 8 || e.group_size == 512, "unexpected group {:?}", e);
        }
    }

    #[test]
    fn simulated_sparse_gather_beats_dense_at_scale() {
        // The sparse collectives' bar: on a low-degree RMAT input the 512-
        // and 1024-rank studies, with and without 1.5D replication, must
        // charge strictly fewer per-epoch feature-gather bytes under
        // SparseRows than Dense, with both sides read back from the
        // traffic ledger.
        let spec = DatasetSpec {
            kind: DatasetKind::OgbnProducts,
            name: "rmat-lowdeg",
            nodes: 4096,
            edges: 4096 * 4, // degree 4 → RMAT edge factor 2
            nonzeros: 4096 * 9,
            features: 16,
            classes: 6,
        };
        let ds = LoadedDataset::generate(spec, 4096, Some(16), 11);
        let epochs = 2;
        for grid in [GridConfig::new(8, 8, 8), GridConfig::new(16, 8, 8)] {
            for replication in [1, 2] {
                let run = |plan: CommPlan| {
                    let opts = DistTrainOptions {
                        hidden_dim: 16,
                        comm_plan: plan,
                        replication,
                        ..Default::default()
                    };
                    simulate_epochs(&ds, grid, &opts, epochs, SimCostModel::new(25e9, 1e-6))
                };
                let dense = run(CommPlan::Dense);
                let sparse = run(CommPlan::SparseRows);
                // The runs differ only in the layer-0 feature gather, so the
                // dense-AllGather byte difference on the feature-owner group
                // (Z, or under replication the `Gz / c` owners across the
                // replica clusters) isolates it.
                let owner = if replication > 1 { "zc" } else { "z" };
                let owner_allgather = |r: &SimRunReport| -> usize {
                    r.traffic
                        .iter()
                        .filter(|e| e.op == CollOp::AllGather && e.group == owner)
                        .map(|e| e.bytes)
                        .sum()
                };
                let dense_feature = owner_allgather(&dense) - owner_allgather(&sparse);
                let sparse_events: Vec<_> =
                    sparse.traffic.iter().filter(|e| e.op == CollOp::AllGatherRows).collect();
                let label = format!("{} rep {}", grid.label(), replication);
                assert_eq!(sparse_events.len(), epochs, "{label}: one sparse gather per epoch");
                let sparse_feature: usize = sparse_events.iter().map(|e| e.bytes).sum();
                assert!(
                    sparse_feature > 0 && sparse_feature < dense_feature,
                    "{label}: sparse feature-gather bytes {sparse_feature} not below dense \
                     {dense_feature}"
                );
            }
        }
    }

    #[test]
    fn traffic_ledger_reflects_3d_collectives() {
        let ds = tiny_ds(96, 19);
        let opts = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 5,
            permutation: PermutationMode::Double,
            ..Default::default()
        };
        let res = train_distributed(&ds, GridConfig::new(2, 2, 2), &opts, 1);
        assert_eq!(res.traffic.len(), 8);
        let groups: std::collections::HashSet<&str> =
            res.traffic[0].iter().map(|e| e.group).collect();
        assert!(groups.contains("x") && groups.contains("y") && groups.contains("z"));
    }

    #[test]
    fn sharded_source_matches_in_memory_bitwise() {
        // The out-of-core acceptance bar: training from a preprocessed
        // store reproduces the in-memory loss trajectory bit for bit,
        // while each rank's peak resident adjacency stays within a small
        // factor of the simnet analytic estimate.
        let ds = tiny_ds(128, 37);
        let dir = std::env::temp_dir().join(format!("plexus_src_equiv_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 5,
            permutation: PermutationMode::Double,
            ..Default::default()
        };
        let store =
            crate::loader::preprocess_to_store(&ds, &dir, opts.permutation, opts.perm_seed, 4, 4)
                .unwrap();
        let grid = GridConfig::new(2, 2, 2);
        let in_mem = train_from_source(ProblemSource::InMemory(&ds), grid, &opts, 4).unwrap();
        let sharded = train_from_source(ProblemSource::Sharded(&store), grid, &opts, 4).unwrap();
        for (e, (a, b)) in in_mem.losses().iter().zip(sharded.losses()).enumerate() {
            assert_eq!(*a, b, "epoch {} loss differs between ingest paths", e);
        }
        // Sharded ranks never hold the global copy of Â.
        assert!(
            sharded.peak_adjacency_bytes() < in_mem.peak_adjacency_bytes(),
            "sharded peak {} not below in-memory peak {}",
            sharded.peak_adjacency_bytes(),
            in_mem.peak_adjacency_bytes()
        );
        for ledger in &sharded.memory {
            assert!(ledger.bytes_read > 0);
        }
        // Cross-check against the analytic gpumem estimate.
        let meta = ProblemMeta::from_store(&store, grid, opts.hidden_dim, opts.num_layers);
        let estimate = plexus_simnet::estimate_rank_adjacency_bytes(
            ds.adjacency.nnz(),
            meta.n_pad,
            &meta.layer_splits(),
        );
        for (rank, ledger) in sharded.memory.iter().enumerate() {
            assert!(
                ledger.peak_adjacency_bytes < 4 * estimate
                    && 4 * ledger.peak_adjacency_bytes > estimate,
                "rank {} ledger peak {} far from estimate {}",
                rank,
                ledger.peak_adjacency_bytes,
                estimate
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_store_as_sharded_source_is_a_typed_error() {
        // A store without `labels.plx` is structurally unusable for
        // training: a raw store, or one preprocessed with per-parity label
        // files (`labels_e.plx`/`labels_o.plx` plus odd shards). The error
        // must surface as Err before any rank thread starts, not as a
        // mid-world panic; preprocessing the old directory again reuses
        // its shards, adds `labels.plx` and deletes the per-parity files
        // the old manifest listed.
        use crate::loader::{preprocess_to_store, LoaderError, ShardStore};
        let ds = tiny_ds(96, 41);
        let dir = std::env::temp_dir().join(format!("plexus_raw_src_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DistTrainOptions { hidden_dim: 8, ..Default::default() };
        let grid = GridConfig::new(2, 1, 1);
        let missing = |store: &ShardStore| {
            let res = train_from_source(ProblemSource::Sharded(store), grid, &opts, 1);
            matches!(res, Err(TrainError::Loader(LoaderError::Missing { .. })))
        };
        assert!(missing(&ShardStore::create(&dir, &ds.adjacency, &ds.features, 2, 2).unwrap()));

        let fresh = preprocess_to_store(&ds, &dir, opts.permutation, opts.perm_seed, 2, 2).unwrap();
        let manifest = std::fs::read_to_string(dir.join("manifest.txt")).unwrap();
        let line = manifest.lines().find(|l| l.starts_with("file labels.plx =")).unwrap();
        let old_lines = ["labels_e.plx", "labels_o.plx"].map(|name| {
            std::fs::copy(dir.join("labels.plx"), dir.join(name)).unwrap();
            line.replace("labels.plx", name)
        });
        std::fs::remove_file(dir.join("labels.plx")).unwrap();
        let old = manifest.replace(line, &old_lines.join("\n")).replace("q =", "parities = 2\nq =");
        std::fs::write(dir.join("manifest.txt"), old).unwrap();
        assert!(missing(&ShardStore::open(&dir).unwrap()));

        let again = preprocess_to_store(&ds, &dir, opts.permutation, opts.perm_seed, 2, 2).unwrap();
        assert_eq!(again.preprocess.files_written, 1, "only labels.plx is new");
        assert_eq!(again.preprocess.files_skipped, fresh.preprocess.files_written - 1);
        assert!(!missing(&again));
        for name in ["labels_e.plx", "labels_o.plx"] {
            assert!(!dir.join(name).exists(), "{name} survived the re-preprocess");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn kernel_allocations_stop_after_warmup() {
        // The workspace acceptance bar: after the warmup epochs have sized
        // every pool, forward+backward must perform zero heap allocations
        // for kernel outputs — across aggregation, overlap AND residency
        // modes (spill reloads draw from the store's pool; recompute
        // rebuilds draw from the layers' pools). And the pools must not
        // grow: a buffer no workspace handed out (a collective's own
        // result, the loss's gradient) recycled into a pool would never
        // count as an alloc event, yet add its bytes every epoch.
        use crate::activation::ResidencyPolicy;
        use plexus_comm::run_world;
        let ds = tiny_ds(96, 47);
        for (aggregation, overlap, residency) in [
            (Aggregation::Unblocked, CommOverlap::Blocking, ResidencyPolicy::Resident),
            (Aggregation::Unblocked, CommOverlap::Overlapped, ResidencyPolicy::Resident),
            (Aggregation::Blocked(3), CommOverlap::Overlapped, ResidencyPolicy::Resident),
            (
                Aggregation::Unblocked,
                CommOverlap::Overlapped,
                ResidencyPolicy::Spill { budget_bytes: 0 },
            ),
            (Aggregation::Blocked(3), CommOverlap::Overlapped, ResidencyPolicy::Recompute),
        ] {
            let opts = DistTrainOptions {
                hidden_dim: 8,
                model_seed: 5,
                permutation: PermutationMode::Double,
                aggregation,
                overlap,
                residency,
                ..Default::default()
            };
            let grid = GridConfig::new(2, 1, 2);
            let gp = GlobalProblem::build(
                &ds,
                grid,
                opts.hidden_dim,
                opts.num_layers,
                opts.model_seed,
                opts.permutation,
                opts.perm_seed,
            );
            let results = run_world(grid.total(), |comm| {
                let world = comm.split(0, comm.rank() as u64, "world");
                let ctx = DistContext::new(world, grid);
                let mut rt = RankTrainer::new(&gp, ctx, &opts);
                let pooled = |rt: &mut RankTrainer| -> Vec<usize> {
                    let mut bytes: Vec<usize> =
                        rt.layers.iter_mut().map(|l| l.workspace_mut().pooled_bytes()).collect();
                    bytes.push(rt.acts.pooled_bytes());
                    bytes
                };
                for _ in 0..2 {
                    rt.train_epoch();
                }
                let warmed = (rt.kernel_alloc_events(), pooled(&mut rt));
                let mut per_epoch = Vec::new();
                for _ in 0..3 {
                    rt.train_epoch();
                    per_epoch.push((rt.kernel_alloc_events(), pooled(&mut rt)));
                }
                (warmed, per_epoch)
            });
            for (rank, (warmed, per_epoch)) in results.iter().enumerate() {
                for (e, after) in per_epoch.iter().enumerate() {
                    assert_eq!(
                        warmed.0,
                        after.0,
                        "rank {} allocated in epoch {} under {:?}/{:?}/{:?}",
                        rank,
                        e + 2,
                        aggregation,
                        overlap,
                        residency
                    );
                    assert_eq!(
                        warmed.1,
                        after.1,
                        "rank {} pooled bytes (per layer, then the activation store) moved in \
                         epoch {} under {:?}/{:?}/{:?}",
                        rank,
                        e + 2,
                        aggregation,
                        overlap,
                        residency
                    );
                }
            }
        }
    }

    #[test]
    fn loss_decreases_under_3d_training() {
        let ds = tiny_ds(128, 23);
        let opts = DistTrainOptions {
            hidden_dim: 8,
            model_seed: 2,
            permutation: PermutationMode::Double,
            ..Default::default()
        };
        let res = train_distributed(&ds, GridConfig::new(2, 2, 2), &opts, 30);
        let l = res.losses();
        assert!(l.last().unwrap() < &(l[0] * 0.8), "3D training did not converge: {:?}", l);
    }
}
