//! `ooc_x2`: the trainer used through its writing side. One op is a whole
//! store-fed lifecycle — validate the shard store, load two ranks' windows
//! from it, train four epochs with activations spilled to disk under a
//! 1 MiB budget and sparse-row feature gathers, publish two checkpoints
//! into a fresh directory. About half of an op is outside the epochs, so a
//! kernel gain moves it by at most half and an I/O-path cost moves only it.

use crate::common::{check_pinned, rmat_dataset, Report, Run, WindowClock};
use crate::span::Tracer;
use crate::stats::median;
use crate::traced::{self, TracedTrainer};
use plexus::activation::{ActivationStats, ResidencyPolicy};
use plexus::checkpoint::{Checkpoint, CheckpointPolicy};
use plexus::dist::DistContext;
use plexus::grid::GridConfig;
use plexus::layer::CommPlan;
use plexus::loader::{preprocess_to_store, MemoryLedger, ShardStore};
use plexus::setup::{PermutationMode, ProblemMeta, RankData};
use plexus::trainer::{train_from_source, DistRunResult, DistTrainOptions, ProblemSource};
use plexus_comm::{run_world, CollOp, Communicator};
use plexus_graph::LoadedDataset;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub const NAME: &str = "ooc_x2";
const SCALE: u32 = 15;
const EDGE_FACTOR: usize = 16;
const HIDDEN: usize = 32;
const CLASSES: usize = 16;
const STORE_GRID: usize = 4;
const SPILL_BUDGET: u64 = 1 << 20;
const EPOCHS_PER_OP: usize = 4;
const CHECKPOINT_EVERY: usize = 2;
const WARMUP_OPS: usize = 3;
/// Ops per second on the reference box.
const OPS_PER_SECOND: f64 = 1.25;
/// Ops of each arm of the traced pass.
const TRACED_OPS: usize = 6;

const VALIDATE: &str = "core.loader.validate";
const WINDOW_LOAD: &str = "core.loader.window_load";

/// Loss after an op's four epochs, for the seeds the README reports.
const PINNED_LOSS: &[(u64, f64)] = &[(1, 2.660453187), (2, 2.679683792)];

fn grid() -> GridConfig {
    GridConfig::new(2, 1, 1)
}

fn options(run: &Run) -> DistTrainOptions {
    DistTrainOptions {
        hidden_dim: HIDDEN,
        num_layers: 3,
        model_seed: run.subseed(3),
        permutation: PermutationMode::Double,
        perm_seed: run.subseed(4),
        residency: ResidencyPolicy::Spill { budget_bytes: SPILL_BUDGET },
        comm_plan: CommPlan::SparseRows,
        ..Default::default()
    }
}

fn dataset(run: &Run) -> LoadedDataset {
    rmat_dataset(SCALE, EDGE_FACTOR, HIDDEN, CLASSES, run.subseed(0))
}

/// Preprocess into the work directory, then open the store the way a
/// training process would.
fn build_store(run: &Run, ds: &LoadedDataset, opts: &DistTrainOptions) -> ShardStore {
    let dir = run.work.join("store");
    preprocess_to_store(ds, &dir, opts.permutation, opts.perm_seed, STORE_GRID, STORE_GRID)
        .expect("preprocess_to_store");
    ShardStore::open(&dir).expect("open the preprocessed store")
}

/// Runs ops one after another, each into its own checkpoint directory.
struct Lifecycle<'a> {
    store: &'a ShardStore,
    opts: DistTrainOptions,
    root: PathBuf,
    next: usize,
}

impl Lifecycle<'_> {
    /// One op; `checkpoints` off is the arm the checkpoint stall is
    /// derived against. Returns the run and the directory it wrote.
    fn op(&mut self, checkpoints: bool) -> (DistRunResult, PathBuf) {
        let dir = self.root.join(format!("ckpt_{}", self.next));
        self.next += 1;
        let opts = DistTrainOptions {
            checkpoint: checkpoints
                .then(|| CheckpointPolicy::new(&dir).every(CHECKPOINT_EVERY).max_retries(0)),
            ..self.opts.clone()
        };
        let res =
            train_from_source(ProblemSource::Sharded(self.store), grid(), &opts, EPOCHS_PER_OP)
                .expect("store-fed training run");
        (res, dir)
    }

    /// `n` untimed ops; returns the losses every later op must reproduce.
    fn warm_up(&mut self, n: usize) -> Vec<f64> {
        let mut reference = Vec::new();
        for _ in 0..n {
            let (res, dir) = self.op(true);
            reference = res.losses();
            std::fs::remove_dir_all(dir).expect("remove checkpoint directory");
        }
        reference
    }
}

/// The op's output check: the losses of the reference op bit for bit (every
/// op is the same computation from scratch), no recovery, and a published
/// checkpoint of the final epoch.
fn op_ok(res: &DistRunResult, dir: &Path, reference: &[f64]) -> bool {
    let same = res.epochs.len() == reference.len()
        && res.epochs.iter().zip(reference).all(|(e, r)| e.loss.to_bits() == r.to_bits());
    let published =
        matches!(Checkpoint::latest(dir), Ok(Some(ck)) if ck.epochs_done() == EPOCHS_PER_OP);
    same && res.recoveries == 0 && published
}

pub fn run(run: &Run) -> Report {
    let opts = options(run);
    let ds = dataset(run);
    let store = build_store(run, &ds, &opts);
    let mut life = Lifecycle { store: &store, opts: opts.clone(), root: run.work.clone(), next: 0 };
    let warmup = run.scaled(WARMUP_OPS);
    let timed = run.ops(OPS_PER_SECOND);

    let reference = life.warm_up(warmup);

    let clock = WindowClock::open(run);
    let mut samples = Vec::with_capacity(timed);
    let mut failed = 0;
    for _ in 0..timed {
        let t0 = Instant::now();
        let (res, dir) = life.op(true);
        samples.push(t0.elapsed().as_secs_f64() * 1e3);
        failed += usize::from(!op_ok(&res, &dir, &reference));
        // Not part of the op's latency: the next op needs a fresh
        // directory, not this one gone.
        std::fs::remove_dir_all(dir).expect("remove checkpoint directory");
    }
    let window = clock.close(samples, timed, failed);

    let mut notes = vec![format!(
        "{NAME}: RMAT scale {SCALE} edge factor {EDGE_FACTOR} -> {} nodes, {} nnz; hidden {HIDDEN}; {STORE_GRID}x{STORE_GRID} store; grid {}; 1 pool thread per rank; op = {EPOCHS_PER_OP} epochs + checkpoint every {CHECKPOINT_EVERY}; {warmup} warm-up + {timed} timed ops",
        ds.num_nodes(),
        ds.adjacency.nnz(),
        grid().label(),
    )];
    let mut correct = check_against_in_memory(&ds, &opts, &reference, &mut notes);
    let pinned = PINNED_LOSS.iter().find(|p| p.0 == run.seed).map(|p| p.1);
    correct &= check_pinned("op loss", reference[EPOCHS_PER_OP - 1], pinned, &mut notes);
    Report::end_to_end(&window, correct, notes)
}

/// The store-fed path must reproduce the in-memory path bit for bit.
fn check_against_in_memory(
    ds: &LoadedDataset,
    opts: &DistTrainOptions,
    sharded: &[f64],
    notes: &mut Vec<String>,
) -> bool {
    let in_mem = train_from_source(ProblemSource::InMemory(ds), grid(), opts, EPOCHS_PER_OP)
        .expect("in-memory reference run")
        .losses();
    let ok = in_mem.len() == sharded.len()
        && in_mem.iter().zip(sharded).all(|(a, b)| a.to_bits() == b.to_bits());
    notes.push(format!(
        "store-fed losses bitwise equal to the in-memory path: {}",
        if ok { "yes" } else { "NO" }
    ));
    ok
}

/// The op spelled out from public pieces, without checkpoints (their
/// writers are private to the trainer): validate, then per rank load the
/// windows and run traced epochs. Returns rank 0's losses, load ledger and
/// activation counters.
fn traced_op(
    store: &ShardStore,
    opts: &DistTrainOptions,
    tr: &mut Tracer,
) -> (Vec<f64>, MemoryLedger, ActivationStats) {
    let op = tr.begin("ooc.op");
    let s = tr.begin(VALIDATE);
    store.validate_files().expect("store validation");
    tr.end(s);
    let meta = ProblemMeta::from_store(store, grid(), opts.hidden_dim, opts.num_layers);
    let (origin, op_id) = (tr.origin(), tr.current_op());
    let mut ranks = run_world(grid().total(), |comm| {
        let mut tr = Tracer::new(origin);
        tr.set_op(op_id);
        let s = tr.begin(WINDOW_LOAD);
        let (rd, ledger) = RankData::load_from_store(store, &meta, comm.rank(), opts.model_seed)
            .expect("window load");
        tr.end(s);
        let world = comm.split(0, comm.rank() as u64, "world");
        let ctx = DistContext::with_spec(world, opts.grid_spec(grid()));
        let mut tt = TracedTrainer::new(&meta, ctx, rd, opts, &mut tr);
        let losses: Vec<f64> = (0..EPOCHS_PER_OP).map(|_| tt.epoch(&mut tr).loss).collect();
        (tr, losses, ledger, tt.activation_stats())
    });
    let (rank_tr, losses, ledger, acts) = ranks.swap_remove(0);
    tr.absorb(rank_tr, &op);
    tr.end(op);
    (losses, ledger, acts)
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

pub fn run_traced(run: &Run) -> (Report, Tracer) {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tr = Tracer::new(run.start);
    let opts = options(run);

    let s = tr.begin("graph.generate");
    let ds = dataset(run);
    tr.end(s);
    let s = tr.begin("core.loader.preprocess");
    let store = build_store(run, &ds, &opts);
    tr.end(s);
    let store_bytes = store.total_bytes().expect("store size") as f64;
    let preprocess_ms = tr.median_ms("core.loader.preprocess");
    m.push(("graph.generate_ms", tr.median_ms("graph.generate")));
    m.push(("core.loader.preprocess_ms", preprocess_ms));
    m.push(("core.loader.preprocess_mb_per_s", store_bytes / 1e6 / (preprocess_ms / 1e3)));
    m.push(("core.loader.store_bytes", store_bytes));

    let mut life = Lifecycle { store: &store, opts: opts.clone(), root: run.work.clone(), next: 0 };
    let ops = run.scaled(TRACED_OPS);
    let reference = life.warm_up(run.scaled(WARMUP_OPS));

    // Three arms of the same op count: with checkpoints, without, traced.
    let mut time_arm = |checkpoints: bool| -> (Vec<f64>, DistRunResult, PathBuf) {
        let mut ms = Vec::with_capacity(ops);
        let mut last = None;
        for _ in 0..ops {
            let t0 = Instant::now();
            let out = life.op(checkpoints);
            ms.push(t0.elapsed().as_secs_f64() * 1e3);
            // Keep only the newest directory: restore is timed on it.
            if let Some((_, old)) = last.replace(out) {
                let _ = std::fs::remove_dir_all(old);
            }
        }
        let (res, dir) = last.expect("at least one op");
        (ms, res, dir)
    };
    let (with_ms, _, ckpt_dir) = time_arm(true);
    let (without_ms, sparse_run, _) = time_arm(false);

    let t0 = Instant::now();
    let ck =
        Checkpoint::latest(&ckpt_dir).expect("read checkpoint").expect("a published checkpoint");
    for rank in 0..grid().total() {
        std::hint::black_box(ck.load_rank(rank).expect("load checkpoint rank"));
    }
    m.push(("core.checkpoint.restore_ms", t0.elapsed().as_secs_f64() * 1e3));
    m.push(("core.checkpoint.bytes", dir_bytes(&ckpt_dir) as f64));
    let stall_ms = median(&with_ms) - median(&without_ms);
    let publishes = (EPOCHS_PER_OP / CHECKPOINT_EVERY) as f64;
    m.push(("core.checkpoint.stall_ms", stall_ms / publishes));
    let _ = std::fs::remove_dir_all(ckpt_dir);

    let mut counts = None;
    let mut traced_ms = Vec::with_capacity(ops);
    let mut bitwise = true;
    for i in 0..ops {
        tr.set_op(i as u32);
        let t0 = Instant::now();
        let (losses, ledger, acts) = traced_op(&store, &opts, &mut tr);
        traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        counts = Some((ledger, acts));
        bitwise &= losses.iter().zip(&reference).all(|(a, b)| a.to_bits() == b.to_bits());
    }
    let op_ms = median(&traced_ms);
    let epochs_ms = tr.median_ms(traced::EPOCH);
    m.push(("trace.overhead_pct", (op_ms / median(&without_ms) - 1.0) * 100.0));
    m.push(("core.trainer.epoch_ms", epochs_ms));
    m.push(("core.trainer.non_epoch_share", 1.0 - epochs_ms / op_ms));
    // Time on the reading and writing side of the op, inside or outside
    // the epochs, over the op with its checkpoint publishes.
    let stall_ms = stall_ms.max(0.0);
    let io_ms: f64 = [VALIDATE, WINDOW_LOAD, traced::ACT_INSERT, traced::ACT_FETCH]
        .iter()
        .map(|span| tr.median_ms(span))
        .sum();
    m.push(("core.trainer.io_share", (io_ms + stall_ms) / (op_ms + stall_ms)));
    m.push(("core.trainer.span_coverage", crate::train::span_coverage(&tr)));
    m.push(("core.loader.validate_ms", tr.median_ms(VALIDATE)));
    m.push(("core.loader.window_load_ms", tr.median_ms(WINDOW_LOAD)));
    traced::push_span_metrics(&tr, &mut m);
    // Exact counts of one op on rank 0; every op's are the same.
    let (ledger, acts) = counts.expect("at least one traced op");
    m.push(("core.loader.bytes_read", ledger.bytes_read as f64));
    m.push(("core.loader.bytes_skipped", ledger.bytes_skipped as f64));
    m.push(("core.activation.spill_bytes_per_op", acts.spilled_bytes as f64));
    m.push(("core.activation.peak_bytes", acts.peak_resident_bytes as f64));

    // Layer-0 feature gather bytes on rank 0, sparse rows over dense: the
    // two runs differ in nothing else, so the dense gather is what the
    // feature-owner group's all-gathers lose when the plan goes sparse.
    let dense_opts = DistTrainOptions { comm_plan: CommPlan::Dense, ..opts.clone() };
    let dense_run =
        train_from_source(ProblemSource::Sharded(&store), grid(), &dense_opts, EPOCHS_PER_OP)
            .expect("dense-plan run");
    let gathered = |r: &DistRunResult, op: CollOp| -> usize {
        r.traffic[0].iter().filter(|e| e.op == op).map(|e| e.bytes).sum()
    };
    let dense_bytes =
        gathered(&dense_run, CollOp::AllGather) - gathered(&sparse_run, CollOp::AllGather);
    let sparse_bytes = gathered(&sparse_run, CollOp::AllGatherRows);
    m.push(("comm.sparse_rows_byte_ratio", sparse_bytes as f64 / dense_bytes as f64));
    let events: Vec<_> = sparse_run.traffic[0].iter().filter(|e| e.op != CollOp::Barrier).collect();
    m.push(("comm.bytes_per_op", events.iter().map(|e| e.bytes).sum::<usize>() as f64));
    m.push(("comm.calls_per_op", events.len() as f64));

    let notes = vec![
        format!(
            "{NAME}: traced pass, {ops} ops with checkpoints, {ops} without, {ops} spelled out with spans (no checkpoints)"
        ),
        format!(
            "op medians: {:.1} ms with checkpoints, {:.1} ms without, {:.1} ms traced; checkpoint stall is derived from the first two",
            median(&with_ms),
            median(&without_ms),
            op_ms
        ),
        format!(
            "traced losses bitwise equal to train_from_source: {}",
            if bitwise { "yes" } else { "NO" }
        ),
    ];
    (Report { attempted: ops, failed: 0, correct: bitwise, metrics: m, notes }, tr)
}
