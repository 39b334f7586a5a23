//! The two in-memory training workloads. `agg_x2` is bound by SpMM and
//! collectives on a two-rank world; `gemm_x1` is bound by GEMM on one rank
//! with a two-thread kernel pool. Same trainer, same code below; only the
//! sizes differ.

use crate::common::{check_pinned, rel_diff, rmat_dataset, Report, Run, WindowClock};
use crate::probe;
use crate::span::{self_times_ns, Tracer};
use crate::stats::median;
use crate::traced::{self, TracedTrainer};
use plexus::dist::DistContext;
use plexus::grid::GridConfig;
use plexus::perfmodel::{comm_time, Workload};
use plexus::setup::{build_permutations, GlobalProblem, PermutationMode, RankData};
use plexus::trainer::{simulate_epochs, train_distributed, DistTrainOptions, RankTrainer};
use plexus_comm::{run_world, CommEvent, Communicator, ThreadComm};
use plexus_gnn::{AdamConfig, SerialTrainer, TrainConfig};
use plexus_graph::LoadedDataset;
use plexus_simnet::{MachineSpec, SimCostModel};
use plexus_sparse::apply_permutation;
use std::time::Instant;

pub struct TrainSpec {
    pub name: &'static str,
    pub scale: u32,
    pub edge_factor: usize,
    pub hidden: usize,
    pub grid: (usize, usize, usize),
    /// `PLEXUS_THREADS`; ranks x pool threads is at most 2.
    pub pool_threads: usize,
    /// Epochs per second on the reference box, which turns `--seconds`
    /// into a fixed epoch count.
    pub ops_per_second: f64,
    /// Epochs of the traced pass, and of its untraced twin.
    pub traced_ops: usize,
}

pub const AGG_X2: TrainSpec = TrainSpec {
    name: "agg_x2",
    scale: 14,
    edge_factor: 256,
    hidden: 128,
    grid: (2, 1, 1),
    pool_threads: 1,
    ops_per_second: 3.2,
    traced_ops: 20,
};

pub const GEMM_X1: TrainSpec = TrainSpec {
    name: "gemm_x1",
    scale: 14,
    edge_factor: 4,
    hidden: 256,
    grid: (1, 1, 1),
    pool_threads: 2,
    ops_per_second: 4.0,
    traced_ops: 16,
};

const CLASSES: usize = 16;
/// Well below the trainer's default of 1e-2. At the default the loss of
/// `gemm_x1` falls below 0.5 within the window, gradients underflow to
/// denormals, and the backward pass slows from 160 to 320 ms per epoch —
/// at an epoch index that differs from seed to seed, which no fixed op
/// count can cancel. At this rate the loss still falls every epoch and
/// every epoch costs the same.
const LEARNING_RATE: f32 = 3e-4;
/// Epochs 0-11 vary by tens of percent between runs (pools sizing, packed
/// panels, page faults); from epoch 12 on they repeat within a few
/// percent. The warm-up is part of `setup_s`.
const WARMUP: usize = 12;
/// Epochs of the serial reference trainer the losses are checked against.
const REFERENCE_EPOCHS: usize = 2;
/// The 3D engine reassociates f32 sums across ranks; the repo's own
/// equivalence tests use this tolerance.
const REFERENCE_TOL: f64 = 5e-3;

/// Final warm-up epoch's loss for the seeds the README reports, pinned so
/// that a change to the arithmetic shows even when both ranks agree.
const PINNED_LOSS: &[(&str, u64, f64)] = &[
    ("agg_x2", 1, 2.755477650),
    ("agg_x2", 2, 2.760469283),
    ("gemm_x1", 1, 2.650934049),
    ("gemm_x1", 2, 2.652697808),
];

impl TrainSpec {
    pub fn grid(&self) -> GridConfig {
        GridConfig::new(self.grid.0, self.grid.1, self.grid.2)
    }

    fn options(&self, run: &Run) -> DistTrainOptions {
        DistTrainOptions {
            hidden_dim: self.hidden,
            num_layers: 3,
            model_seed: run.subseed(3),
            permutation: PermutationMode::Double,
            perm_seed: run.subseed(4),
            adam: AdamConfig { lr: LEARNING_RATE, ..Default::default() },
            ..Default::default()
        }
    }

    fn dataset(&self, run: &Run) -> LoadedDataset {
        rmat_dataset(self.scale, self.edge_factor, self.hidden, CLASSES, run.subseed(0))
    }

    fn problem(&self, ds: &LoadedDataset, opts: &DistTrainOptions) -> GlobalProblem {
        GlobalProblem::build(
            ds,
            self.grid(),
            opts.hidden_dim,
            opts.num_layers,
            opts.model_seed,
            opts.permutation,
            opts.perm_seed,
        )
    }
}

fn context(comm: &ThreadComm, grid: GridConfig, opts: &DistTrainOptions) -> DistContext {
    // Duplicate the world communicator so the context can own it.
    let world = comm.split(0, comm.rank() as u64, "world");
    DistContext::with_spec(world, opts.grid_spec(grid))
}

/// What one rank reports from the untraced window.
struct RankOut {
    /// Loss of every epoch, warm-up included.
    losses: Vec<f64>,
    /// Rank 0 only.
    window: Option<crate::common::Window>,
}

pub fn run(spec: &TrainSpec, run: &Run) -> Report {
    let opts = spec.options(run);
    let grid = spec.grid();
    let ds = spec.dataset(run);
    let gp = spec.problem(&ds, &opts);
    let warmup = run.scaled(WARMUP);
    let timed = run.ops(spec.ops_per_second);

    let mut ranks = run_world(grid.total(), |comm| {
        let mut rt = RankTrainer::new(&gp, context(comm, grid, &opts), &opts);
        let mut losses = Vec::with_capacity(warmup + timed);
        for _ in 0..warmup {
            losses.push(rt.train_epoch().loss);
        }
        // An op is one epoch, timed on rank 0 from the barrier that ends
        // the previous epoch to the barrier that ends this one.
        comm.barrier();
        let clock = (comm.rank() == 0).then(|| WindowClock::open(run));
        let mut samples = Vec::with_capacity(timed);
        for _ in 0..timed {
            let t0 = Instant::now();
            losses.push(rt.train_epoch().loss);
            comm.barrier();
            samples.push(t0.elapsed().as_secs_f64() * 1e3);
        }
        RankOut { losses, window: clock.map(|c| c.close(samples, timed, 0)) }
    });

    let mut notes = vec![format!(
        "{}: RMAT scale {} edge factor {} -> {} nodes, {} nnz; hidden {}; grid {}; {} pool thread(s) per rank; {} warm-up + {} timed epochs",
        spec.name,
        spec.scale,
        spec.edge_factor,
        ds.num_nodes(),
        ds.adjacency.nnz(),
        spec.hidden,
        grid.label(),
        spec.pool_threads,
        warmup,
        timed
    )];
    let mut window = ranks[0].window.take().expect("rank 0 timed the window");

    let reference = &ranks[0].losses;
    // An epoch whose loss is not finite, or differs between ranks, failed.
    window.failed = (warmup..warmup + timed)
        .filter(|&e| {
            !reference[e].is_finite()
                || ranks.iter().any(|r| r.losses[e].to_bits() != reference[e].to_bits())
        })
        .count();

    let mut correct = check_against_serial(spec, run, &ds, reference, &mut notes);
    if !run.quick {
        let pinned = PINNED_LOSS.iter().find(|p| p.0 == spec.name && p.1 == run.seed).map(|p| p.2);
        let what = format!("epoch {} loss", WARMUP - 1);
        correct &= check_pinned(&what, reference[WARMUP - 1], pinned, &mut notes);
    }
    let (first, last) = (reference[0], reference[reference.len() - 1]);
    notes.push(format!("loss {first:.6} at epoch 0 -> {last:.6} after {} epochs", reference.len()));
    correct &= last < first;
    Report::end_to_end(&window, correct, notes)
}

/// The serial `plexus-gnn` trainer on the same dataset and model seed must
/// give the distributed engine's first losses to reassociation tolerance.
fn check_against_serial(
    spec: &TrainSpec,
    run: &Run,
    ds: &LoadedDataset,
    dist: &[f64],
    notes: &mut Vec<String>,
) -> bool {
    let mut serial = serial_trainer(spec, run, ds);
    let n = REFERENCE_EPOCHS.min(dist.len());
    let worst =
        serial.train(n).iter().zip(dist).map(|(s, &d)| rel_diff(s.loss, d)).fold(0.0, f64::max);
    let ok = worst < REFERENCE_TOL;
    notes.push(format!(
        "first {n} losses vs the serial trainer: worst relative difference {worst:.2e} (tolerance {REFERENCE_TOL:.0e}): {}",
        if ok { "ok" } else { "MISMATCH" }
    ));
    ok
}

fn serial_trainer(spec: &TrainSpec, run: &Run, ds: &LoadedDataset) -> SerialTrainer {
    let cfg = TrainConfig {
        hidden_dim: spec.hidden,
        seed: run.subseed(3),
        adam: AdamConfig { lr: LEARNING_RATE, ..Default::default() },
        ..Default::default()
    };
    SerialTrainer::new(ds, &cfg)
}

/// Rank 0's account of the traced pass.
struct TracedOut {
    untraced_ms: Vec<f64>,
    traced_ms: Vec<f64>,
    tracer: Tracer,
    compute_ms: Vec<f64>,
    comm_ms: Vec<f64>,
    /// Collective events of the traced epochs (the barrier between
    /// epochs is recorded before each epoch's events are taken).
    events: Vec<CommEvent>,
}

pub fn run_traced(spec: &TrainSpec, run: &Run) -> (Report, Tracer) {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tr = Tracer::new(run.start);
    let opts = spec.options(run);
    let grid = spec.grid();

    let s = tr.begin("graph.generate");
    let ds = spec.dataset(run);
    tr.end(s);
    let s = tr.begin("core.setup.global_problem");
    let gp = spec.problem(&ds, &opts);
    tr.end(s);
    m.push(("graph.generate_ms", tr.median_ms("graph.generate")));
    m.push(("core.setup.global_problem_ms", tr.median_ms("core.setup.global_problem")));

    let warmup = run.scaled(WARMUP);
    let ops = run.scaled(spec.traced_ops);

    // Untraced epochs through `train_epoch`, then the same epoch indices
    // through the traced spelling, in one world so both see the same box.
    let world = tr.begin("train.world");
    let mut ranks = run_world(grid.total(), |comm| {
        let rank0 = comm.rank() == 0;
        let mut rt = RankTrainer::new(&gp, context(comm, grid, &opts), &opts);
        let mut plain = Vec::with_capacity(warmup + ops);
        let mut untraced_ms = Vec::with_capacity(ops);
        for e in 0..warmup + ops {
            comm.barrier();
            let t0 = Instant::now();
            plain.push(rt.train_epoch().loss);
            if e >= warmup {
                untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        drop(rt);

        // Spans of construction and warm-up are not reported.
        let mut scratch = Tracer::new(run.start);
        let rd = RankData::extract(&gp, comm.rank());
        let shard_nnz: usize = rd.a_shards.iter().map(|a| a.nnz()).sum();
        let mut tt =
            TracedTrainer::new(&gp.meta, context(comm, grid, &opts), rd, &opts, &mut scratch);
        let mut out = TracedOut {
            untraced_ms,
            traced_ms: Vec::with_capacity(ops),
            tracer: Tracer::new(run.start),
            compute_ms: Vec::with_capacity(ops),
            comm_ms: Vec::with_capacity(ops),
            events: Vec::new(),
        };
        let mut bitwise = true;
        for (e, plain_loss) in plain.iter().enumerate() {
            comm.barrier();
            let timed = e >= warmup;
            if timed {
                comm.ledger().take();
                out.tracer.set_op((e - warmup) as u32);
            }
            let t0 = Instant::now();
            let stats = tt.epoch(if timed { &mut out.tracer } else { &mut scratch });
            if timed {
                out.traced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                out.compute_ms.push(stats.timing.compute_s * 1e3);
                out.comm_ms.push(stats.timing.comm_s * 1e3);
                out.events.extend(comm.ledger().take());
            }
            bitwise &= stats.loss.to_bits() == plain_loss.to_bits();
        }
        (rank0.then_some(out), shard_nnz, bitwise)
    });

    let shard_nnz: Vec<f64> = ranks.iter().map(|r| r.1 as f64).collect();
    let bitwise = ranks.iter().all(|r| r.2);
    let out = ranks[0].0.take().expect("rank 0 traced");
    tr.absorb(out.tracer, &world);
    tr.end(world);

    let epoch_ms = tr.median_ms(traced::EPOCH);
    m.push(("core.trainer.epoch_ms", epoch_ms));
    m.push(("core.trainer.span_coverage", span_coverage(&tr)));
    m.push((
        "trace.overhead_pct",
        (median(&out.traced_ms) / median(&out.untraced_ms) - 1.0) * 100.0,
    ));
    traced::push_span_metrics(&tr, &mut m);
    let (compute, comm) = (median(&out.compute_ms), median(&out.comm_ms));
    m.push(("core.layer.compute_ms", compute));
    m.push(("core.layer.comm_ms", comm));
    m.push(("core.layer.comm_share", comm / (compute + comm)));
    let bytes: usize = out.events.iter().map(|e| e.bytes).sum();
    m.push(("comm.bytes_per_op", bytes as f64 / ops as f64));
    m.push(("comm.calls_per_op", out.events.len() as f64 / ops as f64));
    let mean_nnz = shard_nnz.iter().sum::<f64>() / shard_nnz.len() as f64;
    m.push((
        "sparse.shard_nnz_imbalance",
        shard_nnz.iter().cloned().fold(0.0, f64::max) / mean_nnz,
    ));

    // Kernels and collectives of this workload's shapes, one at a time.
    let rd = RankData::extract(&gp, 0);
    probe::kernels(&rd, &mut m);
    let t0 = Instant::now();
    let (pr, pc) = build_permutations(opts.permutation, opts.perm_seed, ds.num_nodes());
    std::hint::black_box(apply_permutation(&ds.adjacency, &pr, &pc));
    m.push(("sparse.permute_ms", t0.elapsed().as_secs_f64() * 1e3));

    let mut notes = vec![format!(
        "{}: traced pass, {} warm-up + {} epochs untraced, then the same traced; kernel pool {} thread(s)",
        spec.name, warmup, ops, spec.pool_threads
    )];
    notes.push(format!(
        "traced loss bitwise equal to train_epoch on every epoch: {}",
        if bitwise { "yes" } else { "NO" }
    ));
    if grid.total() == 1 {
        serial_baseline(spec, run, &ds, epoch_ms, &mut m);
    } else {
        probe::collectives(rd.a_shards[0].rows() * rd.f_stored.cols(), &mut m);
        eight_rank_counts(spec, run, &ds, &opts, &mut m, &mut notes);
    }
    let report = Report { attempted: ops, failed: 0, correct: bitwise, metrics: m, notes };
    (report, tr)
}

/// Share of the epoch spans' time that their direct children cover,
/// median over epochs.
pub fn span_coverage(tr: &Tracer) -> f64 {
    let selfs = self_times_ns(tr.spans());
    let shares: Vec<f64> = tr
        .spans()
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == traced::EPOCH)
        .map(|(s, self_ns)| 1.0 - self_ns as f64 / s.dur_ns() as f64)
        .collect();
    median(&shares)
}

/// The plain single-worker baseline: the `plexus-gnn` serial trainer on
/// the same problem, and what the 3D engine costs over it on one rank.
fn serial_baseline(
    spec: &TrainSpec,
    run: &Run,
    ds: &LoadedDataset,
    epoch_ms: f64,
    m: &mut Vec<(&'static str, f64)>,
) {
    let mut serial = serial_trainer(spec, run, ds);
    let warmup = run.scaled(WARMUP);
    serial.train(warmup);
    let ms: Vec<f64> =
        serial.train(run.scaled(spec.traced_ops)).iter().map(|s| s.seconds * 1e3).collect();
    let serial_ms = median(&ms);
    m.push(("gnn.serial_epoch_ms", serial_ms));
    m.push(("core.trainer.overhead_vs_serial", epoch_ms / serial_ms - 1.0));
}

/// The same problem on a 2x2x2 world for three epochs: eight rank threads
/// on two cores, so only counts are taken from it — beside what `SimComm`
/// and the section-4 model say the same epochs move.
fn eight_rank_counts(
    spec: &TrainSpec,
    run: &Run,
    ds: &LoadedDataset,
    opts: &DistTrainOptions,
    m: &mut Vec<(&'static str, f64)>,
    notes: &mut Vec<String>,
) {
    const EPOCHS: usize = 3;
    let g8 = GridConfig::new(2, 2, 2);
    let epochs = run.scaled(EPOCHS);
    let measured = train_distributed(ds, g8, opts, epochs);
    let bytes: usize = measured.traffic[0].iter().map(|e| e.bytes).sum();
    m.push(("comm.g8.bytes_per_op", bytes as f64 / epochs as f64));
    m.push(("comm.g8.calls_per_op", measured.traffic[0].len() as f64 / epochs as f64));

    // Unit bandwidth and no latency turn simulated seconds into the bytes
    // the ring equations charge; the closed-form model is asked the same.
    let sim = simulate_epochs(ds, g8, opts, epochs, SimCostModel::new(1.0, 0.0));
    let sim_bytes: usize = sim.traffic.iter().map(|e| e.bytes).sum();
    m.push(("simnet.g8.bytes_per_op", sim_bytes as f64 / epochs as f64));
    let unit = MachineSpec {
        name: "unit-bandwidth",
        gpus_per_node: g8.total(),
        beta_intra: 1.0,
        beta_inter: 1.0,
        latency: 0.0,
        ..plexus_simnet::perlmutter()
    };
    let w = Workload::new(ds.num_nodes(), ds.adjacency.nnz(), spec.hidden, spec.hidden, CLASSES, 3);
    let model = comm_time(&w, g8, &unit);
    let charged = sim.sim_comm_s / epochs as f64;
    m.push(("core.perfmodel.bytes_rel_err", (model - charged) / charged));
    notes.push(format!(
        "2x2x2 world, {epochs} epochs: rank-0 ledger {bytes} B, SimComm ledger {sim_bytes} B; ring-weighted bytes per epoch: section-4 model {model:.0}, SimComm {charged:.0}"
    ));
}
