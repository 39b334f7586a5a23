//! What every workload shares: the run's arguments, seeded inputs, the
//! timed window and how the six end-to-end metrics are computed from it.

use crate::stats::{hi_percentile, median, percentile};
use crate::sys;
use plexus_graph::{
    degree_based_labels, rmat_edge_chunks, train_val_test_masks, DatasetKind, DatasetSpec, Graph,
    LoadedDataset,
};
use plexus_tensor::uniform_matrix;
use std::path::PathBuf;
use std::time::Instant;

/// One run's arguments, as the workloads see them.
pub struct Run {
    /// Taken first thing in `main`; `setup_s` counts from here.
    pub start: Instant,
    pub seed: u64,
    pub seconds: f64,
    /// Op counts divided by ten, same shapes.
    pub quick: bool,
    /// Scratch directory inside the checkout; removed when the run ends.
    pub work: PathBuf,
}

impl Run {
    /// How many ops a timed window holds. A fixed count from `--seconds`
    /// and the workload's rate on the reference box, never a deadline:
    /// epoch time drifts with the epoch index, so only equal op sets
    /// compare between two commits.
    pub fn ops(&self, per_second: f64) -> usize {
        self.scaled((self.seconds * per_second).round() as usize)
    }

    /// A fixed count (warm-up ops, traced ops), shortened under `--quick`.
    pub fn scaled(&self, n: usize) -> usize {
        if self.quick { n.div_ceil(10) } else { n }.max(1)
    }

    /// Seeds of the parts of one run, all derived from `--seed`.
    pub fn subseed(&self, stream: u64) -> u64 {
        self.seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(stream)
    }
}

/// An RMAT graph with uniform features, degree-based labels and a 60/20/20
/// split — the recipe of the repo's own examples.
pub fn rmat_dataset(
    scale: u32,
    edge_factor: usize,
    features: usize,
    classes: usize,
    seed: u64,
) -> LoadedDataset {
    let n = 1usize << scale;
    let graph =
        Graph::from_undirected_chunks(n, rmat_edge_chunks(scale, edge_factor, seed, 1 << 20));
    let adjacency = graph.normalized_adjacency();
    let spec = DatasetSpec {
        kind: DatasetKind::OgbnProducts,
        name: "rmat-benchmark",
        nodes: n,
        edges: graph.num_edges(),
        nonzeros: adjacency.nnz(),
        features,
        classes,
    };
    let features = uniform_matrix(n, features, -0.5, 0.5, seed.wrapping_add(1));
    let labels = degree_based_labels(&graph, classes);
    let split = train_val_test_masks(n, 0.6, 0.2, seed.wrapping_add(2));
    LoadedDataset { spec, graph, adjacency, features, labels, split, num_classes: classes }
}

/// The timed window of an untraced run.
pub struct Window {
    /// Process start to the first timed op, warm-up included.
    pub setup_s: f64,
    /// Latency of every op that is a sample, in op order.
    pub samples_ms: Vec<f64>,
    /// Every op run inside the window, samples or not.
    pub ops: usize,
    pub failed: usize,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Marks the two ends of a timed window.
pub struct WindowClock {
    setup_s: f64,
    wall: Instant,
    cpu0: f64,
}

impl WindowClock {
    /// Call immediately before the first timed op.
    pub fn open(run: &Run) -> Self {
        WindowClock {
            setup_s: run.start.elapsed().as_secs_f64(),
            wall: Instant::now(),
            cpu0: sys::cpu_seconds(),
        }
    }

    /// Call immediately after the last timed op.
    pub fn close(self, samples_ms: Vec<f64>, ops: usize, failed: usize) -> Window {
        Window {
            setup_s: self.setup_s,
            wall_s: self.wall.elapsed().as_secs_f64(),
            cpu_s: sys::cpu_seconds() - self.cpu0,
            samples_ms,
            ops,
            failed,
        }
    }
}

/// What a workload hands back to `main`.
pub struct Report {
    pub attempted: usize,
    pub failed: usize,
    /// Output checks that are not tied to one op (pinned loss, reference
    /// trainer, bitwise traced loss).
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the human reader: sizes, sample counts, check results.
    pub notes: Vec<String>,
}

impl Report {
    /// The six end-to-end metrics of an untraced run.
    pub fn end_to_end(w: &Window, correct: bool, mut notes: Vec<String>) -> Report {
        let mut sorted = w.samples_ms.clone();
        sorted.sort_by(f64::total_cmp);
        let hi = hi_percentile(sorted.len());
        notes.push(format!(
            "samples {}  ops attempted {}  ops failed {}  op_hi_ms is p{:.0}  timed window {:.2} s",
            sorted.len(),
            w.ops,
            w.failed,
            hi * 100.0,
            w.wall_s
        ));
        Report {
            attempted: w.ops,
            failed: w.failed,
            correct,
            metrics: vec![
                ("setup_s", w.setup_s),
                ("op_ms", median(&sorted)),
                ("op_hi_ms", percentile(&sorted, hi)),
                ("ops_per_s", w.ops as f64 / w.wall_s),
                ("cpu_ms_per_op", w.cpu_s * 1e3 / w.ops as f64),
                ("peak_rss_mb", sys::peak_rss_mb()),
            ],
            notes,
        }
    }
}

/// Compare `loss` (described by `what`) with the value pinned for this
/// seed, if there is one: a change to the arithmetic must show even when
/// every rank agrees with every other.
pub fn check_pinned(what: &str, loss: f64, pinned: Option<f64>, notes: &mut Vec<String>) -> bool {
    let Some(want) = pinned else {
        notes.push(format!("{what} {loss:.9} (this seed has no pin)"));
        return true;
    };
    let ok = rel_diff(loss, want) <= 1e-5;
    notes.push(format!(
        "{what} {loss:.9} vs pinned {want:.9}: {}",
        if ok { "ok" } else { "MISMATCH" }
    ));
    ok
}

/// Relative difference `|a - b| / max(|a|, |b|)`.
pub fn rel_diff(a: f64, b: f64) -> f64 {
    (a - b).abs() / a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}
