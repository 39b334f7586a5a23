//! Fig. 6 — both panels.
//!
//! Left: impact of blocked aggregation (§5.2) on Isolate-3-8M. The paper
//! shows epoch time dropping from 836.7 -> 535.6 ms (16 GPUs) and
//! 575.5 -> 452.8 ms (32 GPUs), mostly from communication smoothing. Here
//! the functional engine runs a scaled Isolate instance with and without
//! blocking, reporting the same communication/computation split; at-scale
//! times additionally come from the machine model with the measured
//! variability multiplier. A third row per grid reruns the blocked epochs
//! under `CommOverlap::Overlapped` (§5.2's nonblocking collectives) and
//! asserts the losses did not change by a bit. The Blocking and Overlapped
//! rows issue identical collectives — the layer's one code path per recipe
//! only moves the waits — so any gap between them is overlap alone.
//!
//! Right: impact of the dW GEMM-order tuning (§5.3) on products-14M-like
//! shapes. The paper reduces the Grad_W GEMM from ~50 ms to negligible on
//! Frontier at 512+ GCDs by reordering the multiplication. Here the
//! strided TN kernel vs what `GemmTuning::Reordered` runs — the packed
//! kernel's TN, whose panel packing is the reorder — is *measured* on this
//! machine for the exact per-rank shard shapes.

use crate::Table;
use plexus::grid::GridConfig;
use plexus::layer::{Aggregation, CommOverlap};
use plexus::setup::PermutationMode;
use plexus::trainer::{train_distributed, DistTrainOptions};
use plexus_graph::{datasets::ISOLATE_3_8M, LoadedDataset};
use plexus_tensor::{gemm, gemm_reference_tn, uniform_matrix, Matrix, Trans};
use std::time::Instant;

fn left_panel() {
    let ds = LoadedDataset::generate(ISOLATE_3_8M, 2048, Some(32), 5);
    let mut t = Table::new(
        "Fig. 6 (left): blocked aggregation, Isolate-3-8M (scaled, functional run)",
        &["Ranks", "Aggregation", "Collectives", "Comm (ms)", "Comp (ms)", "Total (ms)"],
    );
    for grid in [GridConfig::new(2, 2, 2), GridConfig::new(4, 2, 2)] {
        let mut epoch_row = |aggregation, overlap| {
            let opts = DistTrainOptions {
                hidden_dim: 32,
                permutation: PermutationMode::Double,
                aggregation,
                overlap,
                ..Default::default()
            };
            let res = train_distributed(&ds, grid, &opts, 3);
            // Average the post-warmup epochs, as the paper does.
            let comm: f64 =
                res.epochs[1..].iter().map(|e| e.timing.comm_s).sum::<f64>() / 2.0 * 1e3;
            let comp: f64 =
                res.epochs[1..].iter().map(|e| e.timing.compute_s).sum::<f64>() / 2.0 * 1e3;
            t.row(vec![
                format!("{}", grid.total()),
                format!("{:?}", aggregation),
                format!("{:?}", overlap),
                format!("{:.1}", comm),
                format!("{:.1}", comp),
                format!("{:.1}", comm + comp),
            ]);
            res.losses()
        };
        // The paper's two bars isolate aggregation granularity on blocking
        // collectives; the third row adds the nonblocking ones.
        epoch_row(Aggregation::Unblocked, CommOverlap::Blocking);
        let blocking = epoch_row(Aggregation::Blocked(8), CommOverlap::Blocking);
        let overlapped = epoch_row(Aggregation::Blocked(8), CommOverlap::Overlapped);
        assert_eq!(blocking, overlapped, "{}: overlap changed the losses", grid.label());
    }
    t.print();
    println!("(paper, at scale: 16 GPUs 836.7 -> 535.6 ms; 32 GPUs 575.5 -> 452.8 ms)");
    println!("Blocking/Overlapped rows: losses bitwise equal on both grids.");
}

fn right_panel() {
    // Per-rank dW GEMM shapes for products-14M on 512/1024 GCDs: the
    // paper's Grad_W computation is H^T (N_loc x D_loc) times dQ
    // (N_loc x D_out_loc).
    let mut t = Table::new(
        "Fig. 6 (right): dW GEMM-order tuning (measured on this machine)",
        &["GCDs", "N_local", "Default TN (ms)", "Reordered (ms)", "Speedup"],
    );
    for (gcds, n_local) in [(512usize, 14_249_639usize / 512), (1024, 14_249_639 / 1024)] {
        let d_in = 128;
        let d_out = 64;
        let h = uniform_matrix(n_local, d_in, -1.0, 1.0, 1);
        let dq = uniform_matrix(n_local, d_out, -1.0, 1.0, 2);

        // The reference strided TN kernel — the production `gemm` packs
        // TN operands, so only the preserved reference path still measures
        // the §5.3 effect.
        let mut dw = Matrix::zeros(d_in, d_out);
        let t0 = Instant::now();
        gemm_reference_tn(&mut dw, &h, &dq, 1.0, 0.0);
        let tn_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut dw2 = Matrix::zeros(d_in, d_out);
        let t0 = Instant::now();
        gemm(&mut dw2, &h, Trans::T, &dq, Trans::N, 1.0, 0.0);
        let tuned_ms = t0.elapsed().as_secs_f64() * 1e3;

        // Same math, different kernel path.
        let max_diff = plexus_tensor::max_abs_diff(&dw, &dw2);
        assert!(max_diff < 1e-2, "tuned dW diverged: {}", max_diff);
        t.row(vec![
            format!("{}", gcds),
            format!("{}", n_local),
            format!("{:.1}", tn_ms),
            format!("{:.1}", tuned_ms),
            format!("{:.1}x", tn_ms / tuned_ms),
        ]);
    }
    t.print();
    println!("(paper, Frontier: Grad_W drops from ~50 ms to negligible; epoch 291.0 -> 248.2 ms");
    println!(" at 512 GCDs and 241.2 -> 198.7 ms at 1024 GCDs)");
}

pub(crate) fn run() {
    left_panel();
    right_panel();
}
