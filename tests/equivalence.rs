//! Cross-system equivalence: every distributed trainer in the workspace —
//! the 3D engine under several grids and both §5 optimizations, BNS-style
//! partition parallelism, and CAGNET 1D — must reproduce the serial
//! full-graph loss trajectory. This is the strongest correctness statement
//! the reproduction makes (the paper's Fig. 7, extended to the baselines).

use plexus::grid::GridConfig;
use plexus::layer::{Aggregation, GemmTuning};
use plexus::setup::PermutationMode;
use plexus::trainer::{train_distributed, DistTrainOptions};
use plexus_baselines::{train_bns, train_cagnet_1d};
use plexus_gnn::{AdamConfig, SerialTrainer, TrainConfig};
use plexus_graph::{DatasetKind, DatasetSpec, LoadedDataset};

const EPOCHS: usize = 5;
const SEED: u64 = 1234;

fn dataset() -> LoadedDataset {
    let spec = DatasetSpec {
        kind: DatasetKind::OgbnProducts,
        name: "equiv",
        nodes: 144,
        edges: 1000,
        nonzeros: 2100,
        features: 12,
        classes: 6,
    };
    LoadedDataset::generate(spec, 144, Some(12), 5)
}

fn serial_losses(ds: &LoadedDataset) -> Vec<f64> {
    let cfg = TrainConfig { hidden_dim: 8, num_layers: 3, seed: SEED, ..Default::default() };
    SerialTrainer::new(ds, &cfg).train(EPOCHS).iter().map(|s| s.loss).collect()
}

fn assert_matches(serial: &[f64], other: &[f64], what: &str) {
    for (e, (a, b)) in serial.iter().zip(other).enumerate() {
        let rel = ((a - b) / a.abs().max(1e-9)).abs();
        assert!(rel < 5e-3, "{} epoch {}: {} vs serial {} (rel {:.2e})", what, e, b, a, rel);
    }
}

#[test]
fn all_systems_reproduce_serial_training() {
    let ds = dataset();
    let serial = serial_losses(&ds);

    // 3D engine across representative grid shapes and both optimizations,
    // then the seven 16-rank configurations the paper's Fig. 7 sweeps.
    let fig7 = [(1, 2, 8), (1, 16, 1), (2, 8, 1), (2, 4, 2), (4, 1, 4), (1, 1, 16), (8, 1, 2)];
    for (gx, gy, gz) in [(2, 2, 2), (4, 2, 1), (1, 2, 4)].into_iter().chain(fig7) {
        let opts = DistTrainOptions {
            hidden_dim: 8,
            model_seed: SEED,
            permutation: PermutationMode::Double,
            aggregation: Aggregation::Blocked(3),
            tuning: GemmTuning::Reordered,
            ..Default::default()
        };
        let res = train_distributed(&ds, GridConfig::new(gx, gy, gz), &opts, EPOCHS);
        assert_matches(&serial, &res.losses(), &format!("plexus {}x{}x{}", gx, gy, gz));
    }

    // BNS-style partition parallelism (boundary rate 1.0).
    let bns = train_bns(&ds, 4, 8, 3, AdamConfig::default(), SEED, EPOCHS);
    assert_matches(&serial, &bns.losses, "bns-gcn");

    // CAGNET 1D.
    let c1d = train_cagnet_1d(&ds, 4, 8, 3, AdamConfig::default(), SEED, EPOCHS);
    assert_matches(&serial, &c1d.losses, "cagnet-1d");
}

#[test]
fn permutation_modes_do_not_change_learning() {
    let ds = dataset();
    let serial = serial_losses(&ds);
    for mode in [PermutationMode::None, PermutationMode::Single, PermutationMode::Double] {
        let opts = DistTrainOptions {
            hidden_dim: 8,
            model_seed: SEED,
            permutation: mode,
            ..Default::default()
        };
        let res = train_distributed(&ds, GridConfig::new(2, 1, 2), &opts, EPOCHS);
        assert_matches(&serial, &res.losses(), &format!("{:?}", mode));
    }
}

#[test]
fn four_layer_network_also_matches() {
    // Four layers exercise the adjacency-shard cycle reuse (A_L3 = A_L0's
    // plane with the other permutation parity).
    let ds = dataset();
    let cfg = TrainConfig { hidden_dim: 8, num_layers: 4, seed: SEED, ..Default::default() };
    let serial: Vec<f64> =
        SerialTrainer::new(&ds, &cfg).train(EPOCHS).iter().map(|s| s.loss).collect();
    let opts = DistTrainOptions {
        hidden_dim: 8,
        num_layers: 4,
        model_seed: SEED,
        permutation: PermutationMode::Double,
        ..Default::default()
    };
    let res = train_distributed(&ds, GridConfig::new(2, 2, 2), &opts, EPOCHS);
    assert_matches(&serial, &res.losses(), "plexus 4-layer");
}

#[test]
fn two_layer_network_also_matches() {
    let ds = dataset();
    let cfg = TrainConfig { hidden_dim: 8, num_layers: 2, seed: SEED, ..Default::default() };
    let serial: Vec<f64> =
        SerialTrainer::new(&ds, &cfg).train(EPOCHS).iter().map(|s| s.loss).collect();
    let opts = DistTrainOptions {
        hidden_dim: 8,
        num_layers: 2,
        model_seed: SEED,
        permutation: PermutationMode::Double,
        ..Default::default()
    };
    let res = train_distributed(&ds, GridConfig::new(2, 2, 2), &opts, EPOCHS);
    assert_matches(&serial, &res.losses(), "plexus 2-layer");
}
