//! §4.1: fitting the computational model.
//!
//! The paper fits a linear regression over the three cost terms
//! (√flops, √flops·fwd_penalty, √flops·bwd_penalty) to 67 measured SpMM
//! timings and reports an average train R² of 0.89 / test R² of 0.79 over
//! 1000 random 70-30 splits. Here the SpMM times are *measured on this
//! machine* — every 64-rank configuration's layer-0 shard shape is
//! materialized from a scaled ogbn-products instance and timed — then the
//! same regression methodology runs.

use crate::Table;
use plexus::grid::GridConfig;
use plexus::perfmodel::{comp_cost_features, Workload};
use plexus_graph::{datasets::OGBN_PRODUCTS, LoadedDataset};
use plexus_simnet::{LinearModel, RegressionReport};
use plexus_tensor::uniform_matrix;
use std::time::Instant;

pub(crate) fn run() {
    // The paper pools 67 points "across various datasets, configurations,
    // and GPU counts": the √flops term only varies across datasets, so a
    // single-dataset sweep cannot be fit. Three scaled instances of
    // different sizes and feature widths provide that spread.
    let instances: Vec<(LoadedDataset, usize)> = vec![
        (LoadedDataset::generate(OGBN_PRODUCTS, 1 << 13, Some(32), 31), 32),
        (LoadedDataset::generate(OGBN_PRODUCTS, 1 << 14, Some(64), 33), 64),
        (LoadedDataset::generate(OGBN_PRODUCTS, 1 << 15, Some(128), 35), 128),
    ];
    let machine = plexus_simnet::perlmutter();

    // For every (dataset, GPU count, config): the three eq. 4.4 features,
    // the GPU-kernel-model time (regression target — on GPUs the shape
    // penalty dominates), and a real CPU measurement (median of 3,
    // sequential kernel; informational — deep CPU caches mute the shape
    // effect the model exists to capture).
    let mut xs: Vec<Vec<f64>> = Vec::new();
    let mut ys_gpu: Vec<f64> = Vec::new();
    let mut ys: Vec<f64> = Vec::new();
    let mut count = 0usize;
    for (ds, d) in &instances {
        let n = ds.num_nodes();
        let d = *d;
        for &g in &[16usize, 64] {
            for cfg in GridConfig::enumerate(g) {
                // Layer-0 shard: rows N/Gz x cols N/Gx; dense N/Gx x D/Gy.
                if n / cfg.gz == 0 || n / cfg.gx == 0 || d / cfg.gy == 0 {
                    continue;
                }
                let a = ds.adjacency.block(0, n / cfg.gz, 0, n / cfg.gx);
                let b = uniform_matrix(n / cfg.gx, (d / cfg.gy).max(1), -1.0, 1.0, 7);
                let mut reps: Vec<f64> = (0..3)
                    .map(|_| {
                        let t0 = Instant::now();
                        let _ = plexus_sparse::spmm_seq(&a, &b);
                        t0.elapsed().as_secs_f64()
                    })
                    .collect();
                reps.sort_by(|x, y| x.partial_cmp(y).unwrap());
                ys.push(reps[1] * 1e3);

                let nnz_shard = ds.adjacency.nnz() as f64 / (cfg.gz * cfg.gx) as f64;
                let flops = 2.0 * nnz_shard * (d / cfg.gy) as f64;
                ys_gpu
                    .push(machine.spmm_time(flops, (n / cfg.gx) as f64, (d / cfg.gy) as f64) * 1e3);

                let w = Workload {
                    nodes: n as f64,
                    nonzeros: ds.adjacency.nnz() as f64,
                    dims: vec![d, d],
                };
                xs.push(comp_cost_features(&w, cfg).to_vec());
                count += 1;
            }
        }
    }
    println!("Collected {} (dataset, GPU count, config) sample points.", count);

    // Primary fit: real measured times, exactly the paper's methodology.
    let model = LinearModel::fit(&xs, &ys);
    let report = RegressionReport::evaluate(&xs, &ys, 0.7, 1000, 4);
    let gpu_model_r2 = LinearModel::fit(&xs, &ys_gpu).r2(&xs, &ys_gpu);

    let mut t = Table::new(
        "Sec 4.1: computational-model regression on measured SpMM times (1000 random 70-30 splits)",
        &["Quantity", "Ours", "Paper"],
    );
    t.row(vec!["Samples".into(), format!("{}", count), "67".into()]);
    t.row(vec!["Train R^2".into(), format!("{:.3}", report.train_r2), "0.89".into()]);
    t.row(vec!["Test R^2".into(), format!("{:.3}", report.test_r2), "0.79".into()]);
    t.row(vec!["Train RMSE (ms)".into(), format!("{:.2}", report.train_rmse), "16.8".into()]);
    t.row(vec!["Test RMSE (ms)".into(), format!("{:.2}", report.test_rmse), "20.1".into()]);
    for (i, c) in model.coefficients.iter().enumerate() {
        t.row(vec![
            format!("coef[{}]", i),
            format!("{:.3e}", c),
            ["7.8e-4", "7.8e-10", "-2.6e-10"][i].into(),
        ]);
    }
    t.row(vec![
        "GPU-kernel-model fit R^2 (info)".into(),
        format!("{:.3}", gpu_model_r2),
        "n/a".into(),
    ]);
    t.print();

    assert!(
        report.train_r2 > 0.55,
        "the 3-term model should explain measured SpMM time variance: {:.3}",
        report.train_r2
    );
    println!("\nSec 4.1 methodology reproduced: the 3-term features fit real measured SpMM");
    println!("times across datasets, configurations and GPU counts.");
}
