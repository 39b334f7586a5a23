//! Fig. 8: strong scaling of Plexus vs SA, SA+GVB and BNS-GCN on
//! Perlmutter for Reddit, Isolate-3-8M and products-14M.
//!
//! Plexus times come from the §4 performance model at the model-chosen
//! grid config. Baseline times come from the cost models in
//! `plexus-baselines`, parameterized by statistics *measured* on scaled
//! instances — BNS boundary fractions from real BFS partitionings, SA
//! needed-fractions from real adjacency column-coverage — extrapolated to
//! paper-scale GPU counts with a fitted power law.
//!
//! Paper shapes to reproduce: SA/BNS competitive (or winning) at <= 32
//! GPUs; BNS collapsing beyond 64; Plexus scaling to 1024 with the lowest
//! absolute epoch times; SA and SA+GVB absent on Isolate-3-8M (OOM in the
//! paper).

use crate::{fit_power_law, paper_workload, Table};
use plexus::perfmodel::rank_configs;
use plexus_baselines::{bns_epoch_time, paper_boundary_frac, partition_graph, sa_epoch_time};
use plexus_graph::{
    datasets::{ISOLATE_3_8M, PRODUCTS_14M, REDDIT},
    DatasetKind, DatasetSpec, LoadedDataset,
};
use plexus_simnet::perlmutter;
use std::collections::HashSet;

/// Density scale for the paper-anchored boundary law: how much more (or
/// less) boundary this graph's structure produces than products-14M's,
/// measured by partitioning both *scaled* instances at a common count.
fn boundary_density_scale(ds: &LoadedDataset) -> f64 {
    if ds.spec.kind == DatasetKind::Products14M {
        return 1.0;
    }
    let reference = LoadedDataset::generate(PRODUCTS_14M, ds.num_nodes(), Some(8), 17);
    let mine = partition_graph(&ds.graph, 16).boundary_fraction().max(1e-3);
    let theirs = partition_graph(&reference.graph, 16).boundary_fraction().max(1e-3);
    (mine / theirs).clamp(0.2, 5.0)
}

/// Measure the fraction of feature rows a 1D rank actually needs (unique
/// columns its row block touches / N) and fit a power law in G.
fn sa_needed_law(ds: &LoadedDataset) -> (f64, f64) {
    let n = ds.num_nodes();
    let gs = [4usize, 8, 16, 32];
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for &g in &gs {
        let rows = n / g;
        let mut needed = 0usize;
        for blk in 0..g {
            let mut cols: HashSet<u32> = HashSet::new();
            for r in blk * rows..((blk + 1) * rows).min(n) {
                let (cs, _) = ds.adjacency.row_entries(r);
                cols.extend(cs.iter().copied());
            }
            needed += cols.len();
        }
        xs.push(g as f64);
        ys.push(needed as f64 / (g as f64 * n as f64));
    }
    fit_power_law(&xs, &ys)
}

fn run_dataset(spec: DatasetSpec, gpus: &[usize], sa_available: bool) {
    let m = perlmutter();
    let w = paper_workload(spec);
    let ds = LoadedDataset::generate(spec, 1 << 14, Some(16), 17);
    let density = boundary_density_scale(&ds);
    let (sa_a, sa_b) = sa_needed_law(&ds);
    println!(
        "\n{}: boundary density scale {:.2} (vs products-14M); sa_needed(G) = {:.3} * G^{:.2}",
        spec.name, density, sa_a, sa_b
    );

    let mut t = Table::new(
        &format!("Fig. 8: strong scaling on {} (Perlmutter, time per epoch, ms)", spec.name),
        &["GPUs", "Plexus", "Plexus config", "BNS-GCN", "SA", "SA+GVB"],
    );
    let mut crossover: Option<usize> = None;
    let mut last_plexus = f64::INFINITY;
    for &g in gpus {
        let (cfg, plexus) = {
            let ranked = rank_configs(&w, g, &m);
            (ranked[0].0, ranked[0].1.total() * 1e3)
        };
        let bfrac = paper_boundary_frac(g, density);
        let bns = bns_epoch_time(&w, g, &m, bfrac).total() * 1e3;
        // Hub rows appear in every block's column set on power-law graphs,
        // so the needed fraction floors out instead of vanishing.
        let needed = (sa_a * (g as f64).powf(sa_b)).clamp(0.15, 1.0);
        let (sa, sagvb) = if !sa_available {
            ("OOM".into(), "OOM".into())
        } else if g > 128 {
            // §7.1: SA timed out at 256 GPUs on products-14M.
            ("TIMEOUT".into(), "TIMEOUT".into())
        } else {
            let sa = sa_epoch_time(&w, g, &m, needed).total() * 1e3;
            // GVB partitioning improves the needed-row locality further.
            let sagvb = sa_epoch_time(&w, g, &m, (needed * 0.7).min(1.0)).total() * 1e3;
            (format!("{:.1}", sa), format!("{:.1}", sagvb))
        };
        if crossover.is_none() && plexus < bns {
            crossover = Some(g);
        }
        t.row(vec![
            format!("{}", g),
            format!("{:.1}", plexus),
            cfg.label(),
            format!("{:.1}", bns),
            sa,
            sagvb,
        ]);
        last_plexus = plexus;
    }
    t.print();
    match crossover {
        Some(g) => println!("Plexus overtakes BNS-GCN at {} GPUs.", g),
        None => println!("WARNING: no Plexus/BNS crossover observed in this range."),
    }
    assert!(last_plexus.is_finite());
}

pub(crate) fn run() {
    run_dataset(REDDIT, &[4, 8, 16, 32, 64, 128], true);
    run_dataset(ISOLATE_3_8M, &[16, 32, 64, 128, 256, 512, 1024], false);
    run_dataset(PRODUCTS_14M, &[8, 16, 32, 64, 128, 256, 512, 1024], true);
    println!("\nFig. 8 regenerated (SA/SA+GVB marked OOM where the paper reports failures).");
}
