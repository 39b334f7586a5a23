//! Fig. 9: communication/computation breakdown of BNS-GCN vs Plexus on
//! products-14M, 32–256 GPUs of Perlmutter.
//!
//! Shapes to reproduce (§7.1): at 32 GPUs BNS-GCN finishes epochs faster
//! thanks to fine-grained communication; at 64+ its all-to-all pattern and
//! growing boundary work flip the ordering; BNS computation *increases*
//! with GPU count while Plexus computation keeps scaling down.

use crate::{paper_workload, Table};
use plexus::perfmodel::rank_configs;
use plexus_baselines::{bns_epoch_time, paper_boundary_frac};
use plexus_graph::datasets::PRODUCTS_14M;
use plexus_simnet::perlmutter;

pub(crate) fn run() {
    let m = perlmutter();
    let w = paper_workload(PRODUCTS_14M);

    let mut t = Table::new(
        "Fig. 9: epoch breakdown, BNS-GCN vs Plexus, products-14M (Perlmutter, ms)",
        &["GPUs", "System", "Comm", "Comp", "Total"],
    );
    let mut bns_comp_series = Vec::new();
    let mut plexus_comp_series = Vec::new();
    let mut totals: Vec<(usize, f64, f64)> = Vec::new();
    for &g in &[32usize, 64, 128, 256] {
        // The paper's own §7.1 boundary measurement (18M -> 22M total
        // nodes between 32 and 256 partitions) anchors the fraction.
        let bfrac = paper_boundary_frac(g, 1.0);
        let bns = bns_epoch_time(&w, g, &m, bfrac);
        let plexus = rank_configs(&w, g, &m)[0].1;
        t.row(vec![
            format!("{}", g),
            "BNS-GCN".into(),
            format!("{:.1}", bns.comm_s * 1e3),
            format!("{:.1}", bns.comp_s * 1e3),
            format!("{:.1}", bns.total() * 1e3),
        ]);
        t.row(vec![
            format!("{}", g),
            "Plexus".into(),
            format!("{:.1}", plexus.comm_s * 1e3),
            format!("{:.1}", plexus.comp_s * 1e3),
            format!("{:.1}", plexus.total() * 1e3),
        ]);
        bns_comp_series.push(bns.comp_s);
        plexus_comp_series.push(plexus.comp_s);
        totals.push((g, bns.total(), plexus.total()));
    }
    t.print();

    // §7.1's two observations.
    let (g0, bns0, plexus0) = totals[0];
    let (gl, bnsl, plexusl) = *totals.last().unwrap();
    println!(
        "\nAt {} GPUs: BNS {:.1} ms vs Plexus {:.1} ms; at {} GPUs: BNS {:.1} ms vs Plexus {:.1} ms",
        g0,
        bns0 * 1e3,
        plexus0 * 1e3,
        gl,
        bnsl * 1e3,
        plexusl * 1e3
    );
    assert!(bns0 < plexus0, "BNS should win at 32 GPUs (fine-grained communication)");
    assert!(plexusl < bnsl, "Plexus should win at 256 GPUs");
    assert!(
        plexus_comp_series.last().unwrap() < &plexus_comp_series[0],
        "Plexus computation must scale down"
    );
    assert!(
        bns_comp_series.last().unwrap() > &(bns_comp_series[0] / 8.0 * 0.9),
        "BNS computation must scale sublinearly (boundary growth)"
    );
    println!("Fig. 9 shape reproduced: crossover between 32 and 256 GPUs, BNS computation stalls.");
}
