//! Fig. 10: strong scaling of Plexus across all six datasets on both
//! Perlmutter (up to 2048 GPUs) and Frontier (up to 2048 GCDs).
//!
//! Shapes to reproduce:
//! * denser graphs scale further (Reddit vs ogbn-products on Perlmutter:
//!   "Plexus scales better with Reddit, a denser graph");
//! * Isolate-3-8M is slower than products-14M at small GPU counts
//!   (denser -> computation-bound) but crosses over once communication
//!   dominates;
//! * Frontier curves scale *better* because its SpMM is ~10x slower
//!   (§7.2), keeping runs computation-bound longer;
//! * ogbn-papers100M keeps scaling to 2048 with diminishing returns at
//!   the end ("scaling starts to slow down at 2048 GPUs").

use crate::{paper_workload, Table};
use plexus::perfmodel::rank_configs;
use plexus_graph::paper_datasets;
use plexus_simnet::{frontier, perlmutter, MachineSpec};

fn sweep(machine: &MachineSpec, unit: &str) -> Table {
    let gpus = [4usize, 8, 16, 32, 64, 128, 256, 512, 1024, 2048];
    let mut headers = vec![unit];
    headers.extend(paper_datasets().iter().map(|spec| spec.name));
    let mut t = Table::new(
        &format!("Fig. 10: Plexus strong scaling on {} (time per epoch, ms)", machine.name),
        &headers,
    );
    for &g in &gpus {
        let mut row = vec![format!("{}", g)];
        for spec in paper_datasets() {
            let w = paper_workload(spec);
            // Respect memory feasibility the way the paper's plots start
            // at different GPU counts: adjacency shards (CSR + transpose,
            // ~16 B/nnz) plus ~10 activation/gradient copies of the node
            // block must fit a 40 GB A100 (with headroom).
            let per_gpu_bytes = spec.nonzeros as f64 / g as f64 * 16.0
                + 10.0 * (spec.nodes as f64 / g as f64) * 128.0 * 4.0;
            if per_gpu_bytes > 35.0e9 {
                row.push("-".into());
                continue;
            }
            let best = rank_configs(&w, g, machine)[0].1.total();
            row.push(format!("{:.1}", best * 1e3));
        }
        t.row(row);
    }
    t
}

fn column(t: &Table, name: &str) -> Vec<f64> {
    let idx = t.headers.iter().position(|h| h == name).expect("dataset column");
    t.rows.iter().filter_map(|r| r[idx].parse::<f64>().ok()).collect()
}

fn parallel_efficiency(series: &[f64]) -> f64 {
    // Efficiency over the series' span assuming 2x GPUs per step.
    let steps = (series.len() - 1) as f64;
    let ideal = series[0] / 2f64.powf(steps);
    ideal / series[series.len() - 1]
}

pub(crate) fn run() {
    let perl = sweep(&perlmutter(), "GPUs");
    perl.print();
    let fron = sweep(&frontier(), "GCDs");
    fron.print();

    // Shape checks.
    let reddit_p = column(&perl, "Reddit");
    let products_p = column(&perl, "ogbn-products");
    let eff_reddit = parallel_efficiency(&reddit_p[..8.min(reddit_p.len())]);
    let eff_products = parallel_efficiency(&products_p[..8.min(products_p.len())]);
    println!(
        "\nPerlmutter efficiency over the sweep: Reddit {:.2}, ogbn-products {:.2}",
        eff_reddit, eff_products
    );
    assert!(
        eff_reddit > eff_products,
        "denser Reddit should scale better than ogbn-products on Perlmutter"
    );

    let reddit_f = column(&fron, "Reddit");
    let eff_reddit_f = parallel_efficiency(&reddit_f[..8.min(reddit_f.len())]);
    println!("Frontier efficiency: Reddit {:.2} (Perlmutter: {:.2})", eff_reddit_f, eff_reddit);
    assert!(
        eff_reddit_f > eff_reddit,
        "slower SpMM on Frontier must extend the computation-bound regime"
    );

    let papers = column(&perl, "ogbn-papers100M");
    // All doublings except possibly the last must improve; the final one
    // may flatten (the paper: "scaling starts to slow down at 2048").
    assert!(
        papers.windows(2).take(papers.len().saturating_sub(2)).all(|w| w[1] < w[0]),
        "papers100M should keep improving before the last doubling: {:?}",
        papers
    );
    let last_speedup = papers[papers.len() - 2] / papers[papers.len() - 1];
    println!(
        "papers100M final doubling speedup: {:.2}x (diminishing, paper reports the same)",
        last_speedup
    );
    assert!(last_speedup < 1.9, "the last doubling should show diminishing returns");
    println!("Fig. 10 shapes reproduced on both machine models.");
}
