//! Table 4: the six evaluation datasets. Prints the paper's statistics
//! (used analytically by the scaling models) alongside the statistics of
//! the scaled synthetic instances the functional experiments run on.

use crate::Table;
use plexus_graph::{paper_datasets, LoadedDataset};

pub(crate) fn run() {
    let mut t = Table::new(
        "Table 4: graph datasets (paper statistics)",
        &["Dataset", "# Nodes", "# Edges", "# Non-zeros", "# Features", "# Classes", "Sparsity %"],
    );
    for spec in paper_datasets() {
        t.row(vec![
            spec.name.into(),
            format!("{}", spec.nodes),
            format!("{}", spec.edges),
            format!("{}", spec.nonzeros),
            format!("{}", spec.features),
            format!("{}", spec.classes),
            format!("{:.4}", spec.sparsity() * 100.0),
        ]);
    }
    t.print();

    let mut s = Table::new(
        "Table 4b: scaled synthetic instances used by functional experiments",
        &["Dataset", "# Nodes", "# Edges", "Avg degree (paper)", "Avg degree (ours)"],
    );
    for spec in paper_datasets() {
        let ds = LoadedDataset::generate(spec, 1 << 13, Some(32), 42);
        s.row(vec![
            spec.name.into(),
            format!("{}", ds.num_nodes()),
            format!("{}", ds.graph.num_edges()),
            format!("{:.1}", spec.avg_degree()),
            format!("{:.1}", ds.graph.avg_degree()),
        ]);
    }
    s.print();
    println!("\nNote: dense graphs (Reddit: avg degree 246) are capped at edge factor 16 when");
    println!("scaled down, as documented in plexus-graph::datasets.");
}
