//! Table 3: load balance of adjacency nonzeros over an 8x8 shard grid on
//! europe_osm — Original 7.70, Single permutation 3.24, Double
//! permutation 1.001 (max/mean).
//!
//! A scaled europe_osm stand-in (road network in spatial node order) is
//! sharded 8x8 under the three §5.1 schemes. The absolute numbers depend
//! on the instance, but the ordering and the "double permutation is
//! near-perfect" endpoint must reproduce.

use crate::{permuted, Table};
use plexus::setup::PermutationMode;
use plexus_graph::{datasets::EUROPE_OSM, LoadedDataset};
use plexus_sparse::nnz_balance;

pub(crate) fn run() {
    let ds = LoadedDataset::generate(EUROPE_OSM, 1 << 16, Some(8), 7);
    let a = &ds.adjacency;
    println!(
        "europe_osm (scaled): {} nodes, {} nonzeros, avg degree {:.2}",
        ds.num_nodes(),
        a.nnz(),
        ds.graph.avg_degree()
    );

    let balance = |mode| nnz_balance(&permuted(a, mode, 11), 8, 8).max_over_mean;
    let original = balance(PermutationMode::None);
    let single = balance(PermutationMode::Single);
    let double = balance(PermutationMode::Double);

    let mut t = Table::new(
        "Table 3: max/mean nonzeros across 8x8 shards, europe_osm",
        &["Method", "Max/Mean (ours)", "Max/Mean (paper)"],
    );
    t.row(vec!["Original".into(), format!("{:.3}", original), "7.70".into()]);
    t.row(vec!["Single permutation".into(), format!("{:.3}", single), "3.24".into()]);
    t.row(vec!["Double permutation".into(), format!("{:.3}", double), "1.001".into()]);
    t.print();

    assert!(original > single, "single permutation must improve on the original order");
    assert!(single > double, "double permutation must improve on single");
    assert!(double < 1.05, "double permutation should be near-perfect, got {:.3}", double);
    println!("\nTable 3 shape reproduced: Original > Single > Double ~= 1.0.");
}
