//! Graph datasets for the Plexus reproduction.
//!
//! The paper evaluates on six graphs (Table 4): Reddit, ogbn-products,
//! Isolate-3-8M, products-14M, europe_osm and ogbn-papers100M. The raw
//! datasets (up to 111M nodes / 1.6B edges) are not available in this
//! environment, so this crate provides:
//!
//! * [`datasets::DatasetSpec`] — the exact Table 4 statistics, consumed
//!   analytically by the performance model and the scaling benches;
//! * synthetic [`generators`] reproducing each graph's *structure* (degree
//!   skew, community clustering, road-network locality) at configurable
//!   scale, used by every functional experiment;
//! * the paper's label recipe for its synthetic-label datasets: "randomly
//!   generated input features with a size of 128, and generated labels with
//!   32 classes based on the distribution of node degrees" (§6.2).

//!
//! It also hosts [`rowplan::RowRequestPlan`] — the adjacency-derived row
//! request sets that drive the sparse collectives (the row demand is a
//! property of the graph's structure, so it lives with the graphs) —
//! plus the serving-side graph machinery: [`mmap::MappedFile`] zero-copy
//! file views and the [`khop`] receptive-field extraction the inference
//! engine runs per query batch — and, beside the mappings, the [`mod@format`]
//! every on-disk file shares (header, streaming digest, bulk codecs,
//! bounds-checked cursor), here so that the serial trainer, the engine
//! and the server can all reach it.

pub mod datasets;
pub mod format;
pub mod generators;
pub mod graph;
pub mod khop;
pub mod labels;
pub mod mmap;
pub mod rowplan;

pub use datasets::{paper_datasets, DatasetKind, DatasetSpec, LoadedDataset};
pub use generators::{
    community_graph, erdos_renyi, rmat_edge_chunks, rmat_graph, road_network, RmatEdgeChunks,
};
pub use graph::Graph;
pub use khop::{KhopWorkspace, RowSource};
pub use labels::{degree_based_labels, train_val_test_masks, Split};
pub use mmap::MappedFile;
pub use rowplan::RowRequestPlan;
