//! Baseline distributed full-graph GNN systems the paper compares against
//! (§6.3, Figs. 8–9).
//!
//! * [`partition`] — a BFS-grown balanced graph partitioner standing in
//!   for METIS (only the boundary-node statistics matter for the
//!   comparison, and those reproduce qualitatively);
//! * [`bns`] — BNS-GCN-style partition parallelism with full boundary
//!   exchange (sampling rate 1.0, the setting the paper compares under),
//!   functional over the thread communicator and exactly equivalent to
//!   serial training;
//! * [`cagnet`] — CAGNET's 1D tensor-parallel algorithm, functional;
//! * [`costmodels`] — at-scale epoch-time models for BNS-GCN and for SA
//!   (sparsity-aware CAGNET, which exists here as a cost model only),
//!   driven by measured partition statistics and the shared machine
//!   models, used to regenerate the Fig. 8/9 comparisons.

pub mod bns;
pub mod cagnet;
pub mod costmodels;
pub mod partition;

pub use bns::{train_bns, BnsRunResult};
pub use cagnet::{train_cagnet_1d, CagnetRunResult};
pub use costmodels::{bns_epoch_time, paper_boundary_frac, sa_epoch_time};
pub use partition::{partition_graph, PartitionInfo};
