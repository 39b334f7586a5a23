//! Sparse matrix substrate for the Plexus reproduction.
//!
//! The aggregation step of a GCN layer (paper eq. 2.1) is an SpMM between
//! the normalized adjacency matrix and the dense feature matrix, and the 3D
//! algorithm shards that adjacency matrix into 2D blocks across the virtual
//! GPU grid. This crate owns everything sparse: the CSR representation,
//! symmetric degree normalization with self-loops, transposition, row/column
//! permutation (the §5.1 double-permutation load balancer operates through
//! these), 2D block extraction (the sharding primitive), SpMM over any
//! contiguous row range of a shard (what §5.2 blocked aggregation runs per
//! block), and nonzero-balance statistics (Table 3).

pub mod csr;
pub mod normalize;
pub mod permute;
pub mod shard;
pub mod spmm;
pub mod stats;

pub use csr::{Coo, Csr};
pub use normalize::normalized_adjacency;
pub use permute::{apply_permutation, inverse_permutation, random_permutation};
pub use shard::{shard_grid, ShardSpec};
pub use spmm::{nnz_balanced_bounds, spmm, spmm_into, spmm_rows_into, spmm_seq};
pub use stats::{nnz_balance, BalanceStats};
