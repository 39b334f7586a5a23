//! Machine and network performance models.
//!
//! The paper's scaling evaluation runs on Perlmutter (2048 A100 GPUs) and
//! Frontier (1024+ MI250X GCDs). Those machines are simulated here:
//!
//! * [`machine`] — hardware constants for both systems (§6.1) plus the
//!   kernel-rate models calibrated to the paper's observations (e.g.
//!   "SpMM times on AMD GPUs were an order of magnitude higher", §7.2);
//! * [`ring`] — ring-collective time equations (Thakur/Rabenseifner, the
//!   paper's eq. 4.5) and the all-to-all model used for BNS-GCN;
//! * [`simcomm`] — [`SimComm`], the single-process, cost-only
//!   [`plexus_comm::Communicator`] backend: collectives complete logically
//!   on this rank's data shapes while the ring equations charge a virtual
//!   clock, so thousand-rank grids run as perf-model studies without a
//!   thousand threads;
//! * [`gpumem`] — a GPU memory-access simulator (CTA grid sizing, 32-byte
//!   sector coalescing, a small LRU L2 cache) that regenerates the
//!   *mechanism* behind Table 2's Nsight metrics.

pub mod gpumem;
pub mod machine;
pub mod ring;
pub mod simcomm;

pub use gpumem::{
    estimate_rank_activation_bytes, estimate_rank_adjacency_bytes, simulate_spmm_kernel,
    SpmmKernelMetrics,
};
pub use machine::{frontier, perlmutter, MachineSpec};
pub use ring::{all_gather_time, all_reduce_time, all_to_all_time, reduce_scatter_time};
pub use simcomm::{SimClock, SimComm, SimCostModel};
