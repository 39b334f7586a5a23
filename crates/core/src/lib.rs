//! # Plexus — 3D parallel full-graph GNN training
//!
//! Rust reproduction of the SC '25 paper *"Plexus: Taming Billion-edge
//! Graphs with 3D Parallel Full-graph GNN Training"* (Ranjan, Singh, Wei,
//! Bhatele). This crate is the paper's primary contribution: the 3D
//! tensor-parallel training engine.
//!
//! ## What lives where
//!
//! * [`grid`] — the `Gx x Gy x Gz` virtual GPU grid and the per-layer
//!   axis-role rotation of §3.2 (adjacency planes ZX → YZ → XY);
//! * [`setup`] — padding, the §5.1 single/double permutation schemes, and
//!   per-rank shard extraction;
//! * [`dist`] — the X/Y/Z process groups plus matrix-shaped collectives,
//!   generic over the [`plexus_comm::Communicator`] backend (thread world
//!   or the cost-only `SimComm`);
//! * [`layer`] — Algorithms 1 and 2 (distributed forward/backward),
//!   blocked aggregation and comm/compute overlap via nonblocking
//!   collectives (§5.2), GEMM-order tuning (§5.3);
//! * [`activation`] — the activation residency-policy engine: keep,
//!   spill-to-checksummed-files, or drop-and-recompute every inter-layer
//!   cache under a configurable byte budget, bitwise-identically;
//! * [`checkpoint`] — periodic, atomically-published snapshots of the run
//!   (weight shards, Adam moments, epoch history, ledger counters) with a
//!   typed reader that resumes bitwise-identically;
//! * [`loss`] — distributed masked cross-entropy;
//! * [`trainer`] — per-rank state, the epoch loop,
//!   [`trainer::train_distributed`] (the engine's main entry point),
//!   [`trainer::train_from_source`] (the same loop fed from RAM or from a
//!   §5.4 shard store) and [`trainer::simulate_epochs`] (the same program
//!   on simulated grids);
//! * [`perfmodel`] — the §4 performance model (computation, communication,
//!   unified) and grid-configuration selection;
//! * [`loader`] — the §5.4 parallel data loader and out-of-core ingest:
//!   versioned, checksummed 2D shard files written streaming by
//!   [`loader::preprocess_to_store`], read back per rank with a
//!   [`loader::MemoryLedger`] accounting every byte.
//!
//! ## Quickstart
//!
//! ```
//! use plexus::grid::GridConfig;
//! use plexus::setup::PermutationMode;
//! use plexus::trainer::{train_distributed, DistTrainOptions};
//! use plexus_graph::{LoadedDataset, datasets::OGBN_PRODUCTS};
//!
//! let ds = LoadedDataset::generate(OGBN_PRODUCTS, 256, Some(16), 42);
//! let opts = DistTrainOptions {
//!     hidden_dim: 16,
//!     permutation: PermutationMode::Double,
//!     ..Default::default()
//! };
//! let result = train_distributed(&ds, GridConfig::new(2, 2, 2), &opts, 3);
//! assert_eq!(result.epochs.len(), 3);
//! ```

pub mod activation;
pub mod checkpoint;
pub mod dist;
pub mod grid;
pub mod layer;
pub mod loader;
pub mod loss;
pub mod perfmodel;
pub mod setup;
pub mod trainer;

pub use activation::{ActivationStats, ActivationStore, Fetched, ResidencyPolicy};
pub use checkpoint::{Checkpoint, CheckpointPolicy, ParamState, RankState};
pub use dist::{DistContext, SimDistContext};
pub use grid::{roles_for_layer, Axis, GridConfig, GridCoords, GridSpec, LayerRoles};
pub use layer::{
    Aggregation, CommOverlap, CommPlan, DistLayer, DistLayerCache, GemmTuning, TimeSplit,
};
pub use loader::{
    preprocess_to_store, LoadStats, LoaderError, LoaderResult, MemoryLedger, PreprocessSummary,
    ShardStore,
};
pub use setup::{build_permutations, GlobalProblem, PermutationMode, ProblemMeta, RankData};
pub use trainer::{
    resume_from_checkpoint, simulate_epochs, train_distributed, train_from_source, DistEpochStats,
    DistRunResult, DistTrainOptions, ProblemSource, RankTrainer, SimRunReport, TrainError,
};
