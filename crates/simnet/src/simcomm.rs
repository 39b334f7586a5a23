//! [`SimComm`]: the single-process, cost-only [`Communicator`] backend.
//!
//! The thread backend tops out at the rank counts one machine can run
//! (G ≤ 64 threads with real data movement). `SimComm` removes that wall
//! for *performance studies*: it implements the same trait, but the world
//! is simulated — only this rank's program executes, collectives complete
//! logically on this rank's data shapes, and every call charges the §4
//! ring-cost equations ([`crate::ring`]) to a virtual clock. A
//! `GridConfig::new(16, 8, 8)` world (1024 "GPUs") runs in one thread in
//! milliseconds, with a full traffic ledger and a predicted communication
//! time at the end.
//!
//! # Mirror semantics
//!
//! `SimComm` is **shape- and cost-faithful, not value-faithful**: since
//! peer ranks do not execute, each collective behaves as if every peer
//! contributed *this* rank's buffer (the "mirror" world). An all-gather
//! over a group of G returns G copies of `src`; an all-reduce folds the
//! buffer G times in ascending-rank order (bitwise deterministic, like the
//! thread backend); the sparse row gather reads every requested row out of
//! this rank's own block. Shapes, byte counts, ledger events and charged times
//! are exactly those of a real run on identically-shaped data — which is
//! what the performance model consumes — but numeric *values* (losses,
//! accuracies) are not meaningful. Anything value-sensitive belongs on
//! [`plexus_comm::ThreadComm`].
//!
//! `split_by` needs no mirror trick at all: because [`Communicator`] takes
//! the whole rank→(color, key) map, subgroup membership is computed
//! exactly, so the 3D grid's X/Y/Z axis groups have their true sizes and
//! ranks — the simulated topology is exact even though the peers are not.

use crate::ring::{all_gather_time, all_reduce_time, all_to_all_time, reduce_scatter_time};
use parking_lot::Mutex;
use plexus_comm::{
    CollOp, CommElem, CommEvent, Communicator, PendingCollective, ReduceOp, TrafficLedger,
};
use std::sync::Arc;

/// The link-cost parameters a [`SimComm`] world charges.
///
/// One effective ring bandwidth per process-group label (falling back to
/// `default_beta`) plus a per-message latency for all-to-all and barriers.
/// Per-label betas let a caller apply the paper's eq. 4.6 (effective
/// bandwidth per grid axis, computed by `plexus::perfmodel`) without this
/// crate needing to know about grids.
#[derive(Clone, Debug)]
pub struct SimCostModel {
    /// Ring bandwidth in bytes/s for groups without a per-label override.
    pub default_beta: f64,
    /// Per-message latency in seconds (all-to-all start-ups, barriers).
    pub latency: f64,
    /// `(group label, bytes/s)` overrides, e.g. one entry per grid axis.
    pub per_group_beta: Vec<(&'static str, f64)>,
}

impl SimCostModel {
    /// A flat model: one bandwidth for every group.
    pub fn new(beta: f64, latency: f64) -> Self {
        Self { default_beta: beta, latency, per_group_beta: Vec::new() }
    }

    /// Override the bandwidth for every group with label `label`.
    pub fn with_group_beta(mut self, label: &'static str, beta: f64) -> Self {
        self.per_group_beta.retain(|&(l, _)| l != label);
        self.per_group_beta.push((label, beta));
        self
    }

    fn beta_for(&self, label: &'static str) -> f64 {
        self.per_group_beta
            .iter()
            .find(|&&(l, _)| l == label)
            .map(|&(_, b)| b)
            .unwrap_or(self.default_beta)
    }
}

/// The virtual clock of one simulated world, shared by every group split
/// off it. Advanced by each collective with the ring-equation time.
#[derive(Default)]
pub struct SimClock {
    seconds: Mutex<f64>,
}

impl SimClock {
    /// Simulated communication seconds elapsed since world creation.
    pub fn elapsed(&self) -> f64 {
        *self.seconds.lock()
    }

    fn advance(&self, dt: f64) {
        *self.seconds.lock() += dt;
    }
}

/// Per-group handle of the simulated world (see the [module docs](self)
/// for semantics). Create the world with [`SimComm::world`], derive axis
/// groups with [`Communicator::split_by`].
pub struct SimComm {
    rank: usize,
    size: usize,
    label: &'static str,
    cost: Arc<SimCostModel>,
    clock: Arc<SimClock>,
    ledger: Arc<TrafficLedger>,
}

impl SimComm {
    /// A simulated world of `size` ranks, observed from rank 0.
    pub fn world(size: usize, cost: SimCostModel) -> Self {
        Self::world_rank(size, 0, cost)
    }

    /// A simulated world of `size` ranks, observed from `rank` — useful
    /// when a study needs a non-corner grid position (interior ranks can
    /// belong to different axis groups than rank 0).
    pub fn world_rank(size: usize, rank: usize, cost: SimCostModel) -> Self {
        assert!(size > 0, "SimComm: world size must be positive");
        assert!(rank < size, "SimComm: rank {} out of {}", rank, size);
        Self {
            rank,
            size,
            label: "world",
            cost: Arc::new(cost),
            clock: Arc::new(SimClock::default()),
            ledger: Arc::new(TrafficLedger::default()),
        }
    }

    /// The world clock (shared across every group split off this world).
    pub fn clock(&self) -> Arc<SimClock> {
        Arc::clone(&self.clock)
    }

    /// Simulated communication seconds charged so far.
    pub fn elapsed(&self) -> f64 {
        self.clock.elapsed()
    }

    fn record(&self, op: CollOp, bytes: usize) {
        self.ledger.record(CommEvent { op, bytes, group_size: self.size, group: self.label });
    }

    fn charge(&self, dt: f64) {
        self.clock.advance(dt);
    }

    fn beta(&self) -> f64 {
        self.cost.beta_for(self.label)
    }

    /// Fold `buf` with itself `size - 1` times — the mirror-world
    /// reduction, matching the thread backend's ascending-rank fold order.
    fn mirror_reduce<T: CommElem>(buf: &mut [T], copies: usize, op: ReduceOp) {
        let orig: Vec<T> = buf.to_vec();
        for _ in 1..copies {
            for (acc, &x) in buf.iter_mut().zip(orig.iter()) {
                *acc = T::reduce(op, *acc, x);
            }
        }
    }
}

impl Communicator for SimComm {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    fn label(&self) -> &'static str {
        self.label
    }

    fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    fn barrier(&self) {
        self.record(CollOp::Barrier, 0);
        if self.size > 1 {
            // Dissemination barrier: ceil(log2 G) message rounds.
            let rounds = usize::BITS - (self.size - 1).leading_zeros();
            self.charge(self.cost.latency * rounds as f64);
        }
    }

    fn all_to_all<T: CommElem>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>> {
        assert_eq!(
            sends.len(),
            self.size,
            "all_to_all: expected {} destination chunks, got {}",
            self.size,
            sends.len()
        );
        let bytes: usize = sends.iter().map(|s| s.len() * T::BYTES).sum();
        self.record(CollOp::AllToAll, bytes);
        self.charge(all_to_all_time(bytes as f64, self.size, self.beta(), self.cost.latency));
        // Every mirrored peer sent us the chunk it addressed to our rank —
        // which mirrors our own chunk for our rank.
        (0..self.size).map(|_| sends[self.rank].clone()).collect()
    }

    // The `start_*` forms are the one data path each collective has (the
    // blocking forms are trait defaults). A cost-only world has nothing to
    // overlap with, so each completes eagerly and returns a ready handle —
    // the time was charged at start, exactly as a real overlapped
    // collective would occupy the link while compute proceeds.

    fn start_all_reduce<'c, T: CommElem>(
        &'c self,
        src: &[T],
        op: ReduceOp,
    ) -> PendingCollective<'c, T> {
        let bytes = src.len() * T::BYTES;
        self.record(CollOp::AllReduce, bytes);
        self.charge(all_reduce_time(bytes as f64, self.size, self.beta()));
        let mut buf = src.to_vec();
        Self::mirror_reduce(&mut buf, self.size, op);
        PendingCollective::ready(buf)
    }

    fn start_all_gather<'c, T: CommElem>(&'c self, src: &[T]) -> PendingCollective<'c, T> {
        self.record(CollOp::AllGather, src.len() * T::BYTES);
        let result_bytes = (src.len() * self.size * T::BYTES) as f64;
        self.charge(all_gather_time(result_bytes, self.size, self.beta()));
        let mut out = Vec::with_capacity(src.len() * self.size);
        for _ in 0..self.size {
            out.extend_from_slice(src);
        }
        PendingCollective::ready(out)
    }

    fn start_reduce_scatter<'c, T: CommElem>(
        &'c self,
        src: &[T],
        op: ReduceOp,
    ) -> PendingCollective<'c, T> {
        assert_eq!(
            src.len() % self.size,
            0,
            "reduce_scatter: buffer length {} not divisible by group size {}",
            src.len(),
            self.size
        );
        let bytes = src.len() * T::BYTES;
        self.record(CollOp::ReduceScatter, bytes);
        self.charge(reduce_scatter_time(bytes as f64, self.size, self.beta()));
        let chunk = src.len() / self.size;
        let mut out = src[self.rank * chunk..(self.rank + 1) * chunk].to_vec();
        Self::mirror_reduce(&mut out, self.size, op);
        PendingCollective::ready(out)
    }

    fn start_all_gather_rows<'c, T: CommElem>(
        &'c self,
        src: &[T],
        row_ids: &[u32],
        row_width: usize,
    ) -> PendingCollective<'c, T> {
        assert!(row_width > 0, "all_gather_rows: row_width must be positive");
        assert_eq!(
            src.len() % row_width,
            0,
            "all_gather_rows: src length {} not a multiple of row_width {}",
            src.len(),
            row_width
        );
        let local_rows = src.len() / row_width;
        let rows_total = local_rows * self.size;
        // Mirror world: every peer requests this rank's `row_ids`, so the
        // serve list is the distinct requested rows that fall in this
        // rank's ownership range. Ledger bytes follow the thread backend's
        // indexed-size convention (rows served + index upload), which is
        // what makes the dense-vs-sparse volume comparison apples-to-apples
        // with the dense AllGather events' contributed-payload convention.
        let mut owned: Vec<u32> = row_ids
            .iter()
            .copied()
            .inspect(|&g| {
                assert!(
                    (g as usize) < rows_total,
                    "all_gather_rows: row id {} out of {} global rows",
                    g,
                    rows_total
                );
            })
            .filter(|&g| g as usize / local_rows == self.rank)
            .collect();
        owned.sort_unstable();
        owned.dedup();
        let served_bytes = owned.len() * row_width * T::BYTES;
        let index_bytes = std::mem::size_of_val(row_ids);
        self.record(CollOp::AllGatherRows, served_bytes + index_bytes);
        // Ring-gather of the *actual* sparse volume: the requested rows
        // plus the index exchange, not the dense padded block.
        let sparse_bytes = (row_ids.len() * row_width * T::BYTES + index_bytes) as f64;
        self.charge(all_gather_time(sparse_bytes, self.size, self.beta()));
        let mut out = Vec::with_capacity(row_ids.len() * row_width);
        for &g in row_ids {
            let local = g as usize % local_rows;
            out.extend_from_slice(&src[local * row_width..][..row_width]);
        }
        PendingCollective::ready(out)
    }

    fn split_by<F>(&self, f: F, label: &'static str) -> Self
    where
        F: Fn(usize) -> (u64, u64),
    {
        let (my_color, _) = f(self.rank);
        // Exact membership: evaluate the map for every simulated rank and
        // order members by (key, parent rank), as MPI_Comm_split does.
        let mut members: Vec<(u64, usize)> = (0..self.size)
            .filter_map(|r| {
                let (color, key) = f(r);
                (color == my_color).then_some((key, r))
            })
            .collect();
        members.sort_unstable();
        let group_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("split_by: own rank missing from its color group");
        Self {
            rank: group_rank,
            size: members.len(),
            label,
            cost: Arc::clone(&self.cost),
            clock: Arc::clone(&self.clock),
            ledger: Arc::clone(&self.ledger),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat(beta: f64) -> SimCostModel {
        SimCostModel::new(beta, 1e-6)
    }

    #[test]
    fn world_has_requested_shape() {
        let w = SimComm::world(1024, flat(25e9));
        assert_eq!(w.size(), 1024);
        assert_eq!(w.rank(), 0);
        assert_eq!(w.label(), "world");
    }

    #[test]
    fn all_reduce_charges_ring_equation() {
        let w = SimComm::world(8, flat(25e9));
        let mut buf = vec![1.0f32; 256];
        w.all_reduce(&mut buf, ReduceOp::Sum);
        let expect = all_reduce_time(1024.0, 8, 25e9);
        assert!((w.elapsed() - expect).abs() < 1e-15, "{} vs {}", w.elapsed(), expect);
        // Mirror world: 8 identical contributions of 1.0 sum to 8.0.
        assert_eq!(buf[0], 8.0);
    }

    #[test]
    fn gathers_are_shape_faithful() {
        let w = SimComm::world(4, flat(25e9));
        let out = w.all_gather(&[1u32, 2]);
        assert_eq!(out, vec![1, 2, 1, 2, 1, 2, 1, 2]);
    }

    #[test]
    fn reduce_scatter_returns_own_chunk_of_mirror_reduction() {
        let w = SimComm::world_rank(4, 2, flat(25e9));
        let buf: Vec<f32> = (0..8).map(|i| i as f32).collect();
        let out = w.reduce_scatter(&buf, ReduceOp::Sum);
        // Rank 2's chunk is elements 4..6, each summed over 4 mirror copies.
        assert_eq!(out, vec![16.0, 20.0]);
    }

    #[test]
    fn split_by_builds_exact_grid_groups() {
        // A 4x2 "grid": color = row (rank / 4), key = column (rank % 4).
        let w = SimComm::world_rank(8, 6, flat(25e9));
        let row = w.split_by(|r| ((r / 4) as u64, (r % 4) as u64), "row");
        assert_eq!(row.size(), 4);
        assert_eq!(row.rank(), 2); // rank 6 is column 2 of row 1
        let col = w.split_by(|r| ((r % 4) as u64, (r / 4) as u64), "col");
        assert_eq!(col.size(), 2);
        assert_eq!(col.rank(), 1);
    }

    #[test]
    fn per_group_beta_overrides_apply() {
        let cost = flat(10e9).with_group_beta("x", 100e9);
        let w = SimComm::world(16, cost);
        let x = w.split_by(|r| ((r / 4) as u64, r as u64), "x");
        let mut buf = vec![0.0f32; 1000];
        let before = w.elapsed();
        x.all_reduce(&mut buf, ReduceOp::Sum);
        let fast = w.elapsed() - before;
        let expect = all_reduce_time(4000.0, 4, 100e9);
        assert!((fast - expect).abs() < 1e-15);
    }

    #[test]
    fn ledger_matches_thread_backend_conventions() {
        let w = SimComm::world(2, flat(25e9));
        let mut v = vec![0.0f32; 256];
        w.all_reduce(&mut v, ReduceOp::Sum);
        let _ = w.all_gather(&v[..16]);
        let events = w.ledger().snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].bytes, 1024);
        assert_eq!(events[1].bytes, 64);
        assert_eq!(events[0].group_size, 2);
    }

    #[test]
    fn thousand_rank_world_is_cheap() {
        // The headline scenario: a 1024-rank world with per-axis splits
        // and a round of collectives, all in one thread.
        let w = SimComm::world(1024, flat(25e9));
        let x = w.split_by(|r| ((r / 16) as u64, r as u64), "x");
        assert_eq!(x.size(), 16);
        for _ in 0..100 {
            let mut buf = vec![1.0f32; 4096];
            x.all_reduce(&mut buf, ReduceOp::Sum);
        }
        assert!(w.elapsed() > 0.0);
        assert_eq!(w.ledger().snapshot().len(), 100);
    }

    #[test]
    fn nonblocking_defaults_match_blocking() {
        let w = SimComm::world(4, flat(25e9));
        let src: Vec<f64> = (0..16).map(|i| i as f64 * 0.5).collect();
        let pending = w.start_all_reduce(&src, ReduceOp::Sum);
        let nonblocking = pending.wait();
        let mut blocking = src.clone();
        w.all_reduce(&mut blocking, ReduceOp::Sum);
        assert_eq!(nonblocking, blocking);
    }
}
