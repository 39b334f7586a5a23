//! The backend-agnostic communicator API: the [`Communicator`] trait and
//! the [`PendingCollective`] handle for nonblocking collectives.
//!
//! # The SPMD contract
//!
//! Every method of [`Communicator`] is a *collective*: it must be called by
//! **every** rank of the group, in the same order, with compatible
//! arguments (same element type, matching buffer lengths where the
//! collective requires them). Programs are written once and executed by all
//! ranks — exactly the `torch.distributed`/MPI model the paper's engine
//! assumes. What happens on misuse is backend-defined, but conforming
//! backends must fail loudly (the thread backend panics with a descriptive
//! message and poisons the world so sibling ranks unwind too; the simnet
//! backend panics on shape errors it can detect locally).
//!
//! # Blocking and nonblocking collectives
//!
//! Each reduction/gather collective exists in two forms:
//!
//! * the nonblocking form (`start_all_reduce`, `start_all_gather`,
//!   `start_reduce_scatter`, `start_all_gather_rows`) *launches* the
//!   collective and returns a [`PendingCollective`] immediately; the
//!   caller overlaps local compute with the in-flight collective and calls
//!   [`PendingCollective::wait`] when it needs the result. This is the
//!   §5.2 comm/compute-overlap seam: `DistLayer` launches the axis
//!   all-reduce of one tile while the next tile's GEMM/SpMM is still
//!   running.
//! * the blocking form (`all_reduce`, `all_gather`, `reduce_scatter`,
//!   `all_gather_rows`) returns only when the result is available on this
//!   rank. Blocking forms are default-implemented as `start_*(...).wait()`,
//!   so a backend implements exactly one data path per collective — the
//!   nonblocking one.
//!
//! # The sparse (row-indexed) gather
//!
//! Dense all-gathers ship every rank's full padded block even when the
//! consumer only reads a few rows of it.
//! [`all_gather_rows`](Communicator::all_gather_rows) carries only the
//! rows the adjacency structure demands (the CAGNET/"reducing
//! communication in GNN training" observation): it is a *pull* gather over
//! a row space sharded equally across the group, where each rank names the
//! global rows it wants (a `RowRequestPlan`'s column support) and receives
//! exactly those, in request order. Different ranks may request different
//! row sets. Its ledger events record the *indexed* size — the rows this
//! rank actually served plus its index upload — so cost-model replay and
//! the simulated studies see honest sparse message volumes, directly
//! comparable with the dense events' contributed-payload convention.
//!
//! Nonblocking calls count as collectives for ordering purposes *at their
//! start call*: all ranks must start them at the same point of the
//! collective sequence. At most one collective may be in flight per group
//! per rank — `wait()` the pending handle before issuing the next
//! collective on the *same* group (collectives on *other* groups may run
//! while it is pending; the overlap paths in `DistLayer` rely on that).
//! Results are bitwise identical to the blocking form: `start_x(...).wait()
//! == x(...)` on every backend, which the conformance suite checks.
//!
//! # Determinism
//!
//! Conforming backends reduce contributions in ascending rank order, so an
//! all-reduce produces bitwise-identical results on every rank and across
//! runs even for non-associative `f32` sums. The Fig. 7 serial-equivalence
//! tests depend on this.

use crate::types::{CommElem, ReduceOp, TrafficLedger};

/// A pending nonblocking collective: the future of a `Vec<T>` result.
///
/// Obtained from the `start_*` methods of [`Communicator`]; redeem it with
/// [`wait`](PendingCollective::wait). The handle borrows the communicator
/// that issued it, so the communicator cannot be dropped (or used mutably)
/// while a collective is in flight.
///
/// Dropping a handle whose completion is still deferred is a protocol
/// violation — on backends that move real data the siblings would block
/// forever waiting for this rank to run the read phase — so `Drop` panics
/// (unless the thread is already unwinding), which the thread world turns
/// into a clean world-wide poison. Always `wait()`.
pub struct PendingCollective<'c, T> {
    state: PendingState<'c, T>,
}

enum PendingState<'c, T> {
    /// Result already materialized (cost-model backends, trivial worlds).
    Ready(Vec<T>),
    /// Completion deferred to `wait()` (the thread backend posts its
    /// contribution at start time and runs the read phase here).
    Deferred(Box<dyn FnOnce() -> Vec<T> + 'c>),
}

impl<'c, T> PendingCollective<'c, T> {
    /// A collective that already completed at start time.
    pub fn ready(result: Vec<T>) -> Self {
        Self { state: PendingState::Ready(result) }
    }

    /// A collective whose completion runs inside `wait()`.
    pub fn deferred(complete: impl FnOnce() -> Vec<T> + 'c) -> Self {
        Self { state: PendingState::Deferred(Box::new(complete)) }
    }

    /// Block until the collective completes and return its result.
    pub fn wait(mut self) -> Vec<T> {
        match std::mem::replace(&mut self.state, PendingState::Ready(Vec::new())) {
            PendingState::Ready(v) => v,
            PendingState::Deferred(f) => f(),
        }
    }
}

impl<T> Drop for PendingCollective<'_, T> {
    fn drop(&mut self) {
        if matches!(self.state, PendingState::Deferred(_)) && !std::thread::panicking() {
            panic!(
                "PendingCollective dropped without wait(): the collective never completed \
                 on this rank and sibling ranks would deadlock"
            );
        }
    }
}

/// The collective-communication backend interface.
///
/// Implementors provide the collective set the paper's algorithms use, the
/// MPI-style `split_by` for building the X/Y/Z axis groups of the 3D grid,
/// and a shared [`TrafficLedger`] for cost-model replay. See the
/// [module docs](self) for the SPMD contract, the nonblocking rules and
/// the determinism requirement — they are part of this trait's contract
/// and hold for every backend.
///
/// Two backends ship with the workspace:
///
/// * [`ThreadComm`](crate::ThreadComm) — every rank is an OS thread,
///   collectives move real data through shared memory;
/// * `SimComm` (in `plexus-simnet`) — a single-process, cost-only world
///   that executes collectives logically on this rank's data shapes and
///   charges the §4 ring-cost equations, so thousand-rank grids run as
///   perf-model studies without a thousand threads.
pub trait Communicator: Sized {
    /// Rank within this group (`0..size()`).
    fn rank(&self) -> usize;

    /// Number of ranks in this group.
    fn size(&self) -> usize;

    /// Label given at creation ("world") or split time ("x", "y", "z"...).
    fn label(&self) -> &'static str;

    /// This rank's traffic ledger (shared across all groups derived on
    /// this rank).
    fn ledger(&self) -> &TrafficLedger;

    /// Synchronize all ranks of the group.
    fn barrier(&self);

    /// All-reduce in place: after the call every rank's `buf` holds the
    /// elementwise reduction over all ranks' inputs.
    ///
    /// Default: `start_all_reduce(buf, op).wait()` copied back into `buf`.
    fn all_reduce<T: CommElem>(&self, buf: &mut [T], op: ReduceOp) {
        let out = self.start_all_reduce(buf, op).wait();
        buf.copy_from_slice(&out);
    }

    /// All-gather equal-size shards: the concatenation of every rank's
    /// `src` in rank order (length `src.len() * size()`).
    ///
    /// Default: `start_all_gather(src).wait()`.
    fn all_gather<T: CommElem>(&self, src: &[T]) -> Vec<T> {
        self.start_all_gather(src).wait()
    }

    /// Reduce all ranks' equal-length buffers elementwise, then return
    /// this rank's `1/size()` chunk of the result. `buf.len()` must be
    /// divisible by the group size.
    ///
    /// Default: `start_reduce_scatter(buf, op).wait()`.
    fn reduce_scatter<T: CommElem>(&self, buf: &[T], op: ReduceOp) -> Vec<T> {
        self.start_reduce_scatter(buf, op).wait()
    }

    /// Row-indexed sparse all-gather over a row space sharded equally
    /// across the group.
    ///
    /// Every rank holds `local_rows = src.len() / row_width` rows; the
    /// *global* row space is the concatenation of all ranks' blocks in
    /// rank order (`rows_total = local_rows * size()`), so global row `g`
    /// lives on rank `g / local_rows` at local index `g % local_rows`.
    /// `row_ids` names the global rows **this** rank wants — a *pull*:
    /// different ranks may request different (even empty) sets, but every
    /// rank must still make the call (it is a collective). Returns the
    /// requested rows concatenated in `row_ids` order
    /// (`row_ids.len() * row_width` elements).
    ///
    /// Requesting every global row in ascending order reproduces the dense
    /// [`all_gather`](Communicator::all_gather) bitwise — the conformance
    /// suite holds backends to that.
    ///
    /// Default: `start_all_gather_rows(...).wait()`.
    fn all_gather_rows<T: CommElem>(&self, src: &[T], row_ids: &[u32], row_width: usize) -> Vec<T> {
        self.start_all_gather_rows(src, row_ids, row_width).wait()
    }

    /// All-to-all: `sends[d]` goes to rank `d`; returns `recv` where
    /// `recv[s]` came from rank `s`. Chunks may be ragged (the BNS-GCN
    /// boundary exchange needs that).
    fn all_to_all<T: CommElem>(&self, sends: Vec<Vec<T>>) -> Vec<Vec<T>>;

    /// MPI_Comm_split with the color/key assignment given as a pure
    /// function of the *group* rank: ranks whose `f(rank).0` (color) match
    /// form a new group, ordered by `(key, parent rank)`.
    ///
    /// Taking the whole rank→(color, key) map instead of just this rank's
    /// pair is what lets a single-process backend compute subgroup
    /// membership without peers; in SPMD programs the assignment is a pure
    /// function of rank anyway (the 3D grid's axis groups are index
    /// arithmetic on grid coordinates).
    fn split_by<F>(&self, f: F, label: &'static str) -> Self
    where
        F: Fn(usize) -> (u64, u64);

    /// Nonblocking [`all_reduce`](Communicator::all_reduce): launches the
    /// collective over `src` and returns a handle; `wait()` yields the
    /// reduced vector. This is the collective a backend *implements*; the
    /// blocking form is derived from it.
    fn start_all_reduce<'c, T: CommElem>(
        &'c self,
        src: &[T],
        op: ReduceOp,
    ) -> PendingCollective<'c, T>;

    /// Nonblocking [`all_gather`](Communicator::all_gather); the blocking
    /// form is derived from it.
    fn start_all_gather<'c, T: CommElem>(&'c self, src: &[T]) -> PendingCollective<'c, T>;

    /// Nonblocking [`reduce_scatter`](Communicator::reduce_scatter); the
    /// blocking form is derived from it.
    fn start_reduce_scatter<'c, T: CommElem>(
        &'c self,
        src: &[T],
        op: ReduceOp,
    ) -> PendingCollective<'c, T>;

    /// Nonblocking [`all_gather_rows`](Communicator::all_gather_rows); the
    /// blocking form is derived from it. Launching posts this rank's
    /// request (and makes its block servable); `wait()` completes the
    /// exchange, which lets the trainer prepare the scatter target while
    /// rows are in flight.
    fn start_all_gather_rows<'c, T: CommElem>(
        &'c self,
        src: &[T],
        row_ids: &[u32],
        row_width: usize,
    ) -> PendingCollective<'c, T>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ready_pending_returns_value() {
        let p = PendingCollective::ready(vec![1u32, 2, 3]);
        assert_eq!(p.wait(), vec![1, 2, 3]);
    }

    #[test]
    fn deferred_pending_runs_on_wait() {
        let mut ran = false;
        let p = PendingCollective::deferred(|| {
            ran = true;
            vec![7.0f32]
        });
        assert_eq!(p.wait(), vec![7.0]);
        assert!(ran, "completion closure must run inside wait()");
    }

    #[test]
    fn dropping_deferred_pending_panics() {
        let caught = std::panic::catch_unwind(|| {
            let p = PendingCollective::deferred(|| vec![0.0f32]);
            drop(p);
        });
        assert!(caught.is_err(), "deferred handle dropped without wait() must fail loudly");
    }

    #[test]
    fn dropping_ready_pending_is_harmless() {
        // Eager backends complete at start time; discarding the result is
        // not a protocol violation.
        drop(PendingCollective::ready(vec![1u32]));
    }
}
