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
//!   [`PendingCollective::wait_into`] when it needs the result, handing it
//!   the buffer the result lands in. This is the §5.2
//!   comm/compute-overlap seam: `DistLayer` launches the axis all-reduce
//!   of one tile while the next tile's GEMM/SpMM is still running.
//! * the blocking form (`all_reduce` in place, `all_gather_into`,
//!   `reduce_scatter_into`) returns only when the result sits in the
//!   caller's buffer. Blocking forms are default-implemented as
//!   `start_*(..).wait_into(out)`, so a backend implements exactly one
//!   data path per collective — the nonblocking one.
//!
//! Neither form allocates its result: the caller owns the output buffer
//! (the engine takes it from the layer's workspace). The `Vec`-returning
//! `all_gather`, `reduce_scatter`, `all_gather_rows` and
//! [`PendingCollective::wait`] are thin wrappers that allocate the vector
//! first, for callers outside the epoch loop.
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
//! per rank — wait on the pending handle before issuing the next
//! collective on the *same* group (collectives on *other* groups may run
//! while it is pending; the overlap paths in `DistLayer` rely on that).
//! Results are bitwise identical to the blocking form:
//! `start_x(..).wait_into(out)`, `x_into(.., out)` and `x(..)` agree on
//! every backend, which the conformance suite checks.
//!
//! # Determinism
//!
//! Conforming backends reduce contributions in ascending rank order, so an
//! all-reduce produces bitwise-identical results on every rank and across
//! runs even for non-associative `f32` sums. The Fig. 7 serial-equivalence
//! tests depend on this.

use crate::types::{CommElem, ReduceOp, TrafficLedger};

/// A pending nonblocking collective: the future of a result of
/// [`result_len`](PendingCollective::result_len) elements.
///
/// Obtained from the `start_*` methods of [`Communicator`]; redeem it with
/// [`wait_into`](PendingCollective::wait_into), which writes the result
/// into a buffer the caller owns (or [`wait`](PendingCollective::wait),
/// which allocates one). The handle borrows the communicator that issued
/// it, so the communicator cannot be dropped (or used mutably) while a
/// collective is in flight.
///
/// Dropping a handle whose completion is still deferred is a protocol
/// violation — on backends that move real data the siblings would block
/// forever waiting for this rank to run the read phase — so `Drop` panics
/// (unless the thread is already unwinding), which the thread world turns
/// into a clean world-wide poison. Always wait.
pub struct PendingCollective<'c, T> {
    len: usize,
    state: PendingState<'c, T>,
}

/// The deferred read phase: writes the whole result into its argument.
type Completion<'c, T> = Box<dyn FnOnce(&mut [T]) + 'c>;

enum PendingState<'c, T> {
    /// Result already materialized (cost-model backends).
    Ready(Vec<T>),
    /// Completion deferred to `wait_into()` (the thread backend posts its
    /// contribution at start time and runs the read phase there, straight
    /// into the caller's buffer).
    Deferred(Completion<'c, T>),
    /// Redeemed.
    Done,
}

impl<'c, T: Copy> PendingCollective<'c, T> {
    /// A collective that already completed at start time.
    pub fn ready(result: Vec<T>) -> Self {
        Self { len: result.len(), state: PendingState::Ready(result) }
    }

    /// A collective of `len` result elements whose completion runs inside
    /// `wait_into()` and writes the whole result into its argument.
    pub fn deferred(len: usize, complete: impl FnOnce(&mut [T]) + 'c) -> Self {
        Self { len, state: PendingState::Deferred(Box::new(complete)) }
    }

    /// Number of elements the result has (the length `wait_into` expects).
    pub fn result_len(&self) -> usize {
        self.len
    }

    /// Block until the collective completes and write its result into
    /// `out`, which must hold exactly [`result_len`](Self::result_len)
    /// elements. Every element of `out` is overwritten.
    pub fn wait_into(mut self, out: &mut [T]) {
        assert_eq!(
            out.len(),
            self.len,
            "PendingCollective::wait_into: output holds {} elements, the result has {}",
            out.len(),
            self.len
        );
        match std::mem::replace(&mut self.state, PendingState::Done) {
            PendingState::Ready(v) => out.copy_from_slice(&v),
            PendingState::Deferred(complete) => complete(out),
            PendingState::Done => unreachable!("a pending collective is redeemed once"),
        }
    }

    /// Block until the collective completes and return its result in a
    /// freshly allocated vector.
    pub fn wait(mut self) -> Vec<T>
    where
        T: Default,
    {
        if let PendingState::Ready(v) = &mut self.state {
            let v = std::mem::take(v);
            self.state = PendingState::Done;
            return v;
        }
        let mut out = vec![T::default(); self.len];
        self.wait_into(&mut out);
        out
    }
}

impl<T> Drop for PendingCollective<'_, T> {
    fn drop(&mut self) {
        if matches!(self.state, PendingState::Deferred(_)) && !std::thread::panicking() {
            panic!(
                "PendingCollective dropped without being waited on: the collective never completed \
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
    /// Default: `start_all_reduce(buf, op).wait_into(buf)`.
    fn all_reduce<T: CommElem>(&self, buf: &mut [T], op: ReduceOp) {
        self.start_all_reduce(buf, op).wait_into(buf);
    }

    /// All-gather equal-size shards into `out`: the concatenation of every
    /// rank's `src` in rank order (`out.len() == src.len() * size()`).
    ///
    /// Default: `start_all_gather(src).wait_into(out)`.
    fn all_gather_into<T: CommElem>(&self, src: &[T], out: &mut [T]) {
        self.start_all_gather(src).wait_into(out);
    }

    /// [`all_gather_into`](Communicator::all_gather_into) into a freshly
    /// allocated vector.
    fn all_gather<T: CommElem>(&self, src: &[T]) -> Vec<T> {
        self.start_all_gather(src).wait()
    }

    /// Reduce all ranks' equal-length buffers elementwise, then write this
    /// rank's `1/size()` chunk of the result into `out`. `src.len()` must
    /// be divisible by the group size and `out.len() == src.len() /
    /// size()`.
    ///
    /// Default: `start_reduce_scatter(src, op).wait_into(out)`.
    fn reduce_scatter_into<T: CommElem>(&self, src: &[T], op: ReduceOp, out: &mut [T]) {
        self.start_reduce_scatter(src, op).wait_into(out);
    }

    /// [`reduce_scatter_into`](Communicator::reduce_scatter_into) into a
    /// freshly allocated vector.
    fn reduce_scatter<T: CommElem>(&self, src: &[T], op: ReduceOp) -> Vec<T> {
        self.start_reduce_scatter(src, op).wait()
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
    /// Default: `start_all_gather_rows(..).wait()`.
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
    /// collective over `src` and returns a handle whose `wait_into()`
    /// writes the reduced buffer. This is the collective a backend
    /// *implements*; the blocking form is derived from it. `src` is free
    /// again as soon as this returns — it may even be the buffer the result
    /// later lands in.
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
    /// request (and makes its block servable); `wait_into()` completes the
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
    fn ready_pending_lands_in_caller_buffer() {
        let mut out = [0u32; 3];
        PendingCollective::ready(vec![1u32, 2, 3]).wait_into(&mut out);
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn deferred_pending_runs_on_wait() {
        let mut ran = false;
        let p = PendingCollective::deferred(1, |out: &mut [f32]| {
            ran = true;
            out[0] = 7.0;
        });
        assert_eq!(p.result_len(), 1);
        assert_eq!(p.wait(), vec![7.0]);
        assert!(ran, "completion closure must run inside wait()");
    }

    #[test]
    fn wait_into_rejects_a_wrong_length_buffer() {
        let caught = std::panic::catch_unwind(|| {
            let mut out = [0.0f32; 2];
            PendingCollective::ready(vec![1.0f32]).wait_into(&mut out);
        });
        assert!(caught.is_err(), "a short or long output buffer must fail loudly");
    }

    #[test]
    fn dropping_deferred_pending_panics() {
        let caught = std::panic::catch_unwind(|| {
            let p = PendingCollective::deferred(1, |out: &mut [f32]| out[0] = 0.0);
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
