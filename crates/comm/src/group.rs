//! Process groups and the thread-backed [`Communicator`] implementation.
//!
//! [`ThreadComm`] is the per-rank handle onto a process group. Collectives
//! follow a post / barrier / read-all / barrier / clear-own protocol over a
//! shared slot table:
//!
//! 1. each rank posts its contribution into its own slot;
//! 2. barrier — all contributions visible;
//! 3. each rank reads every slot (in ascending rank order, which makes
//!    reductions deterministic and identical across ranks);
//! 4. barrier — nobody may overwrite a slot before all ranks finished
//!    reading;
//! 5. each rank clears its own slot, ready for the next collective.
//!
//! The nonblocking `start_*` collectives split the protocol at the obvious
//! seam: the *start* call runs step 1 (post) and returns immediately, and
//! [`PendingCollective::wait`] runs steps 2–5 — so a rank that posted early
//! keeps computing instead of idling in the barrier while stragglers
//! arrive. The blocking forms are the trait defaults, literally
//! `start_*(..).wait()`, so this backend implements exactly one data path
//! per collective.
//!
//! The sparse row gather (`start_all_gather_rows`) runs the protocol
//! *twice* inside one collective: phase one exchanges the row-index
//! requests (posted at start time), phase two ships only the requested
//! rows. Its ledger event records the indexed size — the rows this rank
//! actually served plus its index upload — which is what makes the
//! dense-vs-sparse volume studies honest.
//!
//! This is O(G·M) per rank instead of a ring's O(M), which is irrelevant
//! for correctness runs (G ≤ 64 threads) — the *cost* of the real ring
//! algorithm is accounted separately by the performance model from the
//! traffic ledger.

use crate::barrier::PoisonBarrier;
use crate::communicator::{Communicator, PendingCollective};
use crate::fault::FaultPlan;
use crate::types::{CollOp, CommElem, CommEvent, ReduceOp, TrafficLedger};
use crate::world::WorldState;
use parking_lot::Mutex;
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::Arc;

type Slot = Option<Box<dyn Any + Send>>;

/// State shared by all ranks of one process group.
pub(crate) struct GroupShared {
    size: usize,
    label: &'static str,
    barrier: Arc<PoisonBarrier>,
    slots: Mutex<Vec<Slot>>,
    /// Subgroups created by `split`, keyed by (split sequence number, color).
    children: Mutex<HashMap<(u64, u64), Arc<GroupShared>>>,
}

impl GroupShared {
    pub(crate) fn new(world: &Arc<WorldState>, size: usize, label: &'static str) -> Arc<Self> {
        let barrier = PoisonBarrier::new(size);
        world.register_barrier(&barrier);
        Arc::new(Self {
            size,
            label,
            barrier,
            slots: Mutex::new((0..size).map(|_| None).collect()),
            children: Mutex::new(HashMap::new()),
        })
    }
}

/// Per-rank handle for one process group of the thread-world backend:
/// every rank is an OS thread and collectives move real data through
/// shared memory.
///
/// The SPMD calling contract is documented once, on [`Communicator`].
/// Misuse (mismatched element types or buffer lengths) panics with a
/// descriptive message; [`run_world`](crate::run_world) then poisons the
/// world so sibling ranks unwind too.
pub struct ThreadComm {
    rank: usize,
    size: usize,
    shared: Arc<GroupShared>,
    world: Arc<WorldState>,
    ledger: Arc<TrafficLedger>,
    /// This thread's rank in the *world* group, stable across splits;
    /// poison diagnostics and fault injection key off it.
    world_rank: usize,
    /// Armed fault-injection plan, if any (see [`FaultPlan`]).
    faults: Option<Arc<FaultPlan>>,
    /// Number of `split` calls made through this handle (must advance in
    /// lockstep across ranks; SPMD guarantees it).
    split_seq: Cell<u64>,
}

impl ThreadComm {
    pub(crate) fn new(
        rank: usize,
        shared: Arc<GroupShared>,
        world: Arc<WorldState>,
        ledger: Arc<TrafficLedger>,
        world_rank: usize,
        faults: Option<Arc<FaultPlan>>,
    ) -> Self {
        assert!(rank < shared.size, "ThreadComm: rank {} out of {}", rank, shared.size);
        Self {
            rank,
            size: shared.size,
            shared,
            world,
            ledger,
            world_rank,
            faults,
            split_seq: Cell::new(0),
        }
    }

    /// This rank's position in the world group (invariant under `split`).
    #[inline]
    pub fn world_rank(&self) -> usize {
        self.world_rank
    }

    /// The fault plan installed by `run_world_faulted`, if any.
    #[inline]
    pub fn faults(&self) -> Option<&Arc<FaultPlan>> {
        self.faults.as_ref()
    }

    fn record(&self, op: CollOp, bytes: usize) {
        self.world.note_op(self.world_rank, op, self.shared.label);
        if let Some(plan) = &self.faults {
            plan.collective_tick(self.world_rank, op.name(), self.shared.label);
        }
        self.ledger.record(CommEvent {
            op,
            bytes,
            group_size: self.size,
            group: self.shared.label,
        });
    }

    fn post(&self, value: Box<dyn Any + Send>) {
        let mut slots = self.shared.slots.lock();
        assert!(
            slots[self.rank].is_none(),
            "collective protocol violation on rank {} of group '{}': slot still occupied \
             (mismatched collective sequence across ranks, or a PendingCollective that was \
             never waited?)",
            self.rank,
            self.shared.label
        );
        slots[self.rank] = Some(value);
    }

    fn clear_own_slot(&self) {
        self.shared.slots.lock()[self.rank] = None;
    }

    /// Read phase helper: runs `f` over each rank's posted value in
    /// ascending rank order, under the slot lock.
    fn read_all<T: 'static, R>(&self, mut f: impl FnMut(usize, &T) -> R) -> Vec<R> {
        let slots = self.shared.slots.lock();
        (0..self.size)
            .map(|r| {
                let boxed = slots[r].as_ref().unwrap_or_else(|| {
                    panic!(
                        "collective on group '{}': rank {} posted nothing (mismatched calls)",
                        self.shared.label, r
                    )
                });
                let v = boxed.downcast_ref::<T>().unwrap_or_else(|| {
                    panic!(
                        "collective type mismatch on group '{}': rank {} posted a different \
                         element type",
                        self.shared.label, r
                    )
                });
                f(r, v)
            })
            .collect()
    }

    /// Steps 2–5 of the protocol for the equal-length collectives: barrier,
    /// feed every rank's posted `Vec<T>` to `sink` in ascending rank order
    /// (after a uniform type/length check), barrier, clear own slot. All
    /// reduction/gather variants share this loop so the deterministic order
    /// and the diagnostics cannot drift apart.
    fn consume_slots<T: CommElem>(
        &self,
        what: &str,
        len: usize,
        mut sink: impl FnMut(usize, &[T]),
    ) {
        self.shared.barrier.wait();
        {
            let slots = self.shared.slots.lock();
            for r in 0..self.size {
                let v = slots[r]
                    .as_ref()
                    .unwrap_or_else(|| {
                        panic!(
                            "{} on group '{}': rank {} posted nothing (mismatched calls)",
                            what, self.shared.label, r
                        )
                    })
                    .downcast_ref::<Vec<T>>()
                    .unwrap_or_else(|| {
                        panic!(
                            "{} type mismatch on group '{}' (rank {})",
                            what, self.shared.label, r
                        )
                    });
                assert_eq!(
                    v.len(),
                    len,
                    "{} length mismatch on group '{}': rank {} sent {}, rank {} sent {}",
                    what,
                    self.shared.label,
                    r,
                    v.len(),
                    self.rank,
                    len
                );
                sink(r, v);
            }
        }
        self.shared.barrier.wait();
        self.clear_own_slot();
    }

    /// Completion of an in-flight all-reduce, building the result vector.
    fn finish_all_reduce<T: CommElem>(&self, len: usize, op: ReduceOp) -> Vec<T> {
        let mut out: Vec<T> = Vec::with_capacity(len);
        self.consume_slots::<T>("all_reduce", len, |r, v| {
            if r == 0 {
                out.extend_from_slice(v);
            } else {
                for (acc, &x) in out.iter_mut().zip(v.iter()) {
                    *acc = T::reduce(op, *acc, x);
                }
            }
        });
        out
    }

    /// Completion of an in-flight all-gather.
    fn finish_all_gather<T: CommElem>(&self, len: usize) -> Vec<T> {
        let mut out = Vec::with_capacity(len * self.size);
        self.consume_slots::<T>("all_gather", len, |_, v| out.extend_from_slice(v));
        out
    }

    /// Completion of an in-flight reduce-scatter.
    fn finish_reduce_scatter<T: CommElem>(&self, len: usize, op: ReduceOp) -> Vec<T> {
        let chunk = len / self.size;
        let lo = self.rank * chunk;
        let hi = lo + chunk;
        let mut out: Vec<T> = Vec::with_capacity(chunk);
        self.consume_slots::<T>("reduce_scatter", len, |r, v| {
            if r == 0 {
                out.extend_from_slice(&v[lo..hi]);
            } else {
                for (acc, &x) in out.iter_mut().zip(&v[lo..hi]) {
                    *acc = T::reduce(op, *acc, x);
                }
            }
        });
        out
    }

    /// Completion of an in-flight sparse row gather. Phase one (index
    /// exchange) was posted at start time; this runs: barrier → read every
    /// rank's `row_ids` and derive each owner's *serve list* (the sorted,
    /// deduplicated local rows anyone requested of it — every rank derives
    /// all `size` lists identically from the same index table, so owners
    /// and readers agree on row placement without another exchange) →
    /// barrier → repost this rank's served rows → barrier → copy each
    /// requested row out of its owner's served block → barrier → clear.
    fn finish_all_gather_rows<T: CommElem>(
        &self,
        src: Vec<T>,
        row_ids: Vec<u32>,
        row_width: usize,
    ) -> Vec<T> {
        let local_rows = src.len() / row_width;
        self.shared.barrier.wait();
        let all_ids = self.read_all::<Vec<u32>, Vec<u32>>(|_, v| v.clone());
        let mut serve: Vec<Vec<u32>> = vec![Vec::new(); self.size];
        for ids in &all_ids {
            for &g in ids {
                assert!(
                    (g as usize) < local_rows * self.size,
                    "all_gather_rows on group '{}': row id {} out of {} global rows",
                    self.shared.label,
                    g,
                    local_rows * self.size
                );
                serve[g as usize / local_rows].push(g % local_rows as u32);
            }
        }
        for s in &mut serve {
            s.sort_unstable();
            s.dedup();
        }
        self.shared.barrier.wait();
        self.clear_own_slot();
        let mut mine: Vec<T> = Vec::with_capacity(serve[self.rank].len() * row_width);
        for &l in &serve[self.rank] {
            mine.extend_from_slice(&src[l as usize * row_width..][..row_width]);
        }
        // Indexed sizes: the rows this rank actually serves plus its index
        // upload — never the dense block.
        self.record(
            CollOp::AllGatherRows,
            mine.len() * T::BYTES + row_ids.len() * std::mem::size_of::<u32>(),
        );
        self.post(Box::new(mine));
        self.shared.barrier.wait();
        let mut out: Vec<T> = Vec::with_capacity(row_ids.len() * row_width);
        {
            let slots = self.shared.slots.lock();
            for &g in &row_ids {
                let owner = g as usize / local_rows;
                let local = g % local_rows as u32;
                let served = slots[owner]
                    .as_ref()
                    .expect("all_gather_rows: owner posted no rows")
                    .downcast_ref::<Vec<T>>()
                    .expect("all_gather_rows row-phase type mismatch");
                let pos = serve[owner]
                    .binary_search(&local)
                    .expect("all_gather_rows: requested row missing from serve list");
                out.extend_from_slice(&served[pos * row_width..][..row_width]);
            }
        }
        self.shared.barrier.wait();
        self.clear_own_slot();
        out
    }

    /// MPI_Comm_split with this rank's concrete color/key pair: ranks with
    /// equal `color` form a new group, ordered by `(key, parent rank)`.
    /// Must be called collectively. The returned communicator shares this
    /// rank's traffic ledger.
    ///
    /// This is the exchange-based primitive; [`Communicator::split_by`]
    /// delegates here with `f(self.rank())`.
    pub fn split(&self, color: u64, key: u64, label: &'static str) -> ThreadComm {
        let seq = self.split_seq.get();
        self.split_seq.set(seq + 1);

        self.post(Box::new((color, key)));
        self.shared.barrier.wait();
        // Determine members of my color, ordered by (key, parent rank).
        let pairs = self.read_all::<(u64, u64), (u64, u64)>(|_, &(c, k)| (c, k));
        let mut members: Vec<(u64, usize)> = pairs
            .iter()
            .enumerate()
            .filter(|(_, &(c, _))| c == color)
            .map(|(r, &(_, k))| (k, r))
            .collect();
        members.sort_unstable();
        let group_rank = members
            .iter()
            .position(|&(_, r)| r == self.rank)
            .expect("split: own rank missing from its color group");
        // The group leader materializes the shared state.
        if group_rank == 0 {
            let child = GroupShared::new(&self.world, members.len(), label);
            self.shared.children.lock().insert((seq, color), child);
        }
        self.shared.barrier.wait();
        let child = Arc::clone(
            self.shared
                .children
                .lock()
                .get(&(seq, color))
                .expect("split: leader did not publish the subgroup"),
        );
        self.shared.barrier.wait();
        self.clear_own_slot();
        ThreadComm::new(
            group_rank,
            child,
            Arc::clone(&self.world),
            Arc::clone(&self.ledger),
            self.world_rank,
            self.faults.clone(),
        )
    }
}

impl Communicator for ThreadComm {
    #[inline]
    fn rank(&self) -> usize {
        self.rank
    }

    #[inline]
    fn size(&self) -> usize {
        self.size
    }

    fn label(&self) -> &'static str {
        self.shared.label
    }

    fn ledger(&self) -> &TrafficLedger {
        &self.ledger
    }

    fn barrier(&self) {
        self.record(CollOp::Barrier, 0);
        self.shared.barrier.wait();
    }

    // Specializes the trait's `start_all_reduce().wait()` default: the
    // hottest collective reduces straight into `buf`, skipping the
    // default's result allocation and copy-back. Semantics are identical
    // (same ascending-rank fold `consume_slots` drives everywhere).
    fn all_reduce<T: CommElem>(&self, buf: &mut [T], op: ReduceOp) {
        self.record(CollOp::AllReduce, buf.len() * T::BYTES);
        self.post(Box::new(buf.to_vec()));
        let len = buf.len();
        self.consume_slots::<T>("all_reduce", len, |r, v| {
            if r == 0 {
                buf.copy_from_slice(v);
            } else {
                for (acc, &x) in buf.iter_mut().zip(v.iter()) {
                    *acc = T::reduce(op, *acc, x);
                }
            }
        });
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
        self.post(Box::new(sends));
        self.shared.barrier.wait();
        let out = self.read_all::<Vec<Vec<T>>, Vec<T>>(|_, per_dest| per_dest[self.rank].clone());
        self.shared.barrier.wait();
        self.clear_own_slot();
        out
    }

    fn split_by<F>(&self, f: F, label: &'static str) -> Self
    where
        F: Fn(usize) -> (u64, u64),
    {
        let (color, key) = f(self.rank);
        self.split(color, key, label)
    }

    fn start_all_reduce<'c, T: CommElem>(
        &'c self,
        src: &[T],
        op: ReduceOp,
    ) -> PendingCollective<'c, T> {
        self.record(CollOp::AllReduce, src.len() * T::BYTES);
        self.post(Box::new(src.to_vec()));
        let len = src.len();
        PendingCollective::deferred(move || self.finish_all_reduce(len, op))
    }

    fn start_all_gather<'c, T: CommElem>(&'c self, src: &[T]) -> PendingCollective<'c, T> {
        self.record(CollOp::AllGather, src.len() * T::BYTES);
        self.post(Box::new(src.to_vec()));
        let len = src.len();
        PendingCollective::deferred(move || self.finish_all_gather(len))
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
        self.record(CollOp::ReduceScatter, src.len() * T::BYTES);
        self.post(Box::new(src.to_vec()));
        let len = src.len();
        PendingCollective::deferred(move || self.finish_reduce_scatter(len, op))
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
        // Phase one (the index exchange) posts at start time; the ledger
        // event lands at completion, once this rank knows its serve list.
        self.post(Box::new(row_ids.to_vec()));
        let src = src.to_vec();
        let row_ids = row_ids.to_vec();
        PendingCollective::deferred(move || self.finish_all_gather_rows(src, row_ids, row_width))
    }
}
