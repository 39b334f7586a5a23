//! Process groups and the thread-backed [`Communicator`] implementation.
//!
//! [`ThreadComm`] is the per-rank handle onto a process group. Collectives
//! follow a post / barrier / read-all / barrier / clear-own protocol over a
//! shared slot table:
//!
//! 1. each rank copies its contribution into its handle's *staging
//!    buffer* and posts that buffer into its own slot;
//! 2. barrier — all contributions visible;
//! 3. each rank reads every slot (in ascending rank order, which makes
//!    reductions deterministic and identical across ranks) and writes its
//!    result straight into the caller's output buffer;
//! 4. barrier — nobody may overwrite a slot before all ranks finished
//!    reading;
//! 5. each rank takes its own staging buffer back out of its slot, ready
//!    for the next collective.
//!
//! The staging buffers (one per posted value type, kept by the handle)
//! and the caller-owned outputs are what make the collectives
//! allocation-free once warm: a contribution costs one copy into a buffer
//! that already has the capacity, and no result is ever allocated here.
//!
//! The nonblocking `start_*` collectives split the protocol at the obvious
//! seam: the *start* call runs step 1 (post) and returns immediately, and
//! [`PendingCollective::wait_into`] runs steps 2–5 — so a rank that posted
//! early keeps computing instead of idling in the barrier while stragglers
//! arrive. The blocking forms are the trait defaults, literally
//! `start_*(..).wait_into(out)`, so this backend implements exactly one
//! data path per collective.
//!
//! A one-member group is the identity, decided in one place
//! (the private `offer` step and the completion that pairs with it): the
//! staged contribution is kept by the pending handle instead of posted,
//! completion reads it as the whole slot table, and no barrier is waited
//! on. The in-place all-reduce, whose source and destination coincide,
//! does not even stage. Every call is still recorded in the ledger with
//! the bytes a larger group would record.
//!
//! The sparse row gather (`start_all_gather_rows`) posts this rank's row
//! request together with its block; on completion every rank copies each
//! requested row straight out of its owner's posted block. Its ledger
//! event records the indexed size — the distinct rows this rank's block
//! served plus its index upload — which is what makes the dense-vs-sparse
//! volume studies honest.
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
use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::Arc;

type Posted = Box<dyn Any + Send>;
type Slot = Option<Posted>;

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

/// What the sparse row gather posts: this rank's request and its block.
#[derive(Default)]
struct RowExchange<T> {
    ids: Vec<u32>,
    block: Vec<T>,
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
    /// Staging buffers, at most one per posted value type, reused by every
    /// collective on this handle (protocol steps 1 and 5).
    stages: RefCell<Vec<Posted>>,
    /// Scratch of the sparse row gather: which local rows were requested.
    served: RefCell<Vec<bool>>,
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
            stages: RefCell::new(Vec::new()),
            served: RefCell::new(Vec::new()),
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

    fn post(&self, value: Posted) {
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

    fn clear_own_slot(&self) -> Slot {
        self.shared.slots.lock()[self.rank].take()
    }

    /// This handle's staging buffer of type `V`, filled by `fill`. The
    /// buffer keeps its capacity across calls, so once warm a contribution
    /// costs a copy and no allocation.
    fn stage<V: Any + Send + Default>(&self, fill: impl FnOnce(&mut V)) -> Posted {
        let mut stages = self.stages.borrow_mut();
        let mut stage = match stages.iter().position(|s| s.is::<V>()) {
            Some(i) => stages.swap_remove(i),
            None => Box::new(V::default()),
        };
        fill(stage.downcast_mut::<V>().expect("stage holds its own type"));
        stage
    }

    /// Step 1 for a staged contribution: post it, or — in a one-member
    /// group, where the collective is the identity — hand it back to be
    /// kept by the pending handle instead.
    fn offer(&self, stage: Posted) -> Option<Posted> {
        if self.size == 1 {
            return Some(stage);
        }
        self.post(stage);
        None
    }

    /// Steps 2–5 around `read`, which sees every rank's posted value as a
    /// slot table in rank order; `kept` is what [`offer`](Self::offer)
    /// returned. A kept contribution is the whole table: no barrier. Either
    /// way the staging buffer goes back to the handle afterwards.
    fn complete<R>(&self, kept: Option<Posted>, read: impl FnOnce(&[Slot]) -> R) -> R {
        let (result, stage) = match kept {
            Some(stage) => {
                let mut table = [Some(stage)];
                let result = read(&table);
                (result, table[0].take())
            }
            None => {
                self.shared.barrier.wait();
                let result = read(&self.shared.slots.lock());
                self.shared.barrier.wait();
                (result, self.clear_own_slot())
            }
        };
        self.stages.borrow_mut().push(stage.expect("own contribution still posted"));
        result
    }

    /// Rank `r`'s posted value, with the diagnostics for mismatched calls.
    fn posted<'s, V: 'static>(&self, slots: &'s [Slot], r: usize, what: &str) -> &'s V {
        slots[r]
            .as_ref()
            .unwrap_or_else(|| {
                panic!(
                    "{} on group '{}': rank {} posted nothing (mismatched calls)",
                    what, self.shared.label, r
                )
            })
            .downcast_ref::<V>()
            .unwrap_or_else(|| {
                panic!(
                    "{} type mismatch on group '{}': rank {} posted a different element type",
                    what, self.shared.label, r
                )
            })
    }

    /// Read phase helper for the exchanges outside the staged collectives
    /// (`split`, `all_to_all`): runs `f` over each rank's posted value in
    /// ascending rank order, under the slot lock.
    fn read_all<T: 'static, R>(&self, mut f: impl FnMut(usize, &T) -> R) -> Vec<R> {
        let slots = self.shared.slots.lock();
        (0..self.size).map(|r| f(r, self.posted::<T>(&slots, r, "collective"))).collect()
    }

    /// One equal-length collective: record it, stage and offer `src`, and
    /// return the handle whose completion feeds every rank's contribution
    /// (after a uniform length check), in ascending rank order, to `fold`
    /// together with the caller's output. All reduction/gather variants
    /// share this path so the deterministic order and the diagnostics
    /// cannot drift apart.
    fn launch<'c, T: CommElem>(
        &'c self,
        op: CollOp,
        src: &[T],
        out_len: usize,
        fold: impl Fn(usize, &[T], &mut [T]) + 'c,
    ) -> PendingCollective<'c, T> {
        self.record(op, std::mem::size_of_val(src));
        let kept = self.offer(self.stage(|v: &mut Vec<T>| {
            v.clear();
            v.extend_from_slice(src);
        }));
        let len = src.len();
        PendingCollective::deferred(out_len, move |out| {
            self.complete(kept, |slots| {
                for r in 0..self.size {
                    let v = self.posted::<Vec<T>>(slots, r, op.name());
                    assert_eq!(
                        v.len(),
                        len,
                        "{} length mismatch on group '{}': rank {} sent {}, rank {} sent {}",
                        op.name(),
                        self.shared.label,
                        r,
                        v.len(),
                        self.rank,
                        len
                    );
                    fold(r, v, out);
                }
            })
        })
    }

    /// Completion of an in-flight sparse row gather: every rank copies its
    /// requested rows straight out of their owners' posted blocks, and
    /// counts the distinct rows anyone requested of *its* block — the
    /// served rows its ledger event records.
    fn finish_all_gather_rows<T: CommElem>(
        &self,
        kept: Option<Posted>,
        local_rows: usize,
        row_width: usize,
        out: &mut [T],
    ) -> usize {
        let what = "all_gather_rows";
        let rows_total = local_rows * self.size;
        let mut served = self.served.borrow_mut();
        served.clear();
        served.resize(local_rows, false);
        self.complete(kept, |slots| {
            let owner_of = |g: u32| {
                assert!(
                    (g as usize) < rows_total,
                    "{} on group '{}': row id {} out of {} global rows",
                    what,
                    self.shared.label,
                    g,
                    rows_total
                );
                (g as usize / local_rows, g as usize % local_rows)
            };
            for r in 0..self.size {
                let req = self.posted::<RowExchange<T>>(slots, r, what);
                assert_eq!(
                    req.block.len(),
                    local_rows * row_width,
                    "{} block mismatch on group '{}': rank {} holds {} elements, rank {} holds {}",
                    what,
                    self.shared.label,
                    r,
                    req.block.len(),
                    self.rank,
                    local_rows * row_width
                );
                for &g in &req.ids {
                    let (owner, local) = owner_of(g);
                    if owner == self.rank {
                        served[local] = true;
                    }
                }
            }
            let mine = self.posted::<RowExchange<T>>(slots, self.rank, what);
            for (dst, &g) in out.chunks_exact_mut(row_width).zip(&mine.ids) {
                let (owner, local) = owner_of(g);
                let block = &self.posted::<RowExchange<T>>(slots, owner, what).block;
                dst.copy_from_slice(&block[local * row_width..][..row_width]);
            }
        });
        served.iter().filter(|&&s| s).count()
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

    // The trait default, except that a one-member reduction in place is
    // the identity with source and destination the same buffer: recorded
    // like any call, it moves no data at all.
    fn all_reduce<T: CommElem>(&self, buf: &mut [T], op: ReduceOp) {
        if self.size == 1 {
            self.record(CollOp::AllReduce, std::mem::size_of_val(buf));
            return;
        }
        self.start_all_reduce(buf, op).wait_into(buf);
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
        self.launch(CollOp::AllReduce, src, src.len(), move |r, v, out| {
            if r == 0 {
                out.copy_from_slice(v);
            } else {
                for (acc, &x) in out.iter_mut().zip(v) {
                    *acc = T::reduce(op, *acc, x);
                }
            }
        })
    }

    fn start_all_gather<'c, T: CommElem>(&'c self, src: &[T]) -> PendingCollective<'c, T> {
        let len = src.len();
        self.launch(CollOp::AllGather, src, len * self.size, move |r, v, out| {
            out[r * len..(r + 1) * len].copy_from_slice(v);
        })
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
        let chunk = src.len() / self.size;
        let own = self.rank * chunk..(self.rank + 1) * chunk;
        self.launch(CollOp::ReduceScatter, src, chunk, move |r, v, out| {
            let v = &v[own.clone()];
            if r == 0 {
                out.copy_from_slice(v);
            } else {
                for (acc, &x) in out.iter_mut().zip(v) {
                    *acc = T::reduce(op, *acc, x);
                }
            }
        })
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
        let kept = self.offer(self.stage(|x: &mut RowExchange<T>| {
            x.ids.clear();
            x.ids.extend_from_slice(row_ids);
            x.block.clear();
            x.block.extend_from_slice(src);
        }));
        let (local_rows, requested) = (src.len() / row_width, row_ids.len());
        PendingCollective::deferred(requested * row_width, move |out| {
            let served = self.finish_all_gather_rows(kept, local_rows, row_width, out);
            // Indexed sizes: the rows this rank's block serves plus its
            // index upload — never the dense block. Recorded once the
            // served set is known, at completion.
            self.record(
                CollOp::AllGatherRows,
                served * row_width * T::BYTES + requested * std::mem::size_of::<u32>(),
            );
        })
    }
}
