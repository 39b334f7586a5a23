//! World construction and rank-thread lifecycle.
//!
//! [`run_world`] is the `mpirun` of this runtime: it spawns one thread per
//! rank, hands each a world [`ThreadComm`], and joins them. If any rank
//! panics, every barrier in the world is poisoned so sibling ranks unwind
//! instead of deadlocking, and the original panic is re-raised on the
//! caller's thread.

use crate::barrier::PoisonBarrier;
use crate::fault::FaultPlan;
use crate::group::{GroupShared, ThreadComm};
use crate::types::{CollOp, CommEvent, TrafficLedger};
use parking_lot::Mutex;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Weak};

/// World-global state: the registry of every barrier ever created in this
/// world (so a crash can poison all of them) plus each rank's last recorded
/// collective (so the poison panic can name where the failure happened).
pub(crate) struct WorldState {
    barriers: Mutex<Vec<Weak<PoisonBarrier>>>,
    /// Per world-rank `(op, group label)` of the most recent collective.
    last_ops: Mutex<Vec<Option<(CollOp, &'static str)>>>,
}

impl WorldState {
    pub(crate) fn new() -> Arc<Self> {
        Arc::new(Self { barriers: Mutex::new(Vec::new()), last_ops: Mutex::new(Vec::new()) })
    }

    pub(crate) fn register_barrier(&self, b: &Arc<PoisonBarrier>) {
        self.barriers.lock().push(Arc::downgrade(b));
    }

    /// Record rank `world_rank`'s most recent collective for diagnostics.
    pub(crate) fn note_op(&self, world_rank: usize, op: CollOp, group: &'static str) {
        let mut ops = self.last_ops.lock();
        if ops.len() <= world_rank {
            ops.resize(world_rank + 1, None);
        }
        ops[world_rank] = Some((op, group));
    }

    /// Poison every barrier, attributing the failure to `world_rank` and
    /// its last recorded collective so sibling ranks unwind with a message
    /// that names the origin instead of an anonymous "another rank".
    pub(crate) fn poison_all_from(&self, world_rank: usize) {
        let last = self.last_ops.lock().get(world_rank).copied().flatten();
        let origin: Arc<str> = match last {
            Some((op, group)) => format!(
                "rank {world_rank} panicked; its last collective was {} on group '{group}'",
                op.name()
            )
            .into(),
            None => format!("rank {world_rank} panicked before its first collective").into(),
        };
        for weak in self.barriers.lock().iter() {
            if let Some(b) = weak.upgrade() {
                b.poison_with(&origin);
            }
        }
    }
}

/// Run an SPMD closure on `size` rank-threads and return the per-rank
/// results in rank order.
///
/// The closure receives this rank's world communicator. Panics on any rank
/// poison the world (unblocking the others) and are re-raised here.
pub fn run_world<R, F>(size: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Send + Sync,
{
    run_world_with(size, f).0
}

/// Like [`run_world`] but also returns each rank's collective-traffic
/// ledger, which the performance model replays against the ring cost
/// equations.
pub fn run_world_with<R, F>(size: usize, f: F) -> (Vec<R>, Vec<Vec<CommEvent>>)
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Send + Sync,
{
    run_world_faulted(size, None, f)
}

/// Like [`run_world_with`] but installs an optional [`FaultPlan`] on every
/// rank's communicator (and all groups split from it), arming deterministic
/// fault injection in the collectives. `None` is the production path and
/// costs nothing.
pub fn run_world_faulted<R, F>(
    size: usize,
    faults: Option<Arc<FaultPlan>>,
    f: F,
) -> (Vec<R>, Vec<Vec<CommEvent>>)
where
    R: Send,
    F: Fn(&ThreadComm) -> R + Send + Sync,
{
    assert!(size > 0, "run_world: world size must be positive");
    let world = WorldState::new();
    let root = GroupShared::new(&world, size, "world");

    type RankOutcome<R> = Result<(R, Vec<CommEvent>), Box<dyn std::any::Any + Send>>;

    let outcomes: Vec<RankOutcome<R>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..size)
            .map(|rank| {
                let root = Arc::clone(&root);
                let world = Arc::clone(&world);
                let faults = faults.clone();
                let f = &f;
                s.spawn(move || {
                    let ledger = Arc::new(TrafficLedger::default());
                    let comm = ThreadComm::new(
                        rank,
                        root,
                        Arc::clone(&world),
                        Arc::clone(&ledger),
                        rank,
                        faults,
                    );
                    let result = catch_unwind(AssertUnwindSafe(|| f(&comm)));
                    match result {
                        Ok(r) => Ok((r, ledger.take())),
                        Err(e) => {
                            world.poison_all_from(rank);
                            Err(e)
                        }
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("rank thread died outside catch_unwind"))
            .collect()
    });

    // Prefer re-raising an original panic over a downstream poison panic.
    let mut poison_panic: Option<Box<dyn std::any::Any + Send>> = None;
    let mut results = Vec::with_capacity(size);
    let mut ledgers = Vec::with_capacity(size);
    for outcome in outcomes {
        match outcome {
            Ok((r, l)) => {
                results.push(r);
                ledgers.push(l);
            }
            Err(payload) => {
                if is_poison_panic(&payload) {
                    poison_panic.get_or_insert(payload);
                } else {
                    resume_unwind(payload);
                }
            }
        }
    }
    if let Some(p) = poison_panic {
        resume_unwind(p);
    }
    (results, ledgers)
}

fn is_poison_panic(payload: &Box<dyn std::any::Any + Send>) -> bool {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s.contains("poisoned")
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.contains("poisoned")
    } else {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::communicator::Communicator;
    use crate::types::ReduceOp;

    #[test]
    fn world_all_reduce_sums() {
        let results = run_world(4, |comm| {
            let mut buf = vec![comm.rank() as f32 + 1.0; 3];
            comm.all_reduce(&mut buf, ReduceOp::Sum);
            buf
        });
        for r in &results {
            assert_eq!(r, &vec![10.0, 10.0, 10.0]);
        }
    }

    #[test]
    fn all_reduce_bitwise_identical_across_ranks() {
        // f32 addition is non-associative; identical results across ranks
        // require the fixed reduction order the implementation promises.
        let results = run_world(8, |comm| {
            let mut buf = vec![0.1f32 * (comm.rank() as f32 + 1.0); 1000];
            comm.all_reduce(&mut buf, ReduceOp::Sum);
            buf
        });
        for r in 1..8 {
            assert_eq!(results[0], results[r], "rank {} differs bitwise", r);
        }
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let results = run_world(3, |comm| comm.all_gather(&[comm.rank() as u32 * 10]));
        for r in &results {
            assert_eq!(r, &vec![0, 10, 20]);
        }
    }

    #[test]
    fn reduce_scatter_returns_own_chunk() {
        let results = run_world(4, |comm| {
            let buf: Vec<f32> = (0..8).map(|i| (i + comm.rank()) as f32).collect();
            comm.reduce_scatter(&buf, ReduceOp::Sum)
        });
        // Sum over ranks of (i + rank) = 4*i + 6.
        for (rank, r) in results.iter().enumerate() {
            let expect: Vec<f32> = (2 * rank..2 * rank + 2).map(|i| 4.0 * i as f32 + 6.0).collect();
            assert_eq!(r, &expect, "rank {} chunk", rank);
        }
    }

    #[test]
    fn all_to_all_transposes_chunks() {
        let results = run_world(3, |comm| {
            let sends: Vec<Vec<u32>> =
                (0..3).map(|d| vec![(comm.rank() * 10 + d) as u32]).collect();
            comm.all_to_all(sends)
        });
        for (rank, r) in results.iter().enumerate() {
            let expect: Vec<Vec<u32>> = (0..3).map(|s| vec![(s * 10 + rank) as u32]).collect();
            assert_eq!(r, &expect, "rank {} received", rank);
        }
    }

    #[test]
    fn all_to_all_supports_ragged_chunks() {
        let results = run_world(2, |comm| {
            let sends: Vec<Vec<f32>> = if comm.rank() == 0 {
                vec![vec![], vec![1.0, 2.0, 3.0]]
            } else {
                vec![vec![9.0], vec![]]
            };
            comm.all_to_all(sends)
        });
        assert_eq!(results[0], vec![vec![], vec![9.0]]);
        assert_eq!(results[1], vec![vec![1.0, 2.0, 3.0], vec![]]);
    }

    #[test]
    fn split_builds_row_groups() {
        // 2x3 grid: color = row, key = column.
        let results = run_world(6, |comm| {
            let row = comm.rank() / 3;
            let col = comm.rank() % 3;
            let rowc = comm.split(row as u64, col as u64, "row");
            let mut v = vec![comm.rank() as u32];
            let gathered = rowc.all_gather(&v);
            v[0] = 0;
            (rowc.rank(), rowc.size(), gathered)
        });
        assert_eq!(results[0], (0, 3, vec![0, 1, 2]));
        assert_eq!(results[4], (1, 3, vec![3, 4, 5]));
        assert_eq!(results[5], (2, 3, vec![3, 4, 5]));
    }

    #[test]
    fn nested_splits_work() {
        // 8 ranks -> 2 groups of 4 -> 4 groups of 2; reduce within leaves.
        let results = run_world(8, |comm| {
            let g4 = comm.split((comm.rank() / 4) as u64, comm.rank() as u64, "g4");
            let g2 = g4.split((g4.rank() / 2) as u64, g4.rank() as u64, "g2");
            let mut v = vec![comm.rank() as u64];
            g2.all_reduce(&mut v, ReduceOp::Sum);
            v[0]
        });
        assert_eq!(results, vec![1, 1, 5, 5, 9, 9, 13, 13]);
    }

    #[test]
    fn ledger_tracks_traffic() {
        let (_, ledgers) = run_world_with(2, |comm| {
            let mut v = vec![0.0f32; 256];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            let _ = comm.all_gather(&v[..16]);
        });
        assert_eq!(ledgers[0].len(), 2);
        assert_eq!(ledgers[0][0].bytes, 1024);
        assert_eq!(ledgers[0][1].bytes, 64);
        assert_eq!(ledgers[1][0].group_size, 2);
    }

    #[test]
    fn rank_panic_poisons_world_instead_of_deadlocking() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_world(3, |comm| {
                if comm.rank() == 1 {
                    panic!("injected failure on rank 1");
                }
                // Ranks 0 and 2 would deadlock here without poisoning.
                comm.barrier();
            });
        }));
        let payload = caught.expect_err("must propagate the panic");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected failure"), "got panic message: {}", msg);
    }

    #[test]
    fn panic_in_axis_subgroup_unwinds_other_axis_groups() {
        // Satellite for the 3D grid: a 2x2 grid split into row ("x") and
        // column ("y") groups. Rank 3 panics *inside its x group's
        // collective* while ranks 0 and 1 are blocked in a collective of a
        // *different* group (their y groups, which rank 3 is not a member
        // of). Without world-wide poisoning those y-group barriers would
        // never release: the whole world must unwind instead.
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_world(4, |comm| {
                let row = comm.split((comm.rank() / 2) as u64, comm.rank() as u64, "x");
                let col = comm.split((comm.rank() % 2) as u64, comm.rank() as u64, "y");
                if comm.rank() == 3 {
                    panic!("injected failure inside x group");
                }
                if comm.rank() == 2 {
                    // Rank 2 waits for rank 3 in their shared x group.
                    row.barrier();
                }
                // Ranks 0 and 1 block in y groups {0,2} and {1,3}, whose
                // missing member is stuck (2) or dead (3).
                let mut v = vec![comm.rank() as f32];
                col.all_reduce(&mut v, ReduceOp::Sum);
            });
        }));
        let payload = caught.expect_err("panic must propagate, not deadlock");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected failure"), "got panic message: {}", msg);
    }

    #[test]
    fn poison_origin_is_observable_by_siblings() {
        // Drive the barrier directly: rank 1's failure must surface in
        // rank 0's poison panic with the origin rank and collective name.
        use std::sync::Mutex as StdMutex;
        let sibling_msg = Arc::new(StdMutex::new(String::new()));
        let sm = Arc::clone(&sibling_msg);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_world(2, move |comm| {
                let mut v = vec![comm.rank() as f32];
                comm.all_reduce(&mut v, ReduceOp::Sum);
                if comm.rank() == 1 {
                    panic!("injected failure on rank 1");
                }
                let r = catch_unwind(AssertUnwindSafe(|| comm.barrier()));
                if let Err(p) = r {
                    let msg = p
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_default();
                    *sm.lock().unwrap() = msg.clone();
                    std::panic::resume_unwind(Box::new(msg));
                }
            });
        }));
        assert!(caught.is_err());
        let msg = sibling_msg.lock().unwrap().clone();
        assert!(msg.contains("poisoned"), "poison marker kept: {msg}");
        assert!(msg.contains("rank 1"), "origin rank named: {msg}");
        assert!(msg.contains("all_reduce"), "last collective named: {msg}");
    }

    #[test]
    fn fault_plan_aborts_nth_collective() {
        use crate::fault::{Fault, FaultPlan};
        // Rank 1's 2nd collective is the all_gather; the plan must abort
        // exactly there and the world must unwind, not deadlock.
        let plan = Arc::new(FaultPlan::new().with(Fault::CollectiveAbort { rank: 1, nth: 2 }));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_world_faulted(3, Some(Arc::clone(&plan)), |comm| {
                let mut v = vec![comm.rank() as f32];
                comm.all_reduce(&mut v, ReduceOp::Sum);
                let _ = comm.all_gather(&[comm.rank() as u32]);
                comm.barrier();
            });
        }));
        let payload = caught.expect_err("injected collective abort must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("injected abort"), "got: {msg}");
        assert!(msg.contains("collective #2"), "got: {msg}");
        assert!(plan.exhausted(), "the armed fault must have been consumed");
    }

    #[test]
    fn fault_plan_rides_through_splits() {
        use crate::fault::{Fault, FaultPlan};
        // The abort targets world rank 3 even though the faulting call
        // happens on a subgroup handle where its group rank is 1.
        let plan = Arc::new(FaultPlan::new().with(Fault::CollectiveAbort { rank: 3, nth: 2 }));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_world_faulted(4, Some(plan), |comm| {
                let sub = comm.split((comm.rank() % 2) as u64, comm.rank() as u64, "sub");
                comm.barrier(); // collective #1 on every rank
                let mut v = vec![comm.rank() as f32];
                sub.all_reduce(&mut v, ReduceOp::Sum); // collective #2: fires on world rank 3
            });
        }));
        let payload = caught.expect_err("fault must fire on the subgroup handle");
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(msg.contains("rank 3"), "world rank named: {msg}");
        assert!(msg.contains("group 'sub'"), "subgroup named: {msg}");
    }

    #[test]
    fn no_fault_plan_is_the_default_and_harmless() {
        let (results, _) = run_world_faulted(2, None, |comm| {
            let mut v = vec![1.0f32];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            v[0]
        });
        assert_eq!(results, vec![2.0, 2.0]);
    }

    #[test]
    fn nonblocking_matches_blocking_with_overlap() {
        // Start an all-reduce, run "local compute", gather on a *different*
        // group while it is pending, then wait: the deferred result must
        // equal the blocking one bitwise.
        let results = run_world(4, |comm| {
            let sub = comm.split((comm.rank() % 2) as u64, comm.rank() as u64, "sub");
            let src: Vec<f32> = (0..64).map(|i| (i + comm.rank()) as f32 * 0.1).collect();
            let pending = comm.start_all_reduce(&src, ReduceOp::Sum);
            let local: f32 = src.iter().sum(); // overlapped local compute
            let gathered = sub.all_gather(&[comm.rank() as u32]);
            let nonblocking = pending.wait();
            let mut blocking = src.clone();
            comm.all_reduce(&mut blocking, ReduceOp::Sum);
            (nonblocking, blocking, local, gathered)
        });
        for (nonblocking, blocking, _, _) in &results {
            assert_eq!(nonblocking, blocking);
        }
        assert_eq!(results[0].3, vec![0, 2]);
    }

    #[test]
    fn start_reduce_scatter_matches_blocking() {
        let results = run_world(4, |comm| {
            let buf: Vec<f32> = (0..8).map(|i| (i * (comm.rank() + 1)) as f32).collect();
            let pending = comm.start_reduce_scatter(&buf, ReduceOp::Sum);
            let nonblocking = pending.wait();
            let blocking = comm.reduce_scatter(&buf, ReduceOp::Sum);
            (nonblocking, blocking)
        });
        for (nonblocking, blocking) in &results {
            assert_eq!(nonblocking, blocking);
        }
    }

    #[test]
    fn type_mismatch_is_detected() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            run_world(2, |comm| {
                if comm.rank() == 0 {
                    let mut v = vec![0.0f32; 4];
                    comm.all_reduce(&mut v, ReduceOp::Sum);
                } else {
                    let mut v = vec![0u32; 4];
                    comm.all_reduce(&mut v, ReduceOp::Sum);
                }
            });
        }));
        assert!(caught.is_err());
    }

    #[test]
    fn single_rank_world_is_trivially_correct() {
        let results = run_world(1, |comm| {
            let mut v = vec![5.0f32];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            let g = comm.all_gather(&v);
            (v[0], g)
        });
        assert_eq!(results[0], (5.0, vec![5.0]));
    }
}
