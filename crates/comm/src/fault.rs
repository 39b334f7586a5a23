//! Deterministic fault injection for robustness tests.
//!
//! A [`FaultPlan`] is an immutable list of armed faults shared (via `Arc`)
//! by every rank thread of a world. Subsystems consult it at well-defined
//! *fault sites* — the trainer at each epoch boundary, the distributed
//! layer's forward, every `ThreadComm` collective, and the shard/spill read
//! paths — through `#[inline]` hooks that are a single `Option` check when
//! no plan is installed, so production runs pay nothing.
//!
//! Faults are **consumable**: each carries a `times` budget decremented
//! atomically when it fires, so an injected failure models a *transient*
//! fault — the retry/recovery machinery under test sees the failure once
//! (or `times` times) and then a healthy system. This is what makes
//! kill-and-resume tests terminate: after recovery the same plan no longer
//! re-kills the rank.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// One injectable failure mode. Ranks are always *world* ranks, even when
/// the fault fires inside a subgroup collective.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Panic rank `rank` at the start of epoch `epoch` (0-based).
    RankPanic { rank: usize, epoch: usize },
    /// Panic rank `rank` entering the forward pass of layer `layer`.
    LayerPanic { rank: usize, layer: usize },
    /// Panic rank `rank` on its `nth` collective call (1-based over every
    /// group handle the rank uses, in program order).
    CollectiveAbort { rank: usize, nth: u64 },
    /// Fail a shard/spill read whose file name contains `file_substr` with
    /// an injected checksum mismatch.
    ShardRead { file_substr: String },
}

#[derive(Debug)]
struct Armed {
    fault: Fault,
    /// Remaining firings; the fault is inert at zero.
    remaining: AtomicU32,
    /// Per-fault observation counter (collective calls seen on the target
    /// rank for [`Fault::CollectiveAbort`]).
    seen: AtomicU64,
}

impl Armed {
    /// Consume one firing; false when the budget is exhausted.
    fn consume(&self) -> bool {
        self.remaining
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| n.checked_sub(1))
            .is_ok()
    }
}

/// A deterministic set of armed faults. See the module docs for
/// the consumption semantics.
#[derive(Debug, Default)]
pub struct FaultPlan {
    armed: Vec<Armed>,
}

impl FaultPlan {
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm `fault` to fire once.
    pub fn with(self, fault: Fault) -> Self {
        self.with_times(fault, 1)
    }

    /// Arm `fault` to fire `times` times before going inert.
    pub fn with_times(mut self, fault: Fault, times: u32) -> Self {
        self.armed.push(Armed { fault, remaining: AtomicU32::new(times), seen: AtomicU64::new(0) });
        self
    }

    /// Convenience: kill `rank` at the start of `epoch`, once.
    pub fn kill_rank(rank: usize, epoch: usize) -> Self {
        Self::new().with(Fault::RankPanic { rank, epoch })
    }

    /// Trainer hook: called by each rank at the start of every epoch.
    /// Panics if a [`Fault::RankPanic`] for this `(rank, epoch)` is armed.
    #[inline]
    pub fn epoch_tick(&self, rank: usize, epoch: usize) {
        for a in &self.armed {
            if let Fault::RankPanic { rank: r, epoch: e } = a.fault {
                if r == rank && e == epoch && a.consume() {
                    panic!("FaultPlan: injected panic on rank {rank} at epoch {epoch}");
                }
            }
        }
    }

    /// Layer hook: called entering `DistLayer::forward`.
    #[inline]
    pub fn layer_tick(&self, rank: usize, layer: usize) {
        for a in &self.armed {
            if let Fault::LayerPanic { rank: r, layer: l } = a.fault {
                if r == rank && l == layer && a.consume() {
                    panic!(
                        "FaultPlan: injected panic on rank {rank} entering layer {layer} forward"
                    );
                }
            }
        }
    }

    /// Collective hook: called by `ThreadComm` once per collective with the
    /// rank's *world* rank. Counts calls per armed fault and panics when
    /// the `nth` call on the target rank arrives.
    #[inline]
    pub fn collective_tick(&self, world_rank: usize, op: &'static str, group: &'static str) {
        for a in &self.armed {
            if let Fault::CollectiveAbort { rank, nth } = a.fault {
                if rank == world_rank {
                    let seen = a.seen.fetch_add(1, Ordering::AcqRel) + 1;
                    if seen == nth && a.consume() {
                        panic!(
                            "FaultPlan: injected abort on rank {world_rank}, collective #{nth} \
                             ({op} on group '{group}')"
                        );
                    }
                }
            }
        }
    }

    /// Read hook, called with the bare file name (never the directory) of
    /// every shard, feature, label and spill file opened: returns true when
    /// that read should fail with a synthetic checksum mismatch (consuming
    /// one firing).
    #[inline]
    pub fn shard_read_fails(&self, name: &str) -> bool {
        for a in &self.armed {
            if let Fault::ShardRead { file_substr } = &a.fault {
                if name.contains(file_substr.as_str()) && a.consume() {
                    return true;
                }
            }
        }
        false
    }

    /// True when no armed fault has firings left (useful for asserting a
    /// plan was fully exercised).
    pub fn exhausted(&self) -> bool {
        self.armed.iter().all(|a| a.remaining.load(Ordering::Acquire) == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    #[test]
    fn faults_are_consumed_once() {
        let plan = FaultPlan::kill_rank(1, 2);
        // Wrong rank / wrong epoch: inert.
        plan.epoch_tick(0, 2);
        plan.epoch_tick(1, 1);
        assert!(!plan.exhausted());
        let r = catch_unwind(AssertUnwindSafe(|| plan.epoch_tick(1, 2)));
        assert!(r.is_err(), "armed fault must fire");
        assert!(plan.exhausted());
        // Second visit to the same (rank, epoch): the fault is spent.
        plan.epoch_tick(1, 2);
    }

    #[test]
    fn shard_read_budget_counts_down() {
        let plan = FaultPlan::new().with_times(Fault::ShardRead { file_substr: "feat".into() }, 2);
        assert!(!plan.shard_read_fails("adj_e_0_0.plx"));
        assert!(plan.shard_read_fails("feat_0.plx"));
        assert!(plan.shard_read_fails("feat_0.plx"));
        assert!(!plan.shard_read_fails("feat_0.plx"), "budget of 2 exhausted");
        assert!(plan.exhausted());
    }

    #[test]
    fn nth_collective_fires_exactly_once() {
        let plan = FaultPlan::new().with(Fault::CollectiveAbort { rank: 0, nth: 3 });
        plan.collective_tick(0, "AllReduce", "world");
        plan.collective_tick(1, "AllReduce", "world"); // other rank: not counted
        plan.collective_tick(0, "AllGather", "x");
        let r = catch_unwind(AssertUnwindSafe(|| plan.collective_tick(0, "Barrier", "world")));
        assert!(r.is_err(), "3rd collective on rank 0 must abort");
        plan.collective_tick(0, "Barrier", "world"); // spent
    }
}
