//! Element traits, reduction operators and the traffic ledger.

use parking_lot::Mutex;

/// Reduction operator for all-reduce / reduce-scatter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

/// Element types that can travel through collectives.
///
/// The reduce is defined here rather than via `std::ops` bounds so integer
/// and float types share one code path and `Max`/`Min` need no `Ord`
/// (floats aren't `Ord`). `Default` is the fill of a freshly allocated
/// result vector before a collective lands in it.
pub trait CommElem: Copy + Default + Send + 'static {
    fn reduce(op: ReduceOp, a: Self, b: Self) -> Self;
    /// Size in bytes (for the traffic ledger).
    const BYTES: usize = std::mem::size_of::<Self>();
}

macro_rules! impl_comm_elem_float {
    ($($t:ty),*) => {$(
        impl CommElem for $t {
            #[inline]
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a + b,
                    ReduceOp::Max => if b > a { b } else { a },
                    ReduceOp::Min => if b < a { b } else { a },
                }
            }
        }
    )*};
}

macro_rules! impl_comm_elem_int {
    ($($t:ty),*) => {$(
        impl CommElem for $t {
            #[inline]
            fn reduce(op: ReduceOp, a: Self, b: Self) -> Self {
                match op {
                    ReduceOp::Sum => a.wrapping_add(b),
                    ReduceOp::Max => a.max(b),
                    ReduceOp::Min => a.min(b),
                }
            }
        }
    )*};
}

impl_comm_elem_float!(f32, f64);
impl_comm_elem_int!(u32, u64, usize, i32, i64);

/// Which collective produced a traffic event.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CollOp {
    AllGather,
    AllReduce,
    ReduceScatter,
    AllToAll,
    Barrier,
    /// Row-indexed sparse all-gather: only requested rows travel.
    AllGatherRows,
}

impl CollOp {
    /// Static name for diagnostics (poison payloads, fault injection).
    pub fn name(self) -> &'static str {
        match self {
            CollOp::AllGather => "all_gather",
            CollOp::AllReduce => "all_reduce",
            CollOp::ReduceScatter => "reduce_scatter",
            CollOp::AllToAll => "all_to_all",
            CollOp::Barrier => "barrier",
            CollOp::AllGatherRows => "all_gather_rows",
        }
    }
}

/// One recorded collective call on one rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CommEvent {
    pub op: CollOp,
    /// Per-rank payload bytes (the buffer this rank contributed).
    pub bytes: usize,
    pub group_size: usize,
    /// Label of the process group ("world", "x", "y", "z", ...).
    pub group: &'static str,
}

/// Per-rank log of collective calls; the performance model replays this
/// against the ring-collective cost equations.
///
/// Uses a mutex (not `RefCell`) so communicators derived via `split` on the
/// same rank can share one `Arc<TrafficLedger>` while the whole bundle stays
/// `Send`. Contention is nil: only one thread ever touches a rank's ledger.
#[derive(Default)]
pub struct TrafficLedger {
    events: Mutex<Vec<CommEvent>>,
}

impl TrafficLedger {
    pub fn record(&self, ev: CommEvent) {
        self.events.lock().push(ev);
    }

    pub fn take(&self) -> Vec<CommEvent> {
        std::mem::take(&mut self.events.lock())
    }

    pub fn snapshot(&self) -> Vec<CommEvent> {
        self.events.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_reduce_ops() {
        assert_eq!(f32::reduce(ReduceOp::Sum, 1.5, 2.5), 4.0);
        assert_eq!(f32::reduce(ReduceOp::Max, 1.5, 2.5), 2.5);
        assert_eq!(f32::reduce(ReduceOp::Min, 1.5, 2.5), 1.5);
    }

    #[test]
    fn int_reduce_ops() {
        assert_eq!(u64::reduce(ReduceOp::Sum, 3, 4), 7);
        assert_eq!(i32::reduce(ReduceOp::Max, -3, -4), -3);
        assert_eq!(usize::reduce(ReduceOp::Min, 3, 4), 3);
    }

    #[test]
    fn ledger_records_and_drains() {
        let ledger = TrafficLedger::default();
        ledger.record(CommEvent { op: CollOp::AllReduce, bytes: 1024, group_size: 4, group: "x" });
        assert_eq!(ledger.snapshot().len(), 1);
        let taken = ledger.take();
        assert_eq!(taken.len(), 1);
        assert_eq!(taken[0].bytes, 1024);
        assert!(ledger.take().is_empty());
    }
}
