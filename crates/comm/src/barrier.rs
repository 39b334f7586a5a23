//! A reusable sense-reversing barrier with poison support.
//!
//! `std::sync::Barrier` deadlocks the world if one rank dies before
//! arriving. Training ranks can legitimately panic (shape assertions,
//! failure-injection tests), so this barrier can be *poisoned* from outside:
//! all current and future waiters unwind with a descriptive panic instead
//! of blocking forever.

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

struct State {
    /// Ranks arrived in the current generation.
    count: usize,
    /// Incremented when a generation completes; waiters key off it.
    generation: u64,
    poisoned: bool,
    /// Who/what poisoned the barrier, for the unwinding panic message.
    origin: Option<Arc<str>>,
}

/// Reusable barrier for a fixed number of participants.
pub struct PoisonBarrier {
    n: usize,
    state: Mutex<State>,
    cv: Condvar,
}

impl PoisonBarrier {
    pub fn new(n: usize) -> Arc<Self> {
        assert!(n > 0, "PoisonBarrier: zero participants");
        Arc::new(Self {
            n,
            state: Mutex::new(State { count: 0, generation: 0, poisoned: false, origin: None }),
            cv: Condvar::new(),
        })
    }

    pub fn participants(&self) -> usize {
        self.n
    }

    /// Block until all `n` participants arrive (or the barrier is
    /// poisoned, in which case this panics).
    pub fn wait(&self) {
        let mut st = self.state.lock();
        if st.poisoned {
            let origin = st.origin.clone();
            drop(st);
            Self::poison_panic(origin);
        }
        st.count += 1;
        if st.count == self.n {
            st.count = 0;
            st.generation = st.generation.wrapping_add(1);
            self.cv.notify_all();
            return;
        }
        let gen = st.generation;
        while st.generation == gen && !st.poisoned {
            self.cv.wait(&mut st);
        }
        let poisoned = st.poisoned;
        let origin = st.origin.clone();
        drop(st);
        if poisoned {
            Self::poison_panic(origin);
        }
    }

    fn poison_panic(origin: Option<Arc<str>>) -> ! {
        // The "poisoned" substring is load-bearing: `run_world` uses it to
        // tell secondary poison unwinds from the original panic.
        match origin {
            Some(o) => panic!("PoisonBarrier: poisoned ({o})"),
            None => panic!("PoisonBarrier: poisoned (another rank panicked)"),
        }
    }

    /// Poison the barrier: wake every waiter with a panic and make all
    /// future `wait` calls panic immediately.
    pub fn poison(&self) {
        let mut st = self.state.lock();
        st.poisoned = true;
        self.cv.notify_all();
    }

    /// Like [`poison`](Self::poison), recording where the failure came from
    /// so unwinding waiters name the origin rank/collective. The first
    /// recorded origin wins (a poison cascade keeps the root cause).
    pub fn poison_with(&self, origin: &Arc<str>) {
        let mut st = self.state.lock();
        st.poisoned = true;
        if st.origin.is_none() {
            st.origin = Some(Arc::clone(origin));
        }
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn releases_all_participants() {
        let b = PoisonBarrier::new(4);
        let after = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..4 {
                let b = Arc::clone(&b);
                let after = Arc::clone(&after);
                s.spawn(move || {
                    b.wait();
                    after.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(after.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn is_reusable_across_generations() {
        let b = PoisonBarrier::new(2);
        let counter = Arc::new(AtomicUsize::new(0));
        thread::scope(|s| {
            for _ in 0..2 {
                let b = Arc::clone(&b);
                let counter = Arc::clone(&counter);
                s.spawn(move || {
                    for round in 0..50 {
                        b.wait();
                        // Both threads must be in the same round: the count
                        // observed right after a barrier is a multiple of 2
                        // only at quiescence, so instead check monotonicity.
                        counter.fetch_add(1, Ordering::SeqCst);
                        assert!(counter.load(Ordering::SeqCst) > 2 * round);
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn poison_unblocks_waiter() {
        let b = PoisonBarrier::new(2);
        let b2 = Arc::clone(&b);
        let waiter = thread::spawn(move || {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b2.wait()));
            assert!(r.is_err(), "poisoned wait must panic");
        });
        thread::sleep(Duration::from_millis(50));
        b.poison();
        waiter.join().unwrap();
    }

    #[test]
    fn poisoned_barrier_rejects_future_waits() {
        let b = PoisonBarrier::new(2);
        b.poison();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| b.wait()));
        assert!(r.is_err());
    }
}
