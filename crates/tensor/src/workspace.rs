//! Reusable kernel buffers: the packed-panel scratch for [`gemm_ws`] and a
//! capacity-keyed pool of output buffers, so the training engine's
//! per-epoch kernel outputs (`H`, `Q`, activations, gradients) stop
//! hitting the allocator once the first epoch has sized everything.
//!
//! The pool is shape-agnostic: [`KernelWorkspace::take`] hands out any
//! recycled buffer whose *capacity* covers the requested element count
//! (resized and zero-filled, so a taken matrix is indistinguishable from
//! `Matrix::zeros`), and [`KernelWorkspace::take_scratch`] skips the
//! zero-fill for consumers that overwrite every element anyway.
//! [`KernelWorkspace::recycle`] returns a matrix's
//! buffer; when the pool is full the smallest buffer is dropped so the
//! large, expensive-to-reacquire buffers always survive.
//!
//! The pool is only as bounded as what is recycled into it: a buffer the
//! workspaces never handed out (a collective's freshly allocated result,
//! say) grows it by one each time, up to the cap. The engine therefore
//! recycles only buffers a workspace handed out — collectives write into
//! workspace buffers instead of returning their own — so across epochs the
//! same buffers circulate and
//! [`pooled_bytes`](KernelWorkspace::pooled_bytes) stays flat.
//!
//! [`alloc_events`](KernelWorkspace::alloc_events) counts every real
//! allocator interaction (fresh buffer, capacity growth, packed-panel
//! growth). The engine's warmup test pins it and the pooled bytes flat
//! across epochs — the "zero per-call heap allocations for kernel outputs
//! after warmup" guarantee.
//!
//! [`gemm_ws`]: crate::gemm::gemm_ws

use crate::matrix::Matrix;

/// Maximum pooled buffers; beyond this, recycling evicts the smallest.
const POOL_CAP: usize = 24;

/// A version-keyed packed `op(B)` spanning every K-panel, for operands
/// that survive across calls (the combination GEMM's gathered weight
/// matrix). See [`gemm_nn_cached_b`](crate::gemm::gemm_nn_cached_b).
#[derive(Debug, Default)]
pub(crate) struct CachedPanels {
    pub(crate) buf: Vec<f32>,
    /// `(version, rows, cols)` of the operand packed in `buf`.
    pub(crate) key: Option<(u64, usize, usize)>,
    /// Content hash of the cached operand; guards against a caller reusing
    /// a version number for different bits (debug builds only).
    #[cfg(debug_assertions)]
    pub(crate) fnv: u64,
}

/// Reusable packed-panel + output buffers for the compute kernels. One
/// long-lived workspace per layer (or per trainer) is the intended
/// ownership.
#[derive(Debug, Default)]
pub struct KernelWorkspace {
    /// Packed `op(B)` panel for the blocked GEMM.
    pub(crate) b_pack: Vec<f32>,
    /// The operand cached as `op(B) = B` (forward's `Q = H·W`).
    pub(crate) cached_b: CachedPanels,
    /// The operand cached as `op(B) = Bᵀ` (backward's `∂L/∂H = dQ·Wᵀ`). A
    /// separate slot because forward (`N`) and backward (`T`) alternate
    /// within one step and would thrash a shared one.
    pub(crate) cached_bt: CachedPanels,
    /// Recycled output buffers, reused by capacity.
    pool: Vec<Vec<f32>>,
    alloc_events: u64,
}

impl KernelWorkspace {
    pub fn new() -> Self {
        Self::default()
    }

    /// A zeroed `rows x cols` matrix, served from the pool when any
    /// recycled buffer has the capacity (equivalent to `Matrix::zeros`
    /// but allocation-free after warmup).
    pub fn take(&mut self, rows: usize, cols: usize) -> Matrix {
        let mut m = self.take_scratch(rows, cols);
        m.as_mut_slice().fill(0.0);
        m
    }

    /// Like [`take`](Self::take) but with **unspecified contents** (a
    /// recycled buffer keeps its old values): for consumers that overwrite
    /// every element anyway — `spmm_into`, `gemm` with `beta = 0`,
    /// `transpose_into`, `relu_into`, full copies — this skips the
    /// redundant zero-fill in the hot epoch loop.
    pub fn take_scratch(&mut self, rows: usize, cols: usize) -> Matrix {
        let len = rows * cols;
        // Smallest sufficient buffer, so big buffers stay available for
        // big requests.
        let mut best: Option<(usize, usize)> = None;
        for (idx, buf) in self.pool.iter().enumerate() {
            let cap = buf.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((idx, cap));
            }
        }
        let mut buf = match best {
            Some((idx, _)) => self.pool.swap_remove(idx),
            None => {
                self.alloc_events += 1;
                Vec::with_capacity(len)
            }
        };
        // Only the grown region (if any) is written; existing contents
        // are deliberately left in place.
        if buf.len() > len {
            buf.truncate(len);
        } else {
            buf.resize(len, 0.0);
        }
        Matrix::from_vec(rows, cols, buf)
    }

    /// Return a matrix's buffer to the pool. Any buffer is accepted, but
    /// only buffers handed out by a workspace keep the pool from growing;
    /// eviction of the smallest caps the count.
    pub fn recycle(&mut self, m: Matrix) {
        let buf = m.into_vec();
        if buf.capacity() == 0 {
            return;
        }
        if self.pool.len() >= POOL_CAP {
            // Evict the smallest (possibly the incoming buffer itself).
            if let Some(min_idx) = (0..self.pool.len())
                .min_by_key(|&i| self.pool[i].capacity())
                .filter(|&i| self.pool[i].capacity() < buf.capacity())
            {
                self.pool.swap_remove(min_idx);
            } else {
                return;
            }
        }
        self.pool.push(buf);
    }

    /// Allocator interactions so far (fresh buffers, capacity growth).
    /// Flat across epochs once the workspace has warmed up.
    pub fn alloc_events(&self) -> u64 {
        self.alloc_events
    }

    /// Bytes held by the pooled buffers (their capacities). Flat across
    /// epochs once warm, when every buffer recycled here was handed out
    /// from a workspace.
    pub fn pooled_bytes(&self) -> usize {
        self.pool.iter().map(|b| b.capacity() * std::mem::size_of::<f32>()).sum()
    }

    pub(crate) fn note_grown(&mut self, cap_before: usize, cap_after: usize) {
        if cap_after > cap_before {
            self.alloc_events += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_matches_zeros_semantics() {
        let mut ws = KernelWorkspace::new();
        let mut m = ws.take(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
        m[(1, 2)] = 7.0;
        ws.recycle(m);
        // The recycled buffer comes back zeroed.
        let m2 = ws.take(3, 4);
        assert!(m2.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn steady_state_take_recycle_stops_allocating() {
        let mut ws = KernelWorkspace::new();
        for _ in 0..3 {
            let a = ws.take(8, 8);
            let b = ws.take(4, 4);
            ws.recycle(a);
            ws.recycle(b);
        }
        let after_warmup = ws.alloc_events();
        assert_eq!(ws.pooled_bytes(), (64 + 16) * 4);
        for _ in 0..10 {
            let a = ws.take(8, 8);
            let b = ws.take(4, 4);
            ws.recycle(a);
            ws.recycle(b);
        }
        assert_eq!(ws.alloc_events(), after_warmup, "steady-state cycle allocated");
        assert_eq!(ws.pooled_bytes(), (64 + 16) * 4, "steady-state cycle grew the pool");
    }

    #[test]
    fn smallest_sufficient_buffer_is_preferred() {
        let mut ws = KernelWorkspace::new();
        let big = ws.take(32, 32);
        let small = ws.take(2, 2);
        ws.recycle(big);
        ws.recycle(small);
        // A small request must not consume the big buffer.
        let taken = ws.take(2, 2);
        assert!(taken.as_slice().len() == 4);
        let big_again = ws.take(32, 32); // still pooled
        assert_eq!(ws.alloc_events(), 2, "reuse should not allocate");
        ws.recycle(taken);
        ws.recycle(big_again);
    }

    #[test]
    fn eviction_keeps_large_buffers() {
        let mut ws = KernelWorkspace::new();
        let big = ws.take(64, 64);
        ws.recycle(big);
        // Flood with small buffers past the cap.
        for _ in 0..40 {
            let m = Matrix::zeros(1, 1);
            ws.recycle(m);
        }
        assert!(ws.pool.len() <= POOL_CAP);
        // The big buffer must have survived: taking it is allocation-free.
        let events = ws.alloc_events();
        let big = ws.take(64, 64);
        assert_eq!(ws.alloc_events(), events, "large buffer was evicted");
        ws.recycle(big);
    }
}
