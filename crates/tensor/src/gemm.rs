//! SGEMM: `C = alpha * op(A) * op(B) + beta * C` with all transpose modes.
//!
//! Large problems run through a cache-blocked, panel-packed kernel
//! ([`gemm_packed_into`]): `op(B)` is packed once per K-panel into
//! `nr`-wide column strips, each `mr`-row strip of `op(A)` is packed into
//! a thread-resident interleaved panel, and an `mr x nr`
//! widened-accumulator microkernel does the flops. Because *all four*
//! transpose modes route through the packing step, TN/TT pay their strided
//! reads once per panel (amortized over `n / nr` reuses) and then hit the
//! same contiguous inner kernel as NN.
//!
//! Two things are decided at runtime rather than compile time:
//!
//! * **The microkernel implementation.** On x86-64 with AVX2+FMA (checked
//!   once per process through [`crate::cpu`], the same dispatch policy the
//!   SpMM band kernel uses) the inner tile runs 8-wide
//!   `_mm256_fmadd_ps` accumulators; otherwise the portable
//!   const-generic scalar tile. FMA fuses each multiply-add without
//!   intermediate rounding, so values can differ from the scalar kernel in
//!   the last ulp — dispatch is per-process, never per-shape, so every
//!   bitwise invariant in the engine is untouched.
//! * **The tile parameters.** [`crate::tune`] classifies each `(k, n)`
//!   shape (wide / deep-k / square) and supplies `mr`/`nr` from a short
//!   per-class startup calibration plus a *fixed* per-class `kc` table.
//!   `kc` is deterministic because K-panel boundaries change f32 results
//!   for `k > kc`; `mr`/`nr` are free because every candidate accumulates
//!   each output element in the same ascending-`k` order (see the tune
//!   module docs for the full argument).
//!
//! The deliberately-strided TN kernel survives as [`gemm_reference_tn`]:
//! on GPUs the analogous generic kernel is what makes the paper's
//! `dW = SGEMM(Hᵀ, dQ)` slow on Frontier (§5.3), and the tuning in
//! `plexus-core` — replacing the TN GEMM with a fast-path kernel — is only
//! an honest experiment if a TN path that really is slower stays
//! measurable. It never routes through the FMA microkernel.
//!
//! # Determinism contract
//!
//! The engine's bitwise-identity tests (blocked aggregation, tiled
//! combination GEMM, overlapped collectives) rely on one property: **the
//! f32 operation sequence that produces output row `i` depends only on
//! `(k, n)` and the row's operand values — never on `m`, on which row tile
//! the row landed in, or on how many threads ran.** Every kernel here
//! honors that: kernel dispatch looks only at `k * n`, the shape class
//! (and through it `kc`) looks only at `(k, n)`, K-panels split `k`
//! identically for every row, each row's accumulator is private, and the
//! parallel path partitions rows without changing per-row math.

use crate::matrix::Matrix;
use crate::tune::{self, Tile};
use crate::workspace::KernelWorkspace;
use rayon::prelude::*;
use std::cell::RefCell;

/// Transpose flag for a GEMM operand, named after the BLAS convention.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Trans {
    /// Use the operand as stored.
    N,
    /// Use the transpose of the operand.
    T,
}

impl Trans {
    /// Logical shape of `op(M)`.
    #[inline]
    pub fn shape_of(self, m: &Matrix) -> (usize, usize) {
        match self {
            Trans::N => (m.rows(), m.cols()),
            Trans::T => (m.cols(), m.rows()),
        }
    }
}

/// Below this `k * n` the packing overhead outweighs the reuse and the
/// unpacked kernel wins. Deliberately independent of `m` — see the
/// module-level determinism contract.
const PACK_KN_THRESHOLD: usize = 64 * 64;

/// Minimum work (in multiply-adds) before the unpacked kernel and
/// [`gemm_reference_tn`] use their row-parallel variants; below this the
/// fork/join overhead dominates. Only `m` varies under this threshold on
/// any given `(k, n)` shape, and the parallel variants keep per-row math
/// identical to [`gemm_seq`], so crossing it never changes results.
const PAR_THRESHOLD: usize = 64 * 64 * 64;

thread_local! {
    /// Packed-`op(B)` panel for [`gemm`] callers that do not thread an
    /// explicit [`KernelWorkspace`]; reused across calls on each thread.
    static BPACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Packed-`op(A)` strip scratch, one per thread. The thread pool's
    /// workers are persistent, so after warmup no strip pass touches the
    /// allocator.
    static APACK: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// Which microkernel implementation a packed call runs — resolved once per
/// call from the per-process CPU dispatch (plus the test-only scalar
/// override) so the strip loop never re-checks.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Micro {
    Scalar,
    #[cfg(target_arch = "x86_64")]
    Fma,
}

impl Micro {
    fn select(force_scalar: bool) -> Micro {
        #[cfg(target_arch = "x86_64")]
        {
            if !force_scalar && crate::cpu::fma_available() {
                return Micro::Fma;
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = force_scalar;
        Micro::Scalar
    }
}

/// `C = alpha * op(A) * op(B) + beta * C`. Dispatches to the packed
/// blocked kernel when `k * n` justifies packing, and to the plain
/// sequential kernel otherwise.
pub fn gemm(c: &mut Matrix, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, alpha: f32, beta: f32) {
    check_shapes(c, a, ta, b, tb);
    let (_, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    if k * n >= PACK_KN_THRESHOLD {
        BPACK.with(|buf| gemm_packed_into(&mut buf.borrow_mut(), c, a, ta, b, tb, alpha, beta));
    } else {
        gemm_unpacked(c, a, ta, b, tb, alpha, beta);
    }
}

/// [`gemm`] with an explicit workspace: the packed panel lives in `ws`
/// instead of thread-local storage, so long-lived owners (one workspace
/// per layer) never re-grow it.
pub fn gemm_ws(
    ws: &mut KernelWorkspace,
    c: &mut Matrix,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    alpha: f32,
    beta: f32,
) {
    check_shapes(c, a, ta, b, tb);
    let (_, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    if k * n >= PACK_KN_THRESHOLD {
        let before = ws.b_pack.capacity();
        gemm_packed_into(&mut ws.b_pack, c, a, ta, b, tb, alpha, beta);
        ws.note_grown(before, ws.b_pack.capacity());
    } else {
        gemm_unpacked(c, a, ta, b, tb, alpha, beta);
    }
}

/// `C = alpha * A * B + beta * C` (both operands untransposed) with the
/// packed `B` panels cached in `ws` under `b_version`: the first call for
/// a given `(b_version, shape)` packs every K-panel of `B` into the
/// workspace's dedicated cached-B buffer, and subsequent calls — later row
/// tiles of the same product, recompute-mode cache rebuilds, later steps
/// before the weight update — skip the packing entirely.
///
/// Callers own the version discipline: bump the version whenever `B`'s
/// contents change (the training engines bump a per-layer counter after
/// each optimizer step). Reusing a version for different bits is a caller
/// bug; debug builds catch it with a content-hash assertion.
///
/// Results are bitwise identical to [`gemm_ws`] / [`gemm`] on the same
/// operands: the cached panels hold the same values in the same layout,
/// and the same microkernel consumes them. Problems below the packing
/// threshold route to the unpacked kernel exactly as [`gemm`] does (no
/// caching — packing would not pay there anyway).
pub fn gemm_nn_cached_b(
    ws: &mut KernelWorkspace,
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    b_version: u64,
    alpha: f32,
    beta: f32,
) {
    check_shapes(c, a, Trans::N, b, Trans::N);
    let (m, k) = Trans::N.shape_of(a);
    let (_, n) = Trans::N.shape_of(b);
    if k * n < PACK_KN_THRESHOLD {
        gemm_unpacked(c, a, Trans::N, b, Trans::N, alpha, beta);
        return;
    }
    let tile = tune::tile_for(k, n);
    // The strip width is part of the cached layout, so it keys the cache
    // alongside the shape (a tile override between calls must repack).
    let key = (b_version, b.rows(), b.cols(), tile.nr);
    if ws.cached_b_key != Some(key) {
        let before = ws.cached_b.capacity();
        pack_b_all_panels(&mut ws.cached_b, b, Trans::N, k, n, tile);
        ws.note_grown(before, ws.cached_b.capacity());
        ws.cached_b_key = Some(key);
        #[cfg(debug_assertions)]
        {
            ws.cached_b_fnv = fnv_f32(b.as_slice());
        }
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        ws.cached_b_fnv,
        fnv_f32(b.as_slice()),
        "gemm_nn_cached_b: version {} reused for different operand contents",
        b_version
    );
    scale_output(c, beta);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let micro = Micro::select(false);
    let nstrips = n.div_ceil(tile.nr);
    let mut pc = 0;
    let mut offset = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        let panel = &ws.cached_b[offset..offset + nstrips * kc * tile.nr];
        packed_strip_pass(panel, c, a, Trans::N, pc, kc, alpha, tile, micro);
        offset += nstrips * kc * tile.nr;
        pc += kc;
    }
}

/// `C = alpha * A * Bᵀ + beta * C` with the packed `Bᵀ` panels cached in
/// `ws` under `b_version` — the transposed-layout sibling of
/// [`gemm_nn_cached_b`], closing the packed-B reuse leak in backward's
/// `∂L/∂H = dQ·Wᵀ`: before this existed, every backward call repacked the
/// transposed weights even though they only change at the optimizer step.
///
/// The cache lives in its own workspace slot (`cached_bt`), keyed by the
/// same per-layer weight version the forward cache uses, so forward (`N`
/// pack) and backward (`T` pack) of one step never evict each other.
/// Version discipline, the debug content-hash guard, the below-threshold
/// unpacked route and bitwise equality with [`gemm_ws`] on the same
/// operands all match the `N` variant.
pub fn gemm_nt_cached_b(
    ws: &mut KernelWorkspace,
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    b_version: u64,
    alpha: f32,
    beta: f32,
) {
    check_shapes(c, a, Trans::N, b, Trans::T);
    let (m, k) = Trans::N.shape_of(a);
    let (_, n) = Trans::T.shape_of(b);
    if k * n < PACK_KN_THRESHOLD {
        gemm_unpacked(c, a, Trans::N, b, Trans::T, alpha, beta);
        return;
    }
    let tile = tune::tile_for(k, n);
    let key = (b_version, b.rows(), b.cols(), tile.nr);
    if ws.cached_bt_key != Some(key) {
        let before = ws.cached_bt.capacity();
        pack_b_all_panels(&mut ws.cached_bt, b, Trans::T, k, n, tile);
        ws.note_grown(before, ws.cached_bt.capacity());
        ws.cached_bt_key = Some(key);
        #[cfg(debug_assertions)]
        {
            ws.cached_bt_fnv = fnv_f32(b.as_slice());
        }
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        ws.cached_bt_fnv,
        fnv_f32(b.as_slice()),
        "gemm_nt_cached_b: version {} reused for different operand contents",
        b_version
    );
    scale_output(c, beta);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let micro = Micro::select(false);
    let nstrips = n.div_ceil(tile.nr);
    let mut pc = 0;
    let mut offset = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        let panel = &ws.cached_bt[offset..offset + nstrips * kc * tile.nr];
        packed_strip_pass(panel, c, a, Trans::N, pc, kc, alpha, tile, micro);
        offset += nstrips * kc * tile.nr;
        pc += kc;
    }
}

/// Byte-serial hash of an f32 slice's raw bits: the debug-build guard on
/// cached-B reuse. Never stored; this crate sits below `plexus-graph`, so
/// the on-disk format's digest is out of its reach.
#[cfg(debug_assertions)]
fn fnv_f32(data: &[f32]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for v in data {
        for byte in v.to_le_bytes() {
            h = (h ^ byte as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The small-`k*n` path: tall-skinny products (huge `m`, tiny `k*n`) still
/// have plenty of row parallelism even though packing would not pay, so
/// split rows across workers above [`PAR_THRESHOLD`] and run [`gemm_seq`]
/// otherwise. Per-row math is identical in both variants.
fn gemm_unpacked(
    c: &mut Matrix,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    alpha: f32,
    beta: f32,
) {
    let (m, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    if m * n * k >= PAR_THRESHOLD && n > 0 {
        let lda = a.cols();
        let adata = a.as_slice();
        let ldb = b.cols();
        let bdata = b.as_slice();
        c.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
            scale_row(crow, beta);
            match (ta, tb) {
                (Trans::N, Trans::N) => {
                    let arow = a.row(i);
                    for kk in 0..k {
                        let aik = alpha * arow[kk];
                        if aik == 0.0 {
                            continue;
                        }
                        let brow = b.row(kk);
                        for j in 0..n {
                            crow[j] += aik * brow[j];
                        }
                    }
                }
                (Trans::N, Trans::T) => {
                    let arow = a.row(i);
                    for (j, cx) in crow.iter_mut().enumerate() {
                        let brow = b.row(j);
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            acc += arow[kk] * brow[kk];
                        }
                        *cx += alpha * acc;
                    }
                }
                (Trans::T, Trans::N) => {
                    for (j, cx) in crow.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            acc += adata[kk * lda + i] * b.row(kk)[j];
                        }
                        *cx += alpha * acc;
                    }
                }
                (Trans::T, Trans::T) => {
                    for (j, cx) in crow.iter_mut().enumerate() {
                        let mut acc = 0.0f32;
                        for kk in 0..k {
                            acc += adata[kk * lda + i] * bdata[j * ldb + kk];
                        }
                        *cx += alpha * acc;
                    }
                }
            }
        });
    } else {
        gemm_seq(c, a, ta, b, tb, alpha, beta);
    }
}

fn check_shapes(c: &Matrix, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans) {
    let (m, k) = ta.shape_of(a);
    let (k2, n) = tb.shape_of(b);
    assert_eq!(k, k2, "gemm: inner dimensions differ: op(A) is {}x{}, op(B) is {}x{}", m, k, k2, n);
    assert_eq!(
        c.shape(),
        (m, n),
        "gemm: output shape {:?} does not match op(A)*op(B) = {}x{}",
        c.shape(),
        m,
        n
    );
}

/// Convenience wrapper: allocate and return `op(A) * op(B)`.
pub fn matmul(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans) -> Matrix {
    let (m, _) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    let mut c = Matrix::zeros(m, n);
    gemm(&mut c, a, ta, b, tb, 1.0, 0.0);
    c
}

/// Plain sequential GEMM, all modes, no packing. Public both as the small-
/// problem fast path and as the naive reference the property tests compare
/// the packed kernel against.
pub fn gemm_seq(
    c: &mut Matrix,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    alpha: f32,
    beta: f32,
) {
    let (m, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    scale_output(c, beta);
    match (ta, tb) {
        (Trans::N, Trans::N) => {
            // ikj: stream rows of B, accumulate into the C row — fully
            // sequential memory access on both B and C.
            for i in 0..m {
                let arow = a.row(i);
                for kk in 0..k {
                    let aik = alpha * arow[kk];
                    if aik == 0.0 {
                        continue;
                    }
                    let brow = b.row(kk);
                    let crow = c.row_mut(i);
                    for j in 0..n {
                        crow[j] += aik * brow[j];
                    }
                }
            }
        }
        (Trans::N, Trans::T) => {
            // Row-dot: C[i][j] = A.row(i) . B.row(j) — both contiguous.
            // The C row borrow is hoisted out of the j loop.
            for i in 0..m {
                let arow = a.row(i);
                let crow = c.row_mut(i);
                for (j, cx) in crow.iter_mut().enumerate().take(n) {
                    let brow = b.row(j);
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += arow[kk] * brow[kk];
                    }
                    *cx += alpha * acc;
                }
            }
        }
        (Trans::T, Trans::N) => {
            // Generic strided kernel: A is read down a column (stride =
            // a.cols()). The C row borrow is hoisted out of the j loop.
            let lda = a.cols();
            let adata = a.as_slice();
            for i in 0..m {
                let crow = c.row_mut(i);
                for (j, cx) in crow.iter_mut().enumerate().take(n) {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += adata[kk * lda + i] * b.row(kk)[j];
                    }
                    *cx += alpha * acc;
                }
            }
        }
        (Trans::T, Trans::T) => {
            let lda = a.cols();
            let ldb = b.cols();
            let adata = a.as_slice();
            let bdata = b.as_slice();
            for i in 0..m {
                let crow = c.row_mut(i);
                for (j, cx) in crow.iter_mut().enumerate().take(n) {
                    let mut acc = 0.0f32;
                    for kk in 0..k {
                        acc += adata[kk * lda + i] * bdata[j * ldb + kk];
                    }
                    *cx += alpha * acc;
                }
            }
        }
    }
}

/// The deliberately-strided TN kernel, preserved verbatim from the
/// pre-packing implementation: `C = alpha * Aᵀ * B + beta * C` with A read
/// down columns at stride `a.cols()`. This is the honest slow path behind
/// `GemmTuning::Default` and the `gemm_dw/tn_default` bench — the CPU
/// stand-in for the generic GPU kernel the paper measures in §5.3. It
/// never routes through the packed or FMA kernels.
pub fn gemm_reference_tn(c: &mut Matrix, a: &Matrix, b: &Matrix, alpha: f32, beta: f32) {
    let (m, k) = Trans::T.shape_of(a);
    let (k2, n) = Trans::N.shape_of(b);
    assert_eq!(
        k, k2,
        "gemm_reference_tn: inner dimensions differ: op(A) is {}x{}, op(B) is {}x{}",
        m, k, k2, n
    );
    assert_eq!(c.shape(), (m, n), "gemm_reference_tn: output shape mismatch");
    let lda = a.cols();
    let adata = a.as_slice();
    if m * n * k >= PAR_THRESHOLD {
        c.as_mut_slice().par_chunks_mut(n).enumerate().for_each(|(i, crow)| {
            scale_row(crow, beta);
            for (j, cx) in crow.iter_mut().enumerate() {
                let mut acc = 0.0f32;
                for kk in 0..k {
                    acc += adata[kk * lda + i] * b.row(kk)[j];
                }
                *cx += alpha * acc;
            }
        });
    } else {
        gemm_seq(c, a, Trans::T, b, Trans::N, alpha, beta);
    }
}

/// The packed blocked kernel with the process's tuned tile. `b_pack`
/// holds the packed `op(B)` panel (grown as needed, contents scratch).
///
/// Loop structure (BLIS-style, without the NC loop because every dense
/// operand in this workspace has `n` small enough for one panel):
///
/// ```text
/// scale C by beta
/// for each K-panel pc of depth <= kc:
///     pack op(B)[pc.., :] into nr-wide strips          (once per panel)
///     parallel over mr-row strips of C:
///         pack op(A)[strip, pc..] into a thread panel  (amortized n/nr x)
///         for each nr strip: mr x nr microkernel over the panel depth
/// ```
pub fn gemm_packed_into(
    b_pack: &mut Vec<f32>,
    c: &mut Matrix,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    alpha: f32,
    beta: f32,
) {
    let (_, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    let tile = tune::tile_for(k, n);
    gemm_packed_with_tile(b_pack, c, a, ta, b, tb, alpha, beta, tile, false);
}

/// [`gemm_packed_into`] with an explicit tile and an optional scalar-
/// microkernel pin. This is the autotuner's calibration entry and the
/// property tests' lever for comparing tiles / FMA-vs-scalar inside one
/// process; production callers go through [`gemm_packed_into`] so the
/// per-process dispatch policy stays intact.
#[doc(hidden)]
pub fn gemm_packed_with_tile(
    b_pack: &mut Vec<f32>,
    c: &mut Matrix,
    a: &Matrix,
    ta: Trans,
    b: &Matrix,
    tb: Trans,
    alpha: f32,
    beta: f32,
    tile: Tile,
    force_scalar: bool,
) {
    let (m, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    debug_assert_eq!(c.shape(), (m, n));
    scale_output(c, beta);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let micro = Micro::select(force_scalar);
    let mut pc = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        pack_b_panel(b_pack, b, tb, pc, kc, n, tile.nr);
        packed_strip_pass(b_pack, c, a, ta, pc, kc, alpha, tile, micro);
        pc += kc;
    }
}

/// Calibration probe for [`crate::tune`]: nanoseconds for one packed GEMM
/// on an `m x k x n` synthetic problem with the candidate tile. Uses the
/// normal FMA dispatch (calibration only runs when FMA is available) and
/// the explicit-tile entry, so no `tile_for` re-entry can occur.
pub(crate) fn time_candidate(m: usize, k: usize, n: usize, tile: Tile) -> u64 {
    let a = Matrix::from_fn(m, k, |i, j| ((i * 7 + j) as f32 * 0.001).sin());
    let b = Matrix::from_fn(k, n, |i, j| ((i + j * 3) as f32 * 0.001).cos());
    let mut c = Matrix::zeros(m, n);
    let mut pack = Vec::new();
    // One warm rep pages in the pack buffers, then best-of-2 timed reps.
    gemm_packed_with_tile(&mut pack, &mut c, &a, Trans::N, &b, Trans::N, 1.0, 0.0, tile, false);
    let mut best = u64::MAX;
    for _ in 0..2 {
        let t0 = std::time::Instant::now();
        gemm_packed_with_tile(&mut pack, &mut c, &a, Trans::N, &b, Trans::N, 1.0, 0.0, tile, false);
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// One K-panel's worth of the packed kernel: every `mr`-row strip of `C`
/// packs its `op(A)` slice and streams over the packed `op(B)` panel `bp`.
/// Shared by the per-call packing path ([`gemm_packed_into`]) and the
/// cached-B path ([`gemm_nn_cached_b`]) so both produce identical bits.
fn packed_strip_pass(
    bp: &[f32],
    c: &mut Matrix,
    a: &Matrix,
    ta: Trans,
    pc: usize,
    kc: usize,
    alpha: f32,
    tile: Tile,
    micro: Micro,
) {
    let (m, _) = ta.shape_of(a);
    let n = c.cols();
    let nstrips = n.div_ceil(tile.nr);
    c.as_mut_slice().par_chunks_mut(tile.mr * n).enumerate().for_each(|(si, crows)| {
        let i0 = si * tile.mr;
        let mr = tile.mr.min(m - i0);
        APACK.with(|buf| {
            let mut ap = buf.borrow_mut();
            let need = tile.mr * kc;
            if ap.len() != need {
                ap.resize(need, 0.0);
            }
            pack_a_strip(&mut ap, tile.mr, a, ta, i0, mr, pc, kc);
            for js in 0..nstrips {
                let nr = tile.nr.min(n - js * tile.nr);
                let bstrip = &bp[js * kc * tile.nr..(js + 1) * kc * tile.nr];
                microkernel(micro, tile, &ap, bstrip, kc, alpha, crows, n, js * tile.nr, mr, nr);
            }
        });
    });
}

/// Pack `op(B)[pc..pc+kc, 0..n]` into `nr`-wide column strips:
/// `buf[strip][kk][j]`, edge strips zero-padded to `nr` so the microkernel
/// stays uniform (padding lanes are computed but never stored).
fn pack_b_panel(
    buf: &mut Vec<f32>,
    b: &Matrix,
    tb: Trans,
    pc: usize,
    kc: usize,
    n: usize,
    nr: usize,
) {
    let nstrips = n.div_ceil(nr);
    let needed = nstrips * kc * nr;
    // No blanket zero-fill: the copy loops below write every real lane,
    // so only the edge strip's padding lanes (the lanes the microkernel
    // reads but no copy writes) need explicit zeroing.
    if buf.len() > needed {
        buf.truncate(needed);
    } else {
        buf.resize(needed, 0.0);
    }
    pack_b_panel_slice(&mut buf[..needed], b, tb, pc, kc, n, nr);
}

/// Pack every K-panel of `op(B)` back to back into `buf` — the layout
/// [`gemm_nn_cached_b`] walks with a running offset. Each panel's interior
/// layout is exactly what [`pack_b_panel`] produces for that `pc`.
fn pack_b_all_panels(buf: &mut Vec<f32>, b: &Matrix, tb: Trans, k: usize, n: usize, tile: Tile) {
    let nstrips = n.div_ceil(tile.nr);
    let mut needed = 0;
    let mut pc = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        needed += nstrips * kc * tile.nr;
        pc += kc;
    }
    if buf.len() > needed {
        buf.truncate(needed);
    } else {
        buf.resize(needed, 0.0);
    }
    let mut offset = 0;
    let mut pc = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        let len = nstrips * kc * tile.nr;
        pack_b_panel_slice(&mut buf[offset..offset + len], b, tb, pc, kc, n, tile.nr);
        offset += len;
        pc += kc;
    }
}

/// The panel-packing core over an exactly-sized destination slice.
fn pack_b_panel_slice(
    buf: &mut [f32],
    b: &Matrix,
    tb: Trans,
    pc: usize,
    kc: usize,
    n: usize,
    nr: usize,
) {
    let nstrips = n.div_ceil(nr);
    debug_assert_eq!(buf.len(), nstrips * kc * nr);
    let nr_edge = n % nr;
    if nr_edge != 0 {
        let base = (nstrips - 1) * kc * nr;
        for kk in 0..kc {
            buf[base + kk * nr + nr_edge..base + (kk + 1) * nr].fill(0.0);
        }
    }
    match tb {
        Trans::N => {
            for js in 0..nstrips {
                let j0 = js * nr;
                let w = nr.min(n - j0);
                let base = js * kc * nr;
                for kk in 0..kc {
                    let src = &b.row(pc + kk)[j0..j0 + w];
                    buf[base + kk * nr..base + kk * nr + w].copy_from_slice(src);
                }
            }
        }
        Trans::T => {
            // op(B)[kk][col] = B[col][pc + kk]: one contiguous read per
            // output column — the strided access pattern is paid once per
            // panel instead of once per (i, j) pair.
            for col in 0..n {
                let (js, j) = (col / nr, col % nr);
                let base = js * kc * nr + j;
                let src = &b.row(col)[pc..pc + kc];
                for (kk, &v) in src.iter().enumerate() {
                    buf[base + kk * nr] = v;
                }
            }
        }
    }
}

/// Pack `op(A)[i0..i0+mr, pc..pc+kc]` into the interleaved layout
/// `ap[kk][r]` with row stride `mr_t` (zero rows beyond `mr` so edge
/// strips reuse the uniform microkernel).
fn pack_a_strip(
    ap: &mut [f32],
    mr_t: usize,
    a: &Matrix,
    ta: Trans,
    i0: usize,
    mr: usize,
    pc: usize,
    kc: usize,
) {
    debug_assert_eq!(ap.len(), mr_t * kc);
    if mr < mr_t {
        // Padding rows must be zero; full strips overwrite every slot.
        ap.fill(0.0);
    }
    match ta {
        Trans::N => {
            for r in 0..mr {
                let src = &a.row(i0 + r)[pc..pc + kc];
                for (kk, &v) in src.iter().enumerate() {
                    ap[kk * mr_t + r] = v;
                }
            }
        }
        Trans::T => {
            // op(A)[i][kk] = A[pc + kk][i]: contiguous reads per kk.
            for kk in 0..kc {
                let src = &a.row(pc + kk)[i0..i0 + mr];
                for (r, &v) in src.iter().enumerate() {
                    ap[kk * mr_t + r] = v;
                }
            }
        }
    }
}

/// The `mr x nr` microkernel dispatch: widened accumulator block in
/// registers, one panel-depth sweep, then a single `+= alpha * acc` store
/// per output element. Each output row's accumulation order is the plain
/// ascending-k order regardless of `mr`/`nr` edges *and* regardless of
/// which tile or implementation ran — the determinism contract.
#[inline]
fn microkernel(
    micro: Micro,
    tile: Tile,
    ap: &[f32],
    bstrip: &[f32],
    kc: usize,
    alpha: f32,
    crows: &mut [f32],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if micro == Micro::Fma {
        // SAFETY: `Micro::Fma` is only constructed after
        // `cpu::fma_available()` verified AVX2+FMA on this CPU.
        unsafe {
            x86::microkernel_fma(tile.mr, tile.nr, ap, bstrip, kc, alpha, crows, n, j0, mr, nr)
        };
        return;
    }
    let _ = micro;
    match (tile.mr, tile.nr) {
        (4, 8) => mk_scalar::<4, 8>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
        (6, 8) => mk_scalar::<6, 8>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
        (8, 8) => mk_scalar::<8, 8>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
        (4, 16) => mk_scalar::<4, 16>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
        (6, 16) => mk_scalar::<6, 16>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
        (mr_t, nr_t) => unreachable!("tile {mr_t}x{nr_t} is not in the candidate set"),
    }
}

/// Portable scalar microkernel, monomorphized per tile.
fn mk_scalar<const MR: usize, const NR: usize>(
    ap: &[f32],
    bstrip: &[f32],
    kc: usize,
    alpha: f32,
    crows: &mut [f32],
    n: usize,
    j0: usize,
    mr: usize,
    nr: usize,
) {
    // Constant-bound loops with direct indexing: after unrolling every
    // accumulator access has a constant index, so LLVM promotes the whole
    // MR x NR block to registers (iterator forms take addresses into
    // `acc`, which blocks that promotion and halves throughput).
    let mut acc = [[0.0f32; NR]; MR];
    for kk in 0..kc {
        let bs: &[f32; NR] = bstrip[kk * NR..kk * NR + NR].try_into().expect("strip width");
        let av: &[f32; MR] = ap[kk * MR..kk * MR + MR].try_into().expect("panel width");
        for r in 0..MR {
            let ar = av[r];
            for j in 0..NR {
                acc[r][j] += ar * bs[j];
            }
        }
    }
    for (r, accr) in acc.iter().enumerate().take(mr) {
        let crow = &mut crows[r * n + j0..r * n + j0 + nr];
        for (cx, &v) in crow.iter_mut().zip(accr) {
            *cx += alpha * v;
        }
    }
}

/// AVX2+FMA microkernels, runtime-dispatched through [`crate::cpu`]. Same
/// `unsafe` policy as the SpMM band kernel: the `#[target_feature]` call
/// boundary plus the SIMD load/store intrinsics, every pointer derived
/// from a bounds-checked slice immediately before use.
///
/// Each candidate tile is `MR` accumulator rows of `NCOL` ymm columns
/// (`nr = 8 * NCOL`); the B strip is broadcast-FMA'd into the block one
/// `kk` at a time, which is the same per-element ascending-`k` order as
/// the scalar kernel — fused per step, so values can differ from scalar in
/// the last ulp (per-process dispatch keeps that invariant-safe). Edge
/// tiles compute the full block against the zero-padded packed panels and
/// spill through a stack buffer so only real `mr x nr` elements store.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use crate::tune::NR_MAX;
    use core::arch::x86_64::{
        __m256, _mm256_fmadd_ps, _mm256_loadu_ps, _mm256_set1_ps, _mm256_setzero_ps,
        _mm256_storeu_ps,
    };

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load(src: &[f32]) -> __m256 {
        debug_assert!(src.len() >= 8);
        _mm256_loadu_ps(src.as_ptr())
    }

    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store(dst: &mut [f32], v: __m256) {
        debug_assert!(dst.len() >= 8);
        _mm256_storeu_ps(dst.as_mut_ptr(), v)
    }

    /// Dispatch to the monomorphized tile kernel.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; call only after [`crate::cpu::fma_available`]
    /// returned true.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn microkernel_fma(
        mr_t: usize,
        nr_t: usize,
        ap: &[f32],
        bstrip: &[f32],
        kc: usize,
        alpha: f32,
        crows: &mut [f32],
        n: usize,
        j0: usize,
        mr: usize,
        nr: usize,
    ) {
        match (mr_t, nr_t) {
            (4, 8) => mk_fma::<4, 1>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
            (6, 8) => mk_fma::<6, 1>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
            (8, 8) => mk_fma::<8, 1>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
            (4, 16) => mk_fma::<4, 2>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
            (6, 16) => mk_fma::<6, 2>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
            _ => unreachable!("tile {mr_t}x{nr_t} is not in the candidate set"),
        }
    }

    /// One `MR x (8 * NCOL)` tile: `MR * NCOL` ymm accumulators stay live
    /// across the whole panel depth; register budget peaks at
    /// `MR * NCOL + NCOL + 1` of the 16 ymm registers.
    #[target_feature(enable = "avx2,fma")]
    unsafe fn mk_fma<const MR: usize, const NCOL: usize>(
        ap: &[f32],
        bstrip: &[f32],
        kc: usize,
        alpha: f32,
        crows: &mut [f32],
        n: usize,
        j0: usize,
        mr: usize,
        nr: usize,
    ) {
        let width = 8 * NCOL;
        let mut acc = [[_mm256_setzero_ps(); NCOL]; MR];
        for kk in 0..kc {
            let bbase = kk * width;
            let mut bv = [_mm256_setzero_ps(); NCOL];
            for col in 0..NCOL {
                bv[col] = load(&bstrip[bbase + 8 * col..bbase + 8 * col + 8]);
            }
            let av = &ap[kk * MR..kk * MR + MR];
            for r in 0..MR {
                let ar = _mm256_set1_ps(av[r]);
                for col in 0..NCOL {
                    acc[r][col] = _mm256_fmadd_ps(ar, bv[col], acc[r][col]);
                }
            }
        }
        // Spill each live row to a stack buffer, then store only the real
        // mr x nr window with the same `+= alpha * v` the scalar kernel
        // uses — one store rule for interior and edge tiles alike.
        for (r, accr) in acc.iter().enumerate().take(mr) {
            let mut spill = [0.0f32; NR_MAX];
            for (col, &v) in accr.iter().enumerate() {
                store(&mut spill[8 * col..8 * col + 8], v);
            }
            let crow = &mut crows[r * n + j0..r * n + j0 + nr];
            for (cx, &v) in crow.iter_mut().zip(&spill[..nr]) {
                *cx += alpha * v;
            }
        }
    }
}

fn scale_output(c: &mut Matrix, beta: f32) {
    scale_row(c.as_mut_slice(), beta);
}

fn scale_row(row: &mut [f32], beta: f32) {
    if beta == 0.0 {
        row.fill(0.0);
    } else if beta != 1.0 {
        for x in row.iter_mut() {
            *x *= beta;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compare::assert_close;
    use crate::tune::{kc_for, tile_for, ShapeClass, FMA_CANDIDATES};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for kk in 0..a.cols() {
                    acc += a[(i, kk)] * b[(kk, j)];
                }
                c[(i, j)] = acc;
            }
        }
        c
    }

    fn test_mat(rows: usize, cols: usize, seed: f32) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * 31 + j * 7) as f32 * 0.01 + seed).sin())
    }

    #[test]
    fn all_transpose_modes_agree_with_naive() {
        let a = test_mat(13, 9, 0.1);
        let b = test_mat(9, 11, 0.2);
        let reference = naive(&a, &b);
        let at = a.transposed();
        let bt = b.transposed();
        assert_close(&matmul(&a, Trans::N, &b, Trans::N), &reference, 1e-5, "NN");
        assert_close(&matmul(&a, Trans::N, &bt, Trans::T), &reference, 1e-5, "NT");
        assert_close(&matmul(&at, Trans::T, &b, Trans::N), &reference, 1e-5, "TN");
        assert_close(&matmul(&at, Trans::T, &bt, Trans::T), &reference, 1e-5, "TT");
    }

    #[test]
    fn packed_path_all_modes_agree_with_naive() {
        // 70x130 operands: k*n exceeds the packing threshold and spans
        // multiple nr strips plus an edge strip; alpha/beta exercised too.
        let a = test_mat(70, 130, 0.3);
        let b = test_mat(130, 70, 0.4);
        let reference = naive(&a, &b);
        let at = a.transposed();
        let bt = b.transposed();
        for (ma, ta, mb, tb, label) in [
            (&a, Trans::N, &b, Trans::N, "NN"),
            (&a, Trans::N, &bt, Trans::T, "NT"),
            (&at, Trans::T, &b, Trans::N, "TN"),
            (&at, Trans::T, &bt, Trans::T, "TT"),
        ] {
            let mut c = Matrix::full(70, 70, 1.0);
            gemm(&mut c, ma, ta, mb, tb, 2.0, -1.0);
            let mut expect = reference.clone();
            for e in expect.as_mut_slice().iter_mut() {
                *e = 2.0 * *e - 1.0;
            }
            assert_close(&c, &expect, 1e-4, label);
        }
    }

    #[test]
    fn multi_panel_k_matches_naive() {
        // (k, n) = (1100, 17) classifies DeepK (kc = 1024), so k spans two
        // K-panels: 1024 + 76.
        let a = test_mat(9, 1100, 0.5);
        let b = test_mat(1100, 17, 0.6);
        assert_eq!(tile_for(1100, 17).kc, kc_for(ShapeClass::DeepK));
        assert_close(&matmul(&a, Trans::N, &b, Trans::N), &naive(&a, &b), 1e-4, "multi-panel");
    }

    #[test]
    fn packed_path_close_to_sequential() {
        // 80*80 >= the packing threshold so gemm() takes the packed path.
        // FMA fuses multiply-adds, so packed-vs-seq is a tolerance check;
        // the bitwise guarantees live within each kernel path (see
        // scalar_packed_matches_sequential_bitwise and
        // every_candidate_tile_is_bitwise_identical).
        let a = test_mat(80, 80, 0.3);
        let b = test_mat(80, 80, 0.4);
        let mut c_packed = Matrix::zeros(80, 80);
        gemm(&mut c_packed, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        let mut c_seq = Matrix::zeros(80, 80);
        gemm_seq(&mut c_seq, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        assert_close(&c_packed, &c_seq, 1e-4, "packed vs seq");
    }

    #[test]
    fn scalar_packed_matches_sequential_bitwise() {
        // With the scalar microkernel pinned, k <= kc and alpha = 1, the
        // packed path performs exactly the naive ascending-k accumulation
        // per element — bitwise, for every candidate tile.
        let a = test_mat(80, 80, 0.3);
        let b = test_mat(80, 80, 0.4);
        let mut c_seq = Matrix::zeros(80, 80);
        gemm_seq(&mut c_seq, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        for &(mr, nr) in FMA_CANDIDATES {
            let tile = Tile { mr, nr, kc: 512 };
            let mut c = Matrix::zeros(80, 80);
            let mut pack = Vec::new();
            gemm_packed_with_tile(
                &mut pack,
                &mut c,
                &a,
                Trans::N,
                &b,
                Trans::N,
                1.0,
                0.0,
                tile,
                true,
            );
            assert_eq!(c.as_slice(), c_seq.as_slice(), "scalar packed {mr}x{nr} diverged from seq");
        }
    }

    #[test]
    fn every_candidate_tile_is_bitwise_identical() {
        // The autotuner's license to pick mr/nr by timing: every candidate
        // (and both kernel implementations against themselves) must give
        // identical bits, including across K-panels and edge strips.
        let a = test_mat(37, 700, 0.3);
        let b = test_mat(700, 43, 0.4);
        let kc = tile_for(700, 43).kc;
        for force_scalar in [false, true] {
            let mut reference: Option<Matrix> = None;
            for &(mr, nr) in FMA_CANDIDATES {
                let mut c = Matrix::full(37, 43, 0.5);
                let mut pack = Vec::new();
                gemm_packed_with_tile(
                    &mut pack,
                    &mut c,
                    &a,
                    Trans::N,
                    &b,
                    Trans::N,
                    1.5,
                    -0.5,
                    Tile { mr, nr, kc },
                    force_scalar,
                );
                match &reference {
                    None => reference = Some(c),
                    Some(r) => assert_eq!(
                        c.as_slice(),
                        r.as_slice(),
                        "tile {mr}x{nr} (force_scalar={force_scalar}) changed bits"
                    ),
                }
            }
        }
    }

    #[test]
    fn fma_and_scalar_agree_within_tolerance() {
        // The two implementations differ only in fusion rounding; any
        // larger gap means a kernel bug rather than ulp noise.
        let a = test_mat(50, 300, 0.6);
        let b = test_mat(300, 90, 0.7);
        let tile = tile_for(300, 90);
        let mut c_auto = Matrix::zeros(50, 90);
        let mut c_scalar = Matrix::zeros(50, 90);
        let mut pack = Vec::new();
        gemm_packed_with_tile(
            &mut pack,
            &mut c_auto,
            &a,
            Trans::N,
            &b,
            Trans::N,
            1.0,
            0.0,
            tile,
            false,
        );
        gemm_packed_with_tile(
            &mut pack,
            &mut c_scalar,
            &a,
            Trans::N,
            &b,
            Trans::N,
            1.0,
            0.0,
            tile,
            true,
        );
        assert_close(&c_auto, &c_scalar, 1e-4, "fma vs scalar");
    }

    #[test]
    fn packed_path_bitwise_identical_across_thread_counts() {
        // The pool contract: partitioning rows over more workers must not
        // change a single bit of the output.
        let a = test_mat(90, 300, 0.3);
        let b = test_mat(300, 70, 0.4);
        let mut reference = Matrix::zeros(90, 70);
        rayon::ThreadPool::new(1)
            .install(|| gemm(&mut reference, &a, Trans::N, &b, Trans::N, 1.0, 0.0));
        for threads in [2usize, 3, 5] {
            let mut c = Matrix::zeros(90, 70);
            rayon::ThreadPool::new(threads)
                .install(|| gemm(&mut c, &a, Trans::N, &b, Trans::N, 1.0, 0.0));
            assert_eq!(
                c.as_slice(),
                reference.as_slice(),
                "packed gemm diverged at {threads} threads"
            );
        }
    }

    #[test]
    fn row_tiles_compose_bitwise() {
        // The §5.2 tiled-combination contract: computing C in row tiles
        // must be bitwise identical to one call, including across K-panel
        // boundaries (k = 1100 > kc for every class).
        let a = test_mat(64, 1100, 0.7);
        let b = test_mat(1100, 40, 0.8);
        let full = matmul(&a, Trans::N, &b, Trans::N);
        for (r0, r1) in [(0usize, 17usize), (17, 40), (40, 64)] {
            let tile = matmul(&a.row_block(r0, r1), Trans::N, &b, Trans::N);
            assert_eq!(
                tile.as_slice(),
                &full.as_slice()[r0 * 40..r1 * 40],
                "tile {}..{} diverged from the full product",
                r0,
                r1
            );
        }
    }

    #[test]
    fn reference_tn_close_to_packed_tn() {
        let a = test_mat(90, 33, 0.9); // op(A) = Aᵀ: 33x90
        let b = test_mat(90, 70, 1.0);
        let mut reference = Matrix::zeros(33, 70);
        gemm_reference_tn(&mut reference, &a, &b, 1.0, 0.0);
        let packed = matmul(&a, Trans::T, &b, Trans::N);
        // Same ascending-k accumulation per element; the packed path may
        // run fused (FMA), so this is a tolerance check, not bitwise.
        assert_close(&reference, &packed, 1e-4, "reference TN vs packed TN");
    }

    #[test]
    fn workspace_gemm_matches_thread_local_gemm() {
        let a = test_mat(50, 120, 1.1);
        let b = test_mat(120, 90, 1.2);
        let expect = matmul(&a, Trans::N, &b, Trans::N);
        let mut ws = KernelWorkspace::new();
        for _ in 0..3 {
            let mut c = ws.take(50, 90);
            gemm_ws(&mut ws, &mut c, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
            assert_eq!(c.as_slice(), expect.as_slice());
            ws.recycle(c);
        }
    }

    #[test]
    fn cached_b_matches_gemm_ws_bitwise() {
        // 120x90: k*n above the packing threshold, multiple nr strips plus
        // an edge strip. Repeated calls, row tiles and version bumps must
        // all agree bitwise with the per-call packing path.
        let b = test_mat(120, 90, 0.2);
        let mut ws = KernelWorkspace::new();
        for (version, rows) in [(1u64, 50usize), (1, 50), (1, 33), (2, 50)] {
            let a = test_mat(rows, 120, 0.1 + version as f32);
            let mut expect = Matrix::zeros(rows, 90);
            gemm_ws(&mut ws, &mut expect, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
            let mut c = Matrix::zeros(rows, 90);
            gemm_nn_cached_b(&mut ws, &mut c, &a, &b, version, 1.0, 0.0);
            assert_eq!(c.as_slice(), expect.as_slice(), "cached-B diverged (v{})", version);
        }
        // Multi-panel k (> kc) through the cached path.
        let a = test_mat(20, 700, 0.4);
        let b = test_mat(700, 40, 0.5);
        let mut expect = Matrix::zeros(20, 40);
        gemm_ws(&mut ws, &mut expect, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        let mut c = Matrix::zeros(20, 40);
        gemm_nn_cached_b(&mut ws, &mut c, &a, &b, 7, 1.0, 0.0);
        assert_eq!(c.as_slice(), expect.as_slice(), "multi-panel cached-B diverged");
    }

    #[test]
    fn cached_b_stops_allocating_across_versions() {
        // Packing a same-shaped operand under a new version reuses the
        // cached buffer's capacity: after the first pack, version bumps
        // cause repacks but no allocator interaction.
        let a = test_mat(40, 100, 0.3);
        let mut ws = KernelWorkspace::new();
        let mut c = Matrix::zeros(40, 80);
        let b0 = test_mat(100, 80, 0.6);
        gemm_nn_cached_b(&mut ws, &mut c, &a, &b0, 0, 1.0, 0.0);
        let warmed = ws.alloc_events();
        for v in 1..6u64 {
            let b = test_mat(100, 80, 0.6 + v as f32);
            gemm_nn_cached_b(&mut ws, &mut c, &a, &b, v, 1.0, 0.0);
        }
        assert_eq!(ws.alloc_events(), warmed, "version repacks allocated");
    }

    #[test]
    fn cached_b_below_threshold_matches_unpacked() {
        // Tiny k*n dispatches to the unpacked kernel — exactly like gemm —
        // so small-model configs see no behavior change.
        let a = test_mat(30, 8, 0.7);
        let b = test_mat(8, 8, 0.8);
        let mut expect = Matrix::zeros(30, 8);
        gemm(&mut expect, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        let mut ws = KernelWorkspace::new();
        let mut c = Matrix::zeros(30, 8);
        gemm_nn_cached_b(&mut ws, &mut c, &a, &b, 3, 1.0, 0.0);
        assert_eq!(c.as_slice(), expect.as_slice());
    }

    #[test]
    fn cached_bt_matches_gemm_ws_bitwise() {
        // The backward shape: dH = dQ · Wᵀ with W of shape (k_in, n_out).
        // Repeated calls, row tiles and version bumps through the
        // transposed cache must agree bitwise with per-call packing.
        let w = test_mat(90, 120, 0.2);
        let mut ws = KernelWorkspace::new();
        for (version, rows) in [(1u64, 50usize), (1, 50), (1, 33), (2, 50)] {
            let dq = test_mat(rows, 120, 0.1 + version as f32);
            let mut expect = Matrix::zeros(rows, 90);
            gemm_ws(&mut ws, &mut expect, &dq, Trans::N, &w, Trans::T, 1.0, 0.0);
            let mut c = Matrix::zeros(rows, 90);
            gemm_nt_cached_b(&mut ws, &mut c, &dq, &w, version, 1.0, 0.0);
            assert_eq!(c.as_slice(), expect.as_slice(), "cached-Bᵀ diverged (v{})", version);
        }
        // Multi-panel k (> kc) through the transposed cache.
        let dq = test_mat(20, 700, 0.4);
        let w = test_mat(40, 700, 0.5);
        let mut expect = Matrix::zeros(20, 40);
        gemm_ws(&mut ws, &mut expect, &dq, Trans::N, &w, Trans::T, 1.0, 0.0);
        let mut c = Matrix::zeros(20, 40);
        gemm_nt_cached_b(&mut ws, &mut c, &dq, &w, 7, 1.0, 0.0);
        assert_eq!(c.as_slice(), expect.as_slice(), "multi-panel cached-Bᵀ diverged");
    }

    #[test]
    fn cached_bt_and_nn_share_a_workspace_without_thrash_or_allocs() {
        // One step's pattern: forward packs W under N, backward packs the
        // same W under T, same version. The slots are independent, so
        // after warmup neither direction repacks or allocates.
        let w = test_mat(100, 80, 0.6);
        let h = test_mat(40, 100, 0.3);
        let dq = test_mat(40, 80, 0.4);
        let mut ws = KernelWorkspace::new();
        let mut q = Matrix::zeros(40, 80);
        let mut dh = Matrix::zeros(40, 100);
        gemm_nn_cached_b(&mut ws, &mut q, &h, &w, 0, 1.0, 0.0);
        gemm_nt_cached_b(&mut ws, &mut dh, &dq, &w, 0, 1.0, 0.0);
        let warmed = ws.alloc_events();
        let (q_expect, dh_expect) = (q.as_slice().to_vec(), dh.as_slice().to_vec());
        for _ in 0..4 {
            gemm_nn_cached_b(&mut ws, &mut q, &h, &w, 0, 1.0, 0.0);
            gemm_nt_cached_b(&mut ws, &mut dh, &dq, &w, 0, 1.0, 0.0);
            assert_eq!(q.as_slice(), &q_expect[..]);
            assert_eq!(dh.as_slice(), &dh_expect[..]);
        }
        assert_eq!(ws.alloc_events(), warmed, "alternating N/T packs thrashed or allocated");
        // Version bumps repack in place (same capacity, no allocations).
        for v in 1..4u64 {
            let w2 = test_mat(100, 80, 0.6 + v as f32);
            gemm_nn_cached_b(&mut ws, &mut q, &h, &w2, v, 1.0, 0.0);
            gemm_nt_cached_b(&mut ws, &mut dh, &dq, &w2, v, 1.0, 0.0);
        }
        assert_eq!(ws.alloc_events(), warmed, "version repacks allocated");
    }

    #[test]
    fn cached_bt_below_threshold_matches_unpacked() {
        let dq = test_mat(30, 8, 0.7);
        let w = test_mat(8, 8, 0.8);
        let mut expect = Matrix::zeros(30, 8);
        gemm(&mut expect, &dq, Trans::N, &w, Trans::T, 1.0, 0.0);
        let mut ws = KernelWorkspace::new();
        let mut c = Matrix::zeros(30, 8);
        gemm_nt_cached_b(&mut ws, &mut c, &dq, &w, 3, 1.0, 0.0);
        assert_eq!(c.as_slice(), expect.as_slice());
    }

    #[test]
    fn alpha_beta_accumulate() {
        let a = test_mat(4, 5, 0.5);
        let b = test_mat(5, 3, 0.6);
        let mut c = Matrix::full(4, 3, 2.0);
        gemm(&mut c, &a, Trans::N, &b, Trans::N, 0.5, 3.0);
        let mut expected = naive(&a, &b);
        for i in 0..4 {
            for j in 0..3 {
                expected[(i, j)] = 0.5 * expected[(i, j)] + 3.0 * 2.0;
            }
        }
        assert_close(&c, &expected, 1e-5, "alpha-beta");
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(3, 4);
        let b = Matrix::zeros(5, 2);
        let _ = matmul(&a, Trans::N, &b, Trans::N);
    }

    #[test]
    fn rectangular_shapes_all_modes() {
        // (2x7)·(7x3) through every mode with distinct dims to catch
        // row/col swaps.
        let a = test_mat(2, 7, 0.7);
        let b = test_mat(7, 3, 0.8);
        let reference = naive(&a, &b);
        let got = matmul(&b.transposed(), Trans::N, &a.transposed(), Trans::N).transposed();
        assert_close(&got, &reference, 1e-5, "(BᵀAᵀ)ᵀ = AB");
    }

    #[test]
    fn degenerate_dimensions_are_noops() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 128);
        assert_eq!(matmul(&a, Trans::N, &b, Trans::N).shape(), (0, 128));
        let a = Matrix::zeros(4, 0);
        let b = Matrix::zeros(0, 128);
        let mut c = Matrix::full(4, 128, 3.0);
        gemm(&mut c, &a, Trans::N, &b, Trans::N, 1.0, 2.0);
        assert!(c.as_slice().iter().all(|&x| x == 6.0), "k=0 must only apply beta");
    }
}
