//! SGEMM: `C = alpha * op(A) * op(B) + beta * C` with all transpose modes.
//!
//! Every shape runs one data path, the cache-blocked, panel-packed kernel
//! ([`gemm_packed_with_tile`]): `op(B)` is packed once per K-panel into
//! `nr`-wide column strips, each `mr`-row strip of `op(A)` is packed into
//! a thread-resident interleaved panel, and an `mr x nr`
//! widened-accumulator microkernel does the flops. Because *all four*
//! transpose modes route through the packing step, TN/TT pay their strided
//! reads once per panel (amortized over `n / nr` reuses) and then hit the
//! same contiguous inner kernel as NN. There is no small-problem kernel:
//! packing a `k x n` operand costs `k * n` copies against `2 * m * k * n`
//! flops, and measured on the shapes the trainer and the server produce
//! (down to `m = 8`) the packed kernel is never slower than unpacked
//! loops — so nothing dispatches on size.
//!
//! One thing is decided at runtime rather than compile time, once per
//! process: **the microkernel implementation.** On x86-64 with AVX2+FMA
//! (checked through [`crate::cpu`], the same dispatch policy the SpMM band
//! kernel uses) the inner tile runs 8-wide `_mm256_fmadd_ps` accumulators;
//! otherwise the portable const-generic scalar tile. FMA fuses each
//! multiply-add without intermediate rounding, so values can differ from
//! the scalar kernel in the last ulp — dispatch is per-process, never
//! per-shape, so every bitwise invariant in the engine is untouched. The
//! tile is a constant of that dispatch and `kc` a fixed function of
//! `(k, n)`; both come from the table in [`crate::tune`].
//!
//! The deliberately-strided TN kernel survives as [`gemm_reference_tn`]:
//! on GPUs the analogous generic kernel is what makes the paper's
//! `dW = SGEMM(Hᵀ, dQ)` slow on Frontier (§5.3), and the tuning in
//! `plexus-core` — replacing the TN GEMM with a fast-path kernel — is only
//! an honest experiment if a TN path that really is slower stays
//! measurable. It never routes through the packed or FMA kernels.
//!
//! # Determinism contract
//!
//! The engine's bitwise-identity tests (blocked aggregation, tiled
//! combination GEMM, overlapped collectives) rely on one property: **the
//! f32 operation sequence that produces output row `i` is a function of
//! `(k, n)`, the process's SIMD dispatch, and the row's operand values —
//! never of `m`, of which row tile the row landed in, or of how many
//! threads ran.** There is no dispatch on size at all: `kc` looks only at
//! `(k, n)`, K-panels split `k` identically for every row, each row's
//! accumulator is private, and the parallel path partitions rows without
//! changing per-row math.

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

/// Minimum work (in multiply-adds) before [`gemm_reference_tn`] splits
/// rows across workers; below this the fork/join overhead dominates. The
/// parallel variant keeps per-row math identical to [`gemm_seq`], so
/// crossing it never changes results.
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

/// The process's tile for `op(A) * op(B)`.
fn tile_of(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans) -> Tile {
    tune::tile_for(ta.shape_of(a).1, tb.shape_of(b).1)
}

/// `C = alpha * op(A) * op(B) + beta * C` through the packed kernel, with
/// the packed panel in thread-local storage.
pub fn gemm(c: &mut Matrix, a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, alpha: f32, beta: f32) {
    let tile = tile_of(a, ta, b, tb);
    BPACK.with(|buf| {
        gemm_packed_with_tile(&mut buf.borrow_mut(), c, a, ta, b, tb, alpha, beta, tile, false)
    });
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
    let tile = tile_of(a, ta, b, tb);
    let before = ws.b_pack.capacity();
    gemm_packed_with_tile(&mut ws.b_pack, c, a, ta, b, tb, alpha, beta, tile, false);
    ws.note_grown(before, ws.b_pack.capacity());
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
/// and the same microkernel consumes them.
pub fn gemm_nn_cached_b(
    ws: &mut KernelWorkspace,
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    b_version: u64,
    alpha: f32,
    beta: f32,
) {
    gemm_cached_b(ws, c, a, b, Trans::N, b_version, alpha, beta);
}

/// `C = alpha * A * Bᵀ + beta * C` with the packed `Bᵀ` panels cached in
/// `ws` under `b_version` — the transposed-layout sibling of
/// [`gemm_nn_cached_b`] for backward's `∂L/∂H = dQ·Wᵀ`, whose transposed
/// weights only change at the optimizer step.
///
/// The cache lives in its own workspace slot, keyed by the same per-layer
/// weight version the forward cache uses, so forward (`N` pack) and
/// backward (`T` pack) of one step never evict each other. Version
/// discipline, the debug content-hash guard and bitwise equality with
/// [`gemm_ws`] on the same operands all match the `N` variant.
pub fn gemm_nt_cached_b(
    ws: &mut KernelWorkspace,
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    b_version: u64,
    alpha: f32,
    beta: f32,
) {
    gemm_cached_b(ws, c, a, b, Trans::T, b_version, alpha, beta);
}

/// The cached-panel routine behind [`gemm_nn_cached_b`] (`tb = N`) and
/// [`gemm_nt_cached_b`] (`tb = T`): pack all of `op(B)` into the slot for
/// `tb` unless `(b_version, shape)` is already there, then run the same
/// strip passes [`gemm_packed_with_tile`] runs, one per cached panel.
fn gemm_cached_b(
    ws: &mut KernelWorkspace,
    c: &mut Matrix,
    a: &Matrix,
    b: &Matrix,
    tb: Trans,
    b_version: u64,
    alpha: f32,
    beta: f32,
) {
    check_shapes(c, a, Trans::N, b, tb);
    let k = a.cols();
    let n = c.cols();
    let tile = tune::tile_for(k, n);
    let slot = match tb {
        Trans::N => &mut ws.cached_b,
        Trans::T => &mut ws.cached_bt,
    };
    let cap_before = slot.buf.capacity();
    let key = (b_version, b.rows(), b.cols());
    if slot.key != Some(key) {
        pack_b_all_panels(&mut slot.buf, b, tb, k, n, tile);
        slot.key = Some(key);
        #[cfg(debug_assertions)]
        {
            slot.fnv = fnv_f32(b.as_slice());
        }
    }
    #[cfg(debug_assertions)]
    debug_assert_eq!(
        slot.fnv,
        fnv_f32(b.as_slice()),
        "cached-B gemm: version {} reused for different operand contents",
        b_version
    );
    scale_output(c, beta);
    let micro = Micro::select(false);
    let nstrips = n.div_ceil(tile.nr);
    let mut pc = 0;
    let mut offset = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        let panel = &slot.buf[offset..offset + nstrips * kc * tile.nr];
        packed_strip_pass(panel, c, a, Trans::N, pc, kc, alpha, tile, micro);
        offset += nstrips * kc * tile.nr;
        pc += kc;
    }
    let cap_after = slot.buf.capacity();
    ws.note_grown(cap_before, cap_after);
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

/// Plain sequential GEMM, all modes, no packing: the naive reference the
/// tests compare the packed kernel against, and the small-problem arm of
/// [`gemm_reference_tn`]. No production path dispatches to it. It spells
/// out the per-element op order the determinism contract promises — scale
/// by `beta`, sum `op(A)[i][kk] * op(B)[kk][j]` over ascending `kk` from
/// zero, add `alpha` times the sum — which the scalar microkernel matches
/// bitwise while one K-panel covers `k`.
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
    scale_output(c, beta);
    for i in 0..m {
        for (j, cx) in c.row_mut(i).iter_mut().enumerate() {
            let mut acc = 0.0f32;
            for kk in 0..k {
                let av = if ta == Trans::N { a[(i, kk)] } else { a[(kk, i)] };
                let bv = if tb == Trans::N { b[(kk, j)] } else { b[(j, kk)] };
                acc += av * bv;
            }
            *cx += alpha * acc;
        }
    }
}

/// The deliberately-strided TN kernel, preserved verbatim from the
/// pre-packing implementation: `C = alpha * Aᵀ * B + beta * C` with A read
/// down columns at stride `a.cols()`. This is the honest slow path behind
/// `GemmTuning::Default` and the Fig. 6 right panel — the CPU stand-in for
/// the generic GPU kernel the paper measures in §5.3. It never routes
/// through the packed or FMA kernels.
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

/// The packed blocked kernel — the one driver behind [`gemm`] and
/// [`gemm_ws`], which pass the process's tile from [`tune::tile_for`].
/// `b_pack` holds the packed `op(B)` panel (grown as needed, contents
/// scratch). The explicit tile and the scalar-microkernel pin are the
/// tests' lever for comparing tiles / FMA-vs-scalar inside one process.
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
    check_shapes(c, a, ta, b, tb);
    let (_, k) = ta.shape_of(a);
    let n = c.cols();
    scale_output(c, beta);
    let micro = Micro::select(force_scalar);
    let mut pc = 0;
    while pc < k {
        let kc = tile.kc.min(k - pc);
        pack_b_panel(b_pack, b, tb, pc, kc, n, tile.nr);
        packed_strip_pass(b_pack, c, a, ta, pc, kc, alpha, tile, micro);
        pc += kc;
    }
}

/// One K-panel's worth of the packed kernel: every `mr`-row strip of `C`
/// packs its `op(A)` slice and streams over the packed `op(B)` panel `bp`.
/// Shared by the per-call packing path ([`gemm_packed_with_tile`]) and the
/// cached-B path ([`gemm_cached_b`]) so both produce identical bits.
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
    let (m, n) = c.shape();
    if m == 0 || n == 0 {
        return;
    }
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
/// [`gemm_cached_b`] walks with a running offset. Each panel's interior
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
        (6, 16) => mk_scalar::<6, 16>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
        (mr_t, nr_t) => unreachable!("tile {mr_t}x{nr_t} is not in the tile table"),
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
/// Each tile is `MR` accumulator rows of `NCOL` ymm columns
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
            (6, 16) => mk_fma::<6, 2>(ap, bstrip, kc, alpha, crows, n, j0, mr, nr),
            _ => unreachable!("tile {mr_t}x{nr_t} is not in the tile table"),
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
    use crate::tune::{kc_for, tile_for, ShapeClass, FMA_TILE, SCALAR_TILE};

    fn naive(a: &Matrix, b: &Matrix) -> Matrix {
        let mut c = Matrix::zeros(a.rows(), b.cols());
        gemm_seq(&mut c, a, Trans::N, b, Trans::N, 1.0, 0.0);
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
        // 70x130 operands span multiple nr strips plus an edge strip;
        // alpha/beta exercised too.
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
        // per element — bitwise, for every tile in the table.
        let a = test_mat(80, 80, 0.3);
        let b = test_mat(80, 80, 0.4);
        let mut c_seq = Matrix::zeros(80, 80);
        gemm_seq(&mut c_seq, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        for (mr, nr) in [FMA_TILE, SCALAR_TILE] {
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
        // Why the table's mr/nr constants are free to change: every tile
        // it can return (on both kernel implementations, each against
        // itself) must give identical bits, including across K-panels and
        // edge strips.
        let a = test_mat(37, 700, 0.3);
        let b = test_mat(700, 43, 0.4);
        let kc = tile_for(700, 43).kc;
        for force_scalar in [false, true] {
            let mut reference: Option<Matrix> = None;
            for (mr, nr) in [FMA_TILE, SCALAR_TILE] {
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
        // 120x90: multiple nr strips plus an edge strip. Repeated calls,
        // row tiles and version bumps must all agree bitwise with the
        // per-call packing path.
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
        // Multi-panel k (> kc), then a small-model shape (one partial
        // strip), through the same workspace.
        for (version, (m, k, n)) in [(7u64, (20usize, 700usize, 40usize)), (8, (30, 8, 8))] {
            let a = test_mat(m, k, 0.4);
            let b = test_mat(k, n, 0.5);
            let mut expect = Matrix::zeros(m, n);
            gemm_ws(&mut ws, &mut expect, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
            let mut c = Matrix::zeros(m, n);
            gemm_nn_cached_b(&mut ws, &mut c, &a, &b, version, 1.0, 0.0);
            assert_eq!(c.as_slice(), expect.as_slice(), "cached-B diverged at {m}x{k}x{n}");
        }
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
        // Multi-panel k (> kc), then a small-model shape, through the
        // transposed cache.
        for (version, (m, k, n)) in [(7u64, (20usize, 700usize, 40usize)), (8, (30, 8, 8))] {
            let dq = test_mat(m, k, 0.4);
            let w = test_mat(n, k, 0.5);
            let mut expect = Matrix::zeros(m, n);
            gemm_ws(&mut ws, &mut expect, &dq, Trans::N, &w, Trans::T, 1.0, 0.0);
            let mut c = Matrix::zeros(m, n);
            gemm_nt_cached_b(&mut ws, &mut c, &dq, &w, version, 1.0, 0.0);
            assert_eq!(c.as_slice(), expect.as_slice(), "cached-Bᵀ diverged at {m}x{k}x{n}");
        }
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
    fn every_entry_point_matches_seq_on_every_shape_and_mode() {
        // The packed kernel serves every shape, so it is checked on the
        // ones the old small-problem kernel used to hide: empty and
        // one-element dimensions, partial strips and tiles, a multi-panel
        // `k` per shape class (which also sits above the retired 64*64
        // `k*n` line). `k = 0` must leave exactly `beta * c`.
        let dims = [0usize, 1, 2, 7, 8, 9, 17];
        let mut shapes = vec![(30, 8, 8), (4, 0, 128), (0, 5, 128), (9, 80, 90)];
        shapes.extend([(5, 300, 256), (5, 1100, 16), (5, 600, 100)]); // Wide, DeepK, Square
        for &m in &dims {
            for &k in &dims {
                shapes.extend(dims.iter().map(|&n| (m, k, n)));
            }
        }
        let mut ws = KernelWorkspace::new();
        let mut version = 0u64;
        for (m, k, n) in shapes {
            let tile = tile_for(k, n);
            let one_panel = k <= tile.kc;
            for (ta, tb) in [
                (Trans::N, Trans::N),
                (Trans::N, Trans::T),
                (Trans::T, Trans::N),
                (Trans::T, Trans::T),
            ] {
                let a = if ta == Trans::N { test_mat(m, k, 0.1) } else { test_mat(k, m, 0.1) };
                let b = if tb == Trans::N { test_mat(k, n, 0.2) } else { test_mat(n, k, 0.2) };
                let c0 = test_mat(m, n, 0.3);
                for (alpha, beta) in [(1.0f32, 0.0f32), (1.0, 1.0), (0.5, 2.0)] {
                    let what = format!("{m}x{k}x{n} {ta:?}{tb:?} alpha {alpha} beta {beta}");
                    let mut expect = c0.clone();
                    gemm_seq(&mut expect, &a, ta, &b, tb, alpha, beta);
                    let check = |got: &Matrix, bitwise: bool| {
                        if bitwise {
                            assert_eq!(got.as_slice(), expect.as_slice(), "{what}");
                        } else {
                            assert_close(got, &expect, 2e-4, &what);
                        }
                    };
                    // Scalar microkernel pinned: exactly the sequential
                    // ascending-k sum while one panel covers k.
                    let mut pinned = c0.clone();
                    let mut bp = Vec::new();
                    gemm_packed_with_tile(
                        &mut bp,
                        &mut pinned,
                        &a,
                        ta,
                        &b,
                        tb,
                        alpha,
                        beta,
                        tile,
                        true,
                    );
                    check(&pinned, one_panel);
                    // The public entry points run the process's dispatch
                    // and agree with one another bitwise.
                    let mut got = c0.clone();
                    gemm(&mut got, &a, ta, &b, tb, alpha, beta);
                    check(&got, one_panel && !crate::cpu::fma_available());
                    let mut via_ws = c0.clone();
                    gemm_ws(&mut ws, &mut via_ws, &a, ta, &b, tb, alpha, beta);
                    assert_eq!(via_ws.as_slice(), got.as_slice(), "gemm_ws {what}");
                    if ta == Trans::N {
                        version += 1;
                        let mut cached = c0.clone();
                        match tb {
                            Trans::N => {
                                gemm_nn_cached_b(&mut ws, &mut cached, &a, &b, version, alpha, beta)
                            }
                            Trans::T => {
                                gemm_nt_cached_b(&mut ws, &mut cached, &a, &b, version, alpha, beta)
                            }
                        }
                        assert_eq!(cached.as_slice(), got.as_slice(), "cached-B {what}");
                    }
                }
            }
        }
    }

    #[test]
    fn packed_tn_equals_transpose_then_nn_bitwise() {
        // What lets `GemmTuning::Reordered` be the plain TN call: packing
        // op(A) = Hᵀ strip by strip reads the same values into the same
        // panel layout as packing a materialized Hᵀ, so `dW` comes out
        // bit for bit what transpose + NN computed. The last two shapes
        // have k = rows(H) > kc.
        for (rows, d, n) in [(512, 32, 16), (2048, 128, 64), (1500, 24, 40)] {
            let h = test_mat(rows, d, 0.7);
            let dq = test_mat(rows, n, 0.8);
            let via_copy = matmul(&h.transposed(), Trans::N, &dq, Trans::N);
            let direct = matmul(&h, Trans::T, &dq, Trans::N);
            assert_eq!(direct.as_slice(), via_copy.as_slice(), "H {rows}x{d}, dQ {rows}x{n}");
        }
    }
}
