//! SpMM: `C = A_sparse * B_dense` — the kernel that dominates GNN training
//! time (paper §1: "the aggregation phase involves SpMM, which dominates
//! the computational time").
//!
//! The implementation is the row-split scheme of Yang et al. that the paper
//! cites in §4.1, rebuilt around two throughput decisions:
//!
//! * **Feature-band tiling with register accumulators** (32/16-wide
//!   column bands): each band of the output row lives in
//!   registers for the
//!   whole sweep over the row's nonzeros, so `C` is loaded/stored once per
//!   band instead of once per nonzero. Dense rows of `B` are still read
//!   contiguously — the access pattern that makes "shorter-fatter" dense
//!   operands faster, which the paper's computational model penalizes
//!   tall-skinny configurations for.
//! * **Nonzero-prefix-sum work partitioning** for the parallel path:
//!   RMAT-style degree distributions are heavily skewed, so splitting by
//!   row *count* leaves workers idle behind whoever drew the hub rows.
//!   [`nnz_balanced_bounds`] cuts the row range at equal cumulative-nnz
//!   targets instead; rows are never split, so per-row results are
//!   identical to the sequential kernel bit for bit.
//!
//! Every entry point funnels into [`spmm_rows_into`], which computes one
//! contiguous row range of the product into a caller-owned slice through
//! one size check (sequential or parallel); [`spmm_into`] is the whole
//! range. The engines recycle outputs through a `KernelWorkspace` instead
//! of allocating per call, and §5.2 blocked aggregation writes each row
//! block of one shard straight into its rows of the output — no per-block
//! copy of the shard, no per-block partial. Every band's accumulators
//! start at zero, so whatever the recycled buffer held is overwritten,
//! never read.
//!
//! Accumulation order per output element is the row's ascending-nonzero
//! order in every path — band tiling, remainders, row ranges and
//! partitioning change *which registers* hold the partial sums, never the
//! f32 operation sequence — so blocked/unblocked and parallel/sequential
//! results are bitwise identical.

use crate::csr::Csr;
use plexus_tensor::Matrix;
use rayon::prelude::*;
use std::ops::Range;

/// Work threshold below which the sequential kernel is used.
const PAR_THRESHOLD: usize = 1 << 16;

/// Wide column band: eight 4-wide f32 accumulator vectors per band (the
/// fewer passes over a row's nonzeros, the less index arithmetic and
/// column/value re-traversal per output element).
const BAND_W: usize = 32;
/// Narrow column band for the 16..31-column tail.
const BAND_N: usize = 16;

/// `C = A * B` (allocating). Dispatches to the parallel kernel when the
/// flop count justifies it.
pub fn spmm(a: &Csr, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    spmm_into(a, b, &mut c);
    c
}

/// `C = A * B` into a preallocated output (every element overwritten, so
/// `c` may hold recycled garbage on entry).
pub fn spmm_into(a: &Csr, b: &Matrix, c: &mut Matrix) {
    assert_eq!(c.shape(), (a.rows(), b.cols()), "spmm: output shape must be A's rows x B's cols");
    spmm_rows_into(a, 0..a.rows(), b, c.as_mut_slice());
}

/// Rows `rows` of `A * B` into `out`, which holds exactly those rows
/// (`rows.len() * b.cols()` elements, every one overwritten). Rows are
/// independent, so the result is bitwise the matching rows of the whole
/// product; the engine's row-blocked aggregation writes each block of one
/// shard straight into its rows of the output this way.
pub fn spmm_rows_into(a: &Csr, rows: Range<usize>, b: &Matrix, out: &mut [f32]) {
    check_inner(a, b);
    assert!(rows.end <= a.rows(), "spmm: rows {:?} outside the {} rows of A", rows, a.rows());
    assert_eq!(out.len(), rows.len() * b.cols(), "spmm: output length for rows {:?}", rows);
    let nnz = a.row_ptr()[rows.end] - a.row_ptr()[rows.start];
    if nnz * b.cols() >= PAR_THRESHOLD {
        spmm_par(a, rows, b, out);
    } else {
        spmm_rows(a, b, out, rows);
    }
}

/// Sequential SpMM (allocating), kept public so benches and tests can
/// compare the parallel dispatch against it directly.
pub fn spmm_seq(a: &Csr, b: &Matrix) -> Matrix {
    check_inner(a, b);
    let mut c = Matrix::zeros(a.rows(), b.cols());
    spmm_rows(a, b, c.as_mut_slice(), 0..a.rows());
    c
}

fn check_inner(a: &Csr, b: &Matrix) {
    assert_eq!(
        a.cols(),
        b.rows(),
        "spmm: inner dimensions differ: A is {}x{}, B is {}x{}",
        a.rows(),
        a.cols(),
        b.rows(),
        b.cols()
    );
}

/// Split rows `[0, rows)` into at most `max_chunks` contiguous ranges of
/// near-equal *nonzero* count (prefix-sum targets). Rows are never split;
/// every row lands in exactly one range. Nonzeros are counted from
/// `row_ptr[0]`, so a sub-slice `&row_ptr[r0..=r1]` splits rows `r0..r1`
/// (bounds relative to `r0`). Falls back to an even row split when the
/// rows hold no nonzeros.
pub fn nnz_balanced_bounds(row_ptr: &[usize], max_chunks: usize) -> Vec<(usize, usize)> {
    let rows = row_ptr.len() - 1;
    if rows == 0 {
        return Vec::new();
    }
    let chunks = max_chunks.clamp(1, rows);
    let total = row_ptr[rows] - row_ptr[0];
    if total == 0 {
        return (0..chunks)
            .map(|i| (i * rows / chunks, (i + 1) * rows / chunks))
            .filter(|&(r0, r1)| r0 < r1)
            .collect();
    }
    let mut bounds = Vec::with_capacity(chunks);
    let mut r0 = 0;
    for i in 0..chunks {
        if r0 >= rows {
            break;
        }
        let mut r1 = if i + 1 == chunks {
            rows
        } else {
            // First row boundary at/after the cumulative-nnz target, but
            // always advance at least one row.
            let target = row_ptr[0] + (i + 1) * total / chunks;
            let mut r = r0 + 1;
            while r < rows && row_ptr[r] < target {
                r += 1;
            }
            r
        };
        if r1 > rows {
            r1 = rows;
        }
        bounds.push((r0, r1));
        r0 = r1;
    }
    if let Some(last) = bounds.last_mut() {
        last.1 = rows;
    }
    bounds
}

/// Rows `rows` of the product on the pool; `out` holds exactly those rows.
fn spmm_par(a: &Csr, rows: Range<usize>, b: &Matrix, out: &mut [f32]) {
    let n = b.cols();
    // Ask the pool (global or installed) rather than the OS: under
    // PLEXUS_THREADS=1 or a 1-thread `ThreadPool::install` this must take
    // the exact sequential path.
    let threads = rayon::current_num_threads();
    if threads <= 1 {
        spmm_rows(a, b, out, rows);
        return;
    }
    // A few chunks per worker so the round-robin deal smooths residual
    // imbalance beyond what the prefix-sum cut already removed.
    let bounds = nnz_balanced_bounds(&a.row_ptr()[rows.start..=rows.end], threads * 4);
    let mut tasks = Vec::with_capacity(bounds.len());
    let mut rest = out;
    for &(r0, r1) in &bounds {
        let (head, tail) = rest.split_at_mut((r1 - r0) * n);
        tasks.push((rows.start + r0..rows.start + r1, head));
        rest = tail;
    }
    tasks.into_par_iter().for_each(|(rows, out)| spmm_rows(a, b, out, rows));
}

/// Process rows `rows`; `c_rows` is the output slice for exactly that
/// row range.
fn spmm_rows(a: &Csr, b: &Matrix, c_rows: &mut [f32], rows: Range<usize>) {
    let n = b.cols();
    debug_assert_eq!(c_rows.len(), rows.len() * n);
    for (local, r) in rows.enumerate() {
        let (cols, vals) = a.row_entries(r);
        let crow = &mut c_rows[local * n..(local + 1) * n];
        spmm_row(cols, vals, b, crow);
    }
}

/// One output row: dispatches to the AVX2+FMA band kernel when the CPU
/// has it — through the shared once-per-process policy in
/// [`plexus_tensor::cpu`], the same detection the GEMM microkernel uses,
/// so every kernel in a run agrees on the path and all bitwise-identity
/// invariants hold — otherwise to the portable band kernel.
#[inline]
fn spmm_row(cols: &[u32], vals: &[f32], b: &Matrix, crow: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if plexus_tensor::cpu::fma_available() {
        // SAFETY: `fma_available()` verified avx2+fma support on this CPU.
        unsafe { x86::spmm_row_fma(cols, vals, b.as_slice(), b.cols(), crow) };
        return;
    }
    spmm_row_portable(cols, vals, b, crow);
}

/// One output row, band by band: each band-wide slice of the row is
/// accumulated in registers across the row's nonzeros, then stored once.
/// The per-element accumulation order is the ascending-nonzero order in
/// every band and in the remainder — identical to the naive kernel.
#[inline]
fn spmm_row_portable(cols: &[u32], vals: &[f32], b: &Matrix, crow: &mut [f32]) {
    let n = crow.len();
    let bdata = b.as_slice();
    let ldb = b.cols();
    let mut j = 0;
    while j + 2 * BAND_W <= n {
        band_pass::<{ 2 * BAND_W }>(cols, vals, bdata, ldb, crow, j);
        j += 2 * BAND_W;
    }
    if j + BAND_W <= n {
        band_pass::<BAND_W>(cols, vals, bdata, ldb, crow, j);
        j += BAND_W;
    }
    if j + BAND_N <= n {
        band_pass::<BAND_N>(cols, vals, bdata, ldb, crow, j);
        j += BAND_N;
    }
    if j < n {
        let rem = n - j;
        let mut acc = [0.0f32; BAND_N];
        for (&col, &v) in cols.iter().zip(vals) {
            let base = col as usize * ldb + j;
            let brow = &bdata[base..base + rem];
            for (x, &bv) in acc[..rem].iter_mut().zip(brow) {
                *x += v * bv;
            }
        }
        crow[j..].copy_from_slice(&acc[..rem]);
    }
}

/// One fixed-width band sweep: `crow[j..j+W] = A_row * B[:, j..j+W]`,
/// accumulators in registers, constant-bound inner loop so LLVM promotes
/// and vectorizes the whole block.
#[inline]
fn band_pass<const W: usize>(
    cols: &[u32],
    vals: &[f32],
    bdata: &[f32],
    ldb: usize,
    crow: &mut [f32],
    j: usize,
) {
    let mut acc = [0.0f32; W];
    for (&col, &v) in cols.iter().zip(vals) {
        let base = col as usize * ldb + j;
        let brow: &[f32; W] = bdata[base..base + W].try_into().expect("band width");
        for l in 0..W {
            acc[l] += v * brow[l];
        }
    }
    crow[j..j + W].copy_from_slice(&acc);
}

/// AVX2+FMA row kernel, kept to the minimum `unsafe` surface a vector
/// kernel needs (the same policy as the GEMM microkernel in
/// `plexus-tensor`): the `#[target_feature]` call boundary and the SIMD
/// load/store intrinsics. Every pointer is derived from a bounds-checked
/// slice immediately before use, so the safety argument is purely "the CPU
/// features were detected" — and detection lives in one shared place,
/// [`plexus_tensor::cpu`].
///
/// FMA fuses each multiply-add without intermediate rounding, so values
/// can differ from the portable kernel in the last ulp. Dispatch is
/// decided once per process from the CPU alone — never from shapes or
/// thread counts — so within any build the engine's bitwise invariants
/// (blocked == unblocked, parallel == sequential, overlapped == blocking,
/// sharded == in-memory) are untouched.
#[cfg(target_arch = "x86_64")]
mod x86 {
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

    /// One output row: 32-wide bands (four 8-lane FMA accumulators), an
    /// 8-wide band for the tail, then a scalar remainder. Per element the
    /// accumulation is the ascending-nonzero order, fused per step.
    ///
    /// # Safety
    ///
    /// Requires AVX2 and FMA; call only after [`available`] returned true.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn spmm_row_fma(
        cols: &[u32],
        vals: &[f32],
        bdata: &[f32],
        ldb: usize,
        crow: &mut [f32],
    ) {
        let n = crow.len();
        let mut j = 0;
        while j + 32 <= n {
            let z = _mm256_setzero_ps();
            let (mut a0, mut a1, mut a2, mut a3) = (z, z, z, z);
            for (&col, &v) in cols.iter().zip(vals) {
                let base = col as usize * ldb + j;
                let brow = &bdata[base..base + 32];
                let vv = _mm256_set1_ps(v);
                a0 = _mm256_fmadd_ps(vv, load(&brow[0..]), a0);
                a1 = _mm256_fmadd_ps(vv, load(&brow[8..]), a1);
                a2 = _mm256_fmadd_ps(vv, load(&brow[16..]), a2);
                a3 = _mm256_fmadd_ps(vv, load(&brow[24..]), a3);
            }
            let band = &mut crow[j..j + 32];
            store(&mut band[0..], a0);
            store(&mut band[8..], a1);
            store(&mut band[16..], a2);
            store(&mut band[24..], a3);
            j += 32;
        }
        if j + 16 <= n {
            let (mut a0, mut a1) = (_mm256_setzero_ps(), _mm256_setzero_ps());
            for (&col, &v) in cols.iter().zip(vals) {
                let base = col as usize * ldb + j;
                let brow = &bdata[base..base + 16];
                let vv = _mm256_set1_ps(v);
                a0 = _mm256_fmadd_ps(vv, load(&brow[0..]), a0);
                a1 = _mm256_fmadd_ps(vv, load(&brow[8..]), a1);
            }
            let band = &mut crow[j..j + 16];
            store(&mut band[0..], a0);
            store(&mut band[8..], a1);
            j += 16;
        }
        while j + 8 <= n {
            let mut a0 = _mm256_setzero_ps();
            for (&col, &v) in cols.iter().zip(vals) {
                let base = col as usize * ldb + j;
                a0 = _mm256_fmadd_ps(_mm256_set1_ps(v), load(&bdata[base..base + 8]), a0);
            }
            store(&mut crow[j..j + 8], a0);
            j += 8;
        }
        if j < n {
            let rem = n - j;
            let mut acc = [0.0f32; 8];
            for (&col, &v) in cols.iter().zip(vals) {
                let base = col as usize * ldb + j;
                let brow = &bdata[base..base + rem];
                for (x, &bv) in acc[..rem].iter_mut().zip(brow) {
                    // Fused like the vector lanes, for one consistent
                    // rounding rule across the whole row.
                    *x = v.mul_add(bv, *x);
                }
            }
            crow[j..].copy_from_slice(&acc[..rem]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;
    use crate::shard::split_range;
    use plexus_tensor::{assert_close, gemm, Trans};

    fn random_csr(rows: usize, cols: usize, nnz_per_row: usize, seed: u64) -> Csr {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for r in 0..rows {
            for _ in 0..nnz_per_row {
                let c = rng.random_range(0..cols as u32);
                coo.push(r as u32, c, rng.random_range(-1.0f32..1.0));
            }
        }
        coo.to_csr()
    }

    #[test]
    fn spmm_matches_dense_gemm() {
        let a = random_csr(23, 17, 4, 1);
        let b = Matrix::from_fn(17, 9, |i, j| ((i * 3 + j) as f32 * 0.1).cos());
        let sparse_result = spmm(&a, &b);
        let mut dense_result = Matrix::zeros(23, 9);
        gemm(&mut dense_result, &a.to_dense(), Trans::N, &b, Trans::N, 1.0, 0.0);
        assert_close(&sparse_result, &dense_result, 1e-5, "spmm vs gemm");
    }

    #[test]
    fn parallel_path_matches_sequential_bitwise() {
        // Big enough to exceed PAR_THRESHOLD; band + remainder columns.
        let a = random_csr(500, 400, 20, 2);
        for cols in [16usize, 19, 5, 64] {
            let b = Matrix::from_fn(400, cols, |i, j| ((i + j) as f32 * 0.01).sin());
            assert_eq!(
                spmm(&a, &b).as_slice(),
                spmm_seq(&a, &b).as_slice(),
                "par vs seq spmm must be bitwise identical at {} cols",
                cols
            );
        }
    }

    #[test]
    fn into_variant_overwrites_recycled_garbage() {
        // Every band starts from zero, so a NaN-filled recycled buffer must
        // come out bitwise equal to a fresh sequential product — at every
        // band width and remainder, on the sequential and parallel paths.
        let widths = [1usize, 7, 8, 9, 15, 16, 17, 24, 31, 32, 33, 48, 63, 64, 65, 100];
        let small = random_csr(40, 30, 6, 7);
        let large = random_csr(2048, 512, 40, 8);
        assert!(small.nnz() * 100 < PAR_THRESHOLD, "small must stay sequential at every width");
        assert!(large.nnz() >= PAR_THRESHOLD, "large must dispatch parallel at every width");
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for a in [&small, &large] {
            for n in widths {
                let b = Matrix::from_fn(a.cols(), n, |i, j| ((i * 2 + j) as f32 * 0.05).cos());
                let mut c = Matrix::full(a.rows(), n, f32::NAN);
                spmm_into(a, &b, &mut c);
                assert_eq!(bits(&c), bits(&spmm_seq(a, &b)), "{} rows, n = {}", a.rows(), n);
            }
        }
    }

    #[test]
    fn empty_rows_produce_zero_rows() {
        let a = Csr::empty(3, 3);
        let b = Matrix::full(3, 2, 1.0);
        let c = spmm(&a, &b);
        assert!(c.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn identity_is_noop() {
        let b = Matrix::from_fn(5, 4, |i, j| (i * 4 + j) as f32);
        let c = spmm(&Csr::eye(5), &b);
        assert_close(&c, &b, 0.0, "identity spmm");
    }

    #[test]
    fn nnz_balanced_bounds_cover_and_balance() {
        let a = random_csr(97, 50, 7, 11);
        // The whole matrix, then rows 20..80 through a `row_ptr` sub-slice
        // that does not start at zero (bounds relative to row 20).
        for (row_ptr, rows) in [(a.row_ptr(), 97), (&a.row_ptr()[20..=80], 60)] {
            for chunks in [1usize, 2, 3, 8, 97, 200] {
                let bounds = nnz_balanced_bounds(row_ptr, chunks);
                assert_eq!(bounds.first().unwrap().0, 0);
                assert_eq!(bounds.last().unwrap().1, rows);
                for w in bounds.windows(2) {
                    assert_eq!(w[0].1, w[1].0, "ranges must be contiguous");
                }
                assert!(bounds.len() <= chunks.min(rows));
            }
            // Balance: with 3 chunks no chunk carries much more than a
            // third of the range's nonzeros (one row of slack).
            let nnz = |r0: usize, r1: usize| row_ptr[r1] - row_ptr[r0];
            for (r0, r1) in nnz_balanced_bounds(row_ptr, 3) {
                assert!(nnz(r0, r1) <= nnz(0, rows) / 3 + 2 * 7, "rows {}..{}", r0, r1);
            }
        }
    }

    #[test]
    fn row_ranges_equal_whole_product_rows() {
        // Row-split SpMM treats rows independently, so each range's output
        // is bitwise the matching rows of the whole product — the property
        // blocked aggregation relies on — below and above PAR_THRESHOLD.
        let small = random_csr(32, 20, 3, 2);
        let large = random_csr(1024, 512, 40, 3);
        assert!(small.nnz() * 8 < PAR_THRESHOLD, "small must stay sequential");
        let bits = |s: &[f32]| s.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (a, n) in [(&small, 8usize), (&large, 19)] {
            let b = Matrix::from_fn(a.cols(), n, |i, j| ((i + 2 * j) as f32 * 0.1).sin());
            let reference = spmm_seq(a, &b);
            for ranges in [1, 2, 3, 5, 8, 32] {
                for i in 0..ranges {
                    let (r0, r1) = split_range(a.rows(), ranges, i);
                    let mut out = vec![f32::NAN; (r1 - r0) * n];
                    spmm_rows_into(a, r0..r1, &b, &mut out);
                    let want = &reference.as_slice()[r0 * n..r1 * n];
                    assert_eq!(bits(&out), bits(want), "{} ranges, rows {}..{}", ranges, r0, r1);
                }
            }
        }
        assert!(large.nnz() * 19 / 8 >= PAR_THRESHOLD, "up to 8 ranges must dispatch parallel");
    }

    #[test]
    #[should_panic(expected = "outside the 4 rows")]
    fn row_range_past_the_matrix_panics() {
        let a = random_csr(4, 4, 2, 4);
        let b = Matrix::zeros(4, 2);
        spmm_rows_into(&a, 2..5, &b, &mut [0.0; 6]);
    }

    #[test]
    #[should_panic(expected = "output length for rows 1..4")]
    fn row_range_wrong_output_length_panics() {
        let a = random_csr(4, 4, 2, 4);
        let b = Matrix::zeros(4, 2);
        spmm_rows_into(&a, 1..4, &b, &mut [0.0; 5]);
    }

    #[test]
    fn nnz_balanced_bounds_isolate_hub_rows() {
        // One hub row with 1000 nnz among 9 single-nnz rows: with 4 chunks
        // the hub must not share a chunk with many other rows.
        let mut coo = Coo::new(10, 10);
        for c in 0..10u32 {
            for _ in 0..100 {
                coo.push(4, c, 1.0);
            }
        }
        for r in 0..10u32 {
            coo.push(r, 0, 1.0);
        }
        let a = coo.to_csr();
        let bounds = nnz_balanced_bounds(a.row_ptr(), 4);
        let hub_chunk = bounds.iter().find(|&&(r0, r1)| r0 <= 4 && 4 < r1).unwrap();
        let hub_nnz = a.row_ptr()[hub_chunk.1] - a.row_ptr()[hub_chunk.0];
        assert!(hub_nnz >= a.nnz() / 4, "hub chunk should carry at least its share of nonzeros");
        assert!(
            hub_chunk.1 - hub_chunk.0 <= 6,
            "hub row must not drag most rows into one chunk: {:?}",
            bounds
        );
    }

    #[test]
    fn zero_nnz_matrix_splits_evenly() {
        let a = Csr::empty(10, 10);
        let bounds = nnz_balanced_bounds(a.row_ptr(), 3);
        assert_eq!(bounds.first().unwrap().0, 0);
        assert_eq!(bounds.last().unwrap().1, 10);
    }

    #[test]
    #[should_panic(expected = "inner dimensions differ")]
    fn dimension_mismatch_panics() {
        let a = Csr::empty(3, 4);
        let b = Matrix::zeros(5, 2);
        let _ = spmm(&a, &b);
    }
}
