//! Kernels and collectives called directly, one at a time, on the shapes a
//! workload gives them — and two probes of what this box can do at all, so
//! that achieved GB/s and GFLOP/s sit next to a ceiling measured in the
//! same process.

use crate::stats::median;
use plexus::setup::RankData;
use plexus_comm::{run_world, Communicator, ReduceOp};
use plexus_sparse::spmm_into;
use plexus_tensor::{
    gemm_nn_cached_b, gemm_nt_cached_b, gemm_ws, uniform_matrix, KernelWorkspace, Matrix, Trans,
};
use std::hint::black_box;
use std::time::Instant;

const REPS: usize = 5;

/// Median milliseconds of `REPS` calls of `f`, after one untimed call.
fn time_ms(mut f: impl FnMut()) -> f64 {
    f();
    let ms: Vec<f64> = (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&ms)
}

/// `tensor.*` and `sparse.spmm*`: every product of one epoch on rank 0 —
/// per layer two SpMMs (A·X, Aᵀ·dH) and three GEMMs (combine, dH, dW) on
/// that layer's shard shapes, issued the way the trainer issues them
/// (weights packed once per epoch, dW through a transposed copy of H) —
/// each timed alone and summed. Rates are total work over total time.
pub fn kernels(rd: &RankData, m: &mut Vec<(&'static str, f64)>) {
    let (mut spmm_ms, mut nn_ms, mut tn_ms) = (0.0, 0.0, 0.0);
    let (mut spmm_bytes, mut nnz, mut flops) = (0usize, 0usize, 0usize);
    let mut ws = KernelWorkspace::new();
    let mut version = 0u64;
    for l in 0..rd.a_shards.len() {
        let (a, at) = (&rd.a_shards[l], &rd.a_shards_t[l]);
        let k = if l == 0 { rd.f_stored.cols() } else { rd.w_stored[l - 1].cols() };
        let n = rd.w_stored[l].cols();
        let rows = a.rows();
        let x = uniform_matrix(a.cols(), k, -0.5, 0.5, 1);
        let w = uniform_matrix(k, n, -0.5, 0.5, 2);
        let dq = uniform_matrix(rows, n, -0.5, 0.5, 3);
        let (mut h, mut q) = (Matrix::zeros(rows, k), Matrix::zeros(rows, n));
        let (mut dh, mut df) = (Matrix::zeros(rows, k), Matrix::zeros(a.cols(), k));
        let (mut ht, mut dw) = (Matrix::zeros(k, rows), Matrix::zeros(k, n));

        spmm_ms += time_ms(|| spmm_into(a, &x, &mut h));
        spmm_ms += time_ms(|| spmm_into(at, &h, &mut df));
        // Bytes a product has to touch if nothing stays in cache: values
        // and column ids, one operand row per entry, row pointers, and
        // the result once. Computed, not measured.
        spmm_bytes +=
            2 * a.nnz() * (8 + 4 * k) + 8 * (rows + a.cols() + 2) + 4 * k * (rows + a.cols());
        nnz += a.nnz() + at.nnz();

        nn_ms += time_ms(|| {
            version += 1;
            gemm_nn_cached_b(&mut ws, &mut q, &h, &w, version, 1.0, 0.0);
        });
        nn_ms += time_ms(|| {
            version += 1;
            gemm_nt_cached_b(&mut ws, &mut dh, &dq, &w, version, 1.0, 0.0);
        });
        tn_ms += time_ms(|| {
            h.transpose_into(&mut ht);
            gemm_ws(&mut ws, &mut dw, &ht, Trans::N, &dq, Trans::N, 1.0, 0.0);
        });
        black_box((&q, &dh, &dw, &df));
        flops += 6 * rows * k * n;
    }
    m.push(("sparse.spmm_ms", spmm_ms));
    m.push(("sparse.spmm_gbps", spmm_bytes as f64 / (spmm_ms * 1e6)));
    m.push(("sparse.spmm_nnz_per_op", nnz as f64));
    m.push(("tensor.gemm_nn_ms", nn_ms));
    m.push(("tensor.gemm_tn_ms", tn_ms));
    m.push(("tensor.gemm_gflops", flops as f64 / ((nn_ms + tn_ms) * 1e6)));
    m.push(("tensor.gemm_flops_per_op", flops as f64));
}

/// `comm.all_reduce_ms` / `comm.all_gather_ms`: a two-rank thread world
/// moving a buffer of `len` floats, the size of one aggregation result.
pub fn collectives(len: usize, m: &mut Vec<(&'static str, f64)>) {
    let len = len - len % 2;
    let out = run_world(2, |comm| {
        let mut buf = vec![1.0f32; len];
        let reduce = time_ms(|| {
            // Every rank resets its buffer, so the sums stay finite.
            buf.fill(1.0);
            comm.all_reduce(&mut buf, ReduceOp::Sum);
        });
        let gather = time_ms(|| {
            black_box(comm.all_gather(&buf[..len / 2]));
        });
        (reduce, gather)
    });
    m.push(("comm.all_reduce_ms", out[0].0));
    m.push(("comm.all_gather_ms", out[0].1));
}

/// `probe.stream_gbps` and `probe.fma_gflops`: one thread's memory
/// bandwidth on a triad over arrays far larger than cache, and its peak
/// fused multiply-add rate from registers.
pub fn ceilings(m: &mut Vec<(&'static str, f64)>) {
    const N: usize = 1 << 23;
    let (b, c) = (vec![1.0f32; N], vec![2.0f32; N]);
    let mut a = vec![0.0f32; N];
    let ms = time_ms(|| {
        for ((a, b), c) in a.iter_mut().zip(&b).zip(&c) {
            *a = *b + 0.5 * *c;
        }
        black_box(&mut a);
    });
    m.push(("probe.stream_gbps", (3 * 4 * N) as f64 / (ms * 1e6)));

    const ROUNDS: usize = 1 << 21;
    let ms = time_ms(|| {
        black_box(fma_rounds(ROUNDS));
    });
    m.push(("probe.fma_gflops", (ROUNDS * FMA_FLOPS_PER_ROUND) as f64 / (ms * 1e6)));
}

/// Ten independent 8-lane accumulators, enough to cover the latency of two
/// FMA ports; each round is one multiply-add on every lane.
const FMA_LANES: usize = 80;
const FMA_FLOPS_PER_ROUND: usize = 2 * FMA_LANES;

fn fma_rounds(rounds: usize) -> f32 {
    #[cfg(target_arch = "x86_64")]
    if plexus_tensor::fma_available() {
        // SAFETY: `fma_available` reports that this CPU has AVX2 and FMA,
        // the only requirement of the function.
        return unsafe { fma_rounds_avx2(rounds) };
    }
    let mut acc = [1.0f32; FMA_LANES];
    for _ in 0..rounds {
        for v in &mut acc {
            *v = *v * 0.999_999 + 1e-7;
        }
    }
    acc.iter().sum()
}

/// # Safety
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn fma_rounds_avx2(rounds: usize) -> f32 {
    use std::arch::x86_64::*;
    let (mul, add) = (_mm256_set1_ps(0.999_999), _mm256_set1_ps(1e-7));
    let mut acc = [_mm256_set1_ps(1.0); FMA_LANES / 8];
    for _ in 0..rounds {
        for v in &mut acc {
            *v = _mm256_fmadd_ps(*v, mul, add);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = 0.0;
    for v in acc {
        // SAFETY: `lanes` is eight writable floats; the store is unaligned.
        unsafe { _mm256_storeu_ps(lanes.as_mut_ptr(), v) };
        sum += lanes.iter().sum::<f32>();
    }
    sum
}
