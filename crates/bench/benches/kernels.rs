//! Criterion microbenchmarks for the computational substrates: SpMM,
//! GEMM transpose modes (the §5.3 effect at kernel granularity),
//! permutation application, and the thread-world collectives.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use plexus_comm::{run_world, Communicator, ReduceOp};
use plexus_graph::rmat_graph;
use plexus_sparse::permute::{apply_permutation, random_permutation};
use plexus_sparse::{spmm, spmm_into};
use plexus_tensor::{gemm, gemm_reference_tn, uniform_matrix, Matrix, Trans};

fn bench_spmm(c: &mut Criterion) {
    let g = rmat_graph(13, 8, 1);
    let a = g.normalized_adjacency();
    let mut group = c.benchmark_group("spmm");
    group.sample_size(20);
    for &cols in &[16usize, 64, 128] {
        let b = uniform_matrix(a.cols(), cols, -1.0, 1.0, 2);
        group.bench_with_input(BenchmarkId::new("rmat_8k", cols), &cols, |bench, _| {
            bench.iter(|| spmm(&a, &b));
        });
        // The engine path: output buffer owned by a workspace and reused
        // across calls — isolates the kernel from the allocator.
        let mut out = Matrix::zeros(a.rows(), cols);
        group.bench_with_input(BenchmarkId::new("rmat_8k_into", cols), &cols, |bench, _| {
            bench.iter(|| {
                spmm_into(&a, &b, &mut out);
                out.as_slice()[0]
            });
        });
    }
    group.finish();
}

fn bench_gemm_modes(c: &mut Criterion) {
    // The dW shape: (N_loc x D)^T * (N_loc x D') — the reference strided
    // TN kernel is the §5.3 slow path, and packed_tn is what the production
    // `gemm` does with a TN operand (panel packing absorbs the strided
    // reads, which is what the paper's explicit transpose + NN buys).
    let n_loc = 4096;
    let h = uniform_matrix(n_loc, 128, -1.0, 1.0, 3);
    let dq = uniform_matrix(n_loc, 64, -1.0, 1.0, 4);
    let mut group = c.benchmark_group("gemm_dw");
    group.sample_size(10);
    group.bench_function("tn_default", |b| {
        b.iter(|| {
            let mut dw = Matrix::zeros(128, 64);
            gemm_reference_tn(&mut dw, &h, &dq, 1.0, 0.0);
            dw
        });
    });
    group.bench_function("packed_tn", |b| {
        b.iter(|| {
            let mut dw = Matrix::zeros(128, 64);
            gemm(&mut dw, &h, Trans::T, &dq, Trans::N, 1.0, 0.0);
            dw
        });
    });
    group.finish();
}

fn bench_multicore(c: &mut Criterion) {
    // First multi-core arms: the same SpMM and packed-TN GEMM workloads
    // run inside explicitly sized pools. On a single-core host the t > 1
    // arms measure time-sliced threads, not parallel speedup — the BENCH
    // machine block records `logical_cores` so readers can tell which.
    let g = rmat_graph(13, 8, 1);
    let a = g.normalized_adjacency();
    let b = uniform_matrix(a.cols(), 128, -1.0, 1.0, 2);
    let n_loc = 4096;
    let h = uniform_matrix(n_loc, 128, -1.0, 1.0, 3);
    let dq = uniform_matrix(n_loc, 64, -1.0, 1.0, 4);
    let mut group = c.benchmark_group("multicore");
    group.sample_size(10);
    for &t in &[1usize, 2, 4] {
        let pool = rayon::ThreadPool::new(t);
        group.bench_with_input(BenchmarkId::new("spmm_rmat_8k_128", t), &t, |bench, _| {
            bench.iter(|| pool.install(|| spmm(&a, &b)));
        });
        group.bench_with_input(BenchmarkId::new("gemm_packed_tn", t), &t, |bench, _| {
            bench.iter(|| {
                pool.install(|| {
                    let mut dw = Matrix::zeros(128, 64);
                    gemm(&mut dw, &h, Trans::T, &dq, Trans::N, 1.0, 0.0);
                    dw
                })
            });
        });
    }
    group.finish();
}

fn bench_permutation(c: &mut Criterion) {
    let g = rmat_graph(13, 8, 5);
    let a = g.normalized_adjacency();
    let pr = random_permutation(a.rows(), 1);
    let pc = random_permutation(a.rows(), 2);
    let mut group = c.benchmark_group("permutation");
    group.sample_size(20);
    group.bench_function("double_permutation_8k", |b| {
        b.iter(|| apply_permutation(&a, &pr, &pc));
    });
    group.finish();
}

fn bench_collectives(c: &mut Criterion) {
    let mut group = c.benchmark_group("collectives");
    group.sample_size(10);
    for &ranks in &[2usize, 4, 8] {
        group.bench_with_input(BenchmarkId::new("all_reduce_1m", ranks), &ranks, |b, &r| {
            b.iter(|| {
                run_world(r, |comm| {
                    let mut buf = vec![comm.rank() as f32; 1 << 18];
                    comm.all_reduce(&mut buf, ReduceOp::Sum);
                    buf[0]
                })
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_spmm,
    bench_gemm_modes,
    bench_multicore,
    bench_permutation,
    bench_collectives
);
criterion_main!(benches);
