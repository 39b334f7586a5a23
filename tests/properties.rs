//! Property-based tests (proptest) over the core invariants:
//!
//! * the packed/tiled GEMM against the naive reference across arbitrary
//!   shapes, all four transpose modes and alpha/beta combinations, plus
//!   the workspace path and the row-tiling bitwise contract;
//! * SpMM against a dense reference on arbitrary sparse matrices, the
//!   `_into` variant over a recycled buffer, and nnz-balanced partitioning;
//! * permutation round-trips and nnz conservation;
//! * shard/unshard identity for arbitrary grids;
//! * the format digest depends on the byte string alone and changes with
//!   any byte flip, truncation or extension;
//! * collective semantics for arbitrary world sizes and payloads;
//! * 3D-parallel == serial training on random graphs and random grids.

use plexus::grid::GridConfig;
use plexus::loader::preprocess_to_store;
use plexus::setup::{build_permutations, PermutationMode};
use plexus::trainer::{train_distributed, DistTrainOptions};
use plexus_comm::{run_world, Communicator, ReduceOp};
use plexus_gnn::{SerialTrainer, TrainConfig};
use plexus_graph::format::{digest, Digest, HashingWriter};
use plexus_graph::{train_val_test_masks, DatasetKind, DatasetSpec, Graph, LoadedDataset};
use plexus_sparse::permute::{apply_permutation, inverse_permutation, random_permutation};
use plexus_sparse::shard::{shard_grid, unshard_grid};
use plexus_sparse::{nnz_balanced_bounds, spmm, spmm_into, Coo, Csr};
use plexus_tensor::gemm::gemm_packed_with_tile;
use plexus_tensor::tune::{self, FMA_TILE, SCALAR_TILE};
use plexus_tensor::{assert_close, gemm, gemm_seq, gemm_ws, KernelWorkspace, Matrix, Trans};
use proptest::prelude::*;

fn arb_csr(max_dim: usize) -> impl Strategy<Value = Csr> {
    (2..max_dim, 2..max_dim, 0usize..200, any::<u64>()).prop_map(|(r, c, nnz, seed)| {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(r, c);
        for _ in 0..nnz {
            coo.push(
                rng.random_range(0..r as u32),
                rng.random_range(0..c as u32),
                rng.random_range(-2.0f32..2.0),
            );
        }
        coo.to_csr()
    })
}

/// A deterministic dense test matrix from a seed.
fn seeded_matrix(rows: usize, cols: usize, seed: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        (((i * 31 + j * 7) as f32) * 0.013 + (seed % 977) as f32 * 0.1).sin()
    })
}

/// Naive triple-loop `alpha * op(A)*op(B) + beta * C` reference.
fn naive_gemm(a: &Matrix, ta: Trans, b: &Matrix, tb: Trans, alpha: f32, beta: f32, c: &mut Matrix) {
    let (m, k) = ta.shape_of(a);
    let (_, n) = tb.shape_of(b);
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f64;
            for kk in 0..k {
                let av = match ta {
                    Trans::N => a[(i, kk)],
                    Trans::T => a[(kk, i)],
                };
                let bv = match tb {
                    Trans::N => b[(kk, j)],
                    Trans::T => b[(j, kk)],
                };
                acc += (av as f64) * (bv as f64);
            }
            c[(i, j)] = alpha * acc as f32 + beta * c[(i, j)];
        }
    }
}

proptest! {
    // Kernel-level properties of the packed/tiled GEMM subsystem.
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn packed_gemm_matches_naive_all_modes(
        m in 1usize..40,
        k in 1usize..600,   // spans multiple K-panels for every shape class
        n in 1usize..40,
        mode in 0usize..4,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        let (ta, tb) = [(Trans::N, Trans::N), (Trans::N, Trans::T),
                        (Trans::T, Trans::N), (Trans::T, Trans::T)][mode];
        let a = match ta {
            Trans::N => seeded_matrix(m, k, seed),
            Trans::T => seeded_matrix(k, m, seed),
        };
        let b = match tb {
            Trans::N => seeded_matrix(k, n, seed ^ 1),
            Trans::T => seeded_matrix(n, k, seed ^ 1),
        };
        let seed_c = seeded_matrix(m, n, seed ^ 2);
        let mut expect = seed_c.clone();
        naive_gemm(&a, ta, &b, tb, alpha, beta, &mut expect);
        // The public entry point (the packed kernel, whatever the shape).
        let mut got = seed_c.clone();
        gemm(&mut got, &a, ta, &b, tb, alpha, beta);
        assert_close(&got, &expect, 2e-4, "gemm vs f64 naive");
        // The plain sequential kernel agrees too (par-vs-seq equivalence:
        // the packed kernel may parallelize, gemm_seq never does).
        let mut seq = seed_c.clone();
        gemm_seq(&mut seq, &a, ta, &b, tb, alpha, beta);
        assert_close(&got, &seq, 2e-4, "dispatched vs sequential");
        // The workspace path is bitwise identical to the thread-local
        // path, and stays so when the workspace is reused.
        let mut ws = KernelWorkspace::new();
        for _ in 0..2 {
            let mut ws_c = seed_c.clone();
            gemm_ws(&mut ws, &mut ws_c, &a, ta, &b, tb, alpha, beta);
            prop_assert_eq!(ws_c.as_slice(), got.as_slice());
        }
    }

    #[test]
    fn gemm_row_tiles_compose_bitwise(
        m in 2usize..48,
        k in 1usize..600,
        n in 1usize..32,
        split in 1usize..47,
        seed in any::<u64>(),
    ) {
        // The tiled-combination contract (§5.2): row tiles of op(A)=N must
        // reproduce the corresponding rows of the full product bit for
        // bit, whatever the tile boundary or K-panel structure.
        prop_assume!(split < m);
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed ^ 1);
        let mut full = Matrix::zeros(m, n);
        gemm(&mut full, &a, Trans::N, &b, Trans::N, 1.0, 0.0);
        for (r0, r1) in [(0, split), (split, m)] {
            let mut tile = Matrix::zeros(r1 - r0, n);
            gemm(&mut tile, &a.row_block(r0, r1), Trans::N, &b, Trans::N, 1.0, 0.0);
            prop_assert_eq!(tile.as_slice(), &full.as_slice()[r0 * n..r1 * n]);
        }
    }

    #[test]
    fn fma_and_scalar_tiles_agree_all_modes(
        m in 1usize..32,
        k in 1usize..1200,  // crosses the kc boundary of every shape class
        n in 1usize..32,
        mode in 0usize..4,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        // The microkernel contract behind the tile table: MR/NR are
        // bits-neutral (every tile the table can return produces identical
        // bits on a given arithmetic path), and the FMA path agrees with
        // the scalar path within rounding across all four transpose modes,
        // alpha/beta and multi-panel k. On machines without AVX2+FMA the
        // "fma" run falls back to scalar and the tolerance check is
        // trivially exact.
        let (ta, tb) = [(Trans::N, Trans::N), (Trans::N, Trans::T),
                        (Trans::T, Trans::N), (Trans::T, Trans::T)][mode];
        let a = match ta {
            Trans::N => seeded_matrix(m, k, seed),
            Trans::T => seeded_matrix(k, m, seed),
        };
        let b = match tb {
            Trans::N => seeded_matrix(k, n, seed ^ 1),
            Trans::T => seeded_matrix(n, k, seed ^ 1),
        };
        let seed_c = seeded_matrix(m, n, seed ^ 2);
        let kc = tune::tile_for(k, n).kc;
        let run = |mr: usize, nr: usize, force_scalar: bool| {
            let mut c = seed_c.clone();
            let mut bp = Vec::new();
            gemm_packed_with_tile(
                &mut bp, &mut c, &a, ta, &b, tb, alpha, beta,
                plexus_tensor::Tile { mr, nr, kc }, force_scalar,
            );
            c
        };
        let scalar = run(FMA_TILE.0, FMA_TILE.1, true);
        let fma = run(FMA_TILE.0, FMA_TILE.1, false);
        assert_close(&fma, &scalar, 2e-4, "fma vs scalar microkernel");
        let other_scalar = run(SCALAR_TILE.0, SCALAR_TILE.1, true);
        let other_fma = run(SCALAR_TILE.0, SCALAR_TILE.1, false);
        prop_assert_eq!(other_scalar.as_slice(), scalar.as_slice());
        prop_assert_eq!(other_fma.as_slice(), fma.as_slice());
    }

    #[test]
    fn spmm_into_variants_match_reference(
        a in arb_csr(40),
        cols in 1usize..40,
        seed in any::<u64>(),
    ) {
        let b = seeded_matrix(a.cols(), cols, seed);
        let reference = spmm(&a, &b);
        // Overwrite variant clears recycled garbage.
        let mut c = Matrix::full(a.rows(), cols, f32::NAN);
        spmm_into(&a, &b, &mut c);
        prop_assert_eq!(c.as_slice(), reference.as_slice());
    }

    #[test]
    fn nnz_partitioning_covers_and_respects_rows(
        a in arb_csr(60),
        chunks in 1usize..12,
    ) {
        let bounds = nnz_balanced_bounds(a.row_ptr(), chunks);
        prop_assert!(!bounds.is_empty());
        prop_assert_eq!(bounds.first().unwrap().0, 0);
        prop_assert_eq!(bounds.last().unwrap().1, a.rows());
        for w in bounds.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0);
        }
        for &(r0, r1) in &bounds {
            prop_assert!(r0 < r1, "empty chunk in {:?}", bounds);
        }
        prop_assert!(bounds.len() <= chunks.min(a.rows()));
    }
}

proptest! {
    // Determinism across thread counts: pools are expensive per case, so
    // fewer cases with shapes big enough to engage the parallel paths.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    #[test]
    fn parallel_kernels_bitwise_equal_to_single_thread(
        threads in 2usize..9,
        alpha in -2.0f32..2.0,
        beta in -2.0f32..2.0,
        seed in any::<u64>(),
    ) {
        // The workspace-wide determinism contract: the f32 op order for any
        // output element is a function of shape only, never of how rows are
        // partitioned across workers. So any pool size must reproduce the
        // single-thread result bit for bit.
        let (m, k, n) = (48, 700, 24);
        let a = seeded_matrix(m, k, seed);
        let b = seeded_matrix(k, n, seed ^ 1);
        let seed_c = seeded_matrix(m, n, seed ^ 2);
        let tile = tune::tile_for(k, n);
        let run_gemm = |t: usize| {
            rayon::ThreadPool::new(t).install(|| {
                let mut c = seed_c.clone();
                let mut bp = Vec::new();
                gemm_packed_with_tile(
                    &mut bp, &mut c, &a, Trans::N, &b, Trans::N, alpha, beta, tile, false,
                );
                c
            })
        };
        let gemm_one = run_gemm(1);
        let gemm_many = run_gemm(threads);
        prop_assert_eq!(gemm_many.as_slice(), gemm_one.as_slice());

        // SpMM over a graph dense enough to clear the row-parallel
        // threshold (nnz * cols well above the dispatch cutoff).
        let csr = {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed ^ 4);
            let (rows, cols) = (200, 200);
            let mut coo = Coo::new(rows, cols);
            for _ in 0..4000 {
                coo.push(
                    rng.random_range(0..rows as u32),
                    rng.random_range(0..cols as u32),
                    rng.random_range(-2.0f32..2.0),
                );
            }
            coo.to_csr()
        };
        let h = seeded_matrix(csr.cols(), 64, seed ^ 5);
        let run_spmm = |t: usize| rayon::ThreadPool::new(t).install(|| spmm(&csr, &h));
        let spmm_one = run_spmm(1);
        let spmm_many = run_spmm(threads);
        prop_assert_eq!(spmm_many.as_slice(), spmm_one.as_slice());
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn spmm_equals_dense_gemm(a in arb_csr(40), cols in 1usize..12) {
        let b = Matrix::from_fn(a.cols(), cols, |i, j| ((i * 7 + j * 3) as f32 * 0.13).sin());
        let sparse = spmm(&a, &b);
        let mut dense = Matrix::zeros(a.rows(), cols);
        gemm(&mut dense, &a.to_dense(), Trans::N, &b, Trans::N, 1.0, 0.0);
        assert_close(&sparse, &dense, 1e-4, "spmm vs dense");
    }

    #[test]
    fn transpose_is_involution(a in arb_csr(40)) {
        prop_assert_eq!(a.transposed().transposed(), a);
    }

    #[test]
    fn permutation_round_trips(a in arb_csr(30), s1 in any::<u64>(), s2 in any::<u64>()) {
        prop_assume!(a.rows() == a.cols());
        let pr = random_permutation(a.rows(), s1);
        let pc = random_permutation(a.cols(), s2);
        let b = apply_permutation(&a, &pr, &pc);
        prop_assert_eq!(b.nnz(), a.nnz());
        let back = apply_permutation(&b, &inverse_permutation(&pr), &inverse_permutation(&pc));
        prop_assert_eq!(back, a);
    }

    #[test]
    fn shard_unshard_identity(a in arb_csr(36), p in 1usize..5, q in 1usize..5) {
        prop_assume!(p <= a.rows() && q <= a.cols());
        let shards = shard_grid(&a, p, q);
        prop_assert_eq!(unshard_grid(&shards, p, q), a);
    }

    #[test]
    fn all_reduce_is_sum_of_contributions(
        ranks in 1usize..5,
        len in 1usize..64,
        seed in any::<u64>()
    ) {
        let results = run_world(ranks, move |comm| {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(comm.rank() as u64));
            let mut buf: Vec<f64> = (0..len).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mine = buf.clone();
            comm.all_reduce(&mut buf, ReduceOp::Sum);
            (mine, buf)
        });
        // Reference sum of all contributions.
        let mut expect = vec![0.0f64; len];
        for (mine, _) in &results {
            for (e, &x) in expect.iter_mut().zip(mine) {
                *e += x;
            }
        }
        for (rank, (_, reduced)) in results.iter().enumerate() {
            for (i, (&got, &want)) in reduced.iter().zip(&expect).enumerate() {
                prop_assert!((got - want).abs() < 1e-9,
                    "rank {} elem {}: {} vs {}", rank, i, got, want);
            }
        }
    }

    #[test]
    fn full_row_set_sparse_gather_equals_dense_gather(
        ranks in 1usize..5,
        local_rows in 1usize..9,
        width in 1usize..7,
        seed in any::<u64>(),
    ) {
        // The sparse collective's degenerate case: requesting every global
        // row in ascending order must reproduce the dense all_gather bit
        // for bit, for arbitrary world sizes, block heights and row widths.
        let results = run_world(ranks, move |comm| {
            use rand::{rngs::StdRng, RngExt, SeedableRng};
            let mut rng = StdRng::seed_from_u64(seed.wrapping_add(comm.rank() as u64 * 7919));
            let src: Vec<f32> =
                (0..local_rows * width).map(|_| rng.random_range(-3.0f32..3.0)).collect();
            let all_rows: Vec<u32> = (0..(local_rows * comm.size()) as u32).collect();
            let sparse = comm.all_gather_rows(&src, &all_rows, width);
            let dense = comm.all_gather(&src);
            (sparse, dense)
        });
        for (rank, (sparse, dense)) in results.iter().enumerate() {
            prop_assert!(sparse == dense, "rank {} sparse != dense", rank);
        }
    }

    #[test]
    fn reduce_scatter_concat_equals_all_reduce(ranks in 1usize..5, chunk in 1usize..16) {
        let results = run_world(ranks, move |comm| {
            let len = chunk * comm.size();
            let buf: Vec<f64> = (0..len).map(|i| (i + comm.rank()) as f64).collect();
            let mut reduced = buf.clone();
            comm.all_reduce(&mut reduced, ReduceOp::Sum);
            let scattered = comm.reduce_scatter(&buf, ReduceOp::Sum);
            (reduced, scattered)
        });
        for (rank, (reduced, scattered)) in results.iter().enumerate() {
            let lo = rank * chunk;
            prop_assert_eq!(&reduced[lo..lo + chunk], &scattered[..]);
        }
    }
}

proptest! {
    // Activation spill round-trips: arbitrary layer caches written to
    // checksummed spill files and reloaded must come back bit for bit,
    // through arbitrary insertion orders and budgets.
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn spilled_layer_caches_round_trip_bitwise(
        num_layers in 1usize..5,
        seed in any::<u64>(),
        budget_div in 1u64..20,
    ) {
        use plexus::activation::{ActivationStore, Fetched, ResidencyPolicy};
        use plexus::layer::DistLayerCache;
        let gen = |r: usize, c: usize, s: u64| {
            Matrix::from_fn(r, c, |i, j| {
                (((i * 31 + j * 7) as f32) * 0.013 + (s % 4093) as f32 * 0.21).sin()
            })
        };
        // Seed-derived arbitrary shapes per layer (1..=24 rows/cols, 1..=12 k).
        let shape = |l: usize| {
            let s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(l as u64);
            (1 + (s % 24) as usize, 1 + ((s >> 8) % 24) as usize, 1 + ((s >> 16) % 12) as usize)
        };
        let caches: Vec<DistLayerCache> = (0..num_layers)
            .map(|l| {
                let (rows, cols, k) = shape(l);
                DistLayerCache {
                    h: gen(rows, k, seed ^ l as u64),
                    q: gen(rows, cols, seed ^ (l as u64) << 8),
                    w_full: gen(k, cols, seed ^ (l as u64) << 16),
                    activated: (seed >> l) & 1 == 1,
                }
            })
            .collect();
        let total: u64 =
            caches.iter().map(|c| c.h.mem_bytes() + c.q.mem_bytes() + c.w_full.mem_bytes()).sum();
        // Budgets from "spill everything" up to "spill nothing".
        let budget = total / budget_div;
        let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: budget });
        let mut ws = KernelWorkspace::new();
        let keeps: Vec<(Matrix, Matrix, Matrix, bool)> = caches
            .iter()
            .map(|c| (c.h.clone(), c.q.clone(), c.w_full.clone(), c.activated))
            .collect();
        for (l, c) in caches.into_iter().enumerate() {
            store.insert(l, c, Matrix::zeros(1, 1), &mut ws).unwrap();
        }
        prop_assert!(store.stats().resident_bytes <= budget);
        for l in (0..keeps.len()).rev() {
            match store.fetch(l).unwrap() {
                Fetched::Cache(c) => {
                    prop_assert_eq!(&c.h, &keeps[l].0);
                    prop_assert_eq!(&c.q, &keeps[l].1);
                    prop_assert_eq!(&c.w_full, &keeps[l].2);
                    prop_assert_eq!(c.activated, keeps[l].3);
                }
                Fetched::Rebuild { .. } => prop_assert!(false, "spill policy ordered a rebuild"),
            }
        }
        let s = store.stats();
        prop_assert_eq!(s.spilled_bytes, s.reloaded_bytes);
        prop_assert_eq!(s.spill_events, s.reload_events);
    }
}

proptest! {
    // The digest behind every on-disk format: a function of the bytes
    // alone, and of every one of them.
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    #[test]
    fn digest_depends_only_on_the_byte_string(len in 0usize..700, seed in any::<u64>()) {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let bytes: Vec<u8> = (0..len).map(|_| rng.random_range(0..256u32) as u8).collect();
        let whole = digest(&bytes);

        // Any split across `put` calls — 1-, 3- and 31-byte pieces keep
        // straddling the 8-byte lanes and the 32-byte blocks.
        let mut d = Digest::new();
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let piece = [1, 3, 31, rng.random_range(1..80usize)][rng.random_range(0..4usize)];
            let (now, later) = rest.split_at(piece.min(rest.len()));
            d.put(now);
            rest = later;
        }
        prop_assert_eq!(d.finish(), whole);

        // Any split across the writer's raw and bulk-f32 paths.
        let mut w = HashingWriter::new(std::io::sink());
        let mut rest = &bytes[..];
        while !rest.is_empty() {
            let words = rng.random_range(0..20usize).min(rest.len() / 4);
            if words > 0 && rng.random_range(0..2u32) == 0 {
                let (now, later) = rest.split_at(4 * words);
                let vals: Vec<f32> = now
                    .chunks_exact(4)
                    .map(|b| f32::from_le_bytes(b.try_into().unwrap()))
                    .collect();
                w.put_f32s(&vals).unwrap();
                rest = later;
            } else {
                let piece = [1, 3, 31][rng.random_range(0..3usize)].min(rest.len());
                w.put(&rest[..piece]).unwrap();
                rest = &rest[piece..];
            }
        }
        prop_assert_eq!(w.finish().unwrap(), (whole, len as u64));

        // Any one-byte extension, any truncation, any single-byte flip.
        let mut longer = bytes.clone();
        longer.push(rng.random_range(0..256u32) as u8);
        prop_assert!(digest(&longer) != whole, "extension of len {} undetected", len);
        if len > 0 {
            let cut = rng.random_range(0..len);
            prop_assert!(digest(&bytes[..cut]) != whole, "truncation {} -> {} undetected", len, cut);
            let mut flipped = bytes.clone();
            let at = rng.random_range(0..len);
            flipped[at] ^= rng.random_range(1..256u32) as u8;
            prop_assert!(digest(&flipped) != whole, "flip at {} of {} undetected", at, len);
        }
    }
}

proptest! {
    // Disk round-trips are cheap but not free; a couple dozen cases cover
    // the mode x grid x window space well.
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn preprocess_store_window_round_trips(
        a in arb_csr(32),
        feat_dim in 1usize..6,
        p in 1usize..5,
        q in 1usize..5,
        mode_idx in 0usize..3,
        perm_seed in any::<u64>(),
        win in (0usize..97, 0usize..97, 0usize..97, 0usize..97),
    ) {
        prop_assume!(a.rows() == a.cols() && a.rows() >= 4);
        let n = a.rows();
        // The store writer takes a symmetric Â: the normalized adjacency of
        // `a`'s pattern read as undirected edges.
        let edges: Vec<(u32, u32)> =
            (0..n).flat_map(|r| a.row_entries(r).0.iter().map(move |&c| (r as u32, c))).collect();
        let a = Graph::from_undirected(n, &edges).normalized_adjacency();
        let mode = [PermutationMode::None, PermutationMode::Single, PermutationMode::Double]
            [mode_idx];
        // Wrap the arbitrary CSR in a dataset shell; the graph itself is
        // irrelevant to the store (only adjacency/features/labels persist).
        let ds = LoadedDataset {
            spec: DatasetSpec {
                kind: DatasetKind::OgbnProducts,
                name: "prop-store",
                nodes: n,
                edges: a.nnz(),
                nonzeros: a.nnz(),
                features: feat_dim,
                classes: 4,
            },
            graph: Graph::new(n, vec![]),
            adjacency: a.clone(),
            features: Matrix::from_fn(n, feat_dim, |i, j| ((i * 31 + j * 7) as f32 * 0.37).sin()),
            labels: (0..n as u32).map(|i| i % 4).collect(),
            split: train_val_test_masks(n, 0.6, 0.2, perm_seed ^ 0x55),
            num_classes: 4,
        };
        let dir = std::env::temp_dir()
            .join(format!("plexus_prop_store_{}_{}", std::process::id(), perm_seed & 0xffff));
        let _ = std::fs::remove_dir_all(&dir);
        let store = preprocess_to_store(&ds, &dir, mode, perm_seed, p, q).unwrap();

        let (pr, pc) = build_permutations(mode, perm_seed, n);
        let expected = apply_permutation(&a, &pr, &pc);
        // Full round trip plus an arbitrary window.
        let (full, _) = store.load_adjacency_window(0, n, 0, n).unwrap();
        prop_assert_eq!(&full, &expected);
        let (mut r0, mut r1, mut c0, mut c1) =
            (win.0 % (n + 1), win.1 % (n + 1), win.2 % (n + 1), win.3 % (n + 1));
        if r0 > r1 { std::mem::swap(&mut r0, &mut r1); }
        if c0 > c1 { std::mem::swap(&mut c0, &mut c1); }
        let (window, stats) = store.load_adjacency_window(r0, r1, c0, c1).unwrap();
        prop_assert_eq!(&window, &expected.block(r0, r1, c0, c1));
        // Every adjacency file is either read or skipped, never both.
        prop_assert_eq!(stats.files_read + stats.files_skipped, p * q);
        // Features round-trip in P_c order.
        let inv_pc = inverse_permutation(&pc);
        let rows: Vec<usize> = inv_pc.iter().map(|&x| x as usize).collect();
        let (feats, _) = store.load_feature_rows(0, n).unwrap();
        prop_assert_eq!(&feats, &ds.features.gather_rows(&rows));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

proptest! {
    // Training runs are slow; keep the case count small but meaningful.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn distributed_training_matches_serial_on_random_problems(
        seed in 0u64..1000,
        grid_idx in 0usize..5,
        hidden in 4usize..12,
    ) {
        let grids = [
            GridConfig::new(2, 2, 2),
            GridConfig::new(4, 1, 2),
            GridConfig::new(1, 4, 2),
            GridConfig::new(2, 4, 1),
            GridConfig::new(1, 1, 8),
        ];
        let grid = grids[grid_idx];
        let spec = DatasetSpec {
            kind: DatasetKind::OgbnProducts,
            name: "prop",
            nodes: 96,
            edges: 700,
            nonzeros: 1500,
            features: 8,
            classes: 4,
        };
        let ds = LoadedDataset::generate(spec, 96, Some(8), seed);
        let cfg = TrainConfig { hidden_dim: hidden, num_layers: 3, seed, ..Default::default() };
        let serial: Vec<f64> =
            SerialTrainer::new(&ds, &cfg).train(3).iter().map(|s| s.loss).collect();
        let opts = DistTrainOptions {
            hidden_dim: hidden,
            model_seed: seed,
            permutation: PermutationMode::Double,
            perm_seed: seed ^ 0xabcd,
            ..Default::default()
        };
        let dist = train_distributed(&ds, grid, &opts, 3);
        for (e, (a, b)) in serial.iter().zip(dist.losses()).enumerate() {
            let rel = ((a - b) / a.abs().max(1e-9)).abs();
            prop_assert!(rel < 1e-2,
                "seed {} grid {} epoch {}: serial {} vs dist {}", seed, grid.label(), e, a, b);
        }
    }
}
