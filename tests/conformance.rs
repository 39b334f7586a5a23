//! Backend-agnostic conformance suite for the [`Communicator`] trait.
//!
//! Every law in the `laws` module is written once against the trait and
//! executed against **both** shipped backends through a tiny harness:
//!
//! * `ThreadBackend` — [`plexus_comm::ThreadComm`] worlds via `run_world`
//!   (real data movement, one thread per rank);
//! * `SimBackend` — [`plexus_simnet::SimComm`] worlds (single-process,
//!   cost-only; each rank's program runs against its own mirror world).
//!
//! The shared laws are those every backend must satisfy: self-shard
//! placement in gathers, reduce-scatter ≡ own chunk of all-reduce,
//! ragged all-to-all shape handling, nonblocking == blocking results,
//! caller-buffer completion == the allocating forms (one-member groups
//! included), split_by group geometry, ledger byte accounting and bitwise
//! run-to-run determinism. Value-level *cross-rank* laws (a gather
//! containing every peer's distinct contribution) are by construction
//! thread-world-only — SimComm is shape/cost-faithful, not
//! value-faithful — and live in `thread_only`, next to the cost laws in
//! `sim_only` that only the simulated backend can state.

use plexus_comm::{run_world, CollOp, Communicator, ReduceOp, ThreadComm};
use plexus_simnet::{SimComm, SimCostModel};

/// Runs an SPMD program on every rank of a fresh world and returns the
/// per-rank results in rank order.
trait Backend {
    type Comm: Communicator;
    fn name(&self) -> &'static str;
    fn run<R, F>(&self, size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Self::Comm) -> R + Send + Sync;
}

struct ThreadBackend;

impl Backend for ThreadBackend {
    type Comm = ThreadComm;

    fn name(&self) -> &'static str {
        "ThreadComm"
    }

    fn run<R, F>(&self, size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Self::Comm) -> R + Send + Sync,
    {
        run_world(size, f)
    }
}

struct SimBackend;

impl Backend for SimBackend {
    type Comm = SimComm;

    fn name(&self) -> &'static str {
        "SimComm"
    }

    fn run<R, F>(&self, size: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(&Self::Comm) -> R + Send + Sync,
    {
        // Cost-only worlds are independent per observed rank; running the
        // program once per rank serially gives the same per-rank view the
        // thread backend produces concurrently.
        (0..size)
            .map(|rank| f(&SimComm::world_rank(size, rank, SimCostModel::new(25e9, 1e-6))))
            .collect()
    }
}

/// The shared collective laws, generic over the backend.
mod laws {
    use super::*;

    pub fn gather_places_own_shard_at_own_rank<B: Backend>(b: &B) {
        for size in [1usize, 2, 3, 5] {
            let results = b.run(size, |comm| {
                let src = [comm.rank() as u32 * 10 + 1, comm.rank() as u32 * 10 + 2];
                (comm.all_gather(&src), comm.rank())
            });
            for (gathered, rank) in results {
                assert_eq!(gathered.len(), 2 * size, "{}: gather length", b.name());
                assert_eq!(
                    &gathered[2 * rank..2 * rank + 2],
                    &[rank as u32 * 10 + 1, rank as u32 * 10 + 2],
                    "{}: own shard must sit at own rank index",
                    b.name()
                );
            }
        }
    }

    pub fn reduce_scatter_is_chunk_of_all_reduce<B: Backend>(b: &B) {
        for size in [1usize, 2, 4] {
            let results = b.run(size, move |comm| {
                let buf: Vec<f32> =
                    (0..4 * comm.size()).map(|i| (i * (comm.rank() + 1)) as f32 * 0.25).collect();
                let mut reduced = buf.clone();
                comm.all_reduce(&mut reduced, ReduceOp::Sum);
                let scattered = comm.reduce_scatter(&buf, ReduceOp::Sum);
                (reduced, scattered, comm.rank())
            });
            for (reduced, scattered, rank) in results {
                assert_eq!(
                    &reduced[rank * 4..rank * 4 + 4],
                    &scattered[..],
                    "{}: reduce_scatter == own chunk of all_reduce",
                    b.name()
                );
            }
        }
    }

    pub fn all_reduce_min_max_agree_with_sum_shape<B: Backend>(b: &B) {
        let results = b.run(3, |comm| {
            let mut lo = vec![comm.rank() as f64, -1.0];
            let mut hi = lo.clone();
            comm.all_reduce(&mut lo, ReduceOp::Min);
            comm.all_reduce(&mut hi, ReduceOp::Max);
            (lo, hi)
        });
        for (lo, hi) in results {
            assert_eq!(lo.len(), 2, "{}: min shape", b.name());
            assert_eq!(hi.len(), 2, "{}: max shape", b.name());
            assert!(lo[0] <= hi[0], "{}: min <= max", b.name());
        }
    }

    pub fn ragged_all_to_all_keeps_self_chunk_and_counts_bytes<B: Backend>(b: &B) {
        let results = b.run(3, |comm| {
            // Ragged: chunk for destination d has length d.
            let sends: Vec<Vec<f32>> =
                (0..comm.size()).map(|d| vec![comm.rank() as f32; d]).collect();
            let sent_bytes: usize = sends.iter().map(|s| s.len() * 4).sum();
            let recv = comm.all_to_all(sends);
            let ev = comm
                .ledger()
                .snapshot()
                .into_iter()
                .rfind(|e| e.op == CollOp::AllToAll)
                .expect("all_to_all must be ledgered");
            (recv, ev.bytes, sent_bytes, comm.rank())
        });
        for (recv, ledgered, sent, rank) in results {
            assert_eq!(recv.len(), 3, "{}: one chunk per source", b.name());
            assert_eq!(recv[rank], vec![rank as f32; rank], "{}: self chunk", b.name());
            assert_eq!(ledgered, sent, "{}: ledger counts outgoing bytes", b.name());
        }
    }

    pub fn nonblocking_equals_blocking<B: Backend>(b: &B) {
        let results = b.run(4, |comm| {
            let src: Vec<f32> = (0..32).map(|i| (i + comm.rank() * 7) as f32 * 0.3).collect();

            let p = comm.start_all_reduce(&src, ReduceOp::Sum);
            let nb_reduce = p.wait();
            let mut bl_reduce = src.clone();
            comm.all_reduce(&mut bl_reduce, ReduceOp::Sum);

            let p = comm.start_all_gather(&src[..4]);
            let nb_gather = p.wait();
            let bl_gather = comm.all_gather(&src[..4]);

            let p = comm.start_reduce_scatter(&src, ReduceOp::Sum);
            let nb_scatter = p.wait();
            let bl_scatter = comm.reduce_scatter(&src, ReduceOp::Sum);

            (nb_reduce == bl_reduce, nb_gather == bl_gather, nb_scatter == bl_scatter)
        });
        for (r, g, s) in results {
            assert!(r && g && s, "{}: start_*(..).wait() must equal blocking", b.name());
        }
    }

    pub fn nonblocking_overlaps_across_groups<B: Backend>(b: &B) {
        // The DistLayer pattern: a pending reduction on one group with a
        // blocking collective on a *different* group in between.
        let results = b.run(4, |comm| {
            let sub = comm.split_by(|r| ((r % 2) as u64, r as u64), "sub");
            let src = vec![1.5f32; 16];
            let pending = comm.start_all_reduce(&src, ReduceOp::Sum);
            let gathered = sub.all_gather(&[comm.rank() as u32]);
            let reduced = pending.wait();
            (reduced, gathered.len())
        });
        for (reduced, sub_len) in results {
            assert_eq!(reduced, vec![6.0f32; 16], "{}: 4 ranks x 1.5", b.name());
            assert_eq!(sub_len, 2, "{}: subgroup gather size", b.name());
        }
    }

    pub fn split_by_builds_grid_geometry<B: Backend>(b: &B) {
        // 2x3 grid: color = row, key = column — both backends must agree
        // on subgroup sizes, ranks and labels.
        let results = b.run(6, |comm| {
            let row = comm.split_by(|r| ((r / 3) as u64, (r % 3) as u64), "row");
            let col = comm.split_by(|r| ((r % 3) as u64, (r / 3) as u64), "col");
            (row.size(), row.rank(), col.size(), col.rank(), row.label())
        });
        for (rank, &(rs, rr, cs, cr, label)) in results.iter().enumerate() {
            assert_eq!(rs, 3, "{}: row group size", b.name());
            assert_eq!(rr, rank % 3, "{}: row rank", b.name());
            assert_eq!(cs, 2, "{}: col group size", b.name());
            assert_eq!(cr, rank / 3, "{}: col rank", b.name());
            assert_eq!(label, "row", "{}: label", b.name());
        }
    }

    pub fn rank_uniform_reductions_have_exact_values<B: Backend>(b: &B) {
        // With rank-independent inputs the mirror world and the real world
        // coincide, so exact values are a shared law.
        for size in [1usize, 3, 8] {
            let results = b.run(size, move |comm| {
                let mut buf = vec![2.0f32; 5];
                comm.all_reduce(&mut buf, ReduceOp::Sum);
                buf
            });
            for buf in results {
                assert_eq!(buf, vec![2.0 * size as f32; 5], "{}: uniform sum", b.name());
            }
        }
    }

    pub fn runs_are_bitwise_deterministic<B: Backend>(b: &B) {
        let program = |comm: &B::Comm| {
            // Non-associative f32 payload, rank-dependent.
            let mut buf: Vec<f32> = (0..777).map(|i| 0.1 * (i + comm.rank() * 13) as f32).collect();
            comm.all_reduce(&mut buf, ReduceOp::Sum);
            buf
        };
        let first = b.run(6, program);
        let second = b.run(6, program);
        for (rank, (a, b2)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a, b2, "{}: rank {} differs across runs", b.name(), rank);
        }
    }

    pub fn ledger_accounts_every_collective<B: Backend>(b: &B) {
        let results = b.run(2, |comm| {
            let mut v = vec![0.0f32; 256];
            comm.all_reduce(&mut v, ReduceOp::Sum);
            let _ = comm.all_gather(&v[..16]);
            comm.barrier();
            comm.ledger().snapshot()
        });
        for events in results {
            assert_eq!(events.len(), 3, "{}: three events", b.name());
            assert_eq!(events[0].op, CollOp::AllReduce, "{}", b.name());
            assert_eq!(events[0].bytes, 1024, "{}", b.name());
            assert_eq!(events[1].op, CollOp::AllGather, "{}", b.name());
            assert_eq!(events[1].bytes, 64, "{}", b.name());
            assert_eq!(events[2].op, CollOp::Barrier, "{}", b.name());
            assert_eq!(events[2].group_size, 2, "{}", b.name());
        }
    }

    pub fn full_row_set_sparse_gather_equals_dense<B: Backend>(b: &B) {
        // Requesting every global row in ascending order degenerates the
        // sparse collective to the dense one — bitwise, on both backends.
        for size in [1usize, 2, 4] {
            let results = b.run(size, move |comm| {
                let src: Vec<f32> =
                    (0..4 * 3).map(|i| (i + comm.rank() * 100) as f32 * 0.5).collect();
                let all_rows: Vec<u32> = (0..(4 * comm.size()) as u32).collect();
                let sparse = comm.all_gather_rows(&src, &all_rows, 3);
                let dense = comm.all_gather(&src);
                (sparse, dense)
            });
            for (sparse, dense) in results {
                assert_eq!(sparse, dense, "{}: full row set != dense gather", b.name());
            }
        }
    }

    pub fn sparse_gather_returns_requested_rows_in_order<B: Backend>(b: &B) {
        // Pull semantics: each rank's result is exactly its own row_ids,
        // in order — duplicated, unsorted and empty requests included.
        // Rank-uniform blocks make the expected values backend-agnostic.
        let results = b.run(4, |comm| {
            let src: Vec<f64> = (0..8).map(|i| i as f64 * 0.5).collect(); // 4 rows x 2
            let ids: Vec<u32> = match comm.rank() {
                0 => vec![],
                1 => vec![13, 2, 2, 7],
                _ => vec![0, 15],
            };
            (comm.all_gather_rows(&src, &ids, 2), ids)
        });
        for (rows, ids) in results {
            assert_eq!(rows.len(), ids.len() * 2, "{}: one row per id", b.name());
            for (i, &g) in ids.iter().enumerate() {
                let l = (g % 4) as usize;
                assert_eq!(
                    &rows[i * 2..i * 2 + 2],
                    &[l as f64, l as f64 + 0.5],
                    "{}: row {} landed wrong",
                    b.name(),
                    g
                );
            }
        }
    }

    pub fn sparse_gather_ledger_records_indexed_sizes<B: Backend>(b: &B) {
        // The indexed-size convention: contributed payload (rows this rank
        // serves) plus this rank's uploaded index list — the sparse
        // analogue of dense AllGather's src-bytes entry, so dense-vs-sparse
        // volume comparisons read straight off the ledger.
        let results = b.run(2, |comm| {
            let src = vec![1.0f32; 8]; // 4 rows x 2
            let ids: Vec<u32> = vec![0, 2, 5];
            let _ = comm.all_gather_rows(&src, &ids, 2);
            let ev = comm
                .ledger()
                .snapshot()
                .into_iter()
                .rfind(|e| e.op == CollOp::AllGatherRows)
                .expect("sparse gather must be ledgered");
            (ev.bytes, comm.rank())
        });
        for (bytes, rank) in results {
            // Rank 0 owns rows 0..4 and serves {0, 2}; rank 1 owns 4..8
            // and serves {5}. Indexed size = served * width * 4 + ids * 4.
            let served = if rank == 0 { 2 } else { 1 };
            assert_eq!(bytes, served * 2 * 4 + 3 * 4, "{}: rank {} bytes", b.name(), rank);
        }
    }

    pub fn nonblocking_sparse_equals_blocking<B: Backend>(b: &B) {
        let results = b.run(3, |comm| {
            let src: Vec<f32> = (0..8).map(|i| (i + comm.rank() * 3) as f32).collect();
            let ids: Vec<u32> = (0..(4 * comm.size()) as u32).step_by(2).collect();
            let nb_gather = comm.start_all_gather_rows(&src, &ids, 2).wait();
            let bl_gather = comm.all_gather_rows(&src, &ids, 2);
            nb_gather == bl_gather
        });
        for same in results {
            assert!(same, "{}: sparse start_*(..).wait() must equal blocking", b.name());
        }
    }

    pub fn caller_buffer_forms_equal_allocating_forms<B: Backend>(b: &B) {
        // `start_x(..).wait_into(out)` and `x_into(.., out)` overwrite every
        // element of a NaN-prefilled `out` with exactly what `x(..)` returns
        // — on a one-member group (the identity, which posts nothing) and a
        // three-member one — and a one-member call is still one ledger
        // event carrying the bytes a larger group would record.
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for size in [1usize, 3] {
            let results = b.run(size, move |comm| {
                let g = comm.size();
                let src: Vec<f32> =
                    (0..6 * g).map(|i| (i + comm.rank() * 5) as f32 * 0.3).collect();
                let ids: Vec<u32> = vec![(3 * g - 1) as u32, 0, 1, 0];
                let nan = |len: usize| vec![f32::NAN; len];
                let mut checks = Vec::new();

                let mut reduced = src.clone();
                comm.all_reduce(&mut reduced, ReduceOp::Sum);
                let mut out = nan(src.len());
                comm.start_all_reduce(&src, ReduceOp::Sum).wait_into(&mut out);
                checks.push(("start_all_reduce", bits(&out) == bits(&reduced)));

                let gathered = comm.all_gather(&src);
                let mut out = nan(gathered.len());
                comm.start_all_gather(&src).wait_into(&mut out);
                checks.push(("start_all_gather", bits(&out) == bits(&gathered)));
                let mut out = nan(gathered.len());
                comm.all_gather_into(&src, &mut out);
                checks.push(("all_gather_into", bits(&out) == bits(&gathered)));

                let scattered = comm.reduce_scatter(&src, ReduceOp::Sum);
                let mut out = nan(scattered.len());
                comm.start_reduce_scatter(&src, ReduceOp::Sum).wait_into(&mut out);
                checks.push(("start_reduce_scatter", bits(&out) == bits(&scattered)));
                let mut out = nan(scattered.len());
                comm.reduce_scatter_into(&src, ReduceOp::Sum, &mut out);
                checks.push(("reduce_scatter_into", bits(&out) == bits(&scattered)));

                let rows = comm.all_gather_rows(&src, &ids, 2);
                let mut out = nan(rows.len());
                comm.start_all_gather_rows(&src, &ids, 2).wait_into(&mut out);
                checks.push(("start_all_gather_rows", bits(&out) == bits(&rows)));

                (checks, comm.ledger().snapshot(), src.len())
            });
            for (checks, events, len) in results {
                for (form, same) in checks {
                    assert!(
                        same,
                        "{}: {} on {} rank(s) differs from the Vec form",
                        b.name(),
                        form,
                        size
                    );
                }
                if size > 1 {
                    continue;
                }
                // One event per call: all_reduce twice, then three calls
                // each of all_gather and reduce_scatter, then two
                // all_gather_rows. Rows 0..3 all live on the one member,
                // which serves the distinct ones: {2, 0, 1}.
                let expect: Vec<(CollOp, usize)> = [(CollOp::AllReduce, len * 4); 2]
                    .into_iter()
                    .chain([(CollOp::AllGather, len * 4); 3])
                    .chain([(CollOp::ReduceScatter, len * 4); 3])
                    .chain([(CollOp::AllGatherRows, 3 * 2 * 4 + 4 * 4); 2])
                    .collect();
                let got: Vec<(CollOp, usize)> = events.iter().map(|e| (e.op, e.bytes)).collect();
                assert_eq!(got, expect, "{}: one-member ledger", b.name());
                assert!(events.iter().all(|e| e.group_size == 1), "{}: group size", b.name());
            }
        }
    }

    pub fn all<B: Backend>(b: &B) {
        gather_places_own_shard_at_own_rank(b);
        reduce_scatter_is_chunk_of_all_reduce(b);
        all_reduce_min_max_agree_with_sum_shape(b);
        ragged_all_to_all_keeps_self_chunk_and_counts_bytes(b);
        nonblocking_equals_blocking(b);
        nonblocking_overlaps_across_groups(b);
        split_by_builds_grid_geometry(b);
        rank_uniform_reductions_have_exact_values(b);
        runs_are_bitwise_deterministic(b);
        ledger_accounts_every_collective(b);
        full_row_set_sparse_gather_equals_dense(b);
        sparse_gather_returns_requested_rows_in_order(b);
        sparse_gather_ledger_records_indexed_sizes(b);
        nonblocking_sparse_equals_blocking(b);
        caller_buffer_forms_equal_allocating_forms(b);
    }
}

#[test]
fn thread_backend_satisfies_all_shared_laws() {
    laws::all(&ThreadBackend);
}

#[test]
fn sim_backend_satisfies_all_shared_laws() {
    laws::all(&SimBackend);
}

mod thread_only {
    use super::*;

    /// The value-level cross-rank laws only a data-moving backend can
    /// state: gathers contain every peer's distinct contribution, ragged
    /// all-to-all transposes chunk matrices exactly.
    #[test]
    fn gathers_concatenate_every_peers_contribution() {
        let results = run_world(4, |comm| comm.all_gather(&[comm.rank() as u32 * 100]));
        for r in &results {
            assert_eq!(r, &vec![0, 100, 200, 300]);
        }
    }

    #[test]
    fn ragged_all_to_all_transposes_exactly() {
        let results = run_world(3, |comm| {
            let sends: Vec<Vec<u32>> =
                (0..3).map(|d| vec![(comm.rank() * 10 + d) as u32; d + 1]).collect();
            comm.all_to_all(sends)
        });
        for (rank, recv) in results.iter().enumerate() {
            for (src, chunk) in recv.iter().enumerate() {
                assert_eq!(chunk, &vec![(src * 10 + rank) as u32; rank + 1]);
            }
        }
    }

    #[test]
    fn sparse_gather_fetches_true_owner_rows() {
        // Cross-rank value law: requested rows carry the *owner's* data,
        // with per-rank request sets that all differ.
        let results = run_world(4, |comm| {
            // Owner r's row l = [r*100 + l*10, r*100 + l*10 + 1].
            let src: Vec<f32> = (0..2)
                .flat_map(|l| {
                    let base = (comm.rank() * 100 + l * 10) as f32;
                    [base, base + 1.0]
                })
                .collect();
            let ids: Vec<u32> = vec![comm.rank() as u32 * 2 + 1, 6, 0];
            (comm.all_gather_rows(&src, &ids, 2), ids)
        });
        for (rows, ids) in results {
            for (i, &g) in ids.iter().enumerate() {
                let base = ((g / 2) * 100 + (g % 2) * 10) as f32;
                assert_eq!(&rows[i * 2..i * 2 + 2], &[base, base + 1.0], "row {}", g);
            }
        }
    }

    #[test]
    fn all_reduce_is_bitwise_identical_across_ranks() {
        let results = run_world(8, |comm| {
            let mut buf = vec![0.1f32 * (comm.rank() as f32 + 1.0); 500];
            comm.all_reduce(&mut buf, ReduceOp::Sum);
            buf
        });
        for r in 1..8 {
            assert_eq!(results[0], results[r], "rank {} differs bitwise", r);
        }
    }
}

mod sim_only {
    use super::*;
    use plexus_simnet::{all_gather_time, all_reduce_time};

    /// The cost laws only the simulated backend can state: collectives
    /// charge exactly the §4 ring equations to the world clock.
    #[test]
    fn clock_charges_match_ring_equations() {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-12 * b.abs();
        let w = SimComm::world(64, SimCostModel::new(25e9, 1e-6));
        let mut buf = vec![0.0f32; 1 << 12];
        w.all_reduce(&mut buf, ReduceOp::Sum);
        let after_reduce = w.elapsed();
        assert!(close(after_reduce, all_reduce_time((1 << 14) as f64, 64, 25e9)));
        let _ = w.all_gather(&buf[..256]);
        let gather = w.elapsed() - after_reduce;
        assert!(close(gather, all_gather_time((256 * 64 * 4) as f64, 64, 25e9)));
    }

    #[test]
    fn thousand_rank_axis_groups_are_exact() {
        // 16x8x8: the grid DistContext builds at 1024 simulated ranks.
        let w = SimComm::world_rank(1024, 777, SimCostModel::new(25e9, 1e-6));
        let (gx, gy) = (16usize, 8usize);
        let x =
            w.split_by(|r| (((r / gx) % gy + (r / (gx * gy)) * gy) as u64, (r % gx) as u64), "x");
        assert_eq!(x.size(), 16);
        assert_eq!(x.rank(), 777 % 16);
    }
}
