//! Heap-allocation checks behind the allocation-free collectives, in a
//! test binary of their own because they install a counting global
//! allocator.
//!
//! The allocator records, per thread and only while that thread has asked
//! for it, the largest single allocation (or reallocation) made. Rank
//! threads opt in around the window they check, so the test harness and
//! other tests' threads never show up in a measurement.
//!
//! * The thread backend's engine collectives, blocking and `start_*`
//!   forms, make no allocation of 1 KiB or more once each has run once:
//!   the contribution goes through the handle's reused staging buffer and
//!   the result lands in the caller's buffer.
//! * A warmed-up distributed training epoch allocates nothing as large as
//!   one aggregation block: every kernel output and collective result comes
//!   from a layer workspace.

use plexus::dist::DistContext;
use plexus::grid::GridConfig;
use plexus::setup::{GlobalProblem, PermutationMode, RankData};
use plexus::trainer::{DistTrainOptions, RankTrainer};
use plexus_comm::{run_world, Communicator, ReduceOp, ThreadComm};
use plexus_graph::{DatasetKind, DatasetSpec, LoadedDataset};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct LargestPerThread;

thread_local! {
    /// Largest allocation this thread made while tracking; `None` while
    /// not tracking.
    static LARGEST: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| {
        if let Some(max) = l.get() {
            l.set(Some(max.max(size)));
        }
    });
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping only reads sizes and touches a const-initialized
// thread-local, which never allocates.
unsafe impl GlobalAlloc for LargestPerThread {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestPerThread = LargestPerThread;

/// Run `f` and return the largest single allocation this thread made in it.
fn largest_allocation(f: impl FnOnce()) -> usize {
    LARGEST.with(|l| l.set(Some(0)));
    f();
    LARGEST.with(|l| l.replace(None)).expect("tracking was on")
}

/// One call of every collective the training engine issues, each writing
/// into a caller buffer (as `DistLayer` does), on equal-size payloads.
fn engine_collectives(comm: &ThreadComm, src: &[f32], ids: &[u32], bufs: &mut [Vec<f32>; 4]) {
    let [reduced, gathered, scattered, rows] = bufs;
    reduced.copy_from_slice(src);
    comm.all_reduce(reduced, ReduceOp::Sum);
    comm.start_all_reduce(src, ReduceOp::Sum).wait_into(reduced);
    comm.all_gather_into(src, gathered);
    comm.start_all_gather(src).wait_into(gathered);
    comm.reduce_scatter_into(src, ReduceOp::Sum, scattered);
    comm.start_reduce_scatter(src, ReduceOp::Sum).wait_into(scattered);
    comm.start_all_gather_rows(src, ids, 16).wait_into(rows);
}

#[test]
fn warm_collectives_allocate_nothing_payload_sized() {
    const LEN: usize = 4096; // 16 KiB of f32 per contribution
    for size in [1usize, 2] {
        let largest = run_world(size, |comm| {
            let g = comm.size();
            let src: Vec<f32> = (0..LEN).map(|i| (i + comm.rank()) as f32).collect();
            // Every other global row, plus a repeat.
            let ids: Vec<u32> = (0..(LEN / 16 * g) as u32).step_by(2).chain([0]).collect();
            let mut bufs =
                [vec![0.0; LEN], vec![0.0; LEN * g], vec![0.0; LEN / g], vec![0.0; ids.len() * 16]];
            engine_collectives(comm, &src, &ids, &mut bufs);
            (0..10)
                .map(|_| {
                    // The ledger's own growth is bookkeeping, not a
                    // payload buffer: drain it between rounds.
                    comm.ledger().take();
                    largest_allocation(|| engine_collectives(comm, &src, &ids, &mut bufs))
                })
                .max()
                .unwrap()
        });
        for (rank, largest) in largest.iter().enumerate() {
            assert!(
                *largest < 1024,
                "{}-rank world, rank {}: a warm collective allocated {} B",
                size,
                rank,
                largest
            );
        }
    }
}

#[test]
fn warm_training_epoch_allocates_no_aggregation_block() {
    const CLASSES: usize = 6;
    const HIDDEN: usize = 8 * CLASSES;
    let spec = DatasetSpec {
        kind: DatasetKind::OgbnProducts,
        name: "alloc",
        nodes: 1024,
        edges: 1024 * 8,
        nonzeros: 1024 * 17,
        features: HIDDEN,
        classes: CLASSES,
    };
    let ds = LoadedDataset::generate(spec, 1024, Some(HIDDEN), 13);
    let grid = GridConfig::new(2, 1, 2);
    let opts = DistTrainOptions {
        hidden_dim: HIDDEN,
        model_seed: 5,
        permutation: PermutationMode::Double,
        ..Default::default()
    };
    let gp = GlobalProblem::build(
        &ds,
        grid,
        opts.hidden_dim,
        opts.num_layers,
        opts.model_seed,
        opts.permutation,
        opts.perm_seed,
    );
    let results = run_world(grid.total(), |comm| {
        let rd = RankData::extract(&gp, comm.rank());
        // Each layer's aggregation output H is its adjacency shard's rows
        // by its input's columns: the stored feature columns at layer 0,
        // the previous layer's weight columns after that.
        let block = (0..rd.a_shards.len())
            .map(|l| {
                let cols = if l == 0 { rd.f_stored.cols() } else { rd.w_stored[l - 1].cols() };
                rd.a_shards[l].rows() * cols * std::mem::size_of::<f32>()
            })
            .min()
            .unwrap();
        let world = comm.split(0, comm.rank() as u64, "world");
        let mut rt = RankTrainer::from_parts(&gp.meta, DistContext::new(world, grid), rd, &opts);
        for _ in 0..2 {
            rt.train_epoch();
        }
        rt.ctx().world.ledger().take();
        (
            block,
            largest_allocation(|| {
                rt.train_epoch();
            }),
        )
    });
    for (rank, &(block, largest)) in results.iter().enumerate() {
        assert!(
            largest < block,
            "rank {}: a warm epoch allocated {} B, an aggregation block is {} B",
            rank,
            largest,
            block
        );
    }
}
