//! Loader throughput: store creation (the streaming `preprocess_to_store`
//! write path) and per-rank window loads, in MB/s, across shard grid
//! sizes.
//!
//! Complements `sec54_dataloader` (which reproduces the paper's
//! bytes-reduction claim): this bench tracks the *speed* of the two store
//! operations the ingest pipeline performs, so regressions in the binary
//! encoding, checksumming, or window merge show up as MB/s drops.
//!
//! Under them sit the two format kernels every file boundary pays:
//! `checksum/64MiB`, the digest alone over a buffer far larger than any
//! cache, and `spill_roundtrip/5MiB`, one layer cache of the repo
//! benchmark's `ooc_x2` shape through `ActivationStore` insert + fetch
//! (encode, digest, write; map, digest, decode).

use plexus::activation::{ActivationStore, Fetched, ResidencyPolicy};
use plexus::layer::DistLayerCache;
use plexus::loader::{digest, preprocess_to_store, ShardStore};
use plexus::setup::PermutationMode;
use plexus_bench::Table;
use plexus_graph::{datasets::OGBN_PRODUCTS, LoadedDataset};
use plexus_tensor::{KernelWorkspace, Matrix};
use std::hint::black_box;
use std::time::Instant;

/// Fastest of `reps` timed calls, in seconds.
fn best_of(reps: usize, mut f: impl FnMut()) -> f64 {
    (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn format_kernels() {
    let mut t =
        Table::new("Format kernels: digest and spill round trip", &["Kernel", "Best", "Rate"]);

    let buf: Vec<u8> =
        (0..64usize << 20).map(|i| (i.wrapping_mul(2654435761) >> 24) as u8).collect();
    let secs = best_of(5, || {
        black_box(digest(black_box(&buf)));
    });
    t.row(vec![
        "checksum/64MiB".into(),
        format!("{:.2} ms", secs * 1e3),
        format!("{:.2} GB/s", buf.len() as f64 / 1e9 / secs),
    ]);

    // H and Q of 16384 x 32 plus a 32 x 32 W: what one rank of `ooc_x2`
    // spills per layer (5.0 MiB), through a zero-budget store.
    let mat = |r: usize, c: usize| Matrix::from_fn(r, c, |i, j| ((i * 31 + j) as f32 * 0.01).sin());
    let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 0 });
    let mut ws = KernelWorkspace::new();
    let mut cache = Some(DistLayerCache {
        h: mat(16384, 32),
        q: mat(16384, 32),
        w_full: mat(32, 32),
        activated: true,
    });
    let secs = best_of(12, || {
        store.insert(0, cache.take().expect("cache"), Matrix::zeros(1, 1), &mut ws).unwrap();
        match store.fetch(0).unwrap() {
            Fetched::Cache(c) => cache = Some(c),
            Fetched::Rebuild { .. } => unreachable!("spill policy reloads"),
        }
    });
    let bytes = store.stats().spilled_bytes as f64 / store.stats().spill_events as f64;
    t.row(vec![
        "spill_roundtrip/5MiB".into(),
        format!("{:.2} ms", secs * 1e3),
        format!("{:.0} MB/s each way", bytes / 1e6 / (secs / 2.0)),
    ]);

    t.print();
    t.write_csv("loader_format_kernels");
}

fn main() {
    format_kernels();

    let ds = LoadedDataset::generate(OGBN_PRODUCTS, 1 << 13, Some(32), 7);
    let n = ds.num_nodes();
    let mut t = Table::new(
        "Loader throughput: streaming store creation + window loads",
        &["Shard grid", "Create (MB/s)", "Full load (MB/s)", "1/16 window (MB/s)", "Skip ratio"],
    );

    for pq in [4usize, 8, 16] {
        let dir =
            std::env::temp_dir().join(format!("plexus_loader_bench_{}_{}", pq, std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let t0 = Instant::now();
        let store =
            preprocess_to_store(&ds, &dir, PermutationMode::Double, 0x5eed, pq, pq).unwrap();
        let create_secs = t0.elapsed().as_secs_f64();
        let total = store.total_bytes().unwrap() as f64;

        let t0 = Instant::now();
        let (_, full) = store.load_adjacency_window(0, n, 0, n).unwrap();
        let full_secs = t0.elapsed().as_secs_f64();

        let t0 = Instant::now();
        let (_, win) = store.load_adjacency_window(0, n / 4, 0, n / 4).unwrap();
        let win_secs = t0.elapsed().as_secs_f64();

        let mbs = |bytes: f64, secs: f64| bytes / (1024.0 * 1024.0) / secs.max(1e-9);
        t.row(vec![
            format!("{}x{}", pq, pq),
            format!("{:.1}", mbs(total, create_secs)),
            format!("{:.1}", mbs(full.bytes_read as f64, full_secs)),
            format!("{:.1}", mbs(win.bytes_read as f64, win_secs)),
            format!(
                "{:.2}",
                win.bytes_skipped as f64 / (win.bytes_read + win.bytes_skipped).max(1) as f64
            ),
        ]);
        std::fs::remove_dir_all(&dir).unwrap();

        // Sanity: a quarter-area window must not read more than the full
        // load, and with more shards it should skip a larger fraction.
        assert!(win.bytes_read < full.bytes_read, "window read more than the full store");
    }

    t.print();
    t.write_csv("loader");
    println!("\nLoader bench complete: window loads skip unopened files via the manifest.");

    // Reopen sanity so the bench doubles as a cold-open check.
    let dir = std::env::temp_dir().join(format!("plexus_loader_bench_open_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    preprocess_to_store(&ds, &dir, PermutationMode::Double, 1, 4, 4).unwrap();
    let reopened = ShardStore::open(&dir).unwrap();
    reopened.validate_files().unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
