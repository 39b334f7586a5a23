// The parity property below expands to a deep proptest! macro tree.
#![recursion_limit = "256"]

//! Serving-path integration tests.
//!
//! * Property: for arbitrary graphs, models, and query sets, the one-hop
//!   serve path (the snapshot's load-time hidden layer, then the last
//!   layer over the batch's 1-hop sub-CSR) is **bitwise equal** to the
//!   trainer's serial forward on the same nodes (the engine's core
//!   contract — same kernels, same dispatch, same accumulation order).
//! * Property: one engine's overlapping query stream stays bitwise equal
//!   to the live version's forward across a publish + reload to a model
//!   of another depth.
//! * Robustness: corrupted, truncated, magic-damaged, and
//!   version-mismatched artifacts, and re-signed shards whose shape, row
//!   pointers or column ids are hostile, fail to open with the matching
//!   typed [`LoaderError`], never a panic or a silently wrong answer; so are
//!   manifests with a line outside the one grammar every directory index
//!   (store, checkpoint, artifact) shares.

use plexus::checkpoint::{Checkpoint, CheckpointPolicy};
use plexus::grid::GridConfig;
use plexus::loader::{digest, LoaderError, Manifest, ShardStore};
use plexus::trainer::{train_from_source, DistTrainOptions, ProblemSource};
use plexus_gnn::{Gcn, GcnConfig};
use plexus_graph::{datasets::OGBN_PRODUCTS, Graph, LoadedDataset};
use plexus_serve::{argmax, freeze, publish, Artifact, QueryEngine};
use plexus_tensor::{uniform_matrix, Matrix};
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique artifact dir per proptest case (cases run within one process).
fn case_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "plexus_serving_{}_{}_{}",
        tag,
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// A random connected-ish undirected graph with `n` nodes.
fn random_graph(n: usize, extra_edges: usize, seed: u64) -> Graph {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let mut edges = Vec::with_capacity(n + extra_edges);
    // A spine so no node is fully isolated from hop expansion.
    for v in 1..n as u32 {
        edges.push((v, rng.random_range(0..v)));
    }
    for _ in 0..extra_edges {
        edges.push((rng.random_range(0..n as u32), rng.random_range(0..n as u32)));
    }
    Graph::from_undirected(n, &edges)
}

/// One parity case: freeze an arbitrary (graph, model) pair, serve an
/// arbitrary query set, and demand bitwise equality with the trainer's
/// serial full-graph forward. Plain asserts — proptest reports the
/// panicking inputs and shrinks them like any other failure.
fn check_serve_parity(
    n: usize,
    extra: usize,
    layers: usize,
    p: usize,
    q: usize,
    seed: u64,
    queries: usize,
) {
    let graph = random_graph(n, extra, seed);
    let a_hat = graph.normalized_adjacency();
    let features = uniform_matrix(n, 7, -1.0, 1.0, seed ^ 0xfeed);
    let gcn = Gcn::new(GcnConfig {
        input_dim: 7,
        hidden_dim: 5,
        num_classes: 4,
        num_layers: layers,
        seed: seed ^ 0xcafe,
    });
    let nodes: Vec<u32> = {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e3779b97f4a7c15);
        // Duplicates are deliberately allowed: the engine dedups per batch.
        (0..queries).map(|_| rng.random_range(0..n as u32)).collect()
    };

    let dir = case_dir("parity");
    freeze(&dir, &a_hat, &gcn, &features, p, q).unwrap();
    let art = Artifact::open(&dir).unwrap();
    let snap = art.snapshot();
    let full = gcn.forward(&a_hat, &features).logits;
    let mut engine = QueryEngine::new(layers);
    let preds = engine.predict_batch(&art, &snap, &nodes);
    assert_eq!(preds.len(), nodes.len());
    for pred in &preds {
        let expect = full.row(pred.node as usize);
        for (col, (a, b)) in pred.logits.iter().zip(expect).enumerate() {
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "node {} logit {} differs: served {} vs trainer {}",
                pred.node,
                col,
                a,
                b
            );
        }
        assert_eq!(pred.class, argmax(expect));
    }
    fs::remove_dir_all(&dir).unwrap();
}

/// One reload-stream case: run an overlapping stream of query batches
/// through one engine, with a mid-stream `publish` + `reload_latest` of a
/// model of another depth, and demand every logit bitwise equal to the
/// live version's full-graph forward — a stale hidden layer or a stale
/// depth serving the new version would show up as a mismatch.
fn check_reload_stream(n: usize, extra: usize, layers: usize, seed: u64, batches: usize) {
    use rand::{rngs::StdRng, RngExt, SeedableRng};
    let graph = random_graph(n, extra, seed);
    let a_hat = graph.normalized_adjacency();
    let features = uniform_matrix(n, 7, -1.0, 1.0, seed ^ 0xfeed);
    let gcn = Gcn::new(GcnConfig {
        input_dim: 7,
        hidden_dim: 5,
        num_classes: 4,
        num_layers: layers,
        seed: seed ^ 0xcafe,
    });
    let dir = case_dir("stream");
    freeze(&dir, &a_hat, &gcn, &features, 2, 2).unwrap();
    let art = Artifact::open(&dir).unwrap();
    let mut engine = QueryEngine::new(layers);
    let full_v1 = gcn.forward(&a_hat, &features).logits;
    // Retrain stand-in at another depth: 1 -> 2 -> 3 -> 4 -> 1.
    let gcn2 = Gcn::new(GcnConfig {
        num_layers: layers % 4 + 1,
        seed: seed ^ 0xbeef,
        ..gcn.config.clone()
    });
    let full_v2 = gcn2.forward(&a_hat, &features).logits;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
    // A small node pool makes batches repeat nodes across the reload.
    let pool: Vec<u32> = (0..4.min(n)).map(|_| rng.random_range(0..n as u32)).collect();
    for b in 0..batches {
        if b == batches / 2 {
            publish(&dir, &gcn2, &features).unwrap();
            assert_eq!(art.reload_latest().unwrap(), Some(2));
        }
        let len = 1 + rng.random_range(0..4usize);
        let nodes: Vec<u32> = (0..len).map(|_| pool[rng.random_range(0..pool.len())]).collect();
        let (version, full) = if b < batches / 2 { (1, &full_v1) } else { (2, &full_v2) };
        for pred in engine.predict_batch(&art, &art.snapshot(), &nodes) {
            assert_eq!(pred.model_version, version, "batch {b}");
            for (a, e) in pred.logits.iter().zip(full.row(pred.node as usize)) {
                assert_eq!(a.to_bits(), e.to_bits(), "batch {b} node {}", pred.node);
            }
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12, ..ProptestConfig::default() })]

    /// Serve forward == trainer forward, bitwise, on arbitrary query sets.
    #[test]
    fn served_batch_bitwise_equals_serial_forward(
        n in 8usize..64,
        extra in 0usize..160,
        layers in 1usize..5,
        p in 1usize..4,
        q in 1usize..4,
        seed in any::<u64>(),
        queries in 1usize..12,
    ) {
        check_serve_parity(n, extra, layers, p, q, seed, queries);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// One engine's served stream == the live version's trainer forward,
    /// bitwise, across a mid-stream publish + reload to another depth.
    #[test]
    fn reload_stream_bitwise_equals_trainer_forward(
        n in 8usize..48,
        extra in 0usize..120,
        layers in 1usize..5,
        seed in any::<u64>(),
        batches in 4usize..10,
    ) {
        check_reload_stream(n, extra, layers, seed, batches);
    }
}

/// Flip one byte somewhere in a file.
fn flip_byte(path: &PathBuf, at: usize) {
    let mut bytes = fs::read(path).unwrap();
    bytes[at] ^= 0x5a;
    fs::write(path, bytes).unwrap();
}

fn small_artifact(tag: &str) -> (PathBuf, Gcn, Matrix) {
    let graph = random_graph(50, 120, 99);
    let a_hat = graph.normalized_adjacency();
    let features = uniform_matrix(50, 6, -1.0, 1.0, 5);
    let gcn =
        Gcn::new(GcnConfig { input_dim: 6, hidden_dim: 4, num_classes: 3, num_layers: 2, seed: 8 });
    let dir = case_dir(tag);
    freeze(&dir, &a_hat, &gcn, &features, 2, 2).unwrap();
    (dir, gcn, features)
}

#[test]
fn corrupted_shard_is_a_checksum_mismatch() {
    let (dir, ..) = small_artifact("ck");
    let shard = dir.join("adj_e_0_1.plx");
    let len = fs::metadata(&shard).unwrap().len() as usize;
    flip_byte(&shard, len / 2);
    match Artifact::open(&dir) {
        Err(LoaderError::ChecksumMismatch { file, .. }) => {
            assert!(file.ends_with("adj_e_0_1.plx"), "wrong file blamed: {}", file.display())
        }
        other => panic!("expected ChecksumMismatch, got {:?}", other.err()),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn truncated_model_is_truncated_not_a_panic() {
    let (dir, ..) = small_artifact("trunc");
    let model = dir.join("model_0001.plx");
    let bytes = fs::read(&model).unwrap();
    fs::write(&model, &bytes[..bytes.len() / 3]).unwrap();
    assert!(matches!(Artifact::open(&dir), Err(LoaderError::Truncated { .. })));
    fs::remove_dir_all(&dir).unwrap();
}

/// Rewrite a model file's 16-byte header and re-sign the serve manifest,
/// so only the targeted field (magic or version) is wrong.
fn resign_model(dir: &std::path::Path, patch: impl Fn(&mut Vec<u8>)) {
    let model = dir.join("model_0001.plx");
    let mut bytes = fs::read(&model).unwrap();
    patch(&mut bytes);
    fs::write(&model, &bytes).unwrap();
    let path = dir.join("serve.txt");
    let mut manifest = Manifest::read(&path).unwrap();
    manifest.files.insert("model_0001.plx".into(), (digest(&bytes), bytes.len() as u64));
    manifest.publish(&path).unwrap();
}

#[test]
fn damaged_magic_is_bad_magic() {
    let (dir, ..) = small_artifact("magic");
    resign_model(&dir, |b| b[0] ^= 0xff);
    assert!(matches!(Artifact::open(&dir), Err(LoaderError::BadMagic { .. })));
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn future_format_version_is_a_version_mismatch() {
    let (dir, ..) = small_artifact("ver");
    resign_model(&dir, |b| b[8..16].copy_from_slice(&99u64.to_le_bytes()));
    match Artifact::open(&dir) {
        Err(LoaderError::VersionMismatch { found, expected, .. }) => {
            assert_eq!(found, 99);
            assert_eq!(expected, plexus::loader::FORMAT_VERSION);
        }
        other => panic!("expected VersionMismatch, got {:?}", other.err()),
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn v2_artifact_is_refused_at_every_file() {
    let expect_v2 = |dir: &std::path::Path, what: &str| match Artifact::open(dir) {
        Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. }) => {}
        other => panic!("{}: expected VersionMismatch 2 -> 3, got {:?}", what, other.err()),
    };
    // The model file's version word, re-signed.
    let (dir, ..) = small_artifact("v2_model");
    resign_model(&dir, |b| b[8..16].copy_from_slice(&2u64.to_le_bytes()));
    expect_v2(&dir, "model file");
    fs::remove_dir_all(&dir).unwrap();
    // The shard store's manifest (the serve manifest's turn is in the
    // crate's own corrupted-artifact test).
    let (dir, ..) = small_artifact("v2_store");
    let text = fs::read_to_string(dir.join("manifest.txt")).unwrap();
    fs::write(dir.join("manifest.txt"), text.replacen("format = 3", "format = 2", 1)).unwrap();
    expect_v2(&dir, "manifest.txt");
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn hostile_model_lengths_are_truncated_not_wraps_or_panics() {
    // Payload: five u64 config fields, then the first weight's shape.
    let (layers_at, rows_at) = (16, 16 + 5 * 8);
    for (at, value) in [
        (rows_at, u64::MAX),
        (rows_at, 1 << 62),
        (rows_at + 8, u64::MAX),
        (rows_at + 8, 1 << 61),
        (layers_at, u64::MAX),
        (layers_at, 1 << 40),
    ] {
        let (dir, ..) = small_artifact("hostile");
        resign_model(&dir, |b| b[at..at + 8].copy_from_slice(&value.to_le_bytes()));
        assert!(
            matches!(Artifact::open(&dir), Err(LoaderError::Truncated { .. })),
            "field at {} = {} was not refused",
            at,
            value
        );
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// Patch an adjacency shard's bytes and re-sign the store manifest, so the
/// shard passes its checksum and only the patched content is hostile.
fn resign_shard(dir: &std::path::Path, name: &str, patch: impl Fn(&mut Vec<u8>)) {
    let shard = dir.join(name);
    let mut bytes = fs::read(&shard).unwrap();
    patch(&mut bytes);
    fs::write(&shard, &bytes).unwrap();
    let path = dir.join("manifest.txt");
    let mut manifest = Manifest::read(&path).unwrap();
    manifest.files.insert(name.into(), (digest(&bytes), bytes.len() as u64));
    manifest.publish(&path).unwrap();
}

/// Byte offsets in a shard file (16-byte header, then `rows, cols, nnz`
/// and the row pointers) of the row count, `row_ptr[r]` and `col_idx[0]`.
const SHARD_ROWS_AT: usize = 16;
fn row_ptr_at(r: usize) -> usize {
    SHARD_ROWS_AT + 24 + 8 * r
}
fn first_col_at(bytes: &[u8]) -> usize {
    let rows = u64::from_le_bytes(bytes[SHARD_ROWS_AT..SHARD_ROWS_AT + 8].try_into().unwrap());
    row_ptr_at(rows as usize + 1)
}

#[test]
fn shard_shape_off_the_grid_is_bad_manifest_for_every_reader() {
    let (dir, ..) = small_artifact("shape");
    resign_shard(&dir, "adj_e_0_0.plx", |b| {
        let rows = u64::from_le_bytes(b[SHARD_ROWS_AT..SHARD_ROWS_AT + 8].try_into().unwrap());
        b[SHARD_ROWS_AT..SHARD_ROWS_AT + 8].copy_from_slice(&(rows - 1).to_le_bytes());
    });
    let store = ShardStore::open(&dir).unwrap();
    match store.load_adjacency_window(0, store.rows, 0, store.cols) {
        Err(LoaderError::BadManifest { reason }) => {
            assert!(reason.contains("adj_e_0_0"), "{reason}")
        }
        other => panic!("expected BadManifest, got {:?}", other.err()),
    }
    assert!(matches!(Artifact::open(&dir), Err(LoaderError::BadManifest { .. })));
    fs::remove_dir_all(&dir).unwrap();
}

/// Each re-signed patch goes through both shard readers — the trainer's
/// window load and `Artifact::open` — and both must return the same typed
/// error naming the shard: `Truncated` for a row pointer past `nnz`,
/// `BadManifest` for a column id outside the shard or two column ids out
/// of order within a row.
#[test]
fn hostile_shard_row_pointers_and_columns_are_typed_errors_not_panics() {
    type Patch = fn(&mut Vec<u8>);
    let swap_first_pair: Patch = |b| {
        // The first row with two entries: swap its first two column ids.
        let ptr =
            |r: usize| u64::from_le_bytes(b[row_ptr_at(r)..row_ptr_at(r) + 8].try_into().unwrap());
        let r = (0..).find(|&r| ptr(r + 1) - ptr(r) >= 2).unwrap();
        let at = first_col_at(b) + 4 * ptr(r) as usize;
        b[at..at + 8].rotate_left(4);
    };
    let cases: [(&str, &str, Patch); 3] = [
        ("row pointer", "adj_e_0_1.plx", |b| {
            b[row_ptr_at(1)..row_ptr_at(1) + 8].copy_from_slice(&(1u64 << 40).to_le_bytes())
        }),
        ("column id", "adj_e_0_0.plx", |b| {
            let at = first_col_at(b);
            b[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes())
        }),
        ("swapped columns", "adj_e_0_0.plx", swap_first_pair),
    ];
    for (case, shard, patch) in cases {
        let (dir, ..) = small_artifact("hostile");
        resign_shard(&dir, shard, patch);
        let store = ShardStore::open(&dir).unwrap();
        let window = store.load_adjacency_window(0, store.rows, 0, store.cols).err();
        let artifact = Artifact::open(&dir).err();
        match &window {
            Some(LoaderError::Truncated { file }) if case == "row pointer" => {
                assert!(file.ends_with(shard), "{case}: {}", file.display())
            }
            Some(LoaderError::BadManifest { reason }) if case != "row pointer" => {
                assert!(reason.contains(shard), "{case}: {reason}")
            }
            other => panic!("{case}: unexpected window-load result {:?}", other),
        }
        assert_eq!(format!("{window:?}"), format!("{artifact:?}"), "{case}: readers disagree");
        fs::remove_dir_all(&dir).unwrap();
    }
}

#[test]
fn manifest_current_without_entry_is_bad_manifest() {
    let (dir, ..) = small_artifact("manifest");
    let manifest = dir.join("serve.txt");
    let text = fs::read_to_string(&manifest).unwrap().replace("current = 1", "current = 7");
    fs::write(&manifest, text).unwrap();
    assert!(matches!(Artifact::open(&dir), Err(LoaderError::BadManifest { .. })));
    fs::remove_dir_all(&dir).unwrap();
}

/// Shard stores, checkpoint epochs and serving artifacts are indexed by one
/// manifest grammar: a line outside it is a typed error from each reader,
/// never a line skipped.
#[test]
fn a_line_outside_the_manifest_grammar_is_bad_manifest_everywhere() {
    let append_garbage = |path: &std::path::Path| {
        let text = fs::read_to_string(path).unwrap();
        fs::write(path, text + "garbage\n").unwrap();
    };
    let is_bad = |r: Result<(), LoaderError>| matches!(r, Err(LoaderError::BadManifest { .. }));

    let (dir, ..) = small_artifact("garbage_store");
    append_garbage(&dir.join("manifest.txt"));
    assert!(is_bad(ShardStore::open(&dir).map(|_| ())), "store manifest");
    fs::remove_dir_all(&dir).unwrap();

    let (dir, ..) = small_artifact("garbage_serve");
    append_garbage(&dir.join("serve.txt"));
    assert!(is_bad(Artifact::open(&dir).map(|_| ())), "serve manifest");
    fs::remove_dir_all(&dir).unwrap();

    let ds = LoadedDataset::generate(OGBN_PRODUCTS, 64, Some(4), 3);
    let root = case_dir("garbage_checkpoint");
    let opts = DistTrainOptions {
        hidden_dim: 8,
        checkpoint: Some(CheckpointPolicy::new(&root)),
        ..Default::default()
    };
    train_from_source(ProblemSource::InMemory(&ds), GridConfig::new(1, 1, 1), &opts, 1).unwrap();
    let epoch = root.join("epoch_1");
    Checkpoint::open(&epoch).unwrap();
    append_garbage(&epoch.join("manifest.txt"));
    assert!(is_bad(Checkpoint::open(&epoch).map(|_| ())), "checkpoint manifest");
    fs::remove_dir_all(&root).unwrap();
}

/// Hot-path sanity at the integration level: publish + reload under an
/// open artifact serves the new weights bitwise.
#[test]
fn reload_serves_new_weights_bitwise() {
    let (dir, gcn, features) = small_artifact("reload");
    let art = Artifact::open(&dir).unwrap();
    let gcn2 = Gcn::new(GcnConfig { seed: 1234, ..gcn.config.clone() });
    publish(&dir, &gcn2, &features).unwrap();
    assert_eq!(art.reload_latest().unwrap(), Some(2));
    let graph = random_graph(50, 120, 99);
    let a_hat = graph.normalized_adjacency();
    let full = gcn2.forward(&a_hat, &features).logits;
    let snap = art.snapshot();
    let mut engine = QueryEngine::new(gcn2.config.num_layers);
    for pred in engine.predict_batch(&art, &snap, &[0, 13, 49]) {
        for (a, b) in pred.logits.iter().zip(full.row(pred.node as usize)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
    fs::remove_dir_all(&dir).unwrap();
}
