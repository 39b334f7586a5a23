//! The frozen serving artifact: an immutable, versioned, checksummed
//! snapshot of a trained model plus its graph, opened read-only via mmap.
//!
//! On disk an artifact is a raw [`ShardStore`] (the normalized adjacency,
//! 2D-sharded with the usual `[MAGIC][FORMAT_VERSION]` headers and
//! manifest checksums) plus one `model_<v>.plx` file per published model
//! version (layer config + weights + the trained feature matrix — features
//! are trainable parameters in this reproduction, so a model snapshot
//! must carry them), indexed by a `serve.txt` [`Manifest`] — one
//! `file model_<v>.plx` entry per version and a `current = <v>` field.
//! [`freeze`] writes version 1; [`publish`] appends a new version and
//! atomically republishes `serve.txt`, which a running
//! [`Artifact::reload_latest`] picks up without ever unmapping the graph.
//!
//! [`Artifact::open`] maps its whole store once through the trainer's own
//! shard reader, [`ShardStore::map_window`]: every adjacency shard is
//! verified against the manifest and its row pointers and column ids are
//! checked once, and adjacency rows are then decoded in place from the
//! mappings ([`RowSource`]); at no point is a shard or model file copied
//! through the heap. Corrupted, truncated, or version-mismatched files and
//! hostile shard entries surface as the loader's typed [`LoaderError`]s,
//! never as panics or garbage.
//!
//! Loading a model version (at open and at each hot reload) also runs its
//! first `L - 1` layers over the whole graph once, one shard row band at a
//! time decoded through the same handle, and keeps the result — the last
//! layer's full-graph input `H^(L-1)` — in the [`ModelSnapshot`]. A query then needs only the last
//! layer. The hidden layer is computed, not stored: its integrity follows
//! from the verified shards and model file, and the directory gains no
//! file.

use plexus::loader::{
    open_verified, Cursor, HashingWriter, LoadStats, LoaderError, LoaderResult, Manifest,
    MappedWindow, ShardStore,
};
use plexus_gnn::{gcn_layer_forward_ws, Gcn, GcnConfig};
use plexus_graph::khop::RowSource;
use plexus_sparse::Csr;
use plexus_tensor::{KernelWorkspace, Matrix};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

fn model_name(version: u64) -> String {
    format!("model_{:04}.plx", version)
}

fn serve_manifest(dir: &Path) -> PathBuf {
    dir.join("serve.txt")
}

/// One published model version: the network plus its trained features,
/// decoded from a verified `model_<v>.plx`, and the last layer's
/// full-graph input computed from them at load. Snapshots are immutable
/// and shared by `Arc` — in-flight batches keep serving the version (and
/// hidden layer) they started with across a hot reload.
pub struct ModelSnapshot {
    pub version: u64,
    pub gcn: Gcn,
    pub features: Matrix,
    /// `H^(L-1)`: the output of layers `0 … L-2` on every node, bitwise
    /// equal to the trainer's forward (the features when `L == 1`).
    pub hidden: Matrix,
}

/// Serialize one model version (config + weights + features) in the
/// shard-file format; returns the manifest entry.
fn write_model(
    dir: &Path,
    version: u64,
    model: &Gcn,
    features: &Matrix,
) -> LoaderResult<(u64, u64)> {
    let mut w = HashingWriter::create(&dir.join(model_name(version)))?;
    w.header()?;
    let c = &model.config;
    w.put_u64s(&[c.num_layers, c.input_dim, c.hidden_dim, c.num_classes])?;
    w.put_u64(c.seed)?;
    for m in model.weights.iter().chain(std::iter::once(features)) {
        w.put_matrix(m)?;
    }
    Ok(w.finish()?)
}

fn parse_model(payload: &[u8], path: &Path) -> LoaderResult<(Gcn, Matrix)> {
    let mut cur = Cursor { bytes: payload, pos: 0, path };
    let num_layers = cur.count()?;
    let input_dim = cur.count()?;
    let hidden_dim = cur.count()?;
    let num_classes = cur.count()?;
    let seed = cur.u64()?;
    let config = GcnConfig { input_dim, hidden_dim, num_classes, num_layers, seed };
    // A hostile layer count runs out of payload long before it runs out
    // of memory: each matrix needs its 16-byte shape.
    let mut mats = Vec::new();
    for _ in 0..=num_layers {
        mats.push(cur.matrix()?);
    }
    let features = mats.pop().expect("at least one matrix decoded");
    Ok((Gcn::from_parts(config, mats), features))
}

/// Freeze a trained model and its graph into a serving artifact at `dir`:
/// writes the adjacency (+ a feature copy) as a raw `p x q` [`ShardStore`]
/// and the model (config + weights + `features`) as version 1. `a_hat` is
/// the normalized adjacency the model was trained on — unpermuted, so
/// query node ids are the caller's node ids.
pub fn freeze(
    dir: &Path,
    a_hat: &Csr,
    model: &Gcn,
    features: &Matrix,
    p: usize,
    q: usize,
) -> LoaderResult<u64> {
    assert_eq!(a_hat.rows(), features.rows(), "freeze: adjacency/features row mismatch");
    assert_eq!(model.config.input_dim, features.cols(), "freeze: feature dim mismatch");
    ShardStore::create(dir, a_hat, features, p, q)?;
    let entry = write_model(dir, 1, model, features)?;
    let files = BTreeMap::from([(model_name(1), entry)]);
    Manifest::new(files).with("current", 1).publish(&serve_manifest(dir))?;
    Ok(1)
}

/// Publish a retrained model into an existing artifact as the next
/// version. The new `model_<v>.plx` lands before `serve.txt` is atomically
/// republished, so a serving process either sees the old version or the
/// complete new one — never a torn state. Returns the new version.
pub fn publish(dir: &Path, model: &Gcn, features: &Matrix) -> LoaderResult<u64> {
    let mut manifest = Manifest::read(&serve_manifest(dir))?;
    let version = manifest.get::<u64>("current")? + 1;
    manifest.files.insert(model_name(version), write_model(dir, version, model, features)?);
    manifest.with("current", version).publish(&serve_manifest(dir))?;
    Ok(version)
}

/// `H^(L-1)` for `gcn`: layers `0 … L-2` over the whole graph with the
/// trainer's layer kernel, one shard row band at a time — each band's rows
/// are decoded, computed and dropped, so the adjacency is never a heap
/// copy as a whole. Row for row this is the trainer's forward: SpMM rows
/// depend only on their own entries (in ascending order, as decoded) and
/// GEMM rows only on `(k, n)`, never on the row count.
fn last_layer_input(adj: &MappedWindow, gcn: &Gcn, features: &Matrix) -> Matrix {
    let mut ws = KernelWorkspace::new();
    let mut x: Option<Matrix> = None;
    for w in &gcn.weights[..gcn.weights.len() - 1] {
        let input = x.as_ref().unwrap_or(features);
        let mut next = Matrix::zeros(adj.num_nodes(), w.cols());
        for (r0, r1) in adj.bands() {
            let a = adj.decode_rows(r0, r1);
            let (out, cache) = gcn_layer_forward_ws(&mut ws, &a, input, w, true);
            next.as_mut_slice()[r0 * w.cols()..r1 * w.cols()].copy_from_slice(out.as_slice());
            for m in [out, cache.h, cache.q] {
                ws.recycle(m);
            }
        }
        x = Some(next);
    }
    x.unwrap_or_else(|| features.clone())
}

/// An opened serving artifact: every adjacency shard checksum-verified and
/// mapped once, the current model snapshot decoded (with its hidden
/// layer), the graph served row by row straight out of the mappings.
pub struct Artifact {
    dir: PathBuf,
    adj: MappedWindow,
    model: RwLock<Arc<ModelSnapshot>>,
    open_stats: LoadStats,
}

impl Artifact {
    /// Open and fully verify an artifact. Every shard and the current
    /// model file are checksummed against their manifests here, every
    /// shard's shape, row pointers and column ids are checked once, and
    /// the model's hidden layer is computed; failures are typed
    /// [`LoaderError`]s.
    pub fn open(dir: &Path) -> LoaderResult<Artifact> {
        let store = ShardStore::open(dir)?;
        if store.perm_mode.is_some() {
            return Err(LoaderError::BadManifest {
                reason: "serving artifacts are frozen from raw (unpermuted) stores".into(),
            });
        }
        let mut stats = LoadStats::default();
        let adj = store.map_window(0, store.rows, 0, store.cols, &mut stats)?;
        let manifest = Manifest::read(&serve_manifest(dir))?;
        let current = manifest.get("current")?;
        let snapshot = load_model(dir, &adj, &manifest, current, &mut stats)?;
        Ok(Artifact {
            dir: dir.to_path_buf(),
            adj,
            model: RwLock::new(Arc::new(snapshot)),
            open_stats: stats,
        })
    }

    /// The current model snapshot. Cheap (one read-lock + `Arc` clone);
    /// workers grab one per batch so a concurrent reload never tears a
    /// batch between versions.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.model.read().expect("model lock poisoned"))
    }

    /// Re-read `serve.txt` and, when it points at a newer version, verify
    /// and decode that model, compute its hidden layer, and only then swap
    /// it in atomically. Queries already in flight keep their snapshot; new
    /// batches see the new weights, and the new model may have another
    /// depth. No draining, and the mapped graph is untouched. Returns the
    /// new version, or `None` when already current — including when a
    /// concurrent reload installed a version at least as new first.
    pub fn reload_latest(&self) -> LoaderResult<Option<u64>> {
        let manifest = Manifest::read(&serve_manifest(&self.dir))?;
        let current = manifest.get("current")?;
        if current <= self.snapshot().version {
            return Ok(None);
        }
        let mut stats = LoadStats::default();
        Ok(self.install(load_model(&self.dir, &self.adj, &manifest, current, &mut stats)?))
    }

    /// Swap `snapshot` in if it is newer than the live one, checked under
    /// the write lock: the served version never goes down.
    fn install(&self, snapshot: ModelSnapshot) -> Option<u64> {
        let mut live = self.model.write().expect("model lock poisoned");
        if snapshot.version <= live.version {
            return None;
        }
        let version = snapshot.version;
        *live = Arc::new(snapshot);
        Some(version)
    }

    /// I/O accounting of [`Artifact::open`]: on mmap-capable targets every
    /// byte is `bytes_mapped` and none are `bytes_copied` — the acceptance
    /// check that serving never copies shard files through the heap.
    pub fn open_stats(&self) -> &LoadStats {
        &self.open_stats
    }

    /// Number of nodes (adjacency rows) served.
    pub fn num_nodes(&self) -> usize {
        self.adj.num_nodes()
    }
}

/// Verify and decode model `version`, whose features must cover the
/// adjacency's nodes, and compute its hidden layer over `adj`.
fn load_model(
    dir: &Path,
    adj: &MappedWindow,
    manifest: &Manifest,
    version: u64,
    stats: &mut LoadStats,
) -> LoaderResult<ModelSnapshot> {
    let name = model_name(version);
    let path = dir.join(&name);
    let (map, payload_at, _) = open_verified(&path, manifest.entry(&name)?, None)?;
    stats.note_file_read(&map);
    let (gcn, features) = parse_model(&map.bytes()[payload_at..], &path)?;
    if features.rows() != adj.num_nodes() {
        return Err(manifest.bad(format!("{} feature rows disagree with the store", name)));
    }
    let hidden = last_layer_input(adj, &gcn, &features);
    Ok(ModelSnapshot { version, gcn, features, hidden })
}

impl RowSource for Artifact {
    fn num_nodes(&self) -> usize {
        self.adj.num_nodes()
    }

    fn row_support(&self, v: u32, out: &mut Vec<u32>) {
        self.adj.row_support(v, out)
    }

    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>) {
        self.adj.row_entries(v, cols, vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_gnn::gcn_layer_forward;
    use plexus_graph::datasets::{LoadedDataset, OGBN_PRODUCTS};
    use plexus_tensor::uniform_matrix;

    /// `H^(L-1)` by the trainer's layer over the full `Â`.
    fn chain(a: &Csr, gcn: &Gcn, features: &Matrix) -> Matrix {
        let mut x = features.clone();
        for w in &gcn.weights[..gcn.weights.len() - 1] {
            x = gcn_layer_forward(a, &x, w, true).0;
        }
        x
    }

    fn same_bits(a: &Matrix, b: &Matrix) -> bool {
        a.shape() == b.shape()
            && a.as_slice().iter().zip(b.as_slice()).all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn hidden_layer_is_the_trainers_for_every_band_split_and_reload() {
        let ds = LoadedDataset::generate(OGBN_PRODUCTS, 100, Some(6), 5);
        let (a, f1) = (&ds.adjacency, &ds.features);
        let f2 = uniform_matrix(f1.rows(), f1.cols(), -1.0, 1.0, 99);
        for layers in 1..=4 {
            let config = GcnConfig {
                input_dim: f1.cols(),
                hidden_dim: 5,
                num_classes: ds.num_classes,
                num_layers: layers,
                seed: 17,
            };
            let v1 = Gcn::new(config.clone());
            let v2 = Gcn::new(GcnConfig { seed: 71, ..config });
            let (want1, want2) = (chain(a, &v1, f1), chain(a, &v2, &f2));
            assert!(!same_bits(&want1, &want2), "v1 and v2 must be told apart");
            for p in 1..=3 {
                let case = format!("{layers} layers, {p} bands");
                let dir = std::env::temp_dir()
                    .join(format!("plexus_hidden_{}_{layers}_{p}", std::process::id()));
                let _ = std::fs::remove_dir_all(&dir);
                freeze(&dir, a, &v1, f1, p, 2).unwrap();
                let art = Artifact::open(&dir).unwrap();
                assert!(same_bits(&art.snapshot().hidden, &want1), "open, {case}");
                if layers == 1 {
                    assert!(same_bits(&art.snapshot().hidden, f1), "one layer: the features");
                }
                publish(&dir, &v2, &f2).unwrap();
                assert_eq!(art.reload_latest().unwrap(), Some(2));
                assert!(same_bits(&art.snapshot().hidden, &want2), "reload, {case}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn a_reload_that_finishes_late_never_installs_an_older_version() {
        let ds = LoadedDataset::generate(OGBN_PRODUCTS, 64, Some(4), 3);
        let config = GcnConfig {
            input_dim: ds.features.cols(),
            hidden_dim: 4,
            num_classes: ds.num_classes,
            num_layers: 2,
            seed: 5,
        };
        let dir = std::env::temp_dir().join(format!("plexus_install_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        freeze(&dir, &ds.adjacency, &Gcn::new(config.clone()), &ds.features, 2, 2).unwrap();
        let art = Artifact::open(&dir).unwrap();
        for seed in [6, 7] {
            publish(&dir, &Gcn::new(GcnConfig { seed, ..config.clone() }), &ds.features).unwrap();
        }
        // Two reloads that read `current` as 2 and 3 and finish 3 first.
        let manifest = Manifest::read(&serve_manifest(&dir)).unwrap();
        let load = |v| load_model(&dir, &art.adj, &manifest, v, &mut LoadStats::default());
        let (v2, v3) = (load(2).unwrap(), load(3).unwrap());
        assert_eq!(art.install(v3), Some(3));
        assert_eq!(art.install(v2), None, "the late, older reload must not install");
        assert_eq!(art.snapshot().version, 3);
        assert_eq!(art.reload_latest().unwrap(), None, "already current");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
