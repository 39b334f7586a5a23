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
//! [`Artifact::open`] maps and verifies every adjacency shard once through
//! [`open_verified`], then serves adjacency rows by decoding them in place
//! from the mappings ([`RowSource`]); at no point is a shard or model file
//! copied through the heap. Corrupted, truncated, or version-mismatched
//! files surface as the loader's typed [`LoaderError`]s, never as panics
//! or garbage.

use plexus::loader::{
    open_verified, CsrPayload, Cursor, HashingWriter, LoadStats, LoaderError, LoaderResult,
    Manifest, Parity, ShardStore,
};
use plexus_gnn::{Gcn, GcnConfig};
use plexus_graph::{khop::RowSource, MappedFile};
use plexus_sparse::shard::split_range;
use plexus_sparse::Csr;
use plexus_tensor::Matrix;
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
/// decoded from a verified `model_<v>.plx`. Snapshots are immutable and
/// shared by `Arc` — in-flight batches keep serving the version they
/// started with across a hot reload.
pub struct ModelSnapshot {
    pub version: u64,
    pub gcn: Gcn,
    pub features: Matrix,
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

fn parse_model(payload: &[u8], path: &Path, version: u64) -> LoaderResult<ModelSnapshot> {
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
    Ok(ModelSnapshot { version, gcn: Gcn::from_parts(config, mats), features })
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

/// One mapped adjacency shard: the verified mapping plus the payload
/// geometry and the shard's global column offset.
struct MappedShard {
    map: MappedFile,
    payload_at: usize,
    geom: CsrPayload,
    sc0: usize,
}

impl MappedShard {
    fn payload(&self) -> &[u8] {
        &self.map.bytes()[self.payload_at..]
    }
}

/// An opened serving artifact: every adjacency shard checksum-verified and
/// mapped once, the current model snapshot decoded, the graph served row
/// by row straight out of the mappings for the engine's k-hop extraction.
pub struct Artifact {
    dir: PathBuf,
    rows: usize,
    /// `[band i][shard j]`, bands covering `split_range(rows, p, i)`.
    shards: Vec<Vec<MappedShard>>,
    /// Global first row of each band, plus a trailing `rows` sentinel.
    band_starts: Vec<usize>,
    model: RwLock<Arc<ModelSnapshot>>,
    open_stats: LoadStats,
}

impl Artifact {
    /// Open and fully verify an artifact. Every shard and the current
    /// model file are checksummed against their manifests here; failures
    /// are typed [`LoaderError`]s.
    pub fn open(dir: &Path) -> LoaderResult<Artifact> {
        let store = ShardStore::open(dir)?;
        if store.perm_mode.is_some() {
            return Err(LoaderError::BadManifest {
                reason: "serving artifacts are frozen from raw (unpermuted) stores".into(),
            });
        }
        let mut stats = LoadStats::default();
        let mut shards = Vec::with_capacity(store.grid_p);
        let mut band_starts = Vec::with_capacity(store.grid_p + 1);
        for i in 0..store.grid_p {
            let (sr0, sr1) = split_range(store.rows, store.grid_p, i);
            band_starts.push(sr0);
            let mut row = Vec::with_capacity(store.grid_q);
            for j in 0..store.grid_q {
                let name = ShardStore::shard_name(Parity::Even, i, j);
                let (map, payload_at) = store.map_verified(&name, &mut stats)?;
                let geom = CsrPayload::parse(&map.bytes()[payload_at..], &dir.join(&name))?;
                let (sc0, sc1) = split_range(store.cols, store.grid_q, j);
                if geom.rows != sr1 - sr0 || geom.cols != sc1 - sc0 {
                    return Err(LoaderError::BadManifest {
                        reason: format!("{}: shard shape disagrees with the grid", name),
                    });
                }
                row.push(MappedShard { map, payload_at, geom, sc0 });
            }
            shards.push(row);
        }
        band_starts.push(store.rows);
        let manifest = Manifest::read(&serve_manifest(dir))?;
        let current = manifest.get("current")?;
        let snapshot = Self::load_model(dir, &manifest, current, store.rows, &mut stats)?;
        Ok(Artifact {
            dir: dir.to_path_buf(),
            rows: store.rows,
            shards,
            band_starts,
            model: RwLock::new(Arc::new(snapshot)),
            open_stats: stats,
        })
    }

    /// Verify and decode model `version`, whose features must cover the
    /// store's `rows` nodes.
    fn load_model(
        dir: &Path,
        manifest: &Manifest,
        version: u64,
        rows: usize,
        stats: &mut LoadStats,
    ) -> LoaderResult<ModelSnapshot> {
        let name = model_name(version);
        let path = dir.join(&name);
        let (map, payload_at, _) = open_verified(&path, manifest.entry(&name)?, None)?;
        stats.note_file_read(&map);
        let snapshot = parse_model(&map.bytes()[payload_at..], &path, version)?;
        if snapshot.features.rows() != rows {
            return Err(manifest.bad(format!("{} feature rows disagree with the store", name)));
        }
        Ok(snapshot)
    }

    /// The current model snapshot. Cheap (one read-lock + `Arc` clone);
    /// workers grab one per batch so a concurrent reload never tears a
    /// batch between versions.
    pub fn snapshot(&self) -> Arc<ModelSnapshot> {
        Arc::clone(&self.model.read().expect("model lock poisoned"))
    }

    /// Re-read `serve.txt` and, when it points at a newer version, verify
    /// and decode that model and swap it in atomically. Queries already
    /// in flight keep their snapshot; new batches see the new weights. No
    /// draining, and the mapped graph is untouched. Returns the new
    /// version, or `None` when already current.
    pub fn reload_latest(&self) -> LoaderResult<Option<u64>> {
        let manifest = Manifest::read(&serve_manifest(&self.dir))?;
        let current = manifest.get("current")?;
        if current <= self.snapshot().version {
            return Ok(None);
        }
        let mut stats = LoadStats::default();
        let snapshot = Self::load_model(&self.dir, &manifest, current, self.rows, &mut stats)?;
        *self.model.write().expect("model lock poisoned") = Arc::new(snapshot);
        Ok(Some(current))
    }

    /// I/O accounting of [`Artifact::open`]: on mmap-capable targets every
    /// byte is `bytes_mapped` and none are `bytes_copied` — the acceptance
    /// check that serving never copies shard files through the heap.
    pub fn open_stats(&self) -> &LoadStats {
        &self.open_stats
    }

    /// Number of nodes (adjacency rows) served.
    pub fn num_nodes(&self) -> usize {
        self.rows
    }

    fn band_of(&self, v: u32) -> (usize, usize) {
        let v = v as usize;
        debug_assert!(v < self.rows, "node {} out of range", v);
        // band_starts is sorted ascending; find the band containing v.
        let mut lo = 0;
        let mut hi = self.band_starts.len() - 1;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.band_starts[mid] <= v {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        (lo, v - self.band_starts[lo])
    }
}

impl RowSource for Artifact {
    fn num_nodes(&self) -> usize {
        self.rows
    }

    fn row_support(&self, v: u32, out: &mut Vec<u32>) {
        let (band, r) = self.band_of(v);
        for shard in &self.shards[band] {
            let payload = shard.payload();
            let p0 = shard.geom.row_start(payload, r);
            let p1 = shard.geom.row_start(payload, r + 1);
            for k in p0..p1 {
                out.push(shard.geom.col(payload, k) + shard.sc0 as u32);
            }
        }
    }

    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>) {
        let (band, r) = self.band_of(v);
        for shard in &self.shards[band] {
            let payload = shard.payload();
            let p0 = shard.geom.row_start(payload, r);
            let p1 = shard.geom.row_start(payload, r + 1);
            for k in p0..p1 {
                cols.push(shard.geom.col(payload, k) + shard.sc0 as u32);
                vals.push(shard.geom.val(payload, k));
            }
        }
    }
}
