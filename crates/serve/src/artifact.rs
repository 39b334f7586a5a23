//! The frozen serving artifact: an immutable, versioned, checksummed
//! snapshot of a trained model plus its graph, opened read-only via mmap.
//!
//! On disk an artifact is a raw [`ShardStore`] (the normalized adjacency,
//! 2D-sharded with the usual `[MAGIC][FORMAT_VERSION]` headers and
//! manifest checksums) plus one `model_<v>.plx` file per published model
//! version (layer config + weights + the trained feature matrix — features
//! are trainable parameters in this reproduction, so a model snapshot
//! must carry them) and a `serve.txt` manifest naming the current
//! version. [`freeze`] writes version 1; [`publish`] appends a new
//! version and atomically repoints `serve.txt`, which a running
//! [`Artifact::reload_latest`] picks up without ever unmapping the graph.
//!
//! [`Artifact::open`] checksum-verifies and maps every adjacency shard
//! once, then serves adjacency rows by decoding them in place from the
//! mappings ([`RowSource`]); at no point is a shard file copied through
//! the heap. Corrupted, truncated, or version-mismatched files surface as
//! the loader's typed [`LoaderError`]s, never as panics or garbage.

use plexus::loader::{
    verify_shard_bytes, CsrPayload, Cursor, HashingWriter, LoadStats, LoaderError, LoaderResult,
    Parity, ShardStore, FORMAT_VERSION,
};
use plexus_gnn::{Gcn, GcnConfig};
use plexus_graph::{khop::RowSource, MappedFile};
use plexus_sparse::shard::split_range;
use plexus_sparse::Csr;
use plexus_tensor::Matrix;
use std::collections::BTreeMap;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, RwLock};

fn model_name(version: u64) -> String {
    format!("model_{:04}.plx", version)
}

const SERVE_MANIFEST: &str = "serve.txt";

/// One published model version: the network plus its trained features,
/// decoded from a verified `model_<v>.plx`. Snapshots are immutable and
/// shared by `Arc` — in-flight batches keep serving the version they
/// started with across a hot reload.
pub struct ModelSnapshot {
    pub version: u64,
    pub gcn: Gcn,
    pub features: Matrix,
}

/// The `serve.txt` manifest: model-version files and the current pointer.
struct ServeManifest {
    current: u64,
    models: BTreeMap<u64, (u64, u64)>,
}

impl ServeManifest {
    fn path(dir: &Path) -> PathBuf {
        dir.join(SERVE_MANIFEST)
    }

    fn read(dir: &Path) -> LoaderResult<ServeManifest> {
        let path = Self::path(dir);
        let text = fs::read_to_string(&path).map_err(|e| LoaderError::BadManifest {
            reason: format!("{}: {}", path.display(), e),
        })?;
        let mut format = None;
        let mut current = None;
        let mut models = BTreeMap::new();
        for line in text.lines() {
            let Some((key, value)) = line.split_once('=') else { continue };
            let (key, value) = (key.trim(), value.trim());
            if let Some(v) = key.strip_prefix("model ") {
                let version: u64 = v.trim().parse().map_err(|_| LoaderError::BadManifest {
                    reason: format!("unparsable model version {}", v),
                })?;
                let mut parts = value.split_whitespace();
                let entry = (|| {
                    let ck = u64::from_str_radix(parts.next()?, 16).ok()?;
                    let len: u64 = parts.next()?.parse().ok()?;
                    Some((ck, len))
                })()
                .ok_or_else(|| LoaderError::BadManifest {
                    reason: format!("unparsable entry for model {}", version),
                })?;
                models.insert(version, entry);
            } else if key == "format" {
                format = value.parse::<u64>().ok();
            } else if key == "current" {
                current = value.parse::<u64>().ok();
            }
        }
        let format = format.ok_or_else(|| LoaderError::BadManifest {
            reason: "serve.txt: missing format".into(),
        })?;
        if format != FORMAT_VERSION {
            return Err(LoaderError::VersionMismatch {
                file: path,
                found: format,
                expected: FORMAT_VERSION,
            });
        }
        let current = current.ok_or_else(|| LoaderError::BadManifest {
            reason: "serve.txt: missing current".into(),
        })?;
        if !models.contains_key(&current) {
            return Err(LoaderError::BadManifest {
                reason: format!("serve.txt: current version {} has no model entry", current),
            });
        }
        Ok(ServeManifest { current, models })
    }

    /// Write via temp file + rename, so a concurrently reloading server
    /// only ever sees a complete manifest.
    fn write(&self, dir: &Path) -> LoaderResult<()> {
        plexus_graph::format::publish(&Self::path(dir), |f| {
            writeln!(f, "format = {}\ncurrent = {}", FORMAT_VERSION, self.current)?;
            for (v, (ck, len)) in &self.models {
                writeln!(f, "model {} = {:016x} {}", v, ck, len)?;
            }
            Ok(())
        })?;
        Ok(())
    }
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
    let manifest = ServeManifest { current: 1, models: BTreeMap::from([(1, entry)]) };
    manifest.write(dir)?;
    Ok(1)
}

/// Publish a retrained model into an existing artifact as the next
/// version. The new `model_<v>.plx` lands before `serve.txt` is atomically
/// repointed, so a serving process either sees the old version or the
/// complete new one — never a torn state. Returns the new version.
pub fn publish(dir: &Path, model: &Gcn, features: &Matrix) -> LoaderResult<u64> {
    let mut manifest = ServeManifest::read(dir)?;
    let version = manifest.current + 1;
    let entry = write_model(dir, version, model, features)?;
    manifest.models.insert(version, entry);
    manifest.current = version;
    manifest.write(dir)?;
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
                let (map, payload_at) = store.map_verified(&name)?;
                stats.note_file_read(&map);
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
        let manifest = ServeManifest::read(dir)?;
        let snapshot = Self::load_model(dir, &manifest, manifest.current, &mut stats)?;
        if snapshot.features.rows() != store.rows {
            return Err(LoaderError::BadManifest {
                reason: "model feature rows disagree with the store".into(),
            });
        }
        Ok(Artifact {
            dir: dir.to_path_buf(),
            rows: store.rows,
            shards,
            band_starts,
            model: RwLock::new(Arc::new(snapshot)),
            open_stats: stats,
        })
    }

    fn load_model(
        dir: &Path,
        manifest: &ServeManifest,
        version: u64,
        stats: &mut LoadStats,
    ) -> LoaderResult<ModelSnapshot> {
        let &(ck, len) = manifest.models.get(&version).ok_or_else(|| LoaderError::BadManifest {
            reason: format!("no entry for model version {}", version),
        })?;
        let path = dir.join(model_name(version));
        let map = MappedFile::open(&path)?;
        let payload_at = verify_shard_bytes(map.bytes(), &path, ck, len)?;
        stats.note_file_read(&map);
        parse_model(&map.bytes()[payload_at..], &path, version)
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
        let manifest = ServeManifest::read(&self.dir)?;
        if manifest.current <= self.snapshot().version {
            return Ok(None);
        }
        let mut stats = LoadStats::default();
        let snapshot = Self::load_model(&self.dir, &manifest, manifest.current, &mut stats)?;
        if snapshot.features.rows() != self.rows {
            return Err(LoaderError::BadManifest {
                reason: "reloaded model feature rows disagree with the store".into(),
            });
        }
        let version = snapshot.version;
        *self.model.write().expect("model lock poisoned") = Arc::new(snapshot);
        Ok(Some(version))
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

    /// Directory this artifact lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
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
