//! The §5.4 parallel data loader and the out-of-core ingest pipeline.
//!
//! "Plexus implements a parallel data loader ... It shards processed data
//! into 2D files offline (e.g., 8x8), and the data loader for each GPU
//! only loads, merges, and extracts the shards it needs." For
//! ogbn-papers100M on 64 GPUs this cut CPU memory from 146 GB to 9 GB and
//! load time from 139 s to 7 s.
//!
//! Two stages mirror that pipeline:
//!
//! 1. **Offline preprocessing** — [`preprocess_to_store`] applies the §5.1
//!    permutation scheme *while writing* a [`ShardStore`]: the even-layer
//!    operand `P_r Â P_cᵀ` is emitted row band by row band through
//!    [`plexus_sparse::permute::permuted_row_band`], so at no point does a
//!    second full copy of Â exist (peak extra memory is one band,
//!    `~nnz/p`). Odd layers need no shards of their own: Â is symmetric,
//!    so `P_c Â P_rᵀ` is that operand transposed, and a rank reads its odd
//!    windows mirrored (see [`crate::setup`]). Feature row bands, one
//!    label/mask file in node order, and a versioned manifest with
//!    per-shard checksums complete the store.
//! 2. **Per-rank loading** — one reader decodes adjacency shards:
//!    [`ShardStore::map_window`] maps exactly the shard files a window
//!    intersects, skipping the rest *without opening them* (sizes come
//!    from the manifest), and checks each mapped shard's row pointers and
//!    column ids once. Its [`MappedWindow`] decodes rows straight out of
//!    the mappings into one [`Csr`] — a rank's window
//!    ([`ShardStore::load_adjacency_window`]) or the serving artifact's
//!    rows alike — with no intermediate blocks to merge. Feature rows are
//!    copied band by band into one preallocated matrix. Both report bytes
//!    read and bytes skipped in a [`LoadStats`]; a [`MemoryLedger`]
//!    aggregates those stats plus resident/peak adjacency and feature
//!    bytes — the quantities behind the paper's memory reductions.
//!
//! The binary format is versioned ([`FORMAT_VERSION`]) and every file's
//! [`digest`] is recorded in the store's [`Manifest`]; every file a reader
//! decodes is opened through [`open_verified`], so a corrupted, truncated, or
//! version-mismatched file surfaces as a typed [`LoaderError`] instead of
//! garbage data. The header, digest, manifest, bulk codecs and
//! bounds-checked cursor are [`plexus_graph::format`]'s, re-exported here.

use crate::setup::PermutationMode;
use plexus_comm::fault::FaultPlan;
pub use plexus_graph::format::{
    digest, verify_shard_bytes, Cursor, HashingWriter, LoaderError, LoaderResult, Manifest,
    FORMAT_VERSION, MAGIC,
};
use plexus_graph::{LoadedDataset, MappedFile, RowSource};
use plexus_sparse::permute::{inverse_permutation, permuted_row_band};
use plexus_sparse::shard::split_range;
use plexus_sparse::Csr;
use plexus_tensor::Matrix;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::ffi::OsStr;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

/// Re-reads [`open_verified`] makes before a length or digest failure
/// becomes the caller's typed [`LoaderError`].
const MAX_READ_RETRIES: u64 = 1;
/// Backoff before a re-read (scaled by the attempt number).
const READ_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// The one gate every format file is opened through — shard, feature and
/// label files, spill reloads, checkpoint rank files, served models. It
/// maps `path`; fails it with a synthetic checksum mismatch when an armed
/// `faults` plan names it (matched on the file name); checks it against
/// its recorded `(digest, length)` and its header with
/// [`verify_shard_bytes`]; and on a length or digest failure maps it again
/// after a short backoff. A mismatch can be a transient fault (a torn page
/// cache, a file replaced mid-read by an atomic republish) as easily as
/// real corruption, and one re-read tells the two apart. Returns the
/// mapping, the payload offset (just past the header) and the number of
/// re-reads (0 on the clean path).
pub fn open_verified(
    path: &Path,
    (ck, len): (u64, u64),
    faults: Option<&FaultPlan>,
) -> LoaderResult<(MappedFile, usize, u64)> {
    let mut retries = 0;
    loop {
        let map = MappedFile::open(path)?;
        let injected = faults.is_some_and(|plan| {
            plan.shard_read_fails(&path.file_name().unwrap_or_default().to_string_lossy())
        });
        let verified = if injected {
            let file = path.to_path_buf();
            Err(LoaderError::ChecksumMismatch { file, stored: ck, computed: !ck })
        } else {
            verify_shard_bytes(map.bytes(), path, ck, len)
        };
        match verified {
            Ok(payload_at) => return Ok((map, payload_at, retries)),
            Err(LoaderError::ChecksumMismatch { .. } | LoaderError::Truncated { .. })
                if retries < MAX_READ_RETRIES =>
            {
                retries += 1;
                std::thread::sleep(READ_RETRY_BACKOFF * retries as u32);
            }
            Err(e) => return Err(e),
        }
    }
}

/// What one windowed load touched on disk: the §5.4 quantities (bytes a
/// rank actually read vs. the bytes it proved it could skip without
/// opening).
#[derive(Clone, Copy, Debug, Default)]
pub struct LoadStats {
    pub bytes_read: u64,
    pub bytes_skipped: u64,
    pub files_read: usize,
    pub files_skipped: usize,
    /// Of `bytes_read`, the bytes accessed through a read-only memory
    /// mapping (no heap copy of the file).
    pub bytes_mapped: u64,
    /// Of `bytes_read`, the bytes copied into an owned heap buffer (the
    /// portable fallback when mmap is unavailable).
    pub bytes_copied: u64,
    /// Reads that failed verification once and succeeded on the bounded
    /// re-read (transient-fault recovery; see [`open_verified`]).
    pub read_retries: u64,
}

impl LoadStats {
    /// Count one verified file, classifying its bytes as mapped or copied
    /// by which path [`MappedFile::open`] took.
    pub fn note_file_read(&mut self, map: &MappedFile) {
        self.files_read += 1;
        self.bytes_read += map.len() as u64;
        if map.is_mapped() {
            self.bytes_mapped += map.len() as u64;
        } else {
            self.bytes_copied += map.len() as u64;
        }
    }
}

/// Per-rank memory accounting for the ingest pipeline *and* the training
/// loop's activation state: I/O totals from [`LoadStats`], resident/peak
/// adjacency and feature bytes (the §5.4 claim — `~nnz/(G_r·G_c)` per
/// layer for the sharded path against a global copy of Â for the in-memory
/// path; a window decodes straight into its shard, so no merge buffer
/// adds to the adjacency peak), plus the activation-residency counters
/// synced from the trainer's
/// [`ActivationStore`](crate::activation::ActivationStore).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MemoryLedger {
    pub bytes_read: u64,
    pub bytes_skipped: u64,
    pub files_read: usize,
    pub files_skipped: usize,
    /// Of `bytes_read`, bytes served through memory mappings.
    pub bytes_mapped: u64,
    /// Of `bytes_read`, bytes copied into owned heap buffers.
    pub bytes_copied: u64,
    pub adjacency_resident_bytes: u64,
    pub peak_adjacency_bytes: u64,
    pub feature_resident_bytes: u64,
    pub peak_feature_bytes: u64,
    /// Activation bytes currently held by the trainer's activation store.
    pub activation_resident_bytes: u64,
    /// High-water mark of store-held activation bytes across all epochs.
    pub peak_activation_bytes: u64,
    /// Total activation bytes written to spill files.
    pub activation_spilled_bytes: u64,
    /// Total activation bytes read back from spill files.
    pub activation_reloaded_bytes: u64,
    /// Layer caches evicted to disk.
    pub activation_spill_events: u64,
    /// Layer caches re-derived from retained inputs during backward.
    pub activation_recompute_events: u64,
    /// Shard reads that failed verification once and succeeded on the
    /// bounded re-read.
    pub read_retries: u64,
    /// Spill-file reloads that failed verification once and succeeded on
    /// the bounded re-read.
    pub activation_reload_retries: u64,
}

impl MemoryLedger {
    /// Fold a windowed load's I/O counters into the totals.
    pub fn absorb(&mut self, s: &LoadStats) {
        self.bytes_read += s.bytes_read;
        self.bytes_skipped += s.bytes_skipped;
        self.files_read += s.files_read;
        self.files_skipped += s.files_skipped;
        self.bytes_mapped += s.bytes_mapped;
        self.bytes_copied += s.bytes_copied;
        self.read_retries += s.read_retries;
    }

    /// Account `bytes` of adjacency that stay resident after a load.
    pub fn note_adjacency_resident(&mut self, bytes: u64) {
        self.adjacency_resident_bytes += bytes;
        self.peak_adjacency_bytes = self.peak_adjacency_bytes.max(self.adjacency_resident_bytes);
    }

    /// Account `bytes` of features that stay resident after a load.
    pub fn note_feature_resident(&mut self, bytes: u64) {
        self.feature_resident_bytes += bytes;
        self.peak_feature_bytes = self.peak_feature_bytes.max(self.feature_resident_bytes);
    }

    /// Account a transient feature spike of `bytes`.
    pub fn note_feature_transient(&mut self, bytes: u64) {
        self.peak_feature_bytes = self.peak_feature_bytes.max(self.feature_resident_bytes + bytes);
    }

    /// Overwrite the activation counters with the store's cumulative
    /// stats. Called by the trainer at the end of every epoch; the peak
    /// only ever ratchets upward.
    pub fn sync_activation_stats(&mut self, s: &crate::activation::ActivationStats) {
        self.activation_resident_bytes = s.resident_bytes;
        self.peak_activation_bytes = self.peak_activation_bytes.max(s.peak_resident_bytes);
        self.activation_spilled_bytes = s.spilled_bytes;
        self.activation_reloaded_bytes = s.reloaded_bytes;
        self.activation_spill_events = s.spill_events;
        self.activation_recompute_events = s.recompute_events;
        self.activation_reload_retries = s.reload_retries;
    }

    /// One-line human summary (the example's per-rank report).
    pub fn summary(&self) -> String {
        format!(
            "read {:>12} B ({} mapped / {} copied), skipped {:>12} B ({:>3}/{:<3} files), peak adj {:>12} B, peak feat {:>12} B, peak act {:>12} B ({} spills, {} recomputes)",
            self.bytes_read,
            self.bytes_mapped,
            self.bytes_copied,
            self.bytes_skipped,
            self.files_read,
            self.files_read + self.files_skipped,
            self.peak_adjacency_bytes,
            self.peak_feature_bytes,
            self.peak_activation_bytes,
            self.activation_spill_events,
            self.activation_recompute_events
        )
    }
}

/// An on-disk 2D-sharded dataset (format v3).
///
/// Every store holds one adjacency (`adj_e_{i}_{j}.plx`: the `e` names the
/// even-layer operand) plus feature bands. Raw stores written by
/// [`ShardStore::create`] hold exactly that. Preprocessed stores written by
/// [`preprocess_to_store`] hold it permuted, plus labels/masks in node
/// order (`labels.plx`), making them sufficient to train from without ever
/// materializing the global problem.
#[derive(Clone)]
pub struct ShardStore {
    dir: PathBuf,
    pub grid_p: usize,
    pub grid_q: usize,
    pub rows: usize,
    pub cols: usize,
    pub feat_dim: usize,
    /// Class count of the source dataset (0 for raw stores).
    pub num_classes: usize,
    /// Number of training nodes (0 for raw stores).
    pub total_train: usize,
    /// §5.1 scheme baked into the shards (`None` for raw stores).
    pub perm_mode: Option<PermutationMode>,
    pub perm_seed: u64,
    /// Digest of the source dataset's full contents, so
    /// incremental re-preprocessing never reuses shards of a different
    /// graph (0 for raw stores).
    pub source_fp: u64,
    /// What the preprocessing run that produced this handle did (zeroed
    /// for raw stores and stores reopened via [`ShardStore::open`]; not
    /// persisted in the manifest).
    pub preprocess: PreprocessSummary,
    /// The manifest this store was opened from or last published: file
    /// name -> (digest, file length in bytes).
    manifest: Manifest,
    /// Armed fault-injection plan consulted on every verified read (test
    /// harness only; `None` — the production default — costs nothing).
    faults: Option<Arc<FaultPlan>>,
}

/// What one [`preprocess_to_store`] run wrote vs. reused: with an existing
/// up-to-date store in the target directory, matching shard files are
/// verified against the prior manifest's checksums and skipped instead of
/// regenerated (ROADMAP "Incremental / resumable preprocessing").
#[derive(Clone, Copy, Debug, Default)]
pub struct PreprocessSummary {
    pub files_written: usize,
    pub files_skipped: usize,
    pub bytes_written: u64,
    pub bytes_skipped: u64,
}

impl PreprocessSummary {
    /// One-line human summary (the example's preprocess report).
    pub fn report(&self) -> String {
        format!(
            "wrote {} files ({} B), reused {} files ({} B)",
            self.files_written, self.bytes_written, self.files_skipped, self.bytes_skipped
        )
    }
}

fn feat_name(i: usize) -> String {
    format!("feat_{}.plx", i)
}

/// The label/mask file of a preprocessed store, in node order.
const LABELS: &str = "labels.plx";

/// The store's index file.
const MANIFEST: &str = "manifest.txt";

/// Manifest spelling of each §5.1 scheme a store can hold (`None`: raw).
const PERM_MODES: [(Option<PermutationMode>, &str); 4] = [
    (None, "raw"),
    (Some(PermutationMode::None), "none"),
    (Some(PermutationMode::Single), "single"),
    (Some(PermutationMode::Double), "double"),
];

impl ShardStore {
    /// Write `a` (adjacency) and `features` into `dir` as a raw `p x q`
    /// shard grid (no labels). `dir` is created; existing shard files are
    /// overwritten.
    pub fn create(
        dir: &Path,
        a: &Csr,
        features: &Matrix,
        p: usize,
        q: usize,
    ) -> LoaderResult<ShardStore> {
        assert_eq!(a.rows(), features.rows(), "ShardStore: A and F row mismatch");
        assert!(p > 0 && q > 0, "ShardStore: empty grid");
        fs::create_dir_all(dir)?;
        let mut files = BTreeMap::new();
        for i in 0..p {
            let (r0, r1) = split_range(a.rows(), p, i);
            for j in 0..q {
                let (c0, c1) = split_range(a.cols(), q, j);
                let name = Self::shard_name(i, j);
                let entry = write_csr(&dir.join(&name), &a.block(r0, r1, c0, c1))?;
                files.insert(name, entry);
            }
            let name = feat_name(i);
            let entry = write_matrix(&dir.join(&name), &features.row_block(r0, r1))?;
            files.insert(name, entry);
        }
        let store = ShardStore {
            dir: dir.to_path_buf(),
            grid_p: p,
            grid_q: q,
            rows: a.rows(),
            cols: a.cols(),
            feat_dim: features.cols(),
            num_classes: 0,
            total_train: 0,
            perm_mode: None,
            perm_seed: 0,
            source_fp: 0,
            preprocess: PreprocessSummary::default(),
            manifest: Manifest::new(files),
            faults: None,
        };
        store.write_manifest()
    }

    /// Open an existing store by reading its manifest.
    pub fn open(dir: &Path) -> LoaderResult<ShardStore> {
        let m = Manifest::read(&dir.join(MANIFEST))?;
        let mode = m.get::<String>("perm_mode")?;
        let perm_mode = PERM_MODES.iter().find(|(_, name)| *name == mode).map(|&(p, _)| p);
        let perm_mode = perm_mode.ok_or_else(|| m.bad(format!("unknown perm_mode {}", mode)))?;
        let source_fp = u64::from_str_radix(&m.get::<String>("source_fp")?, 16)
            .map_err(|_| m.bad("unparsable field source_fp"))?;
        Ok(ShardStore {
            dir: dir.to_path_buf(),
            grid_p: m.get("p")?,
            grid_q: m.get("q")?,
            rows: m.get("rows")?,
            cols: m.get("cols")?,
            feat_dim: m.get("feat_dim")?,
            num_classes: m.get("classes")?,
            total_train: m.get("total_train")?,
            perm_mode,
            perm_seed: m.get("perm_seed")?,
            source_fp,
            preprocess: PreprocessSummary::default(),
            manifest: m,
            faults: None,
        })
    }

    /// A second handle onto the same on-disk store with `plan` armed on
    /// its read path: reads consult the plan and can be made to fail with
    /// a synthetic checksum mismatch. The original handle is untouched, so
    /// a faulted and a clean loader can run against one store.
    pub(crate) fn with_faults(&self, plan: Arc<FaultPlan>) -> ShardStore {
        ShardStore { faults: Some(plan), ..self.clone() }
    }

    /// Publish this store's manifest and keep it as the store's index.
    fn write_manifest(mut self) -> LoaderResult<ShardStore> {
        let (_, mode) =
            PERM_MODES.iter().find(|(p, _)| *p == self.perm_mode).expect("PERM_MODES lists all");
        self.manifest = Manifest::new(std::mem::take(&mut self.manifest.files))
            .with("p", self.grid_p)
            .with("q", self.grid_q)
            .with("rows", self.rows)
            .with("cols", self.cols)
            .with("feat_dim", self.feat_dim)
            .with("classes", self.num_classes)
            .with("total_train", self.total_train)
            .with("perm_mode", mode)
            .with("perm_seed", self.perm_seed)
            .with("source_fp", format!("{:016x}", self.source_fp))
            .publish(&self.dir.join(MANIFEST))?;
        Ok(self)
    }

    /// Total bytes of all shard files (what a naive loader would read on
    /// every rank).
    pub fn total_bytes(&self) -> LoaderResult<u64> {
        Ok(self.manifest.files.values().map(|&(_, len)| len).sum())
    }

    /// Cheap integrity check: every manifest entry exists on disk with the
    /// recorded length. Content checksums are verified lazily on load.
    pub fn validate_files(&self) -> LoaderResult<()> {
        for (name, &(_, len)) in &self.manifest.files {
            let path = self.dir.join(name);
            let meta =
                fs::metadata(&path).map_err(|_| LoaderError::Truncated { file: path.clone() })?;
            if meta.len() != len {
                return Err(LoaderError::Truncated { file: path });
            }
        }
        Ok(())
    }

    /// Map and verify the store file `name` through [`open_verified`],
    /// counting the read and any re-read in `stats`. Returns the read-only
    /// mapping and the payload offset: callers decode in place, and the
    /// serving artifact keeps its shards mapped for its lifetime.
    pub fn map_verified(
        &self,
        name: &str,
        stats: &mut LoadStats,
    ) -> LoaderResult<(MappedFile, usize)> {
        let entry = self.manifest.entry(name)?;
        let (map, payload_at, retries) =
            open_verified(&self.dir.join(name), entry, self.faults.as_deref())?;
        stats.read_retries += retries;
        stats.note_file_read(&map);
        Ok((map, payload_at))
    }

    /// Whether the manifest lists `labels.plx`: raw stores and stores written
    /// with per-parity label files do not.
    pub(crate) fn has_labels(&self) -> bool {
        self.manifest.files.contains_key(LABELS)
    }

    /// On-disk name of the adjacency shard at grid position `(i, j)`.
    pub fn shard_name(i: usize, j: usize) -> String {
        format!("adj_e_{}_{}.plx", i, j)
    }

    /// Map and verify the adjacency shard at grid position `(i, j)` through
    /// [`map_verified`](Self::map_verified), parse its CSR header and check
    /// its entries once ([`CsrPayload::check_entries`]). A shape other than
    /// the grid's `split_range` bounds is a `BadManifest` naming the shard,
    /// so a window never indexes past a shard that disagrees with the
    /// store it is listed in.
    fn map_adjacency_shard(
        &self,
        i: usize,
        j: usize,
        stats: &mut LoadStats,
    ) -> LoaderResult<(MappedFile, usize, CsrPayload)> {
        let name = Self::shard_name(i, j);
        let path = self.dir.join(&name);
        let (map, payload_at) = self.map_verified(&name, stats)?;
        let payload = &map.bytes()[payload_at..];
        let geom = CsrPayload::parse(payload, &path)?;
        let (sr0, sr1) = split_range(self.rows, self.grid_p, i);
        let (sc0, sc1) = split_range(self.cols, self.grid_q, j);
        if geom.rows != sr1 - sr0 || geom.cols != sc1 - sc0 {
            return Err(LoaderError::BadManifest {
                reason: format!("{}: shard shape disagrees with the grid", name),
            });
        }
        geom.check_entries(payload, &path)?;
        Ok((map, payload_at, geom))
    }

    /// Map the adjacency window `[r0, r1) x [c0, c1)`: exactly the shard
    /// files it intersects, each verified and checked once. Shard files
    /// wholly outside the window are never opened: their manifest-recorded
    /// sizes are counted as `bytes_skipped` in `stats` instead.
    pub fn map_window(
        &self,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
        stats: &mut LoadStats,
    ) -> LoaderResult<MappedWindow> {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols, "window out of bounds");
        let mut bands = Vec::new();
        for i in 0..self.grid_p {
            let (sr0, sr1) = split_range(self.rows, self.grid_p, i);
            let row_hit = sr1 > r0 && sr0 < r1;
            let mut shards = Vec::new();
            for j in 0..self.grid_q {
                let (sc0, sc1) = split_range(self.cols, self.grid_q, j);
                if !row_hit || sc1 <= c0 || sc0 >= c1 {
                    stats.files_skipped += 1;
                    stats.bytes_skipped += self.manifest.entry(&Self::shard_name(i, j))?.1;
                    continue;
                }
                let (map, payload_at, geom) = self.map_adjacency_shard(i, j, stats)?;
                // The window's columns, in shard-local coordinates.
                let (lc0, lc1) = (c0.max(sc0) - sc0, c1.min(sc1) - sc0);
                let shift = sc0.max(c0) - c0;
                shards.push(WindowShard { map, payload_at, geom, lc0, lc1, shift });
            }
            if row_hit {
                let (start, end) = (r0.max(sr0) - r0, r1.min(sr1) - r0);
                bands.push(WindowBand { start, end, skip: r0.max(sr0) - sr0, shards });
            }
        }
        Ok(MappedWindow { rows: r1 - r0, cols: c1 - c0, bands })
    }

    /// Load the adjacency window `[r0, r1) x [c0, c1)`: its
    /// [`map_window`](Self::map_window) handle, decoded whole.
    pub fn load_adjacency_window(
        &self,
        r0: usize,
        r1: usize,
        c0: usize,
        c1: usize,
    ) -> LoaderResult<(Csr, LoadStats)> {
        let mut stats = LoadStats::default();
        let window = self.map_window(r0, r1, c0, c1, &mut stats)?;
        Ok((window.decode_rows(0, r1 - r0), stats))
    }

    /// Load feature rows `[r0, r1)`, touching only intersecting band files
    /// and copying each band's rows into one preallocated matrix.
    pub fn load_feature_rows(&self, r0: usize, r1: usize) -> LoaderResult<(Matrix, LoadStats)> {
        assert!(r0 <= r1 && r1 <= self.rows, "feature window out of bounds");
        let mut stats = LoadStats::default();
        let d = self.feat_dim;
        let mut out = Matrix::zeros(r1 - r0, d);
        for i in 0..self.grid_p {
            let (sr0, sr1) = split_range(self.rows, self.grid_p, i);
            let name = feat_name(i);
            if sr1 <= r0 || sr0 >= r1 {
                stats.files_skipped += 1;
                stats.bytes_skipped += self.manifest.entry(&name)?.1;
                continue;
            }
            let (map, payload_at) = self.map_verified(&name, &mut stats)?;
            let (lo, hi) = (r0.max(sr0), r1.min(sr1));
            read_matrix_rows(
                &map.bytes()[payload_at..],
                &self.dir.join(&name),
                (sr1 - sr0, d),
                lo - sr0,
                &mut out.as_mut_slice()[(lo - r0) * d..(hi - r0) * d],
            )?;
        }
        Ok((out, stats))
    }

    /// Load the full label/train-mask vectors, in node order. Only
    /// preprocessed stores carry them.
    pub fn load_labels(&self) -> LoaderResult<(Vec<u32>, Vec<bool>, LoadStats)> {
        if !self.has_labels() {
            return Err(LoaderError::Missing { what: "labels.plx" });
        }
        let mut stats = LoadStats::default();
        let (map, payload_at) = self.map_verified(LABELS, &mut stats)?;
        let path = self.dir.join(LABELS);
        let mut cur = Cursor { bytes: &map.bytes()[payload_at..], pos: 0, path: &path };
        // Five bytes per node must be present before anything is allocated.
        let n = cur.count()?;
        if n.checked_mul(5).is_none_or(|b| b > cur.bytes.len() - cur.pos) {
            return Err(LoaderError::Truncated { file: path.clone() });
        }
        let mut labels = vec![0u32; n];
        cur.u32s_into(&mut labels)?;
        let mask = cur.take(n)?.iter().map(|&b| b != 0).collect();
        Ok((labels, mask, stats))
    }
}

/// Offline preprocessing (§5.1 + §5.4): permute `ds`'s adjacency with
/// `mode`/`perm_seed` into the even-layer operand `P_r Â P_cᵀ` and write
/// it, plus permuted feature bands and the labels/masks in node order,
/// into a `p x q` [`ShardStore`] at `dir`, streaming one row band at a
/// time. Panics unless `Â == Âᵀ`: odd layers read this one operand
/// transposed. That check builds `Âᵀ` once and drops it before the first
/// band; after it, peak extra memory over the source dataset is one band
/// (`~nnz/p`) per worker, never a second full copy of Â.
///
/// Row bands are processed in parallel (ROADMAP "Parallel store writes"):
/// each band permutes and writes its shard files under temporary names,
/// and the coordinator renames them into the final manifest order once
/// every band has finished — output is byte-for-byte identical whatever
/// the pool size (a one-worker pool is the sequential loop), asserted by
/// the equivalence test.
///
/// Re-preprocessing into a directory that already holds an up-to-date
/// store with the same parameters and the same source fingerprint skips
/// every shard file whose on-disk bytes still hash to the prior manifest's
/// checksum; [`ShardStore::preprocess`] reports what was written vs.
/// reused. A store written with per-parity files (`labels_e.plx`,
/// `labels_o.plx` and odd shards) reuses its even shards the same way and
/// gains `labels.plx`.
///
/// Once the new manifest is published, every file the prior manifest
/// listed and the new one does not (per-parity files, the shards of a
/// larger grid) is deleted. A crash before the deletes leaves orphans
/// beside a complete store, never a manifest naming a missing file, and a
/// file no manifest listed is never touched.
///
/// Training from the resulting store via
/// [`crate::trainer::train_from_source`] is bitwise identical to the
/// in-memory path with the same permutation options.
pub fn preprocess_to_store(
    ds: &LoadedDataset,
    dir: &Path,
    mode: PermutationMode,
    perm_seed: u64,
    p: usize,
    q: usize,
) -> LoaderResult<ShardStore> {
    assert!(p > 0 && q > 0, "preprocess_to_store: empty grid");
    assert!(ds.adjacency.transposed() == ds.adjacency, "preprocess_to_store: Â must be symmetric");
    let n = ds.num_nodes();
    let (pr, pc) = crate::setup::build_permutations(mode, perm_seed, n);
    fs::create_dir_all(dir)?;
    let listed_before = Manifest::read(&dir.join(MANIFEST)).map(|m| m.files).unwrap_or_default();
    let mut store = ShardStore {
        dir: dir.to_path_buf(),
        grid_p: p,
        grid_q: q,
        rows: n,
        cols: n,
        feat_dim: ds.features.cols(),
        num_classes: ds.num_classes,
        total_train: ds.split.num_train(),
        perm_mode: Some(mode),
        perm_seed,
        source_fp: dataset_fingerprint(ds)?,
        preprocess: PreprocessSummary::default(),
        manifest: Manifest::new(BTreeMap::new()),
        faults: None,
    };
    let prior = reusable_prior_files(&store);
    let mut files = BTreeMap::new();

    // The even-layer adjacency operand, band by band.
    let inv_pr = inverse_permutation(&pr);
    let outs = run_bands(p, |i| adj_band_files(ds, &store, &prior, &inv_pr, &pc, i))?;
    collect_band_files(dir, outs, &mut files, &mut store.preprocess)?;

    // Features in even-layer input order (`P_c` applied), band by band.
    let inv_pc = inverse_permutation(&pc);
    let outs = run_bands(p, |i| feat_band_files(ds, &store, &prior, &inv_pc, i))?;
    collect_band_files(dir, outs, &mut files, &mut store.preprocess)?;

    // Labels/masks in node order; a reader permutes them (one small file).
    let name = LABELS.to_string();
    let out = if let Some(entry) = verified_prior_entry(dir, &prior, &name) {
        BandFile { name, entry, written: false }
    } else {
        let entry = write_labels(&temp_path(dir, &name), &ds.labels, &ds.split.train)?;
        BandFile { name, entry, written: true }
    };
    collect_band_files(dir, vec![vec![out]], &mut files, &mut store.preprocess)?;

    store.manifest = Manifest::new(files);
    let store = store.write_manifest()?;
    for name in listed_before.keys().filter(|&name| !store.manifest.files.contains_key(name)) {
        // Only a plain file name inside `dir`, never the manifest itself. A
        // delete that fails leaves an orphan, as a crash before it would.
        if Path::new(name).file_name() == Some(OsStr::new(name)) && name != MANIFEST {
            let _ = fs::remove_file(dir.join(name));
        }
    }
    Ok(store)
}

/// One file a preprocessing band produced: its manifest entry plus whether
/// a fresh temp file awaits renaming (vs. an existing verified file that
/// was reused in place).
struct BandFile {
    name: String,
    entry: (u64, u64),
    written: bool,
}

fn temp_path(dir: &Path, name: &str) -> PathBuf {
    dir.join(format!("{}.tmp", name))
}

/// Run `f` over every row band: one task per band on the persistent
/// worker pool, each writing its own temp files — no shared mutable state.
/// On a one-worker pool (`PLEXUS_THREADS=1`) this is the sequential loop.
fn run_bands<F>(p: usize, f: F) -> LoaderResult<Vec<Vec<BandFile>>>
where
    F: Fn(usize) -> LoaderResult<Vec<BandFile>> + Sync,
{
    let mut slots: Vec<Option<LoaderResult<Vec<BandFile>>>> = (0..p).map(|_| None).collect();
    slots.as_mut_slice().par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
        slot[0] = Some(f(i));
    });
    slots.into_iter().map(|s| s.expect("band slot filled")).collect()
}

/// Land every band's files in deterministic (band-major, then shard) order:
/// fresh temp files are renamed to their final names, reused files are
/// counted as skipped, and all entries join the manifest map.
fn collect_band_files(
    dir: &Path,
    outs: Vec<Vec<BandFile>>,
    files: &mut BTreeMap<String, (u64, u64)>,
    summary: &mut PreprocessSummary,
) -> LoaderResult<()> {
    for band in outs {
        for bf in band {
            if bf.written {
                fs::rename(temp_path(dir, &bf.name), dir.join(&bf.name))?;
                summary.files_written += 1;
                summary.bytes_written += bf.entry.1;
            } else {
                summary.files_skipped += 1;
                summary.bytes_skipped += bf.entry.1;
            }
            files.insert(bf.name, bf.entry);
        }
    }
    Ok(())
}

/// Permute and shard row band `i` of `store`'s adjacency. When every one of
/// the band's `q` shard files verifies against the prior manifest, the
/// permutation work is skipped entirely; otherwise stale files are
/// rewritten to temp names.
fn adj_band_files(
    ds: &LoadedDataset,
    store: &ShardStore,
    prior: &BTreeMap<String, (u64, u64)>,
    inv_row: &[u32],
    colp: &[u32],
    i: usize,
) -> LoaderResult<Vec<BandFile>> {
    let (dir, n, q) = (&store.dir, store.rows, store.grid_q);
    let reuse: Vec<Option<(String, (u64, u64))>> = (0..q)
        .map(|j| {
            let name = ShardStore::shard_name(i, j);
            verified_prior_entry(dir, prior, &name).map(|e| (name, e))
        })
        .collect();
    if reuse.iter().all(|r| r.is_some()) {
        return Ok(reuse
            .into_iter()
            .map(|r| {
                let (name, entry) = r.expect("checked all_some");
                BandFile { name, entry, written: false }
            })
            .collect());
    }
    let (r0, r1) = split_range(n, store.grid_p, i);
    let band = permuted_row_band(&ds.adjacency, inv_row, colp, r0, r1);
    let mut out = Vec::with_capacity(q);
    for (j, r) in reuse.into_iter().enumerate() {
        if let Some((name, entry)) = r {
            out.push(BandFile { name, entry, written: false });
            continue;
        }
        let (c0, c1) = split_range(n, q, j);
        let name = ShardStore::shard_name(i, j);
        let entry = write_csr(&temp_path(dir, &name), &band.block(0, band.rows(), c0, c1))?;
        out.push(BandFile { name, entry, written: true });
    }
    Ok(out)
}

/// Gather and write feature row band `i` of `store` (or verify and reuse
/// it).
fn feat_band_files(
    ds: &LoadedDataset,
    store: &ShardStore,
    prior: &BTreeMap<String, (u64, u64)>,
    inv_pc: &[u32],
    i: usize,
) -> LoaderResult<Vec<BandFile>> {
    let name = feat_name(i);
    if let Some(entry) = verified_prior_entry(&store.dir, prior, &name) {
        return Ok(vec![BandFile { name, entry, written: false }]);
    }
    let (r0, r1) = split_range(store.rows, store.grid_p, i);
    let rows: Vec<usize> = inv_pc[r0..r1].iter().map(|&x| x as usize).collect();
    let entry = write_matrix(&temp_path(&store.dir, &name), &ds.features.gather_rows(&rows))?;
    Ok(vec![BandFile { name, entry, written: true }])
}

/// The prior manifest entry for `name`, but only when the bytes on disk
/// still hash to it (a tampered or truncated file is rewritten, never
/// trusted). One look, no re-read: a mismatch already means the file is
/// rewritten, so [`open_verified`]'s retry could not help.
fn verified_prior_entry(
    dir: &Path,
    prior: &BTreeMap<String, (u64, u64)>,
    name: &str,
) -> Option<(u64, u64)> {
    let &(ck, len) = prior.get(name)?;
    match MappedFile::open(&dir.join(name)) {
        Ok(map) if map.len() as u64 == len && digest(map.bytes()) == ck => Some((ck, len)),
        _ => None,
    }
}

/// The file map of the store already in `fresh`'s directory when — and
/// only when — it was produced by an identical preprocessing run: same
/// grid, shape, permutation parameters and source-dataset fingerprint.
/// Anything else (raw store, different seed, different dataset, unreadable
/// manifest) disables reuse.
fn reusable_prior_files(fresh: &ShardStore) -> BTreeMap<String, (u64, u64)> {
    let run = |s: &ShardStore| {
        (s.grid_p, s.grid_q, s.rows, s.cols, s.feat_dim, s.perm_mode, s.perm_seed, s.source_fp)
    };
    match ShardStore::open(&fresh.dir) {
        Ok(prior) if fresh.source_fp != 0 && run(&prior) == run(fresh) => prior.manifest.files,
        _ => BTreeMap::new(),
    }
}

/// Content fingerprint of everything preprocessing consumes: adjacency
/// structure and values, features, labels, train mask and the shape
/// constants. Recorded in the manifest so incremental re-preprocessing
/// never reuses shards of a different graph that happens to share shapes.
fn dataset_fingerprint(ds: &LoadedDataset) -> io::Result<u64> {
    let a = &ds.adjacency;
    let mut h = HashingWriter::new(io::sink());
    h.put_u64s(&[a.rows(), a.cols(), a.nnz(), ds.features.cols(), ds.num_classes])?;
    h.put_u64s(a.row_ptr())?;
    h.put_u32s(a.col_idx())?;
    h.put_f32s(a.values())?;
    h.put_f32s(ds.features.as_slice())?;
    h.put_u32s(&ds.labels)?;
    h.put(&mask_bytes(&ds.split.train))?;
    Ok(h.finish()?.0)
}

/// A bool mask as the one-byte-per-entry form the label files store.
fn mask_bytes(mask: &[bool]) -> Vec<u8> {
    mask.iter().map(|&m| m as u8).collect()
}

// ---------------------------------------------------------------------------
// Binary encoding: [MAGIC u64][FORMAT_VERSION u64][payload], little-endian,
// with the whole file's digest recorded in the manifest.

fn write_csr(path: &Path, a: &Csr) -> LoaderResult<(u64, u64)> {
    let mut w = HashingWriter::create(path)?;
    w.header()?;
    w.put_u64s(&[a.rows(), a.cols(), a.nnz()])?;
    w.put_u64s(a.row_ptr())?;
    w.put_u32s(a.col_idx())?;
    w.put_f32s(a.values())?;
    Ok(w.finish()?)
}

fn write_matrix(path: &Path, m: &Matrix) -> LoaderResult<(u64, u64)> {
    let mut w = HashingWriter::create(path)?;
    w.header()?;
    w.put_matrix(m)?;
    Ok(w.finish()?)
}

fn write_labels(path: &Path, labels: &[u32], mask: &[bool]) -> LoaderResult<(u64, u64)> {
    assert_eq!(labels.len(), mask.len(), "write_labels: length mismatch");
    let mut w = HashingWriter::create(path)?;
    w.header()?;
    w.put_u64(labels.len() as u64)?;
    w.put_u32s(labels)?;
    w.put(&mask_bytes(mask))?;
    Ok(w.finish()?)
}

/// Geometry of a CSR payload: byte offsets of the row-pointer, column and
/// value arrays, computed once so rows can be decoded in place from a
/// mapping without materializing the shard. Payload layout (after the
/// 16-byte file header): `rows u64, cols u64, nnz u64, row_ptr
/// (rows+1)×u64, col_idx nnz×u32, values nnz×f32`, little-endian.
#[derive(Clone, Copy, Debug)]
struct CsrPayload {
    rows: usize,
    cols: usize,
    nnz: usize,
    /// Byte offset (within the payload) of `row_ptr[0]`.
    row_ptr_at: usize,
    /// Byte offset of `col_idx[0]`.
    col_idx_at: usize,
    /// Byte offset of `values[0]`.
    values_at: usize,
}

impl CsrPayload {
    /// Parse and bounds-check the header of a CSR payload.
    fn parse(payload: &[u8], path: &Path) -> LoaderResult<CsrPayload> {
        let mut cur = Cursor { bytes: payload, pos: 0, path };
        let (rows, cols, nnz) = (cur.count()?, cur.count()?, cur.count()?);
        let row_ptr_at = cur.pos;
        // Every offset is derived from header fields: checked, so a hostile
        // count is a short file rather than a wrapped offset.
        let geom = (|| {
            let col_idx_at = row_ptr_at.checked_add(rows.checked_add(1)?.checked_mul(8)?)?;
            let values_at = col_idx_at.checked_add(nnz.checked_mul(4)?)?;
            let end = values_at.checked_add(nnz.checked_mul(4)?)?;
            (end <= payload.len()).then_some(CsrPayload {
                rows,
                cols,
                nnz,
                row_ptr_at,
                col_idx_at,
                values_at,
            })
        })();
        geom.ok_or_else(|| LoaderError::Truncated { file: path.to_path_buf() })
    }

    /// `row_ptr[r]`, decoded from the payload.
    fn row_start(&self, payload: &[u8], r: usize) -> usize {
        le_u64(payload, self.row_ptr_at + 8 * r) as usize
    }

    /// Column id of entry `k`.
    fn col(&self, payload: &[u8], k: usize) -> u32 {
        le_u32(payload, self.col_idx_at + 4 * k)
    }

    /// One pass over every row pointer and column id, so rows decode
    /// without per-row checks afterwards: `row_ptr` must start at 0, never
    /// decrease and end at `nnz` (else `Truncated`), and within every row
    /// the column ids must strictly increase and stay below `cols` (else
    /// `BadManifest` naming the file).
    fn check_entries(&self, payload: &[u8], path: &Path) -> LoaderResult<()> {
        let bad = |what: &str| LoaderError::BadManifest {
            reason: format!("{}: {}", path.display(), what),
        };
        let truncated = || LoaderError::Truncated { file: path.to_path_buf() };
        if self.row_start(payload, 0) != 0 || self.row_start(payload, self.rows) != self.nnz {
            return Err(truncated());
        }
        let cols = &payload[self.col_idx_at..self.values_at];
        let mut p0 = 0;
        for r in 1..=self.rows {
            let p1 = self.row_start(payload, r);
            if p1 < p0 || p1 > self.nnz {
                return Err(truncated());
            }
            // Strictly increasing: each id is at least one past the last.
            let mut next = 0;
            for b in cols[4 * p0..4 * p1].chunks_exact(4) {
                let c = le_u32(b, 0) as usize;
                if c >= self.cols {
                    return Err(bad("column id outside the shard"));
                }
                if c < next {
                    return Err(bad("column ids not increasing within a row"));
                }
                next = c + 1;
            }
            p0 = p1;
        }
        Ok(())
    }
}

/// The adjacency shards one window intersects, mapped, verified and
/// checked once by [`ShardStore::map_window`]. Rows decode straight out
/// of the mappings in window coordinates — row `v` is store row `r0 + v`,
/// column `c` is store column `c0 + c` — either one at a time
/// ([`RowSource`], over a square window such as the serving artifact's
/// whole store) or as a row range into one [`Csr`]
/// ([`decode_rows`](Self::decode_rows)).
pub struct MappedWindow {
    rows: usize,
    cols: usize,
    /// The intersecting shard row bands, in row order.
    bands: Vec<WindowBand>,
}

/// One shard row band of a [`MappedWindow`]: window rows `[start, end)`,
/// which are shard-local rows `skip..`, over its shards in column order.
struct WindowBand {
    start: usize,
    end: usize,
    skip: usize,
    shards: Vec<WindowShard>,
}

/// One mapped, checked shard of a [`WindowBand`]: the window's columns are
/// its shard-local `[lc0, lc1)`, which land at window column `shift..`.
struct WindowShard {
    map: MappedFile,
    payload_at: usize,
    geom: CsrPayload,
    lc0: usize,
    lc1: usize,
    shift: usize,
}

impl WindowShard {
    /// Append the window's entries of shard-local row `r`, in window
    /// column coordinates. `check_entries` vouched for the row pointers and
    /// sorted columns, so only the window's column range is searched for.
    fn push_row(&self, r: usize, cols: &mut Vec<u32>, vals: Option<&mut Vec<f32>>) {
        let (g, payload) = (&self.geom, &self.map.bytes()[self.payload_at..]);
        let (p0, p1) = (g.row_start(payload, r), g.row_start(payload, r + 1));
        let (lc0, lc1) = (self.lc0 as u32, self.lc1 as u32);
        let s = if lc0 == 0 { p0 } else { lower_bound(p0, p1, |k| g.col(payload, k) < lc0) };
        let e =
            if self.lc1 == g.cols { p1 } else { lower_bound(s, p1, |k| g.col(payload, k) < lc1) };
        let shift = self.shift as u32;
        let col_bytes = &payload[g.col_idx_at + 4 * s..g.col_idx_at + 4 * e];
        cols.extend(col_bytes.chunks_exact(4).map(|b| le_u32(b, 0) - lc0 + shift));
        if let Some(vals) = vals {
            let val_bytes = &payload[g.values_at + 4 * s..g.values_at + 4 * e];
            vals.extend(val_bytes.chunks_exact(4).map(|b| le_f32(b, 0)));
        }
    }
}

impl MappedWindow {
    /// Window row ranges `[start, end)` of the shard row bands, in order:
    /// a caller that decodes the window piecewise can keep one band's rows
    /// at a time.
    pub fn bands(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.bands.iter().map(|b| (b.start, b.end))
    }

    /// Decode window rows `[r0, r1)` into one `(r1 - r0) x cols` [`Csr`].
    pub fn decode_rows(&self, r0: usize, r1: usize) -> Csr {
        assert!(r0 <= r1 && r1 <= self.rows, "decode_rows: rows out of the window");
        let mut row_ptr = Vec::with_capacity(r1 - r0 + 1);
        row_ptr.push(0usize);
        let (mut col_idx, mut values) = (Vec::new(), Vec::new());
        for b in &self.bands {
            for v in r0.max(b.start)..r1.min(b.end) {
                for s in &b.shards {
                    s.push_row(v - b.start + b.skip, &mut col_idx, Some(&mut values));
                }
                row_ptr.push(col_idx.len());
            }
        }
        Csr::from_raw(r1 - r0, self.cols, row_ptr, col_idx, values)
    }

    /// Append row `v`'s entries: its band's shards, in column order.
    fn push_row(&self, v: u32, cols: &mut Vec<u32>, mut vals: Option<&mut Vec<f32>>) {
        let v = v as usize;
        let b = &self.bands[self.bands.partition_point(|b| b.end <= v)];
        for s in &b.shards {
            s.push_row(v - b.start + b.skip, cols, vals.as_deref_mut());
        }
    }
}

impl RowSource for MappedWindow {
    fn num_nodes(&self) -> usize {
        self.rows
    }

    fn row_support(&self, v: u32, out: &mut Vec<u32>) {
        self.push_row(v, out, None)
    }

    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>) {
        self.push_row(v, cols, Some(vals))
    }
}

/// Copy rows `r0..` of a matrix payload into `out` (a whole number of
/// rows), in place. Payload layout: `rows u64, cols u64, rows·cols×f32`
/// row-major, little-endian. A payload whose shape is not `shape` is a
/// `BadManifest` naming the file.
fn read_matrix_rows(
    payload: &[u8],
    path: &Path,
    shape: (usize, usize),
    r0: usize,
    out: &mut [f32],
) -> LoaderResult<()> {
    let mut cur = Cursor { bytes: payload, pos: 0, path };
    if cur.matrix_shape()? != shape {
        return Err(LoaderError::BadManifest {
            reason: format!("{}: feature band shape disagrees with the store", path.display()),
        });
    }
    // `matrix_shape` vouched for all `rows * cols` values: skip to row `r0`.
    cur.pos += 4 * r0 * shape.1;
    cur.f32s_into(out)
}

#[inline]
fn le_u64(b: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(b[off..off + 8].try_into().expect("offset bounds-checked by caller"))
}

#[inline]
fn le_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("offset bounds-checked by caller"))
}

#[inline]
fn le_f32(b: &[u8], off: usize) -> f32 {
    f32::from_le_bytes(b[off..off + 4].try_into().expect("offset bounds-checked by caller"))
}

/// First index in `[lo, hi)` for which `below` is false (all `below`
/// entries precede all non-`below` ones — the sorted-columns invariant).
fn lower_bound(mut lo: usize, mut hi: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sparse::Coo;
    use plexus_tensor::uniform_matrix;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("plexus_loader_{}_{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn random_csr(n: usize, seed: u64) -> Csr {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(n, n);
        for _ in 0..n * 5 {
            coo.push(
                rng.random_range(0..n as u32),
                rng.random_range(0..n as u32),
                rng.random_range(-1.0f32..1.0),
            );
        }
        coo.to_csr()
    }

    #[test]
    fn round_trip_whole_matrix() {
        let dir = temp_dir("round");
        let a = random_csr(40, 1);
        let f = uniform_matrix(40, 6, -1.0, 1.0, 2);
        let store = ShardStore::create(&dir, &a, &f, 4, 4).unwrap();
        let (a2, _) = store.load_adjacency_window(0, 40, 0, 40).unwrap();
        assert_eq!(a2, a);
        let (f2, _) = store.load_feature_rows(0, 40).unwrap();
        assert_eq!(f2, f);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn window_load_matches_direct_block() {
        let dir = temp_dir("window");
        let a = random_csr(48, 3);
        let f = uniform_matrix(48, 4, -1.0, 1.0, 4);
        let store = ShardStore::create(&dir, &a, &f, 4, 4).unwrap();
        for (r0, r1, c0, c1) in [(0, 12, 0, 48), (12, 24, 24, 48), (5, 43, 7, 29), (24, 36, 0, 12)]
        {
            let (blk, _) = store.load_adjacency_window(r0, r1, c0, c1).unwrap();
            assert_eq!(blk, a.block(r0, r1, c0, c1), "window {:?}", (r0, r1, c0, c1));
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn partial_window_reads_less_and_accounts_skips() {
        // The §5.4 claim in miniature: one rank's window touches a fraction
        // of the files a full load would, and the skipped files' bytes are
        // reported without opening them.
        let dir = temp_dir("partial");
        let a = random_csr(64, 5);
        let f = uniform_matrix(64, 8, -1.0, 1.0, 6);
        let store = ShardStore::create(&dir, &a, &f, 8, 8).unwrap();
        let total = store.total_bytes().unwrap();
        let (_, stats) = store.load_adjacency_window(0, 8, 0, 8).unwrap();
        assert!(
            stats.bytes_read * 8 < total,
            "1/64 window read {} of {} total bytes",
            stats.bytes_read,
            total
        );
        assert_eq!(stats.files_read, 1);
        assert_eq!(stats.files_skipped, 63);
        // Read + skipped cover every adjacency file exactly once.
        let adj_total: u64 = (0..8)
            .flat_map(|i| (0..8).map(move |j| ShardStore::shard_name(i, j)))
            .map(|n| store.manifest.entry(&n).unwrap().1)
            .sum();
        assert_eq!(stats.bytes_read + stats.bytes_skipped, adj_total);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_read_byte_is_classified_mapped_or_copied() {
        let dir = temp_dir("mapped");
        let a = random_csr(64, 19);
        let f = uniform_matrix(64, 8, -1.0, 1.0, 20);
        let store = ShardStore::create(&dir, &a, &f, 8, 8).unwrap();
        let mut ledger = MemoryLedger::default();
        let (_, stats) = store.load_adjacency_window(0, 8, 0, 8).unwrap();
        ledger.absorb(&stats);
        let (_, fstats) = store.load_feature_rows(0, 8).unwrap();
        ledger.absorb(&fstats);
        // The mapped/copied split partitions bytes_read exactly, and on
        // x86_64-linux the mmap path serves everything.
        assert_eq!(ledger.bytes_mapped + ledger.bytes_copied, ledger.bytes_read);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(ledger.bytes_copied, 0, "window loads still copy files through the heap");
        assert!(ledger.summary().contains("mapped"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_from_manifest() {
        let dir = temp_dir("reopen");
        let a = random_csr(20, 7);
        let f = uniform_matrix(20, 3, -1.0, 1.0, 8);
        ShardStore::create(&dir, &a, &f, 2, 2).unwrap();
        let store = ShardStore::open(&dir).unwrap();
        assert_eq!((store.grid_p, store.grid_q), (2, 2));
        assert_eq!(store.rows, 20);
        assert_eq!(store.feat_dim, 3);
        assert!(store.perm_mode.is_none());
        store.validate_files().unwrap();
        let (a2, _) = store.load_adjacency_window(0, 20, 0, 20).unwrap();
        assert_eq!(a2, a);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn feature_window_load() {
        let dir = temp_dir("featwin");
        let a = random_csr(30, 9);
        let f = uniform_matrix(30, 5, -1.0, 1.0, 10);
        let store = ShardStore::create(&dir, &a, &f, 3, 3).unwrap();
        let (blk, stats) = store.load_feature_rows(11, 19).unwrap();
        assert_eq!(blk, f.row_block(11, 19));
        assert!(stats.bytes_read > 0);
        // Rows [11, 19) live entirely inside band 1 of [0,10)/[10,20)/[20,30).
        assert_eq!(stats.files_read, 1);
        assert_eq!(stats.files_skipped, 2);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_shard_is_a_typed_checksum_error() {
        let dir = temp_dir("corrupt");
        let a = random_csr(16, 11);
        let f = uniform_matrix(16, 2, -1.0, 1.0, 12);
        let store = ShardStore::create(&dir, &a, &f, 2, 2).unwrap();
        // Flip one payload byte of a shard the window needs.
        let victim = dir.join(ShardStore::shard_name(0, 0));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        match store.load_adjacency_window(0, 16, 0, 16) {
            Err(LoaderError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn version_mismatch_is_a_typed_error() {
        let dir = temp_dir("version");
        let a = random_csr(16, 13);
        let f = uniform_matrix(16, 2, -1.0, 1.0, 14);
        ShardStore::create(&dir, &a, &f, 1, 1).unwrap();
        // Rewrite a shard with a bumped version header and a manifest-
        // consistent checksum: only the version check can catch it.
        let victim = dir.join(ShardStore::shard_name(0, 0));
        let mut bytes = fs::read(&victim).unwrap();
        bytes[8..16].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&victim, &bytes).unwrap();
        let mut patched = ShardStore::open(&dir).unwrap();
        let entry = (digest(&bytes), bytes.len() as u64);
        patched.manifest.files.insert(ShardStore::shard_name(0, 0), entry);
        match patched.load_adjacency_window(0, 16, 0, 16) {
            Err(LoaderError::VersionMismatch { found, expected, .. }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {:?}", other.map(|_| ())),
        }
        // An old-format manifest is rejected the same way.
        fs::write(dir.join("manifest.txt"), "p = 1\nq = 1\nrows = 16\ncols = 16\nfeat_dim = 2\n")
            .unwrap();
        assert!(matches!(
            ShardStore::open(&dir),
            Err(LoaderError::BadManifest { .. } | LoaderError::VersionMismatch { .. })
        ));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn v2_store_is_refused_and_never_reused() {
        use plexus_graph::{datasets::OGBN_PRODUCTS, LoadedDataset};
        let ds = LoadedDataset::generate(OGBN_PRODUCTS, 64, Some(4), 37);
        let dir = temp_dir("v2");
        let mut store = preprocess_to_store(&ds, &dir, PermutationMode::Double, 5, 2, 2).unwrap();
        let total_files = store.preprocess.files_written;
        // Relabel the manifest as format 2: what a directory written by the
        // previous format looks like to this build.
        let manifest = fs::read_to_string(dir.join("manifest.txt")).unwrap();
        assert!(manifest.starts_with("format = 3\n"));
        fs::write(dir.join("manifest.txt"), manifest.replacen("format = 3", "format = 2", 1))
            .unwrap();
        match ShardStore::open(&dir) {
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. }) => {}
            other => panic!("expected VersionMismatch 2 -> 3, got {:?}", other.map(|_| ())),
        }
        // A shard file carrying version word 2 under a v3 manifest entry
        // that matches its bytes is refused by the header check.
        let victim = ShardStore::shard_name(0, 0);
        let mut bytes = fs::read(dir.join(&victim)).unwrap();
        bytes[8..16].copy_from_slice(&2u64.to_le_bytes());
        store.manifest.files.insert(victim.clone(), (digest(&bytes), bytes.len() as u64));
        fs::write(dir.join(&victim), &bytes).unwrap();
        match store.map_verified(&victim, &mut LoadStats::default()) {
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. }) => {}
            other => panic!("expected VersionMismatch 2 -> 3, got {:?}", other.map(|_| ())),
        }
        // Re-preprocessing over the v2 directory trusts none of it.
        let again = preprocess_to_store(&ds, &dir, PermutationMode::Double, 5, 2, 2).unwrap();
        assert_eq!(again.preprocess.files_skipped, 0, "reused files of a v2 store");
        assert_eq!(again.preprocess.files_written, total_files);
        ShardStore::open(&dir).unwrap();
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn hostile_shard_headers_are_truncated_not_wraps_or_panics() {
        let path = Path::new("hostile.plx");
        let payload = |fields: &[u64]| -> Vec<u8> {
            let mut b: Vec<u8> = fields.iter().flat_map(|f| f.to_le_bytes()).collect();
            b.extend_from_slice(&[0u8; 64]);
            b
        };
        let truncated = |r: LoaderResult<()>| matches!(r, Err(LoaderError::Truncated { .. }));
        // CSR: `8 * (rows + 1)` and `4 * nnz` must not wrap.
        for (rows, nnz) in [
            (u64::MAX, 0),
            (u64::MAX - 1, 0),
            (1 << 61, 0),
            (0, u64::MAX),
            (0, 1 << 62),
            (1, 1 << 61),
        ] {
            let p = payload(&[rows, 4, nnz]);
            assert!(
                truncated(CsrPayload::parse(&p, path).map(|_| ())),
                "rows {} nnz {}",
                rows,
                nnz
            );
        }
        // Matrix: `4 * rows * cols` must not wrap.
        for (rows, cols) in [(u64::MAX, u64::MAX), (1 << 62, 1), (1 << 31, 1 << 31), (1, u64::MAX)]
        {
            let p = payload(&[rows, cols]);
            assert!(
                truncated(read_matrix_rows(&p, path, (0, 0), 0, &mut [])),
                "{} x {}",
                rows,
                cols
            );
        }
        // An honest header still parses.
        CsrPayload::parse(&payload(&[3, 4, 2]), path).unwrap();
        read_matrix_rows(&payload(&[2, 3]), path, (2, 3), 0, &mut [0.0; 6]).unwrap();
        // A band of another shape than the store's is a typed error.
        let reshaped = read_matrix_rows(&payload(&[2, 3]), path, (3, 2), 0, &mut []);
        assert!(matches!(reshaped, Err(LoaderError::BadManifest { .. })));
    }

    #[test]
    fn truncated_shard_is_a_typed_error() {
        let dir = temp_dir("trunc");
        let a = random_csr(16, 15);
        let f = uniform_matrix(16, 2, -1.0, 1.0, 16);
        let store = ShardStore::create(&dir, &a, &f, 1, 1).unwrap();
        let victim = dir.join(ShardStore::shard_name(0, 0));
        let bytes = fs::read(&victim).unwrap();
        fs::write(&victim, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.load_adjacency_window(0, 16, 0, 16),
            Err(LoaderError::Truncated { .. })
        ));
        assert!(store.validate_files().is_err());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn parallel_preprocess_is_bitwise_identical_to_serial() {
        use plexus_graph::{datasets::OGBN_PRODUCTS, LoadedDataset};
        let ds = LoadedDataset::generate(OGBN_PRODUCTS, 96, Some(6), 23);
        let dir_par = temp_dir("par");
        let dir_ser = temp_dir("ser");
        // A one-worker pool is the sequential band loop; four workers
        // really interleave the four bands.
        let on_pool = |threads: usize, dir: &Path| {
            rayon::ThreadPool::new(threads).install(|| {
                preprocess_to_store(&ds, dir, PermutationMode::Double, 9, 4, 3).unwrap()
            })
        };
        let par = on_pool(4, &dir_par);
        let ser = on_pool(1, &dir_ser);
        assert_eq!(par.manifest.files, ser.manifest.files, "manifest entries differ");
        for name in par.manifest.files.keys() {
            let a = fs::read(dir_par.join(name)).unwrap();
            let b = fs::read(dir_ser.join(name)).unwrap();
            assert_eq!(a, b, "{} differs between parallel and serial writers", name);
        }
        // Manifests byte-identical too (same fields, same sorted order).
        assert_eq!(
            fs::read_to_string(dir_par.join("manifest.txt")).unwrap(),
            fs::read_to_string(dir_ser.join("manifest.txt")).unwrap()
        );
        // No stray temp files survive.
        for dir in [&dir_par, &dir_ser] {
            for e in fs::read_dir(dir).unwrap() {
                let name = e.unwrap().file_name();
                assert!(!name.to_string_lossy().ends_with(".tmp"), "leftover temp file {:?}", name);
            }
        }
        fs::remove_dir_all(&dir_par).unwrap();
        fs::remove_dir_all(&dir_ser).unwrap();
    }

    #[test]
    fn incremental_preprocess_skips_matching_files() {
        use plexus_graph::{datasets::OGBN_PRODUCTS, LoadedDataset};
        let ds = LoadedDataset::generate(OGBN_PRODUCTS, 80, Some(5), 29);
        let dir = temp_dir("incr");
        let total_files = 3 * 3 + 3 + 1; // adjacency + features + labels
        let first = preprocess_to_store(&ds, &dir, PermutationMode::Double, 7, 3, 3).unwrap();
        assert_eq!(first.preprocess.files_written, total_files);
        assert_eq!(first.preprocess.files_skipped, 0);

        // A re-preprocess that died while writing its manifest leaves a
        // partial `manifest.txt.tmp`; the published manifest is untouched.
        fs::write(dir.join("manifest.txt.tmp"), "format = 3\np = ").unwrap();
        assert_eq!(ShardStore::open(&dir).unwrap().manifest.files, first.manifest.files);

        // Same parameters, same dataset: everything verifies and skips.
        let second = preprocess_to_store(&ds, &dir, PermutationMode::Double, 7, 3, 3).unwrap();
        assert_eq!(second.preprocess.files_written, 0, "rewrote up-to-date files");
        assert_eq!(second.preprocess.files_skipped, total_files);
        assert_eq!(second.manifest.files, first.manifest.files, "reuse changed the manifest");
        assert!(!dir.join("manifest.txt.tmp").exists(), "re-publish left its temp file");

        // Tamper with one shard: exactly that file is rewritten.
        let victim = ShardStore::shard_name(1, 2);
        let mut bytes = fs::read(dir.join(&victim)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(dir.join(&victim), &bytes).unwrap();
        let third = preprocess_to_store(&ds, &dir, PermutationMode::Double, 7, 3, 3).unwrap();
        assert_eq!(third.preprocess.files_written, 1, "only the tampered file needs rewriting");
        assert_eq!(third.preprocess.files_skipped, total_files - 1);
        assert_eq!(third.manifest.files, first.manifest.files);
        let n = ds.num_nodes();
        let (a, _) = third.load_adjacency_window(0, n, 0, n).unwrap();
        assert_eq!(a.nnz(), ds.adjacency.nnz(), "rewritten shard corrupt");

        // A different permutation seed invalidates everything.
        let reseeded = preprocess_to_store(&ds, &dir, PermutationMode::Double, 8, 3, 3).unwrap();
        assert_eq!(reseeded.preprocess.files_skipped, 0, "stale-seed files were reused");
        assert_eq!(reseeded.preprocess.files_written, total_files);

        // A different dataset with identical shapes invalidates everything
        // (the source fingerprint, not just the parameters, gates reuse).
        let ds2 = LoadedDataset::generate(OGBN_PRODUCTS, 80, Some(5), 31);
        let refp = preprocess_to_store(&ds2, &dir, PermutationMode::Double, 8, 3, 3).unwrap();
        assert_eq!(refp.preprocess.files_skipped, 0, "different dataset was reused");

        // A smaller grid deletes the 3x3 files its manifest no longer
        // lists, and nothing that no manifest listed.
        fs::write(dir.join("notes.txt"), "listed by no manifest").unwrap();
        let small = preprocess_to_store(&ds2, &dir, PermutationMode::Double, 8, 2, 2).unwrap();
        let mut on_disk: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        let mut want: Vec<String> = small.manifest.files.into_keys().collect();
        want.extend(["manifest.txt".into(), "notes.txt".into()]);
        on_disk.sort();
        want.sort();
        assert_eq!(on_disk, want, "a stale 3x3 file survived, or an unlisted file went");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn raw_store_rejects_labels() {
        let dir = temp_dir("raw");
        let a = random_csr(12, 17);
        let f = uniform_matrix(12, 2, -1.0, 1.0, 18);
        let store = ShardStore::create(&dir, &a, &f, 2, 2).unwrap();
        assert!(!store.has_labels());
        assert!(matches!(store.load_labels(), Err(LoaderError::Missing { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }
}
