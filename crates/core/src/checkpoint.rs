//! Training checkpoints: periodic, atomically-published snapshots of the
//! distributed run, and the typed reader that resumes from them.
//!
//! The on-disk discipline is the [`ShardStore`](crate::loader::ShardStore)
//! one — every rank file starts with the shared
//! `[MAGIC][FORMAT_VERSION]` header, the whole file is digested, a
//! per-epoch [`Manifest`] records `(digest, length)` for every rank file,
//! and rank files are read back through [`open_verified`]. Everything is
//! written to a temporary name and renamed into place, so a crash
//! mid-write can never corrupt the last good checkpoint: an epoch
//! directory either has a complete manifest or is ignored. The directories
//! are the index — [`Checkpoint::latest`] is the newest epoch whose
//! manifest validates.
//!
//! A checkpoint captures everything that determines the continuation of a
//! run: the stored weight shards, the Adam moments and step counts for
//! weights *and* trainable features, the epoch counter, the full epoch
//! history (losses/accuracy/timing), and the rank's
//! [`MemoryLedger`] counters. There is no live RNG to snapshot — every
//! random quantity in the engine (initial weights, permutations) is
//! derived from seeds, and those seeds are pinned by the config
//! fingerprint stored in each rank file. Resuming therefore continues
//! **bitwise identically** to the uninterrupted run.
//!
//! Layout under the checkpoint root:
//!
//! ```text
//! root/
//!   epoch_<e>/
//!     rank_0000.plx       (one per rank, written by that rank)
//!     ...
//!     manifest.txt        (rank 0, after gathering every rank's checksum)
//! ```

use crate::loader::{
    open_verified, Cursor, HashingWriter, LoaderError, LoaderResult, Manifest, MemoryLedger,
};
use crate::trainer::DistEpochStats;
use plexus_graph::format::publish;
use plexus_tensor::Matrix;
use std::fs;
use std::path::{Path, PathBuf};

/// When and where the trainer snapshots its state.
#[derive(Clone, Debug)]
pub struct CheckpointPolicy {
    /// Checkpoint root directory (created on first save).
    pub dir: PathBuf,
    /// Save after every `every`-th completed epoch (cadence; `1` saves
    /// after every epoch).
    pub every: usize,
    /// How many times [`train_from_source`](crate::trainer::train_from_source)
    /// rebuilds the world and resumes after a rank failure before giving
    /// up with [`TrainError::Unrecoverable`](crate::trainer::TrainError).
    pub max_retries: usize,
}

impl CheckpointPolicy {
    /// Checkpoint into `dir` after every epoch, with 2 recovery retries.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into(), every: 1, max_retries: 2 }
    }

    /// Set the epoch cadence (must be >= 1).
    pub fn every(mut self, every: usize) -> Self {
        assert!(every >= 1, "CheckpointPolicy: cadence must be >= 1");
        self.every = every;
        self
    }

    /// Set the recovery retry budget.
    pub fn max_retries(mut self, max_retries: usize) -> Self {
        self.max_retries = max_retries;
        self
    }
}

/// One parameter tensor plus its Adam state, as checkpointed.
#[derive(Clone, Debug, PartialEq)]
pub struct ParamState {
    pub value: Matrix,
    /// Adam first moment.
    pub m: Matrix,
    /// Adam second moment.
    pub v: Matrix,
    /// Adam step count.
    pub t: u32,
}

/// Everything one rank needs to continue a run bitwise-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct RankState {
    /// Fingerprint of the configuration that produced this checkpoint
    /// (grid, hyperparameters, seeds, ingest source). Resuming under a
    /// different fingerprint is refused.
    pub config_fp: u64,
    /// Completed epochs at snapshot time.
    pub epochs_done: usize,
    /// Per-epoch stats of the completed prefix (identical on all ranks).
    pub history: Vec<DistEpochStats>,
    /// Per-layer stored weight shards with their optimizer state.
    pub layers: Vec<ParamState>,
    /// The stored trainable-feature shard with its optimizer state.
    pub features: ParamState,
    /// The rank's memory-accounting counters at snapshot time.
    pub ledger: MemoryLedger,
}

/// `rank_<r>.plx`, zero-padded so directory listings sort by rank.
pub(crate) fn rank_file_name(rank: usize) -> String {
    format!("rank_{:04}.plx", rank)
}

/// `epoch_<e>` directory name for a checkpoint taken after `e` epochs.
pub(crate) fn epoch_dir_name(epochs_done: usize) -> String {
    format!("epoch_{}", epochs_done)
}

// MemoryLedger <-> fixed counter vector. Order is part of the checkpoint
// format; extend only by appending (the reader below checks the count).
const LEDGER_COUNTERS: usize = 18;

fn ledger_counters(l: &MemoryLedger) -> [u64; LEDGER_COUNTERS] {
    [
        l.bytes_read,
        l.bytes_skipped,
        l.files_read as u64,
        l.files_skipped as u64,
        l.bytes_mapped,
        l.bytes_copied,
        l.adjacency_resident_bytes,
        l.peak_adjacency_bytes,
        l.feature_resident_bytes,
        l.peak_feature_bytes,
        l.activation_resident_bytes,
        l.peak_activation_bytes,
        l.activation_spilled_bytes,
        l.activation_reloaded_bytes,
        l.activation_spill_events,
        l.activation_recompute_events,
        l.read_retries,
        l.activation_reload_retries,
    ]
}

fn ledger_from_counters(c: &[u64; LEDGER_COUNTERS]) -> MemoryLedger {
    MemoryLedger {
        bytes_read: c[0],
        bytes_skipped: c[1],
        files_read: c[2] as usize,
        files_skipped: c[3] as usize,
        bytes_mapped: c[4],
        bytes_copied: c[5],
        adjacency_resident_bytes: c[6],
        peak_adjacency_bytes: c[7],
        feature_resident_bytes: c[8],
        peak_feature_bytes: c[9],
        activation_resident_bytes: c[10],
        peak_activation_bytes: c[11],
        activation_spilled_bytes: c[12],
        activation_reloaded_bytes: c[13],
        activation_spill_events: c[14],
        activation_recompute_events: c[15],
        read_retries: c[16],
        activation_reload_retries: c[17],
    }
}

fn put_param(w: &mut HashingWriter, p: &ParamState) -> LoaderResult<()> {
    w.put_matrix(&p.value)?;
    w.put_matrix(&p.m)?;
    w.put_matrix(&p.v)?;
    w.put_u64(p.t as u64)?;
    Ok(())
}

fn take_param(cur: &mut Cursor<'_>) -> LoaderResult<ParamState> {
    let value = cur.matrix()?;
    let m = cur.matrix()?;
    let v = cur.matrix()?;
    let t = cur.u64()? as u32;
    Ok(ParamState { value, m, v, t })
}

fn take_f64(cur: &mut Cursor<'_>) -> LoaderResult<f64> {
    Ok(f64::from_bits(cur.u64()?))
}

/// Write one rank's state into `epoch_dir` atomically (tmp + rename) and
/// return the `(checksum, length)` manifest entry. Called collectively by
/// every rank; only rank `rank` writes `rank_<rank>.plx`.
pub(crate) fn write_rank_state(
    epoch_dir: &Path,
    rank: usize,
    world: usize,
    state: &RankState,
) -> LoaderResult<(u64, u64)> {
    publish(&epoch_dir.join(rank_file_name(rank)), |w| {
        w.header()?;
        w.put_u64(state.config_fp)?;
        w.put_u64s(&[rank, world, state.epochs_done, state.history.len()])?;
        for s in &state.history {
            for v in [s.loss, s.train_accuracy, s.timing.compute_s, s.timing.comm_s] {
                w.put_u64(v.to_bits())?;
            }
        }
        w.put_u64(state.layers.len() as u64)?;
        for p in &state.layers {
            put_param(w, p)?;
        }
        put_param(w, &state.features)?;
        w.put_u64(LEDGER_COUNTERS as u64)?;
        for c in ledger_counters(&state.ledger) {
            w.put_u64(c)?;
        }
        Ok(())
    })
}

/// Publish the epoch manifest (rank 0 only, after gathering every rank's
/// `(checksum, length)`). The manifest's appearance is what makes the
/// epoch directory a valid checkpoint, so it is renamed into place last.
pub(crate) fn publish_manifest(
    epoch_dir: &Path,
    epochs_done: usize,
    entries: &[(u64, u64)],
) -> LoaderResult<()> {
    let files = entries.iter().enumerate().map(|(rank, &e)| (rank_file_name(rank), e)).collect();
    Manifest::new(files)
        .with("epochs_done", epochs_done)
        .with("world", entries.len())
        .publish(&epoch_dir.join("manifest.txt"))?;
    Ok(())
}

/// A published checkpoint: one epoch directory with a verified manifest.
#[derive(Debug)]
pub struct Checkpoint {
    dir: PathBuf,
    epochs_done: usize,
    world: usize,
    manifest: Manifest,
}

impl Checkpoint {
    /// Open and validate the manifest of one `epoch_<e>` directory.
    pub fn open(dir: &Path) -> LoaderResult<Self> {
        let manifest = Manifest::read(&dir.join("manifest.txt"))?;
        let (epochs_done, world) = (manifest.get("epochs_done")?, manifest.get("world")?);
        if manifest.files.len() != world {
            let listed = manifest.files.len();
            return Err(
                manifest.bad(format!("{listed} rank files listed for a {world}-rank world"))
            );
        }
        Ok(Self { dir: dir.to_path_buf(), epochs_done, world, manifest })
    }

    /// The most recent valid checkpoint under `root`, or `None` if there
    /// is none (including when `root` itself does not exist yet): every
    /// `epoch_<e>` directory is probed in descending epoch order and the
    /// first whose manifest validates wins. A crash before an epoch's
    /// manifest publish therefore falls back to the previous checkpoint,
    /// and one after it resumes from the new, complete one.
    pub fn latest(root: &Path) -> LoaderResult<Option<Self>> {
        let Ok(entries) = fs::read_dir(root) else { return Ok(None) };
        let mut epochs: Vec<(usize, PathBuf)> = entries
            .filter_map(|e| {
                let e = e.ok()?;
                let name = e.file_name().into_string().ok()?;
                let epoch: usize = name.strip_prefix("epoch_")?.parse().ok()?;
                Some((epoch, e.path()))
            })
            .collect();
        epochs.sort_by_key(|e| std::cmp::Reverse(e.0));
        Ok(epochs.into_iter().find_map(|(_, dir)| Self::open(&dir).ok()))
    }

    /// Completed epochs this checkpoint captures.
    pub fn epochs_done(&self) -> usize {
        self.epochs_done
    }

    /// World size the checkpoint was taken on.
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// The epoch directory this checkpoint reads from.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Load and fully verify one rank's state: manifest length + digest,
    /// the shared header, and the structural fields all gate the decode
    /// with the loader's typed errors.
    pub fn load_rank(&self, rank: usize) -> LoaderResult<RankState> {
        let name = rank_file_name(rank);
        let path = self.dir.join(&name);
        let (map, payload_at, _) = open_verified(&path, self.manifest.entry(&name)?, None)?;
        let mut cur = Cursor { bytes: map.bytes(), pos: payload_at, path: &path };
        let config_fp = cur.u64()?;
        let stored_rank = cur.u64()? as usize;
        let stored_world = cur.u64()? as usize;
        if stored_rank != rank || stored_world != self.world {
            let world = self.world;
            let why = format!("{name} holds rank {stored_rank}/{stored_world}, not {rank}/{world}");
            return Err(self.manifest.bad(why));
        }
        let epochs_done = cur.u64()? as usize;
        let n_history = cur.u64()? as usize;
        let mut history = Vec::with_capacity(n_history.min(1 << 20));
        for _ in 0..n_history {
            let loss = take_f64(&mut cur)?;
            let train_accuracy = take_f64(&mut cur)?;
            let compute_s = take_f64(&mut cur)?;
            let comm_s = take_f64(&mut cur)?;
            history.push(DistEpochStats {
                loss,
                train_accuracy,
                timing: crate::layer::TimeSplit { compute_s, comm_s },
            });
        }
        let n_layers = cur.u64()? as usize;
        let mut layers = Vec::with_capacity(n_layers.min(1 << 20));
        for _ in 0..n_layers {
            layers.push(take_param(&mut cur)?);
        }
        let features = take_param(&mut cur)?;
        let n_counters = cur.u64()? as usize;
        if n_counters != LEDGER_COUNTERS {
            return Err(LoaderError::VersionMismatch {
                file: path.clone(),
                found: n_counters as u64,
                expected: LEDGER_COUNTERS as u64,
            });
        }
        let mut counters = [0u64; LEDGER_COUNTERS];
        for c in counters.iter_mut() {
            *c = cur.u64()?;
        }
        Ok(RankState {
            config_fp,
            epochs_done,
            history,
            layers,
            features,
            ledger: ledger_from_counters(&counters),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::TimeSplit;
    use crate::loader::{digest, FORMAT_VERSION};

    fn tmp_root(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plexus_ckpt_{}_{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_state(fp: u64, epochs_done: usize) -> RankState {
        let mk = |seed: f32| Matrix::from_fn(3, 2, |i, j| seed + (i * 2 + j) as f32 * 0.25);
        let param =
            |s: f32, t: u32| ParamState { value: mk(s), m: mk(s + 10.0), v: mk(s + 20.0), t };
        let history = (0..epochs_done)
            .map(|e| DistEpochStats {
                loss: 1.0 / (e + 1) as f64,
                train_accuracy: 0.5 + 0.1 * e as f64,
                timing: TimeSplit { compute_s: e as f64, comm_s: e as f64 * 0.5 },
            })
            .collect();
        let ledger =
            MemoryLedger { bytes_read: 1234, read_retries: 2, files_read: 7, ..Default::default() };
        RankState {
            config_fp: fp,
            epochs_done,
            history,
            layers: vec![param(1.0, 5), param(2.0, 5)],
            features: param(3.0, 5),
            ledger,
        }
    }

    /// Write a complete single-rank checkpoint and return its epoch dir.
    fn write_checkpoint(root: &Path, epochs_done: usize, state: &RankState) -> PathBuf {
        let epoch_dir = root.join(epoch_dir_name(epochs_done));
        fs::create_dir_all(&epoch_dir).unwrap();
        let entry = write_rank_state(&epoch_dir, 0, 1, state).unwrap();
        publish_manifest(&epoch_dir, epochs_done, &[entry]).unwrap();
        epoch_dir
    }

    #[test]
    fn rank_state_round_trips_bitwise() {
        let root = tmp_root("roundtrip");
        let state = sample_state(0xfeed, 3);
        let epoch_dir = write_checkpoint(&root, 3, &state);
        let ck = Checkpoint::open(&epoch_dir).unwrap();
        assert_eq!(ck.epochs_done(), 3);
        assert_eq!(ck.world_size(), 1);
        let loaded = ck.load_rank(0).unwrap();
        assert_eq!(loaded, state, "checkpoint round trip must be exact");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn latest_is_the_newest_published_epoch() {
        let root = tmp_root("latest");
        write_checkpoint(&root, 1, &sample_state(1, 1));
        write_checkpoint(&root, 4, &sample_state(1, 4));
        // A later epoch directory without a manifest (crash before
        // publish) must not win; neither must the pointer file an older
        // build would have left naming an earlier epoch.
        fs::create_dir_all(root.join("epoch_9")).unwrap();
        fs::write(root.join("latest.txt"), "epoch_1\n").unwrap();
        let ck = Checkpoint::latest(&root).unwrap().expect("a valid checkpoint exists");
        assert_eq!(ck.epochs_done(), 4, "must be the newest published epoch");
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn leftover_tmp_files_never_mask_a_published_checkpoint() {
        // A crash between writing `<name>.tmp` and renaming it leaves the
        // temp file beside the previous good one: readers see the previous
        // state, and the next publish of each name goes through.
        let root = tmp_root("leftover_tmp");
        let state = sample_state(7, 1);
        let epoch_dir = write_checkpoint(&root, 1, &state);
        fs::write(epoch_dir.join("manifest.txt.tmp"), "format = 3\nepochs_do").unwrap();
        let ck = Checkpoint::latest(&root).unwrap().expect("epoch 1 is published");
        assert_eq!(ck.epochs_done(), 1);
        assert_eq!(ck.load_rank(0).unwrap(), state);

        let entry = write_rank_state(&epoch_dir, 0, 1, &state).unwrap();
        publish_manifest(&epoch_dir, 1, &[entry]).unwrap();
        write_checkpoint(&root, 2, &sample_state(7, 2));
        assert_eq!(Checkpoint::latest(&root).unwrap().unwrap().epochs_done(), 2);
        assert_eq!(Checkpoint::open(&epoch_dir).unwrap().load_rank(0).unwrap(), state);
        assert!(!epoch_dir.join("manifest.txt.tmp").exists());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn latest_of_missing_root_is_none() {
        let root = std::env::temp_dir().join("plexus_ckpt_never_created");
        assert!(Checkpoint::latest(&root).unwrap().is_none());
    }

    #[test]
    fn corrupted_rank_file_is_a_checksum_error() {
        let root = tmp_root("corrupt");
        let epoch_dir = write_checkpoint(&root, 2, &sample_state(7, 2));
        let path = epoch_dir.join(rank_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&path, &bytes).unwrap();
        let ck = Checkpoint::open(&epoch_dir).unwrap();
        assert!(matches!(ck.load_rank(0), Err(LoaderError::ChecksumMismatch { .. })));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn truncated_rank_file_is_a_truncation_error() {
        let root = tmp_root("trunc");
        let epoch_dir = write_checkpoint(&root, 2, &sample_state(7, 2));
        let path = epoch_dir.join(rank_file_name(0));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let ck = Checkpoint::open(&epoch_dir).unwrap();
        assert!(matches!(ck.load_rank(0), Err(LoaderError::Truncated { .. })));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn version_mismatched_rank_file_is_typed() {
        let root = tmp_root("version");
        let epoch_dir = write_checkpoint(&root, 1, &sample_state(7, 1));
        let path = epoch_dir.join(rank_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        // Re-point the manifest at the patched bytes so the version check
        // (not the checksum) is what trips.
        publish_manifest(&epoch_dir, 1, &[(digest(&bytes), bytes.len() as u64)]).unwrap();
        let ck = Checkpoint::open(&epoch_dir).unwrap();
        match ck.load_rank(0) {
            Err(LoaderError::VersionMismatch { found, expected, .. }) => {
                assert_eq!(found, FORMAT_VERSION + 1);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {:?}", other.map(|_| ())),
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn v2_checkpoint_directory_is_refused() {
        let root = tmp_root("v2");
        let epoch_dir = write_checkpoint(&root, 1, &sample_state(7, 1));
        // Rank file with version word 2, re-signed: the header check trips.
        let path = epoch_dir.join(rank_file_name(0));
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..16].copy_from_slice(&2u64.to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        publish_manifest(&epoch_dir, 1, &[(digest(&bytes), bytes.len() as u64)]).unwrap();
        assert!(matches!(
            Checkpoint::open(&epoch_dir).unwrap().load_rank(0),
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. })
        ));
        // Manifest labelled format 2: the directory does not open at all,
        // so `latest` finds no checkpoint to resume from.
        let manifest = epoch_dir.join("manifest.txt");
        let text = fs::read_to_string(&manifest).unwrap().replacen("format = 3", "format = 2", 1);
        fs::write(&manifest, text).unwrap();
        assert!(matches!(
            Checkpoint::open(&epoch_dir),
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. })
        ));
        assert!(Checkpoint::latest(&root).unwrap().is_none());
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn hostile_matrix_shape_in_a_rank_file_is_truncated() {
        let root = tmp_root("hostile");
        let epoch_dir = write_checkpoint(&root, 0, &sample_state(7, 0));
        // With no history the first layer's `rows, cols` sit right after
        // the 16-byte header and six u64 fields.
        let at = 16 + 6 * 8;
        let path = epoch_dir.join(rank_file_name(0));
        let good = fs::read(&path).unwrap();
        assert_eq!(good[at..at + 16], [3u64.to_le_bytes(), 2u64.to_le_bytes()].concat()[..]);
        for (rows, cols) in [(u64::MAX, u64::MAX), (1 << 62, 2), (1 << 40, 1 << 22), (u64::MAX, 1)]
        {
            let mut bytes = good.clone();
            bytes[at..at + 8].copy_from_slice(&rows.to_le_bytes());
            bytes[at + 8..at + 16].copy_from_slice(&cols.to_le_bytes());
            fs::write(&path, &bytes).unwrap();
            publish_manifest(&epoch_dir, 0, &[(digest(&bytes), bytes.len() as u64)]).unwrap();
            let ck = Checkpoint::open(&epoch_dir).unwrap();
            assert!(
                matches!(ck.load_rank(0), Err(LoaderError::Truncated { .. })),
                "{} x {} was not refused",
                rows,
                cols
            );
        }
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn manifest_from_another_format_is_a_version_error() {
        let root = tmp_root("manifest_version");
        let epoch_dir = root.join("epoch_1");
        fs::create_dir_all(&epoch_dir).unwrap();
        fs::write(
            epoch_dir.join("manifest.txt"),
            format!("format = {}\nepochs_done = 1\nworld = 0\n", FORMAT_VERSION + 3),
        )
        .unwrap();
        assert!(matches!(Checkpoint::open(&epoch_dir), Err(LoaderError::VersionMismatch { .. })));
        fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn missing_manifest_is_a_bad_manifest_error() {
        let root = tmp_root("no_manifest");
        let epoch_dir = root.join("epoch_2");
        fs::create_dir_all(&epoch_dir).unwrap();
        assert!(matches!(Checkpoint::open(&epoch_dir), Err(LoaderError::BadManifest { .. })));
        fs::remove_dir_all(&root).unwrap();
    }
}
