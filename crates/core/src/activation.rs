//! Out-of-core activation state: the residency-policy engine that owns
//! every inter-layer cache the distributed trainer produces.
//!
//! PR 3 bounded *adjacency/feature* residency via the [`ShardStore`]
//! window loads, but the per-layer forward caches (`H`, `Q`, the gathered
//! `W` — `~n_pad/G_r x d_pad` each) still lived in RAM for the whole
//! forward pass. This module makes that residency a first-class,
//! budget-driven policy choice, the Dorylus-style trade of staged I/O and
//! recomputation for memory:
//!
//! * [`ResidencyPolicy::Resident`] — every cache stays in RAM until its
//!   backward pass consumes it. Today's behavior; the bitwise baseline.
//! * [`ResidencyPolicy::Spill`] — caches stay resident up to a byte
//!   budget; beyond it, least-recently-inserted layer caches are evicted
//!   to checksummed spill files (the [`ShardStore`] header + digest
//!   format) and reloaded — checksum-verified — when
//!   backward reaches their layer. Reload buffers come from the store's
//!   own [`KernelWorkspace`], so the zero-alloc-after-warmup invariant
//!   survives.
//! * [`ResidencyPolicy::Recompute`] — the cheap-to-rebuild SpMM/gather
//!   intermediates (`H`, `Q`, `W_full`) are dropped outright; only the
//!   layer *input* is retained, and backward re-derives the cache through
//!   the layer's own forward recipes
//!   ([`DistLayer::rebuild_cache`](crate::layer::DistLayer::rebuild_cache)).
//!
//! All three policies produce **bitwise-identical** losses and gradients:
//! spilling writes and reloads exact f32 bits, and recomputation replays
//! the very kernels (and deterministic collectives) the forward pass ran.
//!
//! The store is communication-free by design: [`ActivationStore::fetch`]
//! returns either a materialized cache or a [`Fetched::Rebuild`] order
//! carrying the retained input, and the *trainer* — which owns the
//! communicator — executes the rebuild. That keeps the store testable in
//! isolation (the spill round-trip proptest) and keeps every collective
//! call site inside [`DistLayer`](crate::layer::DistLayer).
//!
//! [`ShardStore`]: crate::loader::ShardStore

use crate::layer::DistLayerCache;
use crate::loader::{open_verified, Cursor, HashingWriter, LoaderResult};
use plexus_comm::fault::FaultPlan;
use plexus_tensor::{KernelWorkspace, Matrix};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// How inter-layer activation state is kept between forward and backward.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ResidencyPolicy {
    /// Keep every layer cache in RAM (the bitwise baseline; the budget
    /// concept does not apply).
    Resident,
    /// Keep caches in RAM up to `budget_bytes`; evict
    /// least-recently-inserted layer caches to checksummed spill files
    /// beyond it and reload them on backward.
    Spill { budget_bytes: u64 },
    /// Drop the recomputable segments (`H`, `Q`, `W_full`) after every
    /// layer's forward, retain only the layer input, and re-derive the
    /// cache during backward. Peak store residency is the sum of layer
    /// inputs — roughly half the resident baseline for equal-width layers.
    Recompute,
}

/// Cumulative counters of one store's activity, synced into the per-rank
/// [`MemoryLedger`](crate::loader::MemoryLedger) after every epoch.
#[derive(Clone, Copy, Debug, Default)]
pub struct ActivationStats {
    /// Bytes currently held by the store (caches + retained inputs).
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`, including a just-reloaded
    /// cache at the instant it is handed back.
    pub peak_resident_bytes: u64,
    /// Total bytes written to spill files.
    pub spilled_bytes: u64,
    /// Total bytes read back from spill files.
    pub reloaded_bytes: u64,
    /// Layer caches evicted to disk.
    pub spill_events: u64,
    /// Layer caches reloaded from disk.
    pub reload_events: u64,
    /// Reloads that failed verification once and succeeded on the bounded
    /// re-read (transient-fault recovery).
    pub reload_retries: u64,
    /// Layer caches scheduled for re-derivation during backward.
    pub recompute_events: u64,
    /// Wall seconds spent writing and reading spill files.
    pub spill_io_s: f64,
}

/// What [`ActivationStore::fetch`] hands back for one layer.
pub enum Fetched {
    /// The materialized cache (resident, or reloaded and
    /// checksum-verified from a spill file).
    Cache(DistLayerCache),
    /// The `Recompute` order: the retained layer input plus the activation
    /// flag; the caller re-derives the cache through the layer's forward
    /// recipes and recycles `input` afterwards.
    Rebuild { input: Matrix, activated: bool },
}

/// On-disk location + integrity metadata of one spilled layer cache.
struct SpillFile {
    path: PathBuf,
    /// `(digest, length)`, as a manifest would record them.
    entry: (u64, u64),
}

enum Slot {
    Empty,
    Resident { cache: DistLayerCache, stamp: u64 },
    Spilled { file: SpillFile, activated: bool },
    Dropped { input: Matrix, activated: bool },
}

/// Unique suffix for each store's spill directory, so concurrent ranks
/// (and concurrent tests) never collide.
static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Owns all inter-layer activation state of one rank's trainer and
/// enforces the configured [`ResidencyPolicy`] across layers and epochs.
pub struct ActivationStore {
    policy: ResidencyPolicy,
    slots: Vec<Slot>,
    dir: PathBuf,
    dir_created: bool,
    /// Buffer pool for spill-eviction recycling and reload allocation;
    /// sized by the first spilling epoch, stable after.
    ws: KernelWorkspace,
    stats: ActivationStats,
    clock: u64,
    /// Armed fault-injection plan consulted on every spill reload (test
    /// harness only; `None` costs nothing).
    faults: Option<Arc<FaultPlan>>,
}

fn cache_bytes(cache: &DistLayerCache) -> u64 {
    cache.h.mem_bytes() + cache.q.mem_bytes() + cache.w_full.mem_bytes()
}

impl ActivationStore {
    pub fn new(policy: ResidencyPolicy) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "plexus_act_{}_{}",
            std::process::id(),
            STORE_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        Self {
            policy,
            slots: Vec::new(),
            dir,
            dir_created: false,
            ws: KernelWorkspace::new(),
            stats: ActivationStats::default(),
            clock: 0,
            faults: None,
        }
    }

    /// Arm `plan` on this store's reload path (fault-injection tests).
    pub(crate) fn set_faults(&mut self, plan: Option<Arc<FaultPlan>>) {
        self.faults = plan;
    }

    /// The spill directory (created lazily on first eviction).
    pub fn spill_dir(&self) -> &Path {
        &self.dir
    }

    /// Cumulative activity counters.
    pub fn stats(&self) -> ActivationStats {
        self.stats
    }

    /// Allocator interactions of the store's reload workspace — included
    /// in the trainer's zero-alloc-after-warmup accounting.
    pub fn alloc_events(&self) -> u64 {
        self.ws.alloc_events()
    }

    /// Bytes pooled in the store's reload workspace.
    #[cfg(test)]
    pub(crate) fn pooled_bytes(&self) -> usize {
        self.ws.pooled_bytes()
    }

    /// Take custody of layer `layer`'s forward cache and its consumed
    /// input, applying the policy: recycle what the policy drops into
    /// `layer_ws`, spill what the budget cannot hold, retain the rest.
    pub fn insert(
        &mut self,
        layer: usize,
        cache: DistLayerCache,
        input: Matrix,
        layer_ws: &mut KernelWorkspace,
    ) -> LoaderResult<()> {
        if self.slots.len() <= layer {
            self.slots.resize_with(layer + 1, || Slot::Empty);
        }
        assert!(
            matches!(self.slots[layer], Slot::Empty),
            "ActivationStore: layer {} already has a cache this step",
            layer
        );
        match self.policy {
            ResidencyPolicy::Resident => {
                layer_ws.recycle(input);
                self.park(layer, cache);
            }
            ResidencyPolicy::Spill { budget_bytes } => {
                layer_ws.recycle(input);
                let incoming = cache_bytes(&cache);
                if incoming > budget_bytes {
                    // A cache that alone busts the budget spills directly,
                    // never entering the resident accounting: evicting
                    // peers could not have made it fit, and nothing reads
                    // it again until backward. Its transit still caps the
                    // probed peak at one whole cache.
                    self.stats.peak_resident_bytes = self.stats.peak_resident_bytes.max(incoming);
                    self.spill_cache(layer, cache)?;
                } else {
                    // Make room *before* the cache lands, so the probed
                    // peak never exceeds max(budget, one cache).
                    self.make_room(budget_bytes, incoming)?;
                    self.park(layer, cache);
                }
            }
            ResidencyPolicy::Recompute => {
                let DistLayerCache { h, q, w_full, activated } = cache;
                layer_ws.recycle(h);
                layer_ws.recycle(q);
                layer_ws.recycle(w_full);
                self.stats.resident_bytes += input.mem_bytes();
                self.probe_peak(0);
                self.slots[layer] = Slot::Dropped { input, activated };
            }
        }
        Ok(())
    }

    /// Surrender layer `layer`'s state for the backward pass: a resident
    /// cache directly, a spilled one after a checksum-verified reload, or
    /// a [`Fetched::Rebuild`] order under `Recompute`.
    pub fn fetch(&mut self, layer: usize) -> LoaderResult<Fetched> {
        let slot = std::mem::replace(&mut self.slots[layer], Slot::Empty);
        match slot {
            Slot::Empty => panic!("ActivationStore: no activation state for layer {}", layer),
            Slot::Resident { cache, .. } => {
                self.probe_peak(0);
                self.stats.resident_bytes -= cache_bytes(&cache);
                Ok(Fetched::Cache(cache))
            }
            Slot::Spilled { file, activated } => {
                let cache = self.reload(&file, activated)?;
                self.probe_peak(cache_bytes(&cache));
                Ok(Fetched::Cache(cache))
            }
            Slot::Dropped { input, activated } => {
                self.stats.recompute_events += 1;
                self.stats.resident_bytes -= input.mem_bytes();
                Ok(Fetched::Rebuild { input, activated })
            }
        }
    }

    /// Debug check between epochs: every slot must have been fetched.
    pub fn assert_drained(&self) {
        debug_assert!(
            self.slots.iter().all(|s| matches!(s, Slot::Empty)),
            "ActivationStore: undrained slots at epoch end"
        );
        debug_assert_eq!(self.stats.resident_bytes, 0, "resident bytes leaked across epochs");
    }

    fn park(&mut self, layer: usize, cache: DistLayerCache) {
        self.stats.resident_bytes += cache_bytes(&cache);
        self.probe_peak(0);
        self.clock += 1;
        self.slots[layer] = Slot::Resident { cache, stamp: self.clock };
    }

    fn probe_peak(&mut self, extra: u64) {
        self.stats.peak_resident_bytes =
            self.stats.peak_resident_bytes.max(self.stats.resident_bytes + extra);
    }

    /// Evict least-recently-inserted resident caches until `incoming` more
    /// bytes fit under `budget` (or nothing is left to evict). Callers
    /// route caches larger than the whole budget straight to disk instead
    /// — evicting peers that do fit would only churn spill/reload I/O.
    fn make_room(&mut self, budget: u64, incoming: u64) -> LoaderResult<()> {
        debug_assert!(incoming <= budget, "oversized caches bypass make_room");
        while self.stats.resident_bytes + incoming > budget {
            let lru = self
                .slots
                .iter()
                .enumerate()
                .filter_map(|(l, s)| match s {
                    Slot::Resident { stamp, .. } => Some((*stamp, l)),
                    _ => None,
                })
                .min();
            match lru {
                Some((_, l)) => self.spill_slot(l)?,
                None => break,
            }
        }
        Ok(())
    }

    /// Evict a parked slot: remove it from the resident accounting and
    /// write it out via [`Self::spill_cache`].
    fn spill_slot(&mut self, layer: usize) -> LoaderResult<()> {
        let Slot::Resident { cache, .. } = std::mem::replace(&mut self.slots[layer], Slot::Empty)
        else {
            unreachable!("spill_slot called on a non-resident slot")
        };
        self.stats.resident_bytes -= cache_bytes(&cache);
        self.spill_cache(layer, cache)
    }

    /// Write a cache to layer `layer`'s spill file in the shared header +
    /// digest format, then recycle the buffers into the store's pool. This
    /// runs in the per-epoch hot loop: the writer encodes each matrix
    /// straight into its staging buffer — the only copy — and hashes it
    /// there before it leaves the cache.
    fn spill_cache(&mut self, layer: usize, cache: DistLayerCache) -> LoaderResult<()> {
        if !self.dir_created {
            fs::create_dir_all(&self.dir)?;
            self.dir_created = true;
        }
        let t0 = std::time::Instant::now();
        let path = self.dir.join(format!("act_l{}.plx", layer));
        let mut w = HashingWriter::create(&path)?;
        w.header()?;
        for m in [&cache.h, &cache.q, &cache.w_full] {
            w.put_matrix(m)?;
        }
        let entry = w.finish()?;
        let DistLayerCache { h, q, w_full, activated } = cache;
        self.ws.recycle(h);
        self.ws.recycle(q);
        self.ws.recycle(w_full);
        self.stats.spilled_bytes += entry.1;
        self.stats.spill_events += 1;
        self.stats.spill_io_s += t0.elapsed().as_secs_f64();
        self.slots[layer] = Slot::Spilled { file: SpillFile { path, entry }, activated };
        Ok(())
    }

    /// Open a spill file through [`open_verified`] (length + digest +
    /// header, one re-read on a mismatch) and decode the cache out of the
    /// mapping into workspace buffers — no staging copy.
    fn reload(&mut self, file: &SpillFile, activated: bool) -> LoaderResult<DistLayerCache> {
        let t0 = std::time::Instant::now();
        let (map, at, retries) = open_verified(&file.path, file.entry, self.faults.as_deref())?;
        let mut cur = Cursor { bytes: map.bytes(), pos: at, path: &file.path };
        let mut next = || -> LoaderResult<Matrix> {
            let (rows, cols) = cur.matrix_shape()?;
            let mut m = self.ws.take_scratch(rows, cols);
            cur.f32s_into(m.as_mut_slice())?;
            Ok(m)
        };
        let [h, q, w_full] = [next()?, next()?, next()?];
        self.stats.reload_retries += retries;
        self.stats.reloaded_bytes += file.entry.1;
        self.stats.reload_events += 1;
        self.stats.spill_io_s += t0.elapsed().as_secs_f64();
        Ok(DistLayerCache { h, q, w_full, activated })
    }
}

impl Drop for ActivationStore {
    fn drop(&mut self) {
        if self.dir_created {
            let _ = fs::remove_dir_all(&self.dir);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::loader::LoaderError;

    fn test_cache(seed: f32, rows: usize, cols: usize) -> DistLayerCache {
        let gen = |r: usize, c: usize, s: f32| {
            Matrix::from_fn(r, c, |i, j| ((i * 13 + j * 7) as f32 * 0.01 + s).sin())
        };
        DistLayerCache {
            h: gen(rows, cols, seed),
            q: gen(rows, cols + 1, seed + 0.5),
            w_full: gen(cols, cols + 1, seed + 1.0),
            activated: rows.is_multiple_of(2),
        }
    }

    fn clone_cache(c: &DistLayerCache) -> DistLayerCache {
        DistLayerCache {
            h: c.h.clone(),
            q: c.q.clone(),
            w_full: c.w_full.clone(),
            activated: c.activated,
        }
    }

    fn assert_cache_eq(a: &DistLayerCache, b: &DistLayerCache) {
        assert_eq!(a.h, b.h);
        assert_eq!(a.q, b.q);
        assert_eq!(a.w_full, b.w_full);
        assert_eq!(a.activated, b.activated);
    }

    #[test]
    fn resident_policy_round_trips_without_files() {
        let mut store = ActivationStore::new(ResidencyPolicy::Resident);
        let mut ws = KernelWorkspace::new();
        let c0 = test_cache(0.1, 6, 4);
        let keep = clone_cache(&c0);
        store.insert(0, c0, Matrix::zeros(2, 2), &mut ws).unwrap();
        assert!(store.stats().resident_bytes > 0);
        match store.fetch(0).unwrap() {
            Fetched::Cache(c) => assert_cache_eq(&c, &keep),
            Fetched::Rebuild { .. } => panic!("resident policy must not order rebuilds"),
        }
        assert_eq!(store.stats().resident_bytes, 0);
        assert_eq!(store.stats().spill_events, 0);
        assert!(!store.spill_dir().exists(), "resident policy must not touch disk");
    }

    #[test]
    fn zero_budget_spills_everything_and_reloads_bitwise() {
        let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 0 });
        let mut ws = KernelWorkspace::new();
        let caches: Vec<DistLayerCache> = (0..3).map(|l| test_cache(l as f32, 5 + l, 3)).collect();
        let keeps: Vec<DistLayerCache> = caches.iter().map(clone_cache).collect();
        for (l, c) in caches.into_iter().enumerate() {
            store.insert(l, c, Matrix::zeros(1, 1), &mut ws).unwrap();
        }
        assert_eq!(store.stats().spill_events, 3);
        assert_eq!(store.stats().resident_bytes, 0);
        for l in (0..3).rev() {
            match store.fetch(l).unwrap() {
                Fetched::Cache(c) => assert_cache_eq(&c, &keeps[l]),
                Fetched::Rebuild { .. } => panic!("spill policy must not order rebuilds"),
            }
        }
        let s = store.stats();
        assert_eq!(s.reload_events, 3);
        assert_eq!(s.spilled_bytes, s.reloaded_bytes);
        store.assert_drained();
    }

    #[test]
    fn budget_keeps_newest_and_spills_oldest_first() {
        let c = test_cache(0.0, 8, 4);
        let one = cache_bytes(&c);
        // Budget fits two caches: inserting three must spill exactly the
        // oldest (layer 0).
        let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 2 * one });
        let mut ws = KernelWorkspace::new();
        store.insert(0, c, Matrix::zeros(1, 1), &mut ws).unwrap();
        store.insert(1, test_cache(1.0, 8, 4), Matrix::zeros(1, 1), &mut ws).unwrap();
        store.insert(2, test_cache(2.0, 8, 4), Matrix::zeros(1, 1), &mut ws).unwrap();
        let s = store.stats();
        assert_eq!(s.spill_events, 1, "exactly the LRU cache spills");
        assert_eq!(s.resident_bytes, 2 * one);
        assert!(s.peak_resident_bytes <= 2 * one, "peak {} above budget", s.peak_resident_bytes);
        // Backward order: 2 and 1 are resident, 0 reloads.
        assert!(matches!(store.fetch(2).unwrap(), Fetched::Cache(_)));
        assert!(matches!(store.fetch(1).unwrap(), Fetched::Cache(_)));
        assert_eq!(store.stats().reload_events, 0);
        assert!(matches!(store.fetch(0).unwrap(), Fetched::Cache(_)));
        assert_eq!(store.stats().reload_events, 1);
    }

    #[test]
    fn oversized_cache_spills_itself_not_its_peers() {
        let small = test_cache(0.0, 4, 3);
        let small_bytes = cache_bytes(&small);
        let mut store =
            ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 2 * small_bytes });
        let mut ws = KernelWorkspace::new();
        store.insert(0, small, Matrix::zeros(1, 1), &mut ws).unwrap();
        // A cache bigger than the whole budget spills directly; evicting
        // the fitting peer could not have helped and must not happen.
        store.insert(1, test_cache(1.0, 32, 16), Matrix::zeros(1, 1), &mut ws).unwrap();
        let s = store.stats();
        assert_eq!(s.spill_events, 1, "only the oversized cache spills");
        assert_eq!(s.resident_bytes, small_bytes, "the fitting peer was evicted");
        assert!(matches!(store.fetch(1).unwrap(), Fetched::Cache(_)));
        assert_eq!(store.stats().reload_events, 1);
        assert!(matches!(store.fetch(0).unwrap(), Fetched::Cache(_)));
        assert_eq!(store.stats().reload_events, 1, "layer 0 should come back without disk I/O");
    }

    #[test]
    fn recompute_retains_inputs_and_orders_rebuilds() {
        let mut store = ActivationStore::new(ResidencyPolicy::Recompute);
        let mut ws = KernelWorkspace::new();
        let input = Matrix::from_fn(4, 3, |i, j| (i + j) as f32);
        let keep = input.clone();
        let c = test_cache(0.3, 6, 4);
        store.insert(0, c, input, &mut ws).unwrap();
        // Only the input is resident; the cache segments went to the pool.
        assert_eq!(store.stats().resident_bytes, keep.mem_bytes());
        match store.fetch(0).unwrap() {
            Fetched::Rebuild { input, activated } => {
                assert_eq!(input, keep);
                assert!(activated);
            }
            Fetched::Cache(_) => panic!("recompute policy must order rebuilds"),
        }
        assert_eq!(store.stats().recompute_events, 1);
        assert_eq!(store.stats().resident_bytes, 0);
    }

    #[test]
    fn corrupted_spill_file_is_a_typed_checksum_error() {
        let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 0 });
        let mut ws = KernelWorkspace::new();
        store.insert(0, test_cache(0.7, 5, 3), Matrix::zeros(1, 1), &mut ws).unwrap();
        let victim = store.spill_dir().join("act_l0.plx");
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        match store.fetch(0) {
            Err(LoaderError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {:?}", other.map(|_| ())),
        }
    }

    #[test]
    fn hostile_spill_shape_is_truncated_not_a_wrap_or_an_allocation() {
        let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 0 });
        let mut ws = KernelWorkspace::new();
        store.insert(0, test_cache(0.4, 5, 3), Matrix::zeros(1, 1), &mut ws).unwrap();
        let victim = store.spill_dir().join("act_l0.plx");
        let good = fs::read(&victim).unwrap();
        for (rows, cols) in [(u64::MAX, u64::MAX), (1u64 << 62, 1), (1 << 32, 1 << 32), (6, 3)] {
            // Patch H's shape (right after the 16-byte header) and re-sign
            // the handle, so only the shape check stands in the way.
            let mut bytes = good.clone();
            bytes[16..24].copy_from_slice(&rows.to_le_bytes());
            bytes[24..32].copy_from_slice(&cols.to_le_bytes());
            fs::write(&victim, &bytes).unwrap();
            let Slot::Spilled { file, .. } = &mut store.slots[0] else { panic!("not spilled") };
            file.entry.0 = crate::loader::digest(&bytes);
            let file = SpillFile { path: file.path.clone(), ..*file };
            assert!(
                matches!(store.reload(&file, false), Err(LoaderError::Truncated { .. })),
                "{} x {} was not refused",
                rows,
                cols
            );
        }
    }

    #[test]
    fn reload_buffers_come_from_the_pool_after_warmup() {
        let mut store = ActivationStore::new(ResidencyPolicy::Spill { budget_bytes: 0 });
        let mut ws = KernelWorkspace::new();
        for _ in 0..2 {
            store.insert(0, test_cache(0.2, 16, 8), Matrix::zeros(1, 1), &mut ws).unwrap();
            match store.fetch(0).unwrap() {
                Fetched::Cache(c) => {
                    // The trainer recycles consumed caches into layer
                    // workspaces; mirror that by recycling into the store.
                    store.ws.recycle(c.h);
                    store.ws.recycle(c.q);
                    store.ws.recycle(c.w_full);
                }
                Fetched::Rebuild { .. } => unreachable!(),
            }
        }
        let warmed = store.alloc_events();
        for _ in 0..3 {
            store.insert(0, test_cache(0.2, 16, 8), Matrix::zeros(1, 1), &mut ws).unwrap();
            match store.fetch(0).unwrap() {
                Fetched::Cache(c) => {
                    store.ws.recycle(c.h);
                    store.ws.recycle(c.q);
                    store.ws.recycle(c.w_full);
                }
                Fetched::Rebuild { .. } => unreachable!(),
            }
        }
        assert_eq!(store.alloc_events(), warmed, "reload allocated after warmup");
    }
}
