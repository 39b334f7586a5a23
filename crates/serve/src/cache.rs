//! The k-hop extraction cache: the serve-side fast path for hot query
//! sets and hot nodes.
//!
//! Extraction, not the forward, dominates serving (the repo benchmark's
//! `graph.khop_extract_ms` is over half of `serve.predict_cold_ms`, and a
//! single hub query costs as much as a 32-batch because its 3-hop field
//! reaches most of the graph). This cache removes that cost for repeated
//! work:
//!
//! * **Extraction blocks** — per sorted-unique query set, the full
//!   [`Extraction`]: the per-layer node sets, the per-layer sub-CSR
//!   blocks, and the layer-0 *aggregated* feature block
//!   `h0 = subs[0] · X0` (a pure function of the frozen graph, the query
//!   set, and the model version's trained features — so caching it is as
//!   bitwise-safe as caching the sub-CSRs, and it lets a warm query skip
//!   the feature gather and the widest SpMM too). Keyed by
//!   `(model version, layers, query-set digest)`, with the sorted set
//!   stored in the entry and compared on every hit so a digest collision
//!   degrades to a miss, never a wrong answer.
//! * **Per-node 1-hop support slices** — the decoded adjacency row
//!   (columns + values) of each *queried* node, so overlapping query
//!   streams stop re-decoding hot hub rows out of the mmapped shards.
//!
//! Entries are stamped with the model version they were built under; a
//! lookup for any other version is a miss, and
//! [`ExtractionCache::invalidate`] (called by the server's
//! `reload_latest`) drops everything eagerly. The cache is shared across
//! workers behind one mutex — entries are coarse (whole extraction
//! blocks), so the hold time is a map probe, not a computation — and is
//! LRU-bounded by bytes: every entry's byte size joins a ledger-style
//! total, and inserts evict least-recently-used entries until the total
//! is back under budget. A zero budget disables caching outright.

use plexus_graph::format::Digest;
use plexus_graph::khop::RowSource;
use plexus_sparse::Csr;
use plexus_tensor::Matrix;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Default per-server extraction-cache budget (bytes).
pub const DEFAULT_EXTRACTION_CACHE_BYTES: usize = 32 << 20;

/// One cached extraction: everything the forward needs that depends only
/// on `(frozen graph, sorted query set, model version)`.
pub struct Extraction {
    /// The sorted-unique query set this block was built for.
    pub queries: Vec<u32>,
    /// `layers + 1` sorted node sets (see
    /// [`KhopWorkspace::khop_node_sets`](plexus_graph::KhopWorkspace::khop_node_sets)).
    pub sets: Vec<Vec<u32>>,
    /// Per-layer sub-CSR blocks.
    pub subs: Vec<Csr>,
    /// Layer-0 aggregated features: `subs[0] ·` (gathered feature rows).
    pub h0: Matrix,
}

impl Extraction {
    /// Resident bytes, for the cache ledger.
    pub fn bytes(&self) -> usize {
        let sets: usize = self.sets.iter().map(|s| s.len() * 4).sum();
        let subs: usize = self.subs.iter().map(|s| s.mem_bytes() as usize).sum();
        self.queries.len() * 4 + sets + subs + self.h0.as_slice().len() * 4
    }
}

/// A cached per-node 1-hop slice: the node's adjacency row, decoded once.
struct SupportSlice {
    cols: Vec<u32>,
    vals: Vec<f32>,
}

enum Slot {
    Block(std::sync::Arc<Extraction>),
    Support(std::sync::Arc<SupportSlice>),
}

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    /// Digest of `(layers, sorted query set)`.
    Block(u64),
    /// Node id.
    Support(u32),
}

struct Entry {
    version: u64,
    tick: u64,
    bytes: usize,
    slot: Slot,
}

#[derive(Default)]
struct Inner {
    map: HashMap<Key, Entry>,
    /// LRU order: tick → key. Ticks are unique (monotone counter).
    order: BTreeMap<u64, Key>,
    tick: u64,
    bytes: usize,
}

/// Counter snapshot of an [`ExtractionCache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtractionStats {
    /// Whole-extraction block hits (the batch skipped k-hop + sub-CSR
    /// build + feature gather + layer-0 SpMM entirely).
    pub block_hits: u64,
    /// Block lookups that missed (cold or stale-version query sets).
    pub block_misses: u64,
    /// Per-node 1-hop slice hits during set expansion / extraction.
    pub support_hits: u64,
    /// Per-node slice lookups that missed.
    pub support_misses: u64,
    /// Entries evicted by the byte-budget LRU.
    pub evicted: u64,
    /// Bytes currently resident (the cache ledger).
    pub bytes: u64,
}

/// The shared, version-stamped, byte-bounded extraction cache. See the
/// module docs for semantics.
pub struct ExtractionCache {
    budget: usize,
    inner: Mutex<Inner>,
    block_hits: AtomicU64,
    block_misses: AtomicU64,
    support_hits: AtomicU64,
    support_misses: AtomicU64,
    evicted: AtomicU64,
}

impl ExtractionCache {
    /// A cache bounded at `budget` bytes; `0` disables caching (every
    /// lookup misses, every insert is dropped).
    pub fn new(budget: usize) -> Self {
        ExtractionCache {
            budget,
            inner: Mutex::new(Inner::default()),
            block_hits: AtomicU64::new(0),
            block_misses: AtomicU64::new(0),
            support_hits: AtomicU64::new(0),
            support_misses: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
        }
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Counter snapshot (bytes included — the cache's memory ledger).
    pub fn stats(&self) -> ExtractionStats {
        let bytes = self.inner.lock().expect("extraction cache poisoned").bytes as u64;
        ExtractionStats {
            block_hits: self.block_hits.load(Ordering::Relaxed),
            block_misses: self.block_misses.load(Ordering::Relaxed),
            support_hits: self.support_hits.load(Ordering::Relaxed),
            support_misses: self.support_misses.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
            bytes,
        }
    }

    /// Drop every entry (hot reload: a new model version is being
    /// served, and stale-version entries can never hit again).
    pub fn invalidate(&self) {
        let mut inner = self.inner.lock().expect("extraction cache poisoned");
        inner.map.clear();
        inner.order.clear();
        inner.bytes = 0;
    }

    /// Look up the extraction block for `(version, layers, queries)`.
    /// `queries` must be sorted-unique; the stored set is compared on a
    /// digest hit so collisions read as misses.
    pub fn lookup_block(
        &self,
        version: u64,
        layers: usize,
        queries: &[u32],
    ) -> Option<std::sync::Arc<Extraction>> {
        let key = Key::Block(block_digest(layers, queries));
        let mut inner = self.inner.lock().expect("extraction cache poisoned");
        let hit = match inner.map.get(&key) {
            Some(e) if e.version == version => match &e.slot {
                Slot::Block(ext) if ext.queries == queries => Some(std::sync::Arc::clone(ext)),
                _ => None,
            },
            _ => None,
        };
        match hit {
            Some(ext) => {
                touch(&mut inner, key);
                self.block_hits.fetch_add(1, Ordering::Relaxed);
                Some(ext)
            }
            None => {
                self.block_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Insert an extraction block computed under `version`.
    pub fn insert_block(&self, version: u64, layers: usize, ext: std::sync::Arc<Extraction>) {
        let bytes = ext.bytes();
        let key = Key::Block(block_digest(layers, &ext.queries));
        self.insert(key, version, bytes, Slot::Block(ext));
    }

    /// Serve node `v`'s cached 1-hop slice into `cols`/`vals` (pass
    /// `None` for `vals` when only the support is needed). Returns false
    /// on a miss.
    fn lookup_support_into(
        &self,
        version: u64,
        v: u32,
        cols: &mut Vec<u32>,
        vals: Option<&mut Vec<f32>>,
    ) -> bool {
        let key = Key::Support(v);
        let mut inner = self.inner.lock().expect("extraction cache poisoned");
        let hit = match inner.map.get(&key) {
            Some(e) if e.version == version => match &e.slot {
                Slot::Support(s) => Some(std::sync::Arc::clone(s)),
                _ => None,
            },
            _ => None,
        };
        match hit {
            Some(slice) => {
                touch(&mut inner, key);
                drop(inner);
                self.support_hits.fetch_add(1, Ordering::Relaxed);
                cols.extend_from_slice(&slice.cols);
                if let Some(vals) = vals {
                    vals.extend_from_slice(&slice.vals);
                }
                true
            }
            None => {
                self.support_misses.fetch_add(1, Ordering::Relaxed);
                false
            }
        }
    }

    /// Whether node `v` already has a live slice under `version` (probe
    /// without touching counters or LRU order).
    pub fn has_support(&self, version: u64, v: u32) -> bool {
        let inner = self.inner.lock().expect("extraction cache poisoned");
        matches!(inner.map.get(&Key::Support(v)), Some(e) if e.version == version)
    }

    /// Admit node `v`'s decoded 1-hop slice.
    pub fn insert_support(&self, version: u64, v: u32, cols: Vec<u32>, vals: Vec<f32>) {
        let bytes = cols.len() * 4 + vals.len() * 4;
        let slot = Slot::Support(std::sync::Arc::new(SupportSlice { cols, vals }));
        self.insert(Key::Support(v), version, bytes, slot);
    }

    fn insert(&self, key: Key, version: u64, bytes: usize, slot: Slot) {
        if self.budget == 0 || bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("extraction cache poisoned");
        if let Some(old) = inner.map.remove(&key) {
            inner.order.remove(&old.tick);
            inner.bytes -= old.bytes;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(key, Entry { version, tick, bytes, slot });
        inner.order.insert(tick, key);
        inner.bytes += bytes;
        // LRU eviction back under budget. The just-inserted entry has the
        // newest tick, so it goes last — and only if it alone overflows.
        let mut evicted = 0;
        while inner.bytes > self.budget {
            let (&oldest, &victim) = inner.order.iter().next().expect("bytes>0 implies entries");
            inner.order.remove(&oldest);
            let gone = inner.map.remove(&victim).expect("order/map in sync");
            inner.bytes -= gone.bytes;
            evicted += 1;
        }
        if evicted > 0 {
            self.evicted.fetch_add(evicted, Ordering::Relaxed);
        }
    }
}

/// Move `key` to the most-recently-used position.
fn touch(inner: &mut Inner, key: Key) {
    inner.tick += 1;
    let tick = inner.tick;
    let entry = inner.map.get_mut(&key).expect("touch on live entry");
    let old = std::mem::replace(&mut entry.tick, tick);
    inner.order.remove(&old);
    inner.order.insert(tick, key);
}

/// The format digest of the layer count and the sorted query set (which
/// folds the set's length in).
fn block_digest(layers: usize, queries: &[u32]) -> u64 {
    let mut d = Digest::new();
    d.put(&(layers as u64).to_le_bytes());
    for q in queries {
        d.put(&q.to_le_bytes());
    }
    d.finish()
}

/// A [`RowSource`] view over the artifact that serves hot per-node 1-hop
/// slices from the cache and falls through to mmap decoding otherwise.
/// The underlying source and the cached slices hold identical bytes, so
/// extraction through this wrapper is bitwise-identical to extraction
/// straight off the source.
///
/// Only rows in `candidates` (the batch's sorted query set — the only
/// nodes the engine admits slices for) probe the cache at all: a k-hop
/// expansion touches orders of magnitude more rows than it queries, and
/// probing the shared mutex per expansion row would cost more in lock
/// traffic than the guaranteed misses could ever return.
pub(crate) struct CachedRows<'a, S: RowSource> {
    pub src: &'a S,
    pub cache: Option<&'a ExtractionCache>,
    pub version: u64,
    pub candidates: &'a [u32],
}

impl<S: RowSource> CachedRows<'_, S> {
    fn cache_for(&self, v: u32) -> Option<&ExtractionCache> {
        self.cache.filter(|_| self.candidates.binary_search(&v).is_ok())
    }
}

impl<S: RowSource> RowSource for CachedRows<'_, S> {
    fn num_nodes(&self) -> usize {
        self.src.num_nodes()
    }

    fn row_support(&self, v: u32, out: &mut Vec<u32>) {
        if let Some(cache) = self.cache_for(v) {
            if cache.lookup_support_into(self.version, v, out, None) {
                return;
            }
        }
        self.src.row_support(v, out);
    }

    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>) {
        if let Some(cache) = self.cache_for(v) {
            if cache.lookup_support_into(self.version, v, cols, Some(vals)) {
                return;
            }
        }
        self.src.row_entries(v, cols, vals);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(nq: usize, bytes_per_set: usize) -> std::sync::Arc<Extraction> {
        std::sync::Arc::new(Extraction {
            queries: (0..nq as u32).collect(),
            sets: vec![vec![0; bytes_per_set / 4]],
            subs: vec![],
            h0: Matrix::zeros(1, 1),
        })
    }

    #[test]
    fn block_roundtrip_is_version_stamped() {
        let cache = ExtractionCache::new(1 << 20);
        let ext = block(4, 64);
        cache.insert_block(7, 3, std::sync::Arc::clone(&ext));
        assert!(cache.lookup_block(7, 3, &ext.queries).is_some());
        assert!(cache.lookup_block(8, 3, &ext.queries).is_none(), "new version must miss");
        assert!(cache.lookup_block(7, 2, &ext.queries).is_none(), "layer count keys the digest");
        let stats = cache.stats();
        assert_eq!(stats.block_hits, 1);
        assert_eq!(stats.block_misses, 2);
        assert_eq!(stats.bytes, ext.bytes() as u64);
    }

    #[test]
    fn invalidate_clears_everything() {
        let cache = ExtractionCache::new(1 << 20);
        cache.insert_block(1, 3, block(4, 64));
        cache.insert_support(1, 9, vec![1, 2, 3], vec![0.5; 3]);
        cache.invalidate();
        assert_eq!(cache.stats().bytes, 0);
        assert!(cache.lookup_block(1, 3, &[0, 1, 2, 3]).is_none());
        assert!(!cache.has_support(1, 9));
    }

    #[test]
    fn lru_evicts_oldest_under_byte_pressure() {
        // Each block ~> 1KiB of sets; budget fits about three.
        let one = block(1, 1024).bytes();
        let cache = ExtractionCache::new(3 * one + one / 2);
        for v in 0..4u32 {
            let mut ext = block(1, 1024);
            std::sync::Arc::get_mut(&mut ext).unwrap().queries = vec![v];
            cache.insert_block(1, 3, ext);
        }
        let stats = cache.stats();
        assert!(stats.evicted >= 1, "budget pressure must evict");
        assert!(stats.bytes <= cache.budget() as u64);
        // The most recent insert survives; the oldest is gone.
        assert!(cache.lookup_block(1, 3, &[3]).is_some());
        assert!(cache.lookup_block(1, 3, &[0]).is_none());
    }

    #[test]
    fn touch_protects_recently_used_entries() {
        let one = block(1, 1024).bytes();
        let cache = ExtractionCache::new(2 * one + one / 2);
        for v in 0..2u32 {
            let mut ext = block(1, 1024);
            std::sync::Arc::get_mut(&mut ext).unwrap().queries = vec![v];
            cache.insert_block(1, 3, ext);
        }
        // Touch the older entry, then overflow: the untouched one dies.
        assert!(cache.lookup_block(1, 3, &[0]).is_some());
        let mut ext = block(1, 1024);
        std::sync::Arc::get_mut(&mut ext).unwrap().queries = vec![9];
        cache.insert_block(1, 3, ext);
        assert!(cache.lookup_block(1, 3, &[0]).is_some(), "recently used entry evicted");
        assert!(cache.lookup_block(1, 3, &[1]).is_none());
    }

    #[test]
    fn zero_budget_disables_caching() {
        let cache = ExtractionCache::new(0);
        cache.insert_block(1, 3, block(4, 64));
        assert!(cache.lookup_block(1, 3, &[0, 1, 2, 3]).is_none());
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn oversized_entry_is_refused_not_thrashed() {
        let cache = ExtractionCache::new(128);
        cache.insert_block(1, 3, block(1, 4096));
        let stats = cache.stats();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evicted, 0, "an oversized entry must be refused up front");
    }
}
