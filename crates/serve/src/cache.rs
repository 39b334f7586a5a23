//! The extraction cache: hot queried nodes' 1-hop support slices.
//!
//! A query runs only the last layer (the snapshot holds the full-graph
//! hidden layer), so its extraction is one sub-CSR over the queried rows.
//! This cache keeps each *queried* node's decoded adjacency row (columns +
//! values), admitted on the fetch that missed it, so overlapping query
//! streams stop re-decoding hot hub rows out of the mmapped shards.
//!
//! Entries are stamped with the model version they were built under; a
//! lookup for any other version is a miss, and
//! [`ExtractionCache::invalidate`] (called by the server's
//! `reload_latest`) drops everything eagerly. The cache is shared across
//! workers behind one mutex — the hold time is a map probe, not a
//! computation — and is LRU-bounded by bytes: every entry's byte size
//! joins a ledger-style total, and inserts evict least-recently-used
//! entries until the total is back under budget. A zero budget disables
//! caching outright.

use plexus_graph::khop::RowSource;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Default per-server extraction-cache budget (bytes).
pub const DEFAULT_EXTRACTION_CACHE_BYTES: usize = 32 << 20;

/// A cached per-node 1-hop slice: the node's adjacency row, decoded once.
struct SupportSlice {
    cols: Vec<u32>,
    vals: Vec<f32>,
}

struct Entry {
    version: u64,
    tick: u64,
    bytes: usize,
    slice: Arc<SupportSlice>,
}

#[derive(Default)]
struct Inner {
    /// Node id → its slice.
    map: HashMap<u32, Entry>,
    /// LRU order: tick → node. Ticks are unique (monotone counter).
    order: BTreeMap<u64, u32>,
    tick: u64,
    bytes: usize,
}

/// Counter snapshot of an [`ExtractionCache`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ExtractionStats {
    /// Per-node 1-hop slice hits during extraction.
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

    /// Append node `v`'s 1-hop slice to `cols` (and `vals`, when given):
    /// from the cache on a hit, otherwise decoded from `src` and admitted
    /// for the next batch that queries `v`.
    fn fetch_into(
        &self,
        src: &impl RowSource,
        version: u64,
        v: u32,
        cols: &mut Vec<u32>,
        vals: Option<&mut Vec<f32>>,
    ) {
        let mut inner = self.inner.lock().expect("extraction cache poisoned");
        let hit = match inner.map.get(&v) {
            Some(e) if e.version == version => Some(Arc::clone(&e.slice)),
            _ => None,
        };
        if hit.is_some() {
            touch(&mut inner, v);
        }
        drop(inner);
        let slice = match hit {
            Some(slice) => {
                self.support_hits.fetch_add(1, Ordering::Relaxed);
                slice
            }
            None => {
                self.support_misses.fetch_add(1, Ordering::Relaxed);
                let mut slice = SupportSlice { cols: Vec::new(), vals: Vec::new() };
                src.row_entries(v, &mut slice.cols, &mut slice.vals);
                let slice = Arc::new(slice);
                self.insert(version, v, Arc::clone(&slice));
                slice
            }
        };
        cols.extend_from_slice(&slice.cols);
        if let Some(vals) = vals {
            vals.extend_from_slice(&slice.vals);
        }
    }

    /// Admit node `v`'s decoded 1-hop slice computed under `version`.
    fn insert(&self, version: u64, v: u32, slice: Arc<SupportSlice>) {
        let bytes = slice.cols.len() * 4 + slice.vals.len() * 4;
        if self.budget == 0 || bytes > self.budget {
            return;
        }
        let mut inner = self.inner.lock().expect("extraction cache poisoned");
        if let Some(old) = inner.map.remove(&v) {
            inner.order.remove(&old.tick);
            inner.bytes -= old.bytes;
        }
        inner.tick += 1;
        let tick = inner.tick;
        inner.map.insert(v, Entry { version, tick, bytes, slice });
        inner.order.insert(tick, v);
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

/// Move node `v`'s entry to the most-recently-used position.
fn touch(inner: &mut Inner, v: u32) {
    inner.tick += 1;
    let tick = inner.tick;
    let entry = inner.map.get_mut(&v).expect("touch on live entry");
    let old = std::mem::replace(&mut entry.tick, tick);
    inner.order.remove(&old);
    inner.order.insert(tick, v);
}

/// A [`RowSource`] view over the artifact that serves hot per-node 1-hop
/// slices from the cache and falls through to mmap decoding otherwise.
/// The underlying source and the cached slices hold identical bytes, so
/// extraction through this wrapper is bitwise-identical to extraction
/// straight off the source.
///
/// Only rows in `candidates` (the batch's sorted query set) go through
/// the cache, so it holds queried nodes only.
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
        match self.cache_for(v) {
            Some(cache) => cache.fetch_into(self.src, self.version, v, out, None),
            None => self.src.row_support(v, out),
        }
    }

    fn row_entries(&self, v: u32, cols: &mut Vec<u32>, vals: &mut Vec<f32>) {
        match self.cache_for(v) {
            Some(cache) => cache.fetch_into(self.src, self.version, v, cols, Some(vals)),
            None => self.src.row_entries(v, cols, vals),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sparse::Csr;

    /// Node `v`'s row holds `len(v)` entries: `8 * len(v)` ledger bytes.
    fn graph(len: impl Fn(u32) -> usize) -> Csr {
        let (mut row_ptr, mut cols, mut vals) = (vec![0], Vec::new(), Vec::new());
        for v in 0..10u32 {
            cols.extend(0..len(v) as u32);
            vals.extend((0..len(v)).map(|k| k as f32 + 0.5));
            row_ptr.push(cols.len());
        }
        Csr::from_raw(10, 512, row_ptr, cols, vals)
    }

    /// Fetch `v` under `version`; true when it was a hit.
    fn fetch(cache: &ExtractionCache, src: &Csr, version: u64, v: u32) -> bool {
        let hits = cache.stats().support_hits;
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        cache.fetch_into(src, version, v, &mut cols, Some(&mut vals));
        assert_eq!((&cols[..], &vals[..]), src.row_entries(v as usize), "node {v}");
        cache.stats().support_hits > hits
    }

    fn resident(cache: &ExtractionCache, v: u32) -> bool {
        cache.inner.lock().unwrap().map.contains_key(&v)
    }

    #[test]
    fn slice_roundtrip_is_version_stamped() {
        let (src, cache) = (graph(|_| 3), ExtractionCache::new(1 << 20));
        assert!(!fetch(&cache, &src, 7, 3), "first fetch decodes");
        assert!(fetch(&cache, &src, 7, 3));
        let mut cols = vec![9];
        cache.fetch_into(&src, 7, 3, &mut cols, None);
        assert_eq!(cols, [9, 0, 1, 2], "appended");
        assert!(!fetch(&cache, &src, 8, 3), "new version must miss");
        assert!(!fetch(&cache, &src, 8, 4), "other node must miss");
        let stats = cache.stats();
        assert_eq!((stats.support_hits, stats.support_misses), (2, 3));
        assert_eq!(stats.bytes, 48);
    }

    #[test]
    fn invalidate_clears_everything() {
        let (src, cache) = (graph(|_| 3), ExtractionCache::new(1 << 20));
        fetch(&cache, &src, 1, 9);
        cache.invalidate();
        assert_eq!(cache.stats().bytes, 0);
        assert!(!fetch(&cache, &src, 1, 9));
    }

    #[test]
    fn lru_evicts_oldest_under_byte_pressure() {
        // Each slice is 1 KiB; the budget fits three and a half.
        let (src, cache) = (graph(|_| 128), ExtractionCache::new(3584));
        for v in 0..4u32 {
            fetch(&cache, &src, 1, v);
        }
        let stats = cache.stats();
        assert!(stats.evicted >= 1, "budget pressure must evict");
        assert!(stats.bytes <= cache.budget() as u64);
        // The most recent insert survives; the oldest is gone.
        assert!(resident(&cache, 3));
        assert!(!resident(&cache, 0));
    }

    #[test]
    fn touch_protects_recently_used_entries() {
        let (src, cache) = (graph(|_| 128), ExtractionCache::new(2560));
        for v in 0..2u32 {
            fetch(&cache, &src, 1, v);
        }
        // Touch the older entry, then overflow: the untouched one dies.
        assert!(fetch(&cache, &src, 1, 0));
        fetch(&cache, &src, 1, 9);
        assert!(resident(&cache, 0), "recently used entry evicted");
        assert!(!resident(&cache, 1));
    }

    #[test]
    fn zero_budget_disables_caching() {
        let (src, cache) = (graph(|_| 4), ExtractionCache::new(0));
        fetch(&cache, &src, 1, 3);
        assert!(!fetch(&cache, &src, 1, 3));
        assert_eq!(cache.stats().bytes, 0);
    }

    #[test]
    fn oversized_entry_is_refused_not_thrashed() {
        let (src, cache) = (graph(|v| if v == 3 { 512 } else { 1 }), ExtractionCache::new(128));
        fetch(&cache, &src, 1, 3);
        let stats = cache.stats();
        assert_eq!(stats.bytes, 0);
        assert_eq!(stats.evicted, 0, "an oversized entry must be refused up front");
    }
}
