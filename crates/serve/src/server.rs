//! The request-batching front end: a bounded submission queue, an
//! adaptive batcher (flush on max-batch-size or max-wait, whichever
//! first), a pool of worker threads each owning its own
//! [`QueryEngine`] workspaces, and a sharded
//! read-mostly prediction cache stamped with the model version so a hot
//! reload invalidates it implicitly — stale entries simply stop matching.
//!
//! Hot reload never drains the server: [`Server::reload_latest`] computes
//! the new version's hidden layer, then swaps the model snapshot
//! atomically; batches already in flight finish on the `Arc` they
//! captured, the next batch picks up the new weights.

use crate::artifact::Artifact;
use crate::cache::{ExtractionCache, DEFAULT_EXTRACTION_CACHE_BYTES};
use crate::engine::{Prediction, QueryEngine};
use parking_lot::{Condvar, Mutex};
use plexus::loader::LoaderResult;
use std::collections::{HashMap, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Admission control for a full submission queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SubmitPolicy {
    /// Block the submitter until a worker frees queue space.
    #[default]
    Block,
    /// Refuse immediately with [`ServeError::Overloaded`]; the caller
    /// decides whether to retry, degrade, or propagate.
    Shed,
}

/// Typed serving-path errors.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The submission queue was full and the server is configured with
    /// [`SubmitPolicy::Shed`].
    Overloaded,
    /// A queried node id is not a node of the served graph. The whole
    /// call is refused before any cache lookup or enqueue.
    InvalidNode { node: u32, num_nodes: usize },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "submission queue full (load shed)"),
            ServeError::InvalidNode { node, num_nodes } => {
                write!(f, "query node {node} out of range (graph has {num_nodes} nodes)")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// Front-end tuning knobs.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads; each owns its own query engine.
    pub workers: usize,
    /// Flush a batch once it reaches this many requests.
    pub max_batch: usize,
    /// ... or once the oldest request in it has waited this long.
    pub max_wait: Duration,
    /// Bounded submission-queue capacity; what happens when it fills is
    /// decided by `submit`.
    pub queue_cap: usize,
    /// Byte budget of the shared extraction cache (queried nodes' 1-hop
    /// slices). `0` disables extraction caching entirely.
    pub extraction_cache_bytes: usize,
    /// Admission control when the queue is full: block (default) or shed.
    pub submit: SubmitPolicy,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 2,
            max_batch: 64,
            max_wait: Duration::from_micros(500),
            queue_cap: 1024,
            extraction_cache_bytes: DEFAULT_EXTRACTION_CACHE_BYTES,
            submit: SubmitPolicy::Block,
        }
    }
}

/// Shards of the prediction cache (reduces write contention).
const CACHE_SHARDS: usize = 16;

/// Counters exported by [`Server::stats`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// Predictions computed by workers (cache hits not included).
    pub served: u64,
    /// Batches flushed; `served / batches` is the realized batch size.
    pub batches: u64,
    /// Queries answered from the prediction cache.
    pub cache_hits: u64,
    /// Successful hot reloads.
    pub reloads: u64,
    /// Submissions refused under [`SubmitPolicy::Shed`].
    pub shed: u64,
    /// Extraction-cache hits: queried rows served from a cached 1-hop
    /// slice instead of decoded from the mapped shards.
    pub extraction_hits: u64,
    /// Extraction-cache misses: queried rows decoded from the shards.
    pub extraction_misses: u64,
    /// Extraction-cache entries evicted by the byte-budget LRU.
    pub extraction_evicted: u64,
    /// Bytes currently held by the extraction cache (its ledger).
    pub extraction_bytes: u64,
}

struct Request {
    node: u32,
    tx: mpsc::Sender<Prediction>,
}

struct Shared {
    artifact: Artifact,
    cfg: ServeConfig,
    queue: Mutex<VecDeque<Request>>,
    not_empty: Condvar,
    not_full: Condvar,
    closed: AtomicBool,
    /// Version-stamped prediction cache: a hit counts only when the entry
    /// was computed by the currently served model version.
    cache: Vec<RwLock<HashMap<u32, Prediction>>>,
    /// Extraction cache, shared by every worker's engine.
    extraction: Arc<ExtractionCache>,
    served: AtomicU64,
    batches: AtomicU64,
    cache_hits: AtomicU64,
    reloads: AtomicU64,
    shed: AtomicU64,
}

/// A running serving instance over one frozen artifact.
pub struct Server {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Open (and fully verify) the artifact at `dir` and start the worker
    /// pool.
    pub fn start(dir: &Path, cfg: ServeConfig) -> LoaderResult<Server> {
        assert!(cfg.workers > 0 && cfg.max_batch > 0 && cfg.queue_cap > 0);
        let artifact = Artifact::open(dir)?;
        let shared = Arc::new(Shared {
            artifact,
            queue: Mutex::new(VecDeque::new()),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            closed: AtomicBool::new(false),
            cache: (0..CACHE_SHARDS).map(|_| RwLock::new(HashMap::new())).collect(),
            extraction: Arc::new(ExtractionCache::new(cfg.extraction_cache_bytes)),
            served: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            reloads: AtomicU64::new(0),
            shed: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..shared.cfg.workers)
            .map(|w| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("plexus-serve-{w}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("spawn serve worker")
            })
            .collect();
        Ok(Server { shared, workers })
    }

    /// The artifact being served (read-only).
    pub fn artifact(&self) -> &Artifact {
        &self.shared.artifact
    }

    /// Answer one query, blocking until a worker flushes the batch it
    /// lands in (or a cache entry from the current model version hits).
    /// Panics on any [`ServeError`] — an out-of-range `node`, or a shed
    /// submission under [`SubmitPolicy::Shed`]; use [`Server::try_query`]
    /// for ids from outside the program or when the server sheds load.
    pub fn query(&self, node: u32) -> Prediction {
        self.try_query(node).unwrap_or_else(|e| panic!("Server::query: {e}; use try_query"))
    }

    /// [`Server::query`] with typed errors: an out-of-range id returns
    /// [`ServeError::InvalidNode`], and under [`SubmitPolicy::Shed`] a
    /// full queue returns [`ServeError::Overloaded`] immediately instead
    /// of blocking.
    pub fn try_query(&self, node: u32) -> Result<Prediction, ServeError> {
        self.validate(&[node])?;
        if let Some(hit) = self.cache_lookup(node) {
            return Ok(hit);
        }
        let (tx, rx) = mpsc::channel();
        self.try_enqueue(Request { node, tx })?;
        Ok(rx.recv().expect("serve worker dropped a request"))
    }

    /// Submit a group of queries at once and collect the answers in
    /// order. All cache misses enter the queue together, so they tend to
    /// be batched together. Panics on any [`ServeError`] — use
    /// [`Server::try_query_many`] for ids from outside the program or when
    /// the server sheds load.
    pub fn query_many(&self, nodes: &[u32]) -> Vec<Prediction> {
        self.try_query_many(nodes)
            .unwrap_or_else(|e| panic!("Server::query_many: {e}; use try_query_many"))
    }

    /// [`Server::query_many`] with typed errors. The whole slice is
    /// validated first: one out-of-range id refuses the call with
    /// [`ServeError::InvalidNode`] before anything is looked up or
    /// enqueued. After that, the first shed submission aborts the call
    /// with [`ServeError::Overloaded`]; requests already enqueued still
    /// run (their answers warm the prediction cache), their receivers are
    /// simply dropped.
    pub fn try_query_many(&self, nodes: &[u32]) -> Result<Vec<Prediction>, ServeError> {
        self.validate(nodes)?;
        let mut pending: Vec<(usize, mpsc::Receiver<Prediction>)> = Vec::new();
        let mut out: Vec<Option<Prediction>> = Vec::with_capacity(nodes.len());
        for (i, &node) in nodes.iter().enumerate() {
            if let Some(hit) = self.cache_lookup(node) {
                out.push(Some(hit));
            } else {
                let (tx, rx) = mpsc::channel();
                self.try_enqueue(Request { node, tx })?;
                pending.push((i, rx));
                out.push(None);
            }
        }
        for (i, rx) in pending {
            out[i] = Some(rx.recv().expect("serve worker dropped a request"));
        }
        Ok(out.into_iter().map(|p| p.expect("every slot answered")).collect())
    }

    /// Pick up a newly [`publish`](crate::publish)ed model version, if
    /// any, without draining in-flight work. Returns the new version.
    pub fn reload_latest(&self) -> LoaderResult<Option<u64>> {
        let swapped = self.shared.artifact.reload_latest()?;
        if swapped.is_some() {
            // Stale-version extraction entries can never hit again (every
            // lookup carries the live version); drop them eagerly so the
            // byte budget is free for the new version's working set.
            self.shared.extraction.invalidate();
            self.shared.reloads.fetch_add(1, Ordering::Relaxed);
        }
        Ok(swapped)
    }

    /// The model version currently being served.
    pub fn current_version(&self) -> u64 {
        self.shared.artifact.snapshot().version
    }

    /// Snapshot of the serving counters.
    pub fn stats(&self) -> ServerStats {
        let ext = self.shared.extraction.stats();
        ServerStats {
            served: self.shared.served.load(Ordering::Relaxed),
            batches: self.shared.batches.load(Ordering::Relaxed),
            cache_hits: self.shared.cache_hits.load(Ordering::Relaxed),
            reloads: self.shared.reloads.load(Ordering::Relaxed),
            shed: self.shared.shed.load(Ordering::Relaxed),
            extraction_hits: ext.support_hits,
            extraction_misses: ext.support_misses,
            extraction_evicted: ext.evicted,
            extraction_bytes: ext.bytes,
        }
    }

    fn validate(&self, nodes: &[u32]) -> Result<(), ServeError> {
        let num_nodes = self.shared.artifact.num_nodes();
        match nodes.iter().find(|&&node| node as usize >= num_nodes) {
            Some(&node) => Err(ServeError::InvalidNode { node, num_nodes }),
            None => Ok(()),
        }
    }

    fn cache_lookup(&self, node: u32) -> Option<Prediction> {
        let current = self.shared.artifact.snapshot().version;
        let shard = &self.shared.cache[node as usize % self.shared.cache.len()];
        let hit = shard
            .read()
            .expect("cache lock poisoned")
            .get(&node)
            .filter(|p| p.model_version == current)
            .cloned();
        if hit.is_some() {
            self.shared.cache_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    fn try_enqueue(&self, req: Request) -> Result<(), ServeError> {
        let mut q = self.shared.queue.lock();
        match self.shared.cfg.submit {
            SubmitPolicy::Block => {
                while q.len() >= self.shared.cfg.queue_cap
                    && !self.shared.closed.load(Ordering::Acquire)
                {
                    self.shared.not_full.wait(&mut q);
                }
            }
            SubmitPolicy::Shed => {
                if q.len() >= self.shared.cfg.queue_cap
                    && !self.shared.closed.load(Ordering::Acquire)
                {
                    drop(q);
                    self.shared.shed.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded);
                }
            }
        }
        q.push_back(req);
        drop(q);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl Drop for Server {
    /// Graceful shutdown: workers drain everything already queued, then
    /// exit.
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        self.shared.not_empty.notify_all();
        self.shared.not_full.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: &Shared) {
    let depth = shared.artifact.snapshot().gcn.config.num_layers;
    let mut engine = QueryEngine::with_cache(depth, Arc::clone(&shared.extraction));
    let mut batch: Vec<Request> = Vec::with_capacity(shared.cfg.max_batch);
    let mut nodes: Vec<u32> = Vec::with_capacity(shared.cfg.max_batch);
    loop {
        batch.clear();
        {
            let mut q = shared.queue.lock();
            while q.is_empty() {
                if shared.closed.load(Ordering::Acquire) {
                    return;
                }
                shared.not_empty.wait(&mut q);
            }
            // Adaptive batching: take whatever is queued; while under
            // max_batch, linger up to max_wait for stragglers.
            let deadline = Instant::now() + shared.cfg.max_wait;
            loop {
                while batch.len() < shared.cfg.max_batch {
                    match q.pop_front() {
                        Some(r) => batch.push(r),
                        None => break,
                    }
                }
                if batch.len() >= shared.cfg.max_batch || shared.closed.load(Ordering::Acquire) {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                if q.is_empty() {
                    let res = shared.not_empty.wait_for(&mut q, deadline - now);
                    if res.timed_out() && q.is_empty() {
                        break;
                    }
                }
            }
        }
        shared.not_full.notify_all();
        if batch.is_empty() {
            continue;
        }
        // Snapshot once per batch: a concurrent reload never tears it.
        let snap = shared.artifact.snapshot();
        nodes.clear();
        nodes.extend(batch.iter().map(|r| r.node));
        let preds = engine.predict_batch(&shared.artifact, &snap, &nodes);
        shared.served.fetch_add(preds.len() as u64, Ordering::Relaxed);
        shared.batches.fetch_add(1, Ordering::Relaxed);
        for (req, pred) in batch.drain(..).zip(preds) {
            let shard = &shared.cache[pred.node as usize % shared.cache.len()];
            shard.write().expect("cache lock poisoned").insert(pred.node, pred.clone());
            // The submitter may have given up (dropped receiver); fine.
            let _ = req.tx.send(pred);
        }
    }
}
