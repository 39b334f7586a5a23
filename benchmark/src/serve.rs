//! `serve_zipf_reload`: the serving engine under a closed loop. One client
//! — a back-end that waits for each reply — asks a one-worker `Server` for
//! the predictions of eight nodes at a time, drawn from a Zipf law over a
//! seed-shuffled node order, while every 500 ops a new model version is
//! published and hot-reloaded, which empties both caches. K-hop extraction
//! and the caches do the work; the trainer is idle.

use crate::common::{rmat_dataset, Report, Run, WindowClock};
use crate::span::{spanned, Tracer};
use crate::stats::{median, percentile};
use plexus_gnn::{Gcn, GcnConfig};
use plexus_graph::{KhopWorkspace, LoadedDataset};
use plexus_serve::{freeze, publish, Artifact, QueryEngine, ServeConfig, Server, ServerStats};
use plexus_sparse::random_permutation;
use plexus_tensor::Matrix;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const NAME: &str = "serve_zipf_reload";
const SCALE: u32 = 15;
const EDGE_FACTOR: usize = 8;
const HIDDEN: usize = 32;
const CLASSES: usize = 12;
const LAYERS: usize = 3;
const ARTIFACT_GRID: usize = 4;
const BATCH: usize = 8;
const ZIPF_ALPHA: f64 = 1.0;
const RELOAD_EVERY: usize = 500;
const WARMUP_OPS: usize = 300;
/// Ops per second on the reference box.
const OPS_PER_SECOND: f64 = 100.0;
/// Ops of the traced pass, and of its untraced twin.
const TRACED_OPS: usize = 300;
/// Batches replayed against bare engines and the k-hop kernels.
const ENGINE_BATCHES: usize = 80;
/// Open loop: offered rates in batches per second, how many batches each
/// rate sends at least (p90 then has ten samples beyond it) and for how
/// long at least, and the latency limit on the p90.
const OPEN_RATES: [(f64, &str, &str); 3] = [
    (25.0, "serve.open_loop.r25.p50_ms", "serve.open_loop.r25.p90_ms"),
    (50.0, "serve.open_loop.r50.p50_ms", "serve.open_loop.r50.p90_ms"),
    (75.0, "serve.open_loop.r75.p50_ms", "serve.open_loop.r75.p90_ms"),
];
const OPEN_MIN_BATCHES: usize = 100;
const OPEN_MIN_SECONDS: f64 = 2.0;
const OPEN_LIMIT_MS: f64 = 40.0;
/// Threads that wait for replies in the open loop. They block; at most
/// the generator and the server's worker are ever runnable.
const OPEN_WAITERS: usize = 16;

/// Node ids drawn from a Zipf law: rank `r` of a seed-shuffled node order
/// has weight `1 / (r + 1)^alpha`.
pub struct Zipf {
    cdf: Vec<f64>,
    order: Vec<u32>,
    rng: StdRng,
}

impl Zipf {
    pub fn new(n: usize, alpha: f64, seed: u64) -> Self {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(alpha);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf, order: random_permutation(n, seed), rng: StdRng::seed_from_u64(seed ^ 0x5eed) }
    }

    pub fn sample(&mut self) -> u32 {
        let u = self.rng.random_range(0.0f64..1.0);
        let rank = self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1);
        self.order[rank]
    }

    pub fn batch(&mut self, len: usize) -> Vec<u32> {
        (0..len).map(|_| self.sample()).collect()
    }
}

/// Model version `v` of this run: fresh Glorot weights from a seed of its
/// own. Parity is about the computation, not accuracy.
fn model(run: &Run, version: u64) -> Gcn {
    Gcn::new(GcnConfig {
        input_dim: HIDDEN,
        hidden_dim: HIDDEN,
        num_classes: CLASSES,
        num_layers: LAYERS,
        seed: run.subseed(100 * version),
    })
}

/// The served artifact, the models to publish into it, and each model's
/// full-graph logits to check served answers against.
struct Fixture {
    ds: LoadedDataset,
    dir: PathBuf,
    /// `models[v - 1]` is version `v`.
    models: Vec<Gcn>,
    full: Vec<Matrix>,
}

impl Fixture {
    fn build(run: &Run, versions: usize, mut tr: Option<&mut Tracer>) -> Fixture {
        let ds = spanned(&mut tr, "graph.generate", || {
            rmat_dataset(SCALE, EDGE_FACTOR, HIDDEN, CLASSES, run.subseed(0))
        });
        let models: Vec<Gcn> = (1..=versions as u64).map(|v| model(run, v)).collect();
        let full = models.iter().map(|g| g.forward(&ds.adjacency, &ds.features).logits).collect();
        let dir = run.work.join("artifact");
        freeze(&dir, &ds.adjacency, &models[0], &ds.features, ARTIFACT_GRID, ARTIFACT_GRID)
            .expect("freeze artifact");
        Fixture { ds, dir, models, full }
    }

    fn start(&self) -> Server {
        Server::start(&self.dir, ServeConfig { workers: 1, ..Default::default() })
            .expect("start server")
    }
}

/// The closed loop: one client, ops back to back.
struct Client<'a> {
    fx: &'a Fixture,
    server: &'a Server,
    zipf: Zipf,
    reload_ms: Vec<f64>,
    failed: usize,
}

impl Client<'_> {
    /// One op: eight Zipf-drawn nodes through the server; every answer
    /// must carry the live version and that model's full-graph logits,
    /// bit for bit. Returns the latency in ms.
    fn op(&mut self) -> f64 {
        let nodes = self.zipf.batch(BATCH);
        let t0 = Instant::now();
        let answer = self.server.try_query_many(&nodes);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let live = self.server.current_version();
        let full = &self.fx.full[live as usize - 1];
        let ok = answer.is_ok_and(|preds| {
            preds.len() == nodes.len()
                && preds.iter().zip(&nodes).all(|(p, &v)| {
                    p.node == v
                        && p.model_version == live
                        && p.logits
                            .iter()
                            .zip(full.row(v as usize))
                            .all(|(a, b)| a.to_bits() == b.to_bits())
                })
        });
        self.failed += usize::from(!ok);
        ms
    }

    /// Publish the next model version and hot-reload it.
    fn reload(&mut self) {
        let next = self.server.current_version() as usize;
        let t0 = Instant::now();
        publish(&self.fx.dir, &self.fx.models[next], &self.fx.ds.features).expect("publish");
        let swapped = self.server.reload_latest().expect("reload");
        self.reload_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        self.failed += usize::from(swapped != Some(next as u64 + 1));
    }

    /// `ops` ops with a reload after every `RELOAD_EVERY`-th but the last.
    fn run(&mut self, ops: usize, mut tr: Option<&mut Tracer>) -> Vec<f64> {
        (0..ops)
            .map(|i| {
                if i > 0 && i % RELOAD_EVERY == 0 {
                    spanned(&mut tr, "serve.reload", || self.reload());
                }
                if let Some(t) = tr.as_deref_mut() {
                    t.set_op(i as u32);
                }
                spanned(&mut tr, "serve.op", || self.op())
            })
            .collect()
    }
}

fn reloads_in(ops: usize) -> usize {
    ops.saturating_sub(1) / RELOAD_EVERY
}

fn describe(ds: &LoadedDataset) -> String {
    format!(
        "{NAME}: RMAT scale {SCALE} edge factor {EDGE_FACTOR} -> {} nodes, {} nnz; hidden {HIDDEN}, {CLASSES} classes, {LAYERS} layers; {ARTIFACT_GRID}x{ARTIFACT_GRID} artifact; closed loop, 1 client + 1 worker; op = {BATCH} Zipf({ZIPF_ALPHA}) nodes; reload every {RELOAD_EVERY} ops",
        ds.num_nodes(),
        ds.adjacency.nnz()
    )
}

pub fn run(run: &Run) -> Report {
    let warmup = run.scaled(WARMUP_OPS);
    let timed = run.ops(OPS_PER_SECOND);
    // Version 1, one reload in the warm-up, then the window's reloads.
    let fx = Fixture::build(run, 2 + reloads_in(timed), None);
    let server = fx.start();
    let zipf = Zipf::new(fx.ds.num_nodes(), ZIPF_ALPHA, run.subseed(7));
    let mut client = Client { fx: &fx, server: &server, zipf, reload_ms: Vec::new(), failed: 0 };

    // The warm-up takes the reload path once too.
    client.run(warmup / 2, None);
    client.reload();
    client.run(warmup - warmup / 2, None);
    let (warm_failed, warm_reloads) = (client.failed, client.reload_ms.len());

    let clock = WindowClock::open(run);
    let samples = client.run(timed, None);
    let reloads = client.reload_ms.len() - warm_reloads;
    let window = clock.close(samples, timed + reloads, client.failed - warm_failed);

    let stats = server.stats();
    let notes = vec![
        describe(&fx.ds),
        format!(
            "{warmup} warm-up + {timed} timed ops; {reloads} reloads inside the window (ops, not samples), median {:.1} ms",
            if reloads > 0 { median(&client.reload_ms[warm_reloads..]) } else { 0.0 }
        ),
        format!(
            "every answer checked bitwise against the live version's full-graph forward; server counters: {stats:?}"
        ),
    ];
    Report::end_to_end(&window, warm_failed == 0, notes)
}

fn share(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

pub fn run_traced(run: &Run) -> (Report, Tracer) {
    let mut m: Vec<(&'static str, f64)> = Vec::new();
    let mut tr = Tracer::new(run.start);
    let warmup = run.scaled(WARMUP_OPS);
    let ops = run.scaled(TRACED_OPS);
    // Version 1, then a reload before each of: the rest of the warm-up,
    // the untraced pass, the traced pass — plus those inside the passes.
    let fx = Fixture::build(run, 4 + 2 * reloads_in(ops), Some(&mut tr));
    m.push(("graph.generate_ms", tr.median_ms("graph.generate")));

    let t0 = Instant::now();
    drop(Artifact::open(&fx.dir).expect("open artifact"));
    m.push(("serve.artifact_open_ms", t0.elapsed().as_secs_f64() * 1e3));

    let server = fx.start();
    let seed = run.subseed(7);
    let zipf = Zipf::new(fx.ds.num_nodes(), ZIPF_ALPHA, seed);
    let mut client = Client { fx: &fx, server: &server, zipf, reload_ms: Vec::new(), failed: 0 };
    client.run(warmup / 2, None);
    client.reload();
    client.run(warmup - warmup / 2, None);

    // Both passes start from caches a reload has just emptied and replay
    // the same node sequence, so they do the same work.
    client.reload();
    client.zipf = Zipf::new(fx.ds.num_nodes(), ZIPF_ALPHA, seed.wrapping_add(1));
    let before = server.stats();
    let untraced = client.run(ops, None);
    let after = server.stats();
    let counted = |field: fn(&ServerStats) -> u64| field(&after) - field(&before);
    client.reload();
    client.zipf = Zipf::new(fx.ds.num_nodes(), ZIPF_ALPHA, seed.wrapping_add(1));
    let traced = client.run(ops, Some(&mut tr));
    let server_ms = median(&untraced);
    m.push(("trace.overhead_pct", (median(&traced) / server_ms - 1.0) * 100.0));
    m.push(("serve.reload_ms", median(&client.reload_ms)));
    m.push(("serve.pred_cache_hit_share", counted(|s| s.cache_hits) as f64 / (ops * BATCH) as f64));
    m.push((
        "serve.extraction_hit_share",
        share(counted(|s| s.extraction_hits), counted(|s| s.extraction_misses)),
    ));
    m.push(("serve.extraction_evicted", counted(|s| s.extraction_evicted) as f64));
    m.push(("serve.extraction_bytes", after.extraction_bytes as f64));
    m.push(("serve.batches_per_op", counted(|s| s.batches) as f64 / ops as f64));

    engine_probes(&server, seed.wrapping_add(1), run, &untraced, &mut m);
    let mut notes = vec![
        describe(&fx.ds),
        format!(
            "traced pass: {ops} ops untraced, a reload, the same {ops} ops with spans; {} engine batches",
            run.scaled(ENGINE_BATCHES)
        ),
    ];
    open_loop(&server, seed.wrapping_add(2), run, &mut m, &mut notes);

    let failed = client.failed;
    notes.push(format!("closed-loop answers failing the bitwise check: {failed}"));
    (Report { attempted: 2 * ops, failed, correct: true, metrics: m, notes }, tr)
}

/// The layers under the server, called directly on the batches the server
/// saw after its reload: a bare engine with no cache at all, an engine with
/// the extraction cache fed what the server's worker was fed (the nodes its
/// prediction cache had not answered yet), each batch again at once for the
/// warm path, and the k-hop kernels alone.
fn engine_probes(
    server: &Server,
    seed: u64,
    run: &Run,
    server_ms: &[f64],
    m: &mut Vec<(&'static str, f64)>,
) {
    let artifact = server.artifact();
    let snap = artifact.snapshot();
    let mut zipf = Zipf::new(artifact.num_nodes(), ZIPF_ALPHA, seed);
    let count = run.scaled(ENGINE_BATCHES).min(server_ms.len());
    let mut cold = QueryEngine::without_cache(LAYERS);
    let mut cached = QueryEngine::new(LAYERS);
    let mut khop = KhopWorkspace::new();
    let mut answered: std::collections::HashSet<u32> = Default::default();
    let (mut cold_ms, mut miss_ms, mut warm_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut khop_ms, mut field) = (Vec::new(), Vec::new());
    let time = |engine: &mut QueryEngine, nodes: &[u32]| {
        let t0 = Instant::now();
        std::hint::black_box(engine.predict_batch(artifact, &snap, nodes));
        t0.elapsed().as_secs_f64() * 1e3
    };
    for _ in 0..count {
        let batch = zipf.batch(BATCH);
        cold_ms.push(time(&mut cold, &batch));
        // The server looks every node up before it enqueues any, so a
        // node repeated inside one batch misses twice.
        let misses: Vec<u32> = batch.iter().copied().filter(|v| !answered.contains(v)).collect();
        answered.extend(&batch);
        if misses.is_empty() {
            miss_ms.push(0.0);
        } else {
            miss_ms.push(time(&mut cached, &misses));
            warm_ms.push(time(&mut cached, &misses));
        }
        let t0 = Instant::now();
        let sets = khop.khop_node_sets(artifact, &batch, LAYERS);
        for l in 0..LAYERS {
            std::hint::black_box(khop.extract_sub_csr(artifact, &sets[l + 1], &sets[l]));
        }
        khop_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        field.push(sets[0].len() as f64);
    }
    m.push(("serve.predict_cold_ms", median(&cold_ms)));
    m.push(("serve.predict_warm_ms", median(&warm_ms)));
    m.push(("serve.queue_overhead_ms", median(&server_ms[..count]) - median(&miss_ms)));
    m.push(("graph.khop_extract_ms", median(&khop_ms)));
    m.push(("graph.khop_field_nodes", median(&field)));
}

/// Batches one open-loop rate sends.
fn open_batches(run: &Run, rate: f64) -> usize {
    run.scaled(OPEN_MIN_BATCHES.max((rate * OPEN_MIN_SECONDS).round() as usize))
}

/// Independent callers: batches are due on a fixed schedule whether or not
/// earlier ones have been answered, and each is timed from when it was
/// due, so a stall is charged to every request it delays.
fn open_loop(
    server: &Server,
    seed: u64,
    run: &Run,
    m: &mut Vec<(&'static str, f64)>,
    notes: &mut Vec<String>,
) {
    let mut zipf = Zipf::new(server.artifact().num_nodes(), ZIPF_ALPHA, seed);
    let mut late_all = Vec::new();
    let mut max_ok = 0.0;
    for (rate, p50_name, p90_name) in OPEN_RATES {
        let count = open_batches(run, rate);
        let jobs: Vec<Vec<u32>> = (0..count).map(|_| zipf.batch(BATCH)).collect();
        let (lat, late) = offer(server, &jobs, rate);
        let mut sorted = lat.clone();
        sorted.sort_by(f64::total_cmp);
        let (p50, p90) = (percentile(&sorted, 0.50), percentile(&sorted, 0.90));
        // A backlog that grows shows as later requests waiting longer.
        let (first, second) = lat.split_at(lat.len() / 2);
        let growing = !first.is_empty() && median(second) > 2.0 * median(first).max(1.0);
        if p90 <= OPEN_LIMIT_MS && !growing {
            max_ok = rate;
        }
        m.push((p50_name, p50));
        m.push((p90_name, p90));
        notes.push(format!(
            "open loop {rate} batches/s: {count} sent, p50 {p50:.2} ms, p90 {p90:.2} ms, backlog {}",
            if growing { "growing" } else { "steady" }
        ));
        late_all.extend(late);
    }
    m.push(("serve.open_loop.late_ms", median(&late_all)));
    m.push(("serve.open_loop.max_rate_ok", max_ok));
}

/// Send `jobs` at `rate` per second; returns each job's latency from its
/// due time and how late the generator itself sent it, both in ms.
fn offer(server: &Server, jobs: &[Vec<u32>], rate: f64) -> (Vec<f64>, Vec<f64>) {
    let (tx, rx) = mpsc::channel::<(usize, Instant)>();
    let rx = Mutex::new(rx);
    let lat = Mutex::new(vec![0.0f64; jobs.len()]);
    let mut late = Vec::with_capacity(jobs.len());
    std::thread::scope(|s| {
        for _ in 0..OPEN_WAITERS {
            s.spawn(|| loop {
                let job = rx.lock().expect("job queue lock").recv();
                let Ok((i, due)) = job else { return };
                let ok = server.try_query_many(&jobs[i]).is_ok();
                let ms = if ok { due.elapsed().as_secs_f64() * 1e3 } else { f64::INFINITY };
                lat.lock().expect("latency lock")[i] = ms;
            });
        }
        let start = Instant::now();
        for i in 0..jobs.len() {
            let due = start + Duration::from_secs_f64(i as f64 / rate);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            late.push(due.elapsed().as_secs_f64() * 1e3);
            tx.send((i, due)).expect("a waiter is alive");
        }
        drop(tx);
    });
    (lat.into_inner().expect("latency lock"), late)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_a_function_of_its_seed() {
        let draw = |seed| Zipf::new(1000, 1.0, seed).batch(64);
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
        assert!(draw(5).iter().all(|&v| v < 1000));
    }

    #[test]
    fn zipf_head_is_heavy_and_follows_the_shuffled_order() {
        let n = 1000;
        let mut z = Zipf::new(n, 1.0, 11);
        let head = z.order[0];
        let draws = 20_000;
        let hits = (0..draws).filter(|_| z.sample() == head).count() as f64;
        // Rank 0 has weight 1 / H_1000 = 0.1336.
        let want = 1.0 / (1..=n).map(|r| 1.0 / r as f64).sum::<f64>();
        assert!((hits / draws as f64 - want).abs() < 0.01, "head share {}", hits / draws as f64);
        // The hot node is where the seed's shuffle put it, not node 0.
        assert_ne!(Zipf::new(n, 1.0, 11).order[0], Zipf::new(n, 1.0, 12).order[0]);
    }
}
