//! plexus-serve: an inference serving engine over frozen [`ShardStore`]
//! artifacts.
//!
//! The paper trains full-graph GNNs at billion-edge scale; this crate
//! closes the loop by *serving* the trained model without ever rebuilding
//! the training topology. A trained model (weights + layer config +
//! trained features) is [`freeze`]-dried together with its normalized
//! adjacency into an immutable, versioned, checksummed artifact that
//! reuses the shard-file format (`MAGIC`/`FORMAT_VERSION` headers,
//! manifest digests). [`Artifact::open`] verifies everything
//! once, maps the shards read-only, and runs the model's first `L - 1`
//! layers over the whole graph once, keeping the last layer's input
//! `H^(L-1)`. A query is then one hop: the batch's 1-hop sub-CSR,
//! extracted in place from the mappings, through the trainer's own SpMM
//! and packed GEMM, so served logits are **bitwise identical** to the
//! trainer's forward pass on the same nodes.
//!
//! Layers of the subsystem:
//!
//! - [`freeze`] / [`publish`] — write version 1 of an artifact; append
//!   retrained versions with an atomic manifest republish.
//! - [`Artifact`] — verified, mmap-backed read view; implements
//!   [`RowSource`](plexus_graph::khop::RowSource) so extraction reads
//!   adjacency rows straight out of the mappings; each [`ModelSnapshot`]
//!   carries its full-graph hidden layer, computed at load.
//! - [`QueryEngine`] — per-worker kernel + extraction workspaces; batched
//!   one-hop extract (rows read straight from the mappings) + last layer,
//!   zero-alloc at steady state, for a model of any depth.
//! - [`Server`] — bounded queue, adaptive batcher, worker pool,
//!   version-stamped prediction cache (the only serving cache), hot
//!   reload without draining.
//!
//! [`ShardStore`]: plexus::loader::ShardStore

pub mod artifact;
pub mod engine;
pub mod server;

pub use artifact::{freeze, publish, Artifact, ModelSnapshot};
pub use engine::{argmax, Prediction, QueryEngine};
pub use server::{ServeConfig, ServeError, Server, ServerStats, SubmitPolicy};

#[cfg(test)]
mod tests {
    use super::*;
    use plexus::loader::LoaderError;
    use plexus_gnn::{Gcn, GcnConfig};
    use plexus_graph::datasets::{LoadedDataset, OGBN_PRODUCTS};
    use std::fs;
    use std::path::PathBuf;
    use std::time::Duration;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("plexus_serve_{}_{}", tag, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    /// A small trained-ish setup: synthetic graph + a freshly initialized
    /// model (weights are arbitrary; parity is about the computation, not
    /// accuracy).
    fn small_setup(seed: u64) -> (LoadedDataset, Gcn) {
        let ds = LoadedDataset::generate(OGBN_PRODUCTS, 220, Some(12), seed);
        let config = GcnConfig {
            input_dim: ds.features.cols(),
            hidden_dim: 9,
            num_classes: ds.num_classes,
            num_layers: 3,
            seed: seed + 7,
        };
        let gcn = Gcn::new(config);
        (ds, gcn)
    }

    #[test]
    fn freeze_open_roundtrip_with_mapped_accounting() {
        let dir = temp_dir("roundtrip");
        let (ds, gcn) = small_setup(11);
        let v = freeze(&dir, &ds.adjacency, &gcn, &ds.features, 3, 2).unwrap();
        assert_eq!(v, 1);
        let art = Artifact::open(&dir).unwrap();
        assert_eq!(art.num_nodes(), ds.adjacency.rows());
        let snap = art.snapshot();
        assert_eq!(snap.version, 1);
        assert_eq!(snap.features.shape(), ds.features.shape());
        assert_eq!(snap.features.as_slice(), ds.features.as_slice());
        let stats = art.open_stats();
        assert!(stats.files_read >= 7, "6 shards + model, got {}", stats.files_read);
        assert_eq!(stats.bytes_mapped + stats.bytes_copied, stats.bytes_read);
        #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
        assert_eq!(stats.bytes_copied, 0, "serving must not copy shard files through the heap");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn served_logits_bitwise_equal_trainer_forward() {
        let dir = temp_dir("parity");
        let (ds, gcn) = small_setup(23);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 3).unwrap();
        let art = Artifact::open(&dir).unwrap();
        let snap = art.snapshot();
        let full = gcn.forward(&ds.adjacency, &ds.features).logits;
        let nodes: Vec<u32> = vec![0, 7, 7, 33, 101, (ds.adjacency.rows() - 1) as u32];
        let mut engine = QueryEngine::new(gcn.config.num_layers);
        for pred in engine.predict_batch(&art, &snap, &nodes) {
            let expect = full.row(pred.node as usize);
            assert_eq!(pred.logits.len(), expect.len());
            for (a, b) in pred.logits.iter().zip(expect) {
                assert_eq!(a.to_bits(), b.to_bits(), "node {} logit differs", pred.node);
            }
            assert_eq!(pred.class, argmax(expect));
            assert_eq!(pred.model_version, 1);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn repeated_batches_are_zero_alloc_after_warmup() {
        let dir = temp_dir("steady");
        let (ds, gcn) = small_setup(31);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        let art = Artifact::open(&dir).unwrap();
        let snap = art.snapshot();
        let nodes: Vec<u32> = vec![3, 50, 77, 120];
        let mut engine = QueryEngine::new(gcn.config.num_layers);
        engine.predict_batch(&art, &snap, &nodes); // warmup
        let warm = engine.alloc_events();
        engine.predict_batch(&art, &snap, &nodes);
        engine.predict_batch(&art, &snap, &nodes);
        assert_eq!(engine.alloc_events(), warm, "steady-state batch allocated kernel buffers");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn publish_and_reload_swap_versions_atomically() {
        let dir = temp_dir("reload");
        let (ds, gcn) = small_setup(43);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        let art = Artifact::open(&dir).unwrap();
        assert_eq!(art.reload_latest().unwrap(), None, "already current");
        // Retrain stand-in: same shapes, different weights.
        let gcn2 = Gcn::new(GcnConfig { seed: 999, ..gcn.config.clone() });
        // A publish that died before its rename leaves `serve.txt.tmp`
        // beside the live manifest: readers stay on version 1 and the next
        // publish replaces it.
        fs::write(dir.join("serve.txt.tmp"), "format = 3\ncurrent = 2\n").unwrap();
        assert_eq!(art.reload_latest().unwrap(), None, "a temp manifest is not a publish");
        assert_eq!(publish(&dir, &gcn2, &ds.features).unwrap(), 2);
        assert!(!dir.join("serve.txt.tmp").exists());
        assert_eq!(art.snapshot().version, 1, "reload is explicit, not implicit");
        assert_eq!(art.reload_latest().unwrap(), Some(2));
        let snap = art.snapshot();
        assert_eq!(snap.version, 2);
        let full = gcn2.forward(&ds.adjacency, &ds.features).logits;
        let mut engine = QueryEngine::new(gcn2.config.num_layers);
        let pred = &engine.predict_batch(&art, &snap, &[42])[0];
        for (a, b) in pred.logits.iter().zip(full.row(42)) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupted_and_truncated_artifacts_are_typed_errors() {
        let dir = temp_dir("corrupt");
        let (ds, gcn) = small_setup(53);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        // Flip one payload byte of a shard: checksum mismatch, not a panic.
        let shard = dir.join("adj_e_1_0.plx");
        let mut bytes = fs::read(&shard).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&shard, &bytes).unwrap();
        assert!(matches!(Artifact::open(&dir), Err(LoaderError::ChecksumMismatch { .. })));
        bytes[mid] ^= 0x40;
        fs::write(&shard, &bytes).unwrap();
        Artifact::open(&dir).unwrap();
        // Truncate the model file.
        let model = dir.join("model_0001.plx");
        let bytes = fs::read(&model).unwrap();
        fs::write(&model, &bytes[..bytes.len() - 9]).unwrap();
        assert!(matches!(Artifact::open(&dir), Err(LoaderError::Truncated { .. })));
        fs::write(&model, &bytes).unwrap();
        // A serve manifest of the previous format: version mismatch.
        let manifest = dir.join("serve.txt");
        let text = fs::read_to_string(&manifest).unwrap();
        fs::write(&manifest, text.replace("format = 3", "format = 2")).unwrap();
        assert!(matches!(
            Artifact::open(&dir),
            Err(LoaderError::VersionMismatch { found: 2, expected: 3, .. })
        ));
        // Remove it entirely: bad manifest.
        fs::remove_file(&manifest).unwrap();
        assert!(matches!(Artifact::open(&dir), Err(LoaderError::BadManifest { .. })));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn server_batches_caches_and_hot_reloads() {
        let dir = temp_dir("server");
        let (ds, gcn) = small_setup(61);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        let cfg = ServeConfig {
            workers: 2,
            max_batch: 8,
            max_wait: Duration::from_millis(2),
            queue_cap: 64,
            ..Default::default()
        };
        let server = Server::start(&dir, cfg).unwrap();
        let full = gcn.forward(&ds.adjacency, &ds.features).logits;
        let nodes: Vec<u32> = (0..40).map(|i| (i * 5) as u32).collect();
        for pred in server.query_many(&nodes) {
            for (a, b) in pred.logits.iter().zip(full.row(pred.node as usize)) {
                assert_eq!(a.to_bits(), b.to_bits(), "node {}", pred.node);
            }
        }
        let stats = server.stats();
        assert_eq!(stats.served, 40);
        assert!(stats.batches >= 1);
        // Re-query: answered from the version-stamped cache.
        let again = server.query(nodes[0]);
        assert_eq!(again.model_version, 1);
        assert!(server.stats().cache_hits >= 1);
        // Hot reload: publish a v2 one layer deeper, swap it in without
        // restarting workers.
        let depth = gcn.config.num_layers + 1;
        let gcn2 = Gcn::new(GcnConfig { seed: 4242, num_layers: depth, ..gcn.config.clone() });
        publish(&dir, &gcn2, &ds.features).unwrap();
        assert_eq!(server.reload_latest().unwrap(), Some(2));
        assert_eq!(server.current_version(), 2);
        let full2 = gcn2.forward(&ds.adjacency, &ds.features).logits;
        for pred in server.query_many(&nodes[..8]) {
            assert_eq!(pred.model_version, 2, "stale cache entry must not satisfy a new version");
            for (a, b) in pred.logits.iter().zip(full2.row(pred.node as usize)) {
                assert_eq!(a.to_bits(), b.to_bits(), "node {} at depth {depth}", pred.node);
            }
        }
        assert_eq!(server.stats().reloads, 1);
        assert_eq!(server.stats().shed, 0, "Block admission must never shed");
        drop(server);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shed_policy_returns_overloaded_under_saturation() {
        let dir = temp_dir("shed");
        let (ds, gcn) = small_setup(71);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 1,
            max_wait: Duration::from_micros(50),
            queue_cap: 1,
            submit: SubmitPolicy::Shed,
        };
        let server = Server::start(&dir, cfg).unwrap();
        // A single-slot queue behind a single worker: burst-submitting
        // distinct (uncached) nodes must overflow it. Each attempt uses a
        // fresh chunk so cache hits from completed answers can't mask the
        // overload; a handful of attempts absorbs scheduler luck.
        let n = ds.adjacency.rows() as u32;
        let mut shed_seen = false;
        for attempt in 0..6u32 {
            let nodes: Vec<u32> = (0..32).map(|i| (attempt * 32 + i) % n).collect();
            match server.try_query_many(&nodes) {
                Err(ServeError::Overloaded) => {
                    shed_seen = true;
                    break;
                }
                Err(e) => panic!("in-range nodes refused: {e}"),
                Ok(preds) => assert_eq!(preds.len(), nodes.len()),
            }
        }
        assert!(shed_seen, "burst submissions against a 1-slot queue never shed");
        assert!(server.stats().shed >= 1, "shed counter must record the refusal");
        // The server stays healthy after shedding: a blocking-free retry
        // of a single query eventually succeeds.
        let mut answered = false;
        for _ in 0..1000 {
            if let Ok(pred) = server.try_query(5) {
                assert_eq!(pred.node, 5);
                answered = true;
                break;
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        assert!(answered, "server wedged after shedding");
        drop(server);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn out_of_range_node_is_a_typed_error_before_any_work() {
        let dir = temp_dir("invalid_node");
        let (ds, gcn) = small_setup(83);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        let server = Server::start(&dir, ServeConfig::default()).unwrap();
        let num_nodes = ds.adjacency.rows();
        let bad = num_nodes as u32;
        let counters = |s: ServerStats| (s.served, s.batches, s.cache_hits);
        // Node 3 is cached, so a lookup before validation would count a hit.
        server.query(3);
        let before = counters(server.stats());
        let invalid = Some(ServeError::InvalidNode { node: bad, num_nodes });
        for batch in [[bad, 3, 4, 5], [3, 4, bad, 5], [3, 4, 5, bad]] {
            assert_eq!(server.try_query_many(&batch).err(), invalid);
            assert_eq!(counters(server.stats()), before, "batch {batch:?} did work");
        }
        assert_eq!(server.try_query(bad).err(), invalid);
        assert_eq!(counters(server.stats()), before);
        let nodes: Vec<u32> = server.query_many(&[3, 4, 5]).iter().map(|p| p.node).collect();
        assert_eq!(nodes, [3, 4, 5]);
        drop(server);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn block_policy_never_sheds_under_saturation() {
        let dir = temp_dir("block");
        let (ds, gcn) = small_setup(79);
        freeze(&dir, &ds.adjacency, &gcn, &ds.features, 2, 2).unwrap();
        let cfg = ServeConfig {
            workers: 1,
            max_batch: 2,
            max_wait: Duration::from_micros(50),
            queue_cap: 2,
            submit: SubmitPolicy::Block,
        };
        let server = Server::start(&dir, cfg).unwrap();
        let nodes: Vec<u32> = (0..64).collect();
        let preds = server.query_many(&nodes);
        assert_eq!(preds.len(), 64);
        let stats = server.stats();
        assert_eq!(stats.shed, 0, "Block admission must never shed");
        assert_eq!(stats.served, 64);
        drop(server);
        fs::remove_dir_all(&dir).unwrap();
    }
}
