//! Out-of-core ingest and activation residency end to end: generate an
//! RMAT graph through the chunked edge stream, preprocess it into a §5.4
//! [`ShardStore`] one row band at a time (and show the
//! incremental re-preprocess skipping every up-to-date shard), train the
//! same problem through the in-memory and sharded ingest paths, then train
//! it twice more under the `Spill` and `Recompute` activation residency
//! policies — every run bitwise identical, with the budgeted runs' peak
//! activation residency at most half the `Resident` baseline.
//!
//! ```text
//! cargo run --release --example out_of_core            # RMAT scale 20, 4x4x4
//! cargo run --release --example out_of_core -- --scale 12 --epochs 2
//! cargo run --release --example out_of_core -- --grid 2x4x4 --hidden 8
//! cargo run --release --example out_of_core -- --act-budget 1000000
//! cargo run --release --example out_of_core -- --epochs 3 --kill 1@2
//! ```

use plexus::activation::ResidencyPolicy;
use plexus::checkpoint::CheckpointPolicy;
use plexus::grid::GridConfig;
use plexus::loader::{preprocess_to_store, ShardStore};
use plexus::setup::{pad_to_multiple, PermutationMode, ProblemMeta};
use plexus::trainer::{train_from_source, DistTrainOptions, ProblemSource};
use plexus_comm::FaultPlan;
use plexus_graph::{
    degree_based_labels, rmat_edge_chunks, train_val_test_masks, DatasetKind, DatasetSpec, Graph,
    LoadedDataset,
};
use plexus_simnet::{estimate_rank_activation_bytes, estimate_rank_adjacency_bytes};
use plexus_tensor::uniform_matrix;

struct Args {
    scale: u32,
    edge_factor: usize,
    grid: GridConfig,
    epochs: usize,
    hidden: usize,
    /// Spill budget in bytes; 0 = auto (35% of the Resident baseline).
    act_budget: u64,
    /// Fault-tolerance smoke: kill this `(rank, epoch)` and recover.
    kill: (usize, usize),
}

fn parse_args() -> Args {
    let mut args = Args {
        scale: 20,
        edge_factor: 8,
        grid: GridConfig::new(4, 4, 4),
        epochs: 2,
        hidden: 16,
        act_budget: 0,
        kill: (1, 1),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().unwrap_or_else(|| panic!("missing value for {}", flag));
        match flag.as_str() {
            "--scale" => args.scale = value.parse().expect("--scale takes an integer"),
            "--edge-factor" => {
                args.edge_factor = value.parse().expect("--edge-factor takes an integer")
            }
            "--epochs" => args.epochs = value.parse().expect("--epochs takes an integer"),
            "--hidden" => args.hidden = value.parse().expect("--hidden takes an integer"),
            "--act-budget" => {
                args.act_budget = value.parse().expect("--act-budget takes bytes (0 = auto)")
            }
            "--kill" => {
                let (r, e) = value.split_once('@').expect("--kill takes RANK@EPOCH");
                args.kill = (
                    r.parse().expect("--kill takes RANK@EPOCH"),
                    e.parse().expect("--kill takes RANK@EPOCH"),
                );
            }
            "--grid" => {
                let dims: Vec<usize> =
                    value.split('x').map(|d| d.parse().expect("--grid takes GXxGYxGZ")).collect();
                assert_eq!(dims.len(), 3, "--grid takes GXxGYxGZ");
                args.grid = GridConfig::new(dims[0], dims[1], dims[2]);
            }
            other => panic!("unknown flag {}", other),
        }
    }
    args
}

fn mb(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

fn main() {
    let args = parse_args();
    let n = 1usize << args.scale;
    let seed = 0x0c0de;

    // 1. Generate the graph through the chunked RMAT stream (bounded
    //    batches; identical output to the monolithic generator).
    println!(
        "Generating RMAT scale {} ({} nodes, edge factor {}) in 1M-edge chunks...",
        args.scale, n, args.edge_factor
    );
    let graph = Graph::from_undirected_chunks(
        n,
        rmat_edge_chunks(args.scale, args.edge_factor, seed, 1 << 20),
    );
    let adjacency = graph.normalized_adjacency();
    let nnz = adjacency.nnz();
    let classes = 16;
    let spec = DatasetSpec {
        kind: DatasetKind::OgbnProducts,
        name: "rmat-out-of-core",
        nodes: n,
        edges: graph.num_edges(),
        nonzeros: nnz,
        features: args.hidden,
        classes,
    };
    let features = uniform_matrix(n, args.hidden, -0.5, 0.5, seed + 1);
    let labels = degree_based_labels(&graph, classes);
    let split = train_val_test_masks(n, 0.6, 0.2, seed + 2);
    let ds =
        LoadedDataset { spec, graph, adjacency, features, labels, split, num_classes: classes };
    println!("  {} nnz in Â.", nnz);

    // 2. Offline preprocessing: permute + shard while writing, one row
    //    band at a time.
    let opts = DistTrainOptions {
        hidden_dim: args.hidden,
        model_seed: 3,
        permutation: PermutationMode::Double,
        ..Default::default()
    };
    let dir = std::env::temp_dir().join(format!("plexus_out_of_core_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let t0 = std::time::Instant::now();
    let written = preprocess_to_store(&ds, &dir, opts.permutation, opts.perm_seed, 8, 8).unwrap();
    println!(
        "Preprocessed into an 8x8 store ({:.1} MB, one adjacency operand) in {:.1}s: {}.",
        mb(written.total_bytes().unwrap()),
        t0.elapsed().as_secs_f64(),
        written.preprocess.report()
    );

    // Incremental re-preprocess: every shard verifies against the prior
    // manifest and is skipped instead of regenerated.
    let t0 = std::time::Instant::now();
    let again = preprocess_to_store(&ds, &dir, opts.permutation, opts.perm_seed, 8, 8).unwrap();
    println!(
        "Re-preprocess (incremental) in {:.1}s: {}.",
        t0.elapsed().as_secs_f64(),
        again.preprocess.report()
    );
    assert_eq!(again.preprocess.files_written, 0, "incremental run rewrote up-to-date shards");
    assert!(again.preprocess.files_skipped > 0);
    let store = ShardStore::open(&dir).unwrap();

    // 3. Train through both ingest paths on the same grid.
    let grid = args.grid;
    println!(
        "\nTraining {} epochs on grid {} ({} ranks), in-memory path...",
        args.epochs,
        grid.label(),
        grid.total()
    );
    let in_mem = train_from_source(ProblemSource::InMemory(&ds), grid, &opts, args.epochs).unwrap();
    println!("Training again from the shard store (out-of-core path)...");
    let sharded =
        train_from_source(ProblemSource::Sharded(&store), grid, &opts, args.epochs).unwrap();

    // 4. Losses must match bit for bit.
    println!("\n  epoch | in-memory loss        | sharded loss");
    for (e, (a, b)) in in_mem.losses().iter().zip(sharded.losses()).enumerate() {
        println!("  {:>5} | {:<21.17} | {:<21.17}", e, a, b);
        assert_eq!(*a, b, "epoch {}: ingest paths diverged", e);
    }
    println!("  Losses are bitwise identical across ingest paths.");

    // 5. The memory ledger: every rank against the in-memory path's one
    //    padded global copy of Â.
    let meta = ProblemMeta::from_store(&store, grid, opts.hidden_dim, opts.num_layers);
    let n_pad = pad_to_multiple(n, grid.total());
    let footprint = nnz as u64 * 8 + (n_pad as u64 + 1) * 8;
    println!("\nPer-rank memory ledger (sharded path):");
    for (rank, ledger) in sharded.memory.iter().enumerate() {
        println!("  rank {:>3}: {}", rank, ledger.summary());
    }
    // §5.4's headline in this run's numbers: the busiest rank's reads
    // against the whole store, which a naive loader hands every rank.
    let store_bytes = store.total_bytes().unwrap();
    let worst_read = sharded.memory.iter().map(|m| m.bytes_read).max().unwrap_or(0);
    println!(
        "\nWorst rank read {:.1} MB of the {:.1} MB store, {:.1}x less than loading it whole \
         (paper, 64 GPUs on papers100M: 146 GB -> 9 GB, 16.2x).",
        mb(worst_read),
        mb(store_bytes),
        store_bytes as f64 / worst_read as f64
    );
    let peak = sharded.peak_adjacency_bytes();
    let estimate = estimate_rank_adjacency_bytes(nnz, meta.n_pad, &meta.layer_splits());
    println!(
        "\nIn-memory adjacency footprint:       {:>10.1} MB (every rank holds it)",
        mb(footprint)
    );
    println!(
        "Worst sharded rank peak adjacency:   {:>10.1} MB ({:.1}% of the footprint)",
        mb(peak),
        100.0 * peak as f64 / footprint as f64
    );
    println!("Analytic (simnet) per-rank estimate: {:>10.1} MB", mb(estimate));
    assert!(
        (peak as f64) < 0.8 * footprint as f64,
        "peak resident adjacency {} B is not below 80% of the in-memory adjacency footprint {} B \
         (grid {} may split the adjacency planes too coarsely)",
        peak,
        footprint,
        grid.label()
    );
    println!("\nOut-of-core ingest verified: < 80% of the in-memory footprint, same losses.");

    // 6. Activation residency: the same sharded problem under the Spill
    //    and Recompute policies. The sharded run above IS the Resident
    //    baseline — its ledger already carries the activation counters.
    let act_baseline = sharded.peak_activation_bytes();
    let act_estimate =
        estimate_rank_activation_bytes(meta.n_pad, &meta.dims_pad, &meta.layer_axis_splits());
    assert_eq!(
        act_baseline, act_estimate,
        "Resident activation peak diverged from the analytic estimate"
    );
    let budget = if args.act_budget > 0 { args.act_budget } else { (act_baseline * 35) / 100 };
    println!(
        "\nActivation residency (Resident baseline peak {:.1} MB per rank, \
         analytic estimate matches exactly; spill budget {:.1} MB):",
        mb(act_baseline),
        mb(budget)
    );

    let spill_opts = DistTrainOptions {
        residency: ResidencyPolicy::Spill { budget_bytes: budget },
        ..opts.clone()
    };
    println!("  Training with ResidencyPolicy::Spill...");
    let spill =
        train_from_source(ProblemSource::Sharded(&store), grid, &spill_opts, args.epochs).unwrap();
    let rec_opts = DistTrainOptions { residency: ResidencyPolicy::Recompute, ..opts.clone() };
    println!("  Training with ResidencyPolicy::Recompute...");
    let recompute =
        train_from_source(ProblemSource::Sharded(&store), grid, &rec_opts, args.epochs).unwrap();

    for (e, (r, (s, c))) in
        sharded.losses().iter().zip(spill.losses().into_iter().zip(recompute.losses())).enumerate()
    {
        assert_eq!(*r, s, "epoch {}: Spill diverged from Resident", e);
        assert_eq!(*r, c, "epoch {}: Recompute diverged from Resident", e);
    }
    println!("  Losses are bitwise identical across all three residency policies.");

    let spills: u64 = spill.memory.iter().map(|m| m.activation_spill_events).sum();
    let recomputes: u64 = recompute.memory.iter().map(|m| m.activation_recompute_events).sum();
    println!(
        "\n  policy    | peak act/rank | % of resident | spills | recomputes\n  \
         Resident  | {:>10.2} MB | {:>12}% | {:>6} | {:>10}\n  \
         Spill     | {:>10.2} MB | {:>12.1}% | {:>6} | {:>10}\n  \
         Recompute | {:>10.2} MB | {:>12.1}% | {:>6} | {:>10}",
        mb(act_baseline),
        100,
        0,
        0,
        mb(spill.peak_activation_bytes()),
        100.0 * spill.peak_activation_bytes() as f64 / act_baseline as f64,
        spills,
        0,
        mb(recompute.peak_activation_bytes()),
        100.0 * recompute.peak_activation_bytes() as f64 / act_baseline as f64,
        0,
        recomputes
    );

    // The CI gate: a budgeted run that never evicts means the policy
    // engine is dead — fail loudly.
    assert!(spills > 0, "budgeted spill run recorded zero evictions");
    assert!(recomputes > 0, "recompute run recorded zero recomputed caches");
    assert!(
        2 * spill.peak_activation_bytes() <= act_baseline,
        "spill peak {} B above 50% of the resident baseline {} B",
        spill.peak_activation_bytes(),
        act_baseline
    );
    assert!(
        2 * recompute.peak_activation_bytes() <= act_baseline,
        "recompute peak {} B above 50% of the resident baseline {} B",
        recompute.peak_activation_bytes(),
        act_baseline
    );
    println!(
        "\nActivation residency verified: both policies stay at <= 50% of the \
         Resident baseline with bitwise-identical losses."
    );

    // 7. Fault tolerance: checkpoint every epoch, kill a rank mid-run with
    //    the deterministic fault injector, and let recovery rebuild the
    //    world from the last checkpoint. The recovered trajectory must be
    //    bitwise identical to the uninterrupted sharded run above.
    let (kr, ke) = args.kill;
    assert!(kr < grid.total(), "--kill rank {} outside the {}-rank grid", kr, grid.total());
    assert!(ke < args.epochs, "--kill epoch {} outside the {}-epoch run", ke, args.epochs);
    let ck_dir = std::env::temp_dir().join(format!("plexus_ooc_ck_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&ck_dir);
    println!(
        "\nFault-tolerance smoke: checkpointing every epoch, killing rank {} at epoch {}...",
        kr, ke
    );
    let plan = std::sync::Arc::new(FaultPlan::kill_rank(kr, ke));
    let ft_opts = DistTrainOptions {
        checkpoint: Some(CheckpointPolicy::new(&ck_dir).max_retries(2)),
        faults: Some(std::sync::Arc::clone(&plan)),
        ..opts.clone()
    };
    let recovered =
        train_from_source(ProblemSource::Sharded(&store), grid, &ft_opts, args.epochs).unwrap();
    assert!(plan.exhausted(), "the armed kill never fired");
    assert_eq!(recovered.recoveries, 1, "the injected kill must force exactly one recovery");
    for (e, (a, b)) in sharded.losses().iter().zip(recovered.losses()).enumerate() {
        assert_eq!(*a, b, "epoch {}: recovered run diverged from the uninterrupted run", e);
    }
    println!(
        "  Recovered after {} world rebuild; all {} epoch losses bitwise identical \
         to the uninterrupted run.",
        recovered.recoveries, args.epochs
    );

    std::fs::remove_dir_all(&ck_dir).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}
