//! The repo benchmark. One command, one workload per process:
//!
//! ```text
//! plexus-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` runs the workload's timed window and prints the six
//! end-to-end metrics; `--trace 1` runs a shorter traced pass and prints the
//! per-layer metrics. Either way every metric is printed by name with its
//! unit, outputs are checked, and the last line of standard output is one
//! JSON object. `--quick` divides op counts by ten; `--aa N` runs the whole
//! suite N times in child processes and compares the sets. `README.md`
//! beside this package explains every workload and metric.

mod aa;
mod common;
mod ooc;
mod probe;
mod serve;
mod span;
mod stats;
mod sys;
mod traced;
mod train;

use common::{Report, Run};
use span::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// A workload's name, its kernel-pool size (`PLEXUS_THREADS`), and its
/// untraced and traced passes.
struct Workload {
    name: &'static str,
    pool_threads: usize,
    run: fn(&Run) -> Report,
    run_traced: fn(&Run) -> (Report, Tracer),
}

/// Runnable threads per workload = ranks x pool threads + clients + serve
/// workers, and never more than 2: 2x1, 1x2, 2x1, 1 client + 1 worker.
const WORKLOADS: [Workload; 4] = [
    Workload {
        name: train::AGG_X2.name,
        pool_threads: train::AGG_X2.pool_threads,
        run: |r| train::run(&train::AGG_X2, r),
        run_traced: |r| train::run_traced(&train::AGG_X2, r),
    },
    Workload {
        name: train::GEMM_X1.name,
        pool_threads: train::GEMM_X1.pool_threads,
        run: |r| train::run(&train::GEMM_X1, r),
        run_traced: |r| train::run_traced(&train::GEMM_X1, r),
    },
    Workload { name: ooc::NAME, pool_threads: 1, run: ooc::run, run_traced: ooc::run_traced },
    Workload { name: serve::NAME, pool_threads: 1, run: serve::run, run_traced: serve::run_traced },
];

/// `(name, unit)` of every end-to-end metric, as in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("op_ms", "ms"),
    ("op_hi_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The share of the parent's median by which each end-to-end metric may
/// get worse, in the order of [`END_TO_END`], as in `BENCHMARK.json`.
pub const BOUNDS: [f64; 6] = [0.25, 0.15, 0.2, 0.15, 0.15, 0.25];

/// `(name, unit)` of every per-layer metric, as in `BENCHMARK.json`. A
/// traced run prints all of them; one a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 74] = [
    ("trace.overhead_pct", "%"),
    ("tensor.gemm_nn_ms", "ms"),
    ("tensor.gemm_tn_ms", "ms"),
    ("tensor.gemm_gflops", "GFLOP/s"),
    ("tensor.gemm_flops_per_op", "FLOP"),
    ("sparse.spmm_ms", "ms"),
    ("sparse.spmm_gbps", "GB/s"),
    ("sparse.spmm_nnz_per_op", "count"),
    ("sparse.shard_nnz_imbalance", "ratio"),
    ("sparse.permute_ms", "ms"),
    ("graph.generate_ms", "ms"),
    ("graph.khop_extract_ms", "ms"),
    ("graph.khop_field_nodes", "count"),
    ("graph.rowplan_build_ms", "ms"),
    ("comm.bytes_per_op", "B"),
    ("comm.calls_per_op", "count"),
    ("comm.all_reduce_ms", "ms"),
    ("comm.all_gather_ms", "ms"),
    ("comm.g8.bytes_per_op", "B"),
    ("comm.g8.calls_per_op", "count"),
    ("comm.sparse_rows_byte_ratio", "ratio"),
    ("core.layer.gather_input_ms", "ms"),
    ("core.layer.aggregate_ms", "ms"),
    ("core.layer.gather_weights_ms", "ms"),
    ("core.layer.combine_ms", "ms"),
    ("core.layer.backward_ms", "ms"),
    ("core.layer.compute_ms", "ms"),
    ("core.layer.comm_ms", "ms"),
    ("core.layer.comm_share", "ratio"),
    ("core.loss_ms", "ms"),
    ("core.trainer.epoch_ms", "ms"),
    ("core.trainer.span_coverage", "ratio"),
    ("core.trainer.non_epoch_share", "ratio"),
    ("core.trainer.io_share", "ratio"),
    ("core.trainer.overhead_vs_serial", "ratio"),
    ("core.setup.global_problem_ms", "ms"),
    ("core.loader.preprocess_ms", "ms"),
    ("core.loader.preprocess_mb_per_s", "MB/s"),
    ("core.loader.store_bytes", "B"),
    ("core.loader.validate_ms", "ms"),
    ("core.loader.window_load_ms", "ms"),
    ("core.loader.bytes_read", "B"),
    ("core.loader.bytes_skipped", "B"),
    ("core.activation.insert_ms", "ms"),
    ("core.activation.fetch_ms", "ms"),
    ("core.activation.spill_bytes_per_op", "B"),
    ("core.activation.peak_bytes", "B"),
    ("core.checkpoint.stall_ms", "ms"),
    ("core.checkpoint.restore_ms", "ms"),
    ("core.checkpoint.bytes", "B"),
    ("simnet.g8.bytes_per_op", "B"),
    ("core.perfmodel.bytes_rel_err", "ratio"),
    ("gnn.adam_step_ms", "ms"),
    ("gnn.serial_epoch_ms", "ms"),
    ("serve.artifact_open_ms", "ms"),
    ("serve.predict_cold_ms", "ms"),
    ("serve.predict_warm_ms", "ms"),
    ("serve.queue_overhead_ms", "ms"),
    ("serve.pred_cache_hit_share", "ratio"),
    ("serve.extraction_hit_share", "ratio"),
    ("serve.extraction_evicted", "count"),
    ("serve.extraction_bytes", "B"),
    ("serve.batches_per_op", "count"),
    ("serve.reload_ms", "ms"),
    ("serve.open_loop.r25.p50_ms", "ms"),
    ("serve.open_loop.r25.p90_ms", "ms"),
    ("serve.open_loop.r50.p50_ms", "ms"),
    ("serve.open_loop.r50.p90_ms", "ms"),
    ("serve.open_loop.r75.p50_ms", "ms"),
    ("serve.open_loop.r75.p90_ms", "ms"),
    ("serve.open_loop.late_ms", "ms"),
    ("serve.open_loop.max_rate_ok", "1/s"),
    ("probe.stream_gbps", "GB/s"),
    ("probe.fma_gflops", "GFLOP/s"),
];

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = 20.0;

pub struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    aa: Option<usize>,
    seed_step: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        aa: None,
        seed_step: 0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = |what: &str| format!("{flag} takes {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => args.workload = Some(value),
            "--seed" => args.seed = value.parse().map_err(|_| bad("a whole number"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--aa" => args.aa = Some(value.parse().map_err(|_| bad("a number of sets"))?),
            "--seed-step" => args.seed_step = value.parse().map_err(|_| bad("a whole number"))?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// One JSON number: every digit that was measured, and never `NaN`/`inf`.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_report(report: &Report, table: &[(&str, &str)]) -> bool {
    for note in &report.notes {
        println!("# {note}");
    }
    let mut all_finite = true;
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = report.metrics.iter().find(|(n, _)| *n == name).map_or(0.0, |(_, v)| *v);
        all_finite &= value.is_finite();
        println!("{name:<36} {value:>18.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for (name, _) in &report.metrics {
        assert!(table.iter().any(|(n, _)| n == name), "metric {name} is not in the table");
    }
    let correct = report.correct && report.failed == 0 && all_finite;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        fields.join(", ")
    );
    correct
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("plexus-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    // Rule 1 of the benchmark: every workload is sized for two cores. With
    // fewer, ranks time-slice and the numbers mean something else.
    let nproc = sys::nproc();
    if nproc < 2 {
        eprintln!("plexus-benchmark: {nproc} core available; the workloads need 2. Not reporting.");
        return ExitCode::from(3);
    }
    if let Some(sets) = args.aa {
        return aa::run(sets, &args);
    }
    let Some(name) = args.workload.as_deref() else {
        eprintln!("plexus-benchmark: --workload is required (one of {})", workload_names());
        return ExitCode::from(2);
    };
    let Some(workload) = WORKLOADS.iter().find(|w| w.name == name) else {
        eprintln!("plexus-benchmark: unknown workload {name:?} (one of {})", workload_names());
        return ExitCode::from(2);
    };

    // Everything the program writes — stores, checkpoints, activation
    // spills, artifacts — goes under one directory inside the checkout.
    let work = match work_dir(name) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("plexus-benchmark: cannot create a work directory: {e}");
            return ExitCode::from(4);
        }
    };
    // Both are read once, lazily, by the libraries; nothing has touched
    // them yet and no other thread exists.
    std::env::set_var("TMPDIR", &work);
    std::env::set_var("PLEXUS_THREADS", workload.pool_threads.to_string());

    let run = Run { start, seed: args.seed, seconds: args.seconds, quick: args.quick, work };
    println!(
        "# plexus-benchmark {name} seed {} seconds {} trace {} quick {}; nproc {nproc}, PLEXUS_THREADS {}, simd {}",
        run.seed,
        run.seconds,
        u8::from(args.trace),
        run.quick,
        workload.pool_threads,
        plexus_tensor::simd_label()
    );
    let ok = if args.trace {
        let (mut report, tracer) = (workload.run_traced)(&run);
        // What this box can do at all, measured in the same process.
        probe::ceilings(&mut report.metrics);
        let path = run.work.with_file_name(format!("{name}.spans.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("# {} spans written to {}", tracer.spans().len(), path.display()),
            Err(e) => eprintln!("plexus-benchmark: could not write {}: {e}", path.display()),
        }
        print_report(&report, &PER_LAYER)
    } else {
        print_report(&(workload.run)(&run), &END_TO_END)
    };
    let _ = std::fs::remove_dir_all(&run.work);
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("plexus-benchmark: {name}: an output check failed (see the lines above)");
        ExitCode::from(1)
    }
}

fn workload_names() -> String {
    WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>().join(", ")
}

/// `.bench_work/<workload>-<pid>` under the current directory, which the
/// driver makes the root of the checkout.
fn work_dir(workload: &str) -> std::io::Result<PathBuf> {
    let dir = std::env::current_dir()?
        .join(".bench_work")
        .join(format!("{workload}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must name the same metrics
    /// with the same units, and the same workloads.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let section = |key: &str| {
            let at = json.find(&format!("\"{key}\"")).unwrap_or_else(|| panic!("no {key}"));
            let end = json[at..].find(']').expect("section end") + at;
            &json[at..end]
        };
        for (key, table) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
            let text = section(key);
            assert_eq!(text.matches("\"name\"").count(), table.len(), "{key} length");
            for (name, unit) in table {
                let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
                assert!(text.contains(&entry), "{key} lacks {entry}");
            }
        }
        let text = section("end_to_end");
        for ((name, _), bound) in END_TO_END.iter().zip(BOUNDS) {
            let at = text.find(&format!("\"name\": \"{name}\"")).expect("metric present");
            let line = &text[at..at + text[at..].find('}').expect("entry end")];
            assert!(line.ends_with(&format!("\"bound\": {bound}")), "{name}: {line}");
        }
        let text = section("workloads");
        assert_eq!(text.matches("\"name\"").count(), WORKLOADS.len());
        for w in &WORKLOADS {
            assert!(text.contains(&format!("\"name\": \"{}\"", w.name)), "no workload {}", w.name);
        }
    }

    #[test]
    fn every_workload_stays_within_two_runnable_threads() {
        for spec in [&train::AGG_X2, &train::GEMM_X1] {
            assert!(spec.grid().total() * spec.pool_threads <= 2, "{}", spec.name);
        }
        assert_eq!(PER_LAYER.iter().filter(|(n, _)| n.len() > 64).count(), 0);
    }
}
