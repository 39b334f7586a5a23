//! Diff a chain of `BENCH_*.json` baseline files and flag regressions.
//!
//! ```text
//! compare_bench <oldest.json> <next.json> [<next.json> ...] [--max-regress <pct>]
//! ```
//!
//! Every consecutive pair of snapshots is one baseline -> candidate gate:
//! it compares `median_ms` for every benchmark id present in both files,
//! prints a speedup table (candidate vs baseline), and the run exits
//! nonzero if any shared id of any pair regressed by more than the
//! threshold (default 20%). Ids present in only one file of a pair are
//! listed but never fail the run, so adding benchmarks does not break the
//! gate.
//!
//! The baseline files are the hand-recorded snapshots produced from
//! `cargo bench -p plexus-bench --bench kernels` output (see
//! `BENCH_seed.json` for the format); this tool only needs the `"id"` and
//! `"median_ms"` fields and parses them with a deliberately small scanner
//! instead of a JSON dependency.

use std::process::ExitCode;

#[derive(Debug, Clone)]
struct Entry {
    id: String,
    median_ms: f64,
}

/// Extract the string value of `"key": "..."` starting at (or after)
/// `from` in `line`.
fn string_field(line: &str, key: &str) -> Option<String> {
    let pat = format!("\"{}\"", key);
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let rest = rest.strip_prefix('"')?;
    let end = rest.find('"')?;
    Some(rest[..end].to_string())
}

/// Extract the numeric value of `"key": 1.234` in `line`.
fn number_field(line: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{}\"", key);
    let at = line.find(&pat)? + pat.len();
    let rest = line[at..].trim_start().strip_prefix(':')?.trim_start();
    let end = rest
        .char_indices()
        .find(|&(_, c)| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .map(|(i, _)| i)
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// Parse every result line carrying both an `"id"` and a `"median_ms"`.
fn parse_entries(text: &str) -> Vec<Entry> {
    text.lines()
        .filter_map(|line| {
            let id = string_field(line, "id")?;
            let median_ms = number_field(line, "median_ms")?;
            Some(Entry { id, median_ms })
        })
        .collect()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths = Vec::new();
    let mut max_regress_pct = 20.0f64;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--max-regress" {
            match it.next().and_then(|v| v.parse::<f64>().ok()) {
                Some(v) => max_regress_pct = v,
                None => {
                    eprintln!("--max-regress needs a numeric percentage");
                    return ExitCode::from(2);
                }
            }
        } else {
            paths.push(a.clone());
        }
    }
    if paths.len() < 2 {
        eprintln!(
            "usage: compare_bench <oldest.json> <next.json> [<next.json> ...] [--max-regress <pct>]"
        );
        return ExitCode::from(2);
    }
    let mut snapshots = Vec::new();
    for p in &paths {
        let text = match std::fs::read_to_string(p) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {}: {}", p, e);
                return ExitCode::from(2);
            }
        };
        let entries = parse_entries(&text);
        if entries.is_empty() {
            eprintln!("no parsable results in {}", p);
            return ExitCode::from(2);
        }
        snapshots.push((p, entries));
    }

    let mut regressed = false;
    for pair in snapshots.windows(2) {
        let ((base_path, baseline), (cand_path, candidate)) = (&pair[0], &pair[1]);
        println!("comparing {} (baseline) -> {} (candidate)", base_path, cand_path);
        println!("{:<42} {:>12} {:>12} {:>9}", "id", "base ms", "cand ms", "speedup");
        let regressions = compare_pair(baseline, candidate, max_regress_pct);
        if regressions.is_empty() {
            println!("no shared id regressed by more than {:.0}%", max_regress_pct);
        }
        for (id, pct) in &regressions {
            eprintln!(
                "REGRESSION: {} is {:.1}% slower in {} than in {}",
                id, pct, cand_path, base_path
            );
            regressed = true;
        }
    }
    if regressed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Print one baseline -> candidate table and return the shared ids that got
/// slower by more than `max_regress_pct`, with the slowdown in percent.
fn compare_pair(
    baseline: &[Entry],
    candidate: &[Entry],
    max_regress_pct: f64,
) -> Vec<(String, f64)> {
    let mut regressions = Vec::new();
    for b in baseline {
        match candidate.iter().find(|c| c.id == b.id) {
            Some(c) => {
                let speedup = b.median_ms / c.median_ms;
                println!(
                    "{:<42} {:>12.3} {:>12.3} {:>8.2}x",
                    b.id, b.median_ms, c.median_ms, speedup
                );
                let regress_pct = (c.median_ms / b.median_ms - 1.0) * 100.0;
                if regress_pct > max_regress_pct {
                    regressions.push((b.id.clone(), regress_pct));
                }
            }
            None => println!("{:<42} {:>12.3} {:>12} {:>9}", b.id, b.median_ms, "-", "gone"),
        }
    }
    for c in candidate {
        if !baseline.iter().any(|b| b.id == c.id) {
            println!("{:<42} {:>12} {:>12.3} {:>9}", c.id, "-", c.median_ms, "new");
        }
    }
    regressions
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_baseline_format() {
        let text = r#"
  "results": [
    { "id": "spmm/rmat_8k/16", "min_ms": 1.210, "mean_ms": 1.434, "median_ms": 1.358, "samples": 20 },
    { "id": "gemm_dw/tn_default", "min_ms": 147.324, "mean_ms": 151.028, "median_ms": 151.105, "samples": 10 }
  ]"#;
        let entries = parse_entries(text);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].id, "spmm/rmat_8k/16");
        assert!((entries[0].median_ms - 1.358).abs() < 1e-9);
        assert!((entries[1].median_ms - 151.105).abs() < 1e-9);
    }

    #[test]
    fn ignores_lines_without_both_fields() {
        let text = r#"{ "id": "x" }
{ "median_ms": 1.0 }
{ "description": "id: not a field", "recorded": "2026-01-01" }"#;
        assert!(parse_entries(text).is_empty());
    }
}
