//! The paper-reproduction harness: every kept figure / table / section of
//! the Plexus evaluation (Figs. 5, 6, 8–10, Tables 2–4) is one entry
//! of `SECTIONS`, driven by the single `repro` bench target:
//!
//! ```text
//! cargo bench -p plexus-bench --bench repro                  # every section
//! cargo bench -p plexus-bench --bench repro -- fig5 table3   # the named ones
//! cargo bench -p plexus-bench --bench repro -- --list
//! ```
//!
//! Each section prints aligned text tables (the paper's rows, with the
//! paper's numbers beside ours) and asserts the shape the paper reports.
//! Nothing here measures speed for gating — that is the repo benchmark's
//! job (`BENCHMARK.json`, `benchmark/`).

use plexus::perfmodel::Workload;
use plexus::setup::{build_permutations, PermutationMode};
use plexus_graph::DatasetSpec;
use plexus_sparse::permute::apply_permutation;
use plexus_sparse::Csr;

mod fig10;
mod fig5;
mod fig6;
mod fig8;
mod fig9;
mod table2;
mod table3;
mod table4;

/// One reproducible paper artifact: the name `repro` selects it by, what
/// it reprints, and the function that prints and asserts it.
struct Section {
    name: &'static str,
    what: &'static str,
    run: fn(),
}

/// In paper order. Fig. 7 and §5.4 are not here: `tests/equivalence.rs`
/// asserts the Fig. 7 sweep and `examples/quickstart` prints it;
/// `examples/out_of_core` prints the §5.4 per-rank I/O and
/// `loader::tests::partial_window_reads_less_and_accounts_skips` asserts it.
const SECTIONS: &[Section] = &[
    Section { name: "fig5", what: "Fig. 5 predicted vs observed epoch time", run: fig5::run },
    Section { name: "table2", what: "Table 2 SpMM metrics, config U vs V", run: table2::run },
    Section { name: "table3", what: "Table 3 permutation load balance", run: table3::run },
    Section { name: "fig6", what: "Fig. 6 blocked aggregation + dW GEMM order", run: fig6::run },
    Section { name: "table4", what: "Table 4 datasets", run: table4::run },
    Section { name: "fig8", what: "Fig. 8 strong scaling vs SA / BNS-GCN", run: fig8::run },
    Section { name: "fig9", what: "Fig. 9 comm/comp breakdown vs BNS-GCN", run: fig9::run },
    Section { name: "fig10", what: "Fig. 10 strong scaling, six datasets", run: fig10::run },
];

/// The sections `names` selects, in the order given; all of them when
/// `names` is empty. An unknown name is an error naming the known ones.
fn resolve(names: &[String]) -> Result<Vec<&'static Section>, String> {
    if names.is_empty() {
        return Ok(SECTIONS.iter().collect());
    }
    names
        .iter()
        .map(|n| {
            SECTIONS.iter().find(|s| s.name == n).ok_or_else(|| {
                let known: Vec<&str> = SECTIONS.iter().map(|s| s.name).collect();
                format!("unknown section '{}' (known: {})", n, known.join(" "))
            })
        })
        .collect()
}

/// Entry point of the `repro` target. `args` are the process arguments
/// after the program name: section names, or `--list`; cargo's own
/// `--bench` is ignored.
pub fn run(args: impl Iterator<Item = String>) -> Result<(), String> {
    let names: Vec<String> = args.filter(|a| a != "--bench").collect();
    if names.iter().any(|a| a == "--list") {
        for s in SECTIONS {
            println!("{:<7} {}", s.name, s.what);
        }
        return Ok(());
    }
    for section in resolve(&names)? {
        (section.run)();
    }
    Ok(())
}

/// The §4 model's workload for a paper dataset: the evaluation's 3-layer
/// GCN with hidden width 128 at the dataset's full Table 4 size.
fn paper_workload(spec: DatasetSpec) -> Workload {
    Workload::new(spec.nodes, spec.nonzeros, spec.features, 128, spec.classes, 3)
}

/// `a` under the engine's own §5.1 permutations for `mode`.
fn permuted(a: &Csr, mode: PermutationMode, seed: u64) -> Csr {
    let (pr, pc) = build_permutations(mode, seed, a.rows());
    apply_permutation(a, &pr, &pc)
}

/// A simple aligned table that mirrors the paper's presentation.
struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    fn new<S: AsRef<str>>(title: &str, headers: &[S]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.as_ref().to_string()).collect(),
            rows: Vec::new(),
        }
    }

    fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "table row width mismatch");
        self.rows.push(cells);
    }

    /// Print aligned to stdout.
    fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        println!("\n=== {} ===", self.title);
        let fmt_row = |cells: &[String]| {
            cells
                .iter()
                .zip(&widths)
                .map(|(c, w)| format!("{:>width$}", c, width = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        println!("{}", fmt_row(&self.headers));
        println!("{}", "-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        for row in &self.rows {
            println!("{}", fmt_row(row));
        }
    }
}

/// Fit `y = a * x^b` by least squares in log-log space; returns `(a, b)`.
/// Used to extrapolate measured boundary fractions / sparsity factors from
/// scaled instances to paper-scale GPU counts.
fn fit_power_law(xs: &[f64], ys: &[f64]) -> (f64, f64) {
    assert!(xs.len() == ys.len() && xs.len() >= 2, "fit_power_law: need >= 2 points");
    let lx: Vec<f64> = xs.iter().map(|&x| x.ln()).collect();
    let ly: Vec<f64> = ys.iter().map(|&y| y.max(1e-12).ln()).collect();
    let n = lx.len() as f64;
    let sx: f64 = lx.iter().sum();
    let sy: f64 = ly.iter().sum();
    let sxx: f64 = lx.iter().map(|v| v * v).sum();
    let sxy: f64 = lx.iter().zip(&ly).map(|(a, b)| a * b).sum();
    let b = (n * sxy - sx * sy) / (n * sxx - sx * sx);
    let a = ((sy - b * sx) / n).exp();
    (a, b)
}

/// Deterministic per-key jitter in `[1-amp, 1+amp]` — stands in for run-to-
/// run variance when "observing" simulated epoch times (Fig. 5 scatter).
fn jitter(key: u64, amp: f64) -> f64 {
    // SplitMix64 scramble.
    let mut z = key.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^= z >> 31;
    let unit = (z >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
    1.0 + amp * (2.0 * unit - 1.0)
}

/// Pearson R² between two series.
fn r_squared(pred: &[f64], obs: &[f64]) -> f64 {
    assert_eq!(pred.len(), obs.len());
    let n = pred.len() as f64;
    let mp = pred.iter().sum::<f64>() / n;
    let mo = obs.iter().sum::<f64>() / n;
    let cov: f64 = pred.iter().zip(obs).map(|(p, o)| (p - mp) * (o - mo)).sum();
    let vp: f64 = pred.iter().map(|p| (p - mp).powi(2)).sum();
    let vo: f64 = obs.iter().map(|o| (o - mo).powi(2)).sum();
    if vp == 0.0 || vo == 0.0 {
        return 1.0;
    }
    let r = cov / (vp * vo).sqrt();
    r * r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_law_recovers_exponent() {
        let xs = [4.0f64, 8.0, 16.0, 32.0];
        let ys: Vec<f64> = xs.iter().map(|&x| 0.5 * x.powf(0.7)).collect();
        let (a, b) = fit_power_law(&xs, &ys);
        assert!((a - 0.5).abs() < 1e-9 && (b - 0.7).abs() < 1e-9);
    }

    #[test]
    fn jitter_is_bounded_and_deterministic() {
        for k in 0..100u64 {
            let j = jitter(k, 0.15);
            assert!((0.85..=1.15).contains(&j));
            assert_eq!(j, jitter(k, 0.15));
        }
    }

    #[test]
    fn r_squared_of_identical_series_is_one() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert!((r_squared(&a, &a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn every_listed_section_resolves_and_unknown_names_are_errors() {
        assert_eq!(resolve(&[]).unwrap().len(), SECTIONS.len());
        for s in SECTIONS {
            let got = resolve(&[s.name.to_string()]).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].name, s.name);
        }
        let err = resolve(&["fig5".to_string(), "fig7".to_string()]).err().unwrap();
        assert!(err.contains("'fig7'") && err.contains("table3"), "{err}");
        assert!(run(["--bench", "no-such-section"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn table_rejects_ragged_rows() {
        let mut t = Table::new("t", &["a", "b"]);
        t.row(vec!["1".into(), "2".into()]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            t.row(vec!["only-one".into()])
        }));
        assert!(r.is_err());
    }
}
