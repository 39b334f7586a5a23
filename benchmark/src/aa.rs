//! `--aa N`: the whole suite N times, each workload in a process of its
//! own, then per workload and end-to-end metric the median, the quartiles
//! and the widest gap between two sets, next to the metric's bound. With
//! `--seed-step k` set `i` runs on seed `seed + i*k`, which is how the
//! driver's ten-seed spread is reproduced.

use crate::stats::{median, quartiles};
use crate::{Args, BOUNDS, END_TO_END, WORKLOADS};
use std::process::{Command, ExitCode};

/// The number after `"<name>": {"value": ` in a result line.
fn metric_value(line: &str, name: &str) -> Option<f64> {
    let key = format!("\"{name}\": {{\"value\": ");
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

pub fn run(sets: usize, args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut all_ok = true;
    // values[workload][metric][set]
    let mut values = vec![vec![Vec::with_capacity(sets); END_TO_END.len()]; WORKLOADS.len()];
    for set in 0..sets {
        let seed = args.seed + set as u64 * args.seed_step;
        for (w, workload) in WORKLOADS.iter().enumerate() {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name, "--trace", "0"]).args([
                "--seed",
                &seed.to_string(),
                "--seconds",
                &args.seconds.to_string(),
            ]);
            if args.quick {
                cmd.arg("--quick");
            }
            let out = cmd.output().expect("run a workload process");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let line = stdout.lines().last().unwrap_or_default();
            let ok = out.status.success() && line.contains("\"correct\": true");
            all_ok &= ok;
            println!(
                "set {set} seed {seed} {:<18} {}",
                workload.name,
                if ok { line } else { "FAILED" }
            );
            if !ok {
                eprint!("{}", String::from_utf8_lossy(&out.stderr));
            }
            for (k, (name, _)) in END_TO_END.iter().enumerate() {
                values[w][k].push(metric_value(line, name).unwrap_or(f64::NAN));
            }
        }
    }
    if sets < 2 {
        return if all_ok { ExitCode::SUCCESS } else { ExitCode::from(1) };
    }
    println!(
        "\n{:<18} {:<14} {:>11} {:>11} {:>11} {:>8} {:>8} {:>7}",
        "workload", "metric", "median", "q1", "q3", "iqr/med", "gap/med", "bound"
    );
    for (w, workload) in WORKLOADS.iter().enumerate() {
        for (k, (name, _)) in END_TO_END.iter().enumerate() {
            let v = &values[w][k];
            let (med, (q1, q3)) = (median(v), quartiles(v));
            let gap = v.iter().cloned().fold(f64::MIN, f64::max)
                - v.iter().cloned().fold(f64::MAX, f64::min);
            let bound = BOUNDS[k];
            let flag = if (q3 - q1) / med > bound / 3.0 {
                " <- spread above a third of the bound"
            } else {
                ""
            };
            println!(
                "{:<18} {:<14} {:>11.4} {:>11.4} {:>11.4} {:>7.2}% {:>7.2}% {:>6.0}%{}",
                workload.name,
                name,
                med,
                q1,
                q3,
                100.0 * (q3 - q1) / med,
                100.0 * gap / med,
                100.0 * bound,
                flag
            );
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_values_parse_back() {
        let line = r#"{"correct": true, "attempted": 10, "failed": 0, "metrics": {"setup_s": {"value": 4.25, "unit": "s"}, "op_ms": {"value": 191.0625, "unit": "ms"}}}"#;
        assert_eq!(metric_value(line, "setup_s"), Some(4.25));
        assert_eq!(metric_value(line, "op_ms"), Some(191.0625));
        assert_eq!(metric_value(line, "op_hi_ms"), None);
    }
}
