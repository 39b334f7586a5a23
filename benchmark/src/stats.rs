//! Order statistics for latency samples and for comparing sets of runs.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` of the samples at or below it.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples. The epsilon
/// keeps products such as `0.99 * 1000.0` from rounding up a whole rank.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// The percentiles `op_hi_ms` may be, lowest first.
const HI_LADDER: [f64; 5] = [0.60, 0.75, 0.90, 0.95, 0.99];

/// The high percentile reported for `n` samples: the highest rung of the
/// ladder that still has at least ten samples beyond it, so the number is
/// never set by one or two outliers. Below 25 samples there is no such
/// rung and the lowest is used.
pub fn hi_percentile(n: usize) -> f64 {
    HI_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&p| n >= 1 && n - rank(n, p) >= 10)
        .unwrap_or(HI_LADDER[0])
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the driver uses.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n >= 2, "quartiles need two samples");
    let at = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 50.0);
        assert_eq!(percentile(&v, 0.90), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn hi_percentile_keeps_ten_samples_beyond() {
        assert_eq!(hi_percentile(3000), 0.99);
        assert_eq!(hi_percentile(1000), 0.99);
        assert_eq!(hi_percentile(999), 0.95);
        assert_eq!(hi_percentile(200), 0.95);
        assert_eq!(hi_percentile(150), 0.90);
        assert_eq!(hi_percentile(100), 0.90);
        assert_eq!(hi_percentile(99), 0.75);
        assert_eq!(hi_percentile(40), 0.75);
        assert_eq!(hi_percentile(39), 0.60);
        assert_eq!(hi_percentile(25), 0.60);
        assert_eq!(hi_percentile(5), 0.60);
        for n in 25..2000 {
            let p = hi_percentile(n);
            assert!(n - rank(n, p) >= 10, "n={n} p={p}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
