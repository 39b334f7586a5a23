//! Nonzero-balance statistics over 2D shard grids.
//!
//! Table 3 of the paper scores load balance as the ratio of the maximum to
//! the mean nonzero count across the 8x8 shards of europe_osm's adjacency
//! matrix: 7.70 for the original ordering, 3.24 after a single symmetric
//! permutation, and 1.001 after the double permutation. [`nnz_balance`]
//! computes exactly that statistic for any matrix and grid.

use crate::csr::Csr;
use crate::shard::ShardSpec;

/// Balance statistics of nonzeros over a `p x q` shard grid.
#[derive(Clone, Debug)]
pub struct BalanceStats {
    pub grid: (usize, usize),
    /// Nonzeros per shard, row-major grid order.
    pub counts: Vec<usize>,
    pub max: usize,
    pub min: usize,
    pub mean: f64,
    /// Max/mean ratio — the paper's Table 3 metric. 1.0 is perfect balance.
    pub max_over_mean: f64,
    /// Coefficient of variation (stddev/mean), a second dispersion measure.
    pub cv: f64,
}

/// Count nonzeros per shard of a `p x q` grid and summarize dispersion.
/// Does not materialize the shards.
pub fn nnz_balance(a: &Csr, p: usize, q: usize) -> BalanceStats {
    assert!(p > 0 && q > 0, "nnz_balance: empty grid");
    let mut counts = Vec::with_capacity(p * q);
    for i in 0..p {
        for j in 0..q {
            let s = ShardSpec::new(a.rows(), a.cols(), p, q, i, j);
            counts.push(a.block_nnz(s.r0, s.r1, s.c0, s.c1));
        }
    }
    summarize(p, q, counts)
}

fn summarize(p: usize, q: usize, counts: Vec<usize>) -> BalanceStats {
    let max = counts.iter().copied().max().unwrap_or(0);
    let min = counts.iter().copied().min().unwrap_or(0);
    let mean = counts.iter().sum::<usize>() as f64 / counts.len() as f64;
    let var = counts.iter().map(|&c| (c as f64 - mean).powi(2)).sum::<f64>() / counts.len() as f64;
    let max_over_mean = if mean > 0.0 { max as f64 / mean } else { 1.0 };
    let cv = if mean > 0.0 { var.sqrt() / mean } else { 0.0 };
    BalanceStats { grid: (p, q), counts, max, min, mean, max_over_mean, cv }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;

    #[test]
    fn uniform_matrix_is_balanced() {
        // Dense-ish uniform pattern: every (r, c) with (r + c) % 2 == 0.
        let mut coo = Coo::new(16, 16);
        for r in 0..16u32 {
            for c in 0..16u32 {
                if (r + c) % 2 == 0 {
                    coo.push(r, c, 1.0);
                }
            }
        }
        let stats = nnz_balance(&coo.to_csr(), 4, 4);
        assert!((stats.max_over_mean - 1.0).abs() < 1e-9);
        assert_eq!(stats.max, stats.min);
    }

    #[test]
    fn clustered_matrix_is_imbalanced() {
        // All nonzeros in the top-left quadrant.
        let mut coo = Coo::new(16, 16);
        for r in 0..8u32 {
            for c in 0..8u32 {
                coo.push(r, c, 1.0);
            }
        }
        let stats = nnz_balance(&coo.to_csr(), 2, 2);
        // One shard holds everything: max/mean = 4.
        assert!((stats.max_over_mean - 4.0).abs() < 1e-9);
        assert_eq!(stats.min, 0);
    }

    #[test]
    fn counts_sum_to_total_nnz() {
        let mut coo = Coo::new(10, 10);
        for i in 0..10u32 {
            coo.push(i, (i * 3) % 10, 1.0);
        }
        let a = coo.to_csr();
        let stats = nnz_balance(&a, 3, 3);
        assert_eq!(stats.counts.iter().sum::<usize>(), a.nnz());
    }
}
