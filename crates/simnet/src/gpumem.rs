//! GPU memory-access simulator for the row-split SpMM kernel — the
//! substitute for Nsight Compute in reproducing Table 2.
//!
//! The paper profiles `SpMM(A, H)` under two 64-GPU configs of
//! ogbn-products: U (Gx=64 — the common dimension is sharded, the dense
//! operand keeps its full width) and V (Gy=64 — the dense operand becomes
//! a 2-column skinny matrix with a 64x larger common dimension). Nsight
//! shows V launching ~64x more blocks, issuing ~46x more uncoalesced
//! global sectors, and collapsing L2/DRAM throughput.
//!
//! This module reproduces the mechanism with an explicit kernel model:
//!
//! * **Grid sizing** — a row-split CSR kernel assigns a warp per sparse
//!   row and tiles the common dimension, so the CTA count scales with
//!   `rows x ceil(common_dim / K_TILE)`: V's 64x common dimension gives
//!   ~64x the blocks;
//! * **Coalescing** — each nonzero reads one dense row; reads are issued
//!   in 32-byte sectors. A 2-column f32 row uses 8 of the 32 bytes -> 75%
//!   of every sector is waste, counted as uncoalesced traffic;
//! * **L2 cache** — a set-associative LRU over sector addresses; a skinny
//!   dense matrix with 64x more rows stops fitting, so hit rate collapses
//!   and effective DRAM throughput with it.

use plexus_sparse::Csr;

/// Sector size of NVIDIA L2 transactions (bytes).
const SECTOR: usize = 32;
/// Common-dimension tile per CTA in the modelled kernel (the CTA count
/// scales with `common_dim / K_TILE`, which is what produces the paper's
/// ~64x grid-size blowup for config V).
const K_TILE: usize = 512;
/// Rows handled per CTA.
const ROWS_PER_CTA: usize = 64;

/// Metrics analogous to the Table 2 rows.
#[derive(Clone, Debug)]
pub struct SpmmKernelMetrics {
    /// CTA count ("Grid Size").
    pub grid_size: usize,
    /// Sectors fetched whose bytes were only partially used.
    pub uncoalesced_sectors: usize,
    /// L2 hit rate in [0, 1] ("L2 Cache Throughput" proxy: more hits =
    /// more of the request stream served at L2 bandwidth).
    pub l2_hit_rate: f64,
    /// Fraction of DRAM-fetched bytes that were actually consumed ("DRAM
    /// Throughput" proxy).
    pub dram_useful_fraction: f64,
    /// Total sectors requested.
    pub total_sectors: usize,
}

/// A tiny set-associative LRU cache over sector addresses.
struct SectorCache {
    sets: Vec<Vec<u64>>,
    ways: usize,
    set_mask: u64,
}

impl SectorCache {
    /// `capacity_bytes` total, `ways`-associative, SECTOR-byte lines.
    fn new(capacity_bytes: usize, ways: usize) -> Self {
        let lines = (capacity_bytes / SECTOR).max(ways);
        let sets = (lines / ways).next_power_of_two();
        Self { sets: vec![Vec::with_capacity(ways); sets], ways, set_mask: sets as u64 - 1 }
    }

    /// Access a sector address; returns true on hit.
    fn access(&mut self, addr: u64) -> bool {
        let set = &mut self.sets[(addr & self.set_mask) as usize];
        if let Some(pos) = set.iter().position(|&a| a == addr) {
            // Move to MRU position.
            let a = set.remove(pos);
            set.push(a);
            true
        } else {
            if set.len() == self.ways {
                set.remove(0);
            }
            set.push(addr);
            false
        }
    }
}

/// Simulate the dense-operand traffic of `SpMM(A, B)` where `B` is
/// `a.cols() x dense_cols` of f32, through an L2 of `l2_bytes`.
pub fn simulate_spmm_kernel(a: &Csr, dense_cols: usize, l2_bytes: usize) -> SpmmKernelMetrics {
    assert!(dense_cols > 0, "simulate_spmm_kernel: dense operand needs columns");
    let row_bytes = dense_cols * 4;
    let sectors_per_row = row_bytes.div_ceil(SECTOR);
    let waste_per_row = sectors_per_row * SECTOR - row_bytes;

    let grid_size = a.rows().div_ceil(ROWS_PER_CTA) * a.cols().div_ceil(K_TILE).max(1);

    let mut cache = SectorCache::new(l2_bytes, 16);
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut uncoalesced = 0usize;
    let mut dram_useful_bytes = 0usize;
    let mut dram_bytes = 0usize;

    for r in 0..a.rows() {
        let (cols, _) = a.row_entries(r);
        for &c in cols {
            let base = c as u64 * row_bytes as u64;
            for s in 0..sectors_per_row {
                let addr = (base + (s * SECTOR) as u64) / SECTOR as u64;
                // Bytes of this sector the row read actually consumes.
                let used = SECTOR.min(row_bytes - s * SECTOR);
                if cache.access(addr) {
                    hits += 1;
                } else {
                    misses += 1;
                    dram_bytes += SECTOR;
                    dram_useful_bytes += used;
                }
            }
            if waste_per_row > 0 {
                // Every row-read that does not fill its sectors counts as
                // uncoalesced traffic.
                uncoalesced += sectors_per_row;
            }
        }
    }

    let total = hits + misses;
    SpmmKernelMetrics {
        grid_size,
        uncoalesced_sectors: uncoalesced,
        l2_hit_rate: if total > 0 { hits as f64 / total as f64 } else { 0.0 },
        dram_useful_fraction: if dram_bytes > 0 {
            dram_useful_bytes as f64 / dram_bytes as f64
        } else {
            1.0
        },
        total_sectors: total,
    }
}

/// Analytic per-rank resident adjacency estimate for the §5.4 memory
/// ledger: each layer holds one `(n_pad/rdim) x (n_pad/cdim)` shard plus
/// its transpose, with an expected `nnz_total/(rdim·cdim)` nonzeros
/// (8 bytes each: `u32` column + `f32` value) and `usize` row pointers.
/// `layer_splits[l] = (rdim, cdim)` is the shard grid the layer's
/// adjacency plane is split over — `ProblemMeta::layer_splits()` in the
/// engine. The estimate assumes permutation-balanced shards; real ledgers
/// land within a small factor of it (shard skew).
pub fn estimate_rank_adjacency_bytes(
    nnz_total: usize,
    n_pad: usize,
    layer_splits: &[(usize, usize)],
) -> u64 {
    layer_splits
        .iter()
        .map(|&(rdim, cdim)| {
            let shard_nnz = (nnz_total / (rdim * cdim)) as u64;
            let entry_bytes = shard_nnz * 8;
            let shard_ptr = (n_pad / rdim + 1) as u64 * 8;
            let transpose_ptr = (n_pad / cdim + 1) as u64 * 8;
            2 * entry_bytes + shard_ptr + transpose_ptr
        })
        .sum()
}

/// Analytic per-rank resident *activation* estimate for the residency
/// engine's `Resident` baseline: layer `l` holds three dense f32 segments —
/// the post-all-reduce aggregation `H` (`(n_pad/rdim) x (dims_pad[l]/kdim)`),
/// the pre-activation `Q` (`(n_pad/rdim) x (dims_pad[l+1]/cdim)`) and the
/// gathered weights `W_full` (`(dims_pad[l]/kdim) x (dims_pad[l+1]/cdim)`).
/// `dims_pad` are the `L+1` padded per-boundary feature dims and
/// `layer_axes[l] = (rdim, cdim, kdim)` the layer's (rows, contract, feat)
/// axis sizes — `ProblemMeta::layer_axis_splits()` in the engine. Dense
/// activation shapes are exact functions of these, so the `Resident`
/// ledger's peak equals this estimate to the byte (asserted end to end).
pub fn estimate_rank_activation_bytes(
    n_pad: usize,
    dims_pad: &[usize],
    layer_axes: &[(usize, usize, usize)],
) -> u64 {
    assert_eq!(dims_pad.len(), layer_axes.len() + 1, "need L+1 boundary dims for L layers");
    layer_axes
        .iter()
        .enumerate()
        .map(|(l, &(rdim, cdim, kdim))| {
            let h = (n_pad / rdim) as u64 * (dims_pad[l] / kdim) as u64;
            let q = (n_pad / rdim) as u64 * (dims_pad[l + 1] / cdim) as u64;
            let w = (dims_pad[l] / kdim) as u64 * (dims_pad[l + 1] / cdim) as u64;
            4 * (h + q + w)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sparse::Coo;
    use rand::{rngs::StdRng, RngExt, SeedableRng};

    fn random_csr(rows: usize, cols: usize, nnz: usize, seed: u64) -> Csr {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for _ in 0..nnz {
            coo.push(rng.random_range(0..rows as u32), rng.random_range(0..cols as u32), 1.0);
        }
        coo.to_csr()
    }

    #[test]
    fn grid_size_scales_with_common_dimension() {
        // Config U: common dim sharded 64x. Config V: full common dim.
        let u = random_csr(4096, 4096 / 64, 8192, 1);
        let v = random_csr(4096, 4096, 8192, 1);
        let mu = simulate_spmm_kernel(&u, 100, 1 << 20);
        let mv = simulate_spmm_kernel(&v, 2, 1 << 20);
        // 64/ceil ratios: V's common dim is 64x larger -> ~64x more CTAs
        // once the common dim exceeds one tile.
        assert!(
            mv.grid_size >= mu.grid_size,
            "V grid {} should exceed U grid {}",
            mv.grid_size,
            mu.grid_size
        );
    }

    #[test]
    fn skinny_dense_matrix_is_uncoalesced() {
        let a = random_csr(1024, 1024, 4096, 2);
        let fat = simulate_spmm_kernel(&a, 128, 1 << 20);
        let skinny = simulate_spmm_kernel(&a, 2, 1 << 20);
        assert_eq!(fat.uncoalesced_sectors, 0, "512-byte rows fill their sectors exactly");
        assert!(skinny.uncoalesced_sectors > 0);
        assert!(skinny.dram_useful_fraction < fat.dram_useful_fraction);
    }

    #[test]
    fn small_working_set_hits_in_l2() {
        // Dense operand fits in L2 -> after warmup everything hits.
        let a = random_csr(4096, 64, 32768, 3);
        let m = simulate_spmm_kernel(&a, 16, 1 << 20);
        assert!(m.l2_hit_rate > 0.9, "hit rate {}", m.l2_hit_rate);
    }

    #[test]
    fn oversized_working_set_misses() {
        // Dense operand far larger than L2 with random access -> misses.
        let a = random_csr(8192, 1 << 17, 65536, 4);
        let m = simulate_spmm_kernel(&a, 8, 1 << 16);
        assert!(m.l2_hit_rate < 0.3, "hit rate {}", m.l2_hit_rate);
    }

    #[test]
    fn adjacency_estimate_scales_with_shard_grid() {
        // Splitting every layer 4x4 instead of 2x2 quarters the entry
        // bytes; a (1,1) split degenerates to the full 2-copies-per-layer
        // in-memory footprint.
        let (nnz, np) = (1 << 20, 1 << 16);
        let coarse = estimate_rank_adjacency_bytes(nnz, np, &[(2, 2); 3]);
        let fine = estimate_rank_adjacency_bytes(nnz, np, &[(4, 4); 3]);
        assert!(fine < coarse, "finer splits must shrink the estimate");
        let full = estimate_rank_adjacency_bytes(nnz, np, &[(1, 1)]);
        assert_eq!(full, 2 * (nnz as u64 * 8) + 2 * ((np as u64 + 1) * 8));
    }

    #[test]
    fn activation_estimate_scales_with_grid_and_width() {
        // Doubling every axis split quarters each dense segment; a (1,1,1)
        // split degenerates to the serial footprint H + Q + W per layer.
        let (np, d) = (1 << 12, 128);
        let dims = [d, d, d, d];
        let coarse = estimate_rank_activation_bytes(np, &dims, &[(2, 2, 2); 3]);
        let fine = estimate_rank_activation_bytes(np, &dims, &[(4, 4, 4); 3]);
        assert!(fine < coarse, "finer splits must shrink the estimate");
        let serial = estimate_rank_activation_bytes(np, &dims[..2], &[(1, 1, 1)]);
        assert_eq!(serial, 4 * ((np * d) as u64 + (np * d) as u64 + (d * d) as u64));
        // Asymmetric boundary dims: the input/output widths land on the
        // right axes (feat splits H's cols, contract splits Q's cols).
        let asym = estimate_rank_activation_bytes(8, &[4, 2], &[(2, 1, 4)]);
        // h = (8/2)*(4/4) = 4, q = (8/2)*(2/1) = 8, w = (4/4)*(2/1) = 2.
        assert_eq!(asym, 4 * (4 + 8 + 2));
    }

    #[test]
    fn lru_cache_behaves() {
        let mut c = SectorCache::new(SECTOR * 4, 2);
        assert!(!c.access(0));
        assert!(c.access(0));
        // Fill the set containing addr 0 (set index = addr & mask).
        let stride = c.set_mask + 1;
        assert!(!c.access(stride));
        assert!(!c.access(2 * stride)); // evicts addr 0 (LRU)
        assert!(!c.access(0));
    }
}
