//! Row-blocked SpMM — the kernel side of the paper's §5.2 blocked
//! aggregation.
//!
//! The engine splits an adjacency shard into `nblocks` row-blocks; after
//! each block's SpMM it immediately all-reduces that block and concatenates
//! at the end. Splitting here (rather than in the engine) keeps the CSR
//! slicing logic next to the format it slices.

use crate::csr::Csr;
use crate::shard::split_range;

/// A sparse matrix split into contiguous row blocks.
#[derive(Clone, Debug)]
pub struct RowBlocks {
    blocks: Vec<Csr>,
    /// `[start, end)` row range of each block in the original matrix.
    ranges: Vec<(usize, usize)>,
}

impl RowBlocks {
    /// Split `a` into `nblocks` contiguous row blocks of near-equal height.
    pub fn split(a: &Csr, nblocks: usize) -> Self {
        assert!(nblocks > 0, "RowBlocks::split: need at least one block");
        assert!(
            nblocks <= a.rows().max(1),
            "RowBlocks::split: {} blocks for {} rows",
            nblocks,
            a.rows()
        );
        let mut blocks = Vec::with_capacity(nblocks);
        let mut ranges = Vec::with_capacity(nblocks);
        for i in 0..nblocks {
            let (r0, r1) = split_range(a.rows(), nblocks, i);
            blocks.push(a.block(r0, r1, 0, a.cols()));
            ranges.push((r0, r1));
        }
        Self { blocks, ranges }
    }

    pub fn iter(&self) -> impl Iterator<Item = (&Csr, (usize, usize))> {
        self.blocks.iter().zip(self.ranges.iter().copied())
    }

    /// Total rows across blocks (== original matrix rows).
    pub fn total_rows(&self) -> usize {
        self.ranges.last().map(|&(_, e)| e).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csr::Coo;
    use crate::spmm::{spmm, spmm_into};
    use plexus_tensor::Matrix;

    fn random_csr(rows: usize, cols: usize, seed: u64) -> Csr {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coo = Coo::new(rows, cols);
        for _ in 0..rows * 3 {
            coo.push(
                rng.random_range(0..rows as u32),
                rng.random_range(0..cols as u32),
                rng.random_range(-1.0f32..1.0),
            );
        }
        coo.to_csr()
    }

    #[test]
    fn split_covers_all_rows() {
        let a = random_csr(17, 10, 1);
        let blocks = RowBlocks::split(&a, 4);
        assert_eq!(blocks.total_rows(), 17);
        let nnz: usize = blocks.iter().map(|(blk, _)| blk.nnz()).sum();
        assert_eq!(nnz, a.nnz());
    }

    #[test]
    fn blocked_equals_unblocked() {
        // Row-split SpMM treats rows independently, so each block's partial
        // is bitwise the matching rows of the unblocked product — the
        // property blocked aggregation relies on.
        let a = random_csr(32, 20, 2);
        let n = 8;
        let b = Matrix::from_fn(20, n, |i, j| ((i + 2 * j) as f32 * 0.1).sin());
        let reference = spmm(&a, &b);
        for nblocks in [1, 2, 3, 5, 8, 32] {
            let blocks = RowBlocks::split(&a, nblocks);
            for (blk, (r0, r1)) in blocks.iter() {
                let mut partial = Matrix::full(r1 - r0, n, f32::NAN);
                spmm_into(blk, &b, &mut partial);
                assert_eq!(
                    partial.as_slice(),
                    &reference.as_slice()[r0 * n..r1 * n],
                    "{} blocks, rows {}..{}",
                    nblocks,
                    r0,
                    r1
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "blocks for")]
    fn too_many_blocks_rejected() {
        let a = random_csr(4, 4, 4);
        let _ = RowBlocks::split(&a, 10);
    }
}
