//! [`RowRequestPlan`]: the once-per-epoch row-request set that drives the
//! sparse row gather.
//!
//! A rank's SpMM only ever reads the gathered input rows named by the
//! *column support* of its adjacency shard — every other row of the dense
//! all-gather is shipped and then ignored. The plan extracts that support
//! once (adjacency is static across epochs, so "once per epoch" is
//! construction time on the trainer) as the sorted id list
//! `Communicator::all_gather_rows` wants.

use plexus_sparse::Csr;

/// The row-request set derived from one adjacency shard's column support,
/// against a row space sharded equally across `owners` ranks.
///
/// Built by [`RowRequestPlan::from_column_support`]; cached on the trainer
/// and reused every epoch (the adjacency never changes between epochs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RowRequestPlan {
    /// Sorted, distinct global row ids this rank needs — the shard's
    /// column support. Feed to `all_gather_rows`.
    pub row_ids: Vec<u32>,
    /// Ranks the row space is sharded across.
    pub owners: usize,
    /// Rows each owner holds (the row space is `owners` equal blocks).
    pub rows_per_owner: usize,
}

impl RowRequestPlan {
    /// Derive the plan from `shard`'s column support, with the shard's
    /// column window (`shard.cols()`) split equally across `owners` ranks.
    pub fn from_column_support(shard: &Csr, owners: usize) -> Self {
        assert!(owners > 0, "RowRequestPlan: owners must be positive");
        assert_eq!(
            shard.cols() % owners,
            0,
            "RowRequestPlan: row space {} not divisible by {} owners",
            shard.cols(),
            owners
        );
        let rows_per_owner = shard.cols() / owners;
        let mut row_ids: Vec<u32> = shard.col_idx().to_vec();
        row_ids.sort_unstable();
        row_ids.dedup();
        Self { row_ids, owners, rows_per_owner }
    }

    /// Total rows in the sharded row space.
    pub fn rows_total(&self) -> usize {
        self.rows_per_owner * self.owners
    }

    /// Rows this rank actually requests.
    pub fn num_requested(&self) -> usize {
        self.row_ids.len()
    }

    /// Fraction of the dense row space the plan touches (1.0 means the
    /// sparse exchange would carry as many rows as the dense gather).
    pub fn coverage(&self) -> f64 {
        if self.rows_total() == 0 {
            return 0.0;
        }
        self.row_ids.len() as f64 / self.rows_total() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_sparse::Coo;

    fn shard() -> Csr {
        // 4x8 block touching columns {1, 2, 5, 7}.
        let mut coo = Coo::new(4, 8);
        coo.push(0, 5, 1.0);
        coo.push(1, 1, 1.0);
        coo.push(2, 1, 2.0);
        coo.push(2, 7, 1.0);
        coo.push(3, 2, 1.0);
        coo.to_csr()
    }

    #[test]
    fn support_is_sorted_and_distinct() {
        let plan = RowRequestPlan::from_column_support(&shard(), 4);
        assert_eq!(plan.row_ids, vec![1, 2, 5, 7]);
        assert_eq!(plan.rows_per_owner, 2);
        assert_eq!(plan.rows_total(), 8);
        assert_eq!(plan.num_requested(), 4);
        assert!((plan.coverage() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn dense_support_covers_everything() {
        let mut coo = Coo::new(2, 4);
        for r in 0..2u32 {
            for c in 0..4u32 {
                coo.push(r, c, 1.0);
            }
        }
        let plan = RowRequestPlan::from_column_support(&coo.to_csr(), 2);
        assert_eq!(plan.row_ids, vec![0, 1, 2, 3]);
        assert_eq!(plan.coverage(), 1.0);
    }

    #[test]
    fn empty_shard_requests_nothing() {
        let plan = RowRequestPlan::from_column_support(&Csr::empty(4, 8), 2);
        assert!(plan.row_ids.is_empty());
        assert_eq!(plan.rows_total(), 8);
        assert_eq!(plan.coverage(), 0.0);
    }
}
