//! Per-rank distributed context: the X/Y/Z process groups plus
//! matrix-shaped wrappers over the raw collectives.
//!
//! [`DistContext`] is generic over the [`Communicator`] backend: the
//! thread world ([`plexus_comm::ThreadComm`], the default) moves real
//! data for correctness runs, while `plexus_simnet::SimComm` runs the same
//! per-rank program as a single-process cost study at grid sizes no one
//! machine can execute.

use crate::grid::{Axis, GridConfig, GridCoords, GridSpec};
use plexus_comm::{Communicator, FaultPlan, ReduceOp, ThreadComm};
use plexus_tensor::{KernelWorkspace, Matrix};
use std::sync::Arc;

/// Everything a rank needs to communicate inside the 3D grid.
///
/// The default backend is the thread world; `DistContext<SimComm>` is the
/// cost-only variant.
pub struct DistContext<C: Communicator = ThreadComm> {
    pub grid: GridConfig,
    /// 1.5D replication factor over the layer-0 feature axis (Z); 1 means
    /// no replication (see [`GridSpec`]).
    pub replication: usize,
    pub coords: GridCoords,
    pub world: C,
    x_group: C,
    y_group: C,
    z_group: C,
    /// The `replication`-sized group of replicas inside one Z-cluster
    /// (ranks sharing `x`, `y`, `z / c`). Present only when `c > 1`.
    intra_replica: Option<C>,
    /// The `Gz / replication` feature *owners* (ranks sharing `x`, `y`,
    /// `z % c`); the epoch feature gather runs over this group. Present
    /// only when `c > 1`.
    cross_replica: Option<C>,
    /// Deterministic fault-injection hooks (layer-entry panics). `None` in
    /// production: the per-layer check is a single branch on a `None`.
    pub faults: Option<Arc<FaultPlan>>,
}

/// The cost-only variant of [`DistContext`], for perf-model studies on
/// simulated grids (see [`plexus_simnet::SimComm`]).
pub type SimDistContext = DistContext<plexus_simnet::SimComm>;

impl<C: Communicator> DistContext<C> {
    /// Build the three axis groups from the world communicator. Must be
    /// called collectively by every rank. Panics if the world size does not
    /// match the grid.
    pub fn new(world: C, grid: GridConfig) -> Self {
        Self::with_spec(world, GridSpec::new(grid))
    }

    /// [`new`](DistContext::new) plus the spec's replication groups: when
    /// `spec.replication > 1`, additionally splits the Z axis into the
    /// intra-cluster replica group and the cross-cluster owner group the
    /// 1.5D feature path communicates over. `replication = 1` builds
    /// exactly what [`new`](DistContext::new) builds.
    pub fn with_spec(world: C, spec: GridSpec) -> Self {
        let grid = spec.grid;
        assert!(
            grid.gz.is_multiple_of(spec.replication),
            "DistContext: replication {} does not divide Gz = {}",
            spec.replication,
            grid.gz
        );
        assert_eq!(
            world.size(),
            grid.total(),
            "DistContext: world has {} ranks but grid {} needs {}",
            world.size(),
            grid.label(),
            grid.total()
        );
        let c = grid.coords(world.rank());
        // A group along an axis = ranks sharing the other two coordinates.
        // The color/key maps are pure functions of the world rank, which
        // lets single-process backends compute exact memberships.
        let x_group = world.split_by(
            |r| {
                let rc = grid.coords(r);
                ((rc.y + rc.z * grid.gy) as u64, rc.x as u64)
            },
            "x",
        );
        let y_group = world.split_by(
            |r| {
                let rc = grid.coords(r);
                ((rc.x + rc.z * grid.gx) as u64, rc.y as u64)
            },
            "y",
        );
        let z_group = world.split_by(
            |r| {
                let rc = grid.coords(r);
                ((rc.x + rc.y * grid.gx) as u64, rc.z as u64)
            },
            "z",
        );
        debug_assert_eq!(x_group.size(), grid.gx);
        debug_assert_eq!(y_group.size(), grid.gy);
        debug_assert_eq!(z_group.size(), grid.gz);
        debug_assert_eq!(x_group.rank(), c.x);
        debug_assert_eq!(y_group.rank(), c.y);
        debug_assert_eq!(z_group.rank(), c.z);
        let rep = spec.replication;
        let (intra_replica, cross_replica) = if rep > 1 {
            // Clusters of `rep` consecutive Z-ranks. Intra: same cluster,
            // ordered by member index. Cross: same member index, ordered
            // by cluster — so cross rank r owns feature span r.
            let intra = world.split_by(
                |r| {
                    let rc = grid.coords(r);
                    ((rc.x + (rc.y + (rc.z / rep) * grid.gy) * grid.gx) as u64, (rc.z % rep) as u64)
                },
                "zr",
            );
            let cross = world.split_by(
                |r| {
                    let rc = grid.coords(r);
                    ((rc.x + (rc.y + (rc.z % rep) * grid.gy) * grid.gx) as u64, (rc.z / rep) as u64)
                },
                "zc",
            );
            debug_assert_eq!(intra.size(), rep);
            debug_assert_eq!(cross.size(), grid.gz / rep);
            debug_assert_eq!(intra.rank(), c.z % rep);
            debug_assert_eq!(cross.rank(), c.z / rep);
            (Some(intra), Some(cross))
        } else {
            (None, None)
        };
        Self {
            grid,
            replication: rep,
            coords: c,
            world,
            x_group,
            y_group,
            z_group,
            intra_replica,
            cross_replica,
            faults: None,
        }
    }

    /// The process group along `axis`.
    pub fn group(&self, axis: Axis) -> &C {
        match axis {
            Axis::X => &self.x_group,
            Axis::Y => &self.y_group,
            Axis::Z => &self.z_group,
        }
    }

    /// The group the epoch feature gather (and the feature-gradient
    /// scatter's second stage) runs over: the cross-cluster owner group
    /// under replication, the plain Z group otherwise.
    pub fn feature_owner_group(&self) -> &C {
        self.cross_replica.as_ref().unwrap_or(&self.z_group)
    }

    /// The intra-cluster replica group, when `replication > 1`.
    pub fn replica_group(&self) -> Option<&C> {
        self.intra_replica.as_ref()
    }

    /// Sum-all-reduce a matrix in place across the `axis` group.
    pub fn all_reduce_sum(&self, m: &mut Matrix, axis: Axis) {
        self.group(axis).all_reduce(m.as_mut_slice(), ReduceOp::Sum);
    }

    /// All-gather row blocks across the `axis` group: each rank contributes
    /// its `rows x cols` shard; the result, taken from `ws`, stacks them in
    /// group-rank order.
    pub fn all_gather_rows(&self, m: &Matrix, axis: Axis, ws: &mut KernelWorkspace) -> Matrix {
        let group = self.group(axis);
        let mut out = ws.take_scratch(m.rows() * group.size(), m.cols());
        group.all_gather_into(m.as_slice(), out.as_mut_slice());
        out
    }

    /// All-gather column blocks across the `axis` group: result places each
    /// rank's columns side by side in group-rank order. The loss's gather,
    /// outside any layer: the result is freshly allocated.
    pub fn all_gather_cols(&self, m: &Matrix, axis: Axis) -> Matrix {
        let group = self.group(axis);
        // Column shards of one logical matrix are equal-shaped by
        // construction, so the fixed-size gather applies (no per-shard
        // boxing, length checked inside the collective).
        let data = group.all_gather(m.as_slice());
        let g = group.size();
        let shard = m.rows() * m.cols();
        let mut out = Matrix::zeros(m.rows(), m.cols() * g);
        for gr in 0..g {
            let part = &data[gr * shard..(gr + 1) * shard];
            for r in 0..m.rows() {
                let src = &part[r * m.cols()..(r + 1) * m.cols()];
                out.row_mut(r)[gr * m.cols()..(gr + 1) * m.cols()].copy_from_slice(src);
            }
        }
        out
    }

    /// Reduce-scatter the layer-0 feature-gradient block onto this rank's
    /// stored feature rows. Without replication this is exactly the sum
    /// reduce-scatter of whole rows over Z (rank `z` gets row chunk `z`). Under
    /// replication the sum over the Z axis completes in two stages:
    /// scatter across the feature owners (same cluster position, different
    /// clusters), then all-reduce the span chunk across the cluster's
    /// replicas — every replica ends with the identical full-sum span
    /// gradient, which is what keeps the redundant optimizer states in
    /// lockstep. The result is taken from `ws`.
    pub fn reduce_scatter_feature_rows(&self, m: &Matrix, ws: &mut KernelWorkspace) -> Matrix {
        let owners = self.feature_owner_group();
        // The raw collective only checks flat-length divisibility; the row
        // chunks need whole rows on every rank.
        assert_eq!(
            m.rows() % owners.size(),
            0,
            "reduce-scatter: {} rows not divisible by group '{}' of {}",
            m.rows(),
            owners.label(),
            owners.size()
        );
        let mut out = ws.take_scratch(m.rows() / owners.size(), m.cols());
        owners.reduce_scatter_into(m.as_slice(), ReduceOp::Sum, out.as_mut_slice());
        if let Some(replicas) = self.replica_group() {
            replicas.all_reduce(out.as_mut_slice(), ReduceOp::Sum);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_comm::run_world;
    use plexus_simnet::{SimComm, SimCostModel};

    #[test]
    fn groups_have_grid_shapes() {
        let grid = GridConfig::new(2, 2, 2);
        run_world(8, |world| {
            let rank = world.rank();
            let ctx = DistContext::new(world.split(0, rank as u64, "clone"), grid);
            assert_eq!(ctx.group(Axis::X).size(), 2);
            assert_eq!(ctx.group(Axis::Y).size(), 2);
            assert_eq!(ctx.group(Axis::Z).size(), 2);
            assert_eq!(ctx.group(Axis::X).rank(), ctx.coords.x);
        });
    }

    #[test]
    fn axis_reduce_sums_over_correct_peers() {
        // Grid 2x2x1: all-reduce over X must sum pairs {0,1} and {2,3}.
        let grid = GridConfig::new(2, 2, 1);
        let results = run_world(4, |world| {
            let rank = world.rank();
            let ctx = DistContext::new(world.split(0, rank as u64, "w"), grid);
            let mut m = Matrix::full(1, 1, (rank + 1) as f32);
            ctx.all_reduce_sum(&mut m, Axis::X);
            m[(0, 0)]
        });
        assert_eq!(results, vec![3.0, 3.0, 7.0, 7.0]);
    }

    #[test]
    fn gather_rows_and_cols_reassemble() {
        let grid = GridConfig::new(2, 1, 1);
        let results = run_world(2, |world| {
            let rank = world.rank();
            let ctx = DistContext::new(world.split(0, rank as u64, "w"), grid);
            let local = Matrix::from_fn(2, 3, |i, j| (rank * 100 + i * 3 + j) as f32);
            let rows = ctx.all_gather_rows(&local, Axis::X, &mut KernelWorkspace::new());
            let cols = ctx.all_gather_cols(&local, Axis::X);
            (rows, cols)
        });
        let (rows, cols) = &results[0];
        assert_eq!(rows.shape(), (4, 3));
        assert_eq!(rows[(2, 0)], 100.0); // rank 1's first row comes after rank 0's block
        assert_eq!(cols.shape(), (2, 6));
        assert_eq!(cols[(0, 3)], 100.0); // rank 1's first column after rank 0's
        assert_eq!(cols[(1, 5)], 105.0);
    }

    #[test]
    fn feature_row_scatter_chunks_by_rank() {
        // Unreplicated, the feature-row scatter is the reduce-scatter over Z.
        let grid = GridConfig::new(1, 1, 2);
        let results = run_world(2, |world| {
            let rank = world.rank();
            let ctx = DistContext::new(world.split(0, rank as u64, "w"), grid);
            let m = Matrix::from_fn(4, 2, |i, _| (i + rank) as f32);
            ctx.reduce_scatter_feature_rows(&m, &mut KernelWorkspace::new())
        });
        // Sum over both ranks of row i = 2*i + 1.
        assert_eq!(results[0].as_slice(), &[1.0, 1.0, 3.0, 3.0]);
        assert_eq!(results[1].as_slice(), &[5.0, 5.0, 7.0, 7.0]);
    }

    #[test]
    fn replication_groups_decompose_the_z_axis() {
        // 1x2x4 grid, c = 2: Z splits into 2 clusters of 2 replicas. The
        // intra group pairs the replicas of one cluster; the cross group
        // pairs same-position members of different clusters (the feature
        // owners).
        let grid = GridConfig::new(1, 2, 4);
        let spec = GridSpec::new(grid).with_replication(2);
        let results = run_world(8, |world| {
            let rank = world.rank();
            let ctx = DistContext::with_spec(world.split(0, rank as u64, "w"), spec);
            let intra = ctx.replica_group().expect("c > 1 must build the replica group");
            let owners = ctx.feature_owner_group();
            (intra.size(), intra.rank(), owners.size(), owners.rank(), owners.label())
        });
        for (rank, &(isz, irk, osz, ork, olabel)) in results.iter().enumerate() {
            let z = rank / 2;
            assert_eq!((isz, osz), (2, 2));
            assert_eq!(irk, z % 2, "rank {} intra position", rank);
            assert_eq!(ork, z / 2, "rank {} cluster index", rank);
            assert_eq!(olabel, "zc");
        }
    }

    #[test]
    fn unreplicated_feature_owners_are_the_z_group() {
        let grid = GridConfig::new(2, 1, 2);
        run_world(4, |world| {
            let rank = world.rank();
            let ctx = DistContext::new(world.split(0, rank as u64, "w"), grid);
            assert_eq!(ctx.replication, 1);
            assert!(ctx.replica_group().is_none());
            assert_eq!(ctx.feature_owner_group().label(), "z");
            assert_eq!(ctx.feature_owner_group().size(), 2);
        });
    }

    #[test]
    fn sim_backend_builds_exact_axis_groups_at_scale() {
        // 16x8x8 = 1024 simulated ranks: the axis groups must have the
        // true grid sizes and ranks even though only one rank executes.
        let grid = GridConfig::new(16, 8, 8);
        let world = SimComm::world_rank(
            1024,
            grid.rank_of(GridCoords { x: 3, y: 5, z: 6 }),
            SimCostModel::new(25e9, 1e-6),
        );
        let ctx: SimDistContext = DistContext::new(world, grid);
        assert_eq!(ctx.group(Axis::X).size(), 16);
        assert_eq!(ctx.group(Axis::Y).size(), 8);
        assert_eq!(ctx.group(Axis::Z).size(), 8);
        assert_eq!(ctx.coords, GridCoords { x: 3, y: 5, z: 6 });
        assert_eq!(ctx.group(Axis::X).rank(), 3);
        assert_eq!(ctx.group(Axis::Y).rank(), 5);
        assert_eq!(ctx.group(Axis::Z).rank(), 6);
    }

    #[test]
    fn sim_backend_matrix_collectives_are_shape_faithful() {
        let grid = GridConfig::new(4, 2, 4);
        let ctx = DistContext::new(SimComm::world(32, SimCostModel::new(25e9, 1e-6)), grid);
        let m = Matrix::full(4, 3, 1.0);
        let ws = &mut KernelWorkspace::new();
        assert_eq!(ctx.all_gather_rows(&m, Axis::X, ws).shape(), (16, 3));
        assert_eq!(ctx.all_gather_cols(&m, Axis::Y).shape(), (4, 6));
        assert_eq!(ctx.reduce_scatter_feature_rows(&m, ws).shape(), (1, 3));
        assert!(ctx.world.elapsed() > 0.0, "collectives must charge the clock");
    }
}
