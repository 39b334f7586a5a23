//! The 3D virtual GPU grid and the per-layer axis-role rotation.
//!
//! §3.1: GPUs are arranged into a `Gx x Gy x Gz` grid; each matrix of a
//! layer is sharded over two grid axes and (for parameters) further over
//! the third. §3.2: consecutive layers use adjacency shards on rotating
//! planes — ZX for layer 0, YZ for layer 1, XY for layer 2, then the cycle
//! repeats — so the output layout of one layer is exactly the input layout
//! of the next with zero redistribution.

/// One axis of the 3D grid.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Axis {
    X,
    Y,
    Z,
}

impl Axis {
    pub const ALL: [Axis; 3] = [Axis::X, Axis::Y, Axis::Z];

    pub fn name(self) -> &'static str {
        match self {
            Axis::X => "x",
            Axis::Y => "y",
            Axis::Z => "z",
        }
    }
}

/// Grid shape `Gx x Gy x Gz`. Ranks are laid out x-fastest:
/// `rank = x + y*Gx + z*Gx*Gy`, mirroring how the paper packs
/// consecutive-rank GPUs into nodes (Y innermost priority is handled by the
/// performance model's bandwidth rule, not by the rank layout).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridConfig {
    pub gx: usize,
    pub gy: usize,
    pub gz: usize,
}

impl GridConfig {
    pub fn new(gx: usize, gy: usize, gz: usize) -> Self {
        assert!(gx >= 1 && gy >= 1 && gz >= 1, "GridConfig: dims must be >= 1");
        Self { gx, gy, gz }
    }

    /// Total GPU count `G = Gx * Gy * Gz`.
    pub fn total(&self) -> usize {
        self.gx * self.gy * self.gz
    }

    pub fn dim(&self, axis: Axis) -> usize {
        match axis {
            Axis::X => self.gx,
            Axis::Y => self.gy,
            Axis::Z => self.gz,
        }
    }

    /// Coordinates of a rank.
    pub fn coords(&self, rank: usize) -> GridCoords {
        assert!(rank < self.total(), "rank {} outside grid of {}", rank, self.total());
        GridCoords {
            x: rank % self.gx,
            y: (rank / self.gx) % self.gy,
            z: rank / (self.gx * self.gy),
        }
    }

    /// Rank of given coordinates.
    pub fn rank_of(&self, c: GridCoords) -> usize {
        debug_assert!(c.x < self.gx && c.y < self.gy && c.z < self.gz);
        c.x + c.y * self.gx + c.z * self.gx * self.gy
    }

    /// Number of distinct 1D/2D/3D classes this config belongs to (how many
    /// axes exceed 1) — Fig. 5 colors points by this.
    pub fn dimensionality(&self) -> usize {
        [self.gx, self.gy, self.gz].iter().filter(|&&d| d > 1).count()
    }

    /// Compact display form matching the paper's Fig. 7 legend ("X2Y4Z2").
    pub fn label(&self) -> String {
        format!("X{}Y{}Z{}", self.gx, self.gy, self.gz)
    }

    /// Every (Gx, Gy, Gz) factorization of `g` — the search space of the
    /// performance model (§4.3 evaluates all of them for Fig. 5).
    pub fn enumerate(g: usize) -> Vec<GridConfig> {
        let mut out = Vec::new();
        for gx in 1..=g {
            if !g.is_multiple_of(gx) {
                continue;
            }
            let rest = g / gx;
            for gy in 1..=rest {
                if !rest.is_multiple_of(gy) {
                    continue;
                }
                out.push(GridConfig::new(gx, gy, rest / gy));
            }
        }
        out
    }
}

/// A grid shape plus the 1.5D-style replication factor.
///
/// `replication = c` makes each rank store the feature rows of its whole
/// *cluster* of `c` consecutive Z-ranks (layer 0's row axis is always Z),
/// trading `c`× feature/optimizer memory for an epoch feature gather that
/// runs over `Gz / c` owners instead of `Gz` — fewer, larger blocks, so a
/// ring moves `(G/c-1)/(G/c)` of the volume instead of `(G-1)/G`, and a
/// sparse row gather pulls its rows from `c`× fewer owners. `c = 1` is
/// exactly the unreplicated engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct GridSpec {
    pub grid: GridConfig,
    /// Replication factor `c >= 1`; must divide `Gz`.
    pub replication: usize,
}

impl GridSpec {
    /// The plain, unreplicated spec for `grid`.
    pub fn new(grid: GridConfig) -> Self {
        Self { grid, replication: 1 }
    }

    /// Set the replication factor. Panics unless `1 <= c` and `c | Gz`.
    pub fn with_replication(mut self, c: usize) -> Self {
        assert!(c >= 1, "GridSpec: replication factor must be >= 1");
        assert!(
            self.grid.gz.is_multiple_of(c),
            "GridSpec: replication {} does not divide Gz = {}",
            c,
            self.grid.gz
        );
        self.replication = c;
        self
    }

    /// Owners of the layer-0 feature row space under this spec
    /// (`Gz / replication`).
    pub fn feature_owners(&self) -> usize {
        self.grid.gz / self.replication
    }
}

impl From<GridConfig> for GridSpec {
    fn from(grid: GridConfig) -> Self {
        Self::new(grid)
    }
}

/// A rank's grid coordinates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct GridCoords {
    pub x: usize,
    pub y: usize,
    pub z: usize,
}

impl GridCoords {
    pub fn along(&self, axis: Axis) -> usize {
        match axis {
            Axis::X => self.x,
            Axis::Y => self.y,
            Axis::Z => self.z,
        }
    }
}

/// The axis roles of one layer:
///
/// * `rows` (R) — A's rows and the layer output's rows are split over it;
/// * `contract` (C) — A's columns / F's rows are split over it; the SpMM
///   partial sums are all-reduced over this axis;
/// * `feat` (K) — F's columns are split over it; the GEMM partial sums are
///   all-reduced over this axis.
///
/// Parameters (W always, F only at layer 0) are stored further sharded
/// over the layer's `rows` axis — for layer 0 that is Z, matching the
/// paper's "also further across the Z-parallel process group".
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LayerRoles {
    pub rows: Axis,
    pub contract: Axis,
    pub feat: Axis,
}

/// Role assignment of layer `l`. Layer 0 is (R=Z, C=X, K=Y) — the paper's
/// "A sharded across the ZX-plane" — and each next layer rotates
/// (R,C,K) -> (K,R,C), yielding the ZX -> YZ -> XY plane cycle of Fig. 4.
pub fn roles_for_layer(l: usize) -> LayerRoles {
    match l % 3 {
        0 => LayerRoles { rows: Axis::Z, contract: Axis::X, feat: Axis::Y },
        1 => LayerRoles { rows: Axis::Y, contract: Axis::Z, feat: Axis::X },
        _ => LayerRoles { rows: Axis::X, contract: Axis::Y, feat: Axis::Z },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rank_coord_round_trip() {
        let g = GridConfig::new(2, 3, 4);
        for rank in 0..g.total() {
            assert_eq!(g.rank_of(g.coords(rank)), rank);
        }
        assert_eq!(g.total(), 24);
    }

    #[test]
    fn coords_layout_is_x_fastest() {
        let g = GridConfig::new(2, 2, 2);
        assert_eq!(g.coords(0), GridCoords { x: 0, y: 0, z: 0 });
        assert_eq!(g.coords(1), GridCoords { x: 1, y: 0, z: 0 });
        assert_eq!(g.coords(2), GridCoords { x: 0, y: 1, z: 0 });
        assert_eq!(g.coords(4), GridCoords { x: 0, y: 0, z: 1 });
    }

    #[test]
    fn role_rotation_matches_paper_planes() {
        // Layer 0: A on ZX (rows Z, cols X). Layer 1: YZ. Layer 2: XY.
        let r0 = roles_for_layer(0);
        assert_eq!((r0.rows, r0.contract, r0.feat), (Axis::Z, Axis::X, Axis::Y));
        let r1 = roles_for_layer(1);
        assert_eq!((r1.rows, r1.contract, r1.feat), (Axis::Y, Axis::Z, Axis::X));
        let r2 = roles_for_layer(2);
        assert_eq!((r2.rows, r2.contract, r2.feat), (Axis::X, Axis::Y, Axis::Z));
        // Cycle of three.
        assert_eq!(roles_for_layer(3), r0);
        assert_eq!(roles_for_layer(5), r2);
    }

    #[test]
    fn layout_chain_is_consistent() {
        // Output of layer l is (rows over R_l, cols over C_l, replicated
        // over K_l); the input of layer l+1 needs (rows over C_{l+1}, cols
        // over K_{l+1}, replicated over R_{l+1}).
        for l in 0..6 {
            let cur = roles_for_layer(l);
            let next = roles_for_layer(l + 1);
            assert_eq!(cur.rows, next.contract, "layer {} rows -> next contract", l);
            assert_eq!(cur.contract, next.feat, "layer {} contract -> next feat", l);
            assert_eq!(cur.feat, next.rows, "layer {} feat -> next rows", l);
        }
    }

    #[test]
    fn enumerate_covers_all_factorizations() {
        let configs = GridConfig::enumerate(8);
        assert!(configs.iter().all(|c| c.total() == 8));
        // 8 = product of three ordered factors: 10 factorizations.
        assert_eq!(configs.len(), 10);
        assert!(configs.contains(&GridConfig::new(2, 2, 2)));
        assert!(configs.contains(&GridConfig::new(8, 1, 1)));
    }

    #[test]
    fn grid_spec_validates_replication() {
        let spec = GridSpec::new(GridConfig::new(2, 2, 4)).with_replication(2);
        assert_eq!(spec.replication, 2);
        assert_eq!(spec.feature_owners(), 2);
        assert_eq!(GridSpec::from(GridConfig::new(2, 2, 4)).replication, 1);
        let bad = std::panic::catch_unwind(|| {
            GridSpec::new(GridConfig::new(2, 2, 4)).with_replication(3)
        });
        assert!(bad.is_err(), "replication must divide Gz");
    }

    #[test]
    fn dimensionality_classes() {
        assert_eq!(GridConfig::new(8, 1, 1).dimensionality(), 1);
        assert_eq!(GridConfig::new(4, 2, 1).dimensionality(), 2);
        assert_eq!(GridConfig::new(2, 2, 2).dimensionality(), 3);
        assert_eq!(GridConfig::new(2, 2, 2).label(), "X2Y2Z2");
    }
}
