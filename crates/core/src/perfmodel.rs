//! The §4 performance model: computation (eq. 4.4), communication
//! (eqs. 4.5/4.6) and the unified epoch-time predictor that selects the 3D
//! configuration (Fig. 5).

use crate::grid::{roles_for_layer, Axis, GridConfig};
use plexus_simnet::{all_gather_time, all_reduce_time, reduce_scatter_time, MachineSpec};

/// The analytic description of a training problem: enough to predict epoch
/// time at any scale without materializing the graph (billion-edge specs
/// plug straight in from Table 4).
#[derive(Clone, Debug)]
pub struct Workload {
    pub nodes: f64,
    pub nonzeros: f64,
    /// Layer boundary dims `[D0, D1, ..., DL]` (D0 = input features,
    /// DL = classes).
    pub dims: Vec<usize>,
}

impl Workload {
    pub fn new(
        nodes: usize,
        nonzeros: usize,
        input_dim: usize,
        hidden: usize,
        classes: usize,
        layers: usize,
    ) -> Self {
        assert!(layers >= 1, "Workload: need at least one layer");
        let mut dims = vec![input_dim];
        for l in 0..layers {
            dims.push(if l + 1 == layers { classes } else { hidden });
        }
        Self { nodes: nodes as f64, nonzeros: nonzeros as f64, dims }
    }

    pub fn num_layers(&self) -> usize {
        self.dims.len() - 1
    }
}

/// Per-epoch predicted time, split the way Fig. 9 splits it.
#[derive(Clone, Copy, Debug, Default)]
pub struct EpochPrediction {
    pub comp_s: f64,
    pub comm_s: f64,
}

impl EpochPrediction {
    pub fn total(&self) -> f64 {
        self.comp_s + self.comm_s
    }
}

/// Rank-space stride of each axis under the paper's placement priority
/// ("prioritizing Y, X, and then Z parallelism within a node"): Y is
/// innermost, then X, then Z.
fn axis_stride(grid: GridConfig, axis: Axis) -> usize {
    match axis {
        Axis::Y => 1,
        Axis::X => grid.gy,
        Axis::Z => grid.gy * grid.gx,
    }
}

/// Eq. 4.6: effective bandwidth of a ring along `axis`. If the whole group
/// sits inside one node it runs at intra-node bandwidth; otherwise it is
/// bound by the NIC, divided by the number of same-node peers contending
/// for it.
pub fn effective_bandwidth(grid: GridConfig, axis: Axis, m: &MachineSpec) -> f64 {
    let stride = axis_stride(grid, axis);
    let span = stride * grid.dim(axis);
    if span <= m.gpus_per_node {
        m.beta_intra
    } else {
        m.beta_inter / (m.gpus_per_node.min(stride) as f64)
    }
}

/// Predicted per-epoch communication time: every collective of Algorithms
/// 1 and 2 across all layers, timed with the ring equations at the
/// eq.-4.6 effective bandwidths.
pub fn comm_time(w: &Workload, grid: GridConfig, m: &MachineSpec) -> f64 {
    let mut t = 0.0f64;
    let n = w.nodes;
    for l in 0..w.num_layers() {
        let roles = roles_for_layer(l);
        let (g_r, g_c, g_k) = (
            grid.dim(roles.rows) as f64,
            grid.dim(roles.contract) as f64,
            grid.dim(roles.feat) as f64,
        );
        let beta_r = effective_bandwidth(grid, roles.rows, m);
        let beta_c = effective_bandwidth(grid, roles.contract, m);
        let beta_k = effective_bandwidth(grid, roles.feat, m);
        let d_in = w.dims[l] as f64;
        let d_out = w.dims[l + 1] as f64;
        let bytes = 4.0f64;

        let h_bytes = (n / g_r) * (d_in / g_k) * bytes;
        let q_bytes = (n / g_r) * (d_out / g_c) * bytes;
        let w_bytes = (d_in / g_k) * (d_out / g_c) * bytes;
        let f_bytes = (n / g_c) * (d_in / g_k) * bytes;

        // Forward (Algorithm 1).
        if l == 0 {
            t += all_gather_time(f_bytes, grid.dim(roles.rows), beta_r);
        }
        t += all_reduce_time(h_bytes, grid.dim(roles.contract), beta_c);
        t += all_gather_time(w_bytes, grid.dim(roles.rows), beta_r);
        t += all_reduce_time(q_bytes, grid.dim(roles.feat), beta_k);

        // Backward (Algorithm 2). W is cached from the forward pass in
        // this implementation, so no second W all-gather is modelled.
        t += reduce_scatter_time(w_bytes, grid.dim(roles.rows), beta_r);
        t += all_reduce_time(h_bytes, grid.dim(roles.contract), beta_c);
        if l == 0 {
            t += reduce_scatter_time(f_bytes, grid.dim(roles.rows), beta_r);
        } else {
            t += all_reduce_time(f_bytes, grid.dim(roles.rows), beta_r);
        }
    }
    t
}

/// Predicted per-epoch computation time from the machine kernel models.
/// `imbalance` multiplies SpMM times (max/mean nonzeros across shards —
/// 1.0 is what the double permutation achieves, Table 3).
pub fn comp_time(w: &Workload, grid: GridConfig, m: &MachineSpec, imbalance: f64) -> f64 {
    let mut t = 0.0f64;
    let n = w.nodes;
    for l in 0..w.num_layers() {
        let roles = roles_for_layer(l);
        let (g_r, g_c, g_k) = (
            grid.dim(roles.rows) as f64,
            grid.dim(roles.contract) as f64,
            grid.dim(roles.feat) as f64,
        );
        let d_in = w.dims[l] as f64;
        let d_out = w.dims[l + 1] as f64;

        let spmm_flops = 2.0 * w.nonzeros / (g_r * g_c) * (d_in / g_k);
        // Forward SpMM: common dim N/g_c, dense width D/g_k.
        t += m.spmm_time(spmm_flops, n / g_c, d_in / g_k) * imbalance;
        // Backward SpMM (Aᵀ): common dim N/g_r.
        t += m.spmm_time(spmm_flops, n / g_r, d_in / g_k) * imbalance;
        // Forward GEMM + two backward GEMMs (dW and dH).
        let gemm_flops = 2.0 * (n / g_r) * (d_in / g_k) * (d_out / g_c);
        t += 3.0 * m.gemm_time(gemm_flops);
    }
    t
}

/// Unified model (§4.3).
pub fn epoch_time(
    w: &Workload,
    grid: GridConfig,
    m: &MachineSpec,
    imbalance: f64,
) -> EpochPrediction {
    EpochPrediction { comp_s: comp_time(w, grid, m, imbalance), comm_s: comm_time(w, grid, m) }
}

/// Evaluate every factorization of `total_gpus` and return them sorted by
/// predicted epoch time (best first) — the paper's configuration selector.
pub fn rank_configs(
    w: &Workload,
    total_gpus: usize,
    m: &MachineSpec,
) -> Vec<(GridConfig, EpochPrediction)> {
    let mut scored: Vec<(GridConfig, EpochPrediction)> = GridConfig::enumerate(total_gpus)
        .into_iter()
        .map(|g| (g, epoch_time(w, g, m, 1.0)))
        .collect();
    scored.sort_by(|a, b| a.1.total().partial_cmp(&b.1.total()).expect("no NaN times"));
    scored
}

/// The predicted-best configuration for `total_gpus` GPUs.
pub fn choose_config(w: &Workload, total_gpus: usize, m: &MachineSpec) -> GridConfig {
    rank_configs(w, total_gpus, m)[0].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use plexus_simnet::perlmutter;

    fn products_workload() -> Workload {
        // ogbn-products from Table 4 with the paper's 3-layer/128 model.
        Workload::new(2_449_029, 126_167_053, 100, 128, 47, 3)
    }

    #[test]
    fn effective_bandwidth_follows_eq_4_6() {
        let m = perlmutter(); // 4 GPUs/node
                              // 2x2x1 grid fits in one node along every axis.
        let g = GridConfig::new(2, 2, 1);
        assert_eq!(effective_bandwidth(g, Axis::Y, &m), m.beta_intra);
        assert_eq!(effective_bandwidth(g, Axis::X, &m), m.beta_intra);
        // 4x4x4: Y (innermost, span 4) stays intra-node; X spans 16 ranks
        // with stride 4 -> inter-node, contended by min(4, 4) = 4.
        let big = GridConfig::new(4, 4, 4);
        assert_eq!(effective_bandwidth(big, Axis::Y, &m), m.beta_intra);
        assert_eq!(effective_bandwidth(big, Axis::X, &m), m.beta_inter / 4.0);
        assert_eq!(effective_bandwidth(big, Axis::Z, &m), m.beta_inter / 4.0);
    }

    #[test]
    fn comm_time_zero_on_single_gpu() {
        let w = products_workload();
        assert_eq!(comm_time(&w, GridConfig::new(1, 1, 1), &perlmutter()), 0.0);
    }

    #[test]
    fn computation_scales_down_with_gpus() {
        let w = products_workload();
        let m = perlmutter();
        let t1 = comp_time(&w, GridConfig::new(1, 1, 1), &m, 1.0);
        let t64 = comp_time(&w, GridConfig::new(4, 4, 4), &m, 1.0);
        assert!(t1 / t64 > 30.0, "speedup {:.1}", t1 / t64);
    }

    #[test]
    fn imbalance_multiplies_spmm_only() {
        let w = products_workload();
        let m = perlmutter();
        let g = GridConfig::new(4, 4, 4);
        let balanced = comp_time(&w, g, &m, 1.0);
        let skewed = comp_time(&w, g, &m, 7.7); // Table 3's original ordering
        assert!(skewed > balanced * 3.0);
        assert!(skewed < balanced * 7.7 + 1e-9);
    }

    #[test]
    fn chooser_prefers_higher_dimensional_configs_at_scale() {
        // Fig. 5's headline: on 64 GPUs of Perlmutter with ogbn-products,
        // 3D configurations beat 1D and 2D.
        let w = products_workload();
        let best = choose_config(&w, 64, &perlmutter());
        assert!(
            best.dimensionality() >= 2,
            "model chose {} — expected a 2D/3D config at 64 GPUs",
            best.label()
        );
        let ranked = rank_configs(&w, 64, &perlmutter());
        let worst = ranked.last().unwrap();
        assert!(
            worst.1.total() > ranked[0].1.total() * 2.0,
            "config spread too small: best {:.4}s worst {:.4}s",
            ranked[0].1.total(),
            worst.1.total()
        );
    }

    #[test]
    fn epoch_time_in_plausible_range_for_64_gpus() {
        // Paper Fig. 5: observed epochs for ogbn-products on 64 GPUs span
        // roughly 30-210 ms; the model should land in that order of
        // magnitude.
        let w = products_workload();
        let ranked = rank_configs(&w, 64, &perlmutter());
        let best = ranked[0].1.total();
        assert!(
            best > 0.005 && best < 0.5,
            "predicted best epoch {:.4}s outside plausible range",
            best
        );
    }
}
