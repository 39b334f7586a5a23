//! Ring-collective time equations.
//!
//! Paper §4.2: "Plexus adapts AxoNN's communication model, which uses ring
//! algorithm equations from Thakur et al. and Rabenseifner. The latency
//! term is omitted since the messages are large and bandwidth-bound." The
//! all-to-all model keeps a latency term: the paper attributes BNS-GCN's
//! collapse at scale partly to all-to-all's long-distance messages (§7.1).

/// Eq. 4.5: ring all-reduce of `bytes` across `g` ranks at `beta` bytes/s:
/// `T = 2/β · (G-1)/G · M`.
pub fn all_reduce_time(bytes: f64, g: usize, beta: f64) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    2.0 / beta * ((g - 1) as f64 / g as f64) * bytes
}

/// Ring all-gather where the *result* is `bytes` total (each rank holds
/// `bytes / G` beforehand): `T = (G-1)/G · M/β`.
pub fn all_gather_time(result_bytes: f64, g: usize, beta: f64) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    ((g - 1) as f64 / g as f64) * result_bytes / beta
}

/// Ring reduce-scatter of a `bytes` buffer: same volume as all-gather.
pub fn reduce_scatter_time(bytes: f64, g: usize, beta: f64) -> f64 {
    all_gather_time(bytes, g, beta)
}

/// All-to-all of `bytes` per rank (total outgoing) across `g` ranks:
/// pairwise exchange with `g-1` message start-ups. The latency term is the
/// scaling killer the paper observes for BNS-GCN beyond 64 GPUs.
pub fn all_to_all_time(bytes_per_rank: f64, g: usize, beta: f64, latency: f64) -> f64 {
    if g <= 1 {
        return 0.0;
    }
    (g - 1) as f64 * latency + bytes_per_rank / beta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_rank_collectives_are_free() {
        assert_eq!(all_reduce_time(1e9, 1, 1e9), 0.0);
        assert_eq!(all_gather_time(1e9, 1, 1e9), 0.0);
        assert_eq!(all_to_all_time(1e9, 1, 1e9, 1e-5), 0.0);
    }

    #[test]
    fn all_reduce_matches_closed_form() {
        // 1 GB over 4 ranks at 25 GB/s: 2/25e9 * 3/4 * 1e9 = 60 ms.
        let t = all_reduce_time(1.0e9, 4, 25.0e9);
        assert!((t - 0.06).abs() < 1e-9, "got {}", t);
    }

    #[test]
    fn all_reduce_is_twice_all_gather() {
        let (b, g, beta) = (2.0e8, 8, 25.0e9);
        let ar = all_reduce_time(b, g, beta);
        let ag = all_gather_time(b, g, beta);
        assert!((ar / ag - 2.0).abs() < 1e-12);
    }

    #[test]
    fn all_reduce_saturates_with_rank_count() {
        // (G-1)/G -> 1: doubling G barely changes the time at large G.
        let t64 = all_reduce_time(1e9, 64, 25e9);
        let t128 = all_reduce_time(1e9, 128, 25e9);
        assert!((t128 - t64) / t64 < 0.02);
    }

    #[test]
    fn all_to_all_latency_grows_linearly_in_g() {
        let beta = 25e9;
        let lat = 1e-5;
        let small = all_to_all_time(1e6, 8, beta, lat);
        let large = all_to_all_time(1e6, 512, beta, lat);
        // With tiny payload the latency term dominates at scale.
        assert!(large > small * 10.0);
    }
}
