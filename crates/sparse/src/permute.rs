//! Node permutations — the substrate of the paper's §5.1 double-permutation
//! load balancer.
//!
//! A permutation `p` maps *original* index to *new* index: node `i` of the
//! input becomes node `p[i]` of the output. The §5.1 scheme applies a row
//! permutation `P_r` and a distinct column permutation `P_c` to the
//! adjacency matrix (`P_r A P_cᵀ`), which spreads dense communities across
//! the 2D shard grid far more evenly than a single shared permutation.

use crate::csr::{Coo, Csr};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rayon::prelude::*;

/// Uniformly random permutation of `{0..n}` (Fisher–Yates, seeded).
pub fn random_permutation(n: usize, seed: u64) -> Vec<u32> {
    let mut p: Vec<u32> = (0..n as u32).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    p.shuffle(&mut rng);
    p
}

/// Inverse permutation: `inv[p[i]] = i`.
pub fn inverse_permutation(p: &[u32]) -> Vec<u32> {
    let mut inv = vec![0u32; p.len()];
    for (i, &pi) in p.iter().enumerate() {
        inv[pi as usize] = i as u32;
    }
    inv
}

/// Validate that `p` is a permutation of `{0..n}` (debug tool; O(n)).
pub fn is_permutation(p: &[u32]) -> bool {
    let mut seen = vec![false; p.len()];
    for &x in p {
        let x = x as usize;
        if x >= p.len() || seen[x] {
            return false;
        }
        seen[x] = true;
    }
    true
}

/// Apply row permutation `pr` and column permutation `pc` to a sparse
/// matrix: output has entry `(pr[r], pc[c])` for every input entry `(r, c)`.
/// This is exactly `P_r A P_cᵀ` in the paper's notation.
pub fn apply_permutation(a: &Csr, pr: &[u32], pc: &[u32]) -> Csr {
    assert_eq!(pr.len(), a.rows(), "apply_permutation: row permutation length mismatch");
    assert_eq!(pc.len(), a.cols(), "apply_permutation: column permutation length mismatch");
    let mut coo = Coo::new(a.rows(), a.cols());
    for r in 0..a.rows() {
        let (cols, vals) = a.row_entries(r);
        let nr = pr[r];
        for (&c, &v) in cols.iter().zip(vals) {
            coo.push(nr, pc[c as usize], v);
        }
    }
    coo.to_csr()
}

/// Build output rows `[r0, r1)` of `P_r A P_cᵀ` without materializing the
/// full permuted matrix — the streaming path of the out-of-core ingest
/// pipeline. `inv_pr` is the inverse of the row permutation (output row
/// `o` of the permuted matrix is input row `inv_pr[o]`); `pc` is the
/// forward column permutation. Peak extra memory is one band (`~nnz/p`
/// for a `p`-band sweep), never a second full copy of `A`.
///
/// The result is bitwise identical to
/// `apply_permutation(a, pr, pc).block(r0, r1, 0, a.cols())`: entries are
/// the same `f32` bit patterns and columns are sorted within each row
/// exactly as COO→CSR conversion sorts them.
///
/// Output rows are independent (gather a source row, map its columns,
/// sort), so large bands fan the row range out over the persistent
/// work-stealing pool and stitch the per-chunk results serially. Each row
/// is produced by the identical per-row computation on every path, so the
/// result is bitwise the same for any thread count — `PLEXUS_THREADS=1`
/// (or a 1-thread [`rayon::ThreadPool::install`]) takes the exact
/// sequential loop.
pub fn permuted_row_band(a: &Csr, inv_pr: &[u32], pc: &[u32], r0: usize, r1: usize) -> Csr {
    assert_eq!(inv_pr.len(), a.rows(), "permuted_row_band: inverse row permutation length");
    assert_eq!(pc.len(), a.cols(), "permuted_row_band: column permutation length");
    assert!(r0 <= r1 && r1 <= a.rows(), "permuted_row_band: band out of range");
    let threads = rayon::current_num_threads();
    if threads <= 1 || r1 - r0 < 2 * PAR_BAND_MIN_ROWS {
        return permuted_rows_serial(a, inv_pr, pc, r0, r1);
    }
    // A few chunks per worker so stealing smooths out skewed rows; chunks
    // stay large enough that the vstack stitch cost is negligible.
    let chunks = (threads * 4).min((r1 - r0) / PAR_BAND_MIN_ROWS).max(1);
    let per = (r1 - r0).div_ceil(chunks);
    let bounds: Vec<(usize, usize)> =
        (0..chunks).map(|i| (r0 + i * per, (r0 + (i + 1) * per).min(r1))).collect();
    let mut parts: Vec<Csr> =
        bounds.iter().map(|_| Csr::from_raw(0, a.cols(), vec![0], vec![], vec![])).collect();
    parts.par_chunks_mut(1).enumerate().for_each(|(i, slot)| {
        let (s, e) = bounds[i];
        slot[0] = permuted_rows_serial(a, inv_pr, pc, s, e);
    });
    Csr::vstack(&parts)
}

/// Below this many rows per chunk, parallel fan-out costs more than the
/// row work it distributes.
const PAR_BAND_MIN_ROWS: usize = 128;

fn permuted_rows_serial(a: &Csr, inv_pr: &[u32], pc: &[u32], r0: usize, r1: usize) -> Csr {
    let mut row_ptr = Vec::with_capacity(r1 - r0 + 1);
    row_ptr.push(0usize);
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    let mut entries: Vec<(u32, f32)> = Vec::new();
    for out_row in r0..r1 {
        let src = inv_pr[out_row] as usize;
        let (cols, vals) = a.row_entries(src);
        entries.clear();
        entries.extend(cols.iter().zip(vals).map(|(&c, &v)| (pc[c as usize], v)));
        // Bijective permutation of unique source columns cannot create
        // duplicates, so a plain sort matches COO conversion bitwise.
        entries.sort_unstable_by_key(|&(c, _)| c);
        col_idx.extend(entries.iter().map(|&(c, _)| c));
        values.extend(entries.iter().map(|&(_, v)| v));
        row_ptr.push(col_idx.len());
    }
    Csr::from_raw(r1 - r0, a.cols(), row_ptr, col_idx, values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Csr {
        let mut coo = Coo::new(4, 4);
        for (r, c, v) in [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (3, 0, 4.0), (0, 0, 5.0)] {
            coo.push(r, c, v);
        }
        coo.to_csr()
    }

    #[test]
    fn random_permutation_is_valid_and_seeded() {
        let p = random_permutation(100, 1);
        assert!(is_permutation(&p));
        assert_eq!(p, random_permutation(100, 1));
        assert_ne!(p, random_permutation(100, 2));
    }

    #[test]
    fn inverse_round_trip() {
        let p = random_permutation(50, 9);
        let inv = inverse_permutation(&p);
        for i in 0..50 {
            assert_eq!(inv[p[i] as usize], i as u32);
        }
    }

    #[test]
    fn permutation_moves_entries() {
        let a = sample();
        let p: Vec<u32> = vec![2, 0, 3, 1]; // i -> p[i]
        let b = apply_permutation(&a, &p, &p);
        // (0,1) -> (2,0); (3,0) -> (1,2); (0,0) -> (2,2)
        assert_eq!(b.get(2, 0), 1.0);
        assert_eq!(b.get(1, 2), 4.0);
        assert_eq!(b.get(2, 2), 5.0);
        assert_eq!(b.nnz(), a.nnz());
    }

    #[test]
    fn distinct_row_col_permutations() {
        let a = sample();
        let pr: Vec<u32> = vec![1, 0, 3, 2];
        let pc: Vec<u32> = vec![3, 2, 1, 0];
        let b = apply_permutation(&a, &pr, &pc);
        // (0,1) -> (pr[0], pc[1]) = (1, 2)
        assert_eq!(b.get(1, 2), 1.0);
        // (2,3) -> (3, 0)
        assert_eq!(b.get(3, 0), 3.0);
    }

    #[test]
    fn permutation_invertible_on_matrix() {
        let a = sample();
        let pr = random_permutation(4, 3);
        let pc = random_permutation(4, 4);
        let b = apply_permutation(&a, &pr, &pc);
        let back = apply_permutation(&b, &inverse_permutation(&pr), &inverse_permutation(&pc));
        assert_eq!(back, a);
    }

    #[test]
    fn row_band_matches_full_permutation() {
        let a = sample();
        let pr = random_permutation(4, 3);
        let pc = random_permutation(4, 4);
        let full = apply_permutation(&a, &pr, &pc);
        let inv_pr = inverse_permutation(&pr);
        for (r0, r1) in [(0, 4), (0, 2), (1, 3), (2, 2), (3, 4)] {
            let band = permuted_row_band(&a, &inv_pr, &pc, r0, r1);
            assert_eq!(band, full.block(r0, r1, 0, 4), "band {:?}", (r0, r1));
        }
    }

    #[test]
    fn row_bands_stitch_to_full_permutation() {
        use crate::csr::Coo;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(42);
        let n = 37;
        let mut coo = Coo::new(n, n);
        for _ in 0..n * 6 {
            coo.push(
                rng.random_range(0..n as u32),
                rng.random_range(0..n as u32),
                rng.random_range(-1.0f32..1.0),
            );
        }
        let a = coo.to_csr();
        let pr = random_permutation(n, 7);
        let pc = random_permutation(n, 8);
        let inv_pr = inverse_permutation(&pr);
        let bands: Vec<Csr> = [(0, 13), (13, 26), (26, 37)]
            .iter()
            .map(|&(r0, r1)| permuted_row_band(&a, &inv_pr, &pc, r0, r1))
            .collect();
        assert_eq!(Csr::vstack(&bands), apply_permutation(&a, &pr, &pc));
    }

    /// The pooled band path must be bitwise-identical to the sequential
    /// loop for any thread count — a band large enough to cross the
    /// parallel threshold, compared entry-for-entry in bits.
    #[test]
    fn row_band_bitwise_identical_across_thread_counts() {
        use crate::csr::Coo;
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(77);
        let n = 3 * PAR_BAND_MIN_ROWS;
        let mut coo = Coo::new(n, n);
        for _ in 0..n * 5 {
            coo.push(
                rng.random_range(0..n as u32),
                rng.random_range(0..n as u32),
                rng.random_range(-1.0f32..1.0),
            );
        }
        let a = coo.to_csr();
        let pr = random_permutation(n, 5);
        let pc = random_permutation(n, 6);
        let inv_pr = inverse_permutation(&pr);
        let serial =
            rayon::ThreadPool::new(1).install(|| permuted_row_band(&a, &inv_pr, &pc, 0, n));
        for threads in [2, 4] {
            let par = rayon::ThreadPool::new(threads)
                .install(|| permuted_row_band(&a, &inv_pr, &pc, 0, n));
            assert_eq!(par.row_ptr(), serial.row_ptr(), "{threads} threads");
            assert_eq!(par.col_idx(), serial.col_idx(), "{threads} threads");
            let bits = |c: &Csr| c.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&par), bits(&serial), "{threads} threads");
        }
    }

    #[test]
    fn is_permutation_rejects_bad_input() {
        assert!(!is_permutation(&[0, 0, 1]));
        assert!(!is_permutation(&[0, 3]));
        assert!(is_permutation(&[]));
    }
}
