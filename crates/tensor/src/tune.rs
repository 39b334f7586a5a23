//! Shape-class GEMM autotuner: picks the microkernel tile at runtime
//! instead of baking one `MR`/`NR`/`KC` into the binary.
//!
//! The training loop hits three very different GEMM shapes — the
//! tall-skinny `dW = SGEMM(Hᵀ, dQ)` (huge `k`, tiny `n`), the wide
//! combination/activation products (`n` in the hundreds), and the roughly
//! square weight-sized products — and no single tile is best for all
//! three. Each shape is classified by `(k, n)` into a [`ShapeClass`], and
//! the class decides the tile.
//!
//! # What may vary, and what must not
//!
//! The engine's determinism contract (see `gemm.rs`) says the f32 op
//! sequence for an output element is a function of `(k, n)` and operand
//! values only. The tile parameters split cleanly against that contract:
//!
//! * **`KC` changes results** whenever `k > KC` (panel boundaries cut the
//!   accumulation into separately-rounded partial sums), so it must be a
//!   *fixed deterministic function of the shape class* — never timed, never
//!   overridable. The table in [`kc_for`] is it.
//! * **`MR`/`NR` are bits-neutral**: every candidate microkernel
//!   accumulates each output element in plain ascending-`k` order within a
//!   panel, so the tile only moves work between registers. These are the
//!   parameters the startup calibration is allowed to choose — a noisy
//!   timer can pick differently run to run and results never change.
//!
//! Calibration runs lazily, once per process per class, on a small
//! synthetic problem shaped like the class (a few ms); tests that need a
//! fixed tile call `gemm_packed_with_tile`. Scalar builds (no AVX2+FMA)
//! pin the SSE2-sized [`SCALAR_TILE`] — the candidate set is tuned for the
//! FMA register file and timing scalar variants of it buys nothing.

use std::sync::OnceLock;

/// Microkernel tile parameters for one GEMM call.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Rows per microkernel strip.
    pub mr: usize,
    /// Columns per microkernel tile (the packed-B strip width).
    pub nr: usize,
    /// K-panel depth; one packed `op(B)` panel stays cache-resident while
    /// every row strip streams over it.
    pub kc: usize,
}

/// Largest `mr` any candidate uses (A-panel scratch sizing).
pub const MR_MAX: usize = 8;
/// Largest `nr` any candidate uses (microkernel spill buffer sizing).
pub const NR_MAX: usize = 16;

/// The `(mr, nr)` candidates calibration chooses between on the FMA path.
/// All fit the 16-register ymm file: `mr` accumulator rows of `nr/8` ymm
/// columns plus the B vectors and the broadcast lane.
pub const FMA_CANDIDATES: &[(usize, usize)] = &[(4, 8), (6, 8), (8, 8), (4, 16), (6, 16)];

/// The pinned tile for scalar (non-AVX2+FMA) processes: 6x8 = twelve
/// 4-wide accumulator vectors plus two B vectors fills the baseline
/// x86-64 SSE2 register file without spilling.
pub const SCALAR_TILE: (usize, usize) = (6, 8);

/// GEMM shape class, decided by `(k, n)` only — never `m`, so row tiles of
/// one logical product always classify identically (the §5.2 tiled
/// combination contract).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ShapeClass {
    /// Wide output: `n >= 256`. Activation-sized products; shallow panels
    /// keep the packed B strip set inside L2.
    Wide,
    /// Deep inner dimension relative to the output width: `k >= 8 * n`.
    /// The `dW = SGEMM(Hᵀ, dQ)` gradient shape; deep panels amortize the
    /// per-panel A-packing over more flops.
    DeepK,
    /// Everything else — weight-sized, roughly square products.
    Square,
}

/// Classify a GEMM by `(k, n)`. `m` is deliberately not an input: see the
/// determinism notes in the module docs.
pub fn classify(k: usize, n: usize) -> ShapeClass {
    if n >= 256 {
        ShapeClass::Wide
    } else if k >= 8 * n.max(1) {
        ShapeClass::DeepK
    } else {
        ShapeClass::Square
    }
}

/// The fixed K-panel depth for a class. A deterministic table, not a
/// calibrated value: `KC` changes f32 results whenever `k > KC`, so it may
/// depend on the (shape-derived) class and nothing else.
pub fn kc_for(class: ShapeClass) -> usize {
    match class {
        ShapeClass::DeepK => 1024,
        ShapeClass::Wide => 256,
        ShapeClass::Square => 512,
    }
}

/// The tile a `(k, n)`-shaped GEMM should run with in this process.
/// `kc` comes from the fixed class table; `mr`/`nr` are the pinned scalar
/// tile on non-FMA processes, else the per-class calibration cache.
pub fn tile_for(k: usize, n: usize) -> Tile {
    let class = classify(k, n);
    let (mr, nr) = mr_nr_for(class);
    Tile { mr, nr, kc: kc_for(class) }
}

fn mr_nr_for(class: ShapeClass) -> (usize, usize) {
    if !crate::cpu::fma_available() {
        return SCALAR_TILE;
    }
    static CLASS_TILES: [OnceLock<(usize, usize)>; 3] =
        [OnceLock::new(), OnceLock::new(), OnceLock::new()];
    *CLASS_TILES[class_index(class)].get_or_init(|| calibrate(class))
}

fn class_index(class: ShapeClass) -> usize {
    match class {
        ShapeClass::Wide => 0,
        ShapeClass::DeepK => 1,
        ShapeClass::Square => 2,
    }
}

/// A small synthetic problem shaped like the class, for calibration. Kept
/// to ~1-2 MFLOP so first-touch latency per class stays in the low
/// milliseconds.
fn probe_shape(class: ShapeClass) -> (usize, usize, usize) {
    match class {
        ShapeClass::Wide => (32, 96, 512),
        ShapeClass::DeepK => (32, 2048, 32),
        ShapeClass::Square => (64, 256, 96),
    }
}

/// Time every candidate on the class's probe shape and keep the fastest.
/// Timing noise can flip the winner between runs; that is fine because
/// every candidate produces bitwise-identical results (module docs).
fn calibrate(class: ShapeClass) -> (usize, usize) {
    let (m, k, n) = probe_shape(class);
    debug_assert_eq!(classify(k, n), class, "probe shape classifies to its own class");
    let kc = kc_for(class);
    let mut best = (u64::MAX, SCALAR_TILE);
    for &(mr, nr) in FMA_CANDIDATES {
        let ns = crate::gemm::time_candidate(m, k, n, Tile { mr, nr, kc });
        if ns < best.0 {
            best = (ns, (mr, nr));
        }
    }
    best.1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_partition_the_shape_space() {
        assert_eq!(classify(4096, 64), ShapeClass::DeepK); // dW: k >> n
        assert_eq!(classify(128, 512), ShapeClass::Wide); // activations
        assert_eq!(classify(2048, 256), ShapeClass::Wide); // n wins over k
        assert_eq!(classify(128, 128), ShapeClass::Square);
        assert_eq!(classify(256, 96), ShapeClass::Square); // k < 8n
        assert_eq!(classify(1, 1), ShapeClass::Square);
        assert_eq!(classify(8, 0), ShapeClass::DeepK); // degenerate n
    }

    #[test]
    fn kc_is_a_pure_function_of_class() {
        for (k, n) in [(4096, 64), (128, 512), (128, 128), (700, 40)] {
            let t1 = tile_for(k, n);
            let t2 = tile_for(k, n);
            assert_eq!(t1, t2, "tile_for must be stable within a process");
            assert_eq!(t1.kc, kc_for(classify(k, n)));
        }
    }

    #[test]
    fn chosen_tiles_come_from_the_candidate_set() {
        for (k, n) in [(4096, 64), (128, 512), (128, 128)] {
            let t = tile_for(k, n);
            assert!(
                FMA_CANDIDATES.contains(&(t.mr, t.nr)) || (t.mr, t.nr) == SCALAR_TILE,
                "tile {t:?} outside the candidate set"
            );
            assert!(t.mr <= MR_MAX && t.nr <= NR_MAX);
        }
    }

    #[test]
    fn probe_shapes_classify_to_their_class() {
        for class in [ShapeClass::Wide, ShapeClass::DeepK, ShapeClass::Square] {
            let (_, k, n) = probe_shape(class);
            assert_eq!(classify(k, n), class);
        }
    }
}
