//! The GEMM tile table: which microkernel tile and K-panel depth a
//! `(k, n)`-shaped product runs with. A written table, not a measurement.
//!
//! The training loop hits three very different GEMM shapes — the
//! tall-skinny `dW = SGEMM(Hᵀ, dQ)` (huge `k`, tiny `n`), the wide
//! combination/activation products (`n` in the hundreds), and the roughly
//! square weight-sized products. Each shape is classified by `(k, n)` into
//! a [`ShapeClass`], and the class decides the panel depth `KC`.
//!
//! # What is fixed, and why
//!
//! The engine's determinism contract (see `gemm.rs`) says the f32 op
//! sequence for an output element is a function of `(k, n)`, the process's
//! SIMD dispatch and operand values only. The tile parameters split
//! cleanly against that contract:
//!
//! * **`KC` changes results** whenever `k > KC` (panel boundaries cut the
//!   accumulation into separately-rounded partial sums), so it is a fixed
//!   function of the shape class. The table in [`kc_for`] is it.
//! * **`MR`/`NR` are bits-neutral**: every microkernel accumulates each
//!   output element in plain ascending-`k` order within a panel, so the
//!   tile only moves work between registers. It is a constant of the CPU
//!   dispatch — [`FMA_TILE`] under AVX2+FMA, [`SCALAR_TILE`] on the
//!   portable path — chosen once, offline, by sweeping the register-file
//!   candidates (4x8, 6x8, 8x8, 4x16, 6x16) over the fourteen GEMM shapes
//!   the repo benchmark's four workloads produce: under FMA 6x16 is
//!   fastest or within 1 % of fastest on eleven of them (8x8 leads by
//!   9-18 % on the three millisecond-sized `n <= 16`, `k >= 128` ones and
//!   trails by 24-32 % on the hidden-32 shapes); scalar, 4x8 is fastest on
//!   all fourteen by 10-36 %. Changing either constant to another tile the
//!   microkernels are monomorphised for changes no bit of any result (the
//!   tile-neutrality tests hold that).

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

/// `(mr, nr)` for AVX2+FMA processes: six accumulator rows of two ymm
/// columns, plus two B vectors and the broadcast lane, is 15 of the 16 ymm
/// registers.
pub const FMA_TILE: (usize, usize) = (6, 16);

/// `(mr, nr)` for scalar (non-AVX2+FMA) processes: 4x8 = eight 4-wide
/// accumulator vectors plus two B vectors and a broadcast stays inside the
/// baseline x86-64 SSE2 register file without spilling.
pub const SCALAR_TILE: (usize, usize) = (4, 8);

/// Largest `nr` in the table (microkernel spill buffer sizing).
pub(crate) const NR_MAX: usize = 16;

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

/// The fixed K-panel depth for a class: `KC` changes f32 results whenever
/// `k > KC`, so it may depend on the (shape-derived) class and nothing
/// else.
pub fn kc_for(class: ShapeClass) -> usize {
    match class {
        ShapeClass::DeepK => 1024,
        ShapeClass::Wide => 256,
        ShapeClass::Square => 512,
    }
}

/// The tile a `(k, n)`-shaped GEMM runs with in this process: a pure
/// function of `(k, n)` and [`fma_available`](crate::cpu::fma_available).
pub fn tile_for(k: usize, n: usize) -> Tile {
    let (mr, nr) = if crate::cpu::fma_available() { FMA_TILE } else { SCALAR_TILE };
    Tile { mr, nr, kc: kc_for(classify(k, n)) }
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
    fn tile_is_the_written_table() {
        // One shape per class, on both sides of the retired 64*64 `k*n`
        // line. CI runs this under both dispatches (default and
        // PLEXUS_NO_SIMD=1); each process sees its own row of the table.
        let (mr, nr) = if crate::cpu::fma_available() { (6, 16) } else { (4, 8) };
        for (k, n, kc) in [
            (128, 512, 256),
            (32, 256, 256),
            (4096, 64, 1024),
            (128, 16, 1024),
            (128, 128, 512),
            (32, 32, 512),
        ] {
            assert_eq!(tile_for(k, n), Tile { mr, nr, kc }, "tile_for({k}, {n})");
        }
        assert!(FMA_TILE.1 <= NR_MAX && SCALAR_TILE.1 <= NR_MAX);
    }
}
