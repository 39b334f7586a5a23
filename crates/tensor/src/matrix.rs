//! Row-major dense matrix type and block/shard manipulation.
//!
//! The 3D algorithm in the paper never needs column-major storage: every
//! shard handed to a kernel is a contiguous row-major block, and the few
//! transposed accesses go through [`Matrix::transposed`] or the `Trans`
//! flags of the GEMM kernel.

use std::fmt;

/// A dense row-major `f32` matrix.
///
/// Invariant: `data.len() == rows * cols` at all times.
#[derive(Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// All-zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Matrix filled with a constant.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self { rows, cols, data: vec![value; rows * cols] }
    }

    /// Build from an existing row-major buffer.
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "Matrix::from_vec: buffer length {} does not match shape {}x{}",
            data.len(),
            rows,
            cols
        );
        Self { rows, cols, data }
    }

    /// Build from a closure evaluated at every `(row, col)`.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Self { rows, cols, data }
    }

    /// Identity matrix of order `n`.
    pub fn eye(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair, convenient for shape assertions.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Number of stored elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Resident heap bytes of the element buffer — the quantity the §5.4
    /// memory ledger accounts.
    pub fn mem_bytes(&self) -> u64 {
        (self.data.len() * std::mem::size_of::<f32>()) as u64
    }

    /// Whole buffer as a flat row-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Whole buffer as a flat mutable row-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consume into the flat buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// Row `i` as a contiguous slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        debug_assert!(i < self.rows, "row {} out of bounds ({} rows)", i, self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        debug_assert!(i < self.rows, "row {} out of bounds ({} rows)", i, self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy of a contiguous row range `[r0, r1)` as a new matrix.
    pub fn row_block(&self, r0: usize, r1: usize) -> Matrix {
        assert!(
            r0 <= r1 && r1 <= self.rows,
            "row_block range {}..{} out of bounds ({} rows)",
            r0,
            r1,
            self.rows
        );
        Matrix::from_vec(r1 - r0, self.cols, self.data[r0 * self.cols..r1 * self.cols].to_vec())
    }

    /// Copy of a column range `[c0, c1)` as a new matrix (strided gather).
    pub fn col_block(&self, c0: usize, c1: usize) -> Matrix {
        assert!(
            c0 <= c1 && c1 <= self.cols,
            "col_block range {}..{} out of bounds ({} cols)",
            c0,
            c1,
            self.cols
        );
        let w = c1 - c0;
        let mut out = Vec::with_capacity(self.rows * w);
        for i in 0..self.rows {
            out.extend_from_slice(&self.row(i)[c0..c1]);
        }
        Matrix::from_vec(self.rows, w, out)
    }

    /// Copy of the rectangular block `[r0, r1) x [c0, c1)`.
    pub fn block(&self, r0: usize, r1: usize, c0: usize, c1: usize) -> Matrix {
        assert!(r0 <= r1 && r1 <= self.rows && c0 <= c1 && c1 <= self.cols, "block out of bounds");
        let w = c1 - c0;
        let mut out = Vec::with_capacity((r1 - r0) * w);
        for i in r0..r1 {
            out.extend_from_slice(&self.row(i)[c0..c1]);
        }
        Matrix::from_vec(r1 - r0, w, out)
    }

    /// Write `src` into the block starting at `(r0, c0)`.
    pub fn set_block(&mut self, r0: usize, c0: usize, src: &Matrix) {
        assert!(
            r0 + src.rows <= self.rows && c0 + src.cols <= self.cols,
            "set_block: {}x{} block at ({},{}) exceeds {}x{}",
            src.rows,
            src.cols,
            r0,
            c0,
            self.rows,
            self.cols
        );
        for i in 0..src.rows {
            let dst =
                &mut self.data[(r0 + i) * self.cols + c0..(r0 + i) * self.cols + c0 + src.cols];
            dst.copy_from_slice(src.row(i));
        }
    }

    /// Explicit transpose into a new matrix.
    pub fn transposed(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Transpose into a preallocated `cols x rows` matrix (the workspace
    /// path: no allocation when `out` comes from a kernel pool).
    pub fn transpose_into(&self, out: &mut Matrix) {
        assert_eq!(
            out.shape(),
            (self.cols, self.rows),
            "transpose_into: output shape {:?} does not match {}x{}",
            out.shape(),
            self.cols,
            self.rows
        );
        // Block the loop so both source reads and destination writes stay
        // within cache lines; 32x32 f32 tiles are 4 KiB each. Within a
        // tile, j is the outer loop so destination writes are contiguous
        // runs (the source tile is cache-resident after its first pass).
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                let imax = (ib + B).min(self.rows);
                let jmax = (jb + B).min(self.cols);
                for j in jb..jmax {
                    let dst = &mut out.data[j * self.rows + ib..j * self.rows + imax];
                    for (d, i) in dst.iter_mut().zip(ib..imax) {
                        *d = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Pad with zero rows/cols up to the given shape (no-op if already there).
    pub fn zero_padded(&self, rows: usize, cols: usize) -> Matrix {
        assert!(rows >= self.rows && cols >= self.cols, "zero_padded: target smaller than source");
        if rows == self.rows && cols == self.cols {
            return self.clone();
        }
        let mut out = Matrix::zeros(rows, cols);
        out.set_block(0, 0, self);
        out
    }

    /// Reorder rows so output row `i` equals input row `perm[i]`.
    pub fn gather_rows(&self, perm: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(perm.len(), self.cols);
        for (i, &src) in perm.iter().enumerate() {
            assert!(src < self.rows, "gather_rows: index {} out of bounds", src);
            out.row_mut(i).copy_from_slice(self.row(src));
        }
        out
    }

    /// Sum of all entries, accumulated in f64 for stability.
    pub fn sum(&self) -> f64 {
        self.data.iter().map(|&x| x as f64).sum()
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f32;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f32 {
        debug_assert!(i < self.rows && j < self.cols, "index ({},{}) out of bounds", i, j);
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f32 {
        debug_assert!(i < self.rows && j < self.cols, "index ({},{}) out of bounds", i, j);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(6);
        for i in 0..show_rows {
            let row = self.row(i);
            let shown: Vec<String> = row.iter().take(8).map(|x| format!("{:10.4}", x)).collect();
            let ellipsis = if self.cols > 8 { ", ..." } else { "" };
            writeln!(f, "  [{}{}]", shown.join(", "), ellipsis)?;
        }
        if self.rows > show_rows {
            writeln!(f, "  ... ({} more rows)", self.rows - show_rows)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let mut m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        m[(1, 2)] = 5.0;
        assert_eq!(m[(1, 2)], 5.0);
        assert_eq!(m.row(1), &[0.0, 0.0, 5.0, 0.0]);
    }

    #[test]
    fn from_fn_layout_is_row_major() {
        let m = Matrix::from_fn(2, 3, |i, j| (i * 10 + j) as f32);
        assert_eq!(m.as_slice(), &[0.0, 1.0, 2.0, 10.0, 11.0, 12.0]);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_checks_length() {
        let _ = Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn transpose_round_trip() {
        let m = Matrix::from_fn(37, 19, |i, j| (i * 100 + j) as f32);
        let t = m.transposed();
        assert_eq!(t.shape(), (19, 37));
        assert_eq!(t[(5, 7)], m[(7, 5)]);
        assert_eq!(t.transposed(), m);
    }

    #[test]
    fn blocks_and_stacks_round_trip() {
        let m = Matrix::from_fn(8, 6, |i, j| (i * 6 + j) as f32);
        let top = m.row_block(0, 3);
        let bottom = m.row_block(3, 8);
        assert_eq!([top.as_slice(), bottom.as_slice()].concat(), m.as_slice());
        let left = m.col_block(0, 2);
        let right = m.col_block(2, 6);
        let mut joined = Matrix::zeros(8, 6);
        joined.set_block(0, 0, &left);
        joined.set_block(0, 2, &right);
        assert_eq!(joined, m);
        assert_eq!(m.block(2, 5, 1, 4)[(0, 0)], m[(2, 1)]);
    }

    #[test]
    fn set_block_writes_in_place() {
        let mut m = Matrix::zeros(4, 4);
        let b = Matrix::full(2, 2, 7.0);
        m.set_block(1, 2, &b);
        assert_eq!(m[(1, 2)], 7.0);
        assert_eq!(m[(2, 3)], 7.0);
        assert_eq!(m[(0, 0)], 0.0);
        assert_eq!(m[(3, 3)], 0.0);
    }

    #[test]
    fn gather_rows_reorders() {
        let m = Matrix::from_fn(4, 2, |i, _| i as f32);
        let g = m.gather_rows(&[3, 0, 2, 1]);
        assert_eq!(g.as_slice(), &[3.0, 3.0, 0.0, 0.0, 2.0, 2.0, 1.0, 1.0]);
    }

    #[test]
    fn zero_padding_preserves_content() {
        let m = Matrix::from_fn(2, 2, |i, j| (i + j) as f32 + 1.0);
        let p = m.zero_padded(4, 3);
        assert_eq!(p.shape(), (4, 3));
        assert_eq!(p[(1, 1)], m[(1, 1)]);
        assert_eq!(p[(3, 2)], 0.0);
        assert_eq!(p.block(0, 2, 0, 2), m);
    }
}
