//! The row-major dense matrix type.

/// A dense, row-major `f64` matrix.
///
/// `Mat` is the workhorse of the whole reproduction: factor matrices,
/// sub-factors, Gram matrices and the paper's `P`/`Q` caches are all `Mat`s.
/// Storage is a single contiguous `Vec<f64>` with element `(r, c)` at
/// `r * cols + c`, so row slices are contiguous and iteration over rows is
/// cache-friendly.
#[derive(Clone, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a `rows × cols` matrix filled with `value`.
    pub fn filled(rows: usize, cols: usize, value: f64) -> Self {
        Mat {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates an `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "from_vec: data length {} != {rows}x{cols}",
            data.len()
        );
        Mat { rows, cols, data }
    }

    /// Builds a matrix from nested row slices (test/fixture convenience).
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[&[f64]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged row");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the matrix holds no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size in bytes of the element payload (used by the buffer-pool
    /// accounting, which assumes 8-byte doubles exactly as the paper does).
    #[inline]
    pub fn payload_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f64>()
    }

    /// Borrows the underlying row-major data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the underlying row-major data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Consumes the matrix, returning the row-major data vector.
    #[inline]
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Borrows row `r` as a contiguous slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        debug_assert!(r < self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrows row `r` as a contiguous slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        debug_assert!(r < self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Reads element `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Writes element `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Reshapes to `rows × cols` of zeros, reusing the allocation when it
    /// is large enough — how [`Mat::t_matmul_into`] (which accumulates)
    /// and other scratch users recycle an output matrix across calls.
    pub fn reset(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.capacity() < rows * cols {
            // A fresh zeroed allocation (what `Mat::zeros` does) rather
            // than growing and then filling the old one.
            self.data = vec![0.0; rows * cols];
        } else {
            self.data.clear();
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Reshapes to `rows × cols` for a product that writes every element:
    /// [`Mat::reset`] without its zero-fill. An allocation that is large
    /// enough keeps whatever it held (only cells past the old length are
    /// zeroed); a smaller one is replaced by a fresh zeroed allocation.
    pub(crate) fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        if self.data.capacity() < rows * cols {
            self.data = vec![0.0; rows * cols];
        } else {
            self.data.resize(rows * cols, 0.0);
        }
    }

    /// Becomes a copy of `src` (shape and elements), reusing the
    /// allocation when it is large enough.
    pub fn copy_from(&mut self, src: &Mat) {
        self.rows = src.rows;
        self.cols = src.cols;
        self.data.clear();
        self.data.extend_from_slice(&src.data);
    }

    /// Returns the transpose as a new matrix.
    #[allow(clippy::needless_range_loop)]
    pub fn transposed(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        // Block the transpose to keep both source rows and destination rows
        // in cache for matrices much larger than L1.
        const B: usize = 32;
        for rb in (0..self.rows).step_by(B) {
            for cb in (0..self.cols).step_by(B) {
                for r in rb..(rb + B).min(self.rows) {
                    let src = &self.data[r * self.cols..];
                    for c in cb..(cb + B).min(self.cols) {
                        out.data[c * self.rows + r] = src[c];
                    }
                }
            }
        }
        out
    }

    /// Vertically stacks `parts` (all with the same column count).
    ///
    /// Used to reassemble a full factor `A(i)` from its per-partition pieces
    /// `A(i)(ki)` (paper §III-C).
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(parts: &[&Mat]) -> Mat {
        if parts.is_empty() {
            return Mat::zeros(0, 0);
        }
        let cols = parts[0].cols;
        let rows: usize = parts.iter().map(|p| p.rows).sum();
        let mut data = Vec::with_capacity(rows * cols);
        for p in parts {
            assert_eq!(p.cols, cols, "vstack: column count mismatch");
            data.extend_from_slice(&p.data);
        }
        Mat { rows, cols, data }
    }

    /// Extracts rows `[start, start + count)` as a new matrix.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn row_block(&self, start: usize, count: usize) -> Mat {
        assert!(start + count <= self.rows, "row_block out of bounds");
        Mat {
            rows: count,
            cols: self.cols,
            data: self.data[start * self.cols..(start + count) * self.cols].to_vec(),
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Sum of all elements (used by the Gram-identity fit computation, which
    /// needs `1ᵀ M 1`).
    pub fn sum(&self) -> f64 {
        self.data.iter().sum()
    }

    /// Maximum absolute difference against `other`; `None` when shapes differ.
    pub fn max_abs_diff(&self, other: &Mat) -> Option<f64> {
        if self.shape() != other.shape() {
            return None;
        }
        Some(
            self.data
                .iter()
                .zip(&other.data)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max),
        )
    }
}

/// The empty `0 × 0` matrix (no allocation) — the natural starting state
/// of a scratch matrix that a `*_into` call will shape.
impl Default for Mat {
    fn default() -> Self {
        Mat::zeros(0, 0)
    }
}

impl std::fmt::Debug for Mat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_rows = self.rows.min(8);
        for r in 0..show_rows {
            write!(f, "  [")?;
            let show_cols = self.cols.min(8);
            for c in 0..show_cols {
                if c > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{:.4}", self.get(r, c))?;
            }
            if self.cols > show_cols {
                write!(f, ", …")?;
            }
            writeln!(f, "]")?;
        }
        if self.rows > show_rows {
            writeln!(f, "  …")?;
        }
        write!(f, "]")
    }
}

impl std::ops::Index<(usize, usize)> for Mat {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Mat {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_identity() {
        let z = Mat::zeros(2, 3);
        assert_eq!(z.shape(), (2, 3));
        assert!(z.as_slice().iter().all(|&v| v == 0.0));
        let i = Mat::identity(3);
        assert_eq!(i.get(0, 0), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
        assert_eq!(i.get(2, 2), 1.0);
    }

    #[test]
    fn from_vec_roundtrip() {
        let m = Mat::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(m.get(0, 1), 2.0);
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.into_vec(), vec![1.0, 2.0, 3.0, 4.0]);
    }

    #[test]
    #[should_panic(expected = "from_vec")]
    fn from_vec_bad_len_panics() {
        let _ = Mat::from_vec(2, 2, vec![1.0]);
    }

    #[test]
    fn transpose_small() {
        let m = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let t = m.transposed();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.get(0, 1), 4.0);
        assert_eq!(t.get(2, 0), 3.0);
    }

    #[test]
    fn transpose_blocked_matches_naive() {
        // Exercise the blocked path with a matrix larger than the block size.
        let rows = 67;
        let cols = 45;
        let m = Mat::from_vec(
            rows,
            cols,
            (0..rows * cols).map(|i| i as f64 * 0.5).collect(),
        );
        let t = m.transposed();
        for r in 0..rows {
            for c in 0..cols {
                assert_eq!(t.get(c, r), m.get(r, c));
            }
        }
    }

    #[test]
    fn vstack_and_row_block_are_inverses() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[5.0, 6.0]]);
        let s = Mat::vstack(&[&a, &b]);
        assert_eq!(s.shape(), (3, 2));
        assert_eq!(s.row(2), &[5.0, 6.0]);
        assert_eq!(s.row_block(0, 2), a);
        assert_eq!(s.row_block(2, 1), b);
    }

    #[test]
    fn fro_norm_and_sum() {
        let m = Mat::from_rows(&[&[3.0, 4.0]]);
        assert!((m.fro_norm() - 5.0).abs() < 1e-12);
        assert_eq!(m.sum(), 7.0);
    }

    #[test]
    fn max_abs_diff() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[1.5, 2.0]]);
        assert_eq!(a.max_abs_diff(&b), Some(0.5));
        let c = Mat::zeros(2, 2);
        assert_eq!(a.max_abs_diff(&c), None);
    }

    #[test]
    fn row_accessors() {
        let mut m = Mat::zeros(2, 3);
        m.row_mut(1).copy_from_slice(&[7.0, 8.0, 9.0]);
        assert_eq!(m.row(1), &[7.0, 8.0, 9.0]);
        assert_eq!(m[(1, 2)], 9.0);
        m[(0, 0)] = -1.0;
        assert_eq!(m.get(0, 0), -1.0);
    }
}
