//! Contiguous row-major dense tensors and mode-n unfolding.

use crate::shape::{linear_index, multi_index, num_elements, strides};
use crate::{Result, TensorError};
use tpcp_linalg::Mat;

/// An N-mode dense tensor stored contiguously in row-major order
/// (last mode varies fastest).
///
/// This is the representation of the "dense tensors common in science and
/// engineering" the paper is designed for (§I footnote 2): stored fully,
/// with explicit zeros, 8 bytes per cell.
#[derive(Clone, PartialEq)]
pub struct DenseTensor {
    dims: Vec<usize>,
    data: Vec<f64>,
}

impl DenseTensor {
    /// Creates a zero tensor with the given dimensions.
    pub fn zeros(dims: &[usize]) -> Self {
        DenseTensor {
            dims: dims.to_vec(),
            data: vec![0.0; num_elements(dims)],
        }
    }

    /// Wraps a row-major data vector.
    ///
    /// # Panics
    /// Panics if `data.len()` disagrees with the dimensions.
    pub fn from_vec(dims: &[usize], data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            num_elements(dims),
            "from_vec: data length mismatch for dims {dims:?}"
        );
        DenseTensor {
            dims: dims.to_vec(),
            data,
        }
    }

    /// Tensor dimensions.
    #[inline]
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Number of modes (tensor order).
    #[inline]
    pub fn order(&self) -> usize {
        self.dims.len()
    }

    /// Total number of stored cells.
    #[inline]
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when the tensor stores no cells.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Borrows the row-major cell data.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutably borrows the row-major cell data.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Reads the cell at `idx`.
    ///
    /// # Errors
    /// [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn get(&self, idx: &[usize]) -> Result<f64> {
        self.check_index(idx)?;
        Ok(self.data[linear_index(&self.dims, idx)])
    }

    /// Writes the cell at `idx`.
    ///
    /// # Errors
    /// [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn set(&mut self, idx: &[usize], v: f64) -> Result<()> {
        self.check_index(idx)?;
        let lin = linear_index(&self.dims, idx);
        self.data[lin] = v;
        Ok(())
    }

    fn check_index(&self, idx: &[usize]) -> Result<()> {
        if idx.len() != self.dims.len() || idx.iter().zip(&self.dims).any(|(i, d)| i >= d) {
            return Err(TensorError::IndexOutOfBounds {
                index: idx.to_vec(),
                dims: self.dims.clone(),
            });
        }
        Ok(())
    }

    /// Number of non-zero cells (exact scan).
    pub fn nnz(&self) -> usize {
        self.data.iter().filter(|&&v| v != 0.0).count()
    }

    /// Frobenius norm `‖X‖`.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>().sqrt()
    }

    /// Squared Frobenius norm `‖X‖²` (avoids the sqrt in accumulation laps).
    pub fn fro_norm_sq(&self) -> f64 {
        self.data.iter().map(|v| v * v).sum::<f64>()
    }

    /// Mode-`n` unfolding (matricisation) as an `Iₙ × Π_{j≠n} Iⱼ` matrix.
    ///
    /// Column ordering is row-major over the remaining modes *in ascending
    /// mode order* (last remaining mode fastest), which matches the row
    /// ordering of [`tpcp_linalg::khatri_rao`] applied to the factor list
    /// with mode `n` removed. Consequently for an exact CP tensor,
    /// `X_(n) = A⁽ⁿ⁾ · KR([.. factors j≠n ..])ᵀ`.
    ///
    /// # Errors
    /// [`TensorError::InvalidMode`] when `n` is not a valid mode.
    pub fn unfold(&self, n: usize) -> Result<Mat> {
        let order = self.order();
        if n >= order {
            return Err(TensorError::InvalidMode { mode: n, order });
        }
        let rows = self.dims[n];
        let cols = self.len() / rows.max(1);
        let mut out = Mat::zeros(rows, cols);
        if self.data.is_empty() {
            return Ok(out);
        }
        let st = strides(&self.dims);
        let stride_n = st[n];
        let dim_n = self.dims[n];
        // The source decomposes as outer × dim_n × inner where
        // inner = stride_n and outer iterates over the modes before n.
        let inner = stride_n;
        let outer = self.len() / (dim_n * inner);
        for o in 0..outer {
            let src_base_o = o * dim_n * inner;
            let dst_col_o = o * inner;
            for r in 0..dim_n {
                let src = &self.data[src_base_o + r * inner..src_base_o + (r + 1) * inner];
                let dst_row = out.row_mut(r);
                dst_row[dst_col_o..dst_col_o + inner].copy_from_slice(src);
            }
        }
        Ok(out)
    }

    /// Inverse of [`Self::unfold`]: folds a matricisation back into a tensor of
    /// shape `dims`.
    ///
    /// # Errors
    /// [`TensorError::InvalidMode`] for a bad mode;
    /// [`TensorError::ShapeMismatch`] when the matrix shape disagrees with
    /// `dims`.
    pub fn fold(mat: &Mat, n: usize, dims: &[usize]) -> Result<DenseTensor> {
        let order = dims.len();
        if n >= order {
            return Err(TensorError::InvalidMode { mode: n, order });
        }
        let rows = dims[n];
        let cols = num_elements(dims) / rows.max(1);
        if mat.shape() != (rows, cols) {
            return Err(TensorError::ShapeMismatch {
                op: "fold",
                expected: vec![rows, cols],
                actual: vec![mat.rows(), mat.cols()],
            });
        }
        let mut out = DenseTensor::zeros(dims);
        if out.data.is_empty() {
            return Ok(out);
        }
        let st = strides(dims);
        let inner = st[n];
        let dim_n = dims[n];
        let outer = out.len() / (dim_n * inner);
        for o in 0..outer {
            let dst_base_o = o * dim_n * inner;
            let src_col_o = o * inner;
            for r in 0..dim_n {
                let src = &mat.row(r)[src_col_o..src_col_o + inner];
                out.data[dst_base_o + r * inner..dst_base_o + (r + 1) * inner].copy_from_slice(src);
            }
        }
        Ok(out)
    }

    /// Extracts the sub-tensor covering `ranges` (one half-open range per
    /// mode), copying into a new dense tensor.
    ///
    /// # Errors
    /// [`TensorError::ShapeMismatch`] when the range list is malformed or
    /// out of bounds.
    pub fn slice(&self, ranges: &[std::ops::Range<usize>]) -> Result<DenseTensor> {
        if ranges.len() != self.order()
            || ranges
                .iter()
                .zip(&self.dims)
                .any(|(r, &d)| r.start > r.end || r.end > d)
        {
            return Err(TensorError::ShapeMismatch {
                op: "slice",
                expected: self.dims.clone(),
                actual: ranges.iter().map(|r| r.end).collect(),
            });
        }
        let out_dims: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
        let mut out = DenseTensor::zeros(&out_dims);
        if out.data.is_empty() {
            return Ok(out);
        }
        let src_strides = strides(&self.dims);
        // Copy contiguous runs along the last mode.
        let last = self.order() - 1;
        let run = out_dims[last];
        let outer_dims = &out_dims[..last];
        let outer_count: usize = outer_dims.iter().product();
        let mut dst_off = 0usize;
        for o in 0..outer_count {
            let outer_idx = multi_index(outer_dims, o);
            let mut src_off = ranges[last].start;
            for (m, &oi) in outer_idx.iter().enumerate() {
                src_off += (ranges[m].start + oi) * src_strides[m];
            }
            out.data[dst_off..dst_off + run].copy_from_slice(&self.data[src_off..src_off + run]);
            dst_off += run;
        }
        Ok(out)
    }

    /// Writes `block` into this tensor at the position described by
    /// `offsets` (the inverse of [`slice`]).
    ///
    /// # Errors
    /// [`TensorError::ShapeMismatch`] when the block does not fit.
    pub fn paste(&mut self, block: &DenseTensor, offsets: &[usize]) -> Result<()> {
        if offsets.len() != self.order()
            || block.order() != self.order()
            || offsets
                .iter()
                .zip(block.dims())
                .zip(&self.dims)
                .any(|((&o, &b), &d)| o + b > d)
        {
            return Err(TensorError::ShapeMismatch {
                op: "paste",
                expected: self.dims.clone(),
                actual: block.dims.clone(),
            });
        }
        if block.is_empty() {
            return Ok(());
        }
        let dst_strides = strides(&self.dims);
        let last = self.order() - 1;
        let run = block.dims[last];
        let outer_dims = &block.dims[..last];
        let outer_count: usize = outer_dims.iter().product();
        let mut src_off = 0usize;
        for o in 0..outer_count {
            let outer_idx = multi_index(outer_dims, o);
            let mut dst_off = offsets[last];
            for (m, &oi) in outer_idx.iter().enumerate() {
                dst_off += (offsets[m] + oi) * dst_strides[m];
            }
            self.data[dst_off..dst_off + run].copy_from_slice(&block.data[src_off..src_off + run]);
            src_off += run;
        }
        Ok(())
    }
}

impl std::fmt::Debug for DenseTensor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "DenseTensor(dims={:?}, nnz={}/{})",
            self.dims,
            self.nnz(),
            self.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_linalg::khatri_rao;

    fn seq_tensor(dims: &[usize]) -> DenseTensor {
        let n = num_elements(dims);
        DenseTensor::from_vec(dims, (0..n).map(|i| i as f64).collect())
    }

    #[test]
    fn zeros_get_set() {
        let mut t = DenseTensor::zeros(&[2, 3, 4]);
        assert_eq!(t.len(), 24);
        t.set(&[1, 2, 3], 5.0).unwrap();
        assert_eq!(t.get(&[1, 2, 3]).unwrap(), 5.0);
        assert_eq!(t.nnz(), 1);
        assert!(t.get(&[2, 0, 0]).is_err());
        assert!(t.set(&[0, 3, 0], 1.0).is_err());
        assert!(t.get(&[0, 0]).is_err());
    }

    #[test]
    fn unfold_mode0_is_reshape() {
        let t = seq_tensor(&[2, 3, 2]);
        let m = t.unfold(0).unwrap();
        assert_eq!(m.shape(), (2, 6));
        assert_eq!(m.row(0), &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(m.row(1), &[6.0, 7.0, 8.0, 9.0, 10.0, 11.0]);
    }

    #[test]
    fn unfold_middle_mode() {
        let t = seq_tensor(&[2, 3, 2]);
        let m = t.unfold(1).unwrap();
        assert_eq!(m.shape(), (3, 4));
        // Column order: remaining modes (0, 2) row-major, mode 2 fastest.
        // Entry (j; i, k) = X[i, j, k] = ((i*3)+j)*2 + k.
        for j in 0..3 {
            for i in 0..2 {
                for k in 0..2 {
                    let col = i * 2 + k;
                    assert_eq!(m.get(j, col), ((i * 3 + j) * 2 + k) as f64);
                }
            }
        }
    }

    #[test]
    fn unfold_last_mode() {
        let t = seq_tensor(&[2, 3, 2]);
        let m = t.unfold(2).unwrap();
        assert_eq!(m.shape(), (2, 6));
        for k in 0..2 {
            for i in 0..2 {
                for j in 0..3 {
                    let col = i * 3 + j;
                    assert_eq!(m.get(k, col), ((i * 3 + j) * 2 + k) as f64);
                }
            }
        }
    }

    #[test]
    fn unfold_fold_roundtrip_all_modes() {
        let t = seq_tensor(&[3, 4, 2, 2]);
        for n in 0..4 {
            let m = t.unfold(n).unwrap();
            let back = DenseTensor::fold(&m, n, t.dims()).unwrap();
            assert_eq!(back, t, "mode {n}");
        }
    }

    #[test]
    fn unfold_bad_mode() {
        let t = seq_tensor(&[2, 2]);
        assert!(matches!(
            t.unfold(2),
            Err(TensorError::InvalidMode { mode: 2, order: 2 })
        ));
    }

    #[test]
    fn fold_shape_mismatch() {
        let m = Mat::zeros(2, 5);
        assert!(DenseTensor::fold(&m, 0, &[2, 3]).is_err());
    }

    #[test]
    fn unfold_matches_khatri_rao_for_cp_tensor() {
        // Build a rank-2 CP tensor explicitly and verify the unfolding
        // identity X_(n) = A_n · KR(others)ᵀ for every mode.
        let a = Mat::from_rows(&[&[1.0, 0.5], &[2.0, -1.0], &[0.0, 1.0]]);
        let b = Mat::from_rows(&[&[1.0, 1.0], &[0.5, 2.0]]);
        let c = Mat::from_rows(&[&[2.0, 0.0], &[1.0, 1.0], &[0.0, 3.0], &[1.0, -1.0]]);
        let dims = [3, 2, 4];
        let mut t = DenseTensor::zeros(&dims);
        for i in 0..3 {
            for j in 0..2 {
                for k in 0..4 {
                    let mut v = 0.0;
                    for f in 0..2 {
                        v += a.get(i, f) * b.get(j, f) * c.get(k, f);
                    }
                    t.set(&[i, j, k], v).unwrap();
                }
            }
        }
        let factors = [&a, &b, &c];
        for n in 0..3 {
            let others: Vec<&Mat> = (0..3).filter(|&m| m != n).map(|m| factors[m]).collect();
            let kr = khatri_rao(&others).unwrap();
            let expect = factors[n].matmul_t(&kr).unwrap();
            let got = t.unfold(n).unwrap();
            assert!(
                got.max_abs_diff(&expect).unwrap() < 1e-12,
                "mode {n} mismatch"
            );
        }
    }

    #[test]
    fn slice_and_paste_roundtrip() {
        let t = seq_tensor(&[4, 4, 4]);
        let block = t.slice(&[1..3, 0..2, 2..4]).unwrap();
        assert_eq!(block.dims(), &[2, 2, 2]);
        assert_eq!(block.get(&[0, 0, 0]).unwrap(), t.get(&[1, 0, 2]).unwrap());
        assert_eq!(block.get(&[1, 1, 1]).unwrap(), t.get(&[2, 1, 3]).unwrap());
        let mut rebuilt = DenseTensor::zeros(&[4, 4, 4]);
        rebuilt.paste(&block, &[1, 0, 2]).unwrap();
        assert_eq!(rebuilt.get(&[2, 1, 3]).unwrap(), t.get(&[2, 1, 3]).unwrap());
    }

    #[test]
    #[allow(clippy::single_range_in_vec_init)] // arity mismatch is the point
    fn slice_errors() {
        let t = seq_tensor(&[2, 2]);
        assert!(t.slice(&[0..3, 0..2]).is_err());
        assert!(t.slice(&[0..2]).is_err());
    }

    #[test]
    fn paste_errors() {
        let mut t = DenseTensor::zeros(&[2, 2]);
        let big = DenseTensor::zeros(&[3, 1]);
        assert!(t.paste(&big, &[0, 0]).is_err());
        let ok = DenseTensor::zeros(&[1, 1]);
        assert!(t.paste(&ok, &[2, 0]).is_err());
    }

    #[test]
    fn norms() {
        let t = DenseTensor::from_vec(&[2, 2], vec![3.0, 0.0, 0.0, 4.0]);
        assert!((t.fro_norm() - 5.0).abs() < 1e-12);
        assert!((t.fro_norm_sq() - 25.0).abs() < 1e-12);
    }
}
