//! Multiplication, Gram, Hadamard and element-wise kernels on [`Mat`].
//!
//! Each product has two entry points: the classic method ([`Mat::matmul`],
//! [`Mat::t_matmul`], [`Mat::matmul_t`], [`Mat::gram`]) runs on the shared
//! [`tpcp_par`] thread budget once the operation is large enough to
//! amortise a fan-out, and its `*_kernel` / `*_into` variants take an
//! explicit [`ParConfig`]. Every product runs the tiled primitives of
//! [`crate::kernel`]; the parallel wrappers partition the *output* matrix
//! and the primitives uphold the module's accumulation-order contract, so
//! every element is accumulated in the same order as the serial loop and
//! results are bit-identical for any thread count.

use crate::kernel::{self, KernelKind, TILE_MR};
use crate::{LinalgError, Mat, Result};
use tpcp_par::{par_chunks_mut, tile_rows_per_chunk, ParConfig};

/// Multiply-add count below which a product stays on the calling thread.
/// A fan-out to two workers costs 60–110 µs on a 2-vCPU VM, and
/// `kernel_cell`'s fan-out table (m×16·16×16, `docs/kernels.md`) puts the
/// crossover at 2²² multiply-adds: there two workers beat the serial
/// `matmul` and `t_matmul` (×0.86, ×0.58) and tie it on `gram` (×1.03);
/// at 2²¹ the Gram still loses (×1.41). Both the implicit entry points
/// and the explicit-budget variants apply this clamp (via
/// [`ParConfig::clamped`]); it is result-neutral because the kernels are
/// thread-count deterministic.
const PAR_MIN_FLOPS: usize = 1 << 22;

/// The budget used by the implicit entry points: the shared automatic
/// budget when the operation is big enough, serial otherwise (checked
/// before `auto()` so small hot-loop products skip the environment lookup
/// entirely).
fn implicit_par(flops: usize) -> ParConfig {
    if flops >= PAR_MIN_FLOPS {
        ParConfig::auto()
    } else {
        ParConfig::serial()
    }
}

impl Mat {
    /// `self · rhs` (shapes `m×k` times `k×n`).
    ///
    /// Above a work threshold this runs on the shared [`tpcp_par`] budget
    /// (`TPCP_THREADS`); see [`Mat::matmul_kernel`] for an explicit budget.
    pub fn matmul(&self, rhs: &Mat) -> Result<Mat> {
        let par = implicit_par(self.rows() * self.cols() * rhs.cols());
        self.matmul_kernel(rhs, &par)
    }

    /// `self · rhs` on an explicit thread budget.
    ///
    /// The output rows are partitioned across workers, so the result is
    /// bit-identical to the serial kernel for any thread count.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul_kernel(&self, rhs: &Mat, par: &ParConfig) -> Result<Mat> {
        let mut out = Mat::default();
        self.matmul_into(rhs, par, &mut out)?;
        Ok(out)
    }

    /// [`Mat::matmul_kernel`] into a caller-owned `out`, which is reshaped
    /// and overwritten — no allocation once `out` has held a result of
    /// this size. The one implementation behind both entry points, so the
    /// two cannot differ by a bit.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Mat, par: &ParConfig, out: &mut Mat) -> Result<()> {
        if self.cols() != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = rhs.cols();
        // `kernel::matmul` overwrites every element of its band (zeros
        // when `k == 0`), so the old contents need no zero-fill.
        out.reshape_for_overwrite(m, n);
        if n == 0 {
            return Ok(());
        }
        let par = par.clamped(m * k * n, PAR_MIN_FLOPS);
        let chunk_rows = tile_rows_per_chunk(m, par.threads(), TILE_MR);
        par_chunks_mut(
            &par,
            out.as_mut_slice(),
            chunk_rows * n,
            |chunk_idx, chunk| {
                let i0 = chunk_idx * chunk_rows;
                let rows = chunk.len() / n;
                let a_band = &self.as_slice()[i0 * k..(i0 + rows) * k];
                kernel::matmul(a_band, rows, k, rhs.as_slice(), n, chunk);
            },
        );
        Ok(())
    }

    /// `selfᵀ · rhs` (shapes `m×k` transposed times `m×n`, result `k×n`).
    ///
    /// This is the kernel behind the paper's `P(h)_l = U(h)_lᵀ A(h)(l_h)`
    /// cache refresh, so it avoids materialising the transpose. Above a
    /// work threshold it runs on the shared [`tpcp_par`] budget; see
    /// [`Mat::t_matmul_kernel`].
    pub fn t_matmul(&self, rhs: &Mat) -> Result<Mat> {
        let par = implicit_par(self.rows() * self.cols() * rhs.cols());
        self.t_matmul_kernel(rhs, &par)
    }

    /// `selfᵀ · rhs` on an explicit thread budget.
    ///
    /// The `k` output rows (columns of `self`) are partitioned across
    /// workers; each still sweeps the `m` input rows in ascending order, so
    /// every output element accumulates in exactly the serial order and the
    /// result is bit-identical for any thread count.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `self.rows() != rhs.rows()`.
    pub fn t_matmul_kernel(&self, rhs: &Mat, par: &ParConfig) -> Result<Mat> {
        let mut out = Mat::default();
        self.t_matmul_into(rhs, par, &mut out)?;
        Ok(out)
    }

    /// [`Mat::t_matmul_kernel`] into a caller-owned `out` (reshaped and
    /// overwritten; see [`Mat::matmul_into`]).
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `self.rows() != rhs.rows()`.
    pub fn t_matmul_into(&self, rhs: &Mat, par: &ParConfig, out: &mut Mat) -> Result<()> {
        if self.rows() != rhs.rows() {
            return Err(LinalgError::ShapeMismatch {
                op: "t_matmul",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = rhs.cols();
        // `kernel::t_matmul` adds into `out`: it needs the zeros.
        out.reset(k, n);
        if n == 0 {
            return Ok(());
        }
        let par = par.clamped(m * k * n, PAR_MIN_FLOPS);
        let chunk_rows = tile_rows_per_chunk(k, par.threads(), TILE_MR);
        par_chunks_mut(
            &par,
            out.as_mut_slice(),
            chunk_rows * n,
            |chunk_idx, chunk| {
                let c0 = chunk_idx * chunk_rows;
                let rows = chunk.len() / n;
                kernel::t_matmul(self.as_slice(), m, k, c0, rows, rhs.as_slice(), n, chunk);
            },
        );
        Ok(())
    }

    /// `self · rhsᵀ` (shapes `m×k` times `n×k` transposed, result `m×n`).
    ///
    /// Above a work threshold this runs on the shared [`tpcp_par`] budget;
    /// see [`Mat::matmul_t_kernel`].
    pub fn matmul_t(&self, rhs: &Mat) -> Result<Mat> {
        let par = implicit_par(self.rows() * self.cols() * rhs.rows());
        self.matmul_t_kernel(rhs, &par)
    }

    /// `self · rhsᵀ` on an explicit thread budget.
    ///
    /// Output rows are partitioned across workers and every element
    /// accumulates in ascending-`k` order, so the result is bit-identical
    /// to the serial reference loop (and to `dot(a_row, b_row)`) for any
    /// thread count.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `self.cols() != rhs.cols()`.
    pub fn matmul_t_kernel(&self, rhs: &Mat, par: &ParConfig) -> Result<Mat> {
        if self.cols() != rhs.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "matmul_t",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        let (m, k) = self.shape();
        let n = rhs.rows();
        // A fresh output: `Mat::zeros` is one zeroed allocation, the
        // cheapest initialised buffer safe code can ask for.
        let mut out = Mat::zeros(m, n);
        if n == 0 || m == 0 {
            return Ok(out);
        }
        let par = par.clamped(m * k * n, PAR_MIN_FLOPS);
        let chunk_rows = tile_rows_per_chunk(m, par.threads(), TILE_MR);
        par_chunks_mut(
            &par,
            out.as_mut_slice(),
            chunk_rows * n,
            |chunk_idx, chunk| {
                let i0 = chunk_idx * chunk_rows;
                let rows = chunk.len() / n;
                let a_band = &self.as_slice()[i0 * k..(i0 + rows) * k];
                kernel::matmul_t(a_band, rows, k, rhs.as_slice(), n, chunk);
            },
        );
        Ok(out)
    }

    /// Gram matrix `selfᵀ · self` (always square `cols × cols`, symmetric).
    pub fn gram(&self) -> Mat {
        let k = self.cols();
        let mut out = Mat::default();
        self.gram_into(&implicit_par(self.rows() * k * k), &mut out);
        out
    }

    /// [`Mat::gram`] on an explicit thread budget (bit-identical to serial
    /// for any thread count). `_kind` is ignored: [`KernelKind`] has one
    /// variant.
    pub fn gram_kernel(&self, par: &ParConfig, _kind: KernelKind) -> Mat {
        let mut out = Mat::default();
        self.gram_into(par, &mut out);
        out
    }

    /// [`Mat::gram`] on an explicit thread budget, into a caller-owned
    /// `out` (reshaped and overwritten; see [`Mat::matmul_into`]).
    ///
    /// Each band computes only its upper triangle
    /// ([`kernel::gram_band`]); a serial mirror pass fills the strict
    /// lower triangle. The mirror is bitwise-exact (IEEE multiplication
    /// commutes bit-for-bit and both triangles share the ascending row
    /// order), so the result equals the full product bitwise.
    pub fn gram_into(&self, par: &ParConfig, out: &mut Mat) {
        let (m, k) = self.shape();
        // Every band writes its upper triangle (zeros when `m == 0`) and
        // the mirror below fills the rest, so no zero-fill is needed.
        out.reshape_for_overwrite(k, k);
        if k == 0 {
            return;
        }
        let par = par.clamped(m * k * k, PAR_MIN_FLOPS);
        let chunk_rows = tile_rows_per_chunk(k, par.threads(), TILE_MR);
        par_chunks_mut(
            &par,
            out.as_mut_slice(),
            chunk_rows * k,
            |chunk_idx, chunk| {
                let c0 = chunk_idx * chunk_rows;
                let rows = chunk.len() / k;
                kernel::gram_band(self.as_slice(), m, k, c0, rows, chunk);
            },
        );
        let s = out.as_mut_slice();
        for j in 1..k {
            for c in 0..j {
                s[j * k + c] = s[c * k + j];
            }
        }
    }

    /// Element-wise (Hadamard) product, returning a new matrix.
    pub fn hadamard(&self, rhs: &Mat) -> Result<Mat> {
        let mut out = self.clone();
        out.hadamard_assign(rhs)?;
        Ok(out)
    }

    /// Element-wise (Hadamard) product in place: `self ⊛= rhs`.
    pub fn hadamard_assign(&mut self, rhs: &Mat) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "hadamard",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a *= b;
        }
        Ok(())
    }

    /// `self += rhs` in place.
    pub fn add_assign(&mut self, rhs: &Mat) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "add",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// `self -= rhs` in place.
    pub fn sub_assign(&mut self, rhs: &Mat) -> Result<()> {
        if self.shape() != rhs.shape() {
            return Err(LinalgError::ShapeMismatch {
                op: "sub",
                lhs: self.shape(),
                rhs: rhs.shape(),
            });
        }
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
        Ok(())
    }

    /// Multiplies every element by `s` in place.
    pub fn scale(&mut self, s: f64) {
        for v in self.as_mut_slice() {
            *v *= s;
        }
    }

    /// Scales each column `c` by `weights[c]` in place.
    ///
    /// Used to fold the CP component weights `λ_f` back into a factor.
    ///
    /// # Panics
    /// Panics if `weights.len() != self.cols()`.
    pub fn scale_columns(&mut self, weights: &[f64]) {
        assert_eq!(weights.len(), self.cols(), "scale_columns: length mismatch");
        let cols = self.cols();
        for row in 0..self.rows() {
            for (v, &w) in self.row_mut(row).iter_mut().zip(weights).take(cols) {
                *v *= w;
            }
        }
    }

    /// Per-column Euclidean norms.
    pub fn column_norms(&self) -> Vec<f64> {
        let mut norms = vec![0.0; self.cols()];
        for r in 0..self.rows() {
            for (n, &v) in norms.iter_mut().zip(self.row(r)) {
                *n += v * v;
            }
        }
        for n in &mut norms {
            *n = n.sqrt();
        }
        norms
    }

    /// Normalises each column to unit norm, returning the norms.
    ///
    /// Zero columns are left untouched and report norm 0 (their weight is
    /// zero, so the CP reconstruction is unaffected).
    pub fn normalize_columns(&mut self) -> Vec<f64> {
        let norms = self.column_norms();
        for r in 0..self.rows() {
            let row = self.row_mut(r);
            for (v, &n) in row.iter_mut().zip(&norms) {
                if n > 0.0 {
                    *v /= n;
                }
            }
        }
        norms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m22() -> Mat {
        Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]])
    }

    #[test]
    fn matmul_basic() {
        let a = m22();
        let b = Mat::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Mat::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_identity() {
        let a = m22();
        let i = Mat::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_shape_error() {
        let a = m22();
        let b = Mat::zeros(3, 2);
        assert!(matches!(
            a.matmul(&b),
            Err(LinalgError::ShapeMismatch { op: "matmul", .. })
        ));
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.5], &[-1.0, 2.0]]);
        let fast = a.t_matmul(&b).unwrap();
        let slow = a.transposed().matmul(&b).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-12);
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Mat::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]]);
        let b = Mat::from_rows(&[&[1.0, 0.5, 2.0], &[-1.0, 2.0, 0.0]]);
        let fast = a.matmul_t(&b).unwrap();
        let slow = a.matmul(&b.transposed()).unwrap();
        assert!(fast.max_abs_diff(&slow).unwrap() < 1e-12);
    }

    #[test]
    fn matmul_t_of_an_empty_operand_is_zeros() {
        let out = Mat::zeros(0, 3).matmul_t(&Mat::filled(1, 3, 1.0)).unwrap();
        assert_eq!(out.shape(), (0, 1));
        let out = Mat::filled(2, 3, 1.0).matmul_t(&Mat::zeros(0, 3)).unwrap();
        assert_eq!(out.shape(), (2, 0));
    }

    #[test]
    fn gram_is_symmetric_and_correct() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0]]);
        let g = a.gram();
        assert_eq!(g.shape(), (2, 2));
        assert_eq!(g.get(0, 0), 35.0);
        assert_eq!(g.get(0, 1), 44.0);
        assert_eq!(g.get(1, 0), 44.0);
        assert_eq!(g.get(1, 1), 56.0);
    }

    #[test]
    fn hadamard_and_assign() {
        let a = m22();
        let b = Mat::from_rows(&[&[2.0, 0.0], &[1.0, -1.0]]);
        let h = a.hadamard(&b).unwrap();
        assert_eq!(h, Mat::from_rows(&[&[2.0, 0.0], &[3.0, -4.0]]));
        let mut c = a.clone();
        c.hadamard_assign(&b).unwrap();
        assert_eq!(c, h);
    }

    #[test]
    fn add_sub_scale() {
        let mut a = m22();
        a.add_assign(&Mat::identity(2)).unwrap();
        assert_eq!(a, Mat::from_rows(&[&[2.0, 2.0], &[3.0, 5.0]]));
        a.sub_assign(&Mat::identity(2)).unwrap();
        assert_eq!(a, m22());
        a.scale(2.0);
        assert_eq!(a, Mat::from_rows(&[&[2.0, 4.0], &[6.0, 8.0]]));
    }

    #[test]
    fn shape_errors_on_elementwise() {
        let mut a = m22();
        let b = Mat::zeros(1, 2);
        assert!(a.hadamard(&b).is_err());
        assert!(a.add_assign(&b).is_err());
        assert!(a.sub_assign(&b).is_err());
    }

    #[test]
    fn column_norms_and_normalize() {
        let mut a = Mat::from_rows(&[&[3.0, 0.0], &[4.0, 0.0]]);
        let norms = a.normalize_columns();
        assert!((norms[0] - 5.0).abs() < 1e-12);
        assert_eq!(norms[1], 0.0);
        assert!((a.get(0, 0) - 0.6).abs() < 1e-12);
        assert!((a.get(1, 0) - 0.8).abs() < 1e-12);
        // Zero column untouched.
        assert_eq!(a.get(0, 1), 0.0);
    }

    #[test]
    fn scale_columns_folds_weights() {
        let mut a = m22();
        a.scale_columns(&[10.0, 0.5]);
        assert_eq!(a, Mat::from_rows(&[&[10.0, 1.0], &[30.0, 2.0]]));
    }
}
