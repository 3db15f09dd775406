//! Linear solvers: Cholesky for SPD Gram systems, LU for general squares.
//!
//! CP-ALS and the 2PCP refinement both need `X · S⁻¹` where `S` is an `F×F`
//! Hadamard product of Gram matrices — symmetric positive *semi*-definite,
//! and frequently rank-deficient when the rank `F` exceeds a mode dimension
//! (the paper runs F=100 against an 18-wide mode). [`solve_gram_system`]
//! therefore attempts a plain Cholesky factorisation and escalates through
//! increasing ridge (Tikhonov) regularisation until the factorisation
//! succeeds, which is the standard practical treatment.

// Index-based loops mirror the textbook factorisation pseudocode; iterator
// rewrites obscure the triangular access patterns.
#![allow(clippy::needless_range_loop)]

use crate::{LinalgError, Mat, Result};

/// Cholesky factorisation of a symmetric positive-definite matrix.
///
/// Returns the lower-triangular factor `L` with `L·Lᵀ = S`.
///
/// # Errors
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::Singular`] when a pivot is not strictly positive
/// (semi-definite or indefinite input).
pub fn cholesky(s: &Mat) -> Result<Mat> {
    let mut l = Mat::default();
    cholesky_into(s, &mut l)?;
    Ok(l)
}

/// [`cholesky`] into a caller-owned `l` (reshaped and overwritten).
fn cholesky_into(s: &Mat, l: &mut Mat) -> Result<()> {
    let n = s.rows();
    if s.cols() != n {
        return Err(LinalgError::NotSquare { shape: s.shape() });
    }
    l.reset(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = s.get(i, j);
            for k in 0..j {
                sum -= l.get(i, k) * l.get(j, k);
            }
            if i == j {
                if sum <= 0.0 || !sum.is_finite() {
                    return Err(LinalgError::Singular);
                }
                l.set(i, j, sum.sqrt());
            } else {
                l.set(i, j, sum / l.get(j, j));
            }
        }
    }
    Ok(())
}

/// Solves `L·Lᵀ·x = b` in place for one right-hand side given the Cholesky
/// factor `L`; `b` is overwritten with `x`.
#[allow(clippy::needless_range_loop)]
pub fn cholesky_solve_vec(l: &Mat, b: &mut [f64]) {
    let n = l.rows();
    debug_assert_eq!(b.len(), n);
    // Forward substitution: L y = b.
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.get(i, k) * b[k];
        }
        b[i] = sum / l.get(i, i);
    }
    // Back substitution: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut sum = b[i];
        for k in i + 1..n {
            sum -= l.get(k, i) * b[k];
        }
        b[i] = sum / l.get(i, i);
    }
}

/// Computes `X = T · S⁻¹` for symmetric positive (semi-)definite `S`.
///
/// This is the paper's update rule `A(i)(ki) ← T(i)(ki) (S(i)(ki))⁻¹`
/// (eq. 3). Row `r` of the result solves `S xᵀ = T[r,:]ᵀ` (valid because `S`
/// is symmetric). When the plain Cholesky factorisation fails, a ridge of
/// `ridge · trace(S)/F` is added and doubled until it succeeds.
///
/// # Errors
/// [`LinalgError::ShapeMismatch`] when `T.cols() != S.rows()`, or
/// [`LinalgError::Singular`] if even heavy regularisation fails (e.g. `S`
/// contains non-finite values).
pub fn solve_gram_system(t: &Mat, s: &Mat, ridge: f64) -> Result<Mat> {
    let mut x = t.clone();
    solve_gram_system_in_place(&mut x, s, ridge, &mut GramSolveScratch::default())?;
    Ok(x)
}

/// Workspace of [`solve_gram_system_in_place`]: the regularised copy of
/// `S` and its Cholesky factor, reused from call to call.
///
/// It is also the split form of the solve: [`factor`](Self::factor)
/// then [`solve_row`](Self::solve_row) on each row is
/// [`solve_gram_system_in_place`], so a caller can solve row `r` of
/// `X = T · S⁻¹` as soon as row `r` of `T` is complete.
#[derive(Default)]
pub struct GramSolveScratch {
    reg: Mat,
    l: Mat,
}

impl GramSolveScratch {
    /// Factors the symmetric `S` for [`solve_row`](Self::solve_row):
    /// a plain Cholesky factorisation, and when that fails a ridge of
    /// `ridge · trace(S)/F`, multiplied by ten until it succeeds.
    ///
    /// # Errors
    /// [`LinalgError::NotSquare`] for a non-square `S`, or
    /// [`LinalgError::Singular`] if even heavy regularisation fails.
    pub fn factor(&mut self, s: &Mat, ridge: f64) -> Result<()> {
        let n = s.rows();
        if s.cols() != n {
            return Err(LinalgError::NotSquare { shape: s.shape() });
        }
        let trace: f64 = (0..n).map(|i| s.get(i, i)).sum();
        let scale = if trace > 0.0 { trace / n as f64 } else { 1.0 };

        let GramSolveScratch { reg, l } = self;
        let mut lambda = 0.0;
        let mut next_lambda = ridge.max(1e-12) * scale;
        for _attempt in 0..24 {
            reg.copy_from(s);
            if lambda > 0.0 {
                for i in 0..n {
                    let v = reg.get(i, i) + lambda;
                    reg.set(i, i, v);
                }
            }
            if cholesky_into(reg, l).is_ok() {
                return Ok(());
            }
            lambda = next_lambda;
            next_lambda *= 10.0;
        }
        Err(LinalgError::Singular)
    }

    /// Overwrites `row` with `row · S⁻¹` for the `S` of the last
    /// successful [`factor`](Self::factor) (`row.len()` is its order).
    pub fn solve_row(&self, row: &mut [f64]) {
        cholesky_solve_vec(&self.l, row);
    }
}

/// [`solve_gram_system`] with `T` overwritten by `X = T · S⁻¹` and the
/// `F×F` temporaries kept in `scratch` — no allocation once the scratch
/// has seen this `F`. The one implementation behind both entry points:
/// [`GramSolveScratch::factor`], then [`GramSolveScratch::solve_row`] on
/// every row. `t` is untouched when an error is returned.
///
/// # Errors
/// As [`solve_gram_system`].
pub fn solve_gram_system_in_place(
    t: &mut Mat,
    s: &Mat,
    ridge: f64,
    scratch: &mut GramSolveScratch,
) -> Result<()> {
    if t.cols() != s.rows() || s.rows() != s.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "solve_gram_system",
            lhs: t.shape(),
            rhs: s.shape(),
        });
    }
    if s.rows() == 0 {
        return Ok(());
    }
    scratch.factor(s, ridge)?;
    for r in 0..t.rows() {
        scratch.solve_row(t.row_mut(r));
    }
    Ok(())
}

/// Maximum number of row-cyclic sweeps [`sym_eig`] performs before giving
/// up on annihilating the off-diagonal mass. Jacobi converges quadratically
/// once rotations get small, so well-formed Gram inputs finish in a handful
/// of sweeps; the cap only guards pathological (yet finite) inputs.
const JACOBI_MAX_SWEEPS: usize = 64;

/// Symmetric eigendecomposition by the row-cyclic Jacobi method.
///
/// Returns `(λ, V)` with the eigenvalues sorted descending (ties broken by
/// original diagonal position) and the columns of `V` holding the matching
/// orthonormal eigenvectors, so `S ≈ V · diag(λ) · Vᵀ`. The input is read
/// as symmetric: only the upper triangle drives the rotations.
///
/// Determinism: the sweep order is fixed (row-cyclic over the upper
/// triangle), the routine is single-threaded, and the final sort is stable,
/// so the result is bit-identical run to run and independent of both the
/// thread budget and the kernel backend.
///
/// # Errors
/// [`LinalgError::NotSquare`] for non-square input and
/// [`LinalgError::Singular`] when the input contains non-finite values.
pub fn sym_eig(s: &Mat) -> Result<(Vec<f64>, Mat)> {
    let n = s.rows();
    if s.cols() != n {
        return Err(LinalgError::NotSquare { shape: s.shape() });
    }
    if s.as_slice().iter().any(|v| !v.is_finite()) {
        return Err(LinalgError::Singular);
    }
    let mut a = s.clone();
    let mut v = Mat::identity(n);
    // Convergence scale: total Frobenius mass of the input. An all-zero
    // matrix is already diagonal.
    let total_sq: f64 = a.as_slice().iter().map(|x| x * x).sum();
    let off_tol = total_sq * 1e-28;
    for _sweep in 0..JACOBI_MAX_SWEEPS {
        let mut off_sq = 0.0;
        for p in 0..n {
            for q in p + 1..n {
                let apq = a.get(p, q);
                off_sq += 2.0 * apq * apq;
            }
        }
        if off_sq <= off_tol {
            break;
        }
        for p in 0..n {
            for q in p + 1..n {
                let apq = a.get(p, q);
                if apq == 0.0 {
                    continue;
                }
                // Classic two-sided rotation choosing |φ| ≤ π/4.
                let theta = (a.get(q, q) - a.get(p, p)) / (2.0 * apq);
                let t = if theta >= 0.0 {
                    1.0 / (theta + (theta * theta + 1.0).sqrt())
                } else {
                    -1.0 / (-theta + (theta * theta + 1.0).sqrt())
                };
                let c = 1.0 / (t * t + 1.0).sqrt();
                let sn = t * c;
                // Rotate rows p and q, then columns p and q, of `a`.
                for k in 0..n {
                    let akp = a.get(p, k);
                    let akq = a.get(q, k);
                    a.set(p, k, c * akp - sn * akq);
                    a.set(q, k, sn * akp + c * akq);
                }
                for k in 0..n {
                    let akp = a.get(k, p);
                    let akq = a.get(k, q);
                    a.set(k, p, c * akp - sn * akq);
                    a.set(k, q, sn * akp + c * akq);
                }
                // Accumulate the rotation into the eigenvector columns.
                for k in 0..n {
                    let vkp = v.get(k, p);
                    let vkq = v.get(k, q);
                    v.set(k, p, c * vkp - sn * vkq);
                    v.set(k, q, sn * vkp + c * vkq);
                }
            }
        }
    }
    // Stable descending sort of (eigenvalue, original index), then permute
    // the eigenvector columns to match.
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        a.get(j, j)
            .partial_cmp(&a.get(i, i))
            .expect("finite input yields finite eigenvalues")
            .then(i.cmp(&j))
    });
    let eigenvalues: Vec<f64> = order.iter().map(|&i| a.get(i, i)).collect();
    let mut vectors = Mat::zeros(n, n);
    for (dst, &src) in order.iter().enumerate() {
        for k in 0..n {
            vectors.set(k, dst, v.get(k, src));
        }
    }
    Ok((eigenvalues, vectors))
}

/// One Cholesky-QR step: `A = Q·R` with `R = Lᵀ` from `chol(AᵀA)`, so
/// `Q = A·L⁻ᵀ` (row `r` of `Q` solves `L·qᵀ = aᵀ` by forward
/// substitution). A rank-deficient Gram is stabilised with an escalating
/// ridge — the orthogonality defect this introduces is exactly what the
/// second CholeskyQR2 pass repairs.
fn chol_qr_step(a: &Mat) -> Result<Mat> {
    let g = a.gram();
    let k = g.rows();
    if k == 0 {
        return Ok(a.clone());
    }
    let trace: f64 = (0..k).map(|i| g.get(i, i)).sum();
    if !trace.is_finite() {
        return Err(LinalgError::Singular);
    }
    let scale = if trace > 0.0 { trace / k as f64 } else { 1.0 };
    let mut lambda = 0.0;
    let mut next_lambda = 1e-14 * scale;
    for _attempt in 0..24 {
        let mut reg = g.clone();
        if lambda > 0.0 {
            for i in 0..k {
                let v = reg.get(i, i) + lambda;
                reg.set(i, i, v);
            }
        }
        match cholesky(&reg) {
            Ok(l) => {
                let mut q = a.clone();
                let mut row = vec![0.0; k];
                for r in 0..q.rows() {
                    row.copy_from_slice(q.row(r));
                    // Forward substitution: L y = aᵣ.
                    for i in 0..k {
                        let mut sum = row[i];
                        for j in 0..i {
                            sum -= l.get(i, j) * row[j];
                        }
                        row[i] = sum / l.get(i, i);
                    }
                    q.row_mut(r).copy_from_slice(&row);
                }
                return Ok(q);
            }
            Err(_) => {
                lambda = next_lambda;
                next_lambda *= 10.0;
            }
        }
    }
    Err(LinalgError::Singular)
}

impl Mat {
    /// Orthonormalises the columns via CholeskyQR2: two rounds of
    /// `Q ← A · chol(AᵀA)⁻ᵀ`. One round loses up to `κ(A)²` digits of
    /// orthogonality; the second round applied to the already
    /// well-conditioned `Q₁` restores `QᵀQ ≈ I` to working precision —
    /// the standard CholeskyQR2 scheme.
    ///
    /// `self` is `m×k` with `m ≥ k`; the result spans the same column
    /// space. Mildly rank-deficient inputs are stabilised with an
    /// escalating ridge on the Gram (the second pass repairs the defect).
    /// Deterministic across thread budgets and kernel backends because
    /// [`Mat::gram`] is bitwise thread- and backend-invariant and the
    /// substitutions are serial.
    ///
    /// # Errors
    /// [`LinalgError::ShapeMismatch`] when `rows < cols` (no orthonormal
    /// basis of that width exists) and [`LinalgError::Singular`] when even
    /// heavy regularisation cannot factor the Gram (non-finite input).
    pub fn orthonormalize(&self) -> Result<Mat> {
        if self.rows() < self.cols() {
            return Err(LinalgError::ShapeMismatch {
                op: "orthonormalize",
                lhs: self.shape(),
                rhs: (self.cols(), self.cols()),
            });
        }
        let q1 = chol_qr_step(self)?;
        chol_qr_step(&q1)
    }
}

/// Solves the general square system `A x = b` by LU with partial pivoting.
///
/// Used in tests and by the HaTen2 baseline's local solve step.
///
/// # Errors
/// [`LinalgError::NotSquare`] / [`LinalgError::ShapeMismatch`] on bad
/// shapes, [`LinalgError::Singular`] when a pivot underflows.
pub fn lu_solve(a: &Mat, b: &[f64]) -> Result<Vec<f64>> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::NotSquare { shape: a.shape() });
    }
    if b.len() != n {
        return Err(LinalgError::ShapeMismatch {
            op: "lu_solve",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let mut lu = a.clone();
    let mut x: Vec<f64> = b.to_vec();
    let mut perm: Vec<usize> = (0..n).collect();

    for col in 0..n {
        // Partial pivot.
        let mut pivot_row = col;
        let mut pivot_val = lu.get(col, col).abs();
        for r in col + 1..n {
            let v = lu.get(r, col).abs();
            if v > pivot_val {
                pivot_val = v;
                pivot_row = r;
            }
        }
        if pivot_val < 1e-300 {
            return Err(LinalgError::Singular);
        }
        if pivot_row != col {
            perm.swap(col, pivot_row);
            for c in 0..n {
                let a = lu.get(col, c);
                let b2 = lu.get(pivot_row, c);
                lu.set(col, c, b2);
                lu.set(pivot_row, c, a);
            }
            x.swap(col, pivot_row);
        }
        let inv_pivot = 1.0 / lu.get(col, col);
        for r in col + 1..n {
            let factor = lu.get(r, col) * inv_pivot;
            lu.set(r, col, factor);
            if factor != 0.0 {
                for c in col + 1..n {
                    let v = lu.get(r, c) - factor * lu.get(col, c);
                    lu.set(r, c, v);
                }
                x[r] -= factor * x[col];
            }
        }
    }
    // Back substitution on U.
    for i in (0..n).rev() {
        let mut sum = x[i];
        for k in i + 1..n {
            sum -= lu.get(i, k) * x[k];
        }
        x[i] = sum / lu.get(i, i);
    }
    Ok(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Mat {
        // A·Aᵀ + I for a fixed A is SPD.
        let a = Mat::from_rows(&[&[1.0, 2.0, 0.0], &[0.0, 1.0, 1.0], &[2.0, 0.0, 1.0]]);
        let mut s = a.matmul_t(&a).unwrap();
        s.add_assign(&Mat::identity(3)).unwrap();
        s
    }

    #[test]
    fn cholesky_reconstructs() {
        let s = spd3();
        let l = cholesky(&s).unwrap();
        let back = l.matmul_t(&l).unwrap();
        assert!(back.max_abs_diff(&s).unwrap() < 1e-10);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let s = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]); // eigenvalues 3, -1
        assert_eq!(cholesky(&s).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn cholesky_rejects_non_square() {
        assert!(matches!(
            cholesky(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn cholesky_solve_roundtrip() {
        let s = spd3();
        let l = cholesky(&s).unwrap();
        let x_true = [1.0, -2.0, 3.0];
        // b = S x.
        let mut b = [0.0; 3];
        for i in 0..3 {
            for j in 0..3 {
                b[i] += s.get(i, j) * x_true[j];
            }
        }
        cholesky_solve_vec(&l, &mut b);
        for (got, want) in b.iter().zip(&x_true) {
            assert!((got - want).abs() < 1e-10);
        }
    }

    #[test]
    fn solve_gram_system_exact() {
        let s = spd3();
        let x_true = Mat::from_rows(&[&[1.0, 0.0, 2.0], &[0.5, -1.0, 0.0]]);
        let t = x_true.matmul(&s).unwrap();
        let x = solve_gram_system(&t, &s, 1e-12).unwrap();
        assert!(x.max_abs_diff(&x_true).unwrap() < 1e-8);
    }

    #[test]
    fn solve_gram_system_singular_falls_back_to_ridge() {
        // Rank-1 Gram matrix: plain Cholesky fails, ridge path must engage.
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let s = a.gram(); // [[1,2],[2,4]], singular
        let t = Mat::from_rows(&[&[1.0, 2.0]]);
        let x = solve_gram_system(&t, &s, 1e-10).unwrap();
        // The regularised solution must be finite and approximately satisfy
        // x·S ≈ T in the least-squares sense.
        assert!(x.as_slice().iter().all(|v| v.is_finite()));
        let back = x.matmul(&s).unwrap();
        assert!(back.max_abs_diff(&t).unwrap() < 1e-3);
    }

    #[test]
    fn solve_gram_system_rejects_nan() {
        let s = Mat::from_rows(&[&[f64::NAN]]);
        let t = Mat::from_rows(&[&[1.0]]);
        assert_eq!(
            solve_gram_system(&t, &s, 1e-10).unwrap_err(),
            LinalgError::Singular
        );
    }

    /// Solves every row of `t` against `cholesky(s + λ·I)`: the oracle
    /// of the split solve, with the ridge `λ` the escalation must reach.
    fn solve_rows_at_ridge(t: &Mat, s: &Mat, lambda: f64) -> Mat {
        let mut reg = s.clone();
        for i in 0..s.rows() {
            if lambda > 0.0 {
                reg.set(i, i, reg.get(i, i) + lambda);
            }
        }
        let l = cholesky(&reg).unwrap();
        let mut x = t.clone();
        for r in 0..x.rows() {
            cholesky_solve_vec(&l, x.row_mut(r));
        }
        x
    }

    #[test]
    fn factor_then_solve_row_is_bitwise_the_one_shot_solve() {
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // The first ridge tried is 1e-10 · trace/F. The rank-1 system takes
        // it; diag(1, −1e-6) needs it multiplied by ten five times, until
        // it exceeds 1e-6.
        let mut escalated = 1e-10 * ((1.0 - 1e-6) / 2.0);
        for _ in 0..5 {
            escalated *= 10.0;
        }
        let cases = [
            (spd3(), 0.0),
            (Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]), 1e-10 * 2.5),
            (Mat::from_rows(&[&[1.0, 0.0], &[0.0, -1e-6]]), escalated),
        ];
        for (s, lambda) in cases {
            let n = s.rows();
            let t = Mat::from_vec(3, n, (0..3 * n).map(|v| (v as f64 * 0.37).sin()).collect());
            let mut scratch = GramSolveScratch::default();
            scratch.factor(&s, 1e-10).unwrap();
            let mut split = t.clone();
            for r in 0..split.rows() {
                scratch.solve_row(split.row_mut(r));
            }
            let oracle = solve_rows_at_ridge(&t, &s, lambda);
            assert_eq!(bits(&split), bits(&oracle), "split, ridge {lambda:e}");
            let one_shot = solve_gram_system(&t, &s, 1e-10).unwrap();
            assert_eq!(bits(&one_shot), bits(&oracle), "one shot, ridge {lambda:e}");
        }
    }

    #[test]
    fn nan_system_is_singular_and_leaves_t_untouched() {
        let s = Mat::from_rows(&[&[1.0, f64::NAN], &[f64::NAN, 1.0]]);
        let mut scratch = GramSolveScratch::default();
        assert_eq!(scratch.factor(&s, 1e-10), Err(LinalgError::Singular));
        let before = Mat::from_rows(&[&[1.5, -2.0], &[0.25, 3.0]]);
        let mut t = before.clone();
        assert_eq!(
            solve_gram_system_in_place(&mut t, &s, 1e-10, &mut scratch),
            Err(LinalgError::Singular)
        );
        let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&t), bits(&before));
    }

    #[test]
    fn solve_gram_system_empty_rank() {
        let x = solve_gram_system(&Mat::zeros(3, 0), &Mat::zeros(0, 0), 1e-10).unwrap();
        assert_eq!(x.shape(), (3, 0));
    }

    #[test]
    fn sym_eig_reconstructs_spd() {
        let s = spd3();
        let (lambda, v) = sym_eig(&s).unwrap();
        // Descending order.
        assert!(lambda.windows(2).all(|w| w[0] >= w[1]));
        // V·Λ·Vᵀ ≈ S.
        let mut vl = v.clone();
        vl.scale_columns(&lambda);
        let back = vl.matmul_t(&v).unwrap();
        assert!(back.max_abs_diff(&s).unwrap() < 1e-10);
        // VᵀV ≈ I.
        let eye = v.gram();
        assert!(eye.max_abs_diff(&Mat::identity(3)).unwrap() < 1e-12);
    }

    #[test]
    fn sym_eig_known_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let s = Mat::from_rows(&[&[2.0, 1.0], &[1.0, 2.0]]);
        let (lambda, _) = sym_eig(&s).unwrap();
        assert!((lambda[0] - 3.0).abs() < 1e-12);
        assert!((lambda[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sym_eig_diagonal_passthrough() {
        let s = Mat::from_rows(&[&[1.0, 0.0], &[0.0, 5.0]]);
        let (lambda, v) = sym_eig(&s).unwrap();
        assert_eq!(lambda, vec![5.0, 1.0]);
        // Columns are permuted unit vectors.
        assert_eq!(v.get(1, 0).abs(), 1.0);
        assert_eq!(v.get(0, 1).abs(), 1.0);
    }

    #[test]
    fn sym_eig_rejects_bad_input() {
        assert!(matches!(
            sym_eig(&Mat::zeros(2, 3)),
            Err(LinalgError::NotSquare { .. })
        ));
        let s = Mat::from_rows(&[&[f64::NAN]]);
        assert_eq!(sym_eig(&s).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn sym_eig_is_bitwise_repeatable() {
        let s = spd3();
        let (l1, v1) = sym_eig(&s).unwrap();
        let (l2, v2) = sym_eig(&s).unwrap();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&l1), bits(&l2));
        assert_eq!(bits(v1.as_slice()), bits(v2.as_slice()));
    }

    #[test]
    fn orthonormalize_tall_matrix() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[0.0, 1.0], &[3.0, -1.0], &[0.5, 0.5]]);
        let q = a.orthonormalize().unwrap();
        assert_eq!(q.shape(), a.shape());
        assert!(q.gram().max_abs_diff(&Mat::identity(2)).unwrap() < 1e-12);
        // Same column space: projecting A onto Q recovers A.
        let back = q.matmul(&q.t_matmul(&a).unwrap()).unwrap();
        assert!(back.max_abs_diff(&a).unwrap() < 1e-10);
    }

    #[test]
    fn orthonormalize_rank_deficient_still_orthonormal() {
        // Column 2 = column 1: the ridge path must still yield QᵀQ ≈ I.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let q = a.orthonormalize().unwrap();
        assert!(q.gram().max_abs_diff(&Mat::identity(2)).unwrap() < 1e-6);
    }

    #[test]
    fn orthonormalize_rejects_wide() {
        assert!(matches!(
            Mat::zeros(2, 3).orthonormalize(),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn lu_solve_known_system() {
        let a = Mat::from_rows(&[&[2.0, 1.0, -1.0], &[-3.0, -1.0, 2.0], &[-2.0, 1.0, 2.0]]);
        let b = [8.0, -11.0, -3.0];
        let x = lu_solve(&a, &b).unwrap();
        let expect = [2.0, 3.0, -1.0];
        for (got, want) in x.iter().zip(&expect) {
            assert!((got - want).abs() < 1e-10, "{got} vs {want}");
        }
    }

    #[test]
    fn lu_solve_requires_pivoting() {
        // Zero on the diagonal forces a row swap.
        let a = Mat::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]);
        let x = lu_solve(&a, &[3.0, 7.0]).unwrap();
        assert!((x[0] - 7.0).abs() < 1e-12);
        assert!((x[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn lu_solve_singular() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]);
        assert_eq!(
            lu_solve(&a, &[1.0, 2.0]).unwrap_err(),
            LinalgError::Singular
        );
    }

    #[test]
    fn lu_solve_shape_errors() {
        assert!(matches!(
            lu_solve(&Mat::zeros(2, 3), &[0.0, 0.0]),
            Err(LinalgError::NotSquare { .. })
        ));
        assert!(matches!(
            lu_solve(&Mat::identity(2), &[0.0]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
    }
}
