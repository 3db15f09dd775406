//! Khatri-Rao products and Hadamard chains.

use crate::{LinalgError, Mat, Result};

/// Khatri-Rao (column-wise Kronecker) product of a sequence of factors.
///
/// Given matrices `A₁ (I₁×F), …, Aₙ (Iₙ×F)` this returns the
/// `(I₁·…·Iₙ) × F` matrix whose column `f` is `A₁[:,f] ⊗ … ⊗ Aₙ[:,f]`.
/// Row ordering follows the row-major (last factor fastest) convention used
/// by [`tpcp-tensor`'s unfolding](https://docs.rs), i.e. row
/// `(i₁, …, iₙ)` of the result sits at linear index
/// `((i₁·I₂ + i₂)·I₃ + …)`; this matches `DenseTensor::unfold`.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] if the factors disagree on `F`,
/// and an empty `0×0` matrix when `factors` is empty.
pub fn khatri_rao(factors: &[&Mat]) -> Result<Mat> {
    let mut out = Mat::zeros(0, 0);
    khatri_rao_into(factors, &mut out)?;
    Ok(out)
}

/// In-place variant of [`khatri_rao`] that reuses `out`'s allocation.
pub fn khatri_rao_into(factors: &[&Mat], out: &mut Mat) -> Result<()> {
    let Some(first) = factors.first() else {
        *out = Mat::zeros(0, 0);
        return Ok(());
    };
    let f = first.cols();
    let mut rows = 1usize;
    for m in factors {
        if m.cols() != f {
            return Err(LinalgError::ShapeMismatch {
                op: "khatri_rao",
                lhs: first.shape(),
                rhs: m.shape(),
            });
        }
        rows *= m.rows();
    }
    if out.shape() != (rows, f) {
        *out = Mat::zeros(rows, f);
    }

    // Iteratively expand: start with A₁, then for each subsequent factor B
    // replace the running product K (r×F) by K' ((r·|B|)×F) where
    // K'[(i·|B|)+j, :] = K[i, :] ⊛ B[j, :].
    let mut acc: Vec<f64> = first.as_slice().to_vec();
    let mut acc_rows = first.rows();
    let mut next: Vec<f64> = Vec::new();
    for b in &factors[1..] {
        let b_rows = b.rows();
        next.clear();
        next.reserve(acc_rows * b_rows * f);
        for i in 0..acc_rows {
            let k_row = &acc[i * f..(i + 1) * f];
            for j in 0..b_rows {
                let b_row = b.row(j);
                next.extend(k_row.iter().zip(b_row).map(|(&x, &y)| x * y));
            }
        }
        std::mem::swap(&mut acc, &mut next);
        acc_rows *= b_rows;
    }
    out.as_mut_slice().copy_from_slice(&acc);
    Ok(())
}

/// Hadamard product of a non-empty sequence of same-shape matrices.
///
/// This is the paper's `⊛ₕ` chain over the per-mode `P(h)`/`Q(h)` caches.
///
/// # Errors
/// Returns [`LinalgError::ShapeMismatch`] on inconsistent shapes; an empty
/// input yields a `0×0` matrix.
pub fn hadamard_all(mats: &[&Mat]) -> Result<Mat> {
    let mut out = Mat::default();
    hadamard_all_into(mats.iter().copied(), &mut out)?;
    Ok(out)
}

/// [`hadamard_all`] into a caller-owned `out`: a copy of the first
/// operand multiplied in place by the rest, in order (`0×0` for none).
/// The one fold behind both entry points; allocates nothing once `out`
/// has held a result of this size.
///
/// # Errors
/// As [`hadamard_all`].
pub fn hadamard_all_into<'a>(mats: impl IntoIterator<Item = &'a Mat>, out: &mut Mat) -> Result<()> {
    let mut mats = mats.into_iter();
    match mats.next() {
        None => out.reset(0, 0),
        Some(first) => out.copy_from(first),
    }
    for m in mats {
        out.hadamard_assign(m)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn khatri_rao_two_factors() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Mat::from_rows(&[&[0.0, 5.0], &[6.0, 7.0], &[8.0, 9.0]]);
        let k = khatri_rao(&[&a, &b]).unwrap();
        assert_eq!(k.shape(), (6, 2));
        // Row (i=0, j=0) = a[0] ⊛ b[0].
        assert_eq!(k.row(0), &[0.0, 10.0]);
        // Row (i=0, j=2) = a[0] ⊛ b[2].
        assert_eq!(k.row(2), &[8.0, 18.0]);
        // Row (i=1, j=1) = a[1] ⊛ b[1].
        assert_eq!(k.row(4), &[18.0, 28.0]);
    }

    #[test]
    fn khatri_rao_single_factor_is_identity_op() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(khatri_rao(&[&a]).unwrap(), a);
    }

    #[test]
    fn khatri_rao_empty() {
        assert_eq!(khatri_rao(&[]).unwrap().shape(), (0, 0));
    }

    #[test]
    fn khatri_rao_shape_error() {
        let a = Mat::zeros(2, 2);
        let b = Mat::zeros(2, 3);
        assert!(khatri_rao(&[&a, &b]).is_err());
    }

    #[test]
    fn khatri_rao_gram_identity() {
        // (A ⊙ B)ᵀ (A ⊙ B) = AᵀA ⊛ BᵀB — the identity CP-ALS relies on.
        let a = Mat::from_rows(&[&[1.0, -2.0], &[0.5, 4.0], &[2.0, 1.0]]);
        let b = Mat::from_rows(&[&[3.0, 5.0], &[-1.0, 2.0]]);
        let k = khatri_rao(&[&a, &b]).unwrap();
        let lhs = k.gram();
        let rhs = a.gram().hadamard(&b.gram()).unwrap();
        assert!(lhs.max_abs_diff(&rhs).unwrap() < 1e-12);
    }

    #[test]
    fn khatri_rao_three_factors_row_order() {
        // With factors of sizes 2, 2, 2 the row for (i, j, l) must be at
        // linear index ((i*2)+j)*2 + l.
        let a = Mat::from_rows(&[&[1.0], &[10.0]]);
        let b = Mat::from_rows(&[&[1.0], &[2.0]]);
        let c = Mat::from_rows(&[&[1.0], &[3.0]]);
        let k = khatri_rao(&[&a, &b, &c]).unwrap();
        let expect = [1.0, 3.0, 2.0, 6.0, 10.0, 30.0, 20.0, 60.0];
        assert_eq!(k.as_slice(), &expect);
    }

    #[test]
    fn hadamard_all_chain() {
        let a = Mat::from_rows(&[&[1.0, 2.0]]);
        let b = Mat::from_rows(&[&[3.0, 4.0]]);
        let c = Mat::from_rows(&[&[5.0, 6.0]]);
        let h = hadamard_all(&[&a, &b, &c]).unwrap();
        assert_eq!(h, Mat::from_rows(&[&[15.0, 48.0]]));
        assert_eq!(hadamard_all(&[]).unwrap().shape(), (0, 0));
    }
}
