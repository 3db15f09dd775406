//! Slice-based batched entry points for serving-style workloads.
//!
//! The serving layer evaluates many small reconstruction queries against
//! one fixed set of factor matrices. When the factors are resident in a
//! shared memory map they are raw `&[f64]` slabs, not owned [`Mat`]s, so
//! the usual method-on-`Mat` entry points would force a copy per query.
//! The functions here accept the row-major data directly:
//!
//! * [`gather_rows`] — pick a set of rows out of a slab into a dense
//!   matrix (the "gather" half of gather-matmul);
//! * [`matmul_t_slices`] — `A · Bᵀ` over raw slices, dispatching through
//!   the same [`Kernel`](crate::kernel::Kernel) seam and the same output
//!   partitioning as [`Mat::matmul_t`], so the result is bit-identical to
//!   the owned-matrix path for any thread count and backend.
//!
//! [`Mat::matmul_t`] itself is implemented on top of
//! [`matmul_t_slices`], which is what *guarantees* the bitwise identity
//! rather than merely testing it.

use crate::kernel::KernelKind;
use crate::Mat;
use tpcp_par::{par_chunks_mut, tile_rows_per_chunk, ParConfig};

/// Multiply-add count below which a product stays on the calling thread
/// (mirrors the clamp in `ops.rs`; result-neutral because the kernels are
/// thread-count deterministic).
pub(crate) const PAR_MIN_FLOPS: usize = 1 << 15;

/// Gathers `rows` (each `< src_rows`) from the row-major `src` slab of
/// shape `src_rows × cols` into a dense `rows.len() × cols` matrix.
///
/// # Panics
/// Panics if `src.len() != src_rows * cols` or an index is out of range
/// (callers validate indices against the model shape first).
pub fn gather_rows(src: &[f64], src_rows: usize, cols: usize, rows: &[usize]) -> Mat {
    assert_eq!(src.len(), src_rows * cols, "gather_rows: slab shape");
    let mut data = Vec::with_capacity(rows.len() * cols);
    for &r in rows {
        assert!(r < src_rows, "gather_rows: row {r} out of {src_rows}");
        data.extend_from_slice(&src[r * cols..(r + 1) * cols]);
    }
    Mat::from_vec(rows.len(), cols, data)
}

/// `A · Bᵀ` over raw row-major slices: `a` is `m × k`, `b` is `n × k`,
/// the result is `m × n`.
///
/// Exactly the body of [`Mat::matmul_t_kernel`](crate::Mat::matmul_t):
/// output rows are partitioned on `par`, each band runs through the
/// resolved kernel backend, and every output element accumulates in
/// ascending-`k` order — so results are bit-identical to the serial
/// reference loop (and to `dot(a_row, b_row)`) for any thread count.
///
/// # Panics
/// Panics if the slice lengths disagree with the declared shapes.
pub fn matmul_t_slices(
    a: &[f64],
    m: usize,
    k: usize,
    b: &[f64],
    n: usize,
    par: &ParConfig,
    kind: KernelKind,
) -> Mat {
    assert_eq!(a.len(), m * k, "matmul_t_slices: lhs shape");
    assert_eq!(b.len(), n * k, "matmul_t_slices: rhs shape");
    let mut out = Mat::zeros(m, n);
    if n == 0 || m == 0 {
        return out;
    }
    let kernel = kind.resolve();
    let par = par.clamped(m * k * n, PAR_MIN_FLOPS);
    let chunk_rows = tile_rows_per_chunk(m, par.threads(), kernel.row_tile());
    par_chunks_mut(
        &par,
        out.as_mut_slice(),
        chunk_rows * n,
        |chunk_idx, chunk| {
            let i0 = chunk_idx * chunk_rows;
            let rows = chunk.len() / n;
            let a_band = &a[i0 * k..(i0 + rows) * k];
            kernel.matmul_t(a_band, rows, k, b, n, chunk);
        },
    );
    out
}

/// [`matmul_t_slices`] on the implicit budget (shared automatic thread
/// pool above the work threshold, serial below) and the tiled backend —
/// the same dispatch the plain [`Mat::matmul_t`] method uses.
pub fn matmul_t_slices_auto(a: &[f64], m: usize, k: usize, b: &[f64], n: usize) -> Mat {
    let par = if m * k * n >= PAR_MIN_FLOPS {
        ParConfig::auto()
    } else {
        ParConfig::serial()
    };
    matmul_t_slices(a, m, k, b, n, &par, KernelKind::Tiled)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_picks_rows_in_order() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3×2
        let g = gather_rows(&src, 3, 2, &[2, 0, 2]);
        assert_eq!(g.shape(), (3, 2));
        assert_eq!(g.as_slice(), &[5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn slices_match_owned_matmul_t_bitwise() {
        let a = Mat::from_vec(4, 3, (0..12).map(|i| i as f64 * 0.37 - 1.0).collect());
        let b = Mat::from_vec(5, 3, (0..15).map(|i| (i as f64).sin()).collect());
        let owned = a.matmul_t(&b).unwrap();
        let sliced = matmul_t_slices_auto(a.as_slice(), 4, 3, b.as_slice(), 5);
        assert_eq!(owned.shape(), sliced.shape());
        for (x, y) in owned.as_slice().iter().zip(sliced.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn empty_operands_yield_zeros() {
        let out = matmul_t_slices_auto(&[], 0, 3, &[1.0, 1.0, 1.0], 1);
        assert_eq!(out.shape(), (0, 1));
    }
}
