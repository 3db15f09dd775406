//! MTTKRP: matricised tensor times Khatri-Rao product.
//!
//! `M = X_(n) · KR([A⁽ʰ⁾]_{h≠n})` is the dominant kernel of CP-ALS. No path
//! materialises the full Khatri-Rao product or an unfolding:
//!
//! * the dense 3-mode path contracts one contiguous mode-0 slab `X[i]`
//!   (a `J × K` matrix) at a time on the register-tiled products: the
//!   fibre products `X[i] · C` (`matmul`) folded or added into modes 0
//!   and 1, and `X[i]ᵀ · (A[i] ⊛ B)` (`t_matmul`, accumulating) into mode
//!   2 (`O(|X|·F)` flops, `O(F)` scratch per `j` row of a bounded panel)
//!   — the order-3 leaf specialisation of the contraction tree. A serial
//!   ALS sweep runs its modes 0 and 1 as one pass over the block that
//!   shares those fibre products (`mttkrp_dense3_pair`);
//! * every other dense order evaluates one root→leaf path of a throw-away
//!   [`DimTree`]: a banded GEMM of the tensor against the Khatri-Rao
//!   product of *half* the modes, then per-row folds (`docs/dimtree.md`);
//! * the sparse path accumulates one scaled Hadamard row product per
//!   non-zero.
//!
//! All three paths are parallel on the shared [`tpcp_par`] budget and
//! **deterministic**: the dense paths block over *output* rows (each
//! output element is accumulated by exactly one worker, reduction index
//! ascending), while the sparse path reduces per-chunk accumulators over a
//! chunking that depends only on the input size, merged in ascending chunk
//! order. Results are therefore bit-identical for any thread count.

use crate::dimtree::DimTree;
use crate::{CpError, Result};
use tpcp_linalg::kernel::{self, KernelKind, TILE_MR};
use tpcp_linalg::solve::GramSolveScratch;
use tpcp_linalg::Mat;
use tpcp_par::{
    fixed_chunk_size, par_chunks_mut_scratch, par_chunks_reduce_scratch, tile_rows_per_chunk,
    ParConfig,
};
use tpcp_tensor::{DenseTensor, SparseTensor};

/// Work (elements × rank) below which a kernel stays on the calling thread.
const PAR_MIN_WORK: usize = 1 << 13;

/// Reduction chunking for the sparse path: at least this many non-zeros
/// per chunk…
const REDUCE_MIN_CHUNK: usize = 512;

/// …and at most this many chunks, bounding accumulator allocations and the
/// ordered-merge cost. Both constants are part of the determinism contract:
/// chunk boundaries must depend only on the input size.
const REDUCE_MAX_CHUNKS: usize = 64;

pub(crate) fn check_factors(dims: &[usize], factors: &[&Mat], mode: usize) -> Result<usize> {
    if factors.len() != dims.len() {
        return Err(CpError::BadFactors {
            reason: format!("{} factors for order-{} tensor", factors.len(), dims.len()),
        });
    }
    if mode >= dims.len() {
        return Err(CpError::Tensor(tpcp_tensor::TensorError::InvalidMode {
            mode,
            order: dims.len(),
        }));
    }
    let f = factors.first().map_or(0, |m| m.cols());
    for (h, m) in factors.iter().enumerate() {
        if m.cols() != f {
            return Err(CpError::BadFactors {
                reason: format!("factor {h} rank {} != {f}", m.cols()),
            });
        }
        if h != mode && m.rows() != dims[h] {
            return Err(CpError::BadFactors {
                reason: format!("factor {h} rows {} != dim {}", m.rows(), dims[h]),
            });
        }
    }
    Ok(f)
}

/// Dense MTTKRP for mode `mode`: returns the `I_mode × F` matrix
/// `X_(mode) · KR([factors]_{h≠mode})`, computed on the thread budget
/// `par` by the register-tiled primitives of `tpcp_linalg::kernel`.
///
/// Order 3 runs per-slab register-tiled products (`matmul`, then a fold
/// or axpy, at modes 0 and 1; `t_matmul` at mode 2); every other order
/// is one root→leaf evaluation of a throw-away [`DimTree`] (at order 2 a
/// plain `matmul`/`t_matmul` against the other factor).
///
/// `factors[mode]` is ignored (only its column count participates in
/// validation), matching ALS usage where that factor is the one being
/// solved for.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_dense(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
) -> Result<Mat> {
    let f = check_factors(x.dims(), factors, mode)?;
    if f == 0 || x.is_empty() {
        return Ok(Mat::zeros(x.dims()[mode], f));
    }
    match x.order() {
        // Nothing to contract against: every column is `X` itself.
        1 => {
            let cells = x.as_slice().iter().flat_map(|&v| std::iter::repeat_n(v, f));
            Ok(Mat::from_vec(x.len(), f, cells.collect()))
        }
        3 => {
            let par = par.clamped(x.len() * f, PAR_MIN_WORK);
            Ok(mttkrp_dense3(x, factors, mode, f, &par))
        }
        _ => DimTree::new(x.dims(), f)
            .expect("order >= 2 at a positive rank")
            .mttkrp(x, factors, mode, par),
    }
}

/// [`mttkrp_dense`]; `_kind` is ignored, as [`KernelKind`] has one
/// variant.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_dense_kernel(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
    _kind: KernelKind,
) -> Result<Mat> {
    mttkrp_dense(x, factors, mode, par)
}

/// Rows of a mode-0 slab `X[i]` (its `j` rows) that one step of the dense
/// order-3 sweeps contracts: the panel bounds the `S`/`W` buffers at
/// `J_PANEL × F` per worker whatever the length of mode 1 (16 KiB at
/// `dense3`'s 128³ and rank 16, where a slab is one panel).
const J_PANEL: usize = 128;

/// Specialised 3-mode path: each mode-0 slab `X[i]` is a contiguous
/// `J × K` matrix, contracted on the register-tiled products one panel of
/// at most [`J_PANEL`] `j` rows at a time, `i` and `j` ascending:
///
/// * modes 0 and 1: `S = X[i][panel] · C` (`matmul`, which overwrites
///   `S`), the fibre products `S_ij = X[i, j, :] · C`; mode 0 folds `M0[i] = Σ_j S_ij ⊛ B[j]`
///   (`partial_fold`), mode 1 adds `M1[j] += S_ij ⊛ A[i]`
///   (`partial_axpy`);
/// * mode 2: `W = A[i] ⊛ B[panel]`, then `M2 += X[i][panel]ᵀ · W`
///   (`t_matmul`, which accumulates).
///
/// Each output element therefore gets one accumulator per product with
/// the reduction index ascending: `kk` in each `S_ij`, then `j` (mode 0),
/// `i` (mode 1) or `(i, j)` (mode 2) — the order of the per-fibre loops.
/// Parallelism blocks the *output* mode in whole register tiles: each
/// worker owns a band of output rows and accumulates them in the same
/// order as the serial sweep, so results are bit-identical for any thread
/// count.
fn mttkrp_dense3(x: &DenseTensor, factors: &[&Mat], mode: usize, f: usize, par: &ParConfig) -> Mat {
    let dims = x.dims();
    let (di, dj, dk) = (dims[0], dims[1], dims[2]);
    let mut out = Mat::zeros(dims[mode], f);
    if f == 0 || out.is_empty() {
        return out;
    }
    let data = x.as_slice();
    // Rows `j0..j0 + rows` of slab `i`: a contiguous `rows × K` matrix.
    let slab = |i: usize, j0: usize, rows: usize| &data[(i * dj + j0) * dk..][..rows * dk];
    let chunk_rows = tile_rows_per_chunk(dims[mode], par.threads(), TILE_MR);
    let panel_buf = || vec![0.0f64; J_PANEL.min(dj) * f];
    let (a, b, c) = (factors[0], factors[1], factors[2].as_slice());
    match mode {
        0 => par_chunks_mut_scratch(
            par,
            out.as_mut_slice(),
            chunk_rows * f,
            panel_buf,
            |chunk_idx, chunk, s| {
                let i0 = chunk_idx * chunk_rows;
                for (local, out_row) in chunk.chunks_mut(f).enumerate() {
                    for (j0, rows) in panels(0, dj) {
                        let s = &mut s[..rows * f];
                        kernel::matmul(slab(i0 + local, j0, rows), rows, dk, c, f, s);
                        let b_panel = &b.as_slice()[j0 * f..(j0 + rows) * f];
                        if j0 == 0 {
                            kernel::partial_fold(s, b_panel, f, out_row);
                        } else {
                            // The fold overwrites: a later panel continues
                            // each running sum one `j` at a time.
                            for (s_row, b_row) in s.chunks(f).zip(b_panel.chunks(f)) {
                                kernel::partial_axpy(s_row, b_row, f, out_row);
                            }
                        }
                    }
                }
            },
        ),
        1 => par_chunks_mut_scratch(
            par,
            out.as_mut_slice(),
            chunk_rows * f,
            panel_buf,
            |chunk_idx, chunk, s| {
                let band = (chunk_idx * chunk_rows, chunk.len() / f);
                for i in 0..di {
                    for (j0, rows) in panels(band.0, band.1) {
                        let s = &mut s[..rows * f];
                        kernel::matmul(slab(i, j0, rows), rows, dk, c, f, s);
                        let out = &mut chunk[(j0 - band.0) * f..][..rows * f];
                        kernel::partial_axpy(s, a.row(i), f, out);
                    }
                }
            },
        ),
        _ => par_chunks_mut_scratch(
            par,
            out.as_mut_slice(),
            chunk_rows * f,
            panel_buf,
            |chunk_idx, chunk, w| {
                let (k0, band) = (chunk_idx * chunk_rows, chunk.len() / f);
                for i in 0..di {
                    for (j0, rows) in panels(0, dj) {
                        let w = &mut w[..rows * f];
                        for (j, w_row) in (j0..).zip(w.chunks_mut(f)) {
                            for ((wv, &av), &bv) in w_row.iter_mut().zip(a.row(i)).zip(b.row(j)) {
                                *wv = av * bv;
                            }
                        }
                        kernel::t_matmul(slab(i, j0, rows), rows, dk, k0, band, w, f, chunk);
                    }
                }
            },
        ),
    }
    out
}

/// The `(first row, rows)` panels of at most [`J_PANEL`] rows that cover
/// `j0..j0 + len`, ascending.
fn panels(j0: usize, len: usize) -> impl Iterator<Item = (usize, usize)> {
    (j0..j0 + len)
        .step_by(J_PANEL)
        .map(move |p| (p, J_PANEL.min(j0 + len - p)))
}

/// Whether an ALS sweep on `x` at rank `f` runs modes 0 and 1 as one
/// [`mttkrp_dense3_pair`] pass: at order 3 with mode 1 no longer than one
/// panel, exactly when [`mttkrp_dense`] would run those modes on one
/// thread. The pass visits the mode-0 rows in order, so a budget that
/// bands them keeps the per-mode sweeps; both are bitwise the same.
pub(crate) fn dense3_pair_applies(x: &DenseTensor, f: usize, par: &ParConfig) -> bool {
    x.order() == 3
        && !x.is_empty()
        && x.dims()[1] <= J_PANEL
        && par.clamped(x.len() * f, PAR_MIN_WORK).is_serial()
}

/// Modes 0 and 1 of a serial order-3 ALS sweep in one pass over `x`.
///
/// Returns `(A, M1)`: the mode-0 factor `A = M0 · V0⁻¹`, solved from the
/// mode-0 MTTKRP `M0`, and the mode-1 MTTKRP `M1` against that new `A`.
/// The two MTTKRPs share the fibre products `S_ij = X[i, j, :] · C`,
/// since `C` does not change between the two solves, so the block is
/// read once for both modes. For each `i`, ascending:
///
/// 1. `matmul` computes the slab's `J × F` fibre products `S = X[i] · C`;
/// 2. `partial_fold` gives `M0[i] = Σ_j S_ij ⊛ B[j]`, `j` ascending, and
///    `M0[i]` is solved in place into `A[i]` against the one Cholesky
///    factor of `V0` (a Gram solve works row by row);
/// 3. one `partial_axpy` adds `M1[j] += S_ij ⊛ A[i]` for every `j`.
///
/// Every element of `A` and `M1` gets the IEEE operations of
/// [`mttkrp_dense`] and `solve_gram_system` in the same order, so the
/// pass is bitwise the per-mode sweeps at any thread budget.
/// `factors[0]` is ignored, as in [`mttkrp_dense`].
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies, and the errors of
/// `solve_gram_system` for `V0`.
///
/// # Panics
/// Unless `x` is order 3 with mode 1 no longer than one panel, and `v0`
/// has `F` rows ([`dense3_pair_applies`] and the ALS loop hold all three).
pub(crate) fn mttkrp_dense3_pair(
    x: &DenseTensor,
    factors: &[&Mat],
    v0: &Mat,
    ridge: f64,
) -> Result<(Mat, Mat)> {
    let f = check_factors(x.dims(), factors, 0)?;
    let &[di, dj, dk] = x.dims() else {
        unreachable!("dense3_pair_applies admits order 3 only")
    };
    assert!(dj <= J_PANEL, "mode 1 fits one panel");
    assert_eq!(v0.rows(), f, "V0 is F×F");
    let mut solver = GramSolveScratch::default();
    solver.factor(v0, ridge)?;
    let mut a = Mat::zeros(di, f);
    let mut m1 = Mat::zeros(dj, f);
    let mut s = vec![0.0f64; dj * f];
    let (b, c) = (factors[1].as_slice(), factors[2].as_slice());
    for (slab, a_row) in x
        .as_slice()
        .chunks(dj * dk)
        .zip(a.as_mut_slice().chunks_mut(f))
    {
        kernel::matmul(slab, dj, dk, c, f, &mut s);
        kernel::partial_fold(&s, b, f, a_row);
        solver.solve_row(a_row);
        kernel::partial_axpy(&s, a_row, f, m1.as_mut_slice());
    }
    Ok((a, m1))
}

/// Sparse (COO) MTTKRP for mode `mode`, computed on the shared automatic
/// thread budget (`TPCP_THREADS`); see [`mttkrp_sparse_par`].
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_sparse(x: &SparseTensor, factors: &[&Mat], mode: usize) -> Result<Mat> {
    mttkrp_sparse_par(x, factors, mode, &ParConfig::auto())
}

/// [`mttkrp_sparse`] on an explicit thread budget: the non-zeros are cut
/// into fixed chunks (boundaries depend only on `nnz`), each chunk fills a
/// private accumulator, and the accumulators merge in ascending chunk
/// order — deterministic for any thread count.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
#[allow(clippy::needless_range_loop)]
pub fn mttkrp_sparse_par(
    x: &SparseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
) -> Result<Mat> {
    let f = check_factors(x.dims(), factors, mode)?;
    let nnz = x.nnz();
    let rows = x.dims()[mode];
    if nnz == 0 {
        return Ok(Mat::zeros(rows, f));
    }
    let order = x.order();
    let values = x.values();
    let par = par.clamped(nnz * f, PAR_MIN_WORK);
    let chunk = fixed_chunk_size(nnz, REDUCE_MIN_CHUNK, REDUCE_MAX_CHUNKS);
    Ok(par_chunks_reduce_scratch(
        &par,
        nnz,
        chunk,
        || Mat::zeros(rows, f),
        || vec![0.0f64; f],
        |range, acc, prod| {
            for e in range {
                prod.fill(values[e]);
                for h in 0..order {
                    if h == mode {
                        continue;
                    }
                    let row = factors[h].row(x.mode_coords(h)[e] as usize);
                    for (p, &a) in prod.iter_mut().zip(row) {
                        *p *= a;
                    }
                }
                let target = x.mode_coords(mode)[e] as usize;
                let out_row = acc.row_mut(target);
                for (o, &p) in out_row.iter_mut().zip(prod.iter()) {
                    *o += p;
                }
            }
        },
        |mut a, b| {
            a.add_assign(&b).expect("accumulator shapes agree");
            a
        },
    ))
}

/// The materialised definition `unfold · khatri_rao` — the oracle the
/// dense paths are tested against.
#[cfg(test)]
pub(crate) fn reference_mttkrp(x: &DenseTensor, factors: &[&Mat], mode: usize) -> Mat {
    let others: Vec<&Mat> = (0..factors.len())
        .filter(|&h| h != mode)
        .map(|h| factors[h])
        .collect();
    let kr = tpcp_linalg::khatri_rao(&others).unwrap();
    x.unfold(mode).unwrap().matmul(&kr).unwrap()
}

/// The per-fibre loops the order-3 sweeps are pinned against, shared with
/// the `slab_equiv` suite.
#[cfg(test)]
#[path = "../tests/fibre_oracle/mod.rs"]
mod fibre_oracle;

#[cfg(test)]
mod tests {
    use super::*;

    fn rand_tensor_and_factors(dims: &[usize], f: usize, seed: u64) -> (DenseTensor, Vec<Mat>) {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let t = tpcp_tensor::random_dense(dims, &mut rng);
        let factors = dims
            .iter()
            .map(|&d| tpcp_tensor::random_factor(d, f, &mut rng))
            .collect();
        (t, factors)
    }

    #[test]
    fn dense3_matches_reference_all_modes() {
        let (t, factors) = rand_tensor_and_factors(&[4, 5, 3], 2, 11);
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..3 {
            let fast = mttkrp_dense(&t, &refs, mode, &ParConfig::auto()).unwrap();
            let slow = reference_mttkrp(&t, &refs, mode);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-10,
                "mode {mode} diverges"
            );
        }
    }

    #[test]
    fn dense_tree_matches_reference_4mode() {
        let (t, factors) = rand_tensor_and_factors(&[3, 2, 4, 2], 3, 5);
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..4 {
            let fast = mttkrp_dense(&t, &refs, mode, &ParConfig::auto()).unwrap();
            let slow = reference_mttkrp(&t, &refs, mode);
            assert!(
                fast.max_abs_diff(&slow).unwrap() < 1e-10,
                "mode {mode} diverges"
            );
        }
    }

    #[test]
    fn dense_matches_2mode_matrix_product() {
        // For a matrix, MTTKRP over mode 0 is X · B.
        let (t, factors) = rand_tensor_and_factors(&[4, 3], 2, 7);
        let refs: Vec<&Mat> = factors.iter().collect();
        let fast = mttkrp_dense(&t, &refs, 0, &ParConfig::auto()).unwrap();
        let x = t.unfold(0).unwrap();
        let expect = x.matmul(&factors[1]).unwrap();
        assert!(fast.max_abs_diff(&expect).unwrap() < 1e-10);
    }

    #[test]
    fn sparse_matches_dense() {
        let (t, factors) = rand_tensor_and_factors(&[5, 4, 3], 3, 13);
        // Zero half the cells to create genuine sparsity.
        let mut t = t;
        for (i, v) in t.as_mut_slice().iter_mut().enumerate() {
            if i % 2 == 0 {
                *v = 0.0;
            }
        }
        let sp = SparseTensor::from_dense(&t, 0.0);
        let refs: Vec<&Mat> = factors.iter().collect();
        for mode in 0..3 {
            let d = mttkrp_dense(&t, &refs, mode, &ParConfig::auto()).unwrap();
            let s = mttkrp_sparse(&sp, &refs, mode).unwrap();
            assert!(d.max_abs_diff(&s).unwrap() < 1e-10, "mode {mode}");
        }
    }

    #[test]
    fn empty_sparse_gives_zero() {
        let sp = SparseTensor::empty(&[3, 3, 3]);
        let f = Mat::zeros(3, 2);
        let out = mttkrp_sparse(&sp, &[&f, &f, &f], 1).unwrap();
        assert_eq!(out.shape(), (3, 2));
        assert!(out.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn shape_validation() {
        let t = DenseTensor::zeros(&[3, 3, 3]);
        let good = Mat::zeros(3, 2);
        let bad_rank = Mat::zeros(3, 4);
        let bad_rows = Mat::zeros(2, 2);
        assert!(mttkrp_dense(&t, &[&good, &good], 0, &ParConfig::auto()).is_err());
        assert!(mttkrp_dense(&t, &[&good, &bad_rank, &good], 0, &ParConfig::auto()).is_err());
        assert!(mttkrp_dense(&t, &[&good, &bad_rows, &good], 0, &ParConfig::auto()).is_err());
        assert!(mttkrp_dense(&t, &[&good, &good, &good], 3, &ParConfig::auto()).is_err());
        // The mode's own factor rows are NOT validated (it is replaced).
        assert!(mttkrp_dense(&t, &[&bad_rows, &good, &good], 0, &ParConfig::auto()).is_ok());
    }

    /// The paired pass against the per-fibre loops: `A` solved from the
    /// oracle's `M0`, and the oracle's `M1` against that `A`, bit for bit.
    /// Ragged dims, every third fibre zero, ranks below, at and across the
    /// 8-wide tile, a `V0` that needs the ridge, and mode 1 at the panel
    /// cap.
    #[test]
    fn pair_pass_is_bitwise_the_fibre_loops() {
        let (ragged, _) = rand_tensor_and_factors(&[13, 11, 9], 1, 3);
        let mut zero_fibres = ragged.clone();
        for (ij, fibre) in zero_fibres.as_mut_slice().chunks_mut(9).enumerate() {
            if ij % 3 == 1 {
                fibre.fill(0.0);
            }
        }
        let (long_mode1, _) = rand_tensor_and_factors(&[3, J_PANEL, 4], 1, 4);
        // rank(B ⊛ C) ≤ 2·3 < F for the larger ranks: V0 needs the ridge.
        let (deficient, _) = rand_tensor_and_factors(&[20, 2, 3], 1, 5);
        for t in [&ragged, &zero_fibres, &long_mode1, &deficient] {
            for f in [1usize, 3, 6, 8, 10, 16, 17, 32] {
                let (_, factors) = rand_tensor_and_factors(t.dims(), f, f as u64);
                let refs: Vec<&Mat> = factors.iter().collect();
                let v0 =
                    tpcp_linalg::hadamard_all(&[&factors[1].gram(), &factors[2].gram()]).unwrap();
                let ridge = 1e-9;
                assert!(dense3_pair_applies(t, f, &ParConfig::serial()));
                let (a, m1) = mttkrp_dense3_pair(t, &refs, &v0, ridge).unwrap();
                let m0 = fibre_oracle::mttkrp3(t, &refs, 0);
                let a_oracle = tpcp_linalg::solve::solve_gram_system(&m0, &v0, ridge).unwrap();
                let m1_oracle = fibre_oracle::mttkrp3(t, &[&a_oracle, refs[1], refs[2]], 1);
                let bits = |m: &Mat| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                let case = format!("{:?} F{f}", t.dims());
                assert_eq!(bits(&a), bits(&a_oracle), "A: {case}");
                assert_eq!(bits(&m1), bits(&m1_oracle), "M1: {case}");
            }
        }
    }

    /// A mode 1 longer than one panel keeps the per-mode sweeps: the pass
    /// holds one slab's fibre products, and a slab is one panel at most.
    #[test]
    fn pair_pass_needs_mode1_within_one_panel() {
        let serial = ParConfig::serial();
        assert!(dense3_pair_applies(
            &DenseTensor::zeros(&[2, J_PANEL, 3]),
            4,
            &serial
        ));
        assert!(!dense3_pair_applies(
            &DenseTensor::zeros(&[2, J_PANEL + 1, 3]),
            4,
            &serial
        ));
    }
}
