//! MTTKRP: matricised tensor times Khatri-Rao product.
//!
//! `M = X_(n) · KR([A⁽ʰ⁾]_{h≠n})` is the dominant kernel of CP-ALS. No path
//! materialises the full Khatri-Rao product or an unfolding:
//!
//! * the dense 3-mode path streams contiguous mode-2 fibres and performs a
//!   small GEMM per fibre (`O(|X|·F)` flops, `O(F)` scratch) — the order-3
//!   leaf specialisation of the contraction tree. A serial ALS sweep runs
//!   its modes 0 and 1 as one pass over the block that shares those
//!   fibre products (`mttkrp_dense3_pair`);
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
use tpcp_linalg::solve::GramSolveScratch;
use tpcp_linalg::{Kernel, KernelKind, Mat, TiledKernel};
use tpcp_par::{fixed_chunk_size, par_chunks_mut_scratch, par_chunks_reduce_scratch, ParConfig};
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
/// `par` by the tiled backend.
///
/// Order 3 runs the fused per-fibre kernel
/// ([`Kernel::mttkrp_tile`]/[`Kernel::mttkrp_scatter`]); every other order
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
    mttkrp_dense_on(x, factors, mode, par, &TiledKernel)
}

/// [`mttkrp_dense`] on a named backend. The backends are bit-identical
/// (see `tpcp_linalg::kernel`), so `kind` trades speed only.
///
/// # Errors
/// [`CpError::BadFactors`] on shape inconsistencies.
pub fn mttkrp_dense_kernel(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
    kind: KernelKind,
) -> Result<Mat> {
    mttkrp_dense_on(x, factors, mode, par, kind.resolve())
}

fn mttkrp_dense_on(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    par: &ParConfig,
    kernel: &dyn Kernel,
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
            Ok(mttkrp_dense3(x, factors, mode, f, &par, kernel))
        }
        _ => DimTree::new(x.dims(), f)
            .expect("order >= 2 at a positive rank")
            .mttkrp_on(x, factors, mode, par, kernel),
    }
}

/// Specialised 3-mode path: iterate `(i, j)` pairs, treating the contiguous
/// mode-2 fibre `X[i, j, :]` as a vector. Parallelism blocks the *output*
/// mode: each worker owns a band of output rows and accumulates them in the
/// same order as the serial sweep, so results are bit-identical for any
/// thread count.
fn mttkrp_dense3(
    x: &DenseTensor,
    factors: &[&Mat],
    mode: usize,
    f: usize,
    par: &ParConfig,
    kernel: &dyn Kernel,
) -> Mat {
    let dims = x.dims();
    let (di, dj, dk) = (dims[0], dims[1], dims[2]);
    let mut out = Mat::zeros(dims[mode], f);
    if f == 0 || out.is_empty() {
        return out;
    }
    let data = x.as_slice();
    let chunk_rows = dims[mode]
        .div_ceil(par.threads().min(dims[mode]).max(1))
        .max(1);
    match mode {
        0 => {
            // M[i] += (X[i,j,:] · C) ⊛ B[j]
            let c = factors[2].as_slice();
            par_chunks_mut_scratch(
                par,
                out.as_mut_slice(),
                chunk_rows * f,
                || vec![0.0f64; f],
                |chunk_idx, chunk, scratch| {
                    let i0 = chunk_idx * chunk_rows;
                    for (local, out_row) in chunk.chunks_mut(f).enumerate() {
                        let i = i0 + local;
                        for j in 0..dj {
                            let fibre = &data[(i * dj + j) * dk..(i * dj + j + 1) * dk];
                            let b_row = factors[1].row(j);
                            kernel.mttkrp_tile(fibre, c, f, b_row, out_row, scratch);
                        }
                    }
                },
            );
        }
        1 => {
            // M[j] += (X[i,j,:] · C) ⊛ A[i]; each worker owns a j-band and
            // sweeps i in ascending order (the serial accumulation order).
            let c = factors[2].as_slice();
            par_chunks_mut_scratch(
                par,
                out.as_mut_slice(),
                chunk_rows * f,
                || vec![0.0f64; f],
                |chunk_idx, chunk, scratch| {
                    let j0 = chunk_idx * chunk_rows;
                    let band = chunk.len() / f;
                    for i in 0..di {
                        let a_row = factors[0].row(i);
                        for local in 0..band {
                            let j = j0 + local;
                            let fibre = &data[(i * dj + j) * dk..(i * dj + j + 1) * dk];
                            let out_row = &mut chunk[local * f..(local + 1) * f];
                            kernel.mttkrp_tile(fibre, c, f, a_row, out_row, scratch);
                        }
                    }
                },
            );
        }
        _ => {
            // M[k] += X[i,j,k] · (A[i] ⊛ B[j]); each worker owns a k-band
            // and reads only its slice of every fibre, sweeping (i, j) in
            // ascending order (the serial accumulation order).
            par_chunks_mut_scratch(
                par,
                out.as_mut_slice(),
                chunk_rows * f,
                || vec![0.0f64; f],
                |chunk_idx, chunk, scratch| {
                    let k0 = chunk_idx * chunk_rows;
                    let band = chunk.len() / f;
                    for i in 0..di {
                        let a_row = factors[0].row(i);
                        for j in 0..dj {
                            let b_row = factors[1].row(j);
                            for ((s, &a), &b) in scratch.iter_mut().zip(a_row).zip(b_row) {
                                *s = a * b;
                            }
                            let base = (i * dj + j) * dk + k0;
                            let fibre = &data[base..base + band];
                            kernel.mttkrp_scatter(fibre, scratch, f, chunk);
                        }
                    }
                },
            );
        }
    }
    out
}

/// Whether an ALS sweep on `x` at rank `f` runs modes 0 and 1 as one
/// [`mttkrp_dense3_pair`] pass: at order 3, exactly when
/// [`mttkrp_dense`] would run those modes on one thread. The pass visits
/// the mode-0 rows in order, so a budget that bands them keeps the
/// per-mode sweeps; both are bitwise the same.
pub(crate) fn dense3_pair_applies(x: &DenseTensor, f: usize, par: &ParConfig) -> bool {
    x.order() == 3 && !x.is_empty() && par.clamped(x.len() * f, PAR_MIN_WORK).is_serial()
}

/// Modes 0 and 1 of a serial order-3 ALS sweep in one pass over `x`.
///
/// Returns `(A, M1)`: the mode-0 factor `A = M0 · V0⁻¹`, solved from the
/// mode-0 MTTKRP `M0`, and the mode-1 MTTKRP `M1` against that new `A`.
/// The two MTTKRPs share the fibre products `S_ij = X[i, j, :] · C`,
/// since `C` does not change between the two solves, so the block is
/// read once for both modes. For each `i`, ascending:
///
/// 1. `mttkrp_tile` adds `M0[i] += S_ij ⊛ B[j]`, `j` ascending, and
///    leaves each `S_ij` in a `J × F` row buffer;
/// 2. `M0[i]` is solved in place into `A[i]` against the one Cholesky
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
/// Unless `x` is order 3 and `v0` has `F` rows ([`dense3_pair_applies`]
/// and the ALS loop hold both).
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
    assert_eq!(v0.rows(), f, "V0 is F×F");
    let mut solver = GramSolveScratch::default();
    solver.factor(v0, ridge)?;
    let mut a = Mat::zeros(di, f);
    let mut m1 = Mat::zeros(dj, f);
    let mut s_rows = vec![0.0f64; dj * f];
    let (b, c) = (factors[1], factors[2].as_slice());
    let data = x.as_slice();
    for (i, a_row) in a.as_mut_slice().chunks_mut(f).enumerate() {
        for (j, s_row) in s_rows.chunks_mut(f).enumerate() {
            let fibre = &data[(i * dj + j) * dk..(i * dj + j + 1) * dk];
            TiledKernel.mttkrp_tile(fibre, c, f, b.row(j), a_row, s_row);
        }
        solver.solve_row(a_row);
        TiledKernel.partial_axpy(&s_rows, a_row, f, m1.as_mut_slice());
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
}
