//! Exact decomposition-accuracy evaluation (paper §III-B).
//!
//! `accuracy(X, X̃) = 1 − ‖X̃ − X‖ / ‖X‖`. The surrogate fit used for
//! Phase-2 stopping (computed by [`refine`](crate::refine) from its `P`/`Q`
//! caches) measures agreement with the Phase-1 reconstruction; the fit
//! here measures agreement with the *original* tensor, which is what the
//! paper's accuracy figures (Figure 13) report. It re-streams the input
//! blockwise through the same block loop as Phase 1 and sums per-block
//! terms in ascending block order, so every way into the engine, a
//! resident tensor included, gets the same value.

use crate::stream::stream_blocks;
use crate::Result;
use tpcp_cp::CpModel;
use tpcp_linalg::Mat;
use tpcp_par::ParConfig;
use tpcp_partition::{Block, BlockSource, Grid};
use tpcp_tensor::{DenseTensor, SparseTensor};

/// The sub-model of `model` restricted to one grid block: each factor is
/// sliced to the block's row range (paper eq. 2 —
/// `X_k ≈ I ×₁ A(1)(k₁) … ×_N A(N)(k_N)`).
pub fn block_sub_model(model: &CpModel, grid: &Grid, block: usize) -> CpModel {
    let coords = grid.block_coords(block);
    let factors: Vec<Mat> = model
        .factors
        .iter()
        .enumerate()
        .map(|(mode, f)| {
            let range = grid.part_range(mode, coords[mode]);
            f.row_block(range.start, range.end - range.start)
        })
        .collect();
    CpModel {
        weights: model.weights.clone(),
        factors,
    }
}

/// One block's terms of the blockwise fit:
/// `(‖X_k‖², ⟨X_k, X̂_k⟩, ‖X̂_k‖²)`.
type BlockTerms = (f64, f64, f64);

/// The terms of dense block `lin`. `⟨X_k, X̂_k⟩` comes off the last mode's
/// MTTKRP of the block against the sliced factors
/// ([`CpModel::inner_dense_kernel`]); `norm_sq` is `‖X_k‖²` when the
/// caller already has it.
fn dense_terms(
    model: &CpModel,
    grid: &Grid,
    lin: usize,
    block: &DenseTensor,
    norm_sq: Option<f64>,
    par: &ParConfig,
) -> Result<BlockTerms> {
    let sub = block_sub_model(model, grid, lin);
    let inner = sub.inner_dense_kernel(block, par)?;
    let b_sq = norm_sq.unwrap_or_else(|| block.fro_norm_sq());
    Ok((b_sq, inner, sub.norm_sq()))
}

/// The terms of sparse block `lin`.
fn sparse_terms(
    model: &CpModel,
    grid: &Grid,
    lin: usize,
    block: &SparseTensor,
    norm_sq: Option<f64>,
) -> Result<BlockTerms> {
    let sub = block_sub_model(model, grid, lin);
    let inner = sub.inner_sparse(block)?;
    let b_sq = norm_sq.unwrap_or_else(|| block.fro_norm_sq());
    Ok((b_sq, inner, sub.norm_sq()))
}

/// Accumulator for the blockwise exact fit. Terms are pushed in ascending
/// block order, which is what makes the value independent of how many
/// workers produced them.
#[derive(Default)]
struct FitAcc {
    err_sq: f64,
    x_sq: f64,
}

impl FitAcc {
    fn push(&mut self, (b_sq, inner, m_sq): BlockTerms) {
        self.err_sq += (b_sq - 2.0 * inner + m_sq).max(0.0);
        self.x_sq += b_sq;
    }

    fn fit(self) -> f64 {
        if self.x_sq <= 0.0 {
            return if self.err_sq <= 1e-30 {
                1.0
            } else {
                f64::NEG_INFINITY
            };
        }
        1.0 - (self.err_sq.sqrt() / self.x_sq.sqrt())
    }
}

/// Exact fit computed by re-streaming the ingest source blockwise on the
/// automatic thread budget — one batch of blocks is resident at a time, so
/// the accuracy pass obeys the same memory bound as streaming Phase 1.
///
/// # Errors
/// Source failures and shape mismatches between model slices and blocks.
pub fn blockwise_fit_source(
    model: &CpModel,
    grid: &Grid,
    src: &mut dyn BlockSource,
) -> Result<f64> {
    blockwise_fit_stream(model, grid, src, None, &ParConfig::auto())
}

/// [`blockwise_fit_source`] with the driver's plumbing: the block terms
/// are computed on `par`'s workers exactly as Phase 1 decomposes the
/// blocks — same residency bound
/// ([`crate::Phase1Result::peak_block_bytes`]), kernels serial inside a
/// worker — and `‖X_k‖²` is taken from `block_norms_sq` (Phase 1 measured
/// it) instead of walking the block again. Terms are summed in ascending
/// block order, so the value is bitwise the same for any thread budget
/// and with or without the norms supplied.
///
/// # Errors
/// Source failures and shape mismatches between model slices and blocks.
pub(crate) fn blockwise_fit_stream(
    model: &CpModel,
    grid: &Grid,
    src: &mut dyn BlockSource,
    block_norms_sq: Option<&[f64]>,
    par: &ParConfig,
) -> Result<f64> {
    debug_assert!(block_norms_sq.is_none_or(|n| n.len() == grid.num_blocks()));
    let serial = ParConfig::serial();
    let mut acc = FitAcc::default();
    stream_blocks(
        src,
        grid,
        par,
        |lin, block| {
            let norm_sq = block_norms_sq.map(|n| n[lin]);
            match block {
                Block::Dense(b) => dense_terms(model, grid, lin, b, norm_sq, &serial),
                Block::Sparse(b) => sparse_terms(model, grid, lin, b, norm_sq),
            }
        },
        |terms| acc.push(terms),
    )?;
    Ok(acc.fit())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use tpcp_partition::{split_dense, DenseMemorySource, SourceResult, SparseMemorySource};
    use tpcp_tensor::random_factor;

    fn model_and_tensor(dims: &[usize], f: usize, seed: u64) -> (CpModel, DenseTensor) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        let model = CpModel::new(vec![1.0; f], factors).unwrap();
        let t = model.reconstruct_dense();
        (model, t)
    }

    /// A tensor the model does *not* fit exactly. At an exact fit the
    /// error `‖X‖² − 2⟨X, X̂⟩ + ‖X̂‖²` is pure cancellation noise and the
    /// fit resolves only to `√ε`; two summation orders (dense MTTKRP vs
    /// the sparse per-non-zero walk) are comparable to 1e-9 away from it.
    fn model_and_noisy_tensor(dims: &[usize], f: usize, seed: u64) -> (CpModel, DenseTensor) {
        let (model, mut x) = model_and_tensor(dims, f, seed);
        for v in x.as_mut_slice().iter_mut().step_by(3) {
            *v += 0.5;
        }
        (model, x)
    }

    #[test]
    fn blockwise_fit_matches_global_fit() {
        let (model, x) = model_and_tensor(&[8, 6, 4], 3, 2);
        let grid = Grid::new(x.dims(), &[2, 3, 2]);
        let global = model.fit_dense(&x).unwrap();
        let blockwise =
            blockwise_fit_source(&model, &grid, &mut DenseMemorySource::new(&x)).unwrap();
        assert!((global - blockwise).abs() < 1e-6, "{global} vs {blockwise}");
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn block_sub_model_reconstructs_the_block() {
        let (model, x) = model_and_tensor(&[6, 6], 2, 5);
        let grid = Grid::uniform(x.dims(), 2);
        let blocks = split_dense(&x, &grid);
        for lin in 0..grid.num_blocks() {
            let sub = block_sub_model(&model, &grid, lin);
            let recon = sub.reconstruct_dense();
            for (a, b) in recon.as_slice().iter().zip(blocks[lin].as_slice()) {
                assert!((a - b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn imperfect_model_fits_below_one() {
        let (model, x) = model_and_noisy_tensor(&[6, 6, 6], 2, 9);
        let grid = Grid::uniform(x.dims(), 2);
        let fit = blockwise_fit_source(&model, &grid, &mut DenseMemorySource::new(&x)).unwrap();
        assert!(fit < 0.999);
        assert!(fit > 0.0);
    }

    #[test]
    fn sparse_source_fit_agrees_with_the_dense_one_and_the_whole_tensor_fit() {
        let (model, x) = model_and_noisy_tensor(&[8, 6, 4], 3, 4);
        let grid = Grid::new(x.dims(), &[2, 3, 2]);
        let dense = blockwise_fit_source(&model, &grid, &mut DenseMemorySource::new(&x)).unwrap();
        let sp = SparseTensor::from_dense(&x, 0.0);
        let sparse =
            blockwise_fit_source(&model, &grid, &mut SparseMemorySource::new(&sp)).unwrap();
        // Two summation orders: equal to rounding.
        assert!((dense - sparse).abs() < 1e-9, "{dense} vs {sparse}");
        let whole = model.fit_dense(&x).unwrap();
        assert!((dense - whole).abs() < 1e-9, "{dense} vs {whole}");
    }

    /// Yields every other block of a dense tensor in COO form, so one
    /// pass mixes the dense and the sparse terms.
    struct MixedSource<'a>(tpcp_partition::DenseMemorySource<'a>);

    impl BlockSource for MixedSource<'_> {
        fn dims(&self) -> &[usize] {
            self.0.dims()
        }
        fn load_block(&mut self, grid: &Grid, lin: usize) -> SourceResult<Block> {
            let block = self.0.load_block(grid, lin)?;
            Ok(match block {
                Block::Dense(t) if lin % 2 == 1 => Block::Sparse(SparseTensor::from_dense(&t, 0.0)),
                other => other,
            })
        }
        fn bytes_loaded(&self) -> u64 {
            self.0.bytes_loaded()
        }
    }

    /// The fit pass as it was before it rode on the MTTKRP: every block's
    /// inner product by a walk over its elements against the sub-model's
    /// reconstruction.
    fn per_element_fit(model: &CpModel, grid: &Grid, x: &DenseTensor) -> f64 {
        let mut acc = FitAcc::default();
        for (lin, block) in split_dense(x, grid).iter().enumerate() {
            let sub = block_sub_model(model, grid, lin);
            let recon = sub.reconstruct_dense();
            let inner: f64 = block
                .as_slice()
                .iter()
                .zip(recon.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            acc.push((block.fro_norm_sq(), inner, sub.norm_sq()));
        }
        acc.fit()
    }

    #[test]
    fn parallel_fit_pass_is_bitwise_the_serial_one_and_tracks_the_element_walk() {
        for (dims, parts) in [
            (vec![9usize, 7, 8], vec![2usize, 3, 2]),
            (vec![6, 5, 4, 5], vec![2, 2, 1, 3]),
            (vec![4, 3, 4, 3, 4], vec![2, 1, 2, 1, 2]),
        ] {
            let (model, x) = model_and_noisy_tensor(&dims, 3, 7);
            let grid = Grid::new(&dims, &parts);
            let norms: Vec<f64> = split_dense(&x, &grid)
                .iter()
                .map(DenseTensor::fro_norm_sq)
                .collect();
            let oracle = per_element_fit(&model, &grid, &x);
            assert!(oracle < 0.999, "the model must not fit exactly");

            let mut baseline: Option<u64> = None;
            for threads in [1usize, 2, 4] {
                for norms in [None, Some(&norms[..])] {
                    let par = ParConfig::with_threads(threads);
                    let mut src = MixedSource(DenseMemorySource::new(&x));
                    let fit = blockwise_fit_stream(&model, &grid, &mut src, norms, &par).unwrap();
                    assert!(
                        (fit - oracle).abs() < 1e-9,
                        "dims {dims:?}: {fit} vs per-element {oracle}"
                    );
                    let b = *baseline.get_or_insert(fit.to_bits());
                    assert_eq!(
                        b,
                        fit.to_bits(),
                        "dims {dims:?} t{threads} norms {}",
                        norms.is_some()
                    );
                }
            }
            // The public wrapper is the same pass.
            let mut src = MixedSource(DenseMemorySource::new(&x));
            let public = blockwise_fit_source(&model, &grid, &mut src).unwrap();
            assert_eq!(Some(public.to_bits()), baseline);
        }
    }
}
