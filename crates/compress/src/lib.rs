//! Compress-then-decompose: streaming Tucker compression, CP on the small
//! core, expansion, and an exact polish — 2PCP's opt-in fast path for
//! low-multilinear-rank tensors.
//!
//! The pipeline (Zhou/Cichocki-style "CP via Tucker compression"):
//!
//! 1. **Streaming mode sketches** — one pass per mode accumulates the
//!    mode-`n` Gram `G_n = X_(n)·X_(n)ᵀ` slab-panel by slab-panel
//!    (the `stream` module), or — with `oversample > 0` — a *single* pass computes
//!    Khatri-Rao-structured Gaussian range sketches `Y_n = X_(n)·Ω_n` for
//!    every mode at once. Neither materialises an unfolding.
//! 2. **Basis extraction** — per-mode orthonormal `U_n ∈ R^{I_n×R_n}` via
//!    symmetric Jacobi eigendecomposition of `G_n`
//!    ([`tpcp_linalg::solve::sym_eig`]) on the exact path, or CholeskyQR2
//!    ([`Mat::orthonormalize`]) plus subspace iterations on the sketched
//!    path. `R_n` comes from an energy threshold and/or per-mode caps.
//! 3. **Core contraction** — a second streaming pass contracts `X` against
//!    all `U_n` into the dense core `C` (sequential TTM chain per block, so
//!    later modes contract an already-shrunk partial — the dimension-tree
//!    reuse idea applied to the multi-TTM).
//! 4. **CP on the core + expansion** — [`tpcp_cp::cp_als_dense`]
//!    (on the contraction tree for an order ≥ 4 core) factorises `C`;
//!    factors expand as `A_n = U_n · Â_n`; a short exact ALS polish over
//!    the original tensor then absorbs the compression error.
//!
//! Everything runs on the deterministic tiled kernels with serial
//! fixed-order accumulation, so the whole pipeline is bitwise reproducible
//! across runs and thread budgets. See `docs/compress.md`
//! for the accuracy contract and when *not* to use this path.

#![forbid(unsafe_code)]

mod basis;
mod stream;

pub use basis::{choose_rank, take_columns, truncate_basis, ModeBasis};
pub use tpcp_cp::{validate_compress_options, CompressOptions, CompressOptionsBuilder};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use stream::Stream;
use tpcp_cp::{cp_als_dense, AlsOptions, AlsReport, CpError, CpModel};
use tpcp_linalg::solve::sym_eig;
use tpcp_linalg::Mat;
use tpcp_partition::{BlockSource, Grid, SourceError};

/// Errors surfaced by the compression pipeline.
#[derive(Debug)]
pub enum CompressError {
    /// Error from the CP/linalg/tensor layers.
    Cp(CpError),
    /// Error loading blocks from the ingest source.
    Source(SourceError),
    /// The input or option combination is outside what compression supports.
    Unsupported {
        /// Human-readable description of the unsupported case.
        reason: String,
    },
}

impl std::fmt::Display for CompressError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompressError::Cp(e) => write!(f, "compress: {e}"),
            CompressError::Source(e) => write!(f, "compress ingest: {e}"),
            CompressError::Unsupported { reason } => write!(f, "compress unsupported: {reason}"),
        }
    }
}

impl std::error::Error for CompressError {}

impl From<CpError> for CompressError {
    fn from(e: CpError) -> Self {
        CompressError::Cp(e)
    }
}

impl From<SourceError> for CompressError {
    fn from(e: SourceError) -> Self {
        CompressError::Source(e)
    }
}

/// Result alias for compression routines.
pub type Result<T> = std::result::Result<T, CompressError>;

/// How a served model was compressed — recorded in `ModelMeta` so model
/// artifacts stay attributable to the pipeline that produced them.
#[derive(Clone, Debug, PartialEq)]
pub struct CompressProvenance {
    /// Requested per-mode rank caps (empty when ranks were chosen purely by
    /// the energy threshold).
    pub mlrank: Vec<usize>,
    /// Fraction of `‖X‖²` retained by the Tucker truncation (the HOSVD
    /// bound: `‖X − X̂‖² ≤ Σ_n discarded_n`), clamped to `[0, 1]`.
    pub energy: f64,
    /// Shape of the compressed core the CP factors were extracted from.
    pub core_shape: Vec<usize>,
}

/// Everything `compress_decompose` produces, in driver-consumable form.
#[derive(Debug)]
pub struct CompressOutcome {
    /// The final CP model over the *original* index space (normalised).
    pub model: CpModel,
    /// Compression provenance for `ModelMeta`.
    pub provenance: CompressProvenance,
    /// The ALS report from the core factorisation (its `final_fit` is the
    /// fit *on the core*, not on `X` — report true fit via
    /// `blockwise_fit_source` or [`CpModel::fit_dense`]).
    pub core_report: AlsReport,
    /// Per-block `‖X_b‖²`, collected during the first streaming pass (lets
    /// the driver skip a dedicated norm pass).
    pub block_norms_sq: Vec<f64>,
    /// Total `‖X‖²`.
    pub norm_x_sq: f64,
    /// Number of full streaming sweeps over the block source.
    pub passes: usize,
    /// The most tensor bytes the passes held at once: a slab panel plus
    /// one block (unfolded straight into the panel) on a Gram or power
    /// pass, a block and its unfolding on the others.
    pub peak_tensor_bytes: u64,
}

/// Gaussian-ish test matrix (`rows × cols`): Irwin-Hall entries (sum of four
/// uniforms, centred) from the workspace's deterministic `StdRng`.
fn gaussian_sketch(rows: usize, cols: usize, rng: &mut StdRng) -> Mat {
    let mut m = Mat::zeros(rows, cols);
    for r in 0..rows {
        for v in m.row_mut(r) {
            let s: f64 = (0..4).map(|_| rng.random::<f64>()).sum();
            *v = s - 2.0;
        }
    }
    m
}

/// Per-mode truncated bases plus energy bookkeeping.
struct Bases {
    us: Vec<Mat>,
    discarded_total: f64,
    block_norms_sq: Vec<f64>,
    norm_x_sq: f64,
    passes: usize,
}

/// Exact path: one Gram pass per mode, Jacobi eigendecomposition, energy
/// truncation. `trace(G_n) = ‖X‖²` for every mode, so the threshold is
/// taken against the true total energy.
fn exact_bases(s: &mut Stream, copts: &CompressOptions) -> Result<Bases> {
    let grid = s.grid;
    let order = grid.order();
    let mut block_norms_sq = vec![0.0; grid.num_blocks()];
    let mut us = Vec::with_capacity(order);
    let mut discarded_total = 0.0;
    let mut norm_x_sq = 0.0;
    for n in 0..order {
        let g = if n == 0 {
            let norms = &mut block_norms_sq;
            let g = stream::mode_gram(s, n, |lin, t| {
                norms[lin] = t.fro_norm_sq();
            })?;
            norm_x_sq = block_norms_sq.iter().sum();
            g
        } else {
            stream::mode_gram(s, n, |_, _| {})?
        };
        let (eigenvalues, vectors) = sym_eig(&g).map_err(CpError::from)?;
        let cap = copts
            .mlrank
            .as_ref()
            .map(|v| v[n])
            .unwrap_or_else(|| grid.dims()[n]);
        let (_, split, u) = truncate_basis(&eigenvalues, &vectors, copts.energy, cap, norm_x_sq);
        discarded_total += split[1];
        us.push(u);
    }
    Ok(Bases {
        us,
        discarded_total,
        block_norms_sq,
        norm_x_sq,
        passes: order,
    })
}

/// Sketched path: one combined range-sketch pass, CholeskyQR2
/// orthonormalisation, `power_iters` subspace iterations per mode, then a
/// projected Gram whose spectrum drives the truncation. Requires explicit
/// per-mode caps (`validate_compress_options` enforces this).
fn sketched_bases(s: &mut Stream, copts: &CompressOptions, seed: u64) -> Result<Bases> {
    let grid = s.grid;
    let order = grid.order();
    let caps = copts
        .mlrank
        .as_ref()
        .expect("validated: sketch path requires mlrank caps");
    let widths: Vec<usize> = (0..order)
        .map(|n| (caps[n] + copts.oversample).min(grid.dims()[n]))
        .collect();
    // Independent test matrices per (target mode, contracted mode) pair,
    // seeded off the ALS seed so the whole pipeline stays reproducible.
    let omegas: Vec<Vec<Option<Mat>>> = (0..order)
        .map(|n| {
            let seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(n as u64 + 1));
            let mut rng = StdRng::seed_from_u64(seed);
            (0..order)
                .map(|m| {
                    if m == n {
                        None
                    } else {
                        Some(gaussian_sketch(grid.dims()[m], widths[n], &mut rng))
                    }
                })
                .collect()
        })
        .collect();
    let mut block_norms_sq = vec![0.0; grid.num_blocks()];
    let mut ys = stream::sketch_pass(s, &omegas, &widths, &mut block_norms_sq)?;
    let norm_x_sq: f64 = block_norms_sq.iter().sum();
    let mut passes = 1;
    let mut us = Vec::with_capacity(order);
    let mut discarded_total = 0.0;
    for n in 0..order {
        let mut q = ys[n].orthonormalize().map_err(CpError::from)?;
        for _ in 0..copts.power_iters {
            let z = stream::power_pass(s, n, &q)?;
            q = z.orthonormalize().map_err(CpError::from)?;
            passes += 1;
        }
        let projected = stream::projected_gram(s, n, &q)?;
        passes += 1;
        let (eigenvalues, vectors) = sym_eig(&projected).map_err(CpError::from)?;
        // Threshold against the *true* ‖X‖² (≥ Σ captured eigenvalues), so
        // the sketched rank choice is conservative.
        let r = choose_rank(&eigenvalues, copts.energy, caps[n], norm_x_sq);
        let retained: f64 = eigenvalues[..r].iter().map(|l| l.max(0.0)).sum();
        discarded_total += (norm_x_sq - retained).max(0.0);
        let u = q
            .matmul_kernel(&take_columns(&vectors, r), &s.par)
            .map_err(CpError::from)?;
        us.push(u);
        ys[n] = Mat::zeros(0, 0); // drop the sketch eagerly
    }
    Ok(Bases {
        us,
        discarded_total,
        block_norms_sq,
        norm_x_sq,
        passes,
    })
}

/// Runs the full compress → CP → expand → polish pipeline over a block
/// source.
///
/// `copts` shapes the compression; the [`AlsOptions`] (rank, tolerances,
/// seed, thread budget) govern the core factorisation and the polish
/// sweeps exactly as they would the uncompressed path.
///
/// # Errors
/// Invalid compress options, an order below 2, source failures
/// (non-finite cells included) and numerical failures.
pub fn compress_decompose(
    src: &mut dyn BlockSource,
    grid: &Grid,
    options: &AlsOptions,
    copts: &CompressOptions,
) -> Result<CompressOutcome> {
    validate_compress_options(copts)?;
    let order = grid.order();
    if order < 2 {
        return Err(CompressError::Unsupported {
            reason: format!("compression needs order >= 2, got {order}"),
        });
    }
    if let Some(mlrank) = &copts.mlrank {
        if mlrank.len() != order {
            return Err(CompressError::Cp(CpError::BadOptions {
                reason: format!(
                    "mlrank has {} entries but the tensor has {} modes",
                    mlrank.len(),
                    order
                ),
            }));
        }
        for (n, (&cap, &dim)) in mlrank.iter().zip(grid.dims()).enumerate() {
            if cap > dim {
                return Err(CompressError::Cp(CpError::BadOptions {
                    reason: format!("mlrank[{n}] = {cap} exceeds mode dimension {dim}"),
                }));
            }
        }
    }

    let mut s = Stream {
        src,
        grid,
        par: options.par,
        peak_bytes: 0,
    };
    let bases = if copts.oversample == 0 {
        exact_bases(&mut s, copts)?
    } else {
        sketched_bases(&mut s, copts, options.seed)?
    };
    let Bases {
        us,
        discarded_total,
        block_norms_sq,
        norm_x_sq,
        mut passes,
    } = bases;

    let core = stream::contract_core(&mut s, &us)?;
    passes += 1;

    let mut core_opts = options.clone();
    core_opts.init = None;
    // The core's modes are at most `rank` wide on low-mlrank data, so cap
    // nothing else; the caller's rank/tol/seed apply unchanged.
    let core_report = cp_als_dense(&core, &core_opts)?;

    // Expand: A_n = U_n · Â_n. U_n has orthonormal columns, so the expanded
    // columns keep the core factors' unit norms and the weights carry over.
    let mut factors = Vec::with_capacity(order);
    for (u, a_hat) in us.iter().zip(&core_report.model.factors) {
        factors.push(
            u.matmul_kernel(a_hat, &options.par)
                .map_err(CpError::from)?,
        );
    }
    let mut weights = core_report.model.weights.clone();

    if copts.refine_iters > 0 {
        // Fold λ into mode 0 so the polish solves for the raw factors.
        factors[0].scale_columns(&weights);
        for _ in 0..copts.refine_iters {
            for mode in 0..order {
                stream::refine_mode(&mut s, &mut factors, mode, options.ridge)?;
                passes += 1;
            }
        }
        weights = vec![1.0; options.rank];
    }
    let mut model = CpModel::new(weights, factors)?;
    model.normalize();

    let energy = if norm_x_sq > 0.0 {
        (1.0 - discarded_total / norm_x_sq).clamp(0.0, 1.0)
    } else {
        1.0
    };
    let provenance = CompressProvenance {
        mlrank: copts.mlrank.clone().unwrap_or_default(),
        energy,
        core_shape: core.dims().to_vec(),
    };
    Ok(CompressOutcome {
        model,
        provenance,
        core_report,
        block_norms_sq,
        norm_x_sq,
        passes,
        peak_tensor_bytes: s.peak_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpcp_partition::DenseMemorySource;
    use tpcp_tensor::{random_factor, DenseTensor};

    fn low_mlrank_tensor(dims: &[usize], ranks: &[usize], seed: u64) -> DenseTensor {
        // CP-structured synthetic (rank F = min(ranks)): multilinear rank is
        // at most F in every mode AND a rank-F CP model fits it exactly, so
        // both the compression and the core factorisation can recover it.
        let f = ranks.iter().copied().min().unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        let model = CpModel::new(vec![1.0; f], factors).unwrap();
        model.reconstruct_dense()
    }

    fn options(rank: usize) -> AlsOptions {
        AlsOptions::builder()
            .rank(rank)
            .max_iters(60)
            .tol(1e-9)
            .seed(7)
            .build()
            .unwrap()
    }

    /// The pipeline over a one-block grid of `x`.
    fn single_block(
        x: &DenseTensor,
        opts: &AlsOptions,
        copts: &CompressOptions,
    ) -> Result<CompressOutcome> {
        let grid = Grid::uniform(x.dims(), 1);
        compress_decompose(&mut DenseMemorySource::new(x), &grid, opts, copts)
    }

    #[test]
    fn exact_path_recovers_low_mlrank_tensor() {
        let x = low_mlrank_tensor(&[12, 10, 8], &[3, 3, 3], 11);
        let out = single_block(&x, &options(3), &CompressOptions::default()).unwrap();
        let fit = out.model.fit_dense(&x).unwrap();
        assert!(fit > 0.99, "fit {fit}");
        assert_eq!(out.provenance.core_shape, vec![3, 3, 3]);
        assert!(out.provenance.energy > 0.999);
        assert!((out.norm_x_sq - x.fro_norm_sq()).abs() < 1e-9 * x.fro_norm_sq());
    }

    #[test]
    fn sketched_path_recovers_with_caps() {
        let x = low_mlrank_tensor(&[12, 10, 8], &[3, 3, 3], 13);
        let copts = CompressOptions::builder()
            .mlrank(vec![3, 3, 3])
            .oversample(4)
            .power_iters(2)
            .build()
            .unwrap();
        let out = single_block(&x, &options(3), &copts).unwrap();
        let fit = out.model.fit_dense(&x).unwrap();
        assert!(fit > 0.99, "fit {fit}");
        assert_eq!(out.provenance.mlrank, vec![3, 3, 3]);
    }

    #[test]
    fn blocked_grid_matches_single_block() {
        let x = low_mlrank_tensor(&[12, 10, 8], &[2, 2, 2], 17);
        let (opts, copts) = (options(2), CompressOptions::default());
        let single = single_block(&x, &opts, &copts).unwrap();
        let grid = Grid::uniform(x.dims(), 2);
        let mut src = DenseMemorySource::new(&x);
        let blocked = compress_decompose(&mut src, &grid, &opts, &copts).unwrap();
        // Same Grams (different summation grouping ⇒ tolerance, not bits):
        // the models must describe the same tensor.
        let fs = single.model.fit_dense(&x).unwrap();
        let fb = blocked.model.fit_dense(&x).unwrap();
        assert!((fs - fb).abs() < 1e-6, "single {fs} vs blocked {fb}");
        assert_eq!(blocked.block_norms_sq.len(), grid.num_blocks());
        let bn: f64 = blocked.block_norms_sq.iter().sum();
        assert!((bn - x.fro_norm_sq()).abs() < 1e-9 * x.fro_norm_sq());
    }

    #[test]
    fn pipeline_is_bitwise_repeatable() {
        let x = low_mlrank_tensor(&[9, 8, 7], &[3, 2, 2], 23);
        let (opts, copts) = (options(3), CompressOptions::default());
        let a = single_block(&x, &opts, &copts).unwrap();
        let b = single_block(&x, &opts, &copts).unwrap();
        for (fa, fb) in a.model.factors.iter().zip(&b.model.factors) {
            for r in 0..fa.rows() {
                for (va, vb) in fa.row(r).iter().zip(fb.row(r)) {
                    assert_eq!(va.to_bits(), vb.to_bits());
                }
            }
        }
        assert_eq!(a.model.weights, b.model.weights);
        assert_eq!(a.passes, b.passes);
    }

    #[test]
    fn mlrank_length_mismatch_is_an_error() {
        let x = low_mlrank_tensor(&[6, 6, 6], &[2, 2, 2], 5);
        let copts = CompressOptions::builder()
            .mlrank(vec![2, 2])
            .build()
            .unwrap();
        let err = single_block(&x, &options(2), &copts).unwrap_err();
        assert!(matches!(err, CompressError::Cp(CpError::BadOptions { .. })));
    }

    #[test]
    fn mlrank_cap_above_dim_is_an_error() {
        let x = low_mlrank_tensor(&[6, 6, 6], &[2, 2, 2], 5);
        let copts = CompressOptions::builder()
            .mlrank(vec![2, 2, 9])
            .build()
            .unwrap();
        let err = single_block(&x, &options(2), &copts).unwrap_err();
        assert!(matches!(err, CompressError::Cp(CpError::BadOptions { .. })));
    }

    #[test]
    fn refine_zero_skips_polish_passes() {
        let x = low_mlrank_tensor(&[8, 8, 8], &[2, 2, 2], 31);
        let copts = CompressOptions::builder().refine_iters(0).build().unwrap();
        let out = single_block(&x, &options(2), &copts).unwrap();
        // order passes (grams) + 1 (core contraction), no polish.
        assert_eq!(out.passes, 4);
        assert!(out.model.fit_dense(&x).unwrap() > 0.98);
    }

    /// The peak is what the Gram passes hold: over every mode `n` and
    /// block, the mode-`n` slab panel and the block, which unfolds
    /// straight into the panel, on a grid whose blocks differ in size. It
    /// exceeds the largest block and its unfolding, what the other passes
    /// hold.
    #[test]
    fn peak_tensor_bytes_is_the_largest_panel_plus_a_block() {
        let dims = [9usize, 7, 5];
        let x = low_mlrank_tensor(&dims, &[2, 2, 2], 41);
        let grid = Grid::new(&dims, &[2, 3, 2]);
        let mut src = DenseMemorySource::new(&x);
        let out =
            compress_decompose(&mut src, &grid, &options(2), &CompressOptions::default()).unwrap();
        let mut expected = 0usize;
        let mut largest_block = 0usize;
        for lin in 0..grid.num_blocks() {
            let bdims = grid.block_dims(&grid.block_coords(lin));
            let block: usize = bdims.iter().product();
            largest_block = largest_block.max(block);
            for (n, &d) in bdims.iter().enumerate() {
                let panel = dims[n] * (block / d);
                expected = expected.max(panel + block);
            }
        }
        assert_eq!(out.peak_tensor_bytes, (expected * 8) as u64);
        assert!(out.peak_tensor_bytes > (2 * largest_block * 8) as u64);
    }
}
