//! The alternating-least-squares driver.

use crate::compress::{validate_compress_options, CompressOptions};
use crate::dimtree::DimTree;
use crate::model::fit_from_parts;
use crate::mttkrp::{dense3_pair_applies, mttkrp_dense3_pair};
use crate::{mttkrp_dense, mttkrp_sparse_par, CpError, CpModel, Result};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tpcp_linalg::{solve, Mat};
use tpcp_par::ParConfig;
use tpcp_tensor::{random_factor, DenseTensor, SparseTensor};

/// Options for [`cp_als_dense`] / [`cp_als_sparse`].
#[derive(Clone, Debug)]
pub struct AlsOptions {
    /// Decomposition rank `F`.
    pub rank: usize,
    /// Maximum number of full ALS iterations.
    pub max_iters: usize,
    /// Convergence threshold on the per-iteration fit improvement
    /// (the paper's stand-alone experiments use `10⁻²`).
    pub tol: f64,
    /// Relative ridge added when the normal-equation system is singular
    /// (scaled by `trace(S)/F`).
    pub ridge: f64,
    /// Seed for the random factor initialisation.
    pub seed: u64,
    /// Optional explicit initial factors (overrides `seed`).
    pub init: Option<Vec<Mat>>,
    /// Thread budget for the MTTKRP and Gram kernels. Parallel execution
    /// is deterministic: results are bit-identical for any budget.
    pub par: ParConfig,
    /// Compress-then-decompose knobs carried to the `tpcp-compress` entry
    /// points and the `twopcp` driver. Plain [`cp_als_dense`] /
    /// [`cp_als_sparse`] ignore this field — it is plumbing, not a mode
    /// switch of the per-mode ALS loop itself (see `docs/compress.md`).
    /// The default is `None` (exact path).
    pub compress: Option<CompressOptions>,
}

impl Default for AlsOptions {
    fn default() -> Self {
        AlsOptions {
            rank: 10,
            max_iters: 50,
            tol: 1e-4,
            ridge: 1e-9,
            seed: 0,
            init: None,
            par: ParConfig::auto(),
            compress: None,
        }
    }
}

impl AlsOptions {
    /// Convenience constructor fixing the rank.
    pub fn with_rank(rank: usize) -> Self {
        AlsOptions {
            rank,
            ..Default::default()
        }
    }

    /// A validating builder over [`AlsOptions::default`]'s values.
    pub fn builder() -> AlsOptionsBuilder {
        AlsOptionsBuilder {
            options: AlsOptions::default(),
        }
    }
}

/// Builder for [`AlsOptions`] whose [`build`](AlsOptionsBuilder::build)
/// rejects invalid settings before a run starts.
#[derive(Clone, Debug)]
pub struct AlsOptionsBuilder {
    options: AlsOptions,
}

impl AlsOptionsBuilder {
    /// Sets the decomposition rank `F`.
    pub fn rank(mut self, rank: usize) -> Self {
        self.options.rank = rank;
        self
    }

    /// Sets the full-iteration budget.
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.options.max_iters = max_iters;
        self
    }

    /// Sets the convergence threshold.
    pub fn tol(mut self, tol: f64) -> Self {
        self.options.tol = tol;
        self
    }

    /// Sets the relative ridge.
    pub fn ridge(mut self, ridge: f64) -> Self {
        self.options.ridge = ridge;
        self
    }

    /// Sets the initialisation seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.options.seed = seed;
        self
    }

    /// Provides explicit initial factors (overrides the seed).
    pub fn init(mut self, init: Vec<Mat>) -> Self {
        self.options.init = Some(init);
        self
    }

    /// Sets the kernel thread budget.
    pub fn par(mut self, par: ParConfig) -> Self {
        self.options.par = par;
        self
    }

    /// Attaches compress-then-decompose knobs (validated at
    /// [`build`](AlsOptionsBuilder::build); consumed by the
    /// `tpcp-compress` entry points, ignored by plain ALS).
    pub fn compress(mut self, compress: CompressOptions) -> Self {
        self.options.compress = Some(compress);
        self
    }

    /// Validates and produces the options.
    ///
    /// # Errors
    /// [`CpError::ZeroRank`] on `rank == 0`; [`CpError::BadFactors`] on a
    /// non-finite tolerance/ridge, a negative ridge, or explicit initial
    /// factors whose column count disagrees with the rank.
    pub fn build(self) -> Result<AlsOptions> {
        let o = &self.options;
        if o.rank == 0 {
            return Err(CpError::ZeroRank);
        }
        if !o.tol.is_finite() || !o.ridge.is_finite() || o.ridge < 0.0 {
            return Err(CpError::BadFactors {
                reason: "tol and ridge must be finite and ridge non-negative".into(),
            });
        }
        if let Some(init) = &o.init {
            if let Some((h, m)) = init.iter().enumerate().find(|(_, m)| m.cols() != o.rank) {
                return Err(CpError::BadFactors {
                    reason: format!(
                        "initial factor {h} has {} columns, expected rank {}",
                        m.cols(),
                        o.rank
                    ),
                });
            }
        }
        if let Some(compress) = &o.compress {
            validate_compress_options(compress)?;
        }
        Ok(self.options)
    }
}

/// Outcome of an ALS run: the model plus convergence diagnostics.
#[derive(Clone, Debug)]
pub struct AlsReport {
    /// The fitted model (normalised: unit factor columns, weights in `λ`).
    pub model: CpModel,
    /// Number of full iterations executed.
    pub iterations: usize,
    /// Fit (`1 − relative error`) after the final iteration.
    pub final_fit: f64,
    /// Fit after every iteration, in order.
    pub fit_trace: Vec<f64>,
    /// `true` when the tolerance was met before `max_iters`.
    pub converged: bool,
    /// `‖X‖²` of the input, as every entry of `fit_trace` measured it.
    pub norm_x_sq: f64,
}

/// Dense orders from here up sweep on a [`DimTree`]. Order 3 stays on the
/// per-slab products of `mttkrp_dense3`, the tree's order-3 leaf
/// specialisation. A serial order-3 sweep still takes the tree's saving:
/// modes 0 and 1 share the fibre products `X[i, j, :] · C`, one `J × F`
/// row slab at a time ([`mttkrp_dense3_pair`]), bitwise the per-mode
/// sweeps and with no `I·J × F` arena (see `docs/dimtree.md`). Below
/// order 3 there is no partial product to share.
const TREE_MIN_ORDER: usize = 4;

/// Tensor abstraction letting one ALS loop serve both storage formats.
trait AlsTensor {
    fn dims(&self) -> &[usize];
    fn norm_sq(&self) -> f64;
    /// The contraction tree the sweeps of one decomposition share, for
    /// the formats and orders that have one.
    fn sweep_tree(&self, _rank: usize) -> Option<DimTree> {
        None
    }
    /// Mode-`mode` MTTKRP, answered from `tree` when the sweep has one.
    fn mttkrp(
        &self,
        tree: Option<&mut DimTree>,
        factors: &[&Mat],
        mode: usize,
        par: &ParConfig,
    ) -> Result<Mat>;
    /// Modes 0 and 1 in one pass, for the formats, orders and budgets
    /// that have one: the mode-0 factor solved against the system `v0`,
    /// and the mode-1 MTTKRP against it. `None` runs the modes apart.
    fn mttkrp_pair(
        &self,
        _factors: &[&Mat],
        _v0: &Mat,
        _ridge: f64,
        _par: &ParConfig,
    ) -> Option<Result<(Mat, Mat)>> {
        None
    }
}

impl AlsTensor for DenseTensor {
    fn dims(&self) -> &[usize] {
        DenseTensor::dims(self)
    }
    fn norm_sq(&self) -> f64 {
        self.fro_norm_sq()
    }
    fn sweep_tree(&self, rank: usize) -> Option<DimTree> {
        if self.order() < TREE_MIN_ORDER {
            return None;
        }
        DimTree::new(DenseTensor::dims(self), rank)
    }
    fn mttkrp(
        &self,
        tree: Option<&mut DimTree>,
        factors: &[&Mat],
        mode: usize,
        par: &ParConfig,
    ) -> Result<Mat> {
        match tree {
            Some(tree) => tree.mttkrp(self, factors, mode, par),
            None => mttkrp_dense(self, factors, mode, par),
        }
    }
    fn mttkrp_pair(
        &self,
        factors: &[&Mat],
        v0: &Mat,
        ridge: f64,
        par: &ParConfig,
    ) -> Option<Result<(Mat, Mat)>> {
        let f = factors.first().map_or(0, |m| m.cols());
        dense3_pair_applies(self, f, par).then(|| mttkrp_dense3_pair(self, factors, v0, ridge))
    }
}

impl AlsTensor for SparseTensor {
    fn dims(&self) -> &[usize] {
        SparseTensor::dims(self)
    }
    fn norm_sq(&self) -> f64 {
        self.fro_norm_sq()
    }
    fn mttkrp(
        &self,
        _tree: Option<&mut DimTree>,
        factors: &[&Mat],
        mode: usize,
        par: &ParConfig,
    ) -> Result<Mat> {
        mttkrp_sparse_par(self, factors, mode, par)
    }
}

/// CP-ALS on a dense tensor (the paper's Phase-1 PARAFAC per block, and the
/// "Naive CP" baseline of Table II when applied to the whole tensor).
///
/// # Errors
/// Propagates shape/singularity failures; [`CpError::ZeroRank`] when
/// `options.rank == 0`.
pub fn cp_als_dense(x: &DenseTensor, options: &AlsOptions) -> Result<AlsReport> {
    als_loop(x, options)
}

/// CP-ALS on a sparse (COO) tensor.
///
/// # Errors
/// Propagates shape/singularity failures; [`CpError::ZeroRank`] when
/// `options.rank == 0`.
pub fn cp_als_sparse(x: &SparseTensor, options: &AlsOptions) -> Result<AlsReport> {
    als_loop(x, options)
}

fn als_loop<T: AlsTensor>(x: &T, options: &AlsOptions) -> Result<AlsReport> {
    if options.rank == 0 {
        return Err(CpError::ZeroRank);
    }
    let dims: Vec<usize> = x.dims().to_vec();
    let order = dims.len();
    let f = options.rank;

    let mut factors: Vec<Mat> = match &options.init {
        Some(init) => {
            if init.len() != order
                || init
                    .iter()
                    .zip(&dims)
                    .any(|(m, &d)| m.rows() != d || m.cols() != f)
            {
                return Err(CpError::BadFactors {
                    reason: "initial factors disagree with tensor dims/rank".into(),
                });
            }
            init.clone()
        }
        None => {
            let mut rng = StdRng::seed_from_u64(options.seed);
            dims.iter()
                .map(|&d| random_factor(d, f, &mut rng))
                .collect()
        }
    };

    let norm_x_sq = x.norm_sq();
    let mut grams = vec![Mat::default(); order];
    for (a, gram) in factors.iter().zip(&mut grams) {
        a.gram_into(&options.par, gram);
    }
    let mut tree = x.sweep_tree(f);
    let mut fit_trace = Vec::with_capacity(options.max_iters);
    let mut prev_fit = f64::NEG_INFINITY;
    let mut converged = false;
    let mut iterations = 0;

    for _iter in 0..options.max_iters {
        iterations += 1;
        let mut last_m: Option<Mat> = None;
        // Running Hadamard product of the already-updated Grams
        // `G⁽⁰⁾ ⊛ … ⊛ G⁽ᵐᵒᵈᵉ⁻¹⁾`. `hadamard_all` folds left over an
        // ascending list, so reusing this prefix (then folding the
        // not-yet-updated suffix on top) is bitwise-identical to the
        // full product the per-mode recomputation built each solve.
        let mut running: Option<Mat> = None;
        // The mode-1 MTTKRP a paired pass left behind at mode 0.
        let mut paired_m1: Option<Mat> = None;
        for mode in 0..order {
            let refs: Vec<&Mat> = factors.iter().collect();
            let mut s = match &running {
                Some(prefix) => prefix.clone(),
                None if order > 1 => grams[1].clone(),
                None => Mat::zeros(0, 0), // what hadamard_all(&[]) yields
            };
            let suffix_from = if running.is_some() { mode + 1 } else { 2 };
            for g in &grams[suffix_from.min(order)..] {
                s.hadamard_assign(g)?;
            }
            let pass = if mode == 0 {
                x.mttkrp_pair(&refs, &s, options.ridge, &options.par)
            } else {
                None
            };
            let (a, m) = match pass {
                Some(pass) => {
                    let (a, m1) = pass?;
                    paired_m1 = Some(m1);
                    (a, None)
                }
                None => {
                    let m = match paired_m1.take() {
                        Some(m1) => m1,
                        None => x.mttkrp(tree.as_mut(), &refs, mode, &options.par)?,
                    };
                    (solve::solve_gram_system(&m, &s, options.ridge)?, Some(m))
                }
            };
            a.gram_into(&options.par, &mut grams[mode]);
            factors[mode] = a;
            if let Some(t) = tree.as_mut() {
                t.factor_updated(mode);
            }
            running = Some(match running {
                Some(mut prefix) => {
                    prefix.hadamard_assign(&grams[mode])?;
                    prefix
                }
                None => grams[0].clone(),
            });
            if mode == order - 1 {
                last_m = m;
            }
        }

        // Fit via the Gram identity — ⟨X, X̃⟩ = Σ (M ⊛ A_last), where M is
        // the last mode's MTTKRP and A_last the factor just solved from it.
        // After the last solve `running` holds ⊛ₕ G⁽ʰ⁾ over every mode.
        let m = last_m.expect("order >= 1");
        let inner: f64 = m
            .as_slice()
            .iter()
            .zip(factors[order - 1].as_slice())
            .map(|(a, b)| a * b)
            .sum();
        let model_sq = running.expect("order >= 1").sum().max(0.0);
        let fit = fit_from_parts(norm_x_sq, inner, model_sq);
        fit_trace.push(fit);

        // Rebalance factor scales (preserves the reconstruction: each
        // column's total weight is redistributed as λ^{1/N} per mode).
        rebalance(&mut factors, &mut grams, &options.par);
        // Rebalancing rescales *every* factor, so no cached partial
        // product survives it.
        if let Some(t) = tree.as_mut() {
            t.invalidate_all();
        }

        if (fit - prev_fit).abs() < options.tol {
            converged = true;
            break;
        }
        prev_fit = fit;
    }

    let mut model = CpModel::new(vec![1.0; f], factors)?;
    model.normalize();
    let final_fit = fit_trace.last().copied().unwrap_or(0.0);
    Ok(AlsReport {
        model,
        iterations,
        final_fit,
        fit_trace,
        converged,
        norm_x_sq,
    })
}

/// Normalises every factor column and redistributes the combined weight
/// `λ_f` evenly (`λ_f^{1/N}` per mode), refreshing the Gram caches.
fn rebalance(factors: &mut [Mat], grams: &mut [Mat], par: &ParConfig) {
    let order = factors.len();
    let f = factors.first().map_or(0, Mat::cols);
    let mut lambda = vec![1.0f64; f];
    for factor in factors.iter_mut() {
        for (l, n) in lambda.iter_mut().zip(factor.normalize_columns()) {
            *l *= n;
        }
    }
    let root: Vec<f64> = lambda
        .iter()
        .map(|&l| {
            if l > 0.0 {
                l.powf(1.0 / order as f64)
            } else {
                0.0
            }
        })
        .collect();
    for (factor, gram) in factors.iter_mut().zip(grams.iter_mut()) {
        factor.scale_columns(&root);
        factor.gram_into(par, gram);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A random rank-`f` tensor with optional noise.
    fn low_rank_tensor(dims: &[usize], f: usize, noise: f64, seed: u64) -> DenseTensor {
        let mut rng = StdRng::seed_from_u64(seed);
        let factors: Vec<Mat> = dims
            .iter()
            .map(|&d| random_factor(d, f, &mut rng))
            .collect();
        let model = CpModel::new(vec![1.0; f], factors).unwrap();
        let mut t = model.reconstruct_dense();
        if noise > 0.0 {
            let noise_t = tpcp_tensor::random_dense(dims, &mut rng);
            for (v, n) in t.as_mut_slice().iter_mut().zip(noise_t.as_slice()) {
                *v += noise * (n - 0.5);
            }
        }
        t
    }

    #[test]
    fn recovers_exact_low_rank_tensor() {
        // Tensor seed chosen to avoid an ALS swamp (all-positive random
        // factors are near-collinear, and many instances crawl for ~2000
        // iterations): from seed 9's tensor, every init seed 0..4 recovers
        // in ~220 iterations, so the 300-iteration budget also guards
        // convergence *speed*. The init seed (default 0) must differ from
        // the tensor seed, else the initial factors equal the ground truth
        // and the test is vacuous.
        let t = low_rank_tensor(&[8, 7, 6], 3, 0.0, 9);
        let opts = AlsOptions {
            rank: 3,
            max_iters: 300,
            tol: 1e-10,
            ..Default::default()
        };
        let report = cp_als_dense(&t, &opts).unwrap();
        assert!(
            report.final_fit > 0.999,
            "fit {} too low after {} iters",
            report.final_fit,
            report.iterations
        );
    }

    #[test]
    fn fit_trace_is_monotone_nondecreasing() {
        let t = low_rank_tensor(&[6, 6, 6], 4, 0.2, 7);
        let opts = AlsOptions {
            rank: 4,
            max_iters: 30,
            tol: 0.0,
            ..Default::default()
        };
        let report = cp_als_dense(&t, &opts).unwrap();
        for w in report.fit_trace.windows(2) {
            assert!(w[1] >= w[0] - 1e-8, "fit decreased: {} -> {}", w[0], w[1]);
        }
    }

    #[test]
    fn converges_and_reports() {
        // ALS can enter a "swamp" (slow, collinear-factor convergence) on
        // unlucky instances, so the threshold matches the paper's 1e-2
        // stopping condition rather than machine precision.
        let t = low_rank_tensor(&[5, 5, 5], 2, 0.0, 3);
        let opts = AlsOptions {
            rank: 2,
            max_iters: 500,
            tol: 1e-5,
            ..Default::default()
        };
        let report = cp_als_dense(&t, &opts).unwrap();
        assert!(report.converged);
        assert!(report.iterations < 500);
        assert_eq!(report.fit_trace.len(), report.iterations);
    }

    #[test]
    fn sparse_matches_dense_path() {
        let t = low_rank_tensor(&[6, 5, 4], 2, 0.0, 9);
        let sp = SparseTensor::from_dense(&t, 0.0);
        let opts = AlsOptions {
            rank: 2,
            max_iters: 40,
            tol: 1e-12,
            seed: 1,
            ..Default::default()
        };
        let dense_report = cp_als_dense(&t, &opts).unwrap();
        let sparse_report = cp_als_sparse(&sp, &opts).unwrap();
        // Same seed, same data => identical trajectories.
        assert_eq!(dense_report.iterations, sparse_report.iterations);
        assert!((dense_report.final_fit - sparse_report.final_fit).abs() < 1e-9);
    }

    #[test]
    fn rank_higher_than_dims_is_handled_by_ridge() {
        // F = 6 against a 4x3x3 tensor: Grams are singular by construction.
        let t = low_rank_tensor(&[4, 3, 3], 2, 0.0, 5);
        let opts = AlsOptions {
            rank: 6,
            max_iters: 25,
            tol: 1e-6,
            ..Default::default()
        };
        let report = cp_als_dense(&t, &opts).unwrap();
        assert!(report.final_fit > 0.99, "fit {}", report.final_fit);
    }

    #[test]
    fn zero_tensor_returns_zero_model() {
        let t = DenseTensor::zeros(&[4, 4, 4]);
        let report = cp_als_dense(&t, &AlsOptions::with_rank(2)).unwrap();
        assert_eq!(report.final_fit, 1.0);
        assert!(report.model.norm_sq() < 1e-18);
    }

    #[test]
    fn zero_rank_rejected() {
        let t = DenseTensor::zeros(&[2, 2]);
        assert!(matches!(
            cp_als_dense(&t, &AlsOptions::with_rank(0)),
            Err(CpError::ZeroRank)
        ));
    }

    #[test]
    fn explicit_init_is_used_and_validated() {
        let t = low_rank_tensor(&[4, 4, 4], 2, 0.0, 8);
        let bad = AlsOptions {
            rank: 2,
            init: Some(vec![Mat::zeros(4, 2); 2]),
            ..Default::default()
        };
        assert!(cp_als_dense(&t, &bad).is_err());

        // Init seed chosen to dodge an ALS swamp (seed 99 stalls at fit
        // ≈ 0.965 for hundreds of iterations); seed 2 converges in ~280.
        let mut rng = StdRng::seed_from_u64(2);
        let init: Vec<Mat> = (0..3).map(|_| random_factor(4, 2, &mut rng)).collect();
        let opts = AlsOptions {
            rank: 2,
            max_iters: 400,
            tol: 1e-9,
            init: Some(init),
            ..Default::default()
        };
        let report = cp_als_dense(&t, &opts).unwrap();
        assert!(report.final_fit > 0.99, "fit {}", report.final_fit);
    }

    #[test]
    fn seeds_are_deterministic() {
        let t = low_rank_tensor(&[5, 4, 3], 2, 0.1, 21);
        let opts = AlsOptions {
            rank: 2,
            max_iters: 10,
            tol: 0.0,
            seed: 5,
            ..Default::default()
        };
        let a = cp_als_dense(&t, &opts).unwrap();
        let b = cp_als_dense(&t, &opts).unwrap();
        assert_eq!(a.fit_trace, b.fit_trace);
    }

    #[test]
    fn tree_sweep_tracks_the_sparse_per_mode_path() {
        // Order 4 sweeps on the contraction tree; the sparse path sums one
        // Hadamard row per non-zero — an independent association of the
        // same contraction, so the trajectories agree to rounding.
        let t = low_rank_tensor(&[5, 4, 3, 4], 3, 0.1, 13);
        let sp = SparseTensor::from_dense(&t, 0.0);
        let opts = AlsOptions {
            rank: 3,
            max_iters: 20,
            tol: 0.0,
            ..Default::default()
        };
        let tree = cp_als_dense(&t, &opts).unwrap();
        let per_mode = cp_als_sparse(&sp, &opts).unwrap();
        assert_eq!(per_mode.iterations, tree.iterations);
        for (a, b) in per_mode.fit_trace.iter().zip(&tree.fit_trace) {
            assert!((a - b).abs() < 1e-9, "fit diverged: {a} vs {b}");
        }
        assert_eq!(tree.norm_x_sq, t.fro_norm_sq());
    }

    #[test]
    fn builder_carries_and_validates_compress() {
        let opts = AlsOptions::builder()
            .rank(3)
            .compress(CompressOptions::default())
            .build()
            .unwrap();
        assert_eq!(opts.compress, Some(CompressOptions::default()));
        // Invalid embedded compress options fail the ALS builder too.
        let bad = AlsOptions::builder()
            .rank(3)
            .compress(CompressOptions {
                energy: 2.0,
                ..CompressOptions::default()
            })
            .build();
        assert!(matches!(bad, Err(CpError::BadOptions { .. })));
    }

    #[test]
    fn compress_field_is_inert_for_plain_als() {
        // The field is plumbing for tpcp-compress; the per-mode loop must
        // produce bitwise-identical results with and without it.
        let t = low_rank_tensor(&[5, 4, 3], 2, 0.1, 21);
        let base = AlsOptions {
            rank: 2,
            max_iters: 8,
            tol: 0.0,
            ..Default::default()
        };
        let with = cp_als_dense(
            &t,
            &AlsOptions {
                compress: Some(CompressOptions::default()),
                ..base.clone()
            },
        )
        .unwrap();
        let without = cp_als_dense(&t, &base).unwrap();
        assert_eq!(with.fit_trace, without.fit_trace);
    }

    #[test]
    fn two_mode_tensor_als_works() {
        // CP on a matrix degenerates to a low-rank matrix factorisation.
        let t = low_rank_tensor(&[8, 6], 2, 0.0, 31);
        let opts = AlsOptions {
            rank: 2,
            max_iters: 100,
            tol: 1e-10,
            ..Default::default()
        };
        let report = cp_als_dense(&t, &opts).unwrap();
        assert!(report.final_fit > 0.999);
    }
}
