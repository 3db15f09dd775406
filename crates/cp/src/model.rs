//! The CP model: weighted rank-one components.

use crate::{mttkrp_dense, CpError, Result};
use tpcp_linalg::{hadamard_all, Mat};
use tpcp_par::ParConfig;
use tpcp_tensor::{advance_index, DenseTensor, SparseTensor};

/// A rank-`F` CP decomposition: `X̃ = Σ_f λ_f · a⁽¹⁾_f ∘ … ∘ a⁽ᴺ⁾_f`.
///
/// `factors[h]` is the `I_h × F` factor matrix of mode `h`; `weights` holds
/// the component magnitudes `λ` (factors are conventionally column-
/// normalised, but the type does not require it).
#[derive(Clone, Debug, PartialEq)]
pub struct CpModel {
    /// Component weights `λ₁ … λ_F`.
    pub weights: Vec<f64>,
    /// Per-mode factor matrices, each `I_h × F`.
    pub factors: Vec<Mat>,
}

impl CpModel {
    /// Creates a model after validating factor shapes.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when factor column counts disagree with the
    /// weight count.
    pub fn new(weights: Vec<f64>, factors: Vec<Mat>) -> Result<Self> {
        let f = weights.len();
        for (h, m) in factors.iter().enumerate() {
            if m.cols() != f {
                return Err(CpError::BadFactors {
                    reason: format!("factor {h} has {} columns, expected rank {f}", m.cols()),
                });
            }
        }
        Ok(CpModel { weights, factors })
    }

    /// An all-zero model of the given shape (used for empty blocks — the
    /// paper's footnote 3: "if the sub-tensor is empty, then the factors
    /// are 0 matrices of the appropriate size").
    pub fn zeros(dims: &[usize], rank: usize) -> Self {
        CpModel {
            weights: vec![0.0; rank],
            factors: dims.iter().map(|&d| Mat::zeros(d, rank)).collect(),
        }
    }

    /// Decomposition rank `F`.
    pub fn rank(&self) -> usize {
        self.weights.len()
    }

    /// Tensor order `N`.
    pub fn order(&self) -> usize {
        self.factors.len()
    }

    /// The dimensions the model reconstructs.
    pub fn dims(&self) -> Vec<usize> {
        self.factors.iter().map(Mat::rows).collect()
    }

    /// Folds the weights into mode `mode`'s factor and sets them to one.
    pub fn absorb_weights(&mut self, mode: usize) {
        self.factors[mode].scale_columns(&self.weights);
        self.weights.fill(1.0);
    }

    /// Normalises every factor's columns, accumulating the norms into the
    /// weights (the canonical presentation of a CP model).
    pub fn normalize(&mut self) {
        for factor in &mut self.factors {
            let norms = factor.normalize_columns();
            for (w, n) in self.weights.iter_mut().zip(norms) {
                *w *= n;
            }
        }
    }

    /// Squared Frobenius norm of the reconstruction, via the Gram identity
    /// `‖X̃‖² = λᵀ (⊛_h A⁽ʰ⁾ᵀA⁽ʰ⁾) λ` — `O(N·I·F²)`, no materialisation.
    pub fn norm_sq(&self) -> f64 {
        if self.factors.is_empty() || self.rank() == 0 {
            return 0.0;
        }
        let grams: Vec<Mat> = self.factors.iter().map(Mat::gram).collect();
        let refs: Vec<&Mat> = grams.iter().collect();
        let g = hadamard_all(&refs).expect("grams share FxF shape");
        let f = self.rank();
        let mut total = 0.0;
        for i in 0..f {
            for j in 0..f {
                total += self.weights[i] * g.get(i, j) * self.weights[j];
            }
        }
        total.max(0.0)
    }

    /// Inner product `⟨X, X̃⟩` against a dense tensor, on the automatic
    /// thread budget; see [`CpModel::inner_dense_kernel`].
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn inner_dense(&self, x: &DenseTensor) -> Result<f64> {
        self.inner_dense_kernel(x, &ParConfig::auto())
    }

    /// Inner product `⟨X, X̃⟩` against a dense tensor on the thread budget
    /// `par`, read off the last mode's MTTKRP:
    /// `⟨X, X̃⟩ = Σ_s λ_s · Σ_i M[i, s] · A⁽ᴺ⁾[i, s]` with
    /// `M = X_(N) · KR([A⁽ʰ⁾]_{h<N})` from [`mttkrp_dense`] — the same
    /// contraction (and the same kernels) an ALS sweep runs, instead of a
    /// walk over every element. Bit-identical for any thread budget.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn inner_dense_kernel(&self, x: &DenseTensor, par: &ParConfig) -> Result<f64> {
        self.check_dims(x.dims())?;
        // An order-0 model fails the MTTKRP's mode check below.
        let mode = self.order().saturating_sub(1);
        let refs: Vec<&Mat> = self.factors.iter().collect();
        let m = mttkrp_dense(x, &refs, mode, par)?;
        let a = &self.factors[mode];
        let f = self.rank();
        let mut per_component = vec![0.0f64; f];
        if f > 0 {
            for (m_row, a_row) in m.as_slice().chunks(f).zip(a.as_slice().chunks(f)) {
                for ((c, &mv), &av) in per_component.iter_mut().zip(m_row).zip(a_row) {
                    *c += mv * av;
                }
            }
        }
        Ok(per_component
            .iter()
            .zip(&self.weights)
            .map(|(c, w)| c * w)
            .sum())
    }

    /// Inner product `⟨X, X̃⟩` against a sparse tensor.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn inner_sparse(&self, x: &SparseTensor) -> Result<f64> {
        self.check_dims(x.dims())?;
        let f = self.rank();
        let mut total = 0.0;
        let mut prod = vec![0.0f64; f];
        x.for_each_entry(|idx, v| {
            prod.copy_from_slice(&self.weights);
            for (m, &c) in idx.iter().enumerate() {
                for (p, &a) in prod.iter_mut().zip(self.factors[m].row(c as usize)) {
                    *p *= a;
                }
            }
            total += v * prod.iter().sum::<f64>();
        });
        Ok(total)
    }

    /// Decomposition accuracy against a dense tensor (paper §III-B):
    /// `1 − ‖X̃ − X‖ / ‖X‖`, computed without materialising `X̃`.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn fit_dense(&self, x: &DenseTensor) -> Result<f64> {
        let x_sq = x.fro_norm_sq();
        let inner = self.inner_dense(x)?;
        Ok(fit_from_parts(x_sq, inner, self.norm_sq()))
    }

    /// Decomposition accuracy against a sparse tensor.
    ///
    /// # Errors
    /// [`CpError::BadFactors`] when shapes disagree.
    pub fn fit_sparse(&self, x: &SparseTensor) -> Result<f64> {
        let x_sq = x.fro_norm_sq();
        let inner = self.inner_sparse(x)?;
        Ok(fit_from_parts(x_sq, inner, self.norm_sq()))
    }

    /// Materialises the reconstruction densely (tests, dataset generators).
    ///
    /// Walks last-mode fibres: the weighted product of the outer modes'
    /// rows, `λ ⊛ A⁽¹⁾[i₁] ⊛ … ⊛ A⁽ᴺ⁻¹⁾[i_{N−1}]`, is formed once per fibre
    /// and each cell is its dot product with a last-mode row. Every cell's
    /// multiplies and its ascending-`f` sum run in mode order, so the
    /// values do not depend on how the walk is organised.
    pub fn reconstruct_dense(&self) -> DenseTensor {
        let dims = self.dims();
        let mut out = DenseTensor::zeros(&dims);
        if out.is_empty() {
            return out;
        }
        let Some((last, outer)) = self.factors.split_last() else {
            out.as_mut_slice()[0] = self.weights.iter().sum();
            return out;
        };
        let run = last.rows();
        let mut coords = vec![0usize; outer.len()];
        let mut hoisted = vec![0.0f64; self.rank()];
        for fibre in out.as_mut_slice().chunks_mut(run) {
            hoisted.copy_from_slice(&self.weights);
            for (factor, &c) in outer.iter().zip(&coords) {
                for (h, &a) in hoisted.iter_mut().zip(factor.row(c)) {
                    *h *= a;
                }
            }
            for (i, slot) in fibre.iter_mut().enumerate() {
                *slot = hoisted
                    .iter()
                    .zip(last.row(i))
                    .map(|(&h, &a)| h * a)
                    .sum::<f64>();
            }
            advance_index(&dims[..outer.len()], &mut coords);
        }
        out
    }

    fn check_dims(&self, dims: &[usize]) -> Result<()> {
        if self.dims() != dims {
            return Err(CpError::BadFactors {
                reason: format!("model dims {:?} vs tensor dims {:?}", self.dims(), dims),
            });
        }
        Ok(())
    }
}

/// `1 − sqrt(max(0, ‖X‖² − 2⟨X,X̃⟩ + ‖X̃‖²)) / ‖X‖`, guarding degenerate
/// zero-norm inputs (fit of anything against the zero tensor is 1 iff the
/// model is also zero).
pub(crate) fn fit_from_parts(x_sq: f64, inner: f64, model_sq: f64) -> f64 {
    let err_sq = (x_sq - 2.0 * inner + model_sq).max(0.0);
    if x_sq <= 0.0 {
        return if model_sq <= 1e-30 {
            1.0
        } else {
            f64::NEG_INFINITY
        };
    }
    1.0 - (err_sq.sqrt() / x_sq.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::SeedableRng;

    /// The per-element definition of the reconstruction (coordinates by
    /// div/mod, `N·F` multiplies per cell) — the oracle the fibre walk of
    /// [`CpModel::reconstruct_dense`] must match bit for bit, and the walk
    /// [`CpModel::inner_dense`] used to be.
    fn reconstruct_reference(model: &CpModel) -> DenseTensor {
        let dims = model.dims();
        let mut out = DenseTensor::zeros(&dims);
        let mut coords = vec![0usize; dims.len()];
        let mut prod = vec![0.0f64; model.rank()];
        for (lin, slot) in out.as_mut_slice().iter_mut().enumerate() {
            let mut rem = lin;
            for m in (0..dims.len()).rev() {
                coords[m] = rem % dims[m];
                rem /= dims[m];
            }
            prod.copy_from_slice(&model.weights);
            for (m, &c) in coords.iter().enumerate() {
                for (p, &a) in prod.iter_mut().zip(model.factors[m].row(c)) {
                    *p *= a;
                }
            }
            *slot = prod.iter().sum::<f64>();
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Ragged orders 1–5, rank 1–7, some weights zeroed: the fibre
        /// walk equals the per-element definition bitwise, and the
        /// MTTKRP-based inner product equals the per-element one to
        /// rounding.
        #[test]
        fn reconstruction_and_inner_product_match_the_per_element_walk(
            dims in proptest::collection::vec(1usize..6, 1..6),
            f in 1usize..8,
            zeroed in 0usize..8,
            seed in 0u64..1000,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let factors: Vec<Mat> = dims
                .iter()
                .map(|&d| tpcp_tensor::random_factor(d, f, &mut rng))
                .collect();
            let mut weights: Vec<f64> = (0..f).map(|s| 0.5 + s as f64).collect();
            weights[zeroed % f] = 0.0;
            let model = CpModel::new(weights, factors).unwrap();
            let fast = model.reconstruct_dense();
            let slow = reconstruct_reference(&model);
            let bits = |t: &DenseTensor| -> Vec<u64> {
                t.as_slice().iter().map(|v| v.to_bits()).collect()
            };
            prop_assert_eq!(bits(&fast), bits(&slow), "dims {:?} rank {}", dims, f);

            let x = tpcp_tensor::random_dense(&dims, &mut rng);
            let walked: f64 = x
                .as_slice()
                .iter()
                .zip(slow.as_slice())
                .map(|(a, b)| a * b)
                .sum();
            let inner = model.inner_dense(&x).unwrap();
            prop_assert!(
                (inner - walked).abs() <= 1e-10 * walked.abs().max(1.0),
                "dims {:?} rank {}: {} vs {}", dims, f, inner, walked
            );
        }
    }

    /// A fixed rank-2 3-mode model used across tests.
    fn sample_model() -> CpModel {
        CpModel::new(
            vec![2.0, 0.5],
            vec![
                Mat::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
                Mat::from_rows(&[&[1.0, 2.0], &[3.0, -1.0]]),
                Mat::from_rows(&[&[0.5, 1.0], &[1.0, 0.0], &[2.0, 2.0], &[0.0, 1.0]]),
            ],
        )
        .unwrap()
    }

    #[test]
    fn new_validates_rank() {
        let bad = CpModel::new(vec![1.0], vec![Mat::zeros(3, 2)]);
        assert!(matches!(bad, Err(CpError::BadFactors { .. })));
    }

    #[test]
    fn zeros_model() {
        let m = CpModel::zeros(&[2, 3], 4);
        assert_eq!(m.rank(), 4);
        assert_eq!(m.dims(), vec![2, 3]);
        assert_eq!(m.norm_sq(), 0.0);
        assert_eq!(m.reconstruct_dense().nnz(), 0);
    }

    #[test]
    fn norm_sq_matches_reconstruction() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        assert!((m.norm_sq() - recon.fro_norm_sq()).abs() < 1e-9);
    }

    #[test]
    fn inner_dense_matches_reconstruction() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        // ⟨X̃, X̃⟩ must equal ‖X̃‖².
        assert!((m.inner_dense(&recon).unwrap() - m.norm_sq()).abs() < 1e-9);
    }

    #[test]
    fn inner_sparse_matches_dense() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        let sp = SparseTensor::from_dense(&recon, 0.0);
        assert!((m.inner_sparse(&sp).unwrap() - m.inner_dense(&recon).unwrap()).abs() < 1e-9);
    }

    #[test]
    fn fit_of_exact_model_is_one() {
        let m = sample_model();
        let recon = m.reconstruct_dense();
        assert!((m.fit_dense(&recon).unwrap() - 1.0).abs() < 1e-6);
        let sp = SparseTensor::from_dense(&recon, 0.0);
        assert!((m.fit_sparse(&sp).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn fit_degrades_with_noise() {
        let m = sample_model();
        let mut noisy = m.reconstruct_dense();
        for (i, v) in noisy.as_mut_slice().iter_mut().enumerate() {
            *v += if i % 2 == 0 { 0.25 } else { -0.25 };
        }
        let fit = m.fit_dense(&noisy).unwrap();
        assert!(fit < 1.0 - 1e-4);
    }

    #[test]
    fn normalize_preserves_reconstruction() {
        let mut m = sample_model();
        let before = m.reconstruct_dense();
        m.normalize();
        let after = m.reconstruct_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
        // Every factor column now has unit norm (or zero).
        for f in &m.factors {
            for n in f.column_norms() {
                assert!(n < 1.0 + 1e-9);
            }
        }
    }

    #[test]
    fn absorb_weights_preserves_reconstruction() {
        let mut m = sample_model();
        let before = m.reconstruct_dense();
        m.absorb_weights(1);
        assert!(m.weights.iter().all(|&w| w == 1.0));
        let after = m.reconstruct_dense();
        for (a, b) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn fit_zero_tensor_edge_cases() {
        let zero = DenseTensor::zeros(&[2, 2]);
        let zero_model = CpModel::zeros(&[2, 2], 1);
        assert_eq!(zero_model.fit_dense(&zero).unwrap(), 1.0);
        let nonzero_model = CpModel::new(
            vec![1.0],
            vec![Mat::filled(2, 1, 1.0), Mat::filled(2, 1, 1.0)],
        )
        .unwrap();
        assert_eq!(nonzero_model.fit_dense(&zero).unwrap(), f64::NEG_INFINITY);
    }

    #[test]
    fn dims_mismatch_is_reported() {
        let m = sample_model();
        let wrong = DenseTensor::zeros(&[3, 2, 3]);
        assert!(m.fit_dense(&wrong).is_err());
    }
}
