//! Options for the compress-then-decompose execution mode.
//!
//! The pipeline itself (streaming mode sketches → basis extraction → core
//! contraction → CP on the core → expansion → exact refine) lives in
//! `tpcp-compress`; this module only defines the *knobs* so that
//! [`AlsOptions`](crate::AlsOptions) and `twopcp::TwoPcpConfig` can carry
//! them without a dependency cycle. Plain [`cp_als_dense`](crate::cp_als_dense)
//! ignores `AlsOptions::compress` — the field is consumed by the
//! `tpcp-compress` entry points and the `twopcp` driver.

use crate::{CpError, Result};

/// Knobs of the compress-then-decompose pipeline (see `docs/compress.md`).
#[derive(Clone, Debug, PartialEq)]
pub struct CompressOptions {
    /// Optional per-mode multilinear-rank caps `R_n`. `None` lets the
    /// [`energy`](CompressOptions::energy) threshold choose each `R_n` from
    /// the mode-Gram eigenvalue spectrum; `Some` additionally caps each
    /// mode (entries are clamped to the mode dimension). The sketched path
    /// (`oversample > 0`) requires explicit caps.
    pub mlrank: Option<Vec<usize>>,
    /// Retained-energy threshold per mode, in `(0, 1]`: the smallest `R_n`
    /// with `Σ_{i≤R_n} λ_i ≥ energy · Σ_i λ_i` is kept. `1.0` keeps every
    /// strictly positive eigenvalue (up to the caps).
    pub energy: f64,
    /// Extra sketch columns beyond `R_n`. `0` selects the exact path
    /// (mode Grams + Jacobi eigendecomposition); `> 0` selects the
    /// Gaussian-sketched range finder (CholeskyQR2 orthonormalisation).
    pub oversample: usize,
    /// Subspace (power) iterations for the sketched path — each costs one
    /// extra streaming pass over the tensor and sharpens the captured
    /// range. Ignored on the exact path.
    pub power_iters: usize,
    /// Exact ALS sweeps over the *original* tensor after expansion, to
    /// polish the expanded factors. `0` skips the polish.
    pub refine_iters: usize,
}

impl Default for CompressOptions {
    fn default() -> Self {
        CompressOptions {
            mlrank: None,
            energy: 1.0 - 1e-6,
            oversample: 0,
            power_iters: 1,
            refine_iters: 1,
        }
    }
}

impl CompressOptions {
    /// A validating builder over [`CompressOptions::default`]'s values.
    pub fn builder() -> CompressOptionsBuilder {
        CompressOptionsBuilder {
            options: CompressOptions::default(),
        }
    }
}

/// Builder for [`CompressOptions`] whose
/// [`build`](CompressOptionsBuilder::build) rejects invalid settings
/// before a run starts.
#[derive(Clone, Debug)]
pub struct CompressOptionsBuilder {
    options: CompressOptions,
}

impl CompressOptionsBuilder {
    /// Sets explicit per-mode multilinear-rank caps.
    pub fn mlrank(mut self, mlrank: Vec<usize>) -> Self {
        self.options.mlrank = Some(mlrank);
        self
    }

    /// Sets the retained-energy threshold.
    pub fn energy(mut self, energy: f64) -> Self {
        self.options.energy = energy;
        self
    }

    /// Sets the sketch oversampling (`0` = exact Gram path).
    pub fn oversample(mut self, oversample: usize) -> Self {
        self.options.oversample = oversample;
        self
    }

    /// Sets the subspace-iteration count for the sketched path.
    pub fn power_iters(mut self, power_iters: usize) -> Self {
        self.options.power_iters = power_iters;
        self
    }

    /// Sets the number of exact polish sweeps after expansion.
    pub fn refine_iters(mut self, refine_iters: usize) -> Self {
        self.options.refine_iters = refine_iters;
        self
    }

    /// Validates and produces the options.
    ///
    /// # Errors
    /// [`CpError::BadOptions`] on an energy threshold outside `(0, 1]`, a
    /// zero multilinear-rank cap, or a sketched configuration
    /// (`oversample > 0`) without explicit caps.
    pub fn build(self) -> Result<CompressOptions> {
        validate_compress_options(&self.options)?;
        Ok(self.options)
    }
}

/// Shared validation for [`CompressOptionsBuilder::build`] and the config
/// builders that embed a [`CompressOptions`] directly.
///
/// # Errors
/// [`CpError::BadOptions`] as described on
/// [`CompressOptionsBuilder::build`].
pub fn validate_compress_options(o: &CompressOptions) -> Result<()> {
    if !o.energy.is_finite() || o.energy <= 0.0 || o.energy > 1.0 {
        return Err(CpError::BadOptions {
            reason: format!("energy threshold must be in (0, 1], got {}", o.energy),
        });
    }
    if let Some(mlrank) = &o.mlrank {
        if mlrank.is_empty() || mlrank.contains(&0) {
            return Err(CpError::BadOptions {
                reason: format!("mlrank caps must be non-empty and positive, got {mlrank:?}"),
            });
        }
    } else if o.oversample > 0 {
        return Err(CpError::BadOptions {
            reason: "the sketched path (oversample > 0) requires explicit mlrank caps".into(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_validate() {
        let o = CompressOptions::builder().build().unwrap();
        assert_eq!(o, CompressOptions::default());
    }

    #[test]
    fn builder_setters_chain() {
        let o = CompressOptions::builder()
            .mlrank(vec![3, 4, 5])
            .energy(0.95)
            .oversample(4)
            .power_iters(2)
            .refine_iters(3)
            .build()
            .unwrap();
        assert_eq!(o.mlrank.as_deref(), Some(&[3usize, 4, 5][..]));
        assert_eq!(o.energy, 0.95);
        assert_eq!(o.oversample, 4);
        assert_eq!(o.power_iters, 2);
        assert_eq!(o.refine_iters, 3);
    }

    #[test]
    fn bad_energy_rejected() {
        for e in [0.0, -0.5, 1.5, f64::NAN] {
            assert!(
                matches!(
                    CompressOptions::builder().energy(e).build(),
                    Err(CpError::BadOptions { .. })
                ),
                "energy {e} accepted"
            );
        }
    }

    #[test]
    fn zero_mlrank_cap_rejected() {
        assert!(matches!(
            CompressOptions::builder().mlrank(vec![2, 0, 3]).build(),
            Err(CpError::BadOptions { .. })
        ));
        assert!(matches!(
            CompressOptions::builder().mlrank(vec![]).build(),
            Err(CpError::BadOptions { .. })
        ));
    }

    #[test]
    fn sketch_without_caps_rejected() {
        assert!(matches!(
            CompressOptions::builder().oversample(2).build(),
            Err(CpError::BadOptions { .. })
        ));
        assert!(CompressOptions::builder()
            .oversample(2)
            .mlrank(vec![2, 2, 2])
            .build()
            .is_ok());
    }
}
