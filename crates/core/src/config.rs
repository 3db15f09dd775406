//! Configuration for the two-phase pipeline.

use crate::{Result, TwoPcpError};
use std::path::PathBuf;
use tpcp_cp::CompressOptions;
use tpcp_linalg::KernelKind;
use tpcp_par::ParConfig;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{PolicyKind, PrefetchConfig};

/// An invalid configuration detected by [`TwoPcpConfig::build`] or
/// [`TwoPcpConfig::validate`].
///
/// Converts into [`TwoPcpError::Config`] at the pipeline boundary, so
/// `?` works in driver code while `build()` call sites keep the precise
/// type.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// What was wrong with the configuration.
    pub reason: String,
}

impl ConfigError {
    fn new(reason: impl Into<String>) -> Self {
        ConfigError {
            reason: reason.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid config: {}", self.reason)
    }
}

impl std::error::Error for ConfigError {}

impl From<ConfigError> for TwoPcpError {
    fn from(e: ConfigError) -> Self {
        TwoPcpError::Config { reason: e.reason }
    }
}

/// Name of the environment variable giving `tpcp-serve` / `tpcp-query`
/// their default address.
pub const SERVE_ADDR_ENV_VAR: &str = "TPCP_SERVE_ADDR";

/// Every `TPCP_*` environment override, parsed once.
///
/// The individual crates own their variables' grammar ([`ParConfig`]);
/// this type records *which* variables are actually set and their parsed
/// values, and [`TwoPcpConfig::new`] is the single place in the driver
/// that applies them — everything built on a config (examples, tests, the
/// serving daemon) inherits the environment through it.
#[derive(Clone, Debug, Default)]
pub struct EnvOverrides {
    /// `TPCP_THREADS` → shared worker-thread budget.
    pub par: Option<ParConfig>,
    /// `TPCP_SERVE_ADDR` → serving daemon listen address.
    pub serve_addr: Option<String>,
}

impl EnvOverrides {
    /// Reads every override from the process environment. Variables that
    /// are unset stay `None`; set variables parse under their owning
    /// crate's rules (malformed values fall back to that crate's
    /// defaults, exactly as before this type existed).
    pub fn from_env() -> Self {
        EnvOverrides {
            par: std::env::var_os(tpcp_par::THREADS_ENV_VAR)
                .is_some()
                .then(ParConfig::auto),
            serve_addr: std::env::var(SERVE_ADDR_ENV_VAR).ok(),
        }
    }

    /// Applies the set overrides to `config`, leaving unset knobs alone.
    #[must_use]
    pub fn apply(&self, mut config: TwoPcpConfig) -> TwoPcpConfig {
        if let Some(par) = self.par {
            config.par = par;
        }
        config
    }
}

/// How the global sub-factors `A(i)(kᵢ)` are initialised before Phase 2.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InitKind {
    /// Mean of the mode-`i` sub-factors across the slab — aligns `A` with
    /// the Phase-1 component space (default).
    SlabMean,
    /// Seeded random initialisation.
    Random,
}

/// Options for Phase 1 (per-block CP-ALS).
///
/// The worker-thread budget moved to [`TwoPcpConfig::par`], so Phase 1,
/// Phase 2 and the kernels beneath them share one budget.
#[derive(Clone, Debug)]
pub struct Phase1Options {
    /// ALS iterations per block.
    pub max_iters: usize,
    /// ALS convergence tolerance per block.
    pub tol: f64,
}

impl Phase1Options {
    /// Sets the per-block ALS iteration budget.
    #[must_use]
    pub fn max_iters(mut self, max_iters: usize) -> Self {
        self.max_iters = max_iters;
        self
    }

    /// Sets the per-block ALS convergence tolerance.
    #[must_use]
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }
}

impl Default for Phase1Options {
    fn default() -> Self {
        Phase1Options {
            max_iters: 25,
            tol: 1e-4,
        }
    }
}

/// Full configuration of a 2PCP run (paper Table III's parameter space).
#[derive(Clone, Debug)]
pub struct TwoPcpConfig {
    /// Decomposition rank `F`.
    pub rank: usize,
    /// Partition counts per mode (`K₁ … K_N`); a single-element vector is
    /// broadcast to every mode.
    pub parts: Vec<usize>,
    /// Phase-2 update schedule (MC / FO / ZO / HO, plus the GO extension).
    pub schedule: ScheduleKind,
    /// Buffer replacement policy (LRU / MRU / FOR).
    pub policy: PolicyKind,
    /// Buffer capacity as a fraction of the total space requirement
    /// (paper: 1/3, 1/2, 2/3). Values ≥ 1 keep everything resident.
    pub buffer_fraction: f64,
    /// Maximum number of virtual iterations in Phase 2 (paper: 100/200).
    pub max_virtual_iters: usize,
    /// Stop when the per-virtual-iteration accuracy improvement drops
    /// below this (paper: 10⁻²).
    pub tol: f64,
    /// Ridge for the `T·S⁻¹` solves.
    pub ridge: f64,
    /// Seed for all randomised pieces (block ALS init etc.).
    pub seed: u64,
    /// Where unit pages live; `None` = in-memory store (testing / small
    /// runs), `Some(dir)` = disk store (the out-of-core configuration).
    pub work_dir: Option<PathBuf>,
    /// Initialisation of the global sub-factors.
    pub init: InitKind,
    /// Phase-1 options.
    pub phase1: Phase1Options,
    /// The shared thread budget: Phase-1 block workers, Phase-2 cache
    /// refreshes and every MTTKRP/matmul kernel underneath draw from this
    /// one [`ParConfig`] (defaults to [`ParConfig::auto`], i.e. the
    /// `TPCP_THREADS` override or all available cores). Parallel execution
    /// is deterministic — results are bit-identical for any budget.
    pub par: ParConfig,
    /// The Phase-2 asynchronous prefetch pipeline: a background worker
    /// walks the deterministic update schedule ahead of the refiner and
    /// stages upcoming units, overlapping disk reads with compute
    /// (default: an enabled depth-4 pipeline, changed only by the
    /// `prefetch` / `prefetch_depth` setters). Prefetch moves bytes,
    /// never values — fit traces, factors and swap counts are
    /// bit-identical with the pipeline on or off.
    pub prefetch: PrefetchConfig,
    /// Ignored (default `false`). Nothing in the engine uses this; the
    /// end-to-end benchmark pins it, and it leaves with ROADMAP 6(a).
    pub mmap: bool,
    /// Ignored (default [`KernelKind::Tiled`], its one variant). The engine
    /// calls the tiled primitives of `tpcp_linalg::kernel` by name; the
    /// end-to-end benchmark pins this field, and it leaves with ROADMAP
    /// 6(a).
    pub kernel: KernelKind,
    /// Compress-then-decompose (`tpcp-compress`): stream per-mode Tucker
    /// bases, run CP on the small core, expand, then polish against the
    /// original tensor. `Some(options)` replaces the two-phase pipeline
    /// with the compression pipeline; `None` (default) leaves the driver
    /// untouched — the default path is bitwise identical to a build
    /// without this knob. Best on low-multilinear-rank tensors; see
    /// `docs/compress.md` for when not to use it.
    pub compress: Option<CompressOptions>,
}

impl TwoPcpConfig {
    /// A configuration with the paper's preferred defaults: Hilbert-order
    /// schedule, forward-looking replacement, 2 partitions per mode.
    ///
    /// This is the single place the `TPCP_*` environment overrides enter
    /// the driver: env-free defaults first, then
    /// [`EnvOverrides::from_env`] on top.
    pub fn new(rank: usize) -> Self {
        EnvOverrides::from_env().apply(TwoPcpConfig {
            rank,
            parts: vec![2],
            schedule: ScheduleKind::HilbertOrder,
            policy: PolicyKind::Forward,
            buffer_fraction: 1.0,
            max_virtual_iters: 100,
            tol: 1e-2,
            ridge: 1e-9,
            seed: 0,
            work_dir: None,
            init: InitKind::SlabMean,
            phase1: Phase1Options::default(),
            par: ParConfig::hardware(),
            prefetch: PrefetchConfig::default(),
            mmap: false,
            kernel: KernelKind::Tiled,
            compress: None,
        })
    }

    /// The defaults of [`TwoPcpConfig::new`] (environment overrides
    /// included) at rank 0, to be set with [`TwoPcpConfig::rank`] and
    /// checked by [`TwoPcpConfig::build`].
    pub fn builder() -> Self {
        TwoPcpConfig::new(0)
    }

    /// Sets the decomposition rank `F`.
    pub fn rank(mut self, rank: usize) -> Self {
        self.rank = rank;
        self
    }

    /// Sets the per-mode partition counts.
    pub fn parts(mut self, parts: Vec<usize>) -> Self {
        self.parts = parts;
        self
    }

    /// Sets the Phase-2 update schedule.
    pub fn schedule(mut self, schedule: ScheduleKind) -> Self {
        self.schedule = schedule;
        self
    }

    /// Sets the buffer replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the buffer size as a fraction of the total space requirement.
    pub fn buffer_fraction(mut self, fraction: f64) -> Self {
        self.buffer_fraction = fraction;
        self
    }

    /// Sets the virtual-iteration budget.
    pub fn max_virtual_iters(mut self, iters: usize) -> Self {
        self.max_virtual_iters = iters;
        self
    }

    /// Sets the Phase-2 stopping tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.tol = tol;
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Uses an on-disk unit store rooted at `dir`.
    pub fn work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.work_dir = Some(dir.into());
        self
    }

    /// Sets the sub-factor initialisation strategy.
    pub fn init(mut self, init: InitKind) -> Self {
        self.init = init;
        self
    }

    /// Sets the Phase-1 options.
    pub fn phase1(mut self, phase1: Phase1Options) -> Self {
        self.phase1 = phase1;
        self
    }

    /// Sets the shared worker-thread budget (`0` = decide automatically).
    pub fn threads(mut self, threads: usize) -> Self {
        self.par = ParConfig::with_threads(threads);
        self
    }

    /// Sets the shared thread budget from an explicit [`ParConfig`].
    pub fn par(mut self, par: ParConfig) -> Self {
        self.par = par;
        self
    }

    /// Sets the Phase-2 prefetch pipeline configuration.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.prefetch = prefetch;
        self
    }

    /// Sets the prefetch pipeline depth (`0` disables the pipeline).
    pub fn prefetch_depth(mut self, depth: usize) -> Self {
        self.prefetch = PrefetchConfig::with_depth(depth);
        self
    }

    /// Enables compress-then-decompose with explicit [`CompressOptions`]
    /// (validated at [`build`](TwoPcpConfig::build)).
    pub fn compress(mut self, options: CompressOptions) -> Self {
        self.compress = Some(options);
        self
    }

    /// Validates and produces the configuration, so that a mistake is
    /// rejected up front instead of deep inside a run.
    ///
    /// # Errors
    /// [`ConfigError`] when the compress options are invalid or
    /// [`TwoPcpConfig::validate`] rejects the settings (a rank left at 0
    /// among them).
    pub fn build(self) -> std::result::Result<TwoPcpConfig, ConfigError> {
        if let Some(compress) = &self.compress {
            tpcp_cp::validate_compress_options(compress)
                .map_err(|e| ConfigError::new(format!("compress: {e}")))?;
        }
        self.validate()?;
        Ok(self)
    }

    /// Checks every setting that does not depend on the input: a
    /// positive rank, a positive buffer fraction, and a non-empty
    /// partition vector without zeros. [`TwoPcpConfig::build`] and
    /// [`TwoPcpConfig::resolved_parts`] both run it, so a configuration
    /// built field by field is held to the same rules.
    ///
    /// # Errors
    /// [`ConfigError`] naming the first invalid setting.
    pub fn validate(&self) -> std::result::Result<(), ConfigError> {
        if self.rank == 0 {
            return Err(ConfigError::new("rank must be positive"));
        }
        if !is_positive_fraction(self.buffer_fraction) {
            return Err(ConfigError::new("buffer_fraction must be positive"));
        }
        if self.parts.is_empty() {
            return Err(ConfigError::new("parts must not be empty"));
        }
        if self.parts.contains(&0) {
            return Err(ConfigError::new("partition counts must be positive"));
        }
        Ok(())
    }

    /// Resolves the partition vector for an order-`n` tensor (broadcasting
    /// a singleton) after [`TwoPcpConfig::validate`].
    ///
    /// # Errors
    /// [`TwoPcpError::Config`] on an invalid configuration or a partition
    /// vector whose length is neither 1 nor `order`.
    pub fn resolved_parts(&self, order: usize) -> Result<Vec<usize>> {
        self.validate()?;
        let parts = if self.parts.len() == 1 {
            vec![self.parts[0]; order]
        } else if self.parts.len() == order {
            self.parts.clone()
        } else {
            return Err(TwoPcpError::Config {
                reason: format!(
                    "{} partition counts for an order-{order} tensor",
                    self.parts.len()
                ),
            });
        };
        Ok(parts)
    }
}

/// Whether `fraction` is a usable buffer fraction. Written as `> 0.0`
/// rather than as a `<= 0.0` rejection, which NaN would slip past.
pub(crate) fn is_positive_fraction(fraction: f64) -> bool {
    fraction > 0.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let cfg = TwoPcpConfig::new(10)
            .parts(vec![4, 4, 4])
            .schedule(ScheduleKind::ZOrder)
            .policy(PolicyKind::Lru)
            .buffer_fraction(1.0 / 3.0)
            .max_virtual_iters(200)
            .tol(1e-3)
            .seed(9)
            .threads(3);
        assert_eq!(cfg.rank, 10);
        assert_eq!(cfg.parts, vec![4, 4, 4]);
        assert_eq!(cfg.schedule, ScheduleKind::ZOrder);
        assert_eq!(cfg.policy, PolicyKind::Lru);
        assert_eq!(cfg.max_virtual_iters, 200);
        assert_eq!(cfg.par.threads(), 3);
        let cfg = cfg.prefetch_depth(8);
        assert_eq!(cfg.prefetch, PrefetchConfig::with_depth(8));
        let cfg = cfg.prefetch(PrefetchConfig::disabled());
        assert!(!cfg.prefetch.is_active());
        assert_eq!(cfg.par(ParConfig::serial()).par, ParConfig::serial());
    }

    #[test]
    fn build_requires_a_rank() {
        let err = TwoPcpConfig::builder().build().unwrap_err();
        assert!(err.reason.contains("rank"), "{err}");
        let cfg = TwoPcpConfig::builder().rank(4).build().unwrap();
        assert_eq!(cfg.rank, 4);
        assert_eq!(cfg.kernel, KernelKind::Tiled);
    }

    #[test]
    fn compress_setters_chain() {
        let cfg = TwoPcpConfig::new(4).compress(CompressOptions::default());
        assert!(cfg.compress.is_some());
        let cfg = TwoPcpConfig::builder()
            .rank(4)
            .compress(CompressOptions::builder().energy(0.99).build().unwrap())
            .build()
            .unwrap();
        assert!((cfg.compress.unwrap().energy - 0.99).abs() < 1e-12);
        // Invalid options are rejected at build(), not deep inside a run.
        let bad = CompressOptions {
            energy: 0.0,
            ..Default::default()
        };
        let err = TwoPcpConfig::builder().rank(4).compress(bad).build();
        assert!(err.unwrap_err().reason.contains("compress"));
    }

    #[test]
    fn parts_broadcast() {
        let cfg = TwoPcpConfig::new(2).parts(vec![3]);
        assert_eq!(cfg.resolved_parts(4).unwrap(), vec![3, 3, 3, 3]);
        let cfg2 = TwoPcpConfig::new(2).parts(vec![2, 3]);
        assert_eq!(cfg2.resolved_parts(2).unwrap(), vec![2, 3]);
    }

    #[test]
    fn validation_errors() {
        assert!(TwoPcpConfig::new(0).resolved_parts(3).is_err());
        assert!(TwoPcpConfig::new(2)
            .parts(vec![2, 2])
            .resolved_parts(3)
            .is_err());
        assert!(TwoPcpConfig::new(2)
            .buffer_fraction(0.0)
            .resolved_parts(3)
            .is_err());
        assert!(TwoPcpConfig::new(2)
            .parts(vec![0])
            .resolved_parts(3)
            .is_err());
        // NaN, 0 and -0: a typed error from the validator, the builder
        // and the driver — never the buffer pool's panic.
        let x = tpcp_tensor::DenseTensor::zeros(&[4, 4]);
        for bad in [f64::NAN, 0.0, -0.0] {
            let cfg = TwoPcpConfig::new(2).parts(vec![2]).buffer_fraction(bad);
            assert!(cfg.validate().is_err(), "{bad}");
            let built = TwoPcpConfig::builder().rank(2).buffer_fraction(bad).build();
            assert!(built.is_err(), "{bad}");
            let err = crate::TwoPcp::new(cfg).decompose_dense(&x).unwrap_err();
            assert!(matches!(err, TwoPcpError::Config { .. }), "{bad}: {err}");
        }
        assert!(TwoPcpConfig::new(2).parts(vec![]).validate().is_err());
    }
}
