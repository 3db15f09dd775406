//! Configuration for the two-phase pipeline.

use crate::{Result, TwoPcpError};
use std::path::PathBuf;
use tpcp_cp::CompressOptions;
use tpcp_linalg::KernelKind;
use tpcp_par::ParConfig;
use tpcp_schedule::ScheduleKind;
use tpcp_storage::{PolicyKind, PrefetchConfig};

/// An invalid configuration detected by a builder's `build()`.
///
/// Converts into [`TwoPcpError::Config`] at the pipeline boundary, so
/// `?` works in driver code while builder call sites keep the precise
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
/// The individual crates own their variables' grammar ([`ParConfig`],
/// [`PrefetchConfig`], [`tpcp_storage::shards_auto`],
/// [`tpcp_storage::mmap_auto`]); this type records *which* variables are
/// actually set and their parsed values, and [`TwoPcpConfig::new`] is
/// the single place in the driver that applies them — everything built
/// on a config (examples, tests, the serving daemon) inherits the
/// environment through it.
#[derive(Clone, Debug, Default)]
pub struct EnvOverrides {
    /// `TPCP_THREADS` → shared worker-thread budget.
    pub par: Option<ParConfig>,
    /// `TPCP_PREFETCH` → prefetch pipeline depth / off.
    pub prefetch: Option<PrefetchConfig>,
    /// `TPCP_SHARDS` → unit-store shard count.
    pub shards: Option<usize>,
    /// `TPCP_MMAP` → zero-copy page read path.
    pub mmap: Option<bool>,
    /// `TPCP_SERVE_ADDR` → serving daemon listen address.
    pub serve_addr: Option<String>,
}

impl EnvOverrides {
    /// Reads every override from the process environment. Variables that
    /// are unset stay `None`; set variables parse under their owning
    /// crate's rules (malformed values fall back to that crate's
    /// defaults, exactly as before this type existed).
    pub fn from_env() -> Self {
        let set = |name: &str| std::env::var_os(name).is_some();
        EnvOverrides {
            par: set(tpcp_par::THREADS_ENV_VAR).then(ParConfig::auto),
            prefetch: set(tpcp_storage::PREFETCH_ENV_VAR).then(PrefetchConfig::auto),
            shards: set(tpcp_storage::SHARDS_ENV_VAR).then(tpcp_storage::shards_auto),
            mmap: set(tpcp_storage::MMAP_ENV_VAR).then(tpcp_storage::mmap_auto),
            serve_addr: std::env::var(SERVE_ADDR_ENV_VAR).ok(),
        }
    }

    /// Applies the set overrides to `config`, leaving unset knobs alone.
    #[must_use]
    pub fn apply(&self, mut config: TwoPcpConfig) -> TwoPcpConfig {
        if let Some(par) = self.par {
            config.par = par;
        }
        if let Some(prefetch) = self.prefetch {
            config.prefetch = prefetch;
        }
        if let Some(shards) = self.shards {
            config.shards = shards;
        }
        if let Some(mmap) = self.mmap {
            config.mmap = mmap;
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
    /// (defaults to [`PrefetchConfig::auto`], i.e. the `TPCP_PREFETCH`
    /// override or an enabled depth-4 pipeline). Prefetch moves bytes,
    /// never values — fit traces, factors and swap counts are
    /// bit-identical with the pipeline on or off.
    pub prefetch: PrefetchConfig,
    /// Number of unit-store shards the driver routes data-access units
    /// across ([`tpcp_storage::ShardedStore`]): Phase 1 emits units
    /// shard-by-shard and Phase 2 reads route transparently (defaults to
    /// [`tpcp_storage::shards_auto`], i.e. the `TPCP_SHARDS` override or
    /// a single unsharded store). Sharding moves bytes, never values —
    /// factors, fits and swap counts are bit-identical at any shard
    /// count.
    pub shards: usize,
    /// The zero-copy page read path: with mmap on, the on-disk unit
    /// stores decode pages directly from memory maps — no scratch-buffer
    /// copy — and hand the buffer pool borrowed page slabs, so a resident
    /// unit materialises with exactly one copy (map → `Mat`). Defaults to
    /// [`tpcp_storage::mmap_auto`], i.e. the `TPCP_MMAP` override or off.
    /// Mmap moves bytes, never values — factors, fits and swap counts are
    /// bit-identical with the flag on or off; irrelevant for in-memory
    /// stores (`work_dir: None`).
    pub mmap: bool,
    /// The compute-kernel backend for every dense product under both
    /// phases (matmul/gram/MTTKRP): the register-blocked tiled
    /// microkernels (default) or the reference scalar loops the
    /// equivalence suites pin them against. The two are bit-identical —
    /// factors, fits and swap counts never depend on this field.
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
            shards: 1,
            mmap: false,
            kernel: KernelKind::Tiled,
            compress: None,
        })
    }

    /// A validating builder over the same defaults as
    /// [`TwoPcpConfig::new`] (environment overrides included).
    pub fn builder() -> TwoPcpConfigBuilder {
        TwoPcpConfigBuilder {
            config: TwoPcpConfig::new(0),
            rank_set: false,
        }
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

    /// Sets the unit-store shard count (`1` = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Switches the zero-copy (mmap-backed) page read path on or off.
    pub fn mmap(mut self, mmap: bool) -> Self {
        self.mmap = mmap;
        self
    }

    /// Sets the compute-kernel backend (bit-identical across backends;
    /// trades speed only).
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.kernel = kernel;
        self
    }

    /// Enables compress-then-decompose with explicit [`CompressOptions`].
    pub fn compress(mut self, options: CompressOptions) -> Self {
        self.compress = Some(options);
        self
    }

    /// Resolves the partition vector for an order-`n` tensor (broadcasting
    /// a singleton) and validates the configuration.
    ///
    /// # Errors
    /// [`TwoPcpError::Config`] on invalid rank, partitioning or buffer
    /// fraction.
    pub fn resolved_parts(&self, order: usize) -> Result<Vec<usize>> {
        if self.rank == 0 {
            return Err(TwoPcpError::Config {
                reason: "rank must be positive".into(),
            });
        }
        if self.buffer_fraction <= 0.0 {
            return Err(TwoPcpError::Config {
                reason: "buffer_fraction must be positive".into(),
            });
        }
        if self.shards == 0 {
            return Err(TwoPcpError::Config {
                reason: "shard count must be positive".into(),
            });
        }
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
        if parts.contains(&0) {
            return Err(TwoPcpError::Config {
                reason: "partition counts must be positive".into(),
            });
        }
        Ok(parts)
    }
}

/// Builder for [`TwoPcpConfig`] whose [`build`](TwoPcpConfigBuilder::build)
/// rejects invalid settings up front, instead of deferring every mistake
/// to `resolved_parts` deep inside a run.
#[derive(Clone, Debug)]
pub struct TwoPcpConfigBuilder {
    config: TwoPcpConfig,
    rank_set: bool,
}

impl TwoPcpConfigBuilder {
    /// Sets the decomposition rank `F` (required).
    pub fn rank(mut self, rank: usize) -> Self {
        self.config.rank = rank;
        self.rank_set = true;
        self
    }

    /// Sets the per-mode partition counts.
    pub fn parts(mut self, parts: Vec<usize>) -> Self {
        self.config = self.config.parts(parts);
        self
    }

    /// Sets the Phase-2 update schedule.
    pub fn schedule(mut self, schedule: ScheduleKind) -> Self {
        self.config = self.config.schedule(schedule);
        self
    }

    /// Sets the buffer replacement policy.
    pub fn policy(mut self, policy: PolicyKind) -> Self {
        self.config = self.config.policy(policy);
        self
    }

    /// Sets the buffer size as a fraction of the total space requirement.
    pub fn buffer_fraction(mut self, fraction: f64) -> Self {
        self.config = self.config.buffer_fraction(fraction);
        self
    }

    /// Sets the virtual-iteration budget.
    pub fn max_virtual_iters(mut self, iters: usize) -> Self {
        self.config = self.config.max_virtual_iters(iters);
        self
    }

    /// Sets the Phase-2 stopping tolerance.
    pub fn tol(mut self, tol: f64) -> Self {
        self.config = self.config.tol(tol);
        self
    }

    /// Sets the random seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config = self.config.seed(seed);
        self
    }

    /// Uses an on-disk unit store rooted at `dir`.
    pub fn work_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.config = self.config.work_dir(dir);
        self
    }

    /// Sets the sub-factor initialisation strategy.
    pub fn init(mut self, init: InitKind) -> Self {
        self.config = self.config.init(init);
        self
    }

    /// Sets the Phase-1 options.
    pub fn phase1(mut self, phase1: Phase1Options) -> Self {
        self.config = self.config.phase1(phase1);
        self
    }

    /// Sets the shared worker-thread budget (`0` = decide automatically).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config = self.config.threads(threads);
        self
    }

    /// Sets the shared thread budget from an explicit [`ParConfig`].
    pub fn par(mut self, par: ParConfig) -> Self {
        self.config = self.config.par(par);
        self
    }

    /// Sets the Phase-2 prefetch pipeline configuration.
    pub fn prefetch(mut self, prefetch: PrefetchConfig) -> Self {
        self.config = self.config.prefetch(prefetch);
        self
    }

    /// Sets the unit-store shard count (`1` = unsharded).
    pub fn shards(mut self, shards: usize) -> Self {
        self.config = self.config.shards(shards);
        self
    }

    /// Switches the zero-copy (mmap-backed) page read path on or off.
    pub fn mmap(mut self, mmap: bool) -> Self {
        self.config = self.config.mmap(mmap);
        self
    }

    /// Sets the compute-kernel backend (bit-identical across backends;
    /// trades speed only).
    pub fn kernel(mut self, kernel: KernelKind) -> Self {
        self.config = self.config.kernel(kernel);
        self
    }

    /// Enables compress-then-decompose with explicit [`CompressOptions`]
    /// (validated at [`build`](TwoPcpConfigBuilder::build)).
    pub fn compress(mut self, options: CompressOptions) -> Self {
        self.config = self.config.compress(options);
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    /// [`ConfigError`] when the rank is zero or unset, the buffer
    /// fraction is not positive, the partition vector is empty or
    /// contains zeros, the shard count is zero, or the compress options
    /// are invalid.
    pub fn build(self) -> std::result::Result<TwoPcpConfig, ConfigError> {
        let c = &self.config;
        if !self.rank_set {
            return Err(ConfigError::new("rank is required — call .rank(F)"));
        }
        if let Some(compress) = &c.compress {
            tpcp_cp::validate_compress_options(compress)
                .map_err(|e| ConfigError::new(format!("compress: {e}")))?;
        }
        if c.rank == 0 {
            return Err(ConfigError::new("rank must be positive"));
        }
        // `partial_cmp` so NaN (incomparable) is rejected too.
        if c.buffer_fraction.partial_cmp(&0.0) != Some(std::cmp::Ordering::Greater) {
            return Err(ConfigError::new("buffer_fraction must be positive"));
        }
        if c.parts.is_empty() {
            return Err(ConfigError::new("parts must not be empty"));
        }
        if c.parts.contains(&0) {
            return Err(ConfigError::new("partition counts must be positive"));
        }
        if c.shards == 0 {
            return Err(ConfigError::new("shard count must be positive"));
        }
        Ok(self.config)
    }
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
        let cfg = cfg.shards(3);
        assert_eq!(cfg.shards, 3);
        let cfg = cfg.mmap(true);
        assert!(cfg.mmap);
        let cfg = cfg.mmap(false);
        assert!(!cfg.mmap);
        assert_eq!(cfg.par(ParConfig::serial()).par, ParConfig::serial());
    }

    #[test]
    fn kernel_setters_chain() {
        let cfg = TwoPcpConfig::new(4).kernel(KernelKind::Reference);
        assert_eq!(cfg.kernel, KernelKind::Reference);
        let cfg = TwoPcpConfig::builder()
            .rank(4)
            .kernel(KernelKind::Tiled)
            .build()
            .unwrap();
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
        assert!(TwoPcpConfig::new(2).shards(0).resolved_parts(3).is_err());
    }
}
