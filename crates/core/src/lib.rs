//! **2PCP** — two-phase, block-based CP decomposition for dense tensors
//! that do not fit in memory, with I/O-reducing update schedules and
//! schedule-aware buffer replacement.
//!
//! Reproduction of Li, Huang, Candan & Sapino, *"2PCP: Two-Phase CP
//! Decomposition for Billion-Scale Dense Tensors"*, ICDE 2016.
//!
//! # The algorithm
//!
//! * **Phase 1** ([`phase1`]): the input tensor is partitioned into a grid
//!   of sub-tensors (blocks); each block is independently decomposed by
//!   CP-ALS on the shared [`tpcp_par`] thread budget, producing per-block
//!   *sub-factors* `U(i)_k`.
//! * **Phase 2** ([`phase2`]): the sub-factors are stitched into global
//!   factor matrices by iterative refinement of the update rule
//!   `A(i)(kᵢ) ← T(i)(kᵢ) · S(i)(kᵢ)⁻¹` (paper eq. 3), executed
//!   *out-of-core*: factor data lives in a [`tpcp_storage`] unit store and
//!   is staged through a byte-budgeted buffer pool. The order of updates is
//!   a [`tpcp_schedule`] update schedule (mode-centric, fiber, Z- or
//!   Hilbert-order) and evictions follow LRU, MRU or the forward-looking
//!   schedule-aware policy.
//!
//! # Quick start
//!
//! ```
//! use twopcp::{TwoPcp, TwoPcpConfig};
//! use tpcp_schedule::ScheduleKind;
//! use tpcp_storage::PolicyKind;
//!
//! // A small dense tensor (random low-rank for the example).
//! use rand::SeedableRng;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let x = tpcp_tensor::random_dense(&[16, 16, 16], &mut rng);
//!
//! let config = TwoPcpConfig::new(4)          // rank F = 4
//!     .parts(vec![2, 2, 2])                   // 2×2×2 block grid
//!     .schedule(ScheduleKind::HilbertOrder)   // HO traversal
//!     .policy(PolicyKind::Forward)            // forward-looking eviction
//!     .buffer_fraction(0.5);                  // half the total working set
//!
//! let outcome = TwoPcp::new(config).decompose_dense(&x).unwrap();
//! println!("fit = {:.3}, swaps = {}", outcome.fit, outcome.phase2.io.swaps());
//! ```

#![forbid(unsafe_code)]

pub mod accuracy;
pub mod naive;
pub mod phase1;
pub mod phase2;
pub mod swapsim;

mod config;
mod driver;
mod model;
mod pq;
mod stream;
mod update;

pub use config::{
    ConfigError, EnvOverrides, InitKind, Phase1Options, TwoPcpConfig, SERVE_ADDR_ENV_VAR,
};
pub use driver::{TwoPcp, TwoPcpOutcome};
pub use model::{Model, ModelMeta, MODEL_EXT, MODEL_MAGIC, MODEL_VERSION};
pub use naive::{naive_cp_out_of_core, NaiveOocOptions, NaiveOocReport};
pub use phase1::{run_phase1_source, Phase1Result};
pub use phase2::{refine, RefineOutcome, RefineStats};
pub use pq::QHadamardStats;
pub use swapsim::{simulate_swaps, unit_bytes, SwapReport, SwapSimConfig};
// Re-exported so prefetch and the compression pipeline can be configured
// without importing `tpcp-storage` / `tpcp-cp` / `tpcp-compress` directly.
pub use tpcp_compress::CompressProvenance;
pub use tpcp_cp::CompressOptions;
pub use tpcp_storage::PrefetchConfig;

/// Errors surfaced by the 2PCP pipeline.
#[derive(Debug)]
pub enum TwoPcpError {
    /// Linear-algebra failure.
    Linalg(tpcp_linalg::LinalgError),
    /// Tensor-shape failure.
    Tensor(tpcp_tensor::TensorError),
    /// CP/ALS failure.
    Cp(tpcp_cp::CpError),
    /// Storage / buffer-pool failure.
    Storage(tpcp_storage::StorageError),
    /// Streaming block-ingest failure.
    Ingest(tpcp_partition::SourceError),
    /// A parallel worker panicked; the panic was caught by [`tpcp_par`]
    /// and surfaced as this error instead of unwinding the process.
    WorkerPanic {
        /// The stringified panic payload.
        message: String,
    },
    /// Invalid configuration.
    Config {
        /// Explanation of the invalid setting.
        reason: String,
    },
    /// Malformed model container or invalid model query.
    Model {
        /// Explanation of the failure.
        reason: String,
    },
}

impl std::fmt::Display for TwoPcpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TwoPcpError::Linalg(e) => write!(f, "linalg: {e}"),
            TwoPcpError::Tensor(e) => write!(f, "tensor: {e}"),
            TwoPcpError::Cp(e) => write!(f, "cp: {e}"),
            TwoPcpError::Storage(e) => write!(f, "storage: {e}"),
            TwoPcpError::Ingest(e) => write!(f, "ingest: {e}"),
            TwoPcpError::WorkerPanic { message } => write!(f, "worker panicked: {message}"),
            TwoPcpError::Config { reason } => write!(f, "config: {reason}"),
            TwoPcpError::Model { reason } => write!(f, "model: {reason}"),
        }
    }
}

impl std::error::Error for TwoPcpError {}

impl From<tpcp_linalg::LinalgError> for TwoPcpError {
    fn from(e: tpcp_linalg::LinalgError) -> Self {
        TwoPcpError::Linalg(e)
    }
}
impl From<tpcp_tensor::TensorError> for TwoPcpError {
    fn from(e: tpcp_tensor::TensorError) -> Self {
        TwoPcpError::Tensor(e)
    }
}
impl From<tpcp_cp::CpError> for TwoPcpError {
    fn from(e: tpcp_cp::CpError) -> Self {
        TwoPcpError::Cp(e)
    }
}
impl From<tpcp_compress::CompressError> for TwoPcpError {
    fn from(e: tpcp_compress::CompressError) -> Self {
        match e {
            tpcp_compress::CompressError::Cp(inner) => TwoPcpError::Cp(inner),
            tpcp_compress::CompressError::Source(inner) => TwoPcpError::Ingest(inner),
            tpcp_compress::CompressError::Unsupported { reason } => TwoPcpError::Config { reason },
        }
    }
}
impl From<tpcp_storage::StorageError> for TwoPcpError {
    fn from(e: tpcp_storage::StorageError) -> Self {
        TwoPcpError::Storage(e)
    }
}
impl From<std::io::Error> for TwoPcpError {
    fn from(e: std::io::Error) -> Self {
        TwoPcpError::Storage(tpcp_storage::StorageError::Io(e))
    }
}
impl From<tpcp_partition::SourceError> for TwoPcpError {
    fn from(e: tpcp_partition::SourceError) -> Self {
        TwoPcpError::Ingest(e)
    }
}
impl From<tpcp_par::ParError<TwoPcpError>> for TwoPcpError {
    fn from(e: tpcp_par::ParError<TwoPcpError>) -> Self {
        match e {
            tpcp_par::ParError::Worker(inner) => inner,
            tpcp_par::ParError::Panic { message } => TwoPcpError::WorkerPanic { message },
        }
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TwoPcpError>;
