//! CP (CANDECOMP/PARAFAC) decomposition via alternating least squares.
//!
//! Implements the standard PARAFAC algorithm the paper uses as its Phase-1
//! per-block decomposer and as the "Naive CP" baseline of Table II:
//!
//! * [`CpModel`] — rank-F factor matrices plus component weights `λ`,
//! * [`mttkrp_dense`] / [`mttkrp_sparse`] — the matricised-tensor times
//!   Khatri-Rao product, the dominant kernel of ALS,
//! * [`cp_als_dense`] / [`cp_als_sparse`] — the ALS driver with seeded
//!   random initialisation, per-iteration fit monitoring via the Gram
//!   identity (no reconstruction materialised), and ridge-stabilised
//!   normal-equation solves.
//!
//! The decomposition accuracy measure follows §III-B:
//! `accuracy(X, X̃) = 1 − ‖X̃ − X‖ / ‖X‖` (the "fit").

#![forbid(unsafe_code)]

mod als;
mod compress;
mod dimtree;
mod model;
mod mttkrp;

pub use als::{cp_als_dense, cp_als_sparse, AlsOptions, AlsOptionsBuilder, AlsReport};
pub use compress::{validate_compress_options, CompressOptions, CompressOptionsBuilder};
pub use dimtree::{per_mode_sweep_flops, DimTree, SweepSequence};
pub use model::CpModel;
pub use mttkrp::{mttkrp_dense, mttkrp_dense_kernel, mttkrp_sparse, mttkrp_sparse_par};

/// Errors surfaced by CP routines.
#[derive(Debug, Clone, PartialEq)]
pub enum CpError {
    /// Underlying linear-algebra failure (shape or singularity).
    Linalg(tpcp_linalg::LinalgError),
    /// Underlying tensor failure.
    Tensor(tpcp_tensor::TensorError),
    /// The requested rank is zero.
    ZeroRank,
    /// Factor list inconsistent with the tensor.
    BadFactors {
        /// Explanation of the inconsistency.
        reason: String,
    },
    /// An options struct failed validation (e.g. [`CompressOptions`]).
    BadOptions {
        /// Explanation of the invalid setting.
        reason: String,
    },
}

impl std::fmt::Display for CpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CpError::Linalg(e) => write!(f, "linalg error: {e}"),
            CpError::Tensor(e) => write!(f, "tensor error: {e}"),
            CpError::ZeroRank => write!(f, "decomposition rank must be positive"),
            CpError::BadFactors { reason } => write!(f, "bad factors: {reason}"),
            CpError::BadOptions { reason } => write!(f, "bad options: {reason}"),
        }
    }
}

impl std::error::Error for CpError {}

impl From<tpcp_linalg::LinalgError> for CpError {
    fn from(e: tpcp_linalg::LinalgError) -> Self {
        CpError::Linalg(e)
    }
}

impl From<tpcp_tensor::TensorError> for CpError {
    fn from(e: tpcp_tensor::TensorError) -> Self {
        CpError::Tensor(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, CpError>;
