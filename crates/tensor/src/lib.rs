//! Dense and sparse tensor types for the 2PCP reproduction.
//!
//! Tensors are N-mode arrays (paper §III-A). This crate provides:
//!
//! * [`DenseTensor`] — contiguous row-major storage (last mode fastest),
//!   the representation for the "relatively dense tensors common in
//!   scientific and engineering applications" the paper targets;
//! * [`SparseTensor`] — coordinate (COO) storage in struct-of-arrays form,
//!   used for the Epinions/Ciao/Enron-like evaluation datasets and by the
//!   HaTen2-style baseline;
//! * mode-`n` unfolding (matricisation) compatible with
//!   [`tpcp_linalg::khatri_rao`]'s row ordering, so that
//!   `X_(n) ≈ A⁽ⁿ⁾ · KR(factors ≠ n)ᵀ` holds exactly;
//! * seeded random generation primitives used by the dataset generators.

#![forbid(unsafe_code)]

mod dense;
mod gen;
mod shape;
mod sparse;

pub use dense::DenseTensor;
pub use gen::{random_dense, random_factor, sparse_support_dense};
pub use shape::{advance_index, iter_indices, linear_index, multi_index, num_elements, strides};
pub use sparse::{SparseBuilder, SparseTensor};

/// Errors surfaced by tensor operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TensorError {
    /// An index fell outside the tensor's dimensions.
    IndexOutOfBounds {
        /// The offending multi-index.
        index: Vec<usize>,
        /// The tensor dimensions.
        dims: Vec<usize>,
    },
    /// Two tensors (or a tensor and a factor set) disagree on shape.
    ShapeMismatch {
        /// Description of the operation.
        op: &'static str,
        /// Expected shape.
        expected: Vec<usize>,
        /// Actual shape.
        actual: Vec<usize>,
    },
    /// A mode argument exceeded the tensor order.
    InvalidMode {
        /// The requested mode.
        mode: usize,
        /// The tensor order (number of modes).
        order: usize,
    },
}

impl std::fmt::Display for TensorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TensorError::IndexOutOfBounds { index, dims } => {
                write!(f, "index {index:?} out of bounds for dims {dims:?}")
            }
            TensorError::ShapeMismatch {
                op,
                expected,
                actual,
            } => {
                write!(
                    f,
                    "shape mismatch in {op}: expected {expected:?}, got {actual:?}"
                )
            }
            TensorError::InvalidMode { mode, order } => {
                write!(f, "mode {mode} invalid for order-{order} tensor")
            }
        }
    }
}

impl std::error::Error for TensorError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TensorError>;
