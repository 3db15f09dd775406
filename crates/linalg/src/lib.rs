//! Dense linear-algebra kernels for the 2PCP reproduction.
//!
//! This crate provides the small, self-contained subset of dense linear
//! algebra that CP-ALS and the 2PCP refinement rules require:
//!
//! * [`Mat`] — a row-major `f64` matrix with cache-friendly kernels,
//! * multiplication variants ([`Mat::matmul`], [`Mat::t_matmul`],
//!   [`Mat::matmul_t`]) and Gram matrices ([`Mat::gram`]),
//! * element-wise (Hadamard) products ([`Mat::hadamard`]) as used by the
//!   paper's `P`/`Q` caches,
//! * the Khatri-Rao (column-wise Kronecker) product ([`khatri_rao`]),
//! * SPD and general solvers ([`solve`]) used for the `A ← T · S⁻¹`
//!   update rule (paper eq. 3) and for the ALS normal equations.
//!
//! Everything is written from scratch (no BLAS/LAPACK bindings) so that the
//! repository is fully self-hosting; the kernels use blocked/reordered loops
//! per the Rust performance guidelines rather than naive triple loops.
//!
//! Every dense product runs on one set of register-tiled primitives,
//! [`kernel`], called by name. The crate is safe Rust but for one `unsafe`
//! block: the run-time choice of their AVX2 instance, taken only after the
//! CPU reported AVX2 (see [`kernel`]'s "Vector width").

#![deny(unsafe_code)]

pub mod kernel;
mod kr;
mod mat;
mod ops;
pub mod solve;

pub use kernel::KernelKind;
pub use kr::{hadamard_all, hadamard_all_into, khatri_rao, khatri_rao_into};
pub use mat::Mat;

/// Errors surfaced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Operand shapes are incompatible for the requested operation.
    ShapeMismatch {
        /// Description of the operation that failed.
        op: &'static str,
        /// Left-hand operand shape.
        lhs: (usize, usize),
        /// Right-hand operand shape.
        rhs: (usize, usize),
    },
    /// The matrix was numerically singular even after ridge stabilisation.
    Singular,
    /// A matrix that must be square was not.
    NotSquare {
        /// Actual shape of the offending matrix.
        shape: (usize, usize),
    },
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::ShapeMismatch { op, lhs, rhs } => write!(
                f,
                "shape mismatch in {op}: lhs {}x{}, rhs {}x{}",
                lhs.0, lhs.1, rhs.0, rhs.1
            ),
            LinalgError::Singular => write!(f, "matrix is singular"),
            LinalgError::NotSquare { shape } => {
                write!(f, "matrix must be square, got {}x{}", shape.0, shape.1)
            }
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
