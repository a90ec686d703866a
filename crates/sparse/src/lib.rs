#![warn(missing_docs)]

//! # abr-sparse
//!
//! Sparse linear-algebra substrate for the `block-async-relax` workspace.
//!
//! This crate provides everything the relaxation solvers in `abr-core` need
//! from a linear-algebra library:
//!
//! * matrix formats ([`CooMatrix`], [`CsrMatrix`], [`DenseMatrix`]) with
//!   conversions, transposition, and sparse matrix–matrix products
//!   ([`csr::CsrMatrix::spgemm`]),
//! * level-1 vector kernels ([`blas1`]),
//! * deterministic generators reproducing the structure and iteration-matrix
//!   properties of the University of Florida test matrices used by the paper
//!   ([`gen`]),
//! * spectral estimation — power iteration and symmetric Lanczos — used to
//!   compute the `rho(B)` / condition-number columns of Table 1 ([`spectra`]),
//! * row-block partitioning for the block-asynchronous method ([`partition`]),
//! * precompiled block-local kernel plans — packed local/halo operators
//!   with pre-inverted diagonals — for allocation-free sweeps ([`block_plan`]),
//! * reverse Cuthill–McKee reordering ([`reorder`]),
//! * diagonal and tau-scaling ([`scaling`]),
//! * MatrixMarket I/O ([`io`]) and the byte-level number scanner it
//!   shares with the workspace's JSON codec ([`scan`]).
//!
//! All floating-point work is `f64`; indices are `usize`.

pub mod blas1;
pub mod block_plan;
pub mod coo;
pub mod csr;
pub mod dense;
pub mod gen;
pub mod io;
pub mod iteration_matrix;
pub mod par;
pub mod partition;
pub mod reorder;
pub mod scaling;
pub mod scan;
pub mod simd;
pub mod spectra;
pub mod stats;
pub mod stencil;

pub use block_plan::{BlockEll, BlockPlan, SweepTier};
pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use iteration_matrix::IterationMatrix;
pub use par::ParContext;
pub use partition::RowPartition;
pub use stencil::{GridShape, StencilBlock, StencilDescriptor, StencilTap};

use std::fmt;

/// Errors produced by the sparse substrate.
#[derive(Debug, Clone, PartialEq)]
pub enum SparseError {
    /// A matrix/vector dimension did not match what the operation required.
    DimensionMismatch {
        /// human-readable description of the operation
        op: &'static str,
        /// expected size
        expected: usize,
        /// size that was found
        found: usize,
    },
    /// An entry index was outside the matrix.
    IndexOutOfBounds {
        /// offending row index
        row: usize,
        /// offending column index
        col: usize,
        /// matrix row count
        n_rows: usize,
        /// matrix column count
        n_cols: usize,
    },
    /// The matrix has a zero (or missing) diagonal entry where one is needed.
    ZeroDiagonal {
        /// the row whose diagonal entry is zero/missing
        row: usize,
    },
    /// Parsing a MatrixMarket file failed.
    Parse(String),
    /// An iterative estimator failed to converge.
    NoConvergence {
        /// which estimator gave up
        what: &'static str,
        /// the iteration budget it exhausted
        iterations: usize,
    },
    /// Generator parameter search failed (e.g. bisection bracket invalid).
    Generator(String),
    /// A stencil descriptor was malformed or failed the cross-check
    /// against an assembled matrix.
    Stencil(String),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::DimensionMismatch { op, expected, found } => {
                write!(f, "dimension mismatch in {op}: expected {expected}, found {found}")
            }
            SparseError::IndexOutOfBounds { row, col, n_rows, n_cols } => {
                write!(f, "index ({row}, {col}) out of bounds for {n_rows}x{n_cols} matrix")
            }
            SparseError::ZeroDiagonal { row } => {
                write!(f, "zero or missing diagonal entry at row {row}")
            }
            SparseError::Parse(msg) => write!(f, "parse error: {msg}"),
            SparseError::NoConvergence { what, iterations } => {
                write!(f, "{what} did not converge within {iterations} iterations")
            }
            SparseError::Generator(msg) => write!(f, "generator error: {msg}"),
            SparseError::Stencil(msg) => write!(f, "stencil error: {msg}"),
        }
    }
}

impl std::error::Error for SparseError {}

/// Convenient result alias for the crate.
pub type Result<T> = std::result::Result<T, SparseError>;
