//! Dense linear algebra substrate for the `hdp-osr` workspace.
//!
//! The HDP-OSR sampler and the SVM/EVT baselines only ever need small dense
//! matrices (feature dimension ≤ a few hundred), so this crate implements a
//! compact, allocation-conscious dense toolkit rather than binding to BLAS:
//!
//! * [`Matrix`] — row-major dense matrix with the usual arithmetic,
//! * [`Cholesky`] — SPD factorization with solves, inverse, log-determinant,
//!   and numerically careful rank-1 updates/downdates (the inner loop of the
//!   collapsed Gibbs sampler),
//! * [`SymEigen`] — cyclic Jacobi eigendecomposition for symmetric matrices,
//! * [`Pca`] — principal component analysis built on the above (used to
//!   project the USPS replica to 39 dimensions exactly as the paper does),
//! * [`vector`] — free functions over `&[f64]` slices (dot products, norms,
//!   distances) shared by every crate in the workspace,
//! * [`lanes`] — explicit-width f64 lane helpers (a 4-wide axpy and the
//!   Givens column rotations) backing the vectorized predictive kernels of
//!   the dish bank.
//!
//! All routines are deterministic and panic-free on well-formed input;
//! failure modes that depend on the *values* (e.g. a non-positive-definite
//! matrix handed to Cholesky) surface as [`LinalgError`].

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod cholesky;
mod eigen;
mod error;
pub mod lanes;
mod matrix;
mod pca;
pub mod vector;

pub use cholesky::Cholesky;
pub use eigen::SymEigen;
pub use error::LinalgError;
pub use matrix::Matrix;
pub use pca::Pca;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, LinalgError>;
