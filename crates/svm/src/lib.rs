//! Support vector machines for the `hdp-osr` baselines.
//!
//! The paper's comparison methods (1-vs-Set, W-OSVM, W-SVM, P_I-SVM) are all
//! built on LIBSVM; this crate re-implements the two solvers they need from
//! the primal sources:
//!
//! * [`BinarySvm`] — C-SVC trained with Sequential Minimal Optimization
//!   using maximal-violating-pair working-set selection (LIBSVM's WSS-1),
//! * [`OneClassSvm`] — Schölkopf's one-class ν-SVM, same SMO core with the
//!   `Σα = 1` equality constraint,
//! * [`Kernel`] — linear, RBF and polynomial kernels.
//!
//! The one-vs-rest stages of 1-vs-Set, W-SVM and P_I-SVM train one
//! [`BinarySvm`] per class themselves, because each fits its open-space
//! boundary (a slab or a Weibull model) on that class's own training scores.
//!
//! Decision values are exact dual evaluations (no probability squashing);
//! the open-set baselines apply their own Weibull calibration downstream.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod kernel;
mod oneclass;
mod smo;

pub use kernel::Kernel;
pub use oneclass::{OneClassParams, OneClassSvm};
pub use smo::{BinarySvm, SvmParams};

/// Errors produced while training SVMs.
#[derive(Debug, Clone, PartialEq)]
pub enum SvmError {
    /// Training data was empty or single-class where two classes are needed.
    DegenerateTrainingSet(String),
    /// A parameter was out of range (message explains).
    InvalidParameter(String),
}

impl std::fmt::Display for SvmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::DegenerateTrainingSet(msg) => write!(f, "degenerate training set: {msg}"),
            Self::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
        }
    }
}

impl std::error::Error for SvmError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, SvmError>;
