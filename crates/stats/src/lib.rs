//! Statistical substrate for the `hdp-osr` workspace.
//!
//! Everything the HDP sampler, the SVM baselines and the evaluation harness
//! need that is "statistics rather than linear algebra" lives here:
//!
//! * [`special`] — log-gamma, digamma, multivariate log-gamma, log-sum-exp,
//! * [`sampling`] — RNG-driven draws from normal / gamma / beta / Dirichlet /
//!   categorical distributions (all hand-rolled on top of `rand`'s uniform
//!   source, since the workspace deliberately avoids `rand_distr`),
//! * [`mvn`] — the multivariate Student-t log-density, the NIW posterior
//!   predictive that the [`niw`] oracle evaluates and the bank kernels match,
//! * [`bank`] — the struct-of-arrays [`DishBank`] of NIW posteriors with
//!   precomputed predictive constants and the two fused predictive kernels
//!   (one-vs-all collective scoring, batch-vs-one block predictives) that
//!   form the sampler's vectorized hot path,
//! * [`niw`] — the Normal–Inverse-Wishart conjugate family with O(d²)
//!   incremental posterior updates; this is the engine room of the collapsed
//!   Gibbs sampler (the paper's Gaussian–Wishart base measure H, Eq. 9, in
//!   its equivalent (μ, Σ) parameterization),
//! * [`weibull`] — Weibull distribution and maximum-likelihood tail fitting,
//!   i.e. the statistical extreme-value-theory machinery behind the W-SVM,
//!   W-OSVM and P_I-SVM baselines,
//! * [`descriptive`] — means, standard deviations and quantiles for the
//!   experiment reports,
//! * [`metrics`] — the lock-free process-wide metrics registry (named
//!   counters, gauges, log2-bucketed histograms) every crate reports into,
//! * [`counters`] — the legacy free-function instrumentation API, now backed
//!   by named metrics in the [`metrics`] registry,
//! * [`diagnostics`] — MCMC convergence diagnostics (split-R̂, effective
//!   sample size, burn-in recommendation) over per-sweep scalar traces,
//! * [`snapshot`] — the deterministic, versioned, CRC-checked snapshot
//!   container format (byte codec, writer/reader, typed corruption errors)
//!   that durable posterior checkpoints are written in,
//! * [`divergence`] — the thread-local numerical-divergence flag polled by
//!   the serving watchdog,
//! * [`faults`] — the deterministic fault-injection harness (named sites
//!   that stay inert, at one relaxed load each, until a test installs a
//!   fault plan).

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod bank;
pub mod counters;
pub mod descriptive;
pub mod diagnostics;
pub mod divergence;
pub mod faults;
pub mod metrics;
pub mod mvn;
pub mod niw;
pub mod sampling;
pub mod snapshot;
pub mod special;
pub mod weibull;

pub use bank::{BlockStats, DishBank, Slot};
pub use niw::{factor_spd_with_jitter, NiwParams, NiwPosterior};
pub use snapshot::{SnapshotError, SNAPSHOT_FORMAT_VERSION};
pub use weibull::{Weibull, WeibullFit};

/// Errors produced by the statistical routines.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was out of its domain (message explains).
    InvalidParameter(String),
    /// Not enough data points for the requested fit.
    NotEnoughData {
        /// Points required.
        needed: usize,
        /// Points supplied.
        got: usize,
    },
    /// An iterative fit failed to converge.
    NoConvergence(String),
    /// Propagated linear-algebra failure (e.g. singular scale matrix).
    Linalg(osr_linalg::LinalgError),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            Self::NotEnoughData { needed, got } => {
                write!(f, "not enough data: needed {needed}, got {got}")
            }
            Self::NoConvergence(msg) => write!(f, "no convergence: {msg}"),
            Self::Linalg(e) => write!(f, "linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for StatsError {}

impl From<osr_linalg::LinalgError> for StatsError {
    fn from(e: osr_linalg::LinalgError) -> Self {
        Self::Linalg(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
