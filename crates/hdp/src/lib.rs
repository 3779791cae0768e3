//! Hierarchical Dirichlet Process with collapsed Chinese-Restaurant-Franchise
//! Gibbs sampling (Teh et al. 2006) — the generative engine of HDP-OSR.
//!
//! The model (paper Eq. 4):
//!
//! ```text
//! G₀ | γ, H   ~ DP(γ, H)
//! G_j | α₀, G₀ ~ DP(α₀, G₀)          for each group j
//! θ_ji | G_j  ~ G_j                   for each item i of group j
//! x_ji | θ_ji ~ N(· | θ_ji)
//! ```
//!
//! In the franchise metaphor each *group* is a restaurant, each mixture
//! component in a restaurant is a *table* `t_ji`, and tables across all
//! restaurants share a global menu of *dishes* `k_jt` — the subclasses of
//! HDP-OSR. The base measure `H` is Normal–Inverse-Wishart, so both indicator
//! families are sampled with everything else integrated out
//! (Eq. 7 for tables, Eq. 8 for dishes).
//!
//! Concentration parameters carry the paper's vague Gamma priors
//! (γ ~ Gamma(100, 1), α₀ ~ Gamma(10, 1), §4.1.2) and are resampled each
//! sweep with the Escobar–West (γ) and Teh-et-al. auxiliary-variable (α₀)
//! schemes.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod concentration;
mod engine;
mod persist;
mod points;
mod sampler;
mod session;
mod state;
mod trace;
mod watchdog;

pub use concentration::{resample_alpha, resample_gamma};
pub use points::Points;
pub use sampler::Hdp;
pub use session::PosteriorSnapshot;
pub use state::{DishId, DishSummary, GroupSummary, HdpConfig};
pub use trace::{
    SweepTrace, ALPHA_METRIC, GAMMA_METRIC, SEAT_MOVES_METRIC, SWEEPS_METRIC, SWEEP_TIME_METRIC,
};
pub use watchdog::Divergence;

/// Errors produced while building or running an HDP.
#[derive(Debug, Clone, PartialEq)]
pub enum HdpError {
    /// The group structure was unusable (empty, ragged dimensions, …).
    InvalidGroups(String),
    /// Invalid configuration value.
    InvalidConfig(String),
    /// Propagated statistical failure (e.g. bad NIW hyperparameters).
    Stats(osr_stats::StatsError),
}

impl std::fmt::Display for HdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidGroups(msg) => write!(f, "invalid groups: {msg}"),
            Self::InvalidConfig(msg) => write!(f, "invalid config: {msg}"),
            Self::Stats(e) => write!(f, "statistics failure: {e}"),
        }
    }
}

impl std::error::Error for HdpError {}

impl From<osr_stats::StatsError> for HdpError {
    fn from(e: osr_stats::StatsError) -> Self {
        Self::Stats(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, HdpError>;
