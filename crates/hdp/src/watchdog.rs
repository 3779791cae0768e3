//! The divergence watchdog: per-sweep health verdicts for the serving layer.
//!
//! A Gibbs sweep over hostile (but admissible) data can diverge numerically:
//! seating weights may all underflow, a rank-1 Cholesky downdate may break
//! positive-definiteness past the jitter ladder, a resampled concentration
//! or the joint log-likelihood may leave the finite range. The deep
//! numerical code never panics on these — it poisons the thread-local
//! [`osr_stats::divergence`] flag and substitutes a structurally valid
//! fallback — and the checked sweep entry point
//! ([`crate::Hdp::sweep_checked_traced`]) turns the flag plus a post-sweep
//! state audit into a typed [`Divergence`] verdict. The serving layer treats
//! a divergent sweep as a failed attempt: retry with a re-derived seed, or
//! degrade to frozen inference.

use crate::state::HdpState;

/// Why the watchdog declared a sweep divergent.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// The joint log marginal likelihood left the finite range.
    NonFiniteLikelihood,
    /// A resampled concentration parameter left the finite range.
    NonFiniteConcentration {
        /// Top-level concentration γ after the sweep.
        gamma: f64,
        /// Group-level concentration α₀ after the sweep.
        alpha: f64,
    },
    /// Deep numerical code poisoned the thread's divergence flag mid-sweep
    /// (non-finite seating weights, Cholesky failure past the jitter ladder).
    Numerical(String),
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NonFiniteLikelihood => write!(f, "joint log-likelihood is not finite"),
            Self::NonFiniteConcentration { gamma, alpha } => {
                write!(f, "concentration left the finite range (gamma = {gamma}, alpha = {alpha})")
            }
            Self::Numerical(msg) => write!(f, "numerical divergence: {msg}"),
        }
    }
}

impl std::error::Error for Divergence {}

/// Post-sweep health check: consume the thread's poison flag, then audit the
/// state's concentrations and the joint log-likelihood for finiteness. The
/// likelihood is supplied by the caller — the traced sweep paths already
/// compute it for the [`crate::SweepTrace`], so the audit reuses that value
/// instead of summing the dish marginals a second time.
pub(crate) fn check_health_with_ll(
    state: &HdpState,
    joint_log_likelihood: f64,
) -> Result<(), Divergence> {
    if let Some(reason) = osr_stats::divergence::take() {
        return Err(Divergence::Numerical(reason));
    }
    if !state.gamma.is_finite() || !state.alpha.is_finite() {
        return Err(Divergence::NonFiniteConcentration { gamma: state.gamma, alpha: state.alpha });
    }
    if !joint_log_likelihood.is_finite() {
        return Err(Divergence::NonFiniteLikelihood);
    }
    Ok(())
}
