//! Evaluation harness: metrics, method adapters, validation-set tuning and
//! the randomized trial runner that regenerates the paper's figures.
//!
//! * [`metrics`] — micro-F-measure over the known classes and open-set
//!   recognition accuracy (correct classification *or* correct rejection),
//!   exactly the two quantities plotted in Figs. 4–9.
//! * [`methods`] — a uniform [`methods::MethodSpec`] wrapper over HDP-OSR
//!   and the five baselines so the runner can sweep them interchangeably.
//! * [`tuning`] — the paper's parameter-optimization phase (§4.1.1 step 7):
//!   every candidate parameterization is trained on the fitting set `F` and
//!   scored on the Closed-Set and Open-Set validation simulations; the
//!   candidate maximizing the mean of the two F-measures wins.
//! * [`experiment`] — steps 1–8 end to end: tune once, then evaluate on
//!   `trials` freshly randomized train/test splits (the paper uses 10) in
//!   parallel, reporting mean ± std.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod experiment;
pub mod methods;
pub mod metrics;
pub mod tuning;

/// Errors produced by the evaluation harness.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// Dataset/split construction failed.
    Dataset(osr_dataset::DatasetError),
    /// A method failed to train or predict (message includes the method).
    Method(String),
    /// Invalid harness configuration.
    InvalidConfig(String),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Dataset(e) => write!(f, "dataset failure: {e}"),
            Self::Method(m) => write!(f, "method failure: {m}"),
            Self::InvalidConfig(m) => write!(f, "invalid config: {m}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<osr_dataset::DatasetError> for EvalError {
    fn from(e: osr_dataset::DatasetError) -> Self {
        Self::Dataset(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, EvalError>;
