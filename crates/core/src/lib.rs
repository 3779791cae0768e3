//! HDP-OSR — the paper's contribution: open set recognition by collective
//! decision under a Hierarchical Dirichlet Process.
//!
//! Each known class of the training set becomes one HDP *group*; the entire
//! test batch becomes one more group; all `J` groups are co-clustered with
//! the collapsed Gibbs sampler of [`osr_hdp`]. Because a DP mixture always
//! reserves probability `γ/(m_·· + γ)` for a brand-new mixture component
//! (the paper's Proposition 1), test points that no known class explains
//! spawn *new* subclasses instead of being absorbed — the model rejects
//! unknowns without any score threshold, and discovers the new categories
//! at subclass granularity as a by-product.
//!
//! The pipeline:
//!
//! 1. [`HdpOsr::fit`] — derive the base measure `H` from the training data
//!    (μ₀ = training mean, Σ₀ = ρ × pooled within-class covariance, Eq. 10)
//!    and store the per-class groups.
//! 2. [`HdpOsr::classify`] / [`HdpOsr::classify_detailed`] — append the
//!    test batch as group `J`, run the sampler (30 sweeps by default),
//!    prune subclasses carrying less than ϱ = 1 % of their group, associate
//!    each surviving subclass with the known classes that use it, and label
//!    every test point by its subclass's association (or
//!    [`Prediction::Unknown`] when it has none).
//! 3. [`discovery`] — estimate the number of unknown categories from the
//!    subclass counts (Eq. 11, reproduced in Tables 1–2).
//!
//! Serving is fit-once/serve-many by default ([`ServingMode::WarmStart`]):
//! `fit` checkpoints the converged training posterior and every batch is
//! answered from a warm clone, with [`BatchServer`] fanning independent
//! batches out over worker threads deterministically — on the same
//! dispatch executor and serve ladder as the coalescing [`Frontend`].

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod admission;
pub mod collective;
mod decision;
pub mod discovery;
pub mod frontend;
pub mod inductive;
mod model;
pub mod observability;
pub mod registry;
mod serving;
pub mod snapshot;

pub use collective::{
    AttemptError, CollectiveModel, CollectiveSession, ModelCapabilities, CDOSR_METHOD,
};
pub use decision::{ClassifyOutcome, DegradeReason, Prediction, ServedVia};
pub use discovery::SubclassReport;
pub use frontend::{
    flush_seed, flush_trace_id, FlushOutcome, Frontend, FrontendConfig, MicroBatch, QueuedRequest,
    Response,
};
pub use inductive::FrozenModel;
pub use model::{HdpOsr, HdpOsrConfig};
pub use observability::{
    batch_trace_id, BatchTrace, FitReport, FlushTrace, FlushTrigger, JsonlSink, RingSink,
    TraceRecord, TraceSink,
};
pub use registry::ModelRegistry;
pub use osr_hdp::{DishId, PosteriorSnapshot, SweepTrace};
pub use osr_stats::diagnostics::ChainDiagnostics;
pub use serving::{derive_batch_seed, fan_out, BatchServer, ServePolicy, ServingMode};
pub use snapshot::{SnapshotInfo, SnapshotStore};

/// Errors produced by the HDP-OSR pipeline.
///
/// Marked `#[non_exhaustive]`: the serving stack's failure model grows over
/// time, so downstream matches must keep a wildcard arm.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum OsrError {
    /// The training set was unusable.
    InvalidTrainingSet(String),
    /// The test batch was unusable.
    InvalidTestSet(String),
    /// Invalid configuration value.
    InvalidConfig(String),
    /// Admission control: the test batch contained no points.
    EmptyBatch,
    /// Admission control: a test point's dimension does not match the model.
    DimensionMismatch {
        /// Index of the offending point within the batch.
        point: usize,
        /// Dimension the model expects.
        expected: usize,
        /// Dimension the point actually has.
        got: usize,
    },
    /// Admission control: a test point carries a NaN or infinite feature.
    NonFiniteFeature {
        /// Index of the offending point within the batch.
        point: usize,
        /// Index of the offending coordinate.
        coord: usize,
    },
    /// The sampler diverged on this batch and every allowed attempt was
    /// consumed (degradation was disabled or impossible).
    Diverged {
        /// Serve attempts consumed, including the final failed one.
        attempts: u32,
        /// The watchdog's verdict for the last attempt.
        reason: String,
    },
    /// A serving invariant broke — a worker panicked mid-batch or a result
    /// slot was never claimed. The batch's state was discarded; sibling
    /// batches are unaffected.
    Internal(String),
    /// Front-end admission: the tenant's undispatched backlog is at its
    /// fairness bound, so the request was shed instead of queued (the
    /// caller may retry after backoff; sibling tenants are unaffected).
    Overloaded {
        /// The tenant whose queue is full.
        tenant: String,
        /// The tenant's undispatched request count at rejection time.
        depth: usize,
    },
    /// Front-end routing: no warm model is registered for the tenant and
    /// no durable snapshot could be cold-loaded for it.
    UnknownTenant(String),
    /// Propagated sampler failure.
    Hdp(osr_hdp::HdpError),
    /// Propagated statistics failure.
    Stats(osr_stats::StatsError),
    /// Durable snapshot failure: corrupted or incompatible on-disk state,
    /// or an I/O error while persisting/loading it. The typed inner variant
    /// distinguishes truncation, bit-flips, version skew, and mismatches.
    Snapshot(osr_stats::snapshot::SnapshotError),
}

impl std::fmt::Display for OsrError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidTrainingSet(m) => write!(f, "invalid training set: {m}"),
            Self::InvalidTestSet(m) => write!(f, "invalid test set: {m}"),
            Self::InvalidConfig(m) => write!(f, "invalid config: {m}"),
            Self::EmptyBatch => write!(f, "empty test batch"),
            Self::DimensionMismatch { point, expected, got } => {
                write!(f, "test point {point} has dimension {got}, expected {expected}")
            }
            Self::NonFiniteFeature { point, coord } => {
                write!(f, "test point {point} has a non-finite feature at coordinate {coord}")
            }
            Self::Diverged { attempts, reason } => {
                write!(f, "sampler diverged after {attempts} attempt(s): {reason}")
            }
            Self::Internal(m) => write!(f, "internal serving failure: {m}"),
            Self::Overloaded { tenant, depth } => {
                write!(f, "tenant {tenant} is overloaded ({depth} undispatched requests); request shed")
            }
            Self::UnknownTenant(tenant) => {
                write!(f, "no model registered or durably stored for tenant {tenant}")
            }
            Self::Hdp(e) => write!(f, "sampler failure: {e}"),
            Self::Stats(e) => write!(f, "statistics failure: {e}"),
            Self::Snapshot(e) => write!(f, "snapshot failure: {e}"),
        }
    }
}

impl std::error::Error for OsrError {}

impl From<osr_hdp::HdpError> for OsrError {
    fn from(e: osr_hdp::HdpError) -> Self {
        Self::Hdp(e)
    }
}

impl From<osr_stats::StatsError> for OsrError {
    fn from(e: osr_stats::StatsError) -> Self {
        Self::Stats(e)
    }
}

impl From<osr_stats::snapshot::SnapshotError> for OsrError {
    fn from(e: osr_stats::snapshot::SnapshotError) -> Self {
        Self::Snapshot(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, OsrError>;
