//! The method-agnostic serving contract: [`CollectiveModel`] and the
//! per-attempt [`CollectiveSession`] it opens.
//!
//! The paper's claim is comparative — the *collective* decision beats
//! per-instance recognizers — so the production serving stack must serve
//! every method, not just CD-OSR. This module is the seam: everything the
//! [`crate::BatchServer`] and [`crate::Frontend`] need from a model
//! (admission dimensionality, watchdogged attempts, a frozen fallback,
//! capability flags for the degrade ladder) is expressed here as an
//! object-safe trait, and the serve ladder holds only a
//! `&dyn CollectiveModel`. The single-batch [`crate::HdpOsr::classify`]
//! path runs the same attempt driver
//! ([`CollectiveModel::classify_collective`]).
//!
//! Two very different families implement it:
//!
//! * **CD-OSR** ([`crate::HdpOsr`]) — stochastic, sweep-based, divergence-
//!   prone. Its sessions run Gibbs sweeps under the watchdog, its reseeded
//!   retries explore new sampling paths, and its frozen fallback is MAP
//!   inference under the fit-time checkpoint.
//! * **Per-instance baselines** (`osr-baselines`' serve adapter) —
//!   deterministic, sweep-free. Their sessions plan zero sweeps, never
//!   draw from the RNG and answer in [`CollectiveSession::finish`], so a
//!   retry's reseed cannot change the answer; the frozen fallback *is* the
//!   normal per-point prediction.
//!
//! The contract is written so the server's per-sweep control flow —
//! fault-delay, budget/deadline charge, watchdogged sweep, trace capture —
//! is identical to the pre-trait implementation: CD-OSR served through
//! `&dyn CollectiveModel` produces bit-for-bit the same outcomes and
//! byte-identical trace streams as the direct path (the golden-trace suite
//! pins this).

use rand::rngs::StdRng;

use osr_dataset::protocol::TrainSet;
use osr_hdp::SweepTrace;

use crate::decision::{ClassifyOutcome, DegradeReason};
use crate::{OsrError, Result};

/// Method tag of CD-OSR in traces and outcomes. [`crate::BatchTrace`]
/// serialization omits the `method` field for this tag, keeping the CD-OSR
/// trace stream byte-identical to the pre-trait goldens; every other method
/// is stamped explicitly.
pub const CDOSR_METHOD: &str = "cdosr";

/// Which rungs of the server's degrade ladder a model can answer on. The
/// server consults these flags instead of inspecting model internals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelCapabilities {
    /// [`CollectiveModel::classify_frozen`] can answer when full service
    /// fails. When `false` an exhausted batch surfaces a typed error even
    /// under a degrading policy.
    pub frozen_fallback: bool,
    /// [`CollectiveModel::classify_from_snapshot`] can reload a durable
    /// last-good snapshot and serve from it when even the in-memory frozen
    /// fallback is unavailable. When `false` the server never consults an
    /// attached [`crate::SnapshotStore`] for this model.
    pub durable_snapshot: bool,
}

/// Why one serve attempt did not return a full outcome.
///
/// The server maps these onto its state machine: `Fatal` fails the batch in
/// place, `Diverged` burns a retry, and the resource breaches stop the
/// attempt loop and go straight to degradation.
#[derive(Debug)]
pub enum AttemptError {
    /// The attempt cannot succeed no matter how often it is retried.
    Fatal(OsrError),
    /// The watchdog declared the attempt divergent; a retry may succeed.
    Diverged(String),
    /// The batch's wall-clock deadline passed mid-attempt.
    DeadlineExceeded,
    /// The batch's total sweep budget ran out mid-attempt.
    BudgetExhausted,
}

/// One in-flight serve attempt, driven sweep-by-sweep by the server so the
/// budget/deadline accounting and trace capture stay method-agnostic.
///
/// Lifecycle: the server calls [`sweep`](Self::sweep) exactly
/// [`sweeps_planned`](Self::sweeps_planned) times (charging its budget
/// before each call), then [`finish`](Self::finish) once. A sweep-free
/// method plans zero sweeps and does all its work in `finish`.
pub trait CollectiveSession {
    /// Number of sweeps this attempt needs before it can finish.
    fn sweeps_planned(&self) -> usize;

    /// Run one watchdogged unit of work and report its trace.
    ///
    /// # Errors
    /// [`AttemptError::Diverged`] when the watchdog poisons the sweep;
    /// [`AttemptError::Fatal`] for unrecoverable failures.
    fn sweep(&mut self, rng: &mut StdRng) -> std::result::Result<SweepTrace, AttemptError>;

    /// Produce the collective outcome after all planned sweeps ran. Called
    /// at most once. The implementation stamps
    /// [`ClassifyOutcome::method`]; the server owns `trace_id` and
    /// `attempts`.
    ///
    /// # Errors
    /// Same taxonomy as [`sweep`](Self::sweep).
    fn finish(&mut self) -> std::result::Result<ClassifyOutcome, AttemptError>;
}

/// A fitted open-set model the production serving stack can drive: CD-OSR
/// or any baseline wrapped by the `osr-baselines` serve adapter.
///
/// Object-safe on purpose — [`crate::BatchServer`] holds
/// `&dyn CollectiveModel`, and the evaluation harness boxes whole method
/// lineups behind it.
pub trait CollectiveModel: Send + Sync {
    /// Stable lower-case method tag stamped into traces, outcomes, and
    /// bench reports (`"cdosr"`, `"wsvm"`, `"osnn"`, …).
    fn method(&self) -> &'static str;

    /// Feature dimension admission control validates batches against.
    fn dim(&self) -> usize;

    /// Capability flags for the server's degrade ladder.
    fn capabilities(&self) -> ModelCapabilities;

    /// Re-fit the model in place on a new training set, keeping its
    /// configuration. Lets one boxed model serve successive trials of an
    /// experiment without reconstructing the trait object.
    ///
    /// # Errors
    /// Propagates training failures; on error the previous fitted state is
    /// unspecified and the model must be refitted before serving.
    fn fit(&mut self, train: &TrainSet) -> Result<()>;

    /// Open one serve attempt over `batch` (already admitted). The returned
    /// session borrows the model's warm state; the batch is copied in.
    ///
    /// # Errors
    /// [`AttemptError::Fatal`] when the session cannot be constructed.
    fn warm_session<'s>(
        &'s self,
        batch: &[Vec<f64>],
    ) -> std::result::Result<Box<dyn CollectiveSession + 's>, AttemptError>;

    /// Degraded fallback: answer `batch` without full collective service
    /// (no sweeps, no RNG, cannot diverge), or `None` when the model keeps
    /// no state to freeze — the server then surfaces a typed error.
    /// Implementations stamp `served_via: Degraded{reason}` and `attempts`
    /// on the outcome.
    fn classify_frozen(
        &self,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome>;

    /// Last-rung fallback: reload the last-good durable snapshot from
    /// `store` and answer `batch` frozen under the reloaded checkpoint, or
    /// `None` when the store holds nothing usable (missing, corrupted, or
    /// incompatible snapshot) or the method keeps no durable state
    /// ([`ModelCapabilities::durable_snapshot`] is `false`, the default).
    fn classify_from_snapshot(
        &self,
        store: &crate::snapshot::SnapshotStore,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome> {
        let _ = (store, batch, reason, attempts);
        None
    }

    /// One full serve attempt: open a session, drive every planned sweep
    /// (calling `admit` first — the server charges its sweep budget and
    /// honors injected delays there), collect traces, finish.
    ///
    /// The default driver reproduces the server's historical per-sweep
    /// order exactly; implementations should not override it unless their
    /// attempt structure genuinely differs.
    ///
    /// # Errors
    /// Whatever the session reports, plus anything `admit` returns.
    fn classify_collective(
        &self,
        batch: &[Vec<f64>],
        rng: &mut StdRng,
        admit: &mut dyn FnMut() -> std::result::Result<(), AttemptError>,
        sweeps: &mut Vec<SweepTrace>,
    ) -> std::result::Result<ClassifyOutcome, AttemptError> {
        let mut session = self.warm_session(batch)?;
        for _ in 0..session.sweeps_planned() {
            admit()?;
            sweeps.push(session.sweep(rng)?);
        }
        session.finish()
    }
}
