//! Deterministic fault-injection harness, compiled into every build.
//!
//! Production code is sprinkled with *named sites* (see [`sites`]) that call
//! [`hit`] and, when a matching [`Injection`] is installed, misbehave in a
//! controlled way: perturb a feature to NaN, poison the divergence flag as if
//! a Cholesky factorization had failed past the jitter ladder, panic, or
//! sleep. While no plan is installed a site costs one relaxed load of a
//! process-wide armed flag: [`hit`] returns `None` before touching the plan
//! lock, so serving pays no lock and no allocation for the harness.
//!
//! Determinism comes from *matching*, not randomness: an injection names its
//! site and may pin the batch index and attempt number it fires on. The
//! serving layer publishes that pair through a thread-local context
//! ([`with_context`]), so a plan like "Cholesky failure in batch 2, every
//! attempt" or "divergence in batch 0, attempt 0 only" reproduces exactly,
//! independent of worker count and scheduling.
//!
//! The installed plan is process-global: tests that install plans must be
//! serialized (e.g. behind a shared mutex) so one test's faults cannot leak
//! into another's baseline run. Dropping the [`ActivePlan`] guard returned by
//! [`install`] clears the plan.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;

/// One way a named site can misbehave.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Panic with the given message (exercises `catch_unwind` isolation).
    Panic {
        /// Panic payload message.
        message: String,
    },
    /// Overwrite one coordinate of one point with NaN before admission.
    NanPoint {
        /// Index of the point to perturb.
        point: usize,
        /// Coordinate to overwrite.
        coord: usize,
    },
    /// Pretend a Cholesky factorization failed past the jitter ladder
    /// (poisons the divergence flag at the site).
    CholeskyFail,
    /// Poison the divergence flag directly (a generic retryable divergence).
    Diverge,
    /// Sleep for the given number of milliseconds (exercises deadlines).
    DelayMs(u64),
    /// Corrupt the site's data in a deterministic way: a snapshot save
    /// aborts after partially writing its temp file (a simulated mid-save
    /// crash), a snapshot load flips a payload byte, a checksum
    /// verification reports a false mismatch.
    Corrupt,
}

/// A fault bound to a site, optionally pinned to a batch and attempt.
#[derive(Debug, Clone, PartialEq)]
pub struct Injection {
    /// Site name the fault fires at (one of [`sites`]).
    pub site: &'static str,
    /// Fire only for this batch index (`None` = every batch).
    pub batch: Option<usize>,
    /// Fire only for this attempt number (`None` = every attempt).
    pub attempt: Option<u32>,
    /// The fault itself.
    pub fault: Fault,
}

/// A deterministic set of injections, installed process-wide.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    injections: Vec<Injection>,
}

impl FaultPlan {
    /// An empty plan.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add an injection at `site`, pinned to `batch`/`attempt` when `Some`.
    pub fn inject(
        mut self,
        site: &'static str,
        batch: Option<usize>,
        attempt: Option<u32>,
        fault: Fault,
    ) -> Self {
        self.injections.push(Injection {
            site,
            batch,
            attempt,
            fault,
        });
        self
    }
}

/// Names of every instrumented site, ordered by when serving reaches them.
pub mod sites {
    /// Inside `BatchServer` just before admission control validates a batch.
    pub const ADMISSION: &str = "serving::admission";
    /// Inside a serve attempt, after the `catch_unwind` boundary.
    pub const ATTEMPT: &str = "serving::attempt";
    /// Before each Gibbs sweep of a serve attempt (warm or cold).
    pub const SWEEP: &str = "serving::sweep";
    /// At the top of the sampler's checked sweep entry
    /// (`Hdp::sweep_checked_traced`), so fit's unchecked burn-in never hits it.
    pub const ENGINE_SWEEP: &str = "engine::sweep";
    /// Inside `DishBank::remove_obs`, the rank-1 NIW downdate where the
    /// jitter-ladder rescue lives.
    pub const CHOLESKY: &str = "stats::cholesky";
    /// Inside a baseline serve adapter's `finish`, before the per-point
    /// predictions are computed (`osr-baselines`' `CollectiveModel` impl).
    pub const BASELINE_CLASSIFY: &str = "baseline::classify";
    /// Inside `SnapshotStore::save`, after the temp file is written but
    /// before the atomic rename (a `Corrupt` here simulates a mid-save
    /// crash: the temp file is truncated and the rename never happens).
    pub const SNAPSHOT_SAVE: &str = "snapshot::save";
    /// Inside `SnapshotStore::load`, after the file's bytes are read but
    /// before decoding (a `Corrupt` here flips one payload byte).
    pub const SNAPSHOT_LOAD: &str = "snapshot::load";
    /// Inside the snapshot container's per-section CRC verification (a
    /// `Corrupt` here falsifies the computed checksum).
    pub const SNAPSHOT_CHECKSUM: &str = "snapshot::checksum";
    /// Inside `Frontend::enqueue`, after per-point admission but before the
    /// request joins its tenant queue. Any installed fault here forces the
    /// shed path: the request is rejected with the typed overload error
    /// exactly as if the tenant's queue were full. The context pair is
    /// `(request_id as usize, 0)`.
    pub const FRONTEND_ENQUEUE: &str = "frontend::enqueue";
    /// Inside a front-end dispatch worker, before a flushed micro-batch is
    /// handed to the batch server (a `Panic` here exercises per-micro-batch
    /// isolation, a `DelayMs` stalls one flush, a `Diverge` leaves the
    /// thread's divergence flag poisoned once the batch server has
    /// answered). The context pair is `(flush_seq as usize, 0)`.
    pub const FRONTEND_FLUSH: &str = "frontend::flush";
}

static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
/// Whether a plan is installed: the fast path of [`hit`]. The threads that
/// serve under a plan are handed their work after [`install`] returns, and
/// that hand-off orders the store before their loads, so `Relaxed` suffices.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    static CONTEXT: Cell<Option<(usize, u32)>> = const { Cell::new(None) };
}

/// Guard for an installed plan; dropping it uninstalls the plan.
#[must_use = "dropping the guard immediately uninstalls the plan"]
pub struct ActivePlan(());

impl Drop for ActivePlan {
    fn drop(&mut self) {
        ARMED.store(false, Ordering::Relaxed);
        *lock_plan() = None;
    }
}

fn lock_plan() -> std::sync::MutexGuard<'static, Option<FaultPlan>> {
    // A panic fault may unwind while the plan lock is held elsewhere; the
    // plan itself is always in a consistent state, so clear the poison.
    PLAN.lock().unwrap_or_else(|e| e.into_inner())
}

/// Install `plan` process-wide, replacing any previous plan.
pub fn install(plan: FaultPlan) -> ActivePlan {
    *lock_plan() = Some(plan);
    ARMED.store(true, Ordering::Relaxed);
    ActivePlan(())
}

/// Run `f` with the (batch, attempt) pair published to injection matching on
/// this thread, restoring the previous context afterwards (even on unwind).
pub fn with_context<T>(batch: usize, attempt: u32, f: impl FnOnce() -> T) -> T {
    struct Restore(Option<(usize, u32)>);
    impl Drop for Restore {
        fn drop(&mut self) {
            CONTEXT.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(CONTEXT.with(|c| c.replace(Some((batch, attempt)))));
    f()
}

/// The (batch, attempt) pair published on this thread, if any.
pub fn context() -> Option<(usize, u32)> {
    CONTEXT.with(Cell::get)
}

/// Return the first installed fault matching `site` under the current
/// thread's context. Sites call this and act on the returned fault; with no
/// plan installed it returns `None` without taking the plan lock.
#[inline]
pub fn hit(site: &str) -> Option<Fault> {
    if ARMED.load(Ordering::Relaxed) {
        installed_match(site)
    } else {
        None
    }
}

#[cold]
fn installed_match(site: &str) -> Option<Fault> {
    let plan = lock_plan();
    let plan = plan.as_ref()?;
    let ctx = context();
    plan.injections
        .iter()
        .find(|inj| {
            inj.site == site
                && inj.batch.is_none_or(|b| ctx.map(|(cb, _)| cb) == Some(b))
                && inj.attempt.is_none_or(|a| ctx.map(|(_, ca)| ca) == Some(a))
        })
        .map(|inj| inj.fault.clone())
}

#[cfg(test)]
mod tests {
    use super::*;

    // The plan is process-global; this lock serializes the tests below.
    // They inject only at test-only site names, which no production site
    // reaches, so a plan installed here cannot fire in a concurrently
    // running unit test of this crate (e.g. a bank downdate).
    static TEST_LOCK: Mutex<()> = Mutex::new(());
    const PINNED: &str = "test::pinned";
    const UNPINNED: &str = "test::unpinned";
    const UNINSTALLED: &str = "test::uninstalled";

    #[test]
    fn matching_respects_site_batch_and_attempt() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let _plan = install(
            FaultPlan::new()
                .inject(PINNED, Some(2), Some(1), Fault::Diverge)
                .inject(UNPINNED, None, None, Fault::CholeskyFail),
        );

        // No context: batch/attempt-pinned injections never match.
        assert_eq!(hit(PINNED), None);
        // Unpinned injections match even without context.
        assert_eq!(hit(UNPINNED), Some(Fault::CholeskyFail));

        with_context(2, 1, || {
            assert_eq!(hit(PINNED), Some(Fault::Diverge));
            assert_eq!(hit(UNINSTALLED), None);
        });
        with_context(2, 0, || assert_eq!(hit(PINNED), None));
        with_context(1, 1, || assert_eq!(hit(PINNED), None));
    }

    #[test]
    fn dropping_the_guard_uninstalls_and_context_restores() {
        let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        {
            let _plan = install(FaultPlan::new().inject(
                UNPINNED,
                None,
                None,
                Fault::Panic {
                    message: "boom".into(),
                },
            ));
            assert!(hit(UNPINNED).is_some());
            with_context(0, 0, || {
                with_context(7, 3, || assert_eq!(context(), Some((7, 3))));
                assert_eq!(context(), Some((0, 0)));
            });
            assert_eq!(context(), None);
        }
        assert_eq!(hit(UNPINNED), None);
    }
}
