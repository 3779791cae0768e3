//! Process-wide instrumentation counters.
//!
//! The posterior predictive (the [`crate::DishBank`] scoring kernels) is
//! the single hottest call of the whole reproduction — every CRF seating
//! decision evaluates it once per live dish. The harness reports this count
//! next to wall-clock numbers so serving-path optimizations (warm-start
//! batch sessions vs cold transductive runs) can be compared in units that
//! do not depend on the machine.
//!
//! Since the metrics registry ([`crate::metrics`]) landed, these counters
//! are named metrics in the global registry — same relaxed-atomic hot path
//! as before, but now they also appear in [`crate::metrics::global`]
//! snapshots next to the sampler's sweep metrics. The free-function API is
//! kept for existing callers; each function caches its registry handle in a
//! `OnceLock` so the hot path never touches the registry lock. Plain event
//! counters are declared once in the `counters!` table below, which
//! expands each row into its registry-name constant, its record function
//! and, where something outside the registry reads the total by function,
//! its getter.
//!
//! The predictive total counts dish scores, whichever path computes them:
//! the fused bank kernels fold their per-dish evaluations into it, and a
//! prior score ([`crate::DishBank::score_prior`]) adds one, recorded as a
//! one-dish one-vs-all call. Degraded serves and the frozen inductive model
//! score their new-dish option that way, as the sweeps do: a point scored
//! against `K` dishes adds `K + 1` to the total, as it did when those two
//! paths scored the prior through a scalar posterior, and two one-vs-all
//! calls where that counted one.
//!
//! Counters are process-global, so callers measuring a specific region
//! should record a before/after delta rather than resetting (other threads
//! may be sampling concurrently).

use std::sync::OnceLock;

use crate::metrics::{global, Counter, Gauge};

/// The registry counter called `name`, resolved once per call site.
fn cached(cell: &'static OnceLock<Counter>, name: &str) -> &'static Counter {
    cell.get_or_init(|| global().counter(name))
}

/// One row per event counter: the registry-name constant and a function
/// that records one event. An optional `=> getter` after the record function
/// adds a getter for the process-wide total; other readers go through
/// [`global`]`().snapshot()` by name.
macro_rules! counters {
    ($(
        $(#[$name_doc:meta])*
        $name:ident = $key:literal;
        $(#[$record_doc:meta])*
        $record_vis:vis fn $record:ident $(=> $get:ident)?;
    )*) => {$(
        $(#[$name_doc])*
        pub const $name: &str = $key;

        $(#[$record_doc])*
        #[inline]
        $record_vis fn $record() {
            static CELL: OnceLock<Counter> = OnceLock::new();
            cached(&CELL, $name).inc();
        }

        $(
            #[doc = concat!("Total `", $key, "` events since process start.")]
            pub fn $get() -> u64 {
                static CELL: OnceLock<Counter> = OnceLock::new();
                cached(&CELL, $name).get()
            }
        )?
    )*};
}

counters! {
    /// Registry name of the posterior-predictive evaluation counter.
    PREDICTIVE_LOGPDF_CALLS = "stats.predictive_logpdf_calls";
    /// Record one scalar posterior-predictive evaluation.
    pub(crate) fn record_predictive_logpdf => predictive_logpdf_calls;

    /// Registry name of the serve-retry counter.
    SERVE_RETRIES = "serving.retries";
    /// Record one serve-attempt retry (an attempt launched after a divergent
    /// previous attempt on the same batch).
    pub fn record_serve_retry => serve_retries;

    /// Registry name of the degraded-batch counter.
    DEGRADED_BATCHES = "serving.degraded_batches";
    /// Record one batch answered via degraded frozen inference.
    pub fn record_degraded_batch => degraded_batches;

    /// Registry name of the durable-snapshot save counter.
    SNAPSHOT_SAVES = "snapshot.saves";
    /// Record one durable snapshot persisted to disk.
    pub fn record_snapshot_save => snapshot_saves;

    /// Registry name of the durable-snapshot load counter (successful decodes).
    SNAPSHOT_LOADS = "snapshot.loads";
    /// Record one durable snapshot successfully loaded and decoded.
    pub fn record_snapshot_load;

    /// Registry name of the durable-snapshot load-failure counter (typed decode
    /// or I/O errors surfaced to the caller).
    SNAPSHOT_LOAD_FAILURES = "snapshot.load_failures";
    /// Record one durable snapshot load that failed with a typed error.
    pub fn record_snapshot_load_failure => snapshot_load_failures;

    /// Registry name of the durable-recovery counter (batches answered by
    /// reloading the last-good on-disk snapshot after in-memory state was lost
    /// or rejected).
    DURABLE_RECOVERIES = "serving.durable_recoveries";
    /// Record one batch answered by recovering the model from the last-good
    /// on-disk snapshot.
    pub fn record_durable_recovery => durable_recoveries;

    /// Registry name of the front-end enqueue counter (singleton requests
    /// admitted into a tenant queue).
    FRONTEND_ENQUEUED = "frontend.enqueued";
    /// Record one singleton request admitted into a front-end tenant queue.
    pub fn record_frontend_enqueued;

    /// Registry name of the front-end size-flush counter (micro-batches flushed
    /// because a tenant queue reached `max_batch`).
    FRONTEND_FLUSHES_SIZE = "frontend.flushes_size";
    /// Record one micro-batch flushed because its tenant queue filled up.
    pub fn record_frontend_flush_size;

    /// Registry name of the front-end deadline-flush counter (micro-batches
    /// flushed because the oldest queued request hit the latency SLO).
    FRONTEND_FLUSHES_DEADLINE = "frontend.flushes_deadline";
    /// Record one micro-batch flushed because its oldest request hit the SLO
    /// deadline.
    pub fn record_frontend_flush_deadline;

    /// Registry name of the front-end shed counter (requests rejected with a
    /// typed overload error instead of joining a full tenant queue).
    FRONTEND_SHED = "frontend.shed";
    /// Record one request shed with a typed overload error.
    pub fn record_frontend_shed => frontend_shed;

    /// Registry name of the model-registry cold-load counter (tenant models
    /// materialized from the durable snapshot store on demand, whether or
    /// not the registry then kept them resident).
    FRONTEND_COLD_LOADS = "frontend.cold_loads";
    /// Record one tenant model cold-loaded from the durable snapshot store.
    pub fn record_frontend_cold_load => frontend_cold_loads;

    /// Registry name of the model-registry eviction counter (warm models
    /// dropped by the capacity bound to admit another tenant).
    FRONTEND_EVICTIONS = "frontend.evictions";
    /// Record one warm model evicted by the registry's capacity bound.
    pub fn record_frontend_eviction => frontend_evictions;
}

/// Registry name of the one-observation-vs-all-dishes kernel counter
/// (collective-decision scoring passes over the dish bank).
pub const PREDICTIVE_ONE_VS_ALL: &str = "stats.predictive_one_vs_all";
/// Registry name of the batched-observations-vs-one-dish kernel counter
/// (block predictives in the table dish-resampling step).
pub const PREDICTIVE_BATCH_VS_ONE: &str = "stats.predictive_batch_vs_one";
/// Registry name of the front-end queue-depth gauge (total requests queued
/// or flushed-but-undispatched across all tenants, updated on every
/// enqueue/flush/dispatch transition).
pub const FRONTEND_QUEUE_DEPTH: &str = "frontend.queue_depth";

fn predictive_total() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    cached(&CELL, PREDICTIVE_LOGPDF_CALLS)
}

fn one_vs_all_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    cached(&CELL, PREDICTIVE_ONE_VS_ALL)
}

fn batch_vs_one_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    cached(&CELL, PREDICTIVE_BATCH_VS_ONE)
}

fn frontend_queue_depth_handle() -> &'static Gauge {
    static CELL: OnceLock<Gauge> = OnceLock::new();
    CELL.get_or_init(|| global().gauge(FRONTEND_QUEUE_DEPTH))
}

/// Record one one-vs-all kernel invocation that scored `dishes` dishes:
/// bumps the kernel counter and folds the per-dish evaluations into the
/// legacy predictive-call total (so the machine-independent unit of work
/// stays comparable across layouts). No clock is read: kernel time is
/// measured by the `predictive` bench, sweep time by the sampler's sweep
/// trace.
#[inline]
pub(crate) fn record_predictive_one_vs_all(dishes: u64) {
    one_vs_all_handle().inc();
    predictive_total().add(dishes);
}

/// Record one batch-vs-one kernel invocation that evaluated `points`
/// observations against a single dish (see
/// [`record_predictive_one_vs_all`] for the accounting contract).
#[inline]
pub(crate) fn record_predictive_batch_vs_one(points: u64) {
    batch_vs_one_handle().inc();
    predictive_total().add(points);
}

/// Total one-vs-all kernel invocations since process start.
pub fn predictive_one_vs_all_calls() -> u64 {
    one_vs_all_handle().get()
}

/// Total batch-vs-one kernel invocations since process start.
pub fn predictive_batch_vs_one_calls() -> u64 {
    batch_vs_one_handle().get()
}

/// Overwrite the front-end queue-depth gauge (requests admitted but not yet
/// dispatched, across all tenants).
#[inline]
pub fn set_frontend_queue_depth(depth: f64) {
    frontend_queue_depth_handle().set(depth);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValue;

    #[test]
    fn counter_is_monotone_under_records() {
        let before = predictive_logpdf_calls();
        for _ in 0..3 {
            record_predictive_logpdf();
        }
        assert!(predictive_logpdf_calls() >= before + 3);
    }

    #[test]
    fn counters_are_visible_in_the_global_registry() {
        let before = global().snapshot().counter(SERVE_RETRIES);
        record_serve_retry();
        let after = global().snapshot().counter(SERVE_RETRIES);
        assert!(after > before);
    }

    #[test]
    fn frontend_metrics_reach_the_registry() {
        let before = global().snapshot();
        record_frontend_enqueued();
        record_frontend_flush_size();
        record_frontend_flush_deadline();
        record_frontend_shed();
        record_frontend_cold_load();
        record_frontend_eviction();
        set_frontend_queue_depth(3.0);
        let delta = global().snapshot().delta_since(&before);
        assert!(delta.counter(FRONTEND_ENQUEUED) >= 1);
        assert!(delta.counter(FRONTEND_FLUSHES_SIZE) >= 1);
        assert!(delta.counter(FRONTEND_FLUSHES_DEADLINE) >= 1);
        assert!(delta.counter(FRONTEND_SHED) >= 1);
        assert!(delta.counter(FRONTEND_COLD_LOADS) >= 1);
        assert!(delta.counter(FRONTEND_EVICTIONS) >= 1);
        assert_eq!(delta.get(FRONTEND_QUEUE_DEPTH), Some(&MetricValue::Gauge(3.0)));
    }

    #[test]
    fn kernel_records_split_by_shape_and_feed_the_legacy_total() {
        let before = global().snapshot();
        record_predictive_one_vs_all(7);
        record_predictive_batch_vs_one(3);
        let delta = global().snapshot().delta_since(&before);
        assert!(delta.counter(PREDICTIVE_ONE_VS_ALL) >= 1);
        assert!(delta.counter(PREDICTIVE_BATCH_VS_ONE) >= 1);
        // Per-evaluation units flow into the legacy machine-independent total.
        assert!(delta.counter(PREDICTIVE_LOGPDF_CALLS) >= 10);
    }
}
