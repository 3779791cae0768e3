//! Process-wide instrumentation counters.
//!
//! The posterior predictive ([`crate::NiwPosterior::predictive_logpdf`]) is
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
//! `OnceLock` so the hot path never touches the registry lock.
//!
//! Counters are process-global, so callers measuring a specific region
//! should record a before/after delta rather than resetting (other threads
//! may be sampling concurrently).

use std::sync::OnceLock;

use crate::metrics::{global, Counter, Gauge};

/// Registry name of the posterior-predictive evaluation counter.
pub const PREDICTIVE_LOGPDF_CALLS: &str = "stats.predictive_logpdf_calls";
/// Registry name of the one-observation-vs-all-dishes kernel counter
/// (collective-decision scoring passes over the dish bank).
pub const PREDICTIVE_ONE_VS_ALL: &str = "stats.predictive_one_vs_all";
/// Registry name of the batched-observations-vs-one-dish kernel counter
/// (block predictives in the table dish-resampling step).
pub const PREDICTIVE_BATCH_VS_ONE: &str = "stats.predictive_batch_vs_one";
/// Registry name of the serve-retry counter.
pub const SERVE_RETRIES: &str = "serving.retries";
/// Registry name of the degraded-batch counter.
pub const DEGRADED_BATCHES: &str = "serving.degraded_batches";
/// Registry name of the durable-snapshot save counter.
pub const SNAPSHOT_SAVES: &str = "snapshot.saves";
/// Registry name of the durable-snapshot load counter (successful decodes).
pub const SNAPSHOT_LOADS: &str = "snapshot.loads";
/// Registry name of the durable-snapshot load-failure counter (typed decode
/// or I/O errors surfaced to the caller).
pub const SNAPSHOT_LOAD_FAILURES: &str = "snapshot.load_failures";
/// Registry name of the durable-recovery counter (batches answered by
/// reloading the last-good on-disk snapshot after in-memory state was lost
/// or rejected).
pub const DURABLE_RECOVERIES: &str = "serving.durable_recoveries";
/// Registry name of the front-end enqueue counter (singleton requests
/// admitted into a tenant queue).
pub const FRONTEND_ENQUEUED: &str = "frontend.enqueued";
/// Registry name of the front-end size-flush counter (micro-batches flushed
/// because a tenant queue reached `max_batch`).
pub const FRONTEND_FLUSHES_SIZE: &str = "frontend.flushes_size";
/// Registry name of the front-end deadline-flush counter (micro-batches
/// flushed because the oldest queued request hit the latency SLO).
pub const FRONTEND_FLUSHES_DEADLINE: &str = "frontend.flushes_deadline";
/// Registry name of the front-end shed counter (requests rejected with a
/// typed overload error instead of joining a full tenant queue).
pub const FRONTEND_SHED: &str = "frontend.shed";
/// Registry name of the front-end queue-depth gauge (total requests queued
/// or flushed-but-undispatched across all tenants, updated on every
/// enqueue/flush/dispatch transition).
pub const FRONTEND_QUEUE_DEPTH: &str = "frontend.queue_depth";
/// Registry name of the model-registry cold-load counter (tenants whose
/// warm model was materialized from the durable snapshot store on demand).
pub const FRONTEND_COLD_LOADS: &str = "frontend.cold_loads";
/// Registry name of the model-registry eviction counter (warm models
/// dropped by the LRU bound to admit another tenant).
pub const FRONTEND_EVICTIONS: &str = "frontend.evictions";

fn handle(cell: &'static OnceLock<Counter>, name: &str) -> &'static Counter {
    cell.get_or_init(|| global().counter(name))
}

fn predictive_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, PREDICTIVE_LOGPDF_CALLS)
}

fn one_vs_all_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, PREDICTIVE_ONE_VS_ALL)
}

fn batch_vs_one_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, PREDICTIVE_BATCH_VS_ONE)
}

fn retries_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, SERVE_RETRIES)
}

fn degraded_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, DEGRADED_BATCHES)
}

fn snapshot_saves_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, SNAPSHOT_SAVES)
}

fn snapshot_loads_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, SNAPSHOT_LOADS)
}

fn snapshot_load_failures_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, SNAPSHOT_LOAD_FAILURES)
}

fn durable_recoveries_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, DURABLE_RECOVERIES)
}

fn frontend_enqueued_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, FRONTEND_ENQUEUED)
}

fn frontend_flushes_size_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, FRONTEND_FLUSHES_SIZE)
}

fn frontend_flushes_deadline_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, FRONTEND_FLUSHES_DEADLINE)
}

fn frontend_shed_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, FRONTEND_SHED)
}

fn frontend_queue_depth_handle() -> &'static Gauge {
    static CELL: OnceLock<Gauge> = OnceLock::new();
    CELL.get_or_init(|| global().gauge(FRONTEND_QUEUE_DEPTH))
}

fn frontend_cold_loads_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, FRONTEND_COLD_LOADS)
}

fn frontend_evictions_handle() -> &'static Counter {
    static CELL: OnceLock<Counter> = OnceLock::new();
    handle(&CELL, FRONTEND_EVICTIONS)
}

#[inline]
pub(crate) fn record_predictive_logpdf() {
    predictive_handle().inc();
}

/// Total posterior-predictive evaluations since process start.
pub fn predictive_logpdf_calls() -> u64 {
    predictive_handle().get()
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
    predictive_handle().add(dishes);
}

/// Record one batch-vs-one kernel invocation that evaluated `points`
/// observations against a single dish (see
/// [`record_predictive_one_vs_all`] for the accounting contract).
#[inline]
pub(crate) fn record_predictive_batch_vs_one(points: u64) {
    batch_vs_one_handle().inc();
    predictive_handle().add(points);
}

/// Total one-vs-all kernel invocations since process start.
pub fn predictive_one_vs_all_calls() -> u64 {
    one_vs_all_handle().get()
}

/// Total batch-vs-one kernel invocations since process start.
pub fn predictive_batch_vs_one_calls() -> u64 {
    batch_vs_one_handle().get()
}

/// Record one serve-attempt retry (an attempt launched after a divergent
/// previous attempt on the same batch).
#[inline]
pub fn record_serve_retry() {
    retries_handle().inc();
}

/// Total serve-attempt retries since process start.
pub fn serve_retries() -> u64 {
    retries_handle().get()
}

/// Record one batch answered via degraded frozen inference.
#[inline]
pub fn record_degraded_batch() {
    degraded_handle().inc();
}

/// Total batches answered via degraded frozen inference since process start.
pub fn degraded_batches() -> u64 {
    degraded_handle().get()
}

/// Record one durable snapshot persisted to disk.
#[inline]
pub fn record_snapshot_save() {
    snapshot_saves_handle().inc();
}

/// Total durable snapshot saves since process start.
pub fn snapshot_saves() -> u64 {
    snapshot_saves_handle().get()
}

/// Record one durable snapshot successfully loaded and decoded.
#[inline]
pub fn record_snapshot_load() {
    snapshot_loads_handle().inc();
}

/// Total successful durable snapshot loads since process start.
pub fn snapshot_loads() -> u64 {
    snapshot_loads_handle().get()
}

/// Record one durable snapshot load that failed with a typed error.
#[inline]
pub fn record_snapshot_load_failure() {
    snapshot_load_failures_handle().inc();
}

/// Total durable snapshot load failures since process start.
pub fn snapshot_load_failures() -> u64 {
    snapshot_load_failures_handle().get()
}

/// Record one batch answered by recovering the model from the last-good
/// on-disk snapshot.
#[inline]
pub fn record_durable_recovery() {
    durable_recoveries_handle().inc();
}

/// Total durable recoveries since process start.
pub fn durable_recoveries() -> u64 {
    durable_recoveries_handle().get()
}

/// Record one singleton request admitted into a front-end tenant queue.
#[inline]
pub fn record_frontend_enqueued() {
    frontend_enqueued_handle().inc();
}

/// Total front-end enqueues since process start.
pub fn frontend_enqueued() -> u64 {
    frontend_enqueued_handle().get()
}

/// Record one micro-batch flushed because its tenant queue filled up.
#[inline]
pub fn record_frontend_flush_size() {
    frontend_flushes_size_handle().inc();
}

/// Total size-triggered front-end flushes since process start.
pub fn frontend_flushes_size() -> u64 {
    frontend_flushes_size_handle().get()
}

/// Record one micro-batch flushed because its oldest request hit the SLO
/// deadline.
#[inline]
pub fn record_frontend_flush_deadline() {
    frontend_flushes_deadline_handle().inc();
}

/// Total deadline-triggered front-end flushes since process start.
pub fn frontend_flushes_deadline() -> u64 {
    frontend_flushes_deadline_handle().get()
}

/// Record one request shed with a typed overload error.
#[inline]
pub fn record_frontend_shed() {
    frontend_shed_handle().inc();
}

/// Total front-end sheds since process start.
pub fn frontend_shed() -> u64 {
    frontend_shed_handle().get()
}

/// Overwrite the front-end queue-depth gauge (requests admitted but not yet
/// dispatched, across all tenants).
#[inline]
pub fn set_frontend_queue_depth(depth: f64) {
    frontend_queue_depth_handle().set(depth);
}

/// Most recently published front-end queue depth.
pub fn frontend_queue_depth() -> f64 {
    frontend_queue_depth_handle().get()
}

/// Record one tenant model cold-loaded from the durable snapshot store.
#[inline]
pub fn record_frontend_cold_load() {
    frontend_cold_loads_handle().inc();
}

/// Total registry cold loads since process start.
pub fn frontend_cold_loads() -> u64 {
    frontend_cold_loads_handle().get()
}

/// Record one warm model evicted by the registry's LRU bound.
#[inline]
pub fn record_frontend_eviction() {
    frontend_evictions_handle().inc();
}

/// Total registry evictions since process start.
pub fn frontend_evictions() -> u64 {
    frontend_evictions_handle().get()
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(frontend_queue_depth(), 3.0);
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
