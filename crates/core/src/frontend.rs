//! The multi-tenant micro-batch front-end: coalesce singleton requests
//! into collective-decision batches, deterministically.
//!
//! The paper's decision rule is *collective* — it needs a batch of test
//! points to co-cluster — but production traffic arrives as singleton
//! requests. This module rebuilds the batches: each tenant gets a queue;
//! requests admitted into a queue coalesce until either the queue reaches
//! [`FrontendConfig::max_batch`] (**flush on size**) or the oldest queued
//! request has waited [`FrontendConfig::max_delay_ns`] (**flush on
//! deadline**, the latency SLO). A flushed [`MicroBatch`] is scheduled
//! earliest-deadline-first onto the dispatch executor [`BatchServer`] also
//! runs on, and served through the same fault-tolerance ladder (admission →
//! watchdogged attempts → retry-with-reseed → degrade), one seeded serve per
//! micro-batch.
//!
//! [`BatchServer`]: crate::BatchServer
//!
//! # Determinism
//!
//! The front-end never reads a wall clock: callers supply virtual time
//! (`now_ns`) on every transition, flush decisions happen on the caller
//! thread in script order, and the batch seed is a pure function of the
//! flush's identity — [`flush_seed`]`(base_seed, tenant, flush_epoch)`
//! routes a per-tenant FNV-1a hash through [`derive_batch_seed`]. Dispatch
//! workers only *execute* already-sealed micro-batches, and flush traces
//! are emitted after the dispatch round in flush-sequence order, so the
//! trace stream is byte-identical under any worker count and any arrival
//! interleaving that produces the same per-tenant queues.
//!
//! # Admission and fairness
//!
//! Per-request admission (dimension + finiteness) happens at enqueue with
//! the same typed errors as batch admission. Fairness is per-tenant
//! backpressure: each tenant may hold at most
//! [`FrontendConfig::max_queue_depth`] undispatched requests — the request
//! past that bound is *shed* with a typed [`OsrError::Overloaded`], never
//! blocked, so one tenant's flood cannot grow another tenant's latency
//! unboundedly. Across tenants the run queue is ordered
//! `(deadline, flush_seq)`, so the oldest SLO is always served first.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::admission;
use crate::collective::CollectiveModel;
use crate::decision::{ClassifyOutcome, Prediction};
use crate::observability::{FlushTrace, FlushTrigger, TraceRecord, TraceSink};
use crate::registry::ModelRegistry;
use crate::serving::{derive_batch_seed, fan_out, serve_one, ServePolicy};
use crate::{OsrError, Result};

/// Static configuration of a [`Frontend`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontendConfig {
    /// Feature dimension every request must carry (checked at enqueue).
    pub dim: usize,
    /// Flush a tenant queue as soon as it holds this many requests.
    pub max_batch: usize,
    /// Latency SLO in virtual nanoseconds: a queue whose oldest request
    /// has waited this long is flushed by the next [`Frontend::poll`].
    pub max_delay_ns: u64,
    /// Per-tenant bound on undispatched requests (queued + flushed but not
    /// yet dispatched); the request past it is shed with a typed error.
    pub max_queue_depth: usize,
    /// Base seed every flush seed is derived from (see [`flush_seed`]).
    pub base_seed: u64,
}

impl FrontendConfig {
    fn validate(&self) -> Result<()> {
        if self.dim == 0 {
            return Err(OsrError::InvalidConfig("frontend dim must be ≥ 1".to_string()));
        }
        if self.max_batch == 0 {
            return Err(OsrError::InvalidConfig("frontend max_batch must be ≥ 1".to_string()));
        }
        if self.max_queue_depth < self.max_batch {
            return Err(OsrError::InvalidConfig(
                "frontend max_queue_depth must be ≥ max_batch".to_string(),
            ));
        }
        Ok(())
    }
}

/// One admitted singleton request, waiting in its tenant queue.
#[derive(Debug, Clone)]
pub struct QueuedRequest {
    /// Globally unique request id, assigned at enqueue.
    pub id: u64,
    /// The feature vector.
    pub point: Vec<f64>,
    /// Virtual time the request was enqueued at.
    pub submitted_ns: u64,
}

/// A sealed batch of coalesced requests, ready for dispatch.
#[derive(Debug, Clone)]
pub struct MicroBatch {
    /// Global flush sequence number (0-based, across all tenants).
    pub flush_seq: u64,
    /// Tenant whose queue produced the batch.
    pub tenant: String,
    /// Per-tenant flush epoch (0-based).
    pub flush_epoch: u64,
    /// The batch's RNG seed, [`flush_seed`]`(base_seed, tenant, epoch)`.
    pub seed: u64,
    /// What fired the flush.
    pub trigger: FlushTrigger,
    /// SLO deadline: the oldest member's `submitted_ns + max_delay_ns`.
    pub deadline_ns: u64,
    /// Virtual time the flush happened at.
    pub flushed_at_ns: u64,
    /// The coalesced requests, in arrival order.
    pub requests: Vec<QueuedRequest>,
}

/// The answer to one coalesced request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request this answers.
    pub request_id: u64,
    /// Per-request trace id: the flush's [`flush_trace_id`] plus the
    /// request's offset within the micro-batch — unique per request.
    pub trace_id: String,
    /// Virtual queue wait (flush time − submit time).
    pub queue_wait_ns: u64,
    /// The prediction, or the typed error that failed the micro-batch.
    pub result: Result<Prediction>,
}

/// Everything one dispatched micro-batch produced.
#[derive(Debug)]
pub struct FlushOutcome {
    /// Global flush sequence number of the micro-batch.
    pub flush_seq: u64,
    /// Tenant the batch belonged to.
    pub tenant: String,
    /// Per-tenant flush epoch.
    pub flush_epoch: u64,
    /// What fired the flush.
    pub trigger: FlushTrigger,
    /// Reproducible flush trace id ([`flush_trace_id`]).
    pub trace_id: String,
    /// The seed the batch was served under.
    pub seed: u64,
    /// The collective decision for the whole micro-batch, or the typed
    /// error every waiter received.
    pub outcome: Result<ClassifyOutcome>,
    /// One response per coalesced request, in arrival order — every waiter
    /// is answered exactly once, success or failure.
    pub responses: Vec<Response>,
}

#[derive(Debug, Default)]
struct TenantQueue {
    pending: Vec<QueuedRequest>,
    flush_epoch: u64,
    /// Requests admitted but not yet dispatched (pending + sealed).
    outstanding: usize,
}

/// The multi-tenant coalescing front-end. See the module docs for the
/// flush semantics, determinism and fairness contracts.
pub struct Frontend {
    config: FrontendConfig,
    queues: BTreeMap<String, TenantQueue>,
    ready: Vec<MicroBatch>,
    next_flush_seq: u64,
    next_request_id: u64,
}

/// Per-tenant seed root: FNV-1a over the tenant name, folded with the
/// front-end base seed.
fn tenant_seed(base_seed: u64, tenant: &str) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in tenant.as_bytes() {
        hash ^= u64::from(*byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash ^ base_seed
}

/// The RNG seed of tenant `tenant`'s flush number `flush_epoch` under
/// `base_seed`: the tenant's FNV-1a seed root pushed through
/// [`derive_batch_seed`] at index `flush_epoch`. A pure function of the
/// flush identity, so a coalesced batch replays bit-identically no matter
/// how arrivals interleaved across tenants or how many workers served it.
pub fn flush_seed(base_seed: u64, tenant: &str, flush_epoch: u64) -> u64 {
    derive_batch_seed(tenant_seed(base_seed, tenant), usize::try_from(flush_epoch).unwrap_or(0))
}

/// The reproducible trace id of a flush — a pure function of the flush
/// identity, mirroring [`crate::observability::batch_trace_id`].
pub fn flush_trace_id(tenant: &str, flush_epoch: u64, seed: u64) -> String {
    format!("flush-{tenant}-{flush_epoch:04}-seed-{seed:016x}")
}

impl Frontend {
    /// A front-end with no queued state.
    ///
    /// # Errors
    /// [`OsrError::InvalidConfig`] when the configuration is degenerate
    /// (zero dimension/batch size, or a queue bound below the batch size).
    pub fn new(config: FrontendConfig) -> Result<Self> {
        config.validate()?;
        Ok(Self {
            config,
            queues: BTreeMap::new(),
            ready: Vec::new(),
            next_flush_seq: 0,
            next_request_id: 0,
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &FrontendConfig {
        &self.config
    }

    /// Requests sitting in tenant queues (not yet sealed into a batch).
    pub fn pending_requests(&self) -> usize {
        self.queues.values().map(|q| q.pending.len()).sum()
    }

    /// Sealed micro-batches awaiting dispatch.
    pub fn ready_batches(&self) -> usize {
        self.ready.len()
    }

    /// Requests admitted but not yet dispatched, across all tenants (the
    /// value published to the `frontend.queue_depth` gauge).
    pub fn queue_depth(&self) -> usize {
        self.queues.values().map(|q| q.outstanding).sum()
    }

    /// Admit one singleton request for `tenant` at virtual time `now_ns`,
    /// returning its globally unique request id. May seal the tenant's
    /// queue into a size-triggered [`MicroBatch`] as a side effect.
    ///
    /// # Errors
    /// Typed admission errors for malformed points
    /// ([`OsrError::DimensionMismatch`] / [`OsrError::NonFiniteFeature`]),
    /// and [`OsrError::Overloaded`] when the tenant's undispatched backlog
    /// is at `max_queue_depth` — the request is shed, never blocked.
    pub fn enqueue(&mut self, tenant: &str, point: Vec<f64>, now_ns: u64) -> Result<u64> {
        admission::validate_batch(self.config.dim, std::slice::from_ref(&point))?;
        let request_id = self.next_request_id;
        // Any fault installed at the enqueue site forces the shed path, so
        // the typed-overload contract is testable without a real flood.
        let forced_shed = osr_stats::faults::with_context(
            usize::try_from(request_id).unwrap_or(0),
            0,
            || osr_stats::faults::hit(osr_stats::faults::sites::FRONTEND_ENQUEUE).is_some(),
        );
        let should_flush = {
            let queue = self.queues.entry(tenant.to_string()).or_default();
            if forced_shed || queue.outstanding >= self.config.max_queue_depth {
                osr_stats::counters::record_frontend_shed();
                return Err(OsrError::Overloaded {
                    tenant: tenant.to_string(),
                    depth: queue.outstanding,
                });
            }
            self.next_request_id += 1;
            queue.outstanding += 1;
            queue.pending.push(QueuedRequest { id: request_id, point, submitted_ns: now_ns });
            osr_stats::counters::record_frontend_enqueued();
            queue.pending.len() >= self.config.max_batch
        };
        if should_flush {
            self.flush_tenant(tenant, FlushTrigger::Size, now_ns);
        }
        self.publish_depth();
        Ok(request_id)
    }

    /// Advance virtual time: seal every tenant queue whose oldest request
    /// has hit the SLO deadline (`submitted_ns + max_delay_ns ≤ now_ns`).
    /// Returns the number of deadline flushes fired.
    pub fn poll(&mut self, now_ns: u64) -> usize {
        let due: Vec<String> = self
            .queues
            .iter()
            .filter(|(_, q)| {
                q.pending
                    .first()
                    .is_some_and(|r| r.submitted_ns.saturating_add(self.config.max_delay_ns) <= now_ns)
            })
            .map(|(tenant, _)| tenant.clone())
            .collect();
        let mut flushed = 0;
        for tenant in due {
            if self.flush_tenant(&tenant, FlushTrigger::Deadline, now_ns) {
                flushed += 1;
            }
        }
        if flushed > 0 {
            self.publish_depth();
        }
        flushed
    }

    /// Drain: seal every non-empty tenant queue regardless of size or
    /// deadline (counted as deadline flushes). Returns the number sealed.
    pub fn flush_all(&mut self, now_ns: u64) -> usize {
        let tenants: Vec<String> = self
            .queues
            .iter()
            .filter(|(_, q)| !q.pending.is_empty())
            .map(|(tenant, _)| tenant.clone())
            .collect();
        let mut flushed = 0;
        for tenant in tenants {
            if self.flush_tenant(&tenant, FlushTrigger::Deadline, now_ns) {
                flushed += 1;
            }
        }
        if flushed > 0 {
            self.publish_depth();
        }
        flushed
    }

    /// Seal `tenant`'s pending queue into a ready micro-batch.
    fn flush_tenant(&mut self, tenant: &str, trigger: FlushTrigger, now_ns: u64) -> bool {
        let flush_seq = self.next_flush_seq;
        let Some(queue) = self.queues.get_mut(tenant) else { return false };
        if queue.pending.is_empty() {
            return false;
        }
        let requests = std::mem::take(&mut queue.pending);
        let flush_epoch = queue.flush_epoch;
        queue.flush_epoch += 1;
        self.next_flush_seq += 1;
        let seed = flush_seed(self.config.base_seed, tenant, flush_epoch);
        let deadline_ns = requests
            .first()
            .map_or(now_ns, |r| r.submitted_ns)
            .saturating_add(self.config.max_delay_ns);
        match trigger {
            FlushTrigger::Size => osr_stats::counters::record_frontend_flush_size(),
            FlushTrigger::Deadline => osr_stats::counters::record_frontend_flush_deadline(),
        }
        self.ready.push(MicroBatch {
            flush_seq,
            tenant: tenant.to_string(),
            flush_epoch,
            seed,
            trigger,
            deadline_ns,
            flushed_at_ns: now_ns,
            requests,
        });
        true
    }

    /// Serve every ready micro-batch and answer its waiters.
    ///
    /// Scheduling is earliest-deadline-first with the flush sequence as the
    /// deterministic tie-break; the micro-batches then run on the serving
    /// stack's one dispatch executor, whose `workers` threads claim them in
    /// that order. The calling thread is the first worker, so a one-batch
    /// round spawns no thread. Models are resolved from `registry`
    /// *sequentially in schedule order* before any worker starts, so request
    /// counts, admission, eviction and cold loads never depend on thread
    /// timing. The registry admits a cold-loaded tenant only when there is
    /// room or it has been requested more often than the least-frequent
    /// resident (counts halved every `32 × capacity` resolves, at most
    /// `16 × capacity` names counted); on `tenant-churn` traffic that hits
    /// ≈0.55 of the resolves where LRU hit 0.32 (Belady's optimum 0.62). Each
    /// micro-batch is served through the serve ladder under the flush's
    /// derived seed — panics, divergence and admission failures stay
    /// confined to that micro-batch, and its waiters all receive the same
    /// typed error while sibling tenants' batches finish untouched.
    ///
    /// Flush traces go to `sink` after the round, ordered by flush
    /// sequence; the returned outcomes are in the same order.
    pub fn dispatch(
        &mut self,
        registry: &ModelRegistry,
        workers: usize,
        policy: &ServePolicy,
        sink: Option<&Arc<dyn TraceSink>>,
    ) -> Vec<FlushOutcome> {
        let mut run = std::mem::take(&mut self.ready);
        if run.is_empty() {
            return Vec::new();
        }
        run.sort_by(|a, b| {
            a.deadline_ns.cmp(&b.deadline_ns).then(a.flush_seq.cmp(&b.flush_seq))
        });
        // Deterministic registry traffic: resolve in schedule order on the
        // caller thread, before any worker can race a cold load.
        let jobs: Vec<(MicroBatch, Result<Arc<dyn CollectiveModel>>)> = run
            .into_iter()
            .map(|mb| {
                let model = registry.resolve(&mb.tenant);
                (mb, model)
            })
            .collect();
        let served = fan_out(&jobs, workers, |_, (mb, model)| match model {
            Ok(model) => serve_micro_batch(mb, model.as_ref(), policy),
            Err(e) => (failed_flush(mb, e.clone()), None),
        });

        let mut outcomes: Vec<FlushOutcome> = Vec::with_capacity(jobs.len());
        let mut traces: Vec<FlushTrace> = Vec::new();
        for ((mb, _), served) in jobs.iter().zip(served) {
            let (outcome, trace) = served.unwrap_or_else(|panic| {
                let error = OsrError::Internal(format!("micro-batch flush panicked: {panic}"));
                (failed_flush(mb, error), None)
            });
            outcomes.push(outcome);
            traces.extend(trace);
        }
        // Flush-sequence order everywhere the outside world looks: the
        // returned outcomes and the emitted trace stream are both pure
        // functions of the arrival script, independent of worker count.
        outcomes.sort_by_key(|o| o.flush_seq);
        if let Some(sink) = sink {
            traces.sort_by_key(|t| t.batch.batch);
            for trace in traces {
                sink.record(&TraceRecord::Flush(trace));
            }
        }
        // The dispatched requests no longer count against their tenants'
        // backpressure bounds.
        for (mb, _) in &jobs {
            if let Some(queue) = self.queues.get_mut(&mb.tenant) {
                queue.outstanding = queue.outstanding.saturating_sub(mb.requests.len());
            }
        }
        self.publish_depth();
        outcomes
    }

    fn publish_depth(&self) {
        let depth: usize = self.queues.values().map(|q| q.outstanding).sum();
        let depth_f64 = u32::try_from(depth).map_or(f64::MAX, f64::from);
        osr_stats::counters::set_frontend_queue_depth(depth_f64);
    }
}

/// A served micro-batch: the answered outcome plus its flush trace (absent
/// when the serve errored before producing one).
type ServedFlush = (FlushOutcome, Option<FlushTrace>);

/// Serve one sealed micro-batch through the serve ladder as index 0 under
/// the flush's seed. It runs inside the dispatch executor, whose per-item
/// `catch_unwind` turns a panic here (injected or organic) into a typed
/// error delivered to every waiter of this batch only.
fn serve_micro_batch(
    mb: &MicroBatch,
    model: &dyn CollectiveModel,
    policy: &ServePolicy,
) -> ServedFlush {
    let points: Vec<Vec<f64>> = mb.requests.iter().map(|r| r.point.clone()).collect();
    let flush_seq = usize::try_from(mb.flush_seq).unwrap_or(0);
    let (result, trace) = osr_stats::faults::with_context(flush_seq, 0, || {
        let fault = osr_stats::faults::hit(osr_stats::faults::sites::FRONTEND_FLUSH);
        match &fault {
            Some(osr_stats::faults::Fault::Panic { message }) => {
                // osr-lint: allow(panic-path, injected fault — the dispatch executor's per-item catch_unwind is the system under test)
                panic!("{message}");
            }
            Some(osr_stats::faults::Fault::DelayMs(ms)) => {
                std::thread::sleep(std::time::Duration::from_millis(*ms));
            }
            _ => {}
        }
        let served = serve_one(model, policy, None, 0, &points, mb.seed);
        // An injected `Diverge` leaves the thread poisoned after an
        // answered serve: the leak the executor's per-item scrub must
        // catch before this thread claims its next micro-batch.
        if fault == Some(osr_stats::faults::Fault::Diverge) {
            osr_stats::divergence::poison("injected: frontend flush divergence");
        }
        served
    });
    build_flush(mb, result, trace)
}

/// A [`FlushOutcome`] whose every waiter receives `error`.
fn failed_flush(mb: &MicroBatch, error: OsrError) -> FlushOutcome {
    build_flush(mb, Err(error), None).0
}

fn build_flush(
    mb: &MicroBatch,
    mut result: Result<ClassifyOutcome>,
    trace: Option<crate::observability::BatchTrace>,
) -> (FlushOutcome, Option<FlushTrace>) {
    let trace_id = flush_trace_id(&mb.tenant, mb.flush_epoch, mb.seed);
    if let Ok(outcome) = &mut result {
        outcome.trace_id.clone_from(&trace_id);
    }
    let responses: Vec<Response> = mb
        .requests
        .iter()
        .enumerate()
        .map(|(offset, request)| Response {
            request_id: request.id,
            trace_id: format!("{trace_id}/r{offset:03}"),
            queue_wait_ns: mb.flushed_at_ns.saturating_sub(request.submitted_ns),
            result: match &result {
                Ok(outcome) => outcome.predictions.get(offset).copied().ok_or_else(|| {
                    OsrError::Internal("micro-batch outcome lacks a prediction".to_string())
                }),
                Err(e) => Err(e.clone()),
            },
        })
        .collect();
    let flush_trace = trace.map(|mut batch| {
        batch.trace_id.clone_from(&trace_id);
        batch.batch = usize::try_from(mb.flush_seq).unwrap_or(0);
        FlushTrace {
            tenant: mb.tenant.clone(),
            flush_epoch: mb.flush_epoch,
            trigger: mb.trigger,
            requests: mb.requests.iter().map(|r| r.id).collect(),
            batch,
        }
    });
    let outcome = FlushOutcome {
        flush_seq: mb.flush_seq,
        tenant: mb.tenant.clone(),
        flush_epoch: mb.flush_epoch,
        trigger: mb.trigger,
        trace_id,
        seed: mb.seed,
        outcome: result,
        responses,
    };
    (outcome, flush_trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> FrontendConfig {
        FrontendConfig {
            dim: 2,
            max_batch: 4,
            max_delay_ns: 1_000,
            max_queue_depth: 8,
            base_seed: 2026,
        }
    }

    #[test]
    fn degenerate_configs_are_rejected_typed() {
        for bad in [
            FrontendConfig { dim: 0, ..config() },
            FrontendConfig { max_batch: 0, ..config() },
            FrontendConfig { max_queue_depth: 2, max_batch: 4, ..config() },
        ] {
            assert!(matches!(Frontend::new(bad), Err(OsrError::InvalidConfig(_))));
        }
    }

    #[test]
    fn enqueue_admission_mirrors_batch_admission() {
        let mut fe = Frontend::new(config()).unwrap();
        assert_eq!(
            fe.enqueue("t", vec![1.0, 2.0, 3.0], 0).unwrap_err(),
            OsrError::DimensionMismatch { point: 0, expected: 2, got: 3 }
        );
        assert_eq!(
            fe.enqueue("t", vec![1.0, f64::NAN], 0).unwrap_err(),
            OsrError::NonFiniteFeature { point: 0, coord: 1 }
        );
        assert!(fe.enqueue("t", vec![1.0, 2.0], 0).is_ok());
    }

    #[test]
    fn size_flush_fires_exactly_at_max_batch() {
        let mut fe = Frontend::new(config()).unwrap();
        for i in 0..3 {
            fe.enqueue("t", vec![0.0, f64::from(i)], 10).unwrap();
        }
        assert_eq!(fe.ready_batches(), 0, "below max_batch nothing flushes");
        fe.enqueue("t", vec![0.0, 3.0], 11).unwrap();
        assert_eq!(fe.ready_batches(), 1);
        assert_eq!(fe.pending_requests(), 0);
    }

    #[test]
    fn deadline_flush_fires_only_at_the_slo() {
        let mut fe = Frontend::new(config()).unwrap();
        fe.enqueue("t", vec![0.0, 0.0], 100).unwrap();
        assert_eq!(fe.poll(100 + 999), 0, "one tick early: no flush");
        assert_eq!(fe.poll(100 + 1_000), 1, "at the SLO: flush");
        assert_eq!(fe.ready_batches(), 1);
    }

    #[test]
    fn overload_sheds_with_a_typed_error() {
        let mut fe = Frontend::new(FrontendConfig {
            max_batch: 100,
            max_queue_depth: 100,
            ..config()
        })
        .unwrap();
        let mut shed = None;
        for i in 0..200u32 {
            if let Err(e) = fe.enqueue("t", vec![0.0, f64::from(i)], 0) {
                shed = Some((i, e));
                break;
            }
        }
        let (at, error) = shed.expect("the flood must be shed eventually");
        assert_eq!(at, 100, "shed exactly past max_queue_depth");
        assert_eq!(error, OsrError::Overloaded { tenant: "t".to_string(), depth: 100 });
        // A sibling tenant is unaffected by the flood.
        assert!(fe.enqueue("other", vec![0.0, 0.0], 0).is_ok());
    }

    #[test]
    fn flush_seeds_are_per_tenant_and_per_epoch() {
        assert_eq!(flush_seed(1, "a", 0), flush_seed(1, "a", 0));
        assert_ne!(flush_seed(1, "a", 0), flush_seed(1, "a", 1));
        assert_ne!(flush_seed(1, "a", 0), flush_seed(1, "b", 0));
        assert_ne!(flush_seed(1, "a", 0), flush_seed(2, "a", 0));
    }

    #[test]
    fn interleaved_tenants_never_mix_and_epochs_advance_per_tenant() {
        let mut fe = Frontend::new(FrontendConfig { max_batch: 2, ..config() }).unwrap();
        // a, b, a, b, a, b, a, b → two size flushes per tenant.
        for i in 0..4u32 {
            fe.enqueue("a", vec![0.0, f64::from(i)], u64::from(i)).unwrap();
            fe.enqueue("b", vec![1.0, f64::from(i)], u64::from(i)).unwrap();
        }
        assert_eq!(fe.ready_batches(), 4);
        let tenants: Vec<(String, u64)> =
            fe.ready.iter().map(|mb| (mb.tenant.clone(), mb.flush_epoch)).collect();
        assert_eq!(
            tenants,
            vec![
                ("a".to_string(), 0),
                ("b".to_string(), 0),
                ("a".to_string(), 1),
                ("b".to_string(), 1)
            ]
        );
        for mb in &fe.ready {
            let expect = if mb.tenant == "a" { 0.0 } else { 1.0 };
            assert!(mb.requests.iter().all(|r| r.point.first() == Some(&expect)));
            assert_eq!(mb.seed, flush_seed(2026, &mb.tenant, mb.flush_epoch));
        }
    }
}
