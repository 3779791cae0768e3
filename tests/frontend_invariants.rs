//! Invariant suite for the multi-tenant coalescing front-end.
//!
//! The contract under test, over *arbitrary* interleavings of per-tenant
//! arrivals:
//!
//! * no admitted request is ever dropped, duplicated, or mixed into another
//!   tenant's micro-batch;
//! * every admitted request is answered exactly once, with its own unique
//!   `trace_id`;
//! * flush-on-size fires exactly when a tenant queue reaches `max_batch`,
//!   flush-on-deadline exactly when the oldest queued request hits the SLO
//!   — and neither fires a tick earlier;
//! * the answers (and flush identities) are independent of the dispatch
//!   worker count.
//!
//! The model under every tenant is the deterministic OSNN baseline adapter,
//! so each proptest case costs microseconds but still exercises the full
//! serve ladder behind [`BatchServer`].

// Test code: the crate-level unwrap/expect ban targets serving paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::collections::{BTreeMap, BTreeSet};
use std::sync::{Arc, OnceLock};

use common::blob;
use hdp_osr::baselines::{BaselineSpec, OsnnParams, ServedBaseline};
use hdp_osr::core::{
    flush_seed, flush_trace_id, FlushTrigger, Frontend, FrontendConfig, ModelRegistry, OsrError,
    Prediction, ServePolicy,
};
use hdp_osr::dataset::protocol::TrainSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const TENANTS: [&str; 3] = ["acme", "beta", "corp"];

/// One shared deterministic model (OSNN adapter) serving every tenant:
/// per-instance, no RNG consumption, so cases stay fast and bit-stable.
fn shared_model() -> Arc<ServedBaseline> {
    static MODEL: OnceLock<Arc<ServedBaseline>> = OnceLock::new();
    Arc::clone(MODEL.get_or_init(|| {
        let mut rng = StdRng::seed_from_u64(4_021);
        let train = TrainSet {
            class_ids: vec![1, 2],
            classes: vec![blob(&mut rng, -5.0, 0.0, 25), blob(&mut rng, 5.0, 0.0, 25)],
        };
        Arc::new(
            ServedBaseline::train(BaselineSpec::Osnn(OsnnParams::default()), &train)
                .expect("clean OSNN fit"),
        )
    }))
}

fn registry() -> ModelRegistry {
    let registry = ModelRegistry::new(TENANTS.len());
    for tenant in TENANTS {
        registry.insert(tenant, shared_model());
    }
    registry
}

fn config() -> FrontendConfig {
    FrontendConfig {
        dim: 2,
        max_batch: 5,
        max_delay_ns: 2_000,
        max_queue_depth: 512,
        base_seed: 2_026,
    }
}

/// An arrival: (tenant index, x, y, virtual gap since the previous arrival).
fn arrival() -> impl Strategy<Value = (usize, f64, f64, u64)> {
    (0usize..TENANTS.len(), -8.0f64..8.0, -8.0f64..8.0, 0u64..1_200)
}

/// Drive a full script: enqueue every arrival (polling as virtual time
/// advances), drain, dispatch at `workers`. Returns the admitted
/// (request id → tenant index) map and the flush outcomes.
fn drive(
    script: &[(usize, f64, f64, u64)],
    workers: usize,
) -> (BTreeMap<u64, usize>, Vec<hdp_osr::core::FlushOutcome>) {
    let registry = registry();
    let mut frontend = Frontend::new(config()).expect("valid config");
    let mut admitted = BTreeMap::new();
    let mut now = 0u64;
    for (tenant_idx, x, y, gap) in script {
        now += gap;
        frontend.poll(now);
        let tenant = TENANTS[*tenant_idx];
        let id = frontend.enqueue(tenant, vec![*x, *y], now).expect("healthy request");
        admitted.insert(id, *tenant_idx);
    }
    frontend.flush_all(now);
    let outcomes = frontend.dispatch(&registry, workers, &ServePolicy::default(), None);
    assert_eq!(frontend.queue_depth(), 0, "dispatch drains every admitted request");
    (admitted, outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Exactly-once, no loss, no duplication, no cross-tenant mixing, and
    /// a unique trace id per request — under arbitrary interleavings.
    #[test]
    fn every_request_is_answered_exactly_once_by_its_own_tenant(
        script in prop::collection::vec(arrival(), 1..60),
    ) {
        let (admitted, outcomes) = drive(&script, 4);
        let mut answered: BTreeSet<u64> = BTreeSet::new();
        let mut trace_ids: BTreeSet<String> = BTreeSet::new();
        for flush in &outcomes {
            for response in &flush.responses {
                prop_assert!(
                    answered.insert(response.request_id),
                    "request {} answered more than once", response.request_id
                );
                prop_assert!(
                    trace_ids.insert(response.trace_id.clone()),
                    "trace id {} reused", response.trace_id
                );
                // The request must ride in its own tenant's micro-batch.
                let tenant_idx = admitted.get(&response.request_id);
                prop_assert_eq!(
                    tenant_idx.map(|i| TENANTS[*i]),
                    Some(flush.tenant.as_str()),
                    "cross-tenant mix in flush {}", flush.trace_id
                );
                prop_assert!(response.result.is_ok(), "healthy request must be served");
            }
            // Flush identity is pure: seed and trace id re-derive.
            prop_assert_eq!(
                flush.seed,
                flush_seed(config().base_seed, &flush.tenant, flush.flush_epoch)
            );
            prop_assert_eq!(
                flush.trace_id.clone(),
                flush_trace_id(&flush.tenant, flush.flush_epoch, flush.seed)
            );
        }
        let admitted_ids: BTreeSet<u64> = admitted.keys().copied().collect();
        prop_assert_eq!(answered, admitted_ids, "every admitted request answered, none invented");
    }

    /// The same script answered at 1 and 8 workers yields identical
    /// predictions and identical flush identities.
    #[test]
    fn answers_are_independent_of_worker_count(
        script in prop::collection::vec(arrival(), 1..40),
    ) {
        type FlushDigest = (String, u64, Vec<(u64, Prediction)>);
        let collect = |workers: usize| -> Vec<FlushDigest> {
            let (_, outcomes) = drive(&script, workers);
            outcomes
                .iter()
                .map(|f| {
                    (
                        f.trace_id.clone(),
                        f.seed,
                        f.responses
                            .iter()
                            .map(|r| (r.request_id, *r.result.as_ref().expect("served")))
                            .collect(),
                    )
                })
                .collect()
        };
        prop_assert_eq!(collect(1), collect(8));
    }

    /// Flush-on-size fires exactly at `max_batch` — never one request
    /// earlier — and seals exactly `max_batch` requests.
    #[test]
    fn size_flush_fires_exactly_at_max_batch(max_batch in 2usize..7) {
        let registry = registry();
        let mut frontend = Frontend::new(FrontendConfig {
            max_batch,
            ..config()
        }).expect("valid config");
        for i in 0..max_batch - 1 {
            frontend.enqueue("acme", vec![0.1 * i as f64, 0.0], 5).expect("admitted");
            prop_assert_eq!(frontend.ready_batches(), 0, "no flush below max_batch");
        }
        frontend.enqueue("acme", vec![0.9, 0.0], 6).expect("admitted");
        prop_assert_eq!(frontend.ready_batches(), 1, "flush exactly at max_batch");
        prop_assert_eq!(frontend.pending_requests(), 0);
        let outcomes = frontend.dispatch(&registry, 2, &ServePolicy::default(), None);
        prop_assert_eq!(outcomes.len(), 1);
        prop_assert_eq!(outcomes[0].trigger, FlushTrigger::Size);
        prop_assert_eq!(outcomes[0].responses.len(), max_batch);
    }

    /// Flush-on-deadline fires exactly when the *oldest* queued request
    /// hits the SLO — not a tick earlier, and undersized batches ride out.
    #[test]
    fn deadline_flush_fires_exactly_at_the_slo(
        submit_ns in 0u64..10_000,
        n_queued in 1usize..4,
    ) {
        let registry = registry();
        let cfg = config();
        let mut frontend = Frontend::new(cfg).expect("valid config");
        for i in 0..n_queued {
            // Later arrivals must not extend the oldest request's deadline.
            frontend
                .enqueue("beta", vec![0.2, 0.1 * i as f64], submit_ns + i as u64)
                .expect("admitted");
        }
        let deadline = submit_ns + cfg.max_delay_ns;
        prop_assert_eq!(frontend.poll(deadline - 1), 0, "one tick early: no flush");
        prop_assert_eq!(frontend.poll(deadline), 1, "at the SLO: flush");
        let outcomes = frontend.dispatch(&registry, 1, &ServePolicy::default(), None);
        prop_assert_eq!(outcomes.len(), 1);
        prop_assert_eq!(outcomes[0].trigger, FlushTrigger::Deadline);
        prop_assert_eq!(outcomes[0].responses.len(), n_queued);
    }
}

/// Deterministic (non-property) lock-ins that complement the suite above.
#[test]
fn overload_is_shed_typed_and_sibling_tenants_keep_flowing() {
    let registry = registry();
    let mut frontend = Frontend::new(FrontendConfig {
        max_batch: 64,
        max_queue_depth: 64,
        ..config()
    })
    .expect("valid config");
    let mut shed = 0usize;
    for i in 0..80u32 {
        match frontend.enqueue("acme", vec![0.0, f64::from(i)], 0) {
            Ok(_) => {}
            Err(OsrError::Overloaded { tenant, depth }) => {
                assert_eq!(tenant, "acme");
                assert_eq!(depth, 64);
                shed += 1;
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert_eq!(shed, 16, "exactly the requests past the bound are shed");
    // The flooded tenant does not starve its siblings.
    frontend.enqueue("beta", vec![0.0, 0.0], 0).expect("sibling tenant admitted");
    frontend.flush_all(1);
    let outcomes = frontend.dispatch(&registry, 2, &ServePolicy::default(), None);
    assert_eq!(outcomes.len(), 2);
    // After dispatch the backlog is released: the tenant admits again.
    frontend.enqueue("acme", vec![0.0, 0.0], 2).expect("backlog released after dispatch");
}

#[test]
fn dispatch_orders_by_earliest_deadline_first() {
    let registry = registry();
    let mut frontend = Frontend::new(config()).expect("valid config");
    // `beta` enqueues first (older deadline) but `acme` flushes first by
    // size — EDF must still serve `beta`'s deadline flush metadata in
    // flush-sequence order while the outcomes stay deterministic.
    frontend.enqueue("beta", vec![0.0, 0.0], 0).expect("admitted");
    for i in 0..5u32 {
        frontend.enqueue("acme", vec![0.1, f64::from(i)], 10).expect("admitted");
    }
    frontend.flush_all(50);
    let outcomes = frontend.dispatch(&registry, 1, &ServePolicy::default(), None);
    // Outcomes come back in flush-seq order regardless of EDF execution.
    let order: Vec<(&str, FlushTrigger)> =
        outcomes.iter().map(|f| (f.tenant.as_str(), f.trigger)).collect();
    assert_eq!(order, vec![("acme", FlushTrigger::Size), ("beta", FlushTrigger::Deadline)]);
}
