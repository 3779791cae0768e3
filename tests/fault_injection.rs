//! Acceptance suite for the fault-tolerant serving stack, driven by the
//! deterministic `fault-inject` harness.
//!
//! The contract under test: a fault in one batch — a worker panic, a
//! numerically divergent sampler, a NaN slipped in before admission, an
//! artificial stall — must (a) surface on that batch as a typed error or a
//! flagged degraded outcome, and (b) leave every sibling batch *bit-identical*
//! to an uninjected run, because per-batch RNG isolation means a fault cannot
//! leak across slots.
//!
//! Fault plans are process-global, so every test (including the baseline
//! runs) serializes on one lock.

#![cfg(feature = "fault-inject")]

mod common;

use std::sync::{Arc, Mutex};
use std::time::Duration;

use common::blob;
use hdp_osr::baselines::{BaselineSpec, OsnnParams, ServedBaseline};
use hdp_osr::core::{
    derive_batch_seed, BatchServer, ClassifyOutcome, DegradeReason, HdpOsr, HdpOsrConfig,
    OsrError, Prediction, RingSink, ServePolicy, ServedVia, ServingMode,
    TraceRecord,
};
use hdp_osr::dataset::protocol::TrainSet;
use hdp_osr::stats::counters;
use hdp_osr::stats::faults::{install, sites, Fault, FaultPlan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Serializes every test in this binary: fault plans are process-global.
static TEST_LOCK: Mutex<()> = Mutex::new(());

/// A warm-start model over two separated classes, plus four test batches
/// mixing known and unknown points.
fn warm_model_and_batches() -> (HdpOsr, Vec<Vec<Vec<f64>>>) {
    let mut rng = StdRng::seed_from_u64(97);
    let train = TrainSet {
        class_ids: vec![1, 2],
        classes: vec![blob(&mut rng, -6.0, 0.0, 40), blob(&mut rng, 6.0, 0.0, 40)],
    };
    let config = HdpOsrConfig {
        iterations: 10,
        decision_sweeps: 3,
        serving: ServingMode::WarmStart,
        ..Default::default()
    };
    let model = HdpOsr::fit(&config, &train).expect("clean fit");
    let batches = vec![
        blob(&mut rng, -6.0, 0.0, 12),
        blob(&mut rng, 6.0, 0.0, 12),
        blob(&mut rng, 0.0, 9.0, 12),
        {
            let mut mixed = blob(&mut rng, -6.0, 0.0, 6);
            mixed.extend(blob(&mut rng, 0.0, 9.0, 6));
            mixed
        },
    ];
    (model, batches)
}

const SEED: u64 = 4242;

fn serve(
    model: &HdpOsr,
    batches: &[Vec<Vec<f64>>],
    policy: ServePolicy,
) -> Vec<Result<ClassifyOutcome, OsrError>> {
    BatchServer::with_workers(model, 2).with_policy(policy).classify_batches(batches, SEED)
}

/// Bit-exact identity of two healthy outcomes: identical predictions,
/// identical dish seating, and the joint log-likelihood equal to the bit.
fn assert_bit_identical(a: &ClassifyOutcome, b: &ClassifyOutcome, which: &str) {
    assert_eq!(a.predictions, b.predictions, "{which}: predictions drifted");
    assert_eq!(a.test_dishes, b.test_dishes, "{which}: dish seating drifted");
    assert_eq!(
        a.log_likelihood.to_bits(),
        b.log_likelihood.to_bits(),
        "{which}: log-likelihood drifted"
    );
    assert_eq!(a.attempts, b.attempts, "{which}: attempt count drifted");
    assert_eq!(a.served_via, b.served_via, "{which}: serving path drifted");
}

#[test]
fn injected_panic_is_isolated_to_its_batch() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();
    let baseline = serve(&model, &batches, ServePolicy::default());

    let _plan = install(FaultPlan::new().inject(
        sites::ATTEMPT,
        Some(1),
        None,
        Fault::Panic { message: "injected worker panic".into() },
    ));
    // One worker: the calling thread serves the panicking batch and then
    // its siblings itself.
    for workers in [1, 2] {
        let faulted = BatchServer::with_workers(&model, workers).classify_batches(&batches, SEED);
        match faulted[1].as_ref().unwrap_err() {
            OsrError::Internal(msg) => {
                assert!(msg.contains("injected worker panic"), "message was: {msg}");
            }
            other => panic!("expected Internal from a panicking batch, got {other:?}"),
        }
        for idx in [0usize, 2, 3] {
            assert_bit_identical(
                faulted[idx].as_ref().unwrap(),
                baseline[idx].as_ref().unwrap(),
                &format!("sibling batch {idx} of a panicked batch at {workers} worker(s)"),
            );
        }
    }
}

#[test]
fn injected_cholesky_divergence_degrades_after_exhausting_retries() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();
    let policy = ServePolicy {
        max_attempts: 3,
        ..Default::default()
    };
    let baseline = serve(&model, &batches, policy);

    let retries_before = counters::serve_retries();
    let degraded_before = counters::degraded_batches();
    // Every attempt of batch 2 trips the Cholesky jitter ladder, so the
    // retry policy runs dry and the batch falls back to frozen inference.
    let _plan = install(FaultPlan::new().inject(
        sites::CHOLESKY,
        Some(2),
        None,
        Fault::CholeskyFail,
    ));
    let faulted = serve(&model, &batches, policy);

    let outcome = faulted[2].as_ref().expect("degradation answers instead of erroring");
    assert_eq!(
        outcome.served_via,
        ServedVia::Degraded { reason: DegradeReason::RetriesExhausted }
    );
    assert_eq!(outcome.attempts, 3, "all allowed attempts must be consumed");
    assert_eq!(outcome.predictions.len(), batches[2].len());
    // Batch 2 is the unknown blob; frozen inference must still reject it.
    let unknown = outcome.predictions.iter().filter(|p| **p == Prediction::Unknown).count();
    assert!(unknown >= 10, "degraded rejection: {unknown}/12 unknown");

    assert_eq!(
        counters::serve_retries() - retries_before,
        2,
        "3 attempts = 2 recorded retries"
    );
    assert_eq!(counters::degraded_batches() - degraded_before, 1);

    for idx in [0usize, 1, 3] {
        assert_bit_identical(
            faulted[idx].as_ref().unwrap(),
            baseline[idx].as_ref().unwrap(),
            &format!("sibling batch {idx} of a diverging batch"),
        );
    }
}

#[test]
fn retryable_divergence_recovers_within_the_attempt_budget() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();

    let retries_before = counters::serve_retries();
    // Only attempt 0 of batch 0 diverges; the reseeded attempt 1 is healthy.
    let _plan = install(FaultPlan::new().inject(
        sites::ENGINE_SWEEP,
        Some(0),
        Some(0),
        Fault::Diverge,
    ));
    let results = serve(&model, &batches, ServePolicy::default());

    let outcome = results[0].as_ref().expect("retry must rescue a transient divergence");
    assert_eq!(outcome.served_via, ServedVia::Warm, "full service, not degraded");
    assert_eq!(outcome.attempts, 2, "one failed attempt + one successful retry");
    assert_eq!(outcome.predictions.len(), batches[0].len());
    assert_eq!(counters::serve_retries() - retries_before, 1);

    // The retry reseeds with `derive_batch_seed(seed, 0) ^ 1`; the outcome
    // must match a sequential single-shot run under exactly that seed.
    let mut rng = StdRng::seed_from_u64(derive_batch_seed(SEED, 0) ^ 1);
    let sequential = model.classify(&batches[0], &mut rng).unwrap();
    assert_eq!(outcome.predictions, sequential);
}

#[test]
fn injected_nan_is_rejected_by_admission_control() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();

    let _plan = install(FaultPlan::new().inject(
        sites::ADMISSION,
        Some(3),
        None,
        Fault::NanPoint { point: 5, coord: 1 },
    ));
    let results = serve(&model, &batches, ServePolicy::default());

    assert_eq!(
        results[3].as_ref().unwrap_err(),
        &OsrError::NonFiniteFeature { point: 5, coord: 1 },
        "the NaN must be caught before any sampler state is touched"
    );
    for idx in [0usize, 1, 2] {
        assert!(results[idx].is_ok(), "sibling batch {idx} must still serve");
    }
}

#[test]
fn injected_stall_trips_the_deadline_into_degraded_service() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();
    let policy = ServePolicy {
        deadline: Some(Duration::from_millis(5)),
        ..Default::default()
    };

    let degraded_before = counters::degraded_batches();
    // Every sweep of batch 1 sleeps 25 ms, so the 5 ms deadline passes
    // before the first sweep is admitted.
    let _plan = install(FaultPlan::new().inject(
        sites::SWEEP,
        Some(1),
        None,
        Fault::DelayMs(25),
    ));
    let results = serve(&model, &batches, policy);

    let outcome = results[1].as_ref().expect("deadline breach degrades, not errors");
    assert_eq!(
        outcome.served_via,
        ServedVia::Degraded { reason: DegradeReason::DeadlineExceeded }
    );
    assert_eq!(outcome.predictions.len(), batches[1].len());
    assert!(counters::degraded_batches() > degraded_before);
    for idx in [0usize, 2, 3] {
        assert!(results[idx].is_ok(), "sibling batch {idx} must still serve");
    }
}

#[test]
fn degraded_batch_leaves_no_poison_for_the_next_batch_on_its_worker() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();
    let baseline = serve(&model, &batches, ServePolicy::default());

    // A single worker serves the batches in order, so batch 0's degraded
    // service shares its thread — and any leaked thread-local poison — with
    // every later batch. The injected Cholesky failure poisons the flag on
    // each of batch 0's attempts *and* during its degraded frozen inference;
    // the server must scrub it before the worker claims batch 1.
    let sink = Arc::new(RingSink::new(16));
    let _plan = install(FaultPlan::new().inject(
        sites::CHOLESKY,
        Some(0),
        None,
        Fault::CholeskyFail,
    ));
    let results = BatchServer::with_workers(&model, 1)
        .with_trace_sink(sink.clone())
        .classify_batches(&batches, SEED);

    let degraded = results[0].as_ref().expect("batch 0 degrades, not errors");
    assert!(degraded.served_via.is_degraded());
    for idx in [1usize, 2, 3] {
        assert_bit_identical(
            results[idx].as_ref().unwrap(),
            baseline[idx].as_ref().unwrap(),
            &format!("batch {idx} served after a degraded batch on the same worker"),
        );
    }

    let records = sink.records();
    assert_eq!(records.len(), batches.len(), "one trace record per answered batch");
    for record in &records {
        let TraceRecord::Batch(trace) = record else {
            panic!("batch serving must emit Batch records only");
        };
        assert!(
            !trace.inherited_poison,
            "batch {} started with poison inherited from an earlier batch",
            trace.batch
        );
    }
    let TraceRecord::Batch(first) = &records[0] else { unreachable!() };
    assert_eq!(first.attempts, 3, "degraded record keeps the failed attempt count");
    assert!(first.sweeps.is_empty(), "frozen inference runs no sweeps");
    assert_eq!(first.served_via, degraded.served_via);
}

/// An OSNN baseline behind the same serving stack as the CD-OSR tests above.
fn served_osnn_and_batches() -> (ServedBaseline, Vec<Vec<Vec<f64>>>) {
    let mut rng = StdRng::seed_from_u64(97);
    let train = TrainSet {
        class_ids: vec![0, 1],
        classes: vec![blob(&mut rng, -6.0, 0.0, 40), blob(&mut rng, 6.0, 0.0, 40)],
    };
    let served =
        ServedBaseline::train(BaselineSpec::Osnn(OsnnParams::default()), &train).unwrap();
    let batches = vec![
        blob(&mut rng, -6.0, 0.0, 12),
        blob(&mut rng, 6.0, 0.0, 12),
        blob(&mut rng, 0.0, 9.0, 12),
    ];
    (served, batches)
}

#[test]
fn baseline_divergence_degrades_to_the_deterministic_fallback() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (served, batches) = served_osnn_and_batches();
    let healthy = BatchServer::with_workers(&served, 2).classify_batches(&batches, SEED);

    let retries_before = counters::serve_retries();
    let degraded_before = counters::degraded_batches();
    // Every attempt of batch 1 diverges at the baseline's classify site, so
    // the retry policy runs dry. Baselines never draw from the RNG, and their
    // frozen fallback is the normal deterministic computation — degraded
    // service must answer with the same predictions a healthy run produces.
    let _plan = install(FaultPlan::new().inject(
        sites::BASELINE_CLASSIFY,
        Some(1),
        None,
        Fault::Diverge,
    ));
    let faulted = BatchServer::with_workers(&served, 2).classify_batches(&batches, SEED);

    let outcome = faulted[1].as_ref().expect("degradation answers instead of erroring");
    assert_eq!(
        outcome.served_via,
        ServedVia::Degraded { reason: DegradeReason::RetriesExhausted }
    );
    assert_eq!(outcome.attempts, 3, "all allowed attempts must be consumed");
    assert_eq!(outcome.method, "osnn");
    assert_eq!(outcome.predictions, healthy[1].as_ref().unwrap().predictions);
    assert_eq!(counters::serve_retries() - retries_before, 2, "3 attempts = 2 retries");
    assert_eq!(counters::degraded_batches() - degraded_before, 1);
    for idx in [0usize, 2] {
        assert_eq!(
            faulted[idx].as_ref().unwrap().predictions,
            healthy[idx].as_ref().unwrap().predictions,
            "sibling batch {idx} of a diverging baseline batch"
        );
    }
}

#[test]
fn baseline_transient_divergence_recovers_on_retry() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (served, batches) = served_osnn_and_batches();
    let healthy = BatchServer::with_workers(&served, 2).classify_batches(&batches, SEED);

    let retries_before = counters::serve_retries();
    // Only attempt 0 of batch 0 diverges; the retry (same seed — baselines
    // are deterministic, so reseeding is pointless and disabled by the
    // capability flags) completes full service.
    let _plan = install(FaultPlan::new().inject(
        sites::BASELINE_CLASSIFY,
        Some(0),
        Some(0),
        Fault::Diverge,
    ));
    let results = BatchServer::with_workers(&served, 2).classify_batches(&batches, SEED);

    let outcome = results[0].as_ref().expect("retry must rescue a transient divergence");
    assert_eq!(outcome.served_via, ServedVia::Warm, "full service, not degraded");
    assert_eq!(outcome.attempts, 2, "one failed attempt + one successful retry");
    assert_eq!(outcome.predictions, healthy[0].as_ref().unwrap().predictions);
    assert_eq!(counters::serve_retries() - retries_before, 1);
}

#[test]
fn baseline_panic_is_isolated_to_its_batch() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (served, batches) = served_osnn_and_batches();

    let _plan = install(FaultPlan::new().inject(
        sites::BASELINE_CLASSIFY,
        Some(2),
        None,
        Fault::Panic { message: "injected baseline panic".into() },
    ));
    for workers in [1, 2] {
        let results = BatchServer::with_workers(&served, workers).classify_batches(&batches, SEED);
        match results[2].as_ref().unwrap_err() {
            OsrError::Internal(msg) => {
                assert!(msg.contains("injected baseline panic"), "message was: {msg}");
            }
            other => panic!("expected Internal from a panicking batch, got {other:?}"),
        }
        for idx in [0usize, 1] {
            assert!(results[idx].is_ok(), "sibling batch {idx} must serve at {workers} worker(s)");
        }
    }
}

#[test]
fn sweep_budget_exhaustion_degrades_mid_service() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, batches) = warm_model_and_batches();
    // One sweep allowed, three decision sweeps needed: the first attempt
    // runs out of budget mid-service and frozen inference answers.
    let policy = ServePolicy { sweep_budget: Some(1), ..Default::default() };

    let results = serve(&model, &batches, policy);
    for (idx, result) in results.iter().enumerate() {
        let outcome = result.as_ref().expect("budget breach degrades, not errors");
        assert_eq!(
            outcome.served_via,
            ServedVia::Degraded { reason: DegradeReason::SweepBudgetExceeded },
            "batch {idx}"
        );
        assert_eq!(outcome.predictions.len(), batches[idx].len(), "batch {idx}");
    }
}

// ---------------------------------------------------------------------------
// Durable snapshot faults: mid-save crashes, in-flight load corruption, and
// falsified checksums must surface as typed errors, keep the last-good file
// authoritative, and leave the durable degrade rung serving where possible.
// ---------------------------------------------------------------------------

use hdp_osr::core::{CollectiveModel, SnapshotStore};

/// A unique-per-test store path under the system temp directory.
fn temp_snapshot_store(name: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!("osr_fault_snap_{}", std::process::id()));
    SnapshotStore::new(dir.join(format!("{name}.bin")))
}

#[test]
fn mid_save_crash_preserves_the_last_good_snapshot() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, _) = warm_model_and_batches();
    let store = temp_snapshot_store("mid_save_crash");
    store.save(&model).expect("healthy first save");
    let last_good = store.load_bytes().expect("last-good bytes");

    let saves_before = counters::snapshot_saves();
    let _plan =
        install(FaultPlan::new().inject(sites::SNAPSHOT_SAVE, None, None, Fault::Corrupt));
    let err = store.save(&model).expect_err("the injected crash must abort the save");
    assert!(
        matches!(&err, OsrError::Snapshot(e) if e.to_string().contains("mid-save crash")),
        "got {err:?}"
    );
    drop(_plan);

    // The crash hit the temp file only: the last-good snapshot is untouched
    // byte-for-byte and still loads into a servable model.
    assert_eq!(store.load_bytes().unwrap(), last_good);
    let reloaded = store.load().expect("last-good snapshot still loads");
    assert_eq!(reloaded.dim(), model.dim());
    assert_eq!(counters::snapshot_saves(), saves_before, "a failed save must not count");
    let _ = std::fs::remove_file(store.path());
}

#[test]
fn load_corruption_is_a_typed_error_and_never_a_panic() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, _) = warm_model_and_batches();
    let store = temp_snapshot_store("load_corruption");
    store.save(&model).expect("healthy save");

    let failures_before = counters::snapshot_load_failures();
    // The injected byte flip lands after the file is read, modelling
    // in-flight corruption between disk and decoder; a section CRC (or a
    // structural check downstream of it) must reject the container.
    let _plan =
        install(FaultPlan::new().inject(sites::SNAPSHOT_LOAD, None, None, Fault::Corrupt));
    let err = store.load().expect_err("corrupted bytes must not decode");
    assert!(matches!(err, OsrError::Snapshot(_)), "typed snapshot error, got {err:?}");
    assert_eq!(counters::snapshot_load_failures(), failures_before + 1);
    drop(_plan);

    // With the fault cleared the same file loads cleanly: the corruption
    // was injected in flight, not persisted.
    store.load().expect("the on-disk file was never touched");
    let _ = std::fs::remove_file(store.path());
}

#[test]
fn falsified_checksum_is_reported_as_a_checksum_mismatch() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, _) = warm_model_and_batches();
    let store = temp_snapshot_store("falsified_checksum");
    store.save(&model).expect("healthy save");

    let _plan =
        install(FaultPlan::new().inject(sites::SNAPSHOT_CHECKSUM, None, None, Fault::Corrupt));
    let err = store.load().expect_err("a falsified checksum must fail verification");
    assert!(
        matches!(
            &err,
            OsrError::Snapshot(hdp_osr::stats::snapshot::SnapshotError::ChecksumMismatch { .. })
        ),
        "got {err:?}"
    );
    let _ = std::fs::remove_file(store.path());
}

// ---------------------------------------------------------------------------
// Front-end faults: a panicking micro-batch flush must be isolated to that
// micro-batch (typed errors to every waiter, sibling tenants bit-identical),
// also when the dispatching thread serves both micro-batches itself, and an
// enqueue fault must shed typed instead of blocking.
// ---------------------------------------------------------------------------

use hdp_osr::core::{
    FlushOutcome, FlushTrace, FlushTrigger, Frontend, FrontendConfig, ModelRegistry, TraceSink,
};

/// Two tenants sharing one warm CD-OSR model; each submits a full
/// micro-batch, so dispatch serves flush seq 0 (`acme`) and 1 (`beta`) on
/// `workers` threads. Returns the outcomes and the emitted flush traces,
/// both in flush-sequence order.
fn coalesce_two_tenants(
    model: &Arc<HdpOsr>,
    workers: usize,
) -> (Vec<FlushOutcome>, Vec<FlushTrace>) {
    let registry = ModelRegistry::new(2);
    registry.insert("acme", Arc::clone(model) as Arc<dyn CollectiveModel>);
    registry.insert("beta", Arc::clone(model) as Arc<dyn CollectiveModel>);
    let mut frontend = Frontend::new(FrontendConfig {
        dim: 2,
        max_batch: 4,
        max_delay_ns: 1_000,
        max_queue_depth: 32,
        base_seed: SEED,
    })
    .expect("valid config");
    let mut rng = StdRng::seed_from_u64(58);
    for point in blob(&mut rng, -6.0, 0.0, 4) {
        frontend.enqueue("acme", point, 0).expect("admitted");
    }
    for point in blob(&mut rng, 6.0, 0.0, 4) {
        frontend.enqueue("beta", point, 5).expect("admitted");
    }
    assert_eq!(frontend.ready_batches(), 2, "both tenants size-flushed");
    let sink = Arc::new(RingSink::new(8));
    let trace_sink: Arc<dyn TraceSink> = sink.clone();
    let outcomes =
        frontend.dispatch(&registry, workers, &ServePolicy::default(), Some(&trace_sink));
    let traces = sink
        .records()
        .into_iter()
        .map(|record| match record {
            TraceRecord::Flush(trace) => trace,
            other => panic!("dispatch must emit Flush records only, got {other:?}"),
        })
        .collect();
    (outcomes, traces)
}

/// The answers every waiter of a healthy micro-batch received.
fn answers(flush: &FlushOutcome) -> Vec<Prediction> {
    flush.responses.iter().map(|r| *r.result.as_ref().unwrap()).collect()
}

#[test]
fn panicking_flush_is_isolated_to_its_micro_batch() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, _) = warm_model_and_batches();
    let model = Arc::new(model);
    let (baseline, _) = coalesce_two_tenants(&model, 2);

    // Flush seq 0 is `acme`'s micro-batch: its serve panics outright.
    let _plan = install(FaultPlan::new().inject(
        sites::FRONTEND_FLUSH,
        Some(0),
        None,
        Fault::Panic { message: "injected flush panic".into() },
    ));
    let (faulted, _) = coalesce_two_tenants(&model, 2);
    assert_eq!(faulted.len(), 2);

    // Every waiter of the failed micro-batch gets the typed error — no
    // waiter is dropped, none blocks.
    let acme = &faulted[0];
    assert_eq!(acme.tenant, "acme");
    assert_eq!(acme.trigger, FlushTrigger::Size);
    assert_eq!(acme.responses.len(), 4, "all four waiters are answered");
    match acme.outcome.as_ref().unwrap_err() {
        OsrError::Internal(msg) => {
            assert!(msg.contains("injected flush panic"), "message was: {msg}");
        }
        other => panic!("expected Internal from a panicking flush, got {other:?}"),
    }
    for response in &acme.responses {
        match response.result.as_ref().unwrap_err() {
            OsrError::Internal(msg) => {
                assert!(msg.contains("injected flush panic"), "message was: {msg}");
            }
            other => panic!("waiter must see the typed flush error, got {other:?}"),
        }
    }

    // The sibling tenant's micro-batch — served in the same dispatch round,
    // possibly on the same worker — is bit-identical to the uninjected run.
    let beta = &faulted[1];
    assert_eq!(beta.tenant, "beta");
    assert_bit_identical(
        beta.outcome.as_ref().unwrap(),
        baseline[1].outcome.as_ref().unwrap(),
        "sibling tenant of a panicked micro-batch",
    );
    assert_eq!(answers(beta), answers(&baseline[1]), "sibling waiters' answers drifted");
}

#[test]
fn panicking_flush_on_the_dispatching_thread_spares_the_next_flush() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, _) = warm_model_and_batches();
    let model = Arc::new(model);
    let (baseline, _) = coalesce_two_tenants(&model, 2);

    // One worker: the dispatching thread serves flush 0 and then flush 1
    // itself, so the panic unwinds on the very thread that serves next.
    let _plan = install(FaultPlan::new().inject(
        sites::FRONTEND_FLUSH,
        Some(0),
        None,
        Fault::Panic { message: "injected flush panic".into() },
    ));
    let (faulted, traces) = coalesce_two_tenants(&model, 1);
    assert_eq!(faulted.len(), 2);

    let acme = &faulted[0];
    assert_eq!(acme.responses.len(), 4, "all four waiters are answered");
    for response in &acme.responses {
        match response.result.as_ref().unwrap_err() {
            OsrError::Internal(msg) => {
                assert!(msg.contains("injected flush panic"), "message was: {msg}");
            }
            other => panic!("waiter must see the typed flush error, got {other:?}"),
        }
    }

    let beta = &faulted[1];
    assert_bit_identical(
        beta.outcome.as_ref().unwrap(),
        baseline[1].outcome.as_ref().unwrap(),
        "flush served after a panicked flush on the same thread",
    );
    assert_eq!(answers(beta), answers(&baseline[1]), "next flush's answers drifted");
    // A panicked flush emits no trace; flush 1's trace is the only one.
    assert_eq!(traces.len(), 1);
    assert_eq!(traces[0].batch.batch, 1);
    assert!(!traces[0].batch.inherited_poison, "flush 1 inherited poison");
}

#[test]
fn diverging_flush_on_the_dispatching_thread_leaves_no_poison_for_the_next() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let (model, _) = warm_model_and_batches();
    let model = Arc::new(model);
    let (baseline, _) = coalesce_two_tenants(&model, 2);

    // Flush 0 answers but leaves the dispatching thread poisoned; that
    // thread then serves flush 1, which must start clean.
    let _plan = install(FaultPlan::new().inject(
        sites::FRONTEND_FLUSH,
        Some(0),
        None,
        Fault::Diverge,
    ));
    let (faulted, traces) = coalesce_two_tenants(&model, 1);
    assert_eq!(faulted.len(), 2);
    assert_eq!(traces.len(), 2, "both flushes answer and trace");
    for idx in [0usize, 1] {
        assert_bit_identical(
            faulted[idx].outcome.as_ref().unwrap(),
            baseline[idx].outcome.as_ref().unwrap(),
            &format!("flush {idx} on the dispatching thread"),
        );
        assert_eq!(answers(&faulted[idx]), answers(&baseline[idx]), "flush {idx} drifted");
    }
    assert!(!traces[0].batch.inherited_poison, "flush 0 started poisoned");
    assert_eq!(traces[1].batch.batch, 1);
    assert!(!traces[1].batch.inherited_poison, "flush 1 inherited flush 0's poison");
}

#[test]
fn enqueue_fault_sheds_typed_instead_of_blocking() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let mut frontend = Frontend::new(FrontendConfig {
        dim: 2,
        max_batch: 8,
        max_delay_ns: 1_000,
        max_queue_depth: 32,
        base_seed: SEED,
    })
    .expect("valid config");

    assert_eq!(frontend.enqueue("acme", vec![0.0, 0.0], 0).expect("healthy"), 0);
    assert_eq!(frontend.enqueue("acme", vec![0.1, 0.0], 1).expect("healthy"), 1);

    // The fault context at the enqueue site is the would-be request id:
    // request 2's admission is forced onto the shed path.
    let shed_before = counters::frontend_shed();
    let plan =
        install(FaultPlan::new().inject(sites::FRONTEND_ENQUEUE, Some(2), None, Fault::Corrupt));
    match frontend.enqueue("acme", vec![0.2, 0.0], 2) {
        Err(OsrError::Overloaded { tenant, depth }) => {
            assert_eq!(tenant, "acme");
            assert_eq!(depth, 2, "the backlog depth at rejection time");
        }
        other => panic!("expected a typed Overloaded shed, got {other:?}"),
    }
    assert_eq!(counters::frontend_shed() - shed_before, 1);
    drop(plan);

    // A shed consumes no request id and poisons nothing: admission resumes
    // with the same id once the fault clears.
    assert_eq!(frontend.enqueue("acme", vec![0.2, 0.0], 3).expect("healthy again"), 2);
    assert_eq!(frontend.pending_requests(), 3);
}

#[test]
fn cold_model_divergence_recovers_from_the_durable_snapshot() {
    let _g = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    // The store holds a warm model's checkpoint; the *serving* model is
    // cold-started, so it has no in-memory frozen fallback — before this PR
    // its exhausted batches could only error out.
    let (warm_model, batches) = warm_model_and_batches();
    let store = Arc::new(temp_snapshot_store("durable_recovery"));
    store.save(&warm_model).expect("healthy save");

    let mut rng = StdRng::seed_from_u64(97);
    let train = TrainSet {
        class_ids: vec![1, 2],
        classes: vec![blob(&mut rng, -6.0, 0.0, 40), blob(&mut rng, 6.0, 0.0, 40)],
    };
    let cold_config = HdpOsrConfig {
        iterations: 10,
        decision_sweeps: 3,
        serving: ServingMode::ColdStart,
        ..Default::default()
    };
    let cold_model = HdpOsr::fit(&cold_config, &train).expect("clean cold fit");

    let recoveries_before = counters::durable_recoveries();
    let degraded_before = counters::degraded_batches();
    // Every attempt of batch 2 diverges; with no frozen fallback the degrade
    // ladder's last rung reloads the durable snapshot and serves from it.
    let _plan =
        install(FaultPlan::new().inject(sites::ENGINE_SWEEP, Some(2), None, Fault::Diverge));
    let results = BatchServer::with_workers(&cold_model, 2)
        .with_snapshot_store(store.clone())
        .classify_batches(&batches, SEED);

    let outcome = results[2].as_ref().expect("durable recovery answers instead of erroring");
    assert_eq!(
        outcome.served_via,
        ServedVia::Degraded { reason: DegradeReason::RetriesExhausted }
    );
    assert_eq!(outcome.attempts, 3, "all allowed attempts must be consumed first");
    assert_eq!(counters::durable_recoveries() - recoveries_before, 1);
    assert_eq!(counters::degraded_batches() - degraded_before, 1);

    // The durable answer is exactly what the warm model's frozen fallback
    // would have said: recovery reconstructs the same checkpoint.
    let frozen = warm_model
        .classify_frozen(&batches[2], DegradeReason::RetriesExhausted, 3)
        .expect("warm model freezes");
    assert_eq!(outcome.predictions, frozen.predictions);
    assert_eq!(outcome.test_dishes, frozen.test_dishes);
    assert_eq!(outcome.log_likelihood.to_bits(), frozen.log_likelihood.to_bits());

    // Sibling batches still served full collective decisions.
    for idx in [0usize, 1, 3] {
        assert_eq!(results[idx].as_ref().unwrap().served_via, ServedVia::Cold, "batch {idx}");
    }
    drop(_plan);

    // Without a usable snapshot the same failure surfaces as the typed
    // divergence error — corrupted durable state must not panic the server.
    let _ = std::fs::remove_file(store.path());
    let _plan =
        install(FaultPlan::new().inject(sites::ENGINE_SWEEP, Some(2), None, Fault::Diverge));
    let results = BatchServer::with_workers(&cold_model, 2)
        .with_snapshot_store(store.clone())
        .classify_batches(&batches, SEED);
    assert!(
        matches!(results[2].as_ref().unwrap_err(), OsrError::Diverged { .. }),
        "missing snapshot: degrade ladder exhausted, typed error"
    );
}
