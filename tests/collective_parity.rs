//! Trait-parity suite for method-agnostic serving.
//!
//! The [`CollectiveModel`] seam must be invisible for CD-OSR — serving
//! through `&dyn CollectiveModel` has to reproduce the direct
//! `HdpOsr::classify` path bit for bit, and the trace stream must stay
//! byte-compatible (no `method` key for CD-OSR records). The baselines must
//! ride the *same* production stack end to end: admission, trace emission,
//! method tagging, and outcome shape all through [`BatchServer`].

// Test code: the crate-level unwrap/expect ban targets serving paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::{Arc, OnceLock};

use common::blob;
use hdp_osr::baselines::{BaselineSpec, ServedBaseline};
use hdp_osr::core::{
    batch_trace_id, derive_batch_seed, BatchServer, CollectiveModel, HdpOsr, HdpOsrConfig,
    RingSink, ServedVia, ServingMode, TraceRecord, CDOSR_METHOD,
};
use hdp_osr::dataset::protocol::TrainSet;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SEED: u64 = 777;

/// Two separated known classes plus three batches (known / unknown / mixed).
fn train_and_batches() -> (TrainSet, Vec<Vec<Vec<f64>>>) {
    let mut rng = StdRng::seed_from_u64(2023);
    let train = TrainSet {
        class_ids: vec![1, 2],
        classes: vec![blob(&mut rng, -6.0, 0.0, 40), blob(&mut rng, 6.0, 0.0, 40)],
    };
    let batches = vec![
        blob(&mut rng, -6.0, 0.0, 10),
        blob(&mut rng, 0.0, 9.0, 10),
        {
            let mut mixed = blob(&mut rng, 6.0, 0.0, 5);
            mixed.extend(blob(&mut rng, 0.0, 9.0, 5));
            mixed
        },
    ];
    (train, batches)
}

fn hdp_model(train: &TrainSet, serving: ServingMode) -> HdpOsr {
    let config =
        HdpOsrConfig { iterations: 8, decision_sweeps: 3, serving, ..Default::default() };
    HdpOsr::fit(&config, train).expect("clean fit")
}

/// Serve through the server (which only sees `&dyn CollectiveModel`) and
/// return outcomes plus the JSONL trace lines.
fn serve_dyn(
    model: &dyn CollectiveModel,
    batches: &[Vec<Vec<f64>>],
    workers: usize,
) -> (Vec<hdp_osr::core::ClassifyOutcome>, Vec<String>) {
    let sink = Arc::new(RingSink::new(32));
    let outcomes = BatchServer::with_workers(model, workers)
        .with_trace_sink(sink.clone())
        .classify_batches(batches, SEED)
        .into_iter()
        .map(|r| r.expect("healthy batch"))
        .collect();
    let lines = sink.records().iter().map(TraceRecord::to_jsonl).collect();
    (outcomes, lines)
}

#[test]
fn hdp_through_the_trait_is_bit_identical_to_the_direct_path() {
    let (train, batches) = train_and_batches();
    for serving in [ServingMode::WarmStart, ServingMode::ColdStart] {
        let model = hdp_model(&train, serving);
        let (outcomes, _) = serve_dyn(&model, &batches, 2);
        for (idx, outcome) in outcomes.iter().enumerate() {
            // The direct path under the server's derived per-batch seed must
            // agree to the bit: same predictions, same dish seating, same
            // joint likelihood.
            let mut rng = StdRng::seed_from_u64(derive_batch_seed(SEED, idx));
            let direct = model.classify_detailed(&batches[idx], &mut rng).unwrap();
            assert_eq!(outcome.predictions, direct.predictions, "batch {idx}");
            assert_eq!(outcome.test_dishes, direct.test_dishes, "batch {idx}");
            assert_eq!(
                outcome.log_likelihood.to_bits(),
                direct.log_likelihood.to_bits(),
                "batch {idx}"
            );
            assert_eq!(outcome.method, CDOSR_METHOD, "batch {idx}");
            assert_eq!(outcome.trace_id, batch_trace_id(SEED, idx), "batch {idx}");
        }
    }
}

#[test]
fn cdosr_trace_lines_omit_the_method_key() {
    let (train, batches) = train_and_batches();
    let model = hdp_model(&train, ServingMode::WarmStart);
    let (_, lines) = serve_dyn(&model, &batches, 1);
    assert_eq!(lines.len(), batches.len());
    for line in &lines {
        // Byte-compatibility with pre-trait streams: no `method` key at all.
        assert!(!line.contains("\"method\""), "CD-OSR line grew a method key: {line}");
        let TraceRecord::Batch(trace) = TraceRecord::from_jsonl(line).unwrap() else {
            panic!("batch serving emits Batch records only");
        };
        assert_eq!(trace.method, CDOSR_METHOD, "absent key must decode to cdosr");
    }
}

#[test]
fn every_baseline_serves_end_to_end_through_the_batch_server() {
    let (train, batches) = train_and_batches();
    for spec in BaselineSpec::default_lineup() {
        let served = ServedBaseline::train(spec, &train).unwrap();
        let (outcomes, lines) = serve_dyn(&served, &batches, 2);
        assert_eq!(outcomes.len(), batches.len(), "{}", spec.method());
        for (idx, outcome) in outcomes.iter().enumerate() {
            assert_eq!(outcome.predictions.len(), batches[idx].len());
            assert_eq!(outcome.method, spec.method());
            assert_eq!(outcome.served_via, ServedVia::Warm);
            assert_eq!(outcome.attempts, 1);
            assert_eq!(outcome.trace_id, batch_trace_id(SEED, idx));
        }
        for line in &lines {
            let tag = format!("\"method\":\"{}\"", spec.method());
            assert!(line.contains(&tag), "{} line missing its tag: {line}", spec.method());
            let TraceRecord::Batch(trace) = TraceRecord::from_jsonl(line).unwrap() else {
                panic!("batch serving emits Batch records only");
            };
            assert_eq!(trace.method, spec.method());
            assert!(trace.sweeps.is_empty(), "baselines are sweep-free");
        }
    }
}

#[test]
fn baseline_service_is_deterministic_across_worker_counts_and_seeds() {
    let (train, batches) = train_and_batches();
    let served =
        ServedBaseline::train(BaselineSpec::default_lineup()[4], &train).unwrap(); // OSNN
    let (one, _) = serve_dyn(&served, &batches, 1);
    let (eight, _) = serve_dyn(&served, &batches, 8);
    for (a, b) in one.iter().zip(&eight) {
        assert_eq!(a.predictions, b.predictions, "worker count leaked into a baseline");
    }
    // Baselines consume no randomness: a different seed changes trace ids
    // only, never predictions.
    let other_seed = BatchServer::with_workers(&served as &dyn CollectiveModel, 1)
        .classify_batches(&batches, SEED ^ 0xDEAD)
        .into_iter()
        .map(|r| r.unwrap())
        .collect::<Vec<_>>();
    for (a, b) in one.iter().zip(&other_seed) {
        assert_eq!(a.predictions, b.predictions, "seed leaked into a baseline");
    }
}

/// All six methods behind one trait object list, trained once.
fn all_models(train: &TrainSet) -> &'static Vec<Box<dyn CollectiveModel>> {
    static MODELS: OnceLock<Vec<Box<dyn CollectiveModel>>> = OnceLock::new();
    MODELS.get_or_init(|| {
        let mut models: Vec<Box<dyn CollectiveModel>> =
            vec![Box::new(hdp_model(train, ServingMode::WarmStart))];
        for spec in BaselineSpec::default_lineup() {
            models.push(Box::new(ServedBaseline::train(spec, train).unwrap()));
        }
        models
    })
}

/// A coordinate drawn from the hostile spectrum: ordinary, non-finite, and
/// extreme-magnitude values.
fn coord() -> impl Strategy<Value = f64> {
    prop_oneof![
        -8.0f64..8.0,
        Just(0.0),
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(1e300),
        Just(-1e300),
    ]
}

prop_compose! {
    /// Batches of 0–5 points with independently drawn dimensions (0–4), so
    /// empty batches, empty points, and ragged dimension mixes all occur.
    fn hostile_batch()(
        points in prop::collection::vec(prop::collection::vec(coord(), 0..5), 0..6),
    ) -> Vec<Vec<f64>> {
        points
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The server must answer every method with an outcome sized to the
    /// batch or a typed error — reaching the end of the closure at all
    /// proves no method panics on hostile input.
    #[test]
    fn hostile_batches_never_panic_any_served_method(
        batch in hostile_batch(),
        seed in 0u64..1_000_000,
    ) {
        let (train, _) = train_and_batches();
        for model in all_models(&train) {
            let results = BatchServer::with_workers(model.as_ref(), 1)
                .classify_batches(std::slice::from_ref(&batch), seed);
            prop_assert_eq!(results.len(), 1);
            // A typed rejection is the other legal answer.
            if let Ok(outcome) = &results[0] {
                prop_assert_eq!(outcome.predictions.len(), batch.len());
                prop_assert_eq!(outcome.method.as_str(), model.method());
            }
        }
    }
}
