//! Helpers shared by the integration suites: the two-blob point generator,
//! the golden scene that the trace and snapshot suites both serve, and the
//! committed-golden check.

// Each suite uses only part of this module.
#![allow(dead_code)]

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use hdp_osr::core::{
    batch_trace_id, BatchServer, HdpOsr, HdpOsrConfig, RingSink, ServingMode, TraceRecord,
};
use hdp_osr::dataset::protocol::TrainSet;
use hdp_osr::stats::sampling;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The serving seed of the golden scene's batch streams.
pub const SEED: u64 = 20_26;
/// Burn-in sweeps of the golden scene's fit.
pub const ITERATIONS: usize = 12;
/// Decision sweeps per served batch of the golden scene.
pub const DECISION_SWEEPS: usize = 3;

/// `n` 2-D points around `(cx, cy)`, standard deviation 0.5 per axis.
pub fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| {
            vec![
                cx + 0.5 * sampling::standard_normal(rng),
                cy + 0.5 * sampling::standard_normal(rng),
            ]
        })
        .collect()
}

/// The golden scene, fitted for `serving`: two separated known classes and
/// four batches (known / known / unknown / mixed). Everything derives from
/// literal seeds, so its streams are reproducible in any order and any
/// process.
pub fn model_and_batches(serving: ServingMode) -> (HdpOsr, Vec<Vec<Vec<f64>>>) {
    let mut rng = StdRng::seed_from_u64(314);
    let train = TrainSet {
        class_ids: vec![1, 2],
        classes: vec![blob(&mut rng, -6.0, 0.0, 40), blob(&mut rng, 6.0, 0.0, 40)],
    };
    let config = HdpOsrConfig {
        iterations: ITERATIONS,
        decision_sweeps: DECISION_SWEEPS,
        serving,
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

/// Serve `batches` on `model` at [`SEED`] and return the sink's JSONL
/// lines, one per batch, in batch-index order.
pub fn trace_lines(model: &HdpOsr, batches: &[Vec<Vec<f64>>], workers: usize) -> Vec<String> {
    let sink = Arc::new(RingSink::new(64));
    let results = BatchServer::with_workers(model, workers)
        .with_trace_sink(sink.clone())
        .classify_batches(batches, SEED);
    for (idx, result) in results.iter().enumerate() {
        let outcome = result.as_ref().expect("healthy batch");
        assert_eq!(outcome.trace_id, batch_trace_id(SEED, idx), "outcome/trace id mismatch");
    }
    sink.records().iter().map(TraceRecord::to_jsonl).collect()
}

/// Compare `actual` against the committed golden `tests/goldens/<name>`,
/// or rewrite the golden when `UPDATE_GOLDENS` is set.
pub fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/goldens").join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        fs::create_dir_all(path.parent().expect("goldens dir has a parent")).expect("mkdir");
        fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden `{name}` ({e}); regenerate with UPDATE_GOLDENS=1")
    });
    assert_eq!(actual, expected, "golden `{name}` drifted; see tests/goldens/");
}
