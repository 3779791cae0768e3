//! Cold vs warm serving on the LETTER replica — the tentpole measurement —
//! plus CD-OSR served through the production [`BatchServer`].
//!
//! Reproduces the fit-once/serve-many claim: classifying a 100-point batch
//! against 10 known LETTER classes costs a full transductive burn-in under
//! `ServingMode::ColdStart` but only `decision_sweeps` batch-local sweeps
//! under the default `ServingMode::WarmStart`. Wall-clock medians, the
//! machine-independent predictive-logpdf call counts, the production-stack
//! serve timings, and the serve counters (retries, degraded batches) are
//! written to `BENCH_serving.json` at the repository root.
//!
//! ```text
//! cargo bench -p osr-bench --bench serving
//! ```
//!
//! The baselines reach the same `BatchServer` seam on every `replicate`
//! trial (see `osr_eval::experiment`).

use std::time::Instant;

use hdp_osr_core::{BatchServer, CollectiveModel, HdpOsr, HdpOsrConfig, ServingMode};
use osr_bench::timing::{measure, write_report, Summary};
use osr_dataset::protocol::{OpenSetSplit, SplitConfig, TrainSet};
use osr_stats::counters::{
    degraded_batches, predictive_batch_vs_one_calls, predictive_logpdf_calls,
    predictive_one_vs_all_calls, serve_retries,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

const BATCH: usize = 100;
const SEED: u64 = 42;
/// Report schema version: 2 = method-agnostic serving (method tag + serve
/// counters + production-stack serve timings).
const SCHEMA: u32 = 2;

#[derive(Serialize)]
struct ModeStats {
    fit_ms: f64,
    classify_median_ms: f64,
    classify_min_ms: f64,
    classify_mean_ms: f64,
    samples: usize,
    predictive_calls_per_batch: u64,
    one_vs_all_kernels_per_batch: u64,
    batch_vs_one_kernels_per_batch: u64,
}

/// One batch served through the production `BatchServer` stack, measured at
/// the method-agnostic `&dyn CollectiveModel` seam.
#[derive(Serialize)]
struct ServeStats {
    serve_median_ms: f64,
    serve_min_ms: f64,
    serve_mean_ms: f64,
    samples: usize,
    serve_retries: u64,
    degraded_batches: u64,
}

#[derive(Serialize)]
struct Report {
    schema: u32,
    method: &'static str,
    dataset: String,
    train_points: usize,
    known_classes: usize,
    batch_size: usize,
    iterations: usize,
    decision_sweeps: usize,
    seed: u64,
    cold: ModeStats,
    warm: ModeStats,
    serve: ServeStats,
    speedup_median: f64,
    predictive_call_ratio: f64,
}

/// Measure one batch through the production serving stack.
fn run_serve(model: &dyn CollectiveModel, batch: &[Vec<f64>], sample_size: usize) -> ServeStats {
    let batches = vec![batch.to_vec()];
    let retries_before = serve_retries();
    let degraded_before = degraded_batches();
    let summary = measure(sample_size, || {
        BatchServer::with_workers(model, 1)
            .classify_batches(&batches, SEED)
            .pop()
            .expect("one result per batch")
            .expect("healthy serve")
    });
    ServeStats {
        serve_median_ms: summary.median.as_secs_f64() * 1e3,
        serve_min_ms: summary.min.as_secs_f64() * 1e3,
        serve_mean_ms: summary.mean.as_secs_f64() * 1e3,
        samples: summary.samples,
        serve_retries: serve_retries() - retries_before,
        degraded_batches: degraded_batches() - degraded_before,
    }
}

fn run_mode(
    serving: ServingMode,
    train: &TrainSet,
    batch: &[Vec<f64>],
    sample_size: usize,
) -> (ModeStats, Summary) {
    let config = HdpOsrConfig { serving, ..Default::default() };
    let t0 = Instant::now();
    let model = HdpOsr::fit(&config, train).expect("fit LETTER replica");
    let fit_ms = t0.elapsed().as_secs_f64() * 1e3;

    // Machine-independent units of work: predictive evaluations per batch,
    // plus the fused-kernel invocation counts (one-vs-all scoring passes and
    // batch-vs-one block predictives) that replaced the per-dish loop.
    let before = predictive_logpdf_calls();
    let before_one = predictive_one_vs_all_calls();
    let before_block = predictive_batch_vs_one_calls();
    model
        .classify(batch, &mut StdRng::seed_from_u64(SEED))
        .expect("classify LETTER batch");
    let calls = predictive_logpdf_calls() - before;
    let one_vs_all = predictive_one_vs_all_calls() - before_one;
    let batch_vs_one = predictive_batch_vs_one_calls() - before_block;

    let summary = measure(sample_size, || {
        model
            .classify(batch, &mut StdRng::seed_from_u64(SEED))
            .expect("classify LETTER batch")
    });
    let stats = ModeStats {
        fit_ms,
        classify_median_ms: summary.median.as_secs_f64() * 1e3,
        classify_min_ms: summary.min.as_secs_f64() * 1e3,
        classify_mean_ms: summary.mean.as_secs_f64() * 1e3,
        samples: summary.samples,
        predictive_calls_per_batch: calls,
        one_vs_all_kernels_per_batch: one_vs_all,
        batch_vs_one_kernels_per_batch: batch_vs_one,
    };
    (stats, summary)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(SEED);
    let data = osr_dataset::synthetic::letter_config().scaled(0.1).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(10, 5), &mut rng)
        .expect("LETTER replica supports a 10+5 split");
    let batch: Vec<Vec<f64>> = split.test.points.iter().take(BATCH).cloned().collect();
    assert_eq!(batch.len(), BATCH, "test split holds at least one full batch");

    let config = HdpOsrConfig::default();
    eprintln!(
        "serving bench [cdosr]: {} train points, {} known classes, batch {}, {} sweeps",
        split.train.total_points(),
        split.train.n_classes(),
        BATCH,
        config.iterations
    );

    let (cold, cold_sum) = run_mode(ServingMode::ColdStart, &split.train, &batch, 5);
    eprintln!("cold : median {:>10.2?}/batch", cold_sum.median);
    let (warm, warm_sum) = run_mode(ServingMode::WarmStart, &split.train, &batch, 30);
    eprintln!("warm : median {:>10.2?}/batch", warm_sum.median);

    // The production stack itself, at the trait seam the server sees.
    let warm_config = HdpOsrConfig { serving: ServingMode::WarmStart, ..Default::default() };
    let model = HdpOsr::fit(&warm_config, &split.train).expect("fit LETTER replica");
    let serve = run_serve(&model, &batch, 30);
    eprintln!("serve: median {:>10.2}ms/batch through BatchServer", serve.serve_median_ms);

    let report = Report {
        schema: SCHEMA,
        method: "cdosr",
        dataset: data.name.clone(),
        train_points: split.train.total_points(),
        known_classes: split.train.n_classes(),
        batch_size: BATCH,
        iterations: config.iterations,
        decision_sweeps: config.decision_sweeps,
        seed: SEED,
        speedup_median: cold.classify_median_ms / warm.classify_median_ms,
        predictive_call_ratio: cold.predictive_calls_per_batch as f64
            / warm.predictive_calls_per_batch.max(1) as f64,
        cold,
        warm,
        serve,
    };
    eprintln!(
        "speedup: {:.1}x wall-clock, {:.1}x predictive calls",
        report.speedup_median, report.predictive_call_ratio
    );
    write_report("BENCH_serving.json", &report);
}
