//! Cold vs warm serving on the LETTER replica — the tentpole measurement —
//! plus method-agnostic serving through the production [`BatchServer`].
//!
//! Reproduces the fit-once/serve-many claim: classifying a 100-point batch
//! against 10 known LETTER classes costs a full transductive burn-in under
//! `ServingMode::ColdStart` but only `decision_sweeps` batch-local sweeps
//! under the default `ServingMode::WarmStart`. Wall-clock medians, the
//! machine-independent predictive-logpdf call counts, the production-stack
//! serve timings, and the serve counters (retries, degraded batches) are
//! written to `BENCH_serving.json` at the repository root.
//!
//! Since every method implements `CollectiveModel`, the same batch can be
//! benchmarked through the identical serving stack for any baseline:
//!
//! ```text
//! cargo bench -p osr-bench --bench serving                       # CD-OSR
//! cargo bench -p osr-bench --bench serving -- --method osnn      # a baseline
//! ```
//!
//! `--method {cdosr,wsvm,pisvm,osnn,onevset,wosvm}` selects the model;
//! baseline runs are written to `BENCH_serving_<method>.json` so the
//! committed CD-OSR report is never clobbered by a baseline sweep.

use std::time::Instant;

use criterion::{measure, Summary};
use hdp_osr_core::{BatchServer, CollectiveModel, HdpOsr, HdpOsrConfig, ServingMode};
use osr_baselines::{BaselineSpec, ServedBaseline};
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
    method: String,
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

/// Baseline report: no cold/warm split (baselines are sweep-free) and no
/// predictive-kernel counters (those belong to the HDP sampler).
#[derive(Serialize)]
struct BaselineReport {
    schema: u32,
    method: String,
    dataset: String,
    train_points: usize,
    known_classes: usize,
    batch_size: usize,
    seed: u64,
    train_ms: f64,
    serve: ServeStats,
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measure one batch through the production serving stack for any method.
fn run_serve(model: &dyn CollectiveModel, batch: &[Vec<f64>], sample_size: usize) -> ServeStats {
    let batches = vec![batch.to_vec()];
    let retries_before = serve_retries();
    let degraded_before = degraded_batches();
    let summary = measure(sample_size, |b| {
        b.iter(|| {
            BatchServer::with_workers(model, 1)
                .classify_batches(&batches, SEED)
                .pop()
                .expect("one result per batch")
                .expect("healthy serve")
        })
    });
    ServeStats {
        serve_median_ms: ms(summary.median),
        serve_min_ms: ms(summary.min),
        serve_mean_ms: ms(summary.mean),
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
    let fit_ms = ms(t0.elapsed());

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

    let summary = measure(sample_size, |b| {
        b.iter(|| {
            model
                .classify(batch, &mut StdRng::seed_from_u64(SEED))
                .expect("classify LETTER batch")
        })
    });
    let stats = ModeStats {
        fit_ms,
        classify_median_ms: ms(summary.median),
        classify_min_ms: ms(summary.min),
        classify_mean_ms: ms(summary.mean),
        samples: summary.samples,
        predictive_calls_per_batch: calls,
        one_vs_all_kernels_per_batch: one_vs_all,
        batch_vs_one_kernels_per_batch: batch_vs_one,
    };
    (stats, summary)
}

fn baseline_spec(method: &str) -> Option<BaselineSpec> {
    BaselineSpec::default_lineup().into_iter().find(|spec| spec.method() == method)
}

fn parse_method() -> String {
    let args: Vec<String> = std::env::args().collect();
    let mut method = "cdosr".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        if arg == "--method" {
            method = it
                .next()
                .expect("--method requires one of cdosr|wsvm|pisvm|osnn|onevset|wosvm")
                .clone();
        }
    }
    if method != "cdosr" && baseline_spec(&method).is_none() {
        panic!("unknown --method `{method}`; use cdosr|wsvm|pisvm|osnn|onevset|wosvm");
    }
    method
}

fn main() {
    let method = parse_method();
    let mut rng = StdRng::seed_from_u64(SEED);
    let data = letter_scene(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(10, 5), &mut rng)
        .expect("LETTER replica supports a 10+5 split");
    let batch: Vec<Vec<f64>> = split.test.points.iter().take(BATCH).cloned().collect();
    assert_eq!(batch.len(), BATCH, "test split holds at least one full batch");

    if method == "cdosr" {
        bench_cdosr(&data.name, &split, &batch);
    } else {
        bench_baseline(&method, &data.name, &split, &batch);
    }
}

fn letter_scene(rng: &mut StdRng) -> osr_dataset::Dataset {
    osr_dataset::synthetic::letter_config().scaled(0.1).generate(rng)
}

fn bench_cdosr(dataset: &str, split: &OpenSetSplit, batch: &[Vec<f64>]) {
    let config = HdpOsrConfig::default();
    eprintln!(
        "serving bench [cdosr]: {} train points, {} known classes, batch {}, {} sweeps",
        split.train.total_points(),
        split.train.n_classes(),
        BATCH,
        config.iterations
    );

    let (cold, cold_sum) = run_mode(ServingMode::ColdStart, &split.train, batch, 5);
    eprintln!("cold : median {:>10.2?}/batch", cold_sum.median);
    let (warm, warm_sum) = run_mode(ServingMode::WarmStart, &split.train, batch, 30);
    eprintln!("warm : median {:>10.2?}/batch", warm_sum.median);

    // The production stack itself, at the trait seam the server sees.
    let warm_config = HdpOsrConfig { serving: ServingMode::WarmStart, ..Default::default() };
    let model = HdpOsr::fit(&warm_config, &split.train).expect("fit LETTER replica");
    let serve = run_serve(&model, batch, 30);
    eprintln!("serve: median {:>10.2}ms/batch through BatchServer", serve.serve_median_ms);

    let report = Report {
        schema: SCHEMA,
        method: "cdosr".to_string(),
        dataset: dataset.to_string(),
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
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    println!("{json}");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serving.json");
    std::fs::write(path, json + "\n").expect("write BENCH_serving.json");
    eprintln!(
        "speedup: {:.1}x wall-clock, {:.1}x predictive calls -> {path}",
        report.speedup_median, report.predictive_call_ratio
    );
}

fn bench_baseline(method: &str, dataset: &str, split: &OpenSetSplit, batch: &[Vec<f64>]) {
    let spec = baseline_spec(method).expect("validated by parse_method");
    eprintln!(
        "serving bench [{method}]: {} train points, {} known classes, batch {}",
        split.train.total_points(),
        split.train.n_classes(),
        BATCH
    );

    let t0 = Instant::now();
    let served = ServedBaseline::train(spec, &split.train).expect("train baseline");
    let train_ms = ms(t0.elapsed());
    let serve = run_serve(&served, batch, 30);
    eprintln!("serve: median {:>10.2}ms/batch through BatchServer", serve.serve_median_ms);

    let report = BaselineReport {
        schema: SCHEMA,
        method: method.to_string(),
        dataset: dataset.to_string(),
        train_points: split.train.total_points(),
        known_classes: split.train.n_classes(),
        batch_size: BATCH,
        seed: SEED,
        train_ms,
        serve,
    };
    let json = serde_json::to_string_pretty(&report).expect("serializable report");
    println!("{json}");

    let path = format!(
        "{}/../../BENCH_serving_{method}.json",
        env!("CARGO_MANIFEST_DIR")
    );
    std::fs::write(&path, json + "\n").expect("write baseline serving report");
    eprintln!("-> {path}");
}
