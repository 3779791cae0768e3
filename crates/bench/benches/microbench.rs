//! Criterion microbenchmarks for the computational kernels behind the
//! paper's experiments: the NIW predictive (the sampler's inner loop), a
//! full Gibbs sweep, SMO training, EVT calibration, and each method's
//! end-to-end train+predict cost on a small open-set problem.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use hdp_osr_core::{HdpOsr, HdpOsrConfig};
use osr_baselines::{OpenSetClassifier, Osnn, OsnnParams, PiSvm, PiSvmParams, WSvm, WSvmParams};
use osr_dataset::protocol::{OpenSetSplit, SplitConfig};
use osr_dataset::synthetic::pendigits_config;
use osr_hdp::{Hdp, HdpConfig};
use osr_linalg::{Cholesky, Matrix};
use osr_stats::weibull::Weibull;
use osr_stats::{sampling, NiwParams, NiwPosterior};
use osr_svm::{BinarySvm, Kernel, SvmParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn spd(dim: usize) -> Matrix {
    let mut m = Matrix::scaled_identity(dim, 2.0);
    for i in 1..dim {
        m[(i, i - 1)] = 0.3;
        m[(i - 1, i)] = 0.3;
    }
    m
}

fn bench_linalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("linalg");
    for dim in [16usize, 39] {
        let a = spd(dim);
        g.bench_function(format!("cholesky_factor_d{dim}"), |b| {
            b.iter(|| Cholesky::factor(black_box(&a)).unwrap())
        });
        let ch = Cholesky::factor(&a).unwrap();
        let x = vec![0.7; dim];
        g.bench_function(format!("rank1_update_d{dim}"), |b| {
            b.iter_batched(
                || ch.clone(),
                |mut ch| {
                    ch.update(black_box(&x));
                    ch
                },
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

fn bench_niw_predictive(c: &mut Criterion) {
    let mut g = c.benchmark_group("niw");
    for dim in [16usize, 39] {
        let params =
            NiwParams::new(vec![0.0; dim], 1.0, dim as f64 + 3.0, spd(dim)).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let mut post = NiwPosterior::from_prior(&params);
        for _ in 0..40 {
            let x: Vec<f64> =
                (0..dim).map(|_| sampling::standard_normal(&mut rng)).collect();
            post.add(&x);
        }
        let probe = vec![0.3; dim];
        // The single hottest call of the whole reproduction.
        g.bench_function(format!("predictive_logpdf_d{dim}"), |b| {
            b.iter(|| post.predictive_logpdf(black_box(&probe)))
        });
        g.bench_function(format!("add_remove_d{dim}"), |b| {
            b.iter(|| {
                post.add(black_box(&probe));
                post.remove(black_box(&probe));
            })
        });
    }
    g.finish();
}

fn bench_hdp_sweep(c: &mut Criterion) {
    let mut g = c.benchmark_group("hdp");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(2);
    let dim = 16;
    let groups: Vec<Vec<Vec<f64>>> = (0..3)
        .map(|gidx| {
            (0..60)
                .map(|_| {
                    (0..dim)
                        .map(|_| gidx as f64 * 4.0 + sampling::standard_normal(&mut rng))
                        .collect()
                })
                .collect()
        })
        .collect();
    let params = NiwParams::new(vec![0.0; dim], 1.0, dim as f64, spd(dim)).unwrap();
    g.bench_function("gibbs_sweep_180pts_d16", |b| {
        b.iter_batched(
            || {
                let mut hdp =
                    Hdp::new(params.clone(), HdpConfig::default(), &groups).unwrap();
                let mut r = StdRng::seed_from_u64(3);
                hdp.sweep(&mut r); // initialize
                (hdp, r)
            },
            |(mut hdp, mut r)| {
                hdp.sweep(&mut r);
                hdp
            },
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

fn bench_svm(c: &mut Criterion) {
    let mut g = c.benchmark_group("svm");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    let n = 200;
    let points: Vec<Vec<f64>> = (0..n)
        .map(|i| {
            let cx = if i % 2 == 0 { 2.0 } else { -2.0 };
            (0..16).map(|_| cx + sampling::standard_normal(&mut rng)).collect()
        })
        .collect();
    let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
    let labels: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
    let params = SvmParams::new(1.0, Kernel::Rbf { gamma: 0.05 });
    g.bench_function("smo_train_200pts_d16", |b| {
        b.iter(|| BinarySvm::train(black_box(&refs), black_box(&labels), &params).unwrap())
    });
    let svm = BinarySvm::train(&refs, &labels, &params).unwrap();
    let probe = vec![0.5; 16];
    g.bench_function("decision_value", |b| b.iter(|| svm.decision_value(black_box(&probe))));
    g.finish();
}

fn bench_evt(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(5);
    let truth = Weibull::new(2.0, 1.5).unwrap();
    let data: Vec<f64> = (0..500)
        .map(|_| truth.quantile(rand::Rng::gen_range(&mut rng, 1e-9..1.0)))
        .collect();
    c.bench_function("weibull_mle_fit_500", |b| {
        b.iter(|| Weibull::fit_mle(black_box(&data)).unwrap())
    });
}

/// End-to-end method costs on one small open-set problem — the per-trial
/// unit of every figure reproduction.
fn bench_methods_end_to_end(c: &mut Criterion) {
    let mut g = c.benchmark_group("methods");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(6);
    let data = pendigits_config().scaled(0.05).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(4, 2), &mut rng).unwrap();

    g.bench_function("hdp_osr_train_predict", |b| {
        b.iter(|| {
            let cfg = HdpOsrConfig { iterations: 10, ..Default::default() };
            let model = HdpOsr::fit(&cfg, &split.train).unwrap();
            let mut r = StdRng::seed_from_u64(7);
            model.classify(black_box(&split.test.points), &mut r).unwrap()
        })
    });
    g.bench_function("wsvm_train_predict", |b| {
        b.iter(|| {
            let m = WSvm::train(&split.train, &WSvmParams::default()).unwrap();
            m.predict_batch(black_box(&split.test.points))
        })
    });
    g.bench_function("pisvm_train_predict", |b| {
        b.iter(|| {
            let m = PiSvm::train(&split.train, &PiSvmParams::default()).unwrap();
            m.predict_batch(black_box(&split.test.points))
        })
    });
    g.bench_function("osnn_train_predict", |b| {
        b.iter(|| {
            let (pts, labels) = split.train.flattened();
            let m = Osnn::train(&pts, &labels, 4, &OsnnParams::default()).unwrap();
            m.predict_batch(black_box(&split.test.points))
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_linalg,
    bench_niw_predictive,
    bench_hdp_sweep,
    bench_svm,
    bench_evt,
    bench_methods_end_to_end
);
criterion_main!(benches);
