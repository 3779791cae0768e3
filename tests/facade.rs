//! The `hdp_osr` facade must expose every subsystem coherently: this test
//! exercises one small task through each re-exported module, using only
//! facade paths (what a downstream user sees).

use hdp_osr::baselines::{OpenSetClassifier, Osnn, OsnnParams};
use hdp_osr::core::{HdpOsr, HdpOsrConfig};
use hdp_osr::dataset::protocol::{OpenSetSplit, SplitConfig};
use hdp_osr::dataset::synthetic::toy2d;
use hdp_osr::eval::metrics::micro_f_measure;
use hdp_osr::hdp::{Hdp, HdpConfig};
use hdp_osr::linalg::{Cholesky, Matrix};
use hdp_osr::stats::{NiwParams, NiwPosterior};
use hdp_osr::svm::{BinarySvm, Kernel, SvmParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn linalg_is_reachable() {
    let a = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
    let ch = Cholesky::factor(&a).unwrap();
    assert!(ch.log_det().is_finite());
}

#[test]
fn stats_is_reachable() {
    let p = NiwParams::new(vec![0.0; 2], 1.0, 4.0, Matrix::identity(2)).unwrap();
    let mut post = NiwPosterior::from_prior(&p);
    post.add(&[1.0, -1.0]);
    assert!(post.predictive_logpdf(&[0.5, 0.0]).is_finite());
}

#[test]
fn svm_is_reachable() {
    let pts = [vec![1.0, 0.0], vec![-1.0, 0.0]];
    let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
    let svm = BinarySvm::train(&refs, &[true, false], &SvmParams::new(1.0, Kernel::Linear))
        .unwrap();
    assert!(svm.predict(&[3.0, 0.0]));
}

#[test]
fn hdp_is_reachable() {
    let p = NiwParams::new(vec![0.0; 2], 1.0, 4.0, Matrix::identity(2)).unwrap();
    let groups = vec![vec![vec![0.0, 0.0], vec![0.1, 0.1], vec![5.0, 5.0]]];
    let cfg = HdpConfig { iterations: 2, ..Default::default() };
    let mut hdp = Hdp::new(p, cfg, &groups).unwrap();
    hdp.run(&mut StdRng::seed_from_u64(1));
    assert!(hdp.n_dishes() >= 1);
}

#[test]
fn full_pipeline_through_the_facade() {
    let mut rng = StdRng::seed_from_u64(5);
    let data = toy2d(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(2, 2), &mut rng).unwrap();

    // The paper's model…
    let cfg = HdpOsrConfig { iterations: 6, ..Default::default() };
    let model = HdpOsr::fit(&cfg, &split.train).unwrap();
    let hdp_preds = model.classify(&split.test.points, &mut rng).unwrap();
    let hdp_f = micro_f_measure(&hdp_preds, &split.test.truth);

    // …against one baseline, end to end.
    let (pts, labels) = split.train.flattened();
    let osnn = Osnn::train(&pts, &labels, 2, &OsnnParams::default()).unwrap();
    let osnn_preds = osnn.predict_batch(&split.test.points);
    let osnn_f = micro_f_measure(&osnn_preds, &split.test.truth);

    assert!((0.0..=1.0).contains(&hdp_f));
    assert!((0.0..=1.0).contains(&osnn_f));
    // On the trivially separated toy scene, HDP-OSR should be excellent.
    assert!(hdp_f > 0.8, "HDP-OSR F = {hdp_f:.3} on the toy scene");
}
