//! Property-based tests for the baselines: monotonicity of their rejection
//! thresholds, prediction-domain guarantees, and agreement between batch and
//! pointwise APIs.

use osr_baselines::{
    OneVsSet, OneVsSetParams, OpenSetClassifier, Osnn, OsnnParams, PiSvm, PiSvmParams,
    Prediction, WOsvm, WOsvmParams, WSvm, WSvmParams,
};
use osr_dataset::protocol::TrainSet;
use proptest::prelude::*;

/// Deterministic three-blob training set plus probe points.
fn scene(seed: u64, n_per: usize) -> (TrainSet, Vec<Vec<f64>>) {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let centers = [[-6.0, 0.0], [6.0, 0.0], [0.0, 7.0]];
    let classes: Vec<Vec<Vec<f64>>> = centers
        .iter()
        .map(|c| {
            (0..n_per).map(|_| vec![c[0] + next() * 1.6, c[1] + next() * 1.6]).collect()
        })
        .collect();
    let probes: Vec<Vec<f64>> = (0..20).map(|_| vec![next() * 24.0, next() * 24.0]).collect();
    (TrainSet { class_ids: vec![0, 1, 2], classes }, probes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn predictions_are_always_in_domain(seed in 0u64..300, n_per in 10usize..40) {
        let (train, probes) = scene(seed, n_per);
        let (pts, labels) = train.flattened();

        let methods: Vec<Box<dyn OpenSetClassifier>> = vec![
            Box::new(OneVsSet::train(&train, &OneVsSetParams::default()).unwrap()),
            Box::new(WOsvm::train(&train, &WOsvmParams::default()).unwrap()),
            Box::new(WSvm::train(&train, &WSvmParams::default()).unwrap()),
            Box::new(PiSvm::train(&train, &PiSvmParams::default()).unwrap()),
            Box::new(Osnn::train(&pts, &labels, 3, &OsnnParams::default()).unwrap()),
        ];
        for (i, m) in methods.iter().enumerate() {
            for p in &probes {
                match m.predict(p) {
                    Prediction::Known(c) => prop_assert!(c < 3, "method {i} out of range"),
                    Prediction::Unknown => {}
                }
            }
        }
    }

    #[test]
    fn batch_equals_pointwise(seed in 0u64..300) {
        let (train, probes) = scene(seed, 15);
        let m = PiSvm::train(&train, &PiSvmParams::default()).unwrap();
        let batch = m.predict_batch(&probes);
        for (p, expect) in probes.iter().zip(&batch) {
            prop_assert_eq!(&m.predict(p), expect);
        }
    }

    #[test]
    fn osnn_sigma_monotonicity(seed in 0u64..300) {
        // A smaller σ can only reject more: acceptance sets are nested.
        let (train, probes) = scene(seed, 15);
        let (pts, labels) = train.flattened();
        let strict = Osnn::train(&pts, &labels, 3, &OsnnParams { sigma: 0.3 }).unwrap();
        let lenient = Osnn::train(&pts, &labels, 3, &OsnnParams { sigma: 0.9 }).unwrap();
        for p in &probes {
            if matches!(strict.predict(p), Prediction::Known(_)) {
                prop_assert!(
                    matches!(lenient.predict(p), Prediction::Known(_)),
                    "lenient σ rejected a point the strict σ accepted"
                );
            }
        }
    }

    #[test]
    fn pisvm_delta_monotonicity(seed in 0u64..300) {
        let (train, probes) = scene(seed, 15);
        let strict = PiSvm::train(&train, &PiSvmParams { delta: 0.5, ..Default::default() }).unwrap();
        let lenient = PiSvm::train(&train, &PiSvmParams { delta: 1e-6, ..Default::default() }).unwrap();
        for p in &probes {
            if matches!(strict.predict(p), Prediction::Known(_)) {
                prop_assert!(matches!(lenient.predict(p), Prediction::Known(_)));
            }
        }
    }

    #[test]
    fn wsvm_posteriors_live_in_unit_interval(seed in 0u64..300) {
        let (train, probes) = scene(seed, 15);
        let m = WSvm::train(&train, &WSvmParams::default()).unwrap();
        for p in &probes {
            for q in m.posteriors(p) {
                prop_assert!((0.0..=1.0).contains(&q), "posterior {q} out of range");
            }
        }
    }

    #[test]
    fn training_points_mostly_accepted_as_their_class(seed in 0u64..300) {
        // Sanity: every method must label a clear majority of its own
        // training points correctly (they are maximally in-distribution).
        let (train, _) = scene(seed, 20);
        let (pts, labels) = train.flattened();
        let methods: Vec<Box<dyn OpenSetClassifier>> = vec![
            Box::new(OneVsSet::train(&train, &OneVsSetParams::default()).unwrap()),
            Box::new(WSvm::train(&train, &WSvmParams::default()).unwrap()),
            Box::new(PiSvm::train(&train, &PiSvmParams::default()).unwrap()),
            Box::new(Osnn::train(&pts, &labels, 3, &OsnnParams::default()).unwrap()),
        ];
        for (i, m) in methods.iter().enumerate() {
            let correct = pts
                .iter()
                .zip(&labels)
                .filter(|(p, &l)| m.predict(p) == Prediction::Known(l))
                .count();
            prop_assert!(
                correct * 10 >= pts.len() * 7,
                "method {i} only recovered {correct}/{} training labels",
                pts.len()
            );
        }
    }
}
