//! P_I-SVM — multi-class open set recognition using probability of
//! inclusion (Jain et al. 2014; paper §1/§4).
//!
//! Per class, a one-vs-rest binary C-SVC provides decision scores; the
//! statistical extreme value theory argument says the *lower tail* of the
//! positive class's scores (the positives nearest the decision boundary)
//! follows a Weibull, whose CDF becomes the class's probability-of-inclusion
//! model. A sample is labeled `argmax_y P_I(y|x)` when that probability
//! clears the threshold δ (grid-searched over 10⁻⁷…10⁻¹ in the paper) and
//! rejected otherwise.

use osr_dataset::protocol::{Prediction, TrainSet};
use osr_stats::weibull::{TailSide, WeibullFit};
use osr_svm::{BinarySvm, Kernel, SvmParams};

use crate::{validate_training, OpenSetClassifier, Result};

/// P_I-SVM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct PiSvmParams {
    /// Binary C-SVC soft margin.
    pub c: f64,
    /// RBF bandwidth γ (`None` ⇒ 1/d heuristic).
    pub gamma: Option<f64>,
    /// Acceptance threshold δ on the probability of inclusion.
    pub delta: f64,
    /// Fraction of positive scores treated as the EVT tail.
    pub tail_fraction: f64,
}

impl Default for PiSvmParams {
    fn default() -> Self {
        Self { c: 1.0, gamma: None, delta: 0.05, tail_fraction: 0.5 }
    }
}

/// One class's inclusion model.
#[derive(Debug, Clone)]
struct InclusionModel {
    svm: BinarySvm,
    calibrator: Option<WeibullFit>,
    /// Fallback threshold when the Weibull fit is degenerate.
    fallback: f64,
}

impl InclusionModel {
    fn probability(&self, x: &[f64]) -> f64 {
        let f = self.svm.decision_value(x);
        match &self.calibrator {
            Some(cal) => cal.probability(f),
            None => {
                if f >= self.fallback {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Trained P_I-SVM.
#[derive(Debug, Clone)]
pub struct PiSvm {
    models: Vec<InclusionModel>,
    delta: f64,
}

impl PiSvm {
    /// Train one inclusion model per class.
    ///
    /// # Errors
    /// Fails on malformed training data, fewer than two classes, or SVM
    /// training failure.
    pub fn train(train: &TrainSet, params: &PiSvmParams) -> Result<Self> {
        let (points, labels) = train.flattened();
        let n_classes = train.n_classes();
        validate_training(&points, &labels, n_classes)?;
        if n_classes < 2 {
            return Err(crate::BaselineError::InvalidTrainingSet(
                "P_I-SVM's one-vs-rest stage needs ≥ 2 classes".into(),
            ));
        }
        if !(params.tail_fraction > 0.0 && params.tail_fraction <= 1.0) {
            return Err(crate::BaselineError::InvalidParameter(format!(
                "tail_fraction must be in (0,1], got {}",
                params.tail_fraction
            )));
        }
        let kernel = match params.gamma {
            Some(g) => Kernel::Rbf { gamma: g },
            None => Kernel::rbf_for_data(&points),
        };
        let svm_params = SvmParams::new(params.c, kernel);
        let mut models = Vec::with_capacity(n_classes);
        for class in 0..n_classes {
            let positive: Vec<bool> = labels.iter().map(|&l| l == class).collect();
            let svm = BinarySvm::train(&points, &positive, &svm_params)?;
            let pos_scores: Vec<f64> = points
                .iter()
                .zip(&positive)
                .filter(|&(_, &p)| p)
                .map(|(x, _)| svm.decision_value(x))
                .collect();
            let calibrator =
                WeibullFit::fit_tail(&pos_scores, TailSide::Low, params.tail_fraction, 8).ok();
            let fallback = pos_scores.iter().sum::<f64>() / pos_scores.len().max(1) as f64;
            models.push(InclusionModel { svm, calibrator, fallback });
        }
        Ok(Self { models, delta: params.delta })
    }

    /// Probability of inclusion for every class.
    pub fn inclusion_probabilities(&self, x: &[f64]) -> Vec<f64> {
        self.models.iter().map(|m| m.probability(x)).collect()
    }
}

impl OpenSetClassifier for PiSvm {
    fn predict(&self, x: &[f64]) -> Prediction {
        let probs = self.inclusion_probabilities(x);
        let best = osr_linalg::vector::argmax(&probs).expect("≥2 classes");
        if probs[best] >= self.delta {
            Prediction::Known(best)
        } else {
            Prediction::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_stats::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    cx + 0.5 * sampling::standard_normal(rng),
                    cy + 0.5 * sampling::standard_normal(rng),
                ]
            })
            .collect()
    }

    fn train_set(rng: &mut StdRng) -> TrainSet {
        TrainSet {
            class_ids: vec![0, 1, 2],
            classes: vec![
                blob(rng, -5.0, 0.0, 50),
                blob(rng, 5.0, 0.0, 50),
                blob(rng, 0.0, 6.0, 50),
            ],
        }
    }

    #[test]
    fn classifies_class_centers() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = PiSvm::train(&train_set(&mut rng), &PiSvmParams::default()).unwrap();
        assert_eq!(m.predict(&[-5.0, 0.0]), Prediction::Known(0));
        assert_eq!(m.predict(&[5.0, 0.0]), Prediction::Known(1));
        assert_eq!(m.predict(&[0.0, 6.0]), Prediction::Known(2));
    }

    #[test]
    fn rejects_far_unknowns() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = PiSvm::train(&train_set(&mut rng), &PiSvmParams::default()).unwrap();
        assert_eq!(m.predict(&[0.0, -40.0]), Prediction::Unknown);
        assert_eq!(m.predict(&[50.0, 50.0]), Prediction::Unknown);
    }

    #[test]
    fn inclusion_probabilities_are_probabilities() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = PiSvm::train(&train_set(&mut rng), &PiSvmParams::default()).unwrap();
        for x in [[-5.0, 0.0], [0.0, 0.0], [20.0, -10.0]] {
            for p in m.inclusion_probabilities(&x) {
                assert!((0.0..=1.0).contains(&p), "p = {p} at {x:?}");
            }
        }
    }

    #[test]
    fn delta_controls_rejection() {
        let mut rng = StdRng::seed_from_u64(4);
        let ts = train_set(&mut rng);
        let strict = PiSvm::train(&ts, &PiSvmParams { delta: 0.999, ..Default::default() }).unwrap();
        let lenient =
            PiSvm::train(&ts, &PiSvmParams { delta: 1e-7, ..Default::default() }).unwrap();
        // Count acceptances over a probe grid straddling the classes.
        let probes: Vec<Vec<f64>> =
            (0..40).map(|i| vec![-8.0 + 0.4 * i as f64, 1.0]).collect();
        let strict_acc = probes
            .iter()
            .filter(|p| matches!(strict.predict(p), Prediction::Known(_)))
            .count();
        let lenient_acc = probes
            .iter()
            .filter(|p| matches!(lenient.predict(p), Prediction::Known(_)))
            .count();
        assert!(
            lenient_acc > strict_acc,
            "lenient δ accepts {lenient_acc} ≤ strict {strict_acc}"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let mut rng = StdRng::seed_from_u64(5);
        let ts = train_set(&mut rng);
        assert!(PiSvm::train(&ts, &PiSvmParams { tail_fraction: 0.0, ..Default::default() })
            .is_err());
        let single = TrainSet {
            class_ids: vec![0],
            classes: vec![vec![vec![0.0, 0.0], vec![1.0, 1.0]]],
        };
        assert!(PiSvm::train(&single, &PiSvmParams::default()).is_err());
    }
}
