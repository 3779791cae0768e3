//! W-SVM and W-OSVM (Scheirer et al. 2014; paper §2.2).
//!
//! Both methods calibrate raw SVM scores with statistical extreme value
//! theory instead of trusting them directly:
//!
//! * **W-OSVM** — per class, a one-class ν-SVM CAP model whose decision
//!   scores are Weibull-calibrated into `P_O(y|x)`; a sample is rejected
//!   outright when even the best class has `P_O ≤ δ_τ` (fixed at 0.001).
//! * **W-SVM** — adds a binary one-vs-rest C-SVC per class. Its positive
//!   training scores' lower tail yields the Weibull inclusion model `P_η`,
//!   its negative scores' upper tail the reverse-Weibull exceedance model
//!   `P_ψ`; the fused posterior is `P_η(y|x) · P_ψ(y|x)`, gated by the
//!   one-class conditioner ι_y and accepted only above δ_R (paper Eq. 2,
//!   with δ_R either grid-searched or set to `0.5 × openness`).

use osr_dataset::protocol::{Prediction, TrainSet};
use osr_stats::weibull::{TailSide, WeibullFit};
use osr_svm::{BinarySvm, Kernel, OneClassSvm, SvmParams};

use crate::{validate_training, OpenSetClassifier, Result};

/// Tail fraction used for every Weibull fit (fraction of scores treated as
/// the extreme-value tail).
const TAIL_FRACTION: f64 = 0.5;
/// Minimum tail size for a stable MLE.
const MIN_TAIL: usize = 8;

/// An EVT calibrator with a degenerate fallback for pathological score sets
/// (e.g. all identical), so grid searches never abort mid-sweep.
#[derive(Debug, Clone)]
enum Calibrator {
    Evt(WeibullFit),
    /// Step calibrator at a threshold: probability 1 above, 0 below
    /// (`rising = true`) or the reverse.
    Step { threshold: f64, rising: bool },
}

impl Calibrator {
    fn fit(scores: &[f64], side: TailSide) -> Self {
        match WeibullFit::fit_tail(scores, side, TAIL_FRACTION, MIN_TAIL) {
            Ok(fit) => Self::Evt(fit),
            Err(_) => {
                let mean = scores.iter().sum::<f64>() / scores.len().max(1) as f64;
                Self::Step { threshold: mean, rising: true }
            }
        }
    }

    fn probability(&self, score: f64) -> f64 {
        match self {
            Self::Evt(fit) => fit.probability(score),
            Self::Step { threshold, rising } => {
                let above = score >= *threshold;
                if above == *rising {
                    1.0
                } else {
                    0.0
                }
            }
        }
    }
}

/// Shared per-class one-class CAP model with Weibull calibration.
#[derive(Debug, Clone)]
struct OneClassCap {
    svm: OneClassSvm,
    calibrator: Calibrator,
}

impl OneClassCap {
    fn train(class_points: &[&[f64]], nu: f64, kernel: Kernel) -> Result<Self> {
        let params = osr_svm::OneClassParams::new(nu, kernel);
        let svm = OneClassSvm::train(class_points, &params)?;
        let scores: Vec<f64> = class_points.iter().map(|p| svm.decision_value(p)).collect();
        let calibrator = Calibrator::fit(&scores, TailSide::Low);
        Ok(Self { svm, calibrator })
    }

    /// `P_O(y|x)`: calibrated one-class membership probability.
    fn probability(&self, x: &[f64]) -> f64 {
        self.calibrator.probability(self.svm.decision_value(x))
    }
}

// ---------------------------------------------------------------------------
// W-OSVM
// ---------------------------------------------------------------------------

/// W-OSVM hyperparameters.
#[derive(Debug, Clone, Copy)]
pub struct WOsvmParams {
    /// One-class ν.
    pub nu: f64,
    /// RBF bandwidth γ (`None` ⇒ 1/d heuristic).
    pub gamma: Option<f64>,
    /// Rejection threshold δ_τ on the calibrated probability. Paper: 0.001.
    pub delta_tau: f64,
}

impl Default for WOsvmParams {
    fn default() -> Self {
        Self { nu: 0.1, gamma: None, delta_tau: 0.001 }
    }
}

/// Trained W-OSVM (one-class CAP model per class).
#[derive(Debug, Clone)]
pub struct WOsvm {
    caps: Vec<OneClassCap>,
    delta_tau: f64,
}

impl WOsvm {
    /// Train one calibrated one-class SVM per class.
    ///
    /// # Errors
    /// Fails on malformed training data or SVM training failure.
    pub fn train(train: &TrainSet, params: &WOsvmParams) -> Result<Self> {
        let (points, labels) = train.flattened();
        validate_training(&points, &labels, train.n_classes())?;
        let kernel = match params.gamma {
            Some(g) => Kernel::Rbf { gamma: g },
            None => Kernel::rbf_for_data(&points),
        };
        let mut caps = Vec::with_capacity(train.n_classes());
        for class in &train.classes {
            let refs: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
            caps.push(OneClassCap::train(&refs, params.nu, kernel)?);
        }
        Ok(Self { caps, delta_tau: params.delta_tau })
    }
}

impl OpenSetClassifier for WOsvm {
    fn predict(&self, x: &[f64]) -> Prediction {
        let probs: Vec<f64> = self.caps.iter().map(|c| c.probability(x)).collect();
        let best = osr_linalg::vector::argmax(&probs).expect("≥1 class");
        if probs[best] > self.delta_tau {
            Prediction::Known(best)
        } else {
            Prediction::Unknown
        }
    }
}

// ---------------------------------------------------------------------------
// W-SVM
// ---------------------------------------------------------------------------

/// W-SVM hyperparameters (§4.1.2: C and γ grid-searched, δ_τ fixed at
/// 0.001, δ_R grid-searched in 10⁻⁷…10⁻¹ or set to 0.5 × openness).
#[derive(Debug, Clone, Copy)]
pub struct WSvmParams {
    /// Binary C-SVC soft margin.
    pub c: f64,
    /// RBF bandwidth γ (`None` ⇒ 1/d heuristic), shared by both SVM stages.
    pub gamma: Option<f64>,
    /// One-class ν for the conditioner.
    pub nu: f64,
    /// One-class rejection threshold δ_τ. Paper: 0.001.
    pub delta_tau: f64,
    /// Acceptance threshold δ_R on the fused posterior.
    pub delta_r: f64,
}

impl Default for WSvmParams {
    fn default() -> Self {
        Self { c: 1.0, gamma: None, nu: 0.1, delta_tau: 0.001, delta_r: 0.05 }
    }
}

/// One class's calibrated binary CAP model.
#[derive(Debug, Clone)]
struct BinaryCap {
    svm: BinarySvm,
    /// `P_η`: Weibull inclusion model on positive scores.
    eta: Calibrator,
    /// `P_ψ`: reverse-Weibull exceedance model on negative scores.
    psi: Calibrator,
}

/// Trained W-SVM.
#[derive(Debug, Clone)]
pub struct WSvm {
    caps: Vec<OneClassCap>,
    binaries: Vec<BinaryCap>,
    delta_tau: f64,
    delta_r: f64,
}

impl WSvm {
    /// Train the full two-stage model.
    ///
    /// # Errors
    /// Fails on malformed training data or SVM training failure.
    pub fn train(train: &TrainSet, params: &WSvmParams) -> Result<Self> {
        let (points, labels) = train.flattened();
        let n_classes = train.n_classes();
        validate_training(&points, &labels, n_classes)?;
        if n_classes < 2 {
            return Err(crate::BaselineError::InvalidTrainingSet(
                "W-SVM's one-vs-rest stage needs ≥ 2 classes".into(),
            ));
        }
        let kernel = match params.gamma {
            Some(g) => Kernel::Rbf { gamma: g },
            None => Kernel::rbf_for_data(&points),
        };
        let svm_params = SvmParams::new(params.c, kernel);

        let mut caps = Vec::with_capacity(n_classes);
        let mut binaries = Vec::with_capacity(n_classes);
        for class in 0..n_classes {
            let class_refs: Vec<&[f64]> =
                train.classes[class].iter().map(Vec::as_slice).collect();
            caps.push(OneClassCap::train(&class_refs, params.nu, kernel)?);

            let positive: Vec<bool> = labels.iter().map(|&l| l == class).collect();
            let svm = BinarySvm::train(&points, &positive, &svm_params)?;
            let pos_scores: Vec<f64> = points
                .iter()
                .zip(&positive)
                .filter(|&(_, &p)| p)
                .map(|(x, _)| svm.decision_value(x))
                .collect();
            let neg_scores: Vec<f64> = points
                .iter()
                .zip(&positive)
                .filter(|&(_, &p)| !p)
                .map(|(x, _)| svm.decision_value(x))
                .collect();
            let eta = Calibrator::fit(&pos_scores, TailSide::Low);
            let psi = Calibrator::fit(&neg_scores, TailSide::High);
            binaries.push(BinaryCap { svm, eta, psi });
        }
        Ok(Self { caps, binaries, delta_tau: params.delta_tau, delta_r: params.delta_r })
    }

    /// The fused posterior `P_η(y|x) · P_ψ(y|x) · ι_y` for every class.
    pub fn posteriors(&self, x: &[f64]) -> Vec<f64> {
        self.binaries
            .iter()
            .zip(&self.caps)
            .map(|(b, cap)| {
                // ι_y: one-class conditioner.
                if cap.probability(x) <= self.delta_tau {
                    return 0.0;
                }
                let f = b.svm.decision_value(x);
                b.eta.probability(f) * b.psi.probability(f)
            })
            .collect()
    }
}

impl OpenSetClassifier for WSvm {
    fn predict(&self, x: &[f64]) -> Prediction {
        let probs = self.posteriors(x);
        let best = osr_linalg::vector::argmax(&probs).expect("≥2 classes");
        if probs[best] >= self.delta_r && probs[best] > 0.0 {
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
            class_ids: vec![0, 1],
            classes: vec![blob(rng, -4.0, 0.0, 60), blob(rng, 4.0, 0.0, 60)],
        }
    }

    #[test]
    fn wosvm_accepts_knowns_rejects_far_unknowns() {
        let mut rng = StdRng::seed_from_u64(1);
        let ts = train_set(&mut rng);
        let m = WOsvm::train(&ts, &WOsvmParams::default()).unwrap();
        assert_eq!(m.predict(&[-4.0, 0.0]), Prediction::Known(0));
        assert_eq!(m.predict(&[4.0, 0.0]), Prediction::Known(1));
        assert_eq!(m.predict(&[0.0, 50.0]), Prediction::Unknown);
        assert_eq!(m.predict(&[40.0, -40.0]), Prediction::Unknown);
    }

    #[test]
    fn wsvm_accepts_knowns_rejects_far_unknowns() {
        let mut rng = StdRng::seed_from_u64(2);
        let ts = train_set(&mut rng);
        let m = WSvm::train(&ts, &WSvmParams::default()).unwrap();
        assert_eq!(m.predict(&[-4.0, 0.0]), Prediction::Known(0));
        assert_eq!(m.predict(&[4.1, -0.2]), Prediction::Known(1));
        assert_eq!(m.predict(&[0.0, 50.0]), Prediction::Unknown);
    }

    #[test]
    fn wsvm_posteriors_are_probability_products() {
        let mut rng = StdRng::seed_from_u64(3);
        let ts = train_set(&mut rng);
        let m = WSvm::train(&ts, &WSvmParams::default()).unwrap();
        for x in [[-4.0, 0.0], [4.0, 0.0], [0.0, 10.0]] {
            for p in m.posteriors(&x) {
                assert!((0.0..=1.0).contains(&p), "posterior {p} out of range at {x:?}");
            }
        }
        // At a class center, that class's posterior dominates.
        let p = m.posteriors(&[-4.0, 0.0]);
        assert!(p[0] > p[1], "class 0 should dominate at its center: {p:?}");
    }

    #[test]
    fn wsvm_delta_r_trades_acceptance_for_rejection() {
        let mut rng = StdRng::seed_from_u64(4);
        let ts = train_set(&mut rng);
        let strict = WSvm::train(&ts, &WSvmParams { delta_r: 0.9, ..Default::default() }).unwrap();
        let lenient =
            WSvm::train(&ts, &WSvmParams { delta_r: 1e-7, ..Default::default() }).unwrap();
        // A borderline point near (but not at) a class boundary.
        let probe = [-2.4, 0.6];
        let strict_rejects = strict.predict(&probe) == Prediction::Unknown;
        let lenient_accepts = matches!(lenient.predict(&probe), Prediction::Known(_));
        assert!(
            strict_rejects || lenient_accepts,
            "thresholds should span the borderline point"
        );
        // Lenient accepts everything strict accepts.
        for x in [[-4.0, 0.0], [4.0, 0.0]] {
            if matches!(strict.predict(&x), Prediction::Known(_)) {
                assert!(matches!(lenient.predict(&x), Prediction::Known(_)));
            }
        }
    }

    #[test]
    fn wosvm_delta_tau_gates_acceptance() {
        let mut rng = StdRng::seed_from_u64(5);
        let ts = train_set(&mut rng);
        // δ_τ close to 1 rejects nearly everything.
        let strict =
            WOsvm::train(&ts, &WOsvmParams { delta_tau: 0.999, ..Default::default() }).unwrap();
        let rejected = (0..20)
            .map(|i| strict.predict(&[-4.0 + i as f64 * 0.4, 0.0]))
            .filter(|p| *p == Prediction::Unknown)
            .count();
        assert!(rejected >= 15, "high δ_τ should reject most points, kept {}", 20 - rejected);
    }

    #[test]
    fn wsvm_conditioner_zeroes_distant_posteriors() {
        let mut rng = StdRng::seed_from_u64(6);
        let ts = train_set(&mut rng);
        let m = WSvm::train(&ts, &WSvmParams::default()).unwrap();
        let p = m.posteriors(&[0.0, 80.0]);
        assert!(p.iter().all(|&v| v == 0.0), "far point must be zeroed by ι: {p:?}");
    }

    #[test]
    fn training_rejects_bad_inputs() {
        let ts = TrainSet { class_ids: vec![], classes: vec![] };
        assert!(WOsvm::train(&ts, &WOsvmParams::default()).is_err());
        assert!(WSvm::train(&ts, &WSvmParams::default()).is_err());
        let one_class = TrainSet {
            class_ids: vec![0],
            classes: vec![vec![vec![0.0, 0.0], vec![1.0, 1.0]]],
        };
        // W-OSVM works with one class; W-SVM needs two for its binary stage.
        assert!(WOsvm::train(&one_class, &WOsvmParams::default()).is_ok());
        assert!(WSvm::train(&one_class, &WSvmParams::default()).is_err());
    }
}
