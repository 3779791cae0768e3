//! OSNN — the open-set nearest-neighbour distance-ratio classifier
//! (Júnior et al. 2017; paper §2.3, Eq. 3).
//!
//! For a test sample `s`, find its nearest neighbour `t` and then the
//! nearest neighbour `u` whose label differs from `t`'s. If the ratio
//! `v = d(s,t) / d(s,u)` is at most the threshold σ, the sample takes `t`'s
//! label; otherwise it sits ambiguously between classes and is rejected as
//! unknown.

use osr_dataset::protocol::Prediction;

use crate::{validate_training, OpenSetClassifier, Result};

/// OSNN hyperparameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OsnnParams {
    /// Distance-ratio threshold σ ∈ (0, 1); the only parameter the method
    /// needs (optimized on the validation simulations in the paper).
    pub sigma: f64,
}

impl Default for OsnnParams {
    fn default() -> Self {
        Self { sigma: 0.8 }
    }
}

/// A trained (memorized) OSNN model.
#[derive(Debug, Clone)]
pub struct Osnn {
    points: Vec<Vec<f64>>,
    labels: Vec<usize>,
    sigma: f64,
}

impl Osnn {
    /// "Train" (memorize) the classifier.
    ///
    /// # Errors
    /// Rejects malformed training data and σ outside `(0, 1)`. OSNN also
    /// needs at least two distinct labels, or no second-class neighbour
    /// exists.
    pub fn train(
        points: &[&[f64]],
        labels: &[usize],
        n_classes: usize,
        params: &OsnnParams,
    ) -> Result<Self> {
        validate_training(points, labels, n_classes)?;
        if !(params.sigma > 0.0 && params.sigma < 1.0) {
            return Err(crate::BaselineError::InvalidParameter(format!(
                "sigma must be in (0,1), got {}",
                params.sigma
            )));
        }
        if n_classes < 2 {
            return Err(crate::BaselineError::InvalidTrainingSet(
                "OSNN needs at least two classes".into(),
            ));
        }
        Ok(Self {
            points: points.iter().map(|p| p.to_vec()).collect(),
            labels: labels.to_vec(),
            sigma: params.sigma,
        })
    }

    /// The configured distance-ratio threshold σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl OpenSetClassifier for Osnn {
    fn predict(&self, x: &[f64]) -> Prediction {
        // Nearest neighbour t.
        let mut t_dist = f64::INFINITY;
        let mut t_label = 0usize;
        for (p, &l) in self.points.iter().zip(&self.labels) {
            let d = osr_linalg::vector::dist_sq(p, x);
            if d < t_dist {
                t_dist = d;
                t_label = l;
            }
        }
        // Nearest neighbour u with θ(u) ≠ θ(t).
        let mut u_dist = f64::INFINITY;
        for (p, &l) in self.points.iter().zip(&self.labels) {
            if l == t_label {
                continue;
            }
            let d = osr_linalg::vector::dist_sq(p, x);
            if d < u_dist {
                u_dist = d;
            }
        }
        if !u_dist.is_finite() {
            // Single-label corpus (prevented at training time, but stay safe).
            return Prediction::Known(t_label);
        }
        // Ratio of Euclidean distances (squared distances need a sqrt).
        let v = (t_dist / u_dist).sqrt();
        if v <= self.sigma {
            Prediction::Known(t_label)
        } else {
            Prediction::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two 1-d classes at 0 and 10.
    fn model(sigma: f64) -> Osnn {
        let pts = [vec![0.0], vec![1.0], vec![10.0], vec![11.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        Osnn::train(&refs, &[0, 0, 1, 1], 2, &OsnnParams { sigma }).unwrap()
    }

    #[test]
    fn points_near_a_class_are_accepted() {
        let m = model(0.5);
        assert_eq!(m.predict(&[0.2]), Prediction::Known(0));
        assert_eq!(m.predict(&[10.6]), Prediction::Known(1));
    }

    #[test]
    fn points_between_classes_are_rejected() {
        let m = model(0.5);
        // Midpoint: d(s,t)/d(s,u) ≈ 4.5/5.5 ≈ 0.82 > 0.5 ⇒ unknown.
        assert_eq!(m.predict(&[5.5]), Prediction::Unknown);
    }

    #[test]
    fn sigma_controls_rejection_region() {
        let loose = model(0.95);
        let strict = model(0.1);
        // Same ambiguous point: loose threshold accepts, strict rejects.
        let x = [4.0]; // ratio = 3/6 = 0.5
        assert_eq!(loose.predict(&x), Prediction::Known(0));
        assert_eq!(strict.predict(&x), Prediction::Unknown);
    }

    #[test]
    fn ratio_uses_euclidean_not_squared_distances() {
        // s = 4: t at 1 (d = 3), u at 10 (d = 6); v = 0.5 exactly.
        let m = model(0.5);
        assert_eq!(m.predict(&[4.0]), Prediction::Known(0));
        // Just past the threshold.
        let m = model(0.49);
        assert_eq!(m.predict(&[4.0]), Prediction::Unknown);
    }

    #[test]
    fn exact_training_point_is_its_own_label() {
        let m = model(0.3);
        assert_eq!(m.predict(&[0.0]), Prediction::Known(0));
    }

    #[test]
    fn train_rejects_bad_inputs() {
        let pts = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        assert!(Osnn::train(&refs, &[0, 0], 1, &OsnnParams::default()).is_err());
        assert!(Osnn::train(&refs, &[0, 1], 2, &OsnnParams { sigma: 0.0 }).is_err());
        assert!(Osnn::train(&refs, &[0, 1], 2, &OsnnParams { sigma: 1.0 }).is_err());
        assert!(Osnn::train(&[], &[], 2, &OsnnParams::default()).is_err());
    }

    #[test]
    fn batch_prediction_matches_pointwise() {
        let m = model(0.5);
        let batch = vec![vec![0.2], vec![5.5], vec![10.9]];
        let preds = m.predict_batch(&batch);
        assert_eq!(
            preds,
            vec![Prediction::Known(0), Prediction::Unknown, Prediction::Known(1)]
        );
    }
}
