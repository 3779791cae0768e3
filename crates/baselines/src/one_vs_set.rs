//! The 1-vs-Set machine (Scheirer et al. 2013; paper §2.1).
//!
//! Per class, a linear SVM provides the base hyperplane `A`; a second plane
//! `B` parallel to it closes the positive half-space into a *slab*. The two
//! plane offsets are chosen over the positive training scores to minimize
//! the linear-slab open-space-risk objective (paper Eq. 1)
//!
//! ```text
//! R_O = (δ_B − δ_A)/δ⁺  +  δ⁺/(δ_B − δ_A)  +  p_A ω_A  +  p_B ω_B
//! ```
//!
//! plus the empirical risk of training points leaving the slab. A test point
//! is claimed by a class when its decision score falls inside that class's
//! slab; with multiple claims the deepest slab wins, with none the point is
//! rejected — although, as the paper stresses, the slab still has infinite
//! volume in the remaining directions, so the open-space risk never reaches
//! zero (Fig. 1's classes ?2/?3 stay misclassified).

use osr_dataset::protocol::{Prediction, TrainSet};
use osr_svm::{BinarySvm, Kernel, SvmParams};

use crate::{validate_training, OpenSetClassifier, Result};

/// 1-vs-Set hyperparameters ("the default setting in the code provided by
/// the authors", §4.1.2).
#[derive(Debug, Clone, Copy)]
pub struct OneVsSetParams {
    /// Soft-margin C of the underlying linear SVM.
    pub c: f64,
    /// Pressure on plane A: weight of the margin space ω_A (fraction of
    /// positives pushed outside when A moves inward).
    pub p_a: f64,
    /// Pressure on plane B: weight of the margin space ω_B.
    pub p_b: f64,
    /// Weight of the empirical risk term (λ_r of the open-set risk
    /// formulation).
    pub lambda_r: f64,
}

impl Default for OneVsSetParams {
    fn default() -> Self {
        Self { c: 1.0, p_a: 1.0, p_b: 1.0, lambda_r: 1.0 }
    }
}

/// One class's slab: the shared linear SVM scores bounded to `[δ_A, δ_B]`.
#[derive(Debug, Clone)]
struct Slab {
    svm: BinarySvm,
    delta_a: f64,
    delta_b: f64,
}

impl Slab {
    /// Signed depth of `x` inside the slab (≥ 0 means inside), normalized
    /// by slab width so depths are comparable across classes.
    fn depth(&self, x: &[f64]) -> f64 {
        let f = self.svm.decision_value(x);
        let width = (self.delta_b - self.delta_a).max(1e-12);
        ((f - self.delta_a).min(self.delta_b - f)) / width
    }
}

/// The trained 1-vs-Set machine (one slab per known class).
#[derive(Debug, Clone)]
pub struct OneVsSet {
    slabs: Vec<Slab>,
}

impl OneVsSet {
    /// Train one slab per class of `train`.
    ///
    /// # Errors
    /// Fails on malformed data or if any underlying SVM cannot be trained.
    pub fn train(train: &TrainSet, params: &OneVsSetParams) -> Result<Self> {
        let (points, labels) = train.flattened();
        let n_classes = train.n_classes();
        validate_training(&points, &labels, n_classes)?;
        if n_classes < 2 {
            return Err(crate::BaselineError::InvalidTrainingSet(
                "1-vs-Set needs at least two classes for its one-vs-rest SVMs".into(),
            ));
        }
        if !(params.c > 0.0) {
            return Err(crate::BaselineError::InvalidParameter(format!(
                "C must be positive, got {}",
                params.c
            )));
        }
        let svm_params = SvmParams::new(params.c, Kernel::Linear);
        let mut slabs = Vec::with_capacity(n_classes);
        for class in 0..n_classes {
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
            let (delta_a, delta_b) = refine_slab(&pos_scores, &neg_scores, params);
            slabs.push(Slab { svm, delta_a, delta_b });
        }
        Ok(Self { slabs })
    }

    /// The refined plane offsets `(δ_A, δ_B)` for one class (diagnostics).
    pub fn slab_bounds(&self, class: usize) -> (f64, f64) {
        (self.slabs[class].delta_a, self.slabs[class].delta_b)
    }

    /// Primal weight vector of one class's linear SVM (diagnostics; the
    /// slab's planes are both orthogonal to it).
    pub fn linear_weights(&self, class: usize) -> Vec<f64> {
        self.slabs[class]
            .svm
            .linear_weights()
            .expect("1-vs-Set machines are linear by construction")
    }
}

/// Choose `(δ_A, δ_B)` over candidate positions (quantiles of the positive
/// scores, slightly widened) minimizing Eq. 1 plus empirical risk.
fn refine_slab(pos_scores: &[f64], neg_scores: &[f64], params: &OneVsSetParams) -> (f64, f64) {
    let mut sorted = pos_scores.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite SVM scores"));
    let lo = sorted[0];
    let hi = sorted[sorted.len() - 1];
    let span = (hi - lo).max(1e-9);
    // δ⁺: separation needed to account for all positive data.
    let delta_plus = span;

    // Candidate grid: quantiles of the positive scores plus margins.
    let mut candidates: Vec<f64> = (0..=20)
        .map(|q| {
            let pos = q as f64 / 20.0 * (sorted.len() - 1) as f64;
            sorted[pos.round() as usize]
        })
        .collect();
    candidates.push(lo - 0.1 * span);
    candidates.push(hi + 0.1 * span);
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("finite candidates"));
    candidates.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let risk = |a: f64, b: f64| -> f64 {
        if b - a < 1e-9 {
            return f64::INFINITY;
        }
        let width = b - a;
        // Margin spaces: fraction of positives excluded by each plane.
        let omega_a = pos_scores.iter().filter(|&&s| s < a).count() as f64
            / pos_scores.len() as f64;
        let omega_b = pos_scores.iter().filter(|&&s| s > b).count() as f64
            / pos_scores.len() as f64;
        // Empirical risk: negatives captured inside the slab.
        let neg_inside = if neg_scores.is_empty() {
            0.0
        } else {
            neg_scores.iter().filter(|&&s| s >= a && s <= b).count() as f64
                / neg_scores.len() as f64
        };
        width / delta_plus + delta_plus / width
            + params.p_a * omega_a
            + params.p_b * omega_b
            + params.lambda_r * (omega_a + omega_b + neg_inside)
    };

    let mut best = (lo, hi);
    let mut best_risk = risk(lo, hi);
    for (i, &a) in candidates.iter().enumerate() {
        for &b in &candidates[i + 1..] {
            let r = risk(a, b);
            if r < best_risk {
                best_risk = r;
                best = (a, b);
            }
        }
    }
    best
}

impl OpenSetClassifier for OneVsSet {
    fn predict(&self, x: &[f64]) -> Prediction {
        let mut best: Option<(usize, f64)> = None;
        for (class, slab) in self.slabs.iter().enumerate() {
            let depth = slab.depth(x);
            if depth >= 0.0 && best.is_none_or(|(_, d)| depth > d) {
                best = Some((class, depth));
            }
        }
        match best {
            Some((class, _)) => Prediction::Known(class),
            None => Prediction::Unknown,
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
            classes: vec![blob(rng, -4.0, 0.0, 50), blob(rng, 4.0, 0.0, 50)],
        }
    }

    #[test]
    fn classifies_training_regions() {
        let mut rng = StdRng::seed_from_u64(1);
        let ts = train_set(&mut rng);
        let m = OneVsSet::train(&ts, &OneVsSetParams::default()).unwrap();
        assert_eq!(m.predict(&[-4.0, 0.0]), Prediction::Known(0));
        assert_eq!(m.predict(&[4.0, 0.0]), Prediction::Known(1));
    }

    #[test]
    fn rejects_points_beyond_the_far_plane() {
        let mut rng = StdRng::seed_from_u64(2);
        let ts = train_set(&mut rng);
        let m = OneVsSet::train(&ts, &OneVsSetParams::default()).unwrap();
        // Far along class 1's positive direction: beyond plane B of class 1
        // and on the negative side of class 0 ⇒ unknown.
        assert_eq!(m.predict(&[60.0, 0.0]), Prediction::Unknown);
        assert_eq!(m.predict(&[-60.0, 0.0]), Prediction::Unknown);
    }

    #[test]
    fn slab_is_bounded_on_both_sides() {
        let mut rng = StdRng::seed_from_u64(3);
        let ts = train_set(&mut rng);
        let m = OneVsSet::train(&ts, &OneVsSetParams::default()).unwrap();
        for class in 0..2 {
            let (a, b) = m.slab_bounds(class);
            assert!(a < b, "class {class}: δ_A = {a} must be below δ_B = {b}");
            assert!(b.is_finite() && a.is_finite());
        }
    }

    #[test]
    fn open_space_risk_is_lower_than_plain_svm() {
        // The slab must reject at least some of the space the raw SVM labels
        // positive (everything with f(x) > 0 out to infinity).
        let mut rng = StdRng::seed_from_u64(4);
        let ts = train_set(&mut rng);
        let m = OneVsSet::train(&ts, &OneVsSetParams::default()).unwrap();
        // The raw one-vs-rest SVM of class 1 would claim x = (60, 0); the
        // slab must not.
        assert_eq!(m.predict(&[60.0, 0.0]), Prediction::Unknown);
        // But points near the class are still claimed.
        assert_eq!(m.predict(&[4.5, 0.3]), Prediction::Known(1));
    }

    #[test]
    fn lateral_open_space_risk_remains() {
        // Fig. 1's point: the slab is infinite in directions parallel to the
        // hyperplanes, so unknowns that project into the slab are STILL
        // misclassified. This is the failure mode HDP-OSR fixes.
        let mut rng = StdRng::seed_from_u64(5);
        let ts = train_set(&mut rng);
        let m = OneVsSet::train(&ts, &OneVsSetParams::default()).unwrap();
        // Displace a claimed point exactly along class 1's hyperplanes
        // (orthogonal to w): the decision value is unchanged, so the slab
        // still claims it however far away it is.
        let w = m.linear_weights(1);
        let lateral = [-w[1], w[0]];
        let norm = (lateral[0] * lateral[0] + lateral[1] * lateral[1]).sqrt();
        let t = 100.0 / norm;
        let probe = [4.0 + t * lateral[0], t * lateral[1]];
        // Only meaningful if class 0's slab doesn't accidentally claim it.
        let pred = m.predict(&probe);
        assert_ne!(
            pred,
            Prediction::Unknown,
            "the 1-vs-Set slab should (wrongly) claim laterally displaced unknowns"
        );
    }

    #[test]
    fn rejects_bad_inputs() {
        let ts = TrainSet { class_ids: vec![0], classes: vec![vec![vec![0.0, 0.0]]] };
        assert!(OneVsSet::train(&ts, &OneVsSetParams::default()).is_err());
        let mut rng = StdRng::seed_from_u64(6);
        let ts = train_set(&mut rng);
        let bad = OneVsSetParams { c: 0.0, ..Default::default() };
        assert!(OneVsSet::train(&ts, &bad).is_err());
    }
}
