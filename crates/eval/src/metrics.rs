//! Open-set evaluation metrics (paper §4).
//!
//! * **micro-F-measure** — precision/recall pooled over the known classes;
//!   unknown is *not* a class: rejected known samples count as false
//!   negatives of their class, accepted unknown samples count as false
//!   positives of the predicted class.
//! * **open-set recognition accuracy** — "a correct response should be
//!   either the correct classification or 'rejection' if the testing sample
//!   is from an unknown category."

use osr_dataset::protocol::{GroundTruth, Prediction};

/// Pooled confusion counts over the known classes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpenSetConfusion {
    /// Known sample predicted as its own class.
    pub tp: usize,
    /// Sample predicted as some known class it is not (includes accepted
    /// unknowns).
    pub fp: usize,
    /// Known sample predicted as another class or rejected.
    pub fn_: usize,
    /// Unknown sample correctly rejected.
    pub tn_rejected: usize,
    /// Total samples scored.
    pub total: usize,
}

impl OpenSetConfusion {
    /// Accumulate one `(prediction, truth)` pair.
    pub fn record(&mut self, pred: Prediction, truth: GroundTruth) {
        self.total += 1;
        match (pred, truth) {
            (Prediction::Known(p), GroundTruth::Known(t)) => {
                if p == t {
                    self.tp += 1;
                } else {
                    // Wrong known class: FP for the predicted class AND FN
                    // for the true class — both pooled here.
                    self.fp += 1;
                    self.fn_ += 1;
                }
            }
            (Prediction::Known(_), GroundTruth::Unknown) => self.fp += 1,
            (Prediction::Unknown, GroundTruth::Known(_)) => self.fn_ += 1,
            (Prediction::Unknown, GroundTruth::Unknown) => self.tn_rejected += 1,
        }
    }

    /// Build from parallel slices.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn from_slices(preds: &[Prediction], truth: &[GroundTruth]) -> Self {
        assert_eq!(preds.len(), truth.len(), "confusion: length mismatch");
        let mut c = Self::default();
        for (&p, &t) in preds.iter().zip(truth) {
            c.record(p, t);
        }
        c
    }

    /// Micro precision `TP / (TP + FP)`; 1.0 when nothing was predicted
    /// positive (vacuously precise).
    pub fn precision(&self) -> f64 {
        if self.tp + self.fp == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fp) as f64
    }

    /// Micro recall `TP / (TP + FN)`; 1.0 when there were no known samples.
    pub fn recall(&self) -> f64 {
        if self.tp + self.fn_ == 0 {
            return 1.0;
        }
        self.tp as f64 / (self.tp + self.fn_) as f64
    }

    /// Micro-F-measure: harmonic mean of precision and recall.
    pub fn f_measure(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p + r == 0.0 {
            return 0.0;
        }
        2.0 * p * r / (p + r)
    }

    /// Open-set recognition accuracy: correct known classifications plus
    /// correct rejections, over everything.
    pub fn accuracy(&self) -> f64 {
        if self.total == 0 {
            return 1.0;
        }
        (self.tp + self.tn_rejected) as f64 / self.total as f64
    }
}

/// Convenience: micro-F-measure of a prediction run.
pub fn micro_f_measure(preds: &[Prediction], truth: &[GroundTruth]) -> f64 {
    OpenSetConfusion::from_slices(preds, truth).f_measure()
}

/// Convenience: open-set accuracy of a prediction run.
pub fn open_set_accuracy(preds: &[Prediction], truth: &[GroundTruth]) -> f64 {
    OpenSetConfusion::from_slices(preds, truth).accuracy()
}

#[cfg(test)]
mod tests {
    use super::*;

    use GroundTruth as G;
    use Prediction as P;

    #[test]
    fn perfect_closed_set_run() {
        let preds = [P::Known(0), P::Known(1), P::Known(0)];
        let truth = [G::Known(0), G::Known(1), G::Known(0)];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!(c.f_measure(), 1.0);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!((c.tp, c.fp, c.fn_), (3, 0, 0));
    }

    #[test]
    fn perfect_open_set_run_includes_rejections() {
        let preds = [P::Known(0), P::Unknown, P::Unknown];
        let truth = [G::Known(0), G::Unknown, G::Unknown];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.f_measure(), 1.0);
        assert_eq!(c.tn_rejected, 2);
    }

    #[test]
    fn accepted_unknown_is_a_false_positive() {
        let preds = [P::Known(0), P::Known(1)];
        let truth = [G::Known(0), G::Unknown];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!((c.tp, c.fp, c.fn_), (1, 1, 0));
        // P = 1/2, R = 1 ⇒ F = 2/3.
        assert!((c.f_measure() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.accuracy(), 0.5);
    }

    #[test]
    fn rejected_known_is_a_false_negative() {
        let preds = [P::Unknown, P::Known(1)];
        let truth = [G::Known(0), G::Known(1)];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!((c.tp, c.fp, c.fn_), (1, 0, 1));
        // P = 1, R = 1/2 ⇒ F = 2/3.
        assert!((c.f_measure() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(c.accuracy(), 0.5);
    }

    #[test]
    fn cross_class_error_counts_both_fp_and_fn() {
        let preds = [P::Known(1)];
        let truth = [G::Known(0)];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!((c.tp, c.fp, c.fn_), (0, 1, 1));
        assert_eq!(c.f_measure(), 0.0);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn all_unknown_testset_with_full_rejection_is_perfect() {
        let preds = [P::Unknown; 4];
        let truth = [G::Unknown; 4];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!(c.f_measure(), 1.0); // vacuous precision & recall
        assert_eq!(c.accuracy(), 1.0);
    }

    #[test]
    fn empty_run_is_vacuously_perfect() {
        let c = OpenSetConfusion::from_slices(&[], &[]);
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.f_measure(), 1.0);
    }

    #[test]
    fn f_measure_degrades_with_openness_for_a_threshold_free_classifier() {
        // A classifier that never rejects: adding unknowns adds FPs, pulling
        // F down — the mechanism behind every baseline's degradation curve.
        let closed_preds = [P::Known(0), P::Known(1)];
        let closed_truth = [G::Known(0), G::Known(1)];
        let f_closed = micro_f_measure(&closed_preds, &closed_truth);
        let open_preds = [P::Known(0), P::Known(1), P::Known(0), P::Known(1)];
        let open_truth = [G::Known(0), G::Known(1), G::Unknown, G::Unknown];
        let f_open = micro_f_measure(&open_preds, &open_truth);
        assert!(f_open < f_closed);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_slices_panic() {
        let _ = OpenSetConfusion::from_slices(&[P::Unknown], &[]);
    }

    #[test]
    fn convenience_wrappers_match_struct() {
        let preds = [P::Known(0), P::Unknown];
        let truth = [G::Known(0), G::Known(1)];
        let c = OpenSetConfusion::from_slices(&preds, &truth);
        assert_eq!(micro_f_measure(&preds, &truth), c.f_measure());
        assert_eq!(open_set_accuracy(&preds, &truth), c.accuracy());
    }
}
