//! Open-set evaluation metrics (paper §4).
//!
//! * **micro-F-measure** — precision/recall pooled over the known classes;
//!   unknown is *not* a class: rejected known samples count as false
//!   negatives of their class, accepted unknown samples count as false
//!   positives of the predicted class.
//! * **open-set recognition accuracy** — "a correct response should be
//!   either the correct classification or 'rejection' if the testing sample
//!   is from an unknown category."
//! * **matched accuracy** and **HNA** — how well the rejected points'
//!   clusters recover the true unknown classes (Tables 1–2's discovery,
//!   scored as OpenGCD scores novel-class discovery).

use std::collections::BTreeMap;

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

/// Most true classes [`matched_accuracy`] accepts: its exact matching is a
/// DP over subsets of the classes, so the cost doubles with each class.
const MAX_MATCHED_CLASSES: usize = 16;

/// Matched clustering accuracy: the share of points whose cluster is the
/// one matched to their true class, under the best one-to-one matching
/// between clusters and classes (the Hungarian-matched accuracy OpenGCD
/// reports on novel classes).
///
/// `clusters[i]` is point `i`'s cluster, or `None` when the model did not
/// reject it; such a point is a miss under every matching. `classes[i]` is
/// its true class, a dense index. Clusters left unmatched (more clusters
/// than classes, or an over-split class) count as misses too, so a class
/// split over several clusters scores only its largest matched part. The
/// matching is exact: a DP over subsets of the classes, one cluster at a
/// time. An empty input scores 1.0, like the other metrics here.
///
/// # Panics
/// Panics on length mismatch, or on more than 16 classes.
pub fn matched_accuracy(clusters: &[Option<usize>], classes: &[usize]) -> f64 {
    assert_eq!(clusters.len(), classes.len(), "matched accuracy: length mismatch");
    let n_classes = classes.iter().max().map_or(0, |&c| c + 1);
    assert!(
        n_classes <= MAX_MATCHED_CLASSES,
        "matched accuracy: {n_classes} classes exceed {MAX_MATCHED_CLASSES}"
    );
    if classes.is_empty() {
        return 1.0;
    }
    let mut counts: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&cluster, &class) in clusters.iter().zip(classes) {
        if let Some(cluster) = cluster {
            counts.entry(cluster).or_insert_with(|| vec![0; n_classes])[class] += 1;
        }
    }
    // best[mask]: most points the clusters seen so far can match using
    // only the classes in `mask`, each at most once.
    let mut best = vec![0usize; 1 << n_classes];
    for row in counts.values() {
        let before = best.clone();
        for (mask, &matched) in before.iter().enumerate() {
            for (class, &hits) in row.iter().enumerate() {
                let taken = mask | (1 << class);
                if taken != mask {
                    best[taken] = best[taken].max(matched + hits);
                }
            }
        }
    }
    best.iter().max().copied().unwrap_or(0) as f64 / classes.len() as f64
}

/// HNA: the harmonic mean of known-class accuracy and the unknown classes'
/// [`matched_accuracy`]; 0.0 when both are 0.
pub fn hna(known: f64, unknown: f64) -> f64 {
    if known + unknown == 0.0 {
        return 0.0;
    }
    2.0 * known * unknown / (known + unknown)
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

    #[test]
    fn perfect_clustering_scores_one() {
        let clusters = [Some(0), Some(0), Some(1), Some(2), Some(2)];
        let classes = [0, 0, 1, 2, 2];
        assert_eq!(matched_accuracy(&clusters, &classes), 1.0);
    }

    #[test]
    fn relabelling_the_clusters_leaves_the_score_unchanged() {
        let classes = [0, 0, 0, 1, 1, 2, 2, 2];
        let clusters = [Some(4), Some(4), Some(9), Some(9), Some(9), Some(1), Some(1), Some(4)];
        let relabelled = clusters.map(|c| c.map(|c| 100 - c));
        let score = matched_accuracy(&clusters, &classes);
        assert_eq!(matched_accuracy(&relabelled, &classes), score);
        // Best matching: 4 → class 0 (2), 9 → class 1 (2), 1 → class 2 (2).
        assert_eq!(score, 6.0 / 8.0);
    }

    #[test]
    fn an_over_split_class_counts_only_its_largest_cluster() {
        let clusters = [Some(0), Some(0), Some(0), Some(1), Some(2), Some(2)];
        let classes = [0, 0, 0, 0, 1, 1];
        assert_eq!(matched_accuracy(&clusters, &classes), 5.0 / 6.0);
    }

    #[test]
    fn unrejected_points_count_as_misses() {
        let clusters = [Some(0), None, Some(1), None];
        let classes = [0, 0, 1, 1];
        assert_eq!(matched_accuracy(&clusters, &classes), 0.5);
        assert_eq!(matched_accuracy(&[None, None], &[0, 1]), 0.0);
    }

    #[test]
    fn more_clusters_than_classes_leaves_some_unmatched() {
        let clusters = [Some(0), Some(1), Some(2), Some(3), Some(3)];
        let classes = [0, 0, 0, 1, 1];
        // One cluster per class: class 0 keeps one of its three singletons.
        assert_eq!(matched_accuracy(&clusters, &classes), 3.0 / 5.0);
    }

    #[test]
    fn matching_is_one_to_one_not_greedy() {
        // Greedy gives cluster 0 to class 0 (3 hits), leaving cluster 1 no
        // class-1 point to match; the best matching swaps them.
        let clusters = [Some(0), Some(0), Some(0), Some(0), Some(0), Some(1), Some(1), Some(1)];
        let classes = [0, 0, 0, 1, 1, 0, 0, 0];
        assert_eq!(matched_accuracy(&clusters, &classes), 5.0 / 8.0);
    }

    /// Best matching by trying every class for every cluster in turn.
    fn brute_force(counts: &[Vec<usize>], taken: &mut Vec<bool>) -> usize {
        let Some((row, rest)) = counts.split_first() else { return 0 };
        let mut best = brute_force(rest, taken);
        for class in 0..taken.len() {
            if !taken[class] {
                taken[class] = true;
                best = best.max(row[class] + brute_force(rest, taken));
                taken[class] = false;
            }
        }
        best
    }

    #[test]
    fn subset_dp_matches_brute_force() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(29);
        for _ in 0..200 {
            let n_classes = rng.gen_range(1..5);
            let n_clusters = rng.gen_range(1..6);
            let n = rng.gen_range(1..40);
            let classes: Vec<usize> = (0..n).map(|_| rng.gen_range(0..n_classes)).collect();
            let clusters: Vec<Option<usize>> = (0..n)
                .map(|_| rng.gen_bool(0.8).then(|| rng.gen_range(0..n_clusters)))
                .collect();
            let n_classes = classes.iter().max().map_or(0, |&c| c + 1);
            let mut counts = vec![vec![0; n_classes]; n_clusters];
            for (&cluster, &class) in clusters.iter().zip(&classes) {
                if let Some(cluster) = cluster {
                    counts[cluster][class] += 1;
                }
            }
            let expected = brute_force(&counts, &mut vec![false; n_classes]) as f64 / n as f64;
            assert_eq!(matched_accuracy(&clusters, &classes), expected, "{clusters:?} {classes:?}");
        }
    }

    #[test]
    fn empty_discovery_is_vacuously_perfect() {
        assert_eq!(matched_accuracy(&[], &[]), 1.0);
    }

    #[test]
    fn hna_is_the_harmonic_mean() {
        assert!((hna(1.0, 0.5) - 2.0 / 3.0).abs() < 1e-12);
        assert!((hna(0.8, 0.8) - 0.8).abs() < 1e-12);
        assert_eq!(hna(0.9, 0.0), 0.0);
        assert_eq!(hna(0.0, 0.0), 0.0);
    }
}
