//! The paper's experimental protocol (§4.1.1, Fig. 3).
//!
//! * [`openness`] — Scheirer et al.'s openness measure,
//! * [`OpenSetSplit`] — steps 1–3: choose `N` known classes, put 60 % of
//!   their samples in the training set, and build a testing set from the
//!   remaining 40 % plus every sample of the chosen unknown classes,
//! * [`ValidationSplit`] — steps 4–6: inside the training set, designate
//!   ⌊N/2 + 0.5⌋ simulation-"known" classes, split them 60/40 into a fitting
//!   set `F` and a validation set `V` containing a *Closed-Set* simulation
//!   (only sim-known samples) and an *Open-Set* simulation (sim-known 40 %
//!   plus all training samples of the sim-unknown classes). All parameter /
//!   threshold searches are trained on `F` and scored on `V`.

use rand::Rng;

use osr_stats::sampling;

use crate::{Dataset, DatasetError, Result};

/// Openness of an open-set problem (Scheirer et al. 2013):
/// `1 − sqrt(2·|training| / (|testing| + |target|))`, clamped at 0.
///
/// `n_train` = classes seen in training, `n_target` = classes to be
/// recognized, `n_test` = classes appearing at test time. The problem is
/// closed when every test class was trained on (openness 0).
pub fn openness(n_train: usize, n_target: usize, n_test: usize) -> f64 {
    assert!(n_train > 0 && n_target > 0 && n_test > 0, "openness: class counts must be positive");
    let v = 1.0 - (2.0 * n_train as f64 / (n_test + n_target) as f64).sqrt();
    v.max(0.0)
}

/// Ground truth of a test sample in an open-set evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum GroundTruth {
    /// Sample of a known class: the index **into the training class list**
    /// (not the original dataset id).
    Known(usize),
    /// Sample of a class never seen in training.
    Unknown,
}

/// Open-set prediction for one test sample — the shared output type of
/// HDP-OSR and every baseline, scored against [`GroundTruth`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Prediction {
    /// Index into the training class list (`TrainSet::class_ids` order).
    Known(usize),
    /// The sample was rejected as belonging to no known class.
    Unknown,
}

impl Prediction {
    /// True when the prediction scores as correct against `truth`
    /// (matching known label, or rejection of an unknown sample).
    pub fn is_correct(&self, truth: &GroundTruth) -> bool {
        match (self, truth) {
            (Prediction::Known(p), GroundTruth::Known(t)) => p == t,
            (Prediction::Unknown, GroundTruth::Unknown) => true,
            _ => false,
        }
    }
}

/// Training data: the known classes, kept per-class because HDP-OSR models
/// each class as its own HDP group.
#[derive(Debug, Clone)]
pub struct TrainSet {
    /// Original dataset ids of the known classes (parallel to `classes`).
    pub class_ids: Vec<usize>,
    /// Per-class training points (parallel to `class_ids`).
    pub classes: Vec<Vec<Vec<f64>>>,
}

impl TrainSet {
    /// Number of known classes.
    #[inline]
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// Feature dimension (0 when empty).
    pub fn dim(&self) -> usize {
        self.classes.iter().find_map(|c| c.first()).map_or(0, Vec::len)
    }

    /// Total number of training points.
    pub fn total_points(&self) -> usize {
        self.classes.iter().map(Vec::len).sum()
    }

    /// Flatten into `(point, class_index)` pairs — the representation the
    /// SVM/NN baselines consume. Class indices are positions in
    /// [`TrainSet::class_ids`], matching [`GroundTruth::Known`].
    pub fn flattened(&self) -> (Vec<&[f64]>, Vec<usize>) {
        let mut points = Vec::with_capacity(self.total_points());
        let mut labels = Vec::with_capacity(self.total_points());
        for (idx, class) in self.classes.iter().enumerate() {
            for p in class {
                points.push(p.as_slice());
                labels.push(idx);
            }
        }
        (points, labels)
    }
}

/// Test data with ground truth for scoring.
#[derive(Debug, Clone)]
pub struct TestSet {
    /// Test feature vectors.
    pub points: Vec<Vec<f64>>,
    /// Ground truth per point (parallel to `points`).
    pub truth: Vec<GroundTruth>,
}

impl TestSet {
    /// Number of test points.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when there are no test points.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Count of samples whose ground truth is `Unknown`.
    pub fn n_unknown(&self) -> usize {
        self.truth.iter().filter(|t| **t == GroundTruth::Unknown).count()
    }
}

/// Configuration of an open-set train/test split (protocol steps 1–3).
#[derive(Debug, Clone, Copy)]
pub struct SplitConfig {
    /// Number of known classes `N` selected for training.
    pub n_known: usize,
    /// Number of additional classes whose samples appear in the test set as
    /// unknowns (`0` makes the problem closed).
    pub n_unknown: usize,
    /// Fraction of each known class used for training (the paper uses 0.6).
    pub train_fraction: f64,
}

impl SplitConfig {
    /// Paper-default split: 60 % of each known class to training.
    pub fn new(n_known: usize, n_unknown: usize) -> Self {
        Self { n_known, n_unknown, train_fraction: 0.6 }
    }

    /// Openness this configuration produces (target = known classes).
    pub fn openness(&self) -> f64 {
        openness(self.n_known, self.n_known, self.n_known + self.n_unknown)
    }
}

/// One sampled open-set recognition problem.
#[derive(Debug, Clone)]
pub struct OpenSetSplit {
    /// Training data over the known classes.
    pub train: TrainSet,
    /// Test set mixing held-out known samples with unknown-class samples.
    pub test: TestSet,
    /// Original dataset ids of the unknown classes present in the test set.
    pub unknown_class_ids: Vec<usize>,
    /// True class of each unknown test point, as a position in
    /// `unknown_class_ids`. The unknown points are the tail of `test`, so
    /// entry `i` labels test point `test.len() - unknown_labels.len() + i`.
    pub unknown_labels: Vec<usize>,
    /// Openness of the resulting problem.
    pub openness: f64,
}

impl OpenSetSplit {
    /// Sample a split per protocol steps 1–3: randomly select
    /// `config.n_known` classes, 60 % of each to training; the remaining
    /// 40 % plus **all** samples of `config.n_unknown` randomly chosen other
    /// classes form the test set.
    ///
    /// # Errors
    /// Fails when the dataset has fewer than `n_known + n_unknown` classes,
    /// a selected class has fewer than 2 samples, or the configuration is
    /// malformed.
    pub fn sample<R: Rng + ?Sized>(
        data: &Dataset,
        config: &SplitConfig,
        rng: &mut R,
    ) -> Result<Self> {
        if config.n_known == 0 {
            return Err(DatasetError::InvalidConfig("n_known must be positive".into()));
        }
        if !(0.0 < config.train_fraction && config.train_fraction < 1.0) {
            return Err(DatasetError::InvalidConfig(format!(
                "train_fraction must be in (0,1), got {}",
                config.train_fraction
            )));
        }
        let wanted = config.n_known + config.n_unknown;
        if wanted > data.n_classes {
            return Err(DatasetError::NotEnoughClasses {
                requested: wanted,
                available: data.n_classes,
            });
        }

        let chosen = sampling::sample_indices(rng, data.n_classes, wanted);
        let known = &chosen[..config.n_known];
        let unknown = &chosen[config.n_known..];

        let mut classes = Vec::with_capacity(config.n_known);
        let mut test_points = Vec::new();
        let mut test_truth = Vec::new();

        for (known_idx, &class) in known.iter().enumerate() {
            let mut idx = data.class_indices(class);
            if idx.len() < 2 {
                return Err(DatasetError::NotEnoughSamples { class, needed: 2, got: idx.len() });
            }
            sampling::shuffle(rng, &mut idx);
            let n_train = ((idx.len() as f64 * config.train_fraction).round() as usize)
                .clamp(1, idx.len() - 1);
            let (train_idx, test_idx) = idx.split_at(n_train);
            classes.push(train_idx.iter().map(|&i| data.points[i].clone()).collect());
            for &i in test_idx {
                test_points.push(data.points[i].clone());
                test_truth.push(GroundTruth::Known(known_idx));
            }
        }
        let mut unknown_labels = Vec::new();
        for (unknown_idx, &class) in unknown.iter().enumerate() {
            for i in data.class_indices(class) {
                test_points.push(data.points[i].clone());
                test_truth.push(GroundTruth::Unknown);
                unknown_labels.push(unknown_idx);
            }
        }

        Ok(Self {
            train: TrainSet { class_ids: known.to_vec(), classes },
            test: TestSet { points: test_points, truth: test_truth },
            unknown_class_ids: unknown.to_vec(),
            unknown_labels,
            openness: config.openness(),
        })
    }
}

/// The fitting/validation partition used for threshold selection
/// (protocol steps 4–6, Fig. 3).
#[derive(Debug, Clone)]
pub struct ValidationSplit {
    /// Fitting set `F`: 60 % of each simulation-"known" class.
    pub fitting: TrainSet,
    /// Closed-Set simulation: held-out 40 % of the sim-known classes only.
    pub closed: TestSet,
    /// Open-Set simulation: the Closed-Set points plus every training sample
    /// of the simulation-"unknown" classes (labeled [`GroundTruth::Unknown`]).
    pub open: TestSet,
}

impl ValidationSplit {
    /// Build a validation split from a training set: ⌊N/2 + 0.5⌋ of its `N`
    /// classes act as sim-known, the rest as sim-unknown; each sim-known
    /// class is split 60/40 into fitting and validation samples.
    ///
    /// # Errors
    /// Fails when the training set has fewer than 2 classes or a class has
    /// fewer than 2 points.
    pub fn sample<R: Rng + ?Sized>(train: &TrainSet, rng: &mut R) -> Result<Self> {
        let n = train.n_classes();
        if n < 2 {
            return Err(DatasetError::InvalidConfig(format!(
                "validation split needs at least 2 training classes, got {n}"
            )));
        }
        // ⌊N/2 + 0.5⌋ simulation-known classes.
        let n_sim_known = ((n as f64 / 2.0 + 0.5).floor() as usize).clamp(1, n - 1);
        let order = sampling::sample_indices(rng, n, n);
        let sim_known = &order[..n_sim_known];
        let sim_unknown = &order[n_sim_known..];

        let mut fit_classes = Vec::with_capacity(n_sim_known);
        let mut fit_ids = Vec::with_capacity(n_sim_known);
        let mut closed_points = Vec::new();
        let mut closed_truth = Vec::new();

        for (fit_idx, &class_pos) in sim_known.iter().enumerate() {
            let points = &train.classes[class_pos];
            if points.len() < 2 {
                return Err(DatasetError::NotEnoughSamples {
                    class: train.class_ids[class_pos],
                    needed: 2,
                    got: points.len(),
                });
            }
            let mut idx: Vec<usize> = (0..points.len()).collect();
            sampling::shuffle(rng, &mut idx);
            let n_fit = ((points.len() as f64 * 0.6).round() as usize).clamp(1, points.len() - 1);
            let (fit, held) = idx.split_at(n_fit);
            fit_classes.push(fit.iter().map(|&i| points[i].clone()).collect());
            fit_ids.push(train.class_ids[class_pos]);
            for &i in held {
                closed_points.push(points[i].clone());
                closed_truth.push(GroundTruth::Known(fit_idx));
            }
        }

        let mut open_points = closed_points.clone();
        let mut open_truth = closed_truth.clone();
        for &class_pos in sim_unknown {
            for p in &train.classes[class_pos] {
                open_points.push(p.clone());
                open_truth.push(GroundTruth::Unknown);
            }
        }

        Ok(Self {
            fitting: TrainSet { class_ids: fit_ids, classes: fit_classes },
            closed: TestSet { points: closed_points, truth: closed_truth },
            open: TestSet { points: open_points, truth: open_truth },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synthetic;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_dataset() -> Dataset {
        let mut rng = StdRng::seed_from_u64(42);
        synthetic::pendigits_config().scaled(0.02).generate(&mut rng)
    }

    #[test]
    fn openness_matches_paper_formula() {
        // Completely closed problem.
        assert_eq!(openness(10, 10, 10), 0.0);
        // LETTER with all 16 extra classes: 1 − sqrt(20/36).
        let o = openness(10, 10, 26);
        assert!((o - (1.0 - (20.0f64 / 36.0).sqrt())).abs() < 1e-12);
        // USPS/PENDIGITS maximum: 1 − sqrt(10/15) ≈ 18.4 %.
        let o = openness(5, 5, 10);
        assert!((o - (1.0 - (10.0f64 / 15.0).sqrt())).abs() < 1e-12);
    }

    #[test]
    fn split_respects_fractions_and_counts() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(1);
        let cfg = SplitConfig::new(5, 3);
        let split = OpenSetSplit::sample(&data, &cfg, &mut rng).unwrap();

        assert_eq!(split.train.n_classes(), 5);
        assert_eq!(split.unknown_class_ids.len(), 3);
        assert!((split.openness - openness(5, 5, 8)).abs() < 1e-12);

        // Each known class contributes ~60 % to training.
        for (i, &cid) in split.train.class_ids.iter().enumerate() {
            let total = data.class_indices(cid).len();
            let train_n = split.train.classes[i].len();
            let expect = (total as f64 * 0.6).round() as usize;
            assert_eq!(train_n, expect, "class {cid}: {train_n} vs {expect} of {total}");
        }

        // Unknown samples = all samples of the unknown classes.
        let unknown_total: usize =
            split.unknown_class_ids.iter().map(|&c| data.class_indices(c).len()).sum();
        assert_eq!(split.test.n_unknown(), unknown_total);

        // Known test samples = the held-out 40 %.
        let known_test = split.test.len() - split.test.n_unknown();
        let expect_known: usize = split
            .train
            .class_ids
            .iter()
            .enumerate()
            .map(|(i, &cid)| data.class_indices(cid).len() - split.train.classes[i].len())
            .sum();
        assert_eq!(known_test, expect_known);
    }

    #[test]
    fn unknown_labels_split_the_unknown_tail_by_class() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let split = OpenSetSplit::sample(&data, &SplitConfig::new(4, 3), &mut rng).unwrap();

        let n_unknown = split.unknown_labels.len();
        assert_eq!(n_unknown, split.test.n_unknown());
        let head = split.test.len() - n_unknown;
        assert!(split.test.truth[head..].iter().all(|t| *t == GroundTruth::Unknown));
        // The tail holds each unknown class whole, in `unknown_class_ids`
        // order, and its labels name that class's position.
        let mut expected_points = Vec::new();
        let mut expected_labels = Vec::new();
        for (pos, &class) in split.unknown_class_ids.iter().enumerate() {
            for i in data.class_indices(class) {
                expected_points.push(data.points[i].clone());
                expected_labels.push(pos);
            }
        }
        assert_eq!(split.unknown_labels, expected_labels);
        assert_eq!(split.test.points[head..], expected_points[..]);
    }

    #[test]
    fn closed_split_has_no_unknowns() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(2);
        let split = OpenSetSplit::sample(&data, &SplitConfig::new(5, 0), &mut rng).unwrap();
        assert_eq!(split.test.n_unknown(), 0);
        assert_eq!(split.openness, 0.0);
    }

    #[test]
    fn train_and_test_points_are_disjoint() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(3);
        let split = OpenSetSplit::sample(&data, &SplitConfig::new(4, 2), &mut rng).unwrap();
        // Points are continuous draws, so coordinate equality identifies the
        // original sample reliably.
        use std::collections::HashSet;
        let train_set: HashSet<Vec<u64>> = split
            .train
            .classes
            .iter()
            .flatten()
            .map(|p| p.iter().map(|x| x.to_bits()).collect())
            .collect();
        for p in &split.test.points {
            let key: Vec<u64> = p.iter().map(|x| x.to_bits()).collect();
            assert!(!train_set.contains(&key), "test point leaked from training set");
        }
    }

    #[test]
    fn split_rejects_too_many_classes() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let err = OpenSetSplit::sample(&data, &SplitConfig::new(9, 5), &mut rng).unwrap_err();
        assert!(matches!(err, DatasetError::NotEnoughClasses { requested: 14, available: 10 }));
    }

    #[test]
    fn split_rejects_bad_fraction() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(4);
        let cfg = SplitConfig { n_known: 3, n_unknown: 0, train_fraction: 1.0 };
        assert!(OpenSetSplit::sample(&data, &cfg, &mut rng).is_err());
    }

    #[test]
    fn validation_split_follows_fig3() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(5);
        let split = OpenSetSplit::sample(&data, &SplitConfig::new(5, 0), &mut rng).unwrap();
        let val = ValidationSplit::sample(&split.train, &mut rng).unwrap();

        // ⌊5/2 + 0.5⌋ = 3 sim-known classes.
        assert_eq!(val.fitting.n_classes(), 3);
        // Closed sim contains no unknowns; open sim adds the 2 sim-unknown
        // classes' full training data.
        assert_eq!(val.closed.n_unknown(), 0);
        let sim_unknown_total: usize = split
            .train
            .classes
            .iter()
            .enumerate()
            .filter(|(i, _)| !val.fitting.class_ids.contains(&split.train.class_ids[*i]))
            .map(|(_, c)| c.len())
            .sum();
        assert_eq!(val.open.n_unknown(), sim_unknown_total);
        assert_eq!(val.open.len(), val.closed.len() + sim_unknown_total);

        // Fitting + closed exactly partition each sim-known class.
        for (i, &cid) in val.fitting.class_ids.iter().enumerate() {
            let pos = split.train.class_ids.iter().position(|&c| c == cid).unwrap();
            let total = split.train.classes[pos].len();
            let n_fit = val.fitting.classes[i].len();
            let n_closed = val
                .closed
                .truth
                .iter()
                .filter(|t| **t == GroundTruth::Known(i))
                .count();
            assert_eq!(n_fit + n_closed, total);
        }
    }

    #[test]
    fn validation_split_needs_two_classes() {
        let train = TrainSet { class_ids: vec![0], classes: vec![vec![vec![0.0]; 5]] };
        let mut rng = StdRng::seed_from_u64(6);
        assert!(ValidationSplit::sample(&train, &mut rng).is_err());
    }

    #[test]
    fn flattened_labels_match_classes() {
        let data = small_dataset();
        let mut rng = StdRng::seed_from_u64(7);
        let split = OpenSetSplit::sample(&data, &SplitConfig::new(3, 0), &mut rng).unwrap();
        let (pts, labels) = split.train.flattened();
        assert_eq!(pts.len(), split.train.total_points());
        assert_eq!(labels.len(), pts.len());
        assert_eq!(labels.iter().filter(|&&l| l == 0).count(), split.train.classes[0].len());
        assert!(labels.iter().all(|&l| l < 3));
    }
}
