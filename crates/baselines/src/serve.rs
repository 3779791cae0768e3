//! Serve adapter: every baseline behind the production
//! [`CollectiveModel`] trait, so W-SVM/PI-SVM/OSNN/1-vs-Set classify
//! through the same [`hdp_osr_core::BatchServer`] stack as CD-OSR —
//! admission, retry, degradation, metrics, and method-tagged JSONL traces
//! included.
//!
//! The baselines are *per-instance* recognizers: deterministic, sweep-free,
//! no sampler to diverge. The adapter maps them onto the collective-serving
//! contract honestly:
//!
//! * sessions plan **zero sweeps** and answer in
//!   [`CollectiveSession::finish`];
//! * sessions never draw from the RNG, so a retry's reseed replays the
//!   identical computation;
//! * the frozen fallback **is** the normal per-point prediction (there is no
//!   cheaper approximation to fall back to), so degraded answers differ only
//!   in their `served_via` stamp.
//!
//! Outcomes use a degenerate subclass vocabulary so downstream consumers of
//! [`ClassifyOutcome`] keep working: class `c` is "dish" `c` (one subclass
//! per known class, sized by its training count), and every rejected point
//! pools into the single pseudo-dish `n_classes`.

use std::collections::BTreeMap;

use rand::rngs::StdRng;

use hdp_osr_core::collective::{
    AttemptError, CollectiveModel, CollectiveSession, ModelCapabilities,
};
use hdp_osr_core::discovery::{estimate_unknown_classes, GroupSubclasses, SubclassReport};
use hdp_osr_core::{ClassifyOutcome, DegradeReason, DishId, OsrError, ServedVia, SweepTrace};
use osr_dataset::protocol::{Prediction, TrainSet};

use crate::{
    OneVsSet, OneVsSetParams, OpenSetClassifier, Osnn, OsnnParams, PiSvm, PiSvmParams, Result,
    WOsvm, WOsvmParams, WSvm, WSvmParams,
};

/// A fully parameterized baseline, ready to train into a [`ServedBaseline`].
#[derive(Debug, Clone, Copy)]
pub enum BaselineSpec {
    /// 1-vs-Set machine (method tag `"onevset"`).
    OneVsSet(OneVsSetParams),
    /// W-OSVM, the one-class CAP model alone (method tag `"wosvm"`).
    WOsvm(WOsvmParams),
    /// Weibull-calibrated SVM (method tag `"wsvm"`).
    WSvm(WSvmParams),
    /// Probability-of-inclusion SVM (method tag `"pisvm"`).
    PiSvm(PiSvmParams),
    /// Nearest-neighbour distance ratio (method tag `"osnn"`).
    Osnn(OsnnParams),
}

impl BaselineSpec {
    /// Stable lower-case method tag used in traces, outcomes, and bench
    /// reports.
    pub fn method(&self) -> &'static str {
        match self {
            Self::OneVsSet(_) => "onevset",
            Self::WOsvm(_) => "wosvm",
            Self::WSvm(_) => "wsvm",
            Self::PiSvm(_) => "pisvm",
            Self::Osnn(_) => "osnn",
        }
    }

    /// Every baseline under its default hyperparameters, in the paper's
    /// figure-legend order.
    pub fn default_lineup() -> Vec<BaselineSpec> {
        vec![
            Self::OneVsSet(OneVsSetParams::default()),
            Self::WOsvm(WOsvmParams::default()),
            Self::WSvm(WSvmParams::default()),
            Self::PiSvm(PiSvmParams::default()),
            Self::Osnn(OsnnParams::default()),
        ]
    }
}

/// The trained model behind a [`ServedBaseline`].
#[derive(Debug)]
enum Fitted {
    OneVsSet(OneVsSet),
    WOsvm(WOsvm),
    WSvm(WSvm),
    PiSvm(PiSvm),
    Osnn(Osnn),
}

impl Fitted {
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        match self {
            Self::OneVsSet(m) => m.predict_batch(xs),
            Self::WOsvm(m) => m.predict_batch(xs),
            Self::WSvm(m) => m.predict_batch(xs),
            Self::PiSvm(m) => m.predict_batch(xs),
            Self::Osnn(m) => m.predict_batch(xs),
        }
    }
}

/// A fitted baseline serving through the production stack: implements
/// [`CollectiveModel`], so a [`hdp_osr_core::BatchServer`] can hold it
/// exactly like CD-OSR.
#[derive(Debug)]
pub struct ServedBaseline {
    spec: BaselineSpec,
    model: Fitted,
    dim: usize,
    /// Training item count per class, frozen at fit time — the degenerate
    /// "subclass" vocabulary of the outcome reports.
    class_counts: Vec<usize>,
}

impl ServedBaseline {
    /// Train `spec` on `train`.
    ///
    /// # Errors
    /// Propagates the baseline's training failure.
    pub fn train(spec: BaselineSpec, train: &TrainSet) -> Result<Self> {
        let model = match &spec {
            BaselineSpec::OneVsSet(p) => Fitted::OneVsSet(OneVsSet::train(train, p)?),
            BaselineSpec::WOsvm(p) => Fitted::WOsvm(WOsvm::train(train, p)?),
            BaselineSpec::WSvm(p) => Fitted::WSvm(WSvm::train(train, p)?),
            BaselineSpec::PiSvm(p) => Fitted::PiSvm(PiSvm::train(train, p)?),
            BaselineSpec::Osnn(p) => {
                let (points, labels) = train.flattened();
                Fitted::Osnn(Osnn::train(&points, &labels, train.n_classes(), p)?)
            }
        };
        // Training succeeded, so the set is non-empty and rectangular.
        let dim = train
            .classes
            .iter()
            .flat_map(|c| c.iter())
            .next()
            .map_or(0, Vec::len);
        let class_counts = train.classes.iter().map(Vec::len).collect();
        Ok(Self { spec, model, dim, class_counts })
    }

    /// The spec this model was trained from.
    pub fn spec(&self) -> &BaselineSpec {
        &self.spec
    }

    /// Assemble a [`ClassifyOutcome`] around per-point predictions, mapping
    /// them onto the degenerate dish vocabulary (class `c` → dish `c`,
    /// `Unknown` → pseudo-dish `n_classes`).
    fn outcome(
        &self,
        predictions: Vec<Prediction>,
        served_via: ServedVia,
        attempts: u32,
    ) -> ClassifyOutcome {
        let n_classes = self.class_counts.len();
        let mut counts: BTreeMap<DishId, usize> = BTreeMap::new();
        let mut test_dishes: Vec<DishId> = Vec::with_capacity(predictions.len());
        for pred in &predictions {
            let dish = match pred {
                Prediction::Known(c) => *c,
                Prediction::Unknown => n_classes,
            };
            *counts.entry(dish).or_insert(0) += 1;
            test_dishes.push(dish);
        }
        let denom = predictions.len().max(1) as f64;

        let known = self
            .class_counts
            .iter()
            .enumerate()
            .map(|(c, &count)| GroupSubclasses {
                name: format!("Class{}", c + 1),
                subclasses: vec![(c, count, 1.0)],
            })
            .collect();
        let mut test_known = Vec::new();
        let mut test_new = Vec::new();
        let mut known_items = 0usize;
        let mut new_items = 0usize;
        for (&dish, &count) in &counts {
            let row = (dish, count, count as f64 / denom);
            if dish < n_classes {
                known_items += count;
                test_known.push(row);
            } else {
                new_items += count;
                test_new.push(row);
            }
        }
        let report = SubclassReport {
            known,
            test_known,
            test_new: test_new.clone(),
            test_known_proportion: known_items as f64 / denom,
            test_new_proportion: new_items as f64 / denom,
            delta_estimate: estimate_unknown_classes(test_new.len(), n_classes, n_classes),
        };

        ClassifyOutcome {
            predictions,
            report,
            test_dishes,
            // Per-instance recognizers have no sampler state; the
            // concentrations and likelihood are identically absent.
            gamma: 0.0,
            alpha: 0.0,
            log_likelihood: 0.0,
            served_via,
            attempts,
            trace_id: String::new(),
            method: self.spec.method().to_string(),
        }
    }
}

/// Honor injected faults at the `baseline::classify` site, then report any
/// pending divergence poison.
fn baseline_classify_fault() -> std::result::Result<(), AttemptError> {
    use osr_stats::faults::{hit, sites, Fault};
    match hit(sites::BASELINE_CLASSIFY) {
        Some(Fault::Panic { message }) => {
            // osr-lint: allow(panic-path, injected fault — the server's catch_unwind boundary is the system under test)
            panic!("{message}");
        }
        Some(Fault::Diverge | Fault::CholeskyFail) => {
            osr_stats::divergence::poison("injected divergence at baseline::classify");
        }
        Some(Fault::DelayMs(ms)) => {
            std::thread::sleep(std::time::Duration::from_millis(ms));
        }
        Some(Fault::NanPoint { .. } | Fault::Corrupt) | None => {}
    }
    if let Some(reason) = osr_stats::divergence::take() {
        return Err(AttemptError::Diverged(reason));
    }
    Ok(())
}

/// One sweep-free serve attempt over a batch: all work happens in
/// [`CollectiveSession::finish`].
struct BaselineSession<'m> {
    served: &'m ServedBaseline,
    batch: Vec<Vec<f64>>,
}

impl CollectiveSession for BaselineSession<'_> {
    fn sweeps_planned(&self) -> usize {
        0
    }

    fn sweep(&mut self, _rng: &mut StdRng) -> std::result::Result<SweepTrace, AttemptError> {
        Err(AttemptError::Fatal(OsrError::Internal(
            "baseline sessions plan zero sweeps; sweep() must never be called".into(),
        )))
    }

    fn finish(&mut self) -> std::result::Result<ClassifyOutcome, AttemptError> {
        baseline_classify_fault()?;
        let predictions = self.served.model.predict_batch(&self.batch);
        Ok(self.served.outcome(predictions, ServedVia::Warm, 1))
    }
}

impl CollectiveModel for ServedBaseline {
    fn method(&self) -> &'static str {
        self.spec.method()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn capabilities(&self) -> ModelCapabilities {
        ModelCapabilities {
            frozen_fallback: true,
            // Baselines keep no durable checkpoint: the snapshot container
            // persists the HDP posterior, which per-instance methods do not
            // have. An attached SnapshotStore is explicitly unsupported.
            durable_snapshot: false,
        }
    }

    fn fit(&mut self, train: &TrainSet) -> hdp_osr_core::Result<()> {
        *self = ServedBaseline::train(self.spec, train)
            .map_err(|e| OsrError::InvalidTrainingSet(e.to_string()))?;
        Ok(())
    }

    fn warm_session<'s>(
        &'s self,
        batch: &[Vec<f64>],
    ) -> std::result::Result<Box<dyn CollectiveSession + 's>, AttemptError> {
        Ok(Box::new(BaselineSession { served: self, batch: batch.to_vec() }))
    }

    fn classify_frozen(
        &self,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome> {
        // The frozen fallback *is* the normal deterministic prediction; it
        // bypasses the fault site so an injected divergence cannot starve
        // the degraded answer.
        let predictions = self.model.predict_batch(batch);
        Some(self.outcome(predictions, ServedVia::Degraded { reason }, attempts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![cx + 0.5 * rng.gen::<f64>() - 0.25, cy + 0.5 * rng.gen::<f64>() - 0.25]
            })
            .collect()
    }

    fn scenario() -> (TrainSet, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(5);
        let train = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![blob(&mut rng, -5.0, 0.0, 30), blob(&mut rng, 5.0, 0.0, 30)],
        };
        let mut test = blob(&mut rng, -5.0, 0.0, 6);
        test.extend(blob(&mut rng, 0.0, 12.0, 6)); // unknowns
        (train, test)
    }

    #[test]
    fn every_baseline_trains_and_reports_dimensions() {
        let (train, test) = scenario();
        for spec in BaselineSpec::default_lineup() {
            let served = ServedBaseline::train(spec, &train).unwrap();
            assert_eq!(CollectiveModel::dim(&served), 2, "{}", spec.method());
            let caps = served.capabilities();
            assert!(caps.frozen_fallback);
            let mut session = served.warm_session(&test).unwrap();
            assert_eq!(session.sweeps_planned(), 0);
            let outcome = session.finish().unwrap();
            assert_eq!(outcome.predictions.len(), test.len());
            assert_eq!(outcome.method, spec.method());
            assert_eq!(outcome.served_via, ServedVia::Warm);
        }
    }

    #[test]
    fn session_predictions_match_direct_predict_batch() {
        let (train, test) = scenario();
        let spec = BaselineSpec::Osnn(OsnnParams::default());
        let served = ServedBaseline::train(spec, &train).unwrap();
        let direct = served.model.predict_batch(&test);
        let mut session = served.warm_session(&test).unwrap();
        let outcome = session.finish().unwrap();
        assert_eq!(outcome.predictions, direct);
        // The frozen fallback is the same deterministic computation.
        let frozen = served
            .classify_frozen(&test, DegradeReason::RetriesExhausted, 3)
            .unwrap();
        assert_eq!(frozen.predictions, direct);
        assert!(frozen.served_via.is_degraded());
        assert_eq!(frozen.attempts, 3);
    }

    #[test]
    fn outcomes_use_the_degenerate_dish_vocabulary() {
        let (train, test) = scenario();
        let spec = BaselineSpec::Osnn(OsnnParams::default());
        let served = ServedBaseline::train(spec, &train).unwrap();
        let outcome = served.warm_session(&test).unwrap().finish().unwrap();
        let n_classes = train.n_classes();
        for (pred, &dish) in outcome.predictions.iter().zip(&outcome.test_dishes) {
            match pred {
                Prediction::Known(c) => assert_eq!(dish, *c),
                Prediction::Unknown => assert_eq!(dish, n_classes),
            }
        }
        assert_eq!(outcome.report.known.len(), n_classes);
        let total_prop =
            outcome.report.test_known_proportion + outcome.report.test_new_proportion;
        assert!((total_prop - 1.0).abs() < 1e-12);
        assert_eq!(outcome.gamma, 0.0);
        assert_eq!(outcome.log_likelihood, 0.0);
    }

    #[test]
    fn refit_replaces_the_model_in_place() {
        let (train, test) = scenario();
        let spec = BaselineSpec::Osnn(OsnnParams::default());
        let mut served = ServedBaseline::train(spec, &train).unwrap();
        let before = served.model.predict_batch(&test);
        // Refit on a shifted training set: the unknowns become class 0.
        let mut rng = StdRng::seed_from_u64(9);
        let train2 = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![blob(&mut rng, 0.0, 12.0, 30), blob(&mut rng, 5.0, 0.0, 30)],
        };
        CollectiveModel::fit(&mut served, &train2).unwrap();
        let after = served.model.predict_batch(&test);
        assert_ne!(before, after, "refit must change the decision surface");
    }
}
