//! Uniform wrapper over HDP-OSR and the five baselines, so the experiment
//! runner and the tuning phase can treat every method identically:
//! `spec + training set + test points → predictions`.
//!
//! Every method — CD-OSR *and* the per-instance baselines — is trained into
//! a boxed [`CollectiveModel`] and served through the production
//! [`BatchServer`], so the Figures 4–9 replication exercises the same
//! admission/retry/degrade pipeline that production traffic does.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use hdp_osr_core::{derive_batch_seed, BatchServer, CollectiveModel, HdpOsr, HdpOsrConfig};
use osr_baselines::{BaselineSpec, ServedBaseline};
use osr_dataset::protocol::{Prediction, TrainSet};

use crate::{EvalError, Result};

/// A fully parameterized method, ready to train.
#[derive(Debug, Clone, Copy)]
pub enum MethodSpec {
    /// The paper's contribution.
    HdpOsr(HdpOsrConfig),
    /// One of the five baselines.
    Baseline(BaselineSpec),
}

impl MethodSpec {
    /// Method name as used in the paper's figures.
    pub fn name(&self) -> &'static str {
        match self {
            Self::HdpOsr(_) => "HDP-OSR",
            Self::Baseline(spec) => spec.name(),
        }
    }

    /// Train this specification into a boxed [`CollectiveModel`] ready for
    /// a [`BatchServer`].
    ///
    /// # Errors
    /// Wraps any training failure with the method name.
    pub fn fit_collective(&self, train: &TrainSet) -> Result<Box<dyn CollectiveModel>> {
        let wrap = |e: String| EvalError::Method(format!("{}: {e}", self.name()));
        match self {
            Self::HdpOsr(cfg) => {
                Ok(Box::new(HdpOsr::fit(cfg, train).map_err(|e| wrap(e.to_string()))?))
            }
            Self::Baseline(spec) => {
                Ok(Box::new(ServedBaseline::train(*spec, train).map_err(|e| wrap(e.to_string()))?))
            }
        }
    }

    /// Train on `train` and classify every point of `test`: [`fit_collective`]
    /// then [`serve`].
    ///
    /// [`fit_collective`]: Self::fit_collective
    /// [`serve`]: Self::serve
    ///
    /// # Errors
    /// Wraps any training or serving failure with the method name.
    pub fn train_and_predict<R: Rng + ?Sized>(
        &self,
        train: &TrainSet,
        test: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<Vec<Prediction>> {
        let model = self.fit_collective(train)?;
        self.serve(model.as_ref(), test, rng)
    }

    /// Classify every point of `test` with `model` (fitted from this
    /// specification) through the production [`BatchServer`] (single
    /// worker, one batch). Serving reads the model and never changes it, so
    /// one fit can serve several test sets.
    ///
    /// The RNG seeds the server (one draw per non-empty `test`); only
    /// HDP-OSR actually consumes randomness (Gibbs sampling) — the
    /// baselines are deterministic given the data, and fitting draws none.
    /// Seeding is the caller's responsibility so trials stay reproducible.
    ///
    /// # Errors
    /// Wraps any serving failure with the method name.
    pub fn serve<R: Rng + ?Sized>(
        &self,
        model: &dyn CollectiveModel,
        test: &[Vec<f64>],
        rng: &mut R,
    ) -> Result<Vec<Prediction>> {
        let wrap = |e: String| EvalError::Method(format!("{}: {e}", self.name()));
        if test.is_empty() {
            // The server's admission control rejects empty batches; an empty
            // test set is a valid no-op for an evaluation trial.
            return Ok(Vec::new());
        }
        let server = BatchServer::with_workers(model, 1);
        let mut results = server.classify_batches(&[test.to_vec()], rng.next_u64());
        match results.pop() {
            Some(Ok(outcome)) => Ok(outcome.predictions),
            Some(Err(e)) => Err(wrap(e.to_string())),
            None => Err(wrap("server returned no result for the test batch".into())),
        }
    }

    /// Deterministic helper: seed a fresh RNG with
    /// [`derive_batch_seed`]`(seed, trial)` and run
    /// [`train_and_predict`](Self::train_and_predict) with it.
    ///
    /// # Errors
    /// Propagates training failures.
    pub fn run_trial(
        &self,
        train: &TrainSet,
        test: &[Vec<f64>],
        seed: u64,
        trial: usize,
    ) -> Result<Vec<Prediction>> {
        let mut rng = StdRng::seed_from_u64(derive_batch_seed(seed, trial));
        self.train_and_predict(train, test, &mut rng)
    }

    /// The default specification of every method in the paper's comparison,
    /// in figure-legend order.
    pub fn paper_lineup() -> Vec<MethodSpec> {
        let baselines = BaselineSpec::default_lineup().into_iter().map(Self::Baseline);
        baselines.chain([Self::HdpOsr(HdpOsrConfig::default())]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_baselines::OsnnParams;
    use osr_stats::sampling;

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

    fn scenario() -> (TrainSet, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(1);
        let train = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![blob(&mut rng, -5.0, 0.0, 40), blob(&mut rng, 5.0, 0.0, 40)],
        };
        let mut test = blob(&mut rng, -5.0, 0.0, 5);
        test.extend(blob(&mut rng, 0.0, 12.0, 5)); // unknowns
        (train, test)
    }

    #[test]
    fn every_method_trains_and_predicts() {
        let (train, test) = scenario();
        for spec in MethodSpec::paper_lineup() {
            // Shrink HDP-OSR iterations for test speed.
            let spec = match spec {
                MethodSpec::HdpOsr(mut cfg) => {
                    cfg.iterations = 5;
                    MethodSpec::HdpOsr(cfg)
                }
                other => other,
            };
            let preds = spec.run_trial(&train, &test, 7, 0).unwrap();
            assert_eq!(preds.len(), test.len(), "{} returned wrong count", spec.name());
        }
    }

    #[test]
    fn lineup_names_match_figure_legends() {
        let names: Vec<&str> = MethodSpec::paper_lineup().iter().map(|s| s.name()).collect();
        assert_eq!(names, vec!["1-vs-Set", "W-OSVM", "W-SVM", "PI-SVM", "OSNN", "HDP-OSR"]);
    }

    #[test]
    fn run_trial_is_deterministic() {
        let (train, test) = scenario();
        let cfg = HdpOsrConfig { iterations: 3, ..Default::default() };
        let spec = MethodSpec::HdpOsr(cfg);
        let a = spec.run_trial(&train, &test, 42, 3).unwrap();
        let b = spec.run_trial(&train, &test, 42, 3).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn failures_carry_the_method_name() {
        let empty = TrainSet { class_ids: vec![], classes: vec![] };
        let err = MethodSpec::Baseline(BaselineSpec::Osnn(OsnnParams::default()))
            .run_trial(&empty, &[], 0, 0)
            .unwrap_err();
        assert!(matches!(err, EvalError::Method(ref m) if m.starts_with("OSNN")));
    }
}
