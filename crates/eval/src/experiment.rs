//! The end-to-end experiment runner (paper §4.1.1 steps 1–8).
//!
//! For each method: tune once on a validation split carved from a first
//! training set (step 7), then evaluate the winning parameterization on
//! `trials` freshly randomized train/test splits (step 8; the paper uses
//! 10), reporting mean ± std of micro-F-measure and open-set accuracy —
//! the exact series plotted in Figs. 4–9. Trials run in parallel on core's
//! [`fan_out`] executor; every trial derives its own RNG from
//! `(seed, trial)`, so results are reproducible regardless of thread
//! scheduling. Every trial — CD-OSR and baseline alike — classifies
//! through the production `BatchServer` (see [`MethodSpec`]), so the
//! replication exercises the same serving stack as production traffic.

use rand::rngs::StdRng;
use rand::SeedableRng;

use hdp_osr_core::fan_out;
use osr_dataset::protocol::{GroundTruth, OpenSetSplit, Prediction, SplitConfig, ValidationSplit};
use osr_dataset::Dataset;
use osr_stats::descriptive::MeanStd;

use crate::methods::MethodSpec;
use crate::metrics::OpenSetConfusion;
use crate::tuning::tune_method;
use crate::{EvalError, Result};

/// Runner configuration.
#[derive(Debug, Clone, Copy)]
pub struct ExperimentConfig {
    /// Open-set split shape (known/unknown class counts, train fraction).
    pub split: SplitConfig,
    /// Number of randomized evaluation splits (paper: 10).
    pub trials: usize,
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Run the validation-tuning phase (step 7). When false the *first*
    /// candidate of each method is used as-is.
    pub tune: bool,
}

impl ExperimentConfig {
    /// Paper defaults: 10 trials, tuning on.
    pub fn new(split: SplitConfig, seed: u64) -> Self {
        Self { split, trials: 10, seed, tune: true }
    }
}

/// Aggregated result of one method at one openness.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// Method name (figure legend).
    pub method: String,
    /// Openness of the evaluated problem.
    pub openness: f64,
    /// Micro-F-measure over trials.
    pub f_measure: MeanStd,
    /// Open-set recognition accuracy over trials.
    pub accuracy: MeanStd,
    /// One outcome per evaluation trial, in trial order.
    pub outcomes: Vec<TrialOutcome>,
    /// The specification that produced these numbers (post-tuning).
    pub spec: MethodSpec,
}

/// Per-trial raw scores (exposed for tests and detailed reports).
#[derive(Debug, Clone)]
pub struct TrialScores {
    /// One outcome per trial.
    pub outcomes: Vec<TrialOutcome>,
}

impl TrialScores {
    /// One F-measure per trial, from its confusion.
    pub fn f_measures(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.confusion.f_measure()).collect()
    }

    /// One accuracy per trial, from its confusion.
    pub fn accuracies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.confusion.accuracy()).collect()
    }
}

/// One trial's open-set outcome: its pooled confusion, plus the two ways an
/// open-set decision fails that the confusion pools with other errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialOutcome {
    /// The trial's confusion; its F-measure and accuracy are the trial's.
    pub confusion: OpenSetConfusion,
    /// Unknown test points accepted as some known class (part of `fp`).
    pub unknowns_accepted: usize,
    /// Known test points predicted Unknown (part of `fn_`).
    pub knowns_rejected: usize,
}

impl TrialOutcome {
    /// Score one trial's predictions against its ground truth.
    fn score(preds: &[Prediction], truth: &[GroundTruth]) -> Self {
        let confusion = OpenSetConfusion::from_slices(preds, truth);
        let (mut unknowns_accepted, mut knowns_rejected) = (0, 0);
        for pair in preds.iter().zip(truth) {
            match pair {
                (Prediction::Known(_), GroundTruth::Unknown) => unknowns_accepted += 1,
                (Prediction::Unknown, GroundTruth::Known(_)) => knowns_rejected += 1,
                _ => {}
            }
        }
        Self { confusion, unknowns_accepted, knowns_rejected }
    }
}

/// Tune (optionally) and evaluate one method family.
///
/// # Errors
/// Propagates split-construction and method failures.
pub fn run_method(
    data: &Dataset,
    config: &ExperimentConfig,
    candidates: &[MethodSpec],
) -> Result<MethodResult> {
    if config.trials == 0 {
        return Err(EvalError::InvalidConfig("trials must be ≥ 1".into()));
    }
    if candidates.is_empty() {
        return Err(EvalError::InvalidConfig("no candidates".into()));
    }

    // Step 7: parameter optimization on a validation split.
    let spec = if config.tune && candidates.len() > 1 {
        let mut rng = StdRng::seed_from_u64(config.seed);
        let split = OpenSetSplit::sample(data, &config.split, &mut rng)?;
        let val = ValidationSplit::sample(&split.train, &mut rng)?;
        tune_method(candidates, &val, config.seed)?.spec
    } else {
        candidates[0]
    };

    // Step 8: evaluate on `trials` randomized splits.
    let scores = run_trials(data, config, &spec)?;
    Ok(MethodResult {
        method: spec.name().to_string(),
        openness: config.split.openness(),
        f_measure: MeanStd::from_values(&scores.f_measures()),
        accuracy: MeanStd::from_values(&scores.accuracies()),
        outcomes: scores.outcomes,
        spec,
    })
}

/// Evaluate a fixed specification on `config.trials` randomized splits,
/// one worker per available CPU (at most one per trial).
///
/// # Errors
/// Rejects `config.trials == 0`, which has no scores to aggregate.
/// Propagates the first trial failure; a trial that panics fails as an
/// [`EvalError::Method`] naming the trial.
pub fn run_trials(
    data: &Dataset,
    config: &ExperimentConfig,
    spec: &MethodSpec,
) -> Result<TrialScores> {
    if config.trials == 0 {
        return Err(EvalError::InvalidConfig("trials must be ≥ 1".into()));
    }
    let workers = std::thread::available_parallelism().map_or(4, |n| n.get()).min(config.trials);
    run_trials_on(data, config, spec, workers)
}

/// [`run_trials`] on exactly `workers` threads of core's [`fan_out`]
/// executor. Every trial derives its RNG from `(seed, trial)`, so the
/// scores do not depend on `workers`.
fn run_trials_on(
    data: &Dataset,
    config: &ExperimentConfig,
    spec: &MethodSpec,
    workers: usize,
) -> Result<TrialScores> {
    let trials: Vec<usize> = (0..config.trials).collect();
    let results = fan_out(&trials, workers, |_, &trial| -> Result<TrialOutcome> {
        // Trial seeds are disjoint from the tuning seed by construction.
        let mut rng =
            StdRng::seed_from_u64(config.seed.wrapping_add(0x5DEECE66D + trial as u64 * 0x2545F4914F6CDD1D));
        let split = OpenSetSplit::sample(data, &config.split, &mut rng)?;
        let preds = spec.train_and_predict(&split.train, &split.test.points, &mut rng)?;
        Ok(TrialOutcome::score(&preds, &split.test.truth))
    });

    let outcomes = results
        .into_iter()
        .enumerate()
        .map(|(trial, r)| {
            r.unwrap_or_else(|panic| {
                Err(EvalError::Method(format!("{}: trial {trial} panicked: {panic}", spec.name())))
            })
        })
        .collect::<Result<Vec<_>>>()?;
    Ok(TrialScores { outcomes })
}

/// Run a full openness sweep: for each unknown-class count, tune + evaluate
/// every method family. Returns one row per (openness, method) — the data
/// behind one of the paper's figures.
///
/// # Errors
/// Propagates the first failure.
pub fn openness_sweep(
    data: &Dataset,
    n_known: usize,
    unknown_counts: &[usize],
    trials: usize,
    seed: u64,
    tune: bool,
    families: &[Vec<MethodSpec>],
) -> Result<Vec<MethodResult>> {
    let mut rows = Vec::new();
    for &n_unknown in unknown_counts {
        let config = ExperimentConfig {
            split: SplitConfig::new(n_known, n_unknown),
            trials,
            seed,
            tune,
        };
        for family in families {
            rows.push(run_method(data, &config, family)?);
        }
    }
    Ok(rows)
}

/// Render a slice of results as an aligned TSV table (openness ascending,
/// then method).
pub fn to_tsv(rows: &[MethodResult]) -> String {
    use std::fmt::Write;
    let mut out = String::from("method\topenness\tf_measure\tf_std\taccuracy\tacc_std\ttrials\n");
    for r in rows {
        let _ = writeln!(
            out,
            "{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{}",
            r.method,
            r.openness,
            r.f_measure.mean,
            r.f_measure.std,
            r.accuracy.mean,
            r.accuracy.std,
            r.f_measure.n
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::MethodSpec;
    use osr_baselines::{BaselineSpec, OsnnParams};
    use osr_dataset::synthetic;

    fn small_data() -> Dataset {
        let mut rng = StdRng::seed_from_u64(10);
        synthetic::pendigits_config().scaled(0.03).generate(&mut rng)
    }

    fn osnn(sigma: f64) -> MethodSpec {
        MethodSpec::Baseline(BaselineSpec::Osnn(OsnnParams { sigma }))
    }

    fn osnn_family() -> Vec<MethodSpec> {
        vec![osnn(0.5), osnn(0.8)]
    }

    #[test]
    fn run_method_produces_sane_aggregates() {
        let data = small_data();
        let config = ExperimentConfig {
            split: SplitConfig::new(4, 2),
            trials: 4,
            seed: 7,
            tune: true,
        };
        let r = run_method(&data, &config, &osnn_family()).unwrap();
        assert_eq!(r.method, "OSNN");
        assert_eq!(r.f_measure.n, 4);
        assert!((0.0..=1.0).contains(&r.f_measure.mean), "F = {}", r.f_measure.mean);
        assert!((0.0..=1.0).contains(&r.accuracy.mean));
        assert!(r.openness > 0.0);
    }

    #[test]
    fn parallel_and_serial_trials_agree() {
        let data = small_data();
        let base = ExperimentConfig {
            split: SplitConfig::new(4, 1),
            trials: 3,
            seed: 21,
            tune: false,
        };
        let spec = osnn(0.7);
        let par = run_trials_on(&data, &base, &spec, 3).unwrap();
        let ser = run_trials_on(&data, &base, &spec, 1).unwrap();
        assert_eq!(par.f_measures(), ser.f_measures());
        assert_eq!(par.accuracies(), ser.accuracies());
        assert_eq!(par.outcomes, ser.outcomes);
        assert_eq!(par.outcomes.len(), base.trials);
        // Each trial's confusion gives back that trial's scores, and the two
        // open-set failure counts are parts of its pooled fp and fn_.
        let (fs, accs) = (par.f_measures(), par.accuracies());
        for ((outcome, &f), &a) in par.outcomes.iter().zip(&fs).zip(&accs) {
            let c = outcome.confusion;
            assert_eq!(c.f_measure().to_bits(), f.to_bits());
            assert_eq!(c.accuracy().to_bits(), a.to_bits());
            assert!(outcome.unknowns_accepted <= c.fp, "{outcome:?}");
            assert!(outcome.knowns_rejected <= c.fn_, "{outcome:?}");
        }
    }

    #[test]
    fn runs_are_reproducible_under_seed() {
        let data = small_data();
        let config = ExperimentConfig {
            split: SplitConfig::new(4, 2),
            trials: 3,
            seed: 5,
            tune: false,
        };
        let spec = osnn(0.7);
        let a = run_trials(&data, &config, &spec).unwrap();
        let b = run_trials(&data, &config, &spec).unwrap();
        assert_eq!(a.f_measures(), b.f_measures());
    }

    #[test]
    fn openness_sweep_orders_rows() {
        let data = small_data();
        let rows = openness_sweep(&data, 4, &[0, 2], 2, 3, false, &[osnn_family()]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].openness, 0.0);
        assert!(rows[1].openness > 0.0);
    }

    #[test]
    fn closed_set_beats_open_set_for_osnn_family() {
        // Openness should not make the problem EASIER for a fixed method.
        let data = small_data();
        let rows = openness_sweep(&data, 4, &[0, 4], 3, 11, false, &[vec![osnn(0.9)]]).unwrap();
        assert!(
            rows[0].f_measure.mean >= rows[1].f_measure.mean - 0.05,
            "closed {:.3} vs open {:.3}",
            rows[0].f_measure.mean,
            rows[1].f_measure.mean
        );
    }

    #[test]
    fn tsv_rendering_contains_all_rows() {
        let data = small_data();
        let rows = openness_sweep(&data, 4, &[1], 2, 3, false, &[osnn_family()]).unwrap();
        let tsv = to_tsv(&rows);
        assert!(tsv.starts_with("method\topenness"));
        assert_eq!(tsv.lines().count(), 2);
        assert!(tsv.contains("OSNN"));
    }

    #[test]
    fn zero_trials_is_rejected() {
        let data = small_data();
        let config = ExperimentConfig {
            split: SplitConfig::new(4, 0),
            trials: 0,
            seed: 0,
            tune: false,
        };
        assert!(run_method(&data, &config, &osnn_family()).is_err());
        assert!(matches!(
            run_trials(&data, &config, &osnn_family()[0]),
            Err(EvalError::InvalidConfig(_))
        ));
    }
}
