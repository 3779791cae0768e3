//! The HDP-OSR model: prior construction (fit) and transductive
//! classification of a test batch (classify).

use std::sync::Arc;

use rand::rngs::StdRng;

use osr_dataset::protocol::TrainSet;
use osr_hdp::{HdpConfig, Points, PosteriorSnapshot};
use osr_linalg::Matrix;
use osr_stats::NiwParams;

use crate::collective::{AttemptError, CollectiveModel};
use crate::decision::{ClassifyOutcome, Prediction};
use crate::serving::{sweep_fault_delay, ServingMode, WarmState};
use crate::{OsrError, Result};

/// Configuration of HDP-OSR (§4.1.2 defaults).
#[derive(Debug, Clone, Copy)]
pub struct HdpOsrConfig {
    /// β — the NIW mean pseudo-count κ₀. Paper: 1.
    pub beta: f64,
    /// ν = d + `nu_offset` degrees of freedom for the Wishart part; the
    /// paper selects ν from `{d, d+1, …, d+20}`.
    pub nu_offset: f64,
    /// ρ — scale of Σ₀ relative to the pooled within-class covariance
    /// (Eq. 10); the paper selects ρ from `{0.1, 0.2, …, 1.0}`.
    pub rho: f64,
    /// ϱ — a subclass is dropped from its group's composition when it holds
    /// less than this fraction of the group's items. Paper: 0.01.
    pub varrho: f64,
    /// Gibbs sweeps per classification. Paper: 30.
    pub iterations: usize,
    /// Gamma prior on the top-level concentration γ. Paper: Gamma(100, 1).
    pub gamma_prior: (f64, f64),
    /// Gamma prior on the group-level concentration α₀. Paper: Gamma(10, 1).
    pub alpha_prior: (f64, f64),
    /// Resample the concentrations each sweep.
    pub resample_concentrations: bool,
    /// Number of posterior states the collective decision votes over. `1`
    /// (the paper's behaviour) decides from the final Gibbs state; larger
    /// values run that many *extra* sweeps after burn-in and take a
    /// per-point majority over them — a cheap posterior average that
    /// smooths single-state sampling noise.
    pub decision_sweeps: usize,
    /// How `classify` is served: [`ServingMode::WarmStart`] (default)
    /// amortizes the training burn-in across batches via a posterior
    /// checkpoint; [`ServingMode::ColdStart`] reproduces the original
    /// per-batch transductive re-run.
    pub serving: ServingMode,
    /// Seed of the training-only burn-in under
    /// [`ServingMode::WarmStart`]. Fixed at fit time so the checkpoint (and
    /// hence every subsequent warm decision) is reproducible regardless of
    /// which RNG later serves the batches.
    pub train_seed: u64,
}

impl Default for HdpOsrConfig {
    fn default() -> Self {
        Self {
            beta: 1.0,
            nu_offset: 0.0,
            rho: 4.0,
            varrho: 0.01,
            iterations: 30,
            gamma_prior: (100.0, 1.0),
            alpha_prior: (10.0, 1.0),
            resample_concentrations: true,
            decision_sweeps: 1,
            serving: ServingMode::WarmStart,
            train_seed: 42,
        }
    }
}

impl HdpOsrConfig {
    pub(crate) fn validate(&self) -> Result<()> {
        if !(self.beta > 0.0) {
            return Err(OsrError::InvalidConfig(format!("beta must be > 0, got {}", self.beta)));
        }
        if !(self.nu_offset >= 0.0) {
            return Err(OsrError::InvalidConfig(format!(
                "nu_offset must be ≥ 0, got {}",
                self.nu_offset
            )));
        }
        if !(self.rho > 0.0) {
            return Err(OsrError::InvalidConfig(format!("rho must be > 0, got {}", self.rho)));
        }
        if !(0.0..1.0).contains(&self.varrho) {
            return Err(OsrError::InvalidConfig(format!(
                "varrho must be in [0,1), got {}",
                self.varrho
            )));
        }
        if self.iterations == 0 {
            return Err(OsrError::InvalidConfig("iterations must be ≥ 1".into()));
        }
        if self.decision_sweeps == 0 {
            return Err(OsrError::InvalidConfig("decision_sweeps must be ≥ 1".into()));
        }
        Ok(())
    }

    pub(crate) fn hdp_config(&self) -> HdpConfig {
        HdpConfig {
            gamma_prior: self.gamma_prior,
            alpha_prior: self.alpha_prior,
            resample_concentrations: self.resample_concentrations,
            iterations: self.iterations,
        }
    }
}

/// A fitted HDP-OSR model: the base measure derived from the training data
/// plus the per-class training groups (kept because classification is
/// transductive — train and test are co-clustered).
///
/// Under [`ServingMode::WarmStart`] (the default) fitting also runs the
/// training-only Gibbs burn-in once and checkpoints the converged posterior
/// behind an [`Arc`], so clones of the model and concurrent batch servers
/// share a single copy of the warm state. The training groups are held
/// behind `Arc`s too; a warm model shares them with its checkpoint, so the
/// training points exist once per model, fitted or loaded from a snapshot.
#[derive(Debug, Clone)]
pub struct HdpOsr {
    config: HdpOsrConfig,
    params: NiwParams,
    classes: Vec<Arc<Points>>,
    dim: usize,
    warm: Option<Arc<WarmState>>,
}

impl HdpOsr {
    /// Derive the NIW base measure from the training set (Eq. 9–10): prior
    /// mean = mean of all training samples, prior scale Σ₀ = ρ × pooled
    /// within-class covariance, κ₀ = β, ν = d + `nu_offset`.
    ///
    /// # Errors
    /// Fails on an empty/degenerate training set (including non-finite
    /// features — the same admission standard classification applies) or
    /// invalid configuration. A rank-deficient pooled covariance is repaired
    /// with diagonal jitter.
    pub fn fit(config: &HdpOsrConfig, train: &TrainSet) -> Result<Self> {
        config.validate()?;
        crate::admission::validate_train(train)?;
        let dim = train.dim();

        // μ₀ = mean of the training samples.
        let all: Vec<&[f64]> = train.classes.iter().flatten().map(Vec::as_slice).collect();
        let mu0 = osr_linalg::vector::mean(&all)
            .ok_or_else(|| OsrError::InvalidTrainingSet("no training samples".into()))?;

        // Σ₀ = ρ × pooled within-class covariance (Eq. 10).
        let n_total = all.len();
        let j_minus_1 = train.n_classes();
        let mut pooled = Matrix::zeros(dim, dim);
        for class in &train.classes {
            let refs: Vec<&[f64]> = class.iter().map(Vec::as_slice).collect();
            let cov = Matrix::covariance(&refs, dim);
            pooled.add_scaled((class.len().saturating_sub(1)) as f64, &cov);
        }
        let denom = (n_total as f64 - j_minus_1 as f64).max(1.0);
        pooled.scale_in_place(config.rho / denom);

        let nu = dim as f64 + config.nu_offset;
        let params = build_niw_with_jitter(mu0, config.beta, nu, pooled)?;
        let (classes, warm) = match config.serving {
            ServingMode::WarmStart => {
                let warm = WarmState::build(&params, config, &train.classes)?;
                (warm.snapshot.shared_groups().to_vec(), Some(Arc::new(warm)))
            }
            ServingMode::ColdStart => {
                let classes = train
                    .classes
                    .iter()
                    .enumerate()
                    .map(|(j, c)| Points::from_group(j, dim, c).map(Arc::new))
                    .collect::<osr_hdp::Result<_>>()?;
                (classes, None)
            }
        };
        Ok(Self { config: *config, params, classes, dim, warm })
    }

    /// Feature dimension the model expects.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of known classes.
    pub fn n_classes(&self) -> usize {
        self.classes.len()
    }

    /// The derived base-measure hyperparameters (for inspection/tests).
    pub fn params(&self) -> &NiwParams {
        &self.params
    }

    /// The stored per-class training points, one group per class in class
    /// order: cold serving re-seats them with every batch, and freezing a
    /// run folds each class into its dominant dish. A warm model's groups
    /// are the checkpoint's own ([`PosteriorSnapshot::shared_groups`]), not
    /// copies.
    pub fn classes(&self) -> &[Arc<Points>] {
        &self.classes
    }

    /// The model's configuration.
    pub fn config(&self) -> &HdpOsrConfig {
        &self.config
    }

    /// The converged training checkpoint, when the model was fitted under
    /// [`ServingMode::WarmStart`] (`None` under cold start).
    pub fn snapshot(&self) -> Option<&PosteriorSnapshot> {
        self.warm.as_deref().map(|w| &w.snapshot)
    }

    /// The training burn-in's trace and convergence diagnostics (split-R̂,
    /// effective sample size, burn-in recommendation), when the model was
    /// fitted under [`ServingMode::WarmStart`] (`None` under cold start).
    pub fn fit_report(&self) -> Option<&crate::observability::FitReport> {
        self.warm.as_deref().map(|w| &w.fit_report)
    }

    pub(crate) fn warm(&self) -> Option<&WarmState> {
        self.warm.as_deref()
    }

    /// Reassemble a fitted model from durable-snapshot parts: the decoded
    /// configuration and the rebuilt warm state, whose checkpoint's training
    /// groups the model shares. Used only by [`crate::SnapshotStore`] —
    /// every invariant was revalidated by the snapshot decode path.
    pub(crate) fn from_snapshot_parts(config: HdpOsrConfig, warm: WarmState) -> Self {
        let params = warm.snapshot.params().clone();
        let dim = params.dim();
        let classes = warm.snapshot.shared_groups().to_vec();
        Self { config, params, classes, dim, warm: Some(Arc::new(warm)) }
    }

    /// Classify a test batch; convenience wrapper around
    /// [`classify_detailed`](Self::classify_detailed).
    ///
    /// # Errors
    /// See [`classify_detailed`](Self::classify_detailed).
    pub fn classify(&self, test: &[Vec<f64>], rng: &mut StdRng) -> Result<Vec<Prediction>> {
        Ok(self.classify_detailed(test, rng)?.predictions)
    }

    /// Serve one test batch and return the full collective decision:
    /// predictions, subclass report (Tables 1–2), and sampler diagnostics.
    ///
    /// Under [`ServingMode::WarmStart`] the batch is co-clustered against
    /// the fit-time posterior checkpoint (only the batch is reseated);
    /// under [`ServingMode::ColdStart`] the known classes and the batch are
    /// re-clustered from scratch, exactly as in the paper's protocol.
    ///
    /// This is one watchdogged attempt of the serving ladder's attempt
    /// driver ([`CollectiveModel::classify_collective`]) with no budget,
    /// deadline, retry or degradation: the caller owns the RNG, and a
    /// divergent sweep surfaces as [`OsrError::Diverged`] with `attempts: 1`.
    /// [`crate::BatchServer`] layers those on top of the same driver.
    ///
    /// # Errors
    /// Fails on an empty test batch, dimension mismatches, sampler
    /// construction failure, or divergence.
    pub fn classify_detailed(
        &self,
        test: &[Vec<f64>],
        rng: &mut StdRng,
    ) -> Result<ClassifyOutcome> {
        crate::admission::validate_batch(self.dim, test)?;
        osr_stats::divergence::clear();
        let mut admit = || {
            sweep_fault_delay();
            Ok(())
        };
        let mut outcome = self
            .classify_collective(test, rng, &mut admit, &mut Vec::new())
            .map_err(|e| match e {
                AttemptError::Fatal(err) => err,
                AttemptError::Diverged(reason) => OsrError::Diverged { attempts: 1, reason },
                AttemptError::DeadlineExceeded | AttemptError::BudgetExhausted => {
                    OsrError::Internal("an unbounded attempt reported a resource breach".into())
                }
            })?;
        outcome.trace_id = "adhoc".to_string();
        Ok(outcome)
    }
}

/// Build NIW hyperparameters, repairing a rank-deficient scale matrix with
/// the shared escalating-jitter factorizer (singular pooled covariances
/// happen when a class has fewer points than dimensions).
fn build_niw_with_jitter(
    mu0: Vec<f64>,
    kappa0: f64,
    nu0: f64,
    mut psi0: Matrix,
) -> Result<NiwParams> {
    let (_chol, jitter) = osr_stats::factor_spd_with_jitter(&psi0)
        .map_err(|e| OsrError::Stats(osr_stats::StatsError::Linalg(e)))?;
    if jitter > 0.0 {
        for i in 0..psi0.rows() {
            psi0[(i, i)] += jitter;
        }
    }
    Ok(NiwParams::new(mu0, kappa0, nu0, psi0)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_stats::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize, std: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    cx + std * sampling::standard_normal(rng),
                    cy + std * sampling::standard_normal(rng),
                ]
            })
            .collect()
    }

    /// Two known classes far apart; unknowns in a third location.
    fn scenario(rng: &mut StdRng) -> (TrainSet, Vec<Vec<f64>>, usize) {
        let class0 = blob(rng, -6.0, 0.0, 40, 0.5);
        let class1 = blob(rng, 6.0, 0.0, 40, 0.5);
        let train = TrainSet { class_ids: vec![10, 20], classes: vec![class0, class1] };
        let mut test = blob(rng, -6.0, 0.0, 20, 0.5); // known 0
        test.extend(blob(rng, 6.0, 0.0, 20, 0.5)); // known 1
        test.extend(blob(rng, 0.0, 9.0, 20, 0.5)); // unknown
        (train, test, 40)
    }

    fn fast_config() -> HdpOsrConfig {
        HdpOsrConfig { iterations: 10, ..Default::default() }
    }

    #[test]
    fn classifies_knowns_and_rejects_unknowns() {
        let mut rng = StdRng::seed_from_u64(1);
        let (train, test, n_known_pts) = scenario(&mut rng);
        let model = HdpOsr::fit(&fast_config(), &train).unwrap();
        let preds = model.classify(&test, &mut rng).unwrap();
        assert_eq!(preds.len(), 60);

        let correct0 = preds[..20].iter().filter(|p| **p == Prediction::Known(0)).count();
        let correct1 = preds[20..40].iter().filter(|p| **p == Prediction::Known(1)).count();
        let rejected = preds[n_known_pts..].iter().filter(|p| **p == Prediction::Unknown).count();
        assert!(correct0 >= 18, "class 0 recall {correct0}/20");
        assert!(correct1 >= 18, "class 1 recall {correct1}/20");
        assert!(rejected >= 18, "unknown rejection {rejected}/20");
    }

    #[test]
    fn discovery_report_estimates_one_unknown_class() {
        let mut rng = StdRng::seed_from_u64(2);
        let (train, test, _) = scenario(&mut rng);
        let model = HdpOsr::fit(&fast_config(), &train).unwrap();
        let out = model.classify_detailed(&test, &mut rng).unwrap();
        // Δ is a rough estimate; with unimodal classes it should be small
        // and nonzero.
        assert!(out.report.n_new_subclasses() >= 1, "no new subclasses found");
        assert!(
            (1..=3).contains(&out.report.delta_estimate),
            "Δ = {} out of plausible range",
            out.report.delta_estimate
        );
        // Proportions over surviving subclasses sum to ~1.
        let sum = out.report.test_known_proportion + out.report.test_new_proportion;
        assert!((sum - 1.0).abs() < 1e-9, "proportions sum to {sum}");
        // Roughly a third of the test batch is unknown.
        assert!(out.report.test_new_proportion > 0.15);
        assert!(out.report.test_known_proportion > 0.4);
    }

    #[test]
    fn closed_world_test_finds_no_new_subclasses_worth_reporting() {
        let mut rng = StdRng::seed_from_u64(3);
        let class0 = blob(&mut rng, -5.0, 0.0, 40, 0.5);
        let class1 = blob(&mut rng, 5.0, 0.0, 40, 0.5);
        let train = TrainSet { class_ids: vec![0, 1], classes: vec![class0, class1] };
        let mut test = blob(&mut rng, -5.0, 0.0, 25, 0.5);
        test.extend(blob(&mut rng, 5.0, 0.0, 25, 0.5));
        let model = HdpOsr::fit(&fast_config(), &train).unwrap();
        let out = model.classify_detailed(&test, &mut rng).unwrap();
        assert!(
            out.report.test_new_proportion < 0.1,
            "closed world leaked {:.2}% to new subclasses",
            out.report.test_new_proportion * 100.0
        );
    }

    #[test]
    fn outcome_is_deterministic_under_seed() {
        let mut setup_rng = StdRng::seed_from_u64(4);
        let (train, test, _) = scenario(&mut setup_rng);
        let model = HdpOsr::fit(&fast_config(), &train).unwrap();
        let a = model.classify(&test, &mut StdRng::seed_from_u64(9)).unwrap();
        let b = model.classify(&test, &mut StdRng::seed_from_u64(9)).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fit_derives_paper_prior() {
        let train = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![
                vec![vec![0.0, 0.0], vec![2.0, 0.0]],
                vec![vec![10.0, 4.0], vec![12.0, 4.0]],
            ],
        };
        let model = HdpOsr::fit(&HdpOsrConfig::default(), &train).unwrap();
        // μ₀ = grand mean = (6, 2).
        assert_eq!(model.params().mu0, vec![6.0, 2.0]);
        assert_eq!(model.params().kappa0, 1.0);
        assert_eq!(model.params().nu0, 2.0); // d + nu_offset (default 0)
        assert_eq!(model.n_classes(), 2);
        assert_eq!(model.dim(), 2);
    }

    #[test]
    fn fit_survives_rank_deficient_covariance() {
        // Two points per class in 3-d: pooled covariance is rank ≤ 2.
        let train = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![
                vec![vec![0.0, 0.0, 0.0], vec![1.0, 0.0, 0.0]],
                vec![vec![5.0, 5.0, 5.0], vec![6.0, 5.0, 5.0]],
            ],
        };
        let model = HdpOsr::fit(&HdpOsrConfig::default(), &train);
        assert!(model.is_ok(), "jitter should repair singular Σ₀: {model:?}");
    }

    #[test]
    fn rejects_bad_inputs() {
        let train = TrainSet { class_ids: vec![], classes: vec![] };
        assert!(HdpOsr::fit(&HdpOsrConfig::default(), &train).is_err());

        let train = TrainSet {
            class_ids: vec![0],
            classes: vec![vec![vec![0.0, 0.0], vec![1.0, 1.0]]],
        };
        let bad = HdpOsrConfig { rho: 0.0, ..Default::default() };
        assert!(HdpOsr::fit(&bad, &train).is_err());
        let bad = HdpOsrConfig { iterations: 0, ..Default::default() };
        assert!(HdpOsr::fit(&bad, &train).is_err());
        let bad = HdpOsrConfig { varrho: 1.0, ..Default::default() };
        assert!(HdpOsr::fit(&bad, &train).is_err());

        let model = HdpOsr::fit(&fast_config(), &train).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(model.classify(&[], &mut rng).is_err());
        assert!(model.classify(&[vec![0.0]], &mut rng).is_err());
    }

    #[test]
    fn fit_rejects_non_finite_training_features() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let train = TrainSet {
                class_ids: vec![0, 1],
                classes: vec![
                    vec![vec![0.0, 0.0], vec![1.0, 1.0]],
                    vec![vec![5.0, 5.0], vec![bad, 5.0]],
                ],
            };
            assert!(
                matches!(
                    HdpOsr::fit(&HdpOsrConfig::default(), &train),
                    Err(OsrError::InvalidTrainingSet(_))
                ),
                "training value {bad} must be rejected at fit time"
            );
        }
    }

    #[test]
    fn consensus_decision_matches_single_state_on_easy_data() {
        let mut rng = StdRng::seed_from_u64(8);
        let (train, test, _) = scenario(&mut rng);
        let single = HdpOsrConfig { iterations: 8, decision_sweeps: 1, ..Default::default() };
        let voted = HdpOsrConfig { iterations: 8, decision_sweeps: 5, ..Default::default() };
        let m1 = HdpOsr::fit(&single, &train).unwrap();
        let m2 = HdpOsr::fit(&voted, &train).unwrap();
        let p1 = m1.classify(&test, &mut StdRng::seed_from_u64(3)).unwrap();
        let p2 = m2.classify(&test, &mut StdRng::seed_from_u64(3)).unwrap();
        // On a trivially separated scene both decide (almost) identically.
        let agree = p1.iter().zip(&p2).filter(|(a, b)| a == b).count();
        assert!(agree * 10 >= p1.len() * 9, "voting changed {} of {}", p1.len() - agree, p1.len());
        // And the voted run is still accurate.
        let correct = p2[..20].iter().filter(|p| **p == Prediction::Known(0)).count();
        assert!(correct >= 18);
    }

    #[test]
    fn zero_decision_sweeps_is_rejected() {
        let train = TrainSet {
            class_ids: vec![0],
            classes: vec![vec![vec![0.0, 0.0], vec![1.0, 1.0]]],
        };
        let bad = HdpOsrConfig { decision_sweeps: 0, ..Default::default() };
        assert!(HdpOsr::fit(&bad, &train).is_err());
    }

    #[test]
    fn multimodal_class_yields_multiple_subclasses() {
        let mut rng = StdRng::seed_from_u64(5);
        // One known class with two distinct modes.
        let mut class0 = blob(&mut rng, -4.0, 0.0, 30, 0.4);
        class0.extend(blob(&mut rng, 4.0, 0.0, 30, 0.4));
        let class1 = blob(&mut rng, 0.0, 8.0, 30, 0.4);
        let train = TrainSet { class_ids: vec![0, 1], classes: vec![class0, class1] };
        let test = blob(&mut rng, -4.0, 0.0, 10, 0.4);
        let model = HdpOsr::fit(&fast_config(), &train).unwrap();
        let out = model.classify_detailed(&test, &mut rng).unwrap();
        assert!(
            out.report.known[0].n_subclasses() >= 2,
            "bimodal class modeled with {} subclass(es)",
            out.report.known[0].n_subclasses()
        );
        // All test points come from class 0's left mode.
        let correct =
            out.predictions.iter().filter(|p| **p == Prediction::Known(0)).count();
        assert!(correct >= 9, "recall {correct}/10");
    }
}
