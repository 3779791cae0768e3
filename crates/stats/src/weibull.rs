//! Weibull distribution and maximum-likelihood tail fitting — the statistical
//! extreme-value-theory (EVT) machinery behind the W-SVM, W-OSVM and P_I-SVM
//! baselines (Scheirer et al. 2014, Jain et al. 2014).
//!
//! All three methods calibrate raw SVM decision scores into posterior-like
//! probabilities by fitting a Weibull to a *tail* of training scores:
//! the Fisher–Tippett theorem says the minima/maxima of i.i.d. samples
//! converge to a generalized extreme value distribution, and for bounded
//! tails that is the Weibull family.

use crate::{Result, StatsError};

/// Two-parameter Weibull distribution with shape `k > 0` and scale
/// `lambda > 0`, supported on `x ≥ 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    /// Shape parameter `k`.
    pub shape: f64,
    /// Scale parameter `λ`.
    pub scale: f64,
}

impl Weibull {
    /// Construct with validation.
    ///
    /// # Errors
    /// Rejects non-positive or non-finite parameters.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        if !(shape > 0.0 && shape.is_finite()) {
            return Err(StatsError::InvalidParameter(format!("shape must be > 0, got {shape}")));
        }
        if !(scale > 0.0 && scale.is_finite()) {
            return Err(StatsError::InvalidParameter(format!("scale must be > 0, got {scale}")));
        }
        Ok(Self { shape, scale })
    }

    /// Cumulative distribution function `F(x) = 1 − exp(−(x/λ)^k)` (0 for
    /// `x ≤ 0`).
    pub fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        1.0 - (-(x / self.scale).powf(self.shape)).exp()
    }

    /// Survival function `1 − F(x)`.
    pub fn sf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 1.0;
        }
        (-(x / self.scale).powf(self.shape)).exp()
    }

    /// Quantile function (inverse CDF) for `p ∈ (0, 1)`.
    ///
    /// # Panics
    /// Panics for `p` outside `(0, 1)`.
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..1.0).contains(&p) && p > 0.0, "quantile: p must be in (0,1), got {p}");
        self.scale * (-(1.0 - p).ln()).powf(1.0 / self.shape)
    }

    /// Distribution mean `λ Γ(1 + 1/k)`.
    pub fn mean(&self) -> f64 {
        self.scale * crate::special::ln_gamma(1.0 + 1.0 / self.shape).exp()
    }

    /// Maximum-likelihood fit to strictly positive observations.
    ///
    /// Solves the profile-likelihood equation for the shape with a
    /// safeguarded Newton iteration (bisection fallback), then recovers the
    /// scale in closed form. This is the `fit` every EVT-calibrated baseline
    /// calls on its score tails.
    ///
    /// # Errors
    /// * [`StatsError::NotEnoughData`] with fewer than 2 observations,
    /// * [`StatsError::InvalidParameter`] if any observation is `≤ 0` or
    ///   non-finite, or all observations are identical (shape diverges),
    /// * [`StatsError::NoConvergence`] if the iteration stalls (pathological
    ///   inputs only).
    pub fn fit_mle(data: &[f64]) -> Result<Self> {
        if data.len() < 2 {
            return Err(StatsError::NotEnoughData { needed: 2, got: data.len() });
        }
        if data.iter().any(|&x| !(x > 0.0) || !x.is_finite()) {
            return Err(StatsError::InvalidParameter(
                "Weibull fit requires strictly positive finite data".into(),
            ));
        }
        let n = data.len() as f64;
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        if (max - min) / max < 1e-12 {
            return Err(StatsError::InvalidParameter(
                "Weibull fit is degenerate on constant data".into(),
            ));
        }
        let mean_ln: f64 = data.iter().map(|x| x.ln()).sum::<f64>() / n;

        // g(k) = Σ x^k ln x / Σ x^k − 1/k − mean(ln x); root in k is the MLE.
        let g = |k: f64| -> f64 {
            let mut sxk = 0.0;
            let mut sxklnx = 0.0;
            for &x in data {
                let xk = x.powf(k);
                sxk += xk;
                sxklnx += xk * x.ln();
            }
            sxklnx / sxk - 1.0 / k - mean_ln
        };

        // Bracket the root: g is increasing in k; g(k→0⁺) → −∞,
        // g(k→∞) → ln max − mean_ln > 0.
        let mut lo = 1e-3;
        let mut hi = 1.0;
        while g(hi) < 0.0 && hi < 1e4 {
            lo = hi;
            hi *= 2.0;
        }
        if g(hi) < 0.0 {
            return Err(StatsError::NoConvergence("Weibull shape bracket failed".into()));
        }
        // Bisection — robust, and 60 iterations give ~1e-18 relative width.
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if g(mid) < 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
            if (hi - lo) / hi < 1e-12 {
                break;
            }
        }
        let k = 0.5 * (lo + hi);
        let scale = (data.iter().map(|x| x.powf(k)).sum::<f64>() / n).powf(1.0 / k);
        Self::new(k, scale)
    }
}

/// Direction of the tail handed to [`WeibullFit::fit_tail`]: whether small or
/// large scores are "extreme".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TailSide {
    /// Fit the *low* end — used for the positive-class inclusion model
    /// (scores of positives closest to the decision boundary).
    Low,
    /// Fit the *high* end — used for the reverse-Weibull rejection model on
    /// negative scores.
    High,
}

/// An EVT score calibrator: a Weibull fitted to a shifted tail of raw scores,
/// exposing probabilities over the original score axis. Both sides produce a
/// probability that is monotonically **increasing** in the score:
///
/// * [`TailSide::Low`] — *inclusion* model: fitted on the low tail of a
///   **positive** population's scores (the positives nearest the decision
///   boundary). `probability(s)` ≈ 0 well below the tail and → 1 inside the
///   population. This is P_I-SVM's probability of inclusion and W-SVM's
///   positive CAP model P_η.
/// * [`TailSide::High`] — *exceedance* (reverse-Weibull) model: fitted on
///   the high tail of a **negative** population's scores. `probability(s)`
///   ≈ 0 inside the negative bulk and → 1 for scores beyond its maximum,
///   i.e. the probability that `s` no longer looks negative. This is
///   W-SVM's reverse-Weibull model P_ψ for the negative classes.
#[derive(Debug, Clone)]
pub struct WeibullFit {
    weibull: Weibull,
    /// Offset subtracted from raw scores before the Weibull is applied.
    shift: f64,
    side: TailSide,
}

impl WeibullFit {
    /// Fit the extreme `tail_fraction` of `scores` (at least `min_tail`
    /// points, all of them if fewer are available).
    ///
    /// For [`TailSide::Low`] the tail is the smallest scores; each tail score
    /// `s` enters the Weibull as `s − m + ε` where `m` is the tail minimum,
    /// so calibrated probability rises from ~0 at the extreme inward. For
    /// [`TailSide::High`] scores are negated first (the classic
    /// reverse-Weibull trick) and the survival function is used, so the
    /// probability rises from ~0 inside the population to 1 beyond its
    /// maximum.
    ///
    /// # Errors
    /// Propagates [`Weibull::fit_mle`] failures (too little or degenerate
    /// data).
    pub fn fit_tail(
        scores: &[f64],
        side: TailSide,
        tail_fraction: f64,
        min_tail: usize,
    ) -> Result<Self> {
        if scores.len() < 2 {
            return Err(StatsError::NotEnoughData { needed: 2, got: scores.len() });
        }
        assert!(
            (0.0..=1.0).contains(&tail_fraction),
            "tail_fraction must be in [0, 1], got {tail_fraction}"
        );
        let mut s: Vec<f64> = match side {
            TailSide::Low => scores.to_vec(),
            TailSide::High => scores.iter().map(|x| -x).collect(),
        };
        s.sort_by(|a, b| a.partial_cmp(b).expect("scores must not contain NaN"));
        let want = ((scores.len() as f64 * tail_fraction).ceil() as usize)
            .max(min_tail)
            .min(scores.len());
        let tail = &s[..want];
        let m = tail[0];
        let spread = (tail[want - 1] - m).max(1e-9);
        let eps = 1e-3 * spread;
        let shifted: Vec<f64> = tail.iter().map(|x| x - m + eps).collect();
        let weibull = Weibull::fit_mle(&shifted)?;
        Ok(Self { weibull, shift: m - eps, side })
    }

    /// Calibrated probability for a raw score (increasing in the score on
    /// both sides; see the type-level docs for the two interpretations).
    ///
    /// * [`TailSide::Low`]: `F(s − shift)`,
    /// * [`TailSide::High`]: `1 − F(−s − shift)`.
    pub fn probability(&self, score: f64) -> f64 {
        match self.side {
            TailSide::Low => self.weibull.cdf(score - self.shift),
            TailSide::High => self.weibull.sf(-score - self.shift),
        }
    }

    /// The fitted Weibull (for reports and tests).
    pub fn weibull(&self) -> &Weibull {
        &self.weibull
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampling;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_weibull<R: Rng>(rng: &mut R, w: &Weibull, n: usize) -> Vec<f64> {
        (0..n).map(|_| w.quantile(rng.gen_range(1e-12..1.0))).collect()
    }

    #[test]
    fn cdf_pdf_quantile_consistency() {
        let w = Weibull::new(1.7, 2.3).unwrap();
        for &p in &[0.01, 0.25, 0.5, 0.9, 0.999] {
            let x = w.quantile(p);
            assert!((w.cdf(x) - p).abs() < 1e-12, "quantile/cdf roundtrip at p={p}");
        }
        // The cdf's derivative is the Weibull density (k/λ)(x/λ)^(k−1) e^(−(x/λ)^k).
        let x = 1.4;
        let h = 1e-6;
        let num = (w.cdf(x + h) - w.cdf(x - h)) / (2.0 * h);
        let z = x / w.scale;
        let pdf = (w.shape / w.scale) * z.powf(w.shape - 1.0) * (-z.powf(w.shape)).exp();
        assert!((pdf - num).abs() < 1e-6);
    }

    #[test]
    fn exponential_special_case() {
        // k = 1 is Exp(1/λ): F(x) = 1 − e^{−x/λ}.
        let w = Weibull::new(1.0, 2.0).unwrap();
        assert!((w.cdf(2.0) - (1.0 - (-1.0f64).exp())).abs() < 1e-14);
        assert!((w.mean() - 2.0).abs() < 1e-10);
    }

    #[test]
    fn mle_recovers_true_parameters() {
        let mut rng = StdRng::seed_from_u64(31);
        let truth = Weibull::new(2.5, 1.8).unwrap();
        let data = sample_weibull(&mut rng, &truth, 8000);
        let fit = Weibull::fit_mle(&data).unwrap();
        assert!((fit.shape - truth.shape).abs() < 0.12, "shape {:.3}", fit.shape);
        assert!((fit.scale - truth.scale).abs() < 0.05, "scale {:.3}", fit.scale);
    }

    #[test]
    fn mle_recovers_sub_one_shape() {
        let mut rng = StdRng::seed_from_u64(77);
        let truth = Weibull::new(0.7, 3.0).unwrap();
        let data = sample_weibull(&mut rng, &truth, 8000);
        let fit = Weibull::fit_mle(&data).unwrap();
        assert!((fit.shape - 0.7).abs() < 0.05, "shape {:.3}", fit.shape);
    }

    #[test]
    fn mle_rejects_bad_inputs() {
        assert!(matches!(
            Weibull::fit_mle(&[1.0]),
            Err(StatsError::NotEnoughData { .. })
        ));
        assert!(Weibull::fit_mle(&[1.0, -2.0]).is_err());
        assert!(Weibull::fit_mle(&[0.0, 1.0]).is_err());
        assert!(Weibull::fit_mle(&[2.0, 2.0, 2.0]).is_err());
        assert!(Weibull::fit_mle(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn invalid_parameters_rejected() {
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Weibull::new(1.0, -1.0).is_err());
        assert!(Weibull::new(f64::NAN, 1.0).is_err());
    }

    #[test]
    fn low_tail_calibration_is_increasing() {
        let mut rng = StdRng::seed_from_u64(5);
        // Positive-class decision scores: mostly around 1.5, tail toward 0.
        let scores: Vec<f64> =
            (0..500).map(|_| 1.5 + 0.5 * sampling::standard_normal(&mut rng)).collect();
        let cal = WeibullFit::fit_tail(&scores, TailSide::Low, 0.25, 5).unwrap();
        let far_below = cal.probability(-2.0);
        let mid = cal.probability(1.0);
        let above = cal.probability(3.0);
        assert!(far_below < 0.05, "deep below tail should be near 0: {far_below}");
        assert!(above > 0.95, "well inside class should be near 1: {above}");
        assert!(far_below < mid && mid < above, "monotonicity {far_below} {mid} {above}");
    }

    #[test]
    fn high_tail_exceedance_is_increasing() {
        let mut rng = StdRng::seed_from_u64(6);
        // Negative-class scores: around −1.5. The exceedance probability is
        // ~0 inside the negative bulk and ~1 for clearly positive scores.
        let scores: Vec<f64> =
            (0..500).map(|_| -1.5 + 0.5 * sampling::standard_normal(&mut rng)).collect();
        let cal = WeibullFit::fit_tail(&scores, TailSide::High, 0.25, 5).unwrap();
        let deep_neg = cal.probability(-4.0);
        let near = cal.probability(-0.5);
        let pos = cal.probability(2.0);
        assert!(deep_neg < 0.05, "deep negative is firmly inside the population: {deep_neg}");
        assert!(pos > 0.95, "strongly positive scores exceed the negative model: {pos}");
        assert!(deep_neg < near && near < pos, "monotonicity {deep_neg} {near} {pos}");
    }

    #[test]
    fn tail_fraction_bounds_are_respected() {
        let scores: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        // min_tail larger than the fraction forces at least that many points.
        let cal = WeibullFit::fit_tail(&scores, TailSide::Low, 0.01, 10).unwrap();
        // Should fit fine on 10 points.
        assert!(cal.probability(200.0) > 0.99);
    }

    #[test]
    fn probability_is_a_probability() {
        let scores: Vec<f64> = (1..=50).map(|i| (i as f64).sqrt()).collect();
        let cal = WeibullFit::fit_tail(&scores, TailSide::Low, 0.5, 5).unwrap();
        for s in [-10.0, 0.0, 1.0, 3.0, 100.0] {
            let p = cal.probability(s);
            assert!((0.0..=1.0).contains(&p), "p({s}) = {p} out of range");
        }
    }
}
