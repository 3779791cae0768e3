//! Property-based tests for the statistical substrate: conjugacy identities
//! of the NIW family, invariants of the special functions, and calibration
//! monotonicity of the EVT fits.

use osr_linalg::Matrix;
use osr_stats::sampling::{try_categorical_log, try_categorical_log_scratch};
use osr_stats::special::{ln_gamma, log_sum_exp};
use osr_stats::weibull::{TailSide, Weibull, WeibullFit};
use osr_stats::{NiwParams, NiwPosterior};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn entry() -> impl Strategy<Value = f64> {
    -2.0..2.0f64
}

prop_compose! {
    fn niw_setup()(d in 1usize..4)(
        d in Just(d),
        mu0 in prop::collection::vec(entry(), d),
        kappa0 in 0.3..5.0f64,
        nu_extra in 0.5..6.0f64,
        diag in prop::collection::vec(0.5..2.0f64, d),
        points in prop::collection::vec(prop::collection::vec(entry(), d), 1..8),
    ) -> (NiwParams, Vec<Vec<f64>>) {
        let nu0 = d as f64 - 1.0 + nu_extra;
        let psi0 = Matrix::from_diag(&diag);
        (NiwParams::new(mu0, kappa0, nu0, psi0).unwrap(), points)
    }
}

proptest! {
    #[test]
    fn niw_chain_rule_matches_closed_form((params, points) in niw_setup()) {
        let mut post = NiwPosterior::from_prior(&params);
        let mut chain = 0.0;
        for p in &points {
            chain += post.predictive_logpdf(p);
            post.add(p);
        }
        let closed = post.log_marginal(&params);
        prop_assert!(
            (chain - closed).abs() < 1e-6 * chain.abs().max(1.0),
            "chain {chain} vs closed {closed}"
        );
    }

    #[test]
    fn niw_add_remove_is_identity((params, points) in niw_setup()) {
        let mut post = NiwPosterior::from_prior(&params);
        let probe = vec![0.3; params.dim()];
        let before = post.predictive_logpdf(&probe);
        for p in &points {
            post.add(p);
        }
        for p in points.iter().rev() {
            post.remove(p);
        }
        let after = post.predictive_logpdf(&probe);
        prop_assert!((before - after).abs() < 1e-7, "{before} vs {after}");
        prop_assert_eq!(post.count(), 0);
    }

    #[test]
    fn niw_marginal_order_invariant((params, points) in niw_setup()) {
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let fwd = NiwPosterior::from_points(&params, &refs).log_marginal(&params);
        let mut rev = refs.clone();
        rev.reverse();
        let bwd = NiwPosterior::from_points(&params, &rev).log_marginal(&params);
        prop_assert!((fwd - bwd).abs() < 1e-6 * fwd.abs().max(1.0));
    }

    #[test]
    fn niw_predictive_is_finite((params, points) in niw_setup()) {
        let refs: Vec<&[f64]> = points.iter().map(Vec::as_slice).collect();
        let post = NiwPosterior::from_points(&params, &refs);
        for x in &points {
            prop_assert!(post.predictive_logpdf(x).is_finite());
        }
    }

    #[test]
    fn ln_gamma_recurrence_holds(x in 0.05..50.0f64) {
        let lhs = ln_gamma(x + 1.0);
        let rhs = x.ln() + ln_gamma(x);
        prop_assert!((lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0));
    }

    #[test]
    fn log_sum_exp_shift_invariance(
        xs in prop::collection::vec(-30.0..30.0f64, 1..10),
        shift in -500.0..500.0f64,
    ) {
        let shifted: Vec<f64> = xs.iter().map(|x| x + shift).collect();
        let a = log_sum_exp(&xs) + shift;
        let b = log_sum_exp(&shifted);
        prop_assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn weibull_cdf_quantile_roundtrip(
        shape in 0.3..6.0f64,
        scale in 0.1..10.0f64,
        p in 0.001..0.999f64,
    ) {
        let w = Weibull::new(shape, scale).unwrap();
        let x = w.quantile(p);
        prop_assert!((w.cdf(x) - p).abs() < 1e-9);
    }

    #[test]
    fn weibull_cdf_is_monotone(
        shape in 0.3..6.0f64,
        scale in 0.1..10.0f64,
        a in 0.0..20.0f64,
        b in 0.0..20.0f64,
    ) {
        let w = Weibull::new(shape, scale).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(w.cdf(lo) <= w.cdf(hi) + 1e-15);
    }

    #[test]
    fn scratch_categorical_draw_matches_the_allocating_one(
        log_weights in prop::collection::vec(
            prop_oneof![Just(f64::NEG_INFINITY), -60.0..60.0f64],
            1..12,
        ),
        stale in prop::collection::vec(-1.0..1.0f64, 0..16),
        seed in 0u64..1_000_000,
    ) {
        // Same index, and the same RNG state afterwards, whatever the
        // buffer held before (including all-`-inf` weights, which both
        // reject without touching the RNG).
        let mut a = StdRng::seed_from_u64(seed);
        let mut b = StdRng::seed_from_u64(seed);
        let mut buffer = stale;
        let expected = try_categorical_log(&mut a, &log_weights);
        let got = try_categorical_log_scratch(&mut b, &log_weights, &mut buffer);
        prop_assert_eq!(got, expected);
        prop_assert_eq!(a.gen::<u64>(), b.gen::<u64>());
    }

    #[test]
    fn fitted_calibrator_outputs_probabilities(
        base in 0.5..3.0f64,
        spread in 0.2..2.0f64,
        n in 20usize..200,
    ) {
        // Deterministic pseudo-random scores.
        let scores: Vec<f64> = (0..n)
            .map(|i| base + spread * (((i * 2654435761) % 1000) as f64 / 1000.0 - 0.5))
            .collect();
        for side in [TailSide::Low, TailSide::High] {
            if let Ok(cal) = WeibullFit::fit_tail(&scores, side, 0.5, 5) {
                for s in [-5.0, 0.0, base, base + 10.0] {
                    let p = cal.probability(s);
                    prop_assert!((0.0..=1.0).contains(&p), "p({s}) = {p}");
                }
                // Monotone increasing on both sides.
                prop_assert!(cal.probability(-5.0) <= cal.probability(base) + 1e-12);
                prop_assert!(cal.probability(base) <= cal.probability(base + 10.0) + 1e-12);
            }
        }
    }
}
