//! Special functions: log-gamma, digamma, multivariate log-gamma, and
//! numerically safe log-sum-exp. All are accurate to ~1e-12 over the ranges
//! exercised by the sampler (arguments ≥ 1e-6, dimensions ≤ a few hundred).

use std::f64::consts::PI;

/// Lanczos coefficients (g = 7, n = 9), the classic Boost/Numerical-Recipes
/// parameter set — relative error below 1e-13 for positive arguments.
const LANCZOS_G: f64 = 7.0;
const LANCZOS: [f64; 9] = [
    0.999_999_999_999_809_9,
    676.520_368_121_885_1,
    -1_259.139_216_722_402_8,
    771.323_428_777_653_1,
    -176.615_029_162_140_6,
    12.507_343_278_686_905,
    -0.138_571_095_265_720_12,
    9.984_369_578_019_572e-6,
    1.505_632_735_149_311_6e-7,
];

/// Natural log of the gamma function for `x > 0`.
///
/// # Panics
/// Panics when `x <= 0` (reflection is never needed in this workspace and
/// silently accepting non-positive arguments would hide sampler bugs).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma: argument must be positive, got {x}");
    if x < 0.5 {
        // Reflection formula keeps accuracy for tiny x.
        return (PI / (PI * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut acc = LANCZOS[0];
    for (i, &c) in LANCZOS.iter().enumerate().skip(1) {
        acc += c / (x + i as f64);
    }
    let t = x + LANCZOS_G + 0.5;
    0.5 * (2.0 * PI).ln() + (x + 0.5) * t.ln() - t + acc.ln()
}

/// Digamma (ψ) function for `x > 0`, via the asymptotic series after shifting
/// the argument above 6.
pub fn digamma(x: f64) -> f64 {
    assert!(x > 0.0, "digamma: argument must be positive, got {x}");
    let mut x = x;
    let mut acc = 0.0;
    while x < 10.0 {
        acc -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    acc + x.ln() - 0.5 * inv
        - inv2
            * (1.0 / 12.0
                - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

/// Multivariate log-gamma `ln Γ_d(a)`, the normalizer of the Wishart family:
/// `Γ_d(a) = π^{d(d-1)/4} ∏_{j=1}^{d} Γ(a + (1 - j)/2)`.
///
/// # Panics
/// Panics when `a <= (d - 1) / 2` (outside the Wishart domain).
pub fn ln_multigamma(d: usize, a: f64) -> f64 {
    assert!(
        a > (d as f64 - 1.0) / 2.0,
        "ln_multigamma: argument {a} outside domain for dimension {d}"
    );
    let mut acc = (d * (d - 1)) as f64 / 4.0 * PI.ln();
    for j in 1..=d {
        acc += ln_gamma(a + (1.0 - j as f64) / 2.0);
    }
    acc
}

/// Numerically safe `ln Σ exp(x_i)`.
///
/// Returns `-inf` for an empty slice (the sum of zero terms).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let m = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    if !m.is_finite() {
        return m; // empty, all -inf, or contains +inf/NaN — propagate.
    }
    m + xs.iter().map(|x| (x - m).exp()).sum::<f64>().ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_factorials() {
        // Γ(n) = (n-1)!
        let facts: [f64; 7] = [1.0, 1.0, 2.0, 6.0, 24.0, 120.0, 720.0];
        for (i, &f) in facts.iter().enumerate() {
            let n = (i + 1) as f64;
            assert!(
                (ln_gamma(n) - f.ln()).abs() < 1e-12,
                "ln_gamma({n}) mismatch"
            );
        }
    }

    #[test]
    fn ln_gamma_half_integer() {
        // Γ(1/2) = sqrt(pi)
        assert!((ln_gamma(0.5) - 0.5 * PI.ln()).abs() < 1e-12);
        // Γ(3/2) = sqrt(pi)/2
        assert!((ln_gamma(1.5) - (PI.sqrt() / 2.0).ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_gamma_recurrence() {
        // Γ(x+1) = x Γ(x)
        for &x in &[0.1, 0.7, 2.3, 17.9, 123.4] {
            let lhs = ln_gamma(x + 1.0);
            let rhs = x.ln() + ln_gamma(x);
            assert!((lhs - rhs).abs() < 1e-10, "recurrence failed at {x}");
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn ln_gamma_rejects_nonpositive() {
        let _ = ln_gamma(0.0);
    }

    #[test]
    fn digamma_at_one_is_neg_euler_mascheroni() {
        const EULER: f64 = 0.577_215_664_901_532_9;
        assert!((digamma(1.0) + EULER).abs() < 1e-10);
    }

    #[test]
    fn digamma_recurrence() {
        // ψ(x+1) = ψ(x) + 1/x
        for &x in &[0.3, 1.0, 4.5, 42.0] {
            assert!((digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10);
        }
    }

    #[test]
    fn digamma_is_derivative_of_ln_gamma() {
        for &x in &[0.8, 2.0, 9.5] {
            let h = 1e-6;
            let numeric = (ln_gamma(x + h) - ln_gamma(x - h)) / (2.0 * h);
            assert!((digamma(x) - numeric).abs() < 1e-6, "derivative check at {x}");
        }
    }

    #[test]
    fn multigamma_reduces_to_gamma_in_1d() {
        for &a in &[0.7, 1.5, 10.0] {
            assert!((ln_multigamma(1, a) - ln_gamma(a)).abs() < 1e-13);
        }
    }

    #[test]
    fn multigamma_2d_closed_form() {
        // Γ_2(a) = sqrt(pi) Γ(a) Γ(a - 1/2)
        let a = 3.2;
        let expect = 0.5 * PI.ln() + ln_gamma(a) + ln_gamma(a - 0.5);
        assert!((ln_multigamma(2, a) - expect).abs() < 1e-12);
    }

    #[test]
    fn log_sum_exp_handles_extremes() {
        assert_eq!(log_sum_exp(&[]), f64::NEG_INFINITY);
        assert_eq!(log_sum_exp(&[f64::NEG_INFINITY]), f64::NEG_INFINITY);
        // Huge offsets don't overflow.
        let v = log_sum_exp(&[1000.0, 1000.0]);
        assert!((v - (1000.0 + 2.0f64.ln())).abs() < 1e-10);
        // ln(e^0 + e^0) = ln 2
        assert!((log_sum_exp(&[0.0, 0.0]) - 2.0f64.ln()).abs() < 1e-14);
    }
}
