//! Random-variate generation on top of `rand`'s uniform source.
//!
//! The workspace avoids `rand_distr` so the entire sampling stack is
//! auditable in one place: Box–Muller normals, Marsaglia–Tsang gammas,
//! gamma-ratio betas and Dirichlets, and categorical draws from both linear
//! and log-space weights. Every function takes an explicit `&mut impl Rng`,
//! keeping all experiments deterministic under a fixed seed.

use rand::Rng;

use crate::special::log_sum_exp;

/// Draw a standard normal variate (Box–Muller, polar-free variant).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller with freshly drawn uniforms; u1 is kept away from zero so
    // the log is finite.
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draw `N(mu, sigma²)`.
///
/// # Panics
/// Panics when `sigma < 0`.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    assert!(sigma >= 0.0, "normal: sigma must be non-negative, got {sigma}");
    mu + sigma * standard_normal(rng)
}

/// Draw `Gamma(shape, rate)` with the **rate** (inverse-scale)
/// parameterization: mean = shape / rate.
///
/// Uses Marsaglia & Tsang's squeeze method for `shape >= 1` and the boost
/// `Gamma(a) = Gamma(a + 1) · U^{1/a}` for `shape < 1`.
///
/// # Panics
/// Panics when `shape <= 0` or `rate <= 0`.
pub fn gamma<R: Rng + ?Sized>(rng: &mut R, shape: f64, rate: f64) -> f64 {
    assert!(shape > 0.0, "gamma: shape must be positive, got {shape}");
    assert!(rate > 0.0, "gamma: rate must be positive, got {rate}");
    if shape < 1.0 {
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        return gamma(rng, shape + 1.0, rate) * u.powf(1.0 / shape);
    }
    let d = shape - 1.0 / 3.0;
    let c = 1.0 / (9.0 * d).sqrt();
    loop {
        let x = standard_normal(rng);
        let v = 1.0 + c * x;
        if v <= 0.0 {
            continue;
        }
        let v3 = v * v * v;
        let u: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
        let x2 = x * x;
        if u < 1.0 - 0.0331 * x2 * x2 || u.ln() < 0.5 * x2 + d * (1.0 - v3 + v3.ln()) {
            return d * v3 / rate;
        }
    }
}

/// Draw `Beta(a, b)` via the gamma ratio.
///
/// # Panics
/// Panics when `a <= 0` or `b <= 0`.
pub fn beta<R: Rng + ?Sized>(rng: &mut R, a: f64, b: f64) -> f64 {
    let x = gamma(rng, a, 1.0);
    let y = gamma(rng, b, 1.0);
    x / (x + y)
}

/// Draw from a Dirichlet distribution with concentration vector `alpha`.
///
/// # Panics
/// Panics when `alpha` is empty or has a non-positive entry.
pub fn dirichlet<R: Rng + ?Sized>(rng: &mut R, alpha: &[f64]) -> Vec<f64> {
    assert!(!alpha.is_empty(), "dirichlet: alpha must be non-empty");
    let mut draws: Vec<f64> = alpha.iter().map(|&a| gamma(rng, a, 1.0)).collect();
    let sum: f64 = draws.iter().sum();
    for d in &mut draws {
        *d /= sum;
    }
    draws
}

/// Sample an index proportional to the (non-negative, not necessarily
/// normalized) `weights`.
///
/// # Panics
/// Panics when `weights` is empty, contains a negative or non-finite entry,
/// or sums to zero.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical: weights must be non-empty");
    let mut total = 0.0;
    for &w in weights {
        assert!(w >= 0.0 && w.is_finite(), "categorical: bad weight {w}");
        total += w;
    }
    assert!(total > 0.0, "categorical: weights sum to zero");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1 // round-off fallthrough
}

/// Sample an index proportional to `exp(log_weights)`, stably; entries of
/// `-inf` have probability zero. Returns `None` when the log normalizer is
/// not finite (all entries `-inf`, or any `NaN`/`+inf`), so samplers facing
/// hostile inputs can substitute a deterministic fallback and flag the sweep
/// as diverged. The reference that [`try_categorical_log_scratch`] must
/// match draw for draw.
pub fn try_categorical_log<R: Rng + ?Sized>(rng: &mut R, log_weights: &[f64]) -> Option<usize> {
    let z = log_sum_exp(log_weights);
    if !z.is_finite() {
        return None;
    }
    let weights: Vec<f64> = log_weights.iter().map(|w| (w - z).exp()).collect();
    Some(categorical(rng, &weights))
}

/// [`try_categorical_log`] with the normalized weights written into the
/// caller's `weights` buffer instead of a fresh `Vec`: the same operations
/// in the same order, so the same index and the same RNG consumption. The
/// buffer's prior contents are ignored.
pub fn try_categorical_log_scratch<R: Rng + ?Sized>(
    rng: &mut R,
    log_weights: &[f64],
    weights: &mut Vec<f64>,
) -> Option<usize> {
    let z = log_sum_exp(log_weights);
    if !z.is_finite() {
        return None;
    }
    weights.clear();
    weights.extend(log_weights.iter().map(|w| (w - z).exp()));
    Some(categorical(rng, weights))
}

/// Fisher–Yates shuffle of a slice of indices (thin wrapper so callers don't
/// need the `SliceRandom` trait in scope).
pub fn shuffle<R: Rng + ?Sized, T>(rng: &mut R, xs: &mut [T]) {
    for i in (1..xs.len()).rev() {
        let j = rng.gen_range(0..=i);
        xs.swap(i, j);
    }
}

/// Reservoir-free sample of `k` distinct indices from `0..n`, in random
/// order (partial Fisher–Yates).
///
/// # Panics
/// Panics when `k > n`.
pub fn sample_indices<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    assert!(k <= n, "sample_indices: k = {k} exceeds n = {n}");
    let mut idx: Vec<usize> = (0..n).collect();
    for i in 0..k {
        let j = rng.gen_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0xC0FFEE)
    }

    fn sample_mean_var(xs: &[f64]) -> (f64, f64) {
        let n = xs.len() as f64;
        let m = xs.iter().sum::<f64>() / n;
        let v = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1.0);
        (m, v)
    }

    #[test]
    fn standard_normal_moments() {
        let mut r = rng();
        let xs: Vec<f64> = (0..20_000).map(|_| standard_normal(&mut r)).collect();
        let (m, v) = sample_mean_var(&xs);
        assert!(m.abs() < 0.03, "mean drift: {m}");
        assert!((v - 1.0).abs() < 0.05, "variance drift: {v}");
    }

    #[test]
    fn gamma_moments_shape_above_one() {
        let mut r = rng();
        let (shape, rate) = (4.0, 2.0);
        let xs: Vec<f64> = (0..20_000).map(|_| gamma(&mut r, shape, rate)).collect();
        let (m, v) = sample_mean_var(&xs);
        assert!((m - shape / rate).abs() < 0.05, "gamma mean drift: {m}");
        assert!((v - shape / (rate * rate)).abs() < 0.1, "gamma var drift: {v}");
    }

    #[test]
    fn gamma_moments_shape_below_one() {
        let mut r = rng();
        let (shape, rate) = (0.5, 1.0);
        let xs: Vec<f64> = (0..20_000).map(|_| gamma(&mut r, shape, rate)).collect();
        let (m, _) = sample_mean_var(&xs);
        assert!((m - 0.5).abs() < 0.05, "sub-one-shape gamma mean drift: {m}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn beta_moments() {
        let mut r = rng();
        let (a, b) = (2.0, 5.0);
        let xs: Vec<f64> = (0..20_000).map(|_| beta(&mut r, a, b)).collect();
        let (m, v) = sample_mean_var(&xs);
        let em = a / (a + b);
        let ev = a * b / ((a + b) * (a + b) * (a + b + 1.0));
        assert!((m - em).abs() < 0.01, "beta mean drift: {m} vs {em}");
        assert!((v - ev).abs() < 0.01, "beta var drift: {v} vs {ev}");
        assert!(xs.iter().all(|&x| (0.0..=1.0).contains(&x)));
    }

    #[test]
    fn dirichlet_sums_to_one_and_tracks_alpha() {
        let mut r = rng();
        let alpha = [1.0, 2.0, 7.0];
        let mut acc = [0.0; 3];
        for _ in 0..5000 {
            let d = dirichlet(&mut r, &alpha);
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-12);
            for (a, x) in acc.iter_mut().zip(&d) {
                *a += x;
            }
        }
        let total: f64 = alpha.iter().sum();
        for (i, &a) in alpha.iter().enumerate() {
            let mean = acc[i] / 5000.0;
            assert!((mean - a / total).abs() < 0.02, "component {i} drift: {mean}");
        }
    }

    #[test]
    fn categorical_frequencies_track_weights() {
        let mut r = rng();
        let w = [1.0, 0.0, 3.0];
        let mut counts = [0usize; 3];
        for _ in 0..20_000 {
            counts[categorical(&mut r, &w)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "frequency ratio drift: {ratio}");
    }

    #[test]
    fn categorical_log_matches_linear() {
        let mut r = rng();
        // log-weights shifted by a huge constant must not change frequencies.
        let lw = [1000.0, 1000.0 + (3.0f64).ln()];
        let mut counts = [0usize; 2];
        for _ in 0..20_000 {
            counts[try_categorical_log(&mut r, &lw).unwrap()] += 1;
        }
        let ratio = counts[1] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.3, "log-space frequency drift: {ratio}");
    }

    #[test]
    #[should_panic(expected = "weights sum to zero")]
    fn categorical_rejects_all_zero() {
        let mut r = rng();
        let _ = categorical(&mut r, &[0.0, 0.0]);
    }

    #[test]
    fn sample_indices_are_distinct_and_in_range() {
        let mut r = rng();
        for _ in 0..100 {
            let s = sample_indices(&mut r, 10, 4);
            assert_eq!(s.len(), 4);
            let mut sorted = s.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "indices must be distinct: {s:?}");
            assert!(s.iter().all(|&i| i < 10));
        }
    }

    #[test]
    fn sample_indices_full_permutation() {
        let mut r = rng();
        let mut s = sample_indices(&mut r, 5, 5);
        s.sort_unstable();
        assert_eq!(s, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shuffle_preserves_multiset() {
        let mut r = rng();
        let mut v = vec![1, 2, 3, 4, 5];
        shuffle(&mut r, &mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn determinism_under_fixed_seed() {
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
        }
    }
}
