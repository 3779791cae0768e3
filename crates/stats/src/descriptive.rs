//! Descriptive statistics for experiment reporting: means, standard
//! deviations, quantiles, and the mean ± std summaries the paper's error
//! bars are built from.

/// Arithmetic mean; 0 for an empty slice (callers report counts separately).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample standard deviation (n − 1 denominator); 0 when fewer than
/// two observations.
pub fn std_dev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64;
    var.sqrt()
}

/// Linear-interpolation quantile for `q ∈ [0, 1]` on *unsorted* data.
///
/// Returns `None` on empty input.
pub fn quantile(xs: &[f64], q: f64) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    assert!((0.0..=1.0).contains(&q), "quantile: q must be in [0,1], got {q}");
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("quantile: data must not contain NaN"));
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Some(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median convenience wrapper.
pub fn median(xs: &[f64]) -> Option<f64> {
    quantile(xs, 0.5)
}

/// Mean and standard deviation of a set of trial results, the form every
/// figure in the paper reports (line + error bar).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeanStd {
    /// Arithmetic mean over trials.
    pub mean: f64,
    /// Unbiased standard deviation over trials.
    pub std: f64,
    /// Number of trials aggregated.
    pub n: usize,
}

impl MeanStd {
    /// Aggregate a slice of trial values.
    pub fn from_values(xs: &[f64]) -> Self {
        Self { mean: mean(xs), std: std_dev(xs), n: xs.len() }
    }
}

impl std::fmt::Display for MeanStd {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ± {:.4}", self.mean, self.std)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std_of_known_sample() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        // Sample variance = 32/7.
        assert!((std_dev(&xs) - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn std_of_singleton_is_zero() {
        assert_eq!(std_dev(&[3.0]), 0.0);
        assert_eq!(std_dev(&[]), 0.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let xs = [3.0, 1.0, 2.0, 4.0]; // sorted: 1 2 3 4
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 1.0), Some(4.0));
        assert_eq!(median(&xs), Some(2.5));
        assert_eq!(quantile(&xs, 1.0 / 3.0), Some(2.0));
    }

    #[test]
    fn quantile_of_empty_is_none() {
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn mean_std_display() {
        let ms = MeanStd::from_values(&[0.5, 0.7]);
        assert_eq!(ms.n, 2);
        assert_eq!(format!("{ms}"), "0.6000 ± 0.1414");
    }
}
