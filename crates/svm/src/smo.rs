//! Binary C-SVC trained with Sequential Minimal Optimization.
//!
//! Solves the standard dual
//!
//! ```text
//! min_α  ½ αᵀQα − eᵀα    s.t.  yᵀα = 0,  0 ≤ α_i ≤ C,   Q_ij = y_i y_j K(x_i, x_j)
//! ```
//!
//! with maximal-violating-pair working-set selection (LIBSVM's WSS-1) and
//! the analytic two-variable update. The kernel matrix is cached densely
//! when it fits in a configurable budget and recomputed on the fly
//! otherwise, so training never needs more than O(n²) memory and degrades
//! gracefully on large problems.

use crate::kernel::Kernel;
use crate::{Result, SvmError};

/// Hyperparameters of the C-SVC solver.
#[derive(Debug, Clone, Copy)]
pub struct SvmParams {
    /// Soft-margin penalty C (> 0). The paper grid-searches
    /// `C ∈ {2⁻⁵, …, 2⁵}`.
    pub c: f64,
    /// Kernel function.
    pub kernel: Kernel,
    /// KKT violation tolerance for the stopping rule (LIBSVM default 1e-3).
    pub tol: f64,
    /// Hard cap on SMO iterations (safety net; reaching it still yields a
    /// usable model).
    pub max_iter: usize,
    /// Maximum entries of the dense kernel cache (`n² ≤ cache_limit` uses a
    /// full cache).
    pub cache_limit: usize,
}

impl SvmParams {
    /// Defaults: `C = 1`, RBF with the 1/d heuristic, tol 1e-3.
    pub fn new(c: f64, kernel: Kernel) -> Self {
        Self { c, kernel, tol: 1e-3, max_iter: 0, cache_limit: 40_000_000 }
    }

    fn effective_max_iter(&self, n: usize) -> usize {
        if self.max_iter > 0 {
            self.max_iter
        } else {
            (200 * n).max(20_000)
        }
    }

    fn validate(&self) -> Result<()> {
        if !(self.c > 0.0 && self.c.is_finite()) {
            return Err(SvmError::InvalidParameter(format!("C must be positive, got {}", self.c)));
        }
        if !(self.tol > 0.0) {
            return Err(SvmError::InvalidParameter(format!("tol must be positive, got {}", self.tol)));
        }
        self.kernel.validate()
    }
}

/// Dense or on-the-fly kernel matrix access.
enum KernelCache<'a> {
    Full(Vec<f64>, usize),
    Lazy(&'a [&'a [f64]], Kernel),
}

impl KernelCache<'_> {
    #[inline]
    fn get(&self, i: usize, j: usize) -> f64 {
        match self {
            KernelCache::Full(m, n) => m[i * n + j],
            KernelCache::Lazy(pts, k) => k.eval(pts[i], pts[j]),
        }
    }
}

/// A trained binary C-SVC.
#[derive(Debug, Clone)]
pub struct BinarySvm {
    kernel: Kernel,
    /// Support vectors (training points with `α_i > 0`).
    support: Vec<Vec<f64>>,
    /// Dual coefficients `α_i y_i`, parallel to `support`.
    coeffs: Vec<f64>,
    /// Bias term.
    b: f64,
}

impl BinarySvm {
    /// Train on labeled points (`labels[i]` is `+1`/`-1` via `bool`:
    /// `true` ⇒ positive class).
    ///
    /// # Errors
    /// Fails when the training set is empty, single-class, or the
    /// parameters are malformed.
    pub fn train(points: &[&[f64]], positive: &[bool], params: &SvmParams) -> Result<Self> {
        params.validate()?;
        let n = points.len();
        if n == 0 {
            return Err(SvmError::DegenerateTrainingSet("no training points".into()));
        }
        if positive.len() != n {
            return Err(SvmError::InvalidParameter(format!(
                "{} labels for {} points",
                positive.len(),
                n
            )));
        }
        let n_pos = positive.iter().filter(|&&p| p).count();
        if n_pos == 0 || n_pos == n {
            return Err(SvmError::DegenerateTrainingSet(format!(
                "need both classes, got {n_pos} positives of {n}"
            )));
        }

        let y: Vec<f64> = positive.iter().map(|&p| if p { 1.0 } else { -1.0 }).collect();
        let cache = if n.saturating_mul(n) <= params.cache_limit {
            let mut m = vec![0.0; n * n];
            for i in 0..n {
                for j in 0..=i {
                    let v = params.kernel.eval(points[i], points[j]);
                    m[i * n + j] = v;
                    m[j * n + i] = v;
                }
            }
            KernelCache::Full(m, n)
        } else {
            KernelCache::Lazy(points, params.kernel)
        };

        let c = params.c;
        let mut alpha = vec![0.0f64; n];
        // With α = 0 the gradient of ½αᵀQα − eᵀα is −e.
        let mut grad = vec![-1.0f64; n];

        let max_iter = params.effective_max_iter(n);
        for _ in 0..max_iter {
            // Maximal violating pair.
            let mut i_best: Option<(usize, f64)> = None; // argmax −y G over I_up
            let mut j_best: Option<(usize, f64)> = None; // argmin −y G over I_low
            for t in 0..n {
                let v = -y[t] * grad[t];
                let in_up = (y[t] > 0.0 && alpha[t] < c) || (y[t] < 0.0 && alpha[t] > 0.0);
                let in_low = (y[t] > 0.0 && alpha[t] > 0.0) || (y[t] < 0.0 && alpha[t] < c);
                if in_up && i_best.is_none_or(|(_, bv)| v > bv) {
                    i_best = Some((t, v));
                }
                if in_low && j_best.is_none_or(|(_, bv)| v < bv) {
                    j_best = Some((t, v));
                }
            }
            let (Some((i, m_up)), Some((j, m_low))) = (i_best, j_best) else { break };
            if m_up - m_low <= params.tol {
                break;
            }

            // Two-variable analytic step along d: α_i += y_i d, α_j −= y_j d.
            let kii = cache.get(i, i);
            let kjj = cache.get(j, j);
            let kij = cache.get(i, j);
            let eta = (kii + kjj - 2.0 * kij).max(1e-12);
            let mut d = (y[j] * grad[j] - y[i] * grad[i]) / eta;

            // Box constraints on both coordinates.
            let (lo_i, hi_i) = if y[i] > 0.0 { (-alpha[i], c - alpha[i]) } else { (alpha[i] - c, alpha[i]) };
            let (lo_j, hi_j) = if y[j] > 0.0 { (alpha[j] - c, alpha[j]) } else { (-alpha[j], c - alpha[j]) };
            let lo = lo_i.max(lo_j);
            let hi = hi_i.min(hi_j);
            d = d.clamp(lo, hi);
            if d == 0.0 {
                break; // numerically stuck; the violation is round-off level
            }

            let dai = y[i] * d;
            let daj = -y[j] * d;
            alpha[i] += dai;
            alpha[j] += daj;
            // Gradient update: G_t += Q_ti Δα_i + Q_tj Δα_j.
            for t in 0..n {
                grad[t] += y[t] * y[i] * cache.get(t, i) * dai
                    + y[t] * y[j] * cache.get(t, j) * daj;
            }
        }

        // Bias: mean of −y_t G_t over free support vectors, falling back to
        // the midpoint of the bound interval.
        let free: Vec<usize> = (0..n)
            .filter(|&t| alpha[t] > 1e-8 * c && alpha[t] < c * (1.0 - 1e-8))
            .collect();
        let b = if free.is_empty() {
            let mut up = f64::NEG_INFINITY;
            let mut low = f64::INFINITY;
            for t in 0..n {
                let v = -y[t] * grad[t];
                let in_up = (y[t] > 0.0 && alpha[t] < c) || (y[t] < 0.0 && alpha[t] > 0.0);
                let in_low = (y[t] > 0.0 && alpha[t] > 0.0) || (y[t] < 0.0 && alpha[t] < c);
                if in_up {
                    up = up.max(v);
                }
                if in_low {
                    low = low.min(v);
                }
            }
            (up + low) / 2.0
        } else {
            free.iter().map(|&t| -y[t] * grad[t]).sum::<f64>() / free.len() as f64
        };

        let mut support = Vec::new();
        let mut coeffs = Vec::new();
        for t in 0..n {
            if alpha[t] > 1e-10 {
                support.push(points[t].to_vec());
                coeffs.push(alpha[t] * y[t]);
            }
        }
        Ok(Self { kernel: params.kernel, support, coeffs, b })
    }

    /// Raw decision value `f(x) = Σ α_i y_i K(x_i, x) + b`; positive means
    /// the positive class.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        let mut acc = self.b;
        for (sv, &c) in self.support.iter().zip(&self.coeffs) {
            acc += c * self.kernel.eval(sv, x);
        }
        acc
    }

    /// Hard prediction.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.decision_value(x) > 0.0
    }

    /// Number of support vectors.
    pub fn n_support(&self) -> usize {
        self.support.len()
    }

    /// Bias term.
    pub fn bias(&self) -> f64 {
        self.b
    }

    /// For linear kernels, the explicit primal weight vector `w = Σ α_i y_i x_i`
    /// (None for non-linear kernels). The 1-vs-Set machine needs this to
    /// reason about its two parallel hyperplanes in score space.
    pub fn linear_weights(&self) -> Option<Vec<f64>> {
        if self.kernel != Kernel::Linear {
            return None;
        }
        let d = self.support.first().map_or(0, Vec::len);
        let mut w = vec![0.0; d];
        for (sv, &c) in self.support.iter().zip(&self.coeffs) {
            osr_linalg::vector::axpy(c, sv, &mut w);
        }
        Some(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_stats::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn linear_params(c: f64) -> SvmParams {
        SvmParams::new(c, Kernel::Linear)
    }

    /// Two well-separated Gaussian blobs in 2-d.
    fn blobs(rng: &mut StdRng, n_per: usize, gap: f64) -> (Vec<Vec<f64>>, Vec<bool>) {
        let mut pts = Vec::new();
        let mut lab = Vec::new();
        for i in 0..2 * n_per {
            let pos = i % 2 == 0;
            let cx = if pos { gap / 2.0 } else { -gap / 2.0 };
            pts.push(vec![
                cx + 0.5 * sampling::standard_normal(rng),
                0.5 * sampling::standard_normal(rng),
            ]);
            lab.push(pos);
        }
        (pts, lab)
    }

    #[test]
    fn separates_two_points() {
        let pts = [vec![1.0, 0.0], vec![-1.0, 0.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let svm = BinarySvm::train(&refs, &[true, false], &linear_params(10.0)).unwrap();
        assert!(svm.predict(&[2.0, 0.0]));
        assert!(!svm.predict(&[-2.0, 0.0]));
        // Canonical margins: f(±1, 0) = ±1.
        assert!((svm.decision_value(&[1.0, 0.0]) - 1.0).abs() < 1e-6);
        assert!((svm.decision_value(&[-1.0, 0.0]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn classifies_separable_blobs_perfectly() {
        let mut rng = StdRng::seed_from_u64(1);
        let (pts, lab) = blobs(&mut rng, 100, 8.0);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let svm = BinarySvm::train(&refs, &lab, &linear_params(1.0)).unwrap();
        let correct = refs.iter().zip(&lab).filter(|(p, &l)| svm.predict(p) == l).count();
        assert_eq!(correct, 200);
    }

    #[test]
    fn kkt_conditions_hold_on_separable_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let (pts, lab) = blobs(&mut rng, 60, 6.0);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let svm = BinarySvm::train(&refs, &lab, &linear_params(1.0)).unwrap();
        // Every training point must satisfy y f(x) ≥ 1 − tol-ish slack
        // unless it is a (bounded) support vector.
        for (p, &l) in refs.iter().zip(&lab) {
            let y = if l { 1.0 } else { -1.0 };
            let margin = y * svm.decision_value(p);
            assert!(margin > -0.01, "margin violation: {margin}");
        }
        // Separable blobs need few support vectors.
        assert!(svm.n_support() < 30, "too many SVs: {}", svm.n_support());
    }

    #[test]
    fn rbf_solves_xor() {
        let pts = [
            vec![1.0, 1.0],
            vec![-1.0, -1.0],
            vec![1.0, -1.0],
            vec![-1.0, 1.0],
        ];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let lab = [true, true, false, false];
        let params = SvmParams::new(10.0, Kernel::Rbf { gamma: 0.7 });
        let svm = BinarySvm::train(&refs, &lab, &params).unwrap();
        for (p, &l) in refs.iter().zip(&lab) {
            assert_eq!(svm.predict(p), l, "XOR point {p:?} misclassified");
        }
    }

    #[test]
    fn linear_weights_reproduce_decision_values() {
        let mut rng = StdRng::seed_from_u64(3);
        let (pts, lab) = blobs(&mut rng, 40, 4.0);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let svm = BinarySvm::train(&refs, &lab, &linear_params(1.0)).unwrap();
        let w = svm.linear_weights().unwrap();
        for p in refs.iter().take(20) {
            let via_w = osr_linalg::vector::dot(&w, p) + svm.bias();
            assert!((via_w - svm.decision_value(p)).abs() < 1e-9);
        }
    }

    #[test]
    fn rbf_has_no_linear_weights() {
        let pts = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let params = SvmParams::new(1.0, Kernel::Rbf { gamma: 1.0 });
        let svm = BinarySvm::train(&refs, &[true, false], &params).unwrap();
        assert!(svm.linear_weights().is_none());
    }

    #[test]
    fn small_c_allows_margin_violations_on_noisy_data() {
        let mut rng = StdRng::seed_from_u64(4);
        // Overlapping blobs.
        let (pts, lab) = blobs(&mut rng, 100, 1.0);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let svm = BinarySvm::train(&refs, &lab, &linear_params(0.01)).unwrap();
        // Still does better than chance.
        let correct = refs.iter().zip(&lab).filter(|(p, &l)| svm.predict(p) == l).count();
        assert!(correct > 120, "accuracy too low: {correct}/200");
    }

    #[test]
    fn rejects_single_class_training() {
        let pts = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let err = BinarySvm::train(&refs, &[true, true], &linear_params(1.0)).unwrap_err();
        assert!(matches!(err, SvmError::DegenerateTrainingSet(_)));
    }

    #[test]
    fn rejects_empty_and_mismatched_inputs() {
        let err = BinarySvm::train(&[], &[], &linear_params(1.0)).unwrap_err();
        assert!(matches!(err, SvmError::DegenerateTrainingSet(_)));
        let pts = [vec![0.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        assert!(BinarySvm::train(&refs, &[true, false], &linear_params(1.0)).is_err());
    }

    #[test]
    fn rejects_invalid_parameters() {
        let pts = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let lab = [true, false];
        assert!(BinarySvm::train(&refs, &lab, &linear_params(-1.0)).is_err());
        let bad = SvmParams::new(1.0, Kernel::Rbf { gamma: -2.0 });
        assert!(BinarySvm::train(&refs, &lab, &bad).is_err());
    }

    #[test]
    fn lazy_cache_matches_full_cache() {
        let mut rng = StdRng::seed_from_u64(5);
        let (pts, lab) = blobs(&mut rng, 30, 5.0);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let mut full = linear_params(1.0);
        full.cache_limit = usize::MAX;
        let mut lazy = linear_params(1.0);
        lazy.cache_limit = 0;
        let a = BinarySvm::train(&refs, &lab, &full).unwrap();
        let b = BinarySvm::train(&refs, &lab, &lazy).unwrap();
        for p in refs.iter().take(10) {
            assert!((a.decision_value(p) - b.decision_value(p)).abs() < 1e-9);
        }
    }
}
