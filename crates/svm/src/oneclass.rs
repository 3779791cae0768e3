//! Schölkopf's one-class ν-SVM — the CAP-model conditioner of W-SVM and the
//! whole of W-OSVM.
//!
//! Dual problem:
//!
//! ```text
//! min_α ½ αᵀKα    s.t.  0 ≤ α_i ≤ 1/(νn),  Σ α_i = 1
//! ```
//!
//! solved with the same maximal-violating-pair SMO as the binary machine
//! (the equality constraint here is `Σα = const`, so the two-variable step
//! moves mass between a pair of coordinates). The decision function is
//! `f(x) = Σ α_i K(x_i, x) − ρ`, positive inside the estimated support of
//! the training distribution; `ν` upper-bounds the fraction of training
//! outliers.

use crate::kernel::Kernel;
use crate::{Result, SvmError};

/// Hyperparameters of the one-class ν-SVM.
#[derive(Debug, Clone, Copy)]
pub struct OneClassParams {
    /// Outlier fraction bound ν ∈ (0, 1).
    pub nu: f64,
    /// Kernel (RBF in all the paper's uses).
    pub kernel: Kernel,
    /// KKT tolerance.
    pub tol: f64,
    /// Iteration cap (0 ⇒ automatic).
    pub max_iter: usize,
}

impl OneClassParams {
    /// Defaults: `tol = 1e-4`, automatic iteration cap.
    pub fn new(nu: f64, kernel: Kernel) -> Self {
        Self { nu, kernel, tol: 1e-4, max_iter: 0 }
    }
}

/// A trained one-class ν-SVM.
#[derive(Debug, Clone)]
pub struct OneClassSvm {
    kernel: Kernel,
    support: Vec<Vec<f64>>,
    alphas: Vec<f64>,
    rho: f64,
}

impl OneClassSvm {
    /// Train on unlabeled points of a single class.
    ///
    /// # Errors
    /// Fails on an empty training set or `ν ∉ (0, 1)`.
    pub fn train(points: &[&[f64]], params: &OneClassParams) -> Result<Self> {
        let n = points.len();
        if n == 0 {
            return Err(SvmError::DegenerateTrainingSet("no training points".into()));
        }
        if !(params.nu > 0.0 && params.nu < 1.0) {
            return Err(SvmError::InvalidParameter(format!(
                "nu must be in (0,1), got {}",
                params.nu
            )));
        }
        params.kernel.validate()?;

        let c = 1.0 / (params.nu * n as f64);
        // LIBSVM initialization: the first ⌊νn⌋ coordinates at the cap, one
        // fractional coordinate, rest zero ⇒ Σα = 1 from the start.
        let mut alpha = vec![0.0f64; n];
        let full = (params.nu * n as f64).floor() as usize;
        for a in alpha.iter_mut().take(full.min(n)) {
            *a = c;
        }
        if full < n {
            alpha[full] = 1.0 - c * full as f64;
        }

        // Dense kernel cache (one-class problems here are small: a single
        // class's fitting data).
        let mut k = vec![0.0f64; n * n];
        for i in 0..n {
            for j in 0..=i {
                let v = params.kernel.eval(points[i], points[j]);
                k[i * n + j] = v;
                k[j * n + i] = v;
            }
        }

        // Gradient of ½αᵀKα is Kα.
        let mut grad = vec![0.0f64; n];
        for i in 0..n {
            let mut acc = 0.0;
            for j in 0..n {
                acc += k[i * n + j] * alpha[j];
            }
            grad[i] = acc;
        }

        let max_iter = if params.max_iter > 0 { params.max_iter } else { (200 * n).max(20_000) };
        for _ in 0..max_iter {
            // Move mass from the coordinate with the largest gradient (among
            // α > 0) to the one with the smallest (among α < C).
            let mut i_best: Option<(usize, f64)> = None; // min grad, α < C
            let mut j_best: Option<(usize, f64)> = None; // max grad, α > 0
            for t in 0..n {
                if alpha[t] < c && i_best.is_none_or(|(_, g)| grad[t] < g) {
                    i_best = Some((t, grad[t]));
                }
                if alpha[t] > 0.0 && j_best.is_none_or(|(_, g)| grad[t] > g) {
                    j_best = Some((t, grad[t]));
                }
            }
            let (Some((i, gi)), Some((j, gj))) = (i_best, j_best) else { break };
            if gj - gi <= params.tol || i == j {
                break;
            }
            let eta = (k[i * n + i] + k[j * n + j] - 2.0 * k[i * n + j]).max(1e-12);
            let mut d = (gj - gi) / eta;
            d = d.min(c - alpha[i]).min(alpha[j]);
            if d <= 0.0 {
                break;
            }
            alpha[i] += d;
            alpha[j] -= d;
            for t in 0..n {
                grad[t] += d * (k[t * n + i] - k[t * n + j]);
            }
        }

        // ρ: average of Kα over free support vectors (0 < α < C).
        let free: Vec<usize> =
            (0..n).filter(|&t| alpha[t] > 1e-10 && alpha[t] < c * (1.0 - 1e-8)).collect();
        let rho = if free.is_empty() {
            // Fall back to the midpoint between bound groups.
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for t in 0..n {
                if alpha[t] >= c * (1.0 - 1e-8) {
                    hi = hi.max(grad[t]);
                } else {
                    lo = lo.min(grad[t]);
                }
            }
            if hi.is_finite() && lo.is_finite() {
                (hi + lo) / 2.0
            } else {
                grad.iter().sum::<f64>() / n as f64
            }
        } else {
            free.iter().map(|&t| grad[t]).sum::<f64>() / free.len() as f64
        };

        let mut support = Vec::new();
        let mut alphas = Vec::new();
        for t in 0..n {
            if alpha[t] > 1e-10 {
                support.push(points[t].to_vec());
                alphas.push(alpha[t]);
            }
        }
        Ok(Self { kernel: params.kernel, support, alphas, rho })
    }

    /// Decision value `f(x) = Σ α_i K(x_i, x) − ρ`; positive inside the
    /// estimated support region.
    pub fn decision_value(&self, x: &[f64]) -> f64 {
        let mut acc = -self.rho;
        for (sv, &a) in self.support.iter().zip(&self.alphas) {
            acc += a * self.kernel.eval(sv, x);
        }
        acc
    }

    /// True when `x` falls inside the estimated support.
    pub fn contains(&self, x: &[f64]) -> bool {
        self.decision_value(x) > 0.0
    }

    /// Number of support vectors.
    pub fn n_support(&self) -> usize {
        self.support.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_stats::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cloud(rng: &mut StdRng, n: usize) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    sampling::standard_normal(rng) * 0.7,
                    sampling::standard_normal(rng) * 0.7,
                ]
            })
            .collect()
    }

    fn params(nu: f64) -> OneClassParams {
        OneClassParams::new(nu, Kernel::Rbf { gamma: 0.5 })
    }

    #[test]
    fn accepts_bulk_rejects_far_outliers() {
        let mut rng = StdRng::seed_from_u64(1);
        let pts = cloud(&mut rng, 300);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let oc = OneClassSvm::train(&refs, &params(0.1)).unwrap();
        assert!(oc.contains(&[0.0, 0.0]), "center of mass must be inside");
        assert!(!oc.contains(&[10.0, 10.0]), "far outlier must be outside");
        assert!(!oc.contains(&[-8.0, 6.0]));
    }

    #[test]
    fn nu_bounds_training_outlier_fraction() {
        let mut rng = StdRng::seed_from_u64(2);
        let pts = cloud(&mut rng, 400);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        for nu in [0.05, 0.2, 0.5] {
            let oc = OneClassSvm::train(&refs, &params(nu)).unwrap();
            let rejected = refs.iter().filter(|p| !oc.contains(p)).count() as f64 / 400.0;
            // ν is an upper bound on the training rejection fraction (and
            // asymptotically equal); allow generous slack.
            assert!(
                rejected <= nu + 0.08,
                "nu = {nu}: rejected {rejected} of training data"
            );
        }
    }

    #[test]
    fn larger_nu_shrinks_the_support() {
        let mut rng = StdRng::seed_from_u64(3);
        let pts = cloud(&mut rng, 300);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let tight = OneClassSvm::train(&refs, &params(0.5)).unwrap();
        let loose = OneClassSvm::train(&refs, &params(0.05)).unwrap();
        let tight_inside = refs.iter().filter(|p| tight.contains(p)).count();
        let loose_inside = refs.iter().filter(|p| loose.contains(p)).count();
        assert!(
            loose_inside > tight_inside,
            "nu=0.05 keeps {loose_inside}, nu=0.5 keeps {tight_inside}"
        );
    }

    #[test]
    fn decision_decreases_with_distance_from_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let pts = cloud(&mut rng, 200);
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let oc = OneClassSvm::train(&refs, &params(0.1)).unwrap();
        let v0 = oc.decision_value(&[0.0, 0.0]);
        let v2 = oc.decision_value(&[2.0, 0.0]);
        let v5 = oc.decision_value(&[5.0, 0.0]);
        assert!(v0 > v2 && v2 > v5, "decision must decay with distance: {v0} {v2} {v5}");
    }

    #[test]
    fn rejects_invalid_inputs() {
        let pts = [vec![0.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        assert!(OneClassSvm::train(&[], &params(0.1)).is_err());
        assert!(OneClassSvm::train(&refs, &params(0.0)).is_err());
        assert!(OneClassSvm::train(&refs, &params(1.0)).is_err());
    }

    #[test]
    fn single_point_support() {
        let pts = [vec![1.0, 2.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let oc = OneClassSvm::train(&refs, &params(0.5)).unwrap();
        // The lone training point is the most inside point there is.
        assert!(oc.decision_value(&[1.0, 2.0]) >= oc.decision_value(&[4.0, 4.0]));
    }
}
