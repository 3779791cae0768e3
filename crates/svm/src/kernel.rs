/// Kernel functions for the SVM solvers.
///
/// The grid searches in the paper (§4.1.2) sweep the RBF `gamma`; the
/// 1-vs-Set machine is linear by construction (its slab geometry only makes
/// sense in the primal feature space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kernel {
    /// `K(x, y) = ⟨x, y⟩`.
    Linear,
    /// `K(x, y) = exp(−γ ‖x − y‖²)`.
    Rbf {
        /// Bandwidth γ (> 0).
        gamma: f64,
    },
    /// `K(x, y) = (γ ⟨x, y⟩ + c₀)^degree`.
    Poly {
        /// Scale γ.
        gamma: f64,
        /// Offset c₀.
        coef0: f64,
        /// Polynomial degree (≥ 1).
        degree: u32,
    },
}

impl Kernel {
    /// Evaluate the kernel on a pair of points.
    ///
    /// # Panics
    /// Panics on dimension mismatch (debug builds assert inside `dot`).
    #[inline]
    pub fn eval(&self, a: &[f64], b: &[f64]) -> f64 {
        match *self {
            Kernel::Linear => osr_linalg::vector::dot(a, b),
            Kernel::Rbf { gamma } => (-gamma * osr_linalg::vector::dist_sq(a, b)).exp(),
            Kernel::Poly { gamma, coef0, degree } => {
                (gamma * osr_linalg::vector::dot(a, b) + coef0).powi(degree as i32)
            }
        }
    }

    /// A reasonable default RBF bandwidth for `dim`-dimensional data
    /// (LIBSVM's `1 / num_features` heuristic — only sensible when features
    /// are scaled to unit-ish variance; prefer
    /// [`Kernel::rbf_for_data`] when the data is at hand).
    pub fn default_rbf(dim: usize) -> Self {
        Kernel::Rbf { gamma: 1.0 / dim.max(1) as f64 }
    }

    /// Data-driven RBF bandwidth: `γ = 1 / (d · mean per-dimension
    /// variance)`, LIBSVM's `-g 1/(num_features * variance)` "scale"
    /// heuristic. This makes the expected within-cloud squared distance map
    /// to an O(1) kernel exponent regardless of feature scaling.
    pub fn rbf_for_data(points: &[&[f64]]) -> Self {
        let d = points.first().map_or(0, |p| p.len());
        if d == 0 || points.len() < 2 {
            return Self::default_rbf(d);
        }
        let n = points.len() as f64;
        let mut mean = vec![0.0; d];
        for p in points {
            for (m, &x) in mean.iter_mut().zip(*p) {
                *m += x;
            }
        }
        for m in &mut mean {
            *m /= n;
        }
        let mut var_sum = 0.0;
        for p in points {
            for (m, &x) in mean.iter().zip(*p) {
                var_sum += (x - m) * (x - m);
            }
        }
        let mean_var = var_sum / (n * d as f64);
        if mean_var <= 0.0 || !mean_var.is_finite() {
            return Self::default_rbf(d);
        }
        Kernel::Rbf { gamma: 1.0 / (d as f64 * mean_var) }
    }

    /// Validate parameter ranges.
    pub fn validate(&self) -> crate::Result<()> {
        match *self {
            Kernel::Linear => Ok(()),
            Kernel::Rbf { gamma } => {
                if gamma > 0.0 && gamma.is_finite() {
                    Ok(())
                } else {
                    Err(crate::SvmError::InvalidParameter(format!(
                        "RBF gamma must be positive, got {gamma}"
                    )))
                }
            }
            Kernel::Poly { degree, gamma, .. } => {
                if degree == 0 {
                    Err(crate::SvmError::InvalidParameter("poly degree must be ≥ 1".into()))
                } else if !(gamma.is_finite() && gamma > 0.0) {
                    Err(crate::SvmError::InvalidParameter(format!(
                        "poly gamma must be positive, got {gamma}"
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_is_dot_product() {
        let k = Kernel::Linear;
        assert_eq!(k.eval(&[1.0, 2.0], &[3.0, -1.0]), 1.0);
    }

    #[test]
    fn rbf_is_one_at_zero_distance_and_decays() {
        let k = Kernel::Rbf { gamma: 0.5 };
        assert_eq!(k.eval(&[1.0, 1.0], &[1.0, 1.0]), 1.0);
        let near = k.eval(&[0.0, 0.0], &[0.5, 0.0]);
        let far = k.eval(&[0.0, 0.0], &[3.0, 0.0]);
        assert!(near > far && far > 0.0);
        // exp(-0.5 * 0.25)
        assert!((near - (-0.125f64).exp()).abs() < 1e-14);
    }

    #[test]
    fn poly_matches_closed_form() {
        let k = Kernel::Poly { gamma: 2.0, coef0: 1.0, degree: 3 };
        // (2*1 + 1)^3 = 27 with <x,y> = 1
        assert_eq!(k.eval(&[1.0, 0.0], &[1.0, 5.0]), 27.0);
    }

    #[test]
    fn kernels_are_symmetric() {
        let a = [0.3, -1.2, 2.0];
        let b = [1.1, 0.0, -0.7];
        for k in [
            Kernel::Linear,
            Kernel::Rbf { gamma: 0.7 },
            Kernel::Poly { gamma: 0.5, coef0: 1.0, degree: 2 },
        ] {
            assert!((k.eval(&a, &b) - k.eval(&b, &a)).abs() < 1e-14);
        }
    }

    #[test]
    fn validation_rejects_bad_parameters() {
        assert!(Kernel::Rbf { gamma: 0.0 }.validate().is_err());
        assert!(Kernel::Rbf { gamma: f64::NAN }.validate().is_err());
        assert!(Kernel::Poly { gamma: 1.0, coef0: 0.0, degree: 0 }.validate().is_err());
        assert!(Kernel::Linear.validate().is_ok());
        assert!(Kernel::default_rbf(16).validate().is_ok());
    }

    #[test]
    fn default_rbf_uses_dimension_heuristic() {
        match Kernel::default_rbf(25) {
            Kernel::Rbf { gamma } => assert!((gamma - 0.04).abs() < 1e-15),
            _ => unreachable!(),
        }
    }
}
