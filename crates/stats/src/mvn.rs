//! The multivariate Student-t log-density: the posterior predictive of the
//! Normal–Inverse-Wishart family. [`crate::NiwPosterior`], the scalar test
//! oracle, evaluates it directly; the [`crate::DishBank`] kernels fold its
//! constants per dish and must match it bit for bit.

use osr_linalg::{vector, Cholesky};

use crate::special::ln_gamma;

/// Log-density of the multivariate Student-t with `df` degrees of freedom,
/// location `mu`, and scale matrix factored as `scale_chol`, evaluated at
/// `x`. The `extra_log_scale` argument lets callers reuse one Cholesky for a
/// family of scale matrices `c · Ψ`: pass `ln c` and the quadratic form and
/// log-determinant are adjusted analytically instead of refactorizing.
///
/// # Panics
/// Panics on dimension mismatch or non-positive `df`.
pub fn mvt_logpdf_scaled(
    x: &[f64],
    mu: &[f64],
    scale_chol: &Cholesky,
    extra_log_scale: f64,
    df: f64,
) -> f64 {
    let d = mu.len();
    assert_eq!(x.len(), d, "mvt_logpdf: x dimension mismatch");
    assert_eq!(scale_chol.dim(), d, "mvt_logpdf: scale dimension mismatch");
    assert!(df > 0.0, "mvt_logpdf: df must be positive, got {df}");
    let dd = d as f64;
    let diff = vector::sub(x, mu);
    // Quadratic form under c·Ψ is (1/c) times the form under Ψ.
    let maha = scale_chol.inv_quad_form(&diff) / extra_log_scale.exp();
    let log_det = scale_chol.log_det() + dd * extra_log_scale;
    ln_gamma((df + dd) / 2.0)
        - ln_gamma(df / 2.0)
        - 0.5 * dd * (df * std::f64::consts::PI).ln()
        - 0.5 * log_det
        - 0.5 * (df + dd) * (1.0 + maha / df).ln()
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_linalg::Matrix;

    #[test]
    fn mvt_converges_to_mvn_for_large_df() {
        let cov = Matrix::from_rows(&[vec![1.5, 0.3], vec![0.3, 0.8]]);
        let chol = Cholesky::factor(&cov).unwrap();
        let x = [0.7, -0.4];
        let mu = [0.1, 0.2];
        let t = mvt_logpdf_scaled(&x, &mu, &chol, 0.0, 1e7);
        // Normal log-density under the same covariance.
        let maha = chol.inv_quad_form(&vector::sub(&x, &mu));
        let n = -0.5 * (2.0 * (2.0 * std::f64::consts::PI).ln() + chol.log_det() + maha);
        assert!((t - n).abs() < 1e-4, "t({t}) should approach normal({n})");
    }

    #[test]
    fn mvt_univariate_matches_standard_t() {
        // Standard t with 3 dof at x = 1: logpdf = ln Γ(2) - ln Γ(1.5)
        //   - 0.5 ln(3π) - 2 ln(1 + 1/3)
        let chol = Cholesky::factor(&Matrix::identity(1)).unwrap();
        let lp = mvt_logpdf_scaled(&[1.0], &[0.0], &chol, 0.0, 3.0);
        let expect = ln_gamma(2.0)
            - ln_gamma(1.5)
            - 0.5 * (3.0 * std::f64::consts::PI).ln()
            - 2.0 * (4.0f64 / 3.0).ln();
        assert!((lp - expect).abs() < 1e-12);
    }

    #[test]
    fn scaled_variant_matches_explicit_scaling() {
        let psi = Matrix::from_rows(&[vec![2.0, 0.5], vec![0.5, 1.0]]);
        let c: f64 = 0.37;
        let scaled = &psi * c;
        let chol_psi = Cholesky::factor(&psi).unwrap();
        let chol_scaled = Cholesky::factor(&scaled).unwrap();
        let x = [0.3, -1.2];
        let mu = [0.0, 0.5];
        let df = 5.0;
        let fast = mvt_logpdf_scaled(&x, &mu, &chol_psi, c.ln(), df);
        let direct = mvt_logpdf_scaled(&x, &mu, &chol_scaled, 0.0, df);
        assert!((fast - direct).abs() < 1e-10, "{fast} vs {direct}");
    }
}
