//! The Normal–Inverse-Wishart (NIW) conjugate family.
//!
//! The paper places a Gaussian–Wishart prior on the parameters of each
//! mixture component (Eq. 9): `H = N(μ | μ₀, (βΛ)⁻¹) · W(Λ | Σ₀, ν)` on the
//! precision Λ. This module implements the textbook-equivalent
//! parameterization on the covariance, `μ | Σ ~ N(μ₀, Σ/κ₀)`,
//! `Σ ~ IW(Ψ₀, ν₀)` with `κ₀ = β`. Both forms produce the identical
//! multivariate Student-t posterior predictive, which is the only quantity
//! the collapsed Gibbs sampler ever evaluates.
//!
//! [`NiwPosterior`] maintains the posterior after absorbing a set of points
//! with **O(d²) add/remove** via rank-1 Cholesky updates of the posterior
//! scale matrix, using the identity
//!
//! ```text
//! Ψ_{n+1} = Ψ_n + κ_n/(κ_n + 1) · (x − μ_n)(x − μ_n)'
//! ```
//!
//! so moving an observation between mixture components (the inner loop of
//! the sampler) never refactorizes a matrix.
//!
//! [`NiwPosterior`] is the scalar reference implementation: every dish
//! posterior the program scores lives in a [`crate::DishBank`], whose
//! kernels the bank-equivalence suite, the property tests and the benches
//! compare against this type bit for bit.

use serde::{Deserialize, Serialize};

use osr_linalg::{vector, Cholesky, LinalgError, Matrix};

use crate::mvn::mvt_logpdf_scaled;
use crate::special::{ln_gamma, ln_multigamma};
use crate::{Result, StatsError};

/// Hyperparameters of the NIW prior (the paper's base distribution `H`).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NiwParams {
    /// Prior mean μ₀ (paper: mean of the training samples).
    pub mu0: Vec<f64>,
    /// Prior pseudo-count κ₀ on the mean (paper's scaling constant β).
    pub kappa0: f64,
    /// Prior degrees of freedom ν₀ (must exceed `d − 1`).
    pub nu0: f64,
    /// Prior scale matrix Ψ₀ (paper's Σ₀, Eq. 10: ρ × pooled covariance).
    psi0: Matrix,
    /// Cached Cholesky factor of Ψ₀.
    psi0_chol: Cholesky,
    /// Cached log |Ψ₀|.
    log_det_psi0: f64,
}

impl NiwParams {
    /// Validate and build NIW hyperparameters.
    ///
    /// # Errors
    /// Rejects `kappa0 <= 0`, `nu0 <= d − 1`, shape mismatches, and a
    /// non-SPD scale matrix.
    pub fn new(mu0: Vec<f64>, kappa0: f64, nu0: f64, psi0: Matrix) -> Result<Self> {
        let d = mu0.len();
        if d == 0 {
            return Err(StatsError::InvalidParameter("dimension must be positive".into()));
        }
        if psi0.rows() != d || psi0.cols() != d {
            return Err(StatsError::InvalidParameter(format!(
                "scale matrix is {}x{} but mean has dimension {d}",
                psi0.rows(),
                psi0.cols()
            )));
        }
        if !(kappa0 > 0.0) {
            return Err(StatsError::InvalidParameter(format!("kappa0 must be > 0, got {kappa0}")));
        }
        if !(nu0 > d as f64 - 1.0) {
            return Err(StatsError::InvalidParameter(format!(
                "nu0 must exceed d - 1 = {}, got {nu0}",
                d - 1
            )));
        }
        let psi0_chol = Cholesky::factor(&psi0)?;
        let log_det_psi0 = psi0_chol.log_det();
        Ok(Self { mu0, kappa0, nu0, psi0, psi0_chol, log_det_psi0 })
    }

    /// Feature dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.mu0.len()
    }

    /// Borrow the prior scale matrix Ψ₀.
    #[inline]
    pub fn psi0(&self) -> &Matrix {
        &self.psi0
    }

    /// Cached Cholesky factor of Ψ₀ (the dish bank seeds new slots from it).
    #[inline]
    pub(crate) fn psi0_chol(&self) -> &Cholesky {
        &self.psi0_chol
    }

    /// Cached log |Ψ₀| (used by the bank's closed-form marginal).
    #[inline]
    pub(crate) fn log_det_psi0(&self) -> f64 {
        self.log_det_psi0
    }

    /// Append the canonical state (μ₀, κ₀, ν₀, dense Ψ₀) to a snapshot
    /// payload. The cached factor and log-determinant are *not* written:
    /// [`Self::decode_from`] rebuilds them through the exact
    /// [`NiwParams::new`] sequence, so the round trip is bit-identical.
    pub fn encode_into(&self, enc: &mut crate::snapshot::Enc) {
        enc.put_usize(self.dim());
        enc.put_f64_slice(&self.mu0);
        enc.put_f64(self.kappa0);
        enc.put_f64(self.nu0);
        enc.put_f64_slice(self.psi0.as_slice());
    }

    /// Decode hyperparameters written by [`Self::encode_into`], revalidating
    /// them exactly as [`NiwParams::new`] does.
    ///
    /// # Errors
    /// Typed [`crate::snapshot::SnapshotError`] on truncation or on values
    /// that fail the constructor's validation.
    pub fn decode_from(
        dec: &mut crate::snapshot::Dec<'_>,
    ) -> crate::snapshot::SnapResult<Self> {
        use crate::snapshot::SnapshotError;
        let d = dec.count(8, "NiwParams dim")?;
        let mu0 = dec.f64_vec(d, "NiwParams mu0")?;
        let kappa0 = dec.f64("NiwParams kappa0")?;
        let nu0 = dec.f64("NiwParams nu0")?;
        let dd = d.checked_mul(d).ok_or_else(|| {
            SnapshotError::Malformed(format!("NiwParams dim {d} overflows"))
        })?;
        let psi0 = Matrix::from_vec(d, d, dec.f64_vec(dd, "NiwParams psi0")?);
        Self::new(mu0, kappa0, nu0, psi0)
            .map_err(|e| SnapshotError::Malformed(format!("NiwParams: {e}")))
    }
}

/// NIW posterior state after absorbing `n ≥ 0` observations — the scalar
/// reference for one [`crate::DishBank`] slot (see the module docs).
///
/// With `n = 0` this is exactly the prior, and
/// [`predictive_logpdf`](Self::predictive_logpdf) is then the prior
/// predictive `p(x)` that appears in the CRF sampling equations (Eq. 7/8)
/// for new tables and new dishes.
#[derive(Debug, Clone)]
pub struct NiwPosterior {
    n: usize,
    kappa: f64,
    nu: f64,
    mu: Vec<f64>,
    psi_chol: Cholesky,
}

impl NiwPosterior {
    /// Posterior with no observations (the prior itself).
    pub fn from_prior(params: &NiwParams) -> Self {
        Self {
            n: 0,
            kappa: params.kappa0,
            nu: params.nu0,
            mu: params.mu0.clone(),
            psi_chol: params.psi0_chol.clone(),
        }
    }

    /// Posterior absorbing every point in `points` (rows).
    pub fn from_points(params: &NiwParams, points: &[&[f64]]) -> Self {
        let mut post = Self::from_prior(params);
        for p in points {
            post.add(p);
        }
        post
    }

    /// Number of absorbed observations.
    #[inline]
    pub fn count(&self) -> usize {
        self.n
    }

    /// Feature dimension.
    #[inline]
    pub fn dim(&self) -> usize {
        self.mu.len()
    }

    /// Posterior mean location μₙ.
    #[inline]
    pub fn mean(&self) -> &[f64] {
        &self.mu
    }

    /// Posterior expectation of the component covariance,
    /// `E[Σ] = Ψₙ / (νₙ − d − 1)` (defined for `νₙ > d + 1`; returns `None`
    /// otherwise).
    pub fn expected_cov(&self) -> Option<Matrix> {
        let d = self.dim() as f64;
        let denom = self.nu - d - 1.0;
        if denom <= 0.0 {
            return None;
        }
        let mut psi = self.psi_chol.reconstruct();
        psi.scale_in_place(1.0 / denom);
        Some(psi)
    }

    /// Absorb one observation (O(d²)).
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn add(&mut self, x: &[f64]) {
        let d = self.dim();
        assert_eq!(x.len(), d, "NiwPosterior::add: dimension mismatch");
        let kappa_new = self.kappa + 1.0;
        // Rank-1 update direction: sqrt(κ/(κ+1)) (x − μ).
        let coef = (self.kappa / kappa_new).sqrt();
        let mut dir = vector::sub(x, &self.mu);
        vector::scale(coef, &mut dir);
        self.psi_chol.update(&dir);
        for (m, &xi) in self.mu.iter_mut().zip(x) {
            *m = (self.kappa * *m + xi) / kappa_new;
        }
        self.kappa = kappa_new;
        self.nu += 1.0;
        self.n += 1;
    }

    /// Remove one previously absorbed observation (O(d²)).
    ///
    /// The caller is responsible for only removing points that were added;
    /// removing a foreign point corrupts the state. If round-off makes the
    /// Cholesky downdate fail, the factor is rebuilt densely (O(d³)) — the
    /// operation never fails for legitimate removals.
    ///
    /// # Panics
    /// Panics on dimension mismatch or when `count() == 0`.
    pub fn remove(&mut self, x: &[f64]) {
        let d = self.dim();
        assert_eq!(x.len(), d, "NiwPosterior::remove: dimension mismatch");
        assert!(self.n > 0, "NiwPosterior::remove: no observations to remove");
        let kappa_new = self.kappa - 1.0;
        // New mean first: μ' = (κ μ − x) / κ'.
        let mut mu_new = vec![0.0; d];
        for (m_new, (&m, &xi)) in mu_new.iter_mut().zip(self.mu.iter().zip(x)) {
            *m_new = (self.kappa * m - xi) / kappa_new;
        }
        // Downdate direction: sqrt(κ'/κ) (x − μ').
        let coef = (kappa_new / self.kappa).sqrt();
        let mut dir = vector::sub(x, &mu_new);
        vector::scale(coef, &mut dir);
        if self.psi_chol.downdate(&dir).is_err() {
            // Round-off rescue: rebuild the factor densely with a hair of
            // jitter. Ψ' = Ψ − dir dir' is SPD in exact arithmetic.
            let mut psi = self.psi_chol.reconstruct();
            psi.syr(-1.0, &dir);
            psi.symmetrize();
            match factor_spd_with_jitter(&psi) {
                Ok((chol, _)) => self.psi_chol = chol,
                Err(_) => {
                    // Ψ' = Ψ − dir dir' is SPD in exact arithmetic, so only
                    // non-finite input can land here. Poison the divergence
                    // flag (the serving watchdog aborts the sweep and
                    // retries/degrades) and install a structurally valid
                    // stand-in factor so unwinding bookkeeping stays safe.
                    crate::divergence::poison("Ψ downdate not SPD past the jitter ladder");
                    self.psi_chol = Cholesky::factor(&Matrix::identity(d))
                        .expect("identity is SPD");
                }
            }
        }
        self.mu = mu_new;
        self.kappa = kappa_new;
        self.nu -= 1.0;
        self.n -= 1;
    }

    /// Posterior predictive log-density at `x`: multivariate Student-t with
    /// `df = νₙ − d + 1`, location μₙ, scale `Ψₙ (κₙ + 1) / (κₙ df)`.
    pub fn predictive_logpdf(&self, x: &[f64]) -> f64 {
        crate::counters::record_predictive_logpdf();
        let d = self.dim() as f64;
        let df = self.nu - d + 1.0;
        let scale = (self.kappa + 1.0) / (self.kappa * df);
        mvt_logpdf_scaled(x, &self.mu, &self.psi_chol, scale.ln(), df)
    }

    /// Joint predictive log-density of a block of points given the current
    /// state, via the chain rule (the state is restored before returning).
    /// This is the `∏_{i: t_ji = t} p(x_ji | ·)` factor in the dish-sampling
    /// step (Eq. 8).
    pub fn block_predictive_logpdf(&mut self, points: &[&[f64]]) -> f64 {
        let mut acc = 0.0;
        for p in points {
            acc += self.predictive_logpdf(p);
            self.add(p);
        }
        for p in points.iter().rev() {
            self.remove(p);
        }
        acc
    }

    /// Closed-form log marginal likelihood of the `n` absorbed points under
    /// the prior `params`:
    ///
    /// ```text
    /// ln m(X) = −(n d / 2) ln π + ln Γ_d(νₙ/2) − ln Γ_d(ν₀/2)
    ///           + (ν₀/2) ln |Ψ₀| − (νₙ/2) ln |Ψₙ| + (d/2)(ln κ₀ − ln κₙ)
    /// ```
    pub fn log_marginal(&self, params: &NiwParams) -> f64 {
        let d = self.dim();
        let dd = d as f64;
        let n = self.n as f64;
        -(n * dd / 2.0) * std::f64::consts::PI.ln()
            + ln_multigamma(d, self.nu / 2.0)
            - ln_multigamma(d, params.nu0 / 2.0)
            + (params.nu0 / 2.0) * params.log_det_psi0
            - (self.nu / 2.0) * self.psi_chol.log_det()
            + (dd / 2.0) * (params.kappa0.ln() - self.kappa.ln())
    }
}

/// Factor an SPD-up-to-roundoff matrix, adding exponentially growing jitter
/// to the diagonal when plain factorization fails.
///
/// Returns the factor together with the jitter that had to be added (`0.0`
/// when the matrix factorized as-is), so callers that need the *matrix* —
/// not just its factor — can apply the same repair (e.g. building
/// [`NiwParams`] from a rank-deficient pooled covariance).
///
/// # Errors
/// Fails when no jitter up to `1e7 ×` the mean diagonal magnitude makes the
/// matrix factorizable (non-finite entries, in practice).
pub fn factor_spd_with_jitter(a: &Matrix) -> std::result::Result<(Cholesky, f64), LinalgError> {
    match Cholesky::factor(a) {
        Ok(c) => Ok((c, 0.0)),
        Err(_) => {
            let scale = a.trace().abs().max(1e-300) / a.rows() as f64;
            let mut jitter = 1e-12 * scale;
            for _ in 0..20 {
                let mut aj = a.clone();
                for i in 0..a.rows() {
                    aj[(i, i)] += jitter;
                }
                if let Ok(c) = Cholesky::factor(&aj) {
                    return Ok((c, jitter));
                }
                jitter *= 10.0;
            }
            Err(LinalgError::NotPositiveDefinite { pivot: 0, value: f64::NAN })
        }
    }
}

/// One-dimensional sanity helper used by tests and the docs: the Student-t
/// predictive of a 1-d NIW with parameters (μ, κ, ν, ψ).
#[doc(hidden)]
pub fn univariate_predictive_logpdf(x: f64, mu: f64, kappa: f64, nu: f64, psi: f64) -> f64 {
    let df = nu; // d = 1 ⇒ df = ν − 1 + 1 = ν
    let scale = psi * (kappa + 1.0) / (kappa * df);
    ln_gamma((df + 1.0) / 2.0)
        - ln_gamma(df / 2.0)
        - 0.5 * (df * std::f64::consts::PI * scale).ln()
        - 0.5 * (df + 1.0) * (1.0 + (x - mu) * (x - mu) / (df * scale)).ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params2() -> NiwParams {
        NiwParams::new(
            vec![0.0, 0.0],
            1.0,
            4.0,
            Matrix::from_rows(&[vec![1.0, 0.2], vec![0.2, 1.5]]),
        )
        .unwrap()
    }

    fn pts() -> Vec<Vec<f64>> {
        vec![
            vec![0.5, -0.3],
            vec![1.2, 0.8],
            vec![-0.7, 0.1],
            vec![0.3, 1.9],
            vec![-1.5, -0.9],
        ]
    }

    #[test]
    fn params_codec_roundtrip_is_bit_identical() {
        let p = params2();
        let mut enc = crate::snapshot::Enc::new();
        p.encode_into(&mut enc);
        let bytes = enc.into_bytes();

        let mut dec = crate::snapshot::Dec::new(&bytes);
        let p2 = NiwParams::decode_from(&mut dec).unwrap();
        dec.finish("params").unwrap();
        assert_eq!(p.mu0, p2.mu0);
        assert_eq!(p.kappa0.to_bits(), p2.kappa0.to_bits());
        assert_eq!(p.log_det_psi0.to_bits(), p2.log_det_psi0.to_bits());

        let mut enc2 = crate::snapshot::Enc::new();
        p2.encode_into(&mut enc2);
        assert_eq!(bytes, enc2.into_bytes(), "re-encode must be byte-identical");
    }

    #[test]
    fn rejects_bad_hyperparameters() {
        let psi = Matrix::identity(2);
        assert!(NiwParams::new(vec![0.0; 2], 0.0, 4.0, psi.clone()).is_err());
        assert!(NiwParams::new(vec![0.0; 2], 1.0, 0.5, psi.clone()).is_err());
        assert!(NiwParams::new(vec![0.0; 3], 1.0, 4.0, psi.clone()).is_err());
        let not_spd = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert!(NiwParams::new(vec![0.0; 2], 1.0, 4.0, not_spd).is_err());
        assert!(NiwParams::new(vec![], 1.0, 4.0, Matrix::zeros(0, 0)).is_err());
    }

    #[test]
    fn add_remove_roundtrip_restores_state() {
        let p = params2();
        let mut post = NiwPosterior::from_prior(&p);
        let x = [0.7, -1.1];
        let before_mu = post.mean().to_vec();
        let before_ld = post.psi_chol.log_det();
        post.add(&x);
        post.add(&[2.0, 0.1]);
        post.remove(&[2.0, 0.1]);
        post.remove(&x);
        assert_eq!(post.count(), 0);
        for (a, b) in post.mean().iter().zip(&before_mu) {
            assert!((a - b).abs() < 1e-10);
        }
        assert!((post.psi_chol.log_det() - before_ld).abs() < 1e-9);
    }

    #[test]
    fn chain_rule_equals_closed_form_marginal() {
        let p = params2();
        let data = pts();
        // Sum of sequential predictives…
        let mut post = NiwPosterior::from_prior(&p);
        let mut chain = 0.0;
        for x in &data {
            chain += post.predictive_logpdf(x);
            post.add(x);
        }
        // …must equal the closed-form marginal of the final posterior.
        let closed = post.log_marginal(&p);
        assert!(
            (chain - closed).abs() < 1e-8,
            "chain rule {chain} vs closed form {closed}"
        );
    }

    #[test]
    fn marginal_is_exchangeable() {
        let p = params2();
        let data = pts();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let post1 = NiwPosterior::from_points(&p, &refs);
        let mut rev = refs.clone();
        rev.reverse();
        let post2 = NiwPosterior::from_points(&p, &rev);
        assert!((post1.log_marginal(&p) - post2.log_marginal(&p)).abs() < 1e-8);
    }

    #[test]
    fn block_predictive_is_side_effect_free_and_correct() {
        let p = params2();
        let data = pts();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let mut post = NiwPosterior::from_prior(&p);
        post.add(&[3.0, 3.0]);
        let before_mu = post.mean().to_vec();
        let before_n = post.count();

        let block = post.block_predictive_logpdf(&refs);

        assert_eq!(post.count(), before_n);
        for (a, b) in post.mean().iter().zip(&before_mu) {
            assert!((a - b).abs() < 1e-9);
        }
        // Cross-check against explicit chain evaluation.
        let mut clone = post.clone();
        let mut expect = 0.0;
        for x in &refs {
            expect += clone.predictive_logpdf(x);
            clone.add(x);
        }
        assert!((block - expect).abs() < 1e-8);
    }

    #[test]
    fn posterior_mean_moves_toward_data() {
        let p = params2();
        let mut post = NiwPosterior::from_prior(&p);
        for _ in 0..50 {
            post.add(&[10.0, -10.0]);
        }
        assert!((post.mean()[0] - 10.0).abs() < 0.25);
        assert!((post.mean()[1] + 10.0).abs() < 0.25);
    }

    #[test]
    fn predictive_prefers_seen_region() {
        let p = params2();
        let mut post = NiwPosterior::from_prior(&p);
        for x in pts() {
            post.add(&x);
        }
        let near = post.predictive_logpdf(&[0.0, 0.2]);
        let far = post.predictive_logpdf(&[25.0, -30.0]);
        assert!(near > far + 10.0, "near {near} should dominate far {far}");
    }

    #[test]
    fn univariate_predictive_matches_module_helper() {
        let p = NiwParams::new(vec![0.5], 2.0, 3.0, Matrix::from_rows(&[vec![1.2]])).unwrap();
        let post = NiwPosterior::from_prior(&p);
        let via_mv = post.predictive_logpdf(&[1.4]);
        let via_uv = univariate_predictive_logpdf(1.4, 0.5, 2.0, 3.0, 1.2);
        assert!((via_mv - via_uv).abs() < 1e-10);
    }

    #[test]
    fn predictive_integrates_to_one_1d() {
        let p = NiwParams::new(vec![0.0], 1.0, 5.0, Matrix::from_rows(&[vec![2.0]])).unwrap();
        let mut post = NiwPosterior::from_prior(&p);
        post.add(&[1.0]);
        post.add(&[-0.5]);
        let step = 0.01;
        let mut acc = 0.0;
        let mut x = -60.0;
        while x <= 60.0 {
            acc += post.predictive_logpdf(&[x]).exp() * step;
            x += step;
        }
        assert!((acc - 1.0).abs() < 5e-3, "predictive integral = {acc}");
    }

    #[test]
    fn expected_cov_requires_enough_dof() {
        let p = params2(); // nu0 = 4, d = 2 ⇒ ν − d − 1 = 1 > 0
        let post = NiwPosterior::from_prior(&p);
        assert!(post.expected_cov().is_some());
        let tight =
            NiwParams::new(vec![0.0, 0.0], 1.0, 2.5, Matrix::identity(2)).unwrap();
        assert!(NiwPosterior::from_prior(&tight).expected_cov().is_none());
    }

    #[test]
    #[should_panic(expected = "no observations to remove")]
    fn remove_from_empty_panics() {
        let p = params2();
        let mut post = NiwPosterior::from_prior(&p);
        post.remove(&[0.0, 0.0]);
    }

    #[test]
    fn jitter_factor_passes_spd_through_unchanged() {
        let a = Matrix::from_rows(&[vec![2.0, 0.3], vec![0.3, 1.5]]);
        let (c, jitter) = factor_spd_with_jitter(&a).unwrap();
        assert_eq!(jitter, 0.0, "SPD input must not be jittered");
        let plain = Cholesky::factor(&a).unwrap();
        assert!((c.log_det() - plain.log_det()).abs() < 1e-12);
    }

    #[test]
    fn jitter_factor_repairs_rank_deficient_matrix() {
        // vv' is rank 1 in 3-d: plain factorization must fail, escalating
        // jitter must repair it with a small perturbation.
        let v = [1.0, -2.0, 0.5];
        let mut a = Matrix::zeros(3, 3);
        a.syr(1.0, &v);
        a.symmetrize();
        assert!(Cholesky::factor(&a).is_err());
        let (c, jitter) = factor_spd_with_jitter(&a).unwrap();
        assert!(jitter > 0.0);
        // The repair is tiny relative to the matrix scale…
        assert!(jitter < 1e-3 * a.trace() / 3.0, "jitter {jitter} too large");
        // …and the returned factor reconstructs the jittered matrix.
        let rec = c.reconstruct();
        for i in 0..3 {
            for j in 0..3 {
                let expect = a[(i, j)] + if i == j { jitter } else { 0.0 };
                assert!((rec[(i, j)] - expect).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn jitter_escalates_until_factorization_succeeds() {
        // A matrix needing more than the first jitter step: rank-1 with a
        // slightly *negative* eigenvalue direction mixed in.
        let v = [1.0, 1.0];
        let mut a = Matrix::zeros(2, 2);
        a.syr(1.0, &v);
        a[(0, 0)] -= 1e-9;
        a.symmetrize();
        let (_, jitter) = factor_spd_with_jitter(&a).unwrap();
        // The escalation scale is trace-relative, so allow a hair under 1e-9.
        assert!(jitter >= 0.9e-9, "needed at least the negative-bump scale, got {jitter}");
    }

    #[test]
    fn jitter_factor_rejects_non_finite_input() {
        let a = Matrix::from_rows(&[vec![f64::NAN, 0.0], vec![0.0, 1.0]]);
        assert!(factor_spd_with_jitter(&a).is_err());
    }

    #[test]
    fn predictive_calls_are_counted() {
        let p = params2();
        let post = NiwPosterior::from_prior(&p);
        // Other tests may run concurrently, so only the lower bound is exact.
        let before = crate::counters::predictive_logpdf_calls();
        for _ in 0..5 {
            let _ = post.predictive_logpdf(&[0.1, 0.2]);
        }
        assert!(crate::counters::predictive_logpdf_calls() - before >= 5);
    }
}
