//! Class-conditional Gaussian-mixture generators.
//!
//! Each synthetic class is a mixture of a few Gaussian *subclusters* — the
//! structure the paper's HDP-OSR explicitly models ("subclasses", Tables
//! 1–2: e.g. USPS digit '3' spreads over 7 subclasses while '2' is almost
//! unimodal). Components use a diagonal-plus-low-rank covariance
//! `Σ = D + Σ_r u_r u_rᵀ`, which keeps sampling O(d) per point even for the
//! 256-dimensional USPS replica while still producing correlated,
//! non-axis-aligned clusters.

use rand::Rng;

use osr_stats::sampling;

/// One Gaussian subcluster with diagonal-plus-low-rank covariance.
#[derive(Debug, Clone)]
pub struct ComponentSpec {
    /// Component mean.
    pub mean: Vec<f64>,
    /// Per-dimension standard deviations (the diagonal part `D^{1/2}`).
    pub diag_std: Vec<f64>,
    /// Low-rank correlation factors: each `u_r` adds `u_r u_rᵀ` to the
    /// covariance (a shared scalar normal is injected along `u_r`).
    pub factors: Vec<Vec<f64>>,
}

impl ComponentSpec {
    /// Draw one sample: `mean + D^{1/2} z + Σ_r u_r g_r`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let mut x = self.mean.clone();
        for (xi, sd) in x.iter_mut().zip(&self.diag_std) {
            *xi += sd * sampling::standard_normal(rng);
        }
        for u in &self.factors {
            let g = sampling::standard_normal(rng);
            for (xi, ui) in x.iter_mut().zip(u) {
                *xi += g * ui;
            }
        }
        x
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.mean.len()
    }
}

/// A full class: weighted mixture of subclusters.
#[derive(Debug, Clone)]
pub struct GmmClassSpec {
    /// Mixture weights (positive, summing to 1).
    pub weights: Vec<f64>,
    /// Subcluster specifications, parallel to `weights`.
    pub components: Vec<ComponentSpec>,
}

impl GmmClassSpec {
    /// Number of subclusters.
    pub fn n_components(&self) -> usize {
        self.components.len()
    }

    /// Draw one sample from the mixture.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<f64> {
        let c = sampling::categorical(rng, &self.weights);
        self.components[c].sample(rng)
    }

    /// Draw `n` samples.
    pub fn sample_n<R: Rng + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<Vec<f64>> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Parameters controlling how a random class spec is drawn.
#[derive(Debug, Clone)]
pub struct ClassSpecConfig {
    /// Feature dimension.
    pub dim: usize,
    /// Inclusive range for the number of subclusters.
    pub subclusters: (usize, usize),
    /// Standard deviation of subcluster centers around the class center
    /// (controls how multi-modal the class looks).
    pub mode_spread: f64,
    /// Base within-subcluster standard deviation.
    pub width: f64,
    /// Number of low-rank correlation factors per subcluster.
    pub n_factors: usize,
    /// Strength of each correlation factor relative to `width`.
    pub factor_strength: f64,
}

/// Draw a random class spec centered at `center`.
///
/// Subcluster count is uniform over the configured range, weights come from
/// a symmetric Dirichlet(1.5) so one or two subclusters usually dominate
/// (matching the proportions in the paper's Tables 1–2), per-dimension
/// widths vary ±50 % around `width`, and `n_factors` random directions add
/// correlated spread.
pub fn sample_class_spec<R: Rng + ?Sized>(
    rng: &mut R,
    center: &[f64],
    cfg: &ClassSpecConfig,
) -> GmmClassSpec {
    assert_eq!(center.len(), cfg.dim, "sample_class_spec: center dimension mismatch");
    let (lo, hi) = cfg.subclusters;
    assert!(lo >= 1 && hi >= lo, "sample_class_spec: bad subcluster range");
    let k = rng.gen_range(lo..=hi);
    let weights = sampling::dirichlet(rng, &vec![1.5; k]);
    let components = (0..k)
        .map(|_| {
            let mean: Vec<f64> = center
                .iter()
                .map(|&c| c + cfg.mode_spread * sampling::standard_normal(rng))
                .collect();
            let diag_std: Vec<f64> =
                (0..cfg.dim).map(|_| cfg.width * rng.gen_range(0.5..1.5)).collect();
            let factors: Vec<Vec<f64>> = (0..cfg.n_factors)
                .map(|_| {
                    // Random direction scaled to the requested strength.
                    let mut u: Vec<f64> =
                        (0..cfg.dim).map(|_| sampling::standard_normal(rng)).collect();
                    let norm = osr_linalg::vector::norm(&u).max(1e-12);
                    let s = cfg.factor_strength * cfg.width / norm;
                    for ui in &mut u {
                        *ui *= s;
                    }
                    u
                })
                .collect();
            ComponentSpec { mean, diag_std, factors }
        })
        .collect();
    GmmClassSpec { weights, components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg(dim: usize) -> ClassSpecConfig {
        ClassSpecConfig {
            dim,
            subclusters: (2, 4),
            mode_spread: 3.0,
            width: 1.0,
            n_factors: 2,
            factor_strength: 0.8,
        }
    }

    #[test]
    fn component_sampling_tracks_mean() {
        let mut rng = StdRng::seed_from_u64(1);
        let comp = ComponentSpec {
            mean: vec![5.0, -3.0],
            diag_std: vec![0.5, 0.5],
            factors: vec![],
        };
        let xs = (0..5000).map(|_| comp.sample(&mut rng)).collect::<Vec<_>>();
        let m0 = xs.iter().map(|x| x[0]).sum::<f64>() / 5000.0;
        let m1 = xs.iter().map(|x| x[1]).sum::<f64>() / 5000.0;
        assert!((m0 - 5.0).abs() < 0.05 && (m1 + 3.0).abs() < 0.05);
    }

    #[test]
    fn low_rank_factor_induces_correlation() {
        let mut rng = StdRng::seed_from_u64(2);
        let comp = ComponentSpec {
            mean: vec![0.0, 0.0],
            diag_std: vec![0.3, 0.3],
            factors: vec![vec![1.0, 1.0]],
        };
        let xs: Vec<Vec<f64>> = (0..5000).map(|_| comp.sample(&mut rng)).collect();
        let cov01 = xs.iter().map(|x| x[0] * x[1]).sum::<f64>() / 5000.0;
        // Σ_01 = u_0 u_1 = 1.
        assert!((cov01 - 1.0).abs() < 0.1, "induced covariance {cov01}");
    }

    #[test]
    fn class_spec_respects_configuration() {
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..50 {
            let center = vec![0.0; 4];
            let spec = sample_class_spec(&mut rng, &center, &cfg(4));
            assert!((2..=4).contains(&spec.n_components()));
            assert!((spec.weights.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            for c in &spec.components {
                assert_eq!(c.dim(), 4);
                assert_eq!(c.factors.len(), 2);
                assert!(c.diag_std.iter().all(|&s| s > 0.0));
            }
        }
    }

    #[test]
    fn mixture_uses_all_components_eventually() {
        let mut rng = StdRng::seed_from_u64(4);
        let spec = GmmClassSpec {
            weights: vec![0.5, 0.5],
            components: vec![
                ComponentSpec { mean: vec![-10.0], diag_std: vec![0.1], factors: vec![] },
                ComponentSpec { mean: vec![10.0], diag_std: vec![0.1], factors: vec![] },
            ],
        };
        let xs = spec.sample_n(&mut rng, 200);
        let neg = xs.iter().filter(|x| x[0] < 0.0).count();
        assert!(neg > 50 && neg < 150, "both modes should be visited, got {neg}/200 negative");
    }

    #[test]
    fn spec_generation_is_deterministic_under_seed() {
        let center = vec![1.0; 3];
        let a = sample_class_spec(&mut StdRng::seed_from_u64(9), &center, &cfg(3));
        let b = sample_class_spec(&mut StdRng::seed_from_u64(9), &center, &cfg(3));
        assert_eq!(a.weights, b.weights);
        assert_eq!(a.components[0].mean, b.components[0].mean);
    }
}
