//! Seeded synthetic replicas of the paper's three benchmark datasets.
//!
//! | Replica   | Classes | Dim           | Samples | Source shape              |
//! |-----------|---------|---------------|---------|---------------------------|
//! | LETTER    | 26      | 16            | 20 000  | Frey & Slate 1991         |
//! | USPS      | 10      | 256 → 39 (PCA)| 7 291   | Hull 1994                 |
//! | PENDIGITS | 10      | 16            | 10 992  | Bilenko et al. 2004       |
//!
//! The generators draw each class as a Gaussian mixture with 1–7 subclusters
//! (see [`crate::gmm`]); class centers are spread so classes are largely but
//! not perfectly separable, which is what gives the baselines their paper-like
//! closed-set F-measures (≈0.85–0.95) and their open-set degradation.
//!
//! The *world* (class centers, mixture shapes) is derived from the `Rng`
//! handed in, so a fixed seed reproduces the exact dataset; experiment
//! binaries default to fixed seeds.

use rand::Rng;

use osr_linalg::Pca;
use osr_stats::sampling;

use crate::gmm::{sample_class_spec, ClassSpecConfig, GmmClassSpec};
use crate::Dataset;

/// Configuration for a synthetic dataset replica.
#[derive(Debug, Clone)]
pub struct SyntheticConfig {
    /// Dataset name carried into [`Dataset::name`].
    pub name: &'static str,
    /// Number of classes.
    pub n_classes: usize,
    /// Raw feature dimension (before any PCA).
    pub dim: usize,
    /// Total sample count across all classes.
    pub total_samples: usize,
    /// Standard deviation of *family* centers around the origin, in units
    /// of the within-subcluster width (the between-family separability
    /// knob).
    pub separation: f64,
    /// Classes per confusable family. Real benchmark classes are not
    /// uniformly spread: digits 4/9 or letters O/Q sit close together. With
    /// `family_size = 2` classes come in near pairs, so a random
    /// known/unknown split regularly leaves an *unknown sibling* of a known
    /// class — the situation that makes threshold-based methods degrade with
    /// openness (the mechanism behind the paper's curves). `1` disables the
    /// structure.
    pub family_size: usize,
    /// Distance scale of each class center from its family center, in units
    /// of the within-subcluster width.
    pub family_spread: f64,
    /// Per-class subcluster configuration.
    pub class_cfg: ClassSpecConfig,
}

impl SyntheticConfig {
    /// Scale the sample count by `fraction` (for fast tests and doctests);
    /// keeps at least 10 samples per class.
    #[must_use]
    pub fn scaled(mut self, fraction: f64) -> Self {
        assert!(fraction > 0.0, "scaled: fraction must be positive");
        self.total_samples =
            ((self.total_samples as f64 * fraction) as usize).max(10 * self.n_classes);
        self
    }

    /// Draw the dataset: class specs first, then samples.
    pub fn generate<R: Rng + ?Sized>(&self, rng: &mut R) -> Dataset {
        let specs = self.class_specs(rng);
        let counts = per_class_counts(self.total_samples, self.n_classes);
        let mut points = Vec::with_capacity(self.total_samples);
        let mut labels = Vec::with_capacity(self.total_samples);
        for (class, (spec, &n)) in specs.iter().zip(&counts).enumerate() {
            points.extend(spec.sample_n(rng, n));
            labels.extend(std::iter::repeat_n(class, n));
        }
        Dataset::new(self.name, points, labels, self.n_classes)
    }

    /// Draw only the class specifications (exposed for tests that need to
    /// inspect the ground-truth mixture structure).
    pub fn class_specs<R: Rng + ?Sized>(&self, rng: &mut R) -> Vec<GmmClassSpec> {
        assert!(self.family_size >= 1, "family_size must be ≥ 1");
        let sep = self.separation * self.class_cfg.width;
        let fam = self.family_spread * self.class_cfg.width;
        let n_families = self.n_classes.div_ceil(self.family_size);
        let family_centers: Vec<Vec<f64>> = (0..n_families)
            .map(|_| (0..self.dim).map(|_| sep * sampling::standard_normal(rng)).collect())
            .collect();
        (0..self.n_classes)
            .map(|class| {
                let base = &family_centers[class / self.family_size];
                let center: Vec<f64> = base
                    .iter()
                    .map(|&b| b + fam * sampling::standard_normal(rng))
                    .collect();
                sample_class_spec(rng, &center, &self.class_cfg)
            })
            .collect()
    }
}

fn per_class_counts(total: usize, n_classes: usize) -> Vec<usize> {
    let base = total / n_classes;
    let extra = total % n_classes;
    (0..n_classes).map(|c| base + usize::from(c < extra)).collect()
}

/// Configuration of the LETTER replica (26 classes × 16 features, 20 000
/// samples). Letters are fairly well separated but share stroke structure,
/// so classes get 2–5 subclusters.
pub fn letter_config() -> SyntheticConfig {
    SyntheticConfig {
        name: "LETTER",
        n_classes: 26,
        dim: 16,
        total_samples: 20_000,
        separation: 2.0,
        family_size: 2,
        family_spread: 1.0,
        class_cfg: ClassSpecConfig {
            dim: 16,
            subclusters: (2, 5),
            mode_spread: 1.1,
            width: 1.0,
            n_factors: 2,
            factor_strength: 0.8,
        },
    }
}

/// Generate the LETTER replica.
pub fn letter<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    letter_config().generate(rng)
}

/// Latent-space configuration of the USPS replica (10 classes, 7 291
/// samples, raw dimension 256). Real 256-pixel digit images have an
/// *effective* dimensionality of a few dozen (pixels are strongly
/// correlated), which is exactly why the paper's PCA keeps 95 % of the
/// variance in just 39 components. The replica reproduces that structure
/// explicitly: the class/subcluster geometry lives in a
/// [`USPS_LATENT_DIMS`]-dimensional latent space (handwriting "style"
/// coordinates), which [`usps_raw_scaled`] embeds into 256 raw dimensions through a
/// random linear map plus small isotropic pixel noise.
pub fn usps_latent_config() -> SyntheticConfig {
    SyntheticConfig {
        name: "USPS",
        n_classes: 10,
        dim: USPS_LATENT_DIMS,
        total_samples: 7_291,
        separation: 2.0,
        family_size: 2,
        family_spread: 1.0,
        class_cfg: ClassSpecConfig {
            dim: USPS_LATENT_DIMS,
            subclusters: (1, 7),
            mode_spread: 1.2,
            width: 1.0,
            n_factors: 2,
            factor_strength: 0.8,
        },
    }
}

/// Dimension of the latent handwriting-style space of the USPS replica.
pub const USPS_LATENT_DIMS: usize = 40;

/// Raw (pixel) dimension of USPS.
pub const USPS_RAW_DIMS: usize = 256;

/// Standard deviation of the isotropic pixel noise added on top of the
/// embedded latent signal. Chosen so the latent subspace carries ≈95 % of
/// the total variance — matching the paper's "PCA … retaining 95 % of the
/// samples' components" with 39 kept dimensions.
pub const USPS_PIXEL_NOISE: f64 = 0.55;

/// Generate the raw 256-dimensional USPS replica: latent GMM samples mapped
/// through a random (near-orthogonal) `256 × 40` embedding plus pixel noise.
/// `scale` multiplies the sample count (1.0 is the published 7 291).
pub fn usps_raw_scaled<R: Rng + ?Sized>(rng: &mut R, scale: f64) -> Dataset {
    let cfg = if (scale - 1.0).abs() < 1e-12 {
        usps_latent_config()
    } else {
        usps_latent_config().scaled(scale)
    };
    let latent = cfg.generate(rng);

    // Random embedding: columns are nearly orthonormal for d ≫ k, so latent
    // geometry (distances, cluster structure) is preserved in pixel space.
    let embed: Vec<Vec<f64>> = (0..USPS_LATENT_DIMS)
        .map(|_| {
            let col: Vec<f64> = (0..USPS_RAW_DIMS)
                .map(|_| sampling::standard_normal(rng) / (USPS_RAW_DIMS as f64).sqrt())
                .collect();
            col
        })
        .collect();

    let points: Vec<Vec<f64>> = latent
        .points
        .iter()
        .map(|z| {
            let mut x: Vec<f64> = (0..USPS_RAW_DIMS)
                .map(|_| USPS_PIXEL_NOISE * sampling::standard_normal(rng))
                .collect();
            for (zk, col) in z.iter().zip(&embed) {
                for (xi, ci) in x.iter_mut().zip(col) {
                    *xi += zk * ci;
                }
            }
            x
        })
        .collect();
    Dataset::new("USPS", points, latent.labels, latent.n_classes)
}

/// Number of principal components the paper keeps for USPS: the raw
/// replica goes through [`project_with_pca`] to this many dimensions, as the
/// paper preprocesses USPS ("PCA is used to project sample space into 39
/// dimensional subspace, retaining 95 % of the samples' components").
pub const USPS_PCA_DIMS: usize = 39;

/// Project a dataset onto its leading `k` principal components.
///
/// # Panics
/// Panics when the dataset is empty.
pub fn project_with_pca(data: Dataset, k: usize) -> Dataset {
    let refs: Vec<&[f64]> = data.points.iter().map(Vec::as_slice).collect();
    let pca = Pca::fit(&refs, k).expect("PCA fit on non-empty dataset");
    let points = pca.transform_all(&refs);
    Dataset::new(data.name, points, data.labels, data.n_classes)
}

/// Configuration of the PENDIGITS replica (10 classes × 16 features, 10 992
/// samples). Pen trajectories vary a lot per digit, so classes get 3–7
/// subclusters with wide mode spread (Table 2 reports 5–15 subclasses per
/// class).
pub fn pendigits_config() -> SyntheticConfig {
    SyntheticConfig {
        name: "PENDIGITS",
        n_classes: 10,
        dim: 16,
        total_samples: 10_992,
        separation: 2.0,
        family_size: 2,
        family_spread: 1.0,
        class_cfg: ClassSpecConfig {
            dim: 16,
            subclusters: (3, 7),
            mode_spread: 1.3,
            width: 1.0,
            n_factors: 2,
            factor_strength: 0.9,
        },
    }
}

/// Generate the PENDIGITS replica.
pub fn pendigits<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    pendigits_config().generate(rng)
}

/// A small 2-dimensional toy dataset (4 well-separated multi-modal classes),
/// used by the quickstart example, the Fig. 1 illustration, and fast tests.
pub fn toy2d<R: Rng + ?Sized>(rng: &mut R) -> Dataset {
    SyntheticConfig {
        name: "TOY2D",
        n_classes: 4,
        dim: 2,
        total_samples: 800,
        separation: 8.0,
        family_size: 1,
        family_spread: 0.0,
        class_cfg: ClassSpecConfig {
            dim: 2,
            subclusters: (1, 3),
            mode_spread: 1.2,
            width: 0.6,
            n_factors: 1,
            factor_strength: 0.6,
        },
    }
    .generate(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn per_class_counts_partition_total() {
        let c = per_class_counts(20_000, 26);
        assert_eq!(c.iter().sum::<usize>(), 20_000);
        assert!(c.iter().all(|&n| n == 769 || n == 770));
    }

    #[test]
    fn letter_replica_has_published_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = letter_config().scaled(0.05).generate(&mut rng);
        assert_eq!(d.name, "LETTER");
        assert_eq!(d.n_classes, 26);
        assert_eq!(d.dim(), 16);
        assert_eq!(d.len(), 1000);
    }

    #[test]
    fn pendigits_replica_has_published_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = pendigits(&mut rng);
        assert_eq!(d.n_classes, 10);
        assert_eq!(d.dim(), 16);
        assert_eq!(d.len(), 10_992);
    }

    #[test]
    fn usps_raw_replica_has_published_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let d = usps_raw_scaled(&mut rng, 0.02);
        assert_eq!(d.dim(), 256);
        assert_eq!(d.n_classes, 10);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = pendigits_config().scaled(0.01).generate(&mut StdRng::seed_from_u64(5));
        let b = pendigits_config().scaled(0.01).generate(&mut StdRng::seed_from_u64(5));
        assert_eq!(a.points, b.points);
        assert_eq!(a.labels, b.labels);
    }

    #[test]
    fn different_seeds_give_different_worlds() {
        let a = pendigits_config().scaled(0.01).generate(&mut StdRng::seed_from_u64(5));
        let b = pendigits_config().scaled(0.01).generate(&mut StdRng::seed_from_u64(6));
        assert_ne!(a.points, b.points);
    }

    #[test]
    fn classes_are_mostly_separable() {
        // Nearest-class-center classification should beat 80 % on the toy
        // replicas; if this fails, the separability knob drifted and every
        // downstream experiment is meaningless.
        let mut rng = StdRng::seed_from_u64(11);
        let d = pendigits_config().scaled(0.05).generate(&mut rng);
        let mut centers = vec![vec![0.0; d.dim()]; d.n_classes];
        let counts = d.class_counts();
        for (p, &l) in d.points.iter().zip(&d.labels) {
            for (c, x) in centers[l].iter_mut().zip(p) {
                *c += x;
            }
        }
        for (center, &n) in centers.iter_mut().zip(&counts) {
            for c in center.iter_mut() {
                *c /= n as f64;
            }
        }
        let correct = d
            .points
            .iter()
            .zip(&d.labels)
            .filter(|(p, &l)| {
                let best = (0..d.n_classes)
                    .min_by(|&a, &b| {
                        let da = osr_linalg::vector::dist_sq(p, &centers[a]);
                        let db = osr_linalg::vector::dist_sq(p, &centers[b]);
                        da.partial_cmp(&db).unwrap()
                    })
                    .unwrap();
                best == l
            })
            .count();
        let acc = correct as f64 / d.len() as f64;
        assert!(acc > 0.8, "nearest-center accuracy only {acc:.3}");
    }

    #[test]
    fn classes_are_not_perfectly_separable() {
        // Some confusion must remain or the open-set problem is trivial.
        let mut rng = StdRng::seed_from_u64(11);
        let d = letter_config().scaled(0.1).generate(&mut rng);
        let mut nn_wrong = 0;
        // 1-NN leave-one-out over the full set: the handful of confusable
        // points is sparse enough that a subsample can miss all of them.
        for i in 0..d.len() {
            let mut best = (f64::INFINITY, 0usize);
            for j in 0..d.len() {
                if i == j {
                    continue;
                }
                let dist = osr_linalg::vector::dist_sq(&d.points[i], &d.points[j]);
                if dist < best.0 {
                    best = (dist, j);
                }
            }
            if d.labels[best.1] != d.labels[i] {
                nn_wrong += 1;
            }
        }
        assert!(nn_wrong > 0, "1-NN is perfect — classes are too separated");
    }

    #[test]
    fn pca_projection_reduces_dimension() {
        let mut rng = StdRng::seed_from_u64(3);
        let raw = usps_raw_scaled(&mut rng, 0.03);
        let proj = project_with_pca(raw, 10);
        assert_eq!(proj.dim(), 10);
        assert_eq!(proj.n_classes, 10);
    }

    #[test]
    fn toy2d_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let d = toy2d(&mut rng);
        assert_eq!(d.dim(), 2);
        assert_eq!(d.n_classes, 4);
        assert_eq!(d.len(), 800);
    }
}
