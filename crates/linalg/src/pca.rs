use crate::{LinalgError, Matrix, Result, SymEigen};

/// Principal component analysis fitted on a sample of points.
///
/// The paper projects the 256-dimensional USPS features onto the subspace
/// retaining 95 % of the variance (39 dimensions); the USPS replica keeps
/// those 39 components with [`Pca::fit`].
#[derive(Debug, Clone)]
pub struct Pca {
    mean: Vec<f64>,
    /// `k × d` projection matrix: rows are principal axes.
    components: Matrix,
}

impl Pca {
    /// Fit with a fixed number of components `k` (capped at the data
    /// dimension).
    ///
    /// # Errors
    /// [`LinalgError::EmptyInput`] when `points` is empty, plus any
    /// eigensolver failure.
    pub fn fit(points: &[&[f64]], k: usize) -> Result<Self> {
        if points.is_empty() {
            return Err(LinalgError::EmptyInput);
        }
        let dim = points[0].len();
        if points.iter().any(|p| !crate::vector::all_finite(p)) {
            return Err(LinalgError::NonFiniteInput);
        }
        let mean = crate::vector::mean(points).expect("non-empty");
        let cov = Matrix::covariance(points, dim);
        let eig = SymEigen::decompose(&cov)?;
        let k = k.min(eig.values.len());
        let mut components = Matrix::zeros(k, dim);
        for c in 0..k {
            for r in 0..dim {
                components[(c, r)] = eig.vectors[(r, c)];
            }
        }
        Ok(Self { mean, components })
    }

    /// Number of retained components.
    #[inline]
    pub fn n_components(&self) -> usize {
        self.components.rows()
    }

    /// Project a single point into the principal subspace.
    ///
    /// # Panics
    /// Panics when `x` does not have the fitted dimension.
    pub fn transform(&self, x: &[f64]) -> Vec<f64> {
        let centered = crate::vector::sub(x, &self.mean);
        self.components.matvec(&centered)
    }

    /// Project a batch of points.
    pub fn transform_all(&self, points: &[&[f64]]) -> Vec<Vec<f64>> {
        points.iter().map(|p| self.transform(p)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 3-d cloud that actually lives on a 2-d plane (third coordinate is a
    /// fixed linear combination of the first two).
    fn planar_cloud() -> Vec<Vec<f64>> {
        let mut pts = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let x = i as f64 * 0.37 - 3.0;
                let y = j as f64 * 0.11 + 1.0;
                pts.push(vec![x, y, 2.0 * x - y]);
            }
        }
        pts
    }

    fn as_refs(pts: &[Vec<f64>]) -> Vec<&[f64]> {
        pts.iter().map(Vec::as_slice).collect()
    }

    #[test]
    fn planar_data_needs_two_components_for_full_variance() {
        let pts = planar_cloud();
        let refs = as_refs(&pts);
        let pca = Pca::fit(&refs, 3).unwrap();
        // The third axis is normal to the plane: nothing projects onto it.
        for z in pca.transform_all(&refs) {
            assert!(z[2].abs() < 1e-8, "off-plane coordinate {}", z[2]);
        }
    }

    #[test]
    fn transformed_data_is_centered() {
        let pts = planar_cloud();
        let refs = as_refs(&pts);
        let pca = Pca::fit(&refs, 2).unwrap();
        let z = pca.transform_all(&refs);
        let zrefs: Vec<&[f64]> = z.iter().map(Vec::as_slice).collect();
        let m = crate::vector::mean(&zrefs).unwrap();
        for c in m {
            assert!(c.abs() < 1e-9, "projected mean should be ~0, got {c}");
        }
    }

    #[test]
    fn k_larger_than_dim_is_capped() {
        let pts = planar_cloud();
        let pca = Pca::fit(&as_refs(&pts), 10).unwrap();
        assert_eq!(pca.n_components(), 3);
    }

    #[test]
    fn empty_input_is_an_error() {
        assert!(matches!(Pca::fit(&[], 2), Err(LinalgError::EmptyInput)));
    }

    #[test]
    fn explained_variances_are_descending() {
        let pts = planar_cloud();
        let refs = as_refs(&pts);
        let z = Pca::fit(&refs, 3).unwrap().transform_all(&refs);
        // The projection is centered, so each axis's sum of squares is its
        // explained variance times (n − 1).
        let var = |c: usize| z.iter().map(|p| p[c] * p[c]).sum::<f64>();
        assert!(var(0) >= var(1) && var(1) >= var(2));
    }
}
