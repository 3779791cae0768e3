use crate::{LinalgError, Matrix, Result};

/// Cholesky factorization `A = L L'` of a symmetric positive-definite matrix.
///
/// This is the numerical core of the collapsed Gibbs sampler: every posterior
/// predictive density evaluation reduces to one triangular solve against the
/// factor of the Normal–Inverse-Wishart posterior scale matrix, and moving an
/// observation in or out of a mixture component is a rank-1
/// [`update`](Self::update) / [`downdate`](Self::downdate) of that factor —
/// O(d²) instead of refactorizing at O(d³).
#[derive(Debug, Clone, PartialEq)]
pub struct Cholesky {
    /// Lower-triangular factor, stored dense with zeros above the diagonal.
    l: Matrix,
}

impl Cholesky {
    /// Factorize a symmetric positive-definite matrix.
    ///
    /// Only the lower triangle of `a` is read; the strict upper triangle is
    /// ignored, so callers may pass matrices with small round-off asymmetry.
    ///
    /// # Errors
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive, [`LinalgError::NonFiniteInput`] on NaN/inf entries.
    ///
    /// # Panics
    /// Panics when `a` is not square.
    pub fn factor(a: &Matrix) -> Result<Self> {
        assert!(a.is_square(), "Cholesky::factor: matrix must be square");
        if !a.all_finite() {
            return Err(LinalgError::NonFiniteInput);
        }
        let n = a.rows();
        let mut l = Matrix::zeros(n, n);
        for j in 0..n {
            let mut diag = a[(j, j)];
            for k in 0..j {
                diag -= l[(j, k)] * l[(j, k)];
            }
            if !(diag > 0.0) || !diag.is_finite() {
                return Err(LinalgError::NotPositiveDefinite { pivot: j, value: diag });
            }
            let ljj = diag.sqrt();
            l[(j, j)] = ljj;
            for i in (j + 1)..n {
                let mut v = a[(i, j)];
                for k in 0..j {
                    v -= l[(i, k)] * l[(j, k)];
                }
                l[(i, j)] = v / ljj;
            }
        }
        Ok(Self { l })
    }

    /// Wrap an already-computed lower-triangular factor.
    ///
    /// For callers that maintain the factor in their own storage (the dish
    /// bank keeps it packed) and need to re-enter the dense API — e.g. to
    /// reconstruct `A = L L'` on the rank-1 downdate rescue path with the
    /// exact operation sequence of the dense implementation. The strict
    /// upper triangle must be zero and diagonal entries positive; only
    /// debug builds verify this.
    ///
    /// # Panics
    /// Panics when `l` is not square.
    pub fn from_factor(l: Matrix) -> Self {
        assert!(l.is_square(), "Cholesky::from_factor: factor must be square");
        #[cfg(debug_assertions)]
        for i in 0..l.rows() {
            debug_assert!(l[(i, i)] > 0.0, "from_factor: non-positive diagonal at {i}");
            for j in (i + 1)..l.cols() {
                debug_assert_eq!(l[(i, j)], 0.0, "from_factor: nonzero above diagonal");
            }
        }
        Self { l }
    }

    /// Order of the factored matrix.
    #[inline]
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// Borrow the lower-triangular factor.
    #[inline]
    pub fn factor_l(&self) -> &Matrix {
        &self.l
    }

    /// Solve `L y = b` (forward substitution).
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_lower: dimension mismatch");
        let mut y = b.to_vec();
        for i in 0..n {
            for k in 0..i {
                y[i] -= self.l[(i, k)] * y[k];
            }
            y[i] /= self.l[(i, i)];
        }
        y
    }

    /// Solve `L' x = b` (backward substitution).
    pub fn solve_upper(&self, b: &[f64]) -> Vec<f64> {
        let n = self.dim();
        assert_eq!(b.len(), n, "solve_upper: dimension mismatch");
        let mut x = b.to_vec();
        for i in (0..n).rev() {
            for k in (i + 1)..n {
                x[i] -= self.l[(k, i)] * x[k];
            }
            x[i] /= self.l[(i, i)];
        }
        x
    }

    /// Solve `A x = b` via the two triangular solves.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// Log-determinant of `A` (twice the log-determinant of `L`).
    pub fn log_det(&self) -> f64 {
        (0..self.dim()).map(|i| self.l[(i, i)].ln()).sum::<f64>() * 2.0
    }

    /// Mahalanobis-style quadratic form `b' A⁻¹ b`, computed without forming
    /// the inverse: it is `‖L⁻¹ b‖²`.
    pub fn inv_quad_form(&self, b: &[f64]) -> f64 {
        let y = self.solve_lower(b);
        crate::vector::dot(&y, &y)
    }

    /// Dense inverse of `A`. Prefer [`solve`](Self::solve) or
    /// [`inv_quad_form`](Self::inv_quad_form) in hot paths.
    pub fn inverse(&self) -> Matrix {
        let n = self.dim();
        let mut inv = Matrix::zeros(n, n);
        let mut e = vec![0.0; n];
        for c in 0..n {
            e[c] = 1.0;
            let col = self.solve(&e);
            e[c] = 0.0;
            for r in 0..n {
                inv[(r, c)] = col[r];
            }
        }
        // A⁻¹ is symmetric; remove the round-off skew so downstream
        // factorizations see a clean matrix.
        inv.symmetrize();
        inv
    }

    /// Reconstruct `A = L L'` (mostly for tests and diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        self.l.matmul(&self.l.transpose())
    }

    /// Rank-1 update: replace the factored `A` by `A + x x'` in place,
    /// in O(d²) via Givens-style rotations.
    ///
    /// # Panics
    /// Panics when `x.len() != self.dim()`.
    pub fn update(&mut self, x: &[f64]) {
        let n = self.dim();
        assert_eq!(x.len(), n, "update: dimension mismatch");
        let mut w = x.to_vec();
        for j in 0..n {
            let ljj = self.l[(j, j)];
            let wj = w[j];
            let r = (ljj * ljj + wj * wj).sqrt();
            let c = r / ljj;
            let s = wj / ljj;
            self.l[(j, j)] = r;
            for i in (j + 1)..n {
                let lij = self.l[(i, j)];
                self.l[(i, j)] = (lij + s * w[i]) / c;
                w[i] = c * w[i] - s * self.l[(i, j)];
            }
        }
    }

    /// Rank-1 downdate: replace the factored `A` by `A - x x'` in place.
    ///
    /// # Errors
    /// [`LinalgError::DowndateBreaksSpd`] when the result would not be
    /// positive definite (the factor is left in an unspecified but
    /// structurally valid state; callers should refactorize).
    pub fn downdate(&mut self, x: &[f64]) -> Result<()> {
        let n = self.dim();
        assert_eq!(x.len(), n, "downdate: dimension mismatch");
        let mut w = x.to_vec();
        for j in 0..n {
            let ljj = self.l[(j, j)];
            let wj = w[j];
            let d = ljj * ljj - wj * wj;
            if !(d > 0.0) || !d.is_finite() {
                return Err(LinalgError::DowndateBreaksSpd { pivot: j });
            }
            let r = d.sqrt();
            let c = r / ljj;
            let s = wj / ljj;
            self.l[(j, j)] = r;
            for i in (j + 1)..n {
                let lij = self.l[(i, j)];
                self.l[(i, j)] = (lij - s * w[i]) / c;
                w[i] = c * w[i] - s * self.l[(i, j)];
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd3() -> Matrix {
        // Diagonally dominant symmetric matrix — guaranteed SPD.
        Matrix::from_rows(&[
            vec![4.0, 1.0, 0.5],
            vec![1.0, 5.0, -1.0],
            vec![0.5, -1.0, 3.0],
        ])
    }

    #[test]
    fn factor_reconstructs_original() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let r = ch.reconstruct();
        assert!((&r - &a).frobenius_norm() < 1e-12);
    }

    #[test]
    fn solve_inverts_matvec() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let x = [1.0, -2.0, 0.5];
        let b = a.matvec(&x);
        let got = ch.solve(&b);
        for (g, e) in got.iter().zip(x) {
            assert!((g - e).abs() < 1e-10, "solve mismatch: {g} vs {e}");
        }
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let a = Matrix::from_rows(&[vec![2.0, 0.3], vec![0.3, 1.5]]);
        let ch = Cholesky::factor(&a).unwrap();
        let det: f64 = 2.0 * 1.5 - 0.09;
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn inv_quad_form_matches_explicit_inverse() {
        let a = spd3();
        let ch = Cholesky::factor(&a).unwrap();
        let inv = ch.inverse();
        let b = [0.7, -1.1, 2.2];
        assert!((ch.inv_quad_form(&b) - inv.quad_form(&b)).abs() < 1e-10);
    }

    #[test]
    fn inverse_times_original_is_identity() {
        let a = spd3();
        let inv = Cholesky::factor(&a).unwrap().inverse();
        let prod = a.matmul(&inv);
        assert!((&prod - &Matrix::identity(3)).frobenius_norm() < 1e-10);
    }

    #[test]
    fn rejects_non_spd() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // eigenvalues 3, -1
        match Cholesky::factor(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot: 1, .. }) => {}
            other => panic!("expected NotPositiveDefinite at pivot 1, got {other:?}"),
        }
    }

    #[test]
    fn rejects_nan_input() {
        let mut a = spd3();
        a[(0, 0)] = f64::NAN;
        assert_eq!(Cholesky::factor(&a), Err(LinalgError::NonFiniteInput));
    }

    #[test]
    fn update_matches_refactorization() {
        let a = spd3();
        let x = [0.3, -0.8, 1.1];
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.update(&x);
        let mut ax = a.clone();
        ax.syr(1.0, &x);
        let direct = Cholesky::factor(&ax).unwrap();
        assert!((&ch.reconstruct() - &direct.reconstruct()).frobenius_norm() < 1e-10);
    }

    #[test]
    fn downdate_inverts_update() {
        let a = spd3();
        let x = [0.5, 0.25, -0.75];
        let mut ch = Cholesky::factor(&a).unwrap();
        ch.update(&x);
        ch.downdate(&x).unwrap();
        assert!((&ch.reconstruct() - &a).frobenius_norm() < 1e-9);
    }

    #[test]
    fn downdate_detects_loss_of_spd() {
        let a = Matrix::identity(2);
        let mut ch = Cholesky::factor(&a).unwrap();
        // I - 2 e1 e1' has a negative eigenvalue.
        let err = ch.downdate(&[2.0f64.sqrt(), 0.0]).unwrap_err();
        assert!(matches!(err, LinalgError::DowndateBreaksSpd { .. }));
    }

    #[test]
    fn one_by_one_matrix_roundtrip() {
        let a = Matrix::from_rows(&[vec![9.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - 9.0f64.ln()).abs() < 1e-14);
        assert_eq!(ch.solve(&[18.0]), vec![2.0]);
    }
}
