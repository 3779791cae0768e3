use std::fmt;
use std::ops::{Add, Index, IndexMut, Mul, Sub};

/// Row-major dense matrix of `f64`.
///
/// Sized for the workloads in this workspace (covariance/scatter matrices up
/// to a few hundred rows), so all operations are straightforward
/// cache-friendly triple loops rather than blocked kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of the given shape.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer length mismatch");
        Self { rows, cols, data }
    }

    /// Build from nested rows.
    ///
    /// # Panics
    /// Panics if the rows are ragged.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, Vec::len);
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "from_rows: ragged input");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Diagonal matrix from the given entries.
    pub fn from_diag(diag: &[f64]) -> Self {
        let mut m = Self::zeros(diag.len(), diag.len());
        for (i, &d) in diag.iter().enumerate() {
            m[(i, i)] = d;
        }
        m
    }

    /// Scaled identity `alpha * I` of order `n`.
    pub fn scaled_identity(n: usize, alpha: f64) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = alpha;
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// True when the matrix is square.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.rows == self.cols
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r` as a slice.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copy of column `c`.
    pub fn col(&self, c: usize) -> Vec<f64> {
        (0..self.rows).map(|r| self[(r, c)]).collect()
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Transpose into a fresh matrix.
    pub fn transpose(&self) -> Self {
        let mut t = Self::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix–vector product `self * x`.
    ///
    /// # Panics
    /// Panics if `x.len() != self.cols()`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.cols, "matvec: dimension mismatch");
        (0..self.rows).map(|r| crate::vector::dot(self.row(r), x)).collect()
    }

    /// Matrix product `self * other`.
    ///
    /// # Panics
    /// Panics if the inner dimensions disagree.
    pub fn matmul(&self, other: &Self) -> Self {
        assert_eq!(self.cols, other.rows, "matmul: inner dimension mismatch");
        let mut out = Self::zeros(self.rows, other.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(r, k)];
                if a == 0.0 {
                    continue;
                }
                let orow = other.row(k);
                let out_row = out.row_mut(r);
                for (o, &b) in out_row.iter_mut().zip(orow) {
                    *o += a * b;
                }
            }
        }
        out
    }

    /// Quadratic form `x' * self * x` for a square matrix.
    pub fn quad_form(&self, x: &[f64]) -> f64 {
        crate::vector::dot(x, &self.matvec(x))
    }

    /// Add `alpha * x x'` to a square matrix in place (symmetric rank-1
    /// update; the backbone of scatter-matrix bookkeeping in the sampler).
    ///
    /// # Panics
    /// Panics if the matrix is not square of order `x.len()`.
    pub fn syr(&mut self, alpha: f64, x: &[f64]) {
        assert!(self.is_square() && self.rows == x.len(), "syr: shape mismatch");
        for r in 0..self.rows {
            let xr = alpha * x[r];
            let row = self.row_mut(r);
            for (c, &xc) in x.iter().enumerate() {
                row[c] += xr * xc;
            }
        }
    }

    /// `self += alpha * other` in place.
    ///
    /// # Panics
    /// Panics on shape mismatch.
    pub fn add_scaled(&mut self, alpha: f64, other: &Self) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add_scaled: shape mismatch");
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Multiply every entry by `alpha` in place.
    pub fn scale_in_place(&mut self, alpha: f64) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute asymmetry `|A[i,j] - A[j,i]|` of a square matrix.
    pub fn asymmetry(&self) -> f64 {
        assert!(self.is_square(), "asymmetry: matrix must be square");
        let mut worst = 0.0f64;
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                worst = worst.max((self[(r, c)] - self[(c, r)]).abs());
            }
        }
        worst
    }

    /// Force exact symmetry by averaging mirrored entries.
    pub fn symmetrize(&mut self) {
        assert!(self.is_square(), "symmetrize: matrix must be square");
        for r in 0..self.rows {
            for c in (r + 1)..self.cols {
                let avg = 0.5 * (self[(r, c)] + self[(c, r)]);
                self[(r, c)] = avg;
                self[(c, r)] = avg;
            }
        }
    }

    /// Trace of a square matrix.
    pub fn trace(&self) -> f64 {
        assert!(self.is_square(), "trace: matrix must be square");
        (0..self.rows).map(|i| self[(i, i)]).sum()
    }

    /// True when every entry is finite.
    pub fn all_finite(&self) -> bool {
        crate::vector::all_finite(&self.data)
    }

    /// Sample covariance matrix of `points` (rows are observations), using
    /// the `n - 1` denominator. Returns a `d × d` zero matrix when fewer than
    /// two points are supplied.
    pub fn covariance(points: &[&[f64]], dim: usize) -> Self {
        let mut cov = Self::zeros(dim, dim);
        if points.len() < 2 {
            return cov;
        }
        let mu = crate::vector::mean(points).expect("non-empty by the guard above");
        let mut diff = vec![0.0; dim];
        for p in points {
            for (d, (pi, mi)) in diff.iter_mut().zip(p.iter().zip(&mu)) {
                *d = pi - mi;
            }
            cov.syr(1.0, &diff);
        }
        cov.scale_in_place(1.0 / (points.len() - 1) as f64);
        cov
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        debug_assert!(r < self.rows && c < self.cols, "index out of bounds");
        &mut self.data[r * self.cols + c]
    }
}

impl Add<&Matrix> for &Matrix {
    type Output = Matrix;

    fn add(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_scaled(1.0, rhs);
        out
    }
}

impl Sub<&Matrix> for &Matrix {
    type Output = Matrix;

    fn sub(self, rhs: &Matrix) -> Matrix {
        let mut out = self.clone();
        out.add_scaled(-1.0, rhs);
        out
    }
}

impl Mul<f64> for &Matrix {
    type Output = Matrix;

    fn mul(self, alpha: f64) -> Matrix {
        let mut out = self.clone();
        out.scale_in_place(alpha);
        out
    }
}

impl fmt::Display for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in 0..self.rows {
            for c in 0..self.cols {
                if c > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{:10.4}", self[(r, c)])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]])
    }

    #[test]
    fn identity_times_anything_is_identity_map() {
        let a = sample();
        let i = Matrix::identity(2);
        assert_eq!(i.matmul(&a), a);
        assert_eq!(a.matmul(&i), a);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample();
        let b = Matrix::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matvec_matches_matmul_with_column() {
        let a = sample();
        let y = a.matvec(&[1.0, -1.0]);
        assert_eq!(y, vec![-1.0, -1.0]);
    }

    #[test]
    fn syr_builds_outer_product() {
        let mut m = Matrix::zeros(2, 2);
        m.syr(2.0, &[1.0, 3.0]);
        assert_eq!(m, Matrix::from_rows(&[vec![2.0, 6.0], vec![6.0, 18.0]]));
    }

    #[test]
    fn quad_form_matches_expansion() {
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        // [1,2] A [1,2]' = 2 + 2 + 2 + 12 = 18
        assert!((a.quad_form(&[1.0, 2.0]) - 18.0).abs() < 1e-12);
    }

    #[test]
    fn covariance_of_axis_aligned_cloud() {
        let pts: Vec<Vec<f64>> =
            vec![vec![0.0, 0.0], vec![2.0, 0.0], vec![0.0, 4.0], vec![2.0, 4.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        let cov = Matrix::covariance(&refs, 2);
        // var(x) = 4/3, var(y) = 16/3, cov = 0
        assert!((cov[(0, 0)] - 4.0 / 3.0).abs() < 1e-12);
        assert!((cov[(1, 1)] - 16.0 / 3.0).abs() < 1e-12);
        assert!(cov[(0, 1)].abs() < 1e-12);
        assert_eq!(cov.asymmetry(), 0.0);
    }

    #[test]
    fn covariance_of_single_point_is_zero() {
        let p = [1.0, 2.0];
        let cov = Matrix::covariance(&[&p], 2);
        assert_eq!(cov, Matrix::zeros(2, 2));
    }

    #[test]
    fn symmetrize_removes_asymmetry() {
        let mut m = Matrix::from_rows(&[vec![1.0, 2.0], vec![4.0, 1.0]]);
        assert!(m.asymmetry() > 0.0);
        m.symmetrize();
        assert_eq!(m.asymmetry(), 0.0);
        assert_eq!(m[(0, 1)], 3.0);
    }

    #[test]
    fn trace_sums_diagonal() {
        assert_eq!(sample().trace(), 5.0);
    }

    #[test]
    fn operators_add_sub_scale() {
        let a = sample();
        let b = Matrix::identity(2);
        let sum = &a + &b;
        assert_eq!(sum[(0, 0)], 2.0);
        let diff = &sum - &b;
        assert_eq!(diff, a);
        let scaled = &a * 2.0;
        assert_eq!(scaled[(1, 1)], 8.0);
    }

    #[test]
    #[should_panic(expected = "inner dimension mismatch")]
    fn matmul_panics_on_bad_shapes() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }
}
