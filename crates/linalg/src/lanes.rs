//! Explicit-width f64 lane helpers for the predictive hot kernels.
//!
//! The bank-layout predictive evaluation (`osr-stats::bank`) runs two fused
//! kernels — one observation against every dish, and a batch of
//! observations against one dish — whose inner loops are small dense
//! triangular solves and rank-1 updates over column-packed factors. The
//! helpers here are written so the compiler can autovectorize them:
//! fixed-width 4-lane chunks with a scalar tail, no bounds checks in the
//! steady state, no allocation.
//!
//! **Bit-compatibility contract.** Every helper is *elementwise*: each
//! output element is produced by the exact operation sequence of its scalar
//! counterpart, so results are bit-identical — unrolling independent
//! elements changes instruction scheduling, never rounding. No helper
//! reassociates a sum, so none can move the golden traces.

/// `y += alpha * x`, unrolled in 4-wide lanes.
///
/// Elementwise, therefore bit-identical to [`crate::vector::axpy`].
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn axpy4(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "axpy4: length mismatch");
    let mut cx = x.chunks_exact(4);
    let mut cy = y.chunks_exact_mut(4);
    for (xs, ys) in cx.by_ref().zip(cy.by_ref()) {
        ys[0] += alpha * xs[0];
        ys[1] += alpha * xs[1];
        ys[2] += alpha * xs[2];
        ys[3] += alpha * xs[3];
    }
    for (xi, yi) in cx.remainder().iter().zip(cy.into_remainder()) {
        *yi += alpha * xi;
    }
}

/// One column of a Givens rank-1 **update** of a lower factor: given the
/// column rotation `(c, s)`, maps each below-diagonal element and its
/// working-vector lane through
///
/// ```text
/// new = (l + s·w) / c;   l ← new;   w ← c·w − s·new
/// ```
///
/// Elementwise (each lane reads only its own `l`/`w`), so unrolling is
/// bit-identical to the sequential loop in `Cholesky::update`.
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn givens_update_col(col: &mut [f64], w: &mut [f64], c: f64, s: f64) {
    assert_eq!(col.len(), w.len(), "givens_update_col: length mismatch");
    let mut cl = col.chunks_exact_mut(4);
    let mut cw = w.chunks_exact_mut(4);
    for (ls, ws) in cl.by_ref().zip(cw.by_ref()) {
        for (l, wi) in ls.iter_mut().zip(ws.iter_mut()) {
            let new = (*l + s * *wi) / c;
            *wi = c * *wi - s * new;
            *l = new;
        }
    }
    for (l, wi) in cl.into_remainder().iter_mut().zip(cw.into_remainder()) {
        let new = (*l + s * *wi) / c;
        *wi = c * *wi - s * new;
        *l = new;
    }
}

/// One column of a Givens rank-1 **downdate**: the `(l − s·w)/c` mirror of
/// [`givens_update_col`], with the same elementwise bit-identity guarantee
/// (the SPD feasibility check stays with the caller).
///
/// # Panics
/// Panics if the slices have different lengths.
#[inline]
pub fn givens_downdate_col(col: &mut [f64], w: &mut [f64], c: f64, s: f64) {
    assert_eq!(col.len(), w.len(), "givens_downdate_col: length mismatch");
    let mut cl = col.chunks_exact_mut(4);
    let mut cw = w.chunks_exact_mut(4);
    for (ls, ws) in cl.by_ref().zip(cw.by_ref()) {
        for (l, wi) in ls.iter_mut().zip(ws.iter_mut()) {
            let new = (*l - s * *wi) / c;
            *wi = c * *wi - s * new;
            *l = new;
        }
    }
    for (l, wi) in cl.into_remainder().iter_mut().zip(cw.into_remainder()) {
        let new = (*l - s * *wi) / c;
        *wi = c * *wi - s * new;
        *l = new;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    fn seq(n: usize, f: impl Fn(usize) -> f64) -> Vec<f64> {
        (0..n).map(f).collect()
    }

    #[test]
    fn axpy4_is_bit_identical_to_axpy() {
        for n in [0, 1, 4, 5, 11, 32] {
            let x = seq(n, |i| (i as f64 * 1.3).sin() * 1e3);
            let mut y4 = seq(n, |i| (i as f64 * 0.9).cos());
            let mut y1 = y4.clone();
            axpy4(0.123456789, &x, &mut y4);
            vector::axpy(0.123456789, &x, &mut y1);
            for (a, b) in y4.iter().zip(&y1) {
                assert_eq!(a.to_bits(), b.to_bits(), "axpy4 drifted at n={n}");
            }
        }
    }

    #[test]
    fn givens_columns_are_bit_identical_to_the_scalar_recurrence() {
        for n in [0usize, 1, 3, 4, 7, 12, 17] {
            let (c, s) = (1.2345678, 0.34567);
            let col0 = seq(n, |i| 1.0 + (i as f64 * 0.59).sin().abs());
            let w0 = seq(n, |i| (i as f64 * 0.83).cos() * 0.4);

            let (mut col, mut w) = (col0.clone(), w0.clone());
            givens_update_col(&mut col, &mut w, c, s);
            let (mut col_ref, mut w_ref) = (col0.clone(), w0.clone());
            for (l, wi) in col_ref.iter_mut().zip(w_ref.iter_mut()) {
                let new = (*l + s * *wi) / c;
                *l = new;
                *wi = c * *wi - s * new;
            }
            for (a, b) in col.iter().zip(&col_ref).chain(w.iter().zip(&w_ref)) {
                assert_eq!(a.to_bits(), b.to_bits(), "update drifted at n={n}");
            }

            let (mut col, mut w) = (col0.clone(), w0.clone());
            givens_downdate_col(&mut col, &mut w, c, s);
            let (mut col_ref, mut w_ref) = (col0.clone(), w0.clone());
            for (l, wi) in col_ref.iter_mut().zip(w_ref.iter_mut()) {
                let new = (*l - s * *wi) / c;
                *l = new;
                *wi = c * *wi - s * new;
            }
            for (a, b) in col.iter().zip(&col_ref).chain(w.iter().zip(&w_ref)) {
                assert_eq!(a.to_bits(), b.to_bits(), "downdate drifted at n={n}");
            }
        }
    }
}
