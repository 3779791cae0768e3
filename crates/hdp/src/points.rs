//! One group's observations as a single row-major buffer.
//!
//! A group is read row by row (`group[i]` is observation `x_ji`) but is
//! never resized or mutated once built, so it needs no per-point heap
//! block: [`Points`] keeps every row of a group back to back in one
//! `Vec<f64>`. Building, decoding or dropping a group then costs one
//! allocation rather than one per point; on a registry cold load, per-point
//! allocations would be most of the decode and eviction cost.

use std::ops::Index;

use crate::{HdpError, Result};

/// `len` observations of dimension `dim`, stored row-major in one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct Points {
    dim: usize,
    len: usize,
    data: Vec<f64>,
}

impl Points {
    /// Flatten group `j`'s `rows`, each of length `dim`, into one buffer.
    ///
    /// # Errors
    /// [`HdpError::InvalidGroups`] naming group `j` when a row has another
    /// length.
    pub fn from_group(j: usize, dim: usize, rows: &[Vec<f64>]) -> Result<Self> {
        let mut data = Vec::with_capacity(rows.len() * dim);
        for row in rows {
            if row.len() != dim {
                return Err(HdpError::InvalidGroups(format!(
                    "group {j} has a point of dimension {} (expected {dim})",
                    row.len()
                )));
            }
            data.extend_from_slice(row);
        }
        Ok(Self { dim, len: rows.len(), data })
    }

    /// `len` rows of dimension `dim` from a row-major buffer of
    /// `len * dim` values (the snapshot decoder's bulk read).
    pub(crate) fn from_flat(dim: usize, len: usize, data: Vec<f64>) -> Self {
        debug_assert_eq!(data.len(), len * dim);
        Self { dim, len, data }
    }

    /// Dimension of every row.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the group holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Every coordinate, row after row.
    pub fn as_flat(&self) -> &[f64] {
        &self.data
    }

    /// The rows in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[f64]> + '_ {
        (0..self.len).map(move |i| &self[i])
    }
}

impl Index<usize> for Points {
    type Output = [f64];

    /// Row `i`.
    ///
    /// # Panics
    /// Panics when `i >= len`.
    fn index(&self, i: usize) -> &[f64] {
        assert!(i < self.len, "row {i} of a {}-row group", self.len);
        &self.data[i * self.dim..(i + 1) * self.dim]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<f64>> {
        vec![vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0], vec![-7.5, 0.0, 8.25]]
    }

    #[test]
    fn index_reads_row_i() {
        let p = Points::from_group(0, 3, &rows()).unwrap();
        assert_eq!((p.dim(), p.len(), p.is_empty()), (3, 3, false));
        assert_eq!(&p[0], &[1.0, 2.0, 3.0]);
        assert_eq!(&p[2], &[-7.5, 0.0, 8.25]);
        assert_eq!(p.as_flat(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, -7.5, 0.0, 8.25]);
    }

    #[test]
    #[should_panic(expected = "row 3 of a 3-row group")]
    fn index_past_the_last_row_panics() {
        let p = Points::from_group(0, 3, &rows()).unwrap();
        let _ = &p[3];
    }

    #[test]
    fn iter_yields_every_row_in_order() {
        let rows = rows();
        let p = Points::from_group(0, 3, &rows).unwrap();
        let it = p.iter();
        assert_eq!(it.len(), 3);
        let got: Vec<&[f64]> = it.collect();
        let want: Vec<&[f64]> = rows.iter().map(Vec::as_slice).collect();
        assert_eq!(got, want);
    }

    #[test]
    fn rows_round_trip_through_the_flat_buffer() {
        let rows = rows();
        let p = Points::from_group(0, 3, &rows).unwrap();
        assert!(p.iter().eq(rows.iter().map(Vec::as_slice)));
        assert_eq!(Points::from_flat(3, 3, p.as_flat().to_vec()), p);
        let empty = Points::from_group(0, 4, &[]).unwrap();
        assert!(empty.is_empty());
        assert_eq!(empty.iter().count(), 0);
    }

    #[test]
    fn ragged_rows_are_refused_naming_the_group() {
        let mut rows = rows();
        rows[1].pop();
        let err = Points::from_group(7, 3, &rows).unwrap_err().to_string();
        assert!(err.contains("group 7 has a point of dimension 2 (expected 3)"), "{err}");
        assert_eq!(Points::from_group(0, 2, &[vec![0.0, 1.0]]).unwrap().len(), 1);
    }
}
