//! Benchmark datasets and the open-set experimental protocol.
//!
//! The paper evaluates on LETTER, USPS and PENDIGITS from the LIBSVM
//! repository. Those files are not available in this offline environment, so
//! [`synthetic`] provides *seeded replicas*: class-conditional Gaussian
//! mixture generators matching each dataset's published shape (class count,
//! feature dimension, sample count) with multi-modal classes — the structural
//! properties every experiment in the paper actually depends on. See
//! `DESIGN.md` ("Substitutions") for the full justification.
//!
//! [`protocol`] implements the paper's experimental machinery verbatim:
//! the openness measure of Scheirer et al., the training/testing split
//! (steps 1–3 of §4.1.1), and the fitting/validation partition with
//! Closed-Set and Open-Set simulations (steps 4–6, Fig. 3) used for
//! threshold selection.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod csv;
pub mod gmm;
pub mod protocol;
pub mod synthetic;

/// Errors produced while building datasets or splits.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetError {
    /// Requested more classes than the dataset has.
    NotEnoughClasses {
        /// Classes requested (known + unknown).
        requested: usize,
        /// Classes available.
        available: usize,
    },
    /// A class ended up with too few samples for the requested split.
    NotEnoughSamples {
        /// Class (original id) lacking samples.
        class: usize,
        /// Samples required.
        needed: usize,
        /// Samples present.
        got: usize,
    },
    /// Invalid configuration value (message explains).
    InvalidConfig(String),
}

impl std::fmt::Display for DatasetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::NotEnoughClasses { requested, available } => {
                write!(f, "requested {requested} classes but only {available} available")
            }
            Self::NotEnoughSamples { class, needed, got } => {
                write!(f, "class {class} has {got} samples, needs {needed}")
            }
            Self::InvalidConfig(msg) => write!(f, "invalid configuration: {msg}"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, DatasetError>;

/// A fully labeled multi-class dataset (the "universe" an open-set problem is
/// carved out of).
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Human-readable name ("LETTER", "USPS", …).
    pub name: String,
    /// Feature vectors, one per sample.
    pub points: Vec<Vec<f64>>,
    /// Class id (0-based, dense) per sample; parallel to `points`.
    pub labels: Vec<usize>,
    /// Number of distinct classes.
    pub n_classes: usize,
}

impl Dataset {
    /// Build with validation.
    ///
    /// # Panics
    /// Panics when `points` and `labels` disagree in length, a label is out
    /// of range, or the points are ragged.
    pub fn new(name: impl Into<String>, points: Vec<Vec<f64>>, labels: Vec<usize>, n_classes: usize) -> Self {
        assert_eq!(points.len(), labels.len(), "Dataset: points/labels length mismatch");
        assert!(labels.iter().all(|&l| l < n_classes), "Dataset: label out of range");
        if let Some(first) = points.first() {
            let d = first.len();
            assert!(points.iter().all(|p| p.len() == d), "Dataset: ragged points");
        }
        Self { name: name.into(), points, labels, n_classes }
    }

    /// Number of samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the dataset holds no samples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Feature dimension (0 for an empty dataset).
    pub fn dim(&self) -> usize {
        self.points.first().map_or(0, Vec::len)
    }

    /// Indices of all samples belonging to `class`.
    pub fn class_indices(&self, class: usize) -> Vec<usize> {
        self.labels
            .iter()
            .enumerate()
            .filter_map(|(i, &l)| (l == class).then_some(i))
            .collect()
    }

    /// Per-class sample counts.
    pub fn class_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.n_classes];
        for &l in &self.labels {
            counts[l] += 1;
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Dataset {
        Dataset::new(
            "toy",
            vec![vec![0.0], vec![1.0], vec![2.0], vec![3.0]],
            vec![0, 1, 0, 1],
            2,
        )
    }

    #[test]
    fn accessors() {
        let d = toy();
        assert_eq!(d.len(), 4);
        assert!(!d.is_empty());
        assert_eq!(d.dim(), 1);
        assert_eq!(d.class_indices(0), vec![0, 2]);
        assert_eq!(d.class_counts(), vec![2, 2]);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn rejects_out_of_range_label() {
        let _ = Dataset::new("bad", vec![vec![0.0]], vec![5], 2);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn rejects_length_mismatch() {
        let _ = Dataset::new("bad", vec![vec![0.0]], vec![0, 1], 2);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn rejects_ragged_points() {
        let _ = Dataset::new("bad", vec![vec![0.0], vec![0.0, 1.0]], vec![0, 0], 1);
    }
}
