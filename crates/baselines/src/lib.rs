//! The paper's open-set recognition baselines, re-implemented from their
//! source publications:
//!
//! * [`OneVsSet`] — the 1-vs-Set machine (Scheirer et al. 2013): a linear
//!   SVM refined into a *slab* between two parallel hyperplanes chosen to
//!   minimize the open-space-risk objective (Eq. 1 of the paper).
//! * [`WOsvm`] — W-OSVM: the one-class SVM CAP model of W-SVM alone, with
//!   EVT (Weibull) score calibration and the fixed δ_τ = 0.001 threshold.
//! * [`WSvm`] — the Weibull-calibrated SVM (Scheirer et al. 2014): one-class
//!   conditioner plus a binary one-vs-rest SVM whose positive scores get a
//!   Weibull inclusion model `P_η` and whose negative scores get a
//!   reverse-Weibull exceedance model `P_ψ`; accept `argmax P_η·P_ψ` when
//!   the product clears δ_R (Eq. 2).
//! * [`PiSvm`] — P_I-SVM (Jain et al. 2014): one-vs-rest binary SVMs with a
//!   Weibull *probability-of-inclusion* model fitted on each class's
//!   positive decision scores; reject when the best posterior is below δ.
//! * [`Osnn`] — OSNN, the nearest-neighbour distance-ratio classifier
//!   (Júnior et al. 2017, Eq. 3).
//!
//! Every baseline implements [`OpenSetClassifier`], takes the paper's
//! grid-searchable hyperparameters explicitly, and produces the shared
//! [`Prediction`] type scored by `osr-eval`.

#![warn(missing_docs)]
#![deny(unsafe_code)]

mod one_vs_set;
mod osnn;
mod pisvm;
pub mod serve;
mod wsvm;

pub use one_vs_set::{OneVsSet, OneVsSetParams};
pub use osnn::{Osnn, OsnnParams};
pub use pisvm::{PiSvm, PiSvmParams};
pub use serve::{BaselineSpec, ServedBaseline};
pub use wsvm::{WOsvm, WOsvmParams, WSvm, WSvmParams};

pub use osr_dataset::protocol::Prediction;

/// Errors produced while training baselines.
#[derive(Debug, Clone, PartialEq)]
pub enum BaselineError {
    /// Training data unusable for this method.
    InvalidTrainingSet(String),
    /// Invalid hyperparameter.
    InvalidParameter(String),
    /// Propagated SVM failure.
    Svm(osr_svm::SvmError),
    /// Propagated EVT/statistics failure.
    Stats(osr_stats::StatsError),
}

impl std::fmt::Display for BaselineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::InvalidTrainingSet(m) => write!(f, "invalid training set: {m}"),
            Self::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            Self::Svm(e) => write!(f, "svm failure: {e}"),
            Self::Stats(e) => write!(f, "statistics failure: {e}"),
        }
    }
}

impl std::error::Error for BaselineError {}

impl From<osr_svm::SvmError> for BaselineError {
    fn from(e: osr_svm::SvmError) -> Self {
        Self::Svm(e)
    }
}

impl From<osr_stats::StatsError> for BaselineError {
    fn from(e: osr_stats::StatsError) -> Self {
        Self::Stats(e)
    }
}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, BaselineError>;

/// Common interface of every fitted open-set baseline; a
/// [`ServedBaseline`] holds one as a trait object. (HDP-OSR serves through
/// `hdp_osr_core::CollectiveModel` instead.)
pub trait OpenSetClassifier: std::fmt::Debug + Send + Sync {
    /// Classify one test point.
    fn predict(&self, x: &[f64]) -> Prediction;

    /// Classify a batch (default: point-wise).
    fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<Prediction> {
        xs.iter().map(|x| self.predict(x)).collect()
    }
}

/// Validate a flattened training set: non-empty, consistent dimensions,
/// labels within `0..n_classes`, every class inhabited. Returns the feature
/// dimension.
pub(crate) fn validate_training(
    points: &[&[f64]],
    labels: &[usize],
    n_classes: usize,
) -> Result<usize> {
    if points.is_empty() {
        return Err(BaselineError::InvalidTrainingSet("no training points".into()));
    }
    if points.len() != labels.len() {
        return Err(BaselineError::InvalidTrainingSet(format!(
            "{} labels for {} points",
            labels.len(),
            points.len()
        )));
    }
    if n_classes == 0 {
        return Err(BaselineError::InvalidTrainingSet("zero classes".into()));
    }
    let d = points[0].len();
    if points.iter().any(|p| p.len() != d) {
        return Err(BaselineError::InvalidTrainingSet("inconsistent dimensions".into()));
    }
    let mut seen = vec![false; n_classes];
    for &l in labels {
        if l >= n_classes {
            return Err(BaselineError::InvalidTrainingSet(format!(
                "label {l} out of range for {n_classes} classes"
            )));
        }
        seen[l] = true;
    }
    if let Some(missing) = seen.iter().position(|&s| !s) {
        return Err(BaselineError::InvalidTrainingSet(format!("class {missing} has no samples")));
    }
    Ok(d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validate_training_accepts_good_input() {
        let pts = [vec![0.0, 1.0], vec![1.0, 0.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        assert_eq!(validate_training(&refs, &[0, 1], 2).unwrap(), 2);
    }

    #[test]
    fn validate_training_rejects_problems() {
        let pts = [vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = pts.iter().map(Vec::as_slice).collect();
        assert!(validate_training(&[], &[], 1).is_err());
        assert!(validate_training(&refs, &[0], 2).is_err());
        assert!(validate_training(&refs, &[0, 5], 2).is_err());
        assert!(validate_training(&refs, &[0, 0], 2).is_err()); // class 1 empty
        assert!(validate_training(&refs, &[0, 1], 0).is_err());
        let ragged = [vec![0.0], vec![1.0, 2.0]];
        let rr: Vec<&[f64]> = ragged.iter().map(Vec::as_slice).collect();
        assert!(validate_training(&rr, &[0, 1], 2).is_err());
    }
}
