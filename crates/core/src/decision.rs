//! The collective decision: subclass → class association and test labeling.
//!
//! After co-clustering, every dish (subclass) that survives the ϱ-pruning in
//! a known class's group is *associated* with that class. A test point is
//! labeled with the class its dish associates to; a dish with no known-class
//! association means the point belongs to territory the training data never
//! occupied, i.e. [`Prediction::Unknown`].

use serde::{Deserialize, Serialize};

use osr_hdp::DishId;

use crate::discovery::SubclassReport;

/// Re-export of the workspace-wide prediction type (defined next to
/// [`osr_dataset::protocol::GroundTruth`] so baselines and HDP-OSR share it).
pub use osr_dataset::protocol::Prediction;

/// Why a batch was answered via degraded frozen inference instead of the
/// full collective decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DegradeReason {
    /// Every attempt allowed by the retry policy diverged.
    RetriesExhausted,
    /// The per-batch Gibbs sweep budget ran out mid-service.
    SweepBudgetExceeded,
    /// The per-batch wall-clock deadline passed mid-service.
    DeadlineExceeded,
}

impl std::fmt::Display for DegradeReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::RetriesExhausted => write!(f, "retries exhausted"),
            Self::SweepBudgetExceeded => write!(f, "sweep budget exceeded"),
            Self::DeadlineExceeded => write!(f, "deadline exceeded"),
        }
    }
}

/// How a [`ClassifyOutcome`] was produced — callers that care about answer
/// quality should check for [`ServedVia::Degraded`], which marks a best-effort
/// frozen-inference answer rather than a full collective decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServedVia {
    /// Warm-start service: the batch was reseated against the fit-time
    /// posterior checkpoint (the normal fast path).
    Warm,
    /// Cold transductive service: training and batch re-clustered from
    /// scratch (the paper's original schedule).
    Cold,
    /// Degraded frozen inference: MAP dish assignment under the checkpoint,
    /// no reseating. Produced when the fault-tolerance policy gave up on
    /// full service for the stated reason.
    Degraded {
        /// Why full service was abandoned.
        reason: DegradeReason,
    },
}

impl ServedVia {
    /// True for [`ServedVia::Degraded`].
    pub fn is_degraded(&self) -> bool {
        matches!(self, Self::Degraded { .. })
    }
}

impl std::fmt::Display for ServedVia {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Warm => write!(f, "warm"),
            Self::Cold => write!(f, "cold"),
            Self::Degraded { reason } => write!(f, "degraded ({reason})"),
        }
    }
}

/// Full output of [`crate::HdpOsr::classify_detailed`].
#[derive(Debug, Clone)]
pub struct ClassifyOutcome {
    /// One prediction per test point.
    pub predictions: Vec<Prediction>,
    /// Subclass structure and the new-class-discovery estimate
    /// (the paper's Tables 1–2 content).
    pub report: SubclassReport,
    /// The dish (subclass) each test point landed on.
    pub test_dishes: Vec<DishId>,
    /// Final top-level concentration γ of the sampler.
    pub gamma: f64,
    /// Final group-level concentration α₀ of the sampler.
    pub alpha: f64,
    /// Joint log marginal likelihood of the final state.
    pub log_likelihood: f64,
    /// How this outcome was produced (full service or degraded fallback).
    pub served_via: ServedVia,
    /// Number of serve attempts consumed, including the successful one
    /// (`1` = no retries; degraded outcomes count the failed attempts).
    pub attempts: u32,
    /// Identifier linking this outcome to its [`crate::BatchTrace`] in the
    /// server's trace stream ([`crate::batch_trace_id`]`(seed, batch)`);
    /// `"adhoc"` for the single-shot `classify`/`classify_detailed` path.
    pub trace_id: String,
    /// Stable tag of the method that produced this outcome
    /// ([`crate::CDOSR_METHOD`] for CD-OSR, `"wsvm"`/`"osnn"`/… for the
    /// baselines served through the same stack).
    pub method: String,
}

/// Association table from dish id to the known classes using it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Associations {
    /// `(class index, item count in that class)` per dish.
    map: std::collections::BTreeMap<DishId, Vec<(usize, usize)>>,
}

impl Associations {
    /// Record that `class` uses `dish` with `count` items (post-pruning).
    pub fn insert(&mut self, dish: DishId, class: usize, count: usize) {
        self.map.entry(dish).or_default().push((class, count));
    }

    /// True when the dish is associated with at least one known class.
    pub fn is_known(&self, dish: DishId) -> bool {
        self.map.contains_key(&dish)
    }

    /// Decide the label for a test point sitting on `dish`: the associated
    /// class with the most items there (ties to the smaller class index),
    /// or `Unknown` when no class is associated.
    pub fn decide(&self, dish: DishId) -> Prediction {
        match self.map.get(&dish) {
            None => Prediction::Unknown,
            Some(classes) => classes
                .iter()
                .max_by(|a, b| a.1.cmp(&b.1).then(b.0.cmp(&a.0)))
                .map_or(Prediction::Unknown, |&(class, _)| Prediction::Known(class)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unassociated_dish_is_unknown() {
        let a = Associations::default();
        assert_eq!(a.decide(3), Prediction::Unknown);
        assert!(!a.is_known(3));
    }

    #[test]
    fn single_association_wins() {
        let mut a = Associations::default();
        a.insert(7, 2, 40);
        assert_eq!(a.decide(7), Prediction::Known(2));
        assert!(a.is_known(7));
    }

    #[test]
    fn shared_dish_goes_to_heavier_class() {
        let mut a = Associations::default();
        a.insert(1, 0, 10);
        a.insert(1, 3, 25);
        assert_eq!(a.decide(1), Prediction::Known(3));
    }

    #[test]
    fn ties_resolve_to_smaller_class_index() {
        let mut a = Associations::default();
        a.insert(1, 4, 10);
        a.insert(1, 2, 10);
        assert_eq!(a.decide(1), Prediction::Known(2));
    }

    #[test]
    fn multiple_dishes_per_class_are_independent() {
        let mut a = Associations::default();
        a.insert(1, 0, 5);
        a.insert(2, 1, 9);
        assert_eq!(a.decide(1), Prediction::Known(0));
        assert_eq!(a.decide(2), Prediction::Known(1));
    }
}
