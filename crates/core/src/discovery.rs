//! New-class discovery (paper §4.3, Tables 1–2).
//!
//! Subclasses that the test group uses but no known class does are *new*
//! subclasses; because unknown categories arrive unlabeled, each discovered
//! category initially lives at subclass granularity. Eq. 11 turns the counts
//! into a rough estimate Δ of how many real unknown categories are present,
//! by assuming unknown classes fragment into about as many subclasses as the
//! known classes do on average:
//!
//! ```text
//! Δ = ⌊ |S_unknown| / (|S_known| / (J − 1)) + 0.5 ⌋
//! ```

use osr_hdp::DishId;

/// Subclass composition of one group (a known class or the test set):
/// the dishes it uses after ϱ-pruning, with their within-group proportions.
#[derive(Debug, Clone)]
pub struct GroupSubclasses {
    /// Display name ("Class1", …, "Testing-Set").
    pub name: String,
    /// `(dish id, item count, proportion within the group)` for every
    /// surviving subclass, sorted by descending proportion.
    pub subclasses: Vec<(DishId, usize, f64)>,
}

impl GroupSubclasses {
    /// Number of surviving subclasses (the `# Subclass` column).
    pub fn n_subclasses(&self) -> usize {
        self.subclasses.len()
    }
}

/// The Tables 1–2 report: per-group subclass structure plus the Δ estimate.
#[derive(Debug, Clone)]
pub struct SubclassReport {
    /// One entry per known class, in training-class order.
    pub known: Vec<GroupSubclasses>,
    /// The test group's subclasses that are associated with known classes.
    pub test_known: Vec<(DishId, usize, f64)>,
    /// The test group's *new* subclasses (no known-class association).
    pub test_new: Vec<(DishId, usize, f64)>,
    /// Fraction of test items on known-associated subclasses.
    pub test_known_proportion: f64,
    /// Fraction of test items on new subclasses.
    pub test_new_proportion: f64,
    /// Eq. 11 estimate of the number of unknown categories.
    pub delta_estimate: usize,
}

impl SubclassReport {
    /// `|S_known|`: total subclasses associated with known classes.
    pub fn n_known_subclasses(&self) -> usize {
        self.known.iter().map(GroupSubclasses::n_subclasses).sum()
    }

    /// `|S_unknown|`: new subclasses discovered in the test group.
    pub fn n_new_subclasses(&self) -> usize {
        self.test_new.len()
    }

    /// Render in the layout of the paper's Tables 1–2.
    pub fn to_table(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        let _ = writeln!(out, "{:<14} {:>10}  Subclasses (id: %)", "Group", "# Subclass");
        for g in &self.known {
            let cells: Vec<String> = g
                .subclasses
                .iter()
                .map(|(id, _, p)| format!("S{id}: {:.2}%", p * 100.0))
                .collect();
            let _ = writeln!(out, "{:<14} {:>10}  {}", g.name, g.n_subclasses(), cells.join("  "));
        }
        let _ = writeln!(
            out,
            "{:<14} {:>10}  Known subclasses (#: {}) {:.2}% | New subclasses (#: {}) {:.2}%",
            "Testing-Set",
            self.test_known.len() + self.test_new.len(),
            self.test_known.len(),
            self.test_known_proportion * 100.0,
            self.test_new.len(),
            self.test_new_proportion * 100.0,
        );
        let _ = writeln!(out, "Estimated unknown categories (Eq. 11): Δ = {}", self.delta_estimate);
        out
    }
}

/// Eq. 11: estimate the number of unknown categories.
///
/// Returns 0 when there are no new subclasses or no known subclasses to
/// calibrate against.
pub fn estimate_unknown_classes(
    n_unknown_subclasses: usize,
    n_known_subclasses: usize,
    n_known_classes: usize,
) -> usize {
    if n_unknown_subclasses == 0 || n_known_subclasses == 0 || n_known_classes == 0 {
        return 0;
    }
    let per_class = n_known_subclasses as f64 / n_known_classes as f64;
    (n_unknown_subclasses as f64 / per_class + 0.5).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq12_worked_example_from_the_paper() {
        // USPS: |S_unknown| = 14, |S_known| = 19, J − 1 = 5 ⇒ Δ = 4.
        assert_eq!(estimate_unknown_classes(14, 19, 5), 4);
    }

    #[test]
    fn table2_pendigits_example() {
        // PENDIGITS: |S_unknown| = 32, |S_known| = 43, J − 1 = 5
        // ⇒ 32 / 8.6 + 0.5 = 4.22 ⇒ Δ = 4.
        assert_eq!(estimate_unknown_classes(32, 43, 5), 4);
    }

    #[test]
    fn zero_cases_return_zero() {
        assert_eq!(estimate_unknown_classes(0, 19, 5), 0);
        assert_eq!(estimate_unknown_classes(5, 0, 5), 0);
        assert_eq!(estimate_unknown_classes(5, 19, 0), 0);
    }

    #[test]
    fn uniform_fragmentation_recovers_exact_count() {
        // 3 subclasses per known class, 4 known classes, 12 unknown
        // subclasses ⇒ exactly 4 unknown classes.
        assert_eq!(estimate_unknown_classes(12, 12, 4), 4);
    }

    #[test]
    fn report_table_renders() {
        let report = SubclassReport {
            known: vec![GroupSubclasses {
                name: "Class1".into(),
                subclasses: vec![(13, 98, 0.9867)],
            }],
            test_known: vec![(13, 50, 0.5)],
            test_new: vec![(21, 50, 0.5)],
            test_known_proportion: 0.5,
            test_new_proportion: 0.5,
            delta_estimate: 1,
        };
        let t = report.to_table();
        assert!(t.contains("Class1"));
        assert!(t.contains("S13: 98.67%"));
        assert!(t.contains("Δ = 1"));
        assert_eq!(report.n_known_subclasses(), 1);
        assert_eq!(report.n_new_subclasses(), 1);
    }
}
