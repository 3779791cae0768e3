//! Bookkeeping state of the Chinese Restaurant Franchise: groups, tables,
//! dishes, and the sufficient statistics each dish carries.
//!
//! [`HdpState`] is the single source of truth the seating engine
//! (`engine.rs`) mutates. Group observations sit behind `Arc`s, so cloning a
//! state — the heart of warm-start serving, see
//! [`crate::PosteriorSnapshot`] — copies seating bookkeeping and dish
//! statistics but *shares* the data points.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use osr_stats::{BlockStats, DishBank, NiwParams, Slot};

/// Stable identifier of a dish (global mixture component / HDP-OSR
/// *subclass*). Dish ids are never reused within a sampler's lifetime, so
/// they can be reported across iterations (the `S_k` labels of the paper's
/// Tables 1–2).
pub type DishId = usize;

/// Sampler configuration (§4.1.2 values as defaults).
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct HdpConfig {
    /// Gamma prior (shape, rate) on the top-level concentration γ.
    /// Paper: Gamma(100, 1), chosen large to discourage dish sharing between
    /// known classes.
    pub gamma_prior: (f64, f64),
    /// Gamma prior (shape, rate) on the group-level concentration α₀.
    /// Paper: Gamma(10, 1).
    pub alpha_prior: (f64, f64),
    /// Resample γ and α₀ each sweep (disable to run at fixed values).
    pub resample_concentrations: bool,
    /// Number of Gibbs sweeps for [`crate::Hdp::run`]. Paper: 30.
    pub iterations: usize,
}

impl Default for HdpConfig {
    fn default() -> Self {
        Self {
            gamma_prior: (100.0, 1.0),
            alpha_prior: (10.0, 1.0),
            resample_concentrations: true,
            iterations: 30,
        }
    }
}

impl HdpConfig {
    pub(crate) fn validate(&self) -> crate::Result<()> {
        for (name, (a, b)) in
            [("gamma_prior", self.gamma_prior), ("alpha_prior", self.alpha_prior)]
        {
            if !(a > 0.0 && b > 0.0 && a.is_finite() && b.is_finite()) {
                return Err(crate::HdpError::InvalidConfig(format!(
                    "{name} must have positive finite shape/rate, got ({a}, {b})"
                )));
            }
        }
        if self.iterations == 0 {
            return Err(crate::HdpError::InvalidConfig("iterations must be ≥ 1".into()));
        }
        Ok(())
    }
}

/// One table in a restaurant: the dish it serves plus the indices (within
/// the group) of the items sitting at it.
#[derive(Debug, Clone)]
pub(crate) struct Table {
    pub dish: DishId,
    pub members: Vec<usize>,
}

/// One dish on the global menu.
///
/// The dish's NIW posterior lives in the state's [`DishBank`]
/// (struct-of-arrays storage with precomputed predictive constants); the
/// menu entry only records which bank slot it occupies. Dish *ids* stay
/// stable and monotone; bank *slots* are recycled through the bank's
/// free-list when a dish retires.
#[derive(Debug, Clone)]
pub(crate) struct Dish {
    /// Storage slot in [`HdpState::bank`] holding this dish's posterior.
    pub slot: Slot,
    /// Number of tables (across all restaurants) serving this dish (`m_·k`).
    pub n_tables: usize,
}

/// Reusable buffers for the per-item / per-table seating moves, owned by
/// the state so the hot loops of `engine.rs` allocate nothing per decision.
/// Purely scratch: contents are meaningless between moves, and a cloned
/// state (snapshot → session) merely inherits capacity.
#[derive(Debug, Clone, Default)]
pub(crate) struct SeatScratch {
    /// Live `(dish id, bank slot)` menu, rebuilt per move.
    pub live: Vec<(DishId, Slot)>,
    /// The slots of `live`, in the same order (the one-vs-all kernel's
    /// argument layout).
    pub slots: Vec<Slot>,
    /// `d`-length solve buffer for the scoring kernels.
    pub solve: Vec<f64>,
    /// Per-dish predictive log-densities, parallel to `live`.
    pub scores: Vec<f64>,
    /// Menu-marginal log-weights (per dish, then the γ·prior tail).
    pub menu_lw: Vec<f64>,
    /// Candidate log-weights of the categorical seating draw.
    pub lw: Vec<f64>,
    /// Live dish ids for the table-dish move.
    pub live_ids: Vec<DishId>,
    /// Block sufficient statistics shared across Eq. 8 candidates.
    pub stats: BlockStats,
}

/// The full mutable franchise state the seating engine operates on.
#[derive(Debug, Clone)]
pub(crate) struct HdpState {
    /// Base measure H.
    pub params: NiwParams,
    /// Item data: `groups[j][i]` is observation `x_ji`. Each group is held
    /// behind an `Arc` so that snapshot/session clones share the points
    /// instead of deep-copying them; the engine never mutates observations.
    pub groups: Vec<Arc<Vec<Vec<f64>>>>,
    /// `assignment[j][i]` = index into `tables[j]` (usize::MAX = unseated,
    /// only during initialization).
    pub assignment: Vec<Vec<usize>>,
    /// Tables per restaurant.
    pub tables: Vec<Vec<Table>>,
    /// Global menu, keyed by stable [`DishId`]; `None` entries are retired
    /// dishes (ids are not reused).
    pub dishes: Vec<Option<Dish>>,
    /// Struct-of-arrays bank of the live dishes' NIW posteriors with
    /// precomputed predictive constants — the vectorized scoring hot path.
    pub bank: DishBank,
    /// Top-level concentration γ.
    pub gamma: f64,
    /// Group-level concentration α₀.
    pub alpha: f64,
    /// Cumulative count of seating decisions (item reseatings per Eq. 7 plus
    /// table dish resamplings per Eq. 8) since this state was created.
    /// Cloned along with the state, so a session's per-sweep delta is
    /// independent of how many sweeps the checkpoint itself ran.
    pub seat_moves: u64,
    /// Per-move scratch buffers (see [`SeatScratch`]); never observable.
    pub scratch: SeatScratch,
}

impl HdpState {
    /// Total number of occupied tables across restaurants (`m_··`).
    pub fn total_tables(&self) -> usize {
        self.tables.iter().map(Vec::len).sum()
    }

    /// Number of live dishes (`K`).
    pub fn n_dishes(&self) -> usize {
        self.dishes.iter().filter(|d| d.is_some()).count()
    }

    /// Iterate over live `(DishId, &Dish)` pairs.
    pub fn live_dishes(&self) -> impl Iterator<Item = (DishId, &Dish)> {
        self.dishes.iter().enumerate().filter_map(|(id, d)| d.as_ref().map(|d| (id, d)))
    }

    /// Allocate a new dish starting from the prior (its posterior occupies a
    /// fresh or recycled bank slot).
    pub fn new_dish(&mut self) -> DishId {
        let id = self.dishes.len();
        let slot = self.bank.alloc();
        self.dishes.push(Some(Dish { slot, n_tables: 0 }));
        id
    }

    /// Mutable access to a live dish.
    ///
    /// # Panics
    /// Panics when the dish is retired — that is a sampler bug.
    #[allow(clippy::expect_used)]
    pub fn dish_mut(&mut self, id: DishId) -> &mut Dish {
        self.dishes[id].as_mut().expect("dish_mut: retired dish")
    }

    /// Shared access to a live dish.
    ///
    /// # Panics
    /// Panics when the dish is retired — that is a sampler bug.
    #[allow(clippy::expect_used)]
    pub fn dish(&self, id: DishId) -> &Dish {
        self.dishes[id].as_ref().expect("dish: retired dish")
    }

    /// Retire a dish once no table serves it, releasing its bank slot for
    /// reuse (the dish *id* is never reused).
    pub fn retire_if_empty(&mut self, id: DishId) {
        let empty_slot = {
            let d = self.dish(id);
            (d.n_tables == 0 && self.bank.count(d.slot) == 0).then_some(d.slot)
        };
        if let Some(slot) = empty_slot {
            self.bank.release(slot);
            self.dishes[id] = None;
        }
    }

    /// Absorb observation `x` into dish `id`'s posterior.
    ///
    /// # Panics
    /// Panics when the dish is retired.
    pub fn dish_add(&mut self, id: DishId, x: &[f64]) {
        let slot = self.dish(id).slot;
        self.bank.add_obs(slot, x);
    }

    /// Remove observation `x` from dish `id`'s posterior.
    ///
    /// # Panics
    /// Panics when the dish is retired.
    pub fn dish_remove(&mut self, id: DishId, x: &[f64]) {
        let slot = self.dish(id).slot;
        self.bank.remove_obs(slot, x);
    }

    /// Dish currently explaining item `i` of group `j`.
    ///
    /// # Panics
    /// Panics when the item is unseated or indices are out of range.
    pub fn dish_of(&self, group: usize, item: usize) -> DishId {
        let ti = self.assignment[group][item];
        assert!(ti != usize::MAX, "dish_of: sampler has not run yet");
        self.tables[group][ti].dish
    }

    /// Per-dish item counts within one group, sorted by descending count.
    pub fn group_summary(&self, group: usize) -> GroupSummary {
        let mut counts: std::collections::BTreeMap<DishId, usize> = Default::default();
        for table in &self.tables[group] {
            *counts.entry(table.dish).or_insert(0) += table.members.len();
        }
        let mut dish_counts: Vec<(DishId, usize)> = counts.into_iter().collect();
        dish_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        GroupSummary {
            group,
            n_items: self.groups[group].len(),
            n_tables: self.tables[group].len(),
            dish_counts,
        }
    }

    /// Summaries of every live dish, sorted by id.
    pub fn dish_summaries(&self) -> Vec<DishSummary> {
        self.live_dishes()
            .map(|(id, d)| DishSummary {
                id,
                n_tables: d.n_tables,
                n_items: self.bank.count(d.slot),
                mean: self.bank.mean(d.slot).to_vec(),
            })
            .collect()
    }

    /// Joint log marginal likelihood of all data given the current seating
    /// (sum of per-dish closed-form marginals) — a convergence diagnostic.
    pub fn joint_log_likelihood(&self) -> f64 {
        self.live_dishes().map(|(_, d)| self.bank.log_marginal(d.slot)).sum()
    }

    /// Exhaustive O(n) consistency audit; used by tests after every sweep.
    ///
    /// # Panics
    /// Panics on any bookkeeping violation, with a message naming it.
    pub fn check_invariants(&self) {
        let mut dish_tables = vec![0usize; self.dishes.len()];
        let mut dish_items = vec![0usize; self.dishes.len()];
        for (j, tables) in self.tables.iter().enumerate() {
            let mut seated = vec![false; self.groups[j].len()];
            for (ti, table) in tables.iter().enumerate() {
                assert!(!table.members.is_empty(), "group {j} table {ti} is empty");
                assert!(
                    self.dishes.get(table.dish).is_some_and(Option::is_some),
                    "group {j} table {ti} serves retired dish {}",
                    table.dish
                );
                dish_tables[table.dish] += 1;
                dish_items[table.dish] += table.members.len();
                for &m in &table.members {
                    assert!(!seated[m], "item {m} of group {j} seated twice");
                    seated[m] = true;
                    assert_eq!(
                        self.assignment[j][m], ti,
                        "assignment of item {m} in group {j} disagrees with table membership"
                    );
                }
            }
            assert!(
                seated.iter().all(|&s| s),
                "group {j} has unseated items outside initialization"
            );
        }
        let mut slot_owner = vec![None::<DishId>; self.bank.n_slots()];
        for (id, dish) in self.dishes.iter().enumerate() {
            if let Some(d) = dish {
                assert_eq!(d.n_tables, dish_tables[id], "dish {id} table count drift");
                assert_eq!(self.bank.count(d.slot), dish_items[id], "dish {id} item count drift");
                assert!(d.n_tables > 0, "live dish {id} has no tables");
                assert!(self.bank.is_live(d.slot), "dish {id} points at freed bank slot {}", d.slot);
                if let Some(prev) = slot_owner[d.slot].replace(id) {
                    panic!("dishes {prev} and {id} share bank slot {}", d.slot);
                }
            } else {
                assert_eq!(dish_tables[id], 0, "retired dish {id} still served");
            }
        }
        assert_eq!(
            self.bank.n_live(),
            self.n_dishes(),
            "bank live-slot count disagrees with the menu"
        );
    }
}

/// Public read-only summary of one dish.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DishSummary {
    /// Stable dish id (the paper's subclass label `S_k`).
    pub id: DishId,
    /// Tables serving it across all groups (`m_·k`).
    pub n_tables: usize,
    /// Items absorbed across all groups.
    pub n_items: usize,
    /// Posterior mean of the component.
    pub mean: Vec<f64>,
}

/// Public read-only summary of one group's composition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GroupSummary {
    /// Group index.
    pub group: usize,
    /// Number of items.
    pub n_items: usize,
    /// Number of tables.
    pub n_tables: usize,
    /// `(dish id, item count)` per dish used in this group, sorted by
    /// descending count.
    pub dish_counts: Vec<(DishId, usize)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_linalg::Matrix;

    fn params() -> NiwParams {
        NiwParams::new(vec![0.0, 0.0], 1.0, 4.0, Matrix::identity(2)).unwrap()
    }

    fn empty_state() -> HdpState {
        let params = params();
        let bank = DishBank::new(&params);
        HdpState {
            params,
            groups: vec![Arc::new(vec![vec![0.0, 0.0], vec![1.0, 1.0]])],
            assignment: vec![vec![usize::MAX, usize::MAX]],
            tables: vec![vec![]],
            dishes: vec![],
            bank,
            gamma: 1.0,
            alpha: 1.0,
            seat_moves: 0,
            scratch: SeatScratch::default(),
        }
    }

    #[test]
    fn config_defaults_match_paper() {
        let c = HdpConfig::default();
        assert_eq!(c.gamma_prior, (100.0, 1.0));
        assert_eq!(c.alpha_prior, (10.0, 1.0));
        assert_eq!(c.iterations, 30);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        let c = HdpConfig { iterations: 0, ..Default::default() };
        assert!(c.validate().is_err());
        let c = HdpConfig { gamma_prior: (0.0, 1.0), ..Default::default() };
        assert!(c.validate().is_err());
        let c = HdpConfig { alpha_prior: (1.0, f64::NAN), ..Default::default() };
        assert!(c.validate().is_err());
    }

    #[test]
    fn dish_lifecycle() {
        let mut s = empty_state();
        let id = s.new_dish();
        assert_eq!(id, 0);
        assert_eq!(s.n_dishes(), 1);
        // Untouched dish retires.
        s.retire_if_empty(id);
        assert_eq!(s.n_dishes(), 0);
        // New ids are not reused.
        let id2 = s.new_dish();
        assert_eq!(id2, 1);
    }

    #[test]
    fn invariants_accept_consistent_state() {
        let mut s = empty_state();
        let dish = s.new_dish();
        let x0 = s.groups[0][0].clone();
        let x1 = s.groups[0][1].clone();
        s.dish_add(dish, &x0);
        s.dish_add(dish, &x1);
        s.dish_mut(dish).n_tables = 1;
        s.tables[0].push(Table { dish, members: vec![0, 1] });
        s.assignment[0] = vec![0, 0];
        s.check_invariants();
        assert_eq!(s.total_tables(), 1);
    }

    #[test]
    fn cloned_state_shares_group_data() {
        let s = empty_state();
        let c = s.clone();
        assert!(
            Arc::ptr_eq(&s.groups[0], &c.groups[0]),
            "state clones must share observations, not deep-copy them"
        );
    }

    #[test]
    #[should_panic(expected = "table count drift")]
    fn invariants_catch_table_count_drift() {
        let mut s = empty_state();
        let dish = s.new_dish();
        let x0 = s.groups[0][0].clone();
        let x1 = s.groups[0][1].clone();
        s.dish_add(dish, &x0);
        s.dish_add(dish, &x1);
        s.dish_mut(dish).n_tables = 2; // lie
        s.tables[0].push(Table { dish, members: vec![0, 1] });
        s.assignment[0] = vec![0, 0];
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "seated twice")]
    fn invariants_catch_double_seating() {
        let mut s = empty_state();
        let dish = s.new_dish();
        let x0 = s.groups[0][0].clone();
        s.dish_add(dish, &x0);
        s.dish_add(dish, &x0);
        s.dish_mut(dish).n_tables = 1;
        s.tables[0].push(Table { dish, members: vec![0, 0] });
        s.assignment[0] = vec![0, 0];
        s.check_invariants();
    }
}
