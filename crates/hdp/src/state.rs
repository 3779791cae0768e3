//! Bookkeeping state of the Chinese Restaurant Franchise: groups, tables,
//! dishes, and the sufficient statistics each dish carries.
//!
//! [`HdpState`] is the single source of truth the seating engine
//! (`engine.rs`) mutates. Group observations sit behind `Arc`s, so cloning a
//! state — the heart of warm-start serving, see
//! [`crate::PosteriorSnapshot`] — copies seating bookkeeping and dish
//! statistics but *shares* the data points.

use std::sync::Arc;

use osr_stats::snapshot::{Dec, Enc, SnapResult};
use osr_stats::{BlockStats, DishBank, NiwParams, Slot};

use crate::Points;

/// Stable identifier of a dish (global mixture component / HDP-OSR
/// *subclass*). Dish ids are never reused within a sampler's lifetime, so
/// they can be reported across iterations (the `S_k` labels of the paper's
/// Tables 1–2).
pub type DishId = usize;

/// Sampler configuration (§4.1.2 values as defaults).
#[derive(Debug, Clone, Copy)]
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
    /// `d`-length solve buffer for the scoring kernels.
    pub solve: Vec<f64>,
    /// Per-dish predictive log-densities, parallel to the live menu.
    pub scores: Vec<f64>,
    /// Menu-marginal log-weights (per dish, then the γ·prior tail).
    pub menu_lw: Vec<f64>,
    /// Candidate log-weights of the categorical seating draw.
    pub lw: Vec<f64>,
    /// Normalized weights of the categorical draw in progress.
    pub weights: Vec<f64>,
    /// Block sufficient statistics shared across Eq. 8 candidates.
    pub stats: BlockStats,
}

/// The global dish menu: every dish id the sampler ever minted, plus an
/// index of the live ones.
///
/// Ids are never reused, so after a long fit most ids are retired (a
/// 30-sweep LETTER fit leaves hundreds of ids for a dozen live dishes).
/// The seating moves range over the live dishes only, so the menu keeps
/// them as a derived index beside the id-keyed entries: the live ids in
/// ascending order and their bank slots in the same order (the one-vs-all
/// kernel's argument layout). Ids only grow, so nucleating a dish appends
/// to the index; retiring one removes it. The index is never serialized —
/// [`Self::decode_from`] rebuilds it. Nothing outside this type can walk
/// retired ids or move a dish's slot, so the index cannot drift from the
/// entries.
#[derive(Debug, Clone, Default)]
pub(crate) struct DishMenu {
    /// Keyed by [`DishId`]; `None` entries are retired dishes.
    dishes: Vec<Option<Dish>>,
    /// Live dish ids, ascending.
    live: Vec<DishId>,
    /// Bank slots of `live`, in the same order.
    slots: Vec<Slot>,
}

impl DishMenu {
    /// One past the largest id ever minted.
    pub fn n_ids(&self) -> usize {
        self.dishes.len()
    }

    /// Number of live dishes (`K`).
    pub fn n_live(&self) -> usize {
        self.live.len()
    }

    /// The live dish `id`, if it is live.
    pub fn get(&self, id: DishId) -> Option<&Dish> {
        self.dishes.get(id)?.as_ref()
    }

    /// Mutable access to the table count of the live dish `id`, if it is
    /// live (its slot is fixed for life, so the index stays valid).
    pub fn n_tables_mut(&mut self, id: DishId) -> Option<&mut usize> {
        Some(&mut self.dishes.get_mut(id)?.as_mut()?.n_tables)
    }

    /// Live dish ids, ascending.
    pub fn live_ids(&self) -> &[DishId] {
        &self.live
    }

    /// Bank slots of the live dishes, parallel to [`Self::live_ids`].
    pub fn live_slots(&self) -> &[Slot] {
        &self.slots
    }

    /// Position of the live dish `id` in [`Self::live_ids`].
    pub fn position(&self, id: DishId) -> Option<usize> {
        self.live.binary_search(&id).ok()
    }

    /// Live `(DishId, &Dish)` pairs, ascending id.
    pub fn live(&self) -> impl Iterator<Item = (DishId, &Dish)> {
        self.live.iter().filter_map(|&id| self.get(id).map(|d| (id, d)))
    }

    /// Mint the next id for a dish whose posterior occupies `slot`.
    pub fn push(&mut self, slot: Slot) -> DishId {
        let id = self.dishes.len();
        self.dishes.push(Some(Dish { slot, n_tables: 0 }));
        self.live.push(id);
        self.slots.push(slot);
        id
    }

    /// Retire the live dish `id` (its id is never reused).
    pub fn retire(&mut self, id: DishId) {
        let Some(p) = self.position(id) else { return };
        self.dishes[id] = None;
        self.live.remove(p);
        self.slots.remove(p);
    }

    /// Write every id's live flag, in id order (the seating section's menu
    /// layout). Slots and table counts are not written: they are storage
    /// and a count of the tables, both derived on decode.
    pub fn encode_into(&self, enc: &mut Enc) {
        enc.put_usize(self.dishes.len());
        for dish in &self.dishes {
            enc.put_bool(dish.is_some());
        }
    }

    /// Inverse of [`Self::encode_into`]: the `k`-th live id occupies the
    /// bank slot [`DishBank::decode_from`] gives the `k`-th dish
    /// ([`DishBank::decoded_slot`]) and starts with no tables, for the
    /// seating decoder to count through [`Self::n_tables_mut`]. One byte
    /// per id bounds the id count by the payload, so a hostile length
    /// cannot demand an unbounded allocation.
    pub fn decode_from(dec: &mut Dec<'_>) -> SnapResult<Self> {
        let n_ids = dec.count(1, "dish menu length")?;
        let mut menu = Self { dishes: Vec::with_capacity(n_ids), ..Self::default() };
        for _ in 0..n_ids {
            if dec.bool("dish live flag")? {
                menu.push(DishBank::decoded_slot(menu.n_live()));
            } else {
                menu.dishes.push(None);
            }
        }
        Ok(menu)
    }

    /// Assert the live index equals a filtered scan of the entries: ids
    /// ascending, slots matching.
    ///
    /// # Panics
    /// Panics on any mismatch.
    pub fn check_index(&self) {
        let scan: Vec<(DishId, Slot)> = self
            .dishes
            .iter()
            .enumerate()
            .filter_map(|(id, d)| d.as_ref().map(|d| (id, d.slot)))
            .collect();
        let index: Vec<(DishId, Slot)> =
            self.live.iter().copied().zip(self.slots.iter().copied()).collect();
        assert_eq!(index, scan, "live menu index disagrees with the dish entries");
    }
}

/// The full mutable franchise state the seating engine operates on.
#[derive(Debug, Clone)]
pub(crate) struct HdpState {
    /// Base measure H.
    pub params: NiwParams,
    /// Item data: `groups[j][i]` is observation `x_ji`. Each group is one
    /// row-major buffer behind an `Arc`, so snapshot/session clones share
    /// the points instead of deep-copying them; the engine never mutates
    /// observations.
    pub groups: Vec<Arc<Points>>,
    /// `assignment[j][i]` = index into `tables[j]` (usize::MAX = unseated,
    /// only during initialization).
    pub assignment: Vec<Vec<usize>>,
    /// Tables per restaurant.
    pub tables: Vec<Vec<Table>>,
    /// Global menu, keyed by stable [`DishId`], with its live index.
    pub menu: DishMenu,
    /// Struct-of-arrays bank of the live dishes' NIW posteriors with
    /// precomputed predictive constants — the vectorized scoring hot path.
    pub bank: DishBank,
    /// Top-level concentration γ.
    pub gamma: f64,
    /// Group-level concentration α₀.
    pub alpha: f64,
    /// Cumulative count of seating decisions (item reseatings per Eq. 7 plus
    /// table dish resamplings per Eq. 8) since this state was created.
    /// Only its per-sweep delta is ever read, so a snapshot does not store
    /// it and a decoded state starts it at 0.
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
        self.menu.n_live()
    }

    /// Iterate over live `(DishId, &Dish)` pairs, ascending id.
    pub fn live_dishes(&self) -> impl Iterator<Item = (DishId, &Dish)> {
        self.menu.live()
    }

    /// Allocate a new dish starting from the prior (its posterior occupies a
    /// fresh or recycled bank slot).
    pub fn new_dish(&mut self) -> DishId {
        let slot = self.bank.alloc();
        self.menu.push(slot)
    }

    /// Mutable access to a live dish's table count.
    ///
    /// # Panics
    /// Panics when the dish is retired — that is a sampler bug.
    #[allow(clippy::expect_used)]
    pub fn n_tables_mut(&mut self, id: DishId) -> &mut usize {
        self.menu.n_tables_mut(id).expect("n_tables_mut: retired dish")
    }

    /// Shared access to a live dish.
    ///
    /// # Panics
    /// Panics when the dish is retired — that is a sampler bug.
    #[allow(clippy::expect_used)]
    pub fn dish(&self, id: DishId) -> &Dish {
        self.menu.get(id).expect("dish: retired dish")
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
            self.menu.retire(id);
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
        let n_ids = self.menu.n_ids();
        let mut dish_tables = vec![0usize; n_ids];
        let mut dish_items = vec![0usize; n_ids];
        for (j, tables) in self.tables.iter().enumerate() {
            let mut seated = vec![false; self.groups[j].len()];
            for (ti, table) in tables.iter().enumerate() {
                assert!(!table.members.is_empty(), "group {j} table {ti} is empty");
                assert!(
                    self.menu.get(table.dish).is_some(),
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
        for id in 0..n_ids {
            if let Some(d) = self.menu.get(id) {
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
        self.menu.check_index();
    }
}

/// Public read-only summary of one dish.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
            groups: vec![Arc::new(
                Points::from_group(0, 2, &[vec![0.0, 0.0], vec![1.0, 1.0]]).unwrap(),
            )],
            assignment: vec![vec![usize::MAX, usize::MAX]],
            tables: vec![vec![]],
            menu: DishMenu::default(),
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

    /// The live ids a filtered scan of every minted id finds.
    fn scanned_live_ids(s: &HdpState) -> Vec<DishId> {
        (0..s.menu.n_ids()).filter(|&id| s.menu.get(id).is_some()).collect()
    }

    #[test]
    fn live_menu_tracks_nucleation_and_retirement() {
        let mut s = empty_state();
        let ids: Vec<DishId> = (0..6).map(|_| s.new_dish()).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5]);
        let check = |s: &HdpState| {
            s.menu.check_index();
            let live: Vec<DishId> = s.live_dishes().map(|(id, _)| id).collect();
            assert_eq!(live, scanned_live_ids(s));
            assert_eq!(s.menu.live_ids(), live.as_slice());
            let slots: Vec<Slot> = s.live_dishes().map(|(_, d)| d.slot).collect();
            assert_eq!(s.menu.live_slots(), slots.as_slice());
            for (p, &id) in live.iter().enumerate() {
                assert_eq!(s.menu.position(id), Some(p));
            }
        };
        check(&s);
        // Retire the first, a middle and the last live id, nucleating in
        // between so freed bank slots are recycled under new ids.
        for retire in [0, 3, 5] {
            s.retire_if_empty(retire);
            assert_eq!(s.menu.position(retire), None);
            check(&s);
            let fresh = s.new_dish();
            assert_eq!(fresh, s.menu.n_ids() - 1, "ids only grow");
            check(&s);
        }
        let last = *s.menu.live_ids().last().unwrap();
        s.retire_if_empty(last);
        check(&s);
        assert_eq!(s.menu.live_ids(), &[1, 2, 4, 6, 7]);
        assert_eq!(s.n_dishes(), 5);
        // Retiring an already-retired id is a no-op on the index.
        s.menu.retire(0);
        check(&s);
    }

    #[test]
    fn invariants_accept_consistent_state() {
        let mut s = empty_state();
        let dish = s.new_dish();
        let x0 = s.groups[0][0].to_vec();
        let x1 = s.groups[0][1].to_vec();
        s.dish_add(dish, &x0);
        s.dish_add(dish, &x1);
        *s.n_tables_mut(dish) = 1;
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
        let x0 = s.groups[0][0].to_vec();
        let x1 = s.groups[0][1].to_vec();
        s.dish_add(dish, &x0);
        s.dish_add(dish, &x1);
        *s.n_tables_mut(dish) = 2; // lie
        s.tables[0].push(Table { dish, members: vec![0, 1] });
        s.assignment[0] = vec![0, 0];
        s.check_invariants();
    }

    #[test]
    #[should_panic(expected = "seated twice")]
    fn invariants_catch_double_seating() {
        let mut s = empty_state();
        let dish = s.new_dish();
        let x0 = s.groups[0][0].to_vec();
        s.dish_add(dish, &x0);
        s.dish_add(dish, &x0);
        *s.n_tables_mut(dish) = 1;
        s.tables[0].push(Table { dish, members: vec![0, 0] });
        s.assignment[0] = vec![0, 0];
        s.check_invariants();
    }
}
