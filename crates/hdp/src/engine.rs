//! The reusable seating engine: the collapsed CRF Gibbs moves over an
//! [`HdpState`].
//!
//! Every move is expressed *per group*, so the one driver, [`crate::Hdp`],
//! sweeps whichever groups lie past its frozen prefix:
//!
//! * none are frozen for fit and cold serving (full transductive
//!   sampling), and
//! * every training group is frozen in a warm session from
//!   [`crate::PosteriorSnapshot::session`], which sweeps only its test
//!   group and leaves the training seating untouched.
//!
//! A batch-restricted sweep can still do everything the model allows —
//! batch items may join training dishes (that is the collective decision)
//! or nucleate brand-new ones — but it can never move a training item or
//! empty a training table, because those moves only ever touch the group
//! being swept. Dish sufficient statistics do change when batch items join
//! them; that is the transductive semantics, and it is confined to the
//! session's private clone of the state.
//!
//! Group observations are behind `Arc`s, so a move takes a cheap handle to
//! its group and can then mutate seating bookkeeping freely while reading
//! the point — no copying of observations in the inner loop.

// osr-lint: allow-file(unchecked-index, seating invariants link tables assignment and dish ids by construction; guarded fallbacks would hide real breaks that the divergence watchdog must surface)

use std::sync::Arc;

use rand::Rng;

use osr_stats::special::log_sum_exp;
use osr_stats::sampling;

use crate::concentration::{resample_alpha, resample_gamma};
use crate::state::{HdpConfig, HdpState, Table};

/// Draw from `exp(lw)`, hardened against hostile inputs: when the log
/// normalizer is not finite (every weight underflowed to `-inf`, or a
/// predictive evaluated to `NaN`/`+inf`), poison the thread's divergence
/// flag — the serving watchdog will abort the sweep — and fall back to the
/// last candidate, which at every call site is the "open something new"
/// option and therefore keeps the seating bookkeeping structurally valid.
/// `weights` is the draw's scratch buffer.
fn seat_choice<R: Rng + ?Sized>(
    rng: &mut R,
    lw: &[f64],
    weights: &mut Vec<f64>,
    what: &str,
) -> usize {
    sampling::try_categorical_log_scratch(rng, lw, weights).unwrap_or_else(|| {
        osr_stats::divergence::poison(&format!("non-finite seating weights ({what})"));
        lw.len() - 1
    })
}

impl HdpState {
    /// Resample the table assignment `t_ji` of every item of group `j`
    /// (Eq. 7), in index order.
    pub(crate) fn seat_group_items<R: Rng + ?Sized>(&mut self, j: usize, rng: &mut R) {
        for i in 0..self.groups[j].len() {
            self.seat_item(j, i, rng);
        }
    }

    /// Resample `t_ji` (Eq. 7): seat item `i` of group `j` at an existing
    /// table with probability ∝ `n_jt · f_k(x)` or at a new table with
    /// probability ∝ `α₀ · p(x)`, where `p(x)` marginalizes the new table's
    /// dish over the global menu. The base-measure term comes from the
    /// bank's base-measure slot ([`osr_stats::DishBank::score_prior`]), and
    /// all candidate buffers live in the state-owned scratch — the move
    /// allocates nothing.
    pub(crate) fn seat_item<R: Rng + ?Sized>(&mut self, j: usize, i: usize, rng: &mut R) {
        self.seat_moves += 1;
        self.unseat(j, i);
        // A second handle to the group keeps `x` readable while the seating
        // bookkeeping below takes `&mut self`.
        let group = Arc::clone(&self.groups[j]);
        let x: &[f64] = &group[i];
        let mut sc = std::mem::take(&mut self.scratch);

        // Predictive of x under every live dish — one fused pass over the
        // dish bank, straight off the menu's live slots (ascending id order,
        // so the downstream categorical draw consumes the RNG exactly as the
        // per-dish loop did) — and under the prior.
        let slots = self.menu.live_slots();
        let d = self.bank.dim();
        let lanes = (slots.len() * d).max(d);
        if sc.solve.len() < lanes {
            sc.solve.resize(lanes, 0.0);
        }
        sc.scores.clear();
        self.bank.score_all(slots, x, &mut sc.solve[..slots.len() * d], &mut sc.scores);
        let prior_pred = self.bank.score_prior(x, &mut sc.solve[..d]);

        // New-table marginal: Σ_k m_k/(M+γ) f_k + γ/(M+γ) f_0.
        let total_tables = self.total_tables() as f64;
        let gamma = self.gamma;
        sc.menu_lw.clear();
        for ((_, dish), &lp) in self.menu.live().zip(&sc.scores) {
            sc.menu_lw.push((dish.n_tables as f64).ln() + lp);
        }
        sc.menu_lw.push(gamma.ln() + prior_pred);
        let new_table_marginal = log_sum_exp(&sc.menu_lw) - (total_tables + gamma).ln();

        // Candidate log-weights: one per existing table, then the new table.
        sc.lw.clear();
        for table in &self.tables[j] {
            // A table pointing at a retired dish is a seating-invariant
            // break: poison the sweep and give the table zero probability
            // mass instead of panicking mid-batch.
            let pred = self.menu.position(table.dish).and_then(|p| sc.scores.get(p)).map_or_else(
                || {
                    osr_stats::divergence::poison("seat_item: table serves a retired dish");
                    f64::NEG_INFINITY
                },
                |&lp| lp,
            );
            sc.lw.push((table.members.len() as f64).ln() + pred);
        }
        sc.lw.push(self.alpha.ln() + new_table_marginal);

        let choice = seat_choice(rng, &sc.lw, &mut sc.weights, "table assignment");
        if choice < self.tables[j].len() {
            // Existing table.
            let dish = self.tables[j][choice].dish;
            self.dish_add(dish, x);
            self.tables[j][choice].members.push(i);
            self.assignment[j][i] = choice;
        } else {
            // New table: draw its dish from the menu posterior (same
            // mixture that formed the marginal above).
            let menu_choice = seat_choice(rng, &sc.menu_lw, &mut sc.weights, "menu draw");
            let dish = match self.menu.live_ids().get(menu_choice) {
                Some(&id) => id,
                None => self.new_dish(),
            };
            self.dish_add(dish, x);
            *self.n_tables_mut(dish) += 1;
            self.tables[j].push(Table { dish, members: vec![i] });
            self.assignment[j][i] = self.tables[j].len() - 1;
        }
        self.scratch = sc;
    }

    /// Remove item `i` of group `j` from its table (no-op when unseated),
    /// deleting the table if it empties and retiring orphaned dishes.
    pub(crate) fn unseat(&mut self, j: usize, i: usize) {
        let ti = self.assignment[j][i];
        if ti == usize::MAX {
            return;
        }
        self.assignment[j][i] = usize::MAX;
        let dish = self.tables[j][ti].dish;
        let group = Arc::clone(&self.groups[j]);
        self.dish_remove(dish, &group[i]);
        let table = &mut self.tables[j][ti];
        if let Some(pos) = table.members.iter().position(|&m| m == i) {
            table.members.swap_remove(pos);
        } else {
            // assignment[j][i] pointed at a table that does not list i: the
            // links are corrupt. Poison instead of panicking; the empty-table
            // cleanup below still runs on consistent data.
            osr_stats::divergence::poison("unseat: item missing from its assigned table");
        }
        if table.members.is_empty() {
            self.tables[j].swap_remove(ti);
            // The table that was last is now at ti: fix its members' links.
            if ti < self.tables[j].len() {
                let moved_members = self.tables[j][ti].members.clone();
                for m in moved_members {
                    self.assignment[j][m] = ti;
                }
            }
            *self.n_tables_mut(dish) -= 1;
            self.retire_if_empty(dish);
        }
    }

    /// Resample `k_jt` for every table of group `j` (Eq. 8), in index order.
    pub(crate) fn resample_group_dishes<R: Rng + ?Sized>(&mut self, j: usize, rng: &mut R) {
        for ti in 0..self.tables[j].len() {
            self.resample_table_dish(j, ti, rng);
        }
    }

    /// Resample `k_jt` for one table (Eq. 8): an existing dish with
    /// probability ∝ `m_k · ∏ f_k(x_table)` or a new one with probability
    /// ∝ `γ · ∏ p(x_table)`.
    ///
    /// The block's sufficient statistics are computed **once** and shared by
    /// every candidate dish and by the base-measure term — each candidate
    /// then costs a single rank-m-updated Cholesky
    /// ([`osr_stats::DishBank::block_predictive_stats`]) instead of a
    /// per-point posterior walk.
    pub(crate) fn resample_table_dish<R: Rng + ?Sized>(
        &mut self,
        j: usize,
        ti: usize,
        rng: &mut R,
    ) {
        self.seat_moves += 1;
        let old_dish = self.tables[j][ti].dish;
        // Take the membership list instead of cloning it; it is reinstalled
        // (possibly under a new dish) below.
        let members = std::mem::take(&mut self.tables[j][ti].members);
        let group = Arc::clone(&self.groups[j]);
        let block_refs: Vec<&[f64]> = members.iter().map(|&m| &group[m]).collect();
        let mut sc = std::mem::take(&mut self.scratch);
        self.bank.compute_block_stats(&block_refs, &mut sc.stats);

        // Detach the block from its dish in one rank-m step.
        {
            let slot = self.dish(old_dish).slot;
            self.bank.detach_block(slot, &sc.stats, &block_refs);
            *self.n_tables_mut(old_dish) -= 1;
        }
        self.retire_if_empty(old_dish);

        // Score every live dish plus a fresh one, off the same block stats.
        sc.lw.clear();
        for (_, dish) in self.menu.live() {
            let lp = self.bank.block_predictive_stats(dish.slot, &sc.stats);
            sc.lw.push((dish.n_tables as f64).ln() + lp);
        }
        sc.lw.push(self.gamma.ln() + self.bank.block_predictive_prior(&sc.stats));

        let choice = seat_choice(rng, &sc.lw, &mut sc.weights, "dish reassignment");
        let new_dish = match self.menu.live_ids().get(choice) {
            Some(&id) => id,
            None => self.new_dish(),
        };
        {
            let slot = self.dish(new_dish).slot;
            self.bank.attach_block(slot, &sc.stats, &block_refs);
            *self.n_tables_mut(new_dish) += 1;
        }
        self.tables[j][ti].dish = new_dish;
        self.tables[j][ti].members = members;
        self.scratch = sc;
    }

    /// Resample γ (Escobar–West) and α₀ (Teh et al. auxiliary variables)
    /// from the whole franchise's table/dish counts.
    pub(crate) fn resample_concentrations<R: Rng + ?Sized>(
        &mut self,
        config: &HdpConfig,
        rng: &mut R,
    ) {
        let total_tables = self.total_tables();
        let k = self.n_dishes();
        if total_tables == 0 || k == 0 {
            return;
        }
        self.gamma = resample_gamma(rng, self.gamma, k, total_tables, config.gamma_prior);
        let group_sizes: Vec<usize> = self.groups.iter().map(|g| g.len()).collect();
        self.alpha =
            resample_alpha(rng, self.alpha, total_tables, &group_sizes, config.alpha_prior);
    }
}
