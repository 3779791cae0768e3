//! The collapsed Chinese-Restaurant-Franchise Gibbs sampler.
//!
//! One sweep resamples, in order:
//! 1. every table assignment `t_ji` (Eq. 7 of the paper),
//! 2. every dish assignment `k_jt` (Eq. 8),
//! 3. both concentration parameters under their Gamma priors (§4.1.2).
//!
//! All component parameters φ are integrated out through the conjugate NIW
//! base measure, so the only state is the seating arrangement plus O(d²)
//! sufficient statistics per dish. The moves themselves live in the seating
//! engine (`engine.rs`, `impl HdpState`); this type owns the state, drives
//! sweeps over every group past its frozen prefix, and can checkpoint a
//! converged arrangement into a [`PosteriorSnapshot`] for warm-start serving.
//!
//! The frozen prefix is what makes one type serve both schedules: a sampler
//! from [`Hdp::new`] freezes nothing (fit and cold serving reseat every
//! group), while a warm session from [`PosteriorSnapshot::session`] freezes
//! every training group and reseats only the appended test batch.

use std::sync::Arc;

use rand::Rng;

use osr_stats::NiwParams;

use crate::session::PosteriorSnapshot;
use crate::state::{DishId, DishSummary, GroupSummary, HdpConfig, HdpState};
use crate::trace::{self, SweepTrace};
use crate::{HdpError, Points, Result};

/// A Hierarchical Dirichlet Process mixture over a fixed set of groups.
#[derive(Debug, Clone)]
pub struct Hdp {
    state: HdpState,
    config: HdpConfig,
    /// Groups `0..frozen` keep their seating: sweeps never reseat them.
    frozen: usize,
    initialized: bool,
    /// Sweeps completed by this sampler (the `sweep` index of traces).
    sweeps_done: usize,
    /// Wall-time of the most recent sweep, nanoseconds.
    last_sweep_wall_ns: u64,
    /// Seating decisions taken in the most recent sweep.
    last_sweep_moves: u64,
}

/// Reject an empty group or one holding a non-finite value; the group's
/// dimension is its constructor's to check ([`Points::from_group`]).
/// Shared between [`Hdp::new`] and
/// [`PosteriorSnapshot::session`](crate::PosteriorSnapshot::session).
pub(crate) fn validate_group(j: usize, group: &Points) -> Result<()> {
    if group.is_empty() {
        return Err(HdpError::InvalidGroups(format!("group {j} is empty")));
    }
    if !osr_linalg::vector::all_finite(group.as_flat()) {
        return Err(HdpError::InvalidGroups(format!("group {j} contains non-finite values")));
    }
    Ok(())
}

impl Hdp {
    /// Build a sampler over `groups` (each group a set of `d`-dimensional
    /// observations) with base measure `params`. Each group is flattened
    /// into one buffer.
    ///
    /// # Errors
    /// Rejects empty group lists, empty groups, dimension mismatches,
    /// non-finite values and invalid configuration.
    pub fn new(params: NiwParams, config: HdpConfig, groups: &[Vec<Vec<f64>>]) -> Result<Self> {
        let d = params.dim();
        let groups = groups
            .iter()
            .enumerate()
            .map(|(j, g)| Points::from_group(j, d, g).map(Arc::new))
            .collect::<Result<Vec<_>>>()?;
        Self::over_groups(params, config, groups)
    }

    /// [`Self::new`] over groups that are already flat, sharing their
    /// buffers with the caller: cold serving reseats a fitted model's
    /// training groups plus one batch this way without copying a point.
    ///
    /// # Errors
    /// As [`Self::new`].
    pub fn from_groups(
        params: NiwParams,
        config: HdpConfig,
        groups: Vec<Arc<Points>>,
    ) -> Result<Self> {
        let d = params.dim();
        if let Some((j, g)) = groups.iter().enumerate().find(|(_, g)| g.dim() != d) {
            return Err(HdpError::InvalidGroups(format!(
                "group {j} has points of dimension {} (expected {d})",
                g.dim()
            )));
        }
        Self::over_groups(params, config, groups)
    }

    /// Shared tail of [`Self::new`] and [`Self::from_groups`], over groups
    /// whose dimension is already checked against `params`.
    fn over_groups(params: NiwParams, config: HdpConfig, groups: Vec<Arc<Points>>) -> Result<Self> {
        config.validate()?;
        if groups.is_empty() {
            return Err(HdpError::InvalidGroups("no groups".into()));
        }
        for (j, g) in groups.iter().enumerate() {
            validate_group(j, g)?;
        }
        let assignment = groups.iter().map(|g| vec![usize::MAX; g.len()]).collect();
        let n_groups = groups.len();
        // Initialize the concentrations at their prior means.
        let gamma = config.gamma_prior.0 / config.gamma_prior.1;
        let alpha = config.alpha_prior.0 / config.alpha_prior.1;
        let bank = osr_stats::DishBank::new(&params);
        Ok(Self {
            state: HdpState {
                params,
                groups,
                assignment,
                tables: vec![Vec::new(); n_groups],
                menu: Default::default(),
                bank,
                gamma,
                alpha,
                seat_moves: 0,
                scratch: Default::default(),
            },
            config,
            frozen: 0,
            initialized: false,
            sweeps_done: 0,
            last_sweep_wall_ns: 0,
            last_sweep_moves: 0,
        })
    }

    /// A warm session over checkpointed parts (see
    /// [`PosteriorSnapshot::session`]): groups `0..frozen` are seated and
    /// stay so; the groups after them are unseated until the first sweep.
    pub(crate) fn from_parts(state: HdpState, config: HdpConfig, frozen: usize) -> Self {
        Self {
            state,
            config,
            frozen,
            initialized: false,
            sweeps_done: 0,
            last_sweep_wall_ns: 0,
            last_sweep_moves: 0,
        }
    }

    /// Run the configured number of Gibbs sweeps (initializing with a
    /// sequential CRF pass first).
    pub fn run<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.ensure_initialized(rng);
        for _ in 0..self.config.iterations {
            self.sweep(rng);
        }
    }

    /// One Gibbs sweep over every group past the frozen prefix: tables
    /// (Eq. 7), then dishes (Eq. 8), then the concentrations. The first
    /// call runs a sequential CRF seating pass over those groups first.
    pub fn sweep<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let started = std::time::Instant::now();
        let moves_before = self.state.seat_moves;
        self.ensure_initialized(rng);
        for j in self.frozen..self.state.groups.len() {
            self.state.seat_group_items(j, rng);
        }
        for j in self.frozen..self.state.groups.len() {
            self.state.resample_group_dishes(j, rng);
        }
        if self.config.resample_concentrations {
            self.state.resample_concentrations(&self.config, rng);
        }
        self.sweeps_done += 1;
        self.last_sweep_wall_ns = started.elapsed().as_nanos() as u64;
        self.last_sweep_moves = self.state.seat_moves - moves_before;
        trace::record_sweep(&self.state, self.last_sweep_wall_ns, self.last_sweep_moves);
    }

    /// [`Self::sweep`] plus a [`SweepTrace`] of the post-sweep state.
    /// Calling this `iterations` times consumes the exact RNG stream of
    /// [`Self::run`] (initialization happens inside the first sweep either
    /// way), so a traced fit reproduces an untraced one bit for bit.
    pub fn sweep_traced<R: Rng + ?Sized>(&mut self, rng: &mut R) -> SweepTrace {
        self.sweep(rng);
        self.build_trace(self.state.joint_log_likelihood())
    }

    /// [`Self::sweep_traced`] under the divergence watchdog: runs one
    /// sweep, then consumes the thread's poison flag and audits the
    /// concentrations and the trace's joint log-likelihood, so the audit
    /// adds no extra likelihood evaluation. Calling this `iterations` times
    /// consumes the exact RNG stream of [`Self::run`]. An `Err` means the
    /// sampler state can no longer be trusted and should be discarded.
    pub fn sweep_checked_traced<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
    ) -> std::result::Result<SweepTrace, crate::Divergence> {
        if osr_stats::faults::hit(osr_stats::faults::sites::ENGINE_SWEEP)
            == Some(osr_stats::faults::Fault::Diverge)
        {
            osr_stats::divergence::poison("injected: engine sweep divergence");
        }
        self.sweep(rng);
        let trace = self.build_trace(self.state.joint_log_likelihood());
        crate::watchdog::check_health_with_ll(&self.state, trace.log_likelihood)?;
        Ok(trace)
    }

    fn build_trace(&self, log_likelihood: f64) -> SweepTrace {
        trace::build_trace(
            &self.state,
            self.sweeps_done - 1,
            self.last_sweep_wall_ns,
            self.last_sweep_moves,
            log_likelihood,
        )
    }

    fn ensure_initialized<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for j in self.frozen..self.state.groups.len() {
            self.state.seat_group_items(j, rng);
        }
    }

    /// Checkpoint the current posterior seating — tables, dishes with their
    /// NIW sufficient statistics, and concentrations — into an immutable
    /// [`PosteriorSnapshot`] that warm-start batch sessions clone from.
    /// Group observations are shared with the snapshot, not copied.
    ///
    /// # Panics
    /// Panics before the first `run`/`sweep`: an unseated arrangement is not
    /// a posterior state worth freezing.
    pub fn snapshot(&self) -> PosteriorSnapshot {
        assert!(self.initialized, "snapshot: sampler has not run yet");
        PosteriorSnapshot::from_parts(self.state.clone(), self.config)
    }

    // ------------------------------------------------------------------
    // Read-only queries
    // ------------------------------------------------------------------

    /// Number of groups.
    pub fn n_groups(&self) -> usize {
        self.state.groups.len()
    }

    /// Number of live dishes (global mixture components / subclasses).
    pub fn n_dishes(&self) -> usize {
        self.state.n_dishes()
    }

    /// Total number of tables across all groups (`m_··`).
    pub fn total_tables(&self) -> usize {
        self.state.total_tables()
    }

    /// Current top-level concentration γ.
    pub fn gamma(&self) -> f64 {
        self.state.gamma
    }

    /// Current group-level concentration α₀.
    pub fn alpha(&self) -> f64 {
        self.state.alpha
    }

    /// Dish currently explaining item `i` of group `j`.
    ///
    /// # Panics
    /// Panics before the first sweep/run or on out-of-range indices.
    pub fn dish_of(&self, group: usize, item: usize) -> DishId {
        self.state.dish_of(group, item)
    }

    /// Per-dish item counts within one group, sorted by descending count.
    pub fn group_summary(&self, group: usize) -> GroupSummary {
        self.state.group_summary(group)
    }

    /// Summaries of every live dish, sorted by id.
    pub fn dish_summaries(&self) -> Vec<DishSummary> {
        self.state.dish_summaries()
    }

    /// Joint log marginal likelihood of all data given the current seating
    /// (sum of per-dish closed-form marginals) — a convergence diagnostic.
    pub fn joint_log_likelihood(&self) -> f64 {
        self.state.joint_log_likelihood()
    }

    /// Exhaustive state audit (tests run this after every sweep).
    ///
    /// # Panics
    /// Panics on any bookkeeping inconsistency.
    pub fn check_invariants(&self) {
        if self.initialized {
            self.state.check_invariants();
        }
    }

    /// The base-measure parameters.
    pub fn params(&self) -> &NiwParams {
        &self.state.params
    }

    #[cfg(test)]
    pub(crate) fn state(&self) -> &HdpState {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn niw(d: usize, psi_scale: f64) -> NiwParams {
        NiwParams::new(vec![0.0; d], 1.0, d as f64 + 3.0, Matrix::scaled_identity(d, psi_scale))
            .unwrap()
    }

    fn blob(rng: &mut StdRng, center: &[f64], n: usize, std: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                center
                    .iter()
                    .map(|&c| c + std * osr_stats::sampling::standard_normal(rng))
                    .collect()
            })
            .collect()
    }

    /// Small fixed-concentration config for fast, predictable tests.
    fn test_config(iters: usize) -> HdpConfig {
        HdpConfig {
            gamma_prior: (2.0, 1.0),
            alpha_prior: (2.0, 1.0),
            resample_concentrations: true,
            iterations: iters,
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        let p = niw(2, 1.0);
        assert!(Hdp::new(p.clone(), test_config(1), &[]).is_err());
        assert!(Hdp::new(p.clone(), test_config(1), &[vec![]]).is_err());
        assert!(Hdp::new(p.clone(), test_config(1), &[vec![vec![0.0]]]).is_err());
        assert!(
            Hdp::new(p.clone(), test_config(1), &[vec![vec![f64::NAN, 0.0]]]).is_err()
        );
        let mut cfg = test_config(1);
        cfg.iterations = 0;
        assert!(Hdp::new(p, cfg, &[vec![vec![0.0, 0.0]]]).is_err());
    }

    #[test]
    fn from_groups_shares_its_buffers_and_validates_them() {
        let flat = |d: usize, rows: &[Vec<f64>]| Arc::new(Points::from_group(0, d, rows).unwrap());
        let g = flat(2, &[vec![0.0, 0.0], vec![1.0, 1.0]]);
        let hdp = Hdp::from_groups(niw(2, 1.0), test_config(1), vec![Arc::clone(&g)]).unwrap();
        assert!(Arc::ptr_eq(&hdp.state().groups[0], &g), "from_groups copied a group");
        for bad in [flat(2, &[]), flat(3, &[vec![0.0; 3]]), flat(2, &[vec![f64::NAN, 0.0]])] {
            assert!(Hdp::from_groups(niw(2, 1.0), test_config(1), vec![bad]).is_err());
        }
        assert!(Hdp::from_groups(niw(2, 1.0), test_config(1), vec![]).is_err());
    }

    #[test]
    fn invariants_hold_across_sweeps() {
        let mut rng = StdRng::seed_from_u64(1);
        let g1 = blob(&mut rng, &[0.0, 0.0], 30, 0.5);
        let g2 = blob(&mut rng, &[5.0, 5.0], 30, 0.5);
        let mut hdp = Hdp::new(niw(2, 1.0), test_config(1), &[g1, g2]).unwrap();
        for _ in 0..8 {
            hdp.sweep(&mut rng);
            hdp.check_invariants();
        }
    }

    #[test]
    fn separated_clusters_get_distinct_dishes() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut group = blob(&mut rng, &[-8.0, 0.0], 40, 0.5);
        group.extend(blob(&mut rng, &[8.0, 0.0], 40, 0.5));
        let mut hdp = Hdp::new(niw(2, 1.0), test_config(10), &[group]).unwrap();
        hdp.run(&mut rng);
        hdp.check_invariants();
        // The two spatial clusters must not share a dish.
        let left: std::collections::HashSet<_> = (0..40).map(|i| hdp.dish_of(0, i)).collect();
        let right: std::collections::HashSet<_> = (40..80).map(|i| hdp.dish_of(0, i)).collect();
        assert!(left.is_disjoint(&right), "left {left:?} overlaps right {right:?}");
    }

    #[test]
    fn same_cluster_across_groups_shares_a_dish() {
        let mut rng = StdRng::seed_from_u64(3);
        // Two groups drawn from the SAME tight cluster: co-clustering should
        // put the bulk of both on one shared dish.
        let g1 = blob(&mut rng, &[3.0, -2.0], 50, 0.4);
        let g2 = blob(&mut rng, &[3.0, -2.0], 50, 0.4);
        let mut hdp = Hdp::new(niw(2, 1.0), test_config(10), &[g1, g2]).unwrap();
        hdp.run(&mut rng);
        let top1 = hdp.group_summary(0).dish_counts[0].0;
        let top2 = hdp.group_summary(1).dish_counts[0].0;
        assert_eq!(top1, top2, "dominant dishes should coincide across groups");
    }

    #[test]
    fn distinct_groups_do_not_share_with_large_gamma() {
        let mut rng = StdRng::seed_from_u64(4);
        let g1 = blob(&mut rng, &[-6.0, 0.0], 40, 0.5);
        let g2 = blob(&mut rng, &[6.0, 0.0], 40, 0.5);
        // Paper-style large γ.
        let cfg = HdpConfig { gamma_prior: (100.0, 1.0), ..test_config(10) };
        let mut hdp = Hdp::new(niw(2, 1.0), cfg, &[g1, g2]).unwrap();
        hdp.run(&mut rng);
        let d1: std::collections::HashSet<_> =
            hdp.group_summary(0).dish_counts.iter().map(|&(d, _)| d).collect();
        let d2: std::collections::HashSet<_> =
            hdp.group_summary(1).dish_counts.iter().map(|&(d, _)| d).collect();
        assert!(d1.is_disjoint(&d2), "distinct classes should use distinct dishes");
    }

    #[test]
    fn dish_summaries_are_consistent_with_group_counts() {
        let mut rng = StdRng::seed_from_u64(5);
        let g1 = blob(&mut rng, &[0.0, 0.0], 25, 0.6);
        let g2 = blob(&mut rng, &[4.0, 4.0], 25, 0.6);
        let mut hdp = Hdp::new(niw(2, 1.0), test_config(5), &[g1, g2]).unwrap();
        hdp.run(&mut rng);
        let total_from_dishes: usize = hdp.dish_summaries().iter().map(|d| d.n_items).sum();
        assert_eq!(total_from_dishes, 50);
        let total_from_groups: usize = (0..2)
            .map(|j| hdp.group_summary(j).dish_counts.iter().map(|&(_, c)| c).sum::<usize>())
            .sum();
        assert_eq!(total_from_groups, 50);
    }

    #[test]
    fn sampler_is_deterministic_under_seed() {
        let data = {
            let mut rng = StdRng::seed_from_u64(6);
            vec![blob(&mut rng, &[0.0, 0.0], 20, 1.0), blob(&mut rng, &[3.0, 3.0], 20, 1.0)]
        };
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut hdp = Hdp::new(niw(2, 1.0), test_config(3), &data).unwrap();
            hdp.run(&mut rng);
            (0..2).flat_map(|j| (0..20).map(move |i| (j, i)))
                .map(|(j, i)| hdp.dish_of(j, i))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn joint_log_likelihood_is_finite_and_improves_with_structure() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut group = blob(&mut rng, &[-10.0, 0.0], 30, 0.3);
        group.extend(blob(&mut rng, &[10.0, 0.0], 30, 0.3));
        let mut hdp = Hdp::new(niw(2, 1.0), test_config(1), &[group]).unwrap();
        hdp.sweep(&mut rng);
        let early = hdp.joint_log_likelihood();
        assert!(early.is_finite());
        for _ in 0..10 {
            hdp.sweep(&mut rng);
        }
        let late = hdp.joint_log_likelihood();
        assert!(late.is_finite());
        // Gibbs is stochastic but on this trivially separable problem ten
        // sweeps should not make things dramatically worse.
        assert!(late > early - 50.0, "likelihood collapsed: {early} -> {late}");
    }

    #[test]
    fn concentrations_stay_positive() {
        let mut rng = StdRng::seed_from_u64(8);
        let g = blob(&mut rng, &[0.0, 0.0], 40, 1.0);
        let mut hdp = Hdp::new(niw(2, 1.0), test_config(5), &[g]).unwrap();
        hdp.run(&mut rng);
        assert!(hdp.gamma() > 0.0 && hdp.gamma().is_finite());
        assert!(hdp.alpha() > 0.0 && hdp.alpha().is_finite());
    }

    #[test]
    #[should_panic(expected = "has not run yet")]
    fn dish_of_requires_a_run() {
        let hdp =
            Hdp::new(niw(2, 1.0), test_config(1), &[vec![vec![0.0, 0.0]]]).unwrap();
        let _ = hdp.dish_of(0, 0);
    }

    #[test]
    #[should_panic(expected = "snapshot: sampler has not run yet")]
    fn snapshot_requires_a_run() {
        let hdp =
            Hdp::new(niw(2, 1.0), test_config(1), &[vec![vec![0.0, 0.0]]]).unwrap();
        let _ = hdp.snapshot();
    }

    #[test]
    fn single_group_single_point() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut hdp =
            Hdp::new(niw(2, 1.0), test_config(2), &[vec![vec![1.0, -1.0]]]).unwrap();
        hdp.run(&mut rng);
        hdp.check_invariants();
        assert_eq!(hdp.n_dishes(), 1);
        assert_eq!(hdp.total_tables(), 1);
    }
}
