//! Fit-once / serve-many: checkpointing a converged sampler and serving
//! warm-start batch sessions from it.
//!
//! The paper's method is transductive — every test batch is co-clustered
//! with the full training set, so serving `B` batches cold costs
//! `B × iterations × (N_train + N_batch)` seating moves. A
//! [`PosteriorSnapshot`] freezes the converged training arrangement once;
//! each batch's [`PosteriorSnapshot::session`] then clones the snapshot
//! (sharing the training observations behind `Arc`s), appends *only* its
//! test group, and returns an [`Hdp`] whose frozen prefix is every training
//! group, so its sweeps reseat just the test group. Per batch the cost drops to
//! `O(sweeps × N_batch)` seating moves against the frozen training
//! posterior.
//!
//! What stays frozen and what moves:
//!
//! * **Frozen**: training seating (tables and assignments of every training
//!   group), hence also every training group's subclass composition.
//! * **Warm-started**: concentrations γ/α₀ (they continue from their
//!   converged values and keep being resampled), dish sufficient statistics
//!   (batch items joining a dish update its NIW posterior inside the
//!   session's private clone — the collective, transductive part).
//! * **Re-sampled per batch**: the batch group's tables, its items' dish
//!   memberships, and any brand-new dishes the batch nucleates.

use std::sync::Arc;

use osr_stats::NiwParams;

use crate::sampler::validate_group;
use crate::state::{DishId, DishSummary, GroupSummary, HdpConfig, HdpState};
use crate::{Hdp, Points, Result};

/// An immutable checkpoint of a converged sampler: the seating arrangement,
/// every dish's NIW sufficient statistics, and the concentrations.
///
/// Produced by [`Hdp::snapshot`]; consumed by [`PosteriorSnapshot::session`]
/// (warm-start serving). Cloning is cheap in the data dimension: group
/// observations are shared, only bookkeeping and O(K·d²) dish statistics
/// are copied.
#[derive(Debug, Clone)]
pub struct PosteriorSnapshot {
    state: HdpState,
    config: HdpConfig,
}

impl PosteriorSnapshot {
    pub(crate) fn from_parts(state: HdpState, config: HdpConfig) -> Self {
        Self { state, config }
    }

    /// Number of (training) groups in the checkpoint.
    pub fn n_groups(&self) -> usize {
        self.state.groups.len()
    }

    /// Number of live dishes.
    pub fn n_dishes(&self) -> usize {
        self.state.n_dishes()
    }

    /// Total number of tables across all groups (`m_··`).
    pub fn total_tables(&self) -> usize {
        self.state.total_tables()
    }

    /// Checkpointed top-level concentration γ.
    pub fn gamma(&self) -> f64 {
        self.state.gamma
    }

    /// Checkpointed group-level concentration α₀.
    pub fn alpha(&self) -> f64 {
        self.state.alpha
    }

    /// The base-measure parameters.
    pub fn params(&self) -> &NiwParams {
        &self.state.params
    }

    /// The sampler configuration the checkpoint was taken under.
    pub fn config(&self) -> &HdpConfig {
        &self.config
    }

    /// Dish explaining item `i` of group `j` in the frozen arrangement.
    pub fn dish_of(&self, group: usize, item: usize) -> DishId {
        self.state.dish_of(group, item)
    }

    /// The observations of every training group (one row per item, one
    /// buffer per group), behind the `Arc`s the checkpoint itself holds —
    /// lets a consumer share its per-class training data with the
    /// checkpoint instead of copying it, including after a durable load.
    pub fn shared_groups(&self) -> &[Arc<Points>] {
        &self.state.groups
    }

    /// Per-dish item counts within one group, sorted by descending count.
    pub fn group_summary(&self, group: usize) -> GroupSummary {
        self.state.group_summary(group)
    }

    /// Summaries of every live dish, sorted by id.
    pub fn dish_summaries(&self) -> Vec<DishSummary> {
        self.state.dish_summaries()
    }

    /// Joint log marginal likelihood of the frozen state.
    pub fn joint_log_likelihood(&self) -> f64 {
        self.state.joint_log_likelihood()
    }

    /// One past the largest dish id ever allocated in the checkpoint: a
    /// pseudo-id guaranteed to collide with no training dish, used by
    /// degraded frozen inference to pool every MAP-novel point into a single
    /// stand-in "new" subclass.
    pub fn fresh_dish_id(&self) -> DishId {
        self.state.menu.n_ids()
    }

    /// MAP dish assignment of every point under the frozen global mixture —
    /// the degraded-mode replacement for reseating. Scores each live dish
    /// `k` by `ln m_·k + f_k(x)` and the "brand-new dish" option by
    /// `ln γ + f_H(x)` (the menu weights of Eq. 8 with the batch
    /// contributing nothing); a point maps to `None` when the new-dish
    /// option wins, i.e. no frozen subclass explains it better than the
    /// prior. The solve scratch and the score buffer are built once and
    /// reused across points, so the one-vs-all kernel runs back-to-back
    /// with no per-point allocation beyond the result.
    ///
    /// # Panics
    /// Panics when any point does not match the base measure's dimension.
    pub fn map_dishes(&self, points: &[Vec<f64>]) -> Vec<Option<DishId>> {
        let n_live = self.state.n_dishes();
        let mut scratch = vec![0.0; (n_live + 1) * self.state.bank.dim()];
        let mut scores = Vec::with_capacity(n_live);
        points.iter().map(|x| self.map_dish(x, &mut scratch, &mut scores)).collect()
    }

    fn map_dish(&self, x: &[f64], scratch: &mut [f64], scores: &mut Vec<f64>) -> Option<DishId> {
        let bank = &self.state.bank;
        let (prior_lane, lanes) = scratch.split_at_mut(bank.dim());
        let new_lw = self.state.gamma.ln() + bank.score_prior(x, prior_lane);
        scores.clear();
        // One fused pass over the bank; ties resolve to the lowest dish id
        // (strict `>`).
        bank.score_all(self.state.menu.live_slots(), x, lanes, scores);
        let mut best: Option<(DishId, f64)> = None;
        for ((id, dish), &lp) in self.state.live_dishes().zip(scores.iter()) {
            let lw = (dish.n_tables as f64).ln() + lp;
            if best.is_none_or(|(_, b)| lw > b) {
                best = Some((id, lw));
            }
        }
        match best {
            Some((id, lw)) if lw >= new_lw => Some(id),
            _ => None,
        }
    }

    /// Append this checkpoint's sections (base measure, config, seating,
    /// dish bank) to a durable snapshot container. The byte output is a
    /// pure function of the checkpoint's canonical state: writing the same
    /// checkpoint twice — or writing a checkpoint decoded by
    /// [`Self::read_sections`] — produces identical bytes.
    pub fn write_sections(&self, w: &mut osr_stats::snapshot::SnapshotWriter) {
        crate::persist::write_sections(&self.state, &self.config, w);
    }

    /// Decode a checkpoint from a verified snapshot container, revalidating
    /// every decoded invariant (dimensions, seating cross-references, bank
    /// consistency) so that serving from the result can never panic on
    /// corrupted-but-CRC-valid input.
    ///
    /// # Errors
    /// Typed [`osr_stats::snapshot::SnapshotError`] on any missing section,
    /// truncation, dimension mismatch, or invariant violation.
    pub fn read_sections(
        file: &osr_stats::snapshot::SnapshotFile<'_>,
    ) -> osr_stats::snapshot::SnapResult<Self> {
        let (state, config) = crate::persist::read_sections(file)?;
        Ok(Self { state, config })
    }

    /// Open a warm serving session: clone the checkpoint, append `batch` as
    /// one more group (the last, flattened into one buffer), and return a
    /// sampler whose frozen prefix is every training group, so its sweeps
    /// reseat only the batch. The batch may still join training dishes (the
    /// collective decision) or nucleate new ones; dish statistics change
    /// inside this private clone only.
    ///
    /// # Errors
    /// Rejects an empty batch, dimension mismatches against the base
    /// measure, and non-finite values.
    pub fn session(&self, batch: &[Vec<f64>]) -> Result<Hdp> {
        let frozen = self.state.groups.len();
        let batch = Points::from_group(frozen, self.state.params.dim(), batch)?;
        validate_group(frozen, &batch)?;
        let mut state = self.state.clone();
        state.assignment.push(vec![usize::MAX; batch.len()]);
        state.tables.push(Vec::new());
        state.groups.push(Arc::new(batch));
        Ok(Hdp::from_parts(state, self.config, frozen))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use osr_linalg::Matrix;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn niw(d: usize) -> NiwParams {
        NiwParams::new(vec![0.0; d], 1.0, d as f64 + 3.0, Matrix::identity(d)).unwrap()
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

    fn config() -> HdpConfig {
        HdpConfig {
            gamma_prior: (2.0, 1.0),
            alpha_prior: (2.0, 1.0),
            resample_concentrations: true,
            iterations: 10,
        }
    }

    /// Two well-separated training groups, converged.
    fn trained(rng: &mut StdRng) -> Hdp {
        let g1 = blob(rng, &[-6.0, 0.0], 40, 0.5);
        let g2 = blob(rng, &[6.0, 0.0], 40, 0.5);
        let mut hdp = Hdp::new(niw(2), config(), &[g1, g2]).unwrap();
        hdp.run(rng);
        hdp
    }

    /// `n` warm sweeps of a session.
    fn warm_sweeps(sess: &mut Hdp, n: usize, rng: &mut StdRng) {
        for _ in 0..n {
            sess.sweep(rng);
        }
    }

    #[test]
    fn session_opens_on_the_checkpointed_arrangement() {
        let mut rng = StdRng::seed_from_u64(1);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        snap.state.check_invariants();
        let mut sess = snap.session(&[vec![0.0, 0.0]]).unwrap();
        assert_eq!(sess.n_groups(), 3);
        assert_eq!(sess.n_dishes(), hdp.n_dishes());
        assert_eq!(sess.total_tables(), hdp.total_tables());
        for j in 0..2 {
            for i in 0..40 {
                assert_eq!(sess.dish_of(j, i), hdp.dish_of(j, i));
            }
        }
        // The session is live: it seats its batch and keeps sweeping.
        warm_sweeps(&mut sess, 2, &mut rng);
        sess.check_invariants();
    }

    #[test]
    fn snapshot_sections_roundtrip_byte_identically_and_serve_bit_equal() {
        let mut rng = StdRng::seed_from_u64(21);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();

        let encode = |s: &PosteriorSnapshot| {
            let mut w =
                osr_stats::snapshot::SnapshotWriter::new("cdosr", s.params().dim());
            s.write_sections(&mut w);
            w.finish()
        };
        let bytes = encode(&snap);
        // Encoding is a pure function of canonical state.
        assert_eq!(bytes, encode(&snap));

        let file = osr_stats::snapshot::SnapshotFile::parse(&bytes).unwrap();
        let decoded = PosteriorSnapshot::read_sections(&file).unwrap();
        // Save → load → re-save is byte-identical.
        assert_eq!(bytes, encode(&decoded));

        // The reloaded checkpoint is observationally bit-equal: structure,
        // likelihood, MAP decisions, and a warm serve under one seed.
        decoded.state.check_invariants();
        assert_eq!(snap.n_dishes(), decoded.n_dishes());
        // The live-dish index is derived, unserialized state: decoding
        // rebuilds the ids exactly. Bank slots are storage and are not
        // kept; the compacted bank serves to the same bits (below).
        assert_eq!(snap.state.menu.live_ids(), decoded.state.menu.live_ids());
        assert_eq!(snap.state.menu.n_ids(), decoded.state.menu.n_ids());
        assert_eq!(snap.total_tables(), decoded.total_tables());
        assert_eq!(snap.gamma().to_bits(), decoded.gamma().to_bits());
        assert_eq!(snap.alpha().to_bits(), decoded.alpha().to_bits());
        assert_eq!(
            snap.joint_log_likelihood().to_bits(),
            decoded.joint_log_likelihood().to_bits()
        );
        let probe = vec![vec![-6.0, 0.2], vec![6.1, -0.1], vec![0.0, 9.0]];
        assert_eq!(snap.map_dishes(&probe), decoded.map_dishes(&probe));
        let serve = |s: &PosteriorSnapshot| {
            let mut rng = StdRng::seed_from_u64(77);
            let mut sess = s.session(&probe).unwrap();
            warm_sweeps(&mut sess, 3, &mut rng);
            (0..probe.len()).map(|i| sess.dish_of(2, i)).collect::<Vec<_>>()
        };
        assert_eq!(serve(&snap), serve(&decoded));
    }

    /// The MAP rule [`PosteriorSnapshot::map_dishes`] implements, computed
    /// independently: each live dish by `ln m_·k + f_k(x)` from its bank
    /// slot scored alone, the new-dish option by `ln γ + f_H(x)` from a
    /// scalar prior posterior.
    fn reference_map(snap: &PosteriorSnapshot, x: &[f64]) -> Option<DishId> {
        let prior = osr_stats::NiwPosterior::from_prior(snap.params());
        let new_lw = snap.gamma().ln() + prior.predictive_logpdf(x);
        let mut best: Option<(DishId, f64)> = None;
        for (id, dish) in snap.state.live_dishes() {
            let lw = (dish.n_tables as f64).ln() + snap.state.bank.predictive_one(dish.slot, x);
            if best.is_none_or(|(_, b)| lw > b) {
                best = Some((id, lw));
            }
        }
        best.filter(|&(_, lw)| lw >= new_lw).map(|(id, _)| id)
    }

    #[test]
    fn map_dishes_matches_the_reference_rule_across_the_prior_crossover() {
        let mut rng = StdRng::seed_from_u64(23);
        let snap = trained(&mut rng).snapshot();
        let mut w = osr_stats::snapshot::SnapshotWriter::new("cdosr", 2);
        snap.write_sections(&mut w);
        let bytes = w.finish();
        let file = osr_stats::snapshot::SnapshotFile::parse(&bytes).unwrap();
        let decoded = PosteriorSnapshot::read_sections(&file).unwrap();
        decoded.state.check_invariants();

        // Rays out of both class centres, from inside a dish to far past
        // every dish, where the prior's heavier tails win. The step is fine
        // enough that moving the new-dish weight by a tenth of a nat
        // flips the points next to each crossover.
        let sweep: Vec<Vec<f64>> = (0..=2000)
            .flat_map(|i| {
                let t = f64::from(i) * 0.01;
                [vec![-6.0 - 0.3 * t, t], vec![6.0 + t, -0.5 * t]]
            })
            .collect();
        for s in [&snap, &decoded] {
            let got = s.map_dishes(&sweep);
            let want: Vec<Option<DishId>> = sweep.iter().map(|x| reference_map(s, x)).collect();
            assert_eq!(got, want);
            assert!(got.iter().any(Option::is_some), "no point mapped to a dish");
            assert!(got.iter().any(Option::is_none), "no point mapped to a new dish");
        }
        assert_eq!(snap.map_dishes(&sweep), decoded.map_dishes(&sweep));
    }

    #[test]
    fn snapshot_sections_reject_tampered_seating() {
        let mut rng = StdRng::seed_from_u64(22);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        // Re-encode the seating section with a table pointing at a retired
        // dish id: the CRCs pass (we re-stamp them), so the typed error must
        // come from the cross-validation layer.
        let mut w = osr_stats::snapshot::SnapshotWriter::new("cdosr", 2);
        snap.write_sections(&mut w);
        let bytes = w.finish();
        let file = osr_stats::snapshot::SnapshotFile::parse(&bytes).unwrap();
        let mut decoded = PosteriorSnapshot::read_sections(&file).unwrap();
        decoded.state.check_invariants();
        decoded.state.tables[0][0].dish = decoded.state.menu.n_ids() + 7;
        let mut w = osr_stats::snapshot::SnapshotWriter::new("cdosr", 2);
        decoded.write_sections(&mut w);
        let tampered = w.finish();
        let file = osr_stats::snapshot::SnapshotFile::parse(&tampered).unwrap();
        assert!(matches!(
            PosteriorSnapshot::read_sections(&file),
            Err(osr_stats::snapshot::SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn snapshot_shares_training_observations() {
        let mut rng = StdRng::seed_from_u64(2);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        let sess = snap.session(&[vec![0.0, 0.0]]).unwrap();
        // Snapshot, its clones, and sessions all point at the same group
        // buffers — no deep copy of the training set anywhere.
        assert!(Arc::ptr_eq(&snap.state.groups[0], &snap.clone().state.groups[0]));
        assert!(Arc::ptr_eq(&snap.state.groups[0], &sess.state().groups[0]));
        assert!(Arc::ptr_eq(&snap.state.groups[1], &sess.state().groups[1]));
    }

    #[test]
    fn warm_session_leaves_training_seating_frozen() {
        let mut rng = StdRng::seed_from_u64(3);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        let batch = blob(&mut rng, &[-6.0, 0.0], 15, 0.5);
        let mut sess = snap.session(&batch).unwrap();
        warm_sweeps(&mut sess, 5, &mut rng);
        sess.check_invariants();
        // Training composition is bit-identical to the checkpoint.
        for j in 0..2 {
            let before = snap.group_summary(j);
            let after = sess.group_summary(j);
            assert_eq!(before.dish_counts, after.dish_counts, "group {j} moved");
            assert_eq!(before.n_tables, after.n_tables);
        }
    }

    #[test]
    fn batch_near_a_training_class_joins_its_dish() {
        let mut rng = StdRng::seed_from_u64(4);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        let dominant = snap.group_summary(0).dish_counts[0].0;
        let batch = blob(&mut rng, &[-6.0, 0.0], 20, 0.5);
        let mut sess = snap.session(&batch).unwrap();
        warm_sweeps(&mut sess, 3, &mut rng);
        let on_dominant =
            (0..20).filter(|&i| sess.dish_of(2, i) == dominant).count();
        assert!(on_dominant >= 16, "only {on_dominant}/20 joined the training dish");
    }

    #[test]
    fn far_away_batch_nucleates_a_new_dish() {
        let mut rng = StdRng::seed_from_u64(5);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        let training_dishes: std::collections::HashSet<DishId> =
            snap.dish_summaries().iter().map(|d| d.id).collect();
        let batch = blob(&mut rng, &[0.0, 9.0], 20, 0.5);
        let mut sess = snap.session(&batch).unwrap();
        warm_sweeps(&mut sess, 3, &mut rng);
        sess.check_invariants();
        let new_points = (0..20)
            .filter(|&i| !training_dishes.contains(&sess.dish_of(2, i)))
            .count();
        assert!(new_points >= 16, "only {new_points}/20 left the training dishes");
        assert!(sess.n_dishes() > training_dishes.len());
    }

    #[test]
    fn session_is_deterministic_under_seed() {
        let mut rng = StdRng::seed_from_u64(6);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        let batch = blob(&mut rng, &[-6.0, 1.0], 10, 0.6);
        let run = |seed: u64| {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sess = snap.session(&batch).unwrap();
            warm_sweeps(&mut sess, 4, &mut rng);
            (0..10).map(|i| sess.dish_of(2, i)).collect::<Vec<_>>()
        };
        assert_eq!(run(11), run(11));
    }

    #[test]
    fn session_rejects_bad_batches() {
        let mut rng = StdRng::seed_from_u64(7);
        let hdp = trained(&mut rng);
        let snap = hdp.snapshot();
        assert!(snap.session(&[]).is_err());
        assert!(snap.session(&[vec![1.0]]).is_err());
        assert!(snap.session(&[vec![f64::INFINITY, 0.0]]).is_err());
    }

    #[test]
    #[should_panic(expected = "has not run yet")]
    fn session_dish_of_requires_a_sweep() {
        let mut rng = StdRng::seed_from_u64(8);
        let hdp = trained(&mut rng);
        let sess = hdp.snapshot().session(&[vec![0.0, 0.0]]).unwrap();
        let _ = sess.dish_of(2, 0);
    }
}
