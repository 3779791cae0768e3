//! The serving layer: fit-once/serve-many warm-start classification, a
//! concurrent batch server, and the fault-tolerance stack that keeps it
//! answering under hostile inputs.
//!
//! The paper's protocol is transductive — every test batch is co-clustered
//! with the entire training set — so the obvious implementation pays the
//! full Gibbs burn-in (`iterations` sweeps over `N_train + N_batch` points)
//! *per batch*. This module amortizes that cost:
//!
//! * [`WarmState`] (built once in [`HdpOsr::fit`] under
//!   [`ServingMode::WarmStart`]) runs the training-only burn-in, snapshots
//!   the converged posterior, and precomputes the dish→class association
//!   table.
//! * Each batch is then answered from a private session on that snapshot
//!   ([`PosteriorSnapshot::session`], an [`Hdp`] whose training groups are
//!   frozen): only the batch group is reseated, for `decision_sweeps` warm
//!   sweeps instead of a cold burn-in. One attempt type, `HdpAttempt`,
//!   drives this sampler in both serving modes.
//! * [`BatchServer`] fans independent batches out over the one dispatch
//!   executor (`fan_out`, shared with [`crate::Frontend`]) with per-batch
//!   RNGs derived from `(seed, batch_index)`, so results do not depend on
//!   the number of workers or their scheduling.
//!
//! [`ServingMode::ColdStart`] is the escape hatch reproducing the original
//! behaviour exactly: no snapshot is kept and every batch pays the full
//! transductive burn-in, reseating the training groups (shared, not
//! copied) together with the batch.
//!
//! # Failure model
//!
//! A production batch stream is hostile: NaN features, ragged dimensions,
//! batches whose geometry drives the sampler into numerically unrecoverable
//! states. The server survives all of it per-slot, never per-scope:
//!
//! 1. **Admission** ([`crate::admission::validate_batch`]) rejects malformed
//!    batches with typed errors before any sampler state exists.
//! 2. **Watchdog** — every sweep of an attempt runs through
//!    `sweep_checked_traced`, which turns mid-sweep numerical poison
//!    (non-finite seating weights, Cholesky failure past the jitter ladder)
//!    and non-finite likelihood/concentrations into a typed divergence.
//! 3. **Retry** ([`ServePolicy::max_attempts`]) — a divergent attempt is
//!    re-run with the re-derived seed `derive_batch_seed(seed, idx) ^
//!    attempt`.
//! 4. **Degradation** ([`ServePolicy`]) — when retries, the sweep budget,
//!    or the deadline run out, the batch is answered by frozen inference
//!    (MAP dish assignment under the fit-time checkpoint, no reseating) and
//!    flagged [`ServedVia::Degraded`].
//! 5. **Panic isolation** — the executor wraps each item in
//!    `catch_unwind`, so a panicking batch yields an in-place
//!    [`OsrError::Internal`] while sibling batches finish untouched.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use osr_dataset::protocol::TrainSet;
use osr_hdp::{DishId, GroupSummary, Hdp, Points, PosteriorSnapshot, SweepTrace};
use osr_stats::NiwParams;

use crate::admission;
use crate::collective::{
    AttemptError, CollectiveModel, CollectiveSession, ModelCapabilities, CDOSR_METHOD,
};
use crate::decision::{Associations, ClassifyOutcome, DegradeReason, Prediction, ServedVia};
use crate::discovery::{estimate_unknown_classes, GroupSubclasses, SubclassReport};
use crate::model::{HdpOsr, HdpOsrConfig};
use crate::observability::{batch_trace_id, BatchTrace, FitReport, TraceRecord, TraceSink};
use crate::{OsrError, Result};

/// How a fitted model answers [`HdpOsr::classify`] calls.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ServingMode {
    /// Fit-once/serve-many (the default): `fit` runs the training burn-in
    /// once and checkpoints it; every batch is served warm from a private
    /// clone of the snapshot in `O(decision_sweeps × N_batch)` seating
    /// moves. Training seating is frozen at its converged state, so the
    /// known-class subclass report is identical across batches.
    WarmStart,
    /// The original transductive schedule: every batch re-runs the full
    /// cold burn-in over training + batch. Slower by a factor of roughly
    /// `iterations × (N_train + N_batch) / (decision_sweeps × N_batch)`,
    /// but lets the batch reshape the training seating too.
    ColdStart,
}

/// The fault-tolerance policy of a [`BatchServer`]: how hard to try for a
/// full collective decision, and what to do when that fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServePolicy {
    /// Maximum serve attempts per batch, including the first (clamped ≥ 1).
    /// Attempt `a` runs under the seed `derive_batch_seed(seed, idx) ^ a`,
    /// so a retry after a watchdog-detected divergence explores a different
    /// sampling path.
    pub max_attempts: u32,
    /// Total Gibbs sweeps one batch may consume across all its attempts
    /// (`None` = unlimited).
    pub sweep_budget: Option<usize>,
    /// Wall-clock deadline for one batch across all its attempts
    /// (`None` = none).
    pub deadline: Option<Duration>,
    /// When full service fails, answer with degraded frozen inference
    /// (MAP dish assignment under the fit-time checkpoint) instead of an
    /// error. Requires a warm-start model — a cold model keeps no
    /// checkpoint to freeze, so its exhausted batches error out regardless.
    pub degrade: bool,
}

impl Default for ServePolicy {
    fn default() -> Self {
        Self { max_attempts: 3, sweep_budget: None, deadline: None, degrade: true }
    }
}

/// Everything `fit` precomputes for warm serving: the converged training
/// checkpoint plus the dish→class association table and per-class report
/// rows derived from it.
#[derive(Debug)]
pub(crate) struct WarmState {
    pub snapshot: PosteriorSnapshot,
    pub assoc: Associations,
    pub known_reports: Vec<GroupSubclasses>,
    pub fit_report: FitReport,
}

impl WarmState {
    /// Run the training-only burn-in (seeded by `config.train_seed`) and
    /// checkpoint the converged state, tracing every sweep so the fit ships
    /// with convergence diagnostics. The traced loop consumes the exact RNG
    /// stream of `Hdp::run`, so checkpoints are unchanged by tracing.
    /// The checkpoint flattens `classes` into its own groups; the fitted
    /// model then shares them through [`PosteriorSnapshot::shared_groups`].
    pub fn build(
        params: &NiwParams,
        config: &HdpOsrConfig,
        classes: &[Vec<Vec<f64>>],
    ) -> Result<Self> {
        let n_classes = classes.len();
        let mut hdp = Hdp::new(params.clone(), config.hdp_config(), classes)?;
        let mut rng = StdRng::seed_from_u64(config.train_seed);
        let mut trace = Vec::with_capacity(config.iterations);
        for _ in 0..config.iterations {
            trace.push(hdp.sweep_traced(&mut rng));
        }
        let fit_report = FitReport::from_trace(config.train_seed, trace);
        let snapshot = hdp.snapshot();
        let (assoc, known_reports) =
            associate(config.varrho, n_classes, |c| snapshot.group_summary(c));
        Ok(Self { snapshot, assoc, known_reports, fit_report })
    }
}

/// Associate every ϱ-surviving subclass of every known class with that
/// class, producing the association table and the per-class report rows.
/// `summary_of(c)` must return class `c`'s current group summary.
pub(crate) fn associate<F: Fn(usize) -> GroupSummary>(
    varrho: f64,
    n_classes: usize,
    summary_of: F,
) -> (Associations, Vec<GroupSubclasses>) {
    let mut assoc = Associations::default();
    let mut known_reports = Vec::with_capacity(n_classes);
    for class in 0..n_classes {
        let summary = summary_of(class);
        let total = summary.n_items as f64;
        let mut survivors = Vec::new();
        for &(dish, count) in &summary.dish_counts {
            let prop = count as f64 / total;
            if prop >= varrho {
                assoc.insert(dish, class, count);
                survivors.push((dish, count, prop));
            }
        }
        known_reports.push(GroupSubclasses {
            name: format!("Class{}", class + 1),
            subclasses: survivors,
        });
    }
    (assoc, known_reports)
}

/// Per-point majority over the voting sweeps. Ties break toward the smaller
/// prediction: Known over Unknown, lower class id over higher — matching
/// the original single-path implementation.
fn majority(votes: &[BTreeMap<Prediction, usize>]) -> Vec<Prediction> {
    votes
        .iter()
        .map(|v| {
            v.iter()
                .max_by(|a, b| a.1.cmp(b.1).then_with(|| b.0.cmp(a.0)))
                .map_or(Prediction::Unknown, |(&p, _)| p)
        })
        .collect()
}

/// Assemble the Tables 1–2 report from the known-class rows and the test
/// group's final composition.
fn build_report(
    varrho: f64,
    n_classes: usize,
    assoc: &Associations,
    known_reports: Vec<GroupSubclasses>,
    summary: &GroupSummary,
) -> SubclassReport {
    let mut test_known = Vec::new();
    let mut test_new = Vec::new();
    let mut surviving_items = 0usize;
    for &(dish, count) in &summary.dish_counts {
        let prop = count as f64 / summary.n_items as f64;
        if prop >= varrho {
            surviving_items += count;
            if assoc.is_known(dish) {
                test_known.push((dish, count, prop));
            } else {
                test_new.push((dish, count, prop));
            }
        }
    }
    // Proportions over surviving subclasses (the paper's table rows sum
    // to 100 %).
    let known_items: usize = test_known.iter().map(|&(_, c, _)| c).sum();
    let new_items: usize = test_new.iter().map(|&(_, c, _)| c).sum();
    let denom = surviving_items.max(1) as f64;

    let n_known_sub: usize = known_reports.iter().map(GroupSubclasses::n_subclasses).sum();
    let delta = estimate_unknown_classes(test_new.len(), n_known_sub, n_classes);

    SubclassReport {
        known: known_reports,
        test_known,
        test_new,
        test_known_proportion: known_items as f64 / denom,
        test_new_proportion: new_items as f64 / denom,
        delta_estimate: delta,
    }
}

/// Per-batch resource meter shared across that batch's attempts.
struct ServeCtl {
    deadline: Option<Instant>,
    sweeps_left: Option<usize>,
}

impl ServeCtl {
    fn new(policy: &ServePolicy) -> Self {
        Self {
            deadline: policy.deadline.map(|d| Instant::now() + d),
            sweeps_left: policy.sweep_budget,
        }
    }

    /// Charge one Gibbs sweep against the batch's budget and deadline.
    fn admit_sweep(&mut self) -> std::result::Result<(), AttemptError> {
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                return Err(AttemptError::DeadlineExceeded);
            }
        }
        if let Some(left) = &mut self.sweeps_left {
            if *left == 0 {
                return Err(AttemptError::BudgetExhausted);
            }
            *left -= 1;
        }
        Ok(())
    }
}

/// Honor an injected artificial delay at the sweep site.
pub(crate) fn sweep_fault_delay() {
    if let Some(osr_stats::faults::Fault::DelayMs(ms)) =
        osr_stats::faults::hit(osr_stats::faults::sites::SWEEP)
    {
        std::thread::sleep(Duration::from_millis(ms));
    }
}

/// One CD-OSR serve attempt: the batch appended as one more group of one
/// collapsed CRF sampler, swept under the watchdog, voting per point over
/// the voting states. The two serving modes differ in three things only:
///
/// * **Opening.** Warm: a session on the fit-time checkpoint, training
///   groups frozen. Cold ([`ServingMode::ColdStart`], the original
///   transductive schedule): a fresh sampler over the model's training
///   groups (shared, not copied) plus the batch, every group reseated.
/// * **Sweeps before the first vote.** Warm: 1. Cold: the full `iterations`
///   burn-in (the exact RNG stream of `Hdp::run`). Either way votes are
///   then cast on `decision_sweeps` states.
/// * **Association table.** Warm: the fit-time table, borrowed — training
///   seating cannot move, so it stays valid. Cold: recomputed for each
///   voting state, since training seating moves too.
pub(crate) struct HdpAttempt<'m> {
    model: &'m HdpOsr,
    /// The fit-time checkpoint and its tables; `None` for a cold model.
    warm: Option<&'m WarmState>,
    hdp: Hdp,
    /// The batch's group: the last one.
    test_group: usize,
    /// Sweeps up to and including the first voting state.
    first_vote: usize,
    sweeps_done: usize,
    votes: Vec<BTreeMap<Prediction, usize>>,
}

impl<'m> HdpAttempt<'m> {
    pub(crate) fn start(
        model: &'m HdpOsr,
        test: &[Vec<f64>],
    ) -> std::result::Result<Self, AttemptError> {
        let config = model.config();
        let warm = model.warm();
        let (hdp, first_vote) = match warm {
            Some(warm) => (warm.snapshot.session(test), 1),
            None => {
                let classes = model.classes();
                let hdp = Points::from_group(classes.len(), model.dim(), test).and_then(|batch| {
                    let mut groups = classes.to_vec();
                    groups.push(Arc::new(batch));
                    Hdp::from_groups(model.params().clone(), config.hdp_config(), groups)
                });
                (hdp, config.iterations)
            }
        };
        let hdp = hdp.map_err(|e| AttemptError::Fatal(e.into()))?;
        Ok(Self {
            model,
            warm,
            test_group: hdp.n_groups() - 1,
            hdp,
            first_vote,
            sweeps_done: 0,
            votes: vec![BTreeMap::new(); test.len()],
        })
    }

    /// The association table of the current state with its known-class
    /// report rows: borrowed from the fit when warm, recomputed when cold.
    fn associations(&self) -> (Cow<'m, Associations>, Cow<'m, [GroupSubclasses]>) {
        match self.warm {
            Some(warm) => (Cow::Borrowed(&warm.assoc), Cow::Borrowed(&warm.known_reports)),
            None => {
                let (assoc, known_reports) =
                    associate(self.model.config().varrho, self.model.n_classes(), |c| {
                        self.hdp.group_summary(c)
                    });
                (Cow::Owned(assoc), Cow::Owned(known_reports))
            }
        }
    }
}

impl CollectiveSession for HdpAttempt<'_> {
    fn sweeps_planned(&self) -> usize {
        self.first_vote + self.model.config().decision_sweeps - 1
    }

    fn sweep(&mut self, rng: &mut StdRng) -> std::result::Result<SweepTrace, AttemptError> {
        let trace = self
            .hdp
            .sweep_checked_traced(rng)
            .map_err(|d| AttemptError::Diverged(d.to_string()))?;
        self.sweeps_done += 1;
        if self.sweeps_done >= self.first_vote {
            let (assoc, _) = self.associations();
            for (i, vote) in self.votes.iter_mut().enumerate() {
                let pred = assoc.decide(self.hdp.dish_of(self.test_group, i));
                *vote.entry(pred).or_insert(0) += 1;
            }
        }
        Ok(trace)
    }

    fn finish(&mut self) -> std::result::Result<ClassifyOutcome, AttemptError> {
        let config = self.model.config();
        let (assoc, known_reports) = self.associations();
        let summary = self.hdp.group_summary(self.test_group);
        let report = build_report(
            config.varrho,
            self.model.n_classes(),
            &assoc,
            known_reports.into_owned(),
            &summary,
        );
        let test_dishes =
            (0..self.votes.len()).map(|i| self.hdp.dish_of(self.test_group, i)).collect();
        Ok(ClassifyOutcome {
            predictions: majority(&self.votes),
            report,
            test_dishes,
            gamma: self.hdp.gamma(),
            alpha: self.hdp.alpha(),
            log_likelihood: self.hdp.joint_log_likelihood(),
            served_via: if self.warm.is_some() { ServedVia::Warm } else { ServedVia::Cold },
            attempts: 1,
            trace_id: String::new(),
            method: CDOSR_METHOD.to_string(),
        })
    }
}

impl CollectiveModel for HdpOsr {
    fn method(&self) -> &'static str {
        CDOSR_METHOD
    }

    fn dim(&self) -> usize {
        self.dim()
    }

    fn capabilities(&self) -> ModelCapabilities {
        ModelCapabilities { frozen_fallback: self.warm().is_some(), durable_snapshot: true }
    }

    fn fit(&mut self, train: &TrainSet) -> Result<()> {
        let config = *self.config();
        *self = HdpOsr::fit(&config, train)?;
        Ok(())
    }

    fn warm_session<'s>(
        &'s self,
        batch: &[Vec<f64>],
    ) -> std::result::Result<Box<dyn CollectiveSession + 's>, AttemptError> {
        Ok(Box::new(HdpAttempt::start(self, batch)?))
    }

    fn classify_frozen(
        &self,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome> {
        self.warm().map(|warm| serve_degraded(self, warm, batch, reason, attempts))
    }

    fn classify_from_snapshot(
        &self,
        store: &crate::snapshot::SnapshotStore,
        batch: &[Vec<f64>],
        reason: DegradeReason,
        attempts: u32,
    ) -> Option<ClassifyOutcome> {
        // Any load failure — missing file, corruption, version skew — makes
        // this rung unavailable; the server then surfaces its typed error.
        // The loaded model must still be compatible with the serving model:
        // a snapshot of a different dimension cannot answer this batch.
        let loaded = store.load().ok()?;
        if loaded.dim() != self.dim() {
            return None;
        }
        let warm = loaded.warm()?;
        let outcome = serve_degraded(&loaded, warm, batch, reason, attempts);
        osr_stats::counters::record_durable_recovery();
        Some(outcome)
    }
}

/// Degraded frozen inference: answer the batch from the checkpoint alone —
/// MAP dish assignment under the frozen global mixture, no reseating, no
/// RNG. Every point that the "brand-new dish" option explains best is
/// pooled into one stand-in subclass (the snapshot's fresh pseudo-id) and
/// predicted `Unknown`. Deterministic, O(batch × dishes), cannot diverge.
fn serve_degraded(
    model: &HdpOsr,
    warm: &WarmState,
    test: &[Vec<f64>],
    reason: DegradeReason,
    attempts: u32,
) -> ClassifyOutcome {
    let config = model.config();
    let snap = &warm.snapshot;
    let pseudo = snap.fresh_dish_id();

    let mut counts: BTreeMap<DishId, usize> = BTreeMap::new();
    let mut test_dishes = Vec::with_capacity(test.len());
    let mut predictions = Vec::with_capacity(test.len());
    // One batched MAP pass: the snapshot scores every point against the
    // whole frozen menu through the one-vs-all bank kernel, reusing its
    // scratch buffers across the batch.
    for mapped in snap.map_dishes(test) {
        let dish = mapped.unwrap_or(pseudo);
        predictions.push(warm.assoc.decide(dish));
        *counts.entry(dish).or_insert(0) += 1;
        test_dishes.push(dish);
    }

    let mut dish_counts: Vec<(DishId, usize)> = counts.into_iter().collect();
    dish_counts.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    let summary = GroupSummary {
        group: snap.n_groups(),
        n_items: test.len(),
        n_tables: dish_counts.len(),
        dish_counts,
    };
    let report = build_report(
        config.varrho,
        model.n_classes(),
        &warm.assoc,
        warm.known_reports.clone(),
        &summary,
    );

    ClassifyOutcome {
        predictions,
        report,
        test_dishes,
        gamma: snap.gamma(),
        alpha: snap.alpha(),
        log_likelihood: snap.joint_log_likelihood(),
        served_via: ServedVia::Degraded { reason },
        attempts,
        trace_id: String::new(),
        method: CDOSR_METHOD.to_string(),
    }
}

/// Derive the RNG seed for batch `index` under server seed `seed` — the
/// same splitmix-style scheme the evaluation harness uses per trial, so a
/// batch's result can be reproduced sequentially without the server.
pub fn derive_batch_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Best-effort human-readable panic payload.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// The one parallel executor of the workspace — the serving stack's
/// dispatch and the evaluation harness's trials: run `serve(i, &items[i])`
/// for every item on up to `workers` threads and return the results in index
/// order, each `Err` carrying the message of a panic that item raised.
///
/// The calling thread is the first worker: it spawns `min(workers, n) − 1`
/// scoped helpers and runs the same claim loop itself, so a one-item round
/// spawns no thread. Workers claim the next index from one shared atomic
/// counter (no per-worker queues to steal from), so a worker that finishes
/// early takes the next item and stragglers do not hold up the round. Each
/// item runs under its own `catch_unwind`, and the thread-local divergence
/// flag is scrubbed after every item — and once on entry, so the caller's
/// thread starts as clean as a fresh helper — so neither a panic nor
/// leftover poison can reach the next item a worker claims.
pub fn fan_out<I: Sync, T: Send>(
    items: &[I],
    workers: usize,
    serve: impl Fn(usize, &I) -> T + Sync,
) -> Vec<std::result::Result<T, String>> {
    osr_stats::divergence::clear();
    let next = AtomicUsize::new(0);
    let claim = || {
        let mut served = Vec::new();
        loop {
            let idx = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(idx) else { return served };
            let out = catch_unwind(AssertUnwindSafe(|| serve(idx, item))).map_err(panic_message);
            osr_stats::divergence::clear();
            served.push((idx, out));
        }
    };
    // Panics are caught per item above; one that escapes the claim loop
    // itself is a bug in this function and keeps unwinding.
    let scoped = crossbeam::thread::scope(|s| {
        let helpers: Vec<_> = (1..workers.min(items.len())).map(|_| s.spawn(|_| claim())).collect();
        let mut served = claim();
        for helper in helpers {
            served.extend(helper.join().unwrap_or_else(|payload| resume_unwind(payload)));
        }
        served
    });
    let mut served = scoped.unwrap_or_else(|payload| resume_unwind(payload));
    served.sort_unstable_by_key(|&(idx, _)| idx);
    served.into_iter().map(|(_, out)| out).collect()
}

/// Serve many independent batches concurrently on the dispatch executor
/// (`fan_out`).
///
/// The server is method-agnostic: it holds a [`&dyn CollectiveModel`] and
/// drives CD-OSR and the per-instance baselines (via `osr-baselines`' serve
/// adapter) through the identical admission → watchdogged-attempt → retry →
/// degrade pipeline, keying its state machine off
/// [`ModelCapabilities`] instead of model internals.
///
/// Each batch gets its own RNG seeded by [`derive_batch_seed`], so the
/// output is a pure function of `(model, batches, seed, policy)` —
/// independent of the worker count and of thread scheduling.
///
/// Failures stay confined to their slot: admission rejections, divergence
/// after exhausted retries, and even panics surface as that batch's
/// `Err`/degraded outcome while every sibling batch completes bit-identical
/// to an undisturbed run.
pub struct BatchServer<'a> {
    model: &'a dyn CollectiveModel,
    workers: usize,
    policy: ServePolicy,
    sink: Option<Arc<dyn TraceSink>>,
    snapshot_store: Option<Arc<crate::snapshot::SnapshotStore>>,
}

impl<'a> BatchServer<'a> {
    /// A server over `model` with one worker per available CPU and the
    /// default [`ServePolicy`].
    pub fn new(model: &'a dyn CollectiveModel) -> Self {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        Self::with_workers(model, workers)
    }

    /// A server with an explicit worker count (clamped to ≥ 1).
    pub fn with_workers(model: &'a dyn CollectiveModel, workers: usize) -> Self {
        Self {
            model,
            workers: workers.max(1),
            policy: ServePolicy::default(),
            sink: None,
            snapshot_store: None,
        }
    }

    /// Replace the fault-tolerance policy (builder style).
    pub fn with_policy(mut self, policy: ServePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Attach a trace sink (builder style): every successfully answered
    /// batch — including degraded ones — emits a [`TraceRecord::Batch`].
    /// Records are emitted in batch-index order after all workers finish,
    /// so the stream is deterministic under any worker count.
    pub fn with_trace_sink(mut self, sink: Arc<dyn TraceSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Attach a durable [`crate::SnapshotStore`] (builder style): when full
    /// service fails under a degrading policy and the in-memory frozen
    /// fallback cannot answer (e.g. a cold-start model), the server reloads
    /// the store's last-good snapshot and serves frozen from the reloaded
    /// checkpoint — extending the degrade ladder from "frozen in memory" to
    /// "recover from durable state". Consulted only for models whose
    /// [`ModelCapabilities::durable_snapshot`] flag is set.
    pub fn with_snapshot_store(mut self, store: Arc<crate::snapshot::SnapshotStore>) -> Self {
        self.snapshot_store = Some(store);
        self
    }

    /// Number of workers a round runs on. The calling thread is the first
    /// of them, so a round spawns at most `workers − 1` threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The active fault-tolerance policy.
    pub fn policy(&self) -> &ServePolicy {
        &self.policy
    }

    /// Classify every batch; result `i` belongs to batch `i`. Per-batch
    /// failures — malformed input, divergence past the retry policy on a
    /// cold model, even a panic — are returned in place; they never poison
    /// the other batches. Warm-start models degrade to frozen inference
    /// instead of erroring when the policy allows it (check
    /// [`ClassifyOutcome::served_via`]).
    pub fn classify_batches(
        &self,
        batches: &[Vec<Vec<f64>>],
        seed: u64,
    ) -> Vec<Result<ClassifyOutcome>> {
        let store = self.snapshot_store.as_deref();
        let (results, traces): (Vec<_>, Vec<_>) = fan_out(batches, self.workers, |idx, batch| {
            serve_one(self.model, &self.policy, store, idx, batch, seed)
        })
        .into_iter()
        .map(|served| {
            served.unwrap_or_else(|panic| {
                (Err(OsrError::Internal(format!("batch worker panicked: {panic}"))), None)
            })
        })
        .unzip();
        if let Some(sink) = &self.sink {
            // Emit in batch-index order, after the round: the stream is a
            // pure function of (model, batches, seed, policy).
            for trace in traces.into_iter().flatten() {
                sink.record(&TraceRecord::Batch(trace));
            }
        }
        results
    }
}

/// Serve batch `idx` of a round under the full fault-tolerance ladder:
/// admission, watchdogged attempts with retry-with-reseed, then
/// degradation — frozen in memory, then (with a `store`) from the durable
/// last-good snapshot. Returns the outcome plus, for answered batches, the
/// [`BatchTrace`] destined for the trace sink (errors carry no trace).
///
/// This is [`BatchServer`]'s per-slot body and the front-end's per-flush
/// body: the front-end serves each micro-batch as index 0, and
/// [`derive_batch_seed`]`(seed, 0) == seed`, so the attempt RNG is seeded by
/// exactly the flush's seed.
pub(crate) fn serve_one(
    model: &dyn CollectiveModel,
    policy: &ServePolicy,
    store: Option<&crate::snapshot::SnapshotStore>,
    idx: usize,
    batch: &[Vec<f64>],
    seed: u64,
) -> (Result<ClassifyOutcome>, Option<BatchTrace>) {
    // Record whether this worker thread entered the batch already
    // poisoned — that would be a fault-isolation leak from an earlier
    // batch, and the golden-trace suite asserts it never happens.
    let inherited_poison = osr_stats::divergence::is_poisoned();
    // Injected NaN perturbations land *before* admission — proving the
    // admission pass, not the sampler, is what rejects them.
    let perturbed: Vec<Vec<f64>>;
    let batch: &[Vec<f64>] = {
        let fault = osr_stats::faults::with_context(idx, 0, || {
            osr_stats::faults::hit(osr_stats::faults::sites::ADMISSION)
        });
        if let Some(osr_stats::faults::Fault::NanPoint { point, coord }) = fault {
            let mut owned = batch.to_vec();
            if let Some(v) = owned.get_mut(point).and_then(|p| p.get_mut(coord)) {
                *v = f64::NAN;
            }
            perturbed = owned;
            &perturbed
        } else {
            batch
        }
    };

    if let Err(e) = admission::validate_batch(model.dim(), batch) {
        return (Err(e), None);
    }

    let caps = model.capabilities();
    let mut ctl = ServeCtl::new(policy);
    let max_attempts = policy.max_attempts.max(1);
    let mut attempts_used = 0u32;
    let mut last_divergence = String::new();
    let mut resource_breach: Option<DegradeReason> = None;
    let mut sweeps: Vec<SweepTrace> = Vec::new();

    for attempt in 0..max_attempts {
        attempts_used = attempt + 1;
        if attempt > 0 {
            osr_stats::counters::record_serve_retry();
        }
        // Only the answering attempt's sweeps belong in the trace.
        sweeps.clear();
        let result = osr_stats::faults::with_context(idx, attempt, || {
            if let Some(osr_stats::faults::Fault::Panic { message }) =
                osr_stats::faults::hit(osr_stats::faults::sites::ATTEMPT)
            {
                // osr-lint: allow(panic-path, injected fault — the executor's catch_unwind is the system under test)
                panic!("{message}");
            }
            // A reused worker thread may carry stale poison from an
            // unrelated earlier batch; attempts start clean.
            osr_stats::divergence::clear();
            let mut rng = StdRng::seed_from_u64(derive_batch_seed(seed, idx) ^ u64::from(attempt));
            let mut admit = || {
                sweep_fault_delay();
                ctl.admit_sweep()
            };
            model.classify_collective(batch, &mut rng, &mut admit, &mut sweeps)
        });
        match result {
            Ok(mut outcome) => {
                outcome.attempts = attempts_used;
                let trace = batch_trace(idx, seed, &mut outcome, inherited_poison, sweeps);
                return (Ok(outcome), Some(trace));
            }
            Err(AttemptError::Fatal(e)) => return (Err(e), None),
            Err(AttemptError::Diverged(reason)) => last_divergence = reason,
            Err(AttemptError::DeadlineExceeded) => {
                resource_breach = Some(DegradeReason::DeadlineExceeded);
                break;
            }
            Err(AttemptError::BudgetExhausted) => {
                resource_breach = Some(DegradeReason::SweepBudgetExceeded);
                break;
            }
        }
    }

    let reason = resource_breach.unwrap_or(DegradeReason::RetriesExhausted);
    if policy.degrade {
        if caps.frozen_fallback {
            if let Some(mut outcome) = model.classify_frozen(batch, reason, attempts_used) {
                osr_stats::counters::record_degraded_batch();
                // Degraded frozen inference runs no sweeps; the failed
                // attempts' partial traces are dropped with the attempts.
                let trace = batch_trace(idx, seed, &mut outcome, inherited_poison, Vec::new());
                return (Ok(outcome), Some(trace));
            }
        }
        // Last rung of the ladder: recover from the durable last-good
        // snapshot. Reached only when in-memory freezing is impossible
        // (cold model) or declined — the reload is per-batch and cheap
        // relative to the failed attempts that got us here.
        if let (Some(store), true) = (store, caps.durable_snapshot) {
            if let Some(mut outcome) =
                model.classify_from_snapshot(store, batch, reason, attempts_used)
            {
                osr_stats::counters::record_degraded_batch();
                let trace = batch_trace(idx, seed, &mut outcome, inherited_poison, Vec::new());
                return (Ok(outcome), Some(trace));
            }
        }
    }
    (
        Err(OsrError::Diverged {
            attempts: attempts_used,
            reason: match resource_breach {
                Some(breach) => breach.to_string(),
                None => last_divergence,
            },
        }),
        None,
    )
}

/// Stamp `outcome` with its reproducible trace id and build the matching
/// sink record.
fn batch_trace(
    idx: usize,
    seed: u64,
    outcome: &mut ClassifyOutcome,
    inherited_poison: bool,
    sweeps: Vec<SweepTrace>,
) -> BatchTrace {
    let trace_id = batch_trace_id(seed, idx);
    outcome.trace_id = trace_id.clone();
    BatchTrace {
        trace_id,
        batch: idx,
        method: outcome.method.clone(),
        attempts: outcome.attempts,
        served_via: outcome.served_via,
        inherited_poison,
        sweeps,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::HdpOsrConfig;
    use osr_dataset::protocol::TrainSet;
    use osr_stats::sampling;

    fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize, std: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    cx + std * sampling::standard_normal(rng),
                    cy + std * sampling::standard_normal(rng),
                ]
            })
            .collect()
    }

    /// Two known classes far apart; unknowns in a third location.
    fn scenario(rng: &mut StdRng) -> (TrainSet, Vec<Vec<f64>>) {
        let class0 = blob(rng, -6.0, 0.0, 40, 0.5);
        let class1 = blob(rng, 6.0, 0.0, 40, 0.5);
        let train = TrainSet { class_ids: vec![10, 20], classes: vec![class0, class1] };
        let mut test = blob(rng, -6.0, 0.0, 20, 0.5); // known 0
        test.extend(blob(rng, 6.0, 0.0, 20, 0.5)); // known 1
        test.extend(blob(rng, 0.0, 9.0, 20, 0.5)); // unknown
        (train, test)
    }

    fn config(serving: ServingMode) -> HdpOsrConfig {
        HdpOsrConfig { iterations: 10, serving, ..Default::default() }
    }

    #[test]
    fn warm_and_cold_agree_on_separated_blobs() {
        let mut rng = StdRng::seed_from_u64(21);
        let (train, test) = scenario(&mut rng);
        let warm = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let cold = HdpOsr::fit(&config(ServingMode::ColdStart), &train).unwrap();
        let seed = 7u64;
        let pw = warm
            .classify(&test, &mut StdRng::seed_from_u64(derive_batch_seed(seed, 0)))
            .unwrap();
        let pc = cold
            .classify(&test, &mut StdRng::seed_from_u64(derive_batch_seed(seed, 0)))
            .unwrap();
        let agree = pw.iter().zip(&pc).filter(|(a, b)| a == b).count();
        assert!(
            agree * 100 >= pw.len() * 95,
            "warm/cold parity: only {agree}/{} predictions agree",
            pw.len()
        );
    }

    #[test]
    fn majority_ties_break_toward_the_smaller_prediction() {
        let tally =
            |votes: &[(Prediction, usize)]| votes.iter().copied().collect::<BTreeMap<_, _>>();
        let votes = [
            tally(&[(Prediction::Known(1), 1), (Prediction::Unknown, 1)]),
            tally(&[(Prediction::Known(0), 1), (Prediction::Known(2), 1)]),
            // A strict majority wins whatever its order.
            tally(&[(Prediction::Known(0), 1), (Prediction::Unknown, 2)]),
        ];
        assert_eq!(
            majority(&votes),
            vec![Prediction::Known(1), Prediction::Known(0), Prediction::Unknown]
        );
    }

    #[test]
    fn warm_model_reports_frozen_training_composition() {
        let mut rng = StdRng::seed_from_u64(22);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let a = model.classify_detailed(&test, &mut StdRng::seed_from_u64(1)).unwrap();
        let b =
            model.classify_detailed(&test[..10], &mut StdRng::seed_from_u64(2)).unwrap();
        // Different batches, same frozen known-class subclass rows.
        for (ka, kb) in a.report.known.iter().zip(&b.report.known) {
            assert_eq!(ka.subclasses, kb.subclasses);
        }
        assert_eq!(a.served_via, ServedVia::Warm);
        assert_eq!(a.attempts, 1);
    }

    #[test]
    fn batch_server_output_is_independent_of_worker_count() {
        let mut rng = StdRng::seed_from_u64(23);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let batches: Vec<Vec<Vec<f64>>> = test.chunks(10).map(<[Vec<f64>]>::to_vec).collect();
        assert!(batches.len() >= 6);
        let run = |workers: usize| -> Vec<Vec<Prediction>> {
            BatchServer::with_workers(&model, workers)
                .classify_batches(&batches, 99)
                .into_iter()
                .map(|r| r.unwrap().predictions)
                .collect()
        };
        let one = run(1);
        assert_eq!(one, run(2));
        assert_eq!(one, run(8));

        // Rounds smaller than the worker count, down to one batch (served on
        // the calling thread alone), and the empty round.
        for n in [1usize, 3] {
            let round = &batches[..n];
            let serve = |workers: usize| -> Vec<Vec<Prediction>> {
                BatchServer::with_workers(&model, workers)
                    .classify_batches(round, 99)
                    .into_iter()
                    .map(|r| r.unwrap().predictions)
                    .collect()
            };
            assert_eq!(serve(1), one[..n], "n = {n}, 1 worker");
            assert_eq!(serve(2), one[..n], "n = {n}, 2 workers");
            assert_eq!(serve(8), one[..n], "n = {n}, 8 workers");
        }
        assert!(BatchServer::with_workers(&model, 4).classify_batches(&[], 99).is_empty());
    }

    #[test]
    fn a_one_item_round_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ran_on = fan_out(&[()], 8, |_, ()| std::thread::current().id());
        assert_eq!(ran_on, vec![Ok(caller)]);
        // One worker: the caller serves the whole round itself, in order.
        let ran_on = fan_out(&[10, 20, 30], 1, |idx, x| (idx, *x, std::thread::current().id()));
        assert_eq!(ran_on, vec![Ok((0, 10, caller)), Ok((1, 20, caller)), Ok((2, 30, caller))]);
    }

    #[test]
    fn a_poisoned_caller_thread_does_not_leak_into_its_round() {
        let mut rng = StdRng::seed_from_u64(32);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let batches: Vec<Vec<Vec<f64>>> = test.chunks(20).map(<[Vec<f64>]>::to_vec).collect();
        let run = |poison_first: bool| {
            let sink = Arc::new(crate::observability::RingSink::new(8));
            if poison_first {
                osr_stats::divergence::poison("left behind by the caller's own work");
            }
            let outcomes = BatchServer::with_workers(&model, 1)
                .with_trace_sink(sink.clone())
                .classify_batches(&batches, 13);
            (outcomes, sink.records())
        };
        let (clean, _) = run(false);
        let (outcomes, records) = run(true);
        assert_eq!(records.len(), batches.len());
        for record in records {
            match record {
                TraceRecord::Batch(trace) => assert!(!trace.inherited_poison, "{trace:?}"),
                other => panic!("expected batch records, got {other:?}"),
            }
        }
        for (a, b) in outcomes.iter().zip(&clean) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.predictions, b.predictions);
            assert_eq!(a.test_dishes, b.test_dishes);
            assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
            assert_eq!(a.attempts, b.attempts);
        }
    }

    #[test]
    fn batch_server_matches_sequential_serving() {
        let mut rng = StdRng::seed_from_u64(24);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let batches: Vec<Vec<Vec<f64>>> = test.chunks(15).map(<[Vec<f64>]>::to_vec).collect();
        let seed = 5u64;
        let server = BatchServer::with_workers(&model, 4).classify_batches(&batches, seed);
        for (idx, (batch, result)) in batches.iter().zip(server).enumerate() {
            let mut rng = StdRng::seed_from_u64(derive_batch_seed(seed, idx));
            let sequential = model.classify(batch, &mut rng).unwrap();
            assert_eq!(result.unwrap().predictions, sequential);
        }
    }

    #[test]
    fn serve_one_at_index_zero_matches_sequential_classify() {
        let mut rng = StdRng::seed_from_u64(31);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let (outcome, trace) = serve_one(&model, &ServePolicy::default(), None, 0, &test[..10], 77);
        let sequential =
            model.classify(&test[..10], &mut StdRng::seed_from_u64(77)).unwrap();
        assert_eq!(outcome.unwrap().predictions, sequential);
        assert!(trace.is_some(), "an answered batch carries its trace");
    }

    #[test]
    fn batch_server_surfaces_per_batch_errors() {
        let mut rng = StdRng::seed_from_u64(25);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let batches = vec![test[..5].to_vec(), Vec::new(), test[5..10].to_vec()];
        let results = BatchServer::new(&model).classify_batches(&batches, 1);
        assert!(results[0].is_ok());
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &OsrError::EmptyBatch,
            "empty batch must fail in place with a typed error"
        );
        assert!(results[2].is_ok());
    }

    #[test]
    fn admission_rejects_malformed_batches_with_typed_errors() {
        let mut rng = StdRng::seed_from_u64(27);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let batches = vec![
            vec![vec![0.0, 1.0, 2.0]],           // wrong dimension
            vec![vec![0.0, f64::NAN]],           // non-finite feature
            test[..5].to_vec(),                  // healthy
        ];
        let results = BatchServer::new(&model).classify_batches(&batches, 3);
        assert_eq!(
            results[0].as_ref().unwrap_err(),
            &OsrError::DimensionMismatch { point: 0, expected: 2, got: 3 }
        );
        assert_eq!(
            results[1].as_ref().unwrap_err(),
            &OsrError::NonFiniteFeature { point: 0, coord: 1 }
        );
        assert!(results[2].is_ok());
    }

    #[test]
    fn exhausted_sweep_budget_degrades_to_frozen_inference() {
        let mut rng = StdRng::seed_from_u64(28);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let policy = ServePolicy { sweep_budget: Some(0), ..Default::default() };
        let degraded_before = osr_stats::counters::degraded_batches();
        let results = BatchServer::with_workers(&model, 2)
            .with_policy(policy)
            .classify_batches(std::slice::from_ref(&test), 11);
        let outcome = results[0].as_ref().unwrap();
        assert_eq!(
            outcome.served_via,
            ServedVia::Degraded { reason: DegradeReason::SweepBudgetExceeded }
        );
        assert!(outcome.served_via.is_degraded());
        assert_eq!(outcome.predictions.len(), test.len());
        assert!(osr_stats::counters::degraded_batches() > degraded_before);

        // Degraded frozen inference still gets the easy scene mostly right:
        // knowns map onto frozen training dishes, unknowns onto the pseudo
        // new dish.
        let k0 = outcome.predictions[..20]
            .iter()
            .filter(|p| **p == Prediction::Known(0))
            .count();
        let unk = outcome.predictions[40..]
            .iter()
            .filter(|p| **p == Prediction::Unknown)
            .count();
        assert!(k0 >= 16, "degraded recall for class 0: {k0}/20");
        assert!(unk >= 16, "degraded rejection: {unk}/20");
        // The report stays coherent: frozen known rows, a new-dish row for
        // the unknowns.
        assert!(outcome.report.n_new_subclasses() >= 1);
    }

    #[test]
    fn degradation_disabled_surfaces_a_typed_error() {
        let mut rng = StdRng::seed_from_u64(29);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let policy =
            ServePolicy { sweep_budget: Some(0), degrade: false, ..Default::default() };
        let results = BatchServer::with_workers(&model, 1)
            .with_policy(policy)
            .classify_batches(&[test[..5].to_vec()], 11);
        match results[0].as_ref().unwrap_err() {
            OsrError::Diverged { attempts, reason } => {
                assert_eq!(*attempts, 1);
                assert!(reason.contains("budget"), "reason was: {reason}");
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
    }

    #[test]
    fn cold_model_cannot_degrade_and_errors_instead() {
        let mut rng = StdRng::seed_from_u64(30);
        let (train, test) = scenario(&mut rng);
        let model = HdpOsr::fit(&config(ServingMode::ColdStart), &train).unwrap();
        let policy = ServePolicy { sweep_budget: Some(1), ..Default::default() };
        let results = BatchServer::with_workers(&model, 1)
            .with_policy(policy)
            .classify_batches(&[test[..5].to_vec()], 11);
        assert!(
            matches!(results[0].as_ref().unwrap_err(), OsrError::Diverged { .. }),
            "cold model has no checkpoint to degrade onto: {:?}",
            results[0]
        );
    }

    #[test]
    fn cold_start_model_keeps_no_snapshot() {
        let mut rng = StdRng::seed_from_u64(26);
        let (train, _) = scenario(&mut rng);
        let cold = HdpOsr::fit(&config(ServingMode::ColdStart), &train).unwrap();
        assert!(cold.snapshot().is_none());
        let warm = HdpOsr::fit(&config(ServingMode::WarmStart), &train).unwrap();
        let snap = warm.snapshot().expect("warm fit checkpoints the posterior");
        assert_eq!(snap.n_groups(), 2);
        assert!(snap.n_dishes() >= 2);
    }
}
