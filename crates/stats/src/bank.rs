//! Struct-of-arrays bank of NIW posteriors: the vectorized predictive hot
//! path.
//!
//! The collapsed Gibbs sampler evaluates one Student-t posterior predictive
//! per live dish per seating decision. With per-dish [`crate::NiwPosterior`]
//! objects each evaluation re-derives the predictive constants (two
//! `ln_gamma`s, the factor log-determinant, a `ln`/`exp` pair for the scale)
//! and allocates two temporaries — work that only changes when the dish
//! *changes*, not when it is *scored*. [`DishBank`] moves every dish into
//! contiguous struct-of-arrays storage:
//!
//! ```text
//! slot:        0        1        2        ...          (free-list reuses slots)
//! mu:      [── d ──][── d ──][── d ──]                 contiguous means
//! chol:    [─ tri ─][─ tri ─][─ tri ─]                 column-packed lower Cholesky of Ψₙ
//! psi:     [─ tri ─][─ tri ─][─ tri ─]                 column-packed lower triangle of Ψₙ
//! kappa/nu/n/df/exp_ls/base/half_df_dd/log_det:  one f64 (or usize) per slot
//! ```
//!
//! where `tri = d(d+1)/2` and each triangle stores its columns contiguously
//! (column `j` contributes `d − j` entries, diagonal first, at offset
//! `j·d − j(j−1)/2`). Column order is what makes the hot mutations — the
//! Givens rank-1 update/downdate of the factor and the symmetric rank-1
//! update of Ψ — walk contiguous memory with elementwise lane helpers
//! ([`osr_linalg::lanes::givens_update_col`], [`osr_linalg::lanes::axpy4`]),
//! and the forward substitution still visits each accumulator in the same
//! ascending order ([`osr_linalg::lanes::fused_solve_lower_cols`]). The
//! per-dish constants are refreshed once per add/remove (the same
//! transcendental count the legacy path paid per *evaluation*), with the
//! count-dependent transcendentals memoized in a bit-validated lattice cache
//! (`CountConstants`); scoring reduces to the fused solve, a sequential
//! squared norm, and a single `ln`.
//!
//! # The kernels and their numerics contracts
//!
//! **One observation vs. all dishes** ([`score_all`](DishBank::score_all),
//! plus the base-measure companion [`score_prior`](DishBank::score_prior)):
//! every cached constant is computed by the exact operation sequence of
//! [`crate::NiwPosterior::predictive_logpdf`] /
//! [`crate::mvn::mvt_logpdf_scaled`], and the per-evaluation remainder
//! preserves the legacy left-associated order, so bank scores equal the
//! legacy scores *to the bit* (property-tested in
//! `crates/stats/tests/bank_equivalence.rs`). The reassociating lane helper
//! `dot4` is deliberately **not** used on this path — see the
//! `osr_linalg::lanes` module docs.
//!
//! **A batch of observations vs. one dish**
//! ([`block_predictive_stats`](DishBank::block_predictive_stats)): the
//! chain-rule product of per-point Student-t predictives telescopes into a
//! closed-form marginal-likelihood ratio,
//!
//! ```text
//! ln p(X | D) = −(m·d/2) ln π
//!             + ln Γ_d(ν_{n+m}/2) − ln Γ_d(ν_n/2)
//!             + (ν_n/2) ln|Ψ_n| − (ν_{n+m}/2) ln|Ψ_{n+m}|
//!             + (d/2)(ln κ_n − ln κ_{n+m})
//! Ψ_{n+m} = Ψ_n + S + κ_n m/(κ_n+m) · δδ',   δ = x̄ − μ_n,
//! S = Σᵢ (xᵢ−x̄)(xᵢ−x̄)'
//! ```
//!
//! which the bank evaluates with one fresh O(d³/3) Cholesky per candidate
//! dish instead of the legacy `m × (solve + rank-1 update + rank-1 downdate)`
//! cycle — the block stats `(m, x̄, S)` are computed **once per block**
//! ([`compute_block_stats`](DishBank::compute_block_stats)) and reused across
//! every candidate, and the multivariate-gamma difference collapses to `2m`
//! lookups in a lazily grown `ln Γ((ν₀+j)/2)` lattice table. This form is
//! mathematically identical to the chain rule but **not bit-identical** to
//! it; the golden traces were deliberately re-pinned when it landed (see
//! DESIGN.md, "Posterior bank layout and vectorized predictive" — numerics
//! note). Determinism is preserved: the result is a pure function of the
//! posterior state and the block, with fixed accumulation order everywhere.
//!
//! **Small blocks through the determinant lemma.** Most Eq. 8 tables hold
//! a handful of points, and for those the fresh `d × d` factorization of
//! `Ψ_{n+m}` is most of a candidate's cost. Writing `S` as a sum of
//! Helmert outer products `Σ h_k h_k'` (`h_k = √(k/(k+1))·(mean(x₁..x_k) −
//! x_{k+1})`, one Welford step each) makes the update low-rank,
//! `Ψ_{n+m} = Ψₙ + UU'` with `U = [√c·δ, h₁ … h_{m−1}]`, and the lemma
//!
//! ```text
//! ln |Ψₙ + UU'| = ln |Ψₙ| + ln |I_m + W'W|,   W = Lₙ⁻¹ U
//! ```
//!
//! reads it off the factor `Lₙ` the bank already maintains: `m` forward
//! solves (interleaved like `score_all`), an `m × m` Gram and its Cholesky.
//! [`compute_block_stats`](DishBank::compute_block_stats) fills the Helmert
//! columns once per block when `m(d²/2 + d) + m²d/2 + m³/6 < d³/6 + d²`
//! (`m ≤ 4` at `d = 16`, `m ≤ 11` at `d = 39`, never at `d = 1`), and every
//! candidate plus the prior shares them; larger blocks keep the fresh
//! factorization above. The two paths compute the same real number from
//! different state (the maintained factor vs. the maintained `Ψₙ`), so
//! they agree to rounding — within 1e-10 relative across `d ∈ {2, 5, 16,
//! 39}` and `m` up to one past the rule, unit-tested here — and
//! neither is bit-identical to the other. Only the low bits of Eq. 8
//! scores move: the rank-m attach/detach and every other state update are
//! untouched, so a draw that lands as before leaves bit-identical dish
//! states, log-likelihoods and snapshot bytes (the committed goldens did
//! not move).
//!
//! Slots are dense and reused through a free-list; the sampler's stable,
//! monotone `DishId`s live one layer up (`osr-hdp`) and map onto slots, so
//! retirement never moves another dish's data. Slots are storage only: the
//! snapshot codec writes no slot number, live flag or free-list, and a
//! decoded bank holds its dishes in slots `0..K` (see
//! [`DishBank::encode_into`]).

use osr_linalg::lanes::{axpy4, fused_solve_lower_cols, givens_downdate_col, givens_update_col};
use osr_linalg::{vector, Cholesky, Matrix};

use crate::niw::{factor_spd_with_jitter, NiwParams};
use crate::special::{ln_gamma, ln_multigamma};

/// Index of a dish's storage slot inside a [`DishBank`].
pub type Slot = usize;

/// Sufficient statistics of one observation block — everything the
/// batch-vs-one kernel needs that does not depend on the candidate dish:
/// the count `m`, the block mean `x̄`, and the centered scatter
/// `S = Σ (xᵢ−x̄)(xᵢ−x̄)'` (column-packed lower triangle).
///
/// Compute once per block with
/// [`DishBank::compute_block_stats`], then score the same block against any
/// number of candidate dishes with
/// [`DishBank::block_predictive_stats`] — the stats are shared, the O(d³)
/// per-candidate work is not recomputed per point.
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    /// Number of points in the block.
    pub m: usize,
    /// Block mean `x̄`, length `d`.
    pub xbar: Vec<f64>,
    /// Centered scatter `S`, column-packed lower triangle, length
    /// `d(d+1)/2`.
    pub scatter: Vec<f64>,
    /// Internal centering scratch, length `d`.
    dev: Vec<f64>,
    /// Helmert columns `h_k = √(k/(k+1))·(mean(x₁..x_k) − x_{k+1})`,
    /// `k = 1..m−1`, as `m − 1` contiguous `d`-lanes (`S = Σ h_k h_k'`).
    /// Filled only for blocks small enough for the determinant-lemma path.
    helmert: Vec<f64>,
    /// The block size `helmert` was filled for; 0 when it was not filled.
    helmert_m: usize,
}

impl BlockStats {
    /// Stats buffers sized for dimension `d` (avoids first-use growth).
    pub fn new(d: usize) -> Self {
        Self {
            m: 0,
            xbar: vec![0.0; d],
            scatter: vec![0.0; d * (d + 1) / 2],
            dev: vec![0.0; d],
            helmert: vec![0.0; lemma_max_m(d).saturating_sub(1) * d],
            helmert_m: 0,
        }
    }
}

/// Largest block size whose Eq. 8 scoring takes the determinant-lemma path:
/// the largest `m` with `m(d²/2 + d) + m²d/2 + m³/6 < d³/6 + d²` — `m`
/// forward solves, the `m × m` Gram and its Cholesky against one fresh
/// factorization of the updated scale — evaluated exactly in integers (both
/// sides × 6). It is 4 at `d = 16`, 11 at `d = 39` and 0 at `d = 1`.
fn lemma_max_m(d: usize) -> usize {
    let lemma = |m: usize| m * (3 * d * d + 6 * d) + 3 * m * m * d + m * m * m;
    let fresh = d * d * d + 6 * d * d;
    (1..).take_while(|&m| lemma(m) < fresh).last().unwrap_or(0)
}

/// Struct-of-arrays storage for every live dish's NIW posterior plus the
/// precomputed predictive constants. See the module docs for layout and the
/// per-kernel numerics contracts.
#[derive(Debug, Clone)]
pub struct DishBank {
    d: usize,
    /// `d (d + 1) / 2`: packed lower-triangle length per slot.
    tri: usize,

    // Prior template a fresh slot is stamped from, plus the prior's own
    // predictive constants (the base measure is scored like a dish that
    // absorbed nothing).
    prior_kappa: f64,
    prior_nu: f64,
    prior_mu: Vec<f64>,
    prior_chol: Vec<f64>,
    prior_psi: Vec<f64>,
    prior_log_det: f64,
    prior_df: f64,
    prior_half_df_dd: f64,
    prior_exp_ls: f64,
    prior_base: f64,
    // Prior terms of the closed-form log marginal likelihood.
    /// `ln Γ_d(ν₀/2)`.
    prior_ln_multigamma: f64,
    /// `(ν₀/2) ln |Ψ₀|`.
    prior_half_nu_log_det: f64,
    /// `ln κ₀`.
    prior_ln_kappa: f64,

    // Per-slot posterior state (SoA).
    n: Vec<usize>,
    kappa: Vec<f64>,
    nu: Vec<f64>,
    /// Posterior means, `slots × d`.
    mu: Vec<f64>,
    /// Column-packed lower-triangular Cholesky factors of Ψₙ,
    /// `slots × tri` (column `j` at offset `j·d − j(j−1)/2`, diagonal
    /// first).
    chol: Vec<f64>,
    /// Column-packed lower triangles of Ψₙ itself, `slots × tri`, maintained
    /// by the same rank-1 steps as the factor. The block kernel reads Ψₙ
    /// directly when forming the rank-m updated scale.
    psi: Vec<f64>,

    // Per-slot predictive constants (refreshed on every add/remove).
    /// Student-t degrees of freedom `νₙ − d + 1`.
    df: Vec<f64>,
    /// `0.5 (df + d)` — the multiplier of the per-evaluation `ln` term.
    half_df_dd: Vec<f64>,
    /// `exp(ln c)` for the scale `c = (κ+1)/(κ df)`, dividing the quadratic
    /// form exactly as the legacy scaled evaluation does.
    exp_ls: Vec<f64>,
    /// The observation-independent prefix of the log-density.
    base: Vec<f64>,
    /// `ln |Ψₙ|` of the packed factor (legacy `Cholesky::log_det` order).
    log_det_chol: Vec<f64>,

    live: Vec<bool>,
    free: Vec<Slot>,

    /// Memoized count-dependent transcendentals, indexed by observation
    /// count `n` (see [`CountConstants`]).
    count_cache: Vec<CountConstants>,
    /// Lazily grown lattice table `T[idx] = ln Γ((ν₀ + idx − (d−1)) / 2)`,
    /// shared by every slot: νₙ walks `ν₀ + n` by exact `±1.0` steps, so the
    /// multivariate-gamma difference in the block ratio reduces to `2m`
    /// table lookups (see [`DishBank::block_predictive_stats`]).
    ln_gamma_nu: Vec<f64>,

    // Update/evaluation scratch (never observable; cloned banks just carry
    // capacity).
    scratch_dir: Vec<f64>,
    scratch_mu: Vec<f64>,
    scratch_w: Vec<f64>,
    /// Rank-m updated scale `Ψ_{n+m}` workspace for the block kernel.
    scratch_a: Vec<f64>,
    /// Largest block the block kernel scores by the determinant lemma
    /// ([`lemma_max_m`] of `d`).
    lemma_m: usize,
    /// `W = Lₙ⁻¹U` lanes of the determinant-lemma path, `lemma_m × d`.
    scratch_lw: Vec<f64>,
    /// Packed `I + W'W` Gram of the determinant-lemma path.
    scratch_gram: Vec<f64>,
    /// Factorization workspace for the rank-m attach/detach state updates.
    scratch_f: Vec<f64>,
    /// Block-stats workspace backing the allocation-free
    /// [`block_predictive`](DishBank::block_predictive) convenience wrapper.
    scratch_stats: BlockStats,
}

/// Memoized transcendentals of the predictive constants that depend only on
/// the observation count `n` (through `κₙ = κ₀ + n` and `νₙ = ν₀ + n`, both
/// accumulated by exact `± 1.0` steps).
///
/// The cache is *validated, not trusted*: each entry stores the exact
/// `(κ, ν)` bit patterns it was computed from, and [`DishBank`] recomputes on
/// any mismatch. A hit therefore returns values produced by the identical
/// operation sequence on identical input bits — bit-identity holds by
/// construction, and a hypothetical `+1.0`/`−1.0` round-trip that failed to
/// restore `κ` exactly would merely miss the cache, never corrupt a score.
#[derive(Debug, Clone, Copy)]
struct CountConstants {
    valid: bool,
    kappa_bits: u64,
    nu_bits: u64,
    /// `ln Γ((df + d) / 2)`.
    g1: f64,
    /// `ln Γ(df / 2)`.
    g2: f64,
    /// `ln(df π)`.
    ln_pi_df: f64,
    /// `ln c` for the scale `c = (κ+1)/(κ df)`.
    els: f64,
    /// `exp(ln c)`.
    exp_ls: f64,
    /// `ln Γ_d(ν/2)`, the log marginal likelihood's posterior term.
    ln_multigamma_nu: f64,
}

impl CountConstants {
    const EMPTY: Self = Self {
        valid: false,
        kappa_bits: 0,
        nu_bits: 0,
        g1: 0.0,
        g2: 0.0,
        ln_pi_df: 0.0,
        els: 0.0,
        exp_ls: 0.0,
        ln_multigamma_nu: 0.0,
    };
}

impl DishBank {
    /// Empty bank over the base measure `params`.
    pub fn new(params: &NiwParams) -> Self {
        let d = params.dim();
        let dd = d as f64;
        let tri = d * (d + 1) / 2;
        let l = params.psi0_chol().factor_l();
        let mut prior_chol = Vec::with_capacity(tri);
        for j in 0..d {
            for i in j..d {
                prior_chol.push(l[(i, j)]);
            }
        }
        let psi0 = params.psi0();
        let mut prior_psi = Vec::with_capacity(tri);
        for j in 0..d {
            for i in j..d {
                prior_psi.push(psi0[(i, j)]);
            }
        }
        // Prior predictive constants, by the exact sequence of
        // `refresh_constants` on a fresh slot.
        let mut ln_sum = 0.0;
        let mut off = 0;
        for j in 0..d {
            ln_sum += prior_chol[off].ln();
            off += d - j;
        }
        let prior_log_det = ln_sum * 2.0;
        let df = params.nu0 - dd + 1.0;
        let scale = (params.kappa0 + 1.0) / (params.kappa0 * df);
        let els = scale.ln();
        let log_det = prior_log_det + dd * els;
        let prior_base = ln_gamma((df + dd) / 2.0)
            - ln_gamma(df / 2.0)
            - 0.5 * dd * (df * std::f64::consts::PI).ln()
            - 0.5 * log_det;
        let lemma_m = lemma_max_m(d);
        Self {
            d,
            tri,
            prior_kappa: params.kappa0,
            prior_nu: params.nu0,
            prior_mu: params.mu0.clone(),
            prior_chol,
            prior_psi,
            prior_log_det,
            prior_df: df,
            prior_half_df_dd: 0.5 * (df + dd),
            prior_exp_ls: els.exp(),
            prior_base,
            prior_ln_multigamma: ln_multigamma(d, params.nu0 / 2.0),
            prior_half_nu_log_det: (params.nu0 / 2.0) * params.log_det_psi0(),
            prior_ln_kappa: params.kappa0.ln(),
            n: Vec::new(),
            kappa: Vec::new(),
            nu: Vec::new(),
            mu: Vec::new(),
            chol: Vec::new(),
            psi: Vec::new(),
            df: Vec::new(),
            half_df_dd: Vec::new(),
            exp_ls: Vec::new(),
            base: Vec::new(),
            log_det_chol: Vec::new(),
            live: Vec::new(),
            free: Vec::new(),
            count_cache: Vec::new(),
            ln_gamma_nu: Vec::new(),
            scratch_dir: vec![0.0; d],
            scratch_mu: vec![0.0; d],
            scratch_w: vec![0.0; d],
            scratch_a: vec![0.0; tri],
            lemma_m,
            scratch_lw: vec![0.0; lemma_m * d],
            scratch_gram: vec![0.0; lemma_m * (lemma_m + 1) / 2],
            scratch_f: vec![0.0; tri],
            scratch_stats: BlockStats::new(d),
        }
    }

    /// Feature dimension `d`.
    #[inline]
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of storage slots (live plus free).
    #[inline]
    pub fn n_slots(&self) -> usize {
        self.live.len()
    }

    /// Number of live slots.
    pub fn n_live(&self) -> usize {
        self.live.iter().filter(|&&l| l).count()
    }

    /// True when `slot` currently holds a dish.
    #[inline]
    pub fn is_live(&self, slot: Slot) -> bool {
        self.live.get(slot).copied().unwrap_or(false)
    }

    /// Observations absorbed by the dish at `slot`.
    #[inline]
    pub fn count(&self, slot: Slot) -> usize {
        self.n[slot]
    }

    /// Posterior mean location μₙ of the dish at `slot`.
    #[inline]
    pub fn mean(&self, slot: Slot) -> &[f64] {
        &self.mu[slot * self.d..(slot + 1) * self.d]
    }

    /// Allocate a slot initialized to the prior posterior (reusing a freed
    /// slot when one exists) and return its index.
    pub fn alloc(&mut self) -> Slot {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                let s = self.live.len();
                self.n.push(0);
                self.kappa.push(0.0);
                self.nu.push(0.0);
                self.mu.extend(std::iter::repeat_n(0.0, self.d));
                self.chol.extend(std::iter::repeat_n(0.0, self.tri));
                self.psi.extend(std::iter::repeat_n(0.0, self.tri));
                self.df.push(0.0);
                self.half_df_dd.push(0.0);
                self.exp_ls.push(0.0);
                self.base.push(0.0);
                self.log_det_chol.push(0.0);
                self.live.push(false);
                s
            }
        };
        self.n[slot] = 0;
        self.kappa[slot] = self.prior_kappa;
        self.nu[slot] = self.prior_nu;
        self.mu[slot * self.d..(slot + 1) * self.d].copy_from_slice(&self.prior_mu);
        self.chol[slot * self.tri..(slot + 1) * self.tri].copy_from_slice(&self.prior_chol);
        self.psi[slot * self.tri..(slot + 1) * self.tri].copy_from_slice(&self.prior_psi);
        self.live[slot] = true;
        self.refresh_constants(slot);
        slot
    }

    /// Release a slot back to the free-list.
    ///
    /// # Panics
    /// Panics when the slot is already free — that is a bookkeeping bug in
    /// the caller's id → slot registry.
    pub fn release(&mut self, slot: Slot) {
        assert!(self.live[slot], "DishBank::release: slot {slot} is not live");
        self.live[slot] = false;
        self.free.push(slot);
    }

    /// Append the posterior state of the dishes at `slots`, in that order,
    /// to a snapshot payload: κₙ, νₙ, μₙ, the packed factor and the packed
    /// Ψₙ of each. These are the only per-dish facts whose bits depend on
    /// the fit's update history. Everything else is derived on load:
    /// [`Self::decode_from`] takes the item counts from the caller (the
    /// seating), lays the dishes out in slots `0..K`, and rebuilds the
    /// predictive constants through the exact `refresh_constants` sequence.
    ///
    /// Slot numbers, live flags and the free-list are storage, not
    /// posterior: every kernel reads a dish through the slot it is handed,
    /// so a compacted bank scores every dish to the same bits, and writing
    /// the dishes in a canonical order (the caller's dish-id order) makes
    /// save → load → re-save byte-identical.
    pub fn encode_into(&self, slots: &[Slot], enc: &mut crate::snapshot::Enc) {
        for &slot in slots {
            enc.put_f64(self.kappa[slot]);
            enc.put_f64(self.nu[slot]);
            enc.put_f64_slice(&self.mu[slot * self.d..(slot + 1) * self.d]);
            enc.put_f64_slice(&self.chol[slot * self.tri..(slot + 1) * self.tri]);
            enc.put_f64_slice(&self.psi[slot * self.tri..(slot + 1) * self.tri]);
        }
    }

    /// Decode `counts.len()` dishes written by [`Self::encode_into`] into
    /// slots `0..counts.len()`, dish `k` having absorbed `counts[k]`
    /// observations, and rebuild the prior template and every derived
    /// constant from `params`.
    ///
    /// # Errors
    /// Typed errors for truncation and for non-finite or out-of-domain
    /// posterior state.
    pub fn decode_from(
        dec: &mut crate::snapshot::Dec<'_>,
        params: &NiwParams,
        counts: &[usize],
    ) -> crate::snapshot::SnapResult<Self> {
        use crate::snapshot::SnapshotError;
        let mut bank = Self::new(params);
        let (d, tri) = (bank.d, bank.tri);
        let k = counts.len();
        // The whole payload up front (κ, ν, μ, factor and Ψ per dish): a
        // count that the section cannot back is a truncation, not an
        // allocation.
        let record = 8 * (2 + d + 2 * tri);
        let mut dec = crate::snapshot::Dec::new(dec.take(k.saturating_mul(record), "DishBank")?);
        bank.n = counts.to_vec();
        bank.kappa = vec![0.0; k];
        bank.nu = vec![0.0; k];
        bank.mu = vec![0.0; k * d];
        bank.chol = vec![0.0; k * tri];
        bank.psi = vec![0.0; k * tri];
        bank.df = vec![0.0; k];
        bank.half_df_dd = vec![0.0; k];
        bank.exp_ls = vec![0.0; k];
        bank.base = vec![0.0; k];
        bank.log_det_chol = vec![0.0; k];
        bank.live = vec![true; k];
        for slot in 0..k {
            let kappa = dec.f64("DishBank kappa")?;
            let nu = dec.f64("DishBank nu")?;
            if !(kappa.is_finite() && kappa > 0.0 && nu.is_finite()) {
                return Err(SnapshotError::Malformed(format!(
                    "DishBank dish {slot}: kappa = {kappa}, nu = {nu} out of domain"
                )));
            }
            bank.kappa[slot] = kappa;
            bank.nu[slot] = nu;
            dec.f64_into(&mut bank.mu[slot * d..(slot + 1) * d], "DishBank mu")?;
            let chol = &mut bank.chol[slot * tri..(slot + 1) * tri];
            dec.f64_into(chol, "DishBank chol")?;
            // Column-packed diagonals lead their columns; the predictive
            // constants take their lns, so they must be finite and positive.
            let mut off = 0;
            for j in 0..d {
                let diag = chol[off];
                if !(diag.is_finite() && diag > 0.0) {
                    return Err(SnapshotError::Malformed(format!(
                        "DishBank dish {slot}: factor diagonal [{j}] = {diag} \
                         is not finite and positive"
                    )));
                }
                off += d - j;
            }
            dec.f64_into(&mut bank.psi[slot * tri..(slot + 1) * tri], "DishBank psi")?;
            bank.refresh_constants(slot);
        }
        Ok(bank)
    }

    /// Absorb one observation into the dish at `slot` (O(d²) rank-1 update
    /// of both the factor and Ψ, plus an O(d) constants refresh). The factor
    /// path mirrors [`crate::NiwPosterior::add`] operation for operation.
    ///
    /// # Panics
    /// Panics on dimension mismatch.
    pub fn add_obs(&mut self, slot: Slot, x: &[f64]) {
        let d = self.d;
        assert_eq!(x.len(), d, "DishBank::add_obs: dimension mismatch");
        let kappa = self.kappa[slot];
        let kappa_new = kappa + 1.0;
        let coef = (kappa / kappa_new).sqrt();
        let mu = &self.mu[slot * d..(slot + 1) * d];
        for ((dst, &xi), &m) in self.scratch_dir.iter_mut().zip(x).zip(mu) {
            *dst = xi - m;
        }
        vector::scale(coef, &mut self.scratch_dir);
        // Ψ ← Ψ + w w' first — the Givens update below consumes `w`.
        packed_syr(&mut self.psi[slot * self.tri..(slot + 1) * self.tri], d, 1.0, &self.scratch_dir);
        // Rank-1 update of the packed factor; scratch_dir doubles as the
        // working vector `w` (the dense implementation copies it first —
        // the arithmetic on each element is identical).
        packed_rank1_update(&mut self.chol[slot * self.tri..(slot + 1) * self.tri], d, &mut self.scratch_dir);
        let mu = &mut self.mu[slot * d..(slot + 1) * d];
        for (m, &xi) in mu.iter_mut().zip(x) {
            *m = (kappa * *m + xi) / kappa_new;
        }
        self.kappa[slot] = kappa_new;
        self.nu[slot] += 1.0;
        self.n[slot] += 1;
        self.refresh_constants(slot);
    }

    /// Remove one previously absorbed observation (O(d²)), mirroring
    /// [`crate::NiwPosterior::remove`] on the factor — including the dense
    /// downdate-rescue and divergence-poison fallback paths — and keeping
    /// the Ψ triangle in step (after a rescue, Ψ is re-derived from the
    /// repaired factor).
    ///
    /// # Panics
    /// Panics on dimension mismatch or when `count(slot) == 0`.
    pub fn remove_obs(&mut self, slot: Slot, x: &[f64]) {
        let d = self.d;
        assert_eq!(x.len(), d, "DishBank::remove_obs: dimension mismatch");
        assert!(self.n[slot] > 0, "DishBank::remove_obs: no observations to remove");
        if crate::faults::hit(crate::faults::sites::CHOLESKY)
            == Some(crate::faults::Fault::CholeskyFail)
        {
            crate::divergence::poison("injected: Ψ downdate not SPD past the jitter ladder");
        }
        let kappa = self.kappa[slot];
        let kappa_new = kappa - 1.0;
        // New mean first: μ' = (κ μ − x) / κ'.
        {
            let mu = &self.mu[slot * d..(slot + 1) * d];
            for ((m_new, &m), &xi) in self.scratch_mu.iter_mut().zip(mu).zip(x) {
                *m_new = (kappa * m - xi) / kappa_new;
            }
        }
        // Downdate direction: sqrt(κ'/κ) (x − μ').
        let coef = (kappa_new / kappa).sqrt();
        for ((dst, &xi), &m_new) in self.scratch_dir.iter_mut().zip(x).zip(&self.scratch_mu) {
            *dst = xi - m_new;
        }
        vector::scale(coef, &mut self.scratch_dir);
        // The working vector is a copy so the direction survives a failed
        // downdate for the dense rescue below (as in the dense API, which
        // copies internally).
        self.scratch_w.copy_from_slice(&self.scratch_dir);
        let packed = &mut self.chol[slot * self.tri..(slot + 1) * self.tri];
        let psi_packed = &mut self.psi[slot * self.tri..(slot + 1) * self.tri];
        if packed_rank1_downdate(packed, d, &mut self.scratch_w).is_ok() {
            packed_syr(psi_packed, d, -1.0, &self.scratch_dir);
        } else {
            // Round-off rescue, operation-for-operation the legacy path:
            // re-enter the dense API on the (possibly partially downdated)
            // factor, form Ψ − dir dir', and refactor with the jitter ladder.
            let dense = Cholesky::from_factor(unpack_lower(packed, d));
            let mut psi = dense.reconstruct();
            psi.syr(-1.0, &self.scratch_dir);
            psi.symmetrize();
            match factor_spd_with_jitter(&psi) {
                Ok((chol, _)) => pack_lower(chol.factor_l(), packed),
                Err(_) => {
                    // Ψ' = Ψ − dir dir' is SPD in exact arithmetic, so only
                    // non-finite input can land here. Poison the divergence
                    // flag (the serving watchdog aborts the sweep and
                    // retries/degrades) and install a structurally valid
                    // stand-in factor so unwinding bookkeeping stays safe.
                    crate::divergence::poison("Ψ downdate not SPD past the jitter ladder");
                    packed.fill(0.0);
                    let mut off = 0;
                    for i in 0..d {
                        packed[off + i] = 1.0;
                        off += i + 1;
                    }
                }
            }
            // Whatever factor the rescue settled on is now the posterior;
            // re-derive the Ψ triangle from it so the block kernel and the
            // scoring kernels agree on the same repaired state.
            packed_psi_from_factor(packed, d, psi_packed);
        }
        self.mu[slot * d..(slot + 1) * d].copy_from_slice(&self.scratch_mu);
        self.kappa[slot] = kappa_new;
        self.nu[slot] -= 1.0;
        self.n[slot] -= 1;
        self.refresh_constants(slot);
    }

    /// Recompute the cached predictive constants of `slot` from its
    /// posterior state, with the exact operation sequence of the legacy
    /// per-evaluation derivation (see the module docs).
    fn refresh_constants(&mut self, slot: Slot) {
        let d = self.d;
        let dd = d as f64;
        // Legacy `Cholesky::log_det`: sum of diagonal lns (ascending, the
        // column-packed diagonals lead their columns), then × 2.
        let packed = &self.chol[slot * self.tri..(slot + 1) * self.tri];
        let mut ln_sum = 0.0;
        let mut off = 0;
        for j in 0..d {
            ln_sum += packed[off].ln();
            off += d - j;
        }
        let log_det_psi = ln_sum * 2.0;
        self.log_det_chol[slot] = log_det_psi;

        // The transcendentals depend only on (κ, ν), which walk the count
        // lattice — memoize them per count, validated against the exact
        // input bits so a hit is bit-identical to recomputation.
        let kappa = self.kappa[slot];
        let nu = self.nu[slot];
        let n = self.n[slot];
        if self.count_cache.len() <= n {
            self.count_cache.resize(n + 1, CountConstants::EMPTY);
        }
        let entry = &mut self.count_cache[n];
        if !entry.valid
            || entry.kappa_bits != kappa.to_bits()
            || entry.nu_bits != nu.to_bits()
        {
            let df = nu - dd + 1.0;
            let scale = (kappa + 1.0) / (kappa * df);
            let els = scale.ln();
            *entry = CountConstants {
                valid: true,
                kappa_bits: kappa.to_bits(),
                nu_bits: nu.to_bits(),
                g1: ln_gamma((df + dd) / 2.0),
                g2: ln_gamma(df / 2.0),
                ln_pi_df: (df * std::f64::consts::PI).ln(),
                els,
                exp_ls: els.exp(),
                ln_multigamma_nu: ln_multigamma(d, nu / 2.0),
            };
        }
        let consts = self.count_cache[n];

        let df = nu - dd + 1.0;
        let log_det = log_det_psi + dd * consts.els;
        self.df[slot] = df;
        self.half_df_dd[slot] = 0.5 * (df + dd);
        self.exp_ls[slot] = consts.exp_ls;
        self.base[slot] =
            consts.g1 - consts.g2 - 0.5 * dd * consts.ln_pi_df - 0.5 * log_det;
    }

    /// Grow the shared `ln Γ((ν₀ + idx − (d−1)) / 2)` lattice table to at
    /// least `len` entries. Entries are appended in index order, so the
    /// table contents are a pure function of `(ν₀, d, len)`.
    fn ensure_ln_gamma_nu(&mut self, len: usize) {
        while self.ln_gamma_nu.len() < len {
            let j = self.ln_gamma_nu.len() as f64 - (self.d as f64 - 1.0);
            self.ln_gamma_nu.push(ln_gamma((self.prior_nu + j) / 2.0));
        }
    }

    /// **Hot kernel 1 — one observation vs. all dishes** (the collective
    /// decision scoring pass). Appends to `out` one predictive log-density
    /// per entry of `slots`, in order. `scratch` is the caller's solve
    /// buffer of length `slots.len() × d` — one lane per dish — so repeated
    /// calls (one per seating decision) allocate nothing.
    ///
    /// The forward substitutions of all dishes advance **column by column
    /// together**: a triangular solve is a serial chain of divisions, but
    /// the chains of different dishes are independent, so interleaving them
    /// lets the CPU overlap their latency. Per dish the operation sequence
    /// is exactly [`osr_linalg::lanes::fused_solve_lower_cols`], so the
    /// result stays **bit-identical** to calling the legacy
    /// [`crate::NiwPosterior::predictive_logpdf`] on each slot's posterior.
    ///
    /// # Panics
    /// Panics when `x` does not have length `d` or `scratch` does not have
    /// length `slots.len() × d`.
    pub fn score_all(&self, slots: &[Slot], x: &[f64], scratch: &mut [f64], out: &mut Vec<f64>) {
        let d = self.d;
        assert_eq!(x.len(), d, "DishBank::score_all: dimension mismatch");
        assert_eq!(
            scratch.len(),
            slots.len() * d,
            "DishBank::score_all: scratch must hold slots.len() × d lanes"
        );
        out.reserve(slots.len());
        for (lane, &slot) in scratch.chunks_exact_mut(d).zip(slots) {
            let mu = &self.mu[slot * d..(slot + 1) * d];
            for ((yi, &xi), &mi) in lane.iter_mut().zip(x).zip(mu) {
                *yi = xi - mi;
            }
        }
        let mut off = 0;
        for j in 0..d {
            let mut lanes = scratch.chunks_exact_mut(d);
            for (lane, &slot) in lanes.by_ref().zip(slots) {
                let col = &self.chol[slot * self.tri + off..slot * self.tri + off + (d - j)];
                let (head, tail) = lane.split_at_mut(j + 1);
                let yj = head[j] / col[0];
                head[j] = yj;
                axpy4(-yj, &col[1..], tail);
            }
            off += d - j;
        }
        for (lane, &slot) in scratch.chunks_exact(d).zip(slots) {
            let maha = vector::dot(lane, lane) / self.exp_ls[slot];
            let df = self.df[slot];
            out.push(self.base[slot] - self.half_df_dd[slot] * (1.0 + maha / df).ln());
        }
        crate::counters::record_predictive_one_vs_all(slots.len() as u64);
    }

    /// Predictive log-density of `x` under the **base measure** (a dish that
    /// absorbed nothing) — bit-identical to
    /// [`crate::NiwPosterior::predictive_logpdf`] on a fresh prior
    /// posterior, evaluated from constants precomputed at construction.
    /// `scratch` is the caller's `d`-length solve buffer.
    ///
    /// # Panics
    /// Panics when `x` or `scratch` do not have length `d`.
    pub fn score_prior(&self, x: &[f64], scratch: &mut [f64]) -> f64 {
        assert_eq!(x.len(), self.d, "DishBank::score_prior: dimension mismatch");
        assert_eq!(scratch.len(), self.d, "DishBank::score_prior: scratch length mismatch");
        fused_solve_lower_cols(&self.prior_chol, x, &self.prior_mu, scratch);
        let maha = vector::dot(scratch, scratch) / self.prior_exp_ls;
        let lp = self.prior_base - self.prior_half_df_dd * (1.0 + maha / self.prior_df).ln();
        crate::counters::record_predictive_one_vs_all(1);
        lp
    }

    /// Reduce a block of observations to the dish-independent sufficient
    /// statistics `(m, x̄, S)` the batch-vs-one kernel consumes — plus, for
    /// blocks within the determinant-lemma rule (module docs), the Helmert
    /// columns of `S`. O(m·d²), paid **once per block** no matter how many
    /// candidate dishes are then scored against it. Reuses the buffers
    /// inside `stats` (growing them on first use).
    ///
    /// # Panics
    /// Panics when any point's dimension mismatches the bank's.
    pub fn compute_block_stats(&self, points: &[&[f64]], stats: &mut BlockStats) {
        let d = self.d;
        stats.m = points.len();
        stats.xbar.clear();
        stats.xbar.resize(d, 0.0);
        stats.scatter.clear();
        stats.scatter.resize(self.tri, 0.0);
        stats.dev.clear();
        stats.dev.resize(d, 0.0);
        stats.helmert_m = 0;
        if points.is_empty() {
            return;
        }
        for p in points {
            assert_eq!(p.len(), d, "DishBank::compute_block_stats: dimension mismatch");
            for (acc, &xi) in stats.xbar.iter_mut().zip(*p) {
                *acc += xi;
            }
        }
        let mf = points.len() as f64;
        for v in stats.xbar.iter_mut() {
            *v /= mf;
        }
        for p in points {
            for ((dev, &xi), &xb) in stats.dev.iter_mut().zip(*p).zip(&stats.xbar) {
                *dev = xi - xb;
            }
            packed_syr(&mut stats.scatter, d, 1.0, &stats.dev);
        }
        if points.len() <= self.lemma_m {
            let len = (points.len() - 1) * d;
            if stats.helmert.len() < len {
                stats.helmert.resize(len, 0.0);
            }
            fill_helmert(points, &mut stats.dev, &mut stats.helmert[..len]);
            stats.helmert_m = points.len();
        }
    }

    /// **Hot kernel 2 — a batch of observations vs. one dish**: the joint
    /// predictive of the block summarized by `stats` under the dish at
    /// `slot`, evaluated as a closed-form marginal-likelihood ratio (the
    /// determinant lemma on the slot's factor for small blocks, else one
    /// O(d³/3) Cholesky of the rank-m updated scale — see the module docs
    /// for the formula, the rule, and the numerics note). Leaves the slot
    /// untouched.
    ///
    /// Returns `-inf` (and poisons the divergence flag) when the updated
    /// scale fails to factor, which only non-finite posterior state can
    /// cause.
    pub fn block_predictive_stats(&mut self, slot: Slot, stats: &BlockStats) -> f64 {
        if stats.m == 0 {
            crate::counters::record_predictive_batch_vs_one(0);
            return 0.0;
        }
        let d = self.d;
        let n = self.n[slot];
        self.ensure_ln_gamma_nu(n + stats.m + d);
        let post = Posterior {
            psi: &self.psi[slot * self.tri..(slot + 1) * self.tri],
            chol: &self.chol[slot * self.tri..(slot + 1) * self.tri],
            mu: &self.mu[slot * d..(slot + 1) * d],
            kappa: self.kappa[slot],
            nu: self.nu[slot],
            n,
            log_det: self.log_det_chol[slot],
        };
        let lp = block_ratio(
            d,
            post,
            stats,
            &self.ln_gamma_nu,
            &mut self.scratch_dir,
            &mut self.scratch_a,
            &mut self.scratch_lw,
            &mut self.scratch_gram,
        );
        crate::counters::record_predictive_batch_vs_one(stats.m as u64);
        lp
    }

    /// The batch-vs-one kernel against the **base measure** (Eq. 8's
    /// new-dish factor `∏ p(x)`): identical to
    /// [`block_predictive_stats`](Self::block_predictive_stats) on a dish
    /// that absorbed nothing, without materializing one.
    pub fn block_predictive_prior(&mut self, stats: &BlockStats) -> f64 {
        if stats.m == 0 {
            crate::counters::record_predictive_batch_vs_one(0);
            return 0.0;
        }
        self.ensure_ln_gamma_nu(stats.m + self.d);
        let post = Posterior {
            psi: &self.prior_psi,
            chol: &self.prior_chol,
            mu: &self.prior_mu,
            kappa: self.prior_kappa,
            nu: self.prior_nu,
            n: 0,
            log_det: self.prior_log_det,
        };
        let lp = block_ratio(
            self.d,
            post,
            stats,
            &self.ln_gamma_nu,
            &mut self.scratch_dir,
            &mut self.scratch_a,
            &mut self.scratch_lw,
            &mut self.scratch_gram,
        );
        crate::counters::record_predictive_batch_vs_one(stats.m as u64);
        lp
    }

    /// Absorb a whole block into the dish at `slot` in **one rank-m step**:
    /// `Ψ ← Ψ + S + κₙm/(κₙ+m)·δδ'` followed by a single fresh O(d³/3)
    /// factorization, instead of `m` rank-1 Givens walks. O(d³/3 + d²)
    /// given precomputed [`BlockStats`] — the engine's table-dish move
    /// computes them once and shares them between scoring and state update.
    ///
    /// Falls back to per-point [`add_obs`](Self::add_obs) (which carries the
    /// full rescue machinery) when the updated scale fails to factor, which
    /// only non-finite state can cause; `points` must be the block `stats`
    /// was computed from.
    pub fn attach_block(&mut self, slot: Slot, stats: &BlockStats, points: &[&[f64]]) {
        if stats.m == 0 {
            return;
        }
        let d = self.d;
        let mf = stats.m as f64;
        let kappa = self.kappa[slot];
        let kappa_new = kappa + mf;
        {
            let mu = &self.mu[slot * d..(slot + 1) * d];
            for ((dst, &xb), &m) in self.scratch_dir.iter_mut().zip(&stats.xbar).zip(mu) {
                *dst = xb - m;
            }
        }
        let c = kappa * mf / kappa_new;
        build_rank_m_scale(
            d,
            &self.psi[slot * self.tri..(slot + 1) * self.tri],
            &stats.scatter,
            1.0,
            c,
            &self.scratch_dir,
            &mut self.scratch_a,
        );
        self.scratch_f.copy_from_slice(&self.scratch_a);
        if packed_cholesky_log_det(&mut self.scratch_f, d).is_none() {
            for p in points {
                self.add_obs(slot, p);
            }
            return;
        }
        self.psi[slot * self.tri..(slot + 1) * self.tri].copy_from_slice(&self.scratch_a);
        self.chol[slot * self.tri..(slot + 1) * self.tri].copy_from_slice(&self.scratch_f);
        let mu = &mut self.mu[slot * d..(slot + 1) * d];
        for (m, &xb) in mu.iter_mut().zip(&stats.xbar) {
            *m = (kappa * *m + mf * xb) / kappa_new;
        }
        self.kappa[slot] = kappa_new;
        self.nu[slot] += mf;
        self.n[slot] += stats.m;
        self.refresh_constants(slot);
    }

    /// Remove a whole previously absorbed block from the dish at `slot` in
    /// one rank-m step — the exact inverse of
    /// [`attach_block`](Self::attach_block): recover `μₙ`, subtract
    /// `S + κₙm/(κₙ+m)·δδ'` from Ψ, refactor once. Falls back to per-point
    /// [`remove_obs`](Self::remove_obs) (jitter rescue, divergence poison)
    /// when the downdated scale is not SPD.
    ///
    /// # Panics
    /// Panics when the slot holds fewer than `stats.m` observations.
    pub fn detach_block(&mut self, slot: Slot, stats: &BlockStats, points: &[&[f64]]) {
        if stats.m == 0 {
            return;
        }
        assert!(
            self.n[slot] >= stats.m,
            "DishBank::detach_block: removing more observations than absorbed"
        );
        let d = self.d;
        let mf = stats.m as f64;
        let kappa = self.kappa[slot];
        let kappa_new = kappa - mf;
        // Pre-block mean μₙ, then δ = x̄ − μₙ against it.
        {
            let mu = &self.mu[slot * d..(slot + 1) * d];
            for ((m_old, &m), &xb) in self.scratch_mu.iter_mut().zip(mu).zip(&stats.xbar) {
                *m_old = (kappa * m - mf * xb) / kappa_new;
            }
        }
        for ((dst, &xb), &m_old) in self.scratch_dir.iter_mut().zip(&stats.xbar).zip(&self.scratch_mu)
        {
            *dst = xb - m_old;
        }
        let c = kappa_new * mf / kappa;
        build_rank_m_scale(
            d,
            &self.psi[slot * self.tri..(slot + 1) * self.tri],
            &stats.scatter,
            -1.0,
            -c,
            &self.scratch_dir,
            &mut self.scratch_a,
        );
        self.scratch_f.copy_from_slice(&self.scratch_a);
        if packed_cholesky_log_det(&mut self.scratch_f, d).is_none() {
            // Round-off (or hostile input) pushed the downdate outside SPD:
            // take the per-point path, which rescues or poisons per policy.
            for p in points {
                self.remove_obs(slot, p);
            }
            return;
        }
        self.psi[slot * self.tri..(slot + 1) * self.tri].copy_from_slice(&self.scratch_a);
        self.chol[slot * self.tri..(slot + 1) * self.tri].copy_from_slice(&self.scratch_f);
        self.mu[slot * d..(slot + 1) * d].copy_from_slice(&self.scratch_mu);
        self.kappa[slot] = kappa_new;
        self.nu[slot] -= mf;
        self.n[slot] -= stats.m;
        self.refresh_constants(slot);
    }

    /// Convenience wrapper chaining
    /// [`compute_block_stats`](Self::compute_block_stats) into
    /// [`block_predictive_stats`](Self::block_predictive_stats) for a
    /// single `(block, dish)` pair, running on bank-owned stats scratch.
    /// Callers scoring one block against many dishes should compute the
    /// stats once themselves instead.
    pub fn block_predictive(&mut self, slot: Slot, points: &[&[f64]]) -> f64 {
        let mut stats = std::mem::take(&mut self.scratch_stats);
        self.compute_block_stats(points, &mut stats);
        let lp = self.block_predictive_stats(slot, &stats);
        self.scratch_stats = stats;
        lp
    }

    /// Predictive log-density of `x` under the single dish at `slot`
    /// (allocating convenience wrapper over the one-vs-all kernel, for
    /// accessors and audits off the hot path).
    pub fn predictive_one(&self, slot: Slot, x: &[f64]) -> f64 {
        let mut scratch = vec![0.0; self.d];
        let mut out = Vec::with_capacity(1);
        self.score_all(&[slot], x, &mut scratch, &mut out);
        out[0]
    }

    /// Closed-form log marginal likelihood of the `n` points absorbed by
    /// `slot` under the bank's prior — the banked
    /// [`crate::NiwPosterior::log_marginal`], bit for bit. The prior terms
    /// are cached at construction and `ln Γ_d(νₙ/2)` in the count lattice
    /// (recomputed when the entry's ν bits are not the slot's), so the
    /// operation order, and with it every bit, is the legacy one.
    pub fn log_marginal(&self, slot: Slot) -> f64 {
        let d = self.d;
        let dd = d as f64;
        let nu = self.nu[slot];
        let ln_multigamma_nu = match self.count_cache.get(self.n[slot]) {
            Some(e) if e.valid && e.nu_bits == nu.to_bits() => e.ln_multigamma_nu,
            _ => ln_multigamma(d, nu / 2.0),
        };
        let n = self.n[slot] as f64;
        -(n * dd / 2.0) * std::f64::consts::PI.ln()
            + ln_multigamma_nu
            - self.prior_ln_multigamma
            + self.prior_half_nu_log_det
            - (nu / 2.0) * self.log_det_chol[slot]
            + (dd / 2.0) * (self.prior_ln_kappa - self.kappa[slot].ln())
    }
}

/// The posterior a block is scored against: a live slot or the prior
/// template. `psi`/`chol` are column-packed triangles of Ψₙ and its
/// maintained factor, and `log_det` is `ln |Ψₙ|` of that factor.
struct Posterior<'a> {
    psi: &'a [f64],
    chol: &'a [f64],
    mu: &'a [f64],
    kappa: f64,
    nu: f64,
    n: usize,
    log_det: f64,
}

/// The marginal-likelihood-ratio block predictive (module docs formula) of
/// the block `stats` under `post`. `ln |Ψ_{n+m}|` comes from the
/// determinant lemma on the maintained factor when `stats` carries Helmert
/// columns for its size, else from a fresh factorization. `delta` and `a`
/// are `d`- and `tri`-length scratch, `w` and `gram` the lemma's (sized for
/// the bank's largest lemma block); `lngamma` is the ν-lattice table
/// (offset `d−1`), already grown to cover `n + m + d` entries.
#[allow(clippy::too_many_arguments)]
fn block_ratio(
    d: usize,
    post: Posterior<'_>,
    stats: &BlockStats,
    lngamma: &[f64],
    delta: &mut [f64],
    a: &mut [f64],
    w: &mut [f64],
    gram: &mut [f64],
) -> f64 {
    let dd = d as f64;
    let m = stats.m;
    let mf = m as f64;
    let kappa_n = post.kappa;
    let nu_n = post.nu;
    for ((dst, &xb), &mu) in delta.iter_mut().zip(&stats.xbar).zip(post.mu) {
        *dst = xb - mu;
    }
    let c = kappa_n * mf / (kappa_n + mf);
    let log_det_a = if stats.helmert_m == m {
        // ln |Ψₙ + UU'| with U = [√c·δ, h₁ … h_{m−1}]: UU' = c δδ' + S.
        let helmert = &stats.helmert[..(m - 1) * d];
        lowrank_log_det(d, post.chol, post.log_det, c, delta, helmert, w, gram)
    } else {
        // Ψ_{n+m} = Ψₙ + S + c δδ' (column-packed lower triangle).
        build_rank_m_scale(d, post.psi, &stats.scatter, 1.0, c, delta, a);
        packed_cholesky_log_det(a, d)
    };
    let Some(log_det_a) = log_det_a else {
        crate::divergence::poison("block predictive: rank-m updated scale not SPD");
        return f64::NEG_INFINITY;
    };
    // ln Γ_d(ν_{n+m}/2) − ln Γ_d(ν_n/2): the multivariate gammas share all
    // but m terms on each side of the ν lattice, so the difference is 2m
    // table reads (ascending, fixed accumulation order).
    let off_t = d - 1;
    let n = post.n;
    let mut g_top = 0.0;
    let mut g_bot = 0.0;
    for j in (n + 1)..=(n + m) {
        g_top += lngamma[j + off_t];
        g_bot += lngamma[j - 1];
    }
    -(mf * dd / 2.0) * std::f64::consts::PI.ln()
        + (g_top - g_bot)
        + 0.5 * nu_n * post.log_det
        - 0.5 * (nu_n + mf) * log_det_a
        + 0.5 * dd * (kappa_n.ln() - (kappa_n + mf).ln())
}

/// `ln |Ψₙ + UU'|` for `U = [√c·δ, h₁ … h_{m−1}]` (`helmert` holds the
/// `m − 1` columns `h_k` as contiguous `d`-lanes) by the matrix determinant
/// lemma on the maintained factor `Lₙ` (`ln |Ψₙ| = log_det_n`):
///
/// ```text
/// ln |Ψₙ + UU'| = ln |Ψₙ| + ln |I_m + W'W|,   W = Lₙ⁻¹ U
/// ```
///
/// The `m` forward solves advance column by column together (the
/// interleaving of [`DishBank::score_all`]), then the packed `m × m` Gram
/// goes through the same Cholesky as the fresh path: O(m·d²/2 + m²·d/2 +
/// m³/6) instead of O(d³/6). `w` needs `m × d` entries and `gram`
/// `m(m+1)/2`. `None` when the Gram fails to factor or the sum is not
/// finite, which only non-finite factor state can cause.
#[allow(clippy::too_many_arguments)]
fn lowrank_log_det(
    d: usize,
    chol: &[f64],
    log_det_n: f64,
    c: f64,
    delta: &[f64],
    helmert: &[f64],
    w: &mut [f64],
    gram: &mut [f64],
) -> Option<f64> {
    let m = helmert.len() / d + 1;
    let w = &mut w[..m * d];
    let (first, rest) = w.split_at_mut(d);
    let sqrt_c = c.sqrt();
    for (dst, &v) in first.iter_mut().zip(delta) {
        *dst = sqrt_c * v;
    }
    rest.copy_from_slice(helmert);
    let mut off = 0;
    for j in 0..d {
        let col = &chol[off..off + (d - j)];
        // The reciprocal keeps the division off each lane's serial chain.
        let inv = 1.0 / col[0];
        for lane in w.chunks_exact_mut(d) {
            let (head, tail) = lane.split_at_mut(j + 1);
            let yj = head[j] * inv;
            head[j] = yj;
            axpy4(-yj, &col[1..], tail);
        }
        off += d - j;
    }
    // I + W'W, column-packed lower triangle.
    let gram = &mut gram[..m * (m + 1) / 2];
    let mut g = 0;
    for p in 0..m {
        let wp = &w[p * d..(p + 1) * d];
        gram[g] = 1.0 + vector::dot(wp, wp);
        for q in p + 1..m {
            gram[g + q - p] = vector::dot(&w[q * d..(q + 1) * d], wp);
        }
        g += m - p;
    }
    let log_det = log_det_n + packed_cholesky_log_det(gram, m)?;
    log_det.is_finite().then_some(log_det)
}

/// Write the Helmert columns of a block,
/// `h_k = √(k/(k+1))·(mean(x₁..x_k) − x_{k+1})` for `k = 1..m−1`, as `m − 1`
/// contiguous `d`-lanes into `out`. Each is one step of Welford's scatter
/// update, so their outer products sum to the centered scatter `S`. `mean`
/// is `d`-length running-mean scratch.
fn fill_helmert(points: &[&[f64]], mean: &mut [f64], out: &mut [f64]) {
    let Some((first, rest)) = points.split_first() else {
        return;
    };
    mean.copy_from_slice(first);
    for (k, (p, h)) in rest.iter().zip(out.chunks_exact_mut(mean.len())).enumerate() {
        let k1 = (k + 1) as f64;
        let scale = (k1 / (k1 + 1.0)).sqrt();
        for ((hi, mi), &xi) in h.iter_mut().zip(mean.iter_mut()).zip(*p) {
            let diff = *mi - xi;
            *hi = scale * diff;
            *mi -= diff / (k1 + 1.0);
        }
    }
}

/// Build the rank-m-updated scale `A = Ψ + sign·S + c·δδ'` into `a`
/// (column-packed lower triangles throughout). `sign` is `±1.0` and `c`
/// carries its own sign, so the same loop serves attach (+) and detach (−).
fn build_rank_m_scale(
    d: usize,
    psi: &[f64],
    scatter: &[f64],
    sign: f64,
    c: f64,
    delta: &[f64],
    a: &mut [f64],
) {
    let mut off = 0;
    for j in 0..d {
        let cdj = c * delta[j];
        let (pj, sj) = (&psi[off..off + (d - j)], &scatter[off..off + (d - j)]);
        let out = &mut a[off..off + (d - j)];
        for (i, o) in out.iter_mut().enumerate() {
            *o = pj[i] + sign * sj[i] + cdj * delta[j + i];
        }
        off += d - j;
    }
}

/// In-place left-looking Cholesky of a column-packed SPD lower triangle;
/// returns `ln |A|` (2 × the ascending sum of diagonal lns) or `None` when a
/// pivot is non-positive or non-finite. O(d³/3); the per-column inner axpy
/// runs on contiguous column tails.
fn packed_cholesky_log_det(a: &mut [f64], d: usize) -> Option<f64> {
    let mut off_j = 0;
    for j in 0..d {
        let mut off_k = 0;
        for k in 0..j {
            let ljk = a[off_k + (j - k)];
            let (head, tail) = a.split_at_mut(off_j);
            let colk = &head[off_k + (j - k)..off_k + (d - k)];
            let colj = &mut tail[..d - j];
            axpy4(-ljk, colk, colj);
            off_k += d - k;
        }
        let diag = a[off_j];
        if !(diag > 0.0) || !diag.is_finite() {
            return None;
        }
        let l = diag.sqrt();
        a[off_j] = l;
        for v in a[off_j + 1..off_j + (d - j)].iter_mut() {
            *v /= l;
        }
        off_j += d - j;
    }
    let mut ln_sum = 0.0;
    let mut off = 0;
    for j in 0..d {
        ln_sum += a[off].ln();
        off += d - j;
    }
    Some(ln_sum * 2.0)
}

/// Symmetric rank-1 update `A ← A + α w w'` of a column-packed lower
/// triangle. Each column's segment is contiguous, so the inner loop is the
/// elementwise [`osr_linalg::lanes::axpy4`].
fn packed_syr(packed: &mut [f64], d: usize, alpha: f64, w: &[f64]) {
    let mut off = 0;
    for j in 0..d {
        let aw = alpha * w[j];
        axpy4(aw, &w[j..], &mut packed[off..off + (d - j)]);
        off += d - j;
    }
}

/// Recompute the column-packed lower triangle of `Ψ = L L'` from a
/// column-packed factor (used after a downdate rescue replaced the factor
/// wholesale).
fn packed_psi_from_factor(l: &[f64], d: usize, psi: &mut [f64]) {
    // Ψ[i,j] = Σ_{k ≤ j} L[i,k] · L[j,k] for i ≥ j.
    let mut off_j = 0;
    for j in 0..d {
        for i in j..d {
            let mut acc = 0.0;
            let mut off_k = 0;
            for k in 0..=j {
                acc += l[off_k + (i - k)] * l[off_k + (j - k)];
                off_k += d - k;
            }
            psi[off_j + (i - j)] = acc;
        }
        off_j += d - j;
    }
}

/// Rank-1 update `A ← A + w w'` of a column-packed lower Cholesky factor,
/// the Givens recurrence of `Cholesky::update` on column storage (`w` is
/// consumed). Each column's below-diagonal tail is contiguous, so the
/// per-element work runs through the vectorizable
/// [`osr_linalg::lanes::givens_update_col`] lane helper.
fn packed_rank1_update(packed: &mut [f64], d: usize, w: &mut [f64]) {
    let mut off = 0;
    for j in 0..d {
        let col = &mut packed[off..off + (d - j)];
        let ljj = col[0];
        let wj = w[j];
        let r = (ljj * ljj + wj * wj).sqrt();
        let c = r / ljj;
        let s = wj / ljj;
        col[0] = r;
        givens_update_col(&mut col[1..], &mut w[j + 1..], c, s);
        off += d - j;
    }
}

/// Rank-1 downdate `A ← A − w w'`; fails (leaving the factor partially
/// mutated, exactly like the dense implementation) when the result would
/// not be SPD.
fn packed_rank1_downdate(packed: &mut [f64], d: usize, w: &mut [f64]) -> Result<(), ()> {
    let mut off = 0;
    for j in 0..d {
        let col = &mut packed[off..off + (d - j)];
        let ljj = col[0];
        let wj = w[j];
        let dsq = ljj * ljj - wj * wj;
        if !(dsq > 0.0) || !dsq.is_finite() {
            return Err(());
        }
        let r = dsq.sqrt();
        let c = r / ljj;
        let s = wj / ljj;
        col[0] = r;
        givens_downdate_col(&mut col[1..], &mut w[j + 1..], c, s);
        off += d - j;
    }
    Ok(())
}

/// Expand a column-packed lower factor to a dense `Matrix` (zeros above the
/// diagonal).
fn unpack_lower(packed: &[f64], d: usize) -> Matrix {
    let mut l = Matrix::zeros(d, d);
    let mut off = 0;
    for j in 0..d {
        for i in j..d {
            l[(i, j)] = packed[off + (i - j)];
        }
        off += d - j;
    }
    l
}

/// Pack a dense lower-triangular factor into `packed`.
fn pack_lower(l: &Matrix, packed: &mut [f64]) {
    let d = l.rows();
    let mut off = 0;
    for j in 0..d {
        for i in j..d {
            packed[off + (i - j)] = l[(i, j)];
        }
        off += d - j;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NiwPosterior;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params2() -> NiwParams {
        NiwParams::new(
            vec![0.0, 0.0],
            1.0,
            4.0,
            Matrix::from_rows(&[vec![1.0, 0.2], vec![0.2, 1.5]]),
        )
        .unwrap()
    }

    fn pts() -> Vec<Vec<f64>> {
        vec![
            vec![0.5, -0.3],
            vec![1.2, 0.8],
            vec![-0.7, 0.1],
            vec![0.3, 1.9],
            vec![-1.5, -0.9],
        ]
    }

    #[test]
    fn bank_codec_roundtrip_is_bit_identical_and_normalizes_dead_slots() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let data = pts();
        // Three slots: slot 0 with 2 points, slot 1 released (dead, stale
        // contents), slot 2 with 3 points. The free-list holds slot 1.
        let s0 = bank.alloc();
        let s1 = bank.alloc();
        let s2 = bank.alloc();
        bank.add_obs(s0, &data[0]);
        bank.add_obs(s0, &data[1]);
        bank.add_obs(s1, &data[2]);
        bank.release(s1);
        for x in &data[2..] {
            bank.add_obs(s2, x);
        }

        let mut enc = crate::snapshot::Enc::new();
        bank.encode_into(&[s0, s2], &mut enc);
        let bytes = enc.into_bytes();

        let mut dec = crate::snapshot::Dec::new(&bytes);
        let mut bank2 = DishBank::decode_from(&mut dec, &p, &[2, 3]).unwrap();
        dec.finish("bank").unwrap();

        // The dead slot is gone: the two live dishes sit in slots 0 and 1.
        assert_eq!(bank2.n_slots(), 2);
        assert_eq!(bank2.n_live(), 2);
        assert_eq!((bank2.count(0), bank2.count(1)), (2, 3));
        // Predictives over the compacted bank are bit-identical.
        let probe = [0.4, -0.2];
        for (slot, slot2) in [(s0, 0), (s2, 1)] {
            assert_eq!(
                bank.predictive_one(slot, &probe).to_bits(),
                bank2.predictive_one(slot2, &probe).to_bits()
            );
            assert_eq!(bank.log_marginal(slot).to_bits(), bank2.log_marginal(slot2).to_bits());
        }
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        assert_eq!(
            bank.block_predictive(s0, &refs).to_bits(),
            bank2.block_predictive(0, &refs).to_bits()
        );

        // Re-encode is byte-identical even though the source bank carried
        // a dead slot with stale bits.
        let mut enc2 = crate::snapshot::Enc::new();
        bank2.encode_into(&[0, 1], &mut enc2);
        assert_eq!(bytes, enc2.into_bytes());

        // A dish nucleated after the load starts from the prior in either
        // bank, whichever slot it lands in.
        let (fresh, fresh2) = (bank.alloc(), bank2.alloc());
        assert_eq!((fresh, fresh2), (s1, 2));
        assert_eq!(
            bank.predictive_one(fresh, &probe).to_bits(),
            bank2.predictive_one(fresh2, &probe).to_bits()
        );
    }

    #[test]
    fn bank_codec_rejects_out_of_domain_state_and_truncation() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let s = bank.alloc();
        bank.add_obs(s, &pts()[0]);
        let mut enc = crate::snapshot::Enc::new();
        bank.encode_into(&[s], &mut enc);
        let bytes = enc.into_bytes();
        let decode = |bytes: &[u8], counts: &[usize]| {
            DishBank::decode_from(&mut crate::snapshot::Dec::new(bytes), &p, counts)
        };
        assert!(decode(&bytes, &[1]).is_ok());

        // A count the payload cannot back is a truncation, read before any
        // per-dish allocation.
        assert!(matches!(
            decode(&bytes, &[1, 1]),
            Err(crate::snapshot::SnapshotError::Truncated { .. })
        ));
        // A non-positive κ is rejected, not trusted.
        let mut tampered = bytes.clone();
        tampered[..8].copy_from_slice(&(-1.0f64).to_bits().to_le_bytes());
        assert!(matches!(
            decode(&tampered, &[1]),
            Err(crate::snapshot::SnapshotError::Malformed(_))
        ));
        // So is a factor diagonal the predictive constants cannot take the
        // log of (the first factor entry follows κ, ν and μ).
        let mut tampered = bytes.clone();
        let off = 8 * (2 + 2);
        tampered[off..off + 8].copy_from_slice(&0.0f64.to_bits().to_le_bytes());
        assert!(matches!(
            decode(&tampered, &[1]),
            Err(crate::snapshot::SnapshotError::Malformed(_))
        ));
    }

    #[test]
    fn fresh_slot_scores_bit_identically_to_the_prior_posterior() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        let legacy = NiwPosterior::from_prior(&p);
        for x in pts() {
            assert_eq!(
                bank.predictive_one(slot, &x).to_bits(),
                legacy.predictive_logpdf(&x).to_bits()
            );
        }
    }

    #[test]
    fn score_prior_is_bit_identical_to_the_legacy_prior_predictive() {
        let p = params2();
        let bank = DishBank::new(&p);
        let legacy = NiwPosterior::from_prior(&p);
        let mut scratch = vec![0.0; 2];
        for x in pts() {
            assert_eq!(
                bank.score_prior(&x, &mut scratch).to_bits(),
                legacy.predictive_logpdf(&x).to_bits()
            );
        }
    }

    #[test]
    fn add_remove_tracks_legacy_bit_for_bit() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        let mut legacy = NiwPosterior::from_prior(&p);
        let data = pts();
        for x in &data {
            bank.add_obs(slot, x);
            legacy.add(x);
        }
        let probe = [0.4, -0.2];
        assert_eq!(
            bank.predictive_one(slot, &probe).to_bits(),
            legacy.predictive_logpdf(&probe).to_bits()
        );
        assert_eq!(bank.log_marginal(slot).to_bits(), legacy.log_marginal(&p).to_bits());
        for (a, b) in bank.mean(slot).iter().zip(legacy.mean()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        for x in data.iter().rev() {
            bank.remove_obs(slot, x);
            legacy.remove(x);
        }
        assert_eq!(bank.count(slot), 0);
        assert_eq!(
            bank.predictive_one(slot, &probe).to_bits(),
            legacy.predictive_logpdf(&probe).to_bits()
        );
    }

    #[test]
    fn log_marginal_recomputes_when_the_count_entry_is_another_slots() {
        // Two slots at one count share a lattice entry. When their ν bits
        // differ (a decoded snapshot may carry any finite ν), the entry
        // holds the last refreshed slot's constants and the other slot's
        // log marginal must not read them.
        let p = params2();
        let mut bank = DishBank::new(&p);
        let (a, b) = (bank.alloc(), bank.alloc());
        let mut legacy = NiwPosterior::from_prior(&p);
        for x in &pts()[..3] {
            bank.add_obs(a, x);
            bank.add_obs(b, x);
            legacy.add(x);
        }
        bank.nu[b] += 0.5;
        bank.refresh_constants(b);
        assert_eq!(bank.log_marginal(a).to_bits(), legacy.log_marginal(&p).to_bits());
    }

    #[test]
    fn block_predictive_matches_the_chain_rule_closely_and_preserves_state() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        let mut legacy = NiwPosterior::from_prior(&p);
        bank.add_obs(slot, &[3.0, 3.0]);
        legacy.add(&[3.0, 3.0]);
        let data = pts();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let banked = bank.block_predictive(slot, &refs);
        // The chain rule runs on a clone: its unwind is not bit-exact, while
        // the ratio kernel leaves the bank untouched by construction.
        let chain = legacy.clone().block_predictive_logpdf(&refs);
        // Same quantity, different factorization of the arithmetic: the
        // telescoped marginal ratio agrees with the chain rule to rounding.
        assert!(
            (banked - chain).abs() <= 1e-9 * chain.abs().max(1.0),
            "ratio {banked} vs chain {chain}"
        );
        assert_eq!(bank.count(slot), 1);
        let probe = [0.1, 0.9];
        assert_eq!(
            bank.predictive_one(slot, &probe).to_bits(),
            legacy.predictive_logpdf(&probe).to_bits()
        );
    }

    #[test]
    fn block_predictive_is_deterministic_and_shared_stats_match_the_wrapper() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        bank.add_obs(slot, &[0.5, -0.5]);
        let data = pts();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let a = bank.block_predictive(slot, &refs);
        let b = bank.block_predictive(slot, &refs);
        assert_eq!(a.to_bits(), b.to_bits(), "block kernel must be deterministic");
        let mut stats = BlockStats::new(2);
        bank.compute_block_stats(&refs, &mut stats);
        let c = bank.block_predictive_stats(slot, &stats);
        assert_eq!(a.to_bits(), c.to_bits(), "wrapper and shared-stats paths must agree");
    }

    #[test]
    fn block_predictive_prior_matches_a_fresh_slot_bit_for_bit() {
        // Every prefix of the block, so both the determinant-lemma path
        // (up to 1 point at d = 2, 4 at d = 16) and the fresh path run.
        let wide = gaussian_points(&mut StdRng::seed_from_u64(5), 5, 16, -0.5);
        for (p, data) in [(params2(), pts()), (params_d(16), wide)] {
            let d = p.dim();
            let mut bank = DishBank::new(&p);
            let slot = bank.alloc();
            for m in 1..=data.len() {
                let refs: Vec<&[f64]> = data[..m].iter().map(Vec::as_slice).collect();
                let mut stats = BlockStats::new(d);
                bank.compute_block_stats(&refs, &mut stats);
                let prior = bank.block_predictive_prior(&stats);
                let fresh = bank.block_predictive_stats(slot, &stats);
                assert_eq!(prior.to_bits(), fresh.to_bits(), "d = {d}, m = {m}");
            }
        }
    }

    #[test]
    fn attach_block_matches_sequential_adds_closely() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let fast = bank.alloc();
        let slow = bank.alloc();
        bank.add_obs(fast, &[0.4, -0.6]);
        bank.add_obs(slow, &[0.4, -0.6]);
        let data = pts();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let mut stats = BlockStats::new(2);
        bank.compute_block_stats(&refs, &mut stats);
        bank.attach_block(fast, &stats, &refs);
        for x in &data {
            bank.add_obs(slow, x);
        }
        assert_eq!(bank.count(fast), bank.count(slow));
        let probe = [0.7, -0.1];
        let (a, b) = (bank.predictive_one(fast, &probe), bank.predictive_one(slow, &probe));
        assert!((a - b).abs() <= 1e-9 * b.abs().max(1.0), "rank-m {a} vs sequential {b}");
        for (x, y) in bank.mean(fast).iter().zip(bank.mean(slow)) {
            assert!((x - y).abs() <= 1e-12, "means diverged: {x} vs {y}");
        }
    }

    #[test]
    fn detach_block_inverts_attach_block_closely() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        bank.add_obs(slot, &[1.0, -1.0]);
        bank.add_obs(slot, &[-0.5, 0.25]);
        let before = bank.predictive_one(slot, &[0.2, 0.2]);
        let data = pts();
        let refs: Vec<&[f64]> = data.iter().map(Vec::as_slice).collect();
        let mut stats = BlockStats::new(2);
        bank.compute_block_stats(&refs, &mut stats);
        bank.attach_block(slot, &stats, &refs);
        bank.detach_block(slot, &stats, &refs);
        assert_eq!(bank.count(slot), 2);
        let after = bank.predictive_one(slot, &[0.2, 0.2]);
        assert!(
            (before - after).abs() <= 1e-9 * before.abs().max(1.0),
            "attach/detach round trip drifted: {before} vs {after}"
        );
    }

    #[test]
    fn detach_block_falls_back_per_point_when_downdate_leaves_spd() {
        // Detaching a block that was never attached can push Ψ outside SPD;
        // the fallback must land on the same state as per-point removal
        // (bit-for-bit, since it *is* the per-point path).
        let p = params2();
        let mut bank = DishBank::new(&p);
        let fast = bank.alloc();
        let slow = bank.alloc();
        for s in [fast, slow] {
            bank.add_obs(s, &[0.1, 0.1]);
            bank.add_obs(s, &[-0.1, 0.2]);
        }
        let foreign = [[35.0_f64, -30.0], [28.0, 33.0]];
        let refs: Vec<&[f64]> = foreign.iter().map(|x| x.as_slice()).collect();
        let mut stats = BlockStats::new(2);
        bank.compute_block_stats(&refs, &mut stats);
        bank.detach_block(fast, &stats, &refs);
        for x in &refs {
            bank.remove_obs(slow, x);
        }
        let _ = crate::divergence::take();
        let probe = [0.3, -0.3];
        assert_eq!(
            bank.predictive_one(fast, &probe).to_bits(),
            bank.predictive_one(slow, &probe).to_bits()
        );
    }

    #[test]
    fn empty_block_scores_zero() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        assert_eq!(bank.block_predictive(slot, &[]), 0.0);
        let stats = BlockStats::new(2);
        assert_eq!(bank.block_predictive_prior(&stats), 0.0);
    }

    #[test]
    fn score_all_orders_outputs_by_slot_argument() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let a = bank.alloc();
        let b = bank.alloc();
        bank.add_obs(b, &[2.0, 2.0]);
        let x = [0.5, 0.5];
        let mut scratch = vec![0.0; 4];
        let mut out = Vec::new();
        bank.score_all(&[a, b], &x, &mut scratch, &mut out);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].to_bits(), bank.predictive_one(a, &x).to_bits());
        assert_eq!(out[1].to_bits(), bank.predictive_one(b, &x).to_bits());
    }

    #[test]
    fn free_list_reuses_slots_and_reset_is_complete() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let a = bank.alloc();
        for x in pts() {
            bank.add_obs(a, &x);
        }
        let x = [0.3, 0.3];
        let fresh_score = {
            let b = bank.alloc();
            let s = bank.predictive_one(b, &x);
            bank.release(b);
            s
        };
        bank.release(a);
        let reused = bank.alloc();
        assert_eq!(reused, a, "free-list should hand back the last released slot");
        assert_eq!(bank.count(reused), 0);
        assert_eq!(
            bank.predictive_one(reused, &x).to_bits(),
            fresh_score.to_bits(),
            "a reused slot must be indistinguishable from a fresh prior slot"
        );
    }

    #[test]
    #[should_panic(expected = "no observations to remove")]
    fn remove_from_empty_slot_panics() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        bank.remove_obs(slot, &[0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "not live")]
    fn double_release_panics() {
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        bank.release(slot);
        bank.release(slot);
    }

    #[test]
    fn downdate_rescue_path_matches_legacy_bit_for_bit() {
        // Removing a point that was never added drives the factor outside
        // SPD and exercises the dense rescue; legacy and bank must agree on
        // the repaired state (same reconstruct/syr/jitter sequence).
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        let mut legacy = NiwPosterior::from_prior(&p);
        bank.add_obs(slot, &[0.1, 0.1]);
        legacy.add(&[0.1, 0.1]);
        let foreign = [40.0, -35.0];
        bank.remove_obs(slot, &foreign);
        legacy.remove(&foreign);
        let probe = [0.2, -0.2];
        assert_eq!(
            bank.predictive_one(slot, &probe).to_bits(),
            legacy.predictive_logpdf(&probe).to_bits()
        );
    }

    /// A `d`-dimensional prior with a correlated (tridiagonal) scale.
    fn params_d(d: usize) -> NiwParams {
        let mut psi0 = Matrix::scaled_identity(d, 2.0);
        for i in 1..d {
            psi0[(i, i - 1)] = 0.3;
            psi0[(i - 1, i)] = 0.3;
        }
        NiwParams::new(vec![0.1; d], 0.5, d as f64 + 2.0, psi0).unwrap()
    }

    fn gaussian_points(rng: &mut StdRng, n: usize, d: usize, shift: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| (0..d).map(|_| shift + crate::sampling::standard_normal(rng)).collect())
            .collect()
    }

    /// Score `stats` under `slot` (or the prior) through `block_ratio` on
    /// test-owned scratch large enough for any block, so the lemma path can
    /// run past the bank's own rule.
    fn ratio_on(bank: &mut DishBank, slot: Option<Slot>, stats: &BlockStats) -> f64 {
        let (d, tri, m) = (bank.d, bank.tri, stats.m);
        let n = slot.map_or(0, |s| bank.n[s]);
        bank.ensure_ln_gamma_nu(n + m + d);
        let post = match slot {
            Some(s) => Posterior {
                psi: &bank.psi[s * tri..(s + 1) * tri],
                chol: &bank.chol[s * tri..(s + 1) * tri],
                mu: &bank.mu[s * d..(s + 1) * d],
                kappa: bank.kappa[s],
                nu: bank.nu[s],
                n,
                log_det: bank.log_det_chol[s],
            },
            None => Posterior {
                psi: &bank.prior_psi,
                chol: &bank.prior_chol,
                mu: &bank.prior_mu,
                kappa: bank.prior_kappa,
                nu: bank.prior_nu,
                n: 0,
                log_det: bank.prior_log_det,
            },
        };
        let (mut delta, mut a) = (vec![0.0; d], vec![0.0; tri]);
        let (mut w, mut gram) = (vec![0.0; m * d], vec![0.0; m * (m + 1) / 2]);
        block_ratio(d, post, stats, &bank.ln_gamma_nu, &mut delta, &mut a, &mut w, &mut gram)
    }

    /// `stats` forced onto the lemma path (Helmert columns for any `m`) and
    /// onto the fresh path.
    fn both_paths(points: &[&[f64]], stats: &BlockStats) -> (BlockStats, BlockStats) {
        let d = stats.xbar.len();
        let mut lemma = stats.clone();
        lemma.helmert = vec![0.0; (stats.m - 1) * d];
        fill_helmert(points, &mut lemma.dev, &mut lemma.helmert);
        lemma.helmert_m = stats.m;
        let mut fresh = stats.clone();
        fresh.helmert_m = 0;
        (lemma, fresh)
    }

    #[test]
    fn lemma_rule_admits_the_blocks_its_cost_model_says() {
        assert_eq!(lemma_max_m(1), 0);
        assert_eq!(lemma_max_m(2), 1);
        assert_eq!(lemma_max_m(5), 1);
        assert_eq!(lemma_max_m(16), 4);
        assert_eq!(lemma_max_m(39), 11);
        for d in 1..64usize {
            let (df, max) = (d as f64, lemma_max_m(d));
            let lemma = |m: f64| m * (df * df / 2.0 + df) + m * m * df / 2.0 + m * m * m / 6.0;
            let fresh = df * df * df / 6.0 + df * df;
            assert!(max == 0 || lemma(max as f64) < fresh, "d = {d}: m = {max} not cheaper");
            assert!(lemma(max as f64 + 1.0) >= fresh, "d = {d}: m = {} also cheaper", max + 1);
        }
    }

    #[test]
    fn helmert_columns_reproduce_the_packed_scatter() {
        let mut rng = StdRng::seed_from_u64(7);
        for d in [2, 5, 16, 39] {
            let bank = DishBank::new(&params_d(d));
            for m in 1..=12 {
                let block = gaussian_points(&mut rng, m, d, 3.0);
                let refs: Vec<&[f64]> = block.iter().map(Vec::as_slice).collect();
                let mut stats = BlockStats::new(d);
                bank.compute_block_stats(&refs, &mut stats);
                let mut h = vec![0.0; (m - 1) * d];
                fill_helmert(&refs, &mut vec![0.0; d], &mut h);
                if m <= bank.lemma_m {
                    assert_eq!(stats.helmert_m, m);
                    assert_eq!(&stats.helmert[..h.len()], &h[..], "stats carry the same columns");
                } else {
                    assert_eq!(stats.helmert_m, 0, "d = {d}, m = {m} is past the rule");
                }
                let scale = stats.scatter.iter().fold(1.0_f64, |acc, v| acc.max(v.abs()));
                let mut off = 0;
                for j in 0..d {
                    for i in j..d {
                        let sum: f64 = h.chunks_exact(d).map(|col| col[i] * col[j]).sum();
                        let want = stats.scatter[off + (i - j)];
                        assert!(
                            (sum - want).abs() <= 1e-12 * scale,
                            "d = {d}, m = {m}, S[{i},{j}]: Helmert {sum} vs packed {want}"
                        );
                    }
                    off += d - j;
                }
            }
        }
    }

    #[test]
    fn lemma_and_fresh_paths_agree_past_the_crossover() {
        let mut rng = StdRng::seed_from_u64(11);
        crate::divergence::clear();
        for d in [2, 5, 16, 39] {
            let mut bank = DishBank::new(&params_d(d));
            let mut targets: Vec<Option<Slot>> = Vec::new();
            for (k, n) in [3, 20, 120].into_iter().enumerate() {
                let slot = bank.alloc();
                for x in gaussian_points(&mut rng, n, d, k as f64) {
                    bank.add_obs(slot, &x);
                }
                targets.push(Some(slot));
            }
            targets.push(Some(bank.alloc()));
            targets.push(None);
            for m in 1..=bank.lemma_m + 1 {
                let block = gaussian_points(&mut rng, m, d, 0.5);
                let refs: Vec<&[f64]> = block.iter().map(Vec::as_slice).collect();
                let mut stats = BlockStats::new(d);
                bank.compute_block_stats(&refs, &mut stats);
                let (lemma, fresh) = both_paths(&refs, &stats);
                for &target in &targets {
                    let a = ratio_on(&mut bank, target, &lemma);
                    let b = ratio_on(&mut bank, target, &fresh);
                    assert!(
                        (a - b).abs() <= 1e-10 * b.abs(),
                        "d = {d}, m = {m}, {target:?}: lemma {a} vs fresh {b}"
                    );
                    // The kernel entry points take the path the rule picks.
                    let served = match target {
                        Some(slot) => bank.block_predictive_stats(slot, &stats),
                        None => bank.block_predictive_prior(&stats),
                    };
                    let want = if m <= bank.lemma_m { a } else { b };
                    assert_eq!(served.to_bits(), want.to_bits(), "d = {d}, m = {m}, {target:?}");
                }
            }
            assert!(!crate::divergence::is_poisoned());
        }
    }

    #[test]
    fn non_finite_factor_scores_neg_inf_and_poisons_on_both_paths() {
        let mut rng = StdRng::seed_from_u64(3);
        let d = 16;
        let tri = d * (d + 1) / 2;
        let base = gaussian_points(&mut rng, 10, d, 0.0);
        // NaN below the diagonal (finite ln |Ψ|), and an infinite diagonal.
        let corruptions: [fn(&mut [f64]); 2] = [|f| f[1] = f64::NAN, |f| f[0] = f64::INFINITY];
        for corrupt in corruptions {
            let mut bank = DishBank::new(&params_d(d));
            let slot = bank.alloc();
            for x in &base {
                bank.add_obs(slot, x);
            }
            corrupt(&mut bank.chol[slot * tri..(slot + 1) * tri]);
            corrupt(&mut bank.psi[slot * tri..(slot + 1) * tri]);
            bank.refresh_constants(slot);
            for m in [1, bank.lemma_m, bank.lemma_m + 1] {
                let block = gaussian_points(&mut rng, m, d, 0.0);
                let refs: Vec<&[f64]> = block.iter().map(Vec::as_slice).collect();
                crate::divergence::clear();
                assert_eq!(bank.block_predictive(slot, &refs), f64::NEG_INFINITY, "m = {m}");
                assert!(crate::divergence::take().is_some(), "m = {m} must poison");
            }
        }
    }

    #[test]
    fn block_kernel_stays_usable_after_a_downdate_rescue() {
        // After the rescue re-derives Ψ from the repaired factor, the ratio
        // kernel must keep agreeing with the chain rule on the same state.
        let p = params2();
        let mut bank = DishBank::new(&p);
        let slot = bank.alloc();
        let mut legacy = NiwPosterior::from_prior(&p);
        for x in pts() {
            bank.add_obs(slot, &x);
            legacy.add(&x);
        }
        let foreign = [40.0, -35.0];
        bank.remove_obs(slot, &foreign);
        legacy.remove(&foreign);
        let _ = crate::divergence::take();
        let block = [[0.2_f64, 0.4], [-0.3, 0.6]];
        let refs: Vec<&[f64]> = block.iter().map(|p| p.as_slice()).collect();
        let banked = bank.block_predictive(slot, &refs);
        let chain = legacy.block_predictive_logpdf(&refs);
        assert!(
            (banked - chain).abs() <= 1e-6 * chain.abs().max(1.0),
            "post-rescue ratio {banked} vs chain {chain}"
        );
    }
}
