//! AoS ↔ SoA equivalence: the [`DishBank`] one-vs-all scoring path must
//! reproduce the legacy per-dish [`NiwPosterior`] arithmetic **to exact bit
//! equality**, and the batch-vs-one path (the marginal-likelihood-ratio
//! kernel — see DESIGN.md, "Posterior bank layout and vectorized
//! predictive") must agree with the legacy chain rule to floating-point
//! rounding while being deterministic and leaving the dish state untouched.
//!
//! Every property drives a randomized interleaving of dish creation,
//! observation add/remove, dish retirement (free-list slot reuse), and
//! predictive evaluation through both representations and compares raw
//! `f64::to_bits` (or a tight relative tolerance for the ratio kernel). The
//! divergence-poison fallback of the downdate rescue is exercised too
//! (removing a never-added far-away point).

use osr_linalg::Matrix;
use osr_stats::{BlockStats, DishBank, NiwParams, NiwPosterior};
use proptest::prelude::*;

fn entry() -> impl Strategy<Value = f64> {
    -2.0..2.0f64
}

/// One step of the randomized dish-lifecycle script. Indices are taken
/// modulo the number of live dishes / absorbed points at replay time, so any
/// random byte string is a valid script.
#[derive(Debug, Clone)]
enum Op {
    /// Open a new dish.
    Create,
    /// Absorb point `point % points.len()` into dish `dish % live`.
    Add { dish: usize, point: usize },
    /// Remove the most recently absorbed point of dish `dish % live`.
    RemoveLast { dish: usize },
    /// Retire dish `dish % live` after stripping its observations (frees
    /// its bank slot for reuse by a later `Create`).
    Retire { dish: usize },
    /// Score point `point % points.len()` under every live dish, both ways.
    Score { point: usize },
}

fn op() -> impl Strategy<Value = Op> {
    // The vendored proptest shim's `prop_oneof!` is unweighted; listing
    // `Add` twice biases scripts toward dishes that hold observations.
    prop_oneof![
        Just(Op::Create),
        (0usize..64, 0usize..64).prop_map(|(dish, point)| Op::Add { dish, point }),
        (0usize..64, 0usize..64).prop_map(|(dish, point)| Op::Add { dish, point }),
        (0usize..64).prop_map(|dish| Op::RemoveLast { dish }),
        (0usize..64).prop_map(|dish| Op::Retire { dish }),
        (0usize..64).prop_map(|point| Op::Score { point }),
    ]
}

prop_compose! {
    fn scripted_setup()(d in 1usize..=9)(
        d in Just(d),
        mu0 in prop::collection::vec(entry(), d),
        kappa0 in 0.3..5.0f64,
        nu_extra in 0.5..6.0f64,
        diag in prop::collection::vec(0.5..2.0f64, d),
        points in prop::collection::vec(prop::collection::vec(entry(), d), 1..10),
        script in prop::collection::vec(op(), 1..40),
    ) -> (NiwParams, Vec<Vec<f64>>, Vec<Op>) {
        let nu0 = d as f64 - 1.0 + nu_extra;
        let psi0 = Matrix::from_diag(&diag);
        (NiwParams::new(mu0, kappa0, nu0, psi0).unwrap(), points, script)
    }
}

/// A dish materialized both ways: the legacy object and the bank slot, plus
/// the stack of points it absorbed (so RemoveLast stays a legal removal).
struct Mirror {
    legacy: NiwPosterior,
    slot: usize,
    absorbed: Vec<usize>,
}

fn assert_dish_bits_equal(bank: &DishBank, m: &Mirror, params: &NiwParams, probe: &[f64]) {
    assert_eq!(
        bank.predictive_one(m.slot, probe).to_bits(),
        m.legacy.predictive_logpdf(probe).to_bits(),
        "predictive diverged from legacy"
    );
    assert_eq!(bank.count(m.slot), m.legacy.count(), "count diverged");
    for (a, b) in bank.mean(m.slot).iter().zip(m.legacy.mean()) {
        assert_eq!(a.to_bits(), b.to_bits(), "posterior mean diverged");
    }
    assert_eq!(
        bank.log_marginal(m.slot).to_bits(),
        m.legacy.log_marginal(params).to_bits(),
        "log marginal diverged"
    );
}

proptest! {
    /// Replay a random create/add/remove/retire/score script through both
    /// representations; every observable must agree bit-for-bit at every
    /// scoring step and at the end.
    #[test]
    fn bank_replays_legacy_bit_for_bit((params, points, script) in scripted_setup()) {
        let mut bank = DishBank::new(&params);
        let mut dishes: Vec<Mirror> = Vec::new();
        for step in script {
            match step {
                Op::Create => {
                    dishes.push(Mirror {
                        legacy: NiwPosterior::from_prior(&params),
                        slot: bank.alloc(),
                        absorbed: Vec::new(),
                    });
                }
                Op::Add { dish, point } if !dishes.is_empty() => {
                    let idx = dish % dishes.len();
                    let m = &mut dishes[idx];
                    let p = point % points.len();
                    bank.add_obs(m.slot, &points[p]);
                    m.legacy.add(&points[p]);
                    m.absorbed.push(p);
                }
                Op::RemoveLast { dish } if !dishes.is_empty() => {
                    let idx = dish % dishes.len();
                    let m = &mut dishes[idx];
                    if let Some(p) = m.absorbed.pop() {
                        bank.remove_obs(m.slot, &points[p]);
                        m.legacy.remove(&points[p]);
                    }
                }
                Op::Retire { dish } if !dishes.is_empty() => {
                    let mut m = dishes.swap_remove(dish % dishes.len());
                    while let Some(p) = m.absorbed.pop() {
                        bank.remove_obs(m.slot, &points[p]);
                        m.legacy.remove(&points[p]);
                    }
                    assert_dish_bits_equal(&bank, &m, &params, &points[0]);
                    bank.release(m.slot);
                }
                Op::Score { point } if !dishes.is_empty() => {
                    let x = &points[point % points.len()];
                    let slots: Vec<usize> = dishes.iter().map(|m| m.slot).collect();
                    let mut scratch = vec![0.0; slots.len() * params.dim()];
                    let mut scores = Vec::with_capacity(slots.len());
                    bank.score_all(&slots, x, &mut scratch, &mut scores);
                    for (m, got) in dishes.iter().zip(&scores) {
                        prop_assert_eq!(
                            got.to_bits(),
                            m.legacy.predictive_logpdf(x).to_bits(),
                            "one-vs-all kernel diverged from legacy predictive"
                        );
                    }
                    prop_assert_eq!(
                        bank.score_prior(x, &mut scratch[..params.dim()]).to_bits(),
                        NiwPosterior::from_prior(&params).predictive_logpdf(x).to_bits(),
                        "base-measure kernel diverged from legacy prior predictive"
                    );
                }
                // Ops addressed at dishes while none are live are no-ops.
                _ => {}
            }
        }
        for m in &dishes {
            assert_dish_bits_equal(&bank, m, &params, &points[0]);
        }
    }

    /// The batch-vs-one kernel (joint block predictive as a telescoped
    /// marginal-likelihood ratio) agrees with the legacy chain-rule product
    /// to rounding, is bit-deterministic across repeat calls and the
    /// shared-stats entry points, and leaves the dish state untouched.
    #[test]
    fn block_kernel_matches_legacy_and_preserves_state((params, points, _) in scripted_setup()) {
        let mut bank = DishBank::new(&params);
        let slot = bank.alloc();
        let mut legacy = NiwPosterior::from_prior(&params);
        // Seed the dish with the first half of the points…
        let (seed, block) = points.split_at(points.len() / 2);
        for p in seed {
            bank.add_obs(slot, p);
            legacy.add(p);
        }
        // …and evaluate the second half as a block (Eq. 8 factor). The
        // chain rule runs on a clone: its unwind is not bit-exact.
        let refs: Vec<&[f64]> = block.iter().map(Vec::as_slice).collect();
        let banked = bank.block_predictive(slot, &refs);
        let expect = legacy.clone().block_predictive_logpdf(&refs);
        prop_assert!(
            (banked - expect).abs() <= 1e-9 * expect.abs().max(1.0),
            "ratio kernel {} strayed from chain rule {}", banked, expect
        );
        // Deterministic, and identical through every entry point.
        prop_assert_eq!(bank.block_predictive(slot, &refs).to_bits(), banked.to_bits());
        let mut stats = BlockStats::new(params.dim());
        bank.compute_block_stats(&refs, &mut stats);
        prop_assert_eq!(bank.block_predictive_stats(slot, &stats).to_bits(), banked.to_bits());
        // The prior kernel equals a freshly allocated (empty) dish.
        let fresh = bank.alloc();
        let on_fresh = bank.block_predictive_stats(fresh, &stats);
        prop_assert_eq!(bank.block_predictive_prior(&stats).to_bits(), on_fresh.to_bits());
        bank.release(fresh);
        // Explicit small blocks: most Eq. 8 tables hold four points or
        // fewer, and these are the sizes the determinant-lemma path scores.
        for m in 1..=4 {
            let small: Vec<&[f64]> = (0..m).map(|i| points[i % points.len()].as_slice()).collect();
            let banked = bank.block_predictive(slot, &small);
            let expect = legacy.clone().block_predictive_logpdf(&small);
            prop_assert!(
                (banked - expect).abs() <= 1e-9 * expect.abs().max(1.0),
                "m = {}: ratio kernel {} strayed from chain rule {}", m, banked, expect
            );
        }
        // The ratio kernel never touched the dish: still bit-equal to the
        // legacy posterior that never saw the block.
        assert_dish_bits_equal(
            &bank,
            &Mirror { legacy, slot, absorbed: Vec::new() },
            &params,
            &points[0],
        );
    }

    /// Forcing the downdate past SPD (removing a never-added far-away point)
    /// drives both representations through the dense rescue — and, when the
    /// refactorization also fails, the divergence-poison identity fallback.
    /// The repaired states must still agree bit-for-bit.
    #[test]
    fn downdate_rescue_stays_bit_identical(
        (params, points, _) in scripted_setup(),
        magnitude in 20.0..60.0f64,
    ) {
        let mut bank = DishBank::new(&params);
        let slot = bank.alloc();
        let mut legacy = NiwPosterior::from_prior(&params);
        for p in &points {
            bank.add_obs(slot, p);
            legacy.add(p);
        }
        let foreign: Vec<f64> = (0..params.dim())
            .map(|i| if i % 2 == 0 { magnitude } else { -magnitude })
            .collect();
        bank.remove_obs(slot, &foreign);
        legacy.remove(&foreign);
        // Clear any poison this deliberately hostile removal raised, so the
        // flag does not leak into other proptest cases on this thread.
        let _ = osr_stats::divergence::take();
        assert_dish_bits_equal(
            &bank,
            &Mirror { legacy, slot, absorbed: Vec::new() },
            &params,
            &points[0],
        );
    }

    /// Slot reuse is complete: retiring a dish and allocating a new one must
    /// give a posterior bit-identical to a genuinely fresh prior dish.
    #[test]
    fn recycled_slots_are_indistinguishable_from_fresh((params, points, _) in scripted_setup()) {
        let mut bank = DishBank::new(&params);
        let slot = bank.alloc();
        for p in &points {
            bank.add_obs(slot, p);
        }
        for p in points.iter().rev() {
            bank.remove_obs(slot, p);
        }
        bank.release(slot);
        let reused = bank.alloc();
        prop_assert_eq!(reused, slot, "free-list should reuse the released slot");
        let fresh = NiwPosterior::from_prior(&params);
        for x in &points {
            prop_assert_eq!(
                bank.predictive_one(reused, x).to_bits(),
                fresh.predictive_logpdf(x).to_bits()
            );
        }
    }
}
