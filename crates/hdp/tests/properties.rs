//! Property-based tests of the CRF sampler: bookkeeping invariants must
//! survive arbitrary sweep sequences on arbitrary group structures, and the
//! posterior state must remain internally consistent.

// Test code: the crate-level unwrap/expect ban targets sampler paths.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use osr_hdp::{Hdp, HdpConfig};
use osr_linalg::Matrix;
use osr_stats::NiwParams;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params(d: usize) -> NiwParams {
    NiwParams::new(vec![0.0; d], 1.0, d as f64 + 2.0, Matrix::scaled_identity(d, 1.5)).unwrap()
}

prop_compose! {
    fn random_groups()(d in 1usize..4)(
        d in Just(d),
        sizes in prop::collection::vec(1usize..12, 1..4),
        seed in 0u64..10_000,
    ) -> (usize, Vec<Vec<Vec<f64>>>, u64) {
        // Deterministic pseudo-random data with cluster structure.
        let mut state = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let groups = sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|i| {
                        let c = if i % 2 == 0 { 3.0 } else { -3.0 };
                        (0..d).map(|_| c + next() * 2.0).collect()
                    })
                    .collect()
            })
            .collect();
        (d, groups, seed)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn invariants_hold_after_every_sweep((d, groups, seed) in random_groups()) {
        let cfg = HdpConfig { iterations: 1, ..Default::default() };
        let mut hdp = Hdp::new(params(d), cfg, &groups).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..4 {
            hdp.sweep(&mut rng);
            hdp.check_invariants();
        }
        // Total items across dish summaries equals the corpus size.
        let total: usize = groups.iter().map(Vec::len).sum();
        let from_dishes: usize = hdp.dish_summaries().iter().map(|s| s.n_items).sum();
        prop_assert_eq!(from_dishes, total);
        // Every item resolves to a live dish.
        for (j, g) in groups.iter().enumerate() {
            for i in 0..g.len() {
                let dish = hdp.dish_of(j, i);
                prop_assert!(
                    hdp.dish_summaries().iter().any(|s| s.id == dish),
                    "item ({j},{i}) points at a retired dish"
                );
            }
        }
    }

    #[test]
    fn table_and_dish_counts_are_coherent((d, groups, seed) in random_groups()) {
        let cfg = HdpConfig { iterations: 2, ..Default::default() };
        let mut hdp = Hdp::new(params(d), cfg, &groups).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        hdp.run(&mut rng);

        let n_groups = groups.len();
        let summaries = hdp.dish_summaries();
        // Dishes ≤ tables ≤ items.
        let total_items: usize = groups.iter().map(Vec::len).sum();
        prop_assert!(hdp.n_dishes() <= hdp.total_tables());
        prop_assert!(hdp.total_tables() <= total_items);
        // Per-dish table counts sum to the total table count.
        let tables_from_dishes: usize = summaries.iter().map(|s| s.n_tables).sum();
        prop_assert_eq!(tables_from_dishes, hdp.total_tables());
        // Group summaries partition each group's items.
        for j in 0..n_groups {
            let s = hdp.group_summary(j);
            let sum: usize = s.dish_counts.iter().map(|&(_, c)| c).sum();
            prop_assert_eq!(sum, groups[j].len());
            prop_assert_eq!(s.n_items, groups[j].len());
        }
    }

    #[test]
    fn joint_likelihood_is_finite_throughout((d, groups, seed) in random_groups()) {
        let cfg = HdpConfig { iterations: 1, ..Default::default() };
        let mut hdp = Hdp::new(params(d), cfg, &groups).unwrap();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x1234);
        for _ in 0..3 {
            hdp.sweep(&mut rng);
            let ll = hdp.joint_log_likelihood();
            prop_assert!(ll.is_finite(), "joint log-likelihood became {ll}");
            prop_assert!(hdp.gamma().is_finite() && hdp.gamma() > 0.0);
            prop_assert!(hdp.alpha().is_finite() && hdp.alpha() > 0.0);
        }
    }

    #[test]
    fn runs_are_reproducible((d, groups, seed) in random_groups()) {
        let cfg = HdpConfig { iterations: 2, ..Default::default() };
        let run = |s: u64| {
            let mut hdp = Hdp::new(params(d), cfg, &groups).unwrap();
            let mut rng = StdRng::seed_from_u64(s);
            hdp.run(&mut rng);
            (0..groups.len())
                .flat_map(|j| (0..groups[j].len()).map(move |i| (j, i)))
                .map(|(j, i)| hdp.dish_of(j, i))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(seed), run(seed));
    }
}
