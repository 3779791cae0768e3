//! All six methods on one open-set problem, with the full §4.1.1 protocol:
//! a validation split tunes each method's thresholds (step 7), then every
//! tuned method faces the same randomized evaluation splits (step 8).
//!
//! ```text
//! cargo run --release --example baseline_shootout
//! ```

use hdp_osr::dataset::protocol::{OpenSetSplit, SplitConfig, ValidationSplit};
use hdp_osr::dataset::synthetic::pendigits_config;
use hdp_osr::eval::experiment::{run_trials, ExperimentConfig};
use hdp_osr::eval::tuning::{tune_method, Grids};
use osr_stats::descriptive::MeanStd;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let seed = 42;
    let mut rng = StdRng::seed_from_u64(seed);
    let data = pendigits_config().scaled(0.15).generate(&mut rng);
    let split_cfg = SplitConfig::new(5, 3); // openness ≈ 12.3 %

    // Step 7: carve a validation split out of one training set and let each
    // method pick its own thresholds on it.
    let first_split = OpenSetSplit::sample(&data, &split_cfg, &mut rng).expect("sample split");
    let validation = ValidationSplit::sample(&first_split.train, &mut rng).expect("validation");

    println!(
        "tuning on {} fitting points / {} closed-sim / {} open-sim points\n",
        validation.fitting.total_points(),
        validation.closed.len(),
        validation.open.len()
    );
    println!(
        "{:<10} {:>10} {:>10} | {:>18} {:>18}",
        "method", "F(closed)", "F(open)", "F-measure (eval)", "accuracy (eval)"
    );

    let eval_cfg = ExperimentConfig { split: split_cfg, trials: 5, seed, tune: false };
    for family in Grids::coarse().candidates {
        let tuned = match tune_method(&family, &validation, seed) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("{}: tuning failed: {e}", family[0].name());
                continue;
            }
        };
        // Step 8: evaluate the tuned spec on fresh randomized splits.
        let scores = run_trials(&data, &eval_cfg, &tuned.spec).expect("evaluation trials");
        let f = MeanStd::from_values(&scores.f_measures());
        let a = MeanStd::from_values(&scores.accuracies());
        println!(
            "{:<10} {:>10.4} {:>10.4} | {:>18} {:>18}",
            tuned.spec.name(),
            tuned.f_closed,
            tuned.f_open,
            format!("{f}"),
            format!("{a}")
        );
    }
}
