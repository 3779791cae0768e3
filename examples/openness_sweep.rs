//! Openness sweep: how each open-set method's F-measure behaves as more and
//! more unknown classes contaminate the test set — a miniature of the
//! paper's Figures 4–9 that runs in about a minute.
//!
//! ```text
//! cargo run --release --example openness_sweep
//! ```

use hdp_osr::core::HdpOsrConfig;
use hdp_osr::dataset::synthetic::pendigits_config;
use hdp_osr::eval::experiment::{openness_sweep, to_tsv};
use hdp_osr::eval::methods::MethodSpec;
use osr_baselines::{BaselineSpec, OsnnParams, PiSvmParams, WSvmParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let data = pendigits_config().scaled(0.15).generate(&mut rng);

    // One fixed specification per method (no tuning phase) keeps the sweep
    // fast; the reproduction binaries in `crates/bench` run the full
    // validation grid search instead.
    let families: Vec<Vec<MethodSpec>> = vec![
        vec![MethodSpec::Baseline(BaselineSpec::WSvm(WSvmParams::default()))],
        vec![MethodSpec::Baseline(BaselineSpec::PiSvm(PiSvmParams::default()))],
        vec![MethodSpec::Baseline(BaselineSpec::Osnn(OsnnParams::default()))],
        vec![MethodSpec::HdpOsr(HdpOsrConfig { iterations: 20, ..Default::default() })],
    ];

    // 5 known classes; 0 → 5 unknown classes sweeps openness 0 → 18.4 %.
    let rows = openness_sweep(&data, 5, &[0, 1, 3, 5], 3, 42, false, &families)
        .expect("sweep over a well-formed dataset");

    println!("{}", to_tsv(&rows));
    println!("Reading the table: every method starts near its closed-set F-measure at");
    println!("openness 0; threshold-based baselines bleed F-measure as unknown classes");
    println!("arrive, while HDP-OSR's generative co-clustering stays nearly flat —");
    println!("the central claim of the paper.");
}
