//! New-class discovery (paper §4.3): HDP-OSR not only rejects unknowns, it
//! *discovers* them as fresh subclasses and estimates how many unknown
//! categories the test batch contains (Eq. 11). The run ends by scoring how
//! well those subclasses recover the hidden unknown classes.
//!
//! ```text
//! cargo run --release --example new_class_discovery
//! ```

use hdp_osr::core::{HdpOsr, HdpOsrConfig, Prediction};
use hdp_osr::dataset::protocol::{OpenSetSplit, SplitConfig};
use hdp_osr::dataset::synthetic::pendigits_config;
use hdp_osr::eval::metrics::{hna, matched_accuracy, OpenSetConfusion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);

    // 5 known classes, and a test set carrying samples of 4 never-seen
    // classes. HDP-OSR must both serve the knowns and notice the strangers.
    let data = pendigits_config().scaled(0.25).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(5, 4), &mut rng)
        .expect("dataset has enough classes");

    let config = HdpOsrConfig::default();
    let model = HdpOsr::fit(&config, &split.train).expect("well-formed training set");
    let outcome =
        model.classify_detailed(&split.test.points, &mut rng).expect("non-empty test batch");

    // The subclass report is the content of the paper's Tables 1–2: how many
    // subclasses each known class decomposed into, and how the test set
    // splits between known-associated and brand-new subclasses.
    println!("{}", outcome.report.to_table());

    println!(
        "true number of unknown classes: {}   estimated Δ: {}",
        split.unknown_class_ids.len(),
        outcome.report.delta_estimate
    );
    println!(
        "test mass on known subclasses: {:.1}%   on new subclasses: {:.1}%",
        outcome.report.test_known_proportion * 100.0,
        outcome.report.test_new_proportion * 100.0
    );
    println!(
        "sampler diagnostics: γ = {:.1}, α₀ = {:.2}, joint log-likelihood = {:.1}",
        outcome.gamma, outcome.alpha, outcome.log_likelihood
    );

    // How well do the new subclasses recover the hidden unknown classes?
    // Match subclasses one-to-one to true classes (an accepted unknown is a
    // miss), and weigh that against how the knowns were served.
    let head = split.test.len() - split.unknown_labels.len();
    let clusters: Vec<Option<usize>> = outcome.predictions[head..]
        .iter()
        .zip(&outcome.test_dishes[head..])
        .map(|(p, &dish)| (*p == Prediction::Unknown).then_some(dish))
        .collect();
    let matched = matched_accuracy(&clusters, &split.unknown_labels);
    // Recall is known-class accuracy: every known point is a TP or an FN.
    let known = OpenSetConfusion::from_slices(&outcome.predictions, &split.test.truth).recall();
    println!(
        "matched accuracy on the unknowns: {matched:.3} ({} of {} rejected)",
        clusters.iter().flatten().count(),
        clusters.len()
    );
    println!("known accuracy: {known:.3}   HNA: {:.3}", hna(known, matched));
}
