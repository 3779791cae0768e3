//! `replicate` — regenerate the paper's figures, tables and ablations.
//!
//! ```text
//! cargo run --release -p osr-bench --bin replicate -- <experiment> [flags]
//! ```
//!
//! Experiments:
//!
//! * `letter`, `usps`, `pendigits` — Figs. 4 and 7, 5 and 8, 6 and 9:
//!   F-measure and open-set accuracy vs openness, all six methods (USPS
//!   after its PCA to 39 dims);
//! * `table1`, `table2` — new-class discovery on USPS and PENDIGITS;
//! * `ablation-collective` — collective vs independent decision;
//! * `ablation-sensitivity` — HDP-OSR's ρ and sweep budget vs P_I-SVM's δ.
//!
//! Each figure pair comes from one openness sweep: the TSV block is printed
//! once, then each figure's series, chart and `# paper:` line. The flags are
//! documented in [`osr_bench::harness`].

use hdp_osr_core::{HdpOsr, HdpOsrConfig};
use osr_baselines::{OpenSetClassifier, PiSvm, PiSvmParams};
use osr_bench::harness::{run_discovery, run_figure, usage_exit, usps_dataset, Options, SWEEPS};
use osr_dataset::protocol::{GroundTruth, OpenSetSplit, SplitConfig};
use osr_dataset::synthetic::pendigits_config;
use osr_eval::metrics::{micro_f_measure, OpenSetConfusion};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((experiment, flags)) = args.split_first() else { usage_exit() };
    let opts = Options::parse(flags);
    match experiment.as_str() {
        "table1" => run_discovery("table1", &usps_dataset(&opts), &opts),
        "table2" => run_discovery("table2", &opts.dataset(pendigits_config()), &opts),
        "ablation-collective" => ablation_collective(&opts),
        "ablation-sensitivity" => ablation_sensitivity(&opts),
        "--help" | "-h" => usage_exit(),
        name => match SWEEPS.iter().find(|s| s.experiment == name) {
            Some(sweep) => run_figure(sweep, &opts),
            None => {
                eprintln!("unknown experiment: {name}");
                usage_exit()
            }
        },
    }
}

/// Ablation: the *collective* decision (paper contribution 3).
///
/// HDP-OSR co-clusters the **whole test batch** as one group, so test
/// samples support each other: thirty samples of an unknown category form a
/// heavy new subclass together, where each one alone would be a feeble
/// outlier. This ablation quantifies that: the same model classifies the
/// same test points (a) collectively in one batch, and (b) independently in
/// batches of one — the transductive signal removed.
fn ablation_collective(opts: &Options) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let data = pendigits_config().scaled(opts.scale.min(0.3)).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(5, 4), &mut rng)
        .expect("dataset supports a 5+4 split");

    let config = HdpOsrConfig { iterations: opts.iterations.min(25), ..Default::default() };
    let model = HdpOsr::fit(&config, &split.train).expect("fit");

    // (a) Collective: the whole batch as one HDP group.
    let collective = model.classify(&split.test.points, &mut rng).expect("collective pass");
    let c = OpenSetConfusion::from_slices(&collective, &split.test.truth);

    // (b) Independent: each point alone (subsampled — every point costs a
    // full sampler run).
    let step = (split.test.len() / 120).max(1);
    let mut solo_preds = Vec::new();
    let mut solo_truth = Vec::new();
    for i in (0..split.test.len()).step_by(step) {
        let lone = vec![split.test.points[i].clone()];
        let pred = model.classify(&lone, &mut rng).expect("solo pass");
        solo_preds.push(pred[0]);
        solo_truth.push(split.test.truth[i]);
    }
    let s = OpenSetConfusion::from_slices(&solo_preds, &solo_truth);

    println!("# ablation: collective vs independent decision (PENDIGITS, 5 known + 4 unknown)");
    println!("mode\tn\tf_measure\taccuracy\tunknowns_rejected");
    println!(
        "collective\t{}\t{:.4}\t{:.4}\t{}/{}",
        c.total,
        c.f_measure(),
        c.accuracy(),
        c.tn_rejected,
        split.test.n_unknown()
    );
    let solo_unknowns = solo_truth.iter().filter(|t| **t == GroundTruth::Unknown).count();
    println!(
        "independent\t{}\t{:.4}\t{:.4}\t{}/{}",
        s.total,
        s.f_measure(),
        s.accuracy(),
        s.tn_rejected,
        solo_unknowns
    );
    println!("# paper claim: treating the testing set as a whole exploits correlations");
    println!("# among test samples; expect the collective pass to reject unknowns better.");
}

/// Ablation: HDP-OSR's headline robustness claim — "does not overly depend
/// on … thresholds". The baselines live or die by δ/σ; HDP-OSR's only
/// knobs are the base-measure scale ρ and the sweep budget. This sweeps
/// both and prints how flat the F-measure stays, alongside the same sweep
/// for P_I-SVM's δ (which is anything but flat).
fn ablation_sensitivity(opts: &Options) {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let data = pendigits_config().scaled(opts.scale.min(0.3)).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(5, 4), &mut rng)
        .expect("dataset supports a 5+4 split");

    println!("# HDP-OSR sensitivity to its base-measure scale rho (iterations = 20)");
    println!("rho\tf_measure");
    for rho in [2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0] {
        let cfg = HdpOsrConfig { rho, iterations: 20, ..Default::default() };
        let model = HdpOsr::fit(&cfg, &split.train).expect("fit");
        let mut crng = StdRng::seed_from_u64(1);
        let preds = model.classify(&split.test.points, &mut crng).expect("classify");
        println!("{rho}\t{:.4}", micro_f_measure(&preds, &split.test.truth));
    }

    println!("\n# HDP-OSR sensitivity to the Gibbs sweep budget (rho = 4)");
    println!("iterations\tf_measure");
    for iters in [3usize, 5, 10, 20, 30] {
        let cfg = HdpOsrConfig { iterations: iters, ..Default::default() };
        let model = HdpOsr::fit(&cfg, &split.train).expect("fit");
        let mut crng = StdRng::seed_from_u64(1);
        let preds = model.classify(&split.test.points, &mut crng).expect("classify");
        println!("{iters}\t{:.4}", micro_f_measure(&preds, &split.test.truth));
    }

    println!("\n# For contrast: PI-SVM's threshold delta on the same split");
    println!("delta\tf_measure");
    for delta in [1e-7, 1e-5, 1e-3, 1e-2, 1e-1, 0.5] {
        let m = PiSvm::train(&split.train, &PiSvmParams { delta, ..Default::default() })
            .expect("train PI-SVM");
        let preds = m.predict_batch(&split.test.points);
        println!("{delta:.0e}\t{:.4}", micro_f_measure(&preds, &split.test.truth));
    }
    println!("\n# paper claim: threshold selection is 'difficult and risky' for the");
    println!("# discriminative methods, while HDP-OSR adapts as the data changes.");
}
