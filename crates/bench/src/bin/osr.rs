//! `osr` — run any of the six open-set methods on your own CSV data.
//!
//! ```text
//! osr --data samples.csv [--method hdp-osr] [--known 5] [--unknown 2]
//!     [--trials 5] [--seed 42] [--iters 30] [--list]
//! ```
//!
//! The CSV carries one sample per line, features first, class label (string
//! or number) in the last column. The tool carves an open-set problem out of
//! the file with the paper's protocol (60 % of each chosen known class to
//! training; held-out knowns plus every sample of the chosen unknown classes
//! to testing), runs the requested method over `--trials` randomized splits,
//! and reports micro-F-measure and open-set accuracy. Every method that
//! succeeds prints its row; the tool exits 1 if any requested method failed.

use hdp_osr_core::HdpOsrConfig;
use osr_baselines::BaselineSpec;
use osr_dataset::csv::read_csv_file;
use osr_dataset::protocol::SplitConfig;
use osr_eval::experiment::{run_trials, ExperimentConfig};
use osr_eval::methods::MethodSpec;
use osr_stats::descriptive::MeanStd;

struct Args {
    data: Option<std::path::PathBuf>,
    method: String,
    known: usize,
    unknown: usize,
    trials: usize,
    seed: u64,
    iters: usize,
    list: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        data: None,
        method: "hdp-osr".into(),
        known: 0,
        unknown: 0,
        trials: 5,
        seed: 42,
        iters: 30,
        list: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |argv: &[String], i: &mut usize| -> String {
        *i += 1;
        argv.get(*i).cloned().unwrap_or_else(|| usage())
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "--data" => args.data = Some(value(&argv, &mut i).into()),
            "--method" => args.method = value(&argv, &mut i),
            "--known" => args.known = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--unknown" => args.unknown = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--trials" => args.trials = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--seed" => args.seed = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--iters" => args.iters = value(&argv, &mut i).parse().unwrap_or_else(|_| usage()),
            "--list" => args.list = true,
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
        i += 1;
    }
    args
}

fn usage() -> ! {
    let names: Vec<String> = listed_methods().iter().map(method_flag).collect();
    eprintln!(
        "usage: osr --data FILE.csv [--method NAME] [--known N] [--unknown N]\n\
         \x20          [--trials N] [--seed N] [--iters N] [--list]\n\
         methods: {} | all",
        names.join(" | ")
    );
    std::process::exit(2)
}

/// The paper's lineup in `--list` order: the default (HDP-OSR) first, then
/// the baselines in figure-legend order.
fn listed_methods() -> Vec<MethodSpec> {
    let mut lineup = MethodSpec::paper_lineup();
    lineup.sort_by_key(|spec| !matches!(spec, MethodSpec::HdpOsr(_)));
    lineup
}

/// The `--method` value naming `spec`: its figure-legend name, lower-cased.
fn method_flag(spec: &MethodSpec) -> String {
    spec.name().to_lowercase()
}

/// The `--list` description of `spec`.
fn describe(spec: &MethodSpec) -> &'static str {
    match spec {
        MethodSpec::HdpOsr(_) => "the paper's collective-decision model (default)",
        MethodSpec::Baseline(baseline) => match baseline {
            BaselineSpec::OneVsSet(_) => "linear slab machine (Scheirer et al. 2013)",
            BaselineSpec::WOsvm(_) => "one-class SVM + Weibull calibration",
            BaselineSpec::WSvm(_) => "Weibull-calibrated SVM (Scheirer et al. 2014)",
            BaselineSpec::PiSvm(_) => "probability-of-inclusion SVM (Jain et al. 2014)",
            BaselineSpec::Osnn(_) => "nearest-neighbour distance ratio (Júnior et al. 2017)",
        },
    }
}

/// The `(known, unknown)` class split out of `n_classes`. A zero request
/// takes the default: roughly half the classes known, half of the remainder
/// unknown. `Err` carries a budget that does not fit (fewer than 2 known, or
/// more classes than the file has).
fn class_budget(
    n_classes: usize,
    known: usize,
    unknown: usize,
) -> Result<(usize, usize), (usize, usize)> {
    let known = if known > 0 { known } else { (n_classes / 2).max(2) };
    let unknown = if unknown > 0 { unknown } else { n_classes.saturating_sub(known).min(known) };
    if known.saturating_add(unknown) > n_classes || known < 2 {
        return Err((known, unknown));
    }
    Ok((known, unknown))
}

fn main() {
    let args = parse_args();
    if args.list {
        for spec in listed_methods() {
            println!("{:<10}{}", method_flag(&spec), describe(&spec));
        }
        println!("{:<10}run every method", "all");
        return;
    }
    let Some(path) = args.data else { usage() };
    let csv = match read_csv_file(&path) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("failed to read {}: {e}", path.display());
            std::process::exit(1)
        }
    };
    let data = csv.dataset;
    eprintln!(
        "{}: {} samples, {} classes ({:?}…), {} features",
        path.display(),
        data.len(),
        data.n_classes,
        &csv.label_names[..csv.label_names.len().min(5)],
        data.dim()
    );

    let (known, unknown) =
        class_budget(data.n_classes, args.known, args.unknown).unwrap_or_else(|(k, u)| {
            eprintln!("bad class budget: {k} known + {u} unknown of {} classes", data.n_classes);
            std::process::exit(1)
        });
    let config = ExperimentConfig {
        split: SplitConfig::new(known, unknown),
        trials: args.trials,
        seed: args.seed,
        tune: false,
    };
    eprintln!(
        "{known} known + {unknown} unknown classes (openness {:.1}%), {} trials, seed {}",
        config.split.openness() * 100.0,
        args.trials,
        args.seed
    );

    // The lineup's order is the order `all` runs in.
    let lineup = MethodSpec::paper_lineup().into_iter().map(|spec| match spec {
        MethodSpec::HdpOsr(cfg) => {
            MethodSpec::HdpOsr(HdpOsrConfig { iterations: args.iters, ..cfg })
        }
        other => other,
    });
    let methods: Vec<MethodSpec> = lineup
        .filter(|spec| args.method == "all" || method_flag(spec) == args.method)
        .collect();
    if methods.is_empty() {
        eprintln!("unknown method {:?}; try --list", args.method);
        std::process::exit(2)
    }

    let mut failed = false;
    println!("method\tf_measure\tf_std\taccuracy\tacc_std\ttrials");
    for spec in methods {
        match run_trials(&data, &config, &spec) {
            Ok(scores) => {
                let f = MeanStd::from_values(&scores.f_measures());
                let a = MeanStd::from_values(&scores.accuracies());
                println!(
                    "{}\t{:.4}\t{:.4}\t{:.4}\t{:.4}\t{}",
                    spec.name(),
                    f.mean,
                    f.std,
                    a.mean,
                    a.std,
                    f.n
                );
            }
            Err(e) => {
                eprintln!("{}: failed: {e}", spec.name());
                failed = true;
            }
        }
    }
    if failed {
        std::process::exit(1)
    }
}

#[cfg(test)]
mod tests {
    use super::class_budget;

    #[test]
    fn class_budget_defaults_and_rejects_without_overflow() {
        assert_eq!(class_budget(5, 0, 0), Ok((2, 2)));
        assert_eq!(class_budget(10, 3, 0), Ok((3, 3)));
        assert_eq!(class_budget(5, 3, 2), Ok((3, 2)));
        // More known classes than the file has: rejected with the budget as
        // asked, not an overflow in the default unknown count.
        assert_eq!(class_budget(5, 8, 0), Err((8, 0)));
        assert_eq!(class_budget(5, 1, 1), Err((1, 1)));
        assert_eq!(class_budget(5, 3, 3), Err((3, 3)));
        assert_eq!(class_budget(5, usize::MAX, 1), Err((usize::MAX, 1)));
    }
}
