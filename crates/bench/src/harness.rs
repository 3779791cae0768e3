//! Shared plumbing for the `replicate` runner: its flags, the table of
//! openness sweeps behind Figs. 4–9, and the sweep and discovery runs.
//!
//! Every experiment accepts the same flags:
//!
//! ```text
//! --trials N    randomized evaluation splits per point (default 10, paper's value)
//! --seed N      master seed (default 42)
//! --scale F     dataset size multiplier, finite and > 0 (default 0.3; use
//!               --full for 1.0)
//! --full        full-size dataset replica (paper scale; slow)
//! --quick       smoke-test mode: scale 0.1, 3 trials, 10 sweeps, no tuning
//! --no-tune     skip the validation grid search (use default parameters)
//! --iters N     HDP-OSR Gibbs sweeps (default 30, the paper's setting)
//! --cold        serve HDP-OSR cold (full per-batch burn-in) instead of the
//!               default warm-start snapshot serving
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;

use hdp_osr_core::{HdpOsrConfig, ServingMode};
use osr_dataset::synthetic::{letter_config, pendigits_config, SyntheticConfig};
use osr_dataset::Dataset;
use osr_eval::experiment::{openness_sweep, MethodResult};
use osr_eval::methods::MethodSpec;
use osr_eval::tuning::Grids;

/// Parsed command-line options.
#[derive(Debug, Clone)]
pub struct Options {
    /// Trials per sweep point.
    pub trials: usize,
    /// Master seed.
    pub seed: u64,
    /// Dataset scale multiplier.
    pub scale: f64,
    /// Run the validation grid search.
    pub tune: bool,
    /// HDP-OSR Gibbs sweeps.
    pub iterations: usize,
    /// Serve HDP-OSR cold (per-batch burn-in) instead of warm-start.
    pub cold: bool,
}

impl Default for Options {
    fn default() -> Self {
        Self { trials: 10, seed: 42, scale: 0.3, tune: true, iterations: 30, cold: false }
    }
}

impl Options {
    /// Parse the flags in `args`, exiting with usage on errors.
    pub fn parse(args: &[String]) -> Self {
        let mut opts = Self::default();
        let mut i = 0;
        while i < args.len() {
            let take_value = |i: &mut usize| -> String {
                *i += 1;
                args.get(*i).unwrap_or_else(|| usage_exit()).clone()
            };
            match args[i].as_str() {
                "--trials" => opts.trials = take_value(&mut i).parse().unwrap_or_else(|_| usage_exit()),
                "--seed" => opts.seed = take_value(&mut i).parse().unwrap_or_else(|_| usage_exit()),
                "--scale" => {
                    opts.scale = take_value(&mut i)
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .unwrap_or_else(|| usage_exit())
                }
                "--iters" => {
                    opts.iterations = take_value(&mut i).parse().unwrap_or_else(|_| usage_exit())
                }
                "--full" => opts.scale = 1.0,
                "--no-tune" => opts.tune = false,
                "--cold" => opts.cold = true,
                "--quick" => {
                    opts.scale = 0.1;
                    opts.trials = 3;
                    opts.iterations = 10;
                    opts.tune = false;
                }
                "--help" | "-h" => usage_exit(),
                other => {
                    eprintln!("unknown flag: {other}");
                    usage_exit()
                }
            }
            i += 1;
        }
        opts
    }

    /// Generate a dataset replica at the configured scale.
    pub fn dataset(&self, config: SyntheticConfig) -> Dataset {
        let mut rng = StdRng::seed_from_u64(self.seed);
        if (self.scale - 1.0).abs() < 1e-12 {
            config.generate(&mut rng)
        } else {
            config.scaled(self.scale).generate(&mut rng)
        }
    }

    /// The serving mode selected by `--cold` (warm-start by default).
    pub fn serving_mode(&self) -> ServingMode {
        if self.cold {
            ServingMode::ColdStart
        } else {
            ServingMode::WarmStart
        }
    }

    /// Method families for the sweep: the coarse tuning grids, with
    /// HDP-OSR's sweep count overridden by `--iters` and its serving mode
    /// by `--cold`.
    pub fn families(&self) -> Vec<Vec<MethodSpec>> {
        Grids::coarse()
            .candidates
            .into_iter()
            .map(|family| {
                family
                    .into_iter()
                    .map(|spec| match spec {
                        MethodSpec::HdpOsr(cfg) => MethodSpec::HdpOsr(HdpOsrConfig {
                            iterations: self.iterations,
                            serving: self.serving_mode(),
                            ..cfg
                        }),
                        other => other,
                    })
                    .collect()
            })
            .collect()
    }
}

/// Wall-clock + metrics-registry instrumentation for a serving region.
///
/// The predictive log-pdf is the sampler's unit of work (one evaluation per
/// live dish per seating decision), so its count compares serving schedules
/// machine-independently. All readings are process-global and monotone; this
/// snapshots the registry at `start()` and diffs at `report()`, so concurrent
/// regions stay additive rather than clobbering each other.
pub struct ServingStats {
    started: std::time::Instant,
    baseline: osr_stats::metrics::MetricsSnapshot,
}

impl ServingStats {
    /// Begin measuring: stamp the clock and snapshot the global metrics
    /// registry (predictive calls, retries, degraded batches, sweep
    /// counters and the sweep-latency histogram all live there).
    pub fn start() -> Self {
        Self {
            started: std::time::Instant::now(),
            baseline: osr_stats::metrics::global().snapshot(),
        }
    }

    /// Print the serving summary for the region:
    ///
    /// ```text
    /// [label] served N batch(es) in S s (B batches/sec), C predictive-logpdf calls, R retries, D degraded
    /// [label] sampler: W sweeps, M seat-moves, sweep time p50≈X µs p99≈Y µs (mean Z µs)
    /// [label] kernels: A one-vs-all, B batch-vs-one
    /// ```
    ///
    /// The fault-tolerance deltas make a run that silently fell back to
    /// frozen inference visible in the benchmark log; the sampler line makes
    /// regressions in per-sweep cost visible without a profiler. Quantiles
    /// come from the registry's log2-bucket histogram, so they are
    /// factor-of-two upper bounds, not exact order statistics.
    pub fn report(&self, label: &str, n_batches: usize) {
        let secs = self.started.elapsed().as_secs_f64();
        let delta = osr_stats::metrics::global().snapshot().delta_since(&self.baseline);
        let calls = delta.counter(osr_stats::counters::PREDICTIVE_LOGPDF_CALLS);
        let retries = delta.counter(osr_stats::counters::SERVE_RETRIES);
        let degraded = delta.counter(osr_stats::counters::DEGRADED_BATCHES);
        let rate = n_batches as f64 / secs.max(1e-9);
        eprintln!(
            "[{label}] served {n_batches} batch(es) in {secs:.2}s \
             ({rate:.2} batches/sec), {calls} predictive-logpdf calls, \
             {retries} retries, {degraded} degraded"
        );
        let sweeps = delta.counter(osr_hdp::SWEEPS_METRIC);
        let moves = delta.counter(osr_hdp::SEAT_MOVES_METRIC);
        let times = delta.histogram(osr_hdp::SWEEP_TIME_METRIC);
        eprintln!(
            "[{label}] sampler: {sweeps} sweeps, {moves} seat-moves, \
             sweep time p50≈{:.0} µs p99≈{:.0} µs (mean {:.0} µs)",
            times.quantile(0.5) as f64 / 1e3,
            times.quantile(0.99) as f64 / 1e3,
            times.mean() / 1e3,
        );
        let one_vs_all = delta.counter(osr_stats::counters::PREDICTIVE_ONE_VS_ALL);
        let batch_vs_one = delta.counter(osr_stats::counters::PREDICTIVE_BATCH_VS_ONE);
        eprintln!("[{label}] kernels: {one_vs_all} one-vs-all, {batch_vs_one} batch-vs-one");
    }
}

/// Run a Tables 1–2 new-class-discovery experiment: 5 known + 5 unknown
/// classes, HDP-OSR only, printing the subclass decomposition and the Eq. 11
/// estimate Δ.
pub fn run_discovery(table: &str, data: &Dataset, opts: &Options) {
    use hdp_osr_core::{HdpOsr, HdpOsrConfig};
    use osr_dataset::protocol::{OpenSetSplit, SplitConfig};

    eprintln!(
        "[{table}] {}: 5 known + 5 unknown classes, seed {}, scale {}, {} sweeps",
        data.name, opts.seed, opts.scale, opts.iterations
    );
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let split = OpenSetSplit::sample(data, &SplitConfig::new(5, 5), &mut rng)
        .unwrap_or_else(|e| die(format!("5+5 split of {} failed: {e:?}", data.name)));

    // The broad-prior scale that lets new subclasses nucleate grows with the
    // feature dimension (the prior predictive's normalization cost is
    // O(d·ln ρ)); ρ = 4 suits d ≈ 16, USPS's 39 dims want about twice that.
    // The figure sweeps find this via validation tuning; the discovery
    // tables run untuned, so apply the scaling directly.
    let rho = 4.0 * (data.dim() as f64 / 16.0).max(1.0);
    let config = HdpOsrConfig {
        iterations: opts.iterations,
        rho,
        serving: opts.serving_mode(),
        ..Default::default()
    };
    let model = HdpOsr::fit(&config, &split.train)
        .unwrap_or_else(|e| die(format!("fit on {} failed: {e:?}", data.name)));
    let stats = ServingStats::start();
    let out = model
        .classify_detailed(&split.test.points, &mut rng)
        .unwrap_or_else(|e| die(format!("classification on {} failed: {e:?}", data.name)));
    stats.report(table, 1);

    // Annotate each known group with its original class id, as the paper
    // does ("Class1 ('2')").
    println!("# {} — new class discovery under HDP-OSR", data.name);
    println!(
        "# known classes (original ids): {:?}; unknown classes: {:?}",
        split.train.class_ids, split.unknown_class_ids
    );
    println!("{}", out.report.to_table());
    println!(
        "# |S_known| = {}, |S_unknown| = {}, J-1 = {}, true unknown classes = {}",
        out.report.n_known_subclasses(),
        out.report.n_new_subclasses(),
        split.train.n_classes(),
        split.unknown_class_ids.len()
    );
    println!("# paper: Δ = 4 with 5 true unknown classes (USPS), Δ ≈ 4 (PENDIGITS)");
}

/// Build the USPS replica at the configured scale **after** its PCA
/// projection to 39 dimensions (the paper's preprocessing).
pub fn usps_dataset(opts: &Options) -> Dataset {
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let raw = osr_dataset::synthetic::usps_raw_scaled(&mut rng, opts.scale);
    osr_dataset::synthetic::project_with_pca(raw, osr_dataset::synthetic::USPS_PCA_DIMS)
}

fn die(msg: String) -> ! {
    eprintln!("bench: {msg}");
    std::process::exit(1)
}

/// Print usage on stderr and exit with code 2.
pub fn usage_exit() -> ! {
    eprintln!(
        "usage: replicate <experiment> [flags]\n\
         experiments: letter | usps | pendigits | table1 | table2 | ablation-collective\n\
         \x20            | ablation-sensitivity\n\
         flags: --trials N  --seed N  --scale F  --full  --quick  --no-tune  --iters N  --cold"
    );
    std::process::exit(2)
}

/// Which metric a figure plots.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Metric {
    /// Micro-F-measure (Figs. 4–6).
    FMeasure,
    /// Open-set recognition accuracy (Figs. 7–9).
    Accuracy,
}

/// One figure plotted from an openness sweep.
#[derive(Debug, Clone, Copy)]
pub struct Figure {
    /// Figure label, as printed in the series heading ("fig4").
    pub label: &'static str,
    /// The metric the figure plots.
    pub metric: Metric,
    /// The shape the paper reports, printed as the `# paper:` line.
    pub paper: &'static str,
}

/// One dataset's openness sweep and the two figures the paper plots from
/// its trials: F-measure (Figs. 4–6), then accuracy (Figs. 7–9).
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Experiment name on the `replicate` command line.
    pub experiment: &'static str,
    /// The dataset replica at the configured scale.
    pub dataset: fn(&Options) -> Dataset,
    /// Known classes.
    pub n_known: usize,
    /// Unknown-class counts swept, in order of rising openness.
    pub unknown_counts: &'static [usize],
    /// The F-measure figure, then the accuracy figure.
    pub figures: [Figure; 2],
}

/// The paper's three openness sweeps (Figs. 4–9).
///
/// * LETTER: HDP-OSR comparable to W-SVM / P_I-SVM below ~12 % openness,
///   significantly above every method past ~12 %, with a notably flat
///   curve; its accuracy is the highest and degrades the least.
/// * USPS (PCA → 39 dims): HDP-OSR well above 1-vs-Set / W-SVM / P_I-SVM
///   as openness grows; OSNN overtakes it past ~12 % (accuracy: ~6 %) but
///   is clearly worse at openness 0; W-OSVM is so poor the paper omits it.
/// * PENDIGITS: HDP-OSR much higher than every other method as openness
///   increases, and almost unchanged across the whole sweep.
pub const SWEEPS: [Sweep; 3] = [
    Sweep {
        experiment: "letter",
        dataset: |opts| opts.dataset(letter_config()),
        n_known: 10,
        unknown_counts: &[0, 2, 4, 8, 12, 16],
        figures: [
            Figure {
                label: "fig4",
                metric: Metric::FMeasure,
                paper: "HDP-OSR ≈ W-SVM/PI-SVM at low openness, clearly highest and most \
                        stable beyond ~12 % openness; OSNN relatively poor on LETTER",
            },
            Figure {
                label: "fig7",
                metric: Metric::Accuracy,
                paper: "HDP-OSR clearly highest accuracy as openness increases; stable trend",
            },
        ],
    },
    Sweep {
        experiment: "usps",
        dataset: usps_dataset,
        n_known: 5,
        unknown_counts: &[0, 1, 2, 3, 4, 5],
        figures: [
            Figure {
                label: "fig5",
                metric: Metric::FMeasure,
                paper: "HDP-OSR ≫ 1-vs-Set/W-SVM/PI-SVM at high openness; OSNN most stable \
                        and ahead past ~12 %, but weakest at openness 0; W-OSVM very poor",
            },
            Figure {
                label: "fig8",
                metric: Metric::Accuracy,
                paper: "OSNN best beyond ~6 % openness, HDP-OSR next; HDP-OSR better at \
                        openness 0; W-OSVM very poor",
            },
        ],
    },
    Sweep {
        experiment: "pendigits",
        dataset: |opts| opts.dataset(pendigits_config()),
        n_known: 5,
        unknown_counts: &[0, 1, 2, 3, 4, 5],
        figures: [
            Figure {
                label: "fig6",
                metric: Metric::FMeasure,
                paper: "HDP-OSR much higher than all baselines with increasing openness; \
                        HDP-OSR curve almost flat",
            },
            Figure {
                label: "fig9",
                metric: Metric::Accuracy,
                paper: "HDP-OSR much higher accuracy than all baselines as openness grows; \
                        very stable on PENDIGITS",
            },
        ],
    },
];

/// Run one sweep: an openness sweep of all six methods on its dataset,
/// printing the TSV block once, then each figure's series, chart and
/// `# paper:` line.
pub fn run_figure(sweep: &Sweep, opts: &Options) {
    let Sweep { experiment, n_known, unknown_counts, .. } = *sweep;
    let data = (sweep.dataset)(opts);
    eprintln!(
        "[{experiment}] {}: {n_known} known classes, unknown sweep {unknown_counts:?}, \
         {} trials, seed {}, scale {}, tune={}, serving={:?}",
        data.name, opts.trials, opts.seed, opts.scale, opts.tune, opts.serving_mode()
    );
    let stats = ServingStats::start();
    let rows = openness_sweep(
        &data,
        n_known,
        unknown_counts,
        opts.trials,
        opts.seed,
        opts.tune,
        &opts.families(),
    )
    .unwrap_or_else(|e| {
        eprintln!("[{experiment}] failed: {e}");
        std::process::exit(1)
    });
    // One classified batch per (method, openness, trial); the rate also
    // absorbs tuning overhead when --no-tune is not set.
    stats.report(experiment, rows.len() * opts.trials);

    println!("{}", osr_eval::experiment::to_tsv(&rows));
    for figure in &sweep.figures {
        print_series(figure.label, &rows, figure.metric);
        print_chart(&rows, figure.metric);
        println!("# paper: {}", figure.paper);
    }
}

/// Render the sweep as an ASCII line chart (the figure itself).
pub fn print_chart(rows: &[MethodResult], metric: Metric) {
    let mut methods: Vec<&str> = Vec::new();
    for r in rows {
        if !methods.contains(&r.method.as_str()) {
            methods.push(r.method.as_str());
        }
    }
    let series: Vec<crate::chart::Series> = methods
        .iter()
        .map(|m| crate::chart::Series {
            label: (*m).to_string(),
            points: rows
                .iter()
                .filter(|r| r.method == *m)
                .map(|r| {
                    let v = match metric {
                        Metric::FMeasure => r.f_measure.mean,
                        Metric::Accuracy => r.accuracy.mean,
                    };
                    (r.openness, v)
                })
                .collect(),
        })
        .collect();
    let y_min = series
        .iter()
        .flat_map(|s| s.points.iter().map(|p| p.1))
        .fold(f64::INFINITY, f64::min)
        .min(0.9)
        - 0.02;
    println!("{}", crate::chart::render(&series, 64, 18, y_min.max(0.0), 1.0));
}

/// Pretty-print the metric as one line per method across the openness sweep.
pub fn print_series(figure: &str, rows: &[MethodResult], metric: Metric) {
    let mut opennesses: Vec<f64> = rows.iter().map(|r| r.openness).collect();
    opennesses.sort_by(|a, b| a.total_cmp(b));
    opennesses.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    let mut methods: Vec<&str> = Vec::new();
    for r in rows {
        if !methods.contains(&r.method.as_str()) {
            methods.push(r.method.as_str());
        }
    }
    let metric_name = match metric {
        Metric::FMeasure => "F-measure",
        Metric::Accuracy => "accuracy",
    };

    println!("# {figure}: {metric_name} by openness (mean over trials)");
    print!("# {:<10}", "method");
    for o in &opennesses {
        print!(" {:>8.1}%", o * 100.0);
    }
    println!();
    for m in &methods {
        print!("# {m:<10}");
        for o in &opennesses {
            // A hole in the sweep grid prints as NaN rather than aborting
            // the whole table.
            let v = rows
                .iter()
                .find(|r| r.method == *m && (r.openness - o).abs() < 1e-12)
                .map_or(f64::NAN, |row| match metric {
                    Metric::FMeasure => row.f_measure.mean,
                    Metric::Accuracy => row.accuracy.mean,
                });
            print!(" {v:>9.4}");
        }
        println!();
    }
}
