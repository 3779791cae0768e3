//! The repository benchmark: LETTER CD-OSR serving through the public
//! `Frontend` / `ModelRegistry` / `SnapshotStore` API, end to end.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload letter-open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` repeats the run
//! with spans and per-layer metrics. Each run prints every metric by name
//! and unit, writes a detailed report (run envelope, per-phase request
//! counts, median and quartiles of every metric) and, when traced, its
//! spans under `.bench_out/`, and ends with one JSON result line. See
//! README.md for the workloads and what each layer metric should move.

mod driver;
mod fleet;
mod hostspeed;
mod summary;
mod trace;
mod workload;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::sync::Arc;
use std::time::Instant;

use hdp_osr_core::{
    CollectiveModel, FlushTrigger, Frontend, FrontendConfig, HdpOsr, ModelRegistry,
};
use serde::Value;

use driver::{DigestWindow, Driver, Phase, PhaseCounts, RegEvent, RunLog, SLO_MS};
use fleet::{Fleet, Setup, SetupTimes};
use summary::{mean, obj, str_val, Json, Metrics};
use trace::{FlushSink, Span, TracedModel, Tracer, NONE};
use workload::{tenant_name, Clients, Traffic, Workload};

/// Set-up repeats until it has run at least this many times and for at
/// least `SETUP_WINDOW_S` seconds; `setup_s` is the median. The host's speed
/// drifts over seconds, so a short window would catch one state of it.
const SETUP_MIN_REPEATS: usize = 5;
const SETUP_WINDOW_S: f64 = 8.0;
/// Open-loop traffic before the measured phase, excluded from it.
const OPEN_WARMUP_S: f64 = 1.0;
/// Closed-loop dispatch rounds before the measured phase.
const CLOSED_WARMUP_ROUNDS: usize = 30;
/// Closed-loop rounds whose predictions and kernel counts must repeat.
const CLOSED_WINDOW_ROUNDS: usize = 100;
/// Per-tenant backlog bound; far above any backlog the workloads build.
const MAX_QUEUE_DEPTH: usize = 1_024;
const OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: e2ebench --workload <letter-open|letter-closed|tenant-churn> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

struct Args {
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut w, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                w = Some(
                    workload::by_name(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        w: w.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("e2ebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out = PathBuf::from(OUT_DIR);
    let snapshots = out.join(format!("snapshots-{}-{}", args.w.name, std::process::id()));
    let result = std::fs::create_dir_all(&snapshots)
        .map_err(|e| format!("create {}: {e}", snapshots.display()))
        .and_then(|()| run(&args, &out, &snapshots));
    let _ = std::fs::remove_dir_all(&snapshots);
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One named pass/fail check of the run's outputs.
struct Check {
    name: &'static str,
    ok: bool,
    detail: String,
}

fn run(args: &Args, out: &Path, snapshots: &Path) -> Result<(), String> {
    let w = args.w;
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tracer = Arc::new(Tracer::new(args.trace));

    // Set-up, repeated; the last repeat's fleet and registry serve.
    let mut times = SetupTimes::default();
    let mut setup_s = Vec::new();
    let wrap = |model: &Arc<HdpOsr>| -> Arc<dyn CollectiveModel> {
        if args.trace {
            Arc::new(TracedModel::new(model, Arc::clone(&tracer)))
        } else {
            model.clone()
        }
    };
    let mut built = None;
    let window = Instant::now();
    while setup_s.len() < SETUP_MIN_REPEATS || window.elapsed().as_secs_f64() < SETUP_WINDOW_S {
        drop(built.take());
        let t0 = Instant::now();
        let setup = fleet::set_up(w, snapshots, &wrap, &mut times)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        built = Some(setup);
    }
    let Setup {
        fleet,
        models,
        registry,
    } = built.ok_or("no set-up ran")?;
    let plain: Vec<Arc<dyn CollectiveModel>> = fleet
        .tenants
        .iter()
        .map(|t| -> Arc<dyn CollectiveModel> { t.model.clone() })
        .collect();
    let fe_config = FrontendConfig {
        dim: fleet.dim(),
        max_batch: w.max_batch,
        max_delay_ns: w.max_delay_ns,
        max_queue_depth: MAX_QUEUE_DEPTH,
        base_seed: args.seed,
    };
    let frontend = || Frontend::new(fe_config).map_err(|e| format!("frontend: {e}"));

    // Serve.
    let sink = Arc::new(FlushSink::new(args.trace));
    let mut driver = Driver::new(
        w,
        &fleet,
        &models,
        &registry,
        snapshots,
        frontend()?,
        &tracer,
        Arc::clone(&sink),
        workers,
    );
    match w.traffic {
        Traffic::Open { rps, zipf_s } => {
            let warm_ns = (OPEN_WARMUP_S * 1e9) as u64;
            let end_ns = warm_ns + args.seconds * 1_000_000_000;
            let mut script =
                workload::open_schedule(rps, zipf_s, &fleet.test_sizes(), args.seed, end_ns);
            let base = tracer.now_ns();
            script.iter_mut().for_each(|a| a.due_ns += base);
            driver.run_open(&script, base + warm_ns, base + end_ns);
        }
        Traffic::Closed { clients } => {
            let mut clients = Clients::new(clients, w.tenants, args.seed);
            driver.run_closed(
                &mut clients,
                CLOSED_WARMUP_ROUNDS,
                CLOSED_WINDOW_ROUNDS,
                args.seconds as f64,
            );
        }
    }
    let log = driver.log;

    // Check the outputs.
    let mut checks = vec![exactly_once(&log)];
    let f_measure = log.measured.confusion.f_measure();
    checks.push(Check {
        name: "f_measure_in_band",
        ok: (w.f_band.0..=w.f_band.1).contains(&f_measure),
        detail: format!("{f_measure:.4} in [{}, {}]", w.f_band.0, w.f_band.1),
    });
    checks.push(Check {
        name: "no_inherited_poison",
        ok: sink.poisoned() == 0,
        detail: format!("{} flush traces carried inherited poison", sink.poisoned()),
    });
    checks.push(Check {
        name: "refresh_saves",
        ok: log.save_failures == 0,
        detail: format!("{} snapshot re-saves failed", log.save_failures),
    });
    let mut extra: Vec<(&str, Value)> = Vec::new();
    if let Some(window) = &log.window {
        checks.extend(replay_closed(
            args,
            &fleet,
            &plain,
            snapshots,
            frontend()?,
            window,
        )?);
        checks.push(digest_repeats_across_runs(out, args.seed, window));
        let c = &window.counters;
        println!(
            "digest rounds {}-{} {:016x} requests {} one_vs_all {} batch_vs_one {} predictive {}",
            window.first,
            window.first + window.len - 1,
            window.digest,
            window.requests,
            c.one_vs_all,
            c.batch_vs_one,
            c.predictive
        );
        extra.push((
            "closed_digest",
            obj(vec![
                ("first_round", Value::Num(window.first as f64)),
                ("rounds", Value::Num(window.len as f64)),
                ("digest", str_val(&format!("{:016x}", window.digest))),
                ("requests", Value::Num(window.requests as f64)),
                ("one_vs_all", Value::Num(c.one_vs_all as f64)),
                ("batch_vs_one", Value::Num(c.batch_vs_one as f64)),
                ("predictive", Value::Num(c.predictive as f64)),
            ]),
        ));
    }

    let mut metrics = end_to_end(&log, &setup_s);
    if args.trace {
        let replay = replay_registry(w, snapshots, &plain, &log, &tracer);
        let cold = log.counters_end.since(&log.counters_begin).cold_loads;
        checks.push(Check {
            name: "registry_replay_matches",
            ok: replay.misses_all == cold && replay.failures == 0,
            detail: format!(
                "replay missed {} times, run cold-loaded {cold}; {} replay failures",
                replay.misses_all, replay.failures
            ),
        });
        let mut spans = tracer.take_spans();
        let flushes = sink.take();
        add_sweep_spans(&mut spans, &log, &flushes);
        let per_layer = per_layer(&log, &spans, &flushes, &times, &replay);
        extra.push(("tracing_overhead", tracing_overhead(out, args, &metrics)));
        extra.push(("end_to_end_under_tracing", metrics.detailed()));
        let path = out.join(format!("spans-{}.tsv", w.name));
        trace::write_spans(&path, &mut spans)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        extra.push(("spans", str_val(&path.display().to_string())));
        metrics = per_layer;
    }

    let measured = log.phases[Phase::Measured as usize];
    let correct = checks.iter().all(|c| c.ok);
    for m in &metrics.0 {
        println!(
            "{:<34} {:>14.6} {:<8} (n={}, q1={:.6}, median={:.6}, q3={:.6})",
            m.name, m.value, m.unit, m.n, m.q1, m.median, m.q3
        );
    }
    for (name, p) in [
        ("warmup", log.phases[Phase::Warmup as usize]),
        ("measured", measured),
    ] {
        println!(
            "phase {name:<9} sent {} succeeded {} shed {} failed {}",
            p.sent, p.succeeded, p.shed, p.failed
        );
    }
    for c in &checks {
        println!(
            "check {:<26} {} ({})",
            c.name,
            if c.ok { "ok" } else { "FAILED" },
            c.detail
        );
    }
    let phases = obj(vec![
        ("setup", phase_value(PhaseCounts::default())),
        ("warmup", phase_value(log.phases[Phase::Warmup as usize])),
        ("measured", phase_value(measured)),
    ]);
    let mut report = vec![
        ("envelope", envelope(args, workers, setup_s.len())),
        ("phases", phases),
        (
            "checks",
            Value::Arr(
                checks
                    .iter()
                    .map(|c| {
                        obj(vec![
                            ("name", str_val(c.name)),
                            ("ok", Value::Bool(c.ok)),
                            ("detail", str_val(&c.detail)),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("metrics", metrics.detailed()),
    ];
    report.extend(extra);
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        w.name,
        args.seed,
        u8::from(args.trace)
    ));
    let text = serde_json::to_string_pretty(&Json(obj(report))).map_err(|e| e.to_string())?;
    std::fs::write(&path, text + "\n").map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!("e2ebench: report written to {}", path.display());

    let result = obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::Num(measured.sent as f64)),
        (
            "failed",
            Value::Num((measured.shed + measured.failed) as f64),
        ),
        ("metrics", metrics.values()),
    ]);
    println!(
        "{}",
        serde_json::to_string(&Json(result)).map_err(|e| e.to_string())?
    );
    Ok(())
}

/// Serve the closed loop's clients again, from a fresh front-end and
/// registry on one worker, and check that the digest window repeats.
fn replay_closed(
    args: &Args,
    fleet: &Fleet,
    models: &[Arc<dyn CollectiveModel>],
    snapshots: &Path,
    frontend: Frontend,
    window: &DigestWindow,
) -> Result<Vec<Check>, String> {
    let Traffic::Closed { clients } = args.w.traffic else {
        return Ok(Vec::new());
    };
    let registry = fleet::registry(args.w, snapshots, models, &mut SetupTimes::default());
    let quiet = Tracer::new(false);
    let sink = Arc::new(FlushSink::new(false));
    let mut replay = Driver::new(
        args.w, fleet, models, &registry, snapshots, frontend, &quiet, sink, 1,
    );
    let mut clients = Clients::new(clients, args.w.tenants, args.seed);
    replay.run_closed(
        &mut clients,
        CLOSED_WARMUP_ROUNDS,
        CLOSED_WINDOW_ROUNDS,
        0.0,
    );
    let again = replay
        .log
        .window
        .as_ref()
        .ok_or("replay kept no digest window")?;
    let (a, b) = (&window.counters, &again.counters);
    Ok(vec![
        Check {
            name: "prediction_digest_repeats",
            ok: again.digest == window.digest && again.requests == window.requests,
            detail: format!(
                "{:016x} over {} requests; replay {:016x} over {}",
                window.digest, window.requests, again.digest, again.requests
            ),
        },
        Check {
            name: "kernel_counts_repeat",
            ok: (a.one_vs_all, a.batch_vs_one, a.predictive)
                == (b.one_vs_all, b.batch_vs_one, b.predictive),
            detail: format!(
                "one_vs_all {} / {}, batch_vs_one {} / {}, predictive {} / {}",
                a.one_vs_all,
                b.one_vs_all,
                a.batch_vs_one,
                b.batch_vs_one,
                a.predictive,
                b.predictive
            ),
        },
    ])
}

/// The digest window must repeat across processes too: the first run of a
/// build with a seed records its window in `.bench_out/closed-digests.tsv`,
/// and every later run of that build and seed must match it.
fn digest_repeats_across_runs(out: &Path, seed: u64, window: &DigestWindow) -> Check {
    let c = &window.counters;
    let record = format!(
        "{:016x} {} {} {} {}",
        window.digest, window.requests, c.one_vs_all, c.batch_vs_one, c.predictive
    );
    let check = |ok: bool, detail: String| Check {
        name: "digest_repeats_across_runs",
        ok,
        detail,
    };
    let Some(build) = build_id() else {
        return check(false, "cannot read the running executable".to_string());
    };
    let key = format!("{build} {seed} ");
    let path = out.join("closed-digests.tsv");
    let text = std::fs::read_to_string(&path).unwrap_or_default();
    if let Some(earlier) = text.lines().find_map(|l| l.strip_prefix(&key)) {
        return check(
            earlier == record,
            format!("build {build} seed {seed}: this run {record}, earlier run {earlier}"),
        );
    }
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{key}{record}"));
    match appended {
        Ok(()) => check(
            true,
            format!("first run of build {build} with seed {seed}: {record}"),
        ),
        Err(e) => check(false, format!("write {}: {e}", path.display())),
    }
}

/// FNV-1a of the running executable: it identifies the build, so runs of
/// different code never compare digests.
fn build_id() -> Option<String> {
    let bytes = std::fs::read(std::env::current_exe().ok()?).ok()?;
    let hash = bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3)
    });
    Some(format!("{hash:016x}"))
}

fn phase_value(p: PhaseCounts) -> Value {
    obj(vec![
        ("sent", Value::Num(p.sent as f64)),
        ("succeeded", Value::Num(p.succeeded as f64)),
        ("shed", Value::Num(p.shed as f64)),
        ("failed", Value::Num(p.failed as f64)),
    ])
}

/// Every sent request was answered, shed or errored exactly once.
fn exactly_once(log: &RunLog) -> Check {
    let balanced = log
        .phases
        .iter()
        .all(|p| p.sent == p.succeeded + p.shed + p.failed);
    Check {
        name: "exactly_once",
        ok: log.unanswered == 0 && log.stray_answers == 0 && balanced,
        detail: format!(
            "{} unanswered, {} stray or repeated answers, phase counts {}",
            log.unanswered,
            log.stray_answers,
            if balanced {
                "balance"
            } else {
                "do not balance"
            }
        ),
    }
}

fn to_f64(values: &[f32]) -> Vec<f64> {
    values.iter().map(|&v| f64::from(v)).collect()
}

fn end_to_end(log: &RunLog, setup_s: &[f64]) -> Metrics {
    let phase = log.phases[Phase::Measured as usize];
    let sent = phase.sent.max(1) as f64;
    let m = &log.measured;
    let median = |v: &[f64]| summary::quantile(&summary::sorted(v), 0.5);
    // Rates and the scaled p50: the median over windows of about a second
    // of each window's figure. Raw latency: the median over runs of
    // consecutive answers of each run's percentile. A stall of the host in a
    // few seconds of the run moves neither.
    let per_window =
        |f: fn(&driver::WindowFigures) -> f64| -> Vec<f64> { m.windows.iter().map(f).collect() };
    let (capacity, scaled_p50) = (per_window(|w| w.capacity), per_window(|w| w.scaled_p50));
    let rate = per_window(|w| w.rate);
    let pct = |i: usize| -> Vec<f64> { m.chunk_p50_p90.iter().map(|c| c[i]).collect() };
    let (p50, p90, p99) = (pct(0), pct(1), &m.chunk_p99);
    let answered = m.answered as usize;
    let timings: Vec<f64> = log
        .host_timings
        .iter()
        .map(|t| t / hostspeed::NOMINAL_NS)
        .collect();
    let availability = per_window(|w| w.availability);

    let mut out = Metrics::default();
    out.push("setup_s", "s", median(setup_s), setup_s);
    // The bounded speed metrics are scaled to the reference host (see
    // hostspeed.rs). The figures as measured follow them, reported only:
    // the host's speed moves them beyond any bound.
    out.push("capacity_rps", "req/s", median(&capacity), &capacity);
    out.windowed(
        "p50_scaled_ms",
        "ms",
        median(&scaled_p50),
        answered,
        &scaled_p50,
    );
    out.push("throughput_rps", "req/s", median(&rate), &rate);
    out.report_only();
    out.windowed("p50_ms", "ms", median(&p50), answered, &p50);
    out.report_only();
    out.windowed("p90_ms", "ms", median(&p90), answered, &p90);
    out.report_only();
    out.windowed("p99_ms", "ms", median(p99), answered, p99);
    out.report_only();
    let factors = per_window(|w| w.factor);
    out.push("host_factor", "ratio", median(&factors), &timings);
    out.report_only();
    out.push(
        "host_availability",
        "fraction",
        median(&availability),
        &availability,
    );
    out.report_only();
    out.one("slo_attainment", "fraction", m.in_slo as f64 / sent);
    out.one("answered_frac", "fraction", phase.succeeded as f64 / sent);
    let full = m.answered - m.degraded.min(m.answered);
    out.one(
        "full_service_frac",
        "fraction",
        full as f64 / answered.max(1) as f64,
    );
    out.one("f_measure", "fraction", m.confusion.f_measure());
    out.one("peak_rss_mb", "MB", peak_rss_mb());
    out
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?.to_string();
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Registry timings, measured after the run by replaying its resolve and
/// insert sequence against a fresh registry over the same snapshot files.
struct RegistryReplay {
    resolves: usize,
    hits: usize,
    misses_all: u64,
    failures: u64,
    resolve_miss_ms: Vec<f64>,
    load_ms: Vec<f64>,
}

fn replay_registry(
    w: &Workload,
    snapshots: &Path,
    models: &[Arc<dyn CollectiveModel>],
    log: &RunLog,
    tracer: &Tracer,
) -> RegistryReplay {
    let registry = ModelRegistry::new(w.registry_capacity).with_snapshot_dir(snapshots);
    let mut r = RegistryReplay {
        resolves: 0,
        hits: 0,
        misses_all: 0,
        failures: 0,
        resolve_miss_ms: Vec::new(),
        load_ms: Vec::new(),
    };
    for (i, event) in log.reg_events.iter().enumerate() {
        let timed = i >= log.reg_measured_from;
        match *event {
            RegEvent::Insert(t) => registry.insert(&tenant_name(t), Arc::clone(&models[t])),
            RegEvent::Resolve(t) => {
                let hit = registry.contains(&tenant_name(t));
                if !hit {
                    r.misses_all += 1;
                    if timed {
                        let start = tracer.now_ns();
                        if fleet::snapshot_store(snapshots, t).load().is_err() {
                            r.failures += 1;
                        }
                        let end = tracer.now_ns();
                        tracer.span("snapshot.load", start, end, NONE, NONE);
                        r.load_ms.push((end - start) as f64 / 1e6);
                    }
                }
                let start = tracer.now_ns();
                if registry.resolve(&tenant_name(t)).is_err() {
                    r.failures += 1;
                }
                let end = tracer.now_ns();
                if timed {
                    tracer.span("registry.resolve", start, end, NONE, NONE);
                    r.resolves += 1;
                    if hit {
                        r.hits += 1;
                    } else {
                        r.resolve_miss_ms.push((end - start) as f64 / 1e6);
                    }
                }
            }
        }
    }
    r
}

/// One `hdp.sweep` span per sweep a flush trace reports. A sweep trace
/// carries its duration but no start, so the span ends at its flush's
/// answer time.
fn add_sweep_spans(spans: &mut Vec<Span>, log: &RunLog, flushes: &[hdp_osr_core::FlushTrace]) {
    let mut next_id = spans.iter().map(|s| s.id + 1).max().unwrap_or(0);
    for f in flushes {
        // Flushes are logged in dispatch order, which is flush-sequence order.
        let seq = f.batch.batch as u64;
        let Ok(i) = log.flushes.binary_search_by_key(&seq, |x| x.seq) else {
            continue;
        };
        let flush = &log.flushes[i];
        for s in &f.batch.sweeps {
            spans.push(Span {
                id: next_id,
                name: "hdp.sweep",
                start_ns: flush.answer_ns.saturating_sub(s.wall_ns),
                end_ns: flush.answer_ns,
                parent: flush.span,
                request: NONE,
            });
            next_id += 1;
        }
    }
}

fn per_layer(
    log: &RunLog,
    spans: &[Span],
    flushes: &[hdp_osr_core::FlushTrace],
    setup: &SetupTimes,
    replay: &RegistryReplay,
) -> Metrics {
    let from = log.measured_start_ns;
    let span_us = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && s.start_ns >= from)
            .map(Span::micros)
            .collect()
    };
    let rounds: Vec<f64> = log
        .rounds
        .iter()
        .filter(|r| r.start_ns >= from)
        .map(|r| (r.end_ns - r.start_ns) as f64 / 1e6)
        .collect();
    let wall_ms = log.measured_end_ns.saturating_sub(from) as f64 / 1e6;
    let measured_flushes: Vec<&driver::Flush> = log
        .flushes
        .iter()
        .filter(|f| f.flushed_at_ns >= from)
        .collect();
    let measured_seqs: std::collections::BTreeSet<u64> =
        measured_flushes.iter().map(|f| f.seq).collect();
    let traces: Vec<&hdp_osr_core::FlushTrace> = flushes
        .iter()
        .filter(|f| measured_seqs.contains(&(f.batch.batch as u64)))
        .collect();
    let sweeps: Vec<&hdp_osr_core::SweepTrace> =
        traces.iter().flat_map(|f| &f.batch.sweeps).collect();
    let counters = log.counters_end.since(&log.counters_start);
    let answered_since = log.answered_since_start;
    // Kernel counts per answered request: over the closed loop's digest
    // window, which repeats exactly, else over the measured phase.
    let (kernels, kernel_requests) = match &log.window {
        Some(w) => (w.counters, w.requests),
        None => (counters, answered_since),
    };
    let per_req = |count: u64| count as f64 / kernel_requests.max(1) as f64;

    let mut m = Metrics::default();
    let enqueue = span_us("frontend.enqueue");
    m.pct("frontend.enqueue_us.p50", "us", 0.50, &enqueue);
    m.pct("frontend.enqueue_us.p99", "us", 0.99, &enqueue);
    m.pct(
        "frontend.poll_us.p50",
        "us",
        0.50,
        &span_us("frontend.poll"),
    );
    m.pct("frontend.dispatch_ms.p50", "ms", 0.50, &rounds);
    m.pct("frontend.dispatch_ms.p99", "ms", 0.99, &rounds);
    m.one("frontend.dispatch_rounds", "count", rounds.len() as f64);
    m.one(
        "frontend.busy_frac",
        "fraction",
        rounds.iter().sum::<f64>() / wall_ms.max(1e-9),
    );
    let waits = to_f64(&log.measured.queue_wait_ms);
    m.pct("frontend.queue_wait_ms.p50", "ms", 0.50, &waits);
    m.pct("frontend.queue_wait_ms.p99", "ms", 0.99, &waits);
    let service = to_f64(&log.measured.service_ms);
    m.pct("frontend.service_ms.p50", "ms", 0.50, &service);
    m.pct("frontend.service_ms.p99", "ms", 0.99, &service);
    let fills: Vec<f64> = measured_flushes.iter().map(|f| f.fill as f64).collect();
    m.push("frontend.batch_fill", "requests", mean(&fills), &fills);
    let by_trigger = |t: FlushTrigger| measured_flushes.iter().filter(|f| f.trigger == t).count();
    m.one(
        "frontend.flushes_size",
        "count",
        by_trigger(FlushTrigger::Size) as f64,
    );
    m.one(
        "frontend.flushes_deadline",
        "count",
        by_trigger(FlushTrigger::Deadline) as f64,
    );
    m.one(
        "frontend.shed",
        "count",
        log.phases[Phase::Measured as usize].shed as f64,
    );

    m.one("registry.resolves", "count", replay.resolves as f64);
    m.one(
        "registry.hit_ratio",
        "fraction",
        replay.hits as f64 / replay.resolves.max(1) as f64,
    );
    m.one("registry.cold_loads", "count", counters.cold_loads as f64);
    m.one("registry.evictions", "count", counters.evictions as f64);
    m.pct(
        "registry.resolve_miss_ms.p50",
        "ms",
        0.50,
        &replay.resolve_miss_ms,
    );
    let inserts: Vec<f64> = setup
        .insert_us
        .iter()
        .chain(&log.refresh_insert_us)
        .copied()
        .collect();
    m.pct("registry.insert_us.p50", "us", 0.50, &inserts);

    let loads: Vec<f64> = setup
        .load_ms
        .iter()
        .chain(&replay.load_ms)
        .copied()
        .collect();
    m.pct("snapshot.load_ms.p50", "ms", 0.50, &loads);
    m.pct("snapshot.load_ms.p99", "ms", 0.99, &loads);
    let saves: Vec<f64> = setup
        .save_ms
        .iter()
        .chain(&log.refresh_save_ms)
        .copied()
        .collect();
    m.pct("snapshot.save_ms.p50", "ms", 0.50, &saves);
    m.pct("snapshot.save_ms.p99", "ms", 0.99, &saves);
    m.pct("snapshot.bytes", "bytes", 0.50, &setup.snapshot_bytes);
    m.one(
        "snapshot.load_failures",
        "count",
        log.counters_end.since(&log.counters_begin).load_failures as f64,
    );

    let attempts: Vec<f64> = measured_flushes
        .iter()
        .map(|f| f64::from(f.attempts))
        .collect();
    m.push(
        "serving.attempts_per_batch",
        "attempts",
        mean(&attempts),
        &attempts,
    );
    m.one("serving.retries", "count", counters.retries as f64);
    m.one(
        "serving.degraded_batches",
        "count",
        counters.degraded as f64,
    );

    m.pct(
        "collective.open_us.p50",
        "us",
        0.50,
        &span_us("collective.open"),
    );
    let sweep_us = span_us("collective.sweep");
    m.pct("collective.sweep_us.p50", "us", 0.50, &sweep_us);
    m.pct("collective.sweep_us.p99", "us", 0.99, &sweep_us);
    m.pct(
        "collective.finish_us.p50",
        "us",
        0.50,
        &span_us("collective.finish"),
    );

    let per_batch: Vec<f64> = traces.iter().map(|f| f.batch.sweeps.len() as f64).collect();
    m.push(
        "hdp.sweeps_per_batch",
        "sweeps",
        mean(&per_batch),
        &per_batch,
    );
    let sweep_ms: Vec<f64> = sweeps.iter().map(|s| s.wall_ns as f64 / 1e6).collect();
    m.pct("hdp.sweep_ms.p50", "ms", 0.50, &sweep_ms);
    m.pct("hdp.sweep_ms.p99", "ms", 0.99, &sweep_ms);
    let moves: Vec<f64> = sweeps.iter().map(|s| s.seat_moves as f64).collect();
    m.push("hdp.seat_moves_per_sweep", "moves", mean(&moves), &moves);
    let dishes: Vec<f64> = sweeps.iter().map(|s| s.n_dishes as f64).collect();
    m.push("hdp.dishes_mean", "dishes", mean(&dishes), &dishes);

    m.one(
        "stats.one_vs_all_per_req",
        "calls",
        per_req(kernels.one_vs_all),
    );
    m.one(
        "stats.batch_vs_one_per_req",
        "calls",
        per_req(kernels.batch_vs_one),
    );
    m.one(
        "stats.predictive_evals_per_req",
        "evals",
        per_req(kernels.predictive),
    );

    m.pct("model.fit_ms.p50", "ms", 0.50, &setup.fit_ms);
    m.pct("driver.lag_ms.p99", "ms", 0.99, &to_f64(&log.lag_ms));
    m
}

/// Traced against untraced end-to-end figures of the same workload and
/// seed, when an untraced report is at hand.
fn tracing_overhead(out: &Path, args: &Args, traced: &Metrics) -> Value {
    let path = out.join(format!("{}-seed{}-trace0.json", args.w.name, args.seed));
    let untraced = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<Json>(&text).ok());
    let Some(Json(untraced)) = untraced else {
        return str_val("no untraced report of this workload and seed to compare with");
    };
    let value = |name: &str| {
        untraced
            .get("metrics")?
            .get(name)?
            .get("value")
            .and_then(num)
    };
    let mut entries = Vec::new();
    for name in [
        "capacity_rps",
        "p50_scaled_ms",
        "throughput_rps",
        "p50_ms",
        "p90_ms",
        "p99_ms",
    ] {
        if let (Some(base), Some(m)) = (value(name), traced.get(name)) {
            entries.push((
                name,
                obj(vec![
                    ("untraced", Value::Num(base)),
                    ("traced", Value::Num(m.value)),
                    ("change_frac", Value::Num(m.value / base - 1.0)),
                ]),
            ));
        }
    }
    obj(entries)
}

fn num(v: &Value) -> Option<f64> {
    match v {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Commit, toolchain, host and the run's parameters.
fn envelope(args: &Args, nproc: usize, setup_repeats: usize) -> Value {
    // Git must not look above the working directory: a checkout that is
    // not a repository would otherwise report an enclosing one's commit.
    let parent = std::env::current_dir()
        .ok()
        .and_then(|d| d.parent().map(Path::to_path_buf))
        .unwrap_or_default();
    let command = |program: &str, argv: &[&str]| -> String {
        Command::new(program)
            .args(argv)
            .env("GIT_CEILING_DIRECTORIES", &parent)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map_or_else(
                || "unknown".to_string(),
                |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
            )
    };
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("model name"))?.to_string();
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    obj(vec![
        ("workload", str_val(args.w.name)),
        ("why", str_val(args.w.why)),
        ("seed", Value::Num(args.seed as f64)),
        ("seconds", Value::Num(args.seconds as f64)),
        ("trace", Value::Bool(args.trace)),
        ("commit", str_val(&command("git", &["rev-parse", "HEAD"]))),
        ("rustc", str_val(&command("rustc", &["--version"]))),
        ("cpu", str_val(&cpu)),
        ("nproc", Value::Num(nproc as f64)),
        ("setup_repeats", Value::Num(setup_repeats as f64)),
        ("slo_ms", Value::Num(SLO_MS)),
    ])
}
