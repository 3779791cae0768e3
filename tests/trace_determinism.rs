//! Golden-trace determinism suite: the observability stream is a pure
//! function of `(data, config, seed)`.
//!
//! Three layers of lock-in:
//!
//! 1. **Committed goldens** — the first and last [`SweepTrace`] of a seeded
//!    fit, its convergence diagnostics, and the full batch-trace JSONL
//!    streams of a seeded `classify_batches` run (warm-start and cold-start
//!    serving) are compared byte-for-byte against files in
//!    `tests/goldens/`. Any change to the sampler's RNG consumption, the
//!    seating order, or the trace schema shows up as a golden diff.
//!    Regenerate deliberately with `UPDATE_GOLDENS=1`.
//! 2. **Worker-count independence** — the same stream must come out of 1,
//!    2, and 8 workers.
//! 3. **Run-to-run identity** — two identical seeded runs in one process
//!    produce identical streams, and two fits of the scene produce
//!    identical `Fit` records, all of their sweeps included.

mod common;

use common::{
    check_golden, model_and_batches, trace_lines, DECISION_SWEEPS, ITERATIONS, SEED,
};
use hdp_osr::core::{batch_trace_id, HdpOsr, ServingMode, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn fit_trace_matches_committed_goldens() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let report = model.fit_report().expect("warm fit keeps its report");
    assert_eq!(report.trace.len(), ITERATIONS, "one trace per burn-in sweep");
    assert_eq!(report.train_seed, 42, "the default train seed");

    let first = serde_json::to_string(&report.trace[0]).unwrap();
    let last = serde_json::to_string(report.trace.last().unwrap()).unwrap();
    let diagnostics = serde_json::to_string(&report.diagnostics).unwrap();
    check_golden("fit_first_sweep.json", &first);
    check_golden("fit_last_sweep.json", &last);
    check_golden("fit_diagnostics.json", &diagnostics);
}

#[test]
fn fit_report_surfaces_sane_convergence_diagnostics() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let report = model.fit_report().expect("warm fit keeps its report");
    let d = &report.diagnostics;
    assert_eq!(d.n, ITERATIONS);
    assert!(d.rhat.is_finite() && d.rhat > 0.0, "rhat = {}", d.rhat);
    assert!((1.0..=ITERATIONS as f64).contains(&d.ess), "ess = {}", d.ess);
    assert!(d.burn_in <= ITERATIONS / 2, "burn_in = {}", d.burn_in);

    // The trace itself is coherent: sweep indices count up, structural
    // counts stay positive once seated, wall times are populated live.
    for (i, t) in report.trace.iter().enumerate() {
        assert_eq!(t.sweep, i);
        assert!(t.log_likelihood.is_finite());
        assert!(t.n_dishes >= 1 && t.total_tables >= t.n_dishes);
        assert_eq!(t.tables_per_group.len(), 2, "one entry per training group");
        assert!(t.seat_moves > 0, "a sweep reseats every item at least once");
    }
}

#[test]
fn batch_trace_stream_matches_committed_golden() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    let stream = trace_lines(&model, &batches, 2).join("\n");
    check_golden("batch_stream.jsonl", &stream);
    // The same scene under cold-start serving: every batch pays the full
    // transductive burn-in, and the stream pins that path too.
    let (cold, batches) = model_and_batches(ServingMode::ColdStart);
    let stream = trace_lines(&cold, &batches, 2).join("\n");
    check_golden("cold_batch_stream.jsonl", &stream);
}

#[test]
fn batch_traces_are_identical_across_worker_counts() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    let one = trace_lines(&model, &batches, 1);
    assert_eq!(one.len(), batches.len(), "one record per batch");
    assert_eq!(one, trace_lines(&model, &batches, 2), "1 vs 2 workers");
    assert_eq!(one, trace_lines(&model, &batches, 8), "1 vs 8 workers");
}

#[test]
fn identical_seeded_runs_produce_identical_streams() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    assert_eq!(trace_lines(&model, &batches, 4), trace_lines(&model, &batches, 4));

    // The fit goldens pin only the first and last sweep; two fits must
    // agree on every sweep of the whole record.
    let (refit, _) = model_and_batches(ServingMode::WarmStart);
    let fit_line = |m: &HdpOsr| {
        TraceRecord::Fit(m.fit_report().expect("warm fit keeps its report").clone()).to_jsonl()
    };
    assert_eq!(fit_line(&model), fit_line(&refit), "fit record drifted between fits");
}

#[test]
fn batch_records_roundtrip_and_carry_the_decision_sweeps() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    for (idx, line) in trace_lines(&model, &batches, 2).iter().enumerate() {
        let record = TraceRecord::from_jsonl(line).expect("stream lines parse back");
        let TraceRecord::Batch(trace) = record else {
            panic!("batch serving emits Batch records only");
        };
        assert_eq!(trace.batch, idx);
        assert_eq!(trace.trace_id, batch_trace_id(SEED, idx));
        assert_eq!(trace.attempts, 1, "healthy batches serve first try");
        assert!(!trace.inherited_poison, "workers must start every batch clean");
        assert_eq!(trace.sweeps.len(), DECISION_SWEEPS);
        for (s, sweep) in trace.sweeps.iter().enumerate() {
            assert_eq!(sweep.sweep, s, "session-local sweep indices");
            assert_eq!(sweep.wall_ns, 0, "wall time never enters the stream");
            assert!(sweep.log_likelihood.is_finite());
            assert_eq!(
                sweep.tables_per_group.len(),
                3,
                "two training groups plus the batch group"
            );
        }
    }
}

#[test]
fn adhoc_classification_is_tagged_adhoc() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    let mut rng = StdRng::seed_from_u64(5);
    let outcome = model.classify_detailed(&batches[0], &mut rng).expect("healthy batch");
    assert_eq!(outcome.trace_id, "adhoc");
}
