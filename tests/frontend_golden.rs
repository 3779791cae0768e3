//! Golden-trace lock-in for the coalescing front-end: a fixed arrival
//! script, coalesced into micro-batches and dispatched at 1, 2, and 8
//! workers, must yield a byte-identical flush-trace stream — and that
//! stream is pinned against a committed golden.
//!
//! The script is entirely literal (no wall clock, no RNG for arrivals), so
//! the stream is a pure function of `(script, config, model seeds)`.
//! Regenerate deliberately with `UPDATE_GOLDENS=1`.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Arc;

use common::{blob, check_golden};
use hdp_osr::core::{
    flush_trace_id, FlushTrigger, Frontend, FrontendConfig, HdpOsr, HdpOsrConfig, ModelRegistry,
    RingSink, ServePolicy, ServingMode, TraceRecord, TraceSink,
};
use hdp_osr::dataset::protocol::TrainSet;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BASE_SEED: u64 = 7_001;
const MAX_BATCH: usize = 4;
const MAX_DELAY_NS: u64 = 1_000;

/// A small warm CD-OSR model per tenant, from a literal seed, so every
/// micro-batch exercises the real collective-decision ladder.
fn tenant_model(seed: u64) -> HdpOsr {
    let mut rng = StdRng::seed_from_u64(seed);
    let train = TrainSet {
        class_ids: vec![1, 2],
        classes: vec![blob(&mut rng, -6.0, 0.0, 30), blob(&mut rng, 6.0, 0.0, 30)],
    };
    let config = HdpOsrConfig {
        iterations: 10,
        decision_sweeps: 2,
        serving: ServingMode::WarmStart,
        ..Default::default()
    };
    HdpOsr::fit(&config, &train).expect("clean fit")
}

fn registry() -> ModelRegistry {
    let registry = ModelRegistry::new(2);
    registry.insert("acme", Arc::new(tenant_model(11)));
    registry.insert("beta", Arc::new(tenant_model(23)));
    registry
}

/// The fixed arrival script: (tenant, point, arrival time in virtual ns).
/// `acme` fills a size flush at t=40; `beta`'s undersized pair and `acme`'s
/// straggler ride until their SLO deadlines (t=1100 / t=1150).
const SCRIPT: [(&str, [f64; 2], u64); 7] = [
    ("acme", [-6.2, 0.1], 0),
    ("acme", [-5.8, -0.2], 10),
    ("acme", [6.1, 0.3], 20),
    ("acme", [5.9, -0.1], 40),
    ("beta", [-6.0, 0.2], 100),
    ("beta", [0.1, 9.0], 140),
    ("acme", [6.3, 0.0], 150),
];

/// Coalesce and dispatch the script at `workers`, returning the sink's
/// JSONL lines in flush-sequence order plus the flush summaries.
fn run_script(workers: usize) -> (Vec<String>, Vec<(String, FlushTrigger, usize)>) {
    let registry = registry();
    let mut frontend = Frontend::new(FrontendConfig {
        dim: 2,
        max_batch: MAX_BATCH,
        max_delay_ns: MAX_DELAY_NS,
        max_queue_depth: 64,
        base_seed: BASE_SEED,
    })
    .expect("valid config");

    for (tenant, point, at_ns) in SCRIPT {
        frontend.poll(at_ns);
        frontend.enqueue(tenant, point.to_vec(), at_ns).expect("admitted");
    }
    // Ride the stragglers out to their deadlines, one poll per SLO edge.
    assert_eq!(frontend.poll(1_100), 1, "beta's pair hits the SLO at t=1100");
    assert_eq!(frontend.poll(1_150), 1, "acme's straggler hits the SLO at t=1150");
    assert_eq!(frontend.pending_requests(), 0, "the script leaves nothing queued");

    let ring = Arc::new(RingSink::new(16));
    let sink: Arc<dyn TraceSink> = ring.clone();
    let outcomes = frontend.dispatch(&registry, workers, &ServePolicy::default(), Some(&sink));

    let lines: Vec<String> = ring.records().iter().map(TraceRecord::to_jsonl).collect();
    let summary = outcomes
        .iter()
        .map(|f| (f.trace_id.clone(), f.trigger, f.responses.len()))
        .collect();
    (lines, summary)
}

#[test]
fn coalesced_stream_matches_committed_golden() {
    let (lines, summary) = run_script(2);
    // Shape first: one size flush (acme ×4), two deadline flushes.
    let shape: Vec<(FlushTrigger, usize)> =
        summary.iter().map(|(_, t, n)| (*t, *n)).collect();
    assert_eq!(
        shape,
        vec![(FlushTrigger::Size, 4), (FlushTrigger::Deadline, 2), (FlushTrigger::Deadline, 1)]
    );
    check_golden("frontend_stream.jsonl", &lines.join("\n"));
}

#[test]
fn coalesced_stream_is_identical_at_1_2_and_8_workers() {
    let (one, summary_one) = run_script(1);
    let (two, summary_two) = run_script(2);
    let (eight, summary_eight) = run_script(8);
    assert_eq!(one.len(), 3, "one flush record per micro-batch");
    assert_eq!(one, two, "1 vs 2 workers");
    assert_eq!(one, eight, "1 vs 8 workers");
    assert_eq!(summary_one, summary_two);
    assert_eq!(summary_one, summary_eight);
}

#[test]
fn flush_records_parse_back_and_carry_their_identity() {
    let (lines, summary) = run_script(2);
    for (line, (trace_id, _, n_requests)) in lines.iter().zip(&summary) {
        let record = TraceRecord::from_jsonl(line).expect("stream lines parse back");
        let TraceRecord::Flush(flush) = record else {
            panic!("front-end dispatch emits Flush records only");
        };
        assert_eq!(&flush.batch.trace_id, trace_id);
        let seed = hdp_osr::core::flush_seed(BASE_SEED, &flush.tenant, flush.flush_epoch);
        assert_eq!(flush.batch.trace_id, flush_trace_id(&flush.tenant, flush.flush_epoch, seed));
        assert_eq!(flush.requests.len(), *n_requests);
        for sweep in &flush.batch.sweeps {
            assert_eq!(sweep.wall_ns, 0, "wall time never enters the stream");
        }
    }
}

/// Drive one front-end through many dispatch rounds of varying size at
/// `workers`, returning every round's outcomes (debug-printed, so every
/// float is compared to the bit) and flush-trace lines, in order.
fn run_rounds(workers: usize) -> (Vec<String>, Vec<String>) {
    let registry = registry();
    let mut frontend = Frontend::new(FrontendConfig {
        dim: 2,
        max_batch: MAX_BATCH,
        max_delay_ns: MAX_DELAY_NS,
        max_queue_depth: 64,
        base_seed: BASE_SEED,
    })
    .expect("valid config");
    let mut rng = StdRng::seed_from_u64(BASE_SEED);
    let ring = Arc::new(RingSink::new(256));
    let sink: Arc<dyn TraceSink> = ring.clone();
    let mut outcomes = Vec::new();
    for round in 0..12u64 {
        // Rounds of 1 to 6 micro-batches: size flushes of both tenants plus
        // an occasional deadline flush of a straggler pair.
        let now = round * 10 * MAX_DELAY_NS;
        for (tenant, cx) in [("acme", -6.0), ("beta", 6.0)] {
            let flushes = usize::try_from((round + u64::from(tenant == "beta")) % 3).unwrap();
            for point in blob(&mut rng, cx, 0.0, flushes * MAX_BATCH) {
                frontend.enqueue(tenant, point, now).expect("admitted");
            }
        }
        if round % 4 == 1 {
            for point in blob(&mut rng, 0.0, 9.0, 2) {
                frontend.enqueue("acme", point, now).expect("admitted");
            }
            frontend.poll(now + MAX_DELAY_NS);
        }
        let round_outcomes =
            frontend.dispatch(&registry, workers, &ServePolicy::default(), Some(&sink));
        assert!(!round_outcomes.is_empty(), "round {round} dispatched nothing");
        outcomes.push(format!("{round_outcomes:?}"));
    }
    let lines = ring.records().iter().map(TraceRecord::to_jsonl).collect();
    (outcomes, lines)
}

#[test]
fn many_rounds_on_one_frontend_are_identical_at_1_2_and_8_workers() {
    let (one, one_lines) = run_rounds(1);
    let (two, two_lines) = run_rounds(2);
    let (eight, eight_lines) = run_rounds(8);
    assert!(one_lines.len() > 12, "every round emits flush traces");
    assert_eq!(one, two, "outcomes: 1 vs 2 workers");
    assert_eq!(one, eight, "outcomes: 1 vs 8 workers");
    assert_eq!(one_lines, two_lines, "flush traces: 1 vs 2 workers");
    assert_eq!(one_lines, eight_lines, "flush traces: 1 vs 8 workers");
}
