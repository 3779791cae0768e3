//! End-to-end golden test: the committed fixture tree must produce exactly
//! the committed JSON report, byte for byte.
//!
//! The fixture tree (`crates/lint/fixtures/`) mirrors the workspace layout
//! so every scoped rule fires at its real path: panic/index violations in
//! `crates/core/src/serving.rs` and the baseline serve adapter
//! `crates/baselines/src/serve.rs`, an `allow-file` pragma in
//! `crates/hdp/src/engine.rs`, hash iteration in the sampler, serialized
//! wall clock in the trace module, SAFETY-less `unsafe` in a vendored shim,
//! an orphaned fault site, and the front-end's panic/index/SeqCst triple in
//! `crates/core/src/frontend.rs`. A report drift — new rule, changed message,
//! changed ordering — shows up here as a readable diff.

use std::path::Path;

fn fixture_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures")
}

#[test]
fn fixture_tree_json_matches_golden() {
    let report = osr_lint::run(&fixture_root()).expect("scan fixture tree");
    let got = report.render_json();
    let want = include_str!("golden_report.json");
    assert_eq!(got.trim(), want.trim(), "fixture report drifted from the golden file");
}

#[test]
fn fixture_tree_counts() {
    let report = osr_lint::run(&fixture_root()).expect("scan fixture tree");
    assert_eq!(report.files_scanned, 16);
    assert_eq!(report.violations.len(), 27);
    assert_eq!(report.allowed, 7, "four trailing allows + three allow-file suppressions");
}

#[test]
fn report_is_deterministic_across_runs() {
    let a = osr_lint::run(&fixture_root()).expect("first scan");
    let b = osr_lint::run(&fixture_root()).expect("second scan");
    assert_eq!(a.render_json(), b.render_json());
    assert_eq!(a.render_human(), b.render_human());
}

#[test]
fn human_rendering_carries_spans_and_rules() {
    let report = osr_lint::run(&fixture_root()).expect("scan fixture tree");
    let human = report.render_human();
    assert!(human.contains("crates/core/src/serving.rs:4: [panic-path]"));
    assert!(human.contains("crates/stats/src/faults.rs:8: [fault-site-registration]"));
    assert!(human.contains("crates/stats/src/bank.rs:9: [predictive-no-alloc]"));
    assert!(human.contains("crates/stats/src/bank.rs:17: [predictive-no-alloc]"));
    assert!(human.contains("crates/stats/src/bank.rs:30: [predictive-no-alloc]"));
    assert!(human.contains("crates/stats/src/bank.rs:31: [predictive-no-alloc]"));
    assert!(human.contains("crates/baselines/src/serve.rs:4: [unchecked-index]"));
    assert!(human.contains("crates/core/src/snapshot.rs:4: [snapshot-versioned]"));
    assert!(human.contains("crates/stats/src/snapshot.rs:10: [snapshot-versioned]"));
    assert!(human.contains("crates/core/src/frontend.rs:7: [seqcst-atomic]"));
    assert!(human.contains("crates/core/src/frontend.rs:11: [unchecked-index]"));
    assert!(human.contains("crates/core/src/frontend.rs:15: [panic-path]"));
    assert!(human.contains("27 violation(s)"));
}
