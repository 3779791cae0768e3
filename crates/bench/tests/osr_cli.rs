//! The `osr` CSV CLI end to end on the committed demo file: its method table,
//! its `--list` text, and its exit codes for an unknown method and for
//! methods that fail.

use std::process::{Command, Output};

fn osr(args: &[&str]) -> Output {
    let demo = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/demo.csv");
    // One process at a time; each run takes milliseconds.
    Command::new(env!("CARGO_BIN_EXE_osr"))
        .args(["--data", demo])
        .args(args)
        .output()
        .expect("spawn osr")
}

#[test]
fn osnn_row_on_the_demo_file_is_pinned() {
    let out = osr(&["--method", "osnn", "--trials", "2"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "method\tf_measure\tf_std\taccuracy\tacc_std\ttrials\n\
         OSNN\t0.4809\t0.0382\t0.3795\t0.0947\t2\n"
    );
}

#[test]
fn list_prints_every_method() {
    let out = osr(&["--list"]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "hdp-osr   the paper's collective-decision model (default)\n\
         1-vs-set  linear slab machine (Scheirer et al. 2013)\n\
         w-osvm    one-class SVM + Weibull calibration\n\
         w-svm     Weibull-calibrated SVM (Scheirer et al. 2014)\n\
         pi-svm    probability-of-inclusion SVM (Jain et al. 2014)\n\
         osnn      nearest-neighbour distance ratio (Júnior et al. 2017)\n\
         all       run every method\n"
    );
}

#[test]
fn unknown_method_exits_with_code_2() {
    let out = osr(&["--method", "bogus"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    assert!(out.stdout.is_empty(), "an unknown method printed results");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown method \"bogus\""), "{stderr}");
}

#[test]
fn every_listed_method_is_accepted() {
    let list = osr(&["--list"]);
    let list = String::from_utf8_lossy(&list.stdout);
    for name in list.lines().filter_map(|line| line.split_whitespace().next()) {
        // Zero trials fails every method before it trains: exit 1, not the
        // unknown-method exit 2.
        let out = osr(&["--method", name, "--trials", "0"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "--method {name}: {stderr}");
        assert!(!stderr.contains("unknown method"), "--method {name}: {stderr}");
    }
}

#[test]
fn zero_trials_fails_without_printing_a_row() {
    let out = osr(&["--method", "osnn", "--trials", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "method\tf_measure\tf_std\taccuracy\tacc_std\ttrials\n"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("OSNN: failed: invalid config: trials must be ≥ 1"), "{stderr}");
}

#[test]
fn a_failed_method_fails_the_run_after_the_rows_that_succeeded() {
    // Zero sweeps fails every HDP-OSR trial; the five baselines still report.
    let out = osr(&["--method", "all", "--trials", "2", "--iters", "0"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        "method\tf_measure\tf_std\taccuracy\tacc_std\ttrials\n\
         1-vs-Set\t0.8816\t0.1001\t0.9241\t0.0694\t2\n\
         W-OSVM\t0.9333\t0.0000\t0.9643\t0.0000\t2\n\
         W-SVM\t0.9333\t0.0000\t0.9643\t0.0000\t2\n\
         PI-SVM\t0.9333\t0.0000\t0.9643\t0.0000\t2\n\
         OSNN\t0.4809\t0.0382\t0.3795\t0.0947\t2\n"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("HDP-OSR: failed"), "{stderr}");
}
