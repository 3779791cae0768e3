//! The `osr` CSV CLI end to end on the committed demo file: its method table,
//! its `--list` text, and its exit code for an unknown method.

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
