//! The `replicate` runner end to end: its Tables 1 and 2 at `--quick` scale
//! are pinned byte for byte, with the stderr line scoring each table's
//! discovery, and it rejects bad flag values with its usage
//! message and exit code 2, before any experiment starts.

use std::process::Command;

#[test]
fn scale_that_is_not_finite_and_positive_exits_with_usage() {
    // One process at a time: each exits while parsing its flags.
    for bad in ["0", "nan", "-1", "inf"] {
        let out = Command::new(env!("CARGO_BIN_EXE_replicate"))
            .args(["table2", "--quick", "--scale", bad])
            .output()
            .expect("spawn replicate");
        assert_eq!(out.status.code(), Some(2), "--scale {bad}: {out:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("usage: replicate"), "--scale {bad}: {stderr}");
        assert!(out.stdout.is_empty(), "--scale {bad} printed results");
    }
}

/// Stdout of `replicate <experiment> --quick`, which must exit cleanly, and
/// the stderr line that scores its discovery.
fn quick_run(experiment: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_replicate"))
        .args([experiment, "--quick"])
        .output()
        .expect("spawn replicate");
    assert!(out.status.success(), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let prefix = format!("[{experiment}] discovery: ");
    let discovery = stderr
        .lines()
        .find(|l| l.starts_with(&prefix))
        .unwrap_or_else(|| panic!("no discovery line on stderr: {stderr}"));
    (String::from_utf8_lossy(&out.stdout).into_owned(), discovery.to_string())
}

/// Stdout of `replicate table1 --quick`: the USPS discovery table, the one
/// replication path at d = 39 (USPS after PCA), and its Eq. 11 estimate,
/// Δ = 4 as in the paper. The same bytes in debug and release builds.
const TABLE1_QUICK: &str = r#"# USPS — new class discovery under HDP-OSR
# known classes (original ids): [1, 3, 6, 2, 9]; unknown classes: [5, 8, 7, 4, 0]
Group          # Subclass  Subclasses (id: %)
Class1                  1  S46: 100.00%
Class2                  1  S47: 100.00%
Class3                  2  S49: 54.55%  S48: 45.45%
Class4                  1  S50: 100.00%
Class5                  1  S51: 100.00%
Testing-Set            11  Known subclasses (#: 6) 28.43% | New subclasses (#: 5) 71.57%
Estimated unknown categories (Eq. 11): Δ = 4

# |S_known| = 6, |S_unknown| = 5, J-1 = 5, true unknown classes = 5
# paper: Δ = 4 with 5 true unknown classes (USPS), Δ ≈ 4 (PENDIGITS)
"#;

/// Every unknown point is rejected and the five new subclasses are the five
/// unknown classes.
const TABLE1_QUICK_DISCOVERY: &str = "[table1] discovery: matched accuracy 1.000 over 365 unknown \
     points (365 rejected), 5 new subclasses; known accuracy 1.000, HNA 1.000";

#[test]
fn table1_quick_stdout_is_pinned() {
    let (stdout, discovery) = quick_run("table1");
    assert_eq!(stdout, TABLE1_QUICK);
    assert_eq!(discovery, TABLE1_QUICK_DISCOVERY);
}

/// Stdout of `replicate table2 --quick`: the PENDIGITS discovery table and
/// its Eq. 11 estimate. The same bytes in debug and release builds.
const TABLE2_QUICK: &str = r#"# PENDIGITS — new class discovery under HDP-OSR
# known classes (original ids): [1, 3, 6, 2, 9]; unknown classes: [5, 8, 7, 4, 0]
Group          # Subclass  Subclasses (id: %)
Class1                  2  S109: 75.76%  S108: 24.24%
Class2                  3  S4: 51.52%  S110: 27.27%  S111: 21.21%
Class3                  4  S112: 48.48%  S114: 27.27%  S113: 22.73%  S115: 1.52%
Class4                  2  S117: 75.76%  S116: 24.24%
Class5                  2  S118: 83.08%  S119: 16.92%
Testing-Set            16  Known subclasses (#: 12) 44.34% | New subclasses (#: 4) 55.66%
Estimated unknown categories (Eq. 11): Δ = 2

# |S_known| = 13, |S_unknown| = 4, J-1 = 5, true unknown classes = 5
# paper: Δ = 4 with 5 true unknown classes (USPS), Δ ≈ 4 (PENDIGITS)
"#;

/// Four new subclasses for five unknown classes, and 121 unknowns accepted
/// as known.
const TABLE2_QUICK_DISCOVERY: &str = "[table2] discovery: matched accuracy 0.565 over 550 unknown \
     points (429 rejected), 4 new subclasses; known accuracy 0.995, HNA 0.721";

#[test]
fn table2_quick_stdout_is_pinned() {
    let (stdout, discovery) = quick_run("table2");
    assert_eq!(stdout, TABLE2_QUICK);
    assert_eq!(discovery, TABLE2_QUICK_DISCOVERY);
}
