//! The `replicate` runner rejects bad flag values with its usage message
//! and exit code 2, before any experiment starts.

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
