//! The rule registry: which invariant each rule guards and where it looks.
//!
//! Every rule is a pure function from a [`ScannedFile`] (plus its
//! workspace-relative path) to diagnostics; the engine in `lib.rs` applies
//! allow pragmas afterwards so suppression logic lives in one place.
//!
//! Scoping is deliberate and repo-specific (this is a workspace linter, not
//! a general tool): the panic-path rules police exactly the serving files
//! whose panics would cross a `catch_unwind` boundary, the hash rules the
//! sampler/trace paths whose iteration order reaches golden traces, and so
//! on. Scopes are path prefixes relative to the workspace root.

pub mod alloc_free;
pub mod atomics;
pub mod determinism;
pub mod fault_sites;
pub mod indexing;
pub mod panic_path;
pub mod snapshot;
pub mod unsafe_hygiene;

use crate::diagnostics::Diagnostic;
use crate::scanner::ScannedFile;

/// Every rule name the pragma parser accepts.
pub const RULE_NAMES: &[&str] = &[
    "panic-path",
    "unchecked-index",
    "unsafe-hygiene",
    "wall-clock-serde",
    "hash-iteration",
    "ambient-rng",
    "seqcst-atomic",
    "fault-site-registration",
    "predictive-no-alloc",
    "snapshot-versioned",
];

/// Vendored dependency-shim crates (directory names under `crates/`).
/// `unsafe` is tolerated there with a `// SAFETY:` comment; every other
/// rule skips them — they mirror upstream APIs, not our invariants.
pub const VENDORED_CRATES: &[&str] = &[
    "crossbeam",
    "parking_lot",
    "proptest",
    "rand",
    "serde",
    "serde_derive",
    "serde_json",
];

/// Files on the panic-isolated serving path: a panic here unwinds into the
/// `BatchServer` `catch_unwind` and costs a batch, so unwinding operators
/// are banned outright (PR 3's no-unwrap discipline).
pub const PANIC_FREE_FILES: &[&str] = &[
    "crates/core/src/serving.rs",
    "crates/core/src/admission.rs",
    "crates/core/src/collective.rs",
    "crates/core/src/frontend.rs",
    "crates/core/src/registry.rs",
    "crates/core/src/snapshot.rs",
    "crates/baselines/src/serve.rs",
    "crates/hdp/src/engine.rs",
];

/// Sampler/trace paths whose iteration order feeds the golden-trace suite
/// (PR 4): `HashMap`/`HashSet` iteration order is nondeterministic across
/// processes, so those types are banned here in favour of `BTree*`.
pub const HASH_ORDER_SCOPES: &[&str] = &["crates/hdp/src/", "crates/core/src/observability.rs"];

/// Metrics hot-path files where PR 4 mandates `Relaxed` atomics: a `SeqCst`
/// fence in the per-sweep counter path serializes every sampler thread.
pub const SEQCST_FILES: &[&str] = &[
    "crates/stats/src/metrics.rs",
    "crates/stats/src/counters.rs",
    "crates/core/src/serving.rs",
    "crates/core/src/frontend.rs",
    "crates/core/src/registry.rs",
];

/// The dish-bank module whose fused predictive kernels must stay
/// allocation-free (the `predictive-no-alloc` rule, PR 6: a stray clone in
/// the hot kernels silently undoes the struct-of-arrays speedup).
pub const PREDICTIVE_KERNEL_FILE: &str = "crates/stats/src/bank.rs";

/// Where the fault-injection site registry and its test registry live.
pub const FAULT_SITES_FILE: &str = "crates/stats/src/faults.rs";
/// Integration suite every fault site must appear in.
pub const FAULT_REGISTRY_FILE: &str = "tests/fault_injection.rs";

/// True when `path` (workspace-relative, forward slashes) belongs to a
/// vendored shim crate.
pub fn is_vendored(path: &str) -> bool {
    VENDORED_CRATES.iter().any(|c| {
        path.strip_prefix("crates/")
            .and_then(|rest| rest.strip_prefix(c))
            .is_some_and(|rest| rest.starts_with('/'))
    })
}

/// Run every single-file rule that applies to `path`.
pub fn check_file(path: &str, file: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if is_vendored(path) {
        // Shims only answer for unsafe hygiene.
        out.extend(unsafe_hygiene::check(path, file, true));
        return out;
    }
    out.extend(unsafe_hygiene::check(path, file, false));
    out.extend(determinism::check_wall_clock_serde(path, file));
    out.extend(determinism::check_ambient_rng(path, file));
    if PANIC_FREE_FILES.contains(&path) {
        out.extend(panic_path::check(path, file));
        out.extend(indexing::check(path, file));
    }
    if HASH_ORDER_SCOPES.iter().any(|s| path == *s || path.starts_with(s)) {
        out.extend(determinism::check_hash_iteration(path, file));
    }
    if SEQCST_FILES.contains(&path) {
        out.extend(atomics::check(path, file));
    }
    if path == PREDICTIVE_KERNEL_FILE {
        out.extend(alloc_free::check(path, file));
    }
    // Snapshot modules anywhere in the workspace (the container codec in
    // `osr-stats`, the durable store in `hdp-osr-core`, future methods'
    // persistence layers) answer for the versioning rule by file name.
    if path.starts_with("crates/") && path.ends_with("/snapshot.rs") {
        out.extend(snapshot::check(path, file));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vendored_detection() {
        assert!(is_vendored("crates/rand/src/lib.rs"));
        assert!(is_vendored("crates/serde_json/src/de.rs"));
        assert!(!is_vendored("crates/core/src/serving.rs"));
        assert!(!is_vendored("crates/randomizer/src/lib.rs"), "prefix must be a full dir name");
    }

    #[test]
    fn scopes_route_to_rules() {
        use crate::scanner::scan;
        // A HashMap in an hdp file is flagged; the same text elsewhere not.
        let f = scan("use std::collections::HashMap;\nfn f(m: &HashMap<u8, u8>) {}\n");
        assert!(!check_file("crates/hdp/src/state.rs", &f).is_empty());
        assert!(check_file("crates/eval/src/lib.rs", &f).is_empty());
    }
}
