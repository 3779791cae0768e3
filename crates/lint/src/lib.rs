//! `osr-lint` — the workspace invariant linter.
//!
//! The serving stack stakes correctness on invariants no compiler checks:
//! bit-identical golden traces across worker counts, panic-isolated
//! no-unwrap serving paths, `(seed, index)`-derived RNGs everywhere. This
//! crate machine-enforces them as a test gate: `tests/workspace_clean.rs`
//! runs [`run`] over the repository and fails on any violation.
//!
//! Design constraints, in order:
//!
//! 1. **No external parser.** A line/token scanner over blanked source
//!    (comments and string literals removed) is enough for every rule
//!    here, keeps the linter out of the dependency graph it polices, and
//!    honors the workspace's vendored-shim policy.
//! 2. **Deterministic reports.** Sorted file walk, sorted diagnostics, no
//!    timestamps: the JSON report over the committed fixture tree is a
//!    golden file.
//! 3. **Never panics.** The scanner is fuzzed with arbitrary text; a
//!    linter that takes CI down is worse than no linter.
//!
//! See `rules/` for the registry and [`pragma`] for the
//! `// osr-lint: allow(rule, reason)` escape hatch.

#![warn(missing_docs)]
#![deny(unsafe_code)]
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod diagnostics;
pub mod pragma;
pub mod rules;
pub mod scanner;
pub mod workspace;

use std::io;
use std::path::Path;

use diagnostics::Report;

/// Run the full lint over the workspace at `root`.
///
/// # Errors
/// Propagates I/O failures reading the source tree.
pub fn run(root: &Path) -> io::Result<Report> {
    let mut report = Report::default();
    let mut faults_scanned = None;
    let mut registry_raw = None;

    for (path, text) in &workspace::collect_sources(root)? {
        let scanned = scanner::scan(text);
        if path == rules::FAULT_REGISTRY_FILE {
            registry_raw = Some(text.clone());
        }
        report.files_scanned += 1;
        let pragmas = pragma::collect(&scanned, path);
        // Malformed pragmas are violations themselves and cannot be
        // suppressed.
        report.violations.extend(pragmas.diagnostics.iter().cloned());
        for diag in rules::check_file(path, &scanned) {
            if pragmas.allows(&diag.rule, diag.line) {
                report.allowed += 1;
            } else {
                report.violations.push(diag);
            }
        }
        if path == rules::FAULT_SITES_FILE {
            faults_scanned = Some(scanned);
        }
    }

    if let Some(faults) = &faults_scanned {
        let pragmas = pragma::collect(faults, rules::FAULT_SITES_FILE);
        for diag in rules::fault_sites::check(
            rules::FAULT_SITES_FILE,
            faults,
            rules::FAULT_REGISTRY_FILE,
            registry_raw.as_deref(),
        ) {
            if pragmas.allows(&diag.rule, diag.line) {
                report.allowed += 1;
            } else {
                report.violations.push(diag);
            }
        }
    }

    report.finish();
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_tree_reports_clean(){
        // The linter's own crate directory is a valid (empty-ish) root: no
        // crates/ subtree, no src/ violations — but `src` here is the lint
        // source itself, which must be clean.
        let root = Path::new(env!("CARGO_MANIFEST_DIR"));
        let report = run(root).expect("scan own crate");
        assert!(
            report.violations.is_empty(),
            "osr-lint must pass its own rules: {:?}",
            report.violations
        );
        assert!(report.files_scanned > 0);
    }
}
