//! The workspace itself lints clean: every invariant rule over every source
//! file of the repository this crate sits in, with zero violations.

use std::path::Path;

#[test]
fn workspace_has_no_violations() {
    let root = osr_lint::workspace::find_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("a [workspace] manifest above the lint crate");
    let report = osr_lint::run(&root).expect("scan the workspace");
    assert!(report.violations.is_empty(), "osr-lint violations:\n{}", report.render_human());
    // A walk that silently found nothing would pass the check above.
    assert!(report.files_scanned > 100, "scanned only {} files", report.files_scanned);
}
