//! Workspace walking.
//!
//! The walker enumerates the same tree `cargo` builds: the root package's
//! `src`/`tests`/`examples`/`benches` plus every `crates/<name>` member's
//! `src`/`tests`/`benches`. Paths are reported workspace-relative with
//! forward slashes so reports are identical across machines. Ordering is
//! sorted, so a full run is deterministic end to end.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directories scanned inside the workspace root itself.
const ROOT_DIRS: &[&str] = &["src", "tests", "examples", "benches"];
/// Directories scanned inside each `crates/<name>` member.
const CRATE_DIRS: &[&str] = &["src", "tests", "benches"];

/// Every `.rs` file of the workspace at `root`, as sorted
/// `(relative_path, contents)` pairs.
pub fn collect_sources(root: &Path) -> io::Result<Vec<(String, String)>> {
    let mut files: Vec<PathBuf> = Vec::new();
    for dir in ROOT_DIRS {
        walk_rs(&root.join(dir), &mut files);
    }
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut members: Vec<PathBuf> = entries
            .flatten()
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            for dir in CRATE_DIRS {
                walk_rs(&member.join(dir), &mut files);
            }
        }
    }
    let mut out = Vec::with_capacity(files.len());
    for path in files {
        let rel = relative_slash(root, &path);
        let contents = fs::read_to_string(&path)?;
        out.push((rel, contents));
    }
    out.sort_by(|a, b| a.0.cmp(&b.0));
    Ok(out)
}

/// Recursively collect `.rs` files under `dir` (missing dirs are fine).
fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else { return };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// `path` relative to `root`, with forward slashes.
fn relative_slash(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    let s = rel.to_string_lossy().replace('\\', "/");
    s
}

/// Locate the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_paths_use_forward_slashes() {
        let root = Path::new("/a/b");
        assert_eq!(relative_slash(root, Path::new("/a/b/crates/x/src/lib.rs")),
                   "crates/x/src/lib.rs");
    }
}
