//! `predictive-no-alloc`: keep the dish bank's fused predictive kernels
//! allocation-free and clock-free.
//!
//! The whole point of the struct-of-arrays posterior layout is that the hot
//! kernels — `score_all`/`score_prior` (one observation vs. every dish,
//! through their shared `solve_lanes`/`lane_logpdf` bodies), the
//! `block_predictive*` family (a batch vs. one dish) with its
//! determinant-lemma helpers `lowrank_log_det`/`fill_helmert`, and the
//! rank-m `attach_block`/`detach_block` state updates — run on
//! caller-provided or bank-owned scratch. A stray `Vec::new()`,
//! `Vec::with_capacity(..)`, `vec![...]`, `.clone()`, `.to_vec()` or
//! `.collect()` inside either kernel silently reintroduces the
//! per-evaluation heap traffic the refactor removed, and nothing in the
//! type system would catch it. This rule bans those tokens inside the kernel
//! function bodies (and only there — slower convenience wrappers in the same
//! file may allocate freely).
//!
//! The same scan flags clock reads (`Instant::now`, `SystemTime::now`): a
//! per-call timestamp pair costs a measurable share of a short sweep, so
//! kernel time is measured by `benches/predictive.rs` and sweep time by the
//! sampler's `SweepTrace.wall_ns`, never inside a kernel.
//!
//! A genuinely justified allocation or clock read (none is expected) takes
//! the standard `// osr-lint: allow(predictive-no-alloc, reason)` pragma.
//!
//! Detection: brace-depth tracking from each `fn <kernel>` line to its
//! closing brace, over scanner-blanked code (strings and comments never
//! false-positive). Tokens are matched with identifier-boundary checks so
//! e.g. `non_vec_fn()` or `reclone_id` never trip it; a clock read counts
//! under any path prefix (`std::time::Instant::now()` included).

use crate::diagnostics::Diagnostic;
use crate::scanner::ScannedFile;

/// The hot kernel functions that must stay allocation-free: the two fused
/// predictive shapes (plus their shared-stats and prior entry points and
/// the per-lane solve and density the one-vs-all pair shares), the block
/// kernel's determinant-lemma helpers (the low-rank log-determinant and the
/// Helmert columns it consumes), and the rank-m block attach/detach that
/// the table-dish move runs per sweep.
const KERNEL_FNS: &[&str] = &[
    "score_all",
    "score_prior",
    "solve_lanes",
    "lane_logpdf",
    "block_predictive",
    "block_predictive_stats",
    "block_predictive_prior",
    "lowrank_log_det",
    "fill_helmert",
    "attach_block",
    "detach_block",
    "compute_block_stats",
];

/// Allocation tokens banned inside the kernels. `(needle, must_follow_dot)`:
/// dot-method tokens only count as calls when written `.needle()`.
const ALLOC_TOKENS: &[(&str, bool)] = &[
    ("Vec::new", false),
    ("Vec::with_capacity", false),
    ("vec!", false),
    ("Box::new", false),
    ("String::new", false),
    ("to_owned", true),
    ("to_vec", true),
    ("clone", true),
    ("collect", true),
];

/// Clock reads banned inside the kernels, matched after any `::` path
/// prefix.
const CLOCK_TOKENS: &[&str] = &["Instant::now", "SystemTime::now"];

/// Flag allocation tokens and clock reads inside the predictive kernel
/// bodies of `path`.
pub fn check(path: &str, file: &ScannedFile) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut depth_into_kernel: Option<i32> = None;
    let mut depth: i32 = 0;
    for (idx, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let code = &line.code;
        let entering = depth_into_kernel.is_none()
            && KERNEL_FNS.iter().any(|f| has_fn_decl(code, f));
        if entering {
            // Body starts at this function's opening brace depth.
            depth_into_kernel = Some(depth);
        }
        if depth_into_kernel.is_some() {
            let message = if let Some(tok) = first_alloc_token(code) {
                Some(format!(
                    "`{tok}` allocates inside a fused predictive kernel; use the \
                     caller-provided scratch / bank-owned buffers, or document why \
                     with an allow pragma"
                ))
            } else {
                first_clock_token(code).map(|tok| {
                    format!(
                        "`{tok}` reads the clock inside a fused predictive kernel; time \
                         kernels in benches/predictive.rs and sweeps via \
                         SweepTrace.wall_ns, or document why with an allow pragma"
                    )
                })
            };
            if let Some(message) = message {
                out.push(Diagnostic {
                    rule: "predictive-no-alloc".to_string(),
                    file: path.to_string(),
                    line: idx + 1,
                    message,
                });
            }
        }
        for b in code.bytes() {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if let Some(base) = depth_into_kernel {
                        if depth <= base {
                            depth_into_kernel = None;
                        }
                    }
                }
                _ => {}
            }
        }
    }
    out
}

/// True when `code` declares `fn name` (identifier-boundary on both sides).
fn has_fn_decl(code: &str, name: &str) -> bool {
    let mut search = code;
    while let Some(pos) = search.find("fn ") {
        let after = &search[pos + 3..];
        if let Some(rest) = after.strip_prefix(name) {
            let boundary = rest
                .bytes()
                .next()
                .is_none_or(|b| !(b.is_ascii_alphanumeric() || b == b'_'));
            if boundary {
                return true;
            }
        }
        search = &search[pos + 3..];
    }
    false
}

/// First banned allocation token on the line, if any.
fn first_alloc_token(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    for &(needle, needs_dot) in ALLOC_TOKENS {
        let mut from = 0;
        while let Some(rel) = code[from..].find(needle) {
            let start = from + rel;
            let end = start + needle.len();
            from = end;
            // Identifier boundary before (or a required `.` receiver)…
            if needs_dot {
                if start == 0 || bytes[start - 1] != b'.' {
                    continue;
                }
            } else if start > 0 {
                let prev = bytes[start - 1];
                if prev.is_ascii_alphanumeric() || prev == b'_' || prev == b':' {
                    continue;
                }
            }
            // …and a call/boundary after: dot-methods must be invoked.
            if needs_dot {
                if bytes.get(end) == Some(&b'(') {
                    return Some(needle);
                }
                continue;
            }
            let next_ok = bytes
                .get(end)
                .is_none_or(|&b| !(b.is_ascii_alphanumeric() || b == b'_'));
            if next_ok {
                return Some(needle);
            }
        }
    }
    None
}

/// First banned clock read on the line, if any: the token must not extend
/// an identifier on either side (`MyInstant::now` and `Instant::nowish` are
/// other functions), but may follow a `::` path prefix.
fn first_clock_token(code: &str) -> Option<&'static str> {
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
    CLOCK_TOKENS.iter().copied().find(|needle| {
        code.match_indices(needle).any(|(start, _)| {
            let end = start + needle.len();
            (start == 0 || !is_ident(bytes[start - 1]))
                && bytes.get(end).is_none_or(|&b| !is_ident(b))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::scan;

    fn lint(src: &str) -> Vec<Diagnostic> {
        check("crates/stats/src/bank.rs", &scan(src))
    }

    #[test]
    fn flags_allocation_in_kernel_bodies() {
        let src = "\
impl DishBank {
    pub fn score_all(&self) {
        let v = Vec::new();
    }
}
";
        let d = lint(src);
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].line, 3);
        assert_eq!(d[0].rule, "predictive-no-alloc");
    }

    #[test]
    fn flags_each_banned_token() {
        for tok in [
            "vec![0.0; 4]",
            "Vec::with_capacity(1)",
            "x.clone()",
            "y.to_vec()",
            "it.collect()",
            "Box::new(3)",
        ] {
            let src = format!(
                "fn block_predictive() {{\n    let _ = {tok};\n}}\n"
            );
            assert_eq!(lint(&src).len(), 1, "should flag `{tok}`");
        }
    }

    #[test]
    fn flags_clock_reads_in_kernel_bodies() {
        for read in [
            "std::time::Instant::now()",
            "Instant::now()",
            "std::time::SystemTime::now()",
            "SystemTime::now()",
        ] {
            let src = format!("fn score_prior() {{\n    let t = {read};\n}}\n");
            let d = lint(&src);
            assert_eq!(d.len(), 1, "should flag `{read}`");
            assert_eq!(d[0].line, 2);
            assert!(d[0].message.contains("reads the clock"), "{}", d[0].message);
        }
        let near_misses = "\
fn block_predictive_stats() {
    let a = MyInstant::now();
    let b = Instant::nowish();
    let _ = (a, b);
}
fn timed_wrapper() {
    let t = std::time::Instant::now();
    let _ = t;
}
";
        assert!(lint(near_misses).is_empty(), "near-miss names and non-kernels are clean");
    }

    #[test]
    fn ignores_allocation_outside_the_kernels() {
        let src = "\
fn predictive_one() {
    let scratch = vec![0.0; 8];
    let out = Vec::new();
    let _ = (scratch, out);
}
fn score_all_helper_tables() {
    let v = Vec::new();
    let _ = v;
}
";
        assert!(lint(src).is_empty(), "wrappers and near-miss names may allocate");
    }

    #[test]
    fn kernel_scope_ends_at_its_closing_brace() {
        let src = "\
impl DishBank {
    pub fn score_all(&self, slots: &[usize]) {
        for &s in slots {
            let _ = s;
        }
    }
    pub fn after() {
        let v = Vec::new();
        let _ = v;
    }
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn identifier_boundaries_do_not_false_positive() {
        let src = "\
fn score_all() {
    let reclone_id = 3;
    let cloned = myclone(reclone_id);
    let _ = cloned;
}
";
        assert!(lint(src).is_empty());
    }

    #[test]
    fn test_code_is_exempt() {
        let src = "\
#[cfg(test)]
mod tests {
    fn score_all() {
        let v = Vec::new();
        let _ = v;
    }
}
";
        assert!(lint(src).is_empty());
    }
}
