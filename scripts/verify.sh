#!/usr/bin/env bash
# Full verification gate: release build, one pass of every test suite in the
# workspace (the fault-injection harness is compiled into every build, so
# this includes the serving stack's robustness acceptance suite,
# tests/fault_injection.rs; the osr-lint workspace scan and the staleness
# check of the committed BENCH_*.json reports are tests too), one
# warnings-as-errors clippy pass and two rustdoc passes (public, then private
# items) over every workspace crate, including the vendored dependency shims.
#
# On top of that come a smoke run of the `replicate` runner and one
# release-mode pass of the suites that pin the committed goldens and the
# isolation contract, so they also hold on an optimized build.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The repository benchmark is its own package outside the workspace: build
# it here so a library API change that breaks it fails the gate. `--locked`
# makes a manifest edit that would rewrite e2ebench/Cargo.lock fail here
# instead of silently changing the benchmark's lockfile.
cargo build --offline --locked --release --manifest-path e2ebench/Cargo.toml
# The root `Cargo.toml` sets `default-members` to every crate, so this one
# pass runs every suite in the workspace: the golden traces and
# observability suites, the bank-equivalence parity properties, the
# method-agnostic serving parity, the snapshot durability, front-end and
# fault-injection suites, the osr-lint workspace scan
# (crates/lint/tests/workspace_clean.rs), the BENCH_*.json staleness check
# (crates/bench/tests/bench_reports.rs), and every crate's unit tests.
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Every intra-doc link must resolve, and public docs must not link private
# items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
# Once more over private items, so the docs of private modules (the
# sampler's engine, trace and watchdog, the serving attempt) cannot link
# stale items silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --document-private-items

# The replication runner end to end at smoke scale (one figure pair), so a
# broken experiment fails the gate. Stdout is not checked here; the serving
# summaries on stderr stay visible. The `table1 --quick` and `table2 --quick`
# discovery tables are pinned byte for byte by
# crates/bench/tests/replicate_cli.rs in the test pass above.
cargo run --release -q -p osr-bench --bin replicate -- pendigits --quick > /dev/null

# The golden, fault-injection and snapshot suites once more at release
# speed: the optimized build shifts how dispatch workers interleave, and the
# committed goldens (the front-end coalescing stream, the batch streams and
# fit traces, and the replica fleet's streams, all asserted byte for byte in
# the test pass above) and the isolation contract must hold under that
# timing too.
cargo test -q --release --test frontend_golden --test fault_injection \
    --test trace_determinism --test snapshot_persistence

echo "verify: build + tests + clippy + rustdoc + replicate smoke + golden traces + snapshot durability + fault injection green"
