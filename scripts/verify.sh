#!/usr/bin/env bash
# Full verification gate: release build, every test suite in the workspace,
# and warnings-as-errors clippy and rustdoc passes over every workspace crate
# (including the vendored dependency shims) — then the same test + clippy +
# rustdoc gate again with the deterministic fault-injection harness compiled
# in, which unlocks the serving stack's robustness acceptance suite
# (tests/fault_injection.rs).
#
# On top of the two workspace passes come a smoke run of the `replicate`
# runner, the staleness gates of the committed BENCH_*.json reports and one
# release-mode pass of the suites that pin the committed goldens and the
# isolation contract, so they also hold on an optimized build.
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release
# The repository benchmark is its own package outside the workspace: build
# it here so a library API change that breaks it fails the gate.
cargo build --offline --release --manifest-path e2ebench/Cargo.toml
cargo test -q
cargo clippy --workspace --all-targets -- -D warnings
# Every intra-doc link must resolve, and public docs must not link private
# items.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

# Workspace invariant linter: determinism, panic-freedom on serving paths,
# unsafe hygiene, atomic orderings, fault-site registration. The JSON
# report is kept as a build artifact; any violation fails the gate.
mkdir -p results
if ! cargo run --release -q -p osr-lint -- --format json > results/lint_report.json; then
    echo "verify: FAIL — osr-lint found invariant violations:" >&2
    cargo run --release -q -p osr-lint || true
    exit 1
fi

# The replication runner end to end at smoke scale (one figure pair and one
# discovery table), so a broken experiment fails the gate. Stdout is not
# checked here; the serving summaries on stderr stay visible.
cargo run --release -q -p osr-bench --bin replicate -- pendigits --quick > /dev/null
cargo run --release -q -p osr-bench --bin replicate -- table2 --quick > /dev/null

# The same gate with the deterministic fault-injection harness compiled in.
# The root `Cargo.toml` sets `default-members` to every crate, so each of
# the two `cargo test -q` passes runs every suite in the workspace: the
# golden traces and observability suites, the bank-equivalence parity
# properties, the method-agnostic serving parity, the snapshot durability
# and front-end suites, and every crate's unit tests.
cargo test -q --features fault-inject
cargo clippy --workspace --all-targets --features fault-inject -- -D warnings
# The rustdoc gate once more over private items and the feature-gated
# modules, so the docs of private modules (the sampler's engine, trace and
# watchdog, the serving attempt) cannot link stale items silently.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q --document-private-items \
    --features fault-inject

# Bench-schema staleness: each committed benchmark report must carry the
# fields of its current schema. A missing field means the report predates
# that schema; regenerate it with the named bench.
#   BENCH_serving.json: the kernel-invocation counters of the SoA posterior
#     bank and the method tag + serve counters of the method-agnostic
#     schema (v2).
#   BENCH_predictive.json: the batch-vs-one kernel per block size (1, 2, 4,
#     8), so the small blocks the determinant-lemma path scores stay visible
#     next to the fresh path.
#   BENCH_snapshot.json: save/load latency and bytes-on-disk vs. posterior
#     size.
require_fields() {
    local file=$1 bench=$2 field
    shift 2
    for field in "$@"; do
        if ! grep -q "\"$field\"" "$file"; then
            echo "verify: FAIL — $file lacks '$field'; the report is stale," >&2
            echo "        regenerate with: cargo bench -p osr-bench --bench $bench" >&2
            exit 1
        fi
    done
}
require_fields BENCH_serving.json serving one_vs_all_kernels_per_batch \
    batch_vs_one_kernels_per_batch schema method serve_retries degraded_batches
require_fields BENCH_predictive.json predictive seed dims one_vs_all batch_vs_one_by_block
require_fields BENCH_snapshot.json snapshot schema n_dishes bytes_on_disk save_median_us \
    load_median_us

# The golden, fault-injection and snapshot suites once more at release
# speed: the optimized build shifts how dispatch workers interleave, and the
# committed goldens (the front-end coalescing stream, the batch streams and
# fit traces, and the replica fleet's streams, all asserted byte for byte in
# both passes above) and the isolation contract must hold under that timing
# too.
cargo test -q --release --features fault-inject --test frontend_golden --test fault_injection \
    --test trace_determinism --test snapshot_persistence

echo "verify: build + tests + clippy + rustdoc + lint + replicate smoke + golden traces + snapshot durability green (default and fault-inject)"
