#!/usr/bin/env bash
# Full verification gate: release build, every test suite in the workspace,
# and warnings-as-errors clippy and rustdoc passes over every workspace crate
# (including the vendored dependency shims) — then the same test + clippy +
# rustdoc gate again with the deterministic fault-injection harness compiled
# in, which unlocks the serving stack's robustness acceptance suite
# (tests/fault_injection.rs).
#
# On top of the two workspace passes come a release-mode pass of the
# front-end suites and the byte-diff gates: an end-to-end determinism check
# (the trace_dump binary is run twice with one seed and the JSONL streams
# must be byte-identical), and the replica fleet's snapshot and stream
# identity.
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

# Bench-schema staleness: the committed serving benchmark report must carry
# the kernel-invocation counters the SoA refactor added (PR 6) and the
# method tag + serve counters of the method-agnostic schema (v2). A missing
# field means BENCH_serving.json predates the current schema — regenerate it
# with `cargo bench -p osr-bench --bench serving`.
for field in one_vs_all_kernels_per_batch batch_vs_one_kernels_per_batch \
             schema method serve_retries degraded_batches; do
    if ! grep -q "\"$field\"" BENCH_serving.json; then
        echo "verify: FAIL — BENCH_serving.json lacks '$field'; the report is stale," >&2
        echo "        regenerate with: cargo bench -p osr-bench --bench serving" >&2
        exit 1
    fi
done

# Same staleness gate for the predictive-kernel report: the batch-vs-one
# kernel must be reported per block size (1, 2, 4, 8), so the small blocks
# the determinant-lemma path scores stay visible next to the fresh path.
for field in seed dims one_vs_all batch_vs_one_by_block; do
    if ! grep -q "\"$field\"" BENCH_predictive.json; then
        echo "verify: FAIL — BENCH_predictive.json lacks '$field'; the report is stale," >&2
        echo "        regenerate with: cargo bench -p osr-bench --bench predictive" >&2
        exit 1
    fi
done

# Same staleness gate for the snapshot persistence report (save/load
# latency and bytes-on-disk vs. posterior size).
for field in schema n_dishes bytes_on_disk save_median_us load_median_us; do
    if ! grep -q "\"$field\"" BENCH_snapshot.json; then
        echo "verify: FAIL — BENCH_snapshot.json lacks '$field'; the report is stale," >&2
        echo "        regenerate with: cargo bench -p osr-bench --bench snapshot" >&2
        exit 1
    fi
done

# The front-end and fault-injection suites once more at release speed: the
# optimized build shifts how dispatch workers interleave, and the committed
# coalescing golden (asserted byte for byte by `frontend_golden` in both
# passes above) and the isolation contract must hold under that timing too.
cargo test -q --release --features fault-inject --test frontend_golden --test fault_injection

# Two identical seeded serving runs must write byte-identical trace streams.
./target/release/trace_dump --seed 2026 --out results/trace_verify_a.jsonl
./target/release/trace_dump --seed 2026 --out results/trace_verify_b.jsonl
if ! diff -q results/trace_verify_a.jsonl results/trace_verify_b.jsonl; then
    echo "verify: FAIL — trace stream is not deterministic across identical runs" >&2
    exit 1
fi

# ...and the CD-OSR batch records of that stream must byte-match the
# committed golden: the CollectiveModel seam is not allowed to change a
# single byte of the CD-OSR trace schema (no `method` key, same field
# order). trace_dump serves the golden suite's exact scene, so its Batch
# lines ARE the golden stream. (`echo` supplies the golden's missing
# trailing newline.)
if ! diff <(tail -n +2 results/trace_verify_a.jsonl) \
          <(cat tests/goldens/batch_stream.jsonl; echo); then
    echo "verify: FAIL — CD-OSR trace stream drifted from tests/goldens/batch_stream.jsonl" >&2
    exit 1
fi

# Replica fleet: one snapshot file, three servers with different worker
# counts. The binary itself asserts save → load → re-save byte identity and
# writes the re-encoded container next to the snapshot; here we re-check
# that on disk, demand every replica's stream byte-matches replica 0's, and
# pin replica 0 to the committed golden (the same truth the golden-trace
# suite serves, so a drift here is a snapshot-codec bug, not a new scene).
./target/release/replica_fleet --seed 2026 --replicas 3 \
    --snapshot results/replica_snapshot.bin --out-dir results
if ! cmp -s results/replica_snapshot.bin results/replica_snapshot.bin.resaved; then
    echo "verify: FAIL — re-saved snapshot container is not byte-identical" >&2
    exit 1
fi
for r in 1 2; do
    if ! diff -q "results/replica_${r}.jsonl" results/replica_0.jsonl; then
        echo "verify: FAIL — replica ${r} trace stream diverged from replica 0" >&2
        exit 1
    fi
done
if ! diff results/replica_0.jsonl tests/goldens/replica_stream.jsonl; then
    echo "verify: FAIL — replica stream drifted from tests/goldens/replica_stream.jsonl" >&2
    exit 1
fi

echo "verify: build + tests + clippy + trace determinism + snapshot durability green (default and fault-inject)"
