//! Bench-schema staleness: each committed `BENCH_*.json` report at the
//! repository root must carry the fields of its current schema. A missing
//! field means the report predates that schema; regenerate it with the named
//! bench (`cargo bench -p osr-bench --bench <name>`).

/// `(report file, bench that writes it, fields its schema requires)`.
const REPORTS: &[(&str, &str, &[&str])] = &[
    // The kernel-invocation counters of the SoA posterior bank and the
    // method tag + serve counters of the method-agnostic schema (v2).
    (
        "BENCH_serving.json",
        "serving",
        &[
            "one_vs_all_kernels_per_batch",
            "batch_vs_one_kernels_per_batch",
            "schema",
            "method",
            "serve_retries",
            "degraded_batches",
        ],
    ),
    // The batch-vs-one kernel per block size (1, 2, 4, 8), so the small
    // blocks the determinant-lemma path scores stay visible next to the
    // fresh path.
    (
        "BENCH_predictive.json",
        "predictive",
        &["seed", "dims", "one_vs_all", "batch_vs_one_by_block"],
    ),
    // Save/load latency and bytes-on-disk vs. posterior size.
    (
        "BENCH_snapshot.json",
        "snapshot",
        &["schema", "n_dishes", "bytes_on_disk", "save_median_us", "load_median_us"],
    ),
];

#[test]
fn committed_bench_reports_carry_their_schema_fields() {
    for &(file, bench, fields) in REPORTS {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + file;
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {file}: {e}"));
        for field in fields {
            assert!(
                text.contains(&format!("\"{field}\"")),
                "{file} lacks '{field}'; the report is stale, regenerate with: \
                 cargo bench -p osr-bench --bench {bench}"
            );
        }
    }
}
