//! Reproduction harness for the paper's evaluation section.
//!
//! `src/bin/replicate.rs` runs every figure, table and ablation, and
//! `src/bin/osr.rs` runs the methods on a CSV file; shared sweep plumbing is
//! in [`harness`]. The per-layer benches in `benches/` time through
//! [`timing`] and write the committed `BENCH_*.json` reports.

pub mod chart;
pub mod harness;
pub mod timing;
