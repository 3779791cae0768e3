//! The per-layer benches' one timing path and report writer.
//!
//! `benches/predictive.rs`, `benches/serving.rs` and `benches/snapshot.rs`
//! time every leg through [`measure`] or [`measure_batched`] and write their
//! committed `BENCH_*.json` report through [`write_report`].
//!
//! Method: one untimed warm-up call, then `samples` timed calls, summarized
//! as the median (`sorted[n / 2]`), minimum and mean wall-clock time per
//! call. There is no outlier analysis and no saved baseline.

use std::hint::black_box;
use std::time::{Duration, Instant};

use serde::Serialize;

/// Summary statistics of one timed routine.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Median time per call.
    pub median: Duration,
    /// Minimum time per call.
    pub min: Duration,
    /// Mean time per call.
    pub mean: Duration,
    /// Number of timed calls.
    pub samples: usize,
}

impl Summary {
    fn of(mut times: Vec<Duration>) -> Self {
        times.sort_unstable();
        let n = times.len();
        let total: Duration = times.iter().sum();
        Self { median: times[n / 2], min: times[0], mean: total / n as u32, samples: n }
    }
}

/// Time `routine` as-is: one warm-up call, then `samples` timed calls.
///
/// # Panics
/// Panics if `samples` is zero.
pub fn measure<T>(samples: usize, mut routine: impl FnMut() -> T) -> Summary {
    measure_batched(samples, || (), |()| routine())
}

/// Time `routine` on fresh input from `setup`; only `routine` is timed.
/// `setup` runs once for the warm-up call and once per timed call.
///
/// # Panics
/// Panics if `samples` is zero.
pub fn measure_batched<I, T>(
    samples: usize,
    mut setup: impl FnMut() -> I,
    mut routine: impl FnMut(I) -> T,
) -> Summary {
    assert!(samples > 0, "measure: samples must be positive");
    black_box(routine(setup())); // warm-up, untimed
    let times = (0..samples)
        .map(|_| {
            let input = setup();
            let t0 = Instant::now();
            black_box(routine(input));
            t0.elapsed()
        })
        .collect();
    Summary::of(times)
}

/// Print `report` as pretty JSON on stdout and write it, with a trailing
/// newline, to `file` at the repository root.
///
/// # Panics
/// Panics if the report does not serialize or the file cannot be written.
pub fn write_report(file: &str, report: &impl Serialize) {
    let json = serde_json::to_string_pretty(report).expect("serializable report");
    println!("{json}");
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../").to_string() + file;
    std::fs::write(&path, json + "\n").unwrap_or_else(|e| panic!("write {file}: {e}"));
    eprintln!("-> {path}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_collects_the_requested_samples() {
        let s = measure(7, || black_box(3u64).pow(7));
        assert_eq!(s.samples, 7);
        assert!(s.min <= s.median && s.median <= s.mean * 2);
    }

    #[test]
    fn measure_batched_times_only_the_routine() {
        let mut setups = 0u32;
        let s = measure_batched(
            5,
            || {
                setups += 1;
                vec![1u64; 64]
            },
            |v| v.iter().sum::<u64>(),
        );
        assert_eq!(s.samples, 5);
        assert_eq!(setups, 6); // warm-up + 5 timed
    }
}
