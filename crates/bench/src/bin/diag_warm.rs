//! Diagnostic: where does a warm-start classify spend its time?
//!
//! Replays the warm serving path (snapshot clone → session build → decision
//! sweeps → votes) on the serving bench's LETTER replica and times each
//! phase separately, so a regression in per-batch latency can be pinned to
//! cloning, seating, or scoring without a profiler.
use std::time::Instant;

use hdp_osr_core::{HdpOsr, HdpOsrConfig};
use osr_dataset::protocol::{OpenSetSplit, SplitConfig};
use osr_dataset::synthetic::letter_config;
use rand::rngs::StdRng;
use rand::SeedableRng;

const BATCH: usize = 100;
const REPS: usize = 50;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let data = letter_config().scaled(0.1).generate(&mut rng);
    let split = OpenSetSplit::sample(&data, &SplitConfig::new(10, 5), &mut rng).unwrap();
    let batch: Vec<Vec<f64>> = split.test.points.iter().take(BATCH).cloned().collect();
    let config = HdpOsrConfig::default();
    let model = HdpOsr::fit(&config, &split.train).unwrap();
    let snap = model.snapshot().expect("warm model has a snapshot");

    let mut t_session = 0.0;
    let mut t_sweep = 0.0;
    let mut t_votes = 0.0;
    let baseline = osr_stats::metrics::global().snapshot();
    for rep in 0..REPS {
        let mut r = StdRng::seed_from_u64(42 + rep as u64);
        let t0 = Instant::now();
        let mut sess = snap.session(batch.clone()).unwrap();
        let t1 = Instant::now();
        sess.sweep(&mut r);
        let t2 = Instant::now();
        let dishes: Vec<_> = (0..batch.len()).map(|i| sess.dish_of(i)).collect();
        std::hint::black_box(dishes);
        let t3 = Instant::now();
        t_session += (t1 - t0).as_secs_f64();
        t_sweep += (t2 - t1).as_secs_f64();
        t_votes += (t3 - t2).as_secs_f64();
    }
    let per = 1e3 / REPS as f64;
    println!("session clone+build: {:.3} ms", t_session * per);
    println!("decision sweep:      {:.3} ms", t_sweep * per);
    println!("dish-of readout:     {:.3} ms", t_votes * per);
    println!("total:               {:.3} ms", (t_session + t_sweep + t_votes) * per);

    let delta = osr_stats::metrics::global().snapshot().delta_since(&baseline);
    let one = delta.counter(osr_stats::counters::PREDICTIVE_ONE_VS_ALL);
    let blk = delta.counter(osr_stats::counters::PREDICTIVE_BATCH_VS_ONE);
    let evals = delta.counter(osr_stats::counters::PREDICTIVE_LOGPDF_CALLS);
    println!(
        "kernels/batch: {:.0} one-vs-all, {:.0} batch-vs-one, {:.0} point evals",
        one as f64 / REPS as f64,
        blk as f64 / REPS as f64,
        evals as f64 / REPS as f64,
    );
}
