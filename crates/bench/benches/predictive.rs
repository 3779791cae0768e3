//! Scalar vs. banked predictive kernels — the tentpole micro-measurement.
//!
//! Benchmarks the two fused [`DishBank`] kernels against the legacy per-dish
//! [`NiwPosterior`] arithmetic they replaced, at the reproduction's two
//! feature dimensions (LETTER's 16 and USPS-after-PCA's 39):
//!
//! * **one-vs-all** — score a single observation under every live dish
//!   (the collective-decision scoring loop);
//! * **batch-vs-one** — the chain-rule joint predictive of a block under one
//!   dish (the Eq. 8 table-dish resampling factor), at block sizes 1, 2, 4
//!   and 8. Most Eq. 8 tables hold four points or fewer, which the bank
//!   scores through the determinant lemma on the dish's maintained factor
//!   (up to 4 points at `d = 16`, 11 at `d = 39`); larger blocks take a fresh
//!   factorization of the updated scale.
//!
//! Per-iteration medians and the banked/scalar speedups are written to
//! `BENCH_predictive.json` at the repository root.
//!
//! ```text
//! cargo bench -p osr-bench --bench predictive
//! ```

use osr_bench::timing::{measure, write_report, Summary};
use osr_linalg::Matrix;
use osr_stats::{sampling, DishBank, NiwParams, NiwPosterior};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;

/// Live dishes scored by the one-vs-all kernel (a typical post-burn-in menu).
const DISHES: usize = 12;
/// Observations absorbed per dish before measuring.
const OBS_PER_DISH: usize = 30;
/// Block sizes for the batch-vs-one kernel (table occupancies).
const BLOCKS: [usize; 4] = [1, 2, 4, 8];
const SAMPLES: usize = 2_000;
const SEED: u64 = 42;

#[derive(Serialize)]
struct KernelStats {
    scalar_median_ns: f64,
    banked_median_ns: f64,
    speedup_median: f64,
    samples: usize,
}

/// The batch-vs-one kernel at one block size.
#[derive(Serialize)]
struct BlockReport {
    block: usize,
    kernel: KernelStats,
}

#[derive(Serialize)]
struct DimReport {
    dim: usize,
    dishes: usize,
    obs_per_dish: usize,
    one_vs_all: KernelStats,
    batch_vs_one_by_block: Vec<BlockReport>,
}

#[derive(Serialize)]
struct Report {
    seed: u64,
    dims: Vec<DimReport>,
}

fn kernel_stats(scalar: Summary, banked: Summary) -> KernelStats {
    let scalar_median_ns = scalar.median.as_secs_f64() * 1e9;
    let banked_median_ns = banked.median.as_secs_f64() * 1e9;
    KernelStats {
        scalar_median_ns,
        banked_median_ns,
        speedup_median: scalar_median_ns / banked_median_ns.max(1e-9),
        samples: scalar.samples.min(banked.samples),
    }
}

fn spd(dim: usize) -> Matrix {
    let mut m = Matrix::scaled_identity(dim, 2.0);
    for i in 1..dim {
        m[(i, i - 1)] = 0.3;
        m[(i - 1, i)] = 0.3;
    }
    m
}

fn bench_dim(dim: usize) -> DimReport {
    let params = NiwParams::new(vec![0.0; dim], 1.0, dim as f64 + 3.0, spd(dim)).unwrap();
    let mut rng = StdRng::seed_from_u64(SEED);

    // Identical observation streams feed both representations, so the two
    // sides evaluate bit-identical posteriors (asserted below).
    let mut bank = DishBank::new(&params);
    let mut legacy: Vec<NiwPosterior> = Vec::with_capacity(DISHES);
    let mut slots: Vec<osr_stats::Slot> = Vec::with_capacity(DISHES);
    for k in 0..DISHES {
        let slot = bank.alloc();
        let mut post = NiwPosterior::from_prior(&params);
        for _ in 0..OBS_PER_DISH {
            let x: Vec<f64> = (0..dim)
                .map(|_| k as f64 + sampling::standard_normal(&mut rng))
                .collect();
            bank.add_obs(slot, &x);
            post.add(&x);
        }
        slots.push(slot);
        legacy.push(post);
    }
    let probe = vec![0.3; dim];

    // Sanity: the one-vs-all kernel agrees with the scalars bit-for-bit.
    let mut scratch = vec![0.0; DISHES * dim];
    let mut scores = Vec::with_capacity(DISHES);
    bank.score_all(&slots, &probe, &mut scratch, &mut scores);
    for (got, post) in scores.iter().zip(&legacy) {
        assert_eq!(got.to_bits(), post.predictive_logpdf(&probe).to_bits());
    }

    let scalar_all = measure(SAMPLES, || {
        let mut acc = 0.0;
        for post in &legacy {
            acc += post.predictive_logpdf(black_box(&probe));
        }
        acc
    });
    let banked_all = measure(SAMPLES, || {
        scores.clear();
        bank.score_all(black_box(&slots), black_box(&probe), &mut scratch, &mut scores);
        scores.last().copied()
    });

    let batch_vs_one_by_block = BLOCKS
        .iter()
        .map(|&size| {
            let block: Vec<Vec<f64>> = (0..size)
                .map(|_| (0..dim).map(|_| sampling::standard_normal(&mut rng)).collect())
                .collect();
            let refs: Vec<&[f64]> = block.iter().map(Vec::as_slice).collect();
            // Sanity: the block kernel (marginal-likelihood ratio, see
            // DESIGN.md) agrees with the chain rule to rounding.
            let banked_lp = bank.block_predictive(slots[0], &refs);
            let chain_lp = legacy[0].clone().block_predictive_logpdf(&refs);
            assert!(
                (banked_lp - chain_lp).abs() <= 1e-9 * chain_lp.abs().max(1.0),
                "block {size}: ratio kernel {banked_lp} strayed from chain rule {chain_lp}"
            );
            let scalar =
                measure(SAMPLES, || legacy[0].clone().block_predictive_logpdf(black_box(&refs)));
            let banked =
                measure(SAMPLES, || bank.block_predictive(black_box(slots[0]), black_box(&refs)));
            BlockReport { block: size, kernel: kernel_stats(scalar, banked) }
        })
        .collect();

    DimReport {
        dim,
        dishes: DISHES,
        obs_per_dish: OBS_PER_DISH,
        one_vs_all: kernel_stats(scalar_all, banked_all),
        batch_vs_one_by_block,
    }
}

fn main() {
    let report = Report { seed: SEED, dims: [16, 39].into_iter().map(bench_dim).collect() };
    for d in &report.dims {
        eprintln!(
            "d={:>2}: one-vs-all {:>8.0} ns -> {:>8.0} ns ({:.2}x)",
            d.dim,
            d.one_vs_all.scalar_median_ns,
            d.one_vs_all.banked_median_ns,
            d.one_vs_all.speedup_median,
        );
        for b in &d.batch_vs_one_by_block {
            let k = &b.kernel;
            eprintln!(
                "      batch-vs-one m={}: {:>8.0} ns -> {:>8.0} ns ({:.2}x)",
                b.block, k.scalar_median_ns, k.banked_median_ns, k.speedup_median,
            );
        }
    }
    write_report("BENCH_predictive.json", &report);
}
