//! How fast the host ran the benchmark, so that the bounded speed metrics
//! can be scaled to one reference host.
//!
//! A shared virtual machine does not run at one speed. On the 2-vCPU guest
//! the benchmark was built on, the same `letter-closed` set-up took 0.43 s
//! in one stretch and 0.23 s in another, and closed-loop throughput moved
//! with it, from 58k to 116k req/s; in other stretches the hypervisor
//! stole a fifth of the vCPUs' time. Two readings cover both:
//!
//! - the host factor: every [`EVERY_NS`] the driver runs a reference kernel
//!   once on each of `threads` threads, each thread timing itself. A
//!   window's factor is the median of its timings over [`NOMINAL_NS`]; 1.3
//!   means the host ran this arithmetic 1.3 times slower than the reference
//!   host did. The kernel is the benchmark's own code, and the serving path
//!   never calls it, so a change to the program moves the served work and
//!   not the factor.
//! - the availability: the share of the vCPUs' runnable time they ran,
//!   from the busy and steal ticks in `/proc/stat` ([`Ticks`]).

use std::hint::black_box;
use std::time::Instant;

use crate::summary;

/// The kernel's time on the reference host, rounded: its median timing over
/// a quiet run on a 2-vCPU KVM guest of an Intel Xeon (Sapphire Rapids).
pub const NOMINAL_NS: f64 = 250_000.0;

/// Driver time between two samples. A sample costs one kernel run per
/// thread, under 1% of the wall time.
pub const EVERY_NS: u64 = 50_000_000;

/// Rounds per kernel run; see [`kernel`].
const ROUNDS: usize = 250;

const DIM: usize = 16;
const FACTORS: usize = 32;
const POINTS: usize = 4;

pub struct HostSpeed {
    threads: usize,
    /// Timings since the last [`HostSpeed::take_window`].
    window: Vec<f64>,
    /// The factor of the last window that had timings.
    last_factor: f64,
    /// Every timing of the run, in nanoseconds.
    pub all: Vec<f64>,
    /// Wall time spent sampling.
    pub spent_ns: u64,
}

impl HostSpeed {
    pub fn new(threads: usize) -> Self {
        Self {
            threads: threads.max(1),
            window: Vec::new(),
            last_factor: 1.0,
            all: Vec::new(),
            spent_ns: 0,
        }
    }

    /// Run the kernel once on each thread and keep the timings.
    pub fn sample(&mut self) {
        let start = Instant::now();
        let timings: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..self.threads).map(|_| s.spawn(timed_kernel)).collect();
            handles.into_iter().filter_map(|h| h.join().ok()).collect()
        });
        self.window.extend(&timings);
        self.all.extend(timings);
        self.spent_ns += start.elapsed().as_nanos() as u64;
    }

    /// The host factor over the timings since the last call (the last
    /// window's when none were taken), and start the next window.
    pub fn take_window(&mut self) -> f64 {
        if !self.window.is_empty() {
            let median = summary::quantile(&summary::sorted(&self.window), 0.5);
            self.last_factor = median / NOMINAL_NS;
            self.window.clear();
        }
        self.last_factor
    }
}

/// Busy and stolen ticks of all CPUs so far, from the first line of
/// `/proc/stat`. Steal is time the hypervisor kept a runnable vCPU waiting;
/// a tick it steals is not counted busy.
#[derive(Clone, Copy, Default)]
pub struct Ticks {
    busy: u64,
    steal: u64,
}

impl Ticks {
    pub fn read() -> Option<Self> {
        let stat = std::fs::read_to_string("/proc/stat").ok()?;
        let t: Vec<u64> = stat
            .lines()
            .next()?
            .split_whitespace()
            .skip(1)
            .filter_map(|v| v.parse().ok())
            .collect();
        // user, nice, system, idle, iowait, irq, softirq, steal, ...
        Some(Self {
            busy: t.first()? + t.get(1)? + t.get(2)? + t.get(5)? + t.get(6)?,
            steal: *t.get(7)?,
        })
    }

    /// Share of the vCPUs' runnable time between two readings that they ran:
    /// busy over busy plus stolen; 1 when nothing ran or `/proc/stat` could
    /// not be read.
    pub fn availability(from: Option<Self>, to: Option<Self>) -> f64 {
        let (Some(a), Some(b)) = (from, to) else {
            return 1.0;
        };
        let busy = b.busy.saturating_sub(a.busy) as f64;
        let steal = b.steal.saturating_sub(a.steal) as f64;
        if busy > 0.0 {
            busy / (busy + steal)
        } else {
            1.0
        }
    }
}

fn timed_kernel() -> f64 {
    let start = Instant::now();
    black_box(kernel(black_box(ROUNDS)));
    start.elapsed().as_nanos() as f64
}

/// `rounds` rounds of 16-dimensional Student-t log densities: each round
/// scores four points against one of 32 fixed Cholesky factors (64 KiB in
/// all), with a forward substitution, a quadratic form, `ln_1p` and `exp`
/// per point: the arithmetic and working set of the predictive kernels the
/// sweeps call.
fn kernel(rounds: usize) -> f64 {
    let mut factors = vec![[[0.0f64; DIM]; DIM]; FACTORS];
    for (k, chol) in factors.iter_mut().enumerate() {
        for (i, row) in chol.iter_mut().enumerate() {
            for (j, v) in row.iter_mut().enumerate().take(i + 1) {
                *v = if i == j {
                    1.5 + 0.1 * i as f64 + 0.01 * k as f64
                } else {
                    0.05 * ((i * 7 + j * 3 + k) % 11) as f64 - 0.25
                };
            }
        }
    }
    let nu = 5.0;
    let mut acc = 0.0f64;
    for r in 0..rounds {
        let chol = &factors[black_box(r % FACTORS)];
        for p in 0..POINTS {
            let shift = black_box((r * POINTS + p) as f64 * 1e-3);
            let mut z = [0.0f64; DIM];
            for i in 0..DIM {
                let mut s = (i as f64 * 0.37 + shift).sin();
                for j in 0..i {
                    s -= chol[i][j] * z[j];
                }
                z[i] = s / chol[i][i];
            }
            let q: f64 = z.iter().map(|v| v * v).sum();
            acc += (-0.5 * (nu + DIM as f64) * (q / nu).ln_1p()).exp();
        }
    }
    acc
}
