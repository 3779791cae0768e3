//! The three traffic mixes and the request streams they generate.
//!
//! Every input is a pure function of the workload and `--seed`: the arrival
//! schedule of an open loop and the point each closed-loop client sends
//! next. The data and the tenants' splits (in `fleet`) are fixed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// How requests reach the front-end.
pub enum Traffic {
    /// Poisson arrivals at `rps` on a precomputed schedule, tenants drawn
    /// uniformly (`zipf_s: None`) or with Zipf(`s`) popularity by rank.
    Open { rps: f64, zipf_s: Option<f64> },
    /// `clients` virtual clients, client `c` bound to tenant `c % tenants`;
    /// each sends its next request as soon as its previous one is answered.
    Closed { clients: usize },
}

/// One benchmark workload.
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub tenants: usize,
    /// `ModelRegistry` capacity; below `tenants` it makes misses cold-load.
    pub registry_capacity: usize,
    pub max_batch: usize,
    pub max_delay_ns: u64,
    pub traffic: Traffic,
    /// Every this many sent requests, re-save one tenant's snapshot and
    /// re-insert its model.
    pub refresh_every: Option<u64>,
    /// Accepted `f_measure` band: the workload's median over the seeds
    /// measured when the benchmark was introduced, ±0.02. Across twenty seeds
    /// `f_measure` stayed within 0.007 of the median (see README.md).
    pub f_band: (f64, f64),
}

/// Closed-loop batches flush on size only: no request ever hits this delay.
const NO_DEADLINE: u64 = u64::MAX;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "letter-open",
        why: "coalescing wait and per-round dispatch cost on small micro-batches",
        tenants: 4,
        registry_capacity: 4,
        max_batch: 8,
        max_delay_ns: 5_000_000,
        traffic: Traffic::Open {
            rps: 2_500.0,
            zipf_s: None,
        },
        refresh_every: None,
        f_band: (0.899, 0.939),
    },
    Workload {
        name: "letter-closed",
        why:
            "capacity: 64-point collective sweeps dominate, batch contents do not depend on timing",
        tenants: 4,
        registry_capacity: 4,
        max_batch: 64,
        max_delay_ns: NO_DEADLINE,
        traffic: Traffic::Closed { clients: 256 },
        refresh_every: None,
        f_band: (0.917, 0.957),
    },
    Workload {
        name: "tenant-churn",
        why:
            "registry misses cold-load snapshots on the dispatching thread, beside snapshot writes",
        tenants: 16,
        registry_capacity: 4,
        max_batch: 8,
        max_delay_ns: 5_000_000,
        traffic: Traffic::Open {
            rps: 400.0,
            zipf_s: Some(1.0),
        },
        refresh_every: Some(500),
        f_band: (0.901, 0.941),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

pub fn tenant_name(index: usize) -> String {
    format!("t{index:02}")
}

/// SplitMix64 finalizer: independent seeds for the streams of one run.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Stream ids passed to [`mix`], one per independent input.
pub mod stream {
    pub const SCHEDULE: u64 = 2;
    pub const SPLIT: u64 = 1_000;
    pub const CLIENT: u64 = 100_000;
}

/// One scheduled open-loop request.
#[derive(Clone, Copy)]
pub struct Arrival {
    pub due_ns: u64,
    pub tenant: usize,
    /// Index into the tenant's test set.
    pub point: usize,
}

/// The whole open-loop schedule up to `horizon_ns`, so arrival times never
/// depend on how fast the server answers.
pub fn open_schedule(
    rps: f64,
    zipf_s: Option<f64>,
    test_sizes: &[usize],
    seed: u64,
    horizon_ns: u64,
) -> Vec<Arrival> {
    let mut rng = StdRng::seed_from_u64(mix(seed, stream::SCHEDULE));
    let cdf = zipf_s.map(|s| zipf_cdf(test_sizes.len(), s));
    let mut due = 0.0f64;
    let mut out = Vec::new();
    loop {
        let u: f64 = rng.gen_range(f64::EPSILON..1.0);
        due += -u.ln() / rps * 1e9;
        if due >= horizon_ns as f64 {
            return out;
        }
        let tenant = match &cdf {
            Some(cdf) => {
                let u: f64 = rng.gen_range(0.0..1.0);
                cdf.iter().position(|&c| u < c).unwrap_or(cdf.len() - 1)
            }
            None => rng.gen_range(0..test_sizes.len()),
        };
        let point = rng.gen_range(0..test_sizes[tenant]);
        out.push(Arrival {
            due_ns: due as u64,
            tenant,
            point,
        });
    }
}

fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (1..=n).map(|rank| (rank as f64).powf(-s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

/// The closed loop's clients: each draws its points from its own stream,
/// so the request sequence of every client is fixed by the seed alone.
pub struct Clients {
    rngs: Vec<StdRng>,
    tenants: usize,
}

impl Clients {
    pub fn new(clients: usize, tenants: usize, seed: u64) -> Self {
        let rngs = (0..clients)
            .map(|c| StdRng::seed_from_u64(mix(seed, stream::CLIENT + c as u64)))
            .collect();
        Self { rngs, tenants }
    }

    pub fn len(&self) -> usize {
        self.rngs.len()
    }

    /// `(tenant, point index)` of client `c`'s next request.
    pub fn next(&mut self, c: usize, test_sizes: &[usize]) -> (usize, usize) {
        let tenant = c % self.tenants;
        (tenant, self.rngs[c].gen_range(0..test_sizes[tenant]))
    }
}
