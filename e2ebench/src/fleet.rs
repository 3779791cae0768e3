//! Set-up: the LETTER replica, one fitted CD-OSR model per tenant, their
//! durable snapshots and the registry that serves them.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use hdp_osr_core::{CollectiveModel, HdpOsr, HdpOsrConfig, ModelRegistry, SnapshotStore};
use osr_dataset::protocol::{GroundTruth, OpenSetSplit, SplitConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::workload::{mix, stream, tenant_name, Workload};

pub struct Tenant {
    pub model: Arc<HdpOsr>,
    /// The tenant's test split: the pool its requests are drawn from.
    pub points: Vec<Vec<f64>>,
    pub truth: Vec<GroundTruth>,
}

pub struct Fleet {
    pub tenants: Vec<Tenant>,
}

impl Fleet {
    pub fn test_sizes(&self) -> Vec<usize> {
        self.tenants.iter().map(|t| t.points.len()).collect()
    }

    pub fn dim(&self) -> usize {
        self.tenants.first().map_or(0, |t| t.model.dim())
    }
}

/// Raw timings of the set-up calls, across every set-up repeat.
#[derive(Default)]
pub struct SetupTimes {
    pub fit_ms: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub load_ms: Vec<f64>,
    pub insert_us: Vec<f64>,
    pub snapshot_bytes: Vec<f64>,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Seed of the LETTER replica and of the tenants' splits. They stand in for
/// a fixed dataset and fixed tenants, so they are the same under every
/// `--seed`, which draws the traffic: the set-up work, and the models every
/// seed serves, do not change from seed to seed.
const DATA_SEED: u64 = 42;

/// Generate the data, fit every tenant, save each snapshot into `dir` and
/// load it back. Each tenant gets its own 10-known + 5-unknown split of one
/// LETTER replica (`letter_config().scaled(0.1)`).
pub fn build(w: &Workload, dir: &Path, times: &mut SetupTimes) -> Result<Fleet, String> {
    let mut rng = StdRng::seed_from_u64(DATA_SEED);
    let data = osr_dataset::synthetic::letter_config()
        .scaled(0.1)
        .generate(&mut rng);
    let config = HdpOsrConfig::default();
    let mut tenants = Vec::with_capacity(w.tenants);
    for t in 0..w.tenants {
        let name = tenant_name(t);
        let mut split_rng = StdRng::seed_from_u64(mix(DATA_SEED, stream::SPLIT + t as u64));
        let split = OpenSetSplit::sample(&data, &SplitConfig::new(10, 5), &mut split_rng)
            .map_err(|e| format!("split for {name}: {e}"))?;
        let t0 = Instant::now();
        let model = HdpOsr::fit(&config, &split.train).map_err(|e| format!("fit {name}: {e}"))?;
        times.fit_ms.push(ms_since(t0));

        let store = snapshot_store(dir, t);
        let t0 = Instant::now();
        let info = store
            .save(&model)
            .map_err(|e| format!("save {name}: {e}"))?;
        times.save_ms.push(ms_since(t0));
        times.snapshot_bytes.push(info.bytes as f64);
        let t0 = Instant::now();
        let loaded = store.load().map_err(|e| format!("load {name}: {e}"))?;
        times.load_ms.push(ms_since(t0));
        if loaded.dim() != model.dim() || loaded.n_classes() != model.n_classes() {
            return Err(format!("snapshot of {name} does not round-trip"));
        }

        tenants.push(Tenant {
            model: Arc::new(model),
            points: split.test.points,
            truth: split.test.truth,
        });
    }
    Ok(Fleet { tenants })
}

/// Tenant `t`'s snapshot in `dir`, at the path the registry cold-loads it
/// from (`<dir>/<tenant>.snapshot`).
pub fn snapshot_store(dir: &Path, t: usize) -> SnapshotStore {
    SnapshotStore::new(dir.join(format!("{}.snapshot", tenant_name(t))))
}

/// What set-up hands to the run: the fleet, the model each tenant is
/// served by, and the registry holding them.
pub struct Setup {
    pub fleet: Fleet,
    pub models: Vec<Arc<dyn CollectiveModel>>,
    pub registry: ModelRegistry,
}

/// One whole set-up: [`build`], then `wrap` each fitted model for serving
/// and build the [`registry`].
pub fn set_up(
    w: &Workload,
    dir: &Path,
    wrap: &dyn Fn(&Arc<HdpOsr>) -> Arc<dyn CollectiveModel>,
    times: &mut SetupTimes,
) -> Result<Setup, String> {
    let fleet = build(w, dir, times)?;
    let models: Vec<Arc<dyn CollectiveModel>> =
        fleet.tenants.iter().map(|t| wrap(&t.model)).collect();
    let registry = registry(w, dir, &models, times);
    Ok(Setup {
        fleet,
        models,
        registry,
    })
}

/// The registry the run serves from: the first `registry_capacity` tenants
/// resident, the rest cold-loaded from `dir` on first use.
pub fn registry(
    w: &Workload,
    dir: &Path,
    models: &[Arc<dyn CollectiveModel>],
    times: &mut SetupTimes,
) -> ModelRegistry {
    let registry = ModelRegistry::new(w.registry_capacity).with_snapshot_dir(dir);
    for (t, model) in models.iter().enumerate().take(w.registry_capacity) {
        let t0 = Instant::now();
        registry.insert(&tenant_name(t), Arc::clone(model));
        times.insert_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    registry
}
