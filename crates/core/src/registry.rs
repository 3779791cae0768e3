//! The multi-tenant model registry: warm [`crate::PosteriorSnapshot`]-backed
//! models keyed by tenant, LRU-bounded, with cold loads from the durable
//! snapshot store.
//!
//! The front-end ([`crate::frontend::Frontend`]) serves many tenants from
//! one process, but holding every tenant's posterior resident would grow
//! memory with the tenant population. The registry keeps at most `capacity`
//! warm models; a request for an absent tenant either fails typed
//! ([`crate::OsrError::UnknownTenant`]) or — when a snapshot directory is
//! attached — reloads the tenant's model from its durable snapshot
//! (`<dir>/<tenant>.snapshot`, the PR-8 [`SnapshotStore`] container) and
//! admits it, evicting the least-recently-used resident if the bound is hit.
//!
//! Determinism: eviction order is a pure function of the resolve sequence
//! (a monotone logical tick, no wall clock), and the front-end resolves
//! models for a dispatch round sequentially in flush order — so which
//! tenant gets cold-loaded or evicted never depends on worker scheduling.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::collective::CollectiveModel;
use crate::snapshot::SnapshotStore;
use crate::{OsrError, Result};

struct RegistryEntry {
    model: Arc<dyn CollectiveModel>,
    last_used: u64,
}

struct RegistryInner {
    entries: BTreeMap<String, RegistryEntry>,
    tick: u64,
}

/// An LRU-bounded map from tenant name to a warm, shareable model.
pub struct ModelRegistry {
    capacity: usize,
    snapshot_dir: Option<PathBuf>,
    inner: Mutex<RegistryInner>,
}

impl ModelRegistry {
    /// A registry holding at most `capacity` warm models (clamped ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            snapshot_dir: None,
            inner: Mutex::new(RegistryInner { entries: BTreeMap::new(), tick: 0 }),
        }
    }

    /// Attach a snapshot directory (builder style): a resolve miss for
    /// tenant `t` then cold-loads `<dir>/t.snapshot` through the durable
    /// [`SnapshotStore`] instead of failing.
    pub fn with_snapshot_dir(mut self, dir: impl AsRef<Path>) -> Self {
        self.snapshot_dir = Some(dir.as_ref().to_path_buf());
        self
    }

    /// The durable path a tenant's snapshot is cold-loaded from, if a
    /// snapshot directory is attached.
    pub fn snapshot_path(&self, tenant: &str) -> Option<PathBuf> {
        self.snapshot_dir.as_ref().map(|dir| dir.join(format!("{tenant}.snapshot")))
    }

    /// Number of warm models currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// True when no model is resident.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().entries.is_empty()
    }

    /// True when `tenant` has a resident warm model (does not touch LRU
    /// recency).
    pub fn contains(&self, tenant: &str) -> bool {
        self.inner.lock().entries.contains_key(tenant)
    }

    /// Register (or replace) `tenant`'s warm model, evicting the
    /// least-recently-used resident if the capacity bound is exceeded.
    pub fn insert(&self, tenant: &str, model: Arc<dyn CollectiveModel>) {
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let last_used = inner.tick;
        inner.entries.insert(tenant.to_string(), RegistryEntry { model, last_used });
        Self::evict_over_capacity(&mut inner, self.capacity);
    }

    /// Resolve `tenant` to its warm model, bumping its LRU recency. A miss
    /// cold-loads from the snapshot directory when one is attached
    /// (counted by `osr_stats::counters::frontend_cold_loads`); otherwise
    /// it is a typed [`OsrError::UnknownTenant`].
    ///
    /// # Errors
    /// [`OsrError::UnknownTenant`] on a miss with no snapshot directory or
    /// no snapshot file; any snapshot decode failure propagates typed.
    pub fn resolve(&self, tenant: &str) -> Result<Arc<dyn CollectiveModel>> {
        {
            let mut inner = self.inner.lock();
            inner.tick += 1;
            let tick = inner.tick;
            if let Some(entry) = inner.entries.get_mut(tenant) {
                entry.last_used = tick;
                return Ok(Arc::clone(&entry.model));
            }
        }
        // Cold path: materialize from the durable store outside the lock —
        // a snapshot decode is orders of magnitude slower than a map probe,
        // and resolves are serialized per dispatch round anyway.
        let Some(path) = self.snapshot_path(tenant) else {
            return Err(OsrError::UnknownTenant(tenant.to_string()));
        };
        if !path.exists() {
            return Err(OsrError::UnknownTenant(tenant.to_string()));
        }
        let model = SnapshotStore::new(path).load()?;
        osr_stats::counters::record_frontend_cold_load();
        let model: Arc<dyn CollectiveModel> = Arc::new(model);
        self.insert(tenant, Arc::clone(&model));
        Ok(model)
    }

    fn evict_over_capacity(inner: &mut RegistryInner, capacity: usize) {
        while inner.entries.len() > capacity {
            // Oldest tick wins eviction; BTreeMap order breaks exact ties
            // toward the lexicographically smallest tenant, so the victim
            // is deterministic.
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(tenant, _)| tenant.clone());
            let Some(victim) = victim else { return };
            inner.entries.remove(&victim);
            osr_stats::counters::record_frontend_eviction();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{HdpOsr, HdpOsrConfig};
    use osr_dataset::protocol::TrainSet;
    use osr_stats::sampling;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn tiny_model(seed: u64) -> HdpOsr {
        let mut rng = StdRng::seed_from_u64(seed);
        let blob = |cx: f64, rng: &mut StdRng| -> Vec<Vec<f64>> {
            (0..15)
                .map(|_| {
                    vec![
                        cx + 0.4 * sampling::standard_normal(rng),
                        0.4 * sampling::standard_normal(rng),
                    ]
                })
                .collect()
        };
        let train = TrainSet {
            class_ids: vec![1, 2],
            classes: vec![blob(-5.0, &mut rng), blob(5.0, &mut rng)],
        };
        let config = HdpOsrConfig { iterations: 6, ..Default::default() };
        HdpOsr::fit(&config, &train).unwrap()
    }

    #[test]
    fn resolve_hits_and_unknown_tenants_are_typed() {
        let registry = ModelRegistry::new(4);
        registry.insert("acme", Arc::new(tiny_model(1)));
        assert!(registry.resolve("acme").is_ok());
        let err = match registry.resolve("ghost") {
            Err(e) => e,
            Ok(_) => panic!("unknown tenant must not resolve"),
        };
        assert_eq!(err, OsrError::UnknownTenant("ghost".to_string()));
    }

    #[test]
    fn lru_evicts_the_least_recently_resolved_tenant() {
        let registry = ModelRegistry::new(2);
        let model: Arc<dyn CollectiveModel> = Arc::new(tiny_model(2));
        registry.insert("a", Arc::clone(&model));
        registry.insert("b", Arc::clone(&model));
        // Touch `a` so `b` becomes the LRU victim.
        registry.resolve("a").unwrap();
        let evictions_before = osr_stats::counters::frontend_evictions();
        registry.insert("c", Arc::clone(&model));
        assert_eq!(registry.len(), 2);
        assert!(registry.contains("a"));
        assert!(!registry.contains("b"), "LRU tenant must be evicted");
        assert!(registry.contains("c"));
        assert!(osr_stats::counters::frontend_evictions() > evictions_before);
    }

    #[test]
    fn cold_load_materializes_from_the_snapshot_store() {
        let dir = std::env::temp_dir()
            .join(format!("osr_registry_cold_load_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = tiny_model(3);
        let registry = ModelRegistry::new(2).with_snapshot_dir(&dir);
        let store = SnapshotStore::new(registry.snapshot_path("warm").unwrap());
        store.save(&model).unwrap();

        let cold_before = osr_stats::counters::frontend_cold_loads();
        let resolved = registry.resolve("warm").unwrap();
        assert_eq!(resolved.dim(), 2);
        assert!(osr_stats::counters::frontend_cold_loads() > cold_before);
        assert!(registry.contains("warm"), "cold load admits the model");
        // Second resolve is a warm hit: the counter must not move again.
        let cold_after = osr_stats::counters::frontend_cold_loads();
        registry.resolve("warm").unwrap();
        assert_eq!(osr_stats::counters::frontend_cold_loads(), cold_after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
