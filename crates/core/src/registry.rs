//! The multi-tenant model registry: warm [`crate::PosteriorSnapshot`]-backed
//! models keyed by tenant, bounded by a frequency-aware admission rule, with
//! cold loads from the durable snapshot store.
//!
//! The front-end ([`crate::frontend::Frontend`]) serves many tenants from
//! one process, but holding every tenant's posterior resident would grow
//! memory with the tenant population. The registry keeps at most `capacity`
//! warm models; a request for an absent tenant either fails typed
//! ([`crate::OsrError::UnknownTenant`]) or — when a snapshot directory is
//! attached — reloads the tenant's model from its durable snapshot
//! (`<dir>/<tenant>.snapshot`, a [`SnapshotStore`] container) and
//! serves it.
//!
//! # Admission
//!
//! Which cold-loaded models stay resident follows TinyLFU (Einziger,
//! Friedman & Manes, ACM TOS 2017): the registry counts requests per tenant
//! name, and a resolve miss leaves its model resident only when there is
//! room or the newcomer has been requested more often than the resident it
//! would evict. Otherwise the load serves its one flush and is dropped. The
//! victim is the resident with the lowest count, then the least recent,
//! then the smallest name; ties keep the resident. Under Zipf(1) tenant
//! popularity, LRU lets every tail tenant displace a hot one: on
//! `tenant-churn` traffic (16 tenants, capacity 4) LRU hits 0.32 of the
//! resolves, this rule ≈0.55, and Belady's clairvoyant optimum 0.62.
//!
//! - **Aging.** Every count is halved once `32 × capacity` resolves have
//!   been counted since the last halving, so a tenant that was hot an hour
//!   ago cannot hold its slot against today's traffic.
//! - **Bound.** At most `16 × capacity` names keep a count. A new name past
//!   that bound first prunes the lowest-count name that is not resident
//!   (then the smallest); a resident always keeps its count.
//! - **Inserts.** [`ModelRegistry::insert`] always leaves its tenant
//!   resident, replacing its model or evicting another resident, never
//!   itself. An insert is not a request and does not raise the count.
//!
//! Determinism: every decision is a pure function of the resolve and insert
//! sequence (a monotone logical tick and ordered maps, no wall clock, no
//! hash seed), [`ModelRegistry::contains`] changes nothing, and the
//! front-end resolves models for a dispatch round sequentially in flush
//! order — so which tenant gets cold-loaded or evicted never depends on
//! worker scheduling.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::collective::CollectiveModel;
use crate::snapshot::SnapshotStore;
use crate::{OsrError, Result};

/// Counts are halved after this many counted resolves per slot of capacity.
const AGING_PER_SLOT: u64 = 32;
/// At most this many names per slot of capacity keep a request count.
const TRACKED_PER_SLOT: usize = 16;

struct RegistryEntry {
    model: Arc<dyn CollectiveModel>,
    last_used: u64,
}

struct RegistryInner {
    entries: BTreeMap<String, RegistryEntry>,
    /// Aged request count per tenant name; every resident has one.
    counts: BTreeMap<String, u32>,
    tick: u64,
    /// Resolves counted since the last halving.
    counted: u64,
}

impl RegistryInner {
    /// Make sure `tenant` has a count, pruning one non-resident name first
    /// if the table is at its bound.
    fn track(&mut self, tenant: &str, capacity: usize) {
        if self.counts.contains_key(tenant) {
            return;
        }
        if self.counts.len() >= capacity.saturating_mul(TRACKED_PER_SLOT) {
            let entries = &self.entries;
            let pruned = self
                .counts
                .iter()
                .filter(|(name, _)| !entries.contains_key(*name))
                .min_by_key(|(_, &count)| count)
                .map(|(name, _)| name.clone());
            if let Some(name) = pruned {
                self.counts.remove(&name);
            }
        }
        self.counts.insert(tenant.to_string(), 0);
    }

    /// Count one request for `tenant`, halving every count once the aging
    /// window is full. Allocates only for a name not yet tracked.
    fn count_request(&mut self, tenant: &str, capacity: usize) {
        self.track(tenant, capacity);
        if let Some(count) = self.counts.get_mut(tenant) {
            *count = count.saturating_add(1);
        }
        self.counted += 1;
        if self.counted >= (capacity as u64).saturating_mul(AGING_PER_SLOT) {
            self.counted = 0;
            let entries = &self.entries;
            self.counts.retain(|name, count| {
                *count /= 2;
                *count > 0 || entries.contains_key(name)
            });
        }
    }

    fn count(&self, tenant: &str) -> u32 {
        self.counts.get(tenant).copied().unwrap_or(0)
    }

    /// The resident to evict for a newcomer: lowest count, then least
    /// recent, then smallest name.
    fn victim(&self) -> Option<(String, u32)> {
        self.entries
            .iter()
            .map(|(name, entry)| (self.count(name), entry.last_used, name))
            .min()
            .map(|(count, _, name)| (name.clone(), count))
    }

    fn admit(&mut self, tenant: &str, model: Arc<dyn CollectiveModel>, capacity: usize) {
        self.track(tenant, capacity);
        self.tick += 1;
        let last_used = self.tick;
        self.entries.insert(tenant.to_string(), RegistryEntry { model, last_used });
    }

    fn evict(&mut self, victim: &str) {
        self.entries.remove(victim);
        osr_stats::counters::record_frontend_eviction();
    }
}

/// A bounded, frequency-admitted map from tenant name to a warm, shareable
/// model.
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
            inner: Mutex::new(RegistryInner {
                entries: BTreeMap::new(),
                counts: BTreeMap::new(),
                tick: 0,
                counted: 0,
            }),
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

    /// True when `tenant` has a resident warm model. Changes neither its
    /// count nor its recency.
    pub fn contains(&self, tenant: &str) -> bool {
        self.inner.lock().entries.contains_key(tenant)
    }

    /// Register (or replace) `tenant`'s warm model. It is always left
    /// resident: at capacity another resident is evicted (lowest request
    /// count, then least recent, then smallest name).
    pub fn insert(&self, tenant: &str, model: Arc<dyn CollectiveModel>) {
        let mut inner = self.inner.lock();
        if !inner.entries.contains_key(tenant) && inner.entries.len() >= self.capacity {
            if let Some((victim, _)) = inner.victim() {
                inner.evict(&victim);
            }
        }
        inner.admit(tenant, model, self.capacity);
    }

    /// Resolve `tenant` to its warm model, counting the request and bumping
    /// its recency; a hit allocates nothing. A miss cold-loads from the
    /// snapshot directory when one is attached (every load, admitted or
    /// not, counts in `osr_stats::counters::frontend_cold_loads`) and
    /// serves the loaded model. It stays resident only if there is room or
    /// the tenant's request count exceeds the least-frequent resident's,
    /// which is then evicted (see the module docs).
    ///
    /// # Errors
    /// [`OsrError::UnknownTenant`] on a miss with no snapshot directory or
    /// no snapshot file; any snapshot decode failure propagates typed.
    pub fn resolve(&self, tenant: &str) -> Result<Arc<dyn CollectiveModel>> {
        {
            let mut inner = self.inner.lock();
            inner.count_request(tenant, self.capacity);
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
        // Decide admission under the lock again: an insert may have made
        // the tenant resident, or moved the counts, while the load ran.
        let mut inner = self.inner.lock();
        if let Some(entry) = inner.entries.get(tenant) {
            return Ok(Arc::clone(&entry.model));
        }
        if inner.entries.len() >= self.capacity {
            match inner.victim() {
                Some((victim, count)) if inner.count(tenant) > count => inner.evict(&victim),
                _ => return Ok(model),
            }
        }
        inner.admit(tenant, Arc::clone(&model), self.capacity);
        Ok(model)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::model::{HdpOsr, HdpOsrConfig};
    use osr_dataset::protocol::TrainSet;
    use osr_stats::sampling;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    fn name(tenant: usize) -> String {
        format!("t{tenant}")
    }

    /// A fresh snapshot directory in which tenants `t0`..`t{n-1}` all hold
    /// the same tiny model, which is also returned for inserts.
    fn snapshot_dir(tag: &str, n: usize) -> (PathBuf, Arc<dyn CollectiveModel>) {
        let dir = std::env::temp_dir().join(format!("osr_registry_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let model = tiny_model(4);
        let first = dir.join(format!("{}.snapshot", name(0)));
        SnapshotStore::new(&first).save(&model).unwrap();
        for tenant in 1..n {
            std::fs::copy(&first, dir.join(format!("{}.snapshot", name(tenant)))).unwrap();
        }
        (dir, Arc::new(model))
    }

    #[derive(Clone, Copy)]
    enum Op {
        Resolve(usize),
        Insert(usize),
    }

    const CHURN_TENANTS: usize = 16;
    const CHURN_CAPACITY: usize = 4;

    /// Registry traffic shaped like the `tenant-churn` benchmark workload:
    /// Zipf(1) requests over 16 tenants arrive with exponential gaps (mean
    /// 2.5 ms) and coalesce per tenant until 8 are queued or the first has
    /// waited 5 ms. Each flush resolves its tenant once, in flush order,
    /// and every 500th resolve is followed by a round-robin `insert`. From
    /// resolve `reverse_at` on, the popularity ranks are reversed.
    fn churn_script(seed: u64, resolves: usize, reverse_at: usize) -> Vec<Op> {
        fn flush(ops: &mut Vec<Op>, flushed: &mut usize, tenant: usize) {
            ops.push(Op::Resolve(tenant));
            *flushed += 1;
            if flushed.is_multiple_of(500) {
                ops.push(Op::Insert((*flushed / 500 - 1) % CHURN_TENANTS));
            }
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let zipf: Vec<f64> = (1..=CHURN_TENANTS).map(|rank| 1.0 / rank as f64).collect();
        // Tenant → (flush deadline in ms, requests queued).
        let mut open: BTreeMap<usize, (f64, usize)> = BTreeMap::new();
        let (mut ops, mut flushed, mut now) = (Vec::new(), 0, 0.0);
        while flushed < resolves {
            now -= 2.5 * (1.0 - rng.gen::<f64>()).ln();
            let mut due: Vec<(f64, usize)> = open
                .iter()
                .filter(|(_, &(deadline, _))| deadline <= now)
                .map(|(&tenant, &(deadline, _))| (deadline, tenant))
                .collect();
            due.sort_by(|a, b| a.partial_cmp(b).unwrap());
            for (_, tenant) in due {
                open.remove(&tenant);
                flush(&mut ops, &mut flushed, tenant);
            }
            let rank = sampling::categorical(&mut rng, &zipf);
            let tenant = if flushed >= reverse_at { CHURN_TENANTS - 1 - rank } else { rank };
            let queue = open.entry(tenant).or_insert((now + 5.0, 0));
            queue.1 += 1;
            if queue.1 == 8 {
                open.remove(&tenant);
                flush(&mut ops, &mut flushed, tenant);
            }
        }
        ops
    }

    /// Replay `script` on a fresh churn-sized registry seeded, as the
    /// benchmark's is, with the first `capacity` tenants; return hit or
    /// miss per resolve. With `probe`, every tenant is `contains`-probed
    /// before each resolve and the probe of the resolved tenant is the
    /// answer. Without it, a hit is read off the returned model: a hit
    /// hands back the very `Arc` last returned for (or inserted as) the
    /// tenant, a cold load a freshly decoded one.
    fn replay(
        dir: &Path,
        model: &Arc<dyn CollectiveModel>,
        script: &[Op],
        probe: bool,
    ) -> Vec<bool> {
        let registry = ModelRegistry::new(CHURN_CAPACITY).with_snapshot_dir(dir);
        let mut last: Vec<Option<Arc<dyn CollectiveModel>>> = vec![None; CHURN_TENANTS];
        let mut hits = Vec::new();
        for op in (0..CHURN_CAPACITY).map(Op::Insert).chain(script.iter().copied()) {
            match op {
                Op::Insert(tenant) => {
                    registry.insert(&name(tenant), Arc::clone(model));
                    last[tenant] = Some(Arc::clone(model));
                }
                Op::Resolve(tenant) => {
                    let probed: Vec<bool> = if probe {
                        (0..CHURN_TENANTS).map(|t| registry.contains(&name(t))).collect()
                    } else {
                        Vec::new()
                    };
                    let got = registry.resolve(&name(tenant)).unwrap();
                    let same = last[tenant].as_ref().is_some_and(|prev| Arc::ptr_eq(prev, &got));
                    hits.push(if probe { probed[tenant] } else { same });
                    last[tenant] = Some(got);
                }
            }
        }
        hits
    }

    /// The few-line LRU reference the registry used to implement.
    fn lru_hits(script: &[Op]) -> Vec<bool> {
        let mut order: VecDeque<usize> = (0..CHURN_CAPACITY).collect();
        let mut hits = Vec::new();
        for &op in script {
            let (Op::Resolve(tenant) | Op::Insert(tenant)) = op;
            let hit = order.contains(&tenant);
            if let Op::Resolve(_) = op {
                hits.push(hit);
            }
            order.retain(|&t| t != tenant);
            order.push_back(tenant);
            if order.len() > CHURN_CAPACITY {
                order.pop_front();
            }
        }
        hits
    }

    fn hit_ratio(hits: &[bool]) -> f64 {
        hits.iter().filter(|&&hit| hit).count() as f64 / hits.len() as f64
    }

    #[test]
    fn churn_replay_is_pure_and_admits_by_frequency() {
        let (dir, model) = snapshot_dir("churn", CHURN_TENANTS);
        let script = churn_script(7, 4_000, usize::MAX);
        let probed = replay(&dir, &model, &script, true);
        let plain = replay(&dir, &model, &script, false);
        let first_change = probed.iter().zip(&plain).position(|(a, b)| a != b);
        assert_eq!(first_change, None, "contains probes changed the hit or miss of that resolve");
        let (ratio, lru) = (hit_ratio(&plain), hit_ratio(&lru_hits(&script)));
        assert!(lru < 0.40, "script must be churn-like: LRU reads {lru:.3}");
        assert!(ratio >= 0.50, "frequency admission hit {ratio:.3} (LRU {lru:.3})");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn aged_counts_follow_a_rank_reversal() {
        let (dir, model) = snapshot_dir("reversal", CHURN_TENANTS);
        let script = churn_script(8, 4_000, 2_000);
        let hits = replay(&dir, &model, &script, false);
        let second_half = hit_ratio(&hits[2_000..]);
        assert!(second_half >= 0.45, "after the reversal the registry hit {second_half:.3}");
        let _ = std::fs::remove_dir_all(&dir);
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
    fn insert_evicts_the_least_requested_resident() {
        let registry = ModelRegistry::new(2);
        let model: Arc<dyn CollectiveModel> = Arc::new(tiny_model(2));
        registry.insert("a", Arc::clone(&model));
        registry.insert("b", Arc::clone(&model));
        // `a` is requested more often; `b` is the more recent.
        for _ in 0..3 {
            registry.resolve("a").unwrap();
        }
        registry.resolve("b").unwrap();
        registry.insert("c", Arc::clone(&model));
        assert_eq!(registry.len(), 2);
        assert!(registry.contains("a"));
        assert!(!registry.contains("b"), "the least-requested resident is evicted");
        assert!(registry.contains("c"));
    }

    #[test]
    fn a_full_registry_without_snapshots_serves_a_just_inserted_tenant() {
        let registry = ModelRegistry::new(2);
        let model: Arc<dyn CollectiveModel> = Arc::new(tiny_model(5));
        registry.insert("hot", Arc::clone(&model));
        registry.insert("warm", Arc::clone(&model));
        for _ in 0..10 {
            registry.resolve("hot").unwrap();
            registry.resolve("warm").unwrap();
        }
        // Never requested, yet the insert displaces a resident, not itself.
        registry.insert("new", Arc::clone(&model));
        assert!(registry.resolve("new").is_ok());
        assert_eq!(registry.len(), 2);
        // Replacing a resident's model evicts nobody.
        registry.insert("new", Arc::clone(&model));
        assert_eq!(registry.len(), 2);
        assert!(registry.contains("new"));
    }

    #[test]
    fn one_off_tenants_never_evict_a_hot_resident() {
        let (dir, _) = snapshot_dir("one_off", 22);
        let registry = ModelRegistry::new(2).with_snapshot_dir(&dir);
        for _ in 0..2 {
            registry.resolve(&name(0)).unwrap();
            registry.resolve(&name(1)).unwrap();
        }
        for tenant in 2..22 {
            let served = registry.resolve(&name(tenant)).unwrap();
            assert_eq!(served.dim(), 2, "a one-off tenant is still served");
            assert!(!registry.contains(&name(tenant)), "a one-off load is not admitted");
        }
        assert!(registry.contains(&name(0)) && registry.contains(&name(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn request_counts_stay_within_their_bound() {
        let registry = ModelRegistry::new(4);
        let model: Arc<dyn CollectiveModel> = Arc::new(tiny_model(6));
        for tenant in 0..4 {
            registry.insert(&name(tenant), Arc::clone(&model));
        }
        let bound = 4 * TRACKED_PER_SLOT;
        for i in 0..10_000 {
            assert!(registry.resolve(&format!("one-off-{i}")).is_err());
            let inner = registry.inner.lock();
            assert!(inner.counts.len() <= bound, "{} names tracked", inner.counts.len());
        }
        let inner = registry.inner.lock();
        assert!((0..4).all(|t| inner.entries.contains_key(&name(t))));
        assert!((0..4).all(|t| inner.counts.contains_key(&name(t))), "residents keep a count");
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
        assert!(registry.contains("warm"), "a cold load with room is admitted");
        // Second resolve is a warm hit: the counter must not move again.
        let cold_after = osr_stats::counters::frontend_cold_loads();
        registry.resolve("warm").unwrap();
        assert_eq!(osr_stats::counters::frontend_cold_loads(), cold_after);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
