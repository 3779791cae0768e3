//! Exact registry counters under frequency admission.
//!
//! The process-wide `frontend_cold_loads` and `frontend_evictions` counters
//! are what the benchmark reads for the registry's cost, so they must mean
//! what they say: every snapshot load counts, admitted or not, and only a
//! resident actually displaced counts as an eviction. The counters are
//! global, so this suite holds one test and owns its process.

mod common;

use std::sync::Arc;

use hdp_osr::core::{CollectiveModel, ModelRegistry, ServingMode, SnapshotStore};
use hdp_osr::stats::counters;

#[test]
fn cold_loads_count_every_load_and_evictions_only_real_ones() {
    let dir = std::env::temp_dir().join(format!("osr_registry_admission_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let (model, _) = common::model_and_batches(ServingMode::WarmStart);
    let registry = ModelRegistry::new(2).with_snapshot_dir(&dir);
    for tenant in ["hot", "warm", "x1", "x2", "x3"] {
        let path = registry.snapshot_path(tenant).expect("snapshot dir attached");
        SnapshotStore::new(path).save(&model).expect("save");
    }
    let counts = || (counters::frontend_cold_loads(), counters::frontend_evictions());
    let start = counts();
    let since = |(loads, evictions): (u64, u64)| (loads - start.0, evictions - start.1);

    // Two cold loads into free room, then warm hits: nothing evicted.
    for _ in 0..2 {
        registry.resolve("hot").expect("hot");
        registry.resolve("warm").expect("warm");
    }
    assert_eq!(since(counts()), (2, 0));

    // Three one-off tenants, each requested less often than either
    // resident: three loads served, none admitted, nothing evicted.
    for tenant in ["x1", "x2", "x3"] {
        registry.resolve(tenant).expect("one-off tenant is served");
    }
    assert_eq!(since(counts()), (5, 0));
    assert!(registry.contains("hot") && registry.contains("warm"));

    // `x1` ties the residents' count of 2 on its second request (a tie
    // keeps the resident) and passes it on the third: two more loads, one
    // admission, one eviction.
    registry.resolve("x1").expect("x1");
    assert!(!registry.contains("x1"), "a tie keeps the resident");
    registry.resolve("x1").expect("x1");
    assert!(registry.contains("x1"), "a higher count is admitted");
    assert_eq!(since(counts()), (7, 1));
    assert_eq!(registry.len(), 2);

    // An insert always lands, displacing one resident; re-inserting a
    // resident replaces its model and displaces nobody.
    let inserted: Arc<dyn CollectiveModel> = Arc::new(model);
    registry.insert("fresh", Arc::clone(&inserted));
    registry.insert("fresh", inserted);
    assert_eq!(since(counts()), (7, 2));
    assert!(registry.contains("fresh"));
    assert_eq!(registry.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}
