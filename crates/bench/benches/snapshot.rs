//! Snapshot persistence cost — encode/save/decode/load vs. posterior size.
//!
//! Fits warm models with a growing class menu on 2-D blobs (each class adds
//! dishes and sufficient statistics to the checkpoint), plus one
//! LETTER-shaped tenant of the repository benchmark (`letter_config()
//! .scaled(0.1)`, a 10-known split, d = 16, ≈100 KB), and measures the legs
//! of the durability path:
//!
//! * **encode** — [`encode_model`]: canonical bytes in memory (pure CPU);
//! * **save** — [`SnapshotStore::save`]: temp write + fsync + atomic rename
//!   (dominated by the disk barrier, so it gets fewer samples);
//! * **read** — `fs::read` of the file alone;
//! * **parse** — [`SnapshotFile::parse`]: container framing and every
//!   section CRC, no section decoded;
//! * **decode** — [`decode_model`]: parse + checksum + posterior rebuild;
//! * **drop** — freeing a decoded model (what a registry eviction pays);
//! * **load** — [`SnapshotStore::load`]: read-back + decode.
//!
//! Medians plus bytes-on-disk per scene are written to
//! `BENCH_snapshot.json` at the repository root.
//!
//! ```text
//! cargo bench -p osr-bench --bench snapshot
//! ```

use hdp_osr_core::snapshot::{decode_model, encode_model};
use hdp_osr_core::{HdpOsr, HdpOsrConfig, ServingMode, SnapshotStore};
use osr_bench::timing::{measure, measure_batched, write_report};
use osr_dataset::protocol::{OpenSetSplit, SplitConfig, TrainSet};
use osr_stats::sampling;
use osr_stats::snapshot::{SnapshotFile, SNAPSHOT_FORMAT_VERSION};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::hint::black_box;

/// Pure in-memory legs (encode / decode) — cheap, so sample generously.
const CPU_SAMPLES: usize = 200;
/// Durable legs (save / load) pay an fsync each iteration; keep it short.
const DISK_SAMPLES: usize = 30;
const SEED: u64 = 2026;

#[derive(Serialize)]
struct SceneReport {
    /// `blobs` (2-D toy) or `letter` (a benchmark tenant).
    scene: &'static str,
    classes: usize,
    dim: usize,
    n_dishes: usize,
    bytes_on_disk: usize,
    encode_median_us: f64,
    save_median_us: f64,
    read_median_us: f64,
    parse_median_us: f64,
    decode_median_us: f64,
    drop_median_us: f64,
    load_median_us: f64,
    cpu_samples: usize,
    disk_samples: usize,
}

#[derive(Serialize)]
struct Report {
    schema: &'static str,
    /// Container format the measured save/load path speaks; a report from
    /// an older format is not comparable byte-for-byte.
    snapshot_format_version: u32,
    seed: u64,
    scenes: Vec<SceneReport>,
}

/// `n` well-separated classes of 2-D blobs on a circle of radius 8.
fn scene(rng: &mut StdRng, classes: usize) -> TrainSet {
    let blobs = (0..classes)
        .map(|c| {
            let theta = std::f64::consts::TAU * c as f64 / classes as f64;
            let (cx, cy) = (8.0 * theta.cos(), 8.0 * theta.sin());
            (0..40)
                .map(|_| {
                    vec![
                        cx + 0.5 * sampling::standard_normal(rng),
                        cy + 0.5 * sampling::standard_normal(rng),
                    ]
                })
                .collect()
        })
        .collect();
    TrainSet { class_ids: (1..=classes).collect(), classes: blobs }
}

/// One tenant of the repository benchmark: a 10-known + 5-unknown split of
/// the LETTER replica (`letter_config().scaled(0.1)`, d = 16).
fn letter_tenant() -> TrainSet {
    let mut rng = StdRng::seed_from_u64(42);
    let data = osr_dataset::synthetic::letter_config().scaled(0.1).generate(&mut rng);
    let mut split_rng = StdRng::seed_from_u64(SEED);
    OpenSetSplit::sample(&data, &SplitConfig::new(10, 5), &mut split_rng)
        .expect("10 + 5 split of the LETTER replica")
        .train
}

fn blob_scene(classes: usize) -> SceneReport {
    let mut rng = StdRng::seed_from_u64(SEED ^ classes as u64);
    let config = HdpOsrConfig {
        iterations: 12,
        decision_sweeps: 3,
        serving: ServingMode::WarmStart,
        ..Default::default()
    };
    bench_scene("blobs", &scene(&mut rng, classes), &config)
}

fn bench_scene(name: &'static str, train: &TrainSet, config: &HdpOsrConfig) -> SceneReport {
    let classes = train.n_classes();
    let model = HdpOsr::fit(config, train).expect("warm fit for bench scene");
    let n_dishes = model.snapshot().expect("warm model has a snapshot").n_dishes();

    let path = std::env::temp_dir()
        .join(format!("osr_bench_snap_{}_{name}_{classes}.bin", std::process::id()));
    let store = SnapshotStore::new(&path);
    let info = store.save(&model).expect("initial save");
    let bytes = store.load_bytes().expect("read-back bytes");
    assert_eq!(bytes.len(), info.bytes);
    // One full round trip up front so the timed loops exercise warm paths.
    let reloaded = store.load().expect("initial load");
    assert_eq!(encode_model(&reloaded).expect("re-encode"), bytes);

    let encode = measure(CPU_SAMPLES, || encode_model(black_box(&model)).unwrap());
    let read = measure(CPU_SAMPLES, || std::fs::read(black_box(&path)).unwrap());
    let parse = measure(CPU_SAMPLES, || SnapshotFile::parse(black_box(&bytes)).is_ok());
    let decode = measure(CPU_SAMPLES, || decode_model(black_box(&bytes)).unwrap());
    let free = measure_batched(CPU_SAMPLES, || decode_model(&bytes).unwrap(), std::mem::drop);
    let save = measure(DISK_SAMPLES, || store.save(black_box(&model)).unwrap());
    let load = measure(DISK_SAMPLES, || store.load().unwrap());
    let _ = std::fs::remove_file(&path);

    SceneReport {
        scene: name,
        classes,
        dim: model.dim(),
        n_dishes,
        bytes_on_disk: info.bytes,
        encode_median_us: encode.median.as_secs_f64() * 1e6,
        save_median_us: save.median.as_secs_f64() * 1e6,
        read_median_us: read.median.as_secs_f64() * 1e6,
        parse_median_us: parse.median.as_secs_f64() * 1e6,
        decode_median_us: decode.median.as_secs_f64() * 1e6,
        drop_median_us: free.median.as_secs_f64() * 1e6,
        load_median_us: load.median.as_secs_f64() * 1e6,
        cpu_samples: [read, parse, decode, free]
            .iter()
            .fold(encode.samples, |n, s| n.min(s.samples)),
        disk_samples: save.samples.min(load.samples),
    }
}

fn main() {
    let report = Report {
        schema: "snapshot-bench-v1",
        snapshot_format_version: SNAPSHOT_FORMAT_VERSION,
        seed: SEED,
        scenes: [2, 4, 8]
            .into_iter()
            .map(blob_scene)
            .chain([bench_scene("letter", &letter_tenant(), &HdpOsrConfig::default())])
            .collect(),
    };
    for s in &report.scenes {
        eprintln!(
            "{:<6} classes={:>2} d={:>2} dishes={:>3} {:>7} B: encode {:>8.1} us, \
             save {:>8.1} us, read {:>8.1} us, parse {:>8.1} us, decode {:>8.1} us, \
             drop {:>8.1} us, \
             load {:>8.1} us",
            s.scene,
            s.classes,
            s.dim,
            s.n_dishes,
            s.bytes_on_disk,
            s.encode_median_us,
            s.save_median_us,
            s.read_median_us,
            s.parse_median_us,
            s.decode_median_us,
            s.drop_median_us,
            s.load_median_us,
        );
    }
    write_report("BENCH_snapshot.json", &report);
}
