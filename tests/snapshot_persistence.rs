//! Durable snapshot acceptance suite: round-trip byte identity, the
//! corruption taxonomy, atomic last-good-wins persistence, and the
//! replica-fleet byte-identity proof.
//!
//! The central claims under test:
//!
//! 1. **Round-trip determinism** — `save → load → re-save` reproduces the
//!    container byte-for-byte, and a reloaded model serves bit-identically
//!    to the model that wrote it.
//! 2. **Corruption safety** — every way a snapshot file can rot
//!    (truncation, bit-flips, version skew, foreign method, trailing
//!    garbage) yields a typed [`SnapshotError`], never a panic.
//! 3. **Fleet identity** — several `BatchServer` replicas loading the *same
//!    snapshot file* and serving the same traffic emit the writer model's
//!    trace stream byte for byte (committed golden:
//!    `tests/goldens/batch_stream.jsonl`), and partitioning the traffic
//!    across replicas reproduces the exact outcomes of one replica serving
//!    everything.

mod common;

use std::fs;

use common::{check_golden, model_and_batches, trace_lines, SEED};
use hdp_osr::core::{
    derive_batch_seed, BatchServer, HdpOsr, OsrError, ServingMode, SnapshotStore,
};
use hdp_osr::core::snapshot::{decode_model, encode_model, SEC_CORE_CONFIG};
use hdp_osr::stats::snapshot::{
    SnapshotError, SnapshotFile, SnapshotWriter, SNAPSHOT_FORMAT_VERSION,
};

/// A store in its own per-test directory: tests run concurrently, and a
/// shared directory would let one test's directory scan see another test's
/// in-flight temp file.
fn temp_store(name: &str) -> SnapshotStore {
    let dir = std::env::temp_dir().join(format!("osr_snap_persist_{}_{name}", std::process::id()));
    SnapshotStore::new(dir.join(format!("{name}.bin")))
}

/// Remove a [`temp_store`]'s directory and everything in it.
fn remove_temp_store(store: &SnapshotStore) {
    if let Some(dir) = store.path().parent() {
        let _ = fs::remove_dir_all(dir);
    }
}

#[test]
fn save_load_resave_round_trip_is_byte_identical() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let store = temp_store("round_trip");
    let info = store.save(&model).expect("healthy save");
    assert_eq!(info.format_version, SNAPSHOT_FORMAT_VERSION);
    assert_eq!(info.method, "cdosr");

    let first = store.load_bytes().expect("saved bytes");
    assert_eq!(first.len(), info.bytes);
    let reloaded = store.load().expect("clean load");

    // Re-save through the store (not just re-encode): the full
    // save → load → re-save cycle must reproduce the file byte-for-byte.
    let store2 = temp_store("round_trip_resaved");
    store2.save(&reloaded).expect("re-save");
    assert_eq!(store2.load_bytes().unwrap(), first, "re-saved container drifted");

    // And a third generation stays fixed (the cycle is idempotent, not
    // merely 2-periodic).
    let reloaded2 = store2.load().expect("clean second load");
    assert_eq!(encode_model(&reloaded2).unwrap(), first);
    remove_temp_store(&store);
    remove_temp_store(&store2);
}

#[test]
fn every_corruption_mode_is_a_typed_error_never_a_panic() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let good = encode_model(&model).expect("encode");

    // Truncation at every prefix length: always a typed error.
    for len in 0..good.len().min(200) {
        assert!(decode_model(&good[..len]).is_err(), "prefix {len} decoded");
    }
    for len in (200..good.len()).step_by(97) {
        assert!(decode_model(&good[..len]).is_err(), "prefix {len} decoded");
    }

    // A single flipped bit anywhere in the container is detected. Every
    // byte position is cheap enough to sweep exhaustively here because the
    // scene is small.
    for pos in 0..good.len() {
        let mut bad = good.clone();
        bad[pos] ^= 0x40;
        assert!(decode_model(&bad).is_err(), "flip at byte {pos} decoded");
    }

    // Trailing garbage after a valid container.
    let mut padded = good.clone();
    padded.extend_from_slice(&[0u8; 7]);
    assert!(decode_model(&padded).is_err(), "trailing garbage decoded");

    // A past or future format version (with a consistent header) is version
    // skew: version 1 carried the prior-posterior section this build no
    // longer writes or reads, and version 2 stored derived seats, slots and
    // counts beside the facts they derive from.
    for version in [1, 2, SNAPSHOT_FORMAT_VERSION + 1] {
        let skewed = SnapshotWriter::with_version(version, "cdosr", 2).finish();
        assert!(matches!(
            decode_model(&skewed),
            Err(SnapshotError::VersionSkew { found, supported })
                if found == version && supported == SNAPSHOT_FORMAT_VERSION
        ));
    }

    // A container written by a different method is rejected by tag, not by
    // section shape.
    let foreign = SnapshotWriter::new("wsvm", 2).finish();
    assert!(matches!(
        decode_model(&foreign),
        Err(SnapshotError::MethodMismatch { expected, got })
            if expected == "cdosr" && got == "wsvm"
    ));

    // A well-formed container with no sections is a typed missing-section
    // error.
    let empty = SnapshotWriter::new("cdosr", 2).finish();
    assert!(matches!(decode_model(&empty), Err(SnapshotError::MissingSection { .. })));
}

/// One table of a seating section: its dish and its member list.
type WireTable = (u64, Vec<u64>);

/// One group of a seating section: its point count, the raw bytes of its
/// points, and its tables.
struct WireGroup {
    len: u64,
    points: Vec<u8>,
    tables: Vec<WireTable>,
}

/// A seating section taken apart: the menu's live flags, the groups, and
/// the trailing concentrations (raw bytes).
struct WireSeating {
    live: Vec<bool>,
    groups: Vec<WireGroup>,
    concentrations: Vec<u8>,
}

/// Parse a seating section payload of `d`-dimensional points.
fn parse_seating(bytes: &[u8], d: usize) -> WireSeating {
    let u64_at = |pos: &mut usize| {
        let v = u64::from_le_bytes(bytes[*pos..*pos + 8].try_into().unwrap());
        *pos += 8;
        v
    };
    let mut pos = 0;
    let n_ids = u64_at(&mut pos) as usize;
    let live = bytes[pos..pos + n_ids].iter().map(|&b| b == 1).collect();
    pos += n_ids;
    let n_groups = u64_at(&mut pos);
    let mut groups = Vec::new();
    for _ in 0..n_groups {
        let len = u64_at(&mut pos);
        let points = bytes[pos..pos + len as usize * d * 8].to_vec();
        pos += points.len();
        let n_tables = u64_at(&mut pos);
        let tables = (0..n_tables)
            .map(|_| {
                let dish = u64_at(&mut pos);
                let n = u64_at(&mut pos);
                (dish, (0..n).map(|_| u64_at(&mut pos)).collect())
            })
            .collect();
        groups.push(WireGroup { len, points, tables });
    }
    WireSeating { live, groups, concentrations: bytes[pos..].to_vec() }
}

/// Inverse of [`parse_seating`].
fn write_seating(seating: &WireSeating) -> Vec<u8> {
    let mut out = (seating.live.len() as u64).to_le_bytes().to_vec();
    out.extend(seating.live.iter().map(|&l| u8::from(l)));
    out.extend((seating.groups.len() as u64).to_le_bytes());
    for group in &seating.groups {
        out.extend(group.len.to_le_bytes());
        out.extend_from_slice(&group.points);
        out.extend((group.tables.len() as u64).to_le_bytes());
        for (dish, members) in &group.tables {
            out.extend(dish.to_le_bytes());
            out.extend((members.len() as u64).to_le_bytes());
            members.iter().for_each(|m| out.extend(m.to_le_bytes()));
        }
    }
    out.extend_from_slice(&seating.concentrations);
    out
}

/// A copy of the container `good` with its seating and bank sections
/// edited and every CRC restamped, so only the decoder's audit can reject
/// it.
fn with_edited_posterior(
    good: &[u8],
    edit: impl FnOnce(&mut WireSeating, &mut Vec<u8>),
) -> Vec<u8> {
    // The order the writer emits: the core config, then the HDP sections
    // (params 1, sampler config 2, seating 3, bank 4).
    const SEATING: u32 = 3;
    const BANK: u32 = 4;
    let file = SnapshotFile::parse(good).unwrap();
    let mut seating = parse_seating(file.section(SEATING).unwrap(), file.dim());
    let mut bank = file.section(BANK).unwrap().to_vec();
    edit(&mut seating, &mut bank);
    let mut w = SnapshotWriter::new(file.method(), file.dim());
    for id in [SEC_CORE_CONFIG, 1, 2, SEATING, BANK] {
        w.section(
            id,
            match id {
                SEATING => write_seating(&seating),
                BANK => bank.clone(),
                _ => file.section(id).unwrap().to_vec(),
            },
        );
    }
    w.finish()
}

/// [`with_edited_posterior`] on group 0's tables alone; `edit` also gets
/// the group's point count.
fn with_edited_seating(good: &[u8], edit: impl FnOnce(&mut Vec<WireTable>, u64)) -> Vec<u8> {
    with_edited_posterior(good, |seating, _| {
        let group = &mut seating.groups[0];
        edit(&mut group.tables, group.len)
    })
}

#[test]
fn crafted_seating_corruptions_load_as_malformed() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let good = encode_model(&model).expect("encode");
    // The rewrite itself is exact: a no-op edit reproduces the container.
    assert_eq!(with_edited_seating(&good, |_, _| {}), good);

    let store = temp_store("crafted_seating");
    store.save(&model).expect("save");
    let duplicate = with_edited_seating(&good, |tables, _| {
        let first = tables[0].1[0];
        tables[0].1.push(first);
    });
    let unlisted = with_edited_seating(&good, |tables, _| {
        let table = tables.iter_mut().find(|t| t.1.len() >= 2).expect("a shared table");
        table.1.pop();
    });
    let out_of_range = with_edited_seating(&good, |tables, len| tables[0].1.push(len + 3));
    // A new highest dish id, live, with a bank record of its own (a copy
    // of the last dish's, which the highest id owns), that no table serves.
    let unserved = with_edited_posterior(&good, |seating, bank| {
        seating.live.push(true);
        let d = 2;
        let record = 8 * (2 + d + d * (d + 1));
        let last = bank[bank.len() - record..].to_vec();
        bank.extend(last);
    });
    for (name, bytes, want) in [
        ("duplicate member", duplicate, "twice"),
        ("unlisted member", unlisted, "sits at no table"),
        ("out of range member", out_of_range, "of a group of"),
        ("unserved dish", unserved, "is served by no table"),
    ] {
        fs::write(store.path(), &bytes).unwrap();
        match store.load() {
            Err(OsrError::Snapshot(SnapshotError::Malformed(msg))) if msg.contains(want) => {}
            Err(other) => panic!("{name}: expected Malformed(.. {want} ..), got {other:?}"),
            Ok(_) => panic!("{name}: a corrupt seating loaded"),
        }
    }
    remove_temp_store(&store);
}

#[test]
fn save_is_atomic_and_leaves_no_temp_residue() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let store = temp_store("atomic");
    store.save(&model).expect("first save");
    store.save(&model).expect("second save over the first");

    let dir = store.path().parent().expect("store has a parent dir");
    let residue: Vec<_> = fs::read_dir(dir)
        .expect("readable store dir")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".tmp"))
        .collect();
    assert!(residue.is_empty(), "temp files left behind: {residue:?}");

    // A failed save (cold model has nothing to persist) must not clobber
    // the last-good file.
    let before = store.load_bytes().unwrap();
    let (cold, _) = model_and_batches(ServingMode::ColdStart);
    assert!(matches!(store.save(&cold), Err(OsrError::Snapshot(_))));
    assert_eq!(store.load_bytes().unwrap(), before, "failed save touched last-good");
    remove_temp_store(&store);
}

#[test]
fn replica_fleet_loading_one_snapshot_serves_byte_identical_streams() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    let store = temp_store("fleet");
    store.save(&model).expect("healthy save");

    // Three replicas, each a fresh process-like load of the same file,
    // serving the same traffic under different worker counts: the streams
    // must be byte-identical to each other and to the committed batch golden
    // that the golden-trace suite pins for the writer model.
    let replicas: Vec<HdpOsr> =
        (0..3).map(|_| store.load().expect("replica load")).collect();
    let streams: Vec<Vec<String>> = replicas
        .iter()
        .zip([1usize, 2, 8])
        .map(|(replica, workers)| trace_lines(replica, &batches, workers))
        .collect();
    assert_eq!(streams[0], streams[1], "replica 1 diverged from replica 0");
    assert_eq!(streams[0], streams[2], "replica 2 diverged from replica 0");

    // The fleet must also match the *writer* serving the same traffic: a
    // reloaded replica is indistinguishable from the original model.
    let writer_stream = trace_lines(&model, &batches, 2);
    assert_eq!(streams[0], writer_stream, "replica diverged from the writer model");

    check_golden("batch_stream.jsonl", &streams[0].join("\n"));
    remove_temp_store(&store);
}

#[test]
fn partitioned_traffic_across_replicas_matches_one_replica_serving_all() {
    let (model, batches) = model_and_batches(ServingMode::WarmStart);
    let store = temp_store("partition");
    store.save(&model).expect("healthy save");

    let full_server_model = store.load().expect("load");
    let full = BatchServer::with_workers(&full_server_model, 2).classify_batches(&batches, SEED);

    // Partition the traffic: replica r serves batch j alone, seeding its
    // singleton run with `derive_batch_seed(SEED, j)`. Because
    // `derive_batch_seed(x, 0) == x`, the singleton's batch 0 replays the
    // fleet seed schedule exactly — per-batch outcomes are a pure function
    // of (snapshot bytes, batch, derived seed), not of which replica or
    // slot served them.
    for (j, batch) in batches.iter().enumerate() {
        let replica = store.load().expect("replica load");
        let solo = BatchServer::with_workers(&replica, 1)
            .classify_batches(std::slice::from_ref(batch), derive_batch_seed(SEED, j));
        let solo_outcome = solo[0].as_ref().expect("healthy singleton");
        let full_outcome = full[j].as_ref().expect("healthy fleet batch");
        assert_eq!(solo_outcome.predictions, full_outcome.predictions, "batch {j}");
        assert_eq!(solo_outcome.test_dishes, full_outcome.test_dishes, "batch {j}");
        assert_eq!(
            solo_outcome.log_likelihood.to_bits(),
            full_outcome.log_likelihood.to_bits(),
            "batch {j}"
        );
        assert_eq!(solo_outcome.gamma.to_bits(), full_outcome.gamma.to_bits(), "batch {j}");
        assert_eq!(solo_outcome.alpha.to_bits(), full_outcome.alpha.to_bits(), "batch {j}");
    }
    remove_temp_store(&store);
}

#[test]
fn snapshot_info_inspection_is_cheap_and_accurate() {
    let (model, _) = model_and_batches(ServingMode::WarmStart);
    let store = temp_store("inspect");
    let saved = store.save(&model).expect("save");
    let inspected = store.inspect().expect("inspect");
    assert_eq!(saved, inspected);
    assert_eq!(inspected.dim, 2);
    assert!(inspected.n_sections >= 5, "config + four posterior sections");
    assert_eq!(inspected.bytes, store.load_bytes().unwrap().len());
    remove_temp_store(&store);
}
