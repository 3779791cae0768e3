//! Durable snapshot persistence for fitted models: atomic last-good-wins
//! writes, corruption-safe loads, and the crash-recovery entry point the
//! serving layer degrades onto.
//!
//! A [`SnapshotStore`] names one on-disk snapshot file and guarantees:
//!
//! * **Atomicity** — [`SnapshotStore::save`] writes a temp file in the same
//!   directory, fsyncs it, renames it over the target, and fsyncs the
//!   directory. A crash at any point leaves either the previous last-good
//!   snapshot or the new one, never a torn file.
//! * **Determinism** — the byte output is a pure function of the model's
//!   canonical posterior state (see [`osr_stats::snapshot`]): saving twice,
//!   or saving a model loaded from the file, produces identical bytes.
//! * **Typed failure** — every corruption mode (truncation, bit-flips,
//!   version skew, dimension/method mismatch) surfaces as
//!   [`OsrError::Snapshot`] wrapping a typed
//!   [`SnapshotError`]; loading never
//!   panics.
//!
//! What is persisted: the converged posterior checkpoint (seating, dish
//! bank, concentrations), the training groups, and the [`HdpOsrConfig`]
//! fields the checkpoint does not already hold. The sampler schedule is
//! read back from the checkpoint's own config section, and a loaded model
//! serves [`ServingMode::WarmStart`], the only mode that can be saved.
//! What is deliberately **not** persisted: the fit-time
//! sweep trace and convergence diagnostics — they are observability about
//! how the checkpoint was reached, not serving state, so a reloaded model's
//! [`crate::HdpOsr::fit_report`] carries an empty trace while every serve
//! decision stays bit-identical to the original model's.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use osr_hdp::{HdpConfig, PosteriorSnapshot};
use osr_stats::snapshot::{
    Dec, Enc, SnapResult, SnapshotError, SnapshotFile, SnapshotWriter,
};
use osr_stats::SNAPSHOT_FORMAT_VERSION;

use crate::collective::CDOSR_METHOD;
use crate::model::{HdpOsr, HdpOsrConfig};
use crate::observability::FitReport;
use crate::serving::{self, ServingMode, WarmState};
use crate::{OsrError, Result};

/// Section id of the serving-layer configuration: the [`HdpOsrConfig`]
/// fields outside the sampler schedule.
/// Core-owned section ids live at 64+; the HDP posterior sections occupy
/// the low ids (see `osr-hdp`'s persist module).
pub const SEC_CORE_CONFIG: u32 = 64;

/// Header-level description of one snapshot file, as reported by
/// [`SnapshotStore::inspect`] and returned from [`SnapshotStore::save`].
/// The `format_version` field always carries [`SNAPSHOT_FORMAT_VERSION`]
/// for files this build wrote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotInfo {
    /// Container format version ([`SNAPSHOT_FORMAT_VERSION`]).
    pub format_version: u32,
    /// Method tag of the writer (e.g. `"cdosr"`).
    pub method: String,
    /// Feature dimension of the persisted model.
    pub dim: usize,
    /// Number of sections in the container.
    pub n_sections: usize,
    /// Total container size in bytes.
    pub bytes: usize,
}

/// Atomic persistence of last-good model snapshots at one path.
#[derive(Debug, Clone)]
pub struct SnapshotStore {
    path: PathBuf,
}

impl SnapshotStore {
    /// A store over `path` (nothing is touched until the first save).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        Self { path: path.into() }
    }

    /// The snapshot file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Whether a snapshot file currently exists at the store's path.
    pub fn exists(&self) -> bool {
        self.path.exists()
    }

    /// Serialize `model` and atomically persist it as the new last-good
    /// snapshot.
    ///
    /// # Errors
    /// [`OsrError::Snapshot`] when the model keeps no checkpoint (cold
    /// start) or on any I/O failure — in which case the previous last-good
    /// file, if any, is still intact.
    pub fn save(&self, model: &HdpOsr) -> Result<SnapshotInfo> {
        let bytes = encode_model(model)?;
        self.save_bytes(&bytes)?;
        osr_stats::counters::record_snapshot_save();
        let file = SnapshotFile::parse(&bytes).map_err(OsrError::Snapshot)?;
        Ok(SnapshotInfo {
            format_version: SNAPSHOT_FORMAT_VERSION,
            method: file.method().to_string(),
            dim: file.dim(),
            n_sections: file.n_sections(),
            bytes: bytes.len(),
        })
    }

    /// Atomically replace the store's file with `bytes`: write a temp file
    /// in the same directory, fsync it, rename it over the target, fsync
    /// the directory. A crash mid-save leaves the previous file untouched.
    ///
    /// # Errors
    /// [`OsrError::Snapshot`] wrapping `Io` on any filesystem failure.
    pub fn save_bytes(&self, bytes: &[u8]) -> Result<()> {
        let io = |stage: &'static str, e: std::io::Error| {
            OsrError::Snapshot(SnapshotError::Io(format!("{stage} {}: {e}", self.path.display())))
        };
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent).map_err(|e| io("creating parent of", e))?;
        }
        let tmp = self.temp_path();
        let mut file = fs::File::create(&tmp).map_err(|e| io("creating temp for", e))?;
        file.write_all(bytes).map_err(|e| io("writing temp for", e))?;
        file.sync_all().map_err(|e| io("syncing temp for", e))?;
        if osr_stats::faults::hit(osr_stats::faults::sites::SNAPSHOT_SAVE)
            == Some(osr_stats::faults::Fault::Corrupt)
        {
            // Simulated mid-save crash: the temp file is cut short and the
            // rename never happens — the last-good file stays authoritative,
            // exactly as after a real power loss between write and rename.
            let _ = file.set_len((bytes.len() / 2) as u64);
            let _ = file.sync_all();
            drop(file);
            return Err(OsrError::Snapshot(SnapshotError::Io(
                "injected mid-save crash before rename".to_string(),
            )));
        }
        drop(file);
        fs::rename(&tmp, &self.path).map_err(|e| io("renaming temp over", e))?;
        if let Some(parent) = self.path.parent().filter(|p| !p.as_os_str().is_empty()) {
            // Persist the rename itself; without the directory fsync a
            // crash can forget the new directory entry.
            if let Ok(dir) = fs::File::open(parent) {
                dir.sync_all().map_err(|e| io("syncing parent of", e))?;
            }
        }
        Ok(())
    }

    /// Read and fully decode the last-good snapshot into a servable model.
    ///
    /// # Errors
    /// [`OsrError::Snapshot`] with the typed corruption variant — never a
    /// panic — for truncation, bit-flips, version skew, dimension or method
    /// mismatch, and I/O failure. Failures bump the
    /// `snapshot.load_failures` counter; successes bump `snapshot.loads`.
    pub fn load(&self) -> Result<HdpOsr> {
        let result = self.load_inner();
        match &result {
            Ok(_) => osr_stats::counters::record_snapshot_load(),
            Err(_) => osr_stats::counters::record_snapshot_load_failure(),
        }
        result
    }

    fn load_inner(&self) -> Result<HdpOsr> {
        let bytes = self.load_bytes()?;
        decode_model(&bytes).map_err(OsrError::Snapshot)
    }

    /// Read the raw snapshot bytes without decoding.
    ///
    /// # Errors
    /// [`OsrError::Snapshot`] wrapping `Io` when the file cannot be read.
    pub fn load_bytes(&self) -> Result<Vec<u8>> {
        let mut bytes = fs::read(&self.path).map_err(|e| {
            OsrError::Snapshot(SnapshotError::Io(format!(
                "reading {}: {e}",
                self.path.display()
            )))
        })?;
        if osr_stats::faults::hit(osr_stats::faults::sites::SNAPSHOT_LOAD)
            == Some(osr_stats::faults::Fault::Corrupt)
        {
            // Deterministic in-flight corruption: flip one payload bit past
            // the preamble, as a failing disk or DMA error would.
            let idx = bytes.len() / 2;
            if let Some(b) = bytes.get_mut(idx) {
                *b ^= 0x01;
            }
        }
        Ok(bytes)
    }

    /// Parse and integrity-check the on-disk container without rebuilding
    /// the model — a cheap health probe for fleet supervisors.
    ///
    /// # Errors
    /// Same taxonomy as [`SnapshotStore::load`].
    pub fn inspect(&self) -> Result<SnapshotInfo> {
        let bytes = self.load_bytes()?;
        let file = SnapshotFile::parse(&bytes).map_err(OsrError::Snapshot)?;
        Ok(SnapshotInfo {
            format_version: file.version(),
            method: file.method().to_string(),
            dim: file.dim(),
            n_sections: file.n_sections(),
            bytes: bytes.len(),
        })
    }

    fn temp_path(&self) -> PathBuf {
        let mut name = self.path.file_name().map_or_else(
            || std::ffi::OsString::from("snapshot"),
            std::ffi::OsStr::to_os_string,
        );
        name.push(".tmp");
        self.path.with_file_name(name)
    }
}

/// Serialize a fitted warm-start model into the canonical container bytes.
///
/// # Errors
/// [`OsrError::Snapshot`] when the model was fitted cold and keeps no
/// posterior checkpoint to persist.
pub fn encode_model(model: &HdpOsr) -> Result<Vec<u8>> {
    let Some(snap) = model.snapshot() else {
        return Err(OsrError::Snapshot(SnapshotError::Malformed(
            "cold-start model keeps no posterior checkpoint to persist".to_string(),
        )));
    };
    let mut w = SnapshotWriter::new(CDOSR_METHOD, model.dim());
    let mut enc = Enc::new();
    encode_config(model.config(), &mut enc);
    w.section(SEC_CORE_CONFIG, enc.into_bytes());
    snap.write_sections(&mut w);
    Ok(w.finish())
}

/// Decode container bytes back into a servable warm-start model,
/// revalidating every configuration and posterior invariant.
///
/// # Errors
/// Typed [`SnapshotError`] for every corruption mode; never panics.
pub fn decode_model(bytes: &[u8]) -> SnapResult<HdpOsr> {
    let file = SnapshotFile::parse(bytes)?;
    if file.method() != CDOSR_METHOD {
        return Err(SnapshotError::MethodMismatch {
            expected: CDOSR_METHOD.to_string(),
            got: file.method().to_string(),
        });
    }
    let snap = PosteriorSnapshot::read_sections(&file)?;
    let mut dec = Dec::new(file.section(SEC_CORE_CONFIG)?);
    let config = decode_config(&mut dec, snap.config())?;
    dec.finish("core config section")?;
    config
        .validate()
        .map_err(|e| SnapshotError::Malformed(format!("HdpOsrConfig: {e}")))?;

    let n_classes = snap.n_groups();
    if n_classes == 0 {
        return Err(SnapshotError::Malformed(
            "checkpoint holds no training groups".to_string(),
        ));
    }
    let (assoc, known_reports) =
        serving::associate(config.varrho, n_classes, |c| snap.group_summary(c));
    // The fit-time sweep trace is observability, not serving state; a
    // recovered model reports an empty trace (FitReport::from_trace is
    // defined on empty traces) while serving bit-identically.
    let fit_report = FitReport::from_trace(config.train_seed, Vec::new());
    let warm = WarmState { snapshot: snap, assoc, known_reports, fit_report };
    Ok(HdpOsr::from_snapshot_parts(config, warm))
}

/// Write the serving-layer fields of `config`. The sampler schedule
/// (iterations, priors, concentration resampling) is the HDP config
/// section's, and the serving mode is implied: only a warm model has a
/// checkpoint to write.
fn encode_config(config: &HdpOsrConfig, enc: &mut Enc) {
    enc.put_f64(config.beta);
    enc.put_f64(config.nu_offset);
    enc.put_f64(config.rho);
    enc.put_f64(config.varrho);
    enc.put_usize(config.decision_sweeps);
    enc.put_u64(config.train_seed);
}

/// Inverse of [`encode_config`], filling the sampler schedule from the
/// checkpoint's `hdp` config and serving [`ServingMode::WarmStart`].
fn decode_config(dec: &mut Dec<'_>, hdp: &HdpConfig) -> SnapResult<HdpOsrConfig> {
    Ok(HdpOsrConfig {
        beta: dec.f64("beta")?,
        nu_offset: dec.f64("nu_offset")?,
        rho: dec.f64("rho")?,
        varrho: dec.f64("varrho")?,
        iterations: hdp.iterations,
        gamma_prior: hdp.gamma_prior,
        alpha_prior: hdp.alpha_prior,
        resample_concentrations: hdp.resample_concentrations,
        decision_sweeps: dec.usize("decision_sweeps")?,
        serving: ServingMode::WarmStart,
        train_seed: dec.u64("train_seed")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    use osr_dataset::protocol::TrainSet;
    use osr_stats::sampling;

    /// A store in its own per-test directory, so concurrent tests never
    /// share one.
    fn temp_store(name: &str) -> SnapshotStore {
        let dir =
            std::env::temp_dir().join(format!("osr_core_snap_{}_{name}", std::process::id()));
        SnapshotStore::new(dir.join(format!("{name}.bin")))
    }

    /// Remove a [`temp_store`]'s directory and everything in it.
    fn remove_temp_store(store: &SnapshotStore) {
        if let Some(dir) = store.path().parent() {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    fn blob(rng: &mut StdRng, cx: f64, cy: f64, n: usize, std: f64) -> Vec<Vec<f64>> {
        (0..n)
            .map(|_| {
                vec![
                    cx + std * sampling::standard_normal(rng),
                    cy + std * sampling::standard_normal(rng),
                ]
            })
            .collect()
    }

    fn fitted_model(serving: ServingMode) -> (HdpOsr, Vec<Vec<f64>>) {
        let mut rng = StdRng::seed_from_u64(9);
        let train = TrainSet {
            class_ids: vec![0, 1],
            classes: vec![blob(&mut rng, 0.0, 0.0, 24, 0.4), blob(&mut rng, 8.0, 8.0, 24, 0.4)],
        };
        let mut test = blob(&mut rng, 0.0, 0.0, 6, 0.4);
        test.extend(blob(&mut rng, -8.0, 8.0, 6, 0.4));
        let config = HdpOsrConfig {
            iterations: 12,
            serving,
            train_seed: 123,
            ..HdpOsrConfig::default()
        };
        (HdpOsr::fit(&config, &train).unwrap(), test)
    }

    #[test]
    fn config_codec_roundtrip_is_bit_identical() {
        let config = HdpOsrConfig {
            beta: 1.5,
            nu_offset: 3.0,
            rho: 0.3,
            varrho: 0.02,
            iterations: 7,
            gamma_prior: (50.0, 2.0),
            alpha_prior: (5.0, 0.5),
            resample_concentrations: false,
            decision_sweeps: 2,
            serving: ServingMode::WarmStart,
            train_seed: 0xDEAD_BEEF,
        };
        let mut enc = Enc::new();
        encode_config(&config, &mut enc);
        let bytes = enc.into_bytes();
        let mut dec = Dec::new(&bytes);
        let back = decode_config(&mut dec, &config.hdp_config()).unwrap();
        dec.finish("config").unwrap();
        let mut enc2 = Enc::new();
        encode_config(&back, &mut enc2);
        assert_eq!(bytes, enc2.into_bytes(), "config codec must be bit-stable");
        // The schedule comes back from the sampler config it was split into.
        assert_eq!(back.iterations, 7);
        assert_eq!(back.gamma_prior, (50.0, 2.0));
        assert_eq!(back.alpha_prior, (5.0, 0.5));
        assert!(!back.resample_concentrations);
    }

    #[test]
    fn save_load_resave_is_byte_identical_and_serves_bit_equal() {
        let (model, test) = fitted_model(ServingMode::WarmStart);
        let store = temp_store("roundtrip");
        let info = store.save(&model).unwrap();
        assert_eq!(info.format_version, SNAPSHOT_FORMAT_VERSION);
        assert_eq!(info.method, CDOSR_METHOD);
        assert_eq!(info.dim, 2);
        assert_eq!(store.inspect().unwrap(), info);

        let reloaded = store.load().unwrap();
        // Only a warm model can be saved, so a loaded one serves warm.
        assert_eq!(reloaded.config().serving, ServingMode::WarmStart);
        // Re-saving the reloaded model reproduces the file byte-for-byte.
        let original = store.load_bytes().unwrap();
        assert_eq!(encode_model(&reloaded).unwrap(), original);

        // Fitted and loaded models alike hold their training points once:
        // each class is the checkpoint's own group, not a copy of it.
        for (name, m) in [("fitted", &model), ("loaded", &reloaded)] {
            let groups = m.snapshot().unwrap().shared_groups();
            assert_eq!(m.classes().len(), groups.len());
            for (j, (class, group)) in m.classes().iter().zip(groups).enumerate() {
                assert!(std::sync::Arc::ptr_eq(class, group), "{name} class {j} is a copy");
            }
        }
        assert_eq!(reloaded.classes(), model.classes());

        // And the reloaded model serves bit-identically to the original.
        let a = model.classify_detailed(&test, &mut StdRng::seed_from_u64(5)).unwrap();
        let b = reloaded.classify_detailed(&test, &mut StdRng::seed_from_u64(5)).unwrap();
        assert_eq!(a.predictions, b.predictions);
        assert_eq!(a.test_dishes, b.test_dishes);
        assert_eq!(a.log_likelihood.to_bits(), b.log_likelihood.to_bits());
        assert_eq!(a.gamma.to_bits(), b.gamma.to_bits());
        assert_eq!(a.alpha.to_bits(), b.alpha.to_bits());
        // The fit-time sweep trace is observability, not serving state: the
        // reloaded report exists but carries no sweeps.
        let report = reloaded.fit_report().unwrap();
        assert!(report.trace.is_empty());
        remove_temp_store(&store);
    }

    #[test]
    fn cold_model_cannot_be_persisted() {
        let (model, _) = fitted_model(ServingMode::ColdStart);
        let store = temp_store("cold");
        let err = store.save(&model).unwrap_err();
        assert!(matches!(err, OsrError::Snapshot(SnapshotError::Malformed(_))));
        assert!(!store.exists(), "a failed save must not leave a file behind");
    }

    #[test]
    fn corruption_taxonomy_yields_typed_errors_never_panics() {
        let (model, _) = fitted_model(ServingMode::WarmStart);
        let store = temp_store("taxonomy");
        store.save(&model).unwrap();
        let good = store.load_bytes().unwrap();

        // Truncation at every eighth prefix (cheap but representative).
        for len in (0..good.len()).step_by(8) {
            assert!(decode_model(&good[..len]).is_err(), "truncated at {len} must fail");
        }
        // Version skew: patch the version field and fix up the header CRC by
        // reparsing failure (the CRC covers it, so the flip alone is a
        // checksum mismatch — both are typed, neither panics).
        let mut skew = good.clone();
        skew[8] ^= 0x02;
        assert!(matches!(
            decode_model(&skew),
            Err(SnapshotError::ChecksumMismatch { .. } | SnapshotError::VersionSkew { .. })
        ));
        // A flipped payload byte is caught by a section checksum.
        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        assert!(decode_model(&flipped).is_err());
        remove_temp_store(&store);
    }

    #[test]
    fn missing_file_is_a_typed_io_error() {
        let store = temp_store("never_written");
        assert!(matches!(store.load(), Err(OsrError::Snapshot(SnapshotError::Io(_)))));
        assert!(matches!(store.inspect(), Err(OsrError::Snapshot(SnapshotError::Io(_)))));
    }
}
