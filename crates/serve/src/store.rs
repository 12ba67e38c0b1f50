//! The persistent model store: versioned, checksummed artifact files.
//!
//! A long-running tuning service must survive restarts without repeating
//! the (expensive) offline phase, so everything it learned is persisted as
//! four artifacts inside one store directory:
//!
//! * `model.json` — the serialized [`Pretrained`] bundle (cluster centers,
//!   GNN encoders, warm-up datasets); a *superseded* model (e.g. replaced
//!   after an incremental re-pretrain) is rotated to `model.json.bak`
//!   rather than overwritten, so one bad swap is always recoverable;
//! * `gedcache.json` — a [`GedCacheSnapshot`] of every memoized A\* fact,
//!   so a re-pretraining run (e.g. on a grown corpus) starts warm;
//! * `corpus.json` — the execution-history corpus the model was trained
//!   on, so incremental corpus growth (appending an uncovered DAG and
//!   re-pretraining warm) works across restarts;
//! * `jobs.json` — the completed job ledger (capped by the server's
//!   ledger rotation), so `status` answers across restarts;
//! * `decisions.json` — the decision audit trail (one
//!   [`DecisionRecord`](crate::decision::DecisionRecord) per
//!   recommendation, capped alongside the ledger), so `explain` answers
//!   across restarts.
//!
//! Every file is wrapped in the same **envelope**: a JSON object carrying
//! `magic` (format name), `version`, `checksum` (FNV-1a 64 of the compact
//! payload text) and `payload`. Readers *tolerate unknown extra fields* —
//! a future version may add fields without breaking old readers — but
//! refuse wrong magic, a version from the future, and any checksum
//! mismatch with an explicit [`StoreError`]; malformed input never
//! panics. The payload text is checksummed exactly as embedded (compact
//! rendering), so verification is a pure re-render of the parsed payload.

use serde::{Deserialize, Serialize, Value};
use std::path::{Path, PathBuf};
use streamtune_core::Pretrained;
use streamtune_ged::GedCacheSnapshot;
use streamtune_workloads::history::ExecutionRecord;

use crate::decision::DecisionRecord;
use crate::job::PersistedJob;

/// Format name every store artifact carries.
pub const STORE_MAGIC: &str = "streamtune-model-store";

/// Envelope version this build writes (and the newest it reads).
pub const STORE_VERSION: u64 = 1;

/// A failed store operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Reading or writing an artifact file failed.
    Io {
        /// The file involved.
        path: String,
        /// The underlying error rendered to text.
        message: String,
    },
    /// An artifact is not valid JSON or not a valid envelope/payload.
    Format {
        /// The file involved.
        path: String,
        /// What was wrong.
        message: String,
    },
    /// The artifact's payload does not match its recorded checksum.
    ChecksumMismatch {
        /// The file involved.
        path: String,
        /// Checksum recorded in the envelope.
        recorded: u64,
        /// Checksum of the payload actually present.
        actual: u64,
    },
    /// The file is not a store artifact at all (wrong `magic`).
    WrongMagic {
        /// The file involved.
        path: String,
        /// The magic string found.
        found: String,
    },
    /// The artifact was written by a newer format version.
    UnsupportedVersion {
        /// The file involved.
        path: String,
        /// The version found.
        version: u64,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, message } => write!(f, "{path}: {message}"),
            StoreError::Format { path, message } => write!(f, "{path}: {message}"),
            StoreError::ChecksumMismatch {
                path,
                recorded,
                actual,
            } => write!(
                f,
                "{path}: checksum mismatch (recorded {recorded:#018x}, payload hashes to \
                 {actual:#018x}) — the artifact is corrupt or was edited by hand"
            ),
            StoreError::WrongMagic { path, found } => {
                write!(f, "{path}: not a {STORE_MAGIC} artifact (magic `{found}`)")
            }
            StoreError::UnsupportedVersion { path, version } => write!(
                f,
                "{path}: envelope version {version} is newer than this build understands \
                 ({STORE_VERSION})"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// Whether the error means *the bytes on disk are damaged* — as
    /// opposed to unreadable (I/O) or written by a newer build
    /// (`UnsupportedVersion`, where the file is fine and quarantining it
    /// would destroy a future format's data).
    pub fn is_corruption(&self) -> bool {
        matches!(
            self,
            StoreError::Format { .. }
                | StoreError::ChecksumMismatch { .. }
                | StoreError::WrongMagic { .. }
        )
    }
}

/// FNV-1a 64-bit over `bytes` — a small, dependency-free integrity hash.
/// This detects corruption and accidental edits, not adversaries.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// Serialize `payload` into an envelope and write it to `path`.
///
/// The write is atomic (temp file + rename in the same directory): a
/// crash mid-snapshot must never leave a truncated artifact in place of
/// the previously good one, or the daemon could not restart from its own
/// store.
pub fn write_envelope<T: Serialize>(path: &Path, payload: &T) -> Result<(), StoreError> {
    let text = envelope_text(path, payload)?;
    write_text_atomic(path, &text)
}

/// Render the full envelope text for `payload` (the exact bytes
/// [`write_envelope`] would put on disk — the writer is deterministic, so
/// equal payloads produce byte-equal envelopes).
fn envelope_text<T: Serialize>(path: &Path, payload: &T) -> Result<String, StoreError> {
    let payload_json = serde_json::to_string(payload).map_err(|e| StoreError::Format {
        path: path.display().to_string(),
        message: format!("serialize payload: {e}"),
    })?;
    let checksum = fnv1a64(payload_json.as_bytes());
    Ok(format!(
        "{{\"magic\":\"{STORE_MAGIC}\",\"version\":{STORE_VERSION},\
         \"checksum\":{checksum},\"payload\":{payload_json}}}"
    ))
}

/// Atomically and *durably* place `text` at `path` (temp file + fsync +
/// rename + parent-directory fsync).
///
/// The rename makes the swap atomic against concurrent readers; the
/// `sync_all` before it makes it crash-safe — without the fsync a power
/// cut after the rename can leave the *new name pointing at unwritten
/// data* (rename metadata often reaches the journal before file pages
/// reach the platter). The parent-directory fsync then persists the
/// rename itself, so a crash cannot roll the swap back after callers
/// were told it succeeded. The directory sync is best-effort: some
/// filesystems refuse `fsync` on directory handles, and losing only the
/// rename (not the bytes) still leaves the previous good artifact.
fn write_text_atomic(path: &Path, text: &str) -> Result<(), StoreError> {
    use std::io::Write as _;
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let io_err = |e: std::io::Error| StoreError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    let mut file = std::fs::File::create(&tmp).map_err(io_err)?;
    file.write_all(text.as_bytes()).map_err(io_err)?;
    file.sync_all().map_err(io_err)?;
    drop(file);
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(parent) = path.parent() {
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// Read and verify an envelope from `path`, deserializing its payload.
///
/// Unknown envelope fields are ignored (forward compatibility); wrong
/// magic, future versions and checksum mismatches are explicit errors.
pub fn read_envelope<T: Deserialize>(path: &Path) -> Result<T, StoreError> {
    let display = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| StoreError::Io {
        path: display.clone(),
        message: e.to_string(),
    })?;
    let value: Value = serde_json::from_str(&text).map_err(|e| StoreError::Format {
        path: display.clone(),
        message: format!("invalid JSON: {e}"),
    })?;
    let envelope_field = |name: &str| {
        value.field(name).map_err(|e| StoreError::Format {
            path: display.clone(),
            message: format!("invalid envelope: {e}"),
        })
    };
    let magic = String::deserialize(envelope_field("magic")?).map_err(|e| StoreError::Format {
        path: display.clone(),
        message: format!("invalid envelope magic: {e}"),
    })?;
    if magic != STORE_MAGIC {
        return Err(StoreError::WrongMagic {
            path: display,
            found: magic,
        });
    }
    let version = u64::deserialize(envelope_field("version")?).map_err(|e| StoreError::Format {
        path: display.clone(),
        message: format!("invalid envelope version: {e}"),
    })?;
    if version > STORE_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: display,
            version,
        });
    }
    let recorded =
        u64::deserialize(envelope_field("checksum")?).map_err(|e| StoreError::Format {
            path: display.clone(),
            message: format!("invalid envelope checksum: {e}"),
        })?;
    let payload = envelope_field("payload")?;
    // The writer embedded the compact payload text verbatim, so hashing a
    // compact re-render of the parsed payload reproduces its checksum.
    let payload_json = serde_json::to_string(payload).map_err(|e| StoreError::Format {
        path: display.clone(),
        message: format!("re-render payload: {e}"),
    })?;
    let actual = fnv1a64(payload_json.as_bytes());
    if actual != recorded {
        return Err(StoreError::ChecksumMismatch {
            path: display,
            recorded,
            actual,
        });
    }
    T::deserialize(payload).map_err(|e| StoreError::Format {
        path: display,
        message: format!("invalid payload: {e}"),
    })
}

/// A model-store directory holding the three persisted artifacts.
#[derive(Debug, Clone)]
pub struct ModelStore {
    dir: PathBuf,
}

impl ModelStore {
    /// A store rooted at `dir` (created lazily on first save).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        ModelStore { dir: dir.into() }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the pre-trained model artifact.
    pub fn model_path(&self) -> PathBuf {
        self.dir.join("model.json")
    }

    /// Path of the GED-cache snapshot artifact.
    pub fn ged_cache_path(&self) -> PathBuf {
        self.dir.join("gedcache.json")
    }

    /// Path of the completed-job ledger artifact.
    pub fn jobs_path(&self) -> PathBuf {
        self.dir.join("jobs.json")
    }

    /// Path of the training-corpus artifact.
    pub fn corpus_path(&self) -> PathBuf {
        self.dir.join("corpus.json")
    }

    /// Path of the decision-audit-trail artifact.
    pub fn decisions_path(&self) -> PathBuf {
        self.dir.join("decisions.json")
    }

    /// Directory holding per-job epoch journals (crash resumption).
    pub fn journal_dir(&self) -> PathBuf {
        self.dir.join("journal")
    }

    /// Path a superseded model is rotated to.
    pub fn model_backup_path(&self) -> PathBuf {
        self.dir.join("model.json.bak")
    }

    /// Whether a pre-trained model is present.
    pub fn has_model(&self) -> bool {
        self.model_path().is_file()
    }

    /// Whether a job ledger is present.
    pub fn has_jobs(&self) -> bool {
        self.jobs_path().is_file()
    }

    fn ensure_dir(&self) -> Result<(), StoreError> {
        std::fs::create_dir_all(&self.dir).map_err(|e| StoreError::Io {
            path: self.dir.display().to_string(),
            message: e.to_string(),
        })
    }

    /// Persist the pre-trained bundle. A *different* model already on disk
    /// is rotated to `model.json.bak` first (long-lived daemons swap
    /// models after incremental re-pretrains; the previous envelope stays
    /// recoverable). Re-saving an identical model is a no-op: the writer
    /// is deterministic, so byte-equal envelopes mean equal models.
    pub fn save_model(&self, pretrained: &Pretrained) -> Result<(), StoreError> {
        self.ensure_dir()?;
        let path = self.model_path();
        let text = envelope_text(&path, pretrained)?;
        if path.is_file() {
            let old = std::fs::read_to_string(&path).map_err(|e| StoreError::Io {
                path: path.display().to_string(),
                message: e.to_string(),
            })?;
            if old == text {
                return Ok(());
            }
            let bak = self.model_backup_path();
            std::fs::rename(&path, &bak).map_err(|e| StoreError::Io {
                path: bak.display().to_string(),
                message: e.to_string(),
            })?;
        }
        write_text_atomic(&path, &text)
    }

    /// Load the pre-trained bundle (strict: corruption is an error; use
    /// [`ModelStore::recover_model`] for the boot path that falls back).
    /// A model written with encoder optimizer state (by an older build)
    /// loads without it.
    pub fn load_model(&self) -> Result<Pretrained, StoreError> {
        let mut model: Pretrained = read_envelope(&self.model_path())?;
        model.end_training();
        Ok(model)
    }

    /// Move a damaged artifact aside as `<name>.corrupt` (replacing any
    /// previous quarantine of the same file) so the evidence survives for
    /// post-mortems without blocking the daemon from booting.
    pub fn quarantine(&self, path: &Path) -> Result<PathBuf, StoreError> {
        let mut corrupt = path.as_os_str().to_owned();
        corrupt.push(".corrupt");
        let corrupt = PathBuf::from(corrupt);
        std::fs::rename(path, &corrupt).map_err(|e| StoreError::Io {
            path: path.display().to_string(),
            message: e.to_string(),
        })?;
        Ok(corrupt)
    }

    /// Corruption-tolerant read of one artifact: an absent file reads as
    /// `None`; a *corrupt* file is quarantined and reads as `None` with a
    /// recovery-event description; I/O failures and future-version files
    /// stay hard errors.
    pub fn read_or_quarantine<T: Deserialize>(
        &self,
        path: &Path,
    ) -> Result<(Option<T>, Option<String>), StoreError> {
        if !path.is_file() {
            return Ok((None, None));
        }
        match read_envelope(path) {
            Ok(value) => Ok((Some(value), None)),
            Err(e) if e.is_corruption() => {
                let quarantined = self.quarantine(path)?;
                Ok((
                    None,
                    Some(format!(
                        "{}: corrupt ({e}); quarantined to {}",
                        path.display(),
                        quarantined.display()
                    )),
                ))
            }
            Err(e) => Err(e),
        }
    }

    /// Crash-safe model load for the boot path.
    ///
    /// A clean `model.json` loads as-is. A *corrupt* one (e.g. a torn
    /// write from a crash predating the fsync discipline, or a hand-edit)
    /// is quarantined as `model.json.corrupt` and the rotated
    /// `model.json.bak` is promoted in its place — the daemon boots on
    /// the last good model instead of refusing to start. If the backup is
    /// corrupt too (or absent), both are quarantined and the recovery
    /// reports no model, sending the caller down the cold-pretrain path.
    /// Every action taken is described in [`ModelRecovery::events`].
    pub fn recover_model(&self) -> Result<ModelRecovery, StoreError> {
        let mut events = Vec::new();
        if !self.has_model() {
            return Ok(ModelRecovery {
                model: None,
                events,
            });
        }
        match self.load_model() {
            Ok(model) => Ok(ModelRecovery {
                model: Some(model),
                events,
            }),
            Err(e) if e.is_corruption() => {
                let quarantined = self.quarantine(&self.model_path())?;
                events.push(format!(
                    "model.json: corrupt ({e}); quarantined to {}",
                    quarantined.display()
                ));
                let bak = self.model_backup_path();
                let (mut model, bak_event) = self.read_or_quarantine::<Pretrained>(&bak)?;
                if let Some(model) = &mut model {
                    model.end_training();
                }
                if let Some(event) = bak_event {
                    events.push(event);
                }
                if model.is_some() {
                    // Promote the backup: it is now the live model, byte
                    // for byte (the envelope moves, not a re-render).
                    std::fs::rename(&bak, self.model_path()).map_err(|e| StoreError::Io {
                        path: bak.display().to_string(),
                        message: e.to_string(),
                    })?;
                    events.push("model.json.bak: promoted to model.json".to_string());
                }
                Ok(ModelRecovery { model, events })
            }
            Err(e) => Err(e),
        }
    }

    /// Persist a GED-cache snapshot.
    pub fn save_ged_cache(&self, snapshot: &GedCacheSnapshot) -> Result<(), StoreError> {
        self.ensure_dir()?;
        write_envelope(&self.ged_cache_path(), snapshot)
    }

    /// Load the GED-cache snapshot.
    pub fn load_ged_cache(&self) -> Result<GedCacheSnapshot, StoreError> {
        read_envelope(&self.ged_cache_path())
    }

    /// Persist the completed-job ledger.
    pub fn save_jobs(&self, jobs: &[PersistedJob]) -> Result<(), StoreError> {
        self.ensure_dir()?;
        write_envelope(&self.jobs_path(), &jobs.to_vec())
    }

    /// Persist the decision audit trail.
    pub fn save_decisions(&self, decisions: &[DecisionRecord]) -> Result<(), StoreError> {
        self.ensure_dir()?;
        write_envelope(&self.decisions_path(), &decisions.to_vec())
    }

    /// Load the decision audit trail.
    pub fn load_decisions(&self) -> Result<Vec<DecisionRecord>, StoreError> {
        read_envelope(&self.decisions_path())
    }

    /// Persist the training corpus.
    pub fn save_corpus(&self, corpus: &[ExecutionRecord]) -> Result<(), StoreError> {
        self.ensure_dir()?;
        write_envelope(&self.corpus_path(), &corpus.to_vec())
    }

    /// File-level statistics (sizes in bytes; 0 when absent) — the
    /// `store_stats` block of the `status` reply.
    pub fn stats(&self) -> StoreStats {
        let size = |p: PathBuf| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0);
        StoreStats {
            model_bytes: size(self.model_path()),
            model_backup_bytes: size(self.model_backup_path()),
            ged_cache_bytes: size(self.ged_cache_path()),
            corpus_bytes: size(self.corpus_path()),
            jobs_bytes: size(self.jobs_path()),
        }
    }
}

/// What [`ModelStore::recover_model`] found and did.
#[derive(Debug, Clone)]
pub struct ModelRecovery {
    /// The model to boot on (`None` ⇒ nothing recoverable; cold-pretrain).
    pub model: Option<Pretrained>,
    /// Human-readable descriptions of every quarantine/promotion taken
    /// (empty ⇔ the store was healthy).
    pub events: Vec<String>,
}

/// Artifact sizes of a store directory (0 ⇔ absent). Reported by the
/// `status` verb so operators of long-lived daemons can watch growth and
/// verify that rotation/compaction are doing their jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoreStats {
    /// Bytes of `model.json`.
    pub model_bytes: u64,
    /// Bytes of the rotated `model.json.bak` (0 ⇔ never superseded).
    pub model_backup_bytes: u64,
    /// Bytes of `gedcache.json`.
    pub ged_cache_bytes: u64,
    /// Bytes of `corpus.json`.
    pub corpus_bytes: u64,
    /// Bytes of `jobs.json`.
    pub jobs_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_file(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "streamtune-store-test-{}-{name}",
            std::process::id()
        ))
    }

    #[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
    struct Payload {
        answer: u64,
        label: String,
        weights: Vec<f64>,
    }

    fn payload() -> Payload {
        Payload {
            answer: 42,
            label: "q5".to_string(),
            weights: vec![0.1, -3.5, 2e-7],
        }
    }

    #[test]
    fn envelope_roundtrip() {
        let path = temp_file("roundtrip.json");
        write_envelope(&path, &payload()).unwrap();
        let back: Payload = read_envelope(&path).unwrap();
        assert_eq!(back, payload());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn envelope_tolerates_unknown_future_fields() {
        let path = temp_file("future.json");
        write_envelope(&path, &payload()).unwrap();
        // A future writer appends fields this build does not know about.
        let text = std::fs::read_to_string(&path).unwrap();
        let extended = text.replacen(
            "{\"magic\"",
            "{\"written_by\":\"v9\",\"compression\":null,\"magic\"",
            1,
        );
        std::fs::write(&path, extended).unwrap();
        let back: Payload = read_envelope(&path).unwrap();
        assert_eq!(back, payload());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tampered_payload_is_a_checksum_error_not_a_panic() {
        let path = temp_file("tampered.json");
        write_envelope(&path, &payload()).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("\"answer\":42"));
        std::fs::write(&path, text.replace("\"answer\":42", "\"answer\":41")).unwrap();
        match read_envelope::<Payload>(&path) {
            Err(StoreError::ChecksumMismatch { .. }) => {}
            other => panic!("expected ChecksumMismatch, got {other:?}"),
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn wrong_magic_future_version_and_garbage_are_explicit_errors() {
        let path = temp_file("bad.json");

        std::fs::write(&path, "{\"magic\":\"other-format\",\"version\":1}").unwrap();
        assert!(matches!(
            read_envelope::<Payload>(&path),
            Err(StoreError::WrongMagic { .. })
        ));

        std::fs::write(
            &path,
            format!("{{\"magic\":\"{STORE_MAGIC}\",\"version\":999,\"checksum\":0,\"payload\":0}}"),
        )
        .unwrap();
        assert!(matches!(
            read_envelope::<Payload>(&path),
            Err(StoreError::UnsupportedVersion { version: 999, .. })
        ));

        std::fs::write(&path, "not json at all {{{").unwrap();
        assert!(matches!(
            read_envelope::<Payload>(&path),
            Err(StoreError::Format { .. })
        ));

        std::fs::remove_file(&path).ok();
        assert!(matches!(
            read_envelope::<Payload>(&path),
            Err(StoreError::Io { .. })
        ));
    }

    #[test]
    fn superseded_models_rotate_to_bak_identical_saves_do_not() {
        use streamtune_core::{PretrainConfig, Pretrainer};
        use streamtune_sim::SimCluster;
        use streamtune_workloads::history::HistoryGenerator;

        let dir = std::env::temp_dir().join(format!("streamtune-rotate-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let store = ModelStore::new(&dir);
        let cluster = SimCluster::flink_defaults(5);
        let corpus = HistoryGenerator::new(5).with_jobs(4).generate(&cluster);
        let mut cfg = PretrainConfig::fast();
        cfg.min_structures_for_clustering = usize::MAX; // tiny global model
        let a = Pretrainer::new(cfg.clone()).run(&corpus);
        cfg.epochs = 3; // a genuinely different model
        let b = Pretrainer::new(cfg).run(&corpus);

        store.save_model(&a).unwrap();
        assert!(!store.model_backup_path().is_file());
        // Same model again: no rotation.
        store.save_model(&a).unwrap();
        assert!(!store.model_backup_path().is_file());
        // A different model supersedes: the old envelope rotates to .bak.
        let old_envelope = std::fs::read_to_string(store.model_path()).unwrap();
        store.save_model(&b).unwrap();
        assert!(store.model_backup_path().is_file());
        assert_eq!(
            std::fs::read_to_string(store.model_backup_path()).unwrap(),
            old_envelope,
            "the .bak must be the superseded envelope, byte for byte"
        );

        let stats = store.stats();
        assert!(stats.model_bytes > 0);
        assert!(stats.model_backup_bytes > 0);
        assert_eq!(stats.corpus_bytes, 0, "corpus never saved here");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }
}
