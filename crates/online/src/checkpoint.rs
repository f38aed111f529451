//! Crash-safe checkpoints: atomically persisted serving state with corruption detection.
//!
//! A long-lived serving process accumulates state that exists nowhere else: the pool
//! entries the maintenance lane upserted, the refreshed model versions the validation
//! gate admitted, and the optimizer trajectory behind them.  A crash without checkpoints
//! silently rolls all of it back to the binary's startup artifacts.  This module
//! persists the full online serving state — pool + model + controller — such that a
//! restore is **bit-identical**: a process restored from a checkpoint serves exactly the
//! estimates (and fine-tunes exactly the parameters) the uninterrupted process would
//! have (pinned by `tests/fault_tolerance.rs::checkpoint_round_trip_is_bit_identical`).
//!
//! Crash-safety is the classic two-phase rename protocol, built on nothing but
//! `std::fs` (the rename is the commit point on every POSIX filesystem):
//!
//! 1. the versioned payload (`checkpoint-<seq>.json`) is written to a temp file in the
//!    same directory, synced, then renamed into place;
//! 2. the [`Manifest`] (`MANIFEST.json`) — naming the payload, its FNV-1a checksum and
//!    sequence number — is written the same way, *after* the payload rename.
//!
//! Each rename is followed by a sync of the directory (on Unix), so a power loss after
//! [`Checkpoint::write_atomic`] returns cannot un-commit the manifest — older payloads
//! are deleted only after that point.  A crash at any point leaves either the old
//! manifest pointing at the old (intact) payload, or the new manifest pointing at the
//! new (fully written) payload — never a manifest naming a half-written file.  A torn
//! or bit-rotted payload is caught at load time by the checksum
//! ([`CheckpointError::Corrupt`]) instead of deserializing garbage into a live pool.
//!
//! Nothing here runs on a timer: a process that wants periodic checkpoints calls
//! [`Checkpoint::capture`] and [`Checkpoint::write_atomic`] itself — for example from
//! its [`FeedbackObserver`](crn_serve::FeedbackObserver) every N records.

use crate::controller::{ControllerCheckpoint, RefreshController};
use crn_core::{CrnModel, EstimatorService, QueriesPool};
use crn_nn::{Matrix, Trainable};
use serde::{Deserialize, Serialize};
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// The on-disk format version (bumped on incompatible layout changes; loads of a
/// different version fail with [`CheckpointError::FormatVersion`] instead of
/// misinterpreting the payload).  Version 2 keeps the Adam moments in the controller's
/// optimizer; a version-1 model carried them inside its parameters.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 2;

/// One full serving-state checkpoint: everything a restore needs for bit-identical
/// serving and training continuation.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    /// The writing process's [`CHECKPOINT_FORMAT_VERSION`].
    pub format_version: u32,
    /// The live model version at capture time (restored processes resume their version
    /// counter from here in spirit; the service itself restarts at 1 and the manifest
    /// records the provenance).
    pub model_version: u64,
    /// The live model: its weights, one float per parameter.  The optimizer state that
    /// continues its fine-tunes is the controller's ([`ControllerCheckpoint::adam`]).
    pub model: CrnModel,
    /// The flattened queries pool, from
    /// [`PoolSnapshot::to_pool`](crn_core::PoolSnapshot::to_pool) (shard-count-agnostic:
    /// sharding is a runtime serving decision, not a storage property).
    pub pool: QueriesPool,
    /// The refresh controller's durable state, when the process runs one.
    pub online: Option<ControllerCheckpoint>,
}

/// The commit record: names the current payload and carries its checksum.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Manifest {
    /// The writing process's [`CHECKPOINT_FORMAT_VERSION`].
    pub format_version: u32,
    /// File name (within the checkpoint directory) of the committed payload.
    pub payload: String,
    /// FNV-1a checksum of the payload file's exact bytes.
    pub checksum: u64,
    /// The checkpointed model version (surfaced here so operators can see what a
    /// directory holds without parsing the multi-megabyte payload).
    pub model_version: u64,
    /// Monotonic checkpoint sequence number within this directory.
    pub sequence: u64,
}

/// The manifest's file name within a checkpoint directory.
pub const MANIFEST_NAME: &str = "MANIFEST.json";

/// Why a checkpoint operation failed.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// (De)serialization failure.
    Serde(serde_json::Error),
    /// The payload's bytes do not match the manifest's checksum (torn write, bit rot,
    /// or manual tampering) — the checkpoint must not be loaded.
    Corrupt {
        /// The checksum the manifest committed.
        expected: u64,
        /// The checksum of the bytes actually on disk.
        actual: u64,
    },
    /// The directory's checkpoint was written by an incompatible format version.
    FormatVersion(u32),
    /// The controller's optimizer moments are not shaped like the model's weights: the
    /// next fine-tune could not resume them.
    OptimizerShape,
    /// The directory holds no committed checkpoint (no manifest).
    Missing,
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Serde(e) => write!(f, "checkpoint serialization error: {e}"),
            CheckpointError::Corrupt { expected, actual } => write!(
                f,
                "checkpoint payload corrupt: manifest checksum {expected:#018x}, on-disk {actual:#018x}"
            ),
            CheckpointError::FormatVersion(version) => write!(
                f,
                "checkpoint format version {version} is not the supported {CHECKPOINT_FORMAT_VERSION}"
            ),
            CheckpointError::OptimizerShape => write!(
                f,
                "checkpoint optimizer moments do not match the checkpointed model's weights"
            ),
            CheckpointError::Missing => write!(f, "no committed checkpoint (missing manifest)"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<serde_json::Error> for CheckpointError {
    fn from(e: serde_json::Error) -> Self {
        CheckpointError::Serde(e)
    }
}

/// FNV-1a over the payload bytes: not cryptographic (nothing here defends against an
/// adversary) but catches the failure modes checkpoints actually meet — torn writes,
/// truncation, bit rot — with zero dependencies and one multiply per byte.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &byte in bytes {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Writes `bytes` to `path` atomically and durably: temp file in the same directory
/// (same filesystem, so the rename cannot degrade to copy+delete), synced to disk, then
/// renamed; the directory is synced after the rename so the new name itself survives a
/// power loss.
fn write_atomic_bytes(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or(Path::new(".")))
}

/// Syncs a directory's entries (the rename) to disk.  Unix only: other platforms cannot
/// open a directory as a file, and their renames are as durable as they get.
fn sync_dir(dir: &Path) -> Result<(), CheckpointError> {
    #[cfg(unix)]
    std::fs::File::open(dir)?.sync_all()?;
    #[cfg(not(unix))]
    let _ = dir;
    Ok(())
}

impl Checkpoint {
    /// Captures the current serving state: the flattened pool and live model from the
    /// service, plus the controller's durable state when one is attached.  The capture
    /// is *not* a single atomic cut across pool and model — each is individually
    /// consistent (snapshot semantics); a caller on the maintenance lane (a
    /// [`FeedbackObserver`](crn_serve::FeedbackObserver)) runs between upserts, which is
    /// the consistency point that matters.
    pub fn capture(
        service: &EstimatorService<CrnModel>,
        controller: Option<&RefreshController>,
    ) -> Self {
        Checkpoint {
            format_version: CHECKPOINT_FORMAT_VERSION,
            model_version: service.model_version(),
            model: (*service.model()).clone(),
            pool: service.pool().to_pool(),
            online: controller.map(|controller| controller.checkpoint_state()),
        }
    }

    /// Persists this checkpoint into `dir` under the two-phase rename protocol (see the
    /// [module docs](self)), returning the committed [`Manifest`].  Older payload files
    /// are cleaned up best-effort *after* the commit point.
    pub fn write_atomic(&self, dir: impl AsRef<Path>) -> Result<Manifest, CheckpointError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let sequence = match load_manifest(dir) {
            Ok(previous) => previous.sequence + 1,
            Err(_) => 1,
        };
        let payload_name = format!("checkpoint-{sequence}.json");
        let payload = serde_json::to_string(self)?;
        let checksum = fnv1a(payload.as_bytes());
        // Phase 1: the payload lands under its final name, fully written.
        write_atomic_bytes(&dir.join(&payload_name), payload.as_bytes())?;
        // Phase 2: the manifest rename is the commit point.
        let manifest = Manifest {
            format_version: CHECKPOINT_FORMAT_VERSION,
            payload: payload_name.clone(),
            checksum,
            model_version: self.model_version,
            sequence,
        };
        write_atomic_bytes(
            &dir.join(MANIFEST_NAME),
            serde_json::to_string(&manifest)?.as_bytes(),
        )?;
        // Committed: previous payloads (and stray temp files) are garbage now.
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let name = entry.file_name();
                let name = name.to_string_lossy();
                let stale = (name.starts_with("checkpoint-") && name != payload_name)
                    || name.ends_with(".tmp");
                if stale {
                    let _ = std::fs::remove_file(entry.path());
                }
            }
        }
        Ok(manifest)
    }

    /// Loads the committed checkpoint from `dir`, verifying the manifest's checksum
    /// against the payload bytes before deserializing anything into a live process, and
    /// the controller's optimizer moments (when it has any) against the model's weights.
    pub fn load(dir: impl AsRef<Path>) -> Result<(Checkpoint, Manifest), CheckpointError> {
        let dir = dir.as_ref();
        let manifest = load_manifest(dir)?;
        if manifest.format_version != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::FormatVersion(manifest.format_version));
        }
        let payload = std::fs::read(dir.join(&manifest.payload)).map_err(CheckpointError::Io)?;
        let actual = fnv1a(&payload);
        if actual != manifest.checksum {
            return Err(CheckpointError::Corrupt {
                expected: manifest.checksum,
                actual,
            });
        }
        let text = String::from_utf8(payload).map_err(|e| {
            CheckpointError::Io(std::io::Error::new(std::io::ErrorKind::InvalidData, e))
        })?;
        let checkpoint: Checkpoint = serde_json::from_str(&text)?;
        if checkpoint.format_version != CHECKPOINT_FORMAT_VERSION {
            return Err(CheckpointError::FormatVersion(checkpoint.format_version));
        }
        if let Some(online) = &checkpoint.online {
            let shapes = |tensors: &[Matrix]| -> Vec<(usize, usize)> {
                tensors.iter().map(|t| (t.rows(), t.cols())).collect()
            };
            let (m, v) = (shapes(&online.adam.m), shapes(&online.adam.v));
            let weights = checkpoint.model.gradient_shapes();
            let fresh = m.is_empty() && v.is_empty();
            if !fresh && (m != weights || v != weights) {
                return Err(CheckpointError::OptimizerShape);
            }
        }
        Ok((checkpoint, manifest))
    }
}

fn load_manifest(dir: &Path) -> Result<Manifest, CheckpointError> {
    let path = dir.join(MANIFEST_NAME);
    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Err(CheckpointError::Missing),
        Err(e) => return Err(CheckpointError::Io(e)),
    };
    Ok(serde_json::from_str(&text)?)
}
