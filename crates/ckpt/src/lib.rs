//! # h2o-ckpt — crash-safe checkpoints for H2O-NAS searches
//!
//! Long searches (the paper's production runs span days across pods) must
//! survive preemption. This crate provides the durable half of the
//! checkpoint/resume contract defined in `h2o-core`:
//!
//! * a **versioned binary format** with a magic header, format version,
//!   config fingerprint, and an FNV-1a checksum over the whole file —
//!   corrupt, truncated, or mismatched files are rejected with a typed
//!   [`CkptError`] instead of silently resuming a wrong trajectory;
//! * an **atomic [`CheckpointStore`]**: snapshots are written to a
//!   temporary file, fsynced, then renamed into place, so a crash mid-write
//!   can never destroy the previous good checkpoint;
//! * a **[`FileCheckpointSink`]** implementing
//!   [`h2o_core::CheckpointSink`], plugging the store into
//!   [`h2o_core::SearchDriver::run`] at a fixed step cadence.
//!
//! Floats are serialised via their IEEE-754 bit patterns, so a restored
//! search continues **bit-identically** — the determinism tests in the
//! workspace root assert interrupted+resumed runs equal uninterrupted ones
//! byte for byte.

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use h2o_core::{CheckpointSink, Policy, ResumeState, RewardBaseline, SearchSnapshot};
use h2o_core::{EvalResult, EvaluatedCandidate, StepRecord};
use h2o_exec::wire::{self, Dec, Enc, WireError};
use std::fmt;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// First 8 bytes of every checkpoint file.
const MAGIC: &[u8; 8] = b"H2OCKPT\0";
/// Current format version; bumped on any incompatible layout change.
pub const FORMAT_VERSION: u32 = 1;
/// Filename extension of finished checkpoints.
const EXT: &str = "h2o";

/// Everything that can go wrong saving or loading a checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CkptError {
    /// Filesystem error (formatted `std::io::Error`).
    Io(String),
    /// The file does not start with the checkpoint magic — not a
    /// checkpoint at all.
    BadMagic,
    /// The file's format version is not the one this build reads.
    BadVersion {
        /// Version found in the file.
        found: u32,
        /// Version this build understands.
        expected: u32,
    },
    /// The whole-file checksum does not match: bit rot or a torn write.
    ChecksumMismatch,
    /// The checkpoint was written under a different search configuration
    /// (space shape, seed, shards, …) and must not seed this run.
    FingerprintMismatch {
        /// Fingerprint recorded in the file.
        found: u64,
        /// Fingerprint of the config attempting to resume.
        expected: u64,
    },
    /// The file ends before the declared content does.
    Truncated,
    /// The payload decoded inconsistently (bad lengths, trailing bytes).
    Corrupt(String),
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CkptError::BadMagic => write!(f, "not a checkpoint file (bad magic)"),
            CkptError::BadVersion { found, expected } => {
                write!(
                    f,
                    "checkpoint format v{found}, this build reads v{expected}"
                )
            }
            CkptError::ChecksumMismatch => write!(f, "checkpoint checksum mismatch"),
            CkptError::FingerprintMismatch { found, expected } => write!(
                f,
                "checkpoint fingerprint {found:#018x} does not match search config {expected:#018x}"
            ),
            CkptError::Truncated => write!(f, "checkpoint file truncated"),
            CkptError::Corrupt(why) => write!(f, "checkpoint payload corrupt: {why}"),
        }
    }
}

impl std::error::Error for CkptError {}

impl From<std::io::Error> for CkptError {
    fn from(e: std::io::Error) -> Self {
        CkptError::Io(e.to_string())
    }
}

impl From<WireError> for CkptError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Truncated => CkptError::Truncated,
            WireError::Corrupt(why) => CkptError::Corrupt(why),
        }
    }
}

// ---------------------------------------------------------------------------
// Payload codec: the shared `h2o_exec::wire` dialect (little-endian u64s,
// floats as IEEE-754 bits so the round trip is bit-exact) — the same codec
// the node transport's frames use, so checkpoints and the distributed
// protocol can never drift apart byte-wise.
// ---------------------------------------------------------------------------

fn read_u64_le(chunk: &[u8]) -> Result<u64, CkptError> {
    Ok(wire::read_u64_le(chunk)?)
}

fn read_u32_le(chunk: &[u8]) -> Result<u32, CkptError> {
    Ok(wire::read_u32_le(chunk)?)
}

fn encode_payload(snapshot: &SearchSnapshot<'_>) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(snapshot.steps_done as u64);
    // Policy logits.
    let logits = snapshot.policy.logits();
    e.u64(logits.len() as u64);
    for decision in logits {
        e.u64(decision.len() as u64);
        for &l in decision {
            e.f64(l);
        }
    }
    // Reward baseline.
    e.f64(snapshot.baseline.value());
    e.f64(snapshot.baseline.momentum());
    e.u64(snapshot.baseline.initialized() as u64);
    // Step history.
    e.u64(snapshot.history.len() as u64);
    for r in snapshot.history {
        e.u64(r.step as u64);
        e.f64(r.mean_reward);
        e.f64(r.best_reward);
        e.f64(r.entropy);
        e.f64(r.step_time_ms);
    }
    // Evaluated candidates.
    e.u64(snapshot.evaluated.len() as u64);
    for c in snapshot.evaluated {
        e.u64(c.sample.len() as u64);
        for &choice in &c.sample {
            e.u64(choice as u64);
        }
        e.f64(c.result.quality);
        e.u64(c.result.perf_values.len() as u64);
        for &p in &c.result.perf_values {
            e.f64(p);
        }
        e.f64(c.reward);
    }
    // Supernet shared weights (one-shot loops).
    match snapshot.supernet_state {
        Some(state) => {
            e.u64(1);
            e.bytes(state);
        }
        None => e.u64(0),
    }
    e.into_vec()
}

fn decode_payload(payload: &[u8]) -> Result<ResumeState, CkptError> {
    let mut d = Dec::new(payload);
    let steps_done = d.u64()? as usize;
    let num_decisions = d.len("policy decisions")?;
    if num_decisions == 0 {
        return Err(CkptError::Corrupt("policy has no decisions".into()));
    }
    let mut logits = Vec::with_capacity(num_decisions);
    for _ in 0..num_decisions {
        let choices = d.len("decision logits")?;
        if choices == 0 {
            return Err(CkptError::Corrupt("decision has no choices".into()));
        }
        let mut row = Vec::with_capacity(choices);
        for _ in 0..choices {
            row.push(d.f64()?);
        }
        logits.push(row);
    }
    let policy = Policy::from_logits(logits);
    let value = d.f64()?;
    let momentum = d.f64()?;
    if !(0.0..1.0).contains(&momentum) {
        return Err(CkptError::Corrupt(format!(
            "baseline momentum {momentum} outside [0, 1)"
        )));
    }
    let initialized = match d.u64()? {
        0 => false,
        1 => true,
        other => {
            return Err(CkptError::Corrupt(format!(
                "baseline initialized flag {other} is not 0/1"
            )))
        }
    };
    let baseline = RewardBaseline::from_parts(value, momentum, initialized);
    let n_history = d.len("history")?;
    let mut history = Vec::with_capacity(n_history);
    for _ in 0..n_history {
        history.push(StepRecord {
            step: d.u64()? as usize,
            mean_reward: d.f64()?,
            best_reward: d.f64()?,
            entropy: d.f64()?,
            step_time_ms: d.f64()?,
        });
    }
    let n_evaluated = d.len("evaluated candidates")?;
    let mut evaluated = Vec::with_capacity(n_evaluated);
    for _ in 0..n_evaluated {
        let n_sample = d.len("arch sample")?;
        let mut sample = Vec::with_capacity(n_sample);
        for _ in 0..n_sample {
            sample.push(d.u64()? as usize);
        }
        let quality = d.f64()?;
        let n_perf = d.len("perf values")?;
        let mut perf_values = Vec::with_capacity(n_perf);
        for _ in 0..n_perf {
            perf_values.push(d.f64()?);
        }
        let reward = d.f64()?;
        evaluated.push(EvaluatedCandidate {
            sample,
            result: EvalResult {
                quality,
                perf_values,
            },
            reward,
        });
    }
    let supernet_state = match d.u64()? {
        0 => None,
        1 => Some(d.bytes_vec()?),
        other => {
            return Err(CkptError::Corrupt(format!(
                "supernet presence flag {other} is not 0/1"
            )))
        }
    };
    d.finish()?;
    Ok(ResumeState {
        steps_done,
        policy,
        baseline,
        history,
        evaluated,
        supernet_state,
    })
}

// ---------------------------------------------------------------------------
// File framing.
// ---------------------------------------------------------------------------

/// Encodes a whole checkpoint file:
/// `MAGIC | version u32 | fingerprint u64 | payload_len u64 | payload |
/// fnv1a-checksum u64` — all integers little-endian, the checksum covering
/// every preceding byte.
fn encode_file_with_version(
    snapshot: &SearchSnapshot<'_>,
    fingerprint: u64,
    version: u32,
) -> Vec<u8> {
    let payload = encode_payload(snapshot);
    let mut out = Vec::with_capacity(MAGIC.len() + 28 + payload.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&fingerprint.to_le_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(&payload);
    let checksum = wire::fnv1a(&out);
    out.extend_from_slice(&checksum.to_le_bytes());
    out
}

/// Serialises a snapshot into checkpoint-file bytes (current format
/// version), stamped with the config `fingerprint`.
pub fn encode_file(snapshot: &SearchSnapshot<'_>, fingerprint: u64) -> Vec<u8> {
    encode_file_with_version(snapshot, fingerprint, FORMAT_VERSION)
}

/// Parses and validates checkpoint-file bytes.
///
/// Validation order: magic → whole-file checksum → format version →
/// fingerprint → payload length → payload decode. The fingerprint must
/// equal `expected_fingerprint` ([`CkptError::FingerprintMismatch`]
/// otherwise) — resuming under a different search config would silently
/// produce a trajectory neither run ever had.
///
/// # Errors
///
/// Any [`CkptError`] variant except `Io`.
pub fn decode_file(bytes: &[u8], expected_fingerprint: u64) -> Result<ResumeState, CkptError> {
    // Fixed overhead: magic(8) + version(4) + fingerprint(8) + len(8) +
    // checksum(8).
    const HEADER: usize = 8 + 4 + 8 + 8;
    if bytes.len() < HEADER + 8 {
        return Err(CkptError::Truncated);
    }
    if &bytes[..8] != MAGIC {
        return Err(CkptError::BadMagic);
    }
    let (content, checksum_bytes) = bytes.split_at(bytes.len() - 8);
    let stored = read_u64_le(checksum_bytes)?;
    if wire::fnv1a(content) != stored {
        return Err(CkptError::ChecksumMismatch);
    }
    let version = read_u32_le(&content[8..12])?;
    if version != FORMAT_VERSION {
        return Err(CkptError::BadVersion {
            found: version,
            expected: FORMAT_VERSION,
        });
    }
    let fingerprint = read_u64_le(&content[12..20])?;
    if fingerprint != expected_fingerprint {
        return Err(CkptError::FingerprintMismatch {
            found: fingerprint,
            expected: expected_fingerprint,
        });
    }
    let payload_len = read_u64_le(&content[20..28])?;
    let payload = &content[28..];
    if payload_len != payload.len() as u64 {
        return Err(CkptError::Corrupt(format!(
            "declared payload length {payload_len}, found {}",
            payload.len()
        )));
    }
    decode_payload(payload)
}

// ---------------------------------------------------------------------------
// Durable store.
// ---------------------------------------------------------------------------

/// A directory of checkpoints for one search run, all stamped with the same
/// config fingerprint.
///
/// Writes are atomic: the file is assembled under a `.tmp` name, fsynced,
/// then renamed to `ckpt-<steps>.h2o`. A crash at any point leaves either
/// the old set of checkpoints or the old set plus one complete new file —
/// never a torn file under a final name.
#[derive(Debug)]
pub struct CheckpointStore {
    dir: PathBuf,
    fingerprint: u64,
}

impl CheckpointStore {
    /// Opens (creating if needed) a checkpoint directory for a search whose
    /// config fingerprints to `fingerprint`.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the directory cannot be created.
    pub fn new(dir: impl Into<PathBuf>, fingerprint: u64) -> Result<Self, CkptError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, fingerprint })
    }

    /// The directory this store writes into.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The config fingerprint stamped on every file.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Final path of the checkpoint taken after `steps_done` steps.
    pub fn path_for(&self, steps_done: usize) -> PathBuf {
        self.dir.join(format!("ckpt-{steps_done:08}.{EXT}"))
    }

    /// Atomically writes a snapshot; returns the final path.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] on any filesystem failure (the `.tmp` file is left
    /// behind for post-mortem only if the rename itself failed).
    pub fn save(&self, snapshot: &SearchSnapshot<'_>) -> Result<PathBuf, CkptError> {
        let span = h2o_obs::span("ckpt_save");
        let bytes = encode_file(snapshot, self.fingerprint);
        let final_path = self.path_for(snapshot.steps_done);
        let tmp_path = final_path.with_extension("tmp");
        {
            let mut f = fs::File::create(&tmp_path)?;
            f.write_all(&bytes)?;
            // Data must be on disk before the rename publishes the file.
            f.sync_all()?;
        }
        fs::rename(&tmp_path, &final_path)?;
        // Best-effort directory fsync so the rename itself survives a
        // crash; not all platforms allow opening a directory for sync.
        if let Ok(d) = fs::File::open(&self.dir) {
            let _ = d.sync_all();
        }
        h2o_obs::counter("h2o_ckpt_snapshots_written_total").inc();
        h2o_obs::counter("h2o_ckpt_bytes_written_total").add(bytes.len() as u64);
        span.finish();
        Ok(final_path)
    }

    /// The highest `steps_done` among complete checkpoints in the
    /// directory, or `None` if there are none.
    ///
    /// # Errors
    ///
    /// [`CkptError::Io`] if the directory cannot be read.
    pub fn latest_step(&self) -> Result<Option<usize>, CkptError> {
        let mut latest = None;
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some(stem) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(&format!(".{EXT}")))
            else {
                continue;
            };
            if let Ok(steps) = stem.parse::<usize>() {
                latest = Some(latest.map_or(steps, |l: usize| l.max(steps)));
            }
        }
        Ok(latest)
    }

    /// Loads and validates the checkpoint taken after `steps_done` steps.
    ///
    /// # Errors
    ///
    /// Any [`CkptError`]: missing file, corruption, version or fingerprint
    /// mismatch.
    pub fn load(&self, steps_done: usize) -> Result<ResumeState, CkptError> {
        let span = h2o_obs::span("ckpt_load");
        let bytes = fs::read(self.path_for(steps_done))?;
        let state = decode_file(&bytes, self.fingerprint)?;
        h2o_obs::counter("h2o_ckpt_restores_total").inc();
        span.finish();
        Ok(state)
    }

    /// Loads the most recent checkpoint, or `None` if the directory holds
    /// none.
    ///
    /// # Errors
    ///
    /// As for [`CheckpointStore::load`].
    pub fn load_latest(&self) -> Result<Option<ResumeState>, CkptError> {
        match self.latest_step()? {
            Some(steps) => Ok(Some(self.load(steps)?)),
            None => Ok(None),
        }
    }
}

/// A [`CheckpointSink`] that persists every `every`-th completed step into
/// a [`CheckpointStore`].
#[derive(Debug)]
pub struct FileCheckpointSink {
    store: CheckpointStore,
    every: usize,
}

impl FileCheckpointSink {
    /// Snapshots after every `every` completed steps (so step counts
    /// `every, 2·every, …`).
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero.
    pub fn new(store: CheckpointStore, every: usize) -> Self {
        assert!(every > 0, "checkpoint cadence must be at least 1 step");
        Self { store, every }
    }

    /// The underlying store.
    pub fn store(&self) -> &CheckpointStore {
        &self.store
    }
}

impl CheckpointSink for FileCheckpointSink {
    fn should_checkpoint(&self, steps_done: usize) -> bool {
        steps_done > 0 && steps_done.is_multiple_of(self.every)
    }

    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        self.store
            .save(snapshot)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_state() -> ResumeState {
        ResumeState {
            steps_done: 12,
            policy: Policy::from_logits(vec![vec![0.25, -1.5, 3.0], vec![0.0, 42.5]]),
            baseline: RewardBaseline::from_parts(-0.125, 0.9, true),
            history: vec![
                StepRecord {
                    step: 0,
                    mean_reward: -1.0,
                    best_reward: -0.5,
                    entropy: 1.09,
                    step_time_ms: 3.25,
                },
                StepRecord {
                    step: 11,
                    mean_reward: 0.75,
                    best_reward: 1.5,
                    entropy: 0.4,
                    step_time_ms: 2.0,
                },
            ],
            evaluated: vec![EvaluatedCandidate {
                sample: vec![2, 1],
                result: EvalResult {
                    quality: 0.875,
                    perf_values: vec![1e6, 2.5],
                },
                reward: -0.25,
            }],
            supernet_state: Some(vec![7, 0, 255, 3]),
        }
    }

    fn temp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("h2o_ckpt_{}_{name}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn bytes_round_trip_bit_exactly() {
        let state = sample_state();
        let bytes = encode_file(&state.as_snapshot(), 0xDEAD_BEEF);
        let back = decode_file(&bytes, 0xDEAD_BEEF).unwrap();
        assert_eq!(back, state);
    }

    #[test]
    fn no_supernet_state_round_trips() {
        let mut state = sample_state();
        state.supernet_state = None;
        let bytes = encode_file(&state.as_snapshot(), 1);
        assert_eq!(decode_file(&bytes, 1).unwrap(), state);
    }

    #[test]
    fn every_single_byte_flip_is_detected() {
        let state = sample_state();
        let bytes = encode_file(&state.as_snapshot(), 5);
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            let err = decode_file(&bad, 5).expect_err("flip must be rejected");
            assert!(
                matches!(err, CkptError::ChecksumMismatch | CkptError::BadMagic),
                "byte {i}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn truncation_is_detected() {
        let state = sample_state();
        let bytes = encode_file(&state.as_snapshot(), 5);
        for cut in [0, 7, 20, bytes.len() - 1] {
            let err = decode_file(&bytes[..cut], 5).expect_err("truncation must be rejected");
            assert!(
                matches!(err, CkptError::Truncated | CkptError::ChecksumMismatch),
                "cut {cut}: unexpected error {err:?}"
            );
        }
    }

    #[test]
    fn wrong_version_is_rejected() {
        let state = sample_state();
        let bytes = encode_file_with_version(&state.as_snapshot(), 5, FORMAT_VERSION + 1);
        assert_eq!(
            decode_file(&bytes, 5),
            Err(CkptError::BadVersion {
                found: FORMAT_VERSION + 1,
                expected: FORMAT_VERSION,
            })
        );
    }

    #[test]
    fn wrong_fingerprint_is_rejected() {
        let state = sample_state();
        let bytes = encode_file(&state.as_snapshot(), 5);
        assert_eq!(
            decode_file(&bytes, 6),
            Err(CkptError::FingerprintMismatch {
                found: 5,
                expected: 6,
            })
        );
    }

    #[test]
    fn store_round_trips_and_leaves_no_tmp_files() {
        let dir = temp_dir("store");
        let store = CheckpointStore::new(&dir, 99).unwrap();
        let state = sample_state();
        let path = store.save(&state.as_snapshot()).unwrap();
        assert!(path.ends_with("ckpt-00000012.h2o"));
        assert_eq!(store.load(12).unwrap(), state);
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .path()
                    .extension()
                    .and_then(|x| x.to_str())
                    == Some("tmp")
            })
            .collect();
        assert!(leftovers.is_empty(), "no temp files may survive a save");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn load_latest_picks_the_highest_step() {
        let dir = temp_dir("latest");
        let store = CheckpointStore::new(&dir, 7).unwrap();
        for steps in [4, 12, 8] {
            let mut state = sample_state();
            state.steps_done = steps;
            store.save(&state.as_snapshot()).unwrap();
        }
        assert_eq!(store.latest_step().unwrap(), Some(12));
        assert_eq!(store.load_latest().unwrap().unwrap().steps_done, 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_store_has_no_latest() {
        let dir = temp_dir("empty");
        let store = CheckpointStore::new(&dir, 7).unwrap();
        assert_eq!(store.latest_step().unwrap(), None);
        assert!(store.load_latest().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn sink_checkpoints_on_the_requested_cadence() {
        let dir = temp_dir("sink");
        let store = CheckpointStore::new(&dir, 7).unwrap();
        let sink = FileCheckpointSink::new(store, 4);
        assert!(!sink.should_checkpoint(0), "never before the first step");
        assert!(!sink.should_checkpoint(3));
        assert!(sink.should_checkpoint(4));
        assert!(!sink.should_checkpoint(5));
        assert!(sink.should_checkpoint(8));
        let _ = fs::remove_dir_all(&dir);
    }
}
