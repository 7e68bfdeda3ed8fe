//! Checkpoint/resume hooks for the search loops.
//!
//! The determinism contract (same seed ⇒ bit-identical outcomes for any
//! worker count) makes resume *verifiable*: a search interrupted at a
//! completed step `k` and restarted from a snapshot must reproduce the
//! uninterrupted run byte-for-byte. This module defines what a snapshot
//! contains ([`SearchSnapshot`] / [`ResumeState`]) and how the loops hand
//! one out ([`CheckpointSink`]); the durable, crash-safe file encoding
//! lives in the `h2o-ckpt` crate, keeping `h2o-core` storage-agnostic.
//!
//! Because per-step sample streams are derived from `(seed, step, shard)`
//! (see [`crate::search::shard_seed`]), no run-long RNG state exists to
//! save: controller state (policy logits + reward baseline), accumulated
//! telemetry, and — for one-shot loops — the supernet's shared weights are
//! the complete resumable state.

use crate::policy::{Policy, RewardBaseline};
use crate::search::{EvaluatedCandidate, SearchConfig, StepRecord};
use h2o_exec::wire::{fnv1a_fold, FNV_OFFSET};
use h2o_space::SearchSpace;

/// Borrowed view of everything needed to resume a search after a completed
/// step, handed to [`CheckpointSink::on_checkpoint`].
#[derive(Debug)]
pub struct SearchSnapshot<'a> {
    /// Number of fully completed steps; the resumed run starts here.
    pub steps_done: usize,
    /// Policy after `steps_done` REINFORCE updates.
    pub policy: &'a Policy,
    /// EMA reward baseline state.
    pub baseline: &'a RewardBaseline,
    /// Per-step telemetry accumulated so far.
    pub history: &'a [StepRecord],
    /// Every candidate evaluated so far.
    pub evaluated: &'a [EvaluatedCandidate],
    /// Serialised supernet shared weights (one-shot loops only).
    pub supernet_state: Option<&'a [u8]>,
}

/// Owned counterpart of [`SearchSnapshot`]: what a restore hands back to
/// the search loops.
#[derive(Debug, Clone, PartialEq)]
pub struct ResumeState {
    /// Number of fully completed steps; the resumed run starts here.
    pub steps_done: usize,
    /// Policy after `steps_done` REINFORCE updates.
    pub policy: Policy,
    /// EMA reward baseline state.
    pub baseline: RewardBaseline,
    /// Per-step telemetry accumulated so far.
    pub history: Vec<StepRecord>,
    /// Every candidate evaluated so far.
    pub evaluated: Vec<EvaluatedCandidate>,
    /// Serialised supernet shared weights (one-shot loops only).
    pub supernet_state: Option<Vec<u8>>,
}

impl ResumeState {
    /// Clones a borrowed snapshot into owned resume state.
    pub fn from_snapshot(snapshot: &SearchSnapshot<'_>) -> Self {
        Self {
            steps_done: snapshot.steps_done,
            policy: snapshot.policy.clone(),
            baseline: *snapshot.baseline,
            history: snapshot.history.to_vec(),
            evaluated: snapshot.evaluated.to_vec(),
            supernet_state: snapshot.supernet_state.map(|s| s.to_vec()),
        }
    }

    /// Borrows this state back as a [`SearchSnapshot`] (for re-encoding).
    pub fn as_snapshot(&self) -> SearchSnapshot<'_> {
        SearchSnapshot {
            steps_done: self.steps_done,
            policy: &self.policy,
            baseline: &self.baseline,
            history: &self.history,
            evaluated: &self.evaluated,
            supernet_state: self.supernet_state.as_deref(),
        }
    }
}

/// A hook the search loops consult after every completed step.
///
/// [`CheckpointSink::should_checkpoint`] gates the (possibly expensive)
/// snapshot construction — one-shot loops only serialise the supernet when
/// the sink says yes. A sink error stops [`SearchDriver::run`] with
/// [`DriverError::Checkpoint`]: silently continuing would let a run
/// believe it is durable when it is not.
///
/// [`SearchDriver::run`]: crate::SearchDriver::run
/// [`DriverError::Checkpoint`]: crate::DriverError::Checkpoint
pub trait CheckpointSink {
    /// Whether a snapshot should be taken after `steps_done` completed
    /// steps.
    fn should_checkpoint(&self, steps_done: usize) -> bool;

    /// Persists (or captures) the snapshot.
    ///
    /// # Errors
    ///
    /// Any error string; the search loop treats it as fatal.
    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String>;
}

/// FNV-1a over the 8 little-endian bytes of `value`, folded into `hash`.
fn fnv1a_u64(hash: u64, value: u64) -> u64 {
    fnv1a_fold(hash, &value.to_le_bytes())
}

fn fnv1a_str(hash: u64, value: &str) -> u64 {
    fnv1a_fold(hash, value.as_bytes())
}

/// Hashes the space's identity: its name plus every decision's name and
/// cardinality, in order.
fn space_fingerprint(mut hash: u64, space: &SearchSpace) -> u64 {
    hash = fnv1a_str(hash, space.name());
    hash = fnv1a_u64(hash, space.num_decisions() as u64);
    for decision in space.decisions() {
        hash = fnv1a_str(hash, &decision.name);
        hash = fnv1a_u64(hash, decision.choices as u64);
    }
    hash
}

impl SearchConfig {
    /// A fingerprint of everything that must match for a checkpoint to be
    /// resumable under this config: the search space's shape plus the
    /// trajectory-determining hyper-parameters (`shards`, `policy_lr`,
    /// `baseline_momentum`, `seed`). `steps` and `workers` are deliberately
    /// *excluded* — a resumed run may extend the horizon or change the
    /// worker count without perturbing the outcome.
    pub fn fingerprint(&self, space: &SearchSpace) -> u64 {
        let mut hash = fnv1a_str(FNV_OFFSET, "parallel_search");
        hash = space_fingerprint(hash, space);
        hash = fnv1a_u64(hash, self.shards as u64);
        hash = fnv1a_u64(hash, self.policy_lr.to_bits());
        hash = fnv1a_u64(hash, self.baseline_momentum.to_bits());
        fnv1a_u64(hash, self.seed)
    }
}

impl crate::oneshot::OneShotConfig {
    /// A fingerprint of everything that must match for a checkpoint to be
    /// resumable under this config (see [`SearchConfig::fingerprint`]);
    /// additionally covers `batch_size` and `quality_scale`, which shape
    /// the supernet training trajectory. `steps` and `workers` are
    /// excluded.
    pub fn fingerprint(&self, space: &SearchSpace) -> u64 {
        let mut hash = fnv1a_str(FNV_OFFSET, "unified_search");
        hash = space_fingerprint(hash, space);
        hash = fnv1a_u64(hash, self.shards as u64);
        hash = fnv1a_u64(hash, self.batch_size as u64);
        hash = fnv1a_u64(hash, self.policy_lr.to_bits());
        hash = fnv1a_u64(hash, self.baseline_momentum.to_bits());
        hash = fnv1a_u64(hash, self.quality_scale.to_bits());
        fnv1a_u64(hash, self.seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use h2o_space::Decision;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("fp");
        s.push(Decision::new("a", 3));
        s.push(Decision::new("b", 4));
        s
    }

    #[test]
    fn fingerprint_ignores_steps_and_workers() {
        let base = SearchConfig {
            steps: 100,
            workers: 1,
            ..Default::default()
        };
        let more = SearchConfig {
            steps: 500,
            workers: 8,
            ..base
        };
        assert_eq!(base.fingerprint(&space()), more.fingerprint(&space()));
    }

    #[test]
    fn fingerprint_covers_seed_shards_and_lr() {
        let base = SearchConfig::default();
        let s = space();
        let fp = base.fingerprint(&s);
        assert_ne!(fp, SearchConfig { seed: 1, ..base }.fingerprint(&s));
        assert_ne!(fp, SearchConfig { shards: 9, ..base }.fingerprint(&s));
        assert_ne!(
            fp,
            SearchConfig {
                policy_lr: 0.051,
                ..base
            }
            .fingerprint(&s)
        );
    }

    #[test]
    fn fingerprint_covers_the_space_shape() {
        let cfg = SearchConfig::default();
        let mut other = SearchSpace::new("fp");
        other.push(Decision::new("a", 3));
        other.push(Decision::new("b", 5));
        assert_ne!(cfg.fingerprint(&space()), cfg.fingerprint(&other));
    }

    #[test]
    fn round_trip_through_owned_state() {
        let policy = Policy::from_logits(vec![vec![0.5, -0.25], vec![1.0, 2.0, 3.0]]);
        let baseline = RewardBaseline::from_parts(0.75, 0.9, true);
        let snapshot = SearchSnapshot {
            steps_done: 7,
            policy: &policy,
            baseline: &baseline,
            history: &[],
            evaluated: &[],
            supernet_state: Some(&[1, 2, 3]),
        };
        let state = ResumeState::from_snapshot(&snapshot);
        assert_eq!(state.steps_done, 7);
        assert_eq!(state.policy, policy);
        assert_eq!(state.supernet_state.as_deref(), Some(&[1u8, 2, 3][..]));
        let again = ResumeState::from_snapshot(&state.as_snapshot());
        assert_eq!(again, state);
    }
}
