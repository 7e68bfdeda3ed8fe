//! Layer timing from outside the program: wrappers around the public
//! stage, checkpoint-sink and evaluator interfaces the search driver calls.
//!
//! Untraced, a wrapper records one timestamp per `collect` entry and
//! nothing else, so end-to-end numbers carry no tracing cost. Traced, the
//! wrappers also time every call they forward.

use h2o_nas::ckpt::{encode_file, FileCheckpointSink};
use h2o_nas::core::{
    CandidateStage, CheckpointSink, EvalResult, Policy, ResumeState, SearchSnapshot,
};
use h2o_nas::space::ArchSample;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Milliseconds elapsed since `start`.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Per-call durations in microseconds, shared by every shard's evaluator.
pub type CallTimes = Arc<Mutex<Vec<f64>>>;

/// A shard evaluator as `EvalScenario::shard_evaluator` builds it.
pub type Evaluator = Box<dyn FnMut(&ArchSample) -> EvalResult + Send>;

/// Runs `f`, appending its duration to `times` when tracing.
pub fn timed_call<T>(times: Option<&CallTimes>, f: impl FnOnce() -> T) -> T {
    let Some(times) = times else { return f() };
    let start = Instant::now();
    let out = f();
    let us = start.elapsed().as_secs_f64() * 1e6;
    times
        .lock()
        .expect("a shard panicked while recording")
        .push(us);
    out
}

/// Wraps a shard evaluator so each call's duration lands in `times`.
pub fn timed_evaluator(mut evaluate: Evaluator, times: Option<CallTimes>) -> Evaluator {
    match times {
        None => evaluate,
        Some(times) => Box::new(move |sample| timed_call(Some(&times), || evaluate(sample))),
    }
}

/// A [`CandidateStage`] that times the stage it wraps.
pub struct TimedStage<S> {
    /// The wrapped stage.
    pub inner: S,
    trace: bool,
    step: usize,
    collect_starts: Vec<Instant>,
    /// Traced: `collect` duration per step.
    pub collect_ms: Vec<f64>,
    /// Traced: `after_policy_update` duration per step.
    pub update_ms: Vec<f64>,
    /// Traced: `(step, checkpoint_state duration)` per checkpoint.
    pub state_ms: Vec<(usize, f64)>,
}

impl<S> TimedStage<S> {
    pub fn new(inner: S, trace: bool) -> Self {
        Self {
            inner,
            trace,
            step: 0,
            collect_starts: Vec::new(),
            collect_ms: Vec::new(),
            update_ms: Vec::new(),
            state_ms: Vec::new(),
        }
    }

    /// Per-step wall times in milliseconds: the intervals between
    /// successive `collect` entries, the last one ending at `end` (when
    /// the driver's `run` returned).
    pub fn step_ms(&self, end: Instant) -> Vec<f64> {
        self.collect_starts
            .iter()
            .zip(self.collect_starts.iter().skip(1).chain([&end]))
            .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
            .collect()
    }
}

impl<S: CandidateStage> CandidateStage for TimedStage<S> {
    fn step_span_name(&self) -> &'static str {
        self.inner.step_span_name()
    }

    fn steps_counter_name(&self) -> &'static str {
        self.inner.steps_counter_name()
    }

    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        let start = Instant::now();
        self.collect_starts.push(start);
        self.step = step;
        let out = self.inner.collect(step, policy);
        if self.trace {
            self.collect_ms.push(ms_since(start));
        }
        out
    }

    fn after_policy_update(&mut self, candidates: &[(ArchSample, EvalResult)], rewards: &[f64]) {
        if !self.trace {
            return self.inner.after_policy_update(candidates, rewards);
        }
        let start = Instant::now();
        self.inner.after_policy_update(candidates, rewards);
        self.update_ms.push(ms_since(start));
    }

    fn restore(&mut self, state: &ResumeState) {
        self.inner.restore(state);
    }

    fn checkpoint_state(&mut self) -> Option<Vec<u8>> {
        if !self.trace {
            return self.inner.checkpoint_state();
        }
        let start = Instant::now();
        let state = self.inner.checkpoint_state();
        self.state_ms.push((self.step, ms_since(start)));
        state
    }
}

/// A [`CheckpointSink`] that times the [`FileCheckpointSink`] it wraps.
/// Traced, it also re-encodes each snapshot with `encode_file` to split
/// serialisation from the write and fsync, and counts snapshot bytes.
pub struct TimedSink {
    /// The wrapped sink.
    pub inner: FileCheckpointSink,
    trace: bool,
    /// Traced: `(step, on_checkpoint duration)` per checkpoint.
    pub save_ms: Vec<(usize, f64)>,
    /// Traced: `encode_file` duration per checkpoint.
    pub encode_ms: Vec<f64>,
    /// Traced: total encoded snapshot bytes.
    pub bytes: u64,
}

impl TimedSink {
    pub fn new(inner: FileCheckpointSink, trace: bool) -> Self {
        Self {
            inner,
            trace,
            save_ms: Vec::new(),
            encode_ms: Vec::new(),
            bytes: 0,
        }
    }
}

impl CheckpointSink for TimedSink {
    fn should_checkpoint(&self, steps_done: usize) -> bool {
        self.inner.should_checkpoint(steps_done)
    }

    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        if !self.trace {
            return self.inner.on_checkpoint(snapshot);
        }
        let start = Instant::now();
        let written = self.inner.on_checkpoint(snapshot);
        self.save_ms
            .push((snapshot.steps_done - 1, ms_since(start)));
        let start = Instant::now();
        let bytes = encode_file(snapshot, self.inner.store().fingerprint());
        self.encode_ms.push(ms_since(start));
        self.bytes += bytes.len() as u64;
        written
    }
}
