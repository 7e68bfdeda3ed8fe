//! Driver-equivalence suite: the proof that running every search as a
//! stage (`ParallelStage`, `UnifiedStage`, `TunasStage`) over the one
//! `SearchDriver` engine is behavior-preserving.
//!
//! The goldens under `tests/goldens/` were recorded from the three
//! *hand-rolled* loops the engine replaced. Every test here re-runs the
//! same scenario through `SearchDriver::run` over today's stages and
//! asserts the outcome — history (timing zeroed), the full evaluated
//! candidate cloud, and the final argmax architecture — is **bit-identical**
//! to the pre-refactor recording, across worker counts and
//! resume-from-midpoint.
//!
//! Do NOT regenerate the goldens to make a failure pass: a refreshed golden
//! only proves the code agrees with itself. The recording hook
//! (`H2O_RECORD_GOLDENS=1`) exists solely for authoring *new* scenarios.

use h2o_nas::core::telemetry::{candidates_csv, history_csv};
use h2o_nas::core::{
    CheckpointSink, EvalResult, OneShotConfig, ParallelStage, PerfObjective, ResumeState, RewardFn,
    RewardKind, SearchConfig, SearchDriver, SearchOutcome, SearchSnapshot, TunasStage,
    UnifiedStage,
};
use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline};
use h2o_nas::space::{ArchSample, Decision, DlrmSpaceConfig, DlrmSupernet, SearchSpace};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::PathBuf;

fn golden_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/tests/goldens"))
}

/// `(history_csv, candidates_csv, best)` with the wall-clock column zeroed
/// — everything else must be bit-identical to the recording.
fn normalized(mut outcome: SearchOutcome) -> (String, String, String) {
    for record in &mut outcome.history {
        record.step_time_ms = 0.0;
    }
    let best: Vec<String> = outcome.best.iter().map(|c| c.to_string()).collect();
    (
        history_csv(&outcome),
        candidates_csv(&outcome),
        best.join("/"),
    )
}

fn read_golden(name: &str, suffix: &str) -> String {
    let path = golden_dir().join(format!("{name}_{suffix}"));
    std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); goldens are committed, never regenerated",
            path.display()
        )
    })
}

fn assert_matches_golden(name: &str, outcome: SearchOutcome, context: &str) {
    let (history, candidates, best) = normalized(outcome);
    assert_eq!(
        history,
        read_golden(name, "history.csv"),
        "{context}: history diverged from the pre-refactor recording"
    );
    assert_eq!(
        candidates,
        read_golden(name, "candidates.csv"),
        "{context}: evaluated candidates diverged from the pre-refactor recording"
    );
    assert_eq!(
        best,
        read_golden(name, "best.txt").trim(),
        "{context}: final architecture diverged from the pre-refactor recording"
    );
}

/// Captures the snapshot taken after exactly `at` completed steps.
struct CaptureAt {
    at: usize,
    state: Option<ResumeState>,
}

impl CheckpointSink for CaptureAt {
    fn should_checkpoint(&self, steps_done: usize) -> bool {
        steps_done == self.at
    }
    fn on_checkpoint(&mut self, snapshot: &SearchSnapshot<'_>) -> Result<(), String> {
        self.state = Some(ResumeState::from_snapshot(snapshot));
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Flavor 1: executor-fanned stateless evaluation (`ParallelStage`).
// ---------------------------------------------------------------------------

const PARALLEL_STEPS: usize = 12;
const PARALLEL_MID: usize = 6;

fn parallel_space() -> SearchSpace {
    let mut s = SearchSpace::new("drv-eq");
    s.push(Decision::new("width", 6));
    s.push(Decision::new("depth", 5));
    s.push(Decision::new("res", 4));
    s
}

fn parallel_cfg(workers: usize) -> SearchConfig {
    SearchConfig {
        steps: PARALLEL_STEPS,
        shards: 4,
        policy_lr: 0.07,
        baseline_momentum: 0.9,
        seed: 1234,
        workers,
    }
}

fn parallel_outcome(
    cfg: &SearchConfig,
    resume: Option<ResumeState>,
    sink: Option<&mut dyn CheckpointSink>,
) -> SearchOutcome {
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("time", 1.2, -6.0)],
    );
    let mut stage = ParallelStage::new(
        |_shard| {
            |sample: &ArchSample| {
                let (w, d, r) = (sample[0] as f64, sample[1] as f64, sample[2] as f64);
                EvalResult {
                    quality: 10.0 * (1.0 - (-0.3 * (w + d + r)).exp()),
                    perf_values: vec![0.4 + 0.2 * w + 0.05 * d],
                }
            }
        },
        cfg,
    );
    SearchDriver::new(&parallel_space(), &reward, *cfg)
        .run(&mut stage, resume, sink)
        .expect("in-memory sinks cannot fail")
}

#[test]
fn parallel_matches_pre_refactor_golden_at_workers_1_and_4() {
    for workers in [1usize, 4] {
        let outcome = parallel_outcome(&parallel_cfg(workers), None, None);
        assert_matches_golden("parallel", outcome, &format!("workers={workers}"));
    }
}

#[test]
fn parallel_resume_from_midpoint_matches_pre_refactor_golden() {
    for workers in [1usize, 4] {
        let mut capture = CaptureAt {
            at: PARALLEL_MID,
            state: None,
        };
        let cut = SearchConfig {
            steps: PARALLEL_MID,
            ..parallel_cfg(workers)
        };
        parallel_outcome(&cut, None, Some(&mut capture));
        let state = capture.state.expect("snapshot captured at midpoint");
        let resumed = parallel_outcome(&parallel_cfg(workers), Some(state), None);
        assert_matches_golden(
            "parallel",
            resumed,
            &format!("resume-from-midpoint workers={workers}"),
        );
    }
}

// ---------------------------------------------------------------------------
// Flavor 2: serial supernet quality + executor-fanned perf
// (`UnifiedStage` over the DLRM supernet).
// ---------------------------------------------------------------------------

const ONESHOT_STEPS: usize = 8;
const ONESHOT_MID: usize = 4;

fn oneshot_cfg(workers: usize) -> OneShotConfig {
    OneShotConfig {
        steps: ONESHOT_STEPS,
        shards: 2,
        batch_size: 16,
        workers,
        ..Default::default()
    }
}

fn oneshot_outcome(
    cfg: &OneShotConfig,
    resume: Option<ResumeState>,
    sink: Option<&mut dyn CheckpointSink>,
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(3);
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 1));
    let space = supernet.space().clone();
    let baseline_size = space.decode(&space.baseline()).model_size_bytes();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("size", baseline_size, -2.0)],
    );
    let perf_space = space.clone();
    let perf = move |sample: &ArchSample| vec![perf_space.decode(sample).model_size_bytes()];
    let mut stage = UnifiedStage::new(&mut supernet, &pipeline, perf, cfg);
    SearchDriver::new(space.space(), &reward, cfg.controller())
        .run(&mut stage, resume, sink)
        .expect("in-memory sinks cannot fail")
}

#[test]
fn oneshot_matches_pre_refactor_golden_at_workers_1_and_4() {
    for workers in [1usize, 4] {
        let outcome = oneshot_outcome(&oneshot_cfg(workers), None, None);
        assert_matches_golden("oneshot", outcome, &format!("workers={workers}"));
    }
}

#[test]
fn oneshot_resume_from_midpoint_matches_pre_refactor_golden() {
    let mut capture = CaptureAt {
        at: ONESHOT_MID,
        state: None,
    };
    let cut = OneShotConfig {
        steps: ONESHOT_MID,
        ..oneshot_cfg(1)
    };
    oneshot_outcome(&cut, None, Some(&mut capture));
    let state = capture.state.expect("snapshot captured at midpoint");
    assert!(
        state.supernet_state.is_some(),
        "one-shot snapshots carry the shared weights"
    );
    let resumed = oneshot_outcome(&oneshot_cfg(1), Some(state), None);
    assert_matches_golden("oneshot", resumed, "resume-from-midpoint");
}

// ---------------------------------------------------------------------------
// Flavor 3: alternating train/valid streams (`TunasStage`).
// ---------------------------------------------------------------------------

const TUNAS_STEPS: usize = 8;
const TUNAS_MID: usize = 4;

fn tunas_cfg() -> OneShotConfig {
    OneShotConfig {
        steps: TUNAS_STEPS,
        shards: 2,
        batch_size: 32,
        seed: 1,
        ..Default::default()
    }
}

fn tunas_outcome(cfg: &OneShotConfig) -> SearchOutcome {
    tunas_outcome_with(cfg, None, None)
}

fn tunas_outcome_with(
    cfg: &OneShotConfig,
    resume: Option<ResumeState>,
    sink: Option<&mut dyn CheckpointSink>,
) -> SearchOutcome {
    let mut rng = StdRng::seed_from_u64(21);
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let mut train = CtrTraffic::new(CtrTrafficConfig::tiny(), 51);
    let mut valid = CtrTraffic::new(CtrTrafficConfig::tiny(), 52);
    let space = supernet.space().clone();
    let baseline_size = space.decode(&space.baseline()).model_size_bytes();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("size", baseline_size, -2.0)],
    );
    let perf_space = space.clone();
    let perf = move |sample: &ArchSample| vec![perf_space.decode(sample).model_size_bytes()];
    let mut stage = TunasStage::new(&mut supernet, &mut train, &mut valid, perf, cfg);
    SearchDriver::new(space.space(), &reward, cfg.controller())
        .run(&mut stage, resume, sink)
        .expect("in-memory sinks cannot fail")
}

#[test]
fn tunas_matches_pre_refactor_golden() {
    let outcome = tunas_outcome(&tunas_cfg());
    assert_matches_golden("tunas", outcome, "full run");
}

#[test]
fn tunas_resume_from_midpoint_matches_pre_refactor_golden() {
    // The driver gives the TuNAS stage checkpoint/resume support; a run
    // interrupted at the midpoint must still land exactly on the golden
    // recorded from the pre-refactor (checkpoint-less) loop.
    let mut capture = CaptureAt {
        at: TUNAS_MID,
        state: None,
    };
    let cut = OneShotConfig {
        steps: TUNAS_MID,
        ..tunas_cfg()
    };
    tunas_outcome_with(&cut, None, Some(&mut capture));
    let state = capture.state.expect("snapshot captured at midpoint");
    assert!(
        state.supernet_state.is_some(),
        "tunas snapshots carry the shared weights"
    );
    let resumed = tunas_outcome_with(&tunas_cfg(), Some(state), None);
    assert_matches_golden("tunas", resumed, "resume-from-midpoint");
}

// ---------------------------------------------------------------------------
// Recording hook — authoring aid only. `H2O_RECORD_GOLDENS=1 cargo test
// --test driver_equivalence record_goldens` writes the current outcomes as
// goldens. Refreshing an existing golden invalidates the equivalence proof.
// ---------------------------------------------------------------------------

#[test]
fn record_goldens() {
    if std::env::var("H2O_RECORD_GOLDENS").is_err() {
        return;
    }
    let dir = golden_dir();
    std::fs::create_dir_all(&dir).expect("golden dir");
    let write = |name: &str, outcome: SearchOutcome| {
        let (history, candidates, best) = normalized(outcome);
        std::fs::write(dir.join(format!("{name}_history.csv")), history).expect("write");
        std::fs::write(dir.join(format!("{name}_candidates.csv")), candidates).expect("write");
        std::fs::write(dir.join(format!("{name}_best.txt")), best + "\n").expect("write");
    };
    write("parallel", parallel_outcome(&parallel_cfg(1), None, None));
    write("oneshot", oneshot_outcome(&oneshot_cfg(1), None, None));
    write("tunas", tunas_outcome(&tunas_cfg()));
}
