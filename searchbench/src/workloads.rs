//! The four pinned workloads. Every knob is a constant here; only the seed
//! comes from the command line. `NOTES.md` gives the reason for each.

use crate::kernels::KernelInputs;
use crate::layers::{timed_call, timed_evaluator, CallTimes, TimedSink, TimedStage};
use h2o_nas::ckpt::{CheckpointStore, FileCheckpointSink};
use h2o_nas::core::{
    encode_eval_job, encode_eval_result, CandidateStage, CheckpointSink, ControllerConfig,
    DistributedStage, DriverError, OneShotConfig, ParallelStage, PerfObjective, RewardFn,
    RewardKind, SearchDriver, SearchOutcome, StepRecord, UnifiedStage, NON_FINITE_REWARD_PENALTY,
};
use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline, TrafficSource};
use h2o_nas::distributed::NodeCluster;
use h2o_nas::eval::{BackendSpec, Domain, EvalScenario, ModelSpec};
use h2o_nas::exec::{DistributedPool, PoolOptions};
use h2o_nas::graph::Graph;
use h2o_nas::hwsim::{arch_key, HardwareConfig, Simulator, SystemConfig};
use h2o_nas::perfmodel::{Featurizer, PerfModel, PerfTargets, TrainConfig};
use h2o_nas::space::{
    ArchSample, CnnSpace, CnnSpaceConfig, DlrmSpace, DlrmSpaceConfig, DlrmSupernet, SearchSpace,
    VitSpace, VitSpaceConfig,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;
use std::path::Path;
use std::time::{Duration, Instant};

/// Candidates per step on every workload.
pub const SHARDS: usize = 8;
/// Node-worker processes of `vit-nodes2`.
pub const NODES: usize = 2;
/// The `h2o search` CLI's controller and reward settings.
const POLICY_LR: f64 = 0.06;
const BASELINE_MOMENTUM: f64 = 0.9;
const STEP_BUDGET_S: f64 = 0.1;
const CACHE_CAPACITY: usize = 4096;
/// A set-up shorter than this is repeated on fresh constructions until
/// this much time has passed, and the mean is reported: a single
/// sub-millisecond reading jitters by more than a tenth.
const MIN_SETUP: Duration = Duration::from_millis(50);
const MAX_SETUPS: usize = 256;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DlrmModel,
    CnnCkpt,
    DlrmOneshot,
    VitNodes2,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::DlrmModel,
        Workload::CnnCkpt,
        Workload::DlrmOneshot,
        Workload::VitNodes2,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::DlrmModel => "dlrm-model",
            Workload::CnnCkpt => "cnn-ckpt",
            Workload::DlrmOneshot => "dlrm-oneshot",
            Workload::VitNodes2 => "vit-nodes2",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Search steps of one round: a round lasts at most about a second,
    /// so a run repeats it many times.
    pub fn steps(self) -> usize {
        match self {
            Workload::DlrmModel => 1000,
            Workload::CnnCkpt => 240,
            Workload::DlrmOneshot => 60,
            Workload::VitNodes2 => 4000,
        }
    }

    /// The floor the reward metrics are reported above: 0 where rewards
    /// are accuracy-like percentages; −100 for `dlrm-oneshot`, whose
    /// quality term is 10 × −logloss, so that its rewards are negative.
    /// −100 is its stage's score for a diverged candidate. Every workload
    /// then reports rewards of about 90, so that one bound on the reward
    /// metrics is about the same number of reward points on each.
    pub fn reward_floor(self) -> f64 {
        match self {
            Workload::DlrmOneshot => -100.0,
            _ => 0.0,
        }
    }

    /// In-process executor workers. Pinned: the auto count reads the
    /// environment and the machine, and its second thread made
    /// controller-bound runs noisy.
    pub fn workers(self) -> usize {
        match self {
            Workload::CnnCkpt => 2,
            _ => 1,
        }
    }

    pub fn nodes(self) -> usize {
        match self {
            Workload::VitNodes2 => NODES,
            _ => 0,
        }
    }

    /// Checkpoint cadence: every 40 steps puts 2.5% of steps on a
    /// checkpoint, away from the 10% and 50% edges where p90 and p50 fall,
    /// and keeps the fsyncs to the shared disk few.
    pub fn checkpoint_every(self) -> Option<usize> {
        match self {
            Workload::CnnCkpt => Some(40),
            _ => None,
        }
    }
}

/// What one round is asked to do.
pub struct Ctx<'a> {
    pub seed: u64,
    pub trace: bool,
    /// Scratch directory of this round (checkpoints); removed afterwards.
    pub dir: &'a Path,
}

/// One search round: set-up, the search, and the checks on its outputs.
#[derive(Default)]
pub struct Round {
    /// The seed the round searched with.
    pub seed: u64,
    /// The CPU the round was pinned to, if it was.
    pub cpu: Option<usize>,
    pub setup_s: f64,
    /// Peak resident set during the round, set-up included.
    pub peak_rss_mb: f64,
    pub search_s: f64,
    pub step_ms: Vec<f64>,
    /// The reference work's duration around the round (see `speed`).
    pub reference_ms: f64,
    pub candidates: usize,
    pub checks: Vec<(&'static str, bool)>,
    /// Rewards the driver clamped to `NON_FINITE_REWARD_PENALTY`.
    pub clamped: usize,
    pub driver_error: Option<String>,
    pub tail_reward: f64,
    pub best_sim_reward: f64,
    /// Mean reward of the first step, whose policy is still uniform.
    pub first_step_reward: f64,
    pub outcome_hash: u64,
    pub trace: Option<Trace>,
}

/// Per-layer readings of a traced round.
#[derive(Default)]
pub struct Trace {
    pub collect_ms: Vec<f64>,
    pub update_ms: Vec<f64>,
    pub driver_self_ms: Vec<f64>,
    pub evaluate_us: Vec<f64>,
    pub save_ms: Vec<f64>,
    pub encode_ms: Vec<f64>,
    pub ckpt_bytes: u64,
    pub served: u64,
    pub fallback: u64,
    pub distinct_share: f64,
    pub wire_bytes_per_step: f64,
    pub live_nodes_end: usize,
    pub batches_served: u64,
    pub kernels: Option<KernelInputs>,
}

impl Round {
    fn check(&mut self, name: &'static str, ok: bool) {
        self.checks.push((name, ok));
    }

    /// Records the driver's result and the checks every workload shares.
    fn record(
        &mut self,
        steps: usize,
        result: Result<SearchOutcome, DriverError>,
    ) -> Option<SearchOutcome> {
        let outcome = match result {
            Ok(outcome) => outcome,
            Err(err) => {
                self.driver_error = Some(err.to_string());
                return None;
            }
        };
        self.candidates = outcome.evaluated.len();
        self.check(
            "history has one row per step",
            outcome.history.len() == steps,
        );
        self.check(
            "steps x shards candidates",
            outcome.evaluated.len() == steps * SHARDS,
        );
        self.clamped = outcome
            .evaluated
            .iter()
            .filter(|c| c.reward == NON_FINITE_REWARD_PENALTY)
            .count();
        self.tail_reward = tail_reward(&outcome.history);
        self.first_step_reward = outcome.history.first().map_or(0.0, |r| r.mean_reward);
        self.outcome_hash = outcome_hash(&outcome);
        Some(outcome)
    }
}

/// Mean per-step reward over the last 10% of steps.
fn tail_reward(history: &[StepRecord]) -> f64 {
    let tail = &history[history.len() - (history.len() / 10).max(1)..];
    tail.iter().map(|r| r.mean_reward).sum::<f64>() / tail.len() as f64
}

/// FNV-1a over the history without step times, the candidates and the
/// final architecture: equal for two runs exactly when their outcomes are.
fn outcome_hash(outcome: &SearchOutcome) -> u64 {
    let mut bytes = Vec::new();
    let mut put = |v: u64| bytes.extend_from_slice(&v.to_le_bytes());
    for r in &outcome.history {
        put(r.step as u64);
        put(r.mean_reward.to_bits());
        put(r.best_reward.to_bits());
        put(r.entropy.to_bits());
    }
    for c in &outcome.evaluated {
        c.sample.iter().for_each(|&d| put(d as u64));
        put(c.result.quality.to_bits());
        c.result.perf_values.iter().for_each(|v| put(v.to_bits()));
        put(c.reward.to_bits());
    }
    outcome.best.iter().for_each(|&d| put(d as u64));
    h2o_nas::exec::wire::fnv1a(&bytes)
}

/// Times `build` as a round's set-up (see [`MIN_SETUP`]). Returns the last
/// construction and the mean seconds per construction; each earlier one is
/// dropped while the clock is stopped.
fn timed_setup<T>(mut build: impl FnMut() -> T) -> (T, f64) {
    let mut count = 0;
    let mut spent = Duration::ZERO;
    loop {
        let start = Instant::now();
        let built = build();
        spent += start.elapsed();
        count += 1;
        if spent >= MIN_SETUP || count == MAX_SETUPS {
            return (built, spent.as_secs_f64() / count as f64);
        }
    }
}

/// Runs the driver over `stage`: `(result, search seconds, step times)`.
fn drive<S: CandidateStage>(
    space: &SearchSpace,
    reward: &RewardFn,
    config: ControllerConfig,
    stage: &mut TimedStage<S>,
    sink: Option<&mut TimedSink>,
) -> (Result<SearchOutcome, DriverError>, f64, Vec<f64>) {
    let start = Instant::now();
    let result = SearchDriver::new(space, reward, config).run(
        stage,
        None,
        sink.map(|s| s as &mut dyn CheckpointSink),
    );
    let end = Instant::now();
    (
        result,
        end.duration_since(start).as_secs_f64(),
        stage.step_ms(end),
    )
}

fn controller(seed: u64, workload: Workload) -> ControllerConfig {
    ControllerConfig {
        steps: workload.steps(),
        shards: SHARDS,
        policy_lr: POLICY_LR,
        baseline_momentum: BASELINE_MOMENTUM,
        seed,
        workers: workload.workers(),
    }
}

fn step_time_reward() -> RewardFn {
    RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step_time", STEP_BUDGET_S, -8.0)],
    )
}

/// The stage's timings as per-step layer readings: collect, stage update,
/// and the driver's own time (step minus collect, update and checkpoint).
fn stage_trace<S>(stage: &TimedStage<S>, sink: Option<&TimedSink>, step_ms: &[f64]) -> Trace {
    let mut ckpt_ms = vec![0.0; step_ms.len()];
    let saves = sink.map_or(&[][..], |s| &s.save_ms[..]);
    for &(step, ms) in stage.state_ms.iter().chain(saves) {
        ckpt_ms[step] += ms;
    }
    // One entry per completed step: a failed collect has no update.
    let driver_self_ms = (0..stage.update_ms.len())
        .map(|i| step_ms[i] - stage.collect_ms[i] - stage.update_ms[i] - ckpt_ms[i])
        .collect();
    Trace {
        collect_ms: stage.collect_ms.clone(),
        update_ms: stage.update_ms.clone(),
        driver_self_ms,
        save_ms: saves.iter().map(|&(_, ms)| ms).collect(),
        encode_ms: sink.map_or(Vec::new(), |s| s.encode_ms.clone()),
        ckpt_bytes: sink.map_or(0, |s| s.bytes),
        ..Trace::default()
    }
}

/// Distinct architecture keys ÷ candidates, and up to 64 of the distinct
/// candidates (the latest ones) for the kernel measurements.
fn distinct(space_name: &str, outcome: &SearchOutcome) -> (f64, Vec<ArchSample>) {
    let mut keys = BTreeSet::new();
    let mut samples = Vec::new();
    for c in outcome.evaluated.iter().rev() {
        if keys.insert(arch_key(space_name, &c.sample)) && samples.len() < 64 {
            samples.push(c.sample.clone());
        }
    }
    (keys.len() as f64 / outcome.evaluated.len() as f64, samples)
}

/// The last step's candidates with advantages against the step's mean.
fn last_batch(outcome: &SearchOutcome) -> Vec<(ArchSample, f64)> {
    let last = &outcome.evaluated[outcome.evaluated.len() - SHARDS..];
    let mean = last.iter().map(|c| c.reward).sum::<f64>() / SHARDS as f64;
    last.iter()
        .map(|c| (c.sample.clone(), c.reward - mean))
        .collect()
}

/// The production DLRM space the `dlrm` scenario searches (40 tables).
fn dlrm_space() -> DlrmSpace {
    let mut config = DlrmSpaceConfig::production();
    config.tables.truncate(40);
    DlrmSpace::new(config)
}

/// Decodes a candidate into the graph the domain's evaluator simulates.
fn graph_decoder(domain: Domain) -> Box<dyn Fn(&ArchSample) -> Graph> {
    match domain {
        Domain::Cnn => {
            let space = CnnSpace::new(CnnSpaceConfig::default());
            Box::new(move |s| space.decode(s).build_graph(64))
        }
        Domain::Dlrm => {
            let space = dlrm_space();
            Box::new(move |s| space.decode(s).build_graph(64, 128))
        }
        Domain::Vit => {
            let space = VitSpace::new(VitSpaceConfig::pure());
            Box::new(move |s| space.decode(s).build_graph(32, 512))
        }
    }
}

/// Reward of `best` with its performance measured by the plain simulator.
fn sim_reward(scenario: &EvalScenario, reward: &RewardFn, best: &ArchSample) -> f64 {
    let scenario = EvalScenario {
        backend: BackendSpec::Simulator,
        ..*scenario
    };
    let backend = scenario.backend().expect("the simulator backend builds");
    let result = scenario.shard_evaluator(&backend)(best);
    reward.reward(result.quality, &result.perf_values)
}

pub fn run_round(workload: Workload, ctx: &Ctx) -> Round {
    match workload {
        Workload::DlrmModel => in_process(
            ctx,
            workload,
            "dlrm",
            BackendSpec::ModelServed {
                fallback_capacity: Some(CACHE_CAPACITY),
                model: ModelSpec::default(),
            },
        ),
        Workload::CnnCkpt => in_process(ctx, workload, "cnn", BackendSpec::Simulator),
        Workload::DlrmOneshot => oneshot(ctx),
        Workload::VitNodes2 => remote(ctx),
    }
}

/// `dlrm-model` and `cnn-ckpt`: a `ParallelStage` over the scenario's
/// shard evaluators, with the checkpoint sink when the workload has one.
fn in_process(ctx: &Ctx, workload: Workload, domain: &str, backend: BackendSpec) -> Round {
    let config = controller(ctx.seed, workload);
    let reward = step_time_reward();
    let eval_times = ctx.trace.then(CallTimes::default);
    // The checkpoint directory exists before set-up, as for a resumed run:
    // creating one took 20 to 160 µs on an ext4 disk, varying with the
    // host's I/O, and would dominate this sub-millisecond set-up.
    let ckpt_dir = ctx.dir.join("ckpt");
    if workload.checkpoint_every().is_some() {
        std::fs::create_dir_all(&ckpt_dir).expect("the round directory is writable");
    }
    let ((scenario, space, evals, mut stage, mut sink), setup_s) = timed_setup(|| {
        let scenario = EvalScenario::new(domain, backend).expect("the pinned scenario is valid");
        let space = scenario.space();
        let evals = scenario.backend().expect("the pinned backend builds");
        let stage = ParallelStage::new(
            |_| timed_evaluator(scenario.shard_evaluator(&evals), eval_times.clone()),
            &config,
        );
        let sink = workload.checkpoint_every().map(|every| {
            let fingerprint = config.fingerprint(&space) ^ scenario.value_fingerprint();
            let store = CheckpointStore::new(&ckpt_dir, fingerprint)
                .expect("the checkpoint directory opens");
            TimedSink::new(FileCheckpointSink::new(store, every), ctx.trace)
        });
        (
            scenario,
            space,
            evals,
            TimedStage::new(stage, ctx.trace),
            sink,
        )
    });
    let (result, search_s, step_ms) = drive(&space, &reward, config, &mut stage, sink.as_mut());
    let mut round = Round {
        setup_s,
        search_s,
        step_ms,
        ..Round::default()
    };
    let Some(outcome) = round.record(config.steps, result) else {
        return round;
    };
    if let Some(sink) = &sink {
        let reloaded = sink.inner.store().load_latest();
        round.check(
            "last checkpoint reloads at steps_done == steps",
            matches!(&reloaded, Ok(Some(state))
                if state.steps_done == config.steps && state.policy == outcome.policy),
        );
    }
    round.best_sim_reward = sim_reward(&scenario, &reward, &outcome.best);
    if ctx.trace {
        let mut trace = stage_trace(&stage, sink.as_ref(), &round.step_ms);
        trace.evaluate_us = eval_times.map_or(Vec::new(), |t| {
            std::mem::take(&mut *t.lock().expect("shards have finished"))
        });
        if let Some(served) = evals.model_served() {
            let stats = served.stats();
            trace.served = stats.served;
            trace.fallback = stats.fallback;
        }
        let (share, samples) = distinct(scenario.domain.name(), &outcome);
        trace.distinct_share = share;
        trace.kernels = Some(KernelInputs {
            policy: outcome.policy.clone(),
            batch: last_batch(&outcome),
            policy_lr: config.policy_lr,
            samples,
            graph_of: graph_decoder(scenario.domain),
            perf_model: evals.model_served().map(|served| {
                (
                    served.frozen_model().clone(),
                    Featurizer::from_space(&space),
                )
            }),
            matmul: evals.model_served().map(|_| {
                // infer_one: one feature row through the first hidden layer.
                (1, Featurizer::from_space(&space).dim(), 16)
            }),
            replay: None,
        });
        round.trace = Some(trace);
    }
    round
}

/// Everything `h2o search --domain dlrm-oneshot` builds before step 0.
struct OneshotSetup {
    supernet: DlrmSupernet,
    featurizer: Featurizer,
    model: PerfModel,
    reward: RewardFn,
    pipeline: InMemoryPipeline<CtrTraffic>,
}

/// Simulator-labelled candidates the one-shot perf model pretrains on.
const ONESHOT_PRETRAIN_POOL: usize = 256;
/// Held-out examples scoring the final architecture's quality.
const ONESHOT_EVAL_EXAMPLES: usize = 256;

impl OneshotSetup {
    fn build(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
        let space = supernet.space().clone();
        let featurizer = Featurizer::from_space(space.space());
        let sim = Simulator::new(HardwareConfig::tpu_v4());
        let mut xs = Vec::with_capacity(ONESHOT_PRETRAIN_POOL);
        let mut ys = Vec::with_capacity(ONESHOT_PRETRAIN_POOL);
        for _ in 0..ONESHOT_PRETRAIN_POOL {
            let sample = space.space().sample_uniform(&mut rng);
            let graph = space.decode(&sample).build_graph(64, 128);
            let training = sim
                .simulate_training(&graph, &SystemConfig::training_pod())
                .time;
            let serving = sim.simulate(&graph).time;
            xs.push(featurizer.featurize(&sample));
            ys.push(PerfTargets { training, serving });
        }
        let mut model = PerfModel::new(featurizer.dim(), &[32, 32], seed);
        model.pretrain(
            &xs,
            &ys,
            TrainConfig {
                epochs: 20,
                batch_size: 32,
                lr: 1e-3,
            },
        );
        let mut times: Vec<f64> = ys.iter().map(|y| y.training).collect();
        times.sort_by(f64::total_cmp);
        let reward = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new(
                "train_step_time",
                times[ONESHOT_PRETRAIN_POOL / 2],
                -8.0,
            )],
        );
        let pipeline = InMemoryPipeline::new(CtrTraffic::new(
            CtrTrafficConfig::tiny(),
            seed.wrapping_add(1),
        ));
        Self {
            supernet,
            featurizer,
            model,
            reward,
            pipeline,
        }
    }
}

/// `dlrm-oneshot`: the unified one-shot search over the tiny DLRM
/// supernet, scoring performance with the simulator-pretrained model.
fn oneshot(ctx: &Ctx) -> Round {
    let workload = Workload::DlrmOneshot;
    let config = OneShotConfig {
        steps: workload.steps(),
        shards: SHARDS,
        batch_size: 32,
        workers: workload.workers(),
        seed: ctx.seed,
        ..OneShotConfig::default()
    };
    let (built, build_s) = timed_setup(|| OneshotSetup::build(ctx.seed));
    let OneshotSetup {
        mut supernet,
        featurizer,
        model,
        reward,
        pipeline,
    } = built;
    let space = supernet.space().clone();
    let perf_times = ctx.trace.then(CallTimes::default);
    let perf = |sample: &ArchSample| {
        timed_call(perf_times.as_ref(), || {
            vec![model.predict(&featurizer.featurize(sample)).training]
        })
    };
    let stage_start = Instant::now();
    let mut stage = TimedStage::new(
        UnifiedStage::new(&mut supernet, &pipeline, perf, &config),
        ctx.trace,
    );
    let setup_s = build_s + stage_start.elapsed().as_secs_f64();
    let (result, search_s, step_ms) = drive(
        space.space(),
        &reward,
        config.controller(),
        &mut stage,
        None,
    );
    let mut trace = ctx.trace.then(|| stage_trace(&stage, None, &step_ms));
    drop(stage);
    let mut round = Round {
        setup_s,
        search_s,
        step_ms,
        ..Round::default()
    };
    let Some(outcome) = round.record(config.steps, result) else {
        return round;
    };
    let stats = pipeline.stats();
    round.check(
        "pipeline ends with 0 batches in flight",
        pipeline.in_flight() == 0,
    );
    round.check(
        "produced == policy_used == weights_used",
        stats.produced == (config.steps * SHARDS) as u64
            && stats.policy_used == stats.produced
            && stats.weights_used == stats.produced,
    );

    supernet.apply_sample(&outcome.best);
    let held_out = CtrTraffic::new(CtrTrafficConfig::tiny(), ctx.seed.wrapping_add(2))
        .next_batch(ONESHOT_EVAL_EXAMPLES);
    let (logloss, _) = supernet.evaluate(&held_out);
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let sim_time = sim
        .simulate_training(
            &space.decode(&outcome.best).build_graph(64, 128),
            &SystemConfig::training_pod(),
        )
        .time;
    round.best_sim_reward = reward.reward(config.quality_scale * -f64::from(logloss), &[sim_time]);

    if let Some(trace) = trace.as_mut() {
        trace.evaluate_us = perf_times.map_or(Vec::new(), |t| {
            std::mem::take(&mut *t.lock().expect("the executor has finished"))
        });
        // The perf model answers every candidate; nothing falls back.
        trace.served = round.candidates as u64;
        trace.batches_served = stats.produced;
        let (share, samples) = distinct("dlrm-oneshot", &outcome);
        trace.distinct_share = share;
        let decode_space = space.clone();
        trace.kernels = Some(KernelInputs {
            policy: outcome.policy.clone(),
            batch: last_batch(&outcome),
            policy_lr: config.policy_lr,
            samples,
            graph_of: Box::new(move |s| decode_space.decode(s).build_graph(64, 128)),
            perf_model: Some((model.clone(), featurizer.clone())),
            matmul: Some(supernet_top_layer(config.batch_size)),
            replay: None,
        });
    }
    round.trace = trace;
    round
}

/// `(batch, in, out)` of the tiny supernet's widest layer, the top tower's
/// first: it reads the bottom-tower slot plus every table's embedding slot,
/// each at its widest choice.
fn supernet_top_layer(batch: usize) -> (usize, usize, usize) {
    use h2o_nas::space::dlrm::choices::{EMB_WIDTH_DELTAS, MLP_WIDTH_DELTAS};
    let config = DlrmSpaceConfig::tiny();
    let widest_mlp = |base: usize| {
        (base as i32
            + MLP_WIDTH_DELTAS[MLP_WIDTH_DELTAS.len() - 1] * config.mlp_width_increment as i32)
            .max(8) as usize
    };
    let bottom = config
        .mlp_groups
        .iter()
        .filter(|g| g.bottom)
        .map(|g| widest_mlp(g.width))
        .next_back()
        .unwrap_or(config.dense_features);
    let embeddings: usize = config
        .tables
        .iter()
        .map(|t| {
            (t.width as i32
                + EMB_WIDTH_DELTAS[EMB_WIDTH_DELTAS.len() - 1] * config.emb_width_increment as i32)
                .max(8) as usize
        })
        .sum();
    let top = config
        .mlp_groups
        .iter()
        .find(|g| !g.bottom)
        .map_or(1, |g| widest_mlp(g.width));
    (batch, bottom + embeddings, top)
}

/// `vit-nodes2`: a `DistributedStage` over two spawned node-worker
/// processes, each serving the cached ViT evaluator.
fn remote(ctx: &Ctx) -> Round {
    let workload = Workload::VitNodes2;
    let config = controller(ctx.seed, workload);
    let reward = step_time_reward();
    let ((scenario, space, mut cluster, mut stage), setup_s) = timed_setup(|| {
        let scenario = EvalScenario::new(
            "vit",
            BackendSpec::Cached {
                capacity: CACHE_CAPACITY,
            },
        )
        .expect("the pinned scenario is valid");
        let space = scenario.space();
        let cluster = NodeCluster::spawn(NODES, &scenario).expect("node workers spawn");
        let pool = DistributedPool::connect(
            cluster.addrs(),
            scenario.fingerprint(),
            PoolOptions::default(),
        )
        .expect("node workers answer the handshake");
        let stage = TimedStage::new(DistributedStage::new(pool, &config), ctx.trace);
        (scenario, space, cluster, stage)
    });
    let (result, search_s, step_ms) = drive(&space, &reward, config, &mut stage, None);
    let live_nodes: usize = (0..NODES)
        .map(|n| {
            h2o_nas::obs::gauge(&format!("h2o_exec_node_live{{node=\"{n}\"}}")).value() as usize
        })
        .sum();
    let trace = ctx.trace.then(|| stage_trace(&stage, None, &step_ms));
    stage.inner.shutdown();
    cluster.shutdown();
    let mut round = Round {
        setup_s,
        search_s,
        step_ms,
        ..Round::default()
    };
    let Some(outcome) = round.record(config.steps, result) else {
        return round;
    };
    round.check("all nodes live at the end", live_nodes == NODES);
    round.best_sim_reward = sim_reward(&scenario, &reward, &outcome.best);
    if let Some(mut trace) = trace {
        trace.live_nodes_end = live_nodes;
        let wire_bytes: usize = outcome
            .evaluated
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let (step, shard) = ((i / SHARDS) as u64, (i % SHARDS) as u64);
                encode_eval_job(step, shard, &c.sample).len() + encode_eval_result(&c.result).len()
            })
            .sum();
        trace.wire_bytes_per_step = wire_bytes as f64 / config.steps as f64;
        let (share, samples) = distinct(scenario.domain.name(), &outcome);
        trace.distinct_share = share;
        trace.kernels = Some(KernelInputs {
            policy: outcome.policy.clone(),
            batch: last_batch(&outcome),
            policy_lr: config.policy_lr,
            samples,
            graph_of: graph_decoder(scenario.domain),
            perf_model: None,
            matmul: None,
            replay: Some((
                scenario,
                outcome.evaluated.iter().map(|c| c.sample.clone()).collect(),
            )),
        });
        round.trace = Some(trace);
    }
    round
}
