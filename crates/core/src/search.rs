//! The massively parallel single-step search (§4.2, Fig. 2 right) as a
//! [`CandidateStage`] over the unified [`SearchDriver`](crate::SearchDriver) engine.
//!
//! Each step, every virtual accelerator shard (1) samples its own
//! architecture `αᵢ` from the shared policy `π` and evaluates its quality
//! and performance, (2) all shards' rewards drive one **cross-shard
//! REINFORCE update** of `π` (the driver's invariant loop), and (3) shared
//! weights `W` are updated on the same batches (for evaluators that train —
//! see `crate::oneshot`). Shards run on a work-stealing
//! [`h2o_exec::Executor`] pool standing in for the paper's hundreds of TPU
//! cores. Each shard's job owns its RNG (seeded from `seed`, `step`,
//! `shard`) and results reduce in submission order, so the outcome is
//! bit-identical for any worker count.

use crate::driver::{CandidateStage, ControllerConfig};
use crate::policy::Policy;
use h2o_space::ArchSample;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

/// SplitMix64 finalizer: a full-avalanche bijection on `u64` (Steele et
/// al.), the same mixer `h2o_hwsim`'s cache uses for shard routing.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives the RNG seed that owns the `(seed, step, shard)` sample stream.
///
/// Each coordinate passes through a SplitMix64 finalizer before the next is
/// folded in, so distinct tuples get statistically independent streams.
/// The previous XOR mix (`seed ^ (step << 20) ^ shard`) made whole streams
/// collide across `(seed, shard)` pairs — e.g. `seed=3, shard=0` and
/// `seed=2, shard=1` drew identical architectures every step.
pub fn shard_seed(seed: u64, step: u64, shard: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed).wrapping_add(step)).wrapping_add(shard))
}

/// Quality and measured performance of one evaluated candidate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalResult {
    /// Quality `Q(α)` (accuracy / AUC / −logloss, higher better).
    pub quality: f64,
    /// One measured value per reward objective, `Tᵢ(α)`.
    pub perf_values: Vec<f64>,
}

/// Evaluates candidates on one shard. Implementations may be stateful
/// (e.g. hold a simulator, a performance model, or a trainable supernet
/// shard).
pub trait ArchEvaluator {
    /// Produces the quality and performance signals for a sampled
    /// architecture.
    fn evaluate(&mut self, sample: &ArchSample) -> EvalResult;
}

impl<F> ArchEvaluator for F
where
    F: FnMut(&ArchSample) -> EvalResult,
{
    fn evaluate(&mut self, sample: &ArchSample) -> EvalResult {
        self(sample)
    }
}

/// Configuration of the parallel search loop.
///
/// The parallel loop needs exactly the shared controller knobs, so this is
/// [`ControllerConfig`] itself (struct literals, serde encodings, and the
/// `h2o-ckpt` fingerprint are all unchanged by the aliasing).
pub type SearchConfig = ControllerConfig;

/// Per-step telemetry.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StepRecord {
    /// Step index.
    pub step: usize,
    /// Mean shard reward.
    pub mean_reward: f64,
    /// Best shard reward.
    pub best_reward: f64,
    /// Mean per-decision policy entropy (nats).
    pub entropy: f64,
    /// Wall-clock duration of the step, milliseconds.
    pub step_time_ms: f64,
}

/// One evaluated candidate with its reward.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvaluatedCandidate {
    /// The sampled architecture.
    pub sample: ArchSample,
    /// Its evaluation.
    pub result: EvalResult,
    /// The combined reward.
    pub reward: f64,
}

/// The result of a search run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SearchOutcome {
    /// The final architecture: per-decision argmax of the policy (§4.2).
    pub best: ArchSample,
    /// The trained policy.
    pub policy: Policy,
    /// Step telemetry.
    pub history: Vec<StepRecord>,
    /// Every candidate evaluated during the search.
    pub evaluated: Vec<EvaluatedCandidate>,
}

impl SearchOutcome {
    /// The evaluated candidate with the highest reward.
    ///
    /// Uses [`f64::total_cmp`], so a NaN reward (impossible through the
    /// driver, which clamps non-finite rewards, but reachable in
    /// hand-constructed outcomes) can never panic the comparison — NaN
    /// sorts above every finite reward under the IEEE total order and
    /// would surface as the maximum rather than abort the caller.
    pub fn best_evaluated(&self) -> Option<&EvaluatedCandidate> {
        self.evaluated
            .iter()
            .max_by(|a, b| a.reward.total_cmp(&b.reward))
    }
}

/// The [`CandidateStage`] of the massively parallel search: one stateless
/// (from the driver's point of view) evaluator per shard, fanned out on a
/// work-stealing executor pool.
///
/// Evaluator construction happens once per shard; evaluators persist
/// across steps (so stateful evaluators amortise setup and can train
/// shard-local state). Shard `i` always runs job `i` with its own RNG
/// seeded from [`shard_seed`]`(seed, step, i)` and the executor reduces in
/// submission order, so the stealing schedule cannot leak into the
/// outcome.
pub struct ParallelStage<E> {
    evaluators: Vec<E>,
    shard_evals: Vec<h2o_obs::Counter>,
    executor: h2o_exec::Executor,
    seed: u64,
}

impl<E> fmt::Debug for ParallelStage<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ParallelStage")
            .field("shards", &self.evaluators.len())
            .field("workers", &self.executor.workers())
            .field("seed", &self.seed)
            .finish()
    }
}

impl<E> ParallelStage<E>
where
    E: ArchEvaluator + Send,
{
    /// Builds the stage: one evaluator per shard from
    /// `make_evaluator(shard_index)`, plus the executor pool sized from
    /// `config.workers`.
    pub fn new<F>(mut make_evaluator: F, config: &SearchConfig) -> Self
    where
        F: FnMut(usize) -> E,
    {
        let evaluators: Vec<E> = (0..config.shards).map(&mut make_evaluator).collect();
        let executor = h2o_exec::Executor::from_env(config.workers, config.shards);
        // Per-shard counters, resolved once: the registry lookup (and its
        // format!-ed label) has no business inside the per-evaluation hot
        // path.
        let shard_evals: Vec<h2o_obs::Counter> = (0..config.shards)
            .map(|shard| h2o_obs::counter(&format!("h2o_core_shard_evals{{shard=\"{shard}\"}}")))
            .collect();
        Self {
            evaluators,
            shard_evals,
            executor,
            seed: config.seed,
        }
    }
}

impl<E> CandidateStage for ParallelStage<E>
where
    E: ArchEvaluator + Send,
{
    fn steps_counter_name(&self) -> &'static str {
        "h2o_core_search_steps_total"
    }

    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        // Every shard samples and evaluates its own candidate on the
        // work-stealing pool (Fig. 2's per-core sample + forward pass).
        let seed = self.seed;
        let jobs: Vec<_> = self
            .evaluators
            .iter_mut()
            .zip(&self.shard_evals)
            .enumerate()
            .map(|(shard, (evaluator, evals_counter))| {
                move || {
                    // Per-shard counters: each worker records under the
                    // shard's label; exporters aggregate the set.
                    let _eval_span = h2o_obs::span("shard_evaluate");
                    evals_counter.inc();
                    let mut rng =
                        StdRng::seed_from_u64(shard_seed(seed, step as u64, shard as u64));
                    let sample = policy.sample(&mut rng);
                    let result = evaluator.evaluate(&sample);
                    (sample, result)
                }
            })
            .collect();
        Ok(self.executor.execute(jobs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::SearchDriver;
    use crate::reward::{PerfObjective, RewardFn, RewardKind};
    use h2o_space::{Decision, SearchSpace};

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("t");
        s.push(Decision::new("width", 8));
        s.push(Decision::new("depth", 4));
        s
    }

    /// Quality grows with width; cost grows faster beyond width 5.
    fn toy_evaluator(_shard: usize) -> impl ArchEvaluator + Send {
        |sample: &ArchSample| {
            let width = sample[0] as f64;
            let depth = sample[1] as f64;
            EvalResult {
                quality: 10.0 * (1.0 - (-0.5 * (width + depth)).exp()),
                perf_values: vec![0.5 + 0.25 * width],
            }
        }
    }

    fn reward() -> RewardFn {
        RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("time", 1.5, -8.0)],
        )
    }

    /// The parallel search over [`space`] with per-shard evaluators from
    /// `make_evaluator`.
    fn run_search<E: ArchEvaluator + Send>(
        reward: &RewardFn,
        make_evaluator: impl FnMut(usize) -> E,
        cfg: &SearchConfig,
    ) -> SearchOutcome {
        SearchDriver::new(&space(), reward, *cfg)
            .search(&mut ParallelStage::new(make_evaluator, cfg))
    }

    #[test]
    fn search_finds_pareto_sweet_spot() {
        let cfg = SearchConfig {
            steps: 300,
            shards: 8,
            policy_lr: 0.08,
            ..Default::default()
        };
        let outcome = run_search(&reward(), toy_evaluator, &cfg);
        // Width 4 hits the time target exactly (0.5 + 0.25*4 = 1.5); higher
        // widths get penalised at β = −8 per unit deviation. Depth is free,
        // so it should max out.
        assert!(
            outcome.best[0] >= 3 && outcome.best[0] <= 5,
            "width {:?}",
            outcome.best
        );
        assert_eq!(outcome.best[1], 3, "free quality dimension must max out");
    }

    #[test]
    fn entropy_decreases_over_search() {
        let cfg = SearchConfig {
            steps: 150,
            shards: 4,
            ..Default::default()
        };
        let outcome = run_search(&reward(), toy_evaluator, &cfg);
        let first = outcome.history.first().unwrap().entropy;
        let last = outcome.history.last().unwrap().entropy;
        assert!(last < first, "entropy {first} -> {last}");
    }

    #[test]
    fn all_candidates_recorded() {
        let cfg = SearchConfig {
            steps: 10,
            shards: 3,
            ..Default::default()
        };
        let outcome = run_search(&reward(), toy_evaluator, &cfg);
        assert_eq!(outcome.evaluated.len(), 30);
        assert!(outcome.best_evaluated().is_some());
    }

    #[test]
    fn search_is_deterministic_for_fixed_seed() {
        let cfg = SearchConfig {
            steps: 20,
            shards: 4,
            seed: 42,
            ..Default::default()
        };
        let a = run_search(&reward(), toy_evaluator, &cfg);
        let b = run_search(&reward(), toy_evaluator, &cfg);
        assert_eq!(a.best, b.best);
        assert_eq!(
            a.history.last().unwrap().mean_reward,
            b.history.last().unwrap().mean_reward
        );
    }

    #[test]
    fn different_seeds_explore_differently() {
        let cfg = SearchConfig {
            steps: 5,
            shards: 2,
            seed: 1,
            ..Default::default()
        };
        let a = run_search(&reward(), toy_evaluator, &cfg);
        let cfg2 = SearchConfig { seed: 2, ..cfg };
        let b = run_search(&reward(), toy_evaluator, &cfg2);
        assert_ne!(
            a.evaluated.iter().map(|e| &e.sample).collect::<Vec<_>>(),
            b.evaluated.iter().map(|e| &e.sample).collect::<Vec<_>>()
        );
    }

    #[test]
    fn worker_count_does_not_change_the_outcome() {
        let base = SearchConfig {
            steps: 25,
            shards: 6,
            seed: 9,
            ..Default::default()
        };
        let serial = SearchConfig { workers: 1, ..base };
        let wide = SearchConfig { workers: 4, ..base };
        let a = run_search(&reward(), toy_evaluator, &serial);
        let b = run_search(&reward(), toy_evaluator, &wide);
        assert_eq!(a.best, b.best);
        // Everything except wall-clock timing must be bit-identical.
        assert_eq!(a.evaluated, b.evaluated);
        for (ha, hb) in a.history.iter().zip(&b.history) {
            assert_eq!(ha.mean_reward, hb.mean_reward);
            assert_eq!(ha.best_reward, hb.best_reward);
            assert_eq!(ha.entropy, hb.entropy);
        }
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_panics() {
        let cfg = SearchConfig {
            shards: 0,
            ..Default::default()
        };
        run_search(&reward(), toy_evaluator, &cfg);
    }

    #[test]
    fn more_shards_same_steps_converges_at_least_as_well() {
        let narrow = SearchConfig {
            steps: 120,
            shards: 2,
            seed: 7,
            ..Default::default()
        };
        let wide = SearchConfig {
            steps: 120,
            shards: 16,
            seed: 7,
            ..Default::default()
        };
        let a = run_search(&reward(), toy_evaluator, &narrow);
        let b = run_search(&reward(), toy_evaluator, &wide);
        let final_of = |o: &SearchOutcome| o.history.last().unwrap().mean_reward;
        assert!(
            final_of(&b) >= final_of(&a) - 0.5,
            "{} vs {}",
            final_of(&a),
            final_of(&b)
        );
    }

    #[test]
    fn nan_evaluator_rewards_are_clamped_not_propagated() {
        // Regression: a NaN from a custom evaluator used to flow straight
        // into the baseline EMA and poison every later advantage, and
        // `best_evaluated` would then panic in `partial_cmp`.
        let nan_evaluator = |_shard: usize| {
            |sample: &ArchSample| EvalResult {
                quality: if sample[0].is_multiple_of(2) {
                    f64::NAN
                } else {
                    sample[0] as f64
                },
                perf_values: vec![],
            }
        };
        let cfg = SearchConfig {
            steps: 15,
            shards: 4,
            seed: 3,
            ..Default::default()
        };
        let reward = RewardFn::new(RewardKind::Relu, vec![]);
        let outcome = run_search(&reward, nan_evaluator, &cfg);
        assert!(outcome.history.iter().all(|h| h.mean_reward.is_finite()));
        assert!(outcome.evaluated.iter().all(|c| c.reward.is_finite()));
        let best = outcome.best_evaluated().expect("candidates recorded");
        assert!(best.reward.is_finite());
    }

    #[test]
    fn best_evaluated_tolerates_nan_rewards_in_hand_built_outcomes() {
        let candidate = |reward: f64| EvaluatedCandidate {
            sample: vec![0],
            result: EvalResult {
                quality: 0.0,
                perf_values: vec![],
            },
            reward,
        };
        let outcome = SearchOutcome {
            best: vec![0],
            policy: Policy::from_logits(vec![vec![0.0]]),
            history: vec![],
            evaluated: vec![candidate(1.0), candidate(f64::NAN), candidate(2.0)],
        };
        // total_cmp sorts NaN above every finite value; the call must not
        // panic (it used to, via partial_cmp().expect()).
        let best = outcome.best_evaluated().expect("non-empty");
        assert!(best.reward.is_nan());
    }
}
