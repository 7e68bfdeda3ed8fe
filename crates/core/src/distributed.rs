//! The process-per-node candidate stage: [`ParallelStage`]'s fan-out,
//! stretched across a [`h2o_exec::DistributedPool`] of worker processes.
//!
//! The determinism contract survives the process boundary because the
//! *controller side* keeps everything that orders the search:
//!
//! * **Per-shard seed ownership** — the stage samples the policy locally,
//!   one RNG per `(seed, step, shard)` via [`shard_seed`], exactly as
//!   [`ParallelStage`](crate::ParallelStage) does. Workers never touch an
//!   RNG; they receive fully-sampled architectures.
//! * **Submission-order reduction** — job `i` carries index `i` on the
//!   wire and [`DistributedPool::execute`] merges replies by index, so the
//!   reward reduction sees shard order no matter which node answered
//!   first.
//! * **Stateless evaluation** — a worker maps `(step, shard, sample)` to
//!   an [`EvalResult`] as a pure function (caches on the worker are
//!   value-invisible memoisation), so node count, node placement, and
//!   reply timing cannot reach the outcome.
//!
//! `tests/distributed_determinism.rs` holds the proof: byte-identical
//! history/candidates/best CSVs at 1, 2, and 4 node processes, cache on
//! and off, including a resume from a mid-run checkpoint — and including
//! chaos runs where a node is killed mid-search. Node death is absorbed
//! below this layer: [`DistributedPool::execute`] redispatches a dead
//! node's unfinished jobs to survivors (optionally respawning the
//! worker), and because evaluation is a pure function of the job payload
//! the stage cannot observe where a job ran. Only pool exhaustion
//! (fewer live nodes than its configured floor) or a non-I/O protocol
//! error surfaces as the stage error.
//!
//! The wire payloads (inside [`h2o_exec`] Job/Result frames) use the same
//! `Enc`/`Dec` codec as the checkpoint file format:
//!
//! ```text
//! job    := u64 step | u64 shard | u64 n | n × u64 choice
//! result := f64 quality | u64 n | n × f64 perf_value
//! ```

use crate::driver::CandidateStage;
use crate::policy::Policy;
use crate::search::{shard_seed, EvalResult, SearchConfig};
use h2o_exec::wire::{Dec, Enc, WireError};
use h2o_exec::DistributedPool;
use h2o_space::ArchSample;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Encodes one shard's evaluation job payload (`step`, `shard`, and the
/// locally-sampled architecture) for a Job frame.
pub fn encode_eval_job(step: u64, shard: u64, sample: &ArchSample) -> Vec<u8> {
    let mut e = Enc::new();
    e.u64(step);
    e.u64(shard);
    e.u64(sample.len() as u64);
    for &choice in sample {
        e.u64(choice as u64);
    }
    e.into_vec()
}

/// Decodes an evaluation job payload back into `(step, shard, sample)`.
pub fn decode_eval_job(bytes: &[u8]) -> Result<(u64, u64, ArchSample), WireError> {
    let mut d = Dec::new(bytes);
    let step = d.u64()?;
    let shard = d.u64()?;
    let n = d.len("eval job choices")?;
    let mut sample = Vec::with_capacity(n);
    for _ in 0..n {
        sample.push(d.u64()? as usize);
    }
    d.finish()?;
    Ok((step, shard, sample))
}

/// Encodes one shard's [`EvalResult`] for a Result frame.
pub fn encode_eval_result(result: &EvalResult) -> Vec<u8> {
    let mut e = Enc::new();
    e.f64(result.quality);
    e.u64(result.perf_values.len() as u64);
    for &value in &result.perf_values {
        e.f64(value);
    }
    e.into_vec()
}

/// Decodes an evaluation result payload back into an [`EvalResult`].
pub fn decode_eval_result(bytes: &[u8]) -> Result<EvalResult, WireError> {
    let mut d = Dec::new(bytes);
    let quality = d.f64()?;
    let n = d.len("eval result perf values")?;
    let mut perf_values = Vec::with_capacity(n);
    for _ in 0..n {
        perf_values.push(d.f64()?);
    }
    d.finish()?;
    Ok(EvalResult {
        quality,
        perf_values,
    })
}

/// The [`CandidateStage`] of the multi-process search: policy sampling
/// stays local (per-shard seed ownership), evaluation fans out over worker
/// processes through a [`DistributedPool`], and replies merge in
/// submission order.
///
/// Node churn is handled inside the pool (redispatch + bounded respawn);
/// what reaches the stage error — and surfaces from the driver as
/// [`DriverError::Eval`](crate::DriverError::Eval) — is pool exhaustion
/// (live nodes below `PoolOptions::min_live_nodes`) or a fatal protocol
/// error (checksum mismatch, scenario skew, worker-reported failure).
/// The last on-disk checkpoint remains valid to resume from.
#[derive(Debug)]
pub struct DistributedStage {
    pool: DistributedPool,
    shards: usize,
    seed: u64,
}

impl DistributedStage {
    /// Builds the stage over an already-connected pool, taking `shards`
    /// and `seed` from the controller config.
    pub fn new(pool: DistributedPool, config: &SearchConfig) -> Self {
        Self {
            pool,
            shards: config.shards,
            seed: config.seed,
        }
    }

    /// Number of connected worker nodes.
    pub fn nodes(&self) -> usize {
        self.pool.nodes()
    }

    /// Sends every node a Shutdown frame, consuming the stage.
    pub fn shutdown(self) {
        self.pool.shutdown();
    }
}

impl CandidateStage for DistributedStage {
    fn step_span_name(&self) -> &'static str {
        "distributed_step"
    }

    fn steps_counter_name(&self) -> &'static str {
        "h2o_core_distributed_steps_total"
    }

    fn collect(
        &mut self,
        step: usize,
        policy: &Policy,
    ) -> Result<Vec<(ArchSample, EvalResult)>, String> {
        // Sampling happens here, on the controller, from the same
        // (seed, step, shard) streams ParallelStage uses — so the sample
        // sequence is identical to a single-process run by construction.
        let mut samples = Vec::with_capacity(self.shards);
        let mut jobs = Vec::with_capacity(self.shards);
        for shard in 0..self.shards {
            let mut rng = StdRng::seed_from_u64(shard_seed(self.seed, step as u64, shard as u64));
            let sample = policy.sample(&mut rng);
            jobs.push(encode_eval_job(step as u64, shard as u64, &sample));
            samples.push(sample);
        }
        let replies = self.pool.execute(jobs).map_err(|e| e.to_string())?;
        let mut results = Vec::with_capacity(self.shards);
        for (sample, reply) in samples.into_iter().zip(replies) {
            let result = decode_eval_result(&reply).map_err(|e| e.to_string())?;
            results.push((sample, result));
        }
        Ok(results)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reward::{PerfObjective, RewardFn, RewardKind};
    use crate::{ParallelStage, SearchDriver};
    use h2o_exec::{serve, NodeAddr, NodeListener, PoolOptions};
    use h2o_space::{Decision, SearchSpace};
    use std::path::PathBuf;
    use std::time::Duration;

    fn space() -> SearchSpace {
        let mut s = SearchSpace::new("dist");
        s.push(Decision::new("a", 4));
        s.push(Decision::new("b", 3));
        s
    }

    /// The pure per-shard evaluation both sides of the comparison use.
    fn evaluate(sample: &ArchSample) -> EvalResult {
        EvalResult {
            quality: sample[0] as f64 + 0.1 * sample[1] as f64,
            perf_values: vec![(sample[0] * sample[1]) as f64],
        }
    }

    fn temp_sock(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("h2o-core-dist-tests");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{tag}-{}.sock", std::process::id()))
    }

    fn spawn_worker(addr: NodeAddr, fingerprint: u64) -> std::thread::JoinHandle<()> {
        let listener = NodeListener::bind(&addr).expect("bind");
        std::thread::spawn(move || {
            let mut transport = listener.accept(Duration::from_secs(5)).expect("accept");
            serve(&mut transport, fingerprint, |payload| {
                let (_step, _shard, sample) =
                    decode_eval_job(payload).map_err(|e| e.to_string())?;
                Ok(encode_eval_result(&evaluate(&sample)))
            })
            .expect("serve");
        })
    }

    #[test]
    fn job_and_result_payloads_round_trip() {
        let sample: ArchSample = vec![3, 0, 7];
        let job = encode_eval_job(12, 5, &sample);
        assert_eq!(decode_eval_job(&job).unwrap(), (12, 5, sample.clone()));
        let result = EvalResult {
            quality: -0.25,
            perf_values: vec![1.5, 0.0, f64::MAX],
        };
        let encoded = encode_eval_result(&result);
        assert_eq!(decode_eval_result(&encoded).unwrap(), result);
    }

    #[test]
    fn truncated_payloads_decode_to_typed_errors() {
        let job = encode_eval_job(1, 2, &vec![3usize]);
        for cut in 0..job.len() {
            assert!(
                decode_eval_job(&job[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
        // Trailing garbage is rejected too.
        let mut padded = job.clone();
        padded.push(0);
        assert!(decode_eval_job(&padded).is_err());
    }

    #[test]
    fn distributed_outcome_matches_in_process_outcome() {
        let space = space();
        let reward = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("cost", 6.0, -2.0)],
        );
        let config = SearchConfig {
            steps: 25,
            shards: 4,
            seed: 9,
            ..Default::default()
        };
        let golden = SearchDriver::new(&space, &reward, config)
            .search(&mut ParallelStage::new(|_shard| evaluate, &config));

        for nodes in [1usize, 3] {
            let fingerprint = 0xD15C0;
            let addrs: Vec<NodeAddr> = (0..nodes)
                .map(|i| NodeAddr::Unix(temp_sock(&format!("match-{nodes}-{i}"))))
                .collect();
            let handles: Vec<_> = addrs
                .iter()
                .map(|a| spawn_worker(a.clone(), fingerprint))
                .collect();
            let pool = DistributedPool::connect(&addrs, fingerprint, PoolOptions::default())
                .expect("connect");
            let mut stage = DistributedStage::new(pool, &config);
            let outcome = SearchDriver::new(&space, &reward, config)
                .run(&mut stage, None, None)
                .expect("distributed run");
            stage.shutdown();
            for handle in handles {
                handle.join().expect("worker thread");
            }
            assert_eq!(outcome.best, golden.best, "{nodes} nodes: best diverged");
            assert_eq!(
                outcome.evaluated, golden.evaluated,
                "{nodes} nodes: candidates diverged"
            );
            for (a, b) in outcome.history.iter().zip(&golden.history) {
                assert_eq!(a.step, b.step);
                assert_eq!(a.mean_reward, b.mean_reward, "step {}", a.step);
                assert_eq!(a.best_reward, b.best_reward, "step {}", a.step);
                assert_eq!(a.entropy, b.entropy, "step {}", a.step);
            }
        }
    }

    #[test]
    fn dead_node_surfaces_as_driver_eval_error() {
        let space = space();
        let reward = RewardFn::new(
            RewardKind::Relu,
            vec![PerfObjective::new("cost", 6.0, -2.0)],
        );
        let config = SearchConfig {
            steps: 10,
            shards: 2,
            seed: 3,
            ..Default::default()
        };
        let fingerprint = 0xDEAD;
        let addr = NodeAddr::Unix(temp_sock("dying"));
        let listener = NodeListener::bind(&addr).expect("bind");
        // A worker that answers a few jobs, then hangs up mid-run.
        let handle = std::thread::spawn(move || {
            let mut transport = listener.accept(Duration::from_secs(5)).expect("accept");
            let mut served = 0;
            let _ = serve(&mut transport, fingerprint, move |payload| {
                served += 1;
                if served > 5 {
                    return Err("simulated node death".to_string());
                }
                let (_, _, sample) = decode_eval_job(payload).map_err(|e| e.to_string())?;
                Ok(encode_eval_result(&evaluate(&sample)))
            });
        });
        let pool = DistributedPool::connect(
            std::slice::from_ref(&addr),
            fingerprint,
            PoolOptions::default(),
        )
        .expect("connect");
        let mut stage = DistributedStage::new(pool, &config);
        let err = SearchDriver::new(&space, &reward, config)
            .run(&mut stage, None, None)
            .expect_err("the worker dies mid-run");
        match err {
            crate::DriverError::Eval { message, .. } => {
                assert!(message.contains("simulated node death"), "{message}");
            }
            other => panic!("expected Eval error, got {other:?}"),
        }
        drop(stage);
        handle.join().expect("worker thread");
    }
}
