//! Direct kernel calls at a workload's own shapes: softmax sampling,
//! REINFORCE, the simulator walk, MLP inference and matmul.

use crate::layers::{timed_call, CallTimes};
use crate::stats;
use h2o_nas::core::Policy;
use h2o_nas::eval::EvalScenario;
use h2o_nas::graph::Graph;
use h2o_nas::hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_nas::perfmodel::{Featurizer, PerfModel};
use h2o_nas::space::ArchSample;
use h2o_nas::tensor::Matrix;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Batches per kernel; the reported time is the median batch mean.
const BATCHES: usize = 5;
/// Target wall time of one batch.
const BATCH_TIME: Duration = Duration::from_millis(20);

/// What a traced round leaves for the kernel measurements.
pub struct KernelInputs {
    /// The final policy.
    pub policy: Policy,
    /// The last step's candidates with their advantages.
    pub batch: Vec<(ArchSample, f64)>,
    pub policy_lr: f64,
    /// Distinct candidates of the round, for the simulator walk and
    /// inference.
    pub samples: Vec<ArchSample>,
    /// Decodes a candidate into the graph its evaluator simulates.
    pub graph_of: Box<dyn Fn(&ArchSample) -> Graph>,
    /// The performance model that served candidates, if any.
    pub perf_model: Option<(PerfModel, Featurizer)>,
    /// `(m, k, n)` of the workload's widest matmul, if it runs one.
    pub matmul: Option<(usize, usize, usize)>,
    /// Remote workloads: the scenario and every candidate in order, to
    /// replay evaluation in process.
    pub replay: Option<(EvalScenario, Vec<ArchSample>)>,
}

/// Kernel timings of one workload.
#[derive(Debug, Default)]
pub struct KernelTimes {
    pub sample_us: f64,
    pub reinforce_us: f64,
    pub simulate_us: f64,
    pub infer_us: f64,
    pub matmul_gflops: f64,
    /// Median in-process evaluate time of the replayed candidates.
    pub replay_evaluate_us: Option<f64>,
}

/// Mean microseconds per call of `f`: the median over [`BATCHES`] batches
/// sized from a short calibration to take about [`BATCH_TIME`] each.
fn per_call_us(mut f: impl FnMut()) -> f64 {
    let calibrate = BATCH_TIME / 4;
    let start = Instant::now();
    let mut calls = 0u32;
    while calls == 0 || start.elapsed() < calibrate {
        f();
        calls += 1;
    }
    let per_batch = (f64::from(calls) * 4.0).ceil() as u32;
    let means: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..per_batch {
                f();
            }
            start.elapsed().as_secs_f64() * 1e6 / f64::from(per_batch)
        })
        .collect();
    stats::median(&means)
}

pub fn measure(inputs: &KernelInputs) -> KernelTimes {
    let mut rng = StdRng::seed_from_u64(0);
    let sample_us = per_call_us(|| {
        black_box(inputs.policy.sample(&mut rng));
    });

    let mut policy = inputs.policy.clone();
    let reinforce_us = per_call_us(|| {
        policy.reinforce_update(black_box(&inputs.batch), inputs.policy_lr);
    }) / inputs.batch.len().max(1) as f64;

    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let pod = SystemConfig::training_pod();
    let mut next = 0usize;
    let simulate_us = per_call_us(|| {
        let sample = &inputs.samples[next % inputs.samples.len()];
        next += 1;
        black_box(sim.simulate_training(&(inputs.graph_of)(sample), &pod));
    });

    let infer_us = inputs
        .perf_model
        .as_ref()
        .map_or(0.0, |(model, featurizer)| {
            let features: Vec<Vec<f32>> = inputs
                .samples
                .iter()
                .map(|s| featurizer.featurize(s))
                .collect();
            let mut next = 0usize;
            per_call_us(|| {
                black_box(model.infer_one(&features[next % features.len()]));
                next += 1;
            })
        });

    let matmul_gflops = inputs.matmul.map_or(0.0, |(m, k, n)| {
        let a = Matrix::from_fn(m, k, |r, c| ((r * 7 + c * 3) % 11) as f32 * 0.1);
        let b = Matrix::from_fn(k, n, |r, c| ((r * 5 + c) % 13) as f32 * 0.1);
        let us = per_call_us(|| {
            black_box(black_box(&a).matmul(black_box(&b)));
        });
        2.0 * (m * k * n) as f64 / (us * 1e3)
    });

    let replay_evaluate_us = inputs.replay.as_ref().map(|(scenario, samples)| {
        let backend = scenario.backend().expect("the run's backend builds again");
        let mut evaluate = scenario.shard_evaluator(&backend);
        let times = CallTimes::default();
        for sample in samples {
            black_box(timed_call(Some(&times), || evaluate(sample)));
        }
        let times = times.lock().expect("single-threaded replay");
        stats::median(&times)
    });

    KernelTimes {
        sample_us,
        reinforce_us,
        simulate_us,
        infer_us,
        matmul_gflops,
        replay_evaluate_us,
    }
}
