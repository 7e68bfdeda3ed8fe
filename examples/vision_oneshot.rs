//! Cross-domain one-shot search: the same unified single-step algorithm
//! that searches DLRMs (the paper's novel case) drives a *vision
//! classifier* super-network through the generic `OneShotSupernet` trait —
//! width, depth and activation are searched while the shared weights train
//! on streaming data, under a parameter budget.
//!
//! ```text
//! cargo run --example vision_oneshot --release
//! ```

use h2o_nas::core::{
    OneShotConfig, PerfObjective, RewardFn, RewardKind, SearchDriver, UnifiedStage,
};
use h2o_nas::data::{InMemoryPipeline, TrafficSource, VisionTraffic};
use h2o_nas::space::{ArchSample, VisionSupernet, VisionSupernetConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(42);
    let mut net = VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng);
    println!(
        "vision super-network: {} decisions over width x depth x activation",
        net.space().num_decisions()
    );

    let pipeline = InMemoryPipeline::new(VisionTraffic::new(4, 16, 0.2, 1));
    let budget = 1200.0;
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("params", budget, -3.0)],
    );
    // The probe mutates on every call, so it lives behind a Mutex: the
    // perf stage fans out over the evaluation executor (`Fn + Sync`).
    let probe = std::sync::Mutex::new(VisionSupernet::new(VisionSupernetConfig::tiny(), &mut rng));
    let perf = move |sample: &ArchSample| {
        let mut probe = probe.lock().expect("probe poisoned");
        probe.apply_sample(sample);
        vec![probe.active_param_count() as f64]
    };
    let config = OneShotConfig {
        steps: 150,
        shards: 4,
        batch_size: 64,
        quality_scale: 5.0,
        ..Default::default()
    };
    let space = net.space().clone();
    let outcome = SearchDriver::new(&space, &reward, config.controller())
        .search(&mut UnifiedStage::new(&mut net, &pipeline, perf, &config));

    let stats = pipeline.stats();
    println!(
        "pipeline audit: {} batches, policy {} / weights {} (ordering enforced per batch)",
        stats.produced, stats.policy_used, stats.weights_used
    );

    net.apply_sample(&outcome.best);
    let mut eval = VisionTraffic::with_truth_seed(4, 16, 0.2, 1, 777);
    let batch = eval.next_batch(1024);
    let (ce, acc) = net.evaluate(&batch.features, &batch.labels);
    println!("\nfinal candidate (policy argmax): {:?}", outcome.best);
    println!(
        "  active params : {} (budget {budget})",
        net.active_param_count()
    );
    println!(
        "  eval accuracy : {:.1}% (cross-entropy {ce:.3})",
        acc * 100.0
    );
    println!(
        "  policy entropy: {:.3} -> {:.3} nats",
        outcome.history.first().map(|h| h.entropy).unwrap_or(0.0),
        outcome.history.last().map(|h| h.entropy).unwrap_or(0.0)
    );
}
