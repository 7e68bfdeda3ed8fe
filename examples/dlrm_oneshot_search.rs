//! The paper's headline workload: one-shot NAS for a DLRM with a *real*
//! weight-sharing super-network trained on streaming (synthetic) production
//! traffic.
//!
//! Demonstrates the full §4 pipeline: the in-memory use-once data stream,
//! the unified single-step algorithm (α learns on fresh data before W
//! trains on it — enforced by the pipeline), the hybrid-sharing DLRM
//! super-network of Fig. 3, and the ReLU multi-objective reward over model
//! size.
//!
//! ```text
//! cargo run --example dlrm_oneshot_search --release
//! ```

use h2o_nas::core::{
    OneShotConfig, PerfObjective, RewardFn, RewardKind, SearchDriver, UnifiedStage,
};
use h2o_nas::data::{CtrTraffic, CtrTrafficConfig, InMemoryPipeline, TrafficSource};
use h2o_nas::space::{ArchSample, DlrmSpaceConfig, DlrmSupernet};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let mut rng = StdRng::seed_from_u64(7);
    let mut supernet = DlrmSupernet::new(DlrmSpaceConfig::tiny(), 0.05, &mut rng);
    let space = supernet.space().clone();
    println!(
        "DLRM super-network over {} decisions (O(10^{:.0}) candidates)",
        space.space().num_decisions(),
        space.space().log10_size()
    );

    // Production traffic: Zipf-distributed sparse ids with a planted CTR
    // ground truth; every batch is fresh (use-once).
    let pipeline = InMemoryPipeline::new(CtrTraffic::new(CtrTrafficConfig::tiny(), 99));

    // Objective: neutral model size (serving-memory guard), quality first.
    let baseline_size = space.decode(&space.baseline()).model_size_bytes();
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("model_size", baseline_size, -4.0)],
    );
    let size_space = space.clone();
    let perf = move |sample: &ArchSample| vec![size_space.decode(sample).model_size_bytes()];

    let config = OneShotConfig {
        steps: 120,
        shards: 4,
        batch_size: 64,
        ..Default::default()
    };
    let outcome = SearchDriver::new(space.space(), &reward, config.controller()).search(
        &mut UnifiedStage::new(&mut supernet, &pipeline, perf, &config),
    );

    let stats = pipeline.stats();
    println!(
        "\npipeline audit: {} batches produced, {} policy-consumed, {} weight-consumed, {} in flight",
        stats.produced, stats.policy_used, stats.weights_used, pipeline.in_flight()
    );
    println!(
        "reward trace: {:.3} (early) -> {:.3} (late)",
        outcome.history[..10]
            .iter()
            .map(|h| h.mean_reward)
            .sum::<f64>()
            / 10.0,
        outcome.history[outcome.history.len() - 10..]
            .iter()
            .map(|h| h.mean_reward)
            .sum::<f64>()
            / 10.0
    );

    // Evaluate the final architecture on fresh traffic.
    let best = outcome.best;
    let arch = space.decode(&best);
    supernet.apply_sample(&best);
    let mut eval_stream = CtrTraffic::new(CtrTrafficConfig::tiny(), 1234);
    let mut auc = 0.0;
    for _ in 0..8 {
        let batch = eval_stream.next_batch(256);
        auc += supernet.evaluate(&batch).1;
    }
    println!("\nfinal architecture (policy argmax):");
    for (t, table) in arch.tables.iter().enumerate() {
        println!("  table {t}: vocab {} width {}", table.vocab, table.width);
    }
    for (g, group) in arch.mlp_groups.iter().enumerate() {
        println!(
            "  mlp group {g} ({}): {} x {} rank {:.1}",
            if group.bottom { "bottom" } else { "top" },
            group.depth,
            group.width,
            group.low_rank
        );
    }
    println!(
        "  model size: {:.1} KB (baseline {:.1} KB)",
        arch.model_size_bytes() / 1e3,
        baseline_size / 1e3
    );
    println!("  eval AUC on fresh traffic: {:.4}", auc / 8.0);
}
