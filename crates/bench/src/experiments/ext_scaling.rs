//! "Design for Scale" (§3, §4.2) — parallel-shard scaling of the search.
//!
//! The paper's controller runs on hundreds of accelerators, each sampling
//! its own candidate, with one cross-shard policy update per step. More
//! shards means more reward signal per update: the policy should converge
//! in *fewer steps* (≈ wall-clock on real pods, where shards are parallel
//! hardware). This bench sweeps the shard count at a fixed per-step budget
//! and reports steps-to-threshold.

use crate::report::{env_usize, Table};
use h2o_core::{
    EvalResult, ParallelStage, PerfObjective, RewardFn, RewardKind, SearchConfig, SearchDriver,
};
use h2o_hwsim::{HardwareConfig, Simulator, SystemConfig};
use h2o_models::quality::{DatasetScale, VisionQualityModel};
use h2o_space::{ArchSample, CnnSpace, CnnSpaceConfig};

fn evaluator() -> impl FnMut(&ArchSample) -> EvalResult + Send {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let sim = Simulator::new(HardwareConfig::tpu_v4());
    let quality = VisionQualityModel::new(DatasetScale::Medium);
    move |sample: &ArchSample| {
        let arch = space.decode(sample);
        let graph = arch.build_graph(64);
        EvalResult {
            quality: quality.accuracy_of_cnn(&arch, graph.param_count() / 1e6),
            perf_values: vec![
                sim.simulate_training(&graph, &SystemConfig::training_pod())
                    .time,
            ],
        }
    }
}

/// Runs the search at a shard count; returns `(steps_to_threshold,
/// final_mean_reward)` where the threshold is a fixed mean reward.
pub fn scaling_point(shards: usize, steps: usize, threshold: f64) -> (Option<usize>, f64) {
    let space = CnnSpace::new(CnnSpaceConfig::default());
    let reward = RewardFn::new(
        RewardKind::Relu,
        vec![PerfObjective::new("step", 0.10, -10.0)],
    );
    let cfg = SearchConfig {
        steps,
        shards,
        policy_lr: 0.06,
        baseline_momentum: 0.9,
        seed: 55,
        workers: 0,
    };
    let outcome = SearchDriver::new(space.space(), &reward, cfg)
        .search(&mut ParallelStage::new(|_| evaluator(), &cfg));
    let hit = outcome
        .history
        .iter()
        .find(|h| h.mean_reward >= threshold)
        .map(|h| h.step);
    (
        hit,
        outcome
            .history
            .last()
            .map(|h| h.mean_reward)
            .unwrap_or(f64::NEG_INFINITY),
    )
}

/// Runs the experiment and renders the report.
pub fn run() -> String {
    let steps = env_usize("H2O_EXT_SCALE_STEPS", 120);
    let threshold = 93.0;
    let mut table = Table::new(
        "Extension (§4.2 scale): cross-shard parallelism vs convergence",
        &["shards", "steps to mean reward ≥ 93", "final mean reward"],
    );
    for shards in [1usize, 4, 16] {
        let (hit, final_reward) = scaling_point(shards, steps, threshold);
        table.row(&[
            shards.to_string(),
            hit.map(|s| s.to_string())
                .unwrap_or_else(|| format!("not in {steps}")),
            format!("{final_reward:.2}"),
        ]);
    }
    let mut out = table.render();
    out.push_str(
        "\nReading: each step is one cross-shard policy update (one wall-clock round on a\n\
         pod). More parallel shards per update means fewer rounds to the same reward —\n\
         the property that lets H2O-NAS exploit hundreds of accelerators (§4.2).\n",
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn more_shards_converge_in_fewer_or_equal_steps() {
        let (hit_1, final_1) = scaling_point(2, 80, 93.0);
        let (hit_16, final_16) = scaling_point(16, 80, 93.0);
        match (hit_1, hit_16) {
            (Some(a), Some(b)) => assert!(b <= a + 5, "16 shards {b} vs 2 shards {a}"),
            (None, Some(_)) => {} // wide converged, narrow did not: fine
            (None, None) => {
                assert!(final_16 >= final_1 - 0.5, "{final_16} vs {final_1}")
            }
            (Some(_), None) => panic!("16 shards must not converge slower than 2"),
        }
    }
}
