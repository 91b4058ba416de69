//! Shared helpers for the baseline plan builders.

use stronghold_model::config::ModelConfig;
use stronghold_model::layer::{build_layers, LayerSpec};
use stronghold_model::memory;
use stronghold_sim::{CostModel, Lane, Plan, Platform};

/// The layer list of a configuration (embedding + blocks + head).
pub fn layers_of(cfg: &ModelConfig) -> Vec<LayerSpec> {
    build_layers(cfg)
}

/// Total activation-checkpoint + peak-workspace residency every training
/// method pays on the GPU.
pub fn residual_gpu_bytes(cfg: &ModelConfig) -> u64 {
    memory::activation_checkpoint_bytes(cfg) + memory::peak_workspace_bytes(cfg)
}

/// Usable GPU bytes on a platform.
pub fn gpu_capacity(platform: &Platform) -> u64 {
    memory::usable_device_bytes(platform.gpu.mem_bytes)
}

/// Appends a plain compute-only FP+BP sweep on compute stream 0 to `plan`.
pub fn schedule_fp_bp(plan: &mut Plan, layers: &[LayerSpec], cost: &CostModel, batch: usize) {
    for (i, l) in layers.iter().enumerate() {
        plan.push(
            Lane::Compute(0),
            cost.layer_fp(l, batch),
            [],
            format!("fp L{i}"),
        );
    }
    for (i, l) in layers.iter().enumerate().rev() {
        plan.push(
            Lane::Compute(0),
            cost.layer_bp(l, batch),
            [],
            format!("bp L{i}"),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;
    use stronghold_sim::{price, SimTime};

    #[test]
    fn fp_bp_sweep_is_serial_sum() {
        let cfg = common_1_7b();
        let layers = layers_of(&cfg);
        let cost = CostModel::new(Platform::v100_server());
        let mut plan = Plan::new(1);
        schedule_fp_bp(&mut plan, &layers, &cost, cfg.batch);
        let manual: SimTime = layers.iter().fold(SimTime::ZERO, |a, l| {
            a + cost.layer_fp(l, cfg.batch) + cost.layer_bp(l, cfg.batch)
        });
        assert_eq!(price(&plan).makespan(), manual);
    }

    #[test]
    fn residual_bytes_scale_with_batch() {
        let a = residual_gpu_bytes(&common_1_7b().with_batch(2));
        let b = residual_gpu_bytes(&common_1_7b().with_batch(8));
        assert!(b > 3 * a);
    }
}
