//! Shared scheduling helpers for the baseline iteration simulators.

use stronghold_model::config::ModelConfig;
use stronghold_model::layer::{build_layers, LayerSpec};
use stronghold_model::memory;
use stronghold_sim::{CostModel, FifoResource, Lane, Platform, SimTime, Timeline};

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

/// Schedules a plain compute-only FP+BP sweep on `compute`, recording into
/// `tl`. Returns the completion time of the last backward op.
pub fn schedule_fp_bp(
    layers: &[LayerSpec],
    cost: &CostModel,
    batch: usize,
    compute: &mut FifoResource,
    tl: &mut Timeline,
) -> SimTime {
    let mut end = SimTime::ZERO;
    for (i, l) in layers.iter().enumerate() {
        let (s, e) = compute.schedule(SimTime::ZERO, cost.layer_fp(l, batch));
        tl.record(Lane::Compute(0), format!("fp L{i}"), s, e);
        end = e;
    }
    for (i, l) in layers.iter().enumerate().rev() {
        let (s, e) = compute.schedule(SimTime::ZERO, cost.layer_bp(l, batch));
        tl.record(Lane::Compute(0), format!("bp L{i}"), s, e);
        end = e;
    }
    end
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;

    #[test]
    fn fp_bp_sweep_is_serial_sum() {
        let cfg = common_1_7b();
        let layers = layers_of(&cfg);
        let cost = CostModel::new(Platform::v100_server());
        let mut compute = FifoResource::new("c");
        let mut tl = Timeline::new();
        let end = schedule_fp_bp(&layers, &cost, cfg.batch, &mut compute, &mut tl);
        let manual: SimTime = layers.iter().fold(SimTime::ZERO, |a, l| {
            a + cost.layer_fp(l, cfg.batch) + cost.layer_bp(l, cfg.batch)
        });
        assert_eq!(end, manual);
        tl.assert_lanes_serialized();
    }

    #[test]
    fn residual_bytes_scale_with_batch() {
        let a = residual_gpu_bytes(&common_1_7b().with_batch(2));
        let b = residual_gpu_bytes(&common_1_7b().with_batch(8));
        assert!(b > 3 * a);
    }
}
