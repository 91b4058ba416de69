//! Warm-up profiling (§III-B).
//!
//! During the first few training iterations STRONGHOLD measures, per layer:
//! GPU compute time for FP and BP, CPU↔GPU transfer times for the layer's
//! model state, and optimizer update times. The [`analytic`](crate::analytic)
//! window solver consumes this profile. Here the "measurement" prices the
//! warm-up iterations through the simulator's cost model — exactly what a
//! real profiler would observe on the simulated platform. The functional
//! substrate takes its window from `HostOffloadConfig` (or from the solver
//! fed this profile and the backend's `arena_usage` curve); it has no
//! wall-clock profiling pass of its own.

use stronghold_model::layer::LayerSpec;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{CostModel, SimTime};

/// Per-layer timing and sizing profile collected during warm-up.
#[derive(Clone, Debug)]
pub struct LayerProfile {
    /// Forward compute time per layer.
    pub t_fp: Vec<SimTime>,
    /// Backward compute time per layer (includes checkpoint recompute).
    pub t_bp: Vec<SimTime>,
    /// CPU→GPU transfer time of the layer's FP state (parameters [+ saved
    /// input during BP prefetch]).
    pub t_c2g: Vec<SimTime>,
    /// GPU→CPU transfer time of the layer's BP state (parameters+gradients).
    pub t_g2c: Vec<SimTime>,
    /// Bytes resident per layer during FP (the `s_fp` of P1).
    pub s_fp: Vec<u64>,
    /// Bytes resident per layer during BP (the `s_bp` of P2).
    pub s_bp: Vec<u64>,
    /// On-GPU optimizer step time per layer.
    pub t_opt_gpu: Vec<SimTime>,
    /// CPU optimizer step time per layer (one pool worker).
    pub t_opt_cpu: Vec<SimTime>,
    /// Asynchronous call overhead (`t_async`).
    pub t_async: SimTime,
}

impl LayerProfile {
    /// Number of layers profiled.
    pub fn len(&self) -> usize {
        self.t_fp.len()
    }

    /// True if the profile is empty.
    pub fn is_empty(&self) -> bool {
        self.t_fp.is_empty()
    }

    /// Builds the profile the warm-up phase would observe on the simulator:
    /// per-layer costs priced by the platform cost model at `batch`.
    ///
    /// Only offloadable layers are profiled (the runtime pins the first and
    /// last layers — embedding and head — in device memory, Fig. 3), but the
    /// vectors cover all layers so indices line up with the layer list.
    pub fn from_cost_model(layers: &[LayerSpec], cost: &CostModel, batch: usize) -> Self {
        let act = |l: &LayerSpec| l.act_checkpoint_bytes * batch as u64;
        LayerProfile {
            t_fp: layers.iter().map(|l| cost.layer_fp(l, batch)).collect(),
            t_bp: layers.iter().map(|l| cost.layer_bp(l, batch)).collect(),
            t_c2g: layers
                .iter()
                .map(|l| cost.h2d(l.param_bytes() + act(l), CopyKind::PinnedBulk))
                .collect(),
            t_g2c: layers
                .iter()
                .map(|l| cost.d2h(l.bp_state_bytes() + act(l), CopyKind::PinnedBulk))
                .collect(),
            s_fp: layers.iter().map(|l| l.param_bytes() + act(l)).collect(),
            s_bp: layers.iter().map(|l| l.bp_state_bytes() + act(l)).collect(),
            t_opt_gpu: layers.iter().map(|l| cost.gpu_optim(l)).collect(),
            t_opt_cpu: layers.iter().map(|l| cost.cpu_optim(l)).collect(),
            t_async: cost.t_async(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;
    use stronghold_model::layer::build_layers;
    use stronghold_sim::Platform;

    fn profile() -> LayerProfile {
        let cfg = common_1_7b();
        let layers = build_layers(&cfg);
        let cost = CostModel::new(Platform::v100_server());
        LayerProfile::from_cost_model(&layers, &cost, cfg.batch)
    }

    #[test]
    fn covers_all_layers() {
        let p = profile();
        assert_eq!(p.len(), 22); // 20 blocks + embedding + head
        assert!(!p.is_empty());
    }

    #[test]
    fn bp_state_larger_than_fp_state() {
        let p = profile();
        for i in 1..p.len() - 1 {
            assert!(p.s_bp[i] > p.s_fp[i], "layer {i}");
            assert!(p.t_g2c[i] > p.t_c2g[i], "layer {i}");
        }
    }

    #[test]
    fn block_layers_homogeneous() {
        let p = profile();
        assert_eq!(p.t_fp[1], p.t_fp[10]);
        assert_eq!(p.t_c2g[1], p.t_c2g[10]);
    }

    #[test]
    fn totals_add_up() {
        let p = profile();
        let total = |ts: &[SimTime]| ts.iter().fold(SimTime::ZERO, |a, t| a + *t);
        assert!(total(&p.t_bp) > total(&p.t_fp));
    }
}
