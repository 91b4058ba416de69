//! L2L (layer-to-layer, Pudipeddi et al.): one transformer layer on the GPU
//! at a time (§V-C).
//!
//! Memory: optimizer state stays on the device (in half precision — the
//! calibrated 4 B/param of `L2L_GPU_OPT_BYTES_PER_PARAM`), so the trainable
//! size is still GPU-bound at ≈6 B on a 32 GB V100 (Fig. 6a). Iteration:
//! fully *synchronous* — every layer's parameters move over the pageable
//! per-tensor copy path before its compute may start, and the GPU stalls on
//! each transfer, which is why L2L lands at ~22% of Megatron-LM's throughput
//! on the common 1.7 B model (Fig. 8a).

use stronghold_core::error::{Result, RuntimeError};
use stronghold_core::method::{flops_per_sample, IterationReport, TrainingMethod};
use stronghold_model::config::ModelConfig;
use stronghold_model::layer::LayerKind;
use stronghold_model::memory;
use stronghold_sim::calibration as cal;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{price, CostModel, Lane, OpId, Plan, Platform, SimTime};

use crate::common::{gpu_capacity, layers_of, residual_gpu_bytes};

/// The L2L baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct L2L;

impl L2L {
    /// Device bytes: on-device optimizer state for the whole model, two
    /// layer-sized parameter buffers, and residual state.
    pub fn gpu_usage(cfg: &ModelConfig) -> u64 {
        let layers = layers_of(cfg);
        let opt: u64 = layers
            .iter()
            .map(|l| (l.params as f64 * cal::L2L_GPU_OPT_BYTES_PER_PARAM) as u64)
            .sum();
        let max_layer = layers
            .iter()
            .map(|l| l.param_bytes() + l.grad_bytes())
            .max()
            .unwrap_or(0);
        opt + 2 * max_layer + residual_gpu_bytes(cfg)
    }

    /// Host bytes: the parameter image L2L pages layers from.
    pub fn cpu_usage(cfg: &ModelConfig) -> u64 {
        memory::param_bytes(cfg)
    }
}

impl TrainingMethod for L2L {
    fn name(&self) -> &'static str {
        "L2L"
    }

    fn feasible(&self, cfg: &ModelConfig, platform: &Platform) -> bool {
        Self::gpu_usage(cfg) <= gpu_capacity(platform)
            && Self::cpu_usage(cfg)
                <= (platform.cpu.ram_bytes as f64 * cal::HOST_USABLE_FRACTION) as u64
    }

    fn iteration(&self, cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport> {
        if !self.feasible(cfg, platform) {
            return Err(RuntimeError::Infeasible {
                method: "L2L".into(),
                reason: "exceeds device or host memory".into(),
            });
        }
        let cost = CostModel::new(*platform);
        let layers = layers_of(cfg);
        let mut plan = Plan::new(1);
        let sync = SimTime::from_micros(cal::L2L_LAYER_SYNC_US);
        let zero = SimTime::ZERO;
        // Fully synchronous: every op waits for the one issued before it.
        let mut prev: Option<OpId> = None;

        // FP: synchronous copy-in then compute, layer by layer.
        for (i, l) in layers.iter().enumerate() {
            let mut ready = prev;
            if l.kind == LayerKind::Block {
                let dur = cost.h2d(l.param_bytes(), CopyKind::PageableSync);
                let after = prev.map(|op| (op, sync));
                // The GPU stalls until the copy lands.
                ready = Some(plan.push(Lane::CopyIn, dur, after, format!("h2d L{i}")));
            }
            let after = ready.map(|op| (op, zero));
            prev = Some(plan.push(
                Lane::Compute(0),
                cost.layer_fp(l, cfg.batch),
                after,
                format!("fp L{i}"),
            ));
        }
        // BP: copy-in, compute, on-device optimizer, write updated params out.
        for (i, l) in layers.iter().enumerate().rev() {
            let mut ready = prev;
            if l.kind == LayerKind::Block {
                let dur = cost.h2d(l.param_bytes(), CopyKind::PageableSync);
                let after = prev.map(|op| (op, sync));
                ready = Some(plan.push(Lane::CopyIn, dur, after, format!("h2d' L{i}")));
            }
            let after = ready.map(|op| (op, zero));
            plan.push(
                Lane::Compute(0),
                cost.layer_bp(l, cfg.batch),
                after,
                format!("bp L{i}"),
            );
            let gopt = plan.push(
                Lane::Compute(0),
                cost.gpu_optim(l),
                [],
                format!("gopt L{i}"),
            );
            prev = Some(gopt);
            if l.kind == LayerKind::Block {
                let dur = cost.d2h(l.param_bytes(), CopyKind::PageableSync);
                // Compute waits for the writeback.
                prev = Some(plan.push(Lane::CopyOut, dur, [(gopt, sync)], format!("d2h L{i}")));
            }
        }

        Ok(IterationReport::from_timeline(
            self.name(),
            cfg,
            price(&plan),
            (Self::gpu_usage(cfg), Self::cpu_usage(cfg)),
            1,
            flops_per_sample(cfg),
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_core::method::max_trainable_layers;
    use stronghold_model::config::common_1_7b;

    #[test]
    fn max_size_around_6b_on_v100() {
        // Fig. 6a: L2L ≈ 6B on the 32 GB V100 (3.5x over Megatron-LM).
        let best = max_trainable_layers(
            &L2L,
            &ModelConfig::new(1, 2560, 16),
            &Platform::v100_server(),
            400,
        )
        .unwrap();
        let b = best.billions();
        assert!((4.5..7.5).contains(&b), "L2L ceiling {b:.2}B, paper ≈6B");
    }

    #[test]
    fn much_slower_than_compute_only() {
        let v100 = Platform::v100_server();
        let r = L2L.iteration(&common_1_7b(), &v100).unwrap();
        let mega = crate::megatron::MegatronLM
            .iteration(&common_1_7b(), &v100)
            .unwrap();
        let ratio = r.throughput / mega.throughput;
        // Fig. 8a: 22.2% of Megatron-LM; accept a generous band.
        assert!((0.1..0.45).contains(&ratio), "L2L/Megatron = {ratio:.3}");
    }

    #[test]
    fn overlap_is_poor_by_design() {
        let r = L2L
            .iteration(&common_1_7b(), &Platform::v100_server())
            .unwrap();
        assert!(
            r.overlap < 0.3,
            "L2L must expose its transfers, got {}",
            r.overlap
        );
    }
}
