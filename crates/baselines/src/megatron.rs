//! Megatron-LM (v2.6): NVIDIA's fully GPU-resident reference (§V-C).
//!
//! Memory: the entire model state (parameters, gradients, Adam moments —
//! 16 B/param in FP32) plus residual state lives in device memory, which is
//! why it tops out at 1.7 B parameters on a 32 GB V100 (Fig. 6a). Iteration:
//! pure compute plus a fast fused on-device optimizer — the throughput
//! reference every offloading method is measured against (Figs. 1b, 8a).

use stronghold_core::error::{Result, RuntimeError};
use stronghold_core::method::{flops_per_sample, IterationReport, TrainingMethod};
use stronghold_model::config::ModelConfig;
use stronghold_model::memory;
use stronghold_sim::{price, CostModel, Lane, Plan, Platform};

use crate::common::{gpu_capacity, layers_of, residual_gpu_bytes, schedule_fp_bp};

/// The Megatron-LM baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct MegatronLM;

impl MegatronLM {
    /// Device bytes Megatron-LM needs for a configuration.
    pub fn gpu_usage(cfg: &ModelConfig) -> u64 {
        memory::model_state_bytes(cfg) + residual_gpu_bytes(cfg)
    }
}

impl TrainingMethod for MegatronLM {
    fn name(&self) -> &'static str {
        "Megatron-LM"
    }

    fn feasible(&self, cfg: &ModelConfig, platform: &Platform) -> bool {
        Self::gpu_usage(cfg) <= gpu_capacity(platform)
    }

    fn iteration(&self, cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport> {
        if !self.feasible(cfg, platform) {
            return Err(RuntimeError::Infeasible {
                method: "Megatron-LM".into(),
                reason: "model state exceeds device memory".into(),
            });
        }
        let cost = CostModel::new(*platform);
        let layers = layers_of(cfg);
        let mut plan = Plan::new(1);
        schedule_fp_bp(&mut plan, &layers, &cost, cfg.batch);
        // Fused on-GPU Adam across all layers.
        for (i, l) in layers.iter().enumerate() {
            plan.push(
                Lane::Compute(0),
                cost.gpu_optim(l),
                [],
                format!("gopt L{i}"),
            );
        }
        Ok(IterationReport::from_timeline(
            self.name(),
            cfg,
            price(&plan),
            (Self::gpu_usage(cfg), 0),
            0,
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
    fn trains_1_7b_but_not_2_5b_on_v100() {
        let v100 = Platform::v100_server();
        assert!(MegatronLM.feasible(&common_1_7b(), &v100));
        let big = ModelConfig::new(30, 2560, 16);
        assert!(!MegatronLM.feasible(&big, &v100));
    }

    #[test]
    fn max_size_matches_paper_fig6a() {
        // Fig. 6a: Megatron-LM supports up to ~1.7B on the 32 GB V100.
        let best = max_trainable_layers(
            &MegatronLM,
            &ModelConfig::new(1, 2560, 16),
            &Platform::v100_server(),
            100,
        )
        .unwrap();
        let b = best.billions();
        assert!(
            (1.4..2.2).contains(&b),
            "Megatron ceiling {b:.2}B, paper 1.7B"
        );
    }

    #[test]
    fn iteration_reports_throughput() {
        let r = MegatronLM
            .iteration(&common_1_7b(), &Platform::v100_server())
            .unwrap();
        assert!(r.throughput > 0.0);
        assert!(r.gpu_util > 0.99, "compute-only method must be fully busy");
    }

    #[test]
    fn infeasible_iteration_errors() {
        let big = ModelConfig::new(100, 2560, 16);
        assert!(MegatronLM
            .iteration(&big, &Platform::v100_server())
            .is_err());
    }
}
