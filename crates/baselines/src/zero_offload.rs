//! ZeRO-Offload (Ren et al., ATC'21): static offload of optimizer state
//! (§V-C).
//!
//! Memory: the full parameter set (and transient gradients) stays in device
//! memory — 4 B/param FP32 — which caps the trainable size at ≈6 B on a
//! 32 GB V100 (Fig. 6a); Adam moments (12 B/param with gradients) live on
//! the host. Iteration: FP/BP run at full speed and per-layer gradient
//! transfers overlap BP, but the *fused single CPU optimizer* runs after BP
//! and the updated parameters return over PCIe before the next iteration —
//! the serialization the paper blames for ZeRO's <57%-of-Megatron
//! throughput (Fig. 8a).

use stronghold_core::error::{Result, RuntimeError};
use stronghold_core::method::{flops_per_sample, IterationReport, TrainingMethod};
use stronghold_model::config::ModelConfig;
use stronghold_model::layer::LayerKind;
use stronghold_sim::calibration as cal;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{price, CostModel, Lane, Plan, Platform, SimTime};

use crate::common::{gpu_capacity, layers_of, residual_gpu_bytes};

/// The ZeRO-Offload baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct ZeroOffload;

impl ZeroOffload {
    /// Device bytes: parameters + a two-layer gradient staging buffer +
    /// residual state.
    pub fn gpu_usage(cfg: &ModelConfig) -> u64 {
        let layers = layers_of(cfg);
        let params: u64 = layers.iter().map(|l| l.param_bytes()).sum();
        let max_grad = layers.iter().map(|l| l.grad_bytes()).max().unwrap_or(0);
        params + 2 * max_grad + residual_gpu_bytes(cfg)
    }

    /// Host bytes: gradients + Adam moments (12 B/param).
    pub fn cpu_usage(cfg: &ModelConfig) -> u64 {
        let layers = layers_of(cfg);
        layers
            .iter()
            .map(|l| l.grad_bytes() + l.opt_state_bytes())
            .sum()
    }
}

impl TrainingMethod for ZeroOffload {
    fn name(&self) -> &'static str {
        "ZeRO-Offload"
    }

    fn feasible(&self, cfg: &ModelConfig, platform: &Platform) -> bool {
        Self::gpu_usage(cfg) <= gpu_capacity(platform)
            && Self::cpu_usage(cfg)
                <= (platform.cpu.ram_bytes as f64 * cal::HOST_USABLE_FRACTION) as u64
    }

    fn iteration(&self, cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport> {
        if !self.feasible(cfg, platform) {
            return Err(RuntimeError::Infeasible {
                method: "ZeRO-Offload".into(),
                reason: "exceeds device or host memory".into(),
            });
        }
        let cost = CostModel::new(*platform);
        let layers = layers_of(cfg);
        let mut plan = Plan::new(1);

        // FP: parameters are resident, pure compute.
        for (i, l) in layers.iter().enumerate() {
            plan.push(
                Lane::Compute(0),
                cost.layer_fp(l, cfg.batch),
                [],
                format!("fp L{i}"),
            );
        }
        // BP: per-layer gradient offload overlapping the remaining backward.
        // The fused single CPU optimizer over all offloaded parameters waits
        // for the last backward op and the last gradient copy.
        let (mut last_bp, mut last_grad) = (None, None);
        for (i, l) in layers.iter().enumerate().rev() {
            let bp = plan.push(
                Lane::Compute(0),
                cost.layer_bp(l, cfg.batch),
                [],
                format!("bp L{i}"),
            );
            last_bp = Some(bp);
            if l.kind == LayerKind::Block {
                let dur = cost.d2h(l.grad_bytes(), CopyKind::PinnedBulk);
                let d2h = plan.push(
                    Lane::CopyOut,
                    dur,
                    [(bp, SimTime::ZERO)],
                    format!("d2h g L{i}"),
                );
                last_grad = Some(d2h);
            }
        }
        let total_params: u64 = layers.iter().map(|l| l.params).sum();
        let opt_secs = total_params as f64 * cal::ADAM_BYTES_PER_PARAM / cal::ZERO_CPU_ADAM_BW;
        let after = last_bp
            .into_iter()
            .chain(last_grad)
            .map(|op| (op, SimTime::ZERO));
        let opt = plan.push(
            Lane::CpuOptim,
            SimTime::from_secs_f64(opt_secs),
            after,
            "fused adam",
        );
        // Updated parameters return to the device before the next iteration.
        let param_bytes: u64 = layers.iter().map(|l| l.param_bytes()).sum();
        let dur = cost.h2d(param_bytes, CopyKind::PinnedBulk);
        plan.push(Lane::CopyIn, dur, [(opt, SimTime::ZERO)], "params back");

        Ok(IterationReport::from_timeline(
            self.name(),
            cfg,
            price(&plan),
            (Self::gpu_usage(cfg), Self::cpu_usage(cfg)),
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
    fn max_size_around_6b_on_v100() {
        // Fig. 6a: ZeRO-Offload ≈ 6B on the 32 GB V100.
        let best = max_trainable_layers(
            &ZeroOffload,
            &ModelConfig::new(1, 2560, 16),
            &Platform::v100_server(),
            400,
        )
        .unwrap();
        let b = best.billions();
        assert!(
            (4.5..7.5).contains(&b),
            "ZeRO-Offload ceiling {b:.2}B, paper ≈6B"
        );
    }

    #[test]
    fn below_megatron_but_above_l2l() {
        let v100 = Platform::v100_server();
        let cfg = common_1_7b();
        let zo = ZeroOffload.iteration(&cfg, &v100).unwrap();
        let mega = crate::megatron::MegatronLM.iteration(&cfg, &v100).unwrap();
        let l2l = crate::l2l::L2L.iteration(&cfg, &v100).unwrap();
        let ratio = zo.throughput / mega.throughput;
        assert!(
            (0.35..0.75).contains(&ratio),
            "ZO/Megatron = {ratio:.3}, paper <0.57"
        );
        assert!(zo.throughput > l2l.throughput, "ZO must beat L2L");
    }

    #[test]
    fn cpu_side_holds_12_bytes_per_param() {
        let cfg = common_1_7b();
        let per_param = ZeroOffload::cpu_usage(&cfg) as f64 / cfg.total_params() as f64;
        assert!((11.9..12.1).contains(&per_param));
    }
}
