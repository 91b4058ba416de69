//! Forward-only execution for knowledge distillation (§VI-D3, Fig. 13).
//!
//! A trained teacher only runs FP to expose layer-wise activations to the
//! student, so the working window carries parameters alone — no gradients,
//! no optimizer state — letting STRONGHOLD serve a much larger model than
//! it can train. This module prices that schedule and its memory plan.

use stronghold_model::config::ModelConfig;
use stronghold_model::layer::build_layers;
use stronghold_model::memory;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{price, CostModel, Lane, OpId, Plan, Platform, SimTime};

use crate::error::{Result, RuntimeError};
use crate::memplan::StrongholdMemPlan;
use crate::method::IterationReport;

/// Device bytes an inference window of `m` layers needs: pinned
/// embedding/head parameters, `m+1` parameter slots, workspace and the
/// per-layer hidden states handed to the student.
pub fn inference_gpu_usage(cfg: &ModelConfig, m: usize) -> u64 {
    let layers = build_layers(cfg);
    let batch = cfg.batch as u64;
    let resident: u64 = layers
        .iter()
        .filter(|l| l.kind != stronghold_model::layer::LayerKind::Block)
        .map(|l| l.param_bytes())
        .sum();
    let block = layers
        .iter()
        .filter(|l| l.kind == stronghold_model::layer::LayerKind::Block)
        .max_by_key(|l| l.params);
    let Some(block) = block else { return resident };
    let slots = (m as u64 + 1) * block.param_bytes();
    let workspace = block.act_workspace_bytes * batch;
    let hidden = memory::boundary_activation_bytes(cfg) * batch * 2;
    resident + slots + workspace + hidden
}

/// Whether FP-only serving of `cfg` fits the platform.
pub fn inference_feasible(cfg: &ModelConfig, platform: &Platform) -> bool {
    let cap = StrongholdMemPlan::gpu_capacity(platform);
    if inference_gpu_usage(cfg, 1) > cap {
        return false;
    }
    // Host holds parameters only (4 bytes/param) for inference.
    let params: u64 = build_layers(cfg).iter().map(|l| l.param_bytes()).sum();
    params <= StrongholdMemPlan::cpu_capacity(platform)
}

/// Simulates one FP-only pass (teacher inference) with window `m`.
pub fn simulate_inference(
    cfg: &ModelConfig,
    platform: &Platform,
    m: usize,
) -> Result<IterationReport> {
    if !inference_feasible(cfg, platform) {
        return Err(RuntimeError::Infeasible {
            method: "STRONGHOLD-inference".into(),
            reason: "model exceeds platform".into(),
        });
    }
    let cap = StrongholdMemPlan::gpu_capacity(platform);
    let mut m = m.max(1);
    while m > 1 && inference_gpu_usage(cfg, m) > cap {
        m -= 1;
    }
    if inference_gpu_usage(cfg, m) > cap {
        return Err(RuntimeError::Infeasible {
            method: "STRONGHOLD-inference".into(),
            reason: "window of one exceeds device".into(),
        });
    }

    let cost = CostModel::new(*platform);
    let layers = build_layers(cfg);
    let nb = cfg.layers;
    let t_async = cost.t_async();
    let nl = layers.len();
    let mut plan = Plan::new(1);
    let mut fp: Vec<OpId> = Vec::with_capacity(nl);
    let mut fetched = vec![None; nl];

    // First m blocks preloaded; the rest stream through the window. Block
    // j is fetched at layer i = j - m's hook, `t_async` after layer i-1's
    // compute — which is also when layer j-m-1 = i-1 frees its slot.
    for (i, l) in layers.iter().enumerate() {
        let j = i + m;
        if (m + 1..=nb).contains(&j) && (1..=nb).contains(&i) {
            let dur = cost.h2d(layers[j].param_bytes(), CopyKind::PinnedBulk);
            let after = [(fp[i - 1], t_async)];
            fetched[j] = Some(plan.push(Lane::CopyIn, dur, after, format!("h2d L{j}")));
        }
        let after = fetched[i].map(|op| (op, SimTime::ZERO));
        fp.push(plan.push(
            Lane::Compute(0),
            cost.layer_fp(l, cfg.batch),
            after,
            format!("fp L{i}"),
        ));
    }

    let fp_flops: u64 = layers.iter().map(|l| l.flops_fp).sum();
    let peaks = (
        inference_gpu_usage(cfg, m),
        layers.iter().map(|l| l.param_bytes()).sum(),
    );
    Ok(IterationReport::from_timeline(
        "STRONGHOLD-inference",
        cfg,
        price(&plan),
        peaks,
        m,
        fp_flops,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::{common_1_7b, ModelConfig};

    #[test]
    fn inference_serves_larger_models_than_training() {
        // §VI-D3: FP-only mode supports a larger model than training.
        let v100 = Platform::v100_server();
        let big = ModelConfig::new(700, 2560, 16); // ~55B: training infeasible
        let train_plan = StrongholdMemPlan::new(big, 1, crate::memplan::ColdTier::CpuRam);
        assert!(!train_plan.feasible(&v100, 1));
        assert!(inference_feasible(&big, &v100));
    }

    #[test]
    fn inference_runs_and_reports() {
        let r = simulate_inference(&common_1_7b(), &Platform::v100_server(), 4).unwrap();
        assert!(r.iter_time > SimTime::ZERO);
        assert!(r.throughput > 0.0);
        assert!(r.gpu_peak < 32 << 30);
    }

    #[test]
    fn inference_time_scales_linearly_with_depth() {
        let v100 = Platform::v100_server();
        let t1 = simulate_inference(&common_1_7b(), &v100, 4)
            .unwrap()
            .iter_time;
        let mut deep = common_1_7b();
        deep.layers *= 4;
        let t4 = simulate_inference(&deep, &v100, 4).unwrap().iter_time;
        let ratio = t4.as_secs_f64() / t1.as_secs_f64();
        assert!((3.0..5.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn usage_monotone_in_window() {
        let cfg = common_1_7b();
        assert!(inference_gpu_usage(&cfg, 2) < inference_gpu_usage(&cfg, 6));
    }
}
