//! ZeRO-Infinity (Rajbhandari et al., SC'21): fine-grained partitioning
//! across GPU, CPU and optionally NVMe (§V-C).
//!
//! Memory model:
//! * *CPU-RAM mode* — parameters stream through the device per layer, but
//!   the runtime model refactoring keeps an extra per-parameter device
//!   footprint (`ZINF_GPU_BYTES_PER_PARAM` of the local shard; anchors the
//!   20.6 B V100 ceiling of Fig. 6a), and the host image carries fp16
//!   shards + fp32 master + staging (`ZINF_CPU_BYTES_PER_PARAM`; anchors
//!   56.9 B on the cluster, Fig. 6b). Activations are offloaded (a
//!   ZeRO-Infinity feature), so only transient workspace stays on device.
//! * *NVMe mode* — the state image is demand-paged from disk with small,
//!   scattered I/O (`ZINF_NVME_SMALL_IO_DERATE`), and the fused optimizer
//!   pages its 28 B/param of state through the same channel after BP: the
//!   source of the paper's "up to 29.2×" NVMe slowdown and STRONGHOLD's
//!   ≥8× advantage in Fig. 10.

use stronghold_core::error::{Result, RuntimeError};
use stronghold_core::method::{flops_per_sample, IterationReport, TrainingMethod};
use stronghold_model::config::ModelConfig;
use stronghold_model::layer::LayerKind;
use stronghold_model::memory;
use stronghold_sim::calibration as cal;
use stronghold_sim::cost::CopyKind;
use stronghold_sim::{price, CostModel, Lane, OpId, Plan, Platform, SimTime};

use crate::common::{gpu_capacity, layers_of};

/// The ZeRO-Infinity baseline.
#[derive(Clone, Copy, Debug)]
pub struct ZeroInfinity {
    /// Whether the NVMe tier is enabled (§VI-C3 / Fig. 10).
    pub use_nvme: bool,
}

impl ZeroInfinity {
    /// CPU-RAM-only configuration (the paper's default comparison).
    pub fn cpu_only() -> Self {
        ZeroInfinity { use_nvme: false }
    }

    /// NVMe-backed configuration.
    pub fn with_nvme() -> Self {
        ZeroInfinity { use_nvme: true }
    }

    /// Device bytes. Activations are offloaded, so residual state is
    /// transient workspace only.
    pub fn gpu_usage(&self, cfg: &ModelConfig) -> u64 {
        let layers = layers_of(cfg);
        let params: u64 = layers.iter().map(|l| l.params).sum();
        let max_layer = layers.iter().map(|l| l.bp_state_bytes()).max().unwrap_or(0);
        let ws = memory::peak_workspace_bytes(cfg);
        let refactor = if self.use_nvme {
            // Demand paging bounds the resident partition to a staging pool.
            4 * (1u64 << 30)
        } else {
            (params as f64 * cal::ZINF_GPU_BYTES_PER_PARAM) as u64
        };
        refactor + 2 * max_layer + ws
    }

    /// Host bytes.
    pub fn cpu_usage(&self, cfg: &ModelConfig) -> u64 {
        let params: u64 = layers_of(cfg).iter().map(|l| l.params).sum();
        if self.use_nvme {
            // Staging cache only; the state image lives on disk.
            64 * (1 << 30)
        } else {
            (params as f64 * cal::ZINF_CPU_BYTES_PER_PARAM) as u64
        }
    }

    /// NVMe bytes (parameter image, as for STRONGHOLD's tier).
    pub fn nvme_usage(&self, cfg: &ModelConfig) -> u64 {
        if self.use_nvme {
            layers_of(cfg).iter().map(|l| l.param_bytes()).sum()
        } else {
            0
        }
    }

    fn host_capacity(platform: &Platform) -> u64 {
        if platform.nodes > 1 {
            (platform.cpu.ram_bytes as f64 * cal::CLUSTER_PINNED_FRACTION) as u64
        } else {
            (platform.cpu.ram_bytes as f64 * cal::HOST_USABLE_FRACTION) as u64
        }
    }
}

impl TrainingMethod for ZeroInfinity {
    fn name(&self) -> &'static str {
        if self.use_nvme {
            "ZeRO-Infinity (NVMe)"
        } else {
            "ZeRO-Infinity"
        }
    }

    fn feasible(&self, cfg: &ModelConfig, platform: &Platform) -> bool {
        if self.gpu_usage(cfg) > gpu_capacity(platform) {
            return false;
        }
        if self.cpu_usage(cfg) > Self::host_capacity(platform) {
            return false;
        }
        match platform.nvme {
            Some(n) => self.nvme_usage(cfg) <= n.capacity,
            None => self.nvme_usage(cfg) == 0,
        }
    }

    fn iteration(&self, cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport> {
        if !self.feasible(cfg, platform) {
            return Err(RuntimeError::Infeasible {
                method: "ZeRO-Infinity".into(),
                reason: "exceeds memory hierarchy capacity".into(),
            });
        }
        let cost = CostModel::new(*platform);
        let layers = layers_of(cfg);
        // The NVMe tier, taken up front; its demand paging moves small,
        // scattered I/O at a derated bandwidth.
        let nvme = match (self.use_nvme, platform.nvme) {
            (false, _) => None,
            (true, Some(n)) => Some(n),
            (true, None) => {
                return Err(RuntimeError::Infeasible {
                    method: "ZeRO-Infinity".into(),
                    reason: "the platform has no NVMe tier".into(),
                })
            }
        };
        let paged = |bytes: u64, bw: f64| {
            SimTime::from_secs_f64(bytes as f64 / (bw * cal::ZINF_NVME_SMALL_IO_DERATE))
        };
        let mut plan = Plan::new(1);
        let sync = SimTime::from_micros(cal::ZINF_LAYER_SYNC_US);
        let zero = SimTime::ZERO;

        // Depth-1 prefetch: layer i's gather may start once layer i-1's
        // compute ends; with NVMe the (derated) disk read precedes the PCIe
        // hop on the same chain.
        let fetch = |plan: &mut Plan, prev_compute: Option<OpId>, bytes: u64, label: String| {
            let issue = prev_compute.map(|op| (op, sync));
            let ready = match nvme {
                Some(n) => {
                    let read = paged(bytes, n.read_bw);
                    Some((
                        plan.push(Lane::Nvme, read, issue, format!("nv {label}")),
                        zero,
                    ))
                }
                None => issue,
            };
            plan.push(
                Lane::CopyIn,
                cost.h2d(bytes, CopyKind::PinnedBulk),
                ready,
                label,
            )
        };

        let mut prev_compute = None;
        for (i, l) in layers.iter().enumerate() {
            let fetched = (l.kind == LayerKind::Block).then(|| {
                fetch(
                    &mut plan,
                    prev_compute,
                    l.param_bytes(),
                    format!("h2d L{i}"),
                )
            });
            let after = fetched.map(|op| (op, zero));
            prev_compute = Some(plan.push(
                Lane::Compute(0),
                cost.layer_fp(l, cfg.batch),
                after,
                format!("fp L{i}"),
            ));
        }
        let mut last_grad = None;
        for (i, l) in layers.iter().enumerate().rev() {
            let fetched = (l.kind == LayerKind::Block).then(|| {
                fetch(
                    &mut plan,
                    prev_compute,
                    l.param_bytes(),
                    format!("h2d' L{i}"),
                )
            });
            let after = fetched.map(|op| (op, zero));
            let bp = plan.push(
                Lane::Compute(0),
                cost.layer_bp(l, cfg.batch),
                after,
                format!("bp L{i}"),
            );
            prev_compute = Some(bp);
            if l.kind == LayerKind::Block {
                let dur = cost.d2h(l.grad_bytes(), CopyKind::PinnedBulk);
                last_grad =
                    Some(plan.push(Lane::CopyOut, dur, [(bp, zero)], format!("d2h g L{i}")));
            }
        }

        // Fused post-BP CPU optimizer, after the last backward op and the
        // last gradient copy. With NVMe the optimizer state pages through
        // the (derated) disk channel: 16 B/param read, 12 B written. The
        // channel is idle by then (its last read fed layer 1's backward),
        // so the paging and the optimizer span the same interval.
        let total_params: u64 = layers.iter().map(|l| l.params).sum();
        let after: Vec<(OpId, SimTime)> = prev_compute
            .into_iter()
            .chain(last_grad)
            .map(|op| (op, zero))
            .collect();
        let opt = match nvme {
            Some(n) => {
                let dur =
                    paged(total_params * 16, n.read_bw) + paged(total_params * 12, n.write_bw);
                plan.push(Lane::Nvme, dur, after.clone(), "opt paging");
                dur
            }
            None => SimTime::from_secs_f64(
                total_params as f64 * cal::ADAM_BYTES_PER_PARAM / cal::ZERO_CPU_ADAM_BW,
            ),
        };
        plan.push(Lane::CpuOptim, opt, after, "fused adam");

        Ok(IterationReport::from_timeline(
            self.name(),
            cfg,
            price(&plan),
            (self.gpu_usage(cfg), self.cpu_usage(cfg)),
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
    fn max_size_around_20b_on_v100() {
        // Fig. 6a: ZeRO-Infinity (CPU RAM only) ≈ 20.6B on the 32 GB V100.
        let best = max_trainable_layers(
            &ZeroInfinity::cpu_only(),
            &ModelConfig::new(1, 2560, 16),
            &Platform::v100_server(),
            1000,
        )
        .unwrap();
        let b = best.billions();
        assert!(
            (17.0..24.0).contains(&b),
            "ZeRO-Infinity ceiling {b:.2}B, paper 20.6B"
        );
    }

    #[test]
    fn nvme_tier_extends_toward_half_trillion() {
        // Fig. 10: with NVMe the trainable size reaches ~0.5T.
        let best = max_trainable_layers(
            &ZeroInfinity::with_nvme(),
            &ModelConfig::new(1, 2560, 16),
            &Platform::v100_server(),
            9000,
        )
        .unwrap();
        let b = best.billions();
        assert!(b > 300.0, "NVMe ceiling {b:.1}B");
    }

    #[test]
    fn cpu_only_throughput_below_megatron() {
        let v100 = Platform::v100_server();
        let cfg = common_1_7b();
        let zi = ZeroInfinity::cpu_only().iteration(&cfg, &v100).unwrap();
        let mega = crate::megatron::MegatronLM.iteration(&cfg, &v100).unwrap();
        let ratio = zi.throughput / mega.throughput;
        assert!(
            (0.3..0.7).contains(&ratio),
            "ZI/Megatron = {ratio:.3}, paper <0.57"
        );
    }

    #[test]
    fn nvme_mode_without_an_nvme_device_is_infeasible() {
        let r = ZeroInfinity::with_nvme().iteration(&common_1_7b(), &Platform::a10_cluster(1));
        assert!(matches!(r, Err(RuntimeError::Infeasible { .. })));
    }

    #[test]
    fn nvme_mode_collapses_throughput() {
        // Intro: "up to 29.2x slowdown when NVMe is used".
        let v100 = Platform::v100_server();
        let cfg = common_1_7b();
        let cpu = ZeroInfinity::cpu_only().iteration(&cfg, &v100).unwrap();
        let nvme = ZeroInfinity::with_nvme().iteration(&cfg, &v100).unwrap();
        let slowdown = nvme.iter_time.as_secs_f64() / cpu.iter_time.as_secs_f64();
        assert!(
            (4.0..40.0).contains(&slowdown),
            "NVMe slowdown {slowdown:.1}x vs CPU mode"
        );
    }
}
