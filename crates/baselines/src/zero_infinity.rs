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
use stronghold_sim::{CostModel, FifoResource, Lane, Platform, SimTime, Timeline};

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

    fn nvme_read_time(&self, platform: &Platform, bytes: u64) -> SimTime {
        let n = platform.nvme.expect("nvme");
        SimTime::from_secs_f64(bytes as f64 / (n.read_bw * cal::ZINF_NVME_SMALL_IO_DERATE))
    }

    fn nvme_write_time(&self, platform: &Platform, bytes: u64) -> SimTime {
        let n = platform.nvme.expect("nvme");
        SimTime::from_secs_f64(bytes as f64 / (n.write_bw * cal::ZINF_NVME_SMALL_IO_DERATE))
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
        let mut compute = FifoResource::new("compute");
        let mut h2d = FifoResource::new("h2d");
        let mut d2h = FifoResource::new("d2h");
        let mut nvme_ch = FifoResource::new("nvme");
        let mut tl = Timeline::new();
        let sync = SimTime::from_micros(cal::ZINF_LAYER_SYNC_US);
        let zero = SimTime::ZERO;

        // Depth-1 prefetch: layer i's gather may start once layer i-1's
        // compute starts; with NVMe the (derated) disk read precedes the
        // PCIe hop on the same chain.
        let fetch = |prev_compute: SimTime,
                     bytes: u64,
                     label: String,
                     tl: &mut Timeline,
                     h2d: &mut FifoResource,
                     nvme_ch: &mut FifoResource| {
            let issue = prev_compute + sync;
            let ready = if self.use_nvme {
                let (s, e) = nvme_ch.schedule(issue, self.nvme_read_time(platform, bytes));
                tl.record(Lane::Nvme, format!("nv {label}"), s, e);
                e
            } else {
                issue
            };
            let (s, e) = h2d.schedule(ready, cost.h2d(bytes, CopyKind::PinnedBulk));
            tl.record(Lane::CopyIn, label, s, e);
            e
        };

        let mut prev_compute = zero;
        for (i, l) in layers.iter().enumerate() {
            let mut ready = prev_compute;
            if l.kind == LayerKind::Block {
                let e = fetch(
                    prev_compute,
                    l.param_bytes(),
                    format!("h2d L{i}"),
                    &mut tl,
                    &mut h2d,
                    &mut nvme_ch,
                );
                ready = ready.max(e);
            }
            let (s, e) = compute.schedule(ready, cost.layer_fp(l, cfg.batch));
            tl.record(Lane::Compute(0), format!("fp L{i}"), s, e);
            prev_compute = e;
        }
        let mut last_grad = zero;
        for (i, l) in layers.iter().enumerate().rev() {
            let mut ready = prev_compute;
            if l.kind == LayerKind::Block {
                let e = fetch(
                    prev_compute,
                    l.param_bytes(),
                    format!("h2d' L{i}"),
                    &mut tl,
                    &mut h2d,
                    &mut nvme_ch,
                );
                ready = ready.max(e);
            }
            let (s, e) = compute.schedule(ready, cost.layer_bp(l, cfg.batch));
            tl.record(Lane::Compute(0), format!("bp L{i}"), s, e);
            prev_compute = e;
            if l.kind == LayerKind::Block {
                let (s2, e2) = d2h.schedule(e, cost.d2h(l.grad_bytes(), CopyKind::PinnedBulk));
                tl.record(Lane::CopyOut, format!("d2h g L{i}"), s2, e2);
                last_grad = last_grad.max(e2);
            }
        }

        // Fused post-BP CPU optimizer. With NVMe the optimizer state pages
        // through the (derated) disk channel: 16 B/param read, 12 B written.
        let total_params: u64 = layers.iter().map(|l| l.params).sum();
        let opt_start = prev_compute.max(last_grad);
        let opt_end = if self.use_nvme {
            let rd = self.nvme_read_time(platform, total_params * 16);
            let wr = self.nvme_write_time(platform, total_params * 12);
            let (s, e) = nvme_ch.schedule(opt_start, rd + wr);
            tl.record(Lane::Nvme, "opt paging", s, e);
            e
        } else {
            let secs = total_params as f64 * cal::ADAM_BYTES_PER_PARAM / cal::ZERO_CPU_ADAM_BW;
            opt_start + SimTime::from_secs_f64(secs)
        };
        tl.record(Lane::CpuOptim, "fused adam", opt_start, opt_end);

        tl.assert_lanes_serialized();
        let report = IterationReport {
            method: self.name().into(),
            cfg: *cfg,
            iter_time: tl.makespan(),
            throughput: 0.0,
            tflops: 0.0,
            gpu_peak: self.gpu_usage(cfg),
            cpu_peak: self.cpu_usage(cfg),
            overlap: tl.overlap_fraction(),
            gpu_util: tl.utilization(Lane::Compute(0)),
            timeline: tl,
            window: 1,
        };
        Ok(report.finish(flops_per_sample(cfg), cfg.batch))
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
