//! The cost model: maps layers, byte counts and batch sizes to operation
//! durations on a [`Platform`].
//!
//! This is the single place where FLOPs and bytes become virtual time; the
//! runtime and every baseline price their operations here, so comparisons
//! between methods are apples-to-apples by construction.

use stronghold_model::layer::LayerSpec;

use crate::calibration as cal;
use crate::hardware::Platform;
use crate::time::SimTime;

/// Transfer class for CPU↔GPU copies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CopyKind {
    /// Pinned host memory, bulk per-layer copy (STRONGHOLD's buffer pool,
    /// ZeRO's staged transfers).
    PinnedBulk,
    /// Pageable, per-tensor synchronous copies (L2L's transfer path).
    PageableSync,
}

/// Duration calculator for one platform.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// The hardware this model prices against.
    pub platform: Platform,
}

impl CostModel {
    /// Creates a cost model for `platform`.
    pub fn new(platform: Platform) -> Self {
        CostModel { platform }
    }

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    /// Achieved GPU FLOP/s at a given per-kernel batch size.
    pub fn achieved_flops(&self, batch: usize) -> f64 {
        self.platform.gpu.peak_flops * cal::kernel_efficiency(batch as f64)
    }

    /// Forward-pass time for one layer at `batch` samples.
    pub fn layer_fp(&self, layer: &LayerSpec, batch: usize) -> SimTime {
        let flops = layer.flops_fp as f64 * batch as f64;
        Self::secs(flops / self.achieved_flops(batch)) + SimTime::from_micros(cal::KERNEL_LAUNCH_US)
    }

    /// Backward-pass time for one layer at `batch` samples, including the
    /// activation-checkpointing forward recompute (footnote 2 of the paper).
    pub fn layer_bp(&self, layer: &LayerSpec, batch: usize) -> SimTime {
        let flops = (layer.flops_bp + layer.flops_fp) as f64 * batch as f64;
        Self::secs(flops / self.achieved_flops(batch)) + SimTime::from_micros(cal::KERNEL_LAUNCH_US)
    }

    /// Host→device transfer time for `bytes`.
    pub fn h2d(&self, bytes: u64, kind: CopyKind) -> SimTime {
        self.copy_time(bytes, kind)
    }

    /// Device→host transfer time for `bytes`.
    pub fn d2h(&self, bytes: u64, kind: CopyKind) -> SimTime {
        self.copy_time(bytes, kind)
    }

    fn copy_time(&self, bytes: u64, kind: CopyKind) -> SimTime {
        let bw = match kind {
            CopyKind::PinnedBulk => self.platform.pcie.pinned_bw,
            CopyKind::PageableSync => self.platform.pcie.pageable_bw,
        };
        Self::secs(bytes as f64 / bw) + SimTime::from_micros(cal::COPY_LATENCY_US)
    }

    /// One asynchronous runtime call (`t_async`, §III-D).
    pub fn t_async(&self) -> SimTime {
        SimTime::from_micros(cal::T_ASYNC_US)
    }

    /// On-GPU Adam step for one layer (memory-bandwidth bound).
    pub fn gpu_optim(&self, layer: &LayerSpec) -> SimTime {
        let bytes = layer.params as f64 * cal::ADAM_BYTES_PER_PARAM;
        Self::secs(bytes / (self.platform.gpu.mem_bw * cal::GPU_ADAM_BW_FRACTION))
    }

    /// CPU Adam step for one layer executed by a single pool worker.
    pub fn cpu_optim(&self, layer: &LayerSpec) -> SimTime {
        let bytes = layer.params as f64 * cal::ADAM_BYTES_PER_PARAM;
        Self::secs(bytes / self.effective_adam_worker_bw(1))
    }

    /// Aggregate bandwidth `workers` Adam threads sustain.
    pub fn effective_adam_worker_bw(&self, workers: usize) -> f64 {
        let linear = workers as f64 * cal::ADAM_PER_WORKER_BW;
        linear.min(self.platform.cpu.mem_bw * cal::ADAM_POOL_BW_FRACTION)
    }

    /// Number of optimizer-pool workers that still scale (beyond this the
    /// pool is memory-bandwidth bound).
    pub fn useful_optim_workers(&self) -> usize {
        let cap = self.platform.cpu.mem_bw * cal::ADAM_POOL_BW_FRACTION / cal::ADAM_PER_WORKER_BW;
        (cap.floor() as usize).clamp(1, self.platform.cpu.cores)
    }

    /// NVMe read time for `bytes` (returns `None` without an NVMe tier).
    pub fn nvme_read(&self, bytes: u64) -> Option<SimTime> {
        self.platform
            .nvme
            .map(|n| Self::secs(bytes as f64 / n.read_bw) + SimTime::from_micros(100))
    }

    /// NVMe write time for `bytes`.
    pub fn nvme_write(&self, bytes: u64) -> Option<SimTime> {
        self.platform
            .nvme
            .map(|n| Self::secs(bytes as f64 / n.write_bw) + SimTime::from_micros(100))
    }

    /// Ring all-reduce time for `bytes` across `world` ranks over links of
    /// `link_bw` bytes/s: `2·(w−1)/w · bytes / bw` plus per-step latency.
    pub fn ring_allreduce(&self, bytes: u64, world: usize, link_bw: f64) -> SimTime {
        if world <= 1 {
            return SimTime::ZERO;
        }
        let w = world as f64;
        let vol = 2.0 * (w - 1.0) / w * bytes as f64;
        Self::secs(vol / link_bw) + SimTime::from_micros(30) * (2 * (world as u64 - 1))
    }

    /// Ring all-gather time for `bytes` of *output* across `world` ranks.
    pub fn ring_allgather(&self, bytes: u64, world: usize, link_bw: f64) -> SimTime {
        if world <= 1 {
            return SimTime::ZERO;
        }
        let w = world as f64;
        let vol = (w - 1.0) / w * bytes as f64;
        Self::secs(vol / link_bw) + SimTime::from_micros(30) * (world as u64 - 1)
    }

    /// Intra-GPU gradient all-reduce among `streams` concurrent executors
    /// (§IV-A) — device-bandwidth bound.
    pub fn intra_gpu_allreduce(&self, bytes: u64, streams: usize) -> SimTime {
        if streams <= 1 {
            return SimTime::ZERO;
        }
        let vol = bytes as f64 * (streams as f64 - 1.0) / streams as f64 * 2.0;
        Self::secs(vol / self.platform.gpu.mem_bw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;
    use stronghold_model::layer::build_layers;

    fn v100() -> CostModel {
        CostModel::new(Platform::v100_server())
    }

    #[test]
    fn fp_time_scales_superlinearly_below_saturation() {
        let layers = build_layers(&common_1_7b());
        let block = &layers[1];
        let t2 = v100().layer_fp(block, 2);
        let t4 = v100().layer_fp(block, 4);
        // More samples -> more time, but less than 2x (efficiency rises).
        assert!(t4 > t2);
        assert!(t4.as_nanos() < 2 * t2.as_nanos());
    }

    #[test]
    fn bp_slower_than_fp() {
        let layers = build_layers(&common_1_7b());
        let block = &layers[1];
        let cm = v100();
        // BP includes recompute: 3x forward FLOPs.
        let fp = cm.layer_fp(block, 4).as_secs_f64();
        let bp = cm.layer_bp(block, 4).as_secs_f64();
        assert!(bp > 2.5 * fp && bp < 3.5 * fp, "fp {fp} bp {bp}");
    }

    #[test]
    fn pinned_copies_beat_pageable() {
        let cm = v100();
        let bytes = 300 << 20;
        assert!(cm.h2d(bytes, CopyKind::PinnedBulk) < cm.h2d(bytes, CopyKind::PageableSync));
    }

    #[test]
    fn transfer_hides_under_compute_for_1_7b() {
        // The anchor behind STRONGHOLD ≥ Megatron on the 1.7B model (Fig 8a):
        // per-layer H2D must fit under per-layer FP compute at batch 4.
        let layers = build_layers(&common_1_7b());
        let block = &layers[1];
        let cm = v100();
        let fp = cm.layer_fp(block, 4);
        let h2d = cm.h2d(block.param_bytes(), CopyKind::PinnedBulk);
        assert!(fp > h2d, "fp {fp} vs h2d {h2d}");
    }

    #[test]
    fn optimizer_pool_saturates() {
        let cm = v100();
        let one = cm.effective_adam_worker_bw(1);
        let many = cm.effective_adam_worker_bw(48);
        assert!(many > one);
        assert!(many <= cm.platform.cpu.mem_bw);
        assert!(cm.useful_optim_workers() >= 4);
    }

    #[test]
    fn allreduce_costs_grow_with_world() {
        let cm = CostModel::new(Platform::a10_cluster_8());
        let b = 1 << 30;
        let bw = cm.platform.net.unwrap().bw;
        let t2 = cm.ring_allreduce(b, 2, bw);
        let t8 = cm.ring_allreduce(b, 8, bw);
        assert!(t8 > t2);
        assert_eq!(cm.ring_allreduce(b, 1, bw), SimTime::ZERO);
    }

    #[test]
    fn nvme_only_when_present() {
        let v = v100();
        assert!(v.nvme_read(1 << 30).is_some());
        let a = CostModel::new(Platform::a10_cluster_8());
        assert!(a.nvme_read(1 << 30).is_none());
    }

    #[test]
    fn gpu_adam_fast_cpu_adam_slow() {
        let layers = build_layers(&common_1_7b());
        let block = &layers[1];
        let cm = v100();
        assert!(cm.gpu_optim(block) < cm.cpu_optim(block));
    }
}
