//! Calibration constants for the performance model.
//!
//! Every constant is anchored to an observation in the paper or to a
//! well-known hardware characteristic; DESIGN.md §1 explains the calibration
//! policy (reproduce *shapes and ratios*, not absolute samples/s).
//!
//! They are priors for the simulated platforms only. Nothing measured on
//! the functional substrate is fed back into them: strongbench reports the
//! host's own rates (`nvme.*_gbps`, `tier.*`) beside the simulator, not
//! through it.

/// GPU kernel efficiency model: achieved FLOP/s = `peak × batch_util(bs)`.
///
/// Transformer kernels on V100-class parts are launch- and occupancy-bound at
/// small per-kernel batch; utilization saturates as the batch grows. The
/// half-saturation constant is calibrated so STRONGHOLD's measured 6–9
/// TFLOPS at 42–57% of V100 peak (§VI-B) falls out at batch 8–16.
pub const BATCH_HALF_SATURATION: f64 = 8.0;

/// Half-saturation constant of the kernel *FLOP-rate* curve. Separate from
/// the SM-packing curve: a small-batch kernel still reaches a reasonable
/// fraction of peak on the SMs it occupies (tokens parallelize within one
/// sample), which is why splitting a batch across concurrent streams wins
/// (§IV-A / Fig. 11).
pub const EFFICIENCY_HALF_SATURATION: f64 = 2.5;

/// Maximum fraction of peak FLOPs any kernel schedule reaches (memory-bound
/// ceiling; §VI-B's best case is 57% of peak).
pub const MAX_KERNEL_EFFICIENCY: f64 = 0.57;

/// Per-kernel *occupancy* of the SM array, used by the multi-stream model
/// (§IV-A): concurrent kernels pack until their summed utilization reaches
/// 1.0, after which durations stretch proportionally.
pub fn batch_util(batch: f64) -> f64 {
    (batch / (batch + BATCH_HALF_SATURATION)).clamp(0.0, 1.0)
}

/// Achieved fraction of peak FLOPs for a kernel at this batch size
/// (normalized so the ceiling is reached at batch 16, the paper's largest).
pub fn kernel_efficiency(batch: f64) -> f64 {
    let sat = |b: f64| b / (b + EFFICIENCY_HALF_SATURATION);
    (MAX_KERNEL_EFFICIENCY * sat(batch) / sat(16.0)).min(MAX_KERNEL_EFFICIENCY)
}

/// Overhead of one asynchronous runtime call (`t_async` in §III-D): hook
/// dispatch + stream-op launch through the actor layer.
pub const T_ASYNC_US: u64 = 250;

/// Fixed launch/teardown latency of one bulk CPU↔GPU transfer beyond the
/// bandwidth term (allocator round-trip + cudaMemcpyAsync launch + event).
pub const COPY_LATENCY_US: u64 = 700;

/// Fixed per-kernel launch overhead added to each layer's compute time.
pub const KERNEL_LAUNCH_US: u64 = 120;

/// Effective bytes of reads+writes a CPU Adam step touches per parameter:
/// read p, g, m, v; write p, m, v — 7 FP32 words.
pub const ADAM_BYTES_PER_PARAM: f64 = 28.0;

/// Fraction of host memory bandwidth one optimizer worker thread sustains.
/// Vectorized Adam is memory-bound; a single core drives ~8 GB/s on these
/// Xeons, and the pool saturates at roughly half the socket bandwidth.
pub const ADAM_PER_WORKER_BW: f64 = 8.0e9;

/// Cap on the aggregate optimizer-pool bandwidth as a fraction of host
/// memory bandwidth (other traffic — pinned-buffer copies, gradient
/// staging — shares the memory controllers).
pub const ADAM_POOL_BW_FRACTION: f64 = 0.5;

/// Effective fraction of GPU memory bandwidth available to the fused
/// on-device Adam kernel.
pub const GPU_ADAM_BW_FRACTION: f64 = 0.7;

/// Fraction of host RAM usable for pinned model-state storage. Anchors
/// STRONGHOLD's 39.5 B ceiling on the 755 GB V100 host: 755 GiB × 0.78 / 16 B
/// ≈ 39.6 B parameters (§VI-A1).
pub const HOST_USABLE_FRACTION: f64 = 0.78;

/// Per-node pinned (page-locked) allocation budget as a fraction of RAM on
/// the production A10 cluster. Anchors Fig. 6b: 8 nodes × 1 TiB × 0.15 /
/// 16 B ≈ 82.5 B parameters for STRONGHOLD.
pub const CLUSTER_PINNED_FRACTION: f64 = 0.15;

/// Extra *GPU* bytes per parameter that ZeRO-Infinity's runtime model
/// refactoring keeps live (the paper: "requires making a copy of the
/// refactored model parameters, incurring extra GPU memory overhead",
/// §VI-A1). Anchors its 20.6 B ceiling on the 32 GB V100.
pub const ZINF_GPU_BYTES_PER_PARAM: f64 = 1.3;

/// Derating of NVMe bandwidth for ZeRO-Infinity's demand-paged,
/// per-parameter-group swap traffic (small, scattered I/O versus
/// STRONGHOLD's asynchronous *bulk* reads/writes, §III-G). Anchors the
/// paper's "up to 29.2× slowdown when NVMe is used" for ZeRO-Infinity and
/// the ≥8× STRONGHOLD advantage of Fig. 10.
pub const ZINF_NVME_SMALL_IO_DERATE: f64 = 0.15;

/// CPU bytes per parameter ZeRO-Infinity keeps when offloading everything
/// (fp16 shards + fp32 master + Adam + partition-alignment padding and
/// staging buffers). Anchors its 56.9 B cluster ceiling (Fig. 6b).
pub const ZINF_CPU_BYTES_PER_PARAM: f64 = 23.0;

/// Bytes of Adam state per parameter L2L keeps *on the GPU* (it stores
/// optimizer state in half precision on-device; anchors its ≈6 B ceiling).
pub const L2L_GPU_OPT_BYTES_PER_PARAM: f64 = 4.0;

/// Per-layer synchronization stall of ZeRO-Infinity's partition
/// gather/refactor path (all-gather launch + re-partition bookkeeping).
pub const ZINF_LAYER_SYNC_US: u64 = 2_000;

/// Per-layer stall of L2L's fully synchronous copy-compute-copy pipeline.
pub const L2L_LAYER_SYNC_US: u64 = 1_500;

/// Multi-stream executor scheduling overhead per extra concurrent stream
/// (context switching between executors, per-stream event bookkeeping).
pub const STREAM_OVERHEAD_FRACTION: f64 = 0.06;

/// Cost of one raw device allocator call (cudaMalloc/cudaFree including the
/// implicit device synchronization the paper's §III-E3 calls "expensive
/// runtime"; under concurrent NVMe DMA traffic these stalls stretch into
/// the milliseconds). Calibrated so disabling the pooled allocator in the
/// otherwise-full system reproduces Fig. 14's 2.2x memory-management bar.
pub const ALLOC_OP_US: u64 = 8_000;

/// Effective bandwidth of ZeRO-Offload/Infinity's fused CPU Adam path
/// (fp16<->fp32 conversion passes plus the update itself; anchors the paper's
/// "less than 57% of Megatron-LM" observation for ZeRO on the 1.7B model).
pub const ZERO_CPU_ADAM_BW: f64 = 8.0e9;

/// Distinct parameter tensors per transformer block (`k` in §III-E3: two
/// layernorm pairs, fused QKV w/b, attention projection w/b, two MLP w/b).
pub const TENSORS_PER_LAYER: usize = 12;

/// Per-layer, per-pass bookkeeping overhead of ZeRO-2/3's partitioned
/// data-parallel machinery (gradient bucketing, partition hooks, launch
/// serialization — dominant at the small per-GPU batches the memory
/// pressure forces). Anchors Fig. 12's ≥2.6× STRONGHOLD advantage.
pub const ZERO_DP_LAYER_OVERHEAD_US: u64 = 45_000;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_util_monotone_and_bounded() {
        let mut last = 0.0;
        for bs in [1.0, 2.0, 4.0, 8.0, 16.0, 64.0] {
            let u = batch_util(bs);
            assert!(u > last);
            assert!(u < 1.0);
            last = u;
        }
    }

    #[test]
    fn efficiency_hits_paper_range_at_16() {
        // At batch 16 the model should deliver the paper's 42–57% of peak.
        let e = kernel_efficiency(16.0);
        assert!((0.42..=0.62).contains(&e), "eff(16) = {e}");
    }

    #[test]
    fn efficiency_never_exceeds_ceiling() {
        for bs in 1..1000 {
            assert!(kernel_efficiency(bs as f64) <= MAX_KERNEL_EFFICIENCY + 1e-9);
        }
    }

    #[test]
    fn host_ceiling_anchor() {
        // 755 GB × usable / 16 bytes per param ≈ 39–40 B parameters.
        let bytes = 755.0 * (1u64 << 30) as f64 * HOST_USABLE_FRACTION;
        let params_b = bytes / 16.0 / 1e9;
        assert!((39.0..41.5).contains(&params_b), "{params_b}");
    }

    #[test]
    fn cluster_pinned_anchor() {
        let bytes = 8.0 * 1024.0 * (1u64 << 30) as f64 * CLUSTER_PINNED_FRACTION;
        let params_b = bytes / 16.0 / 1e9;
        assert!((80.0..85.0).contains(&params_b), "{params_b}");
    }
}
