//! STRONGHOLD's memory placement plan: what lives where, as a function of
//! the working-window size. Feeds both the analytic solver's memory
//! constraint (1c)/(2c) and the largest-trainable-model searches.

use stronghold_model::config::ModelConfig;
use stronghold_model::layer::{build_layers, LayerKind, LayerSpec};
use stronghold_model::memory;
use stronghold_sim::calibration as cal;
use stronghold_sim::Platform;

/// Where the cold tier of layer states lives.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ColdTier {
    /// All non-resident layer states in (pinned) CPU RAM.
    #[default]
    CpuRam,
    /// Layer states on NVMe, with a CPU staging cache (§III-G).
    Nvme {
        /// Number of layer states kept staged in CPU RAM.
        cpu_cache_layers: usize,
    },
}

/// The memory plan of one STRONGHOLD configuration.
#[derive(Clone, Debug)]
pub struct StrongholdMemPlan {
    layers: Vec<LayerSpec>,
    cfg: ModelConfig,
    /// Concurrent training streams (§IV-A); 1 = single executor.
    pub streams: usize,
    /// Cold-tier placement.
    pub cold_tier: ColdTier,
}

impl StrongholdMemPlan {
    /// Builds the plan for a configuration.
    pub fn new(cfg: ModelConfig, streams: usize, cold_tier: ColdTier) -> Self {
        StrongholdMemPlan {
            layers: build_layers(&cfg),
            cfg,
            streams: streams.max(1),
            cold_tier,
        }
    }

    /// Layer specs in execution order.
    pub fn layers(&self) -> &[LayerSpec] {
        &self.layers
    }

    fn pinned_layers(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers
            .iter()
            .filter(|l| matches!(l.kind, LayerKind::Embedding | LayerKind::Head))
    }

    fn blocks(&self) -> impl Iterator<Item = &LayerSpec> {
        self.layers.iter().filter(|l| l.kind == LayerKind::Block)
    }

    /// A representative (largest) offloadable layer.
    pub fn max_block(&self) -> Option<&LayerSpec> {
        self.blocks().max_by_key(|l| l.params)
    }

    /// Device bytes needed for a working window of `m` layers.
    ///
    /// Components (Fig. 3 + §III-E1/E3):
    /// * pinned embedding + head layers with full state (GPU-updated);
    /// * the *first window*: `m` layers kept resident across the BP→FP
    ///   boundary with full state (their optimizer runs on the GPU);
    /// * `m` sliding slots sized for the BP worst case (params + grads +
    ///   the layer's activation checkpoint) plus one incoming-layer buffer
    ///   (the `s^j` term of (1c));
    /// * per-stream transient workspace and boundary activations;
    /// * for `k > 1` streams: each extra executor needs its own gradient
    ///   buffer over the window and its own workspace (§IV-A keeps a single
    ///   copy of parameters).
    pub fn gpu_usage(&self, m: usize) -> u64 {
        let batch = self.cfg.batch as u64;
        let per_stream_batch = (self.cfg.batch as u64).div_ceil(self.streams as u64);
        let resident: u64 = self.pinned_layers().map(|l| l.full_state_bytes()).sum();
        let block = match self.max_block() {
            Some(b) => b,
            None => return resident,
        };
        let m = m as u64;
        let ckpt = block.act_checkpoint_bytes * batch;
        let first_window = m * (block.full_state_bytes() + ckpt);
        let slot = block.bp_state_bytes() + ckpt;
        let sliding = (m + 1) * slot; // +1 incoming buffer
        let workspace = block.act_workspace_bytes * per_stream_batch * self.streams as u64;
        let boundary = memory::boundary_activation_bytes(&self.cfg) * batch * 2;
        let extra_streams = (self.streams as u64 - 1) * (m * block.grad_bytes());
        resident + first_window + sliding + workspace + boundary + extra_streams
    }

    /// CPU RAM bytes required (pinned model-state storage for every
    /// offloadable layer, §III-E3, or the NVMe staging cache).
    pub fn cpu_usage(&self) -> u64 {
        let all_states: u64 = self.blocks().map(|l| l.full_state_bytes()).sum();
        match self.cold_tier {
            ColdTier::CpuRam => all_states,
            ColdTier::Nvme { cpu_cache_layers } => {
                let per_layer = self.max_block().map_or(0, |b| b.full_state_bytes());
                (cpu_cache_layers as u64 * per_layer).min(all_states)
            }
        }
    }

    /// NVMe bytes required (zero without the NVMe tier).
    ///
    /// The swap file holds the FP32 parameter image only: gradients are
    /// consumed in flight by the CPU optimizers, and Adam moments live in
    /// the CPU staging cache for the layers being touched (the paper's
    /// §III-G scenario is fine-tuning, not from-scratch training).
    /// Calibrated against Fig. 10: the 2 TB device admits the ~0.5 T
    /// parameter models the paper reports.
    pub fn nvme_usage(&self) -> u64 {
        match self.cold_tier {
            ColdTier::CpuRam => 0,
            ColdTier::Nvme { .. } => self.blocks().map(|l| l.param_bytes()).sum(),
        }
    }

    /// Usable device capacity on `platform` (after runtime reservation).
    pub fn gpu_capacity(platform: &Platform) -> u64 {
        memory::usable_device_bytes(platform.gpu.mem_bytes)
    }

    /// Usable host capacity on `platform` for pinned model states.
    pub fn cpu_capacity(platform: &Platform) -> u64 {
        if platform.nodes > 1 {
            (platform.cpu.ram_bytes as f64 * cal::CLUSTER_PINNED_FRACTION) as u64
        } else {
            (platform.cpu.ram_bytes as f64 * cal::HOST_USABLE_FRACTION) as u64
        }
    }

    /// Whether the plan fits the platform with window `m`.
    pub fn feasible(&self, platform: &Platform, m: usize) -> bool {
        if self.gpu_usage(m) > Self::gpu_capacity(platform) {
            return false;
        }
        if self.cpu_usage() > Self::cpu_capacity(platform) {
            return false;
        }
        if let Some(nvme) = platform.nvme {
            if self.nvme_usage() > nvme.capacity {
                return false;
            }
        } else if self.nvme_usage() > 0 {
            return false;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::{common_1_7b, model_39_4b, ModelConfig};

    #[test]
    fn gpu_usage_monotone_in_window() {
        let plan = StrongholdMemPlan::new(common_1_7b(), 1, ColdTier::CpuRam);
        let mut last = 0;
        for m in 1..10 {
            let u = plan.gpu_usage(m);
            assert!(u > last);
            last = u;
        }
    }

    #[test]
    fn the_39b_model_fits_v100_platform() {
        // The paper's headline: 39.5B trains on one 32 GB V100 + 755 GB host.
        let plan = StrongholdMemPlan::new(model_39_4b(), 1, ColdTier::CpuRam);
        let v100 = Platform::v100_server();
        assert!(plan.feasible(&v100, 4), "39.4B must fit with a window of 4");
    }

    #[test]
    fn a_45b_model_exceeds_host_ram() {
        let cfg = ModelConfig::new(570, 2560, 16); // ~44.9B
        let plan = StrongholdMemPlan::new(cfg, 1, ColdTier::CpuRam);
        let v100 = Platform::v100_server();
        assert!(
            !plan.feasible(&v100, 1),
            "45B should exceed the CPU pinned budget"
        );
    }

    #[test]
    fn nvme_tier_moves_pressure_off_host() {
        let cfg = ModelConfig::new(1000, 2560, 16); // ~79B
        let v100 = Platform::v100_server();
        let ram_only = StrongholdMemPlan::new(cfg, 1, ColdTier::CpuRam);
        assert!(!ram_only.feasible(&v100, 1));
        let nvme = StrongholdMemPlan::new(
            cfg,
            1,
            ColdTier::Nvme {
                cpu_cache_layers: 32,
            },
        );
        assert!(
            nvme.feasible(&v100, 1),
            "NVMe tier should admit the 79B model"
        );
        assert!(nvme.nvme_usage() > 0);
        assert!(nvme.cpu_usage() < ram_only.cpu_usage());
    }

    #[test]
    fn extra_streams_cost_memory() {
        let one = StrongholdMemPlan::new(common_1_7b(), 1, ColdTier::CpuRam);
        let four = StrongholdMemPlan::new(common_1_7b(), 4, ColdTier::CpuRam);
        assert!(four.gpu_usage(4) > one.gpu_usage(4));
    }

    #[test]
    fn cluster_capacity_uses_pinned_fraction() {
        let v100 = Platform::v100_server();
        let a10 = Platform::a10_cluster_8();
        let f_single = StrongholdMemPlan::cpu_capacity(&v100) as f64 / v100.cpu.ram_bytes as f64;
        let f_cluster = StrongholdMemPlan::cpu_capacity(&a10) as f64 / a10.cpu.ram_bytes as f64;
        assert!(f_single > 0.7);
        assert!(f_cluster < 0.2);
    }
}
