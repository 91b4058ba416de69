//! The user-facing STRONGHOLD facade.
//!
//! Mirrors the paper's deployment story: the user wraps a model exactly as
//! they would for data-parallel PyTorch training — no code refactoring — and
//! the runtime derives everything else (window size, stream count) during
//! warm-up.

use stronghold_model::config::ModelConfig;
use stronghold_sim::Platform;

use crate::analytic::WindowPlan;
use crate::error::Result;
use crate::memplan::{ColdTier, StrongholdMemPlan};
use crate::method::{IterationReport, TrainingMethod};
use crate::multistream::choose_streams;
use crate::offload::{derive_window, simulate_iteration, OffloadOptions};
use crate::profile::LayerProfile;

/// The STRONGHOLD training method.
///
/// # Examples
///
/// Train the paper's headline 39.4B model on a simulated 32 GB V100:
///
/// ```
/// use stronghold_core::{Stronghold, TrainingMethod};
/// use stronghold_model::config::model_39_4b;
/// use stronghold_sim::Platform;
///
/// let v100 = Platform::v100_server();
/// let sh = Stronghold::new();
/// assert!(sh.feasible(&model_39_4b(), &v100));
/// let report = sh.iteration(&model_39_4b(), &v100).unwrap();
/// assert!(report.throughput > 0.0);
/// assert!(report.gpu_peak < 32 * (1 << 30)); // fits the device
/// ```
#[derive(Clone, Copy, Debug, Default)]
pub struct Stronghold {
    /// Fixed working-window size; `None` = analytic (§III-D).
    pub window: Option<usize>,
    /// Cold-tier placement: CPU RAM, or NVMe with a CPU staging cache
    /// (§III-G).
    pub cold_tier: ColdTier,
}

impl Stronghold {
    /// Default runtime (everything auto-tuned).
    pub fn new() -> Self {
        Stronghold::default()
    }

    fn offload_options(&self, streams: usize) -> OffloadOptions {
        OffloadOptions {
            window: self.window,
            streams,
            cold_tier: self.cold_tier,
            ..OffloadOptions::default()
        }
    }

    /// Runs the warm-up phase: profiles layers, solves the window, picks the
    /// stream count. Returns `(window, streams, diagnostics)`.
    pub fn warmup(
        &self,
        cfg: &ModelConfig,
        platform: &Platform,
    ) -> Result<(usize, usize, Option<WindowPlan>)> {
        let base = self.offload_options(1);
        let window = derive_window(cfg, platform, &base)?;
        let streams = choose_streams(cfg, platform, &base)?;
        // Re-derive diagnostics for reporting.
        let plan = StrongholdMemPlan::new(*cfg, streams, self.cold_tier);
        let cost = stronghold_sim::CostModel::new(*platform);
        let profile = LayerProfile::from_cost_model(plan.layers(), &cost, cfg.batch);
        let diag = crate::analytic::solve_window(
            &profile,
            |m| plan.gpu_usage(m),
            StrongholdMemPlan::gpu_capacity(platform),
        );
        Ok((window, streams, diag))
    }
}

impl TrainingMethod for Stronghold {
    fn name(&self) -> &'static str {
        "STRONGHOLD"
    }

    fn feasible(&self, cfg: &ModelConfig, platform: &Platform) -> bool {
        let plan = StrongholdMemPlan::new(*cfg, 1, self.cold_tier);
        plan.feasible(platform, 1)
    }

    fn iteration(&self, cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport> {
        let streams = choose_streams(cfg, platform, &self.offload_options(1))?;
        simulate_iteration(cfg, platform, &self.offload_options(streams))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::method::max_trainable_layers;
    use stronghold_model::config::{common_1_7b, ModelConfig};

    #[test]
    fn warmup_produces_plan() {
        let sh = Stronghold::new();
        let (window, streams, diag) = sh.warmup(&common_1_7b(), &Platform::v100_server()).unwrap();
        assert!(window >= 1);
        assert!(streams >= 1);
        let diag = diag.unwrap();
        assert!(diag.hard_feasible);
    }

    #[test]
    fn headline_max_size_on_v100_matches_paper() {
        // Fig. 6a: STRONGHOLD trains ~39.5B on the 32 GB V100 + 755 GB host.
        let sh = Stronghold::new();
        let base = ModelConfig::new(1, 2560, 16);
        let best = max_trainable_layers(&sh, &base, &Platform::v100_server(), 4000).unwrap();
        let billions = best.billions();
        assert!(
            (36.0..44.0).contains(&billions),
            "STRONGHOLD V100 ceiling {billions:.1}B, paper reports 39.5B"
        );
    }

    #[test]
    fn nvme_extends_the_ceiling() {
        // Fig. 10: with NVMe both STRONGHOLD and ZeRO-Infinity reach ~0.5T.
        let ram_only = Stronghold::new();
        let nvme = Stronghold {
            cold_tier: ColdTier::Nvme {
                cpu_cache_layers: 64,
            },
            ..Stronghold::default()
        };
        let base = ModelConfig::new(1, 2560, 16);
        let v100 = Platform::v100_server();
        let cap_ram = max_trainable_layers(&ram_only, &base, &v100, 8000).unwrap();
        let cap_nvme = max_trainable_layers(&nvme, &base, &v100, 8000).unwrap();
        assert!(
            cap_nvme.billions() > 4.0 * cap_ram.billions(),
            "nvme {:.1}B vs ram {:.1}B",
            cap_nvme.billions(),
            cap_ram.billions()
        );
    }

    #[test]
    fn iteration_through_trait() {
        let sh = Stronghold::new();
        let r = sh
            .iteration(&common_1_7b(), &Platform::v100_server())
            .unwrap();
        assert_eq!(r.method, "STRONGHOLD");
        assert!(r.throughput > 0.0);
    }
}
