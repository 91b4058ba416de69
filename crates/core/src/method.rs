//! The common interface every training method implements (STRONGHOLD and all
//! baselines), plus the per-iteration report the harnesses consume.

use stronghold_model::config::ModelConfig;
use stronghold_sim::{Lane, Platform, SimTime, Timeline};

use crate::error::Result;

/// Outcome of simulating one steady-state training iteration.
#[derive(Clone, Debug)]
pub struct IterationReport {
    /// Method that produced this report.
    pub method: String,
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Virtual wall time of one iteration.
    pub iter_time: SimTime,
    /// Training throughput in samples/second.
    pub throughput: f64,
    /// Achieved TFLOP/s (model FLOPs / iteration time).
    pub tflops: f64,
    /// Peak device bytes.
    pub gpu_peak: u64,
    /// Peak host bytes attributable to training state.
    pub cpu_peak: u64,
    /// Fraction of CPU↔GPU copy time hidden under compute.
    pub overlap: f64,
    /// GPU compute utilization over the iteration.
    pub gpu_util: f64,
    /// The full trace (Fig. 4 rendering, lane statistics).
    pub timeline: Timeline,
    /// Working window used (STRONGHOLD only; 0 for baselines).
    pub window: usize,
}

impl IterationReport {
    /// The report of one priced plan: the iteration takes the timeline's
    /// makespan, `overlap` is its copy/compute overlap and `gpu_util` the
    /// mean utilization of its compute lanes. `peaks` is the method's
    /// closed-form `(gpu, cpu)` memory; `flops_per_sample` what one sample
    /// costs (training or forward-only).
    pub fn from_timeline(
        method: impl Into<String>,
        cfg: &ModelConfig,
        timeline: Timeline,
        peaks: (u64, u64),
        window: usize,
        flops_per_sample: u64,
    ) -> Self {
        let compute: Vec<f64> = timeline
            .lanes()
            .into_iter()
            .filter(|l| matches!(l, Lane::Compute(_)))
            .map(|l| timeline.utilization(l))
            .collect();
        let report = IterationReport {
            method: method.into(),
            cfg: *cfg,
            iter_time: timeline.makespan(),
            throughput: 0.0,
            tflops: 0.0,
            gpu_peak: peaks.0,
            cpu_peak: peaks.1,
            overlap: timeline.overlap_fraction(),
            gpu_util: compute.iter().sum::<f64>() / compute.len().max(1) as f64,
            timeline,
            window,
        };
        report.finish(flops_per_sample, cfg.batch)
    }

    /// Derives throughput/TFLOPs fields from the timeline and model.
    fn finish(mut self, total_flops_per_sample: u64, batch: usize) -> Self {
        let secs = self.iter_time.as_secs_f64();
        if secs > 0.0 {
            self.throughput = batch as f64 / secs;
            self.tflops = total_flops_per_sample as f64 * batch as f64 / secs / 1e12;
        }
        self
    }
}

/// A training method: a memory-placement policy plus an iteration scheduler.
pub trait TrainingMethod {
    /// Human-readable name, e.g. `"ZeRO-Offload"`.
    fn name(&self) -> &'static str;

    /// Whether `cfg` trains on `platform` without OOM under this method.
    fn feasible(&self, cfg: &ModelConfig, platform: &Platform) -> bool;

    /// Simulates one steady-state iteration; `Err` when infeasible.
    fn iteration(&self, cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport>;
}

/// Total training FLOPs of one sample (FP + BP including recompute), used to
/// report achieved TFLOP/s like the paper (§VI-B).
pub fn flops_per_sample(cfg: &ModelConfig) -> u64 {
    stronghold_model::layer::build_layers(cfg)
        .iter()
        .map(|l| l.flops_fp + l.flops_bp + l.flops_fp) // fwd + bwd + recompute
        .sum()
}

/// Binary-searches the largest trainable model (in transformer layers at a
/// fixed width) for a method on a platform. Returns the last feasible
/// configuration, or `None` if even one layer OOMs.
pub fn max_trainable_layers(
    method: &dyn TrainingMethod,
    base: &ModelConfig,
    platform: &Platform,
    max_layers: usize,
) -> Option<ModelConfig> {
    let with_layers = |n: usize| {
        let mut c = *base;
        c.layers = n;
        c
    };
    if !method.feasible(&with_layers(1), platform) {
        return None;
    }
    let (mut lo, mut hi) = (1usize, max_layers);
    if method.feasible(&with_layers(hi), platform) {
        return Some(with_layers(hi));
    }
    // Invariant: lo feasible, hi infeasible.
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if method.feasible(&with_layers(mid), platform) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(with_layers(lo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;

    struct FakeMethod {
        cap_layers: usize,
    }

    impl TrainingMethod for FakeMethod {
        fn name(&self) -> &'static str {
            "fake"
        }
        fn feasible(&self, cfg: &ModelConfig, _p: &Platform) -> bool {
            cfg.layers <= self.cap_layers
        }
        fn iteration(&self, cfg: &ModelConfig, p: &Platform) -> Result<IterationReport> {
            if !self.feasible(cfg, p) {
                return Err(crate::error::RuntimeError::Infeasible {
                    method: self.name().into(),
                    reason: format!("{} layers exceeds cap {}", cfg.layers, self.cap_layers),
                });
            }
            // A fixed virtual millisecond per layer: enough structure for
            // the report plumbing (finish(), rate derivation) to be
            // exercised end to end.
            let iter_time = SimTime::from_millis(cfg.layers as u64);
            let report = IterationReport {
                method: self.name().into(),
                cfg: *cfg,
                iter_time,
                throughput: 0.0,
                tflops: 0.0,
                gpu_peak: 0,
                cpu_peak: 0,
                overlap: 0.0,
                gpu_util: 0.0,
                timeline: Timeline::new(),
                window: 0,
            };
            Ok(report.finish(flops_per_sample(cfg), cfg.batch))
        }
    }

    #[test]
    fn binary_search_finds_exact_cap() {
        let p = Platform::v100_server();
        let base = common_1_7b();
        for cap in [1, 2, 7, 20, 333, 999] {
            let m = FakeMethod { cap_layers: cap };
            let found = max_trainable_layers(&m, &base, &p, 2000).unwrap();
            assert_eq!(found.layers, cap, "cap {cap}");
        }
    }

    #[test]
    fn infeasible_at_one_layer_returns_none() {
        let p = Platform::v100_server();
        let m = FakeMethod { cap_layers: 0 };
        assert!(max_trainable_layers(&m, &common_1_7b(), &p, 100).is_none());
    }

    #[test]
    fn cap_beyond_max_returns_max() {
        let p = Platform::v100_server();
        let m = FakeMethod { cap_layers: 5000 };
        let found = max_trainable_layers(&m, &common_1_7b(), &p, 100).unwrap();
        assert_eq!(found.layers, 100);
    }

    #[test]
    fn fake_iteration_reports_rates_when_feasible() {
        let p = Platform::v100_server();
        let cfg = common_1_7b();
        let m = FakeMethod {
            cap_layers: cfg.layers,
        };
        let r = m.iteration(&cfg, &p).expect("feasible config");
        assert_eq!(r.method, "fake");
        assert_eq!(r.iter_time, SimTime::from_millis(cfg.layers as u64));
        let secs = r.iter_time.as_secs_f64();
        assert!((r.throughput - cfg.batch as f64 / secs).abs() < 1e-9);
        assert!(r.tflops > 0.0);

        let tight = FakeMethod {
            cap_layers: cfg.layers - 1,
        };
        let err = tight.iteration(&cfg, &p).unwrap_err();
        assert!(err.to_string().contains("infeasible"));
    }

    #[test]
    fn report_finish_computes_rates() {
        let r = IterationReport {
            method: "x".into(),
            cfg: common_1_7b(),
            iter_time: SimTime::from_secs_f64(2.0),
            throughput: 0.0,
            tflops: 0.0,
            gpu_peak: 0,
            cpu_peak: 0,
            overlap: 1.0,
            gpu_util: 1.0,
            timeline: Timeline::new(),
            window: 0,
        };
        let r = r.finish(1_000_000_000_000, 4);
        assert!((r.throughput - 2.0).abs() < 1e-9);
        assert!((r.tflops - 2.0).abs() < 1e-9);
    }

    #[test]
    fn flops_per_sample_positive_and_scales() {
        let f1 = flops_per_sample(&common_1_7b());
        let mut big = common_1_7b();
        big.layers *= 2;
        let f2 = flops_per_sample(&big);
        assert!(f2 > f1 + f1 / 2);
    }
}
