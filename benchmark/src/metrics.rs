//! The benchmark's metric vocabulary: every name `strongbench` may print,
//! with its unit and the direction that counts as better. `BENCHMARK.json`
//! lists the same names (a unit test keeps the two in step), so a later PR
//! cannot quietly add, drop or rename a number it is judged by.

use std::collections::BTreeMap;

use serde_json::{Map, Value};

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// One named metric.
#[derive(Clone, Copy, Debug)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Higher,
    }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
    }
}

/// End-to-end metrics: measured with telemetry off, reported by every
/// workload, gated by the bounds in `BENCHMARK.json`.
pub const END_TO_END: &[Def] = &[
    lo("setup_s", "s"),
    hi("tokens_per_s", "1/s"),
    lo("step_ms_p50", "ms"),
    lo("peak_device_bytes", "B"),
    lo("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`<layer>.<name>`, layers are this repo's modules):
/// traced run, isolated probes, and the bench-clock serving latencies. Not
/// gated. A layer a workload never enters reports 0.
pub const PER_LAYER: &[Def] = &[
    // tensor — probes at the workload's own GEMM shapes, traced kernel stats.
    hi("tensor.gemm_nn_gflops", "GFLOP/s"),
    hi("tensor.gemm_nt_gflops", "GFLOP/s"),
    hi("tensor.gemm_tn_gflops", "GFLOP/s"),
    lo("tensor.gemm_nn_ms_per_step", "ms"),
    lo("tensor.gemm_nt_ms_per_step", "ms"),
    lo("tensor.gemm_tn_ms_per_step", "ms"),
    lo("tensor.gemm_calls_per_step", "count"),
    lo("tensor.gemm_flops_per_step", "count"),
    hi("tensor.half_pack_gbps", "GB/s"),
    hi("tensor.half_unpack_gbps", "GB/s"),
    // model — probes.
    lo("model.block_fwd_ms", "ms"),
    lo("model.block_bwd_ms", "ms"),
    lo("model.head_loss_ms", "ms"),
    lo("model.embed_us", "us"),
    lo("model.block_decode_us", "us"),
    lo("model.block_prefill_ms", "ms"),
    lo("model.lm_head_us", "us"),
    // offloaded — traced training pipeline, plus the untraced step times.
    lo("offloaded.compute_busy_ms_per_step", "ms"),
    lo("offloaded.h2d_busy_ms_per_step", "ms"),
    lo("offloaded.d2h_busy_ms_per_step", "ms"),
    hi("offloaded.copy_compute_overlap_share", "share"),
    lo("offloaded.shell_wait_ms_per_step", "ms"),
    lo("offloaded.d2h_queue_wait_ms_per_step", "ms"),
    lo("offloaded.prefetch_issued_per_step", "count"),
    lo("offloaded.prefetch_refetched_per_step", "count"),
    lo("offloaded.step_ms_p50", "ms"),
    lo("offloaded.step_ms_p80", "ms"),
    // device — traced.
    lo("device.h2d_bytes_per_step", "B"),
    lo("device.d2h_bytes_per_step", "B"),
    lo("device.h2d_inflight_peak", "count"),
    // optimpool — traced + probes.
    lo("optimpool.busy_ms_per_step", "ms"),
    lo("optimpool.update_us_p50", "us"),
    lo("optimpool.queue_depth_peak", "count"),
    lo("optimpool.updates_per_step", "count"),
    hi("optimpool.adam_gbps", "GB/s"),
    hi("optimpool.read_params_gbps", "GB/s"),
    // tier / nvme — traced + probes; 0 unless layers spill.
    lo("tier.fill_wait_ms_per_step", "ms"),
    lo("tier.spill_read_busy_ms_per_step", "ms"),
    lo("tier.spill_write_busy_ms_per_step", "ms"),
    lo("tier.f2h_bytes_per_step", "B"),
    lo("tier.h2f_bytes_per_step", "B"),
    lo("tier.queue_wait_us_p50", "us"),
    lo("tier.spilled_layers", "count"),
    hi("nvme.read_gbps", "GB/s"),
    hi("nvme.write_gbps", "GB/s"),
    // serve — bench-clock latencies (untraced) and the traced engine.
    lo("serve.queue_wait_ms_p50", "ms"),
    lo("serve.ttft_ms_p50", "ms"),
    lo("serve.ttft_ms_p80", "ms"),
    lo("serve.itl_ms_p50", "ms"),
    lo("serve.request_ms_p50", "ms"),
    lo("serve.request_ms_p80", "ms"),
    lo("serve.round_ms_p50", "ms"),
    lo("serve.rounds", "count"),
    lo("serve.prefill_tokens", "count"),
    lo("serve.decode_tokens", "count"),
    hi("serve.slots_per_round_mean", "count"),
    lo("serve.h2d_busy_share", "share"),
    hi("serve.compute_busy_share", "share"),
    lo("serve.h2d_bytes_per_round", "B"),
    lo("serve.kv_bytes_peak", "B"),
    // resident — the plain single-store baseline on the same task.
    lo("resident.step_ms_p50", "ms"),
    lo("resident.offloaded_over_resident", "ratio"),
    // telemetry — the cost of tracing itself.
    lo("telemetry.overhead_share", "share"),
    lo("telemetry.spans_per_step", "count"),
];

/// One measured value with the number of samples behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sample {
    pub value: f64,
    pub n: usize,
}

/// Collects a phase's metrics by name and renders them against a metric
/// list, so that every listed name is always present (0 where a layer did
/// not run) and no unlisted name slips out.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, Sample>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64, n: usize) {
        self.0.insert(name, Sample { value, n });
    }

    /// `{name: {value, unit, n}}` for every entry of `defs`.
    ///
    /// # Panics
    /// Panics if a metric was set under a name `defs` does not list — a
    /// typo in this benchmark, not a runtime condition.
    pub fn to_json(&self, defs: &[Def]) -> Value {
        let mut out = Map::new();
        for d in defs {
            out.insert(d.name.into(), entry(d, Sample { value: 0.0, n: 0 }));
        }
        self.overlay(defs, &mut out);
        Value::Object(out)
    }

    /// Writes the metrics that were set over their entries in `base`.
    ///
    /// # Panics
    /// As [`Metrics::to_json`].
    pub fn overlay(&self, defs: &[Def], base: &mut Map) {
        for (name, sample) in &self.0 {
            let def = defs
                .iter()
                .find(|d| d.name == *name)
                .unwrap_or_else(|| panic!("metric {name} is not in the metric list"));
            base.insert((*name).into(), entry(def, *sample));
        }
    }
}

fn entry(def: &Def, s: Sample) -> Value {
    let mut m = Map::new();
    m.insert("value".into(), Value::from(s.value));
    m.insert("unit".into(), Value::from(def.unit));
    m.insert("n".into(), Value::from(s.n as u64));
    Value::Object(m)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn names_are_valid_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(d.name), "bad metric name {}", d.name);
            assert!(d.unit.len() <= 16, "unit too long: {}", d.unit);
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    /// `BENCHMARK.json` and this file must name the same metrics with the
    /// same units and directions, in the same order.
    #[test]
    fn benchmark_json_lists_the_same_metrics() {
        let root: Value =
            serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for (key, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed = root[key].as_array().expect("metric array");
            assert_eq!(listed.len(), defs.len(), "{key}: metric count");
            for (j, d) in listed.iter().zip(defs) {
                assert_eq!(j["name"].as_str(), Some(d.name));
                assert_eq!(j["unit"].as_str(), Some(d.unit), "{}", d.name);
                assert_eq!(j["better"].as_str(), Some(d.better.as_str()), "{}", d.name);
            }
        }
        let names: Vec<&str> = root["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("workload name"))
            .collect();
        assert_eq!(names, crate::inputs::WORKLOADS);
    }

    #[test]
    fn missing_metrics_render_as_zero() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.5, 3);
        let j = m.to_json(END_TO_END);
        assert_eq!(j["setup_s"]["value"].as_f64(), Some(1.5));
        assert_eq!(j["setup_s"]["n"].as_u64(), Some(3));
        assert_eq!(j["tokens_per_s"]["value"].as_f64(), Some(0.0));
        assert_eq!(j["tokens_per_s"]["unit"].as_str(), Some("1/s"));
    }

    #[test]
    #[should_panic(expected = "not in the metric list")]
    fn unlisted_metric_is_a_bug() {
        let mut m = Metrics::default();
        m.set("tensor.gemm_nn_gflops", 1.0, 1);
        let _ = m.to_json(END_TO_END);
    }
}
