//! Plain-framework inference (the PyTorch comparator of Fig. 13).
//!
//! Two comparators live here:
//!
//! * [`PlainInference`] — the sim-priced forward pass that OOMs beyond
//!   device memory (the Fig. 13 crossover);
//! * [`StaticBatchGenerator`] — a *real* fully-resident generation loop
//!   with naive static batching: a batch is admitted, every slot computes
//!   every round until the batch's **longest** request finishes (padded
//!   compute), and the next batch waits for the full drain. It drives its
//!   padded batch through the exact same stacked decode entries
//!   ([`DecodeBatch`]: one GEMM per linear over the whole batch) as
//!   [`stronghold_core::serve::ServeEngine`], so it doubles as the
//!   bit-equality reference proving layer streaming does not change the
//!   math — and as the throughput baseline continuous batching is measured
//!   against, differing in schedule only.

use std::time::Instant;

use rand_chacha::ChaCha8Rng;
use stronghold_core::error::{Result, RuntimeError};
use stronghold_core::method::IterationReport;
use stronghold_core::serve::{sample, GenRequest, GenResult};
use stronghold_model::config::ModelConfig;
use stronghold_model::memory;
use stronghold_model::transformer::{DecodeBatch, Transformer};
use stronghold_sim::{CostModel, FifoResource, Lane, Platform, SimTime, Timeline};
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::init::seeded_rng;

use crate::common::{gpu_capacity, layers_of};

/// The plain inference baseline.
#[derive(Clone, Copy, Debug, Default)]
pub struct PlainInference;

impl PlainInference {
    /// Device bytes for FP-only serving: all parameters + workspace +
    /// hidden states.
    pub fn gpu_usage(cfg: &ModelConfig) -> u64 {
        let params: u64 = layers_of(cfg).iter().map(|l| l.param_bytes()).sum();
        params
            + memory::peak_workspace_bytes(cfg)
            + memory::boundary_activation_bytes(cfg) * cfg.batch as u64 * 2
    }

    /// Whether serving fits the device.
    pub fn feasible(cfg: &ModelConfig, platform: &Platform) -> bool {
        Self::gpu_usage(cfg) <= gpu_capacity(platform)
    }

    /// One forward pass over a batch.
    pub fn inference(cfg: &ModelConfig, platform: &Platform) -> Result<IterationReport> {
        if !Self::feasible(cfg, platform) {
            return Err(RuntimeError::Infeasible {
                method: "PyTorch".into(),
                reason: "parameters exceed device memory".into(),
            });
        }
        let cost = CostModel::new(*platform);
        let layers = layers_of(cfg);
        let mut compute = FifoResource::new("compute");
        let mut tl = Timeline::new();
        let mut prev = SimTime::ZERO;
        for (i, l) in layers.iter().enumerate() {
            let (s, e) = compute.schedule(prev, cost.layer_fp(l, cfg.batch));
            tl.record(Lane::Compute(0), format!("fp L{i}"), s, e);
            prev = e;
        }
        let fp_flops: u64 = layers.iter().map(|l| l.flops_fp).sum();
        let report = IterationReport {
            method: "PyTorch".into(),
            cfg: *cfg,
            iter_time: tl.makespan(),
            throughput: 0.0,
            tflops: 0.0,
            gpu_peak: Self::gpu_usage(cfg),
            cpu_peak: 0,
            overlap: 1.0,
            gpu_util: tl.utilization(Lane::Compute(0)),
            timeline: tl,
            window: 0,
        };
        Ok(report.finish(fp_flops, cfg.batch))
    }
}

/// Configuration of a [`StaticBatchGenerator`].
#[derive(Clone, Debug)]
pub struct StaticBatchConfig {
    /// Batch width: requests admitted together and drained together.
    pub slots: usize,
    /// Per-sequence token capacity; `0` means the model's trained context.
    pub max_seq: usize,
    /// Sampling temperature; `0.0` is greedy (see
    /// [`stronghold_core::serve::sample`]).
    pub temperature: f32,
}

impl Default for StaticBatchConfig {
    fn default() -> Self {
        StaticBatchConfig {
            slots: 2,
            max_seq: 0,
            temperature: 0.0,
        }
    }
}

/// Naive static-batching generation over a fully-resident model.
///
/// The framework-default serving loop: requests are grouped into fixed
/// batches, every slot runs the forward pass every round (finished
/// sequences burn padded compute), and admission only happens when the
/// whole batch has drained. Because it calls the same batch-stable decode
/// kernels as the streaming engine, greedy token streams are bit-identical
/// to [`stronghold_core::serve::ServeEngine`] — only the schedule differs.
pub struct StaticBatchGenerator {
    model: Transformer,
    /// KV caches `[layer][slot]`, preallocated once.
    kv: Vec<Vec<KvCache>>,
    batch: DecodeBatch,
    slots: usize,
    max_seq: usize,
    temperature: f32,
}

impl StaticBatchGenerator {
    /// Builds a generator over a freshly initialized model.
    pub fn new(mcfg: ModelConfig, seed: u64, cfg: StaticBatchConfig) -> Self {
        Self::from_model(Transformer::new(mcfg, seed), cfg)
    }

    /// Builds a generator over an existing model (kept fully resident).
    pub fn from_model(model: Transformer, cfg: StaticBatchConfig) -> Self {
        let mcfg = model.cfg;
        assert!(cfg.slots > 0, "static batching: need at least one slot");
        let max_seq = if cfg.max_seq == 0 {
            mcfg.seq
        } else {
            cfg.max_seq.min(mcfg.seq)
        };
        let heads = mcfg.heads;
        let dh = mcfg.hidden / heads;
        let kv = (0..mcfg.layers)
            .map(|_| {
                (0..cfg.slots)
                    .map(|_| KvCache::new(heads, dh, max_seq))
                    .collect()
            })
            .collect();
        StaticBatchGenerator {
            model,
            kv,
            batch: DecodeBatch::new(),
            slots: cfg.slots,
            max_seq,
            temperature: cfg.temperature,
        }
    }

    /// Total FP32 parameter bytes held resident on the device.
    pub fn param_bytes(&self) -> u64 {
        self.model.param_count() * 4
    }

    /// Runs a closed-system workload: all requests arrive up front, batches
    /// of `slots` drain strictly in FIFO order. Latency therefore includes
    /// the queueing delay behind earlier batches — the convoy effect the
    /// continuous engine exists to remove.
    pub fn generate(&mut self, reqs: Vec<GenRequest>) -> Vec<GenResult> {
        let clock = Instant::now();
        let mut out = Vec::with_capacity(reqs.len());
        for batch in reqs.chunks(self.slots) {
            let batch_max_new = batch.iter().map(|r| r.max_new_tokens).max().unwrap_or(0);
            for r in batch {
                assert!(!r.prompt.is_empty(), "static batching: empty prompt");
                // Padded compute pushes up to the batch maximum into every
                // slot's cache, so capacity is checked against the batch.
                assert!(
                    r.prompt.len() + batch_max_new <= self.max_seq,
                    "static batching: batch needs {} tokens, slot capacity is {}",
                    r.prompt.len() + batch_max_new,
                    self.max_seq
                );
            }
            let submit_ns = clock.elapsed().as_nanos() as u64;
            let mut rngs: Vec<ChaCha8Rng> = batch.iter().map(|r| seeded_rng(r.seed)).collect();
            let mut pending: Vec<Vec<u32>> = batch.iter().map(|r| r.prompt.clone()).collect();
            let mut results: Vec<GenResult> = batch
                .iter()
                .map(|r| GenResult {
                    id: r.id,
                    prompt_len: r.prompt.len(),
                    tokens: Vec::with_capacity(r.max_new_tokens),
                    queue_ns: submit_ns,
                    ttft_ns: 0,
                    latency_ns: 0,
                    rounds: 0,
                })
                .collect();
            for layer in self.kv.iter_mut() {
                for kv in layer.iter_mut().take(batch.len()) {
                    kv.clear();
                }
            }
            // Padded rounds: round 0 is the batch prefill, every later
            // round decodes one token; ALL slots run ALL rounds until the
            // longest request finishes, stacked into one activation.
            for round in 0..batch_max_new {
                self.batch.clear();
                for (b, run) in pending.iter().enumerate() {
                    self.batch.push(&self.model, b, run, self.kv[0][b].len());
                }
                for (block, caches) in self.model.blocks.iter().zip(self.kv.iter_mut()) {
                    self.batch.block_forward(block, caches);
                }
                self.batch.head(&self.model);
                let now = clock.elapsed().as_nanos() as u64;
                for (b, req) in batch.iter().enumerate() {
                    let res = &mut results[b];
                    // A finished sequence keeps burning padded compute on
                    // its last token until the batch drains.
                    if res.tokens.len() == req.max_new_tokens {
                        continue;
                    }
                    let tok = sample(self.batch.logits(b), self.temperature, &mut rngs[b]);
                    res.tokens.push(tok);
                    res.rounds = round as u64 + 1;
                    if res.tokens.len() == 1 {
                        res.ttft_ns = now.saturating_sub(submit_ns);
                    }
                    if res.tokens.len() == req.max_new_tokens {
                        res.latency_ns = now.saturating_sub(submit_ns);
                    }
                    pending[b].clear();
                    pending[b].push(tok);
                }
            }
            out.append(&mut results);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stronghold_model::config::common_1_7b;

    #[test]
    fn serves_small_models() {
        let r = PlainInference::inference(&common_1_7b(), &Platform::v100_server()).unwrap();
        assert!(r.throughput > 0.0);
    }

    #[test]
    fn ooms_on_large_models() {
        // ~23.7B parameters: 95 GB of FP32 weights cannot serve on 32 GB.
        let big = ModelConfig::new(300, 2560, 16);
        assert!(!PlainInference::feasible(&big, &Platform::v100_server()));
        assert!(PlainInference::inference(&big, &Platform::v100_server()).is_err());
    }

    #[test]
    fn stronghold_inference_survives_where_pytorch_ooms() {
        // The Fig. 13 crossover.
        let big = ModelConfig::new(300, 2560, 16);
        let v100 = Platform::v100_server();
        assert!(!PlainInference::feasible(&big, &v100));
        assert!(stronghold_core::inference::inference_feasible(&big, &v100));
    }

    fn gen_reqs(lens: &[usize]) -> Vec<GenRequest> {
        lens.iter()
            .enumerate()
            .map(|(i, &n)| GenRequest {
                id: i as u64,
                prompt: (0..4u32).map(|t| (t * 5 + i as u32) % 64).collect(),
                max_new_tokens: n,
                seed: 40 + i as u64,
            })
            .collect()
    }

    #[test]
    fn static_batching_completes_every_request() {
        use stronghold_model::config::tiny;
        let mut g = StaticBatchGenerator::new(tiny(3), 9, StaticBatchConfig::default());
        let out = g.generate(gen_reqs(&[5, 2, 3, 1]));
        assert_eq!(out.len(), 4);
        for (r, want) in out.iter().zip([5, 2, 3, 1]) {
            assert_eq!(r.tokens.len(), want);
            assert!(r.latency_ns >= r.ttft_ns);
        }
    }

    #[test]
    fn static_batching_pads_to_the_batch_longest() {
        use stronghold_model::config::tiny;
        let mut g = StaticBatchGenerator::new(tiny(2), 9, StaticBatchConfig::default());
        let out = g.generate(gen_reqs(&[6, 1]));
        // The short request finished on round 1 but its slot drained with
        // the batch: its latency is its own, its batch held 6 rounds.
        assert_eq!(out[0].rounds, 6);
        assert_eq!(out[1].rounds, 1);
        assert_eq!(out[1].tokens.len(), 1);
    }

    #[test]
    fn static_streams_match_the_continuous_engine_bitwise() {
        use stronghold_core::serve::{ServeConfig, ServeEngine};
        use stronghold_model::config::tiny;
        let mcfg = tiny(3);
        let reqs = gen_reqs(&[4, 2, 5, 3]);
        let mut stat = StaticBatchGenerator::new(mcfg, 9, StaticBatchConfig::default());
        let mut cont = ServeEngine::new(mcfg, 9, ServeConfig::default());
        let mut a = stat.generate(reqs.clone());
        let mut b = cont.generate(reqs);
        a.sort_by_key(|r| r.id);
        b.sort_by_key(|r| r.id);
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(
                x.tokens, y.tokens,
                "req {}: schedules must not change math",
                x.id
            );
        }
    }
}
