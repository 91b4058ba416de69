//! Isolated probes: direct, single-threaded-driver calls into each layer's
//! public functions at the shapes the workload issues, with nothing else
//! running. They say what a layer *can* do; the traced run says what it did
//! inside the pipeline.

use std::time::{Duration, Instant};

use stronghold_core::adam::AdamParams;
use stronghold_core::nvme::NvmeStore;
use stronghold_core::optimpool::LayerStore;
use stronghold_model::block::BlockDecodeScratch;
use stronghold_model::config::ModelConfig;
use stronghold_model::transformer::{HeadDecodeScratch, Transformer};
use stronghold_tensor::attention::KvCache;
use stronghold_tensor::init::{normal, seeded_rng};
use stronghold_tensor::matmul::{
    matmul_into, matmul_nn_stable, matmul_nt_into, matmul_nt_stable, matmul_tn_into,
};
use stronghold_tensor::{scratch, PackedHalf, Tensor};

use crate::inputs::{Batch, ServeSpec, TrainSpec};
use crate::metrics::Metrics;
use crate::stats::median;

/// Median seconds per call of `f` over as many calls as fit in `budget`
/// (at least five), after one untimed call that faults pages in and fills
/// the scratch pools.
fn time_reps(budget: Duration, mut f: impl FnMut()) -> (f64, usize) {
    f();
    let mut samples = Vec::new();
    let start = Instant::now();
    while samples.len() < 5 || (start.elapsed() < budget && samples.len() < 100_000) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    (median(&samples), samples.len())
}

/// One-block model with the workload's shapes (probes need one layer).
fn one_block(cfg: ModelConfig, seed: u64) -> Transformer {
    Transformer::new(ModelConfig { layers: 1, ..cfg }, seed)
}

fn random(rows: usize, cols: usize, seed: u64) -> Tensor {
    normal([rows, cols], 0.02, &mut seeded_rng(seed))
}

/// The `(in, out)` features of a block's four linears.
fn linear_shapes(h: usize) -> [(usize, usize); 4] {
    [(h, 3 * h), (h, h), (h, 4 * h), (4 * h, h)]
}

/// Aggregate GFLOP/s of `kernel` over the block's four linear shapes at `m`
/// rows: total FLOPs over total median time.
fn gemm_gflops(
    m: usize,
    h: usize,
    budget: Duration,
    mut kernel: impl FnMut(usize, usize, Duration) -> (f64, usize),
) -> (f64, usize) {
    let (mut flops, mut secs, mut n) = (0.0, 0.0, 0);
    for (k_in, k_out) in linear_shapes(h) {
        let (s, reps) = kernel(k_in, k_out, budget / 4);
        flops += 2.0 * (m * k_in * k_out) as f64;
        secs += s;
        n += reps;
    }
    (flops / secs / 1e9, n)
}

fn gbps(bytes: usize, secs: f64) -> f64 {
    bytes as f64 / secs / 1e9
}

/// Probes for a training workload. `batch` supplies real token inputs.
pub fn train(spec: &TrainSpec, seed: u64, batch: &Batch, budget: Duration, out: &mut Metrics) {
    let cfg = spec.model;
    let (t, h) = (spec.sample_tokens(), cfg.hidden);
    let model = one_block(cfg, seed);
    let block = &model.blocks[0];
    let (tokens, targets) = &batch[0];

    // tensor: the three GEMM layouts as the block's linears issue them —
    // forward y = x·Wᵀ (nt), input gradient dx = dy·W (nn), weight gradient
    // dW = dyᵀ·x (tn).
    let (g, n) = gemm_gflops(t, h, budget, |k_in, k_out, b| {
        let (x, w, mut y) = (
            random(t, k_in, 1),
            random(k_out, k_in, 2),
            Tensor::zeros([1]),
        );
        time_reps(b, || matmul_nt_into(&x, &w, &mut y))
    });
    out.set("tensor.gemm_nt_gflops", g, n);
    let (g, n) = gemm_gflops(t, h, budget, |k_in, k_out, b| {
        let (dy, w, mut dx) = (
            random(t, k_out, 3),
            random(k_out, k_in, 4),
            Tensor::zeros([1]),
        );
        time_reps(b, || matmul_into(&dy, &w, &mut dx))
    });
    out.set("tensor.gemm_nn_gflops", g, n);
    let (g, n) = gemm_gflops(t, h, budget, |k_in, k_out, b| {
        let (dy, x, mut dw) = (random(t, k_out, 5), random(t, k_in, 6), Tensor::zeros([1]));
        time_reps(b, || matmul_tn_into(&dy, &x, &mut dw))
    });
    out.set("tensor.gemm_tn_gflops", g, n);

    // model: one block forward, one backward (cache given), head + loss.
    let x = model.embed(tokens);
    let (s, n) = time_reps(budget, || scratch::give(model.embed(tokens)));
    out.set("model.embed_us", s * 1e6, n);
    let (s, n) = time_reps(budget, || scratch::give(block.forward_no_cache(&x)));
    out.set("model.block_fwd_ms", s * 1e3, n);
    let (y, cache) = block.forward(&x);
    let dy = random(t, h, 7);
    let mut grads = block.zero_grads();
    let (s, n) = time_reps(budget, || {
        scratch::give(block.backward(&dy, &x, &cache, &mut grads))
    });
    out.set("model.block_bwd_ms", s * 1e3, n);
    let mut head_grads = model.zero_grads();
    let (s, n) = time_reps(budget, || {
        let (_, dx, head_cache) = model.head_forward_loss(&y, targets);
        model.head_backward(&head_cache, &mut head_grads);
        head_cache.recycle();
        scratch::give(dx);
    });
    out.set("model.head_loss_ms", s * 1e3, n);

    // optimpool: one layer's Adam update (reads p, m, v, g and writes p, m,
    // v: 28 B/param) and the prefetcher's parameter read.
    let flat = block.flatten_params();
    let params = flat.len();
    let store = LayerStore::new(vec![flat.clone()]);
    let grad = vec![1e-3f32; params];
    let hp = AdamParams::default();
    let (s, n) = time_reps(budget, || store.apply_update(0, &grad, &hp));
    out.set("optimpool.adam_gbps", gbps(28 * params, s), n);
    let mut stage = Vec::new();
    let (s, n) = time_reps(budget, || store.read_params_into(0, &mut stage));
    out.set("optimpool.read_params_gbps", gbps(4 * params, s), n);

    // tensor: the half-width transfer format, only where the stream uses it.
    if spec.precision.is_half() {
        let mut pack = PackedHalf::new(spec.precision);
        let (s, n) = time_reps(budget, || pack.pack_from(&flat));
        out.set("tensor.half_pack_gbps", gbps(4 * params, s), n);
        let mut back = vec![0f32; params];
        let (s, n) = time_reps(budget, || pack.unpack_into(&mut back));
        out.set("tensor.half_unpack_gbps", gbps(4 * params, s), n);
    }

    // nvme: one file slot of params + m + v, only where layers spill.
    if spec.resident_layers.is_some() {
        let nvme = NvmeStore::create(1, 3 * params).expect("probe swap file");
        let mut image = vec![0.5f32; 3 * params];
        let mut bytes = Vec::new();
        let (s, n) = time_reps(budget, || {
            nvme.write_at(0, 0, &image, &mut bytes)
                .expect("probe write")
        });
        out.set("nvme.write_gbps", gbps(12 * params, s), n);
        let (s, n) = time_reps(budget, || {
            nvme.read_at(0, 0, &mut image, &mut bytes)
                .expect("probe read")
        });
        out.set("nvme.read_gbps", gbps(12 * params, s), n);
    }
}

/// Probes for the serving workload: single-row (R = 1) decode shapes beside
/// a mean-length prefill.
pub fn serve(spec: &ServeSpec, seed: u64, budget: Duration, out: &mut Metrics) {
    let cfg = spec.model;
    let (h, dh, max_seq) = (cfg.hidden, cfg.hidden / cfg.heads, cfg.seq);
    let model = one_block(cfg, seed);
    let block = &model.blocks[0];

    // tensor: the batch-stable entries decode runs on. nt is the linears at
    // one row; nn is one head's context row over a half-full KV cache.
    let (g, n) = gemm_gflops(1, h, budget, |k_in, k_out, b| {
        let (x, w) = (random(1, k_in, 1), random(k_out, k_in, 2));
        let mut y = vec![0f32; k_out];
        time_reps(b, || {
            matmul_nt_stable(x.data(), w.data(), &mut y, 1, k_in, k_out)
        })
    });
    out.set("tensor.gemm_nt_gflops", g, n);
    let pos = max_seq / 2;
    let (probs, v) = (random(1, pos, 3), random(pos, dh, 4));
    let mut ctx = vec![0f32; dh];
    let (s, n) = time_reps(budget, || {
        matmul_nn_stable(probs.data(), v.data(), &mut ctx, 1, pos, dh)
    });
    out.set(
        "tensor.gemm_nn_gflops",
        2.0 * (pos * dh) as f64 / s / 1e9,
        n,
    );

    // model: prefill of a mean-length prompt into an empty cache, then
    // single-token decode with the cache between half and full.
    let tokens: Vec<u32> = (0..max_seq as u32).map(|i| i % cfg.vocab as u32).collect();
    let mut kv = KvCache::new(cfg.heads, dh, max_seq);
    let mut ws = BlockDecodeScratch::new();
    let (mut x, mut y) = (Tensor::zeros([1]), Tensor::zeros([1]));
    let prompt = spec.prompt_lens.iter().sum::<usize>() / spec.prompt_lens.len();
    model.embed_at_into(&tokens[..prompt], 0, &mut x);
    let (s, n) = time_reps(budget, || {
        kv.clear();
        block.forward_decode(&x, &mut kv, &mut ws, &mut y);
    });
    out.set("model.block_prefill_ms", s * 1e3, n);

    let mut decode = Vec::new();
    let start = Instant::now();
    while decode.len() < 5 || start.elapsed() < budget {
        kv.clear();
        model.embed_at_into(&tokens[..pos], 0, &mut x);
        block.forward_decode(&x, &mut kv, &mut ws, &mut y);
        while kv.len() < max_seq {
            model.embed_at_into(&tokens[kv.len()..kv.len() + 1], kv.len(), &mut x);
            let t = Instant::now();
            block.forward_decode(&x, &mut kv, &mut ws, &mut y);
            decode.push(t.elapsed().as_secs_f64());
        }
    }
    out.set("model.block_decode_us", median(&decode) * 1e6, decode.len());

    let (s, n) = time_reps(budget, || model.embed_at_into(&tokens[..1], pos, &mut x));
    out.set("model.embed_us", s * 1e6, n);
    let mut head_ws = HeadDecodeScratch::new();
    let mut logits = Tensor::zeros([1]);
    let (s, n) = time_reps(budget, || {
        model.lm_logits_last_into(&y, &mut head_ws, &mut logits)
    });
    out.set("model.lm_head_us", s * 1e6, n);
}
