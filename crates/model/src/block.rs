//! Functional transformer block (pre-norm GPT-2 style) with explicit
//! forward/backward and optional activation checkpointing.

use rand_chacha::ChaCha8Rng;
use stronghold_tensor::attention::{
    Attention, AttentionCache, AttentionGrads, DecodeScratch, KvCache, Segment,
};
use stronghold_tensor::linear::{Linear, LinearGrads};
use stronghold_tensor::ops::{
    add, add_assign, axpy, axpy_from_zero, gelu, gelu_backward, gelu_into, layernorm,
    layernorm_backward, layernorm_into, LayerNormCache,
};
use stronghold_tensor::scratch;
use stronghold_tensor::simd::{round_copy, round_extend};
use stronghold_tensor::{Precision, Tensor};

/// Parameters of one pre-norm transformer block:
/// `y = x + Attn(LN1(x)); z = y + W2·GELU(W1·LN2(y))`.
#[derive(Clone, Debug)]
pub struct Block {
    /// First layernorm gain.
    pub ln1_g: Tensor,
    /// First layernorm bias.
    pub ln1_b: Tensor,
    /// Self-attention.
    pub attn: Attention,
    /// Second layernorm gain.
    pub ln2_g: Tensor,
    /// Second layernorm bias.
    pub ln2_b: Tensor,
    /// MLP up-projection `[4H, H]`.
    pub fc1: Linear,
    /// MLP down-projection `[H, 4H]`.
    pub fc2: Linear,
}

/// Saved activations for one block's backward pass on one sample.
pub struct BlockCache {
    ln1_out: Tensor,
    ln1_cache: LayerNormCache,
    attn_cache: AttentionCache,
    after_attn: Tensor,
    ln2_out: Tensor,
    ln2_cache: LayerNormCache,
    fc1_out: Tensor,
    gelu_out: Tensor,
}

impl BlockCache {
    /// Returns every cached activation's allocation to the thread-local
    /// scratch pool. Trainers call this after a block's backward pass so
    /// the next sample's forward reuses the buffers instead of allocating.
    pub fn recycle(self) {
        scratch::give(self.ln1_out);
        self.attn_cache.recycle();
        scratch::give(self.after_attn);
        scratch::give(self.ln2_out);
        scratch::give(self.fc1_out);
        scratch::give(self.gelu_out);
    }
}

/// Reusable workspace for [`Block::forward_decode_segments`]: every
/// intermediate activation of the serving path, sized on first use and
/// recycled across decode steps so the steady state never allocates.
#[derive(Clone)]
pub struct BlockDecodeScratch {
    ln1_out: Tensor,
    ln_cache: LayerNormCache,
    attn: DecodeScratch,
    attn_out: Tensor,
    fc1_out: Tensor,
    gelu_out: Tensor,
}

impl BlockDecodeScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        BlockDecodeScratch {
            ln1_out: Tensor::zeros([1]),
            ln_cache: LayerNormCache::default(),
            attn: DecodeScratch::new(),
            attn_out: Tensor::zeros([1]),
            fc1_out: Tensor::zeros([1]),
            gelu_out: Tensor::zeros([1]),
        }
    }
}

impl Default for BlockDecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// Gradients of one [`Block`].
#[derive(Clone, Debug)]
pub struct BlockGrads {
    /// LN1 gain gradient.
    pub ln1_g: Tensor,
    /// LN1 bias gradient.
    pub ln1_b: Tensor,
    /// Attention gradients.
    pub attn: AttentionGrads,
    /// LN2 gain gradient.
    pub ln2_g: Tensor,
    /// LN2 bias gradient.
    pub ln2_b: Tensor,
    /// MLP up-projection gradients.
    pub fc1: LinearGrads,
    /// MLP down-projection gradients.
    pub fc2: LinearGrads,
}

const LN_EPS: f32 = 1e-5;

impl Block {
    /// Creates a block for hidden size `hidden` with `heads` attention heads.
    pub fn new(hidden: usize, heads: usize, rng: &mut ChaCha8Rng) -> Self {
        Block {
            ln1_g: Tensor::full([hidden], 1.0),
            ln1_b: Tensor::zeros([hidden]),
            attn: Attention::new(hidden, heads, rng),
            ln2_g: Tensor::full([hidden], 1.0),
            ln2_b: Tensor::zeros([hidden]),
            fc1: Linear::new(4 * hidden, hidden, rng),
            fc2: Linear::new(hidden, 4 * hidden, rng),
        }
    }

    /// Total parameter count; equals `12·h² + 13·h`.
    pub fn param_count(&self) -> usize {
        self.ln1_g.numel()
            + self.ln1_b.numel()
            + self.attn.param_count()
            + self.ln2_g.numel()
            + self.ln2_b.numel()
            + self.fc1.param_count()
            + self.fc2.param_count()
    }

    /// Forward for one sample `x: [T, H]`, returning the output and the full
    /// activation cache.
    pub fn forward(&self, x: &Tensor) -> (Tensor, BlockCache) {
        let (ln1_out, ln1_cache) = layernorm(x, &self.ln1_g, &self.ln1_b, LN_EPS);
        let (attn_out, attn_cache) = self.attn.forward(&ln1_out);
        let after_attn = add(x, &attn_out);
        scratch::give(attn_out);
        let (ln2_out, ln2_cache) = layernorm(&after_attn, &self.ln2_g, &self.ln2_b, LN_EPS);
        let fc1_out = self.fc1.forward(&ln2_out);
        let gelu_out = gelu(&fc1_out);
        let mlp_out = self.fc2.forward(&gelu_out);
        let y = add(&after_attn, &mlp_out);
        scratch::give(mlp_out);
        (
            y,
            BlockCache {
                ln1_out,
                ln1_cache,
                attn_cache,
                after_attn,
                ln2_out,
                ln2_cache,
                fc1_out,
                gelu_out,
            },
        )
    }

    /// Forward pass that discards intermediate activations (checkpointed FP:
    /// only the block *input* is retained by the caller). The discarded
    /// activations go back to the thread-local scratch pool, so repeated
    /// recompute passes (the offloaded trainer's BP loop) do not allocate.
    pub fn forward_no_cache(&self, x: &Tensor) -> Tensor {
        let (y, cache) = self.forward(x);
        cache.recycle();
        y
    }

    /// Incremental forward for one sequence: the one-segment case of
    /// [`Block::forward_decode_segments`] over `x: [R, H]`.
    pub fn forward_decode(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
    ) {
        let seg = Segment {
            cache: 0,
            len: x.shape().dim(0),
        };
        self.forward_decode_segments(x, &[seg], std::slice::from_mut(cache), ws, y, 1);
    }

    /// Incremental forward for serving with selective batching: `x: [ΣR, H]`
    /// stacks the new tokens of several sequences (`segs` partitions its
    /// rows; see [`Segment`]), each reading and extending its own
    /// per-layer [`KvCache`] in `caches`. Layernorm, GELU and the residual
    /// adds are row-wise and the four linears run as one product each over
    /// all `ΣR` rows — each weight is packed once per call however many
    /// sequences ride it — while attention stays per sequence (fanned over
    /// `workers` threads). All products go through the batch-stable GEMM
    /// entries and the attention softmax covers exactly the causal prefix,
    /// so one token's output bits are independent of what else rides the
    /// call — prefill, token-at-a-time decode and any stacking agree
    /// bit-for-bit. Writes the block output into `y` (reused across calls).
    pub fn forward_decode_segments(
        &self,
        x: &Tensor,
        segs: &[Segment],
        caches: &mut [KvCache],
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
        workers: usize,
    ) {
        layernorm_into(
            x,
            &self.ln1_g,
            &self.ln1_b,
            LN_EPS,
            &mut ws.ln1_out,
            &mut ws.ln_cache,
        );
        self.attn.forward_decode_segments(
            &ws.ln1_out,
            segs,
            caches,
            &mut ws.attn,
            &mut ws.attn_out,
            workers,
        );
        // after_attn = x + attn_out, reusing the attention output buffer.
        add_assign(&mut ws.attn_out, x);
        layernorm_into(
            &ws.attn_out,
            &self.ln2_g,
            &self.ln2_b,
            LN_EPS,
            &mut ws.ln1_out,
            &mut ws.ln_cache,
        );
        self.fc1.forward_stable_into(&ws.ln1_out, &mut ws.fc1_out);
        gelu_into(&ws.fc1_out, &mut ws.gelu_out);
        self.fc2.forward_stable_into(&ws.gelu_out, y);
        add_assign(y, &ws.attn_out);
    }

    /// Backward for one sample given upstream `dy`, the block input `x` and
    /// a cache (recompute it with [`Block::forward`] when checkpointing).
    /// Returns `dx`; parameter gradients accumulate into `grads`.
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        cache: &BlockCache,
        grads: &mut BlockGrads,
    ) -> Tensor {
        // z = after_attn + mlp_out: gradient flows to both summands.
        let mut d_after_attn = scratch::take_copy(dy);
        // Through MLP.
        let d_gelu_out = self.fc2.backward(dy, &cache.gelu_out, &mut grads.fc2);
        let d_fc1_out = gelu_backward(&d_gelu_out, &cache.fc1_out);
        scratch::give(d_gelu_out);
        let d_ln2_out = self
            .fc1
            .backward(&d_fc1_out, &cache.ln2_out, &mut grads.fc1);
        scratch::give(d_fc1_out);
        let d_after_attn_ln = layernorm_backward(
            &d_ln2_out,
            &cache.after_attn,
            &self.ln2_g,
            &cache.ln2_cache,
            &mut grads.ln2_g,
            &mut grads.ln2_b,
        );
        scratch::give(d_ln2_out);
        add_assign(&mut d_after_attn, &d_after_attn_ln);
        scratch::give(d_after_attn_ln);

        // after_attn = x + attn_out.
        let mut dx = scratch::take_copy(&d_after_attn);
        let d_ln1_out = self.attn.backward(
            &d_after_attn,
            &cache.ln1_out,
            &cache.attn_cache,
            &mut grads.attn,
        );
        scratch::give(d_after_attn);
        let dx_ln = layernorm_backward(
            &d_ln1_out,
            x,
            &self.ln1_g,
            &cache.ln1_cache,
            &mut grads.ln1_g,
            &mut grads.ln1_b,
        );
        scratch::give(d_ln1_out);
        add_assign(&mut dx, &dx_ln);
        scratch::give(dx_ln);
        dx
    }

    /// Allocates zeroed gradients.
    pub fn zero_grads(&self) -> BlockGrads {
        BlockGrads {
            ln1_g: Tensor::zeros(*self.ln1_g.shape()),
            ln1_b: Tensor::zeros(*self.ln1_b.shape()),
            attn: self.attn.zero_grads(),
            ln2_g: Tensor::zeros(*self.ln2_g.shape()),
            ln2_b: Tensor::zeros(*self.ln2_b.shape()),
            fc1: self.fc1.zero_grads(),
            fc2: self.fc2.zero_grads(),
        }
    }

    /// Visits every parameter tensor alongside its gradient, in a fixed
    /// canonical order (used by the optimizer and by flatten/unflatten).
    pub fn visit_params_mut<'a>(
        &'a mut self,
        grads: &'a BlockGrads,
        mut f: impl FnMut(&mut Tensor, &Tensor),
    ) {
        f(&mut self.ln1_g, &grads.ln1_g);
        f(&mut self.ln1_b, &grads.ln1_b);
        f(&mut self.attn.qkv.weight, &grads.attn.qkv.weight);
        f(&mut self.attn.qkv.bias, &grads.attn.qkv.bias);
        f(&mut self.attn.proj.weight, &grads.attn.proj.weight);
        f(&mut self.attn.proj.bias, &grads.attn.proj.bias);
        f(&mut self.ln2_g, &grads.ln2_g);
        f(&mut self.ln2_b, &grads.ln2_b);
        f(&mut self.fc1.weight, &grads.fc1.weight);
        f(&mut self.fc1.bias, &grads.fc1.bias);
        f(&mut self.fc2.weight, &grads.fc2.weight);
        f(&mut self.fc2.bias, &grads.fc2.bias);
    }

    /// Flattens all parameters into a single vector (canonical order).
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flatten_params_into(&mut out);
        out
    }

    /// Flattens all parameters into a reusable vector (canonical order),
    /// clearing it first. Steady-state callers (the prefetcher's H2D
    /// staging path) reuse one vector across steps and never reallocate.
    pub fn flatten_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.param_count());
        for t in self.param_tensors() {
            out.extend_from_slice(t.data());
        }
    }

    /// All parameter tensors in canonical order.
    pub fn param_tensors(&self) -> [&Tensor; 12] {
        [
            &self.ln1_g,
            &self.ln1_b,
            &self.attn.qkv.weight,
            &self.attn.qkv.bias,
            &self.attn.proj.weight,
            &self.attn.proj.bias,
            &self.ln2_g,
            &self.ln2_b,
            &self.fc1.weight,
            &self.fc1.bias,
            &self.fc2.weight,
            &self.fc2.bias,
        ]
    }

    /// All parameter tensors in canonical order, mutably.
    fn param_tensors_mut(&mut self) -> [&mut Tensor; 12] {
        [
            &mut self.ln1_g,
            &mut self.ln1_b,
            &mut self.attn.qkv.weight,
            &mut self.attn.qkv.bias,
            &mut self.attn.proj.weight,
            &mut self.attn.proj.bias,
            &mut self.ln2_g,
            &mut self.ln2_b,
            &mut self.fc1.weight,
            &mut self.fc1.bias,
            &mut self.fc2.weight,
            &mut self.fc2.bias,
        ]
    }

    /// Overwrites all parameters from a flat vector in canonical order.
    ///
    /// # Panics
    /// Panics if `flat.len() != self.param_count()`.
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        self.load_flat_params_as(flat, Precision::F32);
    }

    /// [`Block::load_flat_params`] at a device precision: each value is
    /// rounded through `precision` while it is scattered into its tensor —
    /// one pass, and the block ends up holding exactly what
    /// [`stronghold_tensor::PackedHalf::round_through`] would have made of
    /// `flat` first. A plain copy at [`Precision::F32`].
    ///
    /// # Panics
    /// Panics if `flat.len() != self.param_count()`.
    pub fn load_flat_params_as(&mut self, flat: &[f32], precision: Precision) {
        assert_eq!(flat.len(), self.param_count());
        let mut off = 0;
        for p in self.param_tensors_mut() {
            let n = p.numel();
            round_copy(precision, &flat[off..off + n], p.data_mut());
            off += n;
        }
    }
}

impl BlockGrads {
    /// Resets all gradients to zero.
    pub fn zero_(&mut self) {
        self.ln1_g.zero_();
        self.ln1_b.zero_();
        self.attn.zero_();
        self.ln2_g.zero_();
        self.ln2_b.zero_();
        self.fc1.zero_();
        self.fc2.zero_();
    }

    /// All gradient tensors in canonical order.
    fn tensors(&self) -> [&Tensor; 12] {
        [
            &self.ln1_g,
            &self.ln1_b,
            &self.attn.qkv.weight,
            &self.attn.qkv.bias,
            &self.attn.proj.weight,
            &self.attn.proj.bias,
            &self.ln2_g,
            &self.ln2_b,
            &self.fc1.weight,
            &self.fc1.bias,
            &self.fc2.weight,
            &self.fc2.bias,
        ]
    }

    /// All gradient tensors in canonical order, mutably.
    fn tensors_mut(&mut self) -> [&mut Tensor; 12] {
        [
            &mut self.ln1_g,
            &mut self.ln1_b,
            &mut self.attn.qkv.weight,
            &mut self.attn.qkv.bias,
            &mut self.attn.proj.weight,
            &mut self.attn.proj.bias,
            &mut self.ln2_g,
            &mut self.ln2_b,
            &mut self.fc1.weight,
            &mut self.fc1.bias,
            &mut self.fc2.weight,
            &mut self.fc2.bias,
        ]
    }

    /// Flattens all gradients into a single vector (canonical order).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::new();
        self.flatten_into(&mut out);
        out
    }

    /// Flattens all gradients into a reusable vector (canonical order),
    /// clearing it first. The offloaded trainer's D2H/optimizer path calls
    /// this once per layer per step into one persistent buffer.
    pub fn flatten_into(&self, out: &mut Vec<f32>) {
        self.flatten_into_as(out, Precision::F32);
    }

    /// [`BlockGrads::flatten_into`] at a transfer precision: each value is
    /// rounded through `precision` while it is gathered — one pass, leaving
    /// in `out` exactly what
    /// [`stronghold_tensor::PackedHalf::round_through`] would have made of
    /// the flat gradient. Writes into `out`'s existing capacity (no
    /// zero-fill, no reallocation once it has held a block). A plain copy
    /// at [`Precision::F32`].
    pub fn flatten_into_as(&self, out: &mut Vec<f32>, precision: Precision) {
        out.clear();
        let tensors = self.tensors();
        out.reserve(tensors.iter().map(|t| t.numel()).sum());
        for t in tensors {
            round_extend(precision, t.data(), out);
        }
    }

    /// `self = 0.0 + scale * other`, tensor by tensor in canonical order:
    /// [`BlockGrads::zero_`] followed by [`BlockGrads::accumulate_scaled`]
    /// in one pass and with the same bits — the leaf of the per-layer
    /// gradient fold.
    pub fn set_scaled(&mut self, other: &BlockGrads, scale: f32) {
        let src = other.tensors();
        for (dst, src) in self.tensors_mut().into_iter().zip(src) {
            axpy_from_zero(dst, scale, src);
        }
    }

    /// `self += scale * other`, tensor by tensor in canonical order. Both
    /// the resident and the offloaded trainers accumulate per-sample
    /// gradients through this one routine, so their floating-point op
    /// sequences are identical — the basis of the bit-exact equivalence
    /// tests. (The vectorized [`axpy`] evaluates `a + scale * b` with the
    /// same two-rounding sequence as the scalar loop it replaced.)
    pub fn accumulate_scaled(&mut self, other: &BlockGrads, scale: f32) {
        axpy(&mut self.ln1_g, scale, &other.ln1_g);
        axpy(&mut self.ln1_b, scale, &other.ln1_b);
        axpy(&mut self.attn.qkv.weight, scale, &other.attn.qkv.weight);
        axpy(&mut self.attn.qkv.bias, scale, &other.attn.qkv.bias);
        axpy(&mut self.attn.proj.weight, scale, &other.attn.proj.weight);
        axpy(&mut self.attn.proj.bias, scale, &other.attn.proj.bias);
        axpy(&mut self.ln2_g, scale, &other.ln2_g);
        axpy(&mut self.ln2_b, scale, &other.ln2_b);
        axpy(&mut self.fc1.weight, scale, &other.fc1.weight);
        axpy(&mut self.fc1.bias, scale, &other.fc1.bias);
        axpy(&mut self.fc2.weight, scale, &other.fc2.weight);
        axpy(&mut self.fc2.bias, scale, &other.fc2.bias);
    }

    /// Adds another gradient set element-wise (micro-batch accumulation).
    pub fn accumulate(&mut self, other: &BlockGrads) {
        add_assign(&mut self.ln1_g, &other.ln1_g);
        add_assign(&mut self.ln1_b, &other.ln1_b);
        add_assign(&mut self.attn.qkv.weight, &other.attn.qkv.weight);
        add_assign(&mut self.attn.qkv.bias, &other.attn.qkv.bias);
        add_assign(&mut self.attn.proj.weight, &other.attn.proj.weight);
        add_assign(&mut self.attn.proj.bias, &other.attn.proj.bias);
        add_assign(&mut self.ln2_g, &other.ln2_g);
        add_assign(&mut self.ln2_b, &other.ln2_b);
        add_assign(&mut self.fc1.weight, &other.fc1.weight);
        add_assign(&mut self.fc1.bias, &other.fc1.bias);
        add_assign(&mut self.fc2.weight, &other.fc2.weight);
        add_assign(&mut self.fc2.bias, &other.fc2.bias);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use stronghold_tensor::init::{normal, seeded_rng};
    use stronghold_tensor::PackedHalf;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Selective batching moves no bits: a random mix of prefill
        /// (empty cache) and decode (warm cache) segments stacked into one
        /// call equals each sequence run alone through the one-segment
        /// entry — block outputs and resulting KV caches, bit for bit, at
        /// any worker count.
        #[test]
        fn prop_stacked_segments_equal_each_sequence_alone(
            lens in proptest::collection::vec(1usize..41, 1..7),
            cached in proptest::collection::vec(0usize..9, 6..7),
            workers in 1usize..4,
            seed in 0u64..1000,
        ) {
            let (h, heads, max_seq) = (16, 2, 48);
            let mut rng = seeded_rng(seed);
            let block = Block::new(h, heads, &mut rng);
            let mut ws = BlockDecodeScratch::new();
            let mut y = Tensor::zeros([1]);

            // Every other cache slot stays idle, as in a half-full engine.
            let mut alone: Vec<KvCache> = (0..2 * lens.len())
                .map(|_| KvCache::new(heads, h / heads, max_seq))
                .collect();
            for (s, &warm) in cached.iter().take(lens.len()).enumerate() {
                if warm > 0 {
                    let x = normal([warm, h], 1.0, &mut rng);
                    block.forward_decode(&x, &mut alone[2 * s], &mut ws, &mut y);
                }
            }
            let mut stacked = alone.clone();

            let mut xs = Vec::new();
            let mut want = Vec::new();
            for (s, &len) in lens.iter().enumerate() {
                let x = normal([len, h], 1.0, &mut rng);
                block.forward_decode(&x, &mut alone[2 * s], &mut ws, &mut y);
                xs.extend_from_slice(x.data());
                want.extend(y.data().iter().map(|v| v.to_bits()));
            }

            let segs: Vec<Segment> = lens
                .iter()
                .enumerate()
                .map(|(s, &len)| Segment { cache: 2 * s, len })
                .collect();
            let x = Tensor::from_vec([xs.len() / h, h], xs);
            block.forward_decode_segments(&x, &segs, &mut stacked, &mut ws, &mut y, workers);

            let got: Vec<u32> = y.data().iter().map(|v| v.to_bits()).collect();
            prop_assert_eq!(got, want);
            for (a, b) in alone.iter().zip(stacked.iter()) {
                prop_assert_eq!(a.len(), b.len());
                for head in 0..heads {
                    let bits = |v: &[f32]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    prop_assert_eq!(bits(a.keys(head)), bits(b.keys(head)));
                    prop_assert_eq!(bits(a.values(head)), bits(b.values(head)));
                }
            }
        }
    }

    /// Fills `grads` from a flat vector in canonical order.
    fn grads_from_flat(block: &Block, flat: &[f32]) -> BlockGrads {
        let mut grads = block.zero_grads();
        let mut off = 0;
        for t in grads.tensors_mut() {
            let n = t.numel();
            t.data_mut().copy_from_slice(&flat[off..off + n]);
            off += n;
        }
        grads
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The precision-aware load and flatten are the one-pass forms of
        /// "round the flat vector through the packed format, then copy":
        /// same bits for every value class (NaN payloads, ±Inf, subnormals,
        /// ±0), and the fused fold leaf is `zero_` + `accumulate_scaled`
        /// bit for bit — including a `-0.0` product landing as `+0.0`.
        #[test]
        fn prop_fused_passes_match_their_two_pass_forms(
            mut flat in proptest::collection::vec(proptest::num::f32::ANY, 872..873),
            scale in proptest::num::f32::NORMAL,
        ) {
            // The classes uniform bits all but never draw.
            let planted = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0e-40, -65520.0];
            flat[..planted.len()].copy_from_slice(&planted);
            let mut block = Block::new(8, 2, &mut seeded_rng(78));
            prop_assert_eq!(block.param_count(), flat.len());
            let grads = grads_from_flat(&block, &flat);
            prop_assert_eq!(bits(&grads.flatten()), bits(&flat));

            for precision in [Precision::Bf16, Precision::F16, Precision::F32] {
                let mut grid = flat.clone();
                PackedHalf::new(precision).round_through(&mut grid);

                block.load_flat_params_as(&flat, precision);
                let mut want = block.clone();
                want.load_flat_params(&grid);
                prop_assert_eq!(bits(&block.flatten_params()), bits(&want.flatten_params()));

                // Into a recycled (cleared) buffer: same allocation, no growth.
                let mut out = Vec::with_capacity(flat.len());
                out.extend_from_slice(&[1.0; 5]);
                let at = out.as_ptr();
                grads.flatten_into_as(&mut out, precision);
                prop_assert_eq!(out.as_ptr(), at);
                prop_assert_eq!(bits(&out), bits(&grid));
            }

            let mut fused = grads_from_flat(&block, &vec![f32::NAN; flat.len()]);
            fused.set_scaled(&grads, scale);
            let mut two_pass = fused.clone();
            two_pass.zero_();
            two_pass.accumulate_scaled(&grads, scale);
            prop_assert_eq!(bits(&fused.flatten()), bits(&two_pass.flatten()));
            prop_assert_eq!(fused.flatten()[0].to_bits(), 0.0f32.to_bits());
        }
    }

    #[test]
    fn param_count_formula() {
        let b = Block::new(32, 4, &mut seeded_rng(70));
        assert_eq!(b.param_count(), 12 * 32 * 32 + 13 * 32);
    }

    #[test]
    fn forward_shapes() {
        let b = Block::new(16, 2, &mut seeded_rng(71));
        let x = normal([6, 16], 1.0, &mut seeded_rng(72));
        let (y, _) = b.forward(&x);
        assert_eq!(y.shape().dims(), &[6, 16]);
        assert!(y.all_finite());
    }

    #[test]
    fn recompute_matches_cached_forward() {
        let b = Block::new(16, 2, &mut seeded_rng(73));
        let x = normal([5, 16], 1.0, &mut seeded_rng(74));
        let (y1, _) = b.forward(&x);
        let y2 = b.forward_no_cache(&x);
        assert_eq!(y1, y2);
    }

    #[test]
    fn gradient_check_through_block() {
        let mut rng = seeded_rng(75);
        let b = Block::new(8, 2, &mut rng);
        let x = normal([3, 8], 0.5, &mut rng);
        let w = normal([3, 8], 1.0, &mut rng);
        let loss = |xin: &Tensor| -> f32 {
            let (y, _) = b.forward(xin);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, c)| a * c)
                .sum()
        };
        let (_, cache) = b.forward(&x);
        let mut grads = b.zero_grads();
        let dx = b.backward(&w, &x, &cache, &mut grads);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 5e-2 * (1.0 + num.abs()),
                "dx[{i}]: {num} vs {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn flatten_load_round_trip() {
        let mut rng = seeded_rng(76);
        let b1 = Block::new(16, 2, &mut rng);
        let flat = b1.flatten_params();
        assert_eq!(flat.len(), b1.param_count());
        let mut b2 = Block::new(16, 2, &mut seeded_rng(999));
        b2.load_flat_params(&flat);
        assert_eq!(b2.flatten_params(), flat);
        // Same forward result.
        let x = normal([4, 16], 1.0, &mut rng);
        assert_eq!(b1.forward_no_cache(&x), b2.forward_no_cache(&x));
    }

    #[test]
    fn grads_accumulate() {
        let mut rng = seeded_rng(77);
        let b = Block::new(8, 2, &mut rng);
        let x = normal([3, 8], 1.0, &mut rng);
        let dy = normal([3, 8], 1.0, &mut rng);
        let (_, cache) = b.forward(&x);
        let mut g1 = b.zero_grads();
        b.backward(&dy, &x, &cache, &mut g1);
        let mut g2 = b.zero_grads();
        g2.accumulate(&g1);
        g2.accumulate(&g1);
        let f1 = g1.flatten();
        let f2 = g2.flatten();
        for (a, b) in f2.iter().zip(f1.iter()) {
            assert!((a - 2.0 * b).abs() < 1e-5);
        }
    }
}
