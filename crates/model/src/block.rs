//! Functional transformer block (pre-norm GPT-2 style) with explicit
//! forward/backward and optional activation checkpointing.

use rand_chacha::ChaCha8Rng;
use stronghold_tensor::attention::{
    Attention, AttentionCache, AttentionGrads, DecodeScratch, KvCache, Segment,
};
use stronghold_tensor::linear::{GradWrite, Linear, LinearGrads};
use stronghold_tensor::ops::{
    add, add_assign, axpy, gelu, gelu_backward, gelu_into, layernorm, layernorm_backward,
    layernorm_into, LayerNormCache,
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
        self.forward_decode_segments(x, &[seg], std::slice::from_mut(cache), ws, y);
    }

    /// Incremental forward for serving with selective batching: `x: [ΣR, H]`
    /// stacks the new tokens of several sequences (`segs` partitions its
    /// rows; see [`Segment`]), each reading and extending its own
    /// per-layer [`KvCache`] in `caches`. Layernorm, GELU and the residual
    /// adds are row-wise and the four linears run as one product each over
    /// all `ΣR` rows however many sequences ride them — on a serving-form
    /// block ([`Block::into_panels`]) against weights packed once per
    /// engine, not per call — while attention stays per sequence (one scores
    /// and one context product per head against the cache's panel images).
    /// All products go through the batch-stable GEMM entries and the
    /// attention softmax covers exactly the causal prefix, so one token's
    /// output bits are independent of what else rides the call — prefill,
    /// token-at-a-time decode and any stacking agree bit-for-bit. Writes
    /// the block output into `y` (reused across calls).
    pub fn forward_decode_segments(
        &self,
        x: &Tensor,
        segs: &[Segment],
        caches: &mut [KvCache],
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
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
        self.backward_as(dy, x, cache, grads, GradWrite::Accumulate)
    }

    /// One sample's gradient-fold leaf from its checkpoint: recomputes the
    /// forward from the block input `x`, then writes `scale ×` this
    /// sample's parameter gradient into `grads` in [`GradWrite::Leaf`] form
    /// — the bits of zeroing `grads`, [`Block::backward`] and
    /// `grads = 0.0 + scale·grads`, with `grads`' prior contents never read.
    /// Both host trainers build their per-layer folds from this one routine.
    /// Returns `dx`; the recomputed activations go back to the scratch pool.
    pub fn leaf_backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        grads: &mut BlockGrads,
        scale: f32,
    ) -> Tensor {
        let (y, cache) = self.forward(x);
        scratch::give(y);
        let dx = self.backward_as(dy, x, &cache, grads, GradWrite::Leaf(scale));
        cache.recycle();
        dx
    }

    /// [`Block::backward`] writing the parameter gradients as `write` says.
    pub fn backward_as(
        &self,
        dy: &Tensor,
        x: &Tensor,
        cache: &BlockCache,
        grads: &mut BlockGrads,
        write: GradWrite,
    ) -> Tensor {
        // The layernorm parameters only have accumulating kernels.
        for g in grads.layernorm_mut() {
            write.begin(g);
        }
        // z = after_attn + mlp_out: gradient flows to both summands.
        let mut d_after_attn = scratch::take_copy(dy);
        // Through MLP.
        let d_gelu_out = self
            .fc2
            .backward_as(dy, &cache.gelu_out, &mut grads.fc2, write);
        let d_fc1_out = gelu_backward(&d_gelu_out, &cache.fc1_out);
        scratch::give(d_gelu_out);
        let d_ln2_out = self
            .fc1
            .backward_as(&d_fc1_out, &cache.ln2_out, &mut grads.fc1, write);
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
        let d_ln1_out = self.attn.backward_as(
            &d_after_attn,
            &cache.ln1_out,
            &cache.attn_cache,
            &mut grads.attn,
            write,
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
        for g in grads.layernorm_mut() {
            write.finish(g);
        }
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

    /// Flattens all parameters into a single vector (canonical order).
    pub fn flatten_params(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.param_count());
        self.flatten_params_into(&mut out);
        out
    }

    /// Flattens all parameters into a reusable vector (canonical order),
    /// clearing it first. Steady-state callers (the prefetcher's H2D
    /// staging path) reuse one vector across steps and never reallocate.
    /// A serving-form block ([`Block::into_panels`]) contributes each
    /// linear's panel image in its weight's place.
    pub fn flatten_params_into(&self, out: &mut Vec<f32>) {
        out.clear();
        out.reserve(self.flat_len());
        for p in self.param_slices() {
            out.extend_from_slice(p);
        }
    }

    /// Length of [`Block::flatten_params`]: [`Block::param_count`], plus
    /// the panel images' zero padding in serving form.
    pub fn flat_len(&self) -> usize {
        self.param_slices().iter().map(|p| p.len()).sum()
    }

    /// The serving form: each of the four linears' weights moves into the
    /// GEMM engine's panel layout ([`Linear::into_panels`]) and its
    /// row-major copy is dropped, so the decode entries pack no weight. A
    /// frozen block only: training entries need the row-major weights.
    pub fn into_panels(self) -> Self {
        Block {
            attn: Attention {
                qkv: self.attn.qkv.into_panels(),
                proj: self.attn.proj.into_panels(),
                ..self.attn
            },
            fc1: self.fc1.into_panels(),
            fc2: self.fc2.into_panels(),
            ..self
        }
    }

    /// Every parameter's storage in canonical order (a weight's is its
    /// panel image in serving form).
    pub fn param_slices(&self) -> [&[f32]; 12] {
        let [qkv_w, qkv_b] = self.attn.qkv.param_data();
        let [proj_w, proj_b] = self.attn.proj.param_data();
        let [fc1_w, fc1_b] = self.fc1.param_data();
        let [fc2_w, fc2_b] = self.fc2.param_data();
        [
            self.ln1_g.data(),
            self.ln1_b.data(),
            qkv_w,
            qkv_b,
            proj_w,
            proj_b,
            self.ln2_g.data(),
            self.ln2_b.data(),
            fc1_w,
            fc1_b,
            fc2_w,
            fc2_b,
        ]
    }

    /// [`Block::param_slices`], mutably.
    fn param_slices_mut(&mut self) -> [&mut [f32]; 12] {
        let [qkv_w, qkv_b] = self.attn.qkv.param_data_mut();
        let [proj_w, proj_b] = self.attn.proj.param_data_mut();
        let [fc1_w, fc1_b] = self.fc1.param_data_mut();
        let [fc2_w, fc2_b] = self.fc2.param_data_mut();
        [
            self.ln1_g.data_mut(),
            self.ln1_b.data_mut(),
            qkv_w,
            qkv_b,
            proj_w,
            proj_b,
            self.ln2_g.data_mut(),
            self.ln2_b.data_mut(),
            fc1_w,
            fc1_b,
            fc2_w,
            fc2_b,
        ]
    }

    /// Overwrites all parameters from a flat vector in canonical order.
    ///
    /// # Panics
    /// Panics if `flat.len() != self.flat_len()`.
    pub fn load_flat_params(&mut self, flat: &[f32]) {
        self.load_flat_params_as(flat, Precision::F32);
    }

    /// [`Block::load_flat_params`] at a device precision: each value is
    /// rounded through `precision` while it is scattered into its tensor —
    /// one pass, and the block ends up holding exactly what
    /// [`stronghold_tensor::PackedHalf::round_through`] would have made of
    /// `flat` first. A plain copy at [`Precision::F32`]. The rounding is
    /// element-wise, so it commutes with a serving-form block's panel
    /// layout (padding zeros round to themselves).
    ///
    /// # Panics
    /// Panics if `flat.len() != self.flat_len()`.
    pub fn load_flat_params_as(&mut self, flat: &[f32], precision: Precision) {
        assert_eq!(flat.len(), self.flat_len());
        self.load_flat_params_with(|off, p| round_copy(precision, &flat[off..off + p.len()], p));
    }

    /// Fills every parameter's storage in canonical order: `fill(off, p)`
    /// writes the flat image's floats `off..off + p.len()` into `p`, for
    /// one tensor after another — so a loader can read each one from
    /// wherever the image lives (a swap file) without first gathering the
    /// image in one buffer.
    pub fn load_flat_params_with(&mut self, mut fill: impl FnMut(usize, &mut [f32])) {
        let mut off = 0;
        for p in self.param_slices_mut() {
            let n = p.len();
            fill(off, p);
            off += n;
        }
    }
}

impl BlockGrads {
    /// Resets all gradients to zero.
    pub fn zero_(&mut self) {
        for t in self.tensors_mut() {
            t.zero_();
        }
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

    /// Reads floats `off..off + out.len()` of the flat gradient (canonical
    /// order) into `out`, each rounded through `precision` on the way: the
    /// values [`BlockGrads::flatten_into_as`] leaves at those positions,
    /// without the flat vector ever existing. The offloaded trainer's
    /// optimizer reads a ring accumulator this way, a piece at a time.
    ///
    /// # Panics
    /// Panics if the range passes the gradient's end.
    pub fn read_flat_as(&self, off: usize, out: &mut [f32], precision: Precision) {
        let (mut start, mut done) = (0, 0);
        for t in self.tensors() {
            if done == out.len() {
                break;
            }
            let data = t.data();
            let end = start + data.len();
            if off + done < end {
                let from = off + done - start;
                let k = (data.len() - from).min(out.len() - done);
                round_copy(precision, &data[from..from + k], &mut out[done..done + k]);
                done += k;
            }
            start = end;
        }
        assert_eq!(done, out.len(), "read past the gradient's end");
    }

    /// The four layernorm gain / bias gradients.
    fn layernorm_mut(&mut self) -> [&mut Tensor; 4] {
        [
            &mut self.ln1_g,
            &mut self.ln1_b,
            &mut self.ln2_g,
            &mut self.ln2_b,
        ]
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
    use stronghold_tensor::ops::axpy_from_zero;
    use stronghold_tensor::PackedHalf;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// Selective batching moves no bits: a random mix of prefill
        /// (empty cache) and decode (warm cache) segments stacked into one
        /// call equals each sequence run alone through the one-segment
        /// entry — block outputs and resulting KV caches, bit for bit.
        #[test]
        fn prop_stacked_segments_equal_each_sequence_alone(
            lens in proptest::collection::vec(1usize..41, 1..7),
            cached in proptest::collection::vec(0usize..9, 6..7),
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
            block.forward_decode_segments(&x, &segs, &mut stacked, &mut ws, &mut y);

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// A prompt attends as one block: a sequence fed as a warm prefix of
        /// `pos0` rows and then `t` rows split at arbitrary points — each
        /// run one segment, attending in one product per head — gives every
        /// row, and the final KV images, the bits of a row-at-a-time decode,
        /// for any head count.
        #[test]
        fn prop_batched_prefill_equals_row_at_a_time(
            heads_log in 0u32..3,
            pos0 in 0usize..20,
            t in 1usize..40,
            cuts in proptest::collection::vec(1usize..40, 0..4),
            seed in 0u64..1000,
        ) {
            let (h, heads, max_seq) = (16, 1usize << heads_log, 64);
            let mut rng = seeded_rng(seed);
            let block = Block::new(h, heads, &mut rng);
            let x = normal([pos0 + t, h], 1.0, &mut rng);
            let rows = |r: std::ops::Range<usize>| {
                Tensor::from_vec([r.len(), h], x.data()[r.start * h..r.end * h].to_vec())
            };
            let mut ws = BlockDecodeScratch::new();
            let mut y = Tensor::zeros([1]);

            let mut one = KvCache::new(heads, h / heads, max_seq);
            let mut want = Vec::new();
            for i in 0..pos0 + t {
                block.forward_decode(&rows(i..i + 1), &mut one, &mut ws, &mut y);
                want.extend(bits(y.data()));
            }

            let mut ends: Vec<usize> = cuts.iter().filter(|&&c| c < t).map(|&c| pos0 + c).collect();
            ends.extend([pos0, pos0 + t]);
            ends.sort_unstable();
            ends.dedup();
            let mut batched = KvCache::new(heads, h / heads, max_seq);
            let mut got = Vec::new();
            let mut start = 0;
            for end in ends.into_iter().filter(|&e| e > 0) {
                let seg = Segment { cache: 0, len: end - start };
                let caches = std::slice::from_mut(&mut batched);
                block.forward_decode_segments(&rows(start..end), &[seg], caches, &mut ws, &mut y);
                got.extend(bits(y.data()));
                start = end;
            }
            prop_assert_eq!(got, want);
            for head in 0..heads {
                prop_assert_eq!(bits(one.keys(head)), bits(batched.keys(head)));
                prop_assert_eq!(bits(one.values(head)), bits(batched.values(head)));
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
        /// ±0).
        #[test]
        fn prop_fused_passes_match_their_two_pass_forms(
            mut flat in proptest::collection::vec(proptest::num::f32::ANY, 872..873),
            cuts in proptest::collection::vec(0usize..873, 1..6),
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

                // Read as ranges cut anywhere — inside a tensor, across
                // tensor edges, empty — the same values again.
                let mut cuts = cuts.clone();
                cuts.extend([0, flat.len()]);
                cuts.sort_unstable();
                let mut pieces = vec![0.0; flat.len()];
                for w in cuts.windows(2) {
                    grads.read_flat_as(w[0], &mut pieces[w[0]..w[1]], precision);
                }
                prop_assert_eq!(bits(&pieces), bits(&grid));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The block's fold leaf is the three-step leaf — zero a scratch,
        /// accumulate the recomputed backward into it, write
        /// `0.0 + s·scratch` into the slot — bit for bit in every gradient
        /// tensor, over a
        /// slot holding garbage, for sequence lengths inside one `KC` block
        /// and across two, at the fold scales of batches 1–4; `dx` is the
        /// accumulating backward's too.
        #[test]
        fn prop_leaf_backward_is_zero_accumulate_scale(
            short in 1usize..20,
            long in 250usize..270,
            seed in 0u64..1000,
        ) {
            let mut rng = seeded_rng(seed);
            let block = Block::new(16, 2, &mut rng);
            for (t, s) in [short, long].into_iter().flat_map(|t| {
                [1.0f32, 0.5, 1.0 / 3.0, 0.25].map(|s| (t, s))
            }) {
                let x = normal([t, 16], 1.0, &mut rng);
                let mut dy = normal([t, 16], 1.0, &mut rng);
                // Exact zeros of both signs in the upstream gradient.
                for (i, v) in dy.data_mut().iter_mut().enumerate().step_by(7) {
                    *v = if i % 2 == 0 { 0.0 } else { -0.0 };
                }
                let mut sample = block.zero_grads();
                let (y, cache) = block.forward(&x);
                scratch::give(y);
                let want_dx = block.backward(&dy, &x, &cache, &mut sample);
                let mut want = grads_from_flat(&block, &vec![f32::NAN; block.param_count()]);
                for (dst, src) in want.tensors_mut().into_iter().zip(sample.tensors()) {
                    axpy_from_zero(dst, s, src);
                }

                let mut slot = grads_from_flat(&block, &vec![f32::NAN; block.param_count()]);
                let dx = block.leaf_backward(&dy, &x, &mut slot, s);
                prop_assert_eq!(bits(dx.data()), bits(want_dx.data()));
                for (i, (got, want)) in slot.tensors().iter().zip(want.tensors()).enumerate() {
                    prop_assert!(bits(got.data()) == bits(want.data()), "tensor {i} t={t} s={s}");
                }
            }
        }
    }

    #[test]
    fn serving_form_decodes_the_same_bits_and_loads_its_image_on_every_grid() {
        let mut rng = seeded_rng(79);
        // Output widths 24 / 8 / 32 / 8: every tier pads some panels.
        let block = Block::new(8, 2, &mut rng);
        let served = block.clone().into_panels();
        assert_eq!(served.param_count(), block.param_count());
        assert!(
            served.flat_len() > served.param_count(),
            "padding is layout"
        );
        let x = normal([5, 8], 1.0, &mut rng);
        let decode = |b: &Block| {
            let mut y = Tensor::zeros([1]);
            let mut cache = KvCache::new(2, 4, 8);
            b.forward_decode(&x, &mut cache, &mut BlockDecodeScratch::new(), &mut y);
            bits(y.data())
        };
        assert_eq!(decode(&served), decode(&block));

        // Loading the image at a device precision lands on the image of the
        // rounded row-major block: rounding commutes with the layout.
        let image = served.flatten_params();
        for precision in [Precision::Bf16, Precision::F16, Precision::F32] {
            let mut shell = served.clone();
            shell.load_flat_params_as(&image, precision);
            let mut grid = block.flatten_params();
            PackedHalf::new(precision).round_through(&mut grid);
            let mut want = block.clone();
            want.load_flat_params(&grid);
            let want = want.into_panels().flatten_params();
            assert_eq!(bits(&shell.flatten_params()), bits(&want), "{precision:?}");
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
