//! The functional GPT model: embedding → N blocks → final LN → tied LM head.
//!
//! Exposes *layer-level* entry points (`embed`, `block_forward`,
//! `head_forward_loss`, `block_backward`, ...) because the STRONGHOLD runtime
//! drives execution one layer at a time — that is exactly the granularity at
//! which it offloads. A whole-model `train_step` convenience wraps the same
//! entry points for tests and examples.

use rand_chacha::ChaCha8Rng;
use stronghold_tensor::attention::{KvCache, Segment};
use stronghold_tensor::embedding::{Embedding, EmbeddingGrads};
use stronghold_tensor::init::seeded_rng;
use stronghold_tensor::linear::GradWrite;
use stronghold_tensor::loss::cross_entropy;
use stronghold_tensor::matmul::{
    matmul_nt, matmul_nt_stable, matmul_packed, matmul_tn_acc, PackedNt,
};
use stronghold_tensor::ops::{
    axpy_from_zero, layernorm, layernorm_backward, layernorm_into, LayerNormCache,
};
use stronghold_tensor::Tensor;

use crate::block::{Block, BlockDecodeScratch, BlockGrads};
use crate::config::ModelConfig;

const LN_EPS: f32 = 1e-5;

/// A functional GPT-style transformer.
pub struct Transformer {
    /// Model configuration.
    pub cfg: ModelConfig,
    /// Token + positional embedding (layer 0; LM head weights are tied).
    pub embedding: Embedding,
    /// Transformer blocks (layers 1..=n).
    pub blocks: Vec<Block>,
    /// Final layernorm gain (part of the head layer).
    pub lnf_g: Tensor,
    /// Final layernorm bias.
    pub lnf_b: Tensor,
    /// The tied head in serving form: `embedding.token` as the GEMM
    /// engine's panel image, packed once by [`Transformer::pack_head`] so
    /// the decode head product packs nothing. `None` outside serving; a
    /// model whose token table changes must not carry one.
    pub head_panels: Option<PackedNt>,
}

/// Gradients for a [`Transformer`], mirroring its structure.
pub struct TransformerGrads {
    /// Embedding gradients (receives both embedding-backward and tied
    /// LM-head contributions).
    pub embedding: EmbeddingGrads,
    /// Per-block gradients.
    pub blocks: Vec<BlockGrads>,
    /// Final layernorm gain gradient.
    pub lnf_g: Tensor,
    /// Final layernorm bias gradient.
    pub lnf_b: Tensor,
}

/// Cache produced by [`Transformer::head_forward_loss`], consumed by
/// [`Transformer::head_backward`].
pub struct HeadCache {
    lnf_out: Tensor,
    dlogits: Tensor,
    dg: Tensor,
    db: Tensor,
}

impl HeadCache {
    /// Returns the cache's tensors to the thread-local scratch pool so the
    /// next head pass reuses them instead of allocating.
    pub fn recycle(self) {
        stronghold_tensor::scratch::give(self.lnf_out);
        stronghold_tensor::scratch::give(self.dlogits);
        stronghold_tensor::scratch::give(self.dg);
        stronghold_tensor::scratch::give(self.db);
    }
}

/// Reusable workspace for [`Transformer::lm_logits_rows_into`].
#[derive(Clone)]
pub struct HeadDecodeScratch {
    last_row: Tensor,
    lnf_out: Tensor,
    ln_cache: LayerNormCache,
}

impl HeadDecodeScratch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        HeadDecodeScratch {
            last_row: Tensor::zeros([1]),
            lnf_out: Tensor::zeros([1]),
            ln_cache: LayerNormCache::default(),
        }
    }
}

impl Default for HeadDecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

/// The packed workspace of one selectively-batched serving round: the
/// pending token runs of every active sequence stacked into one
/// `[ΣR, hidden]` activation, walked through the blocks with one GEMM per
/// linear ([`Block::forward_decode_segments`]) and through the head with
/// one product over each sequence's last row. Buffers grow to the largest
/// round seen and are reused, so steady-state rounds allocate nothing.
pub struct DecodeBatch {
    segs: Vec<Segment>,
    last_rows: Vec<usize>,
    x: Tensor,
    y: Tensor,
    ws: BlockDecodeScratch,
    head_ws: HeadDecodeScratch,
    logits: Tensor,
}

impl DecodeBatch {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        DecodeBatch {
            segs: Vec::new(),
            last_rows: Vec::new(),
            x: Tensor::zeros([1]),
            y: Tensor::zeros([1]),
            ws: BlockDecodeScratch::new(),
            head_ws: HeadDecodeScratch::new(),
            logits: Tensor::zeros([1]),
        }
    }

    /// Starts a new round with no sequences stacked.
    pub fn clear(&mut self) {
        self.segs.clear();
        self.last_rows.clear();
    }

    /// Stacks one sequence's pending run: embeds `tokens` at absolute
    /// position `pos0` into the next rows and binds them to cache index
    /// `cache` (indices must arrive strictly ascending).
    pub fn push(&mut self, model: &Transformer, cache: usize, tokens: &[u32], pos0: usize) {
        assert!(!tokens.is_empty(), "DecodeBatch: empty token run");
        let h = model.embedding.hidden();
        let r0 = self.last_rows.last().map_or(0, |&r| r + 1);
        self.x.reset_for([r0 + tokens.len(), h]);
        model
            .embedding
            .forward_at_rows(tokens, pos0, &mut self.x.data_mut()[r0 * h..]);
        self.segs.push(Segment {
            cache,
            len: tokens.len(),
        });
        self.last_rows.push(r0 + tokens.len() - 1);
    }

    /// Runs the stacked rows through one block, each sequence against
    /// `caches[its cache index]` (that layer's KV caches).
    pub fn block_forward(&mut self, block: &Block, caches: &mut [KvCache]) {
        block.forward_decode_segments(&self.x, &self.segs, caches, &mut self.ws, &mut self.y);
        std::mem::swap(&mut self.x, &mut self.y);
    }

    /// Final layernorm + tied head over every sequence's last row.
    pub fn head(&mut self, model: &Transformer) {
        model.lm_logits_rows_into(
            &self.x,
            &self.last_rows,
            &mut self.head_ws,
            &mut self.logits,
        );
    }

    /// The logits row of the `n`-th stacked sequence (after
    /// [`DecodeBatch::head`]).
    pub fn logits(&self, n: usize) -> &[f32] {
        let v = self.logits.shape().dim(1);
        &self.logits.data()[n * v..(n + 1) * v]
    }
}

impl Default for DecodeBatch {
    fn default() -> Self {
        Self::new()
    }
}

impl Transformer {
    /// Builds a model with deterministic initialization from `seed`.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        let mut rng: ChaCha8Rng = seeded_rng(seed);
        let embedding = Embedding::new(cfg.vocab, cfg.seq, cfg.hidden, &mut rng);
        let blocks = (0..cfg.layers)
            .map(|_| Block::new(cfg.hidden, cfg.heads, &mut rng))
            .collect();
        Transformer {
            cfg,
            embedding,
            blocks,
            lnf_g: Tensor::full([cfg.hidden], 1.0),
            lnf_b: Tensor::zeros([cfg.hidden]),
            head_panels: None,
        }
    }

    /// Packs the tied head once for serving ([`Transformer::head_panels`]):
    /// the token table stays row-major for the embedding lookup, and the
    /// decode head reads the image — `vocab · hidden` more floats of host
    /// memory, the same logits bit for bit.
    pub fn pack_head(&mut self) {
        self.head_panels = Some(PackedNt::pack(&self.embedding.token));
    }

    /// Total parameter count (matches `cfg.total_params()`).
    pub fn param_count(&self) -> u64 {
        self.embedding.param_count() as u64
            + self
                .blocks
                .iter()
                .map(|b| b.param_count() as u64)
                .sum::<u64>()
            + 2 * self.cfg.hidden as u64
    }

    /// Allocates zeroed gradients.
    pub fn zero_grads(&self) -> TransformerGrads {
        TransformerGrads {
            embedding: self.embedding.zero_grads(),
            blocks: self.blocks.iter().map(|b| b.zero_grads()).collect(),
            lnf_g: Tensor::zeros(*self.lnf_g.shape()),
            lnf_b: Tensor::zeros(*self.lnf_b.shape()),
        }
    }

    // ----- layer-level API (what the runtime schedules) -----

    /// Layer 0 forward: embeds one sample.
    pub fn embed(&self, tokens: &[u32]) -> Tensor {
        self.embedding.forward(tokens)
    }

    /// Block `i` forward without cache (checkpointed FP).
    pub fn block_forward(&self, i: usize, x: &Tensor) -> Tensor {
        self.blocks[i].forward_no_cache(x)
    }

    /// Head forward + loss + gradient w.r.t. the head input, for one sample.
    ///
    /// Returns `(mean CE loss, d_input, cache)`.
    pub fn head_forward_loss(&self, x: &Tensor, targets: &[u32]) -> (f32, Tensor, HeadCache) {
        let (lnf_out, lnf_cache) = layernorm(x, &self.lnf_g, &self.lnf_b, LN_EPS);
        // Tied LM head: logits = lnf_out · Wtokᵀ.
        let logits = matmul_nt(&lnf_out, &self.embedding.token);
        let (loss, dlogits) = cross_entropy(&logits, targets);
        // d_lnf_out = dlogits · Wtok.
        let d_lnf_out = stronghold_tensor::matmul::matmul(&dlogits, &self.embedding.token);
        // dx via the final layernorm; parameter grads applied in head_backward.
        let mut dg = Tensor::zeros(*self.lnf_g.shape());
        let mut db = Tensor::zeros(*self.lnf_b.shape());
        let dx = layernorm_backward(&d_lnf_out, x, &self.lnf_g, &lnf_cache, &mut dg, &mut db);
        (
            loss,
            dx,
            HeadCache {
                lnf_out,
                dlogits,
                dg,
                db,
            },
        )
    }

    /// Head backward: accumulates the tied-LM-head and final-LN gradients.
    pub fn head_backward(&self, cache: &HeadCache, grads: &mut TransformerGrads) {
        // dWtok += dlogitsᵀ · lnf_out.
        matmul_tn_acc(&cache.dlogits, &cache.lnf_out, &mut grads.embedding.token);
        use stronghold_tensor::ops::add_assign;
        add_assign(&mut grads.lnf_g, &cache.dg);
        add_assign(&mut grads.lnf_b, &cache.db);
    }

    /// Block `i` backward with recompute-from-checkpoint. `x` is the block's
    /// saved input; returns `dx`. The recomputed activations are returned to
    /// the scratch pool on the way out.
    pub fn block_backward(
        &self,
        i: usize,
        dy: &Tensor,
        x: &Tensor,
        grads: &mut BlockGrads,
    ) -> Tensor {
        let (y, cache) = self.blocks[i].forward(x); // recompute (checkpointing)
        stronghold_tensor::scratch::give(y);
        let dx = self.blocks[i].backward(dy, x, &cache, grads);
        cache.recycle();
        dx
    }

    /// Layer 0 backward: scatter-add into the embedding tables.
    pub fn embed_backward(&self, dy: &Tensor, tokens: &[u32], grads: &mut TransformerGrads) {
        self.embedding.backward(dy, tokens, &mut grads.embedding);
    }

    // ----- serving (incremental decode) API -----

    /// Embeds a token run starting at absolute position `pos0` into a
    /// reusable output (serving: decode steps and mid-sequence prefill).
    pub fn embed_at_into(&self, tokens: &[u32], pos0: usize, out: &mut Tensor) {
        self.embedding.forward_at_into(tokens, pos0, out);
    }

    /// Block `i` incremental forward against a sequence's KV cache
    /// (serving). See [`Block::forward_decode`] for the bit contract.
    pub fn block_forward_decode(
        &self,
        i: usize,
        x: &Tensor,
        cache: &mut KvCache,
        ws: &mut BlockDecodeScratch,
        y: &mut Tensor,
    ) {
        self.blocks[i].forward_decode(x, cache, ws, y);
    }

    /// Final layernorm + tied LM head for the *last* row of `x` only:
    /// writes `[1, vocab]` logits into `logits` — the one-row case of
    /// [`Transformer::lm_logits_rows_into`].
    pub fn lm_logits_last_into(&self, x: &Tensor, ws: &mut HeadDecodeScratch, logits: &mut Tensor) {
        let t = x.shape().dim(0);
        assert!(t > 0, "lm_logits_last_into: empty input");
        self.lm_logits_rows_into(x, &[t - 1], ws, logits);
    }

    /// Final layernorm + tied LM head for the listed rows of `x` (each
    /// stacked sequence's last token): writes `[rows.len(), vocab]` logits
    /// with **one** product against the embedding table (its panel image
    /// when [`Transformer::pack_head`] built one). Layernorm is per-row and
    /// the head product is batch-stable, so a row's logits are
    /// bit-identical whether it arrived via prefill or single-token decode,
    /// however many other rows share the call, and with or without the
    /// image.
    pub fn lm_logits_rows_into(
        &self,
        x: &Tensor,
        rows: &[usize],
        ws: &mut HeadDecodeScratch,
        logits: &mut Tensor,
    ) {
        let h = x.shape().dim(1);
        ws.last_row.reset_for([rows.len(), h]);
        for (dst, &r) in ws.last_row.data_mut().chunks_exact_mut(h).zip(rows) {
            dst.copy_from_slice(&x.data()[r * h..(r + 1) * h]);
        }
        layernorm_into(
            &ws.last_row,
            &self.lnf_g,
            &self.lnf_b,
            LN_EPS,
            &mut ws.lnf_out,
            &mut ws.ln_cache,
        );
        let v = self.embedding.vocab();
        logits.reset_for([rows.len(), v]);
        let (x, y, m) = (ws.lnf_out.data(), logits.data_mut(), rows.len());
        match &self.head_panels {
            Some(p) => matmul_packed(x, p.view(), y, m),
            None => matmul_nt_stable(x, self.embedding.token.data(), y, m, h, v),
        }
    }

    /// One sample's gradient-fold leaf: forward with layer-wise
    /// checkpointing, then backward writing `scale ×` the sample's gradient
    /// into `slot` — every block through [`Block::leaf_backward`], the
    /// embedding and final-LN groups zeroed, accumulated and scaled in
    /// place. The bits equal zeroing a scratch, accumulating the backward
    /// into it and `slot = 0.0 + scale·scratch`, with `slot`'s prior
    /// contents never read and no scratch. Returns the sample's loss.
    pub fn forward_backward_leaf(
        &self,
        tokens: &[u32],
        targets: &[u32],
        slot: &mut TransformerGrads,
        scale: f32,
    ) -> f32 {
        use stronghold_tensor::scratch as pool;
        let write = GradWrite::Leaf(scale);
        for g in slot.resident_mut() {
            write.begin(g);
        }
        let n = self.blocks.len();
        // FP with layer-wise checkpointing: each block's input tensor is
        // *moved* into the checkpoint list (the block writes a fresh pooled
        // tensor), never cloned.
        let mut inputs: Vec<Tensor> = Vec::with_capacity(n);
        let mut x = self.embed(tokens);
        for i in 0..n {
            let next = self.block_forward(i, &x);
            inputs.push(std::mem::replace(&mut x, next));
        }

        let (loss, mut dy, head_cache) = self.head_forward_loss(&x, targets);
        pool::give(x); // head input is done
        self.head_backward(&head_cache, slot);
        head_cache.recycle();
        for i in (0..n).rev() {
            let dxs = self.blocks[i].leaf_backward(&dy, &inputs[i], &mut slot.blocks[i], scale);
            pool::give(std::mem::replace(&mut dy, dxs));
        }
        self.embed_backward(&dy, tokens, slot);
        pool::give(dy);
        for t in inputs {
            pool::give(t);
        }
        for g in slot.resident_mut() {
            write.finish(g);
        }
        loss
    }

    /// Forward-only loss (inference / knowledge distillation FP).
    pub fn forward_loss(&self, tokens: &[u32], targets: &[u32]) -> f32 {
        let mut x = self.embed(tokens);
        for i in 0..self.blocks.len() {
            x = self.block_forward(i, &x);
        }
        let (lnf_out, _) = layernorm(&x, &self.lnf_g, &self.lnf_b, LN_EPS);
        let logits = matmul_nt(&lnf_out, &self.embedding.token);
        cross_entropy(&logits, targets).0
    }
}

impl TransformerGrads {
    /// Zeroes every gradient tensor.
    pub fn zero_(&mut self) {
        self.embedding.zero_();
        for b in &mut self.blocks {
            b.zero_();
        }
        self.lnf_g.zero_();
        self.lnf_b.zero_();
    }

    /// The resident groups (token, position, final-LN gain, final-LN bias):
    /// everything but the blocks.
    fn resident_mut(&mut self) -> [&mut Tensor; 4] {
        [
            &mut self.embedding.token,
            &mut self.embedding.position,
            &mut self.lnf_g,
            &mut self.lnf_b,
        ]
    }

    /// `self = 0.0 + scale * other` over the resident groups, in one pass:
    /// the bits of zeroing them and [`TransformerGrads::accumulate_scaled`]
    /// — a resident-group fold leaf. Block gradients are not touched.
    pub fn set_resident_scaled(&mut self, other: &TransformerGrads, scale: f32) {
        let src = [
            &other.embedding.token,
            &other.embedding.position,
            &other.lnf_g,
            &other.lnf_b,
        ];
        for (dst, src) in self.resident_mut().into_iter().zip(src) {
            axpy_from_zero(dst, scale, src);
        }
    }

    /// `self += scale * other`.
    pub fn accumulate_scaled(&mut self, other: &TransformerGrads, scale: f32) {
        use stronghold_tensor::ops::axpy;
        axpy(&mut self.embedding.token, scale, &other.embedding.token);
        axpy(
            &mut self.embedding.position,
            scale,
            &other.embedding.position,
        );
        for (a, b) in self.blocks.iter_mut().zip(other.blocks.iter()) {
            a.accumulate_scaled(b, scale);
        }
        axpy(&mut self.lnf_g, scale, &other.lnf_g);
        axpy(&mut self.lnf_b, scale, &other.lnf_b);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::tiny;
    use proptest::prelude::*;
    use stronghold_tensor::init::normal;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        /// The multi-row head is the row-at-a-time head: one product over
        /// any selection of rows gives each row the bits it gets alone,
        /// and reading the packed head image changes no bit.
        #[test]
        fn prop_multi_row_head_equals_row_at_a_time(
            rows in proptest::collection::vec(0usize..40, 1..7),
            seed in 0u64..1000,
        ) {
            let cfg = tiny(1);
            let model = Transformer::new(cfg, seed);
            let x = normal([40, cfg.hidden], 1.0, &mut seeded_rng(seed + 1));
            let mut ws = HeadDecodeScratch::new();
            let mut all = Tensor::zeros([1]);
            model.lm_logits_rows_into(&x, &rows, &mut ws, &mut all);
            let mut served = Transformer::new(cfg, seed);
            served.pack_head();
            let mut packed = Tensor::zeros([1]);
            served.lm_logits_rows_into(&x, &rows, &mut ws, &mut packed);
            prop_assert_eq!(bits(&packed), bits(&all));
            let mut one = Tensor::zeros([1]);
            for (n, &r) in rows.iter().enumerate() {
                let upto = Tensor::from_vec(
                    [r + 1, cfg.hidden],
                    x.data()[..(r + 1) * cfg.hidden].to_vec(),
                );
                model.lm_logits_last_into(&upto, &mut ws, &mut one);
                let got = &all.data()[n * cfg.vocab..(n + 1) * cfg.vocab];
                for (a, b) in got.iter().zip(one.data()) {
                    prop_assert_eq!(a.to_bits(), b.to_bits());
                }
            }
        }
    }

    fn bits(t: &Tensor) -> Vec<u32> {
        t.data().iter().map(|v| v.to_bits()).collect()
    }

    /// Every gradient tensor of a model, in a fixed order.
    fn grad_tensors(g: &TransformerGrads) -> Vec<&Tensor> {
        let mut out = vec![
            &g.embedding.token,
            &g.embedding.position,
            &g.lnf_g,
            &g.lnf_b,
        ];
        for b in &g.blocks {
            out.extend([
                &b.ln1_g,
                &b.ln1_b,
                &b.attn.qkv.weight,
                &b.attn.qkv.bias,
                &b.attn.proj.weight,
                &b.attn.proj.bias,
                &b.ln2_g,
                &b.ln2_b,
                &b.fc1.weight,
                &b.fc1.bias,
                &b.fc2.weight,
                &b.fc2.bias,
            ]);
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(8))]
        /// The whole-model fold leaf is the scratch sequence: zero a
        /// whole-model scratch, accumulate one sample's head, block and
        /// embedding backward into it, then zero the slot and
        /// `accumulate_scaled` the scratch in — bit for bit in
        /// every gradient tensor, with the same loss, over a slot that
        /// starts as another sample's leaf.
        #[test]
        fn prop_forward_backward_leaf_is_the_scratch_sequence(
            len in 1usize..16,
            seed in 0u64..1000,
        ) {
            let cfg = tiny(2);
            let model = Transformer::new(cfg, seed);
            let mut corpus = crate::data::SyntheticCorpus::new(cfg.vocab, seed);
            let (tokens, targets) = corpus.next_sample(len);
            let (other, other_targets) = corpus.next_sample(cfg.seq - 1);
            for s in [1.0f32, 0.5, 1.0 / 3.0, 0.25] {
                let mut scratch = model.zero_grads();
                let mut xs = vec![model.embed(&tokens)];
                for i in 0..cfg.layers {
                    let next = model.block_forward(i, &xs[i]);
                    xs.push(next);
                }
                let (want_loss, mut dy, cache) = model.head_forward_loss(&xs[cfg.layers], &targets);
                model.head_backward(&cache, &mut scratch);
                for i in (0..cfg.layers).rev() {
                    dy = model.block_backward(i, &dy, &xs[i], &mut scratch.blocks[i]);
                }
                model.embed_backward(&dy, &tokens, &mut scratch);
                let mut want = model.zero_grads();
                want.accumulate_scaled(&scratch, s);

                let mut slot = model.zero_grads();
                model.forward_backward_leaf(&other, &other_targets, &mut slot, 0.5);
                let loss = model.forward_backward_leaf(&tokens, &targets, &mut slot, s);
                prop_assert_eq!(loss.to_bits(), want_loss.to_bits());
                for (i, (got, want)) in grad_tensors(&slot).into_iter().zip(grad_tensors(&want)).enumerate() {
                    prop_assert!(bits(got) == bits(want), "tensor {i} len={len} s={s}");
                }
            }
        }
    }

    #[test]
    fn param_count_matches_config() {
        let cfg = tiny(3);
        let m = Transformer::new(cfg, 1);
        assert_eq!(m.param_count(), cfg.total_params());
    }

    #[test]
    fn forward_loss_is_near_log_vocab_at_init() {
        let cfg = tiny(2);
        let m = Transformer::new(cfg, 2);
        let tokens: Vec<u32> = (0..cfg.seq as u32).map(|i| i % cfg.vocab as u32).collect();
        let loss = m.forward_loss(&tokens[..cfg.seq - 1], &tokens[1..]);
        let expect = (cfg.vocab as f32).ln();
        assert!((loss - expect).abs() < 1.0, "loss {loss} vs ln(V) {expect}");
    }

    #[test]
    fn training_reduces_loss() {
        let cfg = tiny(2);
        let mut m = Transformer::new(cfg, 3);
        // A highly regular sequence the model should memorize quickly.
        let tokens: Vec<u32> = (0..cfg.seq as u32).map(|i| (i % 4) * 7).collect();
        let inputs = &tokens[..cfg.seq - 1];
        let targets = &tokens[1..];
        let initial = m.forward_loss(inputs, targets);
        let lr = 0.05;
        for _ in 0..30 {
            let mut grads = m.zero_grads();
            m.forward_backward_leaf(inputs, targets, &mut grads, 1.0);
            sgd_step(&mut m, &grads, lr);
        }
        let fin = m.forward_loss(inputs, targets);
        assert!(fin < initial * 0.6, "loss did not drop: {initial} -> {fin}");
    }

    /// Plain SGD used only by tests (Adam lives in stronghold-core).
    fn sgd_step(m: &mut Transformer, grads: &TransformerGrads, lr: f32) {
        use stronghold_tensor::ops::axpy;
        axpy(&mut m.embedding.token, -lr, &grads.embedding.token);
        axpy(&mut m.embedding.position, -lr, &grads.embedding.position);
        for (b, g) in m.blocks.iter_mut().zip(grads.blocks.iter()) {
            let mut p = b.flatten_params();
            for (p, g) in p.iter_mut().zip(g.flatten()) {
                *p -= lr * g;
            }
            b.load_flat_params(&p);
        }
        axpy(&mut m.lnf_g, -lr, &grads.lnf_g);
        axpy(&mut m.lnf_b, -lr, &grads.lnf_b);
    }

    #[test]
    fn gradient_determinism() {
        let cfg = tiny(2);
        let m = Transformer::new(cfg, 5);
        let tokens: Vec<u32> = (0..15).map(|i| i % 9).collect();
        let mut g1 = m.zero_grads();
        let l1 = m.forward_backward_leaf(&tokens, &tokens, &mut g1, 1.0);
        let mut g2 = m.zero_grads();
        let l2 = m.forward_backward_leaf(&tokens, &tokens, &mut g2, 1.0);
        assert_eq!(l1, l2);
        assert_eq!(g1.blocks[0].flatten(), g2.blocks[0].flatten());
        assert_eq!(g1.embedding.token, g2.embedding.token);
    }
}
