//! Causal multi-head self-attention with explicit forward/backward.
//!
//! Operates on a single sequence `x: [T, H]`; batching is handled one level
//! up (the model loops samples).
//!
//! Every per-head product runs on the blocked GEMM kernels of
//! [`crate::matmul`]: heads are gathered out of the fused QKV activation
//! into contiguous `[T, dh]` buffers once, after which scores
//! (`Q·Kᵀ` via `matmul_nt`), context (`P·V` via `matmul`), and all five
//! backward products are straight kernel calls — no strided hand-rolled
//! dot loops, and no transposes are ever materialized.
//!
//! Heads are independent — each owns its probability matrix and disjoint
//! columns of the context (forward) or of `dQKV` (backward) — so the
//! per-head loops of [`Attention::forward`] / [`Attention::backward`] fan
//! out over the same fork-join pool as the GEMM tile grid when the
//! sequence is long enough to pay for it. Which thread runs a head never
//! changes its arithmetic.

use std::cell::RefCell;

use rand_chacha::ChaCha8Rng;

use crate::linear::{Linear, LinearGrads};
use crate::matmul::{
    fan_out, matmul_into, matmul_nn_stable, matmul_nt_into, matmul_nt_stable, matmul_tn_into,
    worth_forking,
};
use crate::ops::{scale_assign, softmax_row_inplace, softmax_rows_, softmax_rows_backward_into};
use crate::scratch;
use crate::simd::SendPtr;
use crate::tensor::Tensor;

/// Copies `width` columns starting at `col0` out of `src: [T, W]` into a
/// contiguous `[T, width]` tensor (the per-head gather), reusing `out`'s
/// allocation.
fn gather_cols_into(src: &Tensor, col0: usize, width: usize, out: &mut Tensor) {
    let t = src.shape().dim(0);
    let w = src.shape().dim(1);
    out.reset_for([t, width]);
    for i in 0..t {
        out.data_mut()[i * width..(i + 1) * width]
            .copy_from_slice(&src.data()[i * w + col0..i * w + col0 + width]);
    }
}

/// Writes `src: [T, width]` into columns `col0..col0+width` of the
/// `[T, w]` matrix behind `dst` (the per-head scatter).
///
/// # Safety
/// `dst` must point to a live `[T, w]` row-major matrix with `T` the row
/// count of `src`, and no other thread may access columns
/// `col0..col0+width` of it during the call (heads own disjoint columns).
unsafe fn scatter_cols(dst: SendPtr, w: usize, src: &Tensor, col0: usize) {
    let width = src.shape().dim(1);
    for (i, row) in src.data().chunks_exact(width).enumerate() {
        std::ptr::copy_nonoverlapping(row.as_ptr(), dst.get().add(i * w + col0), width);
    }
}

thread_local! {
    /// One head's temporaries for [`Attention::forward`] /
    /// [`Attention::backward`] — `[q, k, v, ctx_h, dctx_h, dprobs, ds, dq,
    /// dk, dv]`: the gathered `[T, dh]` operands and the per-head results
    /// on their way to the scatter. Each thread that runs heads keeps one
    /// set, sized on first use — head tasks land on pool helpers in no
    /// fixed order, and renting these from the shared [`scratch`] pool
    /// would reshuffle (and so keep regrowing) the buffers the rest of the
    /// step cycles through it.
    static HEAD_SCRATCH: RefCell<[Tensor; 10]> =
        RefCell::new(std::array::from_fn(|_| Tensor::zeros([0])));
}

/// Multi-head causal self-attention: fused QKV projection plus output
/// projection, mirroring a Megatron-style attention block.
#[derive(Clone, Debug)]
pub struct Attention {
    /// Fused QKV projection `[3H, H]`.
    pub qkv: Linear,
    /// Output projection `[H, H]`.
    pub proj: Linear,
    /// Number of attention heads.
    pub heads: usize,
}

/// Activations saved by [`Attention::forward`] for the backward pass.
#[derive(Clone)]
pub struct AttentionCache {
    /// Fused QKV output `[T, 3H]`.
    pub qkv_out: Tensor,
    /// Per-head attention probabilities, each `[T, T]`.
    pub probs: Vec<Tensor>,
    /// Concatenated per-head context `[T, H]` (input to the projection).
    pub ctx: Tensor,
}

/// Gradients of an [`Attention`] layer.
#[derive(Clone, Debug)]
pub struct AttentionGrads {
    /// QKV projection gradients.
    pub qkv: LinearGrads,
    /// Output projection gradients.
    pub proj: LinearGrads,
}

impl Attention {
    /// Creates an attention block for hidden size `hidden` with `heads` heads.
    ///
    /// # Panics
    /// Panics unless `hidden % heads == 0`.
    pub fn new(hidden: usize, heads: usize, rng: &mut ChaCha8Rng) -> Self {
        assert_eq!(
            hidden % heads,
            0,
            "hidden {hidden} not divisible by heads {heads}"
        );
        Attention {
            qkv: Linear::new(3 * hidden, hidden, rng),
            proj: Linear::new(hidden, hidden, rng),
            heads,
        }
    }

    /// Total parameter count.
    pub fn param_count(&self) -> usize {
        self.qkv.param_count() + self.proj.param_count()
    }

    /// Allocates zeroed gradients.
    pub fn zero_grads(&self) -> AttentionGrads {
        AttentionGrads {
            qkv: self.qkv.zero_grads(),
            proj: self.proj.zero_grads(),
        }
    }

    /// Forward pass for one sequence `x: [T, H]`; returns `(y, cache)`.
    pub fn forward(&self, x: &Tensor) -> (Tensor, AttentionCache) {
        let t = x.shape().dim(0);
        let h = x.shape().dim(1);
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        let qkv_out = self.qkv.forward(x); // [T, 3H]
        let mut ctx = scratch::take([t, h]); // fully overwritten by scatters
        let mut probs: Vec<Tensor> = (0..self.heads).map(|_| scratch::take([t, t])).collect();
        let ctx_ptr = SendPtr(ctx.data_mut().as_mut_ptr());
        let probs_ptr = SendPtr(probs.as_mut_ptr());

        // Two [T, T, dh] products per head.
        let flops = self.heads * 4 * t * t * dh;
        fan_out(self.heads, worth_forking(flops), |head| {
            HEAD_SCRATCH.with(|ws| {
                let [q, k, v, ctx_h, ..] = &mut *ws.borrow_mut();
                gather_cols_into(&qkv_out, head * dh, dh, q); // [T, dh]
                gather_cols_into(&qkv_out, h + head * dh, dh, k); // [T, dh]
                gather_cols_into(&qkv_out, 2 * h + head * dh, dh, v); // [T, dh]

                // scores = Q·Kᵀ · scale, causally masked, then row softmax.
                // Masked positions soften to exact zeros, so the full P·V
                // product below contributes nothing from future tokens.
                // SAFETY: `probs` holds one tensor per head and each head
                // index is run by exactly one task.
                let p = unsafe { &mut *probs_ptr.get().add(head) };
                matmul_nt_into(q, k, p); // [T, T]
                for i in 0..t {
                    let row = &mut p.data_mut()[i * t..(i + 1) * t];
                    for rj in &mut row[..=i] {
                        *rj *= scale;
                    }
                    row[i + 1..].fill(f32::NEG_INFINITY);
                }
                softmax_rows_(p);

                // ctx_h = P·V, [T, dh].
                matmul_into(p, v, ctx_h);
                // SAFETY: `ctx` is `[T, H]` and this head alone writes its
                // `dh` columns.
                unsafe { scatter_cols(ctx_ptr, h, ctx_h, head * dh) };
            });
        });

        let y = self.proj.forward(&ctx);
        (
            y,
            AttentionCache {
                qkv_out,
                probs,
                ctx,
            },
        )
    }

    /// Backward pass. Given upstream `dy: [T, H]`, the layer input `x` and the
    /// forward cache, returns `dx` and accumulates parameter gradients.
    pub fn backward(
        &self,
        dy: &Tensor,
        x: &Tensor,
        cache: &AttentionCache,
        grads: &mut AttentionGrads,
    ) -> Tensor {
        let t = x.shape().dim(0);
        let h = x.shape().dim(1);
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        // Through the output projection.
        let dctx = self.proj.backward(dy, &cache.ctx, &mut grads.proj); // [T, H]

        let mut dqkv = scratch::take([t, 3 * h]); // fully overwritten by scatters
        let dqkv_ptr = SendPtr(dqkv.data_mut().as_mut_ptr());
        // Five [T, T, dh] products per head.
        let flops = self.heads * 10 * t * t * dh;
        fan_out(self.heads, worth_forking(flops), |head| {
            HEAD_SCRATCH.with(|ws| {
                let [q, k, v, _, dctx_h, dprobs, ds, dq, dk, dv] = &mut *ws.borrow_mut();
                let p = &cache.probs[head];
                gather_cols_into(&cache.qkv_out, head * dh, dh, q);
                gather_cols_into(&cache.qkv_out, h + head * dh, dh, k);
                gather_cols_into(&cache.qkv_out, 2 * h + head * dh, dh, v);
                gather_cols_into(&dctx, head * dh, dh, dctx_h);

                // dP = dCtx·Vᵀ ; dV = Pᵀ·dCtx. Masked positions of dP feed
                // the softmax backward below, which zeroes them because the
                // cached probabilities are exactly zero there.
                matmul_nt_into(dctx_h, v, dprobs); // [T, T]
                matmul_tn_into(p, dctx_h, dv); // [T, dh]

                // Through the softmax, then fold in the score scale once:
                // dQ = (dS·scale)·K ; dK = (dS·scale)ᵀ·Q.
                softmax_rows_backward_into(dprobs, p, ds); // [T, T]
                scale_assign(ds, scale);
                matmul_into(ds, k, dq); // [T, dh]
                matmul_tn_into(ds, q, dk); // [T, dh]

                // SAFETY: `dqkv` is `[T, 3H]` and this head alone writes
                // its `dh` columns of each of the Q, K and V thirds.
                unsafe {
                    scatter_cols(dqkv_ptr, 3 * h, dq, head * dh);
                    scatter_cols(dqkv_ptr, 3 * h, dk, h + head * dh);
                    scatter_cols(dqkv_ptr, 3 * h, dv, 2 * h + head * dh);
                }
            });
        });
        scratch::give(dctx);

        // Through the fused QKV projection.
        let dx = self.qkv.backward(&dqkv, x, &mut grads.qkv);
        scratch::give(dqkv);
        dx
    }
}

/// Per-sequence K/V cache for incremental decoding: the keys and values of
/// every token seen so far, stored head-major so the causal prefix of one
/// head is a contiguous `[len, dh]` slice ready for the stable GEMM entries.
///
/// Capacity is allocated once at construction (`2 · heads · max_seq · dh`
/// floats); [`KvCache::clear`] rewinds the logical length for slot reuse
/// without freeing, so steady-state decode never allocates.
#[derive(Clone, Debug)]
pub struct KvCache {
    k: Vec<f32>,
    v: Vec<f32>,
    heads: usize,
    dh: usize,
    max_seq: usize,
    len: usize,
}

impl KvCache {
    /// Allocates a cache for `heads` heads of width `dh`, holding up to
    /// `max_seq` tokens.
    pub fn new(heads: usize, dh: usize, max_seq: usize) -> Self {
        KvCache {
            k: vec![0.0; heads * max_seq * dh],
            v: vec![0.0; heads * max_seq * dh],
            heads,
            dh,
            max_seq,
            len: 0,
        }
    }

    /// Tokens currently cached.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no tokens are cached.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Token capacity.
    pub fn max_seq(&self) -> usize {
        self.max_seq
    }

    /// Rewinds to empty without releasing storage (slot reuse).
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Bytes of K/V storage this cache pins (f32 entries).
    pub fn nbytes(&self) -> u64 {
        (2 * self.heads * self.max_seq * self.dh * std::mem::size_of::<f32>()) as u64
    }

    /// The cached keys of one head: a contiguous `[len, dh]` slice.
    pub fn keys(&self, head: usize) -> &[f32] {
        let base = head * self.max_seq * self.dh;
        &self.k[base..base + self.len * self.dh]
    }

    /// The cached values of one head: a contiguous `[len, dh]` slice.
    pub fn values(&self, head: usize) -> &[f32] {
        let base = head * self.max_seq * self.dh;
        &self.v[base..base + self.len * self.dh]
    }

    /// Appends one token's K/V rows, sliced per head out of a fused
    /// `[3H]`-wide QKV activation row.
    fn push_token(&mut self, qkv_row: &[f32], h: usize) {
        assert!(self.len < self.max_seq, "KvCache overflow");
        for head in 0..self.heads {
            let base = (head * self.max_seq + self.len) * self.dh;
            let kcol = h + head * self.dh;
            let vcol = 2 * h + head * self.dh;
            self.k[base..base + self.dh].copy_from_slice(&qkv_row[kcol..kcol + self.dh]);
            self.v[base..base + self.dh].copy_from_slice(&qkv_row[vcol..vcol + self.dh]);
        }
        self.len += 1;
    }
}

/// One sequence's share of a stacked decode activation: `len` consecutive
/// rows, attended against `caches[cache]`. A segment list partitions the
/// activation's rows in order, with strictly ascending cache indices (one
/// segment per sequence).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Segment {
    /// Index of this sequence's [`KvCache`] in the call's cache slice.
    pub cache: usize,
    /// Rows this sequence contributes (a whole prompt, or one decode token).
    pub len: usize,
}

/// Reusable workspace for [`Attention::forward_decode_segments`]; holds the
/// fused QKV activation, one score row per worker, and the stacked context
/// so repeated decode steps are allocation-free after warm-up.
#[derive(Clone)]
pub struct DecodeScratch {
    qkv_out: Tensor,
    scores: Vec<f32>,
    ctx: Tensor,
}

impl DecodeScratch {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        DecodeScratch {
            qkv_out: Tensor::zeros([1]),
            scores: Vec::new(),
            ctx: Tensor::zeros([1]),
        }
    }
}

impl Default for DecodeScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl Attention {
    /// Incremental causal forward for one sequence: the one-segment case
    /// of [`Attention::forward_decode_segments`] over `x: [R, H]`.
    pub fn forward_decode(
        &self,
        x: &Tensor,
        cache: &mut KvCache,
        ws: &mut DecodeScratch,
        y: &mut Tensor,
    ) {
        let seg = Segment {
            cache: 0,
            len: x.shape().dim(0),
        };
        self.forward_decode_segments(x, &[seg], std::slice::from_mut(cache), ws, y, 1);
    }

    /// Incremental causal forward for serving with selective batching:
    /// `x: [ΣR, H]` stacks the new tokens of several sequences (`segs`
    /// partitions its rows). The QKV and output projections run as **one**
    /// product each over all `ΣR` rows, so the weights are packed once per
    /// call; between them every segment appends its K/V rows to its own
    /// cache and attends causally against that cache only. `workers > 1`
    /// fans the segments — independent by construction — across threads.
    /// Writes the attention output into `y: [ΣR, H]`.
    ///
    /// Bit-compatibility contract: every product uses the batch-stable
    /// GEMM entries and every softmax runs over exactly the causal prefix
    /// `0..=pos`, so the bits of one token's output depend only on the
    /// tokens before it in its own sequence — a full-prompt prefill, a
    /// token-at-a-time replay, and any stacking with other sequences (at
    /// any worker count) produce identical streams.
    ///
    /// # Panics
    /// Panics if `segs` does not partition `x`'s rows, its cache indices
    /// are not strictly ascending, or a cache's geometry mismatches.
    pub fn forward_decode_segments(
        &self,
        x: &Tensor,
        segs: &[Segment],
        caches: &mut [KvCache],
        ws: &mut DecodeScratch,
        y: &mut Tensor,
        workers: usize,
    ) {
        let (r, h) = x.shape().as_2d();
        assert_eq!(
            segs.iter().map(|s| s.len).sum::<usize>(),
            r,
            "segments must partition the stacked rows"
        );
        assert!(
            segs.windows(2).all(|w| w[0].cache < w[1].cache),
            "segment cache indices must be strictly ascending"
        );

        self.qkv.forward_stable_into(x, &mut ws.qkv_out); // [ΣR, 3H]
        ws.ctx.reset_for([r, h]);
        let max_seq = caches.iter().map(|c| c.max_seq).max().unwrap_or(0);
        let per = segs.len().div_ceil(workers.max(1)).max(1);
        ws.scores.resize(segs.len().div_ceil(per) * max_seq, 0.0);

        if segs.len() <= per {
            self.attend(
                segs,
                caches,
                0,
                ws.qkv_out.data(),
                ws.ctx.data_mut(),
                &mut ws.scores,
            );
        } else {
            // Ascending cache indices and in-order rows let every chunk of
            // segments split off its own caches, rows and score buffer.
            let mut caches = caches;
            let mut base = 0;
            let mut qkv = ws.qkv_out.data();
            let mut ctx = ws.ctx.data_mut();
            let mut scores = ws.scores.chunks_mut(max_seq);
            std::thread::scope(|scope| {
                let mut chunks = segs.chunks(per).peekable();
                while let Some(chunk) = chunks.next() {
                    let rows: usize = chunk.iter().map(|s| s.len).sum();
                    let hi = chunk[chunk.len() - 1].cache + 1;
                    let (mine, rest) = std::mem::take(&mut caches).split_at_mut(hi - base);
                    let (q, q_rest) = qkv.split_at(rows * 3 * h);
                    let (c, c_rest) = std::mem::take(&mut ctx).split_at_mut(rows * h);
                    let sc = scores.next().expect("one score buffer per chunk");
                    // The calling thread takes the last chunk itself.
                    if chunks.peek().is_some() {
                        scope.spawn(move || self.attend(chunk, mine, base, q, c, sc));
                    } else {
                        self.attend(chunk, mine, base, q, c, sc);
                    }
                    (caches, base, qkv, ctx) = (rest, hi, q_rest, c_rest);
                }
            });
        }
        self.proj.forward_stable_into(&ws.ctx, y);
    }

    /// Per-sequence score → softmax → context for a run of segments whose
    /// rows start at row 0 of `qkv: [rows, 3H]` / `ctx: [rows, H]` and
    /// whose caches are `caches[seg.cache - base]`.
    fn attend(
        &self,
        segs: &[Segment],
        caches: &mut [KvCache],
        base: usize,
        qkv: &[f32],
        ctx: &mut [f32],
        scores: &mut [f32],
    ) {
        let h = self.proj.in_features();
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut rows = qkv.chunks_exact(3 * h).zip(ctx.chunks_exact_mut(h));
        for seg in segs {
            let cache = &mut caches[seg.cache - base];
            assert_eq!(cache.heads, self.heads, "KvCache heads mismatch");
            assert_eq!(cache.dh, dh, "KvCache head width mismatch");
            for (qkv_row, ctx_row) in rows.by_ref().take(seg.len) {
                // Append this token's K/V first: causal attention includes self.
                cache.push_token(qkv_row, h);
                let pos = cache.len; // tokens visible to this query
                for head in 0..self.heads {
                    let q_row = &qkv_row[head * dh..(head + 1) * dh];
                    let scores = &mut scores[..pos];
                    matmul_nt_stable(q_row, cache.keys(head), scores, 1, dh, pos);
                    for s in scores.iter_mut() {
                        *s *= scale;
                    }
                    softmax_row_inplace(scores);
                    matmul_nn_stable(
                        scores,
                        cache.values(head),
                        &mut ctx_row[head * dh..(head + 1) * dh],
                        1,
                        pos,
                        dh,
                    );
                }
            }
        }
    }
}

impl AttentionCache {
    /// Returns every cached activation's allocation to the thread-local
    /// scratch pool, so the next forward pass on this thread reuses them
    /// instead of allocating.
    pub fn recycle(self) {
        scratch::give(self.qkv_out);
        for p in self.probs {
            scratch::give(p);
        }
        scratch::give(self.ctx);
    }
}

impl AttentionGrads {
    /// Resets all gradients to zero.
    pub fn zero_(&mut self) {
        self.qkv.zero_();
        self.proj.zero_();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};

    #[test]
    fn causality_future_tokens_do_not_affect_past() {
        let mut rng = seeded_rng(40);
        let attn = Attention::new(16, 4, &mut rng);
        let x1 = normal([5, 16], 1.0, &mut rng);
        let mut x2 = x1.clone();
        // Perturb the last token only.
        for j in 0..16 {
            *x2.at_mut(&[4, j]) += 1.0;
        }
        let (y1, _) = attn.forward(&x1);
        let (y2, _) = attn.forward(&x2);
        // Outputs for tokens 0..4 must be identical.
        for i in 0..4 {
            for j in 0..16 {
                assert_eq!(
                    y1.at(&[i, j]),
                    y2.at(&[i, j]),
                    "token {i} leaked future info"
                );
            }
        }
        // Output at token 4 must differ.
        let diff: f32 = (0..16)
            .map(|j| (y1.at(&[4, j]) - y2.at(&[4, j])).abs())
            .sum();
        assert!(diff > 0.0);
    }

    #[test]
    fn probs_rows_sum_to_one_and_causal() {
        let mut rng = seeded_rng(41);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([6, 8], 1.0, &mut rng);
        let (_, cache) = attn.forward(&x);
        for p in &cache.probs {
            for i in 0..6 {
                let row = &p.data()[i * 6..(i + 1) * 6];
                let s: f32 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-5);
                for (j, &v) in row.iter().enumerate() {
                    if j > i {
                        assert_eq!(v, 0.0, "prob at masked position ({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = seeded_rng(42);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([4, 8], 0.7, &mut rng);
        let w = normal([4, 8], 1.0, &mut rng);
        let loss = |xin: &Tensor| -> f32 {
            let (y, _) = attn.forward(xin);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (_, cache) = attn.forward(&x);
        let mut grads = attn.zero_grads();
        let dx = attn.backward(&w, &x, &cache, &mut grads);
        let eps = 1e-3;
        for i in 0..x.numel() {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * eps);
            assert!(
                (num - dx.data()[i]).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}]: numeric {num} vs analytic {}",
                dx.data()[i]
            );
        }
    }

    #[test]
    fn gradient_check_qkv_weights() {
        let mut rng = seeded_rng(43);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([3, 8], 0.7, &mut rng);
        let w = normal([3, 8], 1.0, &mut rng);
        let loss = |a: &Attention| -> f32 {
            let (y, _) = a.forward(&x);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(p, q)| p * q)
                .sum()
        };
        let (_, cache) = attn.forward(&x);
        let mut grads = attn.zero_grads();
        attn.backward(&w, &x, &cache, &mut grads);
        let eps = 1e-3;
        for i in (0..attn.qkv.weight.numel()).step_by(17) {
            let mut ap = attn.clone();
            ap.qkv.weight.data_mut()[i] += eps;
            let mut am = attn.clone();
            am.qkv.weight.data_mut()[i] -= eps;
            let num = (loss(&ap) - loss(&am)) / (2.0 * eps);
            let ana = grads.qkv.weight.data()[i];
            assert!(
                (num - ana).abs() < 3e-2 * (1.0 + num.abs()),
                "dWqkv[{i}]: numeric {num} vs analytic {ana}"
            );
        }
    }

    #[test]
    fn decode_prefill_equals_token_at_a_time_bitwise() {
        let mut rng = seeded_rng(45);
        let attn = Attention::new(16, 4, &mut rng);
        let t = 7;
        let x = normal([t, 16], 1.0, &mut rng);

        // One-shot prefill of all T tokens.
        let mut cache_a = KvCache::new(4, 4, t);
        let mut ws_a = DecodeScratch::new();
        let mut y_a = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache_a, &mut ws_a, &mut y_a);

        // Token-at-a-time replay of the same sequence.
        let mut cache_b = KvCache::new(4, 4, t);
        let mut ws_b = DecodeScratch::new();
        let mut y_b = Tensor::zeros([1]);
        let mut row = Tensor::zeros([1, 16]);
        for i in 0..t {
            row.data_mut()
                .copy_from_slice(&x.data()[i * 16..(i + 1) * 16]);
            attn.forward_decode(&row, &mut cache_b, &mut ws_b, &mut y_b);
            for j in 0..16 {
                assert_eq!(
                    y_a.at(&[i, j]).to_bits(),
                    y_b.at(&[0, j]).to_bits(),
                    "decode bits diverge from prefill at token {i} col {j}"
                );
            }
        }
        assert_eq!(cache_a.len(), cache_b.len());
    }

    #[test]
    fn decode_matches_training_forward_numerically() {
        // The serving path softmaxes the exact causal prefix while training
        // softmaxes the full masked row, so bits may differ — but values
        // must agree to float tolerance.
        let mut rng = seeded_rng(46);
        let attn = Attention::new(16, 4, &mut rng);
        let t = 6;
        let x = normal([t, 16], 1.0, &mut rng);
        let (y_train, _) = attn.forward(&x);
        let mut cache = KvCache::new(4, 4, t);
        let mut ws = DecodeScratch::new();
        let mut y_serve = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache, &mut ws, &mut y_serve);
        assert!(y_train.max_abs_diff(&y_serve) < 1e-5);
    }

    #[test]
    fn kv_cache_clear_reuses_storage() {
        let mut rng = seeded_rng(47);
        let attn = Attention::new(8, 2, &mut rng);
        let x = normal([3, 8], 1.0, &mut rng);
        let mut cache = KvCache::new(2, 4, 8);
        let mut ws = DecodeScratch::new();
        let mut y1 = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache, &mut ws, &mut y1);
        let first = y1.clone();
        cache.clear();
        assert!(cache.is_empty());
        let mut y2 = Tensor::zeros([1]);
        attn.forward_decode(&x, &mut cache, &mut ws, &mut y2);
        for (a, b) in first.data().iter().zip(y2.data().iter()) {
            assert_eq!(a.to_bits(), b.to_bits(), "slot reuse changed bits");
        }
    }

    #[test]
    fn param_count_matches_formula() {
        let attn = Attention::new(32, 4, &mut seeded_rng(44));
        // 4·H² + 4·H as in Section III-F's attention accounting.
        assert_eq!(attn.param_count(), 4 * 32 * 32 + 4 * 32);
    }
}
