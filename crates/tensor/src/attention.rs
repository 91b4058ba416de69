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
//!
//! Serving ([`Attention::forward_decode_segments`]) attends against a
//! per-sequence [`KvCache`] whose keys and values are stored in the GEMM
//! engine's panel order, so no product of a serving round packs its `B`
//! operand: a token's K/V are written into the panels once, and a segment
//! of `T` rows (a whole prompt, or one decode token) attends in one scores
//! and one context product per head, read straight from the cache.

use std::cell::RefCell;

use rand_chacha::ChaCha8Rng;

use crate::linear::{GradWrite, Linear, LinearGrads};
use crate::matmul::{
    fan_out, matmul_into, matmul_nt_into, matmul_packed, matmul_tn_into, worth_forking,
    PanelLayout, PanelView,
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
    /// Emptied [`AttentionCache::probs`] lists, handed back by
    /// [`AttentionCache::recycle`] so the next forward on this thread
    /// reuses the list instead of allocating one (at most
    /// [`MAX_PROBS_LISTS`] are kept).
    static PROBS_LISTS: RefCell<Vec<Vec<Tensor>>> = const { RefCell::new(Vec::new()) };
}

/// Bound on [`PROBS_LISTS`]: a thread that only recycles caches forwarded
/// elsewhere keeps this many lists, not one per cache.
const MAX_PROBS_LISTS: usize = 8;

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
        let mut probs = PROBS_LISTS
            .with(|l| l.borrow_mut().pop())
            .unwrap_or_default();
        probs.extend((0..self.heads).map(|_| scratch::take([t, t])));
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
        self.backward_as(dy, x, cache, grads, GradWrite::Accumulate)
    }

    /// [`Attention::backward`] writing the parameter gradients as `write`
    /// says.
    pub fn backward_as(
        &self,
        dy: &Tensor,
        x: &Tensor,
        cache: &AttentionCache,
        grads: &mut AttentionGrads,
        write: GradWrite,
    ) -> Tensor {
        let t = x.shape().dim(0);
        let h = x.shape().dim(1);
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();

        // Through the output projection.
        let dctx = self
            .proj
            .backward_as(dy, &cache.ctx, &mut grads.proj, write); // [T, H]

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
        let dx = self.qkv.backward_as(&dqkv, x, &mut grads.qkv, write);
        scratch::give(dqkv);
        dx
    }
}

/// Per-sequence K/V cache for incremental decoding: the keys and values of
/// every token seen so far, stored per head in the GEMM engine's panel
/// order so the attention products read them without packing.
///
/// A head's keys are the image of the `nt` operand `K: [max_seq, dh]`
/// (positions on the panel axis) and its values the image of the `nn`
/// operand `V: [max_seq, dh]` (head dim on the panel axis), both laid out
/// for `max_seq` positions (`matmul::PanelLayout`): a token's K/V values are
/// written once, in place, and the causal prefix of `len` positions is read
/// as the leading corner of each image ([`KvCache::key_panels`],
/// [`KvCache::value_panels`]) — exactly the panels the per-call packing of
/// the row-major `[len, dh]` prefix would build.
///
/// Capacity is allocated once at construction (`2 · heads · max_seq · dh`
/// floats of payload, plus panel padding); [`KvCache::clear`] rewinds the
/// logical length for slot reuse without freeing, so steady-state decode
/// never allocates.
#[derive(Clone, Debug)]
pub struct KvCache {
    k: Vec<f32>,
    v: Vec<f32>,
    k_layout: PanelLayout,
    v_layout: PanelLayout,
    heads: usize,
    dh: usize,
    max_seq: usize,
    len: usize,
}

impl KvCache {
    /// Allocates a cache for `heads` heads of width `dh`, holding up to
    /// `max_seq` tokens.
    pub fn new(heads: usize, dh: usize, max_seq: usize) -> Self {
        Self::with_layouts(
            heads,
            dh,
            max_seq,
            PanelLayout::new(dh, max_seq),
            PanelLayout::new(max_seq, dh),
        )
    }

    /// A cache whose images are laid out for an `nr`-wide micro-tile (the
    /// instantiation under test may differ from the detected tier).
    #[cfg(test)]
    pub(crate) fn with_nr(heads: usize, dh: usize, max_seq: usize, nr: usize) -> Self {
        Self::with_layouts(
            heads,
            dh,
            max_seq,
            PanelLayout::with_nr(nr, dh, max_seq),
            PanelLayout::with_nr(nr, max_seq, dh),
        )
    }

    fn with_layouts(
        heads: usize,
        dh: usize,
        max_seq: usize,
        k_layout: PanelLayout,
        v_layout: PanelLayout,
    ) -> Self {
        KvCache {
            k: vec![0.0; heads * k_layout.len()],
            v: vec![0.0; heads * v_layout.len()],
            k_layout,
            v_layout,
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

    /// Rewinds to empty without releasing storage (slot reuse). The panels
    /// the cached tokens touched go back to zero, so the next sequence's
    /// images hold nothing of this one's, padding lanes included.
    pub fn clear(&mut self) {
        let (kl, vl) = (self.k_layout.len(), self.v_layout.len());
        for head in 0..self.heads {
            let k = &mut self.k[head * kl..(head + 1) * kl];
            self.k_layout.zero_corner(k, self.dh, self.len);
            let v = &mut self.v[head * vl..(head + 1) * vl];
            self.v_layout.zero_corner(v, self.len, self.dh);
        }
        self.len = 0;
    }

    /// Bytes of K/V payload this cache pins (f32 entries; panel padding is
    /// layout, not payload).
    pub fn nbytes(&self) -> u64 {
        (2 * self.heads * self.max_seq * self.dh * std::mem::size_of::<f32>()) as u64
    }

    /// The key image of one head: the `nt` panel image of `K: [max_seq, dh]`
    /// ([`KvCache`]), unused capacity and padding included.
    pub fn keys(&self, head: usize) -> &[f32] {
        let kl = self.k_layout.len();
        &self.k[head * kl..(head + 1) * kl]
    }

    /// The value image of one head: the `nn` panel image of
    /// `V: [max_seq, dh]` ([`KvCache`]), unused capacity and padding
    /// included.
    pub fn values(&self, head: usize) -> &[f32] {
        let vl = self.v_layout.len();
        &self.v[head * vl..(head + 1) * vl]
    }

    /// The cached keys of one head as the `nt` operand `[len, dh]` of a
    /// scores product `Q·Kᵀ`.
    pub fn key_panels(&self, head: usize) -> PanelView<'_> {
        PanelView::nt(self.keys(head), self.k_layout, self.len, self.dh)
    }

    /// The cached values of one head as the `nn` operand `[len, dh]` of a
    /// context product `P·V`.
    pub fn value_panels(&self, head: usize) -> PanelView<'_> {
        PanelView::nn(self.values(head), self.v_layout, self.len, self.dh)
    }

    /// Appends one token's K/V rows, sliced per head out of a fused
    /// `[3H]`-wide QKV activation row, each value written in place at its
    /// panel position: the keys as column `len` of `Kᵀ`, the values as row
    /// `len` of `V`.
    pub(crate) fn push_token(&mut self, qkv_row: &[f32], h: usize) {
        assert!(self.len < self.max_seq, "KvCache overflow");
        let (pos, dh) = (self.len, self.dh);
        let (kl, vl) = (self.k_layout.len(), self.v_layout.len());
        for head in 0..self.heads {
            let keys = &qkv_row[h + head * dh..h + (head + 1) * dh];
            let values = &qkv_row[2 * h + head * dh..2 * h + (head + 1) * dh];
            let k = &mut self.k[head * kl..(head + 1) * kl];
            self.k_layout.write_column(k, pos, keys);
            let v = &mut self.v[head * vl..(head + 1) * vl];
            self.v_layout.write_row(v, pos, values);
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
/// fused QKV activation, the per-head buffers and the stacked context so
/// repeated decode steps are allocation-free after warm-up.
#[derive(Clone)]
pub struct DecodeScratch {
    qkv_out: Tensor,
    seg: SegmentScratch,
    ctx: Tensor,
}

/// The per-head buffers for a segment of `T` rows: the gathered
/// queries `[T, dh]`, the scores / probabilities `[T, max_seq]` and the
/// head's context `[T, dh]` on its way to the scatter. Each grows to the
/// longest segment seen and stays.
#[derive(Clone, Default)]
struct SegmentScratch {
    q: Vec<f32>,
    scores: Vec<f32>,
    ctx: Vec<f32>,
}

impl SegmentScratch {
    /// The three buffers, sized for `t` rows of a cache of `max_seq`
    /// positions with heads of width `dh`.
    fn for_rows(&mut self, t: usize, max_seq: usize, dh: usize) -> [&mut [f32]; 3] {
        for (buf, len) in [
            (&mut self.q, t * dh),
            (&mut self.scores, t * max_seq),
            (&mut self.ctx, t * dh),
        ] {
            if buf.len() < len {
                buf.resize(len, 0.0);
            }
        }
        [
            &mut self.q[..t * dh],
            &mut self.scores[..t * max_seq],
            &mut self.ctx[..t * dh],
        ]
    }
}

impl DecodeScratch {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        DecodeScratch {
            qkv_out: Tensor::zeros([1]),
            seg: SegmentScratch::default(),
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
        self.forward_decode_segments(x, &[seg], std::slice::from_mut(cache), ws, y);
    }

    /// Incremental causal forward for serving with selective batching:
    /// `x: [ΣR, H]` stacks the new tokens of several sequences (`segs`
    /// partitions its rows). The QKV and output projections run as **one**
    /// product each over all `ΣR` rows, against weights packed once per
    /// engine when they are in serving form ([`Linear::into_panels`]) and
    /// once per call otherwise; between them every segment appends its K/V
    /// rows to its own cache and attends causally against that cache only,
    /// in one scores and one context product per head whatever its length,
    /// reading the cache's panel images (nothing is packed). Writes the
    /// attention output into `y: [ΣR, H]`.
    ///
    /// Bit-compatibility contract: every product uses the batch-stable
    /// GEMM engine and every softmax runs over exactly the causal prefix
    /// `0..=pos` (a prompt row's later positions are zeroed, adding exact
    /// `+0` terms to its context), so the bits of one token's output depend
    /// only on the tokens before it in its own sequence — a full-prompt
    /// prefill, a token-at-a-time replay, any split of a prompt, and any
    /// stacking with other sequences produce identical streams.
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
        self.attend(
            segs,
            caches,
            ws.qkv_out.data(),
            ws.ctx.data_mut(),
            &mut ws.seg,
        );
        self.proj.forward_stable_into(&ws.ctx, y);
    }

    /// Per-sequence score → softmax → context for every segment: rows of
    /// `qkv: [ΣR, 3H]` / `ctx: [ΣR, H]` in segment order, each segment
    /// against `caches[seg.cache]`.
    ///
    /// A segment of `T` rows over `pos0` cached tokens appends all `T`
    /// tokens' K/V first, then runs per head **one** scores product
    /// `[T, dh]·Kᵀ → [T, pos0 + T]` and **one** context product `P·V`, both
    /// reading the cache's panel images. Row `t` is scaled and softmaxed
    /// over exactly its causal prefix `pos0 + t + 1` — the slice a
    /// row-at-a-time decode would see — and its later positions are zeroed.
    /// The bits equal that decode's: a score's FMA chain depends only on
    /// `dh`, and a context row's extra terms add `+0·v` to a sum that starts
    /// at `+0` and so is never `−0` (exact for finite `V`).
    fn attend(
        &self,
        segs: &[Segment],
        caches: &mut [KvCache],
        qkv: &[f32],
        ctx: &mut [f32],
        ws: &mut SegmentScratch,
    ) {
        let h = self.proj.in_features();
        let dh = h / self.heads;
        let scale = 1.0 / (dh as f32).sqrt();
        let mut row0 = 0;
        for seg in segs {
            let cache = &mut caches[seg.cache];
            assert_eq!(cache.heads, self.heads, "KvCache heads mismatch");
            assert_eq!(cache.dh, dh, "KvCache head width mismatch");
            let t = seg.len;
            let qkv = &qkv[row0 * 3 * h..(row0 + t) * 3 * h];
            let ctx = &mut ctx[row0 * h..(row0 + t) * h];
            row0 += t;
            let pos0 = cache.len;
            for qkv_row in qkv.chunks_exact(3 * h) {
                cache.push_token(qkv_row, h);
            }
            let n = cache.len;
            let [q, scores, ctx_h] = ws.for_rows(t, cache.max_seq, dh);
            let scores = &mut scores[..t * n];
            for head in 0..self.heads {
                let cols = head * dh..(head + 1) * dh;
                for (dst, row) in q.chunks_exact_mut(dh).zip(qkv.chunks_exact(3 * h)) {
                    dst.copy_from_slice(&row[cols.clone()]);
                }
                matmul_packed(q, cache.key_panels(head), scores, t);
                for (i, row) in scores.chunks_exact_mut(n).enumerate() {
                    let (live, masked) = row.split_at_mut(pos0 + i + 1);
                    for s in live.iter_mut() {
                        *s *= scale;
                    }
                    softmax_row_inplace(live);
                    masked.fill(0.0);
                }
                matmul_packed(scores, cache.value_panels(head), ctx_h, t);
                for (dst, src) in ctx.chunks_exact_mut(h).zip(ctx_h.chunks_exact(dh)) {
                    dst[cols.clone()].copy_from_slice(src);
                }
            }
        }
    }
}

impl AttentionCache {
    /// Returns every cached activation's allocation to the thread-local
    /// scratch pool, so the next forward pass on this thread reuses them
    /// instead of allocating.
    pub fn recycle(mut self) {
        scratch::give(self.qkv_out);
        self.probs.drain(..).for_each(scratch::give);
        PROBS_LISTS.with(|l| {
            let mut lists = l.borrow_mut();
            if lists.len() < MAX_PROBS_LISTS {
                lists.push(self.probs);
            }
        });
        scratch::give(self.ctx);
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
