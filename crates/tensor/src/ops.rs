//! Vectorized elementwise and row-wise kernels with hand-written
//! backward passes, plus the fused Adam step.
//!
//! Every kernel body is written once and instantiated per ISA tier
//! (AVX-512 / AVX2+FMA / portable) through `crate::simd::dispatch!`;
//! see `simd.rs` for how the multiversioning works and why all tiers are
//! bit-identical. The one exception is [`adam_fused`], whose AVX tiers
//! use hand-written `rsqrt`/`rcp`+Newton intrinsics (the portable tier
//! keeps the exact `sqrt`+`div` formula); its bits may therefore differ
//! *across* tiers, but the tier is fixed once per process so results
//! remain deterministic and identical across trainers and thread counts.
//!
//! # Determinism contract (same as `matmul.rs`)
//!
//! The floating-point evaluation order for every output element is a
//! fixed function of the operand shapes:
//!
//! * Elementwise kernels (`add`, `axpy`, `scale`, `gelu`, bias add,
//!   Adam) have no cross-element interaction at all, so any parallel
//!   split is trivially bit-identical to the sequential path.
//! * Row reductions (softmax, layernorm) accumulate into `LANES`
//!   partial sums with a fixed element→lane assignment and fold them in
//!   a fixed tree; rows are data-parallel, so row-block scheduling never
//!   changes the arithmetic.
//! * Column reductions (`bias_grad_acc`, layernorm dγ/dβ) sum rows in
//!   ascending index order per column; parallelism splits the *column*
//!   axis, which leaves each column's summation order untouched.
//!
//! Consequently results are bit-identical for any thread count, which is
//! what lets the integration suite assert exact resident↔offloaded
//! trainer equality.
//!
//! The pre-vectorization scalar kernels are preserved verbatim in the
//! test-only `seed` module as the oracle for the equivalence proptests,
//! and per-op FLOP/time counters in [`stats`] bridge into the runtime
//! telemetry as `op.*` gauges next to the GEMM engine's `kernel.*` ones.

use std::time::Instant;

use crate::pool;
use crate::simd::{self, dispatch, exp_approx, hmax, hsum, tanh_approx, SendPtr, LANES};
use crate::tensor::Tensor;

/// Smallest operand, in elements, that a *streaming* kernel (a few flops
/// per element, memory-bound: add, axpy, scale, bias add, layernorm
/// forward, softmax backward and the column reductions, measured at
/// 0.1–0.4 ns per element) fans out. A fork-join costs the caller about
/// 1 µs while the pool's helper is still polling and about 10 µs, plus
/// ~35 µs until the helper arrives, once it has parked; the split then
/// only wins above ~45 µs of sequential work, which these kernels reach
/// at a few hundred thousand elements.
const PAR_MIN_ELEMS: usize = 1 << 18;

/// The same bound for the *transcendental* kernels (GELU forward and
/// backward, softmax forward, layernorm backward: an `exp`/`tanh` or
/// several passes per element, measured at 1–4 ns per element), which do
/// 45 µs of work in a tenth of the elements — `[127, 1024]` is 310 µs of
/// GELU.
const PAR_MIN_ELEMS_HEAVY: usize = 1 << 15;

/// Parallel tasks cover a quarter of the kernel's fan-out bound each, so
/// the smallest operand that fans out still makes four.
const TASKS_AT_MIN: usize = 4;

/// Column-block width for parallel column reductions.
const COL_BLOCK: usize = 256;

/// Runs `run(lo, hi)` over `[0, n)` either as one sequential call or —
/// from `min_elems` up — as disjoint ranges fanned out over the thread
/// pool. Safe to gate on thread count because callers are elementwise:
/// each output element depends only on its own inputs, so the split never
/// changes the arithmetic.
#[inline]
fn for_each_chunk(n: usize, min_elems: usize, run: impl Fn(usize, usize) + Sync) {
    if n >= min_elems && pool::current_num_threads() > 1 {
        let chunk = min_elems / TASKS_AT_MIN;
        pool::for_each(0..n.div_ceil(chunk), |t| {
            let lo = t * chunk;
            run(lo, (lo + chunk).min(n));
        });
    } else {
        run(0, n);
    }
}

/// Row-block analogue of [`for_each_chunk`] for kernels that treat rows
/// independently: `run(r0, r1)` receives disjoint row ranges.
#[inline]
fn for_each_row_block(
    rows: usize,
    cols: usize,
    min_elems: usize,
    run: impl Fn(usize, usize) + Sync,
) {
    if rows * cols >= min_elems && rows > 1 && pool::current_num_threads() > 1 {
        let rb = (min_elems / TASKS_AT_MIN / cols.max(1)).max(1);
        pool::for_each(0..rows.div_ceil(rb), |t| {
            let lo = t * rb;
            run(lo, (lo + rb).min(rows));
        });
    } else {
        run(0, rows);
    }
}

// ---------------------------------------------------------------------------
// Multiversioned kernel bodies (slice granularity).
// ---------------------------------------------------------------------------

dispatch! {
    fn k_add(out: &mut [f32], a: &[f32], b: &[f32]) {
        for ((o, x), y) in out.iter_mut().zip(a).zip(b) {
            *o = x + y;
        }
    }
}

dispatch! {
    fn k_add_assign(a: &mut [f32], b: &[f32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += y;
        }
    }
}

dispatch! {
    fn k_axpy(a: &mut [f32], alpha: f32, b: &[f32]) {
        for (x, y) in a.iter_mut().zip(b) {
            *x += alpha * y;
        }
    }
}

dispatch! {
    fn k_axpy_from_zero(out: &mut [f32], alpha: f32, b: &[f32]) {
        for (o, y) in out.iter_mut().zip(b) {
            *o = 0.0 + alpha * y;
        }
    }
}

dispatch! {
    fn k_scale_from_zero(a: &mut [f32], s: f32) {
        for x in a.iter_mut() {
            *x = 0.0 + s * *x;
        }
    }
}

dispatch! {
    fn k_scale(out: &mut [f32], a: &[f32], s: f32) {
        for (o, x) in out.iter_mut().zip(a) {
            *o = x * s;
        }
    }
}

dispatch! {
    fn k_scale_assign(a: &mut [f32], s: f32) {
        for x in a.iter_mut() {
            *x *= s;
        }
    }
}

dispatch! {
    fn k_add_bias(x: &mut [f32], bias: &[f32]) {
        for row in x.chunks_exact_mut(bias.len()) {
            for (r, b) in row.iter_mut().zip(bias) {
                *r += b;
            }
        }
    }
}

dispatch! {
    /// Accumulates `db[j] += Σ_r dy[r, col0 + j]` for a column range.
    /// Rows are summed in ascending index order per column, so any
    /// column split is bit-identical to the full-width loop.
    fn k_bias_grad(db: &mut [f32], dy: &[f32], rows: usize, stride: usize, col0: usize) {
        let w = db.len();
        for r in 0..rows {
            let row = &dy[r * stride + col0..r * stride + col0 + w];
            for (d, y) in db.iter_mut().zip(row) {
                *d += y;
            }
        }
    }
}

const SQRT_2_OVER_PI: f32 = 0.797_884_6;
const GELU_C: f32 = 0.044_715;

dispatch! {
    fn k_gelu(out: &mut [f32], x: &[f32]) {
        for (o, &v) in out.iter_mut().zip(x) {
            let inner = SQRT_2_OVER_PI * (v + GELU_C * v * v * v);
            *o = 0.5 * v * (1.0 + tanh_approx(inner));
        }
    }
}

dispatch! {
    fn k_gelu_bwd(dx: &mut [f32], dy: &[f32], x: &[f32]) {
        for ((o, &g), &v) in dx.iter_mut().zip(dy).zip(x) {
            let u = SQRT_2_OVER_PI * (v + GELU_C * v * v * v);
            let t = tanh_approx(u);
            let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * v * v);
            let d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
            *o = g * d;
        }
    }
}

dispatch! {
    /// In-place softmax of each `cols`-wide row: lane-structured max and
    /// sum reductions, vectorized `exp`, one normalization pass.
    fn k_softmax_rows(x: &mut [f32], cols: usize) {
        for row in x.chunks_exact_mut(cols) {
            let mut mx = [f32::NEG_INFINITY; LANES];
            let mut it = row.chunks_exact(LANES);
            for c in it.by_ref() {
                for (m, &v) in mx.iter_mut().zip(c) {
                    *m = m.max(v);
                }
            }
            let mut m = hmax(mx);
            for &v in it.remainder() {
                m = m.max(v);
            }
            let mut acc = [0.0f32; LANES];
            let mut it = row.chunks_exact_mut(LANES);
            for c in it.by_ref() {
                for (a, v) in acc.iter_mut().zip(c.iter_mut()) {
                    let e = exp_approx(*v - m);
                    *v = e;
                    *a += e;
                }
            }
            // The remainder's exponentials as one `-inf`-padded block (the
            // padding lanes come out 0 and are dropped), summed in order.
            let rest = it.into_remainder();
            let mut block = [f32::NEG_INFINITY; LANES];
            block[..rest.len()].copy_from_slice(rest);
            for b in block.iter_mut() {
                *b = exp_approx(*b - m);
            }
            let mut tail = 0.0f32;
            for (v, &e) in rest.iter_mut().zip(&block) {
                *v = e;
                tail += e;
            }
            let inv = 1.0 / (hsum(acc) + tail);
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }
}

dispatch! {
    /// `dx = y ⊙ (dy − (dy·y) 1)` per `cols`-wide row.
    fn k_softmax_bwd_rows(dx: &mut [f32], dy: &[f32], y: &[f32], cols: usize) {
        for ((dxr, dyr), yr) in dx
            .chunks_exact_mut(cols)
            .zip(dy.chunks_exact(cols))
            .zip(y.chunks_exact(cols))
        {
            let mut acc = [0.0f32; LANES];
            let mut ita = dyr.chunks_exact(LANES);
            let mut itb = yr.chunks_exact(LANES);
            for (ca, cb) in ita.by_ref().zip(itb.by_ref()) {
                for ((a, &u), &w) in acc.iter_mut().zip(ca).zip(cb) {
                    *a += u * w;
                }
            }
            let mut tail = 0.0f32;
            for (&u, &w) in ita.remainder().iter().zip(itb.remainder()) {
                tail += u * w;
            }
            let dot = hsum(acc) + tail;
            for ((d, &g), &v) in dxr.iter_mut().zip(dyr).zip(yr) {
                *d = v * (g - dot);
            }
        }
    }
}

dispatch! {
    /// Layer-norm forward over `mean.len()` rows of `gamma.len()` cols.
    fn k_layernorm_rows(
        out: &mut [f32],
        mean: &mut [f32],
        rstd: &mut [f32],
        x: &[f32],
        gamma: &[f32],
        beta: &[f32],
        eps: f32,
    ) {
        let cols = gamma.len();
        for ((o, xr), (m, rs)) in out
            .chunks_exact_mut(cols)
            .zip(x.chunks_exact(cols))
            .zip(mean.iter_mut().zip(rstd.iter_mut()))
        {
            let mut acc = [0.0f32; LANES];
            let mut it = xr.chunks_exact(LANES);
            for c in it.by_ref() {
                for (a, &v) in acc.iter_mut().zip(c) {
                    *a += v;
                }
            }
            let mut tail = 0.0f32;
            for &v in it.remainder() {
                tail += v;
            }
            let mu = (hsum(acc) + tail) / cols as f32;
            let mut acc2 = [0.0f32; LANES];
            let mut it = xr.chunks_exact(LANES);
            for c in it.by_ref() {
                for (a, &v) in acc2.iter_mut().zip(c) {
                    let d = v - mu;
                    *a += d * d;
                }
            }
            let mut tail2 = 0.0f32;
            for &v in it.remainder() {
                let d = v - mu;
                tail2 += d * d;
            }
            let var = (hsum(acc2) + tail2) / cols as f32;
            let r = 1.0 / (var + eps).sqrt();
            *m = mu;
            *rs = r;
            for (((o, &xv), &g), &b) in o.iter_mut().zip(xr).zip(gamma).zip(beta) {
                *o = (xv - mu) * r * g + b;
            }
        }
    }
}

/// Layer-norm forward row driver: hand-vectorized on the AVX tiers, the
/// [`k_layernorm_rows`] generic body on the portable tier.
///
/// Like [`adam_fused`], this is a documented exception to the
/// bit-identical-across-tiers rule: the AVX bodies fuse the
/// squared-deviation and affine passes with FMA and use four accumulator
/// banks (the generic body's single 16-lane bank leaves the reduction
/// latency-bound), so the three tiers agree only to ~1e-6. Within one
/// tier the accumulation order is still a pure function of the shape, so
/// run-to-run, thread-count and resident↔offloaded determinism hold
/// unchanged.
fn ln_fwd_rows(
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    match simd::tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature presence verified once by `tier()`.
        simd::IsaTier::Avx512 => unsafe { ln_fwd_avx512(out, mean, rstd, x, gamma, beta, eps) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        simd::IsaTier::Avx2Fma => unsafe { ln_fwd_avx2(out, mean, rstd, x, gamma, beta, eps) },
        _ => k_layernorm_rows(out, mean, rstd, x, gamma, beta, eps),
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn ln_fwd_avx512(
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    use std::arch::x86_64::*;
    let cols = gamma.len();
    let main4 = cols / 64 * 64;
    let main = cols / 16 * 16;
    for r in 0..mean.len() {
        let xr = x.as_ptr().add(r * cols);
        let or = out.as_mut_ptr().add(r * cols);
        // Pass 1: row sum over four independent banks (hides add latency).
        let (mut s0, mut s1, mut s2, mut s3) = (
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
        );
        let mut i = 0;
        while i < main4 {
            s0 = _mm512_add_ps(s0, _mm512_loadu_ps(xr.add(i)));
            s1 = _mm512_add_ps(s1, _mm512_loadu_ps(xr.add(i + 16)));
            s2 = _mm512_add_ps(s2, _mm512_loadu_ps(xr.add(i + 32)));
            s3 = _mm512_add_ps(s3, _mm512_loadu_ps(xr.add(i + 48)));
            i += 64;
        }
        while i < main {
            s0 = _mm512_add_ps(s0, _mm512_loadu_ps(xr.add(i)));
            i += 16;
        }
        let s = _mm512_add_ps(_mm512_add_ps(s0, s1), _mm512_add_ps(s2, s3));
        let mut sum = _mm512_reduce_add_ps(s);
        while i < cols {
            sum += *xr.add(i);
            i += 1;
        }
        let mu = sum / cols as f32;
        let vmu = _mm512_set1_ps(mu);
        // Pass 2: sum of squared deviations (two-pass, not E[x²]−µ², to
        // keep the cancellation behaviour of the reference kernel).
        let (mut q0, mut q1, mut q2, mut q3) = (
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
            _mm512_setzero_ps(),
        );
        let mut i = 0;
        while i < main4 {
            let d0 = _mm512_sub_ps(_mm512_loadu_ps(xr.add(i)), vmu);
            let d1 = _mm512_sub_ps(_mm512_loadu_ps(xr.add(i + 16)), vmu);
            let d2 = _mm512_sub_ps(_mm512_loadu_ps(xr.add(i + 32)), vmu);
            let d3 = _mm512_sub_ps(_mm512_loadu_ps(xr.add(i + 48)), vmu);
            q0 = _mm512_fmadd_ps(d0, d0, q0);
            q1 = _mm512_fmadd_ps(d1, d1, q1);
            q2 = _mm512_fmadd_ps(d2, d2, q2);
            q3 = _mm512_fmadd_ps(d3, d3, q3);
            i += 64;
        }
        while i < main {
            let d = _mm512_sub_ps(_mm512_loadu_ps(xr.add(i)), vmu);
            q0 = _mm512_fmadd_ps(d, d, q0);
            i += 16;
        }
        let q = _mm512_add_ps(_mm512_add_ps(q0, q1), _mm512_add_ps(q2, q3));
        let mut ssq = _mm512_reduce_add_ps(q);
        while i < cols {
            let d = *xr.add(i) - mu;
            ssq += d * d;
            i += 1;
        }
        let var = ssq / cols as f32;
        let rs = 1.0 / (var + eps).sqrt();
        mean[r] = mu;
        rstd[r] = rs;
        let vrs = _mm512_set1_ps(rs);
        // Pass 3: y = x̂·γ + β with a single FMA.
        let mut i = 0;
        while i < main {
            let xh = _mm512_mul_ps(_mm512_sub_ps(_mm512_loadu_ps(xr.add(i)), vmu), vrs);
            let o = _mm512_fmadd_ps(
                xh,
                _mm512_loadu_ps(gamma.as_ptr().add(i)),
                _mm512_loadu_ps(beta.as_ptr().add(i)),
            );
            _mm512_storeu_ps(or.add(i), o);
            i += 16;
        }
        while i < cols {
            *or.add(i) = (*xr.add(i) - mu) * rs * gamma[i] + beta[i];
            i += 1;
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn ln_fwd_avx2(
    out: &mut [f32],
    mean: &mut [f32],
    rstd: &mut [f32],
    x: &[f32],
    gamma: &[f32],
    beta: &[f32],
    eps: f32,
) {
    use std::arch::x86_64::*;
    #[inline(always)]
    unsafe fn hsum256(v: __m256) -> f32 {
        let lo = _mm256_castps256_ps128(v);
        let hi = _mm256_extractf128_ps(v, 1);
        let s = _mm_add_ps(lo, hi);
        let s = _mm_add_ps(s, _mm_movehl_ps(s, s));
        let s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
        _mm_cvtss_f32(s)
    }
    let cols = gamma.len();
    let main4 = cols / 32 * 32;
    let main = cols / 8 * 8;
    for r in 0..mean.len() {
        let xr = x.as_ptr().add(r * cols);
        let or = out.as_mut_ptr().add(r * cols);
        let (mut s0, mut s1, mut s2, mut s3) = (
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        );
        let mut i = 0;
        while i < main4 {
            s0 = _mm256_add_ps(s0, _mm256_loadu_ps(xr.add(i)));
            s1 = _mm256_add_ps(s1, _mm256_loadu_ps(xr.add(i + 8)));
            s2 = _mm256_add_ps(s2, _mm256_loadu_ps(xr.add(i + 16)));
            s3 = _mm256_add_ps(s3, _mm256_loadu_ps(xr.add(i + 24)));
            i += 32;
        }
        while i < main {
            s0 = _mm256_add_ps(s0, _mm256_loadu_ps(xr.add(i)));
            i += 8;
        }
        let s = _mm256_add_ps(_mm256_add_ps(s0, s1), _mm256_add_ps(s2, s3));
        let mut sum = hsum256(s);
        while i < cols {
            sum += *xr.add(i);
            i += 1;
        }
        let mu = sum / cols as f32;
        let vmu = _mm256_set1_ps(mu);
        let (mut q0, mut q1, mut q2, mut q3) = (
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
            _mm256_setzero_ps(),
        );
        let mut i = 0;
        while i < main4 {
            let d0 = _mm256_sub_ps(_mm256_loadu_ps(xr.add(i)), vmu);
            let d1 = _mm256_sub_ps(_mm256_loadu_ps(xr.add(i + 8)), vmu);
            let d2 = _mm256_sub_ps(_mm256_loadu_ps(xr.add(i + 16)), vmu);
            let d3 = _mm256_sub_ps(_mm256_loadu_ps(xr.add(i + 24)), vmu);
            q0 = _mm256_fmadd_ps(d0, d0, q0);
            q1 = _mm256_fmadd_ps(d1, d1, q1);
            q2 = _mm256_fmadd_ps(d2, d2, q2);
            q3 = _mm256_fmadd_ps(d3, d3, q3);
            i += 32;
        }
        while i < main {
            let d = _mm256_sub_ps(_mm256_loadu_ps(xr.add(i)), vmu);
            q0 = _mm256_fmadd_ps(d, d, q0);
            i += 8;
        }
        let q = _mm256_add_ps(_mm256_add_ps(q0, q1), _mm256_add_ps(q2, q3));
        let mut ssq = hsum256(q);
        while i < cols {
            let d = *xr.add(i) - mu;
            ssq += d * d;
            i += 1;
        }
        let var = ssq / cols as f32;
        let rs = 1.0 / (var + eps).sqrt();
        mean[r] = mu;
        rstd[r] = rs;
        let vrs = _mm256_set1_ps(rs);
        let mut i = 0;
        while i < main {
            let xh = _mm256_mul_ps(_mm256_sub_ps(_mm256_loadu_ps(xr.add(i)), vmu), vrs);
            let o = _mm256_fmadd_ps(
                xh,
                _mm256_loadu_ps(gamma.as_ptr().add(i)),
                _mm256_loadu_ps(beta.as_ptr().add(i)),
            );
            _mm256_storeu_ps(or.add(i), o);
            i += 8;
        }
        while i < cols {
            *or.add(i) = (*xr.add(i) - mu) * rs * gamma[i] + beta[i];
            i += 1;
        }
    }
}

dispatch! {
    /// Layer-norm input gradient over `mean.len()` rows.
    fn k_layernorm_dx_rows(
        dx: &mut [f32],
        x: &[f32],
        dy: &[f32],
        gamma: &[f32],
        mean: &[f32],
        rstd: &[f32],
    ) {
        let cols = gamma.len();
        let nc = cols as f32;
        for (((dxr, xr), dyr), (&mu, &rs)) in dx
            .chunks_exact_mut(cols)
            .zip(x.chunks_exact(cols))
            .zip(dy.chunks_exact(cols))
            .zip(mean.iter().zip(rstd))
        {
            let mut acc_g = [0.0f32; LANES];
            let mut acc_gx = [0.0f32; LANES];
            let mut ita = dyr.chunks_exact(LANES);
            let mut itb = xr.chunks_exact(LANES);
            let mut itg = gamma.chunks_exact(LANES);
            for ((ca, cb), cg) in ita.by_ref().zip(itb.by_ref()).zip(itg.by_ref()) {
                for (((ag, agx), (&dyv, &xv)), &gv) in acc_g
                    .iter_mut()
                    .zip(acc_gx.iter_mut())
                    .zip(ca.iter().zip(cb))
                    .zip(cg)
                {
                    let xhat = (xv - mu) * rs;
                    let dyg = dyv * gv;
                    *ag += dyg;
                    *agx += dyg * xhat;
                }
            }
            let mut tail_g = 0.0f32;
            let mut tail_gx = 0.0f32;
            for ((&dyv, &xv), &gv) in ita
                .remainder()
                .iter()
                .zip(itb.remainder())
                .zip(itg.remainder())
            {
                let xhat = (xv - mu) * rs;
                let dyg = dyv * gv;
                tail_g += dyg;
                tail_gx += dyg * xhat;
            }
            let sum_dyg = hsum(acc_g) + tail_g;
            let sum_dyg_xhat = hsum(acc_gx) + tail_gx;
            for (((d, &dyv), &xv), &gv) in dxr.iter_mut().zip(dyr).zip(xr).zip(gamma) {
                let xhat = (xv - mu) * rs;
                let dyg = dyv * gv;
                *d = rs * (dyg - sum_dyg / nc - xhat * sum_dyg_xhat / nc);
            }
        }
    }
}

dispatch! {
    /// Accumulates `dγ[j] += Σ_r dy·x̂` and `dβ[j] += Σ_r dy` for a
    /// column range (same split rule as [`k_bias_grad`]).
    fn k_layernorm_param_grads(
        dgamma: &mut [f32],
        dbeta: &mut [f32],
        x: &[f32],
        dy: &[f32],
        mean: &[f32],
        rstd: &[f32],
        stride: usize,
        col0: usize,
    ) {
        let w = dgamma.len();
        for (r, (&mu, &rs)) in mean.iter().zip(rstd).enumerate() {
            let xr = &x[r * stride + col0..r * stride + col0 + w];
            let dyr = &dy[r * stride + col0..r * stride + col0 + w];
            for ((dg, db), (&xv, &dyv)) in dgamma
                .iter_mut()
                .zip(dbeta.iter_mut())
                .zip(xr.iter().zip(dyr))
            {
                let xhat = (xv - mu) * rs;
                *dg += dyv * xhat;
                *db += dyv;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Public tensor-level API.
// ---------------------------------------------------------------------------

/// `out = a + b` (same shape).
pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
    assert!(
        a.shape().same(b.shape()),
        "add: {} vs {}",
        a.shape(),
        b.shape()
    );
    let start = Instant::now();
    let mut out = crate::scratch::take(*a.shape());
    let n = out.numel();
    {
        let po = SendPtr(out.data_mut().as_mut_ptr());
        let (ad, bd) = (a.data(), b.data());
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: chunk ranges are disjoint; each task writes only its own.
            let o = unsafe { std::slice::from_raw_parts_mut(po.get().add(lo), hi - lo) };
            k_add(o, &ad[lo..hi], &bd[lo..hi]);
        });
    }
    stats::record(stats::ADD, n as u64, start.elapsed().as_nanos() as u64);
    out
}

/// `a += b` in place.
pub fn add_assign(a: &mut Tensor, b: &Tensor) {
    assert!(
        a.shape().same(b.shape()),
        "add_assign: {} vs {}",
        a.shape(),
        b.shape()
    );
    let start = Instant::now();
    let n = a.numel();
    {
        let pa = SendPtr(a.data_mut().as_mut_ptr());
        let bd = b.data();
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: disjoint chunks.
            let s = unsafe { std::slice::from_raw_parts_mut(pa.get().add(lo), hi - lo) };
            k_add_assign(s, &bd[lo..hi]);
        });
    }
    stats::record(stats::ADD, n as u64, start.elapsed().as_nanos() as u64);
}

/// `a += alpha * b` in place (axpy).
pub fn axpy(a: &mut Tensor, alpha: f32, b: &Tensor) {
    assert!(
        a.shape().same(b.shape()),
        "axpy: {} vs {}",
        a.shape(),
        b.shape()
    );
    let start = Instant::now();
    let n = a.numel();
    {
        let pa = SendPtr(a.data_mut().as_mut_ptr());
        let bd = b.data();
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: disjoint chunks.
            let s = unsafe { std::slice::from_raw_parts_mut(pa.get().add(lo), hi - lo) };
            k_axpy(s, alpha, &bd[lo..hi]);
        });
    }
    stats::record(stats::AXPY, 2 * n as u64, start.elapsed().as_nanos() as u64);
}

/// `out = 0.0 + alpha * b`: [`axpy`] onto a zeroed `out` without the zeroing
/// pass. Each element sees the same two roundings as `zero_` followed by
/// `axpy` (the add is kept so a `-0.0` product still lands as `+0.0`), so
/// the canonical-tree fold leaves that use it keep their bits.
pub fn axpy_from_zero(out: &mut Tensor, alpha: f32, b: &Tensor) {
    assert!(
        out.shape().same(b.shape()),
        "axpy_from_zero: {} vs {}",
        out.shape(),
        b.shape()
    );
    let start = Instant::now();
    let n = out.numel();
    {
        let po = SendPtr(out.data_mut().as_mut_ptr());
        let bd = b.data();
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: disjoint chunks.
            let o = unsafe { std::slice::from_raw_parts_mut(po.get().add(lo), hi - lo) };
            k_axpy_from_zero(o, alpha, &bd[lo..hi]);
        });
    }
    stats::record(stats::AXPY, 2 * n as u64, start.elapsed().as_nanos() as u64);
}

/// `a = 0.0 + s * a` in place: [`axpy_from_zero`] with `a` as its own
/// source — what a gradient accumulated from zero becomes as a fold leaf.
pub fn scale_from_zero_(a: &mut Tensor, s: f32) {
    let start = Instant::now();
    let n = a.numel();
    {
        let pa = SendPtr(a.data_mut().as_mut_ptr());
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: disjoint chunks.
            let x = unsafe { std::slice::from_raw_parts_mut(pa.get().add(lo), hi - lo) };
            k_scale_from_zero(x, s);
        });
    }
    stats::record(stats::AXPY, 2 * n as u64, start.elapsed().as_nanos() as u64);
}

/// `out = a * s`.
pub fn scale(a: &Tensor, s: f32) -> Tensor {
    let start = Instant::now();
    let mut out = crate::scratch::take(*a.shape());
    let n = out.numel();
    {
        let po = SendPtr(out.data_mut().as_mut_ptr());
        let ad = a.data();
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: disjoint chunks.
            let o = unsafe { std::slice::from_raw_parts_mut(po.get().add(lo), hi - lo) };
            k_scale(o, &ad[lo..hi], s);
        });
    }
    stats::record(stats::SCALE, n as u64, start.elapsed().as_nanos() as u64);
    out
}

/// `a *= s` in place.
pub fn scale_assign(a: &mut Tensor, s: f32) {
    let start = Instant::now();
    let n = a.numel();
    {
        let pa = SendPtr(a.data_mut().as_mut_ptr());
        for_each_chunk(n, PAR_MIN_ELEMS, |lo, hi| {
            // SAFETY: disjoint chunks.
            let sl = unsafe { std::slice::from_raw_parts_mut(pa.get().add(lo), hi - lo) };
            k_scale_assign(sl, s);
        });
    }
    stats::record(stats::SCALE, n as u64, start.elapsed().as_nanos() as u64);
}

/// Adds a `[cols]` bias vector to every row of a `[rows, cols]` tensor.
pub fn add_bias(x: &mut Tensor, bias: &Tensor) {
    let (rows, cols) = x.shape().as_2d();
    assert_eq!(
        bias.numel(),
        cols,
        "add_bias: bias len {} vs cols {cols}",
        bias.numel()
    );
    let start = Instant::now();
    {
        let px = SendPtr(x.data_mut().as_mut_ptr());
        let bd = bias.data();
        for_each_row_block(rows, cols, PAR_MIN_ELEMS, |r0, r1| {
            // SAFETY: disjoint row blocks.
            let s = unsafe {
                std::slice::from_raw_parts_mut(px.get().add(r0 * cols), (r1 - r0) * cols)
            };
            k_add_bias(s, bd);
        });
    }
    stats::record(
        stats::BIAS_ADD,
        (rows * cols) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Accumulates the bias gradient: `db[j] += Σ_rows dy[row, j]`.
///
/// Rows are summed in index order per column, so the result is
/// deterministic — and identical whether the column axis is split across
/// threads or not.
pub fn bias_grad_acc(dy: &Tensor, db: &mut Tensor) {
    let (rows, cols) = dy.shape().as_2d();
    assert_eq!(db.numel(), cols);
    let start = Instant::now();
    let dyd = dy.data();
    if rows * cols >= PAR_MIN_ELEMS && cols >= 2 * COL_BLOCK && pool::current_num_threads() > 1 {
        let pd = SendPtr(db.data_mut().as_mut_ptr());
        let tasks = cols.div_ceil(COL_BLOCK);
        pool::for_each(0..tasks, |t| {
            let c0 = t * COL_BLOCK;
            let c1 = (c0 + COL_BLOCK).min(cols);
            // SAFETY: disjoint column ranges of `db`.
            let s = unsafe { std::slice::from_raw_parts_mut(pd.get().add(c0), c1 - c0) };
            k_bias_grad(s, dyd, rows, cols, c0);
        });
    } else {
        k_bias_grad(db.data_mut(), dyd, rows, cols, 0);
    }
    stats::record(
        stats::BIAS_GRAD,
        (rows * cols) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// GELU activation (tanh approximation, as used by GPT-2/Megatron),
/// writing into a reusable output tensor.
pub fn gelu_into(x: &Tensor, out: &mut Tensor) {
    out.reset_for(*x.shape());
    let start = Instant::now();
    let n = x.numel();
    {
        let po = SendPtr(out.data_mut().as_mut_ptr());
        let xd = x.data();
        for_each_chunk(n, PAR_MIN_ELEMS_HEAVY, |lo, hi| {
            // SAFETY: disjoint chunks.
            let o = unsafe { std::slice::from_raw_parts_mut(po.get().add(lo), hi - lo) };
            k_gelu(o, &xd[lo..hi]);
        });
    }
    stats::record(
        stats::GELU_FWD,
        15 * n as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// GELU activation into a fresh tensor.
pub fn gelu(x: &Tensor) -> Tensor {
    // Rent at the right shape so the `reset_for` inside is a no-op in
    // steady state (an `empty()` rental would zero-fill the whole
    // output on every resize from length 0).
    let mut out = crate::scratch::take(*x.shape());
    gelu_into(x, &mut out);
    out
}

/// Backward of [`gelu`] into a reusable `dx` tensor.
pub fn gelu_backward_into(dy: &Tensor, x: &Tensor, dx: &mut Tensor) {
    assert!(dy.shape().same(x.shape()));
    dx.reset_for(*x.shape());
    let start = Instant::now();
    let n = x.numel();
    {
        let pd = SendPtr(dx.data_mut().as_mut_ptr());
        let (dyd, xd) = (dy.data(), x.data());
        for_each_chunk(n, PAR_MIN_ELEMS_HEAVY, |lo, hi| {
            // SAFETY: disjoint chunks.
            let o = unsafe { std::slice::from_raw_parts_mut(pd.get().add(lo), hi - lo) };
            k_gelu_bwd(o, &dyd[lo..hi], &xd[lo..hi]);
        });
    }
    stats::record(
        stats::GELU_BWD,
        25 * n as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Backward of [`gelu`]: returns `dx` given upstream `dy` and the *input* `x`.
pub fn gelu_backward(dy: &Tensor, x: &Tensor) -> Tensor {
    let mut dx = crate::scratch::take(*dy.shape());
    gelu_backward_into(dy, x, &mut dx);
    dx
}

/// Row-wise softmax over the last dimension of a (logically 2-D) tensor.
pub fn softmax_rows(x: &Tensor) -> Tensor {
    let mut out = crate::scratch::take_copy(x);
    softmax_rows_(&mut out);
    out
}

/// In-place row-wise softmax of a (logically 2-D) tensor.
pub fn softmax_rows_(x: &mut Tensor) {
    let (rows, cols) = x.shape().as_2d();
    let start = Instant::now();
    {
        let px = SendPtr(x.data_mut().as_mut_ptr());
        for_each_row_block(rows, cols, PAR_MIN_ELEMS_HEAVY, |r0, r1| {
            // SAFETY: disjoint row blocks.
            let s = unsafe {
                std::slice::from_raw_parts_mut(px.get().add(r0 * cols), (r1 - r0) * cols)
            };
            k_softmax_rows(s, cols);
        });
    }
    stats::record(
        stats::SOFTMAX_FWD,
        5 * (rows * cols) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// In-place softmax of a single row.
pub fn softmax_row_inplace(row: &mut [f32]) {
    let cols = row.len();
    if cols == 0 {
        return;
    }
    let start = Instant::now();
    k_softmax_rows(row, cols);
    stats::record(
        stats::SOFTMAX_FWD,
        5 * cols as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Backward of row-wise softmax into a reusable `dx` tensor.
pub fn softmax_rows_backward_into(dy: &Tensor, y: &Tensor, dx: &mut Tensor) {
    assert!(dy.shape().same(y.shape()));
    let (rows, cols) = y.shape().as_2d();
    dx.reset_for(*y.shape());
    let start = Instant::now();
    {
        let pd = SendPtr(dx.data_mut().as_mut_ptr());
        let (dyd, yd) = (dy.data(), y.data());
        for_each_row_block(rows, cols, PAR_MIN_ELEMS, |r0, r1| {
            // SAFETY: disjoint row blocks.
            let s = unsafe {
                std::slice::from_raw_parts_mut(pd.get().add(r0 * cols), (r1 - r0) * cols)
            };
            k_softmax_bwd_rows(
                s,
                &dyd[r0 * cols..r1 * cols],
                &yd[r0 * cols..r1 * cols],
                cols,
            );
        });
    }
    stats::record(
        stats::SOFTMAX_BWD,
        4 * (rows * cols) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Backward of row-wise softmax given the softmax *output* `y` and upstream
/// `dy`: `dx = y ⊙ (dy − (dy·y) 1)` per row.
pub fn softmax_rows_backward(dy: &Tensor, y: &Tensor) -> Tensor {
    let mut dx = crate::scratch::take(*dy.shape());
    softmax_rows_backward_into(dy, y, &mut dx);
    dx
}

/// Saved statistics from a layer-norm forward pass, needed for backward.
#[derive(Clone, Debug, Default)]
pub struct LayerNormCache {
    /// Per-row mean.
    pub mean: Vec<f32>,
    /// Per-row reciprocal standard deviation.
    pub rstd: Vec<f32>,
}

/// Layer normalization into reusable output/cache buffers.
pub fn layernorm_into(
    x: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    out: &mut Tensor,
    cache: &mut LayerNormCache,
) {
    let (rows, cols) = x.shape().as_2d();
    assert_eq!(gamma.numel(), cols);
    assert_eq!(beta.numel(), cols);
    out.reset_for(*x.shape());
    cache.mean.resize(rows, 0.0);
    cache.rstd.resize(rows, 0.0);
    let start = Instant::now();
    {
        let po = SendPtr(out.data_mut().as_mut_ptr());
        let pm = SendPtr(cache.mean.as_mut_ptr());
        let pr = SendPtr(cache.rstd.as_mut_ptr());
        let (xd, gd, bd) = (x.data(), gamma.data(), beta.data());
        for_each_row_block(rows, cols, PAR_MIN_ELEMS, |r0, r1| {
            // SAFETY: disjoint row blocks of out/mean/rstd.
            let (o, m, rs) = unsafe {
                (
                    std::slice::from_raw_parts_mut(po.get().add(r0 * cols), (r1 - r0) * cols),
                    std::slice::from_raw_parts_mut(pm.get().add(r0), r1 - r0),
                    std::slice::from_raw_parts_mut(pr.get().add(r0), r1 - r0),
                )
            };
            ln_fwd_rows(o, m, rs, &xd[r0 * cols..r1 * cols], gd, bd, eps);
        });
    }
    stats::record(
        stats::LN_FWD,
        7 * (rows * cols) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Layer normalization over the last dimension with affine parameters
/// `gamma`/`beta` of length `cols`. Returns the output and the cache needed
/// by [`layernorm_backward`].
pub fn layernorm(x: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> (Tensor, LayerNormCache) {
    let mut out = crate::scratch::take(*x.shape());
    let mut cache = LayerNormCache::default();
    layernorm_into(x, gamma, beta, eps, &mut out, &mut cache);
    (out, cache)
}

/// Backward of [`layernorm`] into a reusable `dx` tensor; accumulates
/// `dgamma`/`dbeta`.
pub fn layernorm_backward_into(
    dy: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    cache: &LayerNormCache,
    dgamma: &mut Tensor,
    dbeta: &mut Tensor,
    dx: &mut Tensor,
) {
    let (rows, cols) = x.shape().as_2d();
    dx.reset_for(*x.shape());
    let start = Instant::now();
    let (xd, dyd, gd) = (x.data(), dy.data(), gamma.data());
    // dγ/dβ: column-split reduction (row order per column is fixed).
    if rows * cols >= PAR_MIN_ELEMS && cols >= 2 * COL_BLOCK && pool::current_num_threads() > 1 {
        let pg = SendPtr(dgamma.data_mut().as_mut_ptr());
        let pb = SendPtr(dbeta.data_mut().as_mut_ptr());
        let tasks = cols.div_ceil(COL_BLOCK);
        pool::for_each(0..tasks, |t| {
            let c0 = t * COL_BLOCK;
            let c1 = (c0 + COL_BLOCK).min(cols);
            // SAFETY: disjoint column ranges of dgamma/dbeta.
            let (g, b) = unsafe {
                (
                    std::slice::from_raw_parts_mut(pg.get().add(c0), c1 - c0),
                    std::slice::from_raw_parts_mut(pb.get().add(c0), c1 - c0),
                )
            };
            k_layernorm_param_grads(g, b, xd, dyd, &cache.mean, &cache.rstd, cols, c0);
        });
    } else {
        k_layernorm_param_grads(
            dgamma.data_mut(),
            dbeta.data_mut(),
            xd,
            dyd,
            &cache.mean,
            &cache.rstd,
            cols,
            0,
        );
    }
    // dx: row-parallel.
    {
        let pd = SendPtr(dx.data_mut().as_mut_ptr());
        for_each_row_block(rows, cols, PAR_MIN_ELEMS_HEAVY, |r0, r1| {
            // SAFETY: disjoint row blocks.
            let s = unsafe {
                std::slice::from_raw_parts_mut(pd.get().add(r0 * cols), (r1 - r0) * cols)
            };
            k_layernorm_dx_rows(
                s,
                &xd[r0 * cols..r1 * cols],
                &dyd[r0 * cols..r1 * cols],
                gd,
                &cache.mean[r0..r1],
                &cache.rstd[r0..r1],
            );
        });
    }
    stats::record(
        stats::LN_BWD,
        14 * (rows * cols) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Backward of [`layernorm`]. Returns `dx` and accumulates `dgamma`/`dbeta`.
pub fn layernorm_backward(
    dy: &Tensor,
    x: &Tensor,
    gamma: &Tensor,
    cache: &LayerNormCache,
    dgamma: &mut Tensor,
    dbeta: &mut Tensor,
) -> Tensor {
    let mut dx = crate::scratch::take(*dy.shape());
    layernorm_backward_into(dy, x, gamma, cache, dgamma, dbeta, &mut dx);
    dx
}

// ---------------------------------------------------------------------------
// Fused Adam.
// ---------------------------------------------------------------------------

/// Fused AdamW step: first/second-moment update, bias-corrected learning
/// rate (`lr_t`, precomputed by the caller in f64 as before), decoupled
/// weight decay (`wd_step = lr · weight_decay`) and parameter update in
/// one pass over the four streams.
///
/// The AVX tiers replace `sqrt`+`div` (which would serialize on the
/// divider unit and cap the speedup near 1×) with `rsqrt`/`rcp`
/// approximations refined by one Newton step (~1e-7 relative error); the
/// portable tier keeps the exact scalar formula. `v` is clamped to
/// `f32::MIN_POSITIVE` before `rsqrt` so `v == 0` behaves exactly like
/// the scalar `sqrt(0) + eps` path instead of producing `inf · 0 = NaN`.
#[allow(clippy::too_many_arguments)]
pub fn adam_fused(
    params: &mut [f32],
    grads: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    beta1: f32,
    beta2: f32,
    lr_t: f32,
    wd_step: f32,
    eps: f32,
) {
    let n = params.len();
    assert_eq!(n, grads.len(), "adam_fused: params vs grads");
    assert_eq!(n, m.len(), "adam_fused: params vs m");
    assert_eq!(n, v.len(), "adam_fused: params vs v");
    let start = Instant::now();
    match simd::tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature presence verified once by `tier()`.
        simd::IsaTier::Avx512 => unsafe {
            adam_avx512(params, grads, m, v, beta1, beta2, lr_t, wd_step, eps)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        simd::IsaTier::Avx2Fma => unsafe {
            adam_avx2(params, grads, m, v, beta1, beta2, lr_t, wd_step, eps)
        },
        simd::IsaTier::Portable => {
            adam_portable(params, grads, m, v, beta1, beta2, lr_t, wd_step, eps)
        }
    }
    stats::record(
        stats::ADAM,
        12 * n as u64,
        start.elapsed().as_nanos() as u64,
    );
}

#[allow(clippy::too_many_arguments)]
fn adam_portable(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    b1: f32,
    b2: f32,
    lr_t: f32,
    wd_step: f32,
    eps: f32,
) {
    for (((pi, &gi), mi), vi) in p.iter_mut().zip(g).zip(m.iter_mut()).zip(v.iter_mut()) {
        *mi = b1 * *mi + (1.0 - b1) * gi;
        *vi = b2 * *vi + (1.0 - b2) * gi * gi;
        let denom = vi.sqrt() + eps;
        *pi -= lr_t * *mi / denom + wd_step * *pi;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[allow(clippy::too_many_arguments)]
unsafe fn adam_avx512(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    b1: f32,
    b2: f32,
    lr_t: f32,
    wd_step: f32,
    eps: f32,
) {
    use std::arch::x86_64::*;
    let n = p.len();
    let vb1 = _mm512_set1_ps(b1);
    let vomb1 = _mm512_set1_ps(1.0 - b1);
    let vb2 = _mm512_set1_ps(b2);
    let vomb2 = _mm512_set1_ps(1.0 - b2);
    let vlr = _mm512_set1_ps(lr_t);
    let vwd = _mm512_set1_ps(wd_step);
    let veps = _mm512_set1_ps(eps);
    let vtiny = _mm512_set1_ps(f32::MIN_POSITIVE);
    let vhalf = _mm512_set1_ps(0.5);
    let v3half = _mm512_set1_ps(1.5);
    let vtwo = _mm512_set1_ps(2.0);
    // Unmasked main loop + scalar tail: computing a lane mask and using
    // masked load/store on every iteration costs ~15% on the hot path.
    let mut i = 0usize;
    while i + 16 <= n {
        let gv = _mm512_loadu_ps(g.as_ptr().add(i));
        let mv = _mm512_loadu_ps(m.as_ptr().add(i));
        let vv = _mm512_loadu_ps(v.as_ptr().add(i));
        let pv = _mm512_loadu_ps(p.as_ptr().add(i));
        let mn = _mm512_fmadd_ps(vb1, mv, _mm512_mul_ps(vomb1, gv));
        let vn = _mm512_fmadd_ps(vb2, vv, _mm512_mul_ps(vomb2, _mm512_mul_ps(gv, gv)));
        // s = sqrt(vn) via rsqrt14 + one Newton step: r ≈ vn^-1/2,
        // s = vn · r. Clamping vn ≥ MIN_POSITIVE keeps r finite; the
        // clamp's sqrt (~1e-19) vanishes against eps exactly as sqrt(0).
        let vc = _mm512_max_ps(vn, vtiny);
        let r0 = _mm512_rsqrt14_ps(vc);
        let r1 = _mm512_mul_ps(
            r0,
            _mm512_fnmadd_ps(_mm512_mul_ps(vhalf, vc), _mm512_mul_ps(r0, r0), v3half),
        );
        let s = _mm512_mul_ps(vc, r1);
        // q ≈ 1 / (s + eps) via rcp14 + one Newton step.
        let d = _mm512_add_ps(s, veps);
        let q0 = _mm512_rcp14_ps(d);
        let q1 = _mm512_mul_ps(q0, _mm512_fnmadd_ps(d, q0, vtwo));
        let upd = _mm512_fmadd_ps(_mm512_mul_ps(vlr, mn), q1, _mm512_mul_ps(vwd, pv));
        let pn = _mm512_sub_ps(pv, upd);
        _mm512_storeu_ps(m.as_mut_ptr().add(i), mn);
        _mm512_storeu_ps(v.as_mut_ptr().add(i), vn);
        _mm512_storeu_ps(p.as_mut_ptr().add(i), pn);
        i += 16;
    }
    // Tail lanes take the exact scalar formula; `adam_fused` documents
    // that the AVX tiers differ from the portable tier by ~1e-7 anyway.
    while i < n {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        let denom = v[i].sqrt() + eps;
        p[i] -= lr_t * m[i] / denom + wd_step * p[i];
        i += 1;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn adam_avx2(
    p: &mut [f32],
    g: &[f32],
    m: &mut [f32],
    v: &mut [f32],
    b1: f32,
    b2: f32,
    lr_t: f32,
    wd_step: f32,
    eps: f32,
) {
    use std::arch::x86_64::*;
    let n = p.len();
    let vb1 = _mm256_set1_ps(b1);
    let vomb1 = _mm256_set1_ps(1.0 - b1);
    let vb2 = _mm256_set1_ps(b2);
    let vomb2 = _mm256_set1_ps(1.0 - b2);
    let vlr = _mm256_set1_ps(lr_t);
    let vwd = _mm256_set1_ps(wd_step);
    let veps = _mm256_set1_ps(eps);
    let vtiny = _mm256_set1_ps(f32::MIN_POSITIVE);
    let vhalf = _mm256_set1_ps(0.5);
    let v3half = _mm256_set1_ps(1.5);
    let vtwo = _mm256_set1_ps(2.0);
    let mut i = 0usize;
    while i + 8 <= n {
        let gv = _mm256_loadu_ps(g.as_ptr().add(i));
        let mv = _mm256_loadu_ps(m.as_ptr().add(i));
        let vv = _mm256_loadu_ps(v.as_ptr().add(i));
        let pv = _mm256_loadu_ps(p.as_ptr().add(i));
        let mn = _mm256_fmadd_ps(vb1, mv, _mm256_mul_ps(vomb1, gv));
        let vn = _mm256_fmadd_ps(vb2, vv, _mm256_mul_ps(vomb2, _mm256_mul_ps(gv, gv)));
        let vc = _mm256_max_ps(vn, vtiny);
        let r0 = _mm256_rsqrt_ps(vc);
        let r1 = _mm256_mul_ps(
            r0,
            _mm256_fnmadd_ps(_mm256_mul_ps(vhalf, vc), _mm256_mul_ps(r0, r0), v3half),
        );
        let s = _mm256_mul_ps(vc, r1);
        let d = _mm256_add_ps(s, veps);
        let q0 = _mm256_rcp_ps(d);
        let q1 = _mm256_mul_ps(q0, _mm256_fnmadd_ps(d, q0, vtwo));
        let upd = _mm256_fmadd_ps(_mm256_mul_ps(vlr, mn), q1, _mm256_mul_ps(vwd, pv));
        let pn = _mm256_sub_ps(pv, upd);
        _mm256_storeu_ps(m.as_mut_ptr().add(i), mn);
        _mm256_storeu_ps(v.as_mut_ptr().add(i), vn);
        _mm256_storeu_ps(p.as_mut_ptr().add(i), pn);
        i += 8;
    }
    while i < n {
        m[i] = b1 * m[i] + (1.0 - b1) * g[i];
        v[i] = b2 * v[i] + (1.0 - b2) * g[i] * g[i];
        let denom = v[i].sqrt() + eps;
        p[i] -= lr_t * m[i] / denom + wd_step * p[i];
        i += 1;
    }
}

// ---------------------------------------------------------------------------
// Per-op statistics (bridged into telemetry as `op.*` gauges).
// ---------------------------------------------------------------------------

/// Process-wide per-op FLOP/time/call counters, mirroring
/// `matmul::stats`. FLOP counts are *nominal* (fixed per-element cost
/// factors per op) — useful for relative throughput, not exact
/// arithmetic counts.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Op index: `add`/`add_assign`.
    pub const ADD: usize = 0;
    /// Op index: `axpy`.
    pub const AXPY: usize = 1;
    /// Op index: `scale`/`scale_assign`.
    pub const SCALE: usize = 2;
    /// Op index: `add_bias`.
    pub const BIAS_ADD: usize = 3;
    /// Op index: `bias_grad_acc`.
    pub const BIAS_GRAD: usize = 4;
    /// Op index: `gelu`.
    pub const GELU_FWD: usize = 5;
    /// Op index: `gelu_backward`.
    pub const GELU_BWD: usize = 6;
    /// Op index: `softmax_rows`.
    pub const SOFTMAX_FWD: usize = 7;
    /// Op index: `softmax_rows_backward`.
    pub const SOFTMAX_BWD: usize = 8;
    /// Op index: `layernorm`.
    pub const LN_FWD: usize = 9;
    /// Op index: `layernorm_backward`.
    pub const LN_BWD: usize = 10;
    /// Op index: `adam_fused`.
    pub const ADAM: usize = 11;
    /// Op index: `cvt_f32_to_bf16` (pack to bf16; flops = elements).
    pub const CVT_F32_BF16: usize = 12;
    /// Op index: `cvt_bf16_to_f32` (unpack from bf16; flops = elements).
    pub const CVT_BF16_F32: usize = 13;
    /// Op index: `cvt_f32_to_f16` (pack to binary16; flops = elements).
    pub const CVT_F32_F16: usize = 14;
    /// Op index: `cvt_f16_to_f32` (unpack from binary16; flops = elements).
    pub const CVT_F16_F32: usize = 15;
    /// Op index: `round_copy` / `round_extend` at bf16 (round through bf16
    /// while copying; flops = elements).
    pub const ROUND_BF16: usize = 16;
    /// Op index: `round_copy` / `round_extend` at binary16 (flops =
    /// elements).
    pub const ROUND_F16: usize = 17;
    /// Number of tracked ops.
    pub const N_OPS: usize = 18;

    /// Telemetry-facing op names, indexed by the constants above.
    pub const NAMES: [&str; N_OPS] = [
        "add",
        "axpy",
        "scale",
        "bias_add",
        "bias_grad",
        "gelu_fwd",
        "gelu_bwd",
        "softmax_fwd",
        "softmax_bwd",
        "ln_fwd",
        "ln_bwd",
        "adam",
        "cvt_f32_bf16",
        "cvt_bf16_f32",
        "cvt_f32_f16",
        "cvt_f16_f32",
        "round_bf16",
        "round_f16",
    ];

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static FLOPS: [AtomicU64; N_OPS] = [ZERO; N_OPS];
    static NANOS: [AtomicU64; N_OPS] = [ZERO; N_OPS];
    static CALLS: [AtomicU64; N_OPS] = [ZERO; N_OPS];

    /// Records one kernel invocation.
    #[inline]
    pub fn record(op: usize, flops: u64, nanos: u64) {
        FLOPS[op].fetch_add(flops, Ordering::Relaxed);
        NANOS[op].fetch_add(nanos, Ordering::Relaxed);
        CALLS[op].fetch_add(1, Ordering::Relaxed);
    }

    /// Aggregated counters for one op.
    #[derive(Clone, Copy, Debug, Default)]
    pub struct OpStats {
        /// Nominal floating-point operations executed.
        pub flops: u64,
        /// Wall nanoseconds spent inside the kernel (summed per call).
        pub nanos: u64,
        /// Number of invocations.
        pub calls: u64,
    }

    /// Snapshot of all op counters, indexed by the op constants.
    pub fn snapshot() -> [OpStats; N_OPS] {
        let mut out = [OpStats::default(); N_OPS];
        for (i, o) in out.iter_mut().enumerate() {
            o.flops = FLOPS[i].load(Ordering::Relaxed);
            o.nanos = NANOS[i].load(Ordering::Relaxed);
            o.calls = CALLS[i].load(Ordering::Relaxed);
        }
        out
    }

    /// Resets all counters to zero (tests/benches).
    pub fn reset() {
        for i in 0..N_OPS {
            FLOPS[i].store(0, Ordering::Relaxed);
            NANOS[i].store(0, Ordering::Relaxed);
            CALLS[i].store(0, Ordering::Relaxed);
        }
    }
}

// ---------------------------------------------------------------------------
// Frozen scalar oracle.
// ---------------------------------------------------------------------------

/// The pre-vectorization kernels, preserved verbatim as the oracle for the
/// equivalence proptests. Do not optimize these.
#[cfg(test)]
mod seed {
    use super::LayerNormCache;
    use crate::tensor::Tensor;

    const SQRT_2_OVER_PI: f32 = 0.797_884_6;
    const GELU_C: f32 = 0.044_715;

    /// Frozen scalar `out = a + b`.
    pub fn add(a: &Tensor, b: &Tensor) -> Tensor {
        assert!(a.shape().same(b.shape()));
        let data = a
            .data()
            .iter()
            .zip(b.data().iter())
            .map(|(x, y)| x + y)
            .collect();
        Tensor::from_vec(*a.shape(), data)
    }

    /// Frozen scalar `a += b`.
    pub fn add_assign(a: &mut Tensor, b: &Tensor) {
        assert!(a.shape().same(b.shape()));
        for (x, y) in a.data_mut().iter_mut().zip(b.data().iter()) {
            *x += y;
        }
    }

    /// Frozen scalar axpy.
    pub fn axpy(a: &mut Tensor, alpha: f32, b: &Tensor) {
        assert!(a.shape().same(b.shape()));
        for (x, y) in a.data_mut().iter_mut().zip(b.data().iter()) {
            *x += alpha * y;
        }
    }

    /// Frozen scalar `out = a * s`.
    pub fn scale(a: &Tensor, s: f32) -> Tensor {
        Tensor::from_vec(*a.shape(), a.data().iter().map(|x| x * s).collect())
    }

    /// Frozen scalar bias add.
    pub fn add_bias(x: &mut Tensor, bias: &Tensor) {
        let (_rows, cols) = x.shape().as_2d();
        assert_eq!(bias.numel(), cols);
        let b = bias.data().to_vec();
        x.data_mut().chunks_mut(cols).for_each(|row| {
            for (r, bb) in row.iter_mut().zip(b.iter()) {
                *r += bb;
            }
        });
    }

    /// Frozen scalar bias gradient accumulation.
    pub fn bias_grad_acc(dy: &Tensor, db: &mut Tensor) {
        let (rows, cols) = dy.shape().as_2d();
        assert_eq!(db.numel(), cols);
        let dyd = dy.data();
        let dbd = db.data_mut();
        for r in 0..rows {
            let row = &dyd[r * cols..(r + 1) * cols];
            for (d, y) in dbd.iter_mut().zip(row.iter()) {
                *d += y;
            }
        }
    }

    /// Frozen scalar GELU (libm `tanh`).
    pub fn gelu(x: &Tensor) -> Tensor {
        let data = x
            .data()
            .iter()
            .map(|&v| {
                let inner = SQRT_2_OVER_PI * (v + GELU_C * v * v * v);
                0.5 * v * (1.0 + inner.tanh())
            })
            .collect();
        Tensor::from_vec(*x.shape(), data)
    }

    /// Frozen scalar GELU backward.
    pub fn gelu_backward(dy: &Tensor, x: &Tensor) -> Tensor {
        assert!(dy.shape().same(x.shape()));
        let data = dy
            .data()
            .iter()
            .zip(x.data().iter())
            .map(|(&g, &v)| {
                let u = SQRT_2_OVER_PI * (v + GELU_C * v * v * v);
                let t = u.tanh();
                let du = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_C * v * v);
                let d = 0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * du;
                g * d
            })
            .collect();
        Tensor::from_vec(*x.shape(), data)
    }

    /// Frozen scalar row softmax.
    pub fn softmax_rows(x: &Tensor) -> Tensor {
        let (_rows, cols) = x.shape().as_2d();
        let mut out = x.clone();
        out.data_mut()
            .chunks_mut(cols)
            .for_each(softmax_row_inplace);
        out
    }

    /// Frozen scalar single-row softmax (libm `exp`).
    pub fn softmax_row_inplace(row: &mut [f32]) {
        let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }

    /// Frozen scalar softmax backward.
    pub fn softmax_rows_backward(dy: &Tensor, y: &Tensor) -> Tensor {
        assert!(dy.shape().same(y.shape()));
        let (_rows, cols) = y.shape().as_2d();
        let mut dx = Tensor::zeros(*y.shape());
        dx.data_mut()
            .chunks_mut(cols)
            .zip(dy.data().chunks(cols))
            .zip(y.data().chunks(cols))
            .for_each(|((dxr, dyr), yr)| {
                let dot: f32 = dyr.iter().zip(yr.iter()).map(|(a, b)| a * b).sum();
                for ((d, g), v) in dxr.iter_mut().zip(dyr.iter()).zip(yr.iter()) {
                    *d = v * (g - dot);
                }
            });
        dx
    }

    /// Frozen scalar layernorm forward.
    pub fn layernorm(
        x: &Tensor,
        gamma: &Tensor,
        beta: &Tensor,
        eps: f32,
    ) -> (Tensor, LayerNormCache) {
        let (rows, cols) = x.shape().as_2d();
        assert_eq!(gamma.numel(), cols);
        assert_eq!(beta.numel(), cols);
        let mut out = Tensor::zeros(*x.shape());
        let mut mean = vec![0.0f32; rows];
        let mut rstd = vec![0.0f32; rows];
        let g = gamma.data();
        let b = beta.data();
        out.data_mut()
            .chunks_mut(cols)
            .zip(x.data().chunks(cols))
            .zip(mean.iter_mut().zip(rstd.iter_mut()))
            .for_each(|((o, xr), (m, rs))| {
                let mu: f32 = xr.iter().sum::<f32>() / cols as f32;
                let var: f32 = xr.iter().map(|v| (v - mu) * (v - mu)).sum::<f32>() / cols as f32;
                let r = 1.0 / (var + eps).sqrt();
                *m = mu;
                *rs = r;
                for j in 0..cols {
                    o[j] = (xr[j] - mu) * r * g[j] + b[j];
                }
            });
        (out, LayerNormCache { mean, rstd })
    }

    /// Frozen scalar layernorm backward.
    pub fn layernorm_backward(
        dy: &Tensor,
        x: &Tensor,
        gamma: &Tensor,
        cache: &LayerNormCache,
        dgamma: &mut Tensor,
        dbeta: &mut Tensor,
    ) -> Tensor {
        let (rows, cols) = x.shape().as_2d();
        let mut dx = Tensor::zeros(*x.shape());
        let g = gamma.data();
        {
            let dgd = dgamma.data_mut();
            let dbd = dbeta.data_mut();
            for r in 0..rows {
                let xr = &x.data()[r * cols..(r + 1) * cols];
                let dyr = &dy.data()[r * cols..(r + 1) * cols];
                let (mu, rs) = (cache.mean[r], cache.rstd[r]);
                for j in 0..cols {
                    let xhat = (xr[j] - mu) * rs;
                    dgd[j] += dyr[j] * xhat;
                    dbd[j] += dyr[j];
                }
            }
        }
        dx.data_mut()
            .chunks_mut(cols)
            .enumerate()
            .for_each(|(r, dxr)| {
                let xr = &x.data()[r * cols..(r + 1) * cols];
                let dyr = &dy.data()[r * cols..(r + 1) * cols];
                let (mu, rs) = (cache.mean[r], cache.rstd[r]);
                let nc = cols as f32;
                let mut sum_dyg = 0.0f32;
                let mut sum_dyg_xhat = 0.0f32;
                for j in 0..cols {
                    let xhat = (xr[j] - mu) * rs;
                    let dyg = dyr[j] * g[j];
                    sum_dyg += dyg;
                    sum_dyg_xhat += dyg * xhat;
                }
                for j in 0..cols {
                    let xhat = (xr[j] - mu) * rs;
                    let dyg = dyr[j] * g[j];
                    dxr[j] = rs * (dyg - sum_dyg / nc - xhat * sum_dyg_xhat / nc);
                }
            });
        dx
    }

    /// Frozen scalar Adam step (the original `AdamState::step` inner
    /// loop, with `lr_t` precomputed and `wd_step = lr · weight_decay`).
    #[allow(clippy::too_many_arguments)]
    pub fn adam_step(
        params: &mut [f32],
        grads: &[f32],
        m: &mut [f32],
        v: &mut [f32],
        beta1: f32,
        beta2: f32,
        lr_t: f32,
        wd_step: f32,
        eps: f32,
    ) {
        for i in 0..params.len() {
            m[i] = beta1 * m[i] + (1.0 - beta1) * grads[i];
            v[i] = beta2 * v[i] + (1.0 - beta2) * grads[i] * grads[i];
            let denom = v[i].sqrt() + eps;
            params[i] -= lr_t * m[i] / denom + wd_step * params[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};
    use proptest::prelude::*;

    fn finite_diff_check(
        f: &dyn Fn(&Tensor) -> f32,
        x: &Tensor,
        analytic_dx: &Tensor,
        eps: f32,
        tol: f32,
    ) {
        for i in (0..x.numel()).step_by((x.numel() / 16).max(1)) {
            let mut xp = x.clone();
            xp.data_mut()[i] += eps;
            let mut xm = x.clone();
            xm.data_mut()[i] -= eps;
            let num = (f(&xp) - f(&xm)) / (2.0 * eps);
            let ana = analytic_dx.data()[i];
            assert!(
                (num - ana).abs() < tol * (1.0 + num.abs().max(ana.abs())),
                "grad mismatch at {i}: numeric {num} vs analytic {ana}"
            );
        }
    }

    /// Asserts elementwise closeness with a mixed abs/rel tolerance.
    fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
        assert!(a.shape().same(b.shape()), "{what}: shape");
        for (i, (x, y)) in a.data().iter().zip(b.data().iter()).enumerate() {
            let scale = 1.0 + x.abs().max(y.abs());
            assert!(
                (x - y).abs() <= tol * scale,
                "{what}[{i}]: {x} vs {y} (tol {tol})"
            );
        }
    }

    #[test]
    fn add_and_axpy() {
        let a = Tensor::from_vec([3], vec![1., 2., 3.]);
        let b = Tensor::from_vec([3], vec![10., 20., 30.]);
        assert_eq!(add(&a, &b).data(), &[11., 22., 33.]);
        let mut c = a.clone();
        axpy(&mut c, 2.0, &b);
        assert_eq!(c.data(), &[21., 42., 63.]);
    }

    #[test]
    fn bias_round_trip() {
        let mut x = Tensor::zeros([2, 3]);
        let b = Tensor::from_vec([3], vec![1., 2., 3.]);
        add_bias(&mut x, &b);
        assert_eq!(x.data(), &[1., 2., 3., 1., 2., 3.]);
        let mut db = Tensor::zeros([3]);
        bias_grad_acc(&x, &mut db);
        assert_eq!(db.data(), &[2., 4., 6.]);
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let x = normal([6, 9], 2.0, &mut seeded_rng(20));
        let y = softmax_rows(&x);
        for r in 0..6 {
            let s: f32 = y.data()[r * 9..(r + 1) * 9].iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_of_neg_infinity_is_exactly_zero() {
        // The causal mask depends on exp(-inf) == 0.0 exactly.
        let mut row = vec![0.5, f32::NEG_INFINITY, 1.5, f32::NEG_INFINITY];
        softmax_row_inplace(&mut row);
        assert_eq!(row[1], 0.0);
        assert_eq!(row[3], 0.0);
        assert!((row[0] + row[2] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn gelu_gradient_check() {
        let x = normal([16], 1.0, &mut seeded_rng(21));
        let loss = |t: &Tensor| gelu(t).sum();
        let dy = Tensor::full([16], 1.0);
        let dx = gelu_backward(&dy, &x);
        finite_diff_check(&loss, &x, &dx, 1e-3, 2e-2);
    }

    #[test]
    fn softmax_gradient_check() {
        let x = normal([2, 8], 1.0, &mut seeded_rng(22));
        // Loss = Σ w ⊙ softmax(x) with fixed weights w.
        let w = normal([2, 8], 1.0, &mut seeded_rng(23));
        let loss = |t: &Tensor| {
            let y = softmax_rows(t);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let y = softmax_rows(&x);
        let dx = softmax_rows_backward(&w, &y);
        finite_diff_check(&loss, &x, &dx, 1e-3, 2e-2);
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let x = normal([4, 64], 3.0, &mut seeded_rng(24));
        let gamma = Tensor::full([64], 1.0);
        let beta = Tensor::zeros([64]);
        let (y, _) = layernorm(&x, &gamma, &beta, 1e-5);
        for r in 0..4 {
            let row = &y.data()[r * 64..(r + 1) * 64];
            let mean: f32 = row.iter().sum::<f32>() / 64.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 64.0;
            assert!(mean.abs() < 1e-4, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "row {r} var {var}");
        }
    }

    #[test]
    fn layernorm_gradient_check() {
        let mut rng = seeded_rng(25);
        let x = normal([3, 12], 1.0, &mut rng);
        let gamma = normal([12], 0.5, &mut rng);
        let beta = normal([12], 0.5, &mut rng);
        let w = normal([3, 12], 1.0, &mut rng);
        let loss = |t: &Tensor| {
            let (y, _) = layernorm(t, &gamma, &beta, 1e-5);
            y.data()
                .iter()
                .zip(w.data().iter())
                .map(|(a, b)| a * b)
                .sum()
        };
        let (_, cache) = layernorm(&x, &gamma, &beta, 1e-5);
        let mut dg = Tensor::zeros([12]);
        let mut db = Tensor::zeros([12]);
        let dx = layernorm_backward(&w, &x, &gamma, &cache, &mut dg, &mut db);
        finite_diff_check(&loss, &x, &dx, 1e-3, 3e-2);
    }

    #[test]
    fn adam_fused_matches_seed() {
        let mut rng = seeded_rng(77);
        // Odd length exercises the tail lanes of every tier.
        for n in [1usize, 7, 16, 61, 1027] {
            let p0 = normal([n], 0.5, &mut rng);
            let g = normal([n], 0.1, &mut rng);
            let (mut p1, mut m1, mut v1) = (p0.clone(), vec![0.0f32; n], vec![0.0f32; n]);
            let (mut p2, mut m2, mut v2) = (p0.clone(), vec![0.0f32; n], vec![0.0f32; n]);
            for _ in 0..5 {
                adam_fused(
                    p1.data_mut(),
                    g.data(),
                    &mut m1,
                    &mut v1,
                    0.9,
                    0.999,
                    1.5e-4,
                    1.5e-6,
                    1e-8,
                );
                seed::adam_step(
                    p2.data_mut(),
                    g.data(),
                    &mut m2,
                    &mut v2,
                    0.9,
                    0.999,
                    1.5e-4,
                    1.5e-6,
                    1e-8,
                );
            }
            assert_close(&p1, &p2, 1e-6, "adam params");
            for (a, b) in v1.iter().zip(v2.iter()) {
                assert!((a - b).abs() <= 1e-6 * (1.0 + a.abs()), "adam v");
            }
        }
    }

    #[test]
    fn adam_fused_zero_grad_zero_v_is_finite() {
        // v == 0 must not produce NaN through the rsqrt path.
        let mut p = vec![1.0f32; 33];
        let g = vec![0.0f32; 33];
        let (mut m, mut v) = (vec![0.0f32; 33], vec![0.0f32; 33]);
        adam_fused(&mut p, &g, &mut m, &mut v, 0.9, 0.999, 1e-4, 1e-6, 1e-8);
        assert!(p.iter().all(|x| x.is_finite()));
    }

    /// `k_softmax_rows`' body with the remainder exponentials taken one
    /// element at a time, as a plain loop: the scalar twin of the
    /// vectorised kernel.
    fn softmax_rows_twin(x: &mut [f32], cols: usize) {
        for row in x.chunks_exact_mut(cols) {
            let mut mx = [f32::NEG_INFINITY; LANES];
            let mut it = row.chunks_exact(LANES);
            for c in it.by_ref() {
                for (m, &v) in mx.iter_mut().zip(c) {
                    *m = m.max(v);
                }
            }
            let mut m = hmax(mx);
            for &v in it.remainder() {
                m = m.max(v);
            }
            let mut acc = [0.0f32; LANES];
            let mut it = row.chunks_exact_mut(LANES);
            for c in it.by_ref() {
                for (a, v) in acc.iter_mut().zip(c.iter_mut()) {
                    let e = exp_approx(*v - m);
                    *v = e;
                    *a += e;
                }
            }
            let mut tail = 0.0f32;
            for v in it.into_remainder() {
                let e = exp_approx(*v - m);
                *v = e;
                tail += e;
            }
            let inv = 1.0 / (hsum(acc) + tail);
            for v in row.iter_mut() {
                *v *= inv;
            }
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn softmax_and_gelu_bitwise_match_their_scalar_twins() {
        // Every width across and off the lane count, the softmax rows
        // causally masked (row r keeps columns 0..=r, the rest -inf) as an
        // attention head's scores are.
        let mut rng = seeded_rng(41);
        for w in 1..=48usize {
            let mut x = normal([w, w], 4.0, &mut rng);
            for (r, row) in x.data_mut().chunks_exact_mut(w).enumerate() {
                row[r + 1..].fill(f32::NEG_INFINITY);
            }
            let mut want = x.data().to_vec();
            softmax_rows_twin(&mut want, w);
            softmax_rows_(&mut x);
            assert_eq!(bits(x.data()), bits(&want), "softmax width {w}");

            let v = normal([w], 6.0, &mut rng);
            let want: Vec<f32> = v
                .data()
                .iter()
                .map(|&v| 0.5 * v * (1.0 + tanh_approx(SQRT_2_OVER_PI * (v + GELU_C * v * v * v))))
                .collect();
            assert_eq!(bits(gelu(&v).data()), bits(&want), "gelu width {w}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_softmax_shift_invariant(rows in 1usize..5, cols in 2usize..16, shift in -5.0f32..5.0, seed in 0u64..500) {
            let x = normal([rows, cols], 2.0, &mut seeded_rng(seed));
            let shifted = Tensor::from_vec(*x.shape(), x.data().iter().map(|v| v + shift).collect());
            let a = softmax_rows(&x);
            let b = softmax_rows(&shifted);
            prop_assert!(a.max_abs_diff(&b) < 1e-4);
        }

        #[test]
        fn prop_softmax_rows_nonneg_sum1(rows in 1usize..6, cols in 1usize..20, seed in 0u64..500) {
            let x = normal([rows, cols], 3.0, &mut seeded_rng(seed));
            let y = softmax_rows(&x);
            for r in 0..rows {
                let row = &y.data()[r*cols..(r+1)*cols];
                prop_assert!(row.iter().all(|v| *v >= 0.0));
                let s: f32 = row.iter().sum();
                prop_assert!((s - 1.0).abs() < 1e-4);
            }
        }

        // ------------------------------------------------------------------
        // Vectorized kernels vs the frozen scalar baseline. Column counts
        // deliberately straddle LANES multiples (1..67) to cover remainder
        // lanes.
        // ------------------------------------------------------------------

        #[test]
        fn prop_elementwise_bitwise_match_seed(n in 1usize..700, seed in 0u64..500) {
            let a = normal([n], 1.0, &mut seeded_rng(seed));
            let b = normal([n], 1.0, &mut seeded_rng(seed + 1));
            // Identical per-element expressions => exactly equal bits.
            prop_assert_eq!(add(&a, &b), seed::add(&a, &b));
            prop_assert_eq!(scale(&a, 0.7), seed::scale(&a, 0.7));
            let mut v1 = a.clone();
            let mut v2 = a.clone();
            add_assign(&mut v1, &b);
            seed::add_assign(&mut v2, &b);
            prop_assert_eq!(&v1, &v2);
            let mut v1 = a.clone();
            let mut v2 = a.clone();
            axpy(&mut v1, -1.3, &b);
            seed::axpy(&mut v2, -1.3, &b);
            prop_assert_eq!(&v1, &v2);
        }

        #[test]
        fn prop_bias_ops_bitwise_match_seed(rows in 1usize..6, cols in 1usize..67, seed in 0u64..500) {
            let x = normal([rows, cols], 1.0, &mut seeded_rng(seed));
            let bias = normal([cols], 1.0, &mut seeded_rng(seed + 1));
            let mut a = x.clone();
            let mut b = x.clone();
            add_bias(&mut a, &bias);
            seed::add_bias(&mut b, &bias);
            prop_assert_eq!(&a, &b);
            let mut dba = normal([cols], 0.3, &mut seeded_rng(seed + 2));
            let mut dbb = dba.clone();
            bias_grad_acc(&x, &mut dba);
            seed::bias_grad_acc(&x, &mut dbb);
            prop_assert_eq!(&dba, &dbb);
        }

        #[test]
        fn prop_gelu_matches_seed(n in 1usize..600, seed in 0u64..500) {
            let x = normal([n], 2.0, &mut seeded_rng(seed));
            let dy = normal([n], 1.0, &mut seeded_rng(seed + 1));
            assert_close(&gelu(&x), &seed::gelu(&x), 1e-5, "gelu");
            assert_close(
                &gelu_backward(&dy, &x),
                &seed::gelu_backward(&dy, &x),
                1e-5,
                "gelu_bwd",
            );
        }

        #[test]
        fn prop_softmax_matches_seed(rows in 1usize..6, cols in 1usize..67, seed in 0u64..500) {
            let x = normal([rows, cols], 3.0, &mut seeded_rng(seed));
            let y = softmax_rows(&x);
            assert_close(&y, &seed::softmax_rows(&x), 1e-5, "softmax");
            let dy = normal([rows, cols], 1.0, &mut seeded_rng(seed + 1));
            assert_close(
                &softmax_rows_backward(&dy, &y),
                &seed::softmax_rows_backward(&dy, &y),
                1e-5,
                "softmax_bwd",
            );
        }

        #[test]
        fn prop_layernorm_matches_seed(rows in 1usize..6, cols in 2usize..67, seed in 0u64..500) {
            let x = normal([rows, cols], 2.0, &mut seeded_rng(seed));
            let gamma = normal([cols], 0.7, &mut seeded_rng(seed + 1));
            let beta = normal([cols], 0.7, &mut seeded_rng(seed + 2));
            let (y, cache) = layernorm(&x, &gamma, &beta, 1e-5);
            let (ys, caches) = seed::layernorm(&x, &gamma, &beta, 1e-5);
            assert_close(&y, &ys, 1e-4, "ln_fwd");
            let dy = normal([rows, cols], 1.0, &mut seeded_rng(seed + 3));
            let mut dg = Tensor::zeros([cols]);
            let mut db = Tensor::zeros([cols]);
            let dx = layernorm_backward(&dy, &x, &gamma, &cache, &mut dg, &mut db);
            let mut dgs = Tensor::zeros([cols]);
            let mut dbs = Tensor::zeros([cols]);
            let dxs = seed::layernorm_backward(&dy, &x, &gamma, &caches, &mut dgs, &mut dbs);
            assert_close(&dx, &dxs, 1e-3, "ln_dx");
            assert_close(&dg, &dgs, 1e-3, "ln_dgamma");
            assert_close(&db, &dbs, 1e-3, "ln_dbeta");
        }
    }

    /// Bit-determinism across thread pools and repeat runs, at sizes
    /// large enough to cross the parallel thresholds, with a deliberately
    /// non-lane-aligned column count.
    #[test]
    fn bit_identical_across_thread_counts_and_runs() {
        let rows = 600usize;
        let cols = 531usize; // 600*531 > PAR_MIN_ELEMS, 531 % 16 != 0
        let x = normal([rows, cols], 2.0, &mut seeded_rng(90));
        let dy = normal([rows, cols], 1.0, &mut seeded_rng(91));
        let gamma = normal([cols], 0.5, &mut seeded_rng(92));
        let beta = normal([cols], 0.5, &mut seeded_rng(93));

        let run = || {
            let (y, cache) = layernorm(&x, &gamma, &beta, 1e-5);
            let mut dg = Tensor::zeros([cols]);
            let mut db = Tensor::zeros([cols]);
            let dx = layernorm_backward(&dy, &x, &gamma, &cache, &mut dg, &mut db);
            let sm = softmax_rows(&x);
            let smb = softmax_rows_backward(&dy, &sm);
            let ge = gelu(&x);
            let gb = gelu_backward(&dy, &x);
            let mut bg = Tensor::zeros([cols]);
            bias_grad_acc(&dy, &mut bg);
            let mut ab = x.clone();
            add_bias(&mut ab, &beta);
            let mut ax = x.clone();
            axpy(&mut ax, 0.37, &dy);
            (y, dg, db, dx, sm, smb, ge, gb, bg, ab, ax)
        };

        let baseline = run();
        let again = run();
        assert!(baseline == again, "repeat run differs");
        for threads in [1usize, 2, 8] {
            let got = pool::with_threads(threads, run);
            assert!(
                got == baseline,
                "results differ under {threads}-thread pool"
            );
        }
    }

    #[test]
    fn stats_record_and_reset() {
        stats::reset();
        let a = normal([64], 1.0, &mut seeded_rng(5));
        let _ = gelu(&a);
        let snap = stats::snapshot();
        assert_eq!(snap[stats::GELU_FWD].calls, 1);
        assert_eq!(snap[stats::GELU_FWD].flops, 15 * 64);
        stats::reset();
        assert_eq!(stats::snapshot()[stats::GELU_FWD].calls, 0);
    }
}
