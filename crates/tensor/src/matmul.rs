//! Blocked, packed, register-tiled matrix multiplication kernels.
//!
//! Three layouts cover every product a transformer's forward and backward
//! passes need without materializing transposes:
//!
//! * [`matmul`]    — `C[M,N]  = A[M,K] · B[K,N]`
//! * [`matmul_nt`] — `C[M,N]  = A[M,K] · B[N,K]ᵀ` (weights stored `[out,in]`)
//! * [`matmul_tn`] — `C[M,N]  = A[K,M]ᵀ · B[K,N]` (gradient w.r.t. weights)
//!
//! All three share one blocked GEMM engine (`gemm`) built the classical
//! BLIS way:
//!
//! * **Packing.** For each `KC`-deep slice of the reduction dimension, the
//!   engine packs `A` into `MR`-row strips (`pa[kk·MR + r]`) and `B` into
//!   `NR`-column panels (`pb[kk·NR + j]`) inside per-thread `thread_local`
//!   scratch buffers. Parallel tasks run on the calling thread and on the
//!   persistent helpers of the fork-join pool, so every thread's scratch
//!   is grown once and reused by all later calls. Packing absorbs the
//!   layout differences — `nt` and `tn` read their transposed operand
//!   contiguously while packing — so the micro-kernel only ever sees one
//!   canonical format and no transpose is ever materialized as a tensor.
//! * **Register tiling.** An `MR×NR` micro-kernel accumulates into a
//!   fixed-size local array that LLVM keeps in vector registers and
//!   autovectorizes. The micro-kernel is instantiated per ISA tier
//!   (AVX-512, AVX2+FMA, portable) behind one-time runtime detection;
//!   tile shapes per tier are chosen to fill the register file.
//! * **Cache blocking.** The reduction dimension is processed in `KC`
//!   blocks so one packed `A` strip (`MR·KC` floats) stays L1-resident
//!   and one packed `B` panel block (`NR·KC`) streams from L2.
//! * **Task grid.** Work is split over an (M tile × N panel group) grid —
//!   disjoint output tiles — chosen from the shape alone. With several
//!   `MR·MC_STRIPS`-row M tiles, groups are `NC_TARGET` columns wide and
//!   each task packs its own `A` tile. A single M tile (every `M = seq`
//!   product of a training step) is instead packed once by the caller and
//!   shared, and its panels are dealt into `SINGLE_TILE_TASKS` equal
//!   groups, so even an `N = 256` product splits evenly. The grid fans
//!   out over the pool when the estimated FLOP count (`2·M·N·K`, see
//!   [`PAR_FLOPS_THRESHOLD`]) covers a fork-join.
//!
//! # Determinism contract
//!
//! The summation order for every output element is a fixed function of
//! the operand shapes (and the ISA tier detected once per process): `k`
//! is accumulated in ascending order inside each `KC` block, and block
//! partial sums are added to the output in ascending block order. Each
//! output tile is owned by exactly one parallel task, so scheduling
//! affects only *which thread* computes a tile, never the arithmetic —
//! results are bit-identical for any thread count. (Tiny products below
//! [`SMALL_FLOPS_THRESHOLD`] take a simple sequential path; the path
//! choice is also a function of shape only.)
//!
//! [`matmul_naive`] is the oracle for property tests.

use std::cell::RefCell;

use rayon::prelude::*;

use crate::shape::Shape;
use crate::simd::{self, SendPtr};
use crate::tensor::Tensor;

/// Below this many estimated FLOPs (`2·M·N·K`) a kernel runs on the
/// calling thread alone. Derived from the measured cost of a fork-join on
/// the persistent pool: about 1 µs to the caller while the helper is still
/// polling for work, and — once it has parked — about 10 µs for the wake
/// plus ~35 µs until the helper arrives, so the split only wins from
/// roughly 45 µs of sequential work, which is ~4 MFLOP at the 70–110
/// GFLOP/s the blocked kernels sustain on one core at `M = 127`. Using
/// FLOPs rather than `M·N` means tall-skinny gradient GEMMs (large K,
/// small M·N) parallelize too.
pub const PAR_FLOPS_THRESHOLD: usize = 1 << 22;

/// Below this many estimated FLOPs the packed engine is skipped entirely
/// in favor of simple sequential loops — for tiny operands the packing
/// traffic would exceed the arithmetic.
pub const SMALL_FLOPS_THRESHOLD: usize = 8 * 1024;

/// Depth of one packed reduction block (`KC` in BLIS terminology).
const KC: usize = 256;

/// `MR` strips per M-side macro tile (macro tile height = `MR · MC_STRIPS`).
const MC_STRIPS: usize = 16;

/// Approximate N-side macro tile width; rounded to a multiple of `NR`.
const NC_TARGET: usize = 256;

/// Tasks a single-M-tile product is dealt into (when it has that many
/// `NR` panels): a multiple of every small core count, so dynamic
/// claiming balances 2, 4 or 8 threads with equal-sized tasks.
const SINGLE_TILE_TASKS: usize = 8;

fn dims2(t: &Tensor, op: &'static str) -> (usize, usize) {
    assert!(
        t.shape().rank() == 2,
        "{op}: expected rank-2 tensor, got {}",
        t.shape()
    );
    (t.shape().dim(0), t.shape().dim(1))
}

/// `C[M,N] = A[M,K] · B[K,N]`.
///
/// # Examples
///
/// ```
/// use stronghold_tensor::Tensor;
/// use stronghold_tensor::matmul::matmul;
///
/// let a = Tensor::from_vec([2, 2], vec![1.0, 2.0, 3.0, 4.0]);
/// let eye = Tensor::from_vec([2, 2], vec![1.0, 0.0, 0.0, 1.0]);
/// assert_eq!(matmul(&a, &eye), a);
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = crate::scratch::empty();
    matmul_into(a, b, &mut c);
    c
}

/// [`matmul`] writing into a reusable output tensor (resized in place;
/// prior contents are fully overwritten).
pub fn matmul_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = dims2(a, "matmul");
    let (kb, n) = dims2(b, "matmul");
    assert_eq!(k, kb, "matmul: inner dims {k} vs {kb}");
    c.reset_for([m, n]);
    gemm(Layout::NN, a.data(), b.data(), c.data_mut(), m, k, n, false);
}

/// `C[M,N] = A[M,K] · B[N,K]ᵀ` — `B` holds one row per *output* feature.
pub fn matmul_nt(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = crate::scratch::empty();
    matmul_nt_into(a, b, &mut c);
    c
}

/// [`matmul_nt`] writing into a reusable output tensor.
pub fn matmul_nt_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (m, k) = dims2(a, "matmul_nt");
    let (n, kb) = dims2(b, "matmul_nt");
    assert_eq!(k, kb, "matmul_nt: inner dims {k} vs {kb}");
    c.reset_for([m, n]);
    gemm(Layout::NT, a.data(), b.data(), c.data_mut(), m, k, n, false);
}

/// `C[M,N] = A[K,M]ᵀ · B[K,N]`, accumulating into `c_acc`.
///
/// Used for weight gradients: `dW[out,in] += dY[T,out]ᵀ · X[T,in]`.
pub fn matmul_tn_acc(a: &Tensor, b: &Tensor, c_acc: &mut Tensor) {
    let (k, m) = dims2(a, "matmul_tn");
    let (kb, n) = dims2(b, "matmul_tn");
    assert_eq!(k, kb, "matmul_tn: inner dims {k} vs {kb}");
    assert_eq!(
        c_acc.shape(),
        &Shape::new(&[m, n]),
        "matmul_tn: output shape"
    );
    gemm(
        Layout::TN,
        a.data(),
        b.data(),
        c_acc.data_mut(),
        m,
        k,
        n,
        true,
    );
}

/// `C[M,N] = A[K,M]ᵀ · B[K,N]` into a fresh tensor.
pub fn matmul_tn(a: &Tensor, b: &Tensor) -> Tensor {
    let mut c = crate::scratch::empty();
    matmul_tn_into(a, b, &mut c);
    c
}

/// [`matmul_tn`] writing into a reusable output tensor (overwriting, not
/// accumulating — see [`matmul_tn_acc`] for the accumulating form).
pub fn matmul_tn_into(a: &Tensor, b: &Tensor, c: &mut Tensor) {
    let (k, m) = dims2(a, "matmul_tn");
    let (kb, n) = dims2(b, "matmul_tn");
    assert_eq!(k, kb, "matmul_tn: inner dims {k} vs {kb}");
    c.reset_for([m, n]);
    gemm(Layout::TN, a.data(), b.data(), c.data_mut(), m, k, n, false);
}

/// Reference (naive triple-loop) matmul, used by tests and property checks.
pub fn matmul_naive(a: &Tensor, b: &Tensor) -> Tensor {
    let (m, k) = dims2(a, "matmul_naive");
    let (_, n) = dims2(b, "matmul_naive");
    let mut c = Tensor::zeros([m, n]);
    for i in 0..m {
        for j in 0..n {
            let mut s = 0.0f32;
            for kk in 0..k {
                s += a.data()[i * k + kk] * b.data()[kk * n + j];
            }
            c.data_mut()[i * n + j] = s;
        }
    }
    c
}

// ---------------------------------------------------------------------------
// Batch-stable entries (the serving decode path).
// ---------------------------------------------------------------------------
//
// The public kernels above dispatch on operand size: products below
// `SMALL_FLOPS_THRESHOLD` take a two-rounding `sum += x*y` loop, larger
// ones the single-rounding FMA engine — so the *bits* of one output
// element depend on the shape of the product it was computed in. Training
// never mixes shapes for the same logical row, but incremental decode
// does: a prefill computes a token's row inside an `[T, n]` product while
// the decode replay computes it as a `[1, n]` product. The `_stable`
// entries below pin every product to the blocked engine, whose per-element
// accumulation order depends only on `k` and the ISA tier (KC-block
// partials in ascending order, lanes independent) — so row bits are
// invariant to `m`/`n`, and prefill == decode bit-for-bit.

/// `C[m,n] = A[m,k] · B[n,k]ᵀ` over raw row-major slices, batch-stable:
/// always the blocked engine regardless of product size.
pub fn matmul_nt_stable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(a.len() >= m * k && b.len() >= n * k && c.len() >= m * n);
    gemm_stable(Layout::NT, a, b, c, m, k, n);
}

/// `C[m,n] = A[m,k] · B[k,n]` over raw row-major slices, batch-stable:
/// always the blocked engine regardless of product size.
pub fn matmul_nn_stable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    gemm_stable(Layout::NN, a, b, c, m, k, n);
}

/// The `gemm` dispatch minus the small-product path: the blocked engine at
/// the detected ISA tier, unconditionally.
fn gemm_stable(layout: Layout, a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    let start = std::time::Instant::now();
    if k == 0 || m == 0 || n == 0 {
        c[..m * n].iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    match simd::tier() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: feature presence verified by `tier()` at detection time.
        simd::IsaTier::Avx512 => gemm_blocked::<8, 32>(layout, a, b, c, m, k, n, false, mk_avx512),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        simd::IsaTier::Avx2Fma => gemm_blocked::<6, 16>(layout, a, b, c, m, k, n, false, mk_avx2),
        simd::IsaTier::Portable => {
            gemm_blocked::<4, 16>(layout, a, b, c, m, k, n, false, mk_portable)
        }
    }
    stats::record(
        layout.index(),
        (2 * m * n * k) as u64,
        start.elapsed().as_nanos() as u64,
    );
}

// ---------------------------------------------------------------------------
// The blocked engine.
// ---------------------------------------------------------------------------

/// Operand layout of a GEMM. `NN`: both row-major; `NT`: `B` stored
/// `[N,K]`; `TN`: `A` stored `[K,M]`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Layout {
    NN,
    NT,
    TN,
}

impl Layout {
    fn index(self) -> usize {
        match self {
            Layout::NN => 0,
            Layout::NT => 1,
            Layout::TN => 2,
        }
    }
}

// The per-process ISA tier is shared with the non-GEMM kernels; see
// `crate::simd::tier()`.

/// Unified entry point behind the public kernels: dispatches on operand
/// size and ISA tier, and records kernel statistics.
#[allow(clippy::too_many_arguments)]
fn gemm(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    let start = std::time::Instant::now();
    if k == 0 || m == 0 || n == 0 {
        if !accumulate {
            c.iter_mut().for_each(|x| *x = 0.0);
        }
        return;
    }
    let flops = 2 * m * n * k;
    if flops < SMALL_FLOPS_THRESHOLD {
        gemm_small(layout, a, b, c, m, k, n, accumulate);
    } else {
        match simd::tier() {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: feature presence verified by `tier()` at detection time.
            simd::IsaTier::Avx512 => {
                gemm_blocked::<8, 32>(layout, a, b, c, m, k, n, accumulate, mk_avx512)
            }
            #[cfg(target_arch = "x86_64")]
            // SAFETY: as above.
            simd::IsaTier::Avx2Fma => {
                gemm_blocked::<6, 16>(layout, a, b, c, m, k, n, accumulate, mk_avx2)
            }
            simd::IsaTier::Portable => {
                gemm_blocked::<4, 16>(layout, a, b, c, m, k, n, accumulate, mk_portable)
            }
        }
    }
    stats::record(
        layout.index(),
        flops as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Simple sequential loops for products too small to amortize packing.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
) {
    match layout {
        Layout::NN => {
            for (i, row) in c.chunks_mut(n).enumerate() {
                if !accumulate {
                    row.iter_mut().for_each(|x| *x = 0.0);
                }
                for (kk, &av) in a[i * k..i * k + k].iter().enumerate() {
                    let brow = &b[kk * n..kk * n + n];
                    for (cj, bj) in row.iter_mut().zip(brow.iter()) {
                        *cj += av * bj;
                    }
                }
            }
        }
        Layout::NT => {
            for (i, row) in c.chunks_mut(n).enumerate() {
                let arow = &a[i * k..i * k + k];
                for (j, cj) in row.iter_mut().enumerate() {
                    let brow = &b[j * k..j * k + k];
                    let mut sum = 0.0f32;
                    for (x, y) in arow.iter().zip(brow.iter()) {
                        sum += x * y;
                    }
                    if accumulate {
                        *cj += sum;
                    } else {
                        *cj = sum;
                    }
                }
            }
        }
        Layout::TN => {
            for (i, row) in c.chunks_mut(n).enumerate() {
                if !accumulate {
                    row.iter_mut().for_each(|x| *x = 0.0);
                }
                for kk in 0..k {
                    let av = a[kk * m + i];
                    let brow = &b[kk * n..kk * n + n];
                    for (cj, bj) in row.iter_mut().zip(brow.iter()) {
                        *cj += av * bj;
                    }
                }
            }
        }
    }
}

/// Micro-kernel signature: `acc += pa_strip ⊗ pb_panel` over `kc` steps.
type MicroKernel<const MR: usize, const NR: usize> =
    unsafe fn(&[f32], &[f32], usize, &mut [[f32; NR]; MR]);

/// Portable inner loop: for each `kk`, broadcast `MR` packed `A` values
/// against an `NR`-wide packed `B` row. Plain multiply-add (no
/// `mul_add`: without hardware FMA it falls back to slow libm emulation
/// of the single-rounding semantics) in a shape the autovectorizer
/// handles on baseline targets.
#[inline(always)]
fn microkernel_body<const MR: usize, const NR: usize>(
    pa: &[f32],
    pb: &[f32],
    kc: usize,
    acc: &mut [[f32; NR]; MR],
) {
    debug_assert!(pa.len() >= kc * MR && pb.len() >= kc * NR);
    for (aa, bb) in pa.chunks_exact(MR).zip(pb.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = aa[r];
            let row = &mut acc[r];
            for j in 0..NR {
                row[j] += ar * bb[j];
            }
        }
    }
}

/// AVX-512 instantiation: 8×32 tile = 16 zmm accumulators (plus two
/// B-panel vectors and one broadcast, well inside the 32-register file).
/// Written with explicit intrinsics: the autovectorizer picks strided
/// gathers for this loop nest, so the vector shape is spelled out.
///
/// # Safety
/// Caller must ensure `avx512f` is available; `pa`/`pb` must hold at
/// least `kc` packed steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mk_avx512(pa: &[f32], pb: &[f32], kc: usize, out: &mut [[f32; 32]; 8]) {
    use core::arch::x86_64::*;
    debug_assert!(pa.len() >= kc * 8 && pb.len() >= kc * 32);
    let mut acc = [[_mm512_setzero_ps(); 2]; 8];
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    for kk in 0..kc {
        let b0 = _mm512_loadu_ps(pb.add(kk * 32));
        let b1 = _mm512_loadu_ps(pb.add(kk * 32 + 16));
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = _mm512_set1_ps(*pa.add(kk * 8 + r));
            row[0] = _mm512_fmadd_ps(ar, b0, row[0]);
            row[1] = _mm512_fmadd_ps(ar, b1, row[1]);
        }
    }
    for r in 0..8 {
        _mm512_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
        _mm512_storeu_ps(out[r].as_mut_ptr().add(16), acc[r][1]);
    }
}

/// AVX2+FMA instantiation: 6×16 tile = 12 ymm accumulators (plus two
/// B-panel vectors and one broadcast, filling the 16-register file).
///
/// # Safety
/// Caller must ensure `avx2` and `fma` are available; `pa`/`pb` must
/// hold at least `kc` packed steps.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn mk_avx2(pa: &[f32], pb: &[f32], kc: usize, out: &mut [[f32; 16]; 6]) {
    use core::arch::x86_64::*;
    debug_assert!(pa.len() >= kc * 6 && pb.len() >= kc * 16);
    let mut acc = [[_mm256_setzero_ps(); 2]; 6];
    let pa = pa.as_ptr();
    let pb = pb.as_ptr();
    for kk in 0..kc {
        let b0 = _mm256_loadu_ps(pb.add(kk * 16));
        let b1 = _mm256_loadu_ps(pb.add(kk * 16 + 8));
        for (r, row) in acc.iter_mut().enumerate() {
            let ar = _mm256_set1_ps(*pa.add(kk * 6 + r));
            row[0] = _mm256_fmadd_ps(ar, b0, row[0]);
            row[1] = _mm256_fmadd_ps(ar, b1, row[1]);
        }
    }
    for r in 0..6 {
        _mm256_storeu_ps(out[r].as_mut_ptr(), acc[r][0]);
        _mm256_storeu_ps(out[r].as_mut_ptr().add(8), acc[r][1]);
    }
}

/// Baseline instantiation for CPUs (or targets) without the above.
///
/// # Safety
/// None required; `unsafe fn` only to share the [`MicroKernel`] type.
unsafe fn mk_portable(pa: &[f32], pb: &[f32], kc: usize, acc: &mut [[f32; 16]; 4]) {
    microkernel_body::<4, 16>(pa, pb, kc, acc);
}

thread_local! {
    /// Per-thread packed-`A` scratch, grown on demand and reused across
    /// GEMM calls. Pool helpers are persistent threads, so theirs stays
    /// warm too. Separate from [`PACK_B`] because a dispatching thread
    /// keeps its shared packed `A` borrowed while it runs tasks itself.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-`B` scratch (one panel group, one `KC` block).
    static PACK_B: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
}

/// The first `len` floats of a pack scratch, grown if needed.
fn grown(buf: &mut Vec<f32>, len: usize) -> &mut [f32] {
    if buf.len() < len {
        buf.resize(len, 0.0);
    }
    &mut buf[..len]
}

/// `NR`-column panels per task, from the shape alone. Several M tiles
/// already make a grid, so their tasks take the widest group the cache
/// blocking allows (`NC_TARGET` columns). A single M tile — every product
/// with `M = seq ≤ 128` — would otherwise be one to four unequal tasks, so
/// its panels are dealt into [`SINGLE_TILE_TASKS`] equal groups instead.
fn panels_per_task<const NR: usize>(n_panels: usize, tiles_m: usize) -> usize {
    let widest = (NC_TARGET / NR).max(1);
    if tiles_m > 1 {
        widest
    } else {
        n_panels.div_ceil(SINGLE_TILE_TASKS).clamp(1, widest)
    }
}

/// Whether a kernel whose work is estimated at `flops` should fan out:
/// the work must cover the fork-join (see [`PAR_FLOPS_THRESHOLD`]) and
/// the calling thread must be allowed more than one worker.
pub(crate) fn worth_forking(flops: usize) -> bool {
    flops >= PAR_FLOPS_THRESHOLD && rayon::current_num_threads() > 1
}

/// Runs `task(0..tasks)` on the fork-join pool when `parallel`, else in
/// index order on this thread. Tasks own disjoint outputs, so the choice
/// never changes a bit.
pub(crate) fn fan_out(tasks: usize, parallel: bool, task: impl Fn(usize) + Sync) {
    if parallel && tasks > 1 {
        (0..tasks).into_par_iter().for_each(task);
    } else {
        (0..tasks).for_each(task);
    }
}

/// The blocked engine proper. Generic over the micro-tile so each ISA
/// tier gets register-file-matched shapes; `mk` is the ISA-specific
/// micro-kernel instantiation.
///
/// The task grid is (M tile × panel group). Every task packs its own `B`
/// group per `KC` block; the `A` tile is packed per task when there are
/// several M tiles, but a single M tile is shared by all tasks, so the
/// caller packs it once for the whole of `K` before fanning out.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<const MR: usize, const NR: usize>(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    accumulate: bool,
    mk: MicroKernel<MR, NR>,
) {
    let mc_max = MR * MC_STRIPS;
    let tiles_m = m.div_ceil(mc_max);
    let n_panels = n.div_ceil(NR);
    let group = panels_per_task::<NR>(n_panels, tiles_m);
    let n_groups = n_panels.div_ceil(group);
    // Packed size of one KC block of the tallest A tile.
    let a_block = m.min(mc_max).div_ceil(MR) * MR * KC;
    let cptr = SendPtr(c.as_mut_ptr());

    // One task: rows of M tile `ti` × columns of panel group `g`, over
    // ascending KC blocks — the only reduction order over k.
    let run_task = |t: usize, shared_a: Option<&[f32]>| {
        let (ti, g) = (t / n_groups, t % n_groups);
        let i0 = ti * mc_max;
        let mc = (m - i0).min(mc_max);
        let j0 = g * group * NR;
        let nc = (n - j0).min(group * NR);
        let (m_strips, n_panels) = (mc.div_ceil(MR), nc.div_ceil(NR));
        PACK_B.with(|pb| {
            let mut pb = pb.borrow_mut();
            let pb = grown(&mut pb, n_panels * NR * KC);
            for (kb, k0) in (0..k).step_by(KC).enumerate() {
                let kc = (k - k0).min(KC);
                pack_b::<NR>(layout == Layout::NT, b, pb, j0, nc, k0, kc, n, k);
                let add = accumulate || kb > 0;
                let multiply = |pa: &[f32]| {
                    for p in 0..n_panels {
                        let jr = p * NR;
                        let nr_eff = (nc - jr).min(NR);
                        let pbp = &pb[p * NR * kc..(p + 1) * NR * kc];
                        for s in 0..m_strips {
                            let ir = s * MR;
                            let mr_eff = (mc - ir).min(MR);
                            let pas = &pa[s * MR * kc..(s + 1) * MR * kc];
                            let mut acc = [[0.0f32; NR]; MR];
                            // SAFETY: `gemm` selected `mk` to match the
                            // detected ISA; slices hold kc full steps.
                            unsafe { mk(pas, pbp, kc, &mut acc) };
                            // SAFETY: the (i0+ir, j0+jr) tile clipped to
                            // (mr_eff, nr_eff) lies inside C, and no other
                            // task touches it.
                            unsafe {
                                writeback::<MR, NR>(
                                    cptr,
                                    n,
                                    i0 + ir,
                                    j0 + jr,
                                    &acc,
                                    mr_eff,
                                    nr_eff,
                                    add,
                                )
                            };
                        }
                    }
                };
                match shared_a {
                    Some(pa) => multiply(&pa[kb * a_block..]),
                    None => PACK_A.with(|pa| {
                        let mut pa = pa.borrow_mut();
                        let pa = grown(&mut pa, a_block);
                        pack_a::<MR>(layout == Layout::TN, a, pa, i0, mc, k0, kc, m, k);
                        multiply(pa);
                    }),
                }
            }
        });
    };

    let parallel = worth_forking(2 * m * n * k);
    if tiles_m > 1 {
        fan_out(tiles_m * n_groups, parallel, |t| run_task(t, None));
    } else {
        PACK_A.with(|pa| {
            let mut pa = pa.borrow_mut();
            let pa = grown(&mut pa, k.div_ceil(KC) * a_block);
            for (kb, k0) in (0..k).step_by(KC).enumerate() {
                let block = &mut pa[kb * a_block..(kb + 1) * a_block];
                pack_a::<MR>(
                    layout == Layout::TN,
                    a,
                    block,
                    0,
                    m,
                    k0,
                    (k - k0).min(KC),
                    m,
                    k,
                );
            }
            let pa = &*pa;
            fan_out(n_groups, parallel, |t| run_task(t, Some(pa)));
        });
    }
}

/// Packs an `mc × kc` block of `A` into `MR`-row strips: strip `s` holds
/// `pa[s·MR·kc + kk·MR + r] = A[i0 + s·MR + r][k0 + kk]`, zero-padded in
/// `r` past `mc`. `a_t` selects the `[K,M]`-stored (`tn`) reading, which
/// is contiguous in `r`.
#[allow(clippy::too_many_arguments)]
fn pack_a<const MR: usize>(
    a_t: bool,
    a: &[f32],
    pa: &mut [f32],
    i0: usize,
    mc: usize,
    k0: usize,
    kc: usize,
    m: usize,
    k: usize,
) {
    let strips = mc.div_ceil(MR);
    for s in 0..strips {
        let base = s * MR * kc;
        let row0 = i0 + s * MR;
        let rows = (mc - s * MR).min(MR);
        let dst = &mut pa[base..base + MR * kc];
        if a_t {
            // A stored [K,M]: MR consecutive columns are contiguous.
            for kk in 0..kc {
                let src = &a[(k0 + kk) * m + row0..(k0 + kk) * m + row0 + rows];
                let d = &mut dst[kk * MR..kk * MR + MR];
                d[..rows].copy_from_slice(src);
                d[rows..].iter_mut().for_each(|x| *x = 0.0);
            }
        } else {
            // A stored [M,K]: read each row contiguously, scatter into
            // the strip interleave (writes stay inside the L1-resident
            // scratch).
            for r in 0..rows {
                let src = &a[(row0 + r) * k + k0..(row0 + r) * k + k0 + kc];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * MR + r] = v;
                }
            }
            for r in rows..MR {
                for kk in 0..kc {
                    dst[kk * MR + r] = 0.0;
                }
            }
        }
    }
}

/// Packs a `kc × nc` block of `B` into `NR`-column panels: panel `p`
/// holds `pb[p·NR·kc + kk·NR + j] = B[k0 + kk][j0 + p·NR + j]`,
/// zero-padded in `j` past `nc`. `b_t` selects the `[N,K]`-stored (`nt`)
/// reading, which is contiguous in `kk`.
#[allow(clippy::too_many_arguments)]
fn pack_b<const NR: usize>(
    b_t: bool,
    b: &[f32],
    pb: &mut [f32],
    j0: usize,
    nc: usize,
    k0: usize,
    kc: usize,
    n: usize,
    k: usize,
) {
    let panels = nc.div_ceil(NR);
    for p in 0..panels {
        let base = p * NR * kc;
        let col0 = j0 + p * NR;
        let cols = (nc - p * NR).min(NR);
        let dst = &mut pb[base..base + NR * kc];
        if b_t {
            // B stored [N,K]: each output column is a contiguous B row.
            for j in 0..cols {
                let src = &b[(col0 + j) * k + k0..(col0 + j) * k + k0 + kc];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * NR + j] = v;
                }
            }
            for j in cols..NR {
                for kk in 0..kc {
                    dst[kk * NR + j] = 0.0;
                }
            }
        } else {
            // B stored [K,N]: NR consecutive columns are contiguous.
            for kk in 0..kc {
                let src = &b[(k0 + kk) * n + col0..(k0 + kk) * n + col0 + cols];
                let d = &mut dst[kk * NR..kk * NR + NR];
                d[..cols].copy_from_slice(src);
                d[cols..].iter_mut().for_each(|x| *x = 0.0);
            }
        }
    }
}

/// Writes the valid `mr × nr` corner of an accumulator tile into `C`.
///
/// # Safety
/// `(row0..row0+mr) × (col0..col0+nr)` must lie inside the `C` matrix
/// behind `c`, and no other thread may access that region concurrently.
#[allow(clippy::too_many_arguments)]
unsafe fn writeback<const MR: usize, const NR: usize>(
    c: SendPtr,
    n: usize,
    row0: usize,
    col0: usize,
    acc: &[[f32; NR]; MR],
    mr: usize,
    nr: usize,
    add: bool,
) {
    for (r, arow) in acc.iter().enumerate().take(mr) {
        let dst = c.0.add((row0 + r) * n + col0);
        if add {
            for (j, &v) in arow.iter().enumerate().take(nr) {
                *dst.add(j) += v;
            }
        } else {
            for (j, &v) in arow.iter().enumerate().take(nr) {
                *dst.add(j) = v;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Kernel statistics (consumed by `stronghold-core`'s telemetry bridge).
// ---------------------------------------------------------------------------

/// Global per-layout kernel statistics: FLOPs, wall nanoseconds, and call
/// counts, accumulated by every GEMM dispatch.
///
/// This crate sits below the telemetry layer, so it exposes raw atomics
/// here and `stronghold-core` bridges them into `Telemetry` gauges
/// (including a derived GFLOP/s rate). Recording is always-on plain
/// atomic adds — it observes the kernels without perturbing their
/// results.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Layout names, indexed like the snapshot arrays.
    pub const LAYOUT_NAMES: [&str; 3] = ["nn", "nt", "tn"];

    static FLOPS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    static NANOS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
    static CALLS: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

    pub(super) fn record(layout: usize, flops: u64, nanos: u64) {
        FLOPS[layout].fetch_add(flops, Ordering::Relaxed);
        NANOS[layout].fetch_add(nanos, Ordering::Relaxed);
        CALLS[layout].fetch_add(1, Ordering::Relaxed);
    }

    /// Cumulative statistics for one GEMM layout.
    #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
    pub struct LayoutStats {
        /// Total floating-point operations (`2·M·N·K` per call).
        pub flops: u64,
        /// Total wall nanoseconds spent inside the kernel.
        pub nanos: u64,
        /// Number of kernel invocations.
        pub calls: u64,
    }

    impl LayoutStats {
        /// Mean throughput in GFLOP/s over the recorded interval.
        pub fn gflops(&self) -> f64 {
            if self.nanos == 0 {
                0.0
            } else {
                self.flops as f64 / self.nanos as f64
            }
        }
    }

    /// Snapshot of all three layouts, indexed `[nn, nt, tn]`.
    pub fn snapshot() -> [LayoutStats; 3] {
        std::array::from_fn(|i| LayoutStats {
            flops: FLOPS[i].load(Ordering::Relaxed),
            nanos: NANOS[i].load(Ordering::Relaxed),
            calls: CALLS[i].load(Ordering::Relaxed),
        })
    }

    /// Resets all statistics to zero (tests and bench isolation).
    pub fn reset() {
        for i in 0..3 {
            FLOPS[i].store(0, Ordering::Relaxed);
            NANOS[i].store(0, Ordering::Relaxed);
            CALLS[i].store(0, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};
    use proptest::prelude::*;

    fn transpose(t: &Tensor) -> Tensor {
        let (r, c) = (t.shape().dim(0), t.shape().dim(1));
        let mut out = Tensor::zeros([c, r]);
        for i in 0..r {
            for j in 0..c {
                *out.at_mut(&[j, i]) = t.at(&[i, j]);
            }
        }
        out
    }

    #[test]
    fn small_known_product() {
        let a = Tensor::from_vec([2, 3], vec![1., 2., 3., 4., 5., 6.]);
        let b = Tensor::from_vec([3, 2], vec![7., 8., 9., 10., 11., 12.]);
        let c = matmul(&a, &b);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn nt_equals_explicit_transpose() {
        let mut rng = seeded_rng(11);
        let a = normal([5, 7], 1.0, &mut rng);
        let bt = normal([4, 7], 1.0, &mut rng); // [N,K]
        let c1 = matmul_nt(&a, &bt);
        let c2 = matmul(&a, &transpose(&bt));
        assert!(c1.max_abs_diff(&c2) < 1e-5);
    }

    #[test]
    fn tn_equals_explicit_transpose() {
        let mut rng = seeded_rng(12);
        let at = normal([6, 3], 1.0, &mut rng); // [K,M]
        let b = normal([6, 5], 1.0, &mut rng);
        let c1 = matmul_tn(&at, &b);
        let c2 = matmul(&transpose(&at), &b);
        assert!(c1.max_abs_diff(&c2) < 1e-5);
    }

    #[test]
    fn tn_acc_accumulates() {
        let mut rng = seeded_rng(13);
        let a = normal([4, 3], 1.0, &mut rng);
        let b = normal([4, 2], 1.0, &mut rng);
        let once = matmul_tn(&a, &b);
        let mut twice = matmul_tn(&a, &b);
        matmul_tn_acc(&a, &b, &mut twice);
        for (x, y) in twice.data().iter().zip(once.data().iter()) {
            assert!((x - 2.0 * y).abs() < 1e-5);
        }
    }

    #[test]
    #[should_panic(expected = "matmul_tn: expected rank-2 tensor")]
    fn tn_rejects_rank_one_input() {
        let a = Tensor::from_vec([4], vec![1., 2., 3., 4.]);
        let b = Tensor::from_vec([2, 2], vec![1., 0., 0., 1.]);
        let _ = matmul_tn(&a, &b);
    }

    #[test]
    #[should_panic(expected = "matmul_tn: inner dims")]
    fn tn_rejects_mismatched_inner_dims() {
        let a = Tensor::zeros([3, 4]);
        let b = Tensor::zeros([5, 2]);
        let _ = matmul_tn(&a, &b);
    }

    #[test]
    fn large_parallel_matches_naive() {
        let mut rng = seeded_rng(14);
        let a = normal([130, 70], 1.0, &mut rng);
        let b = normal([70, 90], 1.0, &mut rng);
        let fast = matmul(&a, &b);
        let slow = matmul_naive(&a, &b);
        assert!(fast.max_abs_diff(&slow) < 1e-4);
    }

    #[test]
    fn multi_kc_block_shapes_match_naive() {
        // k crosses the KC=256 boundary so tile partials accumulate into C
        // across blocks; m/n are deliberate non-multiples of every tile
        // shape in use.
        let mut rng = seeded_rng(15);
        let k = KC + 37;
        let a = normal([45, k], 1.0, &mut rng);
        let b = normal([k, 29], 1.0, &mut rng);
        let slow = matmul_naive(&a, &b);
        assert!(matmul(&a, &b).max_abs_diff(&slow) < 2e-4);
        assert!(matmul_nt(&a, &transpose(&b)).max_abs_diff(&slow) < 2e-4);
        assert!(matmul_tn(&transpose(&a), &b).max_abs_diff(&slow) < 2e-4);
    }

    #[test]
    fn degenerate_edges_match_naive() {
        // K=1, single-row, and single-column products exercise the
        // zero-padded partial tiles of every layout.
        let mut rng = seeded_rng(16);
        for (m, k, n) in [(7, 1, 9), (1, 13, 11), (12, 9, 1), (1, 1, 1)] {
            let a = normal([m, k], 1.0, &mut rng);
            let b = normal([k, n], 1.0, &mut rng);
            let slow = matmul_naive(&a, &b);
            assert!(matmul(&a, &b).max_abs_diff(&slow) < 1e-4, "nn {m}x{k}x{n}");
            assert!(
                matmul_nt(&a, &transpose(&b)).max_abs_diff(&slow) < 1e-4,
                "nt {m}x{k}x{n}"
            );
            assert!(
                matmul_tn(&transpose(&a), &b).max_abs_diff(&slow) < 1e-4,
                "tn {m}x{k}x{n}"
            );
        }
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        // The determinism contract: identical bits under pools of 1, 2,
        // and 8 threads. The shape exceeds PAR_FLOPS_THRESHOLD so the
        // parallel tile path actually engages.
        let mut rng = seeded_rng(17);
        let (m, k, n) = (193, 129, 187);
        assert!(2 * m * k * n >= PAR_FLOPS_THRESHOLD);
        let a = normal([m, k], 1.0, &mut rng);
        let bt = normal([n, k], 1.0, &mut rng);
        let at = normal([k, m], 1.0, &mut rng);
        let b = normal([k, n], 1.0, &mut rng);
        let run = |threads: usize| {
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            pool.install(|| {
                let bits =
                    |t: &Tensor| -> Vec<u32> { t.data().iter().map(|v| v.to_bits()).collect() };
                (
                    bits(&matmul(&a, &b)),
                    bits(&matmul_nt(&a, &bt)),
                    bits(&matmul_tn(&at, &b)),
                )
            })
        };
        let base = run(1);
        assert_eq!(base, run(2), "2-thread pool changed kernel bits");
        assert_eq!(base, run(8), "8-thread pool changed kernel bits");
    }

    #[test]
    fn stable_entries_match_naive() {
        let mut rng = seeded_rng(19);
        for (m, k, n) in [(1, 8, 8), (1, 1, 1), (3, 16, 5), (40, 33, 17)] {
            let a = normal([m, k], 1.0, &mut rng);
            let b = normal([k, n], 1.0, &mut rng);
            let bt = transpose(&b);
            let slow = matmul_naive(&a, &b);
            let mut c = vec![0.0f32; m * n];
            matmul_nn_stable(a.data(), b.data(), &mut c, m, k, n);
            let nn = Tensor::from_vec([m, n], c.clone());
            assert!(nn.max_abs_diff(&slow) < 1e-4, "nn {m}x{k}x{n}");
            matmul_nt_stable(a.data(), bt.data(), &mut c, m, k, n);
            let nt = Tensor::from_vec([m, n], c);
            assert!(nt.max_abs_diff(&slow) < 1e-4, "nt {m}x{k}x{n}");
        }
    }

    #[test]
    fn stable_row_bits_invariant_to_batch_shape() {
        // The serving contract: a row's output bits may not depend on how
        // many other rows (m) or columns (n) ride the same product. Compute
        // row r of an [M,K]x[N,K]^T product alone ([1,K] against the full B,
        // and against a single column of B) and inside the full batch; the
        // bits must agree. The shapes straddle SMALL_FLOPS_THRESHOLD, where
        // the size-dispatched kernels would change accumulation order.
        let mut rng = seeded_rng(20);
        for (mm, k, n) in [(5, 8, 12), (7, 32, 96), (3, 300, 11)] {
            let a = normal([mm, k], 1.0, &mut rng);
            let bt = normal([n, k], 1.0, &mut rng);
            let mut full = vec![0.0f32; mm * n];
            matmul_nt_stable(a.data(), bt.data(), &mut full, mm, k, n);
            for r in 0..mm {
                let arow = &a.data()[r * k..(r + 1) * k];
                let mut solo = vec![0.0f32; n];
                matmul_nt_stable(arow, bt.data(), &mut solo, 1, k, n);
                for j in 0..n {
                    assert_eq!(
                        solo[j].to_bits(),
                        full[r * n + j].to_bits(),
                        "row bits depend on m: {mm}x{k}x{n} row {r} col {j}"
                    );
                    let mut one = [0.0f32];
                    matmul_nt_stable(arow, &bt.data()[j * k..(j + 1) * k], &mut one, 1, k, 1);
                    assert_eq!(
                        one[0].to_bits(),
                        full[r * n + j].to_bits(),
                        "element bits depend on n: {mm}x{k}x{n} row {r} col {j}"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_accumulate_flops_and_calls() {
        let before = stats::snapshot();
        let a = Tensor::zeros([8, 8]);
        let b = Tensor::zeros([8, 8]);
        let _ = matmul(&a, &b);
        let after = stats::snapshot();
        assert_eq!(after[0].calls, before[0].calls + 1);
        assert_eq!(after[0].flops, before[0].flops + 2 * 8 * 8 * 8);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_matmul_matches_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
            let mut rng = seeded_rng(seed);
            let a = normal([m, k], 1.0, &mut rng);
            let b = normal([k, n], 1.0, &mut rng);
            let fast = matmul(&a, &b);
            let slow = matmul_naive(&a, &b);
            prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
        }

        #[test]
        fn prop_matmul_nt_matches_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
            let mut rng = seeded_rng(seed);
            let a = normal([m, k], 1.0, &mut rng);
            let bt = normal([n, k], 1.0, &mut rng);
            let fast = matmul_nt(&a, &bt);
            let slow = matmul_naive(&a, &transpose(&bt));
            prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
        }

        #[test]
        fn prop_matmul_tn_matches_naive(m in 1usize..40, k in 1usize..40, n in 1usize..40, seed in 0u64..1000) {
            let mut rng = seeded_rng(seed);
            let at = normal([k, m], 1.0, &mut rng);
            let b = normal([k, n], 1.0, &mut rng);
            let fast = matmul_tn(&at, &b);
            let slow = matmul_naive(&transpose(&at), &b);
            prop_assert!(fast.max_abs_diff(&slow) < 1e-4);
        }

        #[test]
        fn prop_identity_is_noop(m in 1usize..16, n in 1usize..16, seed in 0u64..1000) {
            let mut rng = seeded_rng(seed);
            let a = normal([m, n], 1.0, &mut rng);
            let mut eye = Tensor::zeros([n, n]);
            for i in 0..n { *eye.at_mut(&[i, i]) = 1.0; }
            let c = matmul(&a, &eye);
            prop_assert!(c.max_abs_diff(&a) < 1e-6);
        }
    }
}
