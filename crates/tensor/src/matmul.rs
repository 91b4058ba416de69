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
//!   An operand whose rows run along the reduction axis (`A` of `nn`/`nt`,
//!   `B` of `nt`) is transposed on the way; the x86 tiers do that in
//!   registers, one tile at a time, chosen with the tier's micro-kernel
//!   (`pack_panels` is the scalar form and the oracle).
//!   An operand already in panel order skips the `B` half: a [`PanelView`]
//!   describes where its blocks and panels sit (`PanelLayout`), and
//!   [`matmul_packed`]'s tasks slice their panels straight out of it — a
//!   weight packed once ([`PackedNt`]), or a KV cache written in place.
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
    gemm(
        Layout::NN,
        a.data(),
        b.data(),
        c.data_mut(),
        m,
        k,
        n,
        Write::Store,
    );
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
    gemm(
        Layout::NT,
        a.data(),
        b.data(),
        c.data_mut(),
        m,
        k,
        n,
        Write::Store,
    );
}

/// `C[M,N] = A[K,M]ᵀ · B[K,N]`, accumulating into `c_acc`.
///
/// Used for weight gradients: `dW[out,in] += dY[T,out]ᵀ · X[T,in]`.
pub fn matmul_tn_acc(a: &Tensor, b: &Tensor, c_acc: &mut Tensor) {
    matmul_tn_onto(a, b, c_acc, Write::Accumulate);
}

/// The leaf of a gradient fold in one product: `C = 0 + s·(0 + A[K,M]ᵀ·B[K,N])`,
/// bit for bit what zeroing `C`, [`matmul_tn_acc`] and then `c = 0.0 + s·c`
/// leave, with `C`'s prior contents never read. The first `KC` block writes
/// `0 + partial`, later blocks add, and the last scales — so a product with
/// `K ≤ KC` (every `T ≤ 256` weight gradient) writes each element once.
pub fn matmul_tn_leaf(a: &Tensor, b: &Tensor, c: &mut Tensor, s: f32) {
    matmul_tn_onto(a, b, c, Write::Leaf(s));
}

fn matmul_tn_onto(a: &Tensor, b: &Tensor, c: &mut Tensor, write: Write) {
    let (k, m) = dims2(a, "matmul_tn");
    let (kb, n) = dims2(b, "matmul_tn");
    assert_eq!(k, kb, "matmul_tn: inner dims {k} vs {kb}");
    assert_eq!(c.shape(), &Shape::new(&[m, n]), "matmul_tn: output shape");
    gemm(Layout::TN, a.data(), b.data(), c.data_mut(), m, k, n, write);
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
    gemm(
        Layout::TN,
        a.data(),
        b.data(),
        c.data_mut(),
        m,
        k,
        n,
        Write::Store,
    );
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
    gemm_stable(Layout::NT, a, BSource::Raw(b), c, m, k, n);
}

/// `C[m,n] = A[m,k] · B[k,n]` over raw row-major slices, batch-stable:
/// always the blocked engine regardless of product size.
pub fn matmul_nn_stable(a: &[f32], b: &[f32], c: &mut [f32], m: usize, k: usize, n: usize) {
    debug_assert!(a.len() >= m * k && b.len() >= k * n && c.len() >= m * n);
    gemm_stable(Layout::NN, a, BSource::Raw(b), c, m, k, n);
}

/// The batch-stable product against a `B` already in panel order: the same
/// engine, task grid and summation order as [`matmul_nt_stable`] /
/// [`matmul_nn_stable`], with each task slicing its panels out of the view
/// instead of packing them — so the bits equal the `_stable` entry against
/// the row-major `B` exactly. `C[m, n] = A[m, k] · B` for the view's
/// `[k, n]` corner. Counts as one call of the view's layout in [`stats`],
/// and packs no `B` float.
pub fn matmul_packed(a: &[f32], b: PanelView<'_>, c: &mut [f32], m: usize) {
    let (k, n) = (b.k, b.n);
    debug_assert!(a.len() >= m * k && c.len() >= m * n);
    gemm_stable(b.gemm, a, BSource::Panels(b), c, m, k, n);
}

/// The micro-tile width `NR` of the ISA tier detected in this process: the
/// panel width every `PanelLayout` built here uses.
fn detected_nr() -> usize {
    match simd::tier() {
        #[cfg(target_arch = "x86_64")]
        simd::IsaTier::Avx512 => 32,
        _ => 16,
    }
}

/// Where the blocks and panels of a panel image sit. The image of a
/// `[k_cap, n_cap]` operand `B` (logical `[K, N]` order: for `nt` that is
/// the stored matrix transposed) for an `nr`-wide micro-tile holds `KC`
/// block `kb` at `kb·KC · ⌈n_cap/nr⌉·nr` and, inside it, panel `p` at
/// `+ p·nr·kc_cap`, with `kc_cap = min(k_cap − kb·KC, KC)`; the panel holds
/// `[kk·nr + j] = B[kb·KC + kk][p·nr + j]`. With `(k_cap, n_cap) = (k, n)`
/// that is exactly the order the engine's per-call `B` packing writes, and
/// every leading `[k, n]` corner of a larger image keeps each element where
/// it is — so a cache laid out for `max_seq` positions is read, for any
/// prefix, as it stands ([`PanelView`]). The padding (past `n_cap` in a
/// panel) is layout, not payload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct PanelLayout {
    nr: usize,
    k_cap: usize,
    n_cap: usize,
}

impl PanelLayout {
    /// The layout of a `[k_cap, n_cap]` operand for the detected ISA tier.
    pub(crate) fn new(k_cap: usize, n_cap: usize) -> Self {
        Self::with_nr(detected_nr(), k_cap, n_cap)
    }

    /// The layout for an `nr`-wide micro-tile (the instantiation under test
    /// may differ from the detected tier).
    pub(crate) fn with_nr(nr: usize, k_cap: usize, n_cap: usize) -> Self {
        PanelLayout { nr, k_cap, n_cap }
    }

    /// Floats the image occupies, padding included.
    pub(crate) fn len(&self) -> usize {
        self.k_cap * self.n_cap.div_ceil(self.nr) * self.nr
    }

    /// Offset of the `KC` block starting at reduction index `k0`.
    fn block(&self, k0: usize) -> usize {
        k0 * self.n_cap.div_ceil(self.nr) * self.nr
    }

    /// Distance between consecutive panels of the block starting at `k0`.
    fn panel_stride(&self, k0: usize) -> usize {
        self.nr * (self.k_cap - k0).min(KC)
    }

    /// Writes `src` into column `j` of `B`, rows `0..src.len()`: one lane
    /// of one panel per `KC` block.
    pub(crate) fn write_column(&self, data: &mut [f32], j: usize, src: &[f32]) {
        debug_assert!(j < self.n_cap && src.len() <= self.k_cap);
        let (p, lane) = (j / self.nr, j % self.nr);
        for (k0, rows) in (0..).step_by(KC).zip(src.chunks(KC)) {
            let at = self.block(k0) + p * self.panel_stride(k0) + lane;
            for (kk, &x) in rows.iter().enumerate() {
                data[at + kk * self.nr] = x;
            }
        }
    }

    /// Writes `src` into row `kk` of `B`, columns `0..src.len()`: one
    /// contiguous run per panel.
    pub(crate) fn write_row(&self, data: &mut [f32], kk: usize, src: &[f32]) {
        debug_assert!(kk < self.k_cap && src.len() <= self.n_cap);
        let k0 = kk - kk % KC;
        let (at, stride) = (self.block(k0) + (kk - k0) * self.nr, self.panel_stride(k0));
        for (p, cols) in src.chunks(self.nr).enumerate() {
            data[at + p * stride..][..cols.len()].copy_from_slice(cols);
        }
    }

    /// Zeroes the panels the leading `[k, n]` corner touches, padding lanes
    /// included — the rows `< k` of every panel holding a column `< n`.
    pub(crate) fn zero_corner(&self, data: &mut [f32], k: usize, n: usize) {
        for k0 in (0..k).step_by(KC) {
            let rows = (k - k0).min(KC) * self.nr;
            for p in 0..n.div_ceil(self.nr) {
                let at = self.block(k0) + p * self.panel_stride(k0);
                data[at..at + rows].fill(0.0);
            }
        }
    }
}

/// A product's `B` read straight out of a panel image: the leading
/// `[k, n]` corner of an image laid out by `PanelLayout`, tagged with the
/// GEMM layout it stands in for (`nt` for a transposed weight or key cache,
/// `nn` for a value cache), which is the layout [`stats`] counts it under.
#[derive(Clone, Copy, Debug)]
pub struct PanelView<'a> {
    data: &'a [f32],
    layout: PanelLayout,
    gemm: Layout,
    k: usize,
    n: usize,
}

impl<'a> PanelView<'a> {
    /// The `nt` operand `B: [n, k]` (one stored row per output column),
    /// read from the image of its transpose `[k_cap, n_cap]`.
    ///
    /// # Panics
    /// Panics if the corner exceeds the layout or `data` is shorter than
    /// the image.
    pub(crate) fn nt(data: &'a [f32], layout: PanelLayout, n: usize, k: usize) -> Self {
        Self::new(data, layout, Layout::NT, k, n)
    }

    /// The `nn` operand `B: [k, n]`, read from an image of `[k_cap, n_cap]`.
    ///
    /// # Panics
    /// As `PanelView::nt`.
    pub(crate) fn nn(data: &'a [f32], layout: PanelLayout, k: usize, n: usize) -> Self {
        Self::new(data, layout, Layout::NN, k, n)
    }

    fn new(data: &'a [f32], layout: PanelLayout, gemm: Layout, k: usize, n: usize) -> Self {
        assert!(
            k <= layout.k_cap && n <= layout.n_cap && data.len() >= layout.len(),
            "PanelView: [{k}, {n}] does not fit the image of {layout:?} ({} floats)",
            data.len()
        );
        PanelView {
            data,
            layout,
            gemm,
            k,
            n,
        }
    }
}

/// An `nt` right operand `B: [n, k]` (one row per output feature) packed
/// once into a panel image of its own (`PanelLayout` with
/// `(k_cap, n_cap) = (k, n)`), for the ISA tier detected in this process. A
/// weight that never changes (serving) is packed once here instead of on
/// every product; [`PackedNt::view`] is the operand of [`matmul_packed`].
/// The padding is layout, not payload: the image holds `n·k` values.
#[derive(Clone, Debug)]
pub struct PackedNt {
    data: Vec<f32>,
    layout: PanelLayout,
}

impl PackedNt {
    /// Packs a row-major `b: [n, k]` for the detected ISA tier.
    pub fn pack(b: &Tensor) -> Self {
        let (n, k) = dims2(b, "PackedNt::pack");
        let b = b.data();
        match simd::tier() {
            #[cfg(target_arch = "x86_64")]
            simd::IsaTier::Avx512 => Self::pack_for(AVX512, b, n, k),
            #[cfg(target_arch = "x86_64")]
            simd::IsaTier::Avx2Fma => Self::pack_for(AVX2, b, n, k),
            simd::IsaTier::Portable => Self::pack_for(PORTABLE, b, n, k),
        }
    }

    /// Packs with one tier's `B` packer (the instantiation under test may
    /// differ from the detected tier; its ISA must be present).
    fn pack_for<const MR: usize, const NR: usize>(
        kernels: Kernels<MR, NR>,
        b: &[f32],
        n: usize,
        k: usize,
    ) -> Self {
        let layout = PanelLayout::with_nr(NR, k, n);
        let mut data = vec![0.0; layout.len()];
        for k0 in (0..k).step_by(KC) {
            let kc = (k - k0).min(KC);
            let block = &mut data[layout.block(k0)..layout.block(k0 + kc)];
            // SAFETY: `kernels` is the detected tier's, or a test's whose
            // ISA it checked first.
            unsafe { (kernels.pack_b)(true, b, block, 0, n, k0, kc, n, k) };
        }
        PackedNt { data, layout }
    }

    /// The whole image as an `nt` operand.
    pub fn view(&self) -> PanelView<'_> {
        PanelView::nt(&self.data, self.layout, self.n(), self.k())
    }

    /// Rows of `B` (output features).
    pub fn n(&self) -> usize {
        self.layout.n_cap
    }

    /// Columns of `B` (input features).
    pub fn k(&self) -> usize {
        self.layout.k_cap
    }

    /// The panel image, padding included.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The panel image, mutably: an element-wise rewrite (a rounding pass)
    /// keeps it a valid image, since the padding maps to itself.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }
}

/// Where the blocked engine reads `B` from.
#[derive(Clone, Copy)]
enum BSource<'a> {
    /// As stored (`[K,N]`, or `[N,K]` for `nt`): each task packs each panel
    /// of its group per `KC` block.
    Raw(&'a [f32]),
    /// Already in panel order: tasks slice it directly.
    Panels(PanelView<'a>),
}

/// The `gemm` dispatch minus the small-product path: the blocked engine at
/// the detected ISA tier, unconditionally.
fn gemm_stable(
    layout: Layout,
    a: &[f32],
    b: BSource<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
) {
    let start = std::time::Instant::now();
    if k == 0 || m == 0 || n == 0 {
        c[..m * n].iter_mut().for_each(|x| *x = 0.0);
        return;
    }
    let store = Write::Store;
    match simd::tier() {
        #[cfg(target_arch = "x86_64")]
        simd::IsaTier::Avx512 => gemm_blocked(layout, a, b, c, m, k, n, store, AVX512),
        #[cfg(target_arch = "x86_64")]
        simd::IsaTier::Avx2Fma => gemm_blocked(layout, a, b, c, m, k, n, store, AVX2),
        simd::IsaTier::Portable => gemm_blocked(layout, a, b, c, m, k, n, store, PORTABLE),
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

/// How a product's result lands in `C`.
#[derive(Clone, Copy, PartialEq, Debug)]
enum Write {
    /// `C = A·B`.
    Store,
    /// `C += A·B`.
    Accumulate,
    /// `C = 0 + s·(0 + A·B)`: a gradient-fold leaf (see [`matmul_tn_leaf`]).
    Leaf(f32),
}

/// What one `KC` block's partial does to its `C` tile.
#[derive(Clone, Copy)]
enum TileWrite {
    /// `c = v`.
    Set,
    /// `c += v`.
    Add,
    /// `c = 0 + s·(base + v)`, with `base` zero on the first block and `c`
    /// after it; `s = None` (a block before the last) keeps `base + v`.
    Leaf { first: bool, scale: Option<f32> },
}

impl Write {
    /// The tile write of block `kb` of a product with `blocks` `KC` blocks:
    /// block partials reach `C` in ascending order whatever the mode.
    fn tile(self, kb: usize, blocks: usize) -> TileWrite {
        match self {
            Write::Store if kb == 0 => TileWrite::Set,
            Write::Store | Write::Accumulate => TileWrite::Add,
            Write::Leaf(s) => TileWrite::Leaf {
                first: kb == 0,
                scale: (kb + 1 == blocks).then_some(s),
            },
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
    write: Write,
) {
    let start = std::time::Instant::now();
    if k == 0 || m == 0 || n == 0 {
        match write {
            Write::Store => c.fill(0.0),
            Write::Accumulate => {}
            Write::Leaf(s) => c.fill(0.0 + s * 0.0),
        }
        return;
    }
    let flops = 2 * m * n * k;
    if flops < SMALL_FLOPS_THRESHOLD {
        gemm_small(layout, a, b, c, m, k, n, write);
    } else {
        let b = BSource::Raw(b);
        match simd::tier() {
            #[cfg(target_arch = "x86_64")]
            simd::IsaTier::Avx512 => gemm_blocked(layout, a, b, c, m, k, n, write, AVX512),
            #[cfg(target_arch = "x86_64")]
            simd::IsaTier::Avx2Fma => gemm_blocked(layout, a, b, c, m, k, n, write, AVX2),
            simd::IsaTier::Portable => gemm_blocked(layout, a, b, c, m, k, n, write, PORTABLE),
        }
    }
    stats::record(
        layout.index(),
        flops as u64,
        start.elapsed().as_nanos() as u64,
    );
}

/// Simple sequential loops for products too small to amortize packing. A
/// leaf is literally zero → accumulate → scale here: the product is tiny.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    layout: Layout,
    a: &[f32],
    b: &[f32],
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    write: Write,
) {
    if let Write::Leaf(s) = write {
        c.fill(0.0);
        gemm_small(layout, a, b, c, m, k, n, Write::Accumulate);
        c.iter_mut().for_each(|x| *x = 0.0 + s * *x);
        return;
    }
    let accumulate = write == Write::Accumulate;
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

/// Packer signature, shared by both operands (see [`pack_panels`]):
/// `(scatter, src, dst, x0, xc, k0, kc, x_len, k)`.
type Pack = unsafe fn(bool, &[f32], &mut [f32], usize, usize, usize, usize, usize, usize);

/// One ISA tier's blocked-engine kernels — the micro-kernel and the `A`
/// and `B` packers — all compiled for the tier's vector subtarget, so
/// `simd::tier()` picks them together.
#[derive(Clone, Copy)]
struct Kernels<const MR: usize, const NR: usize> {
    mk: MicroKernel<MR, NR>,
    pack_a: Pack,
    pack_b: Pack,
}

/// The AVX-512 tier: 8×32 tiles, `B` panels through 16×16 transposes,
/// `A` strips through 8×8 ones.
#[cfg(target_arch = "x86_64")]
const AVX512: Kernels<8, 32> = Kernels {
    mk: mk_avx512,
    pack_a: pack_a_avx512,
    pack_b: pack_b_avx512,
};

/// The AVX2+FMA tier: 6×16 tiles, `B` panels through 8×8 transposes, `A`
/// strips through 8×8 ones with two of the eight rows masked off.
#[cfg(target_arch = "x86_64")]
const AVX2: Kernels<6, 16> = Kernels {
    mk: mk_avx2,
    pack_a: pack_a_avx2,
    pack_b: pack_b_avx2,
};

/// The baseline tier: every packer is the scalar [`pack_panels`].
const PORTABLE: Kernels<4, 16> = Kernels {
    mk: mk_portable,
    pack_a: pack_panels::<4>,
    pack_b: pack_panels::<16>,
};

thread_local! {
    /// Per-thread packed-`A` scratch, grown on demand and reused across
    /// GEMM calls. Pool helpers are persistent threads, so theirs stays
    /// warm too. Separate from [`PACK_B`] because a dispatching thread
    /// keeps its shared packed `A` borrowed while it runs tasks itself.
    static PACK_A: RefCell<Vec<f32>> = const { RefCell::new(Vec::new()) };
    /// Per-thread packed-`B` scratch (one panel, one `KC` block).
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
/// tier gets register-file-matched shapes; `kernels` are the tier's
/// micro-kernel and packers.
///
/// The task grid is (M tile × panel group). Every task packs each `B`
/// panel of its group per `KC` block right before the panel's strips run,
/// so they read it from L1 — or, for a [`PanelView`] source, slices the
/// panel out of the image, which holds the same floats in the same order;
/// the `A` tile is packed per task when there are several M tiles, but a
/// single M tile is shared by all tasks, so the caller packs it once for
/// the whole of `K` before fanning out.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<const MR: usize, const NR: usize>(
    layout: Layout,
    a: &[f32],
    b: BSource<'_>,
    c: &mut [f32],
    m: usize,
    k: usize,
    n: usize,
    write: Write,
    kernels: Kernels<MR, NR>,
) {
    let mc_max = MR * MC_STRIPS;
    let k_blocks = k.div_ceil(KC);
    let tiles_m = m.div_ceil(mc_max);
    let n_panels = n.div_ceil(NR);
    let group = panels_per_task::<NR>(n_panels, tiles_m);
    let n_groups = n_panels.div_ceil(group);
    // Packed size of one KC block of the tallest A tile.
    let a_block = m.min(mc_max).div_ceil(MR) * MR * KC;
    let cptr = SendPtr(c.as_mut_ptr());
    let pack_len = match b {
        BSource::Raw(_) => {
            // Every M tile's tasks pack all of B between them.
            stats::record_packed_b(layout.index(), (tiles_m * n * k) as u64);
            NR * KC
        }
        BSource::Panels(v) => {
            assert!(
                v.gemm == layout && v.layout.nr == NR && (v.k, v.n) == (k, n),
                "PanelView: image does not fit this product"
            );
            0
        }
    };

    // One task: rows of M tile `ti` × columns of panel group `g`, over
    // ascending KC blocks — the only reduction order over k.
    let run_task = |t: usize, shared_a: Option<&[f32]>| {
        let (ti, g) = (t / n_groups, t % n_groups);
        let i0 = ti * mc_max;
        let mc = (m - i0).min(mc_max);
        let j0 = g * group * NR;
        let nc = (n - j0).min(group * NR);
        let (m_strips, n_panels) = (mc.div_ceil(MR), nc.div_ceil(NR));
        PACK_B.with(|scratch| {
            let mut scratch = scratch.borrow_mut();
            let scratch = grown(&mut scratch, pack_len);
            for (kb, k0) in (0..k).step_by(KC).enumerate() {
                let kc = (k - k0).min(KC);
                let tile = write.tile(kb, k_blocks);
                let mut multiply = |pa: &[f32]| {
                    for p in 0..n_panels {
                        let jr = p * NR;
                        let nr_eff = (nc - jr).min(NR);
                        // Panel `p` of the group: packed right before its
                        // strips run, so they read it from L1.
                        let pbp: &[f32] = match b {
                            BSource::Raw(raw) => {
                                let nt = layout == Layout::NT;
                                let (j, pb) = (j0 + jr, &mut scratch[..NR * kc]);
                                // SAFETY: the dispatch picked `kernels` for
                                // the detected ISA.
                                unsafe { (kernels.pack_b)(nt, raw, pb, j, nr_eff, k0, kc, n, k) };
                                pb
                            }
                            BSource::Panels(v) => {
                                let stride = v.layout.panel_stride(k0);
                                let at = v.layout.block(k0) + (j0 + jr) / NR * stride;
                                &v.data[at..at + NR * kc]
                            }
                        };
                        for s in 0..m_strips {
                            let ir = s * MR;
                            let mr_eff = (mc - ir).min(MR);
                            let pas = &pa[s * MR * kc..(s + 1) * MR * kc];
                            let mut acc = [[0.0f32; NR]; MR];
                            // SAFETY: the dispatch picked `kernels` for the
                            // detected ISA; slices hold kc full steps.
                            unsafe { (kernels.mk)(pas, pbp, kc, &mut acc) };
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
                                    tile,
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
                        let scatter = layout != Layout::TN;
                        // SAFETY: as for `pack_b`.
                        unsafe { (kernels.pack_a)(scatter, a, pa, i0, mc, k0, kc, m, k) };
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
            let pa = grown(&mut pa, k_blocks * a_block);
            let scatter = layout != Layout::TN;
            for (kb, k0) in (0..k).step_by(KC).enumerate() {
                let block = &mut pa[kb * a_block..(kb + 1) * a_block];
                let kc = (k - k0).min(KC);
                // SAFETY: as for `pack_b`.
                unsafe { (kernels.pack_a)(scatter, a, block, 0, m, k0, kc, m, k) };
            }
            let pa = &*pa;
            fan_out(n_groups, parallel, |t| run_task(t, Some(pa)));
        });
    }
}

/// Packs an `xc × kc` block of an operand into `W`-wide panels — `A` into
/// `MR`-row strips, `B` into `NR`-column panels: panel `p` holds
/// `dst[p·W·kc + kk·W + j] = X[x0 + p·W + j][k0 + kk]`, zero-padded in `j`
/// past `xc`, where `X` is the operand indexed (row or column of the
/// product, reduction index). `scatter` selects the storage `[x_len, k]`
/// (`A` of `nn`/`nt`, `B` of `nt`), where a panel row gathers one float
/// from each of `W` source rows; otherwise the operand is stored
/// `[k, x_len]` (`A` of `tn`, `B` of `nn`) and each panel row is one
/// contiguous copy. This scalar form is the portable tier's packer and the
/// oracle of the tiled ones.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn pack_panels<const W: usize>(
    scatter: bool,
    src: &[f32],
    dst: &mut [f32],
    x0: usize,
    xc: usize,
    k0: usize,
    kc: usize,
    x_len: usize,
    k: usize,
) {
    for p in 0..xc.div_ceil(W) {
        let x = x0 + p * W;
        let cols = (xc - p * W).min(W);
        let dst = &mut dst[p * W * kc..(p + 1) * W * kc];
        if scatter {
            scatter_panel::<W>(src, dst, x, cols, k0, kc, k, 0);
        } else {
            for kk in 0..kc {
                let row = &src[(k0 + kk) * x_len + x..][..cols];
                let d = &mut dst[kk * W..(kk + 1) * W];
                d[..cols].copy_from_slice(row);
                d[cols..].iter_mut().for_each(|v| *v = 0.0);
            }
        }
    }
}

/// Panel rows `from..kc` of one scatter-packed panel (see [`pack_panels`]):
/// source rows `x..x + cols` read contiguously, one float to each panel
/// row, and zero lanes past `cols`.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn scatter_panel<const W: usize>(
    src: &[f32],
    dst: &mut [f32],
    x: usize,
    cols: usize,
    k0: usize,
    kc: usize,
    k: usize,
    from: usize,
) {
    for j in 0..cols {
        let row = &src[(x + j) * k + k0..][..kc];
        for kk in from..kc {
            dst[kk * W + j] = row[kk];
        }
    }
    for j in cols..W {
        for kk in from..kc {
            dst[kk * W + j] = 0.0;
        }
    }
}

/// [`pack_panels`] with the scatter done one register tile at a time: a
/// full panel's first `kc − kc % T` rows are `W/R` tiles per `T` panel
/// rows, each `R` source rows × `T` reduction indices transposed in
/// registers and stored as `T` contiguous `R`-lane runs. The floats and
/// their places are the scalar scatter's; a partial panel (`xc` ends inside
/// it) and the last `kc % T` rows of a full one take the scalar loop.
///
/// # Safety
/// `transpose(src, ld_src, dst, ld_dst)` must write `dst[c·ld_dst + r] =
/// src[r·ld_src + c]` for `r < R`, `c < T` and nothing else, and the caller
/// must ensure the ISA it is compiled for is available.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
unsafe fn pack_panels_tiled<const W: usize, const R: usize, const T: usize>(
    transpose: unsafe fn(&[f32], usize, &mut [f32], usize),
    scatter: bool,
    src: &[f32],
    dst: &mut [f32],
    x0: usize,
    xc: usize,
    k0: usize,
    kc: usize,
    x_len: usize,
    k: usize,
) {
    const { assert!(W.is_multiple_of(R)) };
    if !scatter {
        return pack_panels::<W>(false, src, dst, x0, xc, k0, kc, x_len, k);
    }
    let tiled = kc - kc % T;
    for p in 0..xc.div_ceil(W) {
        let x = x0 + p * W;
        let cols = (xc - p * W).min(W);
        let dst = &mut dst[p * W * kc..(p + 1) * W * kc];
        let from = if cols == W {
            for kb in (0..tiled).step_by(T) {
                for jb in (0..W).step_by(R) {
                    let (s, d) = (&src[(x + jb) * k + k0 + kb..], &mut dst[kb * W + jb..]);
                    // SAFETY: this function's own precondition.
                    unsafe { transpose(s, k, d, W) };
                }
            }
            tiled
        } else {
            0
        };
        scatter_panel::<W>(src, dst, x, cols, k0, kc, k, from);
    }
}

/// `dst[c·ld_dst + r] = src[r·ld_src + c]` for `r < R ≤ 8`, `c < 8`: eight
/// rows loaded as `ymm` vectors, transposed by the unpack / shuffle /
/// lane-swap network, stored as eight `R`-lane runs. Below eight rows
/// (`R = 6`, the AVX2 tile height) the missing rows are loads of row
/// `R − 1` again, and their lanes are masked off the stores.
///
/// # Safety
/// Caller must ensure `avx` is available.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx")]
unsafe fn transpose_8x8<const R: usize>(
    src: &[f32],
    ld_src: usize,
    dst: &mut [f32],
    ld_dst: usize,
) {
    use core::arch::x86_64::*;
    const { assert!(R > 0 && R <= 8) };
    // Bounds every access below: loads read 8 floats from rows `< R`,
    // stores write `R` lanes of runs `< 8`.
    assert!(src.len() >= (R - 1) * ld_src + 8 && dst.len() >= 7 * ld_dst + R);
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    let mut r = [_mm256_setzero_ps(); 8];
    for (i, v) in r.iter_mut().enumerate() {
        *v = _mm256_loadu_ps(s.add(i.min(R - 1) * ld_src));
    }
    // Per 128-bit lane L: t[2i] interleaves rows 2i, 2i+1 at columns 4L,
    // 4L+1; t[2i+1] at columns 4L+2, 4L+3.
    let mut t = r;
    for i in 0..4 {
        t[2 * i] = _mm256_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm256_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // u[4g + c], lane L: rows 4g..4g+4 of column 4L + c.
    let mut u = t;
    for g in 0..2 {
        let t = &t[4 * g..4 * g + 4];
        u[4 * g] = _mm256_shuffle_ps::<0x44>(t[0], t[2]);
        u[4 * g + 1] = _mm256_shuffle_ps::<0xEE>(t[0], t[2]);
        u[4 * g + 2] = _mm256_shuffle_ps::<0x44>(t[1], t[3]);
        u[4 * g + 3] = _mm256_shuffle_ps::<0xEE>(t[1], t[3]);
    }
    let lanes: [i32; 8] = std::array::from_fn(|i| if i < R { -1 } else { 0 });
    let mask = _mm256_loadu_si256(lanes.as_ptr().cast());
    for c in 0..8 {
        let (lo, hi) = (u[c % 4], u[4 + c % 4]);
        let v = if c < 4 {
            _mm256_permute2f128_ps::<0x20>(lo, hi)
        } else {
            _mm256_permute2f128_ps::<0x31>(lo, hi)
        };
        if R == 8 {
            _mm256_storeu_ps(d.add(c * ld_dst), v);
        } else {
            _mm256_maskstore_ps(d.add(c * ld_dst), mask, v);
        }
    }
}

/// `dst[c·ld_dst + r] = src[r·ld_src + c]` for `r, c < 16`: the network of
/// [`transpose_8x8`] on `zmm` vectors, with two 128-bit-lane shuffle stages
/// in place of the lane swap.
///
/// # Safety
/// Caller must ensure `avx512f` is available.
#[cfg(target_arch = "x86_64")]
#[inline]
#[target_feature(enable = "avx512f")]
unsafe fn transpose_16x16(src: &[f32], ld_src: usize, dst: &mut [f32], ld_dst: usize) {
    use core::arch::x86_64::*;
    // Bounds every access below: 16 floats from each of 16 rows and runs.
    assert!(src.len() >= 15 * ld_src + 16 && dst.len() >= 15 * ld_dst + 16);
    let (s, d) = (src.as_ptr(), dst.as_mut_ptr());
    let mut r = [_mm512_setzero_ps(); 16];
    for (i, v) in r.iter_mut().enumerate() {
        *v = _mm512_loadu_ps(s.add(i * ld_src));
    }
    let mut t = r;
    for i in 0..8 {
        t[2 * i] = _mm512_unpacklo_ps(r[2 * i], r[2 * i + 1]);
        t[2 * i + 1] = _mm512_unpackhi_ps(r[2 * i], r[2 * i + 1]);
    }
    // u[4g + c], lane L: rows 4g..4g+4 of column 4L + c.
    let mut u = t;
    for g in 0..4 {
        let t = &t[4 * g..4 * g + 4];
        u[4 * g] = _mm512_shuffle_ps::<0x44>(t[0], t[2]);
        u[4 * g + 1] = _mm512_shuffle_ps::<0xEE>(t[0], t[2]);
        u[4 * g + 2] = _mm512_shuffle_ps::<0x44>(t[1], t[3]);
        u[4 * g + 3] = _mm512_shuffle_ps::<0xEE>(t[1], t[3]);
    }
    // v[8h + e], lanes: rows 8h..8h+4 of columns e and e+8, then rows
    // 8h+4..8h+8 of the same two columns.
    let mut v = u;
    for h in 0..2 {
        let u = &u[8 * h..8 * h + 8];
        for c in 0..4 {
            v[8 * h + c] = _mm512_shuffle_f32x4::<0x88>(u[c], u[4 + c]);
            v[8 * h + 4 + c] = _mm512_shuffle_f32x4::<0xDD>(u[c], u[4 + c]);
        }
    }
    for e in 0..8 {
        let (lo, hi) = (v[e], v[8 + e]);
        _mm512_storeu_ps(d.add(e * ld_dst), _mm512_shuffle_f32x4::<0x88>(lo, hi));
        _mm512_storeu_ps(
            d.add((e + 8) * ld_dst),
            _mm512_shuffle_f32x4::<0xDD>(lo, hi),
        );
    }
}

/// Defines one tier's tiled packer: [`pack_panels_tiled`] with `W`-wide
/// panels, `R × T` tiles and `$transpose`, compiled under the tier's
/// `#[target_feature]` (which implies the transpose's own ISA).
macro_rules! tiled_packer {
    ($(#[$doc:meta])* $name:ident, $feature:literal,
     <$w:literal, $r:literal, $t:literal>, $transpose:expr) => {
        $(#[$doc])*
        ///
        /// # Safety
        #[doc = concat!("Caller must ensure `", $feature, "` is available.")]
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = $feature)]
        #[allow(clippy::too_many_arguments)]
        unsafe fn $name(
            scatter: bool,
            src: &[f32],
            dst: &mut [f32],
            x0: usize,
            xc: usize,
            k0: usize,
            kc: usize,
            x_len: usize,
            k: usize,
        ) {
            // SAFETY: the transpose is correct for an `R × T` tile, and its
            // ISA is implied by this function's precondition.
            unsafe {
                pack_panels_tiled::<$w, $r, $t>(
                    $transpose, scatter, src, dst, x0, xc, k0, kc, x_len, k,
                )
            }
        }
    };
}

tiled_packer!(
    /// The AVX-512 tier's `A` packer: 8-row strips through 8×8 transposes.
    pack_a_avx512, "avx512f", <8, 8, 8>, transpose_8x8::<8>
);
tiled_packer!(
    /// The AVX-512 tier's `B` packer: 32-column panels through 16×16
    /// transposes.
    pack_b_avx512, "avx512f", <32, 16, 16>, transpose_16x16
);
tiled_packer!(
    /// The AVX2 tier's `A` packer: 6-row strips through 8×8 transposes with
    /// two rows masked off.
    pack_a_avx2, "avx2", <6, 6, 8>, transpose_8x8::<6>
);
tiled_packer!(
    /// The AVX2 tier's `B` packer: 16-column panels through 8×8 transposes.
    pack_b_avx2, "avx2", <16, 8, 8>, transpose_8x8::<8>
);

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
    tile: TileWrite,
) {
    for (r, arow) in acc.iter().enumerate().take(mr) {
        let dst = c.0.add((row0 + r) * n + col0);
        match tile {
            TileWrite::Set => {
                for (j, &v) in arow.iter().enumerate().take(nr) {
                    *dst.add(j) = v;
                }
            }
            TileWrite::Add => {
                for (j, &v) in arow.iter().enumerate().take(nr) {
                    *dst.add(j) += v;
                }
            }
            TileWrite::Leaf { first, scale } => {
                for (j, &v) in arow.iter().enumerate().take(nr) {
                    let sum = if first { 0.0 } else { *dst.add(j) } + v;
                    *dst.add(j) = match scale {
                        Some(s) => 0.0 + s * sum,
                        None => sum,
                    };
                }
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
    static PACKED_B: [AtomicU64; 3] = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];

    pub(super) fn record(layout: usize, flops: u64, nanos: u64) {
        FLOPS[layout].fetch_add(flops, Ordering::Relaxed);
        NANOS[layout].fetch_add(nanos, Ordering::Relaxed);
        CALLS[layout].fetch_add(1, Ordering::Relaxed);
    }

    pub(super) fn record_packed_b(layout: usize, floats: u64) {
        PACKED_B[layout].fetch_add(floats, Ordering::Relaxed);
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
        /// `B` elements the blocked engine packed into panels inside the
        /// call (`N·K` per M tile); zero for a [`super::PanelView`] operand
        /// and for the small-product loops.
        pub packed_b: u64,
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
            packed_b: PACKED_B[i].load(Ordering::Relaxed),
        })
    }

    /// Resets all statistics to zero (tests and bench isolation).
    pub fn reset() {
        for i in 0..3 {
            FLOPS[i].store(0, Ordering::Relaxed);
            NANOS[i].store(0, Ordering::Relaxed);
            CALLS[i].store(0, Ordering::Relaxed);
            PACKED_B[i].store(0, Ordering::Relaxed);
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

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Row counts of the pre-packed bit contract: every count inside one
    /// micro-tile strip, partial strips, and several M tiles on every tier
    /// (an M tile is 64, 96 or 128 rows).
    const PACKED_MS: [usize; 12] = [1, 2, 3, 4, 5, 6, 7, 8, 15, 127, 129, 300];

    /// One `nt` product through one micro-tile instantiation, with `B`
    /// packed per call and read from its image: the two outputs' bits.
    fn nt_raw_and_packed<const MR: usize, const NR: usize>(
        kernels: Kernels<MR, NR>,
        a: &[f32],
        b: &[f32],
        (m, k, n): (usize, usize, usize),
    ) -> (Vec<u32>, Vec<u32>) {
        let image = PackedNt::pack_for(kernels, b, n, k);
        let mut raw = vec![0.0; m * n];
        let mut pre = vec![f32::NAN; m * n];
        let raw_b = BSource::Raw(b);
        gemm_blocked::<MR, NR>(
            Layout::NT,
            a,
            raw_b,
            &mut raw,
            m,
            k,
            n,
            Write::Store,
            kernels,
        );
        let packed = BSource::Panels(image.view());
        gemm_blocked::<MR, NR>(
            Layout::NT,
            a,
            packed,
            &mut pre,
            m,
            k,
            n,
            Write::Store,
            kernels,
        );
        (bits(&raw), bits(&pre))
    }

    /// One `tn` weight-gradient product `[T,M]ᵀ·[T,N]` through one
    /// micro-tile instantiation, as a leaf and as zero → accumulate →
    /// `0.0 + s·c` over a `C` that starts as garbage: both outputs' bits.
    fn tn_leaf_and_two_pass<const MR: usize, const NR: usize>(
        kernels: Kernels<MR, NR>,
        a: &[f32],
        b: &[f32],
        (t, m, n): (usize, usize, usize),
        s: f32,
    ) -> (Vec<u32>, Vec<u32>) {
        let raw = |b| BSource::Raw(b);
        let mut leaf = vec![f32::NAN; m * n];
        gemm_blocked::<MR, NR>(
            Layout::TN,
            a,
            raw(b),
            &mut leaf,
            m,
            t,
            n,
            Write::Leaf(s),
            kernels,
        );
        let mut two = vec![0.0; m * n];
        gemm_blocked::<MR, NR>(
            Layout::TN,
            a,
            raw(b),
            &mut two,
            m,
            t,
            n,
            Write::Accumulate,
            kernels,
        );
        two.iter_mut().for_each(|x| *x = 0.0 + s * *x);
        (bits(&leaf), bits(&two))
    }

    /// Gradient-like operands of a `tn` product whose element sums include
    /// exact zeros of both signs and products that underflow: `dY` columns
    /// of `±0` and of tiny values beside ordinary ones.
    fn grad_operands(t: usize, m: usize, n: usize, seed: u64) -> (Tensor, Tensor) {
        let mut rng = seeded_rng(seed);
        let mut dy = normal([t, m], 1.0, &mut rng);
        let x = normal([t, n], 1.0, &mut rng);
        for (i, v) in dy.data_mut().iter_mut().enumerate() {
            match i % m {
                0 => *v = -0.0,
                1 => *v = if i % 2 == 0 { 0.0 } else { -0.0 },
                2 => *v *= -1.0e-44,
                3 => *v *= 1.0e-38,
                _ => {}
            }
        }
        (dy, x)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The pre-packed entry's bit contract: against a `PackedNt` image
        /// every micro-tile instantiation this host runs computes exactly
        /// the bits of its per-call packing — `n` off the panel width, `k`
        /// across and off the `KC` boundary, `m` from one row to several M
        /// tiles — and the public entry equals `matmul_nt_stable`.
        #[test]
        fn prop_packed_nt_is_bitwise_the_per_call_pack(
            k in 1usize..2 * KC + 50,
            n in 1usize..80,
            seed in 0u64..1000,
        ) {
            let mut rng = seeded_rng(seed);
            for m in PACKED_MS {
                let a = normal([m, k], 1.0, &mut rng);
                let b = normal([n, k], 1.0, &mut rng);
                let (a, b, shape) = (a.data(), b.data(), (m, k, n));
                let (raw, pre) = nt_raw_and_packed(PORTABLE, a, b, shape);
                prop_assert!(raw == pre, "portable 4x16 at {shape:?}");
                #[cfg(target_arch = "x86_64")]
                {
                    if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                        let (raw, pre) = nt_raw_and_packed(AVX2, a, b, shape);
                        prop_assert!(raw == pre, "avx2 6x16 at {shape:?}");
                    }
                    if is_x86_feature_detected!("avx512f") {
                        let (raw, pre) = nt_raw_and_packed(AVX512, a, b, shape);
                        prop_assert!(raw == pre, "avx512 8x32 at {shape:?}");
                    }
                }
                let mut want = vec![0.0; m * n];
                matmul_nt_stable(a, b, &mut want, m, k, n);
                let mut got = vec![f32::NAN; m * n];
                let image = PackedNt::pack(&Tensor::from_vec([n, k], b.to_vec()));
                matmul_packed(a, image.view(), &mut got, m);
                prop_assert!(bits(&want) == bits(&got), "detected tier at {shape:?}");
            }
        }
    }

    /// A panel source's panels in (block, panel) order, `NR·kc` floats
    /// each: the per-call packing of the row-major `raw` operand of a
    /// `[k, n]` product (`b_t`: stored `[n, k]`), or — from `view` — the
    /// same panels sliced out of an image.
    fn panels<const NR: usize>(
        source: BSource<'_>,
        b_t: bool,
        (k, n): (usize, usize),
    ) -> Vec<Vec<u32>> {
        let mut out = Vec::new();
        let mut scratch = vec![0.0; n.div_ceil(NR) * NR * KC];
        for k0 in (0..k).step_by(KC) {
            let kc = (k - k0).min(KC);
            for p in 0..n.div_ceil(NR) {
                let panel = match source {
                    BSource::Raw(raw) => {
                        pack_panels::<NR>(b_t, raw, &mut scratch, 0, n, k0, kc, n, k);
                        &scratch[p * NR * kc..(p + 1) * NR * kc]
                    }
                    BSource::Panels(v) => {
                        let at = v.layout.block(k0) + p * v.layout.panel_stride(k0);
                        &v.data[at..at + NR * kc]
                    }
                };
                out.push(bits(panel));
            }
        }
        out
    }

    /// Whether one product through one micro-tile instantiation computes
    /// the same bits with `B` packed per call from `raw` as read from `view`.
    fn raw_equals_view<const MR: usize, const NR: usize>(
        kernels: Kernels<MR, NR>,
        a: &[f32],
        raw: &[f32],
        view: PanelView<'_>,
        m: usize,
    ) -> bool {
        let (k, n, layout) = (view.k, view.n, view.gemm);
        let mut want = vec![0.0; m * n];
        let mut got = vec![f32::NAN; m * n];
        let w = Write::Store;
        gemm_blocked::<MR, NR>(layout, a, BSource::Raw(raw), &mut want, m, k, n, w, kernels);
        gemm_blocked::<MR, NR>(
            layout,
            a,
            BSource::Panels(view),
            &mut got,
            m,
            k,
            n,
            w,
            kernels,
        );
        bits(&want) == bits(&got)
    }

    /// Checks every head of `cache` against the row-major `keys` /
    /// `values` (`[head][pos][d]`) of its `len` tokens: the images' panels
    /// are the per-call packing's, and a scores (`nt`) and a context
    /// (`nn`) product of `m` rows against them compute the per-call bits on
    /// every micro-tile instantiation of width `NR` this host runs.
    fn check_kv_images<const NR: usize>(
        cache: &crate::attention::KvCache,
        keys: &[Vec<f32>],
        values: &[Vec<f32>],
        (dh, m): (usize, usize),
        rng: &mut rand_chacha::ChaCha8Rng,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let len = cache.len();
        for (head, (k, v)) in keys.iter().zip(values).enumerate() {
            let (k, v) = (&k[..len * dh], &v[..len * dh]);
            let (kv, vv) = (cache.key_panels(head), cache.value_panels(head));
            let raw = panels::<NR>(BSource::Raw(k), true, (dh, len));
            prop_assert!(raw == panels::<NR>(BSource::Panels(kv), true, (dh, len)));
            let raw = panels::<NR>(BSource::Raw(v), false, (len, dh));
            prop_assert!(raw == panels::<NR>(BSource::Panels(vv), false, (len, dh)));

            let q = normal([m, dh], 1.0, rng);
            let p = normal([m, len], 1.0, rng);
            let (q, p) = (q.data(), p.data());
            // (tier, scores agree, context agrees)
            let mut tiers = Vec::new();
            if NR == 16 {
                tiers.push((
                    "portable 4x16",
                    raw_equals_view(PORTABLE, q, k, kv, m),
                    raw_equals_view(PORTABLE, p, v, vv, m),
                ));
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                    tiers.push((
                        "avx2 6x16",
                        raw_equals_view(AVX2, q, k, kv, m),
                        raw_equals_view(AVX2, p, v, vv, m),
                    ));
                }
            } else {
                #[cfg(target_arch = "x86_64")]
                if is_x86_feature_detected!("avx512f") {
                    tiers.push((
                        "avx512 8x32",
                        raw_equals_view(AVX512, q, k, kv, m),
                        raw_equals_view(AVX512, p, v, vv, m),
                    ));
                }
            }
            for (tier, scores, context) in tiers {
                prop_assert!(scores, "{tier} scores, head {head} len {len}");
                prop_assert!(context, "{tier} context, head {head} len {len}");
            }
        }
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        /// The panel-layout KV cache's bit contract: after any sequence of
        /// pushes — across a `clear` that leaves a longer sequence's panels
        /// behind — each head's key and value images, read for every prefix
        /// `len`, hold exactly the panels the per-call packing of the
        /// row-major `[len, dh]` cache builds, padding included, and the
        /// products against them compute the per-call bits: for `max_seq`
        /// off the panel width, `dh` across one and two panels, at both
        /// panel widths, on every tier this host runs.
        #[test]
        fn prop_kv_images_are_bitwise_the_per_call_pack(
            heads in 1usize..3,
            dh in 1usize..70,
            max_seq in 1usize..80,
            stale in 0usize..80,
            m in 1usize..10,
            seed in 0u64..1000,
        ) {
            let mut rng = seeded_rng(seed);
            let h = heads * dh;
            for nr in [16, 32] {
                let mut cache = crate::attention::KvCache::with_nr(heads, dh, max_seq, nr);
                for _ in 0..stale.min(max_seq) {
                    cache.push_token(normal([3 * h], 1.0, &mut rng).data(), h);
                }
                cache.clear();
                let mut keys = vec![Vec::new(); heads];
                let mut values = vec![Vec::new(); heads];
                for _ in 0..max_seq {
                    let row = normal([3 * h], 1.0, &mut rng);
                    cache.push_token(row.data(), h);
                    for head in 0..heads {
                        let col = |third: usize| third * h + head * dh;
                        keys[head].extend_from_slice(&row.data()[col(1)..col(1) + dh]);
                        values[head].extend_from_slice(&row.data()[col(2)..col(2) + dh]);
                    }
                    let shape = (dh, m);
                    if nr == 16 {
                        check_kv_images::<16>(&cache, &keys, &values, shape, &mut rng)?;
                    } else {
                        check_kv_images::<32>(&cache, &keys, &values, shape, &mut rng)?;
                    }
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]
        /// The leaf write's bit contract: one `tn` product in leaf mode
        /// equals zero → accumulate → `0.0 + s·c`, bitwise, on every tile
        /// instantiation this host runs and through the public entry (small
        /// products included) — for `T` inside one `KC` block, at its edge
        /// and across several, at the fold scales of batches 1–4, with
        /// signed zeros and underflowing products in the sums.
        #[test]
        fn prop_tn_leaf_is_bitwise_zero_accumulate_scale(
            m in 1usize..70,
            n in 1usize..70,
            seed in 0u64..1000,
        ) {
            for t in [1usize, 15, 127, 256, 257, 600] {
                let (dy, x) = grad_operands(t, m, n, seed);
                let shape = (t, m, n);
                for s in [1.0f32, 0.5, 1.0 / 3.0, 0.25] {
                    let (a, b) = (dy.data(), x.data());
                    let (leaf, two) = tn_leaf_and_two_pass(PORTABLE, a, b, shape, s);
                    prop_assert!(leaf == two, "portable 4x16 at {shape:?} s={s}");
                    #[cfg(target_arch = "x86_64")]
                    {
                        if is_x86_feature_detected!("avx2") && is_x86_feature_detected!("fma") {
                            let (leaf, two) = tn_leaf_and_two_pass(AVX2, a, b, shape, s);
                            prop_assert!(leaf == two, "avx2 6x16 at {shape:?} s={s}");
                        }
                        if is_x86_feature_detected!("avx512f") {
                            let (leaf, two) =
                                tn_leaf_and_two_pass(AVX512, a, b, shape, s);
                            prop_assert!(leaf == two, "avx512 8x32 at {shape:?} s={s}");
                        }
                    }
                    let mut leaf = Tensor::full([m, n], f32::NAN);
                    matmul_tn_leaf(&dy, &x, &mut leaf, s);
                    let mut acc = Tensor::zeros([m, n]);
                    matmul_tn_acc(&dy, &x, &mut acc);
                    let mut want = Tensor::full([m, n], f32::NAN);
                    crate::ops::axpy_from_zero(&mut want, s, &acc);
                    prop_assert!(
                        bits(leaf.data()) == bits(want.data()),
                        "detected tier at {shape:?} s={s}"
                    );
                }
            }
        }
    }

    /// Whether `pack` writes exactly the floats of the scalar
    /// [`pack_panels`] into a NaN-filled scratch, and nothing past them.
    #[cfg(target_arch = "x86_64")]
    fn pack_matches_scalar<const W: usize>(
        pack: Pack,
        scatter: bool,
        src: &[f32],
        (x0, xc, k0, kc, x_len, k): (usize, usize, usize, usize, usize, usize),
    ) -> bool {
        let len = xc.div_ceil(W) * W * kc;
        let mut want = vec![0.0; len];
        pack_panels::<W>(scatter, src, &mut want, x0, xc, k0, kc, x_len, k);
        let mut got = vec![f32::NAN; len + W];
        // SAFETY: callers pass a tier's packer only where its ISA is present.
        unsafe { pack(scatter, src, &mut got, x0, xc, k0, kc, x_len, k) };
        bits(&want) == bits(&got[..len]) && got[len..].iter().all(|v| v.is_nan())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        /// The tiled packers' bit contract: each x86 tier's `A` (`MR` 6
        /// and 8) and `B` (`NR` 16 and 32) packer writes the scalar
        /// packer's floats in the scalar packer's places — in both storage
        /// orders, for blocks starting anywhere in the operand, with
        /// partial panels and `kc` off every tile depth.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn prop_tiled_packs_are_bitwise_the_scalar_pack(
            x_len in 1usize..100,
            k in 1usize..2 * KC + 40,
            (x0, xc, k0, kc) in (0usize..1000, 0usize..1000, 0usize..1000, 0usize..1000),
            seed in 0u64..1000,
        ) {
            let x0 = x0 % x_len;
            let xc = 1 + xc % (x_len - x0);
            let k0 = k0 % k;
            let kc = 1 + kc % (k - k0).min(KC);
            let src = normal([x_len * k], 1.0, &mut seeded_rng(seed));
            let at = (x0, xc, k0, kc, x_len, k);
            for scatter in [true, false] {
                let src = src.data();
                if is_x86_feature_detected!("avx2") {
                    prop_assert!(pack_matches_scalar::<6>(AVX2.pack_a, scatter, src, at));
                    prop_assert!(pack_matches_scalar::<16>(AVX2.pack_b, scatter, src, at));
                }
                if is_x86_feature_detected!("avx512f") {
                    prop_assert!(pack_matches_scalar::<8>(AVX512.pack_a, scatter, src, at));
                    prop_assert!(pack_matches_scalar::<32>(AVX512.pack_b, scatter, src, at));
                }
            }
        }
    }

    #[test]
    fn stable_nt_equals_packed_at_train_stream_shapes() {
        // The `train-stream` linears (hidden 512) at one row, at its 15
        // rows and across one full M tile: the weight packed per call and
        // the weight packed once compute the same bits.
        let mut rng = seeded_rng(21);
        let h = 512;
        for (k, n) in [(h, 3 * h), (h, h), (h, 4 * h), (4 * h, h)] {
            let w = normal([n, k], 1.0, &mut rng);
            let image = PackedNt::pack(&w);
            for m in [1, 15, 127] {
                let x = normal([m, k], 1.0, &mut rng);
                let mut want = vec![0.0; m * n];
                matmul_nt_stable(x.data(), w.data(), &mut want, m, k, n);
                let mut got = vec![f32::NAN; m * n];
                matmul_packed(x.data(), image.view(), &mut got, m);
                assert!(bits(&want) == bits(&got), "m {m}, [{n}, {k}]");
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
