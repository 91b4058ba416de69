//! Runtime ISA-tier detection and the multiversioned vector-math core
//! shared by the non-GEMM kernels ([`crate::ops`]) and the blocked GEMM
//! engine ([`crate::matmul`]).
//!
//! # How multiversioning works here
//!
//! Kernel bodies are written **once**, as safe scalar-looking Rust with
//! fixed-width lane-array accumulators (`[f32; LANES]`). The `dispatch!`
//! macro instantiates each body inside `#[target_feature]` wrapper
//! functions — one per ISA tier — so LLVM compiles the *same* source three
//! times with progressively wider vector subtargets (AVX-512, AVX2+FMA,
//! baseline SSE2) and autovectorizes the lane loops into full-width SIMD.
//! One body means one numerical definition: Rust performs no
//! floating-point contraction or reassociation, so all three tiers produce
//! **bit-identical** results and the tier choice (made once per process)
//! affects speed only.
//!
//! # Determinism contract
//!
//! Reductions accumulate into `LANES` independent partial sums in a fixed
//! element-to-lane assignment (`element i → lane i % LANES` within each
//! `LANES`-wide chunk, remainder handled sequentially) and are folded by
//! [`hsum`]/[`hmax`] in a fixed binary tree. The order is a function of
//! the operand shape alone — never of thread count or scheduling — which
//! is the same contract `matmul.rs` established for the GEMM engine.

use std::mem::MaybeUninit;
use std::sync::OnceLock;

use crate::half::Precision;

/// Vector width (in `f32` lanes) of the lane-array accumulators used by
/// the kernel bodies. Sixteen fills one AVX-512 register; AVX2 and SSE2
/// process the same array as two or four registers, so the summation
/// order — and therefore the bits — never change across tiers.
pub const LANES: usize = 16;

/// ISA tier selected once per process for all vectorized kernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum IsaTier {
    /// AVX-512 (F/BW/DQ/VL — the server-class common subset).
    #[cfg(target_arch = "x86_64")]
    Avx512,
    /// AVX2 with FMA.
    #[cfg(target_arch = "x86_64")]
    Avx2Fma,
    /// Whatever the compilation baseline provides (SSE2 on x86-64).
    Portable,
}

/// Returns the ISA tier, detecting CPU features on first call.
pub fn tier() -> IsaTier {
    static TIER: OnceLock<IsaTier> = OnceLock::new();
    *TIER.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512dq")
                && std::arch::is_x86_feature_detected!("avx512vl")
            {
                return IsaTier::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2")
                && std::arch::is_x86_feature_detected!("fma")
            {
                return IsaTier::Avx2Fma;
            }
        }
        IsaTier::Portable
    })
}

/// Instantiates a `fn(..) -> ()` kernel body once per ISA tier behind
/// `#[target_feature]` wrappers and dispatches on [`tier()`].
///
/// The body must be branch-light straight-line loop code; anything it
/// calls must be `#[inline(always)]` so it is compiled inside the
/// feature-gated wrapper rather than at the crate baseline.
macro_rules! dispatch {
    ($(#[$meta:meta])* $vis:vis fn $name:ident( $($arg:ident : $ty:ty),* $(,)? ) $body:block) => {
        $(#[$meta])*
        #[inline]
        #[allow(clippy::too_many_arguments)]
        $vis fn $name($($arg: $ty),*) {
            #[inline(always)]
            #[allow(clippy::too_many_arguments)]
            fn body($($arg: $ty),*) $body

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx512f,avx512bw,avx512dq,avx512vl,avx2,fma")]
            unsafe fn tier_avx512($($arg: $ty),*) { body($($arg),*) }

            #[cfg(target_arch = "x86_64")]
            #[target_feature(enable = "avx2,fma")]
            unsafe fn tier_avx2($($arg: $ty),*) { body($($arg),*) }

            match $crate::simd::tier() {
                #[cfg(target_arch = "x86_64")]
                // SAFETY: feature presence verified once by `tier()`.
                $crate::simd::IsaTier::Avx512 => unsafe { tier_avx512($($arg),*) },
                #[cfg(target_arch = "x86_64")]
                // SAFETY: as above.
                $crate::simd::IsaTier::Avx2Fma => unsafe { tier_avx2($($arg),*) },
                $crate::simd::IsaTier::Portable => body($($arg),*),
            }
        }
    };
}
pub(crate) use dispatch;

/// Folds lane partial sums in a fixed binary tree (shape-independent
/// order, part of the determinism contract).
#[inline(always)]
pub fn hsum(mut acc: [f32; LANES]) -> f32 {
    let mut w = LANES / 2;
    while w > 0 {
        for j in 0..w {
            acc[j] += acc[j + w];
        }
        w /= 2;
    }
    acc[0]
}

/// Folds lane partial maxima in the same fixed tree as [`hsum`].
#[inline(always)]
pub fn hmax(mut acc: [f32; LANES]) -> f32 {
    let mut w = LANES / 2;
    while w > 0 {
        for j in 0..w {
            acc[j] = acc[j].max(acc[j + w]);
        }
        w /= 2;
    }
    acc[0]
}

// Exponential range clamp: below `EXP_LO` the true result underflows the
// smallest normal f32, and the kernel returns exactly 0.0 — attention
// relies on `exp(-inf) == 0.0` to keep causally masked probabilities
// exact zeros.
const EXP_HI: f32 = 88.376_26;
const EXP_LO: f32 = -87.336_55;
/// Stand-in argument evaluated for inputs below `EXP_LO`, whose result the
/// final select discards. Evaluating at `EXP_LO` itself would form
/// `p · 2⁻¹²⁶`, a subnormal product that costs a microcode assist on every
/// causally masked score; `e⁻⁸⁷` is comfortably normal.
const EXP_DISCARDED: f32 = -87.0;
const LOG2E: f32 = std::f32::consts::LOG2_E;
const LN2_HI: f32 = 0.693_359_4;
const LN2_LO: f32 = -2.121_944_4e-4;
/// `1.5 · 2²³`: adding and subtracting this rounds an f32 in
/// `±2²¹` to the nearest integer without a libm call (which would block
/// autovectorization).
const ROUND_MAGIC: f32 = 12_582_912.0;

/// Vectorizable `e^x` (Cephes-style polynomial, ~2 ulp).
///
/// Branch-free except for LLVM-selectable clamps; safe to call inside
/// `dispatch!` bodies. Returns exactly `0.0` for `x < -87.34`
/// (including `-inf`) and saturates near `f32::MAX` at the high end.
#[inline(always)]
pub fn exp_approx(x: f32) -> f32 {
    let xc = if x < EXP_LO { EXP_DISCARDED } else { x };
    let xc = if xc > EXP_HI { EXP_HI } else { xc };
    // n = round(x / ln 2) via the magic-number trick.
    let z = xc * LOG2E + ROUND_MAGIC;
    let n = z - ROUND_MAGIC;
    // Cody–Waite reduction: r = x − n·ln2, |r| ≤ ln2/2.
    let r = xc - n * LN2_HI - n * LN2_LO;
    // Degree-6 minimax polynomial for e^r.
    let mut p = 1.987_569_1e-4f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 1.666_666_5e-1;
    p = p * r + 0.5;
    p = p * r * r + r + 1.0;
    // 2^n by direct exponent-field construction (n ∈ [-126, 127] after
    // the clamps, so the result is always a normal number). A NaN `x`
    // passes both clamps, so its `n` is pinned to a bound here; `p` is NaN
    // then, and so is the result.
    let n = if n >= -126.0 { n } else { -126.0 };
    // SAFETY: `n` is an integer in [-126, 127]: the clamps bound a
    // non-NaN `xc` to [EXP_DISCARDED, EXP_HI] (so `xc·log2 e` rounds into
    // that range), and the line above maps NaN to -126. It is therefore
    // finite and representable in `i32`. The saturating `as i32` it
    // replaces does not vectorise.
    let n = unsafe { n.to_int_unchecked::<i32>() };
    let scale = f32::from_bits(((n + 127) << 23) as u32);
    let y = p * scale;
    if x < EXP_LO {
        0.0
    } else {
        y
    }
}

/// Vectorizable `tanh(x)` via `1 − 2/(e^{2x}+1)` (odd-symmetric form is
/// unnecessary: [`exp_approx`] saturates cleanly at both ends, giving
/// exact ±1.0 for |x| ≳ 44). Absolute error ≲ 2e-7.
#[inline(always)]
pub fn tanh_approx(x: f32) -> f32 {
    let e = exp_approx(2.0 * x);
    1.0 - 2.0 / (e + 1.0)
}

// ---- half-precision convert kernels ----
//
// The f32↔bf16/f16 converters back [`crate::half::PackedHalf`], the packed
// transfer payload of the mixed-precision offload runtime (the runtime's own
// step path uses the fused round-copy further down). The bodies are
// pure integer bit manipulation (see `crate::half` for the encodings), so
// bit-identity across ISA tiers is trivial; the `dispatch!` wrappers exist
// so LLVM can autovectorize the packing loops with the widest subtarget.

dispatch! {
    /// `dst[i] = bf16(src[i])` with round-to-nearest-even.
    fn k_f32_to_bf16(src: &[f32], dst: &mut [u16]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = crate::half::f32_to_bf16_bits(*s);
        }
    }
}

dispatch! {
    /// `dst[i] = f32(src[i])` — exact widening from bf16.
    fn k_bf16_to_f32(src: &[u16], dst: &mut [f32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = crate::half::bf16_bits_to_f32(*s);
        }
    }
}

dispatch! {
    /// `dst[i] = f16(src[i])` with round-to-nearest-even.
    fn k_f32_to_f16(src: &[f32], dst: &mut [u16]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = crate::half::f32_to_f16_bits(*s);
        }
    }
}

dispatch! {
    /// `dst[i] = f32(src[i])` — exact widening from binary16.
    fn k_f16_to_f32(src: &[u16], dst: &mut [f32]) {
        for (d, s) in dst.iter_mut().zip(src) {
            *d = crate::half::f16_bits_to_f32(*s);
        }
    }
}

macro_rules! cvt_wrapper {
    ($(#[$meta:meta])* $name:ident, $kernel:ident, $stat:ident, $src:ty, $dst:ty) => {
        $(#[$meta])*
        pub fn $name(src: &[$src], dst: &mut [$dst]) {
            assert_eq!(src.len(), dst.len(), "convert length mismatch");
            let t0 = std::time::Instant::now();
            $kernel(src, dst);
            crate::ops::stats::record(
                crate::ops::stats::$stat,
                src.len() as u64,
                t0.elapsed().as_nanos() as u64,
            );
        }
    };
}

cvt_wrapper!(
    /// Packs `src` into bf16 bits (round-to-nearest-even), recording
    /// `op.cvt_f32_bf16.*` telemetry. Lengths must match.
    cvt_f32_to_bf16, k_f32_to_bf16, CVT_F32_BF16, f32, u16
);
cvt_wrapper!(
    /// Unpacks bf16 bits into `dst` (exact), recording
    /// `op.cvt_bf16_f32.*` telemetry. Lengths must match.
    cvt_bf16_to_f32, k_bf16_to_f32, CVT_BF16_F32, u16, f32
);
cvt_wrapper!(
    /// Packs `src` into binary16 bits (round-to-nearest-even, overflow to
    /// ±Inf), recording `op.cvt_f32_f16.*` telemetry. Lengths must match.
    cvt_f32_to_f16, k_f32_to_f16, CVT_F32_F16, f32, u16
);
cvt_wrapper!(
    /// Unpacks binary16 bits into `dst` (exact), recording
    /// `op.cvt_f16_f32.*` telemetry. Lengths must match.
    cvt_f16_to_f32, k_f16_to_f32, CVT_F16_F32, u16, f32
);

// ---- fused round-copy ----
//
// What the layer stream runs instead of a pack → unpack → copy chain: one
// pass that reads an f32, rounds it to the nearest half-precision value
// (ties to even) and writes that value back widened to f32 at the
// destination. The packed `u16` payload is never materialised — the bytes
// it would occupy are accounted by the caller — and the values are the
// [`crate::half::PackedHalf::round_through`] grid bit for bit (both go
// through `crate::half::round_through_{bf16,f16}`). The destination is
// `MaybeUninit` so the same kernel fills a `Vec`'s spare capacity.

dispatch! {
    /// `dst[i] = f32(bf16(src[i]))`.
    fn k_round_bf16(src: &[f32], dst: &mut [MaybeUninit<f32>]) {
        for (d, s) in dst.iter_mut().zip(src) {
            d.write(crate::half::round_through_bf16(*s));
        }
    }
}

dispatch! {
    /// `dst[i] = f32(f16(src[i]))` through the scalar encoder: the portable
    /// tier, and the oracle of the F16C path below.
    fn k_round_f16(src: &[f32], dst: &mut [MaybeUninit<f32>]) {
        for (d, s) in dst.iter_mut().zip(src) {
            d.write(crate::half::round_through_f16(*s));
        }
    }
}

/// Whether [`k_round_f16_f16c`] may run: an AVX2 tier with F16C.
#[cfg(target_arch = "x86_64")]
fn has_f16c() -> bool {
    tier() != IsaTier::Portable && std::arch::is_x86_feature_detected!("f16c")
}

/// [`k_round_f16`] without a branch per element: the hardware round trip
/// `vcvtps2ph` (round to nearest even) → `vcvtph2ps` puts eight values on
/// the f16 grid at once, and two blends give back the scalar encoder's
/// result where the hardware's differs — a NaN keeps no payload (the
/// scalar encoder returns the sign and the quiet NaN), and a magnitude
/// strictly between 2⁻²⁵ and 2⁻²⁴ flushes to a signed zero (the scalar
/// encoder's underflow, where the hardware rounds up to 2⁻²⁴). The tail
/// of fewer than eight goes through the scalar encoder.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,f16c")]
fn k_round_f16_f16c(src: &[f32], dst: &mut [MaybeUninit<f32>]) {
    use std::arch::x86_64::*;
    let n = src.len().min(dst.len());
    let body = n - n % 8;
    let magnitude = _mm256_set1_epi32(0x7fff_ffff);
    let (inf, quiet) = (
        _mm256_set1_epi32(0x7f80_0000),
        _mm256_set1_epi32(0x7fc0_0000),
    );
    let (lo, hi) = (
        _mm256_set1_epi32(0x3300_0000),
        _mm256_set1_epi32(0x3380_0000),
    );
    for i in (0..body).step_by(8) {
        // SAFETY: `i + 8 <= n`, so eight floats are in bounds of both
        // slices; `MaybeUninit<f32>` has the layout of `f32`.
        let x = unsafe { _mm256_loadu_ps(src.as_ptr().add(i)) };
        let grid = _mm256_cvtph_ps(_mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(x));
        let bits = _mm256_castps_si256(x);
        let abs = _mm256_and_si256(bits, magnitude);
        let sign = _mm256_andnot_si256(magnitude, bits);
        let nan = _mm256_cmpgt_epi32(abs, inf);
        let flushed = _mm256_and_si256(_mm256_cmpgt_epi32(abs, lo), _mm256_cmpgt_epi32(hi, abs));
        let out = _mm256_blendv_epi8(_mm256_castps_si256(grid), _mm256_or_si256(sign, quiet), nan);
        let out = _mm256_blendv_epi8(out, sign, flushed);
        // SAFETY: as for the load.
        unsafe { _mm256_storeu_si256(dst.as_mut_ptr().add(i).cast(), out) };
    }
    for (d, s) in dst[body..n].iter_mut().zip(&src[body..n]) {
        d.write(crate::half::round_through_f16(*s));
    }
}

/// `dst[i] = f32(f16(src[i]))` on the fastest path this CPU has.
fn round_f16(src: &[f32], dst: &mut [MaybeUninit<f32>]) {
    #[cfg(target_arch = "x86_64")]
    if has_f16c() {
        // SAFETY: `has_f16c` verified AVX2 and F16C.
        return unsafe { k_round_f16_f16c(src, dst) };
    }
    k_round_f16(src, dst)
}

/// Initialises every element of `dst` with `src` rounded through the half
/// format `precision`, recording `op.round_{bf16,f16}.*` telemetry
/// (elements per call). Runs on the calling thread: its callers are the
/// copy engines, and the kernel fork-join pool belongs to compute.
fn round_into(precision: Precision, src: &[f32], dst: &mut [MaybeUninit<f32>]) {
    debug_assert_eq!(src.len(), dst.len());
    let t0 = std::time::Instant::now();
    let stat = match precision {
        Precision::Bf16 => {
            k_round_bf16(src, dst);
            crate::ops::stats::ROUND_BF16
        }
        Precision::F16 => {
            round_f16(src, dst);
            crate::ops::stats::ROUND_F16
        }
        Precision::F32 => unreachable!("F32 copies without rounding"),
    };
    crate::ops::stats::record(stat, src.len() as u64, t0.elapsed().as_nanos() as u64);
}

/// `dst[i] = widen(rne_half(src[i]))`: copies `src` into `dst`, rounding
/// each value through `precision` on the way — the values
/// [`crate::half::PackedHalf::round_through`] produces, in one pass over
/// source and destination. A plain `copy_from_slice` at
/// [`Precision::F32`]. Lengths must match.
pub fn round_copy(precision: Precision, src: &[f32], dst: &mut [f32]) {
    assert_eq!(src.len(), dst.len(), "round_copy length mismatch");
    if !precision.is_half() {
        return dst.copy_from_slice(src);
    }
    // SAFETY: `MaybeUninit<f32>` has the layout of `f32`, and `round_into`
    // only writes initialised values through this view, so `dst` holds
    // nothing but initialised elements when the borrow ends.
    let dst = unsafe { &mut *(dst as *mut [f32] as *mut [MaybeUninit<f32>]) };
    round_into(precision, src, dst);
}

/// Appends `src`, rounded as by [`round_copy`], to `out` — straight into
/// its spare capacity, so a recycled (cleared) buffer is neither
/// zero-filled first nor reallocated. A plain `extend_from_slice` at
/// [`Precision::F32`].
pub fn round_extend(precision: Precision, src: &[f32], out: &mut Vec<f32>) {
    if !precision.is_half() {
        return out.extend_from_slice(src);
    }
    out.reserve(src.len());
    round_into(precision, src, &mut out.spare_capacity_mut()[..src.len()]);
    // SAFETY: `reserve` made room for `src.len()` more elements and
    // `round_into` initialised exactly those.
    unsafe { out.set_len(out.len() + src.len()) };
}

/// Raw-pointer wrapper asserting to the compiler that disjoint parts of
/// one buffer are written from different threads. Shared by the GEMM
/// engine's tile grid, the elementwise kernels' chunk grid and the
/// attention head fan-out.
pub(crate) struct SendPtr<T = f32>(pub *mut T);
// SAFETY: every parallel task derives a slice or reference over a range it
// exclusively owns (disjoint output tiles/chunks/heads), so aliased
// mutation cannot occur; `T: Send` because those tasks mutate the `T`s
// from other threads.
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

// Not derived: a derive would demand `T: Copy` for copying a pointer.
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// The wrapped pointer. A method taking `self` makes closures capture
    /// the whole `Send + Sync` wrapper; naming the `.0` field directly
    /// would capture only the raw pointer (edition-2021 disjoint capture),
    /// which is neither.
    #[inline(always)]
    pub(crate) fn get(self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_is_stable() {
        assert_eq!(tier(), tier());
    }

    #[test]
    fn exp_matches_libm() {
        let mut worst = 0.0f32;
        let mut x = -87.0f32;
        while x < 88.0 {
            let got = exp_approx(x);
            let want = x.exp();
            let rel = ((got - want) / want).abs();
            worst = worst.max(rel);
            x += 0.137;
        }
        assert!(worst < 1e-6, "worst relative error {worst}");
    }

    #[test]
    fn exp_edge_cases_are_exact() {
        assert_eq!(exp_approx(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp_approx(-1.0e4), 0.0);
        assert_eq!(exp_approx(0.0), 1.0);
        assert!(exp_approx(88.0).is_finite());
    }

    /// `exp_approx` as it was before inputs below `EXP_LO` were evaluated
    /// at `EXP_DISCARDED`, frozen for the bit-equality sweep below.
    fn exp_approx_clamped_at_exp_lo(x: f32) -> f32 {
        let xc = if x < EXP_LO { EXP_LO } else { x };
        let xc = if xc > EXP_HI { EXP_HI } else { xc };
        let z = xc * LOG2E + ROUND_MAGIC;
        let n = z - ROUND_MAGIC;
        let r = xc - n * LN2_HI - n * LN2_LO;
        let mut p = 1.987_569_1e-4f32;
        p = p * r + 1.398_199_9e-3;
        p = p * r + 8.333_452e-3;
        p = p * r + 4.166_579_6e-2;
        p = p * r + 1.666_666_5e-1;
        p = p * r + 0.5;
        p = p * r * r + r + 1.0;
        let scale = f32::from_bits((((n as i32) + 127) << 23) as u32);
        let y = p * scale;
        if x < EXP_LO {
            0.0
        } else {
            y
        }
    }

    #[test]
    fn exp_bits_unchanged_by_the_discarded_argument() {
        let ulps = |x: f32, d: i32| f32::from_bits((x.to_bits() as i32 + d) as u32);
        let mut inputs = vec![
            f32::NEG_INFINITY,
            f32::MIN,
            -1.0e4,
            -1.0e2,
            EXP_DISCARDED,
            -0.0,
            0.0,
            f32::MIN_POSITIVE,
            1.0,
            EXP_HI,
            1.0e4,
            f32::INFINITY,
        ];
        // Both sides of each clamp, ulp by ulp (for negative floats a
        // larger bit pattern is a smaller value).
        for edge in [EXP_LO, EXP_DISCARDED, EXP_HI] {
            inputs.extend((-8..=8).map(|d| ulps(edge, d)));
        }
        // And a dense sweep across the whole finite range of interest.
        let mut x = -120.0f32;
        while x < 100.0 {
            inputs.push(x);
            x += 0.003_7;
        }
        for x in inputs {
            assert_eq!(
                exp_approx(x).to_bits(),
                exp_approx_clamped_at_exp_lo(x).to_bits(),
                "exp_approx({x:e}) changed bits"
            );
        }
        assert!(exp_approx(f32::NAN).is_nan());
    }

    #[test]
    fn tanh_matches_libm() {
        let mut x = -12.0f32;
        while x < 12.0 {
            let got = tanh_approx(x);
            let want = x.tanh();
            assert!((got - want).abs() < 5e-7, "tanh({x}): {got} vs libm {want}");
            x += 0.0917;
        }
        assert_eq!(tanh_approx(50.0), 1.0);
        assert_eq!(tanh_approx(-50.0), -1.0);
    }

    #[test]
    fn hsum_and_hmax_fold_all_lanes() {
        let mut acc = [0.0f32; LANES];
        for (i, a) in acc.iter_mut().enumerate() {
            *a = (i + 1) as f32;
        }
        let n = LANES as f32;
        assert_eq!(hsum(acc), n * (n + 1.0) / 2.0);
        assert_eq!(hmax(acc), n);
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The dispatched convert kernels (whatever ISA tier this host
        // selects) must match a plain scalar loop over the reference
        // encoders bit-for-bit — including NaN payloads, infinities, and
        // subnormals, and including lengths that exercise both full vector
        // chunks and the scalar remainder.
        #[test]
        fn prop_cvt_bf16_matches_scalar(src in proptest::collection::vec(proptest::num::f32::ANY, 0..130)) {
            let mut simd = vec![0u16; src.len()];
            cvt_f32_to_bf16(&src, &mut simd);
            let scalar: Vec<u16> = src.iter().map(|v| crate::half::f32_to_bf16_bits(*v)).collect();
            prop_assert_eq!(&simd, &scalar);

            let mut back = vec![0.0f32; src.len()];
            cvt_bf16_to_f32(&simd, &mut back);
            for (b, h) in back.iter().zip(&scalar) {
                prop_assert_eq!(b.to_bits(), crate::half::bf16_bits_to_f32(*h).to_bits());
            }
        }

        #[test]
        fn prop_cvt_f16_matches_scalar(src in proptest::collection::vec(proptest::num::f32::ANY, 0..130)) {
            let mut simd = vec![0u16; src.len()];
            cvt_f32_to_f16(&src, &mut simd);
            let scalar: Vec<u16> = src.iter().map(|v| crate::half::f32_to_f16_bits(*v)).collect();
            prop_assert_eq!(&simd, &scalar);

            let mut back = vec![0.0f32; src.len()];
            cvt_f16_to_f32(&simd, &mut back);
            for (b, h) in back.iter().zip(&scalar) {
                prop_assert_eq!(b.to_bits(), crate::half::f16_bits_to_f32(*h).to_bits());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        // The fused round-copy, on whatever ISA tier this host selects, is
        // the pack → unpack oracle bit for bit: NaN payloads, infinities,
        // subnormals and signed zeros included, over lengths that exercise
        // full vector chunks and the scalar remainder, in both its
        // overwrite and its append form.
        #[test]
        fn prop_round_copy_matches_round_through(
            mut src in proptest::collection::vec(proptest::num::f32::ANY, 0..130),
            kept in 0usize..3,
        ) {
            // The classes uniform bits all but never draw, wherever the
            // length leaves room for them.
            let planted = [-0.0, 0.0, f32::INFINITY, f32::NEG_INFINITY, 1.0e-40, 65520.0, 6.0e-8];
            for (s, p) in src.iter_mut().rev().zip(planted) {
                *s = p;
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            for precision in [Precision::Bf16, Precision::F16, Precision::F32] {
                let mut want = src.clone();
                crate::half::PackedHalf::new(precision).round_through(&mut want);

                let mut copied = vec![f32::NAN; src.len()];
                round_copy(precision, &src, &mut copied);
                prop_assert_eq!(bits(&copied), bits(&want));

                // Appending leaves what the vector already held alone and,
                // with the room reserved, does not move it.
                let mut out = Vec::with_capacity(kept + src.len());
                out.resize(kept, 7.0f32);
                let at = out.as_ptr();
                round_extend(precision, &src, &mut out);
                prop_assert_eq!(out.as_ptr(), at);
                prop_assert_eq!(&out[..kept], &vec![7.0f32; kept][..]);
                prop_assert_eq!(bits(&out[kept..]), bits(&want));
            }
        }
    }

    /// One f32 of class `class % 6`, drawn from the random `bits` and
    /// `h`: any bits, or one of the classes a uniform draw all but never
    /// reaches — NaN payloads, signed zeros and f32 subnormals, the band
    /// around 2⁻²⁵ and 2⁻²⁴ (f16 subnormals included), exact ties between
    /// f16 neighbours (normal, subnormal, and 65520, the tie with +∞), and
    /// the overflow range up to ±∞.
    fn f16_edge(class: u32, bits: u32, h: u16) -> f32 {
        let sign = bits & 0x8000_0000;
        let within =
            |lo: u32, hi: u32| f32::from_bits(sign | (lo + (bits & 0x7fff_ffff) % (hi - lo)));
        match class % 6 {
            0 => f32::from_bits(bits),
            1 => f32::from_bits(sign | 0x7f80_0000 | (bits & 0x7f_ffff).max(1)),
            2 => f32::from_bits(bits & 0x807f_ffff),
            3 => within(0x3280_0000, 0x3900_0000),
            4 => {
                let h = h & 0x7bff; // finite, below the largest finite
                let a = crate::half::f16_bits_to_f32(h) as f64;
                let b = crate::half::f16_bits_to_f32(h + 1) as f64;
                // Exact: f32 has 13 more mantissa bits than f16.
                f32::from_bits(sign | (((a + b) / 2.0) as f32).to_bits())
            }
            _ => within(0x4770_0000, 0x7f80_0001),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        // The F16C round trip is the scalar encoder bit for bit, over
        // lengths that exercise the eight-wide body and the scalar tail.
        #[cfg(target_arch = "x86_64")]
        #[test]
        fn prop_f16c_round_matches_the_scalar_encoder(
            draws in proptest::collection::vec(
                (0u32..6, proptest::num::f32::ANY, proptest::num::u16::ANY),
                0..70,
            ),
        ) {
            let src: Vec<f32> = draws.iter().map(|(c, x, h)| f16_edge(*c, x.to_bits(), *h)).collect();
            if has_f16c() {
                let mut fast = vec![MaybeUninit::new(f32::NAN); src.len()];
                // SAFETY: `has_f16c` verified AVX2 and F16C.
                unsafe { k_round_f16_f16c(&src, &mut fast) };
                for (i, (s, f)) in src.iter().zip(&fast).enumerate() {
                    // SAFETY: the kernel initialised every element.
                    let f = unsafe { f.assume_init() };
                    let want = crate::half::round_through_f16(*s);
                    prop_assert_eq!(f.to_bits(), want.to_bits(), "element {} of {:e}", i, s);
                }
            }
        }
    }

    #[test]
    fn cvt_records_stats() {
        let before = crate::ops::stats::snapshot()[crate::ops::stats::CVT_F32_F16];
        let src = vec![1.5f32; 64];
        let mut dst = vec![0u16; 64];
        cvt_f32_to_f16(&src, &mut dst);
        let after = crate::ops::stats::snapshot()[crate::ops::stats::CVT_F32_F16];
        // Delta-based: other tests may run concurrently and also record.
        assert!(after.calls > before.calls);
        assert!(after.flops >= before.flops + 64);
    }
}
