//! Software half-precision storage formats: IEEE 754 binary16 (fp16) and
//! bfloat16, plus the packed buffers the mixed-precision runtime streams.
//!
//! The paper's baselines lean on half precision — L2L keeps optimizer state
//! in fp16 on-device, ZeRO keeps fp16 parameter/gradient shards — and the
//! related-work discussion covers low-precision model states (§II, §VII).
//! This module provides dependency-free binary16 and bfloat16 with
//! round-to-nearest-even conversion and [`PackedHalf`], the flat packed
//! transfer payload. The offload runtime itself streams through the fused
//! [`crate::simd::round_copy`] (same value grid, no packed buffer in
//! between) while FP32 master weights stay CPU-side.

/// Storage precision of streamed (device-resident) parameters and
/// gradients. FP32 master weights and Adam moments always stay full
/// precision CPU-side; this selects the on-the-wire / on-device format.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Precision {
    /// Full f32 residency and transfers (the bit-identical reference mode).
    #[default]
    F32,
    /// bfloat16: f32's 8-bit exponent with an 8-bit mantissa — same dynamic
    /// range, coarser grid. The default half mode for training.
    Bf16,
    /// IEEE binary16: 5-bit exponent, 11-bit mantissa — finer grid, narrow
    /// range (overflows above 65504).
    F16,
}

impl Precision {
    /// Bytes per streamed parameter/gradient element.
    pub const fn param_bytes(self) -> u64 {
        match self {
            Precision::F32 => 4,
            Precision::Bf16 | Precision::F16 => 2,
        }
    }

    /// Whether this mode stores streamed data in 16 bits.
    pub const fn is_half(self) -> bool {
        !matches!(self, Precision::F32)
    }

    /// Stable lowercase name (bench rows, checkpoint diagnostics).
    pub const fn name(self) -> &'static str {
        match self {
            Precision::F32 => "f32",
            Precision::Bf16 => "bf16",
            Precision::F16 => "f16",
        }
    }

    /// Stable one-byte encoding for the SHTS checkpoint header.
    pub const fn tag(self) -> u8 {
        match self {
            Precision::F32 => 0,
            Precision::Bf16 => 1,
            Precision::F16 => 2,
        }
    }

    /// Decodes [`Precision::tag`]; `None` for unknown tags.
    pub const fn from_tag(tag: u8) -> Option<Precision> {
        match tag {
            0 => Some(Precision::F32),
            1 => Some(Precision::Bf16),
            2 => Some(Precision::F16),
            _ => None,
        }
    }
}

/// Encodes an `f32` as IEEE binary16 bits (round-to-nearest-even, IEEE
/// overflow to infinity, subnormal support).
#[inline(always)]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xFF) as i32;
    let mant = bits & 0x7F_FFFF;

    if exp == 0xFF {
        // Inf / NaN.
        return if mant == 0 {
            sign | 0x7C00
        } else {
            sign | 0x7E00 // quiet NaN
        };
    }
    // Unbiased exponent.
    let e = exp - 127;
    if e > 15 {
        return sign | 0x7C00; // overflow -> inf
    }
    if e >= -14 {
        // Normal half.
        let half_exp = (e + 15) as u16;
        let half_mant = (mant >> 13) as u16;
        let mut h = sign | (half_exp << 10) | half_mant;
        // Round to nearest even on the truncated 13 bits.
        let rem = mant & 0x1FFF;
        if rem > 0x1000 || (rem == 0x1000 && (half_mant & 1) == 1) {
            h = h.wrapping_add(1); // may carry into exponent: IEEE-correct
        }
        return h;
    }
    if e >= -24 {
        // Subnormal half.
        let full_mant = mant | 0x80_0000; // implicit leading 1
        let shift = (-14 - e + 13) as u32; // bits dropped
        let half_mant = (full_mant >> shift) as u16;
        let rem = full_mant & ((1 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let mut h = sign | half_mant;
        if rem > halfway || (rem == halfway && (half_mant & 1) == 1) {
            h = h.wrapping_add(1);
        }
        return h;
    }
    sign // underflow to signed zero
}

/// Decodes IEEE binary16 bits to `f32`.
#[inline(always)]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1F) as u32;
    let mant = (h & 0x3FF) as u32;
    let bits = match (exp, mant) {
        (0, 0) => sign,
        (0, m) => {
            // Subnormal: value = m × 2⁻²⁴ = 0.m × 2⁻¹⁴; normalize.
            let mut e = -14i32;
            let mut m = m;
            while m & 0x400 == 0 {
                m <<= 1;
                e -= 1;
            }
            m &= 0x3FF;
            sign | (((e + 127) as u32) << 23) | (m << 13)
        }
        (0x1F, 0) => sign | 0x7F80_0000,
        (0x1F, m) => sign | 0x7F80_0000 | (m << 13),
        (e, m) => sign | ((e + 127 - 15) << 23) | (m << 13),
    };
    f32::from_bits(bits)
}

/// Rounds an `f32` through fp16 (the rounding a half-precision store/load
/// pair applies).
#[inline(always)]
pub fn round_through_f16(x: f32) -> f32 {
    f16_bits_to_f32(f32_to_f16_bits(x))
}

/// Encodes an `f32` as bfloat16 bits: round-to-nearest-even truncation of
/// the low 16 mantissa bits. Infinities and signed zeros pass through
/// exactly; NaNs are quieted with a non-zero payload so they never collapse
/// to an infinity encoding.
#[inline(always)]
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if bits & 0x7FFF_FFFF > 0x7F80_0000 {
        // NaN: keep the sign, force the quiet bit.
        return ((bits >> 16) as u16) | 0x0040;
    }
    // Round to nearest even: add half of the dropped range, plus one more
    // when the kept lsb is odd so exact ties round to the even neighbour.
    (bits.wrapping_add(0x7FFF + ((bits >> 16) & 1)) >> 16) as u16
}

/// Decodes bfloat16 bits to `f32` (exact: bf16 values are a subset of f32).
#[inline(always)]
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Rounds an `f32` through bfloat16 (the rounding a bf16 store/load pair
/// applies).
#[inline(always)]
pub fn round_through_bf16(x: f32) -> f32 {
    bf16_bits_to_f32(f32_to_bf16_bits(x))
}

/// A flat packed half-precision buffer: the transfer payload of the
/// mixed-precision offload runtime, materialised.
///
/// Packing FP32 values into one of these gives the bytes that would cross
/// the link (`nbytes() == 2 · len`), and unpacking gives the
/// round-through-half grid device-resident values live on. The runtime's
/// step path accounts those bytes without building the buffer — it rounds
/// in one pass with [`crate::simd::round_copy`] — so this type is the
/// oracle that pass is tested against ([`PackedHalf::round_through`]) and
/// what the benchmark's pack / unpack probes time. Packing and unpacking
/// run through the multiversioned SIMD convert kernels
/// ([`crate::simd::cvt_f32_to_bf16`] and friends), which are bit-identical
/// across ISA tiers.
#[derive(Clone, Debug)]
pub struct PackedHalf {
    precision: Precision,
    bits: Vec<u16>,
}

impl PackedHalf {
    /// An empty packed buffer for `precision`. Allocation happens lazily on
    /// the first [`PackedHalf::pack_from`] and is reused afterwards, so a
    /// steady-state pack/unpack cycle allocates nothing.
    pub fn new(precision: Precision) -> Self {
        PackedHalf {
            precision,
            bits: Vec::new(),
        }
    }

    /// The storage format of this buffer.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Packs `src` into half-precision bits (resizing to `src.len()`).
    ///
    /// # Panics
    /// Panics if the buffer's precision is [`Precision::F32`] — full
    /// precision has no packed form.
    pub fn pack_from(&mut self, src: &[f32]) {
        self.bits.resize(src.len(), 0);
        match self.precision {
            Precision::Bf16 => crate::simd::cvt_f32_to_bf16(src, &mut self.bits),
            Precision::F16 => crate::simd::cvt_f32_to_f16(src, &mut self.bits),
            Precision::F32 => panic!("PackedHalf cannot pack at F32 precision"),
        }
    }

    /// Unpacks into `dst`, which must have exactly `len()` elements.
    pub fn unpack_into(&self, dst: &mut [f32]) {
        assert_eq!(dst.len(), self.bits.len(), "unpack length mismatch");
        match self.precision {
            Precision::Bf16 => crate::simd::cvt_bf16_to_f32(&self.bits, dst),
            Precision::F16 => crate::simd::cvt_f16_to_f32(&self.bits, dst),
            Precision::F32 => unreachable!("pack_from rejects F32"),
        }
    }

    /// Rounds `buf` in place through this buffer's half format (pack then
    /// unpack) — the exact value grid a store/load pair over the link
    /// applies. No-op at F32 precision.
    pub fn round_through(&mut self, buf: &mut [f32]) {
        if !self.precision.is_half() {
            return;
        }
        self.pack_from(buf);
        self.unpack_into(buf);
    }

    /// Packed element count.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Packed payload size in bytes (2 per element) — what crosses the link.
    pub fn nbytes(&self) -> u64 {
        self.bits.len() as u64 * 2
    }

    /// The raw packed bits.
    pub fn bits(&self) -> &[u16] {
        &self.bits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::{normal, seeded_rng};
    use proptest::prelude::*;

    #[test]
    fn exact_values_round_trip() {
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, 65504.0, -65504.0, 0.25] {
            assert_eq!(round_through_f16(v), v, "{v}");
        }
    }

    #[test]
    fn signed_zero_preserved() {
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
    }

    #[test]
    fn known_encodings() {
        assert_eq!(f32_to_f16_bits(1.0), 0x3C00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7BFF); // max finite half
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7C00);
        assert_eq!(f32_to_f16_bits(1e9), 0x7C00, "overflow to inf");
        assert_eq!(f32_to_f16_bits(5.960_464_5e-8), 0x0001, "min subnormal");
    }

    #[test]
    fn nan_stays_nan() {
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn rounding_is_nearest_even() {
        // 1 + 2^-11 is exactly halfway between two halves around 1.0;
        // nearest-even keeps 1.0.
        let halfway = 1.0 + 2.0_f32.powi(-11);
        assert_eq!(round_through_f16(halfway), 1.0);
        // Just above halfway rounds up to 1 + 2^-10.
        let above = 1.0 + 2.0_f32.powi(-11) + 2.0_f32.powi(-13);
        assert_eq!(round_through_f16(above), 1.0 + 2.0_f32.powi(-10));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_round_trip_error_bounded(x in -60000.0f32..60000.0) {
            let y = round_through_f16(x);
            // Max relative error of binary16 in the normal range is 2^-11;
            // near zero values flush toward the subnormal grid.
            prop_assert!((x - y).abs() <= x.abs() / 2048.0 + 6e-8, "{x} -> {y}");
        }

        #[test]
        fn prop_idempotent(x in proptest::num::f32::NORMAL) {
            let once = round_through_f16(x);
            let twice = round_through_f16(once);
            prop_assert!(once.to_bits() == twice.to_bits() || (once.is_infinite() && twice.is_infinite()));
        }

        #[test]
        fn prop_monotone(a in -60000.0f32..60000.0, b in -60000.0f32..60000.0) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(round_through_f16(lo) <= round_through_f16(hi));
        }
    }

    // ---- bf16 ----

    #[test]
    fn bf16_exact_values_round_trip() {
        // Every f32 whose low 16 mantissa bits are zero is exactly
        // representable in bf16 — including the full f32 exponent range.
        let huge = f32::from_bits(0x7F00_0000); // ≈ 1.7e38
        let tiny = f32::from_bits(0x0080_0000); // min normal, ≈ 1.18e-38
        for v in [0.0f32, -0.0, 1.0, -1.0, 0.5, 2.0, huge, -huge, tiny, 0.25] {
            assert_eq!(round_through_bf16(v).to_bits(), v.to_bits(), "{v}");
        }
    }

    #[test]
    fn bf16_known_encodings() {
        assert_eq!(f32_to_bf16_bits(1.0), 0x3F80);
        assert_eq!(f32_to_bf16_bits(-2.0), 0xC000);
        assert_eq!(f32_to_bf16_bits(0.0), 0x0000);
        assert_eq!(f32_to_bf16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_bf16_bits(f32::INFINITY), 0x7F80);
        assert_eq!(f32_to_bf16_bits(f32::NEG_INFINITY), 0xFF80);
    }

    #[test]
    fn bf16_nan_inf_subnormal() {
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        // A NaN payload that would truncate to an all-zero mantissa must not
        // become Inf: the quiet bit is forced.
        let sneaky = f32::from_bits(0x7F80_0001);
        assert!(sneaky.is_nan());
        let h = f32_to_bf16_bits(sneaky);
        assert!(bf16_bits_to_f32(h).is_nan());
        // f32 subnormals survive as bf16 subnormals (shared exponent range).
        let sub = f32::from_bits(0x0001_0000); // smallest with zero low bits
        assert_eq!(round_through_bf16(sub).to_bits(), sub.to_bits());
    }

    #[test]
    fn bf16_rounding_is_nearest_even() {
        // 1 + 2^-8 is exactly halfway between 1.0 and the next bf16 up
        // (1 + 2^-7); nearest-even keeps 1.0.
        let halfway = 1.0 + 2.0_f32.powi(-8);
        assert_eq!(round_through_bf16(halfway), 1.0);
        // The next halfway point above (between 1+2^-7 and 1+2^-6) has an
        // odd low mantissa bit, so nearest-even rounds UP.
        let halfway_odd = 1.0 + 2.0_f32.powi(-7) + 2.0_f32.powi(-8);
        assert_eq!(round_through_bf16(halfway_odd), 1.0 + 2.0_f32.powi(-6));
        // Just above halfway rounds up.
        let above = 1.0 + 2.0_f32.powi(-8) + 2.0_f32.powi(-12);
        assert_eq!(round_through_bf16(above), 1.0 + 2.0_f32.powi(-7));
    }

    #[test]
    fn precision_tags_round_trip() {
        for p in [Precision::F32, Precision::Bf16, Precision::F16] {
            assert_eq!(Precision::from_tag(p.tag()), Some(p));
        }
        assert_eq!(Precision::from_tag(3), None);
        assert_eq!(Precision::F32.param_bytes(), 4);
        assert_eq!(Precision::Bf16.param_bytes(), 2);
        assert_eq!(Precision::F16.param_bytes(), 2);
        assert!(!Precision::F32.is_half());
        assert!(Precision::Bf16.is_half());
    }

    #[test]
    fn packed_half_pack_unpack() {
        let t = normal([8, 16], 1.0, &mut seeded_rng(17));
        let src = t.data();
        for prec in [Precision::Bf16, Precision::F16] {
            let mut pack = PackedHalf::new(prec);
            pack.pack_from(src);
            assert_eq!(pack.len(), src.len());
            assert_eq!(pack.nbytes(), src.len() as u64 * 2);
            let mut out = vec![0.0f32; src.len()];
            pack.unpack_into(&mut out);
            let round: fn(f32) -> f32 = match prec {
                Precision::Bf16 => round_through_bf16,
                Precision::F16 => round_through_f16,
                Precision::F32 => unreachable!(),
            };
            for (s, o) in src.iter().zip(&out) {
                assert_eq!(o.to_bits(), round(*s).to_bits());
            }
        }
    }

    #[test]
    fn packed_half_round_through_idempotent() {
        let t = normal([4, 33], 1.0, &mut seeded_rng(3));
        let mut buf = t.data().to_vec();
        let mut pack = PackedHalf::new(Precision::Bf16);
        pack.round_through(&mut buf);
        let once = buf.clone();
        pack.round_through(&mut buf);
        assert_eq!(
            once.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            buf.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        // F32 round_through is a no-op.
        let mut f32buf = t.data().to_vec();
        PackedHalf::new(Precision::F32).round_through(&mut f32buf);
        assert_eq!(f32buf, t.data());
    }

    #[test]
    #[should_panic(expected = "F32")]
    fn packed_half_rejects_f32_pack() {
        PackedHalf::new(Precision::F32).pack_from(&[1.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_bf16_round_trip_error_bounded(x in -1.0e38f32..1.0e38) {
            let y = round_through_bf16(x);
            // Max relative error of bf16 in the normal range is 2^-9.
            prop_assert!((x - y).abs() <= x.abs() / 256.0, "{x} -> {y}");
        }

        #[test]
        fn prop_bf16_idempotent(x in proptest::num::f32::ANY) {
            let once = round_through_bf16(x);
            let twice = round_through_bf16(once);
            if once.is_nan() {
                prop_assert!(twice.is_nan());
            } else {
                prop_assert_eq!(once.to_bits(), twice.to_bits());
            }
        }

        #[test]
        fn prop_bf16_representable_exact(bits in proptest::num::u16::ANY) {
            // Any f32 built from bf16 bits round-trips exactly (or stays NaN).
            let x = bf16_bits_to_f32(bits);
            if x.is_nan() {
                prop_assert!(bf16_bits_to_f32(f32_to_bf16_bits(x)).is_nan());
            } else {
                prop_assert_eq!(round_through_bf16(x).to_bits(), x.to_bits());
            }
        }

        #[test]
        fn prop_f16_representable_exact(bits in proptest::num::u16::ANY) {
            // Any value decoded from f16 bits round-trips exactly.
            let x = f16_bits_to_f32(bits);
            if x.is_nan() {
                prop_assert!(f16_bits_to_f32(f32_to_f16_bits(x)).is_nan());
            } else {
                prop_assert_eq!(round_through_f16(x).to_bits(), x.to_bits());
            }
        }

        #[test]
        fn prop_bf16_monotone(a in -1.0e38f32..1.0e38, b in -1.0e38f32..1.0e38) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(round_through_bf16(lo) <= round_through_bf16(hi));
        }
    }
}
