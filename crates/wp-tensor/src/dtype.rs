//! Numeric storage formats used by the training stack.
//!
//! The paper's implementation (§4.3) stores activations, weights and weight
//! gradients in `fp16`, activation gradients in `bf16`, and optimizer states
//! in `fp32`. We have no half-precision arithmetic on the CPU, so compute is
//! always carried out in `f32` and the 16-bit formats exist as *storage*
//! formats: values are quantized on store and dequantized on load. The
//! encode/decode routines below implement IEEE 754 binary16 and bfloat16
//! with round-to-nearest-even, which matches what a GPU cast does.
//!
//! Two layers. The scalar functions ([`f32_to_f16_bits`] and friends) are
//! the *reference*: branchy, one case per paragraph of the standard. The
//! slice routines ([`pack_f16`], [`unpack_f16`], [`pack_bf16`],
//! [`unpack_bf16`], and [`quantize_slice`] on top of them) are what the wire
//! path and the optimizer's working-copy publish run: the same function of
//! every input bit pattern, NaNs included, written without branches so the
//! loop vectorises, and dispatched the way [`crate::ops::gemm`] is — the
//! platform picks (`vcvtps2ph`/`vcvtph2ps` where the CPU has F16C, an AVX2
//! build of the branch-free bf16 loop where it has AVX2, the baseline build
//! otherwise), and [`force_portable`](crate::ops::gemm::force_portable) pins
//! the baseline build for tests. A conversion is a pure per-element function
//! of the bits, so which instantiation ran can never show in a result; the
//! tests below hold every instantiation to the scalar reference on all 2³²
//! (pack) and 2¹⁶ (unpack) inputs. NaN payloads follow the hardware: the
//! top mantissa bits survive and the result is quiet.

#[cfg(target_arch = "x86_64")]
use crate::ops::gemm::{portable_forced, uses_avx2};

/// Storage precision of a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// IEEE 754 binary32.
    F32,
    /// IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits).
    F16,
    /// bfloat16 (1 sign, 8 exponent, 7 mantissa bits).
    BF16,
}

impl DType {
    /// Size of one element in bytes. This is the number the communication
    /// layer charges per element, so it must agree with what a real NCCL
    /// transfer of the same dtype would move.
    #[inline]
    pub const fn size_bytes(self) -> usize {
        match self {
            DType::F32 => 4,
            DType::F16 | DType::BF16 => 2,
        }
    }
}

impl std::fmt::Display for DType {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DType::F32 => write!(f, "fp32"),
            DType::F16 => write!(f, "fp16"),
            DType::BF16 => write!(f, "bf16"),
        }
    }
}

/// Encode an `f32` as IEEE 754 binary16 with round-to-nearest-even.
///
/// Overflow saturates to infinity, exactly like a CUDA `__float2half_rn`
/// followed by the hardware's overflow behaviour.
#[inline]
pub fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let mant = bits & 0x007f_ffff;

    if exp == 0xff {
        // Inf / NaN. A NaN keeps its top payload bits and comes out quiet,
        // which is what `vcvtps2ph` produces.
        let nan = if mant != 0 {
            0x0200 | (mant >> 13) as u16
        } else {
            0
        };
        return sign | 0x7c00 | nan;
    }
    // Re-bias from 127 to 15.
    let unbiased = exp - 127;
    if unbiased >= 16 {
        // Overflow -> infinity.
        return sign | 0x7c00;
    }
    if unbiased >= -14 {
        // Normal range. Keep the top 10 mantissa bits, round-to-nearest-even
        // on the 13 dropped bits.
        let half_exp = ((unbiased + 15) as u16) << 10;
        let half_mant = (mant >> 13) as u16;
        let round_bits = mant & 0x1fff;
        let mut out = sign | half_exp | half_mant;
        if round_bits > 0x1000 || (round_bits == 0x1000 && (half_mant & 1) == 1) {
            out = out.wrapping_add(1); // carries correctly into the exponent
        }
        return out;
    }
    if unbiased >= -25 {
        // Subnormal half. Add the implicit leading 1, then shift.
        let mant = mant | 0x0080_0000;
        let shift = (-14 - unbiased) as u32 + 13;
        let half_mant = (mant >> shift) as u16;
        let round_mask = (1u32 << shift) - 1;
        let round_bits = mant & round_mask;
        let halfway = 1u32 << (shift - 1);
        let mut out = sign | half_mant;
        if round_bits > halfway || (round_bits == halfway && (half_mant & 1) == 1) {
            out = out.wrapping_add(1);
        }
        return out;
    }
    // Underflows to signed zero.
    sign
}

/// Decode an IEEE 754 binary16 bit pattern into `f32`.
#[inline]
pub fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = ((h >> 10) & 0x1f) as u32;
    let mant = (h & 0x03ff) as u32;

    let bits = if exp == 0x1f {
        // Inf / NaN; a signalling NaN comes out quiet, as from `vcvtph2ps`.
        let quiet = if mant != 0 { 0x0040_0000 } else { 0 };
        sign | 0x7f80_0000 | quiet | (mant << 13)
    } else if exp == 0 {
        if mant == 0 {
            sign
        } else {
            // Subnormal half: value is mant × 2⁻²⁴, exactly representable
            // in f32, so build it with float arithmetic.
            let mag = mant as f32 * 2f32.powi(-24);
            return if sign != 0 { -mag } else { mag };
        }
    } else {
        sign | ((exp + 127 - 15) << 23) | (mant << 13)
    };
    f32::from_bits(bits)
}

/// Encode an `f32` as bfloat16 with round-to-nearest-even.
#[inline]
pub fn f32_to_bf16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    if x.is_nan() {
        // Quiet NaN, preserving sign.
        return ((bits >> 16) as u16) | 0x0040;
    }
    let round_bit = 0x0000_8000u32;
    let lower = bits & 0xffff;
    let mut upper = (bits >> 16) as u16;
    if lower > round_bit || (lower == round_bit && (upper & 1) == 1) {
        upper = upper.wrapping_add(1);
    }
    upper
}

/// Decode a bfloat16 bit pattern into `f32`.
#[inline]
pub fn bf16_bits_to_f32(h: u16) -> f32 {
    f32::from_bits((h as u32) << 16)
}

/// Round-trip a value through the given storage format.
///
/// This is the quantization a store-then-load performs; it is how mixed
/// precision is applied throughout the stack.
#[inline]
pub fn quantize(x: f32, dtype: DType) -> f32 {
    match dtype {
        DType::F32 => x,
        DType::F16 => f16_bits_to_f32(f32_to_f16_bits(x)),
        DType::BF16 => bf16_bits_to_f32(f32_to_bf16_bits(x)),
    }
}

type Pack = fn(&mut [u16], &[f32]);
type Unpack = fn(&mut [f32], &[u16]);

/// Elements [`quantize_slice`] converts per pack/unpack round: the packed
/// intermediate stays in L1.
const QUANT_BLOCK: usize = 1024;

/// In-place round-trip of a whole slice through the storage format:
/// [`pack_f16`] then [`unpack_f16`] (or the bf16 pair), a block at a time.
pub fn quantize_slice(xs: &mut [f32], dtype: DType) {
    let (pack, unpack): (Pack, Unpack) = match dtype {
        DType::F32 => return,
        DType::F16 => (pack_f16, unpack_f16),
        DType::BF16 => (pack_bf16, unpack_bf16),
    };
    let mut packed = [0u16; QUANT_BLOCK];
    for block in xs.chunks_mut(QUANT_BLOCK) {
        let packed = &mut packed[..block.len()];
        pack(packed, block);
        unpack(block, packed);
    }
}

/// True when the f16 slice conversions on this thread run the F16C
/// instructions.
pub fn uses_f16c() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        !portable_forced() && std::arch::is_x86_feature_detected!("f16c")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// `dst[i] = f32_to_f16_bits(src[i])` for every `i`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn pack_f16(dst: &mut [u16], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "pack_f16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if uses_f16c() {
        // SAFETY: F16C was detected on this CPU.
        return unsafe { pack_f16_f16c(dst, src) };
    }
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = f16_pack_lane(x);
    }
}

/// `dst[i] = f16_bits_to_f32(src[i])` for every `i`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn unpack_f16(dst: &mut [f32], src: &[u16]) {
    assert_eq!(dst.len(), src.len(), "unpack_f16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if uses_f16c() {
        // SAFETY: F16C was detected on this CPU.
        return unsafe { unpack_f16_f16c(dst, src) };
    }
    for (d, &h) in dst.iter_mut().zip(src) {
        *d = f16_unpack_lane(h);
    }
}

/// `dst[i] = f32_to_bf16_bits(src[i])` for every `i`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn pack_bf16(dst: &mut [u16], src: &[f32]) {
    assert_eq!(dst.len(), src.len(), "pack_bf16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if uses_avx2() {
        // SAFETY: AVX2 was detected on this CPU.
        return unsafe { pack_bf16_avx2(dst, src) };
    }
    pack_bf16_lanes(dst, src);
}

/// `dst[i] = bf16_bits_to_f32(src[i])` for every `i`.
///
/// # Panics
/// Panics if the slices differ in length.
pub fn unpack_bf16(dst: &mut [f32], src: &[u16]) {
    assert_eq!(dst.len(), src.len(), "unpack_bf16: length mismatch");
    #[cfg(target_arch = "x86_64")]
    if uses_avx2() {
        // SAFETY: AVX2 was detected on this CPU.
        return unsafe { unpack_bf16_avx2(dst, src) };
    }
    unpack_bf16_lanes(dst, src);
}

/// [`f32_to_f16_bits`] without branches: all three magnitude classes are
/// computed and one is selected, so a loop over it becomes compares and
/// blends.
#[inline(always)]
fn f16_pack_lane(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = bits & 0x8000_0000;
    // Sign-free, so the class tests below are signed compares.
    let abs = (bits ^ sign) as i32;
    // Half normal: re-bias the exponent from 127 to 15 and round the 13
    // dropped bits to nearest even in one add, `0xfff` plus the kept
    // mantissa's low bit; the carry runs into the exponent, and out of the
    // top one into infinity.
    let odd = (abs >> 13) & 1;
    let normal = (abs - (112 << 23) + 0xfff + odd) >> 13;
    // Half subnormal or zero: adding 0.5 leaves the value in units of 2⁻²⁴
    // (a subnormal half's mantissa) in the sum's low bits, rounded to
    // nearest even by the adder.
    const HALF: i32 = 126 << 23;
    let sum = f32::from_bits(abs as u32) + f32::from_bits(HALF as u32);
    let subnormal = (sum.to_bits() as i32).wrapping_sub(HALF);
    // Infinity, or a quiet NaN that keeps its top payload bits.
    let special = if abs > 0x7f80_0000 {
        0x7e00 | ((abs >> 13) & 0x03ff)
    } else {
        0x7c00
    };
    let magnitude = if abs >= (143 << 23) {
        special
    } else if abs < (113 << 23) {
        subnormal
    } else {
        normal
    };
    (sign >> 16) as u16 | magnitude as u16
}

/// [`f16_bits_to_f32`] without branches.
#[inline(always)]
fn f16_unpack_lane(h: u16) -> f32 {
    let h = h as u32;
    // Exponent and mantissa moved to their f32 positions, exponent re-biased.
    let em = (h & 0x7fff) << 13;
    let rebiased = em + (112 << 23);
    let exp = em & (0x1f << 23);
    let magnitude = if exp == (0x1f << 23) {
        // Infinity or NaN: exponent 31 becomes 255, a NaN becomes quiet.
        let quiet = if em & 0x007f_ffff != 0 {
            0x0040_0000
        } else {
            0
        };
        (rebiased + (112 << 23)) | quiet
    } else if exp == 0 {
        // Subnormal or zero: read the mantissa against an implicit one at
        // 2⁻¹⁴, then take the one away — exact, and never denormal in f32.
        (f32::from_bits(rebiased + (1 << 23)) - f32::from_bits(113 << 23)).to_bits()
    } else {
        rebiased
    };
    f32::from_bits(((h & 0x8000) << 16) | magnitude)
}

/// [`f32_to_bf16_bits`] without branches: round to nearest even is one add
/// of `0x7fff` plus the kept half's low bit.
#[inline(always)]
fn bf16_pack_lane(x: f32) -> u16 {
    let bits = x.to_bits();
    let rounded = bits.wrapping_add(0x7fff + ((bits >> 16) & 1));
    let out = if bits & 0x7fff_ffff > 0x7f80_0000 {
        bits | 0x0040_0000
    } else {
        rounded
    };
    (out >> 16) as u16
}

#[inline(always)]
fn pack_bf16_lanes(dst: &mut [u16], src: &[f32]) {
    for (d, &x) in dst.iter_mut().zip(src) {
        *d = bf16_pack_lane(x);
    }
}

#[inline(always)]
fn unpack_bf16_lanes(dst: &mut [f32], src: &[u16]) {
    for (d, &h) in dst.iter_mut().zip(src) {
        *d = bf16_bits_to_f32(h);
    }
}

/// The AVX2 instantiation of the bf16 pack loop (the generic body compiled
/// with 256-bit vectors, as `gemm_avx2` is).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn pack_bf16_avx2(dst: &mut [u16], src: &[f32]) {
    pack_bf16_lanes(dst, src);
}

/// The AVX2 instantiation of the bf16 unpack loop.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn unpack_bf16_avx2(dst: &mut [f32], src: &[u16]) {
    unpack_bf16_lanes(dst, src);
}

/// [`pack_f16`] on `vcvtps2ph`, eight lanes at a time; the ragged tail goes
/// through the scalar reference, which the hardware equals on every input.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn pack_f16_f16c(dst: &mut [u16], src: &[f32]) {
    use std::arch::x86_64::{
        _mm256_cvtps_ph, _mm256_loadu_ps, _mm_storeu_si128, _MM_FROUND_TO_NEAREST_INT,
    };
    let mut dst = dst.chunks_exact_mut(8);
    let mut src = src.chunks_exact(8);
    for (d, s) in (&mut dst).zip(&mut src) {
        // SAFETY: `s` is eight readable floats and `d` eight writable
        // halves; neither access needs alignment.
        unsafe {
            let halves = _mm256_cvtps_ph::<_MM_FROUND_TO_NEAREST_INT>(_mm256_loadu_ps(s.as_ptr()));
            _mm_storeu_si128(d.as_mut_ptr().cast(), halves);
        }
    }
    for (d, &x) in dst.into_remainder().iter_mut().zip(src.remainder()) {
        *d = f32_to_f16_bits(x);
    }
}

/// [`unpack_f16`] on `vcvtph2ps`, eight lanes at a time.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "f16c")]
unsafe fn unpack_f16_f16c(dst: &mut [f32], src: &[u16]) {
    use std::arch::x86_64::{_mm256_cvtph_ps, _mm256_storeu_ps, _mm_loadu_si128};
    let mut dst = dst.chunks_exact_mut(8);
    let mut src = src.chunks_exact(8);
    for (d, s) in (&mut dst).zip(&mut src) {
        // SAFETY: `s` is eight readable halves and `d` eight writable
        // floats; neither access needs alignment.
        unsafe {
            let floats = _mm256_cvtph_ps(_mm_loadu_si128(s.as_ptr().cast()));
            _mm256_storeu_ps(d.as_mut_ptr(), floats);
        }
    }
    for (d, &h) in dst.into_remainder().iter_mut().zip(src.remainder()) {
        *d = f16_bits_to_f32(h);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::{force_portable, uses_avx2};

    #[test]
    fn f16_exact_small_integers() {
        for i in -2048..=2048 {
            let x = i as f32;
            assert_eq!(
                quantize(x, DType::F16),
                x,
                "f16 must be exact for |x| <= 2048"
            );
        }
    }

    #[test]
    fn f16_known_bit_patterns() {
        assert_eq!(f32_to_f16_bits(0.0), 0x0000);
        assert_eq!(f32_to_f16_bits(-0.0), 0x8000);
        assert_eq!(f32_to_f16_bits(1.0), 0x3c00);
        assert_eq!(f32_to_f16_bits(-2.0), 0xc000);
        assert_eq!(f32_to_f16_bits(65504.0), 0x7bff);
        assert_eq!(f32_to_f16_bits(f32::INFINITY), 0x7c00);
        assert_eq!(
            f32_to_f16_bits(65536.0),
            0x7c00,
            "overflow saturates to inf"
        );
        assert_eq!(f32_to_f16_bits(5.9604645e-8), 0x0001, "smallest subnormal");
    }

    #[test]
    fn f16_round_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between 1.0 and the next half;
        // round-to-even keeps 1.0.
        let halfway = 1.0 + 2f32.powi(-11);
        assert_eq!(quantize(halfway, DType::F16), 1.0);
        // Slightly above halfway rounds up.
        let above = 1.0 + 2f32.powi(-11) + 2f32.powi(-20);
        assert_eq!(quantize(above, DType::F16), 1.0 + 2f32.powi(-10));
    }

    #[test]
    fn f16_decode_subnormals() {
        assert_eq!(f16_bits_to_f32(0x0001), 2f32.powi(-24));
        assert_eq!(f16_bits_to_f32(0x03ff), 2f32.powi(-24) * 1023.0);
        assert_eq!(f16_bits_to_f32(0x0400), 2f32.powi(-14));
    }

    #[test]
    fn bf16_known_patterns() {
        assert_eq!(f32_to_bf16_bits(1.0), 0x3f80);
        assert_eq!(f32_to_bf16_bits(-1.0), 0xbf80);
        assert_eq!(bf16_bits_to_f32(0x3f80), 1.0);
        // bf16 has f32's exponent range so 1e38 survives.
        let big = quantize(1e38, DType::BF16);
        assert!(big.is_finite() && (big - 1e38).abs() / 1e38 < 0.01);
    }

    #[test]
    fn bf16_nan_preserved() {
        assert!(bf16_bits_to_f32(f32_to_bf16_bits(f32::NAN)).is_nan());
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
    }

    #[test]
    fn quantize_is_idempotent() {
        let mut vals = vec![0.1f32, -3.7, 1e-5, 123.456, -65000.0, 1e-9];
        for &dt in &[DType::F16, DType::BF16] {
            for &v in &vals {
                let once = quantize(v, dt);
                let twice = quantize(once, dt);
                assert_eq!(
                    once.to_bits(),
                    twice.to_bits(),
                    "{dt} quantize not idempotent for {v}"
                );
            }
        }
        quantize_slice(&mut vals, DType::F16);
        let snapshot = vals.clone();
        quantize_slice(&mut vals, DType::F16);
        assert_eq!(vals, snapshot);
    }

    #[test]
    fn relative_error_bounds() {
        // f16 has 11 significand bits -> rel err <= 2^-11; bf16 has 8 -> 2^-8.
        let xs: Vec<f32> = (1..1000).map(|i| i as f32 * 0.37 + 0.011).collect();
        for &x in &xs {
            let e16 = (quantize(x, DType::F16) - x).abs() / x;
            let eb16 = (quantize(x, DType::BF16) - x).abs() / x;
            assert!(e16 <= 2f32.powi(-11), "f16 err {e16} at {x}");
            assert!(eb16 <= 2f32.powi(-8), "bf16 err {eb16} at {x}");
        }
    }

    /// Each 16-bit format's slice routines beside its scalar reference.
    type Format = (DType, Pack, fn(f32) -> u16, Unpack, fn(u16) -> f32);
    const FORMATS: [Format; 2] = [
        (
            DType::F16,
            pack_f16,
            f32_to_f16_bits,
            unpack_f16,
            f16_bits_to_f32,
        ),
        (
            DType::BF16,
            pack_bf16,
            f32_to_bf16_bits,
            unpack_bf16,
            bf16_bits_to_f32,
        ),
    ];

    /// Run `check` on the instantiation the platform picks and again on the
    /// portable one (the same code twice on a host with neither F16C nor
    /// AVX2).
    fn on_every_instantiation(check: impl Fn(&str)) {
        check("platform");
        force_portable(|| {
            assert!(!uses_f16c() && !uses_avx2());
            check("portable")
        });
    }

    /// Pack `bits` with every format and compare with the scalar reference.
    fn assert_pack_matches_reference(bits: &[u32], what: &str) {
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        let mut got = vec![0u16; xs.len()];
        for (dtype, pack, reference, ..) in FORMATS {
            pack(&mut got, &xs);
            for (&b, (&g, &x)) in bits.iter().zip(got.iter().zip(&xs)) {
                assert_eq!(g, reference(x), "{what} {dtype} pack of {b:#010x}");
            }
        }
    }

    /// Mantissas on and around every rounding decision either format makes:
    /// the ends, the kept field's low bit, and the dropped field at, one
    /// below and one above its halfway point with the kept bit even and odd
    /// (13 dropped bits for f16, 16 for bf16).
    const EDGE_MANTISSAS: [u32; 30] = [
        0, 1, 2, 0x0fff, 0x1000, 0x1001, 0x1fff, 0x2000, 0x2fff, 0x3000, 0x3001, 0x7fff, 0x8000,
        0x8001, 0xffff, 0x1_0000, 0x1_7fff, 0x1_8000, 0x1_8001, 0x3f_ffff, 0x40_0000, 0x40_0001,
        0x7f_7fff, 0x7f_8000, 0x7f_e000, 0x7f_efff, 0x7f_f000, 0x7f_f001, 0x7f_fffe, 0x7f_ffff,
    ];

    /// Every exponent (zero, subnormals, both formats' range ends, infinity
    /// and NaN among them) × [`EDGE_MANTISSAS`] × both signs, then every
    /// value halfway between two adjacent subnormal halves and its two
    /// neighbours.
    fn edge_inputs() -> Vec<u32> {
        let mut bits = Vec::new();
        for exp in 0..=0xffu32 {
            for mant in EDGE_MANTISSAS {
                for sign in [0, 0x8000_0000] {
                    bits.push(sign | (exp << 23) | mant);
                }
            }
        }
        for h in 0..1024 {
            let halfway = ((h as f32 + 0.5) * 2f32.powi(-24)).to_bits();
            bits.extend([halfway - 1, halfway, halfway + 1]);
        }
        bits
    }

    #[test]
    fn slice_pack_matches_scalar_reference_on_edges_and_a_strided_sweep() {
        let edges = edge_inputs();
        let sweep: Vec<u32> = (0..=u32::MAX).step_by(4099).collect();
        on_every_instantiation(|which| {
            assert_pack_matches_reference(&edges, which);
            assert_pack_matches_reference(&sweep, which);
            // Ragged lengths around the eight-lane vector body, starting at
            // every offset so each edge lands in body and tail alike.
            for len in 0..=17 {
                for window in edges.windows(len.max(1)).step_by(7).take(200) {
                    assert_pack_matches_reference(&window[..len], which);
                }
            }
        });
    }

    #[test]
    #[ignore = "all 2^32 inputs, twice per format: about two minutes in release"]
    fn slice_pack_matches_scalar_reference_on_every_f32() {
        on_every_instantiation(|which| {
            for block in 0..1u32 << 12 {
                let bits: Vec<u32> = (0..1u32 << 20).map(|i| (block << 20) | i).collect();
                assert_pack_matches_reference(&bits, which);
            }
        });
    }

    #[test]
    fn slice_unpack_matches_scalar_reference_on_every_pattern() {
        let all: Vec<u16> = (0..=u16::MAX).collect();
        on_every_instantiation(|which| {
            for (dtype, _, _, unpack, reference) in FORMATS {
                // Whole, and ragged around the eight-lane body.
                for src in (0..=17).map(|n| &all[0x7bf8..0x7bf8 + n]).chain([&all[..]]) {
                    let mut got = vec![0.0f32; src.len()];
                    unpack(&mut got, src);
                    for (&h, g) in src.iter().zip(&got) {
                        assert_eq!(
                            g.to_bits(),
                            reference(h).to_bits(),
                            "{which} {dtype} unpack of {h:#06x}"
                        );
                    }
                }
            }
        });
    }

    #[test]
    fn quantize_slice_is_pack_then_unpack() {
        // Longer than one QUANT_BLOCK, and not a multiple of it.
        let bits: Vec<u32> = edge_inputs()
            .into_iter()
            .take(2 * QUANT_BLOCK + 5)
            .collect();
        let xs: Vec<f32> = bits.iter().map(|&b| f32::from_bits(b)).collect();
        on_every_instantiation(|which| {
            for (dtype, pack, _, unpack, _) in FORMATS {
                let mut packed = vec![0u16; xs.len()];
                pack(&mut packed, &xs);
                let mut want = vec![0.0f32; xs.len()];
                unpack(&mut want, &packed);
                let mut got = xs.clone();
                quantize_slice(&mut got, dtype);
                for ((g, w), &x) in got.iter().zip(&want).zip(&xs) {
                    assert_eq!(g.to_bits(), w.to_bits(), "{which} {dtype} of {x:e}");
                    if !x.is_nan() {
                        assert_eq!(g.to_bits(), quantize(x, dtype).to_bits());
                    }
                }
            }
        });
        let mut same = xs.clone();
        quantize_slice(&mut same, DType::F32);
        assert!(same
            .iter()
            .zip(&xs)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn nan_payloads_follow_the_hardware() {
        // Top payload bits survive, the result is quiet, the sign stays.
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x7f80_0001)), 0x7e00);
        assert_eq!(f32_to_f16_bits(f32::from_bits(0xffc0_2000)), 0xfe01);
        assert_eq!(f32_to_f16_bits(f32::from_bits(0x7fa0_0000)), 0x7f00);
        assert_eq!(f16_bits_to_f32(0x7c01).to_bits(), 0x7fc0_2000);
        assert_eq!(f16_bits_to_f32(0xfe00).to_bits(), 0xffc0_0000);
    }

    #[test]
    fn dtype_sizes() {
        assert_eq!(DType::F32.size_bytes(), 4);
        assert_eq!(DType::F16.size_bytes(), 2);
        assert_eq!(DType::BF16.size_bytes(), 2);
    }
}
