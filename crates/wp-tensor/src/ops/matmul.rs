//! The three matrix-multiply layouts of a linear layer.
//!
//! For `Y = X·Wᵀ` the forward pass is [`matmul_nt`], the data-gradient pass
//! `dX = dY·W` is [`matmul_nn`], and the weight-gradient pass `dW = dYᵀ·X`
//! is [`matmul_tn`]. All three are stride choices over the one kernel in
//! [`super::gemm`], so no transposed copy is ever materialised and there is
//! one summation order in the whole stack (see that module's docs).
//!
//! All kernels *accumulate* into `c` (`C += A·B`), which is what backward
//! passes want (gradient accumulation across microbatches) and makes the
//! zero-initialised forward case a trivial caller-side `fill(0.0)`.
//!
//! Parallelism: rows of `C` are independent, so a large product is split
//! into one band of whole `A` blocks per pool thread through
//! [`par_row_bands`] like every other kernel; the kernel's bits do not
//! depend on where a band starts.

use super::gemm::{gemm, MatRef};
use super::par::{par_row_bands, RawMut, PAR_MIN_WORK};

/// Fewest rows in a parallel band: a multiple of the kernel's `MR`, and
/// tall enough that packing `B` is a small part of the band's arithmetic.
const MIN_BAND_ROWS: usize = 64;

/// Accumulator lanes of [`dot`]. Eight f32 lanes fill one AVX2 register and
/// give the compiler a reduction it can keep entirely in SIMD.
const DOT_LANES: usize = 8;

/// Dot product of two equal-length rows with a **fixed** 8-lane
/// accumulation order.
///
/// A plain `acc += x * y` loop cannot be vectorised by the compiler (float
/// addition is not reassociative). Splitting the accumulation into eight
/// independent lanes that are reduced in a fixed tree at the end is still a
/// deterministic order (the same on every run and every thread count), just
/// one the compiler can map onto SIMD lanes.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len());
    let mut acc = [0.0f32; DOT_LANES];
    let a8 = a.chunks_exact(DOT_LANES);
    let b8 = b.chunks_exact(DOT_LANES);
    let (ra, rb) = (a8.remainder(), b8.remainder());
    for (ca, cb) in a8.zip(b8) {
        for l in 0..DOT_LANES {
            acc[l] += ca[l] * cb[l];
        }
    }
    let mut tail = 0.0f32;
    for (x, y) in ra.iter().zip(rb) {
        tail += x * y;
    }
    let lo = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    let hi = (acc[4] + acc[5]) + (acc[6] + acc[7]);
    (lo + hi) + tail
}

/// `C[m,n] += A·B` for contiguous row-major `c`, split over the pool by
/// row bands when the product is big enough to pay for the dispatch.
fn matmul(c: &mut [f32], a: MatRef, b: MatRef, m: usize, k: usize, n: usize) {
    assert_eq!(c.len(), m * n, "C length");
    let cp = RawMut(c.as_mut_ptr());
    let band = |r0: usize, r1: usize| {
        // SAFETY: rows `r0..r1 <= m` of `c`, which no other band touches.
        unsafe { gemm(cp.ptr().add(r0 * n), n, a.rows_from(r0), b, r1 - r0, n, k) }
    };
    if m * n * k < PAR_MIN_WORK {
        return band(0, m);
    }
    // One band per pool thread: every band packs all of `B` for itself, so
    // more bands than threads would only multiply that cost.
    let rows = m
        .div_ceil(rayon::current_num_threads())
        .next_multiple_of(MIN_BAND_ROWS);
    par_row_bands(m.div_ceil(rows), |b0, b1| {
        band(b0 * rows, (b1 * rows).min(m))
    });
}

/// `C[m,n] += A[m,k] · B[k,n]` (both operands row-major, untransposed).
///
/// # Panics
/// Panics if slice lengths disagree with the dimensions.
pub fn matmul_nn(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), k * n, "B length");
    let (a, b) = (MatRef::row_major(a, k), MatRef::row_major(b, n));
    matmul(c, a, b, m, k, n);
}

/// `C[m,n] += A[m,k] · B[n,k]ᵀ` — `B` is stored row-major as `[n, k]`.
///
/// This is the forward shape for `Y = X·Wᵀ` with PyTorch-style `W: [out, in]`.
pub fn matmul_nt(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "A length");
    assert_eq!(b.len(), n * k, "B length");
    let (a, b) = (MatRef::row_major(a, k), MatRef::transposed(b, k));
    matmul(c, a, b, m, k, n);
}

/// `C[m,n] += A[k,m]ᵀ · B[k,n]` — `A` is stored row-major as `[k, m]`.
///
/// This is the weight-gradient shape `dW = dYᵀ·X` (with `dY: [k, m]`,
/// `X: [k, n]`): exactly the *W pass* of zero-bubble schedules.
pub fn matmul_tn(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), k * m, "A length");
    assert_eq!(b.len(), k * n, "B length");
    let (a, b) = (MatRef::transposed(a, m), MatRef::row_major(b, n));
    matmul(c, a, b, m, k, n);
}

/// Reference (naive triple-loop) multiply, used by tests and benches as the
/// ground truth: `C[m,n] += A[m,k]·B[k,n]`.
pub fn matmul_naive(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    for i in 0..m {
        for j in 0..n {
            let mut acc = 0.0f32;
            for kk in 0..k {
                acc += a[i * k + kk] * b[kk * n + j];
            }
            c[i * n + j] += acc;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::gemm::{force_isa, force_portable, isa, Isa, KC, MR};
    use super::*;
    use crate::tensor::Tensor;

    /// Single rows and columns, one short of and one past a register tile,
    /// one short of the widest `NR` (32), and several bands.
    pub(crate) const SIZES: [usize; 6] = [1, MR - 1, MR + 1, 31, 33, 131];
    /// Inner depths on both sides of one and two `KC` blocks.
    pub(crate) const DEPTHS: [usize; 5] = [1, 31, KC, KC + 1, 2 * KC + 3];

    /// A strided operand as `(data, row stride, column stride)`.
    pub(crate) type View<'a> = (&'a [f32], usize, usize);

    /// `C += A·B` exactly as the kernel defines it, one element at a time:
    /// per `KC` block an ascending-`k` chain of fused multiply-adds from
    /// zero, then one add into `C`.
    pub(crate) fn blocked_ref(
        c: &mut [f32],
        ldc: usize,
        a: View,
        b: View,
        m: usize,
        n: usize,
        k: usize,
    ) {
        let ((a, ars, acs), (b, brs, bcs)) = (a, b);
        for i in 0..m {
            for j in 0..n {
                for p0 in (0..k).step_by(KC) {
                    let mut acc = 0.0f32;
                    for p in p0..(p0 + KC).min(k) {
                        acc = a[i * ars + p * acs].mul_add(b[p * brs + j * bcs], acc);
                    }
                    c[i * ldc + j] += acc;
                }
            }
        }
    }

    pub(crate) fn rand(n: usize, seed: u64) -> Vec<f32> {
        Tensor::randn([n], 1.0, seed).into_vec()
    }

    pub(crate) type Layout = (
        &'static str,
        fn(&mut [f32], &[f32], &[f32], usize, usize, usize),
        fn(usize, usize) -> (usize, usize),
        fn(usize, usize) -> (usize, usize),
    );

    /// Each layout's entry point and the `(rs, cs)` of its `A` (given
    /// `m, k`) and `B` (given `k, n`) over the flat slices it is handed.
    pub(crate) const LAYOUTS: [Layout; 3] = [
        ("nn", matmul_nn, |_, k| (k, 1), |_, n| (n, 1)),
        ("nt", matmul_nt, |_, k| (k, 1), |k, _| (1, k)),
        ("tn", matmul_tn, |m, _| (1, m), |_, n| (n, 1)),
    ];

    #[test]
    fn every_layout_matches_the_blocked_reference_bit_for_bit() {
        // Ragged in every dimension (SIZES, DEPTHS). C starts non-zero so
        // the accumulate is part of what is compared.
        for (name, run, a_strides, b_strides) in LAYOUTS {
            for m in SIZES {
                for n in SIZES {
                    for k in DEPTHS {
                        let (a, b) = (rand(m * k, 1), rand(k * n, 2));
                        let c0 = rand(m * n, 3);
                        let (ars, acs) = a_strides(m, k);
                        let (brs, bcs) = b_strides(k, n);
                        let mut want = c0.clone();
                        blocked_ref(&mut want, n, (&a, ars, acs), (&b, brs, bcs), m, n, k);
                        let mut pooled = c0.clone();
                        run(&mut pooled, &a, &b, m, k, n);
                        let mut serial = c0.clone();
                        rayon::force_sequential(|| run(&mut serial, &a, &b, m, k, n));
                        assert!(pooled == want, "{name} ({m},{k},{n}) on the pool");
                        assert!(serial == want, "{name} ({m},{k},{n}) sequential");
                    }
                }
            }
        }
    }

    /// Operands and an output with padded leading dimensions, so a kernel
    /// that assumed contiguity would read or write the padding.
    fn padded_case(m: usize, n: usize, k: usize) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        (
            rand(m * (k + 3), 4),
            rand(k * (n + 5), 5),
            rand(m * (n + 7), 6),
        )
    }

    #[test]
    fn gemm_honours_leading_dimensions() {
        for m in SIZES {
            for n in SIZES {
                for k in [31, KC + 1] {
                    let (a, b, c0) = padded_case(m, n, k);
                    let (lda, ldb, ldc) = (k + 3, n + 5, n + 7);
                    let mut want = c0.clone();
                    blocked_ref(&mut want, ldc, (&a, lda, 1), (&b, ldb, 1), m, n, k);
                    let mut got = c0.clone();
                    let (av, bv) = (MatRef::row_major(&a, lda), MatRef::row_major(&b, ldb));
                    // SAFETY: `got` holds `m` rows of `ldc >= n` floats.
                    unsafe { gemm(got.as_mut_ptr(), ldc, av, bv, m, n, k) };
                    assert!(got == want, "({m},{k},{n}): padding columns included");
                }
            }
        }
    }

    #[test]
    fn every_instantiation_agrees_bit_for_bit() {
        for fast in [Isa::Avx2Fma, Isa::Avx512Fma] {
            if force_isa(fast, isa) != fast {
                eprintln!("skipped {fast:?}: not on this host");
                continue;
            }
            for (name, run, ..) in LAYOUTS {
                for (m, n, k) in [(1, 1, 1), (MR + 1, 33, KC + 1), (131, 131, 2 * KC + 3)] {
                    let (a, b) = (rand(m * k, 7), rand(k * n, 8));
                    let mut wide = rand(m * n, 9);
                    let mut narrow = wide.clone();
                    rayon::force_sequential(|| {
                        force_isa(fast, || run(&mut wide, &a, &b, m, k, n));
                        force_portable(|| {
                            assert_eq!(isa(), Isa::Portable);
                            run(&mut narrow, &a, &b, m, k, n)
                        });
                    });
                    assert!(wide == narrow, "{fast:?} {name} ({m},{k},{n})");
                }
            }
        }
    }

    #[test]
    fn zero_times_infinity_is_nan_in_every_layout() {
        // A zero in A must not short-circuit a non-finite B: dX and dW must
        // see what Y sees. The second input holds the kernel to the fused
        // definition: one rounding keeps the 2⁻²⁴ that rounding the product
        // first loses, so an unfused instantiation gives 0.
        let (x, y) = (1.0 + 2f32.powi(-11), 1.0 + 2f32.powi(-12));
        let inputs = [
            ([0.0, 0.0], [f32::INFINITY, 0.0], f32::NAN),
            ([x, y], [-1.0, y], 2f32.powi(-24)),
        ];
        for (name, run, ..) in LAYOUTS {
            for (a, b, want) in inputs {
                let mut c = [0.0f32];
                run(&mut c, &a, &b, 1, 2, 1);
                let ok = c[0] == want || c[0].is_nan() && want.is_nan();
                assert!(ok, "{name}: {a:?}·{b:?} gave {}, want {want}", c[0]);
            }
        }
    }

    #[test]
    fn accumulates_rather_than_overwrites() {
        let a = vec![1.0, 0.0, 0.0, 1.0]; // identity
        let b = vec![5.0, 6.0, 7.0, 8.0];
        let mut c = vec![100.0; 4];
        matmul_nn(&mut c, &a, &b, 2, 2, 2);
        assert_eq!(c, vec![105.0, 106.0, 107.0, 108.0]);
    }

    #[test]
    fn dot_matches_scalar_reference() {
        for &n in &[0usize, 1, 7, 8, 9, 64, 250, 1024] {
            let a = Tensor::randn([n.max(1)], 1.0, 40).into_vec();
            let b = Tensor::randn([n.max(1)], 1.0, 41).into_vec();
            let (a, b) = (&a[..n], &b[..n]);
            let want: f32 = a.iter().zip(b).map(|(x, y)| x * y).sum();
            let got = dot(a, b);
            assert!(
                (got - want).abs() < 1e-3 * (1.0 + want.abs()),
                "n={n}: {got} vs {want}"
            );
            // Deterministic: same inputs, same bits, every time.
            assert_eq!(got.to_bits(), dot(a, b).to_bits());
        }
    }
}
