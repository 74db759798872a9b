//! The SwiGLU gate of Llama's FFN, and the polynomial `exp` it shares with
//! streaming attention.
//!
//! The slice kernels split their (order-independent, per-index) work into
//! contiguous spans across the pool; each span computes exactly what the
//! sequential loop would, so results are bit-identical either way. Each
//! span's loop runs through [`with_isa`], so it vectorises at the width
//! `gemm` runs at; its multiplies and adds are rounded separately, so every
//! instantiation computes the same bits.

use super::gemm::with_isa;
use super::par::{par_row_bands, RawMut};

/// Run `f(span_start, out_span)` over disjoint contiguous spans of `out`,
/// in parallel when the buffer is large enough to pay for dispatch.
fn par_spans(out: &mut [f32], f: impl Fn(usize, &mut [f32]) + Sync) {
    let n = out.len();
    let op = RawMut(out.as_mut_ptr());
    par_row_bands(n, n, move |s, e| {
        f(s, unsafe { op.slice(s, e - s) });
    });
}

/// `e^x` without libm: a branch-free degree-6 polynomial after Cody–Waite
/// reduction (the Cephes `expf` coefficients), which the compiler
/// vectorises. Exact at 0, within 2e-7 relative of the true value on
/// `[-87, 0]` and for the small positive arguments attention's backward
/// recompute can produce, `0` below −87, NaN for NaN. Multiplies and adds
/// are rounded separately, so every vector width yields the same bits.
#[inline(always)]
pub fn exp_poly(x: f32) -> f32 {
    const LO: f32 = -87.0;
    // 1.5·2²³: adding it leaves round-to-nearest(t) in the low mantissa bits.
    const MAGIC: f32 = 12_582_912.0;
    // ln 2 split so that `n · LN2_HI` is exact: nine significant bits.
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    // `NaN < LO` is false, so NaN survives the clamp.
    let xc = if x < LO { LO } else { x };
    let t = xc * std::f32::consts::LOG2_E + MAGIC;
    let n = t - MAGIC;
    let r = (xc - n * LN2_HI) - n * LN2_LO;
    let mut p = 1.987_569_1e-4_f32;
    p = p * r + 1.398_199_9e-3;
    p = p * r + 8.333_452e-3;
    p = p * r + 4.166_579_6e-2;
    p = p * r + 0.166_666_66;
    p = p * r + 0.5;
    let e = p * (r * r) + r + 1.0;
    // 2ⁿ built in the exponent field: n ≥ −126 after the clamp.
    let two_n = f32::from_bits(t.to_bits().wrapping_add(127) << 23);
    if x < LO {
        0.0
    } else {
        e * two_n
    }
}

/// Logistic sigmoid, without a branch: `e = e^−|x|` cannot overflow, and
/// `r = 1 / (1 + e)` is the result for `x ≥ 0`, `e · r` for negative `x`.
/// The sign picks `1` or `e` as a bit mask rather than a select, which
/// keeps the loops that call this straight-line code with one divide per
/// element. `0` below −87, where the true value is under 1.7e-38.
#[inline(always)]
pub fn sigmoid(x: f32) -> f32 {
    let e = exp_poly(-x.abs());
    // All ones when the sign bit is set.
    let neg = ((x.to_bits() as i32) >> 31) as u32;
    let scale = f32::from_bits((e.to_bits() & neg) | (1.0f32.to_bits() & !neg));
    scale * (1.0 / (1.0 + e))
}

/// SiLU (a.k.a. swish): `x * sigmoid(x)`. The activation in Llama's FFN.
#[inline(always)]
pub fn silu(x: f32) -> f32 {
    x * sigmoid(x)
}

/// Derivative of SiLU with respect to its input.
#[inline(always)]
pub fn silu_grad(x: f32) -> f32 {
    let s = sigmoid(x);
    s * (1.0 + x * (1.0 - s))
}

/// SwiGLU gating: `out = silu(gate) * up`, the elementwise half of Llama's
/// FFN between the two input projections and the down projection.
pub fn swiglu_forward(out: &mut [f32], gate: &[f32], up: &[f32]) {
    assert_eq!(out.len(), gate.len());
    assert_eq!(out.len(), up.len());
    par_spans(out, |s, o| {
        let span = s..s + o.len();
        let (gate, up) = (&gate[span.clone()], &up[span]);
        with_isa(
            #[inline(always)]
            || {
                for ((o, &g), &u) in o.iter_mut().zip(gate).zip(up) {
                    *o = silu(g) * u;
                }
            },
        );
    });
}

/// Backward of [`swiglu_forward`] over the forward's own buffers: `gate`
/// and `up` come in holding the activations and leave holding their
/// gradients, so no gradient buffer sits beside them. Each gradient is
/// `0 + x`, the add kept because it turns a `-0` into `+0`: the bits of
/// accumulating into zeroed buffers, as the backward once did (the tests
/// keep that form as their oracle).
pub fn swiglu_backward_in_place(gate: &mut [f32], up: &mut [f32], dy: &[f32]) {
    let n = dy.len();
    assert_eq!(gate.len(), n);
    assert_eq!(up.len(), n);
    let upp = RawMut(up.as_mut_ptr());
    par_spans(gate, move |s, gs| {
        // SAFETY: the span of `up` matching this span of `gate`, which no
        // other span touches.
        let us = unsafe { upp.slice(s, gs.len()) };
        let dy = &dy[s..s + gs.len()];
        with_isa(
            #[inline(always)]
            || {
                for ((g, u), &d) in gs.iter_mut().zip(us.iter_mut()).zip(dy) {
                    let (gv, uv) = (*g, *u);
                    *g = 0.0 + d * uv * silu_grad(gv);
                    *u = 0.0 + d * silu(gv);
                }
            },
        );
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::gemm::{force_isa, offered_isas, Isa};
    use crate::ops::par::force_sequential;

    fn numeric_grad(f: impl Fn(f32) -> f32, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn exp_poly_is_exact_at_zero_and_tight_on_the_softmax_range() {
        assert_eq!(exp_poly(0.0), 1.0);
        let steps = 2_000_000;
        for i in 0..=steps {
            let x = -87.0 * (i as f32 / steps as f32);
            let (got, want) = (exp_poly(x) as f64, (x as f64).exp());
            assert!(((got - want) / want).abs() <= 2e-7, "exp({x}) = {got}");
        }
        for x in [-87.000_01, -100.0, -1e30, f32::NEG_INFINITY] {
            let y = exp_poly(x);
            assert!(y.is_finite() && y >= 0.0, "exp({x}) = {y}");
        }
        assert!(exp_poly(f32::NAN).is_nan());
    }

    #[test]
    fn sigmoid_is_tight_against_f64_everywhere() {
        let exact = |x: f32| 1.0 / (1.0 + (-(x as f64)).exp());
        let steps = 2_000_000;
        let mut worst = 0.0f64;
        for i in 0..=steps {
            let x = -87.0 + 174.0 * (i as f32 / steps as f32);
            let (got, want) = (sigmoid(x) as f64, exact(x));
            worst = worst.max(((got - want) / want).abs());
        }
        assert!(
            worst <= 2.5e-7,
            "worst relative error {worst:e} on [-87, 87]"
        );
        // Past −87 the result is 0, under 1.7e-38 from the truth; past 87
        // it is 1, the nearest f32.
        for x in [-87.1, -100.0, -1e30, f32::NEG_INFINITY] {
            let (got, want) = (sigmoid(x) as f64, exact(x));
            assert!(got == 0.0 && want < 1.7e-38, "sigmoid({x}) = {got}");
        }
        for x in [87.1, 100.0, 1e30, f32::INFINITY] {
            assert_eq!(sigmoid(x), 1.0, "sigmoid({x})");
        }
        assert_eq!(sigmoid(0.0), 0.5);
        assert_eq!(sigmoid(-0.0), 0.5);
        assert!(sigmoid(f32::NAN).is_nan());
    }

    #[test]
    fn silu_grad_matches_numeric() {
        for &x in &[-3.0f32, -1.0, -0.1, 0.0, 0.5, 2.0, 4.0] {
            let g = silu_grad(x);
            let num = numeric_grad(silu, x);
            assert!((g - num).abs() < 1e-3, "silu'({x}): {g} vs {num}");
        }
    }

    /// The accumulating backward the in-place one replaced, verbatim: the
    /// oracle for its bits.
    fn swiglu_backward(dgate: &mut [f32], dup: &mut [f32], dy: &[f32], gate: &[f32], up: &[f32]) {
        let n = dy.len();
        assert_eq!(dgate.len(), n);
        assert_eq!(dup.len(), n);
        assert_eq!(gate.len(), n);
        assert_eq!(up.len(), n);
        let dupp = RawMut(dup.as_mut_ptr());
        par_spans(dgate, move |s, dg| {
            let span = s..s + dg.len();
            // SAFETY: the span of `dup` matching this span of `dgate`, which no
            // other span touches.
            let du = unsafe { dupp.slice(s, dg.len()) };
            let (dy, gate, up) = (&dy[span.clone()], &gate[span.clone()], &up[span]);
            with_isa(
                #[inline(always)]
                || {
                    let grads = dg.iter_mut().zip(du.iter_mut());
                    for ((dg, du), ((&d, &g), &u)) in grads.zip(dy.iter().zip(gate).zip(up)) {
                        *dg += d * u * silu_grad(g);
                        *du += d * silu(g);
                    }
                },
            );
        });
    }

    #[test]
    fn swiglu_backward_matches_numeric() {
        let gate = [0.3f32, -1.2, 2.0];
        let up = [1.5f32, 0.7, -0.4];
        let dy = [1.0f32, 1.0, 1.0];
        let (mut dgate, mut dup) = (gate, up);
        swiglu_backward_in_place(&mut dgate, &mut dup, &dy);
        for i in 0..3 {
            let u = up[i];
            let ng = numeric_grad(|g| silu(g) * u, gate[i]);
            assert!((dgate[i] - ng).abs() < 1e-3, "dgate[{i}]");
            let g = gate[i];
            let nu = numeric_grad(|uu| silu(g) * uu, up[i]);
            assert!((dup[i] - nu).abs() < 1e-3, "dup[{i}]");
        }
    }

    /// `[out, dgate, dup]` of one forward and one in-place backward.
    fn swiglu_fwd_bwd(gate: &[f32], up: &[f32], dy: &[f32]) -> [Vec<f32>; 3] {
        let mut out = vec![0.0; gate.len()];
        swiglu_forward(&mut out, gate, up);
        let (mut dgate, mut dup) = (gate.to_vec(), up.to_vec());
        swiglu_backward_in_place(&mut dgate, &mut dup, dy);
        [out, dgate, dup]
    }

    /// Equal bits, or NaN on both sides (a NaN's payload may depend on
    /// which operand the compiler put first).
    fn same(a: &[f32], b: &[f32]) -> bool {
        let bits = |x: &f32| if x.is_nan() { u32::MAX } else { x.to_bits() };
        a.iter().map(bits).eq(b.iter().map(bits))
    }

    #[test]
    fn every_instantiation_agrees_on_swiglu_bit_for_bit() {
        const EDGES: [f32; 9] = [
            0.0,
            86.9,
            87.1,
            1e30,
            f32::INFINITY,
            f32::NAN,
            f32::MIN_POSITIVE / 3.0,
            f32::MIN_POSITIVE,
            1e-45,
        ];
        // Every edge with both signs, then a spread of ordinary values.
        let values = |n: usize, seed: usize| -> Vec<f32> {
            (0..n)
                .map(|i| match (i + seed) % 32 {
                    e if e < 2 * EDGES.len() => EDGES[e / 2] * if e % 2 == 0 { 1.0 } else { -1.0 },
                    _ => ((i * 7919 + seed * 104_729) % 20_011) as f32 / 1000.0 - 10.0,
                })
                .collect()
        };
        let offered: Vec<Isa> = offered_isas().filter(|&w| w != Isa::Portable).collect();
        for n in [1, 15, 16, 17, 33, 1024 * 344] {
            let (gate, up, dy) = (values(n, 0), values(n, 5), values(n, 11));
            let fwd_bwd = || swiglu_fwd_bwd(&gate, &up, &dy);
            // Sequential, so the whole kernel runs on the thread the scope pins.
            let pinned = |cap| force_sequential(|| force_isa(cap, fwd_bwd));
            let portable = pinned(Isa::Portable);
            let builds = offered
                .iter()
                .map(|&fast| (format!("{fast:?}"), pinned(fast)));
            for (build, got) in builds.chain([("pooled".into(), fwd_bwd())]) {
                let outputs = got.iter().zip(&portable);
                for (name, (a, b)) in ["out", "dgate", "dup"].iter().zip(outputs) {
                    assert!(same(a, b), "n={n}: {name} differs, {build} vs portable");
                }
            }
            // In place is the oracle accumulating into zeroed buffers.
            let (mut dgate, mut dup) = (vec![0.0; n], vec![0.0; n]);
            swiglu_backward(&mut dgate, &mut dup, &dy, &gate, &up);
            assert!(same(&dgate, &portable[1]), "n={n}: dgate vs the oracle");
            assert!(same(&dup, &portable[2]), "n={n}: dup vs the oracle");
        }
    }
}
