//! RMSNorm (the normalisation used by Llama-family models) forward and
//! backward kernels.
//!
//! For a row `x` of width `H` with learned gain `g`:
//! `y_i = g_i * x_i / rms(x)`, `rms(x) = sqrt(mean(x²) + eps)`.
//!
//! Rows are independent, so the forward pass and the `dx` half of the
//! backward pass are split across the pool in row bands with unchanged
//! per-row arithmetic (bit-identical to sequential). The `dgain` half
//! accumulates **across** rows and stays a single serial pass in the
//! original row order.

use super::par::{par_row_bands, RawMut};

/// Forward RMSNorm over each row of an `[rows, h]` matrix.
///
/// Writes normalised output to `out` and, if provided, saves the reciprocal
/// RMS per row into `inv_rms` (length `rows`) for the backward pass.
#[allow(clippy::needless_range_loop)]
pub fn rmsnorm_forward(
    out: &mut [f32],
    inv_rms: Option<&mut [f32]>,
    x: &[f32],
    gain: &[f32],
    rows: usize,
    h: usize,
    eps: f32,
) {
    assert_eq!(out.len(), rows * h);
    assert_eq!(x.len(), rows * h);
    assert_eq!(gain.len(), h);
    if let Some(ref ir) = inv_rms {
        assert_eq!(ir.len(), rows);
    }
    let one_row = |or: &mut [f32], r: usize| -> f32 {
        let xr = &x[r * h..(r + 1) * h];
        let ms = xr.iter().map(|&v| (v as f64) * (v as f64)).sum::<f64>() / h as f64;
        let inv = 1.0 / (ms + eps as f64).sqrt() as f32;
        for i in 0..h {
            or[i] = gain[i] * xr[i] * inv;
        }
        inv
    };
    let op = RawMut(out.as_mut_ptr());
    let ip = inv_rms.map(|ir| RawMut(ir.as_mut_ptr()));
    par_row_bands(rows, out.len(), move |r0, r1| {
        for r in r0..r1 {
            let or = unsafe { op.slice(r * h, h) };
            let inv = one_row(or, r);
            if let Some(ref ip) = ip {
                let slot = unsafe { ip.slice(r, 1) };
                slot[0] = inv;
            }
        }
    });
}

/// Backward RMSNorm.
///
/// Accumulates `dx += ∂L/∂x` and `dgain += ∂L/∂g` given the upstream `dy`,
/// the saved input `x` and the per-row `inv_rms` from the forward pass.
///
/// Derivation: with `r = inv_rms`, `y_i = g_i x_i r`, and
/// `∂r/∂x_j = -r³ x_j / H`, so
/// `dx_j = r·g_j·dy_j − (r³ x_j / H)·Σ_i dy_i g_i x_i`.
#[allow(clippy::too_many_arguments, clippy::needless_range_loop)]
pub fn rmsnorm_backward(
    dx: &mut [f32],
    dgain: &mut [f32],
    dy: &[f32],
    x: &[f32],
    gain: &[f32],
    inv_rms: &[f32],
    rows: usize,
    h: usize,
) {
    assert_eq!(dx.len(), rows * h);
    assert_eq!(dgain.len(), h);
    assert_eq!(dy.len(), rows * h);
    assert_eq!(x.len(), rows * h);
    assert_eq!(gain.len(), h);
    assert_eq!(inv_rms.len(), rows);
    // dx: rows are independent — parallel bands, same per-row order.
    let dx_row = |dxr: &mut [f32], r: usize| {
        let o = r * h;
        let xr = &x[o..o + h];
        let dyr = &dy[o..o + h];
        let inv = inv_rms[r];
        let mut dot = 0.0f64;
        for i in 0..h {
            dot += (dyr[i] * gain[i] * xr[i]) as f64;
        }
        let coef = inv as f64 * inv as f64 * inv as f64 * dot / h as f64;
        for i in 0..h {
            dxr[i] += inv * gain[i] * dyr[i] - (coef as f32) * xr[i];
        }
    };
    let dxp = RawMut(dx.as_mut_ptr());
    par_row_bands(rows, dx.len(), move |r0, r1| {
        for r in r0..r1 {
            dx_row(unsafe { dxp.slice(r * h, h) }, r);
        }
    });
    // dgain accumulates across rows: keep it a serial pass in the original
    // row order so results stay bit-identical whatever the pool width.
    for r in 0..rows {
        let o = r * h;
        let xr = &x[o..o + h];
        let dyr = &dy[o..o + h];
        let inv = inv_rms[r];
        for i in 0..h {
            dgain[i] += dyr[i] * xr[i] * inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;

    const EPS: f32 = 1e-5;

    #[test]
    fn unit_gain_normalises_rms_to_one() {
        let rows = 3;
        let h = 16;
        let x = Tensor::randn([rows * h], 2.0, 11).into_vec();
        let gain = vec![1.0; h];
        let mut out = vec![0.0; rows * h];
        rmsnorm_forward(&mut out, None, &x, &gain, rows, h, EPS);
        for row in out.chunks(h) {
            let ms: f32 = row.iter().map(|v| v * v).sum::<f32>() / h as f32;
            assert!((ms - 1.0).abs() < 1e-3, "row rms² {ms}");
        }
    }

    #[test]
    fn gain_scales_output() {
        let h = 4;
        let x = vec![1.0f32, 1.0, 1.0, 1.0];
        let gain = vec![2.0f32, 0.5, -1.0, 0.0];
        let mut out = vec![0.0; h];
        rmsnorm_forward(&mut out, None, &x, &gain, 1, h, 0.0);
        assert!((out[0] - 2.0).abs() < 1e-6);
        assert!((out[1] - 0.5).abs() < 1e-6);
        assert!((out[2] + 1.0).abs() < 1e-6);
        assert_eq!(out[3], 0.0);
    }

    #[test]
    fn backward_matches_numeric() {
        let rows = 2;
        let h = 8;
        let x = Tensor::randn([rows * h], 1.0, 21).into_vec();
        let gain = Tensor::rand_uniform([h], 0.5, 1.5, 22).into_vec();
        let dy = Tensor::randn([rows * h], 1.0, 23).into_vec();

        let loss = |x: &[f32], gain: &[f32]| -> f32 {
            let mut out = vec![0.0; rows * h];
            rmsnorm_forward(&mut out, None, x, gain, rows, h, EPS);
            out.iter().zip(&dy).map(|(a, b)| a * b).sum()
        };

        let mut inv_rms = vec![0.0; rows];
        let mut out = vec![0.0; rows * h];
        rmsnorm_forward(&mut out, Some(&mut inv_rms), &x, &gain, rows, h, EPS);
        let mut dx = vec![0.0; rows * h];
        let mut dgain = vec![0.0; h];
        rmsnorm_backward(&mut dx, &mut dgain, &dy, &x, &gain, &inv_rms, rows, h);

        let hstep = 1e-3;
        for i in 0..rows * h {
            let mut xp = x.clone();
            xp[i] += hstep;
            let mut xm = x.clone();
            xm[i] -= hstep;
            let num = (loss(&xp, &gain) - loss(&xm, &gain)) / (2.0 * hstep);
            assert!((dx[i] - num).abs() < 2e-2, "dx[{i}] {} vs {num}", dx[i]);
        }
        for i in 0..h {
            let mut gp = gain.clone();
            gp[i] += hstep;
            let mut gm = gain.clone();
            gm[i] -= hstep;
            let num = (loss(&x, &gp) - loss(&x, &gm)) / (2.0 * hstep);
            assert!(
                (dgain[i] - num).abs() < 2e-2,
                "dgain[{i}] {} vs {num}",
                dgain[i]
            );
        }
    }

    #[test]
    fn backward_accumulates() {
        let h = 4;
        let x = vec![1.0f32, 2.0, -1.0, 0.5];
        let gain = vec![1.0f32; h];
        let dy = vec![1.0f32; h];
        let mut inv_rms = vec![0.0];
        let mut out = vec![0.0; h];
        rmsnorm_forward(&mut out, Some(&mut inv_rms), &x, &gain, 1, h, EPS);
        let mut dx1 = vec![0.0; h];
        let mut dg1 = vec![0.0; h];
        rmsnorm_backward(&mut dx1, &mut dg1, &dy, &x, &gain, &inv_rms, 1, h);
        let mut dx2 = dx1.clone();
        let mut dg2 = dg1.clone();
        rmsnorm_backward(&mut dx2, &mut dg2, &dy, &x, &gain, &inv_rms, 1, h);
        for i in 0..h {
            assert!((dx2[i] - 2.0 * dx1[i]).abs() < 1e-6);
            assert!((dg2[i] - 2.0 * dg1[i]).abs() < 1e-6);
        }
    }
}
