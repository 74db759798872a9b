//! The readable reference the streaming attention kernels are tested
//! against: causal attention one query row at a time, serially, with the
//! whole probability matrix materialised.

use wp_nn::attention::AttnDims;

/// Offset of token `(g, s)` query head `h` in a `[G·S, heads·d]` buffer.
fn q_off(d: &AttnDims, g: usize, s: usize, h: usize) -> usize {
    (g * d.seq + s) * d.heads * d.head_dim + h * d.head_dim
}

/// Offset of token `(g, s)` for query head `h`'s k/v head in a
/// `[G·S, kv_dim]` buffer.
fn kv_off(d: &AttnDims, g: usize, s: usize, h: usize) -> usize {
    let kvh = h / (d.heads / d.kv_heads);
    (g * d.seq + s) * d.kv_dim() + kvh * d.head_dim
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Causal attention forward into `o`. Returns the softmax probabilities
/// `[G, heads, S, S]`, zero where a query cannot see a key.
pub fn naive_forward(o: &mut [f32], q: &[f32], k: &[f32], v: &[f32], d: AttnDims) -> Vec<f32> {
    let (seq, hd) = (d.seq, d.head_dim);
    let scale = 1.0 / (hd as f32).sqrt();
    let mut probs = vec![0.0f32; d.batch * d.heads * seq * seq];
    for g in 0..d.batch {
        for h in 0..d.heads {
            for i in 0..seq {
                let qi = &q[q_off(&d, g, i, h)..][..hd];
                let row = &mut probs[((g * d.heads + h) * seq + i) * seq..][..=i];
                for (j, p) in row.iter_mut().enumerate() {
                    *p = dot(qi, &k[kv_off(&d, g, j, h)..][..hd]) * scale;
                }
                let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
                for p in row.iter_mut() {
                    *p = (*p - max).exp();
                }
                let sum: f32 = row.iter().sum();
                for p in row.iter_mut() {
                    *p /= sum;
                }
                // o_i = Σ_j p_ij v_j
                let oi = &mut o[q_off(&d, g, i, h)..][..hd];
                oi.fill(0.0);
                for (j, &p) in row.iter().enumerate() {
                    for (od, vd) in oi.iter_mut().zip(&v[kv_off(&d, g, j, h)..][..hd]) {
                        *od += p * vd;
                    }
                }
            }
        }
    }
    probs
}

/// Backward of [`naive_forward`] from its probabilities. Accumulates into
/// `dq`, `dk`, `dv`.
#[allow(clippy::too_many_arguments)]
pub fn naive_backward(
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    dout: &[f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    probs: &[f32],
    d: AttnDims,
) {
    let (seq, hd) = (d.seq, d.head_dim);
    let scale = 1.0 / (hd as f32).sqrt();
    let mut ds = vec![0.0f32; seq];
    for g in 0..d.batch {
        for h in 0..d.heads {
            for i in 0..seq {
                let qo = q_off(&d, g, i, h);
                let doi = &dout[qo..][..hd];
                let prow = &probs[((g * d.heads + h) * seq + i) * seq..][..=i];
                // dp_ij = do_i · v_j ; ds = p ⊙ (dp − Σ_j p·dp), scaled.
                for (j, dsj) in ds[..=i].iter_mut().enumerate() {
                    *dsj = dot(doi, &v[kv_off(&d, g, j, h)..][..hd]);
                }
                let pdot = dot(prow, &ds[..=i]);
                for (dsj, &p) in ds[..=i].iter_mut().zip(prow) {
                    *dsj = p * (*dsj - pdot) * scale;
                }
                // dv_j += p_ij do_i ; dq_i += Σ_j ds_ij k_j ; dk_j += ds_ij q_i
                for (j, (&p, &dsj)) in prow.iter().zip(&ds[..=i]).enumerate() {
                    let ko = kv_off(&d, g, j, h);
                    for (x, &dod) in dv[ko..][..hd].iter_mut().zip(doi) {
                        *x += p * dod;
                    }
                    for (x, &kd) in dq[qo..][..hd].iter_mut().zip(&k[ko..][..hd]) {
                        *x += dsj * kd;
                    }
                    for (x, &qd) in dk[ko..][..hd].iter_mut().zip(&q[qo..][..hd]) {
                        *x += dsj * qd;
                    }
                }
            }
        }
    }
}
