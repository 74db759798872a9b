//! Causal multi-head self-attention: a streaming kernel in the
//! FlashAttention style.
//!
//! Inputs `q`, `k`, `v` are `[G·S, H]` buffers (already RoPE-rotated), where
//! head `h` of token `(g, s)` lives at `((g·S + s)·H + h·d)..+d`. The
//! streaming kernel keeps one tile of score columns alive at a time and
//! saves only the per-row log-sum-exp for backward, so attention activation
//! memory is `O(G·S·H)` instead of `O(G·heads·S²)` — the memory behaviour
//! that lets the paper run large microbatches and makes FFN activations
//! (not attention) the dominant term in its §3.4 memory analysis.
//!
//! **Streaming tiles.** A tile is [`QTILE`] consecutive queries of one head
//! against every key they can see, held *transposed*: row `j` of the tile
//! is key `j`'s score against each query of the tile. Every product —
//! `Sᵀ = K·Q_tᵀ`, `O_t = P·V`, and in backward `dPᵀ = V·dO_tᵀ`,
//! `dV += Pᵀ·dO_t`, `dK += dSᵀ·Q_t`, `dQ_t += dS·K` — is one call into
//! [`wp_tensor::ops::gemm`] on the strided `[G·S, H]` buffers, and the
//! softmax runs down the tile's columns, so its max and sum are plain
//! per-query accumulations over ascending `j` with no horizontal reduction.
//! The causal mask zeroes the triangle of the diagonal block that looks
//! ahead. A tile's pointwise work — the softmax with its polynomial
//! [`exp_poly`], the backward's `p` / `dS` and `D_i` dots, the row
//! normalisation — runs through [`with_isa`], so it vectorises at the width
//! `gemm` runs at and computes the same bits at every width. The readable
//! reference the kernels are tested against, a row-at-a-time kernel that
//! materialises the probability matrix, lives with the tests
//! (`tests/common/mod.rs`).
//!
//! **Parallelism and memory.** The forward kernels split across the pool
//! over `(batch, head)` pairs; the backward kernels over
//! `(batch, kv-head)` pairs, with each task walking its group's query
//! heads, and each head's tiles, in ascending order, so every `dk`/`dv`
//! element accumulates in one fixed order — results are bit-identical to
//! sequential whatever the pool width. All temporaries (score tiles, saved
//! probabilities, log-sum-exp) come from a caller-supplied [`Scratch`]
//! arena, one tile set per pool lane rather than per task, so steady-state
//! training allocates nothing here.

use crate::scratch::{Scratch, ScratchBuf};
use wp_tensor::ops::gemm::{gemm, with_isa, MatRef};
use wp_tensor::ops::par::{current_num_threads, par_indices, RawMut, PAR_MIN_WORK};
use wp_tensor::ops::{dot, exp_poly};

/// Queries per streaming tile: wide enough that packing the tile's keys is
/// a few per cent of the arithmetic done on them, small enough that a
/// `QTILE × S` tile of scores stays cache-resident.
const QTILE: usize = 64;

/// Dimensions bundle shared by the kernels.
#[derive(Debug, Clone, Copy)]
pub struct AttnDims {
    /// Microbatch size `G`.
    pub batch: usize,
    /// Sequence length `S`.
    pub seq: usize,
    /// Query head count.
    pub heads: usize,
    /// Key/value head count (grouped-query attention when `< heads`;
    /// must divide `heads`).
    pub kv_heads: usize,
    /// Per-head dimension `d = H / heads`.
    pub head_dim: usize,
}

impl AttnDims {
    /// Multi-head dims (`kv_heads = heads`).
    pub fn mha(batch: usize, seq: usize, heads: usize, head_dim: usize) -> Self {
        AttnDims {
            batch,
            seq,
            heads,
            kv_heads: heads,
            head_dim,
        }
    }

    #[inline]
    fn hidden(&self) -> usize {
        self.heads * self.head_dim
    }

    /// Width of the k/v buffers per token.
    #[inline]
    pub fn kv_dim(&self) -> usize {
        self.kv_heads * self.head_dim
    }

    /// The k/v head serving query head `h`.
    #[inline]
    fn kv_of(&self, h: usize) -> usize {
        h / (self.heads / self.kv_heads)
    }

    /// Offset of token `(g, s)` query head `h` in a `[G·S, H]` buffer.
    #[inline]
    fn off(&self, g: usize, s: usize, h: usize) -> usize {
        (g * self.seq + s) * self.hidden() + h * self.head_dim
    }

    /// Offset of token `(g, s)` for query head `h`'s k/v group in a
    /// `[G·S, kv_dim]` buffer.
    #[inline]
    fn kv_off(&self, g: usize, s: usize, h: usize) -> usize {
        (g * self.seq + s) * self.kv_dim() + self.kv_of(h) * self.head_dim
    }

    #[inline]
    fn scale(&self) -> f32 {
        1.0 / (self.head_dim as f32).sqrt()
    }

    /// Scalar-op estimate used to decide whether the pool pays for itself.
    #[inline]
    fn work(&self) -> usize {
        self.batch * self.heads * self.seq * self.seq * self.head_dim
    }

    fn check(&self) {
        assert!(
            self.kv_heads >= 1 && self.heads.is_multiple_of(self.kv_heads),
            "kv_heads must divide heads"
        );
    }
}

/// Pool lanes a kernel of `ntasks` tasks and `work` scalar operations runs
/// on: one when it is too small to amortise pool dispatch, else as many as
/// the pool is wide. Per-lane temporaries are sized by this.
fn attn_lanes(ntasks: usize, work: usize) -> usize {
    if work < PAR_MIN_WORK {
        1
    } else {
        ntasks.clamp(1, current_num_threads())
    }
}

/// Run `task(lane, t)` for every `t in 0..ntasks`, lane `l` taking tasks
/// `l, l + lanes, …` in order. Tasks are equal-sized, so the static split
/// balances, and a lane index gives each task private temporaries without
/// a buffer per task. Whatever the lane count, each task runs the same
/// closure once, so the split is bit-transparent.
fn run_attn_tasks(ntasks: usize, lanes: usize, task: &(impl Fn(usize, usize) + Sync)) {
    par_indices(lanes, |lane| {
        for t in (lane..ntasks).step_by(lanes) {
            task(lane, t);
        }
    });
}

/// First query of a tile starting at `i0` that may attend key `j`.
#[inline(always)]
fn first_visible(j: usize, i0: usize) -> usize {
    j.saturating_sub(i0)
}

/// The forward's column softmax over the transposed score tile `st` of the
/// `ti` queries from `i0`, left unnormalised: each visible score becomes
/// `exp(s·scale − max)`, each hidden one 0. Returns each query's max and
/// sum, both accumulated over ascending keys.
#[inline(always)]
fn column_softmax(st: &mut [f32], i0: usize, ti: usize, scale: f32) -> [[f32; QTILE]; 2] {
    let mut max = [f32::NEG_INFINITY; QTILE];
    for (j, row) in st.chunks_exact(QTILE).enumerate() {
        let lo = first_visible(j, i0);
        for (m, &s) in max[lo..ti].iter_mut().zip(&row[lo..ti]) {
            let s = s * scale;
            *m = if s > *m { s } else { *m };
        }
    }
    let mut sum = [0.0f32; QTILE];
    for (j, row) in st.chunks_exact_mut(QTILE).enumerate() {
        let lo = first_visible(j, i0);
        row[..lo].fill(0.0);
        let cells = row[lo..ti].iter_mut().zip(&max[lo..ti]);
        for ((p, &m), acc) in cells.zip(&mut sum[lo..ti]) {
            *p = exp_poly(*p * scale - m);
            *acc += *p;
        }
    }
    [max, sum]
}

/// Streaming causal attention forward.
///
/// One transposed score tile per pool lane is alive at a time. Returns the
/// only state the backward needs beside `o`: each query row's log-sum-exp,
/// `[G, heads, S]`.
pub fn streaming_forward(
    o: &mut [f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    dims: AttnDims,
    scratch: &Scratch,
) -> ScratchBuf {
    dims.check();
    let AttnDims {
        batch,
        seq,
        heads,
        head_dim,
        ..
    } = dims;
    let (hidden, kv_dim) = (dims.hidden(), dims.kv_dim());
    let n = batch * seq * hidden;
    let nkv = batch * seq * kv_dim;
    assert_eq!(q.len(), n);
    assert_eq!(k.len(), nkv);
    assert_eq!(v.len(), nkv);
    assert_eq!(o.len(), n);
    let scale = dims.scale();
    let mut lse = scratch.take(batch * heads * seq);
    let ntasks = batch * heads;
    let lanes = attn_lanes(ntasks, dims.work());
    let mut tiles = scratch.take(lanes * seq * QTILE);
    {
        let op = RawMut(o.as_mut_ptr());
        let lp = RawMut(lse.as_mut_ptr());
        let tp = RawMut(tiles.as_mut_ptr());
        let task = |lane: usize, t: usize| {
            let (g, h) = (t / heads, t % heads);
            // SAFETY: one tile per lane, one lse row per task.
            let tile = unsafe { tp.slice(lane * seq * QTILE, seq * QTILE) };
            let lse_gh = unsafe { lp.slice((g * heads + h) * seq, seq) };
            let k_gh = MatRef::row_major(&k[dims.kv_off(g, 0, h)..], kv_dim);
            let v_gh = MatRef::row_major(&v[dims.kv_off(g, 0, h)..], kv_dim);
            for i0 in (0..seq).step_by(QTILE) {
                let ti = QTILE.min(seq - i0);
                let nk = i0 + ti;
                let off = dims.off(g, i0, h);
                // Sᵀ[nk × ti] = K[nk × d] · Q_tᵀ[d × ti].
                let st = &mut tile[..nk * QTILE];
                st.fill(0.0);
                let q_t = MatRef::transposed(&q[off..], hidden);
                // SAFETY: `st` is `nk` rows of `QTILE >= ti` floats.
                unsafe { gemm(st.as_mut_ptr(), QTILE, k_gh, q_t, nk, ti, head_dim) };
                let [max, sum] = with_isa(
                    #[inline(always)]
                    || column_softmax(st, i0, ti, scale),
                );
                // O_t[ti × d] = P[ti × nk] · V[nk × d], then one divide per
                // row instead of one per score.
                for r in 0..ti {
                    // SAFETY: this task's own head slice of output row r.
                    unsafe { op.slice(off + r * hidden, head_dim) }.fill(0.0);
                }
                let p = MatRef::transposed(st, QTILE);
                // SAFETY: rows `i0..i0 + ti` of this task's head slice,
                // which no other task writes.
                unsafe { gemm(op.ptr().add(off), hidden, p, v_gh, ti, head_dim, nk) };
                with_isa(
                    #[inline(always)]
                    || {
                        for r in 0..ti {
                            lse_gh[i0 + r] = max[r] + sum[r].ln();
                            let inv = 1.0 / sum[r];
                            // SAFETY: as above.
                            for x in unsafe { op.slice(off + r * hidden, head_dim) } {
                                *x *= inv;
                            }
                        }
                    },
                );
            }
        };
        run_attn_tasks(ntasks, lanes, &task);
    }
    lse
}

/// Backward of [`streaming_forward`]: recomputes each probability tile from
/// `q`, `k` and the forward's log-sum-exp `lse` (the FlashAttention backward
/// recipe), and reads the forward's output `o` only for the `D_i` dots.
/// Accumulates into `dq`, `dk`, `dv`.
#[allow(clippy::too_many_arguments)]
pub fn streaming_backward(
    dq: &mut [f32],
    dk: &mut [f32],
    dv: &mut [f32],
    dout: &[f32],
    q: &[f32],
    k: &[f32],
    v: &[f32],
    o: &[f32],
    lse: &[f32],
    dims: AttnDims,
    scratch: &Scratch,
) {
    dims.check();
    let AttnDims {
        batch,
        seq,
        heads,
        kv_heads,
        head_dim,
    } = dims;
    let (hidden, kv_dim) = (dims.hidden(), dims.kv_dim());
    assert_eq!(lse.len(), batch * heads * seq);
    let scale = dims.scale();
    let ntasks = batch * kv_heads;
    let group = heads / kv_heads;
    let lanes = attn_lanes(ntasks, dims.work());
    // Per lane: the probability tile and the score-gradient tile (two
    // buffers of the forward's size, so the arena recycles one of them).
    let mut p_tiles = scratch.take(lanes * seq * QTILE);
    let mut ds_tiles = scratch.take(lanes * seq * QTILE);
    let dqp = RawMut(dq.as_mut_ptr());
    let dkp = RawMut(dk.as_mut_ptr());
    let dvp = RawMut(dv.as_mut_ptr());
    let ptp = RawMut(p_tiles.as_mut_ptr());
    let ds_tp = RawMut(ds_tiles.as_mut_ptr());
    // One task per (batch, kv head): each task owns its group's dq rows and
    // its kv head's dk/dv rows outright. Heads of the group, and tiles of a
    // head, are visited in ascending order, and each tile adds its whole
    // contribution to a `dk`/`dv` row in one `gemm`, so every element
    // accumulates in one fixed order.
    let task = |lane: usize, t: usize| {
        let (g, kvh) = (t / kv_heads, t % kv_heads);
        // SAFETY: one tile of each kind per lane.
        let p_tile = unsafe { ptp.slice(lane * seq * QTILE, seq * QTILE) };
        let ds_tile = unsafe { ds_tp.slice(lane * seq * QTILE, seq * QTILE) };
        let kv_off = dims.kv_off(g, 0, kvh * group);
        let k_gh = MatRef::row_major(&k[kv_off..], kv_dim);
        let v_gh = MatRef::row_major(&v[kv_off..], kv_dim);
        for h in kvh * group..(kvh + 1) * group {
            let lse_gh = &lse[(g * heads + h) * seq..][..seq];
            for i0 in (0..seq).step_by(QTILE) {
                let ti = QTILE.min(seq - i0);
                let nk = i0 + ti;
                let off = dims.off(g, i0, h);
                // Sᵀ = K·Q_tᵀ and dPᵀ = V·dO_tᵀ, both [nk × ti].
                let p_t = &mut p_tile[..nk * QTILE];
                let ds_t = &mut ds_tile[..nk * QTILE];
                p_t.fill(0.0);
                ds_t.fill(0.0);
                let q_t = MatRef::transposed(&q[off..], hidden);
                let do_t = MatRef::transposed(&dout[off..], hidden);
                // SAFETY: both tiles are `nk` rows of `QTILE >= ti` floats.
                unsafe {
                    gemm(p_t.as_mut_ptr(), QTILE, k_gh, q_t, nk, ti, head_dim);
                    gemm(ds_t.as_mut_ptr(), QTILE, v_gh, do_t, nk, ti, head_dim);
                }
                let lse_t = &lse_gh[i0..nk];
                with_isa(
                    #[inline(always)]
                    || {
                        // D_i = do_i · o_i (the softmax-backward dot, since
                        // Σ_j p_ij dp_ij = do_i · Σ_j p_ij v_j = do_i · o_i).
                        let mut dterm = [0.0f32; QTILE];
                        for (r, d) in dterm.iter_mut().enumerate().take(ti) {
                            let row = off + r * hidden;
                            *d = dot(&dout[row..row + head_dim], &o[row..row + head_dim]);
                        }
                        // p = exp(s − lse); ds = p ⊙ (dp − D) · scale; both
                        // zero where the query cannot see the key.
                        let rows = p_t
                            .chunks_exact_mut(QTILE)
                            .zip(ds_t.chunks_exact_mut(QTILE));
                        for (j, (p_row, ds_row)) in rows.enumerate() {
                            let lo = first_visible(j, i0);
                            p_row[..lo].fill(0.0);
                            ds_row[..lo].fill(0.0);
                            let stats = lse_t[lo..].iter().zip(&dterm[lo..ti]);
                            let cells = p_row[lo..ti].iter_mut().zip(&mut ds_row[lo..ti]);
                            for ((p, ds), (&l, &d)) in cells.zip(stats) {
                                *p = exp_poly(*p * scale - l);
                                *ds = *p * (*ds - d) * scale;
                            }
                        }
                    },
                );
                let q_rows = MatRef::row_major(&q[off..], hidden);
                let do_rows = MatRef::row_major(&dout[off..], hidden);
                let (p_t, ds_t) = (&*p_t, &*ds_t);
                // SAFETY: rows `0..nk` of this task's kv-head slice of
                // dv / dk and rows `i0..nk` of head h's slice of dq; the
                // task owns its kv head and that head's whole group.
                unsafe {
                    // dV[nk × d] += Pᵀ[nk × ti] · dO_t[ti × d]
                    let p = MatRef::row_major(p_t, QTILE);
                    gemm(dvp.ptr().add(kv_off), kv_dim, p, do_rows, nk, head_dim, ti);
                    // dK[nk × d] += dSᵀ[nk × ti] · Q_t[ti × d]
                    let ds = MatRef::row_major(ds_t, QTILE);
                    gemm(dkp.ptr().add(kv_off), kv_dim, ds, q_rows, nk, head_dim, ti);
                    // dQ_t[ti × d] += dS[ti × nk] · K[nk × d]
                    let ds = MatRef::transposed(ds_t, QTILE);
                    gemm(dqp.ptr().add(off), hidden, ds, k_gh, ti, head_dim, nk);
                }
            }
        }
    };
    run_attn_tasks(ntasks, lanes, &task);
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_tensor::ops::gemm::{force_isa, offered_isas, Isa};
    use wp_tensor::ops::par::force_sequential;
    use wp_tensor::Tensor;

    /// Sequence lengths on both sides of every tile boundary.
    const SEQS: [usize; 4] = [1, QTILE - 1, QTILE + 1, 3 * QTILE + 5];

    fn dims() -> AttnDims {
        AttnDims::mha(2, 5, 2, 4)
    }

    fn rand_qkv(dims: AttnDims, seed: u64) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let n = dims.batch * dims.seq * dims.hidden();
        let nkv = dims.batch * dims.seq * dims.kv_dim();
        (
            Tensor::randn([n], 0.5, seed).into_vec(),
            Tensor::randn([nkv], 0.5, seed + 1).into_vec(),
            Tensor::randn([nkv], 0.5, seed + 2).into_vec(),
        )
    }

    /// Grouped-query dims (two query heads per k/v head) at `seq`, big
    /// enough past the first length to cross the dispatch threshold.
    fn gqa(seq: usize) -> AttnDims {
        AttnDims {
            batch: 2,
            seq,
            heads: 4,
            kv_heads: 2,
            head_dim: 16,
        }
    }

    /// `[o, dq, dk, dv]` of one streaming forward + backward.
    fn forward_backward(d: AttnDims) -> [Vec<f32>; 4] {
        let sc = Scratch::new();
        let (q, k, v) = rand_qkv(d, 57);
        let dout = Tensor::randn([q.len()], 1.0, 60).into_vec();
        let mut o = vec![0.0; q.len()];
        let (mut dq, mut dk, mut dv) = (vec![0.0; q.len()], vec![0.0; k.len()], vec![0.0; k.len()]);
        let lse = streaming_forward(&mut o, &q, &k, &v, d, &sc);
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &o, &lse, d, &sc,
        );
        [o, dq, dk, dv]
    }

    const NAMES: [&str; 4] = ["o", "dq", "dk", "dv"];

    #[test]
    fn causality_future_tokens_have_no_influence() {
        let d = AttnDims::mha(1, 4, 1, 4);
        let sc = Scratch::new();
        let (q, k, v) = rand_qkv(d, 51);
        let n = q.len();
        let mut o1 = vec![0.0; n];
        streaming_forward(&mut o1, &q, &k, &v, d, &sc);
        // Perturb the last token's k and v: outputs of earlier tokens must
        // not change.
        let mut k2 = k.clone();
        let mut v2 = v.clone();
        for x in &mut k2[3 * 4..] {
            *x += 10.0;
        }
        for x in &mut v2[3 * 4..] {
            *x -= 5.0;
        }
        let mut o2 = vec![0.0; n];
        streaming_forward(&mut o2, &q, &k2, &v2, d, &sc);
        assert_eq!(&o1[..3 * 4], &o2[..3 * 4], "earlier rows changed");
        assert_ne!(&o1[3 * 4..], &o2[3 * 4..], "last row should change");
    }

    #[test]
    fn first_token_attends_only_itself() {
        let d = AttnDims::mha(1, 3, 1, 2);
        let sc = Scratch::new();
        let q = vec![1.0; 6];
        let k = vec![1.0; 6];
        let v = vec![7.0, 8.0, 1.0, 2.0, 3.0, 4.0];
        let mut o = vec![0.0; 6];
        streaming_forward(&mut o, &q, &k, &v, d, &sc);
        assert!((o[0] - 7.0).abs() < 1e-6 && (o[1] - 8.0).abs() < 1e-6);
    }

    #[test]
    fn streaming_backward_matches_numeric() {
        let d = AttnDims::mha(1, 4, 2, 2);
        let sc = Scratch::new();
        let (q, k, v) = rand_qkv(d, 52);
        let n = q.len();
        let dout = Tensor::randn([n], 1.0, 53).into_vec();
        let loss = |q: &[f32], k: &[f32], v: &[f32]| -> f32 {
            let mut o = vec![0.0; n];
            streaming_forward(&mut o, q, k, v, d, &sc);
            o.iter().zip(&dout).map(|(a, b)| a * b).sum()
        };
        let mut o = vec![0.0; n];
        let lse = streaming_forward(&mut o, &q, &k, &v, d, &sc);
        let (mut dq, mut dk, mut dv) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &o, &lse, d, &sc,
        );
        let h = 1e-2;
        for i in 0..n {
            let mut qp = q.clone();
            qp[i] += h;
            let mut qm = q.clone();
            qm[i] -= h;
            let num = (loss(&qp, &k, &v) - loss(&qm, &k, &v)) / (2.0 * h);
            assert!((dq[i] - num).abs() < 2e-2, "dq[{i}]: {} vs {num}", dq[i]);

            let mut kp = k.clone();
            kp[i] += h;
            let mut km = k.clone();
            km[i] -= h;
            let num = (loss(&q, &kp, &v) - loss(&q, &km, &v)) / (2.0 * h);
            assert!((dk[i] - num).abs() < 2e-2, "dk[{i}]: {} vs {num}", dk[i]);

            let mut vp = v.clone();
            vp[i] += h;
            let mut vm = v.clone();
            vm[i] -= h;
            let num = (loss(&q, &k, &vp) - loss(&q, &k, &vm)) / (2.0 * h);
            assert!((dv[i] - num).abs() < 2e-2, "dv[{i}]: {} vs {num}", dv[i]);
        }
    }

    #[test]
    fn saved_state_is_one_lse_per_query_row() {
        let d = dims();
        let (q, k, v) = rand_qkv(d, 54);
        let mut o = vec![0.0; q.len()];
        let lse = streaming_forward(&mut o, &q, &k, &v, d, &Scratch::new());
        assert_eq!(lse.len(), d.batch * d.heads * d.seq);
    }

    #[test]
    fn parallel_attention_bit_identical_to_sequential() {
        // GQA so the backward's (batch, kv-head) split is exercised; every
        // length but the first crosses the dispatch threshold.
        for d in SEQS.map(gqa) {
            let pooled = forward_backward(d);
            let serial = force_sequential(|| forward_backward(d));
            for ((a, b), name) in pooled.iter().zip(&serial).zip(NAMES) {
                assert!(a == b, "S={}: {name} must be bit-identical", d.seq);
            }
        }
    }

    #[test]
    fn every_instantiation_agrees_on_attention_bit_for_bit() {
        // Sequential, so the whole kernel runs on the thread the scopes pin.
        force_sequential(|| {
            for fast in offered_isas().filter(|&which| which != Isa::Portable) {
                for d in SEQS.map(gqa) {
                    let wide = force_isa(fast, || forward_backward(d));
                    let narrow = force_isa(Isa::Portable, || forward_backward(d));
                    for ((a, b), name) in wide.iter().zip(&narrow).zip(NAMES) {
                        assert!(a == b, "S={}: {name} differs, {fast:?} vs portable", d.seq);
                    }
                }
            }
        });
    }
}
