//! One Llama-style transformer block: RMSNorm → attention (+RoPE) →
//! residual → RMSNorm → SwiGLU FFN → residual.
//!
//! The backward pass exists in two forms:
//!
//! * [`block_backward_full`] — the classic fused backward (data and weight
//!   gradients together), used by 1F1B, GPipe, FSDP and WeiPipe-Interleave.
//! * [`block_backward_data`] (*B pass*) + [`block_backward_weight`]
//!   (*W pass*) — the decoupled backward that zero-bubble schedules
//!   (ZB-1/ZB-2, WZB-1/WZB-2) interleave. The B pass produces `∂L/∂x` plus a
//!   [`BPassCtx`] holding exactly the per-linear upstream gradients the W
//!   pass needs; the W pass is then pure `dYᵀ·X` matmuls into the flat
//!   gradient buffer. `full ≡ data ∘ weight` is asserted by tests.
//!
//! Activation checkpointing — the paper's "recomputation" knob: a caller
//! turns the [`BlockCtx`] into a [`BlockCkpt`] with
//! [`BlockCtx::into_checkpoint`], keeping the block input `x` and
//! attention's output and log-sum-exp (`O(G·S·H)` floats), and
//! [`block_backward_checkpointed`] rebuilds every other activation from
//! them before the fused backward. Attention is the one part of the forward
//! it does not re-run: its cost grows as `S²`, what it saves as `S`. The
//! rebuilt context holds the same bits the forward's did, so checkpointing
//! changes no result. [`block_backward_recompute`] re-runs the whole forward
//! from `x` alone; it is the oracle the checkpointed path is tested against.
//!
//! Every temporary and every saved activation comes from the caller's
//! [`Scratch`] arena; in steady-state training these functions perform no
//! heap allocation (asserted by `tests/alloc.rs`).

use crate::attention::{streaming_backward, streaming_forward, AttnDims};
use crate::config::ModelConfig;
use crate::params::BlockLayout;
use crate::scratch::{Scratch, ScratchBuf};
use wp_tensor::ops::{
    matmul_nn, matmul_nt, matmul_tn, rmsnorm_backward, rmsnorm_forward, swiglu_backward,
    swiglu_forward, RopeTable,
};

/// Activations a block saves for its backward pass.
#[derive(Debug, Clone)]
pub struct BlockCtx {
    /// Block input `[G·S, H]`.
    pub x: ScratchBuf,
    inv_rms1: ScratchBuf,
    x1: ScratchBuf,
    q: ScratchBuf,
    k: ScratchBuf,
    v: ScratchBuf,
    /// Attention's per-query-row log-sum-exp `[G, heads, S]`.
    lse: ScratchBuf,
    attn_o: ScratchBuf,
    x2: ScratchBuf,
    inv_rms2: ScratchBuf,
    x3: ScratchBuf,
    gate: ScratchBuf,
    up: ScratchBuf,
    hg: ScratchBuf,
}

impl BlockCtx {
    /// Total saved f32 elements (drives the memory ledger).
    pub fn saved_elems(&self) -> usize {
        self.x.len()
            + self.inv_rms1.len()
            + self.x1.len()
            + self.q.len()
            + self.k.len()
            + self.v.len()
            + self.lse.len()
            + self.attn_o.len()
            + self.x2.len()
            + self.inv_rms2.len()
            + self.x3.len()
            + self.gate.len()
            + self.up.len()
            + self.hg.len()
    }

    /// Keep what a checkpointed layer needs for its backward and return the
    /// rest of the context to the arena.
    pub fn into_checkpoint(self) -> BlockCkpt {
        BlockCkpt {
            x: self.x,
            attn_o: self.attn_o,
            lse: self.lse,
        }
    }
}

/// What a checkpointed layer keeps between its forward and its backward:
/// the block input and attention's output and log-sum-exp, from which
/// [`block_backward_checkpointed`] rebuilds the [`BlockCtx`] without
/// re-running attention.
#[derive(Debug)]
pub struct BlockCkpt {
    x: ScratchBuf,
    attn_o: ScratchBuf,
    lse: ScratchBuf,
}

impl BlockCkpt {
    /// Total saved f32 elements: `2·G·S·H + G·heads·S`.
    pub fn saved_elems(&self) -> usize {
        self.x.len() + self.attn_o.len() + self.lse.len()
    }
}

/// Gradients the *B pass* hands to the *W pass*.
#[derive(Debug, Clone)]
pub struct BPassCtx {
    /// Upstream gradient at the FFN down-projection output (`= dy`).
    d_down: ScratchBuf,
    dgate: ScratchBuf,
    dup: ScratchBuf,
    /// Upstream gradient at the attention output projection.
    d_attn_out: ScratchBuf,
    dq_pre: ScratchBuf,
    dk_pre: ScratchBuf,
    dv: ScratchBuf,
    /// Norm gain gradients, already reduced over tokens (cheap, computed in
    /// the B pass as a by-product of the data gradient).
    dgain1: ScratchBuf,
    dgain2: ScratchBuf,
}

impl BPassCtx {
    /// Total saved f32 elements — the `M_B` term in the paper's §3.4 memory
    /// analysis (≈ one forward's activations).
    pub fn saved_elems(&self) -> usize {
        self.d_down.len()
            + self.dgate.len()
            + self.dup.len()
            + self.d_attn_out.len()
            + self.dq_pre.len()
            + self.dk_pre.len()
            + self.dv.len()
            + self.dgain1.len()
            + self.dgain2.len()
    }
}

fn attn_dims(cfg: &ModelConfig, batch: usize, seq: usize) -> AttnDims {
    AttnDims {
        batch,
        seq,
        heads: cfg.heads,
        kv_heads: cfg.kv_heads,
        head_dim: cfg.head_dim(),
    }
}

/// Every activation the backward reads, from the block input `x` (moved in
/// as the context's own copy). With `saved = Some((attn_o, lse))`, the
/// outputs of an earlier [`streaming_forward`] on the same input and
/// weights, attention is not re-run.
#[allow(clippy::too_many_arguments)]
fn block_ctx(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    x: ScratchBuf,
    saved: Option<(ScratchBuf, ScratchBuf)>,
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> BlockCtx {
    let h = cfg.hidden;
    let f = cfg.ffn;
    let tokens = batch * seq;
    assert_eq!(x.len(), tokens * h, "block input shape");
    let lay = BlockLayout::new(cfg);
    assert_eq!(w.len(), lay.len(), "block weight buffer length");

    // --- attention half ---
    let mut x1 = scratch.take(tokens * h);
    let mut inv_rms1 = scratch.take(tokens);
    rmsnorm_forward(
        &mut x1,
        Some(&mut inv_rms1),
        &x,
        &w[lay.attn_norm()],
        tokens,
        h,
        cfg.eps,
    );

    let kv = cfg.kv_dim();
    let mut q = scratch.take(tokens * h);
    let mut k = scratch.take(tokens * kv);
    let mut v = scratch.take(tokens * kv);
    matmul_nt(&mut q, &x1, &w[lay.wq()], tokens, h, h);
    matmul_nt(&mut k, &x1, &w[lay.wk()], tokens, h, kv);
    matmul_nt(&mut v, &x1, &w[lay.wv()], tokens, h, kv);
    for g in 0..batch {
        let rq = g * seq * h..(g + 1) * seq * h;
        rope.apply_forward(&mut q[rq], seq, cfg.heads);
        let rk = g * seq * kv..(g + 1) * seq * kv;
        rope.apply_forward(&mut k[rk], seq, cfg.kv_heads);
    }

    let (attn_o, lse) = match saved {
        Some((attn_o, lse)) => {
            assert_eq!(attn_o.len(), tokens * h, "saved attention output shape");
            (attn_o, lse)
        }
        None => {
            let mut attn_o = scratch.take(tokens * h);
            let dims = attn_dims(cfg, batch, seq);
            let lse = streaming_forward(&mut attn_o, &q, &k, &v, dims, scratch);
            (attn_o, lse)
        }
    };

    let mut x2 = scratch.take(tokens * h);
    matmul_nt(&mut x2, &attn_o, &w[lay.wo()], tokens, h, h);
    for (a, b) in x2.iter_mut().zip(&x[..]) {
        *a += b; // residual
    }

    // --- FFN half, up to the down projection ---
    let mut x3 = scratch.take(tokens * h);
    let mut inv_rms2 = scratch.take(tokens);
    rmsnorm_forward(
        &mut x3,
        Some(&mut inv_rms2),
        &x2,
        &w[lay.ffn_norm()],
        tokens,
        h,
        cfg.eps,
    );

    let mut gate = scratch.take(tokens * f);
    let mut up = scratch.take(tokens * f);
    matmul_nt(&mut gate, &x3, &w[lay.wg()], tokens, h, f);
    matmul_nt(&mut up, &x3, &w[lay.wu()], tokens, h, f);
    let mut hg = scratch.take(tokens * f);
    swiglu_forward(&mut hg, &gate, &up);

    BlockCtx {
        x,
        inv_rms1,
        x1,
        q,
        k,
        v,
        lse,
        attn_o,
        x2,
        inv_rms2,
        x3,
        gate,
        up,
        hg,
    }
}

/// Forward pass. Returns the block output `[G·S, H]` and the saved
/// activations.
pub fn block_forward(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    x: &[f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> (ScratchBuf, BlockCtx) {
    let x = scratch.take_copy(x);
    let ctx = block_ctx(cfg, rope, w, x, None, batch, seq, scratch);
    let (h, tokens) = (cfg.hidden, batch * seq);
    let mut y = scratch.take(tokens * h);
    let wd = &w[BlockLayout::new(cfg).wd()];
    matmul_nt(&mut y, &ctx.hg, wd, tokens, cfg.ffn, h);
    for (a, b) in y.iter_mut().zip(&ctx.x2[..]) {
        *a += b; // residual
    }
    (y, ctx)
}

/// *B pass*: data gradient only. Returns `∂L/∂x` and the [`BPassCtx`] the
/// W pass will consume.
#[allow(clippy::too_many_arguments)]
pub fn block_backward_data(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    ctx: &BlockCtx,
    dy: &[f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> (ScratchBuf, BPassCtx) {
    let h = cfg.hidden;
    let f = cfg.ffn;
    let tokens = batch * seq;
    assert_eq!(dy.len(), tokens * h, "dy shape");
    let lay = BlockLayout::new(cfg);

    // --- FFN half, data path ---
    // y = x2 + Wd·hg : d_down = dy, and dy also flows straight into dx2.
    let d_down = scratch.take_copy(dy);
    let mut dhg = scratch.take(tokens * f);
    matmul_nn(&mut dhg, &d_down, &w[lay.wd()], tokens, h, f);
    let mut dgate = scratch.take(tokens * f);
    let mut dup = scratch.take(tokens * f);
    swiglu_backward(&mut dgate, &mut dup, &dhg, &ctx.gate, &ctx.up);
    let mut dx3 = scratch.take(tokens * h);
    matmul_nn(&mut dx3, &dgate, &w[lay.wg()], tokens, f, h);
    matmul_nn(&mut dx3, &dup, &w[lay.wu()], tokens, f, h);

    let mut dx2 = scratch.take_copy(dy);
    let mut dgain2 = scratch.take(h);
    rmsnorm_backward(
        &mut dx2,
        &mut dgain2,
        &dx3,
        &ctx.x2,
        &w[lay.ffn_norm()],
        &ctx.inv_rms2,
        tokens,
        h,
    );

    // --- attention half, data path ---
    // x2 = x + Wo·attn_o : upstream at the projection output is dx2.
    let d_attn_out = dx2.clone();
    let mut d_attn_o = scratch.take(tokens * h);
    matmul_nn(&mut d_attn_o, &d_attn_out, &w[lay.wo()], tokens, h, h);

    let kv = cfg.kv_dim();
    let dims = attn_dims(cfg, batch, seq);
    let mut dq = scratch.take(tokens * h);
    let mut dk = scratch.take(tokens * kv);
    let mut dv = scratch.take(tokens * kv);
    streaming_backward(
        &mut dq,
        &mut dk,
        &mut dv,
        &d_attn_o,
        &ctx.q,
        &ctx.k,
        &ctx.v,
        &ctx.attn_o,
        &ctx.lse,
        dims,
        scratch,
    );
    // Undo RoPE on the q/k gradients (rotation is orthogonal).
    for g in 0..batch {
        let rq = g * seq * h..(g + 1) * seq * h;
        rope.apply_backward(&mut dq[rq], seq, cfg.heads);
        let rk = g * seq * kv..(g + 1) * seq * kv;
        rope.apply_backward(&mut dk[rk], seq, cfg.kv_heads);
    }

    let mut dx1 = scratch.take(tokens * h);
    matmul_nn(&mut dx1, &dq, &w[lay.wq()], tokens, h, h);
    matmul_nn(&mut dx1, &dk, &w[lay.wk()], tokens, kv, h);
    matmul_nn(&mut dx1, &dv, &w[lay.wv()], tokens, kv, h);

    let mut dx = dx2; // residual through x2 = x + …
    let mut dgain1 = scratch.take(h);
    rmsnorm_backward(
        &mut dx,
        &mut dgain1,
        &dx1,
        &ctx.x,
        &w[lay.attn_norm()],
        &ctx.inv_rms1,
        tokens,
        h,
    );

    let bctx = BPassCtx {
        d_down,
        dgate,
        dup,
        d_attn_out,
        dq_pre: dq,
        dk_pre: dk,
        dv,
        dgain1,
        dgain2,
    };
    (dx, bctx)
}

/// *W pass*: weight gradients only, accumulated into the flat `dw` buffer
/// (layout identical to the weights). Pure `dYᵀ·X` matmuls.
pub fn block_backward_weight(
    cfg: &ModelConfig,
    ctx: &BlockCtx,
    bctx: &BPassCtx,
    dw: &mut [f32],
    batch: usize,
    seq: usize,
) {
    let h = cfg.hidden;
    let f = cfg.ffn;
    let tokens = batch * seq;
    let lay = BlockLayout::new(cfg);
    assert_eq!(dw.len(), lay.len(), "gradient buffer length");

    matmul_tn(&mut dw[lay.wd()], &bctx.d_down, &ctx.hg, h, tokens, f);
    matmul_tn(&mut dw[lay.wg()], &bctx.dgate, &ctx.x3, f, tokens, h);
    matmul_tn(&mut dw[lay.wu()], &bctx.dup, &ctx.x3, f, tokens, h);
    matmul_tn(
        &mut dw[lay.wo()],
        &bctx.d_attn_out,
        &ctx.attn_o,
        h,
        tokens,
        h,
    );
    let kv = cfg.kv_dim();
    matmul_tn(&mut dw[lay.wq()], &bctx.dq_pre, &ctx.x1, h, tokens, h);
    matmul_tn(&mut dw[lay.wk()], &bctx.dk_pre, &ctx.x1, kv, tokens, h);
    matmul_tn(&mut dw[lay.wv()], &bctx.dv, &ctx.x1, kv, tokens, h);
    for (g, d) in dw[lay.attn_norm()].iter_mut().zip(&bctx.dgain1[..]) {
        *g += d;
    }
    for (g, d) in dw[lay.ffn_norm()].iter_mut().zip(&bctx.dgain2[..]) {
        *g += d;
    }
}

/// Fused backward: B pass immediately followed by W pass. Returns `∂L/∂x`.
#[allow(clippy::too_many_arguments)]
pub fn block_backward_full(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    ctx: &BlockCtx,
    dy: &[f32],
    dw: &mut [f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> ScratchBuf {
    let (dx, bctx) = block_backward_data(cfg, rope, w, ctx, dy, batch, seq, scratch);
    block_backward_weight(cfg, ctx, &bctx, dw, batch, seq);
    dx
}

/// Checkpointed backward: rebuild the context from `ck` — attention's saved
/// output and log-sum-exp moved in, not copied, and not recomputed — then
/// run the fused backward. The "recomputation" configuration of the
/// paper's §4.3.
#[allow(clippy::too_many_arguments)]
pub fn block_backward_checkpointed(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    ck: BlockCkpt,
    dy: &[f32],
    dw: &mut [f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> ScratchBuf {
    let BlockCkpt { x, attn_o, lse } = ck;
    let ctx = block_ctx(cfg, rope, w, x, Some((attn_o, lse)), batch, seq, scratch);
    block_backward_full(cfg, rope, w, &ctx, dy, dw, batch, seq, scratch)
}

/// Full-recompute backward: re-run the whole forward, attention included,
/// from the block input `x` alone, then run the fused backward.
#[allow(clippy::too_many_arguments)]
pub fn block_backward_recompute(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    x: &[f32],
    dy: &[f32],
    dw: &mut [f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> ScratchBuf {
    let x = scratch.take_copy(x);
    let ctx = block_ctx(cfg, rope, w, x, None, batch, seq, scratch);
    block_backward_full(cfg, rope, w, &ctx, dy, dw, batch, seq, scratch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::init_block;
    use wp_tensor::Tensor;

    fn setup() -> (ModelConfig, RopeTable, Vec<f32>) {
        let cfg = ModelConfig::tiny(1);
        let rope = cfg.rope_table();
        let w = init_block(&cfg, 3, 0);
        (cfg, rope, w)
    }

    #[test]
    fn forward_shapes_and_determinism() {
        let (cfg, rope, w) = setup();
        let sc = Scratch::new();
        let (batch, seq) = (2, 4);
        let x = Tensor::randn([batch * seq * cfg.hidden], 1.0, 60).into_vec();
        let (y1, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        let (y2, _) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        assert_eq!(y1, y2);
        assert_eq!(y1.len(), x.len());
        assert!(ctx.saved_elems() > x.len());
    }

    #[test]
    fn full_backward_gradcheck() {
        let (cfg, rope, w) = setup();
        let sc = Scratch::new();
        let (batch, seq) = (1, 3);
        let n = batch * seq * cfg.hidden;
        let x = Tensor::randn([n], 0.5, 62).into_vec();
        let dy = Tensor::randn([n], 1.0, 63).into_vec();
        let loss = |w: &[f32], x: &[f32]| -> f32 {
            let (y, _) = block_forward(&cfg, &rope, w, x, batch, seq, &sc);
            y.iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        let mut dw = vec![0.0f32; w.len()];
        let dx = block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw, batch, seq, &sc);

        let h = 5e-3;
        // Spot-check a spread of weight indices (full sweep is too slow).
        let lay = BlockLayout::new(&cfg);
        let picks: Vec<usize> = [
            lay.attn_norm().start,
            lay.wq().start + 5,
            lay.wk().start + 17,
            lay.wv().start + 3,
            lay.wo().start + 21,
            lay.ffn_norm().start + 2,
            lay.wg().start + 11,
            lay.wu().start + 29,
            lay.wd().start + 13,
        ]
        .to_vec();
        for &i in &picks {
            let mut wp = w.clone();
            wp[i] += h;
            let mut wm = w.clone();
            wm[i] -= h;
            let num = (loss(&wp, &x) - loss(&wm, &x)) / (2.0 * h);
            assert!(
                (dw[i] - num).abs() < 3e-2 * (1.0 + num.abs()),
                "dw[{i}] {} vs {num}",
                dw[i]
            );
        }
        for i in (0..n).step_by(7) {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let num = (loss(&w, &xp) - loss(&w, &xm)) / (2.0 * h);
            assert!(
                (dx[i] - num).abs() < 3e-2 * (1.0 + num.abs()),
                "dx[{i}] {} vs {num}",
                dx[i]
            );
        }
    }

    #[test]
    fn split_backward_equals_full() {
        let (cfg, rope, w) = setup();
        let sc = Scratch::new();
        let (batch, seq) = (2, 4);
        let n = batch * seq * cfg.hidden;
        let x = Tensor::randn([n], 0.5, 64).into_vec();
        let dy = Tensor::randn([n], 1.0, 65).into_vec();
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);

        let mut dw_full = vec![0.0f32; w.len()];
        let dx_full =
            block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw_full, batch, seq, &sc);

        let (dx_split, bctx) = block_backward_data(&cfg, &rope, &w, &ctx, &dy, batch, seq, &sc);
        let mut dw_split = vec![0.0f32; w.len()];
        block_backward_weight(&cfg, &ctx, &bctx, &mut dw_split, batch, seq);

        assert_eq!(dx_full, dx_split, "B pass dx must equal fused dx");
        assert_eq!(dw_full, dw_split, "W pass dw must equal fused dw");
        // The paper's memory claim: B-pass state is the same order as the
        // forward activations.
        assert!(bctx.saved_elems() > 0);
    }

    /// Multi-head and grouped-query configs long enough for a sequence on
    /// each side of attention's 64-query tile.
    fn long_cfgs() -> [ModelConfig; 2] {
        let mha = ModelConfig::llama_like(16, 2, 1, 11, 80);
        let gqa = ModelConfig::llama_like(16, 4, 1, 11, 80).with_gqa(2);
        [mha, gqa]
    }

    #[test]
    fn recompute_equals_saved_backward() {
        // The checkpointed backward, the backward from the saved context and
        // the full recompute all compute the same bits.
        let sc = Scratch::new();
        let cases = [(ModelConfig::tiny(1), 2, 3)].into_iter().chain(
            long_cfgs()
                .into_iter()
                .flat_map(|c| [(c.clone(), 1, 63), (c, 2, 65)]),
        );
        for (cfg, batch, seq) in cases {
            let rope = cfg.rope_table();
            let w = init_block(&cfg, 3, 0);
            let n = batch * seq * cfg.hidden;
            let x = Tensor::randn([n], 0.5, 66).into_vec();
            let dy = Tensor::randn([n], 1.0, 67).into_vec();
            let what = format!("kv_heads={} S={seq}", cfg.kv_heads);

            let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
            let mut dw1 = vec![0.0f32; w.len()];
            let dx1 = block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw1, batch, seq, &sc);

            let ck = ctx.into_checkpoint();
            let mut dw2 = vec![0.0f32; w.len()];
            let dx2 =
                block_backward_checkpointed(&cfg, &rope, &w, ck, &dy, &mut dw2, batch, seq, &sc);

            let mut dw3 = vec![0.0f32; w.len()];
            let dx3 = block_backward_recompute(&cfg, &rope, &w, &x, &dy, &mut dw3, batch, seq, &sc);

            assert_eq!(dx1, dx2, "{what}: checkpointed dx");
            assert_eq!(dw1, dw2, "{what}: checkpointed dw");
            assert_eq!(dx1, dx3, "{what}: recomputed dx");
            assert_eq!(dw1, dw3, "{what}: recomputed dw");
        }
    }

    #[test]
    fn checkpoint_keeps_input_attention_output_and_lse() {
        let sc = Scratch::new();
        for cfg in long_cfgs() {
            let rope = cfg.rope_table();
            let w = init_block(&cfg, 3, 0);
            let (batch, seq, h) = (2, 65, cfg.hidden);
            let x = Tensor::randn([batch * seq * h], 0.5, 71).into_vec();
            let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
            let full = ctx.saved_elems();
            let ck = ctx.into_checkpoint();
            assert_eq!(
                ck.saved_elems(),
                2 * batch * seq * h + batch * cfg.heads * seq
            );
            assert!(ck.saved_elems() < full);
        }
    }

    #[test]
    fn weight_grads_accumulate_across_microbatches() {
        let (cfg, rope, w) = setup();
        let sc = Scratch::new();
        let (batch, seq) = (1, 3);
        let n = batch * seq * cfg.hidden;
        let xa = Tensor::randn([n], 0.5, 68).into_vec();
        let xb = Tensor::randn([n], 0.5, 69).into_vec();
        let dy = Tensor::randn([n], 1.0, 70).into_vec();

        let (_, ctx_a) = block_forward(&cfg, &rope, &w, &xa, batch, seq, &sc);
        let (_, ctx_b) = block_forward(&cfg, &rope, &w, &xb, batch, seq, &sc);
        let mut dw_a = vec![0.0f32; w.len()];
        block_backward_full(&cfg, &rope, &w, &ctx_a, &dy, &mut dw_a, batch, seq, &sc);
        let mut dw_b = vec![0.0f32; w.len()];
        block_backward_full(&cfg, &rope, &w, &ctx_b, &dy, &mut dw_b, batch, seq, &sc);
        // Accumulating both into one buffer equals the sum of separate runs.
        let mut dw_both = vec![0.0f32; w.len()];
        block_backward_full(&cfg, &rope, &w, &ctx_a, &dy, &mut dw_both, batch, seq, &sc);
        block_backward_full(&cfg, &rope, &w, &ctx_b, &dy, &mut dw_both, batch, seq, &sc);
        for i in 0..w.len() {
            assert!((dw_both[i] - (dw_a[i] + dw_b[i])).abs() < 1e-4, "i={i}");
        }
    }
}
