//! One Llama-style transformer block: RMSNorm → attention (+RoPE) →
//! residual → RMSNorm → SwiGLU FFN → residual.
//!
//! The backward pass exists in three forms, all built from the same stage
//! helpers (FFN data and weight, attention data and weight), so they
//! compute the same bits:
//!
//! * [`block_backward`] — the fused backward (data and weight gradients
//!   together), which consumes its context; 1F1B, GPipe, FSDP and
//!   WeiPipe-Interleave run it, and so does the reference model.
//! * [`block_backward_data`] (*B pass*) + [`block_backward_weight`]
//!   (*W pass*) — the decoupled backward that zero-bubble schedules
//!   (ZB-1/ZB-2, WZB-1/WZB-2) interleave. The B pass produces `∂L/∂x` plus a
//!   [`BPassCtx`] holding exactly the per-linear upstream gradients the W
//!   pass needs; the W pass is then pure `dYᵀ·X` matmuls into the flat
//!   gradient buffer.
//! * [`block_backward_full`] — `data ∘ weight` over a borrowed context, the
//!   oracle the consuming form is tested against bit for bit.
//!
//! **When each buffer dies.** [`block_backward`] runs each weight
//! gradient's `dYᵀ·X` as soon as its upstream gradient exists and returns
//! each buffer to the arena right after its last read: `hg` after the down
//! projection's weight gradient, before the FFN data path takes anything;
//! the data path's `∂hg` after the SwiGLU backward, which writes the gate
//! and up gradients over `gate` and `up`; those two and `x3` after the gate
//! and up weight gradients; `x2`, `inv_rms2` and `∂x3` after the FFN norm's
//! backward, whose output is `dy`'s own buffer (and later `∂L/∂x`'s);
//! attention's upstream gradient after the attention backward, then `q`,
//! `k`, `v` and `lse`; `attn_o`, `x1` and the q/k/v gradients after their
//! weight gradients; `x`, `inv_rms1` and `∂x1` last. The split order keeps
//! what W reads past the B pass: a runtime parks the context shed by
//! [`BlockCtx::into_weight_inputs`] to `x1`, `x3`, `hg` and `attn_o` beside
//! the [`BPassCtx`].
//!
//! Activation checkpointing — the paper's "recomputation" knob: a caller
//! turns the [`BlockCtx`] into a [`BlockCkpt`] with
//! [`BlockCtx::into_checkpoint`], keeping the block input `x` and
//! attention's output and log-sum-exp (`O(G·S·H)` floats), and
//! [`block_backward_checkpointed`] rebuilds every other activation from
//! them before the consuming backward. Attention is the one part of the
//! forward it does not re-run: its cost grows as `S²`, what it saves as
//! `S`. The rebuilt context holds the same bits the forward's did, so
//! checkpointing changes no result. [`block_backward_recompute`] re-runs the
//! whole forward from `x` alone; it is the oracle the checkpointed path is
//! tested against.
//!
//! Every temporary and every saved activation comes from the caller's
//! [`Scratch`] arena; in steady-state training these functions perform no
//! heap allocation (asserted by `tests/alloc.rs`).

use crate::attention::{streaming_backward, streaming_forward, AttnDims};
use crate::config::ModelConfig;
use crate::params::BlockLayout;
use crate::scratch::{Scratch, ScratchBuf};
use wp_tensor::ops::{
    matmul_nn, matmul_nt, matmul_tn, rmsnorm_backward, rmsnorm_forward, swiglu_backward_in_place,
    swiglu_forward, RopeTable,
};

/// Activations a block saves for its backward pass. Not `Clone`: a context
/// moves into the backward that consumes it, or is borrowed.
#[derive(Debug)]
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
    /// Total saved f32 elements, what the runtime holds per layer (the
    /// simulator's ledger prices contexts separately, in
    /// `CostModel::mem_unit_bytes`).
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

    /// Keep the four buffers [`block_backward_weight`] reads — `x1`, `x3`,
    /// `hg` and `attn_o`, `3·G·S·H + G·S·F` floats — and return the rest to
    /// the arena: what a runtime parks between a layer's B and W passes.
    /// Only the W pass may read the result.
    pub fn into_weight_inputs(self) -> BlockCtx {
        let gone = ScratchBuf::empty;
        BlockCtx {
            x: gone(),
            inv_rms1: gone(),
            x1: self.x1,
            q: gone(),
            k: gone(),
            v: gone(),
            lse: gone(),
            attn_o: self.attn_o,
            x2: gone(),
            inv_rms2: gone(),
            x3: self.x3,
            gate: gone(),
            up: gone(),
            hg: self.hg,
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

/// Gradients the *B pass* hands to the *W pass*. Not `Clone`, like
/// [`BlockCtx`].
#[derive(Debug)]
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
    /// analysis: `3·G·S·H + 2·G·S·kv + 2·G·S·F + 2·H`. A runtime parks it
    /// until W beside its context shed to `3·G·S·H + G·S·F`
    /// ([`BlockCtx::into_weight_inputs`]).
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

/// FFN data path, from the gradient `dy` at the block output to `∂L/∂x3`.
/// `gate` and `up` come in holding the forward's activations and leave
/// holding their gradients.
fn ffn_data(
    cfg: &ModelConfig,
    w: &[f32],
    dy: &[f32],
    gate: &mut [f32],
    up: &mut [f32],
    scratch: &Scratch,
) -> ScratchBuf {
    let (h, f, lay) = (cfg.hidden, cfg.ffn, BlockLayout::new(cfg));
    let tokens = dy.len() / h;
    // y = x2 + Wd·hg : dy is the down projection's upstream gradient.
    let mut dhg = scratch.take(tokens * f);
    matmul_nn(&mut dhg, dy, &w[lay.wd()], tokens, h, f);
    swiglu_backward_in_place(gate, up, &dhg);
    drop(dhg);
    let mut dx3 = scratch.take(tokens * h);
    matmul_nn(&mut dx3, gate, &w[lay.wg()], tokens, f, h);
    matmul_nn(&mut dx3, up, &w[lay.wu()], tokens, f, h);
    dx3
}

/// Attention data path, from `dx2`, the gradient at the output projection
/// (x2 = x + Wo·attn_o), to the pre-RoPE `[dq, dk, dv]` and `∂L/∂x1`.
#[allow(clippy::too_many_arguments)]
fn attn_data(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    dx2: &[f32],
    [q, k, v, attn_o, lse]: [&[f32]; 5],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> ([ScratchBuf; 3], ScratchBuf) {
    let (h, kv, lay) = (cfg.hidden, cfg.kv_dim(), BlockLayout::new(cfg));
    let tokens = batch * seq;
    let mut d_attn_o = scratch.take(tokens * h);
    matmul_nn(&mut d_attn_o, dx2, &w[lay.wo()], tokens, h, h);
    let mut dq = scratch.take(tokens * h);
    let mut dk = scratch.take(tokens * kv);
    let mut dv = scratch.take(tokens * kv);
    let dims = attn_dims(cfg, batch, seq);
    streaming_backward(
        &mut dq, &mut dk, &mut dv, &d_attn_o, q, k, v, attn_o, lse, dims, scratch,
    );
    drop(d_attn_o);
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
    ([dq, dk, dv], dx1)
}

/// RMSNorm backward added into `dx`, which holds the residual's share of
/// the gradient; returns the gain gradient.
fn norm_data(
    dx: &mut [f32],
    dnormed: &[f32],
    [x, gain, inv_rms]: [&[f32]; 3],
    scratch: &Scratch,
) -> ScratchBuf {
    let h = gain.len();
    let mut dgain = scratch.take(h);
    rmsnorm_backward(dx, &mut dgain, dnormed, x, gain, inv_rms, inv_rms.len(), h);
    dgain
}

/// `dW += dYᵀ·X` for the down projection; `d_down` is the gradient at the
/// block output.
fn down_weight(cfg: &ModelConfig, dw: &mut [f32], d_down: &[f32], hg: &[f32]) {
    let (h, f, lay) = (cfg.hidden, cfg.ffn, BlockLayout::new(cfg));
    matmul_tn(&mut dw[lay.wd()], d_down, hg, h, d_down.len() / h, f);
}

/// `dW += dYᵀ·X` for the gate and up projections.
fn gate_up_weight(cfg: &ModelConfig, dw: &mut [f32], [dgate, dup]: [&[f32]; 2], x3: &[f32]) {
    let (h, f, lay) = (cfg.hidden, cfg.ffn, BlockLayout::new(cfg));
    let tokens = x3.len() / h;
    matmul_tn(&mut dw[lay.wg()], dgate, x3, f, tokens, h);
    matmul_tn(&mut dw[lay.wu()], dup, x3, f, tokens, h);
}

/// `dW += dYᵀ·X` for the output projection (upstream `d_attn_out`, the
/// gradient at x2) and for q/k/v.
fn attn_weight(
    cfg: &ModelConfig,
    dw: &mut [f32],
    d_attn_out: &[f32],
    attn_o: &[f32],
    [dq, dk, dv]: [&[f32]; 3],
    x1: &[f32],
) {
    let (h, kv, lay) = (cfg.hidden, cfg.kv_dim(), BlockLayout::new(cfg));
    let tokens = x1.len() / h;
    matmul_tn(&mut dw[lay.wo()], d_attn_out, attn_o, h, tokens, h);
    matmul_tn(&mut dw[lay.wq()], dq, x1, h, tokens, h);
    matmul_tn(&mut dw[lay.wk()], dk, x1, kv, tokens, h);
    matmul_tn(&mut dw[lay.wv()], dv, x1, kv, tokens, h);
}

/// `dw[range] += d`, a norm's gain gradient.
fn add_gain(dw: &mut [f32], range: std::ops::Range<usize>, d: &[f32]) {
    for (g, d) in dw[range].iter_mut().zip(d) {
        *g += d;
    }
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
    assert_eq!(dy.len(), batch * seq * cfg.hidden, "dy shape");
    let lay = BlockLayout::new(cfg);
    let (gain1, gain2) = (&w[lay.attn_norm()], &w[lay.ffn_norm()]);

    // The context is borrowed, so the gate and up gradients get buffers
    // of their own, and the upstream gradients W reads are copies.
    let (mut dgate, mut dup) = (scratch.take_copy(&ctx.gate), scratch.take_copy(&ctx.up));
    let dx3 = ffn_data(cfg, w, dy, &mut dgate, &mut dup, scratch);
    let mut dx2 = scratch.take_copy(dy);
    let dgain2 = norm_data(&mut dx2, &dx3, [&ctx.x2, gain2, &ctx.inv_rms2], scratch);
    drop(dx3);

    let saved = [&ctx.q[..], &ctx.k, &ctx.v, &ctx.attn_o, &ctx.lse];
    let ([dq, dk, dv], dx1) = attn_data(cfg, rope, w, &dx2, saved, batch, seq, scratch);
    let d_attn_out = scratch.take_copy(&dx2);
    let mut dx = dx2; // residual through x2 = x + …
    let dgain1 = norm_data(&mut dx, &dx1, [&ctx.x, gain1, &ctx.inv_rms1], scratch);

    let bctx = BPassCtx {
        d_down: scratch.take_copy(dy),
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
/// (layout identical to the weights). Pure `dYᵀ·X` matmuls. Reads only
/// `x1`, `x3`, `hg` and `attn_o` of `ctx`, so a context shed by
/// [`BlockCtx::into_weight_inputs`] will do.
pub fn block_backward_weight(
    cfg: &ModelConfig,
    ctx: &BlockCtx,
    bctx: &BPassCtx,
    dw: &mut [f32],
    batch: usize,
    seq: usize,
) {
    let lay = BlockLayout::new(cfg);
    assert_eq!(dw.len(), lay.len(), "gradient buffer length");
    assert_eq!(ctx.x1.len(), batch * seq * cfg.hidden, "context shape");
    down_weight(cfg, dw, &bctx.d_down, &ctx.hg);
    gate_up_weight(cfg, dw, [&bctx.dgate, &bctx.dup], &ctx.x3);
    let dqkv = [&bctx.dq_pre[..], &bctx.dk_pre, &bctx.dv];
    attn_weight(cfg, dw, &bctx.d_attn_out, &ctx.attn_o, dqkv, &ctx.x1);
    add_gain(dw, lay.attn_norm(), &bctx.dgain1);
    add_gain(dw, lay.ffn_norm(), &bctx.dgain2);
}

/// Fused backward over a borrowed context: B pass immediately followed by
/// W pass. Returns `∂L/∂x`. The oracle [`block_backward`] is tested
/// against; a runtime consumes its contexts instead.
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

/// Fused backward that consumes its context and the upstream gradient
/// `dy`, whose buffer becomes `∂L/∂x` (returned). Each weight gradient runs
/// as soon as its upstream gradient exists, and each activation and
/// gradient returns to the arena after its last read (see the module doc);
/// the bits are [`block_backward_full`]'s.
#[allow(clippy::too_many_arguments)]
pub fn block_backward(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    ctx: BlockCtx,
    dy: ScratchBuf,
    dw: &mut [f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> ScratchBuf {
    assert_eq!(dy.len(), batch * seq * cfg.hidden, "dy shape");
    let lay = BlockLayout::new(cfg);
    assert_eq!(dw.len(), lay.len(), "gradient buffer length");
    let (gain1, gain2) = (&w[lay.attn_norm()], &w[lay.ffn_norm()]);
    let BlockCtx {
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
        mut gate,
        mut up,
        hg,
    } = ctx;
    // The residual's gradient accumulates in `dy`'s own buffer: dy → dx2 → dx.
    let mut dx = dy;

    // --- FFN half ---
    down_weight(cfg, dw, &dx, &hg);
    drop(hg);
    let dx3 = ffn_data(cfg, w, &dx, &mut gate, &mut up, scratch);
    gate_up_weight(cfg, dw, [&gate, &up], &x3);
    drop((gate, up, x3));
    let dgain2 = norm_data(&mut dx, &dx3, [&x2, gain2, &inv_rms2], scratch);
    add_gain(dw, lay.ffn_norm(), &dgain2);
    drop((dgain2, dx3, x2, inv_rms2));

    // --- attention half ---
    let saved = [&q[..], &k, &v, &attn_o, &lse];
    let ([dq, dk, dv], dx1) = attn_data(cfg, rope, w, &dx, saved, batch, seq, scratch);
    drop((q, k, v, lse));
    attn_weight(cfg, dw, &dx, &attn_o, [&dq, &dk, &dv], &x1);
    drop((attn_o, dq, dk, dv, x1));
    let dgain1 = norm_data(&mut dx, &dx1, [&x, gain1, &inv_rms1], scratch);
    add_gain(dw, lay.attn_norm(), &dgain1);
    dx
}

/// Checkpointed backward: rebuild the context from `ck` — attention's saved
/// output and log-sum-exp moved in, not copied, and not recomputed — then
/// run the consuming fused backward. The "recomputation" configuration of
/// the paper's §4.3.
#[allow(clippy::too_many_arguments)]
pub fn block_backward_checkpointed(
    cfg: &ModelConfig,
    rope: &RopeTable,
    w: &[f32],
    ck: BlockCkpt,
    dy: ScratchBuf,
    dw: &mut [f32],
    batch: usize,
    seq: usize,
    scratch: &Scratch,
) -> ScratchBuf {
    let BlockCkpt { x, attn_o, lse } = ck;
    let ctx = block_ctx(cfg, rope, w, x, Some((attn_o, lse)), batch, seq, scratch);
    block_backward(cfg, rope, w, ctx, dy, dw, batch, seq, scratch)
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

    /// Multi-head and grouped-query configs long enough for a sequence on
    /// each side of attention's 64-query tile.
    fn long_cfgs() -> [ModelConfig; 2] {
        let mha = ModelConfig::llama_like(16, 2, 1, 11, 80);
        let gqa = ModelConfig::llama_like(16, 4, 1, 11, 80).with_gqa(2);
        [mha, gqa]
    }

    /// `(config, batch, seq)`: the tiny config, then each long one at one
    /// sequence below and one above a query tile.
    fn cases() -> impl Iterator<Item = (ModelConfig, usize, usize)> {
        [(ModelConfig::tiny(1), 2, 3)].into_iter().chain(
            long_cfgs()
                .into_iter()
                .flat_map(|c| [(c.clone(), 1, 63), (c, 2, 65)]),
        )
    }

    #[test]
    fn split_backward_equals_full() {
        // The B pass, then the W pass over the context shed to what W
        // reads, and the consuming fused backward all compute the borrowed
        // fused backward's bits.
        let sc = Scratch::new();
        for (cfg, batch, seq) in cases() {
            let rope = cfg.rope_table();
            let w = init_block(&cfg, 3, 0);
            let (h, tokens) = (cfg.hidden, batch * seq);
            let x = Tensor::randn([tokens * h], 0.5, 64).into_vec();
            let dy = Tensor::randn([tokens * h], 1.0, 65).into_vec();
            let what = format!("kv_heads={} S={seq}", cfg.kv_heads);
            let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);

            let mut dw_full = vec![0.0f32; w.len()];
            let dx_full =
                block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw_full, batch, seq, &sc);

            let (dx_split, bctx) = block_backward_data(&cfg, &rope, &w, &ctx, &dy, batch, seq, &sc);
            let shed = ctx.into_weight_inputs();
            assert_eq!(
                shed.saved_elems(),
                tokens * (3 * h + cfg.ffn),
                "{what}: a shed context is x1 + x3 + hg + attn_o"
            );
            let kv = cfg.kv_dim();
            assert_eq!(
                bctx.saved_elems(),
                tokens * (3 * h + 2 * kv + 2 * cfg.ffn) + 2 * h
            );
            let mut dw_split = vec![0.0f32; w.len()];
            block_backward_weight(&cfg, &shed, &bctx, &mut dw_split, batch, seq);

            let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
            let mut dw_own = vec![0.0f32; w.len()];
            let dy_own = sc.take_copy(&dy);
            let dx_own = block_backward(&cfg, &rope, &w, ctx, dy_own, &mut dw_own, batch, seq, &sc);

            assert_eq!(dx_full, dx_split, "{what}: B pass dx");
            assert_eq!(dw_full, dw_split, "{what}: W pass dw");
            assert_eq!(dx_full, dx_own, "{what}: consuming dx");
            assert_eq!(dw_full, dw_own, "{what}: consuming dw");
        }
    }

    #[test]
    fn recompute_equals_saved_backward() {
        // The checkpointed backward, the backward from the saved context
        // (borrowed or consumed) and the full recompute all compute the
        // same bits.
        let sc = Scratch::new();
        for (cfg, batch, seq) in cases() {
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
            let dy2 = sc.take_copy(&dy);
            let dx2 =
                block_backward_checkpointed(&cfg, &rope, &w, ck, dy2, &mut dw2, batch, seq, &sc);

            let mut dw3 = vec![0.0f32; w.len()];
            let dx3 = block_backward_recompute(&cfg, &rope, &w, &x, &dy, &mut dw3, batch, seq, &sc);

            let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
            let mut dw4 = vec![0.0f32; w.len()];
            let dy4 = sc.take_copy(&dy);
            let dx4 = block_backward(&cfg, &rope, &w, ctx, dy4, &mut dw4, batch, seq, &sc);

            assert_eq!(dx1, dx2, "{what}: checkpointed dx");
            assert_eq!(dw1, dw2, "{what}: checkpointed dw");
            assert_eq!(dx1, dx3, "{what}: recomputed dx");
            assert_eq!(dw1, dw3, "{what}: recomputed dw");
            assert_eq!(dx1, dx4, "{what}: consuming dx");
            assert_eq!(dw1, dw4, "{what}: consuming dw");
        }
    }

    #[test]
    fn a_warm_checkpointed_step_pools_its_live_high_water() {
        // H = F = 64, attention's query-tile width, at one sequence short
        // enough for one attention lane: every large buffer (activation,
        // gradient, score tile) has length S·64, so the arena pools exactly
        // the most of them ever alive at once. The forward and the FFN
        // backward peak at 12; the attention backward at 13: x, x1, q, k,
        // v, attn_o, the residual gradient, attention's upstream gradient,
        // dq, dk, dv and its two score tiles. Beside them: two inv-RMS rows
        // and the log-sum-exp (S each), and one gain gradient (H).
        let mut cfg = ModelConfig::llama_like(64, 1, 1, 11, 15);
        cfg.ffn = cfg.hidden;
        let rope = cfg.rope_table();
        let w = init_block(&cfg, 3, 0);
        let seq = 15;
        let big = seq * cfg.hidden;
        let x = Tensor::randn([big], 0.5, 72).into_vec();
        let dy = Tensor::randn([big], 1.0, 73).into_vec();
        let mut dw = vec![0.0f32; w.len()];
        let sc = Scratch::new();
        for _ in 0..2 {
            let (_, ctx) = block_forward(&cfg, &rope, &w, &x, 1, seq, &sc);
            let ck = ctx.into_checkpoint();
            let dy = sc.take_copy(&dy);
            block_backward_checkpointed(&cfg, &rope, &w, ck, dy, &mut dw, 1, seq, &sc);
        }
        assert_eq!(sc.pooled_elems(), 13 * big + 3 * seq + cfg.hidden);
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
