//! Embedding input layer and the output head (final RMSNorm + projection).
//!
//! In WeiPipe these two are *replicated* on every worker (each worker runs
//! whole microbatches end to end) with their small gradients all-reduced
//! once per iteration; in activation-passing pipelines they live on the
//! first and last stage respectively. Both runtimes use the functions here.
//!
//! The head finishes its loss at forward time: the caller runs
//! [`cross_entropy`](wp_tensor::ops::cross_entropy) over the logits
//! [`head_forward`] returns, which records the loss and leaves the logit
//! gradient in their place. What the head backward needs is then that
//! gradient and the [`HeadCtx`] (the head input, its normalised form and
//! the inverse RMS), and [`head_backward`] is two matmuls and the norm
//! backward.

use crate::config::ModelConfig;
use crate::params::HeadLayout;
use crate::scratch::{Scratch, ScratchBuf};
use wp_tensor::ops::{
    embedding_backward, embedding_forward, matmul_nn, matmul_nt, matmul_tn, rmsnorm_backward,
    rmsnorm_forward,
};

/// Look up token embeddings: `[tokens] -> [tokens, H]`.
pub fn embed_forward(
    cfg: &ModelConfig,
    embed_w: &[f32],
    ids: &[u32],
    scratch: &Scratch,
) -> ScratchBuf {
    let mut x = scratch.take(ids.len() * cfg.hidden);
    embedding_forward(&mut x, embed_w, ids, cfg.vocab, cfg.hidden);
    x
}

/// Accumulate embedding gradients from `dx` (`[tokens, H]`).
pub fn embed_backward(cfg: &ModelConfig, dembed: &mut [f32], dx: &[f32], ids: &[u32]) {
    embedding_backward(dembed, dx, ids, cfg.vocab, cfg.hidden);
}

/// Saved state for the head backward.
#[derive(Debug, Clone)]
pub struct HeadCtx {
    /// Head input (last block's output).
    x: ScratchBuf,
    xn: ScratchBuf,
    inv_rms: ScratchBuf,
}

impl HeadCtx {
    /// Placeholder ctx holding nothing (pre-first-forward state).
    pub fn empty() -> Self {
        HeadCtx {
            x: ScratchBuf::empty(),
            xn: ScratchBuf::empty(),
            inv_rms: ScratchBuf::empty(),
        }
    }
}

/// Head forward: final RMSNorm then projection to logits `[tokens, vocab]`.
///
/// Takes the head input by value: the returned [`HeadCtx`] keeps it, with
/// the normalised input and the inverse RMS, for [`head_backward`]. A
/// training caller finishes the loss here, at forward time, by running
/// [`cross_entropy`](wp_tensor::ops::cross_entropy) over the logits, and
/// saves the gradient that leaves in their place.
pub fn head_forward(
    cfg: &ModelConfig,
    head_w: &[f32],
    x: ScratchBuf,
    scratch: &Scratch,
) -> (ScratchBuf, HeadCtx) {
    let h = cfg.hidden;
    let tokens = x.len() / h;
    assert_eq!(x.len(), tokens * h);
    let lay = HeadLayout::new(cfg);
    assert_eq!(head_w.len(), lay.len());
    let mut xn = scratch.take(tokens * h);
    let mut inv_rms = scratch.take(tokens);
    rmsnorm_forward(
        &mut xn,
        Some(&mut inv_rms),
        &x,
        &head_w[lay.norm()],
        tokens,
        h,
        cfg.eps,
    );
    let mut logits = scratch.take(tokens * cfg.vocab);
    matmul_nt(&mut logits, &xn, &head_w[lay.wout()], tokens, h, cfg.vocab);
    (logits, HeadCtx { x, xn, inv_rms })
}

/// Head backward from the logit gradient `dlogits` (`[tokens, vocab]`, as
/// [`cross_entropy`](wp_tensor::ops::cross_entropy) left it, already
/// scaled): back-propagates through the projection and final norm.
/// Gradients accumulate into `dhead`; returns `∂L/∂x`.
pub fn head_backward(
    cfg: &ModelConfig,
    head_w: &[f32],
    ctx: &HeadCtx,
    dlogits: &[f32],
    dhead: &mut [f32],
    scratch: &Scratch,
) -> ScratchBuf {
    let h = cfg.hidden;
    let v = cfg.vocab;
    let tokens = ctx.inv_rms.len();
    assert_eq!(dlogits.len(), tokens * v);
    let lay = HeadLayout::new(cfg);
    assert_eq!(dhead.len(), lay.len());

    matmul_tn(&mut dhead[lay.wout()], dlogits, &ctx.xn, v, tokens, h);
    let mut dxn = scratch.take(tokens * h);
    matmul_nn(&mut dxn, dlogits, &head_w[lay.wout()], tokens, v, h);

    let mut dx = scratch.take(tokens * h);
    // Split dhead to satisfy the borrow checker: norm gain grads live at the
    // front of the buffer.
    let (norm_grad, _) = dhead.split_at_mut(lay.norm().end);
    rmsnorm_backward(
        &mut dx,
        norm_grad,
        &dxn,
        &ctx.x,
        &head_w[lay.norm()],
        &ctx.inv_rms,
        tokens,
        h,
    );
    dx
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{init_embed, init_head};
    use wp_tensor::ops::cross_entropy;
    use wp_tensor::Tensor;

    fn cfg() -> ModelConfig {
        ModelConfig::tiny(1)
    }

    /// Head forward, the loss and the head backward at `grad_scale`:
    /// `(loss, dhead, dx)`.
    fn head_step(
        c: &ModelConfig,
        hw: &[f32],
        x: &[f32],
        targets: &[u32],
        grad_scale: f32,
        sc: &Scratch,
    ) -> (f32, Vec<f32>, ScratchBuf) {
        let (mut dlogits, ctx) = head_forward(c, hw, sc.take_copy(x), sc);
        let loss = cross_entropy(&mut dlogits, targets, c.vocab, grad_scale);
        let mut dhead = vec![0.0f32; hw.len()];
        let dx = head_backward(c, hw, &ctx, &dlogits, &mut dhead, sc);
        (loss, dhead, dx)
    }

    #[test]
    fn embed_roundtrip_shapes() {
        let c = cfg();
        let sc = Scratch::new();
        let w = init_embed(&c, 1);
        let ids = [0u32, 3, 10, 3];
        let x = embed_forward(&c, &w, &ids, &sc);
        assert_eq!(x.len(), 4 * c.hidden);
        // Rows for equal ids are equal.
        assert_eq!(&x[c.hidden..2 * c.hidden], &x[3 * c.hidden..4 * c.hidden]);
        let mut d = vec![0.0; w.len()];
        embed_backward(&c, &mut d, &x, &ids);
        assert!(d.iter().any(|&v| v != 0.0));
    }

    #[test]
    fn head_gradcheck() {
        let c = cfg();
        let sc = Scratch::new();
        let hw = init_head(&c, 2);
        let tokens = 3;
        let x = Tensor::randn([tokens * c.hidden], 0.5, 71).into_vec();
        let targets = [1u32, 5, 9];

        let loss_fn = |hw: &[f32], x: &[f32]| -> f32 {
            let (mut logits, _) = head_forward(&c, hw, sc.take_copy(x), &sc);
            cross_entropy(&mut logits, &targets, c.vocab, 1.0)
        };

        let (loss, dhead, dx) = head_step(&c, &hw, &x, &targets, 1.0, &sc);
        assert_eq!(loss, loss_fn(&hw, &x));

        let step = 5e-3;
        for i in (0..hw.len()).step_by(hw.len() / 17) {
            let mut wp = hw.clone();
            wp[i] += step;
            let mut wm = hw.clone();
            wm[i] -= step;
            let num = (loss_fn(&wp, &x) - loss_fn(&wm, &x)) / (2.0 * step);
            assert!(
                (dhead[i] - num).abs() < 2e-2,
                "dhead[{i}] {} vs {num}",
                dhead[i]
            );
        }
        for i in (0..x.len()).step_by(5) {
            let mut xp = x.clone();
            xp[i] += step;
            let mut xm = x.clone();
            xm[i] -= step;
            let num = (loss_fn(&hw, &xp) - loss_fn(&hw, &xm)) / (2.0 * step);
            assert!((dx[i] - num).abs() < 2e-2, "dx[{i}] {} vs {num}", dx[i]);
        }
    }

    #[test]
    fn grad_scale_scales_gradients_not_loss() {
        let c = cfg();
        let sc = Scratch::new();
        let hw = init_head(&c, 3);
        let x = Tensor::randn([2 * c.hidden], 0.5, 72).into_vec();
        let targets = [0u32, 4];
        let (l1, d1, dx1) = head_step(&c, &hw, &x, &targets, 1.0, &sc);
        let (l2, d2, dx2) = head_step(&c, &hw, &x, &targets, 0.5, &sc);
        assert_eq!(l1, l2);
        for i in 0..hw.len() {
            assert!((d2[i] - 0.5 * d1[i]).abs() < 1e-6);
        }
        for i in 0..dx1.len() {
            assert!((dx2[i] - 0.5 * dx1[i]).abs() < 1e-6);
        }
    }
}
