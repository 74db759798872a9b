//! The whole model: embedding, `L` transformer blocks, output head.
//!
//! [`Model`] owns every parameter buffer; [`ModelGrads`] mirrors the layout.
//! The single-process train step here is the *reference* every distributed
//! strategy is verified against: same seed, same batch → identical (f32)
//! gradients, whatever the schedule.

use crate::block::{block_backward_full, block_forward, BlockCtx};
use crate::config::ModelConfig;
use crate::embed::{embed_backward, embed_forward, head_forward, head_loss_backward, HeadCtx};
use crate::params::{init_block, init_embed, init_head};
use crate::scratch::{Scratch, ScratchBuf};
use wp_tensor::ops::RopeTable;

/// All parameters of a model instance.
#[derive(Debug, Clone)]
pub struct Model {
    /// Configuration the buffers were sized for.
    pub cfg: ModelConfig,
    /// Shared RoPE table.
    pub rope: RopeTable,
    /// Embedding table, `[vocab, H]` flat.
    pub embed: Vec<f32>,
    /// One flat buffer per block (see [`crate::params::BlockLayout`]).
    pub blocks: Vec<Vec<f32>>,
    /// Head buffer (see [`crate::params::HeadLayout`]).
    pub head: Vec<f32>,
    /// Scratch arena feeding every forward/backward temporary. Cloning a
    /// model shares the arena (it is a recycling pool, not state).
    pub scratch: Scratch,
}

/// Gradient buffers matching [`Model`]'s layout.
#[derive(Debug, Clone)]
pub struct ModelGrads {
    /// `∂L/∂embed`.
    pub embed: Vec<f32>,
    /// `∂L/∂blocks[l]`.
    pub blocks: Vec<Vec<f32>>,
    /// `∂L/∂head`.
    pub head: Vec<f32>,
}

impl ModelGrads {
    /// Zero gradients for a model.
    pub fn zeros_like(model: &Model) -> Self {
        ModelGrads {
            embed: vec![0.0; model.embed.len()],
            blocks: model.blocks.iter().map(|b| vec![0.0; b.len()]).collect(),
            head: vec![0.0; model.head.len()],
        }
    }

    /// Reset all gradients to zero in place (no reallocation).
    pub fn zero(&mut self) {
        self.embed.fill(0.0);
        for b in &mut self.blocks {
            b.fill(0.0);
        }
        self.head.fill(0.0);
    }
}

/// Saved activations for one microbatch's full-model backward.
///
/// Reusable: [`Model::forward_into`] refills an existing ctx without fresh
/// allocations (the buffers inside recycle through the model's arena).
pub struct ModelFwdCtx {
    ids: Vec<u32>,
    block_ctxs: Vec<BlockCtx>,
    head_ctx: HeadCtx,
    logits: ScratchBuf,
    batch: usize,
    seq: usize,
}

impl ModelFwdCtx {
    /// An empty ctx to pass to [`Model::forward_into`].
    pub fn empty() -> Self {
        ModelFwdCtx {
            ids: Vec::new(),
            block_ctxs: Vec::new(),
            head_ctx: HeadCtx::empty(),
            logits: ScratchBuf::empty(),
            batch: 0,
            seq: 0,
        }
    }

    /// The forward pass's output logits, `[batch·seq, vocab]`.
    pub fn logits(&self) -> &[f32] {
        &self.logits
    }
}

impl Default for ModelFwdCtx {
    fn default() -> Self {
        ModelFwdCtx::empty()
    }
}

impl Model {
    /// Assemble a model from externally produced parameter buffers
    /// (checkpoint loading, distributed-training output). Validates buffer
    /// lengths against the config.
    pub fn from_parts(
        cfg: ModelConfig,
        embed: Vec<f32>,
        blocks: Vec<Vec<f32>>,
        head: Vec<f32>,
    ) -> Result<Self, String> {
        if embed.len() != cfg.embed_params() {
            return Err(format!(
                "embed buffer {} != expected {}",
                embed.len(),
                cfg.embed_params()
            ));
        }
        if blocks.len() != cfg.layers {
            return Err(format!("{} blocks != {} layers", blocks.len(), cfg.layers));
        }
        for (l, b) in blocks.iter().enumerate() {
            if b.len() != cfg.block_params() {
                return Err(format!(
                    "block {l} buffer {} != expected {}",
                    b.len(),
                    cfg.block_params()
                ));
            }
        }
        if head.len() != cfg.head_params() {
            return Err(format!(
                "head buffer {} != expected {}",
                head.len(),
                cfg.head_params()
            ));
        }
        Ok(Model {
            rope: cfg.rope_table(),
            cfg,
            embed,
            blocks,
            head,
            scratch: Scratch::new(),
        })
    }

    /// Deterministically initialise a model from a seed.
    pub fn new(cfg: &ModelConfig, seed: u64) -> Self {
        Model {
            cfg: cfg.clone(),
            rope: cfg.rope_table(),
            embed: init_embed(cfg, seed),
            blocks: (0..cfg.layers).map(|l| init_block(cfg, seed, l)).collect(),
            head: init_head(cfg, seed),
            scratch: Scratch::new(),
        }
    }

    /// Forward pass for one microbatch of shape `[batch, seq]`.
    pub fn forward(&self, ids: &[u32], batch: usize, seq: usize) -> ModelFwdCtx {
        let mut ctx = ModelFwdCtx::empty();
        self.forward_into(ids, batch, seq, &mut ctx);
        ctx
    }

    /// Forward pass reusing an existing [`ModelFwdCtx`]. After a warm-up
    /// step, refilling a ctx performs zero heap allocations: its previous
    /// buffers drop back into the arena and are taken right back out.
    pub fn forward_into(&self, ids: &[u32], batch: usize, seq: usize, ctx: &mut ModelFwdCtx) {
        assert_eq!(ids.len(), batch * seq, "ids shape");
        assert!(seq <= self.cfg.max_seq, "sequence longer than RoPE table");
        ctx.ids.clear();
        ctx.ids.extend_from_slice(ids);
        ctx.batch = batch;
        ctx.seq = seq;
        ctx.block_ctxs.clear();
        let mut x = embed_forward(&self.cfg, &self.embed, ids, &self.scratch);
        for w in &self.blocks {
            let (y, bctx) = block_forward(&self.cfg, &self.rope, w, &x, batch, seq, &self.scratch);
            ctx.block_ctxs.push(bctx);
            x = y;
        }
        let (logits, head_ctx) = head_forward(&self.cfg, &self.head, &x, &self.scratch);
        ctx.logits = logits;
        ctx.head_ctx = head_ctx;
    }

    /// Mean cross-entropy of a forward pass against `targets`.
    pub fn loss(&self, ctx: &ModelFwdCtx, targets: &[u32]) -> f32 {
        wp_tensor::ops::cross_entropy_loss(&ctx.logits, targets, self.cfg.vocab)
    }

    /// Backward pass: accumulates into `grads`, returns the loss.
    ///
    /// `grad_scale` multiplies the loss gradient (microbatch averaging /
    /// loss scaling).
    pub fn backward(
        &self,
        ctx: &ModelFwdCtx,
        targets: &[u32],
        grads: &mut ModelGrads,
        grad_scale: f32,
    ) -> f32 {
        assert_eq!(targets.len(), ctx.batch * ctx.seq, "targets shape");
        let (loss, mut dx) = head_loss_backward(
            &self.cfg,
            &self.head,
            &ctx.head_ctx,
            &ctx.logits,
            targets,
            &mut grads.head,
            grad_scale,
            &self.scratch,
        );
        for l in (0..self.cfg.layers).rev() {
            dx = block_backward_full(
                &self.cfg,
                &self.rope,
                &self.blocks[l],
                &ctx.block_ctxs[l],
                &dx,
                &mut grads.blocks[l],
                ctx.batch,
                ctx.seq,
                &self.scratch,
            );
        }
        embed_backward(&self.cfg, &mut grads.embed, &dx, &ctx.ids);
        loss
    }

    /// Convenience: forward + backward for one microbatch.
    pub fn train_step(
        &self,
        ids: &[u32],
        targets: &[u32],
        batch: usize,
        seq: usize,
        grads: &mut ModelGrads,
        grad_scale: f32,
    ) -> f32 {
        let ctx = self.forward(ids, batch, seq);
        self.backward(&ctx, targets, grads, grad_scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::synthetic_batch;

    #[test]
    fn param_count_matches_config() {
        let cfg = ModelConfig::tiny(3);
        let m = Model::new(&cfg, 5);
        let held = m.embed.len() + m.blocks.iter().map(Vec::len).sum::<usize>() + m.head.len();
        assert_eq!(held, cfg.total_params());
    }

    #[test]
    fn forward_backward_runs_and_loss_is_sane() {
        let cfg = ModelConfig::tiny(2);
        let m = Model::new(&cfg, 5);
        let (ids, targets) = synthetic_batch(cfg.vocab, 2, 6, 99);
        let ctx = m.forward(&ids, 2, 6);
        let mut grads = ModelGrads::zeros_like(&m);
        let loss = m.backward(&ctx, &targets, &mut grads, 1.0);
        // Untrained model ≈ uniform predictions.
        assert!((loss - (cfg.vocab as f32).ln()).abs() < 1.0, "loss {loss}");
        assert!(grads.head.iter().any(|&g| g != 0.0));
        // Fused (−ln p) and eval (lse − logit) paths agree to float noise.
        assert!((loss - m.loss(&ctx, &targets)).abs() < 1e-5);
    }

    #[test]
    fn one_sgd_step_reduces_loss() {
        let cfg = ModelConfig::tiny(2);
        let mut m = Model::new(&cfg, 6);
        let (ids, targets) = synthetic_batch(cfg.vocab, 2, 8, 100);
        let mut grads = ModelGrads::zeros_like(&m);
        let loss0 = m.train_step(&ids, &targets, 2, 8, &mut grads, 1.0);
        let lr = 0.5;
        for (w, g) in m.embed.iter_mut().zip(&grads.embed) {
            *w -= lr * g;
        }
        for (wb, gb) in m.blocks.iter_mut().zip(&grads.blocks) {
            for (w, g) in wb.iter_mut().zip(gb) {
                *w -= lr * g;
            }
        }
        for (w, g) in m.head.iter_mut().zip(&grads.head) {
            *w -= lr * g;
        }
        let ctx = m.forward(&ids, 2, 8);
        let loss1 = m.loss(&ctx, &targets);
        assert!(
            loss1 < loss0,
            "SGD step must reduce loss: {loss0} -> {loss1}"
        );
    }

    #[test]
    fn grads_sum_over_microbatches() {
        let cfg = ModelConfig::tiny(1);
        let m = Model::new(&cfg, 7);
        let (ids_a, tg_a) = synthetic_batch(cfg.vocab, 1, 5, 1);
        let (ids_b, tg_b) = synthetic_batch(cfg.vocab, 1, 5, 2);
        let mut g_a = ModelGrads::zeros_like(&m);
        m.train_step(&ids_a, &tg_a, 1, 5, &mut g_a, 0.5);
        let mut g_b = ModelGrads::zeros_like(&m);
        m.train_step(&ids_b, &tg_b, 1, 5, &mut g_b, 0.5);
        let mut g_sum = ModelGrads::zeros_like(&m);
        m.train_step(&ids_a, &tg_a, 1, 5, &mut g_sum, 0.5);
        m.train_step(&ids_b, &tg_b, 1, 5, &mut g_sum, 0.5);
        let close = |sum: &[f32], a: &[f32], b: &[f32]| {
            sum.iter()
                .zip(a.iter().zip(b))
                .all(|(s, (a, b))| (s - (a + b)).abs() < 1e-5)
        };
        assert!(close(&g_sum.head, &g_a.head, &g_b.head));
        for (l, sum) in g_sum.blocks.iter().enumerate() {
            assert!(close(sum, &g_a.blocks[l], &g_b.blocks[l]), "block {l}");
        }
    }
}
