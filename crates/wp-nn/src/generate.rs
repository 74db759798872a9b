//! Autoregressive generation from a trained [`Model`] — the end-to-end
//! check that distributed training produced a model that actually *works*,
//! not just one with matching weights.

use crate::model::Model;

/// Greedy-decode `steps` tokens after the `prompt`.
///
/// Runs the full forward per step (no KV cache — this is a correctness
/// utility, not a serving path) and picks the arg-max next token. The
/// context is truncated to the model's RoPE window from the left.
pub fn generate_greedy(model: &Model, prompt: &[u32], steps: usize) -> Vec<u32> {
    assert!(!prompt.is_empty(), "prompt must be non-empty");
    let mut tokens = prompt.to_vec();
    for _ in 0..steps {
        let start = tokens.len().saturating_sub(model.cfg.max_seq);
        let window = &tokens[start..];
        let ctx = model.forward(window, 1, window.len());
        let next = argmax_last_token(&ctx, window.len(), model.cfg.vocab);
        tokens.push(next);
    }
    tokens
}

fn argmax_last_token(ctx: &crate::model::ModelFwdCtx, seq: usize, vocab: usize) -> u32 {
    let logits = ctx.logits();
    let row = &logits[(seq - 1) * vocab..seq * vocab];
    row.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
        .expect("non-empty vocab")
        .0 as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use crate::data::microbatch;
    use crate::model::{Model, ModelGrads};

    fn train_tiny(iters: usize) -> Model {
        let cfg = ModelConfig::tiny(2);
        let mut model = Model::new(&cfg, 11);
        for iter in 0..iters {
            let mut grads = ModelGrads::zeros_like(&model);
            for mb in 0..4 {
                let (ids, tg) = microbatch(cfg.vocab, 2, 8, iter, mb);
                model.train_step(&ids, &tg, 2, 8, &mut grads, 0.25);
            }
            let lr = 0.3;
            for (w, g) in model.embed.iter_mut().zip(&grads.embed) {
                *w -= lr * g;
            }
            for (wb, gb) in model.blocks.iter_mut().zip(&grads.blocks) {
                for (w, g) in wb.iter_mut().zip(gb) {
                    *w -= lr * g;
                }
            }
            for (w, g) in model.head.iter_mut().zip(&grads.head) {
                *w -= lr * g;
            }
        }
        model
    }

    #[test]
    fn generation_produces_valid_tokens() {
        let model = train_tiny(1);
        let out = generate_greedy(&model, &[1, 2, 3], 5);
        assert_eq!(out.len(), 8);
        assert!(out.iter().all(|&t| (t as usize) < model.cfg.vocab));
        assert_eq!(&out[..3], &[1, 2, 3], "prompt preserved");
    }

    #[test]
    fn generation_is_deterministic() {
        let model = train_tiny(3);
        let a = generate_greedy(&model, &[0, 1], 6);
        let b = generate_greedy(&model, &[0, 1], 6);
        assert_eq!(a, b);
    }
}
