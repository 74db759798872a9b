//! Fused softmax + cross-entropy for next-token prediction: one pass over
//! the logits yields the loss and leaves their gradient in their place.

/// Mean cross-entropy of `logits` against `targets`, overwriting the
/// logits in the same pass with `grad_scale · ∂(mean CE)/∂logits`.
///
/// * `logits`: `[tokens, vocab]` — *overwritten* with the scaled gradient.
/// * `targets`: `[tokens]` class indices; an index of `u32::MAX` marks a
///   padded position that contributes neither loss nor gradient (its row
///   is zeroed).
/// * `grad_scale`: multiplies the gradient, not the loss — callers pass
///   `1/N` for microbatch averaging times the fp16 loss scale.
///
/// A token's loss is `max + ln Σ exp(v − max) − v_target`. Returns the
/// mean over non-ignored tokens (0 if all are ignored).
pub fn cross_entropy(logits: &mut [f32], targets: &[u32], vocab: usize, grad_scale: f32) -> f32 {
    assert_eq!(logits.len(), targets.len() * vocab);
    let active = targets.iter().filter(|&&t| t != u32::MAX).count();
    if active == 0 {
        logits.fill(0.0);
        return 0.0;
    }
    let inv_n = 1.0 / active as f32;
    let mut total = 0.0f64;
    for (row, &tgt) in logits.chunks_exact_mut(vocab).zip(targets) {
        if tgt == u32::MAX {
            row.fill(0.0);
            continue;
        }
        let tgt = tgt as usize;
        assert!(tgt < vocab, "target {tgt} out of vocab {vocab}");
        let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
        let logit = row[tgt];
        let mut sum = 0.0f32;
        for v in row.iter_mut() {
            *v = (*v - max).exp();
            sum += *v;
        }
        total += (max + sum.ln() - logit) as f64;
        // e · (1/Σ · 1/N) · scale, the target's `− 1/N` before the scale:
        // the multiplies of a softmax-then-scale pass, so the same bits.
        let p = (1.0 / sum) * inv_n;
        let e_tgt = row[tgt];
        for d in row.iter_mut() {
            *d = *d * p * grad_scale;
        }
        row[tgt] = (e_tgt * p - inv_n) * grad_scale;
    }
    (total / active as f64) as f32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tensor::Tensor;
    use oracle::{cross_entropy_forward_backward, cross_entropy_loss};

    /// The two cross-entropy functions the fused pass replaced, kept
    /// verbatim as its bit-level oracles: the runtime reported
    /// `cross_entropy_loss` at forward time, then ran
    /// `cross_entropy_forward_backward` over the same logits again for the
    /// gradient.
    mod oracle {
        /// Mean cross-entropy over tokens, with the gradient w.r.t. logits computed
        /// in the same pass.
        ///
        /// * `logits`: `[tokens, vocab]` — consumed read-only.
        /// * `targets`: `[tokens]` class indices; an index of `u32::MAX` marks a
        ///   padded position that contributes neither loss nor gradient.
        /// * `dlogits`: `[tokens, vocab]` — *overwritten* with `∂(mean CE)/∂logits`.
        ///
        /// Returns the mean loss over non-ignored tokens (0 if all are ignored).
        pub fn cross_entropy_forward_backward(
            dlogits: &mut [f32],
            logits: &[f32],
            targets: &[u32],
            vocab: usize,
        ) -> f32 {
            let tokens = targets.len();
            assert_eq!(logits.len(), tokens * vocab);
            assert_eq!(dlogits.len(), tokens * vocab);
            let active = targets.iter().filter(|&&t| t != u32::MAX).count();
            if active == 0 {
                dlogits.fill(0.0);
                return 0.0;
            }
            let inv_n = 1.0 / active as f32;
            let mut total = 0.0f64;
            for (t, &tgt) in targets.iter().enumerate() {
                let row = &logits[t * vocab..(t + 1) * vocab];
                let drow = &mut dlogits[t * vocab..(t + 1) * vocab];
                if tgt == u32::MAX {
                    drow.fill(0.0);
                    continue;
                }
                let tgt = tgt as usize;
                assert!(tgt < vocab, "target {tgt} out of vocab {vocab}");
                let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let mut sum = 0.0f32;
                for (d, &v) in drow.iter_mut().zip(row) {
                    let e = (v - max).exp();
                    *d = e;
                    sum += e;
                }
                let inv_sum = 1.0 / sum;
                for d in drow.iter_mut() {
                    *d *= inv_sum * inv_n;
                }
                // p_tgt before the subtraction: recover from the scaled value.
                let p_tgt = drow[tgt] / inv_n;
                drow[tgt] -= inv_n;
                total += -(p_tgt.max(1e-30).ln()) as f64;
            }
            (total / active as f64) as f32
        }

        /// Loss only (no gradient); used for evaluation loops.
        pub fn cross_entropy_loss(logits: &[f32], targets: &[u32], vocab: usize) -> f32 {
            let tokens = targets.len();
            assert_eq!(logits.len(), tokens * vocab);
            let mut total = 0.0f64;
            let mut active = 0usize;
            for (t, &tgt) in targets.iter().enumerate() {
                if tgt == u32::MAX {
                    continue;
                }
                active += 1;
                let tgt = tgt as usize;
                let row = &logits[t * vocab..(t + 1) * vocab];
                let max = row.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
                let lse = max + row.iter().map(|&v| (v - max).exp()).sum::<f32>().ln();
                total += (lse - row[tgt]) as f64;
            }
            if active == 0 {
                0.0
            } else {
                (total / active as f64) as f32
            }
        }
    }

    /// `(loss, gradient)` of the fused pass over a copy of `logits`.
    fn fused(logits: &[f32], targets: &[u32], vocab: usize, grad_scale: f32) -> (f32, Vec<f32>) {
        let mut d = logits.to_vec();
        let loss = cross_entropy(&mut d, targets, vocab, grad_scale);
        (loss, d)
    }

    /// The fused pass is the runtime's forward-time loss and the old
    /// gradient pass followed by the head's scale loop, bit for bit.
    #[test]
    fn fused_pass_matches_both_oracles_bit_for_bit() {
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for seed in 0..60u64 {
            let vocab = [1, 7, 64, 256][seed as usize % 4];
            let tokens = 1 + (seed as usize * 7) % 19;
            let std = [0.1, 1.0, 4.0, 20.0][(seed / 4) as usize % 4];
            let logits = Tensor::randn([tokens * vocab], std, 500 + seed).into_vec();
            let mut targets: Vec<u32> = (0..tokens)
                .map(|t| ((t as u64 * 2654435761 + seed * 97) % vocab as u64) as u32)
                .collect();
            // Ignored rows among live ones; every fifth case has no live row.
            for t in (seed as usize % 3..tokens).step_by(3) {
                targets[t] = u32::MAX;
            }
            if seed % 5 == 4 {
                targets.fill(u32::MAX);
            }
            let n = 1 + seed as usize % 8;
            for grad_scale in [1.0, 1.0 / n as f32, 1024.0 / n as f32] {
                let (loss, grad) = fused(&logits, &targets, vocab, grad_scale);
                assert_eq!(
                    loss.to_bits(),
                    cross_entropy_loss(&logits, &targets, vocab).to_bits(),
                    "loss, seed {seed} scale {grad_scale}"
                );
                let mut want = vec![0.0; logits.len()];
                cross_entropy_forward_backward(&mut want, &logits, &targets, vocab);
                if grad_scale != 1.0 {
                    for d in want.iter_mut() {
                        *d *= grad_scale;
                    }
                }
                assert_eq!(
                    bits(&grad),
                    bits(&want),
                    "gradient, seed {seed} scale {grad_scale}"
                );
            }
        }
    }

    #[test]
    fn uniform_logits_give_log_vocab() {
        let vocab = 8;
        let (loss, _) = fused(&[0.0; 16], &[3, 5], vocab, 1.0);
        assert!((loss - (vocab as f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn perfect_prediction_near_zero_loss() {
        let vocab = 4;
        let mut logits = vec![0.0; vocab];
        logits[2] = 50.0;
        let (loss, _) = fused(&logits, &[2], vocab, 1.0);
        assert!(loss < 1e-6);
    }

    #[test]
    fn gradient_matches_numeric() {
        let vocab = 6;
        let tokens = 3;
        let logits = Tensor::randn([tokens * vocab], 1.0, 41).into_vec();
        let targets = [1u32, 4, 0];
        let (_, d) = fused(&logits, &targets, vocab, 1.0);
        let h = 1e-3;
        for i in 0..logits.len() {
            let mut lp = logits.clone();
            lp[i] += h;
            let mut lm = logits.clone();
            lm[i] -= h;
            let num = (fused(&lp, &targets, vocab, 1.0).0 - fused(&lm, &targets, vocab, 1.0).0)
                / (2.0 * h);
            assert!((d[i] - num).abs() < 1e-3, "d[{i}] {} vs {num}", d[i]);
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let vocab = 5;
        let logits = Tensor::randn([2 * vocab], 1.0, 42).into_vec();
        let (_, d) = fused(&logits, &[0, 3], vocab, 1.0);
        for row in d.chunks(vocab) {
            let s: f32 = row.iter().sum();
            assert!(
                s.abs() < 1e-6,
                "softmax-CE grad rows must sum to 0, got {s}"
            );
        }
    }

    #[test]
    fn ignored_tokens_contribute_nothing() {
        let vocab = 4;
        let logits = Tensor::randn([2 * vocab], 1.0, 43).into_vec();
        let (loss_one, d_all) = fused(&logits, &[1, u32::MAX], vocab, 1.0);
        // Same as computing over only the first token.
        let (loss_first, _) = fused(&logits[..vocab], &[1], vocab, 1.0);
        assert!((loss_one - loss_first).abs() < 1e-6);
        assert_eq!(&d_all[vocab..], &vec![0.0; vocab][..]);
    }

    #[test]
    fn all_ignored_is_zero() {
        let vocab = 4;
        let (loss, d) = fused(&[1.0; 4], &[u32::MAX], vocab, 1.0);
        assert_eq!(loss, 0.0);
        assert_eq!(d, vec![0.0; vocab]);
    }
}
