//! Property-based tests for the transformer: kernel equivalences that must
//! hold for arbitrary shapes and inputs.

mod common;

use common::{naive_backward, naive_forward};
use proptest::prelude::*;
use proptest::sample::select;
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::block::{
    block_backward, block_backward_checkpointed, block_backward_data, block_backward_full,
    block_backward_recompute, block_backward_weight, block_forward,
};
use wp_nn::config::ModelConfig;
use wp_nn::params::init_block;
use wp_nn::scratch::Scratch;
use wp_tensor::Tensor;

fn cfg_with(heads: usize, head_dim: usize, ffn: usize) -> ModelConfig {
    let hidden = heads * head_dim;
    let mut c = ModelConfig::llama_like(hidden, heads, 1, 16, 80);
    c.ffn = ffn;
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn streaming_equals_naive_attention(
        batch in 1usize..3,
        seq in 1usize..9,
        heads in 1usize..3,
        half_dim in 1usize..4,
        seed in 0u64..1000
    ) {
        let head_dim = 2 * half_dim;
        let dims = AttnDims::mha(batch, seq, heads, head_dim);
        let n = batch * seq * heads * head_dim;
        let q = Tensor::rand_uniform([n], -1.0, 1.0, seed).into_vec();
        let k = Tensor::rand_uniform([n], -1.0, 1.0, seed + 1).into_vec();
        let v = Tensor::rand_uniform([n], -1.0, 1.0, seed + 2).into_vec();
        let dout = Tensor::rand_uniform([n], -1.0, 1.0, seed + 3).into_vec();

        let sc = Scratch::new();
        let mut o1 = vec![0.0; n];
        let probs = naive_forward(&mut o1, &q, &k, &v, dims);
        let mut o2 = vec![0.0; n];
        let lse = streaming_forward(&mut o2, &q, &k, &v, dims, &sc);
        for (a, b) in o1.iter().zip(&o2) {
            prop_assert!((a - b).abs() < 1e-4);
        }

        let (mut dq1, mut dk1, mut dv1) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        naive_backward(&mut dq1, &mut dk1, &mut dv1, &dout, &q, &k, &v, &probs, dims);
        let (mut dq2, mut dk2, mut dv2) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
        streaming_backward(&mut dq2, &mut dk2, &mut dv2, &dout, &q, &k, &v, &o2, &lse, dims, &sc);
        for i in 0..n {
            prop_assert!((dq1[i] - dq2[i]).abs() < 1e-3, "dq[{i}]");
            prop_assert!((dk1[i] - dk2[i]).abs() < 1e-3, "dk[{i}]");
            prop_assert!((dv1[i] - dv2[i]).abs() < 1e-3, "dv[{i}]");
        }
    }

    #[test]
    fn split_backward_equals_fused(
        batch in 1usize..3,
        seq in 1usize..6,
        heads in 1usize..3,
        seed in 0u64..1000
    ) {
        let cfg = cfg_with(heads, 4, 12);
        let rope = cfg.rope_table();
        let w = init_block(&cfg, seed, 0);
        let n = batch * seq * cfg.hidden;
        let x = Tensor::rand_uniform([n], -1.0, 1.0, seed + 1).into_vec();
        let dy = Tensor::rand_uniform([n], -1.0, 1.0, seed + 2).into_vec();

        let sc = Scratch::new();
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        let mut dw_full = vec![0.0; w.len()];
        let dx_full =
            block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw_full, batch, seq, &sc);
        let (dx_split, bctx) = block_backward_data(&cfg, &rope, &w, &ctx, &dy, batch, seq, &sc);
        let shed = ctx.into_weight_inputs();
        let mut dw_split = vec![0.0; w.len()];
        block_backward_weight(&cfg, &shed, &bctx, &mut dw_split, batch, seq);
        // The consuming fused backward, on a context of its own.
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        let mut dw_own = vec![0.0; w.len()];
        let dx_own = block_backward(
            &cfg, &rope, &w, ctx, sc.take_copy(&dy), &mut dw_own, batch, seq, &sc,
        );

        prop_assert_eq!(&dx_full, &dx_split);
        prop_assert_eq!(&dw_full, &dw_split);
        prop_assert_eq!(dx_full, dx_own);
        prop_assert_eq!(dw_full, dw_own);
    }

    #[test]
    fn checkpointed_and_recomputed_equal_saved(
        batch in 1usize..3,
        seq in select(vec![1usize, 2, 3, 5, 63, 64, 65, 67]),
        kv_heads in select(vec![1usize, 2]),
        seed in 0u64..1000
    ) {
        // The backward from a checkpoint (input, attention output and lse)
        // and the full recompute from the input alone both reproduce the
        // backward from the saved context bit for bit — on either side of
        // attention's 64-query tile and with grouped-query attention.
        let cfg = cfg_with(2, 4, 12).with_gqa(kv_heads);
        let rope = cfg.rope_table();
        let w = init_block(&cfg, seed, 0);
        let n = batch * seq * cfg.hidden;
        let x = Tensor::rand_uniform([n], -1.0, 1.0, seed + 1).into_vec();
        let dy = Tensor::rand_uniform([n], -1.0, 1.0, seed + 2).into_vec();

        let sc = Scratch::new();
        let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
        let mut dw1 = vec![0.0; w.len()];
        let dx1 = block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw1, batch, seq, &sc);
        let mut dw2 = vec![0.0; w.len()];
        let dx2 = block_backward_checkpointed(
            &cfg, &rope, &w, ctx.into_checkpoint(), sc.take_copy(&dy), &mut dw2, batch, seq, &sc,
        );
        let mut dw3 = vec![0.0; w.len()];
        let dx3 =
            block_backward_recompute(&cfg, &rope, &w, &x, &dy, &mut dw3, batch, seq, &sc);
        prop_assert_eq!(&dx1, &dx2);
        prop_assert_eq!(&dw1, &dw2);
        prop_assert_eq!(dx1, dx3);
        prop_assert_eq!(dw1, dw3);
    }

    #[test]
    fn forward_is_batch_consistent(
        seq in 1usize..6,
        seed in 0u64..1000
    ) {
        // Running two samples in one batch must equal running them alone
        // (no cross-sample leakage through attention or norms).
        let cfg = cfg_with(2, 4, 12);
        let rope = cfg.rope_table();
        let w = init_block(&cfg, seed, 0);
        let per = seq * cfg.hidden;
        let xa = Tensor::rand_uniform([per], -1.0, 1.0, seed + 1).into_vec();
        let xb = Tensor::rand_uniform([per], -1.0, 1.0, seed + 2).into_vec();
        let mut both = xa.clone();
        both.extend_from_slice(&xb);
        let sc = Scratch::new();
        let (y_both, _) = block_forward(&cfg, &rope, &w, &both, 2, seq, &sc);
        let (ya, _) = block_forward(&cfg, &rope, &w, &xa, 1, seq, &sc);
        let (yb, _) = block_forward(&cfg, &rope, &w, &xb, 1, seq, &sc);
        for (got, want) in y_both[..per].iter().zip(&ya[..]) {
            prop_assert!((got - want).abs() < 1e-5);
        }
        for (got, want) in y_both[per..].iter().zip(&yb[..]) {
            prop_assert!((got - want).abs() < 1e-5);
        }
    }
}
