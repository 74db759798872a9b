//! Grouped-query attention (GQA): correctness of the reduced-KV-head path
//! (the attention variant of larger Llama-2/3 models).

// Only the forward oracle is used here.
#[allow(dead_code)]
mod common;

use common::naive_forward;
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::block::{block_backward_full, block_forward};
use wp_nn::config::ModelConfig;
use wp_nn::params::init_block;
use wp_nn::scratch::Scratch;
use wp_tensor::Tensor;

fn gqa_cfg(heads: usize, kv_heads: usize) -> ModelConfig {
    let mut c = ModelConfig::llama_like(heads * 4, heads, 1, 16, 32).with_gqa(kv_heads);
    c.ffn = 24;
    c
}

#[test]
fn gqa_shrinks_kv_projections() {
    let mha = gqa_cfg(4, 4);
    let gqa = gqa_cfg(4, 2);
    let mqa = gqa_cfg(4, 1);
    assert!(gqa.block_params() < mha.block_params());
    assert!(mqa.block_params() < gqa.block_params());
    assert_eq!(gqa.kv_dim(), gqa.hidden / 2);
    assert_eq!(mqa.kv_dim(), mha.head_dim());
}

#[test]
fn gqa_streaming_matches_naive() {
    let dims = AttnDims {
        batch: 2,
        seq: 6,
        heads: 4,
        kv_heads: 2,
        head_dim: 4,
    };
    let nq = dims.batch * dims.seq * dims.heads * dims.head_dim;
    let nkv = dims.batch * dims.seq * dims.kv_dim();
    let q = Tensor::rand_uniform([nq], -1.0, 1.0, 1).into_vec();
    let k = Tensor::rand_uniform([nkv], -1.0, 1.0, 2).into_vec();
    let v = Tensor::rand_uniform([nkv], -1.0, 1.0, 3).into_vec();
    let sc = Scratch::new();
    let mut o1 = vec![0.0; nq];
    naive_forward(&mut o1, &q, &k, &v, dims);
    let mut o2 = vec![0.0; nq];
    streaming_forward(&mut o2, &q, &k, &v, dims, &sc);
    for (a, b) in o1.iter().zip(&o2) {
        assert!((a - b).abs() < 1e-4);
    }
}

#[test]
fn gqa_groups_share_kv() {
    // With kv_heads = 1 (multi-query), every query head attends to the SAME
    // k/v — identical q rows across heads must give identical outputs.
    let dims = AttnDims {
        batch: 1,
        seq: 4,
        heads: 2,
        kv_heads: 1,
        head_dim: 4,
    };
    let nkv = dims.seq * dims.kv_dim();
    let qrow = Tensor::rand_uniform([dims.seq * dims.head_dim], -1.0, 1.0, 4).into_vec();
    // Both heads get the same queries.
    let mut q = vec![0.0; dims.seq * 2 * dims.head_dim];
    for s in 0..dims.seq {
        for d in 0..dims.head_dim {
            q[s * 8 + d] = qrow[s * 4 + d];
            q[s * 8 + 4 + d] = qrow[s * 4 + d];
        }
    }
    let k = Tensor::rand_uniform([nkv], -1.0, 1.0, 5).into_vec();
    let v = Tensor::rand_uniform([nkv], -1.0, 1.0, 6).into_vec();
    let mut o = vec![0.0; q.len()];
    streaming_forward(&mut o, &q, &k, &v, dims, &Scratch::new());
    for s in 0..dims.seq {
        for d in 0..dims.head_dim {
            assert!(
                (o[s * 8 + d] - o[s * 8 + 4 + d]).abs() < 1e-6,
                "heads sharing kv and q must agree"
            );
        }
    }
}

#[test]
fn gqa_backward_gradcheck() {
    let dims = AttnDims {
        batch: 1,
        seq: 4,
        heads: 4,
        kv_heads: 2,
        head_dim: 2,
    };
    let nq = dims.seq * dims.heads * dims.head_dim;
    let nkv = dims.seq * dims.kv_dim();
    let q = Tensor::rand_uniform([nq], -1.0, 1.0, 7).into_vec();
    let k = Tensor::rand_uniform([nkv], -1.0, 1.0, 8).into_vec();
    let v = Tensor::rand_uniform([nkv], -1.0, 1.0, 9).into_vec();
    let dout = Tensor::rand_uniform([nq], -1.0, 1.0, 10).into_vec();
    let sc = Scratch::new();
    let loss = |q: &[f32], k: &[f32], v: &[f32]| -> f32 {
        let mut o = vec![0.0; nq];
        streaming_forward(&mut o, q, k, v, dims, &sc);
        o.iter().zip(&dout).map(|(a, b)| a * b).sum()
    };
    let mut o = vec![0.0; nq];
    let lse = streaming_forward(&mut o, &q, &k, &v, dims, &sc);
    let (mut dq, mut dk, mut dv) = (vec![0.0; nq], vec![0.0; nkv], vec![0.0; nkv]);
    streaming_backward(
        &mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &o, &lse, dims, &sc,
    );
    let h = 1e-2;
    for i in 0..nkv {
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
fn gqa_block_gradcheck() {
    let cfg = gqa_cfg(4, 2);
    let rope = cfg.rope_table();
    let w = init_block(&cfg, 3, 0);
    let (batch, seq) = (1, 3);
    let n = batch * seq * cfg.hidden;
    let x = Tensor::rand_uniform([n], -0.5, 0.5, 11).into_vec();
    let dy = Tensor::rand_uniform([n], -1.0, 1.0, 12).into_vec();
    let sc = Scratch::new();
    let loss = |w: &[f32]| -> f32 {
        let (y, _) = block_forward(&cfg, &rope, w, &x, batch, seq, &sc);
        y.iter().zip(&dy).map(|(a, b)| a * b).sum()
    };
    let (_, ctx) = block_forward(&cfg, &rope, &w, &x, batch, seq, &sc);
    let mut dw = vec![0.0; w.len()];
    block_backward_full(&cfg, &rope, &w, &ctx, &dy, &mut dw, batch, seq, &sc);
    let lay = wp_nn::params::BlockLayout::new(&cfg);
    let h = 5e-3;
    for &i in &[
        lay.wq().start + 3,
        lay.wk().start + 5,
        lay.wk().end - 1,
        lay.wv().start + 2,
        lay.wv().end - 4,
        lay.wo().start + 7,
        lay.wd().start + 1,
    ] {
        let mut wp = w.clone();
        wp[i] += h;
        let mut wm = w.clone();
        wm[i] -= h;
        let num = (loss(&wp) - loss(&wm)) / (2.0 * h);
        assert!(
            (dw[i] - num).abs() < 3e-2 * (1.0 + num.abs()),
            "dw[{i}]: {} vs {num}",
            dw[i]
        );
    }
}

#[test]
fn gqa_model_trains_end_to_end() {
    use wp_nn::data::microbatch;
    use wp_nn::model::{Model, ModelGrads};
    let cfg = ModelConfig::tiny(2).with_gqa(1);
    let mut model = Model::new(&cfg, 21);
    let (ids, tg) = microbatch(cfg.vocab, 2, 8, 0, 0);
    let mut grads = ModelGrads::zeros_like(&model);
    let loss0 = model.train_step(&ids, &tg, 2, 8, &mut grads, 1.0);
    for (w, g) in model.embed.iter_mut().zip(&grads.embed) {
        *w -= 0.5 * g;
    }
    for (wb, gb) in model.blocks.iter_mut().zip(&grads.blocks) {
        for (w, g) in wb.iter_mut().zip(gb) {
            *w -= 0.5 * g;
        }
    }
    for (w, g) in model.head.iter_mut().zip(&grads.head) {
        *w -= 0.5 * g;
    }
    let loss1 = model.train_step(&ids, &tg, 2, 8, &mut grads, 1.0);
    assert!(loss1 < loss0, "GQA model must train: {loss0} -> {loss1}");
}
