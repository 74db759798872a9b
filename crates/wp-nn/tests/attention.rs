//! The streaming attention kernels against the naive oracle, forward and
//! backward, at every tiling of the sequence by the kernels' 64-query tile.

mod common;

use common::{naive_backward, naive_forward};
use wp_nn::attention::{streaming_backward, streaming_forward, AttnDims};
use wp_nn::scratch::Scratch;
use wp_tensor::Tensor;

/// Sequence lengths on both sides of every tile boundary.
const SEQS: [usize; 4] = [1, 63, 65, 197];

/// Grouped-query dims (two query heads per k/v head) at `seq`, big enough
/// past the first length to cross the pool's dispatch threshold.
fn gqa(seq: usize) -> AttnDims {
    AttnDims {
        batch: 2,
        seq,
        heads: 4,
        kv_heads: 2,
        head_dim: 16,
    }
}

/// `[o, dq, dk, dv]` of one forward + backward through the naive or the
/// streaming kernels.
fn forward_backward(d: AttnDims, naive: bool) -> [Vec<f32>; 4] {
    let n = d.batch * d.seq * d.heads * d.head_dim;
    let nkv = d.batch * d.seq * d.kv_dim();
    let q = Tensor::randn([n], 0.5, 57).into_vec();
    let k = Tensor::randn([nkv], 0.5, 58).into_vec();
    let v = Tensor::randn([nkv], 0.5, 59).into_vec();
    let dout = Tensor::randn([n], 1.0, 60).into_vec();
    let mut o = vec![0.0; n];
    let (mut dq, mut dk, mut dv) = (vec![0.0; n], vec![0.0; nkv], vec![0.0; nkv]);
    if naive {
        let probs = naive_forward(&mut o, &q, &k, &v, d);
        naive_backward(&mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &probs, d);
    } else {
        let sc = Scratch::new();
        let lse = streaming_forward(&mut o, &q, &k, &v, d, &sc);
        streaming_backward(
            &mut dq, &mut dk, &mut dv, &dout, &q, &k, &v, &o, &lse, d, &sc,
        );
    }
    [o, dq, dk, dv]
}

const NAMES: [&str; 4] = ["o", "dq", "dk", "dv"];

/// The naive and streaming kernels agree within `tol` on `outputs`
/// (indices into [`NAMES`]), at every tiling of the sequence.
fn assert_kernels_agree(outputs: std::ops::Range<usize>, tol: f32) {
    for d in SEQS.map(gqa).into_iter().chain([AttnDims::mha(2, 5, 2, 4)]) {
        let naive = forward_backward(d, true);
        let streaming = forward_backward(d, false);
        for which in outputs.clone() {
            for (i, (x, y)) in naive[which].iter().zip(&streaming[which]).enumerate() {
                let name = NAMES[which];
                assert!((x - y).abs() < tol, "S={} {name}[{i}]: {x} vs {y}", d.seq);
            }
        }
    }
}

#[test]
fn streaming_matches_naive_forward() {
    assert_kernels_agree(0..1, 1e-5);
}

#[test]
fn naive_and_streaming_backwards_agree() {
    assert_kernels_agree(1..4, 1e-4);
}
