//! Property-based tests for the tensor substrate.

use proptest::prelude::*;
use wp_tensor::dtype::{
    bf16_bits_to_f32, f16_bits_to_f32, f32_to_bf16_bits, f32_to_f16_bits, quantize, DType,
};
use wp_tensor::ops::{matmul_naive, matmul_nn, matmul_nt, matmul_tn, RopeTable};
use wp_tensor::Tensor;

fn finite_f32() -> impl Strategy<Value = f32> {
    prop::num::f32::NORMAL | prop::num::f32::ZERO | prop::num::f32::SUBNORMAL
}

proptest! {
    #[test]
    fn f16_roundtrip_is_idempotent(x in finite_f32()) {
        let once = quantize(x, DType::F16);
        let twice = quantize(once, DType::F16);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn bf16_roundtrip_is_idempotent(x in finite_f32()) {
        let once = quantize(x, DType::BF16);
        let twice = quantize(once, DType::BF16);
        prop_assert_eq!(once.to_bits(), twice.to_bits());
    }

    #[test]
    fn f16_preserves_sign_and_order(a in -1e4f32..1e4, b in -1e4f32..1e4) {
        let (qa, qb) = (quantize(a, DType::F16), quantize(b, DType::F16));
        if a <= b {
            prop_assert!(qa <= qb, "quantization must be monotone: {a}->{qa}, {b}->{qb}");
        }
        if a != 0.0 {
            prop_assert_eq!(qa.is_sign_negative(), a.is_sign_negative());
        }
    }

    #[test]
    fn f16_relative_error_bounded(x in 1e-3f32..6e4) {
        let q = quantize(x, DType::F16);
        prop_assert!(((q - x) / x).abs() <= 2f32.powi(-11) + 1e-9);
    }

    #[test]
    fn f16_decode_encode_identity_on_valid_bits(bits in 0u16..0x7C00) {
        // Every finite positive half value must survive a decode/encode trip.
        let x = f16_bits_to_f32(bits);
        prop_assert_eq!(f32_to_f16_bits(x), bits);
    }

    #[test]
    fn bf16_decode_encode_identity_on_valid_bits(bits in 0u16..0x7F80) {
        let x = bf16_bits_to_f32(bits);
        prop_assert_eq!(f32_to_bf16_bits(x), bits);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn matmul_matches_naive(m in 1usize..8, k in 1usize..8, n in 1usize..8, seed in 0u64..1000) {
        let a = Tensor::rand_uniform([m * k], -1.0, 1.0, seed).into_vec();
        let b = Tensor::rand_uniform([k * n], -1.0, 1.0, seed + 1).into_vec();
        let mut c1 = vec![0.0; m * n];
        matmul_nn(&mut c1, &a, &b, m, k, n);
        let mut c2 = vec![0.0; m * n];
        matmul_naive(&mut c2, &a, &b, m, k, n);
        for (x, y) in c1.iter().zip(&c2) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_is_linear_in_a(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        // C(A + A') = C(A) + C(A')
        let a1 = Tensor::rand_uniform([m * k], -1.0, 1.0, seed).into_vec();
        let a2 = Tensor::rand_uniform([m * k], -1.0, 1.0, seed + 1).into_vec();
        let b = Tensor::rand_uniform([k * n], -1.0, 1.0, seed + 2).into_vec();
        let sum: Vec<f32> = a1.iter().zip(&a2).map(|(x, y)| x + y).collect();
        let mut c_sum = vec![0.0; m * n];
        matmul_nn(&mut c_sum, &sum, &b, m, k, n);
        let mut c_sep = vec![0.0; m * n];
        matmul_nn(&mut c_sep, &a1, &b, m, k, n);
        matmul_nn(&mut c_sep, &a2, &b, m, k, n);
        for (x, y) in c_sum.iter().zip(&c_sep) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn nt_and_tn_are_transposed_views_of_nn(m in 1usize..6, k in 1usize..6, n in 1usize..6, seed in 0u64..1000) {
        let a = Tensor::rand_uniform([m * k], -1.0, 1.0, seed).into_vec();
        let b = Tensor::rand_uniform([k * n], -1.0, 1.0, seed + 1).into_vec();
        let mut c_ref = vec![0.0; m * n];
        matmul_nn(&mut c_ref, &a, &b, m, k, n);

        // B as [n, k] for nt.
        let mut bt = vec![0.0; n * k];
        for i in 0..k {
            for j in 0..n {
                bt[j * k + i] = b[i * n + j];
            }
        }
        let mut c_nt = vec![0.0; m * n];
        matmul_nt(&mut c_nt, &a, &bt, m, k, n);
        // A as [k, m] for tn.
        let mut at = vec![0.0; k * m];
        for i in 0..m {
            for j in 0..k {
                at[j * m + i] = a[i * k + j];
            }
        }
        let mut c_tn = vec![0.0; m * n];
        matmul_tn(&mut c_tn, &at, &b, m, k, n);
        for i in 0..m * n {
            prop_assert!((c_nt[i] - c_ref[i]).abs() < 1e-4, "nt mismatch");
            prop_assert!((c_tn[i] - c_ref[i]).abs() < 1e-4, "tn mismatch");
        }
    }

    #[test]
    fn rope_preserves_norm_and_inverts(
        pos in 0usize..32,
        seed in 0u64..1000
    ) {
        let d = 8;
        let table = RopeTable::new(d, 32, 10000.0);
        let x0 = Tensor::rand_uniform([d], -2.0, 2.0, seed).into_vec();
        let mut x = x0.clone();
        table.rotate(&mut x, pos, 1.0);
        let n0: f32 = x0.iter().map(|v| v * v).sum();
        let n1: f32 = x.iter().map(|v| v * v).sum();
        prop_assert!((n0 - n1).abs() < 1e-3);
        table.rotate(&mut x, pos, -1.0);
        for (a, b) in x.iter().zip(&x0) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }
}
