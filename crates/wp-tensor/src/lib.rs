//! # wp-tensor
//!
//! Dense CPU tensor kernels for the WeiPipe training stack.
//!
//! This crate is the computational substrate every other crate sits on:
//!
//! * [`Tensor`] — deterministic seeded random vectors (so every rank of a
//!   distributed job can build identical weights without communication).
//! * [`dtype`] — software IEEE binary16 / bfloat16 with round-to-nearest-even
//!   conversions, used to emulate the paper's mixed-precision storage
//!   (fp16 weights/activations/weight-grads, bf16 activation-grads, fp32
//!   optimizer state) on hardware without native half floats.
//! * [`ops`] — the kernels a Llama-style transformer needs: cache-blocked
//!   matmuls in the three layouts (`nn`, `nt`, `tn`) that cover forward,
//!   data-gradient (*B pass*) and weight-gradient (*W pass*) computation,
//!   RMSNorm, RoPE, SiLU/SwiGLU, row softmax, embedding gather/scatter and a
//!   fused softmax-cross-entropy.
//!
//! Kernels take raw `&[f32]` slices plus dimensions so callers can operate on
//! sub-ranges of flat arenas — the layout WeiPipe ships over the wire.

#![warn(missing_docs)]

pub mod dtype;
pub mod ops;
pub mod tensor;

pub use dtype::DType;
pub use tensor::Tensor;
