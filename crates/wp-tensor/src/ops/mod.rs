//! Compute kernels. All kernels operate on plain `&[f32]` slices with
//! explicit dimensions, so higher layers can point them at sub-buffers of
//! flat parameter/activation arenas without copies.

pub mod elementwise;
pub mod embedding;
pub mod gemm;
pub mod loss;
pub mod matmul;
pub mod norm;
pub mod par;
pub mod rope;
pub mod softmax;

pub use elementwise::{
    add, mul, silu, silu_backward, silu_forward, silu_grad, swiglu_backward, swiglu_forward,
};
pub use embedding::{embedding_backward, embedding_forward};
pub use loss::{cross_entropy_forward_backward, cross_entropy_loss};
pub use matmul::{dot, matmul_naive, matmul_nn, matmul_nt, matmul_tn};
pub use norm::{rmsnorm_backward, rmsnorm_forward};
pub use rope::RopeTable;
pub use softmax::{softmax_row, softmax_rows, softmax_rows_backward};
