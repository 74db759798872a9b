//! # wp-nn
//!
//! A Llama-style transformer built for pipeline-parallel experimentation.
//!
//! Design points that exist specifically for WeiPipe and its baselines:
//!
//! * **Flat per-layer parameter buffers** ([`params::BlockLayout`]): one
//!   contiguous `Vec<f32>` per block, so "send layer `j`'s weights to the
//!   next rank" is a single message and circulating gradient accumulation is
//!   one `axpy`. This is the `W_j`/`D_j` currency of the paper.
//! * **Split backward** ([`block::block_backward_data`] /
//!   [`block::block_backward_weight`]): the *B pass* / *W pass* decoupling
//!   zero-bubble schedules (ZB-1/2, WZB-1/2) interleave.
//! * **Streaming attention** ([`attention`]): FlashAttention-style
//!   online-softmax kernel whose saved state is one log-sum-exp per query
//!   row (`O(S)` per head instead of `O(S²)`), reproducing the memory
//!   behaviour the paper's evaluation depends on.
//! * **Checkpointing** ([`block::BlockCkpt`],
//!   [`block::block_backward_checkpointed`]): a layer keeps its input and
//!   attention's output and log-sum-exp, and its backward rebuilds every
//!   other activation from them — trading the projections' and the FFN's
//!   FLOPs, but not attention's `S²`, for activation memory.
//! * **Deterministic seeded init**: every rank can materialise identical
//!   weights locally, so weight distribution needs no startup broadcast.

#![warn(missing_docs)]

pub mod attention;
pub mod block;
pub mod checkpoint;
pub mod config;
pub mod data;
pub mod embed;
pub mod generate;
pub mod model;
pub mod params;
pub mod scratch;

pub use checkpoint::{
    load_train_state, save_train_state, CheckpointError, ComponentState, TrainState,
};
pub use config::ModelConfig;
pub use model::{Model, ModelGrads};
pub use scratch::{Scratch, ScratchBuf};
