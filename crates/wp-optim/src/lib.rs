//! # wp-optim
//!
//! Optimizers and mixed-precision machinery for the WeiPipe stack:
//! SGD(+momentum) and Adam(W) over flat `&mut [f32]` buffers, fp32
//! [`MasterWeights`] for fp16 working copies, and LR
//! [`schedule::LrSchedule`]s. Loss scaling is static (`TrainSetup::loss_scale`
//! in the runtime), which is all the paper's §4.3 fp16-weights / fp32-state
//! scheme needs.
//!
//! Everything operates on flat slices because the distributed runtimes keep
//! parameters in flat per-layer buffers: in WeiPipe each worker owns the
//! optimizer state *only for the layers it owns* (§4.2.1 — state never
//! travels the ring), so one optimizer instance per owned layer is exactly
//! the right granularity.

#![warn(missing_docs)]

pub mod adam;
pub mod master;
pub mod schedule;
pub mod sgd;

pub use adam::{AdamConfig, AdamW};
pub use master::MasterWeights;
pub use schedule::LrSchedule;
pub use sgd::{Sgd, SgdConfig};

/// A first-order optimizer over a flat parameter buffer.
pub trait Optimizer {
    /// Apply one update with an explicit learning rate (scheduling hook).
    fn step_with_lr(&mut self, params: &mut [f32], grads: &[f32], lr: f32);

    /// Apply one update at the optimizer's base learning rate.
    fn step(&mut self, params: &mut [f32], grads: &[f32]) {
        self.step_with_lr(params, grads, self.lr());
    }

    /// Base learning rate.
    fn lr(&self) -> f32;

    /// Snapshot the optimizer's mutable state for checkpointing: the step
    /// count and the state buffers, in a fixed per-optimizer order. The
    /// buffer count is deterministic for a given configuration, so every
    /// rank of a replicated world exports the same shape.
    fn export_state(&self) -> (u64, Vec<Vec<f32>>);

    /// Restore state captured by [`export_state`](Self::export_state) into a
    /// freshly-built optimizer of the same configuration.
    ///
    /// # Errors
    /// A description of the mismatch when the buffer count or any buffer
    /// length disagrees with this optimizer's shape.
    fn import_state(&mut self, t: u64, bufs: &[Vec<f32>]) -> Result<(), String>;
}
