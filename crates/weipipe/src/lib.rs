//! # weipipe
//!
//! The WeiPipe training runtime: real distributed training of a real
//! transformer, one OS thread per rank, driven by the same validated
//! schedules the performance simulator times.
//!
//! *WeiPipe: Weight Pipeline Parallelism for Communication-Effective
//! Long-Context Large Model Training* (Lin et al., PPoPP '25) inverts
//! classical pipeline parallelism: instead of keeping weights resident and
//! shipping activations between stages, workers keep their microbatches'
//! activations resident while the model's weight chunks — and the gradient
//! chunks `D_j`, which accumulate in flight in place of an all-reduce —
//! rotate around a ring. Per-link traffic becomes independent of microbatch
//! size and sequence length, which is decisive for long-context training on
//! commodity interconnects.
//!
//! This crate provides:
//!
//! * [`runner::run_distributed`] — train a [`setup::TrainSetup`] under any
//!   runtime strategy: `WeiPipeNaive`, `WeiPipeInterleave`, and the
//!   baselines `GPipe`, `OneFOneB` (1F1B), `Zb1`, `Zb2` (split-backward
//!   zero-bubble), `Fsdp` (ZeRO-3-style), `Ddp`.
//! * [`single::run_single`] — the single-process reference every strategy
//!   must reproduce (the test suite asserts loss- and weight-equivalence).
//! * [`interp::RankRuntime`] — the schedule interpreter that executes
//!   `wp-sched` instruction streams against `wp-nn` compute and `wp-comm`
//!   messaging.
//!
//! ```
//! use weipipe::{run_distributed, run_single, TrainSetup};
//! use wp_sched::Strategy;
//!
//! let setup = TrainSetup::tiny(2, 4); // 2 layers, 4 microbatches
//! let reference = run_single(&setup);
//! let wp = run_distributed(Strategy::WeiPipeInterleave, 2, &setup)
//!     .expect("healthy world");
//! assert!(wp.max_loss_diff(&reference) < 1e-3);
//! ```
//!
//! Training is fault-aware: a [`TrainSetup`] can carry a seeded
//! [`FaultPlan`] for the communication ring and a [`CommConfig`]
//! timeout policy. Delay-only plans never change the result;
//! destructive plans surface as typed [`CommError`]s on every rank instead
//! of hangs.

#![warn(missing_docs)]

pub mod elastic;
pub mod interp;
pub mod runner;
pub mod setup;
pub mod single;

pub use elastic::{
    next_epoch, run_elastic, ElasticOptions, ElasticReport, EpochOutcome, NextEpoch,
};
pub use runner::{
    build_schedule, run_distributed, run_distributed_per_rank, run_rank, run_rank_elastic,
    runtime_strategies, TrainWorld,
};
pub use setup::{DataSource, OptimKind, RunOutput, TrainSetup};
pub use single::run_single;
pub use wp_comm::{CommConfig, CommError, FaultPlan, Membership, TransportKind};
pub use wp_metrics::{MetricsConfig, MetricsSnapshot};
pub use wp_nn::{load_train_state, save_train_state, CheckpointError, TrainState};
pub use wp_sched::Strategy;
pub use wp_trace::{Trace, TraceConfig};
