//! # wp-sched
//!
//! Pipeline schedules as data.
//!
//! Every training strategy in this workspace — the paper's WeiPipe variants
//! and every baseline it compares against — compiles to the same typed
//! instruction streams ([`ir::Schedule`]): per-rank sequences of forward /
//! backward / update compute ops, point-to-point messages and collectives,
//! each annotated with its explicit data dependencies. What each op does to
//! memory follows from the streams ([`analysis::mem_deltas`]). Downstream:
//!
//! * `wp-sim` executes the IR against a hardware cost model (throughput,
//!   bubble ratio, peak memory, per-link traffic → the paper's tables and
//!   figures);
//! * [`graph::DepGraph`] is the IR's dependency semantics as a value —
//!   which op waits on which, typed edge by typed edge — that the validator,
//!   the simulator and its timeline checker all read;
//! * [`validate::validate`] proves schedules physically consistent
//!   (the graph builds and is acyclic, full compute coverage, balanced
//!   buffers, weight slots held);
//! * [`analysis`] counts bytes, derives every op's memory deltas, and
//!   carries the paper's §3 closed forms (crossover ratio, 36H² per turn,
//!   2·M_A per microbatch);
//! * [`tune`] frames the builder knobs (strategy, microbatches, W-lag,
//!   overlap, chunking, grouping) as a search space and provides a grid
//!   search over a pluggable cost oracle (`wp-sim` supplies the DES-backed
//!   one).
//!
//! The builders ([`builders`]) encode the schedules themselves, one module
//! per skeleton: the weight ring and its position algebra
//! (`builders/ring.rs`), the grouped ring (`hier.rs`), the stage pipeline
//! (`stage.rs`) and the collective baselines (`collective.rs`). What differs
//! between strategies *outside* a skeleton — which one builds it, whether
//! the backward is split, which knob it reads and what that knob defaults
//! to, what must divide what — is one table, [`Strategy::shape`], which the
//! builders, [`tune`] and `wp-sim` all read.

#![warn(missing_docs)]

pub mod analysis;
pub mod builders;
pub mod graph;
pub mod ir;
pub mod tune;
pub mod validate;

pub use builders::{build, PipelineSpec, ALL_STRATEGIES};
pub use graph::DepGraph;
pub use ir::{
    weight_slot, MemUnit, MsgKey, MsgKind, Op, OpKind, Refresh, Schedule, Strategy, EMBED_HEAD,
    FLOW_BWD, FLOW_FWD, NO_MB, RESIDENT, SHARDED,
};
pub use tune::{Candidate, CostOracle, ScheduleCost, TuneOutcome, TuneSpace};
pub use validate::{validate, ValidationError};
