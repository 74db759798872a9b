//! # wp-sim
//!
//! Discrete-event performance simulation of pipeline-parallel training.
//!
//! The paper's evaluation runs on 8–32 A800 GPUs over NVLink, PCIe and
//! 10 Gb Ethernet — hardware this reproduction does not have. What the
//! tables and figures actually measure, though, is the interplay of three
//! rates: chunk compute time (FLOPs / effective FLOP/s), link transfer time
//! (bytes / bandwidth), and per-rank memory (bytes vs 80 GB). This crate
//! models exactly those three and replays the *same schedule IR the real
//! thread runtime executes*:
//!
//! * [`cost::CostModel`] — FLOPs, wire bytes and memory-unit sizes for a
//!   concrete (H, S, G, L, P) configuration, calibrated to the A800
//!   (312 TFLOP/s fp16, 80 GB).
//! * [`cluster::ClusterSpec`] — ring topology with NVLink / PCIe / 10 GbE
//!   links, matching the paper's three environments (§5.4). A link is the
//!   runtime's [`wp_comm::LinkModel`]: the engine prices a send with the
//!   same `occupancy_s` the runtime paces one with.
//! * [`engine::simulate`] — prices the schedule in one pass over its
//!   dependency graph (`wp_sched::graph`): communication/computation
//!   overlap, link occupancy, collective rendezvous and a per-rank memory
//!   ledger (peak + OOM detection). [`engine::check_timeline`] checks any
//!   timeline, simulated or measured, against that graph.
//! * [`experiments`] — one runner per paper table/figure.
//! * [`render`] — ASCII/SVG Gantt charts (Figures 1–4).

#![warn(missing_docs)]

pub mod cluster;
pub mod cost;
mod des;
pub mod engine;
pub mod experiments;
pub mod measured;
pub mod render;
pub mod tune;

pub use cluster::{ClusterError, ClusterSpec};
pub use cost::{CostModel, GpuSpec, ModelDims, TpOverlay};
pub use engine::{check_timeline, simulate, SimOptions, SimResult, TimedOp};
pub use measured::measured_result;
pub use tune::DesOracle;
/// Kept only because the frozen `benchmark/` package names the presets
/// through it; the link type is `wp_comm::LinkModel`. Goes with the next
/// change allowed to edit that package.
pub use wp_comm::LinkModel as Link;
pub use wp_sched::MemUnit;
