//! # wp-trace — lock-free per-rank span tracing for the WeiPipe runtime
//!
//! The simulator (`wp-sim`) can draw Gantt charts of what the schedule
//! *should* do; this crate records what the real runtime *actually* did.
//! Instrumented sites in `wp-comm`, `weipipe`, and `wp-optim` record
//! [`SpanRecord`]s into per-rank ring buffers owned by a [`TraceCollector`];
//! after a run, a [`Trace`] snapshot feeds three consumers:
//!
//! 1. [`export_chrome_json`] — Chrome trace-event / Perfetto JSON, openable
//!    at `ui.perfetto.dev` or `chrome://tracing`;
//! 2. `wp-sim`'s measured-timeline adapter, which reuses the simulator's
//!    ASCII Gantt renderer on recorded spans;
//! 3. `wp-bench`'s drift report, which compares measured time shares
//!    against the simulator's prediction for the same config.
//!
//! ## Hot-path contract
//!
//! Recording is **zero-allocation and lock-free**: all buffers are sized at
//! [`TraceCollector::new`] time; [`RankTracer::record`] is one `fetch_add`
//! plus a handful of relaxed atomic stores (proved by the counting-allocator
//! test in `tests/alloc.rs`). Tracing is default-off via [`TraceConfig`]:
//! a disabled config builds no collector, so instrumented sites cost one
//! `Option` branch and training output is bit-identical to an
//! uninstrumented build.
//!
//! This crate intentionally depends on nothing (not even the workspace's
//! vendored crates), so every other crate can depend on it — which is also
//! why the workspace's one JSON reader, [`json`], lives here.

#![warn(missing_docs)]

mod collector;
pub mod json;
mod perfetto;
mod span;

pub use collector::{RankTracer, RankTrack, Trace, TraceCollector};
pub use perfetto::{export_chrome_json, validate_chrome_json, TraceStats};
pub use span::{
    fault_aux, fault_aux_decode, recv_aux, recv_aux_decode, send_aux, send_aux_decode, FaultFlags,
    SpanKind, SpanRecord, TraceConfig, ALL_KINDS, NO_ID,
};
