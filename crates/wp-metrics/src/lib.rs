//! # wp-metrics — per-rank telemetry for the WeiPipe runtime
//!
//! `wp-trace` records *events* (spans on a timeline); this crate records
//! *aggregates* — monotonic counters, last-value gauges, and power-of-two
//! log-bucketed histograms, one fixed slot array per rank — and hosts the
//! [`Probe`], the single handle instrumented code in `wp-comm`, `weipipe`
//! and `wp-optim` records through. A site makes one call; the probe feeds
//! the span ring, the histograms and the byte counters from it, on one
//! clock, so the views agree by construction. Slot updates are single
//! relaxed atomic operations — **no locks, no allocation, no string
//! lookup** on the hot path. Metric identity is a typed enum ([`Counter`],
//! [`Gauge`], [`Hist`]), so a metric's slot index, Prometheus name, and
//! type are all resolved at compile time.
//!
//! A [`MetricsSnapshot`] has one exact text form and one view:
//!
//! 1. [`export_json`] / [`parse_json`] — **JSON is the exact, validated
//!    form**: `u64`s as decimal integers, gauges in shortest-round-trip
//!    `Display`, parsed back to the bit. It is what goes to disk
//!    ([`write_export`], re-parsed through [`validate_json`]) and what the
//!    `wp-bench ranks` workers ship across process boundaries — one-rank
//!    documents the launcher reads with [`parse_json_ranks`] and folds into
//!    the world with [`MetricsSnapshot::merge_rank`];
//! 2. [`export_prometheus`] — **Prometheus text is a view** for a scraper;
//!    nothing reads it back, and tests pin its bytes and structure.
//!
//! ## Hot-path contract
//!
//! Like `wp-trace`, the registry is **zero-allocation and lock-free** after
//! construction: all slot arrays are sized at [`MetricsRegistry::new`] time,
//! and every update is one `fetch_add` / `store` / bounded CAS (proved by
//! the counting-allocator test in `tests/alloc.rs`). Metrics are
//! default-off via [`MetricsConfig`]: a disabled config records only the
//! traffic counters the communicator's byte meter reads, every other site
//! costs one branch, and training output is bit-identical to an
//! uninstrumented build.
//!
//! The only dependency is `wp-trace` (which depends on nothing), so every
//! other crate can depend on this one.

#![warn(missing_docs)]

mod export;
mod id;
mod probe;
mod registry;

pub use export::{
    export_json, export_prometheus, parse_json, parse_json_ranks, validate_json, write_export,
};
pub use id::{Counter, Gauge, Hist};
pub use probe::{CollectiveMark, Probe};
pub use registry::{
    HistSnapshot, MetricsConfig, MetricsRegistry, MetricsSnapshot, RankMetrics, RankSnapshot,
    HIST_BUCKETS,
};
