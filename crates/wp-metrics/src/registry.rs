//! The registry: fixed-slot, lock-free, per-rank metric storage.
//!
//! A [`MetricsRegistry`] owns one slot block per rank — an array of
//! counters, an array of gauges, and an array of histograms, all sized by
//! the typed-id enums at construction. A rank writes its block through a
//! cheap [`RankMetrics`] handle (an `Arc` plus a rank index) — held by the
//! rank's [`Probe`](crate::Probe) — with single relaxed atomic operations:
//! **no locks, no allocation, no syscalls** on the hot path beyond reading
//! the monotonic clock.
//!
//! ## Consistency
//!
//! Unlike `wp-trace`'s multi-word span slots, every metric here is one
//! `AtomicU64`, so there is no torn-record protocol: a snapshot taken at
//! any time sees a valid (if slightly stale) value per slot. Histograms
//! update three words (`bucket`, `count`, `sum`) independently; the
//! intended protocol — snapshot after the world's threads have joined —
//! makes them mutually consistent, and a mid-run snapshot degrades to a
//! histogram whose `count` briefly disagrees with its bucket sum, never to
//! a panic.

use crate::id::{Counter, Gauge, Hist};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Number of log₂ buckets per histogram: bucket 0 holds zero-valued
/// observations, bucket `i` holds values in `[2^(i-1), 2^i)`, and the last
/// bucket also absorbs everything at or above `2^62`.
pub const HIST_BUCKETS: usize = 64;

/// The bucket index a value lands in.
#[inline]
pub(crate) fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        ((64 - v.leading_zeros()) as usize).min(HIST_BUCKETS - 1)
    }
}

/// Inclusive upper bound of bucket `i` (`u64::MAX` for the last bucket).
pub(crate) fn bucket_upper_bound(i: usize) -> u64 {
    match i {
        0 => 0,
        _ if i >= HIST_BUCKETS - 1 => u64::MAX,
        _ => (1u64 << i) - 1,
    }
}

#[derive(Debug)]
struct HistSlots {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl HistSlots {
    fn empty() -> Self {
        HistSlots {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct RankSlots {
    counters: Vec<AtomicU64>,
    /// `f64` values stored as bits.
    gauges: Vec<AtomicU64>,
    hists: Vec<HistSlots>,
}

impl RankSlots {
    fn empty() -> Self {
        RankSlots {
            counters: (0..Counter::COUNT).map(|_| AtomicU64::new(0)).collect(),
            gauges: (0..Gauge::COUNT)
                .map(|_| AtomicU64::new(0f64.to_bits()))
                .collect(),
            hists: (0..Hist::COUNT).map(|_| HistSlots::empty()).collect(),
        }
    }
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    ranks: Vec<RankSlots>,
}

/// Whether (and that's all) metrics are recorded. Mirrors `TraceConfig`:
/// the default is off, and off means a rank counts only its traffic (the
/// eight slots the communicator's byte meter reads) — every other
/// instrumented site costs one branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricsConfig {
    /// Record metrics when true.
    pub enabled: bool,
}

impl MetricsConfig {
    /// Metrics disabled (the default): no registry, bit-identical training.
    pub fn off() -> Self {
        MetricsConfig { enabled: false }
    }

    /// Metrics enabled.
    pub fn on() -> Self {
        MetricsConfig { enabled: true }
    }
}

impl Default for MetricsConfig {
    fn default() -> Self {
        MetricsConfig::off()
    }
}

/// Shared, lock-free, per-rank metric registry. Cloning shares the slots.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

/// One rank's write handle into a [`MetricsRegistry`]. Cloning is a
/// reference-count bump; all clones write the same rank's slots.
#[derive(Debug, Clone)]
pub struct RankMetrics {
    inner: Arc<Inner>,
    rank: usize,
}

impl MetricsRegistry {
    /// A registry for `ranks` ranks. All memory is allocated here;
    /// recording never allocates.
    pub fn new(ranks: usize) -> Self {
        MetricsRegistry {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                ranks: (0..ranks).map(|_| RankSlots::empty()).collect(),
            }),
        }
    }

    /// Number of rank slot blocks.
    pub fn world_size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// The write handle for `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn handle(&self, rank: usize) -> RankMetrics {
        assert!(rank < self.inner.ranks.len(), "rank {rank} out of range");
        RankMetrics {
            inner: self.inner.clone(),
            rank,
        }
    }

    /// Snapshot every rank's slots.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            ranks: (0..self.inner.ranks.len())
                .map(|r| self.snapshot_rank(r))
                .collect(),
        }
    }

    /// Snapshot one rank's slots.
    pub fn snapshot_rank(&self, rank: usize) -> RankSnapshot {
        let slots = &self.inner.ranks[rank];
        RankSnapshot {
            rank,
            counters: slots
                .counters
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            gauges: slots
                .gauges
                .iter()
                .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
                .collect(),
            hists: slots
                .hists
                .iter()
                .map(|h| HistSnapshot {
                    buckets: h
                        .buckets
                        .iter()
                        .map(|b| b.load(Ordering::Relaxed))
                        .collect(),
                    count: h.count.load(Ordering::Relaxed),
                    sum: h.sum.load(Ordering::Relaxed),
                })
                .collect(),
        }
    }
}

impl RankMetrics {
    /// The rank this handle writes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The registry this handle writes into.
    pub fn registry(&self) -> MetricsRegistry {
        MetricsRegistry {
            inner: self.inner.clone(),
        }
    }

    /// Nanoseconds since the registry's epoch: the [`Probe`](crate::Probe)'s
    /// clock when the world is metered but not traced.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Current value of a counter. One relaxed load.
    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.inner.ranks[self.rank].counters[c.index()].load(Ordering::Relaxed)
    }

    /// Add `v` to a counter. One relaxed `fetch_add`.
    #[inline]
    pub fn add(&self, c: Counter, v: u64) {
        self.inner.ranks[self.rank].counters[c.index()].fetch_add(v, Ordering::Relaxed);
    }

    /// Increment a counter by one.
    #[inline]
    pub fn incr(&self, c: Counter) {
        self.add(c, 1);
    }

    /// Set a gauge to `v`. One relaxed store.
    #[inline]
    pub fn set(&self, g: Gauge, v: f64) {
        self.inner.ranks[self.rank].gauges[g.index()].store(v.to_bits(), Ordering::Relaxed);
    }

    /// Raise a gauge to `v` if `v` is larger (high-water tracking for
    /// non-negative quantities like queue depths). A bounded CAS loop.
    #[inline]
    pub fn set_max(&self, g: Gauge, v: f64) {
        let slot = &self.inner.ranks[self.rank].gauges[g.index()];
        let mut cur = slot.load(Ordering::Relaxed);
        while v > f64::from_bits(cur) {
            match slot.compare_exchange_weak(cur, v.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Record `v` into a histogram: one bucket increment plus the shared
    /// `count`/`sum` updates — three relaxed `fetch_add`s.
    #[inline]
    pub fn observe(&self, h: Hist, v: u64) {
        let slots = &self.inner.ranks[self.rank].hists[h.index()];
        slots.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        slots.count.fetch_add(1, Ordering::Relaxed);
        slots.sum.fetch_add(v, Ordering::Relaxed);
    }
}

/// Immutable snapshot of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Per-bucket observation counts, length [`HIST_BUCKETS`].
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of all observed values (exact: `u64` nanoseconds, no floats).
    pub sum: u64,
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot {
            buckets: vec![0; HIST_BUCKETS],
            count: 0,
            sum: 0,
        }
    }
}

impl HistSnapshot {
    /// Fold another histogram into this one.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Highest bucket index holding at least one observation, if any.
    pub fn highest_bucket(&self) -> Option<usize> {
        self.buckets.iter().rposition(|&b| b > 0)
    }
}

/// Immutable snapshot of one rank's slots.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSnapshot {
    /// The rank these values belong to.
    pub rank: usize,
    /// Counter values, indexed by [`Counter::index`].
    pub counters: Vec<u64>,
    /// Gauge values, indexed by [`Gauge::index`].
    pub gauges: Vec<f64>,
    /// Histograms, indexed by [`Hist::index`].
    pub hists: Vec<HistSnapshot>,
}

impl RankSnapshot {
    /// An all-zero snapshot for `rank`.
    pub fn empty(rank: usize) -> Self {
        RankSnapshot {
            rank,
            counters: vec![0; Counter::COUNT],
            gauges: vec![0.0; Gauge::COUNT],
            hists: vec![HistSnapshot::default(); Hist::COUNT],
        }
    }

    /// This rank's value for one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// This rank's value for one gauge.
    pub fn gauge(&self, g: Gauge) -> f64 {
        self.gauges[g.index()]
    }

    /// This rank's snapshot of one histogram.
    pub fn hist(&self, h: Hist) -> &HistSnapshot {
        &self.hists[h.index()]
    }
}

/// An immutable snapshot of everything a [`MetricsRegistry`] recorded —
/// or, on a launcher, the merge of every worker's [`RankSnapshot`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// One entry per rank, rank order.
    pub ranks: Vec<RankSnapshot>,
}

impl MetricsSnapshot {
    /// An all-zero snapshot for a world of `ranks` ranks.
    pub fn empty(ranks: usize) -> Self {
        MetricsSnapshot {
            ranks: (0..ranks).map(RankSnapshot::empty).collect(),
        }
    }

    /// Number of rank entries.
    pub fn world_size(&self) -> usize {
        self.ranks.len()
    }

    /// Replace (or append) one rank's entry with a snapshot taken in
    /// another process, growing the world as needed.
    pub fn merge_rank(&mut self, snap: RankSnapshot) {
        while self.ranks.len() <= snap.rank {
            self.ranks.push(RankSnapshot::empty(self.ranks.len()));
        }
        let rank = snap.rank;
        self.ranks[rank] = snap;
    }

    /// A counter summed across ranks.
    pub fn total(&self, c: Counter) -> u64 {
        self.ranks.iter().map(|r| r.counter(c)).sum()
    }

    /// One histogram folded across ranks.
    pub fn hist_total(&self, h: Hist) -> HistSnapshot {
        let mut out = HistSnapshot::default();
        for r in &self.ranks {
            out.merge(r.hist(h));
        }
        out
    }

    /// Total nanoseconds recorded in the compute histograms (forward,
    /// backward, weight-grad, update) across all ranks. When tracing and
    /// metrics run side by side this equals the trace's summed `busy_ns`
    /// exactly: each span and its observation are one measurement.
    pub fn compute_mass_ns(&self) -> u64 {
        [Hist::FwdNs, Hist::BwdNs, Hist::WgradNs, Hist::UpdateNs]
            .iter()
            .map(|&h| self.hist_total(h).sum)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_u64_range() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index((1 << 62) - 1), 62);
        assert_eq!(bucket_index(1 << 62), 63);
        assert_eq!(bucket_index(u64::MAX), 63);
        // Every value lands within its bucket's bounds.
        for v in [0u64, 1, 2, 3, 7, 8, 1000, 1 << 40, u64::MAX] {
            let i = bucket_index(v);
            assert!(v <= bucket_upper_bound(i), "{v} in bucket {i}");
            if i > 0 && i < HIST_BUCKETS - 1 {
                assert!(v > bucket_upper_bound(i - 1));
            }
        }
    }

    #[test]
    fn counters_gauges_hists_record_and_snapshot() {
        let reg = MetricsRegistry::new(2);
        let m0 = reg.handle(0);
        m0.add(Counter::P2pBytesSent, 100);
        m0.incr(Counter::P2pMsgsSent);
        m0.set(Gauge::Loss, 1.25);
        m0.set_max(Gauge::ReorderDepthMax, 3.0);
        m0.set_max(Gauge::ReorderDepthMax, 2.0); // lower: ignored
        m0.observe(Hist::FwdNs, 5);
        m0.observe(Hist::FwdNs, 0);
        let snap = reg.snapshot();
        assert_eq!(snap.world_size(), 2);
        let r0 = &snap.ranks[0];
        assert_eq!(r0.counter(Counter::P2pBytesSent), 100);
        assert_eq!(r0.counter(Counter::P2pMsgsSent), 1);
        assert_eq!(r0.gauge(Gauge::Loss), 1.25);
        assert_eq!(r0.gauge(Gauge::ReorderDepthMax), 3.0);
        let h = r0.hist(Hist::FwdNs);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 5);
        assert_eq!(h.buckets[bucket_index(5)], 1);
        assert_eq!(h.buckets[0], 1);
        // Rank 1 untouched.
        assert_eq!(snap.ranks[1], RankSnapshot::empty(1));
        assert_eq!(snap.total(Counter::P2pBytesSent), 100);
    }

    #[test]
    fn clones_share_slots_and_concurrent_adds_are_lossless() {
        let reg = MetricsRegistry::new(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = reg.handle(0);
                s.spawn(move || {
                    for _ in 0..1000 {
                        m.incr(Counter::MsgsRecv);
                        m.observe(Hist::StepWallNs, 7);
                        m.set_max(Gauge::ReorderDepthMax, 4.0);
                    }
                });
            }
        });
        let r = reg.snapshot_rank(0);
        assert_eq!(r.counter(Counter::MsgsRecv), 4000);
        assert_eq!(r.hist(Hist::StepWallNs).count, 4000);
        assert_eq!(r.hist(Hist::StepWallNs).sum, 28000);
        assert_eq!(r.gauge(Gauge::ReorderDepthMax), 4.0);
    }

    #[test]
    fn merge_rank_folds_remote_snapshots() {
        let mut world = MetricsSnapshot::empty(2);
        let reg = MetricsRegistry::new(2);
        let m = reg.handle(1);
        m.add(Counter::TokensProcessed, 64);
        m.observe(Hist::BwdNs, 9);
        world.merge_rank(reg.snapshot_rank(1));
        assert_eq!(world.total(Counter::TokensProcessed), 64);
        assert_eq!(world.hist_total(Hist::BwdNs).sum, 9);
        assert_eq!(world.ranks[0], RankSnapshot::empty(0));
        // Merging a higher rank grows the world.
        let mut r3 = RankSnapshot::empty(3);
        r3.counters[Counter::StepsCompleted.index()] = 5;
        world.merge_rank(r3);
        assert_eq!(world.world_size(), 4);
        assert_eq!(world.total(Counter::StepsCompleted), 5);
    }

    #[test]
    fn compute_mass_sums_the_compute_histograms_only() {
        let reg = MetricsRegistry::new(1);
        let m = reg.handle(0);
        m.observe(Hist::FwdNs, 10);
        m.observe(Hist::BwdNs, 20);
        m.observe(Hist::WgradNs, 30);
        m.observe(Hist::UpdateNs, 40);
        m.observe(Hist::StepWallNs, 1000); // not compute
        m.observe(Hist::OptimStepNs, 500); // not compute
        assert_eq!(reg.snapshot().compute_mass_ns(), 100);
    }
}
