//! The recorder: pre-sized, lock-free, per-rank span ring buffers.
//!
//! A [`TraceCollector`] owns one ring buffer per rank, allocated once at
//! construction. Each instrumented site holds a cheap [`RankTracer`] handle
//! (an `Arc` plus a rank index) and records spans with a handful of relaxed
//! atomic stores — **no locks, no allocation, no syscalls** on the hot path
//! beyond reading the monotonic clock. Capacity overruns overwrite the
//! oldest records ring-style and are counted, never blocking the writer.
//!
//! ## Clock domain
//!
//! All ranks are threads of one process, so one monotonic clock covers the
//! world: timestamps are nanoseconds since the collector's construction
//! instant (`epoch`). No cross-rank clock alignment is needed — a property
//! a multi-process runtime would have to earn with clock sync.
//!
//! ## Consistency
//!
//! Slots are plain atomics written field-by-field, so a snapshot taken
//! *while ranks are still recording* can observe a half-written record.
//! The intended protocol — snapshot after the world's threads have joined —
//! makes every write happen-before the read. [`TraceCollector::snapshot`]
//! additionally drops records with `end < start` so a mid-run snapshot
//! degrades to missing records, never to panics.

use crate::span::{SpanKind, SpanRecord, NO_ID};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One record slot: the fields of a [`SpanRecord`], stored as atomics so
/// concurrent snapshotting is race-free (tearing-tolerant, see module docs).
#[derive(Debug)]
struct Slot {
    start_ns: AtomicU64,
    end_ns: AtomicU64,
    /// `kind (8 bits) | mb (24 bits) | chunk (24 bits)`, see pack/unpack.
    meta: AtomicU64,
    bytes: AtomicU64,
    aux: AtomicU64,
}

impl Slot {
    fn empty() -> Self {
        Slot {
            start_ns: AtomicU64::new(0),
            end_ns: AtomicU64::new(0),
            meta: AtomicU64::new(u64::MAX),
            bytes: AtomicU64::new(0),
            aux: AtomicU64::new(0),
        }
    }
}

/// Ids above this are clamped into the packed 24-bit field (and decode as
/// [`NO_ID`]). Real runs have microbatch/chunk counts in the thousands.
const ID_SENTINEL: u64 = 0x00FF_FFFF;

fn pack_meta(kind: SpanKind, mb: u32, chunk: u32) -> u64 {
    let mb = (mb as u64).min(ID_SENTINEL);
    let chunk = (chunk as u64).min(ID_SENTINEL);
    ((kind as u64) << 48) | (mb << 24) | chunk
}

fn unpack_meta(meta: u64) -> Option<(SpanKind, u32, u32)> {
    let kind = SpanKind::from_u8((meta >> 48) as u8)?;
    let unpack_id = |v: u64| if v == ID_SENTINEL { NO_ID } else { v as u32 };
    Some((
        kind,
        unpack_id((meta >> 24) & ID_SENTINEL),
        unpack_id(meta & ID_SENTINEL),
    ))
}

/// One rank's pre-sized ring.
#[derive(Debug)]
struct RankBuffer {
    slots: Vec<Slot>,
    /// Total records ever written (the ring cursor is `head % capacity`).
    head: AtomicUsize,
}

#[derive(Debug)]
struct Inner {
    epoch: Instant,
    ranks: Vec<RankBuffer>,
}

/// Shared, lock-free, per-rank span recorder. Cloning shares the buffers.
#[derive(Debug, Clone)]
pub struct TraceCollector {
    inner: Arc<Inner>,
}

/// One rank's write handle into a [`TraceCollector`]. Cloning is a
/// reference-count bump; all clones write the same rank's ring.
#[derive(Debug, Clone)]
pub struct RankTracer {
    inner: Arc<Inner>,
    rank: usize,
}

/// One rank's records in a [`Trace`] snapshot.
#[derive(Debug, Clone, Default)]
pub struct RankTrack {
    /// The rank this track belongs to.
    pub rank: usize,
    /// Records in start-time order.
    pub spans: Vec<SpanRecord>,
    /// Records lost to ring overwrite (oldest-first) before the snapshot.
    pub overwritten: u64,
}

/// An immutable snapshot of everything a [`TraceCollector`] recorded.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// One track per rank, rank order.
    pub tracks: Vec<RankTrack>,
}

impl TraceCollector {
    /// A collector for `ranks` ranks with `capacity_per_rank` record slots
    /// each. All memory is allocated here; recording never allocates.
    pub fn new(ranks: usize, capacity_per_rank: usize) -> Self {
        let cap = capacity_per_rank.max(1);
        TraceCollector {
            inner: Arc::new(Inner {
                epoch: Instant::now(),
                ranks: (0..ranks)
                    .map(|_| RankBuffer {
                        slots: (0..cap).map(|_| Slot::empty()).collect(),
                        head: AtomicUsize::new(0),
                    })
                    .collect(),
            }),
        }
    }

    /// Number of rank tracks.
    pub fn world_size(&self) -> usize {
        self.inner.ranks.len()
    }

    /// The write handle for `rank`.
    ///
    /// # Panics
    /// Panics if `rank` is out of range.
    pub fn tracer(&self, rank: usize) -> RankTracer {
        assert!(rank < self.inner.ranks.len(), "rank {rank} out of range");
        RankTracer {
            inner: self.inner.clone(),
            rank,
        }
    }

    /// Snapshot every rank's records, sorted by start time per track.
    ///
    /// Intended after the recording threads have joined; a concurrent
    /// snapshot may miss in-flight records (see module docs) but is safe.
    pub fn snapshot(&self) -> Trace {
        let tracks = self
            .inner
            .ranks
            .iter()
            .enumerate()
            .map(|(rank, buf)| {
                let cap = buf.slots.len();
                let total = buf.head.load(Ordering::Acquire);
                let len = total.min(cap);
                let mut spans = Vec::with_capacity(len);
                for seq in total - len..total {
                    let s = &buf.slots[seq % cap];
                    let start_ns = s.start_ns.load(Ordering::Relaxed);
                    let end_ns = s.end_ns.load(Ordering::Relaxed);
                    let Some((kind, mb, chunk)) = unpack_meta(s.meta.load(Ordering::Relaxed))
                    else {
                        continue; // unwritten or torn slot
                    };
                    if end_ns < start_ns {
                        continue; // torn mid-write
                    }
                    spans.push(SpanRecord {
                        start_ns,
                        end_ns,
                        kind,
                        mb,
                        chunk,
                        bytes: s.bytes.load(Ordering::Relaxed),
                        aux: s.aux.load(Ordering::Relaxed),
                    });
                }
                spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
                RankTrack {
                    rank,
                    spans,
                    overwritten: total.saturating_sub(cap) as u64,
                }
            })
            .collect();
        Trace { tracks }
    }
}

impl RankTracer {
    /// The rank this handle writes.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Nanoseconds since the collector's epoch. Use as a span's start mark.
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Record a span that started at `start_ns` (from [`now_ns`](Self::now_ns))
    /// and ends now. Returns the recorded duration in nanoseconds so a
    /// caller mirroring the span into a second sink (e.g. a metrics
    /// histogram) observes the *identical* value the trace holds — the
    /// busy-time/histogram-mass consistency suite depends on this.
    #[inline]
    pub fn end_span(
        &self,
        kind: SpanKind,
        start_ns: u64,
        mb: u32,
        chunk: u32,
        bytes: u64,
        aux: u64,
    ) -> u64 {
        let end = self.now_ns().max(start_ns);
        self.record(SpanRecord {
            start_ns,
            end_ns: end,
            kind,
            mb,
            chunk,
            bytes,
            aux,
        });
        end - start_ns
    }

    /// Record an instant event (zero-duration span) happening now.
    #[inline]
    pub fn instant(&self, kind: SpanKind, aux: u64) {
        let t = self.now_ns();
        self.record(SpanRecord {
            start_ns: t,
            end_ns: t,
            kind,
            mb: NO_ID,
            chunk: NO_ID,
            bytes: 0,
            aux,
        });
    }

    /// Record a fully specified span. Lock-free and allocation-free: one
    /// `fetch_add` to claim a slot, five relaxed stores to fill it.
    #[inline]
    pub fn record(&self, r: SpanRecord) {
        let buf = &self.inner.ranks[self.rank];
        let idx = buf.head.fetch_add(1, Ordering::AcqRel) % buf.slots.len();
        let s = &buf.slots[idx];
        // Invalidate the slot first so a torn concurrent read is dropped
        // rather than decoded as a stale-but-plausible record.
        s.meta.store(u64::MAX, Ordering::Relaxed);
        s.start_ns.store(r.start_ns, Ordering::Relaxed);
        s.end_ns.store(r.end_ns, Ordering::Relaxed);
        s.bytes.store(r.bytes, Ordering::Relaxed);
        s.aux.store(r.aux, Ordering::Relaxed);
        s.meta
            .store(pack_meta(r.kind, r.mb, r.chunk), Ordering::Release);
    }
}

impl RankTrack {
    /// Nanoseconds spent in top-level compute spans (busy time).
    pub fn busy_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.kind.is_compute())
            .map(|s| s.dur_ns())
            .sum()
    }

    /// True when the track holds at least one span of `kind`.
    pub fn has_kind(&self, kind: SpanKind) -> bool {
        self.spans.iter().any(|s| s.kind == kind)
    }

    /// All spans of one kind.
    pub fn of_kind(&self, kind: SpanKind) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.kind == kind)
    }
}

impl Trace {
    /// Total records across all tracks.
    pub fn span_count(&self) -> usize {
        self.tracks.iter().map(|t| t.spans.len()).sum()
    }

    /// Earliest recorded start, ns since epoch (0 for an empty trace).
    pub fn start_ns(&self) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.start_ns))
            .min()
            .unwrap_or(0)
    }

    /// Latest recorded end, ns since epoch (0 for an empty trace).
    pub fn end_ns(&self) -> u64 {
        self.tracks
            .iter()
            .flat_map(|t| t.spans.iter().map(|s| s.end_ns))
            .max()
            .unwrap_or(0)
    }

    /// Measured makespan: latest end minus earliest start, in nanoseconds.
    pub fn makespan_ns(&self) -> u64 {
        self.end_ns().saturating_sub(self.start_ns())
    }

    /// Measured bubble ratio over the trace window: `1 − Σ busy /
    /// (P · makespan)` — the same definition the simulator reports, computed
    /// from recorded compute spans instead of modelled durations.
    pub fn bubble_ratio(&self) -> f64 {
        let makespan = self.makespan_ns();
        if makespan == 0 || self.tracks.is_empty() {
            return 0.0;
        }
        let busy: u64 = self.tracks.iter().map(|t| t.busy_ns()).sum();
        1.0 - busy as f64 / (self.tracks.len() as f64 * makespan as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(kind: SpanKind, t0: u64, t1: u64) -> SpanRecord {
        SpanRecord {
            start_ns: t0,
            end_ns: t1,
            kind,
            mb: 0,
            chunk: 0,
            bytes: 0,
            aux: 0,
        }
    }

    #[test]
    fn records_and_snapshots_in_order() {
        let c = TraceCollector::new(2, 16);
        let t0 = c.tracer(0);
        // Record out of start order: snapshot must sort.
        t0.record(span(SpanKind::Send, 50, 60));
        t0.record(span(SpanKind::Fwd, 10, 40));
        c.tracer(1).record(span(SpanKind::RecvWait, 5, 9));
        let tr = c.snapshot();
        assert_eq!(tr.tracks.len(), 2);
        assert_eq!(tr.tracks[0].spans.len(), 2);
        assert_eq!(tr.tracks[0].spans[0].kind, SpanKind::Fwd);
        assert_eq!(tr.tracks[1].spans[0].kind, SpanKind::RecvWait);
        assert_eq!(tr.span_count(), 3);
        assert_eq!(tr.makespan_ns(), 60 - 5);
    }

    #[test]
    fn ring_overwrites_oldest_and_counts() {
        let c = TraceCollector::new(1, 4);
        let t = c.tracer(0);
        for i in 0..10u64 {
            t.record(span(SpanKind::Fwd, i, i + 1));
        }
        let tr = c.snapshot();
        assert_eq!(
            tr.tracks[0].spans.len(),
            4,
            "ring keeps the newest capacity records"
        );
        assert_eq!(tr.tracks[0].overwritten, 6);
        let starts: Vec<u64> = tr.tracks[0].spans.iter().map(|s| s.start_ns).collect();
        assert_eq!(starts, vec![6, 7, 8, 9]);
    }

    #[test]
    fn meta_packing_roundtrips_and_clamps() {
        assert_eq!(
            unpack_meta(pack_meta(SpanKind::BwdData, 3, 7)),
            Some((SpanKind::BwdData, 3, 7))
        );
        // Sentinels survive.
        assert_eq!(
            unpack_meta(pack_meta(SpanKind::Update, NO_ID, NO_ID)),
            Some((SpanKind::Update, NO_ID, NO_ID))
        );
        // Empty slot decodes as none.
        assert_eq!(unpack_meta(u64::MAX), None);
    }

    #[test]
    fn bubble_ratio_matches_hand_computation() {
        let c = TraceCollector::new(2, 8);
        // Rank 0 busy 80ns of [0,100]; rank 1 busy 20ns.
        c.tracer(0).record(span(SpanKind::Fwd, 0, 80));
        c.tracer(1).record(span(SpanKind::BwdFull, 60, 80));
        c.tracer(1).record(span(SpanKind::Send, 80, 100)); // comm: not busy
        let tr = c.snapshot();
        assert_eq!(tr.makespan_ns(), 100);
        let expect = 1.0 - (80.0 + 20.0) / (2.0 * 100.0);
        assert!((tr.bubble_ratio() - expect).abs() < 1e-12);
    }

    #[test]
    fn instant_events_have_zero_duration() {
        let c = TraceCollector::new(1, 8);
        c.tracer(0).instant(SpanKind::Fault, 0b10);
        let tr = c.snapshot();
        let s = tr.tracks[0].spans[0];
        assert!(s.is_instant());
        assert_eq!(s.kind, SpanKind::Fault);
        assert_eq!(s.aux, 0b10);
    }

    #[test]
    fn concurrent_recording_is_lossless_within_capacity() {
        let c = TraceCollector::new(4, 1024);
        std::thread::scope(|s| {
            for r in 0..4 {
                let t = c.tracer(r);
                s.spawn(move || {
                    for i in 0..500u64 {
                        t.record(span(SpanKind::Fwd, i, i + 1));
                    }
                });
            }
        });
        let tr = c.snapshot();
        for track in &tr.tracks {
            assert_eq!(track.spans.len(), 500);
            assert_eq!(track.overwritten, 0);
        }
    }

    #[test]
    fn empty_trace_is_benign() {
        let tr = TraceCollector::new(2, 4).snapshot();
        assert_eq!(tr.span_count(), 0);
        assert_eq!(tr.makespan_ns(), 0);
        assert_eq!(tr.bubble_ratio(), 0.0);
    }

    #[test]
    fn end_span_and_now_are_monotonic() {
        let c = TraceCollector::new(1, 8);
        let t = c.tracer(0);
        let t0 = t.now_ns();
        t.end_span(SpanKind::Update, t0, NO_ID, 2, 0, 0);
        let tr = c.snapshot();
        let s = tr.tracks[0].spans[0];
        assert!(s.end_ns >= s.start_ns);
        assert_eq!(s.chunk, 2);
        assert_eq!(s.mb, NO_ID);
    }
}
