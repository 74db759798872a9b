//! The per-rank telemetry handle: one recording call per instrumented site.
//!
//! A [`Probe`] owns everything a rank records into — its counter slots
//! (always), its histogram/gauge sink (when the world is metered), its span
//! ring (when the world is traced) — and the one clock both sinks are
//! stamped from. Instrumented code in `wp-comm`, `weipipe` and `wp-optim`
//! takes a start mark with [`Probe::now`] and reports what happened with a
//! single call; the probe fans that out to whichever sinks are attached.
//! Because a span's duration and its histogram observation are the same
//! measurement, and the byte counters are the same slots the traffic meter
//! reads, the three views cannot disagree.
//!
//! ## Cost when nothing is attached
//!
//! The eight traffic counters (`P2pBytesSent` … `FaultsInjected`) are always
//! counted — they are the communicator's byte meter. Everything else is
//! gated: with neither sink attached [`Probe::now`] returns 0 without
//! reading a clock, and no call touches a gauge, a histogram, or any other
//! counter. Recording never allocates (`tests/alloc.rs`).

use crate::id::{Counter, Gauge, Hist};
use crate::registry::{MetricsRegistry, RankMetrics};
use wp_trace::{fault_aux, recv_aux, send_aux, FaultFlags, RankTracer, SpanKind, NO_ID};

/// The histogram a span's duration lands in, for the kinds that have one.
/// `BwdFull` and `BwdData` are both "B" work; `BwdWeight` is the
/// split-backward "W".
fn hist_for(kind: SpanKind) -> Option<Hist> {
    match kind {
        SpanKind::Fwd => Some(Hist::FwdNs),
        SpanKind::BwdFull | SpanKind::BwdData => Some(Hist::BwdNs),
        SpanKind::BwdWeight => Some(Hist::WgradNs),
        SpanKind::Update => Some(Hist::UpdateNs),
        SpanKind::OptimStep => Some(Hist::OptimStepNs),
        SpanKind::Iteration => Some(Hist::StepWallNs),
        _ => None,
    }
}

/// One rank's telemetry handle. Cloning is two reference-count bumps; all
/// clones record into the same rank's slots and ring.
#[derive(Debug, Clone)]
pub struct Probe {
    slots: RankMetrics,
    /// Whether the slots beyond the traffic counters are recorded.
    metered: bool,
    tracer: Option<RankTracer>,
}

/// Start mark of a collective: `(t0, collective bytes sent so far)`.
pub type CollectiveMark = (u64, u64);

impl Probe {
    /// A probe counting traffic into `slots`, recording the rest of the
    /// metrics there too when `metered`, and spans into `tracer` when given.
    pub fn new(slots: RankMetrics, metered: bool, tracer: Option<RankTracer>) -> Self {
        Probe {
            slots,
            metered,
            tracer,
        }
    }

    /// The registry whose slots this probe counts traffic into.
    pub fn registry(&self) -> MetricsRegistry {
        self.slots.registry()
    }

    /// The span recorder, when the world is traced.
    pub fn tracer(&self) -> Option<&RankTracer> {
        self.tracer.as_ref()
    }

    /// The metrics recorder, when the world is metered.
    pub fn metrics(&self) -> Option<&RankMetrics> {
        self.metered.then_some(&self.slots)
    }

    /// A start mark on the probe's clock: the trace collector's when traced
    /// (so marks line up with the exported timeline), the registry's when
    /// only metered, and a constant 0 — no clock read — when neither.
    #[inline]
    pub fn now(&self) -> u64 {
        match &self.tracer {
            Some(tr) => tr.now_ns(),
            None if self.metered => self.slots.now_ns(),
            None => 0,
        }
    }

    /// Close the interval opened at `t0`: one span on the track (when
    /// traced) and the *same* duration into the kind's histogram (when
    /// metered and the kind has one). Returns the duration, 0 if unmeasured.
    #[inline]
    fn span(&self, kind: SpanKind, t0: u64, mb: u32, chunk: u32, bytes: u64, aux: u64) -> u64 {
        let hist = if self.metered { hist_for(kind) } else { None };
        let dur = match (&self.tracer, hist) {
            (Some(tr), _) => tr.end_span(kind, t0, mb, chunk, bytes, aux),
            (None, Some(_)) => self.slots.now_ns().saturating_sub(t0),
            (None, None) => return 0,
        };
        if let Some(h) = hist {
            self.slots.observe(h, dur);
        }
        dur
    }

    // ---- communication ------------------------------------------------------

    /// A message of `bytes` wire bytes went to `dst`; the call began at `t0`.
    #[inline]
    pub fn sent(&self, collective: bool, dst: usize, bytes: u64, t0: u64) {
        let (b, n) = if collective {
            (Counter::CollBytesSent, Counter::CollMsgsSent)
        } else {
            (Counter::P2pBytesSent, Counter::P2pMsgsSent)
        };
        self.slots.add(b, bytes);
        self.slots.incr(n);
        self.span(
            SpanKind::Send,
            t0,
            NO_ID,
            NO_ID,
            bytes,
            send_aux(dst, collective),
        );
    }

    /// The reorder buffer for one source holds `depth` parked frames.
    #[inline]
    pub fn reorder_depth(&self, depth: usize) {
        if self.metered {
            self.slots.set(Gauge::ReorderDepth, depth as f64);
            self.slots.set_max(Gauge::ReorderDepthMax, depth as f64);
        }
    }

    /// The receive posted at `t0` (with `depth` frames parked for `src`)
    /// matched a message of `bytes` wire bytes: closes the blocked-wait
    /// span. Returns the start mark of the transfer that follows.
    #[inline]
    pub fn received(&self, collective: bool, src: usize, depth: usize, bytes: u64, t0: u64) -> u64 {
        self.slots.add(
            if collective {
                Counter::CollBytesRecv
            } else {
                Counter::P2pBytesRecv
            },
            bytes,
        );
        self.slots.incr(Counter::MsgsRecv);
        self.span(
            SpanKind::RecvWait,
            t0,
            NO_ID,
            NO_ID,
            bytes,
            recv_aux(src, depth),
        );
        self.now()
    }

    /// The matched message finished arriving, `stall_ns` of which this rank
    /// slept on link-model pacing: closes the transfer span opened by
    /// [`received`](Self::received).
    #[inline]
    pub fn transferred(&self, src: usize, depth: usize, bytes: u64, x0: u64, stall_ns: u64) {
        if self.metered && stall_ns > 0 {
            self.slots.add(Counter::PacingStallNs, stall_ns);
        }
        self.span(
            SpanKind::RecvXfer,
            x0,
            NO_ID,
            NO_ID,
            bytes,
            recv_aux(src, depth),
        );
    }

    /// A fault plan injected `n` fault events of the given classes here.
    pub fn fault(&self, flags: FaultFlags, n: u64) {
        self.slots.add(Counter::FaultsInjected, n);
        if let Some(tr) = &self.tracer {
            tr.instant(SpanKind::Fault, fault_aux(flags));
        }
    }

    /// One occurrence of an event counted only when metered (receive
    /// timeouts, stale frames dropped).
    pub fn event(&self, c: Counter) {
        if self.metered {
            self.slots.incr(c);
        }
    }

    /// Open a collective's outer span.
    #[inline]
    pub fn collective_begin(&self) -> CollectiveMark {
        match &self.tracer {
            Some(tr) => (tr.now_ns(), self.slots.get(Counter::CollBytesSent)),
            None => (0, 0),
        }
    }

    /// Close a collective's outer span, charged with the collective bytes
    /// this rank sent since `mark`; the ring hops' spans nest inside it.
    #[inline]
    pub fn collective(&self, kind: SpanKind, mark: CollectiveMark) {
        if let Some(tr) = &self.tracer {
            let bytes = self.slots.get(Counter::CollBytesSent) - mark.1;
            tr.end_span(kind, mark.0, NO_ID, NO_ID, bytes, 0);
        }
    }

    // ---- runtime and optimizer ------------------------------------------------

    /// A compute op of `kind` on `(mb, chunk)` ran from `t0` to now. An id
    /// too large for the span record (a "no microbatch" sentinel) is
    /// recorded as [`NO_ID`].
    #[inline]
    pub fn compute(&self, kind: SpanKind, mb: usize, chunk: usize, t0: u64) {
        let id = |v| u32::try_from(v).unwrap_or(NO_ID);
        self.span(kind, t0, id(mb), id(chunk), 0, 0);
        if self.metered && kind == SpanKind::Fwd {
            self.slots.incr(Counter::MicrobatchesFwd);
        }
    }

    /// An optimizer step at learning rate `lr` ran from `t0` to now.
    #[inline]
    pub fn optim_step(&self, t0: u64, lr: f32) {
        self.span(SpanKind::OptimStep, t0, NO_ID, NO_ID, 0, 0);
        if self.metered {
            self.slots.set(Gauge::CurrentLr, lr as f64);
        }
    }

    /// The replicated-parameter gradient norm; `norm` runs only when metered.
    pub fn grad_norm(&self, norm: impl FnOnce() -> f64) {
        if self.metered {
            self.slots.set(Gauge::GradNorm, norm());
        }
    }

    /// This rank's world re-formed after a failure: the membership
    /// handshake and the re-shard of the resume snapshot ran from `t0` to now.
    pub fn recovered(&self, t0: u64) {
        if self.metered {
            self.slots.incr(Counter::RecoveryEpochs);
            self.slots
                .observe(Hist::ReshardNs, self.now().saturating_sub(t0));
        }
    }

    /// Training iteration `iter` ran from `t0` to now over `tokens` label
    /// tokens and ended at mean loss `loss`.
    pub fn iteration(&self, iter: usize, t0: u64, tokens: u64, loss: f32) {
        let dur = self.span(SpanKind::Iteration, t0, iter as u32, NO_ID, 0, 0);
        if self.metered {
            self.slots.incr(Counter::StepsCompleted);
            self.slots.add(Counter::TokensProcessed, tokens);
            self.slots.set(Gauge::Loss, loss as f64);
            if dur > 0 {
                self.slots
                    .set(Gauge::TokensPerSec, tokens as f64 / (dur as f64 * 1e-9));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_trace::TraceCollector;

    #[test]
    fn traffic_is_counted_with_no_sink_attached_and_nothing_else_is() {
        let reg = MetricsRegistry::new(1);
        let p = Probe::new(reg.handle(0), false, None);
        assert!(p.metrics().is_none() && p.tracer().is_none());
        p.sent(false, 0, 100, p.now());
        p.sent(true, 0, 40, p.now());
        let x0 = p.received(true, 0, 2, 40, p.now());
        p.transferred(0, 2, 40, x0, 5_000);
        p.fault(
            FaultFlags {
                delay: true,
                hold: false,
                corrupt: false,
                dead: false,
            },
            2,
        );
        p.reorder_depth(3);
        p.event(Counter::RecvRetries);
        p.compute(SpanKind::Fwd, 0, 0, p.now());
        p.optim_step(p.now(), 0.5);
        p.grad_norm(|| unreachable!("norm must not be computed when unmetered"));
        p.iteration(0, p.now(), 64, 1.0);

        let mut want = crate::RankSnapshot::empty(0);
        for (c, v) in [
            (Counter::P2pBytesSent, 100),
            (Counter::P2pMsgsSent, 1),
            (Counter::CollBytesSent, 40),
            (Counter::CollMsgsSent, 1),
            (Counter::CollBytesRecv, 40),
            (Counter::MsgsRecv, 1),
            (Counter::FaultsInjected, 2),
        ] {
            want.counters[c.index()] = v;
        }
        assert_eq!(reg.snapshot_rank(0), want);
    }

    #[test]
    fn span_and_histogram_hold_the_same_measurement() {
        let reg = MetricsRegistry::new(1);
        let col = TraceCollector::new(1, 64);
        let p = Probe::new(reg.handle(0), true, Some(col.tracer(0)));
        for kind in [
            SpanKind::Fwd,
            SpanKind::BwdFull,
            SpanKind::BwdData,
            SpanKind::BwdWeight,
            SpanKind::Update,
        ] {
            p.compute(kind, 1, 2, p.now());
        }
        p.optim_step(p.now(), 0.25);
        p.iteration(7, p.now(), 64, 2.0);
        let track = &col.snapshot().tracks[0];
        let snap = reg.snapshot_rank(0);
        let dur = |k| track.of_kind(k).map(|s| s.dur_ns()).sum::<u64>();
        assert_eq!(snap.hist(Hist::FwdNs).sum, dur(SpanKind::Fwd));
        assert_eq!(
            snap.hist(Hist::BwdNs).sum,
            dur(SpanKind::BwdFull) + dur(SpanKind::BwdData)
        );
        assert_eq!(snap.hist(Hist::WgradNs).sum, dur(SpanKind::BwdWeight));
        assert_eq!(snap.hist(Hist::UpdateNs).sum, dur(SpanKind::Update));
        assert_eq!(snap.hist(Hist::OptimStepNs).sum, dur(SpanKind::OptimStep));
        assert_eq!(snap.hist(Hist::StepWallNs).sum, dur(SpanKind::Iteration));
        assert_eq!(snap.counter(Counter::MicrobatchesFwd), 1);
        assert_eq!(snap.counter(Counter::StepsCompleted), 1);
        assert_eq!(snap.gauge(Gauge::CurrentLr), 0.25);
        let it = track.of_kind(SpanKind::Iteration).next().unwrap();
        assert_eq!((it.mb, it.chunk), (7, NO_ID));
    }

    #[test]
    fn collective_span_is_charged_the_bytes_sent_inside_it() {
        let reg = MetricsRegistry::new(1);
        let col = TraceCollector::new(1, 16);
        let p = Probe::new(reg.handle(0), false, Some(col.tracer(0)));
        p.sent(true, 0, 7, p.now()); // before the collective: not charged
        let mark = p.collective_begin();
        p.sent(true, 0, 24, p.now());
        p.sent(false, 0, 1000, p.now()); // point-to-point: not charged
        p.sent(true, 0, 8, p.now());
        p.collective(SpanKind::AllReduce, mark);
        let track = &col.snapshot().tracks[0];
        let ar = track.of_kind(SpanKind::AllReduce).next().unwrap();
        assert_eq!(ar.bytes, 32);
        let hops = track.of_kind(SpanKind::Send).filter(|s| {
            wp_trace::send_aux_decode(s.aux).1 && s.start_ns >= ar.start_ns && s.end_ns <= ar.end_ns
        });
        assert_eq!(hops.count(), 2);
    }

    #[test]
    fn metered_only_probe_times_on_the_registry_clock() {
        let reg = MetricsRegistry::new(1);
        let p = Probe::new(reg.handle(0), true, None);
        let t0 = p.now();
        std::thread::sleep(std::time::Duration::from_millis(2));
        p.optim_step(t0, 1.0);
        let h = reg.snapshot_rank(0).hist(Hist::OptimStepNs).clone();
        assert_eq!(h.count, 1);
        assert!(h.sum >= 2_000_000, "slept 2 ms, observed {} ns", h.sum);
    }
}
