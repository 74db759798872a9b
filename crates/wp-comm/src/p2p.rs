//! The communicator's point-to-point half: one buffered send, one receive
//! posted early and redeemed later, and the failure protocol under both.
//!
//! One [`Communicator`] per rank, layered over one transport endpoint. The
//! transport only promises per-source FIFO framed delivery (the guarantee
//! NCCL P2P gives within a stream) and buffered sends that return once the
//! substrate holds the frame (the runtime's analogue of buffered `isend`);
//! everything else — tag matching with a per-source reorder buffer (which
//! the interleaved WeiPipe schedules rely on), timeouts, fault injection,
//! abort, metering, pacing — lives here and
//! is byte-identical whether the frames cross an in-process channel
//! ([`TransportKind::InProcess`](crate::TransportKind::InProcess)) or a
//! localhost TCP socket
//! ([`TransportKind::TcpLocalhost`](crate::TransportKind::TcpLocalhost),
//! possibly between OS processes). The ring collectives built on these two
//! primitives are in [`crate::collectives`]; the builder that wires a
//! world of communicators and runs one thread per rank is in
//! [`crate::world`].
//!
//! # Failure semantics
//!
//! Every operation that can fail returns a [`CommError`] instead of
//! panicking. A fatal error on any rank trips a world-wide *abort cell*
//! (the poison pill): every other rank's next — or currently blocking —
//! operation observes the cell within one poll interval and unwinds with
//! the propagated cause, so one dead rank tears the world down in
//! milliseconds instead of deadlocking it for the full receive timeout.
//! [`CommError::PeerDead`] propagates verbatim (every survivor learns *who*
//! died); other causes surface on bystanders as [`CommError::Aborted`]
//! naming the origin rank. A payload is packed into its wire dtype and
//! checksummed over those wire bytes at send time, verified on arrival and
//! unpacked at delivery, turning wire corruption (real or injected) into
//! [`CommError::Corrupt`].
//!
//! Faults themselves are injected by an optional
//! [`FaultPlan`](crate::FaultPlan) attached via
//! [`World::builder`](crate::World::builder); see [`crate::fault`] for the
//! fault classes and their determinism guarantees.

use crate::error::CommError;
use crate::fault::RankInjector;
use crate::link::LinkModel;
use crate::meter::TrafficMeter;
use crate::transport::{AbortCell, Frame, Payload, RecvWait, Transport};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wp_metrics::{Counter, Probe, RankMetrics};
use wp_tensor::DType;
use wp_trace::{FaultFlags, RankTracer};

/// Tags ≥ this value are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

/// Timeout and polling policy for blocking receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommConfig {
    /// How long a receive waits before it is declared timed out. Generous by
    /// default so a healthy-but-slow world never trips it; chaos tests
    /// shrink it to fail fast.
    pub recv_timeout: Duration,
    /// Granularity at which a blocking receive re-checks the abort cell. The
    /// worst-case latency between a remote failure and this rank unwinding.
    pub poll_interval: Duration,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            recv_timeout: Duration::from_secs(120),
            poll_interval: Duration::from_millis(2),
        }
    }
}

impl CommConfig {
    /// A fail-fast config for tests: small timeout, fine-grained polling.
    pub fn fail_fast(recv_timeout: Duration) -> Self {
        CommConfig {
            recv_timeout,
            poll_interval: Duration::from_millis(1)
                .min(recv_timeout / 4)
                .max(Duration::from_micros(100)),
        }
    }
}

/// Per-rank endpoint of a [`World`](crate::World).
///
/// Not `Clone`: exactly one thread owns each rank, mirroring one process per
/// GPU. The fields are crate-visible for the type's two sibling files: the
/// ring collectives (`impl Communicator` in [`crate::collectives`]) and the
/// builder that assembles it ([`crate::world`]).
#[derive(Debug)]
pub struct Communicator {
    pub(crate) rank: usize,
    pub(crate) world: usize,
    /// The substrate moving frames between ranks. Everything this struct
    /// does on top of it is transport-agnostic.
    pub(crate) transport: Box<dyn Transport>,
    /// Tag-mismatched frames parked per source.
    pub(crate) pending: Vec<VecDeque<Frame>>,
    pub(crate) link: LinkModel,
    /// Sequence number for collectives; advances identically on every rank
    /// because collectives are bulk-synchronous SPMD calls.
    pub(crate) coll_seq: u64,
    pub(crate) config: CommConfig,
    pub(crate) abort: Arc<AbortCell>,
    pub(crate) faults: Option<RankInjector>,
    /// One-slot reorder buffer per destination: a held message is delivered
    /// after the *next* message on the same link (see [`crate::fault`]).
    pub(crate) held: Vec<Option<Frame>>,
    /// Per-destination link availability: when the directed link
    /// `self.rank → dst` finishes its current transfer. One DMA path per
    /// directed link, busy for [`LinkModel::occupancy_s`] per message, the
    /// same model and the same method the simulator prices a send with, so
    /// back-to-back sends to the same neighbour serialise on bandwidth
    /// instead of each getting a private wire. `None` until the link is
    /// first used (or always, for instant links).
    pub(crate) link_busy: Vec<Option<Instant>>,
    /// This rank's telemetry: every instrumented site below reports
    /// through it, and it counts the traffic [`meter`](Self::meter) reads.
    pub(crate) probe: Probe,
    /// Whether this rank has already forwarded the world's abort cause to
    /// its peers (see [`Communicator::standing_cause`]).
    pub(crate) abort_relayed: bool,
    /// Configuration epoch this rank belongs to. Stamped on every outgoing
    /// frame; arriving frames stamped with any *other* epoch are silently
    /// dropped (counted in [`Counter::StaleFramesDropped`]), so traffic
    /// from a pre-reconfiguration world can never match a current receive.
    pub(crate) epoch: u64,
}

/// A receive in flight, returned by [`Communicator::irecv`] and redeemed
/// with [`Communicator::wait_recv`]. It records the post mark and the
/// reorder-buffer depth observed at post time; the match happens at the
/// wait, so the `RecvWait` trace span covers the full post→complete
/// interval.
///
/// There is no send handle: [`Communicator::send`] follows buffered-isend
/// semantics — the transport holds the payload, and the meter is charged,
/// before it returns — so a "send request" would be complete at creation.
#[derive(Debug)]
#[must_use = "a request that is never waited on completes nothing"]
pub struct Request {
    src: usize,
    tag: u64,
    t0: u64,
    depth: usize,
}

impl Communicator {
    /// This rank's id in `0..world_size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the world.
    #[inline]
    pub fn world_size(&self) -> usize {
        self.world
    }

    /// Rank of the next worker on the ring.
    #[inline]
    pub fn next_rank(&self) -> usize {
        (self.rank + 1) % self.world
    }

    /// Rank of the previous worker on the ring.
    #[inline]
    pub fn prev_rank(&self) -> usize {
        (self.rank + self.world - 1) % self.world
    }

    /// The configuration epoch this rank operates in (see
    /// [`WorldBuilder::epoch`](crate::WorldBuilder::epoch)).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The traffic meter shared by the whole world.
    pub fn meter(&self) -> TrafficMeter {
        TrafficMeter::over(self.probe.registry())
    }

    /// The timeout policy this rank operates under.
    pub fn config(&self) -> &CommConfig {
        &self.config
    }

    /// This rank's telemetry handle. Runtimes layered on top clone it to
    /// report their own compute and step events on the same track and into
    /// the same slots.
    pub fn probe(&self) -> &Probe {
        &self.probe
    }

    /// This rank's span recorder, when the world was built with a
    /// [`TraceCollector`](wp_trace::TraceCollector) (see
    /// [`WorldBuilder::trace`](crate::WorldBuilder::trace)).
    pub fn tracer(&self) -> Option<&RankTracer> {
        self.probe.tracer()
    }

    /// This rank's metric recorder, when the world was built with a
    /// [`MetricsRegistry`](wp_metrics::MetricsRegistry) (see
    /// [`WorldBuilder::metrics`](crate::WorldBuilder::metrics)).
    pub fn metrics(&self) -> Option<&RankMetrics> {
        self.probe.metrics()
    }

    /// Admit one frame that arrived from `src`. A frame from another
    /// configuration epoch is dropped before checksum verification or tag
    /// matching — a straggler from the pre-fault world must not complete a
    /// current receive, and its (possibly injected) corruption must not
    /// fail the new world either. A current-epoch frame that fails its
    /// checksum fails the world. Otherwise the frame is handed back when it
    /// carries the `want`ed tag, and parked in the reorder buffer when not.
    fn intake(&mut self, src: usize, msg: Frame, want: u64) -> Result<Option<Frame>, CommError> {
        if msg.epoch != self.epoch {
            self.probe.event(Counter::StaleFramesDropped);
            return Ok(None);
        }
        if !msg.verify() {
            let e = CommError::Corrupt { src, tag: msg.tag };
            self.fail(&e);
            return Err(e);
        }
        if want == msg.tag {
            return Ok(Some(msg));
        }
        self.pending[src].push_back(msg);
        self.probe.reorder_depth(self.pending[src].len());
        Ok(None)
    }

    /// Record a fatal failure: poison the world so every other rank unwinds.
    /// When peers live in other processes (the TCP transport) the trip is
    /// additionally forwarded over the wire.
    fn fail(&mut self, e: &CommError) {
        if e.is_fatal() {
            self.abort.trip(self.rank, e.clone());
            self.transport.propagate_abort(self.rank, e);
            self.abort_relayed = true;
        }
    }

    /// Report a fatal failure detected *above* the communicator (e.g. a
    /// membership disagreement during elastic reconfiguration) into the
    /// abort protocol: the world is poisoned so every peer's next blocking
    /// operation unwinds with a typed error instead of timing out.
    /// Non-fatal errors are ignored.
    pub fn abort_with(&mut self, e: &CommError) {
        self.fail(e);
    }

    /// The error to unwind with when the world's abort cell is already
    /// tripped — relaying the root cause to the peers first. The trip may
    /// have come from this endpoint's own reader thread (a TCP endpoint
    /// observing a peer's unclean EOF trips only the *local* cell), in
    /// which case remote ranks have not heard yet: without the relay a
    /// peer blocked on *this* rank could observe this rank's clean
    /// teardown first and misreport it as the failure, instead of the
    /// real victim. A no-op relay for the in-process transport, whose
    /// cell is already world-shared.
    fn standing_cause(&mut self) -> CommError {
        if !self.abort_relayed {
            self.abort_relayed = true;
            if let Some((origin, cause)) = self.abort.cause() {
                self.transport.propagate_abort(origin, &cause);
            }
        }
        self.abort.cause_for(self.rank)
    }

    /// Gate every communication operation: let the fault plan kill this
    /// rank at its scheduled operation, then honour a standing abort. The
    /// kill check runs *first* because a fault plan models hardware death —
    /// a dying node is not rescued by somebody else's abort landing a
    /// microsecond earlier. This keeps multi-victim plans (two simultaneous
    /// deaths for an 8 → 6 elastic shrink) deterministic: every scheduled
    /// victim that reaches its operation dies as its own `PeerDead`, not as
    /// a bystander of the first death.
    fn precheck(&mut self) -> Result<(), CommError> {
        if let Some(inj) = self.faults.as_mut() {
            if inj.op_kills_rank() {
                let e = CommError::PeerDead { rank: self.rank };
                self.probe.fault(
                    FaultFlags {
                        delay: false,
                        hold: false,
                        corrupt: false,
                        dead: true,
                    },
                    1,
                );
                self.fail(&e);
                return Err(e);
            }
        }
        if self.abort.is_tripped() {
            return Err(self.standing_cause());
        }
        Ok(())
    }

    /// Send `data` to `dst` with a user `tag`, packed into (and charged at)
    /// the given wire dtype. Returns once the transport holds the payload —
    /// and the meter is charged — without waiting for `dst` to receive it
    /// (buffered-isend semantics), so there is nothing to wait on
    /// afterwards.
    ///
    /// # Errors
    /// [`CommError::InvalidTag`] for tags reserved for collectives;
    /// [`CommError::PeerDead`] if `dst`'s endpoint is gone (or a fault plan
    /// killed this rank); a propagated abort error if the world already
    /// failed.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or equals this rank (API misuse).
    pub fn send(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f32],
        dtype: DType,
    ) -> Result<(), CommError> {
        if tag >= COLLECTIVE_TAG_BASE {
            return Err(CommError::InvalidTag { tag });
        }
        self.send_internal(dst, tag, data, dtype, false)
    }

    /// One send call of either traffic class: on success, counted and
    /// spanned by the probe with the wire size
    /// [`send_inner`](Self::send_inner) put on the frame.
    pub(crate) fn send_internal(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f32],
        dtype: DType,
        collective: bool,
    ) -> Result<(), CommError> {
        let t0 = self.probe.now();
        let bytes = self.send_inner(dst, tag, data, dtype, collective)?;
        self.probe.sent(collective, dst, bytes, t0);
        Ok(())
    }

    fn send_inner(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f32],
        dtype: DType,
        collective: bool,
    ) -> Result<u64, CommError> {
        assert!(dst < self.world, "dst {dst} out of range");
        assert_ne!(dst, self.rank, "self-send is not supported");
        self.precheck()?;
        let bytes = (data.len() * dtype.size_bytes()) as u64;
        let limit = self.transport.max_payload_bytes();
        if bytes > limit {
            let e = CommError::FrameTooLarge { dst, bytes, limit };
            self.fail(&e);
            return Err(e);
        }
        let payload = Payload::pack(data, dtype);
        let mut deliver_at = if self.link.is_instant() {
            None
        } else {
            // The directed link is a single DMA path (as in wp-sim): this
            // transfer starts once the previous send to `dst` has drained,
            // occupies the link for `occupancy_s(bytes)`, and lands one
            // latency after that.
            let now = Instant::now();
            let issue = match self.link_busy[dst] {
                Some(busy) if busy > now => busy,
                _ => now,
            };
            let drained = issue + Duration::from_secs_f64(self.link.occupancy_s(bytes));
            self.link_busy[dst] = Some(drained);
            Some(drained + Duration::from_secs_f64(self.link.latency_s))
        };
        let mut hold = false;
        let mut corrupt = false;
        if let Some(inj) = self.faults.as_mut() {
            let f = inj.on_send(dst);
            if f.injected > 0 {
                self.probe.fault(
                    FaultFlags {
                        delay: !f.extra_delay.is_zero(),
                        hold: f.hold,
                        corrupt: f.corrupt,
                        dead: false,
                    },
                    f.injected,
                );
            }
            if !f.extra_delay.is_zero() {
                deliver_at = Some(deliver_at.unwrap_or_else(Instant::now) + f.extra_delay);
            }
            hold = f.hold;
            corrupt = f.corrupt;
        }
        // Checksum the honest payload, then corrupt what the wire carries —
        // the receiver must see the mismatch.
        let mut msg = Frame {
            tag,
            checksum: payload.checksum(),
            payload,
            deliver_at,
            collective,
            epoch: self.epoch,
        };
        if corrupt {
            match msg.payload.as_bytes_mut().first_mut() {
                Some(byte) => *byte ^= 1,
                None => msg.checksum ^= 1,
            }
        }
        if hold && self.held[dst].is_none() {
            self.held[dst] = Some(msg);
            return Ok(bytes);
        }
        self.wire_send(dst, msg)?;
        // Flushing after the newer message is what performs the swap.
        if let Some(h) = self.held[dst].take() {
            self.wire_send(dst, h)?;
        }
        Ok(bytes)
    }

    /// Put one frame on the wire; a closed endpoint means the peer is gone.
    fn wire_send(&mut self, dst: usize, msg: Frame) -> Result<(), CommError> {
        if self.transport.send(dst, msg).is_ok() {
            return Ok(());
        }
        if self.abort.is_tripped() {
            // The peer exited because the world is unwinding; report the
            // root cause rather than a secondary symptom.
            return Err(self.standing_cause());
        }
        let e = CommError::PeerDead { rank: dst };
        self.fail(&e);
        Err(e)
    }

    /// Deliver every held (reorder-delayed) message. Must run before this
    /// rank blocks in a receive so an injected hold can delay but never
    /// deadlock a delivery.
    fn flush_held(&mut self) -> Result<(), CommError> {
        for dst in 0..self.world {
            if let Some(h) = self.held[dst].take() {
                self.wire_send(dst, h)?;
            }
        }
        Ok(())
    }

    /// Post a receive for `(src, tag)` without blocking; redeem with
    /// [`wait_recv`](Self::wait_recv). This is the prefetch half of the
    /// paper's §4.3 `batch_isend_irecv`: post the next round's receive, run
    /// this round's compute, wait at the boundary. Posting is infallible —
    /// matching, fault checks, and timeouts all surface at the wait, so a
    /// fault striking while the request is outstanding is reported as the
    /// same typed [`CommError`] the blocking path returns.
    ///
    /// # Panics
    /// Panics if `src` is out of range or equals this rank (API misuse).
    pub fn irecv(&self, src: usize, tag: u64) -> Request {
        assert!(src < self.world, "src {src} out of range");
        assert_ne!(src, self.rank, "self-recv is not supported");
        let depth = self.pending[src].len();
        self.probe.reorder_depth(depth);
        Request {
            src,
            tag,
            // Trace bookkeeping: the blocked-wait span starts when the
            // receive is posted, and the queue depth recorded is the
            // reorder-buffer depth observed at post time.
            t0: self.probe.now(),
            depth,
        }
    }

    /// Blocking receive of the message with `tag` from `src`:
    /// [`irecv`](Self::irecv) immediately redeemed, for callers with nothing
    /// to overlap.
    ///
    /// # Errors
    /// Same as [`wait_recv`](Self::wait_recv).
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let req = self.irecv(src, tag);
        self.wait_recv(req)
    }

    /// Block until the message `req` was posted for arrives; returns its
    /// payload. One fault-plan operation, then match against the reorder
    /// buffer and poll the inbox until the receive timeout; frames from the
    /// same source with other tags are parked and delivered to later
    /// matching receives in FIFO order.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when [`CommConfig::recv_timeout`] elapses with
    /// no match; [`CommError::PeerDead`] when the source's endpoint closed;
    /// [`CommError::Corrupt`] when an arriving payload fails its checksum; a
    /// propagated abort error when another rank failed first.
    pub fn wait_recv(&mut self, req: Request) -> Result<Vec<f32>, CommError> {
        let Request {
            src,
            tag,
            t0,
            depth,
        } = req;
        self.precheck()?;
        self.flush_held()?;
        // Check the reorder buffer first.
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
            let msg = self.pending[src].remove(pos).expect("position just found");
            return Ok(self.deliver(src, depth, t0, msg));
        }
        // One timeout window, polled in small slices so a world abort
        // interrupts the wait within `poll_interval`.
        let started = Instant::now();
        let deadline = started + self.config.recv_timeout;
        loop {
            if self.abort.is_tripped() {
                return Err(self.standing_cause());
            }
            let Some(remaining) = deadline.checked_duration_since(Instant::now()) else {
                break;
            };
            let slice = remaining.min(self.config.poll_interval);
            match self.transport.recv_timeout(src, slice) {
                RecvWait::Frame(msg) => {
                    if let Some(msg) = self.intake(src, msg, tag)? {
                        return Ok(self.deliver(src, depth, t0, msg));
                    }
                }
                RecvWait::TimedOut => {}
                RecvWait::Closed => {
                    if self.abort.is_tripped() {
                        return Err(self.standing_cause());
                    }
                    let e = CommError::PeerDead { rank: src };
                    self.fail(&e);
                    return Err(e);
                }
            }
        }
        let e = CommError::Timeout {
            src,
            tag,
            waited_ms: started.elapsed().as_millis() as u64,
        };
        self.probe.event(Counter::RecvTimeouts);
        self.fail(&e);
        Err(e)
    }

    /// Consume a matched message: count it and close the blocked-wait span
    /// (post → match), then under the transfer span (match → fully arrived)
    /// sleep out the link model and unpack the payload into the values
    /// handed back — a move for an f32 frame.
    fn deliver(&mut self, src: usize, depth: usize, t0: u64, msg: Frame) -> Vec<f32> {
        let bytes = msg.payload.wire_bytes();
        let x0 = self.probe.received(msg.collective, src, depth, bytes, t0);
        let stall = msg.deliver_at.map_or(Duration::ZERO, |at| {
            at.saturating_duration_since(Instant::now())
        });
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
        let data = msg.payload.unpack();
        self.probe
            .transferred(src, depth, bytes, x0, stall.as_nanos() as u64);
        data
    }
}

impl Drop for Communicator {
    fn drop(&mut self) {
        // A held (reorder-delayed) message must still reach its receiver
        // even if this rank finishes without another operation on that
        // link. Errors are moot here: a closed endpoint means the receiver
        // is already gone.
        for dst in 0..self.world {
            if let Some(h) = self.held[dst].take() {
                let _ = self.transport.send(dst, h);
            }
        }
        // Announce the close so remote peers can tell this clean exit from
        // a crash (a no-op for the in-process transport, whose dropped
        // channels already read as a quiescent disconnect).
        self.transport.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultPlan, TransportKind, World};
    use wp_trace::{SpanKind, TraceCollector};

    #[test]
    fn p2p_roundtrip() {
        let (vals, _) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0, 3.0], DType::F32).unwrap();
                0.0
            } else {
                c.recv(0, 7).unwrap().iter().sum::<f32>()
            }
        });
        assert_eq!(vals[1], 6.0);
    }

    #[test]
    fn tag_matching_out_of_order() {
        let (vals, _) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                c.send(1, 1, &[10.0], DType::F32).unwrap();
                c.send(1, 2, &[20.0], DType::F32).unwrap();
                c.send(1, 3, &[30.0], DType::F32).unwrap();
                vec![]
            } else {
                // Receive in reverse tag order.
                let a = c.recv(0, 3).unwrap();
                let b = c.recv(0, 2).unwrap();
                let d = c.recv(0, 1).unwrap();
                vec![a[0], b[0], d[0]]
            }
        });
        assert_eq!(vals[1], vec![30.0, 20.0, 10.0]);
    }

    #[test]
    fn fp16_wire_quantizes() {
        let (vals, meter) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                c.send(1, 0, &[1.0 + 2f32.powi(-13)], DType::F16).unwrap();
                0.0
            } else {
                c.recv(0, 0).unwrap()[0]
            }
        });
        assert_eq!(vals[1], 1.0, "payload must round-trip through fp16");
        assert_eq!(meter.rank(0).p2p_bytes, 2, "1 element × 2 bytes");
    }

    #[test]
    fn link_pacing_delays_delivery() {
        // 1 MB over a 100 MB/s link ≈ 10 ms.
        let slow = LinkModel {
            bandwidth_bps: 100e6,
            latency_s: 0.0,
        };
        let start = Instant::now();
        let (_, _) = World::run(2, slow, |mut c| {
            if c.rank() == 0 {
                c.send(1, 0, &vec![0.0f32; 250_000], DType::F32).unwrap();
            } else {
                c.recv(0, 0).unwrap();
            }
        });
        assert!(
            start.elapsed() >= Duration::from_millis(9),
            "paced delivery should take ≈10ms, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn back_to_back_sends_serialise_on_the_directed_link() {
        // Two 1 MB messages over the same 100 MB/s directed link: the link
        // is a single DMA path, so the second starts only after the first
        // drains — both delivered ≈ 20 ms after the sends were posted.
        let slow = LinkModel {
            bandwidth_bps: 100e6,
            latency_s: 0.0,
        };
        let start = Instant::now();
        World::run(2, slow, |mut c| {
            if c.rank() == 0 {
                c.send(1, 0, &vec![0.0f32; 250_000], DType::F32).unwrap();
                c.send(1, 1, &vec![0.0f32; 250_000], DType::F32).unwrap();
            } else {
                c.recv(0, 0).unwrap();
                c.recv(0, 1).unwrap();
            }
        });
        assert!(
            start.elapsed() >= Duration::from_millis(18),
            "serialised transfers should take ≈20ms, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn irecv_wait_pairs_with_send() {
        let (vals, _) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                c.send(1, 5, &[8.0], DType::F32).unwrap();
                0.0
            } else {
                let h = c.irecv(0, 5);
                // ... compute would overlap here ...
                c.wait_recv(h).unwrap()[0]
            }
        });
        assert_eq!(vals[1], 8.0);
    }

    #[test]
    fn send_charges_the_sender_when_it_returns() {
        let (vals, _) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                c.send(1, 3, &[4.0, 5.0], DType::F32).unwrap();
                // Buffered-isend semantics: nothing is left to wait on, and
                // the bytes are on the meter whether or not rank 1 has
                // received them yet.
                let mine = c.meter().rank(0);
                assert_eq!((mine.p2p_bytes, mine.p2p_msgs), (8, 1));
                0.0
            } else {
                c.recv(0, 3).unwrap().iter().sum::<f32>()
            }
        });
        assert_eq!(vals[1], 9.0);
    }

    #[test]
    fn receives_posted_before_any_send_complete_in_both_ring_directions() {
        // Every rank posts both of its receives, the whole world meets at a
        // barrier, and only then does anyone send: two payloads per rank,
        // one each way round the ring. The exchange must neither deadlock
        // nor hand a payload to the wrong request.
        let p = 4;
        let all_posted = std::sync::Barrier::new(p);
        let (outs, _) = World::run(p, LinkModel::instant(), |mut c| {
            let r = c.rank() as f32;
            let (next, prev) = (c.next_rank(), c.prev_rank());
            let from_prev = c.irecv(prev, 1);
            let from_next = c.irecv(next, 2);
            all_posted.wait();
            c.send(next, 1, &[r], DType::F32).unwrap();
            c.send(prev, 2, &[r + 100.0], DType::F32).unwrap();
            (
                c.wait_recv(from_prev).unwrap()[0],
                c.wait_recv(from_next).unwrap()[0],
            )
        });
        for (r, &(from_prev, from_next)) in outs.iter().enumerate() {
            assert_eq!(from_prev, ((r + p - 1) % p) as f32);
            assert_eq!(from_next, ((r + 1) % p) as f32 + 100.0);
        }
    }

    #[test]
    fn outstanding_request_surfaces_typed_abort() {
        // Rank 1 has a receive request outstanding when rank 0 dies; the
        // wait must unwind with the typed PeerDead cause, not hang.
        let cfg = CommConfig::fail_fast(Duration::from_secs(5));
        let (results, _) = World::builder(2).config(cfg).try_run(|mut c| {
            if c.rank() == 0 {
                return Err(CommError::PeerDead { rank: 0 });
            }
            let req = c.irecv(0, 7);
            let t0 = Instant::now();
            let r = c.wait_recv(req);
            assert!(
                t0.elapsed() < Duration::from_secs(5),
                "abort must interrupt the wait"
            );
            r
        });
        // try_run returns rank 0's own error; rank 1's outstanding request
        // observes the same typed cause through the abort cell.
        assert!(results[0].is_err());
        match results[1].as_ref().unwrap_err() {
            CommError::PeerDead { rank: 0 } | CommError::Aborted { origin: 0, .. } => {}
            other => panic!("expected the propagated rank-0 death, got {other:?}"),
        }
    }

    #[test]
    fn irecv_posted_before_fault_reports_corruption_at_wait() {
        // A corruption injected while the request is outstanding surfaces
        // as the same typed Corrupt error the blocking path returns —
        // whatever the wire carries (the flipped bit is a wire bit), an
        // empty payload included, and over either transport.
        for kind in [TransportKind::InProcess, TransportKind::TcpLocalhost] {
            for wire in [DType::F32, DType::F16, DType::BF16] {
                for data in [&[1.0f32, 2.0][..], &[]] {
                    let plan = FaultPlan::new(3).with_corruption(0, 1, 0);
                    let cfg = CommConfig::fail_fast(Duration::from_secs(2));
                    let (results, _) = World::builder(2)
                        .config(cfg)
                        .transport(kind)
                        .faults(plan)
                        .try_run(|mut c| {
                            if c.rank() == 0 {
                                c.send(1, 4, data, wire)?;
                                Ok(vec![])
                            } else {
                                let req = c.irecv(0, 4);
                                c.wait_recv(req)
                            }
                        });
                    match results[1].as_ref().unwrap_err() {
                        CommError::Corrupt { src: 0, tag: 4 } => {}
                        other => panic!(
                            "{kind:?} {wire} {data:?}: expected Corrupt from wait on outstanding request, got {other:?}"
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn reserved_tags_rejected() {
        let mut comms = World::builder(2).build();
        let mut c = comms.remove(0);
        let err = c
            .send(1, COLLECTIVE_TAG_BASE, &[0.0], DType::F32)
            .unwrap_err();
        assert_eq!(
            err,
            CommError::InvalidTag {
                tag: COLLECTIVE_TAG_BASE
            }
        );
        assert!(!err.is_fatal(), "API misuse must not poison the world");
    }

    #[test]
    fn recv_side_bytes_mirror_send_side() {
        let p = 4;
        let (_, meter) = World::run(p, LinkModel::instant(), |mut c| {
            let mine = vec![c.rank() as f32; 8];
            c.send(c.next_rank(), 1, &mine, DType::F32).unwrap();
            c.recv(c.prev_rank(), 1).unwrap();
        });
        for r in 0..p {
            let t = meter.rank(r);
            assert_eq!(t.p2p_bytes, 32, "each rank sends 8 f32");
            assert_eq!(t.recv_bytes, 32, "each rank receives its neighbour's 8 f32");
            assert_eq!(t.recv_msgs, 1);
        }
        assert_eq!(meter.total_recv_bytes(), meter.total_bytes());
    }

    #[test]
    fn fault_instants_land_on_the_injecting_rank() {
        let collector = TraceCollector::new(2, 64);
        let plan = FaultPlan::new(11).with_delay_jitter(Duration::from_micros(50));
        let (_, meter) = World::builder(2)
            .trace(collector.clone())
            .faults(plan)
            .run(|mut c| {
                if c.rank() == 0 {
                    c.send(1, 0, &[1.0], DType::F32).unwrap();
                } else {
                    c.recv(0, 0).unwrap();
                }
            });
        let trace = collector.snapshot();
        let instants: Vec<_> = trace.tracks[0].of_kind(SpanKind::Fault).collect();
        assert_eq!(
            instants.len() as u64,
            meter.rank(0).faults_injected,
            "every injected fault shows as an instant on the sender's track"
        );
        for f in &instants {
            assert!(f.is_instant());
            assert!(wp_trace::fault_aux_decode(f.aux).delay);
        }
        assert!(
            !trace.tracks[1].has_kind(SpanKind::Fault),
            "receiver injected nothing"
        );
    }
}
