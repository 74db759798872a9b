//! The communicator: NCCL-flavoured point-to-point and ring collectives
//! over a pluggable [`Transport`].
//!
//! One [`Communicator`] per rank, layered over one transport endpoint. The
//! transport only promises per-source FIFO framed delivery (the guarantee
//! NCCL P2P gives within a stream) and non-blocking sends (the runtime's
//! analogue of buffered `isend`); everything else — tag matching with a
//! per-source reorder buffer (which the interleaved WeiPipe schedules rely
//! on), timeouts, fault injection, abort, metering, pacing — lives here and
//! is byte-identical whether the frames cross an in-process channel
//! ([`TransportKind::InProcess`]) or a localhost TCP socket
//! ([`TransportKind::TcpLocalhost`], possibly between OS processes).
//!
//! Collectives are built on the ring algorithms NCCL uses in the paper's
//! setting ("tree algorithms were not adopted"): all-reduce is
//! reduce-scatter + all-gather around the ring, each rank sending
//! `2·(P−1)/P · n` bytes — the byte count the FSDP cost model charges.
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
//! naming the origin rank. Payloads are checksummed at send time and
//! verified on arrival, turning wire corruption (real or injected) into
//! [`CommError::Corrupt`].
//!
//! Faults themselves are injected by an optional [`FaultPlan`] attached via
//! [`World::builder`]; see [`crate::fault`] for the fault classes and their
//! determinism guarantees.

use crate::error::CommError;
use crate::fault::{FaultPlan, RankInjector};
use crate::link::LinkModel;
use crate::meter::{TrafficClass, TrafficMeter};
use crate::transport::{
    checksum_of, AbortCell, ChannelTransport, Frame, RecvPoll, RecvWait, Transport, TransportKind,
};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use wp_metrics::{Counter, MetricsRegistry, Probe, RankMetrics};
use wp_tensor::dtype::quantize_slice;
use wp_tensor::DType;
use wp_trace::{FaultFlags, RankTracer, SpanKind, TraceCollector};

/// Tags ≥ this value are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 48;

/// Timeout, retry, and polling policy for blocking receives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CommConfig {
    /// How long one receive attempt waits before it is declared timed out.
    /// Generous by default so a healthy-but-slow world never trips it; chaos
    /// tests shrink it to fail fast.
    pub recv_timeout: Duration,
    /// Granularity at which a blocking receive re-checks the abort cell. The
    /// worst-case latency between a remote failure and this rank unwinding.
    pub poll_interval: Duration,
    /// Extra receive attempts after the first window times out.
    pub retries: u32,
    /// Multiplier applied to the timeout window on each retry.
    pub backoff: f64,
}

impl Default for CommConfig {
    fn default() -> Self {
        CommConfig {
            recv_timeout: Duration::from_secs(120),
            poll_interval: Duration::from_millis(2),
            retries: 0,
            backoff: 2.0,
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
            retries: 0,
            backoff: 2.0,
        }
    }

    /// Total wall-clock budget a receive may consume across every retry
    /// window (the bound watchdog tests assert against).
    pub fn total_recv_budget(&self) -> Duration {
        let mut total = self.recv_timeout;
        let mut window = self.recv_timeout;
        for _ in 0..self.retries {
            window = window.mul_f64(self.backoff.max(1.0));
            total += window;
        }
        total
    }
}

/// Per-rank endpoint of a [`World`].
///
/// Not `Clone`: exactly one thread owns each rank, mirroring one process per
/// GPU.
#[derive(Debug)]
pub struct Communicator {
    rank: usize,
    world: usize,
    /// The substrate moving frames between ranks. Everything this struct
    /// does on top of it is transport-agnostic.
    transport: Box<dyn Transport>,
    /// Tag-mismatched frames parked per source.
    pending: Vec<VecDeque<Frame>>,
    link: LinkModel,
    /// Sequence number for collectives; advances identically on every rank
    /// because collectives are bulk-synchronous SPMD calls.
    coll_seq: u64,
    config: CommConfig,
    abort: Arc<AbortCell>,
    faults: Option<RankInjector>,
    /// One-slot reorder buffer per destination: a held message is delivered
    /// after the *next* message on the same link (see [`crate::fault`]).
    held: Vec<Option<Frame>>,
    /// Per-destination link availability: when the directed link
    /// `self.rank → dst` finishes its current transfer. Mirrors the
    /// simulator's one-DMA-path-per-directed-link model, so back-to-back
    /// sends to the same neighbour serialise on bandwidth instead of each
    /// getting a private wire. `None` until the link is first used (or
    /// always, for instant links).
    link_busy: Vec<Option<Instant>>,
    /// This rank's telemetry: every instrumented site below reports
    /// through it, and it counts the traffic [`meter`](Self::meter) reads.
    probe: Probe,
    /// Whether this rank has already forwarded the world's abort cause to
    /// its peers (see [`Communicator::standing_cause`]).
    abort_relayed: bool,
    /// Configuration epoch this rank belongs to. Stamped on every outgoing
    /// frame; arriving frames stamped with any *other* epoch are silently
    /// dropped (counted in [`Counter::StaleFramesDropped`]), so traffic
    /// from a pre-reconfiguration world can never match a current receive.
    epoch: u64,
}

/// A nonblocking operation in flight, returned by [`Communicator::isend`]
/// and [`Communicator::irecv`]. Redeem with [`Communicator::wait`] (or the
/// [`wait_recv`](Communicator::wait_recv) / [`wait_all`](Communicator::wait_all)
/// conveniences); poll without blocking via [`Communicator::test`].
///
/// Send requests follow buffered-isend semantics: the payload is on the wire
/// — and the meter charged — before `isend` returns, so a send request is
/// complete at creation and `wait` never blocks on it. Receive requests
/// record the post mark and the reorder-buffer depth observed at post
/// time; the match happens at `wait`, so the `RecvWait` trace span covers
/// the full post→complete interval.
#[derive(Debug)]
#[must_use = "a request that is never waited on completes nothing"]
pub struct Request {
    inner: ReqInner,
}

#[derive(Debug)]
enum ReqInner {
    Send {
        dst: usize,
    },
    Recv {
        src: usize,
        tag: u64,
        t0: u64,
        depth: usize,
    },
}

impl Request {
    /// Whether this request was produced by [`Communicator::irecv`] — its
    /// completion carries a payload.
    pub fn is_recv(&self) -> bool {
        matches!(self.inner, ReqInner::Recv { .. })
    }

    /// The peer rank this request communicates with.
    pub fn peer(&self) -> usize {
        match self.inner {
            ReqInner::Send { dst } => dst,
            ReqInner::Recv { src, .. } => src,
        }
    }
}

/// Successful completion of a [`Request`].
#[derive(Debug, Clone, PartialEq)]
pub enum Completion {
    /// A send request completed (its payload was already on the wire).
    Sent,
    /// A receive request matched its message; the payload.
    Received(Vec<f32>),
}

impl Completion {
    /// The received payload, if this completion came from a receive request.
    pub fn into_payload(self) -> Option<Vec<f32>> {
        match self {
            Completion::Sent => None,
            Completion::Received(data) => Some(data),
        }
    }
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
    /// [`WorldBuilder::epoch`]).
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The traffic meter shared by the whole world.
    pub fn meter(&self) -> TrafficMeter {
        TrafficMeter::over(self.probe.registry())
    }

    /// The timeout/retry policy this rank operates under.
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
    /// [`TraceCollector`] (see [`WorldBuilder::trace`]).
    pub fn tracer(&self) -> Option<&RankTracer> {
        self.probe.tracer()
    }

    /// This rank's metric recorder, when the world was built with a
    /// [`MetricsRegistry`] (see [`WorldBuilder::metrics`]).
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
    fn intake(
        &mut self,
        src: usize,
        msg: Frame,
        want: Option<u64>,
    ) -> Result<Option<Frame>, CommError> {
        if msg.epoch != self.epoch {
            self.probe.event(Counter::StaleFramesDropped);
            return Ok(None);
        }
        if !msg.verify() {
            let e = CommError::Corrupt { src, tag: msg.tag };
            self.fail(&e);
            return Err(e);
        }
        if want == Some(msg.tag) {
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

    /// Nonblocking send of `data` to `dst` with a user `tag`, charged (and
    /// quantized) at the given wire dtype. The payload is on the wire when
    /// this returns (buffered-isend semantics), so the returned [`Request`]
    /// is already complete; [`wait`](Self::wait) on it never blocks.
    ///
    /// # Errors
    /// [`CommError::InvalidTag`] for tags reserved for collectives;
    /// [`CommError::PeerDead`] if `dst`'s endpoint is gone (or a fault plan
    /// killed this rank); a propagated abort error if the world already
    /// failed.
    ///
    /// # Panics
    /// Panics if `dst` is out of range or equals this rank (API misuse).
    pub fn isend(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f32],
        dtype: DType,
    ) -> Result<Request, CommError> {
        if tag >= COLLECTIVE_TAG_BASE {
            return Err(CommError::InvalidTag { tag });
        }
        self.send_internal(dst, tag, data, dtype, TrafficClass::P2p)?;
        Ok(Request {
            inner: ReqInner::Send { dst },
        })
    }

    /// Blocking send: [`isend`](Self::isend) immediately redeemed. Thin
    /// wrapper kept for callers with nothing to overlap.
    ///
    /// # Errors
    /// Same as [`isend`](Self::isend).
    pub fn send(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f32],
        dtype: DType,
    ) -> Result<(), CommError> {
        let req = self.isend(dst, tag, data, dtype)?;
        self.wait(req).map(|_| ())
    }

    /// One send call: on success, counted and spanned by the probe with the
    /// wire size [`send_inner`](Self::send_inner) put on the frame.
    fn send_internal(
        &mut self,
        dst: usize,
        tag: u64,
        data: &[f32],
        dtype: DType,
        class: TrafficClass,
    ) -> Result<(), CommError> {
        let t0 = self.probe.now();
        let collective = class == TrafficClass::Collective;
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
        let mut payload = data.to_vec();
        // Quantize through the wire format: what a GPU casting to fp16 for
        // the transfer would do to the values.
        quantize_slice(&mut payload, dtype);
        let bytes = (payload.len() * dtype.size_bytes()) as u64;
        let mut deliver_at = if self.link.is_instant() {
            None
        } else {
            // The directed link is a single DMA path (as in wp-sim): this
            // transfer starts once the previous send to `dst` has drained,
            // occupies the link for bytes/bandwidth, and lands one latency
            // after that.
            let now = Instant::now();
            let issue = match self.link_busy[dst] {
                Some(busy) if busy > now => busy,
                _ => now,
            };
            let drained = issue + self.link.occupancy_duration(bytes as usize);
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
        // Checksum the honest payload, then corrupt — the receiver must see
        // the mismatch.
        let mut msg = Frame {
            tag,
            checksum: checksum_of(&payload),
            data: payload,
            deliver_at,
            wire_bytes: bytes,
            collective,
            epoch: self.epoch,
        };
        if corrupt {
            match msg.data.first_mut() {
                Some(x) => *x = f32::from_bits(x.to_bits() ^ 1),
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
    /// [`wait`](Self::wait) / [`wait_recv`](Self::wait_recv). Posting is
    /// infallible — matching, fault checks, and timeouts all surface at
    /// `wait`, so a fault striking while the request is outstanding is
    /// reported as the same typed [`CommError`] the blocking path returns.
    ///
    /// # Panics
    /// Panics if `src` is out of range or equals this rank (API misuse).
    pub fn irecv(&self, src: usize, tag: u64) -> Request {
        assert!(src < self.world, "src {src} out of range");
        assert_ne!(src, self.rank, "self-recv is not supported");
        let depth = self.pending[src].len();
        self.probe.reorder_depth(depth);
        Request {
            inner: ReqInner::Recv {
                src,
                tag,
                // Trace bookkeeping: the blocked-wait span starts when the
                // receive is posted, and the queue depth recorded is the
                // reorder-buffer depth observed at post time.
                t0: self.probe.now(),
                depth,
            },
        }
    }

    /// Block until `req` completes. Send requests are complete at creation
    /// and return [`Completion::Sent`] immediately; receive requests block
    /// until their message arrives and return [`Completion::Received`].
    ///
    /// # Errors
    /// For receive requests, same as [`recv`](Self::recv).
    pub fn wait(&mut self, req: Request) -> Result<Completion, CommError> {
        match req.inner {
            ReqInner::Send { .. } => Ok(Completion::Sent),
            ReqInner::Recv {
                src,
                tag,
                t0,
                depth,
            } => self
                .complete_recv(src, tag, t0, depth)
                .map(Completion::Received),
        }
    }

    /// [`wait`](Self::wait) specialised to receive requests: returns the
    /// payload directly.
    ///
    /// # Errors
    /// Same as [`recv`](Self::recv).
    ///
    /// # Panics
    /// Panics if `req` is a send request (API misuse).
    pub fn wait_recv(&mut self, req: Request) -> Result<Vec<f32>, CommError> {
        assert!(req.is_recv(), "wait_recv called on a send request");
        match self.wait(req)? {
            Completion::Received(data) => Ok(data),
            Completion::Sent => unreachable!("asserted is_recv above"),
        }
    }

    /// Complete every request in posting order, first error wins.
    ///
    /// # Errors
    /// The first failure aborts the rest of the batch (outstanding receive
    /// requests are dropped; their messages stay in the reorder buffer).
    pub fn wait_all(&mut self, reqs: Vec<Request>) -> Result<Vec<Completion>, CommError> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Nonblocking completion probe. Send requests always test true. A
    /// receive request tests true once a matching message has arrived *and*
    /// the link model says its transfer has fully landed — a subsequent
    /// [`wait`](Self::wait) will not block.
    ///
    /// `test` never consumes the request and never sleeps; it drains
    /// already-arrived messages into the reorder buffer and checks for a
    /// match. It does not advance the fault plan's per-operation clock (it
    /// is a probe, not an operation), but a standing abort, a corrupt
    /// arrival, or a dead peer surface here with the same typed errors the
    /// blocking path returns.
    ///
    /// # Errors
    /// [`CommError::Corrupt`] when an arriving payload fails its checksum;
    /// [`CommError::PeerDead`] when the source endpoint closed with no
    /// match buffered; a propagated abort error when the world failed.
    pub fn test(&mut self, req: &Request) -> Result<bool, CommError> {
        let (src, tag) = match req.inner {
            ReqInner::Send { .. } => return Ok(true),
            ReqInner::Recv { src, tag, .. } => (src, tag),
        };
        if self.abort.is_tripped() {
            return Err(self.standing_cause());
        }
        self.flush_held()?;
        loop {
            match self.transport.try_recv(src) {
                RecvPoll::Frame(msg) => {
                    self.intake(src, msg, None)?;
                }
                RecvPoll::Empty => break,
                RecvPoll::Closed => {
                    if self.pending[src].iter().any(|m| m.tag == tag) {
                        break;
                    }
                    if self.abort.is_tripped() {
                        return Err(self.standing_cause());
                    }
                    let e = CommError::PeerDead { rank: src };
                    self.fail(&e);
                    return Err(e);
                }
            }
        }
        let now = Instant::now();
        Ok(self.pending[src]
            .iter()
            .any(|m| m.tag == tag && m.deliver_at.is_none_or(|at| at <= now)))
    }

    /// Blocking receive of the message with `tag` from `src`:
    /// [`irecv`](Self::irecv) immediately redeemed. Thin wrapper kept for
    /// callers with nothing to overlap.
    ///
    /// Messages from `src` with other tags are parked and delivered to later
    /// matching receives in FIFO order.
    ///
    /// # Errors
    /// [`CommError::Timeout`] when the configured window (including retries
    /// and backoff) elapses with no match; [`CommError::PeerDead`] when
    /// `src`'s endpoint closed; [`CommError::Corrupt`] when an arriving
    /// payload fails its checksum; a propagated abort error when another
    /// rank failed first.
    pub fn recv(&mut self, src: usize, tag: u64) -> Result<Vec<f32>, CommError> {
        let req = self.irecv(src, tag);
        self.wait_recv(req)
    }

    /// The engine behind [`wait`](Self::wait) for receive requests: one
    /// fault-plan operation, then match against the reorder buffer and poll
    /// the inbox under the configured timeout policy. `t0`/`depth` are the
    /// trace bookkeeping captured when the receive was posted.
    fn complete_recv(
        &mut self,
        src: usize,
        tag: u64,
        t0: u64,
        depth: usize,
    ) -> Result<Vec<f32>, CommError> {
        self.precheck()?;
        self.flush_held()?;
        // Check the reorder buffer first.
        if let Some(pos) = self.pending[src].iter().position(|m| m.tag == tag) {
            let msg = self.pending[src].remove(pos).expect("position just found");
            return Ok(self.deliver(src, depth, t0, msg));
        }
        let started = Instant::now();
        let mut window = self.config.recv_timeout;
        let mut attempt = 0u32;
        loop {
            // One timeout window, polled in small slices so a world abort
            // interrupts the wait within `poll_interval`.
            let deadline = Instant::now() + window;
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
                        if let Some(msg) = self.intake(src, msg, Some(tag))? {
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
            if attempt >= self.config.retries {
                let e = CommError::Timeout {
                    src,
                    tag,
                    waited_ms: started.elapsed().as_millis() as u64,
                };
                self.probe.event(Counter::RecvTimeouts);
                self.fail(&e);
                return Err(e);
            }
            attempt += 1;
            self.probe.event(Counter::RecvRetries);
            window = window.mul_f64(self.config.backoff.max(1.0));
        }
    }

    /// Consume a matched message: count it and close the blocked-wait span
    /// (post → match), sleep out the link-model transfer under its own span
    /// (match → fully arrived), and hand back the payload.
    fn deliver(&mut self, src: usize, depth: usize, t0: u64, msg: Frame) -> Vec<f32> {
        let bytes = msg.wire_bytes;
        let x0 = self.probe.received(msg.collective, src, depth, bytes, t0);
        let stall = msg.deliver_at.map_or(Duration::ZERO, |at| {
            at.saturating_duration_since(Instant::now())
        });
        if !stall.is_zero() {
            std::thread::sleep(stall);
        }
        self.probe
            .transferred(src, depth, bytes, x0, stall.as_nanos() as u64);
        msg.data
    }

    /// Simultaneously send `data` to the next rank on the ring and receive
    /// the previous rank's message with the same `tag` — the WeiPipe weight
    /// circulation primitive.
    ///
    /// # Errors
    /// Any error from the underlying [`send`](Self::send) or
    /// [`recv`](Self::recv).
    pub fn ring_exchange(
        &mut self,
        tag: u64,
        data: &[f32],
        dtype: DType,
    ) -> Result<Vec<f32>, CommError> {
        let next = self.next_rank();
        let prev = self.prev_rank();
        self.send(next, tag, data, dtype)?;
        self.recv(prev, tag)
    }

    /// Post a batch of sends and receives at once, then complete every
    /// receive — the shape of PyTorch's `batch_isend_irecv`, which the
    /// paper's implementation uses to prefetch `W`s and `D`s (§4.3).
    ///
    /// All sends are issued (non-blocking) before any receive completes, so
    /// a symmetric exchange posted by every rank cannot deadlock. Returned
    /// payloads are ordered like `recvs`.
    ///
    /// # Errors
    /// Any error from the underlying sends or receives; the first failure
    /// aborts the rest of the batch.
    pub fn batch_isend_irecv(
        &mut self,
        sends: &[(usize, u64, &[f32])],
        recvs: &[(usize, u64)],
        dtype: DType,
    ) -> Result<Vec<Vec<f32>>, CommError> {
        let mut reqs = Vec::with_capacity(sends.len() + recvs.len());
        for &(dst, tag, data) in sends {
            reqs.push(self.isend(dst, tag, data, dtype)?);
        }
        for &(src, tag) in recvs {
            reqs.push(self.irecv(src, tag));
        }
        let done = self.wait_all(reqs)?;
        Ok(done
            .into_iter()
            .filter_map(Completion::into_payload)
            .collect())
    }

    // ---- Collectives (ring algorithms) ------------------------------------

    fn next_coll_tag(&mut self) -> u64 {
        let t = COLLECTIVE_TAG_BASE + self.coll_seq;
        self.coll_seq += 1;
        t
    }

    /// Wrap one collective call in an outer span charged with the collective
    /// bytes this rank sent during it; the ring hops' Send/RecvWait/RecvXfer
    /// spans nest underneath in a trace viewer.
    fn with_coll_span<T>(
        &mut self,
        kind: SpanKind,
        f: impl FnOnce(&mut Self) -> Result<T, CommError>,
    ) -> Result<T, CommError> {
        let mark = self.probe.collective_begin();
        let out = f(self)?;
        self.probe.collective(kind, mark);
        Ok(out)
    }

    /// Chunk boundaries splitting `n` elements into `world` near-equal parts.
    fn chunk_range(n: usize, world: usize, i: usize) -> std::ops::Range<usize> {
        let base = n / world;
        let rem = n % world;
        let start = i * base + i.min(rem);
        let len = base + usize::from(i < rem);
        start..start + len
    }

    /// In-place ring all-reduce (sum) over `buf`, replicated on every rank.
    ///
    /// Reduce-scatter then all-gather; each rank sends `2·(P−1)` chunks of
    /// `n/P` elements.
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn all_reduce_sum(&mut self, buf: &mut [f32], dtype: DType) -> Result<(), CommError> {
        self.with_coll_span(SpanKind::AllReduce, |c| c.all_reduce_inner(buf, dtype))
    }

    /// One hop of a ring collective: post the receive from the previous
    /// rank, send `out` to the next, and wait for what the previous rank
    /// sent under the same tag.
    fn ring_step(&mut self, tag: u64, out: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        let req = self.irecv(self.prev_rank(), tag);
        self.send_internal(self.next_rank(), tag, out, dtype, TrafficClass::Collective)?;
        self.wait_recv(req)
    }

    /// `P−1` hops over `buf` cut into `P` chunks: hop `s` sends chunk
    /// `first − s` and folds what arrives into chunk `first − s − 1` —
    /// summed in when `reduce`, copied over otherwise. Hop `s` uses `tag(s)`.
    fn ring_pass(
        &mut self,
        buf: &mut [f32],
        first: usize,
        tag: impl Fn(u64) -> u64,
        reduce: bool,
        dtype: DType,
    ) -> Result<(), CommError> {
        let (n, p) = (buf.len(), self.world);
        for s in 0..p - 1 {
            let send_idx = (first + p - s) % p;
            let sr = Self::chunk_range(n, p, send_idx);
            let incoming = self.ring_step(tag(s as u64), &buf[sr], dtype)?;
            let into = &mut buf[Self::chunk_range(n, p, (send_idx + p - 1) % p)];
            if reduce {
                for (b, x) in into.iter_mut().zip(&incoming) {
                    *b += x;
                }
            } else {
                assert_eq!(incoming.len(), into.len(), "ring chunks must match");
                into.copy_from_slice(&incoming);
            }
        }
        Ok(())
    }

    fn all_reduce_inner(&mut self, buf: &mut [f32], dtype: DType) -> Result<(), CommError> {
        if self.world == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        // Reduce-scatter, then all-gather the fully reduced chunks.
        self.ring_pass(buf, self.rank, |s| tag + s * 2, true, dtype)?;
        self.ring_pass(buf, self.rank + 1, |s| tag + s * 2 + 1, false, dtype)
    }

    /// Ring reduce-scatter (sum): every rank contributes `buf` (full length)
    /// and receives the reduced chunk it owns (`chunk_range(n, P, rank)`).
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn reduce_scatter_sum(&mut self, buf: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        self.with_coll_span(SpanKind::ReduceScatter, |c| {
            c.reduce_scatter_inner(buf, dtype)
        })
    }

    fn reduce_scatter_inner(&mut self, buf: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        let n = buf.len();
        let p = self.world;
        if p == 1 {
            return Ok(buf.to_vec());
        }
        let tag = self.next_coll_tag();
        let mut work = buf.to_vec();
        // Start one chunk earlier than the all-reduce phase so the final
        // reduction lands in this rank's own chunk.
        self.ring_pass(&mut work, self.rank + p - 1, |s| tag + s, true, dtype)?;
        Ok(work[Self::chunk_range(n, p, self.rank)].to_vec())
    }

    /// Ring all-gather: every rank contributes `chunk` (equal lengths
    /// required) and receives the concatenation ordered by rank.
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn all_gather(&mut self, chunk: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        self.with_coll_span(SpanKind::AllGather, |c| c.all_gather_inner(chunk, dtype))
    }

    fn all_gather_inner(&mut self, chunk: &[f32], dtype: DType) -> Result<Vec<f32>, CommError> {
        let p = self.world;
        if p == 1 {
            return Ok(chunk.to_vec());
        }
        let tag = self.next_coll_tag();
        let m = chunk.len();
        let mut out = vec![0.0f32; m * p];
        out[self.rank * m..(self.rank + 1) * m].copy_from_slice(chunk);
        // At step s, forward the chunk originated by (rank - s); a peer that
        // contributed another length fails the chunk-size check.
        self.ring_pass(&mut out, self.rank, |s| tag + s, false, dtype)?;
        Ok(out)
    }

    /// Broadcast `buf` from `root` to every rank (ring pass-along).
    ///
    /// # Errors
    /// Any error from the underlying ring sends/receives.
    pub fn broadcast(
        &mut self,
        root: usize,
        buf: &mut Vec<f32>,
        dtype: DType,
    ) -> Result<(), CommError> {
        self.with_coll_span(SpanKind::Broadcast, |c| c.broadcast_inner(root, buf, dtype))
    }

    fn broadcast_inner(
        &mut self,
        root: usize,
        buf: &mut Vec<f32>,
        dtype: DType,
    ) -> Result<(), CommError> {
        let p = self.world;
        if p == 1 {
            return Ok(());
        }
        let tag = self.next_coll_tag();
        let dist = (self.rank + p - root) % p;
        if dist > 0 {
            let req = self.irecv(self.prev_rank(), tag);
            *buf = self.wait_recv(req)?;
        }
        if dist < p - 1 {
            self.send_internal(self.next_rank(), tag, buf, dtype, TrafficClass::Collective)?;
        }
        Ok(())
    }

    /// Synchronise all ranks: no rank returns before every rank has entered.
    ///
    /// # Errors
    /// Any error from the underlying all-reduce.
    pub fn barrier(&mut self) -> Result<(), CommError> {
        let mut token = [0.0f32];
        self.with_coll_span(SpanKind::Barrier, |c| {
            c.all_reduce_inner(&mut token, DType::F32)
        })
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

/// Best-effort extraction of a panic payload's message.
fn panic_reason(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked".to_string()
    }
}

/// Builder for a world of communicating ranks.
#[derive(Debug)]
pub struct World;

/// Configures and launches a world: link model, timeout policy, fault plan.
///
/// ```
/// use wp_comm::{World, CommConfig, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new(42).with_reorder(0.25);
/// let (results, _meter) = World::builder(2)
///     .config(CommConfig::fail_fast(Duration::from_secs(5)))
///     .faults(plan)
///     .try_run(|mut c| {
///         let peer = 1 - c.rank();
///         c.send(peer, 0, &[c.rank() as f32], wp_tensor::DType::F32)?;
///         c.recv(peer, 0)
///     });
/// assert_eq!(results[0].as_ref().unwrap(), &vec![1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    p: usize,
    link: LinkModel,
    config: CommConfig,
    faults: Option<FaultPlan>,
    trace: Option<TraceCollector>,
    metrics: Option<MetricsRegistry>,
    transport: TransportKind,
    epoch: u64,
}

impl WorldBuilder {
    /// Pace deliveries with `link`.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Move frames over the given substrate (defaults to
    /// [`TransportKind::InProcess`]). Everything above the transport is
    /// byte-identical across kinds; the conformance suite enforces it.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Use the given timeout/retry policy.
    pub fn config(mut self, config: CommConfig) -> Self {
        self.config = config;
        self
    }

    /// Stamp every frame this world sends with the given configuration
    /// epoch (default 0). After an elastic reconfiguration the survivors
    /// build their shrunk world with the next epoch; any straggler frame
    /// from the previous epoch is dropped on arrival instead of matching a
    /// receive.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Inject the given fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Inject a fault plan if one is provided (convenience for callers
    /// holding an `Option`).
    pub fn maybe_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Record every rank's comm operations into `collector` (must cover at
    /// least `p` ranks). Each rank writes its own track; the caller keeps
    /// the collector and snapshots it after the run.
    pub fn trace(mut self, collector: TraceCollector) -> Self {
        self.trace = Some(collector);
        self
    }

    /// Attach a trace collector if one is provided (convenience for callers
    /// holding an `Option`).
    pub fn maybe_trace(mut self, collector: Option<TraceCollector>) -> Self {
        self.trace = collector;
        self
    }

    /// Record every rank's communication metrics into `registry` (must
    /// cover at least `p` ranks). Each rank writes its own slots; the caller
    /// keeps the registry and snapshots it after the run. The world's
    /// [`TrafficMeter`] then reads the registry's own traffic counters, and
    /// the transport endpoint is instrumented too, so transport-internal
    /// accounting (wire frames, writer queue depth) lands in the same slots.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a metrics registry if one is provided (convenience for
    /// callers holding an `Option`).
    pub fn maybe_metrics(mut self, registry: Option<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// The meter a world built from this builder counts into: a view of the
    /// caller's registry when metered (one copy of every count), else of
    /// slots of its own.
    fn meter(&self) -> TrafficMeter {
        match &self.metrics {
            Some(registry) => TrafficMeter::over(registry.clone()),
            None => TrafficMeter::new(self.p),
        }
    }

    /// Wrap one transport endpoint in a [`Communicator`] carrying this
    /// builder's link, timeout, fault, trace, and metrics policy, counting
    /// into `meter`.
    fn make_endpoint(
        &self,
        mut transport: Box<dyn Transport>,
        meter: &TrafficMeter,
    ) -> Communicator {
        let rank = transport.rank();
        let p = transport.world_size();
        let abort = transport.abort_cell().clone();
        let tracer = self.trace.as_ref().map(|tc| tc.tracer(rank));
        let probe = meter.probe(rank, self.metrics.is_some(), tracer);
        if let Some(metrics) = probe.metrics() {
            transport.instrument(metrics.clone());
        }
        Communicator {
            rank,
            world: p,
            transport,
            pending: (0..p).map(|_| VecDeque::new()).collect(),
            link: self.link,
            coll_seq: 0,
            config: self.config,
            abort,
            faults: self
                .faults
                .clone()
                .map(|plan| RankInjector::new(plan, rank, p)),
            held: (0..p).map(|_| None).collect(),
            link_busy: (0..p).map(|_| None).collect(),
            probe,
            abort_relayed: false,
            epoch: self.epoch,
        }
    }

    /// Wrap an externally-established transport endpoint — e.g. a
    /// [`TcpTransport`](crate::tcp::TcpTransport) living in its own worker
    /// process — in a [`Communicator`] with this builder's policy. The
    /// endpoint gets its own [`TrafficMeter`] (over the builder's registry,
    /// when it has one); a multi-process launcher merges the per-process
    /// counters afterwards (see [`RankTraffic::of`](crate::RankTraffic::of)).
    ///
    /// # Panics
    /// Panics if the endpoint's world size disagrees with the builder's.
    pub fn endpoint(self, transport: Box<dyn Transport>) -> Communicator {
        assert_eq!(
            transport.world_size(),
            self.p,
            "endpoint world size must match the builder's"
        );
        self.make_endpoint(transport, &self.meter())
    }

    /// Materialise the communicators without running anything.
    pub fn build(self) -> Vec<Communicator> {
        let p = self.p;
        assert!(p >= 1, "world size must be at least 1");
        let meter = self.meter();
        let transports: Vec<Box<dyn Transport>> = match self.transport {
            TransportKind::InProcess => ChannelTransport::mesh(p)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
            TransportKind::TcpLocalhost => crate::tcp::local_mesh(p)
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
        };
        transports
            .into_iter()
            .map(|t| self.make_endpoint(t, &meter))
            .collect()
    }

    /// Run one fallible closure per rank on its own OS thread and collect
    /// per-rank results in rank order. A rank that panics is converted to
    /// `Err(CommError::Aborted)` and poisons the world, so surviving ranks
    /// return errors instead of hanging.
    pub fn try_run<T, F>(self, f: F) -> (Vec<Result<T, CommError>>, TrafficMeter)
    where
        T: Send,
        F: Fn(Communicator) -> Result<T, CommError> + Send + Sync,
    {
        let comms = self.build();
        let meter = comms[0].meter();
        let f = &f;
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    let abort = c.abort.clone();
                    let rank = c.rank;
                    s.spawn(move || {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c))) {
                            Ok(r) => r,
                            Err(p) => {
                                let reason = panic_reason(p.as_ref());
                                let e = CommError::Aborted {
                                    origin: rank,
                                    reason,
                                };
                                abort.trip(rank, e.clone());
                                Err(e)
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked outside catch_unwind"))
                .collect::<Vec<Result<T, CommError>>>()
        });
        (results, meter)
    }

    /// Run one infallible closure per rank; a panic in any rank poisons the
    /// world (so peers unwind promptly too) and is re-raised here, naming
    /// the rank and its panic message.
    ///
    /// # Panics
    /// Panics if any rank's closure panicked.
    pub fn run<T, F>(self, f: F) -> (Vec<T>, TrafficMeter)
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        let (results, meter) = self.try_run(|c| Ok(f(c)));
        let results = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("rank thread panicked: {e}")))
            .collect();
        (results, meter)
    }
}

impl World {
    /// Start configuring a world of `p` ranks.
    pub fn builder(p: usize) -> WorldBuilder {
        WorldBuilder {
            p,
            link: LinkModel::instant(),
            config: CommConfig::default(),
            faults: None,
            trace: None,
            metrics: None,
            transport: TransportKind::InProcess,
            epoch: 0,
        }
    }

    /// Run one closure per rank on its own OS thread and collect the results
    /// in rank order. Panics in any rank propagate.
    pub fn run<T, F>(p: usize, link: LinkModel, f: F) -> (Vec<T>, TrafficMeter)
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        Self::builder(p).link(link).run(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn ring_exchange_rotates() {
        let (vals, _) = World::run(4, LinkModel::instant(), |mut c| {
            let mine = [c.rank() as f32];
            c.ring_exchange(9, &mine, DType::F32).unwrap()[0]
        });
        assert_eq!(vals, vec![3.0, 0.0, 1.0, 2.0]);
    }

    #[test]
    fn all_reduce_sums_everywhere() {
        for p in [1usize, 2, 3, 4, 7] {
            let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
                let mut buf: Vec<f32> = (0..10).map(|i| (c.rank() * 10 + i) as f32).collect();
                c.all_reduce_sum(&mut buf, DType::F32).unwrap();
                buf
            });
            let expect: Vec<f32> = (0..10)
                .map(|i| (0..p).map(|r| (r * 10 + i) as f32).sum())
                .collect();
            for (r, v) in vals.iter().enumerate() {
                assert_eq!(v, &expect, "p={p} rank {r}");
            }
        }
    }

    #[test]
    fn all_reduce_uneven_length() {
        // n not divisible by p exercises the uneven chunking.
        let p = 4;
        let n = 13;
        let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
            let mut buf = vec![(c.rank() + 1) as f32; n];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
            buf
        });
        for v in &vals {
            assert_eq!(v, &vec![10.0; n]);
        }
    }

    #[test]
    fn reduce_scatter_gives_owned_chunk() {
        let p = 3;
        let n = 7;
        let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
            let buf: Vec<f32> = (0..n).map(|i| (i * (c.rank() + 1)) as f32).collect();
            c.reduce_scatter_sum(&buf, DType::F32).unwrap()
        });
        // Sum over ranks of i*(r+1) = i * 6.
        let full: Vec<f32> = (0..n).map(|i| (i * 6) as f32).collect();
        assert_eq!(vals[0], full[0..3].to_vec());
        assert_eq!(vals[1], full[3..5].to_vec());
        assert_eq!(vals[2], full[5..7].to_vec());
    }

    #[test]
    fn all_gather_concatenates_in_rank_order() {
        let p = 4;
        let (vals, _) = World::run(p, LinkModel::instant(), |mut c| {
            let chunk = vec![c.rank() as f32; 3];
            c.all_gather(&chunk, DType::F32).unwrap()
        });
        let expect = vec![0.0, 0.0, 0.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 3.0];
        for v in &vals {
            assert_eq!(v, &expect);
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let (vals, _) = World::run(5, LinkModel::instant(), |mut c| {
            let mut buf = if c.rank() == 2 {
                vec![42.0, 7.0]
            } else {
                vec![]
            };
            c.broadcast(2, &mut buf, DType::F32).unwrap();
            buf
        });
        for v in &vals {
            assert_eq!(v, &vec![42.0, 7.0]);
        }
    }

    #[test]
    fn all_reduce_traffic_matches_ring_formula() {
        let p = 4;
        let n = 1024; // divisible by p
        let (_, meter) = World::run(p, LinkModel::instant(), |mut c| {
            let mut buf = vec![1.0f32; n];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
        // Each rank sends 2·(P−1) chunks of n/P f32 elements.
        let expect = (2 * (p - 1) * (n / p) * 4) as u64;
        for r in 0..p {
            assert_eq!(meter.rank(r).collective_bytes, expect, "rank {r}");
        }
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
    fn barrier_orders_effects() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let violated = AtomicUsize::new(0);
        World::run(4, LinkModel::instant(), |mut c| {
            before.fetch_add(1, Ordering::SeqCst);
            c.barrier().unwrap();
            if before.load(Ordering::SeqCst) != 4 {
                violated.fetch_add(1, Ordering::SeqCst);
            }
        });
        assert_eq!(violated.load(Ordering::SeqCst), 0);
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
    fn isend_completes_at_creation() {
        let (vals, meter) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                let req = c.isend(1, 3, &[4.0, 5.0], DType::F32).unwrap();
                assert!(!req.is_recv());
                assert_eq!(req.peer(), 1);
                assert!(
                    c.test(&req).unwrap(),
                    "send requests are complete at creation"
                );
                assert_eq!(c.wait(req).unwrap(), Completion::Sent);
                0.0
            } else {
                c.recv(0, 3).unwrap().iter().sum::<f32>()
            }
        });
        assert_eq!(vals[1], 9.0);
        assert_eq!(meter.rank(0).p2p_bytes, 8, "charged at isend time");
    }

    #[test]
    fn test_polls_without_consuming() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let sent = AtomicBool::new(false);
        let (vals, _) = World::run(2, LinkModel::instant(), |mut c| {
            if c.rank() == 0 {
                // Give rank 1 time to observe "not yet arrived".
                std::thread::sleep(Duration::from_millis(20));
                sent.store(true, Ordering::SeqCst);
                c.send(1, 9, &[2.0], DType::F32).unwrap();
                0.0
            } else {
                let req = c.irecv(0, 9);
                assert!(req.is_recv());
                if !sent.load(Ordering::SeqCst) {
                    // Nothing can have arrived before the peer sent it.
                    assert!(!c.test(&req).unwrap());
                }
                // Poll until the message lands, then wait must not block.
                while !c.test(&req).unwrap() {
                    std::thread::sleep(Duration::from_millis(1));
                }
                assert!(c.test(&req).unwrap(), "test never consumes the match");
                c.wait_recv(req).unwrap()[0]
            }
        });
        assert_eq!(vals[1], 2.0);
    }

    #[test]
    fn test_respects_link_pacing() {
        // 1 MB over a 100 MB/s link ≈ 10 ms: test must report false until
        // the transfer has fully landed, so a test-true wait never sleeps.
        let slow = LinkModel {
            bandwidth_bps: 100e6,
            latency_s: 0.0,
        };
        let (_, _) = World::run(2, slow, |mut c| {
            if c.rank() == 0 {
                c.send(1, 0, &vec![0.0f32; 250_000], DType::F32).unwrap();
            } else {
                let req = c.irecv(0, 0);
                while !c.test(&req).unwrap() {
                    std::thread::sleep(Duration::from_micros(200));
                }
                let t0 = Instant::now();
                c.wait_recv(req).unwrap();
                assert!(
                    t0.elapsed() < Duration::from_millis(5),
                    "wait after test-true should be immediate, took {:?}",
                    t0.elapsed()
                );
            }
        });
    }

    #[test]
    fn wait_all_completes_mixed_batches_in_order() {
        let p = 4;
        let (outs, _) = World::run(p, LinkModel::instant(), |mut c| {
            let r = c.rank() as f32;
            let next = c.next_rank();
            let prev = c.prev_rank();
            let reqs = vec![
                c.isend(next, 1, &[r], DType::F32).unwrap(),
                c.isend(prev, 2, &[r + 100.0], DType::F32).unwrap(),
                c.irecv(prev, 1),
                c.irecv(next, 2),
            ];
            let done = c.wait_all(reqs).unwrap();
            assert_eq!(done[0], Completion::Sent);
            assert_eq!(done[1], Completion::Sent);
            let payloads: Vec<Vec<f32>> = done
                .into_iter()
                .filter_map(Completion::into_payload)
                .collect();
            (payloads[0][0], payloads[1][0])
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
        // as the same typed Corrupt error the blocking path returns.
        let plan = FaultPlan::new(3).with_corruption(0, 1, 0);
        let cfg = CommConfig::fail_fast(Duration::from_secs(2));
        let (results, _) = World::builder(2).config(cfg).faults(plan).try_run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 4, &[1.0, 2.0], DType::F32)?;
                Ok(vec![])
            } else {
                let req = c.irecv(0, 4);
                c.wait_recv(req)
            }
        });
        match results[1].as_ref().unwrap_err() {
            CommError::Corrupt { src: 0, tag: 4 } => {}
            other => panic!("expected Corrupt from wait on outstanding request, got {other:?}"),
        }
    }

    #[test]
    fn batch_isend_irecv_symmetric_exchange() {
        // Every rank simultaneously ships two payloads around the ring in
        // both directions; the batched form must complete without deadlock
        // and deliver in posting order.
        let p = 4;
        let (outs, _) = World::run(p, LinkModel::instant(), |mut c| {
            let r = c.rank() as f32;
            let fwd = [r];
            let bwd = [r + 100.0];
            let next = c.next_rank();
            let prev = c.prev_rank();
            let got = c
                .batch_isend_irecv(
                    &[(next, 1, &fwd), (prev, 2, &bwd)],
                    &[(prev, 1), (next, 2)],
                    DType::F32,
                )
                .unwrap();
            (got[0][0], got[1][0])
        });
        for (r, &(from_prev, from_next)) in outs.iter().enumerate() {
            assert_eq!(from_prev, ((r + p - 1) % p) as f32);
            assert_eq!(from_next, ((r + 1) % p) as f32 + 100.0);
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
    fn checksums_accept_honest_payloads() {
        assert_eq!(checksum_of(&[]), checksum_of(&[]));
        assert_ne!(checksum_of(&[1.0]), checksum_of(&[1.0000001]));
        // -0.0 and 0.0 have different bit patterns and must hash apart.
        assert_ne!(checksum_of(&[0.0]), checksum_of(&[-0.0]));
    }

    #[test]
    fn abort_cell_first_cause_wins() {
        let cell = AbortCell::default();
        assert!(!cell.is_tripped());
        cell.trip(2, CommError::PeerDead { rank: 2 });
        cell.trip(
            3,
            CommError::Timeout {
                src: 0,
                tag: 1,
                waited_ms: 5,
            },
        );
        assert!(cell.is_tripped());
        // PeerDead propagates verbatim to every rank.
        assert_eq!(cell.cause_for(0), CommError::PeerDead { rank: 2 });
        assert_eq!(cell.cause_for(2), CommError::PeerDead { rank: 2 });
    }

    #[test]
    fn recv_side_bytes_mirror_send_side() {
        let p = 4;
        let (_, meter) = World::run(p, LinkModel::instant(), |mut c| {
            let mine = vec![c.rank() as f32; 8];
            c.ring_exchange(1, &mine, DType::F32).unwrap();
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
    fn traced_world_records_comm_spans() {
        use wp_trace::{recv_aux_decode, send_aux_decode};
        let collector = TraceCollector::new(2, 256);
        let (_, _) = World::builder(2).trace(collector.clone()).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
            } else {
                c.recv(0, 7).unwrap();
            }
            let mut buf = vec![1.0f32; 4];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
        let trace = collector.snapshot();
        // Rank 0: the P2P send, with dst and bytes in the record.
        let send = trace.tracks[0]
            .of_kind(SpanKind::Send)
            .find(|s| !send_aux_decode(s.aux).1)
            .expect("rank 0 recorded its P2P send");
        assert_eq!(send.bytes, 8);
        assert_eq!(send_aux_decode(send.aux).0, 1);
        // Rank 1: wait + transfer halves of the receive, with src and the
        // queue depth observed at post time.
        let wait = trace.tracks[1]
            .of_kind(SpanKind::RecvWait)
            .next()
            .expect("rank 1 recorded its blocked wait");
        assert_eq!(wait.bytes, 8);
        assert_eq!(recv_aux_decode(wait.aux), (0, 0));
        assert!(trace.tracks[1].has_kind(SpanKind::RecvXfer));
        // Both ranks: an all-reduce outer span charged with the ring bytes,
        // and its constituent hops nested within its interval.
        for track in &trace.tracks {
            let ar = track
                .of_kind(SpanKind::AllReduce)
                .next()
                .expect("all-reduce span");
            assert_eq!(ar.bytes, 2 * (4 / 2) * 4, "2·(P−1)/P·n bytes at f32");
            let hop = track
                .of_kind(SpanKind::Send)
                .find(|s| send_aux_decode(s.aux).1)
                .expect("collective hop send span");
            assert!(hop.start_ns >= ar.start_ns && hop.end_ns <= ar.end_ns);
        }
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

    #[test]
    fn untraced_world_records_nothing() {
        let (_, _) = World::run(2, LinkModel::instant(), |mut c| {
            assert!(c.tracer().is_none());
            assert!(c.metrics().is_none());
            let mut buf = [0.0f32; 2];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
    }

    #[test]
    fn metered_world_counters_match_the_traffic_meter() {
        let registry = MetricsRegistry::new(2);
        let (_, meter) = World::builder(2).metrics(registry.clone()).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
            } else {
                c.recv(0, 7).unwrap();
            }
            let mut buf = vec![1.0f32; 4];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
        let snap = registry.snapshot();
        for r in 0..2 {
            let t = meter.rank(r);
            let s = &snap.ranks[r];
            assert_eq!(s.counter(Counter::P2pBytesSent), t.p2p_bytes, "rank {r}");
            assert_eq!(s.counter(Counter::P2pMsgsSent), t.p2p_msgs, "rank {r}");
            assert_eq!(
                s.counter(Counter::CollBytesSent),
                t.collective_bytes,
                "rank {r}"
            );
            assert_eq!(
                s.counter(Counter::CollMsgsSent),
                t.collective_msgs,
                "rank {r}"
            );
            assert_eq!(
                s.counter(Counter::P2pBytesRecv),
                t.p2p_recv_bytes,
                "rank {r}"
            );
            assert_eq!(
                s.counter(Counter::CollBytesRecv),
                t.collective_recv_bytes,
                "rank {r}"
            );
            assert_eq!(s.counter(Counter::MsgsRecv), t.recv_msgs, "rank {r}");
            assert_eq!(
                s.counter(Counter::FaultsInjected),
                t.faults_injected,
                "rank {r}"
            );
        }
    }

    #[test]
    fn cross_epoch_frames_are_dropped_not_delivered() {
        // Two endpoints of one mesh, deliberately built at different
        // configuration epochs: the receiver must silently drop the
        // straggler frame (counting it) and time out, never deliver it.
        let registry = MetricsRegistry::new(2);
        let mut ts = ChannelTransport::mesh(2).into_iter();
        let t0 = Box::new(ts.next().unwrap()) as Box<dyn Transport>;
        let t1 = Box::new(ts.next().unwrap()) as Box<dyn Transport>;
        let mut old = World::builder(2).epoch(0).endpoint(t0);
        let mut new = World::builder(2)
            .epoch(1)
            .config(CommConfig::fail_fast(Duration::from_millis(40)))
            .metrics(registry.clone())
            .endpoint(t1);
        old.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
        match new.recv(0, 7) {
            Err(CommError::Timeout { src: 0, tag: 7, .. }) => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert_eq!(
            registry
                .snapshot_rank(1)
                .counter(Counter::StaleFramesDropped),
            1,
            "the epoch-0 frame must be counted as stale"
        );
    }

    #[test]
    fn same_epoch_frames_flow_normally() {
        let (vals, _) = World::builder(2).epoch(3).run(|mut c| {
            assert_eq!(c.epoch(), 3);
            if c.rank() == 0 {
                c.send(1, 7, &[42.0], DType::F32).unwrap();
                0.0
            } else {
                c.recv(0, 7).unwrap()[0]
            }
        });
        assert_eq!(vals[1], 42.0);
    }

    #[test]
    fn abort_cell_wraps_local_causes_for_bystanders() {
        let cell = AbortCell::default();
        let corrupt = CommError::Corrupt { src: 1, tag: 4 };
        cell.trip(0, corrupt.clone());
        // The origin gets its own error back.
        assert_eq!(cell.cause_for(0), corrupt);
        // Bystanders see an abort naming the origin.
        match cell.cause_for(3) {
            CommError::Aborted { origin, reason } => {
                assert_eq!(origin, 0);
                assert!(reason.contains("checksum"));
            }
            other => panic!("expected Aborted, got {other:?}"),
        }
    }
}
