//! The transport seam under the [`Communicator`](crate::Communicator):
//! endpoint wiring, framed send, per-source ordered delivery with
//! deadline-aware blocking receive, and teardown.
//!
//! Everything *above* this trait is transport-agnostic and byte-identical
//! across implementations: tag matching and the per-source reorder buffer,
//! [`FaultPlan`](crate::FaultPlan) injection, the
//! [`CommConfig`](crate::CommConfig) timeout policy, the poison-pill abort
//! protocol, link-model pacing, packing into the wire dtype, checksums, and
//! per-class [`TrafficMeter`](crate::TrafficMeter) accounting. A transport
//! moves [`Frame`]s — an envelope around a [`Payload`] that is already the
//! bytes a wire would carry — hashes what it delivers and alters nothing.
//! The wire types themselves, the checksum and the buffer pool live in
//! [`crate::payload`]. A transport promises:
//!
//! 1. **Buffered send** — [`Transport::send`] returns once the substrate
//!    holds the frame (a channel, or a socket's kernel buffer), without
//!    waiting for the receiver to take it. The only error is
//!    [`TransportClosed`]: the destination endpoint is gone.
//! 2. **Per-source FIFO** — frames from one source are delivered in the
//!    order they were sent (the guarantee NCCL P2P gives within a stream).
//!    No ordering is promised *across* sources.
//! 3. **Deadline-aware receive** — [`Transport::recv_timeout`], the one
//!    receive method, blocks at most the given duration, so the layer above
//!    can poll the abort cell between slices and honour its receive timeout
//!    exactly.
//! 4. **Abort propagation** — [`Transport::propagate_abort`] makes a fatal
//!    local failure visible to every peer's [`AbortCell`] even when the
//!    peers share no memory with this endpoint (the TCP transport forwards
//!    it as a control frame; the in-process transport's cell is already
//!    shared).
//! 5. **Clean teardown** — [`Transport::shutdown`] announces a deliberate
//!    close, so peers can tell a finished endpoint from a crashed one.
//! 6. **Arrival hash** — every delivered frame comes with the checksum of
//!    its payload as it arrived, beside the sender's in the envelope, for
//!    the layer above to compare. The TCP reader hashes each piece of a
//!    payload as it lands from the socket; the in-process mesh hashes the
//!    frame as it is dequeued, on the receiving rank's thread.
//! 7. **Recycled buffers** — each endpoint has one [`WirePool`]: a send's
//!    16-bit payload is packed into one of its buffers, and a TCP endpoint
//!    gives the buffer back once its write completes and reads each frame
//!    into one.
//!
//! Two implementations ship: [`ChannelTransport`] (the original in-process
//! `mpsc` mesh, one OS thread per rank) and
//! [`TcpTransport`](crate::tcp::TcpTransport) (one OS *process* per rank
//! over localhost sockets). The cross-transport conformance suite runs the
//! full bit-identity battery over both.

use crate::error::CommError;
use crate::payload::{Payload, WirePool};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub use crate::payload::checksum_of;

/// Which substrate a [`WorldBuilder`](crate::WorldBuilder) wires its ranks
/// over. The layers above the [`Transport`] trait behave byte-identically
/// across kinds; the cross-transport conformance suite enforces it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The in-process `mpsc` mesh: one OS thread per rank, one unbounded
    /// channel per directed pair. The default.
    #[default]
    InProcess,
    /// Real localhost TCP sockets. Via a [`WorldBuilder`](crate::WorldBuilder)
    /// the ranks are still threads of one process (each owning a genuine
    /// socket endpoint); `wp-bench ranks` runs the same transport with one
    /// OS *process* per rank.
    TcpLocalhost,
}

/// One framed message: the tag/class envelope plus typed wire payload that
/// every transport carries verbatim. The fields are decided *above* the
/// trait (packing, checksumming, fault corruption, link pacing) — a
/// transport hashes the payload it delivers and alters nothing.
#[derive(Debug)]
pub struct Frame {
    /// User or collective tag (matching happens above the transport).
    pub tag: u64,
    /// The payload, in wire representation.
    pub payload: Payload,
    /// Earliest wall-clock instant the receiver may consume this frame
    /// (link-model pacing plus injected delay). `None` when instant.
    /// Transports that cross a process boundary carry the *remaining*
    /// delay on the wire and re-anchor it on arrival.
    pub deliver_at: Option<Instant>,
    /// [`Payload::checksum`] at send time (before any injected corruption).
    pub checksum: u64,
    /// Whether this frame is a collective hop, so the receiver charges the
    /// same traffic class the sender was charged.
    pub collective: bool,
    /// Configuration epoch the sender belonged to when it sent this frame.
    /// After an elastic reconfiguration the surviving world bumps its epoch;
    /// the receive path silently drops frames stamped with any other epoch,
    /// so a straggler from the pre-fault world can never be mistaken for
    /// current traffic. Stamped above the trait; transports carry it
    /// verbatim.
    pub epoch: u64,
}

impl Frame {
    /// Whether `arrived`, the checksum of the payload as it arrived (what
    /// [`RecvWait::Frame`] carries), is the send-time checksum. Never
    /// re-reads the payload.
    pub fn verify(&self, arrived: u64) -> bool {
        arrived == self.checksum
    }
}

/// The destination endpoint is gone: its rank exited, crashed, or tore the
/// connection down. The layer above maps this to
/// [`CommError::PeerDead`] (or the standing
/// abort cause when the world is already unwinding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

/// Outcome of a bounded blocking receive ([`Transport::recv_timeout`]).
#[derive(Debug)]
pub enum RecvWait {
    /// The next frame from this source, in per-source FIFO order, and the
    /// checksum of its payload as it arrived.
    Frame(Frame, u64),
    /// The timeout elapsed with nothing buffered; the source is still
    /// connected.
    TimedOut,
    /// The source endpoint is gone and nothing more will arrive from it.
    Closed,
}

/// The world-wide poison pill: the first fatal error trips the flag and
/// records `(origin, cause)`; every rank polls the flag from its blocking
/// operations and unwinds with the propagated cause.
///
/// In the in-process world one cell is shared by every rank. Across
/// processes each rank owns a cell and transports trip it remotely: an
/// abort control frame — or an unclean disconnect — observed by a
/// transport's delivery machinery trips the local cell, so blocking
/// operations unwind within one poll interval exactly as they do in
/// process.
#[derive(Debug, Default)]
pub struct AbortCell {
    tripped: AtomicBool,
    cause: Mutex<Option<(usize, CommError)>>,
}

impl AbortCell {
    /// Record a fatal failure. First cause wins; later trips are no-ops.
    pub fn trip(&self, origin: usize, cause: CommError) {
        let mut guard = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        if guard.is_none() {
            *guard = Some((origin, cause));
        }
        drop(guard);
        self.tripped.store(true, Ordering::Release);
    }

    /// Whether any fatal failure has been recorded.
    pub fn is_tripped(&self) -> bool {
        self.tripped.load(Ordering::Acquire)
    }

    /// The recorded failure, verbatim: the origin rank and the root cause.
    /// `None` until the cell trips.
    pub fn cause(&self) -> Option<(usize, CommError)> {
        let guard = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        guard.clone()
    }

    /// The error rank `me` should unwind with. The origin rank gets its own
    /// error back; `PeerDead` propagates verbatim so every survivor learns
    /// who died; anything else surfaces as `Aborted` naming the origin.
    pub fn cause_for(&self, me: usize) -> CommError {
        let guard = self.cause.lock().unwrap_or_else(|e| e.into_inner());
        match &*guard {
            Some((origin, e)) if *origin == me => e.clone(),
            Some((_, e @ CommError::PeerDead { .. })) => e.clone(),
            Some((_, e @ CommError::Aborted { .. })) => e.clone(),
            Some((origin, e)) => CommError::Aborted {
                origin: *origin,
                reason: e.to_string(),
            },
            None => CommError::Aborted {
                origin: me,
                reason: "world aborted".into(),
            },
        }
    }
}

/// One rank's endpoint of a message-moving substrate.
///
/// Implementations must be [`Send`] (each endpoint is owned by exactly one
/// rank thread or process) but need not be `Sync`. See the module docs for
/// the contract; the cross-transport conformance suite is the executable
/// form of it.
pub trait Transport: Send + std::fmt::Debug {
    /// This endpoint's rank in `0..world_size`.
    fn rank(&self) -> usize;

    /// Number of ranks in the world.
    fn world_size(&self) -> usize;

    /// The abort cell this endpoint's rank polls. In-process transports
    /// share one cell world-wide; cross-process transports own a local
    /// cell and trip it when a peer's abort reaches them.
    fn abort_cell(&self) -> &Arc<AbortCell>;

    /// Hand `frame` to the substrate for delivery to `dst` and return once
    /// it holds the frame, without waiting for `dst` to receive it
    /// (buffered-isend semantics).
    ///
    /// # Errors
    /// [`TransportClosed`] when `dst`'s endpoint is gone.
    fn send(&mut self, dst: usize, frame: Frame) -> Result<(), TransportClosed>;

    /// The pool this endpoint's 16-bit wire buffers are recycled through:
    /// its sends pack into them, and its receives and its transport's
    /// reader threads give them back and take them.
    fn wire_pool(&self) -> &Arc<WirePool>;

    /// The most payload wire bytes one frame carries; `send` refuses more
    /// with [`CommError::FrameTooLarge`] before packing. Default: no limit.
    fn max_payload_bytes(&self) -> u64 {
        u64::MAX
    }

    /// Block up to `timeout` for the next frame from `src`. Never blocks
    /// longer: the caller slices its receive timeout into poll intervals so
    /// it can honour aborts and deadlines between slices.
    fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait;

    /// Make a fatal local failure visible to every peer (best-effort). The
    /// in-process mesh shares its abort cell, so this is a no-op there; the
    /// TCP transport forwards an abort control frame to each peer.
    fn propagate_abort(&mut self, _origin: usize, _cause: &CommError) {}

    /// Attach a metrics handle for transport-*internal* accounting the
    /// layers above cannot see (wire frames and bytes by type, abort
    /// relays). Default no-op: the in-process mesh has no
    /// internal machinery worth counting — payload traffic is already
    /// metered above the trait.
    fn instrument(&mut self, _metrics: wp_metrics::RankMetrics) {}

    /// Deliberate teardown: announce a clean close to every peer so they
    /// can distinguish a finished endpoint (quiescent disconnect) from a
    /// crashed one (abort). Idempotent; also invoked on drop.
    fn shutdown(&mut self) {}
}

/// The original in-process transport: each directed rank pair is an
/// unbounded `mpsc` channel, every rank an OS thread in one process. Sends
/// never block, per-source FIFO holds per channel, and the abort cell is
/// shared by the whole mesh, so `propagate_abort` has nothing to do.
#[derive(Debug)]
pub struct ChannelTransport {
    rank: usize,
    world: usize,
    /// `outbox[dst]` sends into dst's `inbox[self.rank]`.
    outbox: Vec<Sender<Frame>>,
    /// `inbox[src]` receives frames sent by `src`.
    inbox: Vec<Receiver<Frame>>,
    abort: Arc<AbortCell>,
    pool: Arc<WirePool>,
}

impl ChannelTransport {
    /// Wire up a full mesh of `p` endpoints sharing one abort cell.
    pub fn mesh(p: usize) -> Vec<ChannelTransport> {
        assert!(p >= 1, "world size must be at least 1");
        let abort = Arc::new(AbortCell::default());
        // channels[src][dst]
        let mut senders: Vec<Vec<Option<Sender<Frame>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        let mut receivers: Vec<Vec<Option<Receiver<Frame>>>> =
            (0..p).map(|_| (0..p).map(|_| None).collect()).collect();
        for src in 0..p {
            for dst in 0..p {
                if src == dst {
                    continue;
                }
                let (tx, rx) = channel();
                senders[src][dst] = Some(tx);
                // dst's inbox, indexed by src.
                receivers[dst][src] = Some(rx);
            }
        }
        senders
            .into_iter()
            .zip(receivers)
            .enumerate()
            .map(|(rank, (outs, ins))| {
                // Self-channels are never used; fill with a dummy pair so
                // indexing stays direct.
                ChannelTransport {
                    rank,
                    world: p,
                    outbox: outs
                        .into_iter()
                        .map(|o| o.unwrap_or_else(|| channel().0))
                        .collect(),
                    inbox: ins
                        .into_iter()
                        .map(|i| i.unwrap_or_else(|| channel().1))
                        .collect(),
                    abort: abort.clone(),
                    pool: Arc::new(WirePool::for_world(p)),
                }
            })
            .collect()
    }
}

impl Transport for ChannelTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn abort_cell(&self) -> &Arc<AbortCell> {
        &self.abort
    }

    fn send(&mut self, dst: usize, frame: Frame) -> Result<(), TransportClosed> {
        self.outbox[dst].send(frame).map_err(|_| TransportClosed)
    }

    fn wire_pool(&self) -> &Arc<WirePool> {
        &self.pool
    }

    fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait {
        match self.inbox[src].recv_timeout(timeout) {
            Ok(f) => {
                let arrived = f.payload.checksum();
                RecvWait::Frame(f, arrived)
            }
            Err(RecvTimeoutError::Timeout) => RecvWait::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvWait::Closed,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An honest frame, for this module's tests and the TCP transport's.
    pub(crate) fn frame_of(tag: u64, payload: Payload) -> Frame {
        Frame {
            tag,
            checksum: payload.checksum(),
            payload,
            deliver_at: None,
            collective: false,
            epoch: 0,
        }
    }

    /// An honest f32 frame.
    pub(crate) fn frame(tag: u64, data: Vec<f32>) -> Frame {
        frame_of(tag, Payload::F32(data))
    }

    #[test]
    fn mesh_routes_per_source_fifo() {
        let mut m = ChannelTransport::mesh(3);
        let mut c = m.remove(2);
        let mut a = m.remove(0);
        let mut b = m.remove(0);
        a.send(2, frame(1, vec![1.0])).unwrap();
        a.send(2, frame(2, vec![2.0])).unwrap();
        b.send(2, frame(9, vec![9.0])).unwrap();
        // Per-source FIFO: a's frames arrive in order regardless of b's.
        for (src, want) in [(0, 1), (0, 2), (1, 9)] {
            match c.recv_timeout(src, Duration::from_millis(50)) {
                RecvWait::Frame(f, arrived) => {
                    assert_eq!(f.tag, want);
                    assert!(f.verify(arrived));
                }
                other => panic!("expected frame, got {other:?}"),
            }
        }
        assert!(matches!(
            c.recv_timeout(0, Duration::ZERO),
            RecvWait::TimedOut
        ));
    }

    #[test]
    fn dropped_endpoint_reads_as_closed() {
        let mut m = ChannelTransport::mesh(2);
        let mut b = m.remove(1);
        drop(m); // rank 0's endpoint gone
        assert!(matches!(
            b.recv_timeout(0, Duration::from_millis(1)),
            RecvWait::Closed
        ));
        assert_eq!(b.send(0, frame(0, vec![])), Err(TransportClosed));
    }

    #[test]
    fn mesh_shares_one_abort_cell() {
        let m = ChannelTransport::mesh(3);
        m[0].abort_cell().trip(0, CommError::PeerDead { rank: 0 });
        for t in &m {
            assert!(t.abort_cell().is_tripped());
            assert_eq!(
                t.abort_cell().cause_for(t.rank()),
                CommError::PeerDead { rank: 0 }
            );
        }
    }

    #[test]
    fn frame_checksum_round_trips() {
        let f = frame(7, vec![1.0, -0.0, 3.5]);
        assert!(f.verify(f.payload.checksum()));
        // Same value, different bit pattern.
        assert!(!f.verify(Payload::F32(vec![1.0, 0.0, 3.5]).checksum()));
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
