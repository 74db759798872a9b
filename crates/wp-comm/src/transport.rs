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
//! only moves opaque [`Frame`]s — an envelope around a [`Payload`] that is
//! already the bytes a wire would carry — and promises:
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
//!
//! Two implementations ship: [`ChannelTransport`] (the original in-process
//! `mpsc` mesh, one OS thread per rank) and
//! [`TcpTransport`](crate::tcp::TcpTransport) (one OS *process* per rank
//! over localhost sockets). The cross-transport conformance suite runs the
//! full bit-identity battery over both.

use crate::error::CommError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use wp_tensor::dtype::{pack_bf16, pack_f16, unpack_bf16, unpack_f16};
use wp_tensor::DType;

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

// A payload's wire bytes are its elements in little-endian order, which the
// byte views below take straight from memory.
#[cfg(not(target_endian = "little"))]
compile_error!("wp-comm frames carry the little-endian memory image of their payload");

fn f32_bytes(xs: &[f32]) -> &[u8] {
    // SAFETY: an `f32` is four initialised bytes with no padding, `u8` has
    // no alignment requirement, and the view borrows `xs`.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

fn u16_bytes(xs: &[u16]) -> &[u8] {
    // SAFETY: as `f32_bytes`, two bytes per element.
    unsafe { std::slice::from_raw_parts(xs.as_ptr().cast(), std::mem::size_of_val(xs)) }
}

/// Seeds of the checksum's four lanes (the fractional bits of √2, √3, √5
/// and √7) and its odd multiplier (of the golden ratio).
const LANE_SEEDS: [u64; 4] = [
    0x6a09_e667_f3bc_c908,
    0xbb67_ae85_84ca_a73b,
    0x3c6e_f372_fe94_f82b,
    0xa54f_f53a_5f1d_36f1,
];
const MULTIPLIER: u64 = 0x9e37_79b9_7f4a_7c15;

/// Absorb one 64-bit word: a bijection of the state for a fixed word and of
/// the word for a fixed state, so a change to either always shows.
#[inline(always)]
fn absorb(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(MULTIPLIER).rotate_left(29)
}

/// The end-to-end checksum carried by every [`Frame`], over the payload's
/// wire bytes: little-endian 64-bit word `k` is absorbed by lane `k mod 4`
/// (four independent multiply chains, so the loop runs at memory speed, not
/// at one multiply latency per byte as a byte-wise FNV-1a does), a ragged
/// tail is zero-padded to one more round, and the four lanes are then
/// absorbed in order into the byte length. Every step is a bijection, so
/// any change confined to one word — a flipped bit above all — changes the
/// result; lanes differ in seed and are folded in a fixed order, so a word
/// moved to another lane or another round changes it too; the length
/// separates a payload from the same payload with zeros appended.
///
/// Fed in pieces, so a packing loop can hash each block while it is in L1:
/// every piece but the last must be a whole number of 32-byte rounds.
struct Checksum {
    lanes: [u64; 4],
    len: u64,
}

impl Checksum {
    fn new() -> Self {
        Checksum {
            lanes: LANE_SEEDS,
            len: 0,
        }
    }

    fn absorb(&mut self, bytes: &[u8]) {
        debug_assert!(
            self.len.is_multiple_of(32),
            "only the last piece may be ragged"
        );
        let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("eight bytes"));
        let mut round = |block: &[u8]| {
            for (lane, w) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
                *lane = absorb(*lane, word(w));
            }
        };
        let blocks = bytes.chunks_exact(32);
        let tail = blocks.remainder();
        blocks.for_each(&mut round);
        if !tail.is_empty() {
            let mut padded = [0u8; 32];
            padded[..tail.len()].copy_from_slice(tail);
            round(&padded);
        }
        self.len += bytes.len() as u64;
    }

    fn finish(self) -> u64 {
        self.lanes.into_iter().fold(self.len, absorb)
    }
}

fn checksum_bytes(bytes: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.absorb(bytes);
    sum.finish()
}

/// The [`Frame`] checksum of an f32 payload: [`Payload::checksum`] of
/// `Payload::F32(data)` without building one.
pub fn checksum_of(data: &[f32]) -> u64 {
    checksum_bytes(f32_bytes(data))
}

/// A frame's payload, held once and in wire representation: what the sender
/// packed is what the meter charges, what the checksum covers, what a
/// socket carries and what the receiver unpacks.
#[derive(Debug, Clone, PartialEq)]
pub enum Payload {
    /// IEEE binary32 values, as given.
    F32(Vec<f32>),
    /// IEEE binary16 bit patterns.
    F16(Vec<u16>),
    /// bfloat16 bit patterns.
    BF16(Vec<u16>),
}

/// Elements [`staged`] converts per round.
const STAGE: usize = 1024;

/// The one conversion loop between f32 values and wire elements: `src` is
/// converted a [`STAGE`]-element block at a time into a buffer on the
/// stack, and `land` consumes each block, at its element offset, while it
/// is still in L1. Packing appends the block to the payload and hashes it;
/// unpacking appends it to, overwrites, or adds it into the receiver's
/// buffer. Converting straight into a `vec![0; n]` instead writes the
/// result twice (the zero fill costs a third of an unpack at ring-chunk
/// sizes).
fn staged<S, D: Copy + Default>(
    src: &[S],
    convert: fn(&mut [D], &[S]),
    mut land: impl FnMut(usize, &[D]),
) {
    let mut stage = [D::default(); STAGE];
    for (i, block) in src.chunks(STAGE).enumerate() {
        let stage = &mut stage[..block.len()];
        convert(stage, block);
        land(i * STAGE, stage);
    }
}

/// `src` packed into a new vector by `convert`, and the checksum of the
/// result's wire bytes.
fn pack_staged(src: &[f32], convert: fn(&mut [u16], &[f32])) -> (Vec<u16>, u64) {
    let mut out = Vec::with_capacity(src.len());
    let mut sum = Checksum::new();
    staged(src, convert, |_, block| {
        out.extend_from_slice(block);
        sum.absorb(u16_bytes(block));
    });
    (out, sum.finish())
}

/// Where a received payload's values go ([`Payload::land`]).
#[derive(Debug)]
pub enum Landing<'a> {
    /// Become the vector's contents. An f32 payload is moved in; a 16-bit
    /// one is widened in place when the lengths agree, and otherwise into
    /// the cleared vector, appended block by block (no zero fill).
    Replace(&'a mut Vec<f32>),
    /// Be added elementwise into the slice, which must be as long as the
    /// payload: `acc[i] += value[i]`.
    Add(&'a mut [f32]),
}

/// Land the values [`staged`] converts from `src` as `landing` says.
fn land_staged<S>(src: &[S], convert: fn(&mut [f32], &[S]), landing: Landing<'_>) {
    match landing {
        Landing::Replace(buf) if buf.len() == src.len() => staged(src, convert, |at, block| {
            buf[at..at + block.len()].copy_from_slice(block)
        }),
        Landing::Replace(buf) => {
            buf.clear();
            buf.reserve(src.len());
            staged(src, convert, |_, block| buf.extend_from_slice(block));
        }
        Landing::Add(acc) => {
            assert_eq!(acc.len(), src.len(), "adding a payload of another length");
            staged(src, convert, |at, block| add(&mut acc[at..], block));
        }
    }
}

/// `acc[i] += xs[i]` over `xs`.
fn add(acc: &mut [f32], xs: &[f32]) {
    for (a, x) in acc.iter_mut().zip(xs) {
        *a += x;
    }
}

impl Payload {
    /// Convert `data` to its `dtype` wire representation — what a GPU
    /// casting to fp16 for the transfer would do to the values — and
    /// checksum the wire bytes in the same pass: the [`Frame`] checksum,
    /// equal to [`checksum`](Self::checksum) of the payload returned.
    pub fn pack(data: &[f32], dtype: DType) -> (Payload, u64) {
        match dtype {
            DType::F32 => {
                let mut out = Vec::with_capacity(data.len());
                let mut sum = Checksum::new();
                for block in data.chunks(STAGE) {
                    out.extend_from_slice(block);
                    sum.absorb(f32_bytes(block));
                }
                (Payload::F32(out), sum.finish())
            }
            DType::F16 => {
                let (packed, sum) = pack_staged(data, pack_f16);
                (Payload::F16(packed), sum)
            }
            DType::BF16 => {
                let (packed, sum) = pack_staged(data, pack_bf16);
                (Payload::BF16(packed), sum)
            }
        }
    }

    /// The values the receiver computes with: an f32 payload is handed over
    /// as is, a 16-bit one widened. `unpack(pack(x, dtype))` is
    /// `quantize_slice(x, dtype)` bit for bit.
    pub fn unpack(self) -> Vec<f32> {
        let mut out = Vec::new();
        self.land(Landing::Replace(&mut out));
        out
    }

    /// Put the values the receiver computes with where `landing` says, bit
    /// for bit what [`unpack`](Self::unpack) returns (plus, for
    /// [`Landing::Add`], one elementwise add), and hand the payload back
    /// unless the landing took it: an f32 payload moves into a
    /// [`Landing::Replace`], every other landing only reads its payload.
    ///
    /// # Panics
    /// When a [`Landing::Add`] slice is not as long as the payload.
    pub fn land(self, landing: Landing<'_>) -> Option<Payload> {
        Some(match (self, landing) {
            (Payload::F32(data), Landing::Replace(buf)) => {
                *buf = data;
                return None;
            }
            (Payload::F32(data), Landing::Add(acc)) => {
                assert_eq!(acc.len(), data.len(), "adding a payload of another length");
                add(acc, &data);
                Payload::F32(data)
            }
            (Payload::F16(packed), landing) => {
                land_staged(&packed, unpack_f16, landing);
                Payload::F16(packed)
            }
            (Payload::BF16(packed), landing) => {
                land_staged(&packed, unpack_bf16, landing);
                Payload::BF16(packed)
            }
        })
    }

    /// An all-zero payload of `len` wire bytes for a decoder to fill, or
    /// `None` when that is not a whole number of `dtype` elements.
    pub(crate) fn zeroed(dtype: DType, len: usize) -> Option<Payload> {
        let width = dtype.size_bytes();
        if !len.is_multiple_of(width) {
            return None;
        }
        let n = len / width;
        Some(match dtype {
            DType::F32 => Payload::F32(vec![0.0; n]),
            DType::F16 => Payload::F16(vec![0; n]),
            DType::BF16 => Payload::BF16(vec![0; n]),
        })
    }

    /// The storage format the payload is held in.
    pub fn dtype(&self) -> DType {
        match self {
            Payload::F32(_) => DType::F32,
            Payload::F16(_) => DType::F16,
            Payload::BF16(_) => DType::BF16,
        }
    }

    /// The payload exactly as it crosses a wire: element count × element
    /// width bytes, little-endian.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Payload::F32(data) => f32_bytes(data),
            Payload::F16(packed) | Payload::BF16(packed) => u16_bytes(packed),
        }
    }

    /// The size both ends are charged: the length of the wire bytes, so
    /// what is accounted is what is shipped by construction.
    pub fn wire_bytes(&self) -> u64 {
        self.as_bytes().len() as u64
    }

    /// [`as_bytes`](Self::as_bytes), writable: for a decoder filling the
    /// payload from a socket and for injected corruption.
    pub(crate) fn as_bytes_mut(&mut self) -> &mut [u8] {
        let (ptr, len) = match self {
            Payload::F32(data) => (data.as_mut_ptr().cast(), std::mem::size_of_val(&data[..])),
            Payload::F16(packed) | Payload::BF16(packed) => (
                packed.as_mut_ptr().cast(),
                std::mem::size_of_val(&packed[..]),
            ),
        };
        // SAFETY: as `f32_bytes`; every bit pattern is a valid `f32` and a
        // valid `u16`, so no write through the view can break the elements,
        // and the view borrows `self` exclusively.
        unsafe { std::slice::from_raw_parts_mut(ptr, len) }
    }

    /// The checksum of the wire bytes.
    pub fn checksum(&self) -> u64 {
        checksum_bytes(self.as_bytes())
    }
}

/// One framed message: the tag/class envelope plus typed wire payload that
/// every transport carries verbatim. The fields are decided *above* the
/// trait (packing, checksumming, fault corruption, link pacing) — a
/// transport never inspects or alters them, it only preserves them.
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
    /// Whether the payload still matches its send-time checksum.
    pub fn verify(&self) -> bool {
        self.payload.checksum() == self.checksum
    }
}

/// The destination endpoint is gone: its rank exited, crashed, or tore the
/// connection down. The layer above maps this to
/// [`CommError::PeerDead`](crate::CommError::PeerDead) (or the standing
/// abort cause when the world is already unwinding).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportClosed;

/// Outcome of a bounded blocking receive ([`Transport::recv_timeout`]).
#[derive(Debug)]
pub enum RecvWait {
    /// The next frame from this source, in per-source FIFO order.
    Frame(Frame),
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

    fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait {
        match self.inbox[src].recv_timeout(timeout) {
            Ok(f) => RecvWait::Frame(f),
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
                RecvWait::Frame(f) => assert_eq!(f.tag, want),
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
        assert!(f.verify());
        // Same value, different bit pattern.
        assert!(!Frame {
            payload: Payload::F32(vec![1.0, 0.0, 3.5]),
            ..f
        }
        .verify());
    }

    #[test]
    fn payload_packs_to_the_wire_width_and_unpacks_to_the_quantised_values() {
        // Shorter than one staging block, exactly one, and several plus a
        // ragged tail; values that round, underflow, overflow and keep a
        // signed zero.
        let edge = [1.0 + 2f32.powi(-13), -3.7, 1e-7, 70000.0, -0.0];
        for n in [0, edge.len(), STAGE, 2 * STAGE + 5] {
            let xs: Vec<f32> = (0..n)
                .map(|i| edge[i % edge.len()] * (1 + i / 5) as f32)
                .collect();
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                let (p, sum) = Payload::pack(&xs, dtype);
                assert_eq!(sum, p.checksum(), "{dtype} n={n}: fused checksum");
                assert_eq!(p.dtype(), dtype);
                assert_eq!(p.wire_bytes(), (n * dtype.size_bytes()) as u64);
                assert_eq!(p.as_bytes().len() as u64, p.wire_bytes());
                let mut want = xs.clone();
                wp_tensor::dtype::quantize_slice(&mut want, dtype);
                let got = p.unpack();
                assert_eq!(got.len(), n);
                assert!(got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits()));
            }
        }
        assert_eq!(
            Payload::F32(vec![1.0]).checksum(),
            checksum_of(&[1.0]),
            "checksum_of is the F32 payload's checksum"
        );
    }

    /// The checksum `pack` hashes block by block is the payload's, for every
    /// dtype and every ragged length: within a 32-byte round, around one,
    /// and around the staging block.
    #[test]
    fn fused_pack_checksum_is_the_payload_checksum() {
        let ragged = (0..=40).chain([STAGE - 1, STAGE + 1, 2 * STAGE + 5, 3 * STAGE + 17]);
        for n in ragged {
            let xs: Vec<f32> = (0..n).map(|i| i as f32 * -0.731 + 0.5).collect();
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                let (p, sum) = Payload::pack(&xs, dtype);
                assert_eq!(sum, p.checksum(), "{dtype} n={n}");
            }
            assert_eq!(Payload::pack(&xs, DType::F32).1, checksum_of(&xs), "n={n}");
        }
    }

    /// Every landing is `unpack()`, or `unpack()` and one elementwise add,
    /// bit for bit, with the values held against their definition
    /// (`quantize_slice`): per dtype, over lengths around the staging block,
    /// into buffers as long as the payload and of other lengths.
    #[test]
    fn landings_match_unpack_bit_for_bit() {
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [0, 1, STAGE, 2 * STAGE + 5] {
            let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.37).sin() * 1e3).collect();
            let acc: Vec<f32> = (0..n).map(|i| (i as f32 * 0.11).cos() * 1e-3).collect();
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                let (payload, _) = Payload::pack(&xs, dtype);
                let mut values = xs.clone();
                wp_tensor::dtype::quantize_slice(&mut values, dtype);
                let unpacked = payload.clone().unpack();
                assert_eq!(bits(&unpacked), bits(&values), "{dtype} n={n} unpack");
                for len in [n, 0, n + 3, n / 2] {
                    let mut buf = vec![-1.5f32; len];
                    payload.clone().land(Landing::Replace(&mut buf));
                    assert_eq!(
                        bits(&buf),
                        bits(&values),
                        "{dtype} n={n} replace into {len}"
                    );
                }
                let mut want = acc.clone();
                for (w, v) in want.iter_mut().zip(&values) {
                    *w += v;
                }
                let mut got = acc.clone();
                payload.land(Landing::Add(&mut got));
                assert_eq!(bits(&got), bits(&want), "{dtype} n={n} add");
            }
        }
    }

    #[test]
    #[should_panic(expected = "another length")]
    fn adding_a_payload_of_another_length_panics() {
        let (payload, _) = Payload::pack(&[1.0; 3], DType::F16);
        payload.land(Landing::Add(&mut [0.0; 4]));
    }

    #[test]
    fn checksums_accept_honest_payloads() {
        assert_eq!(checksum_of(&[]), checksum_of(&[]));
        assert_ne!(checksum_of(&[1.0]), checksum_of(&[1.0000001]));
        // -0.0 and 0.0 have different bit patterns and must hash apart.
        assert_ne!(checksum_of(&[0.0]), checksum_of(&[-0.0]));
    }

    #[test]
    fn checksum_sees_every_bit_every_position_and_the_length() {
        let bytes: Vec<u8> = (0..70u32).map(|i| (i * 37 + 11) as u8).collect();
        for len in 0..=bytes.len() {
            let honest = checksum_bytes(&bytes[..len]);
            let mut flipped = bytes[..len].to_vec();
            for bit in 0..len * 8 {
                flipped[bit / 8] ^= 1 << (bit % 8);
                assert_ne!(checksum_bytes(&flipped), honest, "len {len} bit {bit}");
                flipped[bit / 8] ^= 1 << (bit % 8);
            }
            // Zero padding is not the payload: the length is hashed.
            let mut longer = bytes[..len].to_vec();
            for extra in 1..=33 {
                longer.push(0);
                assert_ne!(checksum_bytes(&longer), honest, "len {len} + {extra} zeros");
            }
        }
        // Positional: two words exchanged — across lanes, and within one
        // lane a round apart — hash apart.
        let honest = checksum_bytes(&bytes[..64]);
        for (a, b) in [(0, 1), (1, 3), (2, 6), (0, 4), (3, 7)] {
            let mut swapped = bytes[..64].to_vec();
            for i in 0..8 {
                swapped.swap(a * 8 + i, b * 8 + i);
            }
            assert_ne!(checksum_bytes(&swapped), honest, "words {a} and {b}");
        }
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
