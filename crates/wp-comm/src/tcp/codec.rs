//! The byte layout of everything a [`TcpTransport`](super::TcpTransport)
//! stream carries — the one place the wire format is written down and the
//! one place a change to it lands.
//!
//! # Wire format
//!
//! Every frame on a stream is `[len: u32][kind: u8][body: len-1 bytes]`,
//! all integers little-endian, `len` counting the kind byte plus the body:
//!
//! * `HELLO` (handshake, sent once by the connecting side before any
//!   frame): magic `0x57505452` ("WPTR"), protocol version `u8`, sender
//!   rank `u32`. The accepting side learns who is at the other end.
//! * `DATA` (kind 1): `tag u64`, `checksum u64`, `flags u8` (bit 0 =
//!   collective hop, bit 1 = delivery delay present), `delay_ns u64`,
//!   `epoch u64`, `dtype u8` (0 = f32, 1 = f16, 2 = bf16), `n u32`, then
//!   the payload's `n` wire bytes —
//!   [`Payload::as_bytes`](crate::Payload::as_bytes), written from the
//!   typed buffer and read straight into one, so a 16-bit frame costs two
//!   bytes per element here as on the meter. With the length prefix and
//!   kind byte that is [`DATA_HEADER_LEN`] bytes ahead of every payload. The
//!   tag/class/epoch envelope of [`Frame`] verbatim; the link-model
//!   delivery deadline crosses the process boundary as a *remaining* delay,
//!   captured when the frame hits the wire and re-anchored to the
//!   receiver's clock on arrival (wall clocks of different processes never
//!   compare).
//! * `ABORT` (kind 2): origin rank `u32`, then what every other rank
//!   unwinds with ([`CommError::seen_by_peers`]) in one of two forms, a
//!   form byte and its fields: 0 = `PeerDead` (`rank u64`), 1 = `Aborted`
//!   (`origin u64`, `n u32`, `n` bytes of UTF-8 reason). The poison pill
//!   crossing a process boundary: a peer's cell holds exactly what the
//!   shared in-process cell would give that peer.
//! * `GOODBYE` (kind 3): empty body. A deliberate close; distinguishes a
//!   rank that finished from a rank that crashed.

use crate::error::CommError;
use crate::payload::{Checksum, WirePool};
use crate::transport::Frame;
use std::io::{self, IoSlice, Read, Write};
use std::time::{Duration, Instant};
use wp_tensor::DType;

/// Handshake magic: "WPTR".
pub(super) const MAGIC: u32 = 0x5750_5452;
/// Version 2 added the per-frame configuration epoch to the DATA body and
/// the membership-mismatch error; version 3 replaced the DATA body's
/// `wire_bytes` field and f32-widened payload with a dtype byte and the
/// packed wire bytes; version 4 added the frame-too-large error; version 5
/// cut the ABORT body to the two forms a peer unwinds with. Mixed-version
/// meshes are rejected at HELLO time rather than mis-parsed mid-stream.
pub(super) const PROTO_VERSION: u8 = 5;
const KIND_DATA: u8 = 1;
const KIND_ABORT: u8 = 2;
const KIND_GOODBYE: u8 = 3;
/// Upper bound on one frame's encoded size; anything larger is a framing
/// error (a desynchronised or hostile stream), treated as an unclean close.
const MAX_FRAME: u32 = 1 << 30;
/// The bytes of a DATA payload [`read_frame`] reads at a time, each hashed
/// right after it lands, while it is still in L2: a whole number of the
/// checksum's 32-byte rounds, as every piece but the last must be.
const PIECE: usize = 64 << 10;
/// The whole GOODBYE wire frame: length 1, the kind byte, no body.
pub(super) const GOODBYE_FRAME: [u8; 5] = [1, 0, 0, 0, KIND_GOODBYE];

/// Bytes a DATA frame puts on a stream ahead of its payload: the length
/// prefix, the kind byte and the fixed fields listed in the module docs.
pub const DATA_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 1 + 8 + 8 + 1 + 4;
/// The most payload bytes one DATA frame carries: any more and its length
/// prefix would pass [`MAX_FRAME`], which the receiving reader refuses.
pub(super) const MAX_DATA_PAYLOAD: usize = MAX_FRAME as usize - (DATA_HEADER_LEN - 4);

/// The length prefix of a DATA frame carrying `payload` bytes, or `None`
/// when it would pass [`MAX_FRAME`].
fn data_frame_len(payload: usize) -> Option<u32> {
    (payload <= MAX_DATA_PAYLOAD).then(|| (DATA_HEADER_LEN - 4 + payload) as u32)
}

const FLAG_COLLECTIVE: u8 = 1 << 0;
const FLAG_HAS_DELAY: u8 = 1 << 1;
/// The `dtype` byte is an index into this table.
const DTYPES: [DType; 3] = [DType::F32, DType::F16, DType::BF16];

pub(super) fn put_u32(buf: &mut Vec<u8>, x: u32) {
    buf.extend_from_slice(&x.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, x: u64) {
    buf.extend_from_slice(&x.to_le_bytes());
}

pub(super) struct Cursor<'a> {
    b: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    pub(super) fn new(b: &'a [u8]) -> Self {
        Cursor { b, pos: 0 }
    }

    pub(super) fn u8(&mut self) -> Option<u8> {
        let x = *self.b.get(self.pos)?;
        self.pos += 1;
        Some(x)
    }

    pub(super) fn u32(&mut self) -> Option<u32> {
        let s = self.b.get(self.pos..self.pos + 4)?;
        self.pos += 4;
        Some(u32::from_le_bytes(s.try_into().unwrap()))
    }

    fn u64(&mut self) -> Option<u64> {
        let s = self.b.get(self.pos..self.pos + 8)?;
        self.pos += 8;
        Some(u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.b.get(self.pos..self.pos + n)?;
        self.pos += n;
        Some(s)
    }
}

/// Write `frame` as one DATA wire frame: the header, built on the stack,
/// and the payload's wire bytes leave in one vectored write loop, so the
/// payload is never copied on this side. `delay` is the remaining
/// link-model delivery delay at the moment the frame hits the wire. A
/// payload over [`MAX_DATA_PAYLOAD`] is refused before any byte is written;
/// the communicator refuses it earlier still, with a typed error.
pub(super) fn write_data(
    mut w: impl Write,
    frame: &Frame,
    delay: Option<Duration>,
) -> io::Result<()> {
    let payload = frame.payload.as_bytes();
    let len = data_frame_len(payload.len()).ok_or(io::ErrorKind::InvalidInput)?;
    let flags = (u8::from(frame.collective) * FLAG_COLLECTIVE)
        | (u8::from(delay.is_some()) * FLAG_HAS_DELAY);
    let dtype = DTYPES
        .iter()
        .position(|&d| d == frame.payload.dtype())
        .expect("DTYPES lists every dtype") as u8;
    let mut header = [0u8; DATA_HEADER_LEN];
    let mut at = 0;
    for field in [
        &len.to_le_bytes()[..],
        &[KIND_DATA],
        &frame.tag.to_le_bytes(),
        &frame.checksum.to_le_bytes(),
        &[flags],
        &delay.map_or(0, |d| d.as_nanos() as u64).to_le_bytes(),
        &frame.epoch.to_le_bytes(),
        &[dtype],
        &(payload.len() as u32).to_le_bytes(),
    ] {
        header[at..at + field.len()].copy_from_slice(field);
        at += field.len();
    }
    debug_assert_eq!(at, DATA_HEADER_LEN);
    let mut bufs = [IoSlice::new(&header), IoSlice::new(payload)];
    let mut bufs = &mut bufs[..];
    while !bufs.is_empty() {
        match w.write_vectored(bufs) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut bufs, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// One frame as [`read_frame`] hands it on.
#[derive(Debug)]
pub(super) enum Incoming {
    /// A frame, and the checksum of its payload as it arrived.
    Data(Frame, u64),
    /// The rank whose failure poisoned the world, and the failure.
    Abort(usize, CommError),
    Goodbye,
}

/// Read the next frame off a stream. A DATA payload is read straight into
/// a typed buffer from `pool` once its header is validated, one [`PIECE`]
/// at a time, and each piece is absorbed into the arrival hash as it
/// lands; the delivery deadline is re-anchored to this process's clock.
/// `None` — the unclean close — for a stream that fails or ends mid-frame
/// and for a frame that does not parse: an unknown kind or dtype, a count
/// that is not a whole number of elements, or a length prefix other than
/// exactly what the kind and its contents take (DATA `39 + n`, GOODBYE 1,
/// ABORT what the error codec consumes).
pub(super) fn read_frame(mut r: impl Read, pool: &WirePool) -> Option<Incoming> {
    let mut prefix = [0u8; 5];
    r.read_exact(&mut prefix).ok()?;
    let mut c = Cursor::new(&prefix);
    let len = c.u32()?;
    if len == 0 || len > MAX_FRAME {
        return None;
    }
    match c.u8()? {
        KIND_DATA => {
            let n = (len as usize).checked_sub(DATA_HEADER_LEN - 4)?;
            let mut header = [0u8; DATA_HEADER_LEN - 5];
            r.read_exact(&mut header).ok()?;
            let mut c = Cursor::new(&header);
            let tag = c.u64()?;
            let checksum = c.u64()?;
            let flags = c.u8()?;
            let delay_ns = c.u64()?;
            let epoch = c.u64()?;
            let dtype = *DTYPES.get(c.u8()? as usize)?;
            if c.u32()? as usize != n {
                return None;
            }
            let mut payload = pool.for_reader(dtype, n)?;
            let mut arrived = Checksum::new();
            for piece in payload.as_bytes_mut().chunks_mut(PIECE) {
                r.read_exact(piece).ok()?;
                arrived.absorb(piece);
            }
            let deliver_at = (flags & FLAG_HAS_DELAY != 0)
                .then(|| Instant::now() + Duration::from_nanos(delay_ns));
            let frame = Frame {
                tag,
                payload,
                deliver_at,
                checksum,
                collective: flags & FLAG_COLLECTIVE != 0,
                epoch,
            };
            Some(Incoming::Data(frame, arrived.finish()))
        }
        KIND_ABORT => {
            let mut body = vec![0u8; len as usize - 1];
            r.read_exact(&mut body).ok()?;
            let mut c = Cursor::new(&body);
            let origin = c.u32()? as usize;
            let err = decode_err(&mut c)?;
            (c.pos == body.len()).then_some(Incoming::Abort(origin, err))
        }
        KIND_GOODBYE => (len == 1).then_some(Incoming::Goodbye),
        _ => None,
    }
}

/// Serialize what a peer unwinds with for an ABORT frame: form byte +
/// fields, the reason length-prefixed UTF-8.
fn encode_err(e: &CommError, buf: &mut Vec<u8>) {
    match e {
        CommError::PeerDead { rank } => {
            buf.push(0);
            put_u64(buf, *rank as u64);
        }
        CommError::Aborted { origin, reason } => {
            buf.push(1);
            put_u64(buf, *origin as u64);
            put_u32(buf, reason.len() as u32);
            buf.extend_from_slice(reason.as_bytes());
        }
        other => unreachable!("no peer unwinds with {other:?}"),
    }
}

/// Inverse of [`encode_err`].
fn decode_err(c: &mut Cursor<'_>) -> Option<CommError> {
    Some(match c.u8()? {
        0 => CommError::PeerDead {
            rank: c.u64()? as usize,
        },
        1 => {
            let origin = c.u64()? as usize;
            let n = c.u32()? as usize;
            let reason = String::from_utf8(c.bytes(n)?.to_vec()).ok()?;
            CommError::Aborted { origin, reason }
        }
        _ => return None,
    })
}

/// Write one ABORT wire frame: the rank whose failure poisoned the world,
/// then what every other rank unwinds with.
pub(super) fn write_abort(mut w: impl Write, origin: usize, err: &CommError) -> io::Result<()> {
    let mut buf = Vec::new();
    put_u32(&mut buf, 0); // length back-patched below
    buf.push(KIND_ABORT);
    put_u32(&mut buf, origin as u32);
    encode_err(&err.seen_by_peers(origin), &mut buf);
    let len = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Payload;
    use crate::transport::tests::{frame, frame_of};

    /// Payloads of every dtype at even and odd element counts, f16 and
    /// bf16 holding every class of value (subnormal, NaN, infinity).
    fn payloads() -> Vec<Payload> {
        let xs = [1.5, -0.0, f32::MIN_POSITIVE, 1e-6, f32::NAN, -7e4, 3.0];
        let mut out = Vec::new();
        for n in [0, 1, 2, 3, 7] {
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                out.push(Payload::pack(&xs[..n], dtype).0);
            }
        }
        out
    }

    /// The next frame off `r`, read with a pool of its own.
    fn read(r: impl Read) -> Option<Incoming> {
        read_frame(r, &WirePool::for_world(2, None))
    }

    /// `f` as the bytes [`write_data`] puts on a stream.
    fn data_bytes(f: &Frame, delay: Option<Duration>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_data(&mut buf, f, delay).unwrap();
        buf
    }

    /// The DATA frame at the head of `bytes`, or `None` if it does not read.
    fn read_data(bytes: &[u8]) -> Option<Frame> {
        match read(bytes)? {
            Incoming::Data(f, _) => Some(f),
            other => panic!("expected a DATA frame, got {other:?}"),
        }
    }

    fn abort_bytes(origin: usize, err: &CommError) -> Vec<u8> {
        let mut buf = Vec::new();
        write_abort(&mut buf, origin, err).unwrap();
        buf
    }

    #[test]
    fn data_frame_round_trips() {
        for payload in payloads() {
            let mut f = frame_of(42, payload);
            f.collective = true;
            f.epoch = 3;
            let buf = data_bytes(&f, None);
            assert_eq!(
                u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize,
                buf.len() - 4
            );
            assert_eq!(buf[4], KIND_DATA);
            assert_eq!(
                buf.len(),
                DATA_HEADER_LEN + f.payload.as_bytes().len(),
                "a frame is its header plus exactly the wire bytes"
            );
            let (g, arrived) = arrival(&buf);
            assert_eq!(g.tag, 42);
            assert_eq!(g.checksum, f.checksum);
            assert_eq!(g.epoch, 3, "epoch must survive the wire");
            assert!(g.collective);
            assert!(g.deliver_at.is_none());
            assert_eq!(g.payload.dtype(), f.payload.dtype());
            assert_eq!(
                g.payload.as_bytes(),
                f.payload.as_bytes(),
                "payload bits must survive the wire exactly"
            );
            assert!(g.verify(arrived));
        }
    }

    /// Payload byte lengths around a 32-byte hash round and around the
    /// reader's pieces.
    const ARRIVAL_LENGTHS: [usize; 8] = [0, 2, 30, 32, PIECE - 2, PIECE, PIECE + 2, 3 * PIECE + 6];

    /// The DATA frame at the head of `bytes` and the checksum of its
    /// payload as it arrived.
    fn arrival(bytes: &[u8]) -> (Frame, u64) {
        match read(bytes) {
            Some(Incoming::Data(f, arrived)) => (f, arrived),
            other => panic!("expected a DATA frame, got {other:?}"),
        }
    }

    /// A DATA frame read back carries the checksum `Payload::pack` gave it,
    /// and the payload hashes to it as it arrives; a byte flipped in the
    /// first word, on either side of a piece boundary or in the last word
    /// hashes to something else. Every dtype, at each of
    /// [`ARRIVAL_LENGTHS`] that is a whole number of its elements (f32
    /// rounds the length down to one).
    #[test]
    fn the_arrival_hash_is_the_senders_checksum() {
        for dtype in [DType::F32, DType::F16, DType::BF16] {
            let width = dtype.size_bytes();
            for len in ARRIVAL_LENGTHS.map(|len| len - len % width) {
                let xs: Vec<f32> = (0..len / width).map(|i| i as f32 * 0.37 - 9.0).collect();
                let (payload, sum) = Payload::pack(&xs, dtype);
                let honest = data_bytes(&frame_of(5, payload), None);
                let (f, arrived) = arrival(&honest);
                assert_eq!(f.checksum, sum, "{dtype} {len} B: the sender's checksum");
                assert_eq!(arrived, sum, "{dtype} {len} B: hashed as it arrived");
                let last = len.saturating_sub(1);
                for at in [0, PIECE - 1, PIECE, last] {
                    if at >= len {
                        continue;
                    }
                    let mut flipped = honest.clone();
                    flipped[DATA_HEADER_LEN + at] ^= 0x10;
                    let (f, arrived) = arrival(&flipped);
                    assert_eq!(f.checksum, sum, "{dtype} {len} B: the envelope is kept");
                    assert_ne!(arrived, sum, "{dtype} {len} B: byte {at} flipped");
                }
            }
        }
    }

    /// Over TCP a frame corrupted by a fault plan fails its receive as
    /// `Corrupt` and leaves an `Add` landing untouched; one that comes from
    /// a stale epoch is dropped and counted before it is checked, and the
    /// receive completes with the current frame behind it.
    #[test]
    fn over_tcp_corruption_fails_a_current_receive_and_a_stale_one_is_dropped() {
        use crate::payload::WirePool;
        use crate::transport::{AbortCell, RecvWait, Transport, TransportClosed};
        use crate::{CommConfig, CommError, FaultPlan, Landing, World};
        use std::sync::Arc;
        use wp_metrics::{Counter, MetricsRegistry};

        /// A TCP endpoint whose first frame leaves stamped with the epoch
        /// before its own: a straggler from a pre-fault world.
        #[derive(Debug)]
        struct Straggling(crate::TcpTransport, bool);
        impl Transport for Straggling {
            fn rank(&self) -> usize {
                self.0.rank()
            }
            fn world_size(&self) -> usize {
                self.0.world_size()
            }
            fn abort_cell(&self) -> &Arc<AbortCell> {
                self.0.abort_cell()
            }
            fn send(&mut self, dst: usize, mut frame: Frame) -> Result<(), TransportClosed> {
                if !std::mem::replace(&mut self.1, true) {
                    frame.epoch -= 1;
                }
                self.0.send(dst, frame)
            }
            fn wire_pool(&self) -> &Arc<WirePool> {
                self.0.wire_pool()
            }
            fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait {
                self.0.recv_timeout(src, timeout)
            }
        }

        let n = (3 * PIECE + 6) / 2;
        let xs: Vec<f32> = (0..n).map(|i| (i as f32 * 0.01).sin()).collect();
        let acc0 = vec![0.25f32; n];
        let cfg = CommConfig::fail_fast(Duration::from_secs(5));
        for wire in [DType::F32, DType::F16, DType::BF16] {
            // A current frame, corrupted on the wire.
            let (results, _) = World::builder(2)
                .config(cfg)
                .transport(crate::TransportKind::TcpLocalhost)
                .faults(FaultPlan::new(3).with_corruption(0, 1, 0))
                .try_run(|mut c| {
                    if c.rank() == 0 {
                        c.send(1, 4, &xs, wire)?;
                        return Ok((None, Vec::new()));
                    }
                    let mut acc = acc0.to_vec();
                    let err = c.recv_into(0, 4, Landing::Add(&mut acc)).err();
                    Ok((err, acc))
                });
            let (err, acc) = results[1].as_ref().expect("rank 1 reports");
            assert_eq!(err, &Some(CommError::Corrupt { src: 0, tag: 4 }), "{wire}");
            assert!(
                acc.iter()
                    .zip(&acc0)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{wire}: the landing is untouched"
            );
            // The same corruption on a straggler from the epoch before.
            let registry = MetricsRegistry::new(2);
            let mut ends = crate::tcp::local_mesh(2, Some(&registry)).into_iter();
            let (a, b) = (ends.next().unwrap(), ends.next().unwrap());
            let builder = World::builder(2)
                .epoch(1)
                .config(cfg)
                .metrics(registry.clone());
            let mut tx = builder
                .clone()
                .faults(FaultPlan::new(3).with_corruption(0, 1, 0))
                .endpoint(Box::new(Straggling(a, false)));
            let mut rx = builder.endpoint(Box::new(b));
            tx.send(1, 4, &xs, wire).unwrap();
            tx.send(1, 4, &xs, wire).unwrap();
            let mut acc = acc0.to_vec();
            rx.recv_into(0, 4, Landing::Add(&mut acc))
                .unwrap_or_else(|e| panic!("{wire}: the stale frame failed the receive: {e}"));
            let stale = registry
                .snapshot_rank(1)
                .counter(Counter::StaleFramesDropped);
            assert_eq!(stale, 1, "{wire}: the straggler is counted");
        }
    }

    /// A stream that ends inside a payload being read into a recycled
    /// buffer is an unclean close, not a frame: in the first piece, on
    /// either side of a piece boundary and one byte short.
    #[test]
    fn a_stream_cut_mid_payload_into_a_recycled_buffer_is_an_unclean_close() {
        let n = PIECE + 6;
        let honest = data_bytes(&frame_of(1, Payload::F16(vec![0x5555; n / 2])), None);
        let pool = WirePool::for_world(2, None);
        for cut in [1, PIECE - 1, PIECE, PIECE + 1, n - 1] {
            pool.give(Payload::F16(vec![0xAAAA; n / 2]));
            let read = read_frame(&honest[..DATA_HEADER_LEN + cut], &pool);
            assert!(read.is_none(), "cut {cut} bytes into the payload");
        }
        pool.give(Payload::F16(vec![0xAAAA; n / 2]));
        match read_frame(&honest[..], &pool) {
            Some(Incoming::Data(f, arrived)) => {
                assert!(f.verify(arrived));
                assert_eq!(f.payload, Payload::F16(vec![0x5555; n / 2]));
            }
            other => panic!("expected the whole frame, got {other:?}"),
        }
        assert_eq!(pool.idle(), 0, "the recycled buffer was read into");
    }

    #[test]
    fn delay_crosses_as_remaining_duration() {
        let buf = data_bytes(&frame(0, vec![]), Some(Duration::from_millis(5)));
        let g = read_data(&buf).unwrap();
        let at = g.deliver_at.expect("delay flag set");
        let d = at.saturating_duration_since(Instant::now());
        assert!(d <= Duration::from_millis(5));
        assert!(d > Duration::from_millis(2), "re-anchored near 5ms");
    }

    #[test]
    fn data_frames_stop_at_the_readers_limit() {
        // The largest payload fills the frame to exactly what the reader
        // accepts; one byte more, or a length that would wrap the u32
        // prefix, is refused before anything is written.
        assert_eq!(data_frame_len(MAX_DATA_PAYLOAD), Some(MAX_FRAME));
        assert_eq!(data_frame_len(0), Some(DATA_HEADER_LEN as u32 - 4));
        for payload in [MAX_DATA_PAYLOAD + 1, u32::MAX as usize + 1] {
            assert_eq!(data_frame_len(payload), None, "{payload} bytes");
        }
    }

    /// An ABORT frame carries what the shared in-process cell gives a
    /// peer: for every error variant, decoding `write_abort(7, e)` gives
    /// the origin and exactly what a cell tripped with `(7, e)` hands any
    /// rank but 7, and a cell tripped with the decoded pair hands it the
    /// same.
    #[test]
    fn abort_frame_carries_what_a_peer_unwinds_with() {
        use crate::transport::AbortCell;
        let errs = [
            CommError::PeerDead { rank: 3 },
            CommError::Timeout {
                src: 1,
                tag: 99,
                waited_ms: 1234,
            },
            CommError::Corrupt { src: 2, tag: 7 },
            CommError::Aborted {
                origin: 0,
                reason: "rank panicked: éü".into(),
            },
            CommError::InvalidTag { tag: 1 << 48 },
            CommError::MembershipMismatch {
                rank: 2,
                detail: "epoch 1 vs 2".into(),
            },
            CommError::FrameTooLarge {
                dst: 1,
                bytes: 1 << 31,
                limit: MAX_DATA_PAYLOAD as u64,
            },
        ];
        for e in errs {
            let buf = abort_bytes(7, &e);
            assert_eq!(
                u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize,
                buf.len() - 4
            );
            assert_eq!(buf[4], KIND_ABORT);
            let shared = AbortCell::default();
            shared.trip(7, e.clone());
            let (origin, got) = match read(&buf[..]) {
                Some(Incoming::Abort(origin, got)) => (origin, got),
                other => panic!("expected an ABORT frame, got {other:?}"),
            };
            let remote = AbortCell::default();
            remote.trip(origin, got.clone());
            for peer in [0, 3] {
                assert_eq!((origin, &got), (7, &shared.cause_for(peer)), "{e:?}");
                assert_eq!(remote.cause_for(peer), shared.cause_for(peer), "{e:?}");
            }
        }
        assert!(matches!(read(&GOODBYE_FRAME[..]), Some(Incoming::Goodbye)));
    }

    #[test]
    fn truncated_frames_decode_as_none() {
        for payload in payloads() {
            let buf = data_bytes(&frame_of(1, payload), None);
            for cut in 0..buf.len() {
                assert!(read(&buf[..cut]).is_none(), "cut at {cut}");
            }
        }
        let buf = abort_bytes(1, &CommError::PeerDead { rank: 2 });
        for cut in 0..buf.len() {
            assert!(read(&buf[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn malformed_payload_headers_decode_as_none() {
        // Offsets of the dtype byte and the byte count inside an encoded
        // frame: the last five header bytes.
        const DTYPE_AT: usize = DATA_HEADER_LEN - 5;
        const COUNT_AT: usize = DATA_HEADER_LEN - 4;
        let buf = data_bytes(
            &frame_of(1, Payload::pack(&[1.0, 2.0, 3.0], DType::F16).0),
            None,
        );
        assert!(read_data(&buf).is_some());
        let with = |at: usize, bytes: &[u8]| {
            let mut bad = buf.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        for unknown in [3u8, 0xff] {
            assert!(read_data(&with(DTYPE_AT, &[unknown])).is_none());
        }
        // Six payload bytes are not a whole number of f32s, and five are not
        // a whole number of f16s.
        assert!(read_data(&with(DTYPE_AT, &[0])).is_none());
        assert!(read_data(&with(COUNT_AT, &5u32.to_le_bytes())).is_none());
        // A count past the end of the frame, by one element and by 4 GiB,
        // and one that leaves the frame's last element unread.
        for count in [8u32, u32::MAX - 1, 4] {
            assert!(read_data(&with(COUNT_AT, &count.to_le_bytes())).is_none());
        }
    }

    #[test]
    fn a_length_prefix_must_be_exactly_what_the_frame_holds() {
        let abort = abort_bytes(0, &CommError::Corrupt { src: 1, tag: 9 });
        for bytes in [data_bytes(&frame(1, vec![1.0, 2.0]), None), abort] {
            let len = u32::from_le_bytes(bytes[0..4].try_into().unwrap());
            // One byte past the content, and one short of it.
            for (claimed, trailing) in [(len + 1, 1), (len - 1, 0)] {
                let mut bad = bytes.clone();
                bad[0..4].copy_from_slice(&claimed.to_le_bytes());
                bad.resize(bytes.len() + trailing, 0);
                assert!(read(&bad[..]).is_none(), "len {len} → {claimed}");
            }
        }
        // A DATA length shorter than its own header is refused before the
        // reader consumes anything past the prefix.
        let mut short = data_bytes(&frame(1, vec![1.0]), None);
        short[0..4].copy_from_slice(&1u32.to_le_bytes());
        let mut rest = &short[..];
        assert!(read(&mut rest).is_none());
        assert_eq!(rest.len(), short.len() - 5);
        let mut long_goodbye = GOODBYE_FRAME.to_vec();
        long_goodbye[0] = 2;
        long_goodbye.push(0);
        assert!(read(&long_goodbye[..]).is_none());
        for len in [0, MAX_FRAME + 1] {
            let mut bad = GOODBYE_FRAME.to_vec();
            bad[0..4].copy_from_slice(&len.to_le_bytes());
            assert!(read(&bad[..]).is_none(), "len {len}");
        }
    }
}
