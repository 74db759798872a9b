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
//!   the payload's `n` wire bytes — [`Payload::as_bytes`], written from and
//!   read straight into the typed buffer, so a 16-bit frame costs two bytes
//!   per element here as on the meter. With the length prefix and kind byte
//!   that is [`DATA_HEADER_LEN`] bytes ahead of every payload. The
//!   tag/class/epoch envelope of [`Frame`] verbatim; the link-model
//!   delivery deadline crosses the process boundary as a *remaining* delay,
//!   captured when the frame hits the wire and re-anchored to the
//!   receiver's clock on arrival (wall clocks of different processes never
//!   compare).
//! * `ABORT` (kind 2): origin rank `u32` plus an encoded
//!   [`CommError`] — the poison pill crossing a process boundary.
//! * `GOODBYE` (kind 3): empty body. A deliberate close; distinguishes a
//!   rank that finished from a rank that crashed.

use crate::error::CommError;
use crate::transport::{Frame, Payload};
use std::io::{self, IoSlice, Read, Write};
use std::time::{Duration, Instant};
use wp_tensor::DType;

/// Handshake magic: "WPTR".
pub(super) const MAGIC: u32 = 0x5750_5452;
/// Version 2 added the per-frame configuration epoch to the DATA body and
/// the MembershipMismatch error variant; version 3 replaced the DATA
/// body's `wire_bytes` field and f32-widened payload with a dtype byte and
/// the packed wire bytes. Mixed-version meshes are rejected at HELLO time
/// rather than mis-parsed mid-stream.
pub(super) const PROTO_VERSION: u8 = 3;
const KIND_DATA: u8 = 1;
const KIND_ABORT: u8 = 2;
const KIND_GOODBYE: u8 = 3;
/// Upper bound on one frame's encoded size; anything larger is a framing
/// error (a desynchronised or hostile stream), treated as an unclean close.
const MAX_FRAME: u32 = 1 << 30;
/// The whole GOODBYE wire frame: length 1, the kind byte, no body.
pub(super) const GOODBYE_FRAME: [u8; 5] = [1, 0, 0, 0, KIND_GOODBYE];

/// Bytes a DATA frame puts on a stream ahead of its payload: the length
/// prefix, the kind byte and the fixed fields listed in the module docs.
pub const DATA_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 1 + 8 + 8 + 1 + 4;

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
/// link-model delivery delay at the moment the frame hits the wire.
pub(super) fn write_data(
    mut w: impl Write,
    frame: &Frame,
    delay: Option<Duration>,
) -> io::Result<()> {
    let payload = frame.payload.as_bytes();
    let flags = (u8::from(frame.collective) * FLAG_COLLECTIVE)
        | (u8::from(delay.is_some()) * FLAG_HAS_DELAY);
    let dtype = DTYPES
        .iter()
        .position(|&d| d == frame.payload.dtype())
        .expect("DTYPES lists every dtype") as u8;
    let mut header = [0u8; DATA_HEADER_LEN];
    let mut at = 0;
    for field in [
        &((DATA_HEADER_LEN - 4 + payload.len()) as u32).to_le_bytes()[..],
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
    Data(Frame),
    /// The rank whose failure poisoned the world, and the failure.
    Abort(usize, CommError),
    Goodbye,
}

/// Read the next frame off a stream. A DATA payload is read straight into
/// its typed buffer, allocated once its header is validated; the delivery
/// deadline is re-anchored to this process's clock. `None` — the unclean
/// close — for a stream that fails or ends mid-frame and for a frame that
/// does not parse: an unknown kind or dtype, a count that is not a whole
/// number of elements, or a length prefix other than exactly what the kind
/// and its contents take (DATA `39 + n`, GOODBYE 1, ABORT what the error
/// codec consumes).
pub(super) fn read_frame(mut r: impl Read) -> Option<Incoming> {
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
            let mut payload = Payload::zeroed(dtype, n)?;
            r.read_exact(payload.as_bytes_mut()).ok()?;
            let deliver_at = (flags & FLAG_HAS_DELAY != 0)
                .then(|| Instant::now() + Duration::from_nanos(delay_ns));
            Some(Incoming::Data(Frame {
                tag,
                payload,
                deliver_at,
                checksum,
                collective: flags & FLAG_COLLECTIVE != 0,
                epoch,
            }))
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

/// Serialize a [`CommError`] for an ABORT frame: variant byte + fields,
/// strings length-prefixed UTF-8.
fn encode_err(e: &CommError, buf: &mut Vec<u8>) {
    match e {
        CommError::PeerDead { rank } => {
            buf.push(0);
            put_u64(buf, *rank as u64);
        }
        CommError::Timeout {
            src,
            tag,
            waited_ms,
        } => {
            buf.push(1);
            put_u64(buf, *src as u64);
            put_u64(buf, *tag);
            put_u64(buf, *waited_ms);
        }
        CommError::Corrupt { src, tag } => {
            buf.push(2);
            put_u64(buf, *src as u64);
            put_u64(buf, *tag);
        }
        CommError::Aborted { origin, reason } => {
            buf.push(3);
            put_u64(buf, *origin as u64);
            put_u32(buf, reason.len() as u32);
            buf.extend_from_slice(reason.as_bytes());
        }
        CommError::InvalidTag { tag } => {
            buf.push(4);
            put_u64(buf, *tag);
        }
        CommError::MembershipMismatch { rank, detail } => {
            buf.push(5);
            put_u64(buf, *rank as u64);
            put_u32(buf, detail.len() as u32);
            buf.extend_from_slice(detail.as_bytes());
        }
    }
}

/// Inverse of [`encode_err`].
fn decode_err(c: &mut Cursor<'_>) -> Option<CommError> {
    Some(match c.u8()? {
        0 => CommError::PeerDead {
            rank: c.u64()? as usize,
        },
        1 => CommError::Timeout {
            src: c.u64()? as usize,
            tag: c.u64()?,
            waited_ms: c.u64()?,
        },
        2 => CommError::Corrupt {
            src: c.u64()? as usize,
            tag: c.u64()?,
        },
        3 => {
            let origin = c.u64()? as usize;
            let n = c.u32()? as usize;
            let reason = String::from_utf8(c.bytes(n)?.to_vec()).ok()?;
            CommError::Aborted { origin, reason }
        }
        4 => CommError::InvalidTag { tag: c.u64()? },
        5 => {
            let rank = c.u64()? as usize;
            let n = c.u32()? as usize;
            let detail = String::from_utf8(c.bytes(n)?.to_vec()).ok()?;
            CommError::MembershipMismatch { rank, detail }
        }
        _ => return None,
    })
}

/// Write one ABORT wire frame: the rank whose failure poisoned the world,
/// then the failure itself.
pub(super) fn write_abort(mut w: impl Write, origin: usize, err: &CommError) -> io::Result<()> {
    let mut buf = Vec::new();
    put_u32(&mut buf, 0); // length back-patched below
    buf.push(KIND_ABORT);
    put_u32(&mut buf, origin as u32);
    encode_err(err, &mut buf);
    let len = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&len.to_le_bytes());
    w.write_all(&buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{frame, frame_of};

    /// Payloads of every dtype at even and odd element counts, f16 and
    /// bf16 holding every class of value (subnormal, NaN, infinity).
    fn payloads() -> Vec<Payload> {
        let xs = [1.5, -0.0, f32::MIN_POSITIVE, 1e-6, f32::NAN, -7e4, 3.0];
        let mut out = Vec::new();
        for n in [0, 1, 2, 3, 7] {
            for dtype in [DType::F32, DType::F16, DType::BF16] {
                out.push(Payload::pack(&xs[..n], dtype));
            }
        }
        out
    }

    /// `f` as the bytes [`write_data`] puts on a stream.
    fn data_bytes(f: &Frame, delay: Option<Duration>) -> Vec<u8> {
        let mut buf = Vec::new();
        write_data(&mut buf, f, delay).unwrap();
        buf
    }

    /// The DATA frame at the head of `bytes`, or `None` if it does not read.
    fn read_data(bytes: &[u8]) -> Option<Frame> {
        match read_frame(bytes)? {
            Incoming::Data(f) => Some(f),
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
            let g = read_data(&buf).expect("well-formed frame");
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
            assert!(g.verify());
        }
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
    fn abort_frame_round_trips_every_error_variant() {
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
        ];
        for e in errs {
            let buf = abort_bytes(7, &e);
            assert_eq!(
                u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize,
                buf.len() - 4
            );
            assert_eq!(buf[4], KIND_ABORT);
            match read_frame(&buf[..]) {
                Some(Incoming::Abort(origin, got)) => assert_eq!((origin, got), (7, e)),
                other => panic!("expected an ABORT frame, got {other:?}"),
            }
        }
        assert!(matches!(
            read_frame(&GOODBYE_FRAME[..]),
            Some(Incoming::Goodbye)
        ));
    }

    #[test]
    fn truncated_frames_decode_as_none() {
        for payload in payloads() {
            let buf = data_bytes(&frame_of(1, payload), None);
            for cut in 0..buf.len() {
                assert!(read_frame(&buf[..cut]).is_none(), "cut at {cut}");
            }
        }
        let buf = abort_bytes(1, &CommError::PeerDead { rank: 2 });
        for cut in 0..buf.len() {
            assert!(read_frame(&buf[..cut]).is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn malformed_payload_headers_decode_as_none() {
        // Offsets of the dtype byte and the byte count inside an encoded
        // frame: the last five header bytes.
        const DTYPE_AT: usize = DATA_HEADER_LEN - 5;
        const COUNT_AT: usize = DATA_HEADER_LEN - 4;
        let buf = data_bytes(
            &frame_of(1, Payload::pack(&[1.0, 2.0, 3.0], DType::F16)),
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
                assert!(read_frame(&bad[..]).is_none(), "len {len} → {claimed}");
            }
        }
        // A DATA length shorter than its own header is refused before the
        // reader consumes anything past the prefix.
        let mut short = data_bytes(&frame(1, vec![1.0]), None);
        short[0..4].copy_from_slice(&1u32.to_le_bytes());
        let mut rest = &short[..];
        assert!(read_frame(&mut rest).is_none());
        assert_eq!(rest.len(), short.len() - 5);
        let mut long_goodbye = GOODBYE_FRAME.to_vec();
        long_goodbye[0] = 2;
        long_goodbye.push(0);
        assert!(read_frame(&long_goodbye[..]).is_none());
        for len in [0, MAX_FRAME + 1] {
            let mut bad = GOODBYE_FRAME.to_vec();
            bad[0..4].copy_from_slice(&len.to_le_bytes());
            assert!(read_frame(&bad[..]).is_none(), "len {len}");
        }
    }
}
