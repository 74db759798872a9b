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
//!   the payload's `n` wire bytes — [`Payload::as_bytes`], one bulk copy on
//!   each side of the socket, so a 16-bit frame costs two bytes per element
//!   here exactly as it does on the meter. With the length prefix and kind
//!   byte that is [`DATA_HEADER_LEN`] bytes ahead of every payload. The
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
pub(super) const KIND_DATA: u8 = 1;
pub(super) const KIND_ABORT: u8 = 2;
pub(super) const KIND_GOODBYE: u8 = 3;
/// Upper bound on one frame's encoded size; anything larger is a framing
/// error (a desynchronised or hostile stream), treated as an unclean close.
pub(super) const MAX_FRAME: u32 = 1 << 30;
/// The whole GOODBYE wire frame: length 1, the kind byte, no body.
pub(super) const GOODBYE_FRAME: [u8; 5] = [1, 0, 0, 0, KIND_GOODBYE];

/// Bytes a DATA frame puts on a stream ahead of its payload: the length
/// prefix, the kind byte and the fixed fields listed in the module docs.
pub const DATA_HEADER_LEN: usize = 4 + 1 + 8 + 8 + 1 + 8 + 8 + 1 + 4;

const FLAG_COLLECTIVE: u8 = 1 << 0;
const FLAG_HAS_DELAY: u8 = 1 << 1;

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

/// Serialize `frame` as a DATA wire frame (including the length prefix).
/// `delay` is the remaining link-model delivery delay at the moment the
/// frame hits the wire.
pub(super) fn encode_data(frame: &Frame, delay: Option<Duration>, buf: &mut Vec<u8>) {
    let payload = frame.payload.as_bytes();
    buf.clear();
    put_u32(buf, (DATA_HEADER_LEN - 4 + payload.len()) as u32);
    buf.push(KIND_DATA);
    put_u64(buf, frame.tag);
    put_u64(buf, frame.checksum);
    let mut flags = 0u8;
    if frame.collective {
        flags |= FLAG_COLLECTIVE;
    }
    if delay.is_some() {
        flags |= FLAG_HAS_DELAY;
    }
    buf.push(flags);
    put_u64(buf, delay.map_or(0, |d| d.as_nanos() as u64));
    put_u64(buf, frame.epoch);
    buf.push(match frame.payload.dtype() {
        DType::F32 => 0,
        DType::F16 => 1,
        DType::BF16 => 2,
    });
    put_u32(buf, payload.len() as u32);
    debug_assert_eq!(buf.len(), DATA_HEADER_LEN);
    buf.extend_from_slice(payload);
}

/// Parse a DATA body (everything after the kind byte). The delivery
/// deadline is re-anchored to this process's clock. `None` for a body that
/// is cut short, names an unknown dtype, or counts a payload that overruns
/// the body or is not a whole number of elements — checked before anything
/// is allocated for it.
pub(super) fn decode_data(body: &[u8]) -> Option<Frame> {
    let mut c = Cursor::new(body);
    let tag = c.u64()?;
    let checksum = c.u64()?;
    let flags = c.u8()?;
    let delay_ns = c.u64()?;
    let epoch = c.u64()?;
    let dtype = match c.u8()? {
        0 => DType::F32,
        1 => DType::F16,
        2 => DType::BF16,
        _ => return None,
    };
    let n = c.u32()? as usize;
    let raw = c.bytes(n)?;
    let mut payload = Payload::zeroed(dtype, n)?;
    payload.as_bytes_mut().copy_from_slice(raw);
    let deliver_at =
        (flags & FLAG_HAS_DELAY != 0).then(|| Instant::now() + Duration::from_nanos(delay_ns));
    Some(Frame {
        tag,
        payload,
        deliver_at,
        checksum,
        collective: flags & FLAG_COLLECTIVE != 0,
        epoch,
    })
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

/// Serialize an ABORT wire frame (including the length prefix): the rank
/// whose failure poisoned the world, then the failure itself.
pub(super) fn encode_abort(origin: usize, err: &CommError, buf: &mut Vec<u8>) {
    buf.clear();
    put_u32(buf, 0); // length back-patched below
    buf.push(KIND_ABORT);
    put_u32(buf, origin as u32);
    encode_err(err, buf);
    let len = (buf.len() - 4) as u32;
    buf[0..4].copy_from_slice(&len.to_le_bytes());
}

/// Parse an ABORT body (everything after the kind byte) into the origin
/// rank and its failure.
pub(super) fn decode_abort(body: &[u8]) -> Option<(usize, CommError)> {
    let mut c = Cursor::new(body);
    Some((c.u32()? as usize, decode_err(&mut c)?))
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

    #[test]
    fn data_frame_round_trips() {
        for payload in payloads() {
            let mut f = frame_of(42, payload);
            f.collective = true;
            f.epoch = 3;
            let mut buf = Vec::new();
            encode_data(&f, None, &mut buf);
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
            let g = decode_data(&buf[5..]).expect("well-formed frame");
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
        let f = frame(0, vec![]);
        let mut buf = Vec::new();
        encode_data(&f, Some(Duration::from_millis(5)), &mut buf);
        let g = decode_data(&buf[5..]).unwrap();
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
            let mut buf = Vec::new();
            encode_abort(7, &e, &mut buf);
            assert_eq!(
                u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize,
                buf.len() - 4
            );
            assert_eq!(buf[4], KIND_ABORT);
            let got = decode_abort(&buf[5..]).expect("decodable");
            assert_eq!(got, (7, e));
        }
    }

    #[test]
    fn truncated_frames_decode_as_none() {
        for payload in payloads() {
            let f = frame_of(1, payload);
            let mut buf = Vec::new();
            encode_data(&f, None, &mut buf);
            for cut in 5..buf.len() {
                assert!(decode_data(&buf[5..cut]).is_none(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn malformed_payload_headers_decode_as_none() {
        // Offsets of the dtype byte and the byte count inside an encoded
        // frame: the last five header bytes.
        const DTYPE_AT: usize = DATA_HEADER_LEN - 5;
        const COUNT_AT: usize = DATA_HEADER_LEN - 4;
        let mut buf = Vec::new();
        encode_data(
            &frame_of(1, Payload::pack(&[1.0, 2.0, 3.0], DType::F16)),
            None,
            &mut buf,
        );
        assert!(decode_data(&buf[5..]).is_some());
        let with = |at: usize, bytes: &[u8]| {
            let mut bad = buf.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            bad
        };
        for unknown in [3u8, 0xff] {
            assert!(decode_data(&with(DTYPE_AT, &[unknown])[5..]).is_none());
        }
        // Six payload bytes are not a whole number of f32s, and five are not
        // a whole number of f16s.
        assert!(decode_data(&with(DTYPE_AT, &[0])[5..]).is_none());
        assert!(decode_data(&with(COUNT_AT, &5u32.to_le_bytes())[5..]).is_none());
        // A count past the end of the body, by one element and by 4 GiB.
        for overrun in [8u32, u32::MAX - 1] {
            assert!(decode_data(&with(COUNT_AT, &overrun.to_le_bytes())[5..]).is_none());
        }
    }
}
