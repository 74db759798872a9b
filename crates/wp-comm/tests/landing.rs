//! Receives that land in the caller's buffer (`recv_into`): over both
//! transports a payload that replaces a buffer or is added into one carries
//! the bits `recv` returns, whether its frame was matched on arrival or
//! parked in the reorder buffer first, and a corrupt frame fails the
//! receive without touching the buffer. Packing what a frame unpacks to
//! gives the frame back, on every frame a sender can produce, so a frame
//! relayed as it arrived (`send_wire`) is the frame a re-pack would send;
//! a frame kept unlanded relays unchanged.

use std::time::Duration;
use wp_comm::{CommConfig, CommError, FaultPlan, Landing, Payload, TransportKind, World};
use wp_metrics::Counter;
use wp_tensor::ops::gemm::{force_isa, offered_isas};
use wp_tensor::DType;

const KINDS: [TransportKind; 2] = [TransportKind::InProcess, TransportKind::TcpLocalhost];
const WIRES: [DType; 3] = [DType::F32, DType::F16, DType::BF16];

fn payload(n: usize, salt: f32) -> Vec<f32> {
    (0..n)
        .map(|i| ((i as f32 + salt) * 0.173).sin() * 300.0)
        .collect()
}

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|x| x.to_bits()).collect()
}

/// Rank 0 sends tags 1, 2, 3 in that order; rank 1 receives 3 first (1
/// and 2 park), then 2 into a buffer it replaces, then 1 added into an
/// accumulator, and returns the three results.
#[test]
fn parked_frames_land_the_bits_a_plain_receive_returns() {
    let n = 2500;
    let acc0 = payload(n, 7.0);
    for kind in KINDS {
        for wire in WIRES {
            let sent = [payload(n, 0.0), payload(n, 1.0), payload(n, 2.0)];
            let (outs, _) = World::builder(2).transport(kind).run(|mut c| {
                if c.rank() == 0 {
                    for (tag, data) in (1..).zip(&sent) {
                        c.send(1, tag, data, wire).unwrap();
                    }
                    return Vec::new();
                }
                let third = c.recv(0, 3).unwrap();
                let mut second = vec![9.0; 17];
                c.recv_into(0, 2, Landing::Replace(&mut second)).unwrap();
                let mut first = acc0.clone();
                c.recv_into(0, 1, Landing::Add(&mut first)).unwrap();
                vec![first, second, third]
            });
            let at = format!("{kind:?} {wire}");
            let wire_values = |data: &[f32]| {
                let mut q = data.to_vec();
                wp_tensor::dtype::quantize_slice(&mut q, wire);
                q
            };
            let mut want_first = acc0.clone();
            for (a, x) in want_first.iter_mut().zip(wire_values(&sent[0])) {
                *a += x;
            }
            assert_eq!(bits(&outs[1][0]), bits(&want_first), "{at}: added");
            assert_eq!(
                bits(&outs[1][1]),
                bits(&wire_values(&sent[1])),
                "{at}: replaced"
            );
            assert_eq!(
                bits(&outs[1][2]),
                bits(&wire_values(&sent[2])),
                "{at}: returned"
            );
        }
    }
}

/// A frame corrupted on the wire fails the receive that would land it with
/// `Corrupt`, and the accumulator keeps its bits.
#[test]
fn a_corrupt_frame_leaves_the_accumulator_untouched() {
    for kind in KINDS {
        for wire in WIRES {
            let acc0 = payload(64, 3.0);
            let plan = FaultPlan::new(5).with_corruption(0, 1, 0);
            let cfg = CommConfig::fail_fast(Duration::from_secs(2));
            let (results, _) = World::builder(2)
                .config(cfg)
                .transport(kind)
                .faults(plan)
                .try_run(|mut c| {
                    if c.rank() == 0 {
                        c.send(1, 4, &payload(64, 0.0), wire)?;
                        return Ok(Vec::new());
                    }
                    let mut acc = acc0.clone();
                    let err = c.recv_into(0, 4, Landing::Add(&mut acc)).unwrap_err();
                    assert_eq!(
                        err,
                        CommError::Corrupt { src: 0, tag: 4 },
                        "{kind:?} {wire}"
                    );
                    Ok(acc)
                });
            let acc = results[1].as_ref().expect("rank 1 returns its accumulator");
            assert_eq!(bits(acc), bits(&acc0), "{kind:?} {wire}");
        }
    }
}

/// A 16-bit pattern that is a signalling NaN in `dtype`: exponent all
/// ones, mantissa non-zero, quiet bit clear.
fn signalling_nan(dtype: DType, bits: u16) -> bool {
    let (exponent, mantissa, quiet) = match dtype {
        DType::F16 => (0x7c00, 0x03ff, 0x0200),
        _ => (0x7f80, 0x007f, 0x0040),
    };
    bits & exponent == exponent && bits & mantissa != 0 && bits & quiet == 0
}

/// Re-packing the values a frame lands is the frame again, byte for byte
/// and checksum for checksum, so a relay may ship a received frame as it
/// arrived instead of packing its landed values anew. The property holds on
/// `pack`'s image, which is every frame a sender produces, not on every bit
/// pattern: `pack` quiets a signalling NaN, so such a pattern `p` comes back
/// as another one, and for bf16 (whose widening keeps a signalling NaN)
/// even `unpack(p)` differs from `unpack(q)`. So over all 65 536 patterns
/// `p` and every instantiation the host offers, `q = pack(unpack(p))` is a
/// fixed point, and `q == p` except on exactly the signalling NaNs.
#[test]
fn packing_what_a_frame_unpacks_to_gives_the_frame_back() {
    let every: Vec<u16> = (0..=u16::MAX).collect();
    for isa in offered_isas() {
        force_isa(isa, || {
            for (dtype, p) in [
                (DType::F16, Payload::F16(every.clone())),
                (DType::BF16, Payload::BF16(every.clone())),
            ] {
                let at = format!("{isa:?} {dtype}");
                let (q, _) = Payload::pack(&p.clone().unpack(), dtype);
                let (again, sum) = Payload::pack(&q.clone().unpack(), dtype);
                assert!(again == q, "{at}: pack(unpack(q)) != q");
                assert_eq!(sum, q.checksum(), "{at}: checksum");
                let (p, q) = (p.as_bytes(), q.as_bytes());
                for (i, &bits) in every.iter().enumerate() {
                    let moved = p[2 * i..2 * i + 2] != q[2 * i..2 * i + 2];
                    assert_eq!(moved, signalling_nan(dtype, bits), "{at} {bits:#06x}");
                }
            }
        });
    }
}

/// Rank 0 sends values with every awkward class (signed zeros, infinities,
/// f32 and 16-bit subnormals, quiet NaNs with payloads) to rank 1, which
/// lands them in a slot and relays the frame they came in to rank 2. The
/// frame rank 2 receives carries exactly the bytes and the checksum
/// `Payload::pack` makes of the slot, and rank 1's relay is counted.
#[test]
fn a_relayed_frame_is_the_slot_packed_anew() {
    let mut sent = vec![
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1e-40,
        -1e-41,
        3e-6,
        -6e-8,
        1e-39,
        f32::NAN,
        -f32::NAN,
        f32::from_bits(0x7fc0_1234),
        f32::from_bits(0xffd5_5555),
        65504.0,
        -7e4,
    ];
    sent.extend(payload(2500, 4.0));
    for kind in KINDS {
        for wire in WIRES {
            let at = format!("{kind:?} {wire}");
            let (outs, _) = World::builder(3)
                .transport(kind)
                .run(|mut c| match c.rank() {
                    0 => {
                        c.send(1, 5, &sent, wire).unwrap();
                        None
                    }
                    1 => {
                        let mut slot = vec![1.0; 3];
                        let kept = c.recv_into(0, 5, Landing::Replace(&mut slot)).unwrap();
                        c.send_wire(2, 6, kept, &slot).unwrap();
                        let counted = c.probe().registry().snapshot_rank(1);
                        assert_eq!(counted.counter(Counter::P2pMsgsRelayed), 1, "{at}");
                        Some(Payload::pack(&slot, wire))
                    }
                    _ => {
                        let mut values = Vec::new();
                        let arrived = c.recv_into(1, 6, Landing::Replace(&mut values)).unwrap();
                        let payload = arrived.payload().cloned();
                        Some((payload.unwrap_or(Payload::F32(values)), arrived.checksum()))
                    }
                });
            let (want, want_sum) = outs[1].as_ref().expect("rank 1 packs its slot");
            let (got, got_sum) = outs[2].as_ref().expect("rank 2 returns the frame");
            assert_eq!(got.dtype(), wire, "{at}");
            assert!(got.as_bytes() == want.as_bytes(), "{at}: bytes");
            assert_eq!(got_sum, want_sum, "{at}: checksum");
            assert_eq!(got.checksum(), *want_sum, "{at}: checksum of the bytes");
        }
    }
}

/// A frame its landing keeps (`Landing::Keep`) is verified but never
/// widened: relayed with no values, it reaches the next rank as it was
/// packed, and the relay is charged the frame's wire bytes.
#[test]
fn a_kept_frame_relays_as_it_arrived() {
    let sent = payload(2500, 5.0);
    for kind in KINDS {
        for wire in WIRES {
            let at = format!("{kind:?} {wire}");
            let (outs, meter) = World::builder(3)
                .transport(kind)
                .run(|mut c| match c.rank() {
                    0 => {
                        c.send(1, 5, &sent, wire).unwrap();
                        None
                    }
                    1 => {
                        let kept = c.recv_into(0, 5, Landing::Keep).unwrap();
                        let held = kept.payload().map(|p| p.as_bytes().to_vec());
                        c.send_wire(2, 6, kept, &[]).unwrap();
                        held
                    }
                    _ => {
                        let arrived = c.recv_into(1, 6, Landing::Keep).unwrap();
                        arrived.payload().map(|p| p.as_bytes().to_vec())
                    }
                });
            let packed = Payload::pack(&sent, wire).0;
            for rank in [1, 2] {
                let held = outs[rank].as_deref().expect("a kept payload");
                assert!(held == packed.as_bytes(), "{at}: rank {rank}'s frame");
            }
            let wire_bytes = (sent.len() * wire.size_bytes()) as u64;
            assert_eq!(meter.rank(1).p2p_bytes, wire_bytes, "{at}");
        }
    }
}
