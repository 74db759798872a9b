//! Receives that land in the caller's buffer (`recv_into`): over both
//! transports a payload that replaces a buffer or is added into one carries
//! the bits `recv` returns, whether its frame was matched on arrival or
//! parked in the reorder buffer first, and a corrupt frame fails the
//! receive without touching the buffer.

use std::time::Duration;
use wp_comm::{CommConfig, CommError, FaultPlan, Landing, TransportKind, World};
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
