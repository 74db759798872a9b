//! Traffic conservation: in a closed, fault-free ring run every sent byte
//! lands exactly once, *per link class*. World-wide, P2P send bytes equal
//! P2P receive bytes and collective send bytes equal collective receive
//! bytes — receives are charged at delivery with the sender's wire size and
//! class, so any double-charge, dropped charge, or class mix-up breaks the
//! equality. The property must hold on every transport: the in-process
//! proptest runs in tier-1, the TCP twin (tagged `#[ignore]`) runs over
//! real sockets in the transport-tcp CI job.

use proptest::prelude::*;
use wp_comm::{LinkModel, TransportKind, World};
use wp_tensor::DType;

/// Sum the world's per-class send and receive counters.
fn class_totals(meter: &wp_comm::TrafficMeter) -> (u64, u64, u64, u64) {
    let all = meter.all();
    (
        all.iter().map(|r| r.p2p_bytes).sum(),
        all.iter().map(|r| r.p2p_recv_bytes).sum(),
        all.iter().map(|r| r.collective_bytes).sum(),
        all.iter().map(|r| r.collective_recv_bytes).sum(),
    )
}

/// One conservation case: a mixed P2P/collective workload over the given
/// transport, then the world-wide per-class equalities — including the
/// split-receive accounting (`recv_bytes == p2p_recv + collective_recv`
/// on every rank).
fn check_conservation(kind: TransportKind, p: usize, n: usize, rounds: usize) {
    let (_, meter) = World::builder(p)
        .link(LinkModel::instant())
        .transport(kind)
        .run(move |mut c| {
            let me = c.rank() as f32;
            for round in 0..rounds {
                // P2P: circulate a weight-sized buffer around the ring (the
                // WeiPipe primitive), in a mix of wire dtypes.
                let dtype = if round % 2 == 0 {
                    DType::F32
                } else {
                    DType::F16
                };
                let buf = vec![me + round as f32; n];
                c.send(c.next_rank(), round as u64, &buf, dtype).unwrap();
                let _ = c.recv(c.prev_rank(), round as u64).unwrap();

                // Collectives: all-reduce a gradient-sized buffer and gather
                // a shard, exercising both collective shapes.
                let mut grad = vec![me * 0.5; n];
                c.all_reduce_sum(&mut grad, DType::F32).unwrap();
                let _ = c.all_gather(&[me], DType::F32).unwrap();
            }
            c.barrier().unwrap();
        });

    let (p2p_sent, p2p_recvd, coll_sent, coll_recvd) = class_totals(&meter);
    assert!(p2p_sent > 0, "{kind:?}: run must exercise p2p traffic");
    assert!(
        coll_sent > 0,
        "{kind:?}: run must exercise collective traffic"
    );
    assert_eq!(
        p2p_sent, p2p_recvd,
        "{kind:?}: p2p bytes must be conserved across the world"
    );
    assert_eq!(
        coll_sent, coll_recvd,
        "{kind:?}: collective bytes must be conserved across the world"
    );
    // The combined counters agree with the class split.
    let all = meter.all();
    for r in &all {
        assert_eq!(r.recv_bytes, r.p2p_recv_bytes + r.collective_recv_bytes);
    }
    assert_eq!(meter.total_bytes(), meter.total_recv_bytes());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn sent_bytes_equal_received_bytes_per_class(
        p in 2usize..6,
        n in 1usize..64,
        rounds in 1usize..4,
    ) {
        check_conservation(TransportKind::InProcess, p, n, rounds);
    }
}

proptest! {
    // Fewer cases and smaller worlds than the in-process twin: each case
    // stands up a real socket mesh with per-peer reader threads.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    #[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
    fn sent_bytes_equal_received_bytes_per_class_over_tcp(
        p in 2usize..5,
        n in 1usize..64,
        rounds in 1usize..4,
    ) {
        check_conservation(TransportKind::TcpLocalhost, p, n, rounds);
    }
}

#[test]
fn point_to_point_send_recv_conserves_bytes() {
    // Minimal closed exchange: rank 0 -> 1 and 1 -> 0 with different sizes.
    let (_, meter) = World::run(2, LinkModel::instant(), |mut c| {
        if c.rank() == 0 {
            c.send(1, 7, &[1.0; 10], DType::F32).unwrap();
            let _ = c.recv(1, 9).unwrap();
        } else {
            let _ = c.recv(0, 7).unwrap();
            c.send(0, 9, &[2.0; 3], DType::F16).unwrap();
        }
        c.barrier().unwrap();
    });
    let (p2p_sent, p2p_recvd, _, _) = class_totals(&meter);
    assert_eq!(p2p_sent, 10 * 4 + 3 * 2);
    assert_eq!(p2p_sent, p2p_recvd);
    // The split lands on the right ranks: rank 1 received the 40-byte f32
    // message, rank 0 the 6-byte f16 reply.
    assert_eq!(meter.rank(1).p2p_recv_bytes, 40);
    assert_eq!(meter.rank(0).p2p_recv_bytes, 6);
}
