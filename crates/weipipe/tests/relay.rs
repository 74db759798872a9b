//! Ring weights relay as received: a `Send` of a weight chunk unchanged
//! since it arrived ships the frame it came in instead of packing the
//! chunk anew. These tests pin how many of a rank's sends that is, and
//! how many 16-bit wire buffers the rank's pool allocates while the ring
//! recycles them.

use weipipe::interp::RankRuntime;
use weipipe::{build_schedule, Strategy, TrainSetup};
use wp_comm::TransportKind;
use wp_metrics::{Counter, MetricsRegistry, RankSnapshot};
use wp_tensor::DType;

/// Two counts of one rank, as `read` takes them from its metrics.
type Counts = (u64, u64);

/// Per rank and per step of three, how much `read`'s counts grew in the
/// `(iteration, reseed after it)` of `strategy` at `p` ranks, 4 layers and
/// 8 microbatches over an f16 wire and `kind`.
fn counted_per_step(
    strategy: Strategy,
    p: usize,
    kind: TransportKind,
    read: impl Fn(&RankSnapshot) -> Counts + Sync,
) -> Vec<Vec<(Counts, Counts)>> {
    let mut setup = TrainSetup::tiny(4, 8);
    setup.wire = DType::F16;
    let schedule = build_schedule(strategy, p, &setup);
    let world = wp_comm::World::builder(p)
        .link(setup.link)
        .transport(kind)
        .metrics(MetricsRegistry::new(p));
    let (per_rank, _) = world.run(|comm| {
        let (rank, registry) = (comm.rank(), comm.probe().registry());
        let mut last = (0, 0);
        let mut since_last = || {
            let now = read(&registry.snapshot_rank(rank));
            let delta = (now.0 - last.0, now.1 - last.1);
            last = now;
            delta
        };
        let mut rt = RankRuntime::new(&setup, &schedule, comm);
        (0..3)
            .map(|iter| {
                rt.run_iteration(&schedule, iter).expect("healthy world");
                let iteration = since_last();
                rt.reseed_bwd_flow(&schedule, iter).expect("healthy world");
                (iteration, since_last())
            })
            .collect()
    });
    per_rank
}

/// `(sent, relayed)` point-to-point messages per step, in process.
fn sends_per_step(strategy: Strategy, p: usize) -> Vec<Vec<(Counts, Counts)>> {
    counted_per_step(strategy, p, TransportKind::InProcess, |snap| {
        (
            snap.counter(Counter::P2pMsgsSent),
            snap.counter(Counter::P2pMsgsRelayed),
        )
    })
}

/// `(wire buffers allocated, frames sent and received)` per step of
/// WeiPipe-Interleave, every frame a 16-bit one.
fn allocations_per_step(p: usize, kind: TransportKind) -> Vec<Vec<(Counts, Counts)>> {
    counted_per_step(Strategy::WeiPipeInterleave, p, kind, |snap| {
        let frames = [
            Counter::P2pMsgsSent,
            Counter::CollMsgsSent,
            Counter::MsgsRecv,
        ];
        (
            snap.counter(Counter::WireBuffersAllocated),
            frames.into_iter().map(|c| snap.counter(c)).sum(),
        )
    })
}

/// WeiPipe-Interleave relays every weight send but the chunk each rank
/// starts a flow with: at P = 2, 18 of iteration 0's 31 sends, then 19 of
/// 32 per step once the backward-flow seed, received at the reseed, is
/// relayed at turn 0 too. The reseed itself ships freshly stepped weights,
/// so it packs.
#[test]
fn interleave_relays_every_weight_send_but_each_flows_first() {
    for (p, sent, relayed) in [(2, 31, 19), (4, 41, 25)] {
        for (rank, steps) in sends_per_step(Strategy::WeiPipeInterleave, p)
            .into_iter()
            .enumerate()
        {
            let want: Vec<(Counts, Counts)> = (0..3)
                .map(|iter| ((sent, relayed - u64::from(iter == 0)), (1, 0)))
                .collect();
            assert_eq!(steps, want, "P={p} rank {rank}");
        }
    }
}

/// Schedules whose weights stay resident or move by collective relay
/// nothing.
#[test]
fn schedules_without_a_weight_ring_relay_nothing() {
    for strategy in [Strategy::Zb1, Strategy::Fsdp, Strategy::Ddp] {
        for steps in sends_per_step(strategy, 2) {
            for (iteration, reseed) in steps {
                assert_eq!((iteration.1, reseed), (0, (0, 0)), "{strategy:?}");
            }
        }
    }
}

/// In process every take and give of a rank's pool runs on the rank's
/// thread, so the count is exact. Iteration 0 fills the pool; after it, a
/// step allocates a few buffers on every rank and no reseed allocates.
/// Each is an all-reduce segment of the replicated embedding or head whose
/// length no idle buffer matches: a pool of P buffers keeps the ring's
/// chunk-sized ones and, at P = 4, a segment beside them.
#[test]
fn in_process_a_warm_pool_allocates_a_pinned_few_buffers_per_step() {
    for (p, want) in [(2, [7, 4, 4]), (4, [5, 7, 6])] {
        for (rank, steps) in allocations_per_step(p, TransportKind::InProcess)
            .into_iter()
            .enumerate()
        {
            let allocated: Vec<(u64, u64)> = steps
                .iter()
                .map(|((iteration, _), (reseed, _))| (*iteration, *reseed))
                .collect();
            let want: Vec<(u64, u64)> = want.iter().map(|&n| (n, 0)).collect();
            assert_eq!(allocated, want, "P={p} rank {rank}");
        }
    }
}

/// Over TCP a rank's reader threads take from its pool as frames arrive,
/// so the count varies with timing. But a relayed frame ships the buffer it
/// arrived in and takes none, so however the readers are timed a warm step
/// allocates fewer buffers than the frames the rank sends and receives,
/// where each of them used to allocate one.
#[test]
fn over_tcp_a_warm_pool_allocates_fewer_buffers_than_frames() {
    for p in [2, 4] {
        for (rank, steps) in allocations_per_step(p, TransportKind::TcpLocalhost)
            .into_iter()
            .enumerate()
        {
            for (iter, ((a, f), (ra, rf))) in steps.into_iter().enumerate().skip(1) {
                let (allocated, frames) = (a + ra, f + rf);
                assert!(
                    allocated < frames,
                    "P={p} rank {rank} step {iter}: {allocated} buffers for {frames} frames"
                );
            }
        }
    }
}
