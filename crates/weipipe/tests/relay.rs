//! Ring weights relay as received: a `Send` of a weight chunk unchanged
//! since it arrived ships the frame it came in instead of packing the
//! chunk anew. These tests pin how many of a rank's sends that is.

use weipipe::interp::RankRuntime;
use weipipe::{build_schedule, Strategy, TrainSetup};
use wp_metrics::Counter;
use wp_tensor::DType;

/// `(sent, relayed)` point-to-point messages.
type Sends = (u64, u64);

/// Per rank and per step of three, the `(iteration, reseed after it)` sends
/// of `strategy` at `p` ranks, 4 layers and 8 microbatches over an f16
/// wire.
fn sends_per_step(strategy: Strategy, p: usize) -> Vec<Vec<(Sends, Sends)>> {
    let mut setup = TrainSetup::tiny(4, 8);
    setup.wire = DType::F16;
    let schedule = build_schedule(strategy, p, &setup);
    let (per_rank, _) = wp_comm::World::run(p, setup.link, |comm| {
        let (rank, registry) = (comm.rank(), comm.probe().registry());
        let mut last = (0, 0);
        let mut since_last = || {
            let snap = registry.snapshot_rank(rank);
            let now = (
                snap.counter(Counter::P2pMsgsSent),
                snap.counter(Counter::P2pMsgsRelayed),
            );
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
            let want: Vec<(Sends, Sends)> = (0..3)
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
