//! The overlapped weight ring (§4.3) is a pure scheduling change: it moves
//! *where* receives and relays sit in a rank's stream, never *what* is
//! sent. These tests pin that down as bit-identity — the overlapped and
//! blocking rings must compute the exact same floats, and both must match
//! the single-process reference within reduction tolerance.

use weipipe::{run_distributed, run_single, Strategy, TrainSetup};

#[test]
fn overlap_is_bit_identical_to_blocking_across_variants_and_sizes() {
    for strat in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
        for (p, layers, n) in [(2usize, 2usize, 4usize), (4, 4, 8)] {
            let setup = TrainSetup::tiny(layers, n);
            let overlapped = run_distributed(strat, p, &setup.clone().with_overlap(true))
                .unwrap_or_else(|e| panic!("{strat:?} P={p} overlapped: {e:?}"));
            let blocking = run_distributed(strat, p, &setup.clone().with_overlap(false))
                .unwrap_or_else(|e| panic!("{strat:?} P={p} blocking: {e:?}"));
            assert!(
                overlapped.bit_identical(&blocking),
                "{strat:?} P={p}: overlap changed the losses or weights"
            );

            let reference = run_single(&setup);
            let dl = overlapped.max_loss_diff(&reference);
            let dp = overlapped.max_param_diff(&reference);
            assert!(dl < 2e-4, "{strat:?} P={p}: loss diff {dl} vs reference");
            assert!(dp < 2e-3, "{strat:?} P={p}: param diff {dp} vs reference");
        }
    }
}

#[test]
fn overlap_preserves_traffic_volume() {
    // Same messages on the wire either way: total bytes must be identical.
    let setup = TrainSetup::tiny(4, 8);
    let overlapped = run_distributed(
        Strategy::WeiPipeInterleave,
        4,
        &setup.clone().with_overlap(true),
    )
    .expect("overlapped");
    let blocking = run_distributed(Strategy::WeiPipeInterleave, 4, &setup.with_overlap(false))
        .expect("blocking");
    assert_eq!(overlapped.bytes_sent, blocking.bytes_sent);
}
