//! Chaos tests for distributed *training*: the fault classes of
//! `wp_comm::FaultPlan`, driven through the full training stack.
//!
//! Two claims are proven here:
//!
//! 1. **Equivalence under benign chaos** — delay/reorder-only plans are
//!    invisible to training. Every runtime strategy must reach the same
//!    weights as the single-process reference, and *bit-identical* weights
//!    to its own fault-free distributed run, no matter how the ring's
//!    deliveries are jittered and swapped.
//! 2. **Typed failure under destructive chaos** — a dead rank or corrupted
//!    payload terminates every rank with a `CommError` naming the culprit,
//!    within the configured receive budget. No hangs, no poisoned weights
//!    silently returned.

use std::time::{Duration, Instant};
use weipipe::{
    run_distributed, run_distributed_per_rank, run_single, runtime_strategies, Strategy, TrainSetup,
};
use wp_comm::{CommConfig, CommError, FaultPlan};

/// A delay/reorder-only plan: the class under which training results must
/// not change at all.
fn benign_plan(seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed)
        .with_delay_jitter(Duration::from_micros(60))
        .with_reorder(0.3);
    assert!(plan.is_delay_only(), "benign plan must stay delay-only");
    plan
}

/// A short fail-fast policy for tests that expect errors.
fn fast() -> CommConfig {
    CommConfig::fail_fast(Duration::from_millis(250))
}

#[test]
fn every_strategy_survives_benign_chaos_and_matches_reference() {
    let clean = TrainSetup::tiny(2, 4);
    let reference = run_single(&clean);
    for strategy in runtime_strategies() {
        let mut setup = clean.clone();
        setup.faults = Some(benign_plan(0xC0A0 + strategy as u64));
        let out = run_distributed(strategy, 2, &setup)
            .unwrap_or_else(|e| panic!("{strategy:?} under benign chaos: {e:?}"));
        let dl = out.max_loss_diff(&reference);
        let dp = out.max_param_diff(&reference);
        assert!(
            dl <= 2e-4,
            "{strategy:?}: loss diff {dl} under delay/reorder chaos"
        );
        assert!(
            dp <= 2e-3,
            "{strategy:?}: param diff {dp} under delay/reorder chaos"
        );
    }
}

#[test]
fn benign_chaos_is_bitwise_invisible_to_the_faulty_strategy_run() {
    // Stronger than tolerance-equivalence: tag matching means a jittered,
    // reordered world computes the *identical* floats as a healthy one.
    let clean = TrainSetup::tiny(4, 8);
    for strategy in [
        Strategy::WeiPipeInterleave,
        Strategy::Fsdp,
        Strategy::OneFOneB,
    ] {
        let healthy = run_distributed(strategy, 4, &clean).expect("healthy world");
        for seed in [1u64, 9090] {
            let mut setup = clean.clone();
            setup.faults = Some(benign_plan(seed));
            let faulty = run_distributed(strategy, 4, &setup).expect("benign chaos");
            assert!(
                faulty.bit_identical(&healthy),
                "{strategy:?} seed={seed}: delay-only chaos changed the losses or weights"
            );
        }
    }
}

#[test]
fn stalled_link_slows_but_does_not_change_weipipe_training() {
    let clean = TrainSetup::tiny(2, 4);
    let healthy = run_distributed(Strategy::WeiPipeInterleave, 2, &clean).expect("healthy");
    let mut setup = clean;
    // Brown out the 0→1 link for its first 6 messages.
    setup.faults = Some(FaultPlan::new(17).with_stall(0, 1, 0, 6, Duration::from_millis(5)));
    let stalled = run_distributed(Strategy::WeiPipeInterleave, 2, &setup).expect("stall");
    assert!(
        stalled.bit_identical(&healthy),
        "stall changed the training result"
    );
}

#[test]
fn dead_rank_mid_training_fails_every_rank_with_typed_error() {
    let p = 4;
    let victim = 2;
    let mut setup = TrainSetup::tiny(4, 8);
    // Die mid-iteration, after a handful of ring hops.
    setup.faults = Some(FaultPlan::new(23).with_dead_rank(victim, 8));
    setup.comm = fast();
    let budget = setup.comm.recv_timeout + Duration::from_secs(2);
    let started = Instant::now();
    let results = run_distributed_per_rank(Strategy::WeiPipeInterleave, p, &setup);
    let elapsed = started.elapsed();
    assert!(
        elapsed < budget,
        "training must tear down within the receive budget ({budget:?}), took {elapsed:?}"
    );
    assert_eq!(results.len(), p);
    for (rank, r) in results.iter().enumerate() {
        match r {
            Err(CommError::PeerDead { rank: dead }) => {
                assert_eq!(*dead, victim, "rank {rank} must learn who died");
            }
            Err(CommError::Aborted { origin, .. }) => {
                assert_eq!(*origin, victim, "rank {rank} abort must name the victim");
            }
            other => {
                panic!("rank {rank}: expected PeerDead/Aborted naming rank {victim}, got {other:?}")
            }
        }
    }
}

#[test]
fn dead_rank_fails_every_runtime_strategy_not_just_weipipe() {
    // The watchdog lives below the strategy interpreters; collectives and
    // p2p pipelines alike must surface the death.
    let mut setup = TrainSetup::tiny(2, 4);
    setup.faults = Some(FaultPlan::new(5).with_dead_rank(1, 4));
    setup.comm = fast();
    for strategy in runtime_strategies() {
        let err =
            run_distributed(strategy, 2, &setup).expect_err("a dead rank must fail the whole run");
        match err {
            CommError::PeerDead { rank } => assert_eq!(rank, 1, "{strategy:?}"),
            CommError::Aborted { origin, .. } => assert_eq!(origin, 1, "{strategy:?}"),
            other => panic!("{strategy:?}: expected PeerDead/Aborted, got {other:?}"),
        }
    }
}

#[test]
fn corrupted_weight_chunk_is_detected_not_trained_on() {
    // Flip a bit in an early message on the 0→1 ring link: some rank must
    // report Corrupt (the detector) and no rank may return Ok.
    let mut setup = TrainSetup::tiny(2, 4);
    setup.faults = Some(FaultPlan::new(31).with_corruption(0, 1, 1));
    setup.comm = fast();
    let results = run_distributed_per_rank(Strategy::WeiPipeInterleave, 2, &setup);
    assert!(
        results.iter().all(|r| r.is_err()),
        "no rank may trust a corrupted run"
    );
    let detected = results
        .iter()
        .any(|r| matches!(r, Err(CommError::Corrupt { src, .. }) if *src == 0));
    assert!(
        detected,
        "the receiver must detect the checksum mismatch: {results:?}"
    );
}

#[test]
fn destructive_chaos_parity_between_overlapped_and_blocking_rings() {
    // A rank dies while the double-buffered ring has pre-posted requests
    // outstanding: every rank must surface the same typed error the
    // blocking ring produces, within the receive budget — no hangs, no
    // request left dangling.
    let victim = 2;
    for overlap in [true, false] {
        let mut setup = TrainSetup::tiny(4, 8).with_overlap(overlap);
        setup.faults = Some(FaultPlan::new(23).with_dead_rank(victim, 8));
        setup.comm = fast();
        let budget = setup.comm.recv_timeout + Duration::from_secs(2);
        let started = Instant::now();
        let results = run_distributed_per_rank(Strategy::WeiPipeInterleave, 4, &setup);
        let elapsed = started.elapsed();
        assert!(
            elapsed < budget,
            "overlap={overlap}: tear-down took {elapsed:?}"
        );
        for (rank, r) in results.iter().enumerate() {
            match r {
                Err(CommError::PeerDead { rank: dead }) => assert_eq!(*dead, victim),
                Err(CommError::Aborted { origin, .. }) => assert_eq!(*origin, victim),
                other => panic!("overlap={overlap} rank {rank}: got {other:?}"),
            }
        }
    }
}

#[test]
fn corruption_is_detected_by_both_ring_modes() {
    for overlap in [true, false] {
        let mut setup = TrainSetup::tiny(2, 4).with_overlap(overlap);
        setup.faults = Some(FaultPlan::new(31).with_corruption(0, 1, 1));
        setup.comm = fast();
        let results = run_distributed_per_rank(Strategy::WeiPipeInterleave, 2, &setup);
        assert!(
            results.iter().all(|r| r.is_err()),
            "overlap={overlap}: no rank may trust a corrupted run"
        );
        let detected = results
            .iter()
            .any(|r| matches!(r, Err(CommError::Corrupt { src, .. }) if *src == 0));
        assert!(
            detected,
            "overlap={overlap}: checksum mismatch undetected: {results:?}"
        );
    }
}

#[test]
fn chaos_outcome_is_deterministic_per_seed() {
    // Same destructive plan, run twice: byte-identical error surface.
    let mut setup = TrainSetup::tiny(2, 4);
    setup.faults = Some(FaultPlan::new(77).with_dead_rank(0, 6));
    setup.comm = fast();
    let fmt = |rs: &[Result<weipipe::RunOutput, CommError>]| -> Vec<String> {
        rs.iter()
            .map(|r| format!("{:?}", r.as_ref().map(|_| ())))
            .collect()
    };
    let a = fmt(&run_distributed_per_rank(Strategy::WeiPipeNaive, 2, &setup));
    let b = fmt(&run_distributed_per_rank(Strategy::WeiPipeNaive, 2, &setup));
    assert_eq!(
        a, b,
        "same seed must produce the same per-rank error surface"
    );
}
