//! Elastic recovery conformance: a run that loses ranks mid-training must
//! shrink the ring, resume from the last common snapshot, and finish with a
//! trajectory *bit-identical* to a fresh run started from that snapshot on
//! the smaller world. Also covers the Candidate → TrainSetup API bridge.

use std::sync::Mutex;
use std::time::Duration;
use weipipe::{
    build_schedule, run_distributed, run_elastic, run_rank_elastic, run_single, CommConfig,
    ElasticOptions, FaultPlan, MetricsConfig, OptimKind, RunOutput, TraceConfig, TrainSetup,
    TrainState, TrainWorld, TransportKind,
};
use wp_metrics::{Counter, Hist};
use wp_sched::tune::{grid, Candidate, TuneSpace};
use wp_sched::Strategy;
use wp_sim::tune::DesOracle;
use wp_sim::{ClusterSpec, GpuSpec, ModelDims};

/// Train `setup` while capturing a snapshot every `every` iterations,
/// asserting the capture collective leaves every rank with bit-identical
/// state. Returns rank 0's output and snapshots.
fn run_with_checkpoints(
    strategy: Strategy,
    ranks: usize,
    setup: &TrainSetup,
    every: usize,
) -> (RunOutput, Vec<TrainState>) {
    let schedule = build_schedule(strategy, ranks, setup);
    let stores: Vec<Mutex<Vec<TrainState>>> = (0..ranks).map(|_| Mutex::new(Vec::new())).collect();
    let mut outs = TrainWorld::new(setup, ranks, 0).run(|comm| {
        let rank = comm.rank();
        run_rank_elastic(setup, &schedule, comm, None, every, |st| {
            stores[rank].lock().unwrap().push(st.clone());
        })
    });
    let out = outs.swap_remove(0).expect("healthy world must train");
    let snaps = stores[0].lock().unwrap().clone();
    for (r, s) in stores.iter().enumerate().skip(1) {
        assert_eq!(
            *s.lock().unwrap(),
            snaps,
            "rank {r} captured different snapshots than rank 0"
        );
    }
    (out, snaps)
}

/// Resuming on the *same* world from a mid-run snapshot replays the exact
/// trajectory, through a WPCKPT02 file round-trip.
fn assert_same_world_resume(strategy: Strategy, ranks: usize, base: &TrainSetup) {
    let (full, snaps) = run_with_checkpoints(strategy, ranks, base, 2);
    let snap = snaps
        .iter()
        .find(|s| s.next_iter == 2)
        .expect("snapshot after iteration 2")
        .clone();

    // File round-trip: the versioned full-state format loses nothing.
    let dir = std::env::temp_dir().join(format!("wp_elastic_{strategy:?}_{ranks}"));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("state.wpckpt");
    wp_nn::save_train_state(&path, &snap).expect("save snapshot");
    let loaded = wp_nn::load_train_state(&path).expect("load snapshot");
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(loaded, snap, "WPCKPT02 round-trip must be lossless");

    let mut resumed = base.clone().with_resume(loaded);
    resumed.iters = base.iters - resumed.start_iter();
    let out = run_distributed(strategy, ranks, &resumed).expect("resumed world must train");
    assert_eq!(
        out.losses,
        full.losses[2..],
        "{strategy:?} P={ranks}: resumed losses must be bit-identical"
    );
    assert_eq!(
        out.max_param_diff(&full),
        0.0,
        "{strategy:?} P={ranks}: resumed final weights must be bit-identical"
    );
}

#[test]
fn same_world_resume_is_bit_identical() {
    let mut s = TrainSetup::tiny(2, 4);
    s.iters = 4;
    s.optim = OptimKind::AdamW { lr: 0.01 };
    assert_same_world_resume(Strategy::WeiPipeInterleave, 2, &s);
    assert_same_world_resume(Strategy::Fsdp, 2, &s);
    s.recompute = true;
    assert_same_world_resume(Strategy::WeiPipeInterleave, 2, &s);
    assert_same_world_resume(Strategy::Fsdp, 2, &s);
    let mut sgd = TrainSetup::tiny(2, 4);
    sgd.iters = 4;
    assert_same_world_resume(Strategy::WeiPipeNaive, 2, &sgd);
}

/// An optimizer step count past 2²⁴ survives the capture collective exactly
/// on every rank: an f32 holds no odd integer up there, so a count shipped
/// as one float comes back rounded.
#[test]
fn step_counts_past_f32_exactness_survive_capture() {
    const T: u64 = (1 << 24) + 2;
    let mut base = TrainSetup::tiny(2, 4);
    base.iters = 2;
    base.optim = OptimKind::AdamW { lr: 0.01 };
    for strategy in [Strategy::WeiPipeInterleave, Strategy::Fsdp] {
        let (_, snaps) = run_with_checkpoints(strategy, 2, &base, 1);
        let mut snap = snaps[0].clone();
        for c in snap
            .blocks
            .iter_mut()
            .chain([&mut snap.embed, &mut snap.head])
        {
            c.opt_t = T;
        }
        // One iteration, one capture (asserted equal across ranks by the
        // helper), one more iteration.
        let mut resumed = base.clone().with_resume(snap);
        resumed.iters = 2;
        let (_, after) = run_with_checkpoints(strategy, 2, &resumed, 1);
        let stepped = &after[0];
        for c in stepped.blocks.iter().chain([&stepped.embed, &stepped.head]) {
            assert_eq!(c.opt_t, T + 1, "{strategy:?}: step count must be exact");
        }
    }
}

/// The shared 4 → 3 scenario: 12 layers / 12 microbatches so both world
/// sizes divide evenly, AdamW so optimizer moments actually matter.
fn shrink_setup() -> TrainSetup {
    let mut s = TrainSetup::tiny(12, 12);
    s.iters = 4;
    s.optim = OptimKind::AdamW { lr: 0.01 };
    s.comm = CommConfig::fail_fast(Duration::from_millis(400));
    s.metrics = MetricsConfig::on();
    s.trace = TraceConfig::on();
    s
}

/// Kill one rank mid-run, recover onto the shrunk world, and assert the
/// recovered trajectory is bit-identical to a fresh run started from the
/// recovery snapshot on the smaller world.
fn assert_shrink_recovers(setup: &TrainSetup, ranks: usize, plan: FaultPlan, survivors: &[usize]) {
    let strategy = Strategy::WeiPipeInterleave;
    let opts = ElasticOptions {
        checkpoint_every: 1,
        max_recoveries: 2,
        fault_plans: vec![Some(plan)],
    };
    let report = run_elastic(strategy, ranks, setup, &opts);
    assert!(report.completed(), "run must survive: {:?}", report.epochs);
    assert_eq!(report.recoveries, 1, "exactly one shrink");
    assert_eq!(
        report.epochs.len(),
        2,
        "one failed epoch, one that finished"
    );
    let last = report.epochs.last().unwrap();
    assert_eq!(
        last.membership.members, survivors,
        "survivors keep their order under contiguous renumbering"
    );
    let resumed_from = last
        .resumed_from
        .expect("recovery must anchor on a snapshot");
    assert!(
        resumed_from >= 1 && (resumed_from as usize) < setup.iters,
        "snapshot from mid-run, got iteration {resumed_from}"
    );

    // The decisive check: a *fresh* world of the shrunk size, started from
    // the same snapshot, must produce exactly the recovered trajectory.
    let ckpt = report
        .checkpoint
        .clone()
        .expect("report carries the anchor");
    assert_eq!(ckpt.next_iter, resumed_from);
    let mut fresh = setup.clone().with_resume(ckpt);
    fresh.iters = setup.iters - fresh.start_iter();
    let want = run_distributed(strategy, survivors.len(), &fresh).expect("fresh resumed world");
    let out = report.output.as_ref().unwrap();
    assert_eq!(
        out.losses, want.losses,
        "recovered losses must be bit-identical to the fresh resumed run"
    );
    assert_eq!(
        out.max_param_diff(&want),
        0.0,
        "recovered weights must be bit-identical to the fresh resumed run"
    );

    // The recovered world is assembled like any other: its trace carries
    // compute spans from every rank of the final epoch.
    let trace = out.trace.as_ref().expect("tracing was on");
    assert_eq!(trace.tracks.len(), survivors.len());
    for track in &trace.tracks {
        assert!(
            track
                .spans
                .iter()
                .any(|s| s.kind == wp_trace::SpanKind::Fwd),
            "rank {} of the recovered epoch recorded no forward span",
            track.rank
        );
    }

    // Recovery telemetry: the final epoch's snapshot records the recovery
    // and the re-shard duration histogram saw the observation.
    let metrics = out.metrics.as_ref().expect("metrics were on");
    assert_eq!(metrics.total(Counter::RecoveryEpochs), 1);
    let reshard = metrics.ranks[0].hist(Hist::ReshardNs);
    assert_eq!(reshard.count, 1, "one re-shard observed");
    assert!(reshard.sum > 0, "re-shard took measurable time");
}

#[test]
fn shrink_4_to_3_recovers_bit_identically() {
    let setup = shrink_setup();
    // ~145 comm ops per iteration per rank at P=4/N=12 (plus the capture
    // collective), so op 300 lands inside iteration 2-3 — after at least one
    // completed snapshot.
    let plan = FaultPlan::new(7).with_dead_rank(1, 300);
    assert_shrink_recovers(&setup, 4, plan, &[0, 2, 3]);
}

/// Two ranks die at once: 8 → 6 in a single shrink (sequential single
/// shrinks would visit P=7, which 24 layers cannot divide). Both victims
/// fall before the first snapshot exists, so this also exercises the
/// fallback: no common checkpoint means the shrunk world restarts from
/// iteration 0 — and must land bit-identical to a fresh P=6 run.
#[test]
#[ignore = "heavier world; exercised by the CI recovery smoke"]
fn shrink_8_to_6_restarts_bit_identically() {
    let strategy = Strategy::WeiPipeInterleave;
    let mut setup = TrainSetup::tiny(24, 24);
    setup.iters = 2;
    setup.optim = OptimKind::AdamW { lr: 0.01 };
    setup.comm = CommConfig::fail_fast(Duration::from_millis(800));
    setup.metrics = MetricsConfig::on();
    let plan = FaultPlan::new(11).with_dead_rank(2, 0).with_dead_rank(5, 0);
    let opts = ElasticOptions {
        checkpoint_every: 1,
        max_recoveries: 2,
        fault_plans: vec![Some(plan)],
    };
    let report = run_elastic(strategy, 8, &setup, &opts);
    assert!(report.completed(), "run must survive: {:?}", report.epochs);
    assert_eq!(report.recoveries, 1, "one double-victim shrink");
    let last = report.epochs.last().unwrap();
    assert_eq!(last.membership.members, &[0, 1, 3, 4, 6, 7]);
    assert_eq!(
        last.resumed_from, None,
        "deaths preceded the first snapshot: recovery restarts from scratch"
    );
    let want = run_distributed(strategy, 6, &setup).expect("fresh P=6 world");
    let out = report.output.as_ref().unwrap();
    assert_eq!(
        out.losses, want.losses,
        "restart must match a fresh P=6 run"
    );
    assert_eq!(out.max_param_diff(&want), 0.0);
    assert_eq!(
        out.metrics.as_ref().unwrap().total(Counter::RecoveryEpochs),
        1
    );
}

/// The same 4 → 3 recovery over real TCP sockets: epoch-stamped frames and
/// the membership handshake must behave identically across transports.
#[test]
#[ignore = "binds localhost sockets; exercised by the CI transport-tcp job"]
fn tcp_shrink_4_to_3_recovers_bit_identically() {
    let mut setup = shrink_setup();
    setup.transport = TransportKind::TcpLocalhost;
    setup.comm = CommConfig::fail_fast(Duration::from_millis(1500));
    let plan = FaultPlan::new(7).with_dead_rank(1, 300);
    assert_shrink_recovers(&setup, 4, plan, &[0, 2, 3]);
}

/// A second fault *during* recovery must fail every rank of the recovered
/// epoch with a typed error — never hang — and the report must show the
/// abandoned run honestly.
#[test]
fn second_fault_during_recovery_fails_typed_never_hangs() {
    let mut setup = shrink_setup();
    setup.comm = CommConfig::fail_fast(Duration::from_millis(250));
    let opts = ElasticOptions {
        checkpoint_every: 1,
        max_recoveries: 1,
        fault_plans: vec![
            Some(FaultPlan::new(7).with_dead_rank(1, 300)),
            // Epoch 1: kill the new rank 0 almost immediately — inside the
            // membership handshake / first ring exchanges of the recovery.
            Some(FaultPlan::new(9).with_dead_rank(0, 10)),
        ],
    };
    let started = std::time::Instant::now();
    let report = run_elastic(Strategy::WeiPipeInterleave, 4, &setup, &opts);
    assert!(
        started.elapsed() < Duration::from_secs(60),
        "double fault must resolve promptly, not hang"
    );
    assert!(
        !report.completed(),
        "recovery budget was one; run abandoned"
    );
    assert_eq!(report.recoveries, 1);
    assert_eq!(report.epochs.len(), 2);
    let last = report.epochs.last().unwrap();
    assert_eq!(last.membership.world_size(), 3);
    for (rank, err) in last.errors.iter().enumerate() {
        assert!(
            err.is_some(),
            "rank {rank} of the recovered epoch must unwind with a typed error"
        );
    }
    // The abandoned report still carries the anchor a later restart can use.
    assert!(report.checkpoint.is_some());
}

/// The setup a tuner candidate describes: its microbatches, overlap and
/// knob, with checkpointing on as in `Candidate::spec`.
fn setup_of(c: &Candidate) -> TrainSetup {
    let mut s = TrainSetup::tiny(12, c.microbatches).with_overlap(c.overlap);
    s.recompute = true;
    s.knob = c.knob;
    s
}

/// A tuned candidate's setup rebuilds the candidate's schedule op-for-op
/// and trains it end-to-end to the reference.
#[test]
fn tuned_candidates_rebuild_their_spec_and_train() {
    let p = 4;
    // What the tuner hands over in practice: the DES-priced grid winner
    // over everything the runtime executes.
    let oracle = DesOracle::new(
        ModelDims::paper(1024, 12, 2048, 4),
        GpuSpec::a800(),
        ClusterSpec::nvlink_island(p),
        16,
    );
    let space = TuneSpace {
        ranks: p,
        strategies: weipipe::runtime_strategies(),
        microbatches: vec![p, 2 * p],
        w_lags: vec![1, 2],
        chunk_counts: vec![2],
        group_sizes: vec![p, p / 2],
        overlap: vec![true],
    };
    let winner = grid(&space, &oracle).expect("a feasible runtime candidate");
    let candidates = [
        winner.best,
        Candidate::default_for(Strategy::WeiPipeInterleave, 8),
        Candidate {
            knob: Some(2),
            ..Candidate::default_for(Strategy::Zb1, 8)
        },
        Candidate {
            knob: Some(2),
            ..Candidate::default_for(Strategy::Fsdp, 8)
        },
    ];
    for c in &candidates {
        c.check(p).expect("candidate valid at P=4");
        let setup = setup_of(c);
        let from_setup = build_schedule(c.strategy, p, &setup);
        let from_tuner = wp_sched::build(c.strategy, c.spec(p));
        assert_eq!(
            format!("{:?}", from_setup.ops),
            format!("{:?}", from_tuner.ops),
            "{}: the setup must rebuild the tuned schedule",
            c.label()
        );

        let reference = run_single(&setup);
        let out = run_distributed(c.strategy, p, &setup).expect("tuned schedule must train");
        assert!(
            out.max_loss_diff(&reference) < 2e-4,
            "{}: tuned schedule diverged from the reference",
            c.label()
        );
        assert!(
            out.bytes_sent > 0,
            "{}: must actually communicate",
            c.label()
        );
    }
}
