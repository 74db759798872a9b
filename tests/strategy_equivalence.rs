//! The correctness crown: every distributed strategy must train the same
//! model to the same weights as one process — across world sizes,
//! microbatch counts, optimizers, and checkpointing settings.

use weipipe::{run_distributed, run_single, OptimKind, Strategy, TrainSetup};
use wp_tensor::DType;

fn check(strategy: Strategy, ranks: usize, setup: &TrainSetup, tol_loss: f32, tol_param: f32) {
    let reference = run_single(setup);
    let out = run_distributed(strategy, ranks, setup).expect("healthy world");
    let dl = out.max_loss_diff(&reference);
    let dp = out.max_param_diff(&reference);
    assert!(
        dl <= tol_loss,
        "{strategy:?} P={ranks}: loss diff {dl} > {tol_loss}\n got {:?}\nwant {:?}",
        out.losses,
        reference.losses
    );
    assert!(
        dp <= tol_param,
        "{strategy:?} P={ranks}: param diff {dp} > {tol_param}"
    );
}

#[test]
fn all_strategies_match_reference_p2() {
    let setup = TrainSetup::tiny(2, 4);
    for strategy in weipipe::runtime_strategies() {
        check(strategy, 2, &setup, 2e-4, 2e-3);
    }
}

#[test]
fn all_strategies_match_reference_p4() {
    let setup = TrainSetup::tiny(4, 8);
    for strategy in weipipe::runtime_strategies() {
        check(strategy, 4, &setup, 2e-4, 2e-3);
    }
}

/// Every runtime strategy's measured timeline honours its schedule's
/// dependency graph: each compute span starts after the spans the graph
/// puts before it — across ranks too, the rank threads sharing one clock —
/// have ended, in both traced iterations.
#[test]
fn traced_runs_honour_the_dependency_graph_p4() {
    let mut setup = TrainSetup::tiny(4, 8);
    setup.iters = 2;
    setup.trace = weipipe::TraceConfig::on();
    for strategy in weipipe::runtime_strategies() {
        let out = run_distributed(strategy, 4, &setup).expect("healthy world");
        let schedule = weipipe::build_schedule(strategy, 4, &setup);
        let graph = wp_sched::DepGraph::build(&schedule).expect("validated");
        let measured = wp_sim::measured_result(out.trace.as_ref().expect("traced"));
        assert_eq!(
            measured.timeline[0].len(),
            2 * schedule.compute_balance()[0]
        );
        wp_sim::check_timeline(&graph, &measured).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
    }
}

/// Byte accounting of every runtime strategy at P = 4: what a rank's meter
/// counts point to point over one step is exactly what the schedule says it
/// sends (`analysis::traffic`) plus one chunk per weight copy it refreshes
/// on another rank between iterations — the equality the benchmark's
/// `comm_mib_per_step` rests on.
#[test]
fn metered_p2p_bytes_equal_schedule_plus_reseeds_p4() {
    let p = 4;
    let setup = TrainSetup::tiny(4, 8);
    let chunk = wp_nn::params::BlockLayout::new(&setup.model).len() as u64 * 4;
    let act = (setup.microbatch * setup.seq * setup.model.hidden) as u64 * 4;
    let bytes = wp_sched::analysis::ByteModel {
        weight_chunk: chunk,
        grad_chunk: chunk,
        act_boundary: act,
        act_grad_boundary: act,
    };
    for strategy in weipipe::runtime_strategies() {
        let sched = weipipe::build_schedule(strategy, p, &setup);
        let scheduled = wp_sched::analysis::traffic(&sched, &bytes);
        // Backward-flow seeds each rank re-ships per boundary: every chunk's
        // seed sits off its owner under Interleave; under Naive chunks 1 and
        // 3 are seeded on their owners.
        let reseeds: [u64; 4] = match strategy {
            Strategy::WeiPipeInterleave => [1, 1, 1, 1],
            Strategy::WeiPipeNaive => [1, 0, 1, 0],
            _ => [0; 4],
        };
        wp_comm::World::run(p, setup.link, |comm| {
            let (rank, meter) = (comm.rank(), comm.meter());
            let mut rt = weipipe::interp::RankRuntime::new(&setup, &sched, comm);
            for iter in 0..3 {
                let before = meter.rank(rank).p2p_bytes;
                rt.run_iteration(&sched, iter).expect("healthy world");
                rt.reseed_bwd_flow(&sched, iter).expect("healthy world");
                assert_eq!(
                    meter.rank(rank).p2p_bytes - before,
                    scheduled[rank].p2p + reseeds[rank] * chunk,
                    "{strategy:?} rank {rank} iteration {iter}"
                );
            }
        });
    }
}

#[test]
fn multi_layer_chunks_match_reference() {
    // 8 layers across 4 ranks: two layers per circulating chunk — the
    // paper's actual regime (32 layers on 8–32 GPUs).
    let mut setup = TrainSetup::tiny(8, 8);
    setup.iters = 2;
    for strategy in [
        Strategy::WeiPipeInterleave,
        Strategy::WeiPipeNaive,
        Strategy::OneFOneB,
        Strategy::Zb1,
        Strategy::Fsdp,
    ] {
        check(strategy, 4, &setup, 3e-4, 3e-3);
    }
}

#[test]
fn weipipe_matches_reference_p8_many_rounds() {
    // Three circulation rounds on a wider ring.
    let mut setup = TrainSetup::tiny(8, 24);
    setup.iters = 2;
    check(Strategy::WeiPipeInterleave, 8, &setup, 3e-4, 3e-3);
}

#[test]
fn adamw_trajectories_match() {
    let mut setup = TrainSetup::tiny(4, 8);
    setup.optim = OptimKind::AdamW { lr: 2e-3 };
    setup.iters = 3;
    for strategy in [
        Strategy::WeiPipeInterleave,
        Strategy::OneFOneB,
        Strategy::Fsdp,
    ] {
        check(strategy, 4, &setup, 3e-4, 3e-3);
    }
}

/// A checkpointed layer rebuilds the same activations its forward saved,
/// so recomputation changes no bit — and every run without it matches the
/// reference above. At P = 2 a chunk holds two layers, so a backward walks
/// its checkpoints in reverse layer order.
#[test]
fn recompute_is_numerically_transparent() {
    for (ranks, layers, microbatches) in [(2, 4, 4), (4, 4, 8)] {
        let saved = TrainSetup::tiny(layers, microbatches);
        let mut recomputed = saved.clone();
        recomputed.recompute = true;
        for strategy in [
            Strategy::WeiPipeInterleave,
            Strategy::WeiPipeNaive,
            Strategy::OneFOneB,
            Strategy::GPipe,
            Strategy::Fsdp,
        ] {
            let on = run_distributed(strategy, ranks, &recomputed).expect("healthy world");
            let off = run_distributed(strategy, ranks, &saved).expect("healthy world");
            assert!(
                on.bit_identical(&off),
                "{strategy:?} P={ranks}: recompute changed the run\n on {:?}\noff {:?}",
                on.losses,
                off.losses
            );
        }
    }
}

#[test]
fn fp16_wire_training_converges() {
    // Mixed-precision wire: not bit-equal to the reference, but must train.
    let mut setup = TrainSetup::tiny(2, 4);
    setup.wire = DType::F16;
    setup.iters = 6;
    let out = run_distributed(Strategy::WeiPipeInterleave, 2, &setup).expect("healthy world");
    assert!(
        out.losses.last().expect("ran") < out.losses.first().expect("ran"),
        "fp16-wire training must still reduce loss: {:?}",
        out.losses
    );
    // And stay close to the f32 trajectory.
    let mut setup32 = setup.clone();
    setup32.wire = DType::F32;
    let ref32 = run_distributed(Strategy::WeiPipeInterleave, 2, &setup32).expect("healthy world");
    assert!(
        out.max_loss_diff(&ref32) < 0.05,
        "fp16 drift too large: {:?} vs {:?}",
        out.losses,
        ref32.losses
    );
}

#[test]
fn weipipe_variants_agree_with_each_other_exactly_in_shape() {
    // Naive and Interleave execute the same math in different orders; their
    // trajectories must agree to reduction-order noise.
    let setup = TrainSetup::tiny(4, 8);
    let a = run_distributed(Strategy::WeiPipeNaive, 4, &setup).expect("healthy world");
    let b = run_distributed(Strategy::WeiPipeInterleave, 4, &setup).expect("healthy world");
    assert!(a.max_loss_diff(&b) < 2e-4);
    assert!(a.max_param_diff(&b) < 2e-3);
    // Naive moves strictly more bytes (its documented flaw).
    assert!(
        a.bytes_sent > b.bytes_sent,
        "naive {} should exceed interleave {}",
        a.bytes_sent,
        b.bytes_sent
    );
}

#[test]
fn loss_scaling_is_numerically_transparent_in_f32() {
    // §4.3 mixed precision: a static loss scale must cancel exactly through
    // unscaled updates, distributed and single-process alike.
    let mut setup = TrainSetup::tiny(4, 8);
    setup.loss_scale = 1024.0;
    setup.iters = 3;
    for strategy in [
        Strategy::WeiPipeInterleave,
        Strategy::Fsdp,
        Strategy::OneFOneB,
    ] {
        check(strategy, 4, &setup, 3e-4, 3e-3);
    }
    // And matches the unscaled single-process run too (scaling is a no-op
    // in f32 up to rounding).
    let unscaled = run_single(&TrainSetup {
        loss_scale: 1.0,
        ..setup.clone()
    });
    let scaled = run_single(&setup);
    assert!(scaled.max_loss_diff(&unscaled) < 1e-4);
    assert!(scaled.max_param_diff(&unscaled) < 1e-3);
}

#[test]
fn lr_schedules_apply_identically_everywhere() {
    let mut setup = TrainSetup::tiny(2, 4);
    setup.lr_schedule = wp_optim::LrSchedule::WarmupCosine {
        warmup: 2,
        total: 6,
        min_ratio: 0.1,
    };
    setup.iters = 5;
    check(Strategy::WeiPipeInterleave, 2, &setup, 2e-4, 2e-3);
    check(Strategy::Ddp, 2, &setup, 2e-4, 2e-3);
    // The schedule must actually change the trajectory vs constant LR.
    let constant = run_single(&TrainSetup {
        lr_schedule: wp_optim::LrSchedule::Constant,
        ..setup.clone()
    });
    let warmed = run_single(&setup);
    assert!(
        warmed.max_param_diff(&constant) > 1e-6,
        "schedule had no effect"
    );
}

#[test]
fn gqa_models_train_equivalently() {
    // Grouped-query attention changes the k/v projection shapes; the
    // circulating chunks and the interpreter must follow.
    let mut setup = TrainSetup::tiny(4, 8);
    setup.model = setup.model.with_gqa(1); // multi-query
    for strategy in [
        Strategy::WeiPipeInterleave,
        Strategy::OneFOneB,
        Strategy::Fsdp,
    ] {
        check(strategy, 4, &setup, 2e-4, 2e-3);
    }
}

#[test]
fn corpus_data_source_trains_equivalently() {
    // Text training (char-LM path) must obey the same strategy equivalence
    // as the synthetic task.
    let corpus: Vec<u32> = (0..400u32).map(|i| (i * 7 + i / 3) % 11).collect();
    let mut setup = TrainSetup::tiny(4, 8);
    setup.data = weipipe::DataSource::Corpus(std::sync::Arc::new(corpus));
    setup.seq = 8;
    setup.iters = 3;
    for strategy in [Strategy::WeiPipeInterleave, Strategy::Fsdp] {
        check(strategy, 4, &setup, 2e-4, 2e-3);
    }
}

#[test]
fn losses_actually_decrease_under_weipipe() {
    let mut setup = TrainSetup::tiny(2, 8);
    setup.iters = 8;
    setup.optim = OptimKind::AdamW { lr: 3e-3 };
    let out = run_distributed(Strategy::WeiPipeInterleave, 2, &setup).expect("healthy world");
    let first = out.losses.first().expect("ran");
    let last = out.losses.last().expect("ran");
    assert!(last < first, "no learning: {:?}", out.losses);
}
