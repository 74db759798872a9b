//! Acceptance tests for span tracing through the full training stack: a
//! real 4-rank WeiPipe-Interleave run must yield a trace with per-rank
//! compute spans, comm wait spans, and fault instants, export to valid
//! Chrome trace-event JSON — and be bit-invisible when disabled.

use std::time::Duration;
use weipipe::{run_distributed, run_single, Strategy, TraceConfig, TrainSetup};
use wp_comm::FaultPlan;
use wp_trace::{export_chrome_json, validate_chrome_json, SpanKind};

/// The delay-only plan from the chaos suite: injects visible fault events
/// without changing any training result.
fn benign_plan(seed: u64) -> FaultPlan {
    let plan = FaultPlan::new(seed)
        .with_delay_jitter(Duration::from_micros(60))
        .with_reorder(0.3);
    assert!(plan.is_delay_only(), "benign plan must stay delay-only");
    plan
}

#[test]
fn traced_weipipe_run_records_every_phase_on_every_rank() {
    let mut setup = TrainSetup::tiny(4, 8);
    setup.trace = TraceConfig::on();
    setup.faults = Some(benign_plan(0x7ACE));
    let out = run_distributed(Strategy::WeiPipeInterleave, 4, &setup).expect("healthy world");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    assert_eq!(trace.tracks.len(), 4, "one track per rank");
    assert!(trace.makespan_ns() > 0);
    let bubble = trace.bubble_ratio();
    assert!(
        (0.0..1.0).contains(&bubble),
        "bubble ratio {bubble} out of range"
    );

    for track in &trace.tracks {
        let r = track.rank;
        assert_eq!(
            track.overwritten, 0,
            "rank {r}: default capacity must not overflow"
        );
        assert!(track.has_kind(SpanKind::Fwd), "rank {r}: no forward spans");
        let backward = track.has_kind(SpanKind::BwdFull)
            || (track.has_kind(SpanKind::BwdData) && track.has_kind(SpanKind::BwdWeight));
        assert!(backward, "rank {r}: no backward spans");
        assert!(
            track.has_kind(SpanKind::Update),
            "rank {r}: no update spans"
        );
        assert!(
            track.has_kind(SpanKind::OptimStep),
            "rank {r}: no optimizer-step spans"
        );
        assert!(track.has_kind(SpanKind::Send), "rank {r}: no send spans");
        assert!(
            track.has_kind(SpanKind::RecvWait),
            "rank {r}: no recv-wait spans"
        );
        assert!(
            track.has_kind(SpanKind::Fault),
            "rank {r}: no fault instants under jitter"
        );
        let iters: Vec<_> = track.of_kind(SpanKind::Iteration).collect();
        assert_eq!(
            iters.len(),
            setup.iters,
            "rank {r}: one iteration span per iteration"
        );
        // Weight/grad chunk sends must carry their payload size (a few
        // messages — e.g. barrier tokens — are legitimately tiny).
        assert!(
            track.of_kind(SpanKind::Send).any(|s| s.bytes > 0),
            "rank {r}: no send span carries bytes"
        );
    }
}

#[test]
fn traced_run_exports_valid_chrome_json() {
    let mut setup = TrainSetup::tiny(4, 8);
    setup.trace = TraceConfig::on();
    setup.faults = Some(benign_plan(42));
    let out = run_distributed(Strategy::WeiPipeInterleave, 4, &setup).expect("healthy world");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let json = export_chrome_json(trace);
    let stats = validate_chrome_json(&json).expect("export must satisfy its own validator");
    assert_eq!(stats.tracks, 4);
    assert_eq!(stats.spans + stats.instants, trace.span_count());
    assert!(stats.instants > 0, "fault instants must survive export");
}

#[test]
fn tracing_is_bitwise_invisible_to_training() {
    let base = TrainSetup::tiny(4, 8);
    let untraced = run_distributed(Strategy::WeiPipeInterleave, 4, &base).expect("healthy");
    assert!(
        untraced.trace.is_none(),
        "tracing off must produce no trace"
    );

    let mut traced_setup = base.clone();
    traced_setup.trace = TraceConfig::on();
    let traced = run_distributed(Strategy::WeiPipeInterleave, 4, &traced_setup).expect("healthy");
    assert!(traced.trace.is_some());
    assert!(
        traced.bit_identical(&untraced),
        "tracing changed the losses or weights"
    );

    // And the traced run still matches the single-process reference.
    let reference = run_single(&base);
    assert!(traced.max_loss_diff(&reference) < 2e-4);
    assert!(traced.max_param_diff(&reference) < 2e-3);
}

#[test]
fn every_runtime_strategy_produces_a_coherent_trace() {
    for strategy in weipipe::runtime_strategies() {
        let mut setup = TrainSetup::tiny(2, 4);
        setup.iters = 2;
        setup.trace = TraceConfig::on();
        let out =
            run_distributed(strategy, 2, &setup).unwrap_or_else(|e| panic!("{strategy:?}: {e:?}"));
        let trace = out.trace.as_ref().expect("tracing was enabled");
        assert_eq!(trace.tracks.len(), 2, "{strategy:?}");
        for track in &trace.tracks {
            assert!(
                track.has_kind(SpanKind::Fwd),
                "{strategy:?} rank {}: no forward spans",
                track.rank
            );
            assert!(
                track.busy_ns() > 0,
                "{strategy:?} rank {}: idle track",
                track.rank
            );
            // Spans never run backwards and land inside the makespan.
            for s in &track.spans {
                assert!(s.end_ns >= s.start_ns, "{strategy:?}: span runs backwards");
                assert!(
                    s.end_ns <= trace.end_ns(),
                    "{strategy:?}: span escapes makespan"
                );
            }
        }
        let json = export_chrome_json(trace);
        validate_chrome_json(&json).unwrap_or_else(|e| panic!("{strategy:?}: invalid export: {e}"));
    }
}

#[test]
fn tiny_trace_capacity_overwrites_instead_of_blocking() {
    let mut setup = TrainSetup::tiny(2, 4);
    setup.iters = 2;
    setup.trace = TraceConfig::with_capacity(8);
    let out = run_distributed(Strategy::WeiPipeInterleave, 2, &setup).expect("healthy");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    for track in &trace.tracks {
        assert!(track.spans.len() <= 8, "ring must cap retained spans");
        assert!(
            track.overwritten > 0,
            "a 2-iteration run must overflow 8 slots"
        );
    }
}
