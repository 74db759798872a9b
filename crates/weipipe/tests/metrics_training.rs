//! Acceptance tests for metrics through the full training stack: a real
//! WeiPipe-Interleave run must populate every rank's counters, agree with
//! the traffic meter per class and with the trace's busy time exactly —
//! and be bit-invisible when disabled. Socket-backed variants are
//! `#[ignore]`d; the transport-tcp CI job runs them with `-- --ignored`.

use weipipe::{
    build_schedule, run_distributed, run_rank, run_single, MetricsConfig, Strategy, TraceConfig,
    TrainSetup, TrainWorld, TransportKind,
};
use wp_comm::RankTraffic;
use wp_metrics::{Counter, Gauge, Hist};
use wp_trace::SpanKind;

/// A metered world's traffic meter is a view of the registry's own traffic
/// slots, so the two agree per rank and per class on a full training run —
/// and the runtime-level metrics land in the same rank's slots.
fn meter_matches_metrics(kind: TransportKind, p: usize, layers: usize, n: usize) {
    let setup = TrainSetup::tiny(layers, n)
        .with_transport(kind)
        .with_metrics(MetricsConfig::on());
    let schedule = build_schedule(Strategy::WeiPipeInterleave, p, &setup);
    let world = TrainWorld::new(&setup, p, 0);
    let registry = world.registry.clone().expect("setup meters");
    let (outs, meter) = world
        .builder
        .try_run(|comm| run_rank(&setup, &schedule, comm));
    for out in outs {
        out.expect("healthy rank");
    }
    let snap = registry.snapshot();
    for r in 0..p {
        let s = &snap.ranks[r];
        // All eight traffic slots at once (the slot ↔ field pairing itself
        // is pinned by wp-comm's metered-world unit test).
        assert_eq!(RankTraffic::of(s), meter.rank(r), "rank {r}");
        assert!(meter.rank(r).total_bytes() > 0, "rank {r} sent nothing");
        // The runtime-level metrics landed in the same slots.
        assert_eq!(
            s.counter(Counter::StepsCompleted),
            setup.iters as u64,
            "rank {r}"
        );
        assert!(s.counter(Counter::TokensProcessed) > 0, "rank {r}");
        assert!(s.gauge(Gauge::Loss) > 0.0, "rank {r}: loss gauge never set");
        assert!(
            s.hist(Hist::StepWallNs).count == setup.iters as u64,
            "rank {r}: one step-wall observation per iteration"
        );
    }
}

/// With tracing and metrics side by side, every timed kind's histogram
/// observation *is* its span's duration (one `Probe` measurement), so per
/// rank the compute histograms' mass equals the trace's `busy_ns`, and the
/// optimizer-step and step-wall histograms equal their spans' total.
fn busy_equals_hist_mass(kind: TransportKind, p: usize, layers: usize, n: usize) {
    let setup = TrainSetup::tiny(layers, n)
        .with_transport(kind)
        .with_metrics(MetricsConfig::on())
        .with_trace(TraceConfig::on());
    let out = run_distributed(Strategy::WeiPipeInterleave, p, &setup).expect("healthy world");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let snap = out.metrics.as_ref().expect("metrics were enabled");
    assert_eq!(snap.world_size(), p);
    for track in &trace.tracks {
        let hist_mass: u64 = [Hist::FwdNs, Hist::BwdNs, Hist::WgradNs, Hist::UpdateNs]
            .iter()
            .map(|&h| snap.ranks[track.rank].hist(h).sum)
            .sum();
        assert_eq!(
            track.busy_ns(),
            hist_mass,
            "rank {}: trace busy_ns != compute histogram mass",
            track.rank
        );
        for (hist, kind) in [
            (Hist::OptimStepNs, SpanKind::OptimStep),
            (Hist::StepWallNs, SpanKind::Iteration),
        ] {
            let spans = track.of_kind(kind);
            assert_eq!(
                snap.ranks[track.rank].hist(hist).sum,
                spans.map(|s| s.dur_ns()).sum::<u64>(),
                "rank {}: {hist:?} != Σ dur({kind:?} spans)",
                track.rank
            );
        }
    }
    let busy: u64 = trace.tracks.iter().map(|t| t.busy_ns()).sum();
    assert_eq!(busy, snap.compute_mass_ns(), "world totals disagree");
}

#[test]
fn metrics_are_bitwise_invisible_to_training() {
    let base = TrainSetup::tiny(4, 8);
    let plain = run_distributed(Strategy::WeiPipeInterleave, 4, &base).expect("healthy");
    assert!(
        plain.metrics.is_none(),
        "metrics off must yield no snapshot"
    );

    let metered_setup = base.clone().with_metrics(MetricsConfig::on());
    let metered = run_distributed(Strategy::WeiPipeInterleave, 4, &metered_setup).expect("healthy");
    assert!(metered.metrics.is_some());
    assert!(
        metered.bit_identical(&plain),
        "metrics changed the losses or weights"
    );

    // And the metered run still matches the single-process reference.
    let reference = run_single(&base);
    assert!(metered.max_loss_diff(&reference) < 2e-4);
    assert!(metered.max_param_diff(&reference) < 2e-3);
}

#[test]
fn every_runtime_strategy_populates_the_registry() {
    for strategy in weipipe::runtime_strategies() {
        let mut setup = TrainSetup::tiny(2, 4);
        setup.iters = 2;
        setup.metrics = MetricsConfig::on();
        let out =
            run_distributed(strategy, 2, &setup).unwrap_or_else(|e| panic!("{strategy:?}: {e:?}"));
        let snap = out.metrics.as_ref().expect("metrics were enabled");
        assert_eq!(snap.world_size(), 2, "{strategy:?}");
        for r in &snap.ranks {
            assert_eq!(
                r.counter(Counter::StepsCompleted),
                2,
                "{strategy:?} rank {}",
                r.rank
            );
            assert!(
                r.hist(Hist::FwdNs).count > 0,
                "{strategy:?} rank {}: no forward timings",
                r.rank
            );
            assert!(
                r.hist(Hist::OptimStepNs).count > 0,
                "{strategy:?} rank {}: no optimizer timings",
                r.rank
            );
            assert!(
                r.counter(Counter::P2pBytesSent) + r.counter(Counter::CollBytesSent) > 0,
                "{strategy:?} rank {}: no bytes metered",
                r.rank
            );
        }
    }
}

#[test]
fn meter_matches_metrics_inprocess_p4() {
    meter_matches_metrics(TransportKind::InProcess, 4, 4, 8);
}

#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn meter_matches_metrics_tcp_p2() {
    meter_matches_metrics(TransportKind::TcpLocalhost, 2, 2, 4);
}

#[test]
fn busy_ns_equals_hist_mass_inprocess_p4() {
    busy_equals_hist_mass(TransportKind::InProcess, 4, 4, 8);
}

#[test]
#[ignore = "sockets: run in the transport-tcp CI job with --ignored"]
fn busy_ns_equals_hist_mass_tcp_p2() {
    busy_equals_hist_mass(TransportKind::TcpLocalhost, 2, 2, 4);
}

#[test]
fn metrics_off_by_default_and_chainable() {
    let setup = TrainSetup::tiny(2, 4);
    assert!(!setup.metrics.enabled, "metrics must default off");
    assert!(setup.with_metrics(MetricsConfig::on()).metrics.enabled);
}
