//! Metrics smoke check: the guard rails of `wp-metrics`, runnable in one
//! shot as a CI step.
//!
//! ```text
//! cargo run --release -p wp-bench --bin metrics_smoke
//! ```
//!
//! Proves, on a real 4-rank WeiPipe-Interleave training run:
//!
//! 1. **Off-path**: a metered run trains bit-identically (losses and every
//!    assembled weight) to an unmetered one.
//! 2. **Trace agreement**: with tracing and metrics both on, the compute
//!    histograms' total mass equals the trace's summed `busy_ns` exactly —
//!    each span and its observation are one `Probe` measurement.
//! 3. **Export validity**: the Prometheus and JSON exports of the world
//!    snapshot pass their own validators and parse back bit-exactly.
//!
//! Exits non-zero (panics) on any violation.

use weipipe::{run_distributed, MetricsConfig, Strategy, TraceConfig, TrainSetup};
use wp_metrics::{Counter, Hist};

fn main() {
    let p = 4;
    let base = TrainSetup::tiny(p, 2 * p);

    // 1. Metrics must be strictly observational.
    println!("1/3 metrics-off bit-identity…");
    let plain = run_distributed(Strategy::WeiPipeInterleave, p, &base).expect("healthy world");
    assert!(
        plain.metrics.is_none(),
        "metrics off must yield no snapshot"
    );
    let metered = run_distributed(
        Strategy::WeiPipeInterleave,
        p,
        &base.clone().with_metrics(MetricsConfig::on()),
    )
    .expect("healthy world");
    assert!(
        plain.bit_identical(&metered),
        "metering changed the losses or the final weights"
    );
    println!("    ok: metered run is bit-identical to the unmetered one");

    // 2. Trace busy time == compute histogram mass, per rank and in total.
    println!("2/3 trace busy_ns vs compute histogram mass…");
    let both = run_distributed(
        Strategy::WeiPipeInterleave,
        p,
        &base
            .clone()
            .with_metrics(MetricsConfig::on())
            .with_trace(TraceConfig::on()),
    )
    .expect("healthy world");
    let trace = both.trace.as_ref().expect("tracing was enabled");
    let snap = both.metrics.as_ref().expect("metrics were enabled");
    for track in &trace.tracks {
        let hist_mass: u64 = [Hist::FwdNs, Hist::BwdNs, Hist::WgradNs, Hist::UpdateNs]
            .iter()
            .map(|&h| snap.ranks[track.rank].hist(h).sum)
            .sum();
        assert_eq!(
            track.busy_ns(),
            hist_mass,
            "rank {}: trace busy_ns and compute histogram mass disagree",
            track.rank
        );
    }
    let busy: u64 = trace.tracks.iter().map(|t| t.busy_ns()).sum();
    assert_eq!(busy, snap.compute_mass_ns(), "world totals disagree");
    println!("    ok: {busy} ns of compute agree span-for-span across {p} ranks");

    // 3. Both exports validate and round-trip bit-exactly.
    println!("3/3 export validity…");
    let prom = wp_metrics::export_prometheus(snap);
    let (prom_snap, stats) =
        wp_metrics::parse_prometheus(&prom).expect("Prometheus export must validate");
    assert_eq!(&prom_snap, snap, "Prometheus round trip lost data");
    let json = wp_metrics::export_json(snap);
    let (json_snap, _) = wp_metrics::parse_json(&json).expect("JSON export must validate");
    assert_eq!(&json_snap, snap, "JSON round trip lost data");
    println!(
        "    ok: {} samples on {} ranks round-trip through both exporters",
        stats.samples,
        snap.world_size()
    );

    println!(
        "\nmetrics smoke passed: {} steps, {} tokens, {} B p2p sent",
        snap.total(Counter::StepsCompleted),
        snap.total(Counter::TokensProcessed),
        snap.total(Counter::P2pBytesSent),
    );
}
