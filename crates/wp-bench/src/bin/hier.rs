//! Flat-vs-hierarchical WeiPipe comparison: reproduce the TawPipe-style
//! claim that topology-aware grouped weight rings beat the flat
//! world-spanning ring on clusters with a slow inter-node hop.
//!
//! For each calibrated cluster the binary prices three schedules through
//! the discrete-event engine at a fixed global batch:
//!
//! * **flat** — the WeiPipe-interleave default at `N = P`, the schedule
//!   the runtime would otherwise hard-code;
//! * **grouped** — WeiPipe-Hier with one replica ring per NVLink/PCIe
//!   island (`group = node_size`), bridges carrying the only slow-hop
//!   traffic;
//! * **tuned** — the best WeiPipe-Hier candidate a grid search over
//!   group sizes × microbatches × overlap finds.
//!
//! `--smoke` runs the two multi-node paper environments and asserts the
//! CI contract: the tuned grouped schedule strictly beats the flat
//! default on both, and simulated cross-node bytes per iteration drop by
//! at least ~node_size× (the whole point of the hierarchy). It also
//! prints the flat-vs-grouped timeline drift report so shape regressions
//! are visible in the CI log. Failures exit nonzero with a one-line
//! reason; `results/bench_hier.json` feeds the regression gate.

use wp_bench::ci::{self, Report};
use wp_bench::drift::drift_report;
use wp_sched::tune::{grid, Candidate, TuneSpace};
use wp_sched::{build, validate, Strategy};
use wp_sim::tune::DesOracle;
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions, SimResult};

const BENCH: &str = "hier";

/// Build and simulate one candidate under the oracle's global-batch
/// normalization, returning the full engine result (the tuner's
/// `evaluate` only surfaces scalar costs; the cross-node byte counter
/// lives on [`SimResult`]).
fn run(c: &Candidate, oracle: &DesOracle) -> SimResult {
    let p = oracle.cluster.ranks;
    if let Err(e) = c.check(p) {
        ci::fail(BENCH, &format!("candidate {}: {e}", c.label()));
    }
    if !oracle.global_batch.is_multiple_of(c.microbatches) {
        ci::fail(
            BENCH,
            &format!(
                "global batch {} % N={} != 0",
                oracle.global_batch, c.microbatches
            ),
        );
    }
    let mut dims = oracle.dims;
    dims.microbatch = oracle.global_batch / c.microbatches;
    let schedule = build(c.strategy, c.spec(p));
    if let Err(e) = validate(&schedule) {
        ci::fail(BENCH, &format!("candidate {}: {e}", c.label()));
    }
    let cost = CostModel::for_schedule(dims, oracle.gpu, &schedule);
    let opts = SimOptions {
        overlap: c.overlap,
        straggler: None,
    };
    match simulate(&schedule, &cost, &oracle.cluster, opts) {
        Ok(r) => r,
        Err(e) => ci::fail(BENCH, &format!("candidate {}: {e}", c.label())),
    }
}

/// One cluster point: flat default vs island-grouped vs tuned grouped.
/// Returns `(speedup, xnode_reduction)` of the tuned schedule over flat.
fn hier_point(
    label: &str,
    cluster: ClusterSpec,
    dims: ModelDims,
    global_batch: usize,
    report: &mut Report,
    print_drift: bool,
) -> (f64, f64) {
    let p = cluster.ranks;
    let node = cluster.node_size;
    let oracle = DesOracle::new(dims, GpuSpec::a800(), cluster, global_batch);

    let flat = Candidate::default_for(Strategy::WeiPipeInterleave, p);
    let flat_r = run(&flat, &oracle);

    let mut grouped = Candidate::default_for(Strategy::WeiPipeHier, p);
    if node >= 2 && node < p {
        grouped.group = Some(node);
    }
    let grouped_r = run(&grouped, &oracle);

    // Tuned: grid over the hier family only — group sizes, microbatches
    // and overlap. The flat degenerate (group=None) stays in the space so
    // the tuner can fall back if grouping ever loses.
    let space = TuneSpace {
        ranks: p,
        strategies: vec![Strategy::WeiPipeHier],
        microbatches: vec![p, 2 * p, 4 * p],
        w_lags: Vec::new(),
        chunk_counts: Vec::new(),
        group_sizes: vec![node, p / 2],
        overlap: vec![true, false],
    };
    let tuned = match grid(&space, &oracle) {
        Some(out) => out,
        None => ci::fail(BENCH, &format!("{label}: no feasible hier candidate")),
    };
    let tuned_r = run(&tuned.best, &oracle);

    let speedup = flat_r.makespan / tuned_r.makespan;
    let reduction = if tuned_r.cross_node_p2p_bytes > 0 {
        flat_r.cross_node_p2p_bytes as f64 / tuned_r.cross_node_p2p_bytes as f64
    } else if flat_r.cross_node_p2p_bytes == 0 {
        1.0 // single-island cluster: nothing crosses nodes either way
    } else {
        f64::INFINITY
    };
    println!(
        "{label:<12} flat {:>8.2} ms ({:>6.1} MB x-node) | grouped {:>8.2} ms | tuned {:<26} {:>8.2} ms ({:>6.1} MB x-node) | speedup x{speedup:.3} | x-node /{reduction:.1}",
        flat_r.makespan * 1e3,
        flat_r.cross_node_p2p_bytes as f64 / 1e6,
        grouped_r.makespan * 1e3,
        tuned.best.label(),
        tuned_r.makespan * 1e3,
        tuned_r.cross_node_p2p_bytes as f64 / 1e6,
    );
    if print_drift {
        println!(
            "{}",
            drift_report(
                &format!("{label}: flat (left) vs tuned grouped (right)"),
                &flat_r,
                &tuned_r,
            )
        );
    }
    report
        .metric(&format!("{label}_flat_iter_s"), flat_r.makespan)
        .metric(&format!("{label}_grouped_iter_s"), grouped_r.makespan)
        .metric(&format!("{label}_tuned_iter_s"), tuned_r.makespan)
        .metric(&format!("{label}_speedup"), speedup)
        .metric(
            &format!("{label}_flat_xnode_bytes"),
            flat_r.cross_node_p2p_bytes as f64,
        )
        .metric(
            &format!("{label}_tuned_xnode_bytes"),
            tuned_r.cross_node_p2p_bytes as f64,
        )
        .metric(&format!("{label}_xnode_reduction"), reduction)
        .note(&format!("{label}_tuned"), &tuned.best.label());
    (speedup, reduction)
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_dir = wp_bench::flag_value("--out").unwrap_or_else(|| "results".to_string());
    let mut report = Report::new(BENCH);

    println!(
        "# wp-bench hier  ({})",
        if smoke { "smoke" } else { "full" }
    );

    // The two multi-node paper environments the acceptance criteria gate
    // on; full mode adds the single-island control where grouping must be
    // a no-op.
    let dims16 = ModelDims::paper(4096, 32, 16384, 4);
    let (eth_speedup, eth_reduction) = hier_point(
        "ethernet16",
        ClusterSpec::ethernet_16(),
        dims16,
        64,
        &mut report,
        true,
    );
    let (nv_speedup, nv_reduction) = hier_point(
        "nvlink16",
        ClusterSpec::nvlink_16(),
        dims16,
        64,
        &mut report,
        false,
    );
    if !smoke {
        hier_point(
            "nvlink8",
            ClusterSpec::nvlink_8(),
            ModelDims::paper(2048, 32, 65536, 1),
            32,
            &mut report,
            false,
        );
    }

    // CI contract: grouped beats flat on both multi-node clusters, and the
    // hierarchy actually removes ~node_size× of the cross-node traffic.
    for (label, speedup, reduction, node) in [
        ("ethernet16", eth_speedup, eth_reduction, 4usize),
        ("nvlink16", nv_speedup, nv_reduction, 8),
    ] {
        ci::check(
            BENCH,
            &format!("{label}: tuned grouped schedule beats flat WeiPipe default"),
            if speedup > 1.0 {
                Ok(())
            } else {
                Err(format!("speedup x{speedup:.4} is not > 1"))
            },
        );
        ci::check(
            BENCH,
            &format!("{label}: cross-node bytes drop ~node_size x ({node})"),
            if reduction >= node as f64 * 0.9 {
                Ok(())
            } else {
                Err(format!(
                    "reduction {reduction:.2}x < 0.9 * node_size ({node})"
                ))
            },
        );
    }

    match report.write(std::path::Path::new(&out_dir)) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => ci::fail(BENCH, &e),
    }
}
