//! Schedule autotuner CLI: search the builder-knob space for the best
//! validated schedule per (model, cluster) pair, with the discrete-event
//! engine as cost oracle.
//!
//! This is the productionized successor of `examples/schedule_explorer`:
//! instead of printing one hand-picked schedule, it sweeps strategy ×
//! microbatches × W-lag × overlap × chunking, reports the winner against
//! the default builder configuration, and emits a machine-readable
//! `results/bench_tune.json` for the CI regression gate.
//!
//! `--smoke` runs the CI-sized grid and asserts the contract the CI job
//! relies on: (a) the chosen schedule strictly beats the default builder
//! schedule's simulated cost, and (b) the DES engine prices a
//! 2048-simulated-rank grid point in under five seconds. Failures exit
//! nonzero with a one-line reason.
//!
//! `--emit-setup` closes the loop from tuner to runtime: it grid-tunes a
//! runtime-sized point restricted to executable strategies, hands the
//! winning `Candidate` to `TrainSetup::from_candidate`, asserts the
//! runtime rebuilds the tuned schedule op-for-op, and then *trains* it —
//! distributed vs single-process reference — with the traffic and
//! closeness guard rails the conformance suite uses.

use std::time::Instant;

use wp_bench::ci::{self, Report};
use wp_sched::tune::{grid, Candidate, CostOracle, TuneSpace};
use wp_sched::{build, validate, PipelineSpec, Strategy, ALL_STRATEGIES};
use wp_sim::tune::DesOracle;
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions};

const BENCH: &str = "tune";

/// One (model, cluster) point to tune.
struct Point {
    label: &'static str,
    oracle: DesOracle,
    space: TuneSpace,
}

fn point(label: &'static str, cluster: ClusterSpec, dims: ModelDims, global_batch: usize) -> Point {
    let p = cluster.ranks;
    let oracle = DesOracle::new(dims, GpuSpec::a800(), cluster, global_batch);
    let space = TuneSpace {
        ranks: p,
        strategies: ALL_STRATEGIES.to_vec(),
        microbatches: vec![p, 2 * p, 4 * p],
        w_lags: vec![1, 2, p / 2, p],
        chunk_counts: vec![2, p / 2, 2 * p],
        // Flat vs grouped: the cluster's own island size plus a half-world
        // split (enumerate drops whichever does not divide P).
        group_sizes: vec![cluster.node_size, p / 2],
        overlap: vec![true, false],
    };
    Point {
        label,
        oracle,
        space,
    }
}

/// Tune one point with the grid searcher and report winner vs the default
/// builder schedule (WeiPipe interleaved at `N = P`, the configuration the
/// runtime would otherwise hard-code). Returns `(best_s, default_s)`.
fn tune_point(pt: &Point, report: &mut Report) -> (f64, f64) {
    let p = pt.oracle.cluster.ranks;
    let out = match grid(&pt.space, &pt.oracle) {
        Some(out) => out,
        None => ci::fail(
            BENCH,
            &format!("{}: no feasible candidate in the space", pt.label),
        ),
    };
    let default = Candidate::default_for(Strategy::WeiPipeInterleave, p);
    let base = match pt.oracle.evaluate(&default) {
        Ok(base) => base,
        Err(e) => ci::fail(
            BENCH,
            &format!("{}: default schedule failed: {e}", pt.label),
        ),
    };
    println!(
        "{:<14} best {:<28} {:>8.2} ms | default {:<22} {:>8.2} ms | gain x{:.3} | {} evaluated, {} infeasible",
        pt.label,
        out.best.label(),
        out.cost.iter_s * 1e3,
        default.label(),
        base.iter_s * 1e3,
        base.iter_s / out.cost.iter_s,
        out.evaluated,
        out.infeasible,
    );
    report
        .metric(&format!("{}_best_iter_s", pt.label), out.cost.iter_s)
        .metric(&format!("{}_default_iter_s", pt.label), base.iter_s)
        .metric(&format!("{}_gain", pt.label), base.iter_s / out.cost.iter_s)
        .metric(&format!("{}_evaluated", pt.label), out.evaluated as f64)
        .note(&format!("{}_best", pt.label), &out.best.label());
    (out.cost.iter_s, base.iter_s)
}

/// The fleet-scale grid point: price a 2048-simulated-rank 1F1B schedule
/// through the DES engine and return the simulation wall time.
fn fleet_point(ranks: usize, microbatches: usize, report: &mut Report) -> f64 {
    let spec = PipelineSpec::new(ranks, microbatches);
    let schedule = build(Strategy::OneFOneB, spec);
    if let Err(e) = validate(&schedule) {
        ci::fail(BENCH, &format!("fleet schedule invalid: {e}"));
    }
    let dims = ModelDims::paper(2048, 32, 4096, 4);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &schedule);
    let cluster = ClusterSpec::nvlink_island(ranks);
    let t0 = Instant::now();
    let r = match simulate(&schedule, &cost, &cluster, SimOptions::default()) {
        Ok(r) => r,
        Err(e) => ci::fail(BENCH, &format!("fleet simulation failed: {e}")),
    };
    let sim_s = t0.elapsed().as_secs_f64();
    println!(
        "fleet          P={ranks} N={microbatches} 1F1B: iter {:.2} s, bubble {:.3}, DES wall {:.2} s",
        r.makespan, r.bubble_ratio, sim_s
    );
    report
        .metric("fleet_ranks", ranks as f64)
        .metric("fleet_sim_s", sim_s)
        .metric("fleet_iter_s", r.makespan)
        .metric("fleet_bubble", r.bubble_ratio);
    sim_s
}

/// The tuner→runtime round trip behind `--emit-setup`: tune a
/// runtime-executable point, turn the winner into a `TrainSetup` via
/// `from_candidate`, prove schedule parity with the tuner's own spec, and
/// train it end-to-end against the single-process reference.
fn emit_setup_check(report: &mut Report) {
    let p = 4;
    let oracle = DesOracle::new(
        ModelDims::paper(1024, 12, 2048, 4),
        GpuSpec::a800(),
        ClusterSpec::nvlink_island(p),
        16,
    );
    // Only knobs the runtime executes: every strategy in the space has an
    // interpreter, and layer/microbatch counts fit the tiny train model.
    let space = TuneSpace {
        ranks: p,
        strategies: weipipe::runtime_strategies(),
        microbatches: vec![p, 2 * p],
        w_lags: vec![1, 2],
        chunk_counts: vec![2],
        group_sizes: vec![p, p / 2],
        overlap: vec![true],
    };
    let out = match grid(&space, &oracle) {
        Some(out) => out,
        None => ci::fail(BENCH, "emit-setup: no feasible runtime candidate"),
    };
    let winner = out.best;
    if let Err(e) = winner.check(p) {
        ci::fail(BENCH, &format!("emit-setup: winner fails check: {e}"));
    }
    let setup = weipipe::TrainSetup::from_candidate(&winner);
    let from_setup = weipipe::build_schedule(winner.strategy, p, &setup);
    let from_tuner = build(winner.strategy, winner.spec(p));
    ci::check(
        BENCH,
        "emit-setup: runtime rebuilds the tuned schedule op-for-op",
        if format!("{:?}", from_setup.ops) == format!("{:?}", from_tuner.ops) {
            Ok(())
        } else {
            Err(format!("{}: op streams differ", winner.label()))
        },
    );
    let reference = weipipe::run_single(&setup);
    let trained = match weipipe::run_distributed(winner.strategy, p, &setup) {
        Ok(out) => out,
        Err(e) => ci::fail(
            BENCH,
            &format!("emit-setup: tuned setup failed to train: {e}"),
        ),
    };
    let loss_diff = trained.max_loss_diff(&reference);
    ci::check(
        BENCH,
        "emit-setup: tuned setup trains to the reference",
        if loss_diff < 2e-4 && trained.bytes_sent > 0 {
            Ok(())
        } else {
            Err(format!(
                "loss diff {loss_diff:.2e}, {} B sent",
                trained.bytes_sent
            ))
        },
    );
    println!(
        "emit-setup     winner {:<28} trained {} iters on {p} ranks: loss diff {loss_diff:.2e}, {} B sent",
        winner.label(),
        setup.iters,
        trained.bytes_sent,
    );
    report
        .metric("emit_setup_loss_diff", f64::from(loss_diff))
        .metric("emit_setup_bytes_sent", trained.bytes_sent as f64)
        .note("emit_setup_winner", &winner.label());
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let out_dir = wp_bench::flag_value("--out").unwrap_or_else(|| "results".to_string());
    // The smoke report (`bench_tune.json`) is the one the regression gate
    // floors reference; a full sweep writes `bench_tune_full.json` so it
    // never clobbers the gated contract with ungated numbers.
    let mut report = Report::new(if smoke { BENCH } else { "tune_full" });

    println!(
        "# wp-bench tune  ({})",
        if smoke { "smoke" } else { "full" }
    );

    let points = if smoke {
        vec![point(
            "smoke",
            ClusterSpec::nvlink_island(8),
            ModelDims::paper(2048, 16, 4096, 4),
            32,
        )]
    } else {
        vec![
            point(
                "nvlink16",
                ClusterSpec::nvlink_16(),
                ModelDims::paper(4096, 32, 16384, 4),
                64,
            ),
            point(
                "ethernet16",
                ClusterSpec::ethernet_16(),
                ModelDims::paper(4096, 32, 16384, 4),
                64,
            ),
            point(
                "nvlink8",
                ClusterSpec::nvlink_8(),
                ModelDims::paper(2048, 32, 65536, 1),
                32,
            ),
        ]
    };

    let mut worst_gain = f64::INFINITY;
    for pt in &points {
        let (best_s, default_s) = tune_point(pt, &mut report);
        worst_gain = worst_gain.min(default_s / best_s);
    }
    report.metric("tuned_gain", worst_gain);

    if std::env::args().any(|a| a == "--emit-setup") {
        emit_setup_check(&mut report);
    }

    // Fleet-scale point: 2048 simulated ranks through the DES engine. The
    // microbatch count is sized so CI hardware prices it well under the
    // 5 s budget the acceptance gate enforces (the floors file caps
    // `tune.fleet_sim_s`).
    let fleet_n = if smoke { 128 } else { 256 };
    let sim_s = fleet_point(2048, fleet_n, &mut report);

    if smoke {
        ci::check(
            BENCH,
            "tuned schedule strictly beats the default builder schedule",
            if worst_gain > 1.0 {
                Ok(())
            } else {
                Err(format!("gain x{worst_gain:.4} is not > 1"))
            },
        );
        ci::check(
            BENCH,
            "2048-rank grid point under 5 s",
            if sim_s < 5.0 {
                Ok(())
            } else {
                Err(format!("DES wall {sim_s:.2} s >= 5 s"))
            },
        );
    }

    match report.write(std::path::Path::new(&out_dir)) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => ci::fail(BENCH, &e),
    }
}
