//! Schedule autotuner CLI: search the builder-knob space for the best
//! validated schedule per (model, cluster) pair, with the discrete-event
//! engine as cost oracle.
//!
//! It sweeps strategy × microbatches × W-lag × overlap × chunking × group
//! size ([`wp_bench::tune`]), reports each winner against the default
//! builder configuration, then times the DES on a 2048-simulated-rank grid
//! point — the one number here that is measured on the host, and the one
//! `ci/bench_floors.json` bounds (`tune.fleet_sim_s`).
//!
//! `--smoke` runs the CI-sized point and writes `bench_tune.json`; the full
//! sweep covers the three paper clusters and writes `bench_tune_full.json`.
//! With `--smoke --csv-dir results/csv` it rewrites `tune_smoke.csv`, which
//! `tests/golden_tables.rs` compares byte for byte: what the grid finds is a
//! deterministic fact, pinned by a test rather than floored by the gate.

use std::time::Instant;

use wp_bench::ci::{self, Report};
use wp_bench::tune::{points, tune_csv, Tuned};
use wp_bench::{flag_value, has_flag, write_csv_if_asked};
use wp_sched::{build, validate, PipelineSpec, Strategy};
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions};

const BENCH: &str = "tune";

/// The fleet-scale grid point: price a 2048-simulated-rank 1F1B schedule
/// through the DES engine and report the simulation wall time.
fn fleet_point(ranks: usize, microbatches: usize, report: &mut Report) {
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
}

fn main() {
    let smoke = has_flag("--smoke");
    let out_dir = flag_value("--out").unwrap_or_else(|| "results".to_string());
    // The smoke report (`bench_tune.json`) is the one the regression gate
    // floors reference; a full sweep writes `bench_tune_full.json` so it
    // never clobbers the gated contract with ungated numbers.
    let mut report = Report::new(if smoke { BENCH } else { "tune_full" });

    println!(
        "# wp-bench tune  ({})",
        if smoke { "smoke" } else { "full" }
    );

    let mut rows: Vec<Tuned> = Vec::new();
    for pt in &points(smoke) {
        let t = pt.tune().unwrap_or_else(|e| ci::fail(BENCH, &e));
        println!(
            "{:<14} best {:<28} {:>8.2} ms | default {:<22} {:>8.2} ms | gain x{:.3} | {} evaluated, {} infeasible",
            t.label,
            t.best.label(),
            t.best_s * 1e3,
            t.default.label(),
            t.default_s * 1e3,
            t.gain(),
            t.evaluated,
            t.infeasible,
        );
        report
            .metric(&format!("{}_best_iter_s", t.label), t.best_s)
            .metric(&format!("{}_default_iter_s", t.label), t.default_s)
            .metric(&format!("{}_gain", t.label), t.gain())
            .metric(&format!("{}_evaluated", t.label), t.evaluated as f64)
            .note(&format!("{}_best", t.label), &t.best.label());
        rows.push(t);
    }
    if smoke {
        write_csv_if_asked("tune_smoke.csv", &tune_csv(&rows));
    }

    // Fleet-scale point: 2048 simulated ranks through the DES engine, sized
    // so CI hardware prices it well under the 5 s the floors file allows.
    fleet_point(2048, if smoke { 128 } else { 256 }, &mut report);

    match report.write(std::path::Path::new(&out_dir)) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => ci::fail(BENCH, &e),
    }
}
