//! Schedule autotuner CLI: search the builder-knob space for the best
//! validated schedule per (model, cluster) pair, with the discrete-event
//! engine as cost oracle.
//!
//! It sweeps strategy × microbatches × W-lag × overlap × chunking × group
//! size ([`wp_bench::tune`]), reports each winner against the default
//! builder configuration, then times the DES on a 2048-simulated-rank grid
//! point — the one number here that is measured on the host, and the one
//! with a bound: a run whose fleet point takes longer than [`FLEET_SIM_S`]
//! allows exits 1 with a `wp-bench tune: FAIL: …` line.
//!
//! `--smoke` runs the CI-sized point; the full sweep covers the three paper
//! clusters. What the grid finds at the smoke point is a deterministic
//! fact: the `results` binary writes it to `results/csv/tune_smoke.csv`,
//! and `tests/golden_tables.rs` pins it rather than a bound here.

use std::time::Instant;

use wp_bench::tune::points;
use wp_bench::{fail, has_flag};
use wp_sched::{build, validate, PipelineSpec, Strategy};
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions};

const BENCH: &str = "tune";

/// The bound on the fleet point, as `(bound, ceiling in seconds)`: the
/// 2-vCPU reference host prices it in about 0.5 s at `--smoke`'s N = 128
/// and about 0.9 s at the full sweep's N = 256.
const FLEET_SIM_S: (&str, f64) = ("tune.fleet_sim_s", 5.0);

/// The fleet-scale grid point: price a 2048-simulated-rank 1F1B schedule
/// through the DES engine and check the simulation wall time.
fn fleet_point(ranks: usize, microbatches: usize) {
    let spec = PipelineSpec::new(ranks, microbatches);
    let schedule = build(Strategy::OneFOneB, spec);
    if let Err(e) = validate(&schedule) {
        fail(BENCH, &format!("fleet schedule invalid: {e}"));
    }
    let dims = ModelDims::paper(2048, 32, 4096, 4);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &schedule);
    let cluster = ClusterSpec::nvlink_island(ranks);
    let t0 = Instant::now();
    let r = match simulate(&schedule, &cost, &cluster, SimOptions::default()) {
        Ok(r) => r,
        Err(e) => fail(BENCH, &format!("fleet simulation failed: {e}")),
    };
    let sim_s = t0.elapsed().as_secs_f64();
    println!(
        "fleet          P={ranks} N={microbatches} 1F1B: iter {:.2} s, bubble {:.3}, DES wall {:.2} s",
        r.makespan, r.bubble_ratio, sim_s
    );
    let (bound, ceiling) = FLEET_SIM_S;
    println!("bound          {bound} {sim_s:.2} s  (ceiling {ceiling} s)");
    if sim_s > ceiling {
        fail(
            BENCH,
            &format!("{bound} = {sim_s:.2} s is above its ceiling {ceiling} s"),
        );
    }
}

fn main() {
    let smoke = has_flag("--smoke");
    println!(
        "# wp-bench tune  ({})",
        if smoke { "smoke" } else { "full" }
    );

    for pt in &points(smoke) {
        let t = pt.tune().unwrap_or_else(|e| fail(BENCH, &e));
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
    }

    fleet_point(2048, if smoke { 128 } else { 256 });
}
