//! Trace a real WeiPipe training run and compare it against the simulator.
//!
//! Runs one traced iteration of WeiPipe-Interleave on 4 rank threads,
//! renders the *measured* timeline with the same ASCII Gantt renderer the
//! simulator uses, and prints the measured-vs-simulated drift report
//! (per-phase bubble, per-class busy shares).
//!
//! ```text
//! cargo run --release -p wp-bench --bin trace -- \
//!     [--trace-out trace.json] [--validate] [--ranks 4] [--microbatches 8] \
//!     [--blocking]
//! ```
//!
//! `--trace-out` writes the Chrome trace-event JSON (open at
//! <https://ui.perfetto.dev>); `--validate` re-parses the export and checks
//! the measured spans against the schedule's dependency graph
//! (`wp_sim::check_timeline`), failing the process if either is off — the
//! CI smoke check.

use weipipe::{run_distributed, Strategy, TraceConfig, TrainSetup};
use wp_bench::drift::{export_chrome_trace, print_against_sim};
use wp_bench::{flag_value, has_flag};

fn main() {
    let trace_out = flag_value("--trace-out");
    let validate = has_flag("--validate");
    let ranks: usize = flag_value("--ranks").map_or(4, |v| v.parse().expect("--ranks"));
    let microbatches: usize =
        flag_value("--microbatches").map_or(2 * ranks, |v| v.parse().expect("--microbatches"));
    // `--blocking` traces the blocking weight ring instead of the default
    // overlapped one, on both the measured and simulated
    // sides — so the drift report can compare overlap against its ablation.
    let overlap = !has_flag("--blocking");

    // One traced iteration of a real run. Layers = ranks keeps the tiny
    // model legal for any P.
    let mut setup = TrainSetup::tiny(ranks, microbatches).with_overlap(overlap);
    setup.iters = 1;
    setup.trace = TraceConfig::on();
    let strategy = Strategy::WeiPipeInterleave;
    println!(
        "tracing {strategy:?}: P={ranks}, {microbatches} microbatches, 1 iteration, {} ring…\n",
        if overlap { "overlapped" } else { "blocking" }
    );
    let out = run_distributed(strategy, ranks, &setup).expect("healthy world");
    let trace = out.trace.as_ref().expect("tracing was enabled");
    let schedule = weipipe::build_schedule(strategy, ranks, &setup);
    print_against_sim(
        &format!("Measured vs simulated — {strategy:?}, P={ranks}"),
        trace,
        &schedule,
    );
    // Rank threads share one clock, so cross-rank causality is exact: every
    // compute span must start after the spans the schedule's dependency
    // graph puts before it have ended.
    let causal = if validate {
        let graph = wp_sched::DepGraph::build(&schedule).expect("the runtime validated it");
        wp_sim::check_timeline(&graph, &wp_sim::measured_result(trace))
            .map(|()| {
                println!("validated timeline: every compute span follows its graph ancestors")
            })
            .map_err(|e| format!("measured timeline breaks the dependency graph: {e}"))
    } else {
        Ok(())
    };
    let exported = export_chrome_trace(trace, validate, trace_out.as_deref());
    if let Err(e) = causal.and(exported) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}
