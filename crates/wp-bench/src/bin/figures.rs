//! Regenerate the paper's Figures 1–5.
//!
//! Figures 1–4 are the schedule diagrams (WeiPipe-Naive, WeiPipe-Interleave,
//! WZB-1, WZB-2) rendered from simulated timelines at the paper's
//! illustrative scale (P = 4). Figure 5 is the §3.4 bubble-ratio
//! comparison. ASCII is printed; SVGs are written beside the binary when
//! `--svg-dir <dir>` is given.
//!
//! ```text
//! figures                 # all
//! figures --fig 2         # one
//! figures --svg-dir out/  # also write SVG files
//! ```

use wp_sched::{build, PipelineSpec, Strategy};
use wp_sim::experiments::fig5_bubble_vs_microbatches;
use wp_sim::render::{ascii_timeline, svg_timeline};
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions};

fn schedule_figure(strategy: Strategy) -> wp_sim::SimResult {
    let p = 4;
    let sched = build(strategy, PipelineSpec::new(p, 8));
    let dims = ModelDims::paper(2048, 4, 4096, 4);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let cluster = ClusterSpec::nvlink_island(p);
    simulate(&sched, &cost, &cluster, SimOptions::default()).expect("figure schedule simulates")
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let which = args
        .iter()
        .position(|a| a == "--fig")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse::<u32>().ok());
    let svg_dir = args
        .iter()
        .position(|a| a == "--svg-dir")
        .and_then(|i| args.get(i + 1))
        .cloned();

    let figs = [
        (
            1u32,
            Strategy::WeiPipeNaive,
            "Figure 1 — WeiPipe-Naive schedule (P=4)",
        ),
        (
            2,
            Strategy::WeiPipeInterleave,
            "Figure 2 — WeiPipe-Interleave schedule (P=4)",
        ),
        (
            3,
            Strategy::Wzb1,
            "Figure 3 — WeiPipe-zero-bubble 1 (WZB1) schedule (P=4)",
        ),
        (
            4,
            Strategy::Wzb2,
            "Figure 4 — WeiPipe-zero-bubble 2 (WZB2) schedule (P=4)",
        ),
    ];
    for (id, strategy, title) in figs {
        if which.is_some() && which != Some(id) {
            continue;
        }
        let result = schedule_figure(strategy);
        println!("## {title}\n");
        println!("{}", ascii_timeline(&result, 112));
        if let Some(dir) = &svg_dir {
            std::fs::create_dir_all(dir).expect("create svg dir");
            let path = format!("{dir}/fig{id}_{}.svg", strategy.label().to_lowercase());
            std::fs::write(&path, svg_timeline(&result, 1200)).expect("write svg");
            println!("(SVG written to {path})");
        }
        println!();
    }

    if which.is_none() || which == Some(5) {
        println!("## Figure 5 — bubble ratio vs microbatch count (P=8, §3.4 comparison)\n");
        for (n, cells) in fig5_bubble_vs_microbatches(8) {
            print!("N={n:>3}: ");
            for (s, b) in cells {
                print!("{}={:.1}%  ", s.label(), b * 100.0);
            }
            println!();
        }
    }
}
