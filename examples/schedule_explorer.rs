//! Schedule explorer: print the simulated timeline of any strategy at any
//! (P, N) to see where its bubbles live.
//!
//! ```text
//! cargo run --release -p wp-examples --bin schedule_explorer -- \
//!     --strategy weipipe --ranks 4 --microbatches 8
//! ```
//!
//! Strategies: gpipe | 1f1b | zb1 | zb2 | fsdp | ddp | naive | weipipe |
//! wzb1 | wzb2 | hier. The hierarchical ring takes `--group <g>` (ranks
//! per replica ring, default `ranks / 2`) and prices on the multi-node
//! `ClusterSpec::scaling` layout so its inter-group hops cross real node
//! boundaries.
//!
//! To *search* the schedule space instead of inspecting one point, use the
//! autotuner this explorer grew into: `cargo run --release -p wp-bench
//! --bin tune` sweeps strategy × microbatches × W-lag × overlap × chunking
//! with the same simulator as oracle and reports the best validated
//! schedule per (model, cluster) pair.

use wp_sched::{build, validate, PipelineSpec, Strategy};
use wp_sim::render::ascii_timeline;
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, ModelDims, SimOptions};

fn parse_strategy(name: &str) -> Strategy {
    match name {
        "gpipe" => Strategy::GPipe,
        "1f1b" => Strategy::OneFOneB,
        "zb1" => Strategy::Zb1,
        "zb2" => Strategy::Zb2,
        "fsdp" => Strategy::Fsdp,
        "ddp" => Strategy::Ddp,
        "naive" => Strategy::WeiPipeNaive,
        "weipipe" => Strategy::WeiPipeInterleave,
        "wzb1" => Strategy::Wzb1,
        "wzb2" => Strategy::Wzb2,
        "hier" => Strategy::WeiPipeHier,
        other => panic!("unknown strategy '{other}'"),
    }
}

fn arg(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let strategy = parse_strategy(&arg(&args, "--strategy").unwrap_or_else(|| "weipipe".into()));
    let ranks: usize = arg(&args, "--ranks")
        .and_then(|v| v.parse().ok())
        .unwrap_or(4);
    let n: usize = arg(&args, "--microbatches")
        .and_then(|v| v.parse().ok())
        .unwrap_or(8);

    let group: Option<usize> = if strategy == Strategy::WeiPipeHier {
        Some(
            arg(&args, "--group")
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| (ranks / 2).max(2)),
        )
    } else {
        None
    };

    let mut spec = PipelineSpec::new(ranks, n);
    if let Some(g) = group {
        spec = spec.with_group(g);
    }
    let sched = build(strategy, spec);
    validate(&sched).expect("schedule is valid");
    let st = sched.stats();
    println!(
        "{} schedule: P={ranks}, N={n} — {} ops (F {}, B {}, b {}, w {}, U {}, send {}, recv {}, coll {})",
        strategy.label(),
        sched.total_ops(),
        st.fwd, st.bwd_full, st.bwd_data, st.bwd_weight, st.updates, st.sends, st.recvs,
        st.collectives
    );
    println!("compute balance per rank: {:?}\n", sched.compute_balance());
    let dims = ModelDims::paper(2048, 32, 4096, 4);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    // The hierarchical ring only makes sense on a multi-node layout: price
    // it with one node per replica group so the inter-group gradient hops
    // cross a genuinely slow link.
    let cluster = match group {
        Some(g) if g < ranks => ClusterSpec::scaling(ranks, g),
        _ => ClusterSpec::nvlink_island(ranks),
    };
    let result = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("simulates");
    println!("{}", ascii_timeline(&result, 120));
    println!("legend: F forward · B fused backward · b B-pass · w W-pass · U update · '·' idle");
}
