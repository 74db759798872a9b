//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! ```text
//! ablations                 # all
//! ablations --only crossover|overlap|interleave|bandwidth|memory
//! ```

use wp_comm::LinkModel;
use wp_sched::{analysis, build, PipelineSpec, Strategy};
use wp_sim::experiments::{
    hybrid_tp_sweep, run_cell, sim_options, straggler_sensitivity, RowConfig,
};
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, MemUnit, ModelDims, SimOptions};

/// Sweep the §3 crossover quantity `G·S/(12H)` and show where weight-passing
/// overtakes activation-passing in *simulated throughput*, not just bytes.
fn crossover() {
    println!("## Ablation: activation/weight crossover (H=2048, 16 GPUs, Ethernet)\n");
    println!(
        "{:>6} {:>4} {:>10} | {:>10} {:>10} {:>8}",
        "S", "G", "GS/(12H)", "1F1B", "WeiPipe", "winner"
    );
    let cluster = ClusterSpec::ethernet_16();
    for (seq, g) in [
        (512usize, 1usize),
        (1024, 2),
        (4096, 4),
        (8192, 8),
        (16384, 16),
    ] {
        let row = RowConfig {
            hidden: 2048,
            seq,
            microbatch: g,
        };
        let samples = 8 * cluster.ranks * g;
        let f1b = run_cell(Strategy::OneFOneB, row, 32, &cluster, samples);
        let wp = run_cell(Strategy::WeiPipeInterleave, row, 32, &cluster, samples);
        let ratio = analysis::crossover_ratio(g, seq, 2048);
        let winner = if wp.throughput > f1b.throughput {
            "WeiPipe"
        } else {
            "1F1B"
        };
        println!(
            "{seq:>6} {g:>4} {ratio:>10.3} | {:>10.0} {:>10.0} {winner:>8}",
            f1b.throughput, wp.throughput
        );
    }
    println!();
}

/// Communication/computation overlap on vs off (§4.3's `batch_isend_irecv`).
fn overlap() {
    println!("## Ablation: communication overlap (WeiPipe, H=2048, S=16384, Ethernet ring)\n");
    let p = 8;
    let sched = build(Strategy::WeiPipeInterleave, PipelineSpec::new(p, 32));
    let dims = ModelDims::paper(2048, 32, 16384, 4);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let cluster = ClusterSpec::scaling(p, 1); // every hop Ethernet
    for (label, opts) in [
        (
            "overlap ON ",
            SimOptions {
                overlap: true,
                ..Default::default()
            },
        ),
        (
            "overlap OFF",
            SimOptions {
                overlap: false,
                ..Default::default()
            },
        ),
    ] {
        let r = simulate(&sched, &cost, &cluster, opts).expect("simulates");
        println!(
            "{label}: iteration {:.2} s, bubble {:.1}%, throughput {:.0} tok/s/GPU",
            r.makespan,
            r.bubble_ratio * 100.0,
            r.throughput_tokens_per_gpu(&cost, 32)
        );
    }
    println!();
}

/// WeiPipe-Naive vs WeiPipe-Interleave (§4.2.2's two claims: halved traffic
/// per useful compute, lower bubble).
fn interleave() {
    println!("## Ablation: WeiPipe-Naive vs WeiPipe-Interleave (P=8, N=32, H=2048)\n");
    let p = 8;
    let dims = ModelDims::paper(2048, 32, 8192, 8);
    let cluster = ClusterSpec::nvlink_island(p);
    for strategy in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
        let sched = build(strategy, PipelineSpec::new(p, 32));
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let r = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("simulates");
        let bytes = analysis::total_traffic(&sched, &cost.byte_model());
        println!(
            "{:<18}: iteration {:.2} s, bubble {:>5.1}%, total weight traffic {:.1} GiB",
            strategy.label(),
            r.makespan,
            r.bubble_ratio * 100.0,
            bytes as f64 / (1u64 << 30) as f64
        );
    }
    println!();
}

/// Throughput as the inter-node link degrades NVLink → PCIe → 10 GbE.
fn bandwidth() {
    println!("## Ablation: inter-node bandwidth sweep (16 GPUs, H=2048, S=16384, G=4)\n");
    let row = RowConfig {
        hidden: 2048,
        seq: 16384,
        microbatch: 4,
    };
    println!(
        "{:>22} | {:>10} {:>10} {:>10}",
        "inter-node link", "1F1B", "FSDP", "WeiPipe"
    );
    for (label, inter) in [
        ("NVLink 400 GB/s", LinkModel::nvlink_a800()),
        ("PCIe4 32 GB/s", LinkModel::pcie4()),
        ("10 GbE 1.25 GB/s", LinkModel::ethernet_10g()),
    ] {
        let cluster = ClusterSpec {
            ranks: 16,
            node_size: 8,
            intra: LinkModel::nvlink_a800(),
            inter,
        };
        let samples = 8 * cluster.ranks * row.microbatch;
        let f1b = run_cell(Strategy::OneFOneB, row, 32, &cluster, samples);
        let fsdp = run_cell(Strategy::Fsdp, row, 32, &cluster, samples);
        let wp = run_cell(Strategy::WeiPipeInterleave, row, 32, &cluster, samples);
        println!(
            "{label:>22} | {:>10.0} {:>10.0} {:>10.0}",
            f1b.throughput, fsdp.throughput, wp.throughput
        );
    }
    println!();
}

/// Memory knobs: flash attention and recomputation (1F1B, worst rank).
fn memory() {
    println!("## Ablation: activation-memory knobs (1F1B, 16 GPUs, H=2048, S=8192, G=8)\n");
    let p = 16;
    let dims = ModelDims::paper(2048, 32, 8192, 8);
    let cluster = ClusterSpec::nvlink_16();
    for (label, recompute, flash) in [
        ("naive attn, no ckpt", false, false),
        ("flash attn, no ckpt", false, true),
        ("flash attn + ckpt  ", true, true),
    ] {
        let spec = if recompute {
            PipelineSpec::new(p, 8 * p)
        } else {
            PipelineSpec::new(p, 8 * p).without_recompute()
        };
        let sched = build(Strategy::OneFOneB, spec);
        let mut cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        cost.flash_attention = flash;
        let r =
            simulate(&sched, &cost, &cluster, sim_options(Strategy::OneFOneB)).expect("simulates");
        let peak = *r.peak_mem.iter().max().expect("ranks") as f64 / (1u64 << 30) as f64;
        let ctx_gib = cost.mem_unit_bytes(MemUnit::FwdCtx) as f64 / (1u64 << 30) as f64;
        println!(
            "{label}: peak {:>7.1} GiB (per-chunk ctx {:.2} GiB){}",
            peak,
            ctx_gib,
            if peak > 80.0 { "  -> OOM on A800" } else { "" }
        );
    }
    println!();
}

/// Hybrid WeiPipe × tensor parallelism on a fixed 32-GPU budget (the
/// paper's §7.3 future work, explored).
fn hybrid_tp() {
    println!("## Ablation: WeiPipe × TP hybrid (32 GPUs total, H=4096, S=16384, G=4)\n");
    println!(
        "{:>4} {:>6} | {:>12} {:>9}",
        "TP", "ring P", "tok/s/GPU", "bubble"
    );
    let row = RowConfig {
        hidden: 4096,
        seq: 16384,
        microbatch: 4,
    };
    for (tp, p, tput, bubble) in hybrid_tp_sweep(32, row, 32) {
        println!("{tp:>4} {p:>6} | {tput:>12.0} {:>8.1}%", bubble * 100.0);
    }
    println!(
        "(at this configuration pure WeiPipe wins: TP's per-layer all-reduces\n          and thin kernels cost more than the shorter pipeline saves)\n"
    );
}

/// One slow rank: how much does each strategy's iteration inflate?
fn straggler() {
    println!("## Ablation: straggler sensitivity (P=8, one rank 1.5× slower)\n");
    let rows = straggler_sensitivity(
        8,
        1.5,
        &[
            Strategy::OneFOneB,
            Strategy::Fsdp,
            Strategy::Ddp,
            Strategy::WeiPipeNaive,
            Strategy::WeiPipeInterleave,
        ],
    );
    for (s, inflation) in rows {
        println!("{:<18}: iteration time × {:.2}", s.label(), inflation);
    }
    println!("(ring-synchronous weight passing is as exposed as any bulk-\n synchronous scheme — a WeiPipe limitation worth knowing)\n");
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let only = args
        .iter()
        .position(|a| a == "--only")
        .and_then(|i| args.get(i + 1))
        .cloned();
    let run = |name: &str| only.as_deref().is_none_or(|o| o == name);
    if run("crossover") {
        crossover();
    }
    if run("overlap") {
        overlap();
    }
    if run("interleave") {
        interleave();
    }
    if run("bandwidth") {
        bandwidth();
    }
    if run("memory") {
        memory();
    }
    if run("hybrid-tp") {
        hybrid_tp();
    }
    if run("straggler") {
        straggler();
    }
}
