//! Commodity-cluster scenario from the paper's introduction: you have two
//! GPU boxes joined by ordinary 10 Gb Ethernet and want to train a
//! long-context model across them. Which strategy survives the slow link?
//!
//! Uses the calibrated simulator at the paper's full scale (16×A800,
//! H=2048, S=16384), then demonstrates the same effect live by pacing the
//! thread runtime's links.
//!
//! ```text
//! cargo run --release -p wp-examples --bin commodity_cluster
//! ```

use std::time::Instant;
use weipipe::{run_distributed, OptimKind, Strategy, TrainSetup};
use wp_comm::LinkModel;
use wp_nn::ModelConfig;
use wp_sim::experiments::{run_cell, RowConfig};
use wp_sim::ClusterSpec;

fn main() {
    // --- Part 1: paper-scale simulation --------------------------------
    println!("## Simulated: 16×A800, two NVLink boxes, inter-box link sweep");
    println!("   (H=2048, S=16384, G=4, 32 layers — tokens/s/GPU)\n");
    println!(
        "{:>20} | {:>8} {:>8} {:>8}",
        "inter-box link", "1F1B", "FSDP", "WeiPipe"
    );
    let row = RowConfig {
        hidden: 2048,
        seq: 16384,
        microbatch: 4,
    };
    for (name, inter) in [
        ("NVLink 400 GB/s", LinkModel::nvlink_a800()),
        ("10 GbE 1.25 GB/s", LinkModel::ethernet_10g()),
    ] {
        let cluster = ClusterSpec {
            ranks: 16,
            node_size: 8,
            intra: LinkModel::nvlink_a800(),
            inter,
        };
        let samples = 8 * 16 * row.microbatch;
        let f1b = run_cell(Strategy::OneFOneB, row, 32, &cluster, samples);
        let fsdp = run_cell(Strategy::Fsdp, row, 32, &cluster, samples);
        let wp = run_cell(Strategy::WeiPipeInterleave, row, 32, &cluster, samples);
        println!(
            "{name:>20} | {:>8.0} {:>8.0} {:>8.0}",
            f1b.throughput, fsdp.throughput, wp.throughput
        );
    }

    // --- Part 2: live, with paced links ---------------------------------
    // A small model whose *activations* dominate its weights (long S, tiny
    // H), trained over links throttled enough that the difference is
    // visible in wall-clock on a laptop.
    // Above the §3 crossover (G·S = 2048 > 18·H·L/P = 576), so the weight
    // pipeline moves fewer bytes per microbatch than the activation pipe.
    println!("\n## Live: 4 ranks, links paced to 60 MB/s, H=32, S=256, G=8\n");
    let mut setup = TrainSetup::tiny(4, 8);
    setup.model = ModelConfig::llama_like(32, 2, 4, 64, 256);
    setup.seed = 9;
    setup.microbatch = 8;
    setup.seq = 256;
    setup.iters = 1;
    setup.optim = OptimKind::Sgd { lr: 0.1 };
    setup.link = LinkModel {
        bandwidth_bps: 60e6,
        latency_s: 2e-4,
    };
    for strategy in [Strategy::OneFOneB, Strategy::WeiPipeInterleave] {
        let t0 = Instant::now();
        let out = run_distributed(strategy, 4, &setup).expect("healthy world");
        println!(
            "{:<18} wall {:>6.2?}  bytes {:>10}  final loss {:.4}",
            strategy.label(),
            t0.elapsed(),
            out.bytes_sent,
            out.losses.last().expect("ran")
        );
    }
    println!("\nSame model, same data, same loss — different wires.");
}
