//! Flat-vs-hierarchical WeiPipe comparison: the TawPipe-style claim that
//! topology-aware grouped weight rings beat the flat world-spanning ring on
//! clusters with a slow inter-node hop.
//!
//! Prints [`hier_flat_vs_grouped`] — per calibrated cluster, the flat
//! WeiPipe default, the island-grouped WeiPipe-Hier schedule and the best
//! grouped candidate of a grid search, at a fixed global batch — and with
//! `--csv-dir results/csv` rewrites `hier.csv`, which
//! `tests/golden_tables.rs` compares byte for byte.

use wp_bench::{hier_csv, write_csv_if_asked};
use wp_sim::experiments::hier_flat_vs_grouped;

fn main() {
    let cells = hier_flat_vs_grouped();
    println!("# wp-bench hier");
    for c in &cells {
        println!(
            "{:<12} flat {:>8.2} ms ({:>6.1} MB x-node) | grouped {:>8.2} ms | tuned {:<26} {:>8.2} ms ({:>6.1} MB x-node) | speedup x{:.3} | x-node /{:.1}",
            c.label,
            c.flat_s * 1e3,
            c.flat_xnode_bytes as f64 / 1e6,
            c.grouped_s * 1e3,
            c.tuned.label(),
            c.tuned_s * 1e3,
            c.tuned_xnode_bytes as f64 / 1e6,
            c.speedup(),
            c.xnode_reduction(),
        );
    }
    write_csv_if_asked("hier.csv", &hier_csv(&cells));
}
