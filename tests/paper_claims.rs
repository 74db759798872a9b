//! The paper's evaluation claims, asserted against the calibrated
//! simulator: who wins where, by roughly what factor, and where the OOMs
//! fall. These are the acceptance tests for EXPERIMENTS.md.

use wp_sched::Strategy;
use wp_sim::experiments::{
    fig7_weak_large, fig9_strong_large, run_cell, table2, table4, RowConfig, TABLE_STRATEGIES,
};
use wp_sim::ClusterSpec;

fn cell(
    cells: &[wp_sim::experiments::CellResult],
    s: Strategy,
) -> &wp_sim::experiments::CellResult {
    cells
        .iter()
        .find(|c| c.strategy == s)
        .expect("strategy present")
}

#[test]
fn table2_weipipe_wins_every_row() {
    // Paper §6.1: "WeiPipe consistently demonstrates higher throughput
    // across almost all configurations" on the 16-GPU environment 1: the
    // `table2/*/tok_s` cells of results/paper_cells.csv.
    for (row, cells) in table2() {
        let wp = cell(&cells, Strategy::WeiPipeInterleave);
        assert!(!wp.oom, "WeiPipe must fit at {row:?}");
        for s in TABLE_STRATEGIES {
            if s == Strategy::WeiPipeInterleave {
                continue;
            }
            let c = cell(&cells, s);
            if c.oom {
                continue;
            }
            assert!(
                wp.throughput > c.throughput,
                "{row:?}: WeiPipe {:.0} must beat {} {:.0}",
                wp.throughput,
                s.label(),
                c.throughput
            );
        }
    }
}

#[test]
fn table2_headline_factors() {
    // Spot-check two of the paper's ratios, which results/scoreboard.txt
    // derives from the cells of results/paper_cells.csv: WeiPipe/1F1B in row
    // `table2/H2048-S4096-G16` and WeiPipe/FSDP in `table2/H4096-S16384-G4`.
    // Require the same direction within generous bands.
    let rows = table2();
    let r2048 = rows
        .iter()
        .find(|(r, _)| r.hidden == 2048 && r.seq == 4096)
        .expect("row exists");
    let wp = cell(&r2048.1, Strategy::WeiPipeInterleave).throughput;
    let f1b = cell(&r2048.1, Strategy::OneFOneB).throughput;
    let ratio = wp / f1b;
    assert!(
        (1.2..2.2).contains(&ratio),
        "H2048/S4096 WeiPipe/1F1B = {ratio:.2}"
    );

    let r4096 = rows
        .iter()
        .find(|(r, _)| r.hidden == 4096 && r.seq == 16384)
        .expect("row exists");
    let wp = cell(&r4096.1, Strategy::WeiPipeInterleave).throughput;
    let fsdp = cell(&r4096.1, Strategy::Fsdp).throughput;
    let ratio = wp / fsdp;
    assert!(
        (1.1..2.5).contains(&ratio),
        "H4096/S16384 WeiPipe/FSDP = {ratio:.2}"
    );
}

#[test]
fn table2_zb_memory_blowup_and_oom_pattern() {
    // Paper: ZB strategies OOM at large H (Flash-Attention makes their
    // retained activations dominate); 1F1B/FSDP/WeiPipe never OOM.
    for (row, cells) in table2() {
        assert!(!cell(&cells, Strategy::OneFOneB).oom, "{row:?}");
        assert!(!cell(&cells, Strategy::Fsdp).oom, "{row:?}");
        assert!(!cell(&cells, Strategy::WeiPipeInterleave).oom, "{row:?}");
        let zb1 = cell(&cells, Strategy::Zb1);
        let f1b = cell(&cells, Strategy::OneFOneB);
        assert!(
            zb1.mem_gib > 1.2 * f1b.mem_gib,
            "{row:?}: ZB1 {:.1} GiB should exceed 1F1B {:.1} GiB",
            zb1.mem_gib,
            f1b.mem_gib
        );
        if row.hidden == 4096 && row.seq != 8192 {
            assert!(cell(&cells, Strategy::Zb1).oom, "{row:?}: ZB1 should OOM");
            assert!(cell(&cells, Strategy::Zb2).oom, "{row:?}: ZB2 should OOM");
        }
    }
}

#[test]
fn weipipe_memory_is_close_to_1f1b_and_fsdp() {
    // Paper Table 2 (`table2/H1024-S4096-G16/*/mem_gib`): WeiPipe in FSDP's
    // class, slightly above it (bigger send/recv buffers).
    for (row, cells) in table2() {
        let wp = cell(&cells, Strategy::WeiPipeInterleave).mem_gib;
        let fsdp = cell(&cells, Strategy::Fsdp).mem_gib;
        assert!(
            wp >= fsdp && wp < fsdp * 1.5,
            "{row:?}: WeiPipe {wp:.1} GiB vs FSDP {fsdp:.1} GiB out of band"
        );
    }
}

#[test]
fn table4_baselines_can_win_the_fast_small_corner() {
    // Paper §6.1.3: on 8 GPUs all-NVLink with 16 layers, "conventional
    // methods may have advantages" — FSDP beats WeiPipe at H=1024/S=4096.
    let rows = table4();
    let first = rows
        .iter()
        .find(|(r, _)| r.hidden == 1024 && r.seq == 4096)
        .expect("row exists");
    let wp = cell(&first.1, Strategy::WeiPipeInterleave).throughput;
    let fsdp = cell(&first.1, Strategy::Fsdp).throughput;
    assert!(
        fsdp > wp,
        "small-scale NVLink corner: FSDP {fsdp:.0} should beat WeiPipe {wp:.0}"
    );
}

#[test]
fn weak_scaling_weipipe_holds_per_gpu_throughput_best() {
    // Figure 7: per-GPU throughput from 8 to 32 GPUs degrades least for
    // WeiPipe.
    let points = fig7_weak_large();
    let degradation = |s: Strategy| -> f64 {
        let first = cell(&points.first().expect("points").cells, s).throughput;
        let last = cell(&points.last().expect("points").cells, s).throughput;
        last / first
    };
    let wp = degradation(Strategy::WeiPipeInterleave);
    let f1b = degradation(Strategy::OneFOneB);
    let fsdp = degradation(Strategy::Fsdp);
    assert!(
        wp > f1b && wp > fsdp,
        "weak-scaling retention: WeiPipe {wp:.2} vs 1F1B {f1b:.2} vs FSDP {fsdp:.2}"
    );
}

#[test]
fn strong_scaling_weipipe_gains_most_from_added_gpus() {
    // Figure 9: fixed batch 256, 8→32 GPUs — WeiPipe's total throughput
    // scales best.
    let points = fig9_strong_large();
    let speedup = |s: Strategy| -> f64 {
        let first = &points.first().expect("points");
        let last = &points.last().expect("points");
        (cell(&last.cells, s).throughput * last.gpus as f64)
            / (cell(&first.cells, s).throughput * first.gpus as f64)
    };
    let wp = speedup(Strategy::WeiPipeInterleave);
    let f1b = speedup(Strategy::OneFOneB);
    let fsdp = speedup(Strategy::Fsdp);
    assert!(wp > 1.5, "WeiPipe must gain from 4× GPUs: {wp:.2}");
    assert!(
        wp >= f1b && wp >= fsdp,
        "strong scaling: WeiPipe {wp:.2} vs 1F1B {f1b:.2} vs FSDP {fsdp:.2}"
    );
}

#[test]
fn weipipe_memory_is_balanced_across_ranks_unlike_1f1b() {
    // §4.2.2: "WeiPipe-Interleave utilizes idle memory … leading to more
    // balanced memory utilization." In 1F1B, rank 0 keeps P microbatches'
    // activations in flight while the last rank keeps one; in WeiPipe every
    // worker's in-flight set is the same size.
    use wp_sched::{build, PipelineSpec, Strategy};
    use wp_sim::{simulate, CostModel, GpuSpec, ModelDims, SimOptions};
    let p = 8;
    let n = 32;
    let dims = ModelDims::paper(2048, 32, 8192, 8);
    let cluster = ClusterSpec::nvlink_island(p);
    // Compare raw activation residency (no checkpointing): the in-flight
    // depth difference is the point.
    let peaks = |strategy: Strategy| -> Vec<u64> {
        let sched = build(strategy, PipelineSpec::new(p, n).without_recompute());
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        simulate(&sched, &cost, &cluster, SimOptions::default())
            .expect("simulates")
            .peak_mem
    };
    let f1b = peaks(Strategy::OneFOneB);
    let skew_f1b = f1b[0] as f64 / f1b[p - 1] as f64;
    assert!(skew_f1b > 1.3, "1F1B rank 0 should carry more: {f1b:?}");
    let wp = peaks(Strategy::WeiPipeInterleave);
    let max = *wp.iter().max().expect("ranks") as f64;
    let min = *wp.iter().min().expect("ranks") as f64;
    assert!(max / min < 1.15, "WeiPipe memory should balance: {wp:?}");
}

#[test]
fn wzb2_approaches_zero_bubble() {
    // §4.2.3.2: WZB2's seamless handover nearly eliminates the bubble
    // relative to WeiPipe-Interleave at the same configuration.
    let row = RowConfig {
        hidden: 2048,
        seq: 8192,
        microbatch: 8,
    };
    let cluster = ClusterSpec::nvlink_island(8);
    let wp = run_cell(Strategy::WeiPipeInterleave, row, 32, &cluster, 8 * 8 * 8);
    let wzb2 = run_cell(Strategy::Wzb2, row, 32, &cluster, 8 * 8 * 8);
    assert!(
        wzb2.bubble_ratio < wp.bubble_ratio,
        "WZB2 bubble {:.3} should undercut WeiPipe-Interleave {:.3}",
        wzb2.bubble_ratio,
        wp.bubble_ratio
    );
}
