//! Experiment runners: one function per table/figure of the paper's
//! evaluation (§5–6). The bench binaries print these; integration tests
//! assert the qualitative shape (who wins, where OOMs appear, how scaling
//! curves bend).

use crate::cluster::ClusterSpec;
use crate::cost::{CostModel, GpuSpec, ModelDims};
use crate::engine::{simulate, SimOptions, SimResult};
use crate::tune::DesOracle;
use wp_sched::tune::{grid, Candidate, TuneSpace};
use wp_sched::{build, PipelineSpec, Strategy};

/// Result of one (strategy × configuration) cell.
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Strategy simulated.
    pub strategy: Strategy,
    /// Tokens/second/GPU.
    pub throughput: f64,
    /// Worst-rank peak memory in GiB.
    pub mem_gib: f64,
    /// Exceeds the A800's 80 GB.
    pub oom: bool,
    /// Compute-idle fraction.
    pub bubble_ratio: f64,
    /// Mean bytes each rank sent (P2P + collective), for TBW analysis.
    pub bytes_per_rank: f64,
}

impl CellResult {
    /// Table cell: throughput or "OOM".
    pub fn throughput_str(&self) -> String {
        if self.oom {
            "OOM".to_string()
        } else {
            format!("{:.0}", self.throughput)
        }
    }
}

/// One model-configuration row of a table.
#[derive(Debug, Clone, Copy)]
pub struct RowConfig {
    /// Hidden size.
    pub hidden: usize,
    /// Sequence length.
    pub seq: usize,
    /// Microbatch size (non-ZB strategies).
    pub microbatch: usize,
}

/// The strategies the paper's tables compare, in column order.
pub const TABLE_STRATEGIES: [Strategy; 5] = [
    Strategy::OneFOneB,
    Strategy::Zb1,
    Strategy::Zb2,
    Strategy::Fsdp,
    Strategy::WeiPipeInterleave,
];

/// The paper's microbatch cap for ZB strategies (§6.1): `G = 4` at
/// `S = 4096`, `G = 1` beyond — ZB cannot afford large microbatches.
pub fn zb_microbatch(seq: usize) -> usize {
    if seq <= 4096 {
        4
    } else {
        1
    }
}

/// Recompute setting per strategy: everything checkpoints except ZB, where
/// the paper notes recomputation buys nothing (§4.3).
pub fn uses_recompute(strategy: Strategy) -> bool {
    !strategy.shape().split_backward
}

/// The schedule spec every paper-reproduction cell uses. Pins the
/// *blocking* weight ring: the paper's measured tables are reproduced by
/// the engine-level overlap model ([`sim_options`]), which was calibrated
/// against the published numbers. The schedule-level `PrePost`/`WaitReq`
/// overlap (the runtime default) would stack on top of that model and
/// over-predict WeiPipe against the paper's own measurements — it is
/// measured separately (the repo benchmark's `ether` workload; `wp-bench
/// trace --blocking` traces the ablation).
pub fn paper_spec(strategy: Strategy, p: usize, n: usize) -> PipelineSpec {
    let spec = PipelineSpec::new(p, n).with_overlap(false);
    if uses_recompute(strategy) {
        spec
    } else {
        spec.without_recompute()
    }
}

/// Simulator options per strategy. Megatron-LM's activation-passing
/// pipelines expose their P2P time (communication happens synchronously
/// between compute steps), and DeepSpeed ZeRO-3's parameter gathers are
/// largely exposed in practice — modelling both as non-overlapped predicts
/// the paper's measured 1F1B and FSDP throughput within a few percent
/// (e.g. FSDP at H=2048/S=4096 measures 4104 tok/s/GPU; exposed-collective
/// arithmetic gives ≈4175). Overlapping weight prefetch with compute is the
/// WeiPipe implementation's contribution (§4.3).
pub fn sim_options(strategy: Strategy) -> SimOptions {
    SimOptions {
        overlap: !matches!(
            strategy,
            Strategy::GPipe | Strategy::OneFOneB | Strategy::Zb1 | Strategy::Zb2 | Strategy::Fsdp
        ),
        ..Default::default()
    }
}

/// Simulate one cell. `total_samples` is the global batch in sequences; the
/// microbatch count adapts to each strategy's `G` so every strategy
/// processes identical tokens.
pub fn run_cell(
    strategy: Strategy,
    row: RowConfig,
    layers: usize,
    cluster: &ClusterSpec,
    total_samples: usize,
) -> CellResult {
    let p = cluster.ranks;
    let g = match strategy {
        Strategy::Zb1 | Strategy::Zb2 => zb_microbatch(row.seq).min(row.microbatch),
        _ => row.microbatch,
    };
    // Weight-passing and data-parallel builders need N to be a multiple of
    // P; round up so every strategy sees ≥ the same tokens.
    let n = (total_samples / g).max(1).div_ceil(p) * p;

    let spec = paper_spec(strategy, p, n);
    let sched = build(strategy, spec);
    let dims = ModelDims::paper(row.hidden, layers, row.seq, g);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let result = simulate(&sched, &cost, cluster, sim_options(strategy))
        .unwrap_or_else(|e| panic!("{strategy:?} {row:?}: {e}"));
    summarize(strategy, &result, &cost, n)
}

fn summarize(strategy: Strategy, r: &SimResult, cost: &CostModel, n: usize) -> CellResult {
    let peak = *r.peak_mem.iter().max().expect("ranks") as f64;
    let bytes: f64 = r
        .p2p_bytes
        .iter()
        .zip(&r.collective_bytes)
        .map(|(a, b)| (a + b) as f64)
        .sum::<f64>()
        / r.busy.len() as f64;
    CellResult {
        strategy,
        throughput: r.throughput_tokens_per_gpu(cost, n),
        mem_gib: peak / (1u64 << 30) as f64,
        oom: r.oom(cost.gpu.mem_bytes),
        bubble_ratio: r.bubble_ratio,
        bytes_per_rank: bytes,
    }
}

/// The (H, S, G) grid shared by Tables 2 and 3.
pub fn table_grid() -> Vec<RowConfig> {
    let mut rows = Vec::new();
    for hidden in [1024usize, 2048, 4096] {
        for (seq, g) in [(4096usize, 16usize), (8192, 8), (16384, 4)] {
            rows.push(RowConfig {
                hidden,
                seq,
                microbatch: g,
            });
        }
    }
    rows
}

/// Table 2: 16×A800, NVLink, 32 layers — throughput and memory.
pub fn table2() -> Vec<(RowConfig, Vec<CellResult>)> {
    run_table(&ClusterSpec::nvlink_16(), 32)
}

/// Table 3: 16×A800 across 4 clusters, PCIe inside + 10 GbE between.
pub fn table3() -> Vec<(RowConfig, Vec<CellResult>)> {
    run_table(&ClusterSpec::ethernet_16(), 32)
}

/// Table 4: 8×A800, NVLink, 16 layers — the small/fast corner where
/// baselines can win.
pub fn table4() -> Vec<(RowConfig, Vec<CellResult>)> {
    run_table(&ClusterSpec::nvlink_8(), 16)
}

fn run_table(cluster: &ClusterSpec, layers: usize) -> Vec<(RowConfig, Vec<CellResult>)> {
    table_grid()
        .into_iter()
        .map(|row| {
            // 8 microbatches per rank for the reference strategies — deep
            // enough that pipeline fill/drain is amortized, like the paper's
            // steady-state measurements.
            let total_samples = 8 * cluster.ranks * row.microbatch;
            let cells = TABLE_STRATEGIES
                .iter()
                .map(|&s| run_cell(s, row, layers, cluster, total_samples))
                .collect();
            (row, cells)
        })
        .collect()
}

/// One point of a scaling figure.
#[derive(Debug, Clone)]
pub struct ScalingPoint {
    /// GPUs used.
    pub gpus: usize,
    /// Global batch (sequences).
    pub batch: usize,
    /// Per-strategy results.
    pub cells: Vec<CellResult>,
}

/// Figure 6: small-scale weak scaling — 4→16 GPUs (4 per server, Ethernet
/// between), batch 64→256, 16 layers.
pub fn fig6_weak_small() -> Vec<ScalingPoint> {
    scaling(
        &[(4, 64), (8, 128), (16, 256)],
        4,
        16,
        RowConfig {
            hidden: 2048,
            seq: 4096,
            microbatch: 16,
        },
        &TABLE_STRATEGIES,
    )
}

/// Figure 7: large-scale weak scaling — 8→32 GPUs (8 per server), batch
/// 128→512, 32 layers, the three headline strategies.
pub fn fig7_weak_large() -> Vec<ScalingPoint> {
    scaling(
        &[(8, 128), (16, 256), (32, 512)],
        8,
        32,
        RowConfig {
            hidden: 2048,
            seq: 4096,
            microbatch: 16,
        },
        &[
            Strategy::OneFOneB,
            Strategy::Fsdp,
            Strategy::WeiPipeInterleave,
        ],
    )
}

/// Figure 8: small-scale strong scaling — 4→16 GPUs, batch fixed at 128.
pub fn fig8_strong_small() -> Vec<ScalingPoint> {
    scaling(
        &[(4, 128), (8, 128), (16, 128)],
        4,
        16,
        RowConfig {
            hidden: 2048,
            seq: 4096,
            microbatch: 16,
        },
        &TABLE_STRATEGIES,
    )
}

/// Figure 9: large-scale strong scaling — 8→32 GPUs, batch fixed at 256.
pub fn fig9_strong_large() -> Vec<ScalingPoint> {
    scaling(
        &[(8, 256), (16, 256), (32, 256)],
        8,
        32,
        RowConfig {
            hidden: 2048,
            seq: 4096,
            microbatch: 16,
        },
        &[
            Strategy::OneFOneB,
            Strategy::Fsdp,
            Strategy::WeiPipeInterleave,
        ],
    )
}

fn scaling(
    points: &[(usize, usize)],
    node_size: usize,
    layers: usize,
    row: RowConfig,
    strategies: &[Strategy],
) -> Vec<ScalingPoint> {
    points
        .iter()
        .map(|&(gpus, batch)| {
            let cluster = ClusterSpec::scaling(gpus, node_size);
            // The paper's scaling batches are microbatch counts: `batch`
            // microbatches of G sequences each (steady-state-deep pipelines).
            let samples = batch * row.microbatch;
            let cells = strategies
                .iter()
                .map(|&s| run_cell(s, row, layers, &cluster, samples))
                .collect();
            ScalingPoint { gpus, batch, cells }
        })
        .collect()
}

/// Hybrid WeiPipe × tensor parallelism (our §7.3 future-work exploration):
/// fixed GPU budget, sweep the TP degree. Returns
/// `(tp_degree, pipeline_ranks, tokens/s/GPU, bubble_ratio)`.
///
/// With a fixed GPU budget, raising the TP degree shortens the pipeline
/// (fewer, fatter chunks — less bubble) but pays exposed per-layer
/// all-reduces and thin-kernel losses; the per-ring chunk message size is
/// invariant (more layers per chunk × a `1/degree` shard each).
pub fn hybrid_tp_sweep(
    total_gpus: usize,
    row: RowConfig,
    layers: usize,
) -> Vec<(usize, usize, f64, f64)> {
    let mut out = Vec::new();
    let mut degree = 1;
    while degree <= total_gpus / 2 {
        let p = total_gpus / degree;
        if !layers.is_multiple_of(p) || p < 2 {
            degree *= 2;
            continue;
        }
        let n = 8 * p;
        let sched = build(
            Strategy::WeiPipeInterleave,
            paper_spec(Strategy::WeiPipeInterleave, p, n),
        );
        let dims = ModelDims::paper(row.hidden, layers, row.seq, row.microbatch);
        // Pipeline ring spans nodes of 8 GPUs; TP stays inside a node.
        let cluster = ClusterSpec::scaling(p, (8 / degree).max(1));
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched)
            .with_tp(crate::cost::TpOverlay::nvlink(degree));
        let r = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("simulates");
        out.push((
            degree,
            p,
            r.throughput_tokens_per_gpu(&cost, n),
            r.bubble_ratio,
        ));
        degree *= 2;
    }
    out
}

/// Straggler sensitivity: slow one rank's compute by `slowdown` and report
/// the iteration-time inflation for each strategy — ring-synchronous
/// schedules are expected to be the most exposed.
pub fn straggler_sensitivity(
    p: usize,
    slowdown: f64,
    strategies: &[Strategy],
) -> Vec<(Strategy, f64)> {
    let row = RowConfig {
        hidden: 2048,
        seq: 8192,
        microbatch: 8,
    };
    let n = 8 * p;
    let cluster = ClusterSpec::nvlink_island(p);
    strategies
        .iter()
        .map(|&s| {
            let sched = build(s, paper_spec(s, p, n));
            let dims = ModelDims::paper(row.hidden, 32, row.seq, row.microbatch);
            let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
            let base = simulate(&sched, &cost, &cluster, sim_options(s)).expect("simulates");
            let mut opts = sim_options(s);
            opts.straggler = Some((p / 2, slowdown));
            let slow = simulate(&sched, &cost, &cluster, opts).expect("simulates");
            (s, slow.makespan / base.makespan)
        })
        .collect()
}

/// Figure 5 stand-in (§3.4 theory): bubble ratio of every strategy as the
/// microbatch count grows, P fixed.
pub fn fig5_bubble_vs_microbatches(p: usize) -> Vec<(usize, Vec<(Strategy, f64)>)> {
    let strategies = [
        Strategy::GPipe,
        Strategy::OneFOneB,
        Strategy::Zb1,
        Strategy::Zb2,
        Strategy::WeiPipeNaive,
        Strategy::WeiPipeInterleave,
        Strategy::Wzb2,
    ];
    let row = RowConfig {
        hidden: 2048,
        seq: 8192,
        microbatch: 8,
    };
    [2usize, 4, 8]
        .iter()
        .map(|&mult| {
            let n = mult * p;
            let cluster = ClusterSpec {
                ranks: p,
                node_size: p,
                ..ClusterSpec::nvlink_16()
            };
            let cells = strategies
                .iter()
                .map(|&s| {
                    let sched = build(s, paper_spec(s, p, n));
                    let dims = ModelDims::paper(row.hidden, 32, row.seq, row.microbatch);
                    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
                    let r = simulate(&sched, &cost, &cluster, sim_options(s)).unwrap();
                    (s, r.bubble_ratio)
                })
                .collect();
            (n, cells)
        })
        .collect()
}

/// One cluster row of the flat-vs-grouped WeiPipe comparison.
#[derive(Debug, Clone)]
pub struct HierCell {
    /// Cluster label.
    pub label: &'static str,
    /// Ranks per node on this cluster (the natural group size).
    pub node_size: usize,
    /// Flat WeiPipe-interleave iteration seconds.
    pub flat_s: f64,
    /// Grouped WeiPipe-Hier (one ring per island) iteration seconds.
    pub grouped_s: f64,
    /// The best feasible WeiPipe-Hier candidate of the grid.
    pub tuned: Candidate,
    /// Its iteration seconds.
    pub tuned_s: f64,
    /// Flat cross-node P2P bytes per iteration.
    pub flat_xnode_bytes: u64,
    /// Tuned cross-node P2P bytes per iteration.
    pub tuned_xnode_bytes: u64,
}

impl HierCell {
    /// Iteration-time speedup of tuned over flat.
    pub fn speedup(&self) -> f64 {
        self.flat_s / self.tuned_s
    }

    /// Cross-node byte reduction factor (flat / tuned).
    pub fn xnode_reduction(&self) -> f64 {
        if self.tuned_xnode_bytes == 0 {
            if self.flat_xnode_bytes == 0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            self.flat_xnode_bytes as f64 / self.tuned_xnode_bytes as f64
        }
    }
}

/// Flat-vs-grouped WeiPipe across the paper's three calibrated clusters,
/// the TawPipe-style comparison, at a fixed global batch ([`DesOracle`]):
/// *flat* is the WeiPipe-interleave default at `N = P`, *grouped* runs one
/// interleaved ring per island (`group = node_size`) so weight hops stay on
/// fast links and only bridge-carried gradient reconciliation crosses
/// nodes, *tuned* is the best of a grid over group sizes × microbatches ×
/// overlap (the flat ring stays in the space, should grouping ever lose).
/// Flat and grouped are priced whether or not they fit in memory; the grid
/// skips what does not. On the single-island `nvlink8` control, grouping
/// degenerates to the flat ring and must change nothing.
pub fn hier_flat_vs_grouped() -> Vec<HierCell> {
    let dims16 = ModelDims::paper(4096, 32, 16384, 4);
    let points = [
        ("ethernet16", ClusterSpec::ethernet_16(), dims16, 64),
        ("nvlink16", ClusterSpec::nvlink_16(), dims16, 64),
        (
            "nvlink8",
            ClusterSpec::nvlink_8(),
            ModelDims::paper(2048, 32, 65536, 1),
            32,
        ),
    ];
    points
        .into_iter()
        .map(|(label, cluster, dims, global_batch)| {
            let (p, node_size) = (cluster.ranks, cluster.node_size);
            let oracle = DesOracle::new(dims, GpuSpec::a800(), cluster, global_batch);
            let run = |c: &Candidate| {
                oracle
                    .simulate(c)
                    .unwrap_or_else(|e| panic!("{label} {}: {e}", c.label()))
            };
            let flat = run(&Candidate::default_for(Strategy::WeiPipeInterleave, p));
            let mut grouped = Candidate::default_for(Strategy::WeiPipeHier, p);
            grouped.group = (cluster.groups() > 1).then_some(node_size);
            let space = TuneSpace {
                ranks: p,
                strategies: vec![Strategy::WeiPipeHier],
                microbatches: vec![p, 2 * p, 4 * p],
                w_lags: Vec::new(),
                chunk_counts: Vec::new(),
                group_sizes: vec![node_size, p / 2],
                overlap: vec![true, false],
            };
            let tuned = grid(&space, &oracle).expect("a feasible hier candidate");
            let tuned_r = run(&tuned.best);
            HierCell {
                label,
                node_size,
                flat_s: flat.makespan,
                grouped_s: run(&grouped).makespan,
                tuned: tuned.best,
                tuned_s: tuned_r.makespan,
                flat_xnode_bytes: flat.cross_node_p2p_bytes,
                tuned_xnode_bytes: tuned_r.cross_node_p2p_bytes,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zb_microbatch_caps_match_paper() {
        assert_eq!(zb_microbatch(4096), 4);
        assert_eq!(zb_microbatch(8192), 1);
        assert_eq!(zb_microbatch(16384), 1);
    }

    #[test]
    fn grid_is_nine_rows() {
        assert_eq!(table_grid().len(), 9);
    }

    #[test]
    fn hier_beats_flat_on_multi_node_clusters() {
        let cells = hier_flat_vs_grouped();
        assert_eq!(cells.len(), 3);
        for cell in &cells {
            match cell.label {
                "nvlink8" => {
                    // Single island: grouping degenerates to the flat ring.
                    assert_eq!(cell.flat_xnode_bytes, 0, "{cell:?}");
                    assert_eq!(cell.tuned_xnode_bytes, 0, "{cell:?}");
                    assert_eq!(cell.grouped_s, cell.flat_s, "{cell:?}");
                }
                _ => {
                    assert!(cell.speedup() > 1.0, "{cell:?}");
                    assert!(
                        cell.xnode_reduction() >= cell.node_size as f64 * 0.9,
                        "{cell:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_cell_runs() {
        let row = RowConfig {
            hidden: 1024,
            seq: 4096,
            microbatch: 16,
        };
        let c = run_cell(
            Strategy::WeiPipeInterleave,
            row,
            32,
            &ClusterSpec::nvlink_8(),
            32,
        );
        assert!(c.throughput > 0.0);
        assert!(c.mem_gib > 0.0 && c.mem_gib < 80.0, "mem {}", c.mem_gib);
        assert!(!c.oom);
    }

    #[test]
    fn hybrid_tp_sweep_is_well_formed() {
        let row = RowConfig {
            hidden: 4096,
            seq: 8192,
            microbatch: 8,
        };
        let sweep = hybrid_tp_sweep(16, row, 32);
        assert!(sweep.len() >= 3, "should cover several TP degrees");
        assert_eq!(sweep[0].0, 1, "starts at pure WeiPipe");
        for &(tp, p, tput, bubble) in &sweep {
            assert_eq!(tp * p, 16, "GPU budget conserved");
            assert!(tput > 0.0 && (0.0..1.0).contains(&bubble));
        }
        // TP trades throughput for memory at these sizes (all-reduce +
        // thin kernels): pure WeiPipe is fastest.
        assert!(sweep[0].2 >= sweep.last().expect("nonempty").2);
    }

    #[test]
    fn straggler_inflates_everyone_bounded_by_slowdown() {
        let rows = straggler_sensitivity(
            4,
            2.0,
            &[
                Strategy::OneFOneB,
                Strategy::Ddp,
                Strategy::WeiPipeInterleave,
            ],
        );
        for (s, inflation) in rows {
            assert!(
                inflation > 1.05 && inflation <= 2.05,
                "{s:?}: inflation {inflation}"
            );
        }
    }

    #[test]
    fn fig6_strategies_converge_on_one_server_then_diverge() {
        let points = fig6_weak_small();
        let first = &points[0];
        assert_eq!(first.gpus, 4);
        // One NVLink server: every strategy within ~20% of the fastest.
        let best = first.cells.iter().map(|c| c.throughput).fold(0.0, f64::max);
        for c in &first.cells {
            assert!(
                c.throughput > 0.8 * best,
                "{:?} should be near-parity on one server ({:.0} vs {best:.0})",
                c.strategy,
                c.throughput
            );
        }
        // At 16 GPUs across Ethernet, WeiPipe leads clearly.
        let last = points.last().expect("points");
        let wp = last
            .cells
            .iter()
            .find(|c| c.strategy == Strategy::WeiPipeInterleave)
            .expect("wp");
        for c in &last.cells {
            if c.strategy != Strategy::WeiPipeInterleave && !c.oom {
                assert!(
                    wp.throughput > 1.3 * c.throughput,
                    "WeiPipe {:.0} should lead {:?} {:.0} at 16 GPUs",
                    wp.throughput,
                    c.strategy,
                    c.throughput
                );
            }
        }
    }

    #[test]
    fn fig8_strong_scaling_total_throughput_is_monotone_for_weipipe() {
        let points = fig8_strong_small();
        let totals: Vec<f64> = points
            .iter()
            .map(|p| {
                p.cells
                    .iter()
                    .find(|c| c.strategy == Strategy::WeiPipeInterleave)
                    .expect("wp")
                    .throughput
                    * p.gpus as f64
            })
            .collect();
        assert!(
            totals.windows(2).all(|w| w[1] > w[0]),
            "adding GPUs must speed up the fixed batch: {totals:?}"
        );
    }

    #[test]
    fn weipipe_wins_the_ethernet_long_context_cell() {
        // Table 3's headline: S=16384, H=2048 on Ethernet — WeiPipe beats
        // the best baseline by a clear margin.
        let row = RowConfig {
            hidden: 2048,
            seq: 16384,
            microbatch: 4,
        };
        let cluster = ClusterSpec::ethernet_16();
        let samples = 8 * cluster.ranks * row.microbatch;
        let wp = run_cell(Strategy::WeiPipeInterleave, row, 32, &cluster, samples);
        let f1b = run_cell(Strategy::OneFOneB, row, 32, &cluster, samples);
        let fsdp = run_cell(Strategy::Fsdp, row, 32, &cluster, samples);
        assert!(
            wp.throughput > f1b.throughput && wp.throughput > fsdp.throughput,
            "WeiPipe {:.0} vs 1F1B {:.0} vs FSDP {:.0}",
            wp.throughput,
            f1b.throughput,
            fsdp.throughput
        );
    }
}
