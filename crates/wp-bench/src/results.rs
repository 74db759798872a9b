//! Every artefact the simulator regenerates under `results/`, rendered in
//! memory: Tables 2–4, Figures 1–9, the ablations, the flat-vs-grouped ring
//! comparison and the autotuner's smoke point, as text, SVG and CSV. The
//! `results` binary writes them; `tests/golden_tables.rs` compares each with
//! the checked-in file byte for byte, and their paths with the files there.

use std::collections::{BTreeMap, BTreeSet};

use wp_comm::LinkModel;
use wp_sched::{analysis, build, PipelineSpec, Strategy};
use wp_sim::experiments::{
    fig5_bubble_vs_microbatches, fig6_weak_small, fig7_weak_large, fig8_strong_small,
    fig9_strong_large, hier_flat_vs_grouped, hybrid_tp_sweep, run_cell, sim_options,
    straggler_sensitivity, table2, table3, table4, CellResult, RowConfig, ScalingPoint,
};
use wp_sim::render::{ascii_timeline, svg_timeline};
use wp_sim::{simulate, ClusterSpec, CostModel, GpuSpec, MemUnit, ModelDims, SimOptions};

use crate::tune::points;

/// One artefact: its path under `results/` and its contents.
pub type Artefact = (String, String);

/// Every artefact, each `results/` file the simulator computes. The
/// sections are independent and render on their own threads, so a pass
/// (and the golden test, in a debug build) takes as long as the slowest.
pub fn render() -> Vec<Artefact> {
    let sections: [fn() -> Vec<Artefact>; 6] =
        [tables, scaling, figures, ablations, hier, tune_smoke];
    std::thread::scope(|s| {
        let handles: Vec<_> = sections.iter().map(|f| s.spawn(f)).collect();
        (handles.into_iter())
            .flat_map(|h| h.join().expect("a results section renders"))
            .collect()
    })
}

/// Tables 2–4 as text and as CSV.
fn tables() -> Vec<Artefact> {
    let tables = [
        (
            "table2",
            table2(),
            "Table 2 — 16×A800, NVLink within two clusters, 32 layers \
             (throughput tokens/s/GPU + worst-rank memory)",
            true,
        ),
        (
            "table3",
            table3(),
            "Table 3 — 16×A800 across 4 clusters, PCIe within + 10 GbE between, 32 layers",
            false,
        ),
        (
            "table4",
            table4(),
            "Table 4 — 8×A800, single NVLink island, 16 layers \
             (the small/fast corner where baselines can win)",
            true,
        ),
    ];
    let mut text = String::new();
    let mut out = Vec::new();
    for (name, rows, title, with_memory) in &tables {
        text += &format!("{}\n", format_table(title, rows, *with_memory));
        out.push((format!("csv/{name}.csv"), table_csv(rows)));
    }
    out.push(("tables.txt".into(), text));
    let simulated: Vec<_> = (tables.iter())
        .map(|(name, rows, ..)| (*name, &rows[..]))
        .collect();
    // The paper's cells, each typed once with its source: an input, not a render.
    let paper_cells = include_str!("../../../results/paper_cells.csv");
    out.extend(scoreboard(paper_cells, &simulated));
    out
}

/// One table's simulated rows, under the name its cell ids start with.
type Simulated<'a> = (&'a str, &'a [(RowConfig, Vec<CellResult>)]);

/// A paper cell beside its simulated twin; `at` splits `id` into table,
/// `H…-S…-G…` row, strategy and quantity (`tok_s`, `mem_gib` or `oom`).
struct Cell<'a> {
    id: &'a str,
    unit: &'a str,
    at: Vec<&'a str>,
    paper: f64,
    sim: f64,
}

/// What the scoreboard counts per table: strategy pairs paper and sim order
/// alike within a row, by throughput and by memory, and OOM flags alike.
const TALLIES: [&str; 3] = [
    "throughput pairs ordered alike",
    "memory pairs ordered alike",
    "OOM flags alike",
];

/// The paper's cells (`cell,value,unit,source` lines) joined to the
/// simulated rows: paper → sim per cell, the WeiPipe/1F1B and WeiPipe/FSDP
/// ratios derived from both, and the [`TALLIES`] per table and in all. A
/// cell id that names no simulated cell, or a cell given twice, panics
/// naming the id.
fn scoreboard(paper_csv: &str, tables: &[Simulated]) -> Vec<Artefact> {
    let mut sim = BTreeMap::new();
    for (name, rows) in tables {
        for (row, cells) in rows.iter() {
            for c in cells {
                let (h, s, g) = (row.hidden, row.seq, row.microbatch);
                let at = format!("{name}/H{h}-S{s}-G{g}/{}", c.strategy.label());
                sim.insert(format!("{at}/tok_s"), c.throughput);
                sim.insert(format!("{at}/mem_gib"), c.mem_gib);
                sim.insert(format!("{at}/oom"), f64::from(u8::from(c.oom)));
            }
        }
    }
    let mut seen = BTreeSet::new();
    let cells: Vec<Cell> = (paper_csv.lines().skip(1))
        .map(|line| {
            let mut field = line.splitn(4, ',');
            let id = field.next().unwrap_or_default();
            let paper = field.next().and_then(|v| v.parse().ok());
            let sim =
                *(sim.get(id)).unwrap_or_else(|| panic!("paper cell {id} names no simulated cell"));
            assert!(seen.insert(id), "paper cell {id} appears twice");
            Cell {
                id,
                unit: field.next().unwrap_or_default(),
                at: id.split('/').collect(),
                paper: paper.unwrap_or_else(|| panic!("paper cell {id} has no value")),
                sim,
            }
        })
        .collect();
    let tally = |counts: &[(usize, usize); 3]| -> String {
        (TALLIES.iter().zip(counts))
            .filter(|(_, (_, of))| *of > 0)
            .map(|(what, (n, of))| format!("{what}: {n}/{of}\n"))
            .collect()
    };

    let mut text = String::from(
        "# Paper fidelity: the paper's Table 2–4 cells beside the simulator's\n\n\
         Paper values are results/paper_cells.csv, each with its source; sim values are\n\
         the rows of tables.txt. A pair is ordered alike when paper and sim put its two\n\
         strategies in the same order within a row.\n\n",
    );
    let mut csv = String::from("cell,unit,paper,sim,sim_over_paper\n");
    let mut totals = [(0, 0); 3];
    for (name, _) in tables {
        let mine: Vec<&Cell> = cells.iter().filter(|c| c.at[0] == *name).collect();
        let mut counts = [(0, 0); 3];
        text += &format!("## {name}\n\n{:<38}    paper      sim sim/paper\n", "cell");
        for (i, a) in mine.iter().enumerate() {
            let (id, unit, paper, sim) = (a.id, a.unit, a.paper, a.sim);
            if a.at[3] == "oom" {
                let flag = |f: f64| if f == 1.0 { "OOM" } else { "fits" };
                let alike = if paper == sim { "alike" } else { "differs" };
                text += &format!("{id:<38} {:>8} {:>8} {alike:>9}\n", flag(paper), flag(sim));
                csv += &format!("{id},{unit},{paper},{sim},\n");
                counts[2] = (counts[2].0 + usize::from(paper == sim), counts[2].1 + 1);
                continue;
            }
            text += &format!("{id:<38} {paper:>8} {sim:>8.1} {:>9.2}\n", sim / paper);
            csv += &format!("{id},{unit},{paper},{sim},{}\n", sim / paper);
            let k = usize::from(a.at[3] == "mem_gib");
            let twins = mine[i + 1..].iter().filter(|b| b.at[1] == a.at[1]);
            for b in twins.filter(|b| b.at[3] == a.at[3]) {
                let alike = paper.partial_cmp(&b.paper) == sim.partial_cmp(&b.sim);
                counts[k] = (counts[k].0 + usize::from(alike), counts[k].1 + 1);
            }
        }
        text.push('\n');
        let tok_s = |c: &&&Cell| c.at[3] == "tok_s";
        let wei_pipe = Strategy::WeiPipeInterleave.label();
        let bases = [Strategy::OneFOneB, Strategy::Fsdp].map(|s| s.label());
        for wp in mine.iter().filter(tok_s).filter(|c| c.at[2] == wei_pipe) {
            let row = mine.iter().filter(tok_s).filter(|b| b.at[1] == wp.at[1]);
            for b in row.filter(|b| bases.contains(&b.at[2])) {
                let (paper, sim) = (wp.paper / b.paper, wp.sim / b.sim);
                text += &format!(
                    "{wei_pipe}/{:<5} {:<16} paper {paper:.2} → sim {sim:.2}\n",
                    b.at[2], b.at[1]
                );
            }
        }
        text += &format!("\n{}\n", tally(&counts));
        for (total, (n, of)) in totals.iter_mut().zip(counts) {
            *total = (total.0 + n, total.1 + of);
        }
    }
    text += &format!("## All tables\n\n{}", tally(&totals));
    vec![
        ("scoreboard.txt".into(), text),
        ("csv/scoreboard.csv".into(), csv),
    ]
}

/// Figures 6–9.
fn scaling() -> Vec<Artefact> {
    let figures = [
        (
            "Figure 6 — small-scale weak scaling (4→16 GPUs, 4/server, batch 64→256)",
            fig6_weak_small(),
        ),
        (
            "Figure 7 — large-scale weak scaling (8→32 GPUs, 8/server, batch 128→512)",
            fig7_weak_large(),
        ),
        (
            "Figure 8 — small-scale strong scaling (4→16 GPUs, batch fixed 128)",
            fig8_strong_small(),
        ),
        (
            "Figure 9 — large-scale strong scaling (8→32 GPUs, batch fixed 256)",
            fig9_strong_large(),
        ),
    ];
    let text = (figures.iter())
        .map(|(title, points)| format!("{}\n", format_scaling(title, points)))
        .collect();
    vec![("scaling.txt".into(), text)]
}

/// Figures 1–4, the schedule diagrams at the paper's illustrative P = 4, as
/// ASCII and SVG, and Figure 5, the §3.4 bubble-ratio comparison.
fn figures() -> Vec<Artefact> {
    let schedules = [
        (
            Strategy::WeiPipeNaive,
            "Figure 1 — WeiPipe-Naive schedule (P=4)",
        ),
        (
            Strategy::WeiPipeInterleave,
            "Figure 2 — WeiPipe-Interleave schedule (P=4)",
        ),
        (
            Strategy::Wzb1,
            "Figure 3 — WeiPipe-zero-bubble 1 (WZB1) schedule (P=4)",
        ),
        (
            Strategy::Wzb2,
            "Figure 4 — WeiPipe-zero-bubble 2 (WZB2) schedule (P=4)",
        ),
    ];
    let mut text = String::new();
    let mut out = Vec::new();
    for (id, (strategy, title)) in (1..).zip(schedules) {
        let p = 4;
        let sched = build(strategy, PipelineSpec::new(p, 8));
        let dims = ModelDims::paper(2048, 4, 4096, 4);
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let cluster = ClusterSpec::nvlink_island(p);
        let result = simulate(&sched, &cost, &cluster, SimOptions::default())
            .expect("figure schedule simulates");
        text += &format!("## {title}\n\n{}\n\n", ascii_timeline(&result, 112));
        let svg = format!("svg/fig{id}_{}.svg", strategy.label().to_lowercase());
        out.push((svg, svg_timeline(&result, 1200)));
    }
    text += "## Figure 5 — bubble ratio vs microbatch count (P=8, §3.4 comparison)\n\n";
    for (n, cells) in fig5_bubble_vs_microbatches(8) {
        text += &format!("N={n:>3}: ");
        for (s, b) in cells {
            text += &format!("{}={:.1}%  ", s.label(), b * 100.0);
        }
        text.push('\n');
    }
    out.push(("figures.txt".into(), text));
    out
}

/// The ablations DESIGN.md §3 calls for, one section each.
fn ablations() -> Vec<Artefact> {
    let sections = [
        crossover(),
        overlap(),
        interleave(),
        bandwidth(),
        memory(),
        hybrid_tp(),
        straggler(),
    ];
    vec![("ablations.txt".into(), sections.concat())]
}

/// The flat-vs-grouped comparison as a table and as CSV, seconds in full
/// precision.
fn hier() -> Vec<Artefact> {
    let cells = hier_flat_vs_grouped();
    let mut text = String::from(
        "## Flat vs grouped weight rings on the paper's three clusters (fixed global batch)\n\n",
    );
    let mut csv = String::from(
        "cluster,node_size,flat_iter_s,flat_oom,grouped_iter_s,grouped_oom,tuned,tuned_iter_s,\
         flat_xnode_bytes,tuned_xnode_bytes\n",
    );
    let oom = |o: bool| if o { " OOM" } else { "    " };
    for c in &cells {
        text += &format!(
            "{:<12} flat {:>8.2} ms{} ({:>6.1} MB x-node) | grouped {:>8.2} ms{} | tuned {:<26} {:>8.2} ms ({:>6.1} MB x-node) | speedup x{:.3} | x-node /{:.1}\n",
            c.label,
            c.flat_s * 1e3,
            oom(c.flat_oom),
            c.flat_xnode_bytes as f64 / 1e6,
            c.grouped_s * 1e3,
            oom(c.grouped_oom),
            c.tuned.label(),
            c.tuned_s * 1e3,
            c.tuned_xnode_bytes as f64 / 1e6,
            c.speedup(),
            c.xnode_reduction(),
        );
        csv += &format!(
            "{},{},{},{},{},{},{},{},{},{}\n",
            c.label,
            c.node_size,
            c.flat_s,
            c.flat_oom,
            c.grouped_s,
            c.grouped_oom,
            c.tuned.label(),
            c.tuned_s,
            c.flat_xnode_bytes,
            c.tuned_xnode_bytes
        );
    }
    vec![("hier.txt".into(), text), ("csv/hier.csv".into(), csv)]
}

/// What the grid search finds at the autotuner's CI point, seconds in full
/// precision.
fn tune_smoke() -> Vec<Artefact> {
    let mut csv =
        String::from("point,best,best_iter_s,default,default_iter_s,evaluated,infeasible\n");
    for pt in &points(true) {
        let t = pt.tune().unwrap_or_else(|e| panic!("{e}"));
        csv += &format!(
            "{},{},{},{},{},{},{}\n",
            t.label,
            t.best.label(),
            t.best_s,
            t.default.label(),
            t.default_s,
            t.evaluated,
            t.infeasible
        );
    }
    vec![("csv/tune_smoke.csv".into(), csv)]
}

/// One table in the paper's layout (model config columns, one throughput
/// column per strategy, memory columns).
fn format_table(title: &str, rows: &[(RowConfig, Vec<CellResult>)], with_memory: bool) -> String {
    let mut out = format!("## {title}\n\n");
    let strategies: Vec<&str> = rows
        .first()
        .map(|(_, cells)| cells.iter().map(|c| c.strategy.label()).collect())
        .unwrap_or_default();
    out += &format!("{:>6} {:>6} {:>4} |", "H", "S", "G");
    for s in &strategies {
        out += &format!(" {s:>9}");
    }
    if with_memory {
        out += " | Memory(GiB): ";
        out += &strategies.join("/");
    }
    out.push('\n');
    for (row, cells) in rows {
        out += &format!("{:>6} {:>6} {:>4} |", row.hidden, row.seq, row.microbatch);
        for c in cells {
            out += &format!(" {:>9}", c.throughput_str());
        }
        if with_memory {
            let mems: Vec<String> = cells.iter().map(|c| format!("{:.1}", c.mem_gib)).collect();
            out += &format!(" | {}", mems.join("/"));
        }
        out.push('\n');
    }
    out.push('\n');
    out
}

/// A table as CSV, one row per model config × strategy.
fn table_csv(rows: &[(RowConfig, Vec<CellResult>)]) -> String {
    let mut out = String::from(
        "hidden,seq,microbatch,strategy,throughput_tokens_per_gpu,mem_gib,oom,bubble_ratio\n",
    );
    for (row, cells) in rows {
        for c in cells {
            out += &format!(
                "{},{},{},{},{:.1},{:.3},{},{:.4}\n",
                row.hidden,
                row.seq,
                row.microbatch,
                c.strategy.label(),
                c.throughput,
                c.mem_gib,
                c.oom,
                c.bubble_ratio
            );
        }
    }
    out
}

/// A scaling figure as a text series (total and per-GPU throughput, the
/// paper's dual-axis bar charts).
fn format_scaling(title: &str, points: &[ScalingPoint]) -> String {
    let mut out = format!("## {title}\n\n");
    let strategies: Vec<&str> = points
        .first()
        .map(|p| p.cells.iter().map(|c| c.strategy.label()).collect())
        .unwrap_or_default();
    out += &format!("{:>5} {:>6} |", "GPUs", "batch");
    for s in &strategies {
        out += &format!(" {:>10} {:>10}", format!("{s} tot"), format!("{s}/gpu"));
    }
    out.push('\n');
    for p in points {
        out += &format!("{:>5} {:>6} |", p.gpus, p.batch);
        for c in &p.cells {
            let total = c.throughput * p.gpus as f64;
            let (t, g) = if c.oom {
                ("OOM".to_string(), "OOM".to_string())
            } else {
                (
                    format!("{:.0}", total / 1000.0),
                    format!("{:.2}", c.throughput / 1000.0),
                )
            };
            out += &format!(" {t:>10} {g:>10}");
        }
        out.push('\n');
    }
    out += "(units: kilo-tokens/s total, kilo-tokens/s/GPU)\n\n";
    out
}

/// Sweep the §3 crossover quantity `G·S/(12H)` and show where weight-passing
/// overtakes activation-passing in *simulated throughput*, not just bytes.
fn crossover() -> String {
    let mut out =
        String::from("## Ablation: activation/weight crossover (H=2048, 16 GPUs, Ethernet)\n\n");
    out += &format!(
        "{:>6} {:>4} {:>10} | {:>10} {:>10} {:>8}\n",
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
        out += &format!(
            "{seq:>6} {g:>4} {ratio:>10.3} | {:>10.0} {:>10.0} {winner:>8}\n",
            f1b.throughput, wp.throughput
        );
    }
    out.push('\n');
    out
}

/// Communication/computation overlap on vs off (§4.3's `batch_isend_irecv`).
fn overlap() -> String {
    let mut out = String::from(
        "## Ablation: communication overlap (WeiPipe, H=2048, S=16384, Ethernet ring)\n\n",
    );
    let p = 8;
    let sched = build(Strategy::WeiPipeInterleave, PipelineSpec::new(p, 32));
    let dims = ModelDims::paper(2048, 32, 16384, 4);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let cluster = ClusterSpec::scaling(p, 1); // every hop Ethernet
    for (label, overlap) in [("overlap ON ", true), ("overlap OFF", false)] {
        let opts = SimOptions {
            overlap,
            ..Default::default()
        };
        let r = simulate(&sched, &cost, &cluster, opts).expect("simulates");
        out += &format!(
            "{label}: iteration {:.2} s, bubble {:.1}%, throughput {:.0} tok/s/GPU\n",
            r.makespan,
            r.bubble_ratio * 100.0,
            r.throughput_tokens_per_gpu(&cost, 32)
        );
    }
    out.push('\n');
    out
}

/// WeiPipe-Naive vs WeiPipe-Interleave (§4.2.2's two claims: halved traffic
/// per useful compute, lower bubble).
fn interleave() -> String {
    let mut out =
        String::from("## Ablation: WeiPipe-Naive vs WeiPipe-Interleave (P=8, N=32, H=2048)\n\n");
    let p = 8;
    let dims = ModelDims::paper(2048, 32, 8192, 8);
    let cluster = ClusterSpec::nvlink_island(p);
    for strategy in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
        let sched = build(strategy, PipelineSpec::new(p, 32));
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let r = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("simulates");
        let bytes = analysis::total_traffic(&sched, &cost.byte_model());
        out += &format!(
            "{:<18}: iteration {:.2} s, bubble {:>5.1}%, total weight traffic {:.1} GiB\n",
            strategy.label(),
            r.makespan,
            r.bubble_ratio * 100.0,
            bytes as f64 / (1u64 << 30) as f64
        );
    }
    out.push('\n');
    out
}

/// Throughput as the inter-node link degrades NVLink → PCIe → 10 GbE.
fn bandwidth() -> String {
    let mut out =
        String::from("## Ablation: inter-node bandwidth sweep (16 GPUs, H=2048, S=16384, G=4)\n\n");
    let row = RowConfig {
        hidden: 2048,
        seq: 16384,
        microbatch: 4,
    };
    out += &format!(
        "{:>22} | {:>10} {:>10} {:>10}\n",
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
        out += &format!(
            "{label:>22} | {:>10.0} {:>10.0} {:>10.0}\n",
            f1b.throughput, fsdp.throughput, wp.throughput
        );
    }
    out.push('\n');
    out
}

/// Memory knobs: flash attention and recomputation (1F1B, worst rank).
fn memory() -> String {
    let mut out = String::from(
        "## Ablation: activation-memory knobs (1F1B, 16 GPUs, H=2048, S=8192, G=8)\n\n",
    );
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
        out += &format!(
            "{label}: peak {:>7.1} GiB (per-chunk ctx {:.2} GiB){}\n",
            peak,
            ctx_gib,
            if peak > 80.0 { "  -> OOM on A800" } else { "" }
        );
    }
    out.push('\n');
    out
}

/// Hybrid WeiPipe × tensor parallelism on a fixed 32-GPU budget (the
/// paper's §7.3 future work, explored).
fn hybrid_tp() -> String {
    let mut out =
        String::from("## Ablation: WeiPipe × TP hybrid (32 GPUs total, H=4096, S=16384, G=4)\n\n");
    out += &format!(
        "{:>4} {:>6} | {:>12} {:>9}\n",
        "TP", "ring P", "tok/s/GPU", "bubble"
    );
    let row = RowConfig {
        hidden: 4096,
        seq: 16384,
        microbatch: 4,
    };
    for (tp, p, tput, bubble) in hybrid_tp_sweep(32, row, 32) {
        out += &format!("{tp:>4} {p:>6} | {tput:>12.0} {:>8.1}%\n", bubble * 100.0);
    }
    out += "(at this configuration pure WeiPipe wins: TP's per-layer all-reduces\n          and thin kernels cost more than the shorter pipeline saves)\n\n";
    out
}

/// One slow rank: how much does each strategy's iteration inflate?
fn straggler() -> String {
    let mut out =
        String::from("## Ablation: straggler sensitivity (P=8, one rank 1.5× slower)\n\n");
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
        out += &format!("{:<18}: iteration time × {:.2}\n", s.label(), inflation);
    }
    out += "(ring-synchronous weight passing is as exposed as any bulk-\n synchronous scheme — a WeiPipe limitation worth knowing)\n\n";
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_formatting_includes_all_cells() {
        let row = RowConfig {
            hidden: 1024,
            seq: 4096,
            microbatch: 4,
        };
        let cell = run_cell(
            Strategy::WeiPipeInterleave,
            row,
            16,
            &ClusterSpec::nvlink_8(),
            32,
        );
        let txt = format_table("T", &[(row, vec![cell])], true);
        assert!(txt.contains("WeiPipe"));
        assert!(txt.contains("1024"));
        assert!(txt.contains("Memory"));
    }

    /// Scores `paper_csv` against one made-up Table 2 row holding a WeiPipe
    /// cell.
    fn score(paper_csv: &str) -> Vec<Artefact> {
        let row = RowConfig {
            hidden: 1024,
            seq: 4096,
            microbatch: 16,
        };
        let cell = CellResult {
            strategy: Strategy::WeiPipeInterleave,
            throughput: 2.0,
            mem_gib: 1.0,
            oom: false,
            bubble_ratio: 0.0,
        };
        scoreboard(paper_csv, &[("table2", &[(row, vec![cell])])])
    }

    #[test]
    #[should_panic(
        expected = "paper cell table2/H1024-S4096-G16/FSDP/tok_s names no simulated cell"
    )]
    fn a_paper_cell_naming_no_simulated_cell_panics_naming_it() {
        score("cell,value,unit,source\ntable2/H1024-S4096-G16/FSDP/tok_s,4,tok/s/GPU,T\n");
    }

    #[test]
    #[should_panic(expected = "paper cell table2/H1024-S4096-G16/WeiPipe/oom appears twice")]
    fn a_paper_cell_given_twice_panics_naming_it() {
        score(
            "cell,value,unit,source\n\
             table2/H1024-S4096-G16/WeiPipe/oom,0,flag,T\n\
             table2/H1024-S4096-G16/WeiPipe/oom,1,flag,T\n",
        );
    }
}
