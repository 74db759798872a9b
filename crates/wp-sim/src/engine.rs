//! The discrete-event engine: executes a [`Schedule`] against a
//! [`CostModel`] and [`ClusterSpec`], producing a timed trace.
//!
//! What waits on what — and which of those edges carry a price — is the
//! contract of [`wp_sched::graph`]; this is what each priced edge costs:
//!
//! * One **compute engine** per rank: compute ops run in program order,
//!   each starting at `max(engine free, arrival of every message in
//!   `needs`)`.
//! * One **DMA path** per directed ring link: sends issue at `max(needs
//!   arrivals, producing compute, link free)`; the link is busy for
//!   `bytes/bandwidth`, the payload arrives one latency later. This is the
//!   `batch_isend_irecv` overlap model of §4.3.
//! * **Collectives** rendezvous: the group starts when the last rank is
//!   ready and completes simultaneously everywhere after the ring-collective
//!   duration on the bottleneck link.
//! * With `overlap = false` (ablation), sends and collectives additionally
//!   occupy the sender's compute engine — communication no longer hides.

use crate::cluster::ClusterSpec;
use crate::cost::CostModel;
use crate::des::{compute_class, State};
use std::collections::HashMap;
use wp_sched::graph::{DepGraph, Node};
use wp_sched::Schedule;

/// Engine options.
#[derive(Debug, Clone, Copy)]
pub struct SimOptions {
    /// Communication/computation overlap (paper §4.3). Disable for the
    /// ablation.
    pub overlap: bool,
    /// Optional straggler: `(rank, slowdown)` multiplies that rank's compute
    /// durations (thermal throttling / noisy neighbour analysis).
    pub straggler: Option<(usize, f64)>,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            overlap: true,
            straggler: None,
        }
    }
}

/// One timed compute op, for rendering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedOp {
    /// Start time, seconds.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
    /// Single-letter class: F, B (full), b (B pass), w (W pass), U.
    pub class: char,
    /// Microbatch (or `usize::MAX`).
    pub mb: usize,
    /// Chunk.
    pub chunk: usize,
}

/// Simulation output.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Iteration wall-clock, seconds.
    pub makespan: f64,
    /// Per-rank compute-engine busy seconds.
    pub busy: Vec<f64>,
    /// `1 − Σbusy / (P · makespan)` — idle fraction of all compute engines.
    pub bubble_ratio: f64,
    /// Per-rank peak memory, bytes (static + dynamic).
    pub peak_mem: Vec<u64>,
    /// Per-rank bytes sent point-to-point.
    pub p2p_bytes: Vec<u64>,
    /// World-total point-to-point bytes whose source and destination sit in
    /// different nodes — the slow-hop traffic hierarchical schedules shrink.
    pub cross_node_p2p_bytes: u64,
    /// Per-rank bytes sent in collectives (ring-charged).
    pub collective_bytes: Vec<u64>,
    /// Per-rank timed compute ops (for timeline rendering).
    pub timeline: Vec<Vec<TimedOp>>,
}

impl SimResult {
    /// Tokens/second/GPU for a run of `n` microbatches of `G·S` tokens
    /// (counts all GPUs, including TP-overlay shards).
    pub fn throughput_tokens_per_gpu(&self, cost: &CostModel, microbatches: usize) -> f64 {
        let tokens = (microbatches * cost.dims.microbatch * cost.dims.seq) as f64;
        let gpus = self.busy.len() * cost.gpus_per_rank();
        tokens / self.makespan / gpus as f64
    }

    /// Whether any rank exceeds the device memory.
    pub fn oom(&self, mem_bytes: u64) -> bool {
        self.peak_mem.iter().any(|&m| m > mem_bytes)
    }
}

/// Simulation failure (a schedule the engine cannot drive to completion —
/// should be impossible for validated schedules).
#[derive(Debug, Clone)]
pub struct SimError(pub String);

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation error: {}", self.0)
    }
}

impl std::error::Error for SimError {}

impl From<wp_sched::ValidationError> for SimError {
    /// The graph's own words: a schedule it refuses has no timeline.
    fn from(e: wp_sched::ValidationError) -> Self {
        SimError(e.to_string())
    }
}

/// Execute `schedule` on `cluster` under `cost`: one pass of the pricing
/// step (`des::State::price`) over the topological order of the schedule's
/// dependency graph. `Err` carries the graph's reason — an unmatched op,
/// or the cycle a deadlock runs in. Scales to thousands of simulated ranks.
pub fn simulate(
    schedule: &Schedule,
    cost: &CostModel,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    let graph = DepGraph::build(schedule)?;
    let mut st = State::new(&graph, cost, cluster, opts)?;
    for node in graph.topological_order()? {
        assert!(st.price(node), "{node:?} is ordered before a predecessor");
    }
    Ok(st.finish())
}

/// The equivalence oracle for [`simulate`]: the same pricing step, driven
/// by the simplest loop that can be right — price every rank's next ops in
/// rank order, again and again, until a whole pass prices nothing. It
/// never asks the graph for an order; `tests/engine_equivalence.rs`
/// asserts it and [`simulate`] agree to the bit, i.e. that the order nodes
/// are priced in cannot change a result. Prefer [`simulate`] — the
/// re-scans are quadratic-ish in practice and minutes-slow at fleet scale.
pub fn simulate_reference(
    schedule: &Schedule,
    cost: &CostModel,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    let graph = DepGraph::build(schedule)?;
    let mut st = State::new(&graph, cost, cluster, opts)?;
    let mut cursor = vec![0; schedule.ranks];
    let mut progress = true;
    while progress {
        progress = false;
        for (rank, op) in cursor.iter_mut().enumerate() {
            while *op < schedule.ops[rank].len() && st.price((rank, *op)) {
                *op += 1;
                progress = true;
            }
        }
    }
    match (0..schedule.ranks).find(|&r| cursor[r] < schedule.ops[r].len()) {
        None => Ok(st.finish()),
        Some(r) => {
            let (at, kind) = (cursor[r], &schedule.ops[r][cursor[r]].kind);
            Err(SimError(format!("rank {r} stalled at op {at} ({kind:?})")))
        }
    }
}

/// Check a timeline — simulated, or measured through
/// [`crate::measured_result`] — against the schedule's dependency graph:
/// every compute op starts no earlier than each of its nearest compute
/// ancestors along *priced* edges ([`wp_sched::graph::EdgeKind::is_priced`])
/// ends. Exact, no tolerance: the simulator's clock is `max`/`+` over those
/// edges, and a run's spans share one monotonic clock. Bare program order
/// is not checked (the simulator does not price it). A timeline of `k`
/// iterations is read as: the `k`-th `(class, mb, chunk)` on a rank is
/// that op's `k`-th run.
pub fn check_timeline(graph: &DepGraph, result: &SimResult) -> Result<(), String> {
    let ops = &graph.schedule.ops;
    let class = |(r, i): Node| compute_class(&ops[r][i].kind);
    let mut runs: HashMap<_, Vec<&TimedOp>> = HashMap::new();
    for (rank, timed) in result.timeline.iter().enumerate() {
        for t in timed {
            let op = Some((t.class, t.mb, t.chunk));
            runs.entry((rank, op)).or_default().push(t);
        }
    }
    let runs_of = |n: Node| runs.get(&(n.0, class(n))).map_or(&[][..], |v| v);
    // Per send or entry, by rank: one past the latest compute op that is an
    // ancestor along priced edges. (Earlier ones on that rank end earlier
    // still: every compute op is checked against the one before it.)
    let mut behind: HashMap<Node, Vec<usize>> = HashMap::new();
    for node in graph.topological_order().map_err(|e| e.to_string())? {
        let mut latest = vec![0; ops.len()];
        for (from, _) in graph.preds(node).iter().filter(|e| e.1.is_priced()) {
            if let Some(further) = behind.get(from) {
                (latest.iter_mut().zip(further)).for_each(|(l, &f)| *l = f.max(*l));
            } else {
                latest[from.0] = latest[from.0].max(from.1 + 1);
            }
        }
        if class(node).is_none() {
            behind.insert(node, latest);
            continue;
        }
        let ancestors =
            (latest.iter().enumerate()).filter_map(|(r, l)| Some((r, l.checked_sub(1)?)));
        for from in ancestors {
            let (before, after) = (runs_of(from), runs_of(node));
            let (a, n) = (before.len(), after.len());
            let late = |&k: &usize| a != n || n == 0 || before[k].end > after[k].start;
            if let Some(k) = (0..n.max(1)).find(late) {
                let (start, end) = (after.get(k).map(|t| t.start), before.get(k).map(|t| t.end));
                return Err(format!(
                    "run {k} of {n} of {node:?} starts at {start:?}, not after run {k} of {a} \
                     of its ancestor {from:?} ends at {end:?}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{GpuSpec, ModelDims};
    use wp_sched::{build, PipelineSpec, Strategy};

    fn sim(strategy: Strategy, p: usize, n: usize) -> (SimResult, CostModel) {
        let spec = PipelineSpec::new(p, n);
        let sched = build(strategy, spec);
        let dims = ModelDims::paper(1024, 32, 4096, 16);
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let cluster = ClusterSpec {
            ranks: p,
            ..ClusterSpec::nvlink_16()
        };
        let cluster = ClusterSpec {
            ranks: p,
            node_size: p,
            ..cluster
        };
        let r = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("simulates");
        (r, cost)
    }

    #[test]
    fn all_strategies_simulate_to_completion() {
        for &s in wp_sched::ALL_STRATEGIES {
            let (r, _) = sim(s, 4, 8);
            assert!(r.makespan > 0.0, "{s:?}");
            assert!(
                r.bubble_ratio >= 0.0 && r.bubble_ratio < 1.0,
                "{s:?}: {}",
                r.bubble_ratio
            );
            assert!(r.peak_mem.iter().all(|&m| m > 0), "{s:?}");
        }
    }

    #[test]
    fn gpipe_and_1f1b_share_bubble_zb_shrinks_it() {
        // Classic result: 1F1B improves *memory* over GPipe, not the bubble
        // fraction; zero-bubble scheduling is what attacks the bubble.
        let (gp, _) = sim(Strategy::GPipe, 8, 16);
        let (f1b, _) = sim(Strategy::OneFOneB, 8, 16);
        let (zb1, _) = sim(Strategy::Zb1, 8, 16);
        assert!(
            (gp.bubble_ratio - f1b.bubble_ratio).abs() < 0.05,
            "GPipe {} vs 1F1B {}",
            gp.bubble_ratio,
            f1b.bubble_ratio
        );
        assert!(
            f1b.bubble_ratio > zb1.bubble_ratio,
            "1F1B {} vs ZB1 {}",
            f1b.bubble_ratio,
            zb1.bubble_ratio
        );
    }

    #[test]
    fn more_microbatches_shrink_bubble() {
        let (small, _) = sim(Strategy::OneFOneB, 4, 4);
        let (large, _) = sim(Strategy::OneFOneB, 4, 32);
        assert!(large.bubble_ratio < small.bubble_ratio);
    }

    #[test]
    fn weipipe_interleave_beats_naive() {
        let (naive, _) = sim(Strategy::WeiPipeNaive, 4, 8);
        let (inter, _) = sim(Strategy::WeiPipeInterleave, 4, 8);
        assert!(
            inter.makespan < naive.makespan,
            "{} vs {}",
            inter.makespan,
            naive.makespan
        );
    }

    #[test]
    fn throughput_is_positive_and_finite() {
        let (r, cost) = sim(Strategy::WeiPipeInterleave, 4, 8);
        let t = r.throughput_tokens_per_gpu(&cost, 8);
        assert!(t.is_finite() && t > 0.0);
    }

    #[test]
    fn overlap_ablation_slows_things_down() {
        let spec = PipelineSpec::new(4, 8);
        let sched = build(Strategy::WeiPipeInterleave, spec);
        let dims = ModelDims::paper(2048, 32, 8192, 8);
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let cluster = ClusterSpec::scaling(4, 1); // all-Ethernet: comm matters
        let with = simulate(
            &sched,
            &cost,
            &cluster,
            SimOptions {
                overlap: true,
                ..Default::default()
            },
        )
        .unwrap();
        let without = simulate(
            &sched,
            &cost,
            &cluster,
            SimOptions {
                overlap: false,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            without.makespan > with.makespan,
            "disabling overlap must cost time: {} vs {}",
            without.makespan,
            with.makespan
        );
    }

    #[test]
    fn slow_links_hurt_activation_passing_more_than_weipipe() {
        // The paper's central claim, in simulation form: 1F1B (Megatron
        // exposes its activation P2P between compute steps) degrades more
        // on slow links than WeiPipe (prefetched, overlapped weight hops).
        // N = 64 keeps the comparison in the steady state: WeiPipe's
        // end-of-iteration grad handoff is a one-time cross-node transfer
        // (priced on the inter link since the topology-aware fix) that
        // would dominate a short iteration.
        let spec = PipelineSpec::new(8, 64);
        let dims = ModelDims::paper(2048, 32, 16384, 4);
        let fast = ClusterSpec::nvlink_island(8);
        let slow = ClusterSpec::scaling(8, 2);
        let run = |strategy: Strategy, cluster: &ClusterSpec, overlap: bool| -> f64 {
            let sched = build(strategy, spec);
            let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
            simulate(
                &sched,
                &cost,
                cluster,
                SimOptions {
                    overlap,
                    ..Default::default()
                },
            )
            .unwrap()
            .makespan
        };
        let f1b_slowdown =
            run(Strategy::OneFOneB, &slow, false) / run(Strategy::OneFOneB, &fast, false);
        let wp_slowdown = run(Strategy::WeiPipeInterleave, &slow, true)
            / run(Strategy::WeiPipeInterleave, &fast, true);
        assert!(
            f1b_slowdown > wp_slowdown,
            "1F1B slowdown {f1b_slowdown:.2} should exceed WeiPipe {wp_slowdown:.2}"
        );
    }

    #[test]
    fn zb_memory_exceeds_1f1b_with_recompute() {
        // The Table 2 OOM story: ZB holds full activations until the W pass
        // while 1F1B checkpoints.
        let (f1b, _) = sim(Strategy::OneFOneB, 8, 16);
        let (zb2, _) = sim(Strategy::Zb2, 8, 16);
        let f1b_max = *f1b.peak_mem.iter().max().unwrap();
        let zb2_max = *zb2.peak_mem.iter().max().unwrap();
        assert!(zb2_max > 2 * f1b_max, "ZB2 {zb2_max} vs 1F1B {f1b_max}");
    }

    #[test]
    fn simulated_tbw_matches_section_3_4_closed_forms() {
        // Steady-state bandwidth per rank from the event simulation must
        // land near the paper's closed forms: 2W+1D per turn for
        // WeiPipe-Interleave, 2·M_A per microbatch per boundary for 1F1B.
        let p = 8;
        let n = 64; // deep steady state
        let dims = ModelDims::paper(2048, 32, 8192, 8);
        let cluster = ClusterSpec::nvlink_island(p);

        let sched = build(Strategy::WeiPipeInterleave, PipelineSpec::new(p, n));
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let r = simulate(&sched, &cost, &cluster, SimOptions::default()).unwrap();
        let measured_tbw = r.p2p_bytes[0] as f64 / r.makespan;
        let turn_secs = cost.t_fwd() + cost.t_bwd_full();
        let formula_tbw = wp_sched::analysis::weipipe_interleave_tbw(&cost.byte_model(), turn_secs);
        let ratio = measured_tbw / formula_tbw;
        assert!(
            (0.7..1.3).contains(&ratio),
            "WeiPipe TBW: measured {measured_tbw:.3e} vs formula {formula_tbw:.3e}"
        );

        let sched = build(Strategy::OneFOneB, PipelineSpec::new(p, n));
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let r = simulate(&sched, &cost, &cluster, SimOptions::default()).unwrap();
        // A middle rank sends activations forward and gradients backward.
        let measured = r.p2p_bytes[3] as f64 / r.makespan;
        let formula = wp_sched::analysis::act_pipe_tbw(&cost.byte_model(), n, r.makespan);
        let ratio = measured / formula;
        assert!(
            (0.7..1.3).contains(&ratio),
            "1F1B TBW: measured {measured:.3e} vs formula {formula:.3e}"
        );
    }

    #[test]
    fn timelines_honour_every_priced_edge() {
        for &s in wp_sched::ALL_STRATEGIES {
            let sched = build(s, PipelineSpec::new(4, 8));
            let (r, _) = sim(s, 4, 8);
            let graph = DepGraph::build(&sched).expect("valid");
            check_timeline(&graph, &r).unwrap_or_else(|e| panic!("{s:?}: {e}"));
        }
    }

    #[test]
    fn check_timeline_catches_an_op_moved_ahead_of_its_message() {
        let sched = build(Strategy::OneFOneB, PipelineSpec::new(4, 8));
        let (mut r, _) = sim(Strategy::OneFOneB, 4, 8);
        let graph = DepGraph::build(&sched).expect("valid");
        // Rank 1's first forward needs rank 0's activations: start it at 0.
        let dur = r.timeline[1][0].end - r.timeline[1][0].start;
        (r.timeline[1][0].start, r.timeline[1][0].end) = (0.0, dur);
        let err = check_timeline(&graph, &r).unwrap_err();
        let want = "run 0 of 1 of (1, 1) starts at Some(0.0), not after run 0 of 1 of its \
                    ancestor (0, 0) ends";
        assert!(err.starts_with(want), "{err}");
        // A timeline that lost an op is an error too, not a pass.
        r.timeline[0].remove(0);
        let err = check_timeline(&graph, &r).unwrap_err();
        assert!(
            err.contains("of 1 of (0, 2)") && err.contains("of 0 of its ancestor (0, 0)"),
            "{err}"
        );
    }
}
