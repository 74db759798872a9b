//! The one place a schedule is priced: [`State::price`] prices one node of
//! the schedule's dependency graph ([`wp_sched::graph`], which states what
//! waits on what and which of those edges are priced). Two drivers call
//! it: [`crate::engine::simulate`], one pass over the graph's topological
//! order, and [`crate::engine::simulate_reference`], the round-robin
//! oracle.
//!
//! [`State`] holds everything pricing reads or writes — one arrival time
//! per message (a `Vec` indexed by the graph's dense message ids),
//! per-rank compute/collective engine clocks, per-directed-link occupancy,
//! open collective rendezvous, and the output accumulators (timeline, busy
//! seconds, byte counters, memory events, makespan). [`State::price`]
//! takes one node: if every message on its wait list has an arrival time
//! the op is priced (semantics in [`crate::engine`]'s module docs) and its
//! memory deltas are logged; otherwise nothing changes and it returns
//! `false`. [`State::finish`] folds the accumulators into a [`SimResult`].
//!
//! Why the order nodes are priced in cannot change a bit, as long as it is
//! consistent with the graph:
//!
//! * every op's start/end time is a `max`/`+` combination of (a) the
//!   arrival times of messages on its wait list, (b) its own rank's engine
//!   clocks and (c) its own link's occupancy. `f64::max` is exact and
//!   order-insensitive and every sum has a fixed operand order;
//! * a rank's engine clocks are written by that rank's ops, in program
//!   order, and by the completion of a rendezvous the rank entered — which
//!   the `Barrier` edge orders before the entry's program successor, so
//!   every op sees the completions of exactly the collectives before it;
//! * each directed link has a single writer (its source rank), so link
//!   occupancy serializes in that rank's program order — which is why a
//!   link is one `free` time, not a queue;
//! * per-rank side effects (timeline pushes, busy accumulation, memory
//!   events) happen in program order, so the stable sort and running sums
//!   in [`State::finish`] see identical sequences.
//!
//! `tests/engine_equivalence.rs` and the unit tests below hold the two
//! drivers to **bit-identical** results; the prices themselves are pinned
//! by the golden Table 2–4 CSVs (`wp-bench/tests/golden_tables.rs`).

use crate::cluster::ClusterSpec;
use crate::cost::CostModel;
use crate::engine::{SimError, SimOptions, SimResult, TimedOp};
use std::collections::HashMap;
use wp_sched::analysis::ByteModel;
use wp_sched::graph::{DepGraph, Node};
use wp_sched::{MsgKey, OpKind};

/// Everything pricing reads or writes; see the module docs.
pub(crate) struct State<'a> {
    graph: &'a DepGraph<'a>,
    cost: &'a CostModel,
    /// Wire bytes per message kind under `cost`.
    bytes: ByteModel,
    cluster: &'a ClusterSpec,
    opts: SimOptions,
    /// Arrival time of every message, by the graph's message id; NaN until
    /// its send (or its rendezvous' last entry) is priced.
    arrivals: Vec<f64>,
    /// When each directed link `(src, dst)`'s DMA path frees up.
    link_free: HashMap<(usize, usize), f64>,
    /// Per-rank compute-engine availability.
    compute_free: Vec<f64>,
    /// Per-rank end of the latest compute op.
    last_compute_end: Vec<f64>,
    /// Every rank's collective-engine availability: the graph orders a
    /// rank's next entry behind its previous rendezvous, which all ranks
    /// complete together.
    coll_free: f64,
    /// Open collective rendezvous by message id: how many ranks have
    /// entered and the latest of their ready times.
    coll_groups: HashMap<usize, (usize, f64)>,
    /// Per-rank compute-engine busy seconds.
    busy: Vec<f64>,
    /// Per-rank timed compute ops.
    timeline: Vec<Vec<TimedOp>>,
    /// Per-rank memory events `(time, signed bytes)` in program order.
    mem_events: Vec<Vec<(f64, i64)>>,
    /// Latest op end time seen.
    makespan: f64,
}

impl<'a> State<'a> {
    /// Nothing priced, every clock at `t = 0`.
    ///
    /// # Panics
    /// Panics if the cluster and the schedule disagree on the world size.
    pub(crate) fn new(
        graph: &'a DepGraph<'a>,
        cost: &'a CostModel,
        cluster: &'a ClusterSpec,
        opts: SimOptions,
    ) -> Result<Self, SimError> {
        let p = graph.schedule.ranks;
        assert_eq!(cluster.ranks, p, "cluster size must match schedule");
        cluster.validate().map_err(|e| SimError(e.to_string()))?;
        Ok(State {
            graph,
            cost,
            bytes: cost.byte_model(),
            cluster,
            opts,
            arrivals: vec![f64::NAN; graph.messages()],
            link_free: HashMap::new(),
            compute_free: vec![0.0; p],
            last_compute_end: vec![0.0; p],
            coll_free: 0.0,
            coll_groups: HashMap::new(),
            busy: vec![0.0; p],
            timeline: vec![Vec::new(); p],
            mem_events: vec![Vec::new(); p],
            makespan: 0.0,
        })
    }

    /// Price `node` if every message on its wait list has an arrival time
    /// (always, in an order consistent with the graph); otherwise change
    /// nothing and return `false`.
    pub(crate) fn price(&mut self, node @ (r, i): Node) -> bool {
        let (graph, cost, cluster, opts) = (self.graph, self.cost, self.cluster, self.opts);
        let waits = graph.waits(node);
        if waits.iter().any(|&m| self.arrivals[m as usize].is_nan()) {
            return false;
        }
        let (p, op) = (graph.schedule.ranks, &graph.schedule.ops[r][i]);
        let needs_t =
            (waits[..op.needs.len()].iter()).fold(0.0f64, |t, &m| t.max(self.arrivals[m as usize]));
        // When a send or a collective entry may leave, the wire aside: its
        // needs are in, its payload's producer is done (`after_compute`)
        // and, without overlap, the compute engine is free to drive it.
        let mut local_t = needs_t;
        if op.after_compute {
            local_t = local_t.max(self.last_compute_end[r]);
        }
        if !opts.overlap {
            local_t = local_t.max(self.compute_free[r]);
        }

        let end_time;
        match (&op.kind, graph.message(node)) {
            (kind, None) => {
                let (class, mb, chunk) = compute_class(kind).expect("only compute is silent");
                let dur = match class {
                    'F' => cost.t_fwd(),
                    'B' => cost.t_bwd_full(),
                    'b' => cost.t_bwd_data(),
                    'w' => cost.t_bwd_weight(),
                    _ => cost.t_update(),
                };
                let dur = dur * opts.straggler.filter(|s| s.0 == r).map_or(1.0, |s| s.1);
                let start = self.compute_free[r].max(needs_t);
                let end = start + dur;
                (self.compute_free[r], self.last_compute_end[r], end_time) = (end, end, end);
                self.busy[r] += dur;
                // A checkpointed backward rematerialises the full
                // forward ctx for its duration — a real peak-memory
                // contributor (and why ZB gains nothing from
                // recompute, §4.3).
                if cost.recompute && class == 'B' {
                    let t = cost.recompute_transient_bytes() as i64;
                    self.mem_events[r].push((start, t));
                    self.mem_events[r].push((end, -t));
                }
                self.timeline[r].push(TimedOp {
                    start,
                    end,
                    class,
                    mb,
                    chunk,
                });
            }
            (OpKind::Send(k), Some(m)) => {
                let bytes = self.bytes.of(k.kind);
                // Resolve the link from both endpoints: grouped schedules
                // send between non-adjacent ranks (bridge hops, intra-node
                // fan-out), so src's ring successor is not enough.
                let link = cluster.link_between(k.src, k.dst);
                let free = self.link_free.entry((k.src, k.dst)).or_insert(0.0);
                let issue = local_t.max(*free);
                let occupy = bytes as f64 / link.bandwidth;
                *free = issue + occupy;
                if !opts.overlap {
                    self.compute_free[r] = issue + occupy;
                }
                let arrive = issue + occupy + link.latency;
                self.arrivals[m] = arrive;
                end_time = arrive;
            }
            // A wait on a pre-posted request completes when the
            // message lands, exactly like a blocking recv — the
            // overlap win comes from *where the builder places* the
            // wait, not from a cheaper wait.
            (OpKind::Recv(_) | OpKind::WaitReq(_), Some(m)) => end_time = self.arrivals[m],
            (OpKind::PrePost(_), _) => {
                // Posting the receive buffer is free and gates
                // nothing; memory for the in-flight slot is already
                // in the rank's static footprint (cost.rs).
                end_time = needs_t;
            }
            (kind, Some(m)) => {
                // Collective: record entry; complete at rendezvous.
                let payload = self.bytes.of(kind.collective_key(r).kind);
                let ready = local_t.max(self.coll_free);
                let (entered, start) = self.coll_groups.entry(m).or_insert((0, 0.0));
                (*entered, *start) = (*entered + 1, start.max(ready));
                if *entered == p {
                    let dur = match kind {
                        OpKind::AllReduceD { .. } => cluster.all_reduce_s(payload),
                        _ => cluster.gather_scatter_s(payload),
                    };
                    let done = *start + dur;
                    self.coll_free = self.coll_free.max(done);
                    if !opts.overlap {
                        self.compute_free.iter_mut().for_each(|t| *t = t.max(done));
                    }
                    self.arrivals[m] = done;
                    self.makespan = self.makespan.max(done);
                }
                // The entry's memory deltas land when the rank is ready to
                // enter: completion is known only while pricing the last
                // entry, and which rank's that is depends on the order.
                end_time = ready;
            }
        }

        for &(unit, delta) in &op.mem {
            self.mem_events[r].push((end_time, delta * cost.mem_unit_bytes(unit) as i64));
        }
        self.makespan = self.makespan.max(end_time);
        true
    }

    /// Fold the accumulators into a [`SimResult`] once every node is
    /// priced: peak memory from the event ledger (stable time sort over
    /// program-order events, running sum over the static footprint), the
    /// global bubble fraction, and the byte counts — which are the
    /// schedule's ([`wp_sched::analysis::traffic`]), whatever the clock says.
    pub(crate) fn finish(mut self) -> SimResult {
        let (schedule, cost, cluster) = (self.graph.schedule, self.cost, self.cluster);
        let bytes = self.bytes;
        let p = schedule.ranks;

        let peak_of = |(r, events): (usize, &mut Vec<(f64, i64)>)| {
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let stat = cost.static_mem_bytes(schedule, r) as i64;
            let sums = events.iter().scan(stat, |cur, &(_, d)| {
                *cur += d;
                Some(*cur)
            });
            sums.fold(stat, i64::max).max(0) as u64
        };
        let peak_mem = self
            .mem_events
            .iter_mut()
            .enumerate()
            .map(peak_of)
            .collect();

        let total_busy: f64 = self.busy.iter().sum();
        let bubble_ratio = if self.makespan > 0.0 {
            1.0 - total_busy / (p as f64 * self.makespan)
        } else {
            0.0
        };

        // Cross-node traffic is a property of the schedule and the
        // topology, not of event ordering.
        let crosses = |k: &MsgKey| cluster.group_of(k.src) != cluster.group_of(k.dst);
        let cross_node_p2p_bytes = (schedule.iter_ops())
            .filter_map(|(_, op)| match &op.kind {
                OpKind::Send(k) if crosses(k) => Some(bytes.of(k.kind)),
                _ => None,
            })
            .sum();

        let sent = wp_sched::analysis::traffic(schedule, &bytes);
        SimResult {
            makespan: self.makespan,
            busy: self.busy,
            bubble_ratio,
            peak_mem,
            p2p_bytes: sent.iter().map(|b| b.p2p).collect(),
            cross_node_p2p_bytes,
            collective_bytes: sent.iter().map(|b| b.collective).collect(),
            timeline: self.timeline,
        }
    }
}

/// A compute op's timeline class (`F`, `B` fused, `b` B pass, `w` W pass,
/// `U`), microbatch (`usize::MAX` for an update) and chunk.
pub(crate) fn compute_class(kind: &OpKind) -> Option<(char, usize, usize)> {
    match *kind {
        OpKind::Fwd { mb, chunk } => Some(('F', mb, chunk)),
        OpKind::BwdFull { mb, chunk } => Some(('B', mb, chunk)),
        OpKind::BwdData { mb, chunk } => Some(('b', mb, chunk)),
        OpKind::BwdWeight { mb, chunk } => Some(('w', mb, chunk)),
        OpKind::Update { chunk } => Some(('U', usize::MAX, chunk)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{GpuSpec, ModelDims};
    use crate::engine::{check_timeline, simulate, simulate_reference};
    use wp_sched::{build, Op, PipelineSpec, Schedule, Strategy};

    fn setup(strategy: Strategy, p: usize, n: usize) -> (Schedule, CostModel, ClusterSpec) {
        let sched = build(strategy, PipelineSpec::new(p, n));
        let dims = ModelDims::paper(1024, 32, 4096, 16);
        let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
        let cluster = ClusterSpec {
            ranks: p,
            node_size: p,
            ..ClusterSpec::nvlink_16()
        };
        (sched, cost, cluster)
    }

    /// Same bits on every observable, and a timeline the graph accepts.
    fn assert_bit_identical(sched: &Schedule, a: &SimResult, b: &SimResult, tag: &str) {
        assert_eq!(
            a.makespan.to_bits(),
            b.makespan.to_bits(),
            "{tag}: makespan"
        );
        assert_eq!(
            a.bubble_ratio.to_bits(),
            b.bubble_ratio.to_bits(),
            "{tag}: bubble"
        );
        assert_eq!(a.timeline, b.timeline, "{tag}: timeline");
        assert_eq!(a.busy, b.busy, "{tag}: busy");
        assert_eq!(a.peak_mem, b.peak_mem, "{tag}: peak_mem");
        assert_eq!(a.p2p_bytes, b.p2p_bytes, "{tag}: p2p_bytes");
        assert_eq!(
            a.collective_bytes, b.collective_bytes,
            "{tag}: collective_bytes"
        );
        let graph = DepGraph::build(sched).expect("valid");
        check_timeline(&graph, a).unwrap_or_else(|e| panic!("{tag}: {e}"));
    }

    #[test]
    fn one_pass_matches_reference_across_strategies_overlap_and_straggler() {
        for &s in wp_sched::ALL_STRATEGIES {
            let (sched, cost, cluster) = setup(s, 4, 8);
            for overlap in [true, false] {
                for straggler in [None, Some((2, 1.7))] {
                    let opts = SimOptions { overlap, straggler };
                    let a = simulate(&sched, &cost, &cluster, opts).expect("one pass");
                    let b = simulate_reference(&sched, &cost, &cluster, opts).expect("ref");
                    assert_bit_identical(&sched, &a, &b, &format!("{s:?} {opts:?}"));
                }
            }
        }
    }

    #[test]
    fn a_dropped_send_is_an_error_in_both_drivers() {
        let (mut sched, cost, cluster) = setup(Strategy::GPipe, 2, 2);
        for ops in &mut sched.ops {
            if let Some(pos) = ops.iter().position(|o| matches!(o.kind, OpKind::Send(_))) {
                ops.remove(pos);
                break;
            }
        }
        let opts = SimOptions::default();
        let err = simulate(&sched, &cost, &cluster, opts).unwrap_err();
        assert!(err.0.contains("has no matching send"), "{err}");
        assert!(simulate_reference(&sched, &cost, &cluster, opts).is_err());
    }

    /// A deadlock the graph can build but not order: `simulate` reports the
    /// graph's cycle, the reference driver the rank its scan stalls on.
    #[test]
    fn a_deadlock_is_the_graphs_cycle_in_one_pass_and_a_stall_in_the_reference() {
        let (mut sched, cost, cluster) = setup(Strategy::GPipe, 2, 2);
        let (there, back) = (MsgKey::act(0, 0, 1), MsgKey::act_grad(0, 1, 0));
        sched.ops = vec![
            vec![Op::recv(back), Op::send(there)],
            vec![Op::recv(there), Op::send(back)],
        ];
        let opts = SimOptions::default();
        let err = simulate(&sched, &cost, &cluster, opts).unwrap_err();
        let cycle = DepGraph::build(&sched)
            .expect("matched")
            .topological_order()
            .unwrap_err();
        assert_eq!(err.0, cycle.to_string());
        let err = simulate_reference(&sched, &cost, &cluster, opts).unwrap_err();
        assert!(err.0.starts_with("rank 0 stalled at op 0"), "{err}");
    }

    /// Two sends on one directed link share its DMA path: the second
    /// issues when the first has left the wire, and each lands one latency
    /// after it leaves. Priced by hand, no driver involved.
    #[test]
    fn sends_on_one_directed_link_serialize() {
        let (mut sched, cost, cluster) = setup(Strategy::GPipe, 2, 2);
        let key = |round| MsgKey::weights(0, 0, round, 0, 1);
        sched.ops = vec![
            vec![Op::send(key(0)), Op::send(key(1))],
            vec![Op::recv(key(0)), Op::recv(key(1))],
        ];
        let link = cluster.link_between(0, 1);
        let occupy = cost.weight_chunk_bytes() as f64 / link.bandwidth;
        let graph = DepGraph::build(&sched).expect("matched");
        let mut st = State::new(&graph, &cost, &cluster, SimOptions::default()).expect("state");
        assert!(!st.price((1, 0)), "nothing has arrived yet");
        assert!(st.arrivals.iter().all(|a| a.is_nan()) && st.makespan == 0.0);
        assert!(st.price((0, 0)) && st.price((0, 1)));
        assert_eq!(
            st.arrivals,
            [occupy + link.latency, occupy + occupy + link.latency]
        );
        assert!(st.price((1, 0)) && st.price((1, 1)));
        let r = st.finish();
        assert_eq!(r.makespan, occupy + occupy + link.latency);
        assert_eq!(r.p2p_bytes, [2 * cost.weight_chunk_bytes(), 0]);
    }

    /// One collective engine per rank: a rank's second all-reduce starts
    /// when its first has completed, however early the rank entered it —
    /// the graph's `Rendezvous` edge into the next entry, priced by hand.
    #[test]
    fn a_ranks_collectives_queue_behind_each_other() {
        let (mut sched, cost, cluster) = setup(Strategy::Ddp, 2, 2);
        let reduce = |chunk| Op::compute_collective(OpKind::AllReduceD { chunk, round: 0 });
        sched.ops = vec![
            vec![reduce(0), reduce(1)],
            vec![
                Op::compute(OpKind::Fwd { mb: 0, chunk: 0 }),
                reduce(0),
                reduce(1),
            ],
        ];
        let dur = cluster.all_reduce_s(cost.grad_chunk_bytes());
        for run in [simulate, simulate_reference] {
            let r = run(&sched, &cost, &cluster, SimOptions::default()).expect("runs");
            assert_eq!(r.makespan, cost.t_fwd() + dur + dur);
        }
    }
}
