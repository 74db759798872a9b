//! The one place a schedule is priced: [`State::step`] prices the op at a
//! rank's cursor, and two drivers decide which rank steps next.
//!
//! ## What is shared: the step
//!
//! [`State`] holds everything pricing reads or writes — message arrival
//! times, per-rank compute/collective engine clocks, per-directed-link
//! occupancy, open collective rendezvous, and the output accumulators
//! (timeline, busy seconds, byte counters, memory events, makespan).
//! [`State::step`] takes one rank: if every message the op at its cursor
//! depends on has an arrival time, the op is priced (semantics in
//! [`crate::engine`]'s module docs), its memory deltas are logged, the
//! cursor advances and the step returns [`Step::Done`]; otherwise nothing
//! changes and it returns [`Step::Blocked`] with the missing key.
//! [`State::finish`] folds the accumulators into a [`SimResult`].
//!
//! ## What the oracle varies: the driver
//!
//! * [`simulate_des`] (behind [`crate::engine::simulate`]) keeps a min-heap
//!   of rank wake-ups: a blocked rank parks on its key and is re-queued
//!   when some other rank's step resolves it — `O(ops · log P)` heap
//!   traffic, so fleet-scale grids (P in the thousands) price in seconds.
//! * [`crate::engine::simulate_reference`] re-scans every rank round-robin
//!   until no cursor moves — `O(rounds × P)` passes, minutes-slow at fleet
//!   scale, but with no queue, no waiter table and no wake-up to get wrong.
//!
//! The two visit ranks in very different orders, and the unit tests below,
//! `tests/engine_equivalence.rs` and the experiment-cell checks assert the
//! results are **bit-identical** — same timelines, busy seconds, bubble
//! fractions, memory peaks and byte counts. That is a check that visit
//! order cannot change a bit (and that the heap driver loses no wake-up),
//! not a second opinion on the prices: those are pinned by the golden
//! Table 2–4 CSVs (`wp-bench/tests/golden_tables.rs`) and the paper-claim
//! tests. Why order cannot matter:
//!
//! * every op's start/end time is a `max`/`+` combination of (a) message
//!   arrival times, (b) its own rank's engine state and (c) its own link's
//!   occupancy — all fully determined *before* the op can run, whichever
//!   order ranks are visited in. `f64::max` is exact and order-insensitive
//!   and every sum has a fixed operand order, so the fixpoint is unique;
//! * each directed link has a single writer (its source rank), so link
//!   occupancy serializes in that rank's program order under any driver —
//!   which is why a link is one `free` time, not a queue;
//! * per-rank side effects (timeline pushes, busy accumulation, memory
//!   events) happen in program order under any driver, so the stable sort
//!   and running sums in [`State::finish`] see identical sequences.

use crate::cluster::ClusterSpec;
use crate::cost::CostModel;
use crate::engine::{SimError, SimOptions, SimResult, TimedOp};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{BuildHasherDefault, Hasher};
use wp_sched::{MsgKey, MsgKind, Op, OpKind, Schedule};

/// A fast, deterministic hasher (FxHash-style rotate-xor-multiply) for the
/// hot arrival/waiter maps. The std SipHash dominates the profile at fleet
/// scale — tens of millions of [`MsgKey`] lookups per run — and this is
/// the standard compiler-internals replacement: deterministic across runs
/// and platforms, which the fixed-seed autotuner smoke relies on.
#[derive(Default)]
pub(crate) struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(b as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n as u64);
    }
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

pub(crate) type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// What [`State::step`] did with the op at a rank's cursor.
pub(crate) enum Step {
    /// Priced it and advanced the cursor.
    Done,
    /// Could not price it yet: this message has no arrival time.
    Blocked(MsgKey),
}

/// Everything pricing reads or writes; see the module docs.
pub(crate) struct State<'a> {
    schedule: &'a Schedule,
    cost: &'a CostModel,
    cluster: &'a ClusterSpec,
    opts: SimOptions,
    /// Per-rank index of the next op to price.
    cursor: Vec<usize>,
    /// Arrival time of every resolved message (write-once).
    arrivals: FxMap<MsgKey, f64>,
    /// Keys resolved since the driver last drained this, in resolution
    /// order — what the heap driver wakes parked ranks from.
    pub(crate) resolved: Vec<(MsgKey, f64)>,
    /// When each directed link `(src, dst)`'s DMA path frees up.
    link_free: FxMap<(usize, usize), f64>,
    /// Per-rank compute-engine availability.
    compute_free: Vec<f64>,
    /// Per-rank end of the latest compute op.
    last_compute_end: Vec<f64>,
    /// Per-rank collective-engine availability.
    coll_free: Vec<f64>,
    /// Open collective rendezvous keyed by `(kind, chunk, round)`: how many
    /// ranks have entered and the latest of their ready times.
    coll_groups: FxMap<(u8, usize, usize), (usize, f64)>,
    /// Per-rank compute-engine busy seconds.
    busy: Vec<f64>,
    /// Per-rank bytes sent point-to-point.
    p2p_bytes: Vec<u64>,
    /// Per-rank bytes sent in collectives (ring-charged).
    collective_bytes: Vec<u64>,
    /// Per-rank timed compute ops.
    timeline: Vec<Vec<TimedOp>>,
    /// Per-rank memory events `(time, signed bytes)` in program order.
    mem_events: Vec<Vec<(f64, i64)>>,
    /// Latest op end time seen.
    makespan: f64,
}

impl<'a> State<'a> {
    /// Every rank at op 0, every clock at `t = 0`.
    ///
    /// # Panics
    /// Panics if the cluster and the schedule disagree on the world size.
    pub(crate) fn new(
        schedule: &'a Schedule,
        cost: &'a CostModel,
        cluster: &'a ClusterSpec,
        opts: SimOptions,
    ) -> Result<Self, SimError> {
        let p = schedule.ranks;
        assert_eq!(cluster.ranks, p, "cluster size must match schedule");
        cluster.validate().map_err(|e| SimError(e.to_string()))?;
        let sends = schedule
            .ops
            .iter()
            .flatten()
            .filter(|o| matches!(o.kind, OpKind::Send(_)))
            .count();
        let computes = |ops: &Vec<Op>| ops.iter().filter(|o| o.kind.is_compute()).count();
        Ok(State {
            schedule,
            cost,
            cluster,
            opts,
            cursor: vec![0; p],
            // Sized up front: at fleet scale the arrival table holds
            // millions of keys, and letting it grow by doubling would
            // re-hash the multi-GB table ~20 times.
            arrivals: FxMap::with_capacity_and_hasher(sends * 2, Default::default()),
            resolved: Vec::new(),
            link_free: FxMap::default(),
            compute_free: vec![0.0; p],
            last_compute_end: vec![0.0; p],
            coll_free: vec![0.0; p],
            coll_groups: FxMap::default(),
            busy: vec![0.0; p],
            p2p_bytes: vec![0; p],
            collective_bytes: vec![0; p],
            timeline: schedule
                .ops
                .iter()
                .map(|ops| Vec::with_capacity(computes(ops)))
                .collect(),
            mem_events: vec![Vec::new(); p],
            makespan: 0.0,
        })
    }

    /// Index of the next op rank `r` will price.
    pub(crate) fn cursor(&self, r: usize) -> usize {
        self.cursor[r]
    }

    /// Step rank `r` until it blocks (returning the key it waits for) or
    /// runs out of ops (`None`).
    pub(crate) fn advance(&mut self, r: usize) -> Option<MsgKey> {
        while self.cursor[r] < self.schedule.ops[r].len() {
            if let Step::Blocked(key) = self.step(r) {
                return Some(key);
            }
        }
        None
    }

    /// Record a message's arrival time.
    fn resolve(&mut self, key: MsgKey, t: f64) {
        self.arrivals.insert(key, t);
        self.resolved.push((key, t));
    }

    /// Price the op at rank `r`'s cursor if every message it depends on
    /// has an arrival time; otherwise change nothing.
    ///
    /// # Panics
    /// Panics if rank `r` has no op left.
    pub(crate) fn step(&mut self, r: usize) -> Step {
        let (schedule, cost, cluster, opts) = (self.schedule, self.cost, self.cluster, self.opts);
        let p = schedule.ranks;
        let op = &schedule.ops[r][self.cursor[r]];
        let mut needs_t = 0.0f64;
        for k in &op.needs {
            match self.arrivals.get(k) {
                Some(&a) => needs_t = needs_t.max(a),
                None => return Step::Blocked(*k),
            }
        }

        let end_time;
        match &op.kind {
            kind if kind.is_compute() => {
                let (dur, class, mb, chunk) = match *kind {
                    OpKind::Fwd { mb, chunk } => (cost.t_fwd(), 'F', mb, chunk),
                    OpKind::BwdFull { mb, chunk } => (cost.t_bwd_full(), 'B', mb, chunk),
                    OpKind::BwdData { mb, chunk } => (cost.t_bwd_data(), 'b', mb, chunk),
                    OpKind::BwdWeight { mb, chunk } => (cost.t_bwd_weight(), 'w', mb, chunk),
                    OpKind::Update { chunk } => (cost.t_update(), 'U', usize::MAX, chunk),
                    _ => unreachable!(),
                };
                let dur = match opts.straggler {
                    Some((sr, slow)) if sr == r => dur * slow,
                    _ => dur,
                };
                let start = self.compute_free[r].max(needs_t);
                let end = start + dur;
                self.compute_free[r] = end;
                self.last_compute_end[r] = end;
                self.busy[r] += dur;
                end_time = end;
                // A checkpointed backward rematerialises the full
                // forward ctx for its duration — a real peak-memory
                // contributor (and why ZB gains nothing from
                // recompute, §4.3).
                if cost.recompute && matches!(kind, OpKind::BwdFull { .. }) {
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
            OpKind::Send(k) => {
                let bytes = msg_bytes(cost, k);
                // Resolve the link from both endpoints: grouped schedules
                // send between non-adjacent ranks (bridge hops, intra-node
                // fan-out), so src's ring successor is not enough.
                let link = cluster.link_between(k.src, k.dst);
                let free = self.link_free.entry((k.src, k.dst)).or_insert(0.0);
                let mut issue = needs_t.max(*free);
                if op.after_compute {
                    issue = issue.max(self.last_compute_end[r]);
                }
                if !opts.overlap {
                    issue = issue.max(self.compute_free[r]);
                }
                let occupy = bytes as f64 / link.bandwidth;
                *free = issue + occupy;
                if !opts.overlap {
                    self.compute_free[r] = issue + occupy;
                }
                let arrive = issue + occupy + link.latency;
                self.resolve(*k, arrive);
                self.p2p_bytes[r] += bytes;
                end_time = arrive;
            }
            // A wait on a pre-posted request completes when the
            // message lands, exactly like a blocking recv — the
            // overlap win comes from *where the builder places* the
            // wait, not from a cheaper wait.
            OpKind::Recv(k) | OpKind::WaitReq(k) => match self.arrivals.get(k) {
                Some(&a) => end_time = a,
                None => return Step::Blocked(*k),
            },
            OpKind::PrePost(_) => {
                // Posting the receive buffer is free and gates
                // nothing; memory for the in-flight slot is already
                // in the strategy's static footprint (cost.rs).
                end_time = needs_t;
            }
            kind => {
                // Collective: record entry; complete at rendezvous.
                let payload = msg_bytes(cost, &kind.collective_key(r));
                let all_reduce = matches!(kind, OpKind::AllReduceD { .. });
                let mut ready = needs_t.max(self.coll_free[r]);
                if op.after_compute {
                    ready = ready.max(self.last_compute_end[r]);
                }
                if !opts.overlap {
                    ready = ready.max(self.compute_free[r]);
                }
                let (entered, start) = self
                    .coll_groups
                    .entry(kind.rendezvous())
                    .or_insert((0, 0.0));
                *entered += 1;
                *start = start.max(ready);
                let (entered, start) = (*entered, *start);
                self.collective_bytes[r] +=
                    if all_reduce { 2 * payload } else { payload } * (p as u64 - 1) / p as u64;
                if entered == p {
                    let dur = if all_reduce {
                        cluster.all_reduce_s(payload)
                    } else {
                        cluster.gather_scatter_s(payload)
                    };
                    let done = start + dur;
                    for rr in 0..p {
                        self.coll_free[rr] = self.coll_free[rr].max(done);
                        if !opts.overlap {
                            self.compute_free[rr] = self.compute_free[rr].max(done);
                        }
                        self.resolve(kind.collective_key(rr), done);
                    }
                    end_time = done;
                } else {
                    end_time = ready;
                }
            }
        }

        for &(unit, delta) in &op.mem {
            self.mem_events[r].push((end_time, delta * cost.mem_unit_bytes(unit) as i64));
        }
        self.makespan = self.makespan.max(end_time);
        self.cursor[r] += 1;
        Step::Done
    }

    /// Fold the accumulators into a [`SimResult`] once no rank can step:
    /// peak memory from the event ledger (stable time sort over
    /// program-order events, running sum over the static footprint), the
    /// global bubble fraction, and the cross-node byte count. `Err` when a
    /// rank still has ops — it waits for a message nobody sends.
    pub(crate) fn finish(mut self) -> Result<SimResult, SimError> {
        let (schedule, cost, cluster) = (self.schedule, self.cost, self.cluster);
        let p = schedule.ranks;
        for (r, ops) in schedule.ops.iter().enumerate() {
            if let Some(op) = ops.get(self.cursor[r]) {
                return Err(SimError(format!(
                    "rank {r} stalled at op {} ({:?})",
                    self.cursor[r], op.kind
                )));
            }
        }

        let mut peak_mem = Vec::with_capacity(p);
        for (r, events) in self.mem_events.iter_mut().enumerate() {
            events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite times"));
            let stat = cost.static_mem_bytes(schedule.strategy, r, p) as i64;
            let mut cur = stat;
            let mut peak = stat;
            for &(_, d) in events.iter() {
                cur += d;
                peak = peak.max(cur);
            }
            peak_mem.push(peak.max(0) as u64);
        }

        let total_busy: f64 = self.busy.iter().sum();
        let bubble_ratio = if self.makespan > 0.0 {
            1.0 - total_busy / (p as f64 * self.makespan)
        } else {
            0.0
        };

        // Cross-node traffic is a property of the schedule and the
        // topology, not of event ordering.
        let mut cross_node_p2p_bytes = 0u64;
        for op in schedule.ops.iter().flatten() {
            if let OpKind::Send(k) = &op.kind {
                if cluster.group_of(k.src) != cluster.group_of(k.dst) {
                    cross_node_p2p_bytes += msg_bytes(cost, k);
                }
            }
        }

        Ok(SimResult {
            makespan: self.makespan,
            busy: self.busy,
            bubble_ratio,
            peak_mem,
            p2p_bytes: self.p2p_bytes,
            cross_node_p2p_bytes,
            collective_bytes: self.collective_bytes,
            timeline: self.timeline,
        })
    }
}

/// Wire bytes of one point-to-point message, or of the payload a
/// collective moves (by its completion key).
fn msg_bytes(cost: &CostModel, k: &MsgKey) -> u64 {
    match k.kind {
        MsgKind::Weights => cost.weight_chunk_bytes(),
        MsgKind::WeightGrads => cost.grad_chunk_bytes(),
        MsgKind::Act => cost.act_boundary_bytes(),
        MsgKind::ActGrad => cost.act_grad_boundary_bytes(),
    }
}

/// One wake-up in the global event queue.
#[derive(Debug, Clone, Copy)]
struct Event {
    /// Simulated wake-up time, seconds.
    time: f64,
    /// Monotonic tie-break: equal-time events pop in push order, keeping
    /// runs deterministic (results are order-insensitive regardless — see
    /// the module docs).
    seq: u64,
    /// Rank to advance.
    rank: usize,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then(self.seq.cmp(&other.seq))
    }
}

/// Min-heap of rank wake-ups keyed by `(time, push order)`.
#[derive(Default)]
struct EventQueue {
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
}

impl EventQueue {
    fn push(&mut self, time: f64, rank: usize) {
        self.seq += 1;
        self.heap.push(Reverse(Event {
            time,
            seq: self.seq,
            rank,
        }));
    }

    fn pop(&mut self) -> Option<Event> {
        self.heap.pop().map(|Reverse(e)| e)
    }
}

/// The heap driver behind [`crate::engine::simulate`]: every rank starts
/// runnable; a rank that blocks parks on its key and is woken, at the
/// key's arrival time, by whichever step resolves it.
pub(crate) fn simulate_des(
    schedule: &Schedule,
    cost: &CostModel,
    cluster: &ClusterSpec,
    opts: SimOptions,
) -> Result<SimResult, SimError> {
    let mut st = State::new(schedule, cost, cluster, opts)?;
    let mut queue = EventQueue::default();
    let mut waiters: FxMap<MsgKey, Vec<usize>> = FxMap::default();
    for r in 0..schedule.ranks {
        queue.push(0.0, r);
    }
    while let Some(ev) = queue.pop() {
        // A rank re-reads `arrivals` (which its own steps update) before
        // it blocks, so the key it parks on cannot be in `resolved`.
        if let Some(key) = st.advance(ev.rank) {
            waiters.entry(key).or_default().push(ev.rank);
        }
        for (key, t) in st.resolved.drain(..) {
            for rank in waiters.remove(&key).into_iter().flatten() {
                queue.push(t, rank);
            }
        }
    }
    st.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::{GpuSpec, ModelDims};
    use crate::engine::simulate_reference;
    use wp_sched::{build, PipelineSpec, Strategy};

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

    fn assert_bit_identical(a: &SimResult, b: &SimResult, tag: &str) {
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
    }

    #[test]
    fn des_matches_reference_across_strategies_and_overlap() {
        for &s in wp_sched::ALL_STRATEGIES {
            let (sched, cost, cluster) = setup(s, 4, 8);
            for overlap in [true, false] {
                let opts = SimOptions {
                    overlap,
                    ..Default::default()
                };
                let a = simulate_des(&sched, &cost, &cluster, opts).expect("des");
                let b = simulate_reference(&sched, &cost, &cluster, opts).expect("ref");
                assert_bit_identical(&a, &b, &format!("{s:?} overlap={overlap}"));
            }
        }
    }

    #[test]
    fn des_matches_reference_under_straggler() {
        let (sched, cost, cluster) = setup(Strategy::WeiPipeInterleave, 4, 8);
        let opts = SimOptions {
            overlap: true,
            straggler: Some((2, 1.7)),
        };
        let a = simulate_des(&sched, &cost, &cluster, opts).expect("des");
        let b = simulate_reference(&sched, &cost, &cluster, opts).expect("ref");
        assert_bit_identical(&a, &b, "straggler");
    }

    #[test]
    fn des_detects_stalls_like_reference() {
        let (mut sched, cost, cluster) = setup(Strategy::GPipe, 2, 2);
        // Drop one send: its consumers stall in both engines.
        for ops in &mut sched.ops {
            if let Some(pos) = ops.iter().position(|o| matches!(o.kind, OpKind::Send(_))) {
                ops.remove(pos);
                break;
            }
        }
        let opts = SimOptions::default();
        assert!(simulate_des(&sched, &cost, &cluster, opts).is_err());
        assert!(simulate_reference(&sched, &cost, &cluster, opts).is_err());
    }

    #[test]
    fn event_queue_orders_by_time_then_push_order() {
        let mut q = EventQueue::default();
        q.push(2.0, 0);
        q.push(1.0, 1);
        q.push(1.0, 2);
        assert_eq!(q.pop().map(|e| e.rank), Some(1));
        assert_eq!(q.pop().map(|e| e.rank), Some(2));
        assert_eq!(q.pop().map(|e| e.rank), Some(0));
        assert!(q.pop().is_none());
    }

    /// Two sends on one directed link share its DMA path: the second
    /// issues when the first has left the wire, and each lands one latency
    /// after it leaves. Priced by hand, no second engine involved.
    #[test]
    fn sends_on_one_directed_link_serialize() {
        let (mut sched, cost, cluster) = setup(Strategy::GPipe, 2, 2);
        let key = |round| MsgKey {
            kind: MsgKind::Weights,
            chunk: 0,
            mb: 0,
            round,
            src: 0,
            dst: 1,
        };
        sched.ops = vec![
            vec![Op::send(key(0)), Op::send(key(1))],
            vec![Op::recv(key(0)), Op::recv(key(1))],
        ];
        let link = cluster.link_between(0, 1);
        let occupy = cost.weight_chunk_bytes() as f64 / link.bandwidth;
        let mut st = State::new(&sched, &cost, &cluster, SimOptions::default()).expect("state");
        assert!(matches!(st.step(1), Step::Blocked(k) if k == key(0)));
        assert_eq!(st.cursor(1), 0, "a blocked step changes nothing");
        assert_eq!(st.advance(0), None);
        assert_eq!(
            st.resolved,
            [
                (key(0), occupy + link.latency),
                (key(1), occupy + occupy + link.latency)
            ]
        );
        assert_eq!(st.advance(1), None);
        let r = st.finish().expect("both ranks ran out of ops");
        assert_eq!(r.makespan, occupy + occupy + link.latency);
        assert_eq!(r.p2p_bytes, [2 * cost.weight_chunk_bytes(), 0]);
    }
}
