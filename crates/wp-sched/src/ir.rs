//! The schedule intermediate representation.
//!
//! A [`Schedule`] is one instruction stream per rank describing a whole
//! training iteration: compute ops (forward, the fused or split backward
//! passes, optimizer updates), point-to-point messages, and collectives.
//! Every strategy — WeiPipe variants and baselines alike — compiles to this
//! IR; the discrete-event simulator executes it, the validator checks its
//! physical consistency, and the analyses count its bytes.
//!
//! ## Execution semantics
//!
//! Which op waits on which — program order, message delivery, collective
//! rendezvous, and which of those waits the simulator prices — is stated
//! once, in [`crate::graph`]. In short: a rank is one compute stream plus
//! full-duplex DMA (the `batch_isend_irecv`-style overlap of the paper's
//! §4.3); `Send` does not block; `Recv` returns at arrival, so where the
//! builder places it decides what it overlaps.

/// Sentinel microbatch index for ops that aren't tied to a microbatch.
pub const NO_MB: usize = usize::MAX;

/// Sentinel chunk index for the replicated embedding+head parameters.
pub const EMBED_HEAD: usize = usize::MAX;

// Flow tags: the second half of a weight-slot key `(chunk, flow)`. A
// `Weights` message fills the slot `(key.chunk, key.mb)`, so the two ring
// flows double as the `mb` of their messages; the other two never travel.

/// Forward-flow copy of the weight ring.
pub const FLOW_FWD: usize = NO_MB - 1;
/// Backward-flow copy of the weight ring.
pub const FLOW_BWD: usize = NO_MB - 2;
/// A whole chunk that stays put: a pipeline stage, a DDP replica, the
/// target of an all-gather.
pub const RESIDENT: usize = NO_MB - 9;
/// A rank's `1/P` slice of a chunk; `AllGatherW` makes a [`RESIDENT`] copy.
pub const SHARDED: usize = NO_MB - 10;

/// What a point-to-point message carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// A chunk of model weights (`W_j` in the paper).
    Weights,
    /// A chunk of weight gradients (`D_j`).
    WeightGrads,
    /// Boundary activations of a microbatch (`A_j^i`).
    Act,
    /// Boundary activation gradients (`B_j^i`).
    ActGrad,
}

/// Unique identity of one point-to-point message.
///
/// `round` disambiguates repeated transfers of the same logical payload
/// (e.g. `W_0` hops every turn of the WeiPipe ring); builders typically use
/// the turn or microbatch-group index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MsgKey {
    /// Payload type.
    pub kind: MsgKind,
    /// Model chunk (group of contiguous layers) or [`EMBED_HEAD`].
    pub chunk: usize,
    /// Microbatch, or [`NO_MB`] for weight traffic.
    pub mb: usize,
    /// Transfer-instance disambiguator.
    pub round: usize,
    /// Sending rank.
    pub src: usize,
    /// Receiving rank.
    pub dst: usize,
}

impl MsgKey {
    fn new(kind: MsgKind, chunk: usize, mb: usize, round: usize, src: usize, dst: usize) -> Self {
        MsgKey {
            kind,
            chunk,
            mb,
            round,
            src,
            dst,
        }
    }

    /// `chunk`'s weights hopping `src → dst` in `round` on ring flow `flow`
    /// ([`FLOW_FWD`] / [`FLOW_BWD`]).
    pub fn weights(chunk: usize, flow: usize, round: usize, src: usize, dst: usize) -> Self {
        Self::new(MsgKind::Weights, chunk, flow, round, src, dst)
    }

    /// `chunk`'s weight-gradient accumulator moving `src → dst` in `round`.
    pub fn weight_grads(chunk: usize, round: usize, src: usize, dst: usize) -> Self {
        Self::new(MsgKind::WeightGrads, chunk, NO_MB, round, src, dst)
    }

    /// Microbatch `mb`'s boundary activations entering stage `dst` from
    /// `src`. A stage's chunk is its rank and a microbatch crosses each
    /// boundary once, so `chunk` is `dst` and `round` is 0.
    pub fn act(mb: usize, src: usize, dst: usize) -> Self {
        Self::new(MsgKind::Act, dst, mb, 0, src, dst)
    }

    /// Microbatch `mb`'s boundary activation gradients entering stage `dst`
    /// from `src`; `chunk` and `round` as for [`Self::act`].
    pub fn act_grad(mb: usize, src: usize, dst: usize) -> Self {
        Self::new(MsgKind::ActGrad, dst, mb, 0, src, dst)
    }

    /// This key as a `wp-comm` tag (`src` and `dst` live in the channel):
    /// `kind` in bits 46–47, `chunk` (< 2¹²) in 34–45, `mb` in 18–33 and
    /// `round` (< 2¹⁸) in 0–17. A microbatch below `0xFF00` is itself, and
    /// the sentinel flows within 15 of [`NO_MB`] map into `0xFFF0`–`0xFFFF`
    /// (`0xFF00`–`0xFFEF` is [`Refresh::tag`]'s), so every tag is below
    /// wp-comm's collective band (`1 << 48`).
    /// `None` for a key it cannot encode, which
    /// [`validate`](crate::validate::validate) rejects.
    pub fn tag(&self) -> Option<u64> {
        let kind = match self.kind {
            MsgKind::Weights => 0u64,
            MsgKind::WeightGrads => 1,
            MsgKind::Act => 2,
            MsgKind::ActGrad => 3,
        };
        let mb = if self.mb >= NO_MB - 15 {
            0xFFFF - (NO_MB - self.mb) as u64
        } else if self.mb < 0xFF00 {
            self.mb as u64
        } else {
            return None;
        };
        let (chunk, round) = (self.chunk as u64, self.round as u64);
        (chunk < 1 << 12 && round < 1 << 18)
            .then_some((kind << 46) | (chunk << 34) | (mb << 18) | round)
    }
}

/// The weight slot `(chunk, flow)` a compute op on `chunk` reads: the one
/// its `needs` name — a `Weights` message fills `(chunk, mb)`, a
/// collective's pseudo-key (`src == dst`) the gathered [`RESIDENT`] copy —
/// else the first flow, in the order below, that `held` says the rank has.
/// The validator and the runtime both resolve through this function, so
/// what validates is what runs. Panics when `needs` names another chunk.
pub fn weight_slot(
    needs: &[MsgKey],
    chunk: usize,
    held: impl Fn(&(usize, usize)) -> bool,
) -> Option<(usize, usize)> {
    if let Some(k) = needs.iter().find(|k| k.kind == MsgKind::Weights) {
        assert_eq!(k.chunk, chunk, "weights dependency for the wrong chunk");
        return Some((chunk, if k.src == k.dst { RESIDENT } else { k.mb }));
    }
    [FLOW_FWD, FLOW_BWD, RESIDENT, SHARDED]
        .into_iter()
        .map(|flow| (chunk, flow))
        .find(held)
}

/// Memory pools the ledger tracks. No op declares them:
/// [`mem_deltas`](crate::analysis::mem_deltas) derives each op's signed
/// deltas in these units from the op streams, and the cost model converts a
/// unit to bytes for a concrete (H, S, G, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemUnit {
    /// Saved forward activations of (one microbatch × one chunk).
    FwdCtx,
    /// Checkpointed input only (recompute mode) for (microbatch × chunk).
    CkptInput,
    /// B-pass context handed to a deferred W pass (microbatch × chunk).
    BCtx,
    /// One chunk's weight buffer (in transit or resident beyond the owned
    /// shard).
    WeightChunk,
    /// One chunk's weight-gradient buffer.
    GradChunk,
    /// Boundary activations of one microbatch (activation-passing pipes).
    ActBoundary,
    /// Boundary activation gradients of one microbatch.
    ActGradBoundary,
}

/// One instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind {
    /// Forward one microbatch through one chunk.
    Fwd {
        /// Microbatch index.
        mb: usize,
        /// Chunk index.
        chunk: usize,
    },
    /// Fused backward (data + weight gradients).
    BwdFull {
        /// Microbatch index.
        mb: usize,
        /// Chunk index.
        chunk: usize,
    },
    /// *B pass*: data gradients only.
    BwdData {
        /// Microbatch index.
        mb: usize,
        /// Chunk index.
        chunk: usize,
    },
    /// *W pass*: weight gradients only.
    BwdWeight {
        /// Microbatch index.
        mb: usize,
        /// Chunk index.
        chunk: usize,
    },
    /// Optimizer step for a chunk this rank owns.
    Update {
        /// Chunk index (or [`EMBED_HEAD`]).
        chunk: usize,
    },
    /// Non-blocking point-to-point send (this rank must be `key.src`).
    Send(MsgKey),
    /// Point-to-point receive (this rank is `key.dst`): blocks until the
    /// message has arrived.
    Recv(MsgKey),
    /// Ring all-gather of a weight chunk (FSDP).
    AllGatherW {
        /// Chunk index.
        chunk: usize,
        /// Instance disambiguator.
        round: usize,
    },
    /// Ring reduce-scatter of a gradient chunk (FSDP).
    ReduceScatterD {
        /// Chunk index.
        chunk: usize,
        /// Instance disambiguator.
        round: usize,
    },
    /// Ring all-reduce of a gradient chunk (DDP, or embed/head grads).
    AllReduceD {
        /// Chunk index (or [`EMBED_HEAD`]).
        chunk: usize,
        /// Instance disambiguator.
        round: usize,
    },
}

impl OpKind {
    /// True for ops that occupy the compute engine.
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            OpKind::Fwd { .. }
                | OpKind::BwdFull { .. }
                | OpKind::BwdData { .. }
                | OpKind::BwdWeight { .. }
                | OpKind::Update { .. }
        )
    }

    /// True for collective ops.
    pub fn is_collective(&self) -> bool {
        matches!(
            self,
            OpKind::AllGatherW { .. } | OpKind::ReduceScatterD { .. } | OpKind::AllReduceD { .. }
        )
    }

    /// The completion key of a collective on `rank`: the pseudo-message
    /// (`src == dst == rank`) that "arrives" there when the rendezvous
    /// completes, and that consumers of the collective's result name in
    /// their `needs`. Builders, the validator and the simulator all derive
    /// it here. Panics on anything that is not a collective.
    pub fn collective_key(&self, rank: usize) -> MsgKey {
        let (kind, chunk, round) = match *self {
            OpKind::AllGatherW { chunk, round } => (MsgKind::Weights, chunk, round),
            OpKind::ReduceScatterD { chunk, round } | OpKind::AllReduceD { chunk, round } => {
                (MsgKind::WeightGrads, chunk, round)
            }
            _ => panic!("{self:?} is not a collective"),
        };
        MsgKey::new(kind, chunk, NO_MB, round, rank, rank)
    }

    /// What identifies one rendezvous: every rank's instance of the same
    /// collective maps to the same value, different collectives to
    /// different ones. Panics on anything that is not a collective.
    pub fn rendezvous(&self) -> (u8, usize, usize) {
        match *self {
            OpKind::AllGatherW { chunk, round } => (0, chunk, round),
            OpKind::ReduceScatterD { chunk, round } => (1, chunk, round),
            OpKind::AllReduceD { chunk, round } => (2, chunk, round),
            _ => panic!("{self:?} is not a collective"),
        }
    }
}

/// One scheduled instruction with its dependencies. What it does to memory
/// follows from the streams ([`mem_deltas`](crate::analysis::mem_deltas)).
#[derive(Debug, Clone, PartialEq)]
pub struct Op {
    /// The instruction.
    pub kind: OpKind,
    /// Messages — delivered to this rank — that must have arrived before
    /// the op starts: `Message` / `Rendezvous` edges of [`crate::graph`].
    pub needs: Vec<MsgKey>,
    /// For a `Send` or a collective: the payload is produced locally, so
    /// also wait for the rank's latest preceding compute op (the graph's
    /// `AfterCompute` edge). Pure forwarding sends (ring weight hops) clear
    /// this so forwarding overlaps local compute.
    pub after_compute: bool,
}

impl Op {
    fn of(kind: OpKind, after_compute: bool) -> Self {
        Op {
            kind,
            needs: Vec::new(),
            after_compute,
        }
    }

    /// A compute op with no message dependencies.
    pub fn compute(kind: OpKind) -> Self {
        debug_assert!(kind.is_compute());
        Self::of(kind, false)
    }

    /// A send that waits for the preceding compute op (locally produced
    /// payload).
    pub fn send(key: MsgKey) -> Self {
        Self::of(OpKind::Send(key), true)
    }

    /// The send of a seeded chunk at turn 0: the payload is already held
    /// ([`Schedule::seeds`]), so it departs with nothing to wait for.
    pub fn seed_send(key: MsgKey) -> Self {
        Self::of(OpKind::Send(key), false)
    }

    /// A forwarding send: fires as soon as `arrived` is in, regardless of
    /// local compute.
    pub fn forward_send(key: MsgKey, arrived: MsgKey) -> Self {
        Self::seed_send(key).needs(arrived)
    }

    /// A receive.
    pub fn recv(key: MsgKey) -> Self {
        Self::of(OpKind::Recv(key), false)
    }

    /// A collective op. It gates on the latest preceding compute op (the
    /// payload it contributes is produced locally) but runs on the comm
    /// engine so later compute overlaps it.
    pub fn compute_collective(kind: OpKind) -> Self {
        debug_assert!(kind.is_collective());
        Self::of(kind, true)
    }

    /// Add a message dependency.
    pub fn needs(mut self, key: MsgKey) -> Self {
        self.needs.push(key);
        self
    }
}

/// Which training strategy a schedule encodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// All-forward-then-all-backward pipeline.
    GPipe,
    /// One-forward-one-backward pipeline (Dapple / Megatron default).
    OneFOneB,
    /// Zero-bubble variant 1 (split B/W, ~1F1B memory).
    Zb1,
    /// Zero-bubble variant 2 (split B/W, more in-flight microbatches).
    Zb2,
    /// Fully sharded data parallelism (ZeRO-3 style).
    Fsdp,
    /// Replicated data parallelism with a gradient all-reduce.
    Ddp,
    /// Weight-passing pipeline, naive schedule (paper §4.2.1).
    WeiPipeNaive,
    /// Weight-passing pipeline with forward/backward interleaving (§4.2.2).
    WeiPipeInterleave,
    /// Weight-passing zero-bubble 1 (§4.2.3.1).
    Wzb1,
    /// Weight-passing zero-bubble 2 (§4.2.3.2).
    Wzb2,
    /// Topology-aware hierarchical WeiPipe (TawPipe-style): ranks are split
    /// into groups of `group` (typically one NVLink island each); every
    /// group runs the interleaved weight ring on its fast intra-group links
    /// over a full model replica sharded `group` ways, and gradients are
    /// reconciled across groups once per iteration via one designated
    /// bridge rank per group — the only traffic that rides the slow
    /// inter-group link.
    WeiPipeHier,
}

impl Strategy {
    /// Display name used in tables (matches the paper's column headings).
    pub fn label(&self) -> &'static str {
        match self {
            Strategy::GPipe => "GPipe",
            Strategy::OneFOneB => "1F1B",
            Strategy::Zb1 => "ZB1",
            Strategy::Zb2 => "ZB2",
            Strategy::Fsdp => "FSDP",
            Strategy::Ddp => "DDP",
            Strategy::WeiPipeNaive => "WeiPipe-Naive",
            Strategy::WeiPipeInterleave => "WeiPipe",
            Strategy::Wzb1 => "WZB1",
            Strategy::Wzb2 => "WZB2",
            Strategy::WeiPipeHier => "WeiPipe-Hier",
        }
    }
}

/// A complete per-rank instruction schedule for one (or more) iterations.
#[derive(Debug, Clone)]
pub struct Schedule {
    /// Strategy that produced this schedule.
    pub strategy: Strategy,
    /// World size `P`.
    pub ranks: usize,
    /// Number of model chunks the strategy partitions the model into.
    pub chunks: usize,
    /// Microbatches per iteration `N`.
    pub microbatches: usize,
    /// One instruction stream per rank.
    pub ops: Vec<Vec<Op>>,
    /// `initial_holder[chunk]` — which rank holds (and owns optimizer state
    /// for) each chunk at iteration start.
    pub initial_holder: Vec<usize>,
    /// `seeds[rank]` — the weight copies `(chunk, flow)` the rank holds when
    /// an iteration starts. Everything else a rank reads arrives by
    /// `Recv`/`AllGatherW`; the validator checks that nothing is
    /// read or sent before it is held. Which copies an iteration leaves
    /// stale follows from these and the `Update` ops ([`Self::refreshes`]).
    pub seeds: Vec<Vec<(usize, usize)>>,
    /// Whether a forward saves only its chunk's input (`CkptInput`) for a
    /// backward that recomputes the rest, instead of its whole context.
    pub recompute: bool,
}

/// A seeded weight copy an iteration leaves stale, and who has it fresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Refresh {
    /// Chunk of the stale copy.
    pub chunk: usize,
    /// Flow of the stale copy (its slot is `(chunk, flow)` on `dst`).
    pub flow: usize,
    /// Rank that stepped the chunk.
    pub src: usize,
    /// Rank that holds the stale copy (`src` itself for its second copy).
    pub dst: usize,
}

impl Refresh {
    /// This refresh's `wp-comm` tag in iteration `iter`: [`MsgKey::tag`]'s
    /// layout for a `Weights` key of `chunk`, with the `mb` field in
    /// `0xFF00 + (NO_MB − flow)`, a band [`MsgKey::tag`] never emits, and
    /// `iter` (mod 2¹⁸) as the round. Below wp-comm's collective band, and
    /// distinct from every schedule tag on the same channel.
    pub fn tag(&self, iter: usize) -> u64 {
        let band = NO_MB - self.flow;
        assert!(band < 0xF0 && self.chunk < 1 << 12, "untaggable {self:?}");
        ((self.chunk as u64) << 34) | ((0xFF00 + band as u64) << 18) | (iter as u64 & 0x3_FFFF)
    }
}

/// Aggregate op counts of a schedule (see [`Schedule::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ScheduleStats {
    /// Forward ops.
    pub fwd: usize,
    /// Fused backward ops.
    pub bwd_full: usize,
    /// Split B-pass ops.
    pub bwd_data: usize,
    /// Split W-pass ops.
    pub bwd_weight: usize,
    /// Optimizer updates.
    pub updates: usize,
    /// Point-to-point sends.
    pub sends: usize,
    /// Point-to-point receives.
    pub recvs: usize,
    /// Collective ops (all kinds).
    pub collectives: usize,
}

impl Schedule {
    /// True when `rank`'s stream carries `Update` for `chunk`.
    pub fn runs_update(&self, rank: usize, chunk: usize) -> bool {
        self.ops[rank]
            .iter()
            .any(|op| matches!(op.kind, OpKind::Update { chunk: c } if c == chunk))
    }

    /// The first rank that runs `Update` for `chunk`: the root its weights
    /// are broadcast from, and the source of every [`Refresh`] of it.
    /// Panics when no rank updates `chunk` (the validator rejects that).
    pub fn updater_of(&self, chunk: usize) -> usize {
        (0..self.ranks)
            .find(|&r| self.runs_update(r, chunk))
            .expect("every chunk has an updater")
    }

    /// The seeded copies one iteration leaves stale, in rank order: a seed
    /// on a rank that does not run its chunk's `Update` is refreshed from
    /// [`updater_of`](Self::updater_of)`(chunk)`, and a second seed of one
    /// chunk on a rank that does is refreshed locally (`src == dst`). Every
    /// other seed is the copy an `Update` stepped in place. The runtime
    /// replays this list between iterations.
    pub fn refreshes(&self) -> Vec<Refresh> {
        let mut out = Vec::new();
        for (dst, seeds) in self.seeds.iter().enumerate() {
            for (i, &(chunk, flow)) in seeds.iter().enumerate() {
                let src = if !self.runs_update(dst, chunk) {
                    self.updater_of(chunk)
                } else if seeds[..i].iter().any(|s| s.0 == chunk) {
                    dst
                } else {
                    continue;
                };
                out.push(Refresh {
                    chunk,
                    flow,
                    src,
                    dst,
                });
            }
        }
        out
    }

    /// Total op count across all ranks.
    pub fn total_ops(&self) -> usize {
        self.ops.iter().map(Vec::len).sum()
    }

    /// Iterate over `(rank, op)` pairs.
    pub fn iter_ops(&self) -> impl Iterator<Item = (usize, &Op)> {
        self.ops
            .iter()
            .enumerate()
            .flat_map(|(r, ops)| ops.iter().map(move |op| (r, op)))
    }

    /// Count ops by kind across all ranks.
    pub fn stats(&self) -> ScheduleStats {
        let mut s = ScheduleStats::default();
        for (_, op) in self.iter_ops() {
            match op.kind {
                OpKind::Fwd { .. } => s.fwd += 1,
                OpKind::BwdFull { .. } => s.bwd_full += 1,
                OpKind::BwdData { .. } => s.bwd_data += 1,
                OpKind::BwdWeight { .. } => s.bwd_weight += 1,
                OpKind::Update { .. } => s.updates += 1,
                OpKind::Send(_) => s.sends += 1,
                OpKind::Recv(_) => s.recvs += 1,
                OpKind::AllGatherW { .. }
                | OpKind::ReduceScatterD { .. }
                | OpKind::AllReduceD { .. } => s.collectives += 1,
            }
        }
        s
    }

    /// Per-rank compute-op counts — how evenly the strategy spreads work.
    pub fn compute_balance(&self) -> Vec<usize> {
        self.ops
            .iter()
            .map(|ops| ops.iter().filter(|op| op.kind.is_compute()).count())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key() -> MsgKey {
        MsgKey {
            kind: MsgKind::Weights,
            chunk: 0,
            mb: NO_MB,
            round: 3,
            src: 0,
            dst: 1,
        }
    }

    #[test]
    fn op_builders_set_flags() {
        let c = Op::compute(OpKind::Fwd { mb: 0, chunk: 1 });
        assert!(c.kind.is_compute());
        assert!(!c.after_compute);

        let s = Op::send(key());
        assert!(s.after_compute, "locally-produced sends gate on compute");

        let f = Op::forward_send(key(), key());
        assert!(
            !f.after_compute,
            "forwarding sends must not gate on compute"
        );
        assert_eq!(f.needs.len(), 1);

        let r = Op::recv(key());
        assert!(!r.kind.is_compute());
        assert!(matches!(r.kind, OpKind::Recv(_)));
    }

    #[test]
    fn strategy_labels_match_paper() {
        assert_eq!(Strategy::OneFOneB.label(), "1F1B");
        assert_eq!(Strategy::WeiPipeInterleave.label(), "WeiPipe");
    }

    #[test]
    fn stats_and_balance() {
        let s = crate::builders::build(
            Strategy::WeiPipeInterleave,
            crate::builders::PipelineSpec::new(4, 8),
        );
        let st = s.stats();
        assert_eq!(st.fwd, 32);
        assert_eq!(st.bwd_full, 32);
        assert_eq!(st.updates, 4);
        assert_eq!(st.sends, st.recvs, "every send has a matching recv");
        assert_eq!(st.collectives, 0);
        let balance = s.compute_balance();
        assert_eq!(balance.len(), 4);
        // Microbatch-per-worker design: compute is evenly spread.
        let min = balance.iter().min().copied().expect("ranks");
        let max = balance.iter().max().copied().expect("ranks");
        assert!(
            max - min <= 1,
            "WeiPipe compute should balance: {balance:?}"
        );
    }

    #[test]
    fn collective_classification() {
        assert!(OpKind::AllGatherW { chunk: 0, round: 0 }.is_collective());
        assert!(!OpKind::Send(key()).is_collective());
        assert!(OpKind::Update { chunk: 2 }.is_compute());
    }
}
