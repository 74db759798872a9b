//! Communication analysis: byte counting from schedules, plus the paper's
//! §3 closed-form comparisons.

use crate::ir::{
    weight_slot, MemUnit, MsgKind, Op, OpKind, Schedule, FLOW_BWD, FLOW_FWD, NO_MB, RESIDENT,
    SHARDED,
};
use std::collections::HashSet;

/// Wire sizes of the four message payloads plus collective parameters, for
/// a concrete model/batch configuration. All in bytes.
#[derive(Debug, Clone, Copy)]
pub struct ByteModel {
    /// One chunk of weights (`L/P` layers × ~12H² params × wire width).
    pub weight_chunk: u64,
    /// One chunk of weight gradients (same element count as the weights).
    pub grad_chunk: u64,
    /// Boundary activations of one microbatch (`G·S·H` × wire width).
    pub act_boundary: u64,
    /// Boundary activation gradients (same count, bf16 in the paper).
    pub act_grad_boundary: u64,
}

impl ByteModel {
    /// Wire bytes of one message of `kind` — point-to-point, or the payload
    /// a collective moves (by its completion key).
    pub fn of(&self, kind: MsgKind) -> u64 {
        match kind {
            MsgKind::Weights => self.weight_chunk,
            MsgKind::WeightGrads => self.grad_chunk,
            MsgKind::Act => self.act_boundary,
            MsgKind::ActGrad => self.act_grad_boundary,
        }
    }
}

/// Per-rank bytes sent, split by traffic class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RankBytes {
    /// Point-to-point payload bytes sent by this rank.
    pub p2p: u64,
    /// Bytes sent by this rank inside ring collectives.
    pub collective: u64,
}

impl RankBytes {
    /// Total bytes sent.
    pub fn total(&self) -> u64 {
        self.p2p + self.collective
    }
}

/// Count the bytes each rank sends over one iteration of a schedule.
///
/// Collectives are charged at the ring cost the comm substrate actually
/// implements: all-gather and reduce-scatter move `(P−1)/P · n` bytes per
/// rank, all-reduce `2·(P−1)/P · n`.
pub fn traffic(s: &Schedule, bytes: &ByteModel) -> Vec<RankBytes> {
    let p = s.ranks as u64;
    let mut out = vec![RankBytes::default(); s.ranks];
    for (rank, op) in s.iter_ops() {
        match &op.kind {
            OpKind::Send(k) => out[rank].p2p += bytes.of(k.kind),
            OpKind::AllGatherW { .. } => {
                out[rank].collective += bytes.weight_chunk * (p - 1) / p;
            }
            OpKind::ReduceScatterD { .. } => {
                out[rank].collective += bytes.grad_chunk * (p - 1) / p;
            }
            OpKind::AllReduceD { .. } => {
                out[rank].collective += 2 * bytes.grad_chunk * (p - 1) / p;
            }
            _ => {}
        }
    }
    out
}

/// What a rank holds from the first op of an iteration to the last — the
/// memory no op's `MemUnit` delta accounts for — in `1/P` slices of a chunk:
/// a sharded holding is one slice, a whole chunk `P`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Resident {
    /// Weight copies, read off [`Schedule::seeds`]: a [`RESIDENT`] seed is
    /// one chunk, a [`SHARDED`] seed one slice, and a circulating seed two
    /// chunks — the copy in hand and the slot the next one lands in.
    pub weights: u64,
    /// Gradient accumulators, one per weight copy the rank runs backward
    /// passes on: as for the weights, except that the forward flow has none.
    pub grads: u64,
    /// Optimizer state of every chunk the rank runs `Update` for: a slice
    /// where its seed of the chunk is sharded, the whole chunk otherwise.
    pub optimizer: u64,
}

/// What `rank` holds for the whole iteration under `s`.
pub fn resident(s: &Schedule, rank: usize) -> Resident {
    let p = s.ranks as u64;
    let seeds = &s.seeds[rank];
    let mut held = Resident::default();
    for &(_, flow) in seeds {
        let (weights, grads) = match flow {
            SHARDED => (1, 1),
            RESIDENT => (p, p),
            FLOW_BWD => (2 * p, 2 * p),
            FLOW_FWD => (2 * p, 0),
            other => panic!("seed with unknown flow tag {other}"),
        };
        held.weights += weights;
        held.grads += grads;
    }
    for op in &s.ops[rank] {
        if let OpKind::Update { chunk } = op.kind {
            let sharded = seeds.contains(&(chunk, SHARDED));
            held.optimizer += if sharded { 1 } else { p };
        }
    }
    held
}

/// A weight slot `(chunk, flow)`, as [`weight_slot`] resolves it.
type Slot = (usize, usize);

/// What reads a weight copy a `Recv` or a refresh lands, before the slot's
/// next write ([`weight_lives`]): whether the copy needs its values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Fate {
    /// Nothing reads its values: it is relayed as it arrived, or nothing
    /// reads it at all before it is overwritten.
    Passed,
    /// Only an `Update` reads it, which needs its values only to capture
    /// an fp32 master on the entry's first step.
    Stepped,
    /// A compute op, an all-gather or the iteration boundary reads them.
    Read,
}

/// Where each of one rank's weight copies dies ([`weight_lives`]), and what
/// each copy that lands off the wire is read by.
#[derive(Debug, Clone)]
pub struct WeightLives {
    /// Per op, the slots whose copy dies when it completes.
    dies: Vec<Vec<Slot>>,
    /// Per op, the fate of the copy a weight `Recv` lands.
    fates: Vec<Option<Fate>>,
    /// The fate of each copy a refresh from another rank lands.
    refreshed: Vec<(Slot, Fate)>,
    /// The slots the rank's `Update`s step.
    stepped: Vec<Slot>,
}

impl WeightLives {
    /// The slots whose copy dies when the rank's op `i` completes.
    pub fn dies_after(&self, i: usize) -> &[Slot] {
        &self.dies[i]
    }

    /// What reads the copy the rank's op `i`, a weight `Recv`, lands.
    /// Panics on any other op.
    pub fn fate(&self, i: usize) -> Fate {
        self.fates[i].expect("a weight receive")
    }

    /// What reads the copy a refresh lands in `slot` on this rank.
    /// Panics when no refresh from another rank lands there.
    pub fn refreshed(&self, slot: Slot) -> Fate {
        let found = self.refreshed.iter().find(|(s, _)| *s == slot);
        found.expect("a refreshed slot").1
    }

    /// The slots the rank's `Update`s step, as their `needs` resolve: where
    /// the fp32 master and optimizer state of each live.
    pub fn stepped(&self) -> &[Slot] {
        &self.stepped
    }
}

/// One access to a weight slot in [`weight_lives`]' walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Access {
    /// A read of the copy, needing its values as [`Fate`] says.
    Read(Fate),
    /// A new copy: off the wire (`true`), or made on the rank.
    Write(bool),
}

/// Where `rank`'s weight copies are last read before their next write, over
/// the cyclic op stream plus the iteration boundary. Each op reads the slot
/// [`weight_slot`] resolves over what the rank holds, as the validator
/// walks it. A `Send` of a copy relays it ([`Fate::Passed`]); an `Update`
/// steps it ([`Fate::Stepped`]) and writes it; every other reader needs its
/// values ([`Fate::Read`]). The boundary reads each copy an `Update` of the
/// rank stepped — what a refresh ships, a snapshot captures and the next
/// iteration starts from — then lands the rank's [`Schedule::refreshes`].
///
/// A copy dies at its last read, or as it lands when nothing reads it. One
/// whose last read is the boundary, or the op that writes the slot anew, is
/// instead replaced by that write.
pub fn weight_lives(s: &Schedule, rank: usize) -> WeightLives {
    let ops = &s.ops[rank];
    let n = ops.len();
    let mut held: HashSet<Slot> = s.seeds[rank].iter().copied().collect();
    let mut stepped: Vec<Slot> = Vec::new();
    // Every access in program order, the boundary at position `n`.
    let mut accesses: Vec<(usize, Slot, Access)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let mut read = |slot, fate| accesses.push((i, slot, Access::Read(fate)));
        match op.kind {
            OpKind::Recv(k) if k.kind == MsgKind::Weights => {
                held.insert((k.chunk, k.mb));
                accesses.push((i, (k.chunk, k.mb), Access::Write(true)));
            }
            OpKind::Send(k) if k.kind == MsgKind::Weights => read((k.chunk, k.mb), Fate::Passed),
            OpKind::AllGatherW { chunk, .. } => {
                read((chunk, SHARDED), Fate::Read);
                held.insert((chunk, RESIDENT));
                accesses.push((i, (chunk, RESIDENT), Access::Write(false)));
            }
            OpKind::ReduceScatterD { chunk, .. } => {
                held.remove(&(chunk, RESIDENT));
            }
            OpKind::Fwd { chunk, .. }
            | OpKind::BwdFull { chunk, .. }
            | OpKind::BwdData { chunk, .. }
            | OpKind::Update { chunk } => {
                let slot = weight_slot(&op.needs, chunk, |slot| held.contains(slot))
                    .expect("validate rejects a read of a slot the rank does not hold");
                if let OpKind::Update { .. } = op.kind {
                    read(slot, Fate::Stepped);
                    accesses.push((i, slot, Access::Write(false)));
                    if !stepped.contains(&slot) {
                        stepped.push(slot);
                    }
                } else {
                    read(slot, Fate::Read);
                }
            }
            _ => {}
        }
    }
    accesses.extend(
        stepped
            .iter()
            .map(|&slot| (n, slot, Access::Read(Fate::Read))),
    );
    let refreshes = s.refreshes().into_iter().filter(|f| f.dst == rank);
    accesses.extend(refreshes.map(|f| (n, (f.chunk, f.flow), Access::Write(f.src != rank))));

    let mut lives = WeightLives {
        dies: vec![Vec::new(); n],
        fates: vec![None; n],
        refreshed: Vec::new(),
        stepped: Vec::new(),
    };
    let mut slots: Vec<Slot> = accesses.iter().map(|a| a.1).collect();
    slots.sort_unstable();
    slots.dedup();
    for slot in slots {
        let seq: Vec<(usize, Access)> = (accesses.iter())
            .filter(|a| a.1 == slot)
            .map(|a| (a.0, a.2))
            .collect();
        let writes: Vec<usize> = (0..seq.len())
            .filter(|&j| matches!(seq[j].1, Access::Write(_)))
            .collect();
        // A copy lives from its write up to the next, round the cycle; a
        // slot never written holds its seed for good.
        for (w, &at) in writes.iter().enumerate() {
            let next = writes[(w + 1) % writes.len()];
            let between = (next + seq.len() - at - 1) % seq.len();
            let (mut fate, mut last) = (Fate::Passed, None);
            for (pos, access) in (1..=between).map(|d| seq[(at + d) % seq.len()]) {
                if let Access::Read(f) = access {
                    fate = fate.max(f);
                    last = Some(pos);
                }
            }
            let (pos, Access::Write(wire)) = seq[at] else {
                unreachable!("a write")
            };
            if wire && pos < n {
                lives.fates[pos] = Some(fate);
            } else if wire {
                lives.refreshed.push((slot, fate));
            }
            let dies = last.unwrap_or(pos);
            if dies != n && dies != seq[next].0 {
                lives.dies[dies].push(slot);
            }
        }
    }
    lives.stepped = stepped;
    lives
}

/// Every rank's memory ledger, derived from the op streams. A forward
/// saves its context (`FwdCtx`, or `CkptInput` under
/// [`Schedule::recompute`]) and a fused backward frees it; a B pass parks a
/// `BCtx`, and its W pass frees both. A received boundary buffer, or a
/// gathered chunk, lives until the op that names it in `needs`. A boundary
/// buffer a rank sends, or a gradient chunk it reduce-scatters, lives from
/// the pass that made it until it leaves: the latest pass before the send
/// that makes that buffer, found by identity, not by position — the forward
/// of the chunk before an `Act`, the backward of the chunk after an
/// `ActGrad`, a fused backward or W pass of the scattered chunk. Within an
/// op: a forward's context, then what it reads — received buffers, a
/// backward's context, gathered chunks — then what it makes.
pub fn mem_deltas(s: &Schedule) -> Vec<Ledger> {
    let ctx = if s.recompute {
        MemUnit::CkptInput
    } else {
        MemUnit::FwdCtx
    };
    let boundary = |kind| match kind {
        MsgKind::Act => Some(MemUnit::ActBoundary),
        MsgKind::ActGrad => Some(MemUnit::ActGradBoundary),
        _ => None,
    };
    let rank = |ops: &Vec<Op>| {
        // Walked backwards, so that a pass knows whether a later op sends
        // what it makes: `pending` is what later ops send away, not yet
        // matched to its maker. Each op's run is written reversed, `ends`
        // counts from the last op, and both are flipped at the end.
        let mut pending: Vec<Buffer> = Vec::new();
        let mut d = Vec::with_capacity(2 * ops.len());
        let mut ends = vec![0];
        for op in ops.iter().rev() {
            let start = d.len();
            if let OpKind::Fwd { .. } = op.kind {
                d.push((ctx, 1));
            }
            let received = op.needs.iter().filter_map(|k| boundary(k.kind));
            d.extend(received.map(|u| (u, -1)));
            match op.kind {
                OpKind::BwdFull { .. } => d.push((ctx, -1)),
                OpKind::BwdData { .. } => d.push((MemUnit::BCtx, 1)),
                OpKind::BwdWeight { .. } => d.extend([(MemUnit::FwdCtx, -1), (MemUnit::BCtx, -1)]),
                OpKind::Recv(k) => d.extend(boundary(k.kind).map(|u| (u, 1))),
                OpKind::AllGatherW { .. } => d.push((MemUnit::WeightChunk, 1)),
                _ => d.extend(taken(&op.kind).map(|(u, ..)| (u, -1))),
            }
            let gathered = op.needs.iter().filter(|k| k.src == k.dst);
            let gathered = gathered.filter(|k| k.kind == MsgKind::Weights);
            d.extend(gathered.map(|_| (MemUnit::WeightChunk, -1)));
            for buffer in made(&op.kind) {
                if let Some(at) = pending.iter().position(|b| *b == buffer) {
                    pending.swap_remove(at);
                    d.push((buffer.0, 1));
                }
            }
            pending.extend(taken(&op.kind));
            d[start..].reverse();
            ends.push(d.len() as u32);
        }
        d.reverse();
        let starts = ends.iter().rev().map(|end| d.len() as u32 - end).collect();
        Ledger { deltas: d, starts }
    };
    s.ops.iter().map(rank).collect()
}

/// One rank's memory deltas ([`mem_deltas`]), every op's in one run: a
/// fold allocates per rank, not per op, and a simulator reads them in
/// program order without touching the ops again. Every delta is one unit.
pub struct Ledger {
    deltas: Vec<(MemUnit, i8)>,
    /// Where each op's deltas start in `deltas`, then where the last ends.
    starts: Vec<u32>,
}

impl Ledger {
    /// The deltas of the rank's op `i`, applied when it completes, in order.
    pub fn of(&self, i: usize) -> impl Iterator<Item = (MemUnit, i64)> + '_ {
        let run = &self.deltas[self.starts[i] as usize..self.starts[i + 1] as usize];
        run.iter().map(|&(unit, delta)| (unit, i64::from(delta)))
    }
}

/// A buffer a rank sends away, named by the pass that makes it:
/// `(unit, mb, chunk)`, with [`NO_MB`] for a gradient chunk.
type Buffer = (MemUnit, usize, usize);

/// The buffer a send or a reduce-scatter takes away.
fn taken(kind: &OpKind) -> Option<Buffer> {
    use MemUnit::{ActBoundary, ActGradBoundary, GradChunk};
    use MsgKind::{Act, ActGrad};
    match *kind {
        OpKind::Send(k) if k.kind == Act => Some((ActBoundary, k.mb, k.chunk.checked_sub(1)?)),
        OpKind::Send(k) if k.kind == ActGrad => {
            Some((ActGradBoundary, k.mb, k.chunk.checked_add(1)?))
        }
        OpKind::ReduceScatterD { chunk, .. } => Some((GradChunk, NO_MB, chunk)),
        _ => None,
    }
}

/// The buffers a pass makes that a send may take ([`taken`]).
fn made(kind: &OpKind) -> impl Iterator<Item = Buffer> {
    use MemUnit::{ActBoundary, ActGradBoundary, GradChunk};
    let (boundary, grads) = match *kind {
        OpKind::Fwd { mb, chunk } => (Some((ActBoundary, mb, chunk)), None),
        OpKind::BwdFull { mb, chunk } => (Some((ActGradBoundary, mb, chunk)), Some(chunk)),
        OpKind::BwdData { mb, chunk } => (Some((ActGradBoundary, mb, chunk)), None),
        OpKind::BwdWeight { chunk, .. } => (None, Some(chunk)),
        _ => (None, None),
    };
    let grads = grads.map(|chunk| (GradChunk, NO_MB, chunk));
    boundary.into_iter().chain(grads)
}

/// Total bytes sent by all ranks over the iteration.
pub fn total_traffic(s: &Schedule, bytes: &ByteModel) -> u64 {
    traffic(s, bytes).iter().map(RankBytes::total).sum()
}

/// The paper's §3 crossover quantity: activation-to-weight payload ratio
/// `G·S / (12·H)` for one transformer layer. Weight-passing wins when this
/// exceeds ~1.
pub fn crossover_ratio(microbatch: usize, seq: usize, hidden: usize) -> f64 {
    (microbatch * seq) as f64 / (12.0 * hidden as f64)
}

/// Closed-form per-link steady-state bytes **per turn** for
/// WeiPipe-Interleave: two weight chunks plus one gradient chunk (§4.2.2's
/// `36H²` for a single Llama layer in fp16).
pub fn weipipe_interleave_bytes_per_turn(bytes: &ByteModel) -> u64 {
    2 * bytes.weight_chunk + bytes.grad_chunk
}

/// Closed-form per-boundary bytes per microbatch for activation-passing
/// pipelines: activations forward plus activation gradients backward
/// (`2·M_A` of §3.4).
pub fn act_pipe_bytes_per_microbatch(bytes: &ByteModel) -> u64 {
    bytes.act_boundary + bytes.act_grad_boundary
}

/// §3.4 steady-state total bandwidth usage (TBW, bytes/s per link) of an
/// activation-passing pipeline in "Zone 1" (fully alternating passes):
/// `TBW = 2·M_A·N / T_zone1`, where `T_zone1` is the steady-state span
/// covering the `N` microbatches.
pub fn act_pipe_tbw(bytes: &ByteModel, microbatches: usize, zone_secs: f64) -> f64 {
    (act_pipe_bytes_per_microbatch(bytes) * microbatches as u64) as f64 / zone_secs
}

/// §4.2.2 steady-state TBW of WeiPipe-Interleave per link: the `2W + 1D`
/// chunks of one turn divided by the turn duration `(T_F + T_B)/P`-style
/// (pass the concrete per-turn time).
pub fn weipipe_interleave_tbw(bytes: &ByteModel, turn_secs: f64) -> f64 {
    weipipe_interleave_bytes_per_turn(bytes) as f64 / turn_secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build, PipelineSpec};
    use crate::ir::Strategy;

    fn bm(weight: u64, act: u64) -> ByteModel {
        ByteModel {
            weight_chunk: weight,
            grad_chunk: weight,
            act_boundary: act,
            act_grad_boundary: act,
        }
    }

    #[test]
    fn weipipe_traffic_independent_of_activation_size() {
        // The headline property: scaling the activation payload leaves
        // WeiPipe traffic untouched but scales 1F1B traffic.
        let spec = PipelineSpec::new(4, 8);
        let wp = build(Strategy::WeiPipeInterleave, spec);
        let f1b = build(Strategy::OneFOneB, spec);

        let small = bm(1000, 10);
        let big = bm(1000, 10_000);

        assert_eq!(
            total_traffic(&wp, &small),
            total_traffic(&wp, &big),
            "WeiPipe bytes must not depend on activation size"
        );
        assert!(
            total_traffic(&f1b, &big) > 100 * total_traffic(&f1b, &small) / 2,
            "1F1B bytes must scale with activation size"
        );
    }

    #[test]
    fn act_pipe_traffic_independent_of_weight_size() {
        let spec = PipelineSpec::new(4, 8);
        let f1b = build(Strategy::OneFOneB, spec);
        assert_eq!(
            total_traffic(&f1b, &bm(1, 500)),
            total_traffic(&f1b, &bm(1_000_000, 500))
        );
    }

    #[test]
    fn interleave_sends_about_three_chunks_per_turn() {
        // Steady-state: N·(per-rank turns) ≈ N/P rounds × P turns; total
        // weight+grad sends ≈ 3 chunks per rank per turn. Check the total is
        // within 25% of 3·P·turns for a long schedule.
        let p = 4;
        let n = 32;
        let s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(p, n));
        let sends = s
            .iter_ops()
            .filter(|(_, op)| matches!(op.kind, OpKind::Send(_)))
            .count();
        let turns = (n / p + 2) * p; // steady + warmup + drain
        let expect = 3 * p * turns;
        let lo = expect * 3 / 4;
        let hi = expect * 5 / 4;
        assert!(
            sends >= lo && sends <= hi,
            "sends={sends}, expected ≈{expect}"
        );
    }

    #[test]
    fn naive_sends_more_than_interleave() {
        // The §4.2.1 flaw: redundant transmission. Per unit of compute the
        // naive schedule moves more weight bytes.
        let spec = PipelineSpec::new(4, 8);
        let naive = build(Strategy::WeiPipeNaive, spec);
        let inter = build(Strategy::WeiPipeInterleave, spec);
        let b = bm(100, 0);
        assert!(
            total_traffic(&naive, &b) > total_traffic(&inter, &b),
            "naive {} vs interleave {}",
            total_traffic(&naive, &b),
            total_traffic(&inter, &b)
        );
    }

    #[test]
    fn fsdp_collective_bytes_scale_with_model() {
        let spec = PipelineSpec::new(4, 8);
        let s = build(Strategy::Fsdp, spec);
        let t1 = total_traffic(&s, &bm(1000, 7));
        let t2 = total_traffic(&s, &bm(2000, 7));
        assert!(t2 > t1);
        let per_rank = traffic(&s, &bm(1000, 7));
        assert!(
            per_rank.iter().all(|r| r.p2p == 0),
            "FSDP is collective-only"
        );
        // Symmetric across ranks.
        assert!(per_rank
            .iter()
            .all(|r| r.collective == per_rank[0].collective));
    }

    #[test]
    fn resident_holdings_follow_seeds_and_updates() {
        let p = 4;
        let held = |strategy, rank| {
            let r = resident(&build(strategy, PipelineSpec::new(p, 8)), rank);
            [r.weights, r.grads, r.optimizer].map(|slices| slices as usize)
        };
        // A stage: its chunk, that chunk's accumulator and optimizer state.
        assert_eq!(held(Strategy::OneFOneB, 2), [p, p, p]);
        // The ring: two circulating copies with a landing slot each, the
        // backward flow's accumulator likewise, one chunk stepped at home.
        assert_eq!(held(Strategy::WeiPipeInterleave, 2), [4 * p, 2 * p, p]);
        // WZB2 parks every chunk's optimizer state on the last rank.
        assert_eq!(held(Strategy::Wzb2, 0), [4 * p, 2 * p, 0]);
        assert_eq!(held(Strategy::Wzb2, p - 1), [4 * p, 2 * p, p * p]);
        // A slice of each of the P chunks vs. all of every one.
        assert_eq!(held(Strategy::Fsdp, 1), [p, p, p]);
        assert_eq!(held(Strategy::Ddp, 1), [p * p, p * p, p * p]);
    }

    /// Rank 0 of the interleaved ring at P = 2, N = 8: each copy a compute
    /// op reads dies within three ops of landing, and five landings are
    /// read by no compute op — the relay-only hops, the tail the refresh
    /// overwrites, the home arrival its `Update` steps — nor is the
    /// backward-flow seed the refresh lands, which only relays at turn 0.
    #[test]
    fn a_ring_copy_dies_at_its_last_read_and_lands_only_when_read() {
        let s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(2, 8));
        let lives = weight_lives(&s, 0);
        let landings = (s.ops[0].iter().enumerate())
            .filter(|(_, op)| matches!(op.kind, OpKind::Recv(k) if k.kind == MsgKind::Weights));
        let mut unread = Vec::new();
        for (i, op) in landings {
            let OpKind::Recv(k) = op.kind else {
                unreachable!()
            };
            match lives.fate(i) {
                Fate::Read => {
                    let dies =
                        (i + 1..=i + 3).find(|&j| lives.dies_after(j).contains(&(k.chunk, k.mb)));
                    assert!(dies.is_some(), "op {i}: {k:?} outlives three ops");
                }
                fate => unread.push((i, fate)),
            }
        }
        use Fate::{Passed, Stepped};
        assert_eq!(
            unread,
            [
                (7, Passed),
                (59, Passed),
                (66, Passed),
                (76, Stepped),
                (78, Passed)
            ]
        );
        assert_eq!(lives.refreshed((1, FLOW_BWD)), Passed);
    }

    /// One rank's derived ledger, one `op: deltas` line per op.
    fn ledger(s: &Schedule, rank: usize) -> Vec<String> {
        let ledger = &mem_deltas(s)[rank];
        let lines = s.ops[rank].iter().enumerate().map(|(i, op)| {
            let mut line = match op.kind {
                OpKind::Fwd { mb, chunk } => format!("F{mb}.{chunk}"),
                OpKind::BwdFull { mb, chunk } => format!("B{mb}.{chunk}"),
                OpKind::BwdData { mb, chunk } => format!("b{mb}.{chunk}"),
                OpKind::BwdWeight { mb, chunk } => format!("W{mb}.{chunk}"),
                OpKind::Update { chunk } => format!("U{chunk}"),
                OpKind::Send(k) => format!("send {:?}{}", k.kind, k.mb),
                OpKind::Recv(k) => format!("recv {:?}{}", k.kind, k.mb),
                OpKind::AllGatherW { chunk, .. } => format!("gather{chunk}"),
                OpKind::ReduceScatterD { chunk, .. } => format!("scatter{chunk}"),
                OpKind::AllReduceD { chunk, .. } => format!("reduce{chunk}"),
            };
            for (unit, delta) in ledger.of(i) {
                line += &format!(" {}{unit:?}", if delta > 0 { '+' } else { '-' });
            }
            line
        });
        lines.collect()
    }

    /// The derived ledger, pinned by hand. A stage forward saves its
    /// checkpoint, frees the activation it received and makes the one it
    /// sends; its backward likewise for activation gradients.
    #[test]
    fn a_middle_gpipe_stage_holds_each_boundary_buffer_from_maker_to_taker() {
        let s = build(Strategy::GPipe, PipelineSpec::new(3, 4));
        let want = [
            "recv Act0 +ActBoundary",
            "F0.1 +CkptInput -ActBoundary +ActBoundary",
            "send Act0 -ActBoundary",
            "recv Act1 +ActBoundary",
            "F1.1 +CkptInput -ActBoundary +ActBoundary",
            "send Act1 -ActBoundary",
            "recv Act2 +ActBoundary",
            "F2.1 +CkptInput -ActBoundary +ActBoundary",
            "send Act2 -ActBoundary",
            "recv Act3 +ActBoundary",
            "F3.1 +CkptInput -ActBoundary +ActBoundary",
            "send Act3 -ActBoundary",
            "recv ActGrad0 +ActGradBoundary",
            "B0.1 -ActGradBoundary -CkptInput +ActGradBoundary",
            "send ActGrad0 -ActGradBoundary",
            "recv ActGrad1 +ActGradBoundary",
            "B1.1 -ActGradBoundary -CkptInput +ActGradBoundary",
            "send ActGrad1 -ActGradBoundary",
            "recv ActGrad2 +ActGradBoundary",
            "B2.1 -ActGradBoundary -CkptInput +ActGradBoundary",
            "send ActGrad2 -ActGradBoundary",
            "recv ActGrad3 +ActGradBoundary",
            "B3.1 -ActGradBoundary -CkptInput +ActGradBoundary",
            "send ActGrad3 -ActGradBoundary",
            "U1",
        ];
        assert_eq!(ledger(&s, 1), want);
    }

    /// A B pass parks its context beside the forward's, and the W pass
    /// frees both; a split backward never checkpoints.
    #[test]
    fn a_zb1_w_pass_frees_both_contexts() {
        let s = build(Strategy::Zb1, PipelineSpec::new(2, 2).with_knob(0));
        let first = [
            "F0.0 +FwdCtx +ActBoundary",
            "send Act0 -ActBoundary",
            "F1.0 +FwdCtx +ActBoundary",
            "send Act1 -ActBoundary",
            "recv ActGrad0 +ActGradBoundary",
            "b0.0 -ActGradBoundary +BCtx",
            "W0.0 -FwdCtx -BCtx",
            "recv ActGrad1 +ActGradBoundary",
            "b1.0 -ActGradBoundary +BCtx",
            "W1.0 -FwdCtx -BCtx",
            "U0",
        ];
        let last = [
            "recv Act0 +ActBoundary",
            "F0.1 +FwdCtx -ActBoundary",
            "b0.1 +BCtx +ActGradBoundary",
            "send ActGrad0 -ActGradBoundary",
            "W0.1 -FwdCtx -BCtx",
            "recv Act1 +ActBoundary",
            "F1.1 +FwdCtx -ActBoundary",
            "b1.1 +BCtx +ActGradBoundary",
            "send ActGrad1 -ActGradBoundary",
            "W1.1 -FwdCtx -BCtx",
            "U1",
        ];
        assert_eq!(ledger(&s, 0), first);
        assert_eq!(ledger(&s, 1), last);
    }

    /// A gathered chunk lives until the pass that names it; the n-th
    /// reduce-scatter of a chunk takes the n-th backward's gradients.
    #[test]
    fn fsdp_frees_each_gathered_chunk_at_its_pass_and_each_gradient_at_its_scatter() {
        let s = build(Strategy::Fsdp, PipelineSpec::new(2, 4).with_knob(2));
        let want = [
            "gather0 +WeightChunk",
            "F0.0 +CkptInput -WeightChunk",
            "gather1 +WeightChunk",
            "F0.1 +CkptInput -WeightChunk",
            "gather1 +WeightChunk",
            "B0.1 -CkptInput -WeightChunk +GradChunk",
            "scatter1 -GradChunk",
            "gather0 +WeightChunk",
            "B0.0 -CkptInput -WeightChunk +GradChunk",
            "scatter0 -GradChunk",
            "gather0 +WeightChunk",
            "F2.0 +CkptInput -WeightChunk",
            "gather1 +WeightChunk",
            "F2.1 +CkptInput -WeightChunk",
            "gather1 +WeightChunk",
            "B2.1 -CkptInput -WeightChunk +GradChunk",
            "scatter1 -GradChunk",
            "gather0 +WeightChunk",
            "B2.0 -CkptInput -WeightChunk +GradChunk",
            "scatter0 -GradChunk",
            "U0",
            "U1",
        ];
        assert_eq!(ledger(&s, 0), want);
    }

    #[test]
    fn crossover_matches_paper_examples() {
        // H=1024, S=4096, G=16: GS/(12H) = 65536/12288 ≈ 5.3 ≫ 1: weights win.
        assert!(crossover_ratio(16, 4096, 1024) > 5.0);
        // Tiny context, G=1: activations are cheaper.
        assert!(crossover_ratio(1, 128, 4096) < 0.01);
    }

    #[test]
    fn closed_forms() {
        let b = bm(12, 100);
        assert_eq!(weipipe_interleave_bytes_per_turn(&b), 36);
        assert_eq!(act_pipe_bytes_per_microbatch(&b), 200);
    }
}
