//! Communication analysis: byte counting from schedules, plus the paper's
//! §3 closed-form comparisons.

use crate::ir::{MsgKind, OpKind, Schedule, FLOW_BWD, FLOW_FWD, RESIDENT, SHARDED};

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
