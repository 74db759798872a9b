//! The schedule interpreter: executes a validated `wp-sched` schedule *for
//! real* — every compute op runs actual `wp-nn` kernels, every message
//! moves actual parameter/activation bytes through `wp-comm`.
//!
//! One interpreter covers every strategy, because the schedules already
//! encode the strategy: GPipe/1F1B/ZB move activations between resident
//! chunks, FSDP gathers shards, DDP all-reduces, and the WeiPipe variants
//! circulate weight and gradient chunks around the ring. The same
//! instruction streams the discrete-event simulator times are therefore
//! proven numerically correct here against the single-process reference.
//!
//! State model (per rank):
//!
//! * **Weight slots** keyed `(chunk, flow)` — a chunk buffer is the
//!   concatenation of its layers' flat parameter buffers. `Recv(Weights)`
//!   fills a slot; compute ops resolve their slot through their `needs`
//!   (falling back to the seeded/resident slot).
//! * **Gradient accumulators** keyed by chunk. `Recv(WeightGrads)` adds
//!   into the accumulator, `Send` drains it — which makes the circulating
//!   `D_j` accumulation (§4.2.1) and local pipelined accumulation the same
//!   code path.
//! * **Activation stores**: chunk inputs per `(mb, chunk)`, saved forward
//!   state (full ctxs, or inputs only under recomputation), output
//!   gradients per `(mb, chunk)`, and per-microbatch head state.

use crate::setup::TrainSetup;
use std::collections::HashMap;
use wp_comm::{CommError, Communicator, Request};
use wp_nn::block::{
    block_backward_data, block_backward_full, block_backward_recompute, block_backward_weight,
    block_forward, BPassCtx, BlockCtx,
};
use wp_nn::config::ModelConfig;
use wp_nn::embed::{embed_backward, embed_forward, head_forward, head_loss_backward, HeadCtx};
use wp_nn::params::{init_block, init_embed, init_head, BlockLayout};
use wp_nn::scratch::{Scratch, ScratchBuf};
use wp_nn::{ComponentState, TrainState};
use wp_optim::{MasterWeights, Optimizer};
use wp_sched::{MsgKey, MsgKind, OpKind, Schedule, Strategy, NO_MB};
use wp_tensor::ops::RopeTable;
use wp_trace::SpanKind;

/// A fully assembled model: `(embed, per-layer blocks, head)`.
pub type AssembledModel = (Vec<f32>, Vec<Vec<f32>>, Vec<f32>);

/// Flow tag for a rank's own resident copy (activation-passing pipelines,
/// DDP replicas, FSDP gather targets).
pub const RESIDENT: usize = NO_MB - 9;

/// Re-exported flow tags from the builders.
pub use wp_sched::builders::{weipipe_mb_owner, FLOW_BWD, FLOW_FWD};

/// Encode a message key as a `wp-comm` tag (src/dst live in the channel).
fn tag_of(k: &MsgKey) -> u64 {
    let kind = match k.kind {
        MsgKind::Weights => 0u64,
        MsgKind::WeightGrads => 1,
        MsgKind::Act => 2,
        MsgKind::ActGrad => 3,
    };
    let mb = if k.mb >= NO_MB - 15 {
        // Sentinel flow tags map into a reserved high band.
        0xFFFF - (NO_MB - k.mb) as u64
    } else {
        assert!(k.mb < 0xFF00, "microbatch index too large for tag encoding");
        k.mb as u64
    };
    let chunk = k.chunk as u64;
    let round = k.round as u64;
    assert!(chunk < 1 << 12, "chunk too large for tag encoding");
    assert!(round < 1 << 18, "round too large for tag encoding");
    (kind << 46) | (chunk << 34) | (mb << 18) | round
}

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

type OptState = (MasterWeights, Box<dyn Optimizer + Send>);

/// Per-rank execution state, persistent across iterations.
pub struct RankRuntime {
    rank: usize,
    chunks: usize,
    /// Layers per chunk.
    lpc: usize,
    block_len: usize,
    cfg: ModelConfig,
    rope: RopeTable,
    setup: TrainSetup,
    strategy: Strategy,
    comm: Communicator,

    slots: HashMap<(usize, usize), Vec<f32>>,
    shards: HashMap<usize, Vec<f32>>,
    shard_len: usize,
    embed: Vec<f32>,
    head: Vec<f32>,

    chunk_opt: HashMap<usize, OptState>,
    shard_opt: HashMap<usize, OptState>,
    embed_opt: Option<OptState>,
    head_opt: Option<OptState>,

    /// Per-rank buffer arena: every model-path temporary recycles here, so
    /// steady-state iterations run the kernels allocation-free.
    scratch: Scratch,

    // Per-iteration state.
    acts: HashMap<(usize, usize), ScratchBuf>,
    fwd_saved: HashMap<(usize, usize), FwdSaved>,
    bctx_saved: HashMap<(usize, usize), Vec<BPassCtx>>,
    dy_out: HashMap<(usize, usize), ScratchBuf>,
    heads_saved: HashMap<usize, HeadSaved>,
    dgrads: HashMap<usize, Vec<f32>>,
    /// Outstanding pre-posted receives (the double-buffered ring): a
    /// `PrePost` op parks the [`Request`] here, the matching `WaitReq`
    /// redeems it. Empty at every iteration boundary (the validator
    /// guarantees pairing).
    pending_reqs: HashMap<MsgKey, Request>,
    shard_grads: HashMap<usize, Vec<f32>>,
    embed_grads: Vec<f32>,
    head_grads: Vec<f32>,
    loss_sum: f64,
    loss_count: usize,
    iter: usize,
}

/// Rank `rank`'s FSDP shard of a flat chunk buffer: elements
/// `[rank·shard_len, (rank+1)·shard_len)`, zero-padded past the end.
fn fsdp_shard(full: &[f32], rank: usize, shard_len: usize) -> Vec<f32> {
    let mut shard = vec![0.0f32; shard_len];
    let start = rank * shard_len;
    if start < full.len() {
        let end = (start + shard_len).min(full.len());
        shard[..end - start].copy_from_slice(&full[start..end]);
    }
    shard
}

impl RankRuntime {
    /// Initialise a rank: deterministic weights, strategy-specific seeding.
    /// When the setup carries a [`TrainState`] snapshot, weights, fp32
    /// masters, and optimizer moments are restored from it instead — the
    /// snapshot's per-*layer* granularity re-concatenates into whatever
    /// chunking this world uses, so a checkpoint taken at `P` ranks seeds a
    /// `P'`-rank world as long as the layer count divides both.
    pub fn new(setup: &TrainSetup, schedule: &Schedule, comm: Communicator) -> Self {
        let rank = comm.rank();
        let p = comm.world_size();
        let cfg = setup.model.clone();
        let chunks = schedule.chunks;
        let lpc = cfg.layers.div_ceil(chunks);
        assert_eq!(lpc * chunks, cfg.layers, "layers must divide into chunks");
        let block_len = BlockLayout::new(&cfg).len();
        let resume = setup.resume.as_deref();
        let chunk_buf = |c: usize| -> Vec<f32> {
            let mut buf = Vec::with_capacity(lpc * block_len);
            for l in 0..lpc {
                match resume {
                    Some(st) => buf.extend_from_slice(&st.blocks[c * lpc + l].weights),
                    None => buf.extend(init_block(&cfg, setup.seed, c * lpc + l)),
                }
            }
            buf
        };

        let mut slots = HashMap::new();
        let mut shards = HashMap::new();
        let shard_len = (lpc * block_len).div_ceil(p);
        match schedule.strategy {
            Strategy::WeiPipeInterleave | Strategy::WeiPipeNaive => {
                // Forward-flow seed: chunk (P−w) mod P; backward-flow seed
                // offset differs between the two variants (position algebra
                // in the builders).
                let fwd_chunk = (p - rank) % p;
                slots.insert((fwd_chunk, FLOW_FWD), chunk_buf(fwd_chunk));
                let bwd_chunk = if schedule.strategy == Strategy::WeiPipeInterleave {
                    (rank + p - 1) % p
                } else {
                    (rank + p - 2) % p
                };
                slots.insert((bwd_chunk, FLOW_BWD), chunk_buf(bwd_chunk));
            }
            Strategy::Fsdp => {
                for c in 0..chunks {
                    shards.insert(c, fsdp_shard(&chunk_buf(c), rank, shard_len));
                }
            }
            Strategy::Ddp => {
                for c in 0..chunks {
                    slots.insert((c, RESIDENT), chunk_buf(c));
                }
            }
            _ => {
                // Activation-passing pipelines: rank r owns chunk r.
                slots.insert((rank, RESIDENT), chunk_buf(rank));
            }
        }

        // Restore optimizer state from the snapshot: per-layer moments and
        // fp32 masters re-concatenate into this world's chunks (or re-slice
        // into FSDP shards), so the first post-resume step continues the
        // moment history exactly where the snapshot left it.
        let mut chunk_opt = HashMap::new();
        let mut shard_opt = HashMap::new();
        let mut embed_opt = None;
        let mut head_opt = None;
        if let Some(st) = resume {
            let wire = setup.wire;
            let restore = |master: Vec<f32>, t: u64, bufs: &[Vec<f32>]| -> OptState {
                let mut opt = setup.optim.build(master.len());
                opt.import_state(t, bufs)
                    .expect("snapshot optimizer state must fit the configured optimizer");
                (MasterWeights::from_master(master, wire), opt)
            };
            embed_opt = Some(restore(
                st.embed.master.clone(),
                st.embed.opt_t,
                &st.embed.opt_bufs,
            ));
            head_opt = Some(restore(
                st.head.master.clone(),
                st.head.opt_t,
                &st.head.opt_bufs,
            ));
            for c in 0..chunks {
                let first = &st.blocks[c * lpc];
                let mut master = Vec::with_capacity(lpc * block_len);
                let mut bufs: Vec<Vec<f32>> = vec![Vec::new(); first.opt_bufs.len()];
                for l in 0..lpc {
                    let layer = &st.blocks[c * lpc + l];
                    master.extend_from_slice(&layer.master);
                    for (acc, b) in bufs.iter_mut().zip(&layer.opt_bufs) {
                        acc.extend_from_slice(b);
                    }
                }
                if schedule.strategy == Strategy::Fsdp {
                    let slice = |full: &[f32]| fsdp_shard(full, rank, shard_len);
                    let sbufs: Vec<Vec<f32>> = bufs
                        .iter()
                        .map(|b| if b.is_empty() { Vec::new() } else { slice(b) })
                        .collect();
                    shard_opt.insert(c, restore(slice(&master), first.opt_t, &sbufs));
                } else {
                    chunk_opt.insert(c, restore(master, first.opt_t, &bufs));
                }
            }
        }

        RankRuntime {
            rank,
            chunks,
            lpc,
            block_len,
            rope: cfg.rope_table(),
            embed: match resume {
                Some(st) => st.embed.weights.clone(),
                None => init_embed(&cfg, setup.seed),
            },
            head: match resume {
                Some(st) => st.head.weights.clone(),
                None => init_head(&cfg, setup.seed),
            },
            cfg,
            setup: setup.clone(),
            strategy: schedule.strategy,
            comm,
            slots,
            shards,
            shard_len,
            chunk_opt,
            shard_opt,
            embed_opt,
            head_opt,
            scratch: Scratch::new(),
            acts: HashMap::new(),
            fwd_saved: HashMap::new(),
            bctx_saved: HashMap::new(),
            dy_out: HashMap::new(),
            heads_saved: HashMap::new(),
            dgrads: HashMap::new(),
            pending_reqs: HashMap::new(),
            shard_grads: HashMap::new(),
            embed_grads: Vec::new(),
            head_grads: Vec::new(),
            loss_sum: 0.0,
            loss_count: 0,
            iter: 0,
        }
    }

    fn lr(&self) -> f32 {
        self.setup.lr_at(self.iter)
    }

    /// Resolve the weight slot a compute op reads.
    fn weight_slot_key(&self, needs: &[MsgKey], chunk: usize, prefer: usize) -> (usize, usize) {
        for k in needs {
            if k.kind == MsgKind::Weights {
                assert_eq!(k.chunk, chunk, "weights dependency for the wrong chunk");
                let flow = if k.src == k.dst { RESIDENT } else { k.mb };
                return (chunk, flow);
            }
        }
        for flow in [prefer, FLOW_FWD, FLOW_BWD, RESIDENT] {
            if self.slots.contains_key(&(chunk, flow)) {
                return (chunk, flow);
            }
        }
        panic!(
            "rank {}: no weight slot for chunk {chunk} (have {:?})",
            self.rank,
            self.slots.keys().collect::<Vec<_>>()
        );
    }

    fn grad_scale(&self) -> f32 {
        self.setup.loss_scale / self.setup.microbatches as f32
    }

    /// Divide a gradient buffer by the static loss scale before stepping.
    fn unscale(&self, grads: &mut [f32]) {
        if self.setup.loss_scale != 1.0 {
            let inv = 1.0 / self.setup.loss_scale;
            for g in grads {
                *g *= inv;
            }
        }
    }

    // ---- compute ops -------------------------------------------------------

    fn exec_fwd(&mut self, mb: usize, chunk: usize, needs: &[MsgKey], recompute: bool) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        // Input activations: embedding lookup for chunk 0, else the stored
        // boundary (local chain or a received message).
        let mut x = if chunk == 0 {
            let (ids, _) = self.setup.batch_for(self.iter, mb);
            embed_forward(&self.cfg, &self.embed, &ids, &self.scratch)
        } else {
            self.acts.remove(&(mb, chunk)).unwrap_or_else(|| {
                panic!("rank {}: missing input for Fwd({mb},{chunk})", self.rank)
            })
        };
        let key = self.weight_slot_key(needs, chunk, FLOW_FWD);
        let w = self.slots.get(&key).expect("slot resolved");
        let mut saved_ctxs = Vec::new();
        let mut saved_inputs = Vec::new();
        for l in 0..self.lpc {
            let wl = &w[l * self.block_len..(l + 1) * self.block_len];
            if recompute {
                saved_inputs.push(x.clone());
                let (y, _) = block_forward(&self.cfg, &self.rope, wl, &x, g, s, &self.scratch);
                x = y;
            } else {
                let (y, ctx) = block_forward(&self.cfg, &self.rope, wl, &x, g, s, &self.scratch);
                saved_ctxs.push(ctx);
                x = y;
            }
        }
        self.fwd_saved.insert(
            (mb, chunk),
            if recompute {
                FwdSaved::Inputs(saved_inputs)
            } else {
                FwdSaved::Ctxs(saved_ctxs)
            },
        );
        if chunk + 1 < self.chunks {
            self.acts.insert((mb, chunk + 1), x);
        } else {
            // Last chunk: run the head, record the loss.
            let (logits, ctx) = head_forward(&self.cfg, &self.head, &x, &self.scratch);
            let (_, targets) = self.setup.batch_for(self.iter, mb);
            let loss = wp_tensor::ops::cross_entropy_loss(&logits, &targets, self.cfg.vocab);
            self.loss_sum += loss as f64;
            self.loss_count += 1;
            self.heads_saved.insert(mb, HeadSaved { logits, ctx });
        }
    }

    /// Upstream gradient entering the backward of (mb, chunk): the head
    /// backward for the last chunk, else the stored boundary gradient.
    fn upstream_dy(&mut self, mb: usize, chunk: usize) -> ScratchBuf {
        if chunk + 1 == self.chunks {
            let hs = self
                .heads_saved
                .remove(&mb)
                .unwrap_or_else(|| panic!("rank {}: no head state for mb {mb}", self.rank));
            if self.head_grads.is_empty() {
                self.head_grads = vec![0.0; self.head.len()];
            }
            let (_, targets) = self.setup.batch_for(self.iter, mb);
            let scale = self.grad_scale();
            let (_, dx) = head_loss_backward(
                &self.cfg,
                &self.head,
                &hs.ctx,
                &hs.logits,
                &targets,
                &mut self.head_grads,
                scale,
                &self.scratch,
            );
            dx
        } else {
            self.dy_out
                .remove(&(mb, chunk))
                .unwrap_or_else(|| panic!("rank {}: missing dy for Bwd({mb},{chunk})", self.rank))
        }
    }

    /// Finish a backward chain: route the input gradient onward (embedding
    /// for chunk 0, boundary store otherwise).
    fn downstream_dx(&mut self, mb: usize, chunk: usize, dx: ScratchBuf) {
        if chunk == 0 {
            let (ids, _) = self.setup.batch_for(self.iter, mb);
            if self.embed_grads.is_empty() {
                self.embed_grads = vec![0.0; self.embed.len()];
            }
            embed_backward(&self.cfg, &mut self.embed_grads, &dx, &ids);
        } else {
            self.dy_out.insert((mb, chunk - 1), dx);
        }
    }

    fn exec_bwd_full(&mut self, mb: usize, chunk: usize, needs: &[MsgKey]) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let mut dy = self.upstream_dy(mb, chunk);
        let key = self.weight_slot_key(needs, chunk, FLOW_BWD);
        let w = self.slots.get(&key).expect("slot resolved");
        let saved = self
            .fwd_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no fwd state for Bwd({mb},{chunk})", self.rank));
        let mut dgrad = self
            .dgrads
            .remove(&chunk)
            .unwrap_or_else(|| vec![0.0; self.lpc * self.block_len]);
        for l in (0..self.lpc).rev() {
            let wl = &w[l * self.block_len..(l + 1) * self.block_len];
            let dgl = &mut dgrad[l * self.block_len..(l + 1) * self.block_len];
            dy = match &saved {
                FwdSaved::Inputs(inputs) => block_backward_recompute(
                    &self.cfg,
                    &self.rope,
                    wl,
                    &inputs[l],
                    &dy,
                    dgl,
                    g,
                    s,
                    &self.scratch,
                ),
                FwdSaved::Ctxs(ctxs) => block_backward_full(
                    &self.cfg,
                    &self.rope,
                    wl,
                    &ctxs[l],
                    &dy,
                    dgl,
                    g,
                    s,
                    &self.scratch,
                ),
            };
        }
        self.dgrads.insert(chunk, dgrad);
        self.downstream_dx(mb, chunk, dy);
    }

    fn exec_bwd_data(&mut self, mb: usize, chunk: usize, needs: &[MsgKey]) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let mut dy = self.upstream_dy(mb, chunk);
        let key = self.weight_slot_key(needs, chunk, FLOW_BWD);
        let w = self.slots.get(&key).expect("slot resolved");
        let saved = self
            .fwd_saved
            .get(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no fwd state for B({mb},{chunk})", self.rank));
        let ctxs = match saved {
            FwdSaved::Ctxs(c) => c,
            FwdSaved::Inputs(_) => {
                panic!("split backward requires saved contexts (no recomputation)")
            }
        };
        let mut bctxs: Vec<Option<BPassCtx>> = (0..self.lpc).map(|_| None).collect();
        for l in (0..self.lpc).rev() {
            let wl = &w[l * self.block_len..(l + 1) * self.block_len];
            let (dx, bctx) = block_backward_data(
                &self.cfg,
                &self.rope,
                wl,
                &ctxs[l],
                &dy,
                g,
                s,
                &self.scratch,
            );
            bctxs[l] = Some(bctx);
            dy = dx;
        }
        self.bctx_saved.insert(
            (mb, chunk),
            bctxs.into_iter().map(|b| b.expect("filled")).collect(),
        );
        self.downstream_dx(mb, chunk, dy);
    }

    fn exec_bwd_weight(&mut self, mb: usize, chunk: usize) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let saved = self
            .fwd_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no fwd state for W({mb},{chunk})", self.rank));
        let ctxs = match &saved {
            FwdSaved::Ctxs(c) => c,
            FwdSaved::Inputs(_) => unreachable!("checked in exec_bwd_data"),
        };
        let bctxs = self
            .bctx_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no B-ctx for W({mb},{chunk})", self.rank));
        let mut dgrad = self
            .dgrads
            .remove(&chunk)
            .unwrap_or_else(|| vec![0.0; self.lpc * self.block_len]);
        for l in 0..self.lpc {
            let dgl = &mut dgrad[l * self.block_len..(l + 1) * self.block_len];
            block_backward_weight(&self.cfg, &ctxs[l], &bctxs[l], dgl, g, s);
        }
        self.dgrads.insert(chunk, dgrad);
    }

    fn exec_update(&mut self, chunk: usize) {
        let lr = self.lr();
        if self.strategy == Strategy::Fsdp {
            let mut grads = self
                .shard_grads
                .remove(&chunk)
                .unwrap_or_else(|| panic!("rank {}: no shard grads for chunk {chunk}", self.rank));
            self.unscale(&mut grads);
            let shard = self.shards.get_mut(&chunk).expect("FSDP shard");
            let optim = &self.setup.optim;
            let wire = self.setup.wire;
            let (master, opt) = self.shard_opt.entry(chunk).or_insert_with(|| {
                (
                    MasterWeights::capture(shard, wire),
                    optim.build(shard.len()),
                )
            });
            master.step_observed(opt.as_mut(), shard, &grads, lr, self.comm.probe());
            return;
        }
        let key = self.weight_slot_key(&[], chunk, FLOW_FWD);
        let mut grads = self
            .dgrads
            .remove(&chunk)
            .unwrap_or_else(|| panic!("rank {}: no grads for Update({chunk})", self.rank));
        self.unscale(&mut grads);
        let slot = self.slots.get_mut(&key).expect("slot resolved");
        let optim = &self.setup.optim;
        let wire = self.setup.wire;
        let (master, opt) = self
            .chunk_opt
            .entry(chunk)
            .or_insert_with(|| (MasterWeights::capture(slot, wire), optim.build(slot.len())));
        master.step_observed(opt.as_mut(), slot, &grads, lr, self.comm.probe());
    }

    // ---- communication ops --------------------------------------------------

    fn exec_send(&mut self, k: &MsgKey) -> Result<(), CommError> {
        let wire = self.setup.wire;
        let tag = tag_of(k);
        match k.kind {
            MsgKind::Weights => {
                let slot = self.slots.get(&(k.chunk, k.mb)).unwrap_or_else(|| {
                    panic!(
                        "rank {}: sending unknown weight slot {:?}",
                        self.rank,
                        (k.chunk, k.mb)
                    )
                });
                self.comm.send(k.dst, tag, slot, wire)?;
            }
            MsgKind::WeightGrads => {
                let buf = self
                    .dgrads
                    .remove(&k.chunk)
                    .unwrap_or_else(|| vec![0.0; self.lpc * self.block_len]);
                self.comm.send(k.dst, tag, &buf, wire)?;
            }
            MsgKind::Act => {
                let buf = self
                    .acts
                    .remove(&(k.mb, k.chunk))
                    .unwrap_or_else(|| panic!("rank {}: no activations to send {k:?}", self.rank));
                self.comm.send(k.dst, tag, &buf, wire)?;
            }
            MsgKind::ActGrad => {
                let buf = self
                    .dy_out
                    .remove(&(k.mb, k.chunk))
                    .unwrap_or_else(|| panic!("rank {}: no act grads to send {k:?}", self.rank));
                self.comm.send(k.dst, tag, &buf, wire)?;
            }
        }
        Ok(())
    }

    fn exec_recv(&mut self, k: &MsgKey) -> Result<(), CommError> {
        let tag = tag_of(k);
        let data = self.comm.recv(k.src, tag)?;
        self.store_payload(k, data);
        Ok(())
    }

    /// Post the receive for a message the schedule will wait on later
    /// (the irecv half of the double-buffered weight ring, §4.3). Never
    /// fails: faults surface at the matching [`Self::exec_waitreq`].
    fn exec_prepost(&mut self, k: &MsgKey) {
        let req = self.comm.irecv(k.src, tag_of(k));
        let prev = self.pending_reqs.insert(*k, req);
        debug_assert!(
            prev.is_none(),
            "rank {}: double pre-post for {k:?}",
            self.rank
        );
    }

    /// Redeem a pre-posted receive and route its payload exactly as a
    /// blocking recv would.
    fn exec_waitreq(&mut self, k: &MsgKey) -> Result<(), CommError> {
        let req = self
            .pending_reqs
            .remove(k)
            .unwrap_or_else(|| panic!("rank {}: wait without pre-post for {k:?}", self.rank));
        let data = self.comm.wait_recv(req)?;
        self.store_payload(k, data);
        Ok(())
    }

    /// Route a received payload into rank state by message kind.
    fn store_payload(&mut self, k: &MsgKey, data: Vec<f32>) {
        match k.kind {
            MsgKind::Weights => {
                self.slots.insert((k.chunk, k.mb), data);
            }
            MsgKind::WeightGrads => match self.dgrads.get_mut(&k.chunk) {
                Some(acc) => {
                    for (a, b) in acc.iter_mut().zip(&data) {
                        *a += b;
                    }
                }
                None => {
                    self.dgrads.insert(k.chunk, data);
                }
            },
            MsgKind::Act => {
                self.acts.insert((k.mb, k.chunk), self.scratch.adopt(data));
            }
            MsgKind::ActGrad => {
                self.dy_out
                    .insert((k.mb, k.chunk), self.scratch.adopt(data));
            }
        }
    }

    fn exec_all_gather(&mut self, chunk: usize) -> Result<(), CommError> {
        let wire = self.setup.wire;
        let shard = self.shards.get(&chunk).expect("FSDP shard");
        let mut full = self.comm.all_gather(shard, wire)?;
        full.truncate(self.lpc * self.block_len);
        self.slots.insert((chunk, RESIDENT), full);
        Ok(())
    }

    fn exec_reduce_scatter(&mut self, chunk: usize) -> Result<(), CommError> {
        let wire = self.setup.wire;
        let mut grads = self
            .dgrads
            .remove(&chunk)
            .unwrap_or_else(|| panic!("rank {}: no grads to reduce-scatter", self.rank));
        grads.resize(self.shard_len * self.comm.world_size(), 0.0);
        let own = self.comm.reduce_scatter_sum(&grads, wire)?;
        match self.shard_grads.get_mut(&chunk) {
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(&own) {
                    *a += b;
                }
            }
            None => {
                self.shard_grads.insert(chunk, own);
            }
        }
        // The gathered full-weight buffer is stale after updates; drop it so
        // the next iteration re-gathers.
        self.slots.remove(&(chunk, RESIDENT));
        Ok(())
    }

    fn exec_all_reduce(&mut self, chunk: usize) -> Result<(), CommError> {
        let wire = self.setup.wire;
        let buf = self.dgrads.entry(chunk).or_insert_with(|| vec![0.0; 0]);
        if buf.is_empty() {
            *buf = vec![0.0; self.lpc * self.block_len];
        }
        let mut taken = std::mem::take(buf);
        self.comm.all_reduce_sum(&mut taken, wire)?;
        self.dgrads.insert(chunk, taken);
        Ok(())
    }

    // ---- driver --------------------------------------------------------------

    /// Execute one iteration of the schedule.
    ///
    /// # Errors
    /// Propagates the first [`CommError`] hit by any communication op; the
    /// iteration's state is then unusable and the caller should unwind.
    pub fn run_iteration(&mut self, schedule: &Schedule, iter: usize) -> Result<f32, CommError> {
        self.iter = iter;
        self.acts.clear();
        self.fwd_saved.clear();
        self.bctx_saved.clear();
        self.dy_out.clear();
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
        if self.embed_grads.is_empty() {
            self.embed_grads = vec![0.0; self.embed.len()];
        }
        if self.head_grads.is_empty() {
            self.head_grads = vec![0.0; self.head.len()];
        }
        let mut eg = std::mem::take(&mut self.embed_grads);
        let mut hg = std::mem::take(&mut self.head_grads);
        self.comm.all_reduce_sum(&mut eg, wire)?;
        self.comm.all_reduce_sum(&mut hg, wire)?;
        self.unscale(&mut eg);
        self.unscale(&mut hg);
        let lr = self.lr();
        let optim = &self.setup.optim;
        let embed = &mut self.embed;
        let (master, opt) = self.embed_opt.get_or_insert_with(|| {
            (
                MasterWeights::capture(embed, wire),
                optim.build(embed.len()),
            )
        });
        master.step_observed(opt.as_mut(), embed, &eg, lr, self.comm.probe());
        let head = &mut self.head;
        let (master, opt) = self
            .head_opt
            .get_or_insert_with(|| (MasterWeights::capture(head, wire), optim.build(head.len())));
        master.step_observed(opt.as_mut(), head, &hg, lr, self.comm.probe());

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

    /// Re-seed the backward-flow weight copy for the next iteration: the
    /// chunk owner ships its freshly updated weights to the rank that holds
    /// the backward seed (O(P) messages per iteration boundary — the
    /// amortized cost noted in the builder docs).
    ///
    /// # Errors
    /// Propagates any [`CommError`] from the reseed exchange.
    pub fn reseed_bwd_flow(&mut self, schedule: &Schedule, iter: usize) -> Result<(), CommError> {
        if !matches!(
            self.strategy,
            Strategy::WeiPipeInterleave | Strategy::WeiPipeNaive
        ) {
            return Ok(());
        }
        let p = self.comm.world_size();
        let offset = if self.strategy == Strategy::WeiPipeInterleave {
            1
        } else {
            2
        };
        let wire = self.setup.wire;
        // Nonblocking exchange: post every incoming reseed first, then ship
        // outgoing copies, then redeem — so a rank that both sends and
        // receives never serialises the boundary on its own recv.
        let mut incoming: Vec<(usize, Request)> = Vec::new();
        for chunk in 0..self.chunks {
            let owner = schedule.initial_holder[chunk];
            let holder = (chunk + offset) % p;
            let tag = (1u64 << 40) | ((iter as u64) << 16) | chunk as u64;
            if owner != holder && self.rank == holder {
                incoming.push((chunk, self.comm.irecv(owner, tag)));
            }
        }
        for chunk in 0..self.chunks {
            let owner = schedule.initial_holder[chunk];
            let holder = (chunk + offset) % p;
            let tag = (1u64 << 40) | ((iter as u64) << 16) | chunk as u64;
            if owner == holder {
                if self.rank == owner {
                    let fresh = self
                        .slots
                        .get(&(chunk, FLOW_FWD))
                        .expect("owner slot")
                        .clone();
                    self.slots.insert((chunk, FLOW_BWD), fresh);
                }
            } else if self.rank == owner {
                let fresh = self
                    .slots
                    .get(&(chunk, FLOW_FWD))
                    .expect("owner slot")
                    .clone();
                self.comm.send(holder, tag, &fresh, wire)?;
            }
        }
        for (chunk, req) in incoming {
            let fresh = self.comm.wait_recv(req)?;
            self.slots.insert((chunk, FLOW_BWD), fresh);
        }
        Ok(())
    }

    /// Assemble the full updated model on every rank (broadcast from each
    /// chunk's updater; all-gather for FSDP shards). Returns
    /// `(embed, blocks, head)`.
    ///
    /// # Errors
    /// Propagates any [`CommError`] from the assembly collectives.
    pub fn assemble(&mut self, schedule: &Schedule) -> Result<AssembledModel, CommError> {
        let wire = wp_tensor::DType::F32; // assembly is exact
        let mut blocks = Vec::with_capacity(self.cfg.layers);
        for chunk in 0..self.chunks {
            let full = if self.strategy == Strategy::Fsdp {
                self.gather_full(&self.shards.get(&chunk).expect("shard").clone())?
            } else {
                let updater = Self::updater_of(schedule, chunk);
                let mut buf = if self.rank == updater {
                    let key = self.weight_slot_key(&[], chunk, FLOW_FWD);
                    self.slots.get(&key).expect("slot").clone()
                } else {
                    Vec::new()
                };
                self.comm.broadcast(updater, &mut buf, wire)?;
                buf
            };
            for l in 0..self.lpc {
                blocks.push(full[l * self.block_len..(l + 1) * self.block_len].to_vec());
            }
        }
        Ok((self.embed.clone(), blocks, self.head.clone()))
    }

    /// The rank whose schedule carries `Update` for `chunk` (broadcast root
    /// for assembly and snapshots).
    fn updater_of(schedule: &Schedule, chunk: usize) -> usize {
        schedule
            .ops
            .iter()
            .position(|ops| {
                ops.iter()
                    .any(|op| matches!(op.kind, OpKind::Update { chunk: c } if c == chunk))
            })
            .expect("every chunk has an updater")
    }

    /// All-gather a per-rank part into the full chunk-length buffer (FSDP
    /// shards are zero-padded; the gather truncates the padding back off).
    fn gather_full(&mut self, part: &[f32]) -> Result<Vec<f32>, CommError> {
        let mut full = self.comm.all_gather(part, wp_tensor::DType::F32)?;
        full.truncate(self.lpc * self.block_len);
        Ok(full)
    }

    /// Capture a full [`TrainState`] snapshot at an iteration boundary: the
    /// model weights, fp32 masters, and optimizer moments of every chunk,
    /// split to per-*layer* [`ComponentState`]s so the snapshot re-shards
    /// onto any world size that divides the layer count. This is a
    /// collective (each chunk's updater broadcasts its state; FSDP worlds
    /// all-gather their shards), and every rank returns the bit-identical
    /// state. Exact: the wire format is f32 regardless of the training wire
    /// dtype.
    ///
    /// Must run after at least one completed iteration (so every chunk's
    /// optimizer state exists). `next_iter` is the absolute iteration a
    /// resumed run continues from.
    ///
    /// # Errors
    /// Propagates any [`CommError`] from the snapshot collectives.
    pub fn capture_state(
        &mut self,
        schedule: &Schedule,
        next_iter: u64,
    ) -> Result<TrainState, CommError> {
        let wire = wp_tensor::DType::F32; // snapshots are exact
        let n = self.lpc * self.block_len;
        let mut blocks: Vec<ComponentState> = Vec::with_capacity(self.cfg.layers);
        for chunk in 0..self.chunks {
            let (weights, master, opt_t, opt_bufs) = if self.strategy == Strategy::Fsdp {
                let shard = self.shards.get(&chunk).expect("shard").clone();
                let weights = self.gather_full(&shard)?;
                let (master_shard, t, buf_shards) = {
                    let (m, o) = self
                        .shard_opt
                        .get(&chunk)
                        .expect("capture requires a completed iteration");
                    let (t, bufs) = o.export_state();
                    (m.master().to_vec(), t, bufs)
                };
                let master = self.gather_full(&master_shard)?;
                let mut bufs = Vec::with_capacity(buf_shards.len());
                for b in &buf_shards {
                    bufs.push(if b.is_empty() {
                        Vec::new()
                    } else {
                        self.gather_full(b)?
                    });
                }
                (weights, master, t, bufs)
            } else {
                let updater = Self::updater_of(schedule, chunk);
                let mut weights = if self.rank == updater {
                    let key = self.weight_slot_key(&[], chunk, FLOW_FWD);
                    self.slots.get(&key).expect("slot").clone()
                } else {
                    Vec::new()
                };
                self.comm.broadcast(updater, &mut weights, wire)?;
                // One flat payload for the optimizer state:
                // [t, nbufs, master(n), (len, buf)...] — all values either
                // exact small integers or raw f32 state, so the broadcast
                // is lossless.
                let mut payload = if self.rank == updater {
                    let (m, o) = self
                        .chunk_opt
                        .get(&chunk)
                        .expect("capture requires a completed iteration");
                    let (t, bufs) = o.export_state();
                    let mut p = vec![t as f32, bufs.len() as f32];
                    p.extend_from_slice(m.master());
                    for b in &bufs {
                        p.push(b.len() as f32);
                        p.extend_from_slice(b);
                    }
                    p
                } else {
                    Vec::new()
                };
                self.comm.broadcast(updater, &mut payload, wire)?;
                let t = payload[0] as u64;
                let nbufs = payload[1] as usize;
                let master = payload[2..2 + n].to_vec();
                let mut off = 2 + n;
                let mut bufs = Vec::with_capacity(nbufs);
                for _ in 0..nbufs {
                    let len = payload[off] as usize;
                    off += 1;
                    bufs.push(payload[off..off + len].to_vec());
                    off += len;
                }
                (weights, master, t, bufs)
            };
            for l in 0..self.lpc {
                let r = l * self.block_len..(l + 1) * self.block_len;
                blocks.push(ComponentState {
                    weights: weights[r.clone()].to_vec(),
                    master: master[r.clone()].to_vec(),
                    opt_t,
                    opt_bufs: opt_bufs
                        .iter()
                        .map(|b| {
                            if b.is_empty() {
                                Vec::new()
                            } else {
                                b[r.clone()].to_vec()
                            }
                        })
                        .collect(),
                });
            }
        }
        let local = |weights: &[f32], opt: &Option<OptState>| -> ComponentState {
            let (m, o) = opt
                .as_ref()
                .expect("capture requires a completed iteration");
            let (opt_t, opt_bufs) = o.export_state();
            ComponentState {
                weights: weights.to_vec(),
                master: m.master().to_vec(),
                opt_t,
                opt_bufs,
            }
        };
        let state = TrainState {
            config: self.cfg.clone(),
            seed: self.setup.seed,
            next_iter,
            loss_scale: self.setup.loss_scale,
            embed: local(&self.embed, &self.embed_opt),
            blocks,
            head: local(&self.head, &self.head_opt),
        };
        debug_assert!(state.validate().is_ok(), "captured state must validate");
        Ok(state)
    }
}
