//! Execution of single schedule ops against the rank's state: the compute
//! ops run `wp-nn` kernels on store entries, the communication ops move
//! payloads between the stores and `wp-comm`.

use super::store::{Key, EMBED, HEAD};
use super::{FwdSaved, HeadSaved, RankRuntime};
use wp_comm::CommError;
use wp_nn::block::{
    block_backward, block_backward_checkpointed, block_backward_data, block_backward_weight,
    block_forward,
};
use wp_nn::embed::{embed_backward, embed_forward, head_backward, head_forward};
use wp_nn::scratch::ScratchBuf;
use wp_sched::{MsgKey, MsgKind, EMBED_HEAD, RESIDENT, SHARDED};
use wp_tensor::ops::cross_entropy;

impl RankRuntime {
    // ---- gradient accumulators ----------------------------------------------

    /// Add `data` into the accumulator at `key`, or start it with `data`.
    fn accumulate(&mut self, key: Key, data: Vec<f32>) {
        match self.grads.get_mut(&key) {
            Some(acc) => {
                for (a, b) in acc.iter_mut().zip(&data) {
                    *a += b;
                }
            }
            None => {
                self.grads.insert(key, data);
            }
        }
    }

    /// Take the accumulator at `key` out of the store — zeros, as long as
    /// the weights it is the gradient of, if nothing has accumulated yet: a
    /// block's start in a buffer from the chunk pool.
    pub(super) fn take_grads(&mut self, key: Key) -> Vec<f32> {
        if let Some(acc) = self.grads.remove(&key) {
            return acc;
        }
        if key.0 == EMBED_HEAD {
            return vec![0.0; self.params[&key].weights.len()];
        }
        let mut acc = self.pool.pop().unwrap_or_default();
        acc.clear();
        acc.resize(self.lpc * self.block_len, 0.0);
        acc
    }

    // ---- compute ops -------------------------------------------------------

    pub(super) fn exec_fwd(&mut self, mb: usize, chunk: usize, needs: &[MsgKey], recompute: bool) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        // Input activations: embedding lookup for chunk 0, else the stored
        // boundary (local chain or a received message).
        let mut x = if chunk == 0 {
            let (ids, _) = self.setup.batch_for(self.iter, mb);
            embed_forward(&self.cfg, &self.params[&EMBED].weights, &ids, &self.scratch)
        } else {
            self.boundary
                .remove(&(MsgKind::Act, mb, chunk))
                .unwrap_or_else(|| {
                    panic!("rank {}: missing input for Fwd({mb},{chunk})", self.rank)
                })
        };
        let w = &self.params[&self.resolve(needs, chunk)].weights;
        let mut saved_ctxs = Vec::new();
        let mut saved_ckpts = Vec::new();
        for l in 0..self.lpc {
            let wl = &w[self.layer_range(l)];
            let (y, ctx) = block_forward(&self.cfg, &self.rope, wl, &x, g, s, &self.scratch);
            if recompute {
                saved_ckpts.push(ctx.into_checkpoint());
            } else {
                saved_ctxs.push(ctx);
            }
            x = y;
        }
        self.fwd_saved.insert(
            (mb, chunk),
            if recompute {
                FwdSaved::Ckpts(saved_ckpts)
            } else {
                FwdSaved::Ctxs(saved_ctxs)
            },
        );
        if chunk + 1 < self.chunks {
            self.boundary.insert((MsgKind::Act, mb, chunk + 1), x);
        } else {
            // Last chunk: run the head and its loss, keep the logit gradient.
            let head = &self.params[&HEAD].weights;
            let (mut dlogits, ctx) = head_forward(&self.cfg, head, x, &self.scratch);
            let (_, targets) = self.setup.batch_for(self.iter, mb);
            let scale = self.setup.loss_scale / self.setup.microbatches as f32;
            let loss = cross_entropy(&mut dlogits, &targets, self.cfg.vocab, scale);
            self.loss_sum += loss as f64;
            self.loss_count += 1;
            self.heads_saved.insert(mb, HeadSaved { dlogits, ctx });
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
            let head = &self.params[&HEAD].weights;
            let head_grads = self
                .grads
                .entry(HEAD)
                .or_insert_with(|| vec![0.0; head.len()]);
            head_backward(
                &self.cfg,
                head,
                &hs.ctx,
                &hs.dlogits,
                head_grads,
                &self.scratch,
            )
        } else {
            self.boundary
                .remove(&(MsgKind::ActGrad, mb, chunk))
                .unwrap_or_else(|| panic!("rank {}: missing dy for Bwd({mb},{chunk})", self.rank))
        }
    }

    /// Finish a backward chain: route the input gradient onward (embedding
    /// for chunk 0, boundary store otherwise).
    fn downstream_dx(&mut self, mb: usize, chunk: usize, dx: ScratchBuf) {
        if chunk == 0 {
            let (ids, _) = self.setup.batch_for(self.iter, mb);
            let n = self.params[&EMBED].weights.len();
            let embed_grads = self.grads.entry(EMBED).or_insert_with(|| vec![0.0; n]);
            embed_backward(&self.cfg, embed_grads, &dx, &ids);
        } else {
            self.boundary.insert((MsgKind::ActGrad, mb, chunk - 1), dx);
        }
    }

    /// Fused backward of (mb, chunk), last layer first: each layer's saved
    /// state is popped and consumed, so it returns to the arena as soon as
    /// that layer's backward is done with it.
    pub(super) fn exec_bwd_full(&mut self, mb: usize, chunk: usize, needs: &[MsgKey]) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let mut dy = self.upstream_dy(mb, chunk);
        let mut dgrad = self.take_grads((chunk, RESIDENT));
        let w = &self.params[&self.resolve(needs, chunk)].weights;
        let mut saved = self
            .fwd_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no fwd state for Bwd({mb},{chunk})", self.rank));
        for l in (0..self.lpc).rev() {
            let (wl, dgl) = (&w[self.layer_range(l)], &mut dgrad[self.layer_range(l)]);
            let (cfg, rope, scratch) = (&self.cfg, &self.rope, &self.scratch);
            dy = match &mut saved {
                FwdSaved::Ckpts(ckpts) => {
                    let ck = ckpts.pop().expect("one checkpoint per layer");
                    block_backward_checkpointed(cfg, rope, wl, ck, dy, dgl, g, s, scratch)
                }
                FwdSaved::Ctxs(ctxs) => {
                    let ctx = ctxs.pop().expect("one context per layer");
                    block_backward(cfg, rope, wl, ctx, dy, dgl, g, s, scratch)
                }
            };
        }
        self.grads.insert((chunk, RESIDENT), dgrad);
        self.downstream_dx(mb, chunk, dy);
    }

    /// B pass of (mb, chunk), last layer first. Each layer's context is
    /// popped, read by its B pass, then shed to what its W pass reads and
    /// parked beside the B pass's gradients.
    pub(super) fn exec_bwd_data(&mut self, mb: usize, chunk: usize, needs: &[MsgKey]) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let mut dy = self.upstream_dy(mb, chunk);
        let w = &self.params[&self.resolve(needs, chunk)].weights;
        let saved = self
            .fwd_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no fwd state for B({mb},{chunk})", self.rank));
        let mut ctxs = match saved {
            FwdSaved::Ctxs(c) => c,
            FwdSaved::Ckpts(_) => {
                panic!("split backward requires saved contexts (no recomputation)")
            }
        };
        let mut parked = Vec::with_capacity(self.lpc);
        for l in (0..self.lpc).rev() {
            let wl = &w[self.layer_range(l)];
            let ctx = ctxs.pop().expect("one context per layer");
            let (dx, bctx) =
                block_backward_data(&self.cfg, &self.rope, wl, &ctx, &dy, g, s, &self.scratch);
            parked.push((ctx.into_weight_inputs(), bctx));
            dy = dx;
        }
        parked.reverse();
        self.w_saved.insert((mb, chunk), parked);
        self.downstream_dx(mb, chunk, dy);
    }

    pub(super) fn exec_bwd_weight(&mut self, mb: usize, chunk: usize) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let parked = self
            .w_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no B state for W({mb},{chunk})", self.rank));
        let mut dgrad = self.take_grads((chunk, RESIDENT));
        for (l, (ctx, bctx)) in parked.into_iter().enumerate() {
            let dgl = &mut dgrad[self.layer_range(l)];
            block_backward_weight(&self.cfg, &ctx, &bctx, dgl, g, s);
        }
        self.grads.insert((chunk, RESIDENT), dgrad);
    }

    pub(super) fn exec_update(&mut self, chunk: usize, needs: &[MsgKey]) {
        let key = self.resolve(needs, chunk);
        assert!(
            self.lives.stepped().contains(&key),
            "rank {}: Update({chunk}) steps {key:?}, where no resume restores state",
            self.rank
        );
        // A chunk has one whole-length accumulator whichever flow its
        // weights ride; a shard steps on the scattered one.
        let grads_at = if key.1 == SHARDED {
            key
        } else {
            (chunk, RESIDENT)
        };
        let mut grads = self
            .grads
            .remove(&grads_at)
            .unwrap_or_else(|| panic!("rank {}: no grads for Update({chunk})", self.rank));
        self.step(key, &mut grads);
    }

    // ---- communication ops --------------------------------------------------

    pub(super) fn exec_send(&mut self, k: &MsgKey) -> Result<(), CommError> {
        // Weights stay behind (the slot keeps serving local compute), and
        // leave as the frame they arrived in while unchanged since; every
        // other payload leaves its store with the message, a drained
        // accumulator's buffer for the chunk pool once packed.
        let tag = k.tag().expect("validate rejects a key with no tag");
        let boundary;
        let payload: &[f32] = match k.kind {
            MsgKind::Weights => {
                let slot = self.params.get_mut(&(k.chunk, k.mb)).unwrap_or_else(|| {
                    panic!(
                        "rank {}: sending unknown weight slot {:?}",
                        self.rank,
                        (k.chunk, k.mb)
                    )
                });
                if let Some(wire) = slot.kept.take() {
                    return self.comm.send_wire(k.dst, tag, wire, &slot.weights);
                }
                &slot.weights
            }
            MsgKind::WeightGrads => {
                let grads = self.take_grads((k.chunk, RESIDENT));
                let sent = self.comm.send(k.dst, tag, &grads, self.setup.wire);
                self.pool_buffer(grads);
                return sent;
            }
            MsgKind::Act | MsgKind::ActGrad => {
                boundary = self
                    .boundary
                    .remove(&(k.kind, k.mb, k.chunk))
                    .unwrap_or_else(|| panic!("rank {}: nothing to send for {k:?}", self.rank));
                &boundary
            }
        };
        self.comm.send(k.dst, tag, payload, self.setup.wire)
    }

    /// Receive `k` into the store its kind lives in — the mirror of the
    /// lookup in [`Self::exec_send`]. Weights land in their slot's buffer,
    /// beside the frame they came in, and gradients are added into the
    /// accumulator the backward made, each straight from the wire payload;
    /// either lands in a pooled buffer when the rank has no entry yet.
    pub(super) fn exec_recv(&mut self, i: usize, k: &MsgKey) -> Result<(), CommError> {
        let (src, tag) = (k.src, k.tag().expect("validate rejects a key with no tag"));
        match k.kind {
            MsgKind::Weights => self.recv_weights((k.chunk, k.mb), src, tag, self.lives.fate(i)),
            MsgKind::WeightGrads => self.recv_grads((k.chunk, RESIDENT), src, tag),
            MsgKind::Act | MsgKind::ActGrad => {
                // Copied into the arena, not adopted by it: the sender
                // allocates every message afresh, so adopting would grow
                // the receiver's pool by one buffer per message, forever.
                let data = self.comm.recv(src, tag)?;
                let buf = self.scratch.take_copy(&data);
                self.boundary.insert((k.kind, k.mb, k.chunk), buf);
                Ok(())
            }
        }
    }

    pub(super) fn exec_all_gather(&mut self, chunk: usize) -> Result<(), CommError> {
        let shard = &self.params[&(chunk, SHARDED)].weights;
        let mut full = self.comm.all_gather(shard, self.setup.wire)?;
        full.truncate(self.lpc * self.block_len);
        self.put_weights((chunk, RESIDENT), full);
        Ok(())
    }

    pub(super) fn exec_reduce_scatter(&mut self, chunk: usize) -> Result<(), CommError> {
        let mut grads = self
            .grads
            .remove(&(chunk, RESIDENT))
            .unwrap_or_else(|| panic!("rank {}: no grads to reduce-scatter", self.rank));
        grads.resize(self.shard_len * self.comm.world_size(), 0.0);
        let own = self.comm.reduce_scatter_sum(&grads, self.setup.wire)?;
        self.pool_buffer(grads);
        self.accumulate((chunk, SHARDED), own);
        // The rank no longer holds the gathered slot, as the validator
        // walks it: the next use gathers again.
        self.params.remove(&(chunk, RESIDENT));
        Ok(())
    }

    pub(super) fn exec_all_reduce(&mut self, chunk: usize) -> Result<(), CommError> {
        let mut grads = self.take_grads((chunk, RESIDENT));
        self.comm.all_reduce_sum(&mut grads, self.setup.wire)?;
        self.grads.insert((chunk, RESIDENT), grads);
        Ok(())
    }
}
