//! Execution of single schedule ops against the rank's state: the compute
//! ops run `wp-nn` kernels on store entries, the communication ops move
//! payloads between the stores and `wp-comm`.

use super::store::{Key, EMBED, HEAD};
use super::{FwdSaved, HeadSaved, RankRuntime};
use wp_comm::CommError;
use wp_nn::block::{
    block_backward_data, block_backward_full, block_backward_recompute, block_backward_weight,
    block_forward, BPassCtx,
};
use wp_nn::embed::{embed_backward, embed_forward, head_forward, head_loss_backward};
use wp_nn::scratch::ScratchBuf;
use wp_sched::{MsgKey, MsgKind, EMBED_HEAD, NO_MB, RESIDENT, SHARDED};

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
    /// the weights it is the gradient of, if nothing has accumulated yet.
    pub(super) fn take_grads(&mut self, key: Key) -> Vec<f32> {
        self.grads.remove(&key).unwrap_or_else(|| {
            let n = match key.0 {
                EMBED_HEAD => self.params[&key].weights.len(),
                _ => self.lpc * self.block_len,
            };
            vec![0.0; n]
        })
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
        let mut saved_inputs = Vec::new();
        for l in 0..self.lpc {
            let wl = &w[self.layer_range(l)];
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
            self.boundary.insert((MsgKind::Act, mb, chunk + 1), x);
        } else {
            // Last chunk: run the head, record the loss.
            let head = &self.params[&HEAD].weights;
            let (logits, ctx) = head_forward(&self.cfg, head, &x, &self.scratch);
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
            let (_, targets) = self.setup.batch_for(self.iter, mb);
            let scale = self.setup.loss_scale / self.setup.microbatches as f32;
            let head = &self.params[&HEAD].weights;
            let head_grads = self
                .grads
                .entry(HEAD)
                .or_insert_with(|| vec![0.0; head.len()]);
            let (_, dx) = head_loss_backward(
                &self.cfg,
                head,
                &hs.ctx,
                &hs.logits,
                &targets,
                head_grads,
                scale,
                &self.scratch,
            );
            dx
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

    pub(super) fn exec_bwd_full(&mut self, mb: usize, chunk: usize, needs: &[MsgKey]) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let mut dy = self.upstream_dy(mb, chunk);
        let mut dgrad = self.take_grads((chunk, RESIDENT));
        let w = &self.params[&self.resolve(needs, chunk)].weights;
        let saved = self
            .fwd_saved
            .remove(&(mb, chunk))
            .unwrap_or_else(|| panic!("rank {}: no fwd state for Bwd({mb},{chunk})", self.rank));
        for l in (0..self.lpc).rev() {
            let wl = &w[self.layer_range(l)];
            let dgl = &mut dgrad[self.layer_range(l)];
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
        self.grads.insert((chunk, RESIDENT), dgrad);
        self.downstream_dx(mb, chunk, dy);
    }

    pub(super) fn exec_bwd_data(&mut self, mb: usize, chunk: usize, needs: &[MsgKey]) {
        let g = self.setup.microbatch;
        let s = self.setup.seq;
        let mut dy = self.upstream_dy(mb, chunk);
        let w = &self.params[&self.resolve(needs, chunk)].weights;
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
            let wl = &w[self.layer_range(l)];
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

    pub(super) fn exec_bwd_weight(&mut self, mb: usize, chunk: usize) {
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
        let mut dgrad = self.take_grads((chunk, RESIDENT));
        for l in 0..self.lpc {
            let dgl = &mut dgrad[self.layer_range(l)];
            block_backward_weight(&self.cfg, &ctxs[l], &bctxs[l], dgl, g, s);
        }
        self.grads.insert((chunk, RESIDENT), dgrad);
    }

    pub(super) fn exec_update(&mut self, chunk: usize) {
        let key = self.resolve(&[], chunk);
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
        // Weights stay behind (the slot keeps serving local compute); every
        // other payload leaves its store with the message.
        let (grads, boundary);
        let payload: &[f32] = match k.kind {
            MsgKind::Weights => {
                let slot = self.params.get(&(k.chunk, k.mb)).unwrap_or_else(|| {
                    panic!(
                        "rank {}: sending unknown weight slot {:?}",
                        self.rank,
                        (k.chunk, k.mb)
                    )
                });
                &slot.weights
            }
            MsgKind::WeightGrads => {
                grads = self.take_grads((k.chunk, RESIDENT));
                &grads
            }
            MsgKind::Act | MsgKind::ActGrad => {
                boundary = self
                    .boundary
                    .remove(&(k.kind, k.mb, k.chunk))
                    .unwrap_or_else(|| panic!("rank {}: nothing to send for {k:?}", self.rank));
                &boundary
            }
        };
        self.comm.send(k.dst, tag_of(k), payload, self.setup.wire)
    }

    pub(super) fn exec_recv(&mut self, k: &MsgKey) -> Result<(), CommError> {
        let data = self.comm.recv(k.src, tag_of(k))?;
        self.store_payload(k, data);
        Ok(())
    }

    /// Post the receive for a message the schedule will wait on later
    /// (the irecv half of the double-buffered weight ring, §4.3). Never
    /// fails: faults surface at the matching [`Self::exec_waitreq`].
    pub(super) fn exec_prepost(&mut self, k: &MsgKey) {
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
    pub(super) fn exec_waitreq(&mut self, k: &MsgKey) -> Result<(), CommError> {
        let req = self
            .pending_reqs
            .remove(k)
            .unwrap_or_else(|| panic!("rank {}: wait without pre-post for {k:?}", self.rank));
        let data = self.comm.wait_recv(req)?;
        self.store_payload(k, data);
        Ok(())
    }

    /// Route a received payload into the store its kind lives in — the
    /// mirror of the lookup in [`Self::exec_send`].
    fn store_payload(&mut self, k: &MsgKey, data: Vec<f32>) {
        match k.kind {
            MsgKind::Weights => self.put_weights((k.chunk, k.mb), data),
            MsgKind::WeightGrads => self.accumulate((k.chunk, RESIDENT), data),
            MsgKind::Act | MsgKind::ActGrad => {
                // Copied into the arena, not adopted by it: the sender
                // allocates every message afresh, so adopting would grow
                // the receiver's pool by one buffer per message, forever.
                let buf = self.scratch.take_copy(&data);
                self.boundary.insert((k.kind, k.mb, k.chunk), buf);
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
        self.accumulate((chunk, SHARDED), own);
        // The gathered full-weight buffer is stale after updates; drop it so
        // the next iteration re-gathers.
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
