//! The parameter store and its snapshot round trip.
//!
//! Every weight slot a rank holds is one [`Param`] under a [`Key`]
//! `(chunk, flow)`, the slots the validator's walk holds; the embedding and
//! the head are two more entries under the `EMBED_HEAD` chunk. A block copy
//! lives from the op that writes it to its last read before the next write
//! ([`wp_sched::analysis::weight_lives`]): then `retire` puts its buffer in
//! the rank's chunk pool. Every whole-chunk f32 buffer a rank holds comes
//! from that pool, or takes a pooled buffer's place (`put_weights`): each
//! copy that lands later, each block gradient accumulator a backward
//! starts (`take_grads`) and each one a `D` lands in when it arrives
//! first (`recv_grads`). A sent accumulator and FSDP's padded reduce-scatter
//! input go back to the pool; the accumulator an `Update` consumes is
//! freed, so no buffer idles there through the forward passes before the
//! next backward. The slot keeps the frame a copy arrived in until the
//! slot's next write. A copy whose values nothing reads before it is
//! relayed or overwritten holds only that frame. The fp32 master and
//! optimizer state of an entry outlive its copies, under the key it is
//! stepped at. An entry is stepped in one place (`step`), loaded from a
//! snapshot in one (`snapshot_buf`) and made whole on every rank in one
//! (`whole`). Sharded or whole is read off the entry in two places,
//! `held_part` and `whole`, which are each other's inverse. Its weights
//! are written in three places, `step`, `put_weights` and `recv_weights`,
//! and each drops or replaces the wire form a relay ships.

use super::{AssembledModel, RankRuntime};
use wp_comm::{CommError, Landing, Wire};
use wp_nn::params::{init_block, init_embed, init_head};
use wp_nn::{ComponentState, TrainState};
use wp_optim::{MasterWeights, Optimizer};
use wp_sched::analysis::Fate;
use wp_sched::{weight_slot, MsgKey, Schedule, EMBED_HEAD, FLOW_BWD, FLOW_FWD, SHARDED};
use wp_tensor::dtype::quantize_slice;
use wp_tensor::DType;

/// Store key: `(chunk, flow)`.
pub(super) type Key = (usize, usize);
/// The replicated embedding table.
pub(super) const EMBED: Key = (EMBED_HEAD, 0);
/// The replicated output head.
pub(super) const HEAD: Key = (EMBED_HEAD, 1);

/// One weight copy: the working values, and the frame they arrived in.
#[derive(Default)]
pub(super) struct Param {
    /// Empty once the copy has died, or when nothing reads the values
    /// before it does: the frame in `kept` is then all the rank holds.
    pub(super) weights: Vec<f32>,
    /// The verified frame `weights` landed from, while they are unchanged
    /// since: what a `Send` of them relays instead of packing them anew.
    pub(super) kept: Option<Wire>,
}

/// An entry's fp32 master and optimizer, from its first step (or restore).
pub(super) type Stepper = (MasterWeights, Box<dyn Optimizer + Send>);

/// `[weights, master, optimizer buffers..]` as a [`ComponentState`].
fn component(opt_t: u64, bufs: impl IntoIterator<Item = Vec<f32>>) -> ComponentState {
    let mut bufs = bufs.into_iter();
    ComponentState {
        weights: bufs.next().expect("weights"),
        master: bufs.next().expect("master"),
        opt_t,
        opt_bufs: bufs.collect(),
    }
}

impl RankRuntime {
    /// Resolve the entry a compute op on `chunk` reads.
    pub(super) fn resolve(&self, needs: &[MsgKey], chunk: usize) -> Key {
        weight_slot(needs, chunk, |key| self.params.contains_key(key)).unwrap_or_else(|| {
            panic!(
                "rank {}: no weight slot for chunk {chunk} (have {:?})",
                self.rank,
                self.params.keys().collect::<Vec<_>>()
            )
        })
    }

    /// The copy in `key` dies: its buffer joins the chunk pool. Its frame
    /// stays in the slot until the slot's next write: the endpoint's wire
    /// pool keeps P idle buffers, enough for frames that come back then,
    /// and at P = 2 one handed back at the copy's death finds it full.
    pub(super) fn retire(&mut self, key: Key) {
        if let Some(copy) = self.params.get_mut(&key) {
            let buf = std::mem::take(&mut copy.weights);
            self.pool_buffer(buf);
        }
    }

    /// Put `buf` in the chunk pool, unless it holds no allocation.
    pub(super) fn pool_buffer(&mut self, buf: Vec<f32>) {
        if buf.capacity() > 0 {
            self.pool.push(buf);
        }
    }

    /// Make `weights`, a buffer from outside the pool (a gathered chunk, a
    /// local refresh), the copy in `key`. It takes the place of a pooled
    /// buffer, so the buffers held stay within the high-water.
    pub(super) fn put_weights(&mut self, key: Key, weights: Vec<f32>) {
        self.pool.pop();
        self.retire(key);
        let copy = Param {
            weights,
            kept: None,
        };
        self.params.insert(key, copy);
    }

    /// Receive a weight copy with `tag` from `src` into `key`, keeping the
    /// frame it arrived in. It lands in the slot's buffer, or one from the
    /// chunk pool, when `fate` says something reads its values: always for
    /// [`Fate::Read`], for [`Fate::Stepped`] until the entry has a master.
    /// Otherwise the frame is verified and kept as it arrived, and the
    /// slot's buffer, if any, goes back to the pool.
    pub(super) fn recv_weights(
        &mut self,
        key: Key,
        src: usize,
        tag: u64,
        fate: Fate,
    ) -> Result<(), CommError> {
        let lands = match fate {
            Fate::Read => true,
            Fate::Stepped => !self.optim.contains_key(&key),
            Fate::Passed => false,
        };
        // Dropped before the receive, so the old frame and the new one are
        // never held at once.
        let old = self.params.remove(&key);
        let mut weights = old.map(|copy| copy.weights).unwrap_or_default();
        if !lands {
            self.pool_buffer(std::mem::take(&mut weights));
        } else if weights.capacity() == 0 {
            weights = self.pool.pop().unwrap_or_default();
        }
        let landing = match lands {
            true => Landing::Replace(&mut weights),
            false => Landing::Keep,
        };
        let kept = Some(self.comm.recv_into(src, tag, landing)?);
        self.params.insert(key, Param { weights, kept });
        Ok(())
    }

    /// Receive a `D` with `tag` from `src` into the accumulator at `key`:
    /// added in when the rank has one, else landed bit for bit in a buffer
    /// from the chunk pool, which becomes the accumulator.
    pub(super) fn recv_grads(&mut self, key: Key, src: usize, tag: u64) -> Result<(), CommError> {
        if let Some(acc) = self.grads.get_mut(&key) {
            return self.comm.recv_into(src, tag, Landing::Add(acc)).map(drop);
        }
        let mut acc = self.pool.pop().unwrap_or_default();
        self.comm.recv_into(src, tag, Landing::Replace(&mut acc))?;
        self.grads.insert(key, acc);
        Ok(())
    }

    /// What this rank holds of a whole buffer of entry `key`: its `1/P`
    /// slice, zero-padded past the end, when the entry is sharded; all of
    /// it otherwise. An optimizer buffer that is off stays empty.
    fn held_part(&self, key: Key, whole: Vec<f32>) -> Vec<f32> {
        if key.1 != SHARDED || whole.is_empty() {
            return whole;
        }
        let mut shard = vec![0.0f32; self.shard_len];
        let start = self.rank * self.shard_len;
        if start < whole.len() {
            let end = (start + self.shard_len).min(whole.len());
            shard[..end - start].copy_from_slice(&whole[start..end]);
        }
        shard
    }

    /// The inverse of [`held_part`](Self::held_part), as a collective: every
    /// rank's slice of a sharded entry is all-gathered (and the padding cut
    /// back off); any other entry is broadcast from `root`, the rank that
    /// steps it, and `part` is empty elsewhere. Exact: the wire is f32.
    fn whole(
        &mut self,
        sharded: bool,
        root: usize,
        mut part: Vec<f32>,
    ) -> Result<Vec<f32>, CommError> {
        if sharded {
            let mut full = self.comm.all_gather(&part, DType::F32)?;
            full.truncate(self.lpc * self.block_len);
            Ok(full)
        } else {
            self.comm.broadcast(root, &mut part, DType::F32)?;
            Ok(part)
        }
    }

    /// The snapshot layers entry `key` is the concatenation of.
    fn layers_of<'a>(&self, key: Key, st: &'a TrainState) -> &'a [ComponentState] {
        match key {
            EMBED => std::slice::from_ref(&st.embed),
            HEAD => std::slice::from_ref(&st.head),
            (chunk, _) => &st.blocks[chunk * self.lpc..(chunk + 1) * self.lpc],
        }
    }

    /// One buffer of entry `key` out of a snapshot: its layers' buffers
    /// re-concatenated into this world's chunking, cut to this rank's part.
    fn snapshot_buf(
        &self,
        key: Key,
        st: &TrainState,
        buf: impl Fn(&ComponentState) -> &Vec<f32>,
    ) -> Vec<f32> {
        let layers = self.layers_of(key, st);
        let mut whole = Vec::with_capacity(layers.iter().map(|l| buf(l).len()).sum());
        for layer in layers {
            whole.extend_from_slice(buf(layer));
        }
        self.held_part(key, whole)
    }

    /// The entry `key` starts an epoch with: the snapshot's weights when
    /// resuming, deterministic initial weights otherwise — in the wire's
    /// precision when copies of the entry travel (a ring flow, a shard),
    /// so that the seed holder computes on the values every other rank
    /// receives.
    pub(super) fn initial(&self, key: Key) -> Param {
        let weights = match self.setup.resume.as_deref() {
            Some(st) => self.snapshot_buf(key, st, |l| &l.weights),
            None => {
                let (cfg, seed) = (&self.cfg, self.setup.seed);
                let whole = match key {
                    EMBED => init_embed(cfg, seed),
                    HEAD => init_head(cfg, seed),
                    (chunk, _) => {
                        let mut whole = Vec::with_capacity(self.lpc * self.block_len);
                        for layer in chunk * self.lpc..(chunk + 1) * self.lpc {
                            whole.extend(init_block(cfg, seed, layer));
                        }
                        whole
                    }
                };
                let mut part = self.held_part(key, whole);
                if matches!(key.1, FLOW_FWD | FLOW_BWD | SHARDED) {
                    quantize_slice(&mut part, self.setup.wire);
                }
                part
            }
        };
        Param {
            weights,
            kept: None,
        }
    }

    /// Give entry `key` the fp32 master and optimizer moments the resume
    /// snapshot holds for it.
    pub(super) fn restore_opt(&mut self, key: Key) {
        let st = self.setup.resume.as_deref().expect("resuming");
        let master = self.snapshot_buf(key, st, |l| &l.master);
        let first = &self.layers_of(key, st)[0];
        let bufs: Vec<Vec<f32>> = (0..first.opt_bufs.len())
            .map(|i| self.snapshot_buf(key, st, |l| &l.opt_bufs[i]))
            .collect();
        let mut opt = self.setup.optim.build(master.len());
        opt.import_state(first.opt_t, &bufs)
            .expect("snapshot optimizer state must fit the configured optimizer");
        let master = MasterWeights::from_master(master, self.setup.wire);
        self.optim.insert(key, (master, opt));
    }

    /// The one optimizer step: unscale `grads` in place, then step entry
    /// `key` through its fp32 master (captured on the entry's first step)
    /// into its copy, which takes a pooled buffer when the values it
    /// arrived with were not landed.
    pub(super) fn step(&mut self, key: Key, grads: &mut [f32]) {
        if self.setup.loss_scale != 1.0 {
            let inv = 1.0 / self.setup.loss_scale;
            for g in grads.iter_mut() {
                *g *= inv;
            }
        }
        let lr = self.setup.lr_at(self.iter);
        let (optim, wire) = (&self.setup.optim, self.setup.wire);
        let copy = self.params.get_mut(&key).expect("stepping a held entry");
        copy.kept = None;
        let (master, opt) = self.optim.entry(key).or_insert_with(|| {
            (
                MasterWeights::capture(&copy.weights, wire),
                optim.build(copy.weights.len()),
            )
        });
        if copy.weights.is_empty() {
            copy.weights = self.pool.pop().unwrap_or_default();
            copy.weights.resize(master.master().len(), 0.0);
        }
        master.step_observed(
            opt.as_mut(),
            &mut copy.weights,
            grads,
            lr,
            self.comm.probe(),
        );
    }

    /// Where `chunk` is stepped: the root rank, whether the stepped entries
    /// are shards, and this rank's one (every rank holds a slice of a
    /// sharded chunk; only the root holds the stepped copy of any other).
    fn stepped(&self, schedule: &Schedule, chunk: usize) -> (usize, bool, Option<Key>) {
        let root = schedule.updater_of(chunk);
        let sharded = schedule.seeds[root].contains(&(chunk, SHARDED));
        let mine = sharded || self.rank == root;
        (root, sharded, mine.then(|| self.resolve(&[], chunk)))
    }

    /// Range of layer `l` within a whole chunk buffer.
    pub(super) fn layer_range(&self, l: usize) -> std::ops::Range<usize> {
        l * self.block_len..(l + 1) * self.block_len
    }

    /// Assemble the full updated model on every rank (each chunk made
    /// whole from the rank that steps it, or from every rank's shard) as
    /// `(embed, blocks, head)`.
    ///
    /// # Errors
    /// Propagates any [`CommError`] from the assembly collectives.
    pub fn assemble(&mut self, schedule: &Schedule) -> Result<AssembledModel, CommError> {
        let mut blocks = Vec::with_capacity(self.cfg.layers);
        for chunk in 0..self.chunks {
            let (root, sharded, mine) = self.stepped(schedule, chunk);
            let part = mine.map_or(Vec::new(), |key| self.params[&key].weights.clone());
            let full = self.whole(sharded, root, part)?;
            blocks.extend((0..self.lpc).map(|l| full[self.layer_range(l)].to_vec()));
        }
        Ok((
            self.params[&EMBED].weights.clone(),
            blocks,
            self.params[&HEAD].weights.clone(),
        ))
    }

    /// Capture a full [`TrainState`] snapshot at an iteration boundary: the
    /// model weights, fp32 masters, and optimizer moments of every chunk,
    /// split to per-*layer* [`ComponentState`]s so the snapshot re-shards
    /// onto any world size that divides the layer count. This is a
    /// collective (each chunk is made whole from the rank that steps it, or
    /// from every rank's shard), and every rank returns the bit-identical
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
        // An entry as `(step count, [weights, master, optimizer buffers..])`.
        let local = |rt: &Self, key: Key| -> (u64, Vec<Vec<f32>>) {
            let (master, opt) =
                (rt.optim.get(&key)).expect("capture requires a completed iteration");
            let (opt_t, opt_bufs) = opt.export_state();
            let mut bufs = vec![rt.params[&key].weights.clone(), master.master().to_vec()];
            bufs.extend(opt_bufs);
            (opt_t, bufs)
        };
        // Which optimizer buffers are on follows from the configuration, so
        // a rank with no state for a chunk knows what the root will send.
        let (_, shape) = self.setup.optim.build(1).export_state();
        let mut blocks: Vec<ComponentState> = Vec::with_capacity(self.cfg.layers);
        for chunk in 0..self.chunks {
            let (root, sharded, mine) = self.stepped(schedule, chunk);
            let (mut opt_t, mut bufs) = mine.map_or_else(
                || (0, vec![Vec::new(); 2 + shape.len()]),
                |key| local(self, key),
            );
            for (i, buf) in bufs.iter_mut().enumerate() {
                if i < 2 || !shape[i - 2].is_empty() {
                    *buf = self.whole(sharded, root, std::mem::take(buf))?;
                }
            }
            if !sharded {
                // Only the root knows the step count. It travels as three
                // 24-bit limbs: each is exact in an f32, the count is not.
                const LIMB: u64 = (1 << 24) - 1;
                let mut limbs = [opt_t & LIMB, (opt_t >> 24) & LIMB, opt_t >> 48]
                    .map(|limb| limb as f32)
                    .to_vec();
                self.comm.broadcast(root, &mut limbs, DType::F32)?;
                opt_t = limbs.iter().rev().fold(0, |t, &l| (t << 24) | l as u64);
            }
            for l in 0..self.lpc {
                let layer = bufs.iter().map(|b| match b.is_empty() {
                    true => Vec::new(), // a buffer that is off is empty at every level
                    false => b[self.layer_range(l)].to_vec(),
                });
                blocks.push(component(opt_t, layer));
            }
        }
        // Embed and head are whole, and stepped identically, on every rank.
        let whole_local = |key: Key| {
            let (opt_t, bufs) = local(self, key);
            component(opt_t, bufs)
        };
        let state = TrainState {
            config: self.cfg.clone(),
            seed: self.setup.seed,
            next_iter,
            loss_scale: self.setup.loss_scale,
            embed: whole_local(EMBED),
            head: whole_local(HEAD),
            blocks,
        };
        debug_assert!(state.validate().is_ok(), "captured state must validate");
        Ok(state)
    }
}
