//! The parameter store and its snapshot round trip.
//!
//! Every weight copy a rank holds is one [`Param`] under a [`Key`]
//! `(chunk, flow)`; the embedding and the head are two more entries under
//! the `EMBED_HEAD` chunk. An entry is stepped in one place (`step`),
//! loaded from a snapshot in one (`snapshot_buf`) and made whole on every
//! rank in one (`whole`). Sharded or whole is read off the entry in two
//! places, `held_part` and `whole`, which are each other's inverse.

use super::{AssembledModel, RankRuntime};
use wp_comm::CommError;
use wp_nn::params::{init_block, init_embed, init_head};
use wp_nn::{ComponentState, TrainState};
use wp_optim::{MasterWeights, Optimizer};
use wp_sched::{weight_slot, MsgKey, Schedule, EMBED_HEAD, SHARDED};
use wp_tensor::DType;

/// Store key: `(chunk, flow)`.
pub(super) type Key = (usize, usize);
/// The replicated embedding table.
pub(super) const EMBED: Key = (EMBED_HEAD, 0);
/// The replicated output head.
pub(super) const HEAD: Key = (EMBED_HEAD, 1);

/// One weight copy: the working values, plus the fp32 master and optimizer
/// state once this rank has stepped it (or restored them).
#[derive(Default)]
pub(super) struct Param {
    pub(super) weights: Vec<f32>,
    opt: Option<(MasterWeights, Box<dyn Optimizer + Send>)>,
}

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

    /// Replace an entry's weights (a received or gathered copy), keeping
    /// whatever optimizer state the entry owns.
    pub(super) fn put_weights(&mut self, key: Key, weights: Vec<f32>) {
        self.params.entry(key).or_default().weights = weights;
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
    /// resuming, deterministic initial weights otherwise.
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
                self.held_part(key, whole)
            }
        };
        Param { weights, opt: None }
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
        self.params
            .get_mut(&key)
            .expect("restoring a held entry")
            .opt = Some((master, opt));
    }

    /// The one optimizer step: unscale `grads` in place, then step entry
    /// `key` through its fp32 master (captured on the entry's first step).
    pub(super) fn step(&mut self, key: Key, grads: &mut [f32]) {
        if self.setup.loss_scale != 1.0 {
            let inv = 1.0 / self.setup.loss_scale;
            for g in grads.iter_mut() {
                *g *= inv;
            }
        }
        let lr = self.setup.lr_at(self.iter);
        let (optim, wire) = (&self.setup.optim, self.setup.wire);
        let Param { weights, opt } = self.params.get_mut(&key).expect("stepping a held entry");
        let (master, opt) = opt.get_or_insert_with(|| {
            (
                MasterWeights::capture(weights, wire),
                optim.build(weights.len()),
            )
        });
        master.step_observed(opt.as_mut(), weights, grads, lr, self.comm.probe());
    }

    /// Where `chunk` is stepped: the root rank, whether the stepped entries
    /// are shards, and this rank's one (every rank holds a slice of a
    /// sharded chunk; only the root holds the stepped copy of any other).
    fn stepped(&self, schedule: &Schedule, chunk: usize) -> (usize, bool, Option<&Param>) {
        let root = schedule.updater_of(chunk);
        let sharded = schedule.seeds[root].contains(&(chunk, SHARDED));
        let mine = sharded || self.rank == root;
        (
            root,
            sharded,
            mine.then(|| &self.params[&self.resolve(&[], chunk)]),
        )
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
            let part = mine.map_or(Vec::new(), |entry| entry.weights.clone());
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
        let local = |entry: &Param| -> (u64, Vec<Vec<f32>>) {
            let (master, opt) = entry
                .opt
                .as_ref()
                .expect("capture requires a completed iteration");
            let (opt_t, opt_bufs) = opt.export_state();
            let mut bufs = vec![entry.weights.clone(), master.master().to_vec()];
            bufs.extend(opt_bufs);
            (opt_t, bufs)
        };
        // Which optimizer buffers are on follows from the configuration, so
        // a rank with no state for a chunk knows what the root will send.
        let (_, shape) = self.setup.optim.build(1).export_state();
        let mut blocks: Vec<ComponentState> = Vec::with_capacity(self.cfg.layers);
        for chunk in 0..self.chunks {
            let (root, sharded, mine) = self.stepped(schedule, chunk);
            let (mut opt_t, mut bufs) = mine.map_or((0, vec![Vec::new(); 2 + shape.len()]), local);
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
            let (opt_t, bufs) = local(&self.params[&key]);
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
