//! Schedule builders: every strategy compiled to the [`crate::ir`] IR.
//!
//! The WeiPipe family (naive, interleaved, WZB1/WZB2) is built on one ring
//! algebra, documented in [`weipipe`]; the activation-passing baselines
//! (GPipe, 1F1B, ZB1, ZB2) share one stage-pipeline skeleton; FSDP and DDP
//! are collective-based. Builders only decide *what happens in which order
//! on which rank* — byte counts, timing and memory sizing live in
//! `wp-sim` / `analysis`.

use crate::ir::{
    MemUnit, MsgKey, MsgKind, Op, OpKind, Schedule, Strategy, FLOW_BWD, FLOW_FWD, NO_MB, RESIDENT,
    SHARDED,
};

pub use weipipe::weipipe_mb_owner;

/// Every strategy the builders know, in the order the paper tables use.
pub const ALL_STRATEGIES: &[Strategy] = &[
    Strategy::GPipe,
    Strategy::OneFOneB,
    Strategy::Zb1,
    Strategy::Zb2,
    Strategy::Fsdp,
    Strategy::Ddp,
    Strategy::WeiPipeNaive,
    Strategy::WeiPipeInterleave,
    Strategy::Wzb1,
    Strategy::Wzb2,
    Strategy::WeiPipeHier,
];

/// What every builder needs to know about the run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// World size `P`. The pipeline/ring strategies divide the model into
    /// exactly `P` chunks; FSDP and DDP default to `P` but accept a
    /// [`Self::with_chunks`] override.
    pub ranks: usize,
    /// Microbatches per iteration `N`.
    pub microbatches: usize,
    /// Activation checkpointing: save only chunk inputs and recompute in
    /// backward. Split-backward strategies (ZB/WZB) force this off — the
    /// deferred W pass needs the full forward context.
    pub recompute: bool,
    /// Double-buffered weight movement (paper §4.3): the ring builders emit
    /// explicit [`OpKind::PrePost`]/[`OpKind::WaitReq`] pairs so round
    /// `t+1`'s weight/grad transfers are posted before round `t`'s compute
    /// and waited on only at the round boundary. Off falls back to blocking
    /// `Recv` ops at the top of each turn. Only affects the weight-passing
    /// ring schedules; results are bit-identical either way.
    pub overlap: bool,
    /// W-pass lag for the split-backward schedules: how many B passes may
    /// run ahead of their deferred W pass. `None` keeps the strategy
    /// default (2 for ZB1 — the ZB-H1 shape — and `P/2` for WZB1). Larger
    /// lags fill more bubble at the price of holding more B contexts; the
    /// autotuner sweeps this dimension. Ignored by non-split strategies.
    pub w_lag: Option<usize>,
    /// Chunk-count override for the collective strategies (FSDP, DDP):
    /// how many pieces the model is gathered/reduced in. `None` keeps the
    /// default of `P`. Coarser chunks amortize collective latency; finer
    /// chunks shrink the transient gathered-weights footprint. Ignored by
    /// the pipeline/ring strategies, whose chunk count is structurally `P`.
    pub chunks: Option<usize>,
    /// Group size for the hierarchical WeiPipe schedule: each group of
    /// `group` consecutive ranks runs its own interleaved weight ring
    /// (ideally one NVLink island per group), with gradients reconciled
    /// across groups through bridge ranks. Must divide `ranks` and be ≥ 2.
    /// `None` means one group of all `ranks` — the flat ring. Ignored by
    /// every other strategy.
    pub group: Option<usize>,
}

impl PipelineSpec {
    /// A spec with activation checkpointing on (the paper's long-context
    /// default), double-buffered weight movement enabled, and default
    /// W-lag / chunking.
    pub fn new(ranks: usize, microbatches: usize) -> Self {
        PipelineSpec {
            ranks,
            microbatches,
            recompute: true,
            overlap: true,
            w_lag: None,
            chunks: None,
            group: None,
        }
    }

    /// The same spec with activation checkpointing off.
    pub fn without_recompute(mut self) -> Self {
        self.recompute = false;
        self
    }

    /// Enable or disable double-buffered weight movement.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Override the split-backward W-pass lag (ZB1 / WZB1).
    pub fn with_w_lag(mut self, lag: usize) -> Self {
        self.w_lag = Some(lag);
        self
    }

    /// Override the collective chunk count (FSDP / DDP).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = Some(chunks);
        self
    }

    /// Set the hierarchical group size (WeiPipe-Hier).
    pub fn with_group(mut self, group: usize) -> Self {
        self.group = Some(group);
        self
    }
}

/// Build the schedule for `strategy` under `spec`.
///
/// # Panics
/// Panics when the strategy's divisibility constraints are violated
/// (weight-passing, FSDP and DDP need `N % P == 0`; WZB1 needs even `P`).
pub fn build(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    match strategy {
        Strategy::WeiPipeNaive | Strategy::WeiPipeInterleave | Strategy::Wzb1 | Strategy::Wzb2 => {
            weipipe::build_ring(strategy, spec)
        }
        Strategy::WeiPipeHier => weipipe::build_hier(spec),
        Strategy::GPipe | Strategy::OneFOneB | Strategy::Zb1 | Strategy::Zb2 => {
            build_act_pipe(strategy, spec)
        }
        Strategy::Fsdp => build_fsdp(spec),
        Strategy::Ddp => build_ddp(spec),
    }
}

/// `x mod p` for possibly-negative `x`.
fn wrap(x: isize, p: usize) -> usize {
    x.rem_euclid(p as isize) as usize
}

/// The WeiPipe ring algebra (paper §4.2).
///
/// Two weight flows circulate rank `r → r+1` in lockstep, one ring hop per
/// *turn* `t`:
///
/// * **Forward flow** (`mb = `[`FLOW_FWD`]): at turn `t` rank `r` holds
///   chunk `wrap(t - r)`. Seeded so rank `r` starts with chunk
///   `(P - r) % P`; after `hf = (N/P + 1)·P` hops every chunk is back at
///   its owner `(P - c) % P`, which runs its optimizer update.
/// * **Backward flow** (`mb = `[`FLOW_BWD`]): at turn `t` rank `r` holds
///   chunk `wrap(r - offset - t)`, where `offset` is 1 for the interleaved
///   schedule (backward trails forward by one pipeline depth) and 2 for the
///   naive schedule (backward starts only after all forwards). The chunk's
///   gradient buffer `D` travels alongside and is drained into the ring on
///   every hop.
///
/// What each rank holds at turn 0 leaves this module as
/// [`Schedule::seeds`]: the forward seed is the copy its own rank's `Update`
/// steps, the backward seed sits `offset` ranks off the owner and goes
/// stale ([`Schedule::refreshes`]). No other module knows `offset`.
///
/// Rank `r` computes on whatever the flows deliver: microbatch groups are
/// assigned so `r` always works on microbatches `mb ≡ r (mod P)` — see
/// [`weipipe_mb_owner`] — which is what makes compute perfectly balanced
/// and the traffic independent of sequence length and microbatch size.
pub mod weipipe {
    use super::*;

    /// Which rank computes microbatch `mb` in a WeiPipe schedule.
    pub fn weipipe_mb_owner(ranks: usize, mb: usize) -> usize {
        mb % ranks
    }

    /// Shared ring builder for all four weight-passing schedules.
    pub(super) fn build_ring(strategy: Strategy, spec: PipelineSpec) -> Schedule {
        let p = spec.ranks;
        let n = spec.microbatches;
        assert!(p >= 2, "weight-passing ring needs at least 2 ranks");
        assert!(
            n.is_multiple_of(p),
            "WeiPipe needs microbatches ({n}) divisible by ranks ({p})"
        );
        let nl = n / p; // microbatch groups ("loops" of the ring)
        let naive = strategy == Strategy::WeiPipeNaive;
        let split = matches!(strategy, Strategy::Wzb1 | Strategy::Wzb2);
        if strategy == Strategy::Wzb1 {
            assert!(p.is_multiple_of(2), "WZB1 requires even P by construction");
        }
        let wzb1_lag = spec.w_lag.unwrap_or(p / 2);
        let offset = if naive { 2 } else { 1 };
        // Split-backward keeps full forward contexts for the W pass.
        let recompute = spec.recompute && !split;
        let ctx = if recompute {
            MemUnit::CkptInput
        } else {
            MemUnit::FwdCtx
        };

        // Ring horizon: forward flow runs hf hops (back to its owner);
        // backward flow runs hb hops (gradients land one rank short of the
        // owner and are delivered point-to-point at the end).
        let hf = (nl + 1) * p;
        let hb = if naive {
            2 * (nl + 1) * p - 3
        } else {
            (nl + 2) * p - 2
        };

        // Chunk held by rank r at turn t, per flow.
        let wf = |r: usize, t: usize| wrap(t as isize - r as isize, p);
        let wb = |r: usize, t: usize| wrap(r as isize - offset as isize - t as isize, p);

        let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
        for (r, stream) in ops.iter_mut().enumerate() {
            let prev = wrap(r as isize - 1, p);
            let next = wrap(r as isize + 1, p);
            // WZB deferred W passes waiting to run on this rank.
            let mut w_queue: std::collections::VecDeque<(usize, usize)> =
                std::collections::VecDeque::new();
            for t in 0..=hb {
                let fwd_in = MsgKey {
                    kind: MsgKind::Weights,
                    chunk: wf(r, t),
                    mb: FLOW_FWD,
                    round: t.wrapping_sub(1),
                    src: prev,
                    dst: r,
                };
                let bwd_in = MsgKey {
                    kind: MsgKind::Weights,
                    chunk: wb(r, t),
                    mb: FLOW_BWD,
                    round: t.wrapping_sub(1),
                    src: prev,
                    dst: r,
                };
                let d_in = MsgKey {
                    kind: MsgKind::WeightGrads,
                    mb: NO_MB,
                    ..bwd_in
                };
                let fwd_out = MsgKey {
                    kind: MsgKind::Weights,
                    chunk: wf(r, t),
                    mb: FLOW_FWD,
                    round: t,
                    src: r,
                    dst: next,
                };
                let w_out = MsgKey {
                    kind: MsgKind::Weights,
                    chunk: wb(r, t),
                    mb: FLOW_BWD,
                    round: t,
                    src: r,
                    dst: next,
                };
                let d_out = MsgKey {
                    kind: MsgKind::WeightGrads,
                    mb: NO_MB,
                    ..w_out
                };
                // The seeded chunks of turn 0 depart with nothing to wait for.
                let seed_send = |key: MsgKey| Op {
                    kind: OpKind::Send(key),
                    needs: Vec::new(),
                    after_compute: false,
                    mem: Vec::new(),
                };

                // 1. This turn's ring arrivals. Blocking mode receives them
                //    all here, so each turn pays its transfers in sequence
                //    with its compute; overlap mode instead redeems requests
                //    pre-posted one turn earlier, waiting for each flow only
                //    at the point its payload is first consumed.
                if t >= 1 {
                    if spec.overlap {
                        if t <= hf {
                            stream.push(Op::wait_req(fwd_in));
                        }
                    } else {
                        if t <= hf {
                            stream.push(Op::recv(fwd_in));
                        }
                        stream.push(Op::recv(bwd_in));
                        stream.push(Op::recv(d_in));
                    }
                }

                // 1b. Overlap mode (§4.3 double buffering): the forward-flow
                //     chunk relays onward the moment it lands — its next hop
                //     streams while this rank computes — and the receive
                //     requests for round t+1 are posted before any of round
                //     t's compute starts.
                if spec.overlap {
                    if t < hf {
                        stream.push(if t == 0 {
                            seed_send(fwd_out)
                        } else {
                            Op::forward_send(fwd_out, fwd_in)
                        });
                    }
                    if t < hf {
                        stream.push(Op::pre_post(MsgKey {
                            chunk: wf(r, t + 1),
                            round: t,
                            ..fwd_in
                        }));
                    }
                    if t < hb {
                        stream.push(Op::pre_post(MsgKey {
                            chunk: wb(r, t + 1),
                            round: t,
                            ..bwd_in
                        }));
                        stream.push(Op::pre_post(MsgKey {
                            chunk: wb(r, t + 1),
                            round: t,
                            ..d_in
                        }));
                    }
                }

                // 2. Forward compute: group g of this rank's microbatches
                //    meets chunk c on turn t = r + g·P + c.
                if t >= r {
                    let k = t - r;
                    if k < nl * p {
                        let mb = (k / p) * p + r;
                        let chunk = k % p;
                        debug_assert_eq!(chunk, wf(r, t));
                        let mut op = Op::compute(OpKind::Fwd { mb, chunk }).mem(ctx, 1);
                        if t >= 1 {
                            op = op.needs(fwd_in);
                        }
                        stream.push(op);
                    }
                }

                // 2b. Overlap mode: the backward flow (weights + gradient
                //     accumulator) is waited on only now, after the forward
                //     compute it was hiding under, and the weight half
                //     relays onward before the local backward uses it.
                //     (The gradient half cannot leave yet — the backward
                //     below still accumulates into it.)
                if spec.overlap {
                    if t >= 1 {
                        stream.push(Op::wait_req(bwd_in));
                        stream.push(Op::wait_req(d_in));
                    }
                    if t < hb {
                        stream.push(if t == 0 {
                            seed_send(w_out)
                        } else {
                            Op::forward_send(w_out, bwd_in)
                        });
                    }
                }

                // 3. Backward compute on the trailing flow.
                let bk = if naive {
                    (t as isize) - (r as isize + ((nl + 1) * p) as isize - 1)
                } else {
                    (t as isize) - (r as isize + p as isize)
                };
                if bk >= 0 && (bk as usize) < nl * p {
                    let k = bk as usize;
                    let mb = (k / p) * p + r;
                    let chunk = p - 1 - (k % p);
                    debug_assert_eq!(chunk, wb(r, t));
                    let kind = if split {
                        OpKind::BwdData { mb, chunk }
                    } else {
                        OpKind::BwdFull { mb, chunk }
                    };
                    let mut op = Op::compute(kind).needs(bwd_in);
                    op = if split {
                        op.mem(MemUnit::BCtx, 1)
                    } else {
                        op.mem(ctx, -1)
                    };
                    stream.push(op);
                    if split {
                        w_queue.push_back((mb, chunk));
                        // WZB1 bounds in-flight B contexts (default P/2,
                        // tunable via `w_lag`); WZB2 defers every W pass to
                        // the end of the iteration.
                        if strategy == Strategy::Wzb1 && w_queue.len() > wzb1_lag {
                            let (wmb, wchunk) = w_queue.pop_front().expect("non-empty");
                            stream.push(
                                Op::compute(OpKind::BwdWeight {
                                    mb: wmb,
                                    chunk: wchunk,
                                })
                                .mem(MemUnit::FwdCtx, -1)
                                .mem(MemUnit::BCtx, -1),
                            );
                        }
                    }
                }

                // 4. Remaining ring departures for this turn. Blocking mode
                //    relays both weight flows here — round-synchronous, after
                //    this rank's compute for the turn, which is what gives
                //    the ring its serialized compute+comm cost. Overlap mode
                //    already relayed the weights above; only the gradient
                //    chunk departs here, in both modes, because it must carry
                //    the local backward's contribution (every variant).
                if !spec.overlap && t < hf {
                    if t == 0 {
                        stream.push(seed_send(fwd_out));
                    } else {
                        stream.push(Op::send(fwd_out).needs(fwd_in));
                    }
                }
                if t < hb {
                    if !spec.overlap {
                        if t == 0 {
                            stream.push(seed_send(w_out));
                        } else {
                            // Backward weights relay one hop per round as
                            // well; what the interleaved schedule removes vs
                            // naive is the second full circulation (hb is
                            // ~half as many rounds), not the per-hop pacing
                            // (§4.2.2).
                            stream.push(Op::send(w_out).needs(bwd_in));
                        }
                    }
                    let mut op = Op::send(d_out);
                    if t >= 1 {
                        op = op.needs(d_in);
                    }
                    stream.push(op);
                }
            }

            // WZB2: flush every deferred W pass.
            for (wmb, wchunk) in w_queue.drain(..) {
                stream.push(
                    Op::compute(OpKind::BwdWeight {
                        mb: wmb,
                        chunk: wchunk,
                    })
                    .mem(MemUnit::FwdCtx, -1)
                    .mem(MemUnit::BCtx, -1),
                );
            }

            // Gradient delivery: after hb hops, chunk c's gradients sit at
            // rank (c - 1) % P; ship them to the updating rank.
            let holder = |c: usize| wrap(c as isize + offset as isize + hb as isize, p);
            let updater = |c: usize| {
                if strategy == Strategy::Wzb2 {
                    p - 1 // WZB2 parks all optimizer state on the last rank
                } else {
                    wrap(-(c as isize), p)
                }
            };
            let d_at_hb = |c: usize, at: usize| MsgKey {
                kind: MsgKind::WeightGrads,
                chunk: c,
                mb: NO_MB,
                round: hb - 1,
                src: wrap(at as isize - 1, p),
                dst: at,
            };
            for c in 0..p {
                if holder(c) == r && updater(c) != r {
                    debug_assert_eq!(holder(c), wrap(c as isize - 1, p));
                    stream.push(
                        Op::send(MsgKey {
                            kind: MsgKind::WeightGrads,
                            chunk: c,
                            mb: NO_MB,
                            round: hb,
                            src: r,
                            dst: updater(c),
                        })
                        .needs(d_at_hb(c, r)),
                    );
                }
            }
            for c in 0..p {
                if updater(c) != r {
                    continue;
                }
                let grads_ready = if holder(c) == r {
                    d_at_hb(c, r)
                } else {
                    let delivery = MsgKey {
                        kind: MsgKind::WeightGrads,
                        chunk: c,
                        mb: NO_MB,
                        round: hb,
                        src: holder(c),
                        dst: r,
                    };
                    stream.push(Op::recv(delivery));
                    delivery
                };
                let mut op = Op::compute(OpKind::Update { chunk: c }).needs(grads_ready);
                if strategy != Strategy::Wzb2 {
                    // The forward flow returned this chunk's weights home on
                    // its final hop; the update mutates that buffer.
                    op = op.needs(MsgKey {
                        kind: MsgKind::Weights,
                        chunk: c,
                        mb: FLOW_FWD,
                        round: hf - 1,
                        src: prev,
                        dst: r,
                    });
                }
                stream.push(op);
            }
        }

        Schedule {
            strategy,
            ranks: p,
            chunks: p,
            microbatches: n,
            ops,
            initial_holder: (0..p).map(|c| (p - c) % p).collect(),
            seeds: (0..p)
                .map(|r| vec![(wf(r, 0), FLOW_FWD), (wb(r, 0), FLOW_BWD)])
                .collect(),
            recompute,
        }
    }

    /// Hierarchical (TawPipe-style) grouped WeiPipe.
    ///
    /// The world's `P` ranks are split into `P / g` groups of `g`
    /// consecutive ranks — ideally one NVLink island per group. Each group
    /// runs the interleaved flat ring of [`build_ring`] over a **full model
    /// replica sharded `g` ways** (intra-group weight sharding: `chunks = g`,
    /// so every weight-flow hop rides a fast intra-group link), processing
    /// the microbatches whose owner rank lives in the group. The only
    /// traffic that crosses groups is the end-of-iteration gradient
    /// reconciliation:
    ///
    /// 1. **Gather** — each per-chunk updater hands its accumulated
    ///    gradient chunk to the group's designated *bridge rank* (the last
    ///    rank of the group, elected to match [`build_ring`]'s outgoing ring
    ///    hop) over intra-group links.
    /// 2. **Circulate** — per chunk, the bridges ring-**reduce** the `G`
    ///    partial gradients to the chunk's owner bridge (`G − 1` hops
    ///    carrying running partial sums), then ring-**broadcast** the full
    ///    sum back around (`G − 1` more hops) — the classic all-reduce
    ///    message count, `2 · (G − 1)` hops per chunk and `2 · (G − 1) · g`
    ///    messages in total. These are the *only* sends whose endpoints sit
    ///    in different groups.
    /// 3. **Fan out** — each bridge broadcasts the reduced gradients back to
    ///    its group's per-chunk updaters over intra-group links, and the
    ///    updaters run their optimizer step against the group replica.
    ///
    /// Versus the flat ring — which pushes two weight flows plus the grad
    /// chunk across every node boundary on every one of its `~(N/P + 2)·P`
    /// turns — cross-node bytes per iteration shrink by roughly the group
    /// size, at the cost of each rank holding `1/g` of the model instead of
    /// `1/P` (the replica memory TawPipe trades for slow-link traffic).
    ///
    /// `group == None` (or `group == P`) degenerates to a single flat ring.
    pub(super) fn build_hier(spec: PipelineSpec) -> Schedule {
        let p = spec.ranks;
        let n = spec.microbatches;
        let g = spec.group.unwrap_or(p);
        assert!(g >= 2, "hierarchical groups need at least 2 ranks, got {g}");
        assert!(
            p.is_multiple_of(g),
            "group size ({g}) must divide ranks ({p})"
        );
        assert!(
            n.is_multiple_of(p),
            "WeiPipe-Hier needs microbatches ({n}) divisible by ranks ({p})"
        );
        let groups = p / g;
        let n_local = n / groups;

        // Each group runs the same interleaved local ring; build it once and
        // splice `groups` remapped copies into the world schedule.
        let local = build_ring(
            Strategy::WeiPipeInterleave,
            PipelineSpec {
                ranks: g,
                microbatches: n_local,
                w_lag: None,
                chunks: None,
                group: None,
                ..spec
            },
        );

        // Group j's local microbatch m is global microbatch
        // `(m % g) + j·g + (m / g)·P`: its owner rank is `j·g + (m % g)`,
        // so global ownership (`mb % P`) agrees with the local ring algebra
        // (`m % g`) and the groups partition `0..N` exactly.
        let remap_mb = |mb: usize, base: usize| -> usize {
            if mb < n_local {
                (mb % g) + base + (mb / g) * p
            } else {
                mb // FLOW_FWD / FLOW_BWD / NO_MB sentinels
            }
        };
        let remap_key = |k: &MsgKey, base: usize| MsgKey {
            kind: k.kind,
            chunk: k.chunk,
            mb: remap_mb(k.mb, base),
            round: k.round,
            src: k.src + base,
            dst: k.dst + base,
        };
        let remap_op = |op: &Op, base: usize| -> Op {
            let kind = match op.kind {
                OpKind::Fwd { mb, chunk } => OpKind::Fwd {
                    mb: remap_mb(mb, base),
                    chunk,
                },
                OpKind::BwdFull { mb, chunk } => OpKind::BwdFull {
                    mb: remap_mb(mb, base),
                    chunk,
                },
                OpKind::BwdData { mb, chunk } => OpKind::BwdData {
                    mb: remap_mb(mb, base),
                    chunk,
                },
                OpKind::BwdWeight { mb, chunk } => OpKind::BwdWeight {
                    mb: remap_mb(mb, base),
                    chunk,
                },
                OpKind::Send(ref k) => OpKind::Send(remap_key(k, base)),
                OpKind::Recv(ref k) => OpKind::Recv(remap_key(k, base)),
                OpKind::PrePost(ref k) => OpKind::PrePost(remap_key(k, base)),
                OpKind::WaitReq(ref k) => OpKind::WaitReq(remap_key(k, base)),
                ref other => other.clone(), // Update; collectives never occur
            };
            Op {
                kind,
                needs: op.needs.iter().map(|k| remap_key(k, base)).collect(),
                after_compute: op.after_compute,
                mem: op.mem.clone(),
            }
        };

        let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
        // Per group, per chunk: the rank whose optimizer step covers the
        // chunk, its local-gradient dependency, and its returned-weights
        // dependency — the Update ops themselves are deferred until after
        // cross-group reconciliation.
        let mut info: Vec<Vec<(usize, MsgKey, Option<MsgKey>)>> = Vec::new();
        for j in 0..groups {
            let base = j * g;
            let mut chunk_info = vec![None; g];
            for (rl, stream) in local.ops.iter().enumerate() {
                let r = base + rl;
                for op in stream {
                    let mapped = remap_op(op, base);
                    if groups > 1 {
                        if let OpKind::Update { chunk } = mapped.kind {
                            let grad = mapped
                                .needs
                                .iter()
                                .copied()
                                .find(|k| k.kind == MsgKind::WeightGrads)
                                .expect("ring update depends on its gradients");
                            let weights = mapped
                                .needs
                                .iter()
                                .copied()
                                .find(|k| k.kind == MsgKind::Weights);
                            chunk_info[chunk] = Some((r, grad, weights));
                            continue;
                        }
                    }
                    ops[r].push(mapped);
                }
            }
            info.push(if groups > 1 {
                chunk_info
                    .into_iter()
                    .map(|c| c.expect("flat ring emits one Update per chunk"))
                    .collect()
            } else {
                Vec::new()
            });
        }

        if groups > 1 {
            // Local backward horizon — the last round number the spliced
            // rings use; reconciliation rounds start above it.
            let hb = (n_local / g + 2) * g - 2;
            let bridge = |j: usize| j * g + g - 1;
            let key = |chunk: usize, round: usize, src: usize, dst: usize| MsgKey {
                kind: MsgKind::WeightGrads,
                chunk,
                mb: NO_MB,
                round,
                src,
                dst,
            };
            let r_gather = hb + 1;

            // 1. Gather at the bridge (intra-group).
            for (j, group_info) in info.iter().enumerate() {
                let b = bridge(j);
                for (c, &(r, grad, _)) in group_info.iter().enumerate() {
                    if r != b {
                        ops[r].push(Op::send(key(c, r_gather, r, b)).needs(grad));
                        ops[b].push(Op::recv(key(c, r_gather, r, b)));
                    }
                }
            }

            // Chunk-c gradients as seen by the bridge of group `j`: its own
            // contribution if it is the updater, else the gathered copy.
            let local_grad = |j: usize, c: usize| -> MsgKey {
                let (u, grad, _) = info[j][c];
                if u == bridge(j) {
                    grad
                } else {
                    key(c, r_gather, u, bridge(j))
                }
            };

            // 2. Ring-reduce each chunk to its owner bridge, then ring-
            //    broadcast the sum back — `2·(G−1)` bridge hops per chunk,
            //    the classic all-reduce byte count `2·(G−1)·M` in total
            //    (a store-and-forward all-gather would cost `G·(G−1)·M`
            //    and forfeit most of the hierarchy's traffic win). Chunk
            //    ownership rotates (`c % G`) so the hop load balances
            //    across the bridge ring. Reduce hop `s` carries the
            //    partial sum of groups `o+1..=o+1+s`; broadcast hops carry
            //    the full sum.
            //    Hop descriptor: (round, sender group, receiver group,
            //    chunk, payload dependencies).
            let mut hops: Vec<(usize, usize, usize, usize, Vec<MsgKey>)> = Vec::new();
            for c in 0..g {
                let o = c % groups; // owner position on the bridge ring
                for s in 0..groups - 1 {
                    let round = hb + 2 + s;
                    let sj = (o + 1 + s) % groups;
                    let rj = (o + 2 + s) % groups;
                    let mut needs = vec![local_grad(sj, c)];
                    if s > 0 {
                        let prev = (o + s) % groups;
                        needs.push(key(c, round - 1, bridge(prev), bridge(sj)));
                    }
                    hops.push((round, sj, rj, c, needs));
                }
                for t in 0..groups - 1 {
                    let round = hb + groups + 1 + t;
                    let sj = (o + t) % groups;
                    let rj = (o + 1 + t) % groups;
                    let needs = if t == 0 {
                        // The full sum materializes at the owner: the last
                        // partial-sum arrival plus its own contribution.
                        let last = (o + groups - 1) % groups;
                        vec![
                            key(c, hb + groups, bridge(last), bridge(o)),
                            local_grad(o, c),
                        ]
                    } else {
                        vec![key(c, round - 1, bridge((o + t - 1) % groups), bridge(sj))]
                    };
                    hops.push((round, sj, rj, c, needs));
                }
            }
            // Emit round-by-round, sends before recvs per bridge, so every
            // stream's strict in-order execution finds its dependencies
            // already satisfied.
            hops.sort_by_key(|&(round, sj, _, c, _)| (round, sj, c));
            for round in hb + 2..=hb + 2 * groups - 1 {
                for j in 0..groups {
                    for (r, sj, rj, c, needs) in hops.iter().filter(|h| h.0 == round) {
                        if *sj == j {
                            let mut send = Op::send(key(*c, *r, bridge(*sj), bridge(*rj)));
                            for k in needs {
                                send = send.needs(*k);
                            }
                            ops[bridge(j)].push(send);
                        }
                    }
                    for (r, sj, rj, c, _) in hops.iter().filter(|h| h.0 == round) {
                        if *rj == j {
                            ops[bridge(j)].push(Op::recv(key(*c, *r, bridge(*sj), bridge(*rj))));
                        }
                    }
                }
            }

            // Dependencies that pin the full chunk-c sum at group j's
            // bridge after the ring phases.
            let full_sum = |j: usize, c: usize| -> Vec<MsgKey> {
                let o = c % groups;
                if j == o {
                    let last = (o + groups - 1) % groups;
                    vec![
                        key(c, hb + groups, bridge(last), bridge(o)),
                        local_grad(o, c),
                    ]
                } else {
                    let t = (j + groups - o - 1) % groups; // j == o+1+t
                    vec![key(
                        c,
                        hb + groups + 1 + t,
                        bridge((o + t) % groups),
                        bridge(j),
                    )]
                }
            };

            // 3. Fan the reduced gradients back out (intra-group) and run
            //    the deferred optimizer steps.
            let r_fan = hb + 2 * groups;
            for (j, group_info) in info.iter().enumerate() {
                let b = bridge(j);
                for (c, &(u, _, weights)) in group_info.iter().enumerate() {
                    if u == b {
                        let mut op = Op::compute(OpKind::Update { chunk: c });
                        for k in full_sum(j, c) {
                            op = op.needs(k);
                        }
                        if let Some(w) = weights {
                            op = op.needs(w);
                        }
                        ops[b].push(op);
                    } else {
                        let fo = key(c, r_fan, b, u);
                        let mut send = Op::send(fo);
                        for k in full_sum(j, c) {
                            send = send.needs(k);
                        }
                        ops[b].push(send);
                        ops[u].push(Op::recv(fo));
                        let mut op = Op::compute(OpKind::Update { chunk: c }).needs(fo);
                        if let Some(w) = weights {
                            op = op.needs(w);
                        }
                        ops[u].push(op);
                    }
                }
            }
        }

        Schedule {
            strategy: Strategy::WeiPipeHier,
            ranks: p,
            chunks: g,
            microbatches: n,
            ops,
            // Group 0's replica owners; groups j > 0 hold the same chunks at
            // `j·g +` the same offsets.
            initial_holder: local.initial_holder,
            seeds: (0..p).map(|r| local.seeds[r % g].clone()).collect(),
            recompute: local.recompute,
        }
    }
}

/// Activation-passing stage pipelines: rank `r` owns chunk `r` for the
/// whole run; microbatches flow down the stages as activations and back up
/// as activation gradients.
fn build_act_pipe(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    let p = spec.ranks;
    let n = spec.microbatches;
    assert!(p >= 1, "need at least one stage");
    let split = matches!(strategy, Strategy::Zb1 | Strategy::Zb2);
    let recompute = spec.recompute && !split;
    let ctx = if recompute {
        MemUnit::CkptInput
    } else {
        MemUnit::FwdCtx
    };

    let act_in = |r: usize, mb: usize| MsgKey {
        kind: MsgKind::Act,
        chunk: r,
        mb,
        round: 0,
        src: r - 1,
        dst: r,
    };
    let ag_in = |r: usize, mb: usize| MsgKey {
        kind: MsgKind::ActGrad,
        chunk: r,
        mb,
        round: 0,
        src: r + 1,
        dst: r,
    };

    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        let push_fwd = |stream: &mut Vec<Op>, mb: usize| {
            if r > 0 {
                stream.push(Op::recv(act_in(r, mb)).mem(MemUnit::ActBoundary, 1));
            }
            let mut op = Op::compute(OpKind::Fwd { mb, chunk: r }).mem(ctx, 1);
            if r > 0 {
                op = op.needs(act_in(r, mb)).mem(MemUnit::ActBoundary, -1);
            }
            if r < p - 1 {
                op = op.mem(MemUnit::ActBoundary, 1);
            }
            stream.push(op);
            if r < p - 1 {
                stream.push(Op::send(act_in(r + 1, mb)).mem(MemUnit::ActBoundary, -1));
            }
        };
        let push_bwd = |stream: &mut Vec<Op>, mb: usize| {
            if r < p - 1 {
                stream.push(Op::recv(ag_in(r, mb)).mem(MemUnit::ActGradBoundary, 1));
            }
            let kind = if split {
                OpKind::BwdData { mb, chunk: r }
            } else {
                OpKind::BwdFull { mb, chunk: r }
            };
            let mut op = Op::compute(kind);
            if r < p - 1 {
                op = op.needs(ag_in(r, mb)).mem(MemUnit::ActGradBoundary, -1);
            }
            op = if split {
                op.mem(MemUnit::BCtx, 1)
            } else {
                op.mem(ctx, -1)
            };
            if r > 0 {
                op = op.mem(MemUnit::ActGradBoundary, 1);
            }
            stream.push(op);
            if r > 0 {
                stream.push(Op::send(ag_in(r - 1, mb)).mem(MemUnit::ActGradBoundary, -1));
            }
        };
        let push_w = |stream: &mut Vec<Op>, mb: usize| {
            stream.push(
                Op::compute(OpKind::BwdWeight { mb, chunk: r })
                    .mem(MemUnit::FwdCtx, -1)
                    .mem(MemUnit::BCtx, -1),
            );
        };

        match strategy {
            Strategy::GPipe => {
                for mb in 0..n {
                    push_fwd(stream, mb);
                }
                for mb in 0..n {
                    push_bwd(stream, mb);
                }
            }
            Strategy::OneFOneB => {
                let warm = (p - 1 - r).min(n);
                for mb in 0..warm {
                    push_fwd(stream, mb);
                }
                for i in 0..n - warm {
                    push_fwd(stream, warm + i);
                    push_bwd(stream, i);
                }
                for mb in n - warm..n {
                    push_bwd(stream, mb);
                }
            }
            Strategy::Zb1 => {
                // 1F1B shape with W passes lagging their B passes by a
                // couple of slots (ZB-H1): the activation-gradient send
                // leaves after only the B-pass latency, and the deferred W
                // passes fill what would otherwise be bubble — at the price
                // of holding the full forward ctx and B ctx of the lagged
                // microbatches, the memory blow-up Table 2 charges ZB for.
                let w_lag = spec.w_lag.unwrap_or(2);
                let warm = (p - 1 - r).min(n);
                let mut w_queue = std::collections::VecDeque::new();
                for mb in 0..warm {
                    push_fwd(stream, mb);
                }
                for i in 0..n - warm {
                    push_fwd(stream, warm + i);
                    push_bwd(stream, i);
                    w_queue.push_back(i);
                    if w_queue.len() > w_lag {
                        push_w(stream, w_queue.pop_front().expect("non-empty"));
                    }
                }
                for mb in n - warm..n {
                    push_bwd(stream, mb);
                    w_queue.push_back(mb);
                    if w_queue.len() > w_lag {
                        push_w(stream, w_queue.pop_front().expect("non-empty"));
                    }
                }
                for mb in w_queue.drain(..) {
                    push_w(stream, mb);
                }
            }
            Strategy::Zb2 => {
                // Deeper warmup fills the bubble with extra forwards; every
                // W pass is deferred to the end of the iteration.
                let warm = (2 * (p - r) - 1).min(n);
                for mb in 0..warm {
                    push_fwd(stream, mb);
                }
                for i in 0..n - warm {
                    push_fwd(stream, warm + i);
                    push_bwd(stream, i);
                }
                for mb in n - warm..n {
                    push_bwd(stream, mb);
                }
                for mb in 0..n {
                    push_w(stream, mb);
                }
            }
            _ => unreachable!("not an activation pipeline"),
        }
        stream.push(Op::compute(OpKind::Update { chunk: r }));
    }

    Schedule {
        strategy,
        ranks: p,
        chunks: p,
        microbatches: n,
        ops,
        initial_holder: (0..p).collect(),
        seeds: (0..p).map(|r| vec![(r, RESIDENT)]).collect(),
        recompute,
    }
}

/// FSDP (ZeRO-3): every rank holds a 1/P shard of every chunk and runs its
/// 1/P of the microbatches as plain data parallelism — all-gathering each
/// chunk's full weights just before use (once for the forward, again for
/// the backward) and freeing them right after, then reduce-scattering that
/// microbatch's gradient chunk back to shards. This per-microbatch
/// re-gather is what keeps sharded memory flat and what multiplies ZeRO-3's
/// communication volume by the gradient-accumulation depth — the cost the
/// paper's slow-interconnect columns expose (§6.1).
fn build_fsdp(spec: PipelineSpec) -> Schedule {
    let p = spec.ranks;
    let n = spec.microbatches;
    assert!(
        n.is_multiple_of(p),
        "FSDP needs microbatches ({n}) divisible by ranks ({p})"
    );
    let chunks = spec.chunks.unwrap_or(p);
    assert!(chunks >= 1, "FSDP needs at least one chunk");
    let ctx = if spec.recompute {
        MemUnit::CkptInput
    } else {
        MemUnit::FwdCtx
    };
    let local = n / p;
    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        for i in 0..local {
            let mb = i * p + r;
            for c in 0..chunks {
                let gather = OpKind::AllGatherW {
                    chunk: c,
                    round: 2 * i,
                };
                let gathered = gather.collective_key(r);
                stream.push(Op::compute_collective(gather).mem(MemUnit::WeightChunk, 1));
                stream.push(
                    Op::compute(OpKind::Fwd { mb, chunk: c })
                        .needs(gathered)
                        .mem(ctx, 1)
                        .mem(MemUnit::WeightChunk, -1),
                );
            }
            for c in (0..chunks).rev() {
                let gather = OpKind::AllGatherW {
                    chunk: c,
                    round: 2 * i + 1,
                };
                let gathered = gather.collective_key(r);
                stream.push(Op::compute_collective(gather).mem(MemUnit::WeightChunk, 1));
                stream.push(
                    Op::compute(OpKind::BwdFull { mb, chunk: c })
                        .needs(gathered)
                        .mem(ctx, -1)
                        .mem(MemUnit::WeightChunk, -1)
                        .mem(MemUnit::GradChunk, 1),
                );
                stream.push(
                    Op::compute_collective(OpKind::ReduceScatterD { chunk: c, round: i })
                        .mem(MemUnit::GradChunk, -1),
                );
            }
        }
        for c in 0..chunks {
            // The last microbatch's reduce-scatter delivers the summed shard.
            let last = OpKind::ReduceScatterD {
                chunk: c,
                round: local - 1,
            };
            stream.push(Op::compute(OpKind::Update { chunk: c }).needs(last.collective_key(r)));
        }
    }

    Schedule {
        strategy: Strategy::Fsdp,
        ranks: p,
        chunks,
        microbatches: n,
        ops,
        initial_holder: (0..chunks).map(|c| c % p).collect(),
        seeds: vec![(0..chunks).map(|c| (c, SHARDED)).collect(); p],
        recompute: spec.recompute,
    }
}

/// DDP: the model is replicated; each rank trains its 1/P of the
/// microbatches locally and all-reduces gradients before a replicated
/// update.
fn build_ddp(spec: PipelineSpec) -> Schedule {
    let p = spec.ranks;
    let n = spec.microbatches;
    assert!(
        n.is_multiple_of(p),
        "DDP needs microbatches ({n}) divisible by ranks ({p})"
    );
    let chunks = spec.chunks.unwrap_or(p);
    assert!(chunks >= 1, "DDP needs at least one chunk");
    let ctx = if spec.recompute {
        MemUnit::CkptInput
    } else {
        MemUnit::FwdCtx
    };

    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        for mb in (r..n).step_by(p) {
            for c in 0..chunks {
                stream.push(Op::compute(OpKind::Fwd { mb, chunk: c }).mem(ctx, 1));
            }
            for c in (0..chunks).rev() {
                stream.push(Op::compute(OpKind::BwdFull { mb, chunk: c }).mem(ctx, -1));
            }
        }
        let reduce = |c| OpKind::AllReduceD { chunk: c, round: 0 };
        for c in 0..chunks {
            stream.push(Op::compute_collective(reduce(c)));
        }
        for c in 0..chunks {
            stream
                .push(Op::compute(OpKind::Update { chunk: c }).needs(reduce(c).collective_key(r)));
        }
    }

    Schedule {
        strategy: Strategy::Ddp,
        ranks: p,
        chunks,
        microbatches: n,
        ops,
        initial_holder: (0..chunks).map(|c| c % p).collect(),
        seeds: vec![(0..chunks).map(|c| (c, RESIDENT)).collect(); p],
        recompute: spec.recompute,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interleave_send_census_matches_ring_algebra() {
        // P=4, N=8 (nl=2): hf=12 fwd hops, hb=14 bwd/grad hops per rank,
        // plus one end-of-iteration gradient delivery per rank.
        let s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(4, 8));
        let st = s.stats();
        assert_eq!(st.sends, 4 * (12 + 14 + 14) + 4);
        assert_eq!(st.recvs, st.sends);
    }

    #[test]
    fn overlap_emits_prepost_wait_pairs_without_changing_traffic() {
        use std::collections::HashSet;
        for strat in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
            let spec = PipelineSpec::new(4, 8);
            let blocking = build(strat, spec.with_overlap(false));
            let overlapped = build(strat, spec.with_overlap(true));
            let (bs, os) = (blocking.stats(), overlapped.stats());
            // Same messages on the wire either way; only the posting style
            // differs (Recv vs PrePost+WaitReq).
            assert_eq!(bs.sends, os.sends, "{strat:?}");
            assert_eq!(bs.recvs, os.recvs, "{strat:?}");
            assert_eq!(bs.waits, 0, "{strat:?}");
            assert!(os.waits > 0, "{strat:?}");
            // Every wait redeems a pre-post issued earlier on the same rank.
            for ops in &overlapped.ops {
                let mut posted: HashSet<MsgKey> = HashSet::new();
                for op in ops {
                    match op.kind {
                        OpKind::PrePost(k) => {
                            assert!(posted.insert(k), "{strat:?}: double post {k:?}");
                        }
                        OpKind::WaitReq(k) => {
                            assert!(posted.remove(&k), "{strat:?}: wait before post {k:?}");
                        }
                        _ => {}
                    }
                }
                assert!(posted.is_empty(), "{strat:?}: unredeemed pre-posts");
            }
        }
    }

    /// The ring's turn-0 holdings and the reseed they imply, pinned against
    /// the literal values the runtime used to re-derive for itself
    /// (`(P−r)%P` forward, `(r+P−offset)%P` backward; reseed
    /// `owner → (c+offset)%P`).
    #[test]
    fn ring_seeds_and_refreshes_match_the_position_algebra() {
        use crate::ir::Refresh;
        use std::collections::HashSet;
        // (strategy, offset, [(fwd chunk, bwd chunk) per rank])
        type Row = (Strategy, usize, &'static [(usize, usize)]);
        let table: [Row; 4] = [
            (Strategy::WeiPipeInterleave, 1, &[(0, 1), (1, 0)]),
            (Strategy::WeiPipeNaive, 2, &[(0, 0), (1, 1)]),
            (
                Strategy::WeiPipeInterleave,
                1,
                &[(0, 3), (3, 0), (2, 1), (1, 2)],
            ),
            (Strategy::WeiPipeNaive, 2, &[(0, 2), (3, 3), (2, 0), (1, 1)]),
        ];
        for (strat, offset, slots) in table {
            let p = slots.len();
            let s = build(strat, PipelineSpec::new(p, 2 * p));
            let want: Vec<Vec<(usize, usize)>> = slots
                .iter()
                .map(|&(f, b)| vec![(f, FLOW_FWD), (b, FLOW_BWD)])
                .collect();
            assert_eq!(s.seeds, want, "{strat:?} P={p}");
            let reseeds: HashSet<Refresh> = (0..p)
                .map(|c| Refresh {
                    chunk: c,
                    flow: FLOW_BWD,
                    src: s.initial_holder[c],
                    dst: (c + offset) % p,
                })
                .collect();
            let derived = s.refreshes();
            assert_eq!(derived.len(), p, "{strat:?} P={p}: one reseed per chunk");
            assert_eq!(
                derived.into_iter().collect::<HashSet<_>>(),
                reseeds,
                "{strat:?} P={p}"
            );
        }
        // Nothing else goes stale: stages, replicas and shards are stepped
        // where they sit.
        for strat in [
            Strategy::GPipe,
            Strategy::OneFOneB,
            Strategy::Zb1,
            Strategy::Zb2,
            Strategy::Fsdp,
            Strategy::Ddp,
        ] {
            let s = build(strat, PipelineSpec::new(4, 8));
            assert_eq!(s.refreshes(), Vec::new(), "{strat:?}");
        }
    }

    #[test]
    fn weipipe_updates_land_on_the_weight_owner() {
        let s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(4, 8));
        for (r, op) in s.iter_ops() {
            if let OpKind::Update { chunk } = op.kind {
                assert_eq!(r, (4 - chunk) % 4, "chunk {chunk} updated off-owner");
                assert_eq!(s.initial_holder[chunk], r);
            }
        }
    }

    #[test]
    fn microbatch_ownership_is_mod_p() {
        for strat in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
            let s = build(strat, PipelineSpec::new(4, 8));
            for (r, op) in s.iter_ops() {
                if let OpKind::Fwd { mb, .. }
                | OpKind::BwdFull { mb, .. }
                | OpKind::BwdData { mb, .. }
                | OpKind::BwdWeight { mb, .. } = op.kind
                {
                    assert_eq!(weipipe_mb_owner(4, mb), r);
                }
            }
        }
    }

    #[test]
    fn split_strategies_force_recompute_off() {
        for strat in [Strategy::Zb1, Strategy::Zb2, Strategy::Wzb1, Strategy::Wzb2] {
            let s = build(strat, PipelineSpec::new(4, 8));
            assert!(!s.recompute, "{strat:?} cannot checkpoint");
            let st = s.stats();
            assert_eq!(st.bwd_full, 0);
            assert_eq!(st.bwd_data, st.bwd_weight);
        }
    }

    #[test]
    fn fsdp_and_ddp_are_collective_only() {
        for strat in [Strategy::Fsdp, Strategy::Ddp] {
            let s = build(strat, PipelineSpec::new(4, 8));
            let st = s.stats();
            assert_eq!(st.sends, 0, "{strat:?}");
            assert_eq!(st.recvs, 0, "{strat:?}");
            assert!(st.collectives > 0, "{strat:?}");
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn weipipe_rejects_ragged_microbatches() {
        build(Strategy::WeiPipeInterleave, PipelineSpec::new(4, 6));
    }

    #[test]
    fn w_lag_override_shifts_w_passes_without_changing_census() {
        let default = build(Strategy::Zb1, PipelineSpec::new(4, 8));
        let deep = build(Strategy::Zb1, PipelineSpec::new(4, 8).with_w_lag(5));
        crate::validate(&deep).expect("zb1 lag=5 is valid");
        let (ds, xs) = (default.stats(), deep.stats());
        assert_eq!(
            ds.bwd_weight, xs.bwd_weight,
            "lag moves W passes, never drops them"
        );
        assert_ne!(
            default.ops[0]
                .iter()
                .map(|o| format!("{:?}", o.kind))
                .collect::<Vec<_>>(),
            deep.ops[0]
                .iter()
                .map(|o| format!("{:?}", o.kind))
                .collect::<Vec<_>>(),
        );
        let tight = build(Strategy::Wzb1, PipelineSpec::new(4, 8).with_w_lag(1));
        crate::validate(&tight).expect("wzb1 lag=1 is valid");
        assert_eq!(tight.stats().bwd_weight, tight.stats().bwd_data);
    }

    #[test]
    fn chunk_override_reshapes_collective_strategies() {
        for chunks in [1usize, 2, 8] {
            for strat in [Strategy::Fsdp, Strategy::Ddp] {
                let s = build(strat, PipelineSpec::new(4, 8).with_chunks(chunks));
                assert_eq!(s.chunks, chunks, "{strat:?}");
                assert_eq!(s.initial_holder.len(), chunks, "{strat:?}");
                crate::validate(&s).unwrap_or_else(|e| panic!("{strat:?} chunks={chunks}: {e}"));
            }
        }
        // The default stays the bit-identical P-chunk schedule.
        let d = build(Strategy::Fsdp, PipelineSpec::new(4, 8));
        assert_eq!(d.chunks, 4);
    }

    #[test]
    fn hier_single_group_degenerates_to_flat_interleave() {
        let flat = build(Strategy::WeiPipeInterleave, PipelineSpec::new(4, 8));
        // No group (or group == P) means one ring spanning the world: the
        // exact interleave schedule under a different strategy tag.
        for spec in [
            PipelineSpec::new(4, 8),
            PipelineSpec::new(4, 8).with_group(4),
        ] {
            let hier = build(Strategy::WeiPipeHier, spec);
            assert_eq!(hier.strategy, Strategy::WeiPipeHier);
            assert_eq!(hier.chunks, 4);
            assert_eq!(hier.ops, flat.ops);
            assert_eq!(hier.initial_holder, flat.initial_holder);
        }
    }

    #[test]
    fn hier_grouped_schedule_validates_and_partitions_microbatches() {
        for (p, g, n) in [(4, 2, 8), (8, 4, 16), (8, 2, 8), (6, 3, 12)] {
            let s = build(Strategy::WeiPipeHier, PipelineSpec::new(p, n).with_group(g));
            crate::validate(&s).unwrap_or_else(|e| panic!("p={p} g={g} n={n}: {e}"));
            assert_eq!(s.chunks, g);
            // Microbatch ownership stays `mb % P` after the group remap, so
            // each group's ring trains exactly its own slice of the batch.
            let mut updates = vec![0usize; g];
            for (r, op) in s.iter_ops() {
                match op.kind {
                    OpKind::Fwd { mb, .. }
                    | OpKind::BwdFull { mb, .. }
                    | OpKind::BwdData { mb, .. }
                    | OpKind::BwdWeight { mb, .. } => assert_eq!(mb % p, r, "p={p} g={g}"),
                    OpKind::Update { chunk } => updates[chunk] += 1,
                    _ => {}
                }
            }
            // One optimizer step per chunk per replica group.
            assert!(
                updates.iter().all(|&u| u == p / g),
                "p={p} g={g}: {updates:?}"
            );
        }
    }

    #[test]
    fn hier_cross_group_traffic_is_bridge_gradients_only() {
        let (p, g, n) = (8usize, 2usize, 16usize);
        let groups = p / g;
        let s = build(Strategy::WeiPipeHier, PipelineSpec::new(p, n).with_group(g));
        let bridge = |r: usize| r % g == g - 1;
        let mut cross = 0usize;
        for (_, op) in s.iter_ops() {
            if let OpKind::Send(k) = &op.kind {
                if k.src / g != k.dst / g {
                    // Only the grad ring-reduce/broadcast hops between
                    // designated bridge ranks may ride the slow hop.
                    assert_eq!(k.kind, MsgKind::WeightGrads, "{k:?}");
                    assert!(bridge(k.src) && bridge(k.dst), "{k:?}");
                    cross += 1;
                }
            }
        }
        // 2·(G−1) hops per chunk: the classic all-reduce message count.
        assert_eq!(cross, 2 * (groups - 1) * g);
    }
}
