//! The WeiPipe ring algebra (paper §4.2).
//!
//! Two weight flows circulate rank `r → r+1` in lockstep, one ring hop per
//! *turn* `t`:
//!
//! * **Forward flow** (`mb = `[`FLOW_FWD`]): at turn `t` rank `r` holds
//!   chunk `wrap(t - r)`. Seeded so rank `r` starts with chunk
//!   `(P - r) % P`; after `hf = (N/P + 1)·P` hops every chunk is back at
//!   its owner `(P - c) % P`, which runs its optimizer update.
//! * **Backward flow** (`mb = `[`FLOW_BWD`]): at turn `t` rank `r` holds
//!   chunk `wrap(r - offset - t)`, where `offset` is 1 for the interleaved
//!   schedule (backward trails forward by one pipeline depth) and 2 for the
//!   naive schedule (backward starts only after all forwards). The chunk's
//!   gradient buffer `D` travels alongside and is drained into the ring on
//!   every hop.
//!
//! What each rank holds at turn 0 leaves this module as
//! [`Schedule::seeds`]: the forward seed is the copy its own rank's `Update`
//! steps, the backward seed sits `offset` ranks off the owner and goes
//! stale ([`Schedule::refreshes`]). No other module knows `offset`.
//!
//! Rank `r` computes on whatever the flows deliver: microbatch groups are
//! assigned so `r` always works on microbatches `mb ≡ r (mod P)`, which is
//! what makes compute perfectly balanced and the traffic independent of
//! sequence length and microbatch size.
//!
//! WeiPipe-Hier runs this ring once per group of `g` consecutive ranks
//! (its group knob): in the algebra above `r` is then the ring position
//! `r % g` and `P` is `g`, while a rank still works on the microbatches
//! it owns globally, `(k / g)·P + r` for its `k`-th turn of compute. What
//! follows the rings is [`hier::reconcile`].

use super::{hier, wrap, Knob, Passes, PipelineSpec, WWindow};
use crate::ir::{MsgKey, Op, OpKind, Schedule, Strategy, FLOW_BWD, FLOW_FWD};

/// Shared ring builder for the four weight-passing schedules and
/// WeiPipe-Hier, which runs the interleaved ring once per group of `g`
/// consecutive ranks (its group knob; every other strategy rings all `P`)
/// and reconciles the groups' gradients in [`hier::reconcile`].
pub(super) fn build_ring(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    let p = spec.ranks;
    let n = spec.microbatches;
    let g = match spec.knob(strategy) {
        Some((Knob::Group, g)) => g,
        _ => p,
    };
    let nl = n / p; // microbatches per rank ("loops" of its ring)
    let naive = strategy == Strategy::WeiPipeNaive;
    let offset = if naive { 2 } else { 1 };
    let passes = Passes::of(strategy, &spec);

    // Ring horizon: forward flow runs hf hops (back to its owner);
    // backward flow runs hb hops (gradients land one rank short of the
    // owner and are delivered point-to-point at the end).
    let hf = (nl + 1) * g;
    let hb = if naive {
        2 * (nl + 1) * g - 3
    } else {
        (nl + 2) * g - 2
    };

    // Chunk held by ring position q at turn t, per flow.
    let wf = |q: usize, t: usize| wrap(t as isize - q as isize, g);
    let wb = |q: usize, t: usize| wrap(q as isize - offset as isize - t as isize, g);
    // The rank `step` places on from rank r round its group's ring.
    let around = |r: usize, step: isize| r - r % g + wrap((r % g) as isize + step, g);

    // Chunk c's optimizer step in the ring starting at rank `base`: the
    // rank its gradients rest on after hb hops (one short of the owner),
    // the rank that steps it, the gradients it waits for, and the weights
    // the forward flow returned home on its final hop, which it mutates.
    let update = |base: usize, c: usize| {
        let holder = base + (c + offset + hb) % g;
        debug_assert_eq!(holder, around(base + c, -1));
        let updater = if strategy == Strategy::Wzb2 {
            base + g - 1 // WZB2 parks all optimizer state on the last rank
        } else {
            base + wrap(-(c as isize), g)
        };
        let grads = if holder == updater {
            MsgKey::weight_grads(c, hb - 1, around(holder, -1), holder)
        } else {
            MsgKey::weight_grads(c, hb, holder, updater)
        };
        let weights = (strategy != Strategy::Wzb2)
            .then(|| MsgKey::weights(c, FLOW_FWD, hf - 1, around(updater, -1), updater));
        (holder, updater, grads, weights)
    };

    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, stream) in ops.iter_mut().enumerate() {
        let q = r % g;
        let (prev, next) = (around(r, -1), around(r, 1));
        // What rank `r` works on at turn `t` as it moves `src → dst` in
        // `round`: forward weights, backward weights, gradient accumulator.
        let hop = |t: usize, round: usize, src: usize, dst: usize| {
            [
                MsgKey::weights(wf(q, t), FLOW_FWD, round, src, dst),
                MsgKey::weights(wb(q, t), FLOW_BWD, round, src, dst),
                MsgKey::weight_grads(wb(q, t), round, src, dst),
            ]
        };
        // WZB1 bounds in-flight B contexts; WZB2 defers every W pass to the
        // end of the iteration.
        let mut deferred = WWindow::of(strategy, &spec);
        for t in 0..=hb {
            // Turn t's chunks arrived in round t−1 (turn 0's are seeded and
            // these keys unused) and leave in round t; round t also delivers
            // turn t+1's.
            let [fwd_in, bwd_in, d_in] = hop(t, t.wrapping_sub(1), prev, r);
            let [fwd_out, w_out, d_out] = hop(t, t, r, next);
            let [fwd_next, bwd_next, d_next] = hop(t + 1, t, prev, r);
            // The onward send of a weight chunk. A seeded chunk has nothing
            // to wait for; in overlap mode a chunk forwards the moment it
            // lands; blocking mode relays round-synchronously, after this
            // rank's compute for the turn (step 4), which is what gives the
            // ring its serialized compute+comm cost.
            let relay = |out: MsgKey, arrived: MsgKey| {
                if t == 0 {
                    Op::seed_send(out)
                } else if spec.overlap {
                    Op::forward_send(out, arrived)
                } else {
                    Op::send(out).needs(arrived)
                }
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
                    stream.push(relay(fwd_out, fwd_in));
                    stream.push(Op::pre_post(fwd_next));
                }
                if t < hb {
                    stream.push(Op::pre_post(bwd_next));
                    stream.push(Op::pre_post(d_next));
                }
            }

            // 2. Forward compute: loop l of this rank's microbatches
            //    meets chunk c on turn t = q + l·g + c.
            if t >= q {
                let k = t - q;
                if k < nl * g {
                    let mb = (k / g) * p + r;
                    let chunk = k % g;
                    debug_assert_eq!(chunk, wf(q, t));
                    let mut op = Op::compute(OpKind::Fwd { mb, chunk }).mem(passes.ctx, 1);
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
                    stream.push(relay(w_out, bwd_in));
                }
            }

            // 3. Backward compute on the trailing flow.
            let bk = if naive {
                (t as isize) - (q as isize + ((nl + 1) * g) as isize - 1)
            } else {
                (t as isize) - (q as isize + g as isize)
            };
            if bk >= 0 && (bk as usize) < nl * g {
                let k = bk as usize;
                let mb = (k / g) * p + r;
                let chunk = g - 1 - (k % g);
                debug_assert_eq!(chunk, wb(q, t));
                let (kind, unit, delta) = passes.backward(mb, chunk);
                stream.push(Op::compute(kind).needs(bwd_in).mem(unit, delta));
                if passes.split {
                    stream.extend(deferred.after_b(mb, chunk));
                }
            }

            // 4. Remaining ring departures for this turn: blocking mode's
            //    weight relays (overlap mode sent them above), and the
            //    gradient chunk, in both modes, because it must carry the
            //    local backward's contribution (every variant).
            if !spec.overlap && t < hf {
                stream.push(relay(fwd_out, fwd_in));
            }
            if t < hb {
                if !spec.overlap {
                    // Backward weights relay one hop per round as well;
                    // what the interleaved schedule removes vs naive is the
                    // second full circulation (hb is ~half as many rounds),
                    // not the per-hop pacing (§4.2.2).
                    stream.push(relay(w_out, bwd_in));
                }
                let mut op = Op::send(d_out);
                if t >= 1 {
                    op = op.needs(d_in);
                }
                stream.push(op);
            }
        }
        stream.extend(deferred.flush());

        // Gradient delivery: ship each chunk's gradients from where they
        // rest to the rank that steps it. With several groups the steps
        // wait for the groups' gradients to be summed.
        for c in 0..g {
            let (holder, updater, grads, _) = update(r - q, c);
            if holder == r && updater != r {
                stream.push(Op::send(grads).needs(MsgKey::weight_grads(c, hb - 1, prev, r)));
            }
        }
        for c in 0..g {
            let (holder, updater, grads, weights) = update(r - q, c);
            if updater != r {
                continue;
            }
            if holder != r {
                stream.push(Op::recv(grads));
            }
            if g == p {
                let mut op = Op::compute(OpKind::Update { chunk: c }).needs(grads);
                op.needs.extend(weights);
                stream.push(op);
            }
        }
    }
    if g < p {
        let updates: Vec<_> = (0..p).map(|i| update(i - i % g, i % g)).collect();
        hier::reconcile(&mut ops, g, hb, &updates);
    }

    Schedule {
        strategy,
        ranks: p,
        chunks: g,
        microbatches: n,
        ops,
        // Group 0's owners; group j's sit j·g ranks on.
        initial_holder: (0..g).map(|c| (g - c) % g).collect(),
        seeds: (0..p)
            .map(|r| vec![(wf(r % g, 0), FLOW_FWD), (wb(r % g, 0), FLOW_BWD)])
            .collect(),
        recompute: passes.recompute,
    }
}

#[cfg(test)]
mod tests {
    use crate::builders::{build, PipelineSpec};
    use crate::ir::{MsgKey, OpKind, Refresh, Strategy, FLOW_BWD, FLOW_FWD};
    use std::collections::HashSet;

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
                    assert_eq!(mb % 4, r);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "divisible")]
    fn weipipe_rejects_ragged_microbatches() {
        build(Strategy::WeiPipeInterleave, PipelineSpec::new(4, 6));
    }
}
