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
//! A rank runs its stream in program order, so a receive placed ahead of
//! compute that does not read it stalls that compute for the transfer. In
//! overlap mode each arrival is therefore received at the first op that
//! names it (§4.3): the backward on chunk `c` accumulates into a local
//! buffer and does not wait for `D_c`, which is folded in just before it
//! leaves again; the chunk the forward flow brings home at turn `hf` is
//! received by its `Update`; an arrival nothing reads is received after the
//! rank's last compute op. Blocking mode receives a turn's weights at its
//! top instead. `tests/props.rs` checks the rule on every overlap schedule,
//! and that both modes emit the same ops.
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
    // the rank that steps it, the gradients it waits for, and — when that
    // rank is the chunk's home, where the forward flow returned it on its
    // final hop — those weights, which it mutates.
    let update = |base: usize, c: usize| {
        let holder = base + (c + offset + hb) % g;
        debug_assert_eq!(holder, around(base + c, -1));
        let home = base + wrap(-(c as isize), g);
        let updater = if strategy == Strategy::Wzb2 {
            base + g - 1 // WZB2 parks all optimizer state on the last rank
        } else {
            home
        };
        let grads = if holder == updater {
            MsgKey::weight_grads(c, hb - 1, around(holder, -1), holder)
        } else {
            MsgKey::weight_grads(c, hb, holder, updater)
        };
        let weights =
            (updater == home).then(|| MsgKey::weights(c, FLOW_FWD, hf - 1, around(home, -1), home));
        (holder, updater, grads, weights)
    };

    let mut ops: Vec<Vec<Op>> = vec![Vec::new(); p];
    // Per rank: the arrivals no op reads, received after its last compute.
    let mut tails: Vec<Vec<Op>> = vec![Vec::new(); p];
    for (r, (stream, tail)) in ops.iter_mut().zip(&mut tails).enumerate() {
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
            // these keys unused) and leave in round t.
            let [fwd_in, bwd_in, d_in] = hop(t, t.wrapping_sub(1), prev, r);
            let [fwd_out, w_out, d_out] = hop(t, t, r, next);
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
            // The backward this turn runs on the trailing flow, if any:
            // `(mb, chunk)`.
            let bk = if naive {
                (t as isize) - (q as isize + ((nl + 1) * g) as isize - 1)
            } else {
                (t as isize) - (q as isize + g as isize)
            };
            let backward = (bk >= 0 && (bk as usize) < nl * g).then(|| {
                let k = bk as usize;
                let chunk = g - 1 - (k % g);
                debug_assert_eq!(chunk, wb(q, t));
                ((k / g) * p + r, chunk)
            });

            // 1. This turn's weight arrivals. Blocking mode receives both
            //    flows here, so each turn pays its transfers in sequence
            //    with its compute; overlap mode receives each payload only
            //    at the first op that reads it. The forward-flow chunk that
            //    comes home at turn hf is read by its `Update` alone and is
            //    received there (below).
            if t >= 1 {
                if spec.overlap {
                    if t < hf {
                        stream.push(Op::recv(fwd_in));
                    }
                } else {
                    if t <= hf {
                        stream.push(Op::recv(fwd_in));
                    }
                    stream.push(Op::recv(bwd_in));
                }
            }

            // 1b. Overlap mode (§4.3): the forward-flow chunk relays onward
            //     the moment it lands, so its next hop streams while this
            //     rank computes.
            if spec.overlap && t < hf {
                stream.push(relay(fwd_out, fwd_in));
            }

            // 2. Forward compute: loop l of this rank's microbatches
            //    meets chunk c on turn t = q + l·g + c.
            if t >= q {
                let k = t - q;
                if k < nl * g {
                    let mb = (k / g) * p + r;
                    let chunk = k % g;
                    debug_assert_eq!(chunk, wf(q, t));
                    let mut op = Op::compute(OpKind::Fwd { mb, chunk });
                    if t >= 1 {
                        op = op.needs(fwd_in);
                    }
                    stream.push(op);
                }
            }

            // 2b. Overlap mode: the backward-flow weights are received
            //     only now, after the forward compute they were hiding
            //     under, and relay onward before the local backward uses
            //     them. At turn hb nothing relays them, and a rank with no
            //     backward that turn never reads them: its receive joins
            //     the tail.
            if spec.overlap {
                if t >= 1 {
                    if t < hb || backward.is_some() {
                        stream.push(Op::recv(bwd_in));
                    } else {
                        tail.push(Op::recv(bwd_in));
                    }
                }
                if t < hb {
                    stream.push(relay(w_out, bwd_in));
                }
            }

            // 3. Backward compute on the trailing flow. It accumulates into
            //    a local gradient buffer: the arriving accumulator D is not
            //    an input of the backward, only of D's departure (step 4).
            if let Some((mb, chunk)) = backward {
                stream.push(Op::compute(passes.backward(mb, chunk)).needs(bwd_in));
                if passes.split {
                    stream.extend(deferred.after_b(mb, chunk));
                }
            }

            // 4. The arriving gradient accumulator D, received only now
            //    that the backward is done, in both modes, so both fold it
            //    into the local gradients in the same order (turn hb's is
            //    received by the op that ships or steps it, below). Then
            //    the remaining ring departures for this turn: blocking
            //    mode's weight relays (overlap mode sent them above), and
            //    the gradient chunk, in both modes, because it must carry
            //    the local backward's contribution (every variant).
            if (1..hb).contains(&t) {
                stream.push(Op::recv(d_in));
            }
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

        // Gradient delivery: ship the chunk whose gradients rest here to
        // the rank that steps it, receiving turn hb's D first. With several
        // groups the steps wait for the groups' gradients to be summed.
        let d_rest = MsgKey::weight_grads(wb(q, hb), hb - 1, prev, r);
        let (_, updater, grads, _) = update(r - q, wb(q, hb));
        if updater != r {
            stream.push(Op::recv(d_rest));
            stream.push(Op::send(grads).needs(d_rest));
        }
        // The optimizer steps, each after the arrivals it reads: the
        // gradients (delivered, or this rank's own D) and, in overlap mode,
        // the forward-flow chunk that came home at turn hf. That chunk's
        // receive joins the tail on a rank that does not step it (WZB2).
        let mut home = spec
            .overlap
            .then(|| MsgKey::weights(wf(q, hf), FLOW_FWD, hf - 1, prev, r));
        for c in 0..g {
            let (holder, updater, grads, weights) = update(r - q, c);
            if updater != r {
                continue;
            }
            debug_assert!(holder != r || grads == d_rest);
            stream.push(Op::recv(grads));
            if weights.is_some() {
                debug_assert!(home.is_none() || home == weights);
                stream.extend(home.take().map(Op::recv));
            }
            if g == p {
                let mut op = Op::compute(OpKind::Update { chunk: c }).needs(grads);
                op.needs.extend(weights);
                stream.push(op);
            }
        }
        tail.extend(home.map(Op::recv));
    }
    if g < p {
        let updates: Vec<_> = (0..p).map(|i| update(i - i % g, i % g)).collect();
        hier::reconcile(&mut ops, g, hb, &updates);
    }
    for (stream, tail) in ops.iter_mut().zip(tails) {
        stream.extend(tail);
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
    use crate::ir::{OpKind, Refresh, Schedule, Strategy, FLOW_BWD, FLOW_FWD};
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
    fn overlap_moves_receives_without_changing_traffic() {
        for strat in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
            let spec = PipelineSpec::new(4, 8);
            let blocking = build(strat, spec.with_overlap(false));
            let overlapped = build(strat, spec.with_overlap(true));
            assert_eq!(blocking.stats(), overlapped.stats(), "{strat:?}");
            // The first receive of a turn-1 weight copy: at the top of the
            // turn when blocking, after the turn's forward when overlapped.
            let first_bwd_recv = |s: &Schedule| {
                (s.ops[0].iter())
                    .position(|o| matches!(o.kind, OpKind::Recv(k) if k.mb == FLOW_BWD))
                    .expect("a backward-flow receive")
            };
            assert!(
                first_bwd_recv(&blocking) < first_bwd_recv(&overlapped),
                "{strat:?}"
            );
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
