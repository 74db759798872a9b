//! WeiPipe-Hier's gradient reconciliation between its group rings.

use crate::ir::{MsgKey, Op, OpKind};

/// Hierarchical (TawPipe-style) grouped WeiPipe, after its rings.
///
/// The world's `P` ranks are split into `G = P / g` groups of `g`
/// consecutive ranks — ideally one NVLink island per group. Each group
/// runs the interleaved ring of [`super::ring::build_ring`] over a **full
/// model replica sharded `g` ways** (`chunks = g`, so every weight-flow
/// hop rides a fast intra-group link), processing the microbatches whose
/// owner rank lives in the group. The only traffic that crosses groups is
/// this end-of-iteration gradient reconciliation, appended to the rings'
/// streams in rounds numbered above their backward horizon `hb`:
///
/// 1. **Gather** — each per-chunk updater hands its accumulated
///    gradient chunk to the group's designated *bridge rank* (the last
///    rank of the group, which owns the ring's outgoing hop) over
///    intra-group links.
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
/// `updates[j·g + c]` is chunk `c`'s optimizer step in group `j`: where
/// the ring left its gradients, the rank that runs it, the group's
/// gradients for the chunk, and the returned weights it mutates.
pub(super) fn reconcile(
    ops: &mut [Vec<Op>],
    g: usize,
    hb: usize,
    updates: &[(usize, usize, MsgKey, Option<MsgKey>)],
) {
    let groups = ops.len() / g;
    let bridge = |j: usize| j * g + g - 1;
    let key = MsgKey::weight_grads;
    let r_gather = hb + 1;

    // 1. Gather at the bridge (intra-group).
    for (j, group) in updates.chunks(g).enumerate() {
        let b = bridge(j);
        for (c, &(_, u, grads, _)) in group.iter().enumerate() {
            if u != b {
                ops[u].push(Op::send(key(c, r_gather, u, b)).needs(grads));
                ops[b].push(Op::recv(key(c, r_gather, u, b)));
            }
        }
    }

    // Chunk-c gradients as seen by the bridge of group `j`: its own
    // contribution if it is the updater, else the gathered copy.
    let local_grad = |j: usize, c: usize| {
        let (_, u, grads, _) = updates[j * g + c];
        if u == bridge(j) {
            grads
        } else {
            key(c, r_gather, u, bridge(j))
        }
    };
    // Every bridge hop runs from group j − 1 to group j.
    let arrived = |c: usize, round: usize, j: usize| {
        key(c, round, bridge((j + groups - 1) % groups), bridge(j))
    };

    // Dependencies that pin the full chunk-c sum at group j's bridge
    // after the ring phases below: at the owner, the last partial-sum
    // arrival plus its own contribution; elsewhere, the broadcast hop
    // that delivered it.
    let full_sum = |j: usize, c: usize| -> Vec<MsgKey> {
        let o = c % groups;
        if j == o {
            vec![arrived(c, hb + groups, o), local_grad(o, c)]
        } else {
            let t = (j + groups - o - 1) % groups; // j == o+1+t
            vec![arrived(c, hb + groups + 1 + t, j)]
        }
    };

    // 2. Ring-reduce each chunk to its owner bridge, then ring-broadcast
    //    the sum back — `2·(G−1)` bridge hops per chunk, the classic
    //    all-reduce byte count `2·(G−1)·M` in total (a store-and-forward
    //    all-gather would cost `G·(G−1)·M` and forfeit most of the
    //    hierarchy's traffic win). Chunk ownership rotates (`o = c % G`)
    //    so the hop load balances across the bridge ring. Hop `h` runs in
    //    round `hb + 2 + h` and leaves bridge `o + 1 + h`: reduce hops
    //    (`h < G − 1`) carry the partial sum of groups `o+1..=o+1+h`,
    //    broadcast hops the full sum. Round by round, each bridge sends
    //    before it receives, so every stream's strict in-order execution
    //    finds its dependencies already satisfied.
    for h in 0..2 * (groups - 1) {
        let round = hb + 2 + h;
        for j in 0..groups {
            let (from, to) = ((j + groups - 1) % groups, (j + 1) % groups);
            for c in (0..g).filter(|c| (c + 1 + h) % groups == j) {
                let mut send = Op::send(key(c, round, bridge(j), bridge(to)));
                if h + 1 < groups {
                    send.needs.push(local_grad(j, c));
                    if h > 0 {
                        send.needs.push(arrived(c, round - 1, j));
                    }
                } else {
                    send.needs.extend(full_sum(j, c));
                }
                ops[bridge(j)].push(send);
            }
            for c in (0..g).filter(|c| (c + 1 + h) % groups == from) {
                ops[bridge(j)].push(Op::recv(arrived(c, round, j)));
            }
        }
    }

    // 3. Fan the reduced gradients back out (intra-group) and run the
    //    optimizer steps.
    let r_fan = hb + 2 * groups;
    for (j, group) in updates.chunks(g).enumerate() {
        let b = bridge(j);
        for (c, &(_, u, _, weights)) in group.iter().enumerate() {
            let mut update = Op::compute(OpKind::Update { chunk: c });
            if u == b {
                update.needs.extend(full_sum(j, c));
            } else {
                let fo = key(c, r_fan, b, u);
                let mut send = Op::send(fo);
                send.needs.extend(full_sum(j, c));
                ops[b].push(send);
                ops[u].push(Op::recv(fo));
                update = update.needs(fo);
            }
            update.needs.extend(weights);
            ops[u].push(update);
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::builders::{build, PipelineSpec};
    use crate::ir::{MsgKey, MsgKind, Op, OpKind, Strategy};

    /// Group `j` runs the flat interleave of `g` ranks and `N·g/P`
    /// microbatches moved to ranks `j·g ..` and to the global microbatches
    /// those ranks own; only the optimizer steps wait for reconciliation.
    /// The relocation is the oracle: what each flat stream runs before its
    /// `Update` starts its rank's grouped stream, and what it runs after
    /// (the waits on arrivals nothing reads) ends it.
    #[test]
    fn a_grouped_ring_is_the_flat_ring_relocated() {
        for (p, g, n) in [(6, 3, 12), (12, 3, 12), (12, 4, 24), (12, 6, 24)] {
            for overlap in [true, false] {
                for recompute in [true, false] {
                    let spec = PipelineSpec {
                        recompute,
                        ..PipelineSpec::new(p, n).with_overlap(overlap)
                    };
                    let grouped = build(Strategy::WeiPipeHier, spec.with_knob(g));
                    let n_local = n * g / p;
                    let flat = build(
                        Strategy::WeiPipeInterleave,
                        PipelineSpec {
                            ranks: g,
                            microbatches: n_local,
                            ..spec
                        },
                    );
                    let at = format!("P={p} g={g} N={n} overlap={overlap} recompute={recompute}");
                    for base in (0..p).step_by(g) {
                        // Local microbatch m belongs to local rank m % g;
                        // the flow and no-microbatch sentinels stay.
                        let mb = |m: usize| {
                            if m < n_local {
                                m % g + base + (m / g) * p
                            } else {
                                m
                            }
                        };
                        let key = |k: MsgKey| MsgKey {
                            mb: mb(k.mb),
                            src: k.src + base,
                            dst: k.dst + base,
                            ..k
                        };
                        let relocate = |op: &Op| {
                            let mut op = op.clone();
                            match &mut op.kind {
                                OpKind::Fwd { mb: m, .. }
                                | OpKind::BwdFull { mb: m, .. }
                                | OpKind::BwdData { mb: m, .. }
                                | OpKind::BwdWeight { mb: m, .. } => *m = mb(*m),
                                OpKind::Send(k) | OpKind::Recv(k) => *k = key(*k),
                                _ => {}
                            }
                            for k in &mut op.needs {
                                *k = key(*k);
                            }
                            op
                        };
                        for (q, stream) in flat.ops.iter().enumerate() {
                            let step = (stream.iter())
                                .position(|op| matches!(op.kind, OpKind::Update { .. }))
                                .expect("every flat rank steps its home chunk");
                            let [head, tail] = [&stream[..step], &stream[step + 1..]]
                                .map(|ops| ops.iter().map(relocate).collect::<Vec<Op>>());
                            let r = base + q;
                            assert!(grouped.ops[r].starts_with(&head), "{at}: rank {r}");
                            assert!(grouped.ops[r].ends_with(&tail), "{at}: rank {r}");
                            assert_eq!(grouped.seeds[r], flat.seeds[q], "{at}: rank {r}");
                        }
                    }
                    assert_eq!(grouped.initial_holder, flat.initial_holder, "{at}");
                    assert_eq!(grouped.chunks, g, "{at}");
                    assert_eq!(grouped.recompute, flat.recompute, "{at}");
                }
            }
        }
    }

    /// No group (or `group == P`) is one ring spanning the world: the
    /// interleave schedule, field for field, under another strategy tag.
    #[test]
    fn hier_single_group_degenerates_to_flat_interleave() {
        for p in [2, 3, 4] {
            for overlap in [true, false] {
                let spec = PipelineSpec::new(p, 2 * p).with_overlap(overlap);
                let flat = build(Strategy::WeiPipeInterleave, spec);
                for hier in [spec, spec.with_knob(p)].map(|s| build(Strategy::WeiPipeHier, s)) {
                    let at = format!("P={p} overlap={overlap} knob={:?}", spec.knob);
                    assert_eq!(hier.strategy, Strategy::WeiPipeHier, "{at}");
                    assert_eq!(
                        (hier.ranks, hier.chunks, hier.microbatches, hier.recompute),
                        (flat.ranks, flat.chunks, flat.microbatches, flat.recompute),
                        "{at}"
                    );
                    assert_eq!(hier.ops, flat.ops, "{at}");
                    assert_eq!(hier.seeds, flat.seeds, "{at}");
                    assert_eq!(hier.initial_holder, flat.initial_holder, "{at}");
                }
            }
        }
    }

    #[test]
    fn hier_grouped_schedule_validates_and_partitions_microbatches() {
        for (p, g, n) in [(4, 2, 8), (8, 4, 16), (8, 2, 8), (6, 3, 12)] {
            let s = build(Strategy::WeiPipeHier, PipelineSpec::new(p, n).with_knob(g));
            crate::validate(&s).unwrap_or_else(|e| panic!("p={p} g={g} n={n}: {e}"));
            assert_eq!(s.chunks, g);
            // Microbatch ownership stays `mb % P` in every group, so each
            // group's ring trains exactly its own slice of the batch.
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
        let s = build(Strategy::WeiPipeHier, PipelineSpec::new(p, n).with_knob(g));
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
