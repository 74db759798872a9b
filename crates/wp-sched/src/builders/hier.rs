//! WeiPipe-Hier: one weight ring per group of ranks.

use super::ring::build_ring;
use super::{Knob, PipelineSpec};
use crate::ir::{MsgKey, MsgKind, Op, OpKind, Schedule, Strategy};

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
    let Some((Knob::Group, g)) = spec.knob(Strategy::WeiPipeHier) else {
        unreachable!("WeiPipe-Hier reads the group knob");
    };
    let groups = p / g;
    let n_local = n / groups;

    // Each group runs the same interleaved local ring; build it once and
    // splice `groups` remapped copies into the world schedule.
    // `hb` is the local backward horizon — the last round number the
    // spliced rings use; reconciliation rounds start above it.
    let (local, hb) = build_ring(
        Strategy::WeiPipeInterleave,
        PipelineSpec {
            ranks: g,
            microbatches: n_local,
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
        mb: remap_mb(k.mb, base),
        src: k.src + base,
        dst: k.dst + base,
        ..*k
    };
    let remap_op = |op: &Op, base: usize| -> Op {
        let mut op = op.clone();
        match &mut op.kind {
            OpKind::Fwd { mb, .. }
            | OpKind::BwdFull { mb, .. }
            | OpKind::BwdData { mb, .. }
            | OpKind::BwdWeight { mb, .. } => *mb = remap_mb(*mb, base),
            OpKind::Send(k) | OpKind::Recv(k) | OpKind::PrePost(k) | OpKind::WaitReq(k) => {
                *k = remap_key(k, base);
            }
            _ => {} // Update; collectives never occur
        }
        for k in &mut op.needs {
            *k = remap_key(k, base);
        }
        op
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
        let bridge = |j: usize| j * g + g - 1;
        let key = MsgKey::weight_grads;
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
        let local_grad = |j: usize, c: usize| {
            let (u, grad, _) = info[j][c];
            if u == bridge(j) {
                grad
            } else {
                key(c, r_gather, u, bridge(j))
            }
        };

        // Dependencies that pin the full chunk-c sum at group j's bridge
        // after the ring phases below: at the owner, the last partial-sum
        // arrival plus its own contribution; elsewhere, the broadcast hop
        // that delivered it.
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
                let sj = (o + t) % groups;
                let rj = (o + 1 + t) % groups;
                hops.push((hb + groups + 1 + t, sj, rj, c, full_sum(sj, c)));
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
                        send.needs.extend(needs);
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

        // 3. Fan the reduced gradients back out (intra-group) and run
        //    the deferred optimizer steps.
        let r_fan = hb + 2 * groups;
        for (j, group_info) in info.iter().enumerate() {
            let b = bridge(j);
            for (c, &(u, _, weights)) in group_info.iter().enumerate() {
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

#[cfg(test)]
mod tests {
    use crate::builders::{build, PipelineSpec};
    use crate::ir::{MsgKind, OpKind, Strategy};

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
