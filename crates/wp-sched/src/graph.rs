//! The schedule IR's dependency semantics, as a value.
//!
//! [`DepGraph::build`] is the one statement of "which op waits on which".
//! The validator ([`mod@crate::validate`]), the simulator (`wp-sim`, both its
//! drivers), its timeline checker and every later walk (gradient
//! provenance, lifespans, critical path) read this graph; none re-derives
//! it from `needs` lists, cursors or arrival tables.
//!
//! ## Nodes and messages
//!
//! A **node** is one op: [`Node`]` { rank, op }`, `op` indexing the rank's
//! stream. A **message** is what ops wait for, with a dense id:
//!
//! * one per `Send` — *made* by that send, delivered to `key.dst`, where
//!   exactly one `Recv` receives it;
//! * one per collective rendezvous ([`OpKind::rendezvous`]) — *made* by all
//!   `P` ranks' entries together, delivered to every rank under that rank's
//!   own completion key ([`OpKind::collective_key`]).
//!
//! A key is only ever visible on the rank it is delivered to: an op that
//! names a key with another `dst` — as its own key or in `needs` — is
//! rejected, as is a key sent twice, received twice or never, and a
//! rendezvous entered by fewer than `P` ranks or twice by one.
//!
//! ## Edges
//!
//! Every op waits for the makers of every message in its **wait list**
//! ([`DepGraph::waits`]) and for its program predecessor; [`DepGraph::preds`]
//! spells that out as typed edges ([`EdgeKind`]):
//!
//! | edge | from → to | blocks the runtime thread | priced by the DES |
//! |---|---|---|---|
//! | `Program` | op `i − 1` → op `i` of one rank | yes — a rank is one thread running its stream in order | no — so in an overlap schedule no compute op sits between a `Recv` and the first op naming its key, and a receive nothing names sits after the rank's last compute op (`overlap_receives_wait_where_they_are_consumed`, `tests/props.rs`) |
//! | `AfterCompute` | the rank's latest earlier compute op → a compute op (engine order), or a send / collective entry with `after_compute` (its payload is produced locally) | implied by `Program` | yes |
//! | `Message(key)` | `Send(key)` → its `Recv`, and → every op with `key` in `needs` | a `Recv` returns at arrival; `needs` is not consulted (the builder places the receive first, with no compute op in between; see `Program`) | yes: a receive ends at arrival, an op starts after its needs' arrivals |
//! | `Rendezvous(key)` | each of the `P` entries → every op with the completion key in `needs`, and → the rank's next collective entry (one collective engine per rank) | — | yes |
//! | `Barrier(key)` | each of the `P` entries → the program successor of the rank's own entry | yes — a collective returns when every rank has entered | only without overlap, where a collective also occupies the compute engine |
//!
//! **Deadlock freedom** is: the graph is acyclic, i.e.
//! [`DepGraph::topological_order`] reaches every node. The simulator prices
//! ops in that order; because every value an op's price reads is written by
//! one of its predecessors here, *any* order consistent with the graph
//! prices the same bits (`wp_sim::engine::simulate_reference` is the
//! round-robin proof).

use crate::ir::{MsgKey, OpKind, Schedule};
use crate::validate::ValidationError;
use std::collections::HashMap;

const NONE: u32 = u32::MAX;

/// One op of a schedule: `(rank, index into the rank's stream)`.
pub type Node = (usize, usize);

/// Why one op waits for another; the module docs tabulate the kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)]
pub enum EdgeKind {
    Program,
    AfterCompute,
    Message(MsgKey),
    Rendezvous(MsgKey),
    Barrier(MsgKey),
}

impl EdgeKind {
    /// Whether the simulator's clock honours the edge: an op never starts
    /// (a receive never ends) before a priced predecessor has ended.
    pub fn is_priced(&self) -> bool {
        use EdgeKind::*;
        matches!(self, AfterCompute | Message(_) | Rendezvous(_))
    }
}

/// The dependency graph of one schedule; see the module docs.
#[derive(Debug)]
pub struct DepGraph<'s> {
    /// The schedule the graph was built from.
    pub schedule: &'s Schedule,
    /// Node id of each rank's op 0, then the node count.
    first: Vec<u32>,
    /// Per node: the message its op makes, receives or enters.
    msg: Vec<u32>,
    /// Per node (plus an end mark): where its wait list starts in `waits`.
    waits_at: Vec<u32>,
    waits: Vec<u32>,
    /// Per message (plus an end mark): where its makers start in `makers` —
    /// a send's one node, a rendezvous' `P` entries in rank order.
    makers_at: Vec<u32>,
    makers: Vec<u32>,
}

/// What orders one rank's inbox: the key minus its `dst`.
fn sort_key(k: &MsgKey) -> (u8, usize, usize, usize, usize) {
    (k.kind as u8, k.chunk, k.mb, k.round, k.src)
}

impl<'s> DepGraph<'s> {
    /// Match every message's makers to its waiters, or name the op that
    /// cannot be matched (rank, op index, key).
    pub fn build(s: &'s Schedule) -> Result<Self, ValidationError> {
        let p = s.ranks;
        let mut first = vec![0];
        for ops in &s.ops {
            first.push(first[first.len() - 1] + ops.len() as u32);
        }
        let nodes = first[p] as usize;
        let mut g = DepGraph {
            schedule: s,
            first,
            msg: vec![NONE; nodes],
            waits_at: Vec::with_capacity(nodes + 1),
            waits: Vec::new(),
            makers_at: vec![0],
            makers: Vec::new(),
        };
        let err = |(r, i): Node, what: String| {
            let kind = &s.ops[r][i].kind;
            Err(ValidationError(format!("rank {r} op {i} {kind:?} {what}")))
        };
        let each_op = || (0..p).flat_map(|r| (0..s.ops[r].len()).map(move |i| (r, i)));

        // Makers: every send and collective entry gets its message, and
        // the message a place in the inbox of the rank it is delivered to.
        let mut inbox = vec![Vec::new(); p];
        let mut rendezvous = HashMap::new();
        for at @ (r, i) in each_op() {
            let (node, fresh) = (g.id(at) as u32, g.messages() as u32);
            let (m, dst, key) = match &s.ops[r][i].kind {
                OpKind::Send(k) if k.src != r || k.dst == r || k.dst >= p => {
                    return err(at, "is not a send from its rank to another".into());
                }
                OpKind::Send(k) => {
                    g.makers.push(node);
                    (fresh, k.dst, *k)
                }
                kind if kind.is_collective() => {
                    let m = *rendezvous.entry(kind.rendezvous()).or_insert(fresh);
                    if m == fresh {
                        g.makers.resize(g.makers.len() + p, NONE);
                    }
                    // (Entered twice, the inbox shows the key twice.)
                    g.makers[g.makers_at[m as usize] as usize + r] = node;
                    (m, r, kind.collective_key(r))
                }
                _ => continue,
            };
            if m == fresh {
                g.makers_at.push(g.makers.len() as u32);
            }
            g.msg[node as usize] = m;
            inbox[dst].push((sort_key(&key), m, node));
        }
        if let Some(hole) = g.makers.iter().position(|&n| n == NONE) {
            let m = g.makers_at.partition_point(|&at| at as usize <= hole) - 1;
            let missing: Vec<usize> = (0..p).filter(|&r| g.makers(m)[r] == NONE).collect();
            let entered = g.makers(m).iter().find(|&&n| n != NONE).expect("one");
            let (rank, op) = g.node(*entered);
            let kind = &s.ops[rank][op].kind;
            return Err(ValidationError(format!(
                "rendezvous {kind:?} entered by {} of {p} ranks (missing: {missing:?}): \
                 rank {rank} op {op} waits for {:?} forever",
                p - missing.len(),
                kind.collective_key(rank)
            )));
        }
        for (r, inbox) in inbox.iter_mut().enumerate() {
            inbox.sort_unstable();
            if let Some(w) = inbox.windows(2).find(|w| w[0].0 == w[1].0) {
                let ((a, i), twin) = (g.node(w[0].2), g.node(w[1].2));
                return err(
                    twin,
                    format!("duplicates the key rank {a} op {i} sends rank {r}"),
                );
            }
        }
        let find = |r: usize, k: &MsgKey| {
            let at = inbox[r].binary_search_by(|e| e.0.cmp(&sort_key(k)));
            at.ok().map(|at| inbox[r][at].1)
        };

        // Waiters, in each rank's program order; `received[m]` once a
        // `Recv` has taken message `m`.
        let mut received = vec![false; g.messages()];
        for at @ (r, i) in each_op() {
            let (ops, op, id) = (&s.ops[r], &s.ops[r][i], g.id(at));
            g.waits_at.push(g.waits.len() as u32);
            for k in &op.needs {
                let Some(m) = find(r, k).filter(|_| k.dst == r) else {
                    return err(at, format!("needs {k:?}, which no op delivers to rank {r}"));
                };
                g.waits.push(m);
            }
            if let OpKind::Recv(k) = &op.kind {
                let Some(m) = find(r, k).filter(|_| k.dst == r && k.src != r) else {
                    return err(at, format!("has no matching send to rank {r}"));
                };
                if std::mem::replace(&mut received[m as usize], true) {
                    return err(at, "receives a message already received".into());
                }
                g.msg[id] = m;
                g.waits.push(m);
            }
            if i > 0 && ops[i - 1].kind.is_collective() {
                g.waits.push(g.msg[id - 1]);
            }
        }
        g.waits_at.push(g.waits.len() as u32);
        for (m, &taken) in received.iter().enumerate() {
            let sender @ (rank, op) = g.node(g.makers(m)[0]);
            if !taken && matches!(s.ops[rank][op].kind, OpKind::Send(_)) {
                return err(sender, "has no matching recv".into());
            }
        }
        Ok(g)
    }

    /// How many messages there are; their ids are `0..messages()`.
    pub fn messages(&self) -> usize {
        self.makers_at.len() - 1
    }

    fn id(&self, (rank, op): Node) -> usize {
        self.first[rank] as usize + op
    }

    fn node(&self, id: u32) -> Node {
        let rank = self.first.partition_point(|&f| f <= id) - 1;
        (rank, (id - self.first[rank]) as usize)
    }

    /// The message `n`'s op makes (`Send`, collective entry) or receives
    /// (`Recv`); `None` for a compute op.
    pub fn message(&self, n: Node) -> Option<usize> {
        Some(self.msg[self.id(n)] as usize).filter(|&m| m != NONE as usize)
    }

    /// The messages that must be complete before `n` may start: its `needs`
    /// in their order, then its own key if it is a `Recv`,
    /// then the rendezvous its program predecessor entered.
    pub fn waits(&self, n: Node) -> &[u32] {
        let id = self.id(n);
        &self.waits[self.waits_at[id] as usize..self.waits_at[id + 1] as usize]
    }

    /// The nodes that make message `m`: its send, or its `P` entries.
    fn makers(&self, m: usize) -> &[u32] {
        &self.makers[self.makers_at[m] as usize..self.makers_at[m + 1] as usize]
    }

    /// Every edge into `to`, as `(from, why)`.
    pub fn preds(&self, to @ (rank, i): Node) -> Vec<(Node, EdgeKind)> {
        let (ops, own) = (&self.schedule.ops[rank], self.msg[self.id(to)]);
        let op = &ops[i];
        let latest = |is: fn(&OpKind) -> bool| ops[..i].iter().rposition(|o| is(&o.kind));
        let mut out = Vec::new();
        // Edges from a message's makers: `(message, is the barrier edge)`.
        let mut via: Vec<(u32, bool)> = Vec::new();
        if i > 0 {
            out.push(((rank, i - 1), EdgeKind::Program));
            if ops[i - 1].kind.is_collective() {
                via.push((self.msg[self.id(to) - 1], true));
            }
        }
        if let Some(c) =
            latest(OpKind::is_compute).filter(|_| op.kind.is_compute() || op.after_compute)
        {
            out.push(((rank, c), EdgeKind::AfterCompute));
        }
        via.extend(self.waits(to)[..op.needs.len()].iter().map(|&m| (m, false)));
        match op.kind {
            OpKind::Recv(_) => via.push((own, false)),
            // One collective engine per rank: behind the previous entry's.
            _ if op.kind.is_collective() => {
                let before = latest(OpKind::is_collective).map(|e| self.msg[self.id((rank, e))]);
                via.extend(before.map(|m| (m, false)));
            }
            _ => {}
        }
        for (m, barrier) in via {
            let makers = self.makers(m as usize);
            let (r, o) = self.node(makers[0]);
            let kind = match &self.schedule.ops[r][o].kind {
                OpKind::Send(k) => EdgeKind::Message(*k),
                entry if barrier => EdgeKind::Barrier(entry.collective_key(rank)),
                entry => EdgeKind::Rendezvous(entry.collective_key(rank)),
            };
            out.extend(makers.iter().map(|&from| (self.node(from), kind)));
        }
        out
    }

    /// Every node, each after all its predecessors (Kahn over the rank
    /// cursors: with program order total per rank, only the op at a rank's
    /// cursor can be next, and completing a message can unblock only the
    /// cursors of the ranks it is delivered to). A schedule that deadlocks
    /// has no such order; the error walks one cycle hop by hop.
    pub fn topological_order(&self) -> Result<Vec<Node>, ValidationError> {
        let (s, p) = (self.schedule, self.schedule.ranks);
        // Per message, how many of its makers have not run yet.
        let mut left: Vec<usize> = (0..self.messages()).map(|m| self.makers(m).len()).collect();
        let mut cursor = vec![0; p];
        let mut order = Vec::with_capacity(self.msg.len());
        let mut runnable: Vec<usize> = (0..p).rev().collect();
        while let Some(rank) = runnable.pop() {
            while let Some(op) = s.ops[rank].get(cursor[rank]) {
                let node = (rank, cursor[rank]);
                if self.waits(node).iter().any(|&m| left[m as usize] > 0) {
                    break;
                }
                order.push(node);
                cursor[rank] += 1;
                let delivered_to = match op.kind {
                    OpKind::Send(k) => k.dst..k.dst + 1,
                    _ if op.kind.is_collective() => 0..p,
                    _ => continue,
                };
                let m = self.msg[self.id(node)] as usize;
                left[m] -= 1;
                if left[m] == 0 {
                    runnable.extend(delivered_to.rev().filter(|&r| r != rank));
                }
            }
        }
        let Some(mut rank) = (0..p).find(|&r| cursor[r] < s.ops[r].len()) else {
            return Ok(order);
        };
        // The op at every stuck cursor has a predecessor that has not run,
        // at or behind another stuck cursor: follow that until a rank
        // repeats.
        let name = |(r, i): Node| {
            let kind = format!("{:?}", s.ops[r][i].kind);
            format!(
                "rank {r} op {i} {}",
                kind.split(['(', ' ']).next().unwrap_or("")
            )
        };
        let mut hops: Vec<(usize, String)> = Vec::new();
        while !hops.iter().any(|h| h.0 == rank) {
            let at = (rank, cursor[rank]);
            let (from, why) = (self.preds(at).into_iter())
                .find(|&((r, i), _)| i >= cursor[r])
                .expect("a stuck op waits for one that has not run");
            hops.push((rank, format!("{} —[{why:?}]→ {}", name(at), name(from))));
            rank = from.0;
        }
        let cycle: Vec<String> = (hops.into_iter().skip_while(|h| h.0 != rank))
            .map(|h| h.1)
            .collect();
        let cycle = cycle.join(", behind ");
        Err(ValidationError(format!(
            "deadlock: {cycle}, behind the first"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build, PipelineSpec, ALL_STRATEGIES};
    use crate::ir::{Op, Strategy};

    #[test]
    fn every_builder_yields_an_acyclic_graph_spanning_every_op() {
        for &strategy in ALL_STRATEGIES {
            for overlap in [true, false] {
                let s = build(strategy, PipelineSpec::new(4, 8).with_overlap(overlap));
                let g = DepGraph::build(&s).unwrap_or_else(|e| panic!("{strategy:?}: {e}"));
                let order = g.topological_order().expect("acyclic");
                assert_eq!(order.len(), s.total_ops(), "{strategy:?}");
                // Every edge points backwards in the order.
                let mut at = std::collections::HashMap::new();
                for (t, &n) in order.iter().enumerate() {
                    at.insert(n, t);
                    for e in g.preds(n) {
                        assert!(at.get(&e.0).is_some_and(|&f| f < t), "{strategy:?} {e:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_recv_before_send_cross_prints_both_hops_of_its_cycle() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        let (there, back) = (MsgKey::act(0, 0, 1), MsgKey::act_grad(0, 1, 0));
        s.ops = vec![
            vec![Op::recv(back), Op::send(there)],
            vec![Op::recv(there), Op::send(back)],
        ];
        let graph = DepGraph::build(&s).expect("matched");
        let err = graph.topological_order().unwrap_err();
        let want = format!(
            "deadlock: rank 0 op 0 Recv —[Message({back:?})]→ rank 1 op 1 Send, behind \
             rank 1 op 0 Recv —[Message({there:?})]→ rank 0 op 1 Send, behind the first"
        );
        assert_eq!(err.0, want);
    }

    #[test]
    fn typed_edges_of_a_ring_turn() {
        let s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(2, 4));
        let g = DepGraph::build(&s).expect("valid");
        let find = |rank: usize, f: &dyn Fn(&OpKind) -> bool| {
            let op = s.ops[rank].iter().position(|o| f(&o.kind));
            (rank, op.expect("op"))
        };
        let recv = find(1, &|k| matches!(k, OpKind::Recv(_)));
        let OpKind::Recv(key) = s.ops[1][recv.1].kind else {
            unreachable!()
        };
        let preds = g.preds(recv);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0], ((1, recv.1 - 1), EdgeKind::Program));
        let send = preds[1].0;
        assert_eq!(preds[1].1, EdgeKind::Message(key));
        assert_eq!(s.ops[send.0][send.1].kind, OpKind::Send(key));
        assert_eq!(g.message(send), g.message(recv));
        // A compute op is behind the rank's previous one, and priced so.
        let bwd = find(0, &|k| matches!(k, OpKind::BwdFull { .. }));
        let engine = g
            .preds(bwd)
            .into_iter()
            .find(|e| e.1 == EdgeKind::AfterCompute);
        assert!(engine.is_some_and(|((r, i), _)| s.ops[r][i].kind.is_compute()));
        assert!(EdgeKind::AfterCompute.is_priced() && !EdgeKind::Program.is_priced());
    }

    #[test]
    fn a_key_received_twice_or_never_is_rejected() {
        let s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(2, 4));
        let at = (s.ops[1].iter())
            .position(|o| matches!(o.kind, OpKind::Recv(_)))
            .expect("a receive");
        let mut twice = s.clone();
        twice.ops[1].insert(at, s.ops[1][at].clone());
        let err = DepGraph::build(&twice).unwrap_err();
        assert!(err.0.contains("already received"), "{err}");
        let mut never = s.clone();
        never.ops[1].remove(at);
        let err = DepGraph::build(&never).unwrap_err();
        assert!(err.0.contains("has no matching recv"), "{err}");
    }

    #[test]
    fn collectives_wait_for_every_entry_and_block_their_successor() {
        let s = build(Strategy::Ddp, PipelineSpec::new(2, 2).with_knob(2));
        let g = DepGraph::build(&s).expect("valid");
        let entries: Vec<usize> = (0..s.ops[0].len())
            .filter(|&i| s.ops[0][i].kind.is_collective())
            .collect();
        let first_key = s.ops[0][entries[0]].kind.collective_key(0);
        let preds = g.preds((0, entries[1]));
        for kind in [
            EdgeKind::Barrier(first_key),
            EdgeKind::Rendezvous(first_key),
        ] {
            let from: Vec<usize> = (preds.iter().filter(|e| e.1 == kind))
                .map(|e| e.0 .0)
                .collect();
            assert_eq!(from, [0, 1], "{kind:?}");
        }
        assert_eq!(g.messages(), 2);
    }

    #[test]
    fn ranks_entering_two_collectives_in_opposite_orders_deadlock() {
        let mut s = build(Strategy::Ddp, PipelineSpec::new(2, 2).with_knob(2));
        let entries: Vec<usize> = (0..s.ops[1].len())
            .filter(|&i| s.ops[1][i].kind.is_collective())
            .collect();
        s.ops[1].swap(entries[0], entries[1]);
        let graph = DepGraph::build(&s).expect("matched");
        let err = graph.topological_order().unwrap_err();
        assert!(
            err.0.contains("AllReduceD —[Barrier(") && err.0.contains("behind"),
            "{err}"
        );
    }

    #[test]
    fn a_need_delivered_to_another_rank_is_rejected() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(4, 4));
        // Rank 2's first forward names the activations rank 1 is sent.
        let foreign = MsgKey::act(0, 0, 1);
        let at = (s.ops[2].iter())
            .position(|o| !o.needs.is_empty())
            .expect("a need");
        s.ops[2][at].needs[0] = foreign;
        let err = DepGraph::build(&s).unwrap_err();
        let want = format!(
            "rank 2 op {at} Fwd {{ mb: 0, chunk: 2 }} needs {foreign:?}, which no op delivers to rank 2"
        );
        assert_eq!(err.0, want);
    }

    #[test]
    fn a_short_rendezvous_names_the_missing_ranks() {
        let mut s = build(Strategy::Ddp, PipelineSpec::new(4, 4));
        let at = (s.ops[2].iter())
            .position(|o| o.kind.is_collective())
            .expect("entry");
        s.ops[2].remove(at);
        let err = DepGraph::build(&s).unwrap_err();
        assert!(
            err.0.starts_with(
                "rendezvous AllReduceD { chunk: 0, round: 0 } entered by 3 of 4 ranks (missing: [2]): rank 0 op"
            ),
            "{err}"
        );
    }
}
