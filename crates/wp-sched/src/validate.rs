//! Static schedule validation.
//!
//! [`validate`] proves a schedule is *physically executable* before any
//! simulator or runtime touches it:
//!
//! 1. **Message consistency** — the dependency graph builds
//!    ([`DepGraph::build`]): every message's makers and waiters match up.
//! 2. **Compute coverage** — every (microbatch × chunk) is forwarded exactly
//!    once and backwarded exactly once (fused, or B-then-W on one rank);
//!    every chunk is updated at least once.
//! 3. **Memory balance** — per rank, the running sum of every [`MemUnit`]
//!    the op streams imply ([`mem_deltas`](crate::analysis::mem_deltas))
//!    never goes negative and returns to zero over the iteration: no
//!    buffer is freed before the pass that makes it, or leaked.
//! 4. **Deadlock freedom** — that graph is acyclic
//!    ([`DepGraph::topological_order`]); a failure prints the cycle.
//! 5. **Slot availability** — in each rank's program order, every weight
//!    copy an op reads or sends is one the rank holds by then: a seed
//!    ([`Schedule::seeds`]) or an earlier `Recv`/`AllGatherW`.
//!
//! Ahead of all five, every `Send` and `Recv` key must fit its wire tag
//! ([`MsgKey::tag`](crate::ir::MsgKey::tag)), so a key the runtime could
//! not encode fails here, naming its rank, op and key, and not on a rank
//! thread mid-iteration.

use crate::graph::DepGraph;
use crate::ir::{weight_slot, MemUnit, MsgKind, OpKind, Schedule, RESIDENT, SHARDED};
use std::collections::{HashMap, HashSet};

/// A validation failure, with context.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidationError(pub String);

impl std::fmt::Display for ValidationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "schedule validation failed: {}", self.0)
    }
}

impl std::error::Error for ValidationError {}

/// Validate a schedule. Returns the first problem found.
pub fn validate(s: &Schedule) -> Result<(), ValidationError> {
    check_tags(s)?;
    let graph = DepGraph::build(s)?;
    check_coverage(s)?;
    check_memory_balance(s)?;
    graph.topological_order()?;
    check_slots(s)
}

/// Every point-to-point key must have a wire tag
/// ([`MsgKey::tag`](crate::ir::MsgKey::tag)), or the runtime could not send it.
fn check_tags(s: &Schedule) -> Result<(), ValidationError> {
    for (r, ops) in s.ops.iter().enumerate() {
        for (i, op) in ops.iter().enumerate() {
            if let OpKind::Send(k) | OpKind::Recv(k) = op.kind {
                if k.tag().is_none() {
                    return Err(ValidationError(format!(
                        "rank {r} op {i} {:?} has no wire tag (chunk < 4096, \
                         mb < 65280, round < 262144)",
                        op.kind
                    )));
                }
            }
        }
    }
    Ok(())
}

fn check_coverage(s: &Schedule) -> Result<(), ValidationError> {
    // In data-parallel strategies each rank covers its own microbatches; in
    // pipelines every microbatch covers every chunk. Either way the global
    // invariant is the same: (mb, chunk) forwarded exactly once. Per
    // (mb, chunk): runs of [Fwd, BwdFull, BwdData, BwdWeight], and the rank
    // of the last B and W pass.
    let mut ran: HashMap<(usize, usize), ([usize; 4], [usize; 2])> = HashMap::new();
    let mut updated = HashSet::new();
    for (rank, op) in s.iter_ops() {
        let (pass, mb, chunk) = match op.kind {
            OpKind::Fwd { mb, chunk } => (0, mb, chunk),
            OpKind::BwdFull { mb, chunk } => (1, mb, chunk),
            OpKind::BwdData { mb, chunk } => (2, mb, chunk),
            OpKind::BwdWeight { mb, chunk } => (3, mb, chunk),
            OpKind::Update { chunk } => {
                updated.insert(chunk);
                continue;
            }
            _ => continue,
        };
        let (runs, on) = ran.entry((mb, chunk)).or_default();
        runs[pass] += 1;
        if pass >= 2 {
            on[pass - 2] = rank;
        }
    }
    for (mb, c) in (0..s.microbatches).flat_map(|mb| (0..s.chunks).map(move |c| (mb, c))) {
        let ([f, full, b, w], on) = ran.get(&(mb, c)).copied().unwrap_or_default();
        if f != 1 {
            return Err(ValidationError(format!("Fwd(mb={mb}, chunk={c}) ran {f}×")));
        }
        if ![[1, 0, 0], [0, 1, 1]].contains(&[full, b, w]) {
            return Err(ValidationError(format!(
                "backward of (mb={mb}, chunk={c}) malformed: full={full} B={b} W={w}"
            )));
        }
        if b == 1 && on[0] != on[1] {
            return Err(ValidationError(format!(
                "B and W passes of (mb={mb}, chunk={c}) on different ranks"
            )));
        }
    }
    match (0..s.chunks).find(|c| !updated.contains(c)) {
        Some(c) => Err(ValidationError(format!("chunk {c} is never updated"))),
        None => Ok(()),
    }
}

fn check_memory_balance(s: &Schedule) -> Result<(), ValidationError> {
    for (r, (ops, ledger)) in s.ops.iter().zip(crate::analysis::mem_deltas(s)).enumerate() {
        let mut sums: HashMap<MemUnit, i64> = HashMap::new();
        for (i, op) in ops.iter().enumerate() {
            for (u, d) in ledger.of(i) {
                let e = sums.entry(u).or_insert(0);
                *e += d;
                if *e < 0 {
                    return Err(ValidationError(format!(
                        "rank {r}: {u:?} balance went negative at {:?}",
                        op.kind
                    )));
                }
            }
        }
        for (u, v) in sums {
            if v != 0 {
                return Err(ValidationError(format!("rank {r}: {u:?} leaks {v} units")));
            }
        }
    }
    Ok(())
}

/// Walk each rank's program with the set of weight slots it holds: seeds,
/// then what its receives and all-gathers deliver. A weight send, an
/// all-gather and every compute op that reads weights must find its slot.
fn check_slots(s: &Schedule) -> Result<(), ValidationError> {
    for (r, ops) in s.ops.iter().enumerate() {
        let mut held: HashSet<(usize, usize)> = s.seeds[r].iter().copied().collect();
        for op in ops {
            let found = match op.kind {
                OpKind::Recv(k) if k.kind == MsgKind::Weights => {
                    held.insert((k.chunk, k.mb));
                    true
                }
                OpKind::Send(k) if k.kind == MsgKind::Weights => held.contains(&(k.chunk, k.mb)),
                OpKind::AllGatherW { chunk, .. } => {
                    held.insert((chunk, RESIDENT));
                    held.contains(&(chunk, SHARDED))
                }
                // The gathered copy is dropped once its gradients are
                // scattered: the next use must gather again.
                OpKind::ReduceScatterD { chunk, .. } => {
                    held.remove(&(chunk, RESIDENT));
                    true
                }
                OpKind::Fwd { chunk, .. }
                | OpKind::BwdFull { chunk, .. }
                | OpKind::BwdData { chunk, .. }
                | OpKind::Update { chunk } => {
                    weight_slot(&op.needs, chunk, |slot| held.contains(slot))
                        .is_some_and(|slot| held.contains(&slot))
                }
                _ => true,
            };
            if !found {
                return Err(ValidationError(format!(
                    "rank {r}: {:?} uses a weight copy the rank neither seeds nor \
                     receives earlier (holds {held:?})",
                    op.kind
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build, PipelineSpec, ALL_STRATEGIES};
    use crate::ir::{MsgKey, Strategy};

    #[test]
    fn all_builders_produce_valid_schedules() {
        for &strat in ALL_STRATEGIES {
            let spec = PipelineSpec::new(4, 8);
            let s = build(strat, spec);
            validate(&s).unwrap_or_else(|e| panic!("{strat:?}: {e}"));
        }
    }

    #[test]
    fn validates_across_sizes() {
        for p in [2usize, 4, 8] {
            for n_mult in [1usize, 2, 4] {
                let n = 2 * p * n_mult; // multiple of 2P satisfies every builder
                for &strat in ALL_STRATEGIES {
                    let s = build(strat, PipelineSpec::new(p, n));
                    validate(&s).unwrap_or_else(|e| panic!("{strat:?} P={p} N={n}: {e}"));
                }
            }
        }
    }

    #[test]
    fn odd_world_sizes_validate_where_supported() {
        for p in [3usize, 5] {
            for &strat in ALL_STRATEGIES {
                if strat == Strategy::Wzb1 {
                    continue; // requires even P by construction
                }
                let n = 2 * p;
                let s = build(strat, PipelineSpec::new(p, n));
                validate(&s).unwrap_or_else(|e| panic!("{strat:?} P={p}: {e}"));
            }
        }
    }

    #[test]
    fn blocking_mode_validates_across_sizes() {
        for p in [2usize, 4] {
            let n = 2 * p;
            for strat in [Strategy::WeiPipeNaive, Strategy::WeiPipeInterleave] {
                let s = build(strat, PipelineSpec::new(p, n).with_overlap(false));
                validate(&s).unwrap_or_else(|e| panic!("{strat:?} P={p} blocking: {e}"));
            }
        }
    }

    #[test]
    fn detects_dangling_recv() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        // Remove one send: its recv dangles.
        for ops in &mut s.ops {
            if let Some(pos) = ops.iter().position(|o| matches!(o.kind, OpKind::Send(_))) {
                ops.remove(pos);
                break;
            }
        }
        assert!(validate(&s).is_err());
    }

    #[test]
    fn detects_missing_backward() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        for ops in &mut s.ops {
            if let Some(pos) = ops
                .iter()
                .position(|o| matches!(o.kind, OpKind::BwdFull { .. }))
            {
                ops.remove(pos);
                break;
            }
        }
        let err = validate(&s).unwrap_err();
        assert!(
            err.0.contains("backward") || err.0.contains("leak"),
            "{err}"
        );
    }

    /// A forward that stops naming its input activation leaves the received
    /// buffer alive past the end of the iteration.
    #[test]
    fn detects_memory_leak() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        let fwd = (s.ops[1].iter_mut())
            .find(|o| matches!(o.kind, OpKind::Fwd { .. }))
            .expect("rank 1 forwards");
        assert!(matches!(fwd.needs[..], [k] if k.kind == MsgKind::Act));
        fwd.needs.clear();
        let err = validate(&s).unwrap_err();
        assert!(err.0.contains("ActBoundary leaks 1 units"), "{err}");
    }

    /// A boundary buffer is made by its own forward, not by whichever
    /// compute op ran last: a send moved ahead of the forward that makes it
    /// cannot borrow the previous forward's output.
    #[test]
    fn a_send_ahead_of_the_pass_that_makes_it_is_rejected() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        let fwd = (s.ops[0].iter())
            .position(|o| o.kind == OpKind::Fwd { mb: 1, chunk: 0 })
            .expect("rank 0 forwards microbatch 1");
        assert_eq!(s.ops[0][fwd + 1].kind, OpKind::Send(MsgKey::act(1, 0, 1)));
        s.ops[0].swap(fwd, fwd + 1);
        let err = validate(&s).unwrap_err();
        let want = "rank 0: ActBoundary balance went negative at Send";
        assert!(err.0.contains(want), "{err}");
    }

    /// Every point-to-point key a builder emits, and every refresh a ring
    /// schedule ships between iterations, has a wire tag below wp-comm's
    /// collective band (`1 << 48`), and no two messages from one source to
    /// one destination share a tag; a key with no tag fails `validate`
    /// rather than the rank thread that would send it.
    #[test]
    fn wire_tags_are_distinct_and_checked() {
        let mut refreshes = 0;
        for &strat in ALL_STRATEGIES {
            for p in [2usize, 4, 8] {
                for overlap in [false, true] {
                    let s = build(strat, PipelineSpec::new(p, 2 * p).with_overlap(overlap));
                    let mut seen = HashMap::new();
                    for (_, op) in s.iter_ops() {
                        let OpKind::Send(k) = op.kind else { continue };
                        let at = format!("{strat:?} P={p} overlap={overlap} {k:?}");
                        let tag = k.tag().unwrap_or_else(|| panic!("{at}: no tag"));
                        assert!(tag < 1 << 48, "{at}: tag {tag:#x} in the collective band");
                        if let Some(other) = seen.insert((k.src, k.dst, tag), format!("{k:?}")) {
                            panic!("{at}: tag {tag:#x} also names {other}");
                        }
                    }
                    for iter in [0, 1, (1 << 18) - 1] {
                        for f in s.refreshes().into_iter().filter(|f| f.src != f.dst) {
                            let at = format!("{strat:?} P={p} overlap={overlap} iter {iter} {f:?}");
                            let tag = f.tag(iter);
                            refreshes += 1;
                            assert!(tag < 1 << 48, "{at}: tag {tag:#x} in the collective band");
                            let key = (f.src, f.dst, tag);
                            if let Some(other) = seen.insert(key, format!("{f:?}")) {
                                panic!("{at}: tag {tag:#x} also names {other}");
                            }
                        }
                    }
                }
            }
        }

        assert!(refreshes > 0, "no ring schedule refreshes a copy");

        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        let far = |k: &mut MsgKey| k.round += 1 << 18;
        for op in s.ops.iter_mut().flatten() {
            if let OpKind::Send(k) | OpKind::Recv(k) = &mut op.kind {
                far(k);
            }
            op.needs.iter_mut().filter(|k| k.src != k.dst).for_each(far);
        }
        let err = validate(&s).unwrap_err();
        assert!(
            err.0.starts_with("rank 0 op ") && err.0.contains("has no wire tag"),
            "{err}"
        );
    }
}
