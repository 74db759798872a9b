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
//! 3. **Memory balance** — per rank, every tracked [`MemUnit`] running sum
//!    returns to zero over the iteration (no leaked activation buffers).
//! 4. **Deadlock freedom** — that graph is acyclic
//!    ([`DepGraph::topological_order`]); a failure prints the cycle.
//! 5. **Slot availability** — in each rank's program order, every weight
//!    copy an op reads or sends is one the rank holds by then: a seed
//!    ([`Schedule::seeds`]) or an earlier `Recv`/`WaitReq`/`AllGatherW`.

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
    let graph = DepGraph::build(s)?;
    check_coverage(s)?;
    check_memory_balance(s)?;
    graph.topological_order()?;
    check_slots(s)
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
    for (r, ops) in s.ops.iter().enumerate() {
        let mut sums: HashMap<MemUnit, i64> = HashMap::new();
        for op in ops {
            for &(u, d) in &op.mem {
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
                OpKind::Recv(k) | OpKind::WaitReq(k) if k.kind == MsgKind::Weights => {
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
    use crate::ir::{Op, Strategy};

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
    fn detects_wait_without_prepost() {
        let mut s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(2, 4));
        // Turn one PrePost into its WaitReq: the wait now precedes any post.
        'outer: for ops in &mut s.ops {
            for op in ops.iter_mut() {
                if let OpKind::PrePost(k) = op.kind {
                    op.kind = OpKind::WaitReq(k);
                    break 'outer;
                }
            }
        }
        let err = validate(&s).unwrap_err();
        assert!(err.0.contains("pre-post"), "{err}");
    }

    #[test]
    fn detects_unredeemed_prepost() {
        let mut s = build(Strategy::WeiPipeInterleave, PipelineSpec::new(2, 4));
        // Drop one WaitReq: its PrePost is never redeemed.
        for ops in &mut s.ops {
            if let Some(pos) = ops
                .iter()
                .position(|o| matches!(o.kind, OpKind::WaitReq(_)))
            {
                ops.remove(pos);
                break;
            }
        }
        let err = validate(&s).unwrap_err();
        assert!(err.0.contains("never waited"), "{err}");
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

    #[test]
    fn detects_memory_leak() {
        let mut s = build(Strategy::GPipe, PipelineSpec::new(2, 2));
        s.ops[0].push(Op::compute(OpKind::Update { chunk: 0 }).mem(MemUnit::FwdCtx, 1));
        let err = validate(&s).unwrap_err();
        assert!(err.0.contains("leak"), "{err}");
    }
}
