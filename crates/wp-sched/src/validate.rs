//! Static schedule validation.
//!
//! [`validate`] proves a schedule is *physically executable* before any
//! simulator or runtime touches it:
//!
//! 1. **Message consistency** — every send has exactly one matching receive
//!    posting (a `Recv`, or a `PrePost`/`WaitReq` pair) and vice versa,
//!    emitted on the key's `src`/`dst` ranks; every `WaitReq` is preceded
//!    in its rank's program order by its matching `PrePost`, and every
//!    `PrePost` is redeemed by exactly one `WaitReq`.
//! 2. **Compute coverage** — every (microbatch × chunk) is forwarded exactly
//!    once and backwarded exactly once (fused, or B-then-W on one rank);
//!    every chunk is updated at least once.
//! 3. **Memory balance** — per rank, every tracked [`MemUnit`] running sum
//!    returns to zero over the iteration (no leaked activation buffers).
//! 4. **Deadlock freedom** — executing ops under the IR's dependency
//!    semantics (compute serializes per rank, sends gate on needs/compute,
//!    collectives rendezvous) reaches every op.
//! 5. **Slot availability** — in each rank's program order, every weight
//!    copy an op reads or sends is one the rank holds by then: a seed
//!    ([`Schedule::seeds`]) or an earlier `Recv`/`WaitReq`/`AllGatherW`.

use crate::ir::{weight_slot, MemUnit, MsgKey, MsgKind, OpKind, Schedule, RESIDENT, SHARDED};
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
    check_messages(s)?;
    check_coverage(s)?;
    check_memory_balance(s)?;
    check_executable(s)?;
    check_slots(s)?;
    Ok(())
}

fn check_messages(s: &Schedule) -> Result<(), ValidationError> {
    let mut sends: HashMap<MsgKey, usize> = HashMap::new();
    let mut recvs: HashMap<MsgKey, usize> = HashMap::new();
    // Pre-posted requests not yet redeemed by a WaitReq, per (rank, key).
    // iter_ops yields each rank's stream in program order, so ordering
    // violations (wait before post) surface as a missing entry here.
    let mut open: HashSet<(usize, MsgKey)> = HashSet::new();
    for (rank, op) in s.iter_ops() {
        match &op.kind {
            OpKind::Send(k) => {
                if k.src != rank {
                    return Err(ValidationError(format!(
                        "send {k:?} emitted on rank {rank}, not its src"
                    )));
                }
                if k.src == k.dst {
                    return Err(ValidationError(format!("self-send {k:?}")));
                }
                *sends.entry(*k).or_insert(0) += 1;
            }
            OpKind::Recv(k) => {
                if k.dst != rank {
                    return Err(ValidationError(format!(
                        "recv {k:?} emitted on rank {rank}, not its dst"
                    )));
                }
                *recvs.entry(*k).or_insert(0) += 1;
            }
            OpKind::PrePost(k) => {
                if k.dst != rank {
                    return Err(ValidationError(format!(
                        "pre-post {k:?} emitted on rank {rank}, not its dst"
                    )));
                }
                open.insert((rank, *k));
                *recvs.entry(*k).or_insert(0) += 1;
            }
            OpKind::WaitReq(k) => {
                if k.dst != rank {
                    return Err(ValidationError(format!(
                        "wait {k:?} emitted on rank {rank}, not its dst"
                    )));
                }
                if !open.remove(&(rank, *k)) {
                    return Err(ValidationError(format!(
                        "rank {rank}: wait for {k:?} without an earlier pre-post"
                    )));
                }
            }
            _ => {}
        }
    }
    if let Some((rank, k)) = open.iter().next() {
        return Err(ValidationError(format!(
            "rank {rank}: pre-posted request {k:?} is never waited on"
        )));
    }
    for (k, &n) in &sends {
        if n != 1 {
            return Err(ValidationError(format!("duplicate send key {k:?} ({n}×)")));
        }
        if recvs.get(k) != Some(&1) {
            return Err(ValidationError(format!("send {k:?} has no matching recv")));
        }
    }
    for k in recvs.keys() {
        if !sends.contains_key(k) {
            return Err(ValidationError(format!("recv {k:?} has no matching send")));
        }
    }
    Ok(())
}

fn check_coverage(s: &Schedule) -> Result<(), ValidationError> {
    // In data-parallel strategies each rank covers its own microbatches; in
    // pipelines every microbatch covers every chunk. Either way the global
    // invariant is the same: (mb, chunk) forwarded exactly once.
    let mut fwd: HashMap<(usize, usize), usize> = HashMap::new();
    let mut bwd_full: HashMap<(usize, usize), usize> = HashMap::new();
    let mut bwd_data: HashMap<(usize, usize), (usize, usize)> = HashMap::new(); // count, rank
    let mut bwd_weight: HashMap<(usize, usize), (usize, usize)> = HashMap::new();
    let mut updates: HashMap<usize, usize> = HashMap::new();
    for (rank, op) in s.iter_ops() {
        match op.kind {
            OpKind::Fwd { mb, chunk } => *fwd.entry((mb, chunk)).or_insert(0) += 1,
            OpKind::BwdFull { mb, chunk } => *bwd_full.entry((mb, chunk)).or_insert(0) += 1,
            OpKind::BwdData { mb, chunk } => {
                let e = bwd_data.entry((mb, chunk)).or_insert((0, rank));
                e.0 += 1;
                e.1 = rank;
            }
            OpKind::BwdWeight { mb, chunk } => {
                let e = bwd_weight.entry((mb, chunk)).or_insert((0, rank));
                e.0 += 1;
                e.1 = rank;
            }
            OpKind::Update { chunk } => *updates.entry(chunk).or_insert(0) += 1,
            _ => {}
        }
    }
    // DDP replicates compute across ranks; its per-(mb,chunk) counts are 1
    // because each rank only runs its own microbatches — handled naturally.
    for mb in 0..s.microbatches {
        for c in 0..s.chunks {
            let f = fwd.get(&(mb, c)).copied().unwrap_or(0);
            if f != 1 {
                return Err(ValidationError(format!("Fwd(mb={mb}, chunk={c}) ran {f}×")));
            }
            let full = bwd_full.get(&(mb, c)).copied().unwrap_or(0);
            let data = bwd_data.get(&(mb, c)).copied().unwrap_or((0, 0));
            let weight = bwd_weight.get(&(mb, c)).copied().unwrap_or((0, 0));
            let ok = (full == 1 && data.0 == 0 && weight.0 == 0)
                || (full == 0 && data.0 == 1 && weight.0 == 1);
            if !ok {
                return Err(ValidationError(format!(
                    "backward of (mb={mb}, chunk={c}) malformed: full={full} B={} W={}",
                    data.0, weight.0
                )));
            }
            if data.0 == 1 && data.1 != weight.1 {
                return Err(ValidationError(format!(
                    "B and W passes of (mb={mb}, chunk={c}) on different ranks"
                )));
            }
        }
    }
    for c in 0..s.chunks {
        if updates.get(&c).copied().unwrap_or(0) == 0 {
            return Err(ValidationError(format!("chunk {c} is never updated")));
        }
    }
    Ok(())
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

/// Worklist execution under the IR semantics; fails if any op never becomes
/// runnable (deadlock or dangling dependency).
#[allow(clippy::needless_range_loop)]
fn check_executable(s: &Schedule) -> Result<(), ValidationError> {
    let p = s.ranks;
    // Global op ids: (rank, index).
    let mut arrived: HashSet<MsgKey> = HashSet::new();
    // Collective groups: (discriminant) -> ranks arrived.
    let mut coll_ready: HashMap<(u8, usize, usize), HashSet<usize>> = HashMap::new();
    let mut cursor = vec![0usize; p];
    let mut progress = true;
    let mut executed = 0usize;
    let total = s.total_ops();

    // Per-rank pending collective completion keys to register once the
    // group rendezvous completes.
    while progress {
        progress = false;
        for r in 0..p {
            while cursor[r] < s.ops[r].len() {
                let op = &s.ops[r][cursor[r]];
                // Program order approximation for validation: an op may run
                // when all its needs have arrived. (Engine timing is the
                // simulator's business; validation only needs reachability.)
                if !op.needs.iter().all(|k| arrived.contains(k)) {
                    break;
                }
                match &op.kind {
                    // A recv is passable only once the message arrived; a
                    // wait on a pre-posted request blocks the same way. The
                    // pre-post itself is free (it gates nothing).
                    OpKind::Recv(k) | OpKind::WaitReq(k) if !arrived.contains(k) => {
                        break;
                    }
                    OpKind::Send(k) => {
                        arrived.insert(*k);
                    }
                    kind if kind.is_collective() => {
                        let group = coll_ready.entry(kind.rendezvous()).or_default();
                        group.insert(r);
                        if group.len() == p {
                            // Rendezvous complete: register every rank's
                            // pseudo-arrival.
                            for rr in 0..p {
                                arrived.insert(kind.collective_key(rr));
                            }
                        } else {
                            // This rank has "entered" the collective; it
                            // blocks here until the group completes, which
                            // we model by retrying (the pseudo-key gates any
                            // consumer anyway). Mark passable.
                        }
                    }
                    _ => {}
                }
                cursor[r] += 1;
                executed += 1;
                progress = true;
            }
        }
    }
    if executed != total {
        // Find a blocked op for diagnostics.
        for r in 0..p {
            if cursor[r] < s.ops[r].len() {
                let op = &s.ops[r][cursor[r]];
                let missing: Vec<_> = op.needs.iter().filter(|k| !arrived.contains(k)).collect();
                return Err(ValidationError(format!(
                    "deadlock: rank {r} stuck at op {} ({:?}), missing {missing:?}",
                    cursor[r], op.kind
                )));
            }
        }
        return Err(ValidationError(
            "deadlock with no identifiable blocker".into(),
        ));
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
