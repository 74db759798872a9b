//! Elastic ring recovery: survive a rank failure and continue training on
//! the shrunk world.
//!
//! WeiPipe makes elasticity unusually natural: weights are not statically
//! sharded to stages — every rank can host any chunk, because the chunks
//! circulate. Losing a rank therefore re-shards the *same* per-layer
//! parameter state onto a smaller ring, rather than invalidating a stage
//! assignment. [`run_elastic`] drives that loop:
//!
//! 1. Train the current world, capturing a full [`TrainState`] snapshot
//!    every `checkpoint_every` iterations (a collective, so every rank
//!    holds the bit-identical state).
//! 2. On failure, identify the victims from the survivors' typed
//!    [`CommError::PeerDead`] diagnoses and ask [`next_epoch`] — the one
//!    recovery policy, shared with the multi-process launcher — for the
//!    shrunk world ([`Membership::shrink`]: survivors keep their relative
//!    order, ranks renumber contiguously, the configuration epoch
//!    advances) and the snapshot to resume from.
//! 3. Re-form the smaller world at the new epoch — straggler frames from
//!    the dead configuration are dropped on arrival — and prove agreement
//!    with the [`agree_membership`](wp_comm::agree_membership) handshake
//!    before touching any training state.
//! 4. Resume from the last snapshot every survivor holds. Batches and the
//!    LR schedule are keyed on absolute iterations and optimizer moments
//!    travel in the snapshot, so the recovered trajectory is bit-identical
//!    to a fresh run started from that snapshot on the smaller world (the
//!    recovery conformance suite asserts exactly this).
//!
//! The driver is deliberately checkpoint-anchored (the Oobleck/Varuna
//! lineage) rather than lockstep-replicated: iterations since the last
//! snapshot are recomputed, never reconstructed from survivor state.

use crate::runner::{build_schedule, run_rank_elastic, TrainWorld};
use crate::setup::{RunOutput, TrainSetup};
use std::sync::Mutex;
use wp_comm::{CommError, FaultPlan, Membership};
use wp_nn::TrainState;
use wp_sched::Strategy;

/// Policy knobs for [`run_elastic`].
#[derive(Debug, Clone)]
pub struct ElasticOptions {
    /// Capture a recovery snapshot every `k` completed iterations
    /// (`0` disables checkpointing — a failure then restarts the shrunk
    /// world from iteration 0).
    pub checkpoint_every: usize,
    /// Give up after this many recoveries (a bound, not a target).
    pub max_recoveries: usize,
    /// Per-epoch fault plans, indexed by configuration epoch: entry 0
    /// injects into the initial world, entry 1 into the first recovered
    /// world (a second fault *during* recovery), and so on.
    pub fault_plans: Vec<Option<FaultPlan>>,
}

impl Default for ElasticOptions {
    fn default() -> Self {
        ElasticOptions {
            checkpoint_every: 1,
            max_recoveries: 2,
            fault_plans: Vec::new(),
        }
    }
}

/// What happened in one configuration epoch.
#[derive(Debug, Clone)]
pub struct EpochOutcome {
    /// The world this epoch trained on.
    pub membership: Membership,
    /// Absolute iteration the epoch resumed from (`None` = fresh start).
    pub resumed_from: Option<u64>,
    /// Per-rank error, `None` for ranks that completed.
    pub errors: Vec<Option<CommError>>,
    /// Per-iteration mean losses, when the epoch completed.
    pub losses: Vec<f32>,
}

/// The full elastic run: every epoch's outcome and the final result.
#[derive(Debug, Clone)]
pub struct ElasticReport {
    /// One entry per configuration epoch, in order.
    pub epochs: Vec<EpochOutcome>,
    /// Output of the completing epoch (`None` when the run was abandoned —
    /// unrecoverable failure or the recovery budget ran out).
    pub output: Option<RunOutput>,
    /// Number of successful shrink-and-resume recoveries performed.
    pub recoveries: u64,
    /// The snapshot the final epoch resumed from, when it did.
    pub checkpoint: Option<TrainState>,
}

impl ElasticReport {
    /// Whether training reached the configured iteration count.
    pub fn completed(&self) -> bool {
        self.output.is_some()
    }
}

/// Ranks named dead by the survivors' typed errors (current-world ids).
fn victims_of(errors: &[Option<CommError>]) -> Vec<usize> {
    let mut dead: Vec<usize> = errors
        .iter()
        .flatten()
        .filter_map(|e| match e {
            CommError::PeerDead { rank } => Some(*rank),
            _ => None,
        })
        .collect();
    dead.sort_unstable();
    dead.dedup();
    dead
}

/// The configuration that follows a failed epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct NextEpoch {
    /// The survivors, renumbered contiguously, one epoch on.
    pub membership: Membership,
    /// The newest snapshot every survivor holds bit-identically, to resume
    /// from (`None` when the survivors share none).
    pub anchor: Option<TrainState>,
}

/// The recovery policy, shared by every elastic driver (rank threads in
/// [`run_elastic`], worker processes in the `ranks` launcher): given the
/// failed epoch's `membership`, the ranks found `dead` in it (current-world
/// ids) and the snapshots each rank captured (`snapshots[rank]`, any
/// order; dead ranks' entries are ignored), which world trains next and
/// from where.
///
/// `None` abandons the run: no diagnosable victim, fewer than two
/// survivors (no ring), or no recovery left in the budget. Otherwise the
/// survivors keep their relative order under contiguous renumbering, the
/// epoch advances once however many ranks died, and the anchor is the
/// newest snapshot present and equal on *every* survivor — one a fault left
/// missing or half-captured on any of them is passed over for the next
/// newest, because recovery must start from state the whole shrunk world
/// agrees on.
pub fn next_epoch(
    membership: &Membership,
    dead: &[usize],
    snapshots: &[Vec<TrainState>],
    recoveries_left: usize,
) -> Option<NextEpoch> {
    let survivors: Vec<usize> = (0..membership.world_size())
        .filter(|r| !dead.contains(r))
        .collect();
    if dead.is_empty() || survivors.len() < 2 || recoveries_left == 0 {
        return None;
    }
    let (first, rest) = survivors.split_first()?;
    let anchor = snapshots[*first]
        .iter()
        .filter(|cand| rest.iter().all(|&s| snapshots[s].contains(cand)))
        .max_by_key(|cand| cand.next_iter)
        .cloned();
    let dead_ids: Vec<usize> = dead.iter().map(|&r| membership.members[r]).collect();
    Some(NextEpoch {
        membership: membership.shrink(&dead_ids),
        anchor,
    })
}

/// Train `setup` under `strategy`, surviving rank deaths by shrinking the
/// world and resuming from the last common snapshot. See the module docs
/// for the protocol. The returned report's `output`, when present, covers
/// the iterations of the *final* epoch (earlier iterations' losses live in
/// the per-epoch outcomes).
///
/// # Panics
/// Panics on configuration errors (the same constraints as
/// [`run_distributed`](crate::run_distributed), for every world size the
/// shrink sequence visits).
pub fn run_elastic(
    strategy: Strategy,
    ranks: usize,
    setup: &TrainSetup,
    opts: &ElasticOptions,
) -> ElasticReport {
    assert!(
        setup.resume.is_none() && setup.start_iter == 0,
        "run_elastic owns resume state; start from a fresh setup"
    );
    let total_iters = setup.iters;
    let mut membership = Membership::initial(ranks);
    let mut resume: Option<TrainState> = None;
    let mut report = ElasticReport {
        epochs: Vec::new(),
        output: None,
        recoveries: 0,
        checkpoint: None,
    };
    loop {
        let p = membership.world_size();
        let mut epoch_setup = setup.clone();
        epoch_setup.faults = opts
            .fault_plans
            .get(membership.epoch as usize)
            .cloned()
            .flatten();
        if let Some(st) = resume.clone() {
            epoch_setup = epoch_setup.with_resume(st);
            epoch_setup.iters = total_iters - epoch_setup.start_iter;
        }
        let schedule = build_schedule(strategy, p, &epoch_setup);
        let stores: Vec<Mutex<Vec<TrainState>>> = (0..p).map(|_| Mutex::new(Vec::new())).collect();
        let mut outs = TrainWorld::new(&epoch_setup, p, membership.epoch).run(|comm| {
            let rank = comm.rank();
            run_rank_elastic(
                &epoch_setup,
                &schedule,
                comm,
                Some(&membership),
                opts.checkpoint_every,
                |st| {
                    let mut store = stores[rank].lock().expect("no rank panics mid-push");
                    store.push(st.clone());
                },
            )
        });
        let errors: Vec<Option<CommError>> =
            outs.iter().map(|r| r.as_ref().err().cloned()).collect();
        let output = errors
            .iter()
            .all(Option::is_none)
            .then(|| outs.swap_remove(0).expect("checked above"));
        // On failure: diagnose the victims and decide whether to shrink on.
        let next = if output.is_some() {
            None
        } else {
            let snapshots: Vec<Vec<TrainState>> = stores
                .into_iter()
                .map(|s| s.into_inner().expect("no rank panics mid-push"))
                .collect();
            let left = opts.max_recoveries - report.recoveries as usize;
            next_epoch(&membership, &victims_of(&errors), &snapshots, left)
        };
        report.epochs.push(EpochOutcome {
            membership: membership.clone(),
            resumed_from: resume.as_ref().map(|s| s.next_iter),
            errors,
            losses: output.as_ref().map_or(Vec::new(), |o| o.losses.clone()),
        });
        let Some(next) = next else {
            // Finished — or abandoned, with the record (and the anchor a
            // later restart can use) intact.
            report.checkpoint = resume;
            report.output = output;
            return report;
        };
        // Iterations since an older anchor are recomputed when this epoch
        // left no newer one the survivors share.
        resume = next.anchor.or(resume);
        membership = next.membership;
        report.recoveries += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_nn::{ComponentState, ModelConfig};

    /// A snapshot taken after `next_iter` iterations whose one weight is
    /// `w` (the policy only compares snapshots, so shape is irrelevant).
    fn snap(next_iter: u64, w: f32) -> TrainState {
        let part = || ComponentState {
            weights: vec![w],
            master: vec![w],
            opt_t: next_iter,
            opt_bufs: Vec::new(),
        };
        TrainState {
            config: ModelConfig::tiny(1),
            seed: 42,
            next_iter,
            loss_scale: 1.0,
            embed: part(),
            blocks: Vec::new(),
            head: part(),
        }
    }

    /// Every rank of a `p`-rank world holds snapshots 1 and 2.
    fn healthy_stores(p: usize) -> Vec<Vec<TrainState>> {
        vec![vec![snap(1, 0.5), snap(2, 0.25)]; p]
    }

    #[test]
    fn abandons_without_a_victim_a_ring_or_a_budget() {
        let world = Membership::initial(4);
        let stores = healthy_stores(4);
        assert_eq!(next_epoch(&world, &[], &stores, 2), None, "no victim");
        assert_eq!(
            next_epoch(&world, &[0, 1, 3], &stores, 2),
            None,
            "one survivor is not a ring"
        );
        assert_eq!(next_epoch(&world, &[1], &stores, 0), None, "budget spent");
        assert!(next_epoch(&world, &[1], &stores, 1).is_some());
    }

    #[test]
    fn anchors_on_the_newest_snapshot_every_survivor_agrees_on() {
        let world = Membership::initial(4);
        let newest = |stores: &[Vec<TrainState>]| {
            let next = next_epoch(&world, &[1], stores, 1).expect("recoverable");
            next.anchor.map(|st| st.next_iter)
        };
        let mut stores = healthy_stores(4);
        assert_eq!(newest(&stores), Some(2));
        // The victim's store is never consulted.
        stores[1].clear();
        assert_eq!(newest(&stores), Some(2));
        // Snapshot 2 never landed on rank 3: fall back to snapshot 1.
        stores[3].pop();
        assert_eq!(newest(&stores), Some(1));
        // Rank 2 holds a different snapshot 1 (half-captured): no anchor.
        stores[2][0] = snap(1, 0.75);
        assert_eq!(newest(&stores), None);
        // Capture order does not matter, only the data cursor does.
        let mut stores = healthy_stores(4);
        stores[0].reverse();
        assert_eq!(newest(&stores), Some(2));
    }

    #[test]
    fn double_death_renumbers_contiguously_and_bumps_the_epoch_once() {
        let world = Membership::initial(8);
        let next = next_epoch(&world, &[2, 5], &healthy_stores(8), 1).expect("recoverable");
        assert_eq!(next.membership.epoch, 1);
        assert_eq!(next.membership.members, [0, 1, 3, 4, 6, 7]);
        // A later death is diagnosed in current-world ids: new rank 2 is
        // original rank 3.
        let after = next_epoch(&next.membership, &[2], &healthy_stores(6), 1).expect("recoverable");
        assert_eq!(after.membership.epoch, 2);
        assert_eq!(after.membership.members, [0, 1, 4, 6, 7]);
    }
}
