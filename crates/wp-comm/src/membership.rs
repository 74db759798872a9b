//! Membership and epoch agreement for elastic reconfiguration.
//!
//! When a rank dies, every survivor observes a typed
//! [`CommError::PeerDead`] naming the victim. To *continue* training, the
//! survivors build a fresh, smaller world and must first prove they agree
//! on what that world is: which original ranks survive, in which new-rank
//! order, and under which configuration epoch. [`agree_membership`] is that
//! handshake — an epoch-stamped all-gather of each rank's proposed
//! [`Membership`], compared entry-for-entry. Any disagreement surfaces as
//! the typed [`CommError::MembershipMismatch`] *and* poisons the world, so
//! a split-brain reconfiguration can never train two divergent rings.
//!
//! The epoch agreed here is the one the [`WorldBuilder`](crate::WorldBuilder)
//! stamps on every frame (see [`WorldBuilder::epoch`](crate::WorldBuilder::epoch));
//! straggler frames from the pre-fault epoch are dropped on arrival.

use crate::error::CommError;
use crate::p2p::Communicator;
use wp_tensor::DType;

/// Ranks small enough to round-trip exactly through an `f32` payload.
const MAX_EXACT: usize = 1 << 24;

/// One configuration of the world: its epoch and the surviving members.
///
/// `members[new_rank]` is the *original*-world id of the rank now operating
/// as `new_rank`. Epoch 0 with identity members is the initial world; each
/// reconfiguration bumps the epoch and drops the dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Membership {
    /// Configuration epoch (0 for the initial world).
    pub epoch: u64,
    /// Original-world ids of the members, indexed by new-world rank.
    pub members: Vec<usize>,
}

impl Membership {
    /// The initial world: epoch 0, identity membership over `p` ranks.
    pub fn initial(p: usize) -> Self {
        Membership {
            epoch: 0,
            members: (0..p).collect(),
        }
    }

    /// The world after removing `dead` (original-world ids): survivors keep
    /// their relative order, ranks are renumbered contiguously, and the
    /// epoch advances by one. Ids in `dead` that are not current members
    /// are ignored.
    pub fn shrink(&self, dead: &[usize]) -> Membership {
        Membership {
            epoch: self.epoch + 1,
            members: self
                .members
                .iter()
                .copied()
                .filter(|m| !dead.contains(m))
                .collect(),
        }
    }

    /// Number of members in this configuration.
    pub fn world_size(&self) -> usize {
        self.members.len()
    }

    /// The new-world rank of original rank `original`, if it survived.
    pub fn new_rank_of(&self, original: usize) -> Option<usize> {
        self.members.iter().position(|&m| m == original)
    }

    /// Encode as an f32 payload for the agreement all-gather:
    /// `[epoch, member_count, members...]`. All values are small integers
    /// (< 2²⁴), so the f32 round trip is exact.
    fn encode(&self) -> Vec<f32> {
        let mut v = Vec::with_capacity(2 + self.members.len());
        v.push(self.epoch as f32);
        v.push(self.members.len() as f32);
        v.extend(self.members.iter().map(|&m| m as f32));
        v
    }

    fn describe(chunk: &[f32]) -> String {
        if chunk.len() < 2 {
            return "truncated proposal".to_string();
        }
        let members: Vec<u64> = chunk[2..].iter().map(|&x| x as u64).collect();
        format!("epoch {} members {:?}", chunk[0] as u64, members)
    }
}

/// The epoch-stamped reconfiguration handshake: every rank of the (already
/// re-formed) world contributes its proposed [`Membership`] to a ring
/// all-gather and verifies all proposals are identical.
///
/// Runs over whatever transport the communicator was built on — the
/// in-process mesh and TCP behave identically, like every other operation
/// above the [`Transport`](crate::Transport) trait.
///
/// # Errors
/// [`CommError::MembershipMismatch`] naming the first disagreeing rank;
/// the world is poisoned first, so peers blocked in their own handshake
/// unwind with a typed error instead of hanging. Any transport error from
/// the underlying all-gather propagates as usual — a *second* fault during
/// recovery surfaces exactly like a fault during training.
///
/// # Panics
/// Panics if `proposal` does not describe this communicator's world (API
/// misuse: the caller builds the shrunk world *from* the proposal).
pub fn agree_membership(comm: &mut Communicator, proposal: &Membership) -> Result<(), CommError> {
    assert_eq!(
        proposal.world_size(),
        comm.world_size(),
        "proposal must describe this communicator's world"
    );
    assert!(
        proposal.epoch < MAX_EXACT as u64 && proposal.members.iter().all(|&m| m < MAX_EXACT),
        "membership values must round-trip exactly through f32"
    );
    let mine = proposal.encode();
    let chunk_len = mine.len();
    let all = comm.all_gather(&mine, DType::F32)?;
    for peer in 0..comm.world_size() {
        let theirs = &all[peer * chunk_len..(peer + 1) * chunk_len];
        if theirs != mine.as_slice() {
            let e = CommError::MembershipMismatch {
                rank: peer,
                detail: format!(
                    "ours: {}; theirs: {}",
                    Membership::describe(&mine),
                    Membership::describe(theirs)
                ),
            };
            comm.abort_with(&e);
            return Err(e);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkModel;
    use crate::world::World;

    #[test]
    fn shrink_renumbers_and_bumps_epoch() {
        let m = Membership::initial(4);
        assert_eq!(m.epoch, 0);
        assert_eq!(m.members, vec![0, 1, 2, 3]);
        let s = m.shrink(&[1]);
        assert_eq!(s.epoch, 1);
        assert_eq!(s.members, vec![0, 2, 3]);
        assert_eq!(s.new_rank_of(0), Some(0));
        assert_eq!(s.new_rank_of(2), Some(1));
        assert_eq!(s.new_rank_of(3), Some(2));
        assert_eq!(s.new_rank_of(1), None);
        let s2 = s.shrink(&[0, 3]);
        assert_eq!(s2.epoch, 2);
        assert_eq!(s2.members, vec![2]);
    }

    #[test]
    fn unanimous_world_agrees() {
        let (results, _) = World::builder(3).try_run(|mut c| {
            let m = Membership::initial(4).shrink(&[2]);
            agree_membership(&mut c, &m)?;
            Ok(c.rank())
        });
        for (rank, r) in results.into_iter().enumerate() {
            assert_eq!(r.expect("handshake must succeed"), rank);
        }
    }

    #[test]
    fn disagreement_is_typed_on_every_rank() {
        let (results, _) = World::builder(3).try_run(|mut c| {
            // Rank 1 proposes a different epoch — a split-brain survivor
            // that missed one reconfiguration.
            let mut m = Membership::initial(4).shrink(&[2]);
            if c.rank() == 1 {
                m.epoch += 1;
            }
            agree_membership(&mut c, &m)?;
            // Anyone who "agreed" would next touch the world and must
            // observe the poison.
            let mut probe = vec![0.0f32];
            c.all_reduce_sum(&mut probe, DType::F32)?;
            Ok(())
        });
        let mut mismatches = 0;
        for r in results {
            let e = r.expect_err("no rank may proceed past a split brain");
            match e {
                CommError::MembershipMismatch { .. } => mismatches += 1,
                CommError::Aborted { .. } | CommError::PeerDead { .. } => {}
                other => panic!("unexpected error: {other}"),
            }
        }
        assert!(mismatches >= 1, "someone must name the disagreement");
    }

    #[test]
    fn agreement_works_over_paced_links() {
        let (results, _) = World::builder(2)
            .link(LinkModel::instant())
            .try_run(|mut c| {
                let m = Membership::initial(3).shrink(&[0]);
                agree_membership(&mut c, &m)
            });
        for r in results {
            r.expect("agreement over 2 survivors");
        }
    }
}
