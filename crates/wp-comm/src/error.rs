//! Typed communication failures.
//!
//! Every fallible `Communicator` operation returns a [`CommError`] instead
//! of panicking, so one stalled or crashed rank surfaces as a diagnosis the
//! runtime can propagate — not a 120-second hang followed by a process
//! abort. The taxonomy (the invariants it serves are DESIGN.md §4):
//!
//! * [`CommError::PeerDead`] — a peer's endpoint is gone (its thread exited
//!   or a fault plan killed it).
//! * [`CommError::Timeout`] — the configured receive timeout elapsed with
//!   no matching message.
//! * [`CommError::Corrupt`] — a payload failed its checksum on arrival.
//! * [`CommError::Aborted`] — another rank failed first; this rank was
//!   unwound by the poison-pill abort protocol rather than failing itself.
//! * [`CommError::InvalidTag`] — caller used a tag reserved for
//!   collectives (API misuse, reported as an error so tests can assert it).
//! * [`CommError::MembershipMismatch`] — survivors of a fault proposed
//!   conflicting views of the shrunk world during the elastic
//!   reconfiguration handshake.
//! * [`CommError::FrameTooLarge`] — a send larger than one frame of the
//!   transport carries, refused on the sending rank before it ships.

use std::fmt;

/// A communication failure observed by one rank.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// Rank `rank`'s endpoint is gone: its thread exited, crashed, or a
    /// fault plan declared it dead.
    PeerDead {
        /// The rank that died.
        rank: usize,
    },
    /// No matching message arrived within the configured receive timeout.
    Timeout {
        /// The rank we were waiting on.
        src: usize,
        /// The tag we were waiting for.
        tag: u64,
        /// Milliseconds waited.
        waited_ms: u64,
    },
    /// A payload arrived but failed its checksum.
    Corrupt {
        /// Sender of the corrupt message.
        src: usize,
        /// Tag of the corrupt message.
        tag: u64,
    },
    /// The world was aborted on behalf of another rank's failure.
    Aborted {
        /// The rank whose failure triggered the abort.
        origin: usize,
        /// Human-readable cause.
        reason: String,
    },
    /// A user send used a tag reserved for collectives.
    InvalidTag {
        /// The offending tag.
        tag: u64,
    },
    /// The elastic reconfiguration handshake failed: a survivor proposed a
    /// different (epoch, members) view than this rank, so the shrunk world
    /// cannot be formed consistently.
    MembershipMismatch {
        /// The rank whose proposal disagreed with ours.
        rank: usize,
        /// Human-readable description of the disagreement.
        detail: String,
    },
    /// A send's payload is larger than one frame of the transport carries.
    FrameTooLarge {
        /// The rank the payload was for.
        dst: usize,
        /// The payload's wire bytes.
        bytes: u64,
        /// The most wire bytes one frame carries.
        limit: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::PeerDead { rank } => write!(f, "peer rank {rank} is dead"),
            CommError::Timeout {
                src,
                tag,
                waited_ms,
            } => write!(
                f,
                "timed out after {waited_ms} ms waiting for tag {tag} from rank {src}"
            ),
            CommError::Corrupt { src, tag } => {
                write!(f, "checksum mismatch on message tag {tag} from rank {src}")
            }
            CommError::Aborted { origin, reason } => {
                write!(f, "aborted by rank {origin}: {reason}")
            }
            CommError::InvalidTag { tag } => {
                write!(f, "tag {tag} is reserved for collectives")
            }
            CommError::MembershipMismatch { rank, detail } => {
                write!(f, "membership disagreement with rank {rank}: {detail}")
            }
            CommError::FrameTooLarge { dst, bytes, limit } => write!(
                f,
                "a {bytes}-byte payload for rank {dst} exceeds the {limit}-byte frame limit"
            ),
        }
    }
}

impl std::error::Error for CommError {}

impl CommError {
    /// True when this error is fatal for the whole world (everything except
    /// API misuse, which is local to the caller).
    pub fn is_fatal(&self) -> bool {
        !matches!(self, CommError::InvalidTag { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_peer() {
        let e = CommError::PeerDead { rank: 3 };
        assert!(e.to_string().contains("rank 3"));
        let t = CommError::Timeout {
            src: 1,
            tag: 9,
            waited_ms: 250,
        };
        assert!(t.to_string().contains("250 ms"));
        assert!(t.to_string().contains("tag 9"));
    }

    #[test]
    fn fatality_classification() {
        assert!(CommError::PeerDead { rank: 0 }.is_fatal());
        assert!(CommError::Corrupt { src: 0, tag: 0 }.is_fatal());
        assert!(!CommError::InvalidTag { tag: 1 << 48 }.is_fatal());
        assert!(CommError::MembershipMismatch {
            rank: 2,
            detail: "epoch 1 vs 2".into()
        }
        .is_fatal());
    }
}
