//! What the builders, the tuner and the simulator need to know about a
//! strategy, stated once: which skeleton builds it, whether its backward is
//! split, what `PipelineSpec::knob` means to it (and what `None` stands
//! for), and what must divide what.

use super::PipelineSpec;
use crate::ir::Strategy;

/// The builder skeleton a strategy compiles through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// The §4.2 weight ring: weights circulate, microbatches stay put. With
    /// a group knob, one ring per group of ranks, gradients reconciled
    /// between groups through bridge ranks.
    Ring,
    /// The activation-passing stage pipeline the paper measures against.
    Stage,
    /// Data parallelism over collectives (FSDP, DDP).
    Collective,
}

/// What `PipelineSpec::knob` means to a strategy. A strategy reads at
/// most one kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Knob {
    /// How many B passes may run ahead of their W pass.
    WLag,
    /// How many pieces FSDP/DDP gather and reduce the model in.
    Chunks,
    /// Ranks per replica ring of WeiPipe-Hier.
    Group,
}

/// What a knob left at `None` stands for, as a function of the world size.
pub type KnobDefault = fn(usize) -> usize;

/// The per-strategy facts (see [`Strategy::shape`]).
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Which skeleton builds the schedule.
    pub family: Family,
    /// The backward runs as a B pass plus a deferred W pass instead of one
    /// fused op. The W pass needs the full forward context, so such a
    /// strategy never checkpoints, whatever [`PipelineSpec::recompute`] says.
    pub split_backward: bool,
    /// What the strategy reads `PipelineSpec::knob` as, and the value
    /// `None` stands for at world size `P`. With no kind, [`super::build`]
    /// ignores the knob and
    /// [`Candidate::check`](crate::tune::Candidate::check) rejects it. For
    /// a split backward this is the W window — how many B passes may run
    /// ahead of their W pass — and reading no knob means every W pass waits
    /// for the end of the iteration.
    pub knob: Option<(Knob, KnobDefault)>,
    /// `P` must be even.
    pub even_ranks: bool,
}

impl Strategy {
    /// The strategy's row of the shape table.
    pub fn shape(self) -> Shape {
        let fused = |family| Shape {
            family,
            split_backward: false,
            knob: None,
            even_ranks: false,
        };
        match self {
            Strategy::GPipe | Strategy::OneFOneB => fused(Family::Stage),
            // The ZB-H1 shape: W trails B by a couple of slots.
            Strategy::Zb1 => Shape {
                split_backward: true,
                knob: Some((Knob::WLag, |_| 2)),
                ..fused(Family::Stage)
            },
            Strategy::Zb2 => Shape {
                split_backward: true,
                ..fused(Family::Stage)
            },
            Strategy::Fsdp | Strategy::Ddp => Shape {
                knob: Some((Knob::Chunks, |p| p)),
                ..fused(Family::Collective)
            },
            Strategy::WeiPipeNaive | Strategy::WeiPipeInterleave => fused(Family::Ring),
            Strategy::Wzb1 => Shape {
                split_backward: true,
                knob: Some((Knob::WLag, |p| p / 2)),
                even_ranks: true,
                ..fused(Family::Ring)
            },
            Strategy::Wzb2 => Shape {
                split_backward: true,
                ..fused(Family::Ring)
            },
            // One group of all `P` ranks is the flat ring.
            Strategy::WeiPipeHier => Shape {
                knob: Some((Knob::Group, |p| p)),
                ..fused(Family::Ring)
            },
        }
    }
}

/// Why `strategy` cannot be built under `spec`, if it cannot:
/// [`super::build`] panics with the message,
/// [`Candidate::check`](crate::tune::Candidate::check) returns it.
pub(crate) fn check(strategy: Strategy, spec: &PipelineSpec) -> Result<(), String> {
    let shape = strategy.shape();
    let label = strategy.label();
    let (p, n) = (spec.ranks, spec.microbatches);
    let min_ranks = match shape.family {
        Family::Ring => 2,
        Family::Stage | Family::Collective => 1,
    };
    if p < min_ranks {
        return Err(format!("{label} needs at least {min_ranks} ranks (P={p})"));
    }
    if n == 0 {
        return Err("microbatches must be >= 1".into());
    }
    // Every family but the stage pipeline gives each rank `N/P` microbatches
    // of its own.
    if shape.family != Family::Stage && !n.is_multiple_of(p) {
        return Err(format!(
            "{label} needs microbatches ({n}) divisible by ranks ({p})"
        ));
    }
    if shape.even_ranks && !p.is_multiple_of(2) {
        return Err(format!("{label} needs even P (P={p})"));
    }
    match spec.knob(strategy) {
        Some((Knob::Chunks, 0)) => Err("chunk count must be >= 1".into()),
        Some((Knob::Group, g)) if g < 2 => Err(format!("group size must be >= 2 (g={g})")),
        Some((Knob::Group, g)) if !p.is_multiple_of(g) => {
            Err(format!("group size must divide P (g={g}, P={p})"))
        }
        _ => Ok(()),
    }
}
