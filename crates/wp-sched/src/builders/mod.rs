//! Schedule builders: every strategy compiled to the [`crate::ir`] IR.
//!
//! One module per skeleton — [`Strategy::shape`] says which a strategy
//! compiles through, and holds every other per-strategy fact more than one
//! module needs:
//!
//! * `ring` — the paper's §4.2 weight ring (naive, interleaved, WZB1, WZB2)
//!   and the position algebra all of them share, run once per group of
//!   ranks for WeiPipe-Hier;
//! * `hier` — WeiPipe-Hier's end-of-iteration reconciliation: the group
//!   rings' gradients summed across groups through bridge ranks;
//! * `stage` — the activation-passing stage pipeline the paper measures
//!   against (GPipe, 1F1B, ZB1, ZB2), one warm-up / steady / cool-down loop;
//! * `collective` — FSDP and DDP.
//!
//! Builders only decide *what happens in which order on which rank* — byte
//! counts, timing and memory sizing live in `wp-sim` / `analysis`.

use std::collections::VecDeque;

use crate::ir::{Op, OpKind, Schedule, Strategy};

mod collective;
mod hier;
mod ring;
mod shape;
mod stage;

pub(crate) use shape::check;
pub use shape::{Family, Knob, KnobDefault, Shape};

/// Every strategy the builders know, in the order the paper tables use.
pub const ALL_STRATEGIES: &[Strategy] = &[
    Strategy::GPipe,
    Strategy::OneFOneB,
    Strategy::Zb1,
    Strategy::Zb2,
    Strategy::Fsdp,
    Strategy::Ddp,
    Strategy::WeiPipeNaive,
    Strategy::WeiPipeInterleave,
    Strategy::Wzb1,
    Strategy::Wzb2,
    Strategy::WeiPipeHier,
];

/// What every builder needs to know about the run.
#[derive(Debug, Clone, Copy)]
pub struct PipelineSpec {
    /// World size `P`. The pipeline/ring strategies divide the model into
    /// exactly `P` chunks; FSDP and DDP default to `P` chunks too.
    pub ranks: usize,
    /// Microbatches per iteration `N`.
    pub microbatches: usize,
    /// Activation checkpointing: save only chunk inputs and recompute in
    /// backward. Split-backward strategies (ZB/WZB) build without it — the
    /// deferred W pass needs the full forward context.
    pub recompute: bool,
    /// Communication/computation overlap in the weight ring (paper §4.3):
    /// each arrival is received at the first op that reads it, and a weight
    /// chunk relays onward the moment it lands. Off receives a turn's
    /// weights at the top of the turn and relays them after its compute.
    /// Either way a rank runs the same ops, only in another order; only the
    /// weight-passing ring schedules are affected, and results are
    /// bit-identical.
    pub overlap: bool,
    /// The value of the one shape knob the strategy reads — the [`Knob`]
    /// its [`Strategy::shape`] row names: the W-pass lag of a split
    /// backward (how many B passes may run ahead of their W pass), the
    /// collective chunk count of FSDP/DDP, or the WeiPipe-Hier group size
    /// (ranks per replica ring; must divide `P` and be ≥ 2). `None` keeps
    /// the shape's default; a strategy that reads no knob ignores it.
    pub knob: Option<usize>,
}

impl PipelineSpec {
    /// A spec with activation checkpointing on (the paper's long-context
    /// default), overlap on, and the default knob.
    pub fn new(ranks: usize, microbatches: usize) -> Self {
        PipelineSpec {
            ranks,
            microbatches,
            recompute: true,
            overlap: true,
            knob: None,
        }
    }

    /// The same spec with activation checkpointing off.
    pub fn without_recompute(mut self) -> Self {
        self.recompute = false;
        self
    }

    /// Enable or disable overlap ([`Self::overlap`]).
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Set the strategy's shape knob (the `knob` field).
    pub fn with_knob(mut self, value: usize) -> Self {
        self.knob = Some(value);
        self
    }

    /// The one knob `strategy` reads and its value under this spec — the
    /// override, else the strategy's default at this world size — or `None`
    /// when it reads none.
    pub(crate) fn knob(&self, strategy: Strategy) -> Option<(Knob, usize)> {
        let (knob, default) = strategy.shape().knob?;
        Some((knob, self.knob.unwrap_or_else(|| default(self.ranks))))
    }
}

/// Build the schedule for `strategy` under `spec`.
///
/// # Panics
/// Panics when the spec violates one of the strategy's constraints — the
/// ones [`Candidate::check`](crate::tune::Candidate::check) reports as
/// `Err`: too few ranks, `N % P != 0` outside the stage pipelines, odd `P`
/// for WZB1, a zero chunk count, a group size that is below 2 or does not
/// divide `P`. A strategy that reads no knob ignores `PipelineSpec::knob`.
pub fn build(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    if let Err(why) = check(strategy, &spec) {
        panic!("{why}");
    }
    match strategy.shape().family {
        Family::Ring => ring::build_ring(strategy, spec),
        Family::Stage => stage::build_stage_pipe(strategy, spec),
        Family::Collective => collective::build_collective(strategy, spec),
    }
}

/// `x mod p` for possibly-negative `x`.
fn wrap(x: isize, p: usize) -> usize {
    x.rem_euclid(p as isize) as usize
}

/// How one build runs its forward and backward passes.
#[derive(Debug, Clone, Copy)]
struct Passes {
    /// Whether the schedule checkpoints: what the spec asks for, unless the
    /// backward is split. The one place that decides it.
    recompute: bool,
    split: bool,
}

impl Passes {
    fn of(strategy: Strategy, spec: &PipelineSpec) -> Self {
        let split = strategy.shape().split_backward;
        let recompute = spec.recompute && !split;
        Passes { recompute, split }
    }

    /// The backward of `(mb, chunk)`: fused, or a B pass whose W pass a
    /// [`WWindow`] places.
    fn backward(&self, mb: usize, chunk: usize) -> OpKind {
        if self.split {
            OpKind::BwdData { mb, chunk }
        } else {
            OpKind::BwdFull { mb, chunk }
        }
    }
}

/// The deferred W passes of one rank: at most `lag` B passes run ahead of
/// their W pass, and with no `lag` every W pass waits for the end of the
/// iteration. Larger windows fill more bubble and hold more contexts.
#[derive(Debug)]
struct WWindow {
    lag: Option<usize>,
    deferred: VecDeque<(usize, usize)>,
}

impl WWindow {
    fn new(lag: Option<usize>) -> Self {
        WWindow {
            lag,
            deferred: VecDeque::new(),
        }
    }

    /// The window a split-backward ring or stage strategy names: its W-lag
    /// knob, or no bound when it reads none.
    fn of(strategy: Strategy, spec: &PipelineSpec) -> Self {
        Self::new(match spec.knob(strategy) {
            Some((Knob::WLag, lag)) => Some(lag),
            _ => None,
        })
    }

    fn w_pass((mb, chunk): (usize, usize)) -> Op {
        Op::compute(OpKind::BwdWeight { mb, chunk })
    }

    /// The B pass of `(mb, chunk)` just ran: the W pass that falls out of
    /// the window, if it is full.
    fn after_b(&mut self, mb: usize, chunk: usize) -> Option<Op> {
        self.deferred.push_back((mb, chunk));
        let lag = self.lag?;
        if self.deferred.len() > lag {
            self.deferred.pop_front().map(Self::w_pass)
        } else {
            None
        }
    }

    /// End of the iteration: every W pass still deferred, oldest first.
    fn flush(&mut self) -> impl Iterator<Item = Op> + '_ {
        self.deferred.drain(..).map(Self::w_pass)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Stages, replicas and shards are stepped where they sit; only the
    /// weight ring leaves a seeded copy stale.
    #[test]
    fn nothing_outside_the_ring_goes_stale() {
        for strat in [
            Strategy::GPipe,
            Strategy::OneFOneB,
            Strategy::Zb1,
            Strategy::Zb2,
            Strategy::Fsdp,
            Strategy::Ddp,
        ] {
            let s = build(strat, PipelineSpec::new(4, 8));
            assert_eq!(s.refreshes(), Vec::new(), "{strat:?}");
        }
    }

    #[test]
    fn split_strategies_force_recompute_off() {
        for &strat in ALL_STRATEGIES {
            let s = build(strat, PipelineSpec::new(4, 8));
            let st = s.stats();
            if strat.shape().split_backward {
                assert!(!s.recompute, "{strat:?} cannot checkpoint");
                assert_eq!(st.bwd_full, 0);
                assert_eq!(st.bwd_data, st.bwd_weight);
            } else {
                assert!(s.recompute, "{strat:?} checkpoints when asked to");
                assert_eq!((st.bwd_data, st.bwd_weight), (0, 0));
            }
        }
    }

    #[test]
    fn w_lag_override_shifts_w_passes_without_changing_census() {
        let default = build(Strategy::Zb1, PipelineSpec::new(4, 8));
        let deep = build(Strategy::Zb1, PipelineSpec::new(4, 8).with_knob(5));
        crate::validate(&deep).expect("zb1 lag=5 is valid");
        let (ds, xs) = (default.stats(), deep.stats());
        assert_eq!(
            ds.bwd_weight, xs.bwd_weight,
            "lag moves W passes, never drops them"
        );
        assert_ne!(
            default.ops[0]
                .iter()
                .map(|o| format!("{:?}", o.kind))
                .collect::<Vec<_>>(),
            deep.ops[0]
                .iter()
                .map(|o| format!("{:?}", o.kind))
                .collect::<Vec<_>>(),
        );
        let tight = build(Strategy::Wzb1, PipelineSpec::new(4, 8).with_knob(1));
        crate::validate(&tight).expect("wzb1 lag=1 is valid");
        assert_eq!(tight.stats().bwd_weight, tight.stats().bwd_data);
    }

    /// `None` is the shape table's default, on every knob kind: spelling
    /// the default out builds the same schedule.
    #[test]
    fn a_knob_left_unset_means_its_shape_default() {
        let spec = PipelineSpec::new(4, 8);
        for (strat, explicit) in [
            (Strategy::Zb1, 2),
            (Strategy::Wzb1, 2),
            (Strategy::Fsdp, 4),
            (Strategy::Ddp, 4),
            (Strategy::WeiPipeHier, 4),
        ] {
            let explicit = spec.with_knob(explicit);
            assert_eq!(
                build(strat, explicit).ops,
                build(strat, spec).ops,
                "{strat:?}"
            );
        }
    }

    /// A strategy that reads no knob builds the same schedule whatever the
    /// spec's knob holds.
    #[test]
    fn a_knob_the_strategy_does_not_read_is_ignored() {
        let spec = PipelineSpec::new(4, 8);
        for &strat in ALL_STRATEGIES {
            if strat.shape().knob.is_some() {
                continue;
            }
            for k in [0, 1, 2, 5] {
                let (set, unset) = (build(strat, spec.with_knob(k)), build(strat, spec));
                assert_eq!(set.ops, unset.ops, "{strat:?} knob={k}");
                assert_eq!(set.seeds, unset.seeds, "{strat:?} knob={k}");
            }
        }
    }

    #[test]
    fn the_window_releases_the_oldest_w_pass_once_full() {
        let mb_of = |op: Op| match op.kind {
            OpKind::BwdWeight { mb, .. } => mb,
            other => panic!("not a W pass: {other:?}"),
        };
        let mut bounded = WWindow::new(Some(1));
        assert!(bounded.after_b(0, 7).is_none());
        assert_eq!(bounded.after_b(1, 7).map(mb_of), Some(0));
        assert_eq!(bounded.flush().map(mb_of).collect::<Vec<_>>(), [1]);
        let mut unbounded = WWindow::new(None);
        assert!((0..5).all(|mb| unbounded.after_b(mb, 7).is_none()));
        assert_eq!(unbounded.flush().count(), 5);
        let mut eager = WWindow::new(Some(0));
        assert_eq!(eager.after_b(3, 7).map(mb_of), Some(3));
    }
}
