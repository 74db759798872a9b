//! Schedule builders: every strategy compiled to the [`crate::ir`] IR.
//!
//! One module per skeleton — [`Strategy::shape`] says which a strategy
//! compiles through, and holds every other per-strategy fact more than one
//! module needs:
//!
//! * `ring` — the paper's §4.2 weight ring (naive, interleaved, WZB1, WZB2)
//!   and the position algebra all of them share;
//! * `hier` — one interleaved ring per group of ranks, gradients reconciled
//!   across groups through bridge ranks (WeiPipe-Hier);
//! * `stage` — the activation-passing stage pipeline the paper measures
//!   against (GPipe, 1F1B, ZB1, ZB2), one warm-up / steady / cool-down loop;
//! * `collective` — FSDP and DDP.
//!
//! Builders only decide *what happens in which order on which rank* — byte
//! counts, timing and memory sizing live in `wp-sim` / `analysis`.

use std::collections::VecDeque;

use crate::ir::{MemUnit, Op, OpKind, Schedule, Strategy};

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
    /// exactly `P` chunks; FSDP and DDP default to `P` but accept a
    /// [`Self::with_chunks`] override.
    pub ranks: usize,
    /// Microbatches per iteration `N`.
    pub microbatches: usize,
    /// Activation checkpointing: save only chunk inputs and recompute in
    /// backward. Split-backward strategies (ZB/WZB) force this off — the
    /// deferred W pass needs the full forward context.
    pub recompute: bool,
    /// Double-buffered weight movement (paper §4.3): the ring builders emit
    /// explicit [`OpKind::PrePost`]/[`OpKind::WaitReq`] pairs so round
    /// `t+1`'s weight/grad transfers are posted before round `t`'s compute
    /// and waited on only at the round boundary. Off falls back to blocking
    /// `Recv` ops at the top of each turn. Only affects the weight-passing
    /// ring schedules; results are bit-identical either way.
    pub overlap: bool,
    /// W-pass lag for the split-backward schedules: how many B passes may
    /// run ahead of their deferred W pass. `None` keeps the strategy
    /// default ([`Strategy::shape`]). Larger lags fill more bubble at the
    /// price of holding more B contexts; the autotuner sweeps this
    /// dimension. Ignored by a strategy whose shape reads another knob or
    /// none.
    pub w_lag: Option<usize>,
    /// Chunk-count override for the collective strategies (FSDP, DDP):
    /// how many pieces the model is gathered/reduced in. `None` keeps the
    /// default of `P`. Coarser chunks amortize collective latency; finer
    /// chunks shrink the transient gathered-weights footprint. Ignored by
    /// the pipeline/ring strategies, whose chunk count is structurally `P`.
    pub chunks: Option<usize>,
    /// Group size for the hierarchical WeiPipe schedule: each group of
    /// `group` consecutive ranks runs its own interleaved weight ring
    /// (ideally one NVLink island per group), with gradients reconciled
    /// across groups through bridge ranks. Must divide `ranks` and be ≥ 2.
    /// `None` means one group of all `ranks` — the flat ring. Ignored by
    /// every other strategy.
    pub group: Option<usize>,
}

impl PipelineSpec {
    /// A spec with activation checkpointing on (the paper's long-context
    /// default), double-buffered weight movement enabled, and default
    /// W-lag / chunking.
    pub fn new(ranks: usize, microbatches: usize) -> Self {
        PipelineSpec {
            ranks,
            microbatches,
            recompute: true,
            overlap: true,
            w_lag: None,
            chunks: None,
            group: None,
        }
    }

    /// The same spec with activation checkpointing off.
    pub fn without_recompute(mut self) -> Self {
        self.recompute = false;
        self
    }

    /// Enable or disable double-buffered weight movement.
    pub fn with_overlap(mut self, on: bool) -> Self {
        self.overlap = on;
        self
    }

    /// Override the split-backward W-pass lag (ZB1 / WZB1).
    pub fn with_w_lag(mut self, lag: usize) -> Self {
        self.w_lag = Some(lag);
        self
    }

    /// Override the collective chunk count (FSDP / DDP).
    pub fn with_chunks(mut self, chunks: usize) -> Self {
        self.chunks = Some(chunks);
        self
    }

    /// Set the hierarchical group size (WeiPipe-Hier).
    pub fn with_group(mut self, group: usize) -> Self {
        self.group = Some(group);
        self
    }

    /// The one knob `strategy` reads and its value under this spec — the
    /// override, else the strategy's default at this world size — or `None`
    /// when it reads none.
    pub(crate) fn knob(&self, strategy: Strategy) -> Option<(Knob, usize)> {
        let (knob, default) = strategy.shape().knob?;
        let set = match knob {
            Knob::WLag => self.w_lag,
            Knob::Chunks => self.chunks,
            Knob::Group => self.group,
        };
        Some((knob, set.unwrap_or_else(|| default(self.ranks))))
    }
}

/// Build the schedule for `strategy` under `spec`.
///
/// # Panics
/// Panics when the spec violates one of the strategy's constraints — the
/// ones [`Candidate::check`](crate::tune::Candidate::check) reports as
/// `Err`: too few ranks, `N % P != 0` outside the stage pipelines, odd `P`
/// for WZB1, a zero chunk count, a group size that is below 2 or does not
/// divide `P`. A knob the strategy does not read is ignored.
pub fn build(strategy: Strategy, spec: PipelineSpec) -> Schedule {
    if let Err(why) = check(strategy, &spec) {
        panic!("{why}");
    }
    match strategy.shape().family {
        Family::Ring => ring::build_ring(strategy, spec).0,
        Family::Hier => hier::build_hier(spec),
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
    /// backward is split.
    recompute: bool,
    /// What a forward pass therefore leaves behind for its backward.
    ctx: MemUnit,
    split: bool,
}

impl Passes {
    fn of(strategy: Strategy, spec: &PipelineSpec) -> Self {
        let split = strategy.shape().split_backward;
        let recompute = spec.recompute && !split;
        let ctx = if recompute {
            MemUnit::CkptInput
        } else {
            MemUnit::FwdCtx
        };
        Passes {
            recompute,
            ctx,
            split,
        }
    }

    /// The backward of `(mb, chunk)` and its effect on the saved contexts:
    /// a fused pass frees the forward's, a B pass parks one more for the W
    /// pass ([`WWindow`]) to free with it.
    fn backward(&self, mb: usize, chunk: usize) -> (OpKind, MemUnit, i64) {
        if self.split {
            (OpKind::BwdData { mb, chunk }, MemUnit::BCtx, 1)
        } else {
            (OpKind::BwdFull { mb, chunk }, self.ctx, -1)
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
        Self::new(spec.knob(strategy).map(|(_, lag)| lag))
    }

    fn w_pass((mb, chunk): (usize, usize)) -> Op {
        Op::compute(OpKind::BwdWeight { mb, chunk })
            .mem(MemUnit::FwdCtx, -1)
            .mem(MemUnit::BCtx, -1)
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
        let deep = build(Strategy::Zb1, PipelineSpec::new(4, 8).with_w_lag(5));
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
        let tight = build(Strategy::Wzb1, PipelineSpec::new(4, 8).with_w_lag(1));
        crate::validate(&tight).expect("wzb1 lag=1 is valid");
        assert_eq!(tight.stats().bwd_weight, tight.stats().bwd_data);
    }

    /// `None` is the shape table's default, on every knob: spelling the
    /// default out builds the same schedule.
    #[test]
    fn a_knob_left_unset_means_its_shape_default() {
        let spec = PipelineSpec::new(4, 8);
        for (strat, explicit) in [
            (Strategy::Zb1, spec.with_w_lag(2)),
            (Strategy::Wzb1, spec.with_w_lag(2)),
            (Strategy::Fsdp, spec.with_chunks(4)),
            (Strategy::Ddp, spec.with_chunks(4)),
            (Strategy::WeiPipeHier, spec.with_group(4)),
        ] {
            assert_eq!(
                build(strat, explicit).ops,
                build(strat, spec).ops,
                "{strat:?}"
            );
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
