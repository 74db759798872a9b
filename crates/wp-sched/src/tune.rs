//! Schedule autotuning: candidate space, cost oracle, and grid search.
//!
//! The paper's headline numbers depend on picking the right schedule shape
//! for a given (model, cluster) point: strategy, microbatch count `N`,
//! W-pass lag, overlap, and collective chunking all trade bubble against
//! memory against wire time. This module turns that choice into a search
//! problem over the builder knobs of [`crate::builders::PipelineSpec`]:
//!
//! * [`Candidate`] — one point in knob space, convertible to a spec.
//! * [`TuneSpace`] — the grid of candidates, filtered to structurally
//!   valid combinations and free of repeats (both read off
//!   [`Strategy::shape`]).
//! * [`CostOracle`] — prices a candidate. The real implementation lives in
//!   `wp-sim` (`DesOracle`: build, validate, discrete-event simulate); this
//!   crate only defines the interface so the IR layer stays free of
//!   simulator dependencies.
//! * [`grid`] — the search: price every candidate, return the cheapest.
//!
//! The search skips infeasible candidates (builder/validator rejection or
//! simulated OOM) rather than failing, and breaks cost ties by earliest
//! enumeration order, so results are reproducible across runs.

use crate::builders::{self, Knob, PipelineSpec};
use crate::ir::Strategy;

/// One point in the schedule-knob space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Candidate {
    /// Training strategy.
    pub strategy: Strategy,
    /// Microbatches per iteration `N`.
    pub microbatches: usize,
    /// Communication/computation overlap (builder double-buffering and
    /// engine-level overlap together).
    pub overlap: bool,
    /// W-pass lag override (split-backward strategies only).
    pub w_lag: Option<usize>,
    /// Collective chunk-count override (FSDP/DDP only).
    pub chunks: Option<usize>,
    /// Hierarchical group size (WeiPipe-Hier only): ranks per replica ring.
    /// `None` means one flat world-spanning ring.
    pub group: Option<usize>,
}

impl Candidate {
    /// The default builder configuration for `strategy` at `(P, N)`:
    /// overlap on, strategy-default lag and chunking. This is the baseline
    /// the autotuner must beat.
    pub fn default_for(strategy: Strategy, microbatches: usize) -> Self {
        Candidate {
            strategy,
            microbatches,
            overlap: true,
            w_lag: None,
            chunks: None,
            group: None,
        }
    }

    /// Whether `strategy` splits backward into B and W passes (and hence
    /// forces activation checkpointing off).
    pub fn split_backward(&self) -> bool {
        self.strategy.shape().split_backward
    }

    /// Structural validity at world size `p`: the constraints
    /// [`builders::build`] panics on, plus knob applicability — `build`
    /// ignores a knob its strategy does not read, a candidate carrying one
    /// is rejected, so no two valid candidates differ only in a dead knob.
    pub fn check(&self, p: usize) -> Result<(), String> {
        builders::check(self.strategy, &self.spec(p))?;
        let reads = self.strategy.shape().knob.map(|(knob, _)| knob);
        let set = [
            (Knob::WLag, self.w_lag),
            (Knob::Chunks, self.chunks),
            (Knob::Group, self.group),
        ];
        match set.iter().find(|(k, v)| v.is_some() && reads != Some(*k)) {
            Some((knob, _)) => Err(format!("{} reads no {knob:?} knob", self.strategy.label())),
            None => Ok(()),
        }
    }

    /// The builder spec this candidate encodes at world size `p`.
    /// Split-backward strategies force recompute off (the deferred W pass
    /// needs the full forward context); everything else keeps the paper's
    /// long-context default of activation checkpointing on.
    pub fn spec(&self, p: usize) -> PipelineSpec {
        PipelineSpec {
            recompute: !self.split_backward(),
            overlap: self.overlap,
            w_lag: self.w_lag,
            chunks: self.chunks,
            group: self.group,
            ..PipelineSpec::new(p, self.microbatches)
        }
    }

    /// Compact human label, e.g. `WZB1 N=16 lag=4 overlap`.
    pub fn label(&self) -> String {
        let mut s = format!("{} N={}", self.strategy.label(), self.microbatches);
        if let Some(lag) = self.w_lag {
            s.push_str(&format!(" lag={lag}"));
        }
        if let Some(chunks) = self.chunks {
            s.push_str(&format!(" chunks={chunks}"));
        }
        if let Some(group) = self.group {
            s.push_str(&format!(" g={group}"));
        }
        s.push_str(if self.overlap {
            " overlap"
        } else {
            " no-overlap"
        });
        s
    }
}

/// The candidate grid for one (model, cluster) point.
#[derive(Debug, Clone)]
pub struct TuneSpace {
    /// World size `P` (fixed by the cluster).
    pub ranks: usize,
    /// Strategies to consider.
    pub strategies: Vec<Strategy>,
    /// Microbatch counts `N` to sweep. Keep `G·N` (tokens per iteration)
    /// constant across entries if makespans are to be compared directly.
    pub microbatches: Vec<usize>,
    /// W-pass lags to sweep on split-backward strategies. The strategy
    /// default (`None`) is always included.
    pub w_lags: Vec<usize>,
    /// Collective chunk counts to sweep on FSDP/DDP. The default (`None`,
    /// i.e. `P`) is always included.
    pub chunk_counts: Vec<usize>,
    /// Hierarchical group sizes to sweep on WeiPipe-Hier. The flat default
    /// (`None`) is always included, so the search compares flat vs grouped.
    pub group_sizes: Vec<usize>,
    /// Overlap settings to sweep.
    pub overlap: Vec<bool>,
}

impl TuneSpace {
    /// Enumerate every structurally valid candidate, in a deterministic
    /// order (strategy-major, then `N`, lag, chunks, group, overlap). A
    /// strategy sweeps only the knob it reads; a swept value equal to the
    /// knob's default is the `None` candidate and a repeated value is the
    /// earlier one, so no schedule is priced twice.
    pub fn enumerate(&self) -> Vec<Candidate> {
        let mut out = Vec::new();
        for &strategy in &self.strategies {
            let reads = strategy.shape().knob;
            let sweep = |knob: Knob, values: &[usize]| -> Vec<Option<usize>> {
                let mut swept = vec![None];
                if let Some((_, default)) = reads.filter(|(k, _)| *k == knob) {
                    for &v in values {
                        let v = Some(v).filter(|&v| v != default(self.ranks));
                        if !swept.contains(&v) {
                            swept.push(v);
                        }
                    }
                }
                swept
            };
            let lags = sweep(Knob::WLag, &self.w_lags);
            let chunking = sweep(Knob::Chunks, &self.chunk_counts);
            let groupings = sweep(Knob::Group, &self.group_sizes);
            for &n in &self.microbatches {
                for &w_lag in &lags {
                    for &chunks in &chunking {
                        for &group in &groupings {
                            for &overlap in &self.overlap {
                                let c = Candidate {
                                    strategy,
                                    microbatches: n,
                                    overlap,
                                    w_lag,
                                    chunks,
                                    group,
                                };
                                if c.check(self.ranks).is_ok() {
                                    out.push(c);
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }
}

/// Fully evaluated cost of one candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScheduleCost {
    /// Simulated iteration wall-clock, seconds.
    pub iter_s: f64,
    /// Idle fraction of all compute engines.
    pub bubble_ratio: f64,
    /// Worst per-rank peak memory, bytes.
    pub peak_mem_bytes: u64,
    /// Whether any rank exceeds device memory (infeasible).
    pub oom: bool,
}

/// Prices candidates (in `wp-sim`, with a full discrete-event simulation).
pub trait CostOracle {
    /// The candidate's cost. `Err` marks a structurally invalid candidate
    /// (builder or validator rejection), which [`grid`] skips.
    fn evaluate(&self, c: &Candidate) -> Result<ScheduleCost, String>;
}

/// Result of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneOutcome {
    /// The winning candidate.
    pub best: Candidate,
    /// Its fully evaluated cost.
    pub cost: ScheduleCost,
    /// Candidates the oracle priced.
    pub evaluated: usize,
    /// Candidates skipped as infeasible (oracle `Err` or OOM).
    pub infeasible: usize,
}

/// Exhaustive search: price every candidate of `space` through `oracle`
/// and return the cheapest that fits in memory — the earliest in
/// enumeration order on exact ties. `None` when no candidate is feasible.
pub fn grid(space: &TuneSpace, oracle: &dyn CostOracle) -> Option<TuneOutcome> {
    let mut best: Option<(Candidate, ScheduleCost)> = None;
    let mut evaluated = 0usize;
    let mut infeasible = 0usize;
    for c in space.enumerate() {
        match oracle.evaluate(&c) {
            Ok(cost) => {
                evaluated += 1;
                if cost.oom {
                    infeasible += 1;
                } else if best.is_none_or(|(_, b)| cost.iter_s < b.iter_s) {
                    best = Some((c, cost));
                }
            }
            Err(_) => infeasible += 1,
        }
    }
    best.map(|(best, cost)| TuneOutcome {
        best,
        cost,
        evaluated,
        infeasible,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::ALL_STRATEGIES;

    /// Deterministic fake oracle: cost is a hash-free closed form of the
    /// knobs, so tests can predict the argmin exactly.
    struct FakeOracle {
        /// Candidates (by label) to report as OOM.
        oom: Vec<String>,
    }

    impl FakeOracle {
        fn cost(c: &Candidate) -> f64 {
            // Favor WZB2, more microbatches, overlap, lag 4, chunks 2.
            let strat = match c.strategy {
                Strategy::Wzb2 => 0.0,
                Strategy::WeiPipeInterleave => 1.0,
                _ => 2.0,
            };
            let lag = match c.w_lag {
                Some(4) => 0.0,
                _ => 0.1,
            };
            let chunks = match c.chunks {
                Some(2) => 0.0,
                _ => 0.1,
            };
            strat + 1.0 / c.microbatches as f64 + if c.overlap { 0.0 } else { 0.5 } + lag + chunks
        }
    }

    impl CostOracle for FakeOracle {
        fn evaluate(&self, c: &Candidate) -> Result<ScheduleCost, String> {
            Ok(ScheduleCost {
                iter_s: Self::cost(c),
                bubble_ratio: 0.0,
                peak_mem_bytes: 1,
                oom: self.oom.contains(&c.label()),
            })
        }
    }

    fn space4() -> TuneSpace {
        TuneSpace {
            ranks: 4,
            strategies: ALL_STRATEGIES.to_vec(),
            microbatches: vec![4, 8],
            w_lags: vec![1, 4],
            chunk_counts: vec![2],
            group_sizes: vec![2],
            overlap: vec![true, false],
        }
    }

    #[test]
    fn enumerate_filters_structural_invalids_and_knob_applicability() {
        let mut space = space4();
        space.ranks = 3; // odd P: WZB1 must vanish entirely
        space.microbatches = vec![3, 4];
        let cands = space.enumerate();
        assert!(cands.iter().all(|c| c.check(3).is_ok()));
        assert!(!cands.iter().any(|c| c.strategy == Strategy::Wzb1));
        // Ring strategies only appear at N=3 (divisible), act-pipe at both.
        assert!(cands
            .iter()
            .filter(|c| c.strategy == Strategy::WeiPipeInterleave)
            .all(|c| c.microbatches == 3));
        assert!(cands
            .iter()
            .any(|c| c.strategy == Strategy::OneFOneB && c.microbatches == 4));
        // Knobs only on strategies that take them.
        assert!(cands
            .iter()
            .all(|c| c.w_lag.is_none() || matches!(c.strategy, Strategy::Zb1 | Strategy::Wzb1)));
        assert!(cands
            .iter()
            .all(|c| c.chunks.is_none() || matches!(c.strategy, Strategy::Fsdp | Strategy::Ddp)));
        assert!(cands
            .iter()
            .all(|c| c.group.is_none() || c.strategy == Strategy::WeiPipeHier));
        // g=2 does not divide P=3, so only flat hier candidates survive.
        assert!(cands
            .iter()
            .all(|c| !(c.strategy == Strategy::WeiPipeHier && c.group.is_some())));
    }

    /// The `wp-bench tune --smoke` grid — whose lag sweep names both split
    /// defaults (2, `P/2`) and whose group sweep names `P`, the flat ring —
    /// with a default and a repeat added to the chunk and group sweeps.
    #[test]
    fn enumerate_prices_no_schedule_twice() {
        use crate::builders::build;
        use std::collections::HashSet;
        let p = 8;
        let space = TuneSpace {
            ranks: p,
            strategies: ALL_STRATEGIES.to_vec(),
            microbatches: vec![p, 2 * p, 4 * p],
            w_lags: vec![1, 2, p / 2, p],
            chunk_counts: vec![2, p / 2, 2 * p, p, 2],
            group_sizes: vec![p, p / 2, p / 2],
            overlap: vec![true, false],
        };
        let cands = space.enumerate();
        assert_eq!(cands.len(), 144);
        let mut seen = HashSet::new();
        for c in &cands {
            let s = build(c.strategy, c.spec(p));
            let priced = format!("{:?}", (c.strategy, c.overlap, &s.ops, &s.seeds));
            assert!(seen.insert(priced), "{} repeats a schedule", c.label());
        }
    }

    #[test]
    fn group_knob_is_hier_only_and_must_divide_ranks() {
        let mut c = Candidate::default_for(Strategy::WeiPipeHier, 8);
        assert!(c.check(8).is_ok());
        c.group = Some(4);
        assert!(c.check(8).is_ok());
        assert_eq!(c.spec(8).group, Some(4));
        assert!(c.label().contains("g=4"));
        c.group = Some(3);
        assert!(c.check(8).is_err(), "3 does not divide 8");
        c.group = Some(1);
        assert!(c.check(8).is_err(), "singleton groups are degenerate");
        let mut flat = Candidate::default_for(Strategy::WeiPipeInterleave, 8);
        flat.group = Some(4);
        assert!(flat.check(8).is_err(), "group knob is hier-only");
    }

    #[test]
    fn grid_finds_global_argmin() {
        let out = grid(&space4(), &FakeOracle { oom: vec![] }).unwrap();
        // Closed-form argmin of FakeOracle::cost over the valid space.
        assert_eq!(out.best.strategy, Strategy::Wzb2);
        assert_eq!(out.best.microbatches, 8);
        assert!(out.best.overlap);
        assert_eq!(out.infeasible, 0);
        assert!(out.evaluated > 50, "grid should cover the space");
    }

    #[test]
    fn grid_skips_oom_candidates() {
        let space = space4();
        // Mark every WZB2 candidate OOM: the winner must fall back.
        let oom: Vec<String> = space
            .enumerate()
            .iter()
            .filter(|c| c.strategy == Strategy::Wzb2)
            .map(|c| c.label())
            .collect();
        let n_oom = oom.len();
        let out = grid(&space, &FakeOracle { oom }).unwrap();
        assert_ne!(out.best.strategy, Strategy::Wzb2);
        assert_eq!(out.best.strategy, Strategy::WeiPipeInterleave);
        assert_eq!(out.infeasible, n_oom);
    }

    #[test]
    fn no_feasible_candidate_returns_none() {
        let space = space4();
        let oom: Vec<String> = space.enumerate().iter().map(|c| c.label()).collect();
        assert!(grid(&space, &FakeOracle { oom }).is_none());
    }

    #[test]
    fn candidate_spec_maps_knobs_onto_builder_spec() {
        let c = Candidate {
            strategy: Strategy::Wzb1,
            microbatches: 8,
            overlap: false,
            w_lag: Some(3),
            chunks: None,
            group: None,
        };
        let spec = c.spec(4);
        assert_eq!(spec.ranks, 4);
        assert_eq!(spec.microbatches, 8);
        assert!(!spec.overlap);
        assert!(!spec.recompute, "split backward forces recompute off");
        assert_eq!(spec.w_lag, Some(3));

        let d = Candidate::default_for(Strategy::OneFOneB, 16);
        let spec = d.spec(4);
        assert!(spec.recompute);
        assert!(spec.overlap);
        assert_eq!(spec.w_lag, None);
        assert_eq!(spec.chunks, None);
    }
}
