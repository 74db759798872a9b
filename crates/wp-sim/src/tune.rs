//! The DES-backed cost oracle for the `wp-sched` autotuner.
//!
//! `wp-sched::tune` defines the search problem (candidates, spaces, the
//! grid search) against an abstract [`CostOracle`]; this module supplies
//! the real one. [`DesOracle`] prices a candidate the only way the repo
//! prices a schedule: build it, validate it, and run the discrete-event
//! engine ([`crate::engine::simulate`]) for the exact makespan, bubble
//! ratio and peak memory.
//!
//! To keep makespans comparable across microbatch counts, the oracle fixes
//! a *global batch* (sequences per iteration): a candidate with `N`
//! microbatches trains `global_batch / N` sequences per microbatch, so
//! every candidate does the same useful work per iteration and `iter_s` is
//! directly the quantity to minimize. This also makes `N` a real tradeoff:
//! more microbatches shrink the pipeline bubble but shrink the per-kernel
//! batch (worse kernel efficiency via the cost model's `gs/(gs+8k)` term).

use wp_sched::tune::{Candidate, CostOracle, ScheduleCost};
use wp_sched::{build, validate};

use crate::cluster::ClusterSpec;
use crate::cost::{CostModel, GpuSpec, ModelDims};
use crate::engine::{simulate, SimOptions, SimResult};

/// Discrete-event-simulation cost oracle for one (model, cluster) point.
#[derive(Debug, Clone, Copy)]
pub struct DesOracle {
    /// Model shape. The `microbatch` field is a *base* value only; each
    /// candidate's microbatch size is derived from [`Self::global_batch`].
    pub dims: ModelDims,
    /// Device the ranks run on (peak FLOPs, memory, MFU).
    pub gpu: GpuSpec,
    /// Cluster topology; `cluster.ranks` is the world size `P`.
    pub cluster: ClusterSpec,
    /// Sequences per iteration, held constant across candidates. A
    /// candidate with `N` microbatches runs `global_batch / N` sequences
    /// per microbatch; `N` values that do not divide it are infeasible.
    pub global_batch: usize,
}

impl DesOracle {
    /// Oracle for `dims`-shaped training on `cluster`, normalizing every
    /// candidate to `global_batch` sequences per iteration.
    pub fn new(dims: ModelDims, gpu: GpuSpec, cluster: ClusterSpec, global_batch: usize) -> Self {
        DesOracle {
            dims,
            gpu,
            cluster,
            global_batch,
        }
    }

    /// Per-candidate model dims: the global batch split over `N`
    /// microbatches.
    fn dims_for(&self, c: &Candidate) -> Result<ModelDims, String> {
        if !self.global_batch.is_multiple_of(c.microbatches) {
            return Err(format!(
                "global batch {} not divisible into {} microbatches",
                self.global_batch, c.microbatches
            ));
        }
        let mut dims = self.dims;
        dims.microbatch = self.global_batch / c.microbatches;
        Ok(dims)
    }

    /// Build → validate → discrete-event simulate `c` at this point's
    /// global batch; the whole engine result.
    pub(crate) fn simulate(&self, c: &Candidate) -> Result<SimResult, String> {
        let p = self.cluster.ranks;
        c.check(p)?;
        let dims = self.dims_for(c)?;
        let schedule = build(c.strategy, c.spec(p));
        validate(&schedule).map_err(|e| e.to_string())?;
        let cost = CostModel::for_schedule(dims, self.gpu, &schedule);
        let opts = SimOptions {
            overlap: c.overlap,
            straggler: None,
        };
        simulate(&schedule, &cost, &self.cluster, opts).map_err(|e| e.to_string())
    }
}

impl CostOracle for DesOracle {
    /// `Err` is a structurally invalid candidate; OOM is reported in the
    /// cost so the search can skip it while still logging how close it came.
    fn evaluate(&self, c: &Candidate) -> Result<ScheduleCost, String> {
        let r = self.simulate(c)?;
        Ok(ScheduleCost {
            iter_s: r.makespan,
            bubble_ratio: r.bubble_ratio,
            peak_mem_bytes: r.peak_mem.iter().copied().max().unwrap_or(0),
            oom: r.oom(self.gpu.mem_bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_sched::tune::{grid, TuneSpace};
    use wp_sched::{Strategy, ALL_STRATEGIES};

    fn oracle8() -> DesOracle {
        DesOracle::new(
            ModelDims::paper(2048, 16, 4096, 4),
            GpuSpec::a800(),
            ClusterSpec::nvlink_island(8),
            32,
        )
    }

    fn space8() -> TuneSpace {
        TuneSpace {
            ranks: 8,
            strategies: ALL_STRATEGIES.to_vec(),
            microbatches: vec![8, 16, 32],
            w_lags: vec![1, 4],
            chunk_counts: vec![2, 16],
            group_sizes: vec![2, 4],
            overlap: vec![true, false],
        }
    }

    #[test]
    fn grid_tuner_beats_every_default_builder_schedule() {
        let oracle = oracle8();
        let out = grid(&space8(), &oracle).unwrap();
        assert!(!out.cost.oom);
        assert!(out.evaluated > 0);
        // The tuned schedule is at least as good as the default
        // configuration of *every* strategy at N = P (the optimum may
        // itself be one of those defaults), and strictly beats the WeiPipe
        // interleaved default the builders would otherwise hard-code.
        for &s in ALL_STRATEGIES {
            let default = Candidate::default_for(s, 8);
            let base = oracle.evaluate(&default).unwrap();
            if !base.oom {
                assert!(
                    out.cost.iter_s <= base.iter_s,
                    "tuned {} ({:.4}s) should not lose to default {} ({:.4}s)",
                    out.best.label(),
                    out.cost.iter_s,
                    default.label(),
                    base.iter_s
                );
            }
        }
        let flagship = oracle
            .evaluate(&Candidate::default_for(Strategy::WeiPipeInterleave, 8))
            .unwrap();
        assert!(out.cost.iter_s < flagship.iter_s);
    }

    #[test]
    fn evaluate_rejects_indivisible_global_batch() {
        let oracle = oracle8();
        let c = Candidate::default_for(Strategy::OneFOneB, 24); // 32 % 24 != 0
        assert!(oracle.evaluate(&c).is_err());
    }

    #[test]
    fn evaluate_matches_direct_simulation() {
        let oracle = oracle8();
        let c = Candidate::default_for(Strategy::WeiPipeInterleave, 8);
        let got = oracle.evaluate(&c).unwrap();
        let mut dims = oracle.dims;
        dims.microbatch = 4; // 32 sequences / 8 microbatches
        let schedule = build(c.strategy, c.spec(8));
        let cost = CostModel::for_schedule(dims, oracle.gpu, &schedule);
        let r = simulate(&schedule, &cost, &oracle.cluster, SimOptions::default()).unwrap();
        assert_eq!(got.iter_s.to_bits(), r.makespan.to_bits());
        assert_eq!(got.peak_mem_bytes, *r.peak_mem.iter().max().unwrap());
    }
}
