//! The autotuner's (model, cluster) points and what the grid search makes
//! of each — shared by the `tune` binary, which prints them, and
//! [`crate::results`], which writes the smoke point's CSV.

use wp_sched::tune::{grid, Candidate, CostOracle, TuneSpace};
use wp_sched::{Strategy, ALL_STRATEGIES};
use wp_sim::experiments::paper_clusters;
use wp_sim::tune::DesOracle;
use wp_sim::{ClusterSpec, GpuSpec, ModelDims};

/// One (model, cluster) point to tune.
pub struct Point {
    /// Row label.
    pub label: &'static str,
    /// The DES at this point's model, cluster and global batch.
    pub oracle: DesOracle,
    /// The candidate grid.
    pub space: TuneSpace,
}

fn point(label: &'static str, cluster: ClusterSpec, dims: ModelDims, global_batch: usize) -> Point {
    let p = cluster.ranks;
    let oracle = DesOracle::new(dims, GpuSpec::a800(), cluster, global_batch);
    let space = TuneSpace {
        ranks: p,
        strategies: ALL_STRATEGIES.to_vec(),
        microbatches: vec![p, 2 * p, 4 * p],
        w_lags: vec![1, 2, p / 2, p],
        chunk_counts: vec![2, p / 2, 2 * p],
        // Flat vs grouped: the cluster's own island size plus a half-world
        // split (enumerate drops whichever does not divide P).
        group_sizes: vec![cluster.node_size, p / 2],
        overlap: vec![true, false],
    };
    Point {
        label,
        oracle,
        space,
    }
}

/// The CI-sized point (`smoke`), or the three paper clusters.
pub fn points(smoke: bool) -> Vec<Point> {
    if smoke {
        return vec![point(
            "smoke",
            ClusterSpec::nvlink_island(8),
            ModelDims::paper(2048, 16, 4096, 4),
            32,
        )];
    }
    (paper_clusters().into_iter())
        .map(|(label, cluster, dims, global_batch)| point(label, cluster, dims, global_batch))
        .collect()
}

/// The grid winner at one point beside the default builder schedule —
/// WeiPipe interleaved at `N = P`, what the runtime would otherwise
/// hard-code.
pub struct Tuned {
    /// The point's label.
    pub label: &'static str,
    /// The cheapest feasible candidate.
    pub best: Candidate,
    /// Its simulated iteration seconds.
    pub best_s: f64,
    /// The default candidate.
    pub default: Candidate,
    /// Its simulated iteration seconds.
    pub default_s: f64,
    /// Candidates the oracle priced.
    pub evaluated: usize,
    /// Candidates skipped as structurally invalid or out of memory.
    pub infeasible: usize,
}

impl Tuned {
    /// Iteration-time gain of the winner over the default.
    pub fn gain(&self) -> f64 {
        self.default_s / self.best_s
    }
}

impl Point {
    /// Grid-search this point.
    pub fn tune(&self) -> Result<Tuned, String> {
        let label = self.label;
        let out = grid(&self.space, &self.oracle)
            .ok_or_else(|| format!("{label}: no feasible candidate in the space"))?;
        let default = Candidate::default_for(Strategy::WeiPipeInterleave, self.space.ranks);
        let base = (self.oracle.evaluate(&default))
            .map_err(|e| format!("{label}: default schedule failed: {e}"))?;
        Ok(Tuned {
            label,
            best: out.best,
            best_s: out.cost.iter_s,
            default,
            default_s: base.iter_s,
            evaluated: out.evaluated,
            infeasible: out.infeasible,
        })
    }
}
