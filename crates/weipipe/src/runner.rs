//! Top-level entry: build a schedule, validate it, spawn a world of rank
//! threads, train, and collect the result.

use crate::interp::RankRuntime;
use crate::setup::{RunOutput, TrainSetup};
use crate::single::run_single;
use wp_comm::{agree_membership, CommError, Communicator, Membership, World, WorldBuilder};
use wp_metrics::MetricsRegistry;
use wp_nn::TrainState;
use wp_sched::{build, validate, PipelineSpec, Schedule, Strategy};
use wp_trace::TraceCollector;

/// Strategies the runtime executes: everything the builders produce except
/// the conceptual WZB variants (as in the paper) and the grouped
/// `WeiPipeHier` rings, which exist only as schedules for the simulator.
/// [`build_schedule`] rejects the rest.
pub fn runtime_strategies() -> Vec<Strategy> {
    vec![
        Strategy::GPipe,
        Strategy::OneFOneB,
        Strategy::Zb1,
        Strategy::Zb2,
        Strategy::Fsdp,
        Strategy::Ddp,
        Strategy::WeiPipeNaive,
        Strategy::WeiPipeInterleave,
    ]
}

/// The world a [`TrainSetup`] describes, before any rank runs — the one
/// place a setup's link, timeout, transport, fault, trace and metrics
/// policy is turned into a [`WorldBuilder`]. Every driver starts here: the
/// thread drivers ([`run_distributed_per_rank`],
/// [`run_elastic`](crate::run_elastic)) call [`run`](Self::run); a
/// multi-process worker hands its own TCP endpoint to
/// `builder.endpoint(..)`.
#[derive(Debug)]
pub struct TrainWorld {
    /// The configured comm world, stamped with the configuration epoch.
    pub builder: WorldBuilder,
    /// Where every rank's spans land, when the setup traces.
    pub collector: Option<TraceCollector>,
    /// Where every rank's metrics land, when the setup meters.
    pub registry: Option<MetricsRegistry>,
}

impl TrainWorld {
    /// Assemble the `ranks`-rank world of `setup` at configuration `epoch`
    /// (0 for anything but a re-formed elastic world).
    pub fn new(setup: &TrainSetup, ranks: usize, epoch: u64) -> Self {
        let collector = setup
            .trace
            .enabled
            .then(|| TraceCollector::new(ranks, setup.trace.capacity_per_rank));
        let registry = setup.metrics.enabled.then(|| MetricsRegistry::new(ranks));
        let builder = World::builder(ranks)
            .link(setup.link)
            .config(setup.comm)
            .transport(setup.transport)
            .epoch(epoch)
            .maybe_faults(setup.faults.clone())
            .maybe_trace(collector.clone())
            .maybe_metrics(registry.clone());
        TrainWorld {
            builder,
            collector,
            registry,
        }
    }

    /// Run `body` on one thread per rank and return every rank's outcome
    /// (rank order). The world-level aggregates are snapshotted once, after
    /// every rank thread has joined (the race-free protocol), and each
    /// successful rank carries the same view of them.
    pub fn run(
        self,
        body: impl Fn(Communicator) -> Result<RunOutput, CommError> + Send + Sync,
    ) -> Vec<Result<RunOutput, CommError>> {
        let (outs, meter) = self.builder.try_run(body);
        let bytes = meter.total_bytes();
        let trace = self.collector.map(|c| c.snapshot());
        let metrics = self.registry.map(|r| r.snapshot());
        outs.into_iter()
            .map(|r| {
                r.map(|mut out| {
                    out.bytes_sent = bytes;
                    out.trace = trace.clone();
                    out.metrics = metrics.clone();
                    out
                })
            })
            .collect()
    }
}

/// Train `setup` under `strategy` across `ranks` worker threads, returning
/// every rank's outcome (rank order). A healthy world yields `Ok` on every
/// rank; under a destructive fault plan each rank reports the typed
/// [`CommError`] it unwound with — the per-rank view watchdog tests assert
/// against.
///
/// # Panics
/// Panics if the configuration violates the strategy's constraints (layers
/// divisible by ranks, microbatches a multiple of ranks for weight-passing
/// and data-parallel strategies) or if the schedule fails validation.
pub fn run_distributed_per_rank(
    strategy: Strategy,
    ranks: usize,
    setup: &TrainSetup,
) -> Vec<Result<RunOutput, CommError>> {
    let schedule = build_schedule(strategy, ranks, setup);
    TrainWorld::new(setup, ranks, 0).run(|comm| run_rank(setup, &schedule, comm))
}

/// Build and validate the schedule `run_distributed_per_rank` executes.
/// Public so a multi-process worker can construct the identical schedule in
/// its own address space.
///
/// # Panics
/// Panics if `strategy` is not one of [`runtime_strategies`], if the
/// configuration violates the strategy's constraints (layers divisible by
/// ranks), or if the built schedule fails validation.
pub fn build_schedule(strategy: Strategy, ranks: usize, setup: &TrainSetup) -> Schedule {
    assert!(
        setup.model.layers.is_multiple_of(ranks),
        "layers ({}) must divide evenly across ranks ({ranks})",
        setup.model.layers
    );
    assert!(
        runtime_strategies().contains(&strategy),
        "{} is simulator-only: the runtime has no interpreter for it",
        strategy.label()
    );
    if let Some(state) = &setup.resume {
        assert_eq!(
            state.config, setup.model,
            "resume snapshot config must match the setup"
        );
        state
            .check_world(ranks)
            .expect("resume snapshot must re-shard onto this world size");
    }
    let spec = if setup.recompute {
        PipelineSpec::new(ranks, setup.microbatches)
    } else {
        PipelineSpec::new(ranks, setup.microbatches).without_recompute()
    };
    let mut spec = spec.with_overlap(setup.overlap);
    if let Some(lag) = setup.w_lag {
        spec = spec.with_w_lag(lag);
    }
    if let Some(chunks) = setup.chunks {
        spec = spec.with_chunks(chunks);
    }
    if let Some(group) = setup.group {
        spec = spec.with_group(group);
    }
    let schedule = build(strategy, spec);
    validate(&schedule).expect("builder produced an invalid schedule");
    schedule
}

/// One rank's full training body over an established communicator: the
/// exact closure `run_distributed_per_rank` hands each rank thread, public
/// so a multi-process launcher runs *this* code in each worker process over
/// a TCP endpoint. `bytes_sent` and `trace` are left empty — they are
/// world-level aggregates the caller fills in after the world quiesces.
///
/// # Errors
/// The typed [`CommError`] this rank unwound with, if the world failed.
pub fn run_rank(
    setup: &TrainSetup,
    schedule: &Schedule,
    comm: Communicator,
) -> Result<RunOutput, CommError> {
    run_rank_elastic(setup, schedule, comm, None, 0, |_| {})
}

/// [`run_rank`] with the elastic hooks exposed: an optional membership
/// handshake before training and periodic full-state snapshots during it.
///
/// * `membership` — when `Some`, every rank first runs
///   [`agree_membership`] so a shrunk world trains only after all
///   survivors proved they agree on (epoch, members). Pass `None` for a
///   non-elastic run.
/// * `checkpoint_every` — capture a [`TrainState`] snapshot after every
///   `k`-th completed iteration (`0` disables). Each snapshot is handed to
///   `on_checkpoint`; capture is a collective, so every rank observes the
///   bit-identical state.
///
/// # Errors
/// The typed [`CommError`] this rank unwound with, if the world failed.
pub fn run_rank_elastic(
    setup: &TrainSetup,
    schedule: &Schedule,
    mut comm: Communicator,
    membership: Option<&Membership>,
    checkpoint_every: usize,
    mut on_checkpoint: impl FnMut(&TrainState),
) -> Result<RunOutput, CommError> {
    let probe = comm.probe().clone();
    let t0 = probe.now();
    if let Some(m) = membership {
        agree_membership(&mut comm, m)?;
    }
    // A world past epoch 0 is a recovery: rank 0 marks it once the ring has
    // agreed on its membership and re-sharded the resume snapshot.
    let recovered = comm.epoch() > 0 && comm.rank() == 0;
    let mut rt = RankRuntime::new(setup, schedule, comm);
    if recovered {
        probe.recovered(t0);
    }
    let mut losses = Vec::with_capacity(setup.iters);
    let t0 = std::time::Instant::now();
    let end = setup.start_iter + setup.iters;
    for iter in setup.start_iter..end {
        losses.push(rt.run_iteration(schedule, iter)?);
        let done = iter + 1 - setup.start_iter;
        if checkpoint_every > 0 && done.is_multiple_of(checkpoint_every) && iter + 1 < end {
            on_checkpoint(&rt.capture_state(schedule, iter as u64 + 1)?);
        }
        if iter + 1 < end {
            rt.reseed_bwd_flow(schedule, iter)?;
        }
    }
    let wall_seconds = t0.elapsed().as_secs_f64();
    let (embed, blocks, head) = rt.assemble(schedule)?;
    Ok(RunOutput {
        losses,
        embed,
        blocks,
        head,
        bytes_sent: 0,
        wall_seconds,
        trace: None,
        metrics: None,
    })
}

/// Train `setup` under `strategy` across `ranks` worker threads.
///
/// Returns the per-iteration mean losses and the final parameters (from
/// rank 0), which must match [`run_single`] on the same setup — the
/// equivalence the test suite enforces, including under delay-only fault
/// plans.
///
/// # Errors
/// The first failing rank's [`CommError`] (rank order) when the world
/// failed — e.g. [`CommError::PeerDead`] under a dead-rank fault plan.
///
/// # Panics
/// Same configuration panics as [`run_distributed_per_rank`].
pub fn run_distributed(
    strategy: Strategy,
    ranks: usize,
    setup: &TrainSetup,
) -> Result<RunOutput, CommError> {
    let mut results = run_distributed_per_rank(strategy, ranks, setup);
    // Any failed rank fails the run: a training job with a dead rank has no
    // trustworthy result even if rank 0 limped to the end.
    if let Some(pos) = results.iter().position(|r| r.is_err()) {
        return Err(results.swap_remove(pos).unwrap_err());
    }
    Ok(results.swap_remove(0).expect("checked above"))
}

/// Run a strategy, or the single-process reference when `ranks == 1`.
///
/// # Errors
/// Same as [`run_distributed`] (the single-process path cannot fail).
pub fn run(strategy: Strategy, ranks: usize, setup: &TrainSetup) -> Result<RunOutput, CommError> {
    if ranks == 1 {
        Ok(run_single(setup))
    } else {
        run_distributed(strategy, ranks, setup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One list decides what runs: a strategy is either in
    /// `runtime_strategies()` (and builds), or `build_schedule` refuses it
    /// by name before any rank thread exists — `WeiPipeHier` used to build,
    /// validate, and then kill every rank mid-iteration.
    #[test]
    fn every_strategy_is_runnable_or_rejected_as_simulator_only() {
        let setup = TrainSetup::tiny(4, 8).with_group(2);
        assert_eq!(wp_sched::ALL_STRATEGIES.len(), 11);
        for &strategy in wp_sched::ALL_STRATEGIES {
            let built = std::panic::catch_unwind(|| build_schedule(strategy, 4, &setup));
            if runtime_strategies().contains(&strategy) {
                assert!(built.is_ok(), "{strategy:?} is a runtime strategy");
                continue;
            }
            let panic = built.expect_err("simulator-only strategies must not build");
            let msg = panic.downcast_ref::<String>().expect("formatted panic");
            assert!(msg.contains("simulator-only"), "{strategy:?}: {msg}");
        }
    }

    /// Losses and final weights of every runtime strategy must match the
    /// single-process reference within float-reduction tolerance.
    fn assert_matches_reference(strategy: Strategy, ranks: usize, setup: &TrainSetup) {
        let reference = run_single(setup);
        let out = run_distributed(strategy, ranks, setup).expect("healthy world must train");
        let loss_diff = out.max_loss_diff(&reference);
        let param_diff = out.max_param_diff(&reference);
        assert!(
            loss_diff < 2e-4,
            "{strategy:?} P={ranks}: loss diff {loss_diff} (got {:?}, want {:?})",
            out.losses,
            reference.losses
        );
        assert!(
            param_diff < 2e-3,
            "{strategy:?} P={ranks}: param diff {param_diff}"
        );
        assert!(out.bytes_sent > 0, "{strategy:?} must actually communicate");
    }

    #[test]
    fn weipipe_interleave_matches_reference() {
        assert_matches_reference(Strategy::WeiPipeInterleave, 2, &TrainSetup::tiny(2, 4));
        assert_matches_reference(Strategy::WeiPipeInterleave, 4, &TrainSetup::tiny(4, 8));
    }

    #[test]
    fn weipipe_naive_matches_reference() {
        assert_matches_reference(Strategy::WeiPipeNaive, 2, &TrainSetup::tiny(2, 4));
        assert_matches_reference(Strategy::WeiPipeNaive, 4, &TrainSetup::tiny(4, 8));
    }

    #[test]
    fn one_f1b_matches_reference() {
        assert_matches_reference(Strategy::OneFOneB, 2, &TrainSetup::tiny(2, 4));
        assert_matches_reference(Strategy::OneFOneB, 4, &TrainSetup::tiny(4, 6));
    }

    #[test]
    fn gpipe_matches_reference() {
        assert_matches_reference(Strategy::GPipe, 2, &TrainSetup::tiny(2, 4));
    }

    #[test]
    fn zb1_matches_reference() {
        assert_matches_reference(Strategy::Zb1, 2, &TrainSetup::tiny(2, 4));
        assert_matches_reference(Strategy::Zb1, 4, &TrainSetup::tiny(4, 6));
    }

    #[test]
    fn zb2_matches_reference() {
        assert_matches_reference(Strategy::Zb2, 4, &TrainSetup::tiny(4, 8));
    }

    #[test]
    fn fsdp_matches_reference() {
        assert_matches_reference(Strategy::Fsdp, 2, &TrainSetup::tiny(2, 4));
        assert_matches_reference(Strategy::Fsdp, 4, &TrainSetup::tiny(4, 8));
    }

    #[test]
    fn ddp_matches_reference() {
        assert_matches_reference(Strategy::Ddp, 2, &TrainSetup::tiny(2, 4));
    }

    #[test]
    fn recompute_changes_nothing_numerically() {
        let mut setup = TrainSetup::tiny(2, 4);
        setup.recompute = true;
        assert_matches_reference(Strategy::WeiPipeInterleave, 2, &setup);
        assert_matches_reference(Strategy::OneFOneB, 2, &setup);
    }
}
