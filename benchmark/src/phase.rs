//! One world, from spawn to teardown: set-up, warm-up, timed rounds.
//!
//! The rank body is the benchmark's own copy of `weipipe::run_rank_elastic`'s
//! loop over the public `RankRuntime` methods, so every step is stamped with
//! a clock from outside the program. A step is `run_iteration` plus the
//! `reseed_bwd_flow` that follows it: together they are the work one
//! training step costs, and doing both after every step keeps steps alike.

use crate::workload::{RANKS, WARMUP_STEPS};
use crate::{host, ALLOC};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;
use weipipe::interp::RankRuntime;
use weipipe::TrainSetup;
use wp_comm::{CommError, Communicator, RankTraffic, World};
use wp_metrics::{Counter, MetricsRegistry, MetricsSnapshot};
use wp_sched::Schedule;
use wp_trace::{Trace, TraceCollector};

/// What one world is asked to do.
pub struct Phase<'a> {
    /// Carries the tracing and metrics switches as well as the inputs.
    pub setup: &'a TrainSetup,
    pub schedule: &'a Schedule,
    /// Consecutive steps in one timed round.
    pub round_steps: usize,
    /// Target length of the timed rounds, seconds.
    pub seconds: f64,
    /// After the timed rounds, time one `capture_state` and one `assemble`.
    pub snapshot: bool,
}

/// What rank 0's clock and every rank's own counters saw.
pub struct PhaseResult {
    /// Phase start to the rank thread running: mesh build (TCP connect
    /// included) and thread spawn.
    pub spawn_s: f64,
    /// `RankRuntime::new` on rank 0.
    pub init_s: f64,
    /// The warm-up steps on rank 0.
    pub warmup_s: f64,
    /// Phase start to the first timed step on rank 0.
    pub ready_s: f64,
    /// `(start, end)` of each timed step, seconds since phase start.
    pub steps: Vec<(f64, f64)>,
    /// Mean loss of every step, warm-up included, by iteration index.
    pub losses: Vec<f32>,
    /// High-water live heap bytes of the process during each timed step.
    pub step_peak_bytes: Vec<usize>,
    /// Process CPU seconds over the timed window.
    pub cpu_s: f64,
    /// Bytes and messages all ranks sent over the timed window.
    pub sent: Sent,
    /// Per rank `(start, end)` of the timed window on the tracer's clock.
    pub windows_ns: Vec<(u64, u64)>,
    /// Registry counters over the timed window, summed over ranks (zero
    /// when the world is not metered).
    pub pacing_stall_ns: u64,
    pub recv_retries: u64,
    pub capture_s: f64,
    pub assemble_s: f64,
    pub trace: Option<Trace>,
    pub metrics: Option<MetricsSnapshot>,
}

#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Sent {
    pub p2p_bytes: u64,
    pub p2p_msgs: u64,
    pub coll_bytes: u64,
}

impl PhaseResult {
    /// Losses of the timed steps only.
    pub fn timed_losses(&self) -> &[f32] {
        &self.losses[WARMUP_STEPS..]
    }

    /// First timed step's start to the last one's end.
    pub fn window_s(&self) -> f64 {
        match (self.steps.first(), self.steps.last()) {
            (Some(first), Some(last)) => last.1 - first.0,
            _ => 0.0,
        }
    }
}

struct RankOut {
    spawn_s: f64,
    init_s: f64,
    warmup_s: f64,
    steps: Vec<(f64, f64)>,
    losses: Vec<f32>,
    step_peak_bytes: Vec<usize>,
    /// The timed window's two edges.
    edges: (Mark, Mark),
    capture_s: f64,
    assemble_s: f64,
}

/// What a rank reads at an edge of its timed window. Each rank reads only
/// the counters it alone writes, so differences between two marks are exact
/// although the ranks are not in lockstep.
#[derive(Clone, Copy)]
struct Mark {
    traffic: RankTraffic,
    pacing_stall_ns: u64,
    recv_retries: u64,
    /// The tracer's clock (0 in an untraced world).
    tracer_ns: u64,
    /// Process CPU seconds.
    cpu_s: f64,
}

/// How many timed rounds to run, decided by rank 0 from its warm step time
/// and read by every other rank, so all ranks run the same steps.
struct Rounds(AtomicUsize);

const UNDECIDED: usize = usize::MAX;

impl Rounds {
    fn wait(&self) -> usize {
        loop {
            // Acquire pairs with the Release in `Decision::drop`.
            let r = self.0.load(Ordering::Acquire);
            if r != UNDECIDED {
                return r;
            }
            std::thread::yield_now();
        }
    }
}

/// Publishes rank 0's decision when dropped, so an early error return or a
/// panic on rank 0 still releases the waiting ranks (with zero rounds).
struct Decision<'a> {
    cell: &'a Rounds,
    rounds: usize,
}

impl Drop for Decision<'_> {
    fn drop(&mut self) {
        self.cell.0.store(self.rounds, Ordering::Release);
    }
}

/// As many whole rounds as come nearest to `seconds`, at least one.
fn rounds_for(seconds: f64, round_steps: usize, warm_step_s: f64) -> usize {
    ((seconds / (round_steps as f64 * warm_step_s)).round() as usize).max(1)
}

struct Stepper<'a> {
    rt: RankRuntime,
    schedule: &'a Schedule,
    t0: Instant,
    losses: Vec<f32>,
    /// Rank 0 only: the allocator's high-water mark of each step, latched
    /// at the step's end. One rank does it, because the mark is the
    /// process's, and the ranks move in near lockstep.
    peaks: Option<Vec<usize>>,
}

impl Stepper<'_> {
    fn now(&self) -> f64 {
        self.t0.elapsed().as_secs_f64()
    }

    fn step(&mut self) -> Result<(f64, f64), CommError> {
        let iter = self.losses.len();
        let start = self.now();
        let loss = self.rt.run_iteration(self.schedule, iter)?;
        self.rt.reseed_bwd_flow(self.schedule, iter)?;
        self.losses.push(loss);
        let end = self.now();
        if let Some(peaks) = &mut self.peaks {
            peaks.push(ALLOC.latch_peak());
        }
        Ok((start, end))
    }
}

fn rank_body(
    phase: &Phase,
    t0: Instant,
    rounds: &Rounds,
    registry: Option<&MetricsRegistry>,
    comm: Communicator,
) -> Result<RankOut, CommError> {
    let spawn_s = t0.elapsed().as_secs_f64();
    let rank = comm.rank();
    // Lazily built: a `Decision` publishes when dropped, so only rank 0 may
    // ever hold one.
    let decision = (rank == 0).then(|| Decision {
        cell: rounds,
        rounds: 0,
    });
    let meter = comm.meter().clone();
    let tracer = comm.tracer().cloned();
    let mark = || {
        let counters = registry.map(|reg| reg.snapshot_rank(rank));
        let counter = |c| counters.as_ref().map_or(0, |snap| snap.counter(c));
        Mark {
            traffic: meter.rank(rank),
            pacing_stall_ns: counter(Counter::PacingStallNs),
            recv_retries: counter(Counter::RecvRetries),
            tracer_ns: tracer.as_ref().map_or(0, |t| t.now_ns()),
            cpu_s: host::process_cpu_seconds(),
        }
    };

    let rt = RankRuntime::new(phase.setup, phase.schedule, comm);
    let mut s = Stepper {
        rt,
        schedule: phase.schedule,
        t0,
        losses: Vec::new(),
        peaks: (rank == 0).then(Vec::new),
    };
    let init_s = s.now() - spawn_s;

    let mut warm = (0.0, 0.0);
    for _ in 0..WARMUP_STEPS {
        warm = s.step()?;
    }
    let warmup_s = s.now() - spawn_s - init_s;
    let n_rounds = match decision {
        Some(mut d) => {
            d.rounds = rounds_for(phase.seconds, phase.round_steps, warm.1 - warm.0);
            d.rounds
        }
        None => rounds.wait(),
    };

    let start = mark();
    let mut steps = Vec::with_capacity(n_rounds * phase.round_steps);
    for _ in 0..n_rounds * phase.round_steps {
        steps.push(s.step()?);
    }
    let end = mark();

    let (mut capture_s, mut assemble_s) = (0.0, 0.0);
    if phase.snapshot {
        let next_iter = s.losses.len() as u64;
        let c0 = s.now();
        let state = s.rt.capture_state(phase.schedule, next_iter)?;
        capture_s = s.now() - c0;
        drop(state);
        let a0 = s.now();
        let model = s.rt.assemble(phase.schedule)?;
        assemble_s = s.now() - a0;
        drop(model);
    }
    Ok(RankOut {
        spawn_s,
        init_s,
        warmup_s,
        steps,
        losses: s.losses,
        step_peak_bytes: s.peaks.map_or(Vec::new(), |p| p[WARMUP_STEPS..].to_vec()),
        edges: (start, end),
        capture_s,
        assemble_s,
    })
}

/// Run one world through `phase`.
///
/// # Errors
/// The first rank's [`CommError`] (rank order) when the world failed.
pub fn run(phase: &Phase) -> Result<PhaseResult, CommError> {
    let setup = phase.setup;
    let collector = setup
        .trace
        .enabled
        .then(|| TraceCollector::new(RANKS, setup.trace.capacity_per_rank));
    let registry = setup.metrics.enabled.then(|| MetricsRegistry::new(RANKS));
    let rounds = Rounds(AtomicUsize::new(UNDECIDED));
    let t0 = Instant::now();
    let (outs, _meter) = World::builder(RANKS)
        .link(setup.link)
        .config(setup.comm)
        .transport(setup.transport)
        .maybe_trace(collector.clone())
        .maybe_metrics(registry.clone())
        .try_run(|comm| rank_body(phase, t0, &rounds, registry.as_ref(), comm));
    let outs = outs
        .into_iter()
        .collect::<Result<Vec<RankOut>, CommError>>()?;

    let mut sent = Sent::default();
    let (mut pacing_stall_ns, mut recv_retries) = (0, 0);
    for (a, b) in outs.iter().map(|o| o.edges) {
        pacing_stall_ns += b.pacing_stall_ns - a.pacing_stall_ns;
        recv_retries += b.recv_retries - a.recv_retries;
        sent.p2p_bytes += b.traffic.p2p_bytes - a.traffic.p2p_bytes;
        sent.p2p_msgs += b.traffic.p2p_msgs - a.traffic.p2p_msgs;
        sent.coll_bytes += b.traffic.collective_bytes - a.traffic.collective_bytes;
    }
    let windows_ns = outs
        .iter()
        .map(|o| (o.edges.0.tracer_ns, o.edges.1.tracer_ns))
        .collect();
    let r0 = outs.into_iter().next().expect("world has ranks");
    Ok(PhaseResult {
        spawn_s: r0.spawn_s,
        init_s: r0.init_s,
        warmup_s: r0.warmup_s,
        ready_s: r0.spawn_s + r0.init_s + r0.warmup_s,
        steps: r0.steps,
        losses: r0.losses,
        step_peak_bytes: r0.step_peak_bytes,
        cpu_s: r0.edges.1.cpu_s - r0.edges.0.cpu_s,
        sent,
        windows_ns,
        pacing_stall_ns,
        recv_retries,
        capture_s: r0.capture_s,
        assemble_s: r0.assemble_s,
        trace: collector.map(|c| c.snapshot()),
        metrics: registry.map(|r| r.snapshot()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_fill_the_requested_seconds() {
        // 3-step rounds of 1.8 s steps: 10 s is nearest to two rounds.
        assert_eq!(rounds_for(10.0, 3, 1.8), 2);
        assert_eq!(rounds_for(20.0, 2, 2.4), 4);
        assert_eq!(rounds_for(1.0, 3, 1.8), 1, "never fewer than one round");
    }

    #[test]
    fn a_dropped_decision_releases_waiters() {
        let rounds = Rounds(AtomicUsize::new(UNDECIDED));
        std::thread::scope(|s| {
            let waiter = s.spawn(|| rounds.wait());
            drop(Decision {
                cell: &rounds,
                rounds: 0,
            });
            assert_eq!(waiter.join().unwrap(), 0);
        });
    }
}
