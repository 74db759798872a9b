//! One rank, one process, one TCP endpoint: the worker side of the `ranks`
//! launcher, and the typed configuration both sides share.

use std::io::Write;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use weipipe::{
    build_schedule, load_train_state, run_rank_elastic, save_train_state, CommConfig, FaultPlan,
    Membership, MetricsConfig, RunOutput, Strategy, TraceConfig, TrainSetup, TrainWorld,
};
use wp_comm::tcp::{bind_localhost, LOCAL_ESTABLISH_TIMEOUT};
use wp_comm::TcpTransport;

use super::{err_kind, rank_json, RankReport, ReportStatus};

/// How often a metered worker emits a `METRICS` heartbeat line on stdout.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(25);

/// Training configuration shared verbatim between the launcher, the
/// workers, and the in-process comparison run, so all three construct the
/// identical `TrainSetup`.
#[derive(Debug, Clone)]
pub struct WorldOpts {
    /// World size.
    pub ranks: usize,
    /// Schedule every rank executes.
    pub strategy: Strategy,
    /// Model depth; must divide by every world size the run visits.
    pub layers: usize,
    /// Microbatches per iteration.
    pub microbatches: usize,
    /// Training iterations (absolute: a resumed worker runs the remainder).
    pub iters: usize,
    /// Overlapped weight ring (`false` = blocking).
    pub overlap: bool,
    /// Seeded fault plan, in [`FaultPlan::from_spec`] syntax.
    pub faults: Option<String>,
    /// Fail-fast receive timeout.
    pub recv_timeout_ms: Option<u64>,
    /// Record spans on every rank.
    pub trace: bool,
    /// Meter every rank and heartbeat live telemetry to the launcher.
    pub metrics: bool,
}

impl WorldOpts {
    /// The training setup these options describe.
    ///
    /// # Panics
    /// Panics on a malformed fault spec.
    pub fn setup(&self) -> TrainSetup {
        let mut setup = TrainSetup::tiny(self.layers, self.microbatches).with_overlap(self.overlap);
        setup.iters = self.iters;
        if let Some(spec) = &self.faults {
            let plan = FaultPlan::from_spec(spec)
                .unwrap_or_else(|| panic!("malformed fault spec {spec:?}"));
            setup = setup.with_fault_plan(plan);
        }
        if let Some(ms) = self.recv_timeout_ms {
            setup = setup.with_comm_config(CommConfig::fail_fast(Duration::from_millis(ms)));
        }
        if self.trace {
            setup = setup.with_trace(TraceConfig::on());
        }
        if self.metrics {
            setup = setup.with_metrics(MetricsConfig::on());
        }
        setup
    }
}

/// What distinguishes one worker process of a world from its peers, and one
/// configuration epoch's workers from the last.
#[derive(Debug, Clone)]
pub struct WorkerOpts {
    /// This worker's rank in its world.
    pub rank: usize,
    /// Where the worker writes its [`RankReport`].
    pub out: PathBuf,
    /// Write a full training-state snapshot into this directory every so
    /// many completed iterations.
    pub ckpt: Option<(PathBuf, usize)>,
    /// The re-formed world to agree on before training, whose epoch every
    /// frame is stamped with (`None` for the initial world, epoch 0).
    pub membership: Option<Membership>,
    /// Snapshot file to resume from.
    pub resume: Option<PathBuf>,
}

/// Where rank `rank` keeps its snapshot taken before iteration `next_iter`.
pub(super) fn ckpt_path(dir: &Path, rank: usize, next_iter: u64) -> PathBuf {
    dir.join(format!("ckpt-r{rank}-i{next_iter}.wpckpt"))
}

/// Train one rank of `world` in this process over a localhost TCP endpoint
/// and write its [`RankReport`]; returns the process exit code (`1` when
/// the rank unwound with a typed error).
///
/// Wire-up protocol with the launcher: bind an ephemeral listener, print
/// `PORT <n>` on stdout, read the world's `PORTS <n0> <n1> …` line from
/// stdin. Every peer's listener is live before anyone learns an address, so
/// connects cannot race binds.
pub fn worker(world: &WorldOpts, opts: &WorkerOpts) -> i32 {
    let rank = opts.rank;
    let listener = bind_localhost().expect("bind localhost listener");
    let port = listener.local_addr().expect("listener addr").port();
    println!("PORT {port}");
    std::io::stdout().flush().expect("flush PORT line");

    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .expect("read PORTS line");
    let addrs: Vec<SocketAddr> = line
        .trim()
        .strip_prefix("PORTS ")
        .expect("expected PORTS line on stdin")
        .split_whitespace()
        .map(|w| SocketAddr::from(([127, 0, 0, 1], w.parse().expect("port number"))))
        .collect();
    assert_eq!(addrs.len(), world.ranks, "launcher sent wrong port count");

    let mut setup = world.setup();
    if let Some(path) = &opts.resume {
        let state = load_train_state(path).expect("load resume snapshot");
        let total = setup.iters;
        setup = setup.with_resume(state);
        setup.iters = total.saturating_sub(setup.start_iter());
    }
    let epoch = opts.membership.as_ref().map_or(0, |m| m.epoch);
    let assembled = TrainWorld::new(&setup, world.ranks, epoch);
    // Heartbeat: ship this rank's metric snapshot to the launcher over
    // stdout every few tens of milliseconds, starting before the mesh is
    // established so a rank wedged in `establish` is already visible as
    // stalled. A closed pipe means the launcher is gone — stop quietly
    // rather than crash the rank over telemetry.
    let heartbeat = assembled.registry.clone().map(|reg| {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut out = std::io::stdout();
            while !flag.load(Ordering::Relaxed) {
                let line = rank_json(reg.snapshot_rank(rank));
                if writeln!(out, "METRICS {line}")
                    .and_then(|()| out.flush())
                    .is_err()
                {
                    return;
                }
                std::thread::sleep(HEARTBEAT_EVERY);
            }
        });
        (stop, handle)
    });

    // Metered from the first frame: peers may send before this rank has
    // built its schedule and wrapped the endpoint.
    let metrics = assembled.registry.as_ref().map(|reg| reg.handle(rank));
    let transport =
        TcpTransport::establish(rank, &addrs, listener, LOCAL_ESTABLISH_TIMEOUT, metrics)
            .expect("establish TCP mesh");
    let schedule = build_schedule(world.strategy, world.ranks, &setup);
    let comm = assembled.builder.endpoint(Box::new(transport));
    // The slots this rank counts into — the metered registry when there is
    // one, the endpoint's own otherwise.
    let slots = comm.probe().registry();

    let (ckpt_dir, ckpt_every) = opts.ckpt.clone().unwrap_or_default();
    let membership = opts.membership.as_ref();
    let result = run_rank_elastic(&setup, &schedule, comm, membership, ckpt_every, |st| {
        // Direct write, no tempfile dance: a worker SIGKILLed mid-write
        // leaves a truncated file the hardened loader rejects, which is
        // exactly how the launcher skips half-captured snapshots.
        save_train_state(ckpt_path(&ckpt_dir, rank, st.next_iter), st)
            .expect("write checkpoint snapshot");
    });
    if let Some((stop, handle)) = heartbeat {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }

    let code = i32::from(result.is_err());
    let (status, out) = match result {
        Ok(out) => (ReportStatus::Ok, out),
        Err(e) => (
            ReportStatus::Err {
                kind: err_kind(&e).to_string(),
                detail: e.to_string(),
            },
            RunOutput::default(),
        ),
    };
    let report = RankReport {
        rank,
        status,
        out,
        track: assembled
            .collector
            .map(|c| c.snapshot().tracks.swap_remove(rank))
            .unwrap_or_default(),
        // Taken after the heartbeat thread has stopped, so it supersedes
        // anything the launcher saw live.
        metrics: Some(slots.snapshot_rank(rank)),
    };
    std::fs::write(&opts.out, report.to_text()).expect("write report file");
    code
}
