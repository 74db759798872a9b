//! The launcher side of `ranks`: spawn one worker process per rank, wire
//! the mesh, watch the world (deadline, scheduled SIGKILL, live telemetry),
//! collect every rank's report, check the run's invariants — and, under
//! `--recover`, re-form the survivors of a failed world as the next
//! configuration epoch, as decided by [`weipipe::next_epoch`].

use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use weipipe::{
    load_train_state, next_epoch, run_distributed, Membership, MetricsConfig, TraceConfig,
    TrainState,
};
use wp_comm::RankTraffic;
use wp_metrics::{Counter, Gauge, Hist, MetricsSnapshot, RankSnapshot};
use wp_trace::{RankTrack, Trace};

use super::worker::ckpt_path;
use super::{rank_from_json, RankReport, ReportStatus, WorkerOpts, WorldOpts};
use crate::drift::{export_chrome_trace, mib, print_against_sim};

/// Heartbeat age beyond which the launcher flags a rank as stalled. Far
/// below any recv timeout, so a killed rank is visible in the live
/// telemetry before its peers surface typed failures.
const STALL_AFTER: Duration = Duration::from_millis(250);
/// How often the launcher repaints the live progress line.
const PROGRESS_EVERY: Duration = Duration::from_millis(250);
/// Recoveries one launch attempts: the scheduled SIGKILL lands once.
const MAX_RECOVERIES: usize = 1;

/// What the launcher does around the world it runs.
#[derive(Debug, Clone)]
pub struct LaunchOpts {
    /// Rerun the setup on in-process channels and require bit-identity.
    pub compare_inprocess: bool,
    /// Print the drift report and write the merged Chrome trace here.
    pub trace_out: Option<String>,
    /// Write the world's metrics export here (`.json` or Prometheus text).
    pub metrics_out: Option<String>,
    /// SIGKILL this rank of the initial world after the delay.
    pub kill: Option<(usize, Duration)>,
    /// Watchdog: a world still running after this long is a hang.
    pub deadline: Duration,
    /// Re-form the survivors of a failed world and continue.
    pub recover: bool,
    /// Snapshot period handed to every worker (`0` = no snapshots).
    pub ckpt_every: usize,
}

struct Worker {
    child: Child,
    report_path: PathBuf,
    killed: bool,
    status: Option<ExitStatus>,
}

/// The launcher's live view of one rank: the latest heartbeat snapshot
/// shipped over the worker's stdout, when it arrived, and whether a stall
/// warning has been printed for it already.
#[derive(Default)]
struct RankBeat {
    last: Option<Instant>,
    snap: Option<RankSnapshot>,
    stalled: bool,
}

/// What one spawned world produced.
struct EpochRun {
    /// Every rank's report; a rank that left none gets a synthetic entry
    /// carrying its last live heartbeat.
    reports: Vec<RankReport>,
    /// The ranks that left no report: their process died.
    dead: Vec<usize>,
}

/// Spawn one worker process per rank of `world` (`worker_args` renders each
/// one's command line), wire the TCP mesh, optionally SIGKILL one rank
/// after a delay, watchdog the whole run, and collect every report.
/// `Err(2)` when the watchdog fired — the hang outcome.
fn run_world(
    world: &WorldOpts,
    workers: &[WorkerOpts],
    worker_args: fn(&WorldOpts, &WorkerOpts) -> Vec<String>,
    kill: Option<(usize, Duration)>,
    deadline: Duration,
) -> Result<EpochRun, i32> {
    let exe = std::env::current_exe().expect("current exe");
    // Spawn every worker; stderr is inherited so failures are visible.
    let mut workers: Vec<Worker> = workers
        .iter()
        .map(|w| {
            let _ = std::fs::remove_file(&w.out);
            let child = Command::new(&exe)
                .args(worker_args(world, w))
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn worker");
            Worker {
                child,
                report_path: w.out.clone(),
                killed: false,
                status: None,
            }
        })
        .collect();

    // Collect each worker's listener port, then broadcast the full list.
    let mut ports = Vec::with_capacity(workers.len());
    let mut readers = Vec::with_capacity(workers.len());
    for (r, w) in workers.iter_mut().enumerate() {
        let stdout = w.child.stdout.take().expect("worker stdout");
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        let n = reader.read_line(&mut line).expect("read PORT line");
        let port = line
            .trim()
            .strip_prefix("PORT ")
            .unwrap_or_else(|| panic!("worker {r} sent {line:?} instead of PORT (eof={})", n == 0))
            .to_string();
        ports.push(port);
        readers.push(reader);
    }
    let ports_line = format!("PORTS {}\n", ports.join(" "));
    for w in workers.iter_mut() {
        let mut stdin = w.child.stdin.take().expect("worker stdin");
        stdin
            .write_all(ports_line.as_bytes())
            .expect("send PORTS line");
        // stdin drops (closes) here; workers have read their one line.
    }

    // Keep draining every worker's stdout on its own thread: heartbeat
    // `METRICS` lines update the shared telemetry table (and the drain
    // keeps the pipe from ever filling). Threads end at EOF — i.e. when
    // their worker exits or is killed.
    let telemetry: Arc<Mutex<Vec<RankBeat>>> = Arc::new(Mutex::new(
        workers.iter().map(|_| RankBeat::default()).collect(),
    ));
    let reader_threads: Vec<_> = readers
        .into_iter()
        .enumerate()
        .map(|(r, reader)| {
            let tel = Arc::clone(&telemetry);
            std::thread::spawn(move || {
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if let Some(rest) = line.strip_prefix("METRICS ") {
                        if let Some(snap) = rank_from_json(rest, r) {
                            let mut tel = tel.lock().expect("telemetry lock");
                            tel[r].last = Some(Instant::now());
                            tel[r].snap = Some(snap);
                        }
                    }
                }
            })
        })
        .collect();

    // Watchdog loop: reap workers, fire the scheduled SIGKILL, repaint the
    // live telemetry, and bound the whole run — a hang is the one outcome
    // chaos runs must never see.
    let start = Instant::now();
    let mut last_progress = Instant::now();
    loop {
        if let Some((kr, after)) = kill {
            if !workers[kr].killed && start.elapsed() >= after {
                eprintln!("killing rank {kr} after {:?}", start.elapsed());
                let _ = workers[kr].child.kill();
                workers[kr].killed = true;
            }
        }
        for w in workers.iter_mut() {
            if w.status.is_none() {
                w.status = w.child.try_wait().expect("try_wait");
            }
        }
        if world.metrics {
            let mut beats = telemetry.lock().expect("telemetry lock");
            // Stall checks run every tick — and before the all-exited
            // break, so a killed rank is flagged even when its peers
            // unwind within the same tick — while the progress line
            // stays rate-limited.
            note_stalls(&workers, &mut beats);
            if last_progress.elapsed() >= PROGRESS_EVERY {
                last_progress = Instant::now();
                print_live(world.iters, &workers, &beats);
            }
        }
        if workers.iter().all(|w| w.status.is_some()) {
            break;
        }
        if start.elapsed() > deadline {
            for w in workers.iter_mut() {
                let _ = w.child.kill();
            }
            println!("HANG: workers still running after {deadline:?}");
            return Err(2);
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    for t in reader_threads {
        let _ = t.join();
    }

    // Parse every report; a worker that died without writing one (e.g. the
    // SIGKILL target, or one killed mid-write) yields a synthetic entry
    // holding whatever its last heartbeat said.
    let mut beats = telemetry.lock().expect("telemetry lock");
    let mut dead = Vec::new();
    let reports = workers
        .iter()
        .enumerate()
        .map(|(r, w)| {
            std::fs::read_to_string(&w.report_path)
                .ok()
                .and_then(|t| RankReport::from_text(&t))
                .filter(|rep| rep.rank == r)
                .unwrap_or_else(|| {
                    dead.push(r);
                    let kind = if w.killed { "killed" } else { "no-report" };
                    let detail = format!("exit status {:?}", w.status);
                    RankReport {
                        metrics: beats[r].snap.take(),
                        ..RankReport::missing(r, kind, &detail)
                    }
                })
        })
        .collect();
    Ok(EpochRun { reports, dead })
}

/// One-time stall warnings: a rank whose heartbeats stopped (SIGKILLed,
/// wedged) or that died without even writing its report is flagged the
/// moment the watchdog notices — before its peers hit a recv timeout or
/// peer-dead error and unwind with a typed failure. A rank that exits
/// nonzero but delivers its report failed *typed*, which is not a stall.
fn note_stalls(workers: &[Worker], beats: &mut [RankBeat]) {
    for (r, beat) in beats.iter_mut().enumerate() {
        if beat.stalled || workers[r].status.as_ref().is_some_and(|s| s.success()) {
            continue;
        }
        let age = beat.last.map(|l| l.elapsed());
        let died_silent = workers[r].status.is_some() && !workers[r].report_path.exists();
        if died_silent || age.is_some_and(|a| a > STALL_AFTER) {
            beat.stalled = true;
            let ms = age.map_or(0, |a| a.as_millis());
            println!(
                "[live] rank {r} STALLED (no heartbeat for {ms} ms); \
                 peers should surface a typed failure shortly"
            );
        }
    }
}

/// Repaint the live dashboard: one progress line from the latest
/// heartbeats (world step, loss, throughput, per-rank liveness).
fn print_live(iters: usize, workers: &[Worker], beats: &[RankBeat]) {
    let mut states = String::new();
    for (r, beat) in beats.iter().enumerate() {
        let state = if workers[r].status.as_ref().is_some_and(|s| s.success()) {
            "done"
        } else if beat.stalled {
            "STALLED"
        } else if beat.last.is_none() {
            "wait"
        } else {
            "ok"
        };
        states.push_str(&format!(" {r}:{state}"));
    }
    let snaps = || beats.iter().filter_map(|b| b.snap.as_ref());
    let Some(step) = snaps().map(|s| s.counter(Counter::StepsCompleted)).min() else {
        println!("[live] waiting for first heartbeat |{states}");
        return;
    };
    // Loss from the furthest-along rank (gauges start at 0 until the
    // first completed iteration); throughput summed across ranks.
    let loss = snaps()
        .max_by_key(|s| s.counter(Counter::StepsCompleted))
        .map_or(0.0, |s| s.gauge(Gauge::Loss));
    let tok_s: f64 = snaps().map(|s| s.gauge(Gauge::TokensPerSec)).sum();
    println!(
        "[live] step {step}/{iters} | loss {loss:.4} | {:.1}k tok/s |{states}",
        tok_s / 1e3
    );
}

/// Print every rank's outcome and the world's traffic; return the merged
/// world snapshot (report slots, or the last live heartbeat of a rank that
/// died report-less).
fn print_epoch(reports: &[RankReport]) -> MetricsSnapshot {
    let mut world = MetricsSnapshot::empty(reports.len());
    for rep in reports {
        if let Some(m) = &rep.metrics {
            world.merge_rank(m.clone());
        }
        match &rep.status {
            ReportStatus::Ok => println!(
                "rank {}: ok in {:.3}s, sent {} B, final loss {:?}",
                rep.rank,
                rep.out.wall_seconds,
                rep.traffic().total_bytes(),
                rep.out.losses.last()
            ),
            ReportStatus::Err { kind, detail } => {
                println!("rank {}: FAILED [{kind}] {detail}", rep.rank);
            }
        }
    }
    println!(
        "world traffic: {} B sent, {} B received, {} faults injected",
        world.total(Counter::P2pBytesSent) + world.total(Counter::CollBytesSent),
        world.total(Counter::P2pBytesRecv) + world.total(Counter::CollBytesRecv),
        world.total(Counter::FaultsInjected)
    );
    world
}

/// End-of-run world rollup from the merged per-rank snapshots.
fn print_rollup(world: &MetricsSnapshot) {
    let steps = world.hist_total(Hist::StepWallNs);
    let mean_step_ms = if steps.count > 0 {
        steps.sum as f64 / steps.count as f64 / 1e6
    } else {
        0.0
    };
    println!(
        "metrics rollup: {} rank-steps (mean {:.2} ms), {} tokens, \
         {:.2} MiB p2p + {:.2} MiB collective sent, \
         {} timeouts",
        world.total(Counter::StepsCompleted),
        mean_step_ms,
        world.total(Counter::TokensProcessed),
        mib(world.total(Counter::P2pBytesSent)),
        mib(world.total(Counter::CollBytesSent)),
        world.total(Counter::RecvTimeouts),
    );
}

/// Invariants of a healthy multi-process run: every rank assembled the
/// bit-identical model, traffic is conserved per class world-wide, and —
/// under `compare_inprocess` — the whole run is bit-identical to the same
/// setup on in-process channels.
fn check_world(
    opts: &WorldOpts,
    reports: &[RankReport],
    world: &MetricsSnapshot,
    compare_inprocess: bool,
    violations: &mut Vec<String>,
) {
    let r0 = &reports[0];
    for rep in &reports[1..] {
        if !rep.out.bit_identical(&r0.out) {
            violations.push(format!(
                "rank {} disagrees with rank 0 on losses or assembled weights",
                rep.rank
            ));
        }
    }

    let (p2p_sent, p2p_recv) = (
        world.total(Counter::P2pBytesSent),
        world.total(Counter::P2pBytesRecv),
    );
    let (coll_sent, coll_recv) = (
        world.total(Counter::CollBytesSent),
        world.total(Counter::CollBytesRecv),
    );
    if p2p_sent != p2p_recv || coll_sent != coll_recv {
        violations.push(format!(
            "traffic not conserved: p2p {p2p_sent}->{p2p_recv} B, collective {coll_sent}->{coll_recv} B"
        ));
    }

    if compare_inprocess {
        // The same setup on rank threads over in-process channels, metered
        // so each rank's traffic can be read back.
        let mut setup = opts.setup();
        setup.trace = TraceConfig::off();
        setup.metrics = MetricsConfig::on();
        let reference = match run_distributed(opts.strategy, opts.ranks, &setup) {
            Ok(out) => out,
            Err(e) => {
                violations.push(format!("in-process reference run failed: {e}"));
                return;
            }
        };
        if !reference.bit_identical(&r0.out) {
            violations.push("TCP run is not bit-identical to the in-process run".into());
        }
        let slots = reference.metrics.as_ref().expect("reference was metered");
        for rep in reports {
            let (local, tcp) = (RankTraffic::of(&slots.ranks[rep.rank]), rep.traffic());
            if local != tcp {
                violations.push(format!(
                    "rank {} traffic differs across transports: in-process {local:?}, tcp {tcp:?}",
                    rep.rank
                ));
            }
        }
        println!("in-process comparison: bit-identical losses, weights, and traffic");
    }
}

/// Merge the workers' span tracks into one world trace.
///
/// Each worker records against its own process-local epoch, so tracks are
/// re-based to start at zero; cross-rank skew (the few ms between process
/// starts) is dropped, which is fine for the per-phase bubble and busy-share
/// numbers the drift report compares. It also means only same-rank edges of
/// the schedule's dependency graph could be checked on this trace, so
/// `wp_sim::check_timeline` is not run on it (it is on in-process traces,
/// which share one clock): cross-process causality needs a clock-offset
/// estimate first, not a tolerance.
fn merged_trace(reports: &[RankReport]) -> Trace {
    let tracks = reports
        .iter()
        .map(|rep| {
            let mut track = RankTrack {
                rank: rep.rank,
                ..rep.track.clone()
            };
            let base = track.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
            for s in &mut track.spans {
                s.start_ns -= base;
                s.end_ns -= base;
            }
            track
        })
        .collect();
    Trace { tracks }
}

/// Every loadable snapshot each surviving rank of a `p`-rank world left in
/// `dir` (`[rank]`-indexed; the `dead` ranks' lists stay empty). A worker
/// SIGKILLed mid-write leaves a truncated file the hardened loader rejects,
/// so a half-captured iteration is simply absent from that rank's list.
fn load_snapshots(dir: &Path, p: usize, dead: &[usize]) -> Vec<Vec<TrainState>> {
    let mut stores: Vec<Vec<TrainState>> = vec![Vec::new(); p];
    for entry in std::fs::read_dir(dir).into_iter().flatten().flatten() {
        let name = entry.file_name();
        let rank: Option<usize> = name
            .to_str()
            .and_then(|n| n.strip_prefix("ckpt-r")?.split_once("-i")?.0.parse().ok());
        let Some(rank) = rank.filter(|r| *r < p && !dead.contains(r)) else {
            continue;
        };
        if let Ok(state) = load_train_state(entry.path()) {
            stores[rank].push(state);
        }
    }
    stores
}

/// Run `world` as one OS process per rank and check it; returns the
/// process exit code (`0` trained and checked, `1` typed failure, `2` hang,
/// `3` conformance violation). `worker_args` renders the command line that
/// makes this executable run [`worker`](super::worker) with the given
/// options.
///
/// # Panics
/// Panics if the world has fewer than two ranks.
pub fn launch(
    world: &WorldOpts,
    opts: &LaunchOpts,
    worker_args: fn(&WorldOpts, &WorkerOpts) -> Vec<String>,
) -> i32 {
    assert!(world.ranks >= 2, "--ranks must be at least 2");
    let dir = std::env::temp_dir().join(format!("wp-ranks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create report dir");
    println!(
        "launching {} × {:?}: {} layers, {} microbatches, {} iters, {} ring",
        world.ranks,
        world.strategy,
        world.layers,
        world.microbatches,
        world.iters,
        if world.overlap {
            "overlapped"
        } else {
            "blocking"
        }
    );
    let code = run_epochs(&dir, world, opts, worker_args);
    let _ = std::fs::remove_dir_all(&dir);
    code
}

/// The epoch loop behind [`launch`]: run a world; when it fails and
/// recovery is on, ask the shared policy for the next one.
fn run_epochs(
    dir: &Path,
    initial: &WorldOpts,
    opts: &LaunchOpts,
    worker_args: fn(&WorldOpts, &WorkerOpts) -> Vec<String>,
) -> i32 {
    let start = Instant::now();
    let mut membership = Membership::initial(initial.ranks);
    let mut anchor: Option<(PathBuf, u64)> = None;
    loop {
        let recovered = membership.epoch > 0;
        let world = WorldOpts {
            ranks: membership.world_size(),
            ..initial.clone()
        };
        let workers: Vec<WorkerOpts> = (0..world.ranks)
            .map(|rank| WorkerOpts {
                rank,
                out: dir.join(format!("rank{rank}.txt")),
                ckpt: (opts.ckpt_every > 0).then(|| (dir.to_path_buf(), opts.ckpt_every)),
                membership: recovered.then(|| membership.clone()),
                resume: anchor.as_ref().map(|(path, _)| path.clone()),
            })
            .collect();
        let kill = opts.kill.filter(|_| !recovered);
        let run = match run_world(&world, &workers, worker_args, kill, opts.deadline) {
            Ok(run) => run,
            Err(code) => return code,
        };
        let metrics = print_epoch(&run.reports);
        let failed = run
            .reports
            .iter()
            .filter(|r| r.status != ReportStatus::Ok)
            .count();

        let next = (failed > 0 && opts.recover)
            .then(|| {
                let left = MAX_RECOVERIES - membership.epoch as usize;
                next_epoch(
                    &membership,
                    &run.dead,
                    &load_snapshots(dir, world.ranks, &run.dead),
                    left,
                )
            })
            .flatten();
        if let Some(next) = next {
            println!(
                "recovering: survivors {:?} re-form as a {}-rank world at epoch {}",
                next.membership.members,
                next.membership.world_size(),
                next.membership.epoch
            );
            let first = (0..world.ranks)
                .find(|r| !run.dead.contains(r))
                .expect("a recoverable world has survivors");
            anchor = next
                .anchor
                .map(|st| (ckpt_path(dir, first, st.next_iter), st.next_iter));
            match &anchor {
                Some((_, k)) => {
                    println!("recovery anchor: iteration {k} snapshot agreed on by every survivor")
                }
                None => println!(
                    "no common snapshot survived; restarting the shrunk world from iteration 0"
                ),
            }
            membership = next.membership;
            continue;
        }

        // The last epoch, finished or abandoned: report on it.
        let mut violations: Vec<String> = Vec::new();
        if world.metrics {
            print_rollup(&metrics);
            if recovered {
                println!(
                    "recovery rollup: {} recovery epoch(s), re-shard took {:?}",
                    metrics.total(Counter::RecoveryEpochs),
                    Duration::from_nanos(metrics.hist_total(Hist::ReshardNs).sum)
                );
            }
            if let Some(path) = &opts.metrics_out {
                // An export that fails its own validator is a conformance
                // violation, not a warning.
                violations.extend(wp_metrics::write_export(&metrics, path).err());
                println!("wrote metrics for {} ranks to {path}", world.ranks);
            }
        }
        if failed == 0 {
            let compare = opts.compare_inprocess && !recovered;
            check_world(&world, &run.reports, &metrics, compare, &mut violations);
            if let Some(path) = &opts.trace_out {
                let trace = merged_trace(&run.reports);
                if trace.span_count() == 0 {
                    violations.push("trace requested but no spans were recorded".into());
                } else {
                    print_against_sim(
                        &format!(
                            "Measured (multi-process TCP) vs simulated — {:?}, P={}",
                            world.strategy, world.ranks
                        ),
                        &trace,
                        &weipipe::build_schedule(world.strategy, world.ranks, &world.setup()),
                    );
                    violations.extend(export_chrome_trace(&trace, true, Some(path)).err());
                }
            }
        }
        if !violations.is_empty() {
            for v in &violations {
                println!("CONFORMANCE VIOLATION: {v}");
            }
            return 3;
        }
        let (p0, p) = (initial.ranks, world.ranks);
        let took = start.elapsed();
        return match (failed, recovered) {
            (0, false) => {
                println!("all {p} ranks trained in {took:?}");
                0
            }
            (0, true) => {
                let from = anchor.map_or(0, |(_, k)| k);
                println!("recovered: {p0} → {p} ranks resumed from iteration {from} and trained in {took:?}");
                0
            }
            (_, false) => {
                println!("{failed}/{p} ranks failed (typed) in {took:?}");
                1
            }
            (_, true) => {
                println!("recovery FAILED: {failed}/{p} ranks of the shrunk world in {took:?}");
                1
            }
        };
    }
}
