//! Multi-process WeiPipe launcher: one OS process per rank over real
//! localhost TCP sockets.
//!
//! The launcher (default mode) spawns one worker process per rank, wires
//! the mesh up (each worker binds an ephemeral listener, reports its port
//! on stdout, and receives the full port list on stdin), collects every
//! worker's [`RankReport`], merges the per-process traffic meters, and
//! checks the run's invariants. With `--compare-inprocess` it reruns the
//! identical setup on in-process channels in its own address space and
//! asserts the results are bit-identical — the cross-transport conformance
//! guarantee, proven over genuinely separate processes.
//!
//! ```text
//! cargo run --release -p wp-bench --bin ranks -- --ranks 2 \
//!     [--strategy weipipe] [--layers L] [--microbatches N] [--iters I] \
//!     [--blocking] [--faults SPEC] [--recv-timeout-ms MS] \
//!     [--compare-inprocess] [--trace] [--trace-out FILE] \
//!     [--metrics] [--metrics-out FILE] \
//!     [--kill-rank R --kill-after-ms MS] [--recover] [--ckpt-every K] \
//!     [--deadline-ms MS]
//! ```
//!
//! `--trace-out` merges the workers' span tracks into one trace, prints the
//! measured-vs-simulated drift report, and writes validated Chrome
//! trace-event JSON. `--kill-rank R --kill-after-ms MS` SIGKILLs one worker
//! mid-run — the chaos-parity check that survivors fail typed instead of
//! hanging.
//!
//! `--recover` turns the SIGKILL chaos run into an elastic one: workers
//! write a full training-state snapshot every `--ckpt-every` iterations
//! (default 1), and when the killed rank takes the world down the launcher
//! re-forms the survivors as a smaller world at configuration epoch 1 —
//! membership handshake, epoch-stamped frames — resumed from the newest
//! snapshot present and byte-identical on *every* survivor (a snapshot the
//! SIGKILL left truncated fails the hardened loader and is skipped). The
//! final rollup merges the recovered epoch's metrics with the recovery
//! markers: the `recovery_epochs` counter and the re-shard duration
//! histogram. Pick `--layers`/`--microbatches` divisible by both world
//! sizes (e.g. `--ranks 4 --layers 12 --microbatches 12`).
//!
//! `--metrics` meters every worker and turns the launcher into a live
//! dashboard: each worker's heartbeat thread ships its rank's metric
//! snapshot over stdout every few tens of milliseconds, and the launcher
//! prints a progress line (world step, loss, tokens/s, per-rank liveness)
//! while the run is in flight. A rank whose heartbeats stop — SIGKILLed,
//! wedged — is flagged `STALLED` well before its peers unwind with a typed
//! error. At the end the launcher merges every rank's final snapshot (or
//! its last heartbeat, for a rank that died without a report), prints a
//! world rollup, and — with `--metrics-out` — writes the validated
//! Prometheus (or `.json`) export.
//!
//! Exit codes: `0` trained and every check passed (including a successful
//! `--recover` continuation); `1` at least one rank failed with a typed
//! `CommError` (or was killed) and no recovery was requested or possible;
//! `2` the watchdog fired — a hang, the outcome the chaos suite asserts
//! never happens; `3` ranks trained but a conformance check failed (bit
//! mismatch, traffic non-conservation, invalid trace export).

use std::io::{BufRead, BufReader, Write};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use weipipe::{
    build_schedule, load_train_state, run_rank_elastic, save_train_state, CommConfig, FaultPlan,
    Membership, Strategy, TraceConfig, TrainSetup,
};
use wp_bench::ranks::{err_kind, parse_strategy, RankReport, ReportStatus};
use wp_comm::tcp::{bind_localhost, LOCAL_ESTABLISH_TIMEOUT};
use wp_comm::{TcpTransport, TrafficMeter, World};
use wp_metrics::{
    Counter, Gauge, Hist, MetricsConfig, MetricsRegistry, MetricsSnapshot, RankSnapshot,
};
use wp_sched::{build, PipelineSpec};
use wp_sim::{
    measured_result, render::ascii_timeline, simulate, ClusterSpec, CostModel, GpuSpec, ModelDims,
    SimOptions,
};
use wp_trace::{RankTrack, Trace, TraceCollector};

fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter().position(|a| a == name).map(|i| {
        args.get(i + 1)
            .unwrap_or_else(|| panic!("{name} needs a value"))
            .clone()
    })
}

/// Training configuration shared verbatim between the launcher, the
/// workers, and the in-process comparison run — one parser, so all three
/// construct the identical `TrainSetup`.
#[derive(Debug, Clone)]
struct Opts {
    ranks: usize,
    strategy: Strategy,
    layers: usize,
    microbatches: usize,
    iters: usize,
    overlap: bool,
    faults: Option<String>,
    recv_timeout_ms: Option<u64>,
    trace: bool,
    metrics: bool,
}

/// How often a metered worker emits a `METRICS` heartbeat line on stdout.
const HEARTBEAT_EVERY: Duration = Duration::from_millis(25);
/// Heartbeat age beyond which the launcher flags a rank as stalled. Far
/// below any recv timeout, so a killed rank is visible in the live
/// telemetry before its peers surface typed failures.
const STALL_AFTER: Duration = Duration::from_millis(250);
/// How often the launcher repaints the live progress line.
const PROGRESS_EVERY: Duration = Duration::from_millis(250);

impl Opts {
    fn parse(args: &[String]) -> Opts {
        let ranks: usize = flag_value(args, "--ranks").map_or(2, |v| v.parse().expect("--ranks"));
        let strategy = flag_value(args, "--strategy").map_or(Strategy::WeiPipeInterleave, |v| {
            parse_strategy(&v).unwrap_or_else(|| panic!("unknown strategy {v:?}"))
        });
        Opts {
            ranks,
            strategy,
            // Layers default to the world size (one layer per rank) but are
            // an independent knob: an elastic run needs a layer count both
            // world sizes divide.
            layers: flag_value(args, "--layers").map_or(ranks, |v| v.parse().expect("--layers")),
            microbatches: flag_value(args, "--microbatches")
                .map_or(2 * ranks, |v| v.parse().expect("--microbatches")),
            iters: flag_value(args, "--iters").map_or(2, |v| v.parse().expect("--iters")),
            overlap: !args.iter().any(|a| a == "--blocking"),
            faults: flag_value(args, "--faults"),
            recv_timeout_ms: flag_value(args, "--recv-timeout-ms")
                .map(|v| v.parse().expect("--recv-timeout-ms")),
            trace: args.iter().any(|a| a == "--trace"),
            metrics: args.iter().any(|a| a == "--metrics"),
        }
    }

    fn setup(&self) -> TrainSetup {
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

    /// The flags a worker needs to rebuild this exact configuration.
    fn forward_args(&self) -> Vec<String> {
        let mut v = vec![
            "--ranks".into(),
            self.ranks.to_string(),
            "--strategy".into(),
            self.strategy.label().to_string(),
            "--layers".into(),
            self.layers.to_string(),
            "--microbatches".into(),
            self.microbatches.to_string(),
            "--iters".into(),
            self.iters.to_string(),
        ];
        if !self.overlap {
            v.push("--blocking".into());
        }
        if let Some(spec) = &self.faults {
            v.push("--faults".into());
            v.push(spec.clone());
        }
        if let Some(ms) = self.recv_timeout_ms {
            v.push("--recv-timeout-ms".into());
            v.push(ms.to_string());
        }
        if self.trace {
            v.push("--trace".into());
        }
        if self.metrics {
            v.push("--metrics".into());
        }
        v
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let code = if args.iter().any(|a| a == "--worker") {
        worker_main(&args)
    } else {
        launcher_main(&args)
    };
    std::process::exit(code);
}

// ---------------------------------------------------------------------
// Worker: one rank, one process, one TCP endpoint.
// ---------------------------------------------------------------------

fn worker_main(args: &[String]) -> i32 {
    let opts = Opts::parse(args);
    let rank: usize = flag_value(args, "--rank")
        .expect("--worker needs --rank")
        .parse()
        .expect("--rank");
    let out_path = flag_value(args, "--out").expect("--worker needs --out");
    // Elastic extensions: periodic snapshot files, a resume anchor, and the
    // configuration epoch + membership of a re-formed world.
    let ckpt_dir = flag_value(args, "--ckpt-dir").map(PathBuf::from);
    let ckpt_every: usize =
        flag_value(args, "--ckpt-every").map_or(0, |v| v.parse().expect("--ckpt-every"));
    let epoch: u64 = flag_value(args, "--epoch").map_or(0, |v| v.parse().expect("--epoch"));
    let membership: Option<Membership> = flag_value(args, "--members").map(|csv| Membership {
        epoch,
        members: csv
            .split(',')
            .map(|w| w.parse().expect("--members takes comma-separated rank ids"))
            .collect(),
    });

    // Bind first, then tell the launcher our port: every peer's listener is
    // live before anyone learns an address, so connects cannot race binds.
    let listener = bind_localhost().expect("bind localhost listener");
    let port = listener.local_addr().expect("listener addr").port();
    println!("PORT {port}");
    std::io::stdout().flush().expect("flush PORT line");

    let mut line = String::new();
    std::io::stdin()
        .read_line(&mut line)
        .expect("read PORTS line");
    let ports: Vec<u16> = line
        .trim()
        .strip_prefix("PORTS ")
        .expect("expected PORTS line on stdin")
        .split_whitespace()
        .map(|w| w.parse().expect("port number"))
        .collect();
    assert_eq!(ports.len(), opts.ranks, "launcher sent wrong port count");
    let addrs: Vec<SocketAddr> = ports
        .iter()
        .map(|&p| SocketAddr::from(([127, 0, 0, 1], p)))
        .collect();
    let mut setup = opts.setup();
    if let Some(path) = flag_value(args, "--resume") {
        let state = load_train_state(&path).expect("load resume snapshot");
        let total = setup.iters;
        setup = setup.with_resume(state);
        setup.iters = total.saturating_sub(setup.start_iter);
    }
    let registry = setup
        .metrics
        .enabled
        .then(|| MetricsRegistry::new(opts.ranks));
    // Heartbeat: ship this rank's metric snapshot to the launcher over
    // stdout every few tens of milliseconds, starting before the mesh is
    // established so a rank wedged in `establish` is already visible as
    // stalled. A closed pipe means the launcher is gone — stop quietly
    // rather than crash the rank over telemetry.
    let heartbeat = registry.as_ref().map(|reg| {
        let reg = reg.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut out = std::io::stdout();
            while !flag.load(Ordering::Relaxed) {
                let line = reg.snapshot_rank(rank).to_line();
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

    let transport = TcpTransport::establish(rank, &addrs, listener, LOCAL_ESTABLISH_TIMEOUT)
        .expect("establish TCP mesh");

    let collector = setup
        .trace
        .enabled
        .then(|| TraceCollector::new(opts.ranks, setup.trace.capacity_per_rank));
    let schedule = build_schedule(opts.strategy, opts.ranks, &setup);
    let comm = World::builder(opts.ranks)
        .link(setup.link)
        .config(setup.comm)
        .epoch(epoch)
        .maybe_faults(setup.faults.clone())
        .maybe_trace(collector.clone())
        .maybe_metrics(registry.clone())
        .endpoint(Box::new(transport));
    let meter = comm.meter().clone();

    let result = run_rank_elastic(
        &setup,
        &schedule,
        comm,
        membership.as_ref(),
        ckpt_every,
        |st| {
            if let Some(dir) = &ckpt_dir {
                // Direct write, no tempfile dance: a worker SIGKILLed
                // mid-write leaves a truncated file the hardened loader
                // rejects, which is exactly how the launcher skips
                // half-captured snapshots.
                let path = dir.join(format!("ckpt-r{rank}-i{}.wpckpt", st.next_iter));
                save_train_state(&path, st).expect("write checkpoint snapshot");
            }
        },
    );
    if let Some((stop, handle)) = heartbeat {
        stop.store(true, Ordering::Relaxed);
        let _ = handle.join();
    }

    let track = collector.map(|c| {
        c.snapshot()
            .tracks
            .into_iter()
            .nth(rank)
            .expect("collector covers this rank")
    });
    let mut report = match &result {
        Ok(out) => RankReport {
            rank,
            status: ReportStatus::Ok,
            wall_seconds: out.wall_seconds,
            losses: out.losses.clone(),
            embed: out.embed.clone(),
            blocks: out.blocks.clone(),
            head: out.head.clone(),
            traffic: meter.rank(rank),
            overwritten: 0,
            spans: Vec::new(),
            metrics: None,
        },
        Err(e) => {
            let mut r = RankReport::missing(rank, err_kind(e), &e.to_string());
            r.traffic = meter.rank(rank);
            r
        }
    };
    if let Some(t) = track {
        report.overwritten = t.overwritten;
        report.spans = t.spans;
    }
    // The authoritative snapshot: taken after the heartbeat thread has
    // stopped, so it supersedes anything the launcher saw live.
    report.metrics = registry.as_ref().map(|r| r.snapshot_rank(rank));
    std::fs::write(&out_path, report.to_text()).expect("write report file");
    i32::from(result.is_err())
}

// ---------------------------------------------------------------------
// Launcher: spawn, wire, watch, collect, check.
// ---------------------------------------------------------------------

struct Worker {
    child: Child,
    report_path: PathBuf,
    killed: bool,
    status: Option<std::process::ExitStatus>,
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

/// What one spawned world produced: every rank's report and, for ranks
/// that died without writing one, their last live heartbeat snapshot.
struct EpochRun {
    reports: Vec<RankReport>,
    live_snaps: Vec<Option<RankSnapshot>>,
}

/// Spawn `opts.ranks` worker processes (passing `extra_args` through to
/// each), wire the TCP mesh, optionally SIGKILL one rank after a delay,
/// watchdog the whole run, and collect every report. `Err(2)` when the
/// watchdog fired — the hang outcome.
fn run_world(
    exe: &Path,
    dir: &Path,
    opts: &Opts,
    extra_args: &[String],
    kill: Option<(usize, Duration)>,
    deadline: Duration,
) -> Result<EpochRun, i32> {
    let p = opts.ranks;
    // Spawn every worker; stderr is inherited so failures are visible.
    let mut workers: Vec<Worker> = (0..p)
        .map(|r| {
            let report_path = dir.join(format!("rank{r}.txt"));
            let _ = std::fs::remove_file(&report_path);
            let child = Command::new(exe)
                .arg("--worker")
                .arg("--rank")
                .arg(r.to_string())
                .arg("--out")
                .arg(&report_path)
                .args(opts.forward_args())
                .args(extra_args)
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("spawn worker");
            Worker {
                child,
                report_path,
                killed: false,
                status: None,
            }
        })
        .collect();

    // Collect each worker's listener port, then broadcast the full list.
    let mut ports = Vec::with_capacity(p);
    let mut readers = Vec::with_capacity(p);
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
    let telemetry: Arc<Mutex<Vec<RankBeat>>> =
        Arc::new(Mutex::new((0..p).map(|_| RankBeat::default()).collect()));
    let reader_threads: Vec<_> = readers
        .into_iter()
        .enumerate()
        .map(|(r, reader)| {
            let tel = Arc::clone(&telemetry);
            std::thread::spawn(move || {
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    if let Some(rest) = line.strip_prefix("METRICS ") {
                        if let Some(snap) = RankSnapshot::from_line(rest) {
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
        if opts.metrics {
            let mut beats = telemetry.lock().expect("telemetry lock");
            // Stall checks run every tick — and before the all-exited
            // break, so a killed rank is flagged even when its peers
            // unwind within the same tick — while the progress line
            // stays rate-limited.
            note_stalls(&workers, &mut beats);
            if last_progress.elapsed() >= PROGRESS_EVERY {
                last_progress = Instant::now();
                print_live(opts, &workers, &beats);
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
    // SIGKILL target, or one killed mid-write) yields a synthetic entry.
    let reports: Vec<RankReport> = workers
        .iter()
        .enumerate()
        .map(|(r, w)| {
            std::fs::read_to_string(&w.report_path)
                .ok()
                .and_then(|t| RankReport::from_text(&t))
                .filter(|rep| rep.rank == r)
                .unwrap_or_else(|| {
                    let kind = if w.killed { "killed" } else { "no-report" };
                    RankReport::missing(r, kind, &format!("exit status {:?}", w.status))
                })
        })
        .collect();
    let live_snaps = telemetry
        .lock()
        .expect("telemetry lock")
        .iter()
        .map(|b| b.snap.clone())
        .collect();
    Ok(EpochRun {
        reports,
        live_snaps,
    })
}

/// Print every rank's outcome and the merged world traffic; return the
/// merged meter.
fn print_epoch(reports: &[RankReport]) -> TrafficMeter {
    let meter = TrafficMeter::new(reports.len());
    for rep in reports {
        meter.merge_rank(rep.rank, &rep.traffic);
    }
    for rep in reports {
        match &rep.status {
            ReportStatus::Ok => println!(
                "rank {}: ok in {:.3}s, sent {} B, final loss {:?}",
                rep.rank,
                rep.wall_seconds,
                rep.traffic.total_bytes(),
                rep.losses.last()
            ),
            ReportStatus::Err { kind, detail } => {
                println!("rank {}: FAILED [{kind}] {detail}", rep.rank);
            }
        }
    }
    println!(
        "world traffic: {} B sent, {} B received, {} faults injected",
        meter.total_bytes(),
        meter.total_recv_bytes(),
        meter.total_faults()
    );
    meter
}

/// Merge an epoch's final metric snapshots (report snapshots, falling back
/// to the last live heartbeat for ranks that died report-less).
fn merge_world_metrics(run: &EpochRun, p: usize) -> MetricsSnapshot {
    let mut world = MetricsSnapshot::empty(p);
    for (r, rep) in run.reports.iter().enumerate() {
        if let Some(m) = &rep.metrics {
            world.merge_rank(m.clone());
        } else if let Some(snap) = &run.live_snaps[r] {
            world.merge_rank(snap.clone());
        }
    }
    world
}

/// The newest snapshot iteration whose checkpoint file is present,
/// loadable, and byte-identical on *every* survivor. A worker SIGKILLed
/// mid-write leaves a truncated file the hardened loader rejects, so
/// half-captured iterations are skipped — recovery anchors only on state
/// the whole shrunk world agrees on.
fn find_common_checkpoint(dir: &Path, members: &[usize]) -> Option<(PathBuf, u64)> {
    let first = *members.first()?;
    let prefix = format!("ckpt-r{first}-i");
    let mut iters: Vec<u64> = std::fs::read_dir(dir)
        .ok()?
        .flatten()
        .filter_map(|e| {
            let name = e.file_name().into_string().ok()?;
            name.strip_prefix(&prefix)?
                .strip_suffix(".wpckpt")?
                .parse()
                .ok()
        })
        .collect();
    iters.sort_unstable();
    'outer: for &k in iters.iter().rev() {
        let mut bytes: Option<Vec<u8>> = None;
        for &m in members {
            let path = dir.join(format!("ckpt-r{m}-i{k}.wpckpt"));
            let Ok(b) = std::fs::read(&path) else {
                continue 'outer;
            };
            if load_train_state(&path).is_err() {
                continue 'outer;
            }
            match &bytes {
                None => bytes = Some(b),
                Some(prev) if *prev != b => continue 'outer,
                Some(_) => {}
            }
        }
        return Some((dir.join(format!("ckpt-r{first}-i{k}.wpckpt")), k));
    }
    None
}

fn launcher_main(args: &[String]) -> i32 {
    let opts = {
        let mut o = Opts::parse(args);
        // A drift report needs spans; --trace-out implies tracing. Same
        // for the metrics export.
        o.trace = o.trace || args.iter().any(|a| a == "--trace-out");
        o.metrics = o.metrics || args.iter().any(|a| a == "--metrics-out");
        o
    };
    let compare_inprocess = args.iter().any(|a| a == "--compare-inprocess");
    let trace_out = flag_value(args, "--trace-out");
    let metrics_out = flag_value(args, "--metrics-out");
    let kill_rank: Option<usize> =
        flag_value(args, "--kill-rank").map(|v| v.parse().expect("--kill-rank"));
    let kill_after = Duration::from_millis(
        flag_value(args, "--kill-after-ms").map_or(50, |v| v.parse().expect("--kill-after-ms")),
    );
    let deadline = Duration::from_millis(
        flag_value(args, "--deadline-ms").map_or(120_000, |v| v.parse().expect("--deadline-ms")),
    );
    let recover = args.iter().any(|a| a == "--recover");
    let ckpt_every: usize = flag_value(args, "--ckpt-every")
        .map_or(usize::from(recover), |v| v.parse().expect("--ckpt-every"));
    let p = opts.ranks;
    assert!(p >= 2, "--ranks must be at least 2");

    let exe = std::env::current_exe().expect("current exe");
    let dir = std::env::temp_dir().join(format!("wp-ranks-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create report dir");
    println!(
        "launching {} × {:?}: {} layers, {} microbatches, {} iters, {} ring",
        p,
        opts.strategy,
        opts.layers,
        opts.microbatches,
        opts.iters,
        if opts.overlap {
            "overlapped"
        } else {
            "blocking"
        }
    );

    let mut extra: Vec<String> = Vec::new();
    if ckpt_every > 0 {
        extra.extend([
            "--ckpt-dir".into(),
            dir.display().to_string(),
            "--ckpt-every".into(),
            ckpt_every.to_string(),
        ]);
    }
    let start = Instant::now();
    let run0 = match run_world(
        &exe,
        &dir,
        &opts,
        &extra,
        kill_rank.map(|r| (r, kill_after)),
        deadline,
    ) {
        Ok(r) => r,
        Err(code) => {
            let _ = std::fs::remove_dir_all(&dir);
            return code;
        }
    };
    let meter = print_epoch(&run0.reports);

    let mut violations: Vec<String> = Vec::new();
    let failed = run0
        .reports
        .iter()
        .filter(|r| r.status != ReportStatus::Ok)
        .count();
    if (failed == 0 || !recover) && opts.metrics {
        let world = merge_world_metrics(&run0, p);
        print_rollup(&world);
        if let Some(path) = &metrics_out {
            write_metrics_export(&world, path, &mut violations);
        }
    }
    if failed == 0 {
        check_world(
            &opts,
            &run0.reports,
            &meter,
            compare_inprocess,
            &mut violations,
        );
        if let Some(path) = &trace_out {
            emit_drift_report(&opts, &run0.reports, path, &mut violations);
        }
        let _ = std::fs::remove_dir_all(&dir);
        if !violations.is_empty() {
            for v in &violations {
                println!("CONFORMANCE VIOLATION: {v}");
            }
            return 3;
        }
        println!("all {p} ranks trained in {:?}", start.elapsed());
        return 0;
    }

    if !recover || kill_rank.is_none() || p - 1 < 2 {
        let _ = std::fs::remove_dir_all(&dir);
        if !violations.is_empty() {
            for v in &violations {
                println!("CONFORMANCE VIOLATION: {v}");
            }
            return 3;
        }
        println!("{failed}/{p} ranks failed (typed) in {:?}", start.elapsed());
        return 1;
    }

    // ----- Elastic recovery: re-form the survivors as a smaller world. ---
    let victim = kill_rank.expect("checked above");
    let members: Vec<usize> = (0..p).filter(|&r| r != victim).collect();
    println!(
        "recovering: survivors {members:?} re-form as a {}-rank world at epoch 1",
        members.len()
    );
    let reshard_started = Instant::now();
    let anchor = find_common_checkpoint(&dir, &members);
    let mut ropts = opts.clone();
    ropts.ranks = members.len();
    let csv = members
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let mut rextra: Vec<String> = vec!["--epoch".into(), "1".into(), "--members".into(), csv];
    match &anchor {
        Some((path, k)) => {
            println!("recovery anchor: iteration {k} snapshot agreed on by every survivor");
            rextra.extend(["--resume".into(), path.display().to_string()]);
        }
        None => {
            println!("no common snapshot survived; restarting the shrunk world from iteration 0");
        }
    }
    let run1 = match run_world(&exe, &dir, &ropts, &rextra, None, deadline) {
        Ok(r) => r,
        Err(code) => {
            let _ = std::fs::remove_dir_all(&dir);
            return code;
        }
    };
    let reshard = reshard_started.elapsed();
    let meter1 = print_epoch(&run1.reports);
    let failed1 = run1
        .reports
        .iter()
        .filter(|r| r.status != ReportStatus::Ok)
        .count();
    if opts.metrics {
        // Merged rollup: the recovered epoch's metrics plus the recovery
        // markers the launcher itself owns — the recovery-epoch counter and
        // the re-shard duration (kill detection through re-formed world).
        let mut world = merge_world_metrics(&run1, ropts.ranks);
        let markers = MetricsRegistry::new(ropts.ranks);
        let h = markers.handle(0);
        h.incr(Counter::RecoveryEpochs);
        h.observe(Hist::ReshardNs, reshard.as_nanos() as u64);
        world.merge_rank(markers.snapshot_rank(0));
        print_rollup(&world);
        println!(
            "recovery rollup: {} recovery epoch(s), re-shard took {reshard:?}",
            world.total(Counter::RecoveryEpochs)
        );
        if let Some(path) = &metrics_out {
            write_metrics_export(&world, path, &mut violations);
        }
    }
    if failed1 == 0 {
        check_world(&ropts, &run1.reports, &meter1, false, &mut violations);
    }
    let _ = std::fs::remove_dir_all(&dir);
    if !violations.is_empty() {
        for v in &violations {
            println!("CONFORMANCE VIOLATION: {v}");
        }
        return 3;
    }
    if failed1 > 0 {
        println!(
            "recovery FAILED: {failed1}/{} ranks of the shrunk world in {:?}",
            ropts.ranks,
            start.elapsed()
        );
        return 1;
    }
    let resumed = anchor.map_or("from iteration 0".to_string(), |(_, k)| {
        format!("from iteration {k}")
    });
    println!(
        "recovered: {p} → {} ranks resumed {resumed} and trained in {:?}",
        ropts.ranks,
        start.elapsed()
    );
    0
}

fn f32_bits_eq(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
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
fn print_live(opts: &Opts, workers: &[Worker], beats: &[RankBeat]) {
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
        "[live] step {step}/{} | loss {loss:.4} | {:.1}k tok/s |{states}",
        opts.iters,
        tok_s / 1e3
    );
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
         {} retries, {} timeouts, {} overflow-skipped",
        world.total(Counter::StepsCompleted),
        mean_step_ms,
        world.total(Counter::TokensProcessed),
        mib(world.total(Counter::P2pBytesSent)),
        mib(world.total(Counter::CollBytesSent)),
        world.total(Counter::RecvRetries),
        world.total(Counter::RecvTimeouts),
        world.total(Counter::OverflowSkipped),
    );
}

/// Write the aggregated export (`.json` → JSON, anything else →
/// Prometheus text), validating it first — an export that fails its own
/// validator is a conformance violation, not a warning.
fn write_metrics_export(world: &MetricsSnapshot, path: &str, violations: &mut Vec<String>) {
    let text = if path.ends_with(".json") {
        let json = wp_metrics::export_json(world);
        if let Err(e) = wp_metrics::validate_json(&json) {
            violations.push(format!("metrics JSON export failed validation: {e}"));
        }
        json
    } else {
        let prom = wp_metrics::export_prometheus(world);
        if let Err(e) = wp_metrics::validate_prometheus(&prom) {
            violations.push(format!("metrics Prometheus export failed validation: {e}"));
        }
        prom
    };
    std::fs::write(path, &text).expect("write metrics file");
    println!("wrote metrics for {} ranks to {path}", world.world_size());
}

/// Invariants of a healthy multi-process run: every rank assembled the
/// bit-identical model, traffic is conserved per class world-wide, and —
/// under `--compare-inprocess` — the whole run is bit-identical to the
/// same setup on in-process channels.
fn check_world(
    opts: &Opts,
    reports: &[RankReport],
    meter: &TrafficMeter,
    compare_inprocess: bool,
    violations: &mut Vec<String>,
) {
    let r0 = &reports[0];
    for rep in &reports[1..] {
        let same = f32_bits_eq(&rep.losses, &r0.losses)
            && f32_bits_eq(&rep.embed, &r0.embed)
            && f32_bits_eq(&rep.head, &r0.head)
            && rep.blocks.len() == r0.blocks.len()
            && rep
                .blocks
                .iter()
                .zip(&r0.blocks)
                .all(|(a, b)| f32_bits_eq(a, b));
        if !same {
            violations.push(format!(
                "rank {} disagrees with rank 0 on losses or assembled weights",
                rep.rank
            ));
        }
    }

    let all = meter.all();
    let p2p_sent: u64 = all.iter().map(|t| t.p2p_bytes).sum();
    let p2p_recv: u64 = all.iter().map(|t| t.p2p_recv_bytes).sum();
    let coll_sent: u64 = all.iter().map(|t| t.collective_bytes).sum();
    let coll_recv: u64 = all.iter().map(|t| t.collective_recv_bytes).sum();
    if p2p_sent != p2p_recv || coll_sent != coll_recv {
        violations.push(format!(
            "traffic not conserved: p2p {p2p_sent}->{p2p_recv} B, collective {coll_sent}->{coll_recv} B"
        ));
    }

    // Inside a worker the metrics registry and the traffic meter read the
    // same slots, but they reach the launcher through two different line
    // codecs: after crossing the process boundary they must still agree
    // per rank and per class.
    for rep in reports {
        if let Some(m) = &rep.metrics {
            let t = &rep.traffic;
            let pairs = [
                (
                    "p2p bytes sent",
                    m.counter(Counter::P2pBytesSent),
                    t.p2p_bytes,
                ),
                ("p2p msgs sent", m.counter(Counter::P2pMsgsSent), t.p2p_msgs),
                (
                    "collective bytes sent",
                    m.counter(Counter::CollBytesSent),
                    t.collective_bytes,
                ),
                (
                    "collective msgs sent",
                    m.counter(Counter::CollMsgsSent),
                    t.collective_msgs,
                ),
                (
                    "p2p bytes received",
                    m.counter(Counter::P2pBytesRecv),
                    t.p2p_recv_bytes,
                ),
                (
                    "collective bytes received",
                    m.counter(Counter::CollBytesRecv),
                    t.collective_recv_bytes,
                ),
                ("msgs received", m.counter(Counter::MsgsRecv), t.recv_msgs),
                (
                    "faults injected",
                    m.counter(Counter::FaultsInjected),
                    t.faults_injected,
                ),
            ];
            for (what, counted, metered) in pairs {
                if counted != metered {
                    violations.push(format!(
                        "rank {}: metrics {what} counter {counted} != traffic meter {metered}",
                        rep.rank
                    ));
                }
            }
        }
    }

    if compare_inprocess {
        let setup = opts.setup();
        let schedule = build_schedule(opts.strategy, opts.ranks, &setup);
        let (outs, local_meter) = World::builder(opts.ranks)
            .link(setup.link)
            .config(setup.comm)
            .maybe_faults(setup.faults.clone())
            .try_run(|comm| weipipe::run_rank(&setup, &schedule, comm));
        let reference = match outs.into_iter().next().expect("rank 0") {
            Ok(out) => out,
            Err(e) => {
                violations.push(format!("in-process reference run failed: {e}"));
                return;
            }
        };
        let same = f32_bits_eq(&reference.losses, &r0.losses)
            && f32_bits_eq(&reference.embed, &r0.embed)
            && f32_bits_eq(&reference.head, &r0.head)
            && reference.blocks.len() == r0.blocks.len()
            && reference
                .blocks
                .iter()
                .zip(&r0.blocks)
                .all(|(a, b)| f32_bits_eq(a, b));
        if !same {
            violations.push("TCP run is not bit-identical to the in-process run".into());
        }
        for rep in reports {
            let local = local_meter.rank(rep.rank);
            if local != rep.traffic {
                violations.push(format!(
                    "rank {} traffic differs across transports: in-process {:?}, tcp {:?}",
                    rep.rank, local, rep.traffic
                ));
            }
        }
        println!("in-process comparison: bit-identical losses, weights, and traffic");
    }
}

/// Merge the workers' span tracks into one world trace, print the
/// measured-vs-simulated drift report, and write validated Chrome JSON.
///
/// Each worker records against its own process-local epoch, so tracks are
/// re-based to start at zero; cross-rank skew (the few ms between process
/// starts) is dropped, which is fine for the per-phase bubble and busy-share
/// numbers the drift report compares.
fn emit_drift_report(
    opts: &Opts,
    reports: &[RankReport],
    path: &str,
    violations: &mut Vec<String>,
) {
    let tracks: Vec<RankTrack> = reports
        .iter()
        .map(|rep| {
            let base = rep.spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
            let spans = rep
                .spans
                .iter()
                .map(|s| {
                    let mut s = *s;
                    s.start_ns -= base;
                    s.end_ns -= base;
                    s
                })
                .collect();
            RankTrack {
                rank: rep.rank,
                spans,
                overwritten: rep.overwritten,
            }
        })
        .collect();
    let trace = Trace { tracks };
    if trace.span_count() == 0 {
        violations.push("trace requested but no spans were recorded".into());
        return;
    }
    let measured = measured_result(&trace);

    let spec = PipelineSpec::new(opts.ranks, opts.microbatches)
        .without_recompute()
        .with_overlap(opts.overlap);
    let sched = build(opts.strategy, spec);
    let dims = ModelDims::paper(1024, opts.ranks, 4096, opts.microbatches);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), &sched);
    let cluster = ClusterSpec {
        ranks: opts.ranks,
        node_size: opts.ranks,
        ..ClusterSpec::nvlink_16()
    };
    let sim = simulate(&sched, &cost, &cluster, SimOptions::default()).expect("fits");

    println!(
        "measured timeline ({} spans from {} processes):",
        trace.span_count(),
        opts.ranks
    );
    println!("{}", ascii_timeline(&measured, 96));
    println!("simulated timeline:");
    println!("{}", ascii_timeline(&sim, 96));
    println!(
        "{}",
        wp_bench::drift::drift_report(
            &format!(
                "Measured (multi-process TCP) vs simulated — {:?}, P={}",
                opts.strategy, opts.ranks
            ),
            &sim,
            &measured
        )
    );

    let json = wp_trace::export_chrome_json(&trace);
    match wp_trace::validate_chrome_json(&json) {
        Ok(stats) => println!(
            "validated export: {} events ({} spans, {} instants) on {} tracks",
            stats.events, stats.spans, stats.instants, stats.tracks
        ),
        Err(e) => violations.push(format!("trace export failed validation: {e}")),
    }
    std::fs::write(path, &json).expect("write trace file");
    println!("wrote {path} — open at https://ui.perfetto.dev or chrome://tracing");
}
