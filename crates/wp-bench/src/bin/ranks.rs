//! Multi-process WeiPipe launcher: one OS process per rank over real
//! localhost TCP sockets.
//!
//! The launcher (default mode) spawns one worker process per rank, wires
//! the mesh up (each worker binds an ephemeral listener, reports its port
//! on stdout, and receives the full port list on stdin), collects every
//! worker's [`RankReport`](wp_bench::ranks::RankReport), merges the
//! per-process traffic meters, and checks the run's invariants. With `--compare-inprocess` it reruns the
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
//! snapshot over stdout every few tens of milliseconds (a one-rank JSON
//! document, the same exact form its report file carries), and the launcher
//! prints a progress line (world step, loss, tokens/s, per-rank liveness)
//! while the run is in flight. A rank whose heartbeats stop — SIGKILLed,
//! wedged — is flagged `STALLED` well before its peers unwind with a typed
//! error. At the end the launcher merges every rank's final snapshot (or
//! its last heartbeat, for a rank that died without a report), prints a
//! world rollup, and — with `--metrics-out` — writes the world snapshot:
//! JSON, the exact form, re-parsed before it is written, when the path ends
//! in `.json`; the Prometheus text view otherwise.
//!
//! Exit codes: `0` trained and every check passed (including a successful
//! `--recover` continuation); `1` at least one rank failed with a typed
//! `CommError` (or was killed) and no recovery was requested or possible;
//! `2` the watchdog fired — a hang, the outcome the chaos suite asserts
//! never happens; `3` ranks trained but a conformance check failed (bit
//! mismatch, traffic non-conservation, invalid trace export).

use std::path::PathBuf;
use std::time::Duration;

use weipipe::{Membership, Strategy};
use wp_bench::ranks::{launch, parse_strategy, worker, LaunchOpts, WorkerOpts, WorldOpts};
use wp_bench::{flag_value, has_flag};

/// `--name <number>`, when given.
fn number<T: std::str::FromStr>(name: &str) -> Option<T> {
    flag_value(name).map(|v| {
        v.parse()
            .unwrap_or_else(|_| panic!("{name}: bad number {v:?}"))
    })
}

/// The training flags: parsed identically by the launcher and every worker
/// (the launcher forwards them through [`worker_args`]).
fn world_opts() -> WorldOpts {
    let ranks = number("--ranks").unwrap_or(2);
    WorldOpts {
        ranks,
        strategy: flag_value("--strategy").map_or(Strategy::WeiPipeInterleave, |v| {
            parse_strategy(&v).unwrap_or_else(|| panic!("unknown strategy {v:?}"))
        }),
        // Layers default to the world size (one layer per rank) but are an
        // independent knob: an elastic run needs a layer count both world
        // sizes divide.
        layers: number("--layers").unwrap_or(ranks),
        microbatches: number("--microbatches").unwrap_or(2 * ranks),
        iters: number("--iters").unwrap_or(2),
        overlap: !has_flag("--blocking"),
        faults: flag_value("--faults"),
        recv_timeout_ms: number("--recv-timeout-ms"),
        trace: has_flag("--trace"),
        metrics: has_flag("--metrics"),
    }
}

/// The flags only a worker process takes (the launcher writes them, see
/// [`worker_args`]): its rank and report file, and — for elastic runs —
/// the snapshot directory and period, the configuration epoch and
/// membership of a re-formed world, and the snapshot to resume from.
fn worker_opts() -> WorkerOpts {
    let epoch = number("--epoch").unwrap_or(0);
    WorkerOpts {
        rank: number("--rank").expect("--worker needs --rank"),
        out: flag_value("--out").expect("--worker needs --out").into(),
        ckpt: flag_value("--ckpt-dir").map(|dir| (dir.into(), number("--ckpt-every").unwrap_or(0))),
        membership: flag_value("--members").map(|csv| Membership {
            epoch,
            members: csv
                .split(',')
                .map(|w| w.parse().expect("--members takes comma-separated rank ids"))
                .collect(),
        }),
        resume: flag_value("--resume").map(PathBuf::from),
    }
}

/// The command line that makes this executable run one worker: the inverse
/// of [`world_opts`] + [`worker_opts`].
fn worker_args(world: &WorldOpts, w: &WorkerOpts) -> Vec<String> {
    let mut v: Vec<String> = vec!["--worker".into()];
    let mut put = |name: &str, value: String| v.extend([name.to_string(), value]);
    put("--rank", w.rank.to_string());
    put("--out", w.out.display().to_string());
    put("--ranks", world.ranks.to_string());
    put("--strategy", world.strategy.label().to_string());
    put("--layers", world.layers.to_string());
    put("--microbatches", world.microbatches.to_string());
    put("--iters", world.iters.to_string());
    if let Some(spec) = &world.faults {
        put("--faults", spec.clone());
    }
    if let Some(ms) = world.recv_timeout_ms {
        put("--recv-timeout-ms", ms.to_string());
    }
    if let Some((dir, every)) = &w.ckpt {
        put("--ckpt-dir", dir.display().to_string());
        put("--ckpt-every", every.to_string());
    }
    if let Some(m) = &w.membership {
        let csv: Vec<String> = m.members.iter().map(ToString::to_string).collect();
        put("--epoch", m.epoch.to_string());
        put("--members", csv.join(","));
    }
    if let Some(path) = &w.resume {
        put("--resume", path.display().to_string());
    }
    for (on, flag) in [
        (!world.overlap, "--blocking"),
        (world.trace, "--trace"),
        (world.metrics, "--metrics"),
    ] {
        if on {
            v.push(flag.into());
        }
    }
    v
}

/// The flags only the launcher takes.
fn launch_opts() -> LaunchOpts {
    let recover = has_flag("--recover");
    let kill_after = Duration::from_millis(number("--kill-after-ms").unwrap_or(50));
    LaunchOpts {
        compare_inprocess: has_flag("--compare-inprocess"),
        trace_out: flag_value("--trace-out"),
        metrics_out: flag_value("--metrics-out"),
        kill: number("--kill-rank").map(|r| (r, kill_after)),
        deadline: Duration::from_millis(number("--deadline-ms").unwrap_or(120_000)),
        recover,
        ckpt_every: number("--ckpt-every").unwrap_or(usize::from(recover)),
    }
}

fn main() {
    let mut world = world_opts();
    let code = if has_flag("--worker") {
        worker(&world, &worker_opts())
    } else {
        let opts = launch_opts();
        // A drift report needs spans and an export needs metrics: the
        // `-out` flags imply their recording flag.
        world.trace |= opts.trace_out.is_some();
        world.metrics |= opts.metrics_out.is_some();
        launch(&world, &opts, worker_args)
    };
    std::process::exit(code);
}
