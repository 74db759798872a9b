//! `wp-benchmark`: the repo benchmark. Four training workloads measured end
//! to end and layer by layer, entirely from outside the crates: by timing
//! calls into their public functions and by switching on the tracing and
//! metrics they already have. See `benchmark/README.md`.
//!
//! ```text
//! wp-benchmark run --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//!                  [--trace-out DIR] [--smoke]
//! wp-benchmark all      [--seed N] [--seconds S]
//! wp-benchmark repeat   [--seed N] [--seconds S]
//! wp-benchmark manifest
//! ```

mod alloc;
mod host;
mod manifest;
mod phase;
mod probes;
mod run;
mod shares;
mod stats;
mod workload;

use manifest::{DEFAULT_SEED, END_TO_END, RUN_SECONDS};
use run::{Report, Request};
use std::path::PathBuf;
use std::process::ExitCode;
use workload::{Workload, RANKS, WORKLOADS};

#[global_allocator]
pub static ALLOC: alloc::Tracking = alloc::Tracking::new();

struct Args {
    command: String,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut argv = std::env::args().skip(1);
    let mut args = Args {
        command: argv
            .next()
            .ok_or("missing subcommand: run | all | repeat | manifest")?,
        workload: None,
        seed: DEFAULT_SEED,
        seconds: RUN_SECONDS as f64,
        trace: false,
        trace_out: None,
        smoke: false,
    };
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => args.trace_out = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

/// Run-time guards, and what two result files need to be compared honestly.
/// Returns the kernel-pool width it pinned.
fn prepare_host() -> Result<usize, String> {
    let nproc = host::nproc();
    if nproc < RANKS {
        return Err(format!(
            "{nproc} core(s): the workloads run {RANKS} rank threads and need a core each"
        ));
    }
    // Pinned before the pool's first use, so rank threads plus their kernel
    // workers never outnumber the cores.
    let pool_threads = (nproc / RANKS).max(1);
    std::env::set_var("WP_THREADS", pool_threads.to_string());
    let load = host::load_average();
    println!(
        "# host: nproc={nproc} WP_THREADS={pool_threads} load1={} commit={}",
        load.map_or("unknown".into(), |l| l.to_string()),
        host::git_commit()
    );
    if load.is_some_and(|l| l > 0.5) {
        println!("# WARNING: the host is busy (1-minute load above 0.5); timings will be noisy");
    }
    Ok(pool_threads)
}

fn measure(
    w: &'static Workload,
    req: &Request,
    trace: bool,
    out: Option<&PathBuf>,
) -> Result<Report, String> {
    println!(
        "# workload={} seed={} seconds={} trace={} smoke={}",
        w.name, req.seed, req.seconds, trace as u8, req.smoke
    );
    let report = if trace {
        run::per_layer(w, req, out.map(|p| p.as_path()))
    } else {
        run::end_to_end(w, req)
    }
    .map_err(|e| format!("{}: a training step failed: {e:?}", w.name))?;
    report.print();
    Ok(report)
}

/// Both timed phases of one workload side by side; the problems found.
fn compare(a: &Report, b: &Report) -> Vec<String> {
    let mut problems = Vec::new();
    println!(
        "{:<20} {:>16} {:>16} {:>9}  bound",
        a.workload, "first", "second", "worse by"
    );
    for m in &END_TO_END {
        let (x, y) = (a.value(m.name), b.value(m.name));
        // Either run may be the better one; the gap must fit the bound both ways.
        let gap = m.better.worsening(x, y).max(m.better.worsening(y, x));
        println!(
            "{:<20} {x:>16.6} {y:>16.6} {:>8.2}%  {:.1}%",
            m.name,
            gap * 100.0,
            m.bound * 100.0
        );
        if gap > m.bound {
            problems.push(format!(
                "{}: {} differs by {:.2}%",
                a.workload,
                m.name,
                gap * 100.0
            ));
        }
    }
    if a.value("comm_mib_per_step") != b.value("comm_mib_per_step") {
        problems.push(format!("{}: comm_mib_per_step is not exact", a.workload));
    }
    let common = a.losses.len().min(b.losses.len());
    if a.losses[..common]
        .iter()
        .zip(&b.losses[..common])
        .any(|(x, y)| x.to_bits() != y.to_bits())
    {
        problems.push(format!("{}: the loss trajectories differ", a.workload));
    }
    problems.extend(
        a.problems
            .iter()
            .chain(&b.problems)
            .map(|p| format!("{}: {p}", a.workload)),
    );
    problems
}

fn dispatch(args: &Args) -> Result<ExitCode, String> {
    if args.command == "manifest" {
        print!("{}", manifest::benchmark_json());
        return Ok(ExitCode::SUCCESS);
    }
    let req = Request {
        seed: args.seed,
        seconds: args.seconds,
        smoke: args.smoke,
        pool_threads: prepare_host()?,
    };
    match args.command.as_str() {
        "run" => {
            let name = args.workload.as_deref().ok_or("run needs --workload")?;
            let w = workload::by_name(name).ok_or(format!("unknown workload {name}"))?;
            if args.trace_out.is_some() && !args.trace {
                return Err("--trace-out needs --trace 1".into());
            }
            let report = measure(w, &req, args.trace, args.trace_out.as_ref())?;
            println!("{}", report.json_line());
            Ok(ExitCode::SUCCESS)
        }
        "all" => {
            let mut correct = true;
            for w in &WORKLOADS {
                for trace in [false, true] {
                    correct &= measure(w, &req, trace, None)?.correct();
                }
            }
            Ok(if correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        "repeat" => {
            let mut problems = Vec::new();
            for w in &WORKLOADS {
                let first = measure(w, &req, false, None)?;
                let second = measure(w, &req, false, None)?;
                problems.extend(compare(&first, &second));
            }
            for p in &problems {
                println!("DIFFERS: {p}");
            }
            Ok(if problems.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            })
        }
        other => Err(format!("unknown subcommand {other}")),
    }
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| dispatch(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("wp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
