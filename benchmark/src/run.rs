//! The two measurements of a workload: the untraced end-to-end run and the
//! traced per-layer run, each ending in a [`Report`].

use crate::manifest::{self, END_TO_END, PER_LAYER};
use crate::phase::{self, Phase, PhaseResult};
use crate::probes::{self, Metrics, MIB};
use crate::shares::{self, world_self_times};
use crate::stats::{max, median, round_rates};
use crate::workload::{Workload, RANKS, WARMUP_STEPS};
use std::path::Path;
use std::time::Instant;
use weipipe::{build_schedule, run_single, MetricsConfig, TraceConfig, TrainSetup};
use wp_comm::CommError;
use wp_trace::{RankTrack, Trace};

/// What was asked for on the command line.
#[derive(Debug, Clone, Copy)]
pub struct Request {
    pub seed: u64,
    /// Target length of the timed rounds.
    pub seconds: f64,
    /// Test-sized shapes and one-step rounds.
    pub smoke: bool,
    /// `WP_THREADS` as pinned at start-up.
    pub pool_threads: usize,
}

/// One workload's result: every metric of one kind, the step count, and
/// what (if anything) failed the correctness check.
pub struct Report {
    pub workload: &'static str,
    pub metrics: Metrics,
    /// Timed steps run, and how many of them produced a non-finite loss.
    pub attempted: usize,
    pub failed: usize,
    /// Correctness violations, in words.
    pub problems: Vec<String>,
    /// Loss of every step, warm-up first.
    pub losses: Vec<f32>,
    /// Wall time of every timed step of the untraced world, milliseconds.
    pub step_ms: Vec<f64>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.problems.is_empty()
    }

    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
            .1
    }

    /// The driver's result line: one JSON object.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = manifest::unit_of(name).expect("only declared metrics are reported");
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name with its unit, then the step counts.
    pub fn print(&self) {
        for (name, value) in &self.metrics {
            let unit = manifest::unit_of(name).expect("only declared metrics are reported");
            println!("{name:<36} {value:>16.6} {unit}");
        }
        let steps: Vec<String> = self.step_ms.iter().map(|ms| format!("{ms:.0}")).collect();
        println!("# {} step samples, ms: {}", steps.len(), steps.join(" "));
        println!("{:<36} {:>16}", "steps_attempted", self.attempted);
        println!("{:<36} {:>16}", "steps_failed", self.failed);
        for p in &self.problems {
            println!("INCORRECT: {p}");
        }
    }
}

fn non_finite(losses: &[f32]) -> usize {
    losses.iter().filter(|l| !l.is_finite()).count()
}

fn check_loss_fell(losses: &[f32], problems: &mut Vec<String>) {
    let (first, last) = (losses[0], losses[losses.len() - 1]);
    if last.is_nan() || first.is_nan() || last >= first {
        problems.push(format!(
            "final loss {last} is not below the first loss {first}"
        ));
    }
}

fn step_ms(r: &PhaseResult) -> Vec<f64> {
    r.steps.iter().map(|(a, b)| (b - a) * 1e3).collect()
}

fn round_steps(w: &Workload, req: &Request) -> usize {
    if req.smoke {
        1
    } else {
        w.round_steps
    }
}

/// The untraced run: one world, set up once and timed for `req.seconds`,
/// reporting the six end-to-end metrics. A set-up costs two full training
/// steps, so the run's time goes to timed steps instead of repeating it; the
/// driver's median over runs steadies `setup_s`.
///
/// # Errors
/// The [`CommError`] a world failed with; no metric can be reported then.
pub fn end_to_end(w: &'static Workload, req: &Request) -> Result<Report, CommError> {
    let setup = w.setup(req.seed, req.smoke);
    let k = round_steps(w, req);
    let t0 = Instant::now();
    let schedule = build_schedule(w.strategy, RANKS, &setup);
    let build_s = t0.elapsed().as_secs_f64();
    let r = phase::run(&Phase {
        setup: &setup,
        schedule: &schedule,
        round_steps: k,
        seconds: req.seconds,
        snapshot: false,
    })?;

    let steps = r.steps.len();
    let tokens = setup.tokens_per_iter();
    let step_peaks: Vec<f64> = r.step_peak_bytes.iter().map(|&b| b as f64).collect();
    let metrics = vec![
        ("tokens_per_s", median(&round_rates(&r.steps, k, tokens))),
        ("setup_s", build_s + r.ready_s),
        ("peak_heap_mib", median(&step_peaks) / MIB),
        (
            "comm_mib_per_step",
            (r.sent.p2p_bytes + r.sent.coll_bytes) as f64 / steps as f64 / MIB,
        ),
        ("cpu_ms_per_token", r.cpu_s * 1e3 / (steps * tokens) as f64),
        ("step_ms_p50", median(&step_ms(&r))),
    ];
    assert!(
        END_TO_END
            .iter()
            .map(|d| d.name)
            .eq(metrics.iter().map(|(n, _)| *n)),
        "the end-to-end metrics are the declared ones, in order"
    );

    let mut problems = Vec::new();
    check_loss_fell(&r.losses, &mut problems);
    Ok(Report {
        workload: w.name,
        metrics,
        attempted: steps,
        failed: non_finite(r.timed_losses()),
        problems,
        step_ms: step_ms(&r),
        losses: r.losses,
    })
}

/// The spans of each rank's timed window, as a trace of their own.
fn window_trace(trace: &Trace, windows: &[(u64, u64)]) -> Trace {
    Trace {
        tracks: trace
            .tracks
            .iter()
            .zip(windows)
            .map(|(t, &(w0, w1))| RankTrack {
                rank: t.rank,
                spans: t
                    .spans
                    .iter()
                    .filter(|s| s.start_ns >= w0 && s.end_ns <= w1)
                    .copied()
                    .collect(),
                overwritten: 0,
            })
            .collect(),
    }
}

fn write_trace_files(dir: &Path, name: &str, traced: &PhaseResult) -> Result<(), String> {
    let trace = traced
        .trace
        .as_ref()
        .expect("the traced phase records spans");
    let registry = traced
        .metrics
        .as_ref()
        .expect("the traced phase is metered");
    let chrome = wp_trace::export_chrome_json(trace);
    wp_trace::validate_chrome_json(&chrome)
        .map_err(|e| format!("chrome trace is malformed: {e}"))?;
    let write = |file: String, text: &str| {
        let path = dir.join(file);
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    };
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    write(format!("{name}.trace.json"), &chrome)?;
    write(
        format!("{name}.metrics.json"),
        &wp_metrics::export_json(registry),
    )
}

/// The traced run: a short untraced world for reference, the same steps
/// again with tracing and metrics on (a quarter of `req.seconds` each, so
/// that the whole run costs about what an end-to-end run does), the
/// single-process reference, then the probes. Reports every per-layer metric.
///
/// # Errors
/// The [`CommError`] a world failed with.
pub fn per_layer(
    w: &'static Workload,
    req: &Request,
    trace_out: Option<&Path>,
) -> Result<Report, CommError> {
    let setup = w.setup(req.seed, req.smoke);
    let k = round_steps(w, req);
    let schedule = build_schedule(w.strategy, RANKS, &setup);
    let phase_of = |setup: &TrainSetup, snapshot: bool| {
        phase::run(&Phase {
            setup,
            schedule: &schedule,
            round_steps: k,
            seconds: req.seconds / 4.0,
            snapshot,
        })
    };
    let untraced = phase_of(&setup, false)?;
    let traced_setup = setup
        .clone()
        .with_trace(TraceConfig::on())
        .with_metrics(MetricsConfig::on());
    let traced = phase_of(&traced_setup, true)?;
    let mut problems = Vec::new();
    if let Some(dir) = trace_out {
        if let Err(e) = write_trace_files(dir, w.name, &traced) {
            problems.push(e);
        }
    }

    let mut single_setup = setup.clone();
    single_setup.iters = WARMUP_STEPS;
    let single = run_single(&single_setup);

    let tokens = setup.tokens_per_iter();
    let steps = traced.steps.len();
    let trace = traced
        .trace
        .as_ref()
        .expect("the traced phase records spans");
    let t = world_self_times(&trace.tracks, &traced.windows_ns);
    let share = |ns: u64| ns as f64 / t.window_ns as f64;
    let per_step = |x: u64| x as f64 / steps as f64;
    let ms = |s: f64| s * 1e3;
    let untraced_rate = median(&round_rates(&untraced.steps, k, tokens));
    let traced_rate = median(&round_rates(&traced.steps, k, tokens));
    let single_rate = single.tokens_per_second(&single_setup);
    let measured_bubble = window_trace(trace, &traced.windows_ns).bubble_ratio();
    let dropped: u64 = trace.tracks.iter().map(|t| t.overwritten).sum();

    let mut m: Metrics = Vec::with_capacity(PER_LAYER.len());
    probes::tensor(&setup, &mut m);
    probes::nn(&setup, &mut m);
    m.push(("wp-nn.fwd_share", share(t.of(shares::FWD))));
    m.push(("wp-nn.bwd_share", share(t.of(shares::BWD))));
    m.push(("wp-nn.wgrad_share", share(t.of(shares::WGRAD))));
    probes::optim(&setup, &mut m);
    m.push(("wp-optim.step_share", share(t.of(shares::OPTIM))));
    m.push(("wp-comm.p2p_msgs_per_step", per_step(traced.sent.p2p_msgs)));
    m.push((
        "wp-comm.p2p_mib_per_step",
        per_step(traced.sent.p2p_bytes) / MIB,
    ));
    m.push((
        "wp-comm.coll_mib_per_step",
        per_step(traced.sent.coll_bytes) / MIB,
    ));
    probes::comm(w, &setup, &mut m);
    m.push(("wp-comm.recv_wait_share", share(t.of(shares::RECV_WAIT))));
    m.push(("wp-comm.recv_xfer_share", share(t.of(shares::RECV_XFER))));
    m.push(("wp-comm.send_share", share(t.of(shares::SEND))));
    m.push(("wp-comm.coll_self_share", share(t.of(shares::COLLECTIVE))));
    m.push(("wp-comm.pacing_stall_share", share(traced.pacing_stall_ns)));
    m.push((
        "wp-comm.recv_retries_per_step",
        per_step(traced.recv_retries),
    ));
    m.push(("wp-comm.world_spawn_ms", ms(traced.spawn_s)));
    probes::sched(w, &setup, &schedule, &mut m);
    m.push(("weipipe.bubble_share", measured_bubble));
    m.push(("weipipe.other_share", share(t.unclaimed_ns)));
    m.push((
        "weipipe.interp_us_per_op",
        t.unclaimed_ns as f64 / 1e3 / (steps * schedule.total_ops()) as f64,
    ));
    m.push(("weipipe.runtime_init_ms", ms(traced.init_s)));
    m.push(("weipipe.warmup_ms", ms(traced.warmup_s)));
    m.push(("weipipe.ckpt_capture_ms", ms(traced.capture_s)));
    m.push(("weipipe.assemble_ms", ms(traced.assemble_s)));
    m.push(("weipipe.single_tokens_per_s", single_rate));
    m.push((
        "weipipe.scaling_efficiency",
        untraced_rate / (RANKS as f64 * single_rate),
    ));
    m.push(("weipipe.step_ms_max", max(&step_ms(&untraced))));
    m.push((
        "weipipe.window_tokens_per_s",
        (steps * tokens) as f64 / traced.window_s(),
    ));
    m.push((
        "weipipe.trace_overhead_pct",
        (1.0 - traced_rate / untraced_rate) * 100.0,
    ));
    let simulated_bubble = probes::sim(w, &setup, &schedule, &mut m);
    m.push((
        "wp-sim.bubble_drift_pp",
        (simulated_bubble - measured_bubble).abs() * 100.0,
    ));
    m.push(("wp-trace.spans_per_step", t.spans as f64 / steps as f64));
    m.push(("wp-trace.dropped_spans", dropped as f64));
    probes::host(req.pool_threads, &mut m);
    assert!(
        PER_LAYER
            .iter()
            .map(|d| d.name)
            .eq(m.iter().map(|(n, _)| *n)),
        "the per-layer metrics are the declared ones, in order"
    );

    check_loss_fell(&traced.losses, &mut problems);
    let common = untraced.losses.len().min(traced.losses.len());
    if (0..common).any(|i| untraced.losses[i].to_bits() != traced.losses[i].to_bits()) {
        problems.push(format!(
            "traced losses {:?} differ from untraced {:?}",
            &traced.losses[..common],
            &untraced.losses[..common]
        ));
    }
    for (i, reference) in single.losses.iter().enumerate() {
        let gap = (traced.losses[i] - reference).abs();
        if gap.is_nan() || gap > w.loss_tolerance() {
            problems.push(format!(
                "step {i}: loss {} is {gap} from run_single's {reference}",
                traced.losses[i]
            ));
        }
    }
    let analytic = probes::analytic_p2p_bytes(w, &setup, &schedule) * steps as u64;
    if analytic != traced.sent.p2p_bytes {
        problems.push(format!(
            "the schedule predicts {analytic} point-to-point bytes, the meter counted {}",
            traced.sent.p2p_bytes
        ));
    }
    if dropped != 0 {
        problems.push(format!("the trace ring dropped {dropped} spans"));
    }
    let mut report = Report {
        workload: w.name,
        metrics: m,
        attempted: untraced.steps.len() + steps,
        failed: non_finite(untraced.timed_losses()) + non_finite(traced.timed_losses()),
        problems,
        step_ms: step_ms(&untraced),
        losses: traced.losses,
    };
    let shares_sum: f64 = [
        "wp-nn.fwd_share",
        "wp-nn.bwd_share",
        "wp-nn.wgrad_share",
        "wp-optim.step_share",
        "wp-comm.recv_wait_share",
        "wp-comm.recv_xfer_share",
        "wp-comm.send_share",
        "wp-comm.coll_self_share",
        "weipipe.other_share",
    ]
    .iter()
    .map(|n| report.value(n))
    .sum();
    if (shares_sum - 1.0).abs() > 1e-9 || report.value("weipipe.other_share") < -0.01 {
        report
            .problems
            .push(format!("shares sum to {shares_sum}, not 1"));
    }
    if report.value("wp-nn.warm_allocs") != 0.0 {
        report
            .problems
            .push("a warm block forward + backward allocated".into());
    }
    Ok(report)
}
