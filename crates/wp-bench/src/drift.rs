//! Measured-vs-simulated drift analysis.
//!
//! The simulator times WeiPipe schedules against an A800 cost model; the
//! runtime executes the *same schedule IR* on OS threads. Absolute times
//! are therefore incomparable — what must agree is the **shape** of the
//! timeline: where the pipeline bubble sits (fill / steady / drain) and
//! how busy time splits across op classes. This module profiles any
//! [`SimResult`]-shaped timeline (simulated, or measured via
//! [`wp_sim::measured_result`]) one way, and renders the side-by-side
//! drift report the `trace` binary and the `ranks` launcher print
//! ([`print_against_sim`]).

use wp_sched::Schedule;
use wp_sim::{
    measured_result, render::ascii_timeline, simulate, ClusterSpec, CostModel, GpuSpec, ModelDims,
    SimOptions, SimResult,
};
use wp_trace::Trace;

/// The three pipeline phases, in timeline order.
pub const PHASES: [&str; 3] = ["fill", "steady", "drain"];

/// Shape profile of one timeline: overall and per-phase bubble, plus each
/// op class's share of total busy time.
#[derive(Debug, Clone)]
pub struct TimelineProfile {
    /// Iteration makespan, seconds (absolute — not compared directly).
    pub makespan: f64,
    /// Overall bubble ratio.
    pub bubble: f64,
    /// Bubble ratio inside each phase window (`NaN`-free: an empty window
    /// reports 0).
    pub phase_bubble: [f64; 3],
    /// Each phase's share of the makespan (sums to 1 for a non-empty run).
    pub phase_share: [f64; 3],
    /// `(class, share-of-total-busy)` sorted by class character.
    pub class_share: Vec<(char, f64)>,
}

/// Profile a timeline. The fill phase runs until the first backward op
/// starts anywhere; the drain phase starts when the last forward op ends;
/// steady is what lies between (clamped to be non-negative, since a
/// degenerate schedule can finish forwards after backwards begin).
pub fn profile(result: &SimResult) -> TimelineProfile {
    let makespan = result.makespan;
    let p = result.timeline.len().max(1) as f64;
    let ops = || result.timeline.iter().flatten();

    let fill_end = ops()
        .filter(|o| matches!(o.class, 'B' | 'b'))
        .map(|o| o.start)
        .fold(makespan, f64::min);
    let drain_start = ops()
        .filter(|o| o.class == 'F')
        .map(|o| o.end)
        .fold(0.0, f64::max)
        .clamp(fill_end, makespan);
    let windows = [
        (0.0, fill_end),
        (fill_end, drain_start),
        (drain_start, makespan),
    ];

    let mut phase_bubble = [0.0; 3];
    let mut phase_share = [0.0; 3];
    for (i, &(w0, w1)) in windows.iter().enumerate() {
        let span = w1 - w0;
        if span <= 0.0 {
            continue;
        }
        let busy: f64 = ops()
            .map(|o| (o.end.min(w1) - o.start.max(w0)).max(0.0))
            .sum();
        phase_bubble[i] = (1.0 - busy / (p * span)).max(0.0);
        phase_share[i] = if makespan > 0.0 { span / makespan } else { 0.0 };
    }

    let total_busy: f64 = ops().map(|o| o.end - o.start).sum();
    let mut class_share: Vec<(char, f64)> = Vec::new();
    if total_busy > 0.0 {
        for op in ops() {
            let dur = op.end - op.start;
            match class_share.binary_search_by_key(&op.class, |&(c, _)| c) {
                Ok(i) => class_share[i].1 += dur,
                Err(i) => class_share.insert(i, (op.class, dur)),
            }
        }
        for entry in &mut class_share {
            entry.1 /= total_busy;
        }
    }

    TimelineProfile {
        makespan,
        bubble: result.bubble_ratio,
        phase_bubble,
        phase_share,
        class_share,
    }
}

/// Warning text when a measured trace lost spans to ring overwrites, else
/// `None`. A truncated ring undercounts busy time, so every bubble and
/// busy-share figure derived from it is skewed low — the drift report must
/// say so instead of printing silently-wrong numbers.
pub fn truncation_warning(trace: &Trace) -> Option<String> {
    let dropped: Vec<(usize, u64)> = trace
        .tracks
        .iter()
        .filter(|t| t.overwritten > 0)
        .map(|t| (t.rank, t.overwritten))
        .collect();
    if dropped.is_empty() {
        return None;
    }
    let detail = dropped
        .iter()
        .map(|(r, n)| format!("rank {r} dropped {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    Some(format!(
        "WARNING: trace ring overwrote spans ({detail}); measured bubbles and \
         busy shares undercount real work — raise TraceConfig::capacity_per_rank \
         before trusting this report"
    ))
}

fn pct(x: f64) -> String {
    format!("{:>9.1}%", x * 100.0)
}

fn drift_pp(sim: f64, measured: f64) -> String {
    format!("{:>+7.1}pp", (measured - sim) * 100.0)
}

/// Render the side-by-side drift report between a simulated and a measured
/// timeline of the same schedule. Shares and ratios are compared (as
/// percentage-point drift); absolute makespans are shown but not diffed.
pub fn drift_report(title: &str, sim: &SimResult, measured: &SimResult) -> String {
    let s = profile(sim);
    let m = profile(measured);
    let mut out = String::new();
    out.push_str(&format!("## {title}\n\n"));
    out.push_str(&format!(
        "{:<26} {:>10} {:>10} {:>9}\n",
        "", "simulated", "measured", "drift"
    ));
    out.push_str(&format!(
        "{:<26} {:>8.3}ms {:>8.3}ms {:>9}\n",
        "makespan",
        s.makespan * 1e3,
        m.makespan * 1e3,
        "—"
    ));
    out.push_str(&format!(
        "{:<26} {} {} {}\n",
        "bubble ratio",
        pct(s.bubble),
        pct(m.bubble),
        drift_pp(s.bubble, m.bubble)
    ));
    for (i, phase) in PHASES.iter().enumerate() {
        out.push_str(&format!(
            "{:<26} {} {} {}\n",
            format!("{phase}-phase bubble"),
            pct(s.phase_bubble[i]),
            pct(m.phase_bubble[i]),
            drift_pp(s.phase_bubble[i], m.phase_bubble[i])
        ));
        out.push_str(&format!(
            "{:<26} {} {} {}\n",
            format!("{phase}-phase span share"),
            pct(s.phase_share[i]),
            pct(m.phase_share[i]),
            drift_pp(s.phase_share[i], m.phase_share[i])
        ));
    }
    // Union of classes, in character order.
    let mut classes: Vec<char> = s
        .class_share
        .iter()
        .chain(&m.class_share)
        .map(|&(c, _)| c)
        .collect();
    classes.sort_unstable();
    classes.dedup();
    let share = |prof: &TimelineProfile, c: char| {
        prof.class_share
            .iter()
            .find(|&&(k, _)| k == c)
            .map_or(0.0, |&(_, v)| v)
    };
    for c in classes {
        let (sv, mv) = (share(&s, c), share(&m, c));
        out.push_str(&format!(
            "{:<26} {} {} {}\n",
            format!("class {c} busy share"),
            pct(sv),
            pct(mv),
            drift_pp(sv, mv)
        ));
    }
    let fmt_bytes = |r: &SimResult| {
        let p2p: u64 = r.p2p_bytes.iter().sum();
        let coll: u64 = r.collective_bytes.iter().sum();
        format!("{:.2} MiB p2p + {:.2} MiB collective", mib(p2p), mib(coll))
    };
    out.push_str(&format!("\nbytes sent  sim: {}\n", fmt_bytes(sim)));
    out.push_str(&format!("       measured: {}\n", fmt_bytes(measured)));
    out
}

/// The simulator's timing of `sched` on A800s over NVLink, one node of
/// `sched.ranks` GPUs: the simulated side of every drift report.
pub fn simulate_on_a800(sched: &Schedule) -> SimResult {
    let ranks = sched.ranks;
    let dims = ModelDims::paper(1024, ranks, 4096, sched.microbatches);
    let cost = CostModel::for_schedule(dims, GpuSpec::a800(), sched);
    let cluster = ClusterSpec {
        ranks,
        node_size: ranks,
        ..ClusterSpec::nvlink_16()
    };
    simulate(sched, &cost, &cluster, SimOptions::default()).expect("fits")
}

/// Print the drift report of a measured `trace` (one track per rank)
/// against the simulator's timing of `sched`, the schedule the run
/// executed ([`simulate_on_a800`]): the truncation warning if the trace
/// lost spans, both ASCII timelines, then the side-by-side report under
/// `title`.
pub fn print_against_sim(title: &str, trace: &Trace, sched: &Schedule) {
    let measured = measured_result(trace);
    let sim = simulate_on_a800(sched);

    if let Some(warn) = truncation_warning(trace) {
        eprintln!("{warn}\n");
    }
    println!("measured timeline ({} spans):", trace.span_count());
    println!("{}", ascii_timeline(&measured, 96));
    println!("simulated timeline:");
    println!("{}", ascii_timeline(&sim, 96));
    println!("{}", drift_report(title, &sim, &measured));
}

/// Export `trace` as Chrome trace-event JSON: re-parse it through the
/// validator when `validate` (printing the event counts), and write it to
/// `path` when given.
///
/// # Errors
/// The validator's complaint. The file is still written, for inspection.
pub fn export_chrome_trace(
    trace: &Trace,
    validate: bool,
    path: Option<&str>,
) -> Result<(), String> {
    let json = wp_trace::export_chrome_json(trace);
    let checked = if validate {
        wp_trace::validate_chrome_json(&json)
            .map(|stats| {
                println!(
                    "validated export: {} events ({} spans, {} instants) on {} tracks",
                    stats.events, stats.spans, stats.instants, stats.tracks
                );
            })
            .map_err(|e| format!("trace export failed validation: {e}"))
    } else {
        Ok(())
    };
    if let Some(path) = path {
        std::fs::write(path, &json).expect("write trace file");
        println!("wrote {path} — open at https://ui.perfetto.dev or chrome://tracing");
    }
    checked
}

pub(crate) fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_sim::TimedOp;

    fn op(start: f64, end: f64, class: char) -> TimedOp {
        TimedOp {
            start,
            end,
            class,
            mb: 0,
            chunk: 0,
        }
    }

    fn result(makespan: f64, timeline: Vec<Vec<TimedOp>>) -> SimResult {
        let p = timeline.len();
        let busy: Vec<f64> = timeline
            .iter()
            .map(|ops| ops.iter().map(|o| o.end - o.start).sum())
            .collect();
        let total: f64 = busy.iter().sum();
        SimResult {
            makespan,
            bubble_ratio: 1.0 - total / (p as f64 * makespan),
            busy,
            peak_mem: vec![0; p],
            p2p_bytes: vec![0; p],
            collective_bytes: vec![0; p],
            cross_node_p2p_bytes: 0,
            timeline,
        }
    }

    #[test]
    fn phases_split_at_first_backward_and_last_forward() {
        // rank 0: F[0,1) B[2,3); rank 1: F[1,2) B[3,4)   (makespan 4)
        let r = result(
            4.0,
            vec![
                vec![op(0.0, 1.0, 'F'), op(2.0, 3.0, 'B')],
                vec![op(1.0, 2.0, 'F'), op(3.0, 4.0, 'B')],
            ],
        );
        let p = profile(&r);
        // fill = [0, 2) (first B starts at 2), drain = [2, 4) clamped from
        // last F end = 2 → steady is empty.
        assert_eq!(p.phase_share, [0.5, 0.0, 0.5]);
        // Each window has 2 rank-seconds busy of 2·2 available.
        assert!((p.phase_bubble[0] - 0.5).abs() < 1e-12);
        assert!((p.phase_bubble[2] - 0.5).abs() < 1e-12);
        let f = p.class_share.iter().find(|&&(c, _)| c == 'F').unwrap().1;
        assert!((f - 0.5).abs() < 1e-12);
    }

    #[test]
    fn profile_handles_empty_and_zero_makespan_timelines() {
        let p = profile(&result(0.0, vec![vec![], vec![]]));
        assert_eq!(p.class_share, vec![]);
        assert_eq!(p.phase_share, [0.0; 3]);
        assert!(p.phase_bubble.iter().all(|b| b.is_finite()));
    }

    #[test]
    fn identical_timelines_report_zero_drift() {
        let r = result(2.0, vec![vec![op(0.0, 1.0, 'F'), op(1.0, 2.0, 'B')]]);
        let report = drift_report("t", &r, &r);
        for line in report.lines().filter(|l| l.ends_with("pp")) {
            assert!(line.trim_end().ends_with("+0.0pp"), "nonzero drift: {line}");
        }
    }

    #[test]
    fn truncation_warning_fires_only_when_spans_dropped() {
        use wp_trace::{SpanKind, SpanRecord, TraceCollector};
        let span = |i: u64| SpanRecord {
            start_ns: i * 10,
            end_ns: i * 10 + 5,
            kind: SpanKind::Fwd,
            mb: 0,
            chunk: 0,
            bytes: 0,
            aux: 0,
        };
        let c = TraceCollector::new(1, 4);
        for i in 0..4 {
            c.tracer(0).record(span(i));
        }
        assert!(
            truncation_warning(&c.snapshot()).is_none(),
            "within capacity: no warning"
        );
        for i in 4..9 {
            c.tracer(0).record(span(i));
        }
        let warn = truncation_warning(&c.snapshot()).expect("overwritten ring must warn");
        assert!(warn.contains("rank 0 dropped 5"), "got: {warn}");
    }

    #[test]
    fn the_simulated_side_prices_the_schedule_the_run_executed() {
        // A checkpointed run with a knob: FSDP over four chunks, where the
        // default is one per rank.
        let strategy = wp_sched::Strategy::Fsdp;
        let mut setup = weipipe::TrainSetup::tiny(4, 4).with_knob(4);
        setup.recompute = true;
        let sched = weipipe::build_schedule(strategy, 2, &setup);
        assert!(sched.recompute && sched.chunks == 4);
        let busy = |s: &Schedule| -> f64 { simulate_on_a800(s).busy.iter().sum() };
        let forwards = |s: &Schedule| {
            let sim = simulate_on_a800(s);
            sim.timeline
                .iter()
                .flatten()
                .filter(|o| o.class == 'F')
                .count()
        };
        // One simulated forward per forward op of this schedule, which the
        // default knob's schedule does not have.
        assert_eq!(forwards(&sched), sched.stats().fwd);
        let default = wp_sched::build(strategy, wp_sched::PipelineSpec::new(2, 4));
        assert_ne!(forwards(&default), sched.stats().fwd);
        // And its checkpointed backwards are priced with their forward re-run.
        let without = Schedule {
            recompute: false,
            ..sched.clone()
        };
        assert!(busy(&sched) > busy(&without));
    }

    #[test]
    fn report_lists_every_class_from_either_side() {
        let sim = result(1.0, vec![vec![op(0.0, 1.0, 'F')]]);
        let measured = result(1.0, vec![vec![op(0.0, 1.0, 'w')]]);
        let report = drift_report("t", &sim, &measured);
        assert!(report.contains("class F busy share"));
        assert!(report.contains("class w busy share"));
        assert!(report.contains("bubble ratio"));
    }
}
