//! The `ranks` multi-process driver: one OS process per rank over
//! localhost TCP — the [`worker`] each process runs, the [`launch`]er that
//! spawns, watches, checks and (under `--recover`) re-forms a world, and
//! the report codec between them.
//!
//! Each worker trains one rank through the same `TrainWorld` assembly and
//! rank body as the in-process drivers and writes its outcome to a small
//! line-oriented text file; the launcher parses the files back, merges the
//! per-process metric snapshots and trace tracks, and checks
//! cross-transport bit-identity. Every `f32` travels as its IEEE-754 bit
//! pattern in hex and a rank's metric slots as the one-rank JSON document of
//! `wp_metrics::export_json` (the snapshot's one exact text form — also what
//! the `METRICS` heartbeat carries), so the round trip is exact: the
//! conformance suite compares multi-process results against in-process
//! results bit-for-bit.

use weipipe::RunOutput;
use wp_comm::{CommError, RankTraffic};
use wp_metrics::{MetricsSnapshot, RankSnapshot};
use wp_sched::Strategy;
use wp_trace::{RankTrack, SpanKind, SpanRecord};

mod launcher;
mod worker;

pub use launcher::{launch, LaunchOpts};
pub use worker::{worker, WorkerOpts, WorldOpts};

/// How a worker's run ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReportStatus {
    /// The rank trained to completion.
    Ok,
    /// The rank unwound with a typed [`CommError`]; `kind` is the stable
    /// short label from [`err_kind`], `detail` the error's display string.
    Err {
        /// Stable variant label (`peer-dead`, `timeout`, …).
        kind: String,
        /// Human-readable error text.
        detail: String,
    },
}

/// One worker's run outcome, as serialized to its `--out` file.
#[derive(Debug, Clone)]
pub struct RankReport {
    /// The rank this report belongs to.
    pub rank: usize,
    /// Outcome.
    pub status: ReportStatus,
    /// What this rank trained: losses, assembled parameters and loop wall
    /// time (all empty on error; the world-level aggregates are never set).
    pub out: RunOutput,
    /// This rank's spans, on its own process-local clock (empty when
    /// tracing was off; only `rank` above says whose they are).
    pub track: RankTrack,
    /// This rank's final metric slots — the traffic counters always, the
    /// rest when the run was metered. `None` only for a rank that died
    /// without reporting.
    pub metrics: Option<RankSnapshot>,
}

/// Stable short label for a [`CommError`] variant, used in reports and
/// asserted on by the chaos-parity tests ("fails typed, never hangs").
pub fn err_kind(e: &CommError) -> &'static str {
    match e {
        CommError::PeerDead { .. } => "peer-dead",
        CommError::Timeout { .. } => "timeout",
        CommError::Corrupt { .. } => "corrupt",
        CommError::Aborted { .. } => "aborted",
        CommError::InvalidTag { .. } => "invalid-tag",
        CommError::MembershipMismatch { .. } => "membership-mismatch",
        CommError::FrameTooLarge { .. } => "frame-too-large",
    }
}

/// Parse a strategy by its table label (case-insensitive), e.g. `weipipe`,
/// `1f1b`, `gpipe`. Only runtime-executable strategies are accepted.
pub fn parse_strategy(name: &str) -> Option<Strategy> {
    weipipe::runtime_strategies()
        .into_iter()
        .find(|s| s.label().eq_ignore_ascii_case(name))
}

fn push_f32_line(out: &mut String, key: &str, xs: &[f32]) {
    out.push_str(key);
    for x in xs {
        out.push_str(&format!(" {:08x}", x.to_bits()));
    }
    out.push('\n');
}

fn parse_f32s(rest: &str) -> Option<Vec<f32>> {
    rest.split_whitespace()
        .map(|w| u32::from_str_radix(w, 16).ok().map(f32::from_bits))
        .collect()
}

/// One rank's metric slots as a one-rank `export_json` document: a single
/// line with no spaces, so it rides a heartbeat or a report line whole.
fn rank_json(snap: RankSnapshot) -> String {
    let doc = wp_metrics::export_json(&MetricsSnapshot { ranks: vec![snap] });
    doc.trim_end().to_string()
}

/// Read [`rank_json`] back. `None` unless the document parses strictly and
/// holds exactly one rank entry, `rank`'s.
fn rank_from_json(doc: &str, rank: usize) -> Option<RankSnapshot> {
    let mut entries = wp_metrics::parse_json_ranks(doc).ok()?;
    (entries.len() == 1 && entries[0].rank == rank).then(|| entries.swap_remove(0))
}

impl RankReport {
    /// An all-empty report for a rank that never produced one (e.g. it was
    /// SIGKILLed mid-step). `kind` labels what happened to it.
    pub fn missing(rank: usize, kind: &str, detail: &str) -> RankReport {
        RankReport {
            rank,
            status: ReportStatus::Err {
                kind: kind.to_string(),
                detail: detail.to_string(),
            },
            out: RunOutput::default(),
            track: RankTrack::default(),
            metrics: None,
        }
    }

    /// This rank's traffic counters: a view of its metric slots (all zero
    /// for a rank that left none).
    pub fn traffic(&self) -> RankTraffic {
        self.metrics
            .as_ref()
            .map_or_else(RankTraffic::default, RankTraffic::of)
    }

    /// Serialize to the line-oriented text format (exact float round trip).
    /// The last line is `end <n>`, `n` counting the lines before it, so a
    /// file cut anywhere is recognisably incomplete.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("rank {}\n", self.rank));
        match &self.status {
            ReportStatus::Ok => out.push_str("status ok\n"),
            ReportStatus::Err { kind, detail } => {
                // One line per field: a panic message may span several.
                let detail = detail.replace('\n', " ");
                out.push_str(&format!("status err {kind} {detail}\n"));
            }
        }
        out.push_str(&format!("wall {:016x}\n", self.out.wall_seconds.to_bits()));
        push_f32_line(&mut out, "loss", &self.out.losses);
        push_f32_line(&mut out, "embed", &self.out.embed);
        for b in &self.out.blocks {
            push_f32_line(&mut out, "block", b);
        }
        push_f32_line(&mut out, "head", &self.out.head);
        out.push_str(&format!("overwritten {}\n", self.track.overwritten));
        if let Some(m) = &self.metrics {
            out.push_str(&format!("metrics {}\n", rank_json(m.clone())));
        }
        for s in &self.track.spans {
            out.push_str(&format!(
                "span {} {} {} {} {} {} {}\n",
                s.kind as u8, s.start_ns, s.end_ns, s.mb, s.chunk, s.bytes, s.aux
            ));
        }
        let lines = out.lines().count();
        out.push_str(&format!("end {lines}\n"));
        out
    }

    /// Parse a report back from [`Self::to_text`] output. `None` on any
    /// malformed line and on any text that does not finish with the
    /// matching `end <n>` line — a worker killed mid-write must not parse
    /// as a clean result, wherever the cut fell — and on a `metrics` line
    /// that is not exactly this rank's one-rank document.
    pub fn from_text(text: &str) -> Option<RankReport> {
        let (body, end) = text.strip_suffix('\n')?.rsplit_once('\n')?;
        if end.strip_prefix("end ")?.parse::<usize>().ok()? != body.lines().count() {
            return None;
        }
        let mut rank = None;
        let mut status = None;
        let mut out = RunOutput::default();
        let mut track = RankTrack::default();
        let mut metrics = None;
        for line in body.lines() {
            let (key, rest) = match line.split_once(' ') {
                Some((k, r)) => (k, r),
                None => (line, ""),
            };
            match key {
                "rank" => rank = Some(rest.parse::<usize>().ok()?),
                "status" => {
                    status = Some(if rest == "ok" {
                        ReportStatus::Ok
                    } else {
                        let rest = rest.strip_prefix("err ")?;
                        let (kind, detail) = rest.split_once(' ').unwrap_or((rest, ""));
                        ReportStatus::Err {
                            kind: kind.to_string(),
                            detail: detail.to_string(),
                        }
                    });
                }
                "wall" => out.wall_seconds = f64::from_bits(u64::from_str_radix(rest, 16).ok()?),
                "loss" => out.losses = parse_f32s(rest)?,
                "embed" => out.embed = parse_f32s(rest)?,
                "block" => out.blocks.push(parse_f32s(rest)?),
                "head" => out.head = parse_f32s(rest)?,
                "overwritten" => track.overwritten = rest.parse().ok()?,
                "metrics" => metrics = Some(rest),
                "span" => {
                    let v: Vec<u64> = rest
                        .split_whitespace()
                        .map(|w| w.parse().ok())
                        .collect::<Option<_>>()?;
                    if v.len() != 7 {
                        return None;
                    }
                    track.spans.push(SpanRecord {
                        start_ns: v[1],
                        end_ns: v[2],
                        kind: SpanKind::from_u8(u8::try_from(v[0]).ok()?)?,
                        mb: u32::try_from(v[3]).ok()?,
                        chunk: u32::try_from(v[4]).ok()?,
                        bytes: v[5],
                        aux: v[6],
                    });
                }
                _ => return None,
            }
        }
        let rank = rank?;
        Some(RankReport {
            rank,
            status: status?,
            out,
            track,
            metrics: match metrics {
                Some(doc) => Some(rank_from_json(doc, rank)?),
                None => None,
            },
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_trace::NO_ID;

    /// Rank 1's slots holding every value a text form could bend: a
    /// negative zero, both infinities, a NaN and a counter no `f64` holds.
    fn sample_metrics() -> RankSnapshot {
        use wp_metrics::{Counter, Gauge, Hist, MetricsRegistry};
        let reg = MetricsRegistry::new(2);
        let m = reg.handle(1);
        m.add(Counter::P2pBytesSent, 10);
        m.add(Counter::TokensProcessed, (1 << 60) + 1);
        m.set(Gauge::Loss, -0.0);
        m.set(Gauge::GradNorm, f64::INFINITY);
        m.set(Gauge::TokensPerSec, f64::NEG_INFINITY);
        m.set(Gauge::CurrentLr, f64::NAN);
        m.observe(Hist::StepWallNs, 12345);
        reg.snapshot_rank(1)
    }

    fn sample() -> RankReport {
        RankReport {
            rank: 1,
            status: ReportStatus::Ok,
            out: RunOutput {
                wall_seconds: 0.125,
                losses: vec![1.5, std::f32::consts::PI, -0.0],
                embed: vec![0.1, -2.5e-8],
                blocks: vec![vec![1.0, 2.0], vec![]],
                head: vec![f32::MAX],
                ..RunOutput::default()
            },
            track: RankTrack {
                rank: 1,
                overwritten: 3,
                spans: vec![SpanRecord {
                    start_ns: 5,
                    end_ns: 9,
                    kind: SpanKind::Send,
                    mb: 1,
                    chunk: NO_ID,
                    bytes: 64,
                    aux: 7,
                }],
            },
            metrics: Some(sample_metrics()),
        }
    }

    /// Parse `text` and re-serialize it: equal text means every field —
    /// each float's bit pattern included — survived the round trip.
    fn reparsed(text: &str) -> Option<String> {
        RankReport::from_text(text).map(|r| r.to_text())
    }

    #[test]
    fn report_round_trips_bit_exactly() {
        let r = sample();
        let parsed = RankReport::from_text(&r.to_text()).expect("parses");
        assert_eq!(parsed.to_text(), r.to_text());
        assert_eq!(parsed.out.blocks, r.out.blocks);
        assert_eq!(parsed.track.spans, r.track.spans);
        // -0.0 == 0.0 under PartialEq; check the sign bits survived too.
        assert_eq!(parsed.out.losses[2].to_bits(), (-0.0f32).to_bits());
        use wp_metrics::{Counter, Gauge};
        let m = parsed.metrics.as_ref().expect("metrics line survives");
        assert_eq!(m.gauge(Gauge::Loss).to_bits(), (-0.0f64).to_bits());
        assert_eq!(m.gauge(Gauge::GradNorm), f64::INFINITY);
        assert_eq!(m.gauge(Gauge::TokensPerSec), f64::NEG_INFINITY);
        assert!(m.gauge(Gauge::CurrentLr).is_nan());
        assert_eq!(m.counter(Counter::TokensProcessed), (1 << 60) + 1);
        assert_eq!(m.hists, sample_metrics().hists);
        // Traffic is a view of the metrics line, not a second copy.
        assert_eq!(parsed.traffic().p2p_bytes, 10);
    }

    #[test]
    fn silent_rank_round_trips_without_a_metrics_line() {
        let mut r = sample();
        r.metrics = None;
        let text = r.to_text();
        assert!(!text.contains("metrics"), "no metrics line without slots");
        assert_eq!(reparsed(&text), Some(text));
        assert_eq!(r.traffic(), RankTraffic::default());
    }

    #[test]
    fn metrics_travel_as_exactly_this_ranks_one_rank_document() {
        // The heartbeat: one line, read back only as the rank it came from.
        let beat = rank_json(sample_metrics());
        assert!(!beat.contains(['\n', ' ']), "{beat}");
        assert_eq!(rank_from_json(&beat, 1).map(rank_json), Some(beat.clone()));
        assert!(
            rank_from_json(&beat, 0).is_none(),
            "another rank's document"
        );
        // The report line is the same document under the same rule.
        let text = sample().to_text();
        let with_metrics = |doc: &str| text.replace(&beat, doc.trim_end());
        assert!(RankReport::from_text(&with_metrics(&beat)).is_some());
        let cut = &beat[..beat.len() / 2];
        assert!(RankReport::from_text(&with_metrics(cut)).is_none());
        let other = rank_json(RankSnapshot::empty(0));
        assert!(RankReport::from_text(&with_metrics(&other)).is_none());
        let world = wp_metrics::export_json(&MetricsSnapshot::empty(2));
        assert!(rank_from_json(&world, 1).is_none(), "two rank entries");
        assert!(RankReport::from_text(&with_metrics(&world)).is_none());
    }

    #[test]
    fn error_report_round_trips() {
        let e = CommError::PeerDead { rank: 2 };
        let mut r = RankReport::missing(0, err_kind(&e), &e.to_string());
        r.out.wall_seconds = 1.0;
        let parsed = RankReport::from_text(&r.to_text()).expect("parses");
        assert_eq!(parsed.to_text(), r.to_text());
        match parsed.status {
            ReportStatus::Err { kind, .. } => assert_eq!(kind, "peer-dead"),
            ReportStatus::Ok => panic!("expected err"),
        }
    }

    #[test]
    fn truncated_reports_do_not_parse() {
        let text = sample().to_text();
        // A worker killed while writing leaves a prefix of its report: cut
        // at a line boundary, mid-number, or one byte short, none may parse.
        for cut in 0..text.len() {
            assert!(
                RankReport::from_text(&text[..cut]).is_none(),
                "report cut at byte {cut} of {} parsed",
                text.len()
            );
        }
        // A whole line lost from the middle breaks the count.
        let gapped = text.replacen("overwritten 3\n", "", 1);
        assert!(RankReport::from_text(&gapped).is_none());
        // Missing status line.
        assert!(RankReport::from_text("rank 0\nend 1\n").is_none());
        // Unknown key.
        assert!(RankReport::from_text("rank 0\nstatus ok\nbogus 1\nend 3\n").is_none());
    }

    #[test]
    fn strategy_labels_parse_back() {
        assert_eq!(parse_strategy("weipipe"), Some(Strategy::WeiPipeInterleave));
        assert_eq!(parse_strategy("1F1B"), Some(Strategy::OneFOneB));
        assert_eq!(parse_strategy("wzb1"), None, "simulator-only");
    }

    #[test]
    fn err_kinds_are_stable() {
        assert_eq!(err_kind(&CommError::PeerDead { rank: 0 }), "peer-dead");
        assert_eq!(
            err_kind(&CommError::Aborted {
                origin: 0,
                reason: "x".into()
            }),
            "aborted"
        );
        assert_eq!(
            err_kind(&CommError::MembershipMismatch {
                rank: 1,
                detail: "x".into()
            }),
            "membership-mismatch"
        );
    }
}
