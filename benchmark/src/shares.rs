//! Where the traced window's wall time went, from the spans the crates
//! already record.
//!
//! A span's *self time* is its duration minus the part its child spans
//! cover. Every instant of a rank's window is given to the innermost span
//! active at that instant, or to nobody; summed over ranks and divided by
//! `P × window` the kinds' self times and the unclaimed remainder add up to
//! exactly 1. The remainder is `weipipe.other_share`: schedule
//! interpretation, payload copies and gradient accumulation, none of which
//! has a span of its own yet.
//!
//! One kind needs care. A `RecvWait` span runs from the moment a receive is
//! *posted* to the moment it matches, and the overlapped weight ring posts
//! receives long before it waits on them, so the span encloses whatever the
//! rank did in between. A rank runs one thing at a time: it can only have
//! been blocked in the wait after the last span that started inside the
//! `RecvWait` was over. The span is trimmed to start there, which leaves
//! the time the rank really spent blocked.

use wp_trace::{RankTrack, SpanKind, SpanRecord};

/// Self time per span kind over one rank's window, nanoseconds.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SelfTimes {
    by_kind: [u64; wp_trace::ALL_KINDS.len()],
    /// Window time no span claimed.
    pub unclaimed_ns: u64,
    pub window_ns: u64,
    /// Spans inside the window.
    pub spans: usize,
}

impl SelfTimes {
    pub fn of(&self, kinds: &[SpanKind]) -> u64 {
        kinds.iter().map(|&k| self.by_kind[k as usize]).sum()
    }

    fn add(&mut self, other: &SelfTimes) {
        for (a, b) in self.by_kind.iter_mut().zip(&other.by_kind) {
            *a += b;
        }
        self.unclaimed_ns += other.unclaimed_ns;
        self.window_ns += other.window_ns;
        self.spans += other.spans;
    }
}

/// When the rank can first have been blocked inside `wait`: after every
/// span that started within it. A later-posted receive that is still
/// outstanding when `wait` ends only proves the rank was running at its
/// post time.
fn blocked_from(wait: &SpanRecord, later: &[SpanRecord]) -> u64 {
    later
        .iter()
        .take_while(|x| x.start_ns < wait.end_ns)
        .map(|x| {
            if x.end_ns <= wait.end_ns {
                x.end_ns
            } else {
                x.start_ns
            }
        })
        .fold(wait.start_ns, u64::max)
}

/// Self times of one rank's spans inside `[w0, w1]`.
pub fn self_times(track: &RankTrack, (w0, w1): (u64, u64)) -> SelfTimes {
    // `track.spans` is sorted by (start, longest first), so a span's
    // children and everything else that started inside it follow it.
    let inside: Vec<SpanRecord> = track
        .spans
        .iter()
        .filter(|s| {
            s.start_ns >= w0 && s.end_ns <= w1 && !s.is_instant() && s.kind != SpanKind::Iteration
        })
        .copied()
        .collect();
    let mut spans = inside.clone();
    for (i, s) in spans.iter_mut().enumerate() {
        if s.kind == SpanKind::RecvWait {
            s.start_ns = blocked_from(&inside[i], &inside[i + 1..]);
        }
    }
    spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));

    let mut out = SelfTimes {
        window_ns: w1 - w0,
        spans: spans.len(),
        ..SelfTimes::default()
    };
    // Sweep the window; `open` holds the spans begun and not yet popped,
    // innermost last.
    let mut open: Vec<(SpanKind, u64)> = Vec::new();
    let mut cursor = w0;
    let mut advance = |open: &mut Vec<(SpanKind, u64)>, to: u64| {
        while cursor < to {
            match open.last() {
                Some(&(_, end)) if end <= cursor => {
                    open.pop();
                }
                Some(&(kind, end)) => {
                    let until = end.min(to);
                    out.by_kind[kind as usize] += until - cursor;
                    cursor = until;
                }
                None => {
                    out.unclaimed_ns += to - cursor;
                    cursor = to;
                }
            }
        }
    };
    for s in &spans {
        advance(&mut open, s.start_ns);
        open.push((s.kind, s.end_ns));
    }
    advance(&mut open, w1);
    out
}

/// Self times of every rank's window, summed.
pub fn world_self_times(tracks: &[RankTrack], windows: &[(u64, u64)]) -> SelfTimes {
    let mut total = SelfTimes::default();
    for (track, &window) in tracks.iter().zip(windows) {
        total.add(&self_times(track, window));
    }
    total
}

/// The share kinds, as reported.
pub const FWD: &[SpanKind] = &[SpanKind::Fwd];
pub const BWD: &[SpanKind] = &[SpanKind::BwdFull, SpanKind::BwdData];
pub const WGRAD: &[SpanKind] = &[SpanKind::BwdWeight];
/// `OptimStep` nests inside `Update` for ring chunks and stands alone for
/// the replicated embedding and head, so the two are reported together.
pub const OPTIM: &[SpanKind] = &[SpanKind::Update, SpanKind::OptimStep];
pub const RECV_WAIT: &[SpanKind] = &[SpanKind::RecvWait];
pub const RECV_XFER: &[SpanKind] = &[SpanKind::RecvXfer];
pub const SEND: &[SpanKind] = &[SpanKind::Send];
pub const COLLECTIVE: &[SpanKind] = &[
    SpanKind::AllReduce,
    SpanKind::ReduceScatter,
    SpanKind::AllGather,
    SpanKind::Broadcast,
    SpanKind::Barrier,
];

#[cfg(test)]
mod tests {
    use super::*;
    use wp_trace::NO_ID;

    fn span(kind: SpanKind, start_ns: u64, end_ns: u64) -> SpanRecord {
        SpanRecord {
            start_ns,
            end_ns,
            kind,
            mb: NO_ID,
            chunk: NO_ID,
            bytes: 0,
            aux: 0,
        }
    }

    fn track(mut spans: Vec<SpanRecord>) -> RankTrack {
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        RankTrack {
            rank: 0,
            spans,
            overwritten: 0,
        }
    }

    fn claimed(t: &SelfTimes) -> u64 {
        t.by_kind.iter().sum::<u64>() + t.unclaimed_ns
    }

    /// A ring all-reduce hop as wp-comm records it: the receive is posted
    /// first, the send follows, then the rank blocks until the match and
    /// paces the transfer out.
    #[test]
    fn nested_collective_subtracts_its_children() {
        let t = track(vec![
            span(SpanKind::Iteration, 0, 100),
            span(SpanKind::AllReduce, 10, 50),
            span(SpanKind::RecvWait, 11, 40),
            span(SpanKind::Send, 12, 15),
            span(SpanKind::RecvXfer, 40, 45),
            span(SpanKind::Fwd, 50, 80),
        ]);
        let s = self_times(&t, (0, 100));
        assert_eq!(s.of(SEND), 3);
        assert_eq!(
            s.of(RECV_WAIT),
            25,
            "blocked from the send's end to the match"
        );
        assert_eq!(s.of(RECV_XFER), 5);
        assert_eq!(s.of(COLLECTIVE), 40 - 3 - 25 - 5);
        assert_eq!(s.of(FWD), 30);
        assert_eq!(
            s.unclaimed_ns,
            10 + 20,
            "the iteration marker claims nothing"
        );
        assert_eq!(claimed(&s), 100);
        assert_eq!(s.spans, 5);
    }

    /// The overlapped ring: two receives pre-posted, compute in between,
    /// the waits redeemed afterwards in posting order.
    #[test]
    fn a_pre_posted_receive_counts_only_its_blocked_tail() {
        let t = track(vec![
            span(SpanKind::RecvWait, 5, 60),
            span(SpanKind::RecvWait, 6, 75),
            span(SpanKind::Fwd, 10, 50),
            span(SpanKind::BwdFull, 62, 70),
        ]);
        let s = self_times(&t, (0, 100));
        assert_eq!(s.of(FWD), 40);
        assert_eq!(s.of(BWD), 8);
        assert_eq!(s.of(RECV_WAIT), (60 - 50) + (75 - 70));
        assert_eq!(claimed(&s), 100);
    }

    #[test]
    fn spans_outside_the_window_are_left_out_and_shares_sum_to_one() {
        let t = track(vec![
            span(SpanKind::Fwd, 0, 20),
            span(SpanKind::Fwd, 30, 60),
            span(SpanKind::Update, 60, 90),
            span(SpanKind::OptimStep, 65, 85),
            span(SpanKind::Fwd, 95, 120),
        ]);
        let world = world_self_times(&[t.clone(), t], &[(25, 100), (25, 100)]);
        assert_eq!(world.window_ns, 150);
        assert_eq!(world.of(FWD), 60);
        assert_eq!(
            world.of(OPTIM),
            60,
            "update self 10 plus optimizer step 20, per rank"
        );
        let total = world.window_ns as f64;
        let shares = [
            world.of(FWD) as f64 / total,
            world.of(OPTIM) as f64 / total,
            world.unclaimed_ns as f64 / total,
        ];
        assert!((shares.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }
}
