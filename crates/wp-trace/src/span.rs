//! The span model: what one trace record says.
//!
//! Every record is a half-open interval `[start_ns, end_ns)` on one rank's
//! track, classified by a [`SpanKind`], annotated with the microbatch/chunk
//! identity of the work (when it has one), the wire bytes it moved (when it
//! moved any), and a kind-specific `aux` word (peer rank, queue depth at
//! post time, fault class). Instant events — fault annotations — are spans
//! with `start_ns == end_ns`.
//!
//! The record is deliberately flat and fixed-size: the recorder stores it
//! in pre-allocated atomic slots, so nothing here may own heap memory.

/// Sentinel for "no microbatch" (weight traffic, updates, iteration marks).
pub const NO_ID: u32 = u32::MAX;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum SpanKind {
    /// Forward of one microbatch through one chunk.
    Fwd = 0,
    /// Fused backward (data + weight gradients).
    BwdFull = 1,
    /// Split backward, B pass (data gradients).
    BwdData = 2,
    /// Split backward, W pass (weight gradients).
    BwdWeight = 3,
    /// Optimizer update of one chunk (outer span; contains `OptimStep`).
    Update = 4,
    /// The optimizer step proper (inside `wp-optim`).
    OptimStep = 5,
    /// One whole training iteration (outermost span on a rank's track).
    Iteration = 6,
    /// A point-to-point send call (buffered: ends once the transport holds
    /// the frame, not when the peer receives it).
    Send = 7,
    /// Time a receive spent *blocked* waiting for its message to arrive.
    RecvWait = 8,
    /// Time a receive spent *transferring* (link-model pacing after match).
    RecvXfer = 9,
    /// Ring all-reduce (outer span; contains its Send/Recv hops).
    AllReduce = 10,
    /// Ring reduce-scatter.
    ReduceScatter = 11,
    /// Ring all-gather.
    AllGather = 12,
    /// Ring broadcast.
    Broadcast = 13,
    /// Barrier.
    Barrier = 14,
    /// Instant event: a fault-plan injection on this rank (see
    /// [`fault_aux`] for the `aux` encoding).
    Fault = 15,
}

/// Every kind, in discriminant order (for decoding and iteration).
pub const ALL_KINDS: [SpanKind; 16] = [
    SpanKind::Fwd,
    SpanKind::BwdFull,
    SpanKind::BwdData,
    SpanKind::BwdWeight,
    SpanKind::Update,
    SpanKind::OptimStep,
    SpanKind::Iteration,
    SpanKind::Send,
    SpanKind::RecvWait,
    SpanKind::RecvXfer,
    SpanKind::AllReduce,
    SpanKind::ReduceScatter,
    SpanKind::AllGather,
    SpanKind::Broadcast,
    SpanKind::Barrier,
    SpanKind::Fault,
];

impl SpanKind {
    /// Decode a discriminant (the inverse of `kind as u8`).
    pub fn from_u8(v: u8) -> Option<SpanKind> {
        ALL_KINDS.get(v as usize).copied()
    }

    /// Human-readable name (the Perfetto event name).
    pub fn label(&self) -> &'static str {
        match self {
            SpanKind::Fwd => "F",
            SpanKind::BwdFull => "B",
            SpanKind::BwdData => "B-data",
            SpanKind::BwdWeight => "W-grad",
            SpanKind::Update => "update",
            SpanKind::OptimStep => "optim-step",
            SpanKind::Iteration => "iteration",
            SpanKind::Send => "send",
            SpanKind::RecvWait => "recv-wait",
            SpanKind::RecvXfer => "recv-xfer",
            SpanKind::AllReduce => "all-reduce",
            SpanKind::ReduceScatter => "reduce-scatter",
            SpanKind::AllGather => "all-gather",
            SpanKind::Broadcast => "broadcast",
            SpanKind::Barrier => "barrier",
            SpanKind::Fault => "fault",
        }
    }

    /// Perfetto category string (drives track-viewer colouring/filtering).
    pub fn category(&self) -> &'static str {
        match self {
            SpanKind::Fwd
            | SpanKind::BwdFull
            | SpanKind::BwdData
            | SpanKind::BwdWeight
            | SpanKind::Update => "compute",
            SpanKind::OptimStep => "optim",
            SpanKind::Iteration => "marker",
            SpanKind::Send | SpanKind::RecvWait | SpanKind::RecvXfer => "comm",
            SpanKind::AllReduce
            | SpanKind::ReduceScatter
            | SpanKind::AllGather
            | SpanKind::Broadcast
            | SpanKind::Barrier => "collective",
            SpanKind::Fault => "fault",
        }
    }

    /// True for the top-level compute classes that occupy a rank's compute
    /// engine (the spans that count as *busy* time). `OptimStep` is nested
    /// inside `Update` and `Iteration` wraps everything, so neither counts.
    pub fn is_compute(&self) -> bool {
        matches!(
            self,
            SpanKind::Fwd
                | SpanKind::BwdFull
                | SpanKind::BwdData
                | SpanKind::BwdWeight
                | SpanKind::Update
        )
    }

    /// The one-character op class `wp_sim::render::ascii_timeline` draws,
    /// for kinds that map onto the simulator's timeline alphabet.
    pub fn class_char(&self) -> Option<char> {
        match self {
            SpanKind::Fwd => Some('F'),
            SpanKind::BwdFull => Some('B'),
            SpanKind::BwdData => Some('b'),
            SpanKind::BwdWeight => Some('w'),
            SpanKind::Update => Some('U'),
            _ => None,
        }
    }
}

/// One recorded span (or instant event, when `start_ns == end_ns`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanRecord {
    /// Start, nanoseconds since the collector's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the collector's epoch.
    pub end_ns: u64,
    /// Classification.
    pub kind: SpanKind,
    /// Microbatch, or [`NO_ID`].
    pub mb: u32,
    /// Chunk, or [`NO_ID`].
    pub chunk: u32,
    /// Wire bytes moved by this span (0 for compute).
    pub bytes: u64,
    /// Kind-specific annotation; see [`send_aux`], [`recv_aux`],
    /// [`fault_aux`].
    pub aux: u64,
}

impl SpanRecord {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// True when this record is an instant event rather than an interval.
    pub fn is_instant(&self) -> bool {
        self.start_ns == self.end_ns
    }
}

// ---- aux encodings ---------------------------------------------------------
//
// `aux` is one u64 the hot path can assemble with shifts; the encoding per
// kind is defined here so every consumer (exporters, drift report, tests)
// shares it.

/// `aux` for [`SpanKind::Send`]: destination rank, plus a flag marking the
/// hop as part of a ring collective (those bytes are collective-charged).
pub fn send_aux(dst: usize, collective: bool) -> u64 {
    (u64::from(collective) << 32) | dst as u64
}

/// Decode [`send_aux`] → `(dst, collective)`.
pub fn send_aux_decode(aux: u64) -> (usize, bool) {
    ((aux & 0xFFFF_FFFF) as usize, aux >> 32 != 0)
}

/// `aux` for [`SpanKind::RecvWait`]: source rank and the reorder-buffer
/// queue depth observed when the receive was posted.
pub fn recv_aux(src: usize, queue_depth: usize) -> u64 {
    ((queue_depth as u64) << 32) | src as u64
}

/// Decode [`recv_aux`] → `(src, queue_depth)`.
pub fn recv_aux_decode(aux: u64) -> (usize, usize) {
    ((aux & 0xFFFF_FFFF) as usize, (aux >> 32) as usize)
}

/// Fault classes a [`SpanKind::Fault`] instant can carry (bit flags — one
/// injection decision can combine several).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultFlags {
    /// Extra delivery delay was injected (jitter or stall).
    pub delay: bool,
    /// The message was held for one-slot reordering.
    pub hold: bool,
    /// A payload bit was flipped after checksumming.
    pub corrupt: bool,
    /// The fault plan killed this rank at this operation.
    pub dead: bool,
}

/// Encode fault flags into a [`SpanKind::Fault`] `aux` word.
pub fn fault_aux(f: FaultFlags) -> u64 {
    u64::from(f.delay) | u64::from(f.hold) << 1 | u64::from(f.corrupt) << 2 | u64::from(f.dead) << 3
}

/// Decode [`fault_aux`].
pub fn fault_aux_decode(aux: u64) -> FaultFlags {
    FaultFlags {
        delay: aux & 1 != 0,
        hold: aux & 2 != 0,
        corrupt: aux & 4 != 0,
        dead: aux & 8 != 0,
    }
}

/// Tracing policy carried by a training setup. Default-off: a disabled
/// config allocates nothing and adds one branch per instrumented site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceConfig {
    /// Record spans at all. When false, no collector is built.
    pub enabled: bool,
    /// Ring-buffer capacity per rank, in records. When a rank records more
    /// spans than this, the oldest are overwritten (and counted).
    pub capacity_per_rank: usize,
}

impl TraceConfig {
    /// Tracing disabled (the default; zero overhead beyond one branch).
    pub fn off() -> Self {
        TraceConfig {
            enabled: false,
            capacity_per_rank: 0,
        }
    }

    /// Tracing enabled with the default per-rank capacity (64 Ki records).
    pub fn on() -> Self {
        TraceConfig {
            enabled: true,
            capacity_per_rank: 1 << 16,
        }
    }

    /// Tracing enabled with an explicit per-rank ring capacity.
    pub fn with_capacity(capacity_per_rank: usize) -> Self {
        TraceConfig {
            enabled: true,
            capacity_per_rank: capacity_per_rank.max(1),
        }
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_roundtrips_through_u8() {
        for k in ALL_KINDS {
            assert_eq!(SpanKind::from_u8(k as u8), Some(k));
        }
        assert_eq!(SpanKind::from_u8(ALL_KINDS.len() as u8), None);
    }

    #[test]
    fn nested_and_comm_spans_are_not_compute() {
        assert!(SpanKind::Fwd.is_compute());
        assert!(
            !SpanKind::OptimStep.is_compute(),
            "nested span must not double-count busy"
        );
        assert!(!SpanKind::Iteration.is_compute());
        assert!(!SpanKind::RecvWait.is_compute());
    }

    #[test]
    fn aux_encodings_roundtrip() {
        assert_eq!(send_aux_decode(send_aux(3, true)), (3, true));
        assert_eq!(send_aux_decode(send_aux(0, false)), (0, false));
        assert_eq!(recv_aux_decode(recv_aux(7, 42)), (7, 42));
        let f = FaultFlags {
            delay: true,
            hold: false,
            corrupt: true,
            dead: false,
        };
        assert_eq!(fault_aux_decode(fault_aux(f)), f);
    }

    #[test]
    fn config_defaults_off() {
        assert!(!TraceConfig::default().enabled);
        assert!(TraceConfig::on().enabled);
        assert_eq!(
            TraceConfig::with_capacity(0).capacity_per_rank,
            1,
            "clamped"
        );
    }

    #[test]
    fn class_chars_cover_the_sim_alphabet() {
        let chars: Vec<char> = ALL_KINDS.iter().filter_map(|k| k.class_char()).collect();
        assert_eq!(chars, vec!['F', 'B', 'b', 'w', 'U']);
    }
}
