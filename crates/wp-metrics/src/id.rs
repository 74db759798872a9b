//! Typed metric identities.
//!
//! Every metric the stack records is a variant of one of three enums —
//! [`Counter`] (monotonic `u64`), [`Gauge`] (last-written `f64`), or
//! [`Hist`] (power-of-two log-bucketed `u64` histogram). The discriminant
//! *is* the slot index into the registry's fixed arrays, so recording a
//! metric never hashes or compares strings; names exist only at the
//! export/parse boundary.

macro_rules! metric_enum {
    (
        $(#[$doc:meta])*
        $name:ident {
            $( $(#[$vdoc:meta])* $variant:ident => $prom:literal, )+
        }
    ) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[repr(usize)]
        pub enum $name {
            $( $(#[$vdoc])* $variant, )+
        }

        impl $name {
            /// Every variant, in slot order.
            pub const ALL: &'static [$name] = &[ $( $name::$variant, )+ ];

            /// Number of variants (the registry's slot-array length).
            pub const COUNT: usize = $name::ALL.len();

            /// Slot index into the registry's fixed array.
            #[inline]
            pub fn index(self) -> usize {
                self as usize
            }

            /// The Prometheus metric name (also the JSON key).
            pub fn name(self) -> &'static str {
                match self {
                    $( $name::$variant => $prom, )+
                }
            }

            /// Inverse of [`name`](Self::name), for parse-back.
            pub fn from_name(s: &str) -> Option<$name> {
                match s {
                    $( $prom => Some($name::$variant), )+
                    _ => None,
                }
            }
        }
    };
}

metric_enum! {
    /// Monotonic event/byte counters. Cross-rank aggregation sums them.
    Counter {
        /// Bytes sent point-to-point (wire size, matches `TrafficMeter`).
        P2pBytesSent => "wp_comm_p2p_bytes_sent_total",
        /// Point-to-point messages sent.
        P2pMsgsSent => "wp_comm_p2p_msgs_sent_total",
        /// Point-to-point messages that relayed a received frame as it
        /// arrived (counted in `P2pMsgsSent` too).
        P2pMsgsRelayed => "wp_comm_p2p_msgs_relayed_total",
        /// Bytes sent inside collectives.
        CollBytesSent => "wp_comm_collective_bytes_sent_total",
        /// Collective message hops sent.
        CollMsgsSent => "wp_comm_collective_msgs_sent_total",
        /// Wire bytes received point-to-point.
        P2pBytesRecv => "wp_comm_p2p_bytes_recv_total",
        /// Wire bytes received as collective hops.
        CollBytesRecv => "wp_comm_collective_bytes_recv_total",
        /// Messages received (both classes).
        MsgsRecv => "wp_comm_msgs_recv_total",
        /// Fault events injected by a fault plan.
        FaultsInjected => "wp_comm_faults_injected_total",
        /// No longer incremented: the receive retry loop that counted here is
        /// gone (a receive is one polled timeout window). Declared only
        /// because the frozen `benchmark/` package reads it; goes with the
        /// next PR allowed to edit that package.
        RecvRetries => "wp_comm_recv_retries_total",
        /// Receives that ran out their timeout.
        RecvTimeouts => "wp_comm_recv_timeouts_total",
        /// Nanoseconds spent stalled on link-model pacing.
        PacingStallNs => "wp_comm_pacing_stall_ns_total",
        /// TCP DATA frames written to peers.
        TcpDataFramesSent => "wp_tcp_data_frames_sent_total",
        /// Bytes of DATA frames written to peer sockets, headers included.
        TcpDataBytesSent => "wp_tcp_data_bytes_sent_total",
        /// TCP ABORT frames written to peers.
        TcpAbortFramesSent => "wp_tcp_abort_frames_sent_total",
        /// TCP GOODBYE frames written to peers.
        TcpGoodbyeFramesSent => "wp_tcp_goodbye_frames_sent_total",
        /// TCP DATA frames read from peers.
        TcpDataFramesRecv => "wp_tcp_data_frames_recv_total",
        /// Bytes of DATA frames read from peer sockets, headers included.
        TcpDataBytesRecv => "wp_tcp_data_bytes_recv_total",
        /// TCP ABORT frames read from peers.
        TcpAbortFramesRecv => "wp_tcp_abort_frames_recv_total",
        /// TCP GOODBYE frames read from peers.
        TcpGoodbyeFramesRecv => "wp_tcp_goodbye_frames_recv_total",
        /// Training iterations completed by this rank.
        StepsCompleted => "wp_train_steps_total",
        /// Microbatch forward passes executed.
        MicrobatchesFwd => "wp_train_microbatches_fwd_total",
        /// Label tokens contributing to the loss so far.
        TokensProcessed => "wp_train_tokens_total",
        /// Frames dropped on arrival because they carried another
        /// configuration epoch (stragglers from a pre-fault world).
        StaleFramesDropped => "wp_comm_stale_frames_dropped_total",
        /// Elastic recovery epochs this rank has survived into (one per
        /// successful re-form-and-resume after a fault).
        RecoveryEpochs => "wp_elastic_recovery_epochs_total",
        /// 16-bit wire buffers allocated because the endpoint's pool had
        /// none of the length to recycle, on a send's pack or a TCP read.
        WireBuffersAllocated => "wp_comm_wire_buffers_allocated_total",
    }
}

metric_enum! {
    /// Last-value gauges (`f64`). Cross-rank aggregation keeps them per rank.
    Gauge {
        /// Most recent mean loss over a step's microbatches.
        Loss => "wp_train_loss",
        /// Most recent global gradient L2 norm (chunk-local per rank).
        GradNorm => "wp_train_grad_norm",
        /// Tokens per wall-clock second over the run so far.
        TokensPerSec => "wp_train_tokens_per_sec",
        /// Current learning rate.
        CurrentLr => "wp_optim_lr",
        /// Reorder-buffer depth observed at the last receive.
        ReorderDepth => "wp_comm_reorder_depth",
        /// High-water reorder-buffer depth.
        ReorderDepthMax => "wp_comm_reorder_depth_max",
    }
}

metric_enum! {
    /// Power-of-two log-bucketed `u64` histograms (nanosecond durations).
    Hist {
        /// Wall time of one full training iteration.
        StepWallNs => "wp_train_step_wall_ns",
        /// Per-chunk microbatch forward compute time.
        FwdNs => "wp_train_fwd_ns",
        /// Per-chunk microbatch backward (full or data-grad) compute time.
        BwdNs => "wp_train_bwd_ns",
        /// Per-chunk weight-gradient compute time.
        WgradNs => "wp_train_wgrad_ns",
        /// Per-chunk weight-update apply time.
        UpdateNs => "wp_train_update_ns",
        /// Optimizer (master-weight) step time.
        OptimStepNs => "wp_optim_step_ns",
        /// Wall time to re-shard checkpointed weights onto a shrunk world
        /// and rebuild runtime state (one observation per recovery).
        ReshardNs => "wp_elastic_reshard_ns",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indices_are_dense_and_names_invert() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(Counter::from_name(c.name()), Some(*c));
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
            assert_eq!(Gauge::from_name(g.name()), Some(*g));
        }
        for (i, h) in Hist::ALL.iter().enumerate() {
            assert_eq!(h.index(), i);
            assert_eq!(Hist::from_name(h.name()), Some(*h));
        }
        assert_eq!(Counter::from_name("nope"), None);
    }

    #[test]
    fn names_are_unique_and_prometheus_shaped() {
        let mut names: Vec<&str> = Counter::ALL
            .iter()
            .map(|c| c.name())
            .chain(Gauge::ALL.iter().map(|g| g.name()))
            .chain(Hist::ALL.iter().map(|h| h.name()))
            .collect();
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "metric names must be unique");
        for n in names {
            assert!(n.starts_with("wp_"), "{n} must be wp_-prefixed");
            assert!(
                n.chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_'),
                "{n} must be a bare Prometheus identifier"
            );
        }
        for c in Counter::ALL {
            assert!(c.name().ends_with("_total"), "{} is a counter", c.name());
        }
        for h in Hist::ALL {
            assert!(!h.name().ends_with("_total"), "{}", h.name());
        }
    }
}
