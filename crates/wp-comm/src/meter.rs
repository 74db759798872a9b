//! Byte-exact communication accounting.
//!
//! Every send in the stack is counted with its *wire* size (element count ×
//! storage dtype width) by the sending rank's `Probe`; the meter reads those
//! counts back. Tests use the meter to prove the paper's
//! headline property: WeiPipe's traffic is independent of microbatch size
//! and sequence length, while activation-passing traffic scales with both.

use wp_metrics::{Counter, MetricsRegistry, Probe, RankSnapshot};

/// Per-rank traffic counters: a read/merge view over the eight traffic
/// slots of a [`MetricsRegistry`] — the slots every rank's [`Probe`] counts
/// into, whether or not the world is otherwise metered. A metered world's
/// meter views the caller's registry, so the two cannot disagree.
#[derive(Debug, Clone)]
pub struct TrafficMeter {
    slots: MetricsRegistry,
}

/// The slot behind each independent [`RankTraffic`] field (`recv_bytes` is
/// derived).
type Field = (Counter, fn(&mut RankTraffic) -> &mut u64);
const FIELDS: [Field; 8] = [
    (Counter::P2pBytesSent, |t| &mut t.p2p_bytes),
    (Counter::P2pMsgsSent, |t| &mut t.p2p_msgs),
    (Counter::CollBytesSent, |t| &mut t.collective_bytes),
    (Counter::CollMsgsSent, |t| &mut t.collective_msgs),
    (Counter::P2pBytesRecv, |t| &mut t.p2p_recv_bytes),
    (Counter::CollBytesRecv, |t| &mut t.collective_recv_bytes),
    (Counter::MsgsRecv, |t| &mut t.recv_msgs),
    (Counter::FaultsInjected, |t| &mut t.faults_injected),
];

/// Immutable snapshot of one rank's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RankTraffic {
    /// Bytes this rank sent point-to-point.
    pub p2p_bytes: u64,
    /// Point-to-point messages sent.
    pub p2p_msgs: u64,
    /// Bytes this rank sent inside collectives.
    pub collective_bytes: u64,
    /// Collective message hops sent.
    pub collective_msgs: u64,
    /// Wire bytes this rank received point-to-point.
    pub p2p_recv_bytes: u64,
    /// Wire bytes this rank received as collective hops.
    pub collective_recv_bytes: u64,
    /// Wire bytes this rank *received* (P2P and collective hops combined).
    /// In a healthy ring, every sent byte lands exactly once, so the world
    /// totals satisfy `Σ recv_bytes == Σ total_bytes()` — and the same holds
    /// per class: `Σ p2p_recv_bytes == Σ p2p_bytes`, `Σ collective_recv_bytes
    /// == Σ collective_bytes`. Per rank the split exposes asymmetric hops
    /// that send-side counters alone would miss.
    pub recv_bytes: u64,
    /// Messages this rank received.
    pub recv_msgs: u64,
    /// Fault events injected into this rank's traffic by a fault plan
    /// (jitter, holds, stalls, corruptions, scheduled deaths). Faults never
    /// change the byte counters — a delayed or corrupted message still
    /// crossed the wire once.
    pub faults_injected: u64,
}

impl RankTraffic {
    /// Read the traffic fields through `get`, one call per slot.
    fn read(get: impl Fn(Counter) -> u64) -> RankTraffic {
        let mut t = RankTraffic::default();
        for (c, field) in FIELDS {
            *field(&mut t) = get(c);
        }
        t.recv_bytes = t.p2p_recv_bytes + t.collective_recv_bytes;
        t
    }

    /// The traffic view of a rank's metrics snapshot — how a multi-process
    /// launcher reads a worker's traffic: the snapshot line it already ships
    /// carries the slots, so no second copy crosses the process boundary.
    pub fn of(snap: &RankSnapshot) -> RankTraffic {
        RankTraffic::read(|c| snap.counter(c))
    }

    /// Total bytes sent by this rank.
    pub fn total_bytes(&self) -> u64 {
        self.p2p_bytes + self.collective_bytes
    }
}

impl TrafficMeter {
    /// Meter for a world of `p` ranks.
    pub fn new(p: usize) -> Self {
        TrafficMeter::over(MetricsRegistry::new(p))
    }

    /// The meter reading `slots`' traffic counters.
    pub(crate) fn over(slots: MetricsRegistry) -> Self {
        TrafficMeter { slots }
    }

    /// The probe `rank` records through: traffic into this meter's slots,
    /// the remaining metrics too when `metered`, spans into `tracer`.
    pub(crate) fn probe(
        &self,
        rank: usize,
        metered: bool,
        tracer: Option<wp_trace::RankTracer>,
    ) -> Probe {
        Probe::new(self.slots.handle(rank), metered, tracer)
    }

    /// Snapshot of one rank.
    pub fn rank(&self, rank: usize) -> RankTraffic {
        let m = self.slots.handle(rank);
        RankTraffic::read(|c| m.get(c))
    }

    /// Snapshot of all ranks.
    pub fn all(&self) -> Vec<RankTraffic> {
        (0..self.world_size()).map(|r| self.rank(r)).collect()
    }

    /// Sum of bytes sent by every rank.
    pub fn total_bytes(&self) -> u64 {
        self.all().iter().map(|r| r.total_bytes()).sum()
    }

    /// Sum of bytes received by every rank. Equals
    /// [`total_bytes`](Self::total_bytes) once every in-flight message has
    /// been delivered.
    pub fn total_recv_bytes(&self) -> u64 {
        self.all().iter().map(|r| r.recv_bytes).sum()
    }

    /// Total fault events injected across all ranks.
    pub fn total_faults(&self) -> u64 {
        self.all().iter().map(|r| r.faults_injected).sum()
    }

    /// World size this meter covers.
    pub fn world_size(&self) -> usize {
        self.slots.world_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_trace::FaultFlags;

    /// Count through the crate-private probe, as the `Communicator` does.
    fn sent(m: &TrafficMeter, rank: usize, bytes: u64, collective: bool) {
        m.probe(rank, false, None).sent(collective, 0, bytes, 0);
    }

    fn received(m: &TrafficMeter, rank: usize, bytes: u64, collective: bool) {
        m.probe(rank, false, None)
            .received(collective, 0, 0, bytes, 0);
    }

    fn faults(m: &TrafficMeter, rank: usize, n: u64) {
        let delay = FaultFlags {
            delay: true,
            hold: false,
            corrupt: false,
            dead: false,
        };
        m.probe(rank, false, None).fault(delay, n);
    }

    #[test]
    fn records_and_snapshots() {
        let m = TrafficMeter::new(2);
        sent(&m, 0, 100, false);
        sent(&m, 0, 50, true);
        sent(&m, 1, 7, false);
        let r0 = m.rank(0);
        assert_eq!(r0.p2p_bytes, 100);
        assert_eq!(r0.p2p_msgs, 1);
        assert_eq!(r0.collective_bytes, 50);
        assert_eq!(r0.total_bytes(), 150);
        assert_eq!(m.total_bytes(), 157);
    }

    #[test]
    fn fault_counter_is_separate_from_bytes() {
        let m = TrafficMeter::new(2);
        faults(&m, 1, 2);
        assert_eq!(m.rank(1).faults_injected, 2);
        assert_eq!(m.rank(1).total_bytes(), 0);
        assert_eq!(m.total_faults(), 2);
    }

    #[test]
    fn recv_side_is_accounted_separately() {
        let m = TrafficMeter::new(2);
        // Rank 0 sends 100 bytes; rank 1 receives them.
        sent(&m, 0, 100, false);
        received(&m, 1, 100, false);
        assert_eq!(m.rank(0).recv_bytes, 0);
        assert_eq!(m.rank(1).recv_bytes, 100);
        assert_eq!(m.rank(1).p2p_recv_bytes, 100);
        assert_eq!(m.rank(1).collective_recv_bytes, 0);
        assert_eq!(m.rank(1).recv_msgs, 1);
        // Receives never inflate the send-side totals.
        assert_eq!(m.rank(1).total_bytes(), 0);
        assert_eq!(m.total_bytes(), 100);
        assert_eq!(m.total_recv_bytes(), 100);
    }

    #[test]
    fn recv_classes_are_split_and_sum() {
        let m = TrafficMeter::new(1);
        received(&m, 0, 60, false);
        received(&m, 0, 40, true);
        let r = m.rank(0);
        assert_eq!(r.p2p_recv_bytes, 60);
        assert_eq!(r.collective_recv_bytes, 40);
        assert_eq!(r.recv_bytes, 100);
        assert_eq!(r.recv_msgs, 2);
    }

    #[test]
    fn snapshot_view_equals_the_meter_view() {
        // A worker process meters rank 1; the launcher reads the same
        // counters back out of the rank's metrics snapshot.
        let worker = TrafficMeter::new(2);
        sent(&worker, 1, 100, false);
        received(&worker, 1, 40, true);
        faults(&worker, 1, 2);
        let t = RankTraffic::of(&worker.slots.snapshot_rank(1));
        assert_eq!(t, worker.rank(1));
        assert_eq!((t.p2p_bytes, t.recv_bytes, t.faults_injected), (100, 40, 2));
    }

    #[test]
    fn clones_share_counters() {
        let m = TrafficMeter::new(1);
        let m2 = m.clone();
        sent(&m2, 0, 42, false);
        assert_eq!(m.rank(0).p2p_bytes, 42);
    }

    #[test]
    fn concurrent_updates_are_lost_update_free() {
        let m = TrafficMeter::new(1);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let m = m.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        sent(&m, 0, 1, false);
                    }
                });
            }
        });
        assert_eq!(m.rank(0).p2p_bytes, 4000);
        assert_eq!(m.rank(0).p2p_msgs, 4000);
    }
}
