//! Assembling and running a world: [`WorldBuilder`] wires one
//! [`Communicator`] per rank over the chosen transport with one link,
//! timeout, fault, trace and metrics policy, and the runner gives each rank
//! its own OS thread, turning a panicking rank into a typed abort of the
//! whole world.

use crate::error::CommError;
use crate::fault::{FaultPlan, RankInjector};
use crate::link::LinkModel;
use crate::meter::TrafficMeter;
use crate::p2p::{CommConfig, Communicator};
use crate::transport::{ChannelTransport, Transport, TransportKind};
use std::collections::VecDeque;
use wp_metrics::MetricsRegistry;
use wp_trace::TraceCollector;

/// Best-effort extraction of a panic payload's message.
fn panic_reason(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "rank panicked".to_string()
    }
}

/// Builder for a world of communicating ranks.
#[derive(Debug)]
pub struct World;

/// Configures and launches a world: link model, timeout policy, fault plan.
///
/// ```
/// use wp_comm::{World, CommConfig, FaultPlan};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new(42).with_reorder(0.25);
/// let (results, _meter) = World::builder(2)
///     .config(CommConfig::fail_fast(Duration::from_secs(5)))
///     .faults(plan)
///     .try_run(|mut c| {
///         let peer = 1 - c.rank();
///         c.send(peer, 0, &[c.rank() as f32], wp_tensor::DType::F32)?;
///         c.recv(peer, 0)
///     });
/// assert_eq!(results[0].as_ref().unwrap(), &vec![1.0]);
/// ```
#[derive(Debug, Clone)]
pub struct WorldBuilder {
    p: usize,
    link: LinkModel,
    config: CommConfig,
    faults: Option<FaultPlan>,
    trace: Option<TraceCollector>,
    metrics: Option<MetricsRegistry>,
    transport: TransportKind,
    epoch: u64,
}

impl WorldBuilder {
    /// Pace deliveries with `link`.
    pub fn link(mut self, link: LinkModel) -> Self {
        self.link = link;
        self
    }

    /// Move frames over the given substrate (defaults to
    /// [`TransportKind::InProcess`]). Everything above the transport is
    /// byte-identical across kinds; the conformance suite enforces it.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Use the given timeout policy.
    pub fn config(mut self, config: CommConfig) -> Self {
        self.config = config;
        self
    }

    /// Stamp every frame this world sends with the given configuration
    /// epoch (default 0). After an elastic reconfiguration the survivors
    /// build their shrunk world with the next epoch; any straggler frame
    /// from the previous epoch is dropped on arrival instead of matching a
    /// receive.
    pub fn epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Inject the given fault plan.
    pub fn faults(mut self, plan: FaultPlan) -> Self {
        self.faults = Some(plan);
        self
    }

    /// Inject a fault plan if one is provided (convenience for callers
    /// holding an `Option`).
    pub fn maybe_faults(mut self, plan: Option<FaultPlan>) -> Self {
        self.faults = plan;
        self
    }

    /// Record every rank's comm operations into `collector` (must cover at
    /// least `p` ranks). Each rank writes its own track; the caller keeps
    /// the collector and snapshots it after the run.
    pub fn trace(mut self, collector: TraceCollector) -> Self {
        self.trace = Some(collector);
        self
    }

    /// Attach a trace collector if one is provided (convenience for callers
    /// holding an `Option`).
    pub fn maybe_trace(mut self, collector: Option<TraceCollector>) -> Self {
        self.trace = collector;
        self
    }

    /// Record every rank's communication metrics into `registry` (must
    /// cover at least `p` ranks). Each rank writes its own slots; the caller
    /// keeps the registry and snapshots it after the run. The world's
    /// [`TrafficMeter`] then reads the registry's own traffic counters, and
    /// the transports this builder wires count into it too, so
    /// transport-internal accounting (wire frames and bytes, pool misses)
    /// lands in the same slots. An endpoint established elsewhere (see
    /// [`endpoint`](Self::endpoint)) counts into the handle it was
    /// established with.
    pub fn metrics(mut self, registry: MetricsRegistry) -> Self {
        self.metrics = Some(registry);
        self
    }

    /// Attach a metrics registry if one is provided (convenience for
    /// callers holding an `Option`).
    pub fn maybe_metrics(mut self, registry: Option<MetricsRegistry>) -> Self {
        self.metrics = registry;
        self
    }

    /// The meter a world built from this builder counts into: a view of the
    /// caller's registry when metered (one copy of every count), else of
    /// slots of its own.
    fn meter(&self) -> TrafficMeter {
        match &self.metrics {
            Some(registry) => TrafficMeter::over(registry.clone()),
            None => TrafficMeter::new(self.p),
        }
    }

    /// Wrap one transport endpoint in a [`Communicator`] carrying this
    /// builder's link, timeout, fault, trace, and metrics policy, counting
    /// into `meter`.
    fn make_endpoint(&self, transport: Box<dyn Transport>, meter: &TrafficMeter) -> Communicator {
        let rank = transport.rank();
        let p = transport.world_size();
        let abort = transport.abort_cell().clone();
        let tracer = self.trace.as_ref().map(|tc| tc.tracer(rank));
        let probe = meter.probe(rank, self.metrics.is_some(), tracer);
        Communicator {
            rank,
            world: p,
            transport,
            pending: (0..p).map(|_| VecDeque::new()).collect(),
            link: self.link,
            coll_seq: 0,
            config: self.config,
            abort,
            faults: self
                .faults
                .clone()
                .map(|plan| RankInjector::new(plan, rank, p)),
            held: (0..p).map(|_| None).collect(),
            link_busy: (0..p).map(|_| None).collect(),
            probe,
            abort_relayed: false,
            epoch: self.epoch,
        }
    }

    /// Wrap an externally-established transport endpoint — e.g. a
    /// [`TcpTransport`](crate::tcp::TcpTransport) living in its own worker
    /// process — in a [`Communicator`] with this builder's policy. The
    /// endpoint gets its own [`TrafficMeter`] (over the builder's registry,
    /// when it has one); a multi-process launcher merges the per-process
    /// counters afterwards (see [`RankTraffic::of`](crate::RankTraffic::of)).
    ///
    /// # Panics
    /// Panics if the endpoint's world size disagrees with the builder's.
    pub fn endpoint(self, transport: Box<dyn Transport>) -> Communicator {
        assert_eq!(
            transport.world_size(),
            self.p,
            "endpoint world size must match the builder's"
        );
        self.make_endpoint(transport, &self.meter())
    }

    /// Materialise the communicators without running anything.
    pub fn build(self) -> Vec<Communicator> {
        let p = self.p;
        assert!(p >= 1, "world size must be at least 1");
        let meter = self.meter();
        let transports: Vec<Box<dyn Transport>> = match self.transport {
            TransportKind::InProcess => ChannelTransport::mesh(p, self.metrics.as_ref())
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
            TransportKind::TcpLocalhost => crate::tcp::local_mesh(p, self.metrics.as_ref())
                .into_iter()
                .map(|t| Box::new(t) as Box<dyn Transport>)
                .collect(),
        };
        transports
            .into_iter()
            .map(|t| self.make_endpoint(t, &meter))
            .collect()
    }

    /// Run one fallible closure per rank on its own OS thread and collect
    /// per-rank results in rank order. A rank that panics is converted to
    /// `Err(CommError::Aborted)` and poisons the world, so surviving ranks
    /// return errors instead of hanging.
    pub fn try_run<T, F>(self, f: F) -> (Vec<Result<T, CommError>>, TrafficMeter)
    where
        T: Send,
        F: Fn(Communicator) -> Result<T, CommError> + Send + Sync,
    {
        let comms = self.build();
        let meter = comms[0].meter();
        let f = &f;
        let results = std::thread::scope(|s| {
            let handles: Vec<_> = comms
                .into_iter()
                .map(|c| {
                    let abort = c.abort.clone();
                    let rank = c.rank;
                    s.spawn(move || {
                        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(c))) {
                            Ok(r) => r,
                            Err(p) => {
                                let reason = panic_reason(p.as_ref());
                                let e = CommError::Aborted {
                                    origin: rank,
                                    reason,
                                };
                                abort.trip(rank, e.clone());
                                Err(e)
                            }
                        }
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("rank thread panicked outside catch_unwind"))
                .collect::<Vec<Result<T, CommError>>>()
        });
        (results, meter)
    }

    /// Run one infallible closure per rank; a panic in any rank poisons the
    /// world (so peers unwind promptly too) and is re-raised here, naming
    /// the rank and its panic message.
    ///
    /// # Panics
    /// Panics if any rank's closure panicked.
    pub fn run<T, F>(self, f: F) -> (Vec<T>, TrafficMeter)
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        let (results, meter) = self.try_run(|c| Ok(f(c)));
        let results = results
            .into_iter()
            .map(|r| r.unwrap_or_else(|e| panic!("rank thread panicked: {e}")))
            .collect();
        (results, meter)
    }
}

impl World {
    /// Start configuring a world of `p` ranks.
    pub fn builder(p: usize) -> WorldBuilder {
        WorldBuilder {
            p,
            link: LinkModel::instant(),
            config: CommConfig::default(),
            faults: None,
            trace: None,
            metrics: None,
            transport: TransportKind::InProcess,
            epoch: 0,
        }
    }

    /// Run one closure per rank on its own OS thread and collect the results
    /// in rank order. Panics in any rank propagate.
    pub fn run<T, F>(p: usize, link: LinkModel, f: F) -> (Vec<T>, TrafficMeter)
    where
        T: Send,
        F: Fn(Communicator) -> T + Send + Sync,
    {
        Self::builder(p).link(link).run(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use wp_metrics::Counter;
    use wp_tensor::DType;

    #[test]
    fn untraced_world_records_nothing() {
        let (_, _) = World::run(2, LinkModel::instant(), |mut c| {
            assert!(c.tracer().is_none());
            assert!(c.metrics().is_none());
            let mut buf = [0.0f32; 2];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
    }

    #[test]
    fn metered_world_counters_match_the_traffic_meter() {
        let registry = MetricsRegistry::new(2);
        let (_, meter) = World::builder(2).metrics(registry.clone()).run(|mut c| {
            if c.rank() == 0 {
                c.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
            } else {
                c.recv(0, 7).unwrap();
            }
            let mut buf = vec![1.0f32; 4];
            c.all_reduce_sum(&mut buf, DType::F32).unwrap();
        });
        let snap = registry.snapshot();
        for r in 0..2 {
            let t = meter.rank(r);
            let s = &snap.ranks[r];
            assert_eq!(s.counter(Counter::P2pBytesSent), t.p2p_bytes, "rank {r}");
            assert_eq!(s.counter(Counter::P2pMsgsSent), t.p2p_msgs, "rank {r}");
            assert_eq!(
                s.counter(Counter::CollBytesSent),
                t.collective_bytes,
                "rank {r}"
            );
            assert_eq!(
                s.counter(Counter::CollMsgsSent),
                t.collective_msgs,
                "rank {r}"
            );
            assert_eq!(
                s.counter(Counter::P2pBytesRecv),
                t.p2p_recv_bytes,
                "rank {r}"
            );
            assert_eq!(
                s.counter(Counter::CollBytesRecv),
                t.collective_recv_bytes,
                "rank {r}"
            );
            assert_eq!(s.counter(Counter::MsgsRecv), t.recv_msgs, "rank {r}");
            assert_eq!(
                s.counter(Counter::FaultsInjected),
                t.faults_injected,
                "rank {r}"
            );
        }
    }

    #[test]
    fn cross_epoch_frames_are_dropped_not_delivered() {
        // Two endpoints of one mesh, deliberately built at different
        // configuration epochs: the receiver must silently drop the
        // straggler frame (counting it) and time out, never deliver it.
        let registry = MetricsRegistry::new(2);
        let mut ts = ChannelTransport::mesh(2, None).into_iter();
        let t0 = Box::new(ts.next().unwrap()) as Box<dyn Transport>;
        let t1 = Box::new(ts.next().unwrap()) as Box<dyn Transport>;
        let mut old = World::builder(2).epoch(0).endpoint(t0);
        let mut new = World::builder(2)
            .epoch(1)
            .config(CommConfig::fail_fast(Duration::from_millis(40)))
            .metrics(registry.clone())
            .endpoint(t1);
        old.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
        match new.recv(0, 7) {
            Err(CommError::Timeout { src: 0, tag: 7, .. }) => {}
            other => panic!("expected a timeout, got {other:?}"),
        }
        assert_eq!(
            registry
                .snapshot_rank(1)
                .counter(Counter::StaleFramesDropped),
            1,
            "the epoch-0 frame must be counted as stale"
        );
    }

    #[test]
    fn same_epoch_frames_flow_normally() {
        let (vals, _) = World::builder(2).epoch(3).run(|mut c| {
            assert_eq!(c.epoch(), 3);
            if c.rank() == 0 {
                c.send(1, 7, &[42.0], DType::F32).unwrap();
                0.0
            } else {
                c.recv(0, 7).unwrap()[0]
            }
        });
        assert_eq!(vals[1], 42.0);
    }

    #[test]
    fn an_oversize_send_fails_typed_on_the_sender_and_ships_nothing() {
        use crate::payload::WirePool;
        use crate::transport::{AbortCell, Frame, RecvWait, TransportClosed};
        use std::sync::Arc;
        /// An in-process endpoint whose frames carry at most eight bytes.
        #[derive(Debug)]
        struct Capped(ChannelTransport);
        impl Transport for Capped {
            fn rank(&self) -> usize {
                self.0.rank()
            }
            fn world_size(&self) -> usize {
                self.0.world_size()
            }
            fn abort_cell(&self) -> &Arc<AbortCell> {
                self.0.abort_cell()
            }
            fn send(&mut self, dst: usize, frame: Frame) -> Result<(), TransportClosed> {
                self.0.send(dst, frame)
            }
            fn wire_pool(&self) -> &Arc<WirePool> {
                self.0.wire_pool()
            }
            fn max_payload_bytes(&self) -> u64 {
                8
            }
            fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait {
                self.0.recv_timeout(src, timeout)
            }
        }
        let mut ends = ChannelTransport::mesh(2, None).into_iter();
        let mut tx = World::builder(2).endpoint(Box::new(Capped(ends.next().unwrap())));
        let mut rx = World::builder(2)
            .config(CommConfig::fail_fast(Duration::from_millis(200)))
            .endpoint(Box::new(ends.next().unwrap()));
        // At the limit a frame ships; one element past it nothing does.
        tx.send(1, 7, &[1.0, 2.0], DType::F32).unwrap();
        assert_eq!(rx.recv(0, 7).unwrap(), vec![1.0, 2.0]);
        let err = tx.send(1, 8, &[1.0; 5], DType::F16).unwrap_err();
        assert_eq!(
            err,
            CommError::FrameTooLarge {
                dst: 1,
                bytes: 10,
                limit: 8
            }
        );
        assert!(err.to_string().contains("10-byte") && err.to_string().contains("8-byte"));
        // The peer unwinds on the sender's failure; no rank is called dead.
        match rx.recv(0, 8) {
            Err(CommError::Aborted { origin: 0, .. }) => {}
            other => panic!("expected an abort from rank 0, got {other:?}"),
        }
    }
}
