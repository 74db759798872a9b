//! Localhost TCP transport: each rank is a real socket endpoint — and, via
//! `wp-bench ranks`, a real OS process.
//!
//! # Wire format
//!
//! Length-prefixed, typed frames — a `HELLO` handshake, then `DATA`,
//! `ABORT` and `GOODBYE` — whose byte layout is the private `codec`
//! module's (`tcp/codec.rs`, documented there). A `DATA` frame is
//! [`DATA_HEADER_LEN`] bytes of envelope and then the payload's wire bytes
//! as they are, so the byte counters of the sending rank and the receiving
//! reader thread ([`Counter::TcpDataBytesSent`], [`Counter::TcpDataBytesRecv`])
//! equal what the traffic meter charged plus one header per frame. What the
//! frames *mean* is decided here: the reader thread trips the local
//! [`AbortCell`] on an `ABORT`, so blocked receives unwind within one poll
//! interval exactly as they do in process, and EOF *without* a `GOODBYE`
//! (e.g. the peer process was SIGKILLed) trips it with
//! [`CommError::PeerDead`].
//!
//! # Threads
//!
//! One per peer: a reader that parses frames into a per-source FIFO
//! channel (preserving the per-source ordering guarantee). It is the
//! minimum. It drains the peer's writes whatever this rank is doing, and it
//! notices a dead peer while the rank waits on another one. Everything else
//! runs on the rank's own thread: a send writes its frame to the socket
//! and returns once the kernel holds it. That cannot deadlock, because
//! every reader drains its socket unconditionally, so a write waits at most
//! for a live peer's reader. A write to a peer that stopped reading fails
//! after the establishment budget (the socket's write timeout) and ends
//! the link: later sends to it return [`TransportClosed`]. Teardown writes
//! the announcement to every live link, then shuts the sockets down to
//! unblock and join the readers.

mod codec;

pub use codec::DATA_HEADER_LEN;

use crate::error::CommError;
use crate::transport::{AbortCell, Frame, RecvWait, Transport, TransportClosed};
use codec::{
    put_u32, read_frame, write_abort, write_data, Cursor, Incoming, GOODBYE_FRAME, MAGIC,
    PROTO_VERSION,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wp_metrics::{Counter, RankMetrics};

/// Metrics handle shared with the per-peer reader threads. The readers
/// spawn at establish time, before any `instrument` call, so they watch a
/// `OnceLock` instead of owning the handle directly; until (unless) a
/// handle is attached, every probe is one relaxed load.
type MetricsCell = Arc<OnceLock<RankMetrics>>;

#[derive(Debug)]
struct PeerLink {
    /// Written by the rank's thread; the reader owns a clone. Kept to
    /// force-shutdown the socket at teardown, unblocking a reader parked in
    /// `read_exact`.
    sock: TcpStream,
    reader: Option<JoinHandle<()>>,
    /// Cleared by a write that failed or timed out: the stream may end in
    /// half a frame, so nothing more is written to it.
    live: bool,
}

impl PeerLink {
    /// Write one frame with `put`; a failure ends the link.
    fn write(
        &mut self,
        put: impl FnOnce(&TcpStream) -> std::io::Result<()>,
    ) -> Result<(), TransportClosed> {
        if self.live && put(&self.sock).is_ok() {
            return Ok(());
        }
        self.live = false;
        Err(TransportClosed)
    }
}

/// One rank's endpoint of a localhost TCP mesh. See the module docs for
/// the wire format and threading model.
///
/// The abort cell is *per endpoint* (per process): remote failures reach it
/// via ABORT frames or unclean disconnects observed by the reader threads,
/// giving every rank the same poison-pill unwind latency the shared
/// in-process cell provides.
#[derive(Debug)]
pub struct TcpTransport {
    rank: usize,
    world: usize,
    abort: Arc<AbortCell>,
    /// `links[peer]`; `None` at this endpoint's own rank.
    links: Vec<Option<PeerLink>>,
    /// `inbox[src]`: per-source FIFO fed by src's reader thread.
    inbox: Vec<Receiver<Frame>>,
    /// Set before teardown so reader threads treat the socket shutdown as
    /// deliberate rather than a peer crash.
    closing: Arc<AtomicBool>,
    /// Shared with the reader threads; armed by [`Transport::instrument`].
    metrics: MetricsCell,
    shut: bool,
}

/// Bind a fresh ephemeral listener on 127.0.0.1 for one rank.
///
/// # Errors
/// Any socket error from the OS.
pub fn bind_localhost() -> std::io::Result<TcpListener> {
    TcpListener::bind(("127.0.0.1", 0))
}

fn io_err(msg: String) -> std::io::Error {
    std::io::Error::other(msg)
}

impl TcpTransport {
    /// Establish the full mesh for `rank`: connect to every lower rank,
    /// accept a connection from every higher rank, handshake each stream,
    /// and spawn the per-peer reader threads. `addrs[r]` is rank r's
    /// listener address; `listener` is this rank's own (already bound, so
    /// peers can connect the moment they learn the address). Every rank
    /// must be establishing concurrently; `timeout` bounds the whole
    /// procedure, and then every write that makes no progress.
    ///
    /// # Errors
    /// Connection, handshake, or timeout failures.
    pub fn establish(
        rank: usize,
        addrs: &[SocketAddr],
        listener: TcpListener,
        timeout: Duration,
    ) -> std::io::Result<TcpTransport> {
        let world = addrs.len();
        assert!(rank < world, "rank {rank} out of range for world {world}");
        let deadline = Instant::now() + timeout;

        // Accept from higher ranks on a helper thread while this thread
        // connects to lower ranks — both directions progress concurrently,
        // so the mesh cannot deadlock on establishment order.
        let n_accept = world - rank - 1;
        let acceptor = std::thread::spawn(move || -> std::io::Result<Vec<(usize, TcpStream)>> {
            listener.set_nonblocking(true)?;
            let mut got = Vec::with_capacity(n_accept);
            while got.len() < n_accept {
                match listener.accept() {
                    Ok((s, _)) => {
                        s.set_nonblocking(false)?;
                        let peer = read_hello(&s, deadline)?;
                        got.push((peer, s));
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(io_err(format!(
                                "timed out accepting peers ({}/{n_accept})",
                                got.len()
                            )));
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    Err(e) => return Err(e),
                }
            }
            Ok(got)
        });

        let mut streams: Vec<Option<TcpStream>> = (0..world).map(|_| None).collect();
        for (peer, addr) in addrs.iter().enumerate().take(rank) {
            let s = connect_with_retry(addr, deadline)?;
            write_hello(&s, rank)?;
            streams[peer] = Some(s);
        }
        let accepted = acceptor
            .join()
            .map_err(|_| io_err("acceptor thread panicked".into()))??;
        for (peer, s) in accepted {
            if peer <= rank || peer >= world || streams[peer].is_some() {
                return Err(io_err(format!("unexpected hello from rank {peer}")));
            }
            streams[peer] = Some(s);
        }

        let abort = Arc::new(AbortCell::default());
        let closing = Arc::new(AtomicBool::new(false));
        let metrics: MetricsCell = Arc::new(OnceLock::new());
        let mut links = Vec::with_capacity(world);
        let mut inbox = Vec::with_capacity(world);
        for (peer, slot) in streams.into_iter().enumerate() {
            let Some(sock) = slot else {
                links.push(None);
                // Self-slot: a pre-closed channel, like the mpsc mesh's
                // dummy pair, so indexing stays direct.
                inbox.push(channel().1);
                continue;
            };
            sock.set_nodelay(true)?;
            sock.set_write_timeout(Some(timeout))?;
            let (frame_tx, frame_rx) = channel::<Frame>();
            let reader = {
                let sock = sock.try_clone()?;
                let abort = abort.clone();
                let closing = closing.clone();
                let metrics = metrics.clone();
                std::thread::spawn(move || {
                    reader_loop(sock, peer, frame_tx, abort, closing, metrics)
                })
            };
            links.push(Some(PeerLink {
                sock,
                reader: Some(reader),
                live: true,
            }));
            inbox.push(frame_rx);
        }
        Ok(TcpTransport {
            rank,
            world,
            abort,
            links,
            inbox,
            closing,
            metrics,
            shut: false,
        })
    }

    /// Write an ABORT frame to every live peer, counting the relays.
    fn relay_abort(&mut self, origin: usize, cause: &CommError) {
        let mut relays = 0;
        for link in self.links.iter_mut().flatten() {
            if link.write(|s| write_abort(s, origin, cause)).is_ok() {
                relays += 1;
            }
        }
        if let Some(m) = self.metrics.get() {
            m.add(Counter::TcpAbortFramesSent, relays);
            m.add(Counter::TcpAbortRelays, relays);
        }
    }

    /// Announce the close to every live peer — `abort` first when the rank
    /// is failing, then a GOODBYE — and shut the sockets down to unblock
    /// and join the readers.
    fn teardown(&mut self, abort: Option<CommError>) {
        if self.shut {
            return;
        }
        self.shut = true;
        self.closing.store(true, Ordering::Release);
        if let Some(cause) = abort {
            self.relay_abort(self.rank, &cause);
        }
        for link in self.links.iter_mut().flatten() {
            if link.write(|mut s| s.write_all(&GOODBYE_FRAME)).is_ok() {
                if let Some(m) = self.metrics.get() {
                    m.incr(Counter::TcpGoodbyeFramesSent);
                }
            }
        }
        for link in self.links.iter_mut().flatten() {
            // With the closing flag set the reader exits quietly instead of
            // reporting a peer death.
            let _ = link.sock.shutdown(Shutdown::Both);
            if let Some(r) = link.reader.take() {
                let _ = r.join();
            }
        }
    }
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn world_size(&self) -> usize {
        self.world
    }

    fn abort_cell(&self) -> &Arc<AbortCell> {
        &self.abort
    }

    fn send(&mut self, dst: usize, frame: Frame) -> Result<(), TransportClosed> {
        let link = self.links[dst].as_mut().ok_or(TransportClosed)?;
        // The delivery deadline crosses the boundary as the delay remaining
        // now.
        let delay = frame
            .deliver_at
            .map(|at| at.saturating_duration_since(Instant::now()));
        link.write(|s| write_data(s, &frame, delay))?;
        if let Some(m) = self.metrics.get() {
            m.incr(Counter::TcpDataFramesSent);
            m.add(
                Counter::TcpDataBytesSent,
                (DATA_HEADER_LEN as u64) + frame.payload.wire_bytes(),
            );
        }
        Ok(())
    }

    fn recv_timeout(&mut self, src: usize, timeout: Duration) -> RecvWait {
        match self.inbox[src].recv_timeout(timeout) {
            Ok(f) => RecvWait::Frame(f),
            Err(RecvTimeoutError::Timeout) => RecvWait::TimedOut,
            Err(RecvTimeoutError::Disconnected) => RecvWait::Closed,
        }
    }

    fn propagate_abort(&mut self, origin: usize, cause: &CommError) {
        self.relay_abort(origin, cause);
    }

    fn instrument(&mut self, metrics: RankMetrics) {
        // First attach wins; the readers pick the handle up on their next
        // frame.
        let _ = self.metrics.set(metrics);
    }

    fn shutdown(&mut self) {
        // A teardown during a panic unwind is a crash, not a clean close:
        // tell the peers why, so they surface a typed Aborted instead of
        // inferring a silent death.
        let abort = std::thread::panicking().then(|| CommError::Aborted {
            origin: self.rank,
            reason: "rank panicked".into(),
        });
        self.teardown(abort);
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn reader_loop(
    sock: TcpStream,
    src: usize,
    frame_tx: Sender<Frame>,
    abort: Arc<AbortCell>,
    closing: Arc<AtomicBool>,
    metrics: MetricsCell,
) {
    loop {
        match read_frame(&sock) {
            Some(Incoming::Data(f)) => {
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpDataFramesRecv);
                    m.add(
                        Counter::TcpDataBytesRecv,
                        (DATA_HEADER_LEN as u64) + f.payload.wire_bytes(),
                    );
                }
                // A receiver gone just means this endpoint stopped
                // consuming; keep draining so the peer can finish sending.
                let _ = frame_tx.send(f);
            }
            Some(Incoming::Abort(origin, err)) => {
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpAbortFramesRecv);
                }
                // Keep reading: data queued behind the abort is dropped by
                // the unwinding layers above, but a goodbye may follow.
                abort.trip(origin, err);
            }
            Some(Incoming::Goodbye) => {
                // Clean close: dropping frame_tx makes further receives
                // from this source read as Closed (→ PeerDead upstream,
                // matching the in-process disconnect semantics).
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpGoodbyeFramesRecv);
                }
                return;
            }
            // EOF or reset without a goodbye, or a frame that does not
            // parse: a crashed peer — unless this endpoint is tearing the
            // socket down itself.
            None => {
                if !closing.load(Ordering::Acquire) {
                    abort.trip(src, CommError::PeerDead { rank: src });
                }
                return;
            }
        }
    }
}

fn write_hello(mut sock: &TcpStream, rank: usize) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(9);
    put_u32(&mut buf, MAGIC);
    buf.push(PROTO_VERSION);
    put_u32(&mut buf, rank as u32);
    sock.write_all(&buf)?;
    sock.flush()
}

fn read_hello(mut sock: &TcpStream, deadline: Instant) -> std::io::Result<usize> {
    let remaining = deadline
        .checked_duration_since(Instant::now())
        .ok_or_else(|| io_err("timed out before handshake".into()))?;
    sock.set_read_timeout(Some(remaining))?;
    let mut buf = [0u8; 9];
    sock.read_exact(&mut buf)?;
    sock.set_read_timeout(None)?;
    let mut c = Cursor::new(&buf);
    let magic = c.u32().unwrap();
    let version = c.u8().unwrap();
    let rank = c.u32().unwrap() as usize;
    if magic != MAGIC {
        return Err(io_err(format!("bad handshake magic {magic:#x}")));
    }
    if version != PROTO_VERSION {
        return Err(io_err(format!("unsupported protocol version {version}")));
    }
    Ok(rank)
}

fn connect_with_retry(addr: &SocketAddr, deadline: Instant) -> std::io::Result<TcpStream> {
    loop {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .ok_or_else(|| io_err(format!("timed out connecting to {addr}")))?;
        match TcpStream::connect_timeout(addr, remaining) {
            Ok(s) => return Ok(s),
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused | std::io::ErrorKind::ConnectionReset
                ) =>
            {
                // The peer's listener may not be up yet; retry until the
                // deadline.
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => return Err(e),
        }
    }
}

/// Default establishment budget for a localhost mesh.
pub const LOCAL_ESTABLISH_TIMEOUT: Duration = Duration::from_secs(20);

/// Wire up a full localhost mesh of `p` endpoints inside this process (one
/// thread per rank once handed to a runner, but every byte crosses a real
/// socket). Panics on socket errors — local test plumbing, not a serving
/// path.
pub fn local_mesh(p: usize) -> Vec<TcpTransport> {
    assert!(p >= 1, "world size must be at least 1");
    let listeners: Vec<TcpListener> = (0..p)
        .map(|r| bind_localhost().unwrap_or_else(|e| panic!("rank {r}: bind failed: {e}")))
        .collect();
    let addrs: Vec<SocketAddr> = listeners
        .iter()
        .map(|l| l.local_addr().expect("listener has a local addr"))
        .collect();
    let mut out: Vec<Option<TcpTransport>> = (0..p).map(|_| None).collect();
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(rank, listener)| {
                let addrs = &addrs;
                s.spawn(move || {
                    TcpTransport::establish(rank, addrs, listener, LOCAL_ESTABLISH_TIMEOUT)
                })
            })
            .collect();
        for (rank, (h, slot)) in handles.into_iter().zip(out.iter_mut()).enumerate() {
            let t = h
                .join()
                .unwrap_or_else(|_| panic!("rank {rank}: establish panicked"))
                .unwrap_or_else(|e| panic!("rank {rank}: establish failed: {e}"));
            *slot = Some(t);
        }
    });
    out.into_iter()
        .map(|t| t.expect("all ranks built"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::{frame, frame_of};
    use crate::transport::Payload;
    use wp_tensor::DType;

    #[test]
    fn local_mesh_moves_frames_over_real_sockets() {
        let mut mesh = local_mesh(2);
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.send(1, frame(7, vec![1.0, 2.0])).unwrap();
        a.send(1, frame(8, vec![3.0])).unwrap();
        match b.recv_timeout(0, Duration::from_secs(5)) {
            RecvWait::Frame(f) => {
                assert_eq!(f.tag, 7);
                assert!(f.verify());
            }
            other => panic!("expected first frame, got {other:?}"),
        }
        match b.recv_timeout(0, Duration::from_secs(5)) {
            RecvWait::Frame(f) => assert_eq!(f.tag, 8, "per-source FIFO"),
            other => panic!("expected second frame, got {other:?}"),
        }
        drop(a); // clean close: goodbye
        match b.recv_timeout(0, Duration::from_secs(5)) {
            RecvWait::Closed => {}
            other => panic!("expected Closed after goodbye, got {other:?}"),
        }
        assert!(
            !b.abort_cell().is_tripped(),
            "a clean goodbye must not read as a crash"
        );
    }

    #[test]
    fn abort_frame_trips_the_remote_cell() {
        let mut mesh = local_mesh(2);
        let b = mesh.remove(1);
        let mut a = mesh.remove(0);
        let cause = CommError::Corrupt { src: 1, tag: 9 };
        a.propagate_abort(0, &cause);
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.abort_cell().cause_for(0), cause);
    }

    #[test]
    fn instrumented_endpoints_count_wire_frames_and_their_bytes() {
        use wp_metrics::MetricsRegistry;
        let registry = MetricsRegistry::new(2);
        let mut mesh = local_mesh(2);
        let mut b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.instrument(registry.handle(0));
        b.instrument(registry.handle(1));
        let payloads = [
            Payload::pack(&[1.0, 2.0], DType::F32),
            Payload::pack(&[3.0; 5], DType::F16),
            Payload::pack(&[4.0; 3], DType::BF16),
            Payload::pack(&[], DType::F16),
        ];
        let wire_bytes: u64 = payloads.iter().map(Payload::wire_bytes).sum();
        assert_eq!(wire_bytes, 8 + 10 + 6);
        for (tag, payload) in payloads.iter().enumerate() {
            a.send(1, frame_of(tag as u64, payload.clone())).unwrap();
        }
        for (tag, payload) in payloads.iter().enumerate() {
            match b.recv_timeout(0, Duration::from_secs(5)) {
                RecvWait::Frame(f) => {
                    assert_eq!(f.tag, tag as u64);
                    assert_eq!(&f.payload, payload, "typed payload survives the socket");
                    assert!(f.verify());
                }
                other => panic!("expected frame {tag}, got {other:?}"),
            }
        }
        // Clean closes join the reader threads, so the counters are final
        // once both endpoints are dropped.
        drop(a);
        drop(b);
        let snap = registry.snapshot();
        let frames = payloads.len() as u64;
        assert_eq!(snap.ranks[0].counter(Counter::TcpDataFramesSent), frames);
        assert_eq!(snap.ranks[1].counter(Counter::TcpDataFramesRecv), frames);
        // What crossed the socket is what the frames account for, plus the
        // fixed header: nothing is widened on the way.
        let on_socket = wire_bytes + frames * DATA_HEADER_LEN as u64;
        assert_eq!(snap.ranks[0].counter(Counter::TcpDataBytesSent), on_socket);
        assert_eq!(snap.ranks[1].counter(Counter::TcpDataBytesRecv), on_socket);
        assert_eq!(snap.ranks[0].counter(Counter::TcpGoodbyeFramesSent), 1);
        assert_eq!(snap.ranks[1].counter(Counter::TcpGoodbyeFramesRecv), 1);
        assert_eq!(snap.ranks[0].counter(Counter::TcpAbortRelays), 0);
    }

    #[test]
    fn establish_rejects_a_peer_greeting_with_the_previous_protocol_version() {
        // Rank 0 of a two-rank mesh only accepts; the "rank 1" that dials in
        // speaks the version before this one, whose DATA body would
        // mis-parse under this codec.
        let listener = bind_localhost().unwrap();
        let addr = listener.local_addr().unwrap();
        let stale_peer = std::thread::spawn(move || {
            let mut sock = TcpStream::connect(addr).unwrap();
            let mut hello = Vec::new();
            put_u32(&mut hello, MAGIC);
            hello.push(PROTO_VERSION - 1);
            put_u32(&mut hello, 1);
            sock.write_all(&hello).unwrap();
            sock
        });
        let err = TcpTransport::establish(0, &[addr, addr], listener, Duration::from_secs(5))
            .expect_err("a mixed-version mesh must not establish");
        assert_eq!(
            err.to_string(),
            format!("unsupported protocol version {}", PROTO_VERSION - 1)
        );
        drop(stale_peer.join());
    }

    #[test]
    fn abort_relays_are_counted() {
        use wp_metrics::MetricsRegistry;
        let registry = MetricsRegistry::new(2);
        let b = mesh_pair_b_only(&registry);
        drop(b);
        let snap = registry.snapshot();
        assert_eq!(snap.ranks[0].counter(Counter::TcpAbortRelays), 1);
    }

    /// Build a 2-mesh, instrument rank 0, fire `propagate_abort` from it,
    /// wait for the cell to trip on rank 1, and return rank 1's endpoint
    /// (rank 0 is dropped cleanly here).
    fn mesh_pair_b_only(registry: &wp_metrics::MetricsRegistry) -> TcpTransport {
        let mut mesh = local_mesh(2);
        let b = mesh.remove(1);
        let mut a = mesh.remove(0);
        a.instrument(registry.handle(0));
        a.propagate_abort(0, &CommError::Corrupt { src: 1, tag: 9 });
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        b
    }

    /// An abort-announcing teardown (the panic-unwind path) terminates and
    /// its ABORT reaches the peer.
    #[test]
    fn abort_announcing_teardown_terminates_and_reaches_the_peer() {
        let mut mesh = local_mesh(2);
        let b = mesh.remove(1);
        let mut a = mesh.remove(0);
        let cause = CommError::Aborted {
            origin: 0,
            reason: "rank panicked".into(),
        };
        // Direct call (Drop can only reach this branch mid-unwind, which a
        // test cannot do without also failing); must return promptly.
        a.teardown(Some(cause.clone()));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.abort_cell().cause_for(1), cause);
    }

    #[test]
    fn a_peer_that_stops_reading_cannot_hang_its_sender() {
        const CHUNK: usize = 1 << 20; // f32s: 4 MiB per frame
        const FRAMES: u64 = 16; // 64 MiB, more than two socket buffers hold
        let listener = bind_localhost().unwrap();
        let addr = listener.local_addr().unwrap();
        // "Rank 1" greets (the kernel queues the connection until rank 0
        // accepts it) and then never reads: a stopped process.
        let stopped_peer = TcpStream::connect(addr).unwrap();
        write_hello(&stopped_peer, 1).unwrap();
        let (done_tx, done_rx) = channel();
        // Everything runs on a helper thread, so a sender that hangs fails
        // this test at the deadline below instead of hanging the binary.
        let sender = std::thread::spawn(move || {
            let mut a = TcpTransport::establish(0, &[addr, addr], listener, Duration::from_secs(1))
                .unwrap();
            let payload = Payload::F32(vec![0.0; CHUNK]);
            let sent: Vec<_> = (0..FRAMES)
                .map(|tag| a.send(1, frame_of(tag, payload.clone())))
                .collect();
            drop(a);
            let _ = done_tx.send(sent);
        });
        let sent = done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a peer that stopped reading hung its sender");
        sender.join().unwrap();
        drop(stopped_peer);
        // Sends succeed until the socket buffers fill; the write that then
        // makes no progress for the budget ends the link for good.
        let ok = sent.iter().take_while(|r| r.is_ok()).count();
        assert!(ok < sent.len(), "64 MiB cannot all sit in socket buffers");
        assert!(sent[ok..].iter().all(|r| *r == Err(TransportClosed)));
    }
}
