//! Localhost TCP transport: each rank is a real socket endpoint — and, via
//! `wp-bench ranks`, a real OS process.
//!
//! # Wire format
//!
//! Length-prefixed, typed frames — a `HELLO` handshake, then `DATA`,
//! `ABORT` and `GOODBYE` — whose byte layout is the private `codec`
//! module's (`tcp/codec.rs`, documented there). A `DATA` frame is
//! [`DATA_HEADER_LEN`] bytes of envelope and then the payload's wire bytes
//! as they are, so the writer and reader threads' byte counters
//! ([`Counter::TcpDataBytesSent`], [`Counter::TcpDataBytesRecv`]) equal what
//! the traffic meter charged plus one header per frame. What the frames *mean* is
//! decided here: the reader thread trips the local [`AbortCell`] on an
//! `ABORT`, so blocked receives unwind within one poll interval exactly as
//! they do in process, and EOF *without* a `GOODBYE` (e.g. the peer process
//! was SIGKILLed) trips it with [`CommError::PeerDead`].
//!
//! # Threads
//!
//! Per peer, one writer thread (owns the socket's write half via an
//! unbounded command queue — sends never block, preserving buffered-isend
//! semantics) and one reader thread (parses frames into a per-source FIFO
//! channel — preserving the per-source ordering guarantee). Teardown joins
//! the writers (flushing queued frames), then shuts the sockets down to
//! unblock the readers.

mod codec;

pub use codec::DATA_HEADER_LEN;

use crate::error::CommError;
use crate::transport::{AbortCell, Frame, RecvWait, Transport, TransportClosed};
use codec::{
    decode_abort, decode_data, encode_abort, encode_data, put_u32, Cursor, GOODBYE_FRAME,
    KIND_ABORT, KIND_DATA, KIND_GOODBYE, MAGIC, MAX_FRAME, PROTO_VERSION,
};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use wp_metrics::{Counter, Gauge, RankMetrics};

/// Metrics handle shared with the per-peer reader/writer threads. The
/// threads spawn at establish time, before any `instrument` call, so they
/// watch a `OnceLock` instead of owning the handle directly; until (unless)
/// a handle is attached, every probe is one relaxed load.
type MetricsCell = Arc<OnceLock<RankMetrics>>;

#[derive(Debug)]
enum WriterCmd {
    Data(Frame),
    Abort(usize, CommError),
    Goodbye,
}

#[derive(Debug)]
struct PeerLink {
    /// Commands for the writer thread; a closed queue means the writer
    /// exited on a write error (the peer's socket is gone).
    cmd: Sender<WriterCmd>,
    writer: Option<JoinHandle<()>>,
    reader: Option<JoinHandle<()>>,
    /// Kept to force-shutdown the socket at teardown, unblocking a reader
    /// parked in `read_exact`.
    sock: TcpStream,
    /// Commands enqueued but not yet written by the writer thread.
    /// Incremented *before* the enqueue and decremented by the writer after
    /// the dequeue, so it can never transiently underflow; sampled into the
    /// per-peer send-queue-depth gauges at `send` time.
    depth: Arc<AtomicU64>,
}

impl PeerLink {
    /// Enqueue a command with depth accounting. Returns the queue depth
    /// including this command, or `Err` if the writer is gone.
    fn enqueue(&self, cmd: WriterCmd) -> Result<u64, ()> {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        match self.cmd.send(cmd) {
            Ok(()) => Ok(d),
            Err(_) => {
                self.depth.fetch_sub(1, Ordering::Relaxed);
                Err(())
            }
        }
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
    /// Shared with the reader/writer threads; armed by [`Transport::instrument`].
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
    /// and spawn the per-peer reader/writer threads. `addrs[r]` is rank
    /// r's listener address; `listener` is this rank's own (already bound,
    /// so peers can connect the moment they learn the address). Every rank
    /// must be establishing concurrently; `deadline` bounds the whole
    /// procedure.
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
            let (frame_tx, frame_rx) = channel::<Frame>();
            let (cmd_tx, cmd_rx) = channel::<WriterCmd>();
            let depth = Arc::new(AtomicU64::new(0));
            let writer = {
                let sock = sock.try_clone()?;
                let depth = depth.clone();
                let metrics = metrics.clone();
                std::thread::spawn(move || writer_loop(sock, cmd_rx, depth, metrics))
            };
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
                cmd: cmd_tx,
                writer: Some(writer),
                reader: Some(reader),
                sock,
                depth,
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

    fn teardown(&mut self, announce: WriterCmd) {
        if self.shut {
            return;
        }
        self.shut = true;
        self.closing.store(true, Ordering::Release);
        let mut relays = 0u64;
        for link in self.links.iter().flatten() {
            // A closed queue means the writer already exited; nothing to
            // announce to a peer that is gone.
            if let WriterCmd::Abort(o, e) = &announce {
                if link.enqueue(WriterCmd::Abort(*o, e.clone())).is_ok() {
                    relays += 1;
                }
            }
            // Goodbye always follows (even after an abort announcement):
            // it is the only command that makes the writer thread exit, and
            // teardown joins the writer next — an abort without a trailing
            // goodbye would deadlock that join.
            let _ = link.enqueue(WriterCmd::Goodbye);
        }
        if relays > 0 {
            if let Some(m) = self.metrics.get() {
                m.add(Counter::TcpAbortRelays, relays);
            }
        }
        for link in self.links.iter_mut().flatten() {
            if let Some(w) = link.writer.take() {
                let _ = w.join();
            }
            // Unblock the reader if it is parked in read_exact; with the
            // closing flag set it exits quietly instead of reporting a
            // peer death.
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
        let link = self.links[dst].as_ref().ok_or(TransportClosed)?;
        let depth = link
            .enqueue(WriterCmd::Data(frame))
            .map_err(|()| TransportClosed)?;
        if let Some(m) = self.metrics.get() {
            m.set(Gauge::TcpSendQueueDepth, depth as f64);
            m.set_max(Gauge::TcpSendQueueDepthMax, depth as f64);
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
        let mut relays = 0u64;
        for link in self.links.iter().flatten() {
            if link
                .enqueue(WriterCmd::Abort(origin, cause.clone()))
                .is_ok()
            {
                relays += 1;
            }
        }
        if relays > 0 {
            if let Some(m) = self.metrics.get() {
                m.add(Counter::TcpAbortRelays, relays);
            }
        }
    }

    fn instrument(&mut self, metrics: RankMetrics) {
        // First attach wins; the reader/writer threads pick the handle up
        // on their next frame.
        let _ = self.metrics.set(metrics);
    }

    fn shutdown(&mut self) {
        // A teardown during a panic unwind is a crash, not a clean close:
        // tell the peers why, so they surface a typed Aborted instead of
        // inferring a silent death.
        if std::thread::panicking() {
            self.teardown(WriterCmd::Abort(
                self.rank,
                CommError::Aborted {
                    origin: self.rank,
                    reason: "rank panicked".into(),
                },
            ));
        } else {
            self.teardown(WriterCmd::Goodbye);
        }
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Write one frame buffer, flushing so it hits the wire immediately.
fn write_frame(sock: &mut TcpStream, buf: &[u8]) -> std::io::Result<()> {
    sock.write_all(buf)?;
    sock.flush()
}

fn writer_loop(
    mut sock: TcpStream,
    cmd_rx: Receiver<WriterCmd>,
    depth: Arc<AtomicU64>,
    metrics: MetricsCell,
) {
    let mut buf = Vec::new();
    while let Ok(cmd) = cmd_rx.recv() {
        depth.fetch_sub(1, Ordering::Relaxed);
        match cmd {
            WriterCmd::Data(frame) => {
                // The delivery deadline crosses the boundary as remaining
                // delay, captured now — queue time already elapsed it.
                let delay = frame
                    .deliver_at
                    .map(|at| at.saturating_duration_since(Instant::now()));
                encode_data(&frame, delay, &mut buf);
                if write_frame(&mut sock, &buf).is_err() {
                    // Peer gone: exit so the command queue closes and the
                    // next send reports TransportClosed (→ PeerDead).
                    return;
                }
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpDataFramesSent);
                    m.add(Counter::TcpDataBytesSent, buf.len() as u64);
                }
            }
            WriterCmd::Abort(origin, err) => {
                encode_abort(origin, &err, &mut buf);
                if write_frame(&mut sock, &buf).is_err() {
                    return;
                }
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpAbortFramesSent);
                }
            }
            WriterCmd::Goodbye => {
                if write_frame(&mut sock, &GOODBYE_FRAME).is_ok() {
                    if let Some(m) = metrics.get() {
                        m.incr(Counter::TcpGoodbyeFramesSent);
                    }
                }
                let _ = sock.shutdown(Shutdown::Write);
                return;
            }
        }
    }
}

fn reader_loop(
    mut sock: TcpStream,
    src: usize,
    frame_tx: Sender<Frame>,
    abort: Arc<AbortCell>,
    closing: Arc<AtomicBool>,
    metrics: MetricsCell,
) {
    // EOF or reset without a goodbye, or a frame that does not parse: a
    // crashed peer — unless this endpoint is tearing the socket down itself.
    let peer_dead = || {
        if !closing.load(Ordering::Acquire) {
            abort.trip(src, CommError::PeerDead { rank: src });
        }
    };
    let mut header = [0u8; 4];
    let mut body = Vec::new();
    loop {
        if sock.read_exact(&mut header).is_err() {
            return peer_dead();
        }
        let len = u32::from_le_bytes(header);
        if len == 0 || len > MAX_FRAME {
            return peer_dead();
        }
        body.resize(len as usize, 0);
        if sock.read_exact(&mut body).is_err() {
            return peer_dead();
        }
        match body[0] {
            KIND_DATA => match decode_data(&body[1..]) {
                // A receiver gone just means this endpoint stopped
                // consuming; keep draining so the peer can finish sending.
                Some(f) => {
                    if let Some(m) = metrics.get() {
                        m.incr(Counter::TcpDataFramesRecv);
                        m.add(
                            Counter::TcpDataBytesRecv,
                            (header.len() + body.len()) as u64,
                        );
                    }
                    let _ = frame_tx.send(f);
                }
                None => return peer_dead(),
            },
            KIND_ABORT => {
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpAbortFramesRecv);
                }
                match decode_abort(&body[1..]) {
                    Some((origin, err)) => abort.trip(origin, err),
                    None => peer_dead(),
                }
                // Keep reading: data queued behind the abort is dropped by
                // the unwinding layers above, but a goodbye may follow.
            }
            KIND_GOODBYE => {
                // Clean close: dropping frame_tx makes further receives
                // from this source read as Closed (→ PeerDead upstream,
                // matching the in-process disconnect semantics).
                if let Some(m) = metrics.get() {
                    m.incr(Counter::TcpGoodbyeFramesRecv);
                }
                return;
            }
            _ => return peer_dead(),
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
        // Clean closes join the reader/writer threads, so the counters are
        // final once both endpoints are dropped.
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
        assert!(
            snap.ranks[0].gauge(Gauge::TcpSendQueueDepthMax) >= 1.0,
            "send must sample the per-peer queue depth"
        );
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

    /// Regression: an abort-announcing teardown (the panic-unwind path)
    /// must terminate — the writer thread only exits on Goodbye, so the
    /// abort announcement has to be followed by one or the join deadlocks.
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
        a.teardown(WriterCmd::Abort(0, cause.clone()));
        let deadline = Instant::now() + Duration::from_secs(5);
        while !b.abort_cell().is_tripped() {
            assert!(Instant::now() < deadline, "abort frame never arrived");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(b.abort_cell().cause_for(1), cause);
    }
}
