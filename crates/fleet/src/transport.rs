//! How frames move: blocking byte transports for the pole uplink.
//!
//! Two implementations share one [`Transport`] trait:
//!
//! - **TCP** ([`TcpTransport`] / [`TcpConnector`]) over `std::net`,
//!   for real deployments — Nagle off, blocking reads with bounded
//!   timeouts on the pole side, non-blocking reads behind `poll(2)`
//!   in the aggregator's reactor.
//! - **Loopback** ([`LoopbackHub`] / [`loopback_pair`]), an
//!   in-process channel with *seeded* loss, reorder, and delay. The
//!   fault pattern is drawn from a per-endpoint `StdRng`, so a test
//!   that connects the same agents in the same order sees the same
//!   drops regardless of thread interleaving — which is what lets the
//!   integration suite pin fused counts bit-identical across 1 and N
//!   agent threads.
//!
//! The loopback is deliberately *frame*-oriented: each
//! [`Transport::send`] call carries one encoded wire frame, and loss/
//! reorder act on whole frames (like a datagram link), never on bytes
//! within a frame. Corrupting bytes mid-frame would poison the
//! receiver's [`crate::wire::FrameDecoder`] by design — that path is
//! exercised separately by the wire fuzz tests.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Why a transport operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer hung up (or was never there).
    Closed,
    /// No bytes arrived inside the caller's timeout. The connection
    /// may still be fine — liveness policy is the caller's job.
    TimedOut,
    /// An underlying I/O error, stringly preserved.
    Io(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "transport closed"),
            TransportError::TimedOut => write!(f, "transport receive timed out"),
            TransportError::Io(e) => write!(f, "transport i/o error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

/// Wakes a reactor when any of its registered sources becomes
/// readable, identified by an opaque per-source token.
///
/// Channel-backed transports (the loopback) cannot be multiplexed by
/// an OS readiness syscall, so the reactor hands each one a shared
/// `ReadySignal` instead: the *sending* side pushes the source's token
/// and pings the condvar on every delivery, and the reactor's event
/// loop parks in [`ReadySignal::wait`] until something is actually
/// ready — no per-connection thread, no busy polling. A reactor that
/// parks in `poll(2)` instead asks for [`ReadySignal::poll_waker`]
/// and puts its descriptor in the poll set, so a notify breaks that
/// park too.
#[derive(Debug, Default)]
pub struct ReadySignal {
    state: Mutex<ReadyState>,
    cv: Condvar,
    /// Created on first request; `None` inside if the loopback pair
    /// could not be made (the poller then falls back to its tick).
    waker: std::sync::OnceLock<Option<crate::sys::Waker>>,
}

#[derive(Debug, Default)]
struct ReadyState {
    /// Tokens in notification order. Deduplicated: a source that fires
    /// ten times before the reactor wakes is drained once.
    tokens: VecDeque<u64>,
    queued: std::collections::BTreeSet<u64>,
}

impl ReadySignal {
    /// A signal with nothing pending.
    pub fn new() -> Self {
        ReadySignal::default()
    }

    /// Marks `token` ready and wakes any waiting reactor.
    pub fn notify(&self, token: u64) {
        {
            let mut state = self.state.lock();
            if state.queued.insert(token) {
                state.tokens.push_back(token);
            }
            self.cv.notify_one();
        }
        if let Some(Some(waker)) = self.waker.get() {
            waker.wake();
        }
    }

    /// The waker every later [`ReadySignal::notify`] also fires, made
    /// on first call; `None` if it cannot be made. A `poll(2)` parker
    /// polls its descriptor and calls `drain` on it before
    /// [`ReadySignal::drain`].
    pub fn poll_waker(&self) -> Option<&crate::sys::Waker> {
        self.waker
            .get_or_init(|| crate::sys::Waker::new().ok())
            .as_ref()
    }

    /// Blocks up to `timeout` for at least one ready token, then
    /// drains and returns everything pending (possibly empty on
    /// timeout — the caller's periodic sweep handles stragglers).
    pub fn wait(&self, timeout: Duration) -> Vec<u64> {
        let mut state = self.state.lock();
        if state.tokens.is_empty() {
            self.cv.wait_for(&mut state, timeout);
        }
        state.queued.clear();
        state.tokens.drain(..).collect()
    }

    /// Drains pending tokens without blocking.
    pub fn drain(&self) -> Vec<u64> {
        let mut state = self.state.lock();
        state.queued.clear();
        state.tokens.drain(..).collect()
    }
}

/// A blocking, connection-oriented byte pipe carrying wire frames.
pub trait Transport: Send {
    /// Ships one encoded wire frame. `Ok(())` means *accepted by the
    /// link*, not delivered — the loopback may still drop it.
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError>;

    /// Waits up to `timeout` for bytes and returns whatever arrived
    /// (one frame on the loopback; an arbitrary stream chunk on TCP —
    /// feed it to a [`crate::wire::FrameDecoder`]).
    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError>;

    /// Releases the connection (flushes any loopback in-flight frame).
    fn close(&mut self);

    /// Asks the transport to ping `signal` with `token` whenever bytes
    /// become available, so a reactor can park instead of polling.
    /// Returns `false` (the default) if the transport has no way to
    /// hook deliveries; such sources fall back to the reactor's
    /// periodic sweep.
    fn register_ready(&mut self, _signal: &Arc<ReadySignal>, _token: u64) -> bool {
        false
    }

    /// The OS file descriptor backing this transport, if any — lets a
    /// reactor multiplex socket transports with `poll(2)` instead of
    /// one thread per connection.
    #[cfg(unix)]
    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        None
    }
}

/// Dials new [`Transport`] connections; the agent's reconnect loop
/// holds one of these rather than a live socket.
pub trait Connector: Send {
    /// Attempts one connection.
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError>;
}

// ---------------------------------------------------------------------------
// TCP.

/// A [`Transport`] over a connected [`TcpStream`].
#[derive(Debug)]
pub struct TcpTransport {
    stream: TcpStream,
    nonblocking: bool,
}

impl TcpTransport {
    /// Wraps an accepted or dialled stream (disables Nagle: reports
    /// are latency-sensitive and a frame is far below one MSS).
    pub fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(TcpTransport {
            stream,
            nonblocking: false,
        })
    }

    /// Switches the socket between blocking reads (the default) and
    /// non-blocking reads (reactor sources, where readiness comes from
    /// `poll(2)` and `recv` must only drain what the kernel already
    /// buffered).
    pub fn set_nonblocking(&mut self, on: bool) -> Result<(), TransportError> {
        self.stream
            .set_nonblocking(on)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        self.nonblocking = on;
        Ok(())
    }
}

impl Transport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        self.stream.write_all(frame).map_err(|e| {
            if e.kind() == std::io::ErrorKind::BrokenPipe
                || e.kind() == std::io::ErrorKind::ConnectionReset
            {
                TransportError::Closed
            } else {
                TransportError::Io(e.to_string())
            }
        })
    }

    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        if !self.nonblocking {
            // `set_read_timeout(Some(0))` is an error on std sockets;
            // pin a 1 ms floor instead.
            let timeout = timeout.max(Duration::from_millis(1));
            self.stream
                .set_read_timeout(Some(timeout))
                .map_err(|e| TransportError::Io(e.to_string()))?;
        }
        let mut buf = [0u8; 8 * 1024];
        match self.stream.read(&mut buf) {
            Ok(0) => Err(TransportError::Closed),
            Ok(n) => Ok(buf[..n].to_vec()),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                Err(TransportError::TimedOut)
            }
            Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
                Err(TransportError::Closed)
            }
            Err(e) => Err(TransportError::Io(e.to_string())),
        }
    }

    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }

    #[cfg(unix)]
    fn poll_fd(&self) -> Option<std::os::unix::io::RawFd> {
        use std::os::unix::io::AsRawFd;
        Some(self.stream.as_raw_fd())
    }
}

/// Dials a TCP aggregator by address.
#[derive(Debug, Clone)]
pub struct TcpConnector {
    addr: String,
    connect_timeout: Duration,
}

impl TcpConnector {
    /// A connector for `addr` (e.g. `"127.0.0.1:7700"`).
    pub fn new(addr: impl Into<String>) -> Self {
        TcpConnector {
            addr: addr.into(),
            connect_timeout: Duration::from_secs(2),
        }
    }
}

impl Connector for TcpConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError> {
        let _ = self.connect_timeout; // std's connect_timeout needs a SocketAddr; keep dial simple.
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(Box::new(TcpTransport::new(stream)?))
    }
}

// ---------------------------------------------------------------------------
// Deterministic loopback.

/// Fault model for a loopback link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LoopbackConfig {
    /// Probability a sent frame is silently dropped.
    pub loss: f64,
    /// Probability a sent frame is held and delivered *after* the
    /// next one (pairwise reorder, the common LAN pathology).
    pub reorder: f64,
    /// Probability a sent frame is torn mid-frame into two stream
    /// chunks (a partial write): the head is delivered at once, the
    /// tail on the next send. Tears the *byte* stream without
    /// corrupting it, exactly like a short TCP write.
    pub partial: f64,
    /// Probability (given a partial write happened) that the tail is
    /// additionally *stalled*: held back until yet another send (or
    /// close) pushes it out — a mid-frame stall, the pathology that
    /// leaves a decoder holding half a frame across recv timeouts.
    pub stall: f64,
    /// Simulated one-way link delay applied on `send` (sleeps the
    /// sender; keep zero in deterministic tests).
    pub delay: Duration,
    /// Seed for the per-endpoint fault RNG. Endpoint `k` dialled from
    /// one connector draws from `seed + k`, so reconnects are
    /// deterministic too.
    pub seed: u64,
}

impl Default for LoopbackConfig {
    fn default() -> Self {
        LoopbackConfig {
            loss: 0.0,
            reorder: 0.0,
            partial: 0.0,
            stall: 0.0,
            delay: Duration::ZERO,
            seed: 0,
        }
    }
}

impl LoopbackConfig {
    /// A perfect link.
    pub fn reliable() -> Self {
        LoopbackConfig::default()
    }

    /// A lossy, reordering link seeded for reproducibility.
    pub fn lossy(loss: f64, reorder: f64, seed: u64) -> Self {
        LoopbackConfig {
            loss,
            reorder,
            seed,
            ..LoopbackConfig::default()
        }
    }

    /// An adversarial link: loss and reorder plus byte-level partial
    /// writes and mid-frame stalls, seeded for reproducibility.
    pub fn adversarial(loss: f64, reorder: f64, partial: f64, stall: f64, seed: u64) -> Self {
        LoopbackConfig {
            loss,
            reorder,
            partial,
            stall,
            seed,
            ..LoopbackConfig::default()
        }
    }
}

/// The shared byte-frame queue under one loopback link: a condvar
/// channel whose sender side can additionally ping a reactor's
/// [`ReadySignal`] on every delivery.
#[derive(Debug, Default)]
struct FrameQueue {
    inner: Mutex<FrameQueueInner>,
    cv: Condvar,
}

#[derive(Debug, Default)]
struct FrameQueueInner {
    frames: VecDeque<Vec<u8>>,
    sender_closed: bool,
    receiver_closed: bool,
    ready: Option<(Arc<ReadySignal>, u64)>,
}

impl FrameQueue {
    fn push(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        let ready = {
            let mut inner = self.inner.lock();
            if inner.receiver_closed {
                return Err(TransportError::Closed);
            }
            inner.frames.push_back(frame);
            inner.ready.clone()
        };
        self.cv.notify_one();
        if let Some((signal, token)) = ready {
            signal.notify(token);
        }
        Ok(())
    }

    fn pop(&self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let mut inner = self.inner.lock();
        loop {
            if let Some(frame) = inner.frames.pop_front() {
                return Ok(frame);
            }
            if inner.sender_closed {
                return Err(TransportError::Closed);
            }
            if timeout.is_zero() || self.cv.wait_for(&mut inner, timeout).timed_out() {
                // Re-check: the sender may have delivered or closed in
                // the window between the timeout and the lock.
                if let Some(frame) = inner.frames.pop_front() {
                    return Ok(frame);
                }
                if inner.sender_closed {
                    return Err(TransportError::Closed);
                }
                return Err(TransportError::TimedOut);
            }
        }
    }

    fn close_sender(&self) {
        let ready = {
            let mut inner = self.inner.lock();
            inner.sender_closed = true;
            inner.ready.clone()
        };
        self.cv.notify_all();
        // Wake the reactor so it notices the hangup instead of waiting
        // for its periodic sweep.
        if let Some((signal, token)) = ready {
            signal.notify(token);
        }
    }

    fn close_receiver(&self) {
        let mut inner = self.inner.lock();
        inner.receiver_closed = true;
        inner.frames.clear();
    }

    fn register_ready(&self, signal: &Arc<ReadySignal>, token: u64) {
        let pending = {
            let mut inner = self.inner.lock();
            inner.ready = Some((Arc::clone(signal), token));
            !inner.frames.is_empty() || inner.sender_closed
        };
        // Anything delivered before registration must still wake the
        // reactor exactly once.
        if pending {
            signal.notify(token);
        }
    }
}

/// Client (sending) end of a loopback link.
#[derive(Debug)]
pub struct LoopbackClient {
    q: Arc<FrameQueue>,
    cfg: LoopbackConfig,
    rng: StdRng,
    held: Option<Vec<u8>>,
    stalled: Option<Vec<u8>>,
    closed: bool,
}

impl LoopbackClient {
    fn deliver(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.q.push(frame)
    }
}

impl Transport for LoopbackClient {
    fn send(&mut self, frame: &[u8]) -> Result<(), TransportError> {
        if self.closed {
            return Err(TransportError::Closed);
        }
        if !self.cfg.delay.is_zero() {
            std::thread::sleep(self.cfg.delay);
        }
        // A stalled mid-frame tail from an earlier partial write must
        // go out before anything newer: it is stream bytes, and
        // reordering *bytes* (unlike whole frames) would corrupt.
        if let Some(tail) = self.stalled.take() {
            self.deliver(tail)?;
        }
        if self.cfg.loss > 0.0 && self.rng.gen::<f64>() < self.cfg.loss {
            obs::incr("fleet.loopback.frames_lost", 1);
            return Ok(());
        }
        let frame = frame.to_vec();
        // Partial write: tear the frame into head + tail stream chunks.
        // RNG draws are gated on the knob being enabled so configs
        // without the fault keep their established draw sequence.
        if self.cfg.partial > 0.0 && frame.len() >= 2 && self.rng.gen::<f64>() < self.cfg.partial {
            let cut = self.rng.gen_range(1..frame.len());
            let head = frame[..cut].to_vec();
            let tail = frame[cut..].to_vec();
            obs::incr("fleet.loopback.frames_torn", 1);
            // Byte-stream ordering: any held whole frame precedes the
            // torn one; the fragments themselves are never reordered.
            if let Some(earlier) = self.held.take() {
                self.deliver(earlier)?;
            }
            self.deliver(head)?;
            if self.cfg.stall > 0.0 && self.rng.gen::<f64>() < self.cfg.stall {
                obs::incr("fleet.loopback.frames_stalled", 1);
                self.stalled = Some(tail);
            } else {
                self.deliver(tail)?;
            }
            return Ok(());
        }
        if let Some(earlier) = self.held.take() {
            // Deliver the newer frame first, then the held one: a
            // pairwise swap on the wire.
            self.deliver(frame)?;
            self.deliver(earlier)?;
            obs::incr("fleet.loopback.frames_reordered", 1);
        } else if self.cfg.reorder > 0.0 && self.rng.gen::<f64>() < self.cfg.reorder {
            self.held = Some(frame);
        } else {
            self.deliver(frame)?;
        }
        Ok(())
    }

    fn recv(&mut self, _timeout: Duration) -> Result<Vec<u8>, TransportError> {
        // The fleet protocol is pole → campus only; the client end has
        // nothing to receive.
        Err(TransportError::Closed)
    }

    fn close(&mut self) {
        if !self.closed {
            if let Some(tail) = self.stalled.take() {
                let _ = self.q.push(tail);
            }
            if let Some(frame) = self.held.take() {
                let _ = self.q.push(frame);
            }
            self.q.close_sender();
            self.closed = true;
        }
    }
}

impl Drop for LoopbackClient {
    fn drop(&mut self) {
        self.close();
    }
}

/// Server (receiving) end of a loopback link.
#[derive(Debug)]
pub struct LoopbackServer {
    q: Arc<FrameQueue>,
}

impl Transport for LoopbackServer {
    fn send(&mut self, _frame: &[u8]) -> Result<(), TransportError> {
        Err(TransportError::Io(String::from(
            "loopback is simplex: the campus side never sends",
        )))
    }

    fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.q.pop(timeout)
    }

    fn close(&mut self) {
        self.q.close_receiver();
    }

    fn register_ready(&mut self, signal: &Arc<ReadySignal>, token: u64) -> bool {
        self.q.register_ready(signal, token);
        true
    }
}

impl Drop for LoopbackServer {
    fn drop(&mut self) {
        self.q.close_receiver();
    }
}

/// One loopback link: the client end applies `cfg`'s fault model, the
/// server end yields surviving frames in delivery order.
pub fn loopback_pair(cfg: LoopbackConfig) -> (LoopbackClient, LoopbackServer) {
    let q = Arc::new(FrameQueue::default());
    (
        LoopbackClient {
            q: Arc::clone(&q),
            cfg,
            rng: StdRng::seed_from_u64(cfg.seed),
            held: None,
            stalled: None,
            closed: false,
        },
        LoopbackServer { q },
    )
}

/// An in-process "listener": agents dial it through
/// [`LoopbackHub::connector`], the aggregator accepts server ends.
#[derive(Debug)]
pub struct LoopbackHub {
    conn_tx: mpsc::Sender<LoopbackServer>,
    conn_rx: mpsc::Receiver<LoopbackServer>,
}

impl Default for LoopbackHub {
    fn default() -> Self {
        LoopbackHub::new()
    }
}

impl LoopbackHub {
    /// A hub with no connections yet.
    pub fn new() -> Self {
        let (conn_tx, conn_rx) = mpsc::channel();
        LoopbackHub { conn_tx, conn_rx }
    }

    /// A [`Connector`] that dials this hub with `cfg`'s fault model.
    /// The `k`-th connection it makes draws faults from `cfg.seed + k`.
    pub fn connector(&self, cfg: LoopbackConfig) -> LoopbackConnector {
        LoopbackConnector {
            tx: self.conn_tx.clone(),
            cfg,
            dialled: 0,
        }
    }

    /// Waits up to `timeout` for the next inbound connection.
    pub fn accept(&self, timeout: Duration) -> Result<LoopbackServer, TransportError> {
        match self.conn_rx.recv_timeout(timeout) {
            Ok(server) => Ok(server),
            Err(mpsc::RecvTimeoutError::Timeout) => Err(TransportError::TimedOut),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }
}

/// Dials a [`LoopbackHub`]; each dial is a fresh seeded link.
#[derive(Debug, Clone)]
pub struct LoopbackConnector {
    tx: mpsc::Sender<LoopbackServer>,
    cfg: LoopbackConfig,
    dialled: u64,
}

impl Connector for LoopbackConnector {
    fn connect(&mut self) -> Result<Box<dyn Transport>, TransportError> {
        let mut cfg = self.cfg;
        cfg.seed = cfg.seed.wrapping_add(self.dialled);
        self.dialled += 1;
        let (client, server) = loopback_pair(cfg);
        self.tx.send(server).map_err(|_| TransportError::Closed)?;
        Ok(Box::new(client))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliable_loopback_delivers_in_order() {
        let (mut client, mut server) = loopback_pair(LoopbackConfig::reliable());
        for i in 0..10u8 {
            client.send(&[i]).unwrap();
        }
        for i in 0..10u8 {
            assert_eq!(server.recv(Duration::from_millis(50)).unwrap(), vec![i]);
        }
        assert_eq!(
            server.recv(Duration::from_millis(5)),
            Err(TransportError::TimedOut)
        );
    }

    #[test]
    fn lossy_loopback_is_deterministic_per_seed() {
        let survivors = |seed: u64| -> Vec<Vec<u8>> {
            let (mut client, mut server) = loopback_pair(LoopbackConfig::lossy(0.3, 0.2, seed));
            for i in 0..50u8 {
                client.send(&[i]).unwrap();
            }
            client.close();
            let mut out = Vec::new();
            while let Ok(frame) = server.recv(Duration::from_millis(5)) {
                out.push(frame);
            }
            out
        };
        let a = survivors(7);
        let b = survivors(7);
        let c = survivors(8);
        assert_eq!(a, b, "same seed, same fault pattern");
        assert!(a.len() < 50, "losses must actually happen at 30%");
        assert!(!a.is_empty());
        assert_ne!(a, c, "different seed, different pattern");
    }

    #[test]
    fn reorder_swaps_adjacent_frames_without_losing_any() {
        let (mut client, mut server) = loopback_pair(LoopbackConfig::lossy(0.0, 0.5, 42));
        let n = 40u8;
        for i in 0..n {
            client.send(&[i]).unwrap();
        }
        client.close(); // flush any held frame
        let mut got = Vec::new();
        while let Ok(frame) = server.recv(Duration::from_millis(5)) {
            got.push(frame[0]);
        }
        assert_eq!(got.len(), n as usize, "reorder never drops");
        let mut sorted = got.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..n).collect::<Vec<_>>());
        assert_ne!(got, sorted, "at 50% reorder some swap must occur");
    }

    #[test]
    fn hub_accepts_each_dialled_connection() {
        let hub = LoopbackHub::new();
        let mut connector = hub.connector(LoopbackConfig::reliable());
        let mut c1 = connector.connect().unwrap();
        let mut c2 = connector.connect().unwrap();
        let mut s1 = hub.accept(Duration::from_millis(50)).unwrap();
        let mut s2 = hub.accept(Duration::from_millis(50)).unwrap();
        c1.send(b"one").unwrap();
        c2.send(b"two").unwrap();
        assert_eq!(s1.recv(Duration::from_millis(50)).unwrap(), b"one");
        assert_eq!(s2.recv(Duration::from_millis(50)).unwrap(), b"two");
        assert_eq!(
            hub.accept(Duration::from_millis(5)).err(),
            Some(TransportError::TimedOut)
        );
    }

    #[test]
    fn dropped_server_closes_the_client() {
        let (mut client, server) = loopback_pair(LoopbackConfig::reliable());
        drop(server);
        assert_eq!(client.send(b"x"), Err(TransportError::Closed));
    }

    #[test]
    fn tcp_round_trips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let join = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut server = TcpTransport::new(stream).unwrap();
            let mut got = Vec::new();
            while got.len() < 6 {
                match server.recv(Duration::from_millis(200)) {
                    Ok(chunk) => got.extend_from_slice(&chunk),
                    Err(TransportError::TimedOut) => continue,
                    Err(e) => panic!("server recv: {e}"),
                }
            }
            got
        });
        let mut connector = TcpConnector::new(addr.to_string());
        let mut client = connector.connect().unwrap();
        client.send(b"abc").unwrap();
        client.send(b"def").unwrap();
        assert_eq!(join.join().unwrap(), b"abcdef");
        client.close();
    }

    #[test]
    fn accept_error_surfaces_as_timeout_first() {
        let hub = LoopbackHub::new();
        assert_eq!(
            hub.accept(Duration::from_millis(2)).err(),
            Some(TransportError::TimedOut)
        );
    }

    #[test]
    fn partial_writes_tear_frames_but_preserve_the_byte_stream() {
        let (mut client, mut server) =
            loopback_pair(LoopbackConfig::adversarial(0.0, 0.0, 1.0, 0.0, 11));
        let frames: Vec<Vec<u8>> = (0..20u8).map(|i| vec![i; 8]).collect();
        for f in &frames {
            client.send(f).unwrap();
        }
        client.close();
        let mut chunks = 0usize;
        let mut stream = Vec::new();
        while let Ok(chunk) = server.recv(Duration::from_millis(5)) {
            chunks += 1;
            stream.extend_from_slice(&chunk);
        }
        assert!(chunks > frames.len(), "every frame must be torn at 100%");
        let expected: Vec<u8> = frames.concat();
        assert_eq!(stream, expected, "tearing must never corrupt the stream");
    }

    #[test]
    fn stalled_tail_is_flushed_by_the_next_send_or_close() {
        let (mut client, mut server) =
            loopback_pair(LoopbackConfig::adversarial(0.0, 0.0, 1.0, 1.0, 3));
        client.send(b"abcdef").unwrap();
        // Head arrives; the tail is stalled inside the client.
        let head = server.recv(Duration::from_millis(20)).unwrap();
        assert!(!head.is_empty() && head.len() < 6);
        assert_eq!(
            server.recv(Duration::from_millis(5)),
            Err(TransportError::TimedOut),
            "tail must be stalled, not delivered"
        );
        // The next send flushes the stalled tail first, in order.
        client.send(b"ghij").unwrap();
        client.close();
        let mut stream = head;
        while let Ok(chunk) = server.recv(Duration::from_millis(5)) {
            stream.extend_from_slice(&chunk);
        }
        assert_eq!(stream, b"abcdefghij");
    }

    #[test]
    fn adversarial_link_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<Vec<u8>> {
            let (mut client, mut server) =
                loopback_pair(LoopbackConfig::adversarial(0.1, 0.2, 0.5, 0.5, seed));
            for i in 0..60u8 {
                client.send(&[i; 4]).unwrap();
            }
            client.close();
            let mut out = Vec::new();
            while let Ok(chunk) = server.recv(Duration::from_millis(5)) {
                out.push(chunk);
            }
            out
        };
        assert_eq!(run(9), run(9), "same seed, same chunk sequence");
        assert_ne!(run(9), run(10), "different seed, different pattern");
    }

    #[test]
    fn torn_frames_reassemble_through_the_decoder() {
        use crate::wire::{encode, FrameDecoder, Heartbeat, Message};
        let (mut client, mut server) =
            loopback_pair(LoopbackConfig::adversarial(0.0, 0.0, 1.0, 0.5, 17));
        let n = 25u64;
        for seq in 0..n {
            let frame = encode(&Message::Heartbeat(Heartbeat {
                pole_id: 1,
                seq,
                timestamp_ms: seq * 100,
            }));
            client.send(&frame).unwrap();
        }
        client.close();
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        while let Ok(chunk) = server.recv(Duration::from_millis(5)) {
            dec.push(&chunk);
            while let Ok(Some(msg)) = dec.next_message() {
                got.push(msg);
            }
        }
        let seqs: Vec<u64> = got
            .iter()
            .map(|m| match m {
                Message::Heartbeat(h) => h.seq,
                other => panic!("unexpected message: {other:?}"),
            })
            .collect();
        assert_eq!(seqs, (0..n).collect::<Vec<_>>());
    }
}
