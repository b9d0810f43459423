//! The socket pump: one thread, `poll(2)`, every connection
//! non-blocking.
//!
//! The pump owns a [`ServeCore`] and multiplexes the listener, a
//! publish waker, and every accepted connection through
//! [`fleet::sys::poll_fds`] — the same readiness primitive the ingest
//! reactor parks on, so a dashboard swarm costs one thread however
//! many sockets it opens. Publish wakeups ride a self-connected TCP
//! pair: the [`fleet::PublishHook`] fired by the aggregator's
//! [`SnapshotCell`] arms an atomic and writes one byte, which makes
//! `poll` return immediately and lets parked `/delta` long-polls
//! answer within a tick of the epoch turning over.
//!
//! Slow and hostile clients are bounded on every axis: request heads
//! are size-capped (`431`), a dribbled head hits the read deadline
//! (`408`), idle keep-alives are reaped, partially flushed responses
//! wait on `POLLOUT` without blocking anyone else, a closing
//! connection whose peer stops reading hits a write deadline instead
//! of holding its fd forever, and the accept loop stops at
//! `max_conns`.

use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use fleet::sys::Waker;
use fleet::{PublishHook, SnapshotCell};
use obs::{Registry, TelemetrySnapshot};

use crate::core::{ConnStatus, Connection, ServeConfig, ServeCore, ServeMetrics};
use crate::http::write_error;

/// [`PublishHook`] bridging the aggregator's publish path to the
/// pump's waker. Fired outside the writer lock, so a wake costs the
/// fusion thread one atomic swap and (rarely) a loopback byte.
struct PublishWaker(Arc<Waker>);

impl PublishHook for PublishWaker {
    fn on_publish(&self, _epoch: u64) {
        self.0.wake();
    }
}

struct ConnState {
    stream: TcpStream,
    conn: Connection,
    status: ConnStatus,
    last_activity: Instant,
    /// Set while a request head is partially received; drives the
    /// slowloris read deadline.
    read_started: Option<Instant>,
    park_deadline: Option<Instant>,
}

/// A running snapshot server. Dropping it (or calling
/// [`HttpServer::stop`]) shuts the pump down.
pub struct HttpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Arc<Waker>,
    metrics: ServeMetrics,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Spawns the pump thread over an already-bound listener, serving
    /// epochs published into `cell`.
    pub fn spawn(
        listener: TcpListener,
        cell: Arc<SnapshotCell>,
        cfg: ServeConfig,
    ) -> io::Result<HttpServer> {
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let waker = Arc::new(Waker::new()?);
        cell.add_hook(Arc::new(PublishWaker(Arc::clone(&waker))));
        let metrics = ServeMetrics::new(Arc::new(Registry::new()));
        let stop = Arc::new(AtomicBool::new(false));
        let pump = Pump {
            listener,
            cell,
            cfg,
            core: ServeCore::new(cfg, metrics.clone()),
            waker: Arc::clone(&waker),
            stop: Arc::clone(&stop),
            conns: Vec::new(),
        };
        let handle = std::thread::Builder::new()
            .name("serve-pump".into())
            .spawn(move || pump.run())?;
        Ok(HttpServer {
            addr,
            stop,
            waker,
            metrics,
            handle: Some(handle),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The serve-tier metric handles.
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// The registry holding every `serve.*` instrument.
    pub fn registry(&self) -> Arc<Registry> {
        self.metrics.registry()
    }

    /// Portable dump of the serve-tier instruments — staple this onto
    /// a [`fleet::FleetHealth`] with `with_serve`.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.metrics.telemetry()
    }

    /// Stops the pump and joins it. Idempotent.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        self.waker.wake();
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop();
    }
}

struct Pump {
    listener: TcpListener,
    cell: Arc<SnapshotCell>,
    cfg: ServeConfig,
    core: ServeCore,
    waker: Arc<Waker>,
    stop: Arc<AtomicBool>,
    conns: Vec<ConnState>,
}

impl Pump {
    fn run(mut self) {
        let conns_gauge = self.core.metrics().registry().gauge("serve.conns");
        let tick = Duration::from_millis(self.cfg.tick_ms.max(1));
        let mut read_buf = [0u8; 16 * 1024];
        while !self.stop.load(Ordering::Acquire) {
            self.adopt_epoch();
            let (waker_ready, listener_ready, ready) = self.wait_ready(tick);
            if waker_ready {
                self.waker.drain();
            }
            if listener_ready {
                self.accept_ready();
            }
            let now = Instant::now();
            for idx in ready {
                self.read_conn(idx, now, &mut read_buf);
            }
            self.adopt_epoch();
            self.enforce_deadlines(now);
            self.flush_all(now);
            self.reap();
            conns_gauge.set(self.conns.len() as f64);
        }
    }

    /// Publishes any new epoch into the core and answers parked
    /// long-polls it unblocks.
    fn adopt_epoch(&mut self) {
        let (epoch, snap) = self.cell.read_versioned();
        if epoch <= self.core.seq() {
            return;
        }
        self.core.on_publish(epoch, snap);
        for c in &mut self.conns {
            if c.status == ConnStatus::Parked {
                c.status = self.core.unpark(&mut c.conn, false);
                if c.status != ConnStatus::Parked {
                    c.park_deadline = None;
                    c.last_activity = Instant::now();
                }
            }
        }
    }

    /// Polls the waker, listener, and every connection; returns
    /// (waker ready, listener ready, indices of ready connections).
    #[cfg(unix)]
    fn wait_ready(&mut self, tick: Duration) -> (bool, bool, Vec<usize>) {
        use std::os::unix::io::AsRawFd;
        let accepting = self.conns.len() < self.cfg.max_conns;
        let mut pfds = Vec::with_capacity(self.conns.len() + 2);
        pfds.push(fleet::sys::PollFd {
            fd: self.waker.fd(),
            events: fleet::sys::POLLIN,
            revents: 0,
        });
        pfds.push(fleet::sys::PollFd {
            fd: self.listener.as_raw_fd(),
            events: if accepting { fleet::sys::POLLIN } else { 0 },
            revents: 0,
        });
        for c in &self.conns {
            let mut events = fleet::sys::POLLIN;
            if !c.conn.out.is_empty() {
                events |= fleet::sys::POLLOUT;
            }
            pfds.push(fleet::sys::PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            });
        }
        fleet::sys::poll_fds(&mut pfds, tick);
        let ready = pfds[2..]
            .iter()
            .enumerate()
            .filter(|(_, p)| p.revents != 0)
            .map(|(i, _)| i)
            .collect();
        (
            pfds[0].revents != 0,
            accepting && pfds[1].revents != 0,
            ready,
        )
    }

    /// Portable fallback: tick-paced sweep claiming everything ready;
    /// nonblocking reads resolve the spurious readiness.
    #[cfg(not(unix))]
    fn wait_ready(&mut self, tick: Duration) -> (bool, bool, Vec<usize>) {
        std::thread::sleep(tick);
        let accepting = self.conns.len() < self.cfg.max_conns;
        (true, accepting, (0..self.conns.len()).collect())
    }

    fn accept_ready(&mut self) {
        while self.conns.len() < self.cfg.max_conns {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    self.conns.push(ConnState {
                        stream,
                        conn: Connection::new(),
                        status: ConnStatus::Open,
                        last_activity: Instant::now(),
                        read_started: None,
                        park_deadline: None,
                    });
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break,
            }
        }
    }

    fn read_conn(&mut self, idx: usize, now: Instant, buf: &mut [u8]) {
        let c = &mut self.conns[idx];
        loop {
            match c.stream.read(buf) {
                Ok(0) => {
                    // Peer closed. A parked long-poll just goes away;
                    // anything else is a done connection.
                    c.status = ConnStatus::Close;
                    c.conn.out.clear();
                    return;
                }
                Ok(n) => {
                    if c.status == ConnStatus::Close {
                        // Draining a poisoned connection. Deliberately
                        // not activity: only flush progress defers the
                        // write deadline, so a peer cannot keep a
                        // wedged connection alive by dribbling bytes
                        // it never reads answers to.
                        continue;
                    }
                    c.last_activity = now;
                    if c.status == ConnStatus::Parked {
                        // Pipelined bytes behind a parked poll just
                        // buffer; they answer at unpark.
                        c.conn
                            .buffer_while_parked(&buf[..n], self.cfg.limits.max_head_bytes);
                        continue;
                    }
                    c.status = self.core.on_bytes(&mut c.conn, &buf[..n]);
                    match c.status {
                        ConnStatus::Parked => {
                            let wait = c.conn.parked().map_or(0, |p| p.wait_ms);
                            c.park_deadline = Some(now + Duration::from_millis(wait));
                            c.read_started = None;
                        }
                        _ => {
                            c.read_started = if c.conn.mid_request() {
                                Some(c.read_started.unwrap_or(now))
                            } else {
                                None
                            };
                        }
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    c.status = ConnStatus::Close;
                    c.conn.out.clear();
                    return;
                }
            }
        }
    }

    fn enforce_deadlines(&mut self, now: Instant) {
        let read_deadline = Duration::from_millis(self.cfg.read_deadline_ms);
        let idle_timeout = Duration::from_millis(self.cfg.idle_timeout_ms);
        for c in &mut self.conns {
            match c.status {
                ConnStatus::Parked => {
                    if c.park_deadline.is_some_and(|d| now >= d) {
                        c.status = self.core.unpark(&mut c.conn, true);
                        c.park_deadline = None;
                        c.last_activity = now;
                    }
                }
                ConnStatus::Open => {
                    if c.read_started.is_some_and(|t| now - t >= read_deadline) {
                        // Slowloris: a head dribbled past the deadline.
                        write_error(&mut c.conn.out, 408);
                        c.status = ConnStatus::Close;
                    } else if now - c.last_activity >= idle_timeout {
                        c.status = ConnStatus::Close;
                    }
                }
                ConnStatus::Close => {
                    // Write deadline: a closing connection still owes
                    // the peer bytes, but a peer that stops reading
                    // (slow-read, or silently gone) must not hold the
                    // fd and buffers forever. Flush progress refreshes
                    // `last_activity`; once it stalls past the idle
                    // timeout, drop the output so reap() collects the
                    // connection.
                    if !c.conn.out.is_empty() && now - c.last_activity >= idle_timeout {
                        c.conn.out.clear();
                    }
                }
            }
        }
    }

    fn flush_all(&mut self, now: Instant) {
        for c in &mut self.conns {
            match flush(&mut c.conn.out, &mut c.stream) {
                Ok(0) => {}
                Ok(_) => c.last_activity = now,
                Err(_) => {
                    c.status = ConnStatus::Close;
                    c.conn.out.clear();
                }
            }
        }
    }

    fn reap(&mut self) {
        self.conns.retain(|c| {
            let done = c.status == ConnStatus::Close && c.conn.out.is_empty();
            if done {
                let _ = c.stream.shutdown(Shutdown::Both);
            }
            !done
        });
    }
}

/// Writes as much of `out` as `sink` takes without blocking, then
/// drops the written prefix with one compaction, and returns how many
/// bytes went out; an error means the sink is gone. A cursor walks the
/// buffer between partial writes, so a pipelined reader's backlog
/// costs one memmove per call, not one per partial write.
fn flush(out: &mut Vec<u8>, sink: &mut impl Write) -> io::Result<usize> {
    let mut at = 0;
    let result = loop {
        if at == out.len() {
            break Ok(at);
        }
        match sink.write(&out[at..]) {
            Ok(0) => break Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => at += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break Ok(at),
            Err(e) => break Err(e),
        }
    };
    out.drain(..at);
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that takes at most `chunk` bytes per write and
    /// `per_call` per flush before it would block, recording where
    /// each write's slice started.
    struct Dribble {
        chunk: usize,
        per_call: usize,
        budget: usize,
        got: Vec<u8>,
        starts: Vec<*const u8>,
    }

    impl Write for Dribble {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.budget == 0 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let n = buf.len().min(self.chunk).min(self.budget);
            self.budget -= n;
            self.starts.push(buf.as_ptr());
            self.got.extend_from_slice(&buf[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// A multi-MiB backlog leaves through small partial writes in
    /// order, and each flush call compacts once: every write inside a
    /// call starts where the last one ended (the buffer did not move
    /// under the cursor), and the next call starts at the front of the
    /// compacted buffer.
    #[test]
    fn flush_walks_a_cursor_and_compacts_once_per_call() {
        let backlog: Vec<u8> = (0..3 * 1024 * 1024u32)
            .map(|i| (i * 31 % 251) as u8)
            .collect();
        let mut out = backlog.clone();
        let mut sink = Dribble {
            chunk: 1000,
            per_call: 64 * 1024,
            budget: 0,
            got: Vec::new(),
            starts: Vec::new(),
        };
        let mut calls = 0;
        while !out.is_empty() {
            calls += 1;
            sink.budget = sink.per_call;
            sink.starts.clear();
            let front = out.as_ptr();
            let before = out.len();
            let wrote = flush(&mut out, &mut sink).expect("the sink stays up");
            assert_eq!(wrote, before - out.len());
            assert_eq!(
                sink.starts[0], front,
                "a call starts at the compacted front"
            );
            let mut offset = 0;
            for (i, &start) in sink.starts.iter().enumerate() {
                assert_eq!(
                    start,
                    front.wrapping_add(offset),
                    "write {i} of call {calls}"
                );
                offset += sink.chunk.min(before - offset);
            }
        }
        assert_eq!(calls, backlog.len().div_ceil(64 * 1024));
        assert!(sink.got == backlog, "bytes arrive complete and in order");
    }

    /// A pump holding one accepted connection in the given state; the
    /// returned client stream keeps the peer side alive.
    fn pump_with_conn(status: ConnStatus, last_activity: Instant, out: &[u8]) -> (Pump, TcpStream) {
        let cfg = ServeConfig::default();
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let client = TcpStream::connect(listener.local_addr().expect("addr")).expect("connect");
        let (stream, _) = listener.accept().expect("accept");
        stream.set_nonblocking(true).expect("nonblocking");
        let mut conn = Connection::new();
        conn.out.extend_from_slice(out);
        let pump = Pump {
            listener,
            cell: Arc::new(SnapshotCell::new()),
            cfg,
            core: ServeCore::new(cfg, ServeMetrics::default()),
            waker: Arc::new(Waker::new().expect("waker")),
            stop: Arc::new(AtomicBool::new(false)),
            conns: vec![ConnState {
                stream,
                conn,
                status,
                last_activity,
                read_started: None,
                park_deadline: None,
            }],
        };
        (pump, client)
    }

    /// Regression: a Close-status connection whose peer never drains
    /// the response used to hold its fd and buffers forever (no reap,
    /// no deadline), so `max_conns` slow-read clients could wedge the
    /// accept loop. The write deadline must clear the stalled output
    /// and let reap() collect the connection.
    #[test]
    fn stalled_close_connection_hits_the_write_deadline() {
        let stale = match Instant::now().checked_sub(Duration::from_secs(60)) {
            Some(t) => t,
            None => return, // monotonic clock too young to fake staleness
        };
        let (mut pump, _client) =
            pump_with_conn(ConnStatus::Close, stale, b"bytes the peer never reads");
        pump.enforce_deadlines(Instant::now());
        assert!(
            pump.conns[0].conn.out.is_empty(),
            "write deadline must drop the stalled output"
        );
        pump.reap();
        assert!(
            pump.conns.is_empty(),
            "reap must collect the wedged connection"
        );
    }

    /// The inverse: a Close connection whose flush is making progress
    /// (fresh `last_activity`) keeps its pending output and stays.
    #[test]
    fn progressing_close_connection_keeps_its_output() {
        let (mut pump, _client) =
            pump_with_conn(ConnStatus::Close, Instant::now(), b"still flushing");
        pump.enforce_deadlines(Instant::now());
        assert!(!pump.conns[0].conn.out.is_empty());
        pump.reap();
        assert_eq!(pump.conns.len(), 1, "a progressing flush is not reaped");
    }
}
