//! The readiness-driven ingest reactor: the aggregator's one ingest
//! lane.
//!
//! One *pump* thread owns every connection: it parks on a shared
//! [`ReadySignal`] (in-process transports ping it on delivery) and on
//! `poll(2)` (descriptor-backed transports), drains ready transports
//! with zero-timeout reads, and feeds each chunk to the connection's
//! [`IngestLane`]. The lane decodes frames, sheds past the inflight
//! budget, records every admitted frame to the capture, and hands the
//! admitted messages to a small worker pool. Workers fold them into
//! the [`ShardedFusion`]; a connection's messages always land on the
//! same worker (`conn_id % workers`), so per-connection FIFO — the
//! order the sentinel's trust ladder is defined over — survives the
//! fan-out.
//!
//! [`crate::capture::replay`] drives the same lane over a recording,
//! so live ingest and replay share every per-connection decision and
//! differ only in scheduling.
//!
//! # Why determinism survives
//!
//! Fusion is last-sequence-wins per pole and the sentinel judges each
//! pole's own stream in connection order, so the fused state is a
//! pure function of *which* messages were admitted — never of the
//! thread, poll cycle, or shard that carried them. The capture holds
//! exactly the admitted frames, so replaying the reactor's own capture
//! through a single `FusionCore` reproduces its snapshot bit for bit
//! at any worker or shard count (pinned by `tests/fleet.rs` and the
//! soak bench's ingest cells).
//!
//! Transports that can neither signal readiness nor expose a
//! descriptor are swept once per tick — correct, just not as idle.
//!
//! # When it publishes
//!
//! A fused report is stale until a snapshot carrying it reaches the
//! [`crate::SnapshotCell`], so the pump publishes on change, not on a
//! timer: each worker marks the fused state dirty after a fuse and
//! pings the pump on the clean→dirty edge, and the pump publishes once
//! the state is dirty and [`MIN_PUBLISH_GAP`] has passed since the
//! last publish (or since the reactor started, so a campus dialling in
//! never pays for a publish per connection). It parks no longer than
//! the due publish. A clean campus still publishes every
//! [`PUBLISH_EVERY`]: liveness walks Live → Stale → Dead on the clock
//! alone, with no fuse to mark it.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use obs::Clock;
use parking_lot::Mutex;

use crate::aggregator::{IngestVerdict, ShardedFusion};
use crate::capture::CaptureWriter;
use crate::transport::{ReadySignal, Transport, TransportError};
use crate::wire::{FrameDecoder, Message};

/// The token control traffic (new connections, shutdown pokes) uses
/// on the shared [`ReadySignal`]; data transports use their
/// connection id.
const INTAKE_TOKEN: u64 = u64::MAX;

/// The pump's park bound: the longest it sleeps with nothing ready,
/// and the sweep cadence for transports that cannot signal.
pub(crate) const TICK: Duration = Duration::from_millis(50);

/// The idle heartbeat: the longest the pump goes without publishing,
/// so clock-driven liveness changes surface on a quiet campus.
const PUBLISH_EVERY: Duration = Duration::from_millis(250);

/// The least time between two publishes of dirty state: a fifth of a
/// pole's 100 ms frame period, so a publish is never far behind a
/// fuse, yet a 256-pole campus reporting at 10 Hz costs at most 50
/// publishes a second, not 2560.
const MIN_PUBLISH_GAP: Duration = Duration::from_millis(20);

/// What a lane shares with the messages it has admitted.
#[derive(Debug, Default)]
struct LaneState {
    /// Messages admitted but not yet fused.
    inflight: AtomicUsize,
    /// Set when a sentinel verdict drops the connection; admitted
    /// messages still queued behind that verdict are discarded.
    condemned: AtomicBool,
}

/// One connection's path from wire bytes to fusion: the frame
/// decoder, the inflight budget, the capture tap, and the handling of
/// decode errors and drop-connection verdicts. The reactor drives one
/// lane per live connection (the pump admits, a worker fuses);
/// [`crate::capture::replay`] drives one per recorded connection.
pub(crate) struct IngestLane {
    conn_id: u32,
    decoder: FrameDecoder,
    state: Arc<LaneState>,
    budget: usize,
    capture: Option<Arc<Mutex<CaptureWriter>>>,
    /// The byte stream is over: the peer hung up, the transport
    /// failed, or framing broke.
    closed: bool,
}

impl IngestLane {
    /// A lane for connection `conn_id` that sheds the newest decode
    /// once `budget` admitted messages await fusion, and records every
    /// admitted frame to `capture`.
    pub(crate) fn new(
        conn_id: u32,
        budget: usize,
        capture: Option<Arc<Mutex<CaptureWriter>>>,
    ) -> Self {
        IngestLane {
            conn_id,
            decoder: FrameDecoder::new(),
            state: Arc::default(),
            budget: budget.max(1),
            capture,
            closed: false,
        }
    }

    /// Whether the lane still takes bytes: its stream is not over and
    /// no verdict has dropped the connection.
    pub(crate) fn is_open(&self) -> bool {
        !self.closed && !self.state.condemned.load(Ordering::Acquire)
    }

    /// Ends the byte stream (peer gone, transport failed). Messages
    /// already admitted still fuse.
    pub(crate) fn close(&mut self) {
        self.closed = true;
    }

    /// Buffers bytes that arrived together; a stopped lane ignores
    /// them.
    pub(crate) fn push(&mut self, bytes: &[u8]) {
        if self.is_open() {
            self.decoder.push(bytes);
        }
    }

    /// The next message decoded from the buffered bytes that fits the
    /// inflight budget, its frame recorded at `arrival`. `None` once
    /// no complete frame is buffered or the lane has stopped.
    pub(crate) fn admit(&mut self, arrival: Duration) -> Option<Admitted> {
        while self.is_open() {
            let decoded = if self.capture.is_some() {
                self.decoder
                    .next_message_and_frame()
                    .map(|d| d.map(|(msg, frame)| (msg, Some(frame))))
            } else {
                self.decoder
                    .next_message()
                    .map(|d| d.map(|msg| (msg, None)))
            };
            match decoded {
                Ok(Some((msg, frame))) => {
                    if self.state.inflight.load(Ordering::Acquire) >= self.budget {
                        // Shed the newest decode: the firehosing
                        // connection pays for its own backlog. A shed
                        // frame is never captured, so a replay fuses
                        // exactly what live fusion saw.
                        obs::incr("fleet.agg.inflight_dropped", 1);
                        continue;
                    }
                    self.state.inflight.fetch_add(1, Ordering::AcqRel);
                    if let (Some(cap), Some(frame)) = (&self.capture, frame) {
                        // Best-effort: a full capture disk must not
                        // down the fleet.
                        let _ = cap.lock().record(arrival, self.conn_id, &frame);
                    }
                    return Some(Admitted {
                        conn_id: self.conn_id,
                        msg,
                        lane: Arc::clone(&self.state),
                    });
                }
                Ok(None) => return None,
                Err(_) => {
                    // Framing is unrecoverable mid-stream: drop the
                    // connection, the agent redials.
                    obs::incr("fleet.agg.decode_errors", 1);
                    self.closed = true;
                }
            }
        }
        None
    }
}

/// A message its lane admitted, on its way to fusion.
pub(crate) struct Admitted {
    conn_id: u32,
    msg: Message,
    lane: Arc<LaneState>,
}

impl Admitted {
    /// Folds the message into fusion through `ingest`, unless a
    /// verdict dropped its connection since admission (a dropped
    /// connection's queued tail is discarded). Returns whether this
    /// message's own verdict dropped the connection.
    pub(crate) fn fuse(self, ingest: impl FnOnce(u32, Message) -> IngestVerdict) -> bool {
        self.lane.inflight.fetch_sub(1, Ordering::AcqRel);
        if self.lane.condemned.load(Ordering::Acquire) {
            return false;
        }
        let drop = ingest(self.conn_id, self.msg).drop_connection;
        if drop {
            self.lane.condemned.store(true, Ordering::Release);
        }
        drop
    }
}

/// Where new connections land before the pump adopts them, plus the
/// signal the whole reactor parks on and the dirty mark workers set.
pub(crate) struct Intake {
    pub(crate) signal: Arc<ReadySignal>,
    pending: Mutex<Vec<(u32, Box<dyn Transport>)>>,
    next_conn: AtomicU32,
    /// Fused state changed since the pump last took it.
    dirty: AtomicBool,
}

impl std::fmt::Debug for Intake {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Intake")
            .field("pending", &self.pending.lock().len())
            .finish()
    }
}

impl Intake {
    pub(crate) fn new() -> Self {
        Intake {
            signal: Arc::new(ReadySignal::new()),
            pending: Mutex::new(Vec::new()),
            // Connection ids are 1-based; 0 is "direct ingest".
            next_conn: AtomicU32::new(1),
            dirty: AtomicBool::new(false),
        }
    }

    /// Assigns the next connection id, queues the connection for the
    /// pump, wakes it, and returns the id.
    pub(crate) fn push(&self, transport: Box<dyn Transport>) -> u32 {
        let conn_id = self.next_conn.fetch_add(1, Ordering::SeqCst);
        self.pending.lock().push((conn_id, transport));
        self.signal.notify(INTAKE_TOKEN);
        conn_id
    }

    /// Wakes the pump without queueing anything (shutdown, kill
    /// verdicts).
    pub(crate) fn poke(&self) {
        self.signal.notify(INTAKE_TOKEN);
    }

    fn drain(&self) -> Vec<(u32, Box<dyn Transport>)> {
        std::mem::take(&mut *self.pending.lock())
    }

    /// Marks fused state changed, waking the pump on the clean→dirty
    /// edge only: one ping per publish however many fuses land.
    fn mark_dirty(&self) {
        if !self.dirty.load(Ordering::Acquire) && !self.dirty.swap(true, Ordering::AcqRel) {
            self.poke();
        }
    }

    fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Clears the mark ahead of a publish's gather: a fuse that lands
    /// during the gather marks the state again, so it is never lost.
    fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }
}

/// Everything [`spawn`] needs from the aggregator.
pub(crate) struct ReactorContext {
    pub(crate) fusion: Arc<ShardedFusion>,
    pub(crate) running: Arc<AtomicBool>,
    pub(crate) intake: Arc<Intake>,
    pub(crate) capture: Option<Arc<Mutex<CaptureWriter>>>,
    /// Worker threads folding messages into fusion. 0 = auto.
    pub(crate) workers: usize,
    /// Per-connection inflight cap (see [`IngestLane::new`]).
    pub(crate) inflight_budget: usize,
}

/// Join handle for a running reactor: the pump and its workers.
#[derive(Debug)]
pub struct ReactorHandle {
    pump: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ReactorHandle {
    /// Waits for the pump to exit and the workers to drain every
    /// admitted message into fusion. After `join`, an attached capture
    /// holds every admitted frame, flushed to its sink.
    pub fn join(self) {
        let _ = self.pump.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

fn worker_loop(fusion: Arc<ShardedFusion>, rx: mpsc::Receiver<Admitted>, intake: Arc<Intake>) {
    // The pump drops its senders when it exits; draining until
    // `Disconnected` means every admitted message is fused before the
    // worker leaves, so `ReactorHandle::join` implies quiescence.
    while let Ok(msg) = rx.recv() {
        let dropped = msg.fuse(|conn_id, m| {
            let verdict = fusion.ingest_from(conn_id, m);
            intake.mark_dirty();
            verdict
        });
        if dropped {
            // Wake the pump to reap the dropped connection.
            intake.poke();
        }
    }
}

pub(crate) fn spawn(ctx: ReactorContext) -> ReactorHandle {
    let nworkers = if ctx.workers != 0 {
        ctx.workers
    } else {
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4);
        (cores / 2).clamp(1, 8)
    };

    let mut txs = Vec::with_capacity(nworkers);
    let mut workers = Vec::with_capacity(nworkers);
    for w in 0..nworkers {
        let (tx, rx) = mpsc::channel::<Admitted>();
        txs.push(tx);
        let fusion = Arc::clone(&ctx.fusion);
        let intake = Arc::clone(&ctx.intake);
        workers.push(
            std::thread::Builder::new()
                .name(format!("fusion-worker-{w}"))
                .spawn(move || worker_loop(fusion, rx, intake))
                .expect("spawn fusion worker"),
        );
    }

    let clock = ctx.fusion.clock_handle();
    let pump = Pump {
        fusion: ctx.fusion,
        running: ctx.running,
        intake: ctx.intake,
        capture: ctx.capture,
        clock,
        txs,
        conns: BTreeMap::new(),
        budget: ctx.inflight_budget,
    };
    let pump = std::thread::Builder::new()
        .name("ingest-pump".into())
        .spawn(move || pump.run())
        .expect("spawn ingest pump");

    ReactorHandle { pump, workers }
}

/// One adopted connection, as the pump sees it.
struct Conn {
    transport: Box<dyn Transport>,
    lane: IngestLane,
    /// The transport pings the shared signal on delivery, so the pump
    /// only visits it when its token surfaces.
    signalled: bool,
    #[cfg(unix)]
    fd: Option<std::os::unix::io::RawFd>,
}

struct Pump {
    fusion: Arc<ShardedFusion>,
    running: Arc<AtomicBool>,
    intake: Arc<Intake>,
    capture: Option<Arc<Mutex<CaptureWriter>>>,
    clock: Arc<dyn Clock>,
    txs: Vec<mpsc::Sender<Admitted>>,
    conns: BTreeMap<u32, Conn>,
    budget: usize,
}

impl Pump {
    fn run(mut self) {
        // Counted from start, so adopting a campus's connections never
        // pays for a publish per connection.
        let mut last_publish = Instant::now();
        while self.running.load(Ordering::SeqCst) {
            let ready = self.wait_ready(self.publish_due(last_publish));
            self.adopt();
            self.drain_cycle(ready);
            self.reap();
            let now = Instant::now();
            if now >= self.publish_due(last_publish) {
                self.intake.clear_dirty();
                self.fusion.publish();
                last_publish = now;
            }
        }
        // Orderly shutdown: adopt stragglers, drain what has already
        // been delivered, close everything, and only then flush the
        // capture, so a joined reactor means a complete recording.
        // Dropping the worker senders afterwards lets the workers
        // finish the queued tail and exit.
        self.adopt();
        let ids: Vec<u32> = self.conns.keys().copied().collect();
        for id in ids {
            self.drain_conn(id);
        }
        for (_, mut conn) in std::mem::take(&mut self.conns) {
            conn.transport.close();
        }
        if let Some(cap) = &self.capture {
            let _ = cap.lock().flush();
        }
    }

    /// When the next publish is due: [`MIN_PUBLISH_GAP`] after the
    /// last one while fused state is dirty, the idle heartbeat
    /// otherwise.
    fn publish_due(&self, last_publish: Instant) -> Instant {
        last_publish
            + if self.intake.is_dirty() {
                MIN_PUBLISH_GAP
            } else {
                PUBLISH_EVERY
            }
    }

    /// Parks until something is ready or `due` (never longer than a
    /// [`TICK`]), returning connection ids whose readiness was
    /// signalled. Descriptor-backed connections park in `poll(2)`,
    /// with the signal's waker in the poll set; with none of those,
    /// the pump sleeps entirely on the condvar — zero CPU while the
    /// campus is quiet.
    fn wait_ready(&mut self, due: Instant) -> Vec<u32> {
        let park = due.saturating_duration_since(Instant::now()).min(TICK);
        #[cfg(unix)]
        {
            let mut fd_ids: Vec<u32> = Vec::new();
            let mut pfds: Vec<crate::sys::PollFd> = Vec::new();
            for (&id, c) in &self.conns {
                if !c.lane.is_open() {
                    continue;
                }
                if let Some(fd) = c.fd {
                    fd_ids.push(id);
                    pfds.push(crate::sys::PollFd {
                        fd,
                        events: crate::sys::POLLIN,
                        revents: 0,
                    });
                }
            }
            if !pfds.is_empty() {
                // Poll is the park here, so a notify (a new
                // connection, a fuse, `stop`) must reach it through
                // the waker; without one it waits out the park.
                let waker = self.intake.signal.poll_waker();
                if let Some(w) = waker {
                    pfds.push(crate::sys::PollFd {
                        fd: w.fd(),
                        events: crate::sys::POLLIN,
                        revents: 0,
                    });
                }
                crate::sys::poll_fds(&mut pfds, park);
                if let Some(w) = waker {
                    if pfds.pop().is_some_and(|p| p.revents != 0) {
                        w.drain();
                    }
                }
                let mut ready: Vec<u32> = self
                    .intake
                    .signal
                    .drain()
                    .into_iter()
                    .filter(|&t| t != INTAKE_TOKEN)
                    .map(|t| t as u32)
                    .collect();
                for (i, p) in pfds.iter().enumerate() {
                    if p.revents != 0 {
                        ready.push(fd_ids[i]);
                    }
                }
                ready.sort_unstable();
                ready.dedup();
                return ready;
            }
        }
        self.intake
            .signal
            .wait(park)
            .into_iter()
            .filter(|&t| t != INTAKE_TOKEN)
            .map(|t| t as u32)
            .collect()
    }

    fn adopt(&mut self) {
        for (id, mut transport) in self.intake.drain() {
            let signalled = transport.register_ready(&self.intake.signal, u64::from(id));
            #[cfg(unix)]
            let fd = transport.poll_fd();
            self.conns.insert(
                id,
                Conn {
                    transport,
                    lane: IngestLane::new(id, self.budget, self.capture.clone()),
                    signalled,
                    #[cfg(unix)]
                    fd,
                },
            );
            // Registration re-notifies for frames that arrived before
            // the hand-off, but sweep once anyway so adoption never
            // depends on that courtesy.
            self.drain_conn(id);
        }
    }

    /// Drains every connection due this cycle: the signalled-ready
    /// set, plus a tick-paced sweep of connections that cannot signal.
    fn drain_cycle(&mut self, ready: Vec<u32>) {
        let mut ids = ready;
        for (&id, c) in &self.conns {
            if !c.lane.is_open() || c.signalled {
                continue;
            }
            #[cfg(unix)]
            {
                if c.fd.is_some() {
                    continue; // poll(2) already vouched for these
                }
            }
            ids.push(id);
        }
        ids.sort_unstable();
        ids.dedup();
        for id in ids {
            self.drain_conn(id);
        }
    }

    /// Reads everything `id`'s transport has buffered through its
    /// lane, handing each admitted message to the connection's worker.
    fn drain_conn(&mut self, id: u32) {
        let Some(conn) = self.conns.get_mut(&id) else {
            return;
        };
        let worker = &self.txs[id as usize % self.txs.len()];
        while conn.lane.is_open() {
            match conn.transport.recv(Duration::ZERO) {
                Ok(chunk) => {
                    let arrival = self.clock.now();
                    conn.lane.push(&chunk);
                    while let Some(msg) = conn.lane.admit(arrival) {
                        if worker.send(msg).is_err() {
                            conn.lane.close();
                        }
                    }
                }
                Err(TransportError::TimedOut) => return,
                Err(_) => conn.lane.close(),
            }
        }
    }

    /// Closes and forgets connections whose stream ended or whose
    /// lane a worker's sentinel verdict dropped.
    fn reap(&mut self) {
        let doomed: Vec<u32> = self
            .conns
            .iter()
            .filter(|(_, c)| !c.lane.is_open())
            .map(|(&id, _)| id)
            .collect();
        for id in doomed {
            if let Some(mut conn) = self.conns.remove(&id) {
                conn.transport.close();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{Aggregator, AggregatorConfig, FusionConfig, FusionCore};
    use crate::sentinel::Disposition;
    use crate::wire::{encode, PoleReport};
    use counting::{EpsRung, HealthState, PrecisionRung};
    use obs::ManualClock;
    use world::{corridor_layout, PoleRegistry, WalkwayConfig};

    /// An aggregator over two registered poles on a clock pinned at 0
    /// (fusion time never moves; the pump paces publishes on wall
    /// time regardless).
    fn aggregator(clock: &ManualClock) -> Aggregator {
        let registry = PoleRegistry::from_poses(corridor_layout(2, 15.0));
        let core = FusionCore::new(registry, WalkwayConfig::default(), FusionConfig::default())
            .with_clock(clock.handle());
        Aggregator::with_core(core, AggregatorConfig::default())
    }

    fn report(seq: u64) -> Vec<u8> {
        encode(&Message::Report(PoleReport {
            pole_id: 0,
            seq,
            timestamp_ms: seq * 100,
            count: 1,
            health: HealthState::Healthy,
            eps_rung: EpsRung::Adaptive,
            precision: PrecisionRung::Fp32,
            held: false,
            stale_frames: 0,
            age_ms: 0.0,
            pole_temp_c: None,
            capture_ms: None,
            clusters: Vec::new(),
        }))
    }

    /// Sends pole 0's report `seq` through `send` once the last
    /// publish has aged past the gap, and returns the time from send to
    /// a published snapshot showing it.
    fn publish_latency(agg: &Aggregator, seq: u64, send: &mut impl FnMut(&[u8])) -> Duration {
        let cell = agg.snapshot_cell();
        std::thread::sleep(MIN_PUBLISH_GAP * 3);
        let sent = Instant::now();
        send(&report(seq));
        while !cell
            .read()
            .poles
            .iter()
            .any(|p| p.pole_id == 0 && p.seq >= seq)
        {
            assert!(
                sent.elapsed() < Duration::from_secs(5),
                "report {seq} never published"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
        sent.elapsed()
    }

    fn median(mut samples: Vec<Duration>) -> Duration {
        samples.sort_unstable();
        samples[samples.len() / 2]
    }

    /// A fused report reaches the snapshot cell within about the
    /// publish gap, not on the idle heartbeat.
    #[test]
    fn a_fused_report_publishes_within_about_the_gap() {
        let clock = ManualClock::new();
        let agg = aggregator(&clock);
        let reactor = agg.spawn_reactor();
        let (mut pole, server) =
            crate::transport::loopback_pair(crate::transport::LoopbackConfig::reliable());
        agg.add_connection(Box::new(server));
        let mut send = |frame: &[u8]| pole.send(frame).expect("send");
        let median = median(
            (1..=7)
                .map(|seq| publish_latency(&agg, seq, &mut send))
                .collect(),
        );
        assert!(
            median <= MIN_PUBLISH_GAP * 2,
            "median report → publish {median:?}, heartbeat {PUBLISH_EVERY:?}"
        );
        agg.stop();
        reactor.join();
    }

    /// With nothing fused, the reactor still publishes on the idle
    /// heartbeat — and only on it.
    #[test]
    fn an_idle_campus_publishes_every_heartbeat() {
        let clock = ManualClock::new();
        let agg = aggregator(&clock);
        let reactor = agg.spawn_reactor();
        let window = PUBLISH_EVERY * 4 + PUBLISH_EVERY / 2;
        std::thread::sleep(window);
        let published = agg.snapshot_cell().epoch();
        agg.stop();
        reactor.join();
        assert!(
            (3..=5).contains(&published),
            "{published} publishes in {window:?}"
        );
    }

    /// A TCP pole parks the pump in `poll(2)`; the signal's waker must
    /// break that park, so a fuse publishes and `stop` lands well
    /// inside one tick instead of at its end. Medians over five
    /// reactors, three reports each, ride out a scheduler stall.
    #[cfg(unix)]
    #[test]
    fn a_tcp_pole_publishes_and_stops_well_inside_a_tick() {
        use std::io::Write;
        let (mut publishes, mut stops) = (Vec::new(), Vec::new());
        for _ in 0..5 {
            let clock = ManualClock::new();
            let agg = aggregator(&clock);
            let reactor = agg.spawn_reactor();
            let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let accept = agg.serve_tcp(listener);
            let mut pole = std::net::TcpStream::connect(addr).expect("connect");
            pole.set_nodelay(true).expect("nodelay");
            let mut send = |frame: &[u8]| pole.write_all(frame).expect("write");
            for seq in 1..=3 {
                publishes.push(publish_latency(&agg, seq, &mut send));
            }
            // Let the pump settle back into poll before stopping it.
            std::thread::sleep(MIN_PUBLISH_GAP * 2);
            let stopping = Instant::now();
            agg.stop();
            reactor.join();
            stops.push(stopping.elapsed());
            let _ = accept.join();
        }
        let (publish, stop) = (median(publishes), median(stops));
        assert!(
            publish < TICK / 2,
            "median report → publish {publish:?}, tick {TICK:?}"
        );
        assert!(
            stop < TICK / 2,
            "median stop + join {stop:?}, tick {TICK:?}"
        );
    }

    #[test]
    fn a_drop_verdict_discards_the_queued_tail_and_stops_the_lane() {
        let hello = |pole_id| encode(&Message::Hello { pole_id });
        let mut lane = IngestLane::new(1, 8, None);
        lane.push(&[hello(0), hello(1)].concat());
        let first = lane.admit(Duration::ZERO).expect("first");
        let second = lane.admit(Duration::ZERO).expect("second");
        assert!(first.fuse(|_, _| IngestVerdict {
            disposition: Disposition::Reject,
            drop_connection: true,
        }));
        assert!(!lane.is_open());
        assert!(!second.fuse(|_, _| panic!("a dropped connection's tail must not fuse")));
        lane.push(&hello(2));
        assert!(lane.admit(Duration::ZERO).is_none());
    }
}
