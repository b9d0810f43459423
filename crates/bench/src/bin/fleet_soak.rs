//! Fleet soak: pole count × link loss × batch size sweep over the
//! loopback transport, written to `BENCH_fleet.json` at the repo root.
//!
//! Every cell stands up a full in-process campus — N pole agents,
//! each running the supervised counting loop on synthetic captures,
//! streaming over seeded-lossy loopback links into one aggregator —
//! and measures what the fleet tier adds: report throughput, delivery
//! ratio under loss, reorder discards, and fused-occupancy error
//! against the constructed ground truth.
//!
//! The ground truth is arranged to exercise dedup: each pole owns one
//! person at local x = 14 m, and every pole pair shares one person on
//! their ROI seam (local x = 28 m for the left pole, x = 13 m for the
//! right), so a campus of N poles holds exactly `2N - 1` people and
//! every seam person is double-reported by construction.
//!
//! Each cell also exercises the observability plane: agents ship
//! telemetry windows over the wire, the aggregator rolls them into a
//! campus health scoreboard, and the bench records end-to-end ingest
//! latency percentiles (pole capture → fused slot) plus the wire byte
//! counts taken from the global telemetry snapshot delta. Lossless
//! cells additionally run a telemetry-off arm (min-of-2 per arm on
//! the stepping loop) and gate the measured overhead under 5%.
//!
//! After the sweep an **adversarial arm** runs: honest poles stream
//! over links that tear frames mid-write and stall the tails, while
//! compromised poles send wire-valid semantic garbage (out-of-campus
//! centroids, future capture clocks, sequence replays, implausible
//! counts) and a rogue connection impersonates an honest pole. The
//! arm gates in-binary: no panics, peak live heap under a ceiling
//! (tracked by a counting global allocator), honest fused occupancy
//! bit-equal to a clean control run, every malicious pole quarantined
//! (recall) with zero honest poles flagged (precision), and banned
//! reconnects rejected during cooldown.
//!
//! ```text
//! cargo run -p bench --release --bin fleet_soak              # full sweep
//! cargo run -p bench --release --bin fleet_soak -- --smoke   # CI-sized
//! ```
//!
//! Flags: `--smoke`, `--seed N`, `--frames N` (per pole per cell),
//! `--out PATH`, `--ops-out PATH` (health scoreboard JSONL artifact).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cluster::AdaptiveConfig;
use counting::{
    CounterConfig, CrowdCounter, EpsRung, HealthState, PrecisionRung, SupervisedCounter,
    SupervisorConfig,
};
use dataset::{ClassLabel, CloudClassifier};
use fleet::{
    encode, read_capture, replay, AgentConfig, Aggregator, AggregatorConfig, CaptureWriter,
    ClusterObservation, Connector, FusionConfig, LoopbackConfig, LoopbackHub, Message, PoleAgent,
    PoleReport, Transport, TrustState,
};
use geom::Point3;
use lidar::PointCloud;
use obs::{Clock, ManualClock, SystemClock};
use world::{corridor_layout, PoleRegistry, WalkwayConfig};

const SPACING_M: f64 = 15.0;
/// Telemetry cadence for the on-arm: one window every 8 frames.
const TELEMETRY_EVERY: u64 = 8;
/// Lossless cells must keep telemetry overhead under this fraction of
/// the telemetry-off stepping time.
const OVERHEAD_GATE: f64 = 0.05;
/// Peak live heap allowed during the adversarial arm. The arm runs a
/// handful of full counting pipelines plus the aggregator; anything
/// near this ceiling means hostile input found a way to make state
/// grow without bound.
const ADVERSARIAL_ALLOC_CEILING: u64 = 256 << 20;
/// Minimum fraction of ingested malicious frames that must be
/// quarantined or rejected. The first probes land before a pole's
/// violation score crosses the quarantine threshold, so steady-state
/// containment is necessarily below 1.0.
const CONTAINMENT_GATE: f64 = 0.70;
/// Minimum fraction of malicious poles that must end the run at
/// Quarantined or worse.
const RECALL_GATE: f64 = 0.85;

// ---------------------------------------------------------------------------
// Tracked allocation: a live-bytes RSS proxy for the adversarial
// memory-ceiling gate, in the style of `tests/hot_path_allocs.rs`.

struct TrackingAlloc;

static LIVE_BYTES: AtomicU64 = AtomicU64::new(0);
static PEAK_BYTES: AtomicU64 = AtomicU64::new(0);
static PANICS: AtomicU32 = AtomicU32::new(0);

fn note_alloc(size: usize) {
    let live = LIVE_BYTES.fetch_add(size as u64, Ordering::Relaxed) + size as u64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            note_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size() as u64, Ordering::Relaxed);
            note_alloc(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

/// Restart the peak-live-bytes watermark at the current live level.
fn reset_peak() {
    PEAK_BYTES.store(LIVE_BYTES.load(Ordering::Relaxed), Ordering::Relaxed);
}

struct Args {
    smoke: bool,
    seed: u64,
    frames: usize,
    out: PathBuf,
    ops_out: PathBuf,
    /// Pole counts for the ingest arm (`--poles 256,1024`).
    ingest_poles: Vec<usize>,
    /// Run only the ingest arm (the CI reactor gate).
    ingest_only: bool,
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..")
}

fn parse_args() -> Args {
    let mut out = Args {
        smoke: false,
        seed: 42,
        frames: 0,
        out: repo_root().join("BENCH_fleet.json"),
        ops_out: repo_root().join("BENCH_fleet_ops.jsonl"),
        ingest_poles: Vec::new(),
        ingest_only: false,
    };
    let args: Vec<String> = std::env::args().collect();
    let mut i = 1;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i)
                .unwrap_or_else(|| panic!("missing value for {}", args[*i - 1]))
                .clone()
        };
        match args[i].as_str() {
            "--smoke" => out.smoke = true,
            "--seed" => out.seed = take(&mut i).parse().expect("--seed"),
            "--frames" => out.frames = take(&mut i).parse().expect("--frames"),
            "--out" => out.out = PathBuf::from(take(&mut i)),
            "--ops-out" => out.ops_out = PathBuf::from(take(&mut i)),
            "--poles" => {
                out.ingest_poles = take(&mut i)
                    .split(',')
                    .map(|s| s.trim().parse().expect("--poles"))
                    .collect();
            }
            "--ingest-only" => out.ingest_only = true,
            other => {
                panic!(
                    "unknown flag {other} (use --smoke, --seed, --frames, --out, --ops-out, \
                     --poles, --ingest-only)"
                )
            }
        }
        i += 1;
    }
    if out.frames == 0 {
        out.frames = if out.smoke { 24 } else { 120 };
    }
    if out.ingest_poles.is_empty() {
        out.ingest_poles = if out.smoke {
            vec![256]
        } else {
            vec![256, 1024]
        };
    }
    out
}

/// Tall clusters are humans.
struct HeightRule;

impl CloudClassifier for HeightRule {
    fn classify(&mut self, clouds: &[Vec<Point3>]) -> Vec<ClassLabel> {
        clouds
            .iter()
            .map(|c| {
                let hi = c.iter().map(|p| p.z).fold(f64::NEG_INFINITY, f64::max);
                if hi > -1.7 {
                    ClassLabel::Human
                } else {
                    ClassLabel::Object
                }
            })
            .collect()
    }

    fn model_name(&self) -> &str {
        "HeightRule"
    }
}

/// A dense human-ish column at `(x, y)` in a pole's local frame.
fn blob(x: f64, y: f64) -> Vec<Point3> {
    (0..120)
        .map(|i| {
            let layer = i / 10;
            let a = (i % 10) as f64 / 10.0 * std::f64::consts::TAU;
            Point3::new(
                x + 0.12 * a.cos(),
                y + 0.12 * a.sin(),
                -2.6 + 1.3 * (layer as f64 / 11.0),
            )
        })
        .collect()
}

/// The capture pole `i` of `n` sees every frame: its own person, plus
/// the seam people it shares with its neighbours.
fn capture_for(i: usize, n: usize) -> PointCloud {
    let mut pts = blob(14.0, 0.0);
    if i + 1 < n {
        pts.extend(blob(28.0, 0.7)); // seam person shared with pole i+1
    }
    if i > 0 {
        pts.extend(blob(13.0, 0.7)); // the same person, seen from the right
    }
    PointCloud::new(pts)
}

/// A pole agent running the supervised height-rule counter, dialling
/// `hub` over `link`.
fn height_rule_agent(
    pole_id: u32,
    hub: &LoopbackHub,
    link: LoopbackConfig,
    batch: usize,
    telemetry_every: u64,
) -> PoleAgent<HeightRule> {
    let counter = SupervisedCounter::new(
        CrowdCounter::new(
            HeightRule,
            CounterConfig {
                min_cluster_points: 8,
                ..CounterConfig::default()
            },
        ),
        SupervisorConfig {
            deadline_ms: 500.0,
            adaptive: AdaptiveConfig {
                fallback_eps: 0.5,
                min_eps: 0.35,
                ..AdaptiveConfig::default()
            },
            ..SupervisorConfig::default()
        },
    );
    let mut cfg = AgentConfig::for_pole(pole_id);
    cfg.batch_frames = batch;
    cfg.telemetry_every_frames = telemetry_every;
    PoleAgent::new(counter, Box::new(hub.connector(link)), cfg)
}

struct PoleIngest {
    pole_id: u32,
    count: u64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

struct Cell {
    poles: usize,
    loss: f64,
    batch: usize,
    wall_s: f64,
    /// Wall time of just the agent stepping loop (the overhead-arm
    /// comparand — excludes the drain poll, which sleeps in 10 ms
    /// quanta and would swamp a percent-level delta).
    step_wall_s: f64,
    reports: u64,
    sent: u64,
    delivered: u64,
    discards: u64,
    report_delivery: f64,
    throughput_rps: f64,
    occupancy: u32,
    expected: u32,
    occupancy_error: i64,
    live: u32,
    dead: u32,
    telemetry_frames: u64,
    wire_bytes_sent: u64,
    wire_bytes_received: u64,
    ingest_count: u64,
    ingest_p50_ms: f64,
    ingest_p95_ms: f64,
    ingest_p99_ms: f64,
    ingest_poles: Vec<PoleIngest>,
    ops_json: String,
    events_jsonl: String,
    /// `(on - off) / off` stepping overhead, lossless cells only.
    telemetry_overhead: Option<f64>,
}

fn run_cell(
    seed: u64,
    frames: usize,
    poles: usize,
    loss: f64,
    batch: usize,
    telemetry_every: u64,
) -> Cell {
    let registry = PoleRegistry::from_poses(corridor_layout(poles, SPACING_M));
    let hub = LoopbackHub::new();
    let aggregator = Aggregator::new(
        registry,
        WalkwayConfig::default(),
        AggregatorConfig::default(),
    );

    let mut agents: Vec<PoleAgent<HeightRule>> = (0..poles)
        .map(|i| {
            let link =
                LoopbackConfig::lossy(loss, loss / 2.0, seed ^ (i as u64).wrapping_mul(0x9E37));
            height_rule_agent(i as u32, &hub, link, batch, telemetry_every)
        })
        .collect();

    let wire_base = obs::telemetry_snapshot();
    let captures: Vec<PointCloud> = (0..poles).map(|i| capture_for(i, poles)).collect();
    let reactor = aggregator.spawn_reactor();
    let t0 = Instant::now();
    for _ in 0..frames {
        for (agent, capture) in agents.iter_mut().zip(&captures) {
            agent.step(capture);
        }
        while let Ok(server) = hub.accept(Duration::ZERO) {
            aggregator.add_connection(Box::new(server));
        }
    }
    let step_wall_s = t0.elapsed().as_secs_f64();
    while let Ok(server) = hub.accept(Duration::from_millis(5)) {
        aggregator.add_connection(Box::new(server));
    }
    // Let the reactor drain: poll until the ingest counters go quiet.
    // `frames` is a multiple of every batch size, so no agent is
    // sitting on a partial batch.
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    let mut last = u64::MAX;
    loop {
        let stats = aggregator.stats();
        let seen = stats.reports + stats.stale_discards;
        if seen == last || Instant::now() > drain_deadline {
            break;
        }
        last = seen;
        std::thread::sleep(Duration::from_millis(10));
    }
    let wall_s = t0.elapsed().as_secs_f64();

    // Measure before shutdown: Bye marks poles dead and would zero
    // the fused occupancy.
    let snap = aggregator.snapshot();
    let health = aggregator.health();
    let mut events_jsonl = Vec::new();
    let _ = aggregator.export_events_jsonl(&mut events_jsonl);
    for agent in &mut agents {
        agent.shutdown();
    }
    aggregator.stop();
    reactor.join();

    let wire = obs::telemetry_snapshot().delta_since(&wire_base);
    let stats = aggregator.stats();
    let reports: u64 = agents.iter().map(|a| a.stats().reports).sum();
    let sent: u64 = agents.iter().map(|a| a.stats().sent).sum();
    let expected = (2 * poles - 1) as u32;
    let campus = health.campus_ingest.summary();
    let ingest_poles = health
        .poles
        .iter()
        .map(|p| {
            let s = p.ingest.summary();
            PoleIngest {
                pole_id: p.pole_id,
                count: s.count,
                p50_ms: s.p50_ms,
                p95_ms: s.p95_ms,
                p99_ms: s.p99_ms,
            }
        })
        .collect();
    Cell {
        poles,
        loss,
        batch,
        wall_s,
        step_wall_s,
        reports,
        sent,
        delivered: stats.reports,
        discards: stats.stale_discards,
        report_delivery: if reports > 0 {
            (stats.reports + stats.stale_discards) as f64 / reports as f64
        } else {
            0.0
        },
        throughput_rps: if wall_s > 0.0 {
            reports as f64 / wall_s
        } else {
            0.0
        },
        occupancy: snap.occupancy,
        expected,
        occupancy_error: i64::from(snap.occupancy) - i64::from(expected),
        live: snap.live,
        dead: snap.dead,
        telemetry_frames: stats.telemetry,
        wire_bytes_sent: wire.counter("fleet.wire.bytes_sent"),
        wire_bytes_received: wire.counter("fleet.wire.bytes_received"),
        ingest_count: campus.count,
        ingest_p50_ms: campus.p50_ms,
        ingest_p95_ms: campus.p95_ms,
        ingest_p99_ms: campus.p99_ms,
        ingest_poles,
        ops_json: health.to_json(),
        events_jsonl: String::from_utf8_lossy(&events_jsonl).into_owned(),
        telemetry_overhead: None,
    }
}

/// `(on - off) / off` stepping-loop overhead of the telemetry plane
/// on a lossless cell. A throwaway warmup pass primes caches and the
/// allocator, then five (on, off) arm pairs run back to back; the
/// reported overhead is the *minimum paired ratio*. The stepping loop
/// shares the machine with the aggregator's reactor threads, so any
/// single arm can eat a multi-millisecond scheduler excursion; a
/// paired minimum only needs one clean pair to upper-bound the true
/// cost, where comparing pooled minima let one noisy arm poison the
/// whole measurement. Small cells stretch to at least `768 / poles`
/// frames so a percent-level delta resolves above timer noise.
fn measure_overhead(seed: u64, frames: usize, poles: usize, batch: usize) -> (f64, f64, f64) {
    let arm_frames = frames.max(768 / poles.max(1));
    let _ = run_cell(seed, arm_frames, poles, 0.0, batch, TELEMETRY_EVERY);
    let (mut overhead, mut best_on, mut best_off) = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
    for _ in 0..5 {
        let on = run_cell(seed, arm_frames, poles, 0.0, batch, TELEMETRY_EVERY).step_wall_s;
        obs::enable(false);
        let off = run_cell(seed, arm_frames, poles, 0.0, batch, 0).step_wall_s;
        obs::enable(true);
        let ratio = if off > 0.0 {
            ((on - off) / off).max(0.0)
        } else {
            0.0
        };
        if ratio < overhead {
            overhead = ratio;
            best_on = on;
            best_off = off;
        }
    }
    (overhead, best_on, best_off)
}

// ---------------------------------------------------------------------------
// Adversarial arm.

/// A compromised pole's behaviour. Every frame it emits is wire-valid
/// (correct framing, correct CRC) — the damage is semantic, which is
/// exactly the traffic the sentinel exists to catch.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Attack {
    /// Cluster centroids kilometres outside the surveyed campus.
    OutOfBounds,
    /// Capture timestamps from the distant future.
    FutureClock,
    /// One high-water-mark report, then endless replays far below it.
    SeqReplay,
    /// A people count no walkway could physically hold.
    ImplausibleCount,
    /// Semantically clean traffic claiming an honest pole's identity.
    Impersonate,
}

impl Attack {
    fn name(self) -> &'static str {
        match self {
            Attack::OutOfBounds => "out_of_bounds",
            Attack::FutureClock => "future_clock",
            Attack::SeqReplay => "seq_replay",
            Attack::ImplausibleCount => "implausible_count",
            Attack::Impersonate => "impersonate",
        }
    }
}

/// The four scoreable attacks, one per compromised pole.
const ATTACKS: [Attack; 4] = [
    Attack::OutOfBounds,
    Attack::FutureClock,
    Attack::SeqReplay,
    Attack::ImplausibleCount,
];

fn crafted_report(pole_id: u32, seq: u64, attack: Attack) -> PoleReport {
    let mut report = PoleReport {
        pole_id,
        seq,
        timestamp_ms: seq * 100,
        count: 1,
        health: HealthState::Healthy,
        eps_rung: EpsRung::Fixed,
        precision: PrecisionRung::Fp32,
        held: false,
        stale_frames: 0,
        age_ms: 100.0,
        pole_temp_c: None,
        capture_ms: None,
        clusters: vec![ClusterObservation {
            centroid: Point3::new(14.0, 0.0, -1.2),
            points: 100,
            confidence: 0.9,
        }],
    };
    match attack {
        Attack::OutOfBounds => {
            report.clusters[0].centroid = Point3::new(40_000.0, -3_000.0, -1.2);
        }
        Attack::FutureClock => {
            report.capture_ms = Some(4.0e12);
        }
        Attack::SeqReplay => {
            report.seq = if seq == 1 { 1_000 } else { 1 };
        }
        Attack::ImplausibleCount => {
            report.count = 1_000_000;
            report.clusters.clear();
        }
        Attack::Impersonate => {}
    }
    report
}

/// A compromised pole: dials the hub like a real agent, speaks the
/// real wire protocol, and feeds the aggregator crafted garbage. When
/// the sentinel bans it and drops the connection, it tries exactly one
/// redial — which the ban cooldown must reject — then goes quiet.
struct Malicious {
    pole_id: u32,
    attack: Attack,
    connector: Box<dyn Connector>,
    client: Option<Box<dyn Transport>>,
    seq: u64,
    sent_reports: u64,
    reconnects: u64,
    dead: bool,
}

impl Malicious {
    fn new(pole_id: u32, attack: Attack, hub: &LoopbackHub) -> Self {
        Malicious {
            pole_id,
            attack,
            connector: Box::new(hub.connector(LoopbackConfig::reliable())),
            client: None,
            seq: 0,
            sent_reports: 0,
            reconnects: 0,
            dead: false,
        }
    }

    fn step(&mut self) {
        if self.dead {
            return;
        }
        if self.client.is_none() {
            match self.connector.connect() {
                Ok(mut c) => {
                    let _ = c.send(&encode(&Message::Hello {
                        pole_id: self.pole_id,
                    }));
                    self.client = Some(c);
                }
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
        self.seq += 1;
        let frame = encode(&Message::Report(crafted_report(
            self.pole_id,
            self.seq,
            self.attack,
        )));
        match self.client.as_mut().expect("connected").send(&frame) {
            Ok(()) => self.sent_reports += 1,
            Err(_) => {
                // The aggregator dropped us. One redial to probe the
                // ban cooldown, then stay down.
                self.client = None;
                if self.reconnects >= 1 {
                    self.dead = true;
                } else {
                    self.reconnects += 1;
                }
            }
        }
    }
}

struct ArmOut {
    occupancy: u32,
    live: u32,
    dead: u32,
    snapshot_quarantined: u32,
    honest_all_trusted: bool,
    flagged_total: u32,
    flagged_malicious: u32,
    mal_fused: u64,
    mal_quarantined: u64,
    mal_rejected: u64,
    mal_sent: u64,
    ban_rejects: u64,
    conflicts: u64,
    frames_torn: u64,
    frames_stalled: u64,
}

/// One survivability arm: `honest` real agents on adversarial links
/// (frame tearing, mid-frame stalls, mild reorder — no loss, so fused
/// occupancy is exactly comparable), plus one compromised pole per
/// entry of `attacks`, plus optionally a mid-run impersonator dialling
/// in as honest pole 0. With `attacks` empty and no impersonation this
/// is the clean control arm that sets the occupancy envelope.
fn run_arm(
    seed: u64,
    frames: usize,
    honest: usize,
    attacks: &[Attack],
    impersonate: bool,
) -> ArmOut {
    let total = honest + attacks.len();
    let registry = PoleRegistry::from_poses(corridor_layout(total, SPACING_M));
    let hub = LoopbackHub::new();
    let aggregator = Aggregator::new(
        registry,
        WalkwayConfig::default(),
        AggregatorConfig::default(),
    );
    let base = obs::telemetry_snapshot();

    let adversarial_links = !attacks.is_empty();
    let mut agents: Vec<PoleAgent<HeightRule>> = (0..honest)
        .map(|i| {
            let link_seed = seed ^ (i as u64).wrapping_mul(0x9E37);
            let link = if adversarial_links {
                LoopbackConfig::adversarial(0.0, 0.1, 0.4, 0.4, link_seed)
            } else {
                LoopbackConfig::reliable()
            };
            height_rule_agent(i as u32, &hub, link, 1, TELEMETRY_EVERY)
        })
        .collect();
    let mut mals: Vec<Malicious> = attacks
        .iter()
        .enumerate()
        .map(|(k, &a)| Malicious::new((honest + k) as u32, a, &hub))
        .collect();

    // The honest sub-corridor is self-contained: seam people exist
    // only between honest neighbours, so the clean fused occupancy is
    // exactly `2 * honest - 1` and independent of the malicious poles.
    let captures: Vec<PointCloud> = (0..honest).map(|i| capture_for(i, honest)).collect();
    let reactor = aggregator.spawn_reactor();
    let mut impersonated = false;
    for fi in 0..frames {
        for (agent, capture) in agents.iter_mut().zip(&captures) {
            agent.step(capture);
        }
        for m in &mut mals {
            m.step();
        }
        while let Ok(server) = hub.accept(Duration::ZERO) {
            aggregator.add_connection(Box::new(server));
        }
        if impersonate && !impersonated && fi >= frames / 2 {
            // Wait until honest pole 0's own connection owns its slot,
            // then dial in claiming the same identity. Every frame must
            // bounce off the connection-conflict check without touching
            // pole 0's trust score.
            let deadline = Instant::now() + Duration::from_secs(2);
            while Instant::now() < deadline {
                let owned = aggregator
                    .snapshot()
                    .poles
                    .iter()
                    .any(|p| p.pole_id == 0 && p.seq > 0);
                if owned {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            let mut connector = hub.connector(LoopbackConfig::reliable());
            if let Ok(mut c) = connector.connect() {
                let _ = c.send(&encode(&Message::Hello { pole_id: 0 }));
                for k in 0..6u64 {
                    let report = crafted_report(0, 1_000_000 + k, Attack::Impersonate);
                    let _ = c.send(&encode(&Message::Report(report)));
                }
                c.close();
            }
            impersonated = true;
        }
    }
    while let Ok(server) = hub.accept(Duration::from_millis(5)) {
        aggregator.add_connection(Box::new(server));
    }
    let drain_deadline = Instant::now() + Duration::from_secs(2);
    let mut last = u64::MAX;
    loop {
        let stats = aggregator.stats();
        let seen = stats.reports + stats.stale_discards + stats.rejected + stats.quarantined;
        if seen == last || Instant::now() > drain_deadline {
            break;
        }
        last = seen;
        std::thread::sleep(Duration::from_millis(10));
    }

    let snap = aggregator.snapshot();
    let trust = aggregator.trust();
    for agent in &mut agents {
        agent.shutdown();
    }
    aggregator.stop();
    reactor.join();
    let delta = obs::telemetry_snapshot().delta_since(&base);

    let honest_all_trusted = trust
        .iter()
        .filter(|t| (t.pole_id as usize) < honest)
        .all(|t| t.state == TrustState::Trusted);
    let flagged: Vec<_> = trust
        .iter()
        .filter(|t| t.state >= TrustState::Quarantined)
        .collect();
    let flagged_malicious = flagged
        .iter()
        .filter(|t| (t.pole_id as usize) >= honest)
        .count() as u32;
    let mal: Vec<_> = trust
        .iter()
        .filter(|t| (t.pole_id as usize) >= honest)
        .collect();
    ArmOut {
        occupancy: snap.occupancy,
        live: snap.live,
        dead: snap.dead,
        snapshot_quarantined: snap.quarantined,
        honest_all_trusted,
        flagged_total: flagged.len() as u32,
        flagged_malicious,
        mal_fused: mal.iter().map(|t| t.fused).sum(),
        mal_quarantined: mal.iter().map(|t| t.quarantined).sum(),
        mal_rejected: mal.iter().map(|t| t.rejected).sum(),
        mal_sent: mals.iter().map(|m| m.sent_reports).sum(),
        ban_rejects: delta.counter("fleet.agg.ban_rejects"),
        conflicts: delta.counter("fleet.sentinel.conflicts"),
        frames_torn: delta.counter("fleet.loopback.frames_torn"),
        frames_stalled: delta.counter("fleet.loopback.frames_stalled"),
    }
}

// ---------------------------------------------------------------------------
// Ingest arm: the reactor ingest plane on its own, fed pre-encoded
// frames so frame decode + sentinel + fusion are the only work in the
// lane, with replay of the reactor's own capture as the determinism
// oracle.

/// A corridor-truth report for pole `pole_id` of `n`: its own person
/// plus the seam people shared with each neighbour, so the fused
/// campus holds exactly `2n - 1` people.
fn ingest_report(pole_id: u32, seq: u64, n: usize, capture_ms: Option<f64>) -> Message {
    let mut clusters = vec![(14.0, 0.0)];
    if (pole_id as usize) + 1 < n {
        clusters.push((28.0, 0.7));
    }
    if pole_id > 0 {
        clusters.push((13.0, 0.7));
    }
    Message::Report(PoleReport {
        pole_id,
        seq,
        timestamp_ms: seq * 100,
        count: u32::try_from(clusters.len()).unwrap_or(u32::MAX),
        health: HealthState::Healthy,
        eps_rung: EpsRung::Fixed,
        precision: PrecisionRung::Fp32,
        held: false,
        stale_frames: 0,
        age_ms: 0.0,
        pole_temp_c: None,
        capture_ms,
        clusters: clusters
            .iter()
            .map(|&(x, y)| ClusterObservation {
                centroid: Point3::new(x, y, -1.2),
                points: 60,
                confidence: 0.9,
            })
            .collect(),
    })
}

/// Dials one reliable loopback connection per pole, each opening
/// with its pole's `Hello`.
fn dial(hub: &LoopbackHub, poles: usize) -> Vec<Box<dyn Transport>> {
    (0..poles as u32)
        .map(|pole_id| {
            let mut c = hub
                .connector(LoopbackConfig::reliable())
                .connect()
                .expect("loopback dial");
            c.send(&encode(&Message::Hello { pole_id })).expect("hello");
            c
        })
        .collect()
}

/// Feeds a pre-loaded stream through a capturing reactor with
/// `workers` fusion workers on a pinned manual clock. Returns the
/// fused snapshot and whether it is bit-identical to a single-core
/// replay of the reactor's own capture.
fn ingest_deterministic(
    poles: usize,
    reports: u64,
    workers: usize,
) -> (fleet::CampusSnapshot, bool) {
    let clock = ManualClock::new();
    let registry = PoleRegistry::from_poses(corridor_layout(poles, SPACING_M));
    let cfg = AggregatorConfig {
        reactor_workers: workers,
        ..Default::default()
    };
    let (writer, captured) = CaptureWriter::in_memory();
    let aggregator = Aggregator::with_clock(
        registry.clone(),
        WalkwayConfig::default(),
        cfg,
        clock.handle(),
    )
    .with_capture(writer);
    let hub = LoopbackHub::new();
    let mut clients = dial(&hub, poles);
    for seq in 1..=reports {
        for (i, c) in clients.iter_mut().enumerate() {
            c.send(&encode(&ingest_report(i as u32, seq, poles, None)))
                .expect("report");
        }
    }
    for c in &mut clients {
        c.close();
    }
    let handle = aggregator.spawn_reactor();
    let mut adopted = 0;
    while let Ok(server) = hub.accept(Duration::ZERO) {
        aggregator.add_connection(Box::new(server));
        adopted += 1;
    }
    assert_eq!(adopted, poles, "every pole dialled in");
    // The reactor's shutdown path drains every adopted connection
    // before the workers retire and then flushes the capture, so join
    // is the drain barrier.
    aggregator.stop();
    handle.join();
    let live = aggregator.snapshot();
    let records = read_capture(&captured.lock()).expect("own capture parses");
    let replayed = replay(
        &records,
        registry,
        WalkwayConfig::default(),
        FusionConfig::default(),
        1,
        Duration::ZERO,
    );
    let identical = replayed.last().map(|r| r.to_json()) == Some(live.to_json());
    (live, identical)
}

struct IngestCell {
    poles: usize,
    sent: u64,
    fused: u64,
    shed: u64,
    wall_s: f64,
    throughput_rps: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    occupancy: u32,
    expected: u32,
    bit_identical: Option<bool>,
}

/// Firehoses `reports` live-stamped reports per pole through the
/// reactor and measures wall-to-fused throughput plus the campus
/// capture→fuse latency histogram.
fn ingest_perf(poles: usize, reports: u64) -> IngestCell {
    let registry = PoleRegistry::from_poses(corridor_layout(poles, SPACING_M));
    let aggregator = Aggregator::new(
        registry,
        WalkwayConfig::default(),
        AggregatorConfig::default(),
    );
    let hub = LoopbackHub::new();
    let base = obs::telemetry_snapshot();
    let clients = dial(&hub, poles);
    let handle = aggregator.spawn_reactor();
    while let Ok(server) = hub.accept(Duration::ZERO) {
        aggregator.add_connection(Box::new(server));
    }
    // Up to 8 sender threads, each encoding its poles' reports on the
    // fly with a live capture stamp (SystemClock shares one process
    // epoch, so sender stamps and the aggregator's fuse clock agree).
    let t0 = Instant::now();
    let nsenders = 8.min(poles.max(1));
    let mut chunks: Vec<Vec<(u32, Box<dyn Transport>)>> =
        (0..nsenders).map(|_| Vec::new()).collect();
    for (i, c) in clients.into_iter().enumerate() {
        chunks[i % nsenders].push((i as u32, c));
    }
    let senders: Vec<_> = chunks
        .into_iter()
        .map(|mut chunk| {
            std::thread::spawn(move || {
                for seq in 1..=reports {
                    for (pole, c) in &mut chunk {
                        let now_ms = SystemClock.now().as_secs_f64() * 1e3;
                        let _ = c.send(&encode(&ingest_report(*pole, seq, poles, Some(now_ms))));
                    }
                }
                for (_, c) in &mut chunk {
                    c.close();
                }
            })
        })
        .collect();
    for s in senders {
        let _ = s.join();
    }
    // Drain barrier, as in the determinism arm: reactor shutdown +
    // join.
    aggregator.stop();
    handle.join();
    let wall_s = t0.elapsed().as_secs_f64();
    let snap = aggregator.snapshot();
    let campus = aggregator.health().campus_ingest.summary();
    let delta = obs::telemetry_snapshot().delta_since(&base);
    let stats = aggregator.stats();
    IngestCell {
        poles,
        sent: poles as u64 * reports,
        fused: stats.reports,
        shed: delta.counter("fleet.agg.inflight_dropped"),
        wall_s,
        throughput_rps: if wall_s > 0.0 {
            stats.reports as f64 / wall_s
        } else {
            0.0
        },
        p50_ms: campus.p50_ms,
        p95_ms: campus.p95_ms,
        p99_ms: campus.p99_ms,
        occupancy: snap.occupancy,
        expected: (2 * poles - 1) as u32,
        bit_identical: None,
    }
}

/// Total user + system CPU ticks this process has burned, from
/// `/proc/self/stat` (fields 14 and 15, at USER_HZ granularity).
fn cpu_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/self/stat").ok()?;
    // The comm field can hold spaces and parens; everything after the
    // last ')' is whitespace-delimited.
    let rest = stat.rsplit(')').next()?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some(utime + stime)
}

/// Parks a live reactor — accept loop listening on TCP, one silent
/// connected client, zero traffic — and reports the fraction of one
/// core the whole process burned over the window. A readiness-driven
/// reactor should sit in poll(2) and cost ~nothing; a busy-spin
/// regression shows up as a fraction near or above 1.0.
fn measure_idle_cpu() -> Option<f64> {
    let registry = PoleRegistry::from_poses(corridor_layout(4, SPACING_M));
    let aggregator = Aggregator::new(
        registry,
        WalkwayConfig::default(),
        AggregatorConfig::default(),
    );
    let handle = aggregator.spawn_reactor();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
    let addr = listener.local_addr().ok()?;
    let serve = aggregator.serve_tcp(listener);
    let stream = std::net::TcpStream::connect(addr).ok()?;
    // Let the accept land and the fd settle into the poll set before
    // the measured window opens.
    std::thread::sleep(Duration::from_millis(100));
    let ticks0 = cpu_ticks()?;
    let w0 = Instant::now();
    std::thread::sleep(Duration::from_millis(600));
    let burned_s = (cpu_ticks()?.saturating_sub(ticks0)) as f64 / 100.0;
    let frac = burned_s / w0.elapsed().as_secs_f64();
    drop(stream);
    aggregator.stop();
    handle.join();
    let _ = serve.join();
    Some(frac)
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".into()
    }
}

fn main() {
    let args = parse_args();
    obs::enable(true);
    // Count every panic anywhere in the process — a reactor thread that
    // dies on hostile input must fail the adversarial gate even though
    // `join` would surface it only as a closed connection.
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        PANICS.fetch_add(1, Ordering::SeqCst);
        default_hook(info);
    }));

    let pole_counts: &[usize] = if args.ingest_only {
        &[]
    } else if args.smoke {
        &[2, 4]
    } else {
        &[2, 8, 16]
    };
    let losses: &[f64] = if args.smoke {
        &[0.0, 0.2]
    } else {
        &[0.0, 0.1, 0.3]
    };
    let batches: &[usize] = &[1, 4];

    println!("fleet soak: {} frames per pole per cell\n", args.frames);
    println!(
        " poles | loss | batch |   wall s | reports |  deliv% | occ (exp) | rps     | ingest p99"
    );

    let mut cells = Vec::new();
    let mut failures = 0u32;
    for &poles in pole_counts {
        for &loss in losses {
            for &batch in batches {
                let mut cell =
                    run_cell(args.seed, args.frames, poles, loss, batch, TELEMETRY_EVERY);
                println!(
                    "{:>6} | {:>4.2} | {:>5} | {:>8.3} | {:>7} | {:>6.1}% | {:>4} ({:>3}) | {:>7.0} | {:>7.2} ms",
                    cell.poles,
                    cell.loss,
                    cell.batch,
                    cell.wall_s,
                    cell.reports,
                    cell.report_delivery * 100.0,
                    cell.occupancy,
                    cell.expected,
                    cell.throughput_rps,
                    cell.ingest_p99_ms,
                );
                // A lossless link must deliver every report, fuse the
                // exact constructed campus, keep every pole live, and
                // trace every delivered report end to end.
                if loss == 0.0
                    && (cell.report_delivery < 1.0 - 1e-9
                        || cell.occupancy_error != 0
                        || cell.dead != 0
                        || cell.ingest_count != cell.delivered)
                {
                    eprintln!("  ^ FAIL: lossless cell dropped reports, mis-fused, or lost traces");
                    failures += 1;
                }
                // Lossless cells also carry the telemetry-overhead
                // comparison: stepping time with the plane on vs
                // fully off (no cadence, obs disabled). A reading
                // over the gate earns one re-measure before counting
                // as a failure — a false positive then needs every
                // arm pair of both rounds noisy the same way.
                if loss == 0.0 {
                    let (mut overhead, mut on_s, mut off_s) =
                        measure_overhead(args.seed, args.frames, poles, batch);
                    if overhead > OVERHEAD_GATE {
                        (overhead, on_s, off_s) =
                            measure_overhead(args.seed, args.frames, poles, batch);
                    }
                    cell.telemetry_overhead = Some(overhead);
                    println!(
                        "       | telemetry overhead: {:+.2}% (on {:.3} s, off {:.3} s)",
                        overhead * 100.0,
                        on_s,
                        off_s
                    );
                    if overhead > OVERHEAD_GATE {
                        eprintln!(
                            "  ^ FAIL: telemetry overhead {:.1}% exceeds the {:.0}% gate",
                            overhead * 100.0,
                            OVERHEAD_GATE * 100.0
                        );
                        failures += 1;
                    }
                }
                cells.push(cell);
            }
        }
    }

    // ------------------------------------------------------------------
    // Adversarial arm: clean control first (sets the occupancy
    // envelope), then the same honest campus under attack. Skipped
    // under --ingest-only, which exists so CI can gate the reactor
    // path without paying for the full soak.
    let mut adv_json = String::new();
    if !args.ingest_only {
        let adv_honest = if args.smoke { 3 } else { 5 };
        let adv_frames = args.frames.max(24);
        println!("\nadversarial arm: {adv_honest} honest poles, {} attackers + impersonator, {adv_frames} frames", ATTACKS.len());
        let clean = run_arm(args.seed, adv_frames, adv_honest, &[], false);
        reset_peak();
        let panics_before = PANICS.load(Ordering::SeqCst);
        let adv = run_arm(args.seed, adv_frames, adv_honest, &ATTACKS, true);
        let peak_bytes = PEAK_BYTES.load(Ordering::Relaxed);
        let panics = PANICS.load(Ordering::SeqCst) - panics_before;

        let mal_ingested = adv.mal_fused + adv.mal_quarantined + adv.mal_rejected;
        let containment = if mal_ingested > 0 {
            (adv.mal_quarantined + adv.mal_rejected) as f64 / mal_ingested as f64
        } else {
            0.0
        };
        let recall = adv.flagged_malicious as f64 / ATTACKS.len() as f64;
        let precision = if adv.flagged_total > 0 {
            adv.flagged_malicious as f64 / adv.flagged_total as f64
        } else {
            0.0
        };
        println!(
            "  occupancy {} (clean {}), honest trusted: {}, quarantined poles: {}",
            adv.occupancy, clean.occupancy, adv.honest_all_trusted, adv.snapshot_quarantined
        );
        println!(
        "  recall {recall:.2}, precision {precision:.2}, containment {containment:.2} ({}/{} malicious frames), ban rejects {}, conflicts {}",
        adv.mal_quarantined + adv.mal_rejected,
        mal_ingested,
        adv.ban_rejects,
        adv.conflicts
    );
        println!(
            "  links: {} frames torn, {} stalled; peak live heap {:.1} MiB; panics {}",
            adv.frames_torn,
            adv.frames_stalled,
            peak_bytes as f64 / (1 << 20) as f64,
            panics
        );
        let mut gate = |ok: bool, what: &str| {
            if !ok {
                eprintln!("  ^ FAIL: adversarial gate: {what}");
                failures += 1;
            }
        };
        gate(panics == 0, "panicked under hostile input");
        gate(
            peak_bytes <= ADVERSARIAL_ALLOC_CEILING,
            "peak live heap exceeded the ceiling",
        );
        gate(
            adv.occupancy == clean.occupancy,
            "honest fused occupancy left the clean-run envelope",
        );
        gate(adv.honest_all_trusted, "an honest pole lost Trusted");
        gate(
            precision >= 1.0 - 1e-9 && adv.flagged_total > 0,
            "a flagged pole was not malicious (precision < 1)",
        );
        gate(recall >= RECALL_GATE, "malicious poles escaped quarantine");
        gate(
            containment >= CONTAINMENT_GATE,
            "too many malicious frames reached fusion",
        );
        gate(adv.ban_rejects >= 1, "banned reconnect was not rejected");
        gate(adv.conflicts >= 1, "impersonator raised no conflicts");
        gate(
            adv.frames_torn > 0 && adv.frames_stalled > 0,
            "adversarial link faults never fired",
        );
        let mut attacks_json = String::new();
        for (i, a) in ATTACKS.iter().enumerate() {
            let _ = write!(
                attacks_json,
                "{}\"{}\"",
                if i > 0 { ", " } else { "" },
                a.name()
            );
        }
        let _ = writeln!(
        adv_json,
        "  \"adversarial\": {{\"honest\": {}, \"malicious\": {}, \"attacks\": [{}], \"frames_per_pole\": {}, \"clean_occupancy\": {}, \"occupancy\": {}, \"honest_all_trusted\": {}, \"snapshot_quarantined\": {}, \"live\": {}, \"dead\": {}, \"quarantine_recall\": {}, \"quarantine_precision\": {}, \"containment\": {}, \"malicious_frames\": {{\"sent\": {}, \"fused\": {}, \"quarantined\": {}, \"rejected\": {}}}, \"ban_rejects\": {}, \"impersonation_conflicts\": {}, \"frames_torn\": {}, \"frames_stalled\": {}, \"panics\": {}, \"peak_alloc_bytes\": {}, \"alloc_ceiling_bytes\": {}}},",
        adv_honest,
        ATTACKS.len(),
        attacks_json,
        adv_frames,
        clean.occupancy,
        adv.occupancy,
        adv.honest_all_trusted,
        adv.snapshot_quarantined,
        adv.live,
        adv.dead,
        json_f64(recall),
        json_f64(precision),
        json_f64(containment),
        adv.mal_sent,
        adv.mal_fused,
        adv.mal_quarantined,
        adv.mal_rejected,
        adv.ban_rejects,
        adv.conflicts,
        adv.frames_torn,
        adv.frames_stalled,
        panics,
        peak_bytes,
        ADVERSARIAL_ALLOC_CEILING
    );
    }

    // ------------------------------------------------------------------
    // Ingest arm: the event-driven reactor on pre-encoded frames, so
    // the counting pipeline stays out of the lane. Determinism cells
    // pin a manual clock and bit-compare the fused snapshot with a
    // replay of the reactor's own capture; perf cells firehose
    // live-stamped reports for throughput and capture→fuse latency.
    let det_reports: u64 = if args.smoke { 8 } else { 16 };
    let perf_reports: u64 = if args.smoke { 40 } else { 100 };
    println!(
        "\ningest arm: poles {:?}, {det_reports} determinism + {perf_reports} perf reports per pole",
        args.ingest_poles
    );
    let mut ingest_cells: Vec<IngestCell> = Vec::new();
    for &poles in &args.ingest_poles {
        let truth = (2 * poles - 1) as u32;
        let (mut identical, mut exact) = (true, true);
        for workers in [1usize, 4] {
            let (snap, ok) = ingest_deterministic(poles, det_reports, workers);
            identical &= ok;
            exact &= snap.occupancy == truth;
            println!(
                "  {poles} poles, reactor w{workers}: occupancy {} ({truth}), bit-identical to its capture's replay: {ok}",
                snap.occupancy
            );
        }
        if !identical || !exact {
            eprintln!("  ^ FAIL: ingest determinism at {poles} poles");
            failures += 1;
        }
        let mut cell = ingest_perf(poles, perf_reports);
        cell.bit_identical = Some(identical);
        println!(
            "  {:>5} poles | reactor   | {:>7.3} s | {:>8.0} rps | shed {:>6} | p99 {:>7.2} ms | occ {} ({})",
            cell.poles,
            cell.wall_s,
            cell.throughput_rps,
            cell.shed,
            cell.p99_ms,
            cell.occupancy,
            cell.expected,
        );
        if cell.occupancy != cell.expected {
            eprintln!("  ^ FAIL: ingest perf cell mis-fused the campus");
            failures += 1;
        }
        if cell.poles == 256 && cell.throughput_rps < 10_000.0 {
            eprintln!(
                "  ^ FAIL: reactor ingest {:.0} rps at 256 poles is below the 10k gate",
                cell.throughput_rps
            );
            failures += 1;
        }
        ingest_cells.push(cell);
    }
    let idle_cpu = measure_idle_cpu();
    match idle_cpu {
        Some(frac) => {
            println!(
                "  idle reactor CPU: {:.1}% of one core over the parked window",
                frac * 100.0
            );
            if frac > 0.15 {
                eprintln!(
                    "  ^ FAIL: parked reactor burned {:.0}% CPU — busy-spin regression",
                    frac * 100.0
                );
                failures += 1;
            }
        }
        None => println!("  idle reactor CPU: /proc/self/stat unreadable, gate skipped"),
    }
    let mut ingest_json = String::new();
    let _ = writeln!(
        ingest_json,
        "  \"ingest\": {{\"determinism_reports_per_pole\": {det_reports}, \"perf_reports_per_pole\": {perf_reports}, \"idle_cpu_frac\": {}, \"cells\": [",
        idle_cpu.map_or("null".to_string(), json_f64)
    );
    for (i, c) in ingest_cells.iter().enumerate() {
        let _ = writeln!(
            ingest_json,
            "    {{\"poles\": {}, \"path\": \"reactor\", \"sent\": {}, \"fused\": {}, \"shed\": {}, \"wall_s\": {}, \"throughput_rps\": {}, \"ingest\": {{\"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}, \"occupancy\": {}, \"expected\": {}, \"bit_identical\": {}}}{}",
            c.poles,
            c.sent,
            c.fused,
            c.shed,
            json_f64(c.wall_s),
            json_f64(c.throughput_rps),
            json_f64(c.p50_ms),
            json_f64(c.p95_ms),
            json_f64(c.p99_ms),
            c.occupancy,
            c.expected,
            c.bit_identical
                .map_or("null".to_string(), |b| b.to_string()),
            if i + 1 < ingest_cells.len() { "," } else { "" },
        );
    }
    let _ = writeln!(ingest_json, "  ]}},");

    // The ops artifact: one health-scoreboard JSONL line per cell,
    // then the final cell's event journal.
    let mut ops = String::new();
    for c in &cells {
        ops.push_str(&c.ops_json);
        ops.push('\n');
    }
    if let Some(last) = cells.last() {
        ops.push_str(&last.events_jsonl);
    }
    std::fs::write(&args.ops_out, ops).expect("write BENCH_fleet_ops.jsonl");

    let mut json = String::new();
    let _ = write!(
        json,
        "{{\n  \"bench\": \"fleet_soak\",\n  \"seed\": {},\n  \"frames_per_pole\": {},\n  \"smoke\": {},\n  \"telemetry_every_frames\": {},\n",
        args.seed, args.frames, args.smoke, TELEMETRY_EVERY
    );
    json.push_str(&adv_json);
    json.push_str(&ingest_json);
    let _ = writeln!(json, "  \"cells\": [");
    for (i, c) in cells.iter().enumerate() {
        let mut poles_json = String::new();
        for (j, p) in c.ingest_poles.iter().enumerate() {
            let _ = write!(
                poles_json,
                "{}{{\"pole_id\": {}, \"count\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}",
                if j > 0 { ", " } else { "" },
                p.pole_id,
                p.count,
                json_f64(p.p50_ms),
                json_f64(p.p95_ms),
                json_f64(p.p99_ms),
            );
        }
        let overhead = c.telemetry_overhead.map_or("null".to_string(), json_f64);
        let _ = writeln!(
            json,
            "    {{\"poles\": {}, \"loss\": {}, \"batch\": {}, \"wall_s\": {}, \"step_wall_s\": {}, \"reports\": {}, \"sent\": {}, \"delivered\": {}, \"discards\": {}, \"report_delivery\": {}, \"throughput_rps\": {}, \"occupancy\": {}, \"expected\": {}, \"occupancy_error\": {}, \"live\": {}, \"dead\": {}, \"telemetry_frames\": {}, \"wire_bytes_sent\": {}, \"wire_bytes_received\": {}, \"telemetry_overhead\": {}, \"ingest\": {{\"count\": {}, \"p50_ms\": {}, \"p95_ms\": {}, \"p99_ms\": {}}}, \"ingest_poles\": [{}]}}{}",
            c.poles,
            json_f64(c.loss),
            c.batch,
            json_f64(c.wall_s),
            json_f64(c.step_wall_s),
            c.reports,
            c.sent,
            c.delivered,
            c.discards,
            json_f64(c.report_delivery),
            json_f64(c.throughput_rps),
            c.occupancy,
            c.expected,
            c.occupancy_error,
            c.live,
            c.dead,
            c.telemetry_frames,
            c.wire_bytes_sent,
            c.wire_bytes_received,
            overhead,
            c.ingest_count,
            json_f64(c.ingest_p50_ms),
            json_f64(c.ingest_p95_ms),
            json_f64(c.ingest_p99_ms),
            poles_json,
            if i + 1 < cells.len() { "," } else { "" },
        );
    }
    let _ = write!(json, "  ]\n}}\n");
    std::fs::write(&args.out, json).expect("write BENCH_fleet.json");
    println!("\nwrote {}", args.out.display());
    println!("wrote {}", args.ops_out.display());
    if failures > 0 {
        eprintln!("{failures} gates failed their invariants");
        std::process::exit(1);
    }
}
