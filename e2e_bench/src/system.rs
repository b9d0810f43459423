//! Standing the system up and taking it down.
//!
//! Everything here is *set-up*: training and quantizing HAWC at a
//! fixed configuration, building pole agents (or wire-only poles), the
//! aggregator with its reactor, the `serve` tier, and the two dashboard
//! connections. `setup_s` times exactly this, never input generation.

use std::net::{SocketAddr, TcpListener};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

use bench::{HarnessArgs, Workbench};
use cluster::AdaptiveConfig;
use counting::{CounterConfig, CrowdCounter, SupervisedCounter, SupervisorConfig};
use fleet::{
    encode, AgentConfig, Aggregator, AggregatorConfig, CaptureWriter, LoopbackConfig, LoopbackHub,
    Message, PoleAgent, PublishHook, ReactorHandle, SnapshotCell, Transport,
};
use hawc::QuantizedHawc;
use lidar::PointCloud;
use serve::{HttpServer, ServeConfig};
use world::{corridor_layout, PoleRegistry, WalkwayConfig};

use crate::http::Client;

/// Poles stand every 15 m down one corridor, so neighbours overlap.
pub const SPACING_M: f64 = 15.0;

/// A counting pole: int8 HAWC on the steady-state rung.
pub type Agent = PoleAgent<QuantizedHawc, QuantizedHawc>;

/// One publish as the benchmark's hook saw it.
pub struct Epoch {
    /// Publish epoch (the `ETag` readers see).
    pub epoch: u64,
    /// When the hook ran.
    pub at: Instant,
    /// Last fused report seq per pole id.
    pub seqs: Vec<u64>,
    /// Fused people in the snapshot.
    pub people: usize,
}

/// Records every publish with the per-pole seqs it contains: the map
/// from an `ETag` a reader receives to which reports it reflects.
pub struct EpochLog {
    cell: Weak<SnapshotCell>,
    poles: usize,
    /// Every publish, in epoch order.
    pub epochs: Mutex<Vec<Epoch>>,
}

impl PublishHook for EpochLog {
    fn on_publish(&self, epoch: u64) {
        let at = Instant::now();
        let Some(cell) = self.cell.upgrade() else {
            return;
        };
        let (seen, snap) = cell.read_versioned();
        let mut seqs = vec![0; self.poles];
        for p in &snap.poles {
            if let Some(s) = seqs.get_mut(p.pole_id as usize) {
                *s = p.seq;
            }
        }
        self.epochs.lock().expect("epoch log poisoned").push(Epoch {
            epoch: seen.max(epoch),
            at,
            seqs,
            people: snap.people.len(),
        });
    }
}

/// The pole side of a workload.
pub enum Poles {
    /// Counting poles stepping real captures.
    Agents(Vec<Agent>),
    /// Wire-only poles sending pre-built reports.
    Wire(Vec<Box<dyn Transport>>),
}

/// A running system.
pub struct System {
    pub registry: PoleRegistry,
    pub aggregator: Aggregator,
    pub reactor: Option<ReactorHandle>,
    pub server: HttpServer,
    pub log: Arc<EpochLog>,
    pub poles: Poles,
    /// Dashboard connections: `/delta` long-poll, then reads.
    pub clients: Option<(Client, Client)>,
    /// The wire capture (counting workloads only).
    pub capture: Option<Arc<parking_lot::Mutex<Vec<u8>>>>,
}

/// Which pole side to build.
pub enum PoleKind<'a> {
    /// Counting agents; each warms up on its first capture.
    Counting(&'a [PointCloud]),
    /// `n` wire-only poles.
    Wire(usize),
}

/// The supervised-counter config of `examples/campus.rs`: far-range
/// humans fragment under the tiny degenerate-case fallback ε, so the
/// adaptive ε is clamped into the usable band around 0.5.
fn supervisor_config() -> SupervisorConfig {
    SupervisorConfig {
        deadline_ms: 500.0,
        adaptive: AdaptiveConfig {
            fallback_eps: 0.5,
            min_eps: 0.35,
            ..AdaptiveConfig::default()
        },
        ..SupervisorConfig::default()
    }
}

fn counters(n: usize) -> Vec<SupervisedCounter<QuantizedHawc, QuantizedHawc>> {
    // A fixed, small training config: the model is part of set-up and
    // must not depend on the workload seed. `no_cache` keeps set-up
    // from depending on a dataset cache left by an earlier run.
    let bench = Workbench::prepare(HarnessArgs {
        samples: 160,
        counting_samples: 0,
        seed: 42,
        epochs: 4,
        no_cache: true,
        telemetry: None,
    });
    let model = bench.train_hawc();
    let quantize = || {
        model
            .quantize(&bench.detection.train, 100)
            .expect("quantizing the trained HAWC")
    };
    let cfg = CounterConfig {
        min_cluster_points: 8,
        classify_threads: 1,
        ..CounterConfig::default()
    };
    (0..n)
        .map(|_| {
            // Int8 is the steady-state rung; the primary slot holds a
            // second int8 copy because the fp32 reference never runs.
            SupervisedCounter::new(CrowdCounter::new(quantize(), cfg), supervisor_config())
                .with_int8(CrowdCounter::new(quantize(), cfg))
        })
        .collect()
}

/// Builds and starts the whole system.
pub fn setup(kind: PoleKind<'_>) -> System {
    let walkway = WalkwayConfig::default();
    let n = match kind {
        PoleKind::Counting(first) => first.len(),
        PoleKind::Wire(n) => n,
    };
    let registry = PoleRegistry::from_poses(corridor_layout(n, SPACING_M));
    let mut aggregator = Aggregator::new(registry.clone(), walkway, AggregatorConfig::default());
    let mut capture = None;
    if matches!(kind, PoleKind::Counting(_)) {
        let (writer, bytes) = CaptureWriter::in_memory();
        aggregator = aggregator.with_capture(writer);
        capture = Some(bytes);
    }
    let cell = aggregator.snapshot_cell();
    let log = Arc::new(EpochLog {
        cell: Arc::downgrade(&cell),
        poles: n,
        epochs: Mutex::new(Vec::new()),
    });
    cell.add_hook(log.clone());
    let reactor = aggregator.spawn_reactor();
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback port");
    let server = HttpServer::spawn(listener, cell, ServeConfig::default()).expect("start serve");

    let hub = LoopbackHub::new();
    let poles = match kind {
        PoleKind::Counting(first) => {
            let mut agents: Vec<Agent> = counters(n)
                .into_iter()
                .enumerate()
                .map(|(i, counter)| {
                    let mut cfg = AgentConfig::for_pole(i as u32);
                    cfg.telemetry_every_frames = 10;
                    PoleAgent::new(
                        counter,
                        Box::new(hub.connector(LoopbackConfig::reliable())),
                        cfg,
                    )
                })
                .collect();
            // The warm-up frame dials the uplink (Hello + report 1).
            for (agent, cloud) in agents.iter_mut().zip(first) {
                agent.step(cloud);
            }
            Poles::Agents(agents)
        }
        PoleKind::Wire(n) => Poles::Wire(
            (0..n as u32)
                .map(|i| {
                    let mut c =
                        fleet::Connector::connect(&mut hub.connector(LoopbackConfig::reliable()))
                            .expect("loopback dial");
                    c.send(&encode(&Message::Hello { pole_id: i }))
                        .expect("hello");
                    c
                })
                .collect(),
        ),
    };
    let mut adopted = 0;
    while adopted < n {
        let conn = hub
            .accept(Duration::from_secs(5))
            .expect("every pole dials in");
        aggregator.add_connection(Box::new(conn));
        adopted += 1;
    }
    // Publish once every pole is known, so the first read already
    // sees the whole fleet.
    let warm = if matches!(poles, Poles::Agents(_)) {
        n as u64
    } else {
        0
    };
    let t0 = Instant::now();
    loop {
        let st = aggregator.stats();
        if (st.hellos >= n as u64 && st.reports >= warm) || t0.elapsed() > Duration::from_secs(5) {
            break;
        }
        std::thread::sleep(Duration::from_micros(20));
    }
    aggregator.snapshot();
    let addr: SocketAddr = server.local_addr();
    let clients = Some((
        Client::connect(addr).expect("dashboard connection"),
        Client::connect(addr).expect("dashboard connection"),
    ));
    System {
        registry,
        aggregator,
        reactor: Some(reactor),
        server,
        log,
        poles,
        clients,
        capture,
    }
}

impl System {
    /// Fused reports so far.
    pub fn fused(&self) -> u64 {
        self.aggregator.stats().reports
    }

    /// Stops ingest (poles say Bye, the reactor drains and exits).
    pub fn stop_ingest(&mut self) {
        if let Poles::Agents(agents) = &mut self.poles {
            for a in agents {
                a.shutdown();
            }
        }
        self.aggregator.stop();
        if let Some(r) = self.reactor.take() {
            r.join();
        }
    }

    /// Full teardown.
    pub fn teardown(mut self) {
        self.clients = None;
        self.stop_ingest();
        self.server.stop();
    }
}

/// Sets the system up at least `min` times, and more while the total
/// stays under `budget` (at most `max`), tearing down all but the last.
/// Returns it with the median set-up time in seconds: a set-up of a
/// millisecond or two is then the median of dozens, not of five.
pub fn setup_median(
    min: usize,
    max: usize,
    budget: Duration,
    mut build: impl FnMut() -> System,
) -> (System, f64) {
    let started = Instant::now();
    let mut times = Vec::new();
    loop {
        let t0 = Instant::now();
        let sys = build();
        times.push(t0.elapsed().as_secs_f64());
        let more = times.len() < min || (started.elapsed() < budget && times.len() < max);
        if !more {
            times.sort_by(f64::total_cmp);
            return (sys, times[times.len() / 2]);
        }
        sys.teardown();
    }
}
