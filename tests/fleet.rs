//! Fleet-tier integration: a campus of pole agents over lossy
//! loopback links into one aggregator's reactor.
//!
//! Pins three load-bearing claims:
//!
//! 1. **Convergence** — 8 poles on a shared corridor, 10% frame loss
//!    and pairwise reorder, fuse to exactly the constructed ground
//!    truth (every seam person deduplicated, every own person kept).
//! 2. **Fault isolation** — killing one agent mid-run flips only that
//!    pole to `Dead`; the snapshot keeps serving the other seven.
//! 3. **Determinism** — the fused snapshot is bit-identical whether
//!    the agents ran on one thread or eight, and whether the links
//!    reordered or not-at-all, because fusion is keyed per pole and
//!    last-sequence-wins. The reactor, at any worker or shard count,
//!    fuses exactly what a lone `FusionCore` replays from the
//!    reactor's own capture.

use std::time::Duration;

use counting::{CounterConfig, CrowdCounter, SupervisedCounter, SupervisorConfig};
use dataset::{ClassLabel, CloudClassifier};
use fleet::{
    read_capture, replay, AgentConfig, Aggregator, AggregatorConfig, CampusSnapshot, CaptureRecord,
    CaptureWriter, FusionConfig, LoopbackConfig, LoopbackHub, PoleAgent,
};
use geom::Point3;
use hawc_cc::prelude::*;
use lidar::PointCloud;
use obs::ManualClock;
use world::{corridor_layout, PoleRegistry};

const SPACING_M: f64 = 15.0;

/// Tall clusters are humans — deterministic and training-free.
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

/// Pole `i` of `n` sees its own person (local x = 14) plus the seam
/// people it shares with each neighbour — so the campus ground truth
/// is exactly `2n - 1` people.
fn capture_for(i: usize, n: usize) -> PointCloud {
    let mut pts = blob(14.0, 0.0);
    if i + 1 < n {
        pts.extend(blob(28.0, 0.7));
    }
    if i > 0 {
        pts.extend(blob(13.0, 0.7));
    }
    PointCloud::new(pts)
}

fn make_agent(
    pole_id: u32,
    clock: &ManualClock,
    hub: &LoopbackHub,
    link: LoopbackConfig,
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
            deadline_ms: 10_000.0,
            adaptive: cluster::AdaptiveConfig {
                fallback_eps: 0.5,
                min_eps: 0.35,
                ..cluster::AdaptiveConfig::default()
            },
            ..SupervisorConfig::default()
        },
    )
    .with_clock(clock.handle());
    let mut cfg = AgentConfig::for_pole(pole_id);
    cfg.telemetry_every_frames = telemetry_every;
    PoleAgent::new(counter, Box::new(hub.connector(link)), cfg)
}

fn registry(poles: usize) -> PoleRegistry {
    PoleRegistry::from_poses(corridor_layout(poles, SPACING_M))
}

/// An aggregator on `clock` with `reactor_workers` fusion workers and
/// `fusion_shards` zone shards (0 = auto: one core below 64 poles).
fn make_aggregator(
    poles: usize,
    clock: &ManualClock,
    reactor_workers: usize,
    fusion_shards: usize,
) -> Aggregator {
    let cfg = AggregatorConfig {
        reactor_workers,
        fusion_shards,
        ..AggregatorConfig::default()
    };
    Aggregator::with_clock(
        registry(poles),
        WalkwayConfig::default(),
        cfg,
        clock.handle(),
    )
}

/// Adopts connections into the reactor as `poles` agents dial in.
fn adopt(aggregator: &Aggregator, hub: &LoopbackHub, poles: usize) {
    let mut adopted = 0;
    let accept_deadline = std::time::Instant::now() + Duration::from_secs(5);
    while adopted < poles && std::time::Instant::now() < accept_deadline {
        if let Ok(server) = hub.accept(Duration::from_millis(20)) {
            aggregator.add_connection(Box::new(server));
            adopted += 1;
        }
    }
    assert_eq!(adopted, poles, "every pole must reach the hub");
}

/// Polls until the aggregator's ingest counters stop moving.
fn drain(aggregator: &Aggregator) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let mut last = u64::MAX;
    loop {
        let stats = aggregator.stats();
        let seen = stats.reports + stats.stale_discards + stats.heartbeats + stats.hellos;
        if seen == last || std::time::Instant::now() > deadline {
            return;
        }
        last = seen;
        std::thread::sleep(Duration::from_millis(15));
    }
}

/// A finished campus run: the snapshot of a joined reactor, and the
/// reactor's own wire capture.
struct Run {
    snap: CampusSnapshot,
    capture: Vec<CaptureRecord>,
}

impl Run {
    /// The campus a lone `FusionCore` replays from this run's capture.
    fn replayed(&self, poles: usize) -> CampusSnapshot {
        replay(
            &self.capture,
            registry(poles),
            WalkwayConfig::default(),
            FusionConfig::default(),
            1,
            Duration::ZERO,
        )
        .pop()
        .expect("replay ends on a snapshot")
    }
}

/// Runs `poles` agents for `frames` each over links built by `link_for`,
/// either on the calling thread or one thread per agent, into a
/// capturing reactor with `workers` workers over `shards` fusion
/// shards (0 = auto for both). `telemetry_every` sets the agents'
/// telemetry window cadence (0 = off).
fn run_reactor(
    poles: usize,
    frames: usize,
    threaded: bool,
    telemetry_every: u64,
    workers: usize,
    shards: usize,
    link_for: impl Fn(u32) -> LoopbackConfig,
) -> Run {
    let clock = ManualClock::new();
    let hub = LoopbackHub::new();
    let (writer, captured) = CaptureWriter::in_memory();
    let aggregator = make_aggregator(poles, &clock, workers, shards).with_capture(writer);
    let reactor = aggregator.spawn_reactor();
    let mut agents: Vec<PoleAgent<HeightRule>> = (0..poles)
        .map(|i| make_agent(i as u32, &clock, &hub, link_for(i as u32), telemetry_every))
        .collect();

    let mut stepping = Vec::new();
    if threaded {
        for (i, mut agent) in agents.drain(..).enumerate() {
            let capture = capture_for(i, poles);
            stepping.push(std::thread::spawn(move || {
                for _ in 0..frames {
                    agent.step(&capture);
                }
                agent
            }));
        }
    } else {
        let captures: Vec<PointCloud> = (0..poles).map(|i| capture_for(i, poles)).collect();
        for _ in 0..frames {
            for (agent, capture) in agents.iter_mut().zip(&captures) {
                agent.step(capture);
            }
        }
    }
    adopt(&aggregator, &hub, poles);
    agents.extend(stepping.into_iter().map(|t| t.join().unwrap()));
    // Stop and join before reading: a joined reactor has fused every
    // frame it admitted and flushed its capture, so the snapshot needs
    // no grace period. The agents stay up until then — a dropped
    // uplink would read as a dying pole.
    aggregator.stop();
    reactor.join();
    let capture = read_capture(&captured.lock()).expect("own capture parses");
    Run {
        snap: aggregator.snapshot(),
        capture,
    }
}

/// [`run_reactor`] at the auto worker and shard counts, snapshot only.
fn run_campus(
    poles: usize,
    frames: usize,
    threaded: bool,
    telemetry_every: u64,
    link_for: impl Fn(u32) -> LoopbackConfig,
) -> CampusSnapshot {
    run_reactor(poles, frames, threaded, telemetry_every, 0, 0, link_for).snap
}

#[test]
fn eight_poles_over_a_lossy_link_converge_to_ground_truth() {
    let poles = 8;
    let snap = run_campus(poles, 30, false, 0, |id| {
        LoopbackConfig::lossy(0.10, 0.05, 0xC0FFEE ^ u64::from(id))
    });
    let expected = (2 * poles - 1) as u32;
    assert_eq!(
        snap.occupancy, expected,
        "constant scene: whatever frames survive 10% loss fuse to truth"
    );
    assert_eq!(snap.unmapped, 0);
    assert_eq!(snap.live, poles as u32);
    assert_eq!(snap.dead, 0);
    // Every seam person really was double-sighted and deduplicated.
    let double_sighted = snap
        .people
        .iter()
        .filter(|p| p.observers.len() == 2)
        .count();
    assert_eq!(double_sighted, poles - 1, "one shared person per seam");
}

#[test]
fn killing_one_agent_flips_only_that_pole_dead() {
    let poles = 8usize;
    let victim = 3u32;
    let clock = ManualClock::new();
    let hub = LoopbackHub::new();
    let aggregator = make_aggregator(poles, &clock, 0, 0);
    let reactor = aggregator.spawn_reactor();
    let mut agents: Vec<PoleAgent<HeightRule>> = (0..poles)
        .map(|i| {
            make_agent(
                i as u32,
                &clock,
                &hub,
                LoopbackConfig::lossy(0.05, 0.02, u64::from(i as u32)),
                4,
            )
        })
        .collect();
    let captures: Vec<PointCloud> = (0..poles).map(|i| capture_for(i, poles)).collect();

    // Phase 1: the whole fleet reports (telemetry riding along).
    for _ in 0..10 {
        for (agent, capture) in agents.iter_mut().zip(&captures) {
            agent.step(capture);
        }
    }
    adopt(&aggregator, &hub, poles);
    drain(&aggregator);
    let before = aggregator.snapshot();
    assert_eq!(before.live, poles as u32);
    assert_eq!(before.occupancy, (2 * poles - 1) as u32);

    // Phase 2: pole 3 dies abruptly — no Bye, just silence. The rest
    // keep streaming while the campus clock passes the dead threshold.
    let idx = victim as usize;
    let dead_agent = agents.remove(idx);
    drop(dead_agent);
    let live_captures: Vec<PointCloud> = (0..poles)
        .filter(|&i| i != idx)
        .map(|i| capture_for(i, poles))
        .collect();
    for _ in 0..6 {
        clock.advance_ms(1_000); // 6 s total: past dead_after (5 s)
        for (agent, capture) in agents.iter_mut().zip(&live_captures) {
            agent.step(capture);
        }
    }
    drain(&aggregator);
    let after = aggregator.snapshot();
    assert_eq!(after.dead, 1, "exactly one pole died");
    assert_eq!(after.live, (poles - 1) as u32, "the rest kept serving");
    let victim_row = after
        .poles
        .iter()
        .find(|p| p.pole_id == victim)
        .expect("victim stays on the dashboard");
    assert!(matches!(victim_row.liveness, fleet::Liveness::Dead));
    // The victim's exclusive person is gone; its seam people are still
    // seen by the neighbours, so occupancy drops by exactly one.
    assert_eq!(after.occupancy, (2 * poles - 1) as u32 - 1);
    assert!(after.people.iter().all(|p| !p.observers.contains(&victim)));
    aggregator.stop();
    reactor.join();
}

#[test]
fn fused_snapshot_is_bit_identical_across_one_and_eight_threads() {
    let link = |id: u32| LoopbackConfig::lossy(0.10, 0.08, 0xDEAD ^ u64::from(id));
    let single = run_campus(8, 20, false, 0, link);
    let threaded = run_campus(8, 20, true, 0, link);
    assert_eq!(
        single, threaded,
        "fusion is last-seq-wins per pole: thread interleaving must not matter"
    );
}

#[test]
fn fused_snapshot_is_bit_identical_across_packet_reorder() {
    // Same loss pattern cannot be held fixed while toggling reorder
    // (both draw from one RNG stream), so compare lossless links:
    // in-order vs heavily reordered must fuse identically. A link may
    // still be holding its final frame when we snapshot (hold-and-swap
    // reorder), so per-pole `seq` is allowed to trail by one — every
    // fused quantity must match exactly.
    let ordered = run_campus(6, 20, false, 0, |_| LoopbackConfig::reliable());
    let reordered = run_campus(6, 20, false, 0, |id| {
        LoopbackConfig::lossy(0.0, 0.45, 0xBEEF ^ u64::from(id))
    });
    assert_eq!(ordered.occupancy, reordered.occupancy);
    assert_eq!(ordered.people, reordered.people);
    assert_eq!(ordered.unmapped, reordered.unmapped);
    assert_eq!(ordered.zones, reordered.zones);
    assert_eq!(
        (ordered.live, ordered.stale, ordered.dead),
        (reordered.live, reordered.stale, reordered.dead)
    );
    for (a, b) in ordered.poles.iter().zip(&reordered.poles) {
        assert_eq!(a.pole_id, b.pole_id);
        assert_eq!(a.liveness, b.liveness);
        assert_eq!(a.count, b.count, "pole {}: fused count differs", a.pole_id);
        assert_eq!(a.held, b.held);
    }
}

#[test]
fn campus_snapshot_is_bit_identical_with_telemetry_on_or_off() {
    // Telemetry rides the same wire but must never leak into fusion:
    // over a lossless link the fused campus is bit-identical whether
    // the observability plane is off, on, or on across eight threads.
    let link = |_: u32| LoopbackConfig::reliable();
    let off = run_campus(6, 20, false, 0, link);
    let on = run_campus(6, 20, false, 4, link);
    assert_eq!(off, on, "telemetry must not perturb the fused campus");
    let on_threaded = run_campus(6, 20, true, 4, link);
    assert_eq!(off, on_threaded, "nor may it interact with threading");
}

#[test]
fn scoreboard_rolls_up_telemetry_and_traces_every_report() {
    let poles = 3usize;
    let frames = 8usize;
    let clock = ManualClock::new();
    let hub = LoopbackHub::new();
    let aggregator = make_aggregator(poles, &clock, 0, 0);
    let reactor = aggregator.spawn_reactor();
    let mut agents: Vec<PoleAgent<HeightRule>> = (0..poles)
        .map(|i| make_agent(i as u32, &clock, &hub, LoopbackConfig::reliable(), 2))
        .collect();
    let captures: Vec<PointCloud> = (0..poles).map(|i| capture_for(i, poles)).collect();
    for _ in 0..frames {
        for (agent, capture) in agents.iter_mut().zip(&captures) {
            agent.step(capture);
        }
    }
    adopt(&aggregator, &hub, poles);
    // A joined reactor has fused every delivered frame, telemetry
    // included.
    aggregator.stop();
    reactor.join();

    let health = aggregator.health();
    assert_eq!(health.poles.len(), poles);
    let delivered = aggregator.stats().reports;
    assert_eq!(
        health.campus_ingest.count, delivered,
        "every delivered report was traced end to end"
    );
    // The ManualClock never moves, so every traced report has exactly
    // zero capture→fuse latency.
    assert_eq!(health.campus_ingest.min_ms, 0.0);
    assert_eq!(health.campus_ingest.max_ms, 0.0);
    let mut campus_frames = 0u64;
    for p in &health.poles {
        assert_eq!(p.liveness, fleet::Liveness::Live);
        assert!(p.telemetry_frames >= frames as u64 / 2, "cadence of 2");
        assert_eq!(
            p.telemetry.counter("pole.frames"),
            frames as u64,
            "pole {}: telemetry windows re-sum to the lifetime total",
            p.pole_id
        );
        campus_frames += p.telemetry.counter("pole.frames");
    }
    assert_eq!(
        health.campus_telemetry.counter("pole.frames"),
        campus_frames,
        "campus merge preserves counter totals exactly"
    );
    // The journal saw each pole connect, and the scoreboard renders.
    let connects = health
        .events
        .iter()
        .filter(|e| matches!(e.kind, fleet::FleetEventKind::Connected))
        .count();
    assert_eq!(connects, poles);
    let table = health.render_table();
    assert!(table.contains("campus ingest"));
    let json = health.to_json();
    assert_eq!(json.matches('{').count(), json.matches('}').count());
}

#[test]
fn reactor_ingest_is_bit_identical_to_replay_of_its_own_capture() {
    let link = |id: u32| LoopbackConfig::lossy(0.10, 0.08, 0xFEED ^ u64::from(id));
    for workers in [1usize, 4] {
        let run = run_reactor(8, 20, false, 0, workers, 0, link);
        assert!(!run.capture.is_empty(), "the reactor recorded its traffic");
        assert_eq!(
            run.snap.to_json(),
            run.replayed(8).to_json(),
            "reactor at {workers} workers must fuse exactly what its own capture replays to"
        );
    }
}

#[test]
fn zone_sharded_reactor_matches_the_single_core_campus() {
    let link = |_: u32| LoopbackConfig::reliable();
    let single = run_campus(8, 20, false, 0, link);
    let sharded = run_reactor(8, 20, false, 0, 4, 4, link);
    assert_eq!(
        sharded.snap.to_json(),
        sharded.replayed(8).to_json(),
        "4 shards must fuse exactly what one core replays from the same capture"
    );
    assert_eq!(
        single.to_json(),
        sharded.snap.to_json(),
        "zone sharding must not perturb the fused campus"
    );
    let expected = (2 * 8 - 1) as u32;
    assert_eq!(sharded.snap.occupancy, expected);
}
