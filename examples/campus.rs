//! A whole campus corridor at once: N simulated blue light poles,
//! each running its own supervised counting loop behind a
//! [`fleet::PoleAgent`], streaming reports over a lossy in-process
//! link into one [`fleet::Aggregator`] that prints live fused
//! occupancy.
//!
//! ```text
//! cargo run --release --example campus                   # 8 poles, live table
//! cargo run --release --example campus -- --poles 12     # bigger corridor
//! cargo run --release --example campus -- --loss 0.2     # nastier links
//! cargo run --release --example campus -- --json         # JSONL snapshots
//! cargo run --release --example campus -- --ops          # health scoreboard
//! cargo run --release --example campus -- --capture campus.hwcr   # record the wire
//! cargo run --release --example campus -- --checkpoint campus.ckpt # warm restart
//! cargo run --release --example campus -- --serve 127.0.0.1:8080  # HTTP snapshots
//! ```
//!
//! `--serve ADDR` attaches the snapshot serving tier: a single-thread
//! HTTP/1.1 server on ADDR answering `GET /snapshot` (ETag = publish
//! seq, so pollers revalidate for a near-free 304), `GET /zone/x,y`
//! and `GET /pole/id` slices, `GET /delta?since=N` long-polls and
//! `GET /history?res=1s|10s|1m` ring-buffer rollups, straight off the
//! aggregator's lock-free snapshot cell.
//!
//! `--capture PATH` records every frame the aggregator's reactor
//! admits, with its arrival metadata; replay it later through
//! `fleet::replay` to reproduce the run's snapshots bit-exactly.
//! `--checkpoint PATH` restores fused state from PATH when it exists,
//! checkpoints in the background every 2 s, and writes a final
//! checkpoint on exit — so a second invocation resumes with poles
//! still known instead of a cold campus.
//!
//! Poles stand every 15 m down a shared corridor with a 23 m region
//! of interest each, so neighbouring poles watch overlapping stretches
//! of walkway — pedestrians near the seams are seen twice and the
//! aggregator's centroid dedup has real work to do. Classification
//! uses the height rule (tall clusters are humans) so the example
//! starts instantly; swap in a trained `HawcClassifier` for the full
//! pipeline.

use std::time::Duration;

use cluster::AdaptiveConfig;
use counting::{CounterConfig, CrowdCounter, SupervisedCounter, SupervisorConfig};
use dataset::{ClassLabel, CloudClassifier};
use fleet::{AgentConfig, Aggregator, AggregatorConfig, LoopbackConfig, LoopbackHub, PoleAgent};
use geom::Point3;
use hawc_cc::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use world::{corridor_layout, HumanParams, PolePose, PoleRegistry};

const SEED: u64 = 404;
const SPACING_M: f64 = 15.0;

struct Args {
    poles: usize,
    steps: usize,
    loss: f64,
    json: bool,
    ops: bool,
    capture: Option<std::path::PathBuf>,
    checkpoint: Option<std::path::PathBuf>,
    serve: Option<String>,
}

fn parse_args() -> Args {
    let mut out = Args {
        poles: 8,
        steps: 30,
        loss: 0.05,
        json: false,
        ops: false,
        capture: None,
        checkpoint: None,
        serve: None,
    };
    fn num(args: &mut impl Iterator<Item = String>, name: &str) -> f64 {
        args.next()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or_else(|| {
                eprintln!("{name} needs a number");
                std::process::exit(2);
            })
    }
    fn path(args: &mut impl Iterator<Item = String>, name: &str) -> std::path::PathBuf {
        args.next()
            .map(std::path::PathBuf::from)
            .unwrap_or_else(|| {
                eprintln!("{name} needs a path");
                std::process::exit(2);
            })
    }
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--poles" => out.poles = num(&mut args, "--poles") as usize,
            "--steps" => out.steps = num(&mut args, "--steps") as usize,
            "--loss" => out.loss = num(&mut args, "--loss"),
            "--json" => out.json = true,
            "--ops" => out.ops = true,
            "--capture" => out.capture = Some(path(&mut args, "--capture")),
            "--checkpoint" => out.checkpoint = Some(path(&mut args, "--checkpoint")),
            "--serve" => {
                out.serve = Some(args.next().unwrap_or_else(|| {
                    eprintln!("--serve needs an address (e.g. 127.0.0.1:8080)");
                    std::process::exit(2);
                }))
            }
            other => {
                eprintln!(
                    "unknown flag {other} (use --poles <n>, --steps <n>, --loss <p>, --json, --ops, --capture <path>, --checkpoint <path>, --serve <addr>)"
                );
                std::process::exit(2);
            }
        }
    }
    if out.poles == 0 {
        eprintln!("--poles must be at least 1");
        std::process::exit(2);
    }
    out
}

/// Tall clusters are humans — the paper's height prior as a rule, so
/// the example needs no training pass.
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

/// One pedestrian walking the corridor in campus coordinates.
struct Walker {
    params: HumanParams,
    x: f64,
    y: f64,
    speed: f64,
    wiggle: f64,
}

impl Walker {
    fn advance(&mut self, corridor_len: f64, step: usize) {
        self.x += self.speed;
        if self.x > corridor_len {
            self.x -= corridor_len;
        }
        self.y = self.wiggle * (0.37 * (step as f64 + self.x)).sin();
    }
}

fn main() {
    let args = parse_args();
    obs::enable(true);
    let mut rng = StdRng::seed_from_u64(SEED);

    let walkway = WalkwayConfig::default();
    let poses: Vec<PolePose> = corridor_layout(args.poles, SPACING_M);
    let registry = PoleRegistry::from_poses(poses.iter().copied());
    let corridor_len = (args.poles - 1) as f64 * SPACING_M + walkway.x_max;

    // The campus ground truth: ~1.5 walkers per pole, spread along
    // the corridor.
    let n_walkers = (args.poles * 3).div_ceil(2);
    let mut walkers: Vec<Walker> = (0..n_walkers)
        .map(|_| Walker {
            params: HumanParams::sample(&mut rng),
            x: rng.gen::<f64>() * corridor_len,
            y: (rng.gen::<f64>() - 0.5) * 3.0,
            speed: 0.8 + rng.gen::<f64>() * 0.8,
            wiggle: 0.5 + rng.gen::<f64>(),
        })
        .collect();

    // The campus side: one aggregator; its reactor (spawned below)
    // ingests every pole's link.
    let hub = LoopbackHub::new();
    let mut aggregator = Aggregator::new(registry, walkway, AggregatorConfig::default());
    if let Some(path) = &args.capture {
        match fleet::CaptureWriter::create(path) {
            Ok(writer) => {
                aggregator = aggregator.with_capture(writer);
                println!("recording the wire to {}", path.display());
            }
            Err(e) => {
                eprintln!("--capture {}: {e}", path.display());
                std::process::exit(2);
            }
        }
    }
    let mut checkpointer = None;
    if let Some(path) = &args.checkpoint {
        if path.exists() {
            match aggregator.restore_from_file(path) {
                Ok(()) => {
                    let snap = aggregator.snapshot();
                    println!(
                        "warm restart from {}: {} poles known, fused occupancy {}",
                        path.display(),
                        snap.poles.len(),
                        snap.occupancy
                    );
                }
                Err(e) => eprintln!(
                    "checkpoint {} unusable ({e}); starting cold",
                    path.display()
                ),
            }
        }
        checkpointer = Some(aggregator.spawn_checkpointer(path.clone(), Duration::from_secs(2)));
    }

    // The reader side: every fused publish lands in the aggregator's
    // snapshot cell; the serving tier fans it out over HTTP without
    // ever touching the fusion path.
    let mut http = None;
    if let Some(addr) = &args.serve {
        let listener = std::net::TcpListener::bind(addr).unwrap_or_else(|e| {
            eprintln!("--serve {addr}: {e}");
            std::process::exit(2);
        });
        let server = serve::HttpServer::spawn(
            listener,
            aggregator.snapshot_cell(),
            serve::ServeConfig::default(),
        )
        .unwrap_or_else(|e| {
            eprintln!("--serve {addr}: {e}");
            std::process::exit(2);
        });
        println!(
            "serving http://{} — GET /snapshot | /zone/x,y | /pole/id | /delta?since=N | /history?res=1s|10s|1m",
            server.local_addr()
        );
        http = Some(server);
    }

    // The pole side: an agent per pose, dialling the hub over a link
    // that drops `loss` of frames and reorders a few percent more.
    let mut agents: Vec<PoleAgent<HeightRule>> = poses
        .iter()
        .map(|pose| {
            // Sparse far-range humans fragment under the paper's tiny
            // degenerate-case fallback ε; clamp the adaptive ε into
            // the usable band around Table IV's best fixed 0.5.
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
            let link =
                LoopbackConfig::lossy(args.loss, args.loss / 2.0, SEED ^ u64::from(pose.pole_id));
            let mut cfg = AgentConfig::for_pole(pose.pole_id);
            // One telemetry window every 10 frames; heartbeats carry
            // extra windows for free when the uplink goes quiet.
            cfg.telemetry_every_frames = 10;
            PoleAgent::new(counter, Box::new(hub.connector(link)), cfg)
        })
        .collect();

    let sensor = Lidar::new(SensorConfig::default());
    println!(
        "campus: {} poles every {SPACING_M} m, {} walkers, {:.0}% frame loss\n",
        args.poles,
        n_walkers,
        args.loss * 100.0
    );
    println!("step | truth | fused | unmapped | live/stale/dead | zones");

    // The campus ingests through the event-driven reactor: one poll
    // loop owns every accepted link, a small worker pool fuses.
    let reactor = aggregator.spawn_reactor();
    for step in 0..args.steps {
        for w in &mut walkers {
            w.advance(corridor_len, step);
        }
        // Ground truth: walkers standing in at least one pole's ROI.
        let visible = walkers
            .iter()
            .filter(|w| {
                poses
                    .iter()
                    .any(|p| p.covers(Point3::new(w.x, w.y, world::GROUND_Z), &walkway))
            })
            .count();

        // Each pole captures its local view of the shared campus.
        for (pose, agent) in poses.iter().zip(agents.iter_mut()) {
            let mut scene = Scene::new(walkway);
            for w in &walkers {
                let local = pose.to_local(Point3::new(w.x, w.y, world::GROUND_Z));
                if local.x >= walkway.x_min - 2.0
                    && local.x <= walkway.x_max + 2.0
                    && local.y.abs() <= walkway.half_width() + 1.0
                {
                    scene.add_human(world::Human::new(w.params, local.x, local.y, 0.0));
                }
            }
            let mut sweep = sensor.scan(&scene, &mut rng);
            roi_filter(&mut sweep, &walkway);
            ground_segment(&mut sweep);
            agent.step(&sweep.into_cloud());
        }
        // Adopt any connections the agents just dialled.
        while let Ok(server) = hub.accept(Duration::from_millis(1)) {
            aggregator.add_connection(Box::new(server));
        }
        // Let the reactor drain this round's frames.
        std::thread::sleep(Duration::from_millis(15));

        let snap = aggregator.snapshot();
        let zones: Vec<String> = snap
            .zones
            .iter()
            .map(|z| format!("[{},{}]={}", z.zone_x, z.zone_y, z.count))
            .collect();
        println!(
            "{:>4} | {:>5} | {:>5} | {:>8} | {:>4}/{}/{} | {}",
            step,
            visible,
            snap.occupancy,
            snap.unmapped,
            snap.live,
            snap.stale,
            snap.dead,
            zones.join(" ")
        );
        if args.json {
            println!("{}", snap.to_json());
        }
    }

    if args.ops {
        // The ops view: per-pole telemetry rollups, end-to-end ingest
        // latency percentiles, the fleet event journal, and — when the
        // serving tier is attached — its request counters and 304 ratio.
        let mut health = aggregator.health();
        if let Some(server) = &http {
            health = health.with_serve(server.telemetry());
        }
        println!("\n{}", health.render_table());
    }

    // Orderly shutdown: every pole says Bye. Byes ride the same lossy
    // link as everything else, so a dropped one leaves its pole Live
    // until the 5 s silence timeout ages it out.
    for agent in &mut agents {
        agent.shutdown();
    }
    std::thread::sleep(Duration::from_millis(30));
    let snap = aggregator.snapshot();
    println!(
        "\nafter shutdown: {}/{} poles dead (lost Byes age out via the silence timeout), fused occupancy {}",
        snap.dead, args.poles, snap.occupancy
    );
    aggregator.stop();
    if let Some(t) = checkpointer {
        // The checkpointer writes one final checkpoint on shutdown.
        let _ = t.join();
    }
    // The reactor drains every adopted connection before retiring.
    reactor.join();
    if let Some(mut server) = http {
        server.stop();
    }
    if let Some(path) = &args.checkpoint {
        println!("checkpoint saved to {}", path.display());
    }
    if let Some(path) = &args.capture {
        println!("wire capture saved to {}", path.display());
    }

    let sent: u64 = agents.iter().map(|a| a.stats().sent).sum();
    let reports: u64 = agents.iter().map(|a| a.stats().reports).sum();
    let stats = aggregator.stats();
    println!(
        "uplink: {reports} reports produced, {sent} frames sent, {} fused, {} reorder-discards",
        stats.reports, stats.stale_discards
    );
    println!("\n-- final telemetry --");
    print!("{}", obs::export::render_table(&obs::snapshot()));
}
