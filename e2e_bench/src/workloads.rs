//! The three workloads and the machinery that drives them.
//!
//! Thread layout, on every workload: the *pole generator* steps every
//! pole on its open-loop schedule (poles ride in-process reliable
//! loopback links, so they are not OS connections); the *dashboard
//! generator* owns both TCP connections, one chaining `/delta`
//! long-polls and one sending the workload's open-loop read mix. The
//! main thread only orchestrates (and samples backlog when tracing).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use counting::{EpsRung, PrecisionRung, StageMs};
use fleet::{encode, ClusterObservation, Message, PoleReport, Transport};
use geom::Point3;
use lidar::{ground_segment, roi_filter, Lidar, PointCloud, SensorConfig};
use obs::{Clock, SystemClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use world::{corridor_layout, HumanParams, PolePose, Scene, WalkwayConfig};

use crate::http::{array_objects, body_seq, Client, Reply};
use crate::loadgen::{drive, uniform};
use crate::rec::{Recorder, Windowed};
use crate::system::{setup, setup_median, EpochLog, PoleKind, Poles, SPACING_M};

/// The paper's capture rate.
const FRAME_HZ: f64 = 10.0;
/// `staleness_p99_ms` limit for an ingest-ladder rung: two publish
/// periods of the reactor's fixed 250 ms cadence (proposed limit).
const STALENESS_LIMIT_MS: f64 = 500.0;
/// `read_p99_ms` limit for a read-ladder rung (proposed limit).
const READ_LIMIT_MS: f64 = 5.0;
/// Capacity ladders step by 2^(1/8): fine enough that a capacity can
/// repeat within a tenth.
const LADDER_STEPS_PER_OCTAVE: i32 = 8;
/// Full set-ups per run, `setup_s` being their median: at least five,
/// and as many (up to 50) as fit in a second.
const SETUPS: (usize, usize, Duration) = (5, 50, Duration::from_secs(1));
/// Wire-only poles cycle through this many seeded report layouts.
const LAYOUTS: usize = 64;

/// Request classes on the dashboard connections.
const REVALIDATE: u8 = 0;
const FULL: u8 = 1;
const ZONE: u8 = 2;
const POLE: u8 = 3;
const HISTORY: u8 = 4;
const DELTA: u8 = 5;
const FINAL: u8 = 6;

/// Which capacity ladder follows the fixed-rate phase.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Ladder {
    None,
    /// Offered report rate (`ingest_capacity_rps`).
    Ingest,
    /// Offered read rate (`read_capacity_rps`).
    Read,
}

/// One workload.
pub struct Spec {
    pub name: &'static str,
    pub poles: usize,
    pub counting: bool,
    /// Fixed-phase read rate on the read connection, per second.
    pub read_hz: f64,
    /// Whether reads follow the dashboard mix (else: revalidating
    /// `/snapshot` polls only).
    pub mixed_reads: bool,
    pub ladder: Ladder,
}

/// The workloads, with why each is here.
pub const WORKLOADS: [Spec; 3] = [
    // campus_live — the paper's deployment: 4 counting poles on a 15 m
    // corridor, ~1.5 seeded walkers per pole, 10 Hz staggered, one
    // `/delta` long-poll and one revalidating `/snapshot` poller.
    // Why: counting/nn/cluster do almost all the work here and
    // fleet/serve almost none. A kernel or clustering change shows
    // here; an ingest change must not move anything.
    Spec {
        name: "campus_live",
        poles: 4,
        counting: true,
        read_hz: 200.0,
        mixed_reads: false,
        ladder: Ladder::None,
    },
    // city_ingest — 256 wire-only poles at 10 Hz staggered, reports on
    // the fleet_soak seam construction (fusion dedup has real work and
    // occupancy is exactly 2N−1), then the ingest capacity ladder; one
    // `/delta` long-poll plus a revalidating `/snapshot` poller that
    // carries the large snapshot through serve.
    // Why: wire/reactor/sentinel/fusion/publish do the work and
    // counting does none.
    Spec {
        name: "city_ingest",
        poles: 256,
        counting: false,
        read_hz: 100.0,
        mixed_reads: false,
        ladder: Ladder::Ingest,
    },
    // dashboard_swarm — the same layers used differently: 64 wire-only
    // poles at 10 Hz (every 250 ms publish invalidates ETags) beside
    // one pipelined keep-alive read connection with an open-loop mix
    // (~70% revalidating /snapshot, 10% unconditional /snapshot, 15%
    // /zone + /pole slices, 5% /history), then the read capacity
    // ladder; the second connection long-polls `/delta`.
    // Why: serve does the work. The 304 share and body size are the
    // input properties a read-path optimisation depends on, and the
    // publish churn shows a read win that costs freshness.
    Spec {
        name: "dashboard_swarm",
        poles: 64,
        counting: false,
        read_hz: 1000.0,
        mixed_reads: true,
        ladder: Ladder::Read,
    },
];

// ---------------------------------------------------------------- inputs

/// Everything the program receives, generated from the seed alone.
pub struct Inputs {
    /// Counting poles: pre-scanned captures per pole; index 0 is the
    /// set-up warm-up frame.
    captures: Vec<Vec<PointCloud>>,
    /// Ground truth per pole per capture: walkers inside its ROI.
    truth: Vec<Vec<usize>>,
    /// Wire-only poles: seeded local cluster layouts per pole.
    layouts: Vec<Vec<Vec<(f64, f64)>>>,
    /// The read mix, cycled: (class, target).
    reads: Vec<(u8, String)>,
}

struct Walker {
    params: HumanParams,
    x: f64,
    y: f64,
    speed: f64,
    wiggle: f64,
}

/// The campus corridor: seeded walkers advanced at 10 Hz, scanned by
/// every pole from its own pose.
///
/// Walkers start one per equal stretch of corridor (seeded offset
/// within it) and keep a similar pace, so every pole sees about 1.5 of
/// them in every frame whatever the seed. Uniform starts let one seed
/// bunch the crowd under one pole, and the frame-time median then
/// measures the seed, not the system.
fn scan_campus(
    n: usize,
    frames: usize,
    rng: &mut StdRng,
) -> (Vec<Vec<PointCloud>>, Vec<Vec<usize>>) {
    let walkway = WalkwayConfig::default();
    let poses: Vec<PolePose> = corridor_layout(n, SPACING_M);
    let corridor = (n - 1) as f64 * SPACING_M + walkway.x_max;
    let count = (n * 3).div_ceil(2);
    let stretch = corridor / count as f64;
    let mut walkers: Vec<Walker> = (0..count)
        .map(|j| Walker {
            params: HumanParams::sample(rng),
            x: (j as f64 + rng.gen::<f64>()) * stretch,
            y: (rng.gen::<f64>() - 0.5) * 3.0,
            speed: 1.2 + rng.gen::<f64>() * 0.2,
            wiggle: 0.5 + rng.gen::<f64>(),
        })
        .collect();
    let sensor = Lidar::new(SensorConfig::default());
    let mut captures = vec![Vec::with_capacity(frames); n];
    let mut truth = vec![Vec::with_capacity(frames); n];
    for k in 0..frames {
        for w in &mut walkers {
            w.x += w.speed / FRAME_HZ;
            if w.x > corridor {
                w.x -= corridor;
            }
            w.y = w.wiggle * (0.37 * (k as f64 / FRAME_HZ + w.x)).sin();
        }
        for (i, pose) in poses.iter().enumerate() {
            let mut scene = Scene::new(walkway);
            let mut inside = 0;
            for w in &walkers {
                let campus = Point3::new(w.x, w.y, world::GROUND_Z);
                if pose.covers(campus, &walkway) {
                    inside += 1;
                }
                let local = pose.to_local(campus);
                if local.x >= walkway.x_min - 2.0
                    && local.x <= walkway.x_max + 2.0
                    && local.y.abs() <= walkway.half_width() + 1.0
                {
                    scene.add_human(world::Human::new(w.params, local.x, local.y, 0.0));
                }
            }
            let mut sweep = sensor.scan(&scene, rng);
            roi_filter(&mut sweep, &walkway);
            ground_segment(&mut sweep);
            captures[i].push(sweep.into_cloud());
            truth[i].push(inside);
        }
    }
    (captures, truth)
}

/// Seam-construction layouts (as in `fleet_soak`): each pole reports
/// its own walker plus the seam walker it shares with each neighbour,
/// so the campus holds exactly `2N − 1` people. Seam jitter is shared
/// by both neighbours, so the two sightings always dedup.
fn seam_layouts(n: usize, rng: &mut StdRng) -> Vec<Vec<Vec<(f64, f64)>>> {
    let seams: Vec<Vec<(f64, f64)>> = (0..LAYOUTS)
        .map(|_| {
            (0..n)
                .map(|_| (rng.gen_range(-0.2..0.2), rng.gen_range(-0.2..0.2)))
                .collect()
        })
        .collect();
    (0..n)
        .map(|i| {
            (0..LAYOUTS)
                .map(|m| {
                    let mut c = vec![(rng.gen_range(14.0..24.0), rng.gen_range(-2.0..-0.5))];
                    if i + 1 < n {
                        let (dx, dy) = seams[m][i];
                        c.push((28.0 + dx, 0.7 + dy));
                    }
                    if i > 0 {
                        let (dx, dy) = seams[m][i - 1];
                        c.push((13.0 + dx, 0.7 + dy));
                    }
                    c
                })
                .collect()
        })
        .collect()
}

fn read_mix(spec: &Spec, rng: &mut StdRng) -> Vec<(u8, String)> {
    if !spec.mixed_reads {
        return vec![(REVALIDATE, "/snapshot".into())];
    }
    let zones = (((spec.poles - 1) as f64 * SPACING_M + 35.0) / 20.0).ceil() as i32;
    (0..4096)
        .map(|_| {
            let u: f64 = rng.gen();
            if u < 0.70 {
                (REVALIDATE, "/snapshot".into())
            } else if u < 0.80 {
                (FULL, "/snapshot".into())
            } else if u < 0.875 {
                let zy = if rng.gen::<bool>() { 0 } else { -1 };
                (ZONE, format!("/zone/{},{zy}", rng.gen_range(0..zones)))
            } else if u < 0.95 {
                (POLE, format!("/pole/{}", rng.gen_range(0..spec.poles)))
            } else {
                (HISTORY, "/history?res=1s".into())
            }
        })
        .collect()
}

/// Generates the workload's inputs from `seed`.
pub fn generate(spec: &Spec, seed: u64, fixed: Duration) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xE2E);
    let frames = (fixed.as_secs_f64() * FRAME_HZ).ceil() as usize + 1;
    let (captures, truth) = if spec.counting {
        scan_campus(spec.poles, frames, &mut rng)
    } else {
        (Vec::new(), Vec::new())
    };
    let layouts = if spec.counting {
        Vec::new()
    } else {
        seam_layouts(spec.poles, &mut rng)
    };
    Inputs {
        captures,
        truth,
        layouts,
        reads: read_mix(spec, &mut rng),
    }
}

// ----------------------------------------------------------- pole side

/// One report a pole put on its uplink.
#[derive(Clone, Copy)]
struct Sent {
    pole: u32,
    seq: u64,
    due: Instant,
    start: Instant,
    done: Instant,
}

/// What a counting pole's `step` returned, per frame.
struct Frame {
    stages: Option<StageMs>,
    elapsed_ms: f64,
    clusters: usize,
    held: bool,
    panicked: bool,
    deadline_missed: bool,
    degraded: bool,
    abs_err: usize,
}

#[derive(Default)]
struct PoleOut {
    fixed: Vec<Sent>,
    frames: Vec<Frame>,
    fixed_sent: u64,
    fused_after_fixed: Option<u64>,
    wire_bytes: u64,
    capacity_rps: Option<f64>,
    dropped_oldest: u64,
}

/// Maps `(pole, seq)` to the first publish that contains it and the
/// first reader response that showed that publish (or a later one).
struct Freshness {
    at: Vec<Instant>,
    seqs: Vec<Vec<u64>>,
    people: Vec<usize>,
    read_at: Vec<Option<Instant>>,
}

impl Freshness {
    fn new(log: &EpochLog, seen: &Mutex<Vec<(u64, Instant)>>) -> Freshness {
        let epochs = log.epochs.lock().expect("epoch log poisoned");
        let mut seen = seen.lock().expect("seen log poisoned").clone();
        seen.sort_by_key(|s| s.0);
        let mut read_at = vec![None; epochs.len()];
        let mut j = seen.len();
        let mut best: Option<Instant> = None;
        for e in (0..epochs.len()).rev() {
            while j > 0 && seen[j - 1].0 >= epochs[e].epoch {
                j -= 1;
                best = Some(best.map_or(seen[j].1, |b: Instant| b.min(seen[j].1)));
            }
            read_at[e] = best;
        }
        Freshness {
            at: epochs.iter().map(|e| e.at).collect(),
            seqs: epochs.iter().map(|e| e.seqs.clone()).collect(),
            people: epochs.iter().map(|e| e.people).collect(),
            read_at,
        }
    }

    /// Index of the first publish whose snapshot shows `pole` at `seq`
    /// or later (per-pole seqs never go back, so this bisects).
    fn first(&self, pole: u32, seq: u64) -> Option<usize> {
        let p = pole as usize;
        let i = self
            .seqs
            .partition_point(|s| s.get(p).copied().unwrap_or(0) < seq);
        (i < self.seqs.len()).then_some(i)
    }
}

/// Staleness of each report as (due, due → first reader response
/// showing it), and how many no reader ever saw; those are charged
/// until `end`.
fn staleness(sent: &[Sent], fresh: &Freshness, end: Instant) -> (Vec<(Instant, Duration)>, u64) {
    let mut missing = 0;
    let out = sent
        .iter()
        .map(|s| {
            let seen = match fresh.first(s.pole, s.seq).and_then(|e| fresh.read_at[e]) {
                Some(read) => read,
                None => {
                    missing += 1;
                    end
                }
            };
            (s.due, seen.saturating_duration_since(s.due))
        })
        .collect();
    (out, missing)
}

/// Capture stamps on the `SystemClock` timeline the aggregator fuses
/// on, so `FleetHealth` capture→fuse and the sentinel's skew check see
/// honest times for wire-only poles.
struct Stamp {
    inst: Instant,
    sys_ms: f64,
}

impl Stamp {
    fn now() -> Stamp {
        Stamp {
            sys_ms: SystemClock.now_ms(),
            inst: Instant::now(),
        }
    }

    fn ms(&self, at: Instant) -> f64 {
        self.sys_ms + at.saturating_duration_since(self.inst).as_secs_f64() * 1e3
    }
}

fn wire_report(pole: u32, seq: u64, layout: &[(f64, f64)], capture_ms: f64) -> Vec<u8> {
    encode(&Message::Report(PoleReport {
        pole_id: pole,
        seq,
        timestamp_ms: seq * 100,
        count: layout.len() as u32,
        health: counting::HealthState::Healthy,
        eps_rung: EpsRung::Fixed,
        precision: PrecisionRung::Int8,
        held: false,
        stale_frames: 0,
        age_ms: 0.0,
        pole_temp_c: None,
        capture_ms: Some(capture_ms),
        clusters: layout
            .iter()
            .map(|&(x, y)| ClusterObservation {
                centroid: Point3::new(x, y, -1.2),
                points: 60,
                confidence: 0.9,
            })
            .collect(),
    }))
}

/// Everything both generator threads share.
struct Shared {
    log: Arc<EpochLog>,
    /// (epoch, received) of every reader response.
    seen: Mutex<Vec<(u64, Instant)>>,
    /// Reports put on the wire so far.
    sent: AtomicU64,
    /// Set when the pole generator should stop (end of the read
    /// ladder on an open-ended schedule).
    stop_poles: AtomicBool,
    /// Set by the main thread to the final publish epoch.
    final_epoch: AtomicU64,
    stamp: Stamp,
}

fn wire_send(
    link: &mut Box<dyn Transport>,
    pole: u32,
    seq: u64,
    inputs: &Inputs,
    sh: &Shared,
    due: Instant,
) -> (Sent, u64) {
    let start = Instant::now();
    let layout = &inputs.layouts[pole as usize][seq as usize % LAYOUTS];
    let frame = wire_report(pole, seq, layout, sh.stamp.ms(due));
    link.send(&frame).expect("reliable loopback send");
    sh.sent.fetch_add(1, Ordering::Relaxed);
    (
        Sent {
            pole,
            seq,
            due,
            start,
            done: Instant::now(),
        },
        frame.len() as u64,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_poles(
    poles: &mut Poles,
    spec: &Spec,
    inputs: &Inputs,
    sh: &Shared,
    fused: &(dyn Fn() -> u64 + Sync),
    start: Instant,
    fixed: Duration,
    ladder_budget: Duration,
) -> PoleOut {
    let n = spec.poles;
    let period = Duration::from_secs_f64(1.0 / FRAME_HZ);
    let stagger = period / n as u32;
    let frames = match spec.ladder {
        // Writes continue beside the read ladder until it is done.
        Ladder::Read => usize::MAX / 2,
        _ => (fixed.as_secs_f64() * FRAME_HZ).round() as usize,
    };
    let schedule = (0..frames)
        .flat_map(|k| (0..n).map(move |i| (period * k as u32 + stagger * i as u32, (i, k))));
    let mut out = PoleOut::default();
    let fixed_end = start + fixed;
    match poles {
        Poles::Agents(agents) => {
            drive(start, schedule, &sh.stop_poles, |due, (i, k)| {
                let began = Instant::now();
                let got = agents[i].step(&inputs.captures[i][k + 1]);
                let done = Instant::now();
                sh.sent.fetch_add(1, Ordering::Relaxed);
                out.fixed.push(Sent {
                    pole: i as u32,
                    seq: agents[i].seq(),
                    due,
                    start: began,
                    done,
                });
                let degraded =
                    got.eps_rung != EpsRung::Adaptive || got.precision != PrecisionRung::Int8;
                out.frames.push(Frame {
                    stages: got.stages,
                    elapsed_ms: got.elapsed_ms,
                    clusters: got.clusters.len(),
                    held: got.held,
                    panicked: got.panicked,
                    deadline_missed: got.deadline_missed,
                    degraded,
                    abs_err: got.count.abs_diff(inputs.truth[i][k + 1]),
                });
            });
            out.dropped_oldest = agents.iter().map(|a| a.stats().dropped_oldest).sum();
        }
        Poles::Wire(links) => {
            let mut seqs = vec![0u64; n];
            let mut bytes = 0;
            drive(start, schedule, &sh.stop_poles, |due, (i, _)| {
                seqs[i] += 1;
                let (s, b) = wire_send(&mut links[i], i as u32, seqs[i], inputs, sh, due);
                if due < fixed_end {
                    out.fixed.push(s);
                    bytes += b;
                }
            });
            out.wire_bytes = bytes;
            if spec.ladder == Ladder::Ingest {
                out.fixed_sent = out.fixed.len() as u64;
                out.fused_after_fixed =
                    Some(wait_fused(fused, out.fixed_sent, Duration::from_secs(3)));
                let base = n as f64 * FRAME_HZ;
                out.capacity_rps = Some(ladder(base, ladder_budget, |rate| {
                    ingest_rung(links, &mut seqs, rate, inputs, sh, fused)
                }));
            }
        }
    }
    out.fixed_sent = out.fixed.iter().filter(|s| s.due < fixed_end).count() as u64;
    out
}

/// Waits until `fused()` reaches `want` or stops moving for 300 ms
/// (capped at `limit`); returns the last reading.
fn wait_fused(fused: &(dyn Fn() -> u64 + Sync), want: u64, limit: Duration) -> u64 {
    let t0 = Instant::now();
    let mut last = fused();
    let mut still = Instant::now();
    while last < want && t0.elapsed() < limit {
        std::thread::sleep(Duration::from_millis(10));
        let now = fused();
        if now != last {
            last = now;
            still = Instant::now();
        } else if still.elapsed() > Duration::from_millis(300) {
            break;
        }
    }
    last
}

/// One ingest-ladder rung: `rate` reports/s round-robin over the poles
/// for half a second, then half a second to settle. It passes when
/// every report was fused and `staleness_p99_ms` stayed within the
/// limit (a growing backlog fails the staleness limit within a rung).
fn ingest_rung(
    links: &mut [Box<dyn Transport>],
    seqs: &mut [u64],
    rate: f64,
    inputs: &Inputs,
    sh: &Shared,
    fused: &(dyn Fn() -> u64 + Sync),
) -> bool {
    let n = links.len();
    let span = Duration::from_millis(500);
    let fused0 = fused();
    let mut sent = Vec::with_capacity((rate * span.as_secs_f64()) as usize + 1);
    let start = Instant::now() + Duration::from_millis(2);
    let schedule = uniform(Duration::ZERO, span, rate)
        .enumerate()
        .map(|(j, off)| (off, j));
    drive(start, schedule, &AtomicBool::new(false), |due, j| {
        let i = j % n;
        seqs[i] += 1;
        sent.push(wire_send(&mut links[i], i as u32, seqs[i], inputs, sh, due).0);
    });
    std::thread::sleep(Duration::from_millis(STALENESS_LIMIT_MS as u64 + 100));
    let all_fused = fused() - fused0 >= sent.len() as u64;
    let fresh = Freshness::new(&sh.log, &sh.seen);
    let (stale, missing) = staleness(&sent, &fresh, Instant::now());
    let mut rec = Recorder::default();
    for (_, d) in stale {
        rec.record(d);
    }
    all_fused && missing == 0 && rec.p99() <= STALENESS_LIMIT_MS
}

/// Capacity search on the fixed geometric ladder `base · 2^(k/8)`:
/// bracket by ×4 steps from `base`, then bisect down to one ladder
/// step. Returns the highest rung that passed (0 when even `base`
/// failed). Stops early when `budget` runs out.
fn ladder(base: f64, budget: Duration, mut rung: impl FnMut(f64) -> bool) -> f64 {
    let t0 = Instant::now();
    let rate = |k: i32| base * 2f64.powf(k as f64 / LADDER_STEPS_PER_OCTAVE as f64);
    let mut lo: Option<i32> = None;
    let mut hi: Option<i32> = None;
    let mut k = 0;
    while hi.is_none() && t0.elapsed() < budget {
        if rung(rate(k)) {
            lo = Some(k);
            k += 2 * LADDER_STEPS_PER_OCTAVE;
        } else {
            hi = Some(k);
        }
    }
    if let (Some(mut l), Some(mut h)) = (lo, hi) {
        while h - l > 1 && t0.elapsed() < budget {
            let mid = (l + h) / 2;
            if rung(rate(mid)) {
                l = mid;
            } else {
                h = mid;
            }
        }
        lo = Some(l);
    }
    lo.map_or(0.0, rate)
}

// ------------------------------------------------------ dashboard side

/// One read on the read connection.
#[derive(Clone, Copy)]
struct Read {
    fixed: bool,
    due: Instant,
    written: Option<Instant>,
    received: Option<Instant>,
    status: u16,
    bytes: usize,
}

#[derive(Default)]
struct DashState {
    since: u64,
    delta_out: bool,
    composed: BTreeMap<String, u32>,
    last_tag: [u64; 2],
    snap_tag: Option<u64>,
    reads: Vec<Read>,
    errors: Vec<String>,
    final_snapshot: Option<(u64, Vec<String>)>,
}

impl DashState {
    fn on_reply(&mut self, conn: usize, r: Reply<'_>, seen: &Mutex<Vec<(u64, Instant)>>) {
        let ok = r.status == 200 || r.status == 304;
        if let Some(tag) = r.etag {
            if tag < self.last_tag[conn] {
                self.errors.push(format!(
                    "ETag went back from {} to {tag} on connection {conn}",
                    self.last_tag[conn]
                ));
            }
            self.last_tag[conn] = tag;
            if ok {
                seen.lock()
                    .expect("seen log poisoned")
                    .push((tag, r.received));
            }
            if r.status == 200 && body_seq(r.body) != Some(tag) {
                self.errors.push(format!(
                    "200 body seq {:?} differs from its ETag {tag}",
                    body_seq(r.body)
                ));
            }
        }
        match r.req.kind {
            DELTA => {
                self.delta_out = false;
                if r.status != 200 {
                    return;
                }
                self.apply_delta(r.body);
            }
            FINAL => {
                let people = array_objects(r.body, "people").unwrap_or_default();
                self.final_snapshot = Some((r.etag.unwrap_or(0), people));
            }
            kind => {
                if r.status == 200 && (kind == REVALIDATE || kind == FULL) {
                    self.snap_tag = r.etag;
                }
                self.reads.push(Read {
                    fixed: false,
                    due: r.req.due,
                    written: r.req.written,
                    received: Some(r.received),
                    status: r.status,
                    bytes: r.bytes,
                });
            }
        }
    }

    /// Folds one `/delta` body into the composed people multiset.
    fn apply_delta(&mut self, body: &[u8]) {
        let text = String::from_utf8_lossy(body);
        if text.contains("\"reset\":true") {
            self.composed.clear();
            for p in array_objects(body, "people").unwrap_or_default() {
                *self.composed.entry(p).or_insert(0) += 1;
            }
        } else {
            for p in array_objects(body, "removed").unwrap_or_default() {
                match self.composed.get_mut(&p) {
                    Some(c) if *c > 1 => *c -= 1,
                    Some(_) => {
                        self.composed.remove(&p);
                    }
                    None => self
                        .errors
                        .push(format!("/delta removed unknown person {p}")),
                }
            }
            for p in array_objects(body, "added").unwrap_or_default() {
                *self.composed.entry(p).or_insert(0) += 1;
            }
        }
        if let Some(seq) = body_seq(body) {
            self.since = seq;
        }
    }
}

struct Dash<'a> {
    delta: Client,
    reads: Client,
    st: DashState,
    sh: &'a Shared,
    mix: &'a [(u8, String)],
    next_mix: usize,
    lag: Recorder,
    polling: Duration,
}

impl Dash<'_> {
    /// One turn: keep a long-poll outstanding, write what the sockets
    /// take, wait up to `timeout` for input, and handle every reply.
    fn turn(&mut self, timeout: Duration) {
        if !self.st.delta_out {
            let target = format!("/delta?since={}&wait_ms=1000", self.st.since);
            self.delta.get(&target, None, DELTA, Instant::now());
            self.st.delta_out = true;
        }
        let (a, b) = (self.delta.flush(), self.reads.flush());
        if let Err(e) = a.and(b) {
            self.st.errors.push(format!("write failed: {e}"));
        }
        let mut fds = [self.delta.fd(), self.reads.fd()].map(|fd| fleet::sys::PollFd {
            fd,
            events: fleet::sys::POLLIN,
            revents: 0,
        });
        for (fd, c) in fds.iter_mut().zip([&self.delta, &self.reads]) {
            if c.wants_write() {
                fd.events |= fleet::sys::POLLOUT;
            }
        }
        let t0 = Instant::now();
        fleet::sys::poll_fds(&mut fds, timeout);
        self.polling += t0.elapsed();
        let (st, sh) = (&mut self.st, self.sh);
        for (conn, client) in [&mut self.delta, &mut self.reads].into_iter().enumerate() {
            match client.pump(&mut |r| st.on_reply(conn, r, &sh.seen)) {
                Ok(true) => {}
                Ok(false) => st
                    .errors
                    .push(format!("connection {conn} closed by the server")),
                Err(e) => st.errors.push(format!("connection {conn}: {e}")),
            }
        }
    }

    /// Issues the read mix at `rate` per second for `span` from
    /// `start`, pumping in between.
    /// Gives up (`None`) once `max_outstanding` requests are unanswered.
    fn reads_at(
        &mut self,
        start: Instant,
        rate: f64,
        span: Duration,
        max_outstanding: usize,
    ) -> Option<std::ops::Range<usize>> {
        let first = self.st.reads.len() + self.reads.outstanding();
        for off in uniform(Duration::ZERO, span, rate) {
            if self.reads.outstanding() >= max_outstanding {
                return None;
            }
            let due = start + off;
            loop {
                let now = Instant::now();
                if now >= due {
                    self.lag.record(now - due);
                    break;
                }
                self.turn((due - now).min(Duration::from_millis(5)));
            }
            let (kind, target) = &self.mix[self.next_mix % self.mix.len()];
            self.next_mix += 1;
            let etag = if *kind == REVALIDATE {
                self.st.snap_tag
            } else {
                None
            };
            self.reads.get(target, etag, *kind, due);
            self.turn(Duration::ZERO);
        }
        Some(first..first + (span.as_secs_f64() * rate).floor() as usize)
    }

    /// Pumps until the read connection has nothing outstanding or
    /// `limit` passes.
    fn settle(&mut self, limit: Duration) {
        let t0 = Instant::now();
        while self.reads.outstanding() > 0 && t0.elapsed() < limit {
            self.turn(Duration::from_millis(1));
        }
    }
}

struct DashOut {
    st: DashState,
    /// The read generator's lateness and busy time in the fixed phase.
    lag: Recorder,
    busy: Duration,
    /// Reads due in the fixed phase, in issue order.
    fixed_reads: std::ops::Range<usize>,
    unanswered: u64,
    capacity_rps: Option<f64>,
}

fn run_dash(
    (delta, reads): (Client, Client),
    spec: &Spec,
    inputs: &Inputs,
    sh: &Shared,
    start: Instant,
    fixed: Duration,
    ladder_budget: Duration,
) -> DashOut {
    let mut d = Dash {
        delta,
        reads,
        st: DashState::default(),
        sh,
        mix: &inputs.reads,
        next_mix: 0,
        lag: Recorder::default(),
        polling: Duration::ZERO,
    };
    let fixed_reads = d
        .reads_at(start, spec.read_hz, fixed, usize::MAX)
        .expect("no cap on the fixed phase");
    // The generator's validity numbers cover the fixed-rate phase; the
    // ladders overload it on purpose.
    let (fixed_lag, fixed_busy) = (d.lag.clone(), start.elapsed().saturating_sub(d.polling));
    let mut capacity = None;
    if spec.ladder == Ladder::Read {
        capacity = Some(ladder(spec.read_hz, ladder_budget, |rate| {
            d.settle(Duration::from_millis(200));
            // Four times the queue Little's law allows at the limit
            // means the rung has failed; stopping there keeps the
            // server's backlog (and the rest of the run) sane.
            let cap = ((rate * READ_LIMIT_MS / 1e3) * 4.0).max(64.0) as usize;
            let Some(range) = d.reads_at(
                Instant::now() + Duration::from_millis(1),
                rate,
                Duration::from_millis(400),
                cap,
            ) else {
                return false;
            };
            d.settle(Duration::from_millis(100));
            let end = Instant::now();
            let mut rec = Recorder::default();
            for i in range.clone() {
                match d.st.reads.get(i) {
                    Some(r) => {
                        rec.record(r.received.unwrap_or(end).saturating_duration_since(r.due))
                    }
                    None => rec.record(Duration::from_millis(100)),
                }
            }
            rec.p99() <= READ_LIMIT_MS
        }));
        sh.stop_poles.store(true, Ordering::SeqCst);
    }
    // Keep reading at the fixed rate until the final publish is seen.
    let tail0 = Instant::now();
    while !(sh.final_epoch.load(Ordering::SeqCst) != 0
        && d.st.since >= sh.final_epoch.load(Ordering::SeqCst))
    {
        if tail0.elapsed() > Duration::from_secs(30) {
            d.st.errors.push(format!(
                "the final publish {} never reached /delta (at {}, poll outstanding: {}, reads outstanding: {})",
                sh.final_epoch.load(Ordering::SeqCst),
                d.st.since,
                d.delta.outstanding(),
                d.reads.outstanding()
            ));
            break;
        }
        d.reads_at(
            Instant::now(),
            spec.read_hz,
            Duration::from_millis(50),
            usize::MAX,
        );
    }
    d.settle(Duration::from_secs(2));
    let unanswered = d.reads.outstanding() as u64;
    d.reads.get("/snapshot", None, FINAL, Instant::now());
    let t0 = Instant::now();
    while d.st.final_snapshot.is_none() && t0.elapsed() < Duration::from_secs(5) {
        d.turn(Duration::from_millis(5));
    }
    // Reads are stored in completion order, which is issue order on a
    // pipelined connection; mark the fixed-phase ones.
    let upto = fixed_reads.end.min(d.st.reads.len());
    for r in &mut d.st.reads[fixed_reads.start.min(upto)..upto] {
        r.fixed = true;
    }
    DashOut {
        st: d.st,
        lag: fixed_lag,
        busy: fixed_busy,
        fixed_reads,
        unanswered,
        capacity_rps: capacity,
    }
}

// ------------------------------------------------------------- running

/// A named metric value with its unit.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Everything one run measured.
pub struct Outcome {
    pub correct: bool,
    pub gate_errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    /// Every end-to-end metric, including the workload-specific ones
    /// `BENCHMARK.json` cannot track on every workload.
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Human-readable checks of the per-layer accounting.
    pub notes: Vec<String>,
    pub spans: Option<Vec<String>>,
}

/// Whole-process CPU seconds from `/proc/self/stat` (utime + stime at
/// USER_HZ = 100).
fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    let fields: Vec<&str> = stat
        .rsplit(')')
        .next()
        .unwrap_or("")
        .split_whitespace()
        .collect();
    let ticks: u64 = [11, 12]
        .iter()
        .filter_map(|&i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks as f64 / 100.0
}

/// `VmHWM` (peak resident set) in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn median(mut v: Vec<f64>) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    v[v.len() / 2]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Compares the fused content of two snapshots: people, zones and the
/// per-pole rows, leaving out the clock-dependent fields.
fn fused_content(s: &fleet::CampusSnapshot) -> String {
    let people: Vec<String> = s
        .people
        .iter()
        .map(|p| {
            format!(
                "{:.6},{:.6},{:.6},{:?}",
                p.x, p.y, p.confidence, p.observers
            )
        })
        .collect();
    let zones: Vec<String> = s
        .zones
        .iter()
        .map(|z| format!("{},{}={}", z.zone_x, z.zone_y, z.count))
        .collect();
    let poles: Vec<String> = s
        .poles
        .iter()
        .map(|p| {
            format!(
                "{}:{}:{}:{}:{}",
                p.pole_id,
                p.count,
                p.seq,
                p.held,
                p.trust.as_str()
            )
        })
        .collect();
    format!(
        "occupancy={} unmapped={} people=[{}] zones=[{}] poles=[{}]",
        s.occupancy,
        s.unmapped,
        people.join(";"),
        zones.join(";"),
        poles.join(";")
    )
}

/// Runs workload `spec` for `seconds` on inputs from `seed`.
pub fn run(spec: &Spec, seed: u64, seconds: u64, trace: bool) -> Outcome {
    let total = Duration::from_secs(seconds.max(1));
    let (fixed, ladder_budget) = match spec.ladder {
        Ladder::None => (total, Duration::ZERO),
        _ => (total / 2, total / 2),
    };
    let t_gen = Instant::now();
    let inputs = generate(spec, seed, fixed);
    let gen_s = t_gen.elapsed().as_secs_f64();

    let warmup: Vec<_> = inputs.captures.iter().map(|c| c[0].clone()).collect();
    let (mut sys, setup_s) = setup_median(SETUPS.0, SETUPS.1, SETUPS.2, || {
        setup(if spec.counting {
            PoleKind::Counting(&warmup)
        } else {
            PoleKind::Wire(spec.poles)
        })
    });
    let clients = sys.clients.take().expect("fresh system has its clients");
    let poles = std::mem::replace(&mut sys.poles, Poles::Wire(Vec::new()));
    let sh = Shared {
        log: Arc::clone(&sys.log),
        seen: Mutex::new(Vec::new()),
        sent: AtomicU64::new(0),
        stop_poles: AtomicBool::new(false),
        final_epoch: AtomicU64::new(0),
        stamp: Stamp::now(),
    };
    let fused_before = sys.fused();
    let reactor = sys.reactor.take();
    let start = Instant::now() + Duration::from_millis(20);
    let cpu0 = cpu_seconds();
    let mut backlog_max = 0u64;
    let mut trace_work = Duration::ZERO;
    let mut cpu_frac = 0.0;
    let mut peak_mb = 0.0;
    let agg = &sys.aggregator;
    let fused = || agg.stats().reports - fused_before;
    let (poles, pole_out, dash_out, final_snap) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            let mut poles = poles;
            let out = run_poles(
                &mut poles,
                spec,
                &inputs,
                &sh,
                &fused,
                start,
                fixed,
                ladder_budget,
            );
            (poles, out)
        });
        let b = s.spawn(|| run_dash(clients, spec, &inputs, &sh, start, fixed, ladder_budget));
        let fixed_end = start + fixed;
        while !a.is_finished() {
            std::thread::sleep(Duration::from_millis(20));
            if Instant::now() >= fixed_end && cpu_frac == 0.0 {
                cpu_frac = (cpu_seconds() - cpu0) / fixed.as_secs_f64();
                // The ladders probe overload; peak memory is the
                // fixed-rate workload's.
                peak_mb = peak_rss_mb();
            }
            if trace && Instant::now() < fixed_end {
                let t0 = Instant::now();
                let backlog = sh.sent.load(Ordering::Relaxed).saturating_sub(fused());
                backlog_max = backlog_max.max(backlog);
                trace_work += t0.elapsed();
            }
        }
        let (poles, pole_out) = a.join().expect("pole generator panicked");
        // Drain, stop ingest, and publish the final campus view.
        let expect = sh.sent.load(Ordering::Relaxed);
        wait_fused(&fused, expect, Duration::from_secs(5));
        // The reactor drains everything already delivered before it
        // exits, so the snapshot after the join is the final state.
        agg.stop();
        if let Some(r) = reactor {
            r.join();
        }
        let final_snap = agg.snapshot();
        sh.final_epoch
            .store(agg.snapshot_cell().epoch(), Ordering::SeqCst);
        let dash_out = b.join().expect("dashboard generator panicked");
        (poles, pole_out, dash_out, final_snap)
    });
    if cpu_frac == 0.0 {
        cpu_frac = (cpu_seconds() - cpu0) / fixed.as_secs_f64();
        peak_mb = peak_rss_mb();
    }
    let run_end = Instant::now();
    sys.poles = poles;
    let stats = sys.aggregator.stats();
    let health = sys.aggregator.health();
    let serve_tel = sys.server.telemetry();
    let fresh = Freshness::new(&sys.log, &sh.seen);
    let capture = sys.capture.as_ref().map(|c| c.lock().clone());
    let registry = sys.registry.clone();
    sys.teardown();

    // ---- gates
    let mut gate_errors = dash_out.st.errors.clone();
    match &dash_out.st.final_snapshot {
        Some((tag, people)) => {
            let mut want: BTreeMap<String, u32> = BTreeMap::new();
            for p in people {
                *want.entry(p.clone()).or_insert(0) += 1;
            }
            if *tag != dash_out.st.since {
                gate_errors.push(format!(
                    "final /snapshot seq {tag} but /delta ended at {}",
                    dash_out.st.since
                ));
            } else if want != dash_out.st.composed {
                gate_errors.push(format!(
                    "/delta composed back ({} people) differs from the final /snapshot ({} people)",
                    dash_out.st.composed.values().sum::<u32>(),
                    people.len()
                ));
            }
        }
        None => gate_errors.push("the final /snapshot was never answered".into()),
    }
    let captured = capture.map(|bytes| fleet::read_capture(&bytes).expect("own capture parses"));
    if let Some(records) = &captured {
        let replayed = fleet::replay(
            records,
            registry,
            WalkwayConfig::default(),
            fleet::FusionConfig::default(),
            1,
            Duration::from_millis(250),
        );
        match replayed.last() {
            Some(r) if fused_content(r) == fused_content(&final_snap) => {}
            Some(r) => gate_errors.push(format!(
                "final snapshot differs from the replay of its own capture:\n  live   {}\n  replay {}",
                fused_content(&final_snap),
                fused_content(r)
            )),
            None => gate_errors.push("the wire capture replayed to nothing".into()),
        }
    } else {
        let want = 2 * spec.poles as u32 - 1;
        if final_snap.occupancy != want {
            gate_errors.push(format!(
                "fused occupancy {} is not 2N−1 = {want}",
                final_snap.occupancy
            ));
        }
    }
    if spec.ladder == Ladder::Ingest {
        let fused_fixed = pole_out.fused_after_fixed.unwrap_or(0);
        if fused_fixed != pole_out.fixed_sent {
            gate_errors.push(format!(
                "FusionStats.reports {fused_fixed} after the fixed phase, {} reports sent",
                pole_out.fixed_sent
            ));
        }
    }

    // ---- end-to-end
    let fixed_sent: Vec<Sent> = pole_out
        .fixed
        .iter()
        .copied()
        .filter(|s| s.due < start + fixed)
        .collect();
    // Tail percentiles are medians over five windows of the phase.
    let windows = || Windowed::new(start, fixed, 5);
    let mut frame = windows();
    for s in &fixed_sent {
        frame.record(s.due, s.done - s.due);
    }
    let (stale_samples, never_seen) = staleness(&fixed_sent, &fresh, run_end);
    let mut stale = windows();
    for (due, d) in stale_samples {
        stale.record(due, d);
    }
    let fixed_reads: Vec<&Read> = dash_out.st.reads.iter().filter(|r| r.fixed).collect();
    let fixed_due = dash_out.fixed_reads.len() as u64;
    let mut read = windows();
    for r in &fixed_reads {
        read.record(
            r.due,
            r.received
                .unwrap_or(run_end)
                .saturating_duration_since(r.due),
        );
    }
    let lost_reads = fixed_due.saturating_sub(fixed_reads.len() as u64);
    for _ in 0..lost_reads {
        read.record(run_end, run_end.saturating_duration_since(start));
    }
    let bad_reads = fixed_reads
        .iter()
        .filter(|r| r.status != 200 && r.status != 304)
        .count() as u64;
    let (held, panicked) = pole_out.frames.iter().fold((0, 0), |(h, p), f| {
        (h + u64::from(f.held), p + u64::from(f.panicked))
    });
    let unfused = match spec.ladder {
        Ladder::Ingest => pole_out
            .fixed_sent
            .saturating_sub(pole_out.fused_after_fixed.unwrap_or(0)),
        _ => sh
            .sent
            .load(Ordering::Relaxed)
            .saturating_sub(stats.reports - fused_before),
    };
    let attempted = fixed_sent.len() as u64 + fixed_due;
    let failed = held + panicked + unfused.max(never_seen) + bad_reads + lost_reads;
    let count_mae = if pole_out.frames.is_empty() {
        0.0
    } else {
        pole_out
            .frames
            .iter()
            .map(|f| f.abs_err as f64)
            .sum::<f64>()
            / pole_out.frames.len() as f64
    };
    let end_to_end = vec![
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("frame_p50_ms", frame.p50(), "ms"),
        Metric::new("frame_p99_ms", frame.p99(), "ms"),
        Metric::new("staleness_p50_ms", stale.p50(), "ms"),
        Metric::new("staleness_p99_ms", stale.p99(), "ms"),
        Metric::new("read_p50_ms", read.p50(), "ms"),
        Metric::new("read_p99_ms", read.p99(), "ms"),
        Metric::new("peak_rss_mb", peak_mb, "MiB"),
        Metric::new("count_mae", count_mae, "people"),
        Metric::new(
            "ingest_capacity_rps",
            pole_out.capacity_rps.unwrap_or(0.0),
            "1/s",
        ),
        Metric::new(
            "read_capacity_rps",
            dash_out.capacity_rps.unwrap_or(0.0),
            "1/s",
        ),
        Metric::new(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "frac",
        ),
    ];

    // ---- per-layer (derived from the same timestamps the spans use)
    let mut lag = dash_out.lag.clone();
    let mut pole_busy = Duration::ZERO;
    for s in &fixed_sent {
        lag.record(s.start.saturating_duration_since(s.due));
        pole_busy += s.done - s.start;
    }
    let stage = |f: fn(&StageMs) -> f64| {
        median(
            pole_out
                .frames
                .iter()
                .filter_map(|fr| fr.stages.as_ref().map(f))
                .collect(),
        )
    };
    let supervise = median(
        pole_out
            .frames
            .iter()
            .filter_map(|f| {
                f.stages.map(|s| {
                    f.elapsed_ms
                        - s.clustering_ms
                        - s.upsample_ms
                        - s.projection_ms
                        - s.classification_ms
                })
            })
            .collect(),
    );
    let nframes = pole_out.frames.len().max(1) as f64;
    let frac = |pred: fn(&Frame) -> bool| {
        pole_out.frames.iter().filter(|f| pred(f)).count() as f64 / nframes
    };
    let uplink = median(
        fixed_sent
            .iter()
            .zip(&pole_out.frames)
            .map(|(s, f)| (ms(s.done - s.start) - f.elapsed_ms).max(0.0))
            .collect(),
    );
    // Wire bytes from the poles: the agents' own frames are read back
    // from the wire capture; wire-only poles counted what they sent.
    let (wire_bytes, report_bytes, n_reports) = match &captured {
        Some(records) => records.iter().fold((0, 0, 0), |(all, rep, n), r| {
            let is_report = matches!(fleet::decode(&r.frame), Ok(Some((Message::Report(_), _))));
            let len = r.frame.len() as u64;
            (
                all + len,
                rep + if is_report { len } else { 0 },
                n + u64::from(is_report),
            )
        }),
        None => (
            pole_out.wire_bytes,
            pole_out.wire_bytes,
            fixed_sent.len() as u64,
        ),
    };
    let mut i2p = Recorder::default();
    let mut p2r = Recorder::default();
    for s in &fixed_sent {
        if let Some(e) = fresh.first(s.pole, s.seq) {
            i2p.record(fresh.at[e].saturating_duration_since(s.done));
            if let Some(r) = fresh.read_at[e] {
                p2r.record(r.saturating_duration_since(fresh.at[e]));
            }
        }
    }
    let in_fixed: Vec<usize> = (0..fresh.at.len())
        .filter(|&e| fresh.at[e] >= start && fresh.at[e] < start + fixed)
        .collect();
    let intervals: Vec<f64> = in_fixed
        .windows(2)
        .map(|w| ms(fresh.at[w[1]] - fresh.at[w[0]]))
        .collect();
    let mut queue = Recorder::default();
    let mut server = Recorder::default();
    let mut resp_bytes = 0u64;
    for r in &fixed_reads {
        if let (Some(w), Some(rc)) = (r.written, r.received) {
            queue.record(w.saturating_duration_since(r.due));
            server.record(rc.saturating_duration_since(w));
        }
        resp_bytes += r.bytes as u64;
    }
    let hits = fixed_reads.iter().filter(|r| r.status == 304).count() as f64;
    let shed = obs::telemetry_snapshot().counter("fleet.agg.inflight_dropped");
    let handle_ms = serve_tel
        .histogram_summaries()
        .into_iter()
        .find(|h| h.name == "serve.handle_ms")
        .map_or(0.0, |h| h.p50_ms);
    let r4xx = serve_tel.counter("serve.4xx");
    let gen_busy = (pole_busy + dash_out.busy).as_secs_f64() / (2.0 * fixed.as_secs_f64());
    let per_layer = vec![
        Metric::new("loadgen.lag_p99_ms", lag.p99(), "ms"),
        Metric::new("loadgen.busy_frac", gen_busy, "frac"),
        Metric::new("loadgen.gen_s", gen_s, "s"),
        Metric::new("counting.clustering_ms", stage(|s| s.clustering_ms), "ms"),
        Metric::new("counting.upsample_ms", stage(|s| s.upsample_ms), "ms"),
        Metric::new("counting.projection_ms", stage(|s| s.projection_ms), "ms"),
        Metric::new(
            "counting.classification_ms",
            stage(|s| s.classification_ms),
            "ms",
        ),
        Metric::new("counting.supervise_ms", supervise, "ms"),
        Metric::new(
            "counting.clusters_per_frame",
            pole_out.frames.iter().map(|f| f.clusters).sum::<usize>() as f64 / nframes,
            "count",
        ),
        Metric::new(
            "counting.deadline_miss_frac",
            frac(|f| f.deadline_missed),
            "frac",
        ),
        Metric::new("counting.degraded_frac", frac(|f| f.degraded), "frac"),
        Metric::new("counting.held_frac", frac(|f| f.held), "frac"),
        Metric::new("agent.uplink_ms", uplink, "ms"),
        Metric::new(
            "agent.bytes_per_report",
            report_bytes as f64 / n_reports.max(1) as f64,
            "B",
        ),
        Metric::new(
            "agent.dropped_oldest",
            pole_out.dropped_oldest as f64,
            "count",
        ),
        Metric::new("fleet.ingest_to_publish_p50_ms", i2p.p50(), "ms"),
        Metric::new("fleet.ingest_to_publish_p99_ms", i2p.p99(), "ms"),
        Metric::new("fleet.publish_interval_ms", median(intervals), "ms"),
        Metric::new("fleet.publish_count", in_fixed.len() as f64, "count"),
        Metric::new(
            "fleet.capture_to_fuse_ms",
            health.campus_ingest.summary().p50_ms,
            "ms",
        ),
        Metric::new(
            "fleet.fused_frac",
            (stats.reports - fused_before) as f64 / sh.sent.load(Ordering::Relaxed).max(1) as f64,
            "frac",
        ),
        Metric::new("fleet.shed", shed as f64, "count"),
        Metric::new("fleet.backlog_max", backlog_max as f64, "count"),
        Metric::new("fleet.cpu_frac", cpu_frac, "frac"),
        Metric::new(
            "fleet.snapshot_people",
            in_fixed.last().map_or(0.0, |&e| fresh.people[e] as f64),
            "count",
        ),
        Metric::new("fleet.wire_bytes_in", wire_bytes as f64, "B"),
        Metric::new("serve.publish_to_read_p50_ms", p2r.p50(), "ms"),
        Metric::new("serve.publish_to_read_p99_ms", p2r.p99(), "ms"),
        Metric::new("serve.queue_ms", queue.p50(), "ms"),
        Metric::new("serve.server_p50_ms", server.p50(), "ms"),
        Metric::new("serve.server_p99_ms", server.p99(), "ms"),
        Metric::new(
            "serve.hit_ratio",
            hits / fixed_reads.len().max(1) as f64,
            "frac",
        ),
        Metric::new(
            "serve.bytes_per_response",
            resp_bytes as f64 / fixed_reads.len().max(1) as f64,
            "B",
        ),
        Metric::new("serve.handle_ms", handle_ms, "ms"),
        Metric::new("serve.r4xx", r4xx as f64, "count"),
        Metric::new("serve.unanswered", dash_out.unanswered as f64, "count"),
        Metric::new(
            "trace.overhead_frac",
            trace_work.as_secs_f64() / fixed.as_secs_f64(),
            "frac",
        ),
    ];
    let lookup = |name: &str| {
        per_layer
            .iter()
            .chain(&end_to_end)
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let mut notes = vec![format!(
        "failed: held {held}, panicked {panicked}, unfused {unfused}, never read {never_seen}, non-200/304 {bad_reads}, unanswered {lost_reads}"
    )];
    if spec.counting {
        let parts = [
            "counting.clustering_ms",
            "counting.upsample_ms",
            "counting.projection_ms",
            "counting.classification_ms",
            "counting.supervise_ms",
            "agent.uplink_ms",
        ];
        notes.push(format!(
            "frame_p50_ms {:.3} vs generator lag p50 {:.3} + stage and uplink medians {:.3}",
            lookup("frame_p50_ms"),
            lag.p50(),
            parts.iter().map(|p| lookup(p)).sum::<f64>()
        ));
    }
    notes.push(format!(
        "staleness_p50_ms {:.1} vs frame p50 {:.1} + fleet.ingest_to_publish_p50_ms {:.1} + serve.publish_to_read_p50_ms {:.1}",
        lookup("staleness_p50_ms"),
        lookup("frame_p50_ms"),
        i2p.p50(),
        p2r.p50()
    ));
    let spans = trace.then(|| spans(&fixed_sent, &pole_out.frames, &fixed_reads, &fresh, start));
    Outcome {
        correct: gate_errors.is_empty(),
        gate_errors,
        attempted,
        failed,
        end_to_end,
        per_layer,
        notes,
        spans,
    }
}

/// The traced run's spans, one JSON object per line: the benchmark's
/// own calls (loadgen due → `agent.step` or the wire send → hook
/// publish → HTTP response), counting stages as children of the step
/// they ran in. Times are µs since the first scheduled operation.
fn spans(
    sent: &[Sent],
    frames: &[Frame],
    reads: &[&Read],
    fresh: &Freshness,
    t0: Instant,
) -> Vec<String> {
    let us = |t: Instant| t.saturating_duration_since(t0).as_secs_f64() * 1e6;
    let mut out = Vec::new();
    let mut span = |trace: &str, name: &str, parent: Option<&str>, a: f64, b: f64| {
        let parent = parent.map_or("null".to_string(), |p| format!("\"{p}\""));
        out.push(format!(
            "{{\"trace\":\"{trace}\",\"span\":\"{name}\",\"parent\":{parent},\"start_us\":{a:.1},\"end_us\":{b:.1}}}"
        ));
    };
    for (i, s) in sent.iter().enumerate() {
        let id = format!("r{}.{}", s.pole, s.seq);
        span(&id, "loadgen.report", None, us(s.due), us(s.done));
        span(
            &id,
            "loadgen.lag",
            Some("loadgen.report"),
            us(s.due),
            us(s.start),
        );
        span(
            &id,
            "pole.send",
            Some("loadgen.report"),
            us(s.start),
            us(s.done),
        );
        if let Some(st) = frames.get(i).and_then(|f| f.stages) {
            let mut at = us(s.start);
            for (name, d) in [
                ("counting.clustering", st.clustering_ms),
                ("counting.upsample", st.upsample_ms),
                ("counting.projection", st.projection_ms),
                ("counting.classification", st.classification_ms),
            ] {
                span(&id, name, Some("pole.send"), at, at + d * 1e3);
                at += d * 1e3;
            }
        }
        if let Some(e) = fresh.first(s.pole, s.seq) {
            span(
                &id,
                "fleet.ingest_to_publish",
                None,
                us(s.done),
                us(fresh.at[e]),
            );
            if let Some(r) = fresh.read_at[e] {
                span(&id, "serve.publish_to_read", None, us(fresh.at[e]), us(r));
            }
        }
    }
    for (i, r) in reads.iter().enumerate() {
        let id = format!("q{i}");
        if let (Some(w), Some(rc)) = (r.written, r.received) {
            span(&id, "loadgen.read", None, us(r.due), us(rc));
            span(&id, "serve.queue", Some("loadgen.read"), us(r.due), us(w));
            span(&id, "serve.server", Some("loadgen.read"), us(w), us(rc));
        }
    }
    out
}
