//! The campus side of the fleet: fusion, liveness, and occupancy.
//!
//! [`FusionCore`] holds one slot per pole, keyed by `pole_id` and
//! updated **last-sequence-wins**: a report only replaces the slot if
//! its `seq` is newer than what the slot holds. That one rule makes
//! the whole tier order-independent — a campus snapshot is a pure
//! function of *which* reports have arrived, not of the order, the
//! socket, or the thread they arrived on. The integration tests pin
//! this by fusing the same traffic through one thread and through
//! eight and demanding bit-identical snapshots.
//!
//! # Dedup geometry
//!
//! Poles overlap on purpose (a corridor surveyed every 15 m with a
//! 23 m ROI sees every walker twice near the seams). Each report
//! carries cluster centroids in the pole's own frame; fusion maps
//! them to campus coordinates through the surveyed
//! [`world::PoleRegistry`] pose and greedily merges any two
//! observations within [`FusionConfig::dedup_radius_m`] (in the
//! ground plane) into one fused person. The greedy pass runs over
//! observations sorted by `(pole_id, cluster index)`, so it is
//! deterministic given the fused state.
//!
//! # Zone sharding
//!
//! At city scale one fusion lock is the bottleneck, so
//! [`ShardedFusion`] splits the campus into zone bands: each
//! registered pole routes to the shard owning its zone column, each
//! shard runs a full [`FusionCore`] behind its own lock, and
//! snapshots are assembled from per-shard gathers. The greedy dedup
//! only ever interacts within connected components of the
//! within-radius graph, so components are computed exactly (grid
//! hash + union-find) and people seen across a seam — a component
//! spanning two shards' observations — are handed off into one
//! campus-wide merge before dedup. The result is bit-identical to
//! running the same traffic through a single core, which the replay
//! fixture and the soak bench pin. Published snapshots go through a
//! [`SnapshotCell`] (epoch + double buffer) so dashboard readers
//! never take a fusion lock.
//!
//! # Liveness
//!
//! A pole is [`Liveness::Live`] while messages keep arriving,
//! [`Liveness::Stale`] after [`FusionConfig::stale_after_ms`] of
//! silence, and [`Liveness::Dead`] after
//! [`FusionConfig::dead_after_ms`] (or immediately on an orderly
//! `Bye`). Dead poles keep their slot — the dashboard should show
//! *which* pole died — but stop contributing people to occupancy.
//!
//! # Ingest
//!
//! [`Aggregator`] feeds fusion through a single path, the
//! [`crate::reactor`]: each connection's bytes run through one ingest
//! lane (decode, inflight shed, capture tap, sentinel verdict) and a
//! worker pool folds the admitted messages into [`ShardedFusion`].
//! [`crate::replay`] drives the same lane over a recording into a
//! lone [`FusionCore`], so a live run's own capture is its
//! determinism oracle.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use counting::HealthState;
use obs::{Clock, Histogram, HistogramCells, SystemClock, TelemetrySnapshot};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use world::{PoleRegistry, WalkwayConfig};

use crate::capture::CaptureWriter;
use crate::checkpoint::{Checkpoint, CheckpointError, SlotCheckpoint};
use crate::health::{EventJournal, FleetEvent, FleetEventKind, FleetHealth, PoleHealth};
use crate::reactor::{self, Intake, ReactorHandle};
use crate::sentinel::{Disposition, PoleTrust, Sentinel, SentinelConfig, TrustState};
use crate::transport::Transport;
use crate::wire::{Message, PoleReport};

/// Fusion and liveness tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FusionConfig {
    /// Ground-plane radius (m) within which two cluster centroids
    /// from different poles are the same person. The paper's walkway
    /// data puts nearest-neighbour pedestrian spacing well above a
    /// shoulder width; 0.75 m merges double-sightings without gluing
    /// genuinely separate walkers.
    pub dedup_radius_m: f64,
    /// Silence (ms) after which a pole turns [`Liveness::Stale`].
    pub stale_after_ms: f64,
    /// Silence (ms) after which a pole turns [`Liveness::Dead`] and
    /// its people leave the fused count.
    pub dead_after_ms: f64,
    /// Edge length (m) of the campus occupancy grid zones.
    pub zone_size_m: f64,
    /// Byzantine-input hardening thresholds (see [`SentinelConfig`]).
    pub sentinel: SentinelConfig,
}

impl Default for FusionConfig {
    fn default() -> Self {
        FusionConfig {
            dedup_radius_m: 0.75,
            stale_after_ms: 2_000.0,
            dead_after_ms: 5_000.0,
            zone_size_m: 20.0,
            sentinel: SentinelConfig::default(),
        }
    }
}

/// Per-pole liveness as judged by the aggregator's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Liveness {
    /// Heard from recently.
    Live,
    /// Quiet past the stale threshold; last data still trusted.
    Stale,
    /// Quiet past the dead threshold (or said `Bye`); excluded from
    /// occupancy.
    Dead,
}

impl Liveness {
    /// Dashboard label.
    pub fn as_str(&self) -> &'static str {
        match self {
            Liveness::Live => "live",
            Liveness::Stale => "stale",
            Liveness::Dead => "dead",
        }
    }
}

/// One pole's row in a campus snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PoleStatus {
    /// Pole id.
    pub pole_id: u32,
    /// Liveness at snapshot time.
    pub liveness: Liveness,
    /// Supervisor health from the last report, if any arrived.
    pub health: Option<HealthState>,
    /// Last reported count.
    pub count: u32,
    /// Last accepted report sequence.
    pub seq: u64,
    /// Milliseconds since the aggregator last heard this pole.
    pub silence_ms: f64,
    /// Whether the last report was a held (stale) count.
    pub held: bool,
    /// Where the pole sits on the sentinel's trust ladder.
    pub trust: TrustState,
}

/// One deduplicated pedestrian in campus coordinates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FusedPerson {
    /// Campus-frame ground position.
    pub x: f64,
    /// Campus-frame ground position.
    pub y: f64,
    /// Best confidence among merged observations.
    pub confidence: f64,
    /// Poles that saw this person (ascending, first is the keeper of
    /// the position).
    pub observers: Vec<u32>,
}

/// Per-zone occupancy on the campus grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ZoneOccupancy {
    /// Grid column (`floor(x / zone_size)`).
    pub zone_x: i32,
    /// Grid row (`floor(y / zone_size)`).
    pub zone_y: i32,
    /// Fused people inside the zone.
    pub count: u32,
}

/// A time-windowed view of the whole campus.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct CampusSnapshot {
    /// Aggregator-clock timestamp, ms.
    pub at_ms: f64,
    /// Total fused occupancy: deduplicated people plus unmapped
    /// scalar counts.
    pub occupancy: u32,
    /// Deduplicated pedestrians with campus positions.
    pub people: Vec<FusedPerson>,
    /// Counts that could not be placed on the map (held reports carry
    /// no clusters; unregistered poles have no surveyed pose). These
    /// skip dedup, so overlap-zone people may count twice while a
    /// pole is holding.
    pub unmapped: u32,
    /// Non-empty occupancy grid zones, ascending `(zone_x, zone_y)`.
    pub zones: Vec<ZoneOccupancy>,
    /// Every known pole, ascending id.
    pub poles: Vec<PoleStatus>,
    /// Poles currently [`Liveness::Live`].
    pub live: u32,
    /// Poles currently [`Liveness::Stale`].
    pub stale: u32,
    /// Poles currently [`Liveness::Dead`].
    pub dead: u32,
    /// Poles whose trust is [`TrustState::Quarantined`] or worse —
    /// alive, counted in liveness, but excluded from fused occupancy.
    pub quarantined: u32,
    /// 95th-percentile silence across non-dead poles, ms.
    pub p95_silence_ms: f64,
}

/// Renders an `f64` as a JSON number, or `null` when it is not
/// finite. `format!("{v:.3}")` happily prints `NaN` and `inf`, which
/// are not JSON — a poisoned silence percentile must not corrupt the
/// export stream or the HTTP serving tier that reuses it.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_string()
    }
}

impl CampusSnapshot {
    /// One JSONL line for dashboards and the soak bench. Non-finite
    /// values render as `null` so the line stays parseable JSON even
    /// when a derived rate degenerates.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256);
        s.push_str(&format!(
            "{{\"at_ms\":{},\"occupancy\":{},\"unmapped\":{},\"live\":{},\"stale\":{},\"dead\":{},\"quarantined\":{},\"p95_silence_ms\":{},\"people\":[",
            json_num(self.at_ms),
            self.occupancy,
            self.unmapped,
            self.live,
            self.stale,
            self.dead,
            self.quarantined,
            json_num(self.p95_silence_ms)
        ));
        for (i, p) in self.people.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"x\":{},\"y\":{},\"confidence\":{},\"observers\":{:?}}}",
                json_num(p.x),
                json_num(p.y),
                json_num(p.confidence),
                p.observers
            ));
        }
        s.push_str("],\"poles\":[");
        for (i, p) in self.poles.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "{{\"pole_id\":{},\"liveness\":\"{}\",\"trust\":\"{}\",\"count\":{},\"seq\":{},\"silence_ms\":{},\"held\":{}}}",
                p.pole_id,
                p.liveness.as_str(),
                p.trust.as_str(),
                p.count,
                p.seq,
                json_num(p.silence_ms),
                p.held
            ));
        }
        s.push_str("]}");
        s
    }
}

/// Cumulative aggregator counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct FusionStats {
    /// Reports accepted into pole slots.
    pub reports: u64,
    /// Reports discarded because a newer `seq` was already fused
    /// (reorders and duplicates).
    pub stale_discards: u64,
    /// Heartbeats ingested.
    pub heartbeats: u64,
    /// Hello messages ingested.
    pub hellos: u64,
    /// Bye messages ingested.
    pub byes: u64,
    /// Telemetry frames ingested.
    pub telemetry: u64,
    /// Messages the sentinel rejected outright (active bans, pole-id
    /// conflicts).
    pub rejected: u64,
    /// Messages ingested while their pole was quarantined (slot
    /// updated, excluded from fusion).
    pub quarantined: u64,
}

impl FusionStats {
    /// Accumulates another shard's counters into this one (shards
    /// partition the traffic, so campus totals are plain sums).
    pub fn absorb(&mut self, other: &FusionStats) {
        self.reports += other.reports;
        self.stale_discards += other.stale_discards;
        self.heartbeats += other.heartbeats;
        self.hellos += other.hellos;
        self.byes += other.byes;
        self.telemetry += other.telemetry;
        self.rejected += other.rejected;
        self.quarantined += other.quarantined;
    }
}

#[derive(Debug, Clone)]
struct PoleSlot {
    report: Option<PoleReport>,
    last_seq: u64,
    heard_at: Duration,
    said_bye: bool,
    /// Last liveness journalled for this pole; transitions (including
    /// the passive Live→Stale→Dead walks that happen in silence) are
    /// detected against it at every observation point.
    liveness_seen: Liveness,
}

/// Per-pole observability state: everything the scoreboard knows that
/// a [`CampusSnapshot`] must not depend on.
#[derive(Debug, Default)]
struct PoleObs {
    /// End-to-end ingest latency (capture → fused slot), ms.
    ingest: Histogram,
    /// Merged telemetry windows.
    telemetry: TelemetrySnapshot,
    /// Telemetry frames received.
    telemetry_frames: u64,
    /// `window_ms` of the latest telemetry frame.
    last_window_ms: f64,
}

/// The fusion state machine: ingest wire messages, answer campus
/// snapshots. Thread-agnostic — wrap it in [`Aggregator`] for the
/// threaded service.
#[derive(Debug)]
pub struct FusionCore {
    registry: PoleRegistry,
    walkway: WalkwayConfig,
    cfg: FusionConfig,
    clock: Arc<dyn Clock>,
    slots: BTreeMap<u32, PoleSlot>,
    stats: FusionStats,
    obs: BTreeMap<u32, PoleObs>,
    journal: EventJournal,
    sentinel: Sentinel,
}

/// What [`FusionCore::ingest_from`] did with one message, and what
/// the delivering connection should do about it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestVerdict {
    /// The sentinel's judgement of the message.
    pub disposition: Disposition,
    /// Whether the delivering connection should be dropped (a ban, or
    /// a pole-id conflict past the strike limit).
    pub drop_connection: bool,
}

impl FusionCore {
    /// A core fusing against the surveyed `registry` on the system
    /// clock.
    pub fn new(registry: PoleRegistry, walkway: WalkwayConfig, cfg: FusionConfig) -> Self {
        let sentinel = Sentinel::new(cfg.sentinel, &registry, &walkway);
        FusionCore {
            registry,
            walkway,
            cfg,
            clock: Arc::new(SystemClock),
            slots: BTreeMap::new(),
            stats: FusionStats::default(),
            obs: BTreeMap::new(),
            journal: EventJournal::default(),
            sentinel,
        }
    }

    /// Replaces the liveness clock (deterministic tests).
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> Self {
        self.clock = clock;
        self
    }

    /// A handle to the core's clock (connection readers stamp frame
    /// arrivals on the same timeline the core fuses on).
    pub fn clock_handle(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> FusionStats {
        self.stats
    }

    /// The surveyed registry the core fuses against.
    pub fn registry(&self) -> &PoleRegistry {
        &self.registry
    }

    /// Every pole's current sentinel trust record.
    pub fn trust(&self) -> Vec<PoleTrust> {
        let now_ms = self.clock.now().as_secs_f64() * 1e3;
        self.sentinel.export(now_ms)
    }

    /// Folds one wire message into the fused state (direct ingest — no
    /// connection identity, so pole-id conflict tracking is skipped).
    pub fn ingest(&mut self, msg: Message) {
        self.ingest_from(0, msg);
    }

    /// Folds one wire message delivered by connection `conn_id` into
    /// the fused state, after the sentinel has judged it. `conn_id` 0
    /// means "direct ingest, no connection identity".
    pub fn ingest_from(&mut self, conn_id: u32, msg: Message) -> IngestVerdict {
        let now = self.clock.now();
        let now_ms = now.as_secs_f64() * 1e3;
        // Catch any passive Live→Stale→Dead walk that happened in
        // silence before this message, so the journal shows the decay
        // *before* the resurrection it is about to cause.
        let touched = msg.pole_id();
        self.note_liveness(touched, now);

        let last_seq = self.slots.get(&touched).map_or(0, |s| s.last_seq);
        let was_banned = self.sentinel.state_of(touched) == TrustState::Banned;
        let inspection = self.sentinel.inspect(conn_id, &msg, now_ms, last_seq);
        if let Some((from, to)) = inspection.transition {
            obs::incr("fleet.agg.trust_transitions", 1);
            self.journal.push(FleetEvent {
                at_ms: now_ms,
                pole_id: touched,
                kind: FleetEventKind::TrustChanged { from, to },
            });
        }
        match inspection.disposition {
            Disposition::Reject => {
                // Rejected messages never touch the slot: a banned
                // pole walks Stale→Dead exactly as if it were silent,
                // and a conflicting connection cannot refresh the
                // liveness of the pole it is impersonating.
                self.stats.rejected += 1;
                obs::incr("fleet.agg.rejected", 1);
                if was_banned && matches!(msg, Message::Hello { .. }) {
                    obs::incr("fleet.agg.ban_rejects", 1);
                    self.journal.push(FleetEvent {
                        at_ms: now_ms,
                        pole_id: touched,
                        kind: FleetEventKind::BanRejected,
                    });
                }
                return IngestVerdict {
                    disposition: Disposition::Reject,
                    drop_connection: inspection.drop_connection,
                };
            }
            Disposition::Quarantine => {
                // Quarantined traffic still updates the slot (so
                // de-escalation restores data instantly) — the
                // exclusion happens at snapshot time.
                self.stats.quarantined += 1;
                obs::incr("fleet.agg.quarantined", 1);
            }
            Disposition::Fuse => {}
        }

        match msg {
            Message::Hello { pole_id } => {
                self.stats.hellos += 1;
                obs::incr("fleet.agg.hellos", 1);
                let is_new = !self.slots.contains_key(&pole_id);
                let slot = Self::slot_entry(&mut self.slots, pole_id, now);
                slot.heard_at = now;
                slot.said_bye = false;
                let kind = if is_new {
                    FleetEventKind::Connected
                } else {
                    obs::incr("fleet.agg.reconnects", 1);
                    FleetEventKind::Reconnected
                };
                self.journal.push(FleetEvent {
                    at_ms: now_ms,
                    pole_id,
                    kind,
                });
            }
            Message::Report(report) => {
                let pole_id = report.pole_id;
                let slot = Self::slot_entry(&mut self.slots, pole_id, now);
                slot.heard_at = now;
                slot.said_bye = false;
                if report.seq > slot.last_seq {
                    // Journal supervisor-side transitions by diffing
                    // the previous accepted report against this one.
                    if let Some(prev) = &slot.report {
                        if prev.health != report.health {
                            self.journal.push(FleetEvent {
                                at_ms: now_ms,
                                pole_id,
                                kind: FleetEventKind::HealthChanged {
                                    from: prev.health,
                                    to: report.health,
                                },
                            });
                        }
                        if prev.eps_rung != report.eps_rung || prev.precision != report.precision {
                            self.journal.push(FleetEvent {
                                at_ms: now_ms,
                                pole_id,
                                kind: FleetEventKind::LadderChanged {
                                    from: format!(
                                        "{}/{}",
                                        prev.eps_rung.as_str(),
                                        prev.precision.as_str()
                                    ),
                                    to: format!(
                                        "{}/{}",
                                        report.eps_rung.as_str(),
                                        report.precision.as_str()
                                    ),
                                },
                            });
                        }
                    }
                    // Trace context: the pole stamped capture_ms on
                    // its own clock; both ends share the process
                    // epoch in-process (and NTP in the field), so the
                    // difference is the capture→fuse ingest latency.
                    // Skewed stamps (negative latency, or past the
                    // plausible-skew ceiling) are clamped so one bad
                    // clock cannot poison the campus p99.
                    if let Some(capture_ms) = report.capture_ms {
                        let raw_ms = now_ms - capture_ms;
                        let cap = self.cfg.sentinel.max_clock_skew_ms;
                        let latency_ms = raw_ms.clamp(0.0, cap);
                        if raw_ms < 0.0 || raw_ms > cap {
                            obs::incr("fleet.ingest.clock_skew_clamped", 1);
                        }
                        self.obs
                            .entry(pole_id)
                            .or_default()
                            .ingest
                            .observe(latency_ms);
                        obs::observe_ms("fleet.agg.ingest", latency_ms);
                    }
                    slot.last_seq = report.seq;
                    slot.report = Some(report);
                    self.stats.reports += 1;
                    obs::incr("fleet.agg.reports", 1);
                } else {
                    self.stats.stale_discards += 1;
                    obs::incr("fleet.agg.stale_discards", 1);
                }
            }
            Message::Heartbeat(hb) => {
                self.stats.heartbeats += 1;
                obs::incr("fleet.agg.heartbeats", 1);
                let slot = Self::slot_entry(&mut self.slots, hb.pole_id, now);
                slot.heard_at = now;
                slot.said_bye = false;
            }
            Message::Telemetry(frame) => {
                self.stats.telemetry += 1;
                obs::incr("fleet.agg.telemetry", 1);
                let slot = Self::slot_entry(&mut self.slots, frame.pole_id, now);
                slot.heard_at = now;
                slot.said_bye = false;
                let pole = self.obs.entry(frame.pole_id).or_default();
                pole.telemetry.merge(&frame.snapshot);
                pole.telemetry_frames += 1;
                pole.last_window_ms = frame.window_ms;
            }
            Message::Bye { pole_id } => {
                self.stats.byes += 1;
                obs::incr("fleet.agg.byes", 1);
                let slot = Self::slot_entry(&mut self.slots, pole_id, now);
                slot.heard_at = now;
                slot.said_bye = true;
                self.journal.push(FleetEvent {
                    at_ms: now_ms,
                    pole_id,
                    kind: FleetEventKind::Bye,
                });
            }
        }
        // And the transition this message itself caused (resurrection,
        // Bye→Dead).
        self.note_liveness(touched, now);
        IngestVerdict {
            disposition: inspection.disposition,
            drop_connection: inspection.drop_connection,
        }
    }

    fn slot_entry(
        slots: &mut BTreeMap<u32, PoleSlot>,
        pole_id: u32,
        now: Duration,
    ) -> &mut PoleSlot {
        slots.entry(pole_id).or_insert_with(|| PoleSlot {
            report: None,
            last_seq: 0,
            heard_at: now,
            said_bye: false,
            liveness_seen: Liveness::Live,
        })
    }

    /// Journals a liveness transition for `pole_id` if its computed
    /// liveness differs from the last one seen. No-op for unknown
    /// poles.
    fn note_liveness(&mut self, pole_id: u32, now: Duration) {
        let Some(slot) = self.slots.get_mut(&pole_id) else {
            return;
        };
        let liveness = liveness_of(&self.cfg, slot, now);
        if liveness != slot.liveness_seen {
            self.journal.push(FleetEvent {
                at_ms: now.as_secs_f64() * 1e3,
                pole_id,
                kind: FleetEventKind::LivenessChanged {
                    from: slot.liveness_seen,
                    to: liveness,
                },
            });
            obs::incr("fleet.agg.liveness_transitions", 1);
            slot.liveness_seen = liveness;
        }
    }

    fn liveness(&self, slot: &PoleSlot, now: Duration) -> Liveness {
        liveness_of(&self.cfg, slot, now)
    }

    /// Builds the campus view from the current fused state. Pure with
    /// respect to the slots and the clock: calling it twice without
    /// new messages or time passing yields identical snapshots.
    pub fn snapshot(&self) -> CampusSnapshot {
        let now = self.clock.now();
        assemble_snapshot(&self.cfg, now, vec![self.gather(now)])
    }

    /// Everything this core contributes to a campus snapshot at
    /// `now`: pole rows, mapped (not yet deduplicated) observations,
    /// and the liveness tallies. A single core is the one-shard case;
    /// [`ShardedFusion`] gathers every shard on the same `now` and
    /// assembles once, so seam people whose sightings span shards
    /// still merge.
    pub(crate) fn gather(&self, now: Duration) -> ShardGather {
        let mut poles = Vec::with_capacity(self.slots.len());
        let mut observations: Vec<Observation> = Vec::new();
        let mut unmapped = 0u32;
        let (mut live, mut stale, mut dead) = (0u32, 0u32, 0u32);
        let mut quarantined = 0u32;
        let mut silences: Vec<f64> = Vec::new();

        for (&pole_id, slot) in &self.slots {
            let liveness = self.liveness(slot, now);
            let silence_ms = (now.saturating_sub(slot.heard_at)).as_secs_f64() * 1e3;
            let trust = self.sentinel.state_of(pole_id);
            let excluded = trust >= TrustState::Quarantined;
            if excluded {
                quarantined += 1;
            }
            match liveness {
                Liveness::Live => live += 1,
                Liveness::Stale => stale += 1,
                Liveness::Dead => dead += 1,
            }
            if liveness != Liveness::Dead {
                silences.push(silence_ms);
                if let Some(report) = &slot.report {
                    if !excluded {
                        match (self.registry.pose(pole_id), report.clusters.is_empty()) {
                            (Some(pose), false) => {
                                for c in &report.clusters {
                                    let campus = pose.to_campus(c.centroid);
                                    observations.push(Observation {
                                        pole_id,
                                        x: campus.x,
                                        y: campus.y,
                                        confidence: c.confidence,
                                    });
                                }
                            }
                            // Held frames carry no clusters;
                            // unregistered poles have no pose. Their
                            // counts still matter — they just can't
                            // be deduplicated. Saturating: a forged
                            // count near u32::MAX must not wrap the
                            // campus total around zero.
                            _ => unmapped = unmapped.saturating_add(report.count),
                        }
                    }
                }
            }
            poles.push(PoleStatus {
                pole_id,
                liveness,
                health: slot.report.as_ref().map(|r| r.health),
                count: slot.report.as_ref().map_or(0, |r| r.count),
                seq: slot.last_seq,
                silence_ms,
                held: slot.report.as_ref().is_some_and(|r| r.held),
                trust,
            });
        }

        ShardGather {
            poles,
            observations,
            unmapped,
            live,
            stale,
            dead,
            quarantined,
            silences,
        }
    }

    /// Builds the campus health scoreboard: per-pole telemetry rollups
    /// and ingest-latency percentiles, the campus-wide merges, and the
    /// recent event journal. Takes `&mut self` because it first sweeps
    /// liveness over every known pole so passive Stale/Dead walks land
    /// in the journal even when no message forced the transition.
    pub fn health(&mut self) -> FleetHealth {
        let now = self.clock.now();
        let ids: Vec<u32> = self.slots.keys().copied().collect();
        for pole_id in ids {
            self.note_liveness(pole_id, now);
        }

        let mut poles = Vec::with_capacity(self.slots.len());
        let mut campus_ingest = HistogramCells::empty("fleet.ingest");
        let mut campus_telemetry = TelemetrySnapshot::default();
        for (&pole_id, slot) in &self.slots {
            let liveness = liveness_of(&self.cfg, slot, now);
            let (telemetry, ingest, telemetry_frames, last_window_ms) = match self.obs.get(&pole_id)
            {
                Some(o) => {
                    let ingest = o.ingest.cells(&format!("fleet.ingest.pole{pole_id}"));
                    campus_ingest.merge(&ingest);
                    campus_telemetry.merge(&o.telemetry);
                    (
                        o.telemetry.clone(),
                        ingest,
                        o.telemetry_frames,
                        o.last_window_ms,
                    )
                }
                None => (
                    TelemetrySnapshot::default(),
                    HistogramCells::empty(format!("fleet.ingest.pole{pole_id}")),
                    0,
                    0.0,
                ),
            };
            poles.push(PoleHealth {
                pole_id,
                liveness,
                trust: self.sentinel.state_of(pole_id),
                telemetry,
                ingest,
                telemetry_frames,
                last_window_ms,
            });
        }

        FleetHealth {
            at_ms: now.as_secs_f64() * 1e3,
            poles,
            campus_ingest,
            campus_telemetry,
            events_total: self.journal.total(),
            events: self.journal.events().cloned().collect(),
            serve: None,
        }
    }

    /// The fleet event journal.
    pub fn journal(&self) -> &EventJournal {
        &self.journal
    }

    /// The walkway geometry poles share.
    pub fn walkway(&self) -> &WalkwayConfig {
        &self.walkway
    }

    /// The fusion tuning this core runs with.
    pub(crate) fn config(&self) -> &FusionConfig {
        &self.cfg
    }

    /// Captures the fused state for crash-safe persistence. Timing is
    /// stored as per-pole *silence* relative to this instant, so a
    /// restore against any clock reconstructs `heard_at` exactly.
    pub fn checkpoint(&self) -> Checkpoint {
        let now = self.clock.now();
        let now_ms = now.as_secs_f64() * 1e3;
        Checkpoint {
            taken_at_nanos: saturating_nanos(now),
            stats: self.stats,
            slots: self
                .slots
                .iter()
                .map(|(&pole_id, s)| SlotCheckpoint {
                    pole_id,
                    last_seq: s.last_seq,
                    silence_nanos: saturating_nanos(now.saturating_sub(s.heard_at)),
                    said_bye: s.said_bye,
                    liveness_seen: s.liveness_seen,
                    report: s.report.clone(),
                })
                .collect(),
            sentinel: self.sentinel.export(now_ms),
        }
    }

    /// Restores fused state from a checkpoint: slots, stats, and
    /// sentinel trust records, with `heard_at` rebuilt against this
    /// core's clock from the checkpointed silences. The ops-surface
    /// telemetry rollups and journal history are not restored (they
    /// are history, not fused state).
    pub fn restore_from(&mut self, ckpt: &Checkpoint) {
        let now = self.clock.now();
        let now_ms = now.as_secs_f64() * 1e3;
        self.stats = ckpt.stats;
        self.slots = ckpt
            .slots
            .iter()
            .map(|s| {
                (
                    s.pole_id,
                    PoleSlot {
                        report: s.report.clone(),
                        last_seq: s.last_seq,
                        heard_at: now.saturating_sub(Duration::from_nanos(s.silence_nanos)),
                        said_bye: s.said_bye,
                        liveness_seen: s.liveness_seen,
                    },
                )
            })
            .collect();
        self.sentinel.import(&ckpt.sentinel, now_ms);
        obs::incr("fleet.checkpoint.restores", 1);
        self.journal.push(FleetEvent {
            at_ms: now_ms,
            pole_id: 0,
            kind: FleetEventKind::Restored {
                poles: ckpt.slots.len() as u32,
            },
        });
    }
}

/// The liveness judgement as a free function, so callers holding a
/// slot borrow can compute it without re-borrowing the whole core.
fn liveness_of(cfg: &FusionConfig, slot: &PoleSlot, now: Duration) -> Liveness {
    if slot.said_bye {
        return Liveness::Dead;
    }
    let silence_ms = (now.saturating_sub(slot.heard_at)).as_secs_f64() * 1e3;
    if silence_ms >= cfg.dead_after_ms {
        Liveness::Dead
    } else if silence_ms >= cfg.stale_after_ms {
        Liveness::Stale
    } else {
        Liveness::Live
    }
}

/// One mapped sighting in campus coordinates, tagged with the pole
/// that saw it. Gathers emit these in `(pole_id, cluster index)`
/// order; shards partition poles, so a stable sort by `pole_id` on
/// the concatenation restores the global greedy-dedup order.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Observation {
    pole_id: u32,
    x: f64,
    y: f64,
    confidence: f64,
}

/// Everything one fusion shard contributes to a campus snapshot.
/// Observations are *not* deduplicated yet — a person straddling a
/// zone seam is seen by poles on different shards, and only the
/// campus-wide assembly may merge those sightings.
#[derive(Debug, Default)]
pub(crate) struct ShardGather {
    poles: Vec<PoleStatus>,
    observations: Vec<Observation>,
    unmapped: u32,
    live: u32,
    stale: u32,
    dead: u32,
    quarantined: u32,
    silences: Vec<f64>,
}

/// Assembles per-shard gathers into the campus snapshot. This is the
/// seam hand-off point: every shard's observations meet here before
/// dedup, so cross-shard double-sightings fuse exactly as they would
/// in a single core.
pub(crate) fn assemble_snapshot(
    cfg: &FusionConfig,
    now: Duration,
    gathers: Vec<ShardGather>,
) -> CampusSnapshot {
    let mut poles = Vec::new();
    let mut observations: Vec<Observation> = Vec::new();
    let mut silences: Vec<f64> = Vec::new();
    let mut unmapped = 0u32;
    let (mut live, mut stale, mut dead, mut quarantined) = (0u32, 0u32, 0u32, 0u32);
    for g in gathers {
        poles.extend(g.poles);
        observations.extend(g.observations);
        silences.extend(g.silences);
        unmapped = unmapped.saturating_add(g.unmapped);
        live += g.live;
        stale += g.stale;
        dead += g.dead;
        quarantined += g.quarantined;
    }
    // Shards partition poles; stable sorts by pole id restore the
    // global orders a single core would have produced.
    poles.sort_by_key(|p| p.pole_id);
    observations.sort_by_key(|o| o.pole_id);

    let people = dedup_people(&observations, cfg.dedup_radius_m);

    let mut zone_counts: BTreeMap<(i32, i32), u32> = BTreeMap::new();
    let zone = cfg.zone_size_m.max(1e-9);
    for p in &people {
        let key = ((p.x / zone).floor() as i32, (p.y / zone).floor() as i32);
        *zone_counts.entry(key).or_insert(0) += 1;
    }
    let zones = zone_counts
        .into_iter()
        .map(|((zone_x, zone_y), count)| ZoneOccupancy {
            zone_x,
            zone_y,
            count,
        })
        .collect();

    let p95_silence_ms = p95_silence(&mut silences);

    // Checked at the u32 boundary: a hostile fleet reporting 2^32
    // people must pin the gauge at u32::MAX, not wrap past zero.
    let occupancy = u32::try_from(people.len())
        .unwrap_or(u32::MAX)
        .saturating_add(unmapped);
    obs::set_gauge("fleet.occupancy", f64::from(occupancy));
    obs::set_gauge("fleet.poles_live", f64::from(live));
    obs::set_gauge("fleet.poles_stale", f64::from(stale));
    obs::set_gauge("fleet.poles_dead", f64::from(dead));
    obs::set_gauge("fleet.poles_quarantined", f64::from(quarantined));
    obs::set_gauge("fleet.p95_silence_ms", p95_silence_ms);

    CampusSnapshot {
        at_ms: now.as_secs_f64() * 1e3,
        occupancy,
        people,
        unmapped,
        zones,
        poles,
        live,
        stale,
        dead,
        quarantined,
        p95_silence_ms,
    }
}

/// Greedy ground-plane dedup, decomposed by connected components of
/// the within-radius graph.
///
/// The historical single-core pass walked observations in
/// `(pole_id, cluster index)` order and merged each into the first
/// already-founded person within the radius. Two facts make an exact
/// decomposition possible: (a) an observation can only merge into a
/// founder it is within radius of, i.e. a neighbour in the radius
/// graph, and (b) founders keep their founding observation's
/// position, so every candidate founder for an observation lies in
/// its own connected component. Observations in different components
/// therefore never interact, and running the identical greedy walk
/// per component (members in ascending global order), then stitching
/// people back in founder order, reproduces the single-core output
/// bit for bit — no matter how many shards the observations came
/// from. The components are found with a grid hash (cells one radius
/// wide, so all edges live within a 3×3 neighbourhood) and a
/// union-find.
fn dedup_people(obs: &[Observation], radius_m: f64) -> Vec<FusedPerson> {
    let n = obs.len();
    if n == 0 {
        return Vec::new();
    }
    let radius = radius_m.max(0.0);
    let radius2 = radius * radius;
    let cell = radius.max(1e-9);

    let mut bins: BTreeMap<(i64, i64), Vec<usize>> = BTreeMap::new();
    for (i, o) in obs.iter().enumerate() {
        let key = ((o.x / cell).floor() as i64, (o.y / cell).floor() as i64);
        bins.entry(key).or_default().push(i);
    }

    fn find(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let mut parent: Vec<usize> = (0..n).collect();
    for (&(cx, cy), members) in &bins {
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                // Saturating keys can alias at the numeric edge; the
                // distance check below still guards every union, so
                // aliasing only costs comparisons, never correctness.
                let key = (cx.saturating_add(dx), cy.saturating_add(dy));
                let Some(others) = bins.get(&key) else {
                    continue;
                };
                for &i in members {
                    for &j in others {
                        if j <= i {
                            continue;
                        }
                        let ddx = obs[i].x - obs[j].x;
                        let ddy = obs[i].y - obs[j].y;
                        if ddx * ddx + ddy * ddy <= radius2 {
                            let (ri, rj) = (find(&mut parent, i), find(&mut parent, j));
                            if ri != rj {
                                parent[ri.max(rj)] = ri.min(rj);
                            }
                        }
                    }
                }
            }
        }
    }

    let mut components: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for i in 0..n {
        components.entry(find(&mut parent, i)).or_default().push(i);
    }

    let mut founded: Vec<(usize, FusedPerson)> = Vec::with_capacity(components.len());
    for members in components.into_values() {
        let start = founded.len();
        'member: for &i in &members {
            let o = &obs[i];
            for (_, person) in &mut founded[start..] {
                let dx = o.x - person.x;
                let dy = o.y - person.y;
                if dx * dx + dy * dy <= radius2 {
                    if !person.observers.contains(&o.pole_id) {
                        person.observers.push(o.pole_id);
                    }
                    person.confidence = person.confidence.max(o.confidence);
                    continue 'member;
                }
            }
            founded.push((
                i,
                FusedPerson {
                    x: o.x,
                    y: o.y,
                    confidence: o.confidence,
                    observers: vec![o.pole_id],
                },
            ));
        }
    }
    // People surface in founding order — the order the single-core
    // greedy walk would have created them in.
    founded.sort_by_key(|&(founder, _)| founder);
    founded.into_iter().map(|(_, p)| p).collect()
}

/// 95th-percentile silence. Sorted under `f64::total_cmp`: a NaN
/// silence (conjured by adversarial or badly skewed timestamps)
/// sorts last deterministically instead of panicking the snapshot
/// path for the whole campus.
fn p95_silence(silences: &mut [f64]) -> f64 {
    silences.sort_by(f64::total_cmp);
    if silences.is_empty() {
        return 0.0;
    }
    let idx = ((silences.len() as f64 * 0.95).ceil() as usize).max(1) - 1;
    silences[idx.min(silences.len() - 1)]
}

/// `Duration::as_nanos` is u128 but the checkpoint stores u64.
/// Saturate instead of truncating: a skewed clock can measure a
/// silence in centuries, and `as u64` would wrap it into a
/// recent-looking value that restores as a live pole.
fn saturating_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// A callback fired after every [`SnapshotCell::publish`], outside
/// the writer lock. The serving tier registers one to wake its HTTP
/// reactor so parked long-polls complete within a publish, not a
/// poll-tick.
pub trait PublishHook: Send + Sync {
    /// Called with the epoch the publish just installed.
    fn on_publish(&self, epoch: u64);
}

/// Epoch-stamped double-buffered snapshot publication.
///
/// The writer fills the inactive slot, then bumps the epoch; readers
/// clone the active slot's `Arc` and retry if the epoch moved under
/// them. Readers never touch a fusion lock, so a dashboard poll
/// cannot stall ingest and a fusion stall cannot freeze dashboards —
/// they just keep the previous epoch.
pub struct SnapshotCell {
    epoch: AtomicU64,
    slots: [Mutex<Arc<CampusSnapshot>>; 2],
    writer: Mutex<()>,
    hooks: Mutex<Vec<Arc<dyn PublishHook>>>,
}

impl std::fmt::Debug for SnapshotCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCell")
            .field("epoch", &self.epoch())
            .field("hooks", &self.hooks.lock().len())
            .finish()
    }
}

impl Default for SnapshotCell {
    fn default() -> Self {
        SnapshotCell::new()
    }
}

impl SnapshotCell {
    /// An empty cell at epoch 0 (nothing published yet).
    pub fn new() -> Self {
        let empty = Arc::new(CampusSnapshot::default());
        SnapshotCell {
            epoch: AtomicU64::new(0),
            slots: [Mutex::new(Arc::clone(&empty)), Mutex::new(empty)],
            writer: Mutex::new(()),
            hooks: Mutex::new(Vec::new()),
        }
    }

    /// The published epoch; bumps by one per publish. Epoch 0 means
    /// nothing has ever been published: readers get the empty default
    /// snapshot, and consumers that need "real data arrived" must
    /// check for a nonzero epoch rather than a nonzero occupancy (an
    /// empty campus is a legitimate published state).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Registers a hook fired after each publish.
    pub fn add_hook(&self, hook: Arc<dyn PublishHook>) {
        self.hooks.lock().push(hook);
    }

    /// Publishes `snap` as the new current snapshot.
    pub fn publish(&self, snap: Arc<CampusSnapshot>) {
        let epoch = {
            let _writer = self.writer.lock();
            let epoch = self.epoch.load(Ordering::Acquire);
            // Writers only ever touch the *inactive* slot, so a reader
            // on the active slot never blocks on a publish.
            *self.slots[((epoch + 1) & 1) as usize].lock() = snap;
            self.epoch.store(epoch + 1, Ordering::Release);
            epoch + 1
        };
        // Hooks run outside the writer lock: a slow waker delays the
        // next publish, never a concurrent reader.
        let hooks = self.hooks.lock().clone();
        for hook in hooks {
            hook.on_publish(epoch);
        }
    }

    /// The most recently published snapshot (empty before the first
    /// publish).
    pub fn read(&self) -> Arc<CampusSnapshot> {
        self.read_versioned().1
    }

    /// The current epoch and its snapshot as one consistent pair.
    ///
    /// `(epoch(), read())` called separately can tear — a publish
    /// between the two calls pairs epoch N with snapshot N+1, which
    /// would hand an HTTP reader an `ETag` that lies about the body.
    /// This loops until both loads land on the same epoch.
    pub fn read_versioned(&self) -> (u64, Arc<CampusSnapshot>) {
        loop {
            let epoch = self.epoch.load(Ordering::Acquire);
            let snap = Arc::clone(&self.slots[(epoch & 1) as usize].lock());
            if self.epoch.load(Ordering::Acquire) == epoch {
                return (epoch, snap);
            }
        }
    }
}

/// Zone-sharded fusion: independent [`FusionCore`]s behind per-shard
/// locks, with registered poles routed to shards by campus zone
/// column (unregistered poles hash by id). Ingest for different
/// shards never contends; snapshots gather every shard at one
/// instant and assemble campus-wide (see [`assemble_snapshot`] for
/// the seam hand-off), then publish through a [`SnapshotCell`].
#[derive(Debug)]
pub struct ShardedFusion {
    shards: Vec<Mutex<FusionCore>>,
    route: BTreeMap<u32, usize>,
    cfg: FusionConfig,
    clock: Arc<dyn Clock>,
    cell: Arc<SnapshotCell>,
}

/// Auto shard count: one shard per 64 registered poles, capped so
/// shard bookkeeping never dominates a small campus.
fn auto_shards(poles: usize) -> usize {
    if poles < 64 {
        1
    } else {
        (poles / 64).clamp(2, 8)
    }
}

/// Routes registered poles to shards as contiguous zone-column bands:
/// poles sort by `(zone column, pole_id)` and split into equal-count
/// bands, so shard neighbours are campus neighbours and every seam is
/// shared by exactly two adjacent shards.
fn zone_route(registry: &PoleRegistry, zone_size_m: f64, nshards: usize) -> BTreeMap<u32, usize> {
    let zone = zone_size_m.max(1e-9);
    let mut keyed: Vec<(i64, u32)> = registry
        .poses()
        .map(|p| (((p.x / zone).floor()) as i64, p.pole_id))
        .collect();
    keyed.sort_unstable();
    let n = keyed.len().max(1);
    keyed
        .into_iter()
        .enumerate()
        .map(|(i, (_, pole_id))| (pole_id, i * nshards / n))
        .collect()
}

impl ShardedFusion {
    /// A sharded fusion over `shards` zone bands (0 = auto from the
    /// registry size) on the given clock. Every shard holds a full
    /// registry — routing, not geometry, is what partitions them.
    pub fn new(
        registry: PoleRegistry,
        walkway: WalkwayConfig,
        cfg: FusionConfig,
        shards: usize,
        clock: Arc<dyn Clock>,
    ) -> Self {
        let nshards = if shards == 0 {
            auto_shards(registry.len())
        } else {
            shards
        }
        .max(1);
        let route = zone_route(&registry, cfg.zone_size_m, nshards);
        let shards = (0..nshards)
            .map(|_| {
                Mutex::new(
                    FusionCore::new(registry.clone(), walkway, cfg).with_clock(Arc::clone(&clock)),
                )
            })
            .collect();
        ShardedFusion {
            shards,
            route,
            cfg,
            clock,
            cell: Arc::new(SnapshotCell::new()),
        }
    }

    /// Wraps an existing core as a single shard (deterministic tests,
    /// injected clocks).
    pub fn single(core: FusionCore) -> Self {
        let cfg = *core.config();
        let clock = core.clock_handle();
        ShardedFusion {
            shards: vec![Mutex::new(core)],
            route: BTreeMap::new(),
            cfg,
            clock,
            cell: Arc::new(SnapshotCell::new()),
        }
    }

    /// How many shards the campus is split into.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard owning `pole_id`: its zone band when registered,
    /// id-hash otherwise.
    pub fn shard_of(&self, pole_id: u32) -> usize {
        self.route
            .get(&pole_id)
            .copied()
            .unwrap_or(pole_id as usize % self.shards.len())
    }

    /// The clock all shards fuse on.
    pub fn clock_handle(&self) -> Arc<dyn Clock> {
        Arc::clone(&self.clock)
    }

    /// Folds one message into the owning shard (see
    /// [`FusionCore::ingest_from`]). Only that shard's lock is taken.
    pub fn ingest_from(&self, conn_id: u32, msg: Message) -> IngestVerdict {
        let shard = self.shard_of(msg.pole_id());
        self.shards[shard].lock().ingest_from(conn_id, msg)
    }

    /// Direct ingest without a connection identity.
    pub fn ingest(&self, msg: Message) {
        self.ingest_from(0, msg);
    }

    /// The campus view: every shard gathered at one instant and
    /// assembled once (cross-shard seam people merge here).
    fn assemble(&self) -> CampusSnapshot {
        let now = self.clock.now();
        let gathers = self
            .shards
            .iter()
            .map(|s| s.lock().gather(now))
            .collect::<Vec<_>>();
        assemble_snapshot(&self.cfg, now, gathers)
    }

    /// Assembles the campus view and publishes it to the snapshot
    /// cell, returning the published handle.
    pub fn publish(&self) -> Arc<CampusSnapshot> {
        let snap = Arc::new(self.assemble());
        self.cell.publish(Arc::clone(&snap));
        snap
    }

    /// Like [`ShardedFusion::publish`], but returns an owned view. The
    /// copy is made before the publish wakes the cell's readers, so it
    /// never competes with them for a core.
    pub fn snapshot(&self) -> CampusSnapshot {
        let snap = self.assemble();
        self.cell.publish(Arc::new(snap.clone()));
        snap
    }

    /// The last published snapshot — readers never touch a fusion
    /// lock.
    pub fn published(&self) -> Arc<CampusSnapshot> {
        self.cell.read()
    }

    /// The publish epoch (bumps once per [`ShardedFusion::publish`]).
    pub fn publish_epoch(&self) -> u64 {
        self.cell.epoch()
    }

    /// A shared handle to the publication cell — what the HTTP
    /// serving tier reads from (and parks its long-polls on) without
    /// ever touching a fusion lock.
    pub fn cell(&self) -> Arc<SnapshotCell> {
        Arc::clone(&self.cell)
    }

    /// Campus-wide counters (summed over shards).
    pub fn stats(&self) -> FusionStats {
        let mut out = FusionStats::default();
        for shard in &self.shards {
            out.absorb(&shard.lock().stats());
        }
        out
    }

    /// Every pole's sentinel trust record, ascending pole id.
    pub fn trust(&self) -> Vec<PoleTrust> {
        let mut out: Vec<PoleTrust> = Vec::new();
        for shard in &self.shards {
            out.extend(shard.lock().trust());
        }
        out.sort_by_key(|t| t.pole_id);
        out
    }

    /// The merged campus health scoreboard.
    pub fn health(&self) -> FleetHealth {
        let parts = self
            .shards
            .iter()
            .map(|s| s.lock().health())
            .collect::<Vec<_>>();
        FleetHealth::merge(parts)
    }

    /// The merged fleet event journal as JSONL, interleaved by event
    /// time (stable across shards).
    pub fn events_jsonl(&self) -> String {
        let mut events: Vec<FleetEvent> = Vec::new();
        for shard in &self.shards {
            events.extend(shard.lock().journal().events().cloned());
        }
        events.sort_by(|a, b| a.at_ms.total_cmp(&b.at_ms));
        let mut out = String::new();
        for e in &events {
            out.push_str(&e.to_json());
            out.push('\n');
        }
        out
    }

    /// A campus checkpoint merged from every shard.
    pub fn checkpoint(&self) -> Checkpoint {
        let parts = self
            .shards
            .iter()
            .map(|s| s.lock().checkpoint())
            .collect::<Vec<_>>();
        Checkpoint::merge(parts)
    }

    /// Restores a campus checkpoint by routing each pole's slot and
    /// trust record to its owning shard. The campus-wide counters
    /// land on shard 0 so fleet totals don't multiply.
    pub fn restore_from(&self, ckpt: &Checkpoint) {
        for (idx, shard) in self.shards.iter().enumerate() {
            let stats = if idx == 0 {
                ckpt.stats
            } else {
                FusionStats::default()
            };
            let sub = ckpt.filtered(stats, |pole_id| self.shard_of(pole_id) == idx);
            shard.lock().restore_from(&sub);
        }
    }
}

/// Aggregator service tuning.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AggregatorConfig {
    /// Fusion and liveness parameters.
    pub fusion: FusionConfig,
    /// Most decoded messages one connection may have waiting for
    /// fusion at once. Past the budget the reactor sheds the newest
    /// decode (counted as `fleet.agg.inflight_dropped`, and never
    /// captured), so one firehosing pole sheds its own backlog instead
    /// of starving the rest of the fleet.
    pub inflight_budget: usize,
    /// Fusion shards (zone bands). 0 = auto from the registry size.
    /// Ignored by [`Aggregator::with_core`], which wraps the given
    /// core as a single shard.
    pub fusion_shards: usize,
    /// Reactor worker threads. 0 = auto from available parallelism.
    pub reactor_workers: usize,
}

impl Default for AggregatorConfig {
    fn default() -> Self {
        AggregatorConfig {
            fusion: FusionConfig::default(),
            inflight_budget: 256,
            fusion_shards: 0,
            reactor_workers: 0,
        }
    }
}

/// The campus occupancy service over a [`ShardedFusion`]. Connections
/// reach fused state through one ingest lane, the readiness-driven
/// reactor: start it with [`Aggregator::spawn_reactor`], then hand it
/// transports with [`Aggregator::add_connection`] or a TCP listener
/// with [`Aggregator::serve_tcp`]. [`Aggregator::with_capture`]
/// records every frame the reactor admits, and [`crate::replay`] of
/// that recording reproduces the live snapshots.
#[derive(Debug)]
pub struct Aggregator {
    fusion: Arc<ShardedFusion>,
    cfg: AggregatorConfig,
    running: Arc<AtomicBool>,
    capture: Option<Arc<Mutex<CaptureWriter>>>,
    intake: Arc<Intake>,
    reactor_live: Arc<AtomicBool>,
}

impl Aggregator {
    /// A service fusing against `registry` on the system clock.
    pub fn new(registry: PoleRegistry, walkway: WalkwayConfig, cfg: AggregatorConfig) -> Self {
        Aggregator::from_fusion(
            ShardedFusion::new(
                registry,
                walkway,
                cfg.fusion,
                cfg.fusion_shards,
                Arc::new(SystemClock),
            ),
            cfg,
        )
    }

    /// A service on an injected clock (deterministic tests and
    /// benches that still want zone sharding).
    pub fn with_clock(
        registry: PoleRegistry,
        walkway: WalkwayConfig,
        cfg: AggregatorConfig,
        clock: Arc<dyn Clock>,
    ) -> Self {
        Aggregator::from_fusion(
            ShardedFusion::new(registry, walkway, cfg.fusion, cfg.fusion_shards, clock),
            cfg,
        )
    }

    /// Wraps an existing core (e.g. one with an injected clock) as a
    /// single fusion shard.
    pub fn with_core(core: FusionCore, cfg: AggregatorConfig) -> Self {
        Aggregator::from_fusion(ShardedFusion::single(core), cfg)
    }

    fn from_fusion(fusion: ShardedFusion, cfg: AggregatorConfig) -> Self {
        Aggregator {
            fusion: Arc::new(fusion),
            cfg,
            running: Arc::new(AtomicBool::new(true)),
            capture: None,
            intake: Arc::new(Intake::new()),
            reactor_live: Arc::new(AtomicBool::new(false)),
        }
    }

    /// The sharded fusion behind this service (benches poke shard
    /// routing; dashboards read published snapshots through it).
    pub fn fusion(&self) -> Arc<ShardedFusion> {
        Arc::clone(&self.fusion)
    }

    /// The last published snapshot, without touching any fusion lock.
    pub fn published(&self) -> Arc<CampusSnapshot> {
        self.fusion.published()
    }

    /// The snapshot publication cell, for attaching an HTTP serving
    /// tier (`crates/serve`) to this aggregator.
    pub fn snapshot_cell(&self) -> Arc<SnapshotCell> {
        self.fusion.cell()
    }

    /// Records every wire frame the reactor admits to fusion to
    /// `writer`, with its arrival time and connection id.
    pub fn with_capture(mut self, writer: CaptureWriter) -> Self {
        self.capture = Some(Arc::new(Mutex::new(writer)));
        self
    }

    /// The current campus view (freshly assembled, and published to
    /// the snapshot cell as a side effect).
    pub fn snapshot(&self) -> CampusSnapshot {
        self.fusion.snapshot()
    }

    /// Cumulative fusion counters.
    pub fn stats(&self) -> FusionStats {
        self.fusion.stats()
    }

    /// Every pole's current sentinel trust record.
    pub fn trust(&self) -> Vec<PoleTrust> {
        self.fusion.trust()
    }

    /// Asks the reactor, the [`Aggregator::serve_tcp`] accept loop and
    /// the checkpointer to wind down. The reactor first drains what
    /// was already delivered; join its [`ReactorHandle`] to know every
    /// admitted frame is fused and, with a capture attached, flushed
    /// to the sink.
    pub fn stop(&self) {
        self.running.store(false, Ordering::SeqCst);
        // Wake the reactor pump so shutdown is prompt, not tick-paced.
        self.intake.poke();
    }

    /// Captures the fused state (see [`FusionCore::checkpoint`]).
    pub fn checkpoint(&self) -> Checkpoint {
        self.fusion.checkpoint()
    }

    /// Writes a checkpoint of the fused state to `path` atomically.
    pub fn checkpoint_to(&self, path: &std::path::Path) -> std::io::Result<()> {
        self.checkpoint().save_atomic(path)
    }

    /// Restores fused state from a checkpoint file written by
    /// [`Aggregator::checkpoint_to`] (or the background checkpointer).
    pub fn restore_from_file(&self, path: &std::path::Path) -> Result<(), CheckpointError> {
        let ckpt = Checkpoint::load(path)?;
        self.fusion.restore_from(&ckpt);
        Ok(())
    }

    /// Spawns a thread that checkpoints the fused state to `path`
    /// every `every`, plus once on shutdown. Each write is atomic
    /// (temp + rename), so a crash mid-write leaves the previous
    /// checkpoint intact.
    pub fn spawn_checkpointer(
        &self,
        path: std::path::PathBuf,
        every: Duration,
    ) -> std::thread::JoinHandle<()> {
        let fusion = Arc::clone(&self.fusion);
        let running = Arc::clone(&self.running);
        std::thread::spawn(move || {
            let tick = reactor::TICK.min(every.max(Duration::from_millis(1)));
            let mut since = Duration::ZERO;
            while running.load(Ordering::SeqCst) {
                std::thread::sleep(tick);
                since += tick;
                if since >= every {
                    since = Duration::ZERO;
                    let _ = fusion.checkpoint().save_atomic(&path);
                }
            }
            // A final checkpoint on orderly shutdown, so a clean stop
            // restarts just as warm as a crash mid-cadence.
            let _ = fusion.checkpoint().save_atomic(&path);
        })
    }

    /// Spawns the readiness-driven reactor: one pump thread parking
    /// on transport readiness plus a worker pool folding admitted
    /// messages into the fusion shards. Feed it sockets with
    /// [`Aggregator::add_connection`]; join the returned handle after
    /// [`Aggregator::stop`] to know every admitted message was fused
    /// and the capture, if any, flushed.
    ///
    /// At most one reactor may run per aggregator.
    pub fn spawn_reactor(&self) -> ReactorHandle {
        assert!(
            !self.reactor_live.swap(true, Ordering::SeqCst),
            "reactor already running"
        );
        reactor::spawn(reactor::ReactorContext {
            fusion: Arc::clone(&self.fusion),
            running: Arc::clone(&self.running),
            intake: Arc::clone(&self.intake),
            capture: self.capture.clone(),
            workers: self.cfg.reactor_workers,
            inflight_budget: self.cfg.inflight_budget,
        })
    }

    /// Hands a connection to the running reactor (spawn it first) and
    /// returns the assigned connection id. The transport should
    /// already be non-blocking where that applies; the pump only ever
    /// issues zero-timeout reads.
    pub fn add_connection(&self, transport: Box<dyn Transport>) -> u32 {
        self.intake.push(transport)
    }

    /// Serves a TCP listener until [`Aggregator::stop`]: parks on
    /// listener readiness (`poll(2)` where available — no busy spin,
    /// near-zero idle CPU) and hands every accepted socket,
    /// non-blocking, to the reactor. Sockets accepted before
    /// [`Aggregator::spawn_reactor`] wait for it in the intake.
    pub fn serve_tcp(&self, listener: std::net::TcpListener) -> std::thread::JoinHandle<()> {
        let running = Arc::clone(&self.running);
        let intake = Arc::clone(&self.intake);
        listener
            .set_nonblocking(true)
            .expect("listener nonblocking");
        std::thread::spawn(move || {
            while running.load(Ordering::SeqCst) {
                match listener.accept() {
                    Ok((stream, _)) => {
                        if let Ok(mut t) = crate::transport::TcpTransport::new(stream) {
                            let _ = t.set_nonblocking(true);
                            intake.push(Box::new(t));
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        // Park on readiness instead of hot-looping:
                        // the kernel wakes us for the next SYN, and
                        // the tick bounds how fast we notice `stop`.
                        #[cfg(unix)]
                        {
                            use std::os::unix::io::AsRawFd;
                            let mut fds = [crate::sys::PollFd {
                                fd: listener.as_raw_fd(),
                                events: crate::sys::POLLIN,
                                revents: 0,
                            }];
                            crate::sys::poll_fds(&mut fds, reactor::TICK);
                        }
                        #[cfg(not(unix))]
                        std::thread::sleep(reactor::TICK);
                    }
                    Err(_) => break,
                }
            }
        })
    }

    /// Appends the current snapshot as one JSONL line.
    pub fn export_jsonl(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(out, "{}", self.fusion.publish().to_json())
    }

    /// The current campus health scoreboard.
    pub fn health(&self) -> FleetHealth {
        self.fusion.health()
    }

    /// Appends the current scoreboard as one JSONL line.
    pub fn export_ops_jsonl(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        writeln!(out, "{}", self.health().to_json())
    }

    /// Writes the retained fleet event journal as JSONL.
    pub fn export_events_jsonl(&self, out: &mut dyn std::io::Write) -> std::io::Result<()> {
        write!(out, "{}", self.fusion.events_jsonl())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ClusterObservation, Heartbeat};
    use counting::{EpsRung, PrecisionRung};
    use geom::Point3;
    use obs::ManualClock;
    use world::corridor_layout;

    fn report(pole_id: u32, seq: u64, clusters: &[(f64, f64)]) -> Message {
        Message::Report(PoleReport {
            pole_id,
            seq,
            timestamp_ms: seq * 100,
            count: u32::try_from(clusters.len()).unwrap_or(u32::MAX),
            health: HealthState::Healthy,
            eps_rung: EpsRung::Adaptive,
            precision: PrecisionRung::Fp32,
            held: false,
            stale_frames: 0,
            age_ms: 0.0,
            pole_temp_c: Some(35.0),
            capture_ms: Some(seq as f64 * 100.0),
            clusters: clusters
                .iter()
                .map(|&(x, y)| ClusterObservation {
                    centroid: Point3::new(x, y, -2.0),
                    points: 80,
                    confidence: 0.8,
                })
                .collect(),
        })
    }

    fn held_report(pole_id: u32, seq: u64, count: u32) -> Message {
        Message::Report(PoleReport {
            pole_id,
            seq,
            timestamp_ms: seq * 100,
            count,
            health: HealthState::Degraded,
            eps_rung: EpsRung::Cached,
            precision: PrecisionRung::Fp32,
            held: true,
            stale_frames: 1,
            age_ms: 100.0,
            pole_temp_c: None,
            capture_ms: None,
            clusters: Vec::new(),
        })
    }

    fn core(clock: &ManualClock) -> FusionCore {
        let registry = PoleRegistry::from_poses(corridor_layout(3, 15.0));
        FusionCore::new(registry, WalkwayConfig::default(), FusionConfig::default())
            .with_clock(clock.handle())
    }

    #[test]
    fn overlap_sightings_fuse_into_one_person() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        // Pole 0 sees someone at local x=28 (campus 28); pole 1 (at
        // campus x=15) sees the same person at local x=13.2 — 20 cm
        // of disagreement, well inside the dedup radius.
        core.ingest(report(0, 1, &[(28.0, 0.0)]));
        core.ingest(report(1, 1, &[(13.2, 0.0)]));
        let snap = core.snapshot();
        assert_eq!(snap.occupancy, 1, "one person, not two");
        assert_eq!(snap.people.len(), 1);
        assert_eq!(snap.people[0].observers, vec![0, 1]);
        assert_eq!(snap.unmapped, 0);
    }

    #[test]
    fn distinct_people_stay_distinct() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(report(0, 1, &[(14.0, 0.0), (20.0, 1.5)]));
        core.ingest(report(2, 1, &[(18.0, -1.0)])); // campus x = 48
        let snap = core.snapshot();
        assert_eq!(snap.occupancy, 3);
        assert_eq!(snap.zones.iter().map(|z| z.count).sum::<u32>(), 3);
    }

    #[test]
    fn last_seq_wins_regardless_of_arrival_order() {
        let clock = ManualClock::new();
        let mut forward = core(&clock);
        forward.ingest(report(0, 1, &[(14.0, 0.0)]));
        forward.ingest(report(0, 2, &[(15.0, 0.0), (20.0, 0.0)]));
        let mut reversed = core(&clock);
        reversed.ingest(report(0, 2, &[(15.0, 0.0), (20.0, 0.0)]));
        reversed.ingest(report(0, 1, &[(14.0, 0.0)]));
        let a = forward.snapshot();
        let b = reversed.snapshot();
        assert_eq!(a, b, "snapshots must not depend on arrival order");
        assert_eq!(a.occupancy, 2);
        assert_eq!(reversed.stats().stale_discards, 1);
    }

    #[test]
    fn liveness_walks_live_stale_dead_on_the_clock() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        assert_eq!(core.snapshot().live, 1);
        clock.advance_ms(2_500); // past stale_after (2 s)
        let snap = core.snapshot();
        assert_eq!(snap.stale, 1);
        assert_eq!(snap.occupancy, 1, "stale data still counts");
        clock.advance_ms(3_000); // past dead_after (5 s)
        let snap = core.snapshot();
        assert_eq!(snap.dead, 1);
        assert_eq!(snap.occupancy, 0, "dead poles leave the count");
        // A heartbeat resurrects it without a new report.
        core.ingest(Message::Heartbeat(Heartbeat {
            pole_id: 0,
            seq: 1,
            timestamp_ms: 0,
        }));
        let snap = core.snapshot();
        assert_eq!(snap.live, 1);
        assert_eq!(snap.occupancy, 1);
    }

    #[test]
    fn bye_kills_immediately_and_hello_revives() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(report(1, 1, &[(14.0, 0.0)]));
        core.ingest(Message::Bye { pole_id: 1 });
        let snap = core.snapshot();
        assert_eq!(snap.dead, 1);
        assert_eq!(snap.occupancy, 0);
        core.ingest(Message::Hello { pole_id: 1 });
        assert_eq!(core.snapshot().live, 1);
    }

    #[test]
    fn held_reports_count_as_unmapped() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(held_report(0, 3, 2));
        let snap = core.snapshot();
        assert_eq!(snap.unmapped, 2);
        assert_eq!(snap.occupancy, 2);
        assert!(snap.people.is_empty());
        assert!(snap.poles[0].held);
    }

    #[test]
    fn unregistered_poles_contribute_scalar_counts() {
        let clock = ManualClock::new();
        let mut core = core(&clock); // registry has poles 0..3
        core.ingest(report(99, 1, &[(14.0, 0.0)]));
        let snap = core.snapshot();
        assert_eq!(snap.unmapped, 1, "no pose: cannot place, still counted");
        assert!(snap.people.is_empty());
    }

    #[test]
    fn snapshot_json_is_well_formed_enough() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        let json = core.snapshot().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"occupancy\":1"));
        assert!(json.contains("\"liveness\":\"live\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
    }

    #[test]
    fn reactor_folds_every_connection_into_one_core() {
        use crate::transport::{loopback_pair, LoopbackConfig};
        use crate::wire::encode;
        let clock = ManualClock::new();
        let agg = Aggregator::with_core(core(&clock), AggregatorConfig::default());
        let reactor = agg.spawn_reactor();
        let (mut c1, s1) = loopback_pair(LoopbackConfig::reliable());
        let (mut c2, s2) = loopback_pair(LoopbackConfig::reliable());
        c1.send(&encode(&report(0, 1, &[(14.0, 0.0)]))).unwrap();
        c2.send(&encode(&report(1, 1, &[(20.0, 0.0)]))).unwrap();
        assert_eq!(agg.add_connection(Box::new(s1)), 1, "ids are 1-based");
        assert_eq!(agg.add_connection(Box::new(s2)), 2);
        // A joined reactor has fused everything already delivered.
        agg.stop();
        reactor.join();
        let snap = agg.snapshot();
        assert_eq!(snap.occupancy, 2);
        assert_eq!(snap.poles.len(), 2);
    }

    #[test]
    fn ingest_latency_is_measured_from_the_capture_stamp() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        clock.advance_ms(150);
        // Captured at 100 ms on the pole clock, fused at 150 ms here:
        // 50 ms of end-to-end latency.
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        clock.advance_ms(80);
        // Captured at 200, fused at 230: 30 ms.
        core.ingest(report(0, 2, &[(14.5, 0.0)]));
        let health = core.health();
        assert_eq!(health.poles.len(), 1);
        let ingest = &health.poles[0].ingest;
        assert_eq!(ingest.count, 2);
        assert_eq!(ingest.min_ms, 30.0);
        assert_eq!(ingest.max_ms, 50.0);
        assert_eq!(health.campus_ingest.count, 2, "campus merges the pole");
        // A held report without trace context adds nothing.
        core.ingest(held_report(0, 3, 1));
        assert_eq!(core.health().campus_ingest.count, 2);
    }

    #[test]
    fn telemetry_frames_merge_into_the_scoreboard() {
        use crate::wire::TelemetryFrame;
        let clock = ManualClock::new();
        let mut core = core(&clock);
        let reg = obs::Registry::new();
        reg.incr("pole.frames", 4);
        reg.set_gauge("pole.temp_c", 41.5);
        reg.observe_ms("pole.frame", 2.0);
        let first = reg.telemetry();
        core.ingest(Message::Telemetry(TelemetryFrame {
            pole_id: 2,
            seq: 1,
            timestamp_ms: 100,
            window_ms: 500.0,
            snapshot: first.clone(),
        }));
        reg.incr("pole.frames", 3);
        reg.observe_ms("pole.frame", 4.0);
        core.ingest(Message::Telemetry(TelemetryFrame {
            pole_id: 2,
            seq: 2,
            timestamp_ms: 600,
            window_ms: 500.0,
            snapshot: reg.telemetry().delta_since(&first),
        }));
        assert_eq!(core.stats().telemetry, 2);
        let health = core.health();
        let pole = &health.poles[0];
        assert_eq!(pole.pole_id, 2);
        assert_eq!(pole.telemetry_frames, 2);
        assert_eq!(pole.telemetry.counter("pole.frames"), 7, "windows re-sum");
        assert_eq!(pole.telemetry.gauge("pole.temp_c"), Some(41.5));
        assert_eq!(
            pole.telemetry.histogram("pole.frame").map(|h| h.count),
            Some(2)
        );
        assert_eq!(
            health.campus_telemetry.counter("pole.frames"),
            7,
            "campus merge sees the same totals"
        );
        // Telemetry keeps the pole alive like any other traffic.
        assert_eq!(health.poles[0].liveness, Liveness::Live);
    }

    #[test]
    fn journal_records_the_life_of_a_pole() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(Message::Hello { pole_id: 0 });
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        // Supervisor degrades and drops a ladder rung.
        core.ingest(Message::Report(PoleReport {
            pole_id: 0,
            seq: 2,
            timestamp_ms: 200,
            count: 1,
            health: HealthState::Degraded,
            eps_rung: EpsRung::Cached,
            precision: PrecisionRung::Fp32,
            held: false,
            stale_frames: 0,
            age_ms: 0.0,
            pole_temp_c: Some(44.0),
            capture_ms: None,
            clusters: Vec::new(),
        }));
        // Silence past dead, then a redial resurrects it.
        clock.advance_ms(6_000);
        core.ingest(Message::Hello { pole_id: 0 });
        core.ingest(Message::Bye { pole_id: 0 });
        let kinds: Vec<&'static str> = core.journal().events().map(|e| e.kind.as_str()).collect();
        assert_eq!(
            kinds,
            vec![
                "connected",
                "health_changed",
                "ladder_changed",
                "liveness_changed", // live -> dead, noticed on redial
                "reconnected",
                "liveness_changed", // dead -> live resurrection
                "bye",
                "liveness_changed", // live -> dead from the Bye
            ]
        );
        let FleetEventKind::LadderChanged { from, to } = &core
            .journal()
            .events()
            .find(|e| e.kind.as_str() == "ladder_changed")
            .unwrap()
            .kind
        else {
            panic!("ladder event carries labels");
        };
        assert_eq!(from, "adaptive/fp32");
        assert_eq!(to, "cached/fp32");
    }

    #[test]
    fn health_sweep_journals_passive_decay() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        clock.advance_ms(2_500);
        let health = core.health();
        assert_eq!(health.poles[0].liveness, Liveness::Stale);
        assert!(health.events.iter().any(|e| matches!(
            e.kind,
            FleetEventKind::LivenessChanged {
                from: Liveness::Live,
                to: Liveness::Stale
            }
        )));
        clock.advance_ms(3_000);
        let health = core.health();
        assert_eq!(health.poles[0].liveness, Liveness::Dead);
        assert_eq!(health.events_total, 2, "stale then dead, no repeats");
    }

    #[test]
    fn p95_silence_tracks_the_quietest_pole() {
        let clock = ManualClock::new();
        let mut core = core(&clock);
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        clock.advance_ms(400);
        core.ingest(report(1, 1, &[(14.0, 0.0)]));
        clock.advance_ms(100);
        let snap = core.snapshot();
        assert_eq!(snap.p95_silence_ms, 500.0, "oldest silence dominates p95");
    }

    #[test]
    fn p95_silence_survives_nan_without_panicking() {
        // Regression: the sweep sorted with partial_cmp().expect(), so
        // a single NaN silence panicked the snapshot path for the
        // whole campus. Under total_cmp it sorts last, deterministically.
        let mut adversarial = vec![f64::NAN, 250.0, -0.0, f64::INFINITY, 100.0];
        let p95 = p95_silence(&mut adversarial);
        assert!(p95.is_nan(), "NaN owns the tail slot under total_cmp");

        // With enough honest poles the percentile stays finite even
        // when one silence is poisoned.
        let mut mostly_honest: Vec<f64> = (0..99).map(f64::from).collect();
        mostly_honest.push(f64::NAN);
        assert_eq!(p95_silence(&mut mostly_honest), 94.0);

        assert_eq!(p95_silence(&mut []), 0.0);
    }

    #[test]
    fn snapshot_assembly_tolerates_adversarial_silences() {
        let snap = assemble_snapshot(
            &FusionConfig::default(),
            Duration::from_secs(1),
            vec![ShardGather {
                poles: Vec::new(),
                observations: Vec::new(),
                unmapped: 0,
                live: 0,
                stale: 0,
                dead: 0,
                quarantined: 0,
                silences: vec![100.0, f64::NAN],
            }],
        );
        assert!(snap.p95_silence_ms.is_nan(), "poisoned but not panicked");
        assert_eq!(snap.occupancy, 0);
    }

    #[test]
    fn checkpoint_saturates_century_scale_silences() {
        let clock = ManualClock::new();
        let mut skewed = core(&clock);
        skewed.ingest(report(0, 1, &[(14.0, 0.0)]));
        // Skew the clock just past 2^64 nanoseconds (~584.5 years).
        // The old `as_nanos() as u64` truncation wrapped this into a
        // ~0.3 s silence — a pole dead for centuries checkpointed as
        // freshly heard.
        clock.set(Duration::new(18_446_744_074, 0));
        let ckpt = skewed.checkpoint();
        assert_eq!(
            ckpt.slots[0].silence_nanos,
            u64::MAX,
            "century-scale silences saturate instead of wrapping"
        );

        // Round-trip: restored against a sane clock, the pole must
        // come back Dead with no people on the board.
        let clock2 = ManualClock::new();
        let mut restored = core(&clock2);
        clock2.advance_ms(10_000);
        restored.restore_from(&ckpt);
        let snap = restored.snapshot();
        assert_eq!(snap.dead, 1, "restored pole is dead, not live");
        assert_eq!(snap.occupancy, 0);
    }

    #[test]
    fn occupancy_clamps_at_the_u32_boundary() {
        // The sentinel's plausibility ceiling would quarantine counts
        // this hostile long before the sum; switch it off so the
        // arithmetic itself is on trial.
        let hostile_core = |clock: &ManualClock| {
            let registry = PoleRegistry::from_poses(corridor_layout(3, 15.0));
            let mut cfg = FusionConfig::default();
            cfg.sentinel.enabled = false;
            FusionCore::new(registry, WalkwayConfig::default(), cfg).with_clock(clock.handle())
        };

        // One mapped person plus a held count at the top of u32: the
        // old `people.len() as u32 + unmapped` wrapped past zero.
        let clock = ManualClock::new();
        let mut core = hostile_core(&clock);
        core.ingest(report(0, 1, &[(14.0, 0.0)]));
        core.ingest(held_report(1, 1, u32::MAX));
        let snap = core.snapshot();
        assert_eq!(snap.unmapped, u32::MAX);
        assert_eq!(snap.occupancy, u32::MAX, "saturates instead of wrapping");

        // Two hostile held counts must not wrap the unmapped sum either.
        let clock = ManualClock::new();
        let mut core = hostile_core(&clock);
        core.ingest(held_report(0, 1, u32::MAX));
        core.ingest(held_report(1, 1, 7));
        assert_eq!(core.snapshot().occupancy, u32::MAX);
    }

    #[test]
    fn snapshot_cell_publishes_monotonic_epochs() {
        let cell = SnapshotCell::new();
        assert_eq!(cell.epoch(), 0);
        assert_eq!(
            cell.read().occupancy,
            0,
            "empty snapshot before first publish"
        );
        for i in 1..=5u32 {
            let snap = CampusSnapshot {
                occupancy: i,
                ..CampusSnapshot::default()
            };
            cell.publish(Arc::new(snap));
            assert_eq!(cell.epoch(), u64::from(i));
            assert_eq!(cell.read().occupancy, i, "read returns the latest publish");
        }
    }

    #[test]
    fn sharded_fusion_matches_a_single_core_bit_for_bit() {
        let n: u32 = 8;
        let clock = ManualClock::new();
        let mk_registry = || PoleRegistry::from_poses(corridor_layout(n as usize, 15.0));
        let mut single = FusionCore::new(
            mk_registry(),
            WalkwayConfig::default(),
            FusionConfig::default(),
        )
        .with_clock(clock.handle());
        let sharded = ShardedFusion::new(
            mk_registry(),
            WalkwayConfig::default(),
            FusionConfig::default(),
            4,
            clock.handle(),
        );
        assert_eq!(sharded.shard_count(), 4);
        assert_ne!(
            sharded.shard_of(1),
            sharded.shard_of(2),
            "adjacent poles 1 and 2 must straddle a shard seam for this test to bite"
        );

        // Every pole sees its own person; adjacent poles double-sight
        // a seam person standing between them (campus x = 15i + 28),
        // so people straddle every shard boundary.
        for i in 0..n {
            let mut clusters = vec![(14.0, 0.0)];
            if i + 1 < n {
                clusters.push((28.0, 0.7));
            }
            if i > 0 {
                clusters.push((13.0, 0.7));
            }
            let msg = report(i, 1, &clusters);
            single.ingest(msg.clone());
            sharded.ingest(msg);
        }
        clock.advance_ms(50);
        let a = single.snapshot();
        let b = sharded.snapshot();
        assert_eq!(
            a.to_json(),
            b.to_json(),
            "sharded snapshot must be bit-identical to the single core"
        );
        assert_eq!(b.occupancy, 2 * n - 1, "n own people + n-1 seam people");

        // The snapshot was also published through the lock-free cell.
        assert_eq!(sharded.published().to_json(), b.to_json());
        assert!(sharded.publish_epoch() >= 1);
    }

    #[test]
    fn sharded_checkpoint_round_trips_through_restore() {
        let clock = ManualClock::new();
        let mk_registry = || PoleRegistry::from_poses(corridor_layout(6, 15.0));
        let sharded = ShardedFusion::new(
            mk_registry(),
            WalkwayConfig::default(),
            FusionConfig::default(),
            3,
            clock.handle(),
        );
        for i in 0..6u32 {
            sharded.ingest(report(i, 1, &[(14.0, 0.0)]));
        }
        clock.advance_ms(100);
        let before = sharded.snapshot();
        let ckpt = sharded.checkpoint();

        let clock2 = ManualClock::new();
        clock2.advance_ms(100);
        let restored = ShardedFusion::new(
            mk_registry(),
            WalkwayConfig::default(),
            FusionConfig::default(),
            3,
            clock2.handle(),
        );
        restored.restore_from(&ckpt);
        let after = restored.snapshot();
        assert_eq!(before.occupancy, after.occupancy);
        assert_eq!(before.people, after.people);
        assert_eq!(
            sharded.stats().reports,
            restored.stats().reports,
            "campus stats survive the shard split exactly once"
        );
    }

    #[test]
    fn to_json_survives_non_finite_derived_rates() {
        // Regression: `format!("{v:.3}")` happily prints `NaN` and
        // `inf`, which are not JSON. Before `json_num` this test
        // failed — a poisoned silence percentile corrupted the export
        // stream and every HTTP reader downstream of it.
        let snap = CampusSnapshot {
            at_ms: f64::NAN,
            p95_silence_ms: f64::INFINITY,
            poles: vec![PoleStatus {
                pole_id: 7,
                liveness: Liveness::Live,
                health: None,
                count: 1,
                seq: 1,
                silence_ms: f64::NAN,
                held: false,
                trust: TrustState::Trusted,
            }],
            people: vec![FusedPerson {
                x: f64::NEG_INFINITY,
                y: 0.0,
                confidence: f64::NAN,
                observers: vec![7],
            }],
            live: 1,
            occupancy: 1,
            ..CampusSnapshot::default()
        };
        let json = snap.to_json();
        assert!(!json.contains("NaN"), "bare NaN is not JSON: {json}");
        assert!(!json.contains("inf"), "bare inf is not JSON: {json}");
        assert!(json.contains("\"at_ms\":null"));
        assert!(json.contains("\"p95_silence_ms\":null"));
        assert!(json.contains("\"silence_ms\":null"));
        assert!(json.contains("\"x\":null"));
        assert!(json.contains("\"confidence\":null"));
    }

    #[test]
    fn empty_fleet_snapshot_is_wellformed_jsonl() {
        // Degenerate input: an aggregator that has never heard a pole
        // must still export a valid single-line JSON record.
        let clock = ManualClock::new();
        let core = core(&clock);
        let snap = core.snapshot();
        assert_eq!(snap.occupancy, 0);
        assert_eq!(snap.live + snap.stale + snap.dead, 0);
        let json = snap.to_json();
        assert!(!json.contains('\n'), "JSONL is one line");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(json.contains("\"people\":["));
        assert!(!json.contains("NaN") && !json.contains("inf"));
    }

    #[test]
    fn all_quarantined_campus_serves_zero_not_garbage() {
        // Degenerate input: every pole on the sentinel's quarantine
        // rung. Counts must leave the board (not wrap, not linger)
        // and the export must stay well-formed.
        let clock = ManualClock::new();
        let mut core = core(&clock);
        for pole in 0..3u32 {
            // Three implausible counts score 6.0: past quarantine
            // (4.0), short of ban (16.0).
            for seq in 1..=3u64 {
                core.ingest(held_report(pole, seq, u32::MAX));
            }
        }
        let snap = core.snapshot();
        assert_eq!(snap.quarantined, 3, "all poles quarantined");
        assert_eq!(snap.occupancy, 0, "quarantined counts leave the board");
        assert!(snap.people.is_empty());
        assert_eq!(snap.live, 3, "quarantine is not death — liveness holds");
        let json = snap.to_json();
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"quarantined\":3"));
    }

    #[test]
    fn read_versioned_pairs_epoch_with_its_snapshot() {
        let cell = SnapshotCell::new();
        let (epoch, snap) = cell.read_versioned();
        assert_eq!(epoch, 0, "epoch 0 means never published");
        assert_eq!(snap.occupancy, 0, "empty snapshot before first publish");
        for i in 1..=4u32 {
            cell.publish(Arc::new(CampusSnapshot {
                occupancy: i,
                ..CampusSnapshot::default()
            }));
            let (epoch, snap) = cell.read_versioned();
            assert_eq!(epoch, u64::from(i));
            assert_eq!(
                snap.occupancy, i,
                "epoch and snapshot must come from the same publish"
            );
        }
    }

    #[test]
    fn publish_hooks_fire_once_per_epoch_in_order() {
        use std::sync::Mutex as StdMutex;
        #[derive(Default)]
        struct Recorder(StdMutex<Vec<u64>>);
        impl PublishHook for Recorder {
            fn on_publish(&self, epoch: u64) {
                self.0.lock().unwrap().push(epoch);
            }
        }
        let cell = SnapshotCell::new();
        let rec = Arc::new(Recorder::default());
        cell.add_hook(Arc::clone(&rec) as Arc<dyn PublishHook>);
        for _ in 0..3 {
            cell.publish(Arc::new(CampusSnapshot::default()));
        }
        assert_eq!(*rec.0.lock().unwrap(), vec![1, 2, 3]);
    }
}
