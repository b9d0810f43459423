//! Aggregator survivability: warm restart, quarantine, and ban
//! semantics under a deterministic `ManualClock`.
//!
//! Pins the PR's crash-safety and Byzantine-hardening claims:
//!
//! 1. **Warm restart is invisible** — checkpoint mid-stream, restore
//!    into a fresh core, feed the identical remainder: every snapshot
//!    byte and every sentinel score matches the uninterrupted run.
//! 2. **Quarantine excludes but keeps counting** — a pole caught
//!    smuggling out-of-campus clusters stops contributing people to
//!    the fused view while its reports keep updating liveness.
//! 3. **Bans survive the connection** — a banned pole's reconnect is
//!    rejected during cooldown and re-admitted on probation after.
//! 4. **A killed aggregator restarts warm** — checkpoint via the file
//!    path, "kill" the process state, restore a brand-new aggregator
//!    and get the bit-identical campus back, poles still Live.

use std::time::Duration;

use counting::{EpsRung, HealthState, PrecisionRung};
use fleet::{
    encode, Checkpoint, ClusterObservation, Disposition, FusionConfig, FusionCore, LoopbackConfig,
    Message, PoleReport, TrustState,
};
use fleet::{loopback_pair, Aggregator, AggregatorConfig, Transport};
use geom::Point3;
use obs::ManualClock;
use world::{corridor_layout, PoleRegistry, WalkwayConfig};

const SPACING_M: f64 = 15.0;

fn report(pole_id: u32, seq: u64, clusters: &[(f64, f64)]) -> Message {
    Message::Report(PoleReport {
        pole_id,
        seq,
        timestamp_ms: seq * 100,
        count: clusters.len() as u32,
        health: HealthState::Healthy,
        eps_rung: EpsRung::Fixed,
        precision: PrecisionRung::Fp32,
        held: false,
        stale_frames: 0,
        age_ms: 100.0,
        pole_temp_c: None,
        capture_ms: Some(seq as f64 * 100.0),
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

fn core_with(clock: &ManualClock, poles: usize) -> FusionCore {
    let registry = PoleRegistry::from_poses(corridor_layout(poles, SPACING_M));
    FusionCore::new(registry, WalkwayConfig::default(), FusionConfig::default())
        .with_clock(clock.handle())
}

/// One round of campus traffic: two honest poles report their own
/// person, the third smuggles an out-of-campus cluster alongside a
/// plausible one. Connection ids are stable per pole.
fn round(core: &mut FusionCore, seq: u64) {
    core.ingest_from(1, report(0, seq, &[(14.0, 0.0)]));
    core.ingest_from(2, report(1, seq, &[(14.0, 0.5)]));
    core.ingest_from(3, report(2, seq, &[(14.0, -0.5), (40_000.0, -3_000.0)]));
}

#[test]
fn warm_restart_is_bit_identical_to_uninterrupted() {
    let clock = ManualClock::new();
    let mut uninterrupted = core_with(&clock, 3);

    // Phase A: ten rounds, then checkpoint (through bytes, as a file
    // round-trip would).
    for seq in 1..=10 {
        clock.advance_ms(100);
        round(&mut uninterrupted, seq);
    }
    let ckpt = Checkpoint::from_bytes(&uninterrupted.checkpoint().to_bytes())
        .expect("checkpoint bytes round-trip");

    let mut restored = core_with(&clock, 3);
    restored.restore_from(&ckpt);
    assert_eq!(
        restored.snapshot().to_json(),
        uninterrupted.snapshot().to_json(),
        "restore must reproduce the checkpointed campus exactly"
    );

    // Phase B: the identical remainder into both cores.
    for seq in 11..=20 {
        clock.advance_ms(100);
        round(&mut uninterrupted, seq);
        round(&mut restored, seq);
    }

    assert_eq!(
        restored.snapshot().to_json(),
        uninterrupted.snapshot().to_json(),
        "a restart mid-stream must be invisible in the snapshot"
    );
    let (a, b) = (uninterrupted.trust(), restored.trust());
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        assert_eq!((x.pole_id, x.state, x.score), (y.pole_id, y.state, y.score));
    }
    // The attacker's ladder state carried across the restart.
    assert!(
        uninterrupted
            .trust()
            .iter()
            .any(|t| t.pole_id == 2 && t.state >= TrustState::Quarantined),
        "the smuggling pole must be at least quarantined"
    );
}

#[test]
fn quarantined_pole_is_counted_but_excluded_from_fusion() {
    let clock = ManualClock::new();
    let mut core = core_with(&clock, 3);
    for seq in 1..=4 {
        clock.advance_ms(100);
        round(&mut core, seq);
    }
    let snap = core.snapshot();
    assert_eq!(snap.quarantined, 1, "the smuggler is quarantined");
    assert_eq!(
        snap.occupancy, 2,
        "only the two honest people fuse; the quarantined pole's plausible person is excluded"
    );
    assert_eq!(snap.live, 3, "quarantined reports still feed liveness");

    // Control: the same stream with the sentinel off fuses both the
    // smuggled-alongside person and the kilometres-out garbage
    // centroid — the poisoning this tier exists to stop.
    let registry = PoleRegistry::from_poses(corridor_layout(3, SPACING_M));
    let mut cfg = FusionConfig::default();
    cfg.sentinel.enabled = false;
    let mut unguarded =
        FusionCore::new(registry, WalkwayConfig::default(), cfg).with_clock(clock.handle());
    for seq in 1..=4 {
        round(&mut unguarded, seq);
    }
    assert_eq!(unguarded.snapshot().occupancy, 4);
}

#[test]
fn banned_reconnect_is_rejected_until_cooldown_expires() {
    let clock = ManualClock::new();
    let mut core = core_with(&clock, 3);

    // Out-of-bounds every frame: +2.0 per violation, ban at 16.
    let mut banned_at = None;
    for seq in 1..=10 {
        clock.advance_ms(100);
        let verdict = core.ingest_from(1, report(0, seq, &[(40_000.0, 0.0)]));
        if verdict.drop_connection {
            banned_at = Some(seq);
            break;
        }
    }
    assert_eq!(banned_at, Some(8), "ban lands when the score reaches 16");

    // A reconnect during cooldown is rejected and dropped again.
    clock.advance_ms(1_000);
    let verdict = core.ingest_from(2, Message::Hello { pole_id: 0 });
    assert_eq!(verdict.disposition, Disposition::Reject);
    assert!(verdict.drop_connection);

    // Past the cooldown the pole is re-admitted on probation: the ban
    // demotes to Quarantined at the quarantine threshold, and the
    // clean Hello itself then decays one step down to Suspect — not
    // Trusted, and no longer dropped.
    clock.advance_ms(31_000);
    let verdict = core.ingest_from(3, Message::Hello { pole_id: 0 });
    assert!(!verdict.drop_connection);
    assert_eq!(core.trust()[0].state, TrustState::Suspect);
}

#[test]
fn killed_aggregator_restarts_warm_from_checkpoint_file() {
    let dir = std::env::temp_dir().join(format!("hawc-surv-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("campus.ckpt");

    let clock = ManualClock::new();
    let aggregator = Aggregator::with_core(core_with(&clock, 3), AggregatorConfig::default());
    let reactor = aggregator.spawn_reactor();
    let (mut client, server) = loopback_pair(LoopbackConfig::reliable());
    aggregator.add_connection(Box::new(server));
    for seq in 1..=5u64 {
        client
            .send(&encode(&report(0, seq, &[(14.0, 0.0)])))
            .unwrap();
        client
            .send(&encode(&report(1, seq, &[(14.0, 0.5)])))
            .unwrap();
    }
    // Wait for the reactor to drain both streams.
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while aggregator.stats().reports < 10 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(aggregator.stats().reports, 10);
    aggregator.checkpoint_to(&path).expect("checkpoint");
    let before = aggregator.snapshot();
    assert_eq!((before.occupancy, before.live), (2, 2));

    // "Kill": no Byes — just stop reading and drop.
    aggregator.stop();
    client.close();
    reactor.join();
    drop(aggregator);

    // A brand-new aggregator on the same clock restores the campus.
    let restarted = Aggregator::with_core(core_with(&clock, 3), AggregatorConfig::default());
    restarted.restore_from_file(&path).expect("restore");
    let after = restarted.snapshot();
    assert_eq!(
        after.to_json(),
        before.to_json(),
        "the restarted campus must be bit-identical, poles still Live"
    );

    // And it keeps fusing: the poles' next reports are accepted as
    // continuations, not cold starts.
    let reactor = restarted.spawn_reactor();
    let (mut client, server) = loopback_pair(LoopbackConfig::reliable());
    restarted.add_connection(Box::new(server));
    client
        .send(&encode(&report(0, 6, &[(14.0, 0.0), (20.0, 0.0)])))
        .unwrap();
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    while restarted.stats().reports < 11 && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(5));
    }
    let resumed = restarted.snapshot();
    assert_eq!(resumed.occupancy, 3, "post-restart reports keep fusing");
    assert_eq!(
        restarted.stats().stale_discards,
        0,
        "sequence continuity survived the restart"
    );
    restarted.stop();
    client.close();
    reactor.join();
    let _ = std::fs::remove_dir_all(&dir);
}
