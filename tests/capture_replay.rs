//! Capture → replay regression: a checked-in wire recording replays
//! through decode → sentinel → fusion to a checked-in golden snapshot
//! sequence, bit for bit, at any worker thread count.
//!
//! The fixture (`tests/fixtures/campus_capture.hwcr`) is a synthetic
//! four-pole campus: three honest poles, one pole smuggling
//! out-of-campus clusters (it walks the trust ladder to Banned and its
//! connection is killed mid-recording, exactly as it would be live),
//! plus heartbeats and an orderly Bye. The golden
//! (`campus_capture.golden.jsonl`) is the replayed snapshot sequence
//! at one worker thread.
//!
//! Regenerate both after an intentional wire/fusion change with:
//!
//! ```text
//! cargo test --release --test capture_replay -- --ignored regenerate
//! ```
//!
//! Two pins on the live side: a reactor records exactly the frames it
//! hands to fusion (never the ones it sheds), and a joined reactor
//! leaves its capture file complete on disk.

use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use counting::{EpsRung, HealthState, PrecisionRung};
use fleet::{
    encode, load_capture, loopback_pair, read_capture, replay, Aggregator, AggregatorConfig,
    CampusSnapshot, CaptureRecord, CaptureWriter, ClusterObservation, FusionConfig, Heartbeat,
    LoopbackConfig, Message, PoleReport, Transport, TransportError,
};
use geom::Point3;
use obs::ManualClock;
use world::{corridor_layout, PoleRegistry, WalkwayConfig};

const SPACING_M: f64 = 15.0;

fn fixture_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn capture_path() -> PathBuf {
    fixture_dir().join("campus_capture.hwcr")
}

fn golden_path() -> PathBuf {
    fixture_dir().join("campus_capture.golden.jsonl")
}

fn report(pole_id: u32, seq: u64, clusters: &[(f64, f64)]) -> Message {
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

/// Builds the fixture recording deterministically: every byte of the
/// capture is a pure function of this code, so the checked-in file can
/// always be audited against it.
fn build_fixture() -> Vec<u8> {
    let (mut writer, sink) = CaptureWriter::in_memory();
    let ms = Duration::from_millis;
    let mut rec = |at_ms: u64, conn: u32, msg: &Message| {
        writer
            .record(ms(at_ms), conn, &encode(msg))
            .expect("record");
    };

    // Hellos announce the fleet.
    rec(5, 1, &Message::Hello { pole_id: 0 });
    rec(7, 2, &Message::Hello { pole_id: 1 });
    rec(9, 3, &Message::Hello { pole_id: 2 });
    rec(11, 4, &Message::Hello { pole_id: 3 });

    for seq in 1..=8u64 {
        let t = seq * 100;
        // Two honest poles, one person each.
        rec(t + 10, 1, &report(0, seq, &[(14.0, 0.0)]));
        rec(t + 15, 2, &report(1, seq, &[(14.0, 0.5)]));
        // The smuggler: a plausible person plus an out-of-campus
        // cluster. The sentinel quarantines it at seq 2 and bans it at
        // seq 8, killing conn 3 mid-recording.
        rec(
            t + 20,
            3,
            &report(2, seq, &[(14.0, -0.5), (40_000.0, -3_000.0)]),
        );
        // The fourth pole joins late and leaves early.
        if (4..=6).contains(&seq) {
            rec(t + 25, 4, &report(3, seq, &[(14.0, 0.2)]));
        }
    }
    rec(
        450,
        1,
        &Message::Heartbeat(Heartbeat {
            pole_id: 0,
            seq: 1,
            timestamp_ms: 450,
        }),
    );
    rec(680, 4, &Message::Bye { pole_id: 3 });

    writer.flush().expect("flush");
    let bytes = sink.lock().clone();
    bytes
}

fn fixture_records() -> Vec<CaptureRecord> {
    let bytes = std::fs::read(capture_path()).expect(
        "missing tests/fixtures/campus_capture.hwcr — run \
         `cargo test --release --test capture_replay -- --ignored regenerate`",
    );
    read_capture(&bytes).expect("fixture capture parses")
}

fn replay_jsonl(records: &[CaptureRecord], threads: usize) -> String {
    let registry = PoleRegistry::from_poses(corridor_layout(4, SPACING_M));
    let snapshots = replay(
        records,
        registry,
        WalkwayConfig::default(),
        FusionConfig::default(),
        threads,
        Duration::from_millis(250),
    );
    let mut out = String::new();
    for s in &snapshots {
        out.push_str(&s.to_json());
        out.push('\n');
    }
    out
}

#[test]
fn checked_in_fixture_matches_its_builder() {
    let on_disk = std::fs::read(capture_path()).expect("fixture present");
    assert_eq!(
        on_disk,
        build_fixture(),
        "fixture drifted from its builder — regenerate with --ignored regenerate"
    );
}

#[test]
fn replay_reproduces_the_golden_snapshots() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden present");
    let records = fixture_records();
    assert_eq!(
        replay_jsonl(&records, 1),
        golden,
        "single-thread replay diverged from the checked-in golden"
    );
}

#[test]
fn replay_is_bit_identical_across_thread_counts() {
    let golden = std::fs::read_to_string(golden_path()).expect("golden present");
    let records = fixture_records();
    for threads in [2, 4, 8] {
        assert_eq!(
            replay_jsonl(&records, threads),
            golden,
            "replay at {threads} threads diverged from the golden"
        );
    }
}

/// Pole 0's report `seq` without a capture stamp, so a long burst on a
/// pinned clock never trips the sentinel's clock-skew check.
fn burst_report(seq: u64) -> Vec<u8> {
    let Message::Report(r) = report(0, seq, &[(14.0, 0.0)]) else {
        unreachable!("report() builds reports")
    };
    encode(&Message::Report(PoleReport {
        capture_ms: None,
        ..r
    }))
}

/// A one-pole campus on a pinned manual clock.
fn one_pole_aggregator(cfg: AggregatorConfig, writer: CaptureWriter) -> Aggregator {
    let registry = PoleRegistry::from_poses(corridor_layout(1, SPACING_M));
    let clock = ManualClock::new().handle();
    Aggregator::with_clock(registry, WalkwayConfig::default(), cfg, clock).with_capture(writer)
}

/// Asserts `records` hold exactly the messages `aggregator` handed to
/// fusion and replay to its live campus; returns that message count.
fn assert_capture_replays_live(aggregator: &Aggregator, records: &[CaptureRecord]) -> u64 {
    let stats = aggregator.stats();
    assert_eq!((stats.rejected, stats.quarantined), (0, 0), "honest pole");
    let fused = stats.hellos + stats.reports + stats.stale_discards;
    assert_eq!(
        records.len() as u64,
        fused,
        "the capture must hold exactly the messages handed to fusion"
    );
    let registry = PoleRegistry::from_poses(corridor_layout(1, SPACING_M));
    let replayed = replay(
        records,
        registry,
        WalkwayConfig::default(),
        FusionConfig::default(),
        1,
        Duration::ZERO,
    );
    assert_eq!(
        replayed.last().map(CampusSnapshot::to_json),
        Some(aggregator.snapshot().to_json()),
        "replaying the capture must reproduce the live campus"
    );
    fused
}

#[test]
fn a_shedding_reactor_captures_exactly_what_it_fused() {
    let cfg = AggregatorConfig {
        inflight_budget: 1,
        reactor_workers: 1,
        ..AggregatorConfig::default()
    };
    let (writer, captured) = CaptureWriter::in_memory();
    let aggregator = one_pole_aggregator(cfg, writer);
    let (mut client, server) = loopback_pair(LoopbackConfig::reliable());
    client
        .send(&encode(&Message::Hello { pole_id: 0 }))
        .unwrap();
    for seq in 1..=2_000 {
        client.send(&burst_report(seq)).unwrap();
    }
    let reactor = aggregator.spawn_reactor();
    aggregator.add_connection(Box::new(server));
    aggregator.stop();
    reactor.join();

    let records = read_capture(&captured.lock()).expect("own capture parses");
    let fused = assert_capture_replays_live(&aggregator, &records);
    assert!(
        fused < 2_001,
        "budget 1 under a 2,001-frame burst must shed"
    );
}

/// Holds its one chunk until the test has met it twice at `gate`:
/// once to learn the pump is inside the read, once to release it.
struct GatedTransport {
    bytes: Option<Vec<u8>>,
    gate: Arc<Barrier>,
}

impl Transport for GatedTransport {
    fn send(&mut self, _frame: &[u8]) -> Result<(), TransportError> {
        Err(TransportError::Closed)
    }

    fn recv(&mut self, _timeout: Duration) -> Result<Vec<u8>, TransportError> {
        let bytes = self.bytes.take().ok_or(TransportError::Closed)?;
        self.gate.wait();
        self.gate.wait();
        Ok(bytes)
    }

    fn close(&mut self) {}
}

#[test]
fn a_joined_reactor_leaves_a_complete_capture_file() {
    let path = std::env::temp_dir().join(format!("hawc-capture-{}.hwcr", std::process::id()));
    let writer = CaptureWriter::create(&path).expect("create capture file");
    let aggregator = one_pole_aggregator(AggregatorConfig::default(), writer);
    let mut bytes = encode(&Message::Hello { pole_id: 0 });
    for seq in 1..=50 {
        bytes.extend(burst_report(seq));
    }
    let gate = Arc::new(Barrier::new(2));
    let reactor = aggregator.spawn_reactor();
    aggregator.add_connection(Box::new(GatedTransport {
        bytes: Some(bytes),
        gate: Arc::clone(&gate),
    }));
    // Stop while the pump is mid-read, so every frame is recorded
    // after `stop` returns.
    gate.wait();
    aggregator.stop();
    gate.wait();
    reactor.join();

    // Read the file while the aggregator, and its writer, still live.
    let on_disk = load_capture(&path).expect("capture file parses");
    let _ = std::fs::remove_file(&path);
    assert_eq!(assert_capture_replays_live(&aggregator, &on_disk), 51);
}

/// Rewrites the fixture and its golden. Run only after an intentional
/// format or fusion change: `-- --ignored regenerate`.
#[test]
#[ignore]
fn regenerate() {
    std::fs::create_dir_all(fixture_dir()).expect("fixtures dir");
    let bytes = build_fixture();
    std::fs::write(capture_path(), &bytes).expect("write capture fixture");
    let records = read_capture(&bytes).expect("fresh capture parses");
    std::fs::write(golden_path(), replay_jsonl(&records, 1)).expect("write golden");
}
