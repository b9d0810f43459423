//! Wire capture and bit-exact replay.
//!
//! The reactor's ingest lane ([`crate::reactor`]) can record every
//! frame it admits to fusion, together with its arrival metadata. The
//! recording can then be fed back through the same lane — decode →
//! sentinel → fusion — turning any live anomaly into a frozen
//! regression fixture and enabling offline backtesting of fusion
//! changes against a corpus. It is also the live aggregator's
//! determinism oracle: a run's own capture, replayed, reproduces the
//! run's snapshot bit for bit.
//!
//! # File format (version 1)
//!
//! ```text
//! header: magic u32 "HWCR" | version u16 | reserved u16
//! record: arrival nanos u64 | conn id u32 | frame len u32
//!         | frame bytes | crc32 u32 over (arrival..frame)
//! ```
//!
//! All integers little-endian. Arrival times are nanoseconds on the
//! recording aggregator's [`obs::Clock`], stored as integers so a
//! replay under a [`obs::ManualClock`] reproduces them *exactly* —
//! the determinism guarantee below depends on that. Each record
//! carries its own CRC-32 (IEEE), so a truncated or bit-rotted tail
//! is detected at the damaged record, and everything before it is
//! still usable.
//!
//! # Replay determinism
//!
//! [`replay`] partitions records by connection, quantises time into
//! snapshot windows, and feeds each connection's frames in recorded
//! order through that connection's ingest lane into a shared
//! `FusionCore` under a `ManualClock` that only advances at window
//! barriers. Since fusion is last-seq-wins and the sentinel scores
//! each pole only on its own in-order stream, the snapshot sequence
//! is bit-identical whether the windows are drained by one worker
//! thread or eight — the property the capture-replay CI job pins.
//! (The one caveat: if a single pole's traffic straddles two
//! connections inside one window, cross-connection order is
//! scheduler-chosen, exactly as it was live.) Frames the live lane
//! shed past its inflight budget were never recorded, so replay
//! fuses exactly the messages live fusion saw.
//!
//! Replay shares only the per-connection lane with the reactor and
//! keeps its own scheduling — one [`FusionCore`], window barriers,
//! connections round-robined over scoped threads — so it stays an
//! independent reference for the reactor's worker pool and
//! [`crate::ShardedFusion`]'s shards. Sharded fusion assembles
//! snapshots through the same gather/dedup pipeline a lone core uses
//! (seam components merge campus-wide before dedup), so a capture
//! replayed here must match the snapshot the reactor produced live,
//! at any shard or worker count — `tests/fleet.rs` and the soak
//! bench's ingest cells assert exactly that.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Read, Write};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

use obs::ManualClock;
use parking_lot::Mutex;
use world::{PoleRegistry, WalkwayConfig};

use crate::aggregator::{CampusSnapshot, FusionConfig, FusionCore};
use crate::reactor::IngestLane;

/// Capture file magic: `b"HWCR"` read as a little-endian `u32`.
pub const CAPTURE_MAGIC: u32 = u32::from_le_bytes(*b"HWCR");

/// Capture format version this build writes.
pub const CAPTURE_VERSION: u16 = 1;

/// Everything that can be wrong with a capture file.
#[derive(Debug)]
pub enum CaptureError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file did not start with [`CAPTURE_MAGIC`].
    BadMagic(u32),
    /// The file's format version is newer than this build.
    UnsupportedVersion(u16),
    /// The file ended mid-record.
    Truncated,
    /// A record's CRC did not match its bytes.
    ChecksumMismatch {
        /// Index of the damaged record.
        record: usize,
    },
    /// A record promised an implausibly large frame.
    Oversize(u32),
}

impl std::fmt::Display for CaptureError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CaptureError::Io(e) => write!(f, "capture i/o error: {e}"),
            CaptureError::BadMagic(got) => write!(f, "bad capture magic {got:#010x}"),
            CaptureError::UnsupportedVersion(v) => write!(f, "unsupported capture version {v}"),
            CaptureError::Truncated => write!(f, "capture truncated mid-record"),
            CaptureError::ChecksumMismatch { record } => {
                write!(f, "capture record {record} failed its checksum")
            }
            CaptureError::Oversize(n) => write!(f, "capture record claims {n}-byte frame"),
        }
    }
}

impl std::error::Error for CaptureError {}

impl From<std::io::Error> for CaptureError {
    fn from(e: std::io::Error) -> Self {
        CaptureError::Io(e)
    }
}

/// Largest frame a capture record may claim — the wire's own frame
/// ceiling. Anything larger could never have been decoded live.
const MAX_RECORD_FRAME: usize =
    crate::wire::HEADER_LEN + crate::wire::MAX_BODY_LEN + crate::wire::CHECKSUM_LEN;

/// One recorded wire frame with its arrival metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CaptureRecord {
    /// Arrival time on the recording aggregator's clock.
    pub arrival: Duration,
    /// The connection the frame arrived on (aggregator-assigned,
    /// 1-based; 0 means "unknown/direct").
    pub conn_id: u32,
    /// The complete encoded wire frame, exactly as received.
    pub frame: Vec<u8>,
}

/// Appends wire frames to a capture sink as the reactor admits them.
pub struct CaptureWriter {
    out: Box<dyn Write + Send>,
}

impl std::fmt::Debug for CaptureWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CaptureWriter").finish_non_exhaustive()
    }
}

impl CaptureWriter {
    /// Wraps any sink, writing the file header immediately.
    pub fn new(mut out: Box<dyn Write + Send>) -> std::io::Result<Self> {
        out.write_all(&CAPTURE_MAGIC.to_le_bytes())?;
        out.write_all(&CAPTURE_VERSION.to_le_bytes())?;
        out.write_all(&0u16.to_le_bytes())?;
        Ok(CaptureWriter { out })
    }

    /// Creates (truncating) a capture file at `path`.
    pub fn create(path: &Path) -> std::io::Result<Self> {
        let file = File::create(path)?;
        CaptureWriter::new(Box::new(BufWriter::new(file)))
    }

    /// An in-memory writer plus a handle to its bytes (tests and the
    /// fixture generator).
    pub fn in_memory() -> (Self, Arc<Mutex<Vec<u8>>>) {
        #[derive(Clone)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let shared = Arc::new(Mutex::new(Vec::new()));
        let writer = CaptureWriter::new(Box::new(SharedBuf(Arc::clone(&shared))))
            .expect("vec write cannot fail");
        (writer, shared)
    }

    /// Appends one frame with its arrival metadata.
    pub fn record(&mut self, arrival: Duration, conn_id: u32, frame: &[u8]) -> std::io::Result<()> {
        let mut rec = Vec::with_capacity(16 + frame.len());
        rec.extend_from_slice(&(arrival.as_nanos() as u64).to_le_bytes());
        rec.extend_from_slice(&conn_id.to_le_bytes());
        rec.extend_from_slice(&(frame.len() as u32).to_le_bytes());
        rec.extend_from_slice(frame);
        let crc = crate::wire::crc32(&rec);
        self.out.write_all(&rec)?;
        self.out.write_all(&crc.to_le_bytes())?;
        obs::incr("fleet.capture.frames", 1);
        Ok(())
    }

    /// Flushes the underlying sink.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.out.flush()
    }
}

/// Parses a complete capture byte string.
pub fn read_capture(bytes: &[u8]) -> Result<Vec<CaptureRecord>, CaptureError> {
    if bytes.len() < 8 {
        return Err(CaptureError::Truncated);
    }
    let magic = u32::from_le_bytes(bytes[0..4].try_into().expect("4"));
    if magic != CAPTURE_MAGIC {
        return Err(CaptureError::BadMagic(magic));
    }
    let version = u16::from_le_bytes(bytes[4..6].try_into().expect("2"));
    if version > CAPTURE_VERSION {
        return Err(CaptureError::UnsupportedVersion(version));
    }
    let mut records = Vec::new();
    let mut pos = 8usize;
    while pos < bytes.len() {
        if bytes.len() - pos < 16 {
            return Err(CaptureError::Truncated);
        }
        let arrival_nanos = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8"));
        let conn_id = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4"));
        let len = u32::from_le_bytes(bytes[pos + 12..pos + 16].try_into().expect("4"));
        if len as usize > MAX_RECORD_FRAME {
            return Err(CaptureError::Oversize(len));
        }
        let frame_end = pos + 16 + len as usize;
        if bytes.len() < frame_end + 4 {
            return Err(CaptureError::Truncated);
        }
        let expected = u32::from_le_bytes(bytes[frame_end..frame_end + 4].try_into().expect("4"));
        let computed = crate::wire::crc32(&bytes[pos..frame_end]);
        if expected != computed {
            return Err(CaptureError::ChecksumMismatch {
                record: records.len(),
            });
        }
        records.push(CaptureRecord {
            arrival: Duration::from_nanos(arrival_nanos),
            conn_id,
            frame: bytes[pos + 16..frame_end].to_vec(),
        });
        pos = frame_end + 4;
    }
    Ok(records)
}

/// Loads and parses a capture file.
pub fn load_capture(path: &Path) -> Result<Vec<CaptureRecord>, CaptureError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    read_capture(&bytes)
}

/// Replays a recording through decode → sentinel → fusion and returns
/// the snapshot sequence, one per `snapshot_every` window of recorded
/// time (`Duration::ZERO`: one snapshot at the last arrival).
/// `threads` is the worker count draining connections within a
/// window; the result is bit-identical for any value ≥ 1.
pub fn replay(
    records: &[CaptureRecord],
    registry: PoleRegistry,
    walkway: WalkwayConfig,
    fusion: FusionConfig,
    threads: usize,
    snapshot_every: Duration,
) -> Vec<CampusSnapshot> {
    let clock = ManualClock::new();
    let core = Mutex::new(FusionCore::new(registry, walkway, fusion).with_clock(clock.handle()));
    let threads = threads.max(1);

    // Partition by connection, preserving recorded order within each,
    // next to the connection's ingest lane and its first record not
    // yet replayed. The recording holds only frames the live lane
    // admitted, so the replay lane never needs to shed.
    let mut conns: BTreeMap<u32, (IngestLane, Vec<&CaptureRecord>, usize)> = BTreeMap::new();
    let mut max_arrival = Duration::ZERO;
    for r in records {
        conns
            .entry(r.conn_id)
            .or_insert_with(|| (IngestLane::new(r.conn_id, usize::MAX, None), Vec::new(), 0))
            .1
            .push(r);
        max_arrival = max_arrival.max(r.arrival);
    }
    let every = if snapshot_every.is_zero() {
        max_arrival.max(Duration::from_nanos(1))
    } else {
        snapshot_every
    };

    let mut snapshots = Vec::new();
    let mut cut = Duration::ZERO;
    loop {
        cut += every;
        let final_window = cut >= max_arrival;

        // This window's work: each open connection's records with
        // arrival <= cut, dealt round-robin over the workers. Each
        // worker owns whole connections, so per-connection frame
        // order is preserved no matter the interleaving.
        let mut work: Vec<Vec<(&mut IngestLane, &[&CaptureRecord])>> =
            (0..threads).map(|_| Vec::new()).collect();
        let mut dealt = 0;
        for (lane, stream, next) in conns.values_mut() {
            let start = *next;
            *next += stream[start..]
                .iter()
                .take_while(|r| r.arrival <= cut)
                .count();
            if lane.is_open() && *next > start {
                work[dealt % threads].push((lane, &stream[start..*next]));
                dealt += 1;
            }
        }
        std::thread::scope(|s| {
            for chunk in work.into_iter().filter(|c| !c.is_empty()) {
                let core = &core;
                s.spawn(move || {
                    for (lane, window) in chunk {
                        for r in window {
                            lane.push(&r.frame);
                            while let Some(msg) = lane.admit(r.arrival) {
                                msg.fuse(|conn_id, m| core.lock().ingest_from(conn_id, m));
                            }
                        }
                    }
                });
            }
        });

        // Barrier: all of the window's traffic is fused; only now does
        // time advance, so `heard_at` and snapshot timing are
        // independent of worker interleaving.
        clock.set(cut);
        snapshots.push(core.lock().snapshot());
        if final_window {
            break;
        }
    }
    snapshots
}
