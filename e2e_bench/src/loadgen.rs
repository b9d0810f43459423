//! Open-loop load generation.
//!
//! Operations are due on a fixed schedule whatever the system does: a
//! stalled operation delays the ones behind it, and each of those is
//! timed from when it was *due*, not from when the generator got to
//! it. That is the coordinated-omission correction (wrk2 /
//! HdrHistogram practice): a 100 ms stall shows up as a 100 ms latency
//! on every operation it held back, not as one slow sample.
//!
//! The generator also reports its own lateness (start − due) and how
//! busy it was. A run whose generator lags is invalid, not slow: the
//! offered load was not the load the schedule promised.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use crate::rec::Recorder;

/// What the generator measured about itself.
#[derive(Clone, Default)]
pub struct GenStats {
    /// start − due of every operation.
    pub lag: Recorder,
    /// Time spent inside operations.
    pub busy: Duration,
    /// Operations run.
    pub ops: u64,
}

/// Runs `op(due, item)` for every `(offset, item)` of `schedule`, each
/// no earlier than `start + offset`. Offsets must be non-decreasing.
/// Stops early once `stop` is set. The operation times itself from
/// `due` (it knows what it completes); the generator records only its
/// own lateness.
pub fn drive<T>(
    start: Instant,
    schedule: impl IntoIterator<Item = (Duration, T)>,
    stop: &AtomicBool,
    mut op: impl FnMut(Instant, T),
) -> GenStats {
    let mut stats = GenStats::default();
    for (offset, item) in schedule {
        if stop.load(Ordering::Relaxed) {
            break;
        }
        let due = start + offset;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let began = Instant::now();
        stats.lag.record(began.saturating_duration_since(due));
        op(due, item);
        stats.busy += began.elapsed();
        stats.ops += 1;
    }
    stats
}

/// `n` operations per second spread evenly over `span`, starting at
/// `from`, as schedule offsets.
pub fn uniform(from: Duration, span: Duration, rate_hz: f64) -> impl Iterator<Item = Duration> {
    let step = 1.0 / rate_hz.max(1e-9);
    let n = (span.as_secs_f64() * rate_hz).floor() as u64;
    (0..n).map(move |i| from + Duration::from_secs_f64(i as f64 * step))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sink that stalls 100 ms on one operation. Every operation due
    /// during the stall must be charged at least the stall time left
    /// when it fell due, and the generator's lag percentile must report
    /// how late the generator itself ran.
    #[test]
    fn a_stall_is_charged_to_every_operation_it_delays() {
        const EVERY: Duration = Duration::from_millis(1);
        const STALL: Duration = Duration::from_millis(100);
        let stall_at = 20u32;
        let n = 300u32;
        let schedule = (0..n).map(|i| (EVERY * i, i));
        let start = Instant::now() + Duration::from_millis(5);
        let mut lat: Vec<(u32, Instant, Duration)> = Vec::new();
        let mut stall_end = None;
        let stats = drive(start, schedule, &AtomicBool::new(false), |due, i| {
            if i == stall_at {
                std::thread::sleep(STALL);
                stall_end = Some(Instant::now());
            }
            lat.push((i, due, due.elapsed()));
        });
        let stall_end = stall_end.expect("the stall ran");
        assert_eq!(stats.ops, u64::from(n));
        let mut delayed = 0;
        let mut true_lag: Vec<f64> = Vec::new();
        for &(i, due, latency) in &lat {
            if i > stall_at && due < stall_end {
                delayed += 1;
                let remaining = stall_end - due;
                assert!(
                    latency >= remaining,
                    "op {i} recorded {latency:?}, stall still had {remaining:?} to run"
                );
            }
            // The generator's own lateness: when op i could start at
            // the earliest (after the stall) versus when it was due.
            let ready = if i > stall_at { stall_end } else { start };
            true_lag.push(ready.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        assert!(
            delayed >= 90,
            "about 100 ops fall due inside the stall, saw {delayed}"
        );
        true_lag.sort_by(f64::total_cmp);
        let want = true_lag[(0.99 * true_lag.len() as f64).ceil() as usize - 1];
        let got = stats.lag.p99();
        // The lower bound is exact; scheduler wake-ups may add a little.
        assert!(
            got >= want * 0.99,
            "lag p99 {got} ms below the stall-implied {want} ms"
        );
        assert!(got <= want + 5.0, "lag p99 {got} ms far above {want} ms");
        assert!(stats.busy >= STALL);
    }

    #[test]
    fn uniform_spacing_and_stop() {
        let offs: Vec<Duration> =
            uniform(Duration::from_secs(1), Duration::from_secs(2), 4.0).collect();
        assert_eq!(offs.len(), 8);
        assert_eq!(offs[0], Duration::from_secs(1));
        assert_eq!(offs[1], Duration::from_millis(1250));
        let stop = AtomicBool::new(true);
        let stats = drive(Instant::now(), [(Duration::ZERO, ())], &stop, |_, _| {
            panic!("stopped")
        });
        assert_eq!(stats.ops, 0);
    }
}
