//! Bench-grade latency recorder.
//!
//! `obs::Histogram` buckets at √2, so one of its percentiles can sit up
//! to 41% away from the true value: fine for a live scoreboard, too
//! coarse for a benchmark that must see a 10% change. This recorder
//! keeps the raw samples (nanoseconds), so a percentile is exactly the
//! order statistic a sorted-sample oracle returns. Past `cap` samples
//! it keeps a uniform reservoir instead (Algorithm R on a fixed-seed
//! generator), which bounds memory; no run of this benchmark records
//! that many values into one recorder.
//!
//! Every end-to-end percentile of the benchmark comes from here.

use std::time::{Duration, Instant};

/// Samples kept before the reservoir takes over (8 MiB of `u64`).
const CAP: usize = 1 << 20;

/// Raw latency samples, or a uniform reservoir of them past the cap.
#[derive(Clone)]
pub struct Recorder {
    samples: Vec<u64>,
    seen: u64,
    cap: usize,
    rng: u64,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::with_cap(CAP)
    }
}

impl Recorder {
    fn with_cap(cap: usize) -> Recorder {
        Recorder {
            samples: Vec::new(),
            seen: 0,
            cap: cap.max(1),
            rng: 0x9E37_79B9_7F4A_7C15,
        }
    }

    /// Records one value in nanoseconds.
    pub fn record_ns(&mut self, v: u64) {
        self.seen += 1;
        if self.samples.len() < self.cap {
            self.samples.push(v);
            return;
        }
        // xorshift64: a fixed sequence, so a rerun keeps the same subset.
        self.rng ^= self.rng << 13;
        self.rng ^= self.rng >> 7;
        self.rng ^= self.rng << 17;
        let slot = self.rng % self.seen;
        if let Some(s) = self.samples.get_mut(slot as usize) {
            *s = v;
        }
    }

    /// Records one duration.
    pub fn record(&mut self, d: Duration) {
        self.record_ns(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX));
    }

    /// Nearest-rank percentile `q` in `[0, 1]` in milliseconds: the
    /// sample a sorted-sample oracle finds at index `ceil(q·n) − 1`.
    /// 0 when empty.
    pub fn quantile_ms(&self, q: f64) -> f64 {
        let n = self.samples.len();
        if n == 0 {
            return 0.0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        let mut sorted = self.samples.clone();
        let (_, v, _) = sorted.select_nth_unstable(rank - 1);
        *v as f64 / 1e6
    }

    /// Median, ms.
    pub fn p50(&self) -> f64 {
        self.quantile_ms(0.5)
    }

    /// 99th percentile, ms.
    pub fn p99(&self) -> f64 {
        self.quantile_ms(0.99)
    }
}

/// Latencies of one phase, also split by due time into equal windows.
///
/// The tail is reported as the median over windows of each window's
/// p99: a host hiccup that stalls one window cannot decide a run's
/// tail, while a regression that lengthens every window's tail still
/// moves it. The median is over the whole phase.
pub struct Windowed {
    start: Instant,
    width: Duration,
    all: Recorder,
    parts: Vec<Recorder>,
}

impl Windowed {
    /// `n` equal windows over `span` from `start`.
    pub fn new(start: Instant, span: Duration, n: usize) -> Windowed {
        let n = n.max(1);
        Windowed {
            start,
            width: span / n as u32,
            all: Recorder::default(),
            parts: vec![Recorder::default(); n],
        }
    }

    /// Records the latency of an operation that fell due at `due`.
    pub fn record(&mut self, due: Instant, d: Duration) {
        self.all.record(d);
        let k = due.saturating_duration_since(self.start).as_nanos() / self.width.as_nanos().max(1);
        let last = self.parts.len() - 1;
        self.parts[(k as usize).min(last)].record(d);
    }

    /// Median over the whole phase, ms.
    pub fn p50(&self) -> f64 {
        self.all.p50()
    }

    /// Median over windows of each window's p99, ms (empty windows
    /// are skipped).
    pub fn p99(&self) -> f64 {
        let mut tails: Vec<f64> = self
            .parts
            .iter()
            .filter(|r| !r.samples.is_empty())
            .map(Recorder::p99)
            .collect();
        if tails.is_empty() {
            return 0.0;
        }
        tails.sort_by(f64::total_cmp);
        tails[tails.len() / 2]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn oracle(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    /// Values spread over 1.03–1.40 ms all land in one √2 bucket of
    /// `obs::Histogram`, whose median then reads more than 10% off;
    /// this recorder must match the sorted-sample oracle on every
    /// percentile.
    #[test]
    fn percentiles_match_a_sorted_oracle_where_obs_is_off() {
        let mut samples: Vec<u64> = (0..10_000u64)
            .map(|i| {
                // Deterministic, uneven spread (golden-ratio stride).
                let u = (i as f64 * 0.618_033_988_75).fract();
                ((1.03 + 0.37 * u * u) * 1e6).round() as u64
            })
            .collect();
        let mut rec = Recorder::default();
        let obs_hist = obs::Histogram::default();
        for &s in &samples {
            rec.record_ns(s);
            obs_hist.observe(s as f64 / 1e6);
        }
        samples.sort_unstable();
        let ms: Vec<f64> = samples.iter().map(|&s| s as f64 / 1e6).collect();
        let truth = oracle(&ms, 0.5);
        let obs_p50 = obs_hist.quantile(0.5).expect("non-empty");
        assert!(
            (obs_p50 - truth).abs() / truth > 0.10,
            "the distribution must defeat obs: obs {obs_p50} vs {truth}"
        );
        for q in [0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0] {
            assert_eq!(rec.quantile_ms(q), oracle(&ms, q), "q={q}");
        }
        assert_eq!(Recorder::default().p99(), 0.0);
    }

    /// Past the cap the reservoir stays a uniform sample: percentiles
    /// of a long uniform stream stay within a few percent.
    #[test]
    fn reservoir_stays_uniform_past_the_cap() {
        let mut rec = Recorder::with_cap(2_000);
        for i in 0..200_000u64 {
            rec.record_ns((i * 7_919) % 100_000 + 1);
        }
        assert_eq!(rec.samples.len(), 2_000);
        for (q, want) in [(0.5, 0.05), (0.9, 0.09)] {
            let got = rec.quantile_ms(q);
            assert!((got - want).abs() / want < 0.08, "q={q}: {got} vs {want}");
        }
    }

    #[test]
    fn one_bad_window_does_not_decide_the_tail() {
        let t0 = Instant::now();
        let mut w = Windowed::new(t0, Duration::from_secs(5), 5);
        for i in 0..5_000u64 {
            let due = t0 + Duration::from_millis(i);
            // Window 2 (2–3 s) stalls: 20% of it takes 100 ms.
            let ms = if (2_000..3_000).contains(&i) && i % 5 == 0 {
                100
            } else {
                1 + i % 3
            };
            w.record(due, Duration::from_millis(ms));
        }
        assert!((w.p99() - 3.0).abs() < 0.05, "windowed tail {}", w.p99());
        assert!(w.all.p99() > 50.0, "the whole-phase p99 sees the stall");
        assert!((w.p50() - 2.0).abs() < 0.05);
    }
}
