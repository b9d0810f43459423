//! Tiered time-series ring buffer behind `GET /history`.
//!
//! Samples sit on a fixed time grid: [`HistoryRing::record`] folds the
//! snapshot current at every [`SAMPLE_EVERY_MS`] boundary a publish
//! crosses — occupancy, fused-people count, publish seq — into a 1 s
//! bucket, so a bucket's `n` counts grid points and its mean is a time
//! average however often, or unevenly, snapshots publish. When a 1 s
//! bucket closes (time moves past its end), it cascades *as a bucket*
//! into the open 10 s bucket, and a closing 10 s bucket cascades into
//! the open 1 min bucket. All aggregate fields are integers combined
//! with associative ops (sum/min/max, last-by-seq), so a coarse
//! bucket is **bit-identical** to the merge of the fine buckets that
//! tile it — the proptests pin that exactly. Each tier keeps a
//! bounded deque; at capacity the oldest bucket falls off.
//!
//! A reordered publish (timestamped before the next boundary) folds
//! nothing itself: it becomes the current state, sampled at the
//! boundaries later publishes cross, so closed history is never
//! rewritten and the grid stays one sample per boundary. Last-wins
//! fields are arbitrated by publish seq, not arrival order.

use std::collections::VecDeque;

/// Bucket resolutions, fine to coarse, in milliseconds.
pub const TIER_RES_MS: [u64; 3] = [1_000, 10_000, 60_000];

/// Dashboard labels for the tiers, index-aligned with
/// [`TIER_RES_MS`].
pub const TIER_LABELS: [&str; 3] = ["1s", "10s", "1m"];

/// The sampling grid [`HistoryRing::record`] folds publishes onto, ms.
/// Divides the finest tier's resolution.
pub const SAMPLE_EVERY_MS: u64 = 250;

/// Maps a `?res=` query value to a tier index.
pub fn tier_index(label: &str) -> Option<usize> {
    TIER_LABELS.iter().position(|&l| l == label)
}

/// One downsampled bucket. All fields are integers so tier merges
/// are exact, not approximately-equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Bucket {
    /// Bucket start, aligned to the tier resolution, ms.
    pub start_ms: u64,
    /// Grid samples folded in (one per boundary).
    pub samples: u32,
    /// Sum of occupancy over samples (mean = sum / samples).
    pub occ_sum: u64,
    /// Smallest occupancy seen.
    pub occ_min: u32,
    /// Largest occupancy seen.
    pub occ_max: u32,
    /// Occupancy of the latest sample by publish seq.
    pub occ_last: u32,
    /// Fused-people count of the latest sample by publish seq.
    pub people_last: u32,
    /// Publish seq of the latest sample (what "latest" means here).
    pub last_seq: u64,
}

impl Bucket {
    fn new(start_ms: u64) -> Bucket {
        Bucket {
            start_ms,
            samples: 0,
            occ_sum: 0,
            occ_min: u32::MAX,
            occ_max: 0,
            occ_last: 0,
            people_last: 0,
            last_seq: 0,
        }
    }

    /// Folds `n` samples of one state.
    fn fold(&mut self, occupancy: u32, people: u32, seq: u64, n: u32) {
        self.samples = self.samples.saturating_add(n);
        self.occ_sum += u64::from(occupancy) * u64::from(n);
        self.occ_min = self.occ_min.min(occupancy);
        self.occ_max = self.occ_max.max(occupancy);
        if seq >= self.last_seq {
            self.last_seq = seq;
            self.occ_last = occupancy;
            self.people_last = people;
        }
    }

    /// Merges another bucket into this one. Associative and (for the
    /// last-by-seq fields) commutative, which is what makes coarse
    /// tiers tile exactly over fine ones.
    pub fn merge(&mut self, other: &Bucket) {
        self.samples = self.samples.saturating_add(other.samples);
        self.occ_sum += other.occ_sum;
        self.occ_min = self.occ_min.min(other.occ_min);
        self.occ_max = self.occ_max.max(other.occ_max);
        if other.last_seq >= self.last_seq {
            self.last_seq = other.last_seq;
            self.occ_last = other.occ_last;
            self.people_last = other.people_last;
        }
    }

    /// Mean occupancy over the bucket (0 when empty).
    pub fn occ_mean(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.occ_sum as f64 / f64::from(self.samples)
        }
    }
}

#[derive(Debug)]
struct Tier {
    res_ms: u64,
    open: Option<Bucket>,
    closed: VecDeque<Bucket>,
}

impl Tier {
    fn align(&self, t_ms: u64) -> u64 {
        t_ms - t_ms % self.res_ms
    }
}

/// The most recently recorded publish and the first grid boundary it
/// has not yet been sampled at.
#[derive(Debug, Clone, Copy)]
struct Current {
    next_ms: u64,
    occupancy: u32,
    people: u32,
    seq: u64,
}

/// The three-tier history ring. See the module docs for semantics.
#[derive(Debug)]
pub struct HistoryRing {
    tiers: Vec<Tier>,
    cap: usize,
    current: Option<Current>,
}

impl HistoryRing {
    /// A ring retaining at most `cap_per_tier` *closed* buckets per
    /// tier (plus one open bucket each).
    pub fn new(cap_per_tier: usize) -> HistoryRing {
        HistoryRing {
            tiers: TIER_RES_MS
                .iter()
                .map(|&res_ms| Tier {
                    res_ms,
                    open: None,
                    closed: VecDeque::new(),
                })
                .collect(),
            cap: cap_per_tier.max(1),
            current: None,
        }
    }

    /// Records a publish at `at_ms` on the sampling grid: the state
    /// current before it is folded at every boundary in
    /// `[next boundary, at_ms)`, and this publish becomes current — at
    /// once at `at_ms` itself when that is a boundary. A burst of
    /// publishes between two boundaries therefore adds nothing but its
    /// last state. Boundaries older than the coarsest tier's retention
    /// are skipped, so a clock jump costs bounded work.
    pub fn record(&mut self, at_ms: f64, occupancy: u32, people: u32, seq: u64) {
        let t_ms = clamp_ms(at_ms);
        let mut next_ms = match self.current {
            Some(cur) if t_ms <= cur.next_ms => cur.next_ms,
            Some(cur) => {
                let last_tier = TIER_RES_MS[TIER_RES_MS.len() - 1];
                let horizon = (self.cap as u64 + 1).saturating_mul(last_tier);
                let from = cur.next_ms.max(grid_ceil(t_ms.saturating_sub(horizon)));
                self.fold_grid(from, t_ms, cur.occupancy, cur.people, cur.seq);
                grid_ceil(t_ms)
            }
            None => grid_ceil(t_ms),
        };
        if next_ms == t_ms {
            self.fold_at(t_ms, 1, occupancy, people, seq);
            next_ms += SAMPLE_EVERY_MS;
        }
        self.current = Some(Current {
            next_ms,
            occupancy,
            people,
            seq,
        });
    }

    /// Folds one state at every grid boundary in `[from_ms, to_ms)`
    /// (`from_ms` on the grid), one fine bucket at a time.
    fn fold_grid(&mut self, from_ms: u64, to_ms: u64, occupancy: u32, people: u32, seq: u64) {
        let res = TIER_RES_MS[0];
        let mut at = from_ms;
        while at < to_ms {
            let n = (to_ms.min(at - at % res + res) - at).div_ceil(SAMPLE_EVERY_MS);
            self.fold_at(at, n as u32, occupancy, people, seq);
            at += n * SAMPLE_EVERY_MS;
        }
    }

    /// Folds `n` samples of one state into the fine bucket holding
    /// `t_ms`.
    fn fold_at(&mut self, t_ms: u64, n: u32, occupancy: u32, people: u32, seq: u64) {
        let mut bucket = Bucket::new(self.tiers[0].align(t_ms));
        bucket.fold(occupancy, people, seq, n);
        self.absorb(0, bucket);
    }

    /// Folds `incoming` (an aligned bucket from the finer tier, or a
    /// grid fold for tier 0) into tier `idx`, cascading any bucket
    /// this closes into the next tier.
    fn absorb(&mut self, idx: usize, incoming: Bucket) {
        if idx >= self.tiers.len() {
            return;
        }
        let aligned = self.tiers[idx].align(incoming.start_ms);
        let incoming = Bucket {
            start_ms: aligned,
            ..incoming
        };
        let closed = {
            let tier = &mut self.tiers[idx];
            match &mut tier.open {
                None => {
                    tier.open = Some(incoming);
                    None
                }
                Some(open) if aligned <= open.start_ms => {
                    // Same bucket: grid folds only move forward, and
                    // closed history stays immutable.
                    open.merge(&incoming);
                    None
                }
                Some(open) => {
                    let finished = *open;
                    *open = incoming;
                    Some(finished)
                }
            }
        };
        if let Some(finished) = closed {
            let tier = &mut self.tiers[idx];
            if tier.closed.len() >= self.cap {
                tier.closed.pop_front();
            }
            tier.closed.push_back(finished);
            self.absorb(idx + 1, finished);
        }
    }

    /// Retained buckets of tier `idx`, oldest first, the open bucket
    /// last.
    pub fn buckets(&self, idx: usize) -> impl Iterator<Item = &Bucket> {
        let tier = &self.tiers[idx.min(self.tiers.len() - 1)];
        tier.closed.iter().chain(tier.open.iter())
    }

    /// Closed-bucket count of tier `idx` (capacity accounting).
    pub fn closed_len(&self, idx: usize) -> usize {
        self.tiers[idx.min(self.tiers.len() - 1)].closed.len()
    }
}

/// The first grid boundary at or after `t_ms`.
fn grid_ceil(t_ms: u64) -> u64 {
    t_ms.div_ceil(SAMPLE_EVERY_MS) * SAMPLE_EVERY_MS
}

/// Non-finite or negative timestamps clamp to 0 rather than poisoning
/// bucket alignment; absurdly large ones clamp to 2^52 ms (~142,000
/// years), which leaves grid arithmetic room to never overflow.
fn clamp_ms(at_ms: f64) -> u64 {
    if at_ms.is_finite() && at_ms > 0.0 {
        (at_ms as u64).min(1 << 52)
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring_with(publishes: &[(u64, u32)]) -> HistoryRing {
        let mut ring = HistoryRing::new(1024);
        for (i, &(t, occ)) in publishes.iter().enumerate() {
            ring.record(t as f64, occ, occ, i as u64 + 1);
        }
        ring
    }

    #[test]
    fn single_bucket_aggregates() {
        // Publishes on three boundaries each fold at once.
        let ring = ring_with(&[(0, 5), (250, 3), (500, 7)]);
        let b: Vec<&Bucket> = ring.buckets(0).collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].start_ms, 0);
        assert_eq!(b[0].samples, 3);
        assert_eq!(b[0].occ_min, 3);
        assert_eq!(b[0].occ_max, 7);
        assert_eq!(b[0].occ_last, 7);
        assert_eq!(b[0].occ_mean(), 5.0);
    }

    #[test]
    fn closing_a_second_cascades_into_ten_seconds() {
        // Publishes at 0s, 1s, …, 11s: twelve 1s buckets of four grid
        // samples each (the last still open at one), the first ten of
        // which tile the first 10s bucket.
        let publishes: Vec<(u64, u32)> = (0..12).map(|i| (i * 1000, i as u32)).collect();
        let ring = ring_with(&publishes);
        let fine: Vec<&Bucket> = ring.buckets(0).collect();
        assert_eq!(fine.len(), 12);
        let coarse: Vec<&Bucket> = ring.buckets(1).collect();
        // 10s tier: one closed bucket [0,10s) + the open [10s,20s).
        assert_eq!(coarse.len(), 2);
        let mut expect = Bucket::new(0);
        for b in &fine[..10] {
            expect.merge(b);
        }
        assert_eq!(
            *coarse[0], expect,
            "10s bucket tiles its 1s buckets exactly"
        );
        assert_eq!(coarse[0].samples, 40);
        assert_eq!(coarse[0].occ_last, 9);
    }

    #[test]
    fn wraparound_drops_oldest() {
        let mut ring = HistoryRing::new(4);
        for i in 0..10u64 {
            ring.record((i * 1000) as f64, 1, 1, i + 1);
        }
        // 10 buckets started; 9 closed; cap 4 keeps the newest 4
        // closed plus the open one.
        assert_eq!(ring.closed_len(0), 4);
        let b: Vec<&Bucket> = ring.buckets(0).collect();
        assert_eq!(b.len(), 5);
        assert_eq!(b[0].start_ms, 5000, "oldest retained");
        assert_eq!(b[4].start_ms, 9000, "open bucket last");
    }

    /// A late publish folds nothing at its own time: it becomes the
    /// state sampled at the boundaries the next publish crosses.
    #[test]
    fn a_reordered_publish_is_sampled_only_at_later_boundaries() {
        let mut ring = HistoryRing::new(16);
        ring.record(5_000.0, 4, 4, 10);
        ring.record(1_000.0, 9, 9, 3); // late, lower seq
        assert_eq!(ring.buckets(0).count(), 1, "no bucket at 1 s");
        assert_eq!(ring.buckets(0).next().unwrap().samples, 1);
        ring.record(5_600.0, 2, 2, 11);
        let b: Vec<&Bucket> = ring.buckets(0).collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].start_ms, 5_000);
        assert_eq!(
            b[0].samples, 3,
            "5000, then the late state at 5250 and 5500"
        );
        assert_eq!(b[0].occ_sum, 4 + 9 + 9);
        assert_eq!(b[0].occ_last, 4, "last is by seq, not arrival");
        assert_eq!(b[0].occ_max, 9);
    }

    /// A burst of publishes between two grid boundaries must not pull
    /// the bucket's mean toward the burst: 100 publishes at 50 inside
    /// the last 100 ms of a second that read 10 at each of its four
    /// boundaries leave that second's mean at 10.
    #[test]
    fn a_publish_burst_does_not_outvote_a_quiet_stretch() {
        let mut ring = HistoryRing::new(16);
        let mut seq = 0;
        let mut publish = |ring: &mut HistoryRing, t: f64, occ: u32| {
            seq += 1;
            ring.record(t, occ, occ, seq);
        };
        publish(&mut ring, 0.0, 10);
        publish(&mut ring, 120.0, 10);
        for i in 0..100 {
            publish(&mut ring, 900.0 + f64::from(i), 50);
        }
        publish(&mut ring, 1_000.0, 50);
        publish(&mut ring, 1_400.0, 50);
        let b: Vec<&Bucket> = ring.buckets(0).collect();
        assert_eq!(b[0].start_ms, 0);
        assert_eq!(b[0].samples, 4, "one sample per 250 ms boundary");
        assert_eq!(b[0].occ_mean(), 10.0);
        assert_eq!(b[0].occ_max, 10);
        assert_eq!(b[1].start_ms, 1_000);
        assert_eq!(b[1].samples, 2, "1000 at once, 1250 crossed at 1400");
        assert_eq!(b[1].occ_mean(), 50.0);
    }

    /// The grid is dense however sparse the publishes: a publish after
    /// a 3 s silence samples the held state at every boundary between.
    #[test]
    fn sparse_publishes_fill_every_boundary_between() {
        let mut ring = HistoryRing::new(16);
        ring.record(100.0, 7, 7, 1);
        ring.record(3_100.0, 9, 9, 2);
        let b: Vec<&Bucket> = ring.buckets(0).collect();
        let n: Vec<u32> = b.iter().map(|b| b.samples).collect();
        assert_eq!(n, vec![3, 4, 4, 1], "250..3000 on the grid");
        assert!(b.iter().all(|b| b.occ_max == 7));
        // A clock jump far past retention costs bounded work and keeps
        // the cap.
        ring.record(1e15, 1, 1, 3);
        ring.record(1e15 + 1_000.0, 1, 1, 4);
        ring.record(f64::MAX, 1, 1, 5);
        ring.record(f64::MAX, 1, 1, 6);
        assert!(ring.closed_len(0) <= 16);
    }

    #[test]
    fn degenerate_timestamps_clamp() {
        let mut ring = HistoryRing::new(4);
        ring.record(f64::NAN, 1, 1, 1); // 0: on the grid, folds
        ring.record(-50.0, 2, 2, 2); // 0 again: becomes current
        ring.record(300.0, 3, 3, 3); // crosses 250
        let b: Vec<&Bucket> = ring.buckets(0).collect();
        assert_eq!(b.len(), 1);
        assert_eq!(b[0].start_ms, 0);
        assert_eq!(b[0].samples, 2);
        assert_eq!((b[0].occ_min, b[0].occ_max), (1, 2));
        ring.record(f64::INFINITY, 4, 4, 4);
        assert!(ring.closed_len(0) <= 4);
    }
}
