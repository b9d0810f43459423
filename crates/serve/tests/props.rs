//! Properties of the history ring and the `/delta` diff.
//!
//! Two invariants carry the serving tier's correctness story:
//!
//! 1. **Tiling** — a closed coarse bucket is *bit-identical* to the
//!    merge of the fine buckets that tile it, under arbitrary publish
//!    streams including reordered publishes. Dashboards may zoom
//!    between resolutions without the numbers shifting.
//! 2. **Delta completeness** — a `/delta` response is the exact
//!    multiset diff between the snapshot the client already holds and
//!    the current one, so applying it reproduces the current people:
//!    nothing skipped, nothing duplicated, for any `since` inside the
//!    window, and the window stays within one snapshot's people.

use std::sync::Arc;

use fleet::{CampusSnapshot, FusedPerson};
use proptest::prelude::*;
use serve::{
    Bucket, Connection, HistoryRing, ServeConfig, ServeCore, ServeMetrics, SAMPLE_EVERY_MS,
    TIER_RES_MS,
};

/// A publish stream with mostly-forward timestamps and occasional
/// back-jumps (reordered publishes).
fn arb_samples() -> impl Strategy<Value = Vec<(u64, u32)>> {
    proptest::collection::vec((0u64..4, 0u32..50, 0u64..2500), 1..200).prop_map(|steps| {
        let mut t = 0u64;
        steps
            .into_iter()
            .map(|(kind, occ, jump)| {
                match kind {
                    0..=2 => t += jump,                  // forward
                    _ => t = t.saturating_sub(jump / 2), // reordered
                }
                (t, occ)
            })
            .collect()
    })
}

/// Merge of all closed fine buckets whose start lies in
/// `[start, start + res)`.
fn merged_fine(ring: &HistoryRing, fine: usize, start: u64, res: u64) -> Bucket {
    let mut acc: Option<Bucket> = None;
    let closed = ring.closed_len(fine);
    for b in ring.buckets(fine).take(closed) {
        if b.start_ms >= start && b.start_ms < start + res {
            match &mut acc {
                None => acc = Some(*b),
                Some(acc) => acc.merge(b),
            }
        }
    }
    let mut out = acc.expect("a closed coarse bucket implies closed fine buckets");
    out.start_ms = start;
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every closed coarse bucket tiles bit-identically over its fine
    /// buckets, at both tier seams (1s→10s and 10s→1m).
    #[test]
    fn coarse_buckets_tile_fine_buckets_exactly(samples in arb_samples()) {
        let mut ring = HistoryRing::new(100_000);
        for (i, &(t, occ)) in samples.iter().enumerate() {
            ring.record(t as f64, occ, occ, i as u64 + 1);
        }
        for (fine, coarse) in [(0usize, 1usize), (1, 2)] {
            let res = TIER_RES_MS[coarse];
            let closed = ring.closed_len(coarse);
            for b in ring.buckets(coarse).take(closed) {
                let expect = merged_fine(&ring, fine, b.start_ms, res);
                prop_assert_eq!(*b, expect);
            }
        }
    }

    /// Sample conservation: the fine tier holds one sample per grid
    /// boundary crossed — every boundary from the first publish's
    /// to the latest timestamp seen — however publishes reorder and
    /// buckets close (until eviction, which the large cap rules out
    /// here).
    #[test]
    fn tiers_conserve_samples(samples in arb_samples()) {
        let mut ring = HistoryRing::new(100_000);
        for (i, &(t, occ)) in samples.iter().enumerate() {
            ring.record(t as f64, occ, occ, i as u64 + 1);
        }
        let first = samples[0].0.div_ceil(SAMPLE_EVERY_MS);
        let latest = samples.iter().map(|s| s.0).max().unwrap() / SAMPLE_EVERY_MS;
        let crossed = (latest + 1).saturating_sub(first);
        let fine_total: u64 = ring.buckets(0).map(|b| u64::from(b.samples)).sum();
        prop_assert_eq!(fine_total, crossed);
    }

    /// Recorded publishes sample on the grid: every 250 ms boundary
    /// from the first publish to the last holds exactly one sample,
    /// the occupancy of the last publish at or before it, however the
    /// publishes bunch up between boundaries.
    #[test]
    fn grid_samples_are_the_state_current_at_each_boundary(
        steps in proptest::collection::vec((1u64..700, 0u32..50), 1..200),
    ) {
        let mut ring = HistoryRing::new(100_000);
        let mut publishes = Vec::new();
        let mut t = 0;
        for (i, &(dt, occ)) in steps.iter().enumerate() {
            t += dt;
            ring.record(t as f64, occ, occ, i as u64 + 1);
            publishes.push((t, occ));
        }
        let mut expect: Vec<(u64, u32, u64)> = Vec::new(); // (bucket, n, sum)
        let first = publishes[0].0.div_ceil(SAMPLE_EVERY_MS) * SAMPLE_EVERY_MS;
        for g in (first..=t).step_by(SAMPLE_EVERY_MS as usize) {
            let occ = publishes.iter().rev().find(|p| p.0 <= g).unwrap().1;
            let bucket = g - g % TIER_RES_MS[0];
            match expect.last_mut() {
                Some(e) if e.0 == bucket => {
                    e.1 += 1;
                    e.2 += u64::from(occ);
                }
                _ => expect.push((bucket, 1, u64::from(occ))),
            }
        }
        let got: Vec<(u64, u32, u64)> =
            ring.buckets(0).map(|b| (b.start_ms, b.samples, b.occ_sum)).collect();
        prop_assert_eq!(got, expect);
    }

    /// Bounded memory: closed buckets never exceed the cap.
    #[test]
    fn ring_respects_its_cap(samples in arb_samples(), cap in 1usize..8) {
        let mut ring = HistoryRing::new(cap);
        for (i, &(t, occ)) in samples.iter().enumerate() {
            ring.record(t as f64, occ, occ, i as u64 + 1);
        }
        for tier in 0..TIER_RES_MS.len() {
            prop_assert!(ring.closed_len(tier) <= cap);
        }
    }
}

/// People with integer ids encoded in `x`; the same id is the same
/// person, so the JSON `"x":<id>.000` substring identifies a person.
fn person(id: u16) -> FusedPerson {
    FusedPerson {
        x: f64::from(id),
        y: 0.5,
        confidence: 0.9,
        observers: vec![u32::from(id)],
    }
}

/// A campus holding `ids` (a sorted multiset: a repeated id is two
/// identical people).
fn snap_of(ids: &[u16], at_ms: f64) -> Arc<CampusSnapshot> {
    Arc::new(CampusSnapshot {
        at_ms,
        occupancy: ids.len() as u32,
        people: ids.iter().map(|&id| person(id)).collect(),
        ..CampusSnapshot::default()
    })
}

/// Sorted multisets of ids, repeats allowed.
fn arb_ids() -> impl Strategy<Value = Vec<u16>> {
    proptest::collection::vec(0u16..24, 0..12).prop_map(|mut v| {
        v.sort_unstable();
        v
    })
}

/// A publish sequence as the core sees it: each step repeats the
/// previous people, adds or removes one person (so a person can leave
/// and come back while the window still holds both changes), or draws
/// new ones, and lands one epoch after the last or, rarely, two (the
/// core missed an epoch).
fn arb_publishes() -> impl Strategy<Value = Vec<(u64, Vec<u16>)>> {
    let step = (0u8..8, 0u8..4, 0u16..24, arb_ids());
    proptest::collection::vec(step, 1..40).prop_map(|steps| {
        let mut seq = 0;
        let mut last: Vec<u16> = Vec::new();
        steps
            .into_iter()
            .map(|(skip, change, id, ids)| {
                seq += if skip == 0 { 2 } else { 1 };
                match change {
                    0 => {}
                    1 => match last.binary_search(&id) {
                        Ok(at) => _ = last.remove(at),
                        Err(at) => last.insert(at, id),
                    },
                    _ => last = ids,
                }
                (seq, last.clone())
            })
            .collect()
    })
}

/// Ids mentioned inside one JSON array slice, recovered from the
/// `"x":<id>.000` markers, sorted.
fn ids_in(slice: &str) -> Vec<u16> {
    let mut out: Vec<u16> = slice
        .split("\"x\":")
        .skip(1)
        .filter_map(|part| {
            let num: String = part.chars().take_while(|c| c.is_ascii_digit()).collect();
            num.parse().ok()
        })
        .collect();
    out.sort_unstable();
    out
}

/// The multiset differences `(a − b, b − a)` of two sorted
/// multisets: the people removed and added going from `a` to `b`.
fn diff(a: &[u16], b: &[u16]) -> (Vec<u16>, Vec<u16>) {
    let (mut i, mut j) = (0, 0);
    let (mut removed, mut added) = (Vec::new(), Vec::new());
    while i < a.len() || j < b.len() {
        let from_a = match (a.get(i), b.get(j)) {
            (Some(x), Some(y)) if x == y => {
                (i, j) = (i + 1, j + 1);
                continue;
            }
            (Some(x), Some(y)) => x < y,
            (x, _) => x.is_some(),
        };
        if from_a {
            removed.push(a[i]);
            i += 1;
        } else {
            added.push(b[j]);
            j += 1;
        }
    }
    (removed, added)
}

/// Asks the core for `/delta?since=N`; returns the body text.
fn delta(core: &mut ServeCore, since: u64) -> String {
    let mut conn = Connection::new();
    let req = format!("GET /delta?since={since} HTTP/1.1\r\n\r\n");
    core.on_bytes(&mut conn, req.as_bytes());
    String::from_utf8(conn.out).unwrap()
}

/// `base + added - removed`, or `None` if `removed` is not in `base`.
fn compose(base: &[u16], resp: &str) -> Option<Vec<u16>> {
    let added_at = resp.find("\"added\":[")?;
    let removed_at = resp.find("\"removed\":[")?;
    let mut out = base.to_vec();
    for id in ids_in(&resp[removed_at..]) {
        let at = out.iter().position(|&x| x == id)?;
        out.remove(at);
    }
    out.extend(ids_in(&resp[added_at..removed_at]));
    out.sort_unstable();
    Some(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The `/delta` window contract, checked after every publish
    /// against a model of it:
    ///
    /// - every `since` still in the window gets the exact multiset
    ///   diff to the current people (entries that remove a person and
    ///   later add them back net out), which composes back;
    /// - a `since` leaves the window only once the changes held since
    ///   it outnumber the people then current (a skipped epoch counts
    ///   as at least one change), and never returns; an epoch the
    ///   core never saw is never in it;
    /// - everything else gets a `reset` carrying the current people;
    /// - the window holds at most people + 1 entries and at most
    ///   people person records.
    #[test]
    fn delta_composes_back_to_the_current_snapshot(publishes in arb_publishes()) {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        // (seq, people, changes held since it), for every seq seen and
        // not yet evicted; seq 0 is the empty campus.
        let mut window: Vec<(u64, Vec<u16>, usize)> = vec![(0, Vec::new(), 0)];
        let mut seen = vec![0u64];
        let mut prev: (u64, Vec<u16>) = (0, Vec::new());
        for (seq, ids) in &publishes {
            core.on_publish(*seq, snap_of(ids, *seq as f64 * 100.0));
            let (gone, new) = diff(&prev.1, ids);
            let mut weight = gone.len() + new.len();
            if *seq != prev.0 + 1 {
                weight = weight.max(1);
            }
            for entry in &mut window {
                entry.2 += weight;
            }
            window.retain(|e| e.2 <= ids.len());
            window.push((*seq, ids.clone(), 0));
            seen.push(*seq);
            prev = (*seq, ids.clone());

            let held = core.delta_window();
            prop_assert!(held.entries <= ids.len() + 1, "{:?} for {} people", held, ids.len());
            prop_assert!(held.records <= ids.len(), "{:?} for {} people", held, ids.len());

            for since in 0..=*seq + 1 {
                let resp = delta(&mut core, since);
                let kept = window.iter().find(|e| e.0 == since);
                match kept {
                    Some((_, base, _)) if since < *seq => {
                        prop_assert!(resp.contains("\"reset\":false"), "since {}: {}", since, resp);
                        let added_at = resp.find("\"added\":[").unwrap();
                        let removed_at = resp.find("\"removed\":[").unwrap();
                        let (removed, added) = diff(base, ids);
                        let got = (
                            ids_in(&resp[added_at..removed_at]),
                            ids_in(&resp[removed_at..]),
                        );
                        prop_assert!(got == (added, removed), "since {}: {}", since, resp);
                        let composed = compose(base, &resp);
                        prop_assert!(composed.as_ref() == Some(ids), "since {}: {}", since, resp);
                    }
                    Some(_) => {} // the head parks
                    None if since > *seq => {}
                    None => {
                        prop_assert!(resp.contains("\"reset\":true"), "since {} (seen: {}): {}",
                            since, seen.contains(&since), resp);
                        let people_at = resp.find("\"people\":[").unwrap();
                        prop_assert_eq!(&ids_in(&resp[people_at..]), ids);
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A `since` outside the window answers with a reset carrying the
    /// complete current people list — a client can always resync. Here
    /// the core sees only every other epoch, so every odd `since`
    /// names people it never saw.
    #[test]
    fn delta_outside_window_resyncs_fully(epochs in proptest::collection::vec(arb_ids(), 2..20)) {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for (i, ids) in epochs.iter().enumerate() {
            let seq = 2 * (i as u64 + 1);
            core.on_publish(seq, snap_of(ids, seq as f64 * 100.0));
        }
        let head = 2 * epochs.len() as u64;
        for since in (1..head).step_by(2) {
            let resp = delta(&mut core, since);
            prop_assert!(resp.contains("\"reset\":true"), "{}", resp);
            let people_at = resp.find("\"people\":[").unwrap();
            prop_assert_eq!(&ids_in(&resp[people_at..]), epochs.last().unwrap());
        }
    }
}

/// 10,000 publishes of an empty campus that change nothing hold one
/// entry and no person records — back to back, and with every other
/// epoch skipped.
#[test]
fn an_idle_campus_holds_one_entry() {
    for step in [1u64, 2] {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for i in 1..=10_000u64 {
            core.on_publish(i * step, snap_of(&[], i as f64 * 20.0));
            let held = core.delta_window();
            assert!(held.entries <= 1 && held.records == 0, "{held:?}");
        }
    }
}

/// A busy campus: every publish moves some of its people. However
/// long it runs, the window holds O(people) records.
#[test]
fn a_busy_campus_holds_a_bounded_window() {
    let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
    let mut ids: Vec<u16> = (0..200).collect();
    for seq in 1..=5_000u64 {
        let moved = (seq as usize * 7) % ids.len();
        ids[moved] = 200 + (seq % 300) as u16;
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        core.on_publish(seq, snap_of(&sorted, seq as f64 * 20.0));
        let held = core.delta_window();
        assert!(held.entries <= 201 && held.records <= 200, "{held:?}");
    }
}
