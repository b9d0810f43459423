//! The serving gateway: pure request handling over published campus
//! state, independent of any socket.
//!
//! [`ServeCore`] owns everything a request needs — the current
//! snapshot and its pre-rendered JSON body, the change log behind
//! `/delta`, the [`HistoryRing`] — and writes responses straight into
//! a [`Connection`]'s reusable output buffer.
//! The server pump (`server.rs`) feeds it socket bytes; tests and the
//! allocation pin drive it directly, which is what keeps the hot path
//! auditable: one call, no threads, no I/O.
//!
//! ETag discipline: the ETag of every stateful endpoint is the fusion
//! publish seq (the [`fleet::SnapshotCell`] epoch). A publish bumps
//! it by exactly one, so `If-None-Match: "<seq>"` turns an unchanged
//! poll into a ~100-byte 304 that touches no snapshot data at all.
//!
//! The `/delta` window holds *changes*, not snapshots: each publish
//! the core sees appends the people it added and removed, publishes
//! that change nothing extend the entry before them, and entries leave
//! from the front once the changes held outnumber the current people —
//! past that a `reset` carrying the people is no larger than the diff.
//! The window therefore stays near one snapshot's people at any
//! publish rate, and a parked long-poll's answer is the newest entry,
//! the diff computed once when the publish arrived.

use std::cmp::Ordering;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

use fleet::{CampusSnapshot, FusedPerson};
use obs::{Counter, Histogram, Registry, TelemetrySnapshot};

use crate::http::{
    parse_request, query_param, write_error, write_response, HttpLimits, ParseStep, Request,
};
use crate::ring::{tier_index, HistoryRing, TIER_LABELS};

/// Serving-tier configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Request parsing bounds.
    pub limits: HttpLimits,
    /// Zone grid pitch for `/zone/{x},{y}` slices; must match the
    /// fusion config of the aggregator being served.
    pub zone_size_m: f64,
    /// Closed history buckets retained per tier.
    pub history_cap: usize,
    /// Ceiling on `/delta` long-poll parking; a parked poll answers
    /// with an empty delta at the deadline.
    pub longpoll_max_ms: u64,
    /// A connection that dribbles an incomplete request head longer
    /// than this is answered 408 and closed (slowloris cutoff).
    pub read_deadline_ms: u64,
    /// Idle keep-alive connections older than this are closed.
    pub idle_timeout_ms: u64,
    /// Reactor poll tick (also bounds deadline detection latency).
    pub tick_ms: u64,
    /// Accepted-connection ceiling; beyond it new sockets are dropped.
    pub max_conns: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            limits: HttpLimits::default(),
            zone_size_m: 20.0,
            history_cap: 720,
            longpoll_max_ms: 10_000,
            read_deadline_ms: 5_000,
            idle_timeout_ms: 30_000,
            tick_ms: 25,
            max_conns: 1024,
        }
    }
}

/// Cached instrument handles over a shared registry, so the hot path
/// never takes the registry's name-lookup lock.
#[derive(Debug, Clone)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    requests: Arc<Counter>,
    r200: Arc<Counter>,
    r304: Arc<Counter>,
    r4xx: Arc<Counter>,
    parked: Arc<Counter>,
    publishes: Arc<Counter>,
    bytes_out: Arc<Counter>,
    handle_ms: Arc<Histogram>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        ServeMetrics::new(Arc::new(Registry::new()))
    }
}

impl ServeMetrics {
    /// Instruments bound into `registry` under `serve.*` names.
    pub fn new(registry: Arc<Registry>) -> ServeMetrics {
        ServeMetrics {
            requests: registry.counter("serve.requests"),
            r200: registry.counter("serve.200"),
            r304: registry.counter("serve.304"),
            r4xx: registry.counter("serve.4xx"),
            parked: registry.counter("serve.parked"),
            publishes: registry.counter("serve.publishes"),
            bytes_out: registry.counter("serve.bytes_out"),
            handle_ms: registry.histogram("serve.handle_ms"),
            registry,
        }
    }

    /// The backing registry (for [`Registry::telemetry`] dumps).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.registry)
    }

    /// Portable dump of every `serve.*` instrument.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.registry.telemetry()
    }

    /// `304 / (200 + 304)` — how many stateful reads the ETag
    /// discipline answered without touching snapshot data.
    pub fn cache_hit_ratio(&self) -> f64 {
        let hits = self.r304.get();
        let answered = self.r200.get() + hits;
        if answered == 0 {
            0.0
        } else {
            hits as f64 / answered as f64
        }
    }
}

/// A parked `/delta` long-poll.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parked {
    /// The seq the client has already seen.
    pub since: u64,
    /// Client-requested wait, already clamped to
    /// [`ServeConfig::longpoll_max_ms`].
    pub wait_ms: u64,
}

/// Per-connection state: reusable input/output buffers and parking.
/// Both buffers grow to their working size during warmup and are then
/// reused forever — the warmed request path performs zero transient
/// allocations (pinned by `tests/serve_allocs.rs`).
#[derive(Debug, Default)]
pub struct Connection {
    inbuf: Vec<u8>,
    /// Rendered-but-unflushed response bytes; the owner drains this
    /// to the socket.
    pub out: Vec<u8>,
    parked: Option<Parked>,
    close_after: bool,
}

/// What the connection should do after a core call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConnStatus {
    /// Keep the connection open and keep reading.
    Open,
    /// A long-poll is parked; flush `out`, stop parsing until
    /// [`ServeCore::unpark`] clears it.
    Parked,
    /// Flush `out`, then close the connection.
    Close,
}

impl Connection {
    /// A fresh connection with empty buffers.
    pub fn new() -> Connection {
        Connection::default()
    }

    /// The parked long-poll, if any.
    pub fn parked(&self) -> Option<Parked> {
        self.parked
    }

    /// Whether a partially received request head is pending (drives
    /// the read deadline).
    pub fn mid_request(&self) -> bool {
        !self.inbuf.is_empty() && self.parked.is_none()
    }

    /// Buffered input bytes (bounded-memory assertions in tests).
    pub fn buffered(&self) -> usize {
        self.inbuf.len()
    }

    /// Buffers pipelined bytes arriving behind a parked long-poll,
    /// capped at `cap` so a client cannot grow the buffer while its
    /// poll is parked; overflow is dropped (the connection will fail
    /// to parse and close at unpark).
    pub fn buffer_while_parked(&mut self, bytes: &[u8], cap: usize) {
        let room = cap.saturating_sub(self.inbuf.len());
        let take = bytes.len().min(room);
        self.inbuf.extend_from_slice(&bytes[..take]);
    }
}

/// What the `/delta` window holds (bounded-memory assertions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaWindow {
    /// The oldest `since` still answered with a diff.
    pub oldest: u64,
    /// Entries held, the window's base included.
    pub entries: usize,
    /// Person records held across every entry.
    pub records: usize,
}

/// A stretch of publishes that showed the same people: the change the
/// first of them made, and the last seq it stayed current through.
#[derive(Debug)]
struct Change {
    /// The publish that made the change.
    seq: u64,
    /// The last seq known to show these people. Publishes the core
    /// sees back to back that change nothing extend it.
    through: u64,
    /// People the change added and removed, each in [`identity`]
    /// order. The window's base holds none.
    added: Vec<FusedPerson>,
    removed: Vec<FusedPerson>,
}

impl Change {
    /// What holding the change costs the window: its person records,
    /// and at least one — a stretch that follows epochs this core
    /// never saw (a skipped publish) may hide any change.
    fn weight(&self) -> usize {
        (self.added.len() + self.removed.len()).max(1)
    }
}

/// The `/delta` window. See the module docs.
#[derive(Debug)]
struct ChangeLog {
    /// Oldest first. The front is the base: only the people after its
    /// change matter, so its own change is dropped.
    entries: VecDeque<Change>,
    /// Weight of every entry but the base.
    held: usize,
}

impl ChangeLog {
    /// A log whose base is seq 0, the empty campus.
    fn new() -> ChangeLog {
        ChangeLog {
            entries: VecDeque::from([Change {
                seq: 0,
                through: 0,
                added: Vec::new(),
                removed: Vec::new(),
            }]),
            held: 0,
        }
    }

    /// Logs publish `seq` turning the people `prev` into `cur`, then
    /// evicts from the front while the changes held outnumber `cur`.
    fn record(&mut self, seq: u64, prev: &[FusedPerson], cur: &[FusedPerson]) {
        let (added, removed) = diff_people(prev, cur);
        let last = self.entries.back_mut().expect("the base is never evicted");
        if added.is_empty() && removed.is_empty() && seq == last.through + 1 {
            last.through = seq;
        } else {
            let change = Change {
                seq,
                through: seq,
                added,
                removed,
            };
            self.held += change.weight();
            self.entries.push_back(change);
        }
        while self.held > cur.len() && self.entries.len() > 1 {
            self.entries.pop_front();
            let base = self.entries.front_mut().expect("len > 1");
            self.held -= base.weight();
            base.added = Vec::new();
            base.removed = Vec::new();
        }
    }

    /// The entries after the one showing `since`, or `None` when this
    /// core cannot reconstruct the people at `since` (evicted, skipped,
    /// or never published).
    fn since(&self, since: u64) -> Option<impl Iterator<Item = &Change>> {
        let at = self.entries.partition_point(|c| c.through < since);
        let entry = self.entries.get(at)?;
        (entry.seq <= since).then(|| self.entries.range(at + 1..))
    }

    fn stats(&self) -> DeltaWindow {
        DeltaWindow {
            oldest: self.entries.front().map_or(0, |c| c.seq),
            entries: self.entries.len(),
            records: self
                .entries
                .iter()
                .map(|c| c.added.len() + c.removed.len())
                .sum(),
        }
    }
}

/// Exact identity order of fused people for delta diffs: bitwise
/// position and confidence, then the observer set. Fusion is
/// deterministic, so an unchanged person reproduces these bits across
/// epochs.
fn identity(a: &FusedPerson, b: &FusedPerson) -> Ordering {
    (a.x.to_bits(), a.y.to_bits(), a.confidence.to_bits())
        .cmp(&(b.x.to_bits(), b.y.to_bits(), b.confidence.to_bits()))
        .then_with(|| a.observers.cmp(&b.observers))
}

/// The multiset change from `prev` to `cur` as (added, removed), each
/// in [`identity`] order: a person counts as changed exactly once
/// however far apart the two views are.
fn diff_people(prev: &[FusedPerson], cur: &[FusedPerson]) -> (Vec<FusedPerson>, Vec<FusedPerson>) {
    let mut before: Vec<&FusedPerson> = prev.iter().collect();
    let mut after: Vec<&FusedPerson> = cur.iter().collect();
    before.sort_unstable_by(|a, b| identity(a, b));
    after.sort_unstable_by(|a, b| identity(a, b));
    let (mut added, mut removed) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    loop {
        let order = match (before.get(i), after.get(j)) {
            (Some(p), Some(q)) => identity(p, q),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => break,
        };
        match order {
            Ordering::Equal => (i, j) = (i + 1, j + 1),
            Ordering::Less => {
                removed.push(before[i].clone());
                i += 1;
            }
            Ordering::Greater => {
                added.push(after[j].clone());
                j += 1;
            }
        }
    }
    (added, removed)
}

/// The serving gateway. See the module docs.
pub struct ServeCore {
    cfg: ServeConfig,
    metrics: ServeMetrics,
    seq: u64,
    snap: Arc<CampusSnapshot>,
    /// `{"seq":N,"campus":{…}}`, rendered once per publish.
    snapshot_body: Vec<u8>,
    changes: ChangeLog,
    ring: HistoryRing,
    /// Reusable body scratch for endpoints rendered per request.
    scratch: Vec<u8>,
}

impl ServeCore {
    /// A core with no epoch published yet (seq 0, empty campus).
    pub fn new(cfg: ServeConfig, metrics: ServeMetrics) -> ServeCore {
        ServeCore {
            cfg,
            metrics,
            seq: 0,
            snap: Arc::new(CampusSnapshot::default()),
            snapshot_body: render_snapshot_body(0, &CampusSnapshot::default()),
            changes: ChangeLog::new(),
            ring: HistoryRing::new(cfg.history_cap),
            scratch: Vec::new(),
        }
    }

    /// The seq of the snapshot currently being served.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// The metrics handles (shared with the owning server).
    pub fn metrics(&self) -> &ServeMetrics {
        &self.metrics
    }

    /// What the `/delta` window holds right now.
    pub fn delta_window(&self) -> DeltaWindow {
        self.changes.stats()
    }

    /// Installs a newly published snapshot: re-renders the cached
    /// body, logs its people change for `/delta`, and feeds the
    /// history ring. Parked long-polls should be
    /// [`ServeCore::unpark`]ed after this.
    pub fn on_publish(&mut self, seq: u64, snap: Arc<CampusSnapshot>) {
        if seq <= self.seq {
            return; // stale or duplicate publish notification
        }
        self.seq = seq;
        self.snapshot_body = render_snapshot_body(seq, &snap);
        self.ring
            .record(snap.at_ms, snap.occupancy, snap.people.len() as u32, seq);
        self.changes.record(seq, &self.snap.people, &snap.people);
        self.snap = snap;
        self.metrics.publishes.add(1);
    }

    /// Feeds received bytes into `conn`, answering every complete
    /// pipelined request in order. Bounded: buffered input never
    /// exceeds `max_head_bytes` plus one read's worth of bytes.
    pub fn on_bytes(&mut self, conn: &mut Connection, bytes: &[u8]) -> ConnStatus {
        conn.inbuf.extend_from_slice(bytes);
        self.drain(conn)
    }

    /// Parses and answers as many buffered requests as possible.
    pub fn drain(&mut self, conn: &mut Connection) -> ConnStatus {
        if conn.parked.is_some() {
            return ConnStatus::Parked;
        }
        if conn.close_after {
            return ConnStatus::Close;
        }
        let mut pos = 0usize;
        let status = loop {
            let started = Instant::now();
            match parse_request(&conn.inbuf[pos..], &self.cfg.limits) {
                ParseStep::Incomplete => break ConnStatus::Open,
                ParseStep::Reject { status, .. } => {
                    self.metrics.requests.add(1);
                    self.metrics.r4xx.add(1);
                    let before = conn.out.len();
                    write_error(&mut conn.out, status);
                    self.metrics.bytes_out.add((conn.out.len() - before) as u64);
                    conn.close_after = true;
                    // Poisoned framing: drop whatever trailed it.
                    pos = conn.inbuf.len();
                    break ConnStatus::Close;
                }
                ParseStep::Parsed { req, consumed } => {
                    pos += consumed;
                    // `req` borrows `conn.inbuf`; the answer writes
                    // only into the disjoint `conn.out`.
                    let (parked, close) = self.answer(&req, &mut conn.out);
                    self.metrics
                        .handle_ms
                        .observe(started.elapsed().as_secs_f64() * 1e3);
                    if close {
                        conn.close_after = true;
                    }
                    if let Some(p) = parked {
                        conn.parked = Some(p);
                        break ConnStatus::Parked;
                    }
                    if conn.close_after {
                        // Honor Connection: close mid-pipeline.
                        pos = conn.inbuf.len();
                        break ConnStatus::Close;
                    }
                }
            }
        };
        if pos > 0 {
            conn.inbuf.drain(..pos);
        }
        status
    }

    /// Re-examines a parked long-poll: answers it if the epoch moved
    /// past `since`, or — when `timed_out` — with an empty delta.
    /// Resumes any pipelined requests buffered behind it.
    pub fn unpark(&mut self, conn: &mut Connection, timed_out: bool) -> ConnStatus {
        let parked = match conn.parked {
            Some(p) => p,
            None => return self.drain(conn),
        };
        if self.seq <= parked.since && !timed_out {
            return ConnStatus::Parked;
        }
        conn.parked = None;
        let before = conn.out.len();
        // `close_after` was recorded when the poll parked, so the
        // Connection header matches what the owner actually does.
        self.render_delta(parked.since);
        self.respond_scratch(&mut conn.out, conn.close_after);
        self.metrics.bytes_out.add((conn.out.len() - before) as u64);
        self.drain(conn)
    }

    /// Answers one request into `out`; returns the parked long-poll
    /// (if the request parked instead of answering) and whether the
    /// connection must close afterwards.
    fn answer(&mut self, req: &Request<'_>, out: &mut Vec<u8>) -> (Option<Parked>, bool) {
        self.metrics.requests.add(1);
        let mut close = req.close;
        let before = out.len();
        let mut parked = None;

        match req.path {
            "/snapshot" => {
                if req.if_none_match == Some(self.seq) {
                    write_response(out, 304, Some(self.seq), "", b"", req.close);
                    self.metrics.r304.add(1);
                } else {
                    // The body is rendered once per publish; serving
                    // it is a header write plus one memcpy.
                    let body = std::mem::take(&mut self.snapshot_body);
                    write_response(
                        out,
                        200,
                        Some(self.seq),
                        "application/json",
                        &body,
                        req.close,
                    );
                    self.snapshot_body = body;
                    self.metrics.r200.add(1);
                }
            }
            "/history" => {
                let res = query_param(req.query, "res").unwrap_or("1s");
                match tier_index(res) {
                    None => {
                        write_error(out, 400);
                        self.metrics.r4xx.add(1);
                        close = true;
                    }
                    Some(tier) => {
                        if req.if_none_match == Some(self.seq) {
                            write_response(out, 304, Some(self.seq), "", b"", req.close);
                            self.metrics.r304.add(1);
                        } else {
                            self.render_history(tier);
                            self.respond_scratch(out, req.close);
                        }
                    }
                }
            }
            "/delta" => match query_param(req.query, "since").and_then(|s| s.parse::<u64>().ok()) {
                None => {
                    write_error(out, 400);
                    self.metrics.r4xx.add(1);
                    close = true;
                }
                Some(since) if since >= self.seq => {
                    let wait_ms = query_param(req.query, "wait_ms")
                        .and_then(|s| s.parse::<u64>().ok())
                        .unwrap_or(self.cfg.longpoll_max_ms)
                        .min(self.cfg.longpoll_max_ms);
                    parked = Some(Parked { since, wait_ms });
                    self.metrics.parked.add(1);
                }
                Some(since) => {
                    self.render_delta(since);
                    self.respond_scratch(out, req.close);
                }
            },
            "/" => {
                write_response(out, 200, None, "text/plain", INDEX_BODY, req.close);
                self.metrics.r200.add(1);
            }
            path => {
                if let Some(rest) = path.strip_prefix("/zone/") {
                    match parse_zone_id(rest) {
                        Some((zx, zy)) => {
                            if req.if_none_match == Some(self.seq) {
                                write_response(out, 304, Some(self.seq), "", b"", req.close);
                                self.metrics.r304.add(1);
                            } else {
                                self.render_zone(zx, zy);
                                self.respond_scratch(out, req.close);
                            }
                        }
                        None => {
                            write_error(out, 400);
                            self.metrics.r4xx.add(1);
                            close = true;
                        }
                    }
                } else if let Some(rest) = path.strip_prefix("/pole/") {
                    match rest.parse::<u32>() {
                        Ok(pole_id) => {
                            if !self.snap.poles.iter().any(|p| p.pole_id == pole_id) {
                                // Routing 404: the request is well
                                // formed, the resource just isn't
                                // there — keep the connection. A
                                // dashboard polling a decommissioned
                                // pole shouldn't pay a reconnect per
                                // poll; only parse-level rejects
                                // poison the connection.
                                self.not_found(out, req.close);
                            } else if req.if_none_match == Some(self.seq) {
                                write_response(out, 304, Some(self.seq), "", b"", req.close);
                                self.metrics.r304.add(1);
                            } else {
                                self.render_pole(pole_id);
                                self.respond_scratch(out, req.close);
                            }
                        }
                        Err(_) => {
                            write_error(out, 400);
                            self.metrics.r4xx.add(1);
                            close = true;
                        }
                    }
                } else {
                    // Unknown path: same routing-404 semantics.
                    self.not_found(out, req.close);
                }
            }
        }
        self.metrics.bytes_out.add((out.len() - before) as u64);
        (parked, close)
    }

    /// Writes a routing 404 (well-formed request, unknown resource)
    /// that honors the request's own keep-alive choice — unlike
    /// [`write_error`], which always closes.
    fn not_found(&mut self, out: &mut Vec<u8>, close: bool) {
        write_response(out, 404, None, "text/plain", b"Not Found", close);
        self.metrics.r4xx.add(1);
    }

    /// Writes the scratch body as a 200 with the current seq ETag.
    fn respond_scratch(&mut self, out: &mut Vec<u8>, close: bool) {
        let body = std::mem::take(&mut self.scratch);
        write_response(out, 200, Some(self.seq), "application/json", &body, close);
        self.scratch = body;
        self.metrics.r200.add(1);
    }

    /// Renders `/zone/{zx},{zy}` into scratch: the grid cell's count
    /// and the fused people inside it.
    fn render_zone(&mut self, zx: i32, zy: i32) {
        self.scratch.clear();
        let count = self
            .snap
            .zones
            .iter()
            .find(|z| z.zone_x == zx && z.zone_y == zy)
            .map_or(0, |z| z.count);
        push_str(&mut self.scratch, "{\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        push_str(&mut self.scratch, ",\"zone_x\":");
        push_i64(&mut self.scratch, i64::from(zx));
        push_str(&mut self.scratch, ",\"zone_y\":");
        push_i64(&mut self.scratch, i64::from(zy));
        push_str(&mut self.scratch, ",\"count\":");
        push_u64(&mut self.scratch, u64::from(count));
        push_str(&mut self.scratch, ",\"people\":[");
        let zone = self.cfg.zone_size_m.max(1e-9);
        let inside = |p: &&FusedPerson| {
            (p.x / zone).floor() as i64 == i64::from(zx)
                && (p.y / zone).floor() as i64 == i64::from(zy)
        };
        push_people(&mut self.scratch, self.snap.people.iter().filter(inside));
        push_str(&mut self.scratch, "]}");
    }

    /// Renders `/pole/{id}` into scratch: the pole's status row plus
    /// every fused person it observes.
    fn render_pole(&mut self, pole_id: u32) {
        self.scratch.clear();
        push_str(&mut self.scratch, "{\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        push_str(&mut self.scratch, ",\"pole\":");
        match self.snap.poles.iter().find(|p| p.pole_id == pole_id) {
            Some(p) => {
                push_str(&mut self.scratch, "{\"pole_id\":");
                push_u64(&mut self.scratch, u64::from(p.pole_id));
                push_str(&mut self.scratch, ",\"liveness\":\"");
                push_str(&mut self.scratch, p.liveness.as_str());
                push_str(&mut self.scratch, "\",\"trust\":\"");
                push_str(&mut self.scratch, p.trust.as_str());
                push_str(&mut self.scratch, "\",\"count\":");
                push_u64(&mut self.scratch, u64::from(p.count));
                push_str(&mut self.scratch, ",\"seq\":");
                push_u64(&mut self.scratch, p.seq);
                push_str(&mut self.scratch, ",\"silence_ms\":");
                push_f64(&mut self.scratch, p.silence_ms);
                push_str(&mut self.scratch, ",\"held\":");
                push_str(&mut self.scratch, if p.held { "true" } else { "false" });
                self.scratch.push(b'}');
            }
            None => push_str(&mut self.scratch, "null"),
        }
        push_str(&mut self.scratch, ",\"people\":[");
        let seen = self
            .snap
            .people
            .iter()
            .filter(|p| p.observers.contains(&pole_id));
        push_people(&mut self.scratch, seen);
        push_str(&mut self.scratch, "]}");
    }

    /// Renders `/history?res=…` into scratch.
    fn render_history(&mut self, tier: usize) {
        self.scratch.clear();
        push_str(&mut self.scratch, "{\"seq\":");
        push_u64(&mut self.scratch, self.seq);
        push_str(&mut self.scratch, ",\"res\":\"");
        push_str(
            &mut self.scratch,
            TIER_LABELS[tier.min(TIER_LABELS.len() - 1)],
        );
        push_str(&mut self.scratch, "\",\"buckets\":[");
        let mut first = true;
        // Buckets render via an index-free iterator; scratch is the
        // only buffer touched.
        let mut body = std::mem::take(&mut self.scratch);
        for b in self.ring.buckets(tier) {
            if !first {
                body.push(b',');
            }
            first = false;
            push_str(&mut body, "{\"t\":");
            push_u64(&mut body, b.start_ms);
            push_str(&mut body, ",\"n\":");
            push_u64(&mut body, u64::from(b.samples));
            push_str(&mut body, ",\"min\":");
            push_u64(&mut body, u64::from(b.occ_min));
            push_str(&mut body, ",\"max\":");
            push_u64(&mut body, u64::from(b.occ_max));
            push_str(&mut body, ",\"mean\":");
            push_f64(&mut body, b.occ_mean());
            push_str(&mut body, ",\"last\":");
            push_u64(&mut body, u64::from(b.occ_last));
            push_str(&mut body, ",\"people\":");
            push_u64(&mut body, u64::from(b.people_last));
            body.push(b'}');
        }
        self.scratch = body;
        push_str(&mut self.scratch, "]}");
    }

    /// Renders a `/delta?since=N` body into scratch: the people added
    /// and removed since seq `N` (the entries after it, composed), or
    /// a `reset` with the full list when `N` is outside the window.
    fn render_delta(&mut self, since: u64) {
        let body = &mut self.scratch;
        body.clear();
        push_str(body, "{\"since\":");
        push_u64(body, since);
        push_str(body, ",\"seq\":");
        push_u64(body, self.seq);
        let Some(changes) = self.changes.since(since) else {
            // The people at `since` are gone from the window (or were
            // never seen here): the only sound answer is a full resync.
            push_str(body, ",\"reset\":true,\"people\":[");
            push_people(body, self.snap.people.iter());
            push_str(body, "]}");
            return;
        };
        // Net count per person over the changes: +1 per add, -1 per
        // removal.
        let mut net: Vec<(&FusedPerson, i64)> = Vec::new();
        for c in changes {
            net.extend(c.added.iter().map(|p| (p, 1)));
            net.extend(c.removed.iter().map(|p| (p, -1)));
        }
        net.sort_by(|a, b| identity(a.0, b.0));
        net.dedup_by(|later, kept| {
            let same = identity(later.0, kept.0) == Ordering::Equal;
            if same {
                kept.1 += later.1;
            }
            same
        });
        let repeat = |sign: i64| {
            net.iter()
                .filter(move |(_, n)| n.signum() == sign)
                .flat_map(|&(p, n)| std::iter::repeat_n(p, n.unsigned_abs() as usize))
        };
        push_str(body, ",\"reset\":false,\"added\":[");
        push_people(body, repeat(1));
        push_str(body, "],\"removed\":[");
        push_people(body, repeat(-1));
        push_str(body, "]}");
    }
}

const INDEX_BODY: &[u8] = b"HAWC-CC snapshot serving tier\n\
GET /snapshot            full fused campus snapshot (ETag = publish seq)\n\
GET /zone/{x},{y}        one occupancy-grid cell and its people\n\
GET /pole/{id}           one pole's status row and observed people\n\
GET /delta?since=N       people changes since seq N (long-polls until next publish)\n\
GET /history?res=1s|10s|1m  downsampled occupancy time series\n";

fn push_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(s.as_bytes());
}

fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

fn push_i64(out: &mut Vec<u8>, v: i64) {
    if v < 0 {
        out.push(b'-');
        push_u64(out, v.unsigned_abs());
    } else {
        push_u64(out, v as u64);
    }
}

/// JSON number with 3 decimals; non-finite renders as `null` (same
/// contract as `CampusSnapshot::to_json`). `core::fmt` float
/// rendering uses stack buffers only, so this stays alloc-free.
fn push_f64(out: &mut Vec<u8>, v: f64) {
    use std::io::Write;
    if v.is_finite() {
        let _ = write!(out, "{v:.3}");
    } else {
        out.extend_from_slice(b"null");
    }
}

/// Comma-separated [`push_person`]s.
fn push_people<'a>(out: &mut Vec<u8>, people: impl Iterator<Item = &'a FusedPerson>) {
    for (i, p) in people.enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_person(out, p);
    }
}

fn push_person(out: &mut Vec<u8>, p: &FusedPerson) {
    push_str(out, "{\"x\":");
    push_f64(out, p.x);
    push_str(out, ",\"y\":");
    push_f64(out, p.y);
    push_str(out, ",\"confidence\":");
    push_f64(out, p.confidence);
    push_str(out, ",\"observers\":[");
    for (i, o) in p.observers.iter().enumerate() {
        if i > 0 {
            out.push(b',');
        }
        push_u64(out, u64::from(*o));
    }
    push_str(out, "]}");
}

/// The cached `/snapshot` body: the campus JSONL line wrapped with
/// its publish seq.
fn render_snapshot_body(seq: u64, snap: &CampusSnapshot) -> Vec<u8> {
    let mut body = Vec::with_capacity(256);
    push_str(&mut body, "{\"seq\":");
    push_u64(&mut body, seq);
    push_str(&mut body, ",\"campus\":");
    push_str(&mut body, &snap.to_json());
    push_str(&mut body, "}");
    body
}

fn parse_zone_id(rest: &str) -> Option<(i32, i32)> {
    let (x, y) = rest.split_once(',')?;
    Some((x.parse().ok()?, y.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fleet::sentinel::TrustState;
    use fleet::{Liveness, PoleStatus, ZoneOccupancy};

    fn person(x: f64, y: f64, observers: &[u32]) -> FusedPerson {
        FusedPerson {
            x,
            y,
            confidence: 0.9,
            observers: observers.to_vec(),
        }
    }

    fn snap(at_ms: f64, people: Vec<FusedPerson>) -> Arc<CampusSnapshot> {
        let occupancy = people.len() as u32;
        Arc::new(CampusSnapshot {
            at_ms,
            occupancy,
            people,
            unmapped: 0,
            zones: vec![ZoneOccupancy {
                zone_x: 0,
                zone_y: 0,
                count: occupancy,
            }],
            poles: vec![PoleStatus {
                pole_id: 3,
                liveness: Liveness::Live,
                health: None,
                count: occupancy,
                seq: 1,
                silence_ms: 10.0,
                held: false,
                trust: TrustState::Trusted,
            }],
            live: 1,
            stale: 0,
            dead: 0,
            quarantined: 0,
            p95_silence_ms: 10.0,
        })
    }

    fn run(core: &mut ServeCore, conn: &mut Connection, req: &str) -> (ConnStatus, String) {
        conn.out.clear();
        let status = core.on_bytes(conn, req.as_bytes());
        (status, String::from_utf8(conn.out.clone()).unwrap())
    }

    #[test]
    fn snapshot_etag_roundtrip() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![person(1.0, 2.0, &[3])]));
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "GET /snapshot HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(resp.contains("ETag: \"1\""));
        assert!(resp.contains("\"seq\":1"));
        let (_, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"1\"\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"), "{resp}");
        assert_eq!(core.metrics().r304.get(), 1);
        assert!((core.metrics().cache_hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unpublished_cell_serves_empty_campus_at_seq_zero() {
        // Satellite regression: before any epoch is published the
        // tier must serve a well-formed empty snapshot with ETag "0",
        // not hang or 500.
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /snapshot HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 200"));
        assert!(resp.contains("ETag: \"0\""));
        assert!(resp.contains("\"occupancy\":0"));
        // And a client that already saw seq 0 gets a 304, not a loop.
        let (_, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"0\"\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"));
    }

    #[test]
    fn zone_and_pole_slices() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(
            1,
            snap(
                1000.0,
                vec![person(1.0, 2.0, &[3]), person(25.0, 2.0, &[4])],
            ),
        );
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /zone/0,0 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"zone_x\":0"));
        assert!(resp.contains("\"x\":1.000"));
        assert!(!resp.contains("\"x\":25.000"), "zone filter applies");
        let (_, resp) = run(&mut core, &mut conn, "GET /pole/3 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"pole_id\":3"));
        assert!(resp.contains("\"x\":1.000"));
        let (st, resp) = run(&mut core, &mut conn, "GET /pole/99 HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert_eq!(st, ConnStatus::Open, "routing 404 keeps the connection");
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        // The connection is still serviceable afterwards.
        let (st, resp) = run(&mut core, &mut conn, "GET /pole/3 HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.starts_with("HTTP/1.1 200"));
    }

    #[test]
    fn unknown_path_404_keeps_alive_but_honors_close() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "GET /nope HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        let (st, resp) = run(
            &mut core,
            &mut conn,
            "GET /nope HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 404"));
        assert_eq!(st, ConnStatus::Close);
        assert!(resp.contains("Connection: close"), "{resp}");
    }

    #[test]
    fn connection_header_matches_fate_on_304_and_unpark() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        // 304 on a keep-alive request says keep-alive…
        let mut conn = Connection::new();
        let (st, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"1\"\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"));
        assert_eq!(st, ConnStatus::Open);
        assert!(resp.contains("Connection: keep-alive"), "{resp}");
        // …and close when the request asked to close.
        let mut conn = Connection::new();
        let (st, resp) = run(
            &mut core,
            &mut conn,
            "GET /snapshot HTTP/1.1\r\nIf-None-Match: \"1\"\r\nConnection: close\r\n\r\n",
        );
        assert!(resp.starts_with("HTTP/1.1 304"));
        assert_eq!(st, ConnStatus::Close);
        assert!(resp.contains("Connection: close"), "{resp}");
        // A long-poll parked on a Connection: close request answers
        // with a close header at unpark, and the connection closes.
        let mut conn = Connection::new();
        let (st, _) = run(
            &mut core,
            &mut conn,
            "GET /delta?since=1 HTTP/1.1\r\nConnection: close\r\n\r\n",
        );
        assert_eq!(st, ConnStatus::Parked);
        core.on_publish(2, snap(2000.0, vec![person(1.0, 2.0, &[3])]));
        let st = core.unpark(&mut conn, false);
        assert_eq!(st, ConnStatus::Close);
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        assert!(resp.contains("Connection: close"), "{resp}");
        assert!(!resp.contains("keep-alive"), "{resp}");
    }

    #[test]
    fn delta_parks_then_answers_on_publish() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![person(1.0, 2.0, &[3])]));
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "GET /delta?since=1 HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Parked);
        assert!(resp.is_empty(), "no response while parked");
        core.on_publish(
            2,
            snap(2000.0, vec![person(1.0, 2.0, &[3]), person(4.0, 5.0, &[3])]),
        );
        let st = core.unpark(&mut conn, false);
        assert_eq!(st, ConnStatus::Open);
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        assert!(resp.contains("\"since\":1"));
        assert!(resp.contains("\"seq\":2"));
        assert!(resp.contains("\"x\":4.000"), "only the new person rides");
        assert!(
            !resp.contains("\"x\":1.000"),
            "unchanged person is not a change"
        );
    }

    #[test]
    fn delta_timeout_answers_empty() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        let mut conn = Connection::new();
        let (st, _) = run(&mut core, &mut conn, "GET /delta?since=1 HTTP/1.1\r\n\r\n");
        assert_eq!(st, ConnStatus::Parked);
        assert_eq!(
            core.unpark(&mut conn, false),
            ConnStatus::Parked,
            "no publish yet"
        );
        assert_eq!(core.unpark(&mut conn, true), ConnStatus::Open);
        let resp = String::from_utf8(conn.out.clone()).unwrap();
        assert!(resp.contains("\"added\":[],\"removed\":[]"));
    }

    /// Each publish moves the campus's one person: two records of
    /// change against one person current, so every older `since`
    /// leaves the window at once and answers with a full reset.
    #[test]
    fn delta_outside_window_resets() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for seq in 1..=5u64 {
            let x = seq as f64;
            core.on_publish(seq, snap(x * 1000.0, vec![person(x, 2.0, &[3])]));
        }
        assert_eq!(core.delta_window().oldest, 5);
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /delta?since=1 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"reset\":true"));
        assert!(resp.contains("\"people\":[{\"x\":5.000"), "{resp}");
    }

    /// Publishes that change nothing share one entry, and a skipped
    /// epoch is never answered with a diff: this core never saw its
    /// people.
    #[test]
    fn no_change_publishes_share_an_entry_and_skipped_epochs_reset() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        let people = vec![person(1.0, 2.0, &[3]), person(4.0, 5.0, &[3])];
        for seq in 1..=50u64 {
            core.on_publish(seq, snap(seq as f64 * 10.0, people.clone()));
        }
        let window = core.delta_window();
        assert_eq!((window.entries, window.records), (2, 2), "{window:?}");
        let mut conn = Connection::new();
        let (_, resp) = run(&mut core, &mut conn, "GET /delta?since=0 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"removed\":[]"), "{resp}");
        assert_eq!(resp.matches("\"x\":").count(), 2, "{resp}");
        // Epochs 51 and 52 never reach this core. The stretch after
        // them counts as one change, which lifts the changes held
        // since seq 0 to three, past the two people current, so seq 0
        // leaves the window.
        core.on_publish(53, snap(530.0, people.clone()));
        let (_, resp) = run(&mut core, &mut conn, "GET /delta?since=40 HTTP/1.1\r\n\r\n");
        assert!(resp.contains("\"added\":[],\"removed\":[]"), "{resp}");
        for since in [0, 51] {
            let req = format!("GET /delta?since={since} HTTP/1.1\r\n\r\n");
            let (_, resp) = run(&mut core, &mut conn, &req);
            assert!(resp.contains("\"reset\":true"), "{resp}");
        }
    }

    #[test]
    fn history_renders_tiers_and_rejects_bad_res() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        for seq in 1..=25u64 {
            core.on_publish(seq, snap(seq as f64 * 1000.0, vec![]));
        }
        let mut conn = Connection::new();
        let (_, resp) = run(
            &mut core,
            &mut conn,
            "GET /history?res=10s HTTP/1.1\r\n\r\n",
        );
        assert!(resp.contains("\"res\":\"10s\""));
        assert!(resp.contains("\"buckets\":[{"));
        let (st, resp) = run(&mut core, &mut conn, "GET /history?res=5s HTTP/1.1\r\n\r\n");
        assert!(resp.starts_with("HTTP/1.1 400"));
        assert_eq!(st, ConnStatus::Close);
    }

    #[test]
    fn pipelined_requests_answer_in_order() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        core.on_publish(1, snap(1000.0, vec![]));
        let mut conn = Connection::new();
        let two = "GET /snapshot HTTP/1.1\r\n\r\nGET / HTTP/1.1\r\n\r\n";
        let (st, resp) = run(&mut core, &mut conn, two);
        assert_eq!(st, ConnStatus::Open);
        assert_eq!(resp.matches("HTTP/1.1 200").count(), 2);
        let snap_at = resp.find("\"campus\"").unwrap();
        let index_at = resp.find("serving tier").unwrap();
        assert!(snap_at < index_at, "responses in request order");
        assert_eq!(conn.buffered(), 0);
    }

    #[test]
    fn malformed_request_is_4xx_and_close() {
        let mut core = ServeCore::new(ServeConfig::default(), ServeMetrics::default());
        let mut conn = Connection::new();
        let (st, resp) = run(&mut core, &mut conn, "BLARGH /x\r\n\r\n");
        assert_eq!(st, ConnStatus::Close);
        assert!(resp.starts_with("HTTP/1.1 4") || resp.starts_with("HTTP/1.1 5"));
        assert!(resp.contains("Connection: close"));
    }
}
