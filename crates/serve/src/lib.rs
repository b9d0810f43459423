//! HAWC-CC snapshot serving tier: versioned campus state for
//! dashboard swarms.
//!
//! The fusion pipeline publishes one [`fleet::CampusSnapshot`] per
//! epoch into a lock-free [`fleet::SnapshotCell`]. This crate turns
//! that cell into an HTTP surface sized for *readers in the millions
//! while writers stay in the tens*: a single-threaded reactor
//! ([`HttpServer`]) over non-blocking sockets and `poll(2)`, serving
//!
//! - `GET /snapshot` — the full fused campus state, ETag'd with the
//!   publish seq so an unchanged poll (`If-None-Match`) is a
//!   near-free `304`,
//! - `GET /zone/{x},{y}` and `GET /pole/{id}` — slices for per-kiosk
//!   dashboards,
//! - `GET /delta?since=N` — only what changed, long-polling until the
//!   next epoch publishes,
//! - `GET /history?res=1s|10s|1m` — downsampled occupancy series off
//!   a tiered ring buffer.
//!
//! The request path is strict, panic-free, and — once a connection's
//! buffers are warmed — allocation-free; parsing is bounded on every
//! axis so a hostile client can cost at most a few KiB and one
//! descriptor. No dependencies beyond the workspace: the HTTP/1.1
//! subset lives in [`http`], written for auditability over
//! generality.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod http;
pub mod ring;
mod server;

pub use crate::core::{
    ConnStatus, Connection, DeltaWindow, Parked, ServeConfig, ServeCore, ServeMetrics,
};
pub use crate::http::{HttpLimits, ParseStep, Request};
pub use crate::ring::{tier_index, Bucket, HistoryRing, SAMPLE_EVERY_MS, TIER_LABELS, TIER_RES_MS};
pub use crate::server::HttpServer;
