//! Scan-to-dashboard benchmark for HAWC-CC.
//!
//! Drives the whole system from outside under an open-loop, seeded
//! load: pole agents running int8 HAWC classification (or wire-only
//! poles), the ingest reactor, sharded fusion, snapshot publishing and
//! the `serve` HTTP tier, then checks the outputs and prints metrics.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload campus_live --seed 1 --seconds 20 --trace 0
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- --workload all
//! python3 e2e_bench/compare.py target/e2e_bench/before target/e2e_bench/after
//! ```
//!
//! `--workload all` runs every workload, each in its own process, so
//! `setup_s` and `peak_rss_mb` never leak between workloads.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! Latencies run from the *due* time of the open-loop schedule
//! (coordinated omission corrected). A failed or unanswered operation
//! counts as missing every limit: it is charged until the run ends.
//!
//! - `setup_s`: one full set-up — HAWC training and quantization at a
//!   fixed config (counting workloads), agents, aggregator and reactor,
//!   serve tier, and the connections; the median of the run's
//!   set-ups (at least five, and as many as fit in a second). Input generation is excluded (`loadgen.gen_s`).
//! - `frame_p50_ms`, `frame_p99_ms`: capture due → the pole's report is
//!   on its uplink (`PoleAgent::step` returns: counting, encode and
//!   flush; for wire-only poles: encode and send).
//! - `staleness_p50_ms`, `staleness_p99_ms`: per report, capture due →
//!   the first HTTP response whose epoch shows that pole at that seq or
//!   later. The epoch → per-pole-seq map comes from a `PublishHook` on
//!   `SnapshotCell`; each response's epoch is its `ETag`.
//! - `read_p50_ms`, `read_p99_ms`: due → response received, for the
//!   fixed-rate reads on the read connection.
//! - `peak_rss_mb`: `VmHWM` of this process.
//! - `count_mae` (campus_live): mean |count − seeded truth| per frame.
//! - `ingest_capacity_rps` (city_ingest): highest offered report rate
//!   on the 2^(1/8) ladder whose `staleness_p99_ms` stays ≤ 500 ms with
//!   every report fused.
//! - `read_capacity_rps` (dashboard_swarm): highest offered read rate
//!   on the ladder whose `read_p99_ms` stays ≤ 5 ms.
//! - `failed_frac`: failed / attempted over the fixed-rate phase:
//!   held or panicked frames, reports never fused or never seen by a
//!   reader, non-200/304 responses and reads unanswered at run end.
//!
//! Every p99 is the median over five equal windows of the fixed-rate
//! phase of each window's p99, so one host hiccup cannot decide it.
//!
//! `BENCHMARK.json` tracks `setup_s`, `staleness_p50_ms`,
//! `staleness_p99_ms` and `peak_rss_mb`: every workload measures them,
//! none reads 0, and they repeat between unpaired runs on a shared
//! two-core host. The others print in the table and land in the
//! results file for `compare.py`, which reports them as unresolved
//! where their spread is too wide:
//! - `frame_p50_ms` and `read_p50_ms` are steady on city_ingest and
//!   dashboard_swarm, but on campus_live they follow the host's speed,
//!   which moved by 40% within minutes on such a host (same seed, same
//!   captures: classification median 1.4 ms in one run, 2.4 ms in
//!   another);
//! - `frame_p99_ms` and `read_p99_ms` swing by half between identical
//!   runs (more runnable threads than cores: the tail is scheduler
//!   noise);
//! - the last four exist on one workload each or read 0 by design.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A separate traced run times the benchmark's own calls into each
//! layer and keeps the spans in memory, writing them at exit to
//! `target/e2e_bench/trace-<workload>-<seed>.jsonl`. Each metric, and
//! the end-to-end metric it should move:
//!
//! - `loadgen.lag_p99_ms`, `loadgen.busy_frac`, `loadgen.gen_s`:
//!   validity checks on every workload; a lagging generator makes a
//!   run invalid, not slow.
//! - `counting.{clustering,upsample,projection,classification}_ms`:
//!   median stage times from the `StageMs` that `step` returns, and
//!   `counting.supervise_ms` (sanitize + ε choice: `elapsed_ms` minus
//!   the stages). They move `frame_p50_ms` on campus_live and are 0
//!   elsewhere. `counting.clusters_per_frame` is the input property
//!   that drives them.
//! - `counting.deadline_miss_frac`, `counting.degraded_frac` (off the
//!   adaptive-ε or int8 rung), `counting.held_frac`: move
//!   `frame_p99_ms`, `count_mae` and `failed_frac` on campus_live.
//! - `agent.uplink_ms` (`step` minus `elapsed_ms`),
//!   `agent.bytes_per_report`, `agent.dropped_oldest`: move
//!   `frame_p50_ms` and `failed_frac` on campus_live.
//! - `fleet.ingest_to_publish_{p50,p99}_ms` (report on the uplink →
//!   first hook publish containing it), `fleet.publish_interval_ms`,
//!   `fleet.publish_count`: move `staleness_*` on campus_live and
//!   city_ingest; the fixed 250 ms `publish_every` shows here.
//! - `fleet.capture_to_fuse_ms`: `FleetHealth` capture → fuse p50, at
//!   the √2 resolution of `obs` histograms. It splits fuse time from
//!   publish wait.
//! - `fleet.fused_frac`, `fleet.shed`, `fleet.backlog_max`,
//!   `fleet.cpu_frac` (process CPU over wall time of the fixed phase),
//!   `fleet.snapshot_people`, `fleet.wire_bytes_in`: move
//!   `ingest_capacity_rps` and `failed_frac` on city_ingest.
//! - `serve.publish_to_read_{p50,p99}_ms` (hook publish → a reader
//!   receives that epoch): moves `staleness_*` on every workload.
//! - `serve.queue_ms` (due → request written), `serve.server_{p50,p99}_ms`
//!   (written → response complete), `serve.hit_ratio`,
//!   `serve.bytes_per_response`, `serve.handle_ms` (`ServeMetrics`
//!   p50, √2 resolution), `serve.r4xx`, `serve.unanswered`: move
//!   `read_*` and `read_capacity_rps` on dashboard_swarm.
//! - `trace.overhead_frac`: time the traced run spent on trace-only
//!   work (backlog sampling) during the fixed phase, over its length.
//!
//! # Correctness gates
//!
//! A failed gate makes `correct` false and the exit code 1:
//! - every workload: ETags never go back on a connection, every 200
//!   body's `seq` equals its `ETag`, and the `/delta` stream composed
//!   back equals the final `/snapshot`;
//! - campus_live: the final published snapshot equals a replay of the
//!   run's own wire capture (`Aggregator::with_capture` →
//!   `fleet::replay`);
//! - city_ingest and dashboard_swarm: fused occupancy is exactly
//!   2N − 1; city_ingest: `FusionStats.reports` equals the reports sent
//!   in the fixed-rate phase.

mod http;
mod loadgen;
mod rec;
mod system;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use workloads::{Metric, WORKLOADS};

/// The end-to-end metrics `BENCHMARK.json` tracks, in its order.
const TRACKED: [&str; 4] = [
    "setup_s",
    "staleness_p50_ms",
    "staleness_p99_ms",
    "peak_rss_mb",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: "all".into(),
        seed: 1,
        seconds: 20,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => {
                return Err(format!(
                    "unknown flag {other} (use --workload <name|all> --seed <n> --seconds <n> --trace <0|1>)"
                ))
            }
        }
    }
    Ok(args)
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn metrics_json(ms: &[&Metric]) -> String {
    let fields: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Runs every workload, each in a child process of this binary.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot find this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    for w in &WORKLOADS {
        println!("== {} ==", w.name);
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        ok &= matches!(status, Ok(s) if s.success());
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    let Some(spec) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "unknown workload {} (one of {}, or all)",
            args.workload,
            names.join(", ")
        );
        return ExitCode::from(2);
    };
    // The campus example's deployment runs with telemetry on; the
    // reactor's shed counter (`fleet.shed`) lives there too.
    obs::enable(true);
    let out = workloads::run(spec, args.seed, args.seconds, args.trace);

    let shown = if args.trace {
        &out.per_layer
    } else {
        &out.end_to_end
    };
    println!(
        "{} seed={} seconds={} trace={} attempted={} failed={}",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        out.attempted,
        out.failed
    );
    for m in shown {
        println!("  {:<34} {:>14.4} {}", m.name, m.value, m.unit);
    }
    for n in &out.notes {
        println!("  # {n}");
    }
    for e in &out.gate_errors {
        println!("  GATE FAILED: {e}");
    }

    let dir = PathBuf::from("target/e2e_bench");
    let _ = std::fs::create_dir_all(dir.join("results"));
    if let Some(spans) = &out.spans {
        let path = dir.join(format!("trace-{}-{}.jsonl", spec.name, args.seed));
        let mut text = String::new();
        for s in spans {
            let _ = writeln!(text, "{s}");
        }
        match std::fs::write(&path, text) {
            Ok(()) => eprintln!(
                "[e2e_bench] {} spans written to {}",
                spans.len(),
                path.display()
            ),
            Err(e) => eprintln!("[e2e_bench] span file {}: {e}", path.display()),
        }
    }

    let reported: Vec<&Metric> = if args.trace {
        out.per_layer.iter().collect()
    } else {
        TRACKED
            .iter()
            .filter_map(|name| out.end_to_end.iter().find(|m| m.name == *name))
            .collect()
    };
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        out.correct,
        out.attempted.max(1),
        out.failed,
        metrics_json(&reported)
    );
    // Every metric (tracked or not) also lands in a results file that
    // `compare.py` reads.
    let all: Vec<&Metric> = out.end_to_end.iter().chain(&out.per_layer).collect();
    let record = format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"trace\":{},\"correct\":{},\"metrics\":{}}}\n",
        spec.name,
        args.seed,
        u8::from(args.trace),
        out.correct,
        metrics_json(&all)
    );
    let results = dir.join("results").join(format!("{}.jsonl", spec.name));
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&results)
        .and_then(|mut f| std::io::Write::write_all(&mut f, record.as_bytes()));
    if let Err(e) = appended {
        eprintln!("[e2e_bench] results file {}: {e}", results.display());
    }
    println!("{line}");
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
