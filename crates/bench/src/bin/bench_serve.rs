//! Daemon benchmark driver: request latency under steady load,
//! shedding behavior under saturation, and coalescing efficiency.
//!
//! Like `bench-engine`, this is a plain binary so CI can run it in
//! seconds and archive the result:
//!
//! ```text
//! cargo run --release -p hgl-bench --bin bench-serve -- \
//!     [--quick] [--out BENCH_serve.json] [--check]
//! ```
//!
//! Three phases, each against a fresh in-process daemon:
//!
//! 1. **steady** — a handful of clients replay a small corpus against
//!    a normally-sized daemon; per-request wall latency gives
//!    p50/p95/p99 (the warm path: after the first pass every request
//!    hits the shared solver cache and store).
//! 2. **saturation** — a deliberately tiny daemon (1 worker, short
//!    queue) is flooded with *distinct* binaries from many concurrent
//!    clients; the shed rate is `overloaded / total`, and totality is
//!    asserted (every request answered with a structured status).
//! 3. **coalescing** — many concurrent clients request the *same*
//!    binary; the coalescing hit-rate is `coalesced / total`.
//!
//! `--check` gates: zero unstructured answers anywhere, a non-zero
//! shed rate in phase 2, and a non-zero coalescing rate in phase 3.

#![forbid(unsafe_code)]

use hgl_corpus::inject::elf_image;
use hgl_corpus::xen::gen_study_binary;
use hgl_export::envelope::document;
use hgl_serve::{Client, Json, ServeConfig, Server};
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Config {
    quick: bool,
    out: Option<String>,
    check: bool,
}

fn parse_args() -> Config {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out = args.iter().position(|a| a == "--out").and_then(|i| args.get(i + 1)).cloned();
    Config {
        quick: args.iter().any(|a| a == "--quick"),
        out,
        check: args.iter().any(|a| a == "--check"),
    }
}

fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

struct SteadyResult {
    p50: Duration,
    p95: Duration,
    p99: Duration,
    requests: usize,
    unstructured: usize,
}

/// Phase 1: moderate concurrent load, small corpus, warm daemon.
fn steady_phase(quick: bool) -> SteadyResult {
    let mut server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind steady");
    let addr = server.local_addr().to_string();
    let corpus: Vec<Vec<u8>> = (0..if quick { 3 } else { 6 })
        .map(|i| elf_image(&gen_study_binary(0x9e37_79b9_7f4a_7c15 ^ i, i % 3 == 2)))
        .collect();
    let clients = if quick { 2 } else { 4 };
    let rounds = if quick { 3 } else { 8 };

    let all: Vec<(Duration, bool)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let addr = addr.clone();
                let corpus = &corpus;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client.set_timeout(Some(Duration::from_secs(120))).expect("timeout");
                    let mut samples = Vec::new();
                    for round in 0..rounds {
                        for i in 0..corpus.len() {
                            // Stagger which binary each client starts
                            // on so the corpus interleaves.
                            let image = &corpus[(i + c + round) % corpus.len()];
                            let t0 = Instant::now();
                            let resp = client.lift(image, None, false).expect("lift answered");
                            let ok = resp.get("status").and_then(Json::as_str) == Some("ok");
                            samples.push((t0.elapsed(), ok));
                        }
                    }
                    samples
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("steady client")).collect()
    });

    server.shutdown();
    server.join();

    let mut lat: Vec<Duration> = all.iter().filter(|(_, ok)| *ok).map(|(d, _)| *d).collect();
    lat.sort_unstable();
    SteadyResult {
        p50: percentile(&lat, 0.50),
        p95: percentile(&lat, 0.95),
        p99: percentile(&lat, 0.99),
        requests: all.len(),
        unstructured: all.iter().filter(|(_, ok)| !*ok).count(),
    }
}

struct SaturationResult {
    requests: usize,
    ok: usize,
    shed: usize,
    other_structured: usize,
    unstructured: usize,
    shed_rate: f64,
}

/// Phase 2: flood a tiny daemon with distinct binaries.
fn saturation_phase(quick: bool) -> SaturationResult {
    let config = ServeConfig { workers: 1, queue_capacity: 2, ..ServeConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind saturation");
    let addr = server.local_addr().to_string();
    let clients = if quick { 6 } else { 12 };
    let per_client = if quick { 2 } else { 4 };
    // Synchronized release: saturation requires simultaneous arrival,
    // not clients trickling in as fast as the worker drains them.
    let barrier = std::sync::Barrier::new(clients);

    let statuses: Vec<String> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients as u64)
            .map(|c| {
                let addr = addr.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client.set_timeout(Some(Duration::from_secs(120))).expect("timeout");
                    barrier.wait();
                    let mut out = Vec::new();
                    for i in 0..per_client as u64 {
                        let image =
                            elf_image(&gen_study_binary(0xBEEF ^ (c * 100 + i), false));
                        let resp = client.lift(&image, None, false).expect("answered");
                        out.push(
                            resp.get("status")
                                .and_then(Json::as_str)
                                .unwrap_or("<unstructured>")
                                .to_string(),
                        );
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().flat_map(|h| h.join().expect("saturation client")).collect()
    });

    server.shutdown();
    server.join();

    let ok = statuses.iter().filter(|s| *s == "ok").count();
    let shed = statuses.iter().filter(|s| *s == "overloaded").count();
    let structured = ["ok", "overloaded", "deadline", "shutting_down", "internal", "bad_request"];
    let unstructured = statuses.iter().filter(|s| !structured.contains(&s.as_str())).count();
    SaturationResult {
        requests: statuses.len(),
        ok,
        shed,
        other_structured: statuses.len() - ok - shed - unstructured,
        unstructured,
        shed_rate: shed as f64 / statuses.len().max(1) as f64,
    }
}

struct CoalesceResult {
    requests: usize,
    coalesced: usize,
    unstructured: usize,
    rate: f64,
}

/// Phase 3: many clients, one binary, one slow worker.
fn coalesce_phase(quick: bool) -> CoalesceResult {
    let config = ServeConfig { workers: 1, queue_capacity: 64, ..ServeConfig::default() };
    let mut server = Server::bind("127.0.0.1:0", config).expect("bind coalesce");
    let addr = server.local_addr().to_string();
    let clients = if quick { 6 } else { 12 };
    let image = elf_image(&gen_study_binary(0xC0A1E5CE, true));
    // All clients connect first, then release their requests together:
    // the flood lands inside the leader's computation window, which is
    // what coalescing exists for.
    let barrier = std::sync::Barrier::new(clients);

    let responses: Vec<Json> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let addr = addr.clone();
                let image = &image;
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    client.set_timeout(Some(Duration::from_secs(120))).expect("timeout");
                    barrier.wait();
                    client.lift(image, None, false).expect("answered")
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("coalesce client")).collect()
    });

    server.shutdown();
    server.join();

    let coalesced = responses
        .iter()
        .filter(|r| r.get("coalesced").and_then(Json::as_bool) == Some(true))
        .count();
    let unstructured = responses
        .iter()
        .filter(|r| r.get("status").and_then(Json::as_str).is_none())
        .count();
    CoalesceResult {
        requests: responses.len(),
        coalesced,
        unstructured,
        rate: coalesced as f64 / responses.len().max(1) as f64,
    }
}

fn main() -> ExitCode {
    let cfg = parse_args();
    eprintln!("bench-serve: steady phase...");
    let steady = steady_phase(cfg.quick);
    eprintln!(
        "steady: {} requests, p50 {:?}, p95 {:?}, p99 {:?}",
        steady.requests, steady.p50, steady.p95, steady.p99
    );
    eprintln!("bench-serve: saturation phase...");
    let sat = saturation_phase(cfg.quick);
    eprintln!(
        "saturation: {} requests — {} ok, {} shed ({:.1}%), {} other, {} unstructured",
        sat.requests,
        sat.ok,
        sat.shed,
        sat.shed_rate * 100.0,
        sat.other_structured,
        sat.unstructured
    );
    eprintln!("bench-serve: coalescing phase...");
    let co = coalesce_phase(cfg.quick);
    eprintln!(
        "coalescing: {} requests, {} coalesced ({:.1}%)",
        co.requests,
        co.coalesced,
        co.rate * 100.0
    );

    let unstructured = steady.unstructured + sat.unstructured + co.unstructured;
    let doc = document("hgl-bench-serve", |w| {
        w.key("quick").raw(cfg.quick).key("steady_requests").raw(steady.requests);
        w.key("latency_p50_ns").raw(steady.p50.as_nanos());
        w.key("latency_p95_ns").raw(steady.p95.as_nanos());
        w.key("latency_p99_ns").raw(steady.p99.as_nanos());
        w.key("saturation_requests").raw(sat.requests).key("saturation_ok").raw(sat.ok);
        w.key("saturation_shed").raw(sat.shed).key("shed_rate").raw(format_args!("{:.4}", sat.shed_rate));
        w.key("coalesce_requests").raw(co.requests).key("coalesce_hits").raw(co.coalesced);
        w.key("coalesce_hit_rate").raw(format_args!("{:.4}", co.rate));
        w.key("unstructured_responses").raw(unstructured);
    });

    match &cfg.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("bench-serve: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench-serve: wrote {path}");
        }
        None => print!("{doc}"),
    }

    if cfg.check {
        if unstructured > 0 {
            eprintln!("bench-serve: GATE FAILED — {unstructured} unstructured response(s)");
            return ExitCode::FAILURE;
        }
        if sat.shed == 0 {
            eprintln!("bench-serve: GATE FAILED — no shedding under saturation (admission control inert)");
            return ExitCode::FAILURE;
        }
        if co.coalesced == 0 {
            eprintln!("bench-serve: GATE FAILED — coalescing hit-rate is zero");
            return ExitCode::FAILURE;
        }
        eprintln!("bench-serve: gates passed (shed rate {:.1}%, coalesce rate {:.1}%)",
            sat.shed_rate * 100.0, co.rate * 100.0);
    }
    ExitCode::SUCCESS
}
