//! `serve-open`: an open-loop load against a daemon started with
//! `Server::bind` in this process (no store, default workers).
//!
//! One sender thread writes JSONL frames on a fixed schedule over a
//! few connections; one receiver thread reads the answers. Latency is
//! timed from each request's due time, so a stall also delays the
//! requests queued behind it. Requests mix a hot set of repeated images
//! with a share of distinct ones, image sizes span about ten times, and
//! one in four is `lint`. Every answer must be `ok` and carry the
//! verdict an in-process lift of the same image gives.
//!
//! The run first holds [`FIXED_RATE`] for 60% of its time (`p50_ms`,
//! `tail_ms`), then runs saturation steps in which every request is due
//! at once; `ops_per_s` is the median rate of `ok` answers over those
//! steps divided by the host-speed scale measured around each step (see
//! `calib`), so a slow host does not read as a slow daemon. Request
//! latency is not scaled: at the fixed rate it is set by timers and the
//! network stack rather than by CPU speed.

use crate::calib;
use crate::report::{chunk_seed, CoreTally, Report};
use crate::stats::{percentile, sorted, Latency};
use crate::trace::Tracer;
use crate::RunCfg;
use hgl_analysis::{analyze, AnalysisConfig, Severity};
use hgl_core::{LiftConfig, Lifter};
use hgl_corpus::coreutils;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_serve::json::write_json_string;
use hgl_serve::{hex_encode, Client, ServeConfig, Server};
use hgl_solver::QueryCache;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Offered rate of the fixed-rate phase, requests per second.
const FIXED_RATE: f64 = 40.0;

/// Requests per saturation step, and steps per run.
const SATURATION_REQUESTS: usize = 200;
const SATURATION_STEPS: u64 = 5;

/// How long the receiver waits for stragglers after the last due time.
const DRAIN: Duration = Duration::from_secs(5);

/// Images in the hot set: six library units, four whole programs, and
/// the `od` and `tar` builds (the largest image).
const HOT: usize = 12;

/// Seed of the hot set. The hot set stands for the binaries a daemon
/// sees over and over; it is the same for every run seed, so that
/// `ops_per_s` measures the daemon rather than which twelve binaries a
/// seed drew (the run seed still picks the order and every distinct
/// image).
const HOT_SEED: u64 = 0x0480_75e7;

/// Set-ups per run; `setup_s` is the median. Fewer than the closed
/// loops' five: each one binds and warms a daemon.
const SETUP_REPS: usize = 3;

/// Request kinds in every block of eight: `H` draws the next hot image
/// (round robin), `D` a distinct image never sent before; `lint` marks
/// the two lint requests. Three in four requests are hot, one in four
/// is `lint`.
const BLOCK: [(char, bool); 8] = [
    ('H', false),
    ('H', false),
    ('H', false),
    ('D', true),
    ('H', false),
    ('H', false),
    ('H', true),
    ('D', false),
];

/// SplitMix64: the schedule's own generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

struct Image {
    name: String,
    bytes: Vec<u8>,
    hex: String,
    /// Substrings every `ok` answer for this image must contain: the
    /// verdict an in-process lift gives.
    lift_fields: [String; 2],
    /// The extra substring a `lint` answer must contain.
    lint_fields: String,
    states: u64,
    instructions: u64,
}

impl Image {
    fn matches(&self, line: &str, lint: bool) -> bool {
        self.lift_fields.iter().all(|f| line.contains(f.as_str()))
            && (!lint || line.contains(&self.lint_fields))
    }
}

/// One scheduled request.
#[derive(Clone, Copy)]
struct Req {
    image: usize,
    lint: bool,
}

struct Setup {
    hot: Vec<Image>,
    server: Server,
}

/// An image with the verdict fields the daemon reports for it, from
/// an in-process lift.
fn image(name: String, bin: &Binary) -> Image {
    let bytes = hgl_rewrite::elf_image(bin);
    let parsed = Binary::parse(&bytes).expect("generated image parses");
    let report = Lifter::new(&parsed)
        .with_config(LiftConfig::default())
        .lift_all();
    let r = &report.result;
    let lifted_fns = r.functions.values().filter(|f| f.is_lifted()).count();
    let counts = format!(
        "\"lifted\":{},\"functions\":{},\"lifted_functions\":{},\"instructions\":{},\"states\":{},\"roots\":{},",
        r.is_lifted(),
        r.functions.len(),
        lifted_fns,
        r.instruction_count(),
        r.state_count(),
        report.roots.len()
    );
    let mut reject = String::from("\"reject\":");
    match r.reject_reason() {
        Some(reason) => write_json_string(&format!("{reason:?}"), &mut reject),
        None => reject.push_str("null"),
    }
    let a = analyze(&parsed, r, &AnalysisConfig::default());
    let lint_fields = format!(
        "\"diags\":{},\"errors\":{},\"warnings\":{},\"infos\":{}",
        a.diags.len(),
        a.count(Severity::Error),
        a.count(Severity::Warning),
        a.count(Severity::Info)
    );
    Image {
        name,
        hex: hex_encode(&bytes),
        bytes,
        lift_fields: [counts, reject],
        lint_fields,
        states: r.state_count() as u64,
        instructions: r.instruction_count() as u64,
    }
}

/// The `k`-th generated image of a kind: library units, whole
/// programs, and coreutils builds cycling through the six specs.
fn generated(kind: usize, seed: u64, k: u64) -> Image {
    let s = seed ^ (k << 40);
    match kind {
        0 => image(format!("lib_{k}"), &gen_study_binary(s, true)),
        1 => image(format!("prog_{k}"), &gen_study_binary(s, false)),
        _ => {
            let specs = coreutils::specs();
            let spec = &specs[k as usize % specs.len()];
            image(format!("{}_{k}", spec.name), &coreutils::build(spec, s))
        }
    }
}

fn setup() -> Setup {
    let mut hot: Vec<Image> = (0..6).map(|k| generated(0, HOT_SEED, k)).collect();
    hot.extend((0..4).map(|k| generated(1, HOT_SEED, k)));
    let specs = coreutils::specs();
    for name in ["od", "tar"] {
        let spec = specs
            .iter()
            .find(|s| s.name == name)
            .expect("coreutils spec");
        hot.push(image(
            format!("hot_{name}"),
            &coreutils::build(spec, HOT_SEED),
        ));
    }
    let server = Server::bind("127.0.0.1:0", ServeConfig::default()).expect("bind the daemon");
    // Warm the shared solver cache on the hot set, as a long-running
    // daemon would be.
    let mut client = Client::connect(&server.local_addr().to_string()).expect("connect");
    for img in &hot {
        client.lift(&img.bytes, None, false).expect("warm-up lift");
        client.lint(&img.bytes, false).expect("warm-up lint");
    }
    Setup { hot, server }
}

/// A schedule of `n` requests: its distinct images (generated from
/// `seed`, untimed) and the requests, which index `hot ++ distinct`.
fn schedule(setup: &Setup, seed: u64, n: usize) -> (Vec<Image>, Vec<Req>) {
    let mut rng = Rng(seed);
    let mut order: Vec<usize> = (0..HOT).collect();
    for i in (1..HOT).rev() {
        order.swap(i, (rng.next() % (i as u64 + 1)) as usize);
    }
    let mut distinct = Vec::new();
    let mut reqs = Vec::with_capacity(n);
    let mut hot_next = 0;
    for k in 0..n {
        let (kind, lint) = BLOCK[k % BLOCK.len()];
        let image = if kind == 'H' {
            hot_next += 1;
            order[(hot_next - 1) % HOT]
        } else {
            // Distinct images cycle through library units, whole
            // programs and, one in eight, a coreutils build.
            let d = distinct.len() as u64;
            let kind = if d % 8 == 7 { 2 } else { (d % 2) as usize };
            distinct.push(generated(kind, seed, d));
            setup.hot.len() + distinct.len() - 1
        };
        reqs.push(Req { image, lint });
    }
    (distinct, reqs)
}

/// Timestamps of one request, for its spans.
#[derive(Clone, Copy, Default)]
struct Stamps {
    encode_start: Option<Instant>,
    encode_end: Option<Instant>,
    send_end: Option<Instant>,
    recv: Option<Instant>,
    decode_end: Option<Instant>,
}

/// The outcome of driving one schedule at one rate.
struct Drive {
    /// Per request: latency from due time, `None` when unanswered.
    latency_ms: Vec<Option<f64>>,
    /// Per request: `None` for a correct `ok` answer, else why not.
    problem: Vec<Option<String>>,
    /// Per request: the answer was `ok` (right or wrong).
    ok: Vec<bool>,
    /// Sender lateness per request, milliseconds.
    lag_ms: Vec<f64>,
    /// Most requests outstanding at any send.
    backlog_max: u64,
    frame_bytes: u64,
    stamps: Vec<Stamps>,
    /// From the first due time to the last `ok` answer.
    ok_wall_s: f64,
    due0: Instant,
}

/// Write `buf` fully to a non-blocking stream.
fn write_all_nb(stream: &mut TcpStream, mut buf: &[u8]) -> std::io::Result<()> {
    while !buf.is_empty() {
        match stream.write(buf) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => buf = &buf[n..],
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_micros(50))
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// `(id, status)` of an answer line.
fn head(line: &str) -> Option<(u64, &str)> {
    let rest = line.strip_prefix("{\"id\":")?;
    let digits = rest.find(|c: char| !c.is_ascii_digit())?;
    let id = rest[..digits].parse().ok()?;
    let status = rest[digits..].strip_prefix(",\"status\":\"")?;
    Some((id, &status[..status.find('"')?]))
}

/// Drive `reqs` at `rate` over `conns`; request `k` carries id
/// `first_id + k`.
fn drive(
    images: &[&Image],
    conns: &mut [TcpStream],
    reqs: &[Req],
    rate: f64,
    first_id: u64,
    stamp: bool,
) -> Drive {
    let n = reqs.len();
    let received = Arc::new(AtomicU64::new(0));
    let due0 = Instant::now() + Duration::from_millis(20);
    // An infinite rate makes every request due at once.
    let due = |k: usize| due0 + Duration::from_secs_f64(k as f64 / rate);
    let mut writers: Vec<TcpStream> = conns
        .iter()
        .map(|c| c.try_clone().expect("clone the connection"))
        .collect();

    std::thread::scope(|scope| {
        let received_w = received.clone();
        let sender = scope.spawn(move || {
            let mut lag_ms = Vec::with_capacity(n);
            let mut stamps = vec![Stamps::default(); if stamp { n } else { 0 }];
            let (mut backlog_max, mut frame_bytes) = (0, 0u64);
            let mut frame = String::new();
            for (k, req) in reqs.iter().enumerate() {
                let due_k = due(k);
                let now = Instant::now();
                if due_k > now {
                    std::thread::sleep(due_k - now);
                }
                let start = Instant::now();
                lag_ms.push(start.saturating_duration_since(due_k).as_secs_f64() * 1e3);
                frame.clear();
                let op = if req.lint { "lint" } else { "lift" };
                frame.push_str(&format!(
                    "{{\"id\":{},\"op\":\"{op}\",\"binary\":\"",
                    first_id + k as u64
                ));
                frame.push_str(&images[req.image].hex);
                frame.push_str("\"}\n");
                let encoded = Instant::now();
                let conn_count = writers.len();
                let w = &mut writers[k % conn_count];
                if write_all_nb(w, frame.as_bytes()).is_err() {
                    break;
                }
                frame_bytes += frame.len() as u64;
                if stamp {
                    stamps[k] = Stamps {
                        encode_start: Some(start),
                        encode_end: Some(encoded),
                        send_end: Some(Instant::now()),
                        ..Stamps::default()
                    };
                }
                let outstanding = (k as u64 + 1).saturating_sub(received_w.load(Ordering::Relaxed));
                backlog_max = backlog_max.max(outstanding);
            }
            (lag_ms, stamps, backlog_max, frame_bytes)
        });

        let mut latency_ms = vec![None; n];
        let mut problem: Vec<Option<String>> = vec![Some("no answer".to_string()); n];
        let mut ok = vec![false; n];
        let mut recv_stamps = vec![(None, None); if stamp { n } else { 0 }];
        let mut bufs: Vec<Vec<u8>> = vec![Vec::new(); conns.len()];
        let mut chunk = vec![0u8; 64 * 1024];
        let give_up = due(n.saturating_sub(1)) + DRAIN;
        let mut answered = 0;
        let mut last_ok = due0;
        while answered < n && Instant::now() < give_up {
            let mut progress = false;
            for (c, conn) in conns.iter_mut().enumerate() {
                match conn.read(&mut chunk) {
                    Ok(0) => {}
                    Ok(got) => {
                        progress = true;
                        bufs[c].extend_from_slice(&chunk[..got]);
                    }
                    Err(e)
                        if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::Interrupted) => {}
                    Err(_) => {}
                }
                while let Some(at) = bufs[c].iter().position(|&b| b == b'\n') {
                    let recv = Instant::now();
                    let line: Vec<u8> = bufs[c].drain(..=at).collect();
                    let line = String::from_utf8_lossy(&line[..at]);
                    let Some((id, status)) = head(&line) else {
                        continue;
                    };
                    let Some(k) = id
                        .checked_sub(first_id)
                        .map(|k| k as usize)
                        .filter(|&k| k < n)
                    else {
                        continue;
                    };
                    if latency_ms[k].is_some() {
                        continue;
                    }
                    latency_ms[k] =
                        Some(recv.saturating_duration_since(due(k)).as_secs_f64() * 1e3);
                    let img = &images[reqs[k].image];
                    ok[k] = status == "ok";
                    if ok[k] {
                        last_ok = recv;
                    }
                    problem[k] = if !ok[k] {
                        Some(format!("{} answered {status}", img.name))
                    } else if !img.matches(&line, reqs[k].lint) {
                        Some(format!(
                            "{}: answer differs from the in-process lift: {line:.300}",
                            img.name
                        ))
                    } else {
                        None
                    };
                    if stamp {
                        recv_stamps[k] = (Some(recv), Some(Instant::now()));
                    }
                    received.fetch_add(1, Ordering::Relaxed);
                    answered += 1;
                }
            }
            if !progress {
                std::thread::sleep(Duration::from_micros(100));
            }
        }
        let (lag_ms, mut stamps, backlog_max, frame_bytes) = sender.join().expect("sender thread");
        for (s, (recv, decode_end)) in stamps.iter_mut().zip(recv_stamps) {
            s.recv = recv;
            s.decode_end = decode_end;
        }
        Drive {
            latency_ms,
            problem,
            ok,
            lag_ms,
            backlog_max,
            frame_bytes,
            stamps,
            ok_wall_s: last_ok.saturating_duration_since(due0).as_secs_f64(),
            due0,
        }
    })
}

/// The load generator's connections and its next request id.
struct Loadgen {
    conns: Vec<TcpStream>,
    next_id: u64,
}

impl Loadgen {
    /// Open at most `nproc` (and at most two) connections.
    fn connect(setup: &Setup) -> Loadgen {
        let n = std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(2);
        let conns = (0..n)
            .map(|_| {
                let s =
                    TcpStream::connect(setup.server.local_addr()).expect("connect to the daemon");
                s.set_nodelay(true).expect("set TCP_NODELAY");
                s.set_nonblocking(true).expect("set non-blocking");
                s
            })
            .collect();
        Loadgen { conns, next_id: 1 }
    }

    /// Generate a schedule of `n` requests from `seed` (untimed) and
    /// drive it at `rate`.
    fn step<'a>(
        &mut self,
        setup: &'a Setup,
        distinct: &'a mut Vec<Image>,
        seed: u64,
        n: usize,
        rate: f64,
        stamp: bool,
    ) -> Step<'a> {
        let (fresh, reqs) = schedule(setup, seed, n);
        *distinct = fresh;
        let images: Vec<&Image> = setup.hot.iter().chain(distinct.iter()).collect();
        let first_id = self.next_id;
        self.next_id += n as u64;
        let drive = drive(&images, &mut self.conns, &reqs, rate, first_id, stamp);
        Step {
            images,
            reqs,
            drive,
            first_id,
        }
    }
}

/// Latencies with unanswered requests counted as missing the limit.
fn latencies(d: &Drive) -> Vec<f64> {
    d.latency_ms
        .iter()
        .zip(&d.ok)
        .map(|(l, ok)| {
            if *ok {
                l.unwrap_or(f64::INFINITY)
            } else {
                f64::INFINITY
            }
        })
        .collect()
}

/// Number value of `"key":N` inside a `metrics` answer.
fn field(doc: &str, key: &str) -> f64 {
    let pat = format!("\"{key}\":");
    doc.find(&pat)
        .map(|at| &doc[at + pat.len()..])
        .and_then(|rest| {
            rest[..rest.find([',', '}']).unwrap_or(rest.len())]
                .parse()
                .ok()
        })
        .unwrap_or(0.0)
}

fn metrics_doc(setup: &Setup) -> String {
    let mut c =
        Client::connect(&setup.server.local_addr().to_string()).expect("connect for metrics");
    c.metrics().expect("metrics op").to_string()
}

/// One driven schedule with the images its requests index.
struct Step<'a> {
    images: Vec<&'a Image>,
    reqs: Vec<Req>,
    drive: Drive,
    first_id: u64,
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut r = Report::default();
    let mut times = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        drop(built.take());
        let t0 = Instant::now();
        built = Some(setup());
        times.push(t0.elapsed().as_secs_f64());
    }
    r.setup(&times);
    let setup = built.expect("set-up ran");
    let mut load = Loadgen::connect(&setup);

    let fixed_s = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds * 0.6
    };
    let n_fixed = (FIXED_RATE * fixed_s).round().max(20.0) as usize;
    let mut fixed_distinct = Vec::new();
    let fixed = load.step(
        &setup,
        &mut fixed_distinct,
        chunk_seed(cfg.seed, 0),
        n_fixed,
        FIXED_RATE,
        false,
    );
    for p in &fixed.drive.problem {
        r.check(p.clone());
    }
    let fixed_lat = latencies(&fixed.drive);

    if !cfg.trace {
        // Saturation: every request of a step is due at once, so the
        // daemon answers as fast as it can. Sheds and timeouts are
        // expected there; a wrong `ok` answer is a failure anywhere.
        let mut rates = Vec::new();
        let mut distinct = Vec::new();
        for k in 0..SATURATION_STEPS {
            let seed = chunk_seed(cfg.seed, 1 + k);
            let before = calib::scale_now();
            let d = load
                .step(
                    &setup,
                    &mut distinct,
                    seed,
                    SATURATION_REQUESTS,
                    f64::INFINITY,
                    false,
                )
                .drive;
            let scale = (before + calib::scale_now()) / 2.0;
            for (p, ok) in d.problem.iter().zip(&d.ok) {
                r.check(p.clone().filter(|_| *ok));
            }
            let answered_ok = d.ok.iter().filter(|ok| **ok).count();
            let rate = answered_ok as f64 / d.ok_wall_s;
            r.notes.push(format!(
                "saturation step {k}: {answered_ok} of {} ok in {:.3} s, {rate:.3}/s unscaled, host_scale {scale:.4}",
                d.ok.len(),
                d.ok_wall_s
            ));
            rates.push(rate / scale);
        }
        r.metric("ops_per_s", crate::stats::median(&rates), "1/s");
        r.latency(&fixed_lat, &format!("requests at {FIXED_RATE}/s"));
        let images = fixed.reqs.iter().map(|q| fixed.images[q.image]);
        let (states, instrs) =
            images.fold((0, 0), |(s, i), img| (s + img.states, i + img.instructions));
        r.metric(
            "states_per_instr",
            states as f64 / instrs.max(1) as f64,
            "states/instr",
        );
        return r;
    }

    // Traced: a schedule of the same shape with fresh distinct images,
    // stamped, then its lift requests lifted in-process on a warm
    // shared cache.
    let before = metrics_doc(&setup);
    let mut traced_distinct = Vec::new();
    let traced = load.step(
        &setup,
        &mut traced_distinct,
        chunk_seed(cfg.seed, 1 << 20),
        n_fixed,
        FIXED_RATE,
        true,
    );
    for p in &traced.drive.problem {
        r.check(p.clone());
    }
    let after = metrics_doc(&setup);
    let untraced_p50 = Latency::of(&fixed_lat).expect("non-empty").p50;
    let traced_lat = latencies(&traced.drive);
    let traced_p50 = Latency::of(&traced_lat).expect("non-empty").p50;
    r.metric(
        "trace.overhead_pct",
        (traced_p50 / untraced_p50 - 1.0) * 100.0,
        "%",
    );

    let d = &traced.drive;
    let mut tr = Tracer::new(true, d.due0);
    let (mut enc_ns, mut dec_ns) = (0u64, 0u64);
    for (k, s) in d.stamps.iter().enumerate() {
        let (Some(es), Some(ee), Some(se)) = (s.encode_start, s.encode_end, s.send_end) else {
            continue;
        };
        let id = traced.first_id + k as u64;
        let due_k = d.due0 + Duration::from_secs_f64(k as f64 / FIXED_RATE);
        let end = s.decode_end.unwrap_or(se);
        let root = tr.record("serve.request", id, None, due_k, end);
        tr.record("serve.client_encode", id, Some(root), es, ee);
        tr.record("serve.send", id, Some(root), ee, se);
        enc_ns += (ee - es).as_nanos() as u64;
        if let (Some(rv), Some(de)) = (s.recv, s.decode_end) {
            tr.record("serve.client_decode", id, Some(root), rv, de);
            dec_ns += (de - rv).as_nanos() as u64;
        }
    }
    let n = traced.reqs.len().max(1) as f64;
    let served = |lint: bool| -> Vec<f64> {
        traced_lat
            .iter()
            .zip(&traced.reqs)
            .filter(|(_, q)| q.lint == lint)
            .map(|(l, _)| *l)
            .collect()
    };
    let lift_p50 = Latency::of(&served(false)).map_or(f64::NAN, |l| l.p50);
    r.metric("serve.frame_bytes", d.frame_bytes as f64 / n, "B/op");
    r.metric("serve.client_encode_ns", enc_ns as f64 / n, "ns/op");
    r.metric("serve.client_decode_ns", dec_ns as f64 / n, "ns/op");
    r.metric("serve.lift_p50_ms", lift_p50, "ms");
    r.metric(
        "serve.lint_p50_ms",
        Latency::of(&served(true)).map_or(f64::NAN, |l| l.p50),
        "ms",
    );
    r.metric("serve.backlog_max", d.backlog_max as f64, "count");
    r.metric(
        "loadgen.lag_p99_ms",
        percentile(&sorted(&d.lag_ms), 99.0),
        "ms",
    );
    let delta = |key: &str| field(&after, key) - field(&before, key);
    r.metric("serve.shed", delta("shed"), "count");
    r.metric("serve.coalesced", delta("coalesced"), "count");
    r.metric("serve.deadline", delta("deadline_fired"), "count");
    r.metric("serve.bad_frames", delta("bad_frames"), "count");
    r.metric("serve.cache_hits", delta("hits"), "count");
    r.metric("serve.cache_misses", delta("misses"), "count");

    // In-process: parse + lift_all on a shared cache, warmed by one
    // untimed pass over the same lift requests.
    let cache = Arc::new(QueryCache::new());
    let mut core = CoreTally::default();
    let (mut parse_ns, mut image_bytes) = (0u64, 0u64);
    let mut inproc_ms = Vec::new();
    for warm in [true, false] {
        for (k, q) in traced.reqs.iter().enumerate().filter(|(_, q)| !q.lint) {
            let img = traced.images[q.image];
            let id = traced.first_id + k as u64;
            let t0 = Instant::now();
            let op = tr.open("op.inproc", id, None);
            let s = tr.open("elf.parse", id, Some(op));
            let bin = Binary::parse(&img.bytes).expect("generated image parses");
            let parsed = Instant::now();
            tr.close(s);
            let s = tr.open("core.lift", id, Some(op));
            let cache_before = cache.stats();
            let lifter = Lifter::new(&bin).with_cache(cache.clone());
            let report = lifter.lift_all();
            let lift_ns = parsed.elapsed().as_nanos() as u64;
            tr.close(s);
            tr.close(op);
            if !warm {
                inproc_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                core.add(&report.metrics, &report.result, lift_ns, &cache_before);
                parse_ns += (parsed - t0).as_nanos() as u64;
                image_bytes += img.bytes.len() as u64;
            }
        }
    }
    let inproc_p50 = Latency::of(&inproc_ms).map_or(f64::NAN, |l| l.p50);
    r.metric("serve.inproc_p50_ms", inproc_p50, "ms");
    r.metric("serve.overhead_p50_ms", lift_p50 - inproc_p50, "ms");
    r.notes.push("note solver.* on serve-open come from the in-process lifts on a warm shared cache; serve.cache_* are the daemon's own cache over the traced phase".to_string());
    core.emit(&mut r);
    crate::report::elf_metrics(&mut r, parse_ns, image_bytes, inproc_ms.len() as u64);
    crate::report::emit_self_times(&mut r, &tr, &cfg.out_dir, "serve-open", cfg.seed);
    r
}
