//! What a workload run hands back, plus the helpers the workloads
//! share: the chunked closed loop with its host-speed scaling, and the
//! `core`/`solver` tallies read from the lifter's own counters.

use crate::calib;
use crate::stats::{median, quartiles, Latency};
use crate::trace::Tracer;
use crate::RunCfg;
use hgl_core::lift::{LiftResult, RejectReason};
use hgl_core::metrics::{MetricsSnapshot, Phase};
use hgl_core::BudgetDim;
use hgl_solver::CacheStats;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose outcome was missing or did not match the
    /// reference.
    pub failed: u64,
    /// The first few failure descriptions.
    pub problems: Vec<String>,
    /// Metrics for the result line.
    pub metrics: Vec<Metric>,
    /// Extra `name value unit` lines printed before the result line:
    /// measurements of layers this workload does not share with every
    /// other workload, and descriptive details.
    pub notes: Vec<String>,
}

impl Report {
    /// Add a result-line metric.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Add a printed-only measurement.
    pub fn note(&mut self, name: &str, value: f64, unit: &str) {
        self.notes.push(format!("{name} {value} {unit}"));
    }

    /// Count one attempted operation, failed when `problem` is `Some`.
    pub fn check(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(p) = problem {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(p);
            }
        }
    }

    /// Emit `p50_ms` and `tail_ms` of `latencies_ms` (non-empty).
    pub fn latency(&mut self, latencies_ms: &[f64], what: &str) {
        let l = Latency::of(latencies_ms).expect("a run measures at least one operation");
        self.metric("p50_ms", l.p50, "ms");
        self.metric("tail_ms", l.tail, "ms");
        self.notes.push(format!(
            "tail_rule {what}: tail_ms is p{} over n={} samples",
            l.tail_p, l.n
        ));
    }

    /// Emit `setup_s` from the repeated set-up times.
    pub fn setup(&mut self, setup_s: &[f64]) {
        self.metric("setup_s", median(setup_s), "s");
        self.notes.push(format!("setup_runs {setup_s:?}"));
    }
}

/// Number of times a closed-loop run builds its first chunk of inputs;
/// `setup_s` is the median.
const SETUP_REPS: usize = 5;

/// Per-operation latencies of a measurement loop, split at chunk
/// boundaries, with the calibration bursts run between them.
#[derive(Debug, Default)]
pub struct Samples {
    /// One latency per operation, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Sum of operation times, in seconds.
    pub busy_s: f64,
    /// Index of the first operation of every chunk.
    chunk_starts: Vec<usize>,
    /// `(operations done before it, nanoseconds)` of every burst.
    bursts: Vec<(usize, f64)>,
}

impl Samples {
    /// Record one operation's duration.
    pub fn push(&mut self, seconds: f64) {
        if self.chunk_starts.is_empty() {
            self.chunk_starts.push(0);
        }
        self.latencies_ms.push(seconds * 1e3);
        self.busy_s += seconds;
    }

    /// Run a calibration burst now.
    pub fn burst(&mut self) {
        self.bursts.push((self.latencies_ms.len(), calib::burst()));
    }

    /// Start a new chunk with the next operation.
    pub fn end_chunk(&mut self) {
        self.chunk_starts.push(self.latencies_ms.len());
    }

    /// Mean scaled latency, in milliseconds.
    fn scaled_mean_ms(&self) -> f64 {
        let total: f64 = self
            .latencies_ms
            .iter()
            .enumerate()
            .map(|(j, l)| l * self.scale(j))
            .sum();
        total / self.latencies_ms.len().max(1) as f64
    }

    /// Host-speed scale of operation `j`: [`calib::REFERENCE_NS`] over the
    /// median of the (up to) four bursts around it; below 1 while the
    /// host runs slow.
    fn scale(&self, j: usize) -> f64 {
        let k = self.bursts.partition_point(|b| b.0 <= j);
        let near: Vec<f64> = self.bursts[k.saturating_sub(2)..(k + 2).min(self.bursts.len())]
            .iter()
            .map(|b| b.1)
            .collect();
        if near.is_empty() {
            1.0
        } else {
            calib::REFERENCE_NS / median(&near)
        }
    }
}

impl Report {
    /// Emit `ops_per_s`, `p50_ms` and `tail_ms` of a closed loop, every
    /// latency scaled by its host-speed scale. `ops_per_s` and `p50_ms`
    /// are medians over chunks, so a few slow seconds move them less
    /// than a mean would; the tail follows the tail rule over every
    /// operation.
    pub fn closed_loop(&mut self, s: &Samples, what: &str) {
        let scales: Vec<f64> = (0..s.latencies_ms.len()).map(|j| s.scale(j)).collect();
        let scaled: Vec<f64> = s
            .latencies_ms
            .iter()
            .zip(&scales)
            .map(|(l, k)| l * k)
            .collect();
        let mut rates = Vec::new();
        let mut p50s = Vec::new();
        let ends = s
            .chunk_starts
            .iter()
            .skip(1)
            .copied()
            .chain([s.latencies_ms.len()]);
        for (start, end) in s
            .chunk_starts
            .iter()
            .copied()
            .zip(ends)
            .filter(|(a, b)| b > a)
        {
            let ops = &scaled[start..end];
            rates.push(ops.len() as f64 * 1e3 / ops.iter().sum::<f64>());
            p50s.push(median(ops));
        }
        self.metric("ops_per_s", median(&rates), "1/s");
        self.metric("p50_ms", median(&p50s), "ms");
        let l = Latency::of(&scaled).expect("a run measures at least one operation");
        self.metric("tail_ms", l.tail, "ms");
        let raw = Latency::of(&s.latencies_ms).expect("a run measures at least one operation");
        self.notes.push(format!(
            "closed_loop {what}: {} operations in {} chunks; ops_per_s and p50_ms are medians over chunks; tail_ms is p{} over n={}",
            l.n,
            rates.len(),
            l.tail_p,
            l.n
        ));
        let (q1, q2, q3) = if scales.len() >= 2 {
            quartiles(&scales)
        } else {
            (1.0, 1.0, 1.0)
        };
        self.notes.push(format!(
            "host_scale {what}: {} bursts, scale quartiles {q1:.4} {q2:.4} {q3:.4} (reference burst {} ns)",
            s.bursts.len(),
            calib::REFERENCE_NS
        ));
        self.notes.push(format!(
            "unscaled {what}: ops_per_s {} p50_ms {} tail_ms {}",
            s.latencies_ms.len() as f64 / s.busy_s,
            raw.p50,
            raw.tail
        ));
    }
}

/// A closed-loop workload run as a stream of chunks: each chunk is a
/// fresh batch of inputs generated from the seed and prepared untimed,
/// then its operations run and are timed one by one. Fresh inputs keep
/// every percentile an estimate over many distinct operations rather
/// than over repeats of a few.
pub trait Workload {
    /// One batch of prepared inputs.
    type Chunk;
    /// Build chunk `index` of the run's inputs.
    fn prepare(&mut self, index: u64) -> Self::Chunk;
    /// Operations in a chunk.
    fn ops(chunk: &Self::Chunk) -> usize;
    /// Run operation `i` of `chunk`; returns its seconds and, when the
    /// reference check failed, why.
    fn op(&mut self, chunk: &Self::Chunk, i: usize, tr: &mut Tracer) -> (f64, Option<String>);
}

/// Chunks after which a closed loop reads its peak resident set. The
/// lifter's interned expressions live for the whole process, so memory
/// grows with the work done; reading it after a fixed amount of work
/// keeps `peak_rss_mb` from tracking how fast the host ran.
const RSS_CHUNKS: u64 = 8;

/// How often a closed loop pauses between operations for a
/// calibration burst.
const BURST_EVERY: Duration = Duration::from_millis(20);

/// The seed of chunk `index` of a run with `seed`.
pub fn chunk_seed(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Run `w` for `cfg.seconds`: set-up (chunk 0, [`SETUP_REPS`] times,
/// each scaled by the host-speed scale around it),
/// then whole chunks until the time is up. A traced run spends the
/// first half untraced and replays the same chunks traced in the
/// second half; the traced samples and spans come back with it.
pub fn measure<W: Workload>(
    w: &mut W,
    cfg: &RunCfg,
    r: &mut Report,
) -> (Samples, Option<(Samples, Tracer)>) {
    let mut times = Vec::new();
    let mut first = None;
    for _ in 0..SETUP_REPS {
        drop(first.take());
        let before = calib::scale_now();
        let t0 = Instant::now();
        first = Some(w.prepare(0));
        let seconds = t0.elapsed().as_secs_f64();
        times.push(seconds * (before + calib::scale_now()) / 2.0);
    }
    r.setup(&times);
    let epoch = Instant::now();
    let seconds = if cfg.trace {
        cfg.seconds / 2.0
    } else {
        cfg.seconds
    };
    let untraced = stream(w, first, seconds, &mut Tracer::new(false, epoch), r);
    if !cfg.trace {
        return (untraced, None);
    }
    let mut tr = Tracer::new(true, epoch);
    let traced = stream(w, None, seconds, &mut tr, r);
    (untraced, Some((traced, tr)))
}

fn stream<W: Workload>(
    w: &mut W,
    first: Option<W::Chunk>,
    seconds: f64,
    tr: &mut Tracer,
    r: &mut Report,
) -> Samples {
    let start = Instant::now();
    let mut samples = Samples::default();
    let mut next = first;
    let mut last_burst = start;
    for index in 0.. {
        let chunk = next.take().unwrap_or_else(|| w.prepare(index));
        for i in 0..W::ops(&chunk) {
            let (s, problem) = w.op(&chunk, i, tr);
            samples.push(s);
            r.check(problem);
            if last_burst.elapsed() >= BURST_EVERY {
                samples.burst();
                last_burst = Instant::now();
            }
        }
        samples.end_chunk();
        if index + 1 == RSS_CHUNKS && !r.metrics.iter().any(|m| m.name == "peak_rss_mb") {
            r.metric("peak_rss_mb", crate::host::peak_rss_mb(), "MB");
        }
        if start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    samples
}

/// Stable names of the budget dimensions.
fn dim_name(d: BudgetDim) -> &'static str {
    match d {
        BudgetDim::WallClock => "wall_clock",
        BudgetDim::Fuel => "fuel",
        BudgetDim::SolverQueries => "solver_queries",
        BudgetDim::Forks => "forks",
        BudgetDim::States => "states",
    }
}

/// The budget dimension a verdict stopped on, if it was a budget stop.
pub fn budget_stop(reject: Option<&RejectReason>) -> Option<&'static str> {
    match reject {
        Some(RejectReason::Timeout) => Some("wall_clock"),
        Some(RejectReason::StateBudget { dimension, .. }) => Some(dim_name(*dimension)),
        _ => None,
    }
}

/// Sums of the lifter's counters over the lifts of a traced run.
#[derive(Debug, Default)]
pub struct CoreTally {
    lifts: u64,
    lift_ns: u64,
    phase_ns: [u64; 5],
    rounds: u64,
    states: u64,
    instructions: u64,
    fns_lifted: u64,
    fns_rejected: u64,
    decode_rejects: u64,
    budget_stops: BTreeMap<&'static str, u64>,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl CoreTally {
    /// Fold in one lift: its session snapshot, its result and the
    /// duration of the span around the lift call. `cache_before` holds
    /// the solver cache's counters when the lift started (all zero for
    /// a fresh cache); a shared cache's snapshot is cumulative, so only
    /// the difference belongs to this lift.
    pub fn add(
        &mut self,
        snap: &MetricsSnapshot,
        result: &LiftResult,
        lift_ns: u64,
        cache_before: &CacheStats,
    ) {
        self.lifts += 1;
        self.lift_ns += lift_ns;
        for (i, p) in Phase::ALL.iter().enumerate() {
            let nanos = snap.phase(*p).nanos;
            // The solver phase folds in the cache's cumulative query time.
            let earlier = if *p == Phase::Solver {
                cache_before.query_nanos.min(nanos)
            } else {
                0
            };
            self.phase_ns[i] += nanos - earlier;
        }
        self.rounds += snap.rounds;
        self.states += result.state_count() as u64;
        self.instructions += result.instruction_count() as u64;
        let lifted = result.functions.values().filter(|f| f.is_lifted()).count() as u64;
        self.fns_lifted += lifted;
        self.fns_rejected += result.functions.len() as u64 - lifted;
        self.decode_rejects += snap.decode_rejects.values().sum::<u64>();
        if let Some(d) = budget_stop(result.reject_reason().as_ref()) {
            *self.budget_stops.entry(d).or_default() += 1;
        }
        self.hits += snap.cache.hits - cache_before.hits.min(snap.cache.hits);
        self.misses += snap.cache.misses - cache_before.misses.min(snap.cache.misses);
        self.evictions += snap.cache.evictions - cache_before.evictions.min(snap.cache.evictions);
    }

    /// Emit the `core.*` and `solver.*` metrics, per lift.
    pub fn emit(&self, r: &mut Report) {
        let per = |x: u64| x as f64 / self.lifts.max(1) as f64;
        let ph = |p: Phase| self.phase_ns[Phase::ALL.iter().position(|q| *q == p).expect("phase")];
        r.metric("core.lift_ns", per(self.lift_ns), "ns/op");
        r.metric("core.decode_ns", per(ph(Phase::Decode)), "ns/op");
        r.metric("core.tau_ns", per(ph(Phase::Tau)), "ns/op");
        r.metric("core.join_ns", per(ph(Phase::Join)), "ns/op");
        // Nested inside core.tau_ns (the lifter clocks solver work
        // during tau), so it is not subtracted again below.
        r.metric("core.solver_ns", per(ph(Phase::Solver)), "ns/op");
        r.note("core.export_ns", per(ph(Phase::Export)), "ns/op");
        let attributed = ph(Phase::Decode) + ph(Phase::Tau) + ph(Phase::Join) + ph(Phase::Export);
        r.metric(
            "core.unattributed_ns",
            per(self.lift_ns) - per(attributed),
            "ns/op",
        );
        r.notes.push("note core.solver_ns is nested in core.tau_ns; core.unattributed_ns = core.lift_ns - (decode + tau + join + export)".to_string());
        r.metric("core.rounds", per(self.rounds), "count/op");
        r.metric("core.states", per(self.states), "count/op");
        r.metric("core.instructions", per(self.instructions), "count/op");
        r.metric("core.fns_lifted", per(self.fns_lifted), "count/op");
        r.metric("core.fns_rejected", per(self.fns_rejected), "count/op");
        r.metric("core.decode_rejects", per(self.decode_rejects), "count/op");
        let stops: u64 = self.budget_stops.values().sum();
        r.metric("core.budget_stops", per(stops), "count/op");
        for d in [
            BudgetDim::WallClock,
            BudgetDim::Fuel,
            BudgetDim::SolverQueries,
            BudgetDim::Forks,
            BudgetDim::States,
        ] {
            let n = self.budget_stops.get(dim_name(d)).copied().unwrap_or(0);
            r.note(
                &format!("core.budget_stops.{}", dim_name(d)),
                n as f64,
                "count",
            );
        }
        r.metric("solver.hits", per(self.hits), "count/op");
        r.metric("solver.misses", per(self.misses), "count/op");
        let lookups = self.hits + self.misses;
        r.metric(
            "solver.hit_rate",
            if lookups == 0 {
                0.0
            } else {
                self.hits as f64 / lookups as f64
            },
            "ratio",
        );
        r.metric("solver.evictions", per(self.evictions), "count/op");
    }
}

/// Emit `trace.overhead_pct`: traced scaled time per operation against
/// the untraced loop of the same run.
pub fn overhead(r: &mut Report, untraced: &Samples, traced: &Samples) {
    r.metric(
        "trace.overhead_pct",
        (traced.scaled_mean_ms() / untraced.scaled_mean_ms() - 1.0) * 100.0,
        "%",
    );
}

/// `elf.parse_ns` and `elf.image_bytes` from the parse spans and the
/// image sizes they consumed.
pub fn elf_metrics(r: &mut Report, parse_ns: u64, image_bytes: u64, parses: u64) {
    let per = |x: u64| x as f64 / parses.max(1) as f64;
    r.metric("elf.parse_ns", per(parse_ns), "ns/op");
    r.metric("elf.image_bytes", per(image_bytes), "B/op");
}

/// Write the run's spans to `<out_dir>/spans-<workload>-<seed>.jsonl`
/// and print each span name's mean duration and self time.
pub fn emit_self_times(
    r: &mut Report,
    tracer: &Tracer,
    out_dir: &std::path::Path,
    workload: &str,
    seed: u64,
) {
    let path = out_dir.join(format!("spans-{workload}-{seed}.jsonl"));
    match tracer.write_jsonl(&path) {
        Ok(()) => r.notes.push(format!(
            "spans {} written to {}",
            tracer.spans().len(),
            path.display()
        )),
        Err(e) => r
            .notes
            .push(format!("spans not written to {}: {e}", path.display())),
    }
    for (name, t) in crate::trace::self_times(tracer.spans()) {
        let n = t.count.max(1) as f64;
        r.notes.push(format!(
            "span {name} count {} mean_ns {:.0} self_ns {:.0}",
            t.count,
            t.total_ns as f64 / n,
            t.self_ns as f64 / n
        ));
    }
}
