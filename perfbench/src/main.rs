//! The hoare-lift benchmark: four workloads over the user paths (`hgl
//! lift` on a corpus, incremental `hgl lift --all --store`, the daemon
//! under an open-loop load, `hgl rewrite --verify`), each checked
//! against a reference the lifter did not produce.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1-cold|store-incremental|serve-open|rewrite-verify|all> \
//!     --seed N --seconds S --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. Lines before it
//! echo the seed, the host fingerprint, every metric with its unit and
//! the tail percentile used. `--workload all` prints one row per
//! workload instead. The exit code is 1 when a reference check failed.

mod calib;
mod host;
mod report;
mod rewrite;
mod serve;
mod stats;
mod store;
mod table1;
mod trace;

use report::Report;
use std::path::PathBuf;
use std::process::ExitCode;

/// Workload names. `store-incremental` and `serve-open` run by hand
/// only: they are not in `BENCHMARK.json` because their figures were
/// not steady enough on a shared host (see the README).
const WORKLOADS: [&str; 4] = [
    "table1-cold",
    "store-incremental",
    "serve-open",
    "rewrite-verify",
];

/// End-to-end metrics every workload reports with `--trace 0`, with
/// their units.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("tail_ms", "ms"),
    ("states_per_instr", "states/instr"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics every workload reports with `--trace 1`, with
/// their units. A layer a workload bypasses reports 0 for its counts;
/// only times measured on every workload are listed here, the others
/// (and the `store.*` and `serve.*` figures of the workloads run by
/// hand) are printed lines of the workloads that measure them.
const PER_LAYER: [(&str, &str); 27] = [
    ("elf.parse_ns", "ns/op"),
    ("elf.image_bytes", "B/op"),
    ("core.lift_ns", "ns/op"),
    ("core.decode_ns", "ns/op"),
    ("core.tau_ns", "ns/op"),
    ("core.join_ns", "ns/op"),
    ("core.solver_ns", "ns/op"),
    ("core.unattributed_ns", "ns/op"),
    ("core.rounds", "count/op"),
    ("core.states", "count/op"),
    ("core.instructions", "count/op"),
    ("core.fns_lifted", "count/op"),
    ("core.fns_rejected", "count/op"),
    ("core.decode_rejects", "count/op"),
    ("core.budget_stops", "count/op"),
    ("solver.hits", "count/op"),
    ("solver.misses", "count/op"),
    ("solver.hit_rate", "ratio"),
    ("solver.evictions", "count/op"),
    ("export.json_bytes", "B/op"),
    ("rewrite.instructions", "count/op"),
    ("rewrite.guards", "count/op"),
    ("rewrite.refused", "count/op"),
    ("rewrite.bytes_delta", "B/op"),
    ("oracle.traces", "count/op"),
    ("oracle.divergences", "count/op"),
    ("trace.overhead_pct", "%"),
];

/// One run's parameters.
pub struct RunCfg {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
    /// Scratch directory inside the checkout (stores, span files).
    pub out_dir: PathBuf,
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}|all> --seed N --seconds S --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn run_workload(name: &str, cfg: &RunCfg) -> Report {
    match name {
        "table1-cold" => table1::run(cfg),
        "store-incremental" => store::run(cfg),
        "serve-open" => serve::run(cfg),
        "rewrite-verify" => rewrite::run(cfg),
        _ => unreachable!("workload names are checked before dispatch"),
    }
}

/// JSON number: finite values as measured, anything else as 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// A finished run: the result-line metrics and whether every check
/// passed.
struct Row {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Row {
    fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The result line.
    fn json(&self) -> String {
        let fields: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            fields.join(", ")
        )
    }
}

/// Print the lines of one run and pick its result-line metrics.
fn render(name: &str, cfg: &RunCfg, mut r: Report) -> Row {
    if !r.metrics.iter().any(|m| m.name == "peak_rss_mb") {
        r.metric("peak_rss_mb", host::peak_rss_mb(), "MB");
    }
    let wanted: &[(&str, &str)] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    println!(
        "workload {name} seed {} seconds {} trace {}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    println!("host {}", host::fingerprint());
    let mut metrics = Vec::new();
    for &(w, unit) in wanted {
        let value = match r.metrics.iter().find(|m| m.name == w) {
            Some(m) => {
                assert_eq!(m.unit, unit, "unit of {w}");
                println!("{w} {} {unit}", m.value);
                m.value
            }
            None => {
                println!("{w} 0 {unit} (layer bypassed by {name})");
                0.0
            }
        };
        metrics.push((w, value, unit));
    }
    for m in r
        .metrics
        .iter()
        .filter(|m| !wanted.iter().any(|(w, _)| *w == m.name))
    {
        if cfg.trace || m.name == "peak_rss_mb" {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    }
    for n in &r.notes {
        println!("{n}");
    }
    for p in &r.problems {
        println!("FAILED {p}");
    }
    println!(
        "checks {name}: {} of {} operations failed (fail_share {})",
        r.failed,
        r.attempted,
        r.failed as f64 / r.attempted.max(1) as f64
    );
    Row {
        attempted: r.attempted,
        failed: r.failed,
        metrics,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let Some(workload) = flag("--workload") else {
        return usage("--workload is required");
    };
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    let Some(seed) = flag("--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage("--seed needs a whole number");
    };
    let seconds = match flag("--seconds").map(|s| s.parse::<f64>()) {
        None => 10.0,
        Some(Ok(s)) if s > 0.0 => s,
        Some(_) => return usage("--seconds needs a positive number"),
    };
    let trace = match flag("--trace").as_deref() {
        None | Some("0") => false,
        Some("1") => true,
        Some(_) => return usage("--trace is 0 or 1"),
    };
    let out_dir = PathBuf::from(".perfbench_out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let cfg = RunCfg {
        seed,
        seconds,
        trace,
        out_dir,
    };

    let names: Vec<&str> = if workload == "all" {
        WORKLOADS.to_vec()
    } else {
        vec![workload.as_str()]
    };
    let rows: Vec<(&str, Row)> = names
        .iter()
        .map(|n| (*n, render(n, &cfg, run_workload(n, &cfg))))
        .collect();
    if workload == "all" {
        // One row per workload: every metric by name, with its unit.
        println!();
        for (name, row) in &rows {
            let cells: Vec<String> = row
                .metrics
                .iter()
                .map(|(m, v, u)| format!("{m}={v:.4} {u}"))
                .collect();
            println!(
                "{name:<18} fail_share={}/{}  {}",
                row.failed,
                row.attempted,
                cells.join("  ")
            );
        }
    } else {
        println!("{}", rows[0].1.json());
    }
    if rows.iter().all(|(_, row)| row.correct()) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
