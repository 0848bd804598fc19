//! `table1-cold`: the Table-1 study unit by unit, as the CLI runs it.
//!
//! Each unit goes image bytes → `Binary::parse` → a fresh `Lifter`
//! (no shared cache, no store) with the study configuration →
//! `export_json`. Every chunk is a whole study (292 units) built from
//! its own seed. The reference is the outcome the generator built the
//! unit to have.

use crate::report::{chunk_seed, elf_metrics, measure, overhead, CoreTally, Report, Workload};
use crate::trace::Tracer;
use crate::RunCfg;
use hgl_core::lift::RejectReason;
use hgl_core::{LiftConfig, Lifter};
use hgl_corpus::xen::{build_study, study_config};
use hgl_corpus::{ExpectedOutcome, StudySpec};
use hgl_elf::Binary;
use hgl_export::export_json;
use hgl_solver::CacheStats;
use std::time::Instant;

struct Unit {
    name: String,
    image: Vec<u8>,
    entry: u64,
    expected: ExpectedOutcome,
}

/// The verdict class of a lift, decided here rather than by the
/// corpus crate's own tally.
fn class_of(reject: Option<&RejectReason>) -> ExpectedOutcome {
    match reject {
        None => ExpectedOutcome::Lifted,
        Some(RejectReason::Concurrency) => ExpectedOutcome::Concurrency,
        Some(RejectReason::Timeout | RejectReason::StateBudget { .. }) => ExpectedOutcome::Timeout,
        Some(_) => ExpectedOutcome::UnprovableReturn,
    }
}

#[derive(Default)]
struct Table1 {
    seed: u64,
    ops_done: u64,
    config: LiftConfig,
    core: CoreTally,
    parse_ns: u64,
    image_bytes: u64,
    json_ns: u64,
    json_bytes: u64,
    traced_ops: u64,
    lifted_states: u64,
    lifted_instructions: u64,
}

impl Workload for Table1 {
    type Chunk = Vec<Unit>;

    fn prepare(&mut self, index: u64) -> Vec<Unit> {
        build_study(&StudySpec::table1(), chunk_seed(self.seed, index))
            .units
            .into_iter()
            .map(|u| Unit {
                image: hgl_rewrite::elf_image(&u.binary),
                name: u.name,
                entry: u.entry,
                expected: u.expected,
            })
            .collect()
    }

    fn ops(chunk: &Vec<Unit>) -> usize {
        chunk.len()
    }

    fn op(&mut self, chunk: &Vec<Unit>, i: usize, tr: &mut Tracer) -> (f64, Option<String>) {
        let u = &chunk[i];
        let id = self.ops_done;
        self.ops_done += 1;
        let t0 = Instant::now();
        let op = tr.open("op.unit", id, None);
        let s = tr.open("elf.parse", id, Some(op));
        let parsed = Binary::parse(&u.image);
        let parse_ns = t0.elapsed().as_nanos() as u64;
        tr.close(s);
        let bin = match parsed {
            Ok(b) => b,
            Err(e) => {
                tr.close(op);
                return (
                    t0.elapsed().as_secs_f64(),
                    Some(format!("{}: image does not parse: {e}", u.name)),
                );
            }
        };
        let s = tr.open("core.lift", id, Some(op));
        let lift_start = Instant::now();
        let lifter = Lifter::new(&bin).with_config(self.config.clone());
        let result = lifter.lift_entry(u.entry);
        let lift_ns = lift_start.elapsed().as_nanos() as u64;
        tr.close(s);
        let s = tr.open("export.json", id, Some(op));
        let json_start = Instant::now();
        let json = std::hint::black_box(export_json(&result));
        let json_ns = json_start.elapsed().as_nanos() as u64;
        tr.close(s);
        tr.close(op);
        let seconds = t0.elapsed().as_secs_f64();

        let reject = result.reject_reason();
        if reject.is_none() {
            self.lifted_states += result.state_count() as u64;
            self.lifted_instructions += result.instruction_count() as u64;
        }
        if tr.enabled() {
            self.core.add(
                &lifter.metrics_snapshot(),
                &result,
                lift_ns,
                &CacheStats::default(),
            );
            self.parse_ns += parse_ns;
            self.image_bytes += u.image.len() as u64;
            self.json_ns += json_ns;
            self.json_bytes += json.len() as u64;
            self.traced_ops += 1;
        }
        let got = class_of(reject.as_ref());
        let problem = (got != u.expected).then(|| {
            format!(
                "{}: expected {:?}, lifter said {got:?} ({reject:?})",
                u.name, u.expected
            )
        });
        (seconds, problem)
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut w = Table1 {
        seed: cfg.seed,
        config: study_config(),
        ..Table1::default()
    };
    let mut r = Report::default();
    let (untraced, traced) = measure(&mut w, cfg, &mut r);
    let Some((traced, tr)) = traced else {
        r.closed_loop(&untraced, "unit verdicts");
        r.metric(
            "states_per_instr",
            w.lifted_states as f64 / w.lifted_instructions.max(1) as f64,
            "states/instr",
        );
        return r;
    };
    overhead(&mut r, &untraced, &traced);
    let per = |x: u64| x as f64 / w.traced_ops.max(1) as f64;
    w.core.emit(&mut r);
    elf_metrics(&mut r, w.parse_ns, w.image_bytes, w.traced_ops);
    r.metric("export.json_ns", per(w.json_ns), "ns/op");
    r.metric("export.json_bytes", per(w.json_bytes), "B/op");
    crate::report::emit_self_times(&mut r, &tr, &cfg.out_dir, "table1-cold", cfg.seed);
    r
}
