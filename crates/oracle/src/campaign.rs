//! Differential campaigns: synthesize programs, lift them, and replay
//! many seeded traces per program against the Hoare Graph.
//!
//! Everything is derived deterministically from one master seed, so a
//! failure is replayable from a single printed line: the master seed,
//! the program index and the entry-state index reconstruct the exact
//! program, lift and trace.

use crate::coverage::{Coverage, CoverageFloor};
use crate::shrink::{shrink, ShrinkResult};
use crate::trace::{EntryState, TraceOracle, Violation, ViolationKind};
use hgl_asm::Asm;
use hgl_core::lift::{LiftConfig, RejectReason};
use hgl_core::Lifter;
use hgl_core::{Budget, BudgetMeter};
use hgl_corpus::{GenOptions, ProgramGen};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::fmt;

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Master seed: every program and entry state derives from it.
    pub master_seed: u64,
    /// Number of programs to synthesize.
    pub programs: usize,
    /// Seeded entry states per program.
    pub entries_per_program: usize,
    /// Per-trace step budget.
    pub max_steps: usize,
    /// Wall-clock safety net for the whole campaign.
    pub budget: Budget,
    /// Test-only: lift with the jcc fall-through edge dropped, to
    /// prove the oracle catches an unsound lifter.
    pub inject_drop_jcc_fallthrough: bool,
    /// Cross-validate static write classifications against concrete
    /// writes on every trace.
    pub check_write_classes: bool,
    /// Run the analyze→re-lift indirect-jump refinement before
    /// tracing, and cross-validate every refinement claim: a concrete
    /// indirect jump at a claimed address must land inside the claimed
    /// target set.
    pub refine_indirect: bool,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            master_seed: 0x0e11_ab1e_5eed,
            programs: 50,
            entries_per_program: 4,
            max_steps: 20_000,
            budget: Budget::unlimited(),
            inject_drop_jcc_fallthrough: false,
            check_write_classes: true,
            refine_indirect: false,
        }
    }
}

/// A synthesized campaign program.
pub struct SynthProgram {
    /// The assembly program (shrinking rebuilds candidates from it).
    pub asm: Asm,
    /// Generator segment spans, for span-level shrinking.
    pub spans: Vec<(usize, usize)>,
    /// The options the entry function was generated with.
    pub opts: GenOptions,
}

/// splitmix64 — deterministic seed derivation without `rand`.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The generation profile for program `index` (rotates through four
/// shapes so every campaign exercises all edge kinds).
fn profile(index: usize) -> GenOptions {
    let base = GenOptions {
        segments: 3,
        callees: Vec::new(),
        externals: vec!["puts".into(), "malloc".into(), "free".into(), "memcpy".into()],
        p_jump_table: 0.1,
        p_masked_table: 0.0,
        p_callback: 0.0,
        p_wild_jump: 0.0,
        p_param_write: 0.1,
    };
    match index % 4 {
        // Plain straight-line/branchy code.
        0 => base,
        // Jump-table heavy, with masked (cmp-less) tables the inline
        // lift cannot resolve — the refinement campaign's raw material.
        1 => GenOptions { p_jump_table: 0.35, p_masked_table: 0.15, ..base },
        // Callback (annotated indirect call) heavy.
        2 => GenOptions { p_callback: 0.4, p_jump_table: 0.05, ..base },
        // Mixed, slightly larger.
        _ => GenOptions {
            segments: 4,
            p_jump_table: 0.15,
            p_callback: 0.05,
            p_wild_jump: 0.05,
            ..base
        },
    }
}

/// Deterministically synthesize campaign program `index`.
pub fn synth_program(master_seed: u64, index: usize) -> SynthProgram {
    let mut rng = SmallRng::seed_from_u64(mix(master_seed ^ (index as u64).wrapping_mul(0x51_7cc1_b727_2205)));
    let mut pg = ProgramGen::new();
    let helper_opts = profile(index);
    let helpers = 1 + index % 2;
    let mut callees = Vec::new();
    for h in 0..helpers {
        let name = format!("helper_{h}");
        pg.gen_function(&name, &mut rng, &helper_opts);
        callees.push(name);
    }
    let opts = GenOptions { callees, ..profile(index) };
    pg.gen_function("main", &mut rng, &opts);
    pg.asm.entry("main");
    SynthProgram { asm: pg.asm, spans: pg.segment_spans, opts }
}

/// Deterministically derive entry state `entry` of program `program`.
///
/// `rdi` doubles as the jump-table selector: the first three entries
/// use small indices (hitting table cases), later ones use large
/// values (hitting the bounds-checked default).
pub fn entry_state(master_seed: u64, program: usize, entry: usize) -> EntryState {
    let mut rng = SmallRng::seed_from_u64(mix(
        master_seed ^ mix(program as u64) ^ (entry as u64).wrapping_mul(0xd6e8_feb8_6659_fd93),
    ));
    let rdi = if entry < 3 { entry as u64 } else { 64 + rng.gen_range(0..0x1000u64) };
    let scratch = [
        rng.gen::<u64>() & 0xffff,
        rng.gen::<u64>() & 0xffff,
        rng.gen::<u64>() & 0xffff,
        rng.gen::<u64>(),
        rng.gen::<u64>() & 0xff,
        rng.gen::<u64>() & 0xff,
    ];
    EntryState { rdi, scratch }
}

/// The short head of a reject reason, for coverage accounting.
fn reject_head(r: &RejectReason) -> String {
    let s = format!("{r:?}");
    s.split(['(', ' ', '{'])
        .next()
        .unwrap_or("unknown")
        .to_string()
}

/// Does `candidate` still exhibit a violation of `kind` on entry state
/// `es`? The shrinker's reproduction predicate for conformance
/// failures.
fn reproduces(
    candidate: &Asm,
    cfg: &LiftConfig,
    es: &EntryState,
    max_steps: usize,
    kind: &ViolationKind,
) -> bool {
    let Ok(bin) = candidate.assemble() else { return false };
    let lifted = Lifter::new(&bin).with_config(cfg.clone()).lift_entry(bin.entry);
    if lifted.binary_reject.is_some() {
        return false;
    }
    let mut oracle = TraceOracle::new(&bin, &lifted);
    oracle.max_steps = max_steps;
    let mut cov = Coverage::default();
    let outcome = oracle.check_trace(es, &mut cov);
    outcome.violation.map(|v| v.kind == *kind).unwrap_or(false)
}

/// A campaign failure: everything needed to reproduce and report it.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The master seed the campaign ran with.
    pub master_seed: u64,
    /// Failing program index.
    pub program: usize,
    /// Failing entry-state index.
    pub entry: usize,
    /// The options the failing program was generated with.
    pub opts: GenOptions,
    /// The conformance violation.
    pub violation: Violation,
    /// The minimal reproducer, if shrinking succeeded.
    pub shrunk: Option<ShrinkResult>,
}

impl fmt::Display for CampaignFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.violation)?;
        writeln!(
            f,
            "replay: master_seed={:#x} program={} entry={}",
            self.master_seed, self.program, self.entry
        )?;
        writeln!(f, "gen-options: {:?}", self.opts)?;
        match &self.shrunk {
            Some(s) => {
                writeln!(f, "shrunk to {} instructions:", s.instructions)?;
                write!(f, "{}", s.listing)
            }
            None => writeln!(f, "(not shrunk)"),
        }
    }
}

/// What a campaign did and found.
pub struct CampaignReport {
    /// Programs synthesized and traced.
    pub programs_run: usize,
    /// Programs skipped because the lifter rejected part of them.
    pub programs_skipped: usize,
    /// Traces replayed.
    pub traces_run: usize,
    /// Total steps checked across all traces.
    pub steps_total: usize,
    /// Concrete writes checked against static write-class claims.
    pub writes_checked: usize,
    /// Concrete indirect jumps checked against refinement claims.
    pub indirect_checked: usize,
    /// Indirect jumps the refinement resolved across all lifted
    /// programs (the Table-1 column A contribution of refinement).
    pub indirections_resolved: usize,
    /// What the campaign exercised.
    pub coverage: Coverage,
    /// The first failure, shrunk — `None` means full conformance.
    pub failure: Option<CampaignFailure>,
    /// Floor entries the campaign missed (empty = floor holds).
    pub floor_missing: Vec<String>,
    /// The campaign hit its wall-clock budget and stopped early.
    pub budget_exhausted: bool,
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "campaign: {} programs ({} skipped), {} traces, {} steps, {} writes checked, \
             {} indirect jumps checked ({} resolved statically){}",
            self.programs_run,
            self.programs_skipped,
            self.traces_run,
            self.steps_total,
            self.writes_checked,
            self.indirect_checked,
            self.indirections_resolved,
            if self.budget_exhausted { " [budget exhausted]" } else { "" }
        )?;
        writeln!(f, "{}", self.coverage)?;
        for m in &self.floor_missing {
            writeln!(f, "coverage floor MISSED: {m}")?;
        }
        if let Some(fail) = &self.failure {
            writeln!(f, "FAILURE:\n{fail}")?;
        }
        Ok(())
    }
}

/// Run a full campaign. Stops at the first conformance violation
/// (which is then shrunk) or when the budget runs out.
pub fn run_campaign(cfg: &CampaignConfig) -> CampaignReport {
    let mut lift_cfg = LiftConfig::default();
    lift_cfg.limits.inject_drop_jcc_fallthrough = cfg.inject_drop_jcc_fallthrough;

    let meter = BudgetMeter::start(&cfg.budget);
    let mut coverage = Coverage::default();
    let mut report = CampaignReport {
        programs_run: 0,
        programs_skipped: 0,
        traces_run: 0,
        steps_total: 0,
        writes_checked: 0,
        indirect_checked: 0,
        indirections_resolved: 0,
        coverage: Coverage::default(),
        failure: None,
        floor_missing: Vec::new(),
        budget_exhausted: false,
    };

    'programs: for p in 0..cfg.programs {
        if meter.check_global().is_some() {
            report.budget_exhausted = true;
            break;
        }
        let prog = synth_program(cfg.master_seed, p);
        let bin = match prog.asm.assemble() {
            Ok(b) => b,
            Err(e) => {
                // Generator bug, not a lifter bug — count and move on.
                coverage.record_reject(format!("assemble:{e}"));
                report.programs_skipped += 1;
                continue;
            }
        };
        let mut lifter = Lifter::new(&bin).with_config(lift_cfg.clone());
        let (lifted, claims) = if cfg.refine_indirect {
            let refined =
                lifter.lift_entry_refined(bin.entry, &hgl_analysis::VsaResolver::default(), 8);
            (refined.result, refined.hints)
        } else {
            (lifter.lift_entry(bin.entry), Default::default())
        };
        if let Some(r) = &lifted.binary_reject {
            coverage.record_reject(reject_head(r));
            report.programs_skipped += 1;
            continue;
        }
        let mut any_reject = false;
        for f in lifted.functions.values() {
            if let Some(r) = &f.reject {
                coverage.record_reject(reject_head(r));
                any_reject = true;
            }
        }
        if any_reject {
            // A partially rejected program would produce spurious
            // bounded-control-flow reports when a trace calls into the
            // rejected function; the reject taxonomy is accounted, the
            // traces are not run.
            report.programs_skipped += 1;
            continue;
        }
        report.programs_run += 1;
        report.indirections_resolved += lifted.indirection_counts().0;

        let mut oracle = TraceOracle::new(&bin, &lifted);
        if cfg.check_write_classes {
            oracle = oracle.with_write_classes();
        }
        if cfg.refine_indirect {
            oracle = oracle.with_indirect_claims(claims);
        }
        oracle.max_steps = cfg.max_steps;
        for k in 0..cfg.entries_per_program {
            if meter.check_global().is_some() {
                report.budget_exhausted = true;
                break 'programs;
            }
            let es = entry_state(cfg.master_seed, p, k);
            let outcome = oracle.check_trace(&es, &mut coverage);
            report.traces_run += 1;
            report.steps_total += outcome.steps;
            report.writes_checked += outcome.writes_checked;
            report.indirect_checked += outcome.indirect_checked;
            if let Some(v) = outcome.violation {
                let shrunk = shrink(&prog.asm, &prog.spans, |candidate| {
                    reproduces(candidate, &lift_cfg, &es, cfg.max_steps, &v.kind)
                });
                report.failure = Some(CampaignFailure {
                    master_seed: cfg.master_seed,
                    program: p,
                    entry: k,
                    opts: prog.opts.clone(),
                    violation: v,
                    shrunk: Some(shrunk),
                });
                break 'programs;
            }
        }
    }

    report.floor_missing = coverage.missing(&CoverageFloor::default());
    report.coverage = coverage;
    report
}
