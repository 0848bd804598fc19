//! Rewriting benchmark driver: identity-recompilation throughput,
//! shadow-stack instrumentation cost, and the price of per-artifact
//! verification (re-lift correspondence + differential traces).
//!
//! Like `bench-engine` and `bench-serve`, this is a plain binary so CI
//! can run it in seconds and archive the result:
//!
//! ```text
//! cargo run --release -p hgl-bench --bin bench-rewrite -- \
//!     [--quick] [--out BENCH_rewrite.json] [--check]
//! ```
//!
//! Three phases:
//!
//! 1. **identity** — lift a study corpus once, then re-encode every
//!    lifted instruction and re-emit (minimum-of-reps wall time).
//!    Every artifact must come back with `bytes_delta == 0`.
//! 2. **guarded** — the same corpus plus the corrupted-return fixture
//!    through the shadow-stack pass; counts guards actually inserted.
//! 3. **verify** — what `--verify` costs: per-artifact re-lift
//!    correspondence over the identity corpus, then a seeded
//!    differential campaign (identity and guarded modes) from the
//!    trace oracle.
//!
//! `--check` gates: identity rewriting succeeds with zero byte delta
//! on every corpus binary, every identity artifact re-lifts to an
//! equivalent graph, the guarded fixture gets at least one guard, and
//! both differential campaigns finish with zero divergences.

#![forbid(unsafe_code)]

use hgl_core::Lifter;
use hgl_corpus::failures::corrupted_return;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_export::envelope::document;
use hgl_oracle::{run_differential, DiffConfig, DiffReport};
use hgl_rewrite::{elf_image, rewrite, verify_relift, RewritePass, ShadowStackPass};
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

/// One lifted corpus binary, ready to be rewritten repeatedly.
struct Prepared {
    binary: Binary,
    lift: hgl_core::LiftResult,
}

fn prepare_corpus(quick: bool) -> Vec<Prepared> {
    let n = if quick { 4 } else { 8 };
    (0..n)
        .map(|i| {
            let binary = gen_study_binary(0x9e37_79b9_7f4a_7c15 ^ i, i % 3 == 2);
            let lift = Lifter::new(&binary).lift_all().result;
            assert!(lift.is_lifted(), "study binary {i} must lift");
            Prepared { binary, lift }
        })
        .collect()
}

struct IdentityResult {
    binaries: usize,
    functions: u64,
    instructions: u64,
    min_wall: Duration,
    nonzero_delta: usize,
    refused: usize,
}

/// Phase 1: identity rewrite of every corpus binary, min-of-reps.
fn identity_phase(corpus: &[Prepared], reps: usize) -> IdentityResult {
    let mut min_wall = Duration::MAX;
    let mut functions = 0;
    let mut instructions = 0;
    let mut nonzero_delta = 0;
    let mut refused = 0;
    for rep in 0..reps {
        let t0 = Instant::now();
        let mut fns = 0;
        let mut instrs = 0;
        let mut bad_delta = 0;
        let mut fail = 0;
        for p in corpus {
            match rewrite(&p.binary, &p.lift, &[]) {
                Ok(out) => {
                    fns += out.stats.functions;
                    instrs += out.stats.instructions_reencoded;
                    if out.stats.bytes_delta != 0 {
                        bad_delta += 1;
                    }
                    // Serialisation is part of the pipeline being
                    // priced, not just the re-encode walk.
                    std::hint::black_box(elf_image(&out.binary));
                }
                Err(_) => fail += 1,
            }
        }
        min_wall = min_wall.min(t0.elapsed());
        if rep == 0 {
            functions = fns;
            instructions = instrs;
            nonzero_delta = bad_delta;
            refused = fail;
        }
    }
    IdentityResult {
        binaries: corpus.len(),
        functions,
        instructions,
        min_wall,
        nonzero_delta,
        refused,
    }
}

struct GuardedResult {
    binaries: usize,
    guards: u64,
    fixture_guards: u64,
    min_wall: Duration,
    refused: usize,
}

/// Phase 2: shadow-stack instrumentation over corpus + fixture.
fn guarded_phase(corpus: &[Prepared], reps: usize) -> GuardedResult {
    let fixture_bin = corrupted_return();
    let fixture_lift = Lifter::new(&fixture_bin).lift_all().result;
    assert!(fixture_lift.is_lifted(), "corrupted-return fixture must lift");
    let pass = ShadowStackPass;
    let passes: [&dyn RewritePass; 1] = [&pass];

    let mut min_wall = Duration::MAX;
    let mut guards = 0;
    let mut fixture_guards = 0;
    let mut refused = 0;
    for rep in 0..reps {
        let t0 = Instant::now();
        let mut g = 0;
        let mut fail = 0;
        for p in corpus {
            match rewrite(&p.binary, &p.lift, &passes) {
                Ok(out) => g += out.stats.guards_inserted,
                Err(_) => fail += 1,
            }
        }
        let fg = match rewrite(&fixture_bin, &fixture_lift, &passes) {
            Ok(out) => {
                g += out.stats.guards_inserted;
                out.stats.guards_inserted
            }
            Err(_) => {
                fail += 1;
                0
            }
        };
        min_wall = min_wall.min(t0.elapsed());
        if rep == 0 {
            guards = g;
            fixture_guards = fg;
            refused = fail;
        }
    }
    GuardedResult { binaries: corpus.len() + 1, guards, fixture_guards, min_wall, refused }
}

struct VerifyResult {
    relift_wall: Duration,
    relifts_ok: usize,
    relifts: usize,
    identity: DiffReport,
    identity_wall: Duration,
    guarded: DiffReport,
    guarded_wall: Duration,
}

/// Phase 3: what `--verify` costs — re-lift correspondence on every
/// identity artifact, then both differential campaign modes.
fn verify_phase(corpus: &[Prepared], quick: bool) -> VerifyResult {
    let t0 = Instant::now();
    let mut relifts_ok = 0;
    for p in corpus {
        let out = rewrite(&p.binary, &p.lift, &[]).expect("identity rewrite");
        let reparsed = Binary::parse(&elf_image(&out.binary)).expect("emitted ELF parses");
        if verify_relift(&p.lift, &reparsed).ok() {
            relifts_ok += 1;
        }
    }
    let relift_wall = t0.elapsed();

    let campaign = DiffConfig {
        programs: if quick { 10 } else { 30 },
        entries_per_program: if quick { 2 } else { 4 },
        ..DiffConfig::default()
    };
    let t1 = Instant::now();
    let identity = run_differential(&DiffConfig { relift_each: true, ..campaign });
    let identity_wall = t1.elapsed();
    let t2 = Instant::now();
    let guarded = run_differential(&DiffConfig { guarded: true, ..campaign });
    let guarded_wall = t2.elapsed();

    VerifyResult {
        relift_wall,
        relifts_ok,
        relifts: corpus.len(),
        identity,
        identity_wall,
        guarded,
        guarded_wall,
    }
}

fn per_second(count: u64, wall: Duration) -> f64 {
    count as f64 / wall.as_secs_f64().max(1e-9)
}

fn main() -> ExitCode {
    let cfg = parse_args();
    let reps = if cfg.quick { 2 } else { 5 };

    eprintln!("bench-rewrite: lifting corpus...");
    let corpus = prepare_corpus(cfg.quick);

    eprintln!("bench-rewrite: identity phase ({reps} reps)...");
    let id = identity_phase(&corpus, reps);
    eprintln!(
        "identity: {} binaries, {} fn, {} instr in {:?} min-of-{reps} ({:.0} instr/s)",
        id.binaries,
        id.functions,
        id.instructions,
        id.min_wall,
        per_second(id.instructions, id.min_wall)
    );

    eprintln!("bench-rewrite: guarded phase ({reps} reps)...");
    let gd = guarded_phase(&corpus, reps);
    eprintln!(
        "guarded: {} binaries, {} guard(s) ({} on the fixture) in {:?} min-of-{reps}",
        gd.binaries, gd.guards, gd.fixture_guards, gd.min_wall
    );

    eprintln!("bench-rewrite: verify phase...");
    let vf = verify_phase(&corpus, cfg.quick);
    eprintln!(
        "verify: {}/{} re-lifts correspond in {:?}; identity campaign {} traces in {:?}; guarded campaign {} traces ({} guards) in {:?}",
        vf.relifts_ok,
        vf.relifts,
        vf.relift_wall,
        vf.identity.traces_run,
        vf.identity_wall,
        vf.guarded.traces_run,
        vf.guarded.guards_inserted,
        vf.guarded_wall
    );

    let divergences = usize::from(vf.identity.divergence.is_some())
        + usize::from(vf.guarded.divergence.is_some());

    let doc = document("hgl-bench-rewrite", |w| {
        w.key("quick").raw(cfg.quick).key("reps").raw(reps).key("corpus_binaries").raw(id.binaries);
        w.key("identity_functions").raw(id.functions);
        w.key("identity_instructions").raw(id.instructions);
        w.key("identity_min_ns").raw(id.min_wall.as_nanos());
        let per_s = per_second(id.instructions, id.min_wall);
        w.key("identity_instructions_per_s").raw(format_args!("{per_s:.0}"));
        w.key("identity_nonzero_delta").raw(id.nonzero_delta);
        w.key("identity_refused").raw(id.refused).key("guarded_binaries").raw(gd.binaries);
        w.key("guarded_min_ns").raw(gd.min_wall.as_nanos()).key("guards_inserted").raw(gd.guards);
        w.key("fixture_guards").raw(gd.fixture_guards).key("guarded_refused").raw(gd.refused);
        w.key("verify_relift_ns").raw(vf.relift_wall.as_nanos());
        w.key("verify_relifts_ok").raw(vf.relifts_ok);
        w.key("campaign_identity_traces").raw(vf.identity.traces_run);
        w.key("campaign_identity_ns").raw(vf.identity_wall.as_nanos());
        w.key("campaign_identity_relifts_ok").raw(vf.identity.relifts_ok);
        w.key("campaign_guarded_traces").raw(vf.guarded.traces_run);
        w.key("campaign_guarded_ns").raw(vf.guarded_wall.as_nanos());
        w.key("campaign_guards").raw(vf.guarded.guards_inserted);
        w.key("divergences").raw(divergences);
    });

    match &cfg.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &doc) {
                eprintln!("bench-rewrite: cannot write {path}: {e}");
                return ExitCode::FAILURE;
            }
            eprintln!("bench-rewrite: wrote {path}");
        }
        None => print!("{doc}"),
    }

    if cfg.check {
        if id.refused > 0 || id.nonzero_delta > 0 {
            eprintln!(
                "bench-rewrite: GATE FAILED — identity rewrite refused on {} and drifted on {} binary(ies)",
                id.refused, id.nonzero_delta
            );
            return ExitCode::FAILURE;
        }
        if vf.relifts_ok != vf.relifts {
            eprintln!(
                "bench-rewrite: GATE FAILED — {}/{} identity artifacts re-lift to an equivalent graph",
                vf.relifts_ok, vf.relifts
            );
            return ExitCode::FAILURE;
        }
        if gd.fixture_guards == 0 {
            eprintln!("bench-rewrite: GATE FAILED — corrupted-return fixture got no guard");
            return ExitCode::FAILURE;
        }
        if let Some(d) = &vf.identity.divergence {
            eprintln!("bench-rewrite: GATE FAILED — identity campaign diverged:\n{d}");
            return ExitCode::FAILURE;
        }
        if let Some(d) = &vf.guarded.divergence {
            eprintln!("bench-rewrite: GATE FAILED — guarded campaign diverged:\n{d}");
            return ExitCode::FAILURE;
        }
        if vf.identity.relifts_ok != vf.identity.programs_run {
            eprintln!(
                "bench-rewrite: GATE FAILED — campaign re-lift correspondence {}/{}",
                vf.identity.relifts_ok, vf.identity.programs_run
            );
            return ExitCode::FAILURE;
        }
        eprintln!(
            "bench-rewrite: gates passed ({:.0} instr/s identity, {} guard(s), zero divergences)",
            per_second(id.instructions, id.min_wall),
            gd.guards
        );
    }
    ExitCode::SUCCESS
}
