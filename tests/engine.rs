//! Parallel-engine determinism: `lift_all` on N workers must produce
//! a byte-identical result to the sequential engine.
//!
//! The engine guarantees this by running bulk-synchronous rounds —
//! workers only race *within* a round, and all cross-function
//! coordination (callee discovery, pending-return activation) happens
//! sequentially in sorted order between rounds. The JSON export is a
//! full serialization of the Hoare Graphs (vertices, invariants,
//! memory models, edges, diagnostics), so byte equality of the export
//! is equality of the lift.
//!
//! `lift_entry` is the same engine seeded with one root, so it must
//! agree with `lift_all` function by function: exploration is
//! context-free (§4.2.2) and every function owns its fresh-symbol
//! counter, so a function's graph cannot depend on which roots
//! reached it.

use hoare_lift::core::{parallel_map, LiftConfig, Lifter};
use hoare_lift::corpus::xen::{build_study, gen_study_binary, study_config, StudySpec};
use hoare_lift::elf::Binary;
use hoare_lift::export::export_json;
use hoare_lift::oracle::synth_program;

#[test]
fn parallel_lift_all_matches_sequential_byte_for_byte() {
    for seed in 0..12u64 {
        let bin = gen_study_binary(seed, seed % 3 == 0);

        let seq = Lifter::new(&bin).sequential();
        let seq_report = seq.lift_all();

        let par = Lifter::new(&bin).workers(4);
        let par_report = par.lift_all();

        assert_eq!(
            seq_report.roots, par_report.roots,
            "seed {seed}: root discovery must not depend on worker count"
        );
        let seq_json = export_json(&seq_report.result);
        let par_json = export_json(&par_report.result);
        if seq_json != par_json {
            let diff_line = seq_json
                .lines()
                .zip(par_json.lines())
                .position(|(a, b)| a != b)
                .map_or(0, |i| i + 1);
            panic!(
                "seed {seed}: parallel lift_all diverged from sequential \
                 (first differing line {diff_line})"
            );
        }
    }
}

#[test]
fn repeated_parallel_runs_are_identical() {
    let bin = gen_study_binary(42, false);
    let first = export_json(&Lifter::new(&bin).workers(4).lift_all().result);
    for _ in 0..3 {
        let again = export_json(&Lifter::new(&bin).workers(4).lift_all().result);
        assert_eq!(first, again, "parallel lift_all must be run-to-run deterministic");
    }
}

#[test]
fn engine_metrics_report_phases_and_cache_traffic() {
    let bin = gen_study_binary(7, false);
    let lifter = Lifter::new(&bin).workers(2);
    let report = lifter.lift_all();
    let m = &report.metrics;

    assert!(m.functions_lifted + m.functions_rejected > 0, "engine lifted nothing");
    assert!(m.rounds > 0, "engine must report its round count");
    assert!(m.elapsed_nanos > 0);
    let tau = m.phases.iter().find(|p| p.phase.name() == "tau").expect("tau phase");
    assert!(tau.count > 0, "tau phase never ticked: {:?}", m.phases);
    assert!(
        m.cache.hits + m.cache.misses > 0,
        "solver cache saw no traffic: {:?}",
        m.cache
    );
}

/// Lifts `entry` alone and the whole binary, and checks that every
/// function of the entry's closure appears in the whole-binary lift
/// with an equal graph and verdict. Returns the number of functions
/// compared, or `None` when either lift stopped on a binary-level
/// reject.
fn entry_matches_lift_all(
    name: &str,
    bin: &Binary,
    entry: u64,
    cfg: &LiftConfig,
) -> Option<usize> {
    let one = Lifter::new(bin).with_config(cfg.clone()).lift_entry(entry);
    let all = Lifter::new(bin).with_config(cfg.clone()).lift_all().result;
    if one.binary_reject.is_some() || all.binary_reject.is_some() {
        return None;
    }
    for (addr, f) in &one.functions {
        let g = all
            .functions
            .get(addr)
            .unwrap_or_else(|| panic!("{name}: {addr:#x} lifted by lift_entry but not lift_all"));
        assert_eq!(
            format!("{:?}", f.graph),
            format!("{:?}", g.graph),
            "{name}: graph of {addr:#x} depends on the driver"
        );
        assert_eq!(f.returns, g.returns, "{name}: returns of {addr:#x}");
        assert_eq!(f.reject, g.reject, "{name}: reject of {addr:#x}");
        assert_eq!(f.annotations, g.annotations, "{name}: annotations of {addr:#x}");
    }
    Some(one.functions.len())
}

#[test]
fn lift_entry_functions_equal_lift_all() {
    let mut cases: Vec<(String, Binary, u64, LiftConfig)> = Vec::new();
    for seed in [1u64, 2] {
        for u in build_study(&StudySpec::table1(), seed).units {
            let name = format!("seed {seed} {}/{}", u.directory, u.name);
            cases.push((name, u.binary, u.entry, study_config()));
        }
    }
    for master_seed in [0x0e11_ab1e_5eed_u64, 1, 2, 3] {
        for p in 0..60 {
            let Ok(bin) = synth_program(master_seed, p).asm.assemble() else { continue };
            let entry = bin.entry;
            cases.push((format!("synth {master_seed:#x}/{p}"), bin, entry, LiftConfig::default()));
        }
    }
    let compared: usize = parallel_map(0, cases, |(name, bin, entry, cfg)| {
        entry_matches_lift_all(&name, &bin, entry, &cfg).unwrap_or(0)
    })
    .into_iter()
    .sum();
    assert!(compared > 1000, "too few functions compared: {compared}");
}
