//! Full-scale differential rewriting campaigns (the issue's acceptance
//! bar): original-vs-rewritten trace equivalence over the synthesized
//! corpus, ≥200 trace pairs per mode, zero divergences, and per-binary
//! re-lift correspondence for the identity mode.

use hgl_oracle::{run_differential, DiffConfig};

/// Identity mode: exact equivalence — same normalised traces, same
/// stop causes, all sixteen final registers, the flags, and the full
/// memory write-delta. Every program's re-emitted ELF must also
/// re-lift to a Hoare Graph equivalent to the original lift.
#[test]
fn identity_differential_campaign() {
    let cfg = DiffConfig {
        programs: 60,
        entries_per_program: 4,
        relift_each: true,
        ..DiffConfig::default()
    };
    let report = run_differential(&cfg);
    assert!(report.divergence.is_none(), "identity divergence:\n{report}");
    assert!(
        report.traces_run >= 200,
        "campaign too small: {} trace pairs\n{report}",
        report.traces_run
    );
    assert_eq!(
        report.relifts_ok, report.programs_run,
        "every identity artifact must re-lift to an equivalent graph:\n{report}"
    );
    assert_eq!(report.rewrite_refused, 0, "identity rewriting never refuses:\n{report}");
    assert_eq!(report.guards_inserted, 0);
}

/// Shadow-stack mode: equivalence modulo the documented guard ABI
/// (guard-frame steps dropped by normalisation, `r10`/`r11`/flags not
/// compared, shadow-section writes excluded). Guards must never fire
/// on these benign traces.
#[test]
fn guarded_differential_campaign() {
    let cfg = DiffConfig {
        programs: 60,
        entries_per_program: 4,
        guarded: true,
        ..DiffConfig::default()
    };
    let report = run_differential(&cfg);
    assert!(report.divergence.is_none(), "guarded divergence:\n{report}");
    assert!(
        report.traces_run >= 200,
        "campaign too small: {} trace pairs\n{report}",
        report.traces_run
    );
    assert!(
        report.guards_inserted > 0,
        "campaign never exercised a guard — the mode is vacuous:\n{report}"
    );
}

/// The `rewrite-verify` benchmark corpus at one fixed seed: 24 study
/// binaries (every third a library) plus the `wc`, `du` and `hexdump`
/// builds, each as its parsed ELF image, with the benchmark's 16 entry
/// states.
mod rewrite_verify_corpus {
    use hgl_corpus::coreutils;
    use hgl_corpus::xen::gen_study_binary;
    use hgl_elf::Binary;
    use hgl_oracle::EntryState;

    pub const SEED: u64 = 0x5eed_0012;
    pub const MAX_STEPS: usize = 20_000;

    pub fn binaries() -> Vec<(String, Binary)> {
        let mut bins: Vec<(String, Binary)> = (0..24u64)
            .map(|i| (format!("study_{i}"), gen_study_binary(SEED ^ (i << 40), i % 3 == 2)))
            .collect();
        for spec in coreutils::specs()
            .into_iter()
            .filter(|c| ["wc", "du", "hexdump"].contains(&c.name))
        {
            bins.push((spec.name.to_string(), coreutils::build(&spec, SEED)));
        }
        bins.into_iter()
            .map(|(name, b)| {
                let parsed = Binary::parse(&hgl_rewrite::elf_image(&b)).expect("corpus image parses");
                (name, parsed)
            })
            .collect()
    }

    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Small `rdi` values first (jump-table cases), then large ones.
    pub fn entry_states() -> Vec<EntryState> {
        (0..16u64)
            .map(|k| {
                let z = SEED ^ (k << 48);
                EntryState {
                    rdi: if k < 3 { k } else { 64 + (mix(z) & 0xfff) },
                    scratch: [
                        mix(z ^ 1) & 0xffff,
                        mix(z ^ 2) & 0xffff,
                        mix(z ^ 3) & 0xffff,
                        mix(z ^ 4),
                        mix(z ^ 5) & 0xff,
                        mix(z ^ 6) & 0xff,
                    ],
                }
            })
            .collect()
    }
}

/// 64-bit FNV-1a, fed incrementally.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

fn hash_run(h: &mut Fnv, run: &hgl_oracle::RunSummary) {
    h.u64(run.rips.len() as u64);
    for &r in &run.rips {
        h.u64(r);
    }
    h.bytes(run.stop.to_string().as_bytes());
    for &r in &run.regs {
        h.u64(r);
    }
    let (cf, pf, zf, sf, of, df) = run.flags;
    h.bytes(&[cf as u8, pf as u8, zf as u8, sf as u8, of as u8, df as u8]);
    h.u64(run.writes.len() as u64);
    for (&a, &v) in &run.writes {
        h.u64(a);
        h.bytes(&[v]);
    }
}

/// Byte-identity golden for `hgl rewrite --verify`: over the fixed
/// benchmark corpus, in identity and shadow-stack mode, the rewritten
/// ELF images, the guard counts and every original and rewritten
/// `RunSummary` hash to digests pinned from the emulator and rewriter
/// before their memory model and lint selection were reworked.
#[test]
fn rewrite_verify_corpus_is_byte_identical() {
    use hgl_oracle::run_raw;
    use hgl_rewrite::{elf_image, rewrite, RewritePass, ShadowStackPass};

    const IMAGES: u64 = 0x5c47_8203_bd74_bc06;
    const GUARDS: u64 = 0xbffa_a2ac_5b92_9867;
    const RUNS: u64 = 0xb752_3bb2_eb15_5c71;

    let states = rewrite_verify_corpus::entry_states();
    let (mut images, mut guards, mut runs) = (Fnv::new(), Fnv::new(), Fnv::new());
    let shadow = ShadowStackPass;
    for (name, bin) in rewrite_verify_corpus::binaries() {
        let lift = hgl_core::Lifter::new(&bin).lift_all().result;
        assert!(lift.is_lifted(), "{name} did not lift");
        for guarded in [false, true] {
            let passes: Vec<&dyn RewritePass> = if guarded { vec![&shadow] } else { Vec::new() };
            let out = rewrite(&bin, &lift, &passes)
                .unwrap_or_else(|e| panic!("{name} (guarded={guarded}) refused: {e}"));
            images.bytes(&elf_image(&out.binary));
            guards.u64(out.stats.guards_inserted);
            for es in &states {
                hash_run(&mut runs, &run_raw(&bin, es, None, rewrite_verify_corpus::MAX_STEPS));
                hash_run(
                    &mut runs,
                    &run_raw(&out.binary, es, Some(&out), rewrite_verify_corpus::MAX_STEPS),
                );
            }
        }
    }
    let got = (images.0, guards.0, runs.0);
    assert_eq!(
        got,
        (IMAGES, GUARDS, RUNS),
        "rewrite-verify digests drifted: images {:#018x}, guards {:#018x}, runs {:#018x}",
        got.0,
        got.1,
        got.2
    );
}

/// Lint parity: on every corpus binary, the functions the shadow-stack
/// pass guards are exactly the lifted functions with a `ret` that the
/// full `analyze` report marks with a `ret-slot-overwrite` or
/// `stack-depth` warning or error. The pass runs those two lints
/// itself; this keeps its selection from drifting away from `analyze`.
#[test]
fn shadow_stack_guards_match_full_analysis() {
    use hgl_analysis::{analyze, AnalysisConfig, Rule, Severity};
    use hgl_rewrite::{rewrite, ShadowStackPass};
    use hgl_x86::Mnemonic;
    use std::collections::BTreeSet;

    let mut guarded_total = 0;
    for (name, bin) in rewrite_verify_corpus::binaries() {
        let lift = hgl_core::Lifter::new(&bin).lift_all().result;
        let report = analyze(&bin, &lift, &AnalysisConfig::default());
        let flagged: BTreeSet<u64> = report
            .diags
            .iter()
            .filter(|d| {
                matches!(d.rule, Rule::RetSlotOverwrite | Rule::StackDepth)
                    && matches!(d.severity, Severity::Warning | Severity::Error)
            })
            .map(|d| d.function)
            .collect();
        let expected: BTreeSet<u64> = lift
            .functions
            .values()
            .filter(|f| f.is_lifted() && flagged.contains(&f.entry))
            .filter(|f| f.graph.instructions().values().any(|i| i.mnemonic == Mnemonic::Ret))
            .map(|f| f.entry)
            .collect();
        let out = rewrite(&bin, &lift, &[&ShadowStackPass])
            .unwrap_or_else(|e| panic!("{name}: shadow-stack refused: {e}"));
        let guarded: BTreeSet<u64> = out.guards.iter().map(|g| g.function).collect();
        assert_eq!(guarded, expected, "{name}: guarded functions differ from analyze's");
        guarded_total += guarded.len();
    }
    assert!(guarded_total > 0, "no corpus function was guarded — the parity check is vacuous");
}
