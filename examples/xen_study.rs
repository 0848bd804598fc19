//! A miniature version of the Xen case study (Table 1): generate a
//! corpus of binaries and library functions, lift every unit, and
//! summarize outcomes.
//!
//! ```text
//! cargo run --release --example xen_study [seed]
//! ```
//!
//! For the full Table-1 reproduction use `cargo run --release --bin
//! table1`.

use hgl_corpus::xen::{build_study, run_study_parallel, study_config, Outcome, StudySpec};

fn main() {
    let seed: u64 = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let study = build_study(&StudySpec::mini(), seed);
    println!("Generated {} corpus units (seed {seed})\n", study.units.len());

    let results = run_study_parallel(&study, &study_config(), 1);
    println!(
        "{:<12} {:<12} {:>10} {:>8} {:>8}  {:>4} {:>3} {:>3}  outcome",
        "directory", "unit", "expected", "instrs", "states", "A", "B", "C"
    );
    for r in &results {
        println!(
            "{:<12} {:<12} {:>10} {:>8} {:>8}  {:>4} {:>3} {:>3}  {:?}",
            r.directory,
            r.name,
            format!("{:?}", r.expected),
            r.instructions,
            r.states,
            r.indirections.0,
            r.indirections.1,
            r.indirections.2,
            r.outcome
        );
    }
    let lifted = results.iter().filter(|r| r.outcome == Outcome::Lifted).count();
    println!("\n{lifted}/{} units lifted", results.len());
}
