//! Table 1 benchmark: end-to-end lifting of Xen-like corpus units, one
//! benchmark group per directory row. The `table1` binary prints the
//! actual table; this measures its cost and watches for lifting-speed
//! regressions.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hgl_corpus::xen::{build_study, run_study_parallel, study_config, StudySpec, UnitKind};
use hgl_core::Lifter;

fn bench_table1(c: &mut Criterion) {
    let study = build_study(&StudySpec::mini(), 2022);
    let config = study_config();

    let mut group = c.benchmark_group("table1");
    group.sample_size(10);

    // Whole mini study (what the table1 binary does, scaled down).
    group.bench_function("mini_study", |b| {
        b.iter_batched(
            || (),
            |_| run_study_parallel(&study, &config, 1),
            BatchSize::PerIteration,
        )
    });

    // One representative liftable binary and one library function.
    let bin_unit = study
        .units
        .iter()
        .find(|u| u.kind == UnitKind::Binary && u.expected == hgl_corpus::xen::ExpectedOutcome::Lifted)
        .expect("a binary unit");
    group.bench_function("lift_one_binary", |b| {
        b.iter(|| Lifter::new(&bin_unit.binary).with_config(config.clone()).lift_entry(bin_unit.binary.entry))
    });
    let lib_unit = study
        .units
        .iter()
        .find(|u| u.kind == UnitKind::LibraryFunction && u.expected == hgl_corpus::xen::ExpectedOutcome::Lifted)
        .expect("a library unit");
    group.bench_function("lift_one_library_fn", |b| {
        b.iter(|| Lifter::new(&lib_unit.binary).with_config(config.clone()).lift_entry(lib_unit.entry))
    });
    group.finish();
}

criterion_group!(benches, bench_table1);
criterion_main!(benches);
