//! `store-incremental`: multi-function binaries re-lifted with
//! `lift_all` through a fresh `Store` and a fresh `Lifter` each, as
//! `hgl lift --all --store DIR --json` runs them.
//!
//! Each chunk is a fresh corpus: its preparation fills a store from an
//! older version of the corpus in which a fixed quarter of the binaries
//! differ, then every current binary is re-lifted through that store.
//! The reference is a cold lift (no store) of the same binary: its JSON
//! must come back byte for byte.

use crate::report::{chunk_seed, elf_metrics, measure, overhead, CoreTally, Report, Workload};
use crate::trace::Tracer;
use crate::RunCfg;
use hgl_core::{ArtifactStore, Lifter, StoreStats};
use hgl_corpus::coreutils;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_export::export_json;
use hgl_solver::CacheStats;
use hgl_store::Store;
use std::path::PathBuf;
use std::time::Instant;

/// Generated whole-program study binaries (four to eight functions
/// each) per chunk; the six coreutils builds come on top.
const STUDY_BINARIES: u64 = 24;

/// One chunk: the current images, their cold-lift references, and a
/// store filled from the older corpus.
struct Chunk {
    names: Vec<String>,
    images: Vec<Vec<u8>>,
    /// Cold-lift JSON of each binary: the reference.
    reference: Vec<String>,
}

/// The corpus of a chunk seed: `(name, binary)` pairs. `old` generates
/// the version the store was filled from, in which every fourth binary
/// differs.
fn corpus(seed: u64, old: bool) -> Vec<(String, Binary)> {
    let changed = |i: u64| old && i.is_multiple_of(4);
    let vary = |s: u64, i: u64| if changed(i) { s ^ 0x0dd5_eed0 } else { s };
    let mut out: Vec<(String, Binary)> = (0..STUDY_BINARIES)
        .map(|i| {
            (
                format!("study_{i}"),
                gen_study_binary(vary(seed ^ (i << 40), i), false),
            )
        })
        .collect();
    for (k, spec) in coreutils::specs().iter().enumerate() {
        let i = STUDY_BINARIES + k as u64;
        out.push((spec.name.to_string(), coreutils::build(spec, vary(seed, i))));
    }
    out
}

#[derive(Default)]
struct StoreRelift {
    seed: u64,
    /// The store directory, emptied and refilled by every chunk's
    /// preparation (deleting the old files before writeback keeps disk
    /// traffic out of the timed operations).
    dir: PathBuf,
    ops_done: u64,
    core: CoreTally,
    store: StoreStats,
    parse_ns: u64,
    image_bytes: u64,
    open_ns: u64,
    hit_lift_ns: u64,
    hit_lifts: u64,
    json_ns: u64,
    json_bytes: u64,
    traced_ops: u64,
    lifted_states: u64,
    lifted_instructions: u64,
}

impl Workload for StoreRelift {
    type Chunk = Chunk;

    fn prepare(&mut self, index: u64) -> Chunk {
        let seed = chunk_seed(self.seed, index);
        let _ = std::fs::remove_dir_all(&self.dir);
        let old = Store::open(&self.dir).expect("create the store directory");
        for (_, b) in corpus(seed, true) {
            Lifter::new(&b).with_store(&old).lift_all();
        }
        let mut c = Chunk {
            names: Vec::new(),
            images: Vec::new(),
            reference: Vec::new(),
        };
        for (name, b) in corpus(seed, false) {
            let image = hgl_rewrite::elf_image(&b);
            let cold = Binary::parse(&image).expect("generated image parses");
            c.reference
                .push(export_json(&Lifter::new(&cold).lift_all().result));
            c.names.push(name);
            c.images.push(image);
        }
        c
    }

    fn ops(chunk: &Chunk) -> usize {
        chunk.images.len()
    }

    fn op(&mut self, chunk: &Chunk, i: usize, tr: &mut Tracer) -> (f64, Option<String>) {
        let id = self.ops_done;
        self.ops_done += 1;
        let (seconds, json) = self.relift(&chunk.images[i], id, tr);
        let problem = match json {
            Err(e) => Some(format!("{}: {e}", chunk.names[i])),
            Ok(j) if j != chunk.reference[i] => Some(format!(
                "{}: store lift JSON differs from the cold lift",
                chunk.names[i]
            )),
            Ok(_) => None,
        };
        (seconds, problem)
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let root = cfg.out_dir.join(format!("store-{}", std::process::id()));
    let mut w = StoreRelift {
        seed: cfg.seed,
        dir: root.join("store"),
        ..StoreRelift::default()
    };
    let mut r = Report::default();
    let (untraced, traced) = measure(&mut w, cfg, &mut r);
    let _ = std::fs::remove_dir_all(&root);
    let Some((traced, tr)) = traced else {
        r.closed_loop(&untraced, "binary verdicts");
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
    let st = w.store;
    r.metric("store.open_ns", per(w.open_ns), "ns/op");
    r.metric(
        "store.lift_ns",
        w.hit_lift_ns as f64 / w.hit_lifts.max(1) as f64,
        "ns/op",
    );
    r.notes.push(format!("note store.lift_ns is the lift span of binaries answered entirely from the store ({} lifts)", w.hit_lifts));
    r.metric("store.hits", per(st.hits), "count/op");
    r.metric("store.misses", per(st.misses), "count/op");
    r.metric("store.invalidations", per(st.invalidations), "count/op");
    r.metric("store.inserts", per(st.inserts), "count/op");
    r.metric("store.hit_rate", st.hit_rate(), "ratio");
    r.metric("store.write_retries", per(st.write_retries), "count/op");
    crate::report::emit_self_times(&mut r, &tr, &cfg.out_dir, "store-incremental", cfg.seed);
    r
}

impl StoreRelift {
    /// Re-lift one image through a fresh store; returns its seconds and
    /// the exported JSON.
    fn relift(&mut self, image: &[u8], id: u64, tr: &mut Tracer) -> (f64, Result<String, String>) {
        let t0 = Instant::now();
        let op = tr.open("op.binary", id, None);
        let s = tr.open("elf.parse", id, Some(op));
        let parsed = Binary::parse(image);
        let parse_ns = t0.elapsed().as_nanos() as u64;
        tr.close(s);
        let bin = match parsed {
            Ok(b) => b,
            Err(e) => {
                tr.close(op);
                return (
                    t0.elapsed().as_secs_f64(),
                    Err(format!("image does not parse: {e}")),
                );
            }
        };
        let s = tr.open("store.open", id, Some(op));
        let open_start = Instant::now();
        let store = Store::open(&self.dir);
        let open_ns = open_start.elapsed().as_nanos() as u64;
        tr.close(s);
        let store = match store {
            Ok(st) => st,
            Err(e) => {
                tr.close(op);
                return (
                    t0.elapsed().as_secs_f64(),
                    Err(format!("store does not open: {e}")),
                );
            }
        };
        let s = tr.open("core.lift", id, Some(op));
        let lift_start = Instant::now();
        let report = Lifter::new(&bin).with_store(&store).lift_all();
        let lift_ns = lift_start.elapsed().as_nanos() as u64;
        tr.close(s);
        let s = tr.open("export.json", id, Some(op));
        let json_start = Instant::now();
        let json = export_json(&report.result);
        let json_ns = json_start.elapsed().as_nanos() as u64;
        tr.close(s);
        tr.close(op);
        let seconds = t0.elapsed().as_secs_f64();

        if report.result.is_lifted() {
            self.lifted_states += report.result.state_count() as u64;
            self.lifted_instructions += report.result.instruction_count() as u64;
        }
        if tr.enabled() {
            let st = store.stats();
            self.core.add(
                &report.metrics,
                &report.result,
                lift_ns,
                &CacheStats::default(),
            );
            self.parse_ns += parse_ns;
            self.image_bytes += image.len() as u64;
            self.open_ns += open_ns;
            if st.misses + st.invalidations == 0 {
                self.hit_lift_ns += lift_ns;
                self.hit_lifts += 1;
            }
            let acc = &mut self.store;
            acc.hits += st.hits;
            acc.misses += st.misses;
            acc.invalidations += st.invalidations;
            acc.inserts += st.inserts;
            acc.write_retries += st.write_retries;
            self.json_ns += json_ns;
            self.json_bytes += json.len() as u64;
            self.traced_ops += 1;
        }
        (seconds, Ok(json))
    }
}
