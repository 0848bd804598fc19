//! `rewrite-verify`: `hgl rewrite --verify` in-process, once as an
//! identity rewrite and once with the shadow-stack pass, on every
//! corpus binary.
//!
//! One operation is one CLI invocation: parse → `lift_all` → `rewrite`
//! → `elf_image`, then the verification the CLI runs: re-parse and
//! `verify_relift` for identity rewrites, and 16 seeded differential
//! traces (`run_raw` on both binaries, `compare_runs`) in both modes.
//! The references are the emulator's runs of the original binary and
//! the re-lift's graph correspondence; identity rewrites must also
//! leave the image size unchanged.

use crate::report::{chunk_seed, elf_metrics, measure, overhead, CoreTally, Report, Workload};
use crate::trace::Tracer;
use crate::RunCfg;
use hgl_core::Lifter;
use hgl_corpus::coreutils;
use hgl_corpus::xen::gen_study_binary;
use hgl_elf::Binary;
use hgl_oracle::{compare_runs, run_raw, EntryState};
use hgl_rewrite::{elf_image, rewrite, verify_relift, RewritePass, ShadowStackPass};
use hgl_solver::CacheStats;
use std::time::Instant;

/// Generated study binaries per chunk.
const STUDY_BINARIES: u64 = 24;

/// Coreutils builds added to the study binaries of each chunk: the
/// three smallest, so one run holds enough operations for a p99 tail.
const COREUTILS: [&str; 3] = ["wc", "du", "hexdump"];

/// Differential traces per rewrite, as `hgl rewrite --verify` runs.
const TRACES: usize = 16;

/// Emulator step budget per trace, as `hgl rewrite --verify` sets it.
const MAX_STEPS: usize = 20_000;

/// Seeded entry states in the shape `hgl rewrite --verify` uses: small
/// `rdi` values first (jump-table cases), then large ones.
fn entry_states(seed: u64) -> Vec<EntryState> {
    fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
    (0..TRACES as u64)
        .map(|k| {
            let z = seed ^ (k << 48);
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

/// One chunk: images of fresh corpus binaries and the entry states of
/// their differential traces.
struct Chunk {
    names: Vec<String>,
    images: Vec<Vec<u8>>,
    states: Vec<EntryState>,
}

#[derive(Default)]
struct RewriteVerify {
    seed: u64,
    ops_done: u64,
    core: CoreTally,
    parse_ns: u64,
    image_bytes: u64,
    emit_ns: u64,
    identity_ns: u64,
    identities: u64,
    guarded_ns: u64,
    guardeds: u64,
    relift_ns: u64,
    trace_ns: u64,
    traces: u64,
    instructions: u64,
    guards: u64,
    refused: u64,
    bytes_delta: i64,
    divergences: u64,
    traced_ops: u64,
    lifted_states: u64,
    lifted_instructions: u64,
}

impl Workload for RewriteVerify {
    type Chunk = Chunk;

    fn prepare(&mut self, index: u64) -> Chunk {
        let seed = chunk_seed(self.seed, index);
        let mut c = Chunk {
            names: Vec::new(),
            images: Vec::new(),
            states: entry_states(seed),
        };
        for i in 0..STUDY_BINARIES {
            c.names.push(format!("study_{i}"));
            c.images
                .push(elf_image(&gen_study_binary(seed ^ (i << 40), i % 3 == 2)));
        }
        for spec in coreutils::specs()
            .into_iter()
            .filter(|c| COREUTILS.contains(&c.name))
        {
            c.names.push(spec.name.to_string());
            c.images.push(elf_image(&coreutils::build(&spec, seed)));
        }
        c
    }

    /// Operation `i` rewrites binary `i / 2`: identity when `i` is even,
    /// shadow-stack when odd.
    fn ops(chunk: &Chunk) -> usize {
        2 * chunk.images.len()
    }

    fn op(&mut self, chunk: &Chunk, i: usize, tr: &mut Tracer) -> (f64, Option<String>) {
        let guarded = i % 2 == 1;
        let id = self.ops_done;
        self.ops_done += 1;
        let (seconds, problem) =
            self.rewrite_verify(&chunk.images[i / 2], &chunk.states, guarded, id, tr);
        let mode = if guarded { "shadow-stack" } else { "identity" };
        (
            seconds,
            problem.map(|p| format!("{} ({mode}): {p}", chunk.names[i / 2])),
        )
    }
}

pub fn run(cfg: &RunCfg) -> Report {
    let mut w = RewriteVerify {
        seed: cfg.seed,
        ..RewriteVerify::default()
    };
    let mut r = Report::default();
    let (untraced, traced) = measure(&mut w, cfg, &mut r);
    let Some((traced, tr)) = traced else {
        r.closed_loop(&untraced, "rewrite --verify runs");
        r.metric(
            "states_per_instr",
            w.lifted_states as f64 / w.lifted_instructions.max(1) as f64,
            "states/instr",
        );
        return r;
    };
    overhead(&mut r, &untraced, &traced);
    let per = |x: u64| x as f64 / w.traced_ops.max(1) as f64;
    let per_mode = |x: u64, n: u64| x as f64 / n.max(1) as f64;
    w.core.emit(&mut r);
    elf_metrics(&mut r, w.parse_ns, w.image_bytes, w.traced_ops);
    r.metric("elf.emit_ns", per(w.emit_ns), "ns/op");
    r.metric(
        "rewrite.identity_ns",
        per_mode(w.identity_ns, w.identities),
        "ns/op",
    );
    r.metric(
        "rewrite.guarded_ns",
        per_mode(w.guarded_ns, w.guardeds),
        "ns/op",
    );
    r.metric("rewrite.instructions", per(w.instructions), "count/op");
    r.metric("rewrite.guards", per(w.guards), "count/op");
    r.metric("rewrite.refused", per(w.refused), "count/op");
    r.metric(
        "rewrite.bytes_delta",
        w.bytes_delta as f64 / w.traced_ops.max(1) as f64,
        "B/op",
    );
    r.metric(
        "oracle.relift_ns",
        per_mode(w.relift_ns, w.identities),
        "ns/op",
    );
    r.metric(
        "oracle.trace_ns",
        per_mode(w.trace_ns, w.traces),
        "ns/trace",
    );
    r.metric("oracle.traces", per(w.traces), "count/op");
    r.metric("oracle.divergences", per(w.divergences), "count/op");
    crate::report::emit_self_times(&mut r, &tr, &cfg.out_dir, "rewrite-verify", cfg.seed);
    r
}

impl RewriteVerify {
    /// One `hgl rewrite --verify` run; returns its seconds and the
    /// reference-check verdict.
    fn rewrite_verify(
        &mut self,
        image: &[u8],
        states: &[EntryState],
        guarded: bool,
        id: u64,
        tr: &mut Tracer,
    ) -> (f64, Option<String>) {
        let t0 = Instant::now();
        let op = tr.open("op.rewrite", id, None);
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
                    Some(format!("image does not parse: {e}")),
                );
            }
        };
        let s = tr.open("core.lift", id, Some(op));
        let lift_start = Instant::now();
        let report = Lifter::new(&bin).lift_all();
        let lift_ns = lift_start.elapsed().as_nanos() as u64;
        tr.close(s);
        if !report.result.is_lifted() {
            tr.close(op);
            return (
                t0.elapsed().as_secs_f64(),
                Some(format!("did not lift: {:?}", report.result.reject_reason())),
            );
        }

        let s = tr.open(
            if guarded {
                "rewrite.guarded"
            } else {
                "rewrite.identity"
            },
            id,
            Some(op),
        );
        let rw_start = Instant::now();
        let shadow = ShadowStackPass;
        let passes: Vec<&dyn RewritePass> = if guarded { vec![&shadow] } else { Vec::new() };
        let out = rewrite(&bin, &report.result, &passes);
        let rw_ns = rw_start.elapsed().as_nanos() as u64;
        tr.close(s);
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                tr.close(op);
                if tr.enabled() {
                    self.refused += 1;
                    self.traced_ops += 1;
                }
                let seconds = t0.elapsed().as_secs_f64();
                // A shadow-stack refusal is a verdict; an identity refusal of
                // a binary that lifted is a defect.
                return (
                    seconds,
                    (!guarded).then(|| format!("identity rewrite refused: {e}")),
                );
            }
        };
        let s = tr.open("elf.emit", id, Some(op));
        let emit_start = Instant::now();
        let emitted = elf_image(&out.binary);
        let emit_ns = emit_start.elapsed().as_nanos() as u64;
        tr.close(s);

        let mut problem = None;
        let mut relift_ns = 0;
        if !guarded {
            let s = tr.open("oracle.relift", id, Some(op));
            let relift_start = Instant::now();
            let verdict =
                Binary::parse(&emitted).map(|reparsed| verify_relift(&report.result, &reparsed));
            relift_ns = relift_start.elapsed().as_nanos() as u64;
            tr.close(s);
            match verdict {
                Err(e) => problem = Some(format!("emitted ELF does not parse: {e}")),
                Ok(v) if !v.ok() => {
                    problem = Some(format!(
                        "re-lift does not correspond: {:?}",
                        v.report.details
                    ))
                }
                Ok(_) => {}
            }
            if out.stats.bytes_delta != 0 {
                problem = Some(format!(
                    "identity rewrite changed the image by {} bytes",
                    out.stats.bytes_delta
                ));
            }
        }
        let s = tr.open("oracle.traces", id, Some(op));
        let trace_start = Instant::now();
        let mut divergences = 0;
        for (k, es) in states.iter().enumerate() {
            let orig = run_raw(&bin, es, None, MAX_STEPS);
            let rw = run_raw(&out.binary, es, Some(&out), MAX_STEPS);
            if let Some(detail) = compare_runs(&orig, &rw, guarded) {
                divergences += 1;
                problem.get_or_insert_with(|| format!("trace {k} diverges: {detail}"));
            }
        }
        let trace_ns = trace_start.elapsed().as_nanos() as u64;
        tr.close(s);
        tr.close(op);
        let seconds = t0.elapsed().as_secs_f64();

        self.lifted_states += report.result.state_count() as u64;
        self.lifted_instructions += report.result.instruction_count() as u64;
        if tr.enabled() {
            self.core.add(
                &report.metrics,
                &report.result,
                lift_ns,
                &CacheStats::default(),
            );
            self.parse_ns += parse_ns;
            self.image_bytes += image.len() as u64;
            self.emit_ns += emit_ns;
            if guarded {
                self.guarded_ns += rw_ns;
                self.guardeds += 1;
                self.guards += out.stats.guards_inserted;
            } else {
                self.identity_ns += rw_ns;
                self.identities += 1;
                self.relift_ns += relift_ns;
            }
            self.trace_ns += trace_ns;
            self.traces += states.len() as u64;
            self.instructions += out.stats.instructions_reencoded;
            self.bytes_delta += out.stats.bytes_delta;
            self.divergences += divergences;
            self.traced_ops += 1;
        }
        (seconds, problem)
    }
}
